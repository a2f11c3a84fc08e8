//! The `raven_cli` command line as a process sees it: generated `--help`,
//! and the exit codes of malformed invocations (2 for bad flags, 1 for a
//! bad batch file; never a panic's 101).

use std::process::{Command, Output};

fn raven_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_raven_cli"))
        .args(args)
        .output()
        .expect("spawn raven_cli")
}

fn repo_file(name: &str) -> String {
    format!("{}/../../models/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn help_exits_zero_and_lists_every_flag() {
    let out = raven_cli(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).expect("utf-8 help");
    for flag in [
        "--model",
        "--inputs",
        "--out",
        "--eps",
        "--method",
        "--pairs",
        "--lp-only",
        "--threads",
        "--deadline-ms",
        "--json",
        "--certificate-out",
        "--center",
        "--feature",
        "--tau",
        "--decreasing",
        "--stats",
        "--trace-out",
        "--help",
    ] {
        assert!(text.contains(flag), "{flag} missing from\n{text}");
    }
    for command in [
        "info",
        "train-demo",
        "verify-uap",
        "verify-mono",
        "export-lp",
    ] {
        assert!(
            text.contains(&format!("raven_cli {command} [flags]")),
            "{text}"
        );
        let out = raven_cli(&[command, "-h"]);
        assert_eq!(out.status.code(), Some(0), "{command} -h");
        let text = String::from_utf8(out.stdout).expect("utf-8 help");
        assert!(text.starts_with(&format!("usage: raven_cli {command} [flags]")));
    }
}

#[test]
fn bad_inputs_exit_with_their_class_not_a_panic() {
    let (model, batch) = (repo_file("demo.net"), repo_file("demo_batch.txt"));
    let center = vec!["0.5"; 36].join(",");
    let dir = std::env::temp_dir().join(format!("raven_cli_exit_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bad_label = dir.join("batch.txt");
    std::fs::write(&bad_label, format!("4 {}\n", vec!["0.5"; 36].join(" "))).expect("write");
    let bad_label = bad_label.to_str().expect("utf-8 path");
    let uap = |eps: &'static str, inputs: &str| -> Vec<String> {
        [
            "verify-uap",
            "--model",
            &model,
            "--inputs",
            inputs,
            "--eps",
            eps,
        ]
        .map(String::from)
        .to_vec()
    };
    let mono = |feature: &'static str, tau: &'static str| -> Vec<String> {
        [
            "verify-mono",
            "--model",
            &model,
            "--center",
            &center,
            "--feature",
            feature,
            "--tau",
            tau,
        ]
        .map(String::from)
        .to_vec()
    };
    for (args, code) in [
        (uap("0.01", bad_label), 1),
        (mono("999", "0.1"), 2),
        (uap("-0.5", &batch), 2),
        (uap("NaN", &batch), 2),
        (mono("0", "-1"), 2),
        (
            [uap("0.01", &batch), vec!["--methd".into(), "box".into()]].concat(),
            2,
        ),
    ] {
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let out = raven_cli(&args);
        assert_eq!(
            out.status.code(),
            Some(code),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
