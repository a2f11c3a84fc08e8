//! The bench binaries' command lines: `--help` is generated from each
//! binary's flag table, malformed invocations exit 2 before any workload
//! runs, and an unusable `obs --check` baseline exits 1 just as early.

use std::process::{Command, Output};

const TABLES: &str = env!("CARGO_BIN_EXE_tables");
const FIGURES: &str = env!("CARGO_BIN_EXE_figures");
const OBS: &str = env!("CARGO_BIN_EXE_obs");

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("spawn bench binary")
}

#[test]
fn help_exits_zero_and_lists_every_flag() {
    for (bin, flags) in [
        (TABLES, &["--quick", "--threads"][..]),
        (FIGURES, &["--threads"][..]),
        (OBS, &["--out", "--threads", "--check"][..]),
    ] {
        for help in ["--help", "-h"] {
            let out = run(bin, &[help]);
            assert_eq!(out.status.code(), Some(0), "{bin} {help}");
            let text = String::from_utf8(out.stdout).expect("utf-8 help");
            for flag in flags.iter().chain(&["--help"]) {
                assert!(text.contains(flag), "{bin}: {flag} missing from\n{text}");
            }
        }
    }
}

#[test]
fn malformed_invocations_exit_2_before_running() {
    for (bin, args, error) in [
        (TABLES, &["--quik"][..], "unknown flag --quik"),
        (TABLES, &["--threads", "many"][..], "--threads: "),
        (TABLES, &["t1", "t9"][..], "unknown table \"t9\""),
        (FIGURES, &["f9"][..], "unknown figure \"f9\""),
        (OBS, &["--chek", "X"][..], "unknown flag --chek"),
        (OBS, &["--check"][..], "--check needs a value"),
    ] {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {error}")),
            "{bin} {args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran a workload");
    }
}

#[test]
fn unusable_baseline_is_a_runtime_error_before_running() {
    let dir = std::env::temp_dir().join(format!("raven-obs-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let not_json = dir.join("not_json.json");
    std::fs::write(&not_json, "{\"counters\": ").expect("write baseline");
    let no_counters = dir.join("no_counters.json");
    std::fs::write(&no_counters, "{\"bench\": \"obs\"}").expect("write baseline");
    let missing = dir.join("missing.json");
    for (path, error) in [
        (&missing, "cannot read baseline"),
        (&not_json, "is not JSON"),
        (&no_counters, "has no \"counters\" object"),
    ] {
        let path = path.to_str().expect("utf-8 path");
        let out = run(OBS, &["--check", path, "--out", path]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{path}: {stderr}");
        assert!(stderr.starts_with("error: "), "{path}: {stderr}");
        assert!(stderr.contains(error), "{path}: {stderr}");
        assert!(out.stdout.is_empty(), "{path}: the workload ran");
    }
    assert!(!missing.exists(), "no report was written");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
