//! The `raven_serve` command line as a process sees it: generated
//! `--help` and the usage-error exit code.

use std::process::Command;

const FLAGS: [&str; 19] = [
    "--models-dir",
    "--addr",
    "--workers",
    "--queue-capacity",
    "--cache-capacity",
    "--request-timeout-secs",
    "--threads",
    "--deadline-ms",
    "--max-body-bytes",
    "--journal-dir",
    "--journal-segment-bytes",
    "--journal-cap-bytes",
    "--watchdog-grace-ms",
    "--job-retries",
    "--client-timeout-ms",
    "--strict-certificates",
    "--trace-slow-ms",
    "--trace-sample-rate",
    "--trace-capacity",
];

fn raven_serve(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_raven_serve"))
        .args(args)
        .output()
        .expect("spawn raven_serve")
}

#[test]
fn help_exits_zero_and_lists_every_flag() {
    let out = raven_serve(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).expect("utf-8 help");
    for flag in FLAGS.iter().chain(&["--help"]) {
        assert!(text.contains(flag), "{flag} missing from\n{text}");
    }
}

#[test]
fn usage_errors_exit_2_with_the_help() {
    for args in [
        &["--models-dir", "models", "--fleet-addr", "127.0.0.1:0"][..],
        &["--models-dir", "models", "--workers", "two"][..],
        &["--models-dir", "models", "--trace-sample-rate", "NaN"][..],
        &["--addr", "127.0.0.1:0"][..],
    ] {
        let out = raven_serve(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{stderr}");
        assert!(stderr.contains("usage: raven_serve"), "{stderr}");
    }
}
