//! The `raven_check` command line as a process sees it: help prints the
//! usage on stdout and exits 0, usage errors exit 2 with `error: …` and
//! the usage on stderr, and a single file argument is read as the
//! certificate.

use std::process::{Command, Output};

fn raven_check(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_raven_check"))
        .args(args)
        .output()
        .expect("spawn raven_check")
}

#[test]
fn help_exits_zero_with_the_usage() {
    for help in ["--help", "-h"] {
        let out = raven_check(&[help]);
        assert_eq!(out.status.code(), Some(0), "{help}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.starts_with("usage: raven_check"), "{help}: {text}");
        assert!(out.stderr.is_empty(), "{help} wrote to stderr");
    }
}

#[test]
fn flags_and_extra_files_are_usage_errors() {
    for (args, error) in [
        (&["--chek"][..], "unknown flag --chek"),
        (&["-x", "cert.json"][..], "unknown flag -x"),
        (&["cert.json", "--verbose"][..], "unknown flag --verbose"),
        (&["-"][..], "unknown flag -"),
        (&["a.json", "b.json"][..], "unexpected argument b.json"),
    ] {
        let out = raven_check(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {error}")),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("usage: raven_check"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} read a certificate");
    }
}

#[test]
fn one_file_argument_is_read_as_the_certificate() {
    let path = std::env::temp_dir().join(format!("raven-check-cli-{}.json", std::process::id()));
    std::fs::write(&path, "{\"kind\": ").expect("write certificate");
    let out = raven_check(&[path.to_str().expect("utf-8 path")]);
    std::fs::remove_file(&path).expect("remove certificate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "{stdout}");
    assert!(stdout.contains("invalid JSON"), "{stdout}");
    let missing = raven_check(&["no-such-certificate.json"]);
    let stdout = String::from_utf8_lossy(&missing.stdout);
    assert_eq!(missing.status.code(), Some(2), "{stdout}");
    assert!(
        stdout.contains("cannot read no-such-certificate.json"),
        "{stdout}"
    );
}
