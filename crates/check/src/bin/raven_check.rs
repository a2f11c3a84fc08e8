//! Standalone certificate checker.
//!
//! Reads a certificate from a file argument or stdin and replays it in
//! exact arithmetic. Accepts either a bare certificate object or any JSON
//! envelope containing a `"certificate"` field (so a `/v1/verify/*` or
//! `/v1/jobs/<id>` response can be piped straight in). Prints a one-line
//! JSON report and exits 0 on accept, 1 on reject, 2 on malformed input.
//! `-h`/`--help` prints the usage on stdout and exits 0. A usage error —
//! a flag other than `-h`/`--help`, or a second file — prints `error: …`
//! and the usage on stderr and exits 2.

use raven_check::{check_certificate_json, CheckError};
use raven_json::Json;
use std::io::Read;
use std::time::Instant;

fn fail(code: i32, msg: &str) -> ! {
    println!(
        "{}",
        Json::obj([("ok", Json::from(false)), ("error", Json::from(msg))])
    );
    std::process::exit(code);
}

const USAGE: &str = "usage: raven_check [certificate.json]   (reads stdin when no file is given)
accepts a bare certificate or an envelope with a \"certificate\" field";

/// The certificate file named in argv, if any: at most one argument, and
/// no flags besides help (handled before this).
fn read_args(args: &[String]) -> Result<Option<&str>, String> {
    let mut path = None;
    for arg in args {
        if arg.starts_with('-') {
            return Err(format!("unknown flag {arg}"));
        }
        if let Some(first) = path.replace(arg.as_str()) {
            return Err(format!(
                "unexpected argument {arg}: one certificate file at most (got {first})"
            ));
        }
    }
    Ok(path)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        std::process::exit(0);
    }
    let path = read_args(&args).unwrap_or_else(|msg| {
        eprintln!("error: {msg}\n{USAGE}");
        std::process::exit(2)
    });
    let text = match path {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(err) => fail(2, &format!("cannot read {path}: {err}")),
        },
        None => {
            let mut buf = String::new();
            if let Err(err) = std::io::stdin().read_to_string(&mut buf) {
                fail(2, &format!("cannot read stdin: {err}"));
            }
            buf
        }
    };
    let json = match Json::parse(&text) {
        Ok(j) => j,
        Err(err) => fail(2, &format!("invalid JSON: {err}")),
    };
    // Unwrap envelopes: descend through "result" wrappers (job-status
    // responses nest the verify envelope one level deeper) and take the
    // innermost "certificate" field if present.
    let mut node = &json;
    loop {
        if let Some(inner) = node.get("certificate") {
            node = inner;
        } else if let Some(inner) = node.get("result") {
            node = inner;
        } else {
            break;
        }
    }
    let bytes = node.to_string().len();
    let start = Instant::now();
    match check_certificate_json(node) {
        Ok(report) => {
            let millis = start.elapsed().as_secs_f64() * 1e3;
            let mut out = report.to_json();
            if let Json::Obj(pairs) = &mut out {
                pairs.push(("certificate_bytes".to_string(), Json::from(bytes)));
                pairs.push(("replay_millis".to_string(), Json::from(millis)));
            }
            println!("{out}");
        }
        Err(err @ CheckError::Reject(_)) => fail(1, &err.to_string()),
        Err(err @ CheckError::Malformed(_)) => fail(2, &err.to_string()),
    }
}
