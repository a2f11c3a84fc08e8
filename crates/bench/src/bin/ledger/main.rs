//! `ledger` — the RaVeN performance ledger: four seeded workloads, from
//! MILP solving to HTTP serving, measured end to end and per layer.
//!
//! ```text
//! ledger --seed N [--workload NAME] [--seconds S] [--trace [0|1]] [--out FILE]
//! ledger compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! Without `--workload` every workload runs in turn; with `--trace` each is
//! then run again, traced, for the per-layer metrics. Every run appends one
//! JSON line to `--out` (default `ledger.jsonl`), which `compare` reads;
//! traced runs also append their spans to `trace.jsonl`. The last line of
//! standard output of a one-workload run is its result object. Exit status
//! is 0 when every output checked out, 1 when any check failed, 2 on a
//! usage error. README.md next to this file documents the metrics.
//!
//! Each workload runs in fresh child processes of this binary, so set-up
//! time, peak memory, the `raven_obs` statics and the model caches belong
//! to that workload alone. Set-up is repeated [`SETUPS`] times and its
//! median reported.

mod compare;
mod inputs;
mod metrics;
mod offline;
mod serve;
mod stats;
mod trace;

use metrics::{LayerTotals, Record, Run, Value};
use raven_json::Json;
use std::io::{Read, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 4] = ["uap-milp", "uap-analysis", "serve-mixed", "uap-certified"];
/// Seconds of the timed window when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 25;
/// Processes that set up an end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
const TRACE_FILE: &str = "trace.jsonl";
const DEFAULT_OUT: &str = "ledger.jsonl";
/// Failure messages kept per record.
const KEPT_FAILURES: usize = 5;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: String,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: DEFAULT_OUT.to_string(),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?} (one of {WORKLOADS:?})"));
                }
                a.workload = Some(w.clone());
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds takes an integer")?;
                if a.seconds == 0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--out" => a.out = value()?.clone(),
            // A bare `--trace` means on; `--trace 0|1` spells it out.
            "--trace" => {
                a.trace = true;
                if let Some(v @ ("0" | "1")) = it.peek().map(|v| v.as_str()) {
                    a.trace = v == "1";
                    it.next();
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("__child") => child(&args[1..]),
        Some("compare") => match args.get(1..3) {
            Some([parent, change]) => match compare::run(parent, change) {
                Ok(false) => ExitCode::SUCCESS,
                Ok(true) => ExitCode::from(1),
                Err(e) => usage(&e),
            },
            _ => usage("compare takes PARENT.jsonl CHANGE.jsonl"),
        },
        _ => match parse_args(&args) {
            Ok(a) => ledger(&a),
            Err(e) => usage(&e),
        },
    }
}

fn usage(error: &str) -> ExitCode {
    eprintln!(
        "ledger: {error}\nusage: ledger --seed N [--workload NAME] [--seconds S] \
         [--trace [0|1]] [--out FILE]\n       ledger compare PARENT.jsonl CHANGE.jsonl"
    );
    ExitCode::from(2)
}

/// Runs the requested workloads and reports them.
fn ledger(a: &Args) -> ExitCode {
    if a.trace {
        // A fresh span file per invocation; children append to it.
        if let Err(e) = std::fs::write(TRACE_FILE, "") {
            return usage(&format!("cannot write {TRACE_FILE}: {e}"));
        }
    }
    let runs: Vec<(&str, bool)> = match &a.workload {
        Some(w) => vec![(w.as_str(), a.trace)],
        None => WORKLOADS
            .iter()
            .map(|&w| (w, false))
            .chain(WORKLOADS.iter().filter(|_| a.trace).map(|&w| (w, true)))
            .collect(),
    };
    let mut records = Vec::new();
    for (workload, traced) in runs {
        match measure(workload, a.seed, a.seconds, traced) {
            Ok(record) => {
                print_record(&record);
                records.push(record);
            }
            Err(e) => {
                eprintln!("ledger: {workload}: {e}");
                return ExitCode::from(1);
            }
        }
    }
    if let Err(e) = append_records(&a.out, &records) {
        eprintln!("ledger: cannot append to {}: {e}", a.out);
        return ExitCode::from(1);
    }
    let failed: u64 = records.iter().map(|r| r.failed).sum();
    match records.as_slice() {
        [one] => println!("{}", one.result_line()),
        _ => println!(
            "ledger: {} runs, {failed} failed checks, appended to {}",
            records.len(),
            a.out
        ),
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// One end-to-end or traced run of `workload`, set up in fresh processes.
fn measure(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<Record, String> {
    // Set-up time is an end-to-end metric; a traced run sets up once.
    let setups = if traced { 1 } else { SETUPS };
    let mut samples = Vec::new();
    let mut record = None;
    for i in 0..setups {
        let last = i + 1 == setups;
        let r = spawn_child(workload, seed, seconds, traced, last)?;
        samples.extend_from_slice(&r.setup_samples);
        record = Some(r);
    }
    let mut record = record.expect("at least one set-up");
    if let Some(v) = record.metrics.iter_mut().find(|v| v.name == "setup_s") {
        v.value = stats::median(&samples);
        v.n = samples.len();
    }
    record.setup_samples = samples;
    Ok(record)
}

fn flag(on: bool) -> &'static str {
    if on {
        "1"
    } else {
        "0"
    }
}

/// Runs one child process to completion (killing it past its deadline)
/// and parses the record it prints last.
fn spawn_child(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    measure: bool,
) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(["__child", workload, &seed.to_string(), &seconds.to_string()])
        .args([flag(traced), flag(measure)])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        stdout.read_to_string(&mut s).map(|_| s)
    });
    let deadline = Instant::now() + Duration::from_secs(3 * seconds + 60);
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            outcome => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(match outcome {
                    Err(e) => format!("waiting for the child: {e}"),
                    _ => "child passed its deadline and was killed".to_string(),
                });
            }
        }
    };
    let out = reader
        .join()
        .expect("stdout reader panicked")
        .map_err(|e| format!("child stdout: {e}"))?;
    let status = status?;
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    let line = out.lines().last().ok_or("child printed nothing")?;
    let json = Json::parse(line).map_err(|e| format!("child output: {e}"))?;
    Record::from_json(&json)
}

/// `__child WORKLOAD SEED SECONDS TRACED MEASURE`: sets the workload up,
/// runs its window when MEASURE is 1, and prints its record.
fn child(args: &[String]) -> ExitCode {
    let started = Instant::now();
    let [workload, seed, seconds, traced, measure] = args else {
        return usage("__child takes WORKLOAD SEED SECONDS TRACED MEASURE");
    };
    let (Ok(seed), Ok(seconds)) = (seed.parse::<u64>(), seconds.parse::<u64>()) else {
        return usage("__child: SEED and SECONDS are integers");
    };
    let (traced, measure) = (traced == "1", measure == "1");
    let mut tracer = trace::Tracer::new();
    let mut run: Run = match workload.as_str() {
        "uap-milp" | "uap-analysis" => offline::run(
            workload,
            seed,
            seconds,
            traced,
            measure,
            started,
            &mut tracer,
        ),
        "serve-mixed" => serve::mixed(seed, seconds, traced, measure, started, &mut tracer),
        "uap-certified" => serve::certified(seed, seconds, traced, measure, started, &mut tracer),
        other => return usage(&format!("unknown workload {other:?}")),
    };
    let metrics = if !measure {
        Vec::new()
    } else if traced {
        if let Err(e) = tracer.append_jsonl(TRACE_FILE, workload) {
            run.failures.push(format!("writing {TRACE_FILE}: {e}"));
        }
        let layers = run.layers.take().unwrap_or_default();
        layer_values(&layers)
    } else {
        let rss = peak_rss_mb().unwrap_or_else(|e| {
            run.failures.push(e);
            0.0
        });
        run.end_to_end(rss)
    };
    let record = Record {
        workload: workload.clone(),
        seed,
        seconds,
        trace: traced,
        attempted: run.attempted,
        failed: run.failures.len() as u64,
        failures: run.failures.iter().take(KEPT_FAILURES).cloned().collect(),
        metrics,
        setup_samples: vec![run.setup_s],
        tail: if measure && !traced { run.tail() } else { None },
    };
    println!("{}", record.to_json());
    ExitCode::SUCCESS
}

fn layer_values(layers: &LayerTotals) -> Vec<Value> {
    layers
        .values()
        .into_iter()
        .map(|(name, unit, value)| Value {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            n: layers.items as usize,
        })
        .collect()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn print_record(r: &Record) {
    println!(
        "== {} {} (seed {}, {} s window): {} attempted, {} failed",
        r.workload,
        if r.trace { "per layer" } else { "end to end" },
        r.seed,
        r.seconds,
        r.attempted,
        r.failed
    );
    for v in &r.metrics {
        println!("  {:<26} {:>14.4} {:<6} n={}", v.name, v.value, v.unit, v.n);
    }
    if let Some((p, ms)) = r.tail {
        println!("  tail: p{p} = {ms:.4} ms, the highest percentile with 10 samples beyond it");
    }
    for f in &r.failures {
        println!("  FAILED: {f}");
    }
}

fn append_records(path: &str, records: &[Record]) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    for r in records {
        writeln!(file, "{}", r.to_json())?;
    }
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_in_both_trace_spellings() {
        let a = parse_args(&strs(&[
            "--workload",
            "uap-milp",
            "--seed",
            "7",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.trace),
            (Some("uap-milp"), 7, true)
        );
        let a = parse_args(&strs(&["--trace", "--seed", "2"])).expect("valid");
        assert!(a.trace && a.seed == 2 && a.workload.is_none());
        let a = parse_args(&strs(&["--trace", "0", "--seconds", "3"])).expect("valid");
        assert!(!a.trace && a.seconds == 3);
        assert!(parse_args(&strs(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strs(&["--seconds", "0"])).is_err());
        assert!(parse_args(&strs(&["--knob"])).is_err());
    }

    #[test]
    fn records_round_trip_through_json() {
        let r = Record {
            workload: "uap-milp".into(),
            seed: 3,
            seconds: 15,
            trace: false,
            attempted: 10,
            failed: 0,
            failures: Vec::new(),
            metrics: vec![Value {
                name: "latency_p50_ms".into(),
                unit: "ms".into(),
                value: 1.25,
                n: 10,
            }],
            setup_samples: vec![0.5, 0.25],
            tail: Some((50.0, 1.25)),
        };
        let back = Record::from_json(&Json::parse(&r.to_json().to_string()).unwrap());
        assert_eq!(back.as_ref(), Ok(&r));
        let line = r.result_line().to_string();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"latency_p50_ms":{"value":1.25,"unit":"ms"}}}"#
        );
    }

    /// `BENCHMARK.json` at the repository root declares the same workloads,
    /// metrics, units, directions and bounds as this binary reports.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let text = loop {
            if let Ok(text) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                break text;
            }
            assert!(dir.pop(), "no BENCHMARK.json above the manifest");
        };
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| json.get(key).and_then(Json::as_array).expect(key).to_vec();
        let s = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).expect(key).to_string();
        let names: Vec<String> = list("workloads").iter().map(|w| s(w, "name")).collect();
        assert_eq!(names, WORKLOADS);
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_usize),
            Some(DEFAULT_SECONDS as usize)
        );
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), metrics::END_TO_END.len());
        for (j, m) in e2e.iter().zip(&metrics::END_TO_END) {
            assert_eq!(s(j, "name"), m.name);
            assert_eq!(s(j, "unit"), m.unit);
            let better = match m.better {
                metrics::Better::Lower => "lower",
                metrics::Better::Higher => "higher",
            };
            assert_eq!(s(j, "better"), better);
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers: Vec<(String, String)> = list("per_layer")
            .iter()
            .map(|l| (s(l, "name"), s(l, "unit")))
            .collect();
        let ours: Vec<(String, String)> = LayerTotals::default()
            .values()
            .into_iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(layers, ours);
    }
}
