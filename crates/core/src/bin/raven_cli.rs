//! `raven_cli` — command-line front-end for the RaVeN verifier.
//!
//! ```text
//! raven_cli info       --model net.txt
//! raven_cli train-demo --out net.txt --inputs batch.txt
//! raven_cli verify-uap --model net.txt --inputs batch.txt --eps 0.05
//!                      [--method box|deeppoly|io-lp|raven] [--pairs none|consecutive|all]
//!                      [--threads n] [--json]
//! raven_cli verify-mono --model net.txt --center 0.5,0.5,... --feature 0
//!                       --tau 0.1 [--eps 0.01] [--decreasing] [--json]
//! raven_cli export-lp  --model net.txt --inputs batch.txt --eps 0.05 --out problem.lp
//! ```
//!
//! The batch file holds one example per line: the label followed by the
//! input coordinates, whitespace-separated. `#` starts a comment.
//!
//! Exit codes: `0` verified/success, `1` runtime error (bad file, I/O),
//! `2` usage error (bad flags; usage is printed), `3` the run completed
//! soundly but the property was **not** verified — so scripts can
//! distinguish "falsified" from "failed".
//!
//! `--json` emits one machine-readable object whose `result` field is the
//! canonical verdict from `raven::report` — byte-identical to the
//! `result` field served by `raven-serve` for the same query.

use raven::{
    report, verify_monotonicity_with_hooks, verify_uap_with_hooks, Method, MonotonicityProblem,
    PairStrategy, RavenConfig, RunHooks, TierMillis, UapProblem,
};
use raven_json::Json;
use raven_nn::{load_network, save_network};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(Outcome::Verified) => ExitCode::SUCCESS,
        Ok(Outcome::Falsified) => ExitCode::from(3),
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  raven_cli info        --model <net.txt>
  raven_cli train-demo  --out <net.txt> --inputs <batch.txt>
  raven_cli verify-uap  --model <net.txt> --inputs <batch.txt> --eps <f>
                        [--method box|deeppoly|io-lp|raven] [--pairs none|consecutive|all]
                        [--threads <n>] [--deadline-ms <ms>] [--json]
                        [--stats] [--trace-out <trace.jsonl>]
                        [--certificate-out <cert.json>]
                        (--threads 0 = all cores, 1 = sequential; default 1;
                         --deadline-ms degrades to the best sound bound in time;
                         --stats prints a solver/phase summary to stderr;
                         --trace-out writes JSONL spans for flamegraphs;
                         --certificate-out writes a proof certificate that
                         `raven_check` replays in exact arithmetic)
  raven_cli verify-mono --model <net.txt> --center <v,v,...> --feature <i>
                        --tau <f> [--eps <f>] [--decreasing] [--method ...]
                        [--threads <n>] [--deadline-ms <ms>] [--json]
                        [--stats] [--trace-out <trace.jsonl>]
                        [--certificate-out <cert.json>]
  raven_cli export-lp   --model <net.txt> --inputs <batch.txt> --eps <f> --out <file.lp>

exit codes: 0 verified, 1 runtime error, 2 usage error, 3 ran soundly but not verified";

/// How a successful run ended, for the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// The property holds (or the command has no verdict).
    Verified,
    /// The run was sound but could not certify the property (exit 3).
    Falsified,
}

/// Failures, split by exit-code class.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CliError {
    /// The invocation was malformed: exit 2, usage is printed.
    Usage(String),
    /// The invocation was fine but execution failed: exit 1, message only.
    Runtime(String),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> Self {
        CliError::Usage(msg.into())
    }

    fn runtime(msg: impl Into<String>) -> Self {
        CliError::Runtime(msg.into())
    }
}

fn run(args: &[String]) -> Result<Outcome, CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError::usage("missing command"));
    };
    let opts = parse_flags(rest)?;
    let stats = setup_telemetry(&opts)?;
    let outcome = match command.as_str() {
        "info" => cmd_info(&opts),
        "train-demo" => cmd_train_demo(&opts),
        "verify-uap" => cmd_verify_uap(&opts),
        "verify-mono" => cmd_verify_mono(&opts),
        "export-lp" => cmd_export_lp(&opts),
        other => Err(CliError::usage(format!("unknown command {other:?}"))),
    };
    // Flush the trace file even when the command failed — a partial trace
    // of a failed run is exactly when you want to look at it.
    raven_obs::clear_sink();
    if stats && outcome.is_ok() {
        print_stats();
    }
    outcome
}

/// Arms telemetry from `--stats` / `--trace-out` before the command runs.
/// Returns whether the end-of-run stats table was requested.
fn setup_telemetry(flags: &Flags) -> Result<bool, CliError> {
    if let Some(path) = flags.get("trace-out") {
        raven_obs::set_sink_path(path)
            .map_err(|e| CliError::runtime(format!("--trace-out {path}: {e}")))?;
    }
    let stats = flags.has("stats");
    if stats {
        raven_obs::set_enabled(true);
    }
    Ok(stats)
}

/// Prints the end-of-run solver/phase summary (to stderr, so `--json`
/// stdout stays machine-readable).
fn print_stats() {
    use raven::metrics as core_m;
    use raven_lp::metrics as lp_m;
    eprintln!("--- run stats ---------------------------------");
    eprintln!("simplex pivots     : {}", lp_m::SIMPLEX_PIVOTS.get());
    eprintln!(
        "warm starts        : {} ({} dual pivots)",
        lp_m::LP_WARM_STARTS.get(),
        lp_m::LP_DUAL_PIVOTS.get()
    );
    eprintln!(
        "lp solves          : {} ({:.1} ms total)",
        lp_m::LP_SOLVES.get(),
        1e3 * lp_m::LP_SOLVE_SECONDS.sum()
    );
    eprintln!(
        "milp nodes         : {} ({} pruned, {} incumbent updates)",
        lp_m::MILP_NODES.get(),
        lp_m::MILP_NODES_PRUNED.get(),
        lp_m::MILP_INCUMBENT_UPDATES.get()
    );
    eprintln!(
        "presolve           : {} rows removed, {} bounds tightened",
        lp_m::PRESOLVE_ROWS_REMOVED.get(),
        lp_m::PRESOLVE_BOUNDS_TIGHTENED.get()
    );
    let phases: [(&str, &raven_obs::Histogram); 5] = [
        ("margins", &core_m::PHASE_MARGINS_SECONDS),
        ("analysis", &core_m::PHASE_ANALYSIS_SECONDS),
        ("diffpoly", &core_m::PHASE_DIFFPOLY_SECONDS),
        ("encode", &core_m::PHASE_ENCODE_SECONDS),
        ("solve", &core_m::PHASE_SOLVE_SECONDS),
    ];
    for (name, hist) in phases {
        if hist.count() > 0 {
            eprintln!(
                "phase {name:<12} : {:.1} ms ({} span{})",
                1e3 * hist.sum(),
                hist.count(),
                if hist.count() == 1 { "" } else { "s" }
            );
        }
    }
    eprintln!(
        "tiers reached      : milp {} / lp {} / analysis {} ({} degraded)",
        core_m::TIER_MILP.get(),
        core_m::TIER_LP.get(),
        core_m::TIER_ANALYSIS.get(),
        core_m::DEGRADED.get()
    );
}

/// Parsed `--flag value` pairs (flags without values are stored as "true").
#[derive(Debug, Default)]
struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| CliError::usage(format!("missing --{name}")))
    }

    fn get_f64(&self, name: &str) -> Result<Option<f64>, CliError> {
        self.get(name)
            .map(|v| {
                v.parse::<f64>()
                    .map_err(|e| CliError::usage(format!("--{name}: {e}")))
            })
            .transpose()
    }

    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }
}

fn parse_flags(args: &[String]) -> Result<Flags, CliError> {
    let mut flags = Flags::default();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(CliError::usage(format!("unexpected argument {arg:?}")));
        };
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().expect("peeked").clone(),
            _ => "true".to_string(),
        };
        flags.pairs.push((name.to_string(), value));
    }
    Ok(flags)
}

fn parse_method(flags: &Flags) -> Result<Method, CliError> {
    let name = flags.get("method").unwrap_or("raven");
    Method::from_name(name).ok_or_else(|| CliError::usage(format!("unknown method {name:?}")))
}

fn parse_config(flags: &Flags) -> Result<RavenConfig, CliError> {
    let name = flags.get("pairs").unwrap_or("consecutive");
    let pairs = PairStrategy::from_name(name)
        .ok_or_else(|| CliError::usage(format!("unknown pair strategy {name:?}")))?;
    let threads = match flags.get("threads") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|e| CliError::usage(format!("--threads: {e}")))?,
        None => 1,
    };
    Ok(RavenConfig {
        pairs,
        spec_milp: !flags.has("lp-only"),
        threads,
        ..RavenConfig::default()
    })
}

/// Parses a batch file: `label v1 v2 ...` per line, `#` comments.
fn parse_batch(text: &str, input_dim: usize) -> Result<(Vec<Vec<f64>>, Vec<usize>), CliError> {
    let mut inputs = Vec::new();
    let mut labels = Vec::new();
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let label: usize = parts
            .next()
            .expect("non-empty line")
            .parse()
            .map_err(|e| CliError::runtime(format!("line {}: bad label: {e}", ln + 1)))?;
        let coords: Result<Vec<f64>, _> = parts.map(str::parse::<f64>).collect();
        let coords =
            coords.map_err(|e| CliError::runtime(format!("line {}: bad value: {e}", ln + 1)))?;
        if coords.len() != input_dim {
            return Err(CliError::runtime(format!(
                "line {}: expected {input_dim} coordinates, found {}",
                ln + 1,
                coords.len()
            )));
        }
        labels.push(label);
        inputs.push(coords);
    }
    if inputs.is_empty() {
        return Err(CliError::runtime("batch file contains no examples"));
    }
    Ok((inputs, labels))
}

fn parse_vector(text: &str) -> Result<Vec<f64>, CliError> {
    text.split(',')
        .map(|t| {
            t.trim()
                .parse::<f64>()
                .map_err(|e| CliError::usage(format!("bad vector component {t:?}: {e}")))
        })
        .collect()
}

fn cmd_info(flags: &Flags) -> Result<Outcome, CliError> {
    let model = flags.require("model")?;
    let net = load_network(Path::new(model)).map_err(|e| CliError::runtime(e.to_string()))?;
    println!("model: {model}");
    println!("input dim : {}", net.input_dim());
    println!("output dim: {}", net.output_dim());
    println!("parameters: {}", net.num_params());
    println!("widths    : {:?}", net.widths());
    let plan = net.to_plan();
    println!(
        "analysis plan: {} steps ({} activation layers)",
        plan.steps().len(),
        plan.activation_steps().len()
    );
    Ok(Outcome::Verified)
}

fn cmd_train_demo(flags: &Flags) -> Result<Outcome, CliError> {
    use raven_nn::data::synth_digits;
    use raven_nn::train::{train_classifier, TrainConfig};
    use raven_nn::{ActKind, NetworkBuilder};
    let out = flags.require("out")?;
    let inputs_path = flags.require("inputs")?;
    let ds = synth_digits(6, 4, 280, 0.15, 42);
    let (train, test) = ds.split(0.2);
    let mut net = NetworkBuilder::new(train.input_dim)
        .dense(24, 101)
        .activation(ActKind::Relu)
        .dense(24, 102)
        .activation(ActKind::Relu)
        .dense(train.num_classes, 103)
        .build();
    let report = train_classifier(
        &mut net,
        &train,
        &TrainConfig {
            epochs: 35,
            lr: 0.4,
            momentum: 0.0,
            batch_size: 8,
            seed: 7,
            adversarial: None,
        },
    );
    save_network(&net, Path::new(out)).map_err(|e| CliError::runtime(e.to_string()))?;
    // Emit a batch of correctly classified test inputs.
    let mut batch = String::from("# label v1 v2 ... (correctly classified test inputs)\n");
    let mut count = 0;
    for (x, &y) in test.inputs.iter().zip(&test.labels) {
        if net.classify(x) == y {
            batch.push_str(&format!("{y}"));
            for v in x {
                batch.push_str(&format!(" {v}"));
            }
            batch.push('\n');
            count += 1;
            if count == 6 {
                break;
            }
        }
    }
    std::fs::write(inputs_path, batch).map_err(|e| CliError::runtime(e.to_string()))?;
    println!(
        "trained demo model (train accuracy {:.1}%) -> {out}; {count} inputs -> {inputs_path}",
        100.0 * report.final_accuracy
    );
    Ok(Outcome::Verified)
}

/// Wraps a verdict in the CLI's `--json` envelope. The `result` field is
/// the shared canonical verdict; `solve_millis` and the per-tier timing
/// travel outside it so the verdict stays deterministic (and
/// cache/CLI/server comparable).
fn json_envelope(verdict: Json, solve_millis: f64, tier_millis: &TierMillis) -> String {
    Json::obj([
        ("result", verdict),
        ("solve_millis", Json::from(solve_millis)),
        ("tier_millis", report::tier_millis_json(tier_millis)),
    ])
    .to_string()
}

/// Parses `--deadline-ms` into run hooks (unlimited when absent). A
/// deadline never aborts the run: past it, the verifier degrades down the
/// precision ladder and still answers with a sound verdict.
fn parse_hooks(flags: &Flags) -> Result<RunHooks<'static>, CliError> {
    match flags.get("deadline-ms") {
        None => Ok(RunHooks::default()),
        Some(v) => {
            let ms: u64 = v
                .parse()
                .map_err(|e| CliError::usage(format!("--deadline-ms: {e}")))?;
            Ok(RunHooks::default().with_deadline_in(Duration::from_millis(ms)))
        }
    }
}

/// Writes a proof certificate next to the verdict. Runs that produced no
/// certifiable evidence write JSON `null` — the file always exists so
/// callers can distinguish "not requested" from "nothing to certify".
fn write_certificate(path: &str, cert: Option<raven::Certificate>) -> Result<(), CliError> {
    let text = match cert {
        Some(c) => c.to_json().to_string(),
        None => "null".to_string(),
    };
    std::fs::write(path, text)
        .map_err(|e| CliError::runtime(format!("--certificate-out {path}: {e}")))
}

fn cmd_verify_uap(flags: &Flags) -> Result<Outcome, CliError> {
    let model = flags.require("model")?;
    let net = load_network(Path::new(model)).map_err(|e| CliError::runtime(e.to_string()))?;
    let batch_text = std::fs::read_to_string(flags.require("inputs")?)
        .map_err(|e| CliError::runtime(e.to_string()))?;
    let (inputs, labels) = parse_batch(&batch_text, net.input_dim())?;
    let eps = flags
        .get_f64("eps")?
        .ok_or_else(|| CliError::usage("missing --eps"))?;
    let method = parse_method(flags)?;
    let config = parse_config(flags)?;
    let problem = UapProblem {
        plan: net.to_plan(),
        inputs,
        labels,
        eps,
    };
    let hooks = parse_hooks(flags)?;
    let cert_path = flags.get("certificate-out");
    let (res, cert) = verify_uap_with_hooks(&problem, method, &config, &hooks, cert_path.is_some())
        .expect("deadline-only hooks never cancel");
    if let Some(path) = cert_path {
        write_certificate(path, cert)?;
    }
    if flags.has("json") {
        let verdict = report::uap_verdict_json(problem.k(), problem.eps, &res);
        println!(
            "{}",
            json_envelope(verdict, res.solve_millis, &res.tier_millis)
        );
    } else {
        println!("method                 : {}", res.method);
        println!("k (executions)         : {}", problem.k());
        println!("eps                    : {eps}");
        println!(
            "worst-case accuracy    : >= {:.2}% ({})",
            100.0 * res.worst_case_accuracy,
            if res.exact {
                "exact spec"
            } else {
                "LP relaxation"
            }
        );
        println!("worst-case hamming     : <= {:.3}", res.worst_case_hamming);
        println!(
            "individually verified  : {}/{}",
            res.individually_verified,
            problem.k()
        );
        println!(
            "lp size                : {} rows x {} vars",
            res.lp_rows, res.lp_vars
        );
        println!(
            "precision tier         : {}{}",
            res.tier.name(),
            if res.degraded { " (degraded)" } else { "" }
        );
        println!("time                   : {:.1} ms", res.solve_millis);
    }
    Ok(if res.worst_case_accuracy >= 1.0 {
        Outcome::Verified
    } else {
        Outcome::Falsified
    })
}

fn cmd_verify_mono(flags: &Flags) -> Result<Outcome, CliError> {
    let model = flags.require("model")?;
    let net = load_network(Path::new(model)).map_err(|e| CliError::runtime(e.to_string()))?;
    let center = parse_vector(flags.require("center")?)?;
    if center.len() != net.input_dim() {
        return Err(CliError::usage(format!(
            "--center has {} values; model expects {}",
            center.len(),
            net.input_dim()
        )));
    }
    let feature: usize = flags
        .require("feature")?
        .parse()
        .map_err(|e| CliError::usage(format!("--feature: {e}")))?;
    let tau = flags
        .get_f64("tau")?
        .ok_or_else(|| CliError::usage("missing --tau"))?;
    let eps = flags.get_f64("eps")?.unwrap_or(0.01);
    let method = parse_method(flags)?;
    let config = parse_config(flags)?;
    let out_dim = net.output_dim();
    // Default score: last logit minus first (binary classifiers).
    let mut weights = vec![0.0; out_dim];
    weights[0] = -1.0;
    weights[out_dim - 1] = 1.0;
    let problem = MonotonicityProblem {
        plan: net.to_plan(),
        center,
        eps,
        feature,
        tau,
        output_weights: weights,
        increasing: !flags.has("decreasing"),
    };
    let hooks = parse_hooks(flags)?;
    let cert_path = flags.get("certificate-out");
    let (res, cert) =
        verify_monotonicity_with_hooks(&problem, method, &config, &hooks, cert_path.is_some())
            .expect("deadline-only hooks never cancel");
    if let Some(path) = cert_path {
        write_certificate(path, cert)?;
    }
    if flags.has("json") {
        let verdict = report::mono_verdict_json(&problem, &res);
        println!(
            "{}",
            json_envelope(verdict, res.solve_millis, &res.tier_millis)
        );
    } else {
        println!("method           : {}", res.method);
        println!(
            "property         : score {} in feature x{feature} (tau = {tau}, eps = {eps})",
            if problem.increasing {
                "non-decreasing"
            } else {
                "non-increasing"
            }
        );
        println!("certified change : {:.6}", res.certified_change);
        println!(
            "precision tier   : {}{}",
            res.tier.name(),
            if res.degraded { " (degraded)" } else { "" }
        );
        println!(
            "verdict          : {}",
            if res.verified {
                "VERIFIED"
            } else {
                "not verified"
            }
        );
        println!("time             : {:.1} ms", res.solve_millis);
    }
    Ok(if res.verified {
        Outcome::Verified
    } else {
        Outcome::Falsified
    })
}

/// Builds the RaVeN relational encoding for a batch and writes it in CPLEX
/// LP format, for inspection or cross-checking with an external solver.
fn cmd_export_lp(flags: &Flags) -> Result<Outcome, CliError> {
    use raven::relational::RelationalProblem;
    let model = flags.require("model")?;
    let net = load_network(Path::new(model)).map_err(|e| CliError::runtime(e.to_string()))?;
    let batch_text = std::fs::read_to_string(flags.require("inputs")?)
        .map_err(|e| CliError::runtime(e.to_string()))?;
    let (inputs, _) = parse_batch(&batch_text, net.input_dim())?;
    let eps = flags
        .get_f64("eps")?
        .ok_or_else(|| CliError::usage("missing --eps"))?;
    let out = flags.require("out")?;
    // Build through the generic relational API, then export.
    let plan = net.to_plan();
    let mut problem = RelationalProblem::new(
        plan,
        vec![raven_interval::Interval::symmetric(eps); net.input_dim()],
    );
    for z in &inputs {
        problem.add_perturbed_execution(z);
    }
    let text = raven::relational::export_lp(&problem, &raven::RavenConfig::default());
    std::fs::write(out, text).map_err(|e| CliError::runtime(e.to_string()))?;
    println!(
        "wrote relational LP ({} executions, eps {eps}) to {out}",
        inputs.len()
    );
    Ok(Outcome::Verified)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_values_and_booleans() {
        let args: Vec<String> = ["--model", "m.txt", "--decreasing", "--eps", "0.1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = parse_flags(&args).unwrap();
        assert_eq!(f.get("model"), Some("m.txt"));
        assert!(f.has("decreasing"));
        assert_eq!(f.get_f64("eps").unwrap(), Some(0.1));
        assert!(f.get("nope").is_none());
        assert!(matches!(f.require("nope"), Err(CliError::Usage(_))));
    }

    #[test]
    fn flags_reject_positional_arguments() {
        let args = vec!["oops".to_string()];
        assert!(matches!(parse_flags(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn batch_parsing_validates_shape() {
        let good = "# comment\n1 0.1 0.2\n0 0.3 0.4\n";
        let (inputs, labels) = parse_batch(good, 2).unwrap();
        assert_eq!(inputs.len(), 2);
        assert_eq!(labels, vec![1, 0]);
        // Bad file *contents* are runtime errors, not usage errors.
        assert!(matches!(
            parse_batch("1 0.1\n", 2),
            Err(CliError::Runtime(_))
        ));
        assert!(matches!(
            parse_batch("x 0.1 0.2\n", 2),
            Err(CliError::Runtime(_))
        ));
        assert!(matches!(parse_batch("", 2), Err(CliError::Runtime(_))));
    }

    #[test]
    fn vector_parsing() {
        assert_eq!(parse_vector("0.5, 1.0,2").unwrap(), vec![0.5, 1.0, 2.0]);
        assert!(matches!(parse_vector("a,b"), Err(CliError::Usage(_))));
    }

    #[test]
    fn method_and_config_parsing() {
        let f = parse_flags(&["--method".to_string(), "box".to_string()]).unwrap();
        assert_eq!(parse_method(&f).unwrap(), Method::Box);
        let f = parse_flags(&["--pairs".to_string(), "all".to_string()]).unwrap();
        assert_eq!(parse_config(&f).unwrap().pairs, PairStrategy::AllPairs);
        let f = parse_flags(&["--method".to_string(), "magic".to_string()]).unwrap();
        assert!(matches!(parse_method(&f), Err(CliError::Usage(_))));
    }

    #[test]
    fn threads_flag_parsing() {
        let f = parse_flags(&[]).unwrap();
        assert_eq!(parse_config(&f).unwrap().threads, 1);
        let f = parse_flags(&["--threads".to_string(), "4".to_string()]).unwrap();
        assert_eq!(parse_config(&f).unwrap().threads, 4);
        let f = parse_flags(&["--threads".to_string(), "0".to_string()]).unwrap();
        assert_eq!(parse_config(&f).unwrap().threads, 0);
        let f = parse_flags(&["--threads".to_string(), "many".to_string()]).unwrap();
        assert!(matches!(parse_config(&f), Err(CliError::Usage(_))));
    }

    #[test]
    fn run_classifies_usage_and_runtime_errors() {
        let to_args =
            |list: &[&str]| -> Vec<String> { list.iter().map(|s| s.to_string()).collect() };
        assert!(matches!(run(&to_args(&[])), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&to_args(&["frobnicate"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&to_args(&["verify-uap", "--eps", "0.1"])),
            Err(CliError::Usage(_)) // missing --model
        ));
        // A well-formed invocation naming a nonexistent file is a runtime
        // error: usage is correct, execution failed.
        assert!(matches!(
            run(&to_args(&[
                "info",
                "--model",
                "/nonexistent/raven/model.net"
            ])),
            Err(CliError::Runtime(_))
        ));
    }

    #[test]
    fn end_to_end_train_and_verify_via_tempdir() {
        let dir = std::env::temp_dir().join("raven_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let model = dir.join("demo.net");
        let batch = dir.join("batch.txt");
        let flags = parse_flags(&[
            "--out".to_string(),
            model.to_string_lossy().into_owned(),
            "--inputs".to_string(),
            batch.to_string_lossy().into_owned(),
        ])
        .unwrap();
        cmd_train_demo(&flags).expect("train-demo succeeds");
        let flags = parse_flags(&[
            "--model".to_string(),
            model.to_string_lossy().into_owned(),
            "--inputs".to_string(),
            batch.to_string_lossy().into_owned(),
            "--eps".to_string(),
            "0.02".to_string(),
            "--method".to_string(),
            "deeppoly".to_string(),
        ])
        .unwrap();
        cmd_verify_uap(&flags).expect("verify-uap succeeds");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
