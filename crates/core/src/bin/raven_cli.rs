//! `raven_cli` — command-line front-end for the RaVeN verifier.
//!
//! ```text
//! raven_cli <command> [flags]
//! raven_cli verify-uap --model net.txt --inputs batch.txt --eps 0.05 [--json]
//! ```
//!
//! The commands are `info`, `train-demo`, `verify-uap`, `verify-mono` and
//! `export-lp`. `raven_cli --help` lists every command with its flags, and
//! `raven_cli <command> --help` one command's.
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

use raven::flags::{self, Command, Flag, Parsed, UsageError};
use raven::{
    report, verify_monotonicity_with_hooks, verify_uap_with_hooks, Method, MonotonicityProblem,
    PairStrategy, RavenConfig, RunHooks, TierMillis, UapProblem,
};
use raven_json::Json;
use raven_nn::{load_network, save_network};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

const MODEL: Flag = Flag::valued("--model", "net.txt", "the network file (required)");
const INPUTS: Flag = Flag::valued(
    "--inputs",
    "batch.txt",
    "batch file, one `label v1 v2 ...` per line (required; train-demo writes it)",
);
const OUT: Flag = Flag::valued(
    "--out",
    "file",
    "output file (required): the model for train-demo, the LP for export-lp",
);
const EPS: Flag = Flag::valued(
    "--eps",
    "f",
    "l-inf perturbation radius, finite and >= 0 (required; verify-mono: default 0.01)",
);
const METHOD: Flag = Flag::valued(
    "--method",
    "name",
    "box, zonotope, deeppoly, io-lp or raven (default raven)",
);
const PAIRS: Flag = Flag::valued(
    "--pairs",
    "name",
    "execution pairs DiffPoly tracks: none, consecutive or all (default consecutive)",
);
const LP_ONLY: Flag = Flag::switch(
    "--lp-only",
    "bound the spec by its LP relaxation instead of solving the MILP (faster, may be looser)",
);
const THREADS: Flag = Flag::valued(
    "--threads",
    "n",
    "solver threads: 0 = all cores, 1 = sequential (default 1)",
);
const DEADLINE_MS: Flag = Flag::valued(
    "--deadline-ms",
    "ms",
    "past this wall time, degrade to the best sound bound found (default unlimited)",
);
const JSON: Flag = Flag::switch("--json", "print the verdict as one JSON object");
const CERTIFICATE_OUT: Flag = Flag::valued(
    "--certificate-out",
    "cert.json",
    "write a proof certificate that `raven_check` replays in exact arithmetic",
);
const CENTER: Flag = Flag::valued(
    "--center",
    "v,v,...",
    "the input point, one finite value per input (required)",
);
const FEATURE: Flag = Flag::valued(
    "--feature",
    "i",
    "index of the input feature the score must be monotone in (required)",
);
const TAU: Flag = Flag::valued(
    "--tau",
    "f",
    "the feature change checked, finite and >= 0 (required)",
);
const DECREASING: Flag = Flag::switch(
    "--decreasing",
    "check that the score is non-increasing (default non-decreasing)",
);
const STATS: Flag = Flag::switch("--stats", "print a solver/phase summary to stderr");
const TRACE_OUT: Flag = Flag::valued(
    "--trace-out",
    "trace.jsonl",
    "write JSONL spans (scripts/trace2folded.rs folds them for flamegraphs)",
);

const INFO: Command = Command {
    name: "info",
    args: "",
    about: "print a model's dimensions and analysis plan",
    flags: &[MODEL],
    commands: &[],
};
const TRAIN_DEMO: Command = Command {
    name: "train-demo",
    args: "",
    about: "train the demo model and write a batch of correctly classified inputs",
    flags: &[OUT, INPUTS],
    commands: &[],
};
const VERIFY_UAP: Command = Command {
    name: "verify-uap",
    args: "",
    about: "bound a batch's worst-case accuracy under one shared perturbation",
    flags: &[
        MODEL,
        INPUTS,
        EPS,
        METHOD,
        PAIRS,
        LP_ONLY,
        THREADS,
        DEADLINE_MS,
        JSON,
        CERTIFICATE_OUT,
    ],
    commands: &[],
};
const VERIFY_MONO: Command = Command {
    name: "verify-mono",
    args: "",
    about: "check that the score (last logit minus first) is monotone in one feature",
    flags: &[
        MODEL,
        CENTER,
        FEATURE,
        TAU,
        EPS,
        DECREASING,
        METHOD,
        THREADS,
        DEADLINE_MS,
        JSON,
        CERTIFICATE_OUT,
    ],
    commands: &[],
};
const EXPORT_LP: Command = Command {
    name: "export-lp",
    args: "",
    about: "write a batch's relational LP (default pairs) in CPLEX LP format",
    flags: &[MODEL, INPUTS, EPS, OUT],
    commands: &[],
};
const RAVEN_CLI: Command = Command {
    name: "raven_cli",
    args: "",
    about: "Command-line front-end for the RaVeN verifier.\n\
            exit codes: 0 verified, 1 runtime error, 2 usage error, 3 ran soundly but not verified",
    flags: &[STATS, TRACE_OUT],
    commands: &[INFO, TRAIN_DEMO, VERIFY_UAP, VERIFY_MONO, EXPORT_LP],
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(Outcome::Verified) => ExitCode::SUCCESS,
        Ok(Outcome::Falsified) => ExitCode::from(3),
        Err(CliError::Usage(msg)) => RAVEN_CLI.usage_exit(msg),
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

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

impl From<UsageError> for CliError {
    fn from(err: UsageError) -> Self {
        CliError::Usage(err.0)
    }
}

fn run(args: &[String]) -> Result<Outcome, CliError> {
    let flags = flags::parse(&RAVEN_CLI, args)?;
    let stats = setup_telemetry(&flags)?;
    let outcome = match flags.command() {
        Some(c) if c == INFO.name => cmd_info(&flags),
        Some(c) if c == TRAIN_DEMO.name => cmd_train_demo(&flags),
        Some(c) if c == VERIFY_UAP.name => cmd_verify_uap(&flags),
        Some(c) if c == VERIFY_MONO.name => cmd_verify_mono(&flags),
        Some(c) if c == EXPORT_LP.name => cmd_export_lp(&flags),
        other => unreachable!("the parser admits only listed commands, got {other:?}"),
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
fn setup_telemetry(flags: &Parsed) -> Result<bool, CliError> {
    if let Some(path) = flags.value::<String>(&TRACE_OUT)? {
        raven_obs::set_sink_path(&path)
            .map_err(|e| CliError::runtime(format!("{} {path}: {e}", TRACE_OUT.name)))?;
    }
    let stats = flags.has(&STATS);
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
        "warm starts        : {} ({} dual pivots, {} bound flips)",
        lp_m::LP_WARM_STARTS.get(),
        lp_m::LP_DUAL_PIVOTS.get(),
        lp_m::LP_DUAL_BOUND_FLIPS.get()
    );
    eprintln!("crash starts       : {}", lp_m::LP_CRASH_STARTS.get());
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

fn parse_method(flags: &Parsed) -> Result<Method, CliError> {
    let Some(name) = flags.value::<String>(&METHOD)? else {
        return Ok(Method::Raven);
    };
    Method::from_name(&name).ok_or_else(|| CliError::usage(format!("unknown method {name:?}")))
}

fn parse_config(flags: &Parsed) -> Result<RavenConfig, CliError> {
    let pairs = match flags.value::<String>(&PAIRS)? {
        Some(name) => PairStrategy::from_name(&name)
            .ok_or_else(|| CliError::usage(format!("unknown pair strategy {name:?}")))?,
        None => PairStrategy::Consecutive,
    };
    Ok(RavenConfig {
        pairs,
        spec_milp: !flags.has(&LP_ONLY),
        threads: flags.value(&THREADS)?.unwrap_or(1),
        ..RavenConfig::default()
    })
}

/// Reads a radius or threshold flag, which must be finite and
/// non-negative. `default` stands in for an absent flag; without one the
/// flag is required.
fn non_negative(flags: &Parsed, flag: &Flag, default: Option<f64>) -> Result<f64, CliError> {
    let value = match default {
        Some(d) => flags.value(flag)?.unwrap_or(d),
        None => flags.required(flag)?,
    };
    if value.is_finite() && value >= 0.0 {
        Ok(value)
    } else {
        Err(CliError::usage(format!(
            "{} must be finite and non-negative, got {value}",
            flag.name
        )))
    }
}

/// Parses a batch file: `label v1 v2 ...` per line, `#` comments. Labels
/// must name one of the model's `output_dim` classes and coordinates must
/// be finite.
fn parse_batch(
    text: &str,
    input_dim: usize,
    output_dim: usize,
) -> Result<(Vec<Vec<f64>>, Vec<usize>), CliError> {
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
        if label >= output_dim {
            return Err(CliError::runtime(format!(
                "line {}: label {label} out of range; the model has {output_dim} classes",
                ln + 1
            )));
        }
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
        if coords.iter().any(|v| !v.is_finite()) {
            return Err(CliError::runtime(format!(
                "line {}: coordinates must be finite",
                ln + 1
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
        .map(|t| match t.trim().parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            Ok(_) => Err(CliError::usage(format!(
                "vector component {t:?} is not finite"
            ))),
            Err(e) => Err(CliError::usage(format!("bad vector component {t:?}: {e}"))),
        })
        .collect()
}

fn cmd_info(flags: &Parsed) -> Result<Outcome, CliError> {
    let model: String = flags.required(&MODEL)?;
    let net = load_network(Path::new(&model)).map_err(|e| CliError::runtime(e.to_string()))?;
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

fn cmd_train_demo(flags: &Parsed) -> Result<Outcome, CliError> {
    use raven_nn::data::synth_digits;
    use raven_nn::train::{train_classifier, TrainConfig};
    use raven_nn::{ActKind, NetworkBuilder};
    let out: String = flags.required(&OUT)?;
    let inputs_path: String = flags.required(&INPUTS)?;
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
    save_network(&net, Path::new(&out)).map_err(|e| CliError::runtime(e.to_string()))?;
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
    std::fs::write(&inputs_path, batch).map_err(|e| CliError::runtime(e.to_string()))?;
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
fn parse_hooks(flags: &Parsed) -> Result<RunHooks<'static>, CliError> {
    Ok(match flags.value(&DEADLINE_MS)? {
        None => RunHooks::default(),
        Some(ms) => RunHooks::default().with_deadline_in(Duration::from_millis(ms)),
    })
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
        .map_err(|e| CliError::runtime(format!("{} {path}: {e}", CERTIFICATE_OUT.name)))
}

fn cmd_verify_uap(flags: &Parsed) -> Result<Outcome, CliError> {
    let model: String = flags.required(&MODEL)?;
    let inputs_path: String = flags.required(&INPUTS)?;
    let eps = non_negative(flags, &EPS, None)?;
    let method = parse_method(flags)?;
    let config = parse_config(flags)?;
    let hooks = parse_hooks(flags)?;
    let net = load_network(Path::new(&model)).map_err(|e| CliError::runtime(e.to_string()))?;
    let batch_text =
        std::fs::read_to_string(&inputs_path).map_err(|e| CliError::runtime(e.to_string()))?;
    let (inputs, labels) = parse_batch(&batch_text, net.input_dim(), net.output_dim())?;
    let problem = UapProblem {
        plan: net.to_plan(),
        inputs,
        labels,
        eps,
    };
    let cert_path: Option<String> = flags.value(&CERTIFICATE_OUT)?;
    let (res, cert) = verify_uap_with_hooks(&problem, method, &config, &hooks, cert_path.is_some())
        .expect("deadline-only hooks never cancel");
    if let Some(path) = cert_path {
        write_certificate(&path, cert)?;
    }
    if flags.has(&JSON) {
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

fn cmd_verify_mono(flags: &Parsed) -> Result<Outcome, CliError> {
    let model: String = flags.required(&MODEL)?;
    let center = parse_vector(&flags.required::<String>(&CENTER)?)?;
    let feature: usize = flags.required(&FEATURE)?;
    let tau = non_negative(flags, &TAU, None)?;
    let eps = non_negative(flags, &EPS, Some(0.01))?;
    let method = parse_method(flags)?;
    let config = parse_config(flags)?;
    let hooks = parse_hooks(flags)?;
    let net = load_network(Path::new(&model)).map_err(|e| CliError::runtime(e.to_string()))?;
    if center.len() != net.input_dim() {
        return Err(CliError::usage(format!(
            "{} has {} values; model expects {}",
            CENTER.name,
            center.len(),
            net.input_dim()
        )));
    }
    if feature >= net.input_dim() {
        return Err(CliError::usage(format!(
            "{} {feature} out of range; the model has {} inputs",
            FEATURE.name,
            net.input_dim()
        )));
    }
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
        increasing: !flags.has(&DECREASING),
    };
    let cert_path: Option<String> = flags.value(&CERTIFICATE_OUT)?;
    let (res, cert) =
        verify_monotonicity_with_hooks(&problem, method, &config, &hooks, cert_path.is_some())
            .expect("deadline-only hooks never cancel");
    if let Some(path) = cert_path {
        write_certificate(&path, cert)?;
    }
    if flags.has(&JSON) {
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
fn cmd_export_lp(flags: &Parsed) -> Result<Outcome, CliError> {
    use raven::relational::RelationalProblem;
    let model: String = flags.required(&MODEL)?;
    let inputs_path: String = flags.required(&INPUTS)?;
    let eps = non_negative(flags, &EPS, None)?;
    let out: String = flags.required(&OUT)?;
    let net = load_network(Path::new(&model)).map_err(|e| CliError::runtime(e.to_string()))?;
    let batch_text =
        std::fs::read_to_string(&inputs_path).map_err(|e| CliError::runtime(e.to_string()))?;
    let (inputs, _) = parse_batch(&batch_text, net.input_dim(), net.output_dim())?;
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
    std::fs::write(&out, text).map_err(|e| CliError::runtime(e.to_string()))?;
    println!(
        "wrote relational LP ({} executions, eps {eps}) to {out}",
        inputs.len()
    );
    Ok(Outcome::Verified)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn parsed(list: &[&str]) -> Parsed {
        flags::parse(&RAVEN_CLI, &to_args(list)).expect("well-formed invocation")
    }

    /// The committed demo model (36 inputs, 4 classes) and its batch.
    fn repo_file(name: &str) -> String {
        format!("{}/../../models/{name}", env!("CARGO_MANIFEST_DIR"))
    }

    fn usage_error(list: &[&str]) -> String {
        match run(&to_args(list)) {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("expected a usage error for {list:?}, got {other:?}"),
        }
    }

    fn demo_center() -> String {
        vec!["0.5"; 36].join(",")
    }

    #[test]
    fn flags_parse_values_and_booleans() {
        let f = parsed(&[
            "verify-mono",
            "--model",
            "m.txt",
            "--decreasing",
            "--eps",
            "0.1",
        ]);
        assert_eq!(f.command(), Some(VERIFY_MONO.name));
        assert_eq!(f.required::<String>(&MODEL).unwrap(), "m.txt");
        assert!(f.has(&DECREASING));
        assert_eq!(f.value::<f64>(&EPS).unwrap(), Some(0.1));
        assert_eq!(f.value::<f64>(&TAU).unwrap(), None);
        assert!(matches!(
            f.required::<f64>(&TAU).map_err(CliError::from),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn flags_reject_positional_arguments() {
        assert_eq!(
            usage_error(&["info", "oops"]),
            "unexpected argument \"oops\""
        );
    }

    #[test]
    fn batch_parsing_validates_shape() {
        let good = "# comment\n1 0.1 0.2\n0 0.3 0.4\n";
        let (inputs, labels) = parse_batch(good, 2, 2).unwrap();
        assert_eq!(inputs.len(), 2);
        assert_eq!(labels, vec![1, 0]);
        // Bad file *contents* are runtime errors, not usage errors.
        for bad in ["1 0.1\n", "x 0.1 0.2\n", "", "0 0.1 NaN\n", "0 inf 0.2\n"] {
            assert!(
                matches!(parse_batch(bad, 2, 2), Err(CliError::Runtime(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn vector_parsing() {
        assert_eq!(parse_vector("0.5, 1.0,2").unwrap(), vec![0.5, 1.0, 2.0]);
        assert!(matches!(parse_vector("a,b"), Err(CliError::Usage(_))));
        assert!(matches!(parse_vector("0.5,NaN"), Err(CliError::Usage(_))));
    }

    #[test]
    fn method_and_config_parsing() {
        let f = parsed(&["verify-uap", "--method", "box"]);
        assert_eq!(parse_method(&f).unwrap(), Method::Box);
        let f = parsed(&["verify-uap"]);
        assert_eq!(parse_method(&f).unwrap(), Method::Raven);
        let config = parse_config(&f).unwrap();
        assert_eq!(config.pairs, PairStrategy::Consecutive);
        assert!(config.spec_milp);
        let f = parsed(&["verify-uap", "--pairs", "all", "--lp-only"]);
        let config = parse_config(&f).unwrap();
        assert_eq!(config.pairs, PairStrategy::AllPairs);
        assert!(!config.spec_milp);
        let f = parsed(&["verify-uap", "--method", "magic"]);
        assert!(matches!(parse_method(&f), Err(CliError::Usage(_))));
    }

    #[test]
    fn threads_flag_parsing() {
        let f = parsed(&["verify-uap"]);
        assert_eq!(parse_config(&f).unwrap().threads, 1);
        let f = parsed(&["verify-uap", "--threads", "4"]);
        assert_eq!(parse_config(&f).unwrap().threads, 4);
        let f = parsed(&["verify-uap", "--threads", "0"]);
        assert_eq!(parse_config(&f).unwrap().threads, 0);
        let f = parsed(&["verify-uap", "--threads", "many"]);
        match parse_config(&f) {
            Err(CliError::Usage(msg)) => assert!(msg.starts_with("--threads: "), "{msg}"),
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn run_classifies_usage_and_runtime_errors() {
        assert!(matches!(run(&to_args(&[])), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&to_args(&["frobnicate"])),
            Err(CliError::Usage(_))
        ));
        assert_eq!(
            usage_error(&["verify-uap", "--eps", "0.1"]),
            "missing --model"
        );
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
    fn flags_a_command_does_not_take_are_unknown() {
        let (model, batch) = (repo_file("demo.net"), repo_file("demo_batch.txt"));
        let uap = [
            "verify-uap",
            "--model",
            &model,
            "--inputs",
            &batch,
            "--eps",
            "0.01",
        ];
        let center = demo_center();
        let mono = [
            "verify-mono",
            "--model",
            &model,
            "--center",
            &center,
            "--feature",
            "0",
        ];
        let export = [
            "export-lp",
            "--model",
            &model,
            "--inputs",
            &batch,
            "--eps",
            "0.01",
        ];
        for (base, extra) in [
            (&uap[..], &["--center", "0.5"][..]),
            (&uap[..], &["--methd", "box"][..]),
            (&mono[..], &["--tau", "0.1", "--pairs", "all"][..]),
            (&mono[..], &["--tau", "0.1", "--lp-only"][..]),
            (&export[..], &["--out", "x.lp", "--pairs", "all"][..]),
        ] {
            let args = [base, extra].concat();
            let msg = usage_error(&args);
            assert!(msg.starts_with("unknown flag --"), "{args:?}: {msg}");
        }
    }

    #[test]
    fn label_outside_the_model_is_a_runtime_error_naming_its_line() {
        let dir = std::env::temp_dir().join(format!("raven_cli_label_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let batch = dir.join("batch.txt");
        let coords = vec!["0.5"; 36].join(" ");
        std::fs::write(&batch, format!("0 {coords}\n# comment\n9 {coords}\n")).unwrap();
        let result = run(&to_args(&[
            "verify-uap",
            "--model",
            &repo_file("demo.net"),
            "--inputs",
            batch.to_str().unwrap(),
            "--eps",
            "0.01",
        ]));
        let _ = std::fs::remove_dir_all(&dir);
        match result {
            Err(CliError::Runtime(msg)) => assert!(msg.starts_with("line 3: label 9"), "{msg}"),
            other => panic!("expected a runtime error, got {other:?}"),
        }
    }

    #[test]
    fn feature_outside_the_model_is_a_usage_error() {
        let (model, center) = (repo_file("demo.net"), demo_center());
        let msg = usage_error(&[
            "verify-mono",
            "--model",
            &model,
            "--center",
            &center,
            "--feature",
            "999",
            "--tau",
            "0.1",
        ]);
        assert!(msg.starts_with("--feature 999 out of range"), "{msg}");
    }

    #[test]
    fn negative_or_non_finite_eps_is_a_usage_error() {
        let (model, batch) = (repo_file("demo.net"), repo_file("demo_batch.txt"));
        for eps in ["-0.5", "NaN", "inf"] {
            let msg = usage_error(&[
                "verify-uap",
                "--model",
                &model,
                "--inputs",
                &batch,
                "--eps",
                eps,
            ]);
            assert!(msg.starts_with("--eps must be finite"), "{eps}: {msg}");
        }
    }

    #[test]
    fn negative_tau_is_a_usage_error() {
        let (model, center) = (repo_file("demo.net"), demo_center());
        let msg = usage_error(&[
            "verify-mono",
            "--model",
            &model,
            "--center",
            &center,
            "--feature",
            "0",
            "--tau",
            "-1",
        ]);
        assert!(msg.starts_with("--tau must be finite"), "{msg}");
    }

    #[test]
    fn end_to_end_train_and_verify_via_tempdir() {
        let dir = std::env::temp_dir().join(format!("raven_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let model = dir.join("demo.net");
        let batch = dir.join("batch.txt");
        let (model, batch) = (model.to_str().unwrap(), batch.to_str().unwrap());
        let flags = parsed(&["train-demo", "--out", model, "--inputs", batch]);
        cmd_train_demo(&flags).expect("train-demo succeeds");
        let flags = parsed(&[
            "verify-uap",
            "--model",
            model,
            "--inputs",
            batch,
            "--eps",
            "0.02",
            "--method",
            "deeppoly",
        ]);
        cmd_verify_uap(&flags).expect("verify-uap succeeds");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
