//! Emits `BENCH_obs.json`: wall time *and* solver counters for a fixed
//! verification workload.
//!
//! Wall time alone cannot distinguish "the solver got faster" from "the
//! solver did less work"; the `raven-obs` counters can. This bench runs a
//! fixed UAP + targeted-UAP + monotonicity workload on the fc-small zoo
//! model, snapshots the solver/analysis counters before and after, and
//! records the deltas next to the timing — so a perf regression (or win)
//! in a future change decomposes into pivots, dual pivots, warm starts,
//! B&B nodes, and per-phase seconds.
//!
//! The high-ε batch and the per-label targeted queries are sized so the
//! spec MILP actually branches: `milp_nodes`, `lp_dual_pivots`, and
//! `lp_warm_starts` are all non-zero, which is what makes the report a
//! meaningful guard for the branch-and-bound hot path.
//!
//! Certificate overhead and tracing overhead (the same workload with and
//! without a per-request trace context) are measured *after* the counter
//! snapshot, so the work-regression gate below keeps comparing like with
//! like across baselines that predate them.
//!
//! Usage: `cargo run -p raven-bench --release --bin obs -- [--out FILE]
//! [--threads n] [--check BASELINE]` (default output `BENCH_obs.json`;
//! `--help` lists the flags).
//! With `--check`, the freshly measured pivot total (primal + dual), the
//! branch-and-bound node count and the DeepPoly relaxed-neuron count (one
//! per activation neuron per DeepPoly pass) are compared against the
//! committed baseline, and the process exits non-zero when any grows by
//! more than 20% — wired into
//! `scripts/tier1.sh`. The baseline is read before the workload runs: a
//! missing or malformed file exits 1 at once.

use raven::flags::{self, Command, Flag, UsageError};
use raven::{
    verify_monotonicity, verify_monotonicity_with_hooks, verify_targeted_uap_all, verify_uap,
    verify_uap_with_hooks, Method, MonotonicityProblem, RavenConfig, RunHooks, UapProblem,
};
use raven_bench::models::{fc_model, uap_batches, Training};
use raven_bench::THREADS;
use raven_json::Json;
use raven_obs::Counter;
use std::time::Instant;

const OUT: Flag = Flag::valued(
    "--out",
    "FILE",
    "where to write the report (default BENCH_obs.json)",
);
const CHECK: Flag = Flag::valued(
    "--check",
    "BASELINE",
    "exit 1 when total pivots, B&B nodes or DeepPoly relaxed neurons exceed the baseline's by over 20%",
);
const OBS: Command = Command {
    name: "obs",
    args: "",
    about: "Runs the fixed obs workload and writes its wall time and solver counters as JSON.",
    flags: &[OUT, THREADS, CHECK],
    commands: &[],
};

/// The counters recorded in the report, with their JSON keys.
fn counters() -> Vec<(&'static str, &'static Counter)> {
    use raven::metrics as core_m;
    use raven_lp::metrics as lp_m;
    vec![
        ("simplex_pivots", &lp_m::SIMPLEX_PIVOTS),
        ("lp_dual_pivots", &lp_m::LP_DUAL_PIVOTS),
        ("lp_dual_bound_flips", &lp_m::LP_DUAL_BOUND_FLIPS),
        ("lp_warm_starts", &lp_m::LP_WARM_STARTS),
        ("lp_crash_starts", &lp_m::LP_CRASH_STARTS),
        ("lp_refactorizations", &lp_m::LP_REFACTORIZATIONS),
        ("lp_solves", &lp_m::LP_SOLVES),
        ("milp_nodes", &lp_m::MILP_NODES),
        ("milp_nodes_pruned", &lp_m::MILP_NODES_PRUNED),
        ("milp_incumbent_updates", &lp_m::MILP_INCUMBENT_UPDATES),
        ("interval_layers", &raven_interval::metrics::LAYERS),
        (
            "deeppoly_relaxed_neurons",
            &raven_deeppoly::metrics::RELAXED_NEURONS,
        ),
        (
            "deeppoly_split_neurons",
            &raven_deeppoly::metrics::SPLIT_NEURONS,
        ),
        (
            "diffpoly_pair_analyses",
            &raven_diffpoly::metrics::PAIR_ANALYSES,
        ),
        ("uap_runs", &core_m::UAP_RUNS),
        ("mono_runs", &core_m::MONO_RUNS),
    ]
}

/// A counter delta of a report. Old baselines predate some counters; a
/// missing key reads 0.
fn counter(report: &Json, key: &str) -> f64 {
    report
        .get("counters")
        .and_then(|c| c.get(key))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0)
}

/// The work the gate checks, by name: total simplex work (primal pivots
/// plus dual warm-start pivots), branch-and-bound nodes, and DeepPoly work
/// (activation neurons relaxed, which counts the passes).
fn gated_work(report: &Json) -> [(&'static str, f64); 3] {
    [
        (
            "total pivots",
            counter(report, "simplex_pivots") + counter(report, "lp_dual_pivots"),
        ),
        ("milp nodes", counter(report, "milp_nodes")),
        (
            "deeppoly relaxed neurons",
            counter(report, "deeppoly_relaxed_neurons"),
        ),
    ]
}

/// The baseline report at `path`: a JSON object with a `counters` object.
fn read_baseline(path: &str) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let baseline = Json::parse(&text).map_err(|e| format!("baseline {path} is not JSON: {e}"))?;
    match baseline.get("counters") {
        Some(Json::Obj(_)) => Ok(baseline),
        _ => Err(format!("baseline {path} has no \"counters\" object")),
    }
}

/// `(threads, report path, baseline path)` from argv.
fn read_flags(argv: &[String]) -> Result<(usize, String, Option<String>), UsageError> {
    let parsed = flags::parse(&OBS, argv)?;
    Ok((
        parsed.value(&THREADS)?.unwrap_or(1),
        parsed
            .value(&OUT)?
            .unwrap_or_else(|| "BENCH_obs.json".to_string()),
        parsed.value(&CHECK)?,
    ))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (threads, out, check) = read_flags(&argv).unwrap_or_else(|e| OBS.usage_exit(e));
    let baseline = check.map(|path| {
        read_baseline(&path).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1)
        })
    });

    // Phase timings need the clock-reading side of telemetry.
    raven_obs::set_enabled(true);
    let model = fc_model("fc-small", Training::Pgd);
    let plan = model.net.to_plan();
    let config = RavenConfig {
        threads,
        ..RavenConfig::default()
    };

    let before: Vec<u64> = counters().iter().map(|(_, c)| c.get()).collect();
    let start = Instant::now();

    // Fixed workload, three parts:
    //
    // 1. Two relational UAP batches (k=3) at a moderate ε — covers
    //    DeepPoly, DiffPoly, and the relational LP, usually without
    //    indicators.
    let eps = 0.03;
    for (inputs, labels) in uap_batches(&model, 3, 2) {
        let problem = UapProblem {
            plan: plan.clone(),
            inputs,
            labels,
            eps,
        };
        let _ = verify_uap(&problem, Method::Raven, &config);
    }
    // 2. One high-ε batch (k=4) where individual robustness fails: the
    //    spec MILP branches, exercising the dual-simplex warm starts on
    //    the B&B hot path, plus the per-label targeted queries that share
    //    one relaxation encoding and one basis cache across all labels.
    let hot_eps = 0.45;
    let (inputs, labels) = uap_batches(&model, 4, 3).swap_remove(2);
    let hot = UapProblem {
        plan: plan.clone(),
        inputs,
        labels,
        eps: hot_eps,
    };
    let _ = verify_uap(&hot, Method::Raven, &config);
    let all_labels: Vec<usize> = (0..plan.output_dim()).collect();
    let _ = verify_targeted_uap_all(&hot, &all_labels, Method::Raven, &config);
    // 3. One LP-tier monotonicity query.
    let dim = plan.input_dim();
    let odim = plan.output_dim();
    let mut weights = vec![0.0; odim];
    weights[0] = -1.0;
    weights[odim - 1] = 1.0;
    let mono = MonotonicityProblem {
        plan: plan.clone(),
        center: vec![0.5; dim],
        eps: 0.02,
        feature: 0,
        tau: 0.0,
        output_weights: weights,
        increasing: true,
    };
    let _ = verify_monotonicity(&mono, Method::Raven, &config);

    let wall_millis = start.elapsed().as_secs_f64() * 1e3;
    let deltas: Vec<(String, Json)> = counters()
        .iter()
        .zip(&before)
        .map(|((name, c), &b)| (name.to_string(), Json::from((c.get() - b) as f64)))
        .collect();
    let phases: Vec<(String, Json)> = [
        ("margins", &raven::metrics::PHASE_MARGINS_SECONDS),
        ("analysis", &raven::metrics::PHASE_ANALYSIS_SECONDS),
        ("diffpoly", &raven::metrics::PHASE_DIFFPOLY_SECONDS),
        ("encode", &raven::metrics::PHASE_ENCODE_SECONDS),
        ("solve", &raven::metrics::PHASE_SOLVE_SECONDS),
    ]
    .iter()
    .map(|(name, h)| (name.to_string(), Json::from(1e3 * h.sum())))
    .collect();

    // Certificate overhead, measured after the counter/phase snapshots
    // above so the work-regression gate keeps comparing like with like:
    // re-run the hot UAP batch and the monotonicity query certified, and
    // record serialized certificate size plus exact-replay time.
    let hooks = RunHooks::default();
    let certificates: Vec<(String, Json)> = [
        (
            "uap",
            verify_uap_with_hooks(&hot, Method::Raven, &config, &hooks, true)
                .and_then(|(_, cert)| cert),
        ),
        (
            "mono",
            verify_monotonicity_with_hooks(&mono, Method::Raven, &config, &hooks, true)
                .and_then(|(_, cert)| cert),
        ),
    ]
    .into_iter()
    .filter_map(|(name, cert)| {
        let cert = cert?;
        let bytes = cert.to_json().to_string().len();
        let replay_start = Instant::now();
        let replay = raven_check::check_certificate(&cert).expect("bench certificate replays");
        let replay_millis = replay_start.elapsed().as_secs_f64() * 1e3;
        Some((
            name.to_string(),
            Json::obj([
                ("bytes", Json::from(bytes)),
                ("replay_millis", Json::from(replay_millis)),
                ("tier", Json::from(replay.tier.as_str())),
                ("lp_checked", Json::from(replay.lp_checked)),
                ("neurons_checked", Json::from(replay.neurons_checked)),
            ]),
        ))
    })
    .collect();

    // Tracing overhead, also outside the gated window:
    // the same moderate-ε UAP batch solved with and without a per-request
    // trace context buffering spans. Tracing is observe-only, so the only
    // cost is the per-record buffering — this column keeps it honest.
    let tracing = {
        let (inputs, labels) = uap_batches(&model, 3, 1).swap_remove(0);
        let problem = UapProblem {
            plan: plan.clone(),
            inputs,
            labels,
            eps,
        };
        let reps = 3usize;
        let t_off = Instant::now();
        for _ in 0..reps {
            let _ = verify_uap(&problem, Method::Raven, &config);
        }
        let untraced_millis = t_off.elapsed().as_secs_f64() * 1e3 / reps as f64;
        let mut spans_buffered = 0u64;
        let t_on = Instant::now();
        for _ in 0..reps {
            let ctx = raven_obs::begin_trace(raven_obs::mint_trace_id(), raven_obs::next_span_id());
            raven_obs::set_current_trace(Some(ctx));
            let _ = verify_uap(&problem, Method::Raven, &config);
            raven_obs::set_current_trace(None);
            spans_buffered += raven_obs::end_trace(ctx).records.len() as u64;
        }
        let traced_millis = t_on.elapsed().as_secs_f64() * 1e3 / reps as f64;
        Json::obj([
            ("reps", Json::from(reps)),
            ("untraced_millis", Json::from(untraced_millis)),
            ("traced_millis", Json::from(traced_millis)),
            (
                "overhead_millis",
                Json::from(traced_millis - untraced_millis),
            ),
            (
                "spans_per_run",
                Json::from(spans_buffered as f64 / reps as f64),
            ),
        ])
    };

    let report = Json::obj([
        ("bench", Json::from("obs")),
        (
            "workload",
            Json::obj([
                ("model", Json::from("fc-small/pgd")),
                ("uap_batches", Json::from(2usize)),
                ("k", Json::from(3usize)),
                ("eps", Json::from(eps)),
                ("hot_eps", Json::from(hot_eps)),
                ("hot_k", Json::from(4usize)),
                ("targeted_labels", Json::from(odim)),
                ("mono_queries", Json::from(1usize)),
                ("threads", Json::from(threads)),
            ]),
        ),
        ("wall_millis", Json::from(wall_millis)),
        ("counters", Json::Obj(deltas)),
        ("phase_millis", Json::Obj(phases)),
        ("certificates", Json::Obj(certificates)),
        ("tracing", tracing),
    ]);
    std::fs::write(&out, format!("{report}\n")).expect("write report");
    println!("wrote {out} ({wall_millis:.0} ms workload)");

    if let Some(baseline) = baseline {
        let mut regressed = false;
        for ((name, base), (_, now)) in gated_work(&baseline).into_iter().zip(gated_work(&report)) {
            let limit = base * 1.2;
            println!("{name} check: measured {now:.0} vs baseline {base:.0} (limit {limit:.0})");
            if now > limit {
                eprintln!(
                    "FAIL: {name} regressed by more than 20% ({now:.0} > {limit:.0}); \
                     rerun with {} to refresh the baseline if the regression \
                     is intentional",
                    OUT.name
                );
                regressed = true;
            }
        }
        if regressed {
            std::process::exit(1);
        }
    }
}
