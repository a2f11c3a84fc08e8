//! The in-library workloads: one caller, closed loop, `verify_uap` with
//! `Method::Raven` called directly, no server in the way.
//!
//! * `uap-milp` — fc-small/pgd, k=2, ε=0.25. Every verdict needs the spec
//!   MILP, so nearly all the time is in `raven-lp`. At k=2 a property takes
//!   ~25 ms, enough properties per run for a stable p90; k=3 takes ~200 ms
//!   with a seed-to-seed p50 spread near 10%, and ε≈0.12–0.2 at k=4 can
//!   take 10–80 s per MILP.
//! * `uap-analysis` — conv-small/pgd (k=8, ε=0.02, ~6 ms) interleaved one
//!   to three with fc-small/pgd (k=8, ε=0.03, ~2.6 ms). Every verdict
//!   settles at the analysis tier: the LP is encoded but never solved, so
//!   DeepPoly, DiffPoly and the encoder do all the work and the solver is
//!   bypassed. The 1:3 mix puts the p50 inside fc's cost bulk and the p90
//!   inside conv's; a 1:1 alternation puts the p90 on the knee of conv's
//!   cost distribution, where host noise moved it by 20% between runs.
//!   fc-med and fc-big train only to chance accuracy in the zoo, so they
//!   are not used.
//!
//! A traced run replays every property through the public layer calls,
//! with a span around each, and checks the replay reaches `verify_uap`'s
//! verdict byte for byte.

use crate::inputs::{self, Pool};
use crate::metrics::{self, ms, LayerTotals, Run};
use crate::trace::Tracer;
use raven::encode::{encode, Expr};
use raven::margin::{all_positive, deeppoly_margins};
use raven::report::uap_verdict_json;
use raven::{verify_uap, Method, RavenConfig, Tier, TierMillis, UapProblem, UapResult};
use raven_bench::models::{conv_model, fc_model, Training};
use raven_deeppoly::DeepPolyAnalysis;
use raven_diffpoly::DiffPolyAnalysis;
use raven_interval::Interval;
use raven_lp::{BasisCache, Budget, Direction, LinExpr, LpProblem, Sense, SolveStatus, VarId};
use raven_nn::Network;
use std::time::{Duration, Instant};

/// Untimed properties per model before the window opens.
const WARMUP: usize = 3;
/// Points generated per pool; batches wrap around once it is used up.
const POOL: usize = 8000;

/// One network with its batch shape.
struct Model {
    net: Network,
    problem: UapProblem,
    pool: Pool,
}

impl Model {
    fn new(net: Network, pool: Pool, k: usize, eps: f64) -> Model {
        let (inputs, labels) = inputs::batch(&pool, 0, k);
        Model {
            problem: UapProblem {
                plan: net.to_plan(),
                inputs,
                labels,
                eps,
            },
            net,
            pool,
        }
    }

    /// Points the problem at batch `index`.
    fn load(&mut self, index: usize) {
        let k = self.problem.k();
        (self.problem.inputs, self.problem.labels) = inputs::batch(&self.pool, index, k);
    }

    fn batches(&self) -> usize {
        self.pool.len() / self.problem.k()
    }
}

/// The workload's models, and which model each property of a repeating
/// cycle uses.
fn models(workload: &str, seed: u64) -> (Vec<Model>, &'static [usize]) {
    let fc = fc_model("fc-small", Training::Pgd).net;
    match workload {
        "uap-milp" => (
            vec![Model::new(
                fc.clone(),
                inputs::digit_pool(&fc, POOL, seed),
                2,
                0.25,
            )],
            &[0],
        ),
        "uap-analysis" => {
            let conv = conv_model(Training::Pgd).net;
            (
                vec![
                    Model::new(conv.clone(), inputs::rgb_pool(&conv, POOL, seed), 8, 0.02),
                    Model::new(fc.clone(), inputs::digit_pool(&fc, POOL, seed), 8, 0.03),
                ],
                &[0, 1, 1, 1],
            )
        }
        other => unreachable!("not an offline workload: {other}"),
    }
}

/// Runs an offline workload. Set-up ends when the window opens; with
/// `measure` false the run stops there.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    measure: bool,
    started: Instant,
    tracer: &mut Tracer,
) -> Run {
    let config = RavenConfig::default();
    let (mut models, cycle) = models(workload, seed);
    for m in &mut models {
        for j in 0..WARMUP {
            let last = m.batches() - 1 - j;
            m.load(last);
            std::hint::black_box(verify_uap(&m.problem, Method::Raven, &config));
        }
    }
    let mut run = Run {
        setup_s: started.elapsed().as_secs_f64(),
        attempted: 0,
        failures: Vec::new(),
        latencies_ms: Vec::new(),
        throughput: (0, 0.0),
        layers: None,
    };
    if !measure {
        return run;
    }

    let mut layers = LayerTotals::default();
    let mut verdicts: Vec<(usize, usize, UapResult)> = Vec::new();
    let window = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut last_end = start;
    let mut next_batch = vec![0; models.len()];
    let mut b = 0;
    while b == 0 || start.elapsed() < window {
        let mi = cycle[b % cycle.len()];
        let bi = next_batch[mi];
        next_batch[mi] += 1;
        let m = &mut models[mi];
        m.load(bi);
        let before = metrics::counters();
        let t0 = Instant::now();
        let res = verify_uap(&m.problem, Method::Raven, &config);
        let verify = t0.elapsed();
        run.latencies_ms.push(ms(verify));
        if traced {
            layers.gen_lags_ms.push(ms(t0 - last_end));
            layers.add_counters(before, metrics::counters());
            layers.add_uap_verdict(
                res.worst_case_hamming,
                res.lp_rows,
                res.tier != Tier::Analysis,
            );
            layers.verify_ms += ms(verify);
            match replay(&m.problem, tracer, b as u64) {
                Ok((replayed, t)) => {
                    let (k, eps) = (m.problem.k(), m.problem.eps);
                    if uap_verdict_json(k, eps, &replayed).to_string()
                        != uap_verdict_json(k, eps, &res).to_string()
                    {
                        run.failures.push(format!(
                            "property {b}: replay verdict differs from verify_uap"
                        ));
                    }
                    layers.add_replay(&t);
                }
                Err(e) => run.failures.push(format!("property {b}: {e}")),
            }
        }
        verdicts.push((mi, bi, res));
        last_end = Instant::now();
        b += 1;
    }
    run.throughput = (b, start.elapsed().as_secs_f64());
    run.attempted = b as u64;

    // Soundness against attacks, outside the timed window.
    for (mi, bi, res) in &verdicts {
        let m = &mut models[*mi];
        m.load(*bi);
        let p = &m.problem;
        let witness = res.counterexample_delta.as_deref();
        let sound = inputs::check_uap_sound(
            &m.net,
            &p.inputs,
            &p.labels,
            p.eps,
            res.worst_case_hamming,
            witness,
        );
        if let Err(e) = sound {
            run.failures.push(e);
        }
    }
    if traced {
        layers.trace_overhead_ms = ms(tracer.overhead());
        run.layers = Some(layers);
    }
    run
}

/// Wall time of each layer in one replayed property, in milliseconds.
#[derive(Debug, Default)]
pub struct LayerTimes {
    pub margins: f64,
    pub deeppoly: f64,
    pub diffpoly: f64,
    pub encode: f64,
    pub solve: f64,
    pub total: f64,
}

impl LayerTotals {
    fn add_replay(&mut self, t: &LayerTimes) {
        let layers = t.margins + t.deeppoly + t.diffpoly + t.encode + t.solve;
        self.items += 1.0;
        self.wall_ms += t.total;
        self.deeppoly_ms += t.margins + t.deeppoly;
        self.diffpoly_ms += t.diffpoly;
        self.encode_ms += t.encode;
        self.lp_ms += t.solve;
        self.unattributed_ms += t.total - layers;
    }
}

/// Recomputes `verify_uap(problem, Method::Raven, &RavenConfig::default())`
/// through the public layer calls, one span each:
/// `raven::margin::deeppoly_margins`, `DeepPolyAnalysis::run`,
/// `DiffPolyAnalysis::run` on consecutive pairs, `raven::encode::encode`
/// plus the counting-spec rows, and `LpProblem::solve_milp_cached`.
///
/// Only the ladder's top rung is replayed: a spec MILP that does not reach
/// its optimum (node cap or numerical failure) is reported as an error.
pub fn replay(
    problem: &UapProblem,
    tr: &mut Tracer,
    req: u64,
) -> Result<(UapResult, LayerTimes), String> {
    let config = RavenConfig::default();
    let (plan, k) = (&problem.plan, problem.k());
    let out_dim = plan.output_dim();
    let delta = Interval::symmetric(problem.eps);
    let boxes: Vec<Vec<Interval>> = problem
        .inputs
        .iter()
        .map(|z| {
            z.iter()
                .map(|&zj| Interval::new(zj + delta.lo(), zj + delta.hi()))
                .collect()
        })
        .collect();
    let root = tr.open("property", req, None);
    let started = Instant::now();
    let lap = |tr: &mut Tracer, name: &'static str, t0: Instant| {
        let t1 = Instant::now();
        tr.record(name, req, Some(root), t0, t1);
        ms(t1 - t0)
    };
    let mut times = LayerTimes::default();

    let t = Instant::now();
    let margins: Vec<Vec<f64>> = boxes
        .iter()
        .zip(&problem.labels)
        .map(|(b, &y)| deeppoly_margins(plan, b, y))
        .collect();
    times.margins = lap(tr, "margins", t);
    let individually_verified = margins.iter().filter(|m| all_positive(m)).count();

    let t = Instant::now();
    let dps: Vec<DeepPolyAnalysis> = boxes
        .iter()
        .map(|b| DeepPolyAnalysis::run(plan, b))
        .collect();
    times.deeppoly = lap(tr, "deeppoly", t);

    let t = Instant::now();
    let diffs: Vec<(usize, usize, DiffPolyAnalysis)> = config
        .pairs
        .pairs(k)
        .into_iter()
        .map(|(a, b)| {
            let d: Vec<Interval> = problem.inputs[a]
                .iter()
                .zip(&problem.inputs[b])
                .map(|(&za, &zb)| Interval::point(za - zb))
                .collect();
            (a, b, DiffPolyAnalysis::run(plan, &dps[a], &dps[b], &d))
        })
        .collect();
    times.diffpoly = lap(tr, "diffpoly", t);

    let t = Instant::now();
    let mut lp = LpProblem::new();
    let d_vars: Vec<VarId> = (0..plan.input_dim())
        .map(|_| lp.add_var(delta.lo(), delta.hi()))
        .collect();
    let input_exprs: Vec<Vec<Expr>> = problem
        .inputs
        .iter()
        .map(|z| {
            z.iter()
                .zip(&d_vars)
                .map(|(&zj, &dj)| Expr::constant(zj).plus_var(1.0, dj))
                .collect()
        })
        .collect();
    let dp_refs: Vec<&DeepPolyAnalysis> = dps.iter().collect();
    let pair_refs: Vec<(usize, usize, &DiffPolyAnalysis)> =
        diffs.iter().map(|(a, b, d)| (*a, *b, d)).collect();
    let encoding = encode(&mut lp, plan, &input_exprs, &dp_refs, &pair_refs);
    // Counting spec: indicator z_i may be 1 only if some candidate class c
    // (margin not certified positive) reaches o_c ≥ o_y.
    let mut objective = LinExpr::new();
    for (i, &y) in problem.labels.iter().enumerate() {
        let candidates: Vec<usize> = (0..out_dim)
            .filter(|&c| c != y)
            .zip(&margins[i])
            .filter(|&(_, &m)| m <= 0.0)
            .map(|(c, _)| c)
            .collect();
        if candidates.is_empty() {
            continue;
        }
        let z = lp.add_binary_var();
        objective.push(1.0, z);
        let mut z_row = LinExpr::new().term(1.0, z);
        let outs = &encoding.execs[i].outputs;
        for c in candidates {
            let w = lp.add_binary_var();
            z_row.push(-1.0, w);
            let big_m = (dps[i].output()[y].hi() - dps[i].output()[c].lo()).max(0.0) + 1e-6;
            let row = LinExpr::new()
                .term(1.0, outs[y])
                .term(-1.0, outs[c])
                .term(big_m, w);
            lp.add_constraint(row, Sense::Le, big_m);
        }
        lp.add_constraint(z_row, Sense::Le, 0.0);
    }
    let (lp_rows, lp_vars) = (lp.num_constraints(), lp.num_vars());
    let any_indicator = !objective.terms().is_empty();
    times.encode = lap(tr, "encode", t);

    let mut result = UapResult {
        method: Method::Raven,
        worst_case_accuracy: 1.0,
        worst_case_hamming: 0.0,
        individually_verified,
        solve_millis: 0.0,
        lp_rows,
        lp_vars,
        exact: true,
        counterexample_delta: None,
        tier: Tier::Analysis,
        degraded: false,
        tier_millis: TierMillis::default(),
    };
    if any_indicator {
        let t = Instant::now();
        lp.set_objective(Direction::Maximize, objective);
        let solved =
            lp.solve_milp_cached(&config.milp, &Budget::unlimited(), &mut BasisCache::new());
        times.solve = lap(tr, "solve", t);
        let sol = match solved {
            Ok(sol) if sol.status == SolveStatus::Optimal => sol,
            other => return Err(format!("replay: spec MILP ended {other:?}, not optimal")),
        };
        let hamming = sol.objective.clamp(0.0, (k - individually_verified) as f64);
        result.worst_case_hamming = hamming;
        result.worst_case_accuracy = (k as f64 - hamming) / k as f64;
        result.counterexample_delta =
            (!sol.values.is_empty()).then(|| d_vars.iter().map(|&v| sol.value(v)).collect());
        result.tier = Tier::Milp;
    }
    tr.close(root);
    times.total = ms(started.elapsed());
    result.solve_millis = times.total;
    Ok((result, times))
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_nn::{ActKind, NetworkBuilder};

    #[test]
    fn replay_reaches_verify_uaps_verdict_on_a_tiny_network() {
        let net = NetworkBuilder::new(4)
            .dense(6, 1)
            .activation(ActKind::Relu)
            .dense(5, 2)
            .activation(ActKind::Relu)
            .dense(3, 3)
            .build();
        let inputs = vec![
            vec![0.4, 0.5, 0.6, 0.5],
            vec![0.6, 0.4, 0.5, 0.5],
            vec![0.2, 0.9, 0.1, 0.7],
        ];
        let labels: Vec<usize> = inputs.iter().map(|x| net.classify(x)).collect();
        let mut tiers = Vec::new();
        let mut tr = Tracer::new();
        for (i, eps) in [0.001, 0.05, 0.2, 0.5].into_iter().enumerate() {
            let problem = UapProblem {
                plan: net.to_plan(),
                inputs: inputs.clone(),
                labels: labels.clone(),
                eps,
            };
            let want = verify_uap(&problem, Method::Raven, &RavenConfig::default());
            let (got, times) = replay(&problem, &mut tr, i as u64).expect("replay solves");
            assert_eq!(
                uap_verdict_json(3, eps, &got).to_string(),
                uap_verdict_json(3, eps, &want).to_string(),
                "eps {eps}"
            );
            assert!(times.total >= times.margins + times.deeppoly + times.encode);
            tiers.push(want.tier);
        }
        assert!(tiers.contains(&Tier::Analysis), "{tiers:?}");
        assert!(tiers.contains(&Tier::Milp), "{tiers:?}");
    }
}
