//! Golden hashes of the relational LP encoder's output.
//!
//! `raven::encode` builds the LP behind every RaVeN verdict, so the exact
//! rows, bounds and coefficients it emits are pinned here, bit for bit:
//! each case hashes `raven_lp::to_lp_format` (which prints every `f64` in
//! its shortest round-trip form, the sign of zero included) with FNV-1a 64.
//! The cases cover every activation kind, a convolution, both pair
//! strategies at k = 3, inputs that mix several scenario variables, and
//! the monotonicity encoding (input variables shared across executions,
//! plus a shift variable on one feature).
//!
//! A changed hash means the encoder emits a different LP. Regenerate only
//! after an *intentional* change to the encoding with:
//! `RAVEN_REGEN_GOLDEN=1 cargo test --test encode_golden`

use raven::encode::{encode, Expr};
use raven::relational::{export_lp, InputCoord, RelationalProblem};
use raven::{PairStrategy, RavenConfig};
use raven_deeppoly::DeepPolyAnalysis;
use raven_diffpoly::DiffPolyAnalysis;
use raven_interval::{linf_ball, Interval};
use raven_lp::{to_lp_format, LpProblem, VarId};
use raven_nn::{fnv1a64, ActKind, Network, NetworkBuilder};
use raven_tensor::Rng;
use std::path::{Path, PathBuf};

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/encode_lp.txt")
}

/// A fully connected net with `hidden` activation layers of width 8 over a
/// 6-dimensional input, ending in 3 logits.
fn fc_net(kind: ActKind, hidden: usize, seed: u64) -> Network {
    let mut b = NetworkBuilder::new(6);
    for l in 0..hidden {
        b = b.dense(8, seed + l as u64).activation(kind);
    }
    b.dense(3, seed + 100).build()
}

/// A 1×5×5 image through a 2-channel 3×3 convolution, then a dense layer.
fn conv_net() -> Network {
    NetworkBuilder::new(25)
        .conv(1, 5, 5, 2, 3, 3, 1, 1, 71)
        .activation(ActKind::Relu)
        .dense(6, 72)
        .activation(ActKind::Relu)
        .dense(3, 73)
        .build()
}

fn centers(dim: usize, k: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Rng::new(seed);
    (0..k)
        .map(|_| (0..dim).map(|_| rng.in_range(0.0, 1.0)).collect())
        .collect()
}

/// A k = 3 UAP encoding: shared perturbation `d ∈ [−eps, eps]ⁿ`, one
/// execution `z_i + d` per center.
fn uap_lp(net: &Network, eps: f64, pairs: PairStrategy, seed: u64) -> String {
    let plan = net.to_plan();
    let dim = plan.input_dim();
    let mut problem = RelationalProblem::new(plan, vec![Interval::symmetric(eps); dim]);
    for z in centers(dim, 3, seed) {
        problem.add_perturbed_execution(&z);
    }
    let config = RavenConfig {
        pairs,
        ..RavenConfig::default()
    };
    export_lp(&problem, &config)
}

/// Executions whose coordinates mix two scenario variables, so the first
/// affine layer composes multi-term input expressions (and the pair
/// differences keep variable terms instead of cancelling to constants).
fn mixed_input_lp(net: &Network, eps: f64) -> String {
    let plan = net.to_plan();
    let dim = plan.input_dim();
    let mut problem = RelationalProblem::new(plan, vec![Interval::symmetric(eps); dim]);
    for (i, z) in centers(dim, 3, 91).into_iter().enumerate() {
        let coords = z
            .iter()
            .enumerate()
            .map(|(j, &zj)| {
                InputCoord::shifted(zj, j).plus(0.25 * (i as f64 + 1.0), (j + 1 + i) % dim)
            })
            .collect();
        problem.add_execution(coords);
    }
    let config = RavenConfig {
        pairs: PairStrategy::AllPairs,
        ..RavenConfig::default()
    };
    export_lp(&problem, &config)
}

/// The monotonicity encoding: execution A at `x`, execution B at `x` with
/// `feature` raised by `t ∈ [0, tau]`, and the DiffPoly pair (B, A).
fn monotonicity_lp(net: &Network, eps: f64, feature: usize, tau: f64) -> String {
    let plan = net.to_plan();
    let dim = plan.input_dim();
    let center = &centers(dim, 1, 53)[0];
    let box_a = linf_ball(center, eps, f64::NEG_INFINITY, f64::INFINITY);
    let mut box_b = box_a.clone();
    box_b[feature] = Interval::new(box_b[feature].lo(), box_b[feature].hi() + tau);
    let dp_a = DeepPolyAnalysis::run(&plan, &box_a);
    let dp_b = DeepPolyAnalysis::run(&plan, &box_b);
    let mut lp = LpProblem::new();
    let x_vars: Vec<VarId> = box_a
        .iter()
        .map(|iv| lp.add_var(iv.lo(), iv.hi()))
        .collect();
    let t_var = lp.add_var(0.0, tau);
    let exprs_a: Vec<Expr> = x_vars.iter().map(|&v| Expr::var(v)).collect();
    let exprs_b: Vec<Expr> = x_vars
        .iter()
        .enumerate()
        .map(|(j, &v)| {
            if j == feature {
                Expr::var(v).plus_var(1.0, t_var)
            } else {
                Expr::var(v)
            }
        })
        .collect();
    let delta: Vec<Interval> = (0..dim)
        .map(|j| {
            if j == feature {
                Interval::new(0.0, tau)
            } else {
                Interval::point(0.0)
            }
        })
        .collect();
    let diff = DiffPolyAnalysis::run(&plan, &dp_b, &dp_a, &delta);
    encode(
        &mut lp,
        &plan,
        &[exprs_a, exprs_b],
        &[&dp_a, &dp_b],
        &[(1, 0, &diff)],
    );
    to_lp_format(&lp)
}

/// Every pinned case, as `(name, LP text)`.
fn cases() -> Vec<(String, String)> {
    let nets = [
        ("relu3", fc_net(ActKind::Relu, 3, 11), 0.08),
        ("sigmoid", fc_net(ActKind::Sigmoid, 2, 21), 0.1),
        ("tanh", fc_net(ActKind::Tanh, 2, 31), 0.1),
        ("leaky_relu", fc_net(ActKind::LeakyRelu, 2, 41), 0.08),
        ("hard_tanh", fc_net(ActKind::HardTanh, 2, 51), 0.08),
        ("conv", conv_net(), 0.05),
    ];
    let mut out = Vec::new();
    for (name, net, eps) in &nets {
        for pairs in [PairStrategy::Consecutive, PairStrategy::AllPairs] {
            out.push((
                format!("uap/{name}/k3/{}", pairs.name()),
                uap_lp(net, *eps, pairs, 7),
            ));
        }
        out.push((
            format!("monotonicity/{name}"),
            monotonicity_lp(net, *eps, 2, 0.3),
        ));
    }
    out.push((
        "mixed_inputs/relu3/k3/all".to_string(),
        mixed_input_lp(&nets[0].1, 0.08),
    ));
    out
}

/// One line per case: name, constraint rows, declared variables, hash.
fn render(cases: &[(String, String)]) -> String {
    let mut text = String::new();
    for (name, lp) in cases {
        let rows = lp.lines().filter(|l| l.starts_with(" c")).count();
        let (_, bounds) = lp.split_once("Bounds\n").expect("writer emits Bounds");
        let vars = bounds.lines().take_while(|l| l.starts_with(' ')).count();
        text.push_str(&format!(
            "{name} rows={rows} vars={vars} fnv1a64={:016x}\n",
            fnv1a64(lp.as_bytes())
        ));
    }
    text
}

#[test]
fn encoder_output_matches_golden_hashes() {
    let text = render(&cases());
    let path = golden_path();
    if std::env::var("RAVEN_REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, &text).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with RAVEN_REGEN_GOLDEN=1",
            path.display()
        )
    });
    let drifted: Vec<&str> = text
        .lines()
        .zip(golden.lines())
        .filter(|(now, pinned)| now != pinned)
        .map(|(now, _)| now)
        .collect();
    assert_eq!(
        text,
        golden,
        "encoder LP drifted from {} on {drifted:?}; if intentional, regenerate with RAVEN_REGEN_GOLDEN=1",
        path.display()
    );
}

/// The encoding the UAP verifier builds for a k = 3 batch: DeepPoly on
/// `z_i ± eps`, DiffPoly on each pair with input difference
/// `Interval::point(z_a − z_b)` (the shared perturbation cancels), and the
/// relational LP over `z_i + d`.
fn verifier_uap_lp(net: &Network, eps: f64, pairs: PairStrategy, seed: u64) -> String {
    let plan = net.to_plan();
    let dim = plan.input_dim();
    let zs = centers(dim, 3, seed);
    let dps: Vec<DeepPolyAnalysis> = zs
        .iter()
        .map(|z| DeepPolyAnalysis::run(&plan, &linf_ball(z, eps, f64::NEG_INFINITY, f64::INFINITY)))
        .collect();
    let diffs: Vec<(usize, usize, DiffPolyAnalysis)> = pairs
        .pairs(zs.len())
        .into_iter()
        .map(|(a, b)| {
            let delta: Vec<Interval> = zs[a]
                .iter()
                .zip(&zs[b])
                .map(|(&za, &zb)| Interval::point(za - zb))
                .collect();
            (a, b, DiffPolyAnalysis::run(&plan, &dps[a], &dps[b], &delta))
        })
        .collect();
    let mut lp = LpProblem::new();
    let d_vars: Vec<VarId> = (0..dim).map(|_| lp.add_var(-eps, eps)).collect();
    let input_exprs: Vec<Vec<Expr>> = zs
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
    encode(&mut lp, &plan, &input_exprs, &dp_refs, &pair_refs);
    to_lp_format(&lp)
}

#[test]
fn export_lp_matches_the_uap_verifier_encoding() {
    // `export_lp` must emit the LP the verifier solves, so each pair's
    // input difference has to cancel the shared perturbation exactly.
    for (name, net, eps) in [
        ("relu3", fc_net(ActKind::Relu, 3, 11), 0.08),
        ("sigmoid", fc_net(ActKind::Sigmoid, 2, 21), 0.1),
    ] {
        for pairs in [PairStrategy::Consecutive, PairStrategy::AllPairs] {
            assert!(
                uap_lp(&net, eps, pairs, 7) == verifier_uap_lp(&net, eps, pairs, 7),
                "{name}/{}: export_lp differs from the verifier's encoding",
                pairs.name()
            );
        }
    }
}

#[test]
fn golden_cases_exercise_every_row_shape() {
    // The hashes only pin what the cases reach: make sure they reach
    // relaxed (inequality) rows as well as equalities, on every case.
    for (name, lp) in cases() {
        for op in [" = ", " <= ", " >= "] {
            assert!(
                lp.lines().any(|l| l.starts_with(" c") && l.contains(op)),
                "{name}: no constraint row with `{}`",
                op.trim()
            );
        }
    }
}
