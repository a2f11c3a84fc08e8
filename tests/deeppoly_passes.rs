//! DeepPoly runs once per execution.
//!
//! The verifiers analyze each execution's box once and reuse that analysis
//! for the margin check, the relational relaxation, the I/O rows and the
//! degradation fallbacks. Every activation neuron a DeepPoly pass relaxes
//! advances the process-global `raven_deeppoly::metrics::RELAXED_NEURONS`
//! counter by one, so a pass over a fixed plan advances it by a fixed
//! delta, whatever the box; a verifier call must advance it by exactly that
//! delta per execution.
//!
//! This binary holds a single test so that no other test moves the counter
//! while it measures.

use raven::{
    verify_monotonicity, verify_targeted_uap_all, verify_uap, Method, MonotonicityProblem,
    RavenConfig, Tier, UapProblem,
};
use raven_deeppoly::metrics::RELAXED_NEURONS;
use raven_deeppoly::DeepPolyAnalysis;
use raven_interval::linf_ball;
use raven_nn::{ActKind, NetworkBuilder};
use raven_tensor::Rng;

/// Counter delta of `f`.
fn relaxed_by(f: impl FnOnce()) -> u64 {
    let before = RELAXED_NEURONS.get();
    f();
    RELAXED_NEURONS.get() - before
}

#[test]
fn every_verifier_runs_deeppoly_once_per_execution() {
    let net = NetworkBuilder::new(6)
        .dense(8, 31)
        .activation(ActKind::Relu)
        .dense(8, 32)
        .activation(ActKind::Relu)
        .dense(3, 33)
        .build();
    let plan = net.to_plan();
    let mut rng = Rng::new(34);
    let inputs: Vec<Vec<f64>> = (0..4)
        .map(|_| (0..6).map(|_| rng.in_range(0.0, 1.0)).collect())
        .collect();
    let labels: Vec<usize> = inputs.iter().map(|z| net.classify(z)).collect();
    let k = inputs.len() as u64;

    let pass = relaxed_by(|| {
        DeepPolyAnalysis::run(&plan, &linf_ball(&inputs[0], 0.01, 0.0, 1.0));
    });
    assert_eq!(pass, 16, "one pass relaxes both hidden layers");

    let config = RavenConfig::default();
    let problem = |eps| UapProblem {
        plan: plan.clone(),
        inputs: inputs.clone(),
        labels: labels.clone(),
        eps,
    };
    // Settled at the analysis tier (the relational LP is counted), and
    // through the spec MILP (the LP is built and solved).
    let mut tiers = Vec::new();
    for eps in [0.001, 0.2] {
        let problem = problem(eps);
        for method in [Method::DeepPolyIndividual, Method::IoLp, Method::Raven] {
            let delta = relaxed_by(|| tiers.push(verify_uap(&problem, method, &config).tier));
            assert_eq!(delta, k * pass, "{method:?} at eps {eps}");
        }
        let delta = relaxed_by(|| {
            verify_targeted_uap_all(&problem, &[0, 1, 2], Method::Raven, &config);
        });
        assert_eq!(delta, k * pass, "targeted at eps {eps}");
    }
    assert!(tiers.contains(&Tier::Analysis) && tiers.contains(&Tier::Milp));

    for method in [Method::DeepPolyIndividual, Method::Raven] {
        let mono = MonotonicityProblem {
            plan: plan.clone(),
            center: inputs[0].clone(),
            eps: 0.02,
            feature: 0,
            tau: 0.05,
            output_weights: vec![1.0, -1.0, 0.0],
            increasing: true,
        };
        let delta = relaxed_by(|| {
            verify_monotonicity(&mono, method, &config);
        });
        assert_eq!(delta, 2 * pass, "monotonicity, {method:?}");
    }
}
