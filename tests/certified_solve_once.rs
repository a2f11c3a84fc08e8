//! A certified run solves its LP/MILP once.
//!
//! The certificate is packaged from the very solve that produced the
//! verdict, so asking for one costs no solver work: the process-global
//! `raven_lp::metrics` work counters advance by exactly what the same
//! uncertified run advances them by, and the certificate's claimed bound,
//! clamped the way the verdict clamps it, is the verdict's bound bit for
//! bit. Covered on the UAP spec MILP at an ε where branch & bound
//! branches (so warm-started children and pruned leaves are part of the
//! compared work), the UAP LP tier (`spec_milp: false`) and monotonicity.
//!
//! This binary holds a single test so that no other test moves the
//! counters while it measures.

use raven::report::{mono_verdict_json, uap_verdict_json};
use raven::{
    verify_monotonicity_with_hooks, verify_uap_with_hooks, Method, MonotonicityProblem,
    RavenConfig, RunHooks, Tier, UapProblem,
};
use raven_check::Certificate;
use raven_lp::metrics::{LP_DUAL_PIVOTS, LP_SOLVES, MILP_NODES, SIMPLEX_PIVOTS};
use raven_nn::{ActKind, NetworkBuilder};
use raven_tensor::Rng;

/// The solver work counters, in a fixed order.
fn work() -> [u64; 4] {
    [
        LP_SOLVES.get(),
        MILP_NODES.get(),
        SIMPLEX_PIVOTS.get(),
        LP_DUAL_PIVOTS.get(),
    ]
}

/// `f`'s result and how far it advanced each work counter.
fn measured<T>(f: impl FnOnce() -> T) -> (T, [u64; 4]) {
    let before = work();
    let out = f();
    let after = work();
    (out, [0, 1, 2, 3].map(|i| after[i] - before[i]))
}

/// The LP claimed bound a certificate carries.
fn claimed(cert: Option<Certificate>, case: &str) -> f64 {
    cert.and_then(|c| c.lp)
        .unwrap_or_else(|| panic!("{case}: no LP certificate"))
        .claimed_bound
}

#[test]
fn certified_runs_solve_once_and_claim_the_verdict_bound() {
    let net = NetworkBuilder::new(6)
        .dense(8, 11)
        .activation(ActKind::Relu)
        .dense(8, 12)
        .activation(ActKind::Relu)
        .dense(3, 13)
        .build();
    let plan = net.to_plan();
    let mut rng = Rng::new(7);
    let inputs: Vec<Vec<f64>> = (0..4)
        .map(|_| (0..6).map(|_| rng.in_range(0.0, 1.0)).collect())
        .collect();
    let labels: Vec<usize> = inputs.iter().map(|z| net.classify(z)).collect();
    let hooks = RunHooks::default();
    let milp = RavenConfig::default();
    let lp = RavenConfig {
        spec_milp: false,
        ..RavenConfig::default()
    };
    for (case, config, eps, tier) in [
        ("uap milp", &milp, 0.2, Tier::Milp),
        ("uap lp", &lp, 0.15, Tier::Lp),
    ] {
        let uap = UapProblem {
            plan: plan.clone(),
            inputs: inputs.clone(),
            labels: labels.clone(),
            eps,
        };
        let run = |certify| {
            measured(|| {
                verify_uap_with_hooks(&uap, Method::Raven, config, &hooks, certify)
                    .expect("default hooks never cancel")
            })
        };
        let ((plain, _), plain_work) = run(false);
        let ((res, cert), certified_work) = run(true);
        assert_eq!(res.tier, tier, "{case}");
        assert!(plain_work[0] > 0, "{case}: the verdict solves");
        if tier == Tier::Milp {
            assert!(plain_work[1] > 1, "{case}: the search branches");
        }
        assert_eq!(certified_work, plain_work, "{case}: solver work");
        assert_eq!(
            uap_verdict_json(uap.k(), uap.eps, &res).to_string(),
            uap_verdict_json(uap.k(), uap.eps, &plain).to_string(),
            "{case}: verdict"
        );
        let union = (uap.k() - res.individually_verified) as f64;
        let bound = claimed(cert, case).clamp(0.0, union);
        assert_eq!(
            bound.to_bits(),
            res.worst_case_hamming.to_bits(),
            "{case}: claimed {bound} vs verdict {}",
            res.worst_case_hamming
        );
    }

    let mono = MonotonicityProblem {
        plan,
        center: vec![0.5; 6],
        eps: 0.05,
        feature: 2,
        tau: 0.2,
        output_weights: vec![1.0, 0.0, -1.0],
        increasing: true,
    };
    let run = |certify| {
        measured(|| {
            verify_monotonicity_with_hooks(&mono, Method::Raven, &milp, &hooks, certify)
                .expect("default hooks never cancel")
        })
    };
    let ((plain, _), plain_work) = run(false);
    let ((res, cert), certified_work) = run(true);
    assert_eq!(res.tier, Tier::Lp, "monotonicity");
    assert!(plain_work[0] > 0, "monotonicity: the verdict solves");
    assert_eq!(certified_work, plain_work, "monotonicity: solver work");
    assert_eq!(
        mono_verdict_json(&mono, &res).to_string(),
        mono_verdict_json(&mono, &plain).to_string(),
        "monotonicity: verdict"
    );
    // Monotonicity reports the LP optimum unclamped.
    let bound = claimed(cert, "monotonicity");
    assert_eq!(
        bound.to_bits(),
        res.certified_change.to_bits(),
        "monotonicity: claimed {bound} vs verdict {}",
        res.certified_change
    );
}
