//! Anytime-verification integration tests: degraded verdicts under a
//! deadline stay deterministic across thread counts and sound against
//! brute-force enumeration on tiny networks.
//!
//! The lp crate's chaos stall state is process-global, so the stall test
//! serializes itself behind `CHAOS_LOCK` and always clears the injection.

use raven::{
    report, verify_monotonicity_with_hooks, verify_uap_with_hooks, Method, MonotonicityProblem,
    RavenConfig, RunHooks, Tier, UapProblem,
};
use raven_nn::{ActKind, Network, NetworkBuilder};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// A tiny 2-input / 2-class network whose perturbation space can be
/// enumerated densely. It is the identity map on the positive quadrant,
/// so the decision boundary is the diagonal `x0 = x1` and inputs placed
/// near it are *not* individually robust — the spec LP/MILP genuinely has
/// to run (and can therefore be interrupted by a deadline).
fn tiny_net() -> Network {
    NetworkBuilder::new(2)
        .dense_from(&[&[1.0, 0.0], &[0.0, 1.0]], &[0.0, 0.0])
        .activation(ActKind::Relu)
        .dense_from(&[&[1.0, 0.0], &[0.0, 1.0]], &[0.0, 0.0])
        .build()
}

/// Two boundary-straddling inputs (misclassifiable at ε = 0.05, but only
/// one at a time: flipping them needs opposite-sign shared δ) and one
/// robust input.
fn tiny_problem(eps: f64) -> UapProblem {
    let net = tiny_net();
    let inputs = vec![vec![0.52, 0.48], vec![0.45, 0.55], vec![0.7, 0.3]];
    let labels: Vec<usize> = inputs.iter().map(|x| net.classify(x)).collect();
    UapProblem {
        plan: net.to_plan(),
        inputs,
        labels,
        eps,
    }
}

/// Empirical worst-case accuracy over a dense grid of *shared*
/// perturbations — an upper bound on the true worst case, so any sound
/// verdict must stay at or below it.
fn enumerated_worst_case_accuracy(problem: &UapProblem, steps: usize) -> f64 {
    let net = tiny_net();
    let k = problem.k() as f64;
    let mut worst = 1.0_f64;
    for i in 0..=steps {
        for j in 0..=steps {
            let dx = -problem.eps + 2.0 * problem.eps * (i as f64) / (steps as f64);
            let dy = -problem.eps + 2.0 * problem.eps * (j as f64) / (steps as f64);
            let correct = problem
                .inputs
                .iter()
                .zip(&problem.labels)
                .filter(|(x, &label)| net.classify(&[x[0] + dx, x[1] + dy]) == label)
                .count();
            worst = worst.min(correct as f64 / k);
        }
    }
    worst
}

#[test]
fn degraded_uap_verdict_is_sound_against_enumeration() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let problem = tiny_problem(0.05);
    let empirical = enumerated_worst_case_accuracy(&problem, 40);
    let config = RavenConfig::default();

    // Unlimited run: the reference exact answer.
    let exact = verify_uap_with_hooks(
        &problem,
        Method::Raven,
        &config,
        &RunHooks::default(),
        false,
    )
    .expect("no cancellation")
    .0;
    assert!(!exact.degraded);
    assert!(
        exact.worst_case_accuracy <= empirical + 1e-9,
        "exact verdict {} overclaims vs enumerated {}",
        exact.worst_case_accuracy,
        empirical
    );

    // Already-expired deadline: degrades at the first budget checkpoint,
    // identically on every machine.
    let hooks = RunHooks::default().with_deadline(Instant::now() - Duration::from_millis(1));
    let degraded = verify_uap_with_hooks(&problem, Method::Raven, &config, &hooks, false)
        .expect("no cancellation")
        .0;
    assert!(degraded.degraded, "expired deadline must degrade");
    assert_eq!(degraded.tier, Tier::Analysis);
    assert!(
        degraded.worst_case_accuracy <= empirical + 1e-9,
        "degraded verdict {} overclaims vs enumerated {}",
        degraded.worst_case_accuracy,
        empirical
    );
    // Degradation never *gains* precision.
    assert!(degraded.worst_case_accuracy <= exact.worst_case_accuracy + 1e-9);

    // Stalled solver + finite deadline: the solve is interrupted mid-flight
    // at whatever ladder rung it reached; the verdict must stay sound.
    raven_lp::chaos::set_pivot_stall_micros(2_000);
    let hooks = RunHooks::default().with_deadline_in(Duration::from_millis(100));
    let stalled = verify_uap_with_hooks(&problem, Method::Raven, &config, &hooks, false)
        .expect("no cancellation")
        .0;
    raven_lp::chaos::clear();
    assert!(
        stalled.worst_case_accuracy <= empirical + 1e-9,
        "stalled verdict {} overclaims vs enumerated {}",
        stalled.worst_case_accuracy,
        empirical
    );
}

#[test]
fn degraded_verdicts_are_identical_across_thread_counts() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let problem = tiny_problem(0.05);
    let verdict_with_threads = |threads: usize| {
        let config = RavenConfig {
            threads,
            ..RavenConfig::default()
        };
        let hooks = RunHooks::default().with_deadline(Instant::now() - Duration::from_millis(1));
        let res = verify_uap_with_hooks(&problem, Method::Raven, &config, &hooks, false)
            .expect("no cancellation")
            .0;
        assert!(res.degraded);
        report::uap_verdict_json(problem.k(), problem.eps, &res).to_string()
    };
    let single = verdict_with_threads(1);
    for threads in [2, 4] {
        assert_eq!(
            single,
            verdict_with_threads(threads),
            "degraded verdict differs between 1 and {threads} threads"
        );
    }
}

#[test]
fn degraded_monotonicity_verdict_is_weaker_but_sound() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let net = tiny_net();
    let problem = MonotonicityProblem {
        plan: net.to_plan(),
        center: vec![0.5, 0.5],
        eps: 0.05,
        feature: 0,
        tau: 0.01,
        output_weights: vec![-1.0, 1.0],
        increasing: true,
    };
    let config = RavenConfig::default();
    let exact = verify_monotonicity_with_hooks(
        &problem,
        Method::Raven,
        &config,
        &RunHooks::default(),
        false,
    )
    .expect("no cancellation")
    .0;
    let hooks = RunHooks::default().with_deadline(Instant::now() - Duration::from_millis(1));
    let degraded = verify_monotonicity_with_hooks(&problem, Method::Raven, &config, &hooks, false)
        .expect("no cancellation")
        .0;
    assert!(degraded.degraded);
    assert_eq!(degraded.tier, Tier::Analysis);
    // The fallback bound is sound, therefore never above the LP bound.
    assert!(degraded.certified_change <= exact.certified_change + 1e-9);
    // It is the DeepPoly baseline's answer, bit for bit, bounded over the
    // analyses the relaxation was built on.
    let baseline = verify_monotonicity_with_hooks(
        &problem,
        Method::DeepPolyIndividual,
        &config,
        &RunHooks::default(),
        false,
    )
    .expect("no cancellation")
    .0;
    assert_eq!(
        degraded.certified_change.to_bits(),
        baseline.certified_change.to_bits()
    );
    // A degraded "verified" must still be a true verdict.
    if degraded.verified {
        assert!(exact.verified);
    }
}

#[test]
fn deadline_bounded_run_returns_promptly_under_stall() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let problem = tiny_problem(0.05);
    let config = RavenConfig::default();
    raven_lp::chaos::set_pivot_stall_micros(2_000);
    let start = Instant::now();
    let hooks = RunHooks::default().with_deadline_in(Duration::from_millis(150));
    let res = verify_uap_with_hooks(&problem, Method::Raven, &config, &hooks, false);
    let elapsed = start.elapsed();
    raven_lp::chaos::clear();
    assert!(res.is_some(), "deadline-only hooks never cancel");
    // Deadline plus generous scheduling grace — far below what the stalled
    // solve would need (it sleeps 2ms per pivot).
    assert!(
        elapsed < Duration::from_secs(10),
        "stalled run took {elapsed:?} despite a 150ms deadline"
    );
}
