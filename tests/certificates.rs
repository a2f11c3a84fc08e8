//! End-to-end certificate tests: verdicts from the verifier replay in the
//! exact checker, tampered certificates are rejected, and random LPs
//! round-trip through emission and replay.

use raven::{
    verify_monotonicity_with_hooks, verify_uap, verify_uap_with_hooks, Method, MonotonicityProblem,
    RavenConfig, RunHooks, UapProblem,
};
use raven_check::{check_certificate, CheckError};
use raven_json::Json;
use raven_lp::{Direction, LinExpr, LpProblem, Sense};
use raven_nn::{ActKind, NetworkBuilder};
use raven_tensor::Rng;

fn uap_problem(eps: f64) -> UapProblem {
    let net = NetworkBuilder::new(4)
        .dense(6, 7)
        .activation(ActKind::Relu)
        .dense(3, 11)
        .build();
    let inputs = vec![
        vec![0.4, 0.5, 0.6, 0.5],
        vec![0.6, 0.4, 0.5, 0.5],
        vec![0.5, 0.6, 0.4, 0.6],
    ];
    let labels = inputs.iter().map(|z| net.classify(z)).collect();
    UapProblem {
        plan: net.to_plan(),
        inputs,
        labels,
        eps,
    }
}

#[test]
fn uap_milp_certificate_replays_and_verdict_is_unchanged() {
    let problem = uap_problem(0.08);
    let config = RavenConfig::default();
    let plain = verify_uap(&problem, Method::Raven, &config);
    let (certified, cert) =
        verify_uap_with_hooks(&problem, Method::Raven, &config, &RunHooks::default(), true)
            .unwrap();
    // The certified path must not perturb the verdict.
    assert_eq!(plain.worst_case_accuracy, certified.worst_case_accuracy);
    assert_eq!(plain.tier, certified.tier);
    assert_eq!(plain.exact, certified.exact);
    let cert = cert.expect("raven run must emit a certificate");
    assert_eq!(cert.kind, "uap");
    assert!(cert.analysis.is_some(), "raven retains its relaxations");
    let report = check_certificate(&cert).expect("replay must accept");
    assert!(report.neurons_checked > 0);
    if certified.tier != raven::Tier::Analysis {
        assert!(report.lp_checked, "lp/milp tier must carry lp evidence");
    }
}

#[test]
fn uap_io_lp_certificate_replays() {
    let problem = uap_problem(0.08);
    let config = RavenConfig {
        spec_milp: false,
        ..RavenConfig::default()
    };
    let (res, cert) =
        verify_uap_with_hooks(&problem, Method::IoLp, &config, &RunHooks::default(), true).unwrap();
    // The I/O formulation discards its margin-plan analyses, so the
    // certificate is LP-only — present whenever an LP actually solved.
    if res.tier == raven::Tier::Analysis {
        return; // everything individually robust: nothing to certify
    }
    let cert = cert.expect("io-lp run with an LP solve must emit a certificate");
    assert!(cert.analysis.is_none());
    let report = check_certificate(&cert).expect("replay must accept");
    assert!(report.lp_checked);
}

#[test]
fn degraded_analysis_tier_certificate_round_trips() {
    // A deadline that expires immediately forces the solve ladder all the
    // way down to the analysis tier; the certificate then carries only the
    // relaxation records, which still replay.
    let problem = uap_problem(0.3);
    let config = RavenConfig::default();
    let hooks = RunHooks::default().with_deadline_in(std::time::Duration::ZERO);
    let (res, cert) = verify_uap_with_hooks(&problem, Method::Raven, &config, &hooks, true)
        .expect("deadline expiry degrades, it does not cancel");
    assert_eq!(res.tier, raven::Tier::Analysis);
    assert!(res.degraded);
    let cert = cert.expect("analysis-tier raven verdict still certifies its relaxations");
    assert_eq!(cert.tier, "analysis");
    assert!(cert.degraded);
    assert!(cert.lp.is_none());
    let report = check_certificate(&cert).expect("analysis replay must accept");
    assert_eq!(report.tier, "analysis");
    assert!(report.neurons_checked > 0);
    assert!(!report.lp_checked);
}

#[test]
fn monotonicity_certificate_replays() {
    let net = NetworkBuilder::new(3)
        .dense_from(
            &[&[0.8, -0.4, 0.2], &[0.5, 0.3, -0.6], &[0.9, 0.1, 0.4]],
            &[0.1, -0.2, 0.0],
        )
        .activation(ActKind::Sigmoid)
        .dense_from(&[&[0.7, 0.5, 0.6], &[0.0, -0.2, 0.1]], &[0.0, 0.3])
        .build();
    let problem = MonotonicityProblem {
        plan: net.to_plan(),
        center: vec![0.5, 0.5, 0.5],
        eps: 0.1,
        feature: 0,
        tau: 0.2,
        output_weights: vec![1.0, -1.0],
        increasing: true,
    };
    let (res, cert) = verify_monotonicity_with_hooks(
        &problem,
        Method::Raven,
        &RavenConfig::default(),
        &RunHooks::default(),
        true,
    )
    .unwrap();
    assert!(res.verified);
    let cert = cert.expect("monotonicity raven run must emit a certificate");
    assert_eq!(cert.kind, "monotonicity");
    let report = check_certificate(&cert).expect("replay must accept");
    // Sigmoid relaxations are not replayable in exact arithmetic; the
    // checker must count them as trusted rather than rejecting.
    assert!(report.neurons_trusted > 0);
    assert!(report.lp_checked);
}

#[test]
fn tampered_certificate_json_is_rejected() {
    let problem = uap_problem(0.08);
    let (_, cert) = verify_uap_with_hooks(
        &problem,
        Method::Raven,
        &RavenConfig::default(),
        &RunHooks::default(),
        true,
    )
    .unwrap();
    let cert = cert.unwrap();
    // Tamper at the JSON level, the way an untrusted server would.
    let json = cert.to_json().to_string();
    let mut parsed = Json::parse(&json).unwrap();
    tamper_first_slope(&mut parsed);
    let tampered = raven_check::Certificate::from_json(&parsed).expect("still well-formed");
    match check_certificate(&tampered) {
        Err(CheckError::Reject(_)) => {}
        other => panic!("tampered certificate must be rejected, got {other:?}"),
    }
}

/// Pokes the first replayable neuron's upper intercept down, making the
/// upper line dip below the true function.
fn tamper_first_slope(json: &mut Json) {
    let Json::Obj(pairs) = json else {
        panic!("certificate must be an object")
    };
    for (key, value) in pairs.iter_mut() {
        if key == "analysis" {
            let Json::Obj(apairs) = value else { continue };
            for (akey, avalue) in apairs.iter_mut() {
                if akey == "neurons" {
                    let Json::Arr(neurons) = avalue else { continue };
                    let Json::Obj(npairs) = &mut neurons[0] else {
                        continue;
                    };
                    for (nkey, nvalue) in npairs.iter_mut() {
                        if nkey == "ui" {
                            if let Json::Num(v) = nvalue {
                                *v -= 1e-3;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Proptest-style sweep: random box-constrained LPs are solved certified
/// and every emitted certificate replays exactly; overstating the claimed
/// bound is always caught.
#[test]
fn random_lps_round_trip_through_the_checker() {
    let mut rng = Rng::new(0xCE27_1F1C);
    const CASES: usize = 40;
    let mut certified = 0;
    for case in 0..CASES {
        let mut unif = {
            let mut r = Rng::new(0x9E37 ^ (case as u64).wrapping_mul(0x2545_F491));
            move |lo: f64, hi: f64| lo + (hi - lo) * r.uniform()
        };
        let n = 2 + (rng.next_u64() % 4) as usize;
        let m = 1 + (rng.next_u64() % 4) as usize;
        let mut p = LpProblem::new();
        let vars: Vec<_> = (0..n)
            .map(|_| {
                let lo = unif(-3.0, 0.0);
                let hi = unif(0.0, 3.0);
                p.add_var(lo, hi)
            })
            .collect();
        for _ in 0..m {
            let mut row = LinExpr::new();
            for &v in &vars {
                let c = unif(-2.0, 2.0);
                if c.abs() > 0.2 {
                    row.push(c, v);
                }
            }
            let sense = match rng.next_u64() % 3 {
                0 => Sense::Le,
                1 => Sense::Ge,
                _ => Sense::Eq,
            };
            p.add_constraint(row, sense, unif(-2.0, 2.0));
        }
        let mut obj = LinExpr::new();
        for &v in &vars {
            obj.push(unif(-1.0, 1.0), v);
        }
        let dir = if rng.next_u64().is_multiple_of(2) {
            Direction::Maximize
        } else {
            Direction::Minimize
        };
        p.set_objective(dir, obj);
        let Ok(sol) = p.solve() else {
            continue; // numerical failure: no certificate claimed, fine
        };
        let Some(lp_cert) = p.certificate(&sol) else {
            continue;
        };
        certified += 1;
        let wrapped = raven_check::Certificate {
            kind: "lp-sweep".to_string(),
            tier: "lp".to_string(),
            degraded: false,
            lp: Some(lp_cert.clone()),
            analysis: None,
        };
        check_certificate(&wrapped)
            .unwrap_or_else(|e| panic!("case {case}: honest certificate rejected: {e}"));
        // A strictly stronger claimed bound than the solver proved must
        // fail: smaller for a maximization bound, larger for minimization.
        if sol.is_optimal() {
            let mut evil = lp_cert;
            evil.claimed_bound += match evil.problem.direction {
                raven_check::CertDirection::Maximize => -0.5,
                raven_check::CertDirection::Minimize => 0.5,
            };
            let wrapped = raven_check::Certificate {
                kind: "lp-sweep".to_string(),
                tier: "lp".to_string(),
                degraded: false,
                lp: Some(evil),
                analysis: None,
            };
            assert!(
                check_certificate(&wrapped).is_err(),
                "case {case}: inflated bound accepted"
            );
        }
    }
    assert!(
        certified >= CASES / 2,
        "too few cases certified: {certified}"
    );
}
