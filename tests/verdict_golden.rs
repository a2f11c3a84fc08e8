//! Golden hashes of verdicts and certificates.
//!
//! Every public verifier is pinned here, bit for bit, on small fixed
//! networks: the canonical verdict JSON of each UAP method at an ε where
//! every method settles at the analysis tier and at one where the relational
//! methods solve the spec MILP, the ℓ1-budgeted UAP verifier, monotonicity,
//! the targeted UAP bounds, and the certificate JSON of certified RaVeN
//! runs. Each case hashes its bytes with FNV-1a 64 (the scheme of
//! `tests/encode_golden.rs`); JSON numbers print in their shortest
//! round-trip form, so a hash moves exactly when a verdict bit does.
//!
//! A changed hash means a verifier answers differently. Regenerate only
//! after an *intentional* change to a verdict with:
//! `RAVEN_REGEN_GOLDEN=1 cargo test --test verdict_golden`

use raven::report::{mono_verdict_json, uap_verdict_json};
use raven::{
    verify_monotonicity, verify_monotonicity_with_hooks, verify_targeted_uap_all, verify_uap,
    verify_uap_l1, verify_uap_with_hooks, Method, MonotonicityProblem, RavenConfig, RunHooks, Tier,
    UapProblem,
};
use raven_nn::{fnv1a64, ActKind, Network, NetworkBuilder};
use raven_tensor::Rng;
use std::path::{Path, PathBuf};

/// ε at which every method certifies the batch from its individual
/// analyses alone.
const ANALYSIS_EPS: f64 = 0.005;
/// ε at which the relational methods need the spec MILP.
const MILP_EPS: f64 = 0.15;

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/verdicts.txt")
}

/// Two ReLU layers of width 8 over a 6-dimensional input, 3 logits.
fn net() -> Network {
    NetworkBuilder::new(6)
        .dense(8, 11)
        .activation(ActKind::Relu)
        .dense(8, 12)
        .activation(ActKind::Relu)
        .dense(3, 13)
        .build()
}

/// A k = 4 UAP batch labelled by the network itself.
fn uap_problem(net: &Network, eps: f64) -> UapProblem {
    let mut rng = Rng::new(7);
    let inputs: Vec<Vec<f64>> = (0..4)
        .map(|_| (0..6).map(|_| rng.in_range(0.0, 1.0)).collect())
        .collect();
    UapProblem {
        plan: net.to_plan(),
        labels: inputs.iter().map(|z| net.classify(z)).collect(),
        inputs,
        eps,
    }
}

fn mono_problem(net: &Network) -> MonotonicityProblem {
    MonotonicityProblem {
        plan: net.to_plan(),
        center: vec![0.5; 6],
        eps: 0.05,
        feature: 2,
        tau: 0.2,
        output_weights: vec![1.0, 0.0, -1.0],
        increasing: true,
    }
}

fn hash(text: &str) -> String {
    format!("fnv1a64={:016x}", fnv1a64(text.as_bytes()))
}

/// Every pinned case, as `(name, value)`.
fn cases() -> Vec<(String, String)> {
    let net = net();
    let config = RavenConfig::default();
    let mut out = Vec::new();
    for eps in [ANALYSIS_EPS, MILP_EPS] {
        let problem = uap_problem(&net, eps);
        for method in Method::all() {
            let res = verify_uap(&problem, method, &config);
            out.push((
                format!("uap/{}/eps={eps}", method.name()),
                format!(
                    "tier={} {}",
                    res.tier.name(),
                    hash(&uap_verdict_json(problem.k(), eps, &res).to_string())
                ),
            ));
        }
    }
    let problem = uap_problem(&net, MILP_EPS);
    for method in [Method::IoLp, Method::Raven] {
        let res = verify_uap_l1(&problem, 0.2, method, &config);
        out.push((
            format!("uap_l1/{}/budget=0.2", method.name()),
            format!(
                "tier={} {}",
                res.tier.name(),
                hash(&uap_verdict_json(problem.k(), problem.eps, &res).to_string())
            ),
        ));
    }
    let mono = mono_problem(&net);
    for method in [Method::DeepPolyIndividual, Method::IoLp, Method::Raven] {
        let res = verify_monotonicity(&mono, method, &config);
        out.push((
            format!("mono/{}", method.name()),
            format!(
                "tier={} {}",
                res.tier.name(),
                hash(&mono_verdict_json(&mono, &res).to_string())
            ),
        ));
    }
    for method in [Method::DeepPolyIndividual, Method::IoLp, Method::Raven] {
        let results = verify_targeted_uap_all(&problem, &[0, 1, 2], method, &config);
        for (target, res) in results.iter().enumerate() {
            out.push((
                format!("targeted/{}/target={target}", method.name()),
                format!(
                    "max_forced={:016x} exact={}",
                    res.max_forced.to_bits(),
                    res.exact
                ),
            ));
        }
    }
    let hooks = RunHooks::default();
    let (res, cert) = verify_uap_with_hooks(&problem, Method::Raven, &config, &hooks, true)
        .expect("default hooks never cancel");
    let cert = cert.expect("a raven uap run certifies");
    out.push((
        "certificate/uap/raven".to_string(),
        format!(
            "tier={} {}",
            res.tier.name(),
            hash(&cert.to_json().to_string())
        ),
    ));
    let (res, cert) = verify_monotonicity_with_hooks(&mono, Method::Raven, &config, &hooks, true)
        .expect("default hooks never cancel");
    let cert = cert.expect("a raven monotonicity run certifies");
    out.push((
        "certificate/mono/raven".to_string(),
        format!(
            "tier={} {}",
            res.tier.name(),
            hash(&cert.to_json().to_string())
        ),
    ));
    out
}

fn render(cases: &[(String, String)]) -> String {
    cases
        .iter()
        .map(|(name, value)| format!("{name} {value}\n"))
        .collect()
}

#[test]
fn verdicts_match_golden_hashes() {
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
        "verdicts drifted from {} on {drifted:?}; if intentional, regenerate with RAVEN_REGEN_GOLDEN=1",
        path.display()
    );
}

#[test]
fn golden_cases_reach_the_tiers_they_name() {
    // The hashes only pin what the cases reach: the small ε must settle
    // every method at the analysis tier, and the large one must send both
    // relational methods through the spec MILP.
    let net = net();
    let config = RavenConfig::default();
    for method in Method::all() {
        let low = verify_uap(&uap_problem(&net, ANALYSIS_EPS), method, &config);
        assert_eq!(low.tier, Tier::Analysis, "{method} at {ANALYSIS_EPS}");
    }
    for method in [Method::IoLp, Method::Raven] {
        let high = verify_uap(&uap_problem(&net, MILP_EPS), method, &config);
        assert_eq!(high.tier, Tier::Milp, "{method} at {MILP_EPS}");
    }
}
