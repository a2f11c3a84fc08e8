//! Golden hashes of verdicts and certificates.
//!
//! Every public verifier is pinned here, bit for bit, on small fixed
//! networks: the canonical verdict JSON of each UAP method at an ε where
//! every method settles at the analysis tier and at one where the relational
//! methods solve the spec MILP, RaVeN's analysis-tier verdicts on a sigmoid
//! and a leaky-ReLU network, the ℓ1-budgeted UAP verifier at both tiers,
//! monotonicity, the targeted UAP bounds, and the certificate JSON of
//! certified runs, one per proof shape (LP dual bound, branch-and-bound
//! tree, node-capped tree). Each case hashes its bytes with FNV-1a 64 (the
//! scheme of `tests/encode_golden.rs`); JSON numbers print in their
//! shortest round-trip form, so a hash moves exactly when a verdict bit
//! does.
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
/// ε at which RaVeN's spec MILP branches at the root (its relaxation is
/// fractional there), so a one-node cap leaves open nodes behind.
const BRANCHING_EPS: f64 = 0.2;

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/verdicts.txt")
}

/// Two ReLU layers of width 8 over a 6-dimensional input, 3 logits.
fn net() -> Network {
    act_net(ActKind::Relu, 11)
}

/// Two `kind` layers of width 8 over a 6-dimensional input, 3 logits.
fn act_net(kind: ActKind, seed: u64) -> Network {
    NetworkBuilder::new(6)
        .dense(8, seed)
        .activation(kind)
        .dense(8, seed + 1)
        .activation(kind)
        .dense(3, seed + 2)
        .build()
}

/// The non-ReLU networks whose analysis-tier RaVeN verdicts are pinned.
fn smooth_nets() -> [(ActKind, Network); 2] {
    [
        (ActKind::Sigmoid, act_net(ActKind::Sigmoid, 21)),
        (ActKind::LeakyRelu, act_net(ActKind::LeakyRelu, 31)),
    ]
}

/// ℓ1 budget of the pinned analysis-tier ℓ1 case.
const ANALYSIS_L1_BUDGET: f64 = 0.02;

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
    // Analysis-tier RaVeN verdicts beyond the ReLU network: every
    // execution verified individually, so no spec MILP is built, yet the
    // verdict still reports the relational LP's size.
    for (kind, smooth) in smooth_nets() {
        let problem = uap_problem(&smooth, ANALYSIS_EPS);
        let res = verify_uap(&problem, Method::Raven, &config);
        out.push((
            format!("uap/raven/{kind}/eps={ANALYSIS_EPS}"),
            format!(
                "tier={} {}",
                res.tier.name(),
                hash(&uap_verdict_json(problem.k(), ANALYSIS_EPS, &res).to_string())
            ),
        ));
    }
    let low = uap_problem(&net, ANALYSIS_EPS);
    let res = verify_uap_l1(&low, ANALYSIS_L1_BUDGET, Method::Raven, &config);
    out.push((
        format!("uap_l1/raven/eps={ANALYSIS_EPS}/budget={ANALYSIS_L1_BUDGET}"),
        format!(
            "tier={} {}",
            res.tier.name(),
            hash(&uap_verdict_json(low.k(), ANALYSIS_EPS, &res).to_string())
        ),
    ));
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
    // One certificate per proof shape the spec ladder can hand over: the
    // LP tier's dual bound, the I/O formulation's branch-and-bound tree,
    // and a node-capped tree whose open nodes are proved by their
    // parent's duals.
    for (name, method, eps, config) in certificate_cases() {
        let problem = uap_problem(&net, eps);
        let (res, cert) = verify_uap_with_hooks(&problem, method, &config, &hooks, true)
            .expect("default hooks never cancel");
        let cert = cert.unwrap_or_else(|| panic!("{name} certifies"));
        out.push((
            format!("certificate/{name}"),
            format!(
                "tier={} degraded={} {}",
                res.tier.name(),
                res.degraded,
                hash(&cert.to_json().to_string())
            ),
        ));
    }
    out
}

/// The certified UAP runs beyond the default RaVeN one, as `(name, method,
/// eps, config)`.
fn certificate_cases() -> [(&'static str, Method, f64, RavenConfig); 3] {
    let lp_tier = RavenConfig {
        spec_milp: false,
        ..RavenConfig::default()
    };
    let mut node_capped = RavenConfig::default();
    node_capped.milp.max_nodes = 1;
    [
        ("uap/raven/lp", Method::Raven, MILP_EPS, lp_tier),
        ("uap/io-lp", Method::IoLp, MILP_EPS, RavenConfig::default()),
        (
            "uap/raven/eps=0.2/max_nodes=1",
            Method::Raven,
            BRANCHING_EPS,
            node_capped,
        ),
    ]
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
    // The certificate cases reach the tier their proof shape needs; the
    // node cap leaves the search open, so that verdict is degraded.
    for (name, method, eps, config) in certificate_cases() {
        let res = verify_uap(&uap_problem(&net, eps), method, &config);
        let (tier, degraded) = match name {
            "uap/raven/lp" => (Tier::Lp, false),
            "uap/io-lp" => (Tier::Milp, false),
            _ => (Tier::Milp, true),
        };
        assert_eq!((res.tier, res.degraded), (tier, degraded), "{name}");
    }
    // The non-ReLU and ℓ1 analysis cases must verify every execution
    // individually and still report a relational LP.
    let mut analysis_cases: Vec<(String, raven::UapResult, usize)> = smooth_nets()
        .into_iter()
        .map(|(kind, smooth)| {
            let problem = uap_problem(&smooth, ANALYSIS_EPS);
            let res = verify_uap(&problem, Method::Raven, &config);
            (kind.to_string(), res, problem.k())
        })
        .collect();
    let low = uap_problem(&net, ANALYSIS_EPS);
    let res = verify_uap_l1(&low, ANALYSIS_L1_BUDGET, Method::Raven, &config);
    analysis_cases.push(("l1".to_string(), res, low.k()));
    for (name, res, k) in analysis_cases {
        assert_eq!(res.tier, Tier::Analysis, "{name}");
        assert_eq!(res.individually_verified, k, "{name}");
        assert!(res.lp_rows > 0 && res.lp_vars > 0, "{name}");
    }
}
