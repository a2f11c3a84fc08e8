//! RaVeN: input-relational verification of deep neural networks.
//!
//! This crate is the top of the reproduction stack: it combines the
//! per-execution DeepPoly domain (`raven-deeppoly`), the paper's novel
//! DiffPoly difference-tracking domain (`raven-diffpoly`), and the LP/MILP
//! solver (`raven-lp`) into verifiers for input-relational property
//! families:
//!
//! * **UAP robustness** ([`verify_uap`]) — worst-case accuracy of `k`
//!   inputs under one shared ℓ∞-bounded perturbation, plus the
//!   complementary worst-case hamming distance of the predicted label
//!   string;
//! * **monotonicity** ([`verify_monotonicity`]) — the network score is
//!   non-decreasing (or non-increasing) in a designated input feature.
//!
//! Every property can be checked with five methods ([`Method`]): interval
//! analysis, per-execution DeepZ and DeepPoly, the I/O-relational LP
//! (shared perturbation, no difference tracking), and the full RaVeN
//! verifier (difference tracking on execution pairs).
//!
//! The verifier surface is six functions: [`verify_uap`],
//! [`verify_uap_with_hooks`] (cancellation, deadlines, tracing and an
//! optional proof certificate), [`verify_uap_l1`] (an added ℓ1 budget on
//! the shared perturbation), [`verify_targeted_uap_all`], and
//! [`verify_monotonicity`] with [`verify_monotonicity_with_hooks`]. Every
//! LP path among them builds its relaxation through one builder in
//! [`relational`]: DeepPoly per execution, DiffPoly per tracked pair, and
//! one LP over both.
//!
//! # Examples
//!
//! ```
//! use raven::{verify_uap, Method, RavenConfig, UapProblem};
//! use raven_nn::{ActKind, NetworkBuilder};
//!
//! let net = NetworkBuilder::new(4)
//!     .dense(6, 1)
//!     .activation(ActKind::Relu)
//!     .dense(3, 2)
//!     .build();
//! let a = vec![0.4, 0.5, 0.6, 0.5];
//! let b = vec![0.6, 0.4, 0.5, 0.5];
//! let problem = UapProblem {
//!     plan: net.to_plan(),
//!     labels: vec![net.classify(&a), net.classify(&b)],
//!     inputs: vec![a, b],
//!     eps: 0.01,
//! };
//! let result = verify_uap(&problem, Method::Raven, &RavenConfig::default());
//! assert!(result.worst_case_accuracy >= 0.0);
//! ```

mod certificate;
mod config;
pub mod encode;
pub mod flags;
pub mod hooks;
pub mod margin;
pub mod metrics;
mod monotonicity;
pub mod par;
pub mod relational;
pub mod report;
pub mod sweep;
pub mod tier;
mod uap;

pub use config::{Method, PairStrategy, RavenConfig};
pub use hooks::{Phase, RunHooks};
pub use monotonicity::{
    verify_monotonicity, verify_monotonicity_with_hooks, MonotonicityProblem, MonotonicityResult,
};
pub use raven_check::Certificate;
pub use relational::{InputCoord, OutputQuery, RelationalBound, RelationalProblem};
pub use tier::{Tier, TierMillis};
pub use uap::{
    replay_uap_delta, verify_targeted_uap_all, verify_uap, verify_uap_l1, verify_uap_with_hooks,
    TargetedUapResult, UapProblem, UapResult,
};
