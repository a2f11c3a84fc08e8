//! # raven-check — exact replay of RaVeN proof certificates
//!
//! The solvers in `raven-lp` and the analysis tiers in `raven-deeppoly`
//! run in floating point and are large enough that trusting them is a
//! leap. This crate is the other end of the bargain: a small, std-only,
//! dependency-free (bar `raven-json`) checker that replays a
//! [`Certificate`] in exact arithmetic and either *accepts* — the claimed
//! bound really is implied by the recorded duals, Farkas rays, branching
//! tree, and relaxation lines — or *rejects*.
//!
//! Exactness comes from [`Dyadic`], an arbitrary-precision binary rational
//! `±m·2ᵉ`. Every `f64` is a dyadic, and every operation the replay needs
//! (add, subtract, multiply, compare, floor/ceil) is closed over dyadics,
//! so no rounding ever occurs on the verification path. There are no
//! float comparisons on the accept path; the only tolerances are explicit
//! dyadic slacks documented in [`replay`].
//!
//! What is certified and what stays trusted is laid out in
//! `ARCHITECTURE.md` §10; in short, LP/MILP bounds and piecewise-linear
//! relaxations are replayed exactly, while the encoder, bound
//! back-substitution, and sigmoid/tanh relaxations remain trusted.

pub mod cert;
pub mod dyadic;
pub mod replay;

pub use cert::{
    AnalysisCertificate, AnalysisNeuron, BranchLeaf, CertDirection, CertProblem, CertRow,
    CertSense, Certificate, LeafProof, LpCertificate, LpProof,
};
pub use dyadic::Dyadic;
pub use replay::{check_certificate, CheckError, CheckReport};

/// Parses and replays a certificate straight from its JSON form — the
/// one-call gate behind `raven_check` and `raven-serve`'s certificate
/// spot checks. Parse failures
/// surface as [`CheckError::Malformed`], replay failures as their own
/// [`CheckError`] variants.
///
/// # Errors
///
/// Returns [`CheckError`] when the JSON does not decode as a certificate
/// or the exact replay rejects it.
pub fn check_certificate_json(json: &raven_json::Json) -> Result<CheckReport, CheckError> {
    let cert = Certificate::from_json(json).map_err(CheckError::Malformed)?;
    check_certificate(&cert)
}
