//! Certificate assembly for verdicts: collects the replayable evidence a
//! verification run produces — LP/MILP dual proofs from `raven-lp` and
//! per-neuron relaxation records from DeepPoly — into one
//! [`raven_check::Certificate`] the exact checker can replay.
//!
//! Emission is strictly additive: the verdict is computed the same way
//! with or without a sink. The LP evidence is the certificate of the very
//! solve that produced the verdict's bound — the MILP, or the LP
//! relaxation the ladder fell to — so its claimed bound is exactly the
//! bound the verdict reports, before the verdict clamps it. When any piece of evidence is unavailable
//! (an uncertifiable branch-and-bound tree, an unbounded relaxation, a
//! verdict settled at the analysis tier, a method that discards its
//! analyses) the certificate simply omits that section — or is `None`
//! entirely — without affecting the verdict.

use crate::tier::Tier;
use raven_check::{AnalysisCertificate, AnalysisNeuron, Certificate, LpCertificate};
use raven_deeppoly::DeepPolyAnalysis;
use raven_nn::{ActKind, AnalysisPlan};

/// The checker's lowercase name for an activation kind.
fn act_name(kind: ActKind) -> &'static str {
    match kind {
        ActKind::Relu => "relu",
        ActKind::Sigmoid => "sigmoid",
        ActKind::Tanh => "tanh",
        ActKind::LeakyRelu => "leakyrelu",
        ActKind::HardTanh => "hardtanh",
    }
}

/// Accumulates the certifiable evidence of one verification run. Threaded
/// as `Option<&mut CertSink>` through the verifiers; `None` (the default
/// everywhere) keeps certificate work entirely off the hot path.
#[derive(Debug, Default)]
pub struct CertSink {
    pub(crate) lp: Option<LpCertificate>,
    pub(crate) analysis: Option<AnalysisCertificate>,
}

impl CertSink {
    /// Records every activation relaxation the given DeepPoly analyses
    /// used, in the checker's vocabulary. Sigmoid/tanh neurons are included
    /// too — the checker tallies them as trusted rather than replayed.
    pub(crate) fn record_analyses(&mut self, plan: &AnalysisPlan, analyses: &[DeepPolyAnalysis]) {
        let mut neurons = Vec::new();
        for dp in analyses {
            for (kind, lo, hi, r) in dp.relaxation_records(plan) {
                neurons.push(AnalysisNeuron {
                    act: act_name(kind).to_string(),
                    alpha: match kind {
                        ActKind::LeakyRelu => ActKind::LEAKY_SLOPE,
                        _ => 0.0,
                    },
                    lo,
                    hi,
                    lower_slope: r.lower_slope,
                    lower_intercept: r.lower_intercept,
                    upper_slope: r.upper_slope,
                    upper_intercept: r.upper_intercept,
                });
            }
        }
        if !neurons.is_empty() {
            self.analysis = Some(AnalysisCertificate {
                neurons,
                trusted: 0,
            });
        }
    }

    /// Packages the collected evidence, or `None` when the run produced no
    /// certifiable sections at all.
    pub(crate) fn into_certificate(
        self,
        kind: &str,
        tier: Tier,
        degraded: bool,
    ) -> Option<Certificate> {
        if self.lp.is_none() && self.analysis.is_none() {
            return None;
        }
        Some(Certificate {
            kind: kind.to_string(),
            tier: tier.name().to_string(),
            degraded,
            lp: self.lp,
            analysis: self.analysis,
        })
    }
}
