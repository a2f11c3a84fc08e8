//! Non-relational margin certification: the Box and DeepPoly baselines.
//!
//! A classification `label` is certified robust on an input region when
//! every margin `out[label] − out[c]` (`c ≠ label`) has a positive lower
//! bound. Computing the margin *inside* the abstract domain (as an extra
//! affine row that the domain propagates) is strictly tighter than
//! subtracting the two output intervals — this is the standard DeepPoly
//! margin construction, and what the paper's non-relational baseline does.

use raven_deeppoly::{DeepPolyAnalysis, InputBounds};
use raven_interval::{Interval, IntervalAnalysis};
use raven_nn::{AnalysisPlan, PlanStep};
use raven_tensor::Matrix;
use raven_zonotope::ZonotopeAnalysis;

/// The margins `out[label] − out[c]` for all `c ≠ label`, in class order,
/// as one affine map of the output (zero bias).
///
/// # Panics
///
/// Panics when `label >= out_dim`.
fn margin_weight(out_dim: usize, label: usize) -> Matrix {
    assert!(label < out_dim, "label out of range");
    let mut w = Matrix::zeros(out_dim - 1, out_dim);
    for (row, c) in (0..out_dim).filter(|&c| c != label).enumerate() {
        w.set(row, label, 1.0);
        w.set(row, c, -1.0);
    }
    w
}

/// Extends `plan` with a final affine step computing the margins
/// `out[label] − out[c]` for all `c ≠ label`, in class order: the margin
/// rows of the domains that cannot bound an output map over a finished
/// analysis (Box and zonotope).
///
/// # Panics
///
/// Panics when `label >= plan.output_dim()`.
pub fn margin_plan(plan: &AnalysisPlan, label: usize) -> AnalysisPlan {
    let out_dim = plan.output_dim();
    let mut steps = plan.steps().to_vec();
    steps.push(PlanStep::Affine {
        weight: margin_weight(out_dim, label),
        bias: vec![0.0; out_dim - 1],
    });
    AnalysisPlan::from_parts(plan.input_dim(), steps)
}

/// The margins `out[label] − out[c]` (`c ≠ label`) bounded over a finished
/// DeepPoly analysis of `plan`: their symbolic bounds over the input
/// variables and their concrete bounds over the analyzed box. Bit for bit
/// what DeepPoly computes on [`margin_plan`], without a second pass.
///
/// # Panics
///
/// Panics when `label >= plan.output_dim()` or the analysis was produced
/// from a different plan.
pub(crate) fn margin_bounds(
    analysis: &DeepPolyAnalysis,
    plan: &AnalysisPlan,
    label: usize,
) -> (InputBounds, Vec<Interval>) {
    let out_dim = plan.output_dim();
    analysis.bound_output_map(
        plan,
        &margin_weight(out_dim, label),
        &vec![0.0; out_dim - 1],
    )
}

/// Lower bounds on the margins `out[label] − out[c]` (`c ≠ label`) over a
/// finished DeepPoly analysis of `plan`.
pub(crate) fn analysis_margins(
    analysis: &DeepPolyAnalysis,
    plan: &AnalysisPlan,
    label: usize,
) -> Vec<f64> {
    let (_, margins) = margin_bounds(analysis, plan, label);
    margins.iter().map(Interval::lo).collect()
}

/// Lower bounds on all margins `out[label] − out[c]` (`c ≠ label`) over the
/// input box, computed with DeepPoly: one pass over `plan`, then one more
/// back-substitution for the margin rows.
pub fn deeppoly_margins(plan: &AnalysisPlan, input: &[Interval], label: usize) -> Vec<f64> {
    analysis_margins(&DeepPolyAnalysis::run(plan, input), plan, label)
}

/// Lower bounds on all margins, computed with the interval (Box) domain.
pub fn box_margins(plan: &AnalysisPlan, input: &[Interval], label: usize) -> Vec<f64> {
    let extended = margin_plan(plan, label);
    let analysis = IntervalAnalysis::run(&extended, input);
    analysis.output().iter().map(Interval::lo).collect()
}

/// Lower bounds on all margins, computed with the zonotope (DeepZ) domain,
/// intersected with the Box margins so that the zonotope baseline dominates
/// the interval baseline by construction (the DeepZ activation relaxation
/// alone can be pointwise looser than exact interval propagation).
pub fn zonotope_margins(plan: &AnalysisPlan, input: &[Interval], label: usize) -> Vec<f64> {
    let extended = margin_plan(plan, label);
    let analysis = ZonotopeAnalysis::run(&extended, input);
    let boxed = box_margins(plan, input, label);
    analysis
        .output()
        .iter()
        .zip(boxed)
        .map(|(iv, b)| iv.lo().max(b))
        .collect()
}

/// Whether all margins are strictly positive (robustness certified).
pub fn all_positive(margins: &[f64]) -> bool {
    margins.iter().all(|&m| m > 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_interval::linf_ball;
    use raven_nn::{ActKind, NetworkBuilder};

    #[test]
    fn margin_plan_computes_differences_exactly_on_points() {
        let net = NetworkBuilder::new(3)
            .dense(4, 1)
            .activation(ActKind::Relu)
            .dense(3, 2)
            .build();
        let plan = net.to_plan();
        let x = [0.2, 0.5, 0.8];
        let y = net.forward(&x);
        let extended = margin_plan(&plan, 1);
        let m = extended.forward(&x);
        assert_eq!(m.len(), 2);
        assert!((m[0] - (y[1] - y[0])).abs() < 1e-12);
        assert!((m[1] - (y[1] - y[2])).abs() < 1e-12);
    }

    #[test]
    fn deeppoly_margins_tighter_than_box() {
        let net = NetworkBuilder::new(4)
            .dense(8, 5)
            .activation(ActKind::Relu)
            .dense(6, 6)
            .activation(ActKind::Relu)
            .dense(3, 7)
            .build();
        let plan = net.to_plan();
        let ball = linf_ball(&[0.5; 4], 0.03, 0.0, 1.0);
        let dp = deeppoly_margins(&plan, &ball, 0);
        let bx = box_margins(&plan, &ball, 0);
        for (d, b) in dp.iter().zip(&bx) {
            assert!(d >= &(b - 1e-9), "deeppoly margin looser than box");
        }
        assert!(
            dp.iter().zip(&bx).any(|(d, b)| d > &(b + 1e-9)),
            "deeppoly should strictly improve some margin"
        );
    }

    #[test]
    fn margins_sound_vs_sampled_points() {
        let net = NetworkBuilder::new(3)
            .dense(6, 9)
            .activation(ActKind::Tanh)
            .dense(3, 10)
            .build();
        let plan = net.to_plan();
        let center = [0.4, 0.5, 0.6];
        let eps = 0.05;
        let ball = linf_ball(&center, eps, 0.0, 1.0);
        let margins = deeppoly_margins(&plan, &ball, 2);
        for s in 0..30 {
            let x: Vec<f64> = center
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    let t = (((s * 13 + i * 7) % 19) as f64 / 18.0) * 2.0 - 1.0;
                    (c + eps * t).clamp(0.0, 1.0)
                })
                .collect();
            let y = net.forward(&x);
            let mut idx = 0;
            for c in 0..3 {
                if c == 2 {
                    continue;
                }
                assert!(
                    margins[idx] <= y[2] - y[c] + 1e-9,
                    "margin bound {} exceeds concrete {}",
                    margins[idx],
                    y[2] - y[c]
                );
                idx += 1;
            }
        }
    }

    #[test]
    fn zonotope_margins_dominate_box_and_are_sound() {
        let net = NetworkBuilder::new(3)
            .dense(6, 14)
            .activation(ActKind::Relu)
            .dense(3, 15)
            .build();
        let plan = net.to_plan();
        let center = [0.45, 0.55, 0.5];
        let eps = 0.04;
        let ball = linf_ball(&center, eps, 0.0, 1.0);
        let zm = zonotope_margins(&plan, &ball, 0);
        let bm = box_margins(&plan, &ball, 0);
        for (z, b) in zm.iter().zip(&bm) {
            assert!(z >= &(b - 1e-9), "zonotope margin looser than box");
        }
        // Soundness against sampled points.
        for s in 0..25 {
            let x: Vec<f64> = center
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    (c + eps * ((((s * 7 + i * 3) % 9) as f64 / 4.0) - 1.0)).clamp(0.0, 1.0)
                })
                .collect();
            let y = net.forward(&x);
            let mut idx = 0;
            for c in 0..3 {
                if c == 0 {
                    continue;
                }
                assert!(zm[idx] <= y[0] - y[c] + 1e-9);
                idx += 1;
            }
        }
    }

    #[test]
    fn all_positive_detects_nonpositive() {
        assert!(all_positive(&[0.1, 0.2]));
        assert!(!all_positive(&[0.1, 0.0]));
        assert!(!all_positive(&[-0.1]));
        assert!(all_positive(&[]));
    }
}
