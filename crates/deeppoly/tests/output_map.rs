//! The identity that lets one DeepPoly pass serve both the margin check
//! and the relational relaxation: bounding an affine map of the output
//! over a finished analysis is bit for bit the analysis of the plan with
//! that map appended, and the appended plan's analysis, cut back by its
//! last step, is bit for bit the analysis of the plain plan.
//!
//! Compared with `f64::to_bits`, so even a sign of zero that moved would
//! fail.

use raven_deeppoly::{DeepPolyAnalysis, Relaxation};
use raven_interval::{linf_ball, Interval};
use raven_nn::{ActKind, AnalysisPlan, NetworkBuilder, PlanStep};
use raven_tensor::{Matrix, Rng};

/// The margins `out[label] − out[c]` for every `c ≠ label`, in class
/// order, as one affine map of the output.
fn margin_map(out_dim: usize, label: usize) -> Matrix {
    let mut w = Matrix::zeros(out_dim - 1, out_dim);
    for (row, c) in (0..out_dim).filter(|&c| c != label).enumerate() {
        w.set(row, label, 1.0);
        w.set(row, c, -1.0);
    }
    w
}

fn appended(plan: &AnalysisPlan, weight: &Matrix, bias: &[f64]) -> AnalysisPlan {
    let mut steps = plan.steps().to_vec();
    steps.push(PlanStep::Affine {
        weight: weight.clone(),
        bias: bias.to_vec(),
    });
    AnalysisPlan::from_parts(plan.input_dim(), steps)
}

fn interval_bits(ivs: &[Interval]) -> Vec<(u64, u64)> {
    ivs.iter()
        .map(|iv| (iv.lo().to_bits(), iv.hi().to_bits()))
        .collect()
}

fn relaxation_bits(rs: &Option<Vec<Relaxation>>) -> Option<Vec<[u64; 4]>> {
    rs.as_ref().map(|rs| {
        rs.iter()
            .map(|r| {
                [
                    r.lower_slope.to_bits(),
                    r.lower_intercept.to_bits(),
                    r.upper_slope.to_bits(),
                    r.upper_intercept.to_bits(),
                ]
            })
            .collect()
    })
}

fn matrix_bits(m: &Matrix) -> Vec<u64> {
    (0..m.rows())
        .flat_map(|i| m.row(i).iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        .collect()
}

fn vec_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Checks both halves of the identity for `(weight, bias)` over `input`.
fn check(plan: &AnalysisPlan, input: &[Interval], weight: &Matrix, bias: &[f64], what: &str) {
    let plain = DeepPolyAnalysis::run(plan, input);
    let extended_plan = appended(plan, weight, bias);
    let extended = DeepPolyAnalysis::run(&extended_plan, input);

    let (sym, concrete) = plain.bound_output_map(plan, weight, bias);
    assert_eq!(
        interval_bits(&concrete),
        interval_bits(extended.output()),
        "{what}: output-map bounds differ from the appended plan's output"
    );
    let last = extended.input_bounds(&extended_plan);
    assert_eq!(
        matrix_bits(&sym.lower_coeffs),
        matrix_bits(&last.lower_coeffs)
    );
    assert_eq!(vec_bits(&sym.lower_const), vec_bits(&last.lower_const));
    assert_eq!(
        matrix_bits(&sym.upper_coeffs),
        matrix_bits(&last.upper_coeffs)
    );
    assert_eq!(vec_bits(&sym.upper_const), vec_bits(&last.upper_const));

    let n = plan.steps().len();
    assert_eq!(extended.bounds.len(), n + 2);
    for (k, (a, b)) in extended.bounds[..=n].iter().zip(&plain.bounds).enumerate() {
        assert_eq!(
            interval_bits(a),
            interval_bits(b),
            "{what}: boundary {k} differs"
        );
    }
    for (k, (a, b)) in extended.relaxations[..n]
        .iter()
        .zip(&plain.relaxations)
        .enumerate()
    {
        assert_eq!(
            relaxation_bits(a),
            relaxation_bits(b),
            "{what}: step {k} relaxations differ"
        );
    }
}

/// Margin maps for every label, plus one seeded dense map with a bias,
/// over a seeded box, a zero-width box and a box straddling the input
/// range.
fn check_plan(plan: &AnalysisPlan, seed: u64, what: &str) {
    let mut rng = Rng::new(seed);
    let center: Vec<f64> = (0..plan.input_dim())
        .map(|_| rng.in_range(0.0, 1.0))
        .collect();
    let point: Vec<Interval> = center.iter().map(|&c| Interval::point(c)).collect();
    let boxes = [
        ("eps 0.05", linf_ball(&center, 0.05, 0.0, 1.0)),
        ("zero width", point),
        (
            "eps 0.4",
            linf_ball(&center, 0.4, f64::NEG_INFINITY, f64::INFINITY),
        ),
    ];
    let out_dim = plan.output_dim();
    let mut dense = Matrix::zeros(2, out_dim);
    for i in 0..2 {
        for j in 0..out_dim {
            dense.set(i, j, rng.in_range(-1.0, 1.0));
        }
    }
    let dense_bias = [rng.in_range(-0.5, 0.5), rng.in_range(-0.5, 0.5)];
    for (name, input) in &boxes {
        for label in 0..out_dim {
            let w = margin_map(out_dim, label);
            let b = vec![0.0; out_dim - 1];
            check(
                plan,
                input,
                &w,
                &b,
                &format!("{what}, {name}, label {label}"),
            );
        }
        check(
            plan,
            input,
            &dense,
            &dense_bias,
            &format!("{what}, {name}, dense"),
        );
    }
}

#[test]
fn output_map_over_one_pass_is_bitwise_the_appended_plan() {
    for (i, kind) in ActKind::all().into_iter().enumerate() {
        let seed = 100 + 10 * i as u64;
        let plan = NetworkBuilder::new(5)
            .dense(12, seed)
            .activation(kind)
            .dense(8, seed + 1)
            .activation(kind)
            .dense(4, seed + 2)
            .build()
            .to_plan();
        check_plan(&plan, seed, &format!("{kind}"));
    }
    let conv = NetworkBuilder::new(2 * 5 * 5)
        .conv(2, 5, 5, 3, 3, 3, 2, 1, 7)
        .activation(ActKind::Relu)
        .dense(6, 8)
        .activation(ActKind::Relu)
        .dense(3, 9)
        .build()
        .to_plan();
    check_plan(&conv, 7, "conv");
}
