//! The parallel execution layer's contract: for every method and every
//! fan-out point, `threads: N` must be *bit-identical* to `threads: 1`.
//! Work items are pure and results are collected in input order, so the
//! schedule cannot influence any certified number — these tests pin that
//! down on the committed golden model.

use raven::{
    relational::{solve, OutputQuery, RelationalProblem},
    sweep::uap_sweep,
    verify_targeted_uap_all, verify_uap, Method, RavenConfig, UapProblem, UapResult,
};
use raven_interval::Interval;
use std::path::Path;

fn golden_problem(eps: f64) -> UapProblem {
    let net = raven_nn::load_network(Path::new("models/demo.net")).expect("golden model loads");
    let text = std::fs::read_to_string("models/demo_batch.txt").expect("golden batch loads");
    let mut inputs = Vec::new();
    let mut labels = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        labels.push(parts.next().unwrap().parse::<usize>().unwrap());
        inputs.push(
            parts
                .map(|v| v.parse::<f64>().unwrap())
                .collect::<Vec<f64>>(),
        );
    }
    assert!(inputs.len() >= 3, "golden batch too small");
    UapProblem {
        plan: net.to_plan(),
        inputs,
        labels,
        eps,
    }
}

fn config(threads: usize) -> RavenConfig {
    RavenConfig {
        threads,
        ..RavenConfig::default()
    }
}

/// Bitwise equality on everything except the wall-clock field.
fn assert_bit_identical(seq: &UapResult, par: &UapResult, context: &str) {
    assert_eq!(seq.method, par.method, "{context}: method");
    assert_eq!(
        seq.worst_case_accuracy.to_bits(),
        par.worst_case_accuracy.to_bits(),
        "{context}: accuracy {} vs {}",
        seq.worst_case_accuracy,
        par.worst_case_accuracy
    );
    assert_eq!(
        seq.worst_case_hamming.to_bits(),
        par.worst_case_hamming.to_bits(),
        "{context}: hamming"
    );
    assert_eq!(
        seq.individually_verified, par.individually_verified,
        "{context}: individually verified"
    );
    assert_eq!(seq.lp_rows, par.lp_rows, "{context}: lp rows");
    assert_eq!(seq.lp_vars, par.lp_vars, "{context}: lp vars");
    assert_eq!(seq.exact, par.exact, "{context}: exact flag");
    match (&seq.counterexample_delta, &par.counterexample_delta) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.len(), b.len(), "{context}: witness length");
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "{context}: witness coordinate");
            }
        }
        _ => panic!("{context}: witness presence differs"),
    }
}

#[test]
fn all_methods_bit_identical_across_thread_counts_on_golden_model() {
    // eps is kept small so the Raven MILP cells stay cheap in debug builds;
    // the schedule-independence being tested does not depend on the radius.
    for eps in [0.01, 0.02] {
        let problem = golden_problem(eps);
        for method in Method::all() {
            let seq = verify_uap(&problem, method, &config(1));
            let par = verify_uap(&problem, method, &config(4));
            assert_bit_identical(&seq, &par, &format!("uap {method} eps {eps}"));
        }
    }
}

#[test]
fn targeted_uap_bit_identical_across_thread_counts() {
    let base = golden_problem(0.02);
    for target in 0..2 {
        for method in [Method::DeepPolyIndividual, Method::Raven] {
            let seq = &verify_targeted_uap_all(&base, &[target], method, &config(1))[0];
            let par = &verify_targeted_uap_all(&base, &[target], method, &config(4))[0];
            assert_eq!(
                seq.max_forced.to_bits(),
                par.max_forced.to_bits(),
                "targeted {method} target {target}: {} vs {}",
                seq.max_forced,
                par.max_forced
            );
            assert_eq!(
                seq.exact, par.exact,
                "targeted {method} target {target}: exact"
            );
        }
    }
}

#[test]
fn sweep_bit_identical_across_thread_counts_including_dead_skip() {
    // The grid reaches eps values large enough to kill the weak methods, so
    // the dead-method fast path is exercised on both sides. Raven is left
    // out: its sweep cells go through the same verify_uap covered above,
    // and its MILP at the big radius is too slow for a debug-build test.
    let eps_values = [0.01, 0.05, 0.3];
    let methods = [
        Method::Box,
        Method::ZonotopeIndividual,
        Method::DeepPolyIndividual,
        Method::IoLp,
    ];
    let run = |threads: usize| uap_sweep(golden_problem, &eps_values, &methods, &config(threads));
    let seq = run(1);
    let par = run(4);
    assert_eq!(seq.methods, par.methods);
    assert_eq!(seq.points.len(), par.points.len());
    for (ps, pp) in seq.points.iter().zip(&par.points) {
        assert_eq!(ps.eps.to_bits(), pp.eps.to_bits());
        for (rs, rp) in ps.results.iter().zip(&pp.results) {
            assert_bit_identical(rs, rp, &format!("sweep eps {} {}", ps.eps, rs.method));
        }
    }
    // Sanity: the big radius actually killed at least one method, so the
    // dead-skip path ran rather than being vacuously equal.
    assert!(seq
        .points
        .last()
        .unwrap()
        .results
        .iter()
        .any(|r| r.worst_case_accuracy == 0.0));
}

#[test]
fn metrics_never_change_verdict_bytes() {
    // Telemetry is observe-only: flipping the process-wide metrics switch
    // must not change a single byte of the canonical verdict JSON, at any
    // thread count. (The other tests in this file run with whatever state
    // the switch is in — also fine, for the same reason.)
    let problem = golden_problem(0.02);
    let verdict = |threads: usize| {
        let res = verify_uap(&problem, Method::Raven, &config(threads));
        raven::report::uap_verdict_json(problem.k(), problem.eps, &res).to_string()
    };
    raven_obs::set_enabled(false);
    let off_seq = verdict(1);
    let off_par = verdict(4);
    raven_obs::set_enabled(true);
    let on_seq = verdict(1);
    let on_par = verdict(4);
    raven_obs::set_enabled(false);
    assert_eq!(off_seq, on_seq, "enabling metrics changed verdict bytes");
    assert_eq!(off_seq, off_par, "metrics off: thread count changed bytes");
    assert_eq!(on_seq, on_par, "metrics on: thread count changed bytes");
}

#[test]
fn relational_solve_bit_identical_across_thread_counts() {
    let problem = golden_problem(0.02);
    let mut rel = RelationalProblem::new(
        problem.plan.clone(),
        vec![Interval::symmetric(problem.eps); problem.plan.input_dim()],
    );
    let a = rel.add_perturbed_execution(&problem.inputs[0]);
    let b = rel.add_perturbed_execution(&problem.inputs[1]);
    let query = OutputQuery::output_difference(a, b, 0);
    for direction in [raven_lp::Direction::Minimize, raven_lp::Direction::Maximize] {
        let seq = solve(&rel, &query, direction, &config(1)).expect("solves sequentially");
        let par = solve(&rel, &query, direction, &config(4)).expect("solves in parallel");
        assert_eq!(
            seq.value.to_bits(),
            par.value.to_bits(),
            "relational {direction:?}: {} vs {}",
            seq.value,
            par.value
        );
        assert_eq!(seq.lp_rows, par.lp_rows);
        assert_eq!(seq.lp_vars, par.lp_vars);
    }
}
