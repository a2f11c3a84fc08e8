//! Table experiments T1–T5 (see `DESIGN.md` for the experiment index).

use crate::models::{
    conv_model, credit_dataset, credit_model, fc_model, uap_batches, BenchModel, Training, FC_SIZES,
};
use crate::report::{ms, pct, Table};
use raven::{
    verify_monotonicity, verify_uap, Method, MonotonicityProblem, RavenConfig, UapProblem,
};

/// How much of the sweep to run: `Quick` keeps the harness under a minute
/// for smoke tests; `Full` reproduces the recorded tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Small sweep (fc-small, fewer ε values, one batch).
    Quick,
    /// The full recorded sweep.
    Full,
}

impl Scope {
    fn fc_sizes(self) -> &'static [&'static str] {
        match self {
            Scope::Quick => &FC_SIZES[..1],
            Scope::Full => &FC_SIZES,
        }
    }

    fn eps_values(self) -> &'static [f64] {
        match self {
            Scope::Quick => &[0.06, 0.1],
            Scope::Full => &[0.06, 0.09, 0.11],
        }
    }

    fn batches(self) -> usize {
        match self {
            Scope::Quick => 1,
            Scope::Full => 2,
        }
    }
}

/// Averaged verification outcome for one (model, ε, method) cell.
struct Cell {
    accuracy: f64,
    millis: f64,
}

fn uap_cell(
    model: &BenchModel,
    eps: f64,
    k: usize,
    batches: usize,
    method: Method,
    threads: usize,
) -> Cell {
    let config = RavenConfig {
        threads,
        ..RavenConfig::default()
    };
    let plan = model.net.to_plan();
    let mut acc = 0.0;
    let mut millis = 0.0;
    let groups = uap_batches(model, k, batches);
    assert!(!groups.is_empty(), "no correctly classified batches");
    for (inputs, labels) in &groups {
        let problem = UapProblem {
            plan: plan.clone(),
            inputs: inputs.clone(),
            labels: labels.clone(),
            eps,
        };
        let res = verify_uap(&problem, method, &config);
        acc += res.worst_case_accuracy;
        millis += res.solve_millis;
    }
    Cell {
        accuracy: acc / groups.len() as f64,
        millis: millis / groups.len() as f64,
    }
}

/// T1: worst-case UAP accuracy on the fully-connected grid.
///
/// Each (network, training) block trains its own model and is independent
/// of the others, as is every (ε, method) cell inside a block — both levels
/// fan out across `threads` workers, with rows assembled in the fixed grid
/// order so the table is identical for any thread count.
pub fn t1(scope: Scope, threads: usize) -> Table {
    let mut table = Table::new(
        "T1: certified worst-case UAP accuracy (%), FC networks, k=3",
        &[
            "net", "train", "eps", "box", "zono", "deeppoly", "io-lp", "raven", "raven ms",
        ],
    );
    let mut combos: Vec<(&str, Training)> = Vec::new();
    for &size in scope.fc_sizes() {
        for training in [Training::Standard, Training::Pgd] {
            combos.push((size, training));
        }
    }
    let blocks: Vec<Vec<Vec<String>>> = raven::par::map(threads, &combos, |&(size, training)| {
        let model = fc_model(size, training);
        scope
            .eps_values()
            .iter()
            .map(|&eps| {
                let cells: Vec<Cell> = raven::par::map(threads, &Method::all(), |&m| {
                    uap_cell(&model, eps, 3, scope.batches(), m, threads)
                });
                vec![
                    size.to_string(),
                    training.name().to_string(),
                    format!("{eps}"),
                    pct(cells[0].accuracy),
                    pct(cells[1].accuracy),
                    pct(cells[2].accuracy),
                    pct(cells[3].accuracy),
                    pct(cells[4].accuracy),
                    ms(cells[4].millis),
                ]
            })
            .collect()
    });
    for block in blocks {
        for row in block {
            table.push_row(row);
        }
    }
    table
}

/// T2: worst-case UAP accuracy on the convolutional network.
pub fn t2(scope: Scope, threads: usize) -> Table {
    let mut table = Table::new(
        "T2: certified worst-case UAP accuracy (%), conv network, k=3",
        &[
            "net", "train", "eps", "box", "zono", "deeppoly", "io-lp", "raven", "raven ms",
        ],
    );
    let trainings = [Training::Standard, Training::Pgd];
    let blocks: Vec<Vec<Vec<String>>> = raven::par::map(threads, &trainings, |&training| {
        let model = conv_model(training);
        scope
            .eps_values()
            .iter()
            .map(|&eps| {
                let cells: Vec<Cell> = raven::par::map(threads, &Method::all(), |&m| {
                    uap_cell(&model, eps, 3, scope.batches(), m, threads)
                });
                vec![
                    "conv-small".to_string(),
                    training.name().to_string(),
                    format!("{eps}"),
                    pct(cells[0].accuracy),
                    pct(cells[1].accuracy),
                    pct(cells[2].accuracy),
                    pct(cells[3].accuracy),
                    pct(cells[4].accuracy),
                    ms(cells[4].millis),
                ]
            })
            .collect()
    });
    for block in blocks {
        for row in block {
            table.push_row(row);
        }
    }
    table
}

/// T3: certified worst-case hamming distance of predicted label strings.
pub fn t3(scope: Scope, threads: usize) -> Table {
    let k = 4;
    let mut table = Table::new(
        format!(
            "T3: certified worst-case hamming distance (lower is tighter), \
             fc-small, string length k={k}"
        ),
        &["train", "eps", "box", "zono", "deeppoly", "io-lp", "raven"],
    );
    let config = RavenConfig {
        threads,
        ..RavenConfig::default()
    };
    for training in [Training::Standard, Training::Pgd] {
        let model = fc_model("fc-small", training);
        for &eps in scope.eps_values() {
            let plan = model.net.to_plan();
            let groups = uap_batches(&model, k, scope.batches());
            let mut row = vec![training.name().to_string(), format!("{eps}")];
            // One independent column per method.
            let hams: Vec<f64> = raven::par::map(threads, &Method::all(), |&method| {
                let mut hamming = 0.0;
                for (inputs, labels) in &groups {
                    let problem = UapProblem {
                        plan: plan.clone(),
                        inputs: inputs.clone(),
                        labels: labels.clone(),
                        eps,
                    };
                    hamming += verify_uap(&problem, method, &config).worst_case_hamming;
                }
                hamming / groups.len() as f64
            });
            for h in hams {
                row.push(format!("{h:.2}"));
            }
            table.push_row(row);
        }
    }
    table
}

/// T4: monotonicity certification rate on the tabular model.
pub fn t4(scope: Scope, threads: usize) -> Table {
    let model = credit_model();
    let (_, spec) = credit_dataset();
    let num_inputs = match scope {
        Scope::Quick => 4,
        Scope::Full => 10,
    };
    let mut table = Table::new(
        "T4: monotonicity certified (% of inputs), credit-sigmoid",
        &[
            "feature", "dir", "tau", "box", "zono", "deeppoly", "io-lp", "raven",
        ],
    );
    let taus: &[f64] = match scope {
        Scope::Quick => &[0.05],
        Scope::Full => &[0.05, 0.1],
    };
    let plan = model.net.to_plan();
    let features: Vec<(usize, bool)> = spec
        .increasing
        .iter()
        .map(|&f| (f, true))
        .chain(spec.decreasing.iter().map(|&f| (f, false)))
        .collect();
    for (feature, increasing) in features {
        for &tau in taus {
            let mut row = vec![
                format!("x{feature}"),
                if increasing { "inc" } else { "dec" }.to_string(),
                format!("{tau}"),
            ];
            let rates: Vec<f64> = raven::par::map(threads, &Method::all(), |&method| {
                let mut certified = 0usize;
                for x in model.test.inputs.iter().take(num_inputs) {
                    let problem = MonotonicityProblem {
                        plan: plan.clone(),
                        center: x.clone(),
                        eps: 0.01,
                        feature,
                        tau,
                        output_weights: vec![-1.0, 1.0],
                        increasing,
                    };
                    if verify_monotonicity(&problem, method, &RavenConfig::default()).verified {
                        certified += 1;
                    }
                }
                certified as f64 / num_inputs as f64
            });
            for rate in rates {
                row.push(pct(rate));
            }
            table.push_row(row);
        }
    }
    table
}

/// T5: average verification time per method.
pub fn t5(scope: Scope, threads: usize) -> Table {
    let mut table = Table::new(
        "T5: average verification time per UAP instance (ms), k=3, eps=0.09",
        &[
            "net",
            "train",
            "box",
            "zono",
            "deeppoly",
            "io-lp",
            "raven",
            "raven rows",
        ],
    );
    let config = RavenConfig {
        threads,
        ..RavenConfig::default()
    };
    for &size in scope.fc_sizes() {
        for training in [Training::Standard, Training::Pgd] {
            let model = fc_model(size, training);
            let plan = model.net.to_plan();
            let groups = uap_batches(&model, 3, scope.batches());
            // `(total millis, max LP rows)` per method, methods in parallel.
            let per_method: Vec<(f64, usize)> = raven::par::map(threads, &Method::all(), |&m| {
                let mut millis = 0.0;
                let mut rows = 0usize;
                for (inputs, labels) in &groups {
                    let problem = UapProblem {
                        plan: plan.clone(),
                        inputs: inputs.clone(),
                        labels: labels.clone(),
                        eps: 0.09,
                    };
                    let res = verify_uap(&problem, m, &config);
                    millis += res.solve_millis;
                    rows = rows.max(res.lp_rows);
                }
                (millis, rows)
            });
            let n = groups.len() as f64;
            table.push_row(vec![
                size.to_string(),
                training.name().to_string(),
                ms(per_method[0].0 / n),
                ms(per_method[1].0 / n),
                ms(per_method[2].0 / n),
                ms(per_method[3].0 / n),
                ms(per_method[4].0 / n),
                per_method[4].1.to_string(),
            ]);
        }
    }
    table
}

/// T6: activation-function generality — the same UAP sweep across all five
/// supported activations on the fc-small architecture.
pub fn t6(scope: Scope, threads: usize) -> Table {
    use raven_nn::ActKind;
    let mut table = Table::new(
        "T6: certified worst-case UAP accuracy (%) by activation, fc-small/std, k=3",
        &[
            "activation",
            "train acc",
            "eps",
            "deeppoly",
            "io-lp",
            "raven",
        ],
    );
    let eps_values: &[f64] = match scope {
        Scope::Quick => &[0.06],
        Scope::Full => &[0.06, 0.1],
    };
    for kind in ActKind::all() {
        let model = crate::models::act_model(kind);
        for &eps in eps_values {
            let methods = [Method::DeepPolyIndividual, Method::IoLp, Method::Raven];
            let cells: Vec<Cell> = raven::par::map(threads, &methods, |&m| {
                uap_cell(&model, eps, 3, 1, m, threads)
            });
            table.push_row(vec![
                kind.to_string(),
                pct(model.train_accuracy),
                format!("{eps}"),
                pct(cells[0].accuracy),
                pct(cells[1].accuracy),
                pct(cells[2].accuracy),
            ]);
        }
    }
    table
}

/// T7: targeted UAP — certified maximum number of executions a shared
/// perturbation can force into a designated class.
pub fn t7(scope: Scope, threads: usize) -> Table {
    use raven::verify_targeted_uap_all;
    let mut table = Table::new(
        "T7: targeted UAP — certified max executions forced to target, fc-small, k=4",
        &["train", "eps", "target", "deeppoly", "raven"],
    );
    let eps_values: &[f64] = match scope {
        Scope::Quick => &[0.1],
        Scope::Full => &[0.08, 0.11],
    };
    let config = RavenConfig {
        threads,
        ..RavenConfig::default()
    };
    for training in [Training::Standard, Training::Pgd] {
        let model = fc_model("fc-small", training);
        let plan = model.net.to_plan();
        let (inputs, labels) = uap_batches(&model, 4, 1).remove(0);
        // Every (ε, counter-label) LP solve is independent — fan them out.
        let mut cases: Vec<(f64, usize)> = Vec::new();
        for &eps in eps_values {
            for target in [0usize, 1] {
                cases.push((eps, target));
            }
        }
        let rows: Vec<Vec<String>> = raven::par::map(threads, &cases, |&(eps, target)| {
            let problem = UapProblem {
                plan: plan.clone(),
                inputs: inputs.clone(),
                labels: labels.clone(),
                eps,
            };
            let forced = |method| {
                verify_targeted_uap_all(&problem, &[target], method, &config)[0].max_forced
            };
            let (dp, rv) = (forced(Method::DeepPolyIndividual), forced(Method::Raven));
            vec![
                training.name().to_string(),
                format!("{eps}"),
                format!("{target}"),
                format!("{dp:.2}"),
                format!("{rv:.2}"),
            ]
        });
        for row in rows {
            table.push_row(row);
        }
    }
    table
}

/// Runs the selected tables, returning them in order.
///
/// # Panics
///
/// Panics on an unknown table id.
pub fn run(ids: &[&str], scope: Scope, threads: usize) -> Vec<Table> {
    ids.iter()
        .map(|&id| match id {
            "t1" => t1(scope, threads),
            "t2" => t2(scope, threads),
            "t3" => t3(scope, threads),
            "t4" => t4(scope, threads),
            "t5" => t5(scope, threads),
            "t6" => t6(scope, threads),
            "t7" => t7(scope, threads),
            other => panic!("unknown table {other:?} (expected t1..t7)"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_t1_shape_holds() {
        let table = t1(Scope::Quick, 1);
        assert!(!table.rows.is_empty());
        for row in &table.rows {
            // Provable chains: box ≤ zonotope, box ≤ deeppoly ≤ io-lp ≤
            // raven (percentages have 1 decimal, so allow 0.1 slack).
            let vals: Vec<f64> = row[3..8].iter().map(|c| c.parse().unwrap()).collect();
            let (bx, zn, dp, io, rv) = (vals[0], vals[1], vals[2], vals[3], vals[4]);
            assert!(bx <= zn + 0.11, "box > zonotope in {row:?}");
            assert!(bx <= dp + 0.11, "box > deeppoly in {row:?}");
            assert!(dp <= io + 0.11, "deeppoly > io-lp in {row:?}");
            assert!(io <= rv + 0.11, "io-lp > raven in {row:?}");
        }
    }
}
