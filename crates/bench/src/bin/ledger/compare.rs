//! `ledger compare PARENT.jsonl CHANGE.jsonl`: judges a change against its
//! parent from runs of both, made alternately with the same seed and
//! seconds (run i of each file forms pair i).
//!
//! For every end-to-end metric on every workload the result is:
//!
//! * **improved** — the change wins at least 9 in 10 of at least 10
//!   pairs (ties count for neither) and the medians differ by more than
//!   the parent's own quartile spread;
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the metric's bound;
//! * **unresolved** — the parent's quartile spread, as a share of its
//!   median, is wider than the bound, unless every change run reads better
//!   than every parent run;
//! * **unchanged** — otherwise.

use crate::metrics::{Better, Record, END_TO_END};
use crate::stats::{median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// The verdict on one (metric, workload) pair.
#[derive(Debug)]
pub struct Judgement {
    pub status: Status,
    pub pairs: usize,
    pub wins: usize,
    /// Change median against parent median, signed so that positive is
    /// better, as a share of the parent median.
    pub gain: f64,
}

/// Pairs needed before a gain may be claimed.
const MIN_PAIRS: usize = 10;

pub fn judge(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Judgement {
    let pairs = parent.len().min(change.len());
    if pairs == 0 {
        return Judgement {
            status: Status::Unresolved,
            pairs,
            wins: 0,
            gain: 0.0,
        };
    }
    let (p, c) = (&parent[..pairs], &change[..pairs]);
    let (pm, cm) = (median(p), median(c));
    let (q1, q3) = quartiles(p);
    let scale = if pm == 0.0 { 1.0 } else { pm.abs() };
    let gain = match better {
        Better::Lower => (pm - cm) / scale,
        Better::Higher => (cm - pm) / scale,
    };
    let wins = p
        .iter()
        .zip(c)
        .filter(|&(&y, &x)| better.beats(x, y))
        .count();
    let all_better = c.iter().all(|&x| p.iter().all(|&y| better.beats(x, y)));
    let status = if (q3 - q1) / scale > bound && !all_better {
        Status::Unresolved
    } else if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && gain * scale > q3 - q1 {
        Status::Improved
    } else if -gain > bound {
        Status::Regressed
    } else {
        Status::Unchanged
    };
    Judgement {
        status,
        pairs,
        wins,
        gain,
    }
}

fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let json =
                raven_json::Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
            Record::from_json(&json).map_err(|e| format!("{path}:{}: {e}", i + 1))
        })
        .collect()
}

/// Prints one row per workload; returns whether anything regressed.
pub fn run(parent_path: &str, change_path: &str) -> Result<bool, String> {
    let (parent, change) = (load(parent_path)?, load(change_path)?);
    let mut regressed = false;
    let mut workloads: Vec<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    for workload in workloads {
        let runs = |records: &[Record], metric: &str| -> Vec<f64> {
            records
                .iter()
                .filter(|r| r.workload == workload && !r.trace)
                .filter_map(|r| r.value(metric))
                .collect()
        };
        let mut row = Vec::new();
        let mut pairs = 0;
        for m in &END_TO_END {
            let j = judge(
                &runs(&parent, m.name),
                &runs(&change, m.name),
                m.better,
                m.bound,
            );
            pairs = pairs.max(j.pairs);
            regressed |= j.status == Status::Regressed;
            row.push(format!(
                "{} {} ({:+.1}%, {}/{} wins)",
                m.name,
                format!("{:?}", j.status).to_lowercase(),
                100.0 * j.gain,
                j.wins,
                j.pairs
            ));
        }
        let note = if pairs < MIN_PAIRS {
            " [fewer than 10 pairs: no gain can be claimed]"
        } else {
            ""
        };
        println!("{workload}{note}: {}", row.join(" | "));
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten runs around `center`, ±`jitter` in a fixed zig-zag.
    fn runs(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + jitter * (f64::from(i % 5) - 2.0) / 2.0))
            .collect()
    }

    #[test]
    fn clear_win_is_improved() {
        let j = judge(&runs(100.0, 0.02), &runs(80.0, 0.02), Better::Lower, 0.1);
        assert_eq!(j.status, Status::Improved, "{j:?}");
        assert_eq!(j.wins, 10);
        let j = judge(&runs(100.0, 0.02), &runs(120.0, 0.02), Better::Higher, 0.1);
        assert_eq!(j.status, Status::Improved, "{j:?}");
    }

    #[test]
    fn worse_beyond_the_bound_is_regressed() {
        let j = judge(&runs(100.0, 0.02), &runs(130.0, 0.02), Better::Lower, 0.1);
        assert_eq!(j.status, Status::Regressed, "{j:?}");
        let j = judge(&runs(100.0, 0.02), &runs(105.0, 0.02), Better::Lower, 0.1);
        assert_eq!(j.status, Status::Unchanged, "{j:?}");
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let j = judge(&runs(100.0, 0.5), &runs(104.0, 0.5), Better::Lower, 0.1);
        assert_eq!(j.status, Status::Unresolved, "{j:?}");
        // ... unless every change run beats every parent run.
        let j = judge(&runs(100.0, 0.5), &runs(10.0, 0.1), Better::Lower, 0.1);
        assert_eq!(j.status, Status::Improved, "{j:?}");
    }

    #[test]
    fn too_few_pairs_claim_nothing() {
        let j = judge(
            &runs(100.0, 0.02)[..5],
            &runs(80.0, 0.02)[..5],
            Better::Lower,
            0.1,
        );
        assert_eq!(j.status, Status::Unchanged, "{j:?}");
    }
}
