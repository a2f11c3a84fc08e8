//! Benchmark harness for the RaVeN reproduction.
//!
//! This crate regenerates every table and figure of the reconstructed
//! evaluation (see `DESIGN.md` for the experiment index and `EXPERIMENTS.md`
//! for recorded results):
//!
//! * `cargo run -p raven-bench --release --bin tables -- all` — t1–t7
//! * `cargo run -p raven-bench --release --bin figures -- all` — f1–f6
//! * `cargo run -p raven-bench --release --bin obs` — the solver-work
//!   report `BENCH_obs.json` that `scripts/tier1.sh` gates on
//! * `cargo bench -p raven-bench` — micro-benchmarks of the domains and
//!   the LP solver (self-contained harness in [`timing`]).
//!
//! The model zoo ([`models`]) trains every benchmark network from scratch
//! with fixed seeds, standing in for the paper's pretrained MNIST/CIFAR
//! models; results are therefore deterministic on a given platform.

pub mod figures;
pub mod models;
pub mod report;
pub mod tables;
pub mod timing;

/// The `--threads` flag of the `tables`, `figures` and `obs` binaries.
pub const THREADS: raven::flags::Flag = raven::flags::Flag::valued(
    "--threads",
    "n",
    "solver threads: 0 = all cores, 1 = sequential (default 1)",
);
