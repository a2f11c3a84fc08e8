#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md): everything a PR must keep green.
set -euo pipefail
cd "$(dirname "$0")/.."

# --workspace: the root package's deps don't cover member binaries
# (raven_cli, raven_serve), and check_metrics.sh below needs the latter.
cargo build --release --workspace
cargo test -q
# Every member crate's unit and integration tests, in the profile users
# run. The fault-injection suites stay armed with debug_assertions off:
# raven-lp and raven-serve enable their own `chaos` feature for tests.
cargo test --release --workspace -q
cargo fmt --check
# --all-targets: tests, benches and examples are linted too.
cargo clippy --workspace --all-targets -- -D warnings
# Public docs must not link to private or deleted items.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
scripts/check_metrics.sh
# Solver-work regression gate: rerun the fixed obs workload and fail when
# total pivots, B&B nodes or DeepPoly relaxed neurons grow by >20% vs the
# committed baseline. The committed
# BENCH_obs.json is only refreshed deliberately (run obs with --out).
cargo run -p raven-bench --release --bin obs -- --out /tmp/raven_bench_obs.json \
  --check BENCH_obs.json
echo "tier-1: all gates passed"
