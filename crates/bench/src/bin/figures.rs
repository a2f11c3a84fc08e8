//! Regenerates the evaluation figures f1–f6 as CSV series.
//!
//! Usage: `cargo run -p raven-bench --release --bin figures -- [--threads n]
//! [f1 f2 ...|all]`; `--help` lists the flags.

use raven::flags::{self, Command};
use raven_bench::figures::run;
use raven_bench::THREADS;

const FIGURES: Command = Command {
    name: "figures",
    args: "[f1 f2 ...|all]",
    about: "Regenerates the evaluation figures f1-f6 as CSV series (default all).",
    flags: &[THREADS],
    commands: &[],
};
const ALL: [&str; 6] = ["f1", "f2", "f3", "f4", "f5", "f6"];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = flags::parse(&FIGURES, &argv).unwrap_or_else(|e| FIGURES.usage_exit(e));
    let threads = parsed
        .value(&THREADS)
        .unwrap_or_else(|e| FIGURES.usage_exit(e))
        .unwrap_or(1);
    let mut ids: Vec<&str> = parsed.args().iter().map(String::as_str).collect();
    if ids.is_empty() || ids.contains(&"all") {
        ids = ALL.to_vec();
    }
    if let Some(id) = ids.iter().find(|id| !ALL.contains(id)) {
        FIGURES.usage_exit(format!("unknown figure {id:?}"));
    }
    for fig in run(&ids, threads) {
        println!("{}", fig.to_csv());
    }
}
