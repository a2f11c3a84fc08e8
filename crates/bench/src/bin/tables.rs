//! Regenerates the evaluation tables t1–t7 as Markdown.
//!
//! Usage: `cargo run -p raven-bench --release --bin tables -- [--quick]
//! [--threads n] [t1 t2 ...|all]`; `--help` lists the flags.

use raven::flags::{self, Command, Flag};
use raven_bench::tables::{run, Scope};
use raven_bench::THREADS;

const QUICK: Flag = Flag::switch("--quick", "run the small sweep, for smoke tests");
const TABLES: Command = Command {
    name: "tables",
    args: "[t1 t2 ...|all]",
    about: "Regenerates the evaluation tables t1-t7 as Markdown (default all).",
    flags: &[QUICK, THREADS],
    commands: &[],
};
const ALL: [&str; 7] = ["t1", "t2", "t3", "t4", "t5", "t6", "t7"];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = flags::parse(&TABLES, &argv).unwrap_or_else(|e| TABLES.usage_exit(e));
    let threads = parsed
        .value(&THREADS)
        .unwrap_or_else(|e| TABLES.usage_exit(e))
        .unwrap_or(1);
    let scope = if parsed.has(&QUICK) {
        Scope::Quick
    } else {
        Scope::Full
    };
    let mut ids: Vec<&str> = parsed.args().iter().map(String::as_str).collect();
    if ids.is_empty() || ids.contains(&"all") {
        ids = ALL.to_vec();
    }
    if let Some(id) = ids.iter().find(|id| !ALL.contains(id)) {
        TABLES.usage_exit(format!("unknown table {id:?}"));
    }
    for table in run(&ids, scope, threads) {
        println!("{}", table.to_markdown());
    }
}
