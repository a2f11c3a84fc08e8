//! JSONL span trace → folded stacks, for flamegraphs.
//!
//! Converts a trace produced by `raven_cli --trace-out trace.jsonl` into
//! the "folded" format consumed by flamegraph.pl / inferno:
//!
//! ```text
//! thread;outer;inner 1234
//! ```
//!
//! one line per unique stack, value = *self* microseconds (span duration
//! minus the duration of its direct children), aggregated across
//! occurrences. Event records (`"type":"event"`) are ignored.
//!
//! Span lines may carry request-trace context: a `"trace":"<32 hex>"`
//! trace id (present both in the process sink when a request context is
//! installed and in `GET /v1/traces/{id}` JSONL exports). `--trace <id>`
//! folds only the spans of one request.
//!
//! Single file, std only — compile and run with:
//!
//! ```text
//! rustc -O scripts/trace2folded.rs -o /tmp/trace2folded
//! /tmp/trace2folded trace.jsonl > trace.folded
//! /tmp/trace2folded --trace 0123…cdef trace.jsonl > one-request.folded
//! flamegraph.pl trace.folded > trace.svg
//! ```

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};

struct Span {
    name: String,
    parent: u64,
    thread: String,
    dur_us: u64,
    child_us: u64,
}

/// Lowercases and strips leading zeros so `--trace 0xABC`, `abc`, and the
/// 32-digit padded form all name the same trace.
fn normalize_trace_id(id: &str) -> String {
    let id = id.strip_prefix("0x").unwrap_or(id).to_ascii_lowercase();
    let trimmed = id.trim_start_matches('0');
    if trimmed.is_empty() { "0".to_string() } else { trimmed.to_string() }
}

/// Extracts the raw value after `"key":` — either a JSON string (returned
/// unescaped) or the bare token up to the next `,` or `}`. The sink writes
/// flat one-line objects, so no nesting has to be handled.
fn field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let mut chars = rest.chars();
    if chars.next()? == '"' {
        let mut out = String::new();
        let mut escaped = false;
        for c in chars {
            match (escaped, c) {
                (true, 'n') => out.push('\n'),
                (true, 't') => out.push('\t'),
                (true, c) => out.push(c),
                (false, '\\') => {
                    escaped = true;
                    continue;
                }
                (false, '"') => return Some(out),
                (false, c) => out.push(c),
            }
            escaped = false;
        }
        None // unterminated string: malformed line
    } else {
        Some(
            rest.chars()
                .take_while(|c| !matches!(c, ',' | '}'))
                .collect(),
        )
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // --trace <id>: fold only span lines tagged with this trace id
    // (leading zeros optional — ids compare normalized).
    let mut want_trace: Option<String> = None;
    if let Some(pos) = args.iter().position(|a| a == "--trace") {
        if pos + 1 >= args.len() {
            eprintln!("trace2folded: --trace needs a value");
            std::process::exit(1);
        }
        want_trace = Some(normalize_trace_id(&args[pos + 1]));
        args.drain(pos..=pos + 1);
    }
    let reader: Box<dyn Read> = match args.first().map(String::as_str) {
        None | Some("-") => Box::new(std::io::stdin()),
        Some("--help" | "-h") => {
            eprintln!("usage: trace2folded [--trace TRACE_ID] [trace.jsonl] > trace.folded");
            return;
        }
        Some(path) => Box::new(std::fs::File::open(path).unwrap_or_else(|e| {
            eprintln!("trace2folded: cannot open {path}: {e}");
            std::process::exit(1);
        })),
    };

    // Pass 1: collect spans by id (children are emitted before parents —
    // spans are written on drop — so resolution must wait for the full file).
    let mut spans: HashMap<u64, Span> = HashMap::new();
    let mut skipped = 0usize;
    for line in BufReader::new(reader).lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        if field(&line, "type").as_deref() != Some("span") {
            continue;
        }
        if let Some(want) = &want_trace {
            match field(&line, "trace") {
                Some(id) if normalize_trace_id(&id) == *want => {}
                _ => continue,
            }
        }
        let parsed = (|| {
            let id: u64 = field(&line, "id")?.parse().ok()?;
            Some((
                id,
                Span {
                    name: field(&line, "name")?,
                    parent: field(&line, "parent")?.parse().ok()?,
                    thread: field(&line, "thread")?,
                    dur_us: field(&line, "dur_us")?.parse().ok()?,
                    child_us: 0,
                },
            ))
        })();
        match parsed {
            Some((id, s)) => {
                spans.insert(id, s);
            }
            None => skipped += 1,
        }
    }
    if skipped > 0 {
        eprintln!("trace2folded: skipped {skipped} malformed span line(s)");
    }

    // Pass 2: charge every span's duration to its parent so self time can
    // be computed, then fold each span into its ancestor stack.
    let charges: Vec<(u64, u64)> = spans.iter().map(|(_, s)| (s.parent, s.dur_us)).collect();
    for (parent, dur) in charges {
        if let Some(p) = spans.get_mut(&parent) {
            p.child_us = p.child_us.saturating_add(dur);
        }
    }

    let mut folded: HashMap<String, u64> = HashMap::new();
    for span in spans.values() {
        // Clock skew between parent and child reads can make the children
        // sum slightly exceed the parent; saturate rather than underflow.
        let self_us = span.dur_us.saturating_sub(span.child_us);
        let mut frames = vec![span.name.as_str()];
        let mut cursor = span.parent;
        while cursor != 0 {
            match spans.get(&cursor) {
                Some(p) => {
                    frames.push(p.name.as_str());
                    cursor = p.parent;
                }
                None => {
                    frames.push("[orphan]");
                    break;
                }
            }
        }
        frames.push(span.thread.as_str());
        frames.reverse();
        *folded.entry(frames.join(";")).or_insert(0) += self_us;
    }

    // Deterministic output: sort stacks lexicographically.
    let mut lines: Vec<(String, u64)> = folded.into_iter().collect();
    lines.sort();
    for (stack, us) in lines {
        println!("{stack} {us}");
    }
}
