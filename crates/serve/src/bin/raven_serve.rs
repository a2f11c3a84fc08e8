//! `raven_serve` — the verification service binary.
//!
//! ```text
//! raven_serve --models-dir models [--addr 127.0.0.1:8080] [flags]
//! ```
//!
//! `raven_serve --help` lists every flag with its default.
//!
//! The first ctrl-c / SIGTERM starts a graceful shutdown (drain accepted
//! jobs, answer their connections, exit). A second signal escalates and
//! cancels in-flight verifications at their next phase boundary.

use raven::flags::{self, Command, Flag, UsageError};
use raven_serve::journal::JournalConfig;
use raven_serve::{registry::ModelRegistry, Server, ServerConfig};
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

const MODELS_DIR: Flag = Flag::valued(
    "--models-dir",
    "DIR",
    "directory of *.net model files (required)",
);
const ADDR: Flag = Flag::valued(
    "--addr",
    "HOST:PORT",
    "bind address (default 127.0.0.1:8080; port 0 = ephemeral)",
);
const WORKERS: Flag = Flag::valued(
    "--workers",
    "N",
    "verification worker threads (default 2; 0 = all cores)",
);
const QUEUE_CAPACITY: Flag = Flag::valued(
    "--queue-capacity",
    "N",
    "queued jobs before 429 (default 32)",
);
const CACHE_CAPACITY: Flag = Flag::valued(
    "--cache-capacity",
    "N",
    "cached verdicts, LRU (default 256; 0 disables)",
);
const REQUEST_TIMEOUT_SECS: Flag = Flag::valued(
    "--request-timeout-secs",
    "N",
    "sync request wait before 504 (default 60)",
);
const THREADS: Flag = Flag::valued(
    "--threads",
    "N",
    "per-job solver threads (default 1; 0 = all cores)",
);
const DEADLINE_MS: Flag = Flag::valued(
    "--deadline-ms",
    "N",
    "default per-job solve deadline; past it a job answers a sound degraded verdict \
     (default unlimited; a request's \"deadline_ms\" overrides)",
);
const MAX_BODY_BYTES: Flag = Flag::valued(
    "--max-body-bytes",
    "N",
    "largest accepted request body; larger ones answer 413 (default 67108864 = 64 MiB)",
);
const JOURNAL_DIR: Flag = Flag::valued(
    "--journal-dir",
    "DIR",
    "write-ahead job journal for crash recovery, idempotent retries and verdict replay \
     across restarts (default disabled)",
);
const JOURNAL_SEGMENT_BYTES: Flag = Flag::valued(
    "--journal-segment-bytes",
    "N",
    "rotate journal segments past this size (default 4 MiB)",
);
const JOURNAL_CAP_BYTES: Flag = Flag::valued(
    "--journal-cap-bytes",
    "N",
    "compact or delete old segments to keep the journal below this size (default 64 MiB)",
);
const WATCHDOG_GRACE_MS: Flag = Flag::valued(
    "--watchdog-grace-ms",
    "N",
    "cancel jobs stuck this long past their deadline (default 2000)",
);
const JOB_RETRIES: Flag = Flag::valued(
    "--job-retries",
    "N",
    "re-run a panicked job up to N times with exponential backoff (default 1)",
);
const CLIENT_TIMEOUT_MS: Flag = Flag::valued(
    "--client-timeout-ms",
    "N",
    "per-connection client socket read/write timeout (default 10000)",
);
const STRICT_CERTIFICATES: Flag = Flag::switch(
    "--strict-certificates",
    "recompute a job whose certificate fails its own spot check instead of serving it",
);
const TRACE_SLOW_MS: Flag = Flag::valued(
    "--trace-slow-ms",
    "N",
    "always keep traces of requests this slow (default 500; degraded, errored and \
     retried ones are always kept)",
);
const TRACE_SAMPLE_RATE: Flag = Flag::valued(
    "--trace-sample-rate",
    "R",
    "probability in [0, 1] of keeping any other request's trace (default 1.0)",
);
const TRACE_CAPACITY: Flag = Flag::valued(
    "--trace-capacity",
    "N",
    "traces kept behind /v1/traces before the oldest is evicted (default 256)",
);

const RAVEN_SERVE: Command = Command {
    name: "raven_serve",
    args: "",
    about: "Serves RaVeN verifications over HTTP/1.1 + JSON. The first SIGINT/SIGTERM drains \
            accepted jobs and exits; a second cancels in-flight verifications.",
    flags: &[
        MODELS_DIR,
        ADDR,
        WORKERS,
        QUEUE_CAPACITY,
        CACHE_CAPACITY,
        REQUEST_TIMEOUT_SECS,
        THREADS,
        DEADLINE_MS,
        MAX_BODY_BYTES,
        JOURNAL_DIR,
        JOURNAL_SEGMENT_BYTES,
        JOURNAL_CAP_BYTES,
        WATCHDOG_GRACE_MS,
        JOB_RETRIES,
        CLIENT_TIMEOUT_MS,
        STRICT_CERTIFICATES,
        TRACE_SLOW_MS,
        TRACE_SAMPLE_RATE,
        TRACE_CAPACITY,
    ],
    commands: &[],
};

/// Signals received so far (1 = graceful, 2+ = force cancel).
static SIGNALS: AtomicUsize = AtomicUsize::new(0);

extern "C" fn on_signal(_signum: i32) {
    // Async-signal-safe: a single atomic increment, nothing else.
    SIGNALS.fetch_add(1, Ordering::SeqCst);
}

/// Installs `on_signal` for SIGINT and SIGTERM via the libc `signal` that
/// std already links — no external crate needed for a flag-only handler.
fn install_signal_handlers() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[derive(Debug)]
struct Args {
    models_dir: String,
    config: ServerConfig,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let flags = flags::parse(&RAVEN_SERVE, argv)?;
    let models_dir = flags.required(&MODELS_DIR)?;
    let millis = |flag: &Flag| -> Result<Option<Duration>, UsageError> {
        Ok(flags.value(flag)?.map(Duration::from_millis))
    };
    let defaults = ServerConfig::default();
    let trace_sample_rate = flags
        .value(&TRACE_SAMPLE_RATE)?
        .unwrap_or(defaults.trace_sample_rate);
    if !(0.0..=1.0).contains(&trace_sample_rate) {
        return Err(format!("{} must be in [0, 1]", TRACE_SAMPLE_RATE.name));
    }
    let config = ServerConfig {
        addr: flags
            .value(&ADDR)?
            .unwrap_or_else(|| "127.0.0.1:8080".to_string()),
        workers: flags.value(&WORKERS)?.unwrap_or(defaults.workers),
        queue_capacity: flags
            .value(&QUEUE_CAPACITY)?
            .unwrap_or(defaults.queue_capacity),
        cache_capacity: flags
            .value(&CACHE_CAPACITY)?
            .unwrap_or(defaults.cache_capacity),
        request_timeout: flags
            .value(&REQUEST_TIMEOUT_SECS)?
            .map_or(defaults.request_timeout, Duration::from_secs),
        job_threads: flags.value(&THREADS)?.unwrap_or(defaults.job_threads),
        max_body_bytes: flags
            .value(&MAX_BODY_BYTES)?
            .unwrap_or(defaults.max_body_bytes),
        default_deadline: millis(&DEADLINE_MS)?,
        journal_dir: flags.value(&JOURNAL_DIR)?,
        journal: JournalConfig {
            segment_bytes: flags
                .value(&JOURNAL_SEGMENT_BYTES)?
                .unwrap_or(defaults.journal.segment_bytes),
            cap_bytes: flags
                .value(&JOURNAL_CAP_BYTES)?
                .unwrap_or(defaults.journal.cap_bytes),
        },
        watchdog_grace: millis(&WATCHDOG_GRACE_MS)?.unwrap_or(defaults.watchdog_grace),
        // The service binary retries a panicked job once by default; the
        // library default (0) keeps one-attempt semantics for embedders.
        job_retries: flags.value(&JOB_RETRIES)?.unwrap_or(1),
        client_timeout: millis(&CLIENT_TIMEOUT_MS)?.unwrap_or(defaults.client_timeout),
        strict_certificates: flags.has(&STRICT_CERTIFICATES),
        trace_slow_ms: flags
            .value(&TRACE_SLOW_MS)?
            .unwrap_or(defaults.trace_slow_ms),
        trace_sample_rate,
        trace_capacity: flags
            .value(&TRACE_CAPACITY)?
            .unwrap_or(defaults.trace_capacity),
    };
    Ok(Args { models_dir, config })
}

fn main() -> ExitCode {
    // Chaos faults for spawned-process durability tests (no-op unless the
    // RAVEN_SERVE_CHAOS_* variables are set and chaos is compiled in).
    raven_serve::chaos::arm_from_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|msg| RAVEN_SERVE.usage_exit(msg));
    let registry = match ModelRegistry::load_dir(Path::new(&args.models_dir)) {
        Ok(registry) => registry,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    if registry.is_empty() {
        eprintln!("error: no *.net models found in {}", args.models_dir);
        return ExitCode::FAILURE;
    }
    let server = match Server::bind(&args.config, registry) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", args.config.addr);
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr().expect("listener has an address");
    for entry in server.state().registry.entries() {
        eprintln!("loaded model {} ({})", entry.name, entry.hash_hex());
    }
    eprintln!("raven-serve listening on http://{addr}");

    install_signal_handlers();
    let shutdown = server.shutdown_handle();
    std::thread::Builder::new()
        .name("raven-serve-signals".to_string())
        .spawn(move || {
            let mut seen = 0;
            loop {
                let now = SIGNALS.load(Ordering::SeqCst);
                if now > seen {
                    seen = now;
                    if seen == 1 {
                        eprintln!("shutdown requested: draining accepted jobs (again to force)");
                        shutdown.shutdown();
                    } else {
                        eprintln!("force cancel: stopping in-flight verifications");
                        shutdown.force_cancel();
                    }
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        })
        .expect("spawn signal monitor");

    server.run();
    eprintln!("raven-serve stopped");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_full_flag_set() {
        let parsed = parse_args(&args(&[
            "--models-dir",
            "models",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "4",
            "--queue-capacity",
            "2",
            "--cache-capacity",
            "10",
            "--request-timeout-secs",
            "5",
            "--threads",
            "3",
            "--deadline-ms",
            "250",
            "--max-body-bytes",
            "1048576",
            "--journal-dir",
            "/tmp/wal",
            "--journal-segment-bytes",
            "65536",
            "--journal-cap-bytes",
            "1000000",
            "--watchdog-grace-ms",
            "500",
            "--job-retries",
            "3",
            "--client-timeout-ms",
            "2500",
            "--strict-certificates",
            "--trace-slow-ms",
            "250",
            "--trace-sample-rate",
            "0.25",
            "--trace-capacity",
            "64",
        ]))
        .unwrap();
        assert_eq!(parsed.models_dir, "models");
        assert_eq!(parsed.config.addr, "127.0.0.1:0");
        assert_eq!(parsed.config.workers, 4);
        assert_eq!(parsed.config.queue_capacity, 2);
        assert_eq!(parsed.config.cache_capacity, 10);
        assert_eq!(parsed.config.request_timeout, Duration::from_secs(5));
        assert_eq!(parsed.config.job_threads, 3);
        assert_eq!(
            parsed.config.default_deadline,
            Some(Duration::from_millis(250))
        );
        assert_eq!(parsed.config.max_body_bytes, 1048576);
        assert_eq!(
            parsed.config.journal_dir.as_deref(),
            Some(Path::new("/tmp/wal"))
        );
        assert_eq!(parsed.config.journal.segment_bytes, 65536);
        assert_eq!(parsed.config.journal.cap_bytes, 1000000);
        assert_eq!(parsed.config.watchdog_grace, Duration::from_millis(500));
        assert_eq!(parsed.config.job_retries, 3);
        assert_eq!(parsed.config.client_timeout, Duration::from_millis(2500));
        assert!(parsed.config.strict_certificates);
        assert_eq!(parsed.config.trace_slow_ms, 250);
        assert_eq!(parsed.config.trace_sample_rate, 0.25);
        assert_eq!(parsed.config.trace_capacity, 64);
    }

    #[test]
    fn trace_defaults_keep_everything() {
        let parsed = parse_args(&args(&["--models-dir", "m"])).unwrap();
        assert_eq!(parsed.config.trace_slow_ms, 500);
        assert_eq!(parsed.config.trace_sample_rate, 1.0);
        assert_eq!(parsed.config.trace_capacity, 256);
        let bad = parse_args(&args(&["--models-dir", "m", "--trace-sample-rate", "1.5"]));
        assert!(bad.unwrap_err().contains("[0, 1]"));
    }

    #[test]
    fn strict_certificates_and_client_timeout_defaults() {
        let parsed = parse_args(&args(&["--models-dir", "m"])).unwrap();
        assert!(!parsed.config.strict_certificates);
        assert_eq!(parsed.config.client_timeout, Duration::from_secs(10));
    }

    #[test]
    fn binary_defaults_enable_one_retry_and_no_journal() {
        let parsed = parse_args(&args(&["--models-dir", "m"])).unwrap();
        assert_eq!(parsed.config.job_retries, 1);
        assert!(parsed.config.journal_dir.is_none());
        assert_eq!(parsed.config.max_body_bytes, 64 * 1024 * 1024);
    }

    #[test]
    fn rejects_missing_models_dir_and_unknown_flags() {
        assert!(parse_args(&args(&[])).unwrap_err().contains("--models-dir"));
        assert!(parse_args(&args(&["--models-dir", "m", "--bogus"]))
            .unwrap_err()
            .contains("--bogus"));
        // The removed worker-fleet flags are unknown like any other.
        assert_eq!(
            parse_args(&args(&["--models-dir", "m", "--fleet-addr", "127.0.0.1:0"])).unwrap_err(),
            "unknown flag --fleet-addr"
        );
        assert!(parse_args(&args(&["--models-dir"]))
            .unwrap_err()
            .contains("needs a value"));
    }
}
