//! `raven-serve` — a std-only HTTP verification service for RaVeN.
//!
//! The one-shot `raven_cli` pays model load, plan lowering, and a full
//! solve for every query. This crate wraps the same verifier in a
//! long-running process that amortizes those costs:
//!
//! * a [`registry::ModelRegistry`] loads networks once and fingerprints
//!   them by content hash;
//! * a bounded [`queue::JobQueue`] + worker pool executes verifications
//!   with backpressure (HTTP 429 when full) and graceful drain;
//! * a [`cache::ResultCache`] memoizes deterministic verdicts under
//!   `(model hash, method, ε bits, payload hash, pair strategy)`.
//!
//! Everything is `std`-only: the HTTP layer is a minimal hand-rolled
//! HTTP/1.1 subset over [`std::net::TcpListener`], and JSON goes through
//! the workspace's `raven-json` crate. Endpoints:
//!
//! | Route                  | Meaning                                    |
//! |------------------------|--------------------------------------------|
//! | `POST /v1/verify/uap`  | synchronous UAP verification               |
//! | `POST /v1/verify/mono` | synchronous monotonicity verification      |
//! | `POST /v1/jobs`        | async submission (poll for the result)     |
//! | `GET /v1/jobs/{id}`    | job status / result                        |
//! | `GET /v1/models`       | loaded models with content hashes          |
//! | `GET /v1/healthz`      | uptime, queue depth, cache + solver stats  |
//! | `GET /v1/metrics`      | Prometheus text exposition (whole stack)   |
//! | `GET /v1/traces`       | tail-sampled trace summaries               |
//! | `GET /v1/traces/{id}`  | one trace (JSONL, or `?format=chrome`)     |

pub mod api;
pub mod cache;
pub mod chaos;
pub mod frame;
pub mod http;
pub mod journal;
pub mod metrics;
pub mod queue;
pub mod registry;
pub mod trace;

use cache::ResultCache;
use journal::{Journal, JournalConfig, Record, ReplayState, ReplayTerminal};
use queue::{JobQueue, JobSlot, JobState, QueueHooks, Supervision};
use raven_json::Json;
use registry::ModelRegistry;
use std::collections::HashMap;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads executing verifications (0 = all cores).
    pub workers: usize,
    /// Maximum queued (not yet running) jobs before 429.
    pub queue_capacity: usize,
    /// Maximum cached verdicts (0 disables the cache).
    pub cache_capacity: usize,
    /// How long a synchronous endpoint waits before answering 504.
    pub request_timeout: Duration,
    /// `RavenConfig::threads` for each job (intra-job parallelism).
    pub job_threads: usize,
    /// Maximum accepted request body size in bytes.
    pub max_body_bytes: usize,
    /// Default per-job solve deadline. Jobs that exhaust it degrade down
    /// the precision ladder (MILP → LP → analysis) and answer with a
    /// sound but weaker verdict instead of timing out with 504/500.
    /// `None` means unlimited; a request's `deadline_ms` field overrides.
    pub default_deadline: Option<Duration>,
    /// Write-ahead journal directory. `None` disables durability: jobs
    /// are lost on crash exactly as before the journal existed.
    pub journal_dir: Option<PathBuf>,
    /// Journal segment rotation and directory size cap.
    pub journal: JournalConfig,
    /// How long past a job's deadline the watchdog waits before cancelling
    /// it (the solver budget should have degraded the job at its deadline;
    /// this much later, the solver is assumed wedged).
    pub watchdog_grace: Duration,
    /// Maximum re-executions of a panicked job before it fails for good.
    /// 0 (the default) preserves the pre-supervision behavior: one
    /// attempt, panic answers 500.
    pub job_retries: u32,
    /// Per-connection client socket read/write timeout
    /// (`--client-timeout-ms`). A stalled peer must not pin a connection
    /// thread forever.
    pub client_timeout: Duration,
    /// `--strict-certificates`: when an emitted certificate fails its own
    /// spot check, recompute the job instead of serving the unverifiable
    /// response.
    pub strict_certificates: bool,
    /// `--trace-slow-ms`: tail sampling always keeps requests at least
    /// this slow (besides degraded / errored / retried ones, which are
    /// always kept).
    pub trace_slow_ms: u64,
    /// `--trace-sample-rate`: probability of keeping an otherwise
    /// uninteresting (fast, clean) request's trace, in `[0, 1]`.
    pub trace_sample_rate: f64,
    /// Maximum retained traces behind `/v1/traces` (ring; oldest evicted).
    pub trace_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 32,
            cache_capacity: 256,
            request_timeout: Duration::from_secs(60),
            job_threads: 1,
            max_body_bytes: 64 * 1024 * 1024,
            default_deadline: None,
            journal_dir: None,
            journal: JournalConfig::default(),
            watchdog_grace: Duration::from_secs(2),
            job_retries: 0,
            client_timeout: Duration::from_secs(10),
            strict_certificates: false,
            trace_slow_ms: 500,
            trace_sample_rate: 1.0,
            trace_capacity: 256,
        }
    }
}

/// Shared state behind every connection and worker.
pub struct ServerState {
    /// Loaded models.
    pub registry: ModelRegistry,
    /// The job queue (shared with the worker pool).
    pub queue: Arc<JobQueue>,
    /// The verdict cache.
    pub cache: ResultCache,
    /// Jobs by id: `/v1/jobs` submissions, recovered jobs, and sync
    /// requests that carried an idempotency key. Unkeyed sync requests
    /// leave the map once answered.
    pub jobs: Mutex<HashMap<u64, Arc<queue::JobSlot>>>,
    /// Next job id.
    pub next_job_id: AtomicU64,
    /// Server start time (for `/v1/healthz` uptime).
    pub started: Instant,
    /// Synchronous-request wait bound.
    pub request_timeout: Duration,
    /// Per-job `RavenConfig::threads`.
    pub job_threads: usize,
    /// Default per-job solve deadline (see [`ServerConfig::default_deadline`]).
    pub default_deadline: Option<Duration>,
    /// Force-cancel flag checked by in-flight verifications at phase
    /// boundaries (second ctrl-c / SIGTERM escalation).
    pub cancel: AtomicBool,
    /// Write-ahead job journal (`None` when durability is disabled).
    pub journal: Option<Arc<Journal>>,
    /// Idempotency-key → job id map (rebuilt from the journal on restart).
    pub idempotency: Mutex<HashMap<String, u64>>,
    /// Recompute on spot-check failure instead of serving the response.
    pub strict_certificates: bool,
    /// Tail-sampled per-request traces behind `/v1/traces`.
    pub traces: Arc<trace::TraceStore>,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    /// Where [`ShutdownHandle::shutdown`] connects to wake the accept.
    wake: SocketAddr,
    state: Arc<ServerState>,
    worker_handles: Vec<std::thread::JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    max_body_bytes: usize,
    client_timeout: Duration,
}

/// Handle for stopping a running server from another thread.
#[derive(Clone)]
pub struct ShutdownHandle {
    stop: Arc<AtomicBool>,
    wake: SocketAddr,
    cancel_state: Arc<ServerState>,
}

impl ShutdownHandle {
    /// Requests a graceful shutdown: stop accepting, drain accepted jobs,
    /// then exit `run`.
    ///
    /// [`Server::run`] blocks in `accept`, so after setting the stop flag
    /// this opens one loopback connection to the listener to wake it, and
    /// ignores the outcome: a connect that lands makes `accept` return; a
    /// full backlog means `accept` has connections to return anyway; a
    /// refused connect means the listener is already gone. The connect
    /// waits at most one second.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
    }

    /// Escalates: additionally asks in-flight verifications to stop at
    /// their next phase boundary (their requests answer 500/cancelled).
    pub fn force_cancel(&self) {
        self.cancel_state.cancel.store(true, Ordering::SeqCst);
        self.shutdown();
    }
}

/// The address a local client reaches `bound` at: an unspecified IP
/// (`0.0.0.0` / `[::]`) becomes the loopback address of its family.
fn wake_addr(mut bound: SocketAddr) -> SocketAddr {
    if bound.ip().is_unspecified() {
        bound.set_ip(match bound {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    bound
}

/// Connection threads still running; the last one to finish wakes the
/// drain in [`Server::run`].
#[derive(Default)]
struct Connections {
    active: Mutex<usize>,
    idle: Condvar,
}

impl Connections {
    fn count(&self) -> std::sync::MutexGuard<'_, usize> {
        self.active.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counts one connection thread until the guard drops (a panicking
    /// handler included).
    fn enter(self: &Arc<Self>) -> ConnectionGuard {
        *self.count() += 1;
        ConnectionGuard(self.clone())
    }

    /// Waits until no connection thread is left, or `timeout` passes.
    fn wait_idle(&self, timeout: Duration) {
        let _idle = self
            .idle
            .wait_timeout_while(self.count(), timeout, |active| *active > 0)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

struct ConnectionGuard(Arc<Connections>);

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        let mut active = self.0.count();
        *active -= 1;
        if *active == 0 {
            self.0.idle.notify_all();
        }
    }
}

impl Server {
    /// Binds the listener and starts the worker pool (but not the accept
    /// loop — call [`Server::run`]).
    ///
    /// # Errors
    ///
    /// Returns the bind error (address in use, permission, …).
    pub fn bind(config: &ServerConfig, registry: ModelRegistry) -> std::io::Result<Server> {
        // A long-running service always wants its latency histograms
        // populated; telemetry is observe-only so verdicts are unaffected.
        raven_obs::set_enabled(true);
        let listener = TcpListener::bind(&config.addr)?;
        let wake = wake_addr(listener.local_addr()?);
        // Replay the journal before anything else: recovery needs the
        // replayed state to seed job ids, and the hooks need the opened
        // journal. Opening starts a fresh segment, so replay sees only
        // the dead process's records.
        let (journal_handle, replay) = match &config.journal_dir {
            Some(dir) => {
                let records = journal::replay_dir(dir)?;
                let replay = ReplayState::digest(&records);
                metrics::JOURNAL_REPLAYED.add(replay.records);
                metrics::JOURNAL_CLEAN_SHUTDOWN.set(i64::from(replay.clean_shutdown));
                let journal = Arc::new(Journal::open(dir, config.journal)?);
                (Some(journal), Some(replay))
            }
            None => (None, None),
        };
        // Durability hooks: a fsync'd Started record per pickup (the
        // crash-signature replay counts on it surviving power loss) and a
        // terminal record per outcome (plain write — losing one only
        // costs a re-run).
        let hooks = match &journal_handle {
            Some(journal) => {
                let on_start = journal.clone();
                let on_end = journal.clone();
                QueueHooks {
                    on_started: Some(Box::new(move |id| {
                        let _ = on_start.append(&Record::Started { id }, true);
                    })),
                    on_terminal: Some(Box::new(move |id, terminal| {
                        let record = match terminal {
                            JobState::Done(envelope) => {
                                // Degraded verdicts are budget-dependent
                                // and never cacheable — on replay either.
                                let cacheable = envelope
                                    .get("result")
                                    .and_then(|r| r.get("degraded"))
                                    .and_then(Json::as_bool)
                                    == Some(false);
                                Record::Completed {
                                    id,
                                    envelope: envelope.clone(),
                                    cacheable,
                                }
                            }
                            JobState::Failed(error) => Record::Failed {
                                id,
                                error: error.clone(),
                            },
                            _ => return,
                        };
                        let _ = on_end.append(&record, false);
                    })),
                }
            }
            None => QueueHooks::default(),
        };
        let queue = JobQueue::with_options(
            config.queue_capacity,
            Supervision {
                grace: config.watchdog_grace,
                max_retries: config.job_retries,
            },
            hooks,
        );
        let next_job_id = replay.as_ref().map_or(0, ReplayState::max_id) + 1;
        let state = Arc::new(ServerState {
            registry,
            queue: queue.clone(),
            cache: ResultCache::new(config.cache_capacity),
            jobs: Mutex::new(HashMap::new()),
            next_job_id: AtomicU64::new(next_job_id),
            started: Instant::now(),
            request_timeout: config.request_timeout,
            job_threads: config.job_threads,
            default_deadline: config.default_deadline,
            cancel: AtomicBool::new(false),
            journal: journal_handle.clone(),
            idempotency: Mutex::new(HashMap::new()),
            strict_certificates: config.strict_certificates,
            traces: Arc::new(trace::TraceStore::new(
                trace::sampler_from(config.trace_slow_ms, config.trace_sample_rate),
                config.trace_capacity,
            )),
        });
        if let (Some(journal), Some(replay)) = (&journal_handle, replay) {
            recover(&state, journal, &replay);
            // Tidy the inherited segments now that every replayed job has
            // a pinned outcome (best-effort; rotation compacts later too).
            let _ = journal.compact();
        }
        let worker_handles = queue.spawn_workers(config.workers);
        Ok(Server {
            listener,
            wake,
            state,
            worker_handles,
            stop: Arc::new(AtomicBool::new(false)),
            max_body_bytes: config.max_body_bytes,
            client_timeout: config.client_timeout,
        })
    }

    /// The bound address (read the ephemeral port from here).
    ///
    /// # Errors
    ///
    /// Propagates the OS error from `local_addr` (practically infallible).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Shared state — exposed for in-process tests and the binary.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// A handle that stops the accept loop from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            stop: self.stop.clone(),
            wake: self.wake,
            cancel_state: self.state.clone(),
        }
    }

    /// Accepts connections until shutdown, then drains: accepted jobs
    /// finish, their responses are written, workers exit, and `run`
    /// returns.
    ///
    /// The accept blocks; [`ShutdownHandle::shutdown`] wakes it with a
    /// loopback connect. Every return from `accept` checks the stop flag
    /// first, so the connection it returned once the flag is set (the
    /// wake, or a late client) is dropped unanswered.
    pub fn run(self) {
        let connections = Arc::new(Connections::default());
        while !self.stop.load(Ordering::SeqCst) {
            let accepted = self.listener.accept();
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            match accepted {
                Ok((stream, _)) => {
                    let state = self.state.clone();
                    let guard = connections.enter();
                    let max_body = self.max_body_bytes;
                    let client_timeout = self.client_timeout;
                    // One thread per connection: connections are
                    // short-lived (Connection: close) and the expensive
                    // part is bounded by the worker pool, not by
                    // connection count. A failed spawn drops the closure
                    // and with it the guard and the stream.
                    let _ = std::thread::Builder::new()
                        .name("raven-serve-conn".to_string())
                        .spawn(move || {
                            let _guard = guard;
                            handle_connection(&state, stream, max_body, client_timeout);
                        });
                }
                // Out of descriptors or a connection reset before it was
                // accepted: back off briefly instead of spinning.
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        // Graceful drain: stop admission, finish every accepted job, let
        // the waiting connections write their responses, join workers.
        self.state.queue.shutdown_and_drain();
        connections.wait_idle(Duration::from_secs(10));
        for handle in self.worker_handles {
            let _ = handle.join();
        }
        // Workers are joined, so every terminal record is already
        // appended: the clean-shutdown marker is genuinely last. The next
        // boot's replay sees it and skips the crash-rescue scan entirely.
        if let Some(journal) = &self.state.journal {
            let _ = journal.append(&Record::CleanShutdown, true);
            let _ = journal.sync();
        }
    }
}

/// Materializes the replayed journal into live server state: terminal
/// outcomes become preset job slots (completed cacheable verdicts also
/// re-warm the LRU), jobs that were running at two separate crashes are
/// quarantined as poison, and interrupted jobs are re-enqueued.
fn recover(state: &Arc<ServerState>, journal: &Journal, replay: &ReplayState) {
    let mut ids: Vec<u64> = replay.jobs.keys().copied().collect();
    ids.sort_unstable(); // deterministic re-enqueue order
    for id in ids {
        let job = &replay.jobs[&id];
        let slot: Arc<JobSlot> = match &job.terminal {
            Some(ReplayTerminal::Completed {
                envelope,
                cacheable,
            }) => {
                if *cacheable {
                    if let (Some(property), Some(body)) = (&job.property, &job.body) {
                        api::restore_cached_verdict(state, property, body, envelope);
                    }
                }
                JobSlot::preset(JobState::Done(envelope.clone()))
            }
            Some(ReplayTerminal::Failed(error)) => JobSlot::preset(JobState::Failed(error.clone())),
            Some(ReplayTerminal::Quarantined) => JobSlot::preset(JobState::Quarantined),
            None if replay.clean_shutdown => {
                // A clean shutdown drained every accepted job; a submit
                // with no terminal can only be journal loss (size-cap
                // deletion) — nothing recoverable.
                continue;
            }
            None if job.crash_weight >= 2 => {
                // Poison: running at two separate process deaths while
                // *locally* executing. Crashes that happened while an older
                // server had the job out on a remote worker are excused by
                // their `RemoteAttempt` records — a remote solve cannot have
                // crashed this process. Pin the verdict so later restarts
                // don't re-count.
                metrics::QUARANTINED_JOBS.inc();
                let _ = journal.append(&Record::Quarantined { id }, true);
                JobSlot::preset(JobState::Quarantined)
            }
            None => {
                let (Some(property), Some(body)) = (&job.property, &job.body) else {
                    continue; // Started whose Submitted record was lost
                };
                match api::resubmit_recovered(state, id, property, body) {
                    Ok(slot) => {
                        metrics::RECOVERED_JOBS.inc();
                        slot
                    }
                    Err(error) => {
                        // Pin the failure so the next restart doesn't
                        // retry a job that can no longer run.
                        let _ = journal.append(
                            &Record::Failed {
                                id,
                                error: error.clone(),
                            },
                            false,
                        );
                        JobSlot::preset(JobState::Failed(error))
                    }
                }
            }
        };
        if let Some(key) = &job.key {
            state
                .idempotency
                .lock()
                .expect("idempotency lock")
                .insert(key.clone(), id);
        }
        state.jobs.lock().expect("jobs lock").insert(id, slot);
    }
}

/// Serves one connection: read request, route, write response.
fn handle_connection(
    state: &Arc<ServerState>,
    mut stream: TcpStream,
    max_body: usize,
    client_timeout: Duration,
) {
    // A stuck peer must not pin the connection thread forever — neither a
    // client that stops sending (read) nor one that stops draining its
    // receive window while we write a large response body (write).
    let _ = stream.set_read_timeout(Some(client_timeout));
    let _ = stream.set_write_timeout(Some(client_timeout));
    match http::read_request(&mut stream, max_body) {
        Ok(request) => {
            let reply = api::handle(state, &request);
            http::write_response(
                &mut stream,
                reply.status,
                reply.content_type,
                &reply.headers,
                &reply.body,
            );
        }
        Err(e) => {
            let body =
                raven_json::Json::obj([("error", raven_json::Json::from(e.message.as_str()))])
                    .to_string();
            http::write_json_response(&mut stream, e.status, &body);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::wake_addr;
    use std::net::SocketAddr;

    #[test]
    fn wake_addr_replaces_only_an_unspecified_ip_with_loopback() {
        for (bound, wake) in [
            ("0.0.0.0:8473", "127.0.0.1:8473"),
            ("[::]:8473", "[::1]:8473"),
            ("127.0.0.1:8473", "127.0.0.1:8473"),
            ("10.1.2.3:8473", "10.1.2.3:8473"),
            ("[fe80::1]:8473", "[fe80::1]:8473"),
        ] {
            let bound: SocketAddr = bound.parse().unwrap();
            assert_eq!(wake_addr(bound), wake.parse().unwrap(), "{bound}");
        }
    }
}
