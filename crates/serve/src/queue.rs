//! Bounded job queue, worker pool, and watchdog supervision.
//!
//! Every verification — synchronous endpoint or async job — goes through
//! one bounded queue drained by a fixed pool of worker threads, giving the
//! server its load-shedding and reliability properties:
//!
//! * **Backpressure**: `submit` fails immediately when the queue is full;
//!   the API layer turns that into HTTP 429 instead of letting latency
//!   grow without bound.
//! * **Graceful drain**: shutdown stops *admission* but lets workers
//!   finish every job already accepted (running and queued) before
//!   joining — an accepted job is a promise.
//! * **Supervision**: a watchdog thread detects jobs running past
//!   `deadline + grace` (the solver budget should have degraded them; if
//!   it didn't, the solver is wedged) and cancels them through their
//!   per-job cancel flag. Panicked jobs are retried with per-job
//!   exponential backoff (when retries are configured) before failing,
//!   and worker threads that die unexpectedly are respawned.
//! * **Durability hooks**: optional callbacks fire when a worker picks a
//!   job up and when it reaches a terminal state, letting the server
//!   journal `Started`/`Completed`/`Failed` records without the queue
//!   knowing what a journal is.
//!
//! Worker-count resolution reuses `raven::par::resolve_threads` (0 = all
//! cores), the same convention as the in-verifier parallel layer.

use raven_json::Json;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

thread_local! {
    /// 1-based attempt number of the job executing on this worker thread
    /// (0 outside a job) — lets a job body observe that it is a retry.
    static CURRENT_ATTEMPT: Cell<u32> = const { Cell::new(0) };
}

/// The attempt number of the job running on the calling worker thread
/// (1 for a first run, 2+ for panic-recovery retries, 0 outside a job).
pub(crate) fn current_attempt() -> u32 {
    CURRENT_ATTEMPT.with(|a| a.get())
}

/// The work a job performs: produce a response object or an error string.
/// `Fn` (not `FnOnce`) so a panicked attempt can be retried.
pub type JobFn = Box<dyn Fn() -> Result<Json, String> + Send>;

/// Callback fired when a worker picks a job up (once per attempt).
pub type StartedHook = Box<dyn Fn(u64) + Send + Sync>;

/// Callback fired when a job reaches a terminal state.
pub type TerminalHook = Box<dyn Fn(u64, &JobState) + Send + Sync>;

/// Observable lifecycle of one job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished successfully, response attached.
    Done(Json),
    /// Finished with an error.
    Failed(String),
    /// Poison: replay found it crashed the process repeatedly; it will
    /// not be retried (only set during restart recovery).
    Quarantined,
}

impl JobState {
    /// Short status string used in API responses.
    pub fn status(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
            JobState::Quarantined => "quarantined",
        }
    }

    fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done(_) | JobState::Failed(_) | JobState::Quarantined
        )
    }
}

/// Shared slot a submitter can wait on.
#[derive(Debug)]
pub struct JobSlot {
    state: Mutex<JobState>,
    cv: Condvar,
}

impl JobSlot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(JobState::Queued),
            cv: Condvar::new(),
        })
    }

    /// A slot pre-set to `state` — restart recovery materializes replayed
    /// terminal jobs (done / failed / quarantined) this way.
    pub fn preset(state: JobState) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(state),
            cv: Condvar::new(),
        })
    }

    fn set(&self, state: JobState) {
        *self.state.lock().expect("job slot lock") = state;
        self.cv.notify_all();
    }

    /// Snapshot of the current state.
    pub fn state(&self) -> JobState {
        self.state.lock().expect("job slot lock").clone()
    }

    /// Blocks until the job reaches a terminal state or `timeout` elapses;
    /// returns `None` on timeout.
    pub fn wait_terminal(&self, timeout: Duration) -> Option<JobState> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().expect("job slot lock");
        while !state.is_terminal() {
            let left = deadline.checked_duration_since(Instant::now())?;
            let (next, wait) = self.cv.wait_timeout(state, left).expect("job slot wait");
            state = next;
            if wait.timed_out() && !state.is_terminal() {
                return None;
            }
        }
        Some(state.clone())
    }
}

/// Per-job scheduling metadata the queue and watchdog act on.
#[derive(Debug, Clone, Default)]
pub struct JobMeta {
    /// The job's solve deadline (measured from worker pickup). The
    /// watchdog kills the job `grace` past it; `None` disables
    /// supervision for this job.
    pub deadline: Option<Duration>,
    /// Per-job cancel flag; the job's `RunHooks` must watch it (the
    /// watchdog sets it to kill a wedged job without touching its
    /// neighbours). `None` makes the job unkillable.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Distributed-trace context minted at admission. The worker installs
    /// it on its thread for the duration of the job (every attempt), so
    /// solver spans attach to the owning request; the queue discards the
    /// trace buffer as a backstop once the job is terminal.
    pub trace: Option<raven_obs::TraceCtx>,
}

/// One accepted-but-not-yet-running job.
struct Pending {
    id: u64,
    job: JobFn,
    slot: Arc<JobSlot>,
    meta: JobMeta,
    /// Completed execution attempts (0 for a fresh job).
    attempts: u32,
    /// Retry backoff: not eligible to run before this instant.
    not_before: Option<Instant>,
    /// Submission time, recorded only while telemetry is enabled (feeds
    /// the queue-wait histogram when a worker picks the job up).
    submitted_at: Option<Instant>,
}

/// A job currently executing on a worker, visible to the watchdog.
struct Running {
    started: Instant,
    meta: JobMeta,
    /// Set by the watchdog when it cancels this job (distinguishes a
    /// watchdog kill from a shutdown cancellation).
    killed: Arc<AtomicBool>,
}

struct QueueInner {
    queue: VecDeque<Pending>,
    running: HashMap<u64, Running>,
    shutdown: bool,
}

/// Counter snapshot for `/v1/healthz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Jobs waiting for a worker.
    pub queued: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Queue capacity (bound on `queued`).
    pub capacity: usize,
    /// Total accepted submissions.
    pub submitted: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs finished with an error.
    pub failed: u64,
    /// Submissions rejected because the queue was full.
    pub rejected: u64,
    /// Panicked attempts re-enqueued with backoff.
    pub retried: u64,
    /// Wedged jobs cancelled by the watchdog.
    pub watchdog_kills: u64,
}

/// Supervision tunables (watchdog + retry policy).
#[derive(Debug, Clone, Copy)]
pub struct Supervision {
    /// How long past a job's deadline the watchdog waits before killing
    /// it. The solver budget should have degraded the job at its
    /// deadline; `grace` later, the solver is assumed wedged.
    pub grace: Duration,
    /// Maximum re-executions of a panicked job before it fails for good.
    pub max_retries: u32,
}

impl Default for Supervision {
    fn default() -> Self {
        Self {
            grace: Duration::from_secs(2),
            max_retries: 0,
        }
    }
}

/// Durability callbacks (set once at construction, before any worker runs).
#[derive(Default)]
pub struct QueueHooks {
    /// Fired when a worker picks a job up (once per attempt), before the
    /// job body executes — journal `Started` records hang off this.
    pub on_started: Option<StartedHook>,
    /// Fired when a job reaches a terminal state (after the slot is set).
    pub on_terminal: Option<TerminalHook>,
}

/// The bounded queue; workers are attached by [`JobQueue::spawn_workers`].
pub struct JobQueue {
    inner: Mutex<QueueInner>,
    cv: Condvar,
    capacity: usize,
    supervision: Supervision,
    hooks: QueueHooks,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    retried: AtomicU64,
    watchdog_kills: AtomicU64,
    /// Live worker threads (guard-decremented even on panic-unwind) vs the
    /// target count, compared by the watchdog to respawn dead workers.
    workers_alive: AtomicUsize,
    workers_target: AtomicUsize,
}

/// `submit` failure: the queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

/// Decrements `workers_alive` when a worker thread exits for any reason,
/// including a panic unwinding through the worker loop.
struct WorkerGuard<'a>(&'a AtomicUsize);

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl JobQueue {
    /// Creates a queue admitting at most `capacity` waiting jobs, with
    /// default supervision and no durability hooks.
    pub fn new(capacity: usize) -> Arc<Self> {
        Self::with_options(capacity, Supervision::default(), QueueHooks::default())
    }

    /// Creates a queue with explicit supervision tunables and hooks.
    pub fn with_options(capacity: usize, supervision: Supervision, hooks: QueueHooks) -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(QueueInner {
                queue: VecDeque::new(),
                running: HashMap::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            capacity,
            supervision,
            hooks,
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            watchdog_kills: AtomicU64::new(0),
            workers_alive: AtomicUsize::new(0),
            workers_target: AtomicUsize::new(0),
        })
    }

    /// Submits a job, returning its wait slot.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when the queue holds `capacity` waiting jobs or the
    /// queue is shutting down (no new promises during drain).
    pub fn submit(&self, id: u64, meta: JobMeta, job: JobFn) -> Result<Arc<JobSlot>, QueueFull> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.shutdown || inner.queue.len() >= self.capacity {
            drop(inner);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            crate::metrics::QUEUE_REJECTED.inc();
            return Err(QueueFull);
        }
        let slot = JobSlot::new();
        inner.queue.push_back(Pending {
            id,
            job,
            slot: slot.clone(),
            meta,
            attempts: 0,
            not_before: None,
            submitted_at: raven_obs::enabled().then(Instant::now),
        });
        crate::metrics::QUEUE_DEPTH.set(inner.queue.len() as i64);
        self.submitted.fetch_add(1, Ordering::Relaxed);
        crate::metrics::QUEUE_SUBMITTED.inc();
        drop(inner);
        self.cv.notify_one();
        Ok(slot)
    }

    /// Spawns `workers` threads draining the queue plus the watchdog
    /// thread supervising them; all handles are returned for joining.
    pub fn spawn_workers(self: &Arc<Self>, workers: usize) -> Vec<std::thread::JoinHandle<()>> {
        let workers = raven::par::resolve_threads(workers);
        self.workers_target.store(workers, Ordering::SeqCst);
        let mut handles: Vec<_> = (0..workers).map(|i| self.spawn_worker(i)).collect();
        let queue = self.clone();
        handles.push(
            std::thread::Builder::new()
                .name("raven-serve-watchdog".to_string())
                .spawn(move || queue.watchdog_loop())
                .expect("spawn watchdog thread"),
        );
        handles
    }

    fn spawn_worker(self: &Arc<Self>, index: usize) -> std::thread::JoinHandle<()> {
        self.workers_alive.fetch_add(1, Ordering::SeqCst);
        let queue = self.clone();
        std::thread::Builder::new()
            .name(format!("raven-serve-worker-{index}"))
            .spawn(move || {
                // Span-stack hygiene on (re)spawn: the watchdog respawns
                // workers through this same path after a fatal panic, and
                // the replacement thread must start with no span ancestry.
                raven_obs::reset_thread_spans();
                let _guard = WorkerGuard(&queue.workers_alive);
                queue.worker_loop();
            })
            .expect("spawn worker thread")
    }

    /// Pops the first runnable pending job (its backoff window elapsed),
    /// or reports how long until one becomes runnable.
    fn pop_ready(inner: &mut QueueInner) -> Result<Pending, Option<Duration>> {
        let now = Instant::now();
        let position = inner
            .queue
            .iter()
            .position(|p| p.not_before.is_none_or(|t| t <= now));
        match position {
            Some(i) => Ok(inner.queue.remove(i).expect("indexed pending job")),
            None => Err(inner
                .queue
                .iter()
                .filter_map(|p| p.not_before)
                .min()
                .map(|t| t.saturating_duration_since(now))),
        }
    }

    fn worker_loop(&self) {
        loop {
            let mut inner = self.inner.lock().expect("queue lock");
            loop {
                match Self::pop_ready(&mut inner) {
                    Ok(pending) => {
                        self.execute(inner, pending);
                        break; // re-enter the outer loop with a fresh lock
                    }
                    Err(Some(wait)) => {
                        // Only backoff jobs remain: sleep until the
                        // earliest becomes runnable (or a new submission
                        // arrives and notifies).
                        let (next, _) = self
                            .cv
                            .wait_timeout(inner, wait)
                            .expect("queue backoff wait");
                        inner = next;
                    }
                    Err(None) => {
                        if inner.shutdown && inner.running.is_empty() {
                            return;
                        }
                        if inner.shutdown {
                            // Other workers may still retry-requeue their
                            // running jobs; poll rather than block forever.
                            let (next, _) = self
                                .cv
                                .wait_timeout(inner, Duration::from_millis(50))
                                .expect("queue drain wait");
                            inner = next;
                        } else {
                            inner = self.cv.wait(inner).expect("queue wait");
                        }
                    }
                }
            }
        }
    }

    /// Runs one picked job to a terminal state or a retry re-enqueue.
    /// Consumes the queue lock (held on entry, released while executing).
    fn execute(&self, mut inner: std::sync::MutexGuard<'_, QueueInner>, pending: Pending) {
        let Pending {
            id,
            job,
            slot,
            meta,
            attempts,
            not_before: _,
            submitted_at,
        } = pending;
        let killed = Arc::new(AtomicBool::new(false));
        inner.running.insert(
            id,
            Running {
                started: Instant::now(),
                meta: meta.clone(),
                killed: killed.clone(),
            },
        );
        crate::metrics::QUEUE_DEPTH.set(inner.queue.len() as i64);
        crate::metrics::WORKERS_BUSY.add(1);
        drop(inner);
        if let Some(t) = submitted_at {
            crate::metrics::WAIT_SECONDS.observe(t.elapsed().as_secs_f64());
        }
        let service_timer = raven_obs::Timer::start(&crate::metrics::SERVICE_SECONDS);
        // The durable Started record comes first: a client that sees
        // "running" and then kills the process must leave a crash
        // signature behind.
        if let Some(hook) = &self.hooks.on_started {
            hook(id);
        }
        slot.set(JobState::Running);
        // Job-start hygiene: a span leaked by a previous panicked job on
        // this (reused) thread must never parent this job's spans.
        raven_obs::reset_thread_spans();
        // Install the owning request's trace context for the job body (and
        // record which attempt this is, for the tail sampler's retry rule).
        raven_obs::set_current_trace(meta.trace);
        CURRENT_ATTEMPT.with(|a| a.set(attempts + 1));
        // A panicking job must not kill the worker: catch it and either
        // retry (transient, bounded) or record a failure.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&job));
        CURRENT_ATTEMPT.with(|a| a.set(0));
        raven_obs::set_current_trace(None);
        // A panic unwound past the job's spans without popping cleanly in
        // every case; clear again so the stack is empty either way.
        raven_obs::reset_thread_spans();
        drop(service_timer);
        crate::metrics::WORKERS_BUSY.sub(1);
        let attempts = attempts + 1;
        let terminal = match outcome {
            Ok(Ok(response)) => Some(JobState::Done(response)),
            Ok(Err(message)) => {
                if killed.load(Ordering::SeqCst) {
                    // The run was cancelled by the watchdog, not shutdown:
                    // name the real cause. No retry — the job already
                    // consumed deadline + grace once.
                    Some(JobState::Failed(format!(
                        "job exceeded its deadline plus grace and was \
                         cancelled by the watchdog ({message})"
                    )))
                } else {
                    Some(JobState::Failed(message))
                }
            }
            Err(_) => {
                if attempts <= self.supervision.max_retries {
                    None // retry below
                } else {
                    Some(JobState::Failed("verification panicked".to_string()))
                }
            }
        };
        let mut inner = self.inner.lock().expect("queue lock");
        inner.running.remove(&id);
        match terminal {
            Some(state) => {
                match &state {
                    JobState::Done(_) => {
                        self.completed.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {
                        self.failed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                slot.set(state.clone());
                drop(inner);
                if let Some(hook) = &self.hooks.on_terminal {
                    hook(id, &state);
                }
                // Backstop: a job that panicked past its own trace finish
                // leaves its ring buffer behind — release it (idempotent;
                // a normally-finished trace was already drained).
                if let Some(ctx) = meta.trace {
                    raven_obs::discard_trace(ctx);
                }
                let inner = self.inner.lock().expect("queue lock");
                // Wake drain waiters (and fellow workers, harmlessly).
                self.cv.notify_all();
                drop(inner);
            }
            None => {
                // Exponential backoff: 100ms, 200ms, 400ms, ... capped at
                // a few seconds so drains stay bounded.
                let backoff =
                    Duration::from_millis(100u64.saturating_mul(1 << (attempts - 1).min(5)));
                self.retried.fetch_add(1, Ordering::Relaxed);
                crate::metrics::JOB_RETRIES.inc();
                slot.set(JobState::Queued);
                // Bypass the capacity check: the job was already admitted.
                inner.queue.push_back(Pending {
                    id,
                    job,
                    slot,
                    meta,
                    attempts,
                    not_before: Some(Instant::now() + backoff),
                    submitted_at: raven_obs::enabled().then(Instant::now),
                });
                crate::metrics::QUEUE_DEPTH.set(inner.queue.len() as i64);
                self.cv.notify_all();
                drop(inner);
            }
        }
    }

    /// Watchdog: kills jobs wedged past `deadline + grace` (through their
    /// per-job cancel flag) and respawns worker threads that died. Exits
    /// when the queue has shut down and drained.
    fn watchdog_loop(self: Arc<Self>) {
        loop {
            {
                let inner = self.inner.lock().expect("queue lock");
                if inner.shutdown && inner.queue.is_empty() && inner.running.is_empty() {
                    return;
                }
                let now = Instant::now();
                for running in inner.running.values() {
                    let (Some(deadline), Some(cancel)) =
                        (running.meta.deadline, running.meta.cancel.as_ref())
                    else {
                        continue;
                    };
                    let overdue = now.saturating_duration_since(running.started)
                        > deadline + self.supervision.grace;
                    if overdue && !running.killed.swap(true, Ordering::SeqCst) {
                        cancel.store(true, Ordering::SeqCst);
                        self.watchdog_kills.fetch_add(1, Ordering::Relaxed);
                        crate::metrics::WATCHDOG_KILLS.inc();
                    }
                }
                if !inner.shutdown {
                    let alive = self.workers_alive.load(Ordering::SeqCst);
                    let target = self.workers_target.load(Ordering::SeqCst);
                    for i in alive..target {
                        drop(self.spawn_worker(i));
                        crate::metrics::WORKER_RESTARTS.inc();
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Stops admission and blocks until every accepted job has finished
    /// (the workers then exit on their own).
    pub fn shutdown_and_drain(&self) {
        let mut inner = self.inner.lock().expect("queue lock");
        inner.shutdown = true;
        self.cv.notify_all();
        while !inner.queue.is_empty() || !inner.running.is_empty() {
            // Timed wait: backoff-delayed retries reach runnability by
            // clock, not by notification.
            let (next, _) = self
                .cv
                .wait_timeout(inner, Duration::from_millis(50))
                .expect("drain wait");
            inner = next;
        }
    }

    /// Live counters.
    pub fn stats(&self) -> QueueStats {
        let inner = self.inner.lock().expect("queue lock");
        QueueStats {
            queued: inner.queue.len(),
            running: inner.running.len(),
            capacity: self.capacity,
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            watchdog_kills: self.watchdog_kills.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_job(n: f64) -> JobFn {
        Box::new(move || Ok(Json::Num(n)))
    }

    #[test]
    fn jobs_complete_and_counters_advance() {
        let queue = JobQueue::new(8);
        let workers = queue.spawn_workers(2);
        let slot = queue.submit(1, JobMeta::default(), ok_job(7.0)).unwrap();
        let state = slot.wait_terminal(Duration::from_secs(5)).unwrap();
        assert_eq!(state, JobState::Done(Json::Num(7.0)));
        queue.shutdown_and_drain();
        for w in workers {
            w.join().unwrap();
        }
        let stats = queue.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!((stats.queued, stats.running), (0, 0));
    }

    #[test]
    fn full_queue_rejects_with_429_semantics() {
        // No workers: nothing drains, so capacity is exhausted by
        // submission alone — deterministic.
        let queue = JobQueue::new(2);
        queue.submit(1, JobMeta::default(), ok_job(1.0)).unwrap();
        queue.submit(2, JobMeta::default(), ok_job(2.0)).unwrap();
        assert_eq!(
            queue
                .submit(3, JobMeta::default(), ok_job(3.0))
                .unwrap_err(),
            QueueFull
        );
        assert_eq!(queue.stats().rejected, 1);
        // Drain by spawning a worker afterwards.
        let workers = queue.spawn_workers(1);
        queue.shutdown_and_drain();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(queue.stats().completed, 2);
    }

    #[test]
    fn shutdown_drains_queued_jobs_before_returning() {
        let queue = JobQueue::new(16);
        let workers = queue.spawn_workers(1);
        let slots: Vec<_> = (0..5)
            .map(|i| {
                queue
                    .submit(
                        i,
                        JobMeta::default(),
                        Box::new(move || {
                            std::thread::sleep(Duration::from_millis(20));
                            Ok(Json::Num(i as f64))
                        }) as JobFn,
                    )
                    .unwrap()
            })
            .collect();
        queue.shutdown_and_drain();
        for (i, slot) in slots.iter().enumerate() {
            assert_eq!(slot.state(), JobState::Done(Json::Num(i as f64)), "job {i}");
        }
        assert!(
            queue.submit(99, JobMeta::default(), ok_job(0.0)).is_err(),
            "no admission after shutdown"
        );
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn failed_and_panicking_jobs_are_contained() {
        let queue = JobQueue::new(8);
        let workers = queue.spawn_workers(1);
        let bad = queue
            .submit(
                1,
                JobMeta::default(),
                Box::new(|| Err("nope".to_string())) as JobFn,
            )
            .unwrap();
        let panicky = queue
            .submit(
                2,
                JobMeta::default(),
                Box::new(|| -> Result<Json, String> { panic!("boom") }) as JobFn,
            )
            .unwrap();
        let good = queue.submit(3, JobMeta::default(), ok_job(1.0)).unwrap();
        assert_eq!(
            bad.wait_terminal(Duration::from_secs(5)).unwrap(),
            JobState::Failed("nope".to_string())
        );
        assert!(matches!(
            panicky.wait_terminal(Duration::from_secs(5)).unwrap(),
            JobState::Failed(_)
        ));
        assert!(matches!(
            good.wait_terminal(Duration::from_secs(5)).unwrap(),
            JobState::Done(_)
        ));
        queue.shutdown_and_drain();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(queue.stats().failed, 2);
    }

    #[test]
    fn wait_terminal_times_out_on_unserviced_queue() {
        let queue = JobQueue::new(4);
        let slot = queue.submit(1, JobMeta::default(), ok_job(0.0)).unwrap();
        assert!(slot.wait_terminal(Duration::from_millis(30)).is_none());
        assert_eq!(slot.state().status(), "queued");
    }

    #[test]
    fn panicked_jobs_retry_with_backoff_until_success() {
        use std::sync::atomic::AtomicU32;
        let queue = JobQueue::with_options(
            8,
            Supervision {
                grace: Duration::from_secs(2),
                max_retries: 2,
            },
            QueueHooks::default(),
        );
        let workers = queue.spawn_workers(1);
        let attempts = Arc::new(AtomicU32::new(0));
        let seen = attempts.clone();
        let job: JobFn = Box::new(move || {
            // First two attempts panic; the third succeeds.
            if seen.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("transient");
            }
            Ok(Json::Num(42.0))
        });
        let slot = queue.submit(1, JobMeta::default(), job).unwrap();
        let state = slot.wait_terminal(Duration::from_secs(10)).unwrap();
        assert_eq!(state, JobState::Done(Json::Num(42.0)));
        assert_eq!(attempts.load(Ordering::SeqCst), 3);
        let stats = queue.stats();
        assert_eq!(stats.retried, 2);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);
        queue.shutdown_and_drain();
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn retries_exhaust_into_failure() {
        let queue = JobQueue::with_options(
            8,
            Supervision {
                grace: Duration::from_secs(2),
                max_retries: 1,
            },
            QueueHooks::default(),
        );
        let workers = queue.spawn_workers(1);
        let job: JobFn = Box::new(|| panic!("always"));
        let slot = queue.submit(1, JobMeta::default(), job).unwrap();
        let state = slot.wait_terminal(Duration::from_secs(10)).unwrap();
        assert!(matches!(state, JobState::Failed(_)), "{state:?}");
        let stats = queue.stats();
        assert_eq!(stats.retried, 1);
        assert_eq!(stats.failed, 1);
        queue.shutdown_and_drain();
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn watchdog_kills_jobs_stuck_past_deadline_plus_grace() {
        let queue = JobQueue::with_options(
            8,
            Supervision {
                grace: Duration::from_millis(100),
                max_retries: 0,
            },
            QueueHooks::default(),
        );
        let workers = queue.spawn_workers(1);
        let cancel = Arc::new(AtomicBool::new(false));
        let flag = cancel.clone();
        // A "wedged" job: ignores its deadline, polls only its cancel flag.
        let job: JobFn = Box::new(move || {
            let deadline = Instant::now() + Duration::from_secs(30);
            while !flag.load(Ordering::SeqCst) {
                if Instant::now() > deadline {
                    return Ok(Json::Num(0.0)); // test failed: never killed
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err("cancelled".to_string())
        });
        let meta = JobMeta {
            deadline: Some(Duration::from_millis(100)),
            cancel: Some(cancel),
            trace: None,
        };
        let slot = queue.submit(1, meta, job).unwrap();
        let state = slot.wait_terminal(Duration::from_secs(10)).unwrap();
        match state {
            JobState::Failed(message) => {
                assert!(message.contains("watchdog"), "names the killer: {message}");
            }
            other => panic!("expected watchdog failure, got {other:?}"),
        }
        assert_eq!(queue.stats().watchdog_kills, 1);
        queue.shutdown_and_drain();
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn started_and_terminal_hooks_fire_per_attempt() {
        use std::sync::atomic::AtomicU32;
        let starts = Arc::new(AtomicU32::new(0));
        let terminals = Arc::new(AtomicU32::new(0));
        let (s, t) = (starts.clone(), terminals.clone());
        let queue = JobQueue::with_options(
            8,
            Supervision {
                grace: Duration::from_secs(2),
                max_retries: 1,
            },
            QueueHooks {
                on_started: Some(Box::new(move |_| {
                    s.fetch_add(1, Ordering::SeqCst);
                })),
                on_terminal: Some(Box::new(move |_, state| {
                    assert!(state.is_terminal());
                    t.fetch_add(1, Ordering::SeqCst);
                })),
            },
        );
        let workers = queue.spawn_workers(1);
        let attempts = Arc::new(AtomicU32::new(0));
        let seen = attempts.clone();
        let job: JobFn = Box::new(move || {
            if seen.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient");
            }
            Ok(Json::Num(1.0))
        });
        let slot = queue.submit(1, JobMeta::default(), job).unwrap();
        slot.wait_terminal(Duration::from_secs(10)).unwrap();
        queue.shutdown_and_drain();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(starts.load(Ordering::SeqCst), 2, "one start per attempt");
        assert_eq!(terminals.load(Ordering::SeqCst), 1, "one terminal total");
    }

    #[test]
    fn quarantined_is_terminal_and_reports_its_status() {
        let slot = JobSlot::preset(JobState::Quarantined);
        assert_eq!(slot.state().status(), "quarantined");
        assert_eq!(
            slot.wait_terminal(Duration::from_millis(10)),
            Some(JobState::Quarantined)
        );
    }
}
