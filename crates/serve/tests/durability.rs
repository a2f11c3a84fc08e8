//! Durability tests: a real `raven_serve` *process* with a write-ahead
//! journal, killed and restarted.
//!
//! These are the crash-safety acceptance tests:
//! * `kill -9` mid-flight loses no submitted job — queued and running
//!   jobs are re-enqueued on restart and complete; already-terminal
//!   verdicts are replayed byte-identically and served from the restored
//!   cache;
//! * a job that crashes the server twice is quarantined, not retried a
//!   third time;
//! * SIGTERM writes a clean-shutdown marker, and the next boot reports it
//!   (`raven_serve_journal_clean_shutdown 1`);
//! * the same `Idempotency-Key` never enqueues duplicate solver work —
//!   pinned via the LP-solve counter — within a process lifetime and
//!   across a restart.
//!
//! Each test owns a private journal directory and child process, so the
//! tests are parallel-safe. The child binary comes from
//! `CARGO_BIN_EXE_raven_serve` (built by `cargo test -p raven-serve`).
#![cfg(unix)]

use raven_json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// A fresh, test-private journal directory under the target dir (kept on
/// failure for post-mortem, recreated empty on the next run).
fn journal_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("journal-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create journal dir");
    dir
}

/// A spawned server process, SIGKILLed on drop so a failing assertion
/// cannot leak a child holding the journal.
struct ServerProc {
    child: Child,
    addr: Option<SocketAddr>,
}

impl ServerProc {
    /// Spawns `raven_serve` on an ephemeral port with the given journal
    /// dir, extra flags, and environment; waits for the listening line on
    /// stderr. `addr` is `None` when the process exits before it starts
    /// listening (expected for crash-on-recovery chaos runs).
    fn spawn(journal: &Path, extra_args: &[&str], envs: &[(&str, &str)]) -> ServerProc {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_raven_serve"));
        cmd.arg("--models-dir")
            .arg(repo_path("models"))
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--journal-dir")
            .arg(journal)
            .args(extra_args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("spawn raven_serve");
        let stderr = child.stderr.take().expect("piped stderr");
        let mut lines = BufReader::new(stderr).lines();
        let mut addr = None;
        for line in &mut lines {
            let line = line.expect("read child stderr");
            if let Some(rest) = line.strip_prefix("raven-serve listening on http://") {
                // A chaos run can abort mid-line; a cut-off address counts
                // as not listening, like no line at all.
                addr = rest.trim().parse().ok();
                break;
            }
        }
        // Keep draining stderr so the child never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        ServerProc { child, addr }
    }

    fn addr(&self) -> SocketAddr {
        self.addr.expect("server reached the listening state")
    }

    /// SIGKILL — the crash the journal exists for.
    fn kill_nine(&mut self) {
        self.child.kill().expect("SIGKILL child");
        self.child.wait().expect("reap child");
    }

    /// SIGTERM — the graceful drain path.
    fn terminate(&mut self) {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGTERM: i32 = 15;
        assert_eq!(unsafe { kill(self.child.id() as i32, SIGTERM) }, 0);
    }

    /// Waits (bounded) for the child to exit on its own.
    fn wait_exit(&mut self, deadline: Duration) -> std::process::ExitStatus {
        let until = Instant::now() + deadline;
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status;
            }
            assert!(Instant::now() < until, "child did not exit in {deadline:?}");
            std::thread::sleep(Duration::from_millis(25));
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One HTTP request with optional extra headers; returns `(status, body)`.
fn request_with(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: raven\r\n");
    for (k, v) in headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    stream.write_all(head.as_bytes()).expect("send head");
    stream.write_all(body.as_bytes()).expect("send body");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {text:?}"));
    let raw_body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, raw_body)
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Json) {
    let (status, raw) = request_with(addr, method, path, &[], body);
    let parsed = Json::parse(&raw).unwrap_or_else(|e| panic!("unparseable body {raw:?}: {e}"));
    (status, parsed)
}

/// Reads one counter/gauge sample from `/v1/metrics`.
fn metric(addr: SocketAddr, name: &str) -> f64 {
    let (status, text) = request_with(addr, "GET", "/v1/metrics", &[], "");
    assert_eq!(status, 200);
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.rsplit_once(' '))
        .map(|(_, v)| v.parse().unwrap())
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn lp_solves(addr: SocketAddr) -> f64 {
    let (_, health) = request(addr, "GET", "/v1/healthz", "");
    health
        .get("stats")
        .and_then(|s| s.get("lp_solves"))
        .and_then(Json::as_f64)
        .expect("lp_solves stat")
}

fn demo_batch() -> (Vec<Vec<f64>>, Vec<usize>) {
    let text = std::fs::read_to_string(repo_path("models/demo_batch.txt")).expect("batch file");
    let mut inputs = Vec::new();
    let mut labels = Vec::new();
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        labels.push(parts.next().unwrap().parse().unwrap());
        inputs.push(parts.map(|t| t.parse().unwrap()).collect());
    }
    (inputs, labels)
}

fn uap_body(eps: f64, method: &str, extra: &[(&str, Json)]) -> String {
    let (inputs, labels) = demo_batch();
    let mut fields = vec![
        ("model".to_string(), Json::from("demo")),
        ("eps".to_string(), Json::from(eps)),
        ("method".to_string(), Json::from(method)),
        (
            "inputs".to_string(),
            Json::Arr(inputs.iter().map(|x| Json::num_array(x)).collect()),
        ),
        (
            "labels".to_string(),
            Json::Arr(labels.iter().map(|&l| Json::from(l)).collect()),
        ),
    ];
    for (k, v) in extra {
        fields.push((k.to_string(), v.clone()));
    }
    Json::Obj(fields).to_string()
}

/// A monotonicity query — always solves at least one LP, which is what
/// makes it the right probe for "no duplicate solver work".
fn mono_body() -> String {
    let (inputs, _) = demo_batch();
    Json::obj([
        ("model", Json::from("demo")),
        ("eps", Json::from(0.05)),
        ("method", Json::from("raven")),
        ("center", Json::num_array(&inputs[0])),
        ("feature", Json::from(0usize)),
        ("tau", Json::from(0.0)),
    ])
    .to_string()
}

/// Adds the `property` discriminator `/v1/jobs` needs.
fn with_property(body: &str, property: &str) -> String {
    let mut json = match Json::parse(body).unwrap() {
        Json::Obj(fields) => fields,
        _ => unreachable!("bodies are objects"),
    };
    json.push(("property".to_string(), Json::from(property)));
    Json::Obj(json).to_string()
}

fn submit_job(addr: SocketAddr, body: &str) -> u64 {
    let (status, reply) = request(addr, "POST", "/v1/jobs", body);
    assert_eq!(status, 202, "{reply}");
    reply.get("job_id").and_then(Json::as_f64).unwrap() as u64
}

fn job_status(addr: SocketAddr, id: u64) -> (String, Json) {
    let (status, job) = request(addr, "GET", &format!("/v1/jobs/{id}"), "");
    assert_eq!(status, 200, "{job}");
    let state = job
        .get("status")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    (state, job)
}

fn wait_for_status(addr: SocketAddr, id: u64, want: &str) -> Json {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (got, job) = job_status(addr, id);
        if got == want {
            return job;
        }
        assert_ne!(got, "failed", "job {id} failed: {job}");
        assert!(
            Instant::now() < deadline,
            "job {id} stuck in {got:?} waiting for {want:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn kill_nine_loses_no_jobs_and_replays_verdicts_byte_identically() {
    let dir = journal_dir("kill-nine");
    let mut server = ServerProc::spawn(&dir, &["--workers", "1"], &[]);
    let addr = server.addr();

    // One job runs to completion before the crash...
    let fast = with_property(&uap_body(0.01, "deeppoly", &[]), "uap");
    let done_id = submit_job(addr, &fast);
    let done_before = wait_for_status(addr, done_id, "done");

    // ...one is running and one is queued when the crash hits.
    let slow = with_property(
        &uap_body(0.01, "box", &[("delay_millis", Json::from(1500usize))]),
        "uap",
    );
    let running_id = submit_job(addr, &slow);
    wait_for_status(addr, running_id, "running");
    let queued_id = submit_job(addr, &slow);

    server.kill_nine();
    let mut revived = ServerProc::spawn(&dir, &["--workers", "1"], &[]);
    let addr = revived.addr();

    // The boot is flagged as crash recovery, and both live jobs came back.
    assert_eq!(metric(addr, "raven_serve_journal_clean_shutdown"), 0.0);
    assert!(metric(addr, "raven_serve_recovered_jobs_total") >= 2.0);

    // The terminal verdict replays byte-identically — envelope, timings
    // and all — without re-running the solver.
    let done_after = wait_for_status(addr, done_id, "done");
    assert_eq!(done_after.to_string(), done_before.to_string());

    // The replayed cacheable verdict also restocks the LRU: the same
    // synchronous query is a cache hit in the new process.
    let (status, reply) = request(
        addr,
        "POST",
        "/v1/verify/uap",
        &uap_body(0.01, "deeppoly", &[]),
    );
    assert_eq!(status, 200, "{reply}");
    assert_eq!(reply.get("cached").and_then(Json::as_bool), Some(true));

    // The interrupted jobs were re-enqueued and complete normally.
    wait_for_status(addr, running_id, "done");
    wait_for_status(addr, queued_id, "done");

    revived.terminate();
    assert!(revived.wait_exit(Duration::from_secs(30)).success());
}

#[test]
fn a_job_that_crashes_the_server_twice_is_quarantined() {
    let dir = journal_dir("quarantine");
    let slow = with_property(
        &uap_body(0.01, "box", &[("delay_millis", Json::from(60_000usize))]),
        "uap",
    );

    // Crash #1: SIGKILL while the job is running (Started, no terminal).
    let mut server = ServerProc::spawn(&dir, &["--workers", "1"], &[]);
    let id = submit_job(server.addr(), &slow);
    wait_for_status(server.addr(), id, "running");
    server.kill_nine();

    // Crash #2: recovery re-enqueues the job; the armed chaos abort kills
    // the process again the moment a worker picks it up.
    let mut crasher = ServerProc::spawn(
        &dir,
        &["--workers", "1"],
        &[("RAVEN_SERVE_CHAOS_ABORT_JOBS", "1")],
    );
    let status = crasher.wait_exit(Duration::from_secs(30));
    assert!(!status.success(), "chaos abort must crash the process");

    // Third boot: two crash signatures — the job is quarantined, pinned
    // in the journal, and never re-enqueued.
    let mut revived = ServerProc::spawn(&dir, &["--workers", "1"], &[]);
    let addr = revived.addr();
    assert!(metric(addr, "raven_serve_quarantined_jobs_total") >= 1.0);
    let (state, job) = job_status(addr, id);
    assert_eq!(state, "quarantined", "{job}");
    let error = job.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("quarantined"), "{error}");

    // Quarantine itself is durable: a fourth boot replays it as-is.
    revived.terminate();
    assert!(revived.wait_exit(Duration::from_secs(30)).success());
    let fourth = ServerProc::spawn(&dir, &["--workers", "1"], &[]);
    let (state, _) = job_status(fourth.addr(), id);
    assert_eq!(state, "quarantined");
}

/// Journals written by older servers, which could dispatch jobs to remote
/// worker processes, still recover as they did. The journal is written
/// here as those servers wrote it, raw frame by raw frame:
/// * job 1 ends Submitted/Started/`remote_attempt` with no terminal. The
///   crash happened while the work was in remote hands, so it is excused:
///   the job re-enqueues on recovery, and a *second*, genuinely local crash
///   still leaves the weight below the quarantine threshold (2) — the job
///   completes on the third boot instead of being quarantined;
/// * job 2 carries input-sharded `shard_attempt`/`shard_fallback`/
///   `shard_attempt` frames, which excuse its crash the same way;
/// * job 3 came back from its remote attempt (`local_fallback`) and was
///   started locally again: two unexcused crashes, so it is quarantined.
#[test]
fn remote_attempt_without_terminal_record_reenqueues_instead_of_quarantining() {
    let dir = journal_dir("remote-excuse");
    let record = |fields: Vec<(&str, Json)>| raven_serve::frame::encode(&Json::obj(fields));
    let id = |n: usize| ("id", Json::from(n));
    let mut wal = Vec::new();
    for (n, method) in [(1, "raven"), (2, "deeppoly"), (3, "deeppoly")] {
        wal.extend(record(vec![
            ("t", Json::from("submitted")),
            id(n),
            ("property", Json::from("uap")),
            (
                "body",
                Json::from(with_property(&uap_body(0.01, method, &[]), "uap")),
            ),
        ]));
        wal.extend(record(vec![("t", Json::from("started")), id(n)]));
    }
    let attempt = |t: &str, n: usize| {
        record(vec![
            ("t", Json::from(t)),
            id(n),
            ("worker", Json::from("w-1")),
        ])
    };
    wal.extend(attempt("remote_attempt", 1));
    wal.extend(attempt("shard_attempt", 2));
    wal.extend(record(vec![("t", Json::from("shard_fallback")), id(2)]));
    wal.extend(attempt("shard_attempt", 2));
    wal.extend(attempt("remote_attempt", 3));
    wal.extend(record(vec![("t", Json::from("local_fallback")), id(3)]));
    wal.extend(record(vec![("t", Json::from("started")), id(3)]));
    std::fs::write(dir.join("wal-00000001.log"), wal).expect("write old journal");

    // Crash #2: recovery quarantines job 3 and re-enqueues jobs 1 and 2
    // (their remote attempts excused crash #1); the armed chaos abort
    // kills the process locally the moment a worker picks job 1 up — a
    // real, unexcused crash.
    let mut crasher = ServerProc::spawn(
        &dir,
        &["--workers", "1"],
        &[("RAVEN_SERVE_CHAOS_ABORT_JOBS", "1")],
    );
    let status = crasher.wait_exit(Duration::from_secs(30));
    assert!(!status.success(), "chaos abort must crash the process");

    // Third boot: job 1's weight is 1 (crash #1 excused, crash #2 counted)
    // and job 2's is 0 — both are re-enqueued, not quarantined, and
    // complete. Job 3's quarantine was pinned by the previous boot.
    let revived = ServerProc::spawn(&dir, &["--workers", "1"], &[]);
    let addr = revived.addr();
    assert_eq!(metric(addr, "raven_serve_quarantined_jobs_total"), 0.0);
    assert!(metric(addr, "raven_serve_recovered_jobs_total") >= 2.0);
    wait_for_status(addr, 1, "done");
    wait_for_status(addr, 2, "done");
    let (state, job) = job_status(addr, 3);
    assert_eq!(state, "quarantined", "{job}");
}

#[test]
fn sigterm_writes_a_clean_shutdown_marker_the_next_boot_reports() {
    let dir = journal_dir("clean-shutdown");
    let mut server = ServerProc::spawn(&dir, &[], &[]);
    let addr = server.addr();

    // A fresh journal is not a clean shutdown — there is no marker yet.
    assert_eq!(metric(addr, "raven_serve_journal_clean_shutdown"), 0.0);
    let (status, reply) = request(
        addr,
        "POST",
        "/v1/verify/uap",
        &uap_body(0.01, "deeppoly", &[]),
    );
    assert_eq!(status, 200, "{reply}");

    server.terminate();
    assert!(server.wait_exit(Duration::from_secs(30)).success());

    // The next boot sees the marker, skips rescue work, and still replays
    // the completed verdict into the cache.
    let revived = ServerProc::spawn(&dir, &[], &[]);
    let addr = revived.addr();
    assert_eq!(metric(addr, "raven_serve_journal_clean_shutdown"), 1.0);
    assert_eq!(metric(addr, "raven_serve_recovered_jobs_total"), 0.0);
    let (status, reply) = request(
        addr,
        "POST",
        "/v1/verify/uap",
        &uap_body(0.01, "deeppoly", &[]),
    );
    assert_eq!(status, 200, "{reply}");
    assert_eq!(reply.get("cached").and_then(Json::as_bool), Some(true));
}

#[test]
fn idempotency_key_never_duplicates_solver_work_even_across_restart() {
    let dir = journal_dir("idempotency");
    // Cache disabled: any dedup observed here is the idempotency layer,
    // not the verdict cache.
    let args = ["--workers", "1", "--cache-capacity", "0"];
    let mut server = ServerProc::spawn(&dir, &args, &[]);
    let addr = server.addr();
    let body = mono_body();
    let key = [("Idempotency-Key", "retry-storm-42")];

    let (status, first) = request_with(addr, "POST", "/v1/verify/mono", &key, &body);
    assert_eq!(status, 200, "{first}");
    let solves_after_first = lp_solves(addr);
    assert!(
        solves_after_first >= 1.0,
        "monotonicity always solves an LP"
    );

    // The retried submission returns the original envelope byte-for-byte
    // and runs zero additional LP solves.
    let (status, second) = request_with(addr, "POST", "/v1/verify/mono", &key, &body);
    assert_eq!(status, 200, "{second}");
    assert_eq!(second, first);
    assert_eq!(lp_solves(addr), solves_after_first);
    assert!(metric(addr, "raven_serve_idempotent_hits_total") >= 1.0);

    // The async surface dedupes against the same key: no new job id.
    let (status, reply) = request_with(
        addr,
        "POST",
        "/v1/jobs",
        &key,
        &with_property(&body, "monotonicity"),
    );
    assert_eq!(status, 200, "{reply}");
    let reply = Json::parse(&reply).unwrap();
    assert_eq!(reply.get("idempotent").and_then(Json::as_bool), Some(true));
    let id = reply.get("job_id").and_then(Json::as_f64).unwrap() as u64;
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("done"));

    // The key survives a restart via the journal: the new process answers
    // the retry from the replayed verdict with zero solver work.
    server.terminate();
    assert!(server.wait_exit(Duration::from_secs(30)).success());
    let revived = ServerProc::spawn(&dir, &args, &[]);
    let addr = revived.addr();
    let (status, reply) = request_with(
        addr,
        "POST",
        "/v1/jobs",
        &key,
        &with_property(&body, "monotonicity"),
    );
    assert_eq!(status, 200, "{reply}");
    let reply = Json::parse(&reply).unwrap();
    assert_eq!(reply.get("idempotent").and_then(Json::as_bool), Some(true));
    assert_eq!(
        reply.get("job_id").and_then(Json::as_f64).unwrap() as u64,
        id
    );
    assert_eq!(lp_solves(addr), 0.0, "restart retry re-ran the solver");
}
