//! Fleet tests: a real `raven_serve` process with a fleet listener plus
//! real `raven_worker` processes, including Byzantine ones.
//!
//! The acceptance property pinned here: **a chaos Byzantine worker never
//! changes the verdict bytes served to clients.** Every tampered result
//! is rejected by in-process certificate replay, and the job completes
//! via retry or local fallback with a `result` object byte-identical to a
//! fleet-less run. Also covered: quarantine + probation rejoin,
//! `--client-timeout-ms`, and `--strict-certificates` recompute.
//!
//! Child binaries come from `CARGO_BIN_EXE_raven_serve` and
//! `CARGO_BIN_EXE_raven_worker`; every child is SIGKILLed on drop so a
//! failing assertion cannot leak processes.
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

/// A spawned server process with an HTTP and (optionally) a fleet
/// listener, SIGKILLed on drop.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
    fleet_addr: Option<SocketAddr>,
}

impl ServerProc {
    fn spawn(extra_args: &[&str], envs: &[(&str, &str)]) -> ServerProc {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_raven_serve"));
        cmd.arg("--models-dir")
            .arg(repo_path("models"))
            .arg("--addr")
            .arg("127.0.0.1:0")
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
        let mut fleet_addr = None;
        for line in &mut lines {
            let line = line.expect("read child stderr");
            if let Some(rest) = line.strip_prefix("raven-serve fleet listening on ") {
                fleet_addr = Some(rest.trim().parse().expect("parse fleet addr"));
            }
            if let Some(rest) = line.strip_prefix("raven-serve listening on http://") {
                addr = Some(rest.trim().parse().expect("parse listen addr"));
                break;
            }
        }
        // Keep draining stderr so the child never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        ServerProc {
            child,
            addr: addr.expect("server reached the listening state"),
            fleet_addr,
        }
    }

    fn fleet_addr(&self) -> SocketAddr {
        self.fleet_addr.expect("server has a fleet listener")
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A spawned worker process, SIGKILLed on drop.
struct WorkerProc {
    child: Child,
}

impl WorkerProc {
    fn spawn(fleet_addr: SocketAddr, name: &str, envs: &[(&str, &str)]) -> WorkerProc {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_raven_worker"));
        cmd.arg("--connect")
            .arg(fleet_addr.to_string())
            .arg("--models-dir")
            .arg(repo_path("models"))
            .arg("--name")
            .arg(name)
            .arg("--reconnect-ms")
            .arg("100")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("spawn raven_worker");
        let stderr = child.stderr.take().expect("piped stderr");
        let mut lines = BufReader::new(stderr).lines();
        for line in &mut lines {
            let line = line.expect("read worker stderr");
            if line.starts_with(&format!("raven-worker {name} connected to")) {
                break;
            }
        }
        std::thread::spawn(move || for _ in lines {});
        WorkerProc { child }
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn request_with(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: raven\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
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
    let (status, raw) = request_with(addr, method, path, body);
    let parsed = Json::parse(&raw).unwrap_or_else(|e| panic!("unparseable body {raw:?}: {e}"));
    (status, parsed)
}

fn metric(addr: SocketAddr, name: &str) -> f64 {
    let (status, text) = request_with(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.rsplit_once(' '))
        .map(|(_, v)| v.parse().unwrap())
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn healthz(addr: SocketAddr) -> Json {
    let (status, health) = request(addr, "GET", "/v1/healthz", "");
    assert_eq!(status, 200, "{health}");
    health
}

/// The healthz ledger entry for one worker name.
fn worker_stats(addr: SocketAddr, name: &str) -> Option<Json> {
    healthz(addr)
        .get("fleet")?
        .get("workers")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        .cloned()
}

/// Polls until the named worker appears connected in `/v1/healthz`.
fn wait_worker_connected(addr: SocketAddr, name: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let connected = worker_stats(addr, name)
            .and_then(|w| w.get("connected").and_then(Json::as_bool))
            .unwrap_or(false);
        if connected {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "worker {name} never registered with the fleet"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
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

/// A fleet-eligible UAP query. Method `raven` is the certificate-emitting
/// path: it records analysis certificates even when every input is
/// individually verified at the analysis tier (the fast case these tests
/// ride), whereas `io-lp` only emits a certificate once the LP solves.
fn uap_body(eps: f64, extra: &[(&str, Json)]) -> String {
    let (inputs, labels) = demo_batch();
    let mut fields = vec![
        ("model".to_string(), Json::from("demo")),
        ("eps".to_string(), Json::from(eps)),
        ("method".to_string(), Json::from("raven")),
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

/// The `result` object from one synchronous UAP query — the bytes whose
/// invariance under Byzantine workers this suite pins.
fn uap_result(addr: SocketAddr, body: &str) -> (Json, String) {
    let (status, reply) = request(addr, "POST", "/v1/verify/uap", body);
    assert_eq!(status, 200, "{reply}");
    let result = reply.get("result").expect("envelope has result").clone();
    (reply, result.to_string())
}

/// A fleet-less run of `body`: the reference verdict bytes.
fn baseline_result(body: &str) -> String {
    let server = ServerProc::spawn(&["--workers", "1"], &[]);
    let (_, result) = uap_result(server.addr, body);
    result
}

#[test]
fn healthy_worker_solves_remotely_with_identical_verdict_bytes() {
    let body = uap_body(0.03, &[]);
    let baseline = baseline_result(&body);

    let server = ServerProc::spawn(&["--workers", "1", "--fleet-addr", "127.0.0.1:0"], &[]);
    let _worker = WorkerProc::spawn(server.fleet_addr(), "honest-1", &[]);
    wait_worker_connected(server.addr, "honest-1");

    let (reply, result) = uap_result(server.addr, &body);
    assert_eq!(result, baseline, "remote verdict differs from local");
    assert_eq!(reply.get("cached").and_then(Json::as_bool), Some(false));
    assert!(metric(server.addr, "raven_serve_fleet_remote_solves_total") >= 1.0);
    assert_eq!(
        metric(server.addr, "raven_serve_fleet_local_fallbacks_total"),
        0.0
    );
    let stats = worker_stats(server.addr, "honest-1").unwrap();
    assert!(stats.get("accepted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(stats.get("rejected").and_then(Json::as_f64), Some(0.0));

    // A certificate request round-trips through the fleet too, and the
    // served certificate is exactly the one the gate replayed.
    let cert_body = uap_body(0.03, &[("certificate", Json::from(true))]);
    let (status, reply) = request(server.addr, "POST", "/v1/verify/uap", &cert_body);
    assert_eq!(status, 200, "{reply}");
    assert!(
        !matches!(reply.get("certificate"), None | Some(Json::Null)),
        "certificate request must serve a certificate"
    );
    assert_eq!(
        reply.get("result").unwrap().to_string(),
        baseline,
        "certificate request changed the verdict bytes"
    );
}

/// The tentpole acceptance test: Byzantine workers that tamper with duals
/// or flip verdicts are rejected by certificate replay, the job completes
/// anyway (local fallback), the served bytes are unchanged, and the
/// worker lands in quarantine.
#[test]
fn byzantine_worker_never_changes_served_verdict_bytes() {
    let body = uap_body(0.03, &[]);
    let baseline = baseline_result(&body);

    for (mode, name) in [
        ("corrupt-duals", "liar-duals"),
        ("flip-verdict", "liar-flip"),
    ] {
        let server = ServerProc::spawn(&["--workers", "1", "--fleet-addr", "127.0.0.1:0"], &[]);
        let _worker = WorkerProc::spawn(server.fleet_addr(), name, &[("RAVEN_WORKER_CHAOS", mode)]);
        wait_worker_connected(server.addr, name);

        let (_, result) = uap_result(server.addr, &body);
        assert_eq!(
            result, baseline,
            "{mode}: Byzantine worker changed served verdict bytes"
        );
        // Every tampered result was rejected; none was accepted.
        assert!(
            metric(server.addr, "raven_serve_fleet_rejected_total") >= 1.0,
            "{mode}: gate never rejected"
        );
        assert_eq!(
            metric(server.addr, "raven_serve_fleet_accepted_total"),
            0.0,
            "{mode}: gate accepted a tampered result"
        );
        assert_eq!(
            metric(server.addr, "raven_serve_fleet_remote_solves_total"),
            0.0
        );
        assert!(metric(server.addr, "raven_serve_fleet_local_fallbacks_total") >= 1.0);
        // Two strikes (default) quarantine the worker.
        assert!(
            metric(server.addr, "raven_serve_fleet_quarantined_workers_total") >= 1.0,
            "{mode}: worker was not quarantined"
        );
        let stats = worker_stats(server.addr, name).unwrap();
        assert_eq!(stats.get("quarantined").and_then(Json::as_bool), Some(true));
        assert!(stats.get("rejected").and_then(Json::as_f64).unwrap() >= 2.0);
    }
}

#[test]
fn stalls_and_mid_frame_disconnects_fall_back_to_local() {
    let body = uap_body(0.03, &[]);
    let baseline = baseline_result(&body);

    // Stall: the worker accepts the job and never answers. A short fleet
    // timeout keeps the test fast; the job still completes locally.
    let server = ServerProc::spawn(
        &[
            "--workers",
            "1",
            "--fleet-addr",
            "127.0.0.1:0",
            "--fleet-timeout-ms",
            "500",
        ],
        &[],
    );
    let _stall = WorkerProc::spawn(
        server.fleet_addr(),
        "staller",
        &[("RAVEN_WORKER_CHAOS", "stall")],
    );
    wait_worker_connected(server.addr, "staller");
    let (_, result) = uap_result(server.addr, &body);
    assert_eq!(result, baseline, "stall changed served verdict bytes");
    assert!(metric(server.addr, "raven_serve_fleet_timeouts_total") >= 1.0);
    assert!(metric(server.addr, "raven_serve_fleet_local_fallbacks_total") >= 1.0);
    drop(server);

    // Mid-frame disconnect: half a result frame, then the stream dies.
    let server = ServerProc::spawn(&["--workers", "1", "--fleet-addr", "127.0.0.1:0"], &[]);
    let _cutter = WorkerProc::spawn(
        server.fleet_addr(),
        "cutter",
        &[("RAVEN_WORKER_CHAOS", "disconnect")],
    );
    wait_worker_connected(server.addr, "cutter");
    let (_, result) = uap_result(server.addr, &body);
    assert_eq!(result, baseline, "disconnect changed served verdict bytes");
    assert!(metric(server.addr, "raven_serve_fleet_disconnects_total") >= 1.0);
    assert!(metric(server.addr, "raven_serve_fleet_local_fallbacks_total") >= 1.0);
    // Timeouts and disconnects are mishaps, not dishonesty: no quarantine.
    assert_eq!(
        metric(server.addr, "raven_serve_fleet_quarantined_workers_total"),
        0.0
    );
}

/// Satellite: a quarantined worker rejoins after `--worker-probation-ms`
/// expires and serves again after one accepted certificate.
#[test]
fn quarantined_worker_rejoins_after_probation() {
    let body = uap_body(0.03, &[]);
    let baseline = baseline_result(&body);

    let server = ServerProc::spawn(
        &[
            "--workers",
            "1",
            "--fleet-addr",
            "127.0.0.1:0",
            "--worker-probation-ms",
            "1500",
        ],
        &[],
    );
    // Lies exactly twice, then runs out of chaos budget and turns honest.
    let _worker = WorkerProc::spawn(
        server.fleet_addr(),
        "redeemed",
        &[("RAVEN_WORKER_CHAOS", "flip-verdict:2")],
    );
    wait_worker_connected(server.addr, "redeemed");

    // Query 1: two rejected attempts → quarantine → local fallback.
    let (_, result) = uap_result(server.addr, &body);
    assert_eq!(result, baseline);
    let stats = worker_stats(server.addr, "redeemed").unwrap();
    assert_eq!(stats.get("quarantined").and_then(Json::as_bool), Some(true));
    assert!(metric(server.addr, "raven_serve_fleet_local_fallbacks_total") >= 1.0);

    // While quarantined, jobs don't touch the worker at all.
    let dispatches_during = metric(server.addr, "raven_serve_fleet_dispatches_total");
    let (_, result) = uap_result(server.addr, &uap_body(0.031, &[]));
    assert!(!result.is_empty());
    assert_eq!(
        metric(server.addr, "raven_serve_fleet_dispatches_total"),
        dispatches_during
    );

    // After probation the worker is claimable again; now honest, its
    // certificate is accepted, its strikes clear, and it serves remotely.
    std::thread::sleep(Duration::from_millis(1600));
    let (_, result) = uap_result(server.addr, &uap_body(0.032, &[]));
    assert!(!result.is_empty());
    let stats = worker_stats(server.addr, "redeemed").unwrap();
    assert_eq!(
        stats.get("quarantined").and_then(Json::as_bool),
        Some(false)
    );
    assert_eq!(stats.get("strikes").and_then(Json::as_f64), Some(0.0));
    assert!(stats.get("accepted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert!(metric(server.addr, "raven_serve_fleet_remote_solves_total") >= 1.0);
}

/// Satellite: `--client-timeout-ms` bounds how long a stalled client can
/// pin a connection thread (the old hard-coded value was 10 s).
#[test]
fn slow_client_is_answered_408_within_the_configured_timeout() {
    let server = ServerProc::spawn(&["--client-timeout-ms", "300"], &[]);
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    // Send a partial head and stall: never finish the request.
    stream
        .write_all(b"POST /v1/verify/uap HTTP/1.1\r\n")
        .expect("partial head");
    let t0 = Instant::now();
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let elapsed = t0.elapsed();
    assert!(
        text.starts_with("HTTP/1.1 408"),
        "stalled client should get 408, got {text:?}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "timeout took {elapsed:?}, configured 300ms"
    );
}

/// Tentpole: saturation-aware admission. An idle pool keeps jobs local
/// even with healthy workers connected; a saturated pool dispatches.
#[test]
fn idle_pool_keeps_jobs_local_and_saturated_pool_dispatches() {
    let body = uap_body(0.03, &[]);

    // Pool of 4, one job at a time: never saturated, so the fleet is
    // never consulted despite a connected worker.
    let server = ServerProc::spawn(&["--workers", "4", "--fleet-addr", "127.0.0.1:0"], &[]);
    let _worker = WorkerProc::spawn(server.fleet_addr(), "idle-w", &[]);
    wait_worker_connected(server.addr, "idle-w");
    let (_, result) = uap_result(server.addr, &body);
    assert!(!result.is_empty());
    assert_eq!(
        metric(server.addr, "raven_serve_fleet_dispatches_total"),
        0.0,
        "idle pool must not dispatch remotely"
    );
    assert!(metric(server.addr, "raven_serve_fleet_kept_local_total") >= 1.0);
    drop(server);

    // Pool of 1: the job itself occupies the only local worker, so the
    // pool is saturated from inside any job and dispatch goes remote.
    let server = ServerProc::spawn(&["--workers", "1", "--fleet-addr", "127.0.0.1:0"], &[]);
    let _worker = WorkerProc::spawn(server.fleet_addr(), "busy-w", &[]);
    wait_worker_connected(server.addr, "busy-w");
    let (_, result) = uap_result(server.addr, &body);
    assert!(!result.is_empty());
    assert!(metric(server.addr, "raven_serve_fleet_dispatches_total") >= 1.0);
    assert_eq!(
        metric(server.addr, "raven_serve_fleet_kept_local_total"),
        0.0
    );

    // `--fleet-when-saturated 0` restores unconditional dispatch.
    let server = ServerProc::spawn(
        &[
            "--workers",
            "4",
            "--fleet-addr",
            "127.0.0.1:0",
            "--fleet-when-saturated",
            "0",
        ],
        &[],
    );
    let _worker = WorkerProc::spawn(server.fleet_addr(), "eager-w", &[]);
    wait_worker_connected(server.addr, "eager-w");
    let (_, result) = uap_result(server.addr, &body);
    assert!(!result.is_empty());
    assert!(metric(server.addr, "raven_serve_fleet_dispatches_total") >= 1.0);
}

/// Satellite: under `--strict-certificates` a spot-check failure triggers
/// a local recompute instead of serving the unverifiable response.
#[test]
fn strict_certificates_recomputes_on_spot_check_failure() {
    let body = uap_body(0.03, &[("certificate", Json::from(true))]);
    let server = ServerProc::spawn(
        &["--workers", "1", "--strict-certificates"],
        // Chaos tampers the first emitted certificate *before* the spot
        // check sees it — simulating an emitter bug.
        &[("RAVEN_SERVE_CHAOS_TAMPER_CERTS", "1")],
    );
    let (status, reply) = request(server.addr, "POST", "/v1/verify/uap", &body);
    assert_eq!(status, 200, "{reply}");
    // The recompute's (untampered) certificate is served.
    assert!(!matches!(reply.get("certificate"), None | Some(Json::Null)));
    assert!(metric(server.addr, "raven_serve_spot_check_failures_total") >= 1.0);
    assert!(metric(server.addr, "raven_serve_strict_recomputes_total") >= 1.0);
    let health = healthz(server.addr);
    let failures = health
        .get("stats")
        .and_then(|s| s.get("spot_check_failures"))
        .and_then(Json::as_f64)
        .expect("spot_check_failures stat");
    assert!(failures >= 1.0);
}
