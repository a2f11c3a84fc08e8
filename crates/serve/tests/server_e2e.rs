//! End-to-end tests: a real server on an ephemeral port, driven over TCP.
//!
//! Covers the service-layer acceptance properties:
//! 1. repeated identical queries are served from the cache (`cached:
//!    true`, hit counter advances);
//! 2. load beyond the queue bound is rejected with 429;
//! 3. the server's `result` object is byte-identical to `raven_cli
//!    verify-uap --json` for the same query;
//! 4. graceful shutdown drains in-flight jobs and still answers them;
//! 5. shutdown wakes the blocking accept loop whatever state it is in
//!    (idle, not yet running, bound to `0.0.0.0`, force-cancelled).
//!
//! The `--client-timeout-ms` and `--strict-certificates` tests drive a
//! spawned `raven_serve` process instead (`CARGO_BIN_EXE_raven_serve`,
//! SIGKILLed on drop), since chaos faults reach it through its environment.

use raven_json::Json;
use raven_serve::registry::ModelRegistry;
use raven_serve::{Server, ServerConfig, ShutdownHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// Starts a server over `models/` on an ephemeral port.
fn start_server(config: ServerConfig) -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
    let registry = ModelRegistry::load_dir(&repo_path("models")).expect("load models dir");
    assert!(registry.get("demo").is_some(), "models/demo.net is present");
    let server = Server::bind(&config, registry).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let shutdown = server.shutdown_handle();
    let runner = std::thread::spawn(move || server.run());
    (addr, shutdown, runner)
}

/// A spawned `raven_serve` process over `models/`, SIGKILLed on drop so a
/// failing assertion cannot leak it.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
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
        for line in &mut lines {
            let line = line.expect("read child stderr");
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
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Minimal HTTP client: one request, returns `(status, head, raw body)`.
fn request_raw(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: raven\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {text:?}"));
    let (head, raw_body) = text
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or_default();
    (status, head, raw_body)
}

/// [`request_raw`], with the body parsed as JSON and the head discarded.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Json) {
    let (status, _, json_body) = request_raw(addr, method, path, body);
    let parsed =
        Json::parse(&json_body).unwrap_or_else(|e| panic!("unparseable body {json_body:?}: {e}"));
    (status, parsed)
}

/// The value of one unlabeled sample in the `/v1/metrics` scrape.
fn metric(addr: SocketAddr, name: &str) -> f64 {
    let (status, _, text) = request_raw(addr, "GET", "/v1/metrics", "");
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

/// Parses `models/demo_batch.txt` (label then coordinates per line).
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

/// Builds a verify-uap request body for the demo batch.
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

#[test]
fn repeated_queries_hit_the_cache() {
    let (addr, shutdown, runner) = start_server(ServerConfig::default());
    let body = uap_body(0.01, "deeppoly", &[]);

    let (status, first) = request(addr, "POST", "/v1/verify/uap", &body);
    assert_eq!(status, 200, "first response: {first}");
    assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(first.get("model").and_then(Json::as_str), Some("demo"));

    let (status, second) = request(addr, "POST", "/v1/verify/uap", &body);
    assert_eq!(status, 200);
    assert_eq!(
        second.get("cached").and_then(Json::as_bool),
        Some(true),
        "identical query is served from cache: {second}"
    );
    // The verdict object — and even the reported solve time of the
    // original run — are identical.
    assert_eq!(
        first.get("result").unwrap().to_string(),
        second.get("result").unwrap().to_string()
    );
    assert_eq!(
        first.get("solve_millis").and_then(Json::as_f64),
        second.get("solve_millis").and_then(Json::as_f64)
    );

    let (status, health) = request(addr, "GET", "/v1/healthz", "");
    assert_eq!(status, 200);
    let cache = health.get("cache").expect("cache block");
    assert_eq!(cache.get("hits").and_then(Json::as_f64), Some(1.0));
    assert_eq!(cache.get("entries").and_then(Json::as_usize), Some(1));

    shutdown.shutdown();
    runner.join().expect("server thread");
}

#[test]
fn overload_beyond_queue_bound_answers_429() {
    // One worker, queue bound 1: one running job + one queued job saturate
    // the server deterministically.
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        cache_capacity: 0, // every request must hit the queue
        ..ServerConfig::default()
    };
    let (addr, shutdown, runner) = start_server(config);
    let slow = uap_body(0.01, "box", &[("delay_millis", Json::from(1500usize))]);

    // Occupy the worker, then wait until the job is *running* (i.e. out of
    // the queue) so the next submission occupies the single queue slot.
    let (status, job1) = request(addr, "POST", "/v1/jobs", &with_property(&slow));
    assert_eq!(status, 202, "{job1}");
    let id1 = job1.get("job_id").and_then(Json::as_usize).unwrap();
    wait_for_status(addr, id1, "running");

    let (status, job2) = request(addr, "POST", "/v1/jobs", &with_property(&slow));
    assert_eq!(status, 202, "{job2}");

    // Worker busy + queue full: both sync and async submissions shed load,
    // and every 429 tells well-behaved clients when to come back.
    let (status, head, rejected) = request_raw(addr, "POST", "/v1/verify/uap", &slow);
    assert_eq!(status, 429, "{rejected}");
    assert!(
        head.contains("Retry-After: 1"),
        "429 sets Retry-After: {head}"
    );
    assert!(Json::parse(&rejected).unwrap().get("error").is_some());
    let (status, head, rejected) = request_raw(addr, "POST", "/v1/jobs", &with_property(&slow));
    assert_eq!(status, 429, "{rejected}");
    assert!(
        head.contains("Retry-After: 1"),
        "429 sets Retry-After: {head}"
    );

    let (_, health) = request(addr, "GET", "/v1/healthz", "");
    let queue = health.get("queue").expect("queue block");
    assert!(queue.get("rejected").and_then(Json::as_f64).unwrap() >= 2.0);

    // The rejections are also visible on the metrics surface.
    let (status, _, metrics) = request_raw(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    let rejected_line = metrics
        .lines()
        .find(|l| l.starts_with("raven_serve_queue_rejected_total "))
        .expect("rejected counter exposed");
    let count: f64 = rejected_line.split(' ').nth(1).unwrap().parse().unwrap();
    assert!(count >= 2.0, "rejected counter counts both 429s: {count}");

    // The accepted jobs still finish.
    let id2 = job2.get("job_id").and_then(Json::as_usize).unwrap();
    wait_for_status(addr, id1, "done");
    wait_for_status(addr, id2, "done");

    shutdown.shutdown();
    runner.join().expect("server thread");
}

#[test]
fn sync_requests_release_their_job_slot_unless_keyed() {
    // No cache, so every request reaches the queue and the jobs map.
    let config = ServerConfig {
        cache_capacity: 0,
        ..ServerConfig::default()
    };
    let (addr, shutdown, runner) = start_server(config);
    let body = uap_body(0.01, "deeppoly", &[]);

    // An answered unkeyed sync request leaves nothing behind.
    let (status, reply) = request(addr, "POST", "/v1/verify/uap", &body);
    assert_eq!(status, 200, "{reply}");
    let (status, _) = request(addr, "GET", "/v1/jobs/1", "");
    assert_eq!(status, 404, "sync job slot released after answering");

    // A keyed sync request keeps its slot, so a retry dedups onto it.
    let keyed = uap_body(
        0.01,
        "deeppoly",
        &[("idempotency_key", Json::from("sync-retry"))],
    );
    let (status, first) = request(addr, "POST", "/v1/verify/uap", &keyed);
    assert_eq!(status, 200, "{first}");
    let (status, second) = request(addr, "POST", "/v1/verify/uap", &keyed);
    assert_eq!(status, 200, "{second}");
    assert_eq!(first.to_string(), second.to_string(), "retry replays");
    let (_, _, metrics) = request_raw(addr, "GET", "/v1/metrics", "");
    let hits: f64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("raven_serve_idempotent_hits_total "))
        .and_then(|v| v.parse().ok())
        .expect("idempotent hit counter exposed");
    assert!(hits >= 1.0, "keyed retry deduped: {hits}");
    let (status, _) = request(addr, "GET", "/v1/jobs/2", "");
    assert_eq!(status, 200, "keyed sync job slot kept");

    // Async submissions stay pollable after they finish.
    let (status, job) = request(addr, "POST", "/v1/jobs", &with_property(&body));
    assert_eq!(status, 202, "{job}");
    let id = job.get("job_id").and_then(Json::as_usize).unwrap();
    wait_for_status(addr, id, "done");
    let (status, _) = request(addr, "GET", &format!("/v1/jobs/{id}"), "");
    assert_eq!(status, 200, "finished async job still pollable");

    shutdown.shutdown();
    runner.join().expect("server thread");
}

/// Adds the `property` discriminator `/v1/jobs` needs.
fn with_property(body: &str) -> String {
    let mut json = match Json::parse(body).unwrap() {
        Json::Obj(fields) => fields,
        _ => unreachable!("bodies are objects"),
    };
    json.push(("property".to_string(), Json::from("uap")));
    Json::Obj(json).to_string()
}

/// Polls `GET /v1/jobs/{id}` until it reports `want`.
fn wait_for_status(addr: SocketAddr, id: usize, want: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, job) = request(addr, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(status, 200, "{job}");
        let got = job
            .get("status")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        if got == want {
            return;
        }
        assert_ne!(got, "failed", "job {id} failed: {job}");
        assert!(
            Instant::now() < deadline,
            "job {id} stuck in {got:?} waiting for {want:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn server_verdict_matches_cli_json_output_exactly() {
    // The CLI binary lives next to the test runner's deps directory.
    let profile_dir = std::env::current_exe()
        .expect("test exe path")
        .parent()
        .and_then(Path::parent)
        .expect("target profile dir")
        .to_path_buf();
    let cli = profile_dir.join(format!("raven_cli{}", std::env::consts::EXE_SUFFIX));
    if !cli.exists() {
        // Built lazily: `cargo test -p raven-serve` alone does not build
        // sibling binaries, the full workspace test (tier 1) does. Build it
        // into the profile this test runs under.
        let mut args = vec!["build", "-p", "raven", "--bin", "raven_cli"];
        if profile_dir.ends_with("release") {
            args.push("--release");
        }
        let status = std::process::Command::new(env!("CARGO"))
            .args(args)
            .current_dir(repo_path(""))
            .status()
            .expect("invoke cargo");
        assert!(status.success(), "building raven_cli failed");
    }
    assert!(cli.exists(), "raven_cli binary at {}", cli.display());

    let eps = 0.02;
    let output = std::process::Command::new(&cli)
        .args([
            "verify-uap",
            "--model",
            repo_path("models/demo.net").to_str().unwrap(),
            "--inputs",
            repo_path("models/demo_batch.txt").to_str().unwrap(),
            "--eps",
            &eps.to_string(),
            "--method",
            "raven",
            "--json",
        ])
        .output()
        .expect("run raven_cli");
    // Exit 0 (verified) and 3 (sound but falsified) are both valid runs.
    let code = output.status.code().expect("exit code");
    assert!(
        code == 0 || code == 3,
        "raven_cli exited {code}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    let cli_envelope = Json::parse(stdout.trim()).expect("cli emits json");
    let cli_result = cli_envelope.get("result").expect("result field");

    let (addr, shutdown, runner) = start_server(ServerConfig::default());
    let (status, response) = request(addr, "POST", "/v1/verify/uap", &uap_body(eps, "raven", &[]));
    assert_eq!(status, 200, "{response}");
    let server_result = response.get("result").expect("result field");

    // Same verdict builder, same query — byte-identical serialization.
    assert_eq!(server_result.to_string(), cli_result.to_string());
    // And the CLI exit code agrees with the server's verdict.
    assert_eq!(
        cli_result.get("verified").and_then(Json::as_bool),
        Some(code == 0)
    );

    shutdown.shutdown();
    runner.join().expect("server thread");
}

#[test]
fn metrics_endpoint_exposes_the_whole_stack() {
    let (addr, shutdown, runner) = start_server(ServerConfig::default());

    // A UAP verification advances the core/serve instruments…
    let (status, response) = request(
        addr,
        "POST",
        "/v1/verify/uap",
        &uap_body(0.01, "raven", &[]),
    );
    assert_eq!(status, 200, "{response}");
    // …and a monotonicity verification always solves an LP, so the
    // solver instruments (pivot counter, solve histogram) advance too.
    let (inputs, _) = demo_batch();
    let mono = Json::obj([
        ("model", Json::from("demo")),
        ("eps", Json::from(0.05)),
        ("method", Json::from("raven")),
        ("center", Json::num_array(&inputs[0])),
        ("feature", Json::from(0usize)),
        ("tau", Json::from(0.0)),
    ])
    .to_string();
    let (status, response) = request(addr, "POST", "/v1/verify/mono", &mono);
    assert_eq!(status, 200, "{response}");

    let (status, head, text) = request_raw(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    assert!(
        head.contains("Content-Type: text/plain"),
        "exposition content type: {head}"
    );

    // Structural validity: every non-comment line is `name[{labels}] value`,
    // every metric has HELP and TYPE comments.
    let mut names = std::collections::BTreeSet::new();
    let mut helped = std::collections::BTreeSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            helped.insert(rest.split(' ').next().unwrap().to_string());
            continue;
        }
        if line.starts_with("# TYPE ") || line.is_empty() {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line has no value: {line:?}");
        });
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "unparseable sample value in {line:?}"
        );
        let name = series.split('{').next().unwrap();
        assert!(
            name.starts_with("raven_"),
            "metric outside the raven namespace: {name}"
        );
        // Histogram series share their family's HELP.
        let family = name
            .trim_end_matches("_bucket")
            .trim_end_matches("_sum")
            .trim_end_matches("_count");
        assert!(
            helped.contains(name) || helped.contains(family),
            "sample {name} has no HELP"
        );
        names.insert(family.to_string());
    }

    // Coverage: at least 12 distinct metrics spanning solver, verifier
    // core, and service layer.
    assert!(names.len() >= 12, "only {} metrics: {names:?}", names.len());
    for prefix in ["raven_lp_", "raven_core_", "raven_serve_"] {
        assert!(
            names.iter().any(|n| n.starts_with(prefix)),
            "no {prefix} metric in {names:?}"
        );
    }

    // The verification above must be visible in the counters.
    let sample = |name: &str| -> f64 {
        text.lines()
            .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
            .and_then(|l| l.rsplit_once(' '))
            .map(|(_, v)| v.parse().unwrap())
            .unwrap_or_else(|| panic!("metric {name} missing"))
    };
    assert!(sample("raven_lp_simplex_pivots_total") >= 1.0);
    assert!(sample("raven_serve_queue_submitted_total") >= 1.0);
    assert!(sample(r#"raven_core_runs_total{property="uap"}"#) >= 1.0);

    // The healthz stats block mirrors the same counters.
    let (_, health) = request(addr, "GET", "/v1/healthz", "");
    let stats = health.get("stats").expect("stats block");
    assert!(stats.get("simplex_pivots").and_then(Json::as_f64).unwrap() >= 1.0);
    assert!(stats.get("uap_runs").and_then(Json::as_f64).unwrap() >= 1.0);

    shutdown.shutdown();
    runner.join().expect("server thread");
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let (addr, shutdown, runner) = start_server(config);

    // A slow in-flight synchronous request...
    let body = uap_body(0.01, "box", &[("delay_millis", Json::from(800usize))]);
    let client = std::thread::spawn(move || request(addr, "POST", "/v1/verify/uap", &body));

    // ...wait until it is actually running, then shut the server down.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, health) = request(addr, "GET", "/v1/healthz", "");
        let running = health
            .get("queue")
            .and_then(|q| q.get("running"))
            .and_then(Json::as_usize)
            .unwrap();
        if running > 0 {
            break;
        }
        assert!(Instant::now() < deadline, "job never started running");
        std::thread::sleep(Duration::from_millis(10));
    }
    shutdown.shutdown();
    runner.join().expect("server run() returns after drain");

    // The in-flight request was drained, not dropped: full 200 response.
    let (status, response) = client.join().expect("client thread");
    assert_eq!(status, 200, "{response}");
    assert_eq!(response.get("cached").and_then(Json::as_bool), Some(false));
    assert!(response.get("result").is_some());

    // New connections are refused once the listener is gone.
    assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
}

/// Binds a server over `models/` without running it.
fn bind_server(addr: &str) -> (Server, SocketAddr) {
    let registry = ModelRegistry::load_dir(&repo_path("models")).expect("load models dir");
    let config = ServerConfig {
        addr: addr.to_string(),
        ..ServerConfig::default()
    };
    let server = Server::bind(&config, registry).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    (server, addr)
}

/// Runs the server on its own thread; the receiver fires once `run`
/// returns, so a test can wait with a deadline instead of joining a
/// thread that may never finish.
fn run_detached(server: Server) -> mpsc::Receiver<()> {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        server.run();
        let _ = done.send(());
    });
    finished
}

/// `run` returns within two seconds, after which `addr` refuses
/// connections because the listener is gone.
fn assert_stops(finished: &mpsc::Receiver<()>, addr: SocketAddr) {
    finished
        .recv_timeout(Duration::from_secs(2))
        .expect("run() returns within 2 s of shutdown");
    assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
}

/// A server that never saw a request is blocked in `accept`; shutdown
/// has to wake it.
#[test]
fn idle_server_stops_promptly_on_shutdown() {
    let (server, addr) = bind_server("127.0.0.1:0");
    let shutdown = server.shutdown_handle();
    let finished = run_detached(server);
    std::thread::sleep(Duration::from_millis(100));
    shutdown.shutdown();
    assert_stops(&finished, addr);
}

#[test]
fn shutdown_before_run_returns_at_once() {
    let (server, addr) = bind_server("127.0.0.1:0");
    server.shutdown_handle().shutdown();
    let finished = run_detached(server);
    assert_stops(&finished, addr);
}

/// The wake connect goes to loopback: connecting to `0.0.0.0` itself is
/// not portable.
#[test]
fn server_on_unspecified_address_stops_on_shutdown() {
    let (server, addr) = bind_server("0.0.0.0:0");
    assert!(addr.ip().is_unspecified(), "{addr}");
    let shutdown = server.shutdown_handle();
    let finished = run_detached(server);
    std::thread::sleep(Duration::from_millis(100));
    shutdown.shutdown();
    assert_stops(&finished, SocketAddr::from(([127, 0, 0, 1], addr.port())));
}

#[test]
fn force_cancel_alone_stops_the_accept_loop() {
    let (server, addr) = bind_server("127.0.0.1:0");
    let shutdown = server.shutdown_handle();
    let finished = run_detached(server);
    std::thread::sleep(Duration::from_millis(100));
    shutdown.force_cancel();
    assert_stops(&finished, addr);
}

/// `--client-timeout-ms` bounds how long a stalled client can pin a
/// connection thread (the old hard-coded value was 10 s).
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

/// Under `--strict-certificates` a spot-check failure triggers a local
/// recompute instead of serving the unverifiable response.
#[test]
fn strict_certificates_recomputes_on_spot_check_failure() {
    let body = uap_body(0.03, "raven", &[("certificate", Json::from(true))]);
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
