//! The served workloads: an in-process `raven_serve::Server` with
//! `ServerConfig::default()` (2 workers, verdict cache on, no journal, no
//! fleet), driven over loopback HTTP with a new connection per request, as
//! the server answers `Connection: close`.
//!
//! * `serve-mixed` — independent users, so an open loop: seeded Poisson
//!   arrivals at 150 req/s from 2 client threads for the first two thirds
//!   of the window, each request timed from its due time. The mix is 50%
//!   repeats of a 16-body hot set (cache hits), 35% distinct fc-small UAP
//!   requests (k=3, ε=0.03, analysis tier) and 15% distinct credit-sigmoid
//!   monotonicity requests (LP tier). Solves are cheap, so the serving
//!   layers dominate. The last third drives the same mix closed-loop from
//!   the same 2 clients as fast as answers come back; that rate is the
//!   workload's throughput.
//! * `uap-certified` — one caller waiting for each checked verdict, so a
//!   closed loop: `POST /v1/verify/uap` with `certificate=1` on distinct
//!   fc-small/pgd batches (k=2, ε=0.2, MILP tier), each answer parsed and
//!   its certificate replayed by `raven_check`. This takes `raven-lp` down
//!   its certified path (primal solve plus a certified secondary solve)
//!   and moves ~200 KiB envelopes through `raven-json`.

use crate::inputs::{self, Pool};
use crate::metrics::{self, ms, LayerTotals, Run};
use crate::trace::Tracer;
use raven::report::{mono_verdict_json, uap_verdict_json};
use raven::{
    verify_monotonicity, verify_uap, Method, MonotonicityProblem, RavenConfig, UapProblem,
};
use raven_bench::models::{credit_model, fc_model, Training};
use raven_json::Json;
use raven_nn::Network;
use raven_serve::registry::ModelRegistry;
use raven_serve::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client threads (and so connections in flight) for `serve-mixed`.
const CLIENTS: usize = 2;
/// Open-loop arrival rate, requests per second.
const RATE: f64 = 150.0;
/// Hot-set size and how many of it are UAP bodies (the rest monotonicity).
const HOT: usize = 16;
const HOT_UAP: usize = 12;
const MIX_UAP: (usize, f64) = (3, 0.03);
const CERT_UAP: (usize, f64) = (2, 0.2);
const MONO_EPS: f64 = 0.02;
const MONO_TAU: f64 = 0.1;
/// One in this many answers is recomputed in-library and compared.
const RECOMPUTE_EVERY: usize = 10;
/// Upper bound on closed-loop requests per second, to size the plan.
/// Ten times today's rate, so a faster server still finds fresh requests.
const MAX_CLOSED_RATE: f64 = 4000.0;
/// Points per pool: enough distinct batches that no distinct request
/// repeats (and so hits the cache) even at [`MAX_CLOSED_RATE`].
const MIX_POOL: usize = 40_000;
const CERT_POOL: usize = 4_000;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// What one request asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Hot-set body `j`.
    Hot(usize),
    /// The `n`-th distinct UAP body.
    Uap(usize),
    /// The `n`-th distinct monotonicity body.
    Mono(usize),
}

/// A seeded `serve-mixed` schedule: open-loop requests with due times in
/// seconds from the start, then the closed-loop request sequence.
#[derive(Debug, PartialEq)]
pub struct Plan {
    pub open: Vec<(f64, Kind)>,
    pub closed: Vec<Kind>,
}

/// The request schedule for `seed`. Distinct bodies are numbered across
/// both phases, so no distinct request ever repeats.
pub fn plan(seed: u64, rate: f64, open_s: f64, closed_len: usize) -> Plan {
    let mut rng = raven_tensor::Rng::new(seed ^ 0x5e7e_ed5c_4ed0_1e00);
    let (mut uap, mut mono) = (0, 0);
    let mut kind = |rng: &mut raven_tensor::Rng| {
        let u = rng.uniform();
        if u < 0.5 {
            Kind::Hot(rng.below(HOT))
        } else if u < 0.85 {
            uap += 1;
            Kind::Uap(uap - 1)
        } else {
            mono += 1;
            Kind::Mono(mono - 1)
        }
    };
    let mut open = Vec::new();
    let mut t = 0.0;
    loop {
        t += -rng.uniform_open().ln() / rate;
        if t >= open_s {
            break;
        }
        open.push((t, kind(&mut rng)));
    }
    let closed = (0..closed_len).map(|_| kind(&mut rng)).collect();
    Plan { open, closed }
}

/// Request bodies and in-library recomputation for every [`Kind`].
struct Bodies {
    fc: Network,
    /// Needed only by workloads that send monotonicity requests.
    credit: Option<Network>,
    pool: Pool,
    uap: (usize, f64),
    certificate: bool,
    /// Monotonicity centers: distinct ones first, then the hot ones.
    centers: Vec<Vec<f64>>,
}

impl Bodies {
    fn uap_batch(&self, kind: Kind) -> (Vec<Vec<f64>>, Vec<usize>) {
        let index = match kind {
            Kind::Uap(n) => n,
            // Hot batches come from the far end of the pool.
            Kind::Hot(j) => self.pool.len() / self.uap.0 - 1 - j,
            Kind::Mono(_) => unreachable!("not a UAP request"),
        };
        inputs::batch(&self.pool, index, self.uap.0)
    }

    /// `(center, feature)` of a monotonicity request.
    fn mono(&self, kind: Kind) -> (&[f64], usize) {
        let n = match kind {
            Kind::Mono(n) => n,
            Kind::Hot(j) => self.centers.len() - 1 - (j - HOT_UAP),
            Kind::Uap(_) => unreachable!("not a monotonicity request"),
        };
        // Features 0–2 raise the true score, 3–4 lower it.
        (&self.centers[n], n % 5)
    }

    fn is_uap(kind: Kind) -> bool {
        match kind {
            Kind::Hot(j) => j < HOT_UAP,
            Kind::Uap(_) => true,
            Kind::Mono(_) => false,
        }
    }

    fn body(&self, kind: Kind) -> String {
        let rows = |xs: &[Vec<f64>]| Json::Arr(xs.iter().map(|x| Json::num_array(x)).collect());
        if Self::is_uap(kind) {
            let (inputs, labels) = self.uap_batch(kind);
            let mut fields = vec![
                ("model", Json::from("fc-small")),
                ("eps", Json::from(self.uap.1)),
                ("method", Json::from("raven")),
                ("inputs", rows(&inputs)),
                (
                    "labels",
                    Json::Arr(labels.into_iter().map(Json::from).collect()),
                ),
            ];
            if self.certificate {
                fields.push(("certificate", Json::from(true)));
            }
            Json::obj(fields).to_string()
        } else {
            let (center, feature) = self.mono(kind);
            Json::obj([
                ("model", Json::from("credit-sigmoid")),
                ("eps", Json::from(MONO_EPS)),
                ("method", Json::from("raven")),
                ("center", Json::num_array(center)),
                ("feature", Json::from(feature)),
                ("tau", Json::from(MONO_TAU)),
                ("increasing", Json::from(feature < 3)),
                ("output_weights", Json::num_array(&[-1.0, 1.0])),
            ])
            .to_string()
        }
    }

    /// Checks served `result` bytes against the verdict `raven::report`
    /// renders in-library for `kind`.
    fn check_bytes(&self, kind: Kind, served: &str) -> Result<(), String> {
        if self.recompute(kind) == served {
            Ok(())
        } else {
            Err(format!(
                "{kind:?}: served result differs from the in-library verdict"
            ))
        }
    }

    /// The attack check on a served UAP verdict for `kind`.
    fn check_sound(&self, kind: Kind, verdict: &UapSeen) -> Result<(), String> {
        let (inputs, labels) = self.uap_batch(kind);
        inputs::check_uap_sound(
            &self.fc,
            &inputs,
            &labels,
            self.uap.1,
            verdict.hamming,
            verdict.witness.as_deref(),
        )
    }

    fn recompute(&self, kind: Kind) -> String {
        let config = RavenConfig::default();
        if Self::is_uap(kind) {
            let (inputs, labels) = self.uap_batch(kind);
            let problem = UapProblem {
                plan: self.fc.to_plan(),
                inputs,
                labels,
                eps: self.uap.1,
            };
            let res = verify_uap(&problem, Method::Raven, &config);
            uap_verdict_json(problem.k(), problem.eps, &res).to_string()
        } else {
            let (center, feature) = self.mono(kind);
            let credit = self
                .credit
                .as_ref()
                .expect("monotonicity needs the credit model");
            let problem = MonotonicityProblem {
                plan: credit.to_plan(),
                center: center.to_vec(),
                eps: MONO_EPS,
                feature,
                tau: MONO_TAU,
                output_weights: vec![-1.0, 1.0],
                increasing: feature < 3,
            };
            let res = verify_monotonicity(&problem, Method::Raven, &config);
            mono_verdict_json(&problem, &res).to_string()
        }
    }
}

/// Client-side timestamps of one exchange and of the parse after it.
#[derive(Clone, Copy)]
struct Times {
    sent: Instant,
    connected: Instant,
    written: Instant,
    first_byte: Instant,
    done: Instant,
    parsed: Instant,
}

/// Sends one request on a fresh connection and reads the whole answer;
/// returns the status, the body and the timestamps (`parsed` still unset).
fn post(addr: SocketAddr, path: &str, body: &str) -> Result<(u16, String, Times), String> {
    let io = |e: std::io::Error| format!("POST {path}: {e}");
    let sent = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    let connected = Instant::now();
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).map_err(io)?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT)).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: raven\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).map_err(io)?;
    let written = Instant::now();
    let mut raw = vec![0u8; 16 * 1024];
    let first = stream.read(&mut raw).map_err(io)?;
    let first_byte = Instant::now();
    if first == 0 {
        return Err(format!("POST {path}: connection closed without a response"));
    }
    raw.truncate(first);
    stream.read_to_end(&mut raw).map_err(io)?;
    let done = Instant::now();
    let text = String::from_utf8(raw).map_err(|_| format!("POST {path}: non-utf-8 response"))?;
    let status = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("POST {path}: malformed status line"))?;
    let (_, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("POST {path}: response has no body"))?;
    let times = Times {
        sent,
        connected,
        written,
        first_byte,
        done,
        parsed: done,
    };
    Ok((status, body.to_string(), times))
}

/// The fields of a served UAP verdict the checks and per-layer totals read.
struct UapSeen {
    hamming: f64,
    witness: Option<Vec<f64>>,
    lp_rows: usize,
    solved: bool,
}

/// What the ledger keeps of one answer. The response itself is dropped at
/// once, so the ledger's own memory does not grow with the request count
/// and inflate `peak_rss_mb`.
struct Seen {
    t: Times,
    bytes: usize,
    cached: bool,
    /// Hash of the served `result` bytes, for the hot-set identity check.
    result_hash: u64,
    /// The served `result` bytes, kept only for answers checked in-library.
    result: Option<String>,
    uap: Option<UapSeen>,
}

fn path(kind: Kind) -> &'static str {
    if Bodies::is_uap(kind) {
        "/v1/verify/uap"
    } else {
        "/v1/verify/mono"
    }
}

fn hash(text: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// Sends `kind` and digests the answer, also returning its parsed
/// envelope; anything but a 200 with a `result` is an error.
fn ask(
    addr: SocketAddr,
    kind: Kind,
    body: &str,
    keep_result: bool,
) -> Result<(Seen, Json), String> {
    let (status, text, mut t) = post(addr, path(kind), body)?;
    let envelope = Json::parse(&text).map_err(|e| format!("unparsable answer: {e}"))?;
    t.parsed = Instant::now();
    let Some(result) = envelope.get("result").filter(|_| status == 200) else {
        let head: String = text.chars().take(200).collect();
        return Err(format!("HTTP {status}: {head}"));
    };
    let uap = match Bodies::is_uap(kind) {
        false => None,
        true => Some(UapSeen {
            hamming: result
                .get("worst_case_hamming")
                .and_then(Json::as_f64)
                .ok_or("UAP verdict lacks worst_case_hamming")?,
            witness: result
                .get("counterexample_delta")
                .and_then(Json::as_f64_vec),
            lp_rows: result.get("lp_rows").and_then(Json::as_usize).unwrap_or(0),
            solved: result.get("tier").and_then(Json::as_str) != Some("analysis"),
        }),
    };
    let serialized = result.to_string();
    let seen = Seen {
        t,
        bytes: text.len(),
        cached: envelope.get("cached").and_then(Json::as_bool) == Some(true),
        result_hash: hash(&serialized),
        result: keep_result.then_some(serialized),
        uap,
    };
    Ok((seen, envelope))
}

/// Server-side sums the per-layer totals difference across the window.
struct ServerSnapshot {
    wait_ms: f64,
    service_ms: f64,
    deeppoly_ms: f64,
    diffpoly_ms: f64,
    encode_ms: f64,
    solve_ms: f64,
    spot_check_ms: f64,
    cert_bytes: f64,
    certs: f64,
    hits: f64,
    misses: f64,
    rejected: f64,
    counters: [f64; 6],
}

impl ServerSnapshot {
    fn take() -> Self {
        use raven::metrics as core;
        use raven_serve::metrics as serve;
        ServerSnapshot {
            wait_ms: 1e3 * serve::WAIT_SECONDS.sum(),
            service_ms: 1e3 * serve::SERVICE_SECONDS.sum(),
            deeppoly_ms: 1e3
                * (core::PHASE_MARGINS_SECONDS.sum() + core::PHASE_ANALYSIS_SECONDS.sum()),
            diffpoly_ms: 1e3 * core::PHASE_DIFFPOLY_SECONDS.sum(),
            encode_ms: 1e3 * core::PHASE_ENCODE_SECONDS.sum(),
            solve_ms: 1e3 * core::PHASE_SOLVE_SECONDS.sum(),
            spot_check_ms: serve::REPLAY_MILLIS.sum(),
            cert_bytes: serve::CERTIFICATE_BYTES.sum(),
            certs: serve::CERTIFICATE_BYTES.count() as f64,
            hits: serve::CACHE_HITS.get() as f64,
            misses: serve::CACHE_MISSES.get() as f64,
            rejected: serve::QUEUE_REJECTED.get() as f64,
            counters: metrics::counters(),
        }
    }

    /// Adds the server's share of the window to `t`, whose client-side
    /// times (`wall_ms`, `json_parse_ms`, …) are already filled; `rtt_ms`
    /// is Σ (last byte read − send).
    fn add_delta(&self, before: &ServerSnapshot, rtt_ms: f64, t: &mut LayerTotals) {
        let d = |f: fn(&ServerSnapshot) -> f64| f(self) - f(before);
        let (wait, service) = (d(|s| s.wait_ms), d(|s| s.service_ms));
        let phases = [
            d(|s| s.deeppoly_ms),
            d(|s| s.diffpoly_ms),
            d(|s| s.encode_ms),
            d(|s| s.solve_ms),
        ];
        let spot = d(|s| s.spot_check_ms);
        t.deeppoly_ms += phases[0];
        t.diffpoly_ms += phases[1];
        t.encode_ms += phases[2];
        t.lp_ms += phases[3];
        t.check_ms += spot;
        t.queue_wait_ms += wait;
        t.http_ms += rtt_ms - wait - service;
        t.unattributed_ms += service - phases.iter().sum::<f64>() - spot;
        t.cert_bytes += d(|s| s.cert_bytes);
        t.certs += d(|s| s.certs);
        t.cache_hits += d(|s| s.hits);
        t.cache_lookups += d(|s| s.hits) + d(|s| s.misses);
        t.rejected += d(|s| s.rejected);
        t.add_counters(before.counters, self.counters);
    }
}

/// Client spans of one answered request; returns its root span.
fn record_spans(tr: &mut Tracer, req: u64, t: &Times) -> usize {
    let root = tr.record("request", req, None, t.sent, t.parsed);
    tr.record("connect", req, Some(root), t.sent, t.connected);
    tr.record("write", req, Some(root), t.connected, t.written);
    tr.record("ttfb", req, Some(root), t.written, t.first_byte);
    tr.record("read", req, Some(root), t.first_byte, t.done);
    tr.record("parse", req, Some(root), t.done, t.parsed);
    root
}

/// Adds one answer's client-side share; returns its RTT in ms.
fn add_answer(totals: &mut LayerTotals, seen: &Seen) -> f64 {
    let t = &seen.t;
    totals.items += 1.0;
    totals.wall_ms += ms(t.parsed - t.sent);
    totals.json_parse_ms += ms(t.parsed - t.done);
    totals.response_bytes += seen.bytes as f64;
    totals.responses += 1.0;
    if let (false, Some(v)) = (seen.cached, &seen.uap) {
        totals.add_uap_verdict(v.hamming, v.lp_rows, v.solved);
    }
    ms(t.done - t.sent)
}

/// Stops the server when dropped, so a panicking `drive` cannot leave the
/// scope waiting on it forever.
struct StopOnDrop(raven_serve::ShutdownHandle);

impl Drop for StopOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Runs `drive` against a fresh in-process server, then drains and joins
/// the server.
fn with_server<T>(
    registry: ModelRegistry,
    drive: impl FnOnce(SocketAddr) -> T,
) -> Result<T, String> {
    let server =
        Server::bind(&ServerConfig::default(), registry).map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let stop = StopOnDrop(server.shutdown_handle());
    Ok(std::thread::scope(|s| {
        s.spawn(move || server.run());
        let _stop = stop;
        drive(addr)
    }))
}

fn empty_run(setup_s: f64, failure: Option<String>) -> Run {
    Run {
        setup_s,
        attempted: 0,
        failures: failure.into_iter().collect(),
        latencies_ms: Vec::new(),
        throughput: (0, 0.0),
        layers: None,
    }
}

/// Runs `serve-mixed`.
pub fn mixed(
    seed: u64,
    seconds: u64,
    traced: bool,
    measure: bool,
    started: Instant,
    tracer: &mut Tracer,
) -> Run {
    let fc = fc_model("fc-small", Training::Pgd).net;
    let credit = credit_model().net;
    let open_s = seconds as f64 * 2.0 / 3.0;
    let closed_s = seconds as f64 - open_s;
    let plan = plan(
        seed,
        RATE,
        open_s,
        (closed_s * MAX_CLOSED_RATE) as usize + 1,
    );
    let monos = plan
        .open
        .iter()
        .map(|(_, k)| *k)
        .chain(plan.closed.iter().copied())
        .filter(|k| matches!(k, Kind::Mono(_)))
        .count();
    let mut rng = raven_tensor::Rng::new(seed ^ 0xc3ed_17c3_e7e5_0000);
    let centers = (0..monos + HOT - HOT_UAP)
        .map(|_| (0..6).map(|_| rng.uniform()).collect())
        .collect();
    let bodies = Bodies {
        pool: inputs::digit_pool(&fc, MIX_POOL, seed),
        fc: fc.clone(),
        credit: Some(credit.clone()),
        uap: MIX_UAP,
        certificate: false,
        centers,
    };
    let mut registry = ModelRegistry::new();
    registry.add_network("fc-small", fc);
    registry.add_network("credit-sigmoid", credit);
    let served = with_server(registry, |addr| {
        // Warm-up: every hot body once, so later repeats hit the cache.
        let mut hot = Vec::with_capacity(HOT);
        for j in 0..HOT {
            let kind = Kind::Hot(j);
            match ask(addr, kind, &bodies.body(kind), true) {
                Ok((seen, _)) => hot.push(seen),
                Err(e) => return empty_run(started.elapsed().as_secs_f64(), Some(e)),
            }
        }
        let mut run = empty_run(started.elapsed().as_secs_f64(), None);
        if !measure {
            return run;
        }
        let before = ServerSnapshot::take();
        let epoch = Instant::now() + Duration::from_millis(10);
        let open = drive_clients(addr, &bodies, plan.open.len(), None, |i| {
            let (due, kind) = plan.open[i];
            (kind, Some(epoch + Duration::from_secs_f64(due)))
        });
        let closed_start = Instant::now();
        let closed = drive_clients(
            addr,
            &bodies,
            plan.closed.len(),
            Some(closed_start + Duration::from_secs_f64(closed_s)),
            |i| (plan.closed[i], None),
        );
        match closed
            .iter()
            .filter_map(|s| s.answer.as_ref().ok().map(|seen| seen.t.parsed))
            .max()
        {
            Some(end) => run.throughput = (closed.len(), (end - closed_start).as_secs_f64()),
            None => run.failures.push("closed loop answered nothing".into()),
        }
        // Histogram observations trail the responses slightly; let them land.
        std::thread::sleep(Duration::from_millis(20));
        let after = ServerSnapshot::take();

        // Checks run outside the window: every distinct UAP verdict against
        // attacks, every hot repeat against the body's first answer, and
        // the kept answers (plus each hot body once) against the in-library
        // verdict.
        let mut layers = LayerTotals::default();
        let mut rtt_ms = 0.0;
        let mut checks = Vec::new();
        for (i, s) in open.iter().chain(&closed).enumerate() {
            run.attempted += 1;
            let seen = match &s.answer {
                Ok(seen) => seen,
                Err(e) => {
                    run.failures.push(e.clone());
                    continue;
                }
            };
            if let Some(due) = s.due {
                run.latencies_ms
                    .push(ms(seen.t.parsed.saturating_duration_since(due)));
                layers
                    .gen_lags_ms
                    .push(ms(seen.t.sent.saturating_duration_since(due)));
            }
            match (s.kind, &seen.uap) {
                (Kind::Hot(j), _) if seen.result_hash != hot[j].result_hash => checks.push(Err(
                    format!("hot body {j}: repeat differs from its first answer"),
                )),
                (Kind::Uap(_), Some(v)) => checks.push(bodies.check_sound(s.kind, v)),
                _ => {}
            }
            if let Some(result) = &seen.result {
                checks.push(bodies.check_bytes(s.kind, result));
            }
            if traced {
                record_spans(tracer, i as u64, &seen.t);
                rtt_ms += add_answer(&mut layers, seen);
            }
        }
        for (j, seen) in hot.iter().enumerate() {
            if let Some(v) = &seen.uap {
                checks.push(bodies.check_sound(Kind::Hot(j), v));
            }
            if let Some(result) = &seen.result {
                checks.push(bodies.check_bytes(Kind::Hot(j), result));
            }
        }
        run.failures
            .extend(checks.into_iter().filter_map(Result::err));
        if traced {
            after.add_delta(&before, rtt_ms, &mut layers);
            layers.trace_overhead_ms = ms(tracer.overhead());
            run.layers = Some(layers);
        }
        run
    });
    served.unwrap_or_else(|e| empty_run(started.elapsed().as_secs_f64(), Some(e)))
}

/// One request as a client thread saw it.
struct Sample {
    kind: Kind,
    due: Option<Instant>,
    answer: Result<Seen, String>,
}

/// Sends requests `0..count` from [`CLIENTS`] threads. `request(i)` gives
/// the kind and, in an open loop, the due time to wait for; a closed loop
/// sends back to back and stops starting requests at `until`. One answer
/// in [`RECOMPUTE_EVERY`] keeps its result bytes for the in-library check.
fn drive_clients(
    addr: SocketAddr,
    bodies: &Bodies,
    count: usize,
    until: Option<Instant>,
    request: impl Fn(usize) -> (Kind, Option<Instant>) + Sync,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(count));
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                if until.is_some_and(|u| Instant::now() >= u) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let (kind, due) = request(i);
                let body = bodies.body(kind);
                if let Some(wait) = due.and_then(|d| d.checked_duration_since(Instant::now())) {
                    std::thread::sleep(wait);
                }
                let answer =
                    ask(addr, kind, &body, i.is_multiple_of(RECOMPUTE_EVERY)).map(|(seen, _)| seen);
                samples
                    .lock()
                    .expect("a client thread panicked")
                    .push((i, Sample { kind, due, answer }));
            });
        }
    });
    let mut samples = samples.into_inner().expect("a client thread panicked");
    samples.sort_by_key(|(i, _)| *i);
    samples.into_iter().map(|(_, s)| s).collect()
}

/// Runs `uap-certified`.
pub fn certified(
    seed: u64,
    seconds: u64,
    traced: bool,
    measure: bool,
    started: Instant,
    tracer: &mut Tracer,
) -> Run {
    let fc = fc_model("fc-small", Training::Pgd).net;
    let bodies = Bodies {
        pool: inputs::digit_pool(&fc, CERT_POOL, seed),
        fc: fc.clone(),
        credit: None,
        uap: CERT_UAP,
        certificate: true,
        centers: Vec::new(),
    };
    let mut registry = ModelRegistry::new();
    registry.add_network("fc-small", fc);
    let served = with_server(registry, |addr| {
        for j in 0..2 {
            let kind = Kind::Hot(j);
            if let Err(e) = ask(addr, kind, &bodies.body(kind), false) {
                return empty_run(started.elapsed().as_secs_f64(), Some(e));
            }
        }
        let mut run = empty_run(started.elapsed().as_secs_f64(), None);
        if !measure {
            return run;
        }
        let before = ServerSnapshot::take();
        let mut layers = LayerTotals::default();
        let mut rtt_ms = 0.0;
        let mut answered = Vec::new();
        let window = Duration::from_secs(seconds);
        let start = Instant::now();
        let mut last_end = start;
        let mut n = 0;
        while n == 0 || start.elapsed() < window {
            let kind = Kind::Uap(n);
            let body = bodies.body(kind);
            run.attempted += 1;
            let keep = n.is_multiple_of(RECOMPUTE_EVERY);
            let answer = ask(addr, kind, &body, keep).and_then(|(seen, envelope)| {
                let cert = envelope.get("certificate").filter(|c| !c.is_null());
                let cert = cert.ok_or("answer carries no certificate")?;
                raven_check::check_certificate_json(cert)
                    .map_err(|e| format!("certificate rejected: {e}"))?;
                Ok((seen, Instant::now()))
            });
            match answer {
                Ok((seen, checked)) => {
                    let t = &seen.t;
                    run.latencies_ms.push(ms(checked - t.sent));
                    if traced {
                        let root = record_spans(tracer, n as u64, t);
                        tracer.record("replay", n as u64, Some(root), t.parsed, checked);
                        layers.gen_lags_ms.push(ms(t.sent - last_end));
                        rtt_ms += add_answer(&mut layers, &seen);
                        layers.wall_ms += ms(checked - t.parsed);
                        layers.check_ms += ms(checked - t.parsed);
                    }
                    answered.push((kind, seen));
                }
                Err(e) => run.failures.push(e),
            }
            last_end = Instant::now();
            n += 1;
        }
        run.throughput = (n, start.elapsed().as_secs_f64());
        std::thread::sleep(Duration::from_millis(20));
        let after = ServerSnapshot::take();
        // Every verdict against attacks, the kept ones byte for byte
        // against the in-library verdict; outside the window.
        for (kind, seen) in &answered {
            if let Some(v) = &seen.uap {
                run.failures.extend(bodies.check_sound(*kind, v).err());
            }
            if let Some(result) = &seen.result {
                run.failures.extend(bodies.check_bytes(*kind, result).err());
            }
        }
        if traced {
            after.add_delta(&before, rtt_ms, &mut layers);
            layers.trace_overhead_ms = ms(tracer.overhead());
            run.layers = Some(layers);
        }
        run
    });
    served.unwrap_or_else(|e| empty_run(started.elapsed().as_secs_f64(), Some(e)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_seeded() {
        let a = plan(1, RATE, 10.0, 500);
        assert_eq!(a, plan(1, RATE, 10.0, 500), "same seed, same schedule");
        let b = plan(2, RATE, 10.0, 500);
        assert_ne!(a.open, b.open, "another seed, other due times and requests");
        assert_ne!(a.closed, b.closed);
        // ~150 req/s over 10 s, due times increasing inside the window.
        assert!((1200..1800).contains(&a.open.len()), "{}", a.open.len());
        assert!(a.open.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(a.open.iter().all(|&(t, _)| (0.0..10.0).contains(&t)));
        // Distinct bodies never repeat across the two phases.
        let mut uaps: Vec<usize> = a
            .open
            .iter()
            .map(|(_, k)| *k)
            .chain(a.closed.iter().copied())
            .filter_map(|k| match k {
                Kind::Uap(n) => Some(n),
                _ => None,
            })
            .collect();
        let total = uaps.len();
        uaps.dedup();
        assert_eq!(uaps.len(), total);
    }
}
