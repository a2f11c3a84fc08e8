//! Request routing and the verification endpoints.
//!
//! Every endpoint parses its JSON body into a `VerifySpec`, derives the
//! [`CacheKey`], and runs the query through the shared job queue. Verdict
//! objects come from `raven::report` — the same functions `raven_cli
//! --json` uses — so a server response's `result` field is byte-identical
//! to the CLI's for the same query.

use crate::cache::{CacheKey, CachedResult, PayloadHasher};
use crate::http::Request;
use crate::journal::Record;
use crate::queue::{JobFn, JobMeta, JobSlot, JobState};
use crate::registry::{ModelEntry, ModelRegistry};
use crate::ServerState;
use raven::hooks::RunHooks;
use raven::{
    report, verify_monotonicity_with_hooks, verify_uap_with_hooks, Method, MonotonicityProblem,
    PairStrategy, RavenConfig, TierMillis, UapProblem,
};
use raven_json::Json;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An HTTP reply: status, content type, extra headers, and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra response headers (e.g. `Retry-After` on 429).
    pub headers: Vec<(&'static str, String)>,
    /// Serialized response body.
    pub body: String,
}

impl Reply {
    /// A JSON reply with no extra headers.
    fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body,
        }
    }

    /// Adds one extra response header.
    fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }
}

fn error_reply(status: u16, message: &str) -> Reply {
    let body = Json::obj([("error", Json::from(message))]).to_string();
    Reply::json(status, body)
}

/// A 429 with `Retry-After` so well-behaved clients back off instead of
/// hammering a saturated queue. One second matches the granularity of a
/// queue drained by jobs that take hundreds of milliseconds to seconds.
fn queue_full_reply() -> Reply {
    error_reply(429, "verification queue is full, retry later").with_header("Retry-After", "1")
}

/// Routes one parsed request to its handler.
pub fn handle(state: &Arc<ServerState>, req: &Request) -> Reply {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/healthz") => healthz(state),
        ("GET", "/v1/metrics") => metrics(),
        ("GET", "/v1/models") => models(state),
        ("POST", "/v1/verify/uap") => verify_sync(state, req, Property::Uap),
        ("POST", "/v1/verify/mono") => verify_sync(state, req, Property::Mono),
        ("POST", "/v1/jobs") => submit_job(state, req),
        ("GET", p) if p.starts_with("/v1/jobs/") => job_status(state, p),
        ("GET", "/v1/traces") => list_traces(state),
        ("GET", p) if p.starts_with("/v1/traces/") => trace_detail(state, req, p),
        ("GET" | "POST", _) => error_reply(404, "no such endpoint"),
        _ => error_reply(405, "method not allowed"),
    }
}

/// `GET /v1/metrics` — the whole stack's instruments (solver, analysis
/// domains, verifier core, service layer) in Prometheus text format.
fn metrics() -> Reply {
    let mut tables = raven::metrics::all_descs();
    tables.push(&crate::metrics::DESCS);
    Reply {
        status: 200,
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        headers: Vec::new(),
        body: raven_obs::render_prometheus(&tables),
    }
}

/// `GET /v1/traces` — summaries of the tail-sampled traces, newest first.
fn list_traces(state: &Arc<ServerState>) -> Reply {
    Reply::json(200, state.traces.list().to_string())
}

/// `GET /v1/traces/{id}` — one retained trace, as native JSONL (the
/// default; `scripts/trace2folded.rs` folds it) or the Chrome trace-event
/// format with `?format=chrome` (load in `chrome://tracing` / Perfetto).
fn trace_detail(state: &Arc<ServerState>, req: &Request, path: &str) -> Reply {
    let hex = &path["/v1/traces/".len()..];
    let Ok(trace_id) = u128::from_str_radix(hex, 16) else {
        return error_reply(
            400,
            "trace id must be hex (as echoed in the traceparent header)",
        );
    };
    let Some(trace) = state.traces.get(trace_id) else {
        return error_reply(404, "no such trace (not sampled, or evicted)");
    };
    let chrome = req
        .query
        .as_deref()
        .is_some_and(|q| q.split('&').any(|kv| kv == "format=chrome"));
    if chrome {
        Reply::json(200, crate::trace::render_chrome(&trace).to_string())
    } else {
        Reply {
            status: 200,
            content_type: "application/x-ndjson",
            headers: Vec::new(),
            body: crate::trace::render_jsonl(&trace),
        }
    }
}

fn healthz(state: &Arc<ServerState>) -> Reply {
    let stats = state.queue.stats();
    let (hits, misses) = state.cache.counters();
    let body = Json::obj([
        ("status", Json::from("ok")),
        (
            "uptime_secs",
            Json::from(state.started.elapsed().as_secs_f64()),
        ),
        ("models", Json::from(state.registry.len())),
        (
            "queue",
            Json::obj([
                ("depth", Json::from(stats.queued)),
                ("running", Json::from(stats.running)),
                ("capacity", Json::from(stats.capacity)),
                ("submitted", Json::from(stats.submitted as f64)),
                ("completed", Json::from(stats.completed as f64)),
                ("failed", Json::from(stats.failed as f64)),
                ("rejected", Json::from(stats.rejected as f64)),
                ("retried", Json::from(stats.retried as f64)),
                ("watchdog_kills", Json::from(stats.watchdog_kills as f64)),
            ]),
        ),
        (
            "cache",
            Json::obj([
                ("hits", Json::from(hits as f64)),
                ("misses", Json::from(misses as f64)),
                ("entries", Json::from(state.cache.len())),
                ("capacity", Json::from(state.cache.capacity())),
            ]),
        ),
        (
            "stats",
            Json::obj([
                (
                    "simplex_pivots",
                    Json::from(raven_lp::metrics::SIMPLEX_PIVOTS.get() as f64),
                ),
                (
                    "lp_solves",
                    Json::from(raven_lp::metrics::LP_SOLVES.get() as f64),
                ),
                (
                    "milp_nodes",
                    Json::from(raven_lp::metrics::MILP_NODES.get() as f64),
                ),
                (
                    "uap_runs",
                    Json::from(raven::metrics::UAP_RUNS.get() as f64),
                ),
                (
                    "mono_runs",
                    Json::from(raven::metrics::MONO_RUNS.get() as f64),
                ),
                (
                    "degraded",
                    Json::from(raven::metrics::DEGRADED.get() as f64),
                ),
                (
                    "spot_check_failures",
                    Json::from(crate::metrics::SPOT_CHECK_FAILURES.get() as f64),
                ),
            ]),
        ),
    ]);
    Reply::json(200, body.to_string())
}

fn models(state: &Arc<ServerState>) -> Reply {
    let entries: Vec<Json> = state
        .registry
        .entries()
        .iter()
        .map(|e| {
            Json::obj([
                ("name", Json::from(e.name.as_str())),
                ("hash", Json::from(e.hash_hex())),
                ("input_dim", Json::from(e.plan.input_dim())),
                ("output_dim", Json::from(e.plan.output_dim())),
            ])
        })
        .collect();
    Reply::json(200, Json::obj([("models", Json::Arr(entries))]).to_string())
}

/// Which property family a request targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Property {
    Uap,
    Mono,
}

impl Property {
    /// Stable name used in job bodies and journal records.
    fn name(self) -> &'static str {
        match self {
            Property::Uap => "uap",
            Property::Mono => "monotonicity",
        }
    }

    fn from_name(name: &str) -> Option<Property> {
        match name {
            "uap" => Some(Property::Uap),
            "monotonicity" => Some(Property::Mono),
            _ => None,
        }
    }
}

/// A fully parsed, validated verification request.
struct VerifySpec {
    entry: Arc<ModelEntry>,
    method: Method,
    config: RavenConfig,
    eps: f64,
    payload: Payload,
    /// Artificial pre-solve delay (milliseconds) — a load-testing knob
    /// used by the backpressure tests; excluded from the cache key.
    delay_millis: u64,
    /// Per-request solve deadline override (milliseconds). Like
    /// `delay_millis` it is excluded from the cache key: a deadline never
    /// changes what a verdict *means*, only how precise it is, and
    /// degraded verdicts are never cached anyway.
    deadline_ms: Option<u64>,
    /// Idempotency key from the JSON body (`idempotency_key`); the
    /// `Idempotency-Key` header takes precedence when both are present.
    /// Excluded from the cache key — it identifies a *submission*, not a
    /// query.
    idempotency_key: Option<String>,
    /// `certificate=1` (or `true`): emit a replayable proof certificate
    /// next to the verdict. Excluded from the cache key — the verdict is
    /// identical either way — but a certificate request bypasses cache
    /// *reads*, since cached entries carry no certificate.
    certificate: bool,
}

enum Payload {
    Uap {
        inputs: Vec<Vec<f64>>,
        labels: Vec<usize>,
    },
    Mono {
        center: Vec<f64>,
        feature: usize,
        tau: f64,
        increasing: bool,
        output_weights: Vec<f64>,
    },
}

impl VerifySpec {
    fn property_name(&self) -> &'static str {
        match self.payload {
            Payload::Uap { .. } => Property::Uap.name(),
            Payload::Mono { .. } => Property::Mono.name(),
        }
    }

    fn cache_key(&self) -> CacheKey {
        let mut h = PayloadHasher::new();
        match &self.payload {
            Payload::Uap { inputs, labels } => {
                h.usize(inputs.len());
                for x in inputs {
                    h.f64s(x);
                }
                h.usize(labels.len());
                for &l in labels {
                    h.usize(l);
                }
            }
            Payload::Mono {
                center,
                feature,
                tau,
                increasing,
                output_weights,
            } => {
                h.f64s(center)
                    .usize(*feature)
                    .f64(*tau)
                    .bool(*increasing)
                    .f64s(output_weights);
            }
        }
        h.bool(self.config.spec_milp);
        CacheKey {
            model_hash: self.entry.hash,
            property: self.property_name(),
            method: self.method,
            pairs: self.config.pairs,
            eps_bits: self.eps.to_bits(),
            batch_hash: h.finish(),
        }
    }
}

/// Parse failure carrying the status to answer with (400 or 404).
struct ParseFail(u16, String);

fn bad(msg: impl Into<String>) -> ParseFail {
    ParseFail(400, msg.into())
}

fn parse_spec(
    registry: &ModelRegistry,
    job_threads: usize,
    body: &[u8],
    property: Property,
) -> Result<VerifySpec, ParseFail> {
    let text = std::str::from_utf8(body).map_err(|_| bad("body is not utf-8"))?;
    let json = Json::parse(text).map_err(|e| bad(format!("invalid json: {e}")))?;
    let model = json
        .get("model")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing string field \"model\""))?;
    let entry = registry
        .get(model)
        .ok_or_else(|| ParseFail(404, format!("unknown model {model:?}")))?;
    let eps = json
        .get("eps")
        .and_then(Json::as_f64)
        .ok_or_else(|| bad("missing number field \"eps\""))?;
    if !eps.is_finite() || eps < 0.0 {
        return Err(bad("\"eps\" must be finite and non-negative"));
    }
    let method = match json.get("method") {
        None => Method::Raven,
        Some(m) => {
            let name = m
                .as_str()
                .ok_or_else(|| bad("\"method\" must be a string"))?;
            Method::from_name(name).ok_or_else(|| {
                bad(format!(
                    "unknown method {name:?} (try box, zonotope, deeppoly, io-lp, raven)"
                ))
            })?
        }
    };
    let mut config = RavenConfig {
        threads: job_threads,
        ..RavenConfig::default()
    };
    if let Some(p) = json.get("pairs") {
        let name = p
            .as_str()
            .ok_or_else(|| bad("\"pairs\" must be a string"))?;
        config.pairs = PairStrategy::from_name(name).ok_or_else(|| {
            bad(format!(
                "unknown pair strategy {name:?} (try none, consecutive, all)"
            ))
        })?;
    }
    if let Some(m) = json.get("spec_milp") {
        config.spec_milp = m
            .as_bool()
            .ok_or_else(|| bad("\"spec_milp\" must be a boolean"))?;
    }
    let delay_millis = match json.get("delay_millis") {
        None => 0,
        Some(d) => d
            .as_usize()
            .ok_or_else(|| bad("\"delay_millis\" must be a non-negative integer"))?
            as u64,
    };
    let deadline_ms = match json.get("deadline_ms") {
        None => None,
        Some(d) => Some(
            d.as_usize()
                .filter(|&ms| ms > 0)
                .ok_or_else(|| bad("\"deadline_ms\" must be a positive integer"))?
                as u64,
        ),
    };
    let idempotency_key = match json.get("idempotency_key") {
        None => None,
        Some(k) => Some(
            k.as_str()
                .filter(|k| !k.is_empty())
                .ok_or_else(|| bad("\"idempotency_key\" must be a non-empty string"))?
                .to_string(),
        ),
    };
    let certificate = match json.get("certificate") {
        None => false,
        // Accept both `true` and `1` — curl one-liners tend to write `1`.
        Some(c) => c
            .as_bool()
            .or_else(|| c.as_usize().map(|n| n != 0))
            .ok_or_else(|| bad("\"certificate\" must be a boolean or 0/1"))?,
    };
    let input_dim = entry.plan.input_dim();
    let output_dim = entry.plan.output_dim();
    let payload = match property {
        Property::Uap => {
            let inputs = json
                .get("inputs")
                .and_then(Json::as_array)
                .ok_or_else(|| bad("missing array field \"inputs\""))?;
            let inputs: Vec<Vec<f64>> = inputs
                .iter()
                .enumerate()
                .map(|(i, row)| {
                    row.as_f64_vec()
                        .filter(|v| v.len() == input_dim)
                        .ok_or_else(|| {
                            bad(format!(
                                "inputs[{i}] must be an array of {input_dim} numbers"
                            ))
                        })
                })
                .collect::<Result<_, _>>()?;
            if inputs.is_empty() {
                return Err(bad("\"inputs\" must be non-empty"));
            }
            let labels = json
                .get("labels")
                .and_then(Json::as_array)
                .ok_or_else(|| bad("missing array field \"labels\""))?;
            let labels: Vec<usize> = labels
                .iter()
                .enumerate()
                .map(|(i, l)| {
                    l.as_usize().filter(|&l| l < output_dim).ok_or_else(|| {
                        bad(format!("labels[{i}] must be an integer < {output_dim}"))
                    })
                })
                .collect::<Result<_, _>>()?;
            if labels.len() != inputs.len() {
                return Err(bad("\"labels\" and \"inputs\" must have the same length"));
            }
            Payload::Uap { inputs, labels }
        }
        Property::Mono => {
            let center = json
                .get("center")
                .and_then(Json::as_f64_vec)
                .filter(|c| c.len() == input_dim)
                .ok_or_else(|| {
                    bad(format!(
                        "\"center\" must be an array of {input_dim} numbers"
                    ))
                })?;
            let feature = json
                .get("feature")
                .and_then(Json::as_usize)
                .filter(|&f| f < input_dim)
                .ok_or_else(|| bad(format!("\"feature\" must be an integer < {input_dim}")))?;
            let tau = json
                .get("tau")
                .and_then(Json::as_f64)
                .filter(|t| t.is_finite() && *t >= 0.0)
                .ok_or_else(|| bad("\"tau\" must be a finite non-negative number"))?;
            let increasing = match json.get("increasing") {
                None => true,
                Some(b) => b
                    .as_bool()
                    .ok_or_else(|| bad("\"increasing\" must be a boolean"))?,
            };
            let output_weights = match json.get("output_weights") {
                Some(w) => w
                    .as_f64_vec()
                    .filter(|w| w.len() == output_dim)
                    .ok_or_else(|| {
                        bad(format!(
                            "\"output_weights\" must be an array of {output_dim} numbers"
                        ))
                    })?,
                None => {
                    // Same default score as the CLI: last logit minus first.
                    let mut w = vec![0.0; output_dim];
                    w[0] = -1.0;
                    w[output_dim - 1] = 1.0;
                    w
                }
            };
            Payload::Mono {
                center,
                feature,
                tau,
                increasing,
                output_weights,
            }
        }
    };
    Ok(VerifySpec {
        entry,
        method,
        config,
        eps,
        payload,
        delay_millis,
        deadline_ms,
        idempotency_key,
        certificate,
    })
}

/// The outcome of one verification run, ready for envelope assembly.
struct Computed {
    verdict: String,
    solve_millis: f64,
    tier_millis: TierMillis,
    /// True when the solve hit its deadline and fell down the precision
    /// ladder — the verdict is sound but weaker than an unlimited run.
    degraded: bool,
    /// Serialized proof certificate, when the request asked for one and
    /// the run produced certifiable evidence. Never part of `verdict`.
    certificate: Option<Json>,
    /// Whether the in-process spot check accepted the emitted certificate
    /// (vacuously true when none was emitted). `--strict-certificates`
    /// recomputes the job when this is false.
    spot_ok: bool,
}

/// Spot-checks an emitted certificate by replaying it in the in-process
/// exact checker, recording size and replay-time metrics. By default a
/// rejection is counted and logged but never blocks the response: the
/// verdict itself is not derived from the certificate, and the client can
/// (and should) replay it independently with `raven_check`. Under
/// `--strict-certificates` the caller recomputes instead of serving the
/// unverifiable response.
fn spot_check_certificate(json: &Json) -> bool {
    crate::metrics::CERTIFICATE_BYTES.observe(json.to_string().len() as f64);
    let t0 = Instant::now();
    let outcome = raven_check::check_certificate_json(json);
    crate::metrics::REPLAY_MILLIS.observe(t0.elapsed().as_secs_f64() * 1e3);
    match outcome {
        Ok(_) => true,
        Err(e) => {
            crate::metrics::SPOT_CHECK_FAILURES.inc();
            eprintln!("raven-serve: certificate spot check failed: {e}");
            false
        }
    }
}

/// Serializes an emitted certificate and runs the spot-check hook on it.
/// Returns the JSON (chaos may tamper it first — that is the point: the
/// spot check must catch the tamper) and the spot-check outcome.
fn certificate_json(cert: Option<raven::Certificate>) -> (Option<Json>, bool) {
    let Some(cert) = cert else {
        return (None, true);
    };
    let mut json = cert.to_json();
    if crate::chaos::take_cert_tamper() {
        crate::chaos::tamper_certificate(&mut json);
    }
    let ok = spot_check_certificate(&json);
    (Some(json), ok)
}

/// Computes the verdict for `spec` (expensive; runs on a worker thread).
///
/// The solve deadline starts ticking here, when a worker picks the job
/// up. On exhaustion the verifier degrades to the strongest sound verdict
/// it has (MILP incumbent bound → LP relaxation → analysis bounds)
/// instead of erroring.
///
/// Returns an error only when the run was cancelled — through either of
/// the two cancel flags (server shutdown and the job's own watchdog flag).
fn compute_verdict(
    spec: &VerifySpec,
    deadline: Option<Duration>,
    cancels: (&AtomicBool, &AtomicBool),
) -> Result<Computed, String> {
    crate::chaos::job_panic_point();
    crate::chaos::job_abort_point();
    let mut hooks = RunHooks::default()
        .with_cancel(cancels.0)
        .with_cancel(cancels.1);
    // Attach the request's trace context (installed on this thread by the
    // queue) so the phase spans and solver events land in the owning trace
    // even when the verifier fans out to helper threads.
    if let Some(ctx) = raven_obs::current_trace() {
        hooks = hooks.with_trace(ctx);
    }
    if let Some(d) = deadline {
        // The artificial `delay_millis` sleep below counts against the
        // deadline, exactly like a slow solve would.
        hooks = hooks.with_deadline_in(d);
    }
    let start = Instant::now();
    if spec.delay_millis > 0 {
        std::thread::sleep(std::time::Duration::from_millis(spec.delay_millis));
    }
    let cancelled = || "verification cancelled".to_string();
    let (verdict, tier_millis, degraded, certificate) = match &spec.payload {
        Payload::Uap { inputs, labels } => {
            let problem = UapProblem {
                plan: spec.entry.plan.clone(),
                inputs: inputs.clone(),
                labels: labels.clone(),
                eps: spec.eps,
            };
            let (res, cert) = verify_uap_with_hooks(
                &problem,
                spec.method,
                &spec.config,
                &hooks,
                spec.certificate,
            )
            .ok_or_else(cancelled)?;
            (
                report::uap_verdict_json(problem.k(), problem.eps, &res),
                res.tier_millis,
                res.degraded,
                certificate_json(cert),
            )
        }
        Payload::Mono {
            center,
            feature,
            tau,
            increasing,
            output_weights,
        } => {
            let problem = MonotonicityProblem {
                plan: spec.entry.plan.clone(),
                center: center.clone(),
                eps: spec.eps,
                feature: *feature,
                tau: *tau,
                output_weights: output_weights.clone(),
                increasing: *increasing,
            };
            let (res, cert) = verify_monotonicity_with_hooks(
                &problem,
                spec.method,
                &spec.config,
                &hooks,
                spec.certificate,
            )
            .ok_or_else(cancelled)?;
            (
                report::mono_verdict_json(&problem, &res),
                res.tier_millis,
                res.degraded,
                certificate_json(cert),
            )
        }
    };
    let (certificate, spot_ok) = certificate;
    Ok(Computed {
        verdict: verdict.to_string(),
        solve_millis: start.elapsed().as_secs_f64() * 1e3,
        tier_millis,
        degraded,
        certificate,
        spot_ok,
    })
}

/// Builds the response envelope around a verdict. The certificate (when
/// requested) travels as a *sibling* of `result`, never inside it: the
/// verdict bytes must stay identical with and without certification.
fn envelope(
    spec: &VerifySpec,
    verdict: &str,
    solve_millis: f64,
    tier_millis: &TierMillis,
    cached: bool,
    certificate: Option<Json>,
) -> Json {
    let result = Json::parse(verdict).expect("verdicts are valid json");
    let mut fields = vec![
        ("kind", Json::from(spec.property_name())),
        ("model", Json::from(spec.entry.name.as_str())),
        ("model_hash", Json::from(spec.entry.hash_hex())),
        ("result", result),
        ("solve_millis", Json::from(solve_millis)),
        ("tier_millis", report::tier_millis_json(tier_millis)),
        ("cached", Json::from(cached)),
    ];
    if spec.certificate {
        // Always present when requested; JSON null when the run produced
        // no certifiable evidence.
        fields.push(("certificate", certificate.unwrap_or(Json::Null)));
    }
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The job closure body: cache-aware verdict computation.
fn run_verify(
    state: &Arc<ServerState>,
    spec: &VerifySpec,
    check_cache: bool,
    job_cancel: &AtomicBool,
) -> Result<Json, String> {
    let key = spec.cache_key();
    // Cached entries carry no certificate, so a certificate request must
    // recompute (the verdict it returns is still byte-identical).
    if check_cache && !spec.certificate {
        if let Some(hit) = state.cache.get(&key) {
            return Ok(envelope(
                spec,
                &hit.verdict,
                hit.solve_millis,
                &hit.tier_millis,
                true,
                None,
            ));
        }
    }
    let deadline = spec
        .deadline_ms
        .map(Duration::from_millis)
        .or(state.default_deadline);
    let mut computed = compute_verdict(spec, deadline, (&state.cancel, job_cancel))?;
    if state.strict_certificates && !computed.spot_ok {
        // Strict mode: never serve a response whose certificate failed its
        // own spot check — recompute once and serve that run instead (its
        // certificate gets its own spot check; a second failure is served
        // regardless, since retrying a deterministic bug forever is worse).
        crate::metrics::STRICT_RECOMPUTES.inc();
        computed = compute_verdict(spec, deadline, (&state.cancel, job_cancel))?;
    }
    // Degraded verdicts are budget-dependent, not query-determined: the
    // same query with a longer deadline yields a strictly better answer,
    // so caching one would serve needlessly weak verdicts forever.
    if !computed.degraded {
        state.cache.put(
            key,
            CachedResult {
                verdict: computed.verdict.clone(),
                solve_millis: computed.solve_millis,
                tier_millis: computed.tier_millis,
            },
        );
    }
    Ok(envelope(
        spec,
        &computed.verdict,
        computed.solve_millis,
        &computed.tier_millis,
        false,
        computed.certificate,
    ))
}

/// Builds the per-job scheduling metadata and queue closure for `spec`.
fn job_for(
    state: &Arc<ServerState>,
    id: u64,
    spec: VerifySpec,
    check_cache: bool,
    trace: Option<raven_obs::TraceCtx>,
) -> (JobMeta, JobFn) {
    let cancel = Arc::new(AtomicBool::new(false));
    let meta = JobMeta {
        deadline: spec
            .deadline_ms
            .map(Duration::from_millis)
            .or(state.default_deadline),
        cancel: Some(cancel.clone()),
        trace,
    };
    let job_state = Arc::clone(state);
    let job: JobFn = Box::new(move || {
        // `begin` reads the context the queue installed on this thread; on
        // an untraced job (recovery resubmits) it is a no-op `None`.
        let job_trace = crate::trace::JobTrace::begin();
        let mut result = {
            let _span = raven_obs::span("job");
            run_verify(&job_state, &spec, check_cache, &cancel)
        };
        if let Some(t) = job_trace {
            t.finish(
                &job_state.traces,
                id,
                spec.property_name(),
                &spec.entry.name,
                &mut result,
            );
        }
        result
    });
    (meta, job)
}

/// Outcome of admitting a submission through the idempotency layer.
enum Admitted {
    /// A fresh job was accepted.
    New(u64, Arc<JobSlot>),
    /// The idempotency key matched an earlier submission: its job, with
    /// whatever state it has reached. No new solver work was enqueued.
    Existing(u64, Arc<JobSlot>),
}

/// Mints the request's trace context: an incoming `traceparent` header
/// continues the caller's trace id; otherwise a fresh id is minted. The
/// context's parent span doubles as the synthesized `request` root span.
fn begin_request_trace(req: &Request) -> raven_obs::TraceCtx {
    let trace_id = req
        .traceparent
        .as_deref()
        .and_then(raven_obs::parse_traceparent)
        .map_or_else(raven_obs::mint_trace_id, |(id, _span)| id);
    raven_obs::begin_trace(trace_id, raven_obs::next_span_id())
}

/// Admits one verification submission: idempotency-key dedup, queue
/// submission, jobs-map registration, and the journal `Submitted` record
/// (fsync'd before the ack).
fn admit(
    state: &Arc<ServerState>,
    req: &Request,
    spec: VerifySpec,
    check_cache: bool,
    trace: Option<raven_obs::TraceCtx>,
) -> Result<Admitted, Reply> {
    let key = req
        .idempotency_key
        .clone()
        .or_else(|| spec.idempotency_key.clone());
    let property = spec.property_name();
    // The key map lock is held across submission so two racing retries
    // with the same key cannot both enqueue solver work.
    let mut key_guard = key
        .as_ref()
        .map(|_| state.idempotency.lock().expect("idempotency lock"));
    if let (Some(k), Some(map)) = (&key, key_guard.as_deref()) {
        if let Some(&existing) = map.get(k) {
            if let Some(slot) = state
                .jobs
                .lock()
                .expect("jobs lock")
                .get(&existing)
                .cloned()
            {
                crate::metrics::IDEMPOTENT_HITS.inc();
                // No new job runs, so this request's trace buffer would
                // leak — release it.
                if let Some(ctx) = trace {
                    raven_obs::discard_trace(ctx);
                }
                return Ok(Admitted::Existing(existing, slot));
            }
        }
    }
    let id = state.next_job_id.fetch_add(1, Ordering::Relaxed);
    let (meta, job) = job_for(state, id, spec, check_cache, trace);
    let slot = match state.queue.submit(id, meta, job) {
        Ok(slot) => slot,
        Err(_) => {
            // Rejected before any worker saw it: the queue's terminal
            // backstop never fires, so release the buffer here.
            if let Some(ctx) = trace {
                raven_obs::discard_trace(ctx);
            }
            return Err(queue_full_reply());
        }
    };
    state
        .jobs
        .lock()
        .expect("jobs lock")
        .insert(id, slot.clone());
    if let (Some(k), Some(map)) = (&key, key_guard.as_deref_mut()) {
        map.insert(k.clone(), id);
    }
    drop(key_guard);
    if let Some(journal) = &state.journal {
        let record = Record::Submitted {
            id,
            property: property.to_string(),
            body: String::from_utf8_lossy(&req.body).into_owned(),
            key,
        };
        if let Err(e) = journal.append(&record, true) {
            // The job runs regardless (it cannot be un-queued), but a
            // submission the journal failed to capture must not be acked
            // as durable.
            return Err(error_reply(500, &format!("journal append failed: {e}")));
        }
    }
    Ok(Admitted::New(id, slot))
}

/// The 409 served for a quarantined job.
fn quarantined_reply() -> Reply {
    error_reply(
        409,
        "job is quarantined: it crashed the server repeatedly and will not \
         be retried (resubmit with a new idempotency key to try again)",
    )
}

fn verify_sync(state: &Arc<ServerState>, req: &Request, property: Property) -> Reply {
    let spec = match parse_spec(&state.registry, state.job_threads, &req.body, property) {
        Ok(spec) => spec,
        Err(ParseFail(status, msg)) => return error_reply(status, &msg),
    };
    // Fast path: cache hits are answered without consuming a queue slot
    // (and without a journal record — there is nothing to recover).
    // Certificate requests skip it: cached entries carry no certificate.
    if !spec.certificate {
        if let Some(hit) = state.cache.get(&spec.cache_key()) {
            return Reply::json(
                200,
                envelope(
                    &spec,
                    &hit.verdict,
                    hit.solve_millis,
                    &hit.tier_millis,
                    true,
                    None,
                )
                .to_string(),
            );
        }
    }
    let keyed = req.idempotency_key.is_some() || spec.idempotency_key.is_some();
    let trace = begin_request_trace(req);
    let traceparent = trace.traceparent();
    let (id, slot) = match admit(state, req, spec, false, Some(trace)) {
        Ok(Admitted::New(id, slot) | Admitted::Existing(id, slot)) => (id, slot),
        Err(reply) => return reply,
    };
    let outcome = slot.wait_terminal(state.request_timeout);
    // A sync caller never learns its job id, so only an idempotency key can
    // reach the slot again: unkeyed slots leave the jobs map once answered
    // or abandoned, instead of holding every envelope for the server's life.
    if !keyed {
        state.jobs.lock().expect("jobs lock").remove(&id);
    }
    let reply = match outcome {
        Some(JobState::Done(response)) => Reply::json(200, response.to_string()),
        Some(JobState::Failed(message)) => error_reply(500, &message),
        Some(JobState::Quarantined) => quarantined_reply(),
        Some(_) => unreachable!("wait_terminal only returns terminal states"),
        // On timeout the job (and its trace) is still running; the queue's
        // terminal backstop releases the buffer when it finishes.
        None => error_reply(
            504,
            "verification exceeded the request timeout (submit via /v1/jobs to poll instead)",
        ),
    };
    reply.with_header("traceparent", traceparent)
}

fn submit_job(state: &Arc<ServerState>, req: &Request) -> Reply {
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return error_reply(400, "body is not utf-8"),
    };
    let json = match Json::parse(text) {
        Ok(j) => j,
        Err(e) => return error_reply(400, &format!("invalid json: {e}")),
    };
    let property = match json.get("property").and_then(Json::as_str) {
        Some(name) => match Property::from_name(name) {
            Some(p) => p,
            None => {
                return error_reply(
                    400,
                    "field \"property\" must be \"uap\" or \"monotonicity\"",
                )
            }
        },
        None => {
            return error_reply(
                400,
                "missing field \"property\" (\"uap\" or \"monotonicity\")",
            )
        }
    };
    let spec = match parse_spec(&state.registry, state.job_threads, &req.body, property) {
        Ok(spec) => spec,
        Err(ParseFail(status, msg)) => return error_reply(status, &msg),
    };
    let trace = begin_request_trace(req);
    let traceparent = trace.traceparent();
    match admit(state, req, spec, true, Some(trace)) {
        Ok(Admitted::New(id, _)) => {
            let body = Json::obj([
                ("job_id", Json::from(id as f64)),
                ("status", Json::from("queued")),
            ]);
            Reply::json(202, body.to_string()).with_header("traceparent", traceparent)
        }
        Ok(Admitted::Existing(id, slot)) => {
            // Idempotent replay: report the original job, not a new one.
            let body = Json::obj([
                ("job_id", Json::from(id as f64)),
                ("status", Json::from(slot.state().status())),
                ("idempotent", Json::from(true)),
            ]);
            Reply::json(200, body.to_string())
        }
        Err(reply) => reply,
    }
}

/// Rebuilds a recovered non-terminal job from its journaled submit record
/// and re-enqueues it under its original id (restart recovery path).
pub(crate) fn resubmit_recovered(
    state: &Arc<ServerState>,
    id: u64,
    property: &str,
    body: &str,
) -> Result<Arc<JobSlot>, String> {
    let property = Property::from_name(property)
        .ok_or_else(|| format!("journal names unknown property {property:?}"))?;
    let spec = parse_spec(
        &state.registry,
        state.job_threads,
        body.as_bytes(),
        property,
    )
    .map_err(|ParseFail(_, msg)| format!("journaled body no longer parses: {msg}"))?;
    // Recovered jobs run untraced: the original request's context died
    // with the crashed process.
    let (meta, job) = job_for(state, id, spec, true, None);
    state
        .queue
        .submit(id, meta, job)
        .map_err(|_| "queue full during recovery".to_string())
}

/// Restores a replayed cacheable verdict into the LRU so post-restart
/// queries hit the cache instead of re-solving. Returns whether the
/// envelope was restored (a journal from before a model was unloaded may
/// no longer parse — skipped, not fatal).
pub(crate) fn restore_cached_verdict(
    state: &Arc<ServerState>,
    property: &str,
    body: &str,
    envelope: &Json,
) -> bool {
    let Some(property) = Property::from_name(property) else {
        return false;
    };
    let Ok(spec) = parse_spec(
        &state.registry,
        state.job_threads,
        body.as_bytes(),
        property,
    ) else {
        return false;
    };
    let Some(result) = envelope.get("result") else {
        return false;
    };
    let tier = |field: &str| {
        envelope
            .get("tier_millis")
            .and_then(|t| t.get(field))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    state.cache.put(
        spec.cache_key(),
        CachedResult {
            verdict: result.to_string(),
            solve_millis: envelope
                .get("solve_millis")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            tier_millis: TierMillis {
                analysis: tier("analysis"),
                lp: tier("lp"),
                milp: tier("milp"),
            },
        },
    );
    true
}

fn job_status(state: &Arc<ServerState>, path: &str) -> Reply {
    let id: u64 = match path.strip_prefix("/v1/jobs/").and_then(|s| s.parse().ok()) {
        Some(id) => id,
        None => return error_reply(400, "job id must be an integer"),
    };
    let slot = match state.jobs.lock().expect("jobs lock").get(&id).cloned() {
        Some(slot) => slot,
        None => return error_reply(404, "no such job"),
    };
    let job_state = slot.state();
    let (result, error) = match &job_state {
        JobState::Done(response) => (response.clone(), Json::Null),
        JobState::Failed(message) => (Json::Null, Json::from(message.as_str())),
        JobState::Quarantined => (
            Json::Null,
            Json::from("quarantined: crashed the server repeatedly; will not be retried"),
        ),
        _ => (Json::Null, Json::Null),
    };
    let body = Json::obj([
        ("job_id", Json::from(id as f64)),
        ("status", Json::from(job_state.status())),
        ("result", result),
        ("error", error),
    ]);
    Reply::json(200, body.to_string())
}
