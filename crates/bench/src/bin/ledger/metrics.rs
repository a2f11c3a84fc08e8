//! What one run reports: the end-to-end metrics (mirrored, with their
//! regression bounds, in the repository's `BENCHMARK.json`), the per-layer
//! metrics of a traced run, and the JSON record that carries both.

use crate::stats;
use raven_json::Json;
use std::time::Duration;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// Whether `a` reads strictly better than `b`.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// An end-to-end metric and how far it may worsen, as a share of the
/// parent's median, before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The end-to-end metrics every workload reports. Bounds are calibrated
/// from the seed-to-seed spread recorded in README.md.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
}

/// What a workload measured in its timed window.
pub struct Run {
    pub setup_s: f64,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Per property (offline) or per request (served), in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Items (properties or requests) completed at full rate, and the
    /// seconds they took.
    pub throughput: (usize, f64),
    /// Filled by traced runs only.
    pub layers: Option<LayerTotals>,
}

impl Run {
    /// The end-to-end values, in [`END_TO_END`] order.
    pub fn end_to_end(&self, peak_rss_mb: f64) -> Vec<Value> {
        let s = stats::sorted(&self.latencies_ms);
        let n = s.len();
        let pct = |p| {
            if n == 0 {
                0.0
            } else {
                stats::percentile(&s, p)
            }
        };
        let (done, secs) = self.throughput;
        let rate = if secs > 0.0 { done as f64 / secs } else { 0.0 };
        let values = [
            (self.setup_s, 1),
            (rate, done),
            (pct(500), n),
            (pct(900), n),
            (peak_rss_mb, 1),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, (value, n))| Value {
                name: m.name.to_string(),
                unit: m.unit.to_string(),
                value,
                n,
            })
            .collect()
    }

    /// The highest latency percentile with ten samples beyond it, as
    /// `(percentile, ms)`.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let p = stats::tail_per_mille(self.latencies_ms.len())?;
        let s = stats::sorted(&self.latencies_ms);
        Some((f64::from(p) / 10.0, stats::percentile(&s, p)))
    }
}

/// Raw per-layer totals accumulated by a traced run; [`LayerTotals::values`]
/// turns them into the reported per-layer metrics.
///
/// Times are milliseconds summed over the run. Offline workloads measure
/// them around the ledger's own replay of each property; served workloads
/// take them from the server's histograms and the client's spans.
#[derive(Debug, Default)]
pub struct LayerTotals {
    /// Properties (offline) or requests (served) the totals cover.
    pub items: f64,
    /// The time the `*_pct` shares divide: replayed property time
    /// (offline) or client request time (served).
    pub wall_ms: f64,
    pub deeppoly_ms: f64,
    pub diffpoly_ms: f64,
    pub encode_ms: f64,
    pub lp_ms: f64,
    pub check_ms: f64,
    pub json_parse_ms: f64,
    pub queue_wait_ms: f64,
    pub http_ms: f64,
    pub unattributed_ms: f64,
    pub pivots: f64,
    pub milp_nodes: f64,
    pub warm_starts: f64,
    pub lp_solves: f64,
    /// Σ LP rows over verdicts that built an LP.
    pub lp_rows: f64,
    pub encoded: f64,
    /// Verdicts whose encoded LP was never solved.
    pub unsolved: f64,
    pub relaxed_neurons: f64,
    pub pairs: f64,
    pub cert_bytes: f64,
    pub certs: f64,
    pub response_bytes: f64,
    pub responses: f64,
    pub cache_hits: f64,
    pub cache_lookups: f64,
    pub rejected: f64,
    pub hamming: f64,
    pub uap_verdicts: f64,
    /// Offline only: Σ `verify_uap` time of the replayed properties.
    pub verify_ms: f64,
    pub trace_overhead_ms: f64,
    /// How late each request left: after its due time (open loop) or after
    /// the previous answer (closed loop).
    pub gen_lags_ms: Vec<f64>,
}

/// Program counters (always live, telemetry or not) that per-layer work
/// counts are differenced from: simplex pivots (primal + dual), B&B
/// nodes, warm starts, LP solves, relaxed ReLUs, DiffPoly pair analyses.
pub fn counters() -> [f64; 6] {
    use raven_lp::metrics as lp;
    [
        lp::SIMPLEX_PIVOTS.get() + lp::LP_DUAL_PIVOTS.get(),
        lp::MILP_NODES.get(),
        lp::LP_WARM_STARTS.get(),
        lp::LP_SOLVES.get(),
        raven_deeppoly::metrics::RELAXED_NEURONS.get(),
        raven_diffpoly::metrics::PAIR_ANALYSES.get(),
    ]
    .map(|c| c as f64)
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

impl LayerTotals {
    /// Adds the work done between two [`counters`] snapshots.
    pub fn add_counters(&mut self, before: [f64; 6], after: [f64; 6]) {
        let d: Vec<f64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        self.pivots += d[0];
        self.milp_nodes += d[1];
        self.warm_starts += d[2];
        self.lp_solves += d[3];
        self.relaxed_neurons += d[4];
        self.pairs += d[5];
    }

    /// Adds one UAP verdict's precision and LP shape.
    pub fn add_uap_verdict(&mut self, hamming: f64, lp_rows: usize, solved: bool) {
        self.hamming += hamming;
        self.uap_verdicts += 1.0;
        if lp_rows > 0 {
            self.encoded += 1.0;
            self.lp_rows += lp_rows as f64;
            self.unsolved += f64::from(u8::from(!solved));
        }
    }

    /// The per-layer metrics as `(name, unit, value)`.
    pub fn values(&self) -> Vec<(&'static str, &'static str, f64)> {
        let share = |ms: f64| 100.0 * ratio(ms, self.wall_ms);
        let per_item = |v: f64| ratio(v, self.items);
        let lag_p99 = if self.gen_lags_ms.is_empty() {
            0.0
        } else {
            stats::percentile(&stats::sorted(&self.gen_lags_ms), 990)
        };
        vec![
            ("deeppoly.pct", "%", share(self.deeppoly_ms)),
            ("diffpoly.pct", "%", share(self.diffpoly_ms)),
            ("encode.pct", "%", share(self.encode_ms)),
            ("lp.pct", "%", share(self.lp_ms)),
            ("check.pct", "%", share(self.check_ms)),
            ("json.parse_pct", "%", share(self.json_parse_ms)),
            ("serve.queue_wait_pct", "%", share(self.queue_wait_ms)),
            ("serve.http_pct", "%", share(self.http_ms)),
            ("ledger.unattributed_pct", "%", share(self.unattributed_ms)),
            ("lp.pivots", "count", per_item(self.pivots)),
            ("lp.milp_nodes", "count", per_item(self.milp_nodes)),
            (
                "lp.warm_start_ratio",
                "ratio",
                ratio(self.warm_starts, self.lp_solves),
            ),
            ("lp.rows", "count", ratio(self.lp_rows, self.encoded)),
            (
                "deeppoly.relaxed_neurons",
                "count",
                per_item(self.relaxed_neurons),
            ),
            ("diffpoly.pairs", "count", per_item(self.pairs)),
            (
                "encode.unsolved_ratio",
                "ratio",
                ratio(self.unsolved, self.encoded),
            ),
            (
                "check.cert_kib",
                "KiB",
                ratio(self.cert_bytes, self.certs) / 1024.0,
            ),
            (
                "json.response_kib",
                "KiB",
                ratio(self.response_bytes, self.responses) / 1024.0,
            ),
            (
                "serve.cache_hit_ratio",
                "ratio",
                ratio(self.cache_hits, self.cache_lookups),
            ),
            ("serve.rejected", "count", self.rejected),
            (
                "core.hamming_mean",
                "count",
                ratio(self.hamming, self.uap_verdicts),
            ),
            (
                "ledger.replay_drift_pct",
                "%",
                100.0 * ratio(self.wall_ms - self.verify_ms, self.verify_ms),
            ),
            (
                "ledger.trace_overhead_pct",
                "%",
                share(self.trace_overhead_ms),
            ),
            ("ledger.gen_lag_p99_ms", "ms", lag_p99),
        ]
    }
}

/// Everything one run reports; one line of `--out` and of the child
/// protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    pub metrics: Vec<Value>,
    /// One set-up time per process that set the workload up.
    pub setup_samples: Vec<f64>,
    /// Highest supported latency percentile and its value in ms.
    pub tail: Option<(f64, f64)>,
}

fn metrics_json(values: &[Value], with_n: bool) -> Json {
    Json::obj(values.iter().map(|v| {
        let mut fields = vec![
            ("value", Json::from(v.value)),
            ("unit", Json::from(v.unit.as_str())),
        ];
        if with_n {
            fields.push(("n", Json::from(v.n)));
        }
        (v.name.clone(), Json::obj(fields))
    }))
}

impl Record {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|v| v.name == name)
            .map(|v| v.value)
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::from(self.workload.as_str())),
            ("seed", Json::from(self.seed as f64)),
            ("seconds", Json::from(self.seconds as f64)),
            ("trace", Json::from(self.trace)),
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted as f64)),
            ("failed", Json::from(self.failed as f64)),
            (
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|f| Json::from(f.as_str()))
                        .collect(),
                ),
            ),
            ("metrics", metrics_json(&self.metrics, true)),
            ("setup_samples", Json::num_array(&self.setup_samples)),
            (
                "tail",
                self.tail.map_or(Json::Null, |(p, ms)| {
                    Json::obj([("percentile", Json::from(p)), ("ms", Json::from(ms))])
                }),
            ),
        ])
    }

    /// The benchmark's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted as f64)),
            ("failed", Json::from(self.failed as f64)),
            ("metrics", metrics_json(&self.metrics, false)),
        ])
    }

    pub fn from_json(json: &Json) -> Result<Record, String> {
        let field = |k: &str| json.get(k).ok_or_else(|| format!("record lacks {k:?}"));
        let num = |k: &str| {
            field(k)?
                .as_f64()
                .ok_or_else(|| format!("record field {k:?} is not a number"))
        };
        let Some(Json::Obj(metrics)) = json.get("metrics") else {
            return Err("record lacks a \"metrics\" object".into());
        };
        let metrics = metrics
            .iter()
            .map(|(name, m)| {
                Ok(Value {
                    name: name.clone(),
                    unit: m.get("unit").and_then(Json::as_str).unwrap_or("").into(),
                    value: m
                        .get("value")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("metric {name:?} has no value"))?,
                    n: m.get("n").and_then(Json::as_usize).unwrap_or(0),
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Record {
            workload: field("workload")?
                .as_str()
                .ok_or("record workload is not a string")?
                .to_string(),
            seed: num("seed")? as u64,
            seconds: num("seconds")? as u64,
            trace: field("trace")?.as_bool().unwrap_or(false),
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            failures: field("failures")?
                .as_array()
                .unwrap_or(&[])
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            metrics,
            setup_samples: field("setup_samples")?.as_f64_vec().unwrap_or_default(),
            tail: json
                .get("tail")
                .and_then(|t| Some((t.get("percentile")?.as_f64()?, t.get("ms")?.as_f64()?))),
        })
    }
}
