//! Fault injection for service chaos tests (test-support).
//!
//! The injection API is always present so callers compile identically with
//! and without chaos, but the injection *bodies* are compiled only under
//! `debug_assertions` (every `cargo test` dev-profile run) or the explicit
//! `chaos` feature; a release build pays nothing.
//!
//! The service fault worth simulating is a **mid-job panic**: a
//! verification that blows up on a worker thread after the job has been
//! accepted. The worker pool must absorb it (`catch_unwind` in
//! `queue::worker_loop`), answer the waiting connection with a 500, and
//! keep the worker alive for the next job. State is process-global —
//! chaos tests that arm a fault must serialize themselves (see
//! `tests/chaos.rs`) and clear it.

#[cfg(any(debug_assertions, feature = "chaos"))]
use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(any(debug_assertions, feature = "chaos"))]
static PANIC_NEXT_JOBS: AtomicU64 = AtomicU64::new(0);

#[cfg(any(debug_assertions, feature = "chaos"))]
static ABORT_NEXT_JOBS: AtomicU64 = AtomicU64::new(0);

#[cfg(any(debug_assertions, feature = "chaos"))]
static TAMPER_NEXT_CERTS: AtomicU64 = AtomicU64::new(0);

/// Makes the next `n` verification jobs panic as they start computing
/// (after queue admission, on the worker thread). No-op in release builds
/// without the `chaos` feature.
pub fn set_panic_next_jobs(n: u64) {
    #[cfg(any(debug_assertions, feature = "chaos"))]
    PANIC_NEXT_JOBS.store(n, Ordering::SeqCst);
    #[cfg(not(any(debug_assertions, feature = "chaos")))]
    let _ = n;
}

/// Makes the next `n` verification jobs **abort the whole process** as
/// they start computing — a real `SIGABRT`, indistinguishable from an
/// OOM-kill to the journal. Only meaningful in a dedicated child process
/// (the durability tests spawn `raven_serve` with this armed via
/// [`arm_from_env`]). No-op in release builds without the `chaos` feature.
pub fn set_abort_next_jobs(n: u64) {
    #[cfg(any(debug_assertions, feature = "chaos"))]
    ABORT_NEXT_JOBS.store(n, Ordering::SeqCst);
    #[cfg(not(any(debug_assertions, feature = "chaos")))]
    let _ = n;
}

/// Makes the next `n` emitted certificates get their claimed bound
/// tampered (tightened beyond the evidence) *before* the in-process spot
/// check sees them — drives the spot-check-failure and
/// `--strict-certificates` paths. No-op in release builds without the
/// `chaos` feature.
pub fn set_tamper_next_certs(n: u64) {
    #[cfg(any(debug_assertions, feature = "chaos"))]
    TAMPER_NEXT_CERTS.store(n, Ordering::SeqCst);
    #[cfg(not(any(debug_assertions, feature = "chaos")))]
    let _ = n;
}

/// Arms chaos faults from environment variables — the only way a
/// *spawned* process can be given faults. Recognized:
///
/// * `RAVEN_SERVE_CHAOS_ABORT_JOBS=<n>` — abort the process on each of
///   the next `n` job pickups (server).
/// * `RAVEN_SERVE_CHAOS_TAMPER_CERTS=<n>` — tamper the next `n` emitted
///   certificates before the spot check (server).
///
/// Call once at binary startup; no-op when the variables are unset or
/// chaos is compiled out.
pub fn arm_from_env() {
    if let Some(n) = std::env::var("RAVEN_SERVE_CHAOS_ABORT_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        set_abort_next_jobs(n);
    }
    if let Some(n) = std::env::var("RAVEN_SERVE_CHAOS_TAMPER_CERTS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        set_tamper_next_certs(n);
    }
}

/// Clears all injected service faults.
pub fn clear() {
    set_panic_next_jobs(0);
    set_abort_next_jobs(0);
    set_tamper_next_certs(0);
}

/// Called at the top of every verification job body; panics while a
/// panic budget is armed.
#[inline]
pub(crate) fn job_panic_point() {
    #[cfg(any(debug_assertions, feature = "chaos"))]
    {
        if PANIC_NEXT_JOBS.load(Ordering::Relaxed) > 0 {
            // Decrement-and-check so concurrent jobs consume distinct slots.
            let prev = PANIC_NEXT_JOBS.fetch_sub(1, Ordering::SeqCst);
            if prev > 0 {
                panic!("chaos: injected mid-job panic");
            }
            // Racing underflow: another job consumed the last slot between
            // the load and the sub — restore and carry on.
            PANIC_NEXT_JOBS.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Called right after [`job_panic_point`]; aborts the process while an
/// abort budget is armed (simulates a crash with a job mid-flight).
#[inline]
pub(crate) fn job_abort_point() {
    #[cfg(any(debug_assertions, feature = "chaos"))]
    {
        if ABORT_NEXT_JOBS.load(Ordering::Relaxed) > 0 {
            let prev = ABORT_NEXT_JOBS.fetch_sub(1, Ordering::SeqCst);
            if prev > 0 {
                std::process::abort();
            }
            ABORT_NEXT_JOBS.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Consumes one certificate-tamper token (see [`set_tamper_next_certs`]).
#[inline]
pub(crate) fn take_cert_tamper() -> bool {
    #[cfg(any(debug_assertions, feature = "chaos"))]
    {
        if TAMPER_NEXT_CERTS.load(Ordering::Relaxed) > 0 {
            let prev = TAMPER_NEXT_CERTS.fetch_sub(1, Ordering::SeqCst);
            if prev > 0 {
                return true;
            }
            TAMPER_NEXT_CERTS.fetch_add(1, Ordering::SeqCst);
        }
    }
    false
}

/// Pushes every recorded relaxation lower line far above its activation
/// (`li += 1e6`), so the exact analysis replay must reject the lines.
/// Used when the certificate has no LP section — analysis-tier
/// certificates record only relaxation lines.
#[cfg(any(debug_assertions, feature = "chaos"))]
fn corrupt_analysis_lines(cert: &mut raven_json::Json) -> bool {
    use raven_json::Json;
    let mut hit = false;
    let Json::Obj(fields) = cert else {
        return false;
    };
    let Some(Json::Obj(ana)) = fields
        .iter_mut()
        .find(|(k, _)| k == "analysis")
        .map(|(_, v)| v)
    else {
        return false;
    };
    let Some(Json::Arr(neurons)) = ana.iter_mut().find(|(k, _)| k == "neurons").map(|(_, v)| v)
    else {
        return false;
    };
    for neuron in neurons.iter_mut() {
        let Json::Obj(nf) = neuron else { continue };
        for (k, v) in nf.iter_mut() {
            if k == "li" {
                if let Some(li) = v.as_f64() {
                    *v = Json::from(li + 1e6);
                    hit = true;
                }
            }
        }
    }
    hit
}

/// Tampers an emitted certificate so exact replay must reject it: an LP
/// certificate gets its claimed bound tightened *past* the evidence
/// (direction-aware: a Maximize bound shrinks, a Minimize bound grows);
/// an analysis-only certificate gets its relaxation lines pushed past
/// the activation. Drives the spot-check and `--strict-certificates`
/// failure paths without a buggy emitter. No-op without the chaos bodies.
pub(crate) fn tamper_certificate(json: &mut raven_json::Json) {
    #[cfg(any(debug_assertions, feature = "chaos"))]
    {
        use raven_json::Json;
        let Json::Obj(fields) = json else { return };
        let Some(lp) = fields.iter_mut().find(|(k, _)| k == "lp").map(|(_, v)| v) else {
            corrupt_analysis_lines(json);
            return;
        };
        let Json::Obj(lp_fields) = lp else { return };
        let maximize = lp_fields
            .iter()
            .find(|(k, _)| k == "problem")
            .and_then(|(_, p)| p.get("direction"))
            .and_then(Json::as_str)
            == Some("max");
        for (k, v) in lp_fields.iter_mut() {
            if k == "claimed_bound" {
                if let Some(b) = v.as_f64() {
                    *v = Json::from(if maximize { b - 1e6 } else { b + 1e6 });
                }
            }
        }
    }
    #[cfg(not(any(debug_assertions, feature = "chaos")))]
    let _ = json;
}
