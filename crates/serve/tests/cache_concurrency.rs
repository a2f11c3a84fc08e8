//! Concurrency stress for the verdict cache.
//!
//! The LRU is a `Mutex<HashMap>` hammered by every connection thread and
//! worker simultaneously — plus, since the journal landed, by restart
//! recovery restocking verdicts while early requests are already being
//! served. This test drives `get`/`put`/eviction from many threads
//! released by a barrier and checks the two invariants the server relies
//! on:
//!
//! * **no lost inserts** — a key written under capacity pressure either
//!   hits with exactly the value its writer stored, or has been evicted;
//!   a hit never observes another key's verdict (no aliasing, no tearing);
//! * **bounded** — `len() <= capacity()` at every observation point, not
//!   just at quiescence.

use raven::{Method, PairStrategy, TierMillis};
use raven_serve::cache::{CacheKey, CachedResult, PayloadHasher, ResultCache};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

/// A distinct key per `(thread, round)`; the payload hasher makes the
/// batch hash — and therefore the key — collision-free in practice.
fn key(thread: usize, round: usize) -> CacheKey {
    let mut hasher = PayloadHasher::new();
    hasher.usize(thread).usize(round);
    CacheKey {
        model_hash: 0x5eed,
        property: "uap",
        method: Method::Raven,
        pairs: PairStrategy::Consecutive,
        eps_bits: (0.01f64).to_bits(),
        batch_hash: hasher.finish(),
    }
}

/// The verdict only `key(thread, round)`'s writer would store.
fn verdict_for(thread: usize, round: usize) -> CachedResult {
    CachedResult {
        verdict: format!("{{\"thread\":{thread},\"round\":{round}}}"),
        solve_millis: thread as f64,
        tier_millis: TierMillis::default(),
    }
}

#[test]
fn cache_survives_concurrent_get_put_evict_without_losing_inserts() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 500;
    const CAPACITY: usize = 64; // far below THREADS * ROUNDS: constant eviction

    let cache = Arc::new(ResultCache::new(CAPACITY));
    let barrier = Arc::new(Barrier::new(THREADS));
    let lost = Arc::new(AtomicUsize::new(0));
    let corrupt = Arc::new(AtomicUsize::new(0));
    let over_capacity = Arc::new(AtomicUsize::new(0));

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            let lost = Arc::clone(&lost);
            let corrupt = Arc::clone(&corrupt);
            let over_capacity = Arc::clone(&over_capacity);
            std::thread::spawn(move || {
                barrier.wait();
                for r in 0..ROUNDS {
                    let k = key(t, r);
                    let v = verdict_for(t, r);
                    cache.put(k.clone(), v.clone());
                    // Read-your-write or evicted — never a different value.
                    match cache.get(&k) {
                        Some(hit) if hit == v => {}
                        Some(_) => {
                            corrupt.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            // Eviction by another thread is legal under
                            // pressure; count it so the test proves the
                            // non-evicted majority really was retained.
                            lost.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // Re-touch an old key (LRU traffic) and probe a key no
                    // one ever wrote (pure miss path).
                    if r > 0 {
                        if let Some(hit) = cache.get(&key(t, r - 1)) {
                            if hit != verdict_for(t, r - 1) {
                                corrupt.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    assert!(cache.get(&key(t + THREADS, r)).is_none());
                    // The capacity bound holds mid-flight, not just at rest.
                    if cache.len() > CAPACITY {
                        over_capacity.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("cache worker");
    }

    assert_eq!(
        corrupt.load(Ordering::Relaxed),
        0,
        "hit returned wrong value"
    );
    assert_eq!(
        over_capacity.load(Ordering::Relaxed),
        0,
        "len exceeded capacity"
    );
    assert!(cache.len() <= CAPACITY);

    // Each thread's freshest insert evicts the oldest entries, so most
    // read-your-writes must succeed: with 8 writers and capacity 64 an
    // insert sits 8 slots deep at worst before its own read-back. Allow
    // slack for scheduler stalls but reject wholesale loss.
    let lost = lost.load(Ordering::Relaxed);
    assert!(
        lost <= THREADS * ROUNDS / 10,
        "{lost} of {} read-your-writes lost — inserts are being dropped",
        THREADS * ROUNDS
    );

    // Quiescent state: the survivors are exactly retrievable.
    let (hits, misses) = cache.counters();
    assert!(hits >= 1 && misses >= 1);
    assert!(!cache.is_empty());
}

#[test]
fn zero_capacity_cache_stays_empty_under_concurrent_writes() {
    let cache = Arc::new(ResultCache::new(0));
    let barrier = Arc::new(Barrier::new(4));
    let workers: Vec<_> = (0..4)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for r in 0..200 {
                    cache.put(key(t, r), verdict_for(t, r));
                    assert!(cache.get(&key(t, r)).is_none());
                    assert_eq!(cache.len(), 0);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("cache worker");
    }
    assert!(cache.is_empty());
}
