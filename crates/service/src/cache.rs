//! The trace cache: generalized (question-independent) traces keyed by
//! database identity, plan fingerprint, and the substitution signature of the
//! schema-alternative set.
//!
//! The generalized trace is the expensive part of answering a why-not
//! question (it evaluates the whole plan in generalized form over the data);
//! the per-question consistency annotation is cheap. Caching the generalized
//! trace therefore amortizes repeated and batched questions against the same
//! plan and database — including questions with *different* why-not tuples,
//! since the cache key deliberately excludes the pushed-down NIPs (see
//! `nrab_provenance::trace_plan_generalized`). This mirrors how approximate
//! provenance summaries are reused across queries in related systems.
//!
//! The cache is one lock around one LRU map. A request makes one lookup, and
//! the slow part — computing a missing trace — runs outside the lock.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex};

use nrab_algebra::AlgebraResult;
use nrab_provenance::GeneralizedTrace;

/// Cache key: where the data came from, which plan was traced, and which
/// attribute substitutions were applied.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// Database identity (catalog name or inline-content fingerprint).
    pub db: String,
    /// Database version (0 for inline databases, which are identified by
    /// content fingerprint instead).
    pub db_version: u64,
    /// Fingerprint of the plan's canonical wire encoding.
    pub plan_fingerprint: u64,
    /// Substitution signature of the schema-alternative set, in order.
    pub substitutions: String,
}

/// Cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a cached trace.
    pub hits: u64,
    /// Lookups that had to compute the trace.
    pub misses: u64,
    /// Lookups that found the trace *in flight* on another thread and waited
    /// for it instead of recomputing (they also count as hits once the value
    /// arrives).
    pub coalesced: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Entries evicted because the cache was full (by count or by weight).
    pub evictions: u64,
    /// Total weight (traced tuples) of the cached entries.
    pub weight: u64,
    /// The cache's weight capacity.
    pub weight_capacity: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache: `hits / (hits + misses)`.
    /// Well-defined before any lookup: zero lookups yield `0.0`, never
    /// `NaN` — the `stats` wire op and the load reports rely on this.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// One cached trace with its precomputed weight (traced tuples), so eviction
/// accounting never re-walks the trace, and the tick of its last use.
#[derive(Debug)]
struct Entry {
    trace: Arc<GeneralizedTrace>,
    weight: u64,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<TraceKey, Entry>,
    /// Keys currently being computed by some thread. Concurrent requests for
    /// an in-flight key wait on the condvar instead of recomputing.
    inflight: HashSet<TraceKey>,
    /// Sum of the cached entries' weights.
    total_weight: u64,
    /// Lookup clock: each hit or insert stamps its entry with the next tick.
    tick: u64,
    hits: u64,
    misses: u64,
    coalesced: u64,
    evictions: u64,
}

impl Inner {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// A bounded, thread-safe LRU cache of generalized traces with per-key
/// in-flight deduplication: when two requests race on the same key, one
/// computes the trace and the other waits for it — the expensive generalized
/// evaluation runs **once per key**, which the concurrent-batch stress tests
/// pin down.
///
/// The cache is bounded two ways: by entry count *and* by total weight
/// (traced tuples, [`GeneralizedTrace::tuple_count`]). Trace sizes span
/// orders of magnitude — the paper's worst cases grow with data size and
/// alternative count — so an entry-count bound alone would let a handful of
/// giant traces occupy unbounded memory. Whichever bound is exceeded evicts
/// the least recently used entry; the most recently inserted entry is never
/// evicted, so even an over-weight giant stays cached until something newer
/// lands.
#[derive(Debug)]
pub struct TraceCache {
    inner: Mutex<Inner>,
    inflight_cv: Condvar,
    capacity: usize,
    weight_capacity: u64,
}

/// Default number of cached traces.
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

/// Default weight capacity: total traced tuples across all cached entries.
pub const DEFAULT_CACHE_WEIGHT_CAPACITY: u64 = 4_000_000;

impl Default for TraceCache {
    fn default() -> Self {
        TraceCache::new(DEFAULT_CACHE_CAPACITY)
    }
}

impl TraceCache {
    /// Creates a cache holding at most `capacity` traces (minimum 1) with the
    /// default weight capacity.
    pub fn new(capacity: usize) -> Self {
        TraceCache::with_weight_capacity(capacity, DEFAULT_CACHE_WEIGHT_CAPACITY)
    }

    /// Creates a cache bounded by both entry count (minimum 1) and total
    /// trace weight.
    pub fn with_weight_capacity(capacity: usize, weight_capacity: u64) -> Self {
        TraceCache {
            inner: Mutex::default(),
            inflight_cv: Condvar::new(),
            capacity: capacity.max(1),
            weight_capacity,
        }
    }

    /// Returns the cached trace for `key`, computing and inserting it with
    /// `compute` on a miss. The boolean is `true` on a hit (including hits
    /// obtained by waiting for another thread's in-flight computation).
    ///
    /// Failed computations are not cached, and a failure wakes any waiters so
    /// one of them takes over the computation.
    pub fn get_or_compute(
        &self,
        key: TraceKey,
        compute: impl FnOnce() -> AlgebraResult<GeneralizedTrace>,
    ) -> AlgebraResult<(Arc<GeneralizedTrace>, bool)> {
        {
            let mut inner = self.inner.lock().expect("trace cache poisoned");
            let mut waited = false;
            loop {
                let tick = inner.next_tick();
                if let Some(entry) = inner.map.get_mut(&key) {
                    entry.last_used = tick;
                    let trace = Arc::clone(&entry.trace);
                    inner.hits += 1;
                    return Ok((trace, true));
                }
                if inner.inflight.insert(key.clone()) {
                    // We own the computation now.
                    break;
                }
                // Someone else is computing this key: wait for them and
                // re-check. If they failed (or panicked), the in-flight
                // marker is gone and we take over on the next iteration.
                // Count the lookup as coalesced once, not once per wakeup
                // (the condvar is shared across keys, so spurious wakeups
                // are routine).
                if !waited {
                    inner.coalesced += 1;
                    waited = true;
                }
                inner = self.inflight_cv.wait(inner).expect("trace cache poisoned");
            }
        }

        // Compute outside the lock: tracing can be slow. The guard removes
        // the in-flight marker and wakes waiters on *every* exit path —
        // success, error, and panic alike.
        let guard = InflightGuard { cache: self, key: &key };
        let trace = Arc::new(compute()?);

        let weight = trace.tuple_count() as u64;

        let mut inner = self.inner.lock().expect("trace cache poisoned");
        inner.misses += 1;
        let last_used = inner.next_tick();
        inner.map.insert(key.clone(), Entry { trace: Arc::clone(&trace), weight, last_used });
        inner.total_weight += weight;
        // Evict the least recently used entry while either bound is
        // exceeded, but never the entry just inserted — it holds the newest
        // tick, and an over-weight giant trace still gets cached (it just
        // stands alone).
        while (inner.map.len() > self.capacity || inner.total_weight > self.weight_capacity)
            && inner.map.len() > 1
        {
            let coldest = inner
                .map
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| key.clone())
                .expect("the cache holds more than one entry");
            let evicted = inner.map.remove(&coldest).expect("coldest key is cached");
            inner.total_weight -= evicted.weight;
            inner.evictions += 1;
        }
        drop(inner);
        drop(guard);
        Ok((trace, false))
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("trace cache poisoned");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            coalesced: inner.coalesced,
            entries: inner.map.len(),
            evictions: inner.evictions,
            weight: inner.total_weight,
            weight_capacity: self.weight_capacity,
        }
    }
}

/// Removes the in-flight marker for a key and wakes the waiters when
/// dropped, so a failing (or panicking) computation never strands the threads
/// waiting on it.
struct InflightGuard<'a> {
    cache: &'a TraceCache,
    key: &'a TraceKey,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        let mut inner = self.cache.inner.lock().expect("trace cache poisoned");
        inner.inflight.remove(self.key);
        drop(inner);
        self.cache.inflight_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrab_provenance::trace_plan_generalized;
    use nrab_provenance::SchemaAlternative;

    use nested_data::{Bag, NestedType, TupleType, Value};
    use nrab_algebra::{Database, PlanBuilder};

    fn tiny_setup() -> (nrab_algebra::QueryPlan, Database, Vec<SchemaAlternative>) {
        let ty = TupleType::new([("x", NestedType::int())]).unwrap();
        let mut db = Database::new();
        db.add_relation("r", ty, Bag::from_values([Value::tuple([("x", Value::int(1))])]));
        let plan = PlanBuilder::table("r").build().unwrap();
        let sas = vec![SchemaAlternative::original(Default::default())];
        (plan, db, sas)
    }

    fn key(n: u64) -> TraceKey {
        TraceKey {
            db: "db".into(),
            db_version: 1,
            plan_fingerprint: n,
            substitutions: String::new(),
        }
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let (plan, db, sas) = tiny_setup();
        let cache = TraceCache::new(4);
        let (_, hit) =
            cache.get_or_compute(key(1), || trace_plan_generalized(&plan, &db, &sas)).unwrap();
        assert!(!hit);
        let (_, hit) =
            cache.get_or_compute(key(1), || panic!("must not recompute on a hit")).unwrap();
        assert!(hit);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let (plan, db, sas) = tiny_setup();
        let cache = TraceCache::new(2);
        for n in 1..=2 {
            cache.get_or_compute(key(n), || trace_plan_generalized(&plan, &db, &sas)).unwrap();
        }
        // Touch key 1 so key 2 becomes the coldest.
        cache.get_or_compute(key(1), || panic!("hit expected")).unwrap();
        cache.get_or_compute(key(3), || trace_plan_generalized(&plan, &db, &sas)).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        // Key 2 was evicted; key 1 survived.
        cache.get_or_compute(key(1), || panic!("hit expected")).unwrap();
        let (_, hit) =
            cache.get_or_compute(key(2), || trace_plan_generalized(&plan, &db, &sas)).unwrap();
        assert!(!hit);
    }

    #[test]
    fn failed_computations_are_not_cached() {
        let (plan, db, sas) = tiny_setup();
        let cache = TraceCache::new(2);
        let err =
            cache.get_or_compute(key(9), || Err(nrab_algebra::AlgebraError::Eval("boom".into())));
        assert!(err.is_err());
        assert_eq!(cache.stats().entries, 0);
        let (_, hit) =
            cache.get_or_compute(key(9), || trace_plan_generalized(&plan, &db, &sas)).unwrap();
        assert!(!hit);
    }

    #[test]
    fn concurrent_requests_compute_each_key_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let (plan, db, sas) = tiny_setup();
        let cache = TraceCache::new(8);
        let computes = AtomicUsize::new(0);
        const THREADS: u64 = 8;
        const KEYS: u64 = 4;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for n in 0..KEYS {
                        let (_, _) = cache
                            .get_or_compute(key(n), || {
                                computes.fetch_add(1, Ordering::SeqCst);
                                // Widen the race window so waiters really
                                // find the key in flight.
                                std::thread::sleep(std::time::Duration::from_millis(5));
                                trace_plan_generalized(&plan, &db, &sas)
                            })
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(computes.load(Ordering::SeqCst), KEYS as usize, "one computation per key");
        let stats = cache.stats();
        assert_eq!(stats.misses, KEYS);
        assert_eq!(stats.hits, THREADS * KEYS - KEYS);
        assert_eq!(stats.entries, KEYS as usize);
    }

    #[test]
    fn failed_inflight_computations_hand_over_to_a_waiter() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let (plan, db, sas) = tiny_setup();
        let cache = TraceCache::new(2);
        let attempts = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    // The first attempt fails; whoever takes over succeeds.
                    let result = cache.get_or_compute(key(77), || {
                        if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                            std::thread::sleep(std::time::Duration::from_millis(2));
                            Err(nrab_algebra::AlgebraError::Eval("transient".into()))
                        } else {
                            trace_plan_generalized(&plan, &db, &sas)
                        }
                    });
                    // Only the failing owner sees the error; everyone else
                    // ends up with the recomputed value.
                    if let Err(e) = result {
                        assert!(e.to_string().contains("transient"));
                    }
                });
            }
        });
        // The error was not cached; the key is present from the successful
        // retry (at least two attempts happened: the failure and a success).
        assert!(attempts.load(Ordering::SeqCst) >= 2);
        let (_, hit) = cache.get_or_compute(key(77), || panic!("must be cached")).unwrap();
        assert!(hit);
    }

    #[test]
    fn weight_capacity_evicts_before_entry_capacity() {
        let (plan, db, sas) = tiny_setup();
        // Each tiny trace weighs 1 tuple; entry capacity is generous but the
        // weight capacity only fits two traces.
        let cache = TraceCache::with_weight_capacity(16, 2);
        for n in 1..=3 {
            cache.get_or_compute(key(n), || trace_plan_generalized(&plan, &db, &sas)).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.weight, 2);
        assert_eq!(stats.weight_capacity, 2);
        // The coldest entry (key 1) was the one evicted.
        let (_, hit) =
            cache.get_or_compute(key(1), || trace_plan_generalized(&plan, &db, &sas)).unwrap();
        assert!(!hit);
    }

    #[test]
    fn over_weight_entries_still_cache_alone() {
        let (plan, db, sas) = tiny_setup();
        // Weight capacity 0: every trace is over-weight on its own, yet the
        // newest one is always kept (never evict the just-inserted entry).
        let cache = TraceCache::with_weight_capacity(16, 0);
        cache.get_or_compute(key(1), || trace_plan_generalized(&plan, &db, &sas)).unwrap();
        let (_, hit) = cache.get_or_compute(key(1), || panic!("must be cached")).unwrap();
        assert!(hit);
        cache.get_or_compute(key(2), || trace_plan_generalized(&plan, &db, &sas)).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.entries, 1, "the older over-weight entry was evicted");
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn capacities_bound_the_whole_cache() {
        let (plan, db, sas) = tiny_setup();
        // An 8-entry cache holds 8 distinct keys: no key competes with a
        // slice of the capacity smaller than the whole.
        let cache = TraceCache::new(8);
        for n in 0..8 {
            cache.get_or_compute(key(n), || trace_plan_generalized(&plan, &db, &sas)).unwrap();
        }
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (8, 0), "{stats:?}");

        // The weight capacity is reported as given, and two one-tuple traces
        // fill it: the third evicts the coldest.
        let cache = TraceCache::with_weight_capacity(64, 2);
        assert_eq!(cache.stats().weight_capacity, 2);
        for n in 1..=3 {
            cache.get_or_compute(key(n), || trace_plan_generalized(&plan, &db, &sas)).unwrap();
        }
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions, stats.weight), (2, 1, 2), "{stats:?}");
        let (_, hit) =
            cache.get_or_compute(key(1), || trace_plan_generalized(&plan, &db, &sas)).unwrap();
        assert!(!hit, "the coldest entry was the one evicted");
    }

    #[test]
    fn hit_rate_is_well_defined_with_zero_lookups() {
        let stats = CacheStats::default();
        assert_eq!(stats.hit_rate(), 0.0);
        assert!(stats.hit_rate().is_finite());
        let cache = TraceCache::default();
        assert_eq!(cache.stats().hit_rate(), 0.0, "fresh cache reports 0.0, not NaN");
    }
}
