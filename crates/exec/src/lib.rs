//! # whynot-exec
//!
//! The batch fan-out of the why-not service: one ordered [`par_map`] built on
//! [`std::thread::scope`]. Every request runs on one thread; parallelism
//! exists only *across* requests (`explain_batch` maps a batch with
//! [`par_map`], and the HTTP server has its own worker threads).
//!
//! ## Determinism contract
//!
//! [`par_map`] returns results **in input order**, regardless of thread
//! count and scheduling, so a batch answers exactly as its requests would
//! one by one.
//!
//! ## Thread-count configuration
//!
//! The width of a fan-out is resolved as the first of:
//!
//! 1. a thread-local override installed by [`with_threads`] (tests, benches),
//! 2. a process-wide override installed by [`set_threads`] (the CLI's
//!    `--threads` flag),
//! 3. the `WHYNOT_THREADS` environment variable,
//! 4. [`std::thread::available_parallelism`].
//!
//! A width of `1` is the plain `iter().map().collect()` loop.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

use whynot_obs::Counter;

/// Process-wide thread-count override (0 = unset). Installed by
/// [`set_threads`]; read by [`effective_threads`].
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Thread-local override installed by [`with_threads`].
    static LOCAL_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// The `WHYNOT_THREADS` value at first use (0 = unset/invalid).
fn env_threads() -> usize {
    static ENV_THREADS: OnceLock<usize> = OnceLock::new();
    *ENV_THREADS.get_or_init(|| {
        std::env::var("WHYNOT_THREADS").ok().and_then(|v| v.trim().parse().ok()).unwrap_or(0)
    })
}

/// Installs a process-wide thread-count override (the CLI's `--threads`).
/// `n` is clamped to at least 1; it takes precedence over `WHYNOT_THREADS`
/// and the detected parallelism, but not over [`with_threads`].
pub fn set_threads(n: usize) {
    GLOBAL_THREADS.store(n.max(1), Ordering::SeqCst);
}

/// Runs `f` with a thread-local thread-count override of `n` (clamped to at
/// least 1), restoring the previous override afterwards (also on panic).
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore {
        previous: usize,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            let previous = self.previous;
            LOCAL_THREADS.with(|t| t.set(previous));
        }
    }
    let _restore = Restore { previous: LOCAL_THREADS.with(|t| t.replace(n.max(1))) };
    f()
}

/// The number of threads a [`par_map`] started on this thread would use
/// right now, before capping at the number of items.
pub fn effective_threads() -> usize {
    let local = LOCAL_THREADS.with(Cell::get);
    if local > 0 {
        return local;
    }
    let global = GLOBAL_THREADS.load(Ordering::SeqCst);
    if global > 0 {
        return global;
    }
    let env = env_threads();
    if env > 0 {
        return env;
    }
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

static PAR_REGIONS: Counter = Counter::new();
static CHUNKS_STOLEN: Counter = Counter::new();

/// A point-in-time snapshot of the cumulative fan-out counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// [`par_map`] calls that ran on more than one thread.
    pub par_regions: u64,
    /// Items claimed by a spawned helper rather than by the calling thread.
    pub chunks_stolen: u64,
}

impl PoolStats {
    /// The counter movement between `earlier` and `self`.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            par_regions: self.par_regions.saturating_sub(earlier.par_regions),
            chunks_stolen: self.chunks_stolen.saturating_sub(earlier.chunks_stolen),
        }
    }
}

/// Snapshots the cumulative fan-out counters.
pub fn pool_stats() -> PoolStats {
    PoolStats { par_regions: PAR_REGIONS.get(), chunks_stolen: CHUNKS_STOLEN.get() }
}

/// Applies `f` to every element and returns the results in input order.
///
/// Runs on `effective_threads().min(items.len())` threads: the caller plus
/// scoped helpers, each claiming the next unclaimed index from one shared
/// cursor. The caller's profiling capture is carried into the helpers; its
/// resource guard is not. A panic in `f` stops further claims and is
/// re-raised on the caller with its original payload.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = effective_threads().min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    PAR_REGIONS.add(1);
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let collect = whynot_obs::ParCollect::new(threads);
    // One participant's share: the `(index, result)` pairs it claimed, or the
    // payload of the first panic of `f` it ran into.
    let participate = |p: usize| {
        let _observer = collect.as_ref().map(|c| c.participant(p));
        let mut claimed = Vec::new();
        while !abort.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            match catch_unwind(AssertUnwindSafe(|| f(item))) {
                Ok(result) => claimed.push((i, result)),
                Err(payload) => {
                    abort.store(true, Ordering::Relaxed);
                    return Err(payload);
                }
            }
        }
        Ok(claimed)
    };
    let shares = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads)
            .map(|p| {
                let participate = &participate;
                scope.spawn(move || {
                    // An injected helper death claims nothing; the caller and
                    // the other helpers drain the cursor.
                    catch_unwind(|| whynot_guard::faults::fault_point("pool_worker"))
                        .map_or_else(|_| Ok(Vec::new()), |()| participate(p))
                })
            })
            .collect();
        let mut shares = vec![participate(0)];
        for helper in helpers {
            let share = helper.join().unwrap_or_else(|payload| resume_unwind(payload));
            if let Ok(claimed) = &share {
                CHUNKS_STOLEN.add(claimed.len() as u64);
            }
            shares.push(share);
        }
        shares
    });
    if let Some(collect) = collect {
        collect.merge_into_current();
    }
    let mut claimed = Vec::with_capacity(items.len());
    for share in shares {
        claimed.extend(share.unwrap_or_else(|payload| resume_unwind(payload)));
    }
    claimed.sort_unstable_by_key(|&(i, _)| i);
    claimed.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;

    use super::*;

    #[test]
    fn serial_override_is_exact() {
        with_threads(1, || assert_eq!(effective_threads(), 1));
        with_threads(3, || assert_eq!(effective_threads(), 3));
        with_threads(0, || assert_eq!(effective_threads(), 1));
    }

    #[test]
    fn overrides_nest_and_restore() {
        with_threads(4, || {
            assert_eq!(effective_threads(), 4);
            with_threads(2, || assert_eq!(effective_threads(), 2));
            assert_eq!(effective_threads(), 4);
        });
    }

    /// Makes the first two items meet at a barrier, so whoever claimed item
    /// 0 waits until another thread claims item 1: at least one item is
    /// claimed off the calling thread.
    fn first_two_meet(barrier: &Barrier, i: usize) {
        if i < 2 {
            barrier.wait();
        }
    }

    #[test]
    fn pool_counters_move_under_parallel_work() {
        let before = pool_stats();
        let items: Vec<usize> = (0..256).collect();
        let barrier = Barrier::new(2);
        let doubled = with_threads(4, || {
            par_map(&items, |&i| {
                first_two_meet(&barrier, i);
                i * 2
            })
        });
        assert_eq!(doubled[255], 510);
        let delta = pool_stats().since(&before);
        assert!(delta.par_regions >= 1, "{delta:?}");
        assert!(delta.chunks_stolen >= 1, "{delta:?}");
    }

    #[test]
    fn profiled_par_map_merges_worker_spans_deterministically() {
        let items: Vec<usize> = (0..64).collect();
        let run = |threads: usize| {
            whynot_obs::profile(|| {
                with_threads(threads, || {
                    let _region = whynot_obs::span("region");
                    let out = par_map(&items, |i| {
                        let _s = whynot_obs::span("item");
                        whynot_obs::add("seen", 1);
                        i + 1
                    });
                    assert_eq!(out.len(), 64);
                });
            })
            .1
        };
        let report = run(4);
        let region = report.root.child("region").expect("region span recorded");
        let item = region.child("item").expect("worker spans merged under the call site");
        assert_eq!(item.count, 64);
        assert_eq!(item.counter_total("seen"), 64);
        // Identical structure and counts at a different thread count.
        assert_eq!(report.signature(), run(1).signature());
    }

    #[test]
    fn a_guard_armed_on_the_caller_is_not_armed_in_participants() {
        let guard = whynot_guard::Guard::new(None, Some(100), None);
        let _armed = whynot_guard::arm(&guard);
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..64).collect();
        let barrier = Barrier::new(2);
        let seen = with_threads(4, || {
            par_map(&items, |&i| {
                first_two_meet(&barrier, i);
                let on_caller = std::thread::current().id() == caller;
                (on_caller, whynot_guard::armed(), whynot_guard::consume_trace_tuples(1).is_ok())
            })
        });
        assert!(seen.iter().all(|&(on_caller, armed, ok)| on_caller == armed && ok));
        assert!(seen.iter().any(|&(on_caller, ..)| !on_caller), "no helper claimed an item");
        // Only the caller's own items drew from its budget.
        let drawn = seen.iter().filter(|&&(on_caller, ..)| on_caller).count() as u64;
        assert!(whynot_guard::consume_trace_tuples(100 - drawn).is_ok());
        assert!(whynot_guard::consume_trace_tuples(1).is_err());
    }
}
