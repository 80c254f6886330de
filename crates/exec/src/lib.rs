//! # whynot-exec
//!
//! A deterministic, dependency-free parallel execution subsystem: a global
//! scoped worker pool with a chunked work-stealing queue and ordered
//! `par_map` primitives. This is the scheduling seam the rest of the
//! workspace fans out onto — per-schema-alternative tracing in
//! `nrab-provenance`, concurrent batches in `whynot-service`, and parallel
//! scenario generation in `nested-datagen`.
//!
//! ## Determinism contract
//!
//! [`par_map`] / [`par_map_indexed`] always return results **in input
//! order**, regardless of thread count and scheduling. Callers that keep all
//! order-dependent state out of the mapped closure (the workspace-wide rule)
//! therefore produce bit-identical results at any `WHYNOT_THREADS` — the
//! property the cross-crate determinism tests pin down.
//!
//! ## Thread-count configuration
//!
//! The effective thread count of a top-level parallel call is resolved as
//! the first of:
//!
//! 1. a thread-local override installed by [`with_threads`] (tests, benches),
//! 2. a process-wide override installed by [`set_threads`] (the CLI's
//!    `--threads` flag),
//! 3. the `WHYNOT_THREADS` environment variable,
//! 4. [`std::thread::available_parallelism`].
//!
//! An effective count of `1` is a fully serial fast path: no pool access, no
//! locks, no allocations beyond the result vector — byte-for-byte the plain
//! `iter().map().collect()` loop. Nested parallel calls (from inside a pool
//! worker or from the mapped closure of an enclosing `par_map`) also run
//! serially: the outermost call owns the parallelism.
//!
//! ## Panics
//!
//! A panic inside the mapped closure aborts outstanding chunks and is
//! re-raised on the calling thread with the original payload; pool workers
//! survive and return to the queue.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod par;
mod pool;
pub mod stats;

pub use par::{par_map, par_map_indexed, par_map_range};
pub use stats::{pool_stats, PoolStats};

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

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
/// least 1), restoring the previous override afterwards — the hermetic knob
/// used by tests and benches to compare thread counts within one process.
/// The previous override is restored even if `f` panics.
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

/// The number of threads a top-level parallel call started on this thread
/// would use right now (1 inside a nested parallel region).
pub fn effective_threads() -> usize {
    if pool::in_parallel_region() {
        return 1;
    }
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

#[cfg(test)]
mod tests {
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

    #[test]
    fn pool_counters_move_under_parallel_work() {
        let before = pool_stats();
        with_threads(4, || {
            let items: Vec<usize> = (0..256).collect();
            let doubled = par_map(&items, |i| i * 2);
            assert_eq!(doubled[255], 510);
        });
        let delta = pool_stats().since(&before);
        assert!(delta.par_regions >= 1, "{delta:?}");
        assert!(delta.jobs >= 1, "{delta:?}");
        assert!(delta.chunks_claimed >= 4, "{delta:?}");
    }

    #[test]
    fn profiled_par_map_merges_worker_spans_deterministically() {
        let items: Vec<usize> = (0..64).collect();
        let run = || {
            whynot_obs::profile(|| {
                with_threads(4, || {
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
        let report = run();
        let region = report.root.child("region").expect("region span recorded");
        let item = region.child("item").expect("worker spans merged under the call site");
        assert_eq!(item.count, 64);
        assert_eq!(item.counter_total("seen"), 64);
        // Identical structure and counts at a different thread count.
        let serial = whynot_obs::profile(|| {
            with_threads(1, || {
                let _region = whynot_obs::span("region");
                let _ = par_map(&items, |i| {
                    let _s = whynot_obs::span("item");
                    whynot_obs::add("seen", 1);
                    i + 1
                });
            });
        })
        .1;
        assert_eq!(report.signature(), serial.signature());
    }

    #[test]
    fn a_guard_governs_its_own_thread_and_its_fan_out_only() {
        let guard = whynot_guard::Guard::new(None, Some(100), None);
        let _armed = whynot_guard::arm(&guard);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                assert!(!whynot_guard::armed());
                assert!(whynot_guard::checkpoint().is_ok());
                assert!(whynot_guard::consume_trace_tuples(1_000).is_ok());
            });
        });
        // Every participant of this thread's region draws from its budget:
        // 64 of the 100 tuples are used afterwards.
        let items: Vec<usize> = (0..64).collect();
        let consumed =
            with_threads(4, || par_map(&items, |_| whynot_guard::consume_trace_tuples(1).is_ok()));
        assert!(consumed.iter().all(|&ok| ok));
        assert!(whynot_guard::consume_trace_tuples(36).is_ok());
        assert!(whynot_guard::consume_trace_tuples(1).is_err());
    }

    #[test]
    fn nested_parallel_calls_run_serially() {
        with_threads(4, || {
            let items: Vec<usize> = (0..64).collect();
            let nested_counts = par_map(&items, |_| effective_threads());
            // Every closure invocation observes a serialized nested context
            // (either it ran on a worker, or the caller was inside the
            // region); with 64 items and 4 threads the call is parallel, so
            // all nested counts must be 1.
            assert!(nested_counts.iter().all(|&n| n == 1), "{nested_counts:?}");
        });
    }
}
