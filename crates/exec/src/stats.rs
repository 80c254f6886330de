//! Cumulative pool counters, exposed as point-in-time [`PoolStats`]
//! snapshots.
//!
//! The counters are process-wide relaxed atomics incremented at *coarse*
//! points only — per submitted job, per parallel region, once per
//! participant with locally accumulated chunk counts — so they stay on even
//! when profiling is disabled and the serial fast path stays untouched.
//! Queue-wait timing is the one exception: a timestamp costs a clock read
//! per queue entry, so only jobs of a profiling thread take one.

use whynot_obs::{Counter, Histogram};

/// `run_scoped` submissions with at least one helper.
pub(crate) static JOBS: Counter = Counter::new();
/// Job-closure executions by pool workers (excludes the submitting thread).
pub(crate) static WORKER_RUNS: Counter = Counter::new();
/// Parallel (non-serial-fast-path) `par_map` invocations.
pub(crate) static PAR_REGIONS: Counter = Counter::new();
/// Chunks claimed by any participant.
pub(crate) static CHUNKS_CLAIMED: Counter = Counter::new();
/// Chunks claimed from another participant's span.
pub(crate) static CHUNKS_STOLEN: Counter = Counter::new();
/// High-water mark of the job queue length at submission time.
pub(crate) static MAX_QUEUE_DEPTH: Counter = Counter::new();
/// Nanoseconds a queue entry waited before being popped by a worker
/// (recorded only for jobs submitted by a profiling thread).
pub(crate) static QUEUE_WAIT: Histogram = Histogram::new();

/// A point-in-time snapshot of the pool's cumulative counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// `run_scoped` submissions with at least one helper.
    pub jobs: u64,
    /// Job-closure executions by pool workers.
    pub worker_runs: u64,
    /// Parallel `par_map` invocations (serial fast path excluded).
    pub par_regions: u64,
    /// Chunks claimed by any participant.
    pub chunks_claimed: u64,
    /// Chunks claimed from another participant's span (steals).
    pub chunks_stolen: u64,
    /// High-water mark of the job queue length at submission time.
    pub max_queue_depth: u64,
    /// Queue entries pending *right now* (a gauge, not cumulative). Zero on
    /// an idle pool — even after worker panics, since `run_scoped` withdraws
    /// every entry of its job before returning.
    pub queue_depth: u64,
    /// Queue-wait observations (jobs submitted by a profiling thread only).
    pub queue_waits: u64,
    /// Total queue-wait nanoseconds over those observations.
    pub queue_wait_ns: u64,
}

impl PoolStats {
    /// The counter movement between `earlier` and `self` (`max_queue_depth`
    /// is a high-water mark, so the later value is kept as-is).
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            jobs: self.jobs.saturating_sub(earlier.jobs),
            worker_runs: self.worker_runs.saturating_sub(earlier.worker_runs),
            par_regions: self.par_regions.saturating_sub(earlier.par_regions),
            chunks_claimed: self.chunks_claimed.saturating_sub(earlier.chunks_claimed),
            chunks_stolen: self.chunks_stolen.saturating_sub(earlier.chunks_stolen),
            max_queue_depth: self.max_queue_depth,
            queue_depth: self.queue_depth,
            queue_waits: self.queue_waits.saturating_sub(earlier.queue_waits),
            queue_wait_ns: self.queue_wait_ns.saturating_sub(earlier.queue_wait_ns),
        }
    }
}

/// Snapshots the pool's cumulative counters.
pub fn pool_stats() -> PoolStats {
    let queue_wait = QUEUE_WAIT.snapshot();
    PoolStats {
        jobs: JOBS.get(),
        worker_runs: WORKER_RUNS.get(),
        par_regions: PAR_REGIONS.get(),
        chunks_claimed: CHUNKS_CLAIMED.get(),
        chunks_stolen: CHUNKS_STOLEN.get(),
        max_queue_depth: MAX_QUEUE_DEPTH.get(),
        queue_depth: crate::pool::Pool::global().queue_len() as u64,
        queue_waits: queue_wait.count,
        queue_wait_ns: queue_wait.sum,
    }
}
