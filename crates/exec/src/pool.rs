//! The global scoped worker pool.
//!
//! The pool owns a set of persistent, lazily spawned worker threads that are
//! parked on a condvar when idle. A *job* is a `&(dyn Fn() + Sync)` closure
//! that the submitting thread shares with up to `helpers` workers: every
//! participant (helpers *and* the submitting thread itself) calls the closure
//! once, and the closure internally claims chunks of work until none remain
//! (see [`crate::par::par_map_indexed`]).
//!
//! The job closure is borrowed, not `'static`: the submitter erases its
//! lifetime into a raw pointer and — this is the safety contract — does not
//! return from [`Pool::run_scoped`] until every worker that dereferenced the
//! pointer has finished running the closure and every not-yet-claimed queue
//! entry for the job has been withdrawn. Workers survive job panics (the
//! per-chunk work is additionally caught by `par_map` itself, which re-raises
//! the panic on the submitting thread).
//!
//! Because the submitting thread always participates, progress never depends
//! on a worker being free: if all workers are busy with other jobs, the
//! submitter simply processes every chunk itself and withdraws the stale
//! queue entries on its way out.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

thread_local! {
    /// Whether the current thread is a pool worker. Nested parallel calls
    /// from inside a worker run serially (the outer level already owns the
    /// parallelism), which also rules out pool-in-pool deadlocks.
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };

    /// Whether the current (non-worker) thread is presently executing the
    /// caller-side share of a parallel region. Same effect as
    /// [`IS_POOL_WORKER`]: nested calls stay serial.
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is already inside a parallel region (as a pool
/// worker or as the submitting participant). Used by
/// [`crate::effective_threads`] to serialize nested parallelism.
pub(crate) fn in_parallel_region() -> bool {
    IS_POOL_WORKER.with(Cell::get) || IN_PARALLEL_REGION.with(Cell::get)
}

/// Shared bookkeeping of one submitted job.
struct JobStatus {
    state: Mutex<JobState>,
    cv: Condvar,
}

struct JobState {
    /// Queue entries not yet popped by a worker (or withdrawn by the caller).
    queued: usize,
    /// Workers currently executing the job closure.
    active: usize,
    /// Set by the submitter once all chunks are done; late poppers skip.
    closed: bool,
}

/// One queue entry: the type-erased job closure plus its status block.
///
/// The raw pointer is only dereferenced by a worker that has registered
/// itself in `status.active` first; the submitter keeps the closure alive
/// until `active` drops to zero and withdraws all un-popped entries, so the
/// pointer never dangles while reachable.
struct JobEntry {
    run: *const (dyn Fn() + Sync),
    status: Arc<JobStatus>,
    /// Submission time, taken only when the submitting thread profiles, so
    /// queue-wait histograms cost nothing on the disabled path.
    enqueued: Option<std::time::Instant>,
}

// SAFETY: the pointee is `Sync` (it is a `&dyn Fn() + Sync`), and the
// `run_scoped` protocol guarantees it outlives every access from the queue.
unsafe impl Send for JobEntry {}

/// The process-wide worker pool.
pub(crate) struct Pool {
    queue: Mutex<VecDeque<JobEntry>>,
    queue_cv: Condvar,
    /// Number of worker threads spawned so far (grows on demand).
    spawned: AtomicUsize,
}

/// Upper bound on spawned workers, far above any sane `WHYNOT_THREADS`.
const MAX_WORKERS: usize = 256;

static POOL: OnceLock<Pool> = OnceLock::new();

impl Pool {
    pub(crate) fn global() -> &'static Pool {
        POOL.get_or_init(|| Pool {
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            spawned: AtomicUsize::new(0),
        })
    }

    /// Makes sure at least `target` workers exist (best effort: if the OS
    /// refuses to spawn a thread, the pool keeps working with fewer — the
    /// submitting thread picks up the slack).
    fn ensure_workers(&'static self, target: usize) {
        let target = target.min(MAX_WORKERS);
        loop {
            let current = self.spawned.load(Ordering::SeqCst);
            if current >= target {
                return;
            }
            if self
                .spawned
                .compare_exchange(current, current + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                continue;
            }
            let spawned = std::thread::Builder::new()
                .name(format!("whynot-exec-{current}"))
                .spawn(move || self.worker_loop());
            if spawned.is_err() {
                self.spawned.fetch_sub(1, Ordering::SeqCst);
                return;
            }
        }
    }

    fn worker_loop(&'static self) {
        IS_POOL_WORKER.with(|w| w.set(true));
        loop {
            let entry = {
                let mut queue = self.queue.lock().expect("pool queue poisoned");
                loop {
                    if let Some(entry) = queue.pop_front() {
                        break entry;
                    }
                    queue = self.queue_cv.wait(queue).expect("pool queue poisoned");
                }
            };
            if let Some(enqueued) = entry.enqueued {
                crate::stats::QUEUE_WAIT.record(enqueued.elapsed().as_nanos() as u64);
            }
            let participate = {
                let mut state = entry.status.state.lock().expect("job status poisoned");
                state.queued -= 1;
                if state.closed {
                    entry.status.cv.notify_all();
                    false
                } else {
                    state.active += 1;
                    true
                }
            };
            if participate {
                crate::stats::WORKER_RUNS.add(1);
                // SAFETY: `active` was incremented above, so the submitter in
                // `run_scoped` cannot return (and drop the closure) until the
                // decrement below.
                let run = unsafe { &*entry.run };
                // The closure catches chunk panics itself; this is a second
                // line of defense so a worker thread never dies. The fault
                // point lives *inside* it so an injected worker panic takes
                // the same recovery path as a real one (`active` still
                // decrements; the submitter picks up the worker's chunks).
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    whynot_guard::faults::fault_point("pool_worker");
                    run();
                }));
                let mut state = entry.status.state.lock().expect("job status poisoned");
                state.active -= 1;
                entry.status.cv.notify_all();
            }
        }
    }

    /// Runs `run` on the submitting thread plus up to `helpers` pool workers,
    /// returning once every participant has returned from the closure.
    pub(crate) fn run_scoped(&'static self, helpers: usize, run: &(dyn Fn() + Sync)) {
        if helpers == 0 {
            run();
            return;
        }
        self.ensure_workers(helpers);
        crate::stats::JOBS.add(1);
        let status = Arc::new(JobStatus {
            state: Mutex::new(JobState { queued: helpers, active: 0, closed: false }),
            cv: Condvar::new(),
        });
        // SAFETY: erases the borrow's lifetime to `'static` for storage in
        // the queue. `finish_scope` below guarantees no entry holding this
        // pointer survives (queued or running) past the end of this call,
        // i.e. past the borrow.
        let run_ptr: *const (dyn Fn() + Sync + 'static) =
            unsafe { std::mem::transmute(run as *const (dyn Fn() + Sync)) };
        let enqueued = whynot_obs::enabled().then(std::time::Instant::now);
        {
            let mut queue = self.queue.lock().expect("pool queue poisoned");
            for _ in 0..helpers {
                queue.push_back(JobEntry { run: run_ptr, status: Arc::clone(&status), enqueued });
            }
            crate::stats::MAX_QUEUE_DEPTH.record_max(queue.len() as u64);
        }
        self.queue_cv.notify_all();

        // Participate ourselves; mark the thread so nested parallel calls
        // from inside `run` stay serial.
        IN_PARALLEL_REGION.with(|r| {
            let previous = r.replace(true);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
            r.set(previous);
            if let Err(panic) = result {
                // Propagate after the scope is cleaned up below — but we must
                // not leave workers running on a dangling closure, so finish
                // the protocol first.
                self.finish_scope(&status);
                std::panic::resume_unwind(panic);
            }
        });
        self.finish_scope(&status);
    }

    /// Current number of queued (not yet popped or withdrawn) job entries.
    /// A healthy idle pool reports zero — the stats suite pins this so a
    /// propagated worker panic can never leak a stuck queue depth.
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.lock().expect("pool queue poisoned").len()
    }

    /// Closes a job: withdraws un-popped queue entries and waits for active
    /// workers to finish, after which the job closure may be dropped.
    fn finish_scope(&self, status: &Arc<JobStatus>) {
        {
            let mut state = status.state.lock().expect("job status poisoned");
            state.closed = true;
        }
        {
            let mut queue = self.queue.lock().expect("pool queue poisoned");
            let before = queue.len();
            queue.retain(|entry| !Arc::ptr_eq(&entry.status, status));
            let withdrawn = before - queue.len();
            if withdrawn > 0 {
                let mut state = status.state.lock().expect("job status poisoned");
                state.queued -= withdrawn;
            }
        }
        let mut state = status.state.lock().expect("job status poisoned");
        while state.queued > 0 || state.active > 0 {
            state = status.cv.wait(state).expect("job status poisoned");
        }
    }
}
