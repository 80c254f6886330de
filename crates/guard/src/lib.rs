//! # whynot-guard
//!
//! Per-request resource governance for the why-not engine: deadlines,
//! trace-tuple and eval-row budgets, and cooperative cancellation, plus a
//! deterministic fault-injection layer ([`faults`]) for robustness tests.
//!
//! ## Model
//!
//! A [`Guard`] is a small shared context created per request from its limits
//! (`timeout_ms`, `max_trace_tuples`, `max_eval_rows`). The service [`arm`]s
//! it around the request; the engine layers below check it *cooperatively* at
//! coarse boundaries — once per operator application, once per columnar
//! chunk, once per join build/probe stride, once per traced operator — and
//! surface a typed [`ResourceError`] when a limit is exceeded. Nothing is
//! preemptive: a trip is always raised by the guarded computation itself, so
//! it unwinds through the ordinary error channels and never leaves shared
//! state (caches, pools) poisoned.
//!
//! ## Disabled-path cost
//!
//! Exactly like `whynot-obs`, every check site is inert behind one relaxed
//! atomic load ([`armed`]) while no guard is armed anywhere in the process.
//! The CI bench gate (`guard` group) pins the disabled-path overhead of the
//! instrumented eval/trace paths at ≤ 5%.
//!
//! ## Threading
//!
//! The current guard is carried in a thread-local. Parallel regions re-arm it
//! on their workers: `whynot_exec::par_map` captures [`current`] on the
//! calling thread and installs it via [`rearm`] inside every participant, so
//! budget consumption is shared (the counters live behind an `Arc`) and a
//! deadline trips on whichever worker notices first.
//!
//! ## Trip channels
//!
//! * Code in `Result` position calls [`checkpoint`] / [`consume_trace_tuples`]
//!   / [`consume_eval_rows`] and propagates the error.
//! * Chunked hot loops without a `Result` channel call [`enforce`], which
//!   raises the trip as a panic payload; [`catch_trip`] at the layer entry
//!   points (`evaluate`, `trace_plan_generalized`) turns exactly that payload
//!   back into a `ResourceError` and re-raises anything else.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod faults;

use std::cell::RefCell;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use whynot_obs::Counter;

/// A typed resource trip: which limit was exceeded and by how much.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResourceError {
    /// The request's deadline (`timeout_ms`) passed.
    DeadlineExceeded {
        /// Wall-clock milliseconds elapsed when the trip was noticed.
        elapsed_ms: u64,
        /// The configured timeout in milliseconds.
        timeout_ms: u64,
    },
    /// The request traced more tuples than `max_trace_tuples` allows.
    TraceBudgetExceeded {
        /// Trace tuples consumed including the failing consumption.
        used: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The request evaluated more input rows than `max_eval_rows` allows.
    EvalBudgetExceeded {
        /// Eval rows consumed including the failing consumption.
        used: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The guard was cancelled explicitly ([`Guard::cancel`]).
    Cancelled,
}

impl ResourceError {
    /// A stable machine-readable kind, used as the wire error kind.
    pub fn kind(&self) -> &'static str {
        match self {
            ResourceError::DeadlineExceeded { .. } => "deadline",
            ResourceError::TraceBudgetExceeded { .. } => "trace_budget",
            ResourceError::EvalBudgetExceeded { .. } => "eval_budget",
            ResourceError::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for ResourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceError::DeadlineExceeded { elapsed_ms, timeout_ms } => {
                write!(f, "deadline exceeded: {elapsed_ms} ms elapsed, timeout {timeout_ms} ms")
            }
            ResourceError::TraceBudgetExceeded { used, budget } => {
                write!(f, "trace budget exceeded: {used} tuples traced, budget {budget}")
            }
            ResourceError::EvalBudgetExceeded { used, budget } => {
                write!(f, "eval budget exceeded: {used} rows evaluated, budget {budget}")
            }
            ResourceError::Cancelled => write!(f, "request cancelled"),
        }
    }
}

impl std::error::Error for ResourceError {}

/// The shared state behind a [`Guard`]. Budget counters are atomics so that
/// parallel workers re-armed with a clone consume from one pool.
#[derive(Debug)]
struct GuardState {
    started: Instant,
    timeout: Option<Duration>,
    trace_budget: Option<u64>,
    eval_budget: Option<u64>,
    trace_used: AtomicU64,
    eval_used: AtomicU64,
    cancelled: AtomicBool,
    /// Whether a trip was already recorded (trip counters count each guard's
    /// first trip once, not every check that observes the tripped state).
    tripped: AtomicBool,
}

/// A per-request resource-governance context. Cheap to clone (one `Arc`);
/// clones share the deadline, the budgets, and the cancellation flag.
#[derive(Debug, Clone)]
pub struct Guard(Arc<GuardState>);

impl Guard {
    /// A guard with the given limits; `None` means unlimited. The deadline
    /// clock starts now — `timeout_ms = 0` trips at the first checkpoint,
    /// which the robustness tests use for deterministic deadline trips.
    pub fn new(
        timeout_ms: Option<u64>,
        max_trace_tuples: Option<u64>,
        max_eval_rows: Option<u64>,
    ) -> Guard {
        Guard(Arc::new(GuardState {
            started: Instant::now(),
            timeout: timeout_ms.map(Duration::from_millis),
            trace_budget: max_trace_tuples,
            eval_budget: max_eval_rows,
            trace_used: AtomicU64::new(0),
            eval_used: AtomicU64::new(0),
            cancelled: AtomicBool::new(false),
            tripped: AtomicBool::new(false),
        }))
    }

    /// Whether the guard has any limit at all (an unlimited guard never
    /// trips; arming it still costs the per-check atomic loads).
    pub fn is_limited(&self) -> bool {
        self.0.timeout.is_some() || self.0.trace_budget.is_some() || self.0.eval_budget.is_some()
    }

    /// Cooperatively cancels the guarded request: the next check anywhere
    /// (any thread) trips with [`ResourceError::Cancelled`].
    pub fn cancel(&self) {
        self.0.cancelled.store(true, Ordering::Relaxed);
    }

    /// Checks the deadline and the cancellation flag.
    fn check(&self) -> Result<(), ResourceError> {
        if self.0.cancelled.load(Ordering::Relaxed) {
            return Err(self.trip(ResourceError::Cancelled));
        }
        if let Some(timeout) = self.0.timeout {
            let elapsed = self.0.started.elapsed();
            if elapsed > timeout {
                return Err(self.trip(ResourceError::DeadlineExceeded {
                    elapsed_ms: elapsed.as_millis() as u64,
                    timeout_ms: timeout.as_millis() as u64,
                }));
            }
        }
        Ok(())
    }

    /// Consumes `n` trace tuples from the budget (and checks the deadline).
    fn consume_trace(&self, n: u64) -> Result<(), ResourceError> {
        self.check()?;
        if let Some(budget) = self.0.trace_budget {
            let used = self.0.trace_used.fetch_add(n, Ordering::Relaxed) + n;
            if used > budget {
                return Err(self.trip(ResourceError::TraceBudgetExceeded { used, budget }));
            }
        }
        Ok(())
    }

    /// Consumes `n` eval rows from the budget (and checks the deadline).
    fn consume_eval(&self, n: u64) -> Result<(), ResourceError> {
        self.check()?;
        if let Some(budget) = self.0.eval_budget {
            let used = self.0.eval_used.fetch_add(n, Ordering::Relaxed) + n;
            if used > budget {
                return Err(self.trip(ResourceError::EvalBudgetExceeded { used, budget }));
            }
        }
        Ok(())
    }

    /// Records the guard's first trip in the process-wide counters (later
    /// checks observing the already-tripped guard return errors without
    /// recounting) and passes the error through.
    fn trip(&self, error: ResourceError) -> ResourceError {
        if !self.0.tripped.swap(true, Ordering::Relaxed) {
            match &error {
                ResourceError::DeadlineExceeded { .. } => TRIPS_DEADLINE.add(1),
                ResourceError::TraceBudgetExceeded { .. } => TRIPS_TRACE_BUDGET.add(1),
                ResourceError::EvalBudgetExceeded { .. } => TRIPS_EVAL_BUDGET.add(1),
                ResourceError::Cancelled => TRIPS_CANCELLED.add(1),
            }
            if whynot_obs::enabled() {
                whynot_obs::add("guard.trips", 1);
            }
        }
        error
    }
}

/// Number of armed guards process-wide. The single relaxed load of this
/// count is the only cost every check site pays while no request carries
/// limits (the `whynot-obs` `ACTIVE_SESSIONS` pattern).
static ARMED: AtomicUsize = AtomicUsize::new(0);

/// Guard checks performed while armed (process-wide, for the `stats` op).
static CHECKS: Counter = Counter::new();
static TRIPS_DEADLINE: Counter = Counter::new();
static TRIPS_TRACE_BUDGET: Counter = Counter::new();
static TRIPS_EVAL_BUDGET: Counter = Counter::new();
static TRIPS_CANCELLED: Counter = Counter::new();

thread_local! {
    /// The guard governing work on the current thread, if any.
    static CURRENT: RefCell<Option<Guard>> = const { RefCell::new(None) };
}

/// Whether any guard is armed anywhere in the process. Check sites that need
/// to *compute* their consumption (e.g. sum input sizes) branch on this
/// first so the disabled path stays a single relaxed load.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed) != 0
}

/// The guard governing the current thread, if one is armed. Returns `None`
/// without touching the thread-local while nothing is armed process-wide.
#[inline]
pub fn current() -> Option<Guard> {
    if !armed() {
        return None;
    }
    CURRENT.with(|current| current.borrow().clone())
}

/// Arms `guard` on the current thread for the scope of the returned token:
/// installs it as [`current`] and bumps the process-wide armed count. Drop
/// restores the previously installed guard (and the count), also on panic.
#[must_use = "the guard is disarmed when the scope token drops"]
pub fn arm(guard: &Guard) -> ArmScope {
    ARMED.fetch_add(1, Ordering::Relaxed);
    let previous = CURRENT.with(|current| current.borrow_mut().replace(guard.clone()));
    ArmScope { previous, _not_send: std::marker::PhantomData }
}

/// Scope token of [`arm`]; restores the previous guard on drop.
#[derive(Debug)]
pub struct ArmScope {
    previous: Option<Guard>,
    /// Arm/disarm must happen on one thread (thread-local restore).
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ArmScope {
    fn drop(&mut self) {
        let previous = self.previous.take();
        CURRENT.with(|current| *current.borrow_mut() = previous);
        ARMED.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Re-installs a guard on a parallel worker for the scope of the returned
/// token, *without* touching the armed count (the arming request still owns
/// it). `whynot_exec::par_map` calls this with the caller's [`current`]
/// guard inside every participant, so fanned-out chunks keep consuming from
/// the request's shared budgets.
#[must_use = "the guard is uninstalled when the scope token drops"]
pub fn rearm(guard: Guard) -> RearmScope {
    let previous = CURRENT.with(|current| current.borrow_mut().replace(guard));
    RearmScope { previous, _not_send: std::marker::PhantomData }
}

/// Scope token of [`rearm`]; restores the worker's previous guard on drop.
#[derive(Debug)]
pub struct RearmScope {
    previous: Option<Guard>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for RearmScope {
    fn drop(&mut self) {
        let previous = self.previous.take();
        CURRENT.with(|current| *current.borrow_mut() = previous);
    }
}

/// Checks the current guard's deadline and cancellation flag. `Ok(())` when
/// no guard is armed. This is the check for code in `Result` position
/// (operator applications, engine stages).
#[inline]
pub fn checkpoint() -> Result<(), ResourceError> {
    match current() {
        None => Ok(()),
        Some(guard) => {
            count_check();
            guard.check()
        }
    }
}

/// Like [`checkpoint`], but for chunked hot loops without a `Result`
/// channel: a trip is raised as a panic whose payload is the
/// [`ResourceError`], to be caught by [`catch_trip`] at the layer boundary.
#[inline]
pub fn enforce() {
    if let Err(error) = checkpoint() {
        std::panic::panic_any(error);
    }
}

/// Consumes `n` tuples from the current guard's trace budget (checking the
/// deadline too). `Ok(())` when no guard is armed.
#[inline]
pub fn consume_trace_tuples(n: u64) -> Result<(), ResourceError> {
    match current() {
        None => Ok(()),
        Some(guard) => {
            count_check();
            guard.consume_trace(n)
        }
    }
}

/// Consumes `n` rows from the current guard's eval budget (checking the
/// deadline too). `Ok(())` when no guard is armed.
#[inline]
pub fn consume_eval_rows(n: u64) -> Result<(), ResourceError> {
    match current() {
        None => Ok(()),
        Some(guard) => {
            count_check();
            guard.consume_eval(n)
        }
    }
}

/// One armed check: the always-on counter plus the obs-gated span counter
/// (check sites are chunk- and operator-granular, deterministic in the input,
/// so profiled signatures stay thread-count independent).
#[inline]
fn count_check() {
    CHECKS.add(1);
    if whynot_obs::enabled() {
        whynot_obs::add("guard.checks", 1);
    }
}

/// Runs `f`, converting a panic whose payload is a [`ResourceError`] (raised
/// by [`enforce`] inside a chunked loop) back into `Err`. Any other panic is
/// re-raised unchanged. Layer entry points (`evaluate`,
/// `trace_plan_generalized`) wrap their bodies in this so trips surface as
/// ordinary typed errors no matter which worker raised them.
pub fn catch_trip<R>(f: impl FnOnce() -> R) -> Result<R, ResourceError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => Ok(result),
        Err(payload) => match payload.downcast::<ResourceError>() {
            Ok(error) => Err(*error),
            Err(other) => resume_unwind(other),
        },
    }
}

/// Process-wide guard counters (the `guard` section of the `stats` op).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuardStats {
    /// Checks performed while a guard was armed.
    pub checks: u64,
    /// Guards that tripped on their deadline.
    pub deadline_trips: u64,
    /// Guards that tripped on the trace-tuple budget.
    pub trace_budget_trips: u64,
    /// Guards that tripped on the eval-row budget.
    pub eval_budget_trips: u64,
    /// Guards that tripped on explicit cancellation.
    pub cancelled_trips: u64,
    /// Faults injected by the [`faults`] layer (panics + delays).
    pub faults_injected: u64,
}

impl GuardStats {
    /// Total guard trips across all kinds.
    pub fn trips(&self) -> u64 {
        self.deadline_trips
            + self.trace_budget_trips
            + self.eval_budget_trips
            + self.cancelled_trips
    }

    /// The per-kind trip counters keyed by the wire `kind` of the
    /// [`ResourceError`] each trip surfaces as — the breakdown the service's
    /// `stats` op reports.
    pub fn trips_by_kind(&self) -> [(&'static str, u64); 4] {
        [
            ("deadline", self.deadline_trips),
            ("trace_budget", self.trace_budget_trips),
            ("eval_budget", self.eval_budget_trips),
            ("cancelled", self.cancelled_trips),
        ]
    }
}

/// Snapshots the process-wide guard counters.
pub fn guard_stats() -> GuardStats {
    GuardStats {
        checks: CHECKS.get(),
        deadline_trips: TRIPS_DEADLINE.get(),
        trace_budget_trips: TRIPS_TRACE_BUDGET.get(),
        eval_budget_trips: TRIPS_EVAL_BUDGET.get(),
        cancelled_trips: TRIPS_CANCELLED.get(),
        faults_injected: faults::injected(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The armed count is process-global; tests that arm a guard, or assert
    /// that none is armed, must not interleave.
    static ARM_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        ARM_TEST_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn unarmed_checks_are_free_and_ok() {
        let _serial = locked();
        assert!(!armed());
        assert!(current().is_none());
        assert!(checkpoint().is_ok());
        assert!(consume_trace_tuples(1_000_000).is_ok());
        assert!(consume_eval_rows(1_000_000).is_ok());
        enforce();
    }

    #[test]
    fn zero_timeout_trips_at_first_checkpoint() {
        let _serial = locked();
        let guard = Guard::new(Some(0), None, None);
        assert!(guard.is_limited());
        let _scope = arm(&guard);
        // A zero-millisecond deadline has passed by the time we check.
        std::thread::sleep(Duration::from_millis(1));
        let error = checkpoint().unwrap_err();
        assert!(matches!(error, ResourceError::DeadlineExceeded { timeout_ms: 0, .. }), "{error}");
        assert_eq!(error.kind(), "deadline");
    }

    #[test]
    fn trace_budget_trips_once_consumed() {
        let _serial = locked();
        let guard = Guard::new(None, Some(10), None);
        let _scope = arm(&guard);
        assert!(consume_trace_tuples(6).is_ok());
        assert!(consume_trace_tuples(4).is_ok());
        let error = consume_trace_tuples(1).unwrap_err();
        assert_eq!(error, ResourceError::TraceBudgetExceeded { used: 11, budget: 10 });
    }

    #[test]
    fn eval_budget_trips_once_consumed() {
        let _serial = locked();
        let guard = Guard::new(None, None, Some(5));
        let _scope = arm(&guard);
        assert!(consume_eval_rows(5).is_ok());
        let error = consume_eval_rows(3).unwrap_err();
        assert_eq!(error, ResourceError::EvalBudgetExceeded { used: 8, budget: 5 });
        assert_eq!(error.kind(), "eval_budget");
    }

    #[test]
    fn cancel_trips_every_clone() {
        let _serial = locked();
        let guard = Guard::new(None, None, None);
        let clone = guard.clone();
        let _scope = arm(&clone);
        guard.cancel();
        assert_eq!(checkpoint().unwrap_err(), ResourceError::Cancelled);
    }

    #[test]
    fn arm_scopes_nest_and_restore() {
        let _serial = locked();
        let outer = Guard::new(None, Some(1), None);
        let inner = Guard::new(None, Some(2), None);
        {
            let _outer = arm(&outer);
            {
                let _inner = arm(&inner);
                // The inner guard governs: budget 2 admits 2 tuples.
                assert!(consume_trace_tuples(2).is_ok());
            }
            // Back to the outer guard: budget 1, still unconsumed.
            assert!(consume_trace_tuples(1).is_ok());
            assert!(consume_trace_tuples(1).is_err());
        }
        assert!(!armed());
        assert!(current().is_none());
    }

    #[test]
    fn rearm_shares_budgets_across_threads() {
        let _serial = locked();
        let guard = Guard::new(None, Some(10), None);
        let _scope = arm(&guard);
        let carried = current().expect("armed");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _rearm = rearm(carried.clone());
                assert!(consume_trace_tuples(8).is_ok());
            });
        });
        // The worker's consumption drew from the same pool.
        assert!(consume_trace_tuples(3).is_err());
    }

    #[test]
    fn enforce_panics_with_the_error_and_catch_trip_recovers_it() {
        let _serial = locked();
        let guard = Guard::new(None, None, None);
        guard.cancel();
        let result: Result<(), ResourceError> = catch_trip(|| {
            let _scope = arm(&guard);
            enforce();
        });
        assert_eq!(result.unwrap_err(), ResourceError::Cancelled);

        // Foreign panics pass through untouched.
        let reraised = catch_unwind(AssertUnwindSafe(|| catch_trip(|| panic!("boom"))));
        let payload = reraised.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    }

    #[test]
    fn trips_are_counted_once_per_guard() {
        let _serial = locked();
        let before = guard_stats();
        let guard = Guard::new(None, Some(0), None);
        let _scope = arm(&guard);
        assert!(consume_trace_tuples(1).is_err());
        assert!(consume_trace_tuples(1).is_err());
        assert!(checkpoint().is_ok(), "deadline/cancel unaffected by budget trips");
        let delta = guard_stats().trace_budget_trips - before.trace_budget_trips;
        assert_eq!(delta, 1, "second observation of the same trip must not recount");
        assert!(guard_stats().checks > before.checks);
    }
}
