//! # whynot-guard
//!
//! Per-request resource governance for the why-not engine: deadlines and
//! trace-tuple and eval-row budgets, plus a deterministic fault-injection
//! layer ([`faults`]) for robustness tests.
//!
//! ## Model
//!
//! A [`Guard`] is a small shared context created per request from its limits
//! (`timeout_ms`, `max_trace_tuples`, `max_eval_rows`). The service [`arm`]s
//! it around the request; the engine layers below check it *cooperatively* at
//! coarse boundaries — once per operator application, once per join
//! build/probe stride of 1024 rows, once per 1024 tuples a traced 1:1
//! operator reads, once per schema alternative a traced join pairs, or per
//! traced operator — and surface a typed [`ResourceError`] when a limit is
//! exceeded. Nothing is preemptive: a trip is always raised by the guarded
//! computation itself, so it returns through the ordinary error channels and
//! never leaves shared state (caches, pools) poisoned.
//!
//! ## Disabled-path cost
//!
//! Every check site first reads the current thread's guard slot
//! ([`armed`]); while no guard governs the thread, a check is
//! that one thread-local read and a predictable branch. Every e2ebench
//! request passes these sites (`http-dblp` with a guard armed), so the
//! benchmark's paired parent/change bounds cover their cost end to end.
//!
//! ## Threading
//!
//! A guard belongs to the thread that armed it: it lives in a thread-local,
//! and a guard armed by one request never governs another request's thread.
//! A request runs on one thread, and the service arms each request's own
//! guard around it, so a batch fanned out by `whynot_exec::par_map` governs
//! every request by its own limits. Clones of a guard share its budgets
//! (the counters live behind an `Arc`).
//!
//! ## Trip channel
//!
//! Every check site, the chunked join and tracer loops included, calls
//! [`checkpoint`] / [`consume_trace_tuples`] / [`consume_eval_rows`] in
//! `Result` position and propagates the error with `?`. A trip is never a
//! panic.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod faults;

use std::cell::RefCell;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
    /// The request evaluated more input row entries than `max_eval_rows`
    /// allows.
    EvalBudgetExceeded {
        /// Eval rows consumed including the failing consumption.
        used: u64,
        /// The configured budget.
        budget: u64,
    },
}

impl ResourceError {
    /// A stable machine-readable kind, used as the wire error kind.
    pub fn kind(&self) -> &'static str {
        match self {
            ResourceError::DeadlineExceeded { .. } => "deadline",
            ResourceError::TraceBudgetExceeded { .. } => "trace_budget",
            ResourceError::EvalBudgetExceeded { .. } => "eval_budget",
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
        }
    }
}

impl std::error::Error for ResourceError {}

/// The shared state behind a [`Guard`]. Budget counters are atomics so that
/// every clone consumes from one budget.
#[derive(Debug)]
struct GuardState {
    started: Instant,
    timeout: Option<Duration>,
    trace_budget: Option<u64>,
    eval_budget: Option<u64>,
    trace_used: AtomicU64,
    eval_used: AtomicU64,
    /// Whether a trip was already recorded (trip counters count each guard's
    /// first trip once, not every check that observes the tripped state).
    tripped: AtomicBool,
}

/// A per-request resource-governance context. Cheap to clone (one `Arc`);
/// clones share the deadline and the budgets.
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
            tripped: AtomicBool::new(false),
        }))
    }

    /// Checks the deadline.
    fn check(&self) -> Result<(), ResourceError> {
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
            }
            if whynot_obs::enabled() {
                whynot_obs::add("guard.trips", 1);
            }
        }
        error
    }
}

/// Guard checks performed while armed (process-wide, for the `stats` op).
static CHECKS: Counter = Counter::new();
static TRIPS_DEADLINE: Counter = Counter::new();
static TRIPS_TRACE_BUDGET: Counter = Counter::new();
static TRIPS_EVAL_BUDGET: Counter = Counter::new();

thread_local! {
    /// The guard governing work on the current thread, if any.
    static CURRENT: RefCell<Option<Guard>> = const { RefCell::new(None) };
}

/// Whether a guard governs the current thread. Check sites that need to
/// *compute* their consumption (e.g. sum input sizes) branch on this first
/// so the disabled path stays a single thread-local read.
#[inline]
pub fn armed() -> bool {
    CURRENT.with(|current| current.borrow().is_some())
}

/// The guard governing the current thread, if one is armed.
#[inline]
fn current() -> Option<Guard> {
    CURRENT.with(|current| current.borrow().clone())
}

/// Arms `guard` on the current thread for the scope of the returned token:
/// every check on this thread consults it. Drop restores the previously
/// installed guard, also on panic. Only this thread is governed; threads it
/// spawns are not.
#[must_use = "the guard is disarmed when the scope token drops"]
pub fn arm(guard: &Guard) -> ArmScope {
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
    }
}

/// Checks the current guard's deadline. `Ok(())` when no guard is armed.
/// This is the check for code in `Result` position (operator applications,
/// engine stages).
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
///
/// The evaluator draws each operator application's input row entries: its
/// operators pass each other rows whose equal values are not merged, so a
/// value an upstream operator produced twice counts twice.
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
/// so profiled signatures repeat from run to run).
#[inline]
fn count_check() {
    CHECKS.add(1);
    if whynot_obs::enabled() {
        whynot_obs::add("guard.checks", 1);
    }
}

/// Runs `f`, converting a panic whose payload is a [`ResourceError`] into
/// `Err`. Any other panic is re-raised unchanged.
///
/// Nothing in this workspace raises such a panic: trips return through
/// `Result`. Its only remaining callers are outside the workspace (the
/// e2ebench replay).
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
    /// Faults injected by the [`faults`] layer (panics + delays).
    pub faults_injected: u64,
}

impl GuardStats {
    /// Total guard trips across all kinds.
    pub fn trips(&self) -> u64 {
        self.deadline_trips + self.trace_budget_trips + self.eval_budget_trips
    }

    /// The per-kind trip counters keyed by the wire `kind` of the
    /// [`ResourceError`] each trip surfaces as — the breakdown the service's
    /// `stats` op reports.
    pub fn trips_by_kind(&self) -> [(&'static str, u64); 3] {
        [
            ("deadline", self.deadline_trips),
            ("trace_budget", self.trace_budget_trips),
            ("eval_budget", self.eval_budget_trips),
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
        faults_injected: faults::injected(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_checks_are_free_and_ok() {
        assert!(!armed());
        assert!(current().is_none());
        assert!(checkpoint().is_ok());
        assert!(consume_trace_tuples(1_000_000).is_ok());
        assert!(consume_eval_rows(1_000_000).is_ok());
    }

    #[test]
    fn zero_timeout_trips_at_first_checkpoint() {
        let guard = Guard::new(Some(0), None, None);
        let _scope = arm(&guard);
        // A zero-millisecond deadline has passed by the time we check.
        std::thread::sleep(Duration::from_millis(1));
        let error = checkpoint().unwrap_err();
        assert!(matches!(error, ResourceError::DeadlineExceeded { timeout_ms: 0, .. }), "{error}");
        assert_eq!(error.kind(), "deadline");
    }

    #[test]
    fn trace_budget_trips_once_consumed() {
        let guard = Guard::new(None, Some(10), None);
        let _scope = arm(&guard);
        assert!(consume_trace_tuples(6).is_ok());
        assert!(consume_trace_tuples(4).is_ok());
        let error = consume_trace_tuples(1).unwrap_err();
        assert_eq!(error, ResourceError::TraceBudgetExceeded { used: 11, budget: 10 });
    }

    #[test]
    fn eval_budget_trips_once_consumed() {
        let guard = Guard::new(None, None, Some(5));
        let _scope = arm(&guard);
        assert!(consume_eval_rows(5).is_ok());
        let error = consume_eval_rows(3).unwrap_err();
        assert_eq!(error, ResourceError::EvalBudgetExceeded { used: 8, budget: 5 });
        assert_eq!(error.kind(), "eval_budget");
    }

    #[test]
    fn arm_scopes_nest_and_restore() {
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
    fn a_guard_carried_to_another_thread_shares_its_budgets() {
        let guard = Guard::new(None, Some(10), None);
        let _scope = arm(&guard);
        let carried = current().expect("armed");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _armed = arm(&carried);
                assert!(consume_trace_tuples(8).is_ok());
            });
        });
        // The worker's consumption drew from the same pool.
        assert!(consume_trace_tuples(3).is_err());
    }

    #[test]
    fn catch_trip_recovers_a_resource_error_payload() {
        let guard = Guard::new(Some(0), None, None);
        std::thread::sleep(Duration::from_millis(1));
        let result: Result<(), ResourceError> = catch_trip(|| {
            let _scope = arm(&guard);
            std::panic::panic_any(checkpoint().unwrap_err());
        });
        let error = result.unwrap_err();
        assert!(matches!(error, ResourceError::DeadlineExceeded { timeout_ms: 0, .. }), "{error}");

        // Foreign panics pass through untouched.
        let reraised = catch_unwind(AssertUnwindSafe(|| catch_trip(|| panic!("boom"))));
        let payload = reraised.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    }

    #[test]
    fn trips_are_counted_once_per_guard() {
        let before = guard_stats();
        let guard = Guard::new(None, Some(0), None);
        // The profile sees only this thread's checks and trips; the
        // process-wide counters also move with concurrently running tests.
        let ((), report) = whynot_obs::profile(|| {
            let _scope = arm(&guard);
            assert!(consume_trace_tuples(1).is_err());
            assert!(consume_trace_tuples(1).is_err());
            assert!(checkpoint().is_ok(), "the deadline is unaffected by budget trips");
        });
        assert_eq!(
            report.counter_total("guard.trips"),
            1,
            "second observation of the same trip must not recount"
        );
        assert_eq!(report.counter_total("guard.checks"), 3);
        let after = guard_stats();
        assert!(after.trace_budget_trips > before.trace_budget_trips);
        assert!(after.checks >= before.checks + 3);
    }
}
