//! Deterministic, seeded fault injection at named engine sites.
//!
//! Robustness tests need to *prove* that a dead fan-out helper cannot lose
//! batch items, that one poisoned batch entry cannot corrupt its siblings,
//! and that the trace cache hands an in-flight computation over when its
//! owner dies. Hoping those paths get exercised by accident is not a test,
//! so the engine carries named fault points — [`fault_point`] calls at the
//! start of every batch fan-out helper (`pool_worker`), the join build, the
//! per-schema-alternative trace loop, and the cache compute closure — that
//! are inert (two relaxed atomic loads) unless a fault plan is armed.
//!
//! ## Spec syntax
//!
//! A plan comes from `WHYNOT_FAULTS` (or [`configure`] in tests):
//!
//! ```text
//! WHYNOT_FAULTS="<rule>[,<rule>...][:<seed>]"
//! rule  := site[~substr]=action[%N]
//! action := panic | delay<ms>
//! ```
//!
//! * `site` is one of the engine's four fault points (`pool_worker`,
//!   `join_build`, `trace_sa`, `cache_compute`); any other name is rejected.
//!   The optional `~substr` additionally requires the point's dynamic detail
//!   (e.g. a database id or an SA index) to contain `substr`.
//! * `panic` panics with a recognizable message; `delay25` sleeps 25 ms.
//! * `%N` fires the rule on a deterministic pseudo-random 1-in-N basis,
//!   seeded by the trailing `:<seed>` (default seed 0), so a matrix entry
//!   like `pool_worker=delay2%7:42` perturbs scheduling reproducibly.
//!
//! Example: `cache_compute~faulty=panic,join_build=delay5%3:7`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use whynot_obs::Counter;

/// The names of the engine's fault points, the only sites a rule may name.
const SITES: [&str; 4] = ["pool_worker", "join_build", "trace_sa", "cache_compute"];

/// What an armed rule does when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
enum FaultAction {
    /// Panic with `injected fault at site \`<site>\``.
    Panic,
    /// Sleep for the given number of milliseconds.
    DelayMs(u64),
}

/// One parsed `site[~substr]=action[%N]` rule.
#[derive(Debug)]
struct FaultRule {
    site: String,
    detail_substr: Option<String>,
    action: FaultAction,
    /// `Some(n)` fires 1-in-`n` via the seeded per-rule LCG below.
    one_in: Option<u64>,
    /// Per-rule LCG state (seeded from the plan seed + rule index), advanced
    /// on every match so firing decisions are deterministic in match order.
    lcg: AtomicU64,
}

impl FaultRule {
    /// Whether this match should fire, advancing the rule's LCG stream.
    fn should_fire(&self) -> bool {
        match self.one_in {
            None => true,
            Some(n) => {
                // Classic 64-bit LCG (Knuth's MMIX constants).
                let mut state = self.lcg.load(Ordering::Relaxed);
                loop {
                    let next =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    match self.lcg.compare_exchange_weak(
                        state,
                        next,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => return (next >> 33).is_multiple_of(n),
                        Err(seen) => state = seen,
                    }
                }
            }
        }
    }
}

/// A parsed fault plan: the rules of one `WHYNOT_FAULTS` spec.
#[derive(Debug)]
struct FaultPlan {
    rules: Vec<FaultRule>,
}

/// Fast gate: set exactly when a non-empty plan is armed.
static ARMED_FAULTS: AtomicBool = AtomicBool::new(false);
/// Whether the `WHYNOT_FAULTS` environment variable has been consulted.
static INITIALIZED: AtomicBool = AtomicBool::new(false);
/// Faults actually injected (panics + delays), for `stats`.
static INJECTED: Counter = Counter::new();

/// The armed plan. Process-global on purpose: fault injection configures the
/// whole process, exactly like `WHYNOT_FAULTS` would.
static PLAN: RwLock<Option<Arc<FaultPlan>>> = RwLock::new(None);

/// Parses `spec` into a plan. Empty spec → no plan.
fn parse_plan(spec: &str) -> Result<Option<FaultPlan>, String> {
    let spec = spec.trim();
    if spec.is_empty() {
        return Ok(None);
    }
    // A trailing `:<seed>` seeds the 1-in-N streams.
    let (rules_spec, seed) = match spec.rsplit_once(':') {
        Some((rules, seed_str)) => {
            let seed =
                seed_str.parse::<u64>().map_err(|_| format!("invalid fault seed `{seed_str}`"))?;
            (rules, seed)
        }
        None => (spec, 0u64),
    };
    let mut rules = Vec::new();
    for (index, rule_spec) in rules_spec.split(',').enumerate() {
        let rule_spec = rule_spec.trim();
        if rule_spec.is_empty() {
            continue;
        }
        let (target, action_spec) = rule_spec
            .split_once('=')
            .ok_or_else(|| format!("fault rule `{rule_spec}` is missing `=action`"))?;
        let (site, detail_substr) = match target.split_once('~') {
            Some((site, substr)) => (site, Some(substr.to_string())),
            None => (target, None),
        };
        if !SITES.contains(&site) {
            return Err(format!(
                "fault rule `{rule_spec}` names unknown site `{site}` (known: {})",
                SITES.join(", ")
            ));
        }
        let (action_spec, one_in) = match action_spec.split_once('%') {
            Some((action, n_str)) => {
                let n = n_str
                    .parse::<u64>()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| format!("invalid fault probability `%{n_str}`"))?;
                (action, Some(n))
            }
            None => (action_spec, None),
        };
        let action = if action_spec == "panic" {
            FaultAction::Panic
        } else if let Some(ms_str) = action_spec.strip_prefix("delay") {
            let ms = ms_str.parse::<u64>().map_err(|_| format!("invalid delay `{action_spec}`"))?;
            FaultAction::DelayMs(ms)
        } else {
            return Err(format!("unknown fault action `{action_spec}`"));
        };
        rules.push(FaultRule {
            site: site.to_string(),
            detail_substr,
            action,
            one_in,
            // Distinct, seed-derived starting state per rule.
            lcg: AtomicU64::new(
                seed.wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(index as u64 + 1)),
            ),
        });
    }
    if rules.is_empty() {
        return Ok(None);
    }
    Ok(Some(FaultPlan { rules }))
}

/// Arms (or, with `None`/empty, disarms) a fault plan for the whole process.
/// Tests use this instead of setting `WHYNOT_FAULTS`; the last call wins.
pub fn configure(spec: Option<&str>) -> Result<(), String> {
    let plan = match spec {
        None => None,
        Some(spec) => parse_plan(spec)?,
    };
    let mut slot = PLAN.write().unwrap_or_else(|poisoned| poisoned.into_inner());
    ARMED_FAULTS.store(plan.is_some(), Ordering::Relaxed);
    INITIALIZED.store(true, Ordering::Relaxed);
    *slot = plan.map(Arc::new);
    Ok(())
}

/// First-use initialization from `WHYNOT_FAULTS`. Invalid env specs panic:
/// silently ignoring a typo'd fault plan would make a chaos run vacuous.
#[cold]
fn initialize_from_env() {
    let spec = std::env::var("WHYNOT_FAULTS").ok();
    let plan = match spec.as_deref() {
        None => None,
        Some(spec) => {
            parse_plan(spec).unwrap_or_else(|error| panic!("invalid WHYNOT_FAULTS spec: {error}"))
        }
    };
    let mut slot = PLAN.write().unwrap_or_else(|poisoned| poisoned.into_inner());
    // Lost the race to a concurrent configure()/initializer: keep theirs.
    if !INITIALIZED.swap(true, Ordering::Relaxed) {
        ARMED_FAULTS.store(plan.is_some(), Ordering::Relaxed);
        *slot = plan.map(Arc::new);
    }
}

/// Whether any fault plan is armed (after lazy env initialization).
#[inline]
fn armed() -> bool {
    if !INITIALIZED.load(Ordering::Relaxed) {
        initialize_from_env();
    }
    ARMED_FAULTS.load(Ordering::Relaxed)
}

/// A named fault point with no dynamic detail. Inert (two relaxed loads)
/// unless a plan is armed; panics or sleeps when a rule matches and fires.
#[inline]
pub fn fault_point(site: &str) {
    debug_assert!(SITES.contains(&site), "fault point `{site}` is missing from SITES");
    if armed() {
        hit(site, None);
    }
}

/// A named fault point whose dynamic detail (computed only when a plan is
/// armed) can be matched by a rule's `~substr` filter.
#[inline]
pub fn fault_point_dyn(site: &str, detail: impl FnOnce() -> String) {
    debug_assert!(SITES.contains(&site), "fault point `{site}` is missing from SITES");
    if armed() {
        hit(site, Some(detail()));
    }
}

/// Matches `site`/`detail` against the armed plan and executes the first
/// firing rule's action.
#[cold]
fn hit(site: &str, detail: Option<String>) {
    let plan = {
        let slot = PLAN.read().unwrap_or_else(|poisoned| poisoned.into_inner());
        slot.clone()
    };
    let Some(plan) = plan else { return };
    for rule in &plan.rules {
        if rule.site != site {
            continue;
        }
        if let Some(substr) = &rule.detail_substr {
            match &detail {
                Some(detail) if detail.contains(substr.as_str()) => {}
                _ => continue,
            }
        }
        if !rule.should_fire() {
            continue;
        }
        INJECTED.add(1);
        match rule.action {
            // A `String` payload, so the service's panic reporting can
            // surface the message verbatim in the error entry.
            FaultAction::Panic => match detail {
                Some(detail) => panic!("injected fault at site `{site}` ({detail})"),
                None => panic!("injected fault at site `{site}`"),
            },
            FaultAction::DelayMs(ms) => std::thread::sleep(Duration::from_millis(ms)),
        }
        return;
    }
}

/// Total faults injected so far (panics + delays).
pub fn injected() -> u64 {
    INJECTED.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Faults are process-global; tests that arm plans must not interleave.
    static FAULT_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        FAULT_TEST_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn disarmed_points_are_inert() {
        let _lock = locked();
        configure(None).unwrap();
        fault_point("pool_worker");
        fault_point_dyn("cache_compute", || unreachable!("detail is lazy when disarmed"));
        configure(None).unwrap();
    }

    #[test]
    fn panic_rule_fires_on_matching_site_and_detail() {
        let _lock = locked();
        configure(Some("cache_compute~faulty=panic")).unwrap();
        // Non-matching site and non-matching detail pass through.
        fault_point("pool_worker");
        fault_point_dyn("cache_compute", || "healthy".to_string());
        let result = std::panic::catch_unwind(|| {
            fault_point_dyn("cache_compute", || "catalog:faulty".to_string());
        });
        let payload = result.unwrap_err();
        let message = payload.downcast_ref::<String>().expect("string payload");
        assert!(message.contains("injected fault at site `cache_compute`"), "{message}");
        configure(None).unwrap();
    }

    #[test]
    fn delay_rule_sleeps() {
        let _lock = locked();
        configure(Some("join_build=delay20")).unwrap();
        let before = injected();
        let start = std::time::Instant::now();
        fault_point("join_build");
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert_eq!(injected(), before + 1);
        configure(None).unwrap();
    }

    #[test]
    fn probabilistic_rules_are_seeded_and_deterministic() {
        let _lock = locked();
        let sample = |spec: &str| {
            configure(Some(spec)).unwrap();
            let before = injected();
            for _ in 0..200 {
                fault_point("pool_worker");
            }
            injected() - before
        };
        let a = sample("pool_worker=delay0%4:42");
        let b = sample("pool_worker=delay0%4:42");
        assert_eq!(a, b, "same seed, same firing sequence");
        assert!(a > 10 && a < 120, "1-in-4 over 200 hits, got {a}");
        configure(None).unwrap();
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let _lock = locked();
        assert!(configure(Some("nosuchformat")).is_err());
        assert!(configure(Some("join_build=explode")).is_err());
        assert!(configure(Some("join_build=panic%0")).is_err());
        assert!(configure(Some("join_build=panic:notanumber")).is_err());
        assert!(configure(Some("=panic")).is_err());
        // A misspelt site would arm a rule that never fires.
        assert!(configure(Some("join_bild=delay1")).is_err());
        // Empty specs disarm cleanly.
        configure(Some("")).unwrap();
        configure(None).unwrap();
    }
}
