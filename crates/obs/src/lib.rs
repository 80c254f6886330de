//! # whynot-obs
//!
//! The observability substrate of the why-not engine: hierarchical timed
//! spans, monotonic counters, fixed-bucket log-scale histograms, and profile
//! reports. The crate is dependency-free (std only) and sits below
//! `whynot-exec` in the workspace graph so every layer — the pool, the
//! algebra, the tracer, the service — can hang instrumentation on it.
//!
//! ## Span model
//!
//! Profiling is scoped to the thread that asks for it: [`profile`] installs
//! a thread-local *collector* for the duration of the closure, and the
//! participants of every parallel region the thread enters get their own
//! (see below). Spans on any other thread — a concurrent request, another
//! session — are never seen. A [`span`] (or [`span_dyn`] for lazily
//! formatted names) pushes a name onto the collector's stack and, when the
//! guard drops, adds the elapsed time to the span node addressed by the
//! full stack path. Nodes aggregate **by name**: two sibling spans with the
//! same name become one node with `count == 2`, and children live in
//! ordered maps, so the shape of the resulting tree is independent of
//! arrival order. [`add`] attaches a monotonic counter to the innermost open
//! span.
//!
//! ## Merge determinism
//!
//! Parallel regions route worker-side spans through a [`ParCollect`]: each
//! participant of a `par_map` records into a fresh collector and deposits it
//! into its own slot; after the region completes the caller merges the slots
//! in participant order into the span that was open at the call site. Because
//! nodes aggregate by name and counts are sums over the whole input (which
//! chunks a participant happened to steal does not change the total), the
//! deterministic part of a [`ProfileReport`] — structure, counts, counters —
//! is **identical at every thread count**. Only wall times vary; the
//! [`ProfileReport::signature`] used by tests excludes them.
//!
//! ## Disabled cost
//!
//! Every instrumentation site is gated on one load of a thread-local flags
//! cell (profiling on, timeline recording on); when the current thread
//! neither profiles nor records, a span or counter call is that load and a
//! predictable branch. The always-on primitives ([`Counter`], [`Histogram`])
//! are reserved for *cold-path*, request-granularity metrics (pool jobs,
//! service requests) where a relaxed `fetch_add` is negligible by
//! construction.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod metrics;
pub mod report;
pub mod timeline;

pub use metrics::{Counter, Histogram, HistogramSnapshot, SamplePoint, TimeSeries};
pub use report::{ProfileReport, SpanReport};
pub use timeline::{Timeline, TimelineEvent, TimelinePhase};

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Bit of [`FLAGS`] set while this thread profiles into a collector.
const PROFILING: u8 = 1;
/// Bit of [`FLAGS`] set while this thread records timeline events.
const RECORDING: u8 = 2;

thread_local! {
    /// This thread's capture switches, a bitset of [`PROFILING`] and
    /// [`RECORDING`]. Span sites gate on one load of this cell.
    static FLAGS: Cell<u8> = const { Cell::new(0) };
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

#[inline]
fn flags() -> u8 {
    FLAGS.with(Cell::get)
}

fn set_flag(bit: u8, on: bool) {
    FLAGS.with(|flags| flags.set(if on { flags.get() | bit } else { flags.get() & !bit }));
}

/// Installs `collector` as this thread's collector and returns the previous
/// one; the [`PROFILING`] flag follows whether a collector is installed.
fn swap_collector(collector: Option<Collector>) -> Option<Collector> {
    set_flag(PROFILING, collector.is_some());
    COLLECTOR.with(|c| std::mem::replace(&mut *c.borrow_mut(), collector))
}

/// Whether the current thread is profiling: inside a [`profile`] session, or
/// a participant of a parallel region entered from one.
///
/// This is the single thread-local load that every instrumentation site pays
/// on the disabled path.
#[inline]
pub fn enabled() -> bool {
    flags() & PROFILING != 0
}

/// Nanoseconds elapsed since a process-wide monotonic origin (established on
/// first use). Timeline events and metric samples share this clock, so a
/// recorded timeline and the metric time series align on one axis.
pub fn monotonic_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One span node: aggregate time and count for a name at a position in the
/// tree, plus attached counters and children keyed (and therefore ordered)
/// by name.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SpanData {
    /// Number of completed spans aggregated into this node.
    pub count: u64,
    /// Total wall time of those spans, in nanoseconds.
    pub total_ns: u64,
    /// Monotonic counters attached to this span via [`add`].
    pub counters: BTreeMap<String, u64>,
    /// Child spans, ordered by name.
    pub children: BTreeMap<String, SpanData>,
}

impl SpanData {
    /// Merges `other` into `self`: counts and times add, counters add,
    /// children merge recursively by name.
    pub fn merge(&mut self, other: SpanData) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        for (name, value) in other.counters {
            *self.counters.entry(name).or_insert(0) += value;
        }
        for (name, child) in other.children {
            self.children.entry(name).or_default().merge(child);
        }
    }
}

/// Thread-local span collector: a root node plus the stack of open span
/// names addressing the "current" node.
#[derive(Debug, Default)]
struct Collector {
    root: SpanData,
    path: Vec<String>,
}

impl Collector {
    /// The node addressed by the current open-span path (created on demand).
    fn current_node(&mut self) -> &mut SpanData {
        let mut node = &mut self.root;
        for name in &self.path {
            node = node.children.entry(name.clone()).or_default();
        }
        node
    }
}

/// Runs `f` under a profiling session and returns its result together with
/// the [`ProfileReport`] collected on this thread (including spans merged
/// back from parallel regions entered by `f`).
///
/// Sessions nest and may run concurrently on several threads. Each session
/// only observes spans recorded on its own thread and by the participants of
/// the parallel regions it enters (they hand their collectors back to it).
pub fn profile<R>(f: impl FnOnce() -> R) -> (R, ProfileReport) {
    let previous = swap_collector(Some(Collector::default()));
    let start = Instant::now();
    let result = f();
    let wall_ns = start.elapsed().as_nanos() as u64;
    let collector = swap_collector(previous).map(|c| c.root).unwrap_or_default();
    (result, ProfileReport::from_root(collector, wall_ns))
}

/// An open span; completes (records elapsed time, emits the timeline end
/// event) on drop.
///
/// Obtained from [`span`] / [`span_dyn`]. When neither profiling nor timeline
/// recording is active the guard is inert and costs nothing beyond its
/// construction check.
#[derive(Debug)]
pub struct Span {
    start: Option<Instant>,
    /// Name of the matching begin event when a timeline session saw the open.
    timeline: Option<String>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let elapsed = start.elapsed().as_nanos() as u64;
            COLLECTOR.with(|c| {
                if let Some(collector) = c.borrow_mut().as_mut() {
                    let node = collector.current_node();
                    node.count += 1;
                    node.total_ns += elapsed;
                    collector.path.pop();
                }
            });
        }
        if let Some(name) = self.timeline.take() {
            timeline::record_event(name, TimelinePhase::End);
        }
    }
}

fn open_span(name: String, flags: u8) -> Span {
    let profiled = flags & PROFILING != 0
        && COLLECTOR.with(|c| {
            if let Some(collector) = c.borrow_mut().as_mut() {
                collector.path.push(name.clone());
                true
            } else {
                false
            }
        });
    let timeline = (flags & RECORDING != 0).then(|| {
        timeline::record_event(name.clone(), TimelinePhase::Begin);
        name
    });
    Span { start: profiled.then(Instant::now), timeline }
}

/// Opens a span with a static name under the innermost open span.
#[inline]
pub fn span(name: &'static str) -> Span {
    let flags = flags();
    if flags == 0 {
        return Span { start: None, timeline: None };
    }
    open_span(name.to_string(), flags)
}

/// Opens a span whose name is built lazily — the closure only runs when this
/// thread is profiling or recording, so formatting costs nothing on the
/// disabled path.
#[inline]
pub fn span_dyn(name: impl FnOnce() -> String) -> Span {
    let flags = flags();
    if flags == 0 {
        return Span { start: None, timeline: None };
    }
    open_span(name(), flags)
}

/// Adds `value` to the named counter on the innermost open span (or the
/// session root when no span is open). No-op when profiling is disabled.
#[inline]
pub fn add(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        if let Some(collector) = c.borrow_mut().as_mut() {
            *collector.current_node().counters.entry(name.to_string()).or_insert(0) += value;
        }
    });
}

/// Carries the calling thread's capture into the participants of one
/// parallel region: spans recorded by the participants are merged back, in
/// participant order, into the span that was open when the region started,
/// and their timeline events go to the caller's [`timeline::record`]
/// session.
///
/// Used by `whynot_exec::par_map`: the caller creates the collector before
/// fanning out, each participant wraps its work in [`ParCollect::participant`],
/// and the caller calls [`ParCollect::merge_into_current`] once the region
/// has completed.
#[derive(Debug)]
pub struct ParCollect {
    /// One slot per participant while the caller profiles, else empty.
    slots: Vec<Mutex<Option<SpanData>>>,
    /// The caller's timeline session, while it records.
    sink: Option<Arc<timeline::Sink>>,
}

impl ParCollect {
    /// A collector with one slot per participant, or `None` when the calling
    /// thread neither profiles nor records (the region then runs without any
    /// collection overhead).
    pub fn new(participants: usize) -> Option<ParCollect> {
        let flags = flags();
        if flags == 0 || participants == 0 {
            return None;
        }
        let slots = if flags & PROFILING != 0 { participants } else { 0 };
        Some(ParCollect {
            slots: (0..slots).map(|_| Mutex::new(None)).collect(),
            sink: timeline::current_sink(),
        })
    }

    /// Installs the caller's capture on the current thread for participant
    /// `index`: a fresh collector whose spans are deposited into that
    /// participant's slot when the guard drops, and the caller's timeline
    /// session. The thread's previous state is restored on drop.
    pub fn participant(&self, index: usize) -> Participant<'_> {
        let slot = (!self.slots.is_empty()).then(|| &self.slots[index % self.slots.len()]);
        Participant {
            slot,
            previous_collector: swap_collector(slot.map(|_| Collector::default())),
            previous_recorder: timeline::swap_recorder(
                self.sink.clone().map(timeline::Recorder::join),
            ),
        }
    }

    /// Merges all participant slots, in participant order, into the span
    /// currently open on this thread.
    pub fn merge_into_current(self) {
        COLLECTOR.with(|c| {
            if let Some(collector) = c.borrow_mut().as_mut() {
                let node = collector.current_node();
                for slot in self.slots {
                    if let Some(data) = slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
                        node.merge(data);
                    }
                }
            }
        });
    }
}

/// Scope guard for one participant of a [`ParCollect`] region.
#[derive(Debug)]
pub struct Participant<'a> {
    slot: Option<&'a Mutex<Option<SpanData>>>,
    previous_collector: Option<Collector>,
    previous_recorder: Option<timeline::Recorder>,
}

impl Drop for Participant<'_> {
    fn drop(&mut self) {
        timeline::swap_recorder(self.previous_recorder.take());
        let recorded = swap_collector(self.previous_collector.take());
        if let (Some(collector), Some(slot)) = (recorded, self.slot) {
            let mut slot = slot.lock().unwrap_or_else(|e| e.into_inner());
            match slot.as_mut() {
                Some(existing) => existing.merge(collector.root),
                None => *slot = Some(collector.root),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sites_are_inert() {
        // No session on this thread: spans and counters must not record.
        let (_, report) = profile(|| ());
        assert_eq!(report.root.children.len(), 0);
        {
            let _s = span("outside");
            add("outside_counter", 1);
        }
        let (_, report) = profile(|| ());
        assert_eq!(report.root.children.len(), 0);
        assert!(report.root.counters.is_empty());
    }

    #[test]
    fn spans_nest_and_aggregate_by_name() {
        let (_, report) = profile(|| {
            for _ in 0..3 {
                let _outer = span("outer");
                add("rows", 10);
                let _inner = span("inner");
            }
            let _other = span("other");
        });
        assert_eq!(report.root.children.len(), 2);
        let outer = &report.root.children[0];
        assert_eq!(outer.name, "other");
        let outer = &report.root.children[1];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.count, 3);
        assert_eq!(outer.counters, vec![("rows".to_string(), 30)]);
        assert_eq!(outer.children.len(), 1);
        assert_eq!(outer.children[0].name, "inner");
        assert_eq!(outer.children[0].count, 3);
    }

    #[test]
    fn par_collect_merges_under_the_open_span() {
        let (_, report) = profile(|| {
            let _region = span("region");
            let collect = ParCollect::new(2).expect("profiling enabled");
            // Simulate two participants on the same thread, out of order.
            {
                let _p = collect.participant(1);
                let _s = span("chunk");
                add("items", 4);
            }
            {
                let _p = collect.participant(0);
                let _s = span("chunk");
                add("items", 6);
            }
            collect.merge_into_current();
        });
        let region = &report.root.children[0];
        assert_eq!(region.name, "region");
        assert_eq!(region.children.len(), 1);
        let chunk = &region.children[0];
        assert_eq!(chunk.name, "chunk");
        assert_eq!(chunk.count, 2);
        assert_eq!(chunk.counters, vec![("items".to_string(), 10)]);
    }

    #[test]
    fn signature_ignores_wall_times() {
        let run = || {
            profile(|| {
                let _a = span("a");
                add("n", 2);
            })
            .1
        };
        let first = run();
        let second = run();
        // Wall times differ between runs, the signature must not.
        assert_eq!(first.signature(), second.signature());
        assert!(first.signature().contains("a ×1"));
        assert!(first.signature().contains("n=2"));
    }

    #[test]
    fn nested_sessions_keep_the_flag_set() {
        let ((), outer) = profile(|| {
            let _s = span("outer_only");
            let ((), inner) = profile(|| {
                let _s = span("inner_only");
            });
            assert_eq!(inner.root.children[0].name, "inner_only");
            assert!(enabled());
        });
        assert_eq!(outer.root.children.len(), 1);
        assert_eq!(outer.root.children[0].name, "outer_only");
    }
}
