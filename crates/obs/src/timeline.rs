//! Opt-in begin/end timeline recording — the "what ran when, on which
//! thread" view that complements the aggregated span trees of
//! [`ProfileReport`](crate::ProfileReport).
//!
//! A [`record`] session belongs to the thread that entered it. While it
//! runs, every [`span`](crate::span) open/close on that thread appends a
//! [`TimelineEvent`] to the session's sink, and so do the participants of
//! every `whynot_exec::par_map` region the thread fans out to (the region's
//! [`ParCollect`](crate::ParCollect) carries the sink handle). Spans on any
//! other thread — a concurrent request, another session — never reach it.
//! When the session ends the events are sorted into a single [`Timeline`] by
//! timestamp, with per-thread event order preserved — the shape the service
//! exports as Chrome trace-event JSON.
//!
//! Recording is wall-clock based and therefore not byte-deterministic; what
//! *is* deterministic is the multiset of event names and the begin/end
//! balance per thread, which is what the tests pin.

use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use crate::{monotonic_ns, set_flag, RECORDING};

/// Whether an event marks the open or the close of a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimelinePhase {
    /// The span opened.
    Begin,
    /// The span closed.
    End,
}

/// One begin/end mark on the timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Dense per-session thread index: 0 is the recording thread, the
    /// region participants follow in the order they joined.
    pub thread: u64,
    /// The span name.
    pub name: String,
    /// Begin or end.
    pub phase: TimelinePhase,
    /// Timestamp on the shared [`monotonic_ns`] clock.
    pub at_ns: u64,
}

/// All events of one [`record`] session, sorted by `at_ns` (stable, so
/// per-thread order is preserved on ties).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    /// The recorded events.
    pub events: Vec<TimelineEvent>,
}

impl Timeline {
    /// Events grouped per thread, in recording order, keyed by thread id.
    pub fn per_thread(&self) -> Vec<(u64, Vec<&TimelineEvent>)> {
        let mut threads: Vec<u64> = self.events.iter().map(|e| e.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        threads
            .into_iter()
            .map(|t| (t, self.events.iter().filter(|e| e.thread == t).collect()))
            .collect()
    }

    /// Checks that every thread's events form a properly nested sequence of
    /// begin/end pairs with matching names; returns the offending event on
    /// failure — an unmatched end, or else the innermost begin a thread
    /// left open.
    pub fn check_balanced(&self) -> Result<(), &TimelineEvent> {
        for (_, events) in self.per_thread() {
            let mut open: Vec<&TimelineEvent> = Vec::new();
            for event in events {
                match event.phase {
                    TimelinePhase::Begin => open.push(event),
                    TimelinePhase::End => {
                        if open.pop().map(|begin| begin.name.as_str()) != Some(&event.name) {
                            return Err(event);
                        }
                    }
                }
            }
            if let Some(begin) = open.pop() {
                return Err(begin);
            }
        }
        Ok(())
    }
}

/// One session's event store, shared by the recording thread and the
/// participants of the parallel regions it enters.
#[derive(Debug, Default)]
pub(crate) struct Sink {
    /// The threads that joined, in join order; a thread's index is its id.
    threads: Mutex<Vec<ThreadId>>,
    events: Mutex<Vec<TimelineEvent>>,
}

/// A thread's handle on a session: the sink plus the thread's index in it.
#[derive(Debug)]
pub(crate) struct Recorder {
    sink: Arc<Sink>,
    thread: u64,
}

impl Recorder {
    /// Joins the current thread to `sink`.
    pub(crate) fn join(sink: Arc<Sink>) -> Recorder {
        let me = std::thread::current().id();
        let mut threads = lock(&sink.threads);
        let thread = threads.iter().position(|t| *t == me).unwrap_or_else(|| {
            threads.push(me);
            threads.len() - 1
        }) as u64;
        drop(threads);
        Recorder { sink, thread }
    }
}

thread_local! {
    /// The session this thread records into, if any.
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Installs `recorder` on this thread and returns the previous one; the
/// recording flag follows whether a recorder is installed.
pub(crate) fn swap_recorder(recorder: Option<Recorder>) -> Option<Recorder> {
    set_flag(RECORDING, recorder.is_some());
    RECORDER.with(|r| std::mem::replace(&mut *r.borrow_mut(), recorder))
}

/// The sink of the session this thread records into, if any.
pub(crate) fn current_sink() -> Option<Arc<Sink>> {
    RECORDER.with(|r| r.borrow().as_ref().map(|r| Arc::clone(&r.sink)))
}

/// Appends one event to this thread's session. Called from span open/close
/// only while this thread records.
pub(crate) fn record_event(name: String, phase: TimelinePhase) {
    let at_ns = monotonic_ns();
    RECORDER.with(|r| {
        if let Some(recorder) = r.borrow().as_ref() {
            let event = TimelineEvent { thread: recorder.thread, name, phase, at_ns };
            lock(&recorder.sink.events).push(event);
        }
    });
}

/// Runs `f` with timeline recording active on this thread (and the parallel
/// regions it enters) and returns its result together with the recorded
/// [`Timeline`].
///
/// Sessions on different threads are independent, each sees only its own
/// spans. A nested session on the same thread takes over until it ends; its
/// events are not also reported to the outer one. The recording sites are
/// the existing [`span`](crate::span) instrumentation — no extra annotation
/// is needed.
pub fn record<R>(f: impl FnOnce() -> R) -> (R, Timeline) {
    let sink = Arc::new(Sink::default());
    let previous = swap_recorder(Some(Recorder::join(Arc::clone(&sink))));
    let result = f();
    swap_recorder(previous);
    // Each thread pushes in program order with non-decreasing timestamps, so
    // a stable sort keeps per-thread order.
    let mut events = std::mem::take(&mut *lock(&sink.events));
    events.sort_by_key(|e| e.at_ns);
    (result, Timeline { events })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;

    fn event(thread: u64, name: &str, phase: TimelinePhase, at_ns: u64) -> TimelineEvent {
        TimelineEvent { thread, name: name.into(), phase, at_ns }
    }

    #[test]
    fn records_balanced_begin_end_pairs() {
        let ((), timeline) = record(|| {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            let _sibling = span("sibling");
        });
        assert_eq!(timeline.events.len(), 6);
        let names: Vec<(&str, TimelinePhase)> =
            timeline.events.iter().map(|e| (e.name.as_str(), e.phase)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", TimelinePhase::Begin),
                ("inner", TimelinePhase::Begin),
                ("inner", TimelinePhase::End),
                ("sibling", TimelinePhase::Begin),
                ("sibling", TimelinePhase::End),
                ("outer", TimelinePhase::End),
            ]
        );
        assert!(timeline.check_balanced().is_ok());
    }

    #[test]
    fn disabled_path_records_nothing() {
        {
            let _s = span("outside_any_session");
        }
        let ((), timeline) = record(|| ());
        assert!(timeline.events.is_empty());
    }

    #[test]
    fn check_balanced_flags_mismatched_pairs() {
        let timeline = Timeline {
            events: vec![
                event(0, "a", TimelinePhase::Begin, 1),
                event(0, "b", TimelinePhase::End, 2),
            ],
        };
        let offending = timeline.check_balanced().expect_err("mismatch expected");
        assert_eq!(offending.name, "b");
    }

    #[test]
    fn check_balanced_reports_the_begin_left_open() {
        // Thread 1 closes its `a` first; thread 0 closes one `a`, then opens
        // a second one and never closes it.
        let timeline = Timeline {
            events: vec![
                event(1, "a", TimelinePhase::Begin, 1),
                event(0, "a", TimelinePhase::Begin, 2),
                event(1, "a", TimelinePhase::End, 3),
                event(0, "a", TimelinePhase::End, 4),
                event(0, "a", TimelinePhase::Begin, 5),
            ],
        };
        let offending = timeline.check_balanced().expect_err("unclosed span expected");
        assert_eq!(offending, &event(0, "a", TimelinePhase::Begin, 5));
    }

    #[test]
    fn worker_threads_join_the_timeline() {
        // `par_map` carries the session into its participants through a
        // `ParCollect`; a bare spawned thread does not join.
        let ((), timeline) = record(|| {
            let collect = crate::ParCollect::new(2).expect("recording");
            std::thread::scope(|scope| {
                for i in 0..2 {
                    let collect = &collect;
                    scope.spawn(move || {
                        let _p = collect.participant(i);
                        let _s = crate::span_dyn(|| format!("worker_{i}"));
                    });
                }
                scope.spawn(|| {
                    let _s = span("not_a_participant");
                });
            });
            collect.merge_into_current();
        });
        assert!(timeline.check_balanced().is_ok());
        let mut names: Vec<&str> = timeline
            .events
            .iter()
            .filter(|e| e.phase == TimelinePhase::Begin)
            .map(|e| e.name.as_str())
            .collect();
        names.sort_unstable();
        assert_eq!(names, vec!["worker_0", "worker_1"]);
        // The two workers are distinct threads, neither the recording one.
        let workers: std::collections::BTreeSet<u64> = timeline
            .events
            .iter()
            .filter(|e| e.name.starts_with("worker_"))
            .map(|e| e.thread)
            .collect();
        assert_eq!(workers.len(), 2);
        assert!(!workers.contains(&0));
    }

    #[test]
    fn concurrent_sessions_each_return_their_own_events() {
        let barrier = std::sync::Barrier::new(2);
        let timelines: Vec<Timeline> = std::thread::scope(|scope| {
            let handles: Vec<_> = ["left", "right"]
                .into_iter()
                .map(|name| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        record(|| {
                            // Both sessions are open before either records.
                            barrier.wait();
                            for _ in 0..3 {
                                let _s = span(name);
                            }
                            barrier.wait();
                        })
                        .1
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("session thread")).collect()
        });
        for (timeline, name) in timelines.iter().zip(["left", "right"]) {
            assert!(timeline.check_balanced().is_ok());
            assert_eq!(timeline.events.len(), 6, "{name}: {timeline:?}");
            assert!(timeline.events.iter().all(|e| e.name == name && e.thread == 0));
        }
    }
}
