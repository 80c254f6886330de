//! Ordered parallel mapping over slices and index ranges.
//!
//! [`par_map`], [`par_map_indexed`], and [`par_map_range`] split the input
//! into contiguous chunks, distribute the chunks over the global pool with
//! work stealing, and reassemble the results **in input order** — the output
//! is bit-identical to the serial `items.iter().map(f).collect()` for any
//! thread count and any scheduling, which is the determinism contract every
//! caller in the workspace relies on.
//!
//! Scheduling: the index range is divided into one *span* per participant;
//! each participant claims fixed-size chunks from its own span first (good
//! locality, no contention) and, once its span is drained, steals chunks
//! from the other spans. Chunk claims are single `fetch_add`s; results are
//! collected per chunk and stitched together at the end, so the hot loop
//! takes no locks.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::pool::Pool;

/// Applies `f` to every element and returns the results in input order.
///
/// Runs on the global pool when the effective thread count (see
/// [`crate::effective_threads`]) is greater than one and there is more than
/// one item; otherwise it is a plain serial loop with zero synchronization
/// overhead. A panic in `f` aborts outstanding chunks and is re-raised on
/// the calling thread with the original payload.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    par_map_len(items.len(), |i| f(&items[i]))
}

/// Like [`par_map`], but `f` also receives the element's index.
pub fn par_map_indexed<T: Sync, R: Send>(items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
    par_map_len(items.len(), |i| f(i, &items[i]))
}

/// Applies `f` to every index of `range` and returns the results in range
/// order — [`par_map`] over an index range, without materializing an index
/// slice first.
pub fn par_map_range<R: Send>(range: Range<usize>, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let start = range.start;
    par_map_len(range.len(), |i| f(start + i))
}

/// The shared core: produces `produce(0), ..., produce(len - 1)` in order.
fn par_map_len<R: Send>(len: usize, produce: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let threads = crate::effective_threads().min(len);
    if threads <= 1 {
        return (0..len).map(produce).collect();
    }

    // One span of contiguous indices per participant; ~4 chunks per span so
    // stealing has granularity without drowning in claim traffic.
    let spans: Vec<Span> = split_spans(len, threads);
    let chunk = (len / (threads * 4)).max(1);
    let segments: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::new());
    let panic_slot: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let abort = AtomicBool::new(false);
    let next_participant = AtomicUsize::new(0);
    crate::stats::PAR_REGIONS.add(1);
    // The calling thread's capture and guard, installed in every participant
    // (pool workers included). Profiled spans go to one slot per participant,
    // merged back in participant order into the span open at this call site,
    // so the span tree is independent of which participant stole which
    // chunk; the guard's budgets and deadline span the fan-out.
    let collect = whynot_obs::ParCollect::new(threads);
    let guard = whynot_guard::current();

    let run = || {
        let home = next_participant.fetch_add(1, Ordering::Relaxed) % spans.len();
        let _observer = collect.as_ref().map(|c| c.participant(home));
        let _guard = guard.as_ref().map(whynot_guard::arm);
        // Chunk counters accumulate locally and flush once per participant.
        let mut claimed_chunks = 0u64;
        let mut stolen_chunks = 0u64;
        let flush = |claimed: u64, stolen: u64| {
            crate::stats::CHUNKS_CLAIMED.add(claimed);
            crate::stats::CHUNKS_STOLEN.add(stolen);
        };
        for offset in 0..spans.len() {
            let span = &spans[(home + offset) % spans.len()];
            loop {
                if abort.load(Ordering::Relaxed) {
                    flush(claimed_chunks, stolen_chunks);
                    return;
                }
                let claimed = span.next.fetch_add(chunk, Ordering::Relaxed);
                if claimed >= span.len {
                    break;
                }
                claimed_chunks += 1;
                stolen_chunks += u64::from(offset > 0);
                let start = span.offset + claimed;
                let end = span.offset + (claimed + chunk).min(span.len);
                let produced = catch_unwind(AssertUnwindSafe(|| {
                    (start..end).map(&produce).collect::<Vec<R>>()
                }));
                match produced {
                    Ok(segment) => {
                        segments.lock().expect("par_map segments poisoned").push((start, segment));
                    }
                    Err(panic) => {
                        abort.store(true, Ordering::Relaxed);
                        panic_slot
                            .lock()
                            .expect("par_map panic slot poisoned")
                            .get_or_insert(panic);
                        flush(claimed_chunks, stolen_chunks);
                        return;
                    }
                }
            }
        }
        flush(claimed_chunks, stolen_chunks);
    };
    Pool::global().run_scoped(threads - 1, &run);
    if let Some(collect) = collect {
        collect.merge_into_current();
    }

    if let Some(panic) = panic_slot.into_inner().expect("par_map panic slot poisoned") {
        resume_unwind(panic);
    }
    let mut segments = segments.into_inner().expect("par_map segments poisoned");
    segments.sort_unstable_by_key(|(start, _)| *start);
    let mut out = Vec::with_capacity(len);
    for (_, segment) in segments {
        out.extend(segment);
    }
    debug_assert_eq!(out.len(), len);
    out
}

struct Span {
    offset: usize,
    len: usize,
    next: AtomicUsize,
}

/// Splits `len` indices into `parts` near-equal contiguous spans.
fn split_spans(len: usize, parts: usize) -> Vec<Span> {
    let base = len / parts;
    let extra = len % parts;
    let mut spans = Vec::with_capacity(parts);
    let mut offset = 0;
    for p in 0..parts {
        let span_len = base + usize::from(p < extra);
        spans.push(Span { offset, len: span_len, next: AtomicUsize::new(0) });
        offset += span_len;
    }
    spans
}
