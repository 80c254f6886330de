//! Determinism and safety properties of the ordered batch fan-out.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use whynot_exec::{par_map, with_threads};

/// A tiny deterministic generator for the property loops (decoupled from
/// `whynot-rng` so the exec crate stays dependency-free end to end).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn par_map_matches_serial_map_for_all_thread_counts() {
    let mut seed = 0xC0FFEE;
    for round in 0..20 {
        let len = (splitmix(&mut seed) % 500) as usize + round;
        let items: Vec<u64> = (0..len).map(|_| splitmix(&mut seed)).collect();
        let expected: Vec<u64> =
            items.iter().map(|x| x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 7).collect();
        for threads in [1, 2, 3, 8] {
            let got = with_threads(threads, || {
                par_map(&items, |x| x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 7)
            });
            assert_eq!(got, expected, "threads={threads} len={len}");
        }
    }
}

#[test]
fn par_map_preserves_input_order_under_skewed_workloads() {
    // Items with wildly different costs finish out of claim order: most are
    // cheap, a few random ones spin. Results must still come back in input
    // order.
    let mut seed = 0xBADB0;
    let costs: Vec<u64> = (0..333).map(|_| splitmix(&mut seed) % 2_000).collect();
    let items: Vec<(usize, u64)> = costs.iter().copied().enumerate().collect();
    for threads in [2, 8] {
        let got = with_threads(threads, || {
            par_map(&items, |&(i, cost)| {
                let mut acc = 0u64;
                for k in 0..cost {
                    acc = acc.wrapping_add(std::hint::black_box(k));
                }
                std::hint::black_box(acc);
                (i, cost)
            })
        });
        assert_eq!(got, items, "threads={threads}");
    }
}

#[test]
fn empty_and_singleton_inputs() {
    let empty: Vec<i32> = Vec::new();
    assert_eq!(with_threads(8, || par_map(&empty, |x| x * 2)), Vec::<i32>::new());
    assert_eq!(with_threads(8, || par_map(&[21], |x| x * 2)), vec![42]);
}

#[test]
fn worker_panics_propagate_to_the_caller() {
    let items: Vec<usize> = (0..200).collect();
    for threads in [1, 4] {
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_threads(threads, || {
                par_map(&items, |&i| {
                    if i == 137 {
                        panic!("exec-test-panic at {i}");
                    }
                    i
                })
            })
        }));
        let payload = result.expect_err("panic must propagate");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("exec-test-panic at 137"),
            "threads={threads}"
        );
        // A non-string payload comes back as itself, not as a generic
        // "a scoped thread panicked".
        let typed = catch_unwind(AssertUnwindSafe(|| {
            with_threads(threads, || {
                par_map(&items, |&i| if i == 99 { std::panic::panic_any(i) } else { i })
            })
        }));
        assert_eq!(typed.expect_err("panic must propagate").downcast_ref::<usize>(), Some(&99));
    }
}

#[test]
fn every_item_is_mapped_exactly_once() {
    let items: Vec<usize> = (0..1_000).collect();
    let calls = AtomicUsize::new(0);
    let got = with_threads(8, || {
        par_map(&items, |&i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        })
    });
    assert_eq!(calls.load(Ordering::Relaxed), items.len());
    assert_eq!(got, items);
}

#[test]
fn concurrent_top_level_calls_from_independent_threads() {
    // Several OS threads fan out at once; each must observe its own correct,
    // ordered result.
    let handles: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let items: Vec<u64> = (0..400).map(|i| i + t * 1_000).collect();
                let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
                for _ in 0..10 {
                    let got = with_threads(4, || par_map(&items, |x| x * 3 + 1));
                    assert_eq!(got, expected);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("thread panicked");
    }
}
