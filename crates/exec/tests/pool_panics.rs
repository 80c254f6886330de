//! Fan-out survival under injected helper deaths: the `pool_worker` fault
//! site fires at the start of every spawned helper, and a helper that dies
//! there claims nothing, so the caller and the surviving helpers must still
//! map every item, in order.

use whynot_exec::{par_map, with_threads};

/// A mapped item heavy enough that helpers claim a share of the work.
fn weigh(x: u64) -> u64 {
    let mut acc = x;
    for k in 0..5_000u64 {
        acc = acc.wrapping_add(std::hint::black_box(k ^ acc));
    }
    std::hint::black_box(acc);
    x * 7 + 1
}

#[test]
fn pool_survives_injected_worker_panics() {
    let items: Vec<u64> = (0..300).collect();
    let expected: Vec<u64> = items.iter().map(|&x| x * 7 + 1).collect();

    // Every second helper dies before it claims an item.
    whynot_guard::faults::configure(Some("pool_worker=panic%2:42")).unwrap();
    let injected_before = whynot_guard::faults::injected();
    for round in 0..20 {
        let got = with_threads(4, || par_map(&items, |&x| weigh(x)));
        assert_eq!(got, expected, "round {round}");
    }
    let injected = whynot_guard::faults::injected() - injected_before;
    whynot_guard::faults::configure(None).unwrap();
    assert!(injected > 0, "the fault plan never fired — the stress was a no-op");

    // Every helper dead: the caller maps everything alone.
    whynot_guard::faults::configure(Some("pool_worker=panic")).unwrap();
    let got = with_threads(4, || par_map(&items, |&x| weigh(x)));
    whynot_guard::faults::configure(None).unwrap();
    assert_eq!(got, expected);
}
