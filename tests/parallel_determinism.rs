//! The determinism contract of the parallel execution subsystem, end to end:
//! for every case of the shared harness and every thread count, the query
//! answer, the generalized trace, and the rendered wire report must be
//! **bit-identical** to the serial run. This is the property that makes
//! `WHYNOT_THREADS` a pure performance knob.

mod harness;

use harness::{Aspect, Cases, Config, Suite, REFERENCE};
use nested_datagen::{
    dblp_database, tpch_nested_database, twitter_database, DblpConfig, TpchConfig, TwitterConfig,
};
use whynot_exec::with_threads;

static THREADS: Suite =
    Suite::new(|| [2, 8].map(|threads| Config { threads, ..REFERENCE }).to_vec());

#[test]
fn engine_answers_are_identical_across_thread_counts() {
    THREADS.assert_clean(Aspect::Answer, Cases::All);
}

#[test]
fn generalized_traces_are_bit_identical_across_thread_counts() {
    THREADS.assert_clean(Aspect::Trace, Cases::All);
}

#[test]
fn service_reports_are_byte_identical_across_thread_counts() {
    THREADS.assert_clean(Aspect::Report, Cases::All);
}

#[test]
fn parallel_data_generation_is_bit_identical_to_serial() {
    let generate = |threads: usize| {
        with_threads(threads, || {
            (
                dblp_database(DblpConfig { scale: 120, seed: 7 }),
                twitter_database(TwitterConfig { scale: 120, seed: 11 }),
                tpch_nested_database(TpchConfig { customers: 40, seed: 42 }),
            )
        })
    };
    let serial = generate(1);
    for threads in [2, 8] {
        let parallel = generate(threads);
        let relations = [
            (&parallel.0, &serial.0, "proceedings"),
            (&parallel.0, &serial.0, "inproceedings"),
            (&parallel.0, &serial.0, "authored"),
            (&parallel.0, &serial.0, "records"),
            (&parallel.0, &serial.0, "homepages"),
            (&parallel.1, &serial.1, "tweets"),
            (&parallel.2, &serial.2, "customer"),
            (&parallel.2, &serial.2, "nestedOrders"),
            (&parallel.2, &serial.2, "nation"),
        ];
        for (got, want, relation) in relations {
            assert_eq!(
                got.relation(relation).unwrap(),
                want.relation(relation).unwrap(),
                "{relation} differs at {threads} thread(s)"
            );
        }
    }
}
