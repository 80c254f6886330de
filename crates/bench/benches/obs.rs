//! Instrumentation-overhead microbenches: the `whynot-obs` disabled path on
//! the `value_layer` lineitem and `join` hash workloads, the profiled twins,
//! and the deterministic trace-size / span-breakdown figures.

fn main() {
    whynot_bench::obs_group();
}
