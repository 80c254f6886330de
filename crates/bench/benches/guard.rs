//! Resource-governance overhead microbenches: the `whynot-guard` unguarded
//! path on the `value_layer` lineitem and `join` hash workloads, the guarded
//! twins, and the deterministic per-workload check-count figures.

fn main() {
    whynot_bench::guard_group();
}
