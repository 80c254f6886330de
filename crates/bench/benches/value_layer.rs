//! `value_layer` microbenchmarks: bag construction, symbol lookups, O(1)
//! clones, the full DBLP generalized trace, and the wide flat TPC-H scan and
//! trace.

fn main() {
    whynot_bench::value_layer_group();
}
