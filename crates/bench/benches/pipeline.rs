//! `pipeline` microbenchmarks: the tracer's fused replay vs. its
//! operator-at-a-time replay on the whole-plan DBLP D4 generalized trace
//! (with a built-in byte-identity assertion between the two paths).

fn main() {
    whynot_bench::pipeline_group();
}
