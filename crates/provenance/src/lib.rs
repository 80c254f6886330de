//! # nrab-provenance
//!
//! Annotated data tracing for NRAB plans under *schema alternatives* — the
//! implementation of Step 3 (Section 5.3) of the paper's heuristic algorithm.
//!
//! The tracer evaluates a plan in a *generalized* form that keeps data a
//! reparameterized operator could produce (selections keep all tuples, inner
//! flattens become outer flattens, joins become full outer joins) and, for
//! every intermediate tuple and every schema alternative, records the
//! annotations of Section 5.3:
//!
//! * `id` — a fresh identifier per traced tuple, linked to the identifiers of
//!   the input tuples it was derived from (lineage),
//! * `valid` — whether the tuple exists under the schema alternative (it has
//!   a [`Variant`] there),
//! * `retained` — whether the operator would keep/produce the tuple under its
//!   *original* parameters (stored in the variant),
//! * `consistent` — whether the tuple (re-validated!) can still contribute to
//!   the missing answer, checked against the schema alternative's pushed-down
//!   NIP for this point of the plan; it depends on the why-not question, so
//!   [`annotate_consistency`] computes it beside the shared trace.
//!
//! The explanation engine (`whynot-core`) reads these annotations in its
//! `approximateMSRs` step (Algorithm 4).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alternative;
pub mod annotate;
pub mod trace;

pub use alternative::{OpSubstitution, SchemaAlternative};
pub use annotate::{
    AnnotatedOp, AnnotatedTuple, FlagRow, FlagRows, GeneralizedTrace, Lineage, OpFlags, OpTrace,
    SaFlags, TraceResult, TracedTuple, Variant,
};
pub use trace::{annotate_consistency, trace_plan, trace_plan_generalized};

/// A stable textual signature of the substitution sets of a slice of schema
/// alternatives, in order. Questions whose alternatives share this signature
/// (over the same plan and database) can share one generalized trace. Each
/// per-alternative signature is length-prefixed so the concatenation stays
/// injective regardless of the characters appearing in attribute paths.
pub fn substitution_signature(sas: &[SchemaAlternative]) -> String {
    sas.iter()
        .map(|sa| {
            let signature = sa.substitution_signature();
            format!("{}~{signature}", signature.len())
        })
        .collect()
}
