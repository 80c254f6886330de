//! # whynot-core
//!
//! The paper's primary contribution: **query-based why-not explanations over
//! nested data**, computed by the heuristic algorithm of Section 5 and — for
//! small inputs — by an exact reparameterization enumerator matching the
//! formalization of Section 4.
//!
//! The heuristic pipeline ([`WhyNotEngine`]) follows Algorithm 1:
//!
//! 1. [`backtrace`] — schema backtracing (Section 5.1): rewrite the why-not
//!    NIP into per-operator consistency NIPs and per-input-relation NIPs, and
//!    collect the source attributes referenced by the query.
//! 2. [`alternatives`] — schema alternatives (Section 5.2): enumerate and
//!    prune attribute substitutions that preserve the output schema.
//! 3. data tracing (Section 5.3) — delegated to the `nrab-provenance` crate.
//! 4. [`msr`] — `approximateMSRs` (Algorithm 4) plus the loose side-effect
//!    bounds of Section 5.4 ([`side_effects`]) and the ranking of
//!    Definition 9 ([`rank`]).
//!
//! The exact algorithm ([`exact`]) enumerates reparameterizations over the
//! PTIME-restricted space of Theorem 1 and is used to validate the heuristic
//! on small instances (and in the test suite).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alternatives;
pub mod backtrace;
pub mod error;
pub mod exact;
pub mod explain;
pub mod msr;
pub mod question;
pub mod rank;
pub mod side_effects;

pub use alternatives::AttributeAlternative;
pub use error::{WhyNotError, WhyNotResult};
pub use explain::{
    DirectTracer, EngineConfig, Explanation, TraceProvider, WhyNotAnswer, WhyNotEngine,
};
pub use question::WhyNotQuestion;
pub use side_effects::SideEffectBounds;
