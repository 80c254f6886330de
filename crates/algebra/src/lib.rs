//! # nrab-algebra
//!
//! The nested relational algebra for bags (**NRAB**) of Section 3.2 of
//! *"To Not Miss the Forest for the Trees"* (SIGMOD 2021):
//!
//! * [`expr`] — scalar expressions used in selection and join predicates and
//!   in computed projection columns (the PTIME-restricted form of `map`).
//! * [`agg`] — the standard SQL aggregation functions the paper restricts to.
//! * [`operator`] / [`plan`] — the operators of Table 1 arranged in a query
//!   plan tree with stable operator identifiers.
//! * [`schema`] — output-type inference (the `type(·)` column of Table 1) and
//!   plan validation.
//! * [`eval`] — the bag-semantics evaluator `⟦Q⟧_D`.
//! * [`join`] — the shared physical join core (hash join with a
//!   nested-loop fallback), used by the evaluator and by the
//!   provenance tracer's generalized join.
//! * [`params`] — operator parameters, the admissible parameter changes of
//!   Table 2, and reparameterizations (Definitions 6 and 7).
//! * [`database`] — named input relations with their schemas.
//! * [`builder`] — an ergonomic plan builder used by the scenario and example
//!   crates.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod agg;
pub mod builder;
pub mod database;
pub mod error;
pub mod eval;
pub mod expr;
pub mod join;
pub mod operator;
pub mod params;
pub mod plan;
pub mod schema;

pub use agg::AggFunc;
pub use builder::PlanBuilder;
pub use database::Database;
pub use error::{AlgebraError, AlgebraResult};
pub use eval::evaluate;
pub use expr::{CmpOp, Expr};
pub use join::{with_hash_join, JoinMatches};
pub use operator::{AggSpec, FlattenKind, JoinKind, Operator, ProjColumn, RenamePair};
pub use params::{OperatorParams, ParamChange, Reparameterization};
pub use plan::{OpId, OpNode, QueryPlan};
