//! # nested-data
//!
//! The nested relational data model used throughout the `whynot-nested`
//! workspace. It is a direct implementation of Section 3.1 of
//! *"To Not Miss the Forest for the Trees"* (SIGMOD 2021):
//!
//! * **Nested relation schemas** ([`NestedType`], [`TupleType`], Definition 1):
//!   attributes are primitives, tuples, or nested relations (bags of tuples).
//! * **Nested relation instances** ([`Value`], [`Tuple`], [`Bag`], Definition 2):
//!   bag semantics with explicit multiplicities and a distinguished null value
//!   `⊥` that inhabits every type.
//! * **Nested instances with placeholders** ([`Nip`], Definitions 3 and 4):
//!   the instance placeholder `?` and the multiplicity placeholder `*`, together
//!   with the assignment-based matching relation `≃` used to pose why-not
//!   questions.
//! * **Attribute paths** ([`AttrPath`]): dotted paths such as `address2.city`
//!   that navigate through tuple and relation nesting, used by schema
//!   backtracing and schema alternatives.
//! * **Tree views and tree edit distance** ([`tree`]): the unordered-tree view
//!   of nested values from Figure 2 and the distance function `d` used in the
//!   side-effect component of the MSR partial order (Definition 9).
//!
//! The representation is a shared-immutable value layer: attribute names are
//! interned symbols ([`Sym`]), a tuple stores only its values behind a
//! [`Shape`] of field names shared by every tuple of its layout (kernels
//! derive output shapes once per input shape, as [`Splice`]s kept in a
//! [`ShapeMemo`]), compound values live behind `Arc`s (so
//! `Value::clone` is O(1) and subtrees are shared structurally, with
//! copy-on-write mutation), and bags are built through [`BagBuilder`]
//! (hash-deduplicated, canonicalized once). None of this is observable in the
//! semantics: name-based tuple equality, the total value order, and the
//! deterministic canonical bag order are exactly those of a naive
//! `String`-keyed, deep-copying representation.
//!
//! The crate has no dependencies and is deliberately self-contained so that the
//! algebra, provenance, and explanation crates can all share one value model.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bag;
pub mod error;
pub mod nip;
pub mod path;
pub mod shape;
pub mod sym;
pub mod tree;
pub mod tuple;
pub mod types;
pub mod value;

pub use bag::{Bag, BagBuilder};
pub use error::{DataError, DataResult};
pub use nip::{Nip, NipCmp};
pub use path::AttrPath;
pub use shape::{Shape, ShapeMemo, Splice};
pub use sym::Sym;
pub use tree::{tree_distance, ValueTree};
pub use tuple::Tuple;
pub use types::{NestedType, PrimitiveType, TupleType};
pub use value::Value;
