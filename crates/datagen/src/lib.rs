//! # nested-datagen
//!
//! Seeded synthetic nested datasets standing in for the paper's evaluation
//! data (Section 6.2). The original evaluation used 100–500 GB of DBLP and
//! Twitter JSON plus nested TPC-H at scale factor 10 on a 50-executor Spark
//! cluster; this crate generates laptop-scale datasets with the *structural
//! properties the scenarios rely on*:
//!
//! * DBLP: `title.bibtex` is null for the vast majority of records, homepage
//!   URLs live in the `note` attribute rather than `url`, proceedings carry
//!   the conference acronym in `booktitle` while `title` holds the written-out
//!   name, and the ACM-published papers of the planted author carry "ACM" in
//!   `series` rather than `publisher`.
//! * Twitter: media URLs live in `entities.urls` rather than `entities.media`,
//!   the planted fan's tweets carry the country in `user.location` rather than
//!   `place.country`, and the planted "famous" tweet is a retweet rather than
//!   a quote.
//! * TPC-H: orders nest their lineitems (`o_lineitems`), with a flat variant
//!   for the Q1F–Q13F scenarios, and the planted customer/order rows make the
//!   injected query errors observable.
//! * Crime: the four-relation police database of Table 6.
//!
//! Every generator is deterministic (seeded `StdRng`) and has a scale knob so
//! the benchmark harness can sweep dataset sizes (Figures 8–10).
//!
//! Each filler record derives its own RNG from `(seed, stream, index)` via
//! the crate-internal `row_rng` instead of drawing from one sequential
//! stream, so a record depends only on its index (and the planted
//! protagonist facts are inserted outside the filler loops).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod crime;
pub mod dblp;
pub mod person;
pub mod tpch;
pub mod twitter;

pub use crime::crime_database;
pub use dblp::{dblp_database, DblpConfig};
pub use person::person_database;
pub use tpch::{tpch_flat_database, tpch_nested_database, TpchConfig};
pub use twitter::{twitter_database, TwitterConfig};

use whynot_rng::{SeedableRng, StdRng};

/// A per-record RNG derived from `(seed, stream, index)`, so a record depends
/// only on its index, not on the records generated before it. `stream` separates independent record families under
/// the same dataset seed; the multipliers decorrelate neighbouring indices
/// before `seed_from_u64`'s splitmix mixing.
pub(crate) fn row_rng(seed: u64, stream: u64, index: u64) -> StdRng {
    let mixed = seed
        ^ stream.wrapping_mul(0xA076_1D64_78BD_642F).rotate_left(23)
        ^ index.wrapping_mul(0xE703_7ED1_A0B4_28DB);
    StdRng::seed_from_u64(mixed)
}
