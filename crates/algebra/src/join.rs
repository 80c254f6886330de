//! The shared join core: a hash join used by both bag-semantics evaluation
//! ([`crate::eval`]) and the generalized join tracing of `nrab-provenance`.
//!
//! Both consumers need the same primitive — given a left and a right sequence
//! of (possibly absent) tuples and a join predicate, find every matching
//! `(left, right)` pair plus per-side matched flags for outer-join padding.
//! [`join_matches`] is that one primitive:
//!
//! 1. **Split** the conjunctive predicate into equi-join key pairs
//!    (`left.a = right.b` equalities whose sides resolve to opposite input
//!    schemas) and a *residual* of the remaining conjuncts
//!    (`split_equi_join`).
//! 2. **Build**: extract the canonicalized key of every right row by
//!    tuple-path navigation and insert the rows into one `HashMap` from key
//!    to its candidate rows, in row order, so every bucket lists candidates
//!    in ascending row order.
//! 3. **Probe**: for every left row, look up its key's bucket and evaluate
//!    only the residual conjuncts on the hash-matched candidates. Pure equi
//!    joins skip predicate evaluation entirely (the concatenation check
//!    still runs, preserving the duplicate-attribute semantics of the nested
//!    loop).
//!
//! Predicates without a usable equality take the block nested loop,
//! [`nested_loop_join`], which evaluates the whole predicate on every pair
//! and is the reference the hash path is tested against. Build, probe and
//! the nested loop check the request's guard ([`whynot_guard::checkpoint`])
//! once every 1024 rows and return a trip as
//! [`AlgebraError::Resource`](crate::AlgebraError::Resource).
//!
//! ## Key canonicalization
//!
//! Bucket matching must agree **exactly** with what `CmpOp::Eq` would decide
//! on the key values, or the hash join would produce different pairs than
//! the nested loop. `=` compares numeric values through the `f64` widening
//! of [`Value::as_float`], while `Value`'s `Eq` compares `Int`s as integers
//! and `Float`s by total order — the two disagree on `-0.0` vs `0.0`, on
//! NaN, and on distinct `i64`s that collapse to the same `f64`. Key
//! components are therefore canonicalized before hashing
//! (`canonical_key_component`): numeric components are widened to
//! `Value::Float` exactly like `as_float` does (so `Int(2)` and `Float(2.0)`
//! share a bucket, and so do two giant `i64`s that `=` cannot tell apart),
//! negative zero is normalized to positive zero, and rows whose key contains
//! `⊥` or NaN are excluded from both build and probe (no `=` can ever accept
//! them). Everything else — strings, booleans, nested tuples and bags — is
//! compared by `Value` equality on both paths, so it is hashed as is.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use nested_data::{AttrPath, ShapeMemo, Tuple, TupleType, Value};

use crate::error::AlgebraResult;
use crate::expr::{CmpOp, Expr};

/// One matched pair of a join, with the concatenated output tuple (the
/// predicate was evaluated on exactly this tuple, and both consumers need
/// it next — the evaluator to emit it, the tracer to store it as the pair's
/// data variant).
#[derive(Debug, PartialEq)]
pub struct JoinPair {
    /// Index of the left row.
    pub left: usize,
    /// Index of the right row.
    pub right: usize,
    /// The concatenated `left ◦ right` tuple.
    pub combined: Tuple,
}

/// The result of [`join_matches`]: every matching pair (ascending by left
/// index, then by right index) and the per-side matched flags outer joins
/// pad from.
#[derive(Debug, PartialEq)]
pub struct JoinMatches {
    /// Matched pairs in deterministic `(left, right)` order.
    pub pairs: Vec<JoinPair>,
    /// `left_matched[i]` — whether left row `i` appears in any pair.
    pub left_matched: Vec<bool>,
    /// `right_matched[i]` — whether right row `i` appears in any pair.
    pub right_matched: Vec<bool>,
}

/// The equi-join structure of a conjunctive predicate: parallel key paths
/// (`left_keys[k] = right_keys[k]` for every `k`) and the residual
/// conjunction of everything that is not a usable equality (`None` when the
/// predicate was pure equi).
struct EquiJoin {
    /// Key paths resolving in the left schema.
    left_keys: Vec<AttrPath>,
    /// Key paths resolving in the right schema, parallel to `left_keys`.
    right_keys: Vec<AttrPath>,
    /// Conjunction of the non-equi conjuncts, evaluated on hash-matched
    /// candidates only.
    residual: Option<Expr>,
}

/// Splits a conjunctive join predicate into equi-key pairs and the residual
/// conjunction. An equality `a = b` becomes a key pair when one side
/// resolves (only) in the left schema and the other in the right schema;
/// ambiguous equalities and every other conjunct stay in the residual.
/// Returns `None` if no usable equality exists — the join then has no hash
/// structure to exploit.
fn split_equi_join(predicate: &Expr, left: &TupleType, right: &TupleType) -> Option<EquiJoin> {
    let mut conjuncts = Vec::new();
    collect_conjuncts(predicate, &mut conjuncts);
    let mut left_keys = Vec::new();
    let mut right_keys = Vec::new();
    let mut residual = Vec::new();
    for conjunct in conjuncts {
        if let Expr::Cmp(a, CmpOp::Eq, b) = conjunct {
            if let (Expr::Attr(pa), Expr::Attr(pb)) = (a.as_ref(), b.as_ref()) {
                let a_left = left.resolve_path(pa).is_ok();
                let b_left = left.resolve_path(pb).is_ok();
                let a_right = right.resolve_path(pa).is_ok();
                let b_right = right.resolve_path(pb).is_ok();
                if a_left && b_right && !a_right {
                    left_keys.push(pa.clone());
                    right_keys.push(pb.clone());
                    continue;
                } else if b_left && a_right && !b_right {
                    left_keys.push(pb.clone());
                    right_keys.push(pa.clone());
                    continue;
                }
            }
        }
        residual.push(conjunct.clone());
    }
    if left_keys.is_empty() {
        return None;
    }
    let residual = (!residual.is_empty()).then(|| Expr::and_all(residual));
    Some(EquiJoin { left_keys, right_keys, residual })
}

/// Flattens the `∧`-tree of a predicate into its conjuncts, in left-to-right
/// order.
fn collect_conjuncts<'e>(predicate: &'e Expr, out: &mut Vec<&'e Expr>) {
    match predicate {
        Expr::And(a, b) => {
            collect_conjuncts(a, out);
            collect_conjuncts(b, out);
        }
        other => out.push(other),
    }
}

/// Computes every matching pair of a join plus the per-side matched flags,
/// through the hash join when the predicate has equi structure and through
/// [`nested_loop_join`] otherwise. Each side is a sequence of rows; absent
/// rows (`None` — e.g. tuples that are invalid under a schema alternative)
/// never pair. Both paths return the same matches; the tests compare the
/// hash path against [`nested_loop_join`].
pub fn join_matches(
    left: &[Option<&Tuple>],
    right: &[Option<&Tuple>],
    predicate: &Expr,
    left_schema: &TupleType,
    right_schema: &TupleType,
) -> AlgebraResult<JoinMatches> {
    match split_equi_join(predicate, left_schema, right_schema) {
        Some(equi) => {
            whynot_obs::add("join.hash", 1);
            Ok(assemble_matches(hash_matches(left, right, &equi)?, left.len(), right.len()))
        }
        None => {
            whynot_obs::add("join.fallback", 1);
            nested_loop_join(left, right, predicate)
        }
    }
}

/// Folds per-left-row match lists into the [`JoinMatches`] result, in
/// ascending `(left, right)` order.
fn assemble_matches(
    matches_per_left: Vec<Vec<(usize, Tuple)>>,
    left_len: usize,
    right_len: usize,
) -> JoinMatches {
    let mut result = JoinMatches {
        pairs: Vec::new(),
        left_matched: vec![false; left_len],
        right_matched: vec![false; right_len],
    };
    for (li, matched) in matches_per_left.into_iter().enumerate() {
        for (ri, combined) in matched {
            result.left_matched[li] = true;
            result.right_matched[ri] = true;
            result.pairs.push(JoinPair { left: li, right: ri, combined });
        }
    }
    result
}

/// A join key: the canonicalized key-path values of one row. Single-key
/// joins (the common case) skip the vector allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum JoinKey {
    One(Value),
    Many(Vec<Value>),
}

/// Canonicalizes one key component so that key equality (and hashing) agrees
/// exactly with what `CmpOp::Eq` decides on the raw values — see the module
/// docs. `None` excludes the row from the hash join entirely: a `⊥` or NaN
/// component can never satisfy the equality.
fn canonical_key_component(value: Value) -> Option<Value> {
    match value {
        Value::Null => None,
        // `=` compares numerics through the `as f64` widening of
        // `Value::as_float`; mirror it so `Int(2)` buckets with `Float(2.0)`
        // and two `i64`s beyond 2⁵³ that `=` cannot distinguish share a key.
        Value::Int(i) => Some(Value::Float(i as f64)),
        Value::Float(f) if f.is_nan() => None,
        // `-0.0 = 0.0` holds under `partial_cmp` but not under the total
        // order `Value` equality uses; normalize so both land in one bucket.
        Value::Float(f) => Some(Value::Float(if f == 0.0 { 0.0 } else { f })),
        other => Some(other),
    }
}

/// The canonicalized key of one row. `None` marks rows that cannot
/// participate in the hash join: absent rows and rows whose key contains `⊥`
/// or NaN.
fn join_key(row: Option<&Tuple>, paths: &[AttrPath]) -> Option<JoinKey> {
    let tuple = row?;
    let mut components = Vec::with_capacity(paths.len());
    for path in paths {
        let value = tuple.get_path(path).unwrap_or(Value::Null);
        components.push(canonical_key_component(value)?);
    }
    Some(match <[Value; 1]>::try_from(components) {
        Ok([single]) => JoinKey::One(single),
        Err(components) => JoinKey::Many(components),
    })
}

/// Checks the request's guard on the first of every 1024 rows.
fn checkpoint_every_1024(row: usize) -> AlgebraResult<()> {
    if row & 1023 == 0 {
        whynot_guard::checkpoint()?;
    }
    Ok(())
}

/// Buckets of right rows by canonicalized key, each in ascending row order.
/// The map's hasher is `DefaultHasher` with its fixed keys, so iteration
/// never depends on a random seed.
type Buckets = HashMap<JoinKey, Vec<usize>, BuildHasherDefault<DefaultHasher>>;

/// The hash join: build over the right side, then probe with every left
/// row. Each probe visits exactly its key's bucket and evaluates only the
/// residual conjuncts (none, for a pure equi join) on the candidates. The
/// concatenation check is kept — the nested loop skips pairs whose
/// attribute names collide, and so must we. Returns the matches of each left
/// row, in ascending right-row order.
fn hash_matches(
    left: &[Option<&Tuple>],
    right: &[Option<&Tuple>],
    equi: &EquiJoin,
) -> AlgebraResult<Vec<Vec<(usize, Tuple)>>> {
    // `Value` only carries interior mutability in its lazily cached
    // structural hash, which never changes its `Eq`/`Hash` identity.
    #[allow(clippy::mutable_key_type)]
    let buckets = {
        let _build_span = whynot_obs::span("join.build");
        whynot_obs::add("join.build_rows", right.len() as u64);
        whynot_guard::faults::fault_point("join_build");
        let mut buckets = Buckets::default();
        for (ri, row) in right.iter().enumerate() {
            checkpoint_every_1024(ri)?;
            if let Some(key) = join_key(*row, &equi.right_keys) {
                buckets.entry(key).or_default().push(ri);
            }
        }
        buckets
    };
    let _probe_span = whynot_obs::span("join.probe");
    whynot_obs::add("join.probe_rows", left.len() as u64);
    let concat = ShapeMemo::new();
    let mut matches_per_left = Vec::with_capacity(left.len());
    for (li, row) in left.iter().enumerate() {
        checkpoint_every_1024(li)?;
        let mut matched = Vec::new();
        let key = join_key(*row, &equi.left_keys);
        if let (Some(lt), Some(candidates)) = (row, key.and_then(|k| buckets.get(&k))) {
            for &ri in candidates {
                let rt = right[ri].expect("bucketed rows are present");
                let Ok(combined) = concat.concat(lt, rt) else { continue };
                let keep = match &equi.residual {
                    Some(residual) => residual.eval_bool(&combined),
                    None => true,
                };
                if keep {
                    matched.push((ri, combined));
                }
            }
        }
        matches_per_left.push(matched);
    }
    Ok(matches_per_left)
}

/// The block nested loop: evaluates the whole predicate on the
/// concatenation of every pair of present rows. [`join_matches`] takes it
/// for predicates without equi structure (range joins, cross products); the
/// tests and the `join` bench group call it directly as the reference for
/// the hash path.
pub fn nested_loop_join(
    left: &[Option<&Tuple>],
    right: &[Option<&Tuple>],
    predicate: &Expr,
) -> AlgebraResult<JoinMatches> {
    let concat = ShapeMemo::new();
    let mut matches_per_left = Vec::with_capacity(left.len());
    for (li, row) in left.iter().enumerate() {
        checkpoint_every_1024(li)?;
        let mut matched = Vec::new();
        if let Some(lt) = row {
            for (ri, row) in right.iter().enumerate() {
                let Some(rt) = row else { continue };
                let Ok(combined) = concat.concat(lt, rt) else { continue };
                if predicate.eval_bool(&combined) {
                    matched.push((ri, combined));
                }
            }
        }
        matches_per_left.push(matched);
    }
    Ok(assemble_matches(matches_per_left, left.len(), right.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ArithOp;
    use nested_data::NestedType;

    fn left_row(a: Value, x: i64) -> Tuple {
        Tuple::new([("a", a), ("x", Value::int(x))])
    }

    fn right_row(b: Value, y: i64) -> Tuple {
        Tuple::new([("b", b), ("y", Value::int(y))])
    }

    fn schemas() -> (TupleType, TupleType) {
        (
            TupleType::new([("a", NestedType::float()), ("x", NestedType::int())]).unwrap(),
            TupleType::new([("b", NestedType::float()), ("y", NestedType::int())]).unwrap(),
        )
    }

    fn pairs_of(matches: &JoinMatches) -> Vec<(usize, usize)> {
        matches.pairs.iter().map(|p| (p.left, p.right)).collect()
    }

    /// Runs the same join through [`join_matches`] and the reference
    /// [`nested_loop_join`] and asserts the outcomes are identical: the
    /// pairs, their combined tuples and both matched vectors.
    fn assert_paths_agree(
        left: &[Tuple],
        right: &[Tuple],
        predicate: &Expr,
    ) -> Vec<(usize, usize)> {
        let (ls, rs) = schemas();
        let left_side: Vec<_> = left.iter().map(Some).collect();
        let right_side: Vec<_> = right.iter().map(Some).collect();
        let joined = join_matches(&left_side, &right_side, predicate, &ls, &rs).unwrap();
        let reference = nested_loop_join(&left_side, &right_side, predicate).unwrap();
        assert_eq!(joined, reference);
        pairs_of(&joined)
    }

    #[test]
    fn equi_join_matches_by_key() {
        let eq = Expr::cmp(Expr::attr("a"), CmpOp::Eq, Expr::attr("b"));
        let left = vec![left_row(Value::int(1), 10), left_row(Value::int(2), 20)];
        let right = vec![right_row(Value::int(2), 1), right_row(Value::int(3), 2)];
        let pairs = assert_paths_agree(&left, &right, &eq);
        assert_eq!(pairs, vec![(1, 0)]);
    }

    #[test]
    fn numeric_keys_bucket_like_the_equality_decides() {
        let eq = Expr::cmp(Expr::attr("a"), CmpOp::Eq, Expr::attr("b"));
        // Int vs Float keys, negative zero, NaN, ⊥, and i64s beyond 2⁵³.
        let big = i64::MAX;
        let left = vec![
            left_row(Value::int(2), 0),
            left_row(Value::float(-0.0), 1),
            left_row(Value::float(f64::NAN), 2),
            left_row(Value::Null, 3),
            left_row(Value::int(big), 4),
        ];
        let right = vec![
            right_row(Value::float(2.0), 0),
            right_row(Value::float(0.0), 1),
            right_row(Value::float(f64::NAN), 2),
            right_row(Value::Null, 3),
            // `=` cannot distinguish big from big - 1: both widen to the
            // same f64, so the row path matches — and so must the hash path.
            right_row(Value::int(big - 1), 4),
        ];
        let pairs = assert_paths_agree(&left, &right, &eq);
        assert_eq!(pairs, vec![(0, 0), (1, 1), (4, 4)]);
    }

    #[test]
    fn residual_conjuncts_filter_candidates() {
        let predicate = Expr::and(
            Expr::cmp(Expr::attr("a"), CmpOp::Eq, Expr::attr("b")),
            Expr::cmp(Expr::attr("x"), CmpOp::Lt, Expr::attr("y")),
        );
        let left = vec![left_row(Value::int(1), 10), left_row(Value::int(1), 1)];
        let right = vec![right_row(Value::int(1), 5), right_row(Value::int(2), 99)];
        let pairs = assert_paths_agree(&left, &right, &predicate);
        assert_eq!(pairs, vec![(1, 0)]);
    }

    #[test]
    fn pure_non_equi_joins_take_the_nested_loop() {
        let (ls, rs) = schemas();
        let range = Expr::cmp(Expr::attr("x"), CmpOp::Lt, Expr::attr("y"));
        assert!(split_equi_join(&range, &ls, &rs).is_none());
        let left = vec![left_row(Value::int(0), 1), left_row(Value::int(0), 7)];
        let right = vec![right_row(Value::int(0), 5)];
        let pairs = assert_paths_agree(&left, &right, &range);
        assert_eq!(pairs, vec![(0, 0)]);
    }

    #[test]
    fn absent_rows_never_pair() {
        let (ls, rs) = schemas();
        let eq = Expr::cmp(Expr::attr("a"), CmpOp::Eq, Expr::attr("b"));
        let lt = left_row(Value::int(1), 0);
        let rt = right_row(Value::int(1), 0);
        let left_side = [None, Some(&lt)];
        let right_side = [Some(&rt), None];
        let matches = join_matches(&left_side, &right_side, &eq, &ls, &rs).unwrap();
        assert_eq!(pairs_of(&matches), vec![(1, 0)]);
        assert_eq!(matches.left_matched, vec![false, true]);
        assert_eq!(matches.right_matched, vec![true, false]);
    }

    #[test]
    fn split_extracts_keys_and_residual() {
        let (ls, rs) = schemas();
        let predicate = Expr::and_all([
            Expr::cmp(Expr::attr("a"), CmpOp::Eq, Expr::attr("b")),
            Expr::cmp(Expr::attr("y"), CmpOp::Eq, Expr::attr("x")),
            Expr::cmp(
                Expr::arith(Expr::attr("x"), ArithOp::Add, Expr::lit(1i64)),
                CmpOp::Le,
                Expr::attr("y"),
            ),
        ]);
        let equi = split_equi_join(&predicate, &ls, &rs).unwrap();
        assert_eq!(equi.left_keys.len(), 2);
        // The flipped equality is normalized: the left path lands on the
        // left side.
        assert_eq!(equi.left_keys[1].to_string(), "x");
        assert_eq!(equi.right_keys[1].to_string(), "y");
        let residual = equi.residual.expect("arith conjunct stays");
        assert!(residual.to_string().contains('+'));

        // A pure equi predicate leaves no residual.
        let pure = Expr::cmp(Expr::attr("a"), CmpOp::Eq, Expr::attr("b"));
        assert!(split_equi_join(&pure, &ls, &rs).unwrap().residual.is_none());
    }

    /// A 600-key build with a mostly-miss probe side (only every 7th probe
    /// key has a bucket): the hash path must find exactly the nested loop's
    /// pairs.
    #[test]
    fn selective_probes_match_the_nested_loop() {
        let eq = Expr::cmp(Expr::attr("a"), CmpOp::Eq, Expr::attr("b"));
        let right: Vec<Tuple> = (0..600).map(|i| right_row(Value::int(i), i)).collect();
        let left: Vec<Tuple> = (0..900)
            .map(|i| left_row(Value::int(if i % 7 == 0 { i } else { i + 10_000 }), i))
            .collect();
        let pairs = assert_paths_agree(&left, &right, &eq);
        assert_eq!(pairs.len(), 86, "left keys 0, 7, .., 595 find their bucket");
    }

    /// Under an armed guard whose zero deadline has passed, the hash path,
    /// the nested loop `join_matches` falls back to and the reference
    /// nested loop return the trip from inside their row loops as an error.
    #[test]
    fn a_passed_deadline_trips_inside_every_join_loop() {
        use crate::error::AlgebraError;
        use whynot_guard::ResourceError;

        let (ls, rs) = schemas();
        let left = [left_row(Value::int(1), 0)];
        let right = [right_row(Value::int(1), 5)];
        let (left_side, right_side) = ([Some(&left[0])], [Some(&right[0])]);
        let equi = Expr::cmp(Expr::attr("a"), CmpOp::Eq, Expr::attr("b"));
        let range = Expr::cmp(Expr::attr("x"), CmpOp::Lt, Expr::attr("y"));

        let guard = whynot_guard::Guard::new(Some(0), None, None);
        let _armed = whynot_guard::arm(&guard);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let results = [
            ("hash", join_matches(&left_side, &right_side, &equi, &ls, &rs)),
            ("nested loop", join_matches(&left_side, &right_side, &range, &ls, &rs)),
            ("reference", nested_loop_join(&left_side, &right_side, &equi)),
        ];
        for (path, result) in results {
            assert!(
                matches!(
                    result,
                    Err(AlgebraError::Resource(ResourceError::DeadlineExceeded { .. }))
                ),
                "{path}: the trip must return as an error"
            );
        }
    }
}
