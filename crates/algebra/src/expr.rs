//! Scalar expressions for selection/join predicates and computed projection
//! columns.
//!
//! The paper allows selection conditions built from attribute references,
//! comparison operators, constants, and logical connectives (Table 2), plus —
//! in the scenario queries — string containment (`"BTS" ∈ text`), null tests,
//! arithmetic (`l_extendedprice × (1 − l_discount)`), and the size of a nested
//! relation. Expressions are evaluated against a single (possibly nested)
//! tuple; attribute references are [`AttrPath`]s so they can reach into nested
//! tuples.

use std::cmp::Ordering;
use std::fmt;

use nested_data::{AttrPath, Tuple, Value};

/// Scalar kernel of [`Expr::Contains`]: substring for strings, membership
/// for nested relations, false otherwise.
fn scalar_contains(haystack: &Value, needle: &Value) -> Value {
    Value::Bool(match (haystack, needle) {
        (Value::Str(h), Value::Str(n)) => h.contains(&**n),
        (Value::Bag(b), v) => b.contains(v),
        _ => false,
    })
}

/// Scalar kernel of [`Expr::IsNull`]: `⊥` and empty nested relations count
/// as null.
fn scalar_is_null(v: &Value) -> Value {
    Value::Bool(v.is_null() || matches!(v, Value::Bag(b) if b.is_empty()))
}

/// Scalar kernel of [`Expr::Arith`]; non-numeric operands and division by
/// zero yield `⊥`.
fn scalar_arith(a: &Value, op: ArithOp, b: &Value) -> Value {
    match (a.as_float(), b.as_float()) {
        (Some(a), Some(b)) => {
            let result = match op {
                ArithOp::Add => a + b,
                ArithOp::Sub => a - b,
                ArithOp::Mul => a * b,
                ArithOp::Div => {
                    if b == 0.0 {
                        return Value::Null;
                    }
                    a / b
                }
            };
            Value::Float(result)
        }
        _ => Value::Null,
    }
}

/// Scalar kernel of [`Expr::Size`]: the cardinality of a nested relation,
/// with `⊥` counting as empty.
fn scalar_size(v: &Value) -> Value {
    match v {
        Value::Bag(b) => Value::Int(b.total() as i64),
        Value::Null => Value::Int(0),
        _ => Value::Null,
    }
}

/// Comparison operators `{=, ≠, <, ≤, >, ≥}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
}

impl CmpOp {
    /// All comparison operators (used when enumerating admissible parameter changes).
    pub const ALL: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

    /// Applies the comparison to two values.
    ///
    /// Numeric comparisons work across `Int` and `Float`; any comparison
    /// involving `⊥` is false (SQL-style unknown collapses to false).
    pub fn apply(self, left: &Value, right: &Value) -> bool {
        if left.is_null() || right.is_null() {
            return false;
        }
        // Numeric pairs compare through the `as f64` widening of
        // `Value::as_float`; incomparable (NaN) pairs are false.
        let ord = match (left.as_float(), right.as_float()) {
            (Some(a), Some(b)) => match a.partial_cmp(&b) {
                Some(ord) => ord,
                None => return false,
            },
            _ => left.cmp(right),
        };
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "≠",
            CmpOp::Lt => "<",
            CmpOp::Le => "≤",
            CmpOp::Gt => ">",
            CmpOp::Ge => "≥",
        };
        write!(f, "{s}")
    }
}

/// Arithmetic operators used in computed projection columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "×",
            ArithOp::Div => "/",
        };
        write!(f, "{s}")
    }
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to an attribute (possibly a path into nested tuples).
    Attr(AttrPath),
    /// A constant value.
    Const(Value),
    /// Comparison between two sub-expressions.
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// String containment: does the string value of the second expression
    /// occur as a substring of the first? (`"BTS" ∈ text` is written
    /// `Expr::contains(attr("text"), lit("BTS"))`.)
    Contains(Box<Expr>, Box<Expr>),
    /// Null test.
    IsNull(Box<Expr>),
    /// Arithmetic on numeric values.
    Arith(Box<Expr>, ArithOp, Box<Expr>),
    /// Cardinality of a nested relation value.
    Size(Box<Expr>),
}

impl Expr {
    /// An attribute reference.
    pub fn attr(path: impl Into<AttrPath>) -> Expr {
        Expr::Attr(path.into())
    }

    /// A constant.
    pub fn lit(value: impl Into<Value>) -> Expr {
        Expr::Const(value.into())
    }

    /// `left cmp right`.
    pub fn cmp(left: Expr, op: CmpOp, right: Expr) -> Expr {
        Expr::Cmp(Box::new(left), op, Box::new(right))
    }

    /// `attr = constant` — the most common selection shape.
    pub fn attr_eq(path: impl Into<AttrPath>, value: impl Into<Value>) -> Expr {
        Expr::cmp(Expr::attr(path), CmpOp::Eq, Expr::lit(value))
    }

    /// `attr cmp constant`.
    pub fn attr_cmp(path: impl Into<AttrPath>, op: CmpOp, value: impl Into<Value>) -> Expr {
        Expr::cmp(Expr::attr(path), op, Expr::lit(value))
    }

    /// `left ∧ right`.
    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::And(Box::new(left), Box::new(right))
    }

    /// Conjunction of many expressions (`true` if empty).
    pub fn and_all<I: IntoIterator<Item = Expr>>(exprs: I) -> Expr {
        let mut iter = exprs.into_iter();
        match iter.next() {
            None => Expr::lit(true),
            Some(first) => iter.fold(first, Expr::and),
        }
    }

    /// `left ∨ right`.
    pub fn or(left: Expr, right: Expr) -> Expr {
        Expr::Or(Box::new(left), Box::new(right))
    }

    /// `¬e`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(e: Expr) -> Expr {
        Expr::Not(Box::new(e))
    }

    /// Substring containment.
    pub fn contains(haystack: Expr, needle: Expr) -> Expr {
        Expr::Contains(Box::new(haystack), Box::new(needle))
    }

    /// Null test.
    pub fn is_null(e: Expr) -> Expr {
        Expr::IsNull(Box::new(e))
    }

    /// Arithmetic.
    pub fn arith(left: Expr, op: ArithOp, right: Expr) -> Expr {
        Expr::Arith(Box::new(left), op, Box::new(right))
    }

    /// Size of a nested relation.
    pub fn size(e: Expr) -> Expr {
        Expr::Size(Box::new(e))
    }

    /// Evaluates the expression against a tuple, producing a value.
    pub fn eval(&self, tuple: &Tuple) -> Value {
        match self {
            Expr::Attr(path) => tuple.get_path(path).unwrap_or(Value::Null),
            Expr::Const(v) => v.clone(),
            Expr::Cmp(l, op, r) => Value::Bool(op.apply(&l.eval(tuple), &r.eval(tuple))),
            Expr::And(l, r) => Value::Bool(l.eval_bool(tuple) && r.eval_bool(tuple)),
            Expr::Or(l, r) => Value::Bool(l.eval_bool(tuple) || r.eval_bool(tuple)),
            Expr::Not(e) => Value::Bool(!e.eval_bool(tuple)),
            Expr::Contains(h, n) => scalar_contains(&h.eval(tuple), &n.eval(tuple)),
            Expr::IsNull(e) => scalar_is_null(&e.eval(tuple)),
            Expr::Arith(l, op, r) => scalar_arith(&l.eval(tuple), *op, &r.eval(tuple)),
            Expr::Size(e) => scalar_size(&e.eval(tuple)),
        }
    }

    /// Evaluates the expression as a predicate; non-boolean or null results
    /// count as false.
    pub fn eval_bool(&self, tuple: &Tuple) -> bool {
        self.eval(tuple).as_bool().unwrap_or(false)
    }

    /// All attribute paths referenced by this expression.
    pub fn referenced_attributes(&self) -> Vec<AttrPath> {
        let mut out = Vec::new();
        self.collect_attributes(&mut out);
        out
    }

    fn collect_attributes(&self, out: &mut Vec<AttrPath>) {
        match self {
            Expr::Attr(path) => out.push(path.clone()),
            Expr::Const(_) => {}
            Expr::Cmp(l, _, r)
            | Expr::And(l, r)
            | Expr::Or(l, r)
            | Expr::Arith(l, _, r)
            | Expr::Contains(l, r) => {
                l.collect_attributes(out);
                r.collect_attributes(out);
            }
            Expr::Not(e) | Expr::IsNull(e) | Expr::Size(e) => e.collect_attributes(out),
        }
    }

    /// All constants appearing in the expression (paired with the attribute
    /// they are compared against, when syntactically evident).
    pub fn referenced_constants(&self) -> Vec<Value> {
        let mut out = Vec::new();
        self.collect_constants(&mut out);
        out
    }

    fn collect_constants(&self, out: &mut Vec<Value>) {
        match self {
            Expr::Attr(_) => {}
            Expr::Const(v) => out.push(v.clone()),
            Expr::Cmp(l, _, r)
            | Expr::And(l, r)
            | Expr::Or(l, r)
            | Expr::Arith(l, _, r)
            | Expr::Contains(l, r) => {
                l.collect_constants(out);
                r.collect_constants(out);
            }
            Expr::Not(e) | Expr::IsNull(e) | Expr::Size(e) => e.collect_constants(out),
        }
    }

    /// Replaces every reference to attribute path `from` (or paths having
    /// `from` as a prefix) by the corresponding path under `to`.
    ///
    /// This is the primitive with which both schema alternatives and
    /// attribute-swap reparameterizations rewrite operator parameters.
    pub fn substitute_attribute(&self, from: &AttrPath, to: &AttrPath) -> Expr {
        match self {
            Expr::Attr(path) => {
                if let Some(replaced) = path.replace_prefix(from, to) {
                    Expr::Attr(replaced)
                } else {
                    Expr::Attr(path.clone())
                }
            }
            Expr::Const(v) => Expr::Const(v.clone()),
            Expr::Cmp(l, op, r) => Expr::Cmp(
                Box::new(l.substitute_attribute(from, to)),
                *op,
                Box::new(r.substitute_attribute(from, to)),
            ),
            Expr::And(l, r) => Expr::And(
                Box::new(l.substitute_attribute(from, to)),
                Box::new(r.substitute_attribute(from, to)),
            ),
            Expr::Or(l, r) => Expr::Or(
                Box::new(l.substitute_attribute(from, to)),
                Box::new(r.substitute_attribute(from, to)),
            ),
            Expr::Not(e) => Expr::Not(Box::new(e.substitute_attribute(from, to))),
            Expr::Contains(l, r) => Expr::Contains(
                Box::new(l.substitute_attribute(from, to)),
                Box::new(r.substitute_attribute(from, to)),
            ),
            Expr::IsNull(e) => Expr::IsNull(Box::new(e.substitute_attribute(from, to))),
            Expr::Arith(l, op, r) => Expr::Arith(
                Box::new(l.substitute_attribute(from, to)),
                *op,
                Box::new(r.substitute_attribute(from, to)),
            ),
            Expr::Size(e) => Expr::Size(Box::new(e.substitute_attribute(from, to))),
        }
    }

    /// Replaces constants equal to `from` by `to` (used by constant-change
    /// reparameterizations).
    pub fn substitute_constant(&self, from: &Value, to: &Value) -> Expr {
        match self {
            Expr::Const(v) if v == from => Expr::Const(to.clone()),
            Expr::Attr(_) | Expr::Const(_) => self.clone(),
            Expr::Cmp(l, op, r) => Expr::Cmp(
                Box::new(l.substitute_constant(from, to)),
                *op,
                Box::new(r.substitute_constant(from, to)),
            ),
            Expr::And(l, r) => Expr::And(
                Box::new(l.substitute_constant(from, to)),
                Box::new(r.substitute_constant(from, to)),
            ),
            Expr::Or(l, r) => Expr::Or(
                Box::new(l.substitute_constant(from, to)),
                Box::new(r.substitute_constant(from, to)),
            ),
            Expr::Not(e) => Expr::Not(Box::new(e.substitute_constant(from, to))),
            Expr::Contains(l, r) => Expr::Contains(
                Box::new(l.substitute_constant(from, to)),
                Box::new(r.substitute_constant(from, to)),
            ),
            Expr::IsNull(e) => Expr::IsNull(Box::new(e.substitute_constant(from, to))),
            Expr::Arith(l, op, r) => Expr::Arith(
                Box::new(l.substitute_constant(from, to)),
                *op,
                Box::new(r.substitute_constant(from, to)),
            ),
            Expr::Size(e) => Expr::Size(Box::new(e.substitute_constant(from, to))),
        }
    }

    /// Replaces every comparison operator `from` by `to`.
    pub fn substitute_comparison(&self, from: CmpOp, to: CmpOp) -> Expr {
        match self {
            Expr::Cmp(l, op, r) => Expr::Cmp(
                Box::new(l.substitute_comparison(from, to)),
                if *op == from { to } else { *op },
                Box::new(r.substitute_comparison(from, to)),
            ),
            Expr::And(l, r) => Expr::And(
                Box::new(l.substitute_comparison(from, to)),
                Box::new(r.substitute_comparison(from, to)),
            ),
            Expr::Or(l, r) => Expr::Or(
                Box::new(l.substitute_comparison(from, to)),
                Box::new(r.substitute_comparison(from, to)),
            ),
            Expr::Not(e) => Expr::Not(Box::new(e.substitute_comparison(from, to))),
            Expr::Contains(l, r) => Expr::Contains(
                Box::new(l.substitute_comparison(from, to)),
                Box::new(r.substitute_comparison(from, to)),
            ),
            Expr::IsNull(e) => Expr::IsNull(Box::new(e.substitute_comparison(from, to))),
            Expr::Arith(l, op, r) => Expr::Arith(
                Box::new(l.substitute_comparison(from, to)),
                *op,
                Box::new(r.substitute_comparison(from, to)),
            ),
            Expr::Size(e) => Expr::Size(Box::new(e.substitute_comparison(from, to))),
            Expr::Attr(_) | Expr::Const(_) => self.clone(),
        }
    }

    /// All comparison operators appearing in the expression.
    pub fn comparison_operators(&self) -> Vec<CmpOp> {
        let mut out = Vec::new();
        self.collect_comparisons(&mut out);
        out
    }

    fn collect_comparisons(&self, out: &mut Vec<CmpOp>) {
        match self {
            Expr::Cmp(l, op, r) => {
                out.push(*op);
                l.collect_comparisons(out);
                r.collect_comparisons(out);
            }
            Expr::And(l, r) | Expr::Or(l, r) | Expr::Arith(l, _, r) | Expr::Contains(l, r) => {
                l.collect_comparisons(out);
                r.collect_comparisons(out);
            }
            Expr::Not(e) | Expr::IsNull(e) | Expr::Size(e) => e.collect_comparisons(out),
            Expr::Attr(_) | Expr::Const(_) => {}
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Attr(p) => write!(f, "{p}"),
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Cmp(l, op, r) => write!(f, "{l} {op} {r}"),
            Expr::And(l, r) => write!(f, "({l} ∧ {r})"),
            Expr::Or(l, r) => write!(f, "({l} ∨ {r})"),
            Expr::Not(e) => write!(f, "¬({e})"),
            Expr::Contains(h, n) => write!(f, "{n} ∈ {h}"),
            Expr::IsNull(e) => write!(f, "isnull({e})"),
            Expr::Arith(l, op, r) => write!(f, "({l} {op} {r})"),
            Expr::Size(e) => write!(f, "size({e})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lineitem() -> Tuple {
        Tuple::new([
            ("l_shipdate", Value::str("1994-06-01")),
            ("l_discount", Value::float(0.06)),
            ("l_quantity", Value::int(10)),
            ("l_comment", Value::str("special requests handled")),
            ("l_tags", Value::bag([Value::str("a"), Value::str("b")])),
            ("l_null", Value::Null),
        ])
    }

    #[test]
    fn comparisons_across_numeric_types() {
        assert!(CmpOp::Eq.apply(&Value::int(2), &Value::float(2.0)));
        assert!(CmpOp::Lt.apply(&Value::float(1.5), &Value::int(2)));
        assert!(CmpOp::Ge.apply(&Value::str("1994-06-01"), &Value::str("1994-01-01")));
        assert!(!CmpOp::Eq.apply(&Value::Null, &Value::Null));
        // Integers compare through the `as f64` widening, so distinct `i64`s
        // beyond 2⁵³ that collapse to the same `f64` compare equal.
        assert!(CmpOp::Eq.apply(&Value::int(i64::MAX), &Value::int(i64::MAX - 1)));
        assert!(!CmpOp::Lt.apply(&Value::int(i64::MAX - 1), &Value::int(i64::MAX)));
        assert!(CmpOp::Eq.apply(&Value::float(-0.0), &Value::float(0.0)));
        assert!(CmpOp::Eq.apply(&Value::float(-0.0), &Value::int(0)));
        let operands = [Value::int(1), Value::float(0.5), Value::str("a"), Value::bool(true)];
        for op in CmpOp::ALL {
            // A NaN operand is incomparable: false under every operator.
            assert!(!op.apply(&Value::float(f64::NAN), &Value::float(1.0)), "NaN {op} 1.0");
            assert!(!op.apply(&Value::int(1), &Value::float(f64::NAN)), "1 {op} NaN");
            assert!(!op.apply(&Value::float(f64::NAN), &Value::float(f64::NAN)), "NaN {op} NaN");
            // `⊥` never compares true, on either side.
            assert!(!op.apply(&Value::Null, &Value::Null), "⊥ {op} ⊥");
            for v in &operands {
                assert!(!op.apply(&Value::Null, v), "⊥ {op} {v}");
                assert!(!op.apply(v, &Value::Null), "{v} {op} ⊥");
            }
        }
    }

    #[test]
    fn selection_predicates() {
        let t = lineitem();
        assert!(Expr::attr_cmp("l_shipdate", CmpOp::Le, "1994-12-31").eval_bool(&t));
        assert!(Expr::attr_cmp("l_quantity", CmpOp::Lt, 24i64).eval_bool(&t));
        assert!(!Expr::attr_eq("l_quantity", 24i64).eval_bool(&t));
        let between = Expr::and(
            Expr::attr_cmp("l_discount", CmpOp::Ge, 0.05),
            Expr::attr_cmp("l_discount", CmpOp::Le, 0.07),
        );
        assert!(between.eval_bool(&t));
        assert!(Expr::or(Expr::lit(false), Expr::lit(true)).eval_bool(&t));
        assert!(Expr::not(Expr::lit(false)).eval_bool(&t));
    }

    #[test]
    fn contains_isnull_size() {
        let t = lineitem();
        assert!(Expr::contains(Expr::attr("l_comment"), Expr::lit("special")).eval_bool(&t));
        assert!(!Expr::contains(Expr::attr("l_comment"), Expr::lit("missing")).eval_bool(&t));
        assert!(Expr::contains(Expr::attr("l_tags"), Expr::lit("a")).eval_bool(&t));
        assert!(Expr::is_null(Expr::attr("l_null")).eval_bool(&t));
        assert_eq!(Expr::size(Expr::attr("l_tags")).eval(&t), Value::Int(2));
        assert_eq!(Expr::size(Expr::attr("l_null")).eval(&t), Value::Int(0));
    }

    #[test]
    fn arithmetic() {
        let t = lineitem();
        let disc_price = Expr::arith(
            Expr::lit(100.0),
            ArithOp::Mul,
            Expr::arith(Expr::lit(1.0), ArithOp::Sub, Expr::attr("l_discount")),
        );
        let v = disc_price.eval(&t).as_float().unwrap();
        assert!((v - 94.0).abs() < 1e-9);
        assert_eq!(Expr::arith(Expr::lit(1.0), ArithOp::Div, Expr::lit(0.0)).eval(&t), Value::Null);
        // `Int` arithmetic yields `Float`.
        for op in [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div] {
            let v = Expr::arith(Expr::attr("l_quantity"), op, Expr::lit(2i64)).eval(&t);
            assert!(matches!(v, Value::Float(_)), "10 {op} 2 = {v}");
        }
    }

    #[test]
    fn missing_attribute_evaluates_to_null() {
        let t = lineitem();
        assert_eq!(Expr::attr("nonexistent").eval(&t), Value::Null);
        assert!(!Expr::attr_eq("nonexistent", 1i64).eval_bool(&t));
    }

    #[test]
    fn attribute_collection_and_substitution() {
        let e = Expr::and(
            Expr::attr_cmp("address2.year", CmpOp::Ge, 2019i64),
            Expr::attr_eq("name", "Sue"),
        );
        let attrs = e.referenced_attributes();
        assert_eq!(attrs.len(), 2);
        let swapped = e.substitute_attribute(&"address2".into(), &"address1".into());
        assert!(swapped.referenced_attributes().iter().any(|p| p.to_string() == "address1.year"));
        let consts = e.referenced_constants();
        assert!(consts.contains(&Value::int(2019)));

        let relaxed = e.substitute_constant(&Value::int(2019), &Value::int(2018));
        assert!(relaxed.referenced_constants().contains(&Value::int(2018)));

        let flipped = e.substitute_comparison(CmpOp::Ge, CmpOp::Le);
        assert!(flipped.comparison_operators().contains(&CmpOp::Le));
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::attr_cmp("year", CmpOp::Ge, 2019i64);
        assert_eq!(e.to_string(), "year ≥ 2019");
        let c = Expr::contains(Expr::attr("text"), Expr::lit("BTS"));
        assert_eq!(c.to_string(), "\"BTS\" ∈ text");
    }
}
