//! Standard SQL aggregation functions.
//!
//! The PTIME restriction of Theorem 1 (which the paper's own algorithm adopts)
//! limits aggregation to the standard SQL functions; these are the ones
//! implemented here. An aggregation function folds the bag of values of one
//! attribute (or expression) into a single value.

use std::fmt;

use nested_data::Value;

/// A standard SQL aggregation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Number of (non-null counted as well) input values.
    Count,
    /// Number of distinct non-null input values.
    CountDistinct,
    /// Sum of numeric inputs (nulls ignored).
    Sum,
    /// Average of numeric inputs (nulls ignored).
    Avg,
    /// Minimum input (nulls ignored).
    Min,
    /// Maximum input (nulls ignored).
    Max,
}

impl AggFunc {
    /// All aggregation functions (used when enumerating reparameterizations
    /// in the exact checker; the heuristic never changes aggregation
    /// functions, cf. Section 5.5).
    pub const ALL: [AggFunc; 6] = [
        AggFunc::Count,
        AggFunc::CountDistinct,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
    ];

    /// Applies the aggregation function to a sequence of values
    /// (each value repeated according to its multiplicity by the caller).
    pub fn apply<'a, I>(&self, values: I) -> Value
    where
        I: IntoIterator<Item = &'a Value>,
    {
        match self {
            AggFunc::Count => {
                let n = values.into_iter().filter(|v| !v.is_null()).count();
                Value::Int(n as i64)
            }
            AggFunc::CountDistinct => {
                let mut distinct: Vec<&Value> = Vec::new();
                for v in values {
                    if !v.is_null() && !distinct.contains(&v) {
                        distinct.push(v);
                    }
                }
                Value::Int(distinct.len() as i64)
            }
            AggFunc::Sum => {
                let mut sum = 0.0;
                let mut any = false;
                let mut all_int = true;
                for v in values {
                    if let Some(x) = v.as_float() {
                        any = true;
                        sum += x;
                        if !matches!(v, Value::Int(_)) {
                            all_int = false;
                        }
                    }
                }
                if !any {
                    Value::Null
                } else if all_int {
                    Value::Int(sum.round() as i64)
                } else {
                    Value::Float(sum)
                }
            }
            AggFunc::Avg => {
                let mut sum = 0.0;
                let mut count = 0usize;
                for v in values {
                    if let Some(x) = v.as_float() {
                        sum += x;
                        count += 1;
                    }
                }
                if count == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / count as f64)
                }
            }
            AggFunc::Min => {
                values.into_iter().filter(|v| !v.is_null()).min().cloned().unwrap_or(Value::Null)
            }
            AggFunc::Max => {
                values.into_iter().filter(|v| !v.is_null()).max().cloned().unwrap_or(Value::Null)
            }
        }
    }

    /// Whether the result of this aggregation is numeric regardless of input
    /// (count variants), used for output-schema inference.
    pub fn always_int(&self) -> bool {
        matches!(self, AggFunc::Count | AggFunc::CountDistinct)
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "count",
            AggFunc::CountDistinct => "count(distinct)",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values() -> Vec<Value> {
        vec![Value::int(3), Value::int(1), Value::Null, Value::int(3), Value::float(2.5)]
    }

    #[test]
    fn count_and_count_distinct() {
        let vs = values();
        assert_eq!(AggFunc::Count.apply(vs.iter()), Value::Int(4));
        assert_eq!(AggFunc::CountDistinct.apply(vs.iter()), Value::Int(3));
        assert_eq!(AggFunc::Count.apply([].iter()), Value::Int(0));
        // Neither count is ever ⊥, so callers need no ⊥ → 0 fallback.
        assert_eq!(AggFunc::CountDistinct.apply([].iter()), Value::Int(0));
        assert_eq!(AggFunc::CountDistinct.apply([Value::Null].iter()), Value::Int(0));
    }

    #[test]
    fn sum_and_avg() {
        let vs = values();
        assert_eq!(AggFunc::Sum.apply(vs.iter()), Value::Float(9.5));
        let ints = [Value::int(2), Value::int(3)];
        assert_eq!(AggFunc::Sum.apply(ints.iter()), Value::Int(5));
        let avg = AggFunc::Avg.apply(vs.iter()).as_float().unwrap();
        assert!((avg - 9.5 / 4.0).abs() < 1e-9);
        assert_eq!(AggFunc::Sum.apply([].iter()), Value::Null);
        assert_eq!(AggFunc::Avg.apply([Value::Null].iter()), Value::Null);
    }

    #[test]
    fn min_and_max() {
        let vs = values();
        assert_eq!(AggFunc::Min.apply(vs.iter()), Value::int(1));
        assert_eq!(AggFunc::Max.apply(vs.iter()), Value::int(3));
        let strings = [Value::str("b"), Value::str("a")];
        assert_eq!(AggFunc::Min.apply(strings.iter()), Value::str("a"));
        assert_eq!(AggFunc::Max.apply([].iter()), Value::Null);
    }

    #[test]
    fn display_names() {
        assert_eq!(AggFunc::Sum.to_string(), "sum");
        assert_eq!(AggFunc::CountDistinct.to_string(), "count(distinct)");
        assert!(AggFunc::Count.always_int());
        assert!(!AggFunc::Sum.always_int());
    }
}
