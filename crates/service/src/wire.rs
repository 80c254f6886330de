//! The JSON wire format: encoders and decoders for nested values, schemas,
//! NIPs, expressions, plans, databases, attribute alternatives, and why-not
//! questions.
//!
//! Design rules (all of them exist to make round trips loss-free):
//!
//! * Tuples and tuple types become JSON **objects** (the parser preserves key
//!   order and rejects duplicates, matching the ordered, unique attributes of
//!   the data model); bags become JSON **arrays** with elements repeated by
//!   multiplicity.
//! * Integers and floats stay distinct (`2` vs `2.0` — see [`crate::json`]).
//! * NIP placeholders are the strings `"?"` and `"*"`; literal string values
//!   that would collide are escaped as `{"$str": ...}`, bounded leaves are
//!   `{"$cmp": ">=", "bound": ...}`, and literal tuple/bag values inside a NIP
//!   are `{"$value": ...}` so they stay distinguishable from structural NIPs.
//! * Expressions and operators are tagged objects (`{"attr": "year"}`,
//!   `{"op": "select", ...}`).
//! * Every enum on the wire (join kind, aggregation function, comparison, …)
//!   is one `WireNames` table that the encoder and the decoder both read.
//!
//! Decoders read every object field through one set of readers (`field`,
//! `optional`, `list` and the typed leaves below them), so a decode error's
//! path names the offending field or array index itself: a request without
//! `why_not` fails at `why_not`, a join without `kind` at `op/kind`, a bad
//! third row at `relations/<name>/rows/2`.
//!
//! The encodings here are **public API**: `docs/PROTOCOL.md` is the
//! human-facing reference for the request/response documents built from
//! them, and CI greps that file so every wire op, error kind, operator and
//! expression tag, and enum name stays documented.

use nested_data::{AttrPath, Bag, NestedType, Nip, NipCmp, PrimitiveType, Sym, TupleType, Value};
use nrab_algebra::expr::{ArithOp, CmpOp, Expr};
use nrab_algebra::{
    AggFunc, AggSpec, Database, FlattenKind, JoinKind, OpNode, Operator, ProjColumn, QueryPlan,
    RenamePair,
};
use whynot_core::AttributeAlternative;

use crate::error::{ServiceError, ServiceResult};
use crate::json::Json;

// ---------------------------------------------------------------------------
// Field readers
// ---------------------------------------------------------------------------

/// The error for a wire value of the wrong shape. Scalars are shown, larger
/// values by their kind.
pub(crate) fn expected(what: &str, json: &Json) -> ServiceError {
    let found = match json {
        Json::Str(_) | Json::Array(_) | Json::Object(_) => json.kind().to_string(),
        scalar => scalar.to_compact(),
    };
    ServiceError::decode(format!("expected {what}, found {found}"))
}

/// The fields of an object.
fn object(json: &Json) -> ServiceResult<&[(String, Json)]> {
    json.as_object().ok_or_else(|| expected("an object", json))
}

/// The elements of an array.
pub(crate) fn array(json: &Json) -> ServiceResult<&[Json]> {
    json.as_array().ok_or_else(|| expected("an array", json))
}

/// The value of `key` in the object `json`, if present.
fn member<'a>(json: &'a Json, key: &str) -> ServiceResult<Option<&'a Json>> {
    Ok(object(json)?.iter().find(|(k, _)| k == key).map(|(_, v)| v))
}

/// Reads the required field `key` of the object `json` with `decode`. A
/// missing field, and any error `decode` returns, is located at `key`.
pub(crate) fn field<'a, T>(
    json: &'a Json,
    key: &str,
    decode: impl FnOnce(&'a Json) -> ServiceResult<T>,
) -> ServiceResult<T> {
    let value =
        member(json, key)?.ok_or_else(|| ServiceError::decode("missing required field").at(key))?;
    decode(value).map_err(|e| e.at(key))
}

/// Reads the optional field `key` of the object `json` with `decode`; an
/// absent or `null` field is `None`. Errors are located at `key`.
pub(crate) fn optional<'a, T>(
    json: &'a Json,
    key: &str,
    decode: impl FnOnce(&'a Json) -> ServiceResult<T>,
) -> ServiceResult<Option<T>> {
    match member(json, key)? {
        None | Some(Json::Null) => Ok(None),
        Some(value) => decode(value).map(Some).map_err(|e| e.at(key)),
    }
}

/// Rejects the first key of the object `json` that `known` does not admit,
/// locating the error at that key: a misspelt optional field must fail the
/// request, not leave it at its default.
pub(crate) fn known_fields(json: &Json, known: impl Fn(&str) -> bool) -> ServiceResult<()> {
    match object(json)?.iter().find(|(key, _)| !known(key)) {
        Some((key, _)) => Err(ServiceError::decode(format!("unknown field `{key}`")).at(key)),
        None => Ok(()),
    }
}

/// Decodes every element of an array, locating an element's error at its
/// index.
pub(crate) fn list<'a, T>(
    json: &'a Json,
    mut decode: impl FnMut(&'a Json) -> ServiceResult<T>,
) -> ServiceResult<Vec<T>> {
    array(json)?.iter().enumerate().map(|(i, item)| decode(item).map_err(|e| e.at(i))).collect()
}

/// The elements of an array of exactly `N` elements; `shape` names them.
fn fixed<'a, const N: usize>(json: &'a Json, shape: &str) -> ServiceResult<&'a [Json; N]> {
    let items = array(json)?;
    items.try_into().map_err(|_| {
        ServiceError::decode(format!("expected {shape}, found {} elements", items.len()))
    })
}

/// Decodes every member of an object in order, locating a member's error at
/// its key.
fn members<'a, T>(
    fields: &'a [(String, Json)],
    mut decode: impl FnMut(&'a str, &'a Json) -> ServiceResult<T>,
) -> ServiceResult<Vec<T>> {
    fields.iter().map(|(key, value)| decode(key, value).map_err(|e| e.at(key))).collect()
}

/// A string.
pub(crate) fn string(json: &Json) -> ServiceResult<&str> {
    json.as_str().ok_or_else(|| expected("a string", json))
}

/// An integer `≥ 0`.
pub(crate) fn non_negative(json: &Json) -> ServiceResult<u64> {
    json.as_i64()
        .and_then(|i| u64::try_from(i).ok())
        .ok_or_else(|| expected("a non-negative integer", json))
}

/// An integer `≥ 1`.
pub(crate) fn positive(json: &Json) -> ServiceResult<usize> {
    json.as_i64()
        .and_then(|i| usize::try_from(i).ok())
        .filter(|n| *n > 0)
        .ok_or_else(|| expected("a positive integer", json))
}

/// Interns an attribute name arriving from untrusted wire input, refusing to
/// grow the process-global interner past its cap (each distinct name is
/// retained for the lifetime of the process).
fn intern_wire_name(name: &str) -> ServiceResult<Sym> {
    Sym::try_intern(name).ok_or_else(|| {
        ServiceError::decode(format!(
            "too many distinct attribute names; refusing to intern `{name}`"
        ))
    })
}

/// An attribute name (bounded interning), kept as a `String` for the
/// operator parameters that store one.
fn name(json: &Json) -> ServiceResult<String> {
    let name = string(json)?;
    intern_wire_name(name)?;
    Ok(name.to_string())
}

/// A list of attribute names.
fn names(json: &Json) -> ServiceResult<Vec<String>> {
    list(json, name)
}

/// A dotted attribute path, each segment interned with a bound.
fn attr_path(json: &Json) -> ServiceResult<AttrPath> {
    let segments = string(json)?
        .split('.')
        .filter(|s| !s.is_empty())
        .map(intern_wire_name)
        .collect::<ServiceResult<Vec<_>>>()?;
    Ok(AttrPath::new(segments))
}

// ---------------------------------------------------------------------------
// Enum name tables
// ---------------------------------------------------------------------------

/// The wire names of one enum: each variant with the string that stands for
/// it. The encoder and the decoder both read the one table.
pub(crate) struct WireNames<T: 'static> {
    /// What the enum is, for decode errors.
    what: &'static str,
    /// Each variant with its name.
    names: &'static [(T, &'static str)],
}

impl<T: Copy + PartialEq> WireNames<T> {
    /// The wire name of `value`.
    pub(crate) fn encode(&self, value: T) -> Json {
        let (_, name) = self
            .names
            .iter()
            .find(|(v, _)| *v == value)
            .expect("every variant of a wire enum has a name in its table");
        Json::str(*name)
    }

    /// The variant a wire name stands for.
    pub(crate) fn decode(&self, json: &Json) -> ServiceResult<T> {
        let name = string(json)?;
        match self.names.iter().find(|(_, n)| *n == name) {
            Some((value, _)) => Ok(*value),
            None => {
                let known: Vec<String> = self.names.iter().map(|(_, n)| format!("`{n}`")).collect();
                Err(ServiceError::decode(format!(
                    "unknown {} `{name}` (expected {})",
                    self.what,
                    known.join(", ")
                )))
            }
        }
    }
}

/// `engine`: whether a request reasons about schema alternatives (`RP`) or
/// not (`RPnoSA`).
pub(crate) const ENGINES: WireNames<bool> =
    WireNames { what: "engine", names: &[(true, "rp"), (false, "rp_no_sa")] };

const PRIMITIVE_TYPES: WireNames<PrimitiveType> = WireNames {
    what: "primitive type",
    names: &[
        (PrimitiveType::Int, "int"),
        (PrimitiveType::Str, "str"),
        (PrimitiveType::Bool, "bool"),
        (PrimitiveType::Float, "float"),
    ],
};

const NIP_CMPS: WireNames<NipCmp> = WireNames {
    what: "NIP comparison",
    names: &[
        (NipCmp::Lt, "<"),
        (NipCmp::Le, "<="),
        (NipCmp::Gt, ">"),
        (NipCmp::Ge, ">="),
        (NipCmp::Ne, "!="),
    ],
};

const CMP_OPS: WireNames<CmpOp> = WireNames {
    what: "comparison",
    names: &[
        (CmpOp::Eq, "="),
        (CmpOp::Ne, "!="),
        (CmpOp::Lt, "<"),
        (CmpOp::Le, "<="),
        (CmpOp::Gt, ">"),
        (CmpOp::Ge, ">="),
    ],
};

const ARITH_OPS: WireNames<ArithOp> = WireNames {
    what: "arithmetic operator",
    names: &[(ArithOp::Add, "+"), (ArithOp::Sub, "-"), (ArithOp::Mul, "*"), (ArithOp::Div, "/")],
};

const JOIN_KINDS: WireNames<JoinKind> = WireNames {
    what: "join kind",
    names: &[
        (JoinKind::Inner, "inner"),
        (JoinKind::Left, "left"),
        (JoinKind::Right, "right"),
        (JoinKind::Full, "full"),
    ],
};

const FLATTEN_KINDS: WireNames<FlattenKind> = WireNames {
    what: "flatten kind",
    names: &[(FlattenKind::Inner, "inner"), (FlattenKind::Outer, "outer")],
};

const AGG_FUNCS: WireNames<AggFunc> = WireNames {
    what: "aggregation function",
    names: &[
        (AggFunc::Count, "count"),
        (AggFunc::CountDistinct, "count_distinct"),
        (AggFunc::Sum, "sum"),
        (AggFunc::Avg, "avg"),
        (AggFunc::Min, "min"),
        (AggFunc::Max, "max"),
    ],
};

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

/// Encodes a nested value.
pub fn value_to_json(value: &Value) -> Json {
    match value {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::Int(*i),
        Value::Float(f) => Json::Float(*f),
        Value::Str(s) => Json::str(&**s),
        Value::Tuple(t) => Json::Object(
            t.fields().iter().map(|(n, v)| (n.as_str().to_string(), value_to_json(v))).collect(),
        ),
        Value::Bag(b) => {
            let mut items = Vec::with_capacity(b.total() as usize);
            for value in b.iter_expanded() {
                items.push(value_to_json(value));
            }
            Json::Array(items)
        }
    }
}

/// Decodes a nested value.
pub fn value_from_json(json: &Json) -> ServiceResult<Value> {
    Ok(match json {
        Json::Null => Value::Null,
        Json::Bool(b) => Value::Bool(*b),
        Json::Int(i) => Value::Int(*i),
        Json::Float(f) => Value::Float(*f),
        Json::Str(s) => Value::str(s.as_str()),
        Json::Object(fields) => Value::tuple(members(fields, |name, v| {
            Ok((intern_wire_name(name)?, value_from_json(v)?))
        })?),
        Json::Array(_) => Value::from_bag(Bag::from_values(list(json, value_from_json)?)),
    })
}

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

/// Encodes a nested type.
pub fn type_to_json(ty: &NestedType) -> Json {
    match ty {
        NestedType::Prim(p) => PRIMITIVE_TYPES.encode(*p),
        NestedType::Tuple(t) => Json::object([("tuple", tuple_type_to_json(t))]),
        NestedType::Relation(t) => Json::object([("relation", tuple_type_to_json(t))]),
    }
}

/// Encodes a tuple type as an ordered object.
pub fn tuple_type_to_json(ty: &TupleType) -> Json {
    Json::Object(
        ty.fields().iter().map(|(n, t)| (n.as_str().to_string(), type_to_json(t))).collect(),
    )
}

/// Decodes a nested type.
pub fn type_from_json(json: &Json) -> ServiceResult<NestedType> {
    match json {
        Json::Str(_) => PRIMITIVE_TYPES.decode(json).map(NestedType::Prim),
        Json::Object(fields) if fields.len() == 1 => match fields[0].0.as_str() {
            "tuple" => field(json, "tuple", tuple_type_from_json).map(NestedType::Tuple),
            "relation" => field(json, "relation", tuple_type_from_json).map(NestedType::Relation),
            other => Err(ServiceError::decode(format!("unknown type tag `{other}`")).at(other)),
        },
        other => Err(expected("a type", other)),
    }
}

/// Decodes a tuple type.
pub fn tuple_type_from_json(json: &Json) -> ServiceResult<TupleType> {
    let fields =
        members(object(json)?, |name, ty| Ok((intern_wire_name(name)?, type_from_json(ty)?)))?;
    TupleType::new(fields).map_err(|e| ServiceError::decode(e.to_string()))
}

// ---------------------------------------------------------------------------
// NIPs
// ---------------------------------------------------------------------------

/// Encodes a NIP.
pub fn nip_to_json(nip: &Nip) -> ServiceResult<Json> {
    Ok(match nip {
        Nip::Any => Json::str("?"),
        Nip::Star => Json::str("*"),
        Nip::Value(Value::Str(s)) if &**s == "?" || &**s == "*" => {
            Json::object([("$str", Json::str(&**s))])
        }
        Nip::Value(v @ (Value::Tuple(_) | Value::Bag(_))) => {
            Json::object([("$value", value_to_json(v))])
        }
        Nip::Value(v) => value_to_json(v),
        Nip::Pred(op, bound) => {
            Json::object([("$cmp", NIP_CMPS.encode(*op)), ("bound", value_to_json(bound))])
        }
        Nip::Tuple(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for (name, field) in fields {
                if name.starts_with('$') {
                    return Err(ServiceError::decode(format!(
                        "attribute name `{name}` collides with wire-format tags"
                    )));
                }
                out.push((name.as_str().to_string(), nip_to_json(field)?));
            }
            Json::Object(out)
        }
        Nip::Bag(elements) => {
            let mut out = Vec::with_capacity(elements.len());
            for element in elements {
                out.push(nip_to_json(element)?);
            }
            Json::Array(out)
        }
    })
}

/// Decodes a NIP.
pub fn nip_from_json(json: &Json) -> ServiceResult<Nip> {
    Ok(match json {
        Json::Str(s) if s == "?" => Nip::Any,
        Json::Str(s) if s == "*" => Nip::Star,
        Json::Object(fields) => match fields.iter().find(|(k, _)| k.starts_with('$')) {
            Some((tag, _)) => tagged_nip_from_json(json, fields, tag)?,
            None => Nip::Tuple(members(fields, |name, nip| {
                Ok((intern_wire_name(name)?, nip_from_json(nip)?))
            })?),
        },
        Json::Array(_) => Nip::Bag(list(json, nip_from_json)?),
        scalar => Nip::Value(value_from_json(scalar)?),
    })
}

/// Decodes a NIP object whose first `$` key is `tag` — a tagged leaf, whose
/// members may come in any order. An object that mixes a tag with other
/// keys (or carries two tags) is neither a leaf nor a tuple NIP, and fails
/// at its own path.
fn tagged_nip_from_json(json: &Json, fields: &[(String, Json)], tag: &str) -> ServiceResult<Nip> {
    let members: &[&str] = match tag {
        "$str" | "$value" => &[tag],
        "$cmp" => &["$cmp", "bound"],
        other => return Err(ServiceError::decode(format!("unknown NIP tag `{other}`")).at(other)),
    };
    if let Some((key, _)) = fields.iter().find(|(k, _)| !members.contains(&k.as_str())) {
        return Err(ServiceError::decode(format!(
            "a NIP object with tag `{tag}` cannot also hold `{key}`"
        )));
    }
    Ok(match tag {
        "$str" => Nip::Value(Value::str(field(json, "$str", string)?)),
        "$value" => Nip::Value(field(json, "$value", value_from_json)?),
        _ => Nip::Pred(
            field(json, "$cmp", |op| NIP_CMPS.decode(op))?,
            field(json, "bound", value_from_json)?,
        ),
    })
}

/// Decodes the `why_not` of a request: a tuple NIP (an object), or `"?"` for
/// any tuple. No other NIP can describe a tuple of a query result.
pub(crate) fn why_not_from_json(json: &Json) -> ServiceResult<Nip> {
    match json {
        Json::Object(_) => nip_from_json(json),
        Json::Str(s) if s == "?" => Ok(Nip::Any),
        other => Err(expected("a why-not tuple (an object or \"?\")", other)),
    }
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

/// Encodes a scalar expression.
pub fn expr_to_json(expr: &Expr) -> Json {
    match expr {
        Expr::Attr(path) => Json::object([("attr", Json::str(path.to_string()))]),
        Expr::Const(v) => Json::object([("const", value_to_json(v))]),
        Expr::Cmp(l, op, r) => Json::object([(
            "cmp",
            Json::array([expr_to_json(l), CMP_OPS.encode(*op), expr_to_json(r)]),
        )]),
        Expr::And(l, r) => Json::object([("and", Json::array([expr_to_json(l), expr_to_json(r)]))]),
        Expr::Or(l, r) => Json::object([("or", Json::array([expr_to_json(l), expr_to_json(r)]))]),
        Expr::Not(e) => Json::object([("not", expr_to_json(e))]),
        Expr::Contains(h, n) => {
            Json::object([("contains", Json::array([expr_to_json(h), expr_to_json(n)]))])
        }
        Expr::IsNull(e) => Json::object([("is_null", expr_to_json(e))]),
        Expr::Arith(l, op, r) => Json::object([(
            "arith",
            Json::array([expr_to_json(l), ARITH_OPS.encode(*op), expr_to_json(r)]),
        )]),
        Expr::Size(e) => Json::object([("size", expr_to_json(e))]),
    }
}

/// Decodes a scalar expression: a single-key object whose key is the tag.
pub fn expr_from_json(json: &Json) -> ServiceResult<Expr> {
    match json.as_object() {
        Some([(tag, _)]) => field(json, tag, |payload| tagged_expr_from_json(tag, payload)),
        _ => Err(expected("a single-key expression object", json)),
    }
}

/// Decodes the payload of an expression tagged `tag`.
fn tagged_expr_from_json(tag: &str, payload: &Json) -> ServiceResult<Expr> {
    let operand = |json: &Json, i: usize| expr_from_json(json).map_err(|e| e.at(i));
    Ok(match tag {
        "attr" => Expr::Attr(attr_path(payload)?),
        "const" => Expr::Const(value_from_json(payload)?),
        "cmp" => {
            let [l, op, r] = fixed::<3>(payload, "[left, op, right]")?;
            Expr::cmp(operand(l, 0)?, CMP_OPS.decode(op).map_err(|e| e.at(1))?, operand(r, 2)?)
        }
        "arith" => {
            let [l, op, r] = fixed::<3>(payload, "[left, op, right]")?;
            Expr::arith(operand(l, 0)?, ARITH_OPS.decode(op).map_err(|e| e.at(1))?, operand(r, 2)?)
        }
        "and" | "or" | "contains" => {
            let [l, r] = fixed::<2>(payload, "[left, right]")?;
            let (l, r) = (operand(l, 0)?, operand(r, 1)?);
            match tag {
                "and" => Expr::and(l, r),
                "or" => Expr::or(l, r),
                _ => Expr::contains(l, r),
            }
        }
        "not" => Expr::not(expr_from_json(payload)?),
        "is_null" => Expr::is_null(expr_from_json(payload)?),
        "size" => Expr::size(expr_from_json(payload)?),
        other => return Err(ServiceError::decode(format!("unknown expression tag `{other}`"))),
    })
}

// ---------------------------------------------------------------------------
// Operators and plans
// ---------------------------------------------------------------------------

fn opt_str_to_json(s: &Option<String>) -> Json {
    match s {
        Some(s) => Json::str(s.clone()),
        None => Json::Null,
    }
}

fn str_list_to_json(items: &[String]) -> Json {
    Json::Array(items.iter().map(|s| Json::str(s.clone())).collect())
}

/// Encodes an operator.
pub fn operator_to_json(op: &Operator) -> Json {
    match op {
        Operator::TableAccess { table } => {
            Json::object([("op", Json::str("table")), ("table", Json::str(table.clone()))])
        }
        Operator::Projection { columns } => Json::object([
            ("op", Json::str("project")),
            (
                "columns",
                Json::Array(
                    columns
                        .iter()
                        .map(|c| {
                            Json::object([
                                ("name", Json::str(c.name.clone())),
                                ("expr", expr_to_json(&c.expr)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        Operator::Rename { pairs } => Json::object([
            ("op", Json::str("rename")),
            (
                "pairs",
                Json::Array(
                    pairs
                        .iter()
                        .map(|p| {
                            Json::object([
                                ("from", Json::str(p.from.clone())),
                                ("to", Json::str(p.to.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        Operator::Selection { predicate } => {
            Json::object([("op", Json::str("select")), ("predicate", expr_to_json(predicate))])
        }
        Operator::Join { kind, predicate } => Json::object([
            ("op", Json::str("join")),
            ("kind", JOIN_KINDS.encode(*kind)),
            ("predicate", expr_to_json(predicate)),
        ]),
        Operator::CrossProduct => Json::object([("op", Json::str("cross"))]),
        Operator::TupleFlatten { source, alias } => Json::object([
            ("op", Json::str("tuple_flatten")),
            ("source", Json::str(source.to_string())),
            ("alias", opt_str_to_json(alias)),
        ]),
        Operator::Flatten { kind, attr, alias } => Json::object([
            ("op", Json::str("flatten")),
            ("kind", FLATTEN_KINDS.encode(*kind)),
            ("attr", Json::str(attr.clone())),
            ("alias", opt_str_to_json(alias)),
        ]),
        Operator::TupleNest { attrs, into } => Json::object([
            ("op", Json::str("tuple_nest")),
            ("attrs", str_list_to_json(attrs)),
            ("into", Json::str(into.clone())),
        ]),
        Operator::RelationNest { attrs, into } => Json::object([
            ("op", Json::str("relation_nest")),
            ("attrs", str_list_to_json(attrs)),
            ("into", Json::str(into.clone())),
        ]),
        Operator::NestAggregation { func, attr, field, output } => Json::object([
            ("op", Json::str("nest_agg")),
            ("func", AGG_FUNCS.encode(*func)),
            ("attr", Json::str(attr.clone())),
            ("field", opt_str_to_json(field)),
            ("output", Json::str(output.clone())),
        ]),
        Operator::GroupAggregation { group_by, aggs } => Json::object([
            ("op", Json::str("group_agg")),
            ("group_by", str_list_to_json(group_by)),
            (
                "aggs",
                Json::Array(
                    aggs.iter()
                        .map(|a| {
                            Json::object([
                                ("func", AGG_FUNCS.encode(a.func)),
                                ("input", expr_to_json(&a.input)),
                                ("output", Json::str(a.output.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        Operator::Union => Json::object([("op", Json::str("union"))]),
        Operator::Difference => Json::object([("op", Json::str("difference"))]),
        Operator::Dedup => Json::object([("op", Json::str("dedup"))]),
    }
}

/// Decodes an operator. Each tag admits `op` and its own parameters; any
/// other key is a decode error at that key.
pub fn operator_from_json(json: &Json) -> ServiceResult<Operator> {
    let (parameters, operator): (&[&str], _) = match field(json, "op", string)? {
        "table" => {
            (&["table"], Operator::TableAccess { table: field(json, "table", string)?.to_string() })
        }
        "project" => (
            &["columns"],
            Operator::Projection {
                columns: field(json, "columns", |columns| {
                    list(columns, |c| {
                        known_fields(c, |key| ["name", "expr"].contains(&key))?;
                        Ok(ProjColumn {
                            name: field(c, "name", name)?,
                            expr: field(c, "expr", expr_from_json)?,
                        })
                    })
                })?,
            },
        ),
        "rename" => (
            &["pairs"],
            Operator::Rename {
                pairs: field(json, "pairs", |pairs| {
                    list(pairs, |p| {
                        known_fields(p, |key| ["from", "to"].contains(&key))?;
                        Ok(RenamePair::new(field(p, "from", name)?, field(p, "to", name)?))
                    })
                })?,
            },
        ),
        "select" => (
            &["predicate"],
            Operator::Selection { predicate: field(json, "predicate", expr_from_json)? },
        ),
        "join" => (
            &["kind", "predicate"],
            Operator::Join {
                kind: field(json, "kind", |kind| JOIN_KINDS.decode(kind))?,
                predicate: field(json, "predicate", expr_from_json)?,
            },
        ),
        "cross" => (&[], Operator::CrossProduct),
        "tuple_flatten" => (
            &["source", "alias"],
            Operator::TupleFlatten {
                source: field(json, "source", attr_path)?,
                alias: optional(json, "alias", name)?,
            },
        ),
        "flatten" => (
            &["kind", "attr", "alias"],
            Operator::Flatten {
                kind: field(json, "kind", |kind| FLATTEN_KINDS.decode(kind))?,
                attr: field(json, "attr", name)?,
                alias: optional(json, "alias", name)?,
            },
        ),
        "tuple_nest" => (
            &["attrs", "into"],
            Operator::TupleNest {
                attrs: field(json, "attrs", names)?,
                into: field(json, "into", name)?,
            },
        ),
        "relation_nest" => (
            &["attrs", "into"],
            Operator::RelationNest {
                attrs: field(json, "attrs", names)?,
                into: field(json, "into", name)?,
            },
        ),
        "nest_agg" => (
            &["func", "attr", "field", "output"],
            Operator::NestAggregation {
                func: field(json, "func", |func| AGG_FUNCS.decode(func))?,
                attr: field(json, "attr", name)?,
                field: optional(json, "field", name)?,
                output: field(json, "output", name)?,
            },
        ),
        "group_agg" => (
            &["group_by", "aggs"],
            Operator::GroupAggregation {
                group_by: field(json, "group_by", names)?,
                aggs: field(json, "aggs", |aggs| {
                    list(aggs, |a| {
                        known_fields(a, |key| ["func", "input", "output"].contains(&key))?;
                        Ok(AggSpec::new(
                            field(a, "func", |func| AGG_FUNCS.decode(func))?,
                            field(a, "input", expr_from_json)?,
                            field(a, "output", name)?,
                        ))
                    })
                })?,
            },
        ),
        "union" => (&[], Operator::Union),
        "difference" => (&[], Operator::Difference),
        "dedup" => (&[], Operator::Dedup),
        other => {
            return Err(ServiceError::decode(format!("unknown operator tag `{other}`")).at("op"))
        }
    };
    known_fields(json, |key| key == "op" || parameters.contains(&key))?;
    Ok(operator)
}

fn node_to_json(node: &OpNode) -> Json {
    Json::object([
        ("id", Json::Int(node.id as i64)),
        ("op", operator_to_json(&node.op)),
        ("inputs", Json::Array(node.inputs.iter().map(node_to_json).collect())),
    ])
}

fn node_from_json(json: &Json) -> ServiceResult<OpNode> {
    known_fields(json, |key| ["id", "op", "inputs"].contains(&key))?;
    let id = field(json, "id", |id| {
        u32::try_from(non_negative(id)?).map_err(|_| expected("a 32-bit operator id", id))
    })?;
    let op = field(json, "op", operator_from_json)?;
    let inputs = optional(json, "inputs", |inputs| list(inputs, node_from_json))?;
    Ok(OpNode::new(id, op, inputs.unwrap_or_default()))
}

/// Encodes a query plan (as its root operator node).
pub fn plan_to_json(plan: &QueryPlan) -> Json {
    node_to_json(&plan.root)
}

/// Decodes and structurally validates a query plan.
pub fn plan_from_json(json: &Json) -> ServiceResult<QueryPlan> {
    let root = node_from_json(json)?;
    QueryPlan::new(root).map_err(ServiceError::Algebra)
}

// ---------------------------------------------------------------------------
// Databases
// ---------------------------------------------------------------------------

/// Encodes a database: `{"relations": {name: {"schema": ..., "rows": [...]}}}`.
pub fn database_to_json(db: &Database) -> Json {
    let mut relations = Vec::new();
    for name in db.relation_names() {
        let schema = db.schema(name).expect("listed relation has a schema");
        let rows = db.relation(name).expect("listed relation has data");
        let mut row_items = Vec::with_capacity(rows.total() as usize);
        for value in rows.iter_expanded() {
            row_items.push(value_to_json(value));
        }
        relations.push((
            name.to_string(),
            Json::object([
                ("schema", tuple_type_to_json(schema)),
                ("rows", Json::Array(row_items)),
            ]),
        ));
    }
    Json::object([("relations", Json::Object(relations))])
}

/// Decodes a database, validating every row against its relation schema.
pub fn database_from_json(json: &Json) -> ServiceResult<Database> {
    known_fields(json, |key| key == "relations")?;
    let mut db = Database::new();
    field(json, "relations", |relations| {
        members(object(relations)?, |name, relation| {
            known_fields(relation, |key| ["schema", "rows"].contains(&key))?;
            let schema = field(relation, "schema", tuple_type_from_json)?;
            let row_type = NestedType::Tuple(schema.clone());
            let rows = field(relation, "rows", |rows| {
                list(rows, |row| {
                    let value = value_from_json(row)?;
                    if !value.conforms_to(&row_type) {
                        return Err(ServiceError::decode(format!(
                            "row does not conform to relation schema {schema}"
                        )));
                    }
                    Ok(value)
                })
            })?;
            db.add_relation(name, schema, Bag::from_values(rows));
            Ok(())
        })
    })?;
    Ok(db)
}

// ---------------------------------------------------------------------------
// Attribute alternatives
// ---------------------------------------------------------------------------

/// Encodes an attribute alternative.
pub fn alternative_to_json(alt: &AttributeAlternative) -> Json {
    Json::object([
        ("relation", Json::str(alt.relation.clone())),
        ("from", Json::str(alt.from.to_string())),
        ("to", Json::str(alt.to.to_string())),
    ])
}

/// Decodes an attribute alternative.
pub fn alternative_from_json(json: &Json) -> ServiceResult<AttributeAlternative> {
    known_fields(json, |key| ["relation", "from", "to"].contains(&key))?;
    Ok(AttributeAlternative::new(
        field(json, "relation", string)?,
        field(json, "from", attr_path)?,
        field(json, "to", attr_path)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrab_algebra::PlanBuilder;

    fn person_db() -> Database {
        let address =
            TupleType::new([("city", NestedType::str()), ("year", NestedType::int())]).unwrap();
        let person_ty = TupleType::new([
            ("name", NestedType::str()),
            ("address1", NestedType::Relation(address.clone())),
            ("address2", NestedType::Relation(address)),
        ])
        .unwrap();
        let addr = |city: &str, year: i64| {
            Value::tuple([("city", Value::str(city)), ("year", Value::int(year))])
        };
        let peter = Value::tuple([
            ("name", Value::str("Peter")),
            ("address1", Value::bag([addr("NY", 2010), addr("LA", 2019)])),
            ("address2", Value::bag([addr("LA", 2010), addr("SF", 2018)])),
        ]);
        let mut db = Database::new();
        db.add_relation("person", person_ty, Bag::from_values([peter]));
        db
    }

    #[test]
    fn value_round_trip_with_multiplicities() {
        let v = Value::from_bag(Bag::from_entries([
            (Value::tuple([("x", Value::int(1))]), 3),
            (Value::tuple([("x", Value::Null)]), 1),
        ]));
        let json = value_to_json(&v);
        assert_eq!(json.as_array().unwrap().len(), 4);
        assert_eq!(value_from_json(&json).unwrap(), v);
    }

    #[test]
    fn int_float_values_stay_distinct() {
        let int = value_to_json(&Value::int(2)).to_compact();
        let float = value_to_json(&Value::float(2.0)).to_compact();
        assert_eq!(int, "2");
        assert_eq!(float, "2.0");
        assert!(matches!(value_from_json(&Json::parse(&int).unwrap()).unwrap(), Value::Int(2)));
        assert!(matches!(value_from_json(&Json::parse(&float).unwrap()).unwrap(), Value::Float(_)));
    }

    #[test]
    fn nip_round_trip_with_placeholders_and_escapes() {
        let nip = Nip::tuple([
            ("city", Nip::val("NY")),
            ("weird", Nip::Value(Value::str("?"))),
            ("bound", Nip::pred(NipCmp::Ge, 2i64)),
            ("nList", Nip::bag([Nip::Any, Nip::Star])),
            ("exact", Nip::Value(Value::tuple([("a", Value::int(1))]))),
        ]);
        let json = nip_to_json(&nip).unwrap();
        let text = json.to_pretty();
        assert_eq!(nip_from_json(&Json::parse(&text).unwrap()).unwrap(), nip);
    }

    #[test]
    fn every_variant_has_one_wire_name() {
        fn one_name_each<T: Copy + PartialEq + std::fmt::Debug>(table: &WireNames<T>, all: &[T]) {
            assert_eq!(table.names.len(), all.len(), "{}", table.what);
            for &variant in all {
                let decoded = table.decode(&table.encode(variant)).unwrap();
                assert_eq!(decoded, variant, "{}", table.what);
            }
        }
        one_name_each(&AGG_FUNCS, &AggFunc::ALL);
        one_name_each(&CMP_OPS, &CmpOp::ALL);
        one_name_each(&JOIN_KINDS, &JoinKind::ALL);
        one_name_each(&ARITH_OPS, &[ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div]);
        one_name_each(&FLATTEN_KINDS, &[FlattenKind::Inner, FlattenKind::Outer]);
        one_name_each(&ENGINES, &[true, false]);
        let nip_cmps = [NipCmp::Lt, NipCmp::Le, NipCmp::Gt, NipCmp::Ge, NipCmp::Ne];
        one_name_each(&NIP_CMPS, &nip_cmps);
        let primitives =
            [PrimitiveType::Int, PrimitiveType::Str, PrimitiveType::Bool, PrimitiveType::Float];
        one_name_each(&PRIMITIVE_TYPES, &primitives);
    }

    #[test]
    fn a_cmp_nip_without_bound_is_a_decode_error_at_bound() {
        let json = Json::parse(r#"{"city": {"$cmp": ">="}}"#).unwrap();
        let error = nip_from_json(&json).unwrap_err();
        let ServiceError::Decode(decode) = &error else { panic!("a decode error: {error}") };
        assert_eq!(decode.pointer(), "city/bound");
    }

    #[test]
    fn plan_round_trip_running_example() {
        let plan = PlanBuilder::table("person")
            .inner_flatten("address2", None)
            .select(Expr::attr_cmp("year", CmpOp::Ge, 2019i64))
            .project_attrs(&["name", "city"])
            .relation_nest(vec!["name"], "nList")
            .build()
            .unwrap();
        let json = plan_to_json(&plan);
        let decoded = plan_from_json(&Json::parse(&json.to_pretty()).unwrap()).unwrap();
        assert_eq!(decoded, plan);
    }

    #[test]
    fn database_round_trip_and_validation() {
        let db = person_db();
        let json = database_to_json(&db);
        let decoded = database_from_json(&Json::parse(&json.to_pretty()).unwrap()).unwrap();
        assert_eq!(decoded, db);

        // A row violating the schema is rejected.
        let bad = Json::parse(
            r#"{"relations": {"r": {"schema": {"x": "int"}, "rows": [{"x": "oops"}]}}}"#,
        )
        .unwrap();
        assert!(database_from_json(&bad).is_err());
    }

    #[test]
    fn operator_round_trip_all_variants() {
        let ops = vec![
            Operator::TableAccess { table: "t".into() },
            Operator::Projection {
                columns: vec![
                    ProjColumn::passthrough("a"),
                    ProjColumn::computed(
                        "d",
                        Expr::arith(Expr::attr("p"), ArithOp::Mul, Expr::lit(2.0)),
                    ),
                ],
            },
            Operator::Rename { pairs: vec![RenamePair::new("a", "b")] },
            Operator::Selection {
                predicate: Expr::and(
                    Expr::attr_cmp("year", CmpOp::Ge, 2019i64),
                    Expr::or(
                        Expr::contains(Expr::attr("text"), Expr::lit("BTS")),
                        Expr::not(Expr::is_null(Expr::attr("x"))),
                    ),
                ),
            },
            Operator::Join {
                kind: JoinKind::Left,
                predicate: Expr::cmp(Expr::attr("a"), CmpOp::Eq, Expr::attr("b")),
            },
            Operator::CrossProduct,
            Operator::TupleFlatten {
                source: AttrPath::parse("place.country"),
                alias: Some("country".into()),
            },
            Operator::Flatten { kind: FlattenKind::Outer, attr: "xs".into(), alias: None },
            Operator::TupleNest { attrs: vec!["a".into()], into: "t".into() },
            Operator::RelationNest { attrs: vec!["a".into(), "b".into()], into: "r".into() },
            Operator::NestAggregation {
                func: AggFunc::CountDistinct,
                attr: "xs".into(),
                field: Some("id".into()),
                output: "n".into(),
            },
            Operator::GroupAggregation {
                group_by: vec!["k".into()],
                aggs: vec![AggSpec::new(AggFunc::Sum, Expr::size(Expr::attr("xs")), "s")],
            },
            Operator::Union,
            Operator::Difference,
            Operator::Dedup,
        ];
        for op in ops {
            let json = operator_to_json(&op);
            let text = json.to_compact();
            let decoded = operator_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(decoded, op, "round trip failed for {text}");
        }
    }

    #[test]
    fn alternative_round_trip() {
        let alt = AttributeAlternative::new("person", "address2", "address1");
        let decoded = alternative_from_json(&alternative_to_json(&alt)).unwrap();
        assert_eq!(decoded, alt);
    }
}
