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
//!
//! The encodings here are **public API**: `docs/PROTOCOL.md` is the
//! human-facing reference for the request/response documents built from
//! them, and CI greps that file so every wire op and stable error kind
//! stays documented.

use nested_data::{AttrPath, Bag, NestedType, Nip, NipCmp, TupleType, Value};
use nrab_algebra::expr::{ArithOp, CmpOp, Expr};
use nrab_algebra::{
    AggFunc, AggSpec, Database, FlattenKind, JoinKind, OpNode, Operator, ProjColumn, QueryPlan,
    RenamePair,
};
use whynot_core::AttributeAlternative;

use crate::error::{ServiceError, ServiceResult};
use crate::json::Json;

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

/// Interns an attribute name arriving from untrusted wire input, refusing to
/// grow the process-global interner past its cap (each distinct name is
/// retained for the lifetime of the process).
fn intern_wire_name(name: &str) -> ServiceResult<nested_data::Sym> {
    nested_data::Sym::try_intern(name).ok_or_else(|| {
        ServiceError::decode(format!(
            "too many distinct attribute names; refusing to intern `{name}`"
        ))
    })
}

/// Validates an attribute name from untrusted wire input (bounded interning),
/// passing the string through for operator parameters that store `String`s.
fn wire_name(name: &str) -> ServiceResult<&str> {
    intern_wire_name(name)?;
    Ok(name)
}

/// Parses a dotted attribute path from untrusted wire input with bounded
/// interning of each segment.
fn wire_attr_path(path: &str) -> ServiceResult<AttrPath> {
    let segments = path
        .split('.')
        .filter(|s| !s.is_empty())
        .map(intern_wire_name)
        .collect::<ServiceResult<Vec<_>>>()?;
    Ok(AttrPath::new(segments))
}

/// Decodes a nested value.
pub fn value_from_json(json: &Json) -> ServiceResult<Value> {
    Ok(match json {
        Json::Null => Value::Null,
        Json::Bool(b) => Value::Bool(*b),
        Json::Int(i) => Value::Int(*i),
        Json::Float(f) => Value::Float(*f),
        Json::Str(s) => Value::str(s.as_str()),
        Json::Object(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for (name, v) in fields {
                out.push((intern_wire_name(name)?, value_from_json(v).map_err(|e| e.at(name))?));
            }
            Value::tuple(out)
        }
        Json::Array(items) => {
            let mut values = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                values.push(value_from_json(item).map_err(|e| e.at(i))?);
            }
            Value::from_bag(Bag::from_values(values))
        }
    })
}

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

/// Encodes a nested type.
pub fn type_to_json(ty: &NestedType) -> Json {
    match ty {
        NestedType::Prim(p) => Json::str(p.to_string()),
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
        Json::Str(s) => match s.as_str() {
            "int" => Ok(NestedType::int()),
            "str" => Ok(NestedType::str()),
            "bool" => Ok(NestedType::bool()),
            "float" => Ok(NestedType::float()),
            other => Err(ServiceError::decode(format!("unknown primitive type `{other}`"))),
        },
        Json::Object(fields) if fields.len() == 1 => {
            let (tag, payload) = &fields[0];
            let tuple_ty = tuple_type_from_json(payload)?;
            match tag.as_str() {
                "tuple" => Ok(NestedType::Tuple(tuple_ty)),
                "relation" => Ok(NestedType::Relation(tuple_ty)),
                other => Err(ServiceError::decode(format!("unknown type tag `{other}`"))),
            }
        }
        other => Err(ServiceError::decode(format!("expected a type, found {}", other.kind()))),
    }
}

/// Decodes a tuple type.
pub fn tuple_type_from_json(json: &Json) -> ServiceResult<TupleType> {
    let fields =
        json.as_object().ok_or_else(|| ServiceError::decode("tuple type must be an object"))?;
    let mut out = Vec::with_capacity(fields.len());
    for (name, ty) in fields {
        out.push((intern_wire_name(name)?, type_from_json(ty)?));
    }
    TupleType::new(out).map_err(|e| ServiceError::decode(e.to_string()))
}

// ---------------------------------------------------------------------------
// NIPs
// ---------------------------------------------------------------------------

fn nip_cmp_symbol(op: NipCmp) -> &'static str {
    match op {
        NipCmp::Lt => "<",
        NipCmp::Le => "<=",
        NipCmp::Gt => ">",
        NipCmp::Ge => ">=",
        NipCmp::Ne => "!=",
    }
}

fn nip_cmp_from_symbol(s: &str) -> ServiceResult<NipCmp> {
    match s {
        "<" => Ok(NipCmp::Lt),
        "<=" => Ok(NipCmp::Le),
        ">" => Ok(NipCmp::Gt),
        ">=" => Ok(NipCmp::Ge),
        "!=" => Ok(NipCmp::Ne),
        other => Err(ServiceError::decode(format!("unknown NIP comparison `{other}`"))),
    }
}

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
        Nip::Pred(op, bound) => Json::object([
            ("$cmp", Json::str(nip_cmp_symbol(*op))),
            ("bound", value_to_json(bound)),
        ]),
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
        Json::Null | Json::Bool(_) | Json::Int(_) | Json::Float(_) | Json::Str(_) => {
            Nip::Value(value_from_json(json)?)
        }
        Json::Object(fields)
            if fields.first().map(|(k, _)| k.starts_with('$')).unwrap_or(false) =>
        {
            match fields[0].0.as_str() {
                "$str" => Nip::Value(Value::str(
                    fields[0]
                        .1
                        .as_str()
                        .ok_or_else(|| ServiceError::decode("$str payload must be a string"))?,
                )),
                "$value" => Nip::Value(value_from_json(&fields[0].1).map_err(|e| e.at("$value"))?),
                "$cmp" => {
                    let op =
                        nip_cmp_from_symbol(fields[0].1.as_str().ok_or_else(|| {
                            ServiceError::decode("$cmp payload must be a string")
                        })?)?;
                    let bound =
                        value_from_json(json.get_required("bound")?).map_err(|e| e.at("bound"))?;
                    Nip::Pred(op, bound)
                }
                other => {
                    return Err(ServiceError::decode(format!("unknown NIP tag `{other}`")));
                }
            }
        }
        Json::Object(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for (name, field) in fields {
                out.push((intern_wire_name(name)?, nip_from_json(field).map_err(|e| e.at(name))?));
            }
            Nip::Tuple(out)
        }
        Json::Array(items) => {
            let mut out = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                out.push(nip_from_json(item).map_err(|e| e.at(i))?);
            }
            Nip::Bag(out)
        }
    })
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

fn cmp_symbol(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Ne => "!=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

fn cmp_from_symbol(s: &str) -> ServiceResult<CmpOp> {
    match s {
        "=" => Ok(CmpOp::Eq),
        "!=" => Ok(CmpOp::Ne),
        "<" => Ok(CmpOp::Lt),
        "<=" => Ok(CmpOp::Le),
        ">" => Ok(CmpOp::Gt),
        ">=" => Ok(CmpOp::Ge),
        other => Err(ServiceError::decode(format!("unknown comparison `{other}`"))),
    }
}

fn arith_symbol(op: ArithOp) -> &'static str {
    match op {
        ArithOp::Add => "+",
        ArithOp::Sub => "-",
        ArithOp::Mul => "*",
        ArithOp::Div => "/",
    }
}

fn arith_from_symbol(s: &str) -> ServiceResult<ArithOp> {
    match s {
        "+" => Ok(ArithOp::Add),
        "-" => Ok(ArithOp::Sub),
        "*" => Ok(ArithOp::Mul),
        "/" => Ok(ArithOp::Div),
        other => Err(ServiceError::decode(format!("unknown arithmetic operator `{other}`"))),
    }
}

/// Encodes a scalar expression.
pub fn expr_to_json(expr: &Expr) -> Json {
    match expr {
        Expr::Attr(path) => Json::object([("attr", Json::str(path.to_string()))]),
        Expr::Const(v) => Json::object([("const", value_to_json(v))]),
        Expr::Cmp(l, op, r) => Json::object([(
            "cmp",
            Json::array([expr_to_json(l), Json::str(cmp_symbol(*op)), expr_to_json(r)]),
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
            Json::array([expr_to_json(l), Json::str(arith_symbol(*op)), expr_to_json(r)]),
        )]),
        Expr::Size(e) => Json::object([("size", expr_to_json(e))]),
    }
}

fn binary_operands<'a>(json: &'a Json, tag: &str) -> ServiceResult<(&'a Json, &'a Json)> {
    let items = json
        .as_array()
        .filter(|a| a.len() == 2)
        .ok_or_else(|| ServiceError::decode(format!("`{tag}` expects [left, right]")))?;
    Ok((&items[0], &items[1]))
}

/// Decodes a scalar expression.
pub fn expr_from_json(json: &Json) -> ServiceResult<Expr> {
    let fields = json.as_object().filter(|f| f.len() == 1).ok_or_else(|| {
        ServiceError::decode(format!(
            "expected a single-key expression object, found {}",
            json.kind()
        ))
    })?;
    let (tag, payload) = &fields[0];
    Ok(match tag.as_str() {
        "attr" => Expr::Attr(wire_attr_path(
            payload.as_str().ok_or_else(|| ServiceError::decode("`attr` expects a path string"))?,
        )?),
        "const" => Expr::Const(value_from_json(payload)?),
        "cmp" | "arith" => {
            let items = payload.as_array().filter(|a| a.len() == 3).ok_or_else(|| {
                ServiceError::decode(format!("`{tag}` expects [left, op, right]"))
            })?;
            let op = items[1].as_str().ok_or_else(|| {
                ServiceError::decode(format!("`{tag}` operator must be a string"))
            })?;
            let (l, r) = (expr_from_json(&items[0])?, expr_from_json(&items[2])?);
            if tag == "cmp" {
                Expr::cmp(l, cmp_from_symbol(op)?, r)
            } else {
                Expr::arith(l, arith_from_symbol(op)?, r)
            }
        }
        "and" => {
            let (l, r) = binary_operands(payload, "and")?;
            Expr::and(expr_from_json(l)?, expr_from_json(r)?)
        }
        "or" => {
            let (l, r) = binary_operands(payload, "or")?;
            Expr::or(expr_from_json(l)?, expr_from_json(r)?)
        }
        "not" => Expr::not(expr_from_json(payload)?),
        "contains" => {
            let (h, n) = binary_operands(payload, "contains")?;
            Expr::contains(expr_from_json(h)?, expr_from_json(n)?)
        }
        "is_null" => Expr::is_null(expr_from_json(payload)?),
        "size" => Expr::size(expr_from_json(payload)?),
        other => return Err(ServiceError::decode(format!("unknown expression tag `{other}`"))),
    })
}

// ---------------------------------------------------------------------------
// Operators and plans
// ---------------------------------------------------------------------------

fn join_kind_name(kind: JoinKind) -> &'static str {
    match kind {
        JoinKind::Inner => "inner",
        JoinKind::Left => "left",
        JoinKind::Right => "right",
        JoinKind::Full => "full",
    }
}

fn join_kind_from_name(s: &str) -> ServiceResult<JoinKind> {
    match s {
        "inner" => Ok(JoinKind::Inner),
        "left" => Ok(JoinKind::Left),
        "right" => Ok(JoinKind::Right),
        "full" => Ok(JoinKind::Full),
        other => Err(ServiceError::decode(format!("unknown join kind `{other}`"))),
    }
}

fn agg_func_name(func: AggFunc) -> &'static str {
    match func {
        AggFunc::Count => "count",
        AggFunc::CountDistinct => "count_distinct",
        AggFunc::Sum => "sum",
        AggFunc::Avg => "avg",
        AggFunc::Min => "min",
        AggFunc::Max => "max",
    }
}

fn agg_func_from_name(s: &str) -> ServiceResult<AggFunc> {
    match s {
        "count" => Ok(AggFunc::Count),
        "count_distinct" => Ok(AggFunc::CountDistinct),
        "sum" => Ok(AggFunc::Sum),
        "avg" => Ok(AggFunc::Avg),
        "min" => Ok(AggFunc::Min),
        "max" => Ok(AggFunc::Max),
        other => Err(ServiceError::decode(format!("unknown aggregation function `{other}`"))),
    }
}

fn opt_str_to_json(s: &Option<String>) -> Json {
    match s {
        Some(s) => Json::str(s.clone()),
        None => Json::Null,
    }
}

fn opt_str_from_json(json: &Json, what: &str) -> ServiceResult<Option<String>> {
    match json {
        Json::Null => Ok(None),
        // Aliases and field selectors are attribute names: bounded interning.
        Json::Str(s) => Ok(Some(wire_name(s)?.to_string())),
        other => Err(ServiceError::decode(format!(
            "{what} must be a string or null, found {}",
            other.kind()
        ))),
    }
}

fn str_list_to_json(items: &[String]) -> Json {
    Json::Array(items.iter().map(|s| Json::str(s.clone())).collect())
}

fn str_list_from_json(json: &Json, what: &str) -> ServiceResult<Vec<String>> {
    let items = json
        .as_array()
        .ok_or_else(|| ServiceError::decode(format!("{what} must be an array of strings")))?;
    items
        .iter()
        .map(|item| {
            // These lists carry attribute names: bounded interning.
            item.as_str()
                .ok_or_else(|| ServiceError::decode(format!("{what} must be an array of strings")))
                .and_then(|s| Ok(wire_name(s)?.to_string()))
        })
        .collect()
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
            ("kind", Json::str(join_kind_name(*kind))),
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
            (
                "kind",
                Json::str(match kind {
                    FlattenKind::Inner => "inner",
                    FlattenKind::Outer => "outer",
                }),
            ),
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
            ("func", Json::str(agg_func_name(*func))),
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
                                ("func", Json::str(agg_func_name(a.func))),
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

fn required_str<'a>(json: &'a Json, key: &str) -> ServiceResult<&'a str> {
    json.get_required(key)
        .map_err(|e| ServiceError::decode(e.to_string()))?
        .as_str()
        .ok_or_else(|| ServiceError::decode(format!("`{key}` must be a string")))
}

/// Decodes an operator.
pub fn operator_from_json(json: &Json) -> ServiceResult<Operator> {
    let tag = required_str(json, "op")?;
    Ok(match tag {
        "table" => Operator::TableAccess { table: required_str(json, "table")?.to_string() },
        "project" => {
            let columns = json
                .get_required("columns")
                .map_err(|e| ServiceError::decode(e.to_string()))?
                .as_array()
                .ok_or_else(|| ServiceError::decode("`columns` must be an array"))?
                .iter()
                .map(|c| {
                    Ok(ProjColumn {
                        name: wire_name(required_str(c, "name")?)?.to_string(),
                        expr: expr_from_json(
                            c.get_required("expr")
                                .map_err(|e| ServiceError::decode(e.to_string()))?,
                        )?,
                    })
                })
                .collect::<ServiceResult<Vec<_>>>()?;
            Operator::Projection { columns }
        }
        "rename" => {
            let pairs = json
                .get_required("pairs")
                .map_err(|e| ServiceError::decode(e.to_string()))?
                .as_array()
                .ok_or_else(|| ServiceError::decode("`pairs` must be an array"))?
                .iter()
                .map(|p| {
                    Ok(RenamePair::new(
                        wire_name(required_str(p, "from")?)?,
                        wire_name(required_str(p, "to")?)?,
                    ))
                })
                .collect::<ServiceResult<Vec<_>>>()?;
            Operator::Rename { pairs }
        }
        "select" => Operator::Selection {
            predicate: expr_from_json(
                json.get_required("predicate").map_err(|e| ServiceError::decode(e.to_string()))?,
            )?,
        },
        "join" => Operator::Join {
            kind: join_kind_from_name(required_str(json, "kind")?)?,
            predicate: expr_from_json(
                json.get_required("predicate").map_err(|e| ServiceError::decode(e.to_string()))?,
            )?,
        },
        "cross" => Operator::CrossProduct,
        "tuple_flatten" => Operator::TupleFlatten {
            source: wire_attr_path(required_str(json, "source")?)?,
            alias: opt_str_from_json(json.get("alias").unwrap_or(&Json::Null), "`alias`")?,
        },
        "flatten" => Operator::Flatten {
            kind: match required_str(json, "kind")? {
                "inner" => FlattenKind::Inner,
                "outer" => FlattenKind::Outer,
                other => {
                    return Err(ServiceError::decode(format!("unknown flatten kind `{other}`")))
                }
            },
            attr: wire_name(required_str(json, "attr")?)?.to_string(),
            alias: opt_str_from_json(json.get("alias").unwrap_or(&Json::Null), "`alias`")?,
        },
        "tuple_nest" => Operator::TupleNest {
            attrs: str_list_from_json(
                json.get_required("attrs").map_err(|e| ServiceError::decode(e.to_string()))?,
                "`attrs`",
            )?,
            into: wire_name(required_str(json, "into")?)?.to_string(),
        },
        "relation_nest" => Operator::RelationNest {
            attrs: str_list_from_json(
                json.get_required("attrs").map_err(|e| ServiceError::decode(e.to_string()))?,
                "`attrs`",
            )?,
            into: wire_name(required_str(json, "into")?)?.to_string(),
        },
        "nest_agg" => Operator::NestAggregation {
            func: agg_func_from_name(required_str(json, "func")?)?,
            attr: wire_name(required_str(json, "attr")?)?.to_string(),
            field: opt_str_from_json(json.get("field").unwrap_or(&Json::Null), "`field`")?,
            output: wire_name(required_str(json, "output")?)?.to_string(),
        },
        "group_agg" => {
            let aggs = json
                .get_required("aggs")
                .map_err(|e| ServiceError::decode(e.to_string()))?
                .as_array()
                .ok_or_else(|| ServiceError::decode("`aggs` must be an array"))?
                .iter()
                .map(|a| {
                    Ok(AggSpec::new(
                        agg_func_from_name(required_str(a, "func")?)?,
                        expr_from_json(
                            a.get_required("input")
                                .map_err(|e| ServiceError::decode(e.to_string()))?,
                        )?,
                        wire_name(required_str(a, "output")?)?,
                    ))
                })
                .collect::<ServiceResult<Vec<_>>>()?;
            Operator::GroupAggregation {
                group_by: str_list_from_json(
                    json.get_required("group_by")
                        .map_err(|e| ServiceError::decode(e.to_string()))?,
                    "`group_by`",
                )?,
                aggs,
            }
        }
        "union" => Operator::Union,
        "difference" => Operator::Difference,
        "dedup" => Operator::Dedup,
        other => return Err(ServiceError::decode(format!("unknown operator tag `{other}`"))),
    })
}

fn node_to_json(node: &OpNode) -> Json {
    Json::object([
        ("id", Json::Int(node.id as i64)),
        ("op", operator_to_json(&node.op)),
        ("inputs", Json::Array(node.inputs.iter().map(node_to_json).collect())),
    ])
}

fn node_from_json(json: &Json) -> ServiceResult<OpNode> {
    let id = json
        .get_required("id")
        .map_err(|e| ServiceError::decode(e.to_string()))?
        .as_i64()
        .and_then(|i| u32::try_from(i).ok())
        .ok_or_else(|| ServiceError::decode("`id` must be a non-negative integer"))?;
    let op = operator_from_json(
        json.get_required("op").map_err(|e| ServiceError::decode(e.to_string()))?,
    )
    .map_err(|e| e.at("op"))?;
    let inputs = match json.get("inputs") {
        None | Some(Json::Null) => Vec::new(),
        Some(inputs) => inputs
            .as_array()
            .ok_or_else(|| ServiceError::decode("`inputs` must be an array"))?
            .iter()
            .enumerate()
            .map(|(i, input)| node_from_json(input).map_err(|e| e.at(i).at("inputs")))
            .collect::<ServiceResult<Vec<_>>>()?,
    };
    Ok(OpNode::new(id, op, inputs))
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
    let relations = json
        .get_required("relations")
        .map_err(|e| ServiceError::decode(e.to_string()))?
        .as_object()
        .ok_or_else(|| ServiceError::decode("`relations` must be an object"))?;
    let mut db = Database::new();
    for (name, relation) in relations {
        let located = |e: ServiceError| e.at(name).at("relations");
        let schema = tuple_type_from_json(
            relation.get_required("schema").map_err(|e| ServiceError::decode(e.to_string()))?,
        )
        .map_err(|e| located(e.at("schema")))?;
        let rows = relation
            .get_required("rows")
            .map_err(|e| ServiceError::decode(e.to_string()))
            .map_err(located)?
            .as_array()
            .ok_or_else(|| located(ServiceError::decode("`rows` must be an array")))?;
        let mut values = Vec::with_capacity(rows.len());
        let expected = NestedType::Tuple(schema.clone());
        for (i, row) in rows.iter().enumerate() {
            let value = value_from_json(row).map_err(|e| located(e.at(i).at("rows")))?;
            if !value.conforms_to(&expected) {
                return Err(located(
                    ServiceError::decode(format!(
                        "row does not conform to relation schema {schema}"
                    ))
                    .at(i)
                    .at("rows"),
                ));
            }
            values.push(value);
        }
        db.add_relation(name.clone(), schema, Bag::from_values(values));
    }
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
    Ok(AttributeAlternative::new(
        required_str(json, "relation")?,
        wire_attr_path(required_str(json, "from")?)?,
        wire_attr_path(required_str(json, "to")?)?,
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
