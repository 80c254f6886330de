//! Query plans: operator trees with stable operator identifiers.
//!
//! Reparameterizations preserve the plan structure and only change operator
//! parameters, so every operator carries a stable [`OpId`] that identifies it
//! across the original query and all of its reparameterizations
//! (cf. Definition 9, which collects the ids of changed operators in `Δ`).

use std::collections::BTreeMap;
use std::fmt;

use crate::error::{AlgebraError, AlgebraResult};
use crate::operator::Operator;

/// A stable operator identifier.
pub type OpId = u32;

/// A node of a query plan: an operator applied to child plans.
#[derive(Debug, Clone, PartialEq)]
pub struct OpNode {
    /// The operator's stable identifier.
    pub id: OpId,
    /// The operator and its parameters.
    pub op: Operator,
    /// The child plans (inputs), in operator-specific order.
    pub inputs: Vec<OpNode>,
}

impl OpNode {
    /// Creates a node.
    pub fn new(id: OpId, op: Operator, inputs: Vec<OpNode>) -> Self {
        OpNode { id, op, inputs }
    }

    fn visit<'a>(&'a self, out: &mut Vec<&'a OpNode>) {
        out.push(self);
        for input in &self.inputs {
            input.visit(out);
        }
    }

    fn find(&self, id: OpId) -> Option<&OpNode> {
        if self.id == id {
            return Some(self);
        }
        self.inputs.iter().find_map(|i| i.find(id))
    }

    fn find_mut(&mut self, id: OpId) -> Option<&mut OpNode> {
        if self.id == id {
            return Some(self);
        }
        self.inputs.iter_mut().find_map(|i| i.find_mut(id))
    }
}

/// A query plan.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// The root operator (the last one applied; its output is the query result).
    pub root: OpNode,
}

impl QueryPlan {
    /// Wraps a root node into a plan and validates basic structural invariants
    /// (operator arities match input counts, operator ids are unique).
    pub fn new(root: OpNode) -> AlgebraResult<Self> {
        let plan = QueryPlan { root };
        plan.validate_structure()?;
        Ok(plan)
    }

    /// Validates arity and id uniqueness.
    pub fn validate_structure(&self) -> AlgebraResult<()> {
        let mut seen = BTreeMap::new();
        for node in self.nodes_top_down() {
            if node.op.arity() != node.inputs.len() {
                return Err(AlgebraError::WrongArity {
                    operator: node.op.kind_name().to_string(),
                    expected: node.op.arity(),
                    found: node.inputs.len(),
                });
            }
            if let Some(_prev) = seen.insert(node.id, node.op.kind_name()) {
                return Err(AlgebraError::InvalidParameter {
                    operator: node.op.kind_name().to_string(),
                    message: format!("duplicate operator id {}", node.id),
                });
            }
        }
        Ok(())
    }

    /// All nodes in pre-order (root first, then inputs left-to-right).
    ///
    /// For the linear pipelines of the paper's figures this is exactly the
    /// "top-down" order in which `approximateMSRs` walks the query.
    pub fn nodes_top_down(&self) -> Vec<&OpNode> {
        let mut out = Vec::new();
        self.root.visit(&mut out);
        out
    }

    /// All operator ids in pre-order.
    pub fn op_ids_top_down(&self) -> Vec<OpId> {
        self.nodes_top_down().iter().map(|n| n.id).collect()
    }

    /// Looks up a node by operator id.
    pub fn node(&self, id: OpId) -> AlgebraResult<&OpNode> {
        self.root.find(id).ok_or(AlgebraError::UnknownOperator(id))
    }

    /// Looks up a node by operator id, mutably.
    pub fn node_mut(&mut self, id: OpId) -> AlgebraResult<&mut OpNode> {
        self.root.find_mut(id).ok_or(AlgebraError::UnknownOperator(id))
    }

    /// Number of operators in the plan.
    pub fn operator_count(&self) -> usize {
        self.nodes_top_down().len()
    }

    /// The names of all tables accessed by the plan, in pre-order.
    pub fn accessed_tables(&self) -> Vec<String> {
        self.nodes_top_down()
            .iter()
            .filter_map(|n| match &n.op {
                Operator::TableAccess { table } => Some(table.clone()),
                _ => None,
            })
            .collect()
    }

    /// Renders the plan as an indented operator tree.
    pub fn pretty(&self) -> String {
        fn render(node: &OpNode, indent: usize, out: &mut String) {
            out.push_str(&" ".repeat(indent * 2));
            out.push_str(&format!("[{}] {}\n", node.id, node.op));
            for input in &node.inputs {
                render(input, indent + 1, out);
            }
        }
        let mut out = String::new();
        render(&self.root, 0, &mut out);
        out
    }
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Expr};
    use crate::operator::{FlattenKind, Operator};

    fn running_example_plan() -> QueryPlan {
        // N^R_{name→nList}(π_{name,city}(σ_{year≥2019}(F^I_{address2}(person))))
        let table = OpNode::new(0, Operator::TableAccess { table: "person".into() }, vec![]);
        let flatten = OpNode::new(
            1,
            Operator::Flatten { kind: FlattenKind::Inner, attr: "address2".into(), alias: None },
            vec![table],
        );
        let select = OpNode::new(
            2,
            Operator::Selection { predicate: Expr::attr_cmp("year", CmpOp::Ge, 2019i64) },
            vec![flatten],
        );
        let project = OpNode::new(
            3,
            Operator::Projection {
                columns: vec![
                    crate::operator::ProjColumn::passthrough("name"),
                    crate::operator::ProjColumn::passthrough("city"),
                ],
            },
            vec![select],
        );
        let nest = OpNode::new(
            4,
            Operator::RelationNest { attrs: vec!["name".into()], into: "nList".into() },
            vec![project],
        );
        QueryPlan::new(nest).unwrap()
    }

    #[test]
    fn top_down_order_is_root_first() {
        let plan = running_example_plan();
        let ids = plan.op_ids_top_down();
        assert_eq!(ids, vec![4, 3, 2, 1, 0]);
        assert_eq!(plan.operator_count(), 5);
        assert_eq!(plan.accessed_tables(), vec!["person".to_string()]);
    }

    #[test]
    fn node_lookup() {
        let mut plan = running_example_plan();
        assert_eq!(plan.node(2).unwrap().op.kind_name(), "σ");
        assert!(plan.node(99).is_err());
        let node = plan.node_mut(2).unwrap();
        node.op = Operator::Selection { predicate: Expr::attr_cmp("year", CmpOp::Ge, 2018i64) };
        assert!(plan.node(2).unwrap().op.to_string().contains("2018"));
    }

    #[test]
    fn validation_rejects_bad_arity_and_duplicate_ids() {
        let table = OpNode::new(0, Operator::TableAccess { table: "r".into() }, vec![]);
        let bad = OpNode::new(1, Operator::Union, vec![table.clone()]);
        assert!(QueryPlan::new(bad).is_err());

        let dup = OpNode::new(
            0,
            Operator::Selection { predicate: Expr::lit(true) },
            vec![OpNode::new(0, Operator::TableAccess { table: "r".into() }, vec![])],
        );
        assert!(QueryPlan::new(dup).is_err());
    }

    #[test]
    fn pretty_rendering_contains_all_operators() {
        let plan = running_example_plan();
        let rendered = plan.pretty();
        assert!(rendered.contains("Nᴿ"));
        assert!(rendered.contains("σ"));
        assert!(rendered.contains("person"));
        assert_eq!(rendered.lines().count(), 5);
        assert_eq!(plan.to_string(), rendered);
    }
}
