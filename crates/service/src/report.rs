//! Explanation reports: the wire-level mirror of a [`WhyNotAnswer`], with a
//! JSON encoding and a human-readable text rendering.
//!
//! Reports are encode-only: the service builds one from an engine answer and
//! writes it out; nothing in the workspace reads one back. Clients compare
//! the encoded documents (`to_json().to_compact()`), which is also what the
//! end-to-end benchmark's pinned digests are taken over.

use nrab_algebra::OpId;
use whynot_core::side_effects::SideEffectBounds;
use whynot_core::WhyNotAnswer;

use crate::json::Json;

/// One attribute substitution of a schema alternative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportSubstitution {
    /// The operator whose parameters were rewritten.
    pub op: OpId,
    /// The attribute path referenced by the original query.
    pub from: String,
    /// The alternative attribute path.
    pub to: String,
}

/// One schema alternative considered by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportAlternative {
    /// Index (0 = original query).
    pub index: usize,
    /// The substitutions applied under this alternative.
    pub substitutions: Vec<ReportSubstitution>,
}

/// One ranked explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportExplanation {
    /// 1-based rank in the partial order of Definition 9.
    pub rank: usize,
    /// The operators to reparameterize.
    pub operators: Vec<OpId>,
    /// Human-readable operator labels, ascending by operator id.
    pub operator_labels: Vec<String>,
    /// Operator kind symbols (σ, π, ⋈, Fᴵ, ...), ascending by operator id.
    pub operator_kinds: Vec<String>,
    /// Index of the schema alternative the explanation was found under.
    pub schema_alternative: usize,
    /// Loose side-effect bounds.
    pub side_effects: SideEffectBounds,
}

/// A complete explanation report for one why-not question.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplanationReport {
    /// Number of top-level tuples of the original query result.
    pub original_result_size: u64,
    /// The schema alternatives considered (index 0 = original query).
    pub schema_alternatives: Vec<ReportAlternative>,
    /// The ranked explanations.
    pub explanations: Vec<ReportExplanation>,
}

impl ExplanationReport {
    /// Builds a report from an engine answer.
    pub fn from_answer(answer: &WhyNotAnswer) -> Self {
        ExplanationReport {
            original_result_size: answer.original_result_size,
            schema_alternatives: answer
                .schema_alternatives
                .iter()
                .map(|sa| ReportAlternative {
                    index: sa.index,
                    substitutions: sa
                        .substitutions
                        .iter()
                        .map(|s| ReportSubstitution {
                            op: s.op,
                            from: s.from.to_string(),
                            to: s.to.to_string(),
                        })
                        .collect(),
                })
                .collect(),
            explanations: answer
                .explanations
                .iter()
                .enumerate()
                .map(|(i, e)| ReportExplanation {
                    rank: i + 1,
                    operators: e.operators.iter().copied().collect(),
                    operator_labels: e.operator_labels.clone(),
                    operator_kinds: e.operator_kinds.clone(),
                    schema_alternative: e.schema_alternative,
                    side_effects: e.side_effects,
                })
                .collect(),
        }
    }

    /// Encodes the report.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("original_result_size", Json::Int(self.original_result_size as i64)),
            (
                "schema_alternatives",
                Json::Array(
                    self.schema_alternatives
                        .iter()
                        .map(|sa| {
                            Json::object([
                                ("index", Json::Int(sa.index as i64)),
                                (
                                    "substitutions",
                                    Json::Array(
                                        sa.substitutions
                                            .iter()
                                            .map(|s| {
                                                Json::object([
                                                    ("op", Json::Int(s.op as i64)),
                                                    ("from", Json::str(s.from.clone())),
                                                    ("to", Json::str(s.to.clone())),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "explanations",
                Json::Array(
                    self.explanations
                        .iter()
                        .map(|e| {
                            Json::object([
                                ("rank", Json::Int(e.rank as i64)),
                                (
                                    "operators",
                                    Json::Array(
                                        e.operators
                                            .iter()
                                            .map(|op| Json::Int(*op as i64))
                                            .collect(),
                                    ),
                                ),
                                (
                                    "operator_labels",
                                    Json::Array(
                                        e.operator_labels
                                            .iter()
                                            .map(|l| Json::str(l.clone()))
                                            .collect(),
                                    ),
                                ),
                                (
                                    "operator_kinds",
                                    Json::Array(
                                        e.operator_kinds
                                            .iter()
                                            .map(|k| Json::str(k.clone()))
                                            .collect(),
                                    ),
                                ),
                                ("schema_alternative", Json::Int(e.schema_alternative as i64)),
                                (
                                    "side_effects",
                                    Json::object([
                                        ("lower", Json::Int(e.side_effects.lower as i64)),
                                        ("upper", Json::Int(e.side_effects.upper as i64)),
                                    ]),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders the report as numbered human-readable lines.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "original result size {}, {} schema alternative(s), {} explanation(s)\n",
            self.original_result_size,
            self.schema_alternatives.len(),
            self.explanations.len()
        ));
        if self.explanations.is_empty() {
            out.push_str("no explanation found: the missing answer cannot be produced by the\n");
            out.push_str("reparameterizations captured by the heuristic tracing\n");
            return out;
        }
        for e in &self.explanations {
            out.push_str(&format!(
                "#{}: change {} operator(s) {:?}  (schema alternative S{}, side effects [{}, {}])\n",
                e.rank,
                e.operators.len(),
                e.operators,
                e.schema_alternative + 1,
                e.side_effects.lower,
                e.side_effects.upper,
            ));
            for label in &e.operator_labels {
                out.push_str(&format!("    {label}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ExplanationReport {
        ExplanationReport {
            original_result_size: 1,
            schema_alternatives: vec![
                ReportAlternative { index: 0, substitutions: vec![] },
                ReportAlternative {
                    index: 1,
                    substitutions: vec![ReportSubstitution {
                        op: 1,
                        from: "address2".into(),
                        to: "address1".into(),
                    }],
                },
            ],
            explanations: vec![ReportExplanation {
                rank: 1,
                operators: vec![2],
                operator_labels: vec!["[2] σ_{year ≥ 2019}".into()],
                operator_kinds: vec!["σ".into()],
                schema_alternative: 0,
                side_effects: SideEffectBounds { lower: 0, upper: 3 },
            }],
        }
    }

    #[test]
    fn text_rendering_mentions_ranks_and_labels() {
        let text = sample_report().render_text();
        assert!(text.contains("#1"));
        assert!(text.contains("σ_{year ≥ 2019}"));
        let empty = ExplanationReport {
            original_result_size: 0,
            schema_alternatives: vec![],
            explanations: vec![],
        };
        assert!(empty.render_text().contains("no explanation"));
    }
}
