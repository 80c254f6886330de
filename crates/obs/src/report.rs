//! Profile reports: the serializable outcome of a [`profile`](crate::profile)
//! session.
//!
//! A report has two parts with different determinism guarantees:
//!
//! * the **span tree** ([`SpanReport`]) — structure, counts, and counters are
//!   identical at every thread count (see the crate docs); wall times vary;
//! * **meta** facts attached by the caller (batch width, batch fan-out
//!   counter deltas) — process-level and explicitly *not* deterministic.
//!
//! [`ProfileReport::signature`] canonicalizes the deterministic part for
//! byte-identity tests; `whynot-service` provides the JSON wire codec.

use crate::SpanData;

/// One node of the reported span tree, children ordered by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanReport {
    /// Span name (e.g. `trace:σ#2`).
    pub name: String,
    /// Number of completed spans aggregated into this node.
    pub count: u64,
    /// Total wall time in nanoseconds (excluded from [`ProfileReport::signature`]).
    pub total_ns: u64,
    /// Counters attached to this span, ordered by name.
    pub counters: Vec<(String, u64)>,
    /// Child spans, ordered by name.
    pub children: Vec<SpanReport>,
}

impl SpanReport {
    fn from_data(name: String, data: SpanData) -> SpanReport {
        SpanReport {
            name,
            count: data.count,
            total_ns: data.total_ns,
            counters: data.counters.into_iter().collect(),
            children: data
                .children
                .into_iter()
                .map(|(name, child)| SpanReport::from_data(name, child))
                .collect(),
        }
    }

    /// Sum of a named counter over this node and all descendants.
    pub fn counter_total(&self, name: &str) -> u64 {
        let own: u64 =
            self.counters.iter().filter(|(n, _)| n == name).map(|(_, v)| *v).sum::<u64>();
        own + self.children.iter().map(|c| c.counter_total(name)).sum::<u64>()
    }

    /// Number of span nodes in this subtree (excluding synthetic roots with
    /// `count == 0`).
    pub fn span_nodes(&self) -> u64 {
        let own = u64::from(self.count > 0);
        own + self.children.iter().map(SpanReport::span_nodes).sum::<u64>()
    }

    /// Sum of `total_ns` over the direct children of this node.
    pub fn child_time_ns(&self) -> u64 {
        self.children.iter().map(|c| c.total_ns).sum()
    }

    /// The direct child with the given name, if present.
    pub fn child(&self, name: &str) -> Option<&SpanReport> {
        self.children.iter().find(|c| c.name == name)
    }

    fn write_signature(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.name);
        out.push_str(&format!(" ×{}", self.count));
        for (name, value) in &self.counters {
            out.push_str(&format!(" {name}={value}"));
        }
        out.push('\n');
        for child in &self.children {
            child.write_signature(out, depth + 1);
        }
    }

    fn render(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        let ms = self.total_ns as f64 / 1e6;
        out.push_str(&format!(
            "{:<width$} {ms:>9.3} ms  ×{}",
            self.name,
            self.count,
            width = 28usize.saturating_sub(2 * depth)
        ));
        if !self.counters.is_empty() {
            let counters: Vec<String> =
                self.counters.iter().map(|(n, v)| format!("{n}={v}")).collect();
            out.push_str(&format!("  [{}]", counters.join(" ")));
        }
        out.push('\n');
        for child in &self.children {
            child.render(out, depth + 1);
        }
    }
}

/// The outcome of one profiling session.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Wall time of the whole session in nanoseconds.
    pub wall_ns: u64,
    /// Process-level facts attached by the caller (batch width, batch fan-out
    /// counter deltas). Ordered as inserted; excluded from [`signature`](ProfileReport::signature).
    pub meta: Vec<(String, u64)>,
    /// The root of the span tree. The root itself is synthetic
    /// (`name == "profile"`, `count == 0`); real spans are its descendants.
    pub root: SpanReport,
}

impl ProfileReport {
    /// Builds a report from a finished collector root.
    pub(crate) fn from_root(root: SpanData, wall_ns: u64) -> ProfileReport {
        ProfileReport {
            wall_ns,
            meta: Vec::new(),
            root: SpanReport::from_data("profile".to_string(), root),
        }
    }

    /// Attaches a process-level fact (shown by `render_text`, excluded from
    /// the deterministic signature).
    pub fn push_meta(&mut self, name: impl Into<String>, value: u64) {
        self.meta.push((name.into(), value));
    }

    /// Canonical text form of the deterministic part of the report:
    /// span structure, counts, and counters — wall times and meta excluded.
    ///
    /// Two sessions over the same work produce equal signatures at any
    /// batch width; tests compare reports through this.
    pub fn signature(&self) -> String {
        let mut out = String::new();
        self.root.write_signature(&mut out, 0);
        out
    }

    /// Sum of a named counter over the whole span tree.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.root.counter_total(name)
    }

    /// Folded-stack flamegraph lines (`a;b;c <self_ns>`), one per span node
    /// with non-zero *self* time (total minus direct children; clamped at
    /// zero so a child that outlived its parent's clock reading never
    /// produces a negative sample). The synthetic `profile` root is omitted
    /// from stacks, and `;` in span names is replaced with `,` since it is
    /// the stack separator. Feed the output to any flamegraph renderer that
    /// accepts Brendan Gregg's folded format.
    pub fn to_folded(&self) -> String {
        fn sanitize(name: &str) -> String {
            name.replace(';', ",")
        }
        fn walk(node: &SpanReport, stack: &mut Vec<String>, out: &mut String) {
            stack.push(sanitize(&node.name));
            let self_ns = node.total_ns.saturating_sub(node.child_time_ns());
            if self_ns > 0 {
                out.push_str(&stack.join(";"));
                out.push_str(&format!(" {self_ns}\n"));
            }
            for child in &node.children {
                walk(child, stack, out);
            }
            stack.pop();
        }
        let mut out = String::new();
        let mut stack = Vec::new();
        for child in &self.root.children {
            walk(child, &mut stack, &mut out);
        }
        out
    }

    /// Human-readable rendering: meta header, then the span tree with times.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("profile: {:.3} ms wall\n", self.wall_ns as f64 / 1e6));
        for (name, value) in &self.meta {
            out.push_str(&format!("  {name}: {value}\n"));
        }
        for child in &self.root.children {
            child.render(&mut out, 1);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(name: &str, count: u64, ns: u64) -> SpanReport {
        SpanReport {
            name: name.to_string(),
            count,
            total_ns: ns,
            counters: vec![("rows".to_string(), 7)],
            children: Vec::new(),
        }
    }

    #[test]
    fn helpers_walk_the_tree() {
        let root = SpanReport {
            name: "profile".to_string(),
            count: 0,
            total_ns: 0,
            counters: Vec::new(),
            children: vec![SpanReport {
                name: "op".to_string(),
                count: 1,
                total_ns: 100,
                counters: vec![("rows".to_string(), 3)],
                children: vec![leaf("inner", 2, 40)],
            }],
        };
        assert_eq!(root.counter_total("rows"), 10);
        assert_eq!(root.span_nodes(), 2);
        assert_eq!(root.child("op").unwrap().child_time_ns(), 40);
        let report = ProfileReport { wall_ns: 123, meta: vec![("threads".to_string(), 4)], root };
        assert!(report.render_text().contains("threads: 4"));
        assert!(report.signature().contains("op ×1 rows=3"));
        assert!(!report.signature().contains("threads"));
    }

    #[test]
    fn folded_stacks_report_self_time() {
        let root = SpanReport {
            name: "profile".to_string(),
            count: 0,
            total_ns: 0,
            counters: Vec::new(),
            children: vec![SpanReport {
                name: "outer;odd".to_string(),
                count: 1,
                total_ns: 100,
                counters: Vec::new(),
                children: vec![leaf("inner", 2, 40)],
            }],
        };
        let report = ProfileReport { wall_ns: 100, meta: Vec::new(), root };
        let folded = report.to_folded();
        let lines: Vec<&str> = folded.lines().collect();
        // `profile` root excluded; `;` in names sanitized; self = 100 - 40.
        assert_eq!(lines, vec!["outer,odd 60", "outer,odd;inner 40"]);
    }

    #[test]
    fn folded_stacks_skip_zero_self_time() {
        let root = SpanReport {
            name: "profile".to_string(),
            count: 0,
            total_ns: 0,
            counters: Vec::new(),
            children: vec![SpanReport {
                name: "wrapper".to_string(),
                count: 1,
                total_ns: 40,
                counters: Vec::new(),
                children: vec![leaf("inner", 1, 40)],
            }],
        };
        let report = ProfileReport { wall_ns: 40, meta: Vec::new(), root };
        assert_eq!(report.to_folded(), "wrapper;inner 40\n");
    }
}
