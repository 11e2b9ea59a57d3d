//! Plan-time operator metadata: every physical operator — relational and
//! graph — stamped with a stable operator id and the optimizer's estimated
//! cardinality/cost, collected in **pre-order** (node before children;
//! join children left then right).
//!
//! Pre-order is the one traversal every consumer shares, and
//! `GraphOp::inputs` / `RelOp::inputs` define it: each node names its
//! direct inputs once, left before right, and every walk — these metas,
//! [`GraphOp::preorder`], rebinding — recurses through them. The EXPLAIN
//! renderers emit exactly one line per operator in this order, and the
//! executors assign profiling ids by reserving the next id at operator
//! entry before recursing — so plan-time metas, rendered lines, and
//! run-time [`OperatorProfile`]s line up by index with no id fields stored
//! in the plan (ids survive plan cloning and rebinding by construction).
//!
//! [`OperatorProfile`]: ../relgo_exec/profile/struct.OperatorProfile.html

use crate::graph_plan::GraphOp;
use crate::rel_plan::{PhysicalPlan, RelOp};
use relgo_storage::Database;

/// Plan-time metadata of one physical operator.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorMeta {
    /// Stable operator id: the operator's pre-order position in the plan.
    pub op_id: usize,
    /// Operator kind (`"hash_join"`, `"expand"`, …) — the `op` label of
    /// the operator metric series.
    pub kind: &'static str,
    /// The optimizer's estimated output cardinality.
    pub est_rows: f64,
    /// Cumulative estimated cost up to and including this operator.
    pub est_cost: f64,
    /// Op-ids of the direct inputs, in visit order (empty for leaves).
    pub inputs: Vec<usize>,
}

impl GraphOp {
    /// Operator-kind label of this node.
    pub fn kind(&self) -> &'static str {
        match self {
            GraphOp::ScanVertex { .. } => "scan_vertex",
            GraphOp::ScanEdge { .. } => "scan_edge",
            GraphOp::Expand { .. } => "expand",
            GraphOp::ExpandIntersect { .. } => "expand_intersect",
            GraphOp::JoinSub { .. } => "join_sub",
            GraphOp::FilterVertex { .. } => "filter_vertex",
        }
    }

    /// Append this sub-plan's metas in pre-order; returns this node's id.
    pub(crate) fn collect_metas(&self, out: &mut Vec<OperatorMeta>) -> usize {
        let id = out.len();
        let ann = self.annotation();
        out.push(OperatorMeta {
            op_id: id,
            kind: self.kind(),
            est_rows: ann.est_card,
            est_cost: ann.est_cost,
            inputs: Vec::new(),
        });
        let inputs = self
            .inputs()
            .map(|input| input.collect_metas(out))
            .collect();
        out[id].inputs = inputs;
        id
    }
}

impl RelOp {
    /// Operator-kind label of this node.
    pub fn kind(&self) -> &'static str {
        match self {
            RelOp::ScanGraphTable { .. } => "scan_graph_table",
            RelOp::ScanTable { .. } => "scan_table",
            RelOp::HashJoin { .. } => "hash_join",
            RelOp::Filter { .. } => "filter",
            RelOp::Project { .. } => "project",
            RelOp::Aggregate { .. } => "aggregate",
            RelOp::Distinct { .. } => "distinct",
            RelOp::Sort { .. } => "sort",
            RelOp::Limit { .. } => "limit",
        }
    }

    /// Append this sub-tree's metas in pre-order; returns this node's id.
    ///
    /// Graph operators carry the optimizer's own annotations; the
    /// relational shell above them is estimated with simple deterministic
    /// rules (scans from catalog row counts, a fixed ⅓ filter selectivity,
    /// joins as max of their inputs) — the shell is thin, so coarse rules
    /// keep the Q-error signal focused on the graph estimates the paper's
    /// optimizer actually produces.
    pub(crate) fn collect_metas(&self, db: &Database, out: &mut Vec<OperatorMeta>) -> usize {
        let id = out.len();
        out.push(OperatorMeta {
            op_id: id,
            kind: self.kind(),
            est_rows: 0.0,
            est_cost: 0.0,
            inputs: Vec::new(),
        });
        let inputs: Vec<usize> = match self {
            RelOp::ScanGraphTable { graph, .. } => vec![graph.collect_metas(out)],
            _ => self
                .inputs()
                .map(|input| input.collect_metas(db, out))
                .collect(),
        };
        let input = |i: usize| &out[inputs[i]];
        let (est_rows, est_cost) = match self {
            RelOp::ScanTable { table, predicate } => {
                let rows = db.table(table).map(|t| t.num_rows() as f64).unwrap_or(0.0);
                let est = if predicate.is_some() {
                    rows / 3.0
                } else {
                    rows
                };
                (est, rows)
            }
            RelOp::HashJoin { .. } => {
                let (l, r) = (input(0), input(1));
                let est = l.est_rows.max(r.est_rows);
                (est, l.est_cost + r.est_cost + est)
            }
            RelOp::Filter { .. } => (
                input(0).est_rows / 3.0,
                input(0).est_cost + input(0).est_rows,
            ),
            RelOp::Aggregate { .. } => (1.0, input(0).est_cost + input(0).est_rows),
            RelOp::Limit { n, .. } => {
                let est = input(0).est_rows.min(*n as f64);
                (est, input(0).est_cost + est)
            }
            RelOp::ScanGraphTable { .. }
            | RelOp::Project { .. }
            | RelOp::Distinct { .. }
            | RelOp::Sort { .. } => (input(0).est_rows, input(0).est_cost + input(0).est_rows),
        };
        let meta = &mut out[id];
        meta.est_rows = est_rows;
        meta.est_cost = est_cost;
        meta.inputs = inputs;
        id
    }
}

impl PhysicalPlan {
    /// Every operator's plan-time metadata in pre-order — index `i` is
    /// op-id `i`, and the EXPLAIN rendering's line `i` describes the same
    /// operator. `db` resolves base-table cardinalities for the relational
    /// scan estimates.
    pub fn operator_metas(&self, db: &Database) -> Vec<OperatorMeta> {
        let mut out = Vec::new();
        self.root.collect_metas(db, &mut out);
        out
    }

    /// The EXPLAIN rendering with a per-operator suffix: `annotate(op_id)`
    /// is appended to line `op_id` (lines and op-ids share pre-order).
    pub fn explain_annotated(&self, mut annotate: impl FnMut(usize) -> String) -> String {
        let mut out = String::new();
        for (i, line) in self.explain().lines().enumerate() {
            out.push_str(line);
            out.push_str(&annotate(i));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_plan::PlanAnnotation;
    use crate::spjm::{AttrRef, GraphColumn, PatternElemRef};
    use relgo_common::LabelId;
    use relgo_pattern::PatternBuilder;

    fn pattern() -> relgo_pattern::Pattern {
        let mut b = PatternBuilder::new();
        let a = b.vertex("a", LabelId(0));
        let c = b.vertex("c", LabelId(0));
        b.edge(a, c, LabelId(0)).unwrap();
        b.build().unwrap()
    }

    fn expand() -> GraphOp {
        GraphOp::Expand {
            input: Box::new(GraphOp::ScanVertex {
                v: 0,
                predicate: None,
                ann: PlanAnnotation {
                    est_card: 10.0,
                    est_cost: 10.0,
                },
            }),
            from: 0,
            edge: 0,
            to: 1,
            dir: relgo_graph::Direction::Out,
            emit_edge: false,
            edge_predicate: None,
            vertex_predicate: None,
            ann: PlanAnnotation {
                est_card: 40.0,
                est_cost: 50.0,
            },
        }
    }

    fn plan(graph: GraphOp) -> PhysicalPlan {
        PhysicalPlan {
            pattern: pattern(),
            root: RelOp::Distinct {
                input: Box::new(RelOp::ScanGraphTable {
                    graph,
                    columns: vec![GraphColumn {
                        element: PatternElemRef::Vertex(0),
                        attr: AttrRef::Id,
                        alias: "a_id".into(),
                    }],
                }),
            },
        }
    }

    /// `JoinSub(Expand(ScanVertex), ScanEdge)`: the left input's subtree
    /// comes before the right input.
    fn join_plan() -> PhysicalPlan {
        plan(GraphOp::JoinSub {
            left: Box::new(expand()),
            right: Box::new(GraphOp::ScanEdge {
                e: 0,
                predicate: None,
                ann: PlanAnnotation {
                    est_card: 7.0,
                    est_cost: 7.0,
                },
            }),
            on_vertices: vec![0, 1],
            on_edges: vec![],
            ann: PlanAnnotation {
                est_card: 5.0,
                est_cost: 62.0,
            },
        })
    }

    #[test]
    fn metas_are_preorder_and_match_explain_lines() {
        let db = Database::new();
        // Each plan with its operators in pre-order and their input ids.
        let cases = [
            (
                plan(expand()),
                "distinct scan_graph_table expand scan_vertex",
                vec![vec![1], vec![2], vec![3], vec![]],
            ),
            (
                join_plan(),
                "distinct scan_graph_table join_sub expand scan_vertex scan_edge",
                vec![vec![1], vec![2], vec![3, 5], vec![4], vec![], vec![]],
            ),
        ];
        for (plan, kinds, inputs) in cases {
            let kinds: Vec<&str> = kinds.split(' ').collect();
            let metas = plan.operator_metas(&db);
            for (i, m) in metas.iter().enumerate() {
                assert_eq!(m.op_id, i, "op_id is the pre-order index");
                assert_eq!((m.kind, &m.inputs), (kinds[i], &inputs[i]), "op {i}");
            }
            assert_eq!(metas.len(), kinds.len());
            // The graph plan's own pre-order walk yields the same operators.
            let graph = plan.root.graph_plan().unwrap();
            assert!(graph.preorder().map(GraphOp::kind).eq(kinds[2..].to_vec()));
            // One EXPLAIN line per operator, in the same order.
            let explain = plan.explain();
            assert_eq!(explain.lines().count(), metas.len(), "{explain}");
            for (line, kind) in explain.lines().zip(kinds) {
                let head = match kind {
                    "join_sub" => "HASH_JOIN",
                    "expand" => "EXPAND v0 -> v1",
                    "scan_vertex" => "SCAN v0",
                    "scan_edge" => "SCAN_EDGE e0",
                    relational => &relational.to_uppercase(),
                };
                let line = line.trim_start_matches([' ', '|']);
                assert!(line.starts_with(head), "{kind}: {line}");
            }
        }
        // Graph estimates come straight from the optimizer annotations.
        let metas = plan(expand()).operator_metas(&db);
        assert_eq!(metas[2].est_rows, 40.0);
        assert_eq!(metas[3].est_rows, 10.0);
        assert_eq!(metas[1].est_rows, 40.0);
    }

    #[test]
    fn explain_annotated_suffixes_every_line_in_order() {
        let s = plan(expand()).explain_annotated(|id| format!("  <op={id}>"));
        for (i, line) in s.lines().enumerate() {
            assert!(line.ends_with(&format!("<op={i}>")), "line {i}: {line}");
        }
        assert_eq!(s.lines().count(), 4);
    }
}
