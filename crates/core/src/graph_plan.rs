//! The physical graph-plan IR — what lives inside `SCAN_GRAPH_TABLE`.
//!
//! Operators mirror §3.2.2:
//!
//! * [`GraphOp::ScanVertex`] — match a single-vertex pattern by scanning the
//!   vertex relation (plan entry point);
//! * [`GraphOp::ScanEdge`] — match a single-edge pattern by scanning the
//!   edge relation and resolving both endpoints (the graph-agnostic leaf;
//!   uses the EV-index when available, λ hash lookups otherwise);
//! * [`GraphOp::Expand`] — Case II: `EXPAND_EDGE` + `GET_VERTEX`, or the
//!   fused `EXPAND` after `TrimAndFuseRule`;
//! * [`GraphOp::ExpandIntersect`] — Case III: the complete-star EI-join;
//! * [`GraphOp::JoinSub`] — Case I: b⋈ of two sub-plans on common pattern
//!   elements (hash join on bindings);
//! * [`GraphOp::FilterVertex`] — apply a pushed-down vertex predicate to an
//!   existing binding (used by baselines that filter after binding).

use relgo_graph::Direction;
use relgo_storage::ScalarExpr;
use std::fmt::Write as _;

/// A bound pattern element (the binding columns of a graph relation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PatternElem {
    /// Pattern vertex index.
    Vertex(usize),
    /// Pattern edge index.
    Edge(usize),
}

/// Cost/cardinality annotations attached by the optimizer (used in EXPLAIN
/// output and by tests asserting estimate monotonicity).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanAnnotation {
    /// Estimated output cardinality of this operator.
    pub est_card: f64,
    /// Cumulative estimated cost up to and including this operator.
    pub est_cost: f64,
}

/// One expansion leg of an `EXPAND_INTERSECT` star.
#[derive(Debug, Clone, PartialEq)]
pub struct StarLeg {
    /// The already-bound leaf vertex the leg starts from.
    pub from: usize,
    /// The pattern edge traversed.
    pub edge: usize,
    /// Traversal direction (from `from` towards the star root).
    pub dir: Direction,
}

/// A physical graph operator.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphOp {
    /// Scan the vertex relation of pattern vertex `v`.
    ScanVertex {
        /// Pattern vertex being bound.
        v: usize,
        /// Pushed-down predicate over the vertex relation's columns.
        predicate: Option<ScalarExpr>,
        /// Optimizer annotations.
        ann: PlanAnnotation,
    },
    /// Scan the edge relation of pattern edge `e`, binding the edge and both
    /// endpoint vertices.
    ScanEdge {
        /// Pattern edge being bound.
        e: usize,
        /// Pushed-down predicate over the edge relation's columns.
        predicate: Option<ScalarExpr>,
        /// Optimizer annotations.
        ann: PlanAnnotation,
    },
    /// Expand one pattern edge from a bound vertex (Case II).
    Expand {
        /// Input sub-plan.
        input: Box<GraphOp>,
        /// Bound vertex the expansion starts from.
        from: usize,
        /// Pattern edge traversed.
        edge: usize,
        /// Newly bound vertex.
        to: usize,
        /// Traversal direction.
        dir: Direction,
        /// Whether the edge binding is materialized (`EXPAND_EDGE` +
        /// `GET_VERTEX`); `false` after `TrimAndFuseRule` fuses them into a
        /// single `EXPAND`.
        emit_edge: bool,
        /// Predicate on the traversed edge relation.
        edge_predicate: Option<ScalarExpr>,
        /// Predicate on the target vertex relation.
        vertex_predicate: Option<ScalarExpr>,
        /// Optimizer annotations.
        ann: PlanAnnotation,
    },
    /// Expand a complete star and intersect the adjacency lists (Case III).
    ExpandIntersect {
        /// Input sub-plan (binds every leg's `from`).
        input: Box<GraphOp>,
        /// The star's legs (≥ 2).
        legs: Vec<StarLeg>,
        /// The star's root vertex, newly bound.
        to: usize,
        /// Whether the legs' edge bindings are materialized.
        emit_edges: bool,
        /// Predicate on the root vertex relation.
        vertex_predicate: Option<ScalarExpr>,
        /// Optimizer annotations.
        ann: PlanAnnotation,
    },
    /// Join two sub-plans on their common pattern elements (Case I).
    JoinSub {
        /// Left input.
        left: Box<GraphOp>,
        /// Right input.
        right: Box<GraphOp>,
        /// Common vertices (join keys).
        on_vertices: Vec<usize>,
        /// Common edges (join keys).
        on_edges: Vec<usize>,
        /// Optimizer annotations.
        ann: PlanAnnotation,
    },
    /// Apply a vertex predicate to an already-bound vertex.
    FilterVertex {
        /// Input sub-plan.
        input: Box<GraphOp>,
        /// Bound vertex to filter.
        v: usize,
        /// Predicate over the vertex relation's columns.
        predicate: ScalarExpr,
        /// Optimizer annotations.
        ann: PlanAnnotation,
    },
}

impl GraphOp {
    /// The pattern elements bound by this sub-plan, sorted. `ScanEdge`
    /// binds the edge *and* both endpoint vertices, so the pattern is
    /// required to resolve them.
    pub fn bound_elements(&self, pattern: &relgo_pattern::Pattern) -> Vec<PatternElem> {
        let mut out = Vec::new();
        self.collect_bound(pattern, &mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_bound(&self, pattern: &relgo_pattern::Pattern, out: &mut Vec<PatternElem>) {
        match self {
            GraphOp::ScanVertex { v, .. } => out.push(PatternElem::Vertex(*v)),
            GraphOp::ScanEdge { e, .. } => {
                out.push(PatternElem::Edge(*e));
                let edge = pattern.edge(*e);
                out.push(PatternElem::Vertex(edge.src));
                out.push(PatternElem::Vertex(edge.dst));
            }
            GraphOp::Expand {
                input,
                edge,
                to,
                emit_edge,
                ..
            } => {
                input.collect_bound(pattern, out);
                out.push(PatternElem::Vertex(*to));
                if *emit_edge {
                    out.push(PatternElem::Edge(*edge));
                }
            }
            GraphOp::ExpandIntersect {
                input,
                legs,
                to,
                emit_edges,
                ..
            } => {
                input.collect_bound(pattern, out);
                out.push(PatternElem::Vertex(*to));
                if *emit_edges {
                    for leg in legs {
                        out.push(PatternElem::Edge(leg.edge));
                    }
                }
            }
            GraphOp::JoinSub { left, right, .. } => {
                left.collect_bound(pattern, out);
                right.collect_bound(pattern, out);
            }
            GraphOp::FilterVertex { input, .. } => input.collect_bound(pattern, out),
        }
    }

    /// The annotations of this node.
    pub fn annotation(&self) -> PlanAnnotation {
        match self {
            GraphOp::ScanVertex { ann, .. }
            | GraphOp::ScanEdge { ann, .. }
            | GraphOp::Expand { ann, .. }
            | GraphOp::ExpandIntersect { ann, .. }
            | GraphOp::JoinSub { ann, .. }
            | GraphOp::FilterVertex { ann, .. } => *ann,
        }
    }

    /// Count operators in the sub-plan (tests, diagnostics).
    pub fn op_count(&self) -> usize {
        match self {
            GraphOp::ScanVertex { .. } | GraphOp::ScanEdge { .. } => 1,
            GraphOp::Expand { input, .. }
            | GraphOp::ExpandIntersect { input, .. }
            | GraphOp::FilterVertex { input, .. } => 1 + input.op_count(),
            GraphOp::JoinSub { left, right, .. } => 1 + left.op_count() + right.op_count(),
        }
    }

    /// Whether the sub-plan contains an `EXPAND_INTERSECT`.
    pub fn uses_intersect(&self) -> bool {
        match self {
            GraphOp::ScanVertex { .. } | GraphOp::ScanEdge { .. } => false,
            GraphOp::ExpandIntersect { .. } => true,
            GraphOp::Expand { input, .. } | GraphOp::FilterVertex { input, .. } => {
                input.uses_intersect()
            }
            GraphOp::JoinSub { left, right, .. } => left.uses_intersect() || right.uses_intersect(),
        }
    }

    /// Whether the sub-plan contains any hash join on bindings.
    pub fn uses_join(&self) -> bool {
        match self {
            GraphOp::ScanVertex { .. } | GraphOp::ScanEdge { .. } => false,
            GraphOp::JoinSub { .. } => true,
            GraphOp::Expand { input, .. }
            | GraphOp::ExpandIntersect { input, .. }
            | GraphOp::FilterVertex { input, .. } => input.uses_join(),
        }
    }

    /// Render an EXPLAIN-style tree (Fig. 12 output).
    pub fn explain(&self, names: &dyn Fn(PatternElem) -> String) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0, names);
        out
    }

    fn explain_into(&self, out: &mut String, indent: usize, names: &dyn Fn(PatternElem) -> String) {
        let pad = "  ".repeat(indent);
        match self {
            GraphOp::ScanVertex { v, predicate, ann } => {
                let _ = write!(out, "{pad}SCAN {}", names(PatternElem::Vertex(*v)));
                if let Some(p) = predicate {
                    let _ = write!(out, " ({p})");
                }
                let _ = writeln!(out, "  [card={:.0}]", ann.est_card);
            }
            GraphOp::ScanEdge { e, predicate, ann } => {
                let _ = write!(out, "{pad}SCAN_EDGE {}", names(PatternElem::Edge(*e)));
                if let Some(p) = predicate {
                    let _ = write!(out, " ({p})");
                }
                let _ = writeln!(out, "  [card={:.0}]", ann.est_card);
            }
            GraphOp::Expand {
                input,
                from,
                to,
                emit_edge,
                vertex_predicate,
                ann,
                ..
            } => {
                let opname = if *emit_edge {
                    "EXPAND_EDGE+GET_VERTEX"
                } else {
                    "EXPAND"
                };
                let _ = write!(
                    out,
                    "{pad}{opname} {} -> {}",
                    names(PatternElem::Vertex(*from)),
                    names(PatternElem::Vertex(*to))
                );
                if let Some(p) = vertex_predicate {
                    let _ = write!(out, " ({p})");
                }
                let _ = writeln!(out, "  [card={:.0}]", ann.est_card);
                input.explain_into(out, indent + 1, names);
            }
            GraphOp::ExpandIntersect {
                input,
                legs,
                to,
                ann,
                ..
            } => {
                let froms: Vec<String> = legs
                    .iter()
                    .map(|l| names(PatternElem::Vertex(l.from)))
                    .collect();
                let _ = writeln!(
                    out,
                    "{pad}EXPAND_INTERSECT {{{}}} -> {}  [card={:.0}]",
                    froms.join(", "),
                    names(PatternElem::Vertex(*to)),
                    ann.est_card
                );
                input.explain_into(out, indent + 1, names);
            }
            GraphOp::JoinSub {
                left,
                right,
                on_vertices,
                ann,
                ..
            } => {
                let keys: Vec<String> = on_vertices
                    .iter()
                    .map(|&v| names(PatternElem::Vertex(v)))
                    .collect();
                let _ = writeln!(
                    out,
                    "{pad}HASH_JOIN on {{{}}}  [card={:.0}]",
                    keys.join(", "),
                    ann.est_card
                );
                left.explain_into(out, indent + 1, names);
                right.explain_into(out, indent + 1, names);
            }
            GraphOp::FilterVertex {
                input,
                v,
                predicate,
                ..
            } => {
                let _ = writeln!(
                    out,
                    "{pad}FILTER {} ({predicate})",
                    names(PatternElem::Vertex(*v))
                );
                input.explain_into(out, indent + 1, names);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_vertex_pattern() -> relgo_pattern::Pattern {
        use relgo_common::LabelId;
        use relgo_pattern::PatternBuilder;
        let mut b = PatternBuilder::new();
        let a = b.vertex("a", LabelId(0));
        let c = b.vertex("c", LabelId(0));
        b.edge(a, c, LabelId(0)).unwrap();
        b.build().unwrap()
    }

    fn scan(v: usize) -> GraphOp {
        GraphOp::ScanVertex {
            v,
            predicate: None,
            ann: PlanAnnotation {
                est_card: 10.0,
                est_cost: 10.0,
            },
        }
    }

    #[test]
    fn bound_elements_of_expand_chain() {
        let plan = GraphOp::Expand {
            input: Box::new(scan(0)),
            from: 0,
            edge: 0,
            to: 1,
            dir: Direction::Out,
            emit_edge: true,
            edge_predicate: None,
            vertex_predicate: None,
            ann: PlanAnnotation::default(),
        };
        let pat = two_vertex_pattern();
        assert_eq!(
            plan.bound_elements(&pat),
            vec![
                PatternElem::Vertex(0),
                PatternElem::Vertex(1),
                PatternElem::Edge(0)
            ]
        );
        // Fused expand drops the edge binding.
        let fused = GraphOp::Expand {
            input: Box::new(scan(0)),
            from: 0,
            edge: 0,
            to: 1,
            dir: Direction::Out,
            emit_edge: false,
            edge_predicate: None,
            vertex_predicate: None,
            ann: PlanAnnotation::default(),
        };
        assert_eq!(
            fused.bound_elements(&pat),
            vec![PatternElem::Vertex(0), PatternElem::Vertex(1)]
        );
    }

    #[test]
    fn op_count_and_flags() {
        let join = GraphOp::JoinSub {
            left: Box::new(scan(0)),
            right: Box::new(scan(1)),
            on_vertices: vec![],
            on_edges: vec![],
            ann: PlanAnnotation::default(),
        };
        assert_eq!(join.op_count(), 3);
        assert!(join.uses_join());
        assert!(!join.uses_intersect());
        let ei = GraphOp::ExpandIntersect {
            input: Box::new(scan(0)),
            legs: vec![
                StarLeg {
                    from: 0,
                    edge: 0,
                    dir: Direction::Out,
                },
                StarLeg {
                    from: 1,
                    edge: 1,
                    dir: Direction::Out,
                },
            ],
            to: 2,
            emit_edges: false,
            vertex_predicate: None,
            ann: PlanAnnotation::default(),
        };
        assert!(ei.uses_intersect());
    }

    #[test]
    fn explain_renders_tree() {
        let plan = GraphOp::Expand {
            input: Box::new(scan(0)),
            from: 0,
            edge: 0,
            to: 1,
            dir: Direction::Out,
            emit_edge: false,
            edge_predicate: None,
            vertex_predicate: None,
            ann: PlanAnnotation {
                est_card: 42.0,
                est_cost: 100.0,
            },
        };
        let s = plan.explain(&|e| match e {
            PatternElem::Vertex(v) => format!("v{v}"),
            PatternElem::Edge(e) => format!("e{e}"),
        });
        assert!(s.contains("EXPAND v0 -> v1"));
        assert!(s.contains("card=42"));
        assert!(s.contains("SCAN v0"));
    }
}
