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
    /// The direct inputs, left before right — the order of EXPLAIN lines
    /// and operator ids.
    pub(crate) fn inputs(&self) -> impl DoubleEndedIterator<Item = &GraphOp> {
        let (first, second) = match self {
            GraphOp::ScanVertex { .. } | GraphOp::ScanEdge { .. } => (None, None),
            GraphOp::Expand { input, .. }
            | GraphOp::ExpandIntersect { input, .. }
            | GraphOp::FilterVertex { input, .. } => (Some(&**input), None),
            GraphOp::JoinSub { left, right, .. } => (Some(&**left), Some(&**right)),
        };
        first.into_iter().chain(second)
    }

    /// [`GraphOp::inputs`], mutably.
    pub(crate) fn inputs_mut(&mut self) -> impl Iterator<Item = &mut GraphOp> {
        let (first, second) = match self {
            GraphOp::ScanVertex { .. } | GraphOp::ScanEdge { .. } => (None, None),
            GraphOp::Expand { input, .. }
            | GraphOp::ExpandIntersect { input, .. }
            | GraphOp::FilterVertex { input, .. } => (Some(&mut **input), None),
            GraphOp::JoinSub { left, right, .. } => (Some(&mut **left), Some(&mut **right)),
        };
        first.into_iter().chain(second)
    }

    /// This node's own predicate sites (its inputs' are not included).
    pub(crate) fn predicates_mut(&mut self) -> [Option<&mut ScalarExpr>; 2] {
        match self {
            GraphOp::ScanVertex { predicate, .. } | GraphOp::ScanEdge { predicate, .. } => {
                [predicate.as_mut(), None]
            }
            GraphOp::Expand {
                edge_predicate,
                vertex_predicate,
                ..
            } => [edge_predicate.as_mut(), vertex_predicate.as_mut()],
            GraphOp::ExpandIntersect {
                vertex_predicate, ..
            } => [vertex_predicate.as_mut(), None],
            GraphOp::JoinSub { .. } => [None, None],
            GraphOp::FilterVertex { predicate, .. } => [Some(predicate), None],
        }
    }

    /// Every node of the sub-plan in pre-order: a node before its inputs,
    /// left before right.
    pub fn preorder(&self) -> impl Iterator<Item = &GraphOp> {
        let mut stack = vec![self];
        std::iter::from_fn(move || {
            let op = stack.pop()?;
            stack.extend(op.inputs().rev());
            Some(op)
        })
    }

    /// Rewrite the sub-plan bottom-up: `f` sees each node after its inputs.
    pub(crate) fn rewrite_bottom_up(&mut self, f: &mut dyn FnMut(&mut GraphOp)) {
        for input in self.inputs_mut() {
            input.rewrite_bottom_up(f);
        }
        f(self);
    }

    /// The pattern elements bound by this sub-plan, sorted. `ScanEdge`
    /// binds the edge *and* both endpoint vertices, so the pattern is
    /// required to resolve them.
    pub fn bound_elements(&self, pattern: &relgo_pattern::Pattern) -> Vec<PatternElem> {
        let mut out = Vec::new();
        for op in self.preorder() {
            match op {
                GraphOp::ScanVertex { v, .. } => out.push(PatternElem::Vertex(*v)),
                GraphOp::ScanEdge { e, .. } => {
                    let edge = pattern.edge(*e);
                    out.extend([
                        PatternElem::Edge(*e),
                        PatternElem::Vertex(edge.src),
                        PatternElem::Vertex(edge.dst),
                    ]);
                }
                GraphOp::Expand {
                    edge,
                    to,
                    emit_edge,
                    ..
                } => {
                    out.push(PatternElem::Vertex(*to));
                    if *emit_edge {
                        out.push(PatternElem::Edge(*edge));
                    }
                }
                GraphOp::ExpandIntersect {
                    legs,
                    to,
                    emit_edges,
                    ..
                } => {
                    out.push(PatternElem::Vertex(*to));
                    if *emit_edges {
                        out.extend(legs.iter().map(|leg| PatternElem::Edge(leg.edge)));
                    }
                }
                GraphOp::JoinSub { .. } | GraphOp::FilterVertex { .. } => {}
            }
        }
        out.sort();
        out.dedup();
        out
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

    fn expand(emit_edge: bool, est_card: f64) -> GraphOp {
        GraphOp::Expand {
            input: Box::new(scan(0)),
            from: 0,
            edge: 0,
            to: 1,
            dir: Direction::Out,
            emit_edge,
            edge_predicate: None,
            vertex_predicate: None,
            ann: PlanAnnotation {
                est_card,
                est_cost: 100.0,
            },
        }
    }

    #[test]
    fn bound_elements_of_expand_chain() {
        let pat = two_vertex_pattern();
        assert_eq!(
            expand(true, 1.0).bound_elements(&pat),
            vec![
                PatternElem::Vertex(0),
                PatternElem::Vertex(1),
                PatternElem::Edge(0)
            ]
        );
        // Fused expand drops the edge binding.
        assert_eq!(
            expand(false, 1.0).bound_elements(&pat),
            vec![PatternElem::Vertex(0), PatternElem::Vertex(1)]
        );
    }

    #[test]
    fn op_count_and_flags() {
        let leg = |from| StarLeg {
            from,
            edge: from,
            dir: Direction::Out,
        };
        let ei = GraphOp::ExpandIntersect {
            input: Box::new(scan(0)),
            legs: vec![leg(0), leg(1)],
            to: 2,
            emit_edges: false,
            vertex_predicate: None,
            ann: PlanAnnotation::default(),
        };
        let join = GraphOp::JoinSub {
            left: Box::new(ei),
            right: Box::new(expand(true, 1.0)),
            on_vertices: vec![],
            on_edges: vec![],
            ann: PlanAnnotation::default(),
        };
        // Pre-order: a node before its inputs, the left subtree first.
        let kinds: Vec<&str> = join.preorder().map(GraphOp::kind).collect();
        assert_eq!(
            kinds,
            [
                "join_sub",
                "expand_intersect",
                "scan_vertex",
                "expand",
                "scan_vertex"
            ]
        );
    }

    #[test]
    fn explain_renders_tree() {
        let s = expand(false, 42.0).explain(&|e| match e {
            PatternElem::Vertex(v) => format!("v{v}"),
            PatternElem::Edge(e) => format!("e{e}"),
        });
        assert!(s.contains("EXPAND v0 -> v1"));
        assert!(s.contains("card=42"));
        assert!(s.contains("SCAN v0"));
    }
}
