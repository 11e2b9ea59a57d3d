//! The graph-aware search space (paper §3.1.2, §4.2.1).
//!
//! [`DecompositionSpace`] presents the decomposition trees of a pattern to
//! the plan search ([`crate::search`]): states are the connected induced vertex subsets,
//! with legal transitions enumerated by `relgo-pattern::decompose`:
//!
//! * singleton states are `SCAN` of the vertex relation;
//! * `Expand` transitions become `EXPAND_EDGE`+`GET_VERTEX` (later fused by
//!   `TrimAndFuseRule`);
//! * `ExpandIntersect` transitions become the worst-case-optimal EI-join —
//!   or, when disabled (`RelGoNoEI`), a chain of one `EXPAND` plus hash
//!   joins against the remaining star edges;
//! * `BinaryJoin` transitions become `HASH_JOIN` on the common vertices.
//!
//! Cardinalities come from GLogue (exact for small sub-patterns, predicates
//! included — the high-order statistics of §4.3); costs from
//! [`CostModel`]. The optimal plan is the cheapest tree over the full
//! vertex set, which is exactly GLogS's shortest-path search expressed as a
//! subset DP.

use crate::graph_plan::{GraphOp, PlanAnnotation, StarLeg};
use crate::search::{Entry, Est, SearchSpace, State};
use relgo_common::{FxHashMap, Result};
use relgo_glogue::{CostModel, GLogue};
use relgo_graph::Direction;
use relgo_pattern::decompose::{
    connected_induced_subsets, contains, extension, transitions_into, Transition, VertexSet,
};
use relgo_pattern::Pattern;

/// The decomposition trees of a pattern as a search space; items are the
/// pattern vertices.
pub(crate) struct DecompositionSpace<'a> {
    pattern: &'a Pattern,
    glogue: &'a GLogue,
    /// Whether `EXPAND_INTERSECT` may be used (`false` = RelGoNoEI).
    allow_ei: bool,
    /// The physical cost model (indexed or not — RelGoHash uses the
    /// unindexed model and the executor falls back to hash resolution).
    cost: CostModel,
    /// GLogue cardinality of every connected induced sub-pattern.
    cards: FxHashMap<VertexSet, f64>,
}

impl<'a> DecompositionSpace<'a> {
    pub(crate) fn new(
        pattern: &'a Pattern,
        glogue: &'a GLogue,
        allow_ei: bool,
        cost: CostModel,
    ) -> Result<Self> {
        let cards = connected_induced_subsets(pattern)
            .into_iter()
            .map(|s| glogue.subset_cardinality(pattern, s).map(|card| (s, card)))
            .collect::<Result<_>>()?;
        Ok(DecompositionSpace {
            pattern,
            glogue,
            allow_ei,
            cost,
            cards,
        })
    }

    /// How `edge` is traversed to reach `new_vertex` from its other end.
    fn leg(&self, new_vertex: usize, edge: usize) -> StarLeg {
        let e = self.pattern.edge(edge);
        let from = if e.src == new_vertex { e.dst } else { e.src };
        let dir = if e.src == from {
            Direction::Out
        } else {
            Direction::In
        };
        StarLeg { from, edge, dir }
    }

    fn avg_degree(&self, leg: &StarLeg) -> f64 {
        self.glogue
            .avg_degree(self.pattern.edge(leg.edge).label, leg.dir)
    }

    fn edge_rows(&self, edge: usize) -> f64 {
        self.glogue.view().edge_count(self.pattern.edge(edge).label) as f64
    }

    fn expand_cost(&self, input: Est, leg: &StarLeg) -> f64 {
        let step = self
            .cost
            .expand(input.card, self.avg_degree(leg), self.edge_rows(leg.edge));
        input.cost + step
    }

    /// The RelGoNoEI fallback for a complete star — "a traditional multiple
    /// join" (§5.2): expand the first leg, then close each remaining leg
    /// with a hash join against its edge relation. Returns the estimate
    /// after each leg; the last carries the star's `card`.
    fn star_chain(&self, input: Est, new_vertex: usize, edges: &[usize], card: f64) -> Vec<Est> {
        // Cardinality after binding only the first star edge: estimated via
        // the average degree of that edge (a partial star is not induced, so
        // GLogue's subset lookup does not apply).
        let first = self.leg(new_vertex, edges[0]);
        let mut acc = Est {
            cost: self.expand_cost(input, &first),
            card: input.card * self.avg_degree(&first).max(1e-3),
        };
        let mut chain = vec![acc];
        for (i, &ei) in edges.iter().enumerate().skip(1) {
            let edge_rows = self.edge_rows(ei);
            let next = if i + 1 == edges.len() { card } else { acc.card };
            let step = self.cost.hash_join(acc.card, edge_rows, next);
            acc = Est {
                cost: acc.cost + step + edge_rows,
                card: next,
            };
            chain.push(acc);
        }
        chain
    }

    fn expand_op(&self, input: GraphOp, leg: StarLeg, to: usize, est: Est) -> GraphOp {
        GraphOp::Expand {
            input: Box::new(input),
            from: leg.from,
            edge: leg.edge,
            to,
            dir: leg.dir,
            emit_edge: true,
            edge_predicate: self.pattern.edge(leg.edge).predicate.clone(),
            vertex_predicate: self.pattern.vertex(to).predicate.clone(),
            ann: annotation(est),
        }
    }
}

fn annotation(est: Est) -> PlanAnnotation {
    PlanAnnotation {
        est_card: est.card,
        est_cost: est.cost,
    }
}

/// The state a transition produces.
fn target(t: &Transition) -> VertexSet {
    match t {
        Transition::Expand {
            from, new_vertex, ..
        }
        | Transition::ExpandIntersect {
            from, new_vertex, ..
        } => from | 1 << new_vertex,
        Transition::BinaryJoin { left, right } => left | right,
    }
}

impl SearchSpace for DecompositionSpace<'_> {
    type Step = Transition;

    fn item_count(&self) -> usize {
        self.pattern.vertex_count()
    }

    fn leaf(&self, v: usize) -> Entry {
        let pv = self.pattern.vertex(v);
        let table_rows = self.glogue.view().vertex_count(pv.label) as f64;
        let est = Est {
            cost: self.cost.scan(table_rows),
            card: self.cards[&(1 << v)],
        };
        let op = GraphOp::ScanVertex {
            v,
            predicate: pv.predicate.clone(),
            ann: annotation(est),
        };
        Entry { est, op }
    }

    fn steps_into(&self, s: State) -> impl Iterator<Item = Transition> + '_ {
        // Items are pattern vertices (≤ `Pattern::MAX_VERTICES` = 16), so a
        // state always fits a `VertexSet`.
        transitions_into(self.pattern, s as VertexSet).into_iter()
    }

    fn extension(&self, cur: State, v: usize) -> Option<Transition> {
        extension(self.pattern, cur as VertexSet, v)
    }

    fn inputs(&self, t: &Transition) -> (State, Option<State>) {
        match *t {
            Transition::Expand { from, .. } | Transition::ExpandIntersect { from, .. } => {
                (from.into(), None)
            }
            Transition::BinaryJoin { left, right } => (left.into(), Some(right.into())),
        }
    }

    fn estimate(&self, t: &Transition, l: Est, r: Option<Est>) -> Est {
        let card = self.cards[&target(t)];
        let cost = match t {
            Transition::Expand {
                new_vertex, edge, ..
            } => self.expand_cost(l, &self.leg(*new_vertex, *edge)),
            Transition::ExpandIntersect {
                new_vertex, edges, ..
            } if self.allow_ei => {
                let degrees: Vec<f64> = edges
                    .iter()
                    .map(|&e| self.avg_degree(&self.leg(*new_vertex, e)))
                    .collect();
                l.cost + self.cost.expand_intersect(l.card, &degrees, card)
            }
            Transition::ExpandIntersect {
                new_vertex, edges, ..
            } => {
                let chain = self.star_chain(l, *new_vertex, edges, card);
                chain[chain.len() - 1].cost
            }
            Transition::BinaryJoin { .. } => {
                let r = r.expect("a join has two inputs");
                l.cost + r.cost + self.cost.hash_join(l.card, r.card, card)
            }
        };
        Est { cost, card }
    }

    fn emit(&self, t: &Transition, est: Est, l: Entry, r: Option<Entry>) -> GraphOp {
        match t {
            Transition::Expand {
                new_vertex, edge, ..
            } => self.expand_op(l.op, self.leg(*new_vertex, *edge), *new_vertex, est),
            Transition::ExpandIntersect {
                new_vertex, edges, ..
            } if self.allow_ei => GraphOp::ExpandIntersect {
                input: Box::new(l.op),
                legs: edges.iter().map(|&e| self.leg(*new_vertex, e)).collect(),
                to: *new_vertex,
                emit_edges: true,
                vertex_predicate: self.pattern.vertex(*new_vertex).predicate.clone(),
                ann: annotation(est),
            },
            Transition::ExpandIntersect {
                new_vertex, edges, ..
            } => {
                let chain = self.star_chain(l.est, *new_vertex, edges, est.card);
                let first = self.leg(*new_vertex, edges[0]);
                let mut op = self.expand_op(l.op, first, *new_vertex, chain[0]);
                for (&ei, &after) in edges.iter().zip(&chain).skip(1) {
                    let e = self.pattern.edge(ei);
                    let edge_rows = self.edge_rows(ei);
                    let scan = GraphOp::ScanEdge {
                        e: ei,
                        predicate: e.predicate.clone(),
                        ann: PlanAnnotation {
                            est_card: edge_rows,
                            est_cost: edge_rows,
                        },
                    };
                    op = GraphOp::JoinSub {
                        left: Box::new(op),
                        right: Box::new(scan),
                        on_vertices: vec![self.leg(*new_vertex, ei).from, *new_vertex],
                        on_edges: Vec::new(),
                        ann: annotation(after),
                    };
                }
                op
            }
            Transition::BinaryJoin { left, right } => GraphOp::JoinSub {
                left: Box::new(l.op),
                right: Box::new(r.expect("a join has two inputs").op),
                on_vertices: (0..self.pattern.vertex_count())
                    .filter(|&v| contains(left & right, v))
                    .collect(),
                on_edges: Vec::new(),
                ann: annotation(est),
            },
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::search::{search, Strategy};
    use relgo_common::LabelId;
    use relgo_graph::fig2;
    use relgo_pattern::PatternBuilder;
    use relgo_storage::ScalarExpr;
    use std::sync::Arc;

    pub(crate) fn triangle() -> Pattern {
        let mut b = PatternBuilder::new();
        let p1 = b.vertex("p1", LabelId(0));
        let p2 = b.vertex("p2", LabelId(0));
        let m = b.vertex("m", LabelId(1));
        b.edge(p1, p2, LabelId(1)).unwrap();
        b.edge(p1, m, LabelId(0)).unwrap();
        b.edge(p2, m, LabelId(0)).unwrap();
        b.build().unwrap()
    }

    fn plan(p: &Pattern, gl: &GLogue, allow_ei: bool) -> GraphOp {
        let space = DecompositionSpace::new(p, gl, allow_ei, CostModel::indexed()).unwrap();
        let budget = std::time::Duration::from_secs(5);
        search(&space, Strategy::Memoized, budget).unwrap().0
    }

    #[test]
    fn triangle_plan_uses_expand_intersect() {
        let gl = GLogue::new(Arc::new(fig2::view().0), 3, 1).unwrap();
        let plan = plan(&triangle(), &gl, true);
        assert!(
            plan.preorder().any(|op| op.kind() == "expand_intersect"),
            "plan: {plan:?}"
        );
        assert!(plan.annotation().est_card > 0.0);
    }

    #[test]
    fn no_ei_config_avoids_intersect() {
        let gl = GLogue::new(Arc::new(fig2::view().0), 3, 1).unwrap();
        let plan = plan(&triangle(), &gl, false);
        let kinds: Vec<&str> = plan.preorder().map(GraphOp::kind).collect();
        assert!(!kinds.contains(&"expand_intersect"), "{kinds:?}");
        // The triangle now needs a hash join to close the cycle.
        assert!(kinds.contains(&"join_sub"), "plan: {plan:?}");
    }

    #[test]
    fn single_vertex_pattern_is_a_scan() {
        let gl = GLogue::new(Arc::new(fig2::view().0), 3, 1).unwrap();
        let mut b = PatternBuilder::new();
        b.vertex("p", LabelId(0));
        let p = b.build().unwrap();
        let plan = plan(&p, &gl, true);
        assert!(matches!(plan, GraphOp::ScanVertex { v: 0, .. }));
    }

    #[test]
    fn predicated_vertex_becomes_cheap_entry_point() {
        let gl = GLogue::new(Arc::new(fig2::view().0), 3, 1).unwrap();
        let mut b = PatternBuilder::new();
        let p1 = b.vertex("p1", LabelId(0));
        let p2 = b.vertex("p2", LabelId(0));
        b.edge(p1, p2, LabelId(1)).unwrap();
        b.vertex_predicate(p1, ScalarExpr::col_eq(1, "Tom"));
        let p = b.build().unwrap();
        let plan = plan(&p, &gl, true);
        // The plan must start scanning at the predicated vertex (card 1)
        // and expand outward.
        match &plan {
            GraphOp::Expand { input, from, .. } => {
                assert_eq!(*from, 0, "expansion starts at Tom");
                match input.as_ref() {
                    GraphOp::ScanVertex {
                        v: 0, predicate, ..
                    } => {
                        assert!(predicate.is_some())
                    }
                    other => panic!("unexpected entry {other:?}"),
                }
            }
            other => panic!("unexpected root {other:?}"),
        }
    }

    #[test]
    fn costs_accumulate_monotonically() {
        let gl = GLogue::new(Arc::new(fig2::view().0), 3, 1).unwrap();
        let plan = plan(&triangle(), &gl, true);
        fn check(op: &GraphOp) -> f64 {
            let own = op.annotation().est_cost;
            let child_max = op.inputs().map(check).fold(0.0, f64::max);
            assert!(
                own >= child_max,
                "cumulative cost must not decrease: {own} < {child_max}"
            );
            own
        }
        check(&plan);
    }
}
