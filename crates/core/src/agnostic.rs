//! The graph-agnostic search space (paper §3.1.1, §4.1) and the baseline
//! passes it is paired with in the evaluation.
//!
//! The Lemma-1 transformation turns `M(P)` into a join over `n` vertex
//! relations and `m` edge relations. After the Example-4 redundancy
//! elimination, the *execution* items are the edge relations (each of which
//! binds its two endpoint vertices through the λ total functions — EV-index
//! lookups when the graph index exists, key-hash resolution otherwise) plus
//! per-vertex filters for pushed-down predicates. Join conditions link
//! items that share a pattern vertex.
//!
//! `RelationSpace` presents those relations to the plan search: joins
//! are estimated under the independence assumption from low-order statistics
//! and ranked by C_out. Which strategy orders them is the optimizer mode's
//! choice — greedy (DuckDB-like), memoized DP (Umbra-like, with histogram
//! selectivities), or the unmemoized enumeration of the *full* `n + m`
//! relation set (Calcite-like, Fig. 4b's baseline).
//!
//! The GRainDB upgrade pass ([`upgrade_to_predefined_joins`]) replaces a
//! hash join with an `EXPAND` (predefined join) wherever the join's probe
//! side is a single edge relation adjacent to an already-bound vertex —
//! exactly the "if possible" caveat of the paper's Fig. 12 caption.

use crate::graph_plan::{GraphOp, PatternElem, PlanAnnotation};
use crate::search::{Entry, Est, SearchSpace, State};
use relgo_common::{LabelId, RelGoError, Result};
use relgo_graph::{Direction, GraphView};
use relgo_pattern::Pattern;
use relgo_storage::ScalarExpr;

/// The Lemma-1 relations of a pattern as a search space.
///
/// Items `0..m` are the edge relations. With `vertex_items` (the
/// Calcite-like full Lemma-1 space, whose size Fig. 4a/4b measure) items
/// `m..m+n` are the vertex relations; without, a predicated vertex is
/// filtered at its lowest-indexed incident edge.
pub(crate) struct RelationSpace<'a> {
    pattern: &'a Pattern,
    view: &'a GraphView,
    /// Effective cardinality of each item (predicate selectivities folded
    /// in — no data access beyond low-order statistics).
    item_card: Vec<f64>,
    /// Pattern vertices each item binds.
    item_vertices: Vec<u32>,
    /// |V| per pattern vertex (label cardinality).
    vertex_card: Vec<f64>,
    /// The edge item at which each predicated vertex is filtered.
    filter_site: Vec<Option<usize>>,
}

impl<'a> RelationSpace<'a> {
    /// `histograms`: estimate predicate selectivity from equi-width
    /// histograms of the actual attribute distributions (the accuracy edge
    /// the paper credits Umbra with in §5.3.2) instead of heuristic priors.
    pub(crate) fn new(
        pattern: &'a Pattern,
        view: &'a GraphView,
        vertex_items: bool,
        histograms: bool,
    ) -> Result<Self> {
        // A pattern without edges is one vertex: its relation is the item.
        let vertex_items = vertex_items || pattern.edge_count() == 0;
        let selectivity = |table: &relgo_storage::Table, p: &ScalarExpr| -> f64 {
            if histograms {
                relgo_storage::stats::predicate_selectivity(table, p)
            } else {
                p.estimated_selectivity()
            }
        };
        let vsel = |label: LabelId, p: &ScalarExpr| selectivity(view.vertex_table(label), p);
        let vertex_card: Vec<f64> = pattern
            .vertices()
            .iter()
            .map(|v| (view.vertex_count(v.label) as f64).max(1.0))
            .collect();
        let mut item_vertices = Vec::new();
        let mut item_card = Vec::new();
        for e in pattern.edges() {
            let mut card = view.edge_count(e.label) as f64;
            if let Some(p) = &e.predicate {
                card *= selectivity(view.edge_table(e.label), p);
            }
            for v in [e.src, e.dst] {
                let pv = pattern.vertex(v);
                if let Some(p) = &pv.predicate {
                    card *= vsel(pv.label, p);
                }
            }
            item_card.push(card.max(1e-3));
            item_vertices.push(1 << e.src | 1 << e.dst);
        }
        let mut filter_site = vec![None; pattern.vertex_count()];
        for (v, pv) in pattern.vertices().iter().enumerate() {
            if vertex_items {
                let mut card = vertex_card[v];
                if let Some(p) = &pv.predicate {
                    card *= vsel(pv.label, p);
                }
                item_card.push(card.max(1e-3));
                item_vertices.push(1 << v);
            } else if pv.predicate.is_some() {
                let site = pattern.incident_edges(v).into_iter().min();
                filter_site[v] =
                    Some(site.ok_or_else(|| {
                        RelGoError::plan("predicated vertex has no incident edge")
                    })?);
            }
        }
        Ok(RelationSpace {
            pattern,
            view,
            item_card,
            item_vertices,
            vertex_card,
            filter_site,
        })
    }

    /// Vertices bound by an item subset.
    fn bound_vertices(&self, items: State) -> u32 {
        bits(items).fold(0, |vs, i| vs | self.item_vertices[i])
    }

    /// The vertices a non-empty item subset binds, if the subset is
    /// connected through shared vertices.
    fn span(&self, items: State) -> Option<u32> {
        let mut seen = items & items.wrapping_neg();
        let mut vertices = self.bound_vertices(seen);
        loop {
            let reached = bits(items & !seen)
                .filter(|&i| self.item_vertices[i] & vertices != 0)
                .fold(0, |acc, i| acc | 1 << i);
            if reached == 0 {
                return (seen == items).then_some(vertices);
            }
            seen |= reached;
            vertices |= self.bound_vertices(reached);
        }
    }
}

/// The indices of the set bits, ascending.
fn bits(mut set: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (set != 0).then(|| {
            let i = set.trailing_zeros() as usize;
            set &= set - 1;
            i
        })
    })
}

impl SearchSpace for RelationSpace<'_> {
    /// A join of two disjoint item sets sharing at least one vertex.
    type Step = (State, State);

    fn item_count(&self) -> usize {
        self.item_card.len()
    }

    /// Edge leaves scan the edge relation, applying the vertex predicates
    /// sited there; vertex leaves scan the vertex relation.
    fn leaf(&self, item: usize) -> Entry {
        let card = self.item_card[item];
        let op = if let Some(v) = item.checked_sub(self.pattern.edge_count()) {
            GraphOp::ScanVertex {
                v,
                predicate: self.pattern.vertex(v).predicate.clone(),
                ann: PlanAnnotation {
                    est_card: card,
                    est_cost: self.vertex_card[v],
                },
            }
        } else {
            let e = self.pattern.edge(item);
            let raw = self.view.edge_count(e.label) as f64;
            let mut op = GraphOp::ScanEdge {
                e: item,
                predicate: e.predicate.clone(),
                ann: PlanAnnotation {
                    est_card: raw,
                    est_cost: raw,
                },
            };
            for v in [e.src, e.dst] {
                if self.filter_site[v] == Some(item) {
                    let predicate = self.pattern.vertex(v).predicate.clone();
                    op = GraphOp::FilterVertex {
                        input: Box::new(op),
                        v,
                        predicate: predicate.expect("filter sites are predicated vertices"),
                        ann: PlanAnnotation {
                            est_card: card,
                            est_cost: raw,
                        },
                    };
                }
            }
            op
        };
        // C_out charges join outputs only.
        let est = Est { cost: 0.0, card };
        Entry { est, op }
    }

    /// Every split of `s` into two connected, mutually connected halves,
    /// the lowest item pinned to the left.
    fn steps_into(&self, s: State) -> impl Iterator<Item = (State, State)> + '_ {
        let low = s & s.wrapping_neg();
        let rest = s & !low;
        std::iter::successors(Some(rest), move |&sub| (sub != 0).then(|| (sub - 1) & rest))
            .map(move |sub| (sub | low, rest & !sub))
            .filter(move |&(left, right)| {
                let shares_vertex = |l| self.span(right).is_some_and(|r| l & r != 0);
                right != 0 && self.span(left).is_some_and(shares_vertex)
            })
    }

    fn extension(&self, cur: State, item: usize) -> Option<(State, State)> {
        (self.bound_vertices(cur) & self.item_vertices[item] != 0).then_some((cur, 1 << item))
    }

    fn inputs(&self, &(left, right): &(State, State)) -> (State, Option<State>) {
        (left, Some(right))
    }

    /// Independence assumption: `|A ⋈ B| = |A|·|B| / Π |V_v|` over the
    /// shared vertices; C_out adds the output to the inputs' costs.
    fn estimate(&self, &(left, right): &(State, State), l: Est, r: Option<Est>) -> Est {
        let r = r.expect("a join has two inputs");
        let shared = self.bound_vertices(left) & self.bound_vertices(right);
        let denom: f64 = bits(shared).map(|v| self.vertex_card[v]).product();
        let card = (l.card * r.card / denom).max(1e-3);
        Est {
            cost: l.cost + r.cost + card,
            card,
        }
    }

    /// Hash join on the shared bound vertices.
    fn emit(
        &self,
        &(left, right): &(State, State),
        est: Est,
        l: Entry,
        r: Option<Entry>,
    ) -> GraphOp {
        let r = r.expect("a join has two inputs");
        let shared = self.bound_vertices(left) & self.bound_vertices(right);
        GraphOp::JoinSub {
            on_vertices: bits(shared).collect(),
            on_edges: Vec::new(),
            ann: PlanAnnotation {
                est_card: est.card,
                est_cost: l.op.annotation().est_cost + r.op.annotation().est_cost + est.card,
            },
            left: Box::new(l.op),
            right: Box::new(r.op),
        }
    }
}

/// GRainDB upgrade: rewrite `JoinSub(left, ScanEdge e)` (or its mirror)
/// into `EXPAND` when exactly one endpoint of `e` is bound on the other
/// side — the predefined join. Joins that close a cycle (both endpoints
/// bound) stay hash joins, which is precisely where GRainDB loses to
/// RelGo's `EXPAND_INTERSECT`.
pub fn upgrade_to_predefined_joins(pattern: &Pattern, mut op: GraphOp) -> GraphOp {
    op.rewrite_bottom_up(&mut |op| {
        if let Some(expand) = predefined_join(pattern, op) {
            *op = expand;
        }
    });
    op
}

/// The `EXPAND` that replaces `op` if it is a join of a single edge leaf
/// with a side binding exactly one of the edge's endpoints.
fn predefined_join(pattern: &Pattern, op: &GraphOp) -> Option<GraphOp> {
    let GraphOp::JoinSub {
        left, right, ann, ..
    } = op
    else {
        return None;
    };
    for (probe, leaf) in [(left, right), (right, left)] {
        let Some((e, filters)) = as_edge_leaf(leaf) else {
            continue;
        };
        let edge = pattern.edge(e);
        let probe_bound = probe.bound_elements(pattern);
        let src_bound = probe_bound.contains(&PatternElem::Vertex(edge.src));
        let dst_bound = probe_bound.contains(&PatternElem::Vertex(edge.dst));
        if src_bound == dst_bound {
            continue;
        }
        let (from, to, dir) = if src_bound {
            (edge.src, edge.dst, Direction::Out)
        } else {
            (edge.dst, edge.src, Direction::In)
        };
        // Vertex filters the leaf carried must not be lost: a filter on the
        // *target* runs inline during the expansion; a filter on the
        // *source* (bound by the probe but never evaluated, since its site
        // was this leaf) is applied below the expand so it prunes before
        // the fan-out.
        let mut input = probe.clone();
        let mut vertex_predicate = None;
        for (v, predicate) in filters {
            if v == to {
                vertex_predicate = Some(ScalarExpr::conjoin(vertex_predicate, predicate));
            } else {
                input = Box::new(GraphOp::FilterVertex {
                    input,
                    v,
                    predicate,
                    ann: *ann,
                });
            }
        }
        return Some(GraphOp::Expand {
            input,
            from,
            edge: e,
            to,
            dir,
            emit_edge: true,
            edge_predicate: edge.predicate.clone(),
            vertex_predicate,
            ann: *ann,
        });
    }
    None
}

/// If `op` is a `ScanEdge` optionally wrapped in vertex filters, return the
/// edge index and the filters (innermost first).
fn as_edge_leaf(op: &GraphOp) -> Option<(usize, Vec<(usize, ScalarExpr)>)> {
    let mut filters = Vec::new();
    for op in op.preorder() {
        match op {
            GraphOp::ScanEdge { e, .. } => return Some((*e, filters)),
            GraphOp::FilterVertex { v, predicate, .. } => filters.push((*v, predicate.clone())),
            _ => return None,
        }
    }
    None
}

/// Kùzu-like graph-native heuristic plan: start at the most selective
/// vertex, then expand edges in BFS order (no cost model, no intersection,
/// full edge materialization); cycle-closing edges become hash joins with
/// their edge relation.
pub fn kuzu_heuristic_plan(pattern: &Pattern, view: &GraphView) -> Result<GraphOp> {
    let n = pattern.vertex_count();
    if n == 0 {
        return Err(RelGoError::plan("empty pattern"));
    }
    if pattern.edge_count() > u64::BITS as usize {
        return Err(RelGoError::plan(format!(
            "Kùzu heuristic: pattern has {} edges, more than the {} its edge set holds",
            pattern.edge_count(),
            u64::BITS
        )));
    }
    // Start vertex: predicated if any, else smallest label cardinality.
    let start = (0..n)
        .find(|&v| pattern.vertex(v).predicate.is_some())
        .unwrap_or_else(|| {
            (0..n)
                .min_by_key(|&v| view.vertex_count(pattern.vertex(v).label))
                .expect("non-empty pattern")
        });
    let start_card = view.vertex_count(pattern.vertex(start).label) as f64;
    let mut plan = GraphOp::ScanVertex {
        v: start,
        predicate: pattern.vertex(start).predicate.clone(),
        ann: PlanAnnotation {
            est_card: start_card,
            est_cost: start_card,
        },
    };
    let mut bound_v: u32 = 1 << start;
    let mut bound_e: u64 = 0;
    // BFS over pattern edges.
    loop {
        // First, close any edge whose endpoints are both bound (cycle).
        let mut progressed = false;
        for (ei, e) in pattern.edges().iter().enumerate() {
            if bound_e & (1 << ei) != 0 {
                continue;
            }
            let sb = bound_v & (1 << e.src) != 0;
            let db = bound_v & (1 << e.dst) != 0;
            if sb && db {
                let raw = view.edge_count(e.label) as f64;
                plan = GraphOp::JoinSub {
                    left: Box::new(plan),
                    right: Box::new(GraphOp::ScanEdge {
                        e: ei,
                        predicate: e.predicate.clone(),
                        ann: PlanAnnotation {
                            est_card: raw,
                            est_cost: raw,
                        },
                    }),
                    on_vertices: vec![e.src, e.dst],
                    on_edges: Vec::new(),
                    ann: PlanAnnotation::default(),
                };
                bound_e |= 1 << ei;
                progressed = true;
            }
        }
        // Then expand the lowest-indexed frontier edge.
        if let Some((ei, e)) = pattern.edges().iter().enumerate().find(|(ei, e)| {
            bound_e & (1 << ei) == 0
                && (bound_v & (1 << e.src) != 0) != (bound_v & (1 << e.dst) != 0)
        }) {
            let src_bound = bound_v & (1 << e.src) != 0;
            let (from, to, dir) = if src_bound {
                (e.src, e.dst, Direction::Out)
            } else {
                (e.dst, e.src, Direction::In)
            };
            plan = GraphOp::Expand {
                input: Box::new(plan),
                from,
                edge: ei,
                to,
                dir,
                emit_edge: true,
                edge_predicate: e.predicate.clone(),
                vertex_predicate: pattern.vertex(to).predicate.clone(),
                ann: PlanAnnotation::default(),
            };
            bound_v |= 1 << to;
            bound_e |= 1 << ei;
            progressed = true;
        }
        if !progressed {
            break;
        }
    }
    if bound_e.count_ones() as usize != pattern.edge_count() {
        return Err(RelGoError::plan("Kùzu heuristic failed to cover all edges"));
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{search, SearchStats, Strategy};
    use relgo_graph::fig2;
    use relgo_pattern::PatternBuilder;
    use std::time::Duration;

    fn triangle() -> Pattern {
        let mut b = PatternBuilder::new();
        let p1 = b.vertex("p1", LabelId(0));
        let p2 = b.vertex("p2", LabelId(0));
        let m = b.vertex("m", LabelId(1));
        b.edge(p1, p2, LabelId(1)).unwrap();
        b.edge(p1, m, LabelId(0)).unwrap();
        b.edge(p2, m, LabelId(0)).unwrap();
        b.build().unwrap()
    }

    /// Search the relation space the way the agnostic modes do: the
    /// exhaustive strategy ranges over the vertex relations too.
    fn order(
        p: &Pattern,
        v: &GraphView,
        strategy: Strategy,
        timeout: Duration,
    ) -> Result<(GraphOp, SearchStats)> {
        let space = RelationSpace::new(p, v, strategy == Strategy::Exhaustive, false)?;
        search(&space, strategy, timeout)
    }

    fn greedy(p: &Pattern, v: &GraphView) -> GraphOp {
        order(p, v, Strategy::Greedy, Duration::from_secs(5))
            .unwrap()
            .0
    }

    #[test]
    fn greedy_covers_all_edges_with_joins() {
        let (v, _) = fig2::view();
        let plan = greedy(&triangle(), &v);
        let bound = plan.bound_elements(&triangle());
        for e in 0..3 {
            assert!(bound.contains(&PatternElem::Edge(e)), "edge {e} unbound");
        }
        let kinds: Vec<&str> = plan.preorder().map(GraphOp::kind).collect();
        assert!(kinds.contains(&"join_sub"), "{kinds:?}");
        assert!(
            !kinds.contains(&"expand_intersect"),
            "agnostic plans never intersect"
        );
    }

    #[test]
    fn graindb_upgrade_introduces_expands() {
        let (v, _) = fig2::view();
        let hash_plan = greedy(&triangle(), &v);
        let upgraded = upgrade_to_predefined_joins(&triangle(), hash_plan.clone());
        let count = |op: &GraphOp, kind| op.preorder().filter(|o| o.kind() == kind).count();
        assert_eq!(count(&hash_plan, "expand"), 0);
        assert!(count(&upgraded, "expand") >= 1, "plan: {upgraded:?}");
        // The triangle-closing edge must stay a hash join.
        assert!(
            count(&upgraded, "join_sub") >= 1,
            "cycle closure stays a join"
        );
    }

    #[test]
    fn exhaustive_times_out_gracefully() {
        // A 8-edge path explodes without memoization; a zero timeout forces
        // the greedy fallback immediately.
        let mut b = PatternBuilder::new();
        let mut prev = b.vertex("v0", LabelId(0));
        for i in 1..=6 {
            let v = b.vertex(&format!("v{i}"), LabelId(0));
            b.edge(prev, v, LabelId(1)).unwrap();
            prev = v;
        }
        let p = b.build().unwrap();
        let (v, _) = fig2::view();
        let (plan, stats) = order(&p, &v, Strategy::Exhaustive, Duration::ZERO).unwrap();
        assert!(stats.timed_out);
        assert_eq!(
            plan.bound_elements(&p)
                .iter()
                .filter(|e| matches!(e, PatternElem::Edge(_)))
                .count(),
            6
        );
    }

    #[test]
    fn more_items_than_state_bits_is_a_typed_error() {
        // 8 persons, all 56 directed Knows edges: more relations than a
        // search state has bits. Must not overflow a shift (debug) or
        // misreport the pattern as disconnected (release).
        let mut b = PatternBuilder::new();
        let vs: Vec<usize> = (0..8)
            .map(|i| b.vertex(&format!("p{i}"), LabelId(0)))
            .collect();
        for &src in &vs {
            for &dst in vs.iter().filter(|&&dst| dst != src) {
                b.edge(src, dst, LabelId(1)).unwrap();
            }
        }
        let p = b.build().unwrap();
        assert_eq!(p.edge_count(), 56);
        let (v, _) = fig2::view();
        for strategy in [Strategy::Greedy, Strategy::Memoized, Strategy::Exhaustive] {
            let err = order(&p, &v, strategy, Duration::from_secs(5)).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("plan error"), "{msg}");
            // The exhaustive strategy also counts the 8 vertex relations.
            let items = if strategy == Strategy::Exhaustive {
                64
            } else {
                56
            };
            assert!(msg.contains(&format!("{items} items")), "{msg}");
            assert!(msg.contains("32"), "{msg}");
        }
    }

    #[test]
    fn vertex_predicates_become_filters_once() {
        let mut p = triangle();
        p.add_vertex_predicate(0, ScalarExpr::col_eq(1, "Tom"));
        let (v, _) = fig2::view();
        let plan = greedy(&p, &v);
        let filters = plan
            .preorder()
            .filter(|op| matches!(op, GraphOp::FilterVertex { .. }))
            .count();
        assert_eq!(filters, 1, "plan: {plan:?}");
    }

    #[test]
    fn kuzu_plan_is_expand_heavy_and_covers_pattern() {
        let (v, _) = fig2::view();
        let plan = kuzu_heuristic_plan(&triangle(), &v).unwrap();
        let bound = plan.bound_elements(&triangle());
        assert_eq!(bound.len(), 6, "3 vertices + 3 edges: {bound:?}");
        assert!(
            plan.preorder().all(|op| op.kind() != "expand_intersect"),
            "Kùzu-like mode has no EI join"
        );
    }

    #[test]
    fn kuzu_plan_refuses_more_edges_than_its_edge_set_holds() {
        let parallel_knows = |m: usize| {
            let mut b = PatternBuilder::new();
            let p1 = b.vertex("p1", LabelId(0));
            let p2 = b.vertex("p2", LabelId(0));
            for _ in 0..m {
                b.edge(p1, p2, LabelId(1)).unwrap();
            }
            b.build().unwrap()
        };
        let (v, _) = fig2::view();
        let err = kuzu_heuristic_plan(&parallel_knows(65), &v).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("plan error"), "{msg}");
        assert!(msg.contains("65 edges") && msg.contains("64"), "{msg}");
        let p = parallel_knows(64);
        let plan = kuzu_heuristic_plan(&p, &v).unwrap();
        let bound = plan.bound_elements(&p);
        assert!((0..64).all(|e| bound.contains(&PatternElem::Edge(e))));
    }

    #[test]
    fn single_vertex_pattern_scans() {
        let mut b = PatternBuilder::new();
        b.vertex("p", LabelId(0));
        let p = b.build().unwrap();
        let (v, _) = fig2::view();
        assert!(matches!(greedy(&p, &v), GraphOp::ScanVertex { .. }));
    }
}
