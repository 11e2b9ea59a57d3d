//! The GLogue statistics store.
//!
//! GLogS builds a structure whose vertices are patterns of up to `k`
//! vertices (k = 3 by default) annotated with their match cardinalities.
//! We realize the same statistics as a *memoized counting service*: exact
//! cardinalities of small (sub-)patterns — predicates included — computed on
//! first use against the (optionally sparsified) graph and cached under a
//! canonical key; larger patterns are estimated by peeling one vertex at a
//! time and multiplying by conditional extension rates derived from exact
//! small-pattern counts (the "high-order statistics" of §4.3).

use crate::counting::count_homomorphisms;
use parking_lot::Mutex;
use relgo_common::fxhash::FxHashMap;
use relgo_common::{RelGoError, Result};
use relgo_graph::{GraphStats, GraphView};
use relgo_pattern::decompose::{self, is_induced_connected, iter_vertices, sub_pattern, VertexSet};
use relgo_pattern::{canonical_form, Pattern};
use std::sync::Arc;

/// Cache key: canonical skeleton code + canonicalized predicate summary.
type StatKey = (relgo_pattern::CanonCode, String);

/// A predicate is named by the canonical *position* of the element it sits
/// on, not by the element's label: the same predicate on two different
/// same-label vertices of one skeleton is a different statistic.
fn stat_key(p: &Pattern) -> StatKey {
    let form = canonical_form(p);
    let mut preds: Vec<String> = Vec::new();
    for (v, pv) in p.vertices().iter().enumerate() {
        if let Some(e) = &pv.predicate {
            preds.push(format!("v{}:{}", form.vertex_perm[v], e));
        }
    }
    for (e, pe) in p.edges().iter().enumerate() {
        if let Some(x) = &pe.predicate {
            preds.push(format!("e{}:{}", form.edge_perm[e], x));
        }
    }
    preds.sort();
    (form.code, preds.join("&"))
}

/// The set of vertex and edge labels a cached count depends on. A pattern's
/// homomorphism count only reads the tables backing its own labels, so a
/// committed delta invalidates exactly the entries whose mask intersects
/// the changed labels. Labels ≥ 64 share the top bit (conservative:
/// over-invalidation only, never a stale count).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LabelMask {
    /// Vertex-label bits.
    pub vertices: u64,
    /// Edge-label bits.
    pub edges: u64,
}

impl LabelMask {
    fn bit(label: u16) -> u64 {
        1u64 << (label as u32).min(63)
    }

    /// The labels `pattern` touches.
    pub fn of_pattern(p: &Pattern) -> LabelMask {
        let mut m = LabelMask::default();
        for v in p.vertices() {
            m.vertices |= LabelMask::bit(v.label.0);
        }
        for e in p.edges() {
            m.edges |= LabelMask::bit(e.label.0);
        }
        m
    }

    /// The mask of every label whose flag is set.
    pub fn of_flags(changed_vertex: &[bool], changed_edge: &[bool]) -> LabelMask {
        let mut m = LabelMask::default();
        for (l, &c) in changed_vertex.iter().enumerate() {
            if c {
                m.vertices |= LabelMask::bit(l as u16);
            }
        }
        for (l, &c) in changed_edge.iter().enumerate() {
            if c {
                m.edges |= LabelMask::bit(l as u16);
            }
        }
        m
    }

    /// Whether the two masks share any label.
    pub fn intersects(&self, other: &LabelMask) -> bool {
        (self.vertices & other.vertices) | (self.edges & other.edges) != 0
    }
}

/// High-order statistics provider for the graph-aware optimizer.
pub struct GLogue {
    view: Arc<GraphView>,
    stats: GraphStats,
    /// Exact-counting threshold `k` (patterns up to `k` vertices are counted
    /// exactly; the paper uses k = 3).
    k: usize,
    /// Sparsification stride: 1 = exact counting, `s` = 1-in-s root
    /// sampling scaled back by `s`.
    stride: usize,
    /// Worker threads for seed-partitioned counting (1 = serial).
    threads: usize,
    /// Cached exact counts, each stamped with the labels it depends on so
    /// [`GLogue::refreshed`] can carry unaffected entries across an ingest
    /// commit.
    cache: Mutex<FxHashMap<StatKey, (f64, LabelMask)>>,
}

impl std::fmt::Debug for GLogue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GLogue")
            .field("k", &self.k)
            .field("stride", &self.stride)
            .field("threads", &self.threads)
            .field("cached_patterns", &self.cache.lock().len())
            .finish()
    }
}

impl GLogue {
    /// Create a GLogue over `view` (must have its graph index built) with
    /// exact-counting threshold `k` and sparsification stride `stride`.
    pub fn new(view: Arc<GraphView>, k: usize, stride: usize) -> Result<GLogue> {
        GLogue::with_threads(view, k, stride, 1)
    }

    /// [`GLogue::new`] with `threads` workers for homomorphism counting:
    /// statistics (re)builds partition each pattern's seed range across the
    /// pool ([`crate::counting::count_homomorphisms`]).
    pub fn with_threads(
        view: Arc<GraphView>,
        k: usize,
        stride: usize,
        threads: usize,
    ) -> Result<GLogue> {
        if view.index().is_none() {
            return Err(RelGoError::plan(
                "GLogue requires the graph index (build_index first)",
            ));
        }
        let stats = view.stats();
        Ok(GLogue {
            view,
            stats,
            k: k.max(1),
            stride: stride.max(1),
            threads: threads.max(1),
            cache: Mutex::new(FxHashMap::default()),
        })
    }

    /// Delta-aware refresh across an ingest commit: a new GLogue over the
    /// **merged** view that keeps `prev`'s tuning (`k`, `stride`, threads)
    /// and carries over every cached pattern count whose label mask misses
    /// the changed labels (flags as produced by
    /// `GraphView::changed_label_flags`). Exact on both sides: retained
    /// entries were counted on tables the delta did not touch (a fresh
    /// count would reproduce them bit-for-bit), and evicted entries are
    /// lazily recounted against the merged view — so a refreshed GLogue is
    /// observationally identical to a from-scratch rebuild, at a fraction
    /// of the recounting cost. Label-level statistics are recomputed from
    /// the merged view ([`GraphView::stats`], one row count per label).
    pub fn refreshed(
        prev: &GLogue,
        view: Arc<GraphView>,
        changed_vertex: &[bool],
        changed_edge: &[bool],
    ) -> Result<GLogue> {
        if view.index().is_none() {
            return Err(RelGoError::plan(
                "GLogue requires the graph index (build_index first)",
            ));
        }
        let stats = view.stats();
        let changed = LabelMask::of_flags(changed_vertex, changed_edge);
        let mut cache = prev.cache.lock().clone();
        cache.retain(|_, (_, mask)| !mask.intersects(&changed));
        Ok(GLogue {
            view,
            stats,
            k: prev.k,
            stride: prev.stride,
            threads: prev.threads,
            cache: Mutex::new(cache),
        })
    }

    /// The underlying graph view.
    pub fn view(&self) -> &Arc<GraphView> {
        &self.view
    }

    /// Label-level statistics (`d̄` feeds the EXPAND cost).
    pub fn graph_stats(&self) -> &GraphStats {
        &self.stats
    }

    /// Number of cached pattern cardinalities (diagnostics).
    pub fn cached_patterns(&self) -> usize {
        self.cache.lock().len()
    }

    /// Exact (possibly sampled) cardinality of a small pattern, cached.
    fn exact(&self, p: &Pattern) -> Result<f64> {
        let key = stat_key(p);
        if let Some(&(c, _)) = self.cache.lock().get(&key) {
            return Ok(c);
        }
        let c = count_homomorphisms(&self.view, p, self.stride, self.threads)?;
        self.cache.lock().insert(key, (c, LabelMask::of_pattern(p)));
        Ok(c)
    }

    /// Estimated cardinality `|M(P)|` of an arbitrary pattern: exact when
    /// `|V_P| ≤ k`, otherwise peel-and-extend estimation.
    pub fn cardinality(&self, p: &Pattern) -> Result<f64> {
        if p.vertex_count() <= self.k {
            return self.exact(p);
        }
        // Peel a vertex whose removal keeps the pattern connected,
        // preferring low constraint degree (leaves first: their extension
        // rate is a plain conditional degree, the best-understood case).
        let n = p.vertex_count();
        let full = decompose::full_set(n);
        let peel = (0..n)
            .filter(|&v| is_induced_connected(p, decompose::remove(full, v)))
            .min_by_key(|&v| p.incident_edges(v).len())
            .ok_or_else(|| RelGoError::plan("pattern has no removable vertex"))?;
        let rest = decompose::remove(full, peel);
        let (sub, map) = sub_pattern(p, rest);
        let base = self.cardinality(&sub)?;
        let factor = self.extension_rate(p, rest, peel, &map)?;
        Ok(base * factor)
    }

    /// Conditional extension rate: the expected number of matches of vertex
    /// `v` per existing match of the sub-pattern over `sub` ⊆ V(P).
    ///
    /// Computed from exact counts of the *closure pattern* around `v` —
    /// `v`, its neighbors inside `sub`, the connecting edges, and any edges
    /// among those neighbors — divided by the count of the neighbors-only
    /// pattern. When the closure pattern exceeds `k` vertices, falls back to
    /// a product of pairwise (2-vertex) rates.
    pub fn extension_rate(
        &self,
        p: &Pattern,
        sub: VertexSet,
        v: usize,
        _sub_map: &[usize],
    ) -> Result<f64> {
        let nbrs: Vec<usize> = p
            .neighbors(v)
            .into_iter()
            .filter(|&u| decompose::contains(sub, u))
            .collect();
        if nbrs.is_empty() {
            return Err(RelGoError::plan("extension vertex is disconnected"));
        }
        let closure_size = nbrs.len() + 1;
        if closure_size <= self.k {
            let nbr_set = nbrs
                .iter()
                .fold(0 as VertexSet, |s, &u| decompose::insert(s, u));
            // The neighbors-only pattern must be connected to be countable;
            // if not (e.g. two far-apart anchors), fall back to pairwise.
            if is_induced_connected(p, nbr_set) {
                let closure_set = decompose::insert(nbr_set, v);
                let (closure, _) = sub_pattern(p, closure_set);
                let (anchors, _) = sub_pattern(p, nbr_set);
                let num = self.exact(&closure)?;
                let den = self.exact(&anchors)?.max(1e-9);
                return Ok(num / den);
            }
        }
        // Pairwise fallback: independence across the constraint edges.
        // rate = |V_v| × Π_e ( |edge pattern e| / (|V_u| × |V_v|) ),
        // with each |edge pattern| counted exactly (predicates included).
        let v_card = {
            let vset = decompose::insert(0, v);
            // A single-vertex pattern over v (with its predicate).
            let (single, _) = sub_pattern_with_vertex(p, vset, v);
            self.exact(&single)?
        };
        let mut rate = v_card;
        for &u in &nbrs {
            let pair_set = decompose::insert(decompose::insert(0, u), v);
            let (pair, _) = sub_pattern(p, pair_set);
            let pair_count = self.exact(&pair)?;
            let u_card = {
                let uset = decompose::insert(0, u);
                let (single, _) = sub_pattern_with_vertex(p, uset, u);
                self.exact(&single)?
            };
            rate *= pair_count / (u_card.max(1e-9) * v_card.max(1e-9));
        }
        Ok(rate)
    }

    /// Estimated cardinality of the sub-pattern induced by `set` (helper
    /// for subset-DP planners).
    pub fn subset_cardinality(&self, p: &Pattern, set: VertexSet) -> Result<f64> {
        let (sub, _) = sub_pattern(p, set);
        self.cardinality(&sub)
    }

    /// Average degree through `(edge label, direction)` — delegates to the
    /// label statistics.
    pub fn avg_degree(&self, label: relgo_common::LabelId, dir: relgo_graph::Direction) -> f64 {
        self.stats.avg_degree(label, dir)
    }
}

/// Extract a (possibly single-vertex) sub-pattern; wrapper so single-vertex
/// extractions read clearly at call sites.
fn sub_pattern_with_vertex(p: &Pattern, set: VertexSet, v: usize) -> (Pattern, Vec<usize>) {
    debug_assert!(decompose::contains(set, v));
    debug_assert_eq!(iter_vertices(set).count(), 1);
    sub_pattern(p, set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgo_common::{DataType, LabelId};
    use relgo_graph::{fig2, RGMapping};
    use relgo_pattern::PatternBuilder;
    use relgo_storage::table::table_of;
    use relgo_storage::{Database, ScalarExpr};

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

    #[test]
    fn requires_index() {
        let mut db = Database::new();
        db.add_table(table_of(
            "V",
            &[("id", DataType::Int)],
            vec![vec![1.into()]],
        ));
        db.set_primary_key("V", "id").unwrap();
        let g = GraphView::build(&mut db, RGMapping::new().vertex("V")).unwrap();
        assert!(GLogue::new(Arc::new(g), 3, 1).is_err());
    }

    #[test]
    fn small_patterns_are_exact_and_cached() {
        let gl = GLogue::new(Arc::new(fig2::view().0), 3, 1).unwrap();
        let t = triangle();
        assert_eq!(gl.cardinality(&t).unwrap(), 4.0);
        let before = gl.cached_patterns();
        assert_eq!(gl.cardinality(&t).unwrap(), 4.0);
        assert_eq!(gl.cached_patterns(), before, "second call hits the cache");
    }

    #[test]
    fn predicates_change_cardinality_not_key_collision() {
        let gl = GLogue::new(Arc::new(fig2::view().0), 3, 1).unwrap();
        let t = triangle();
        let mut t_tom = t.clone();
        t_tom.add_vertex_predicate(0, ScalarExpr::col_eq(1, "Tom"));
        assert_eq!(gl.cardinality(&t).unwrap(), 4.0);
        // p1 = Tom: knows pairs from Tom: (T,B); common message m1 → 1.
        assert_eq!(gl.cardinality(&t_tom).unwrap(), 1.0);
    }

    #[test]
    fn same_predicate_on_different_vertices_is_a_different_statistic() {
        // (a)-[Knows]->(m)-[Knows]->(c): one skeleton, three Person
        // vertices, the same predicate text on `a` or on `m`.
        let path = |on: usize| {
            let mut b = PatternBuilder::new();
            let a = b.vertex("a", LabelId(0));
            let m = b.vertex("m", LabelId(0));
            let c = b.vertex("c", LabelId(0));
            b.edge(a, m, LabelId(1)).unwrap();
            b.edge(m, c, LabelId(1)).unwrap();
            let mut p = b.build().unwrap();
            p.add_vertex_predicate(on, ScalarExpr::col_eq(1, "Bob"));
            p
        };
        // Bob knows Tom and David, each of whom knows only Bob: 2 paths
        // start at Bob; Tom and David know Bob, who knows two: 4 pass him.
        for order in [[0, 1], [1, 0]] {
            let gl = GLogue::new(Arc::new(fig2::view().0), 3, 1).unwrap();
            for on in order {
                let want = [2.0, 4.0][on];
                assert_eq!(gl.cardinality(&path(on)).unwrap(), want, "Bob on {on}");
            }
            assert_eq!(gl.cached_patterns(), 2);
        }
    }

    #[test]
    fn large_pattern_estimation_is_positive_and_finite() {
        let gl = GLogue::new(Arc::new(fig2::view().0), 3, 1).unwrap();
        // 4-vertex path person-knows-person-knows-person-likes-message.
        let mut b = PatternBuilder::new();
        let a = b.vertex("a", LabelId(0));
        let c = b.vertex("c", LabelId(0));
        let d = b.vertex("d", LabelId(0));
        let m = b.vertex("m", LabelId(1));
        b.edge(a, c, LabelId(1)).unwrap();
        b.edge(c, d, LabelId(1)).unwrap();
        b.edge(d, m, LabelId(0)).unwrap();
        let p = b.build().unwrap();
        let est = gl.cardinality(&p).unwrap();
        assert!(est.is_finite() && est > 0.0);
        // Exact count: knows-paths of length 2: (T,B,T),(T,B,D),(B,T,B),
        // (B,D,B),(D,B,T),(D,B,D); last vertex likes: T→1, D→1, B→2
        // → 1+1+2+2+1+1 = 8. Estimation must be in the right ballpark.
        assert!((1.0..64.0).contains(&est), "est = {est}");
    }

    #[test]
    fn estimation_with_k2_uses_pairwise_rates() {
        let gl = GLogue::new(Arc::new(fig2::view().0), 2, 1).unwrap();
        let t = triangle();
        let est = gl.cardinality(&t).unwrap();
        // With only 2-vertex exact stats the triangle is estimated, not
        // counted; it must still be positive and finite.
        assert!(est.is_finite() && est > 0.0);
    }

    #[test]
    fn subset_cardinality_matches_direct() {
        let gl = GLogue::new(Arc::new(fig2::view().0), 3, 1).unwrap();
        let t = triangle();
        // Subset {p1, p2} = single knows edge → 4 matches.
        let c = gl.subset_cardinality(&t, 0b011).unwrap();
        assert_eq!(c, 4.0);
    }

    #[test]
    fn refreshed_retains_unaffected_counts_and_evicts_touched() {
        let view = Arc::new(fig2::view().0);
        let gl = GLogue::new(Arc::clone(&view), 3, 1).unwrap();
        let t = triangle(); // touches Person, Message, Likes, Knows
        let mut b = PatternBuilder::new();
        b.vertex("m", LabelId(1));
        let msg_only = b.build().unwrap();
        assert_eq!(gl.cardinality(&t).unwrap(), 4.0);
        assert_eq!(gl.cardinality(&msg_only).unwrap(), 2.0);
        let cached = gl.cached_patterns();
        assert!(cached >= 2);

        // "Commit" a delta touching Person (and therefore Likes/Knows):
        // message-only counts survive, everything else is evicted.
        let changed_v = vec![true, false];
        let changed_e = vec![true, true];
        let refreshed = GLogue::refreshed(&gl, Arc::clone(&view), &changed_v, &changed_e).unwrap();
        assert_eq!((refreshed.k, refreshed.stride), (3, 1));
        assert!(refreshed.cached_patterns() < cached);
        assert!(refreshed.cached_patterns() >= 1, "message count retained");
        // Counts stay exact after the refresh (same view here).
        assert_eq!(refreshed.cardinality(&msg_only).unwrap(), 2.0);
        assert_eq!(refreshed.cardinality(&t).unwrap(), 4.0);

        // A delta touching nothing the triangle uses retains it.
        let refreshed =
            GLogue::refreshed(&gl, Arc::clone(&view), &[false, false], &[false, false]).unwrap();
        assert_eq!(refreshed.cached_patterns(), cached);
    }

    #[test]
    fn label_mask_intersection() {
        let t = triangle();
        let m = LabelMask::of_pattern(&t);
        assert_eq!(m.vertices, 0b11);
        assert_eq!(m.edges, 0b11);
        let person_only = LabelMask::of_flags(&[true, false], &[false, false]);
        assert!(m.intersects(&person_only));
        let unrelated = LabelMask::of_flags(&[false, false], &[false, false]);
        assert!(!m.intersects(&unrelated));
    }

    #[test]
    fn sparsified_counts_are_scaled() {
        let gl = GLogue::new(Arc::new(fig2::view().0), 3, 2).unwrap();
        let mut b = PatternBuilder::new();
        b.vertex("p", LabelId(0));
        let p = b.build().unwrap();
        // Sampled persons {row0, row2} → 2 × stride 2 = 4.
        assert_eq!(gl.cardinality(&p).unwrap(), 4.0);
    }
}
