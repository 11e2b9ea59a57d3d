//! Heuristic optimization rules across the relational/graph boundary
//! (paper §4.2.3).
//!
//! * [`filter_into_match`] — `FilterIntoMatchRule`: a selection conjunct
//!   whose columns all project from a *single* pattern element is rewritten
//!   over the element's backing relation and pushed into the pattern as a
//!   constraint, so the graph optimizer can exploit its selectivity.
//! * [`trim_and_fuse`] — `TrimAndFuseRule`: the field trimmer removes graph
//!   columns that no downstream operator consumes; expansions whose edge
//!   binding becomes unused are fused from `EXPAND_EDGE` + `GET_VERTEX`
//!   into a single `EXPAND`.

use crate::graph_plan::GraphOp;
use crate::spjm::{AttrRef, GraphColumn, PatternElemRef, SpjmQuery};
use relgo_common::FxHashSet;
use relgo_storage::ScalarExpr;

/// Flatten an expression into its top-level conjuncts.
pub fn split_conjuncts(expr: &ScalarExpr) -> Vec<ScalarExpr> {
    match expr {
        ScalarExpr::And(l, r) => {
            let mut out = split_conjuncts(l);
            out.extend(split_conjuncts(r));
            out
        }
        other => vec![other.clone()],
    }
}

/// Rebuild a conjunction from parts (`None` when empty).
pub fn conjoin_all(parts: Vec<ScalarExpr>) -> Option<ScalarExpr> {
    parts.into_iter().reduce(|a, b| a.and(b))
}

/// If every column referenced by `conjunct` is a graph column projected
/// (as a plain attribute) from one single pattern element, return that
/// element and the conjunct rewritten over the element's backing relation.
fn pushable_target(
    query: &SpjmQuery,
    conjunct: &ScalarExpr,
) -> Option<(PatternElemRef, ScalarExpr)> {
    let refs = conjunct.referenced_columns();
    if refs.is_empty() {
        return None;
    }
    let mut element: Option<PatternElemRef> = None;
    for &g in &refs {
        let col: &GraphColumn = query.columns.get(g)?; // table columns are out of range → None
        match col.attr {
            AttrRef::Column(_) => {}
            AttrRef::Id => return None, // id() projections are not pushable
        }
        match element {
            None => element = Some(col.element),
            Some(e) if e == col.element => {}
            Some(_) => return None,
        }
    }
    let element = element?;
    // Rewrite: global column g → backing-table column of that projection.
    let rewritten = conjunct.remap_columns(&|g| match query.columns[g].attr {
        AttrRef::Column(c) => c,
        AttrRef::Id => unreachable!("Id projections rejected above"),
    });
    Some((element, rewritten))
}

/// Apply `FilterIntoMatchRule`: push every single-element selection conjunct
/// into the pattern; the rest of the selection is retained.
pub fn filter_into_match(query: &SpjmQuery) -> SpjmQuery {
    let Some(selection) = &query.selection else {
        return query.clone();
    };
    let mut out = query.clone();
    let mut kept = Vec::new();
    for conjunct in split_conjuncts(selection) {
        match pushable_target(query, &conjunct) {
            Some((PatternElemRef::Vertex(v), rewritten)) => {
                out.pattern.add_vertex_predicate(v, rewritten);
            }
            Some((PatternElemRef::Edge(e), rewritten)) => {
                out.pattern.add_edge_predicate(e, rewritten);
            }
            None => kept.push(conjunct),
        }
    }
    out.selection = conjoin_all(kept);
    out
}

/// The set of global columns actually consumed downstream of the graph
/// table: projection, selection, join conditions and aggregates. An empty
/// projection with no aggregates means "return everything".
fn used_global_columns(query: &SpjmQuery) -> Option<FxHashSet<usize>> {
    if query.projection.is_empty() && query.aggregates.is_empty() {
        return None; // everything is used
    }
    let mut used: FxHashSet<usize> = FxHashSet::default();
    used.extend(query.projection.iter().copied());
    for a in &query.aggregates {
        used.insert(a.column);
    }
    for &(l, r) in &query.join_on {
        used.insert(l);
        used.insert(r);
    }
    if let Some(sel) = &query.selection {
        used.extend(sel.referenced_columns());
    }
    Some(used)
}

/// Apply `TrimAndFuseRule`.
///
/// 1. **Field trim**: graph columns that no downstream operator consumes are
///    removed from the `COLUMNS` clause (all later global indices are
///    remapped).
/// 2. **Fuse**: `Expand` operators whose edge binding is no longer
///    referenced by any remaining column switch `emit_edge` off — the
///    `EXPAND_EDGE`/`GET_VERTEX` pair becomes the fused `EXPAND`; star legs
///    of `EXPAND_INTERSECT` are trimmed likewise.
pub fn trim_and_fuse(query: &SpjmQuery, mut graph: GraphOp) -> (SpjmQuery, GraphOp) {
    let mut out = query.clone();
    if let Some(used) = used_global_columns(query) {
        let width = query.graph_width();
        let keep: Vec<usize> = (0..width).filter(|i| used.contains(i)).collect();
        if keep.len() != width {
            // Build the old→new global index map: kept graph columns first,
            // then all table columns shifted down.
            let removed = width - keep.len();
            let mut remap = vec![usize::MAX; width];
            for (new, &old) in keep.iter().enumerate() {
                remap[old] = new;
            }
            let map = |old: usize| -> usize {
                if old < width {
                    remap[old]
                } else {
                    old - removed
                }
            };
            out.columns = keep.iter().map(|&i| query.columns[i].clone()).collect();
            out.projection = out.projection.iter().map(|&c| map(c)).collect();
            for a in &mut out.aggregates {
                a.column = map(a.column);
            }
            for (l, r) in &mut out.join_on {
                *l = map(*l);
                *r = map(*r);
            }
            if let Some(sel) = &out.selection {
                out.selection = Some(sel.remap_columns(&|c| map(c)));
            }
        }
    }
    // Edges still required by the remaining COLUMNS clause. Under
    // no-repeated-edge semantics the all-distinct operator compares edge
    // bindings, so nothing may be fused away.
    let needed_edges: FxHashSet<usize> =
        if out.pattern.semantics() == relgo_pattern::MatchSemantics::DistinctEdges {
            (0..out.pattern.edge_count()).collect()
        } else {
            out.columns
                .iter()
                .filter_map(|c| match c.element {
                    PatternElemRef::Edge(e) => Some(e),
                    PatternElemRef::Vertex(_) => None,
                })
                .collect()
        };
    fuse(&mut graph, &needed_edges);
    (out, graph)
}

/// Switch off the edge bindings no consumer needs (one bottom-up pass).
fn fuse(op: &mut GraphOp, needed: &FxHashSet<usize>) {
    op.rewrite_bottom_up(&mut |op| match op {
        GraphOp::Expand {
            edge, emit_edge, ..
        } => *emit_edge &= needed.contains(edge),
        GraphOp::ExpandIntersect {
            legs, emit_edges, ..
        } => *emit_edges &= legs.iter().any(|l| needed.contains(&l.edge)),
        _ => {}
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_plan::PlanAnnotation;
    use crate::spjm::SpjmBuilder;
    use relgo_common::LabelId;
    use relgo_graph::Direction;
    use relgo_pattern::{Pattern, PatternBuilder};

    fn pattern() -> Pattern {
        let mut b = PatternBuilder::new();
        let p1 = b.vertex("p1", LabelId(0));
        let m = b.vertex("m", LabelId(1));
        b.edge(p1, m, LabelId(0)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn split_and_conjoin_roundtrip() {
        let e = ScalarExpr::col_eq(0, 1)
            .and(ScalarExpr::col_eq(1, 2))
            .and(ScalarExpr::col_eq(2, 3));
        let parts = split_conjuncts(&e);
        assert_eq!(parts.len(), 3);
        let back = conjoin_all(parts).unwrap();
        assert_eq!(split_conjuncts(&back).len(), 3);
    }

    #[test]
    fn filter_into_match_pushes_single_vertex_conjunct() {
        let mut b = SpjmBuilder::new(pattern());
        let name = b.vertex_column(0, 1, "p_name"); // Person.name
        let _mid = b.vertex_id(1, "m_id");
        b.select(ScalarExpr::col_eq(name, "Tom"));
        let q = b.build();
        let rewritten = filter_into_match(&q);
        assert!(rewritten.selection.is_none(), "conjunct fully pushed");
        let pred = rewritten.pattern.vertex(0).predicate.as_ref().unwrap();
        // Rewritten over the backing table: Person.name is column 1.
        assert_eq!(pred.referenced_columns(), vec![1]);
        // Original query untouched.
        assert!(q.pattern.vertex(0).predicate.is_none());
    }

    #[test]
    fn filter_into_match_pushes_edge_conjunct() {
        let mut b = SpjmBuilder::new(pattern());
        let d = b.edge_column(0, 3, "like_date"); // Likes.date
        b.select(ScalarExpr::col_cmp(
            d,
            relgo_storage::BinaryOp::Gt,
            relgo_common::Value::Date(20),
        ));
        let q = b.build();
        let rewritten = filter_into_match(&q);
        assert!(rewritten.selection.is_none());
        assert!(rewritten.pattern.edge(0).predicate.is_some());
    }

    #[test]
    fn multi_element_conjunct_stays() {
        let mut b = SpjmBuilder::new(pattern());
        let a = b.vertex_column(0, 1, "p_name");
        let c = b.vertex_column(1, 1, "m_content");
        b.select(ScalarExpr::Cmp(
            relgo_storage::BinaryOp::Eq,
            Box::new(ScalarExpr::Col(a)),
            Box::new(ScalarExpr::Col(c)),
        ));
        let q = b.build();
        let rewritten = filter_into_match(&q);
        assert!(
            rewritten.selection.is_some(),
            "cross-element predicate kept"
        );
        assert!(!rewritten.pattern.has_predicates());
    }

    #[test]
    fn id_projection_not_pushed() {
        let mut b = SpjmBuilder::new(pattern());
        let id = b.vertex_id(0, "p_id");
        b.select(ScalarExpr::col_eq(id, 5));
        let q = b.build();
        let rewritten = filter_into_match(&q);
        assert!(rewritten.selection.is_some());
        assert!(!rewritten.pattern.has_predicates());
    }

    fn expand_plan(emit: bool) -> GraphOp {
        GraphOp::Expand {
            input: Box::new(GraphOp::ScanVertex {
                v: 0,
                predicate: None,
                ann: PlanAnnotation::default(),
            }),
            from: 0,
            edge: 0,
            to: 1,
            dir: Direction::Out,
            emit_edge: emit,
            edge_predicate: None,
            vertex_predicate: None,
            ann: PlanAnnotation::default(),
        }
    }

    #[test]
    fn trim_removes_unused_columns_and_fuses() {
        let mut b = SpjmBuilder::new(pattern());
        let pname = b.vertex_column(0, 1, "p_name");
        let _eid = b.edge_id(0, "like_id"); // never used downstream
        b.project(&[pname]);
        let q = b.build();
        let (q2, g2) = trim_and_fuse(&q, expand_plan(true));
        assert_eq!(q2.graph_width(), 1, "edge id column trimmed");
        assert_eq!(q2.projection, vec![0]);
        assert_eq!(g2, expand_plan(false), "fused into EXPAND");
    }

    #[test]
    fn trim_keeps_edges_used_by_selection() {
        let mut b = SpjmBuilder::new(pattern());
        let pname = b.vertex_column(0, 1, "p_name");
        let edate = b.edge_column(0, 3, "like_date");
        b.project(&[pname]);
        b.select(ScalarExpr::col_cmp(
            edate,
            relgo_storage::BinaryOp::Gt,
            relgo_common::Value::Date(10),
        ));
        let q = b.build();
        let (q2, g2) = trim_and_fuse(&q, expand_plan(true));
        assert_eq!(q2.graph_width(), 2, "edge column kept for the selection");
        assert_eq!(g2, expand_plan(true));
    }

    #[test]
    fn empty_projection_means_everything_used() {
        let mut b = SpjmBuilder::new(pattern());
        b.vertex_column(0, 1, "p_name");
        b.edge_id(0, "like_id");
        let q = b.build();
        let (q2, g2) = trim_and_fuse(&q, expand_plan(true));
        assert_eq!(q2.graph_width(), 2);
        assert_eq!(g2, expand_plan(true));
    }

    #[test]
    fn trim_remaps_table_column_indices() {
        let mut b = SpjmBuilder::new(pattern());
        let _pname = b.vertex_column(0, 1, "p_name"); // 0 — unused
        let pid = b.vertex_column(0, 2, "p_place"); // 1 — join key
        b.table("Place");
        // Join graph col 1 with Place.id at global index 2 (graph width 2).
        b.join(pid, 2);
        b.project(&[3]); // Place.name at global 3
        let q = b.build();
        let (q2, _) = trim_and_fuse(&q, expand_plan(true));
        assert_eq!(q2.graph_width(), 1);
        // After trimming one graph column, table columns shift down by 1.
        assert_eq!(q2.join_on, vec![(0, 1)]);
        assert_eq!(q2.projection, vec![2]);
    }
}
