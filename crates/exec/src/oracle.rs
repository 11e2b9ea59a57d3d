//! The correctness oracle: naive backtracking pattern matching plus
//! straight-line relational evaluation of the SPJM query, bypassing every
//! optimizer. All modes are required to produce row-identical results.

use crate::chunk::GraphChunk;
use crate::rel_exec::{apply_semantics, project_graph_table};
use relgo_common::{RelGoError, Result, RowId};
use relgo_core::spjm::SpjmQuery;
use relgo_graph::{Direction, GraphView};
use relgo_pattern::Pattern;
use relgo_storage::ops;
use relgo_storage::{Database, Table};

/// Enumerate all homomorphisms of `pattern` in `view` by naive
/// backtracking. Returns (vertex bindings, edge bindings) per match.
pub fn match_pattern(view: &GraphView, pattern: &Pattern) -> Result<Vec<(Vec<RowId>, Vec<RowId>)>> {
    let index = view
        .index()
        .ok_or_else(|| RelGoError::execution("oracle requires the graph index"))?;
    let n = pattern.vertex_count();
    let m = pattern.edge_count();
    let order = traversal_order(pattern);
    let mut out = Vec::new();
    let mut vbind = vec![u32::MAX; n];
    let mut ebind = vec![u32::MAX; m];

    // Recursive vertex binder; for each newly bound vertex, bind all
    // pattern edges towards already-bound vertices (enumerating parallel
    // data edges).
    fn bind_vertex(
        view: &GraphView,
        index: &relgo_graph::GraphIndex,
        pattern: &Pattern,
        order: &[usize],
        depth: usize,
        vbind: &mut Vec<u32>,
        ebind: &mut Vec<u32>,
        out: &mut Vec<(Vec<RowId>, Vec<RowId>)>,
    ) -> Result<()> {
        if depth == order.len() {
            out.push((vbind.clone(), ebind.clone()));
            return Ok(());
        }
        let v = order[depth];
        let vlabel = pattern.vertex(v).label;
        let vtable = view.vertex_table(vlabel);
        // Candidate rows: through the first constraint edge if one exists,
        // otherwise the full relation.
        let constraints: Vec<usize> = pattern
            .incident_edges(v)
            .into_iter()
            .filter(|&e| {
                let other = pattern.other_endpoint(e, v);
                vbind[other] != u32::MAX && ebind[e] == u32::MAX
            })
            .collect();
        let candidates: Vec<RowId> = if let Some(&e0) = constraints.first() {
            let pe = pattern.edge(e0);
            let other = pattern.other_endpoint(e0, v);
            let dir = if pe.src == other {
                Direction::Out
            } else {
                Direction::In
            };
            let (_, ns) = index.neighbors(pe.label, dir, vbind[other]);
            let mut cs = ns.to_vec();
            cs.dedup();
            cs
        } else {
            (0..vtable.num_rows() as RowId).collect()
        };
        for w in candidates {
            if let Some(p) = &pattern.vertex(v).predicate {
                if !p.matches(vtable, w)? {
                    continue;
                }
            }
            vbind[v] = w;
            bind_edges(
                view,
                index,
                pattern,
                order,
                depth,
                &constraints,
                0,
                vbind,
                ebind,
                out,
            )?;
            vbind[v] = u32::MAX;
        }
        Ok(())
    }

    /// Bind the constraint edges one at a time (cartesian over parallel
    /// data edges), then recurse to the next vertex.
    #[allow(clippy::too_many_arguments)]
    fn bind_edges(
        view: &GraphView,
        index: &relgo_graph::GraphIndex,
        pattern: &Pattern,
        order: &[usize],
        depth: usize,
        constraints: &[usize],
        ci: usize,
        vbind: &mut Vec<u32>,
        ebind: &mut Vec<u32>,
        out: &mut Vec<(Vec<RowId>, Vec<RowId>)>,
    ) -> Result<()> {
        if ci == constraints.len() {
            return bind_vertex(view, index, pattern, order, depth + 1, vbind, ebind, out);
        }
        let e = constraints[ci];
        let pe = pattern.edge(e);
        let (srow, trow) = (vbind[pe.src], vbind[pe.dst]);
        debug_assert!(srow != u32::MAX && trow != u32::MAX);
        let (es, ns) = index.neighbors(pe.label, Direction::Out, srow);
        let etable = view.edge_table(pe.label);
        let lo = ns.partition_point(|&x| x < trow);
        let hi = ns.partition_point(|&x| x <= trow);
        for &erow in &es[lo..hi] {
            if let Some(p) = &pe.predicate {
                if !p.matches(etable, erow)? {
                    continue;
                }
            }
            ebind[e] = erow;
            bind_edges(
                view,
                index,
                pattern,
                order,
                depth,
                constraints,
                ci + 1,
                vbind,
                ebind,
                out,
            )?;
            ebind[e] = u32::MAX;
        }
        Ok(())
    }

    bind_vertex(
        view, index, pattern, &order, 0, &mut vbind, &mut ebind, &mut out,
    )?;
    Ok(out)
}

/// A connectivity-preserving traversal order (mirrors the counting module).
fn traversal_order(pattern: &Pattern) -> Vec<usize> {
    let n = pattern.vertex_count();
    let start = (0..n)
        .find(|&v| pattern.vertex(v).predicate.is_some())
        .unwrap_or(0);
    let mut order = vec![start];
    let mut seen = vec![false; n];
    seen[start] = true;
    while order.len() < n {
        let next = (0..n)
            .filter(|&v| !seen[v])
            .find(|&v| pattern.neighbors(v).iter().any(|&u| seen[u]))
            .expect("pattern is connected");
        seen[next] = true;
        order.push(next);
    }
    order
}

/// Execute the full SPJM query the slow, obviously-correct way.
pub fn execute_query(query: &SpjmQuery, view: &GraphView, db: &Database) -> Result<Table> {
    // 1. Enumerate matches and build the graph relation chunk.
    let matches = match_pattern(view, &query.pattern)?;
    let n = query.pattern.vertex_count();
    let m = query.pattern.edge_count();
    let mut chunk = GraphChunk::from_vertex(
        n.max(1),
        m,
        0,
        matches.iter().map(|(vb, _)| vb[0]).collect(),
    );
    // Attach the remaining vertex and edge binding columns.
    for v in 1..n {
        let col: Vec<RowId> = matches.iter().map(|(vb, _)| vb[v]).collect();
        let gather: Vec<u32> = (0..matches.len() as u32).collect();
        chunk = chunk.extend(&gather, Some((v, col)), vec![])?;
    }
    for e in 0..m {
        let col: Vec<RowId> = matches.iter().map(|(_, eb)| eb[e]).collect();
        let gather: Vec<u32> = (0..matches.len() as u32).collect();
        chunk = chunk.extend(&gather, None, vec![(e, col)])?;
    }
    let chunk = apply_semantics(&chunk, &query.pattern)?;

    // 2. π̂ through the COLUMNS clause.
    let mut table = project_graph_table(&chunk, &query.pattern, view, &query.columns)?;

    // 3. Joins with the declared tables, in declaration order.
    let gw = query.graph_width();
    let mut acc = gw;
    for tname in &query.tables {
        let t = db.table(tname)?;
        let w = t.schema().len();
        let keys: Vec<(usize, usize)> = query
            .join_on
            .iter()
            .filter(|&&(_, r)| r >= acc && r < acc + w)
            .map(|&(l, r)| (l, r - acc))
            .collect();
        table = ops::hash_join(&table, t, &keys)?;
        acc += w;
    }

    // 4. σ, π, aggregation, DISTINCT.
    if let Some(sel) = &query.selection {
        table = ops::filter(&table, sel)?;
    }
    if !query.projection.is_empty() {
        table = ops::project(&table, &query.projection)?;
    }
    if !query.aggregates.is_empty() {
        let spec: Vec<(ops::AggFunc, usize)> = query
            .aggregates
            .iter()
            .map(|a| (a.func, a.column))
            .collect();
        table = ops::aggregate(&table, &spec)?;
    }
    if query.distinct {
        table = ops::distinct(&table);
    }
    if !query.order_by.is_empty() {
        table = ops::sort(&table, &query.order_by)?;
    }
    if let Some(n) = query.limit {
        table = ops::limit(&table, n);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgo_common::LabelId;
    use relgo_core::spjm::SpjmBuilder;
    use relgo_graph::fig2;
    use relgo_pattern::PatternBuilder;
    use relgo_storage::ScalarExpr;

    fn triangle() -> Pattern {
        let mut b = PatternBuilder::new();
        let p1 = b.vertex("p1", LabelId(0));
        let p2 = b.vertex("p2", LabelId(0));
        let m = b.vertex("m", LabelId(1));
        b.edge(p1, m, LabelId(0)).unwrap();
        b.edge(p2, m, LabelId(0)).unwrap();
        b.edge(p1, p2, LabelId(1)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn oracle_counts_fig2_triangle() {
        let (view, _) = fig2::view();
        let matches = match_pattern(&view, &triangle()).unwrap();
        assert_eq!(matches.len(), 4, "the four matches of the paper's Fig 2(b)");
        // Every match binds all vertices and edges.
        for (vb, eb) in &matches {
            assert!(vb.iter().all(|&x| x != u32::MAX));
            assert!(eb.iter().all(|&x| x != u32::MAX));
        }
    }

    #[test]
    fn oracle_executes_fig1_query() {
        let (view, db) = fig2::view();
        // Fig 1: friends of Tom sharing a liked message, joined with Place.
        let mut b = SpjmBuilder::new(triangle());
        let p1_name = b.vertex_column(0, 1, "p1_name");
        let p1_place = b.vertex_column(0, 2, "p1_place_id");
        let p2_name = b.vertex_column(1, 1, "p2_name");
        b.table("Place");
        b.join(p1_place, 3);
        b.select(ScalarExpr::col_eq(p1_name, "Tom"));
        b.project(&[p2_name, 4]);
        let q = b.build();
        let out = execute_query(&q, &view, &db).unwrap();
        // Tom knows Bob; both like m1 → one row: (Bob, Germany).
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, 0), relgo_common::Value::str("Bob"));
        assert_eq!(out.value(0, 1), relgo_common::Value::str("Germany"));
    }

    #[test]
    fn oracle_single_vertex_pattern() {
        let (view, db) = fig2::view();
        let mut pb = PatternBuilder::new();
        pb.vertex("p", LabelId(0));
        let mut b = SpjmBuilder::new(pb.build().unwrap());
        b.vertex_column(0, 1, "name");
        let q = b.build();
        let out = execute_query(&q, &view, &db).unwrap();
        assert_eq!(out.num_rows(), 3);
    }
}
