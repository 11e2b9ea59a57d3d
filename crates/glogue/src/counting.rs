//! Exact homomorphism counting over a [`GraphView`].
//!
//! This is the measurement backend of GLogue: the number of homomorphic
//! matches of a (small) pattern in the data graph, honoring per-element
//! predicates and edge multiplicities. Root sampling with a stride
//! reproduces the paper's sparsification: seed candidates of the first
//! pattern vertex are sampled `1-in-s` and the count is scaled by `s`.
//!
//! Requires the graph index (adjacency is taken from the VE-index).
//!
//! [`count_homomorphisms`] partitions the *seed range* (the candidate
//! rows of the first traversal vertex) into morsels and enumerates them
//! from a scoped worker pool; per-morsel partial sums are reduced in morsel
//! order, so the parallel count equals the serial count whenever the
//! additions are exact (multiplicity sums are integer-valued, so they are).

use relgo_common::{morsel, RelGoError, Result, RowId};
use relgo_graph::{Direction, GraphIndex, GraphView};
use relgo_pattern::Pattern;

/// Count homomorphisms of `pattern` in `view`, exactly (`stride = 1`) or
/// root-sampled (`stride = s`: every s-th seed, result scaled by `s`), with
/// the seed range partitioned across up to `threads` workers (1 = serial).
/// Each worker owns a private binding buffer; the data graph is only read.
pub fn count_homomorphisms(
    view: &GraphView,
    pattern: &Pattern,
    stride: usize,
    threads: usize,
) -> Result<f64> {
    let index = view
        .index()
        .ok_or_else(|| RelGoError::plan("homomorphism counting requires the graph index"))?;
    let stride = stride.max(1);
    let order = traversal_order(pattern);
    let root = order[0];
    let root_table = view.vertex_table(pattern.vertex(root).label);
    let n_rows = root_table.num_rows();
    // Seed k enumerates root row k·stride; morsels partition 0..n_seeds.
    let n_seeds = n_rows.div_ceil(stride);

    let order = &order;
    let partials = morsel::run_morsels(
        n_seeds,
        threads,
        morsel::DEFAULT_MORSEL_SEEDS,
        |_, range| {
            let mut sum = 0f64;
            let mut binding = vec![u32::MAX; pattern.vertex_count()];
            for k in range {
                let row = (k * stride) as RowId;
                if vertex_passes(view, pattern, root, row)? {
                    binding[root] = row;
                    sum += extend(view, index, pattern, order, 1, &mut binding)?;
                    binding[root] = u32::MAX;
                }
            }
            Ok(sum)
        },
    )?;
    // Reduce in morsel order: deterministic regardless of scheduling.
    let total: f64 = partials.into_iter().sum();
    Ok(total * stride as f64)
}

/// BFS-ish traversal order starting from a predicated vertex when one
/// exists (selective seeds shrink the search), otherwise vertex 0.
pub fn traversal_order(pattern: &Pattern) -> Vec<usize> {
    let n = pattern.vertex_count();
    let start = (0..n)
        .find(|&v| pattern.vertex(v).predicate.is_some())
        .unwrap_or(0);
    let mut order = vec![start];
    let mut seen = vec![false; n];
    seen[start] = true;
    while order.len() < n {
        // Next: an unvisited vertex adjacent to the visited set (always
        // exists; patterns are connected).
        let next = (0..n)
            .filter(|&v| !seen[v])
            .find(|&v| pattern.neighbors(v).iter().any(|&u| seen[u]))
            .expect("pattern is connected");
        seen[next] = true;
        order.push(next);
    }
    order
}

fn vertex_passes(view: &GraphView, pattern: &Pattern, v: usize, row: RowId) -> Result<bool> {
    match &pattern.vertex(v).predicate {
        None => Ok(true),
        Some(pred) => pred.matches(view.vertex_table(pattern.vertex(v).label), row),
    }
}

/// Multiplicity of data edges from the bound vertex `urow` to candidate
/// `wrow` through pattern edge `e` (honoring the edge predicate).
fn edge_multiplicity(
    view: &GraphView,
    index: &GraphIndex,
    pattern: &Pattern,
    e: usize,
    from_is_src: bool,
    urow: RowId,
    wrow: RowId,
) -> Result<f64> {
    let edge = pattern.edge(e);
    let dir = if from_is_src {
        Direction::Out
    } else {
        Direction::In
    };
    let (edges, nbrs) = index.neighbors(edge.label, dir, urow);
    // nbrs sorted: locate the wrow run.
    let lo = nbrs.partition_point(|&x| x < wrow);
    let hi = nbrs.partition_point(|&x| x <= wrow);
    if lo == hi {
        return Ok(0.0);
    }
    match &edge.predicate {
        None => Ok((hi - lo) as f64),
        Some(pred) => {
            let table = view.edge_table(edge.label);
            let mut m = 0f64;
            for &erow in &edges[lo..hi] {
                if pred.matches(table, erow)? {
                    m += 1.0;
                }
            }
            Ok(m)
        }
    }
}

fn extend(
    view: &GraphView,
    index: &GraphIndex,
    pattern: &Pattern,
    order: &[usize],
    depth: usize,
    binding: &mut Vec<u32>,
) -> Result<f64> {
    if depth == order.len() {
        return Ok(1.0);
    }
    let v = order[depth];
    // Constraint edges: incident edges of v whose other endpoint is bound.
    let constraints: Vec<(usize, usize, bool)> = pattern
        .incident_edges(v)
        .into_iter()
        .filter_map(|e| {
            let edge = pattern.edge(e);
            let (other, v_is_dst) = if edge.src == v {
                (edge.dst, false)
            } else {
                (edge.src, true)
            };
            (binding[other] != u32::MAX).then_some((e, other, v_is_dst))
        })
        .collect();
    debug_assert!(
        !constraints.is_empty(),
        "traversal order keeps connectivity"
    );

    // Candidates: the (sorted) neighbor list through the first constraint,
    // deduplicated; remaining constraints contribute multiplicities.
    let (e0, u0, v_is_dst0) = constraints[0];
    let dir0 = if v_is_dst0 {
        Direction::Out
    } else {
        Direction::In
    };
    let (_, nbrs) = index.neighbors(pattern.edge(e0).label, dir0, binding[u0]);

    let mut total = 0f64;
    let mut i = 0;
    while i < nbrs.len() {
        let w = nbrs[i];
        // Skip the duplicate run; multiplicity is recomputed uniformly.
        let mut j = i + 1;
        while j < nbrs.len() && nbrs[j] == w {
            j += 1;
        }
        i = j;
        if !vertex_passes(view, pattern, v, w)? {
            continue;
        }
        let mut mult = 1f64;
        for &(e, u, v_is_dst) in &constraints {
            // The bound endpoint `u` is the edge's source exactly when the
            // new vertex `v` is its destination.
            let m = edge_multiplicity(view, index, pattern, e, v_is_dst, binding[u], w)?;
            if m == 0.0 {
                mult = 0.0;
                break;
            }
            mult *= m;
        }
        if mult == 0.0 {
            continue;
        }
        binding[v] = w;
        total += mult * extend(view, index, pattern, order, depth + 1, binding)?;
        binding[v] = u32::MAX;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgo_common::{DataType, LabelId, Value};
    use relgo_graph::{fig2, RGMapping};
    use relgo_pattern::PatternBuilder;
    use relgo_storage::table::table_of;
    use relgo_storage::{Database, ScalarExpr};

    fn person() -> LabelId {
        LabelId(0)
    }
    fn message() -> LabelId {
        LabelId(1)
    }
    fn likes() -> LabelId {
        LabelId(0)
    }
    fn knows() -> LabelId {
        LabelId(1)
    }

    #[test]
    fn single_vertex_counts_rows() {
        let (g, _) = fig2::view();
        let mut b = PatternBuilder::new();
        b.vertex("p", person());
        let p = b.build().unwrap();
        assert_eq!(count_homomorphisms(&g, &p, 1, 1).unwrap(), 3.0);
    }

    #[test]
    fn single_edge_counts_edges() {
        let (g, _) = fig2::view();
        let mut b = PatternBuilder::new();
        let p1 = b.vertex("p", person());
        let m = b.vertex("m", message());
        b.edge(p1, m, likes()).unwrap();
        let p = b.build().unwrap();
        assert_eq!(count_homomorphisms(&g, &p, 1, 1).unwrap(), 4.0);
    }

    #[test]
    fn wedge_count() {
        // (p1)-[Likes]->(m)<-[Likes]-(p2): homomorphism, so p1 may equal p2.
        // m1 liked by {T,B}, m2 by {B,D} → 4 + 4 = 8 ordered pairs.
        let (g, _) = fig2::view();
        let mut b = PatternBuilder::new();
        let p1 = b.vertex("p1", person());
        let p2 = b.vertex("p2", person());
        let m = b.vertex("m", message());
        b.edge(p1, m, likes()).unwrap();
        b.edge(p2, m, likes()).unwrap();
        let p = b.build().unwrap();
        assert_eq!(count_homomorphisms(&g, &p, 1, 1).unwrap(), 8.0);
    }

    #[test]
    fn fig2_triangle_count() {
        // (p1)-[Knows]->(p2), (p1)-[Likes]->(m), (p2)-[Likes]->(m).
        // Knows pairs: (T,B),(B,T),(B,D),(D,B). Common liked messages:
        // T∩B={m1}, B∩T={m1}, B∩D={m2}, D∩B={m2} → 4 matches (the graph
        // relation GR_P of the paper's Fig 2(b)).
        let (g, _) = fig2::view();
        let mut b = PatternBuilder::new();
        let p1 = b.vertex("p1", person());
        let p2 = b.vertex("p2", person());
        let m = b.vertex("m", message());
        b.edge(p1, p2, knows()).unwrap();
        b.edge(p1, m, likes()).unwrap();
        b.edge(p2, m, likes()).unwrap();
        let p = b.build().unwrap();
        assert_eq!(count_homomorphisms(&g, &p, 1, 1).unwrap(), 4.0);
    }

    #[test]
    fn vertex_predicate_prunes() {
        let (g, _) = fig2::view();
        let mut b = PatternBuilder::new();
        let p1 = b.vertex("p1", person());
        let m = b.vertex("m", message());
        b.edge(p1, m, likes()).unwrap();
        b.vertex_predicate(p1, ScalarExpr::col_eq(1, "Bob"));
        let p = b.build().unwrap();
        assert_eq!(count_homomorphisms(&g, &p, 1, 1).unwrap(), 2.0);
    }

    #[test]
    fn edge_predicate_prunes() {
        let (g, _) = fig2::view();
        let mut b = PatternBuilder::new();
        let p1 = b.vertex("p1", person());
        let m = b.vertex("m", message());
        let e = b.edge(p1, m, likes()).unwrap();
        b.edge_predicate(
            e,
            ScalarExpr::col_cmp(3, relgo_storage::BinaryOp::Ge, Value::Date(28)),
        );
        let p = b.build().unwrap();
        // Likes with date ≥ 28: l1 (31) and l2 (28).
        assert_eq!(count_homomorphisms(&g, &p, 1, 1).unwrap(), 2.0);
    }

    #[test]
    fn order_starts_at_predicated_vertex() {
        let mut b = PatternBuilder::new();
        let a = b.vertex("a", person());
        let c = b.vertex("c", message());
        b.edge(a, c, likes()).unwrap();
        b.vertex_predicate(c, ScalarExpr::col_eq(0, 100));
        let p = b.build().unwrap();
        assert_eq!(traversal_order(&p)[0], 1);
    }

    #[test]
    fn parallel_count_equals_serial() {
        let (g, _) = fig2::view();
        let mut b = PatternBuilder::new();
        let p1 = b.vertex("p1", person());
        let p2 = b.vertex("p2", person());
        let m = b.vertex("m", message());
        b.edge(p1, p2, knows()).unwrap();
        b.edge(p1, m, likes()).unwrap();
        b.edge(p2, m, likes()).unwrap();
        let p = b.build().unwrap();
        let serial = count_homomorphisms(&g, &p, 1, 1).unwrap();
        for threads in [2usize, 8] {
            assert_eq!(count_homomorphisms(&g, &p, 1, threads).unwrap(), serial);
        }
        // Sampled counting partitions the same seed set.
        let sampled = count_homomorphisms(&g, &p, 2, 1).unwrap();
        assert_eq!(count_homomorphisms(&g, &p, 2, 8).unwrap(), sampled);
    }

    #[test]
    fn sampling_scales_back_up() {
        let (g, _) = fig2::view();
        let mut b = PatternBuilder::new();
        b.vertex("p", person());
        let p = b.build().unwrap();
        // stride 2 visits persons {0, 2} → 2 seeds × 2 = 4 ≈ 3.
        let sampled = count_homomorphisms(&g, &p, 2, 1).unwrap();
        assert_eq!(sampled, 4.0);
    }

    #[test]
    fn counting_without_index_errors() {
        let mut db = Database::new();
        db.add_table(table_of(
            "V",
            &[("id", DataType::Int)],
            vec![vec![1.into()]],
        ));
        db.set_primary_key("V", "id").unwrap();
        let g = GraphView::build(&mut db, RGMapping::new().vertex("V")).unwrap();
        let mut b = PatternBuilder::new();
        b.vertex("v", LabelId(0));
        let p = b.build().unwrap();
        assert!(count_homomorphisms(&g, &p, 1, 1).is_err());
    }
}
