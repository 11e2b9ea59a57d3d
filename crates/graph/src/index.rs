//! The GRainDB-style graph index (paper §3.2.1, Fig. 5).
//!
//! * **EV-index**: for every edge tuple, the pre-resolved row ids of its
//!   source and target vertex tuples — GRainDB's extra `*_rowid` columns.
//!   It routes an edge to its joinable vertex tuples without hashing.
//! * **VE-index**: for every vertex tuple, the adjacent edge tuples and the
//!   corresponding neighbor vertex tuples, stored per edge label and
//!   direction in CSR form. Neighbor lists are sorted by neighbor row id so
//!   `EXPAND_INTERSECT` can intersect them with linear merges.

use crate::view::GraphView;
use relgo_common::{FxHashMap, LabelId, RelGoError, Result, RowId};
use relgo_storage::TableChange;
use std::sync::Arc;

/// Traversal direction through an edge label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// Follow edges from source to target (λˢ side to λᵗ side).
    Out,
    /// Follow edges from target to source.
    In,
}

impl Direction {
    /// The opposite direction.
    pub fn reverse(self) -> Direction {
        match self {
            Direction::Out => Direction::In,
            Direction::In => Direction::Out,
        }
    }
}

/// EV-index of one edge label: `src_rid[e]` / `dst_rid[e]` are the row ids of
/// the source / target vertex tuples of edge row `e`.
#[derive(Debug, Clone, Default)]
pub struct EvIndex {
    /// Source vertex row per edge row.
    pub src_rid: Vec<RowId>,
    /// Target vertex row per edge row.
    pub dst_rid: Vec<RowId>,
}

/// CSR adjacency of one (edge label, direction): for vertex row `v`, the
/// adjacent `(edge row, neighbor row)` pairs are
/// `entries[offsets[v]..offsets[v+1]]`, sorted by neighbor row id.
#[derive(Debug, Clone, Default)]
pub struct Csr {
    offsets: Vec<u32>,
    edge_rid: Vec<RowId>,
    nbr_rid: Vec<RowId>,
}

impl Csr {
    /// Build from `(vertex, edge, neighbor)` triples over `num_vertices`
    /// vertex rows (also the executor's adjacency when no index exists).
    pub fn build(num_vertices: usize, mut triples: Vec<(RowId, RowId, RowId)>) -> Csr {
        // Sort by vertex then neighbor for intersection-friendly lists,
        // with the edge row as the final tie-breaker so the entry order is
        // a *total* order — parallel data edges land in edge-row order, and
        // the delta merge path (`Csr::merged_with_delta`) reproduces it
        // exactly.
        triples.sort_unstable_by_key(|&(v, e, n)| (v, n, e));
        Csr::from_sorted(num_vertices, &triples)
    }

    /// Assemble a CSR from triples already sorted by `(vertex, neighbor,
    /// edge)` — the merge path's constructor (no re-sort).
    fn from_sorted(num_vertices: usize, triples: &[(RowId, RowId, RowId)]) -> Csr {
        let mut offsets = vec![0u32; num_vertices + 1];
        for &(v, _, _) in triples {
            offsets[v as usize + 1] += 1;
        }
        for i in 0..num_vertices {
            offsets[i + 1] += offsets[i];
        }
        let edge_rid = triples.iter().map(|&(_, e, _)| e).collect();
        let nbr_rid = triples.iter().map(|&(_, _, n)| n).collect();
        Csr {
            offsets,
            edge_rid,
            nbr_rid,
        }
    }

    /// Clone with the offsets array extended to `num_vertices` (the
    /// append-only fast path: new vertex rows exist but no adjacency entry
    /// moved, so only the offset table must cover the new row range).
    fn extended(&self, num_vertices: usize) -> Csr {
        let mut offsets = self.offsets.clone();
        let last = *offsets.last().unwrap_or(&0);
        offsets.resize(num_vertices + 1, last);
        Csr {
            offsets,
            edge_rid: self.edge_rid.clone(),
            nbr_rid: self.nbr_rid.clone(),
        }
    }

    /// Iterate the entries as `(vertex, edge, neighbor)` triples in entry
    /// order (sorted by `(vertex, neighbor, edge)`).
    fn triples(&self) -> impl Iterator<Item = (RowId, RowId, RowId)> + '_ {
        (0..self.offsets.len().saturating_sub(1)).flat_map(move |v| {
            let lo = self.offsets[v] as usize;
            let hi = self.offsets[v + 1] as usize;
            (lo..hi).map(move |i| (v as RowId, self.edge_rid[i], self.nbr_rid[i]))
        })
    }

    /// The merged base+delta iteration path: stream the surviving base
    /// entries (tombstoned edges dropped, row ids remapped through the
    /// monotonic [`TableChange`] maps — which preserves the `(v, n, e)`
    /// sort order) merged with the already-sorted `delta` entries of newly
    /// ingested edges. Both inputs are consumed as sorted runs, so the
    /// merge is a single linear pass with no per-entry allocation, and the
    /// result is bit-identical to a from-scratch [`Csr`] build over the
    /// merged edge table.
    fn merged_with_delta(
        &self,
        num_vertices: usize,
        echange: &TableChange,
        vmap: &dyn Fn(RowId) -> Option<RowId>,
        nmap: &dyn Fn(RowId) -> Option<RowId>,
        delta: &[(RowId, RowId, RowId)],
    ) -> Result<Csr> {
        // Every base edge row has exactly one entry per direction CSR, so
        // the survivor count needs no pass over the entries.
        let survivors = self.len() - echange.deleted().len();
        let mut merged: Vec<(RowId, RowId, RowId)> = Vec::with_capacity(survivors + delta.len());
        let mut delta_it = delta.iter().copied().peekable();
        for (v, e, n) in self.triples() {
            let Some(e_new) = echange.new_id(e) else {
                continue;
            };
            let (v_new, n_new) = match (vmap(v), nmap(n)) {
                (Some(v_new), Some(n_new)) => (v_new, n_new),
                _ => {
                    return Err(RelGoError::schema(format!(
                        "surviving edge row {e} still references a deleted vertex row"
                    )))
                }
            };
            while let Some(&(dv, de, dn)) = delta_it.peek() {
                if (dv, dn, de) < (v_new, n_new, e_new) {
                    merged.push((dv, de, dn));
                    delta_it.next();
                } else {
                    break;
                }
            }
            merged.push((v_new, e_new, n_new));
        }
        merged.extend(delta_it);
        Ok(Csr::from_sorted(num_vertices, &merged))
    }

    /// Adjacent `(edges, neighbors)` slices of vertex row `v`.
    #[inline]
    pub fn neighbors(&self, v: RowId) -> (&[RowId], &[RowId]) {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        (&self.edge_rid[lo..hi], &self.nbr_rid[lo..hi])
    }

    /// Degree of vertex row `v`.
    #[inline]
    pub fn degree(&self, v: RowId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Total number of adjacency entries.
    pub fn len(&self) -> usize {
        self.edge_rid.len()
    }

    /// Whether the CSR holds no entries.
    pub fn is_empty(&self) -> bool {
        self.edge_rid.is_empty()
    }
}

/// The complete graph index: EV per edge label, VE (CSR) per edge label and
/// direction. Per-label components sit behind `Arc`s so an incremental
/// rebuild ([`GraphIndex::rebuild_delta`]) shares the untouched labels'
/// memory with the previous epoch's index.
#[derive(Debug, Clone, Default)]
pub struct GraphIndex {
    ev: Vec<Arc<EvIndex>>,
    ve_out: Vec<Arc<Csr>>,
    ve_in: Vec<Arc<Csr>>,
}

impl GraphIndex {
    /// Build both index families for every edge label of the view. Fails if
    /// any λ function is partial (dangling foreign key).
    pub fn build(view: &GraphView) -> Result<GraphIndex> {
        let n_edges = view.schema().edge_label_count();
        let mut ev = Vec::with_capacity(n_edges);
        let mut ve_out = Vec::with_capacity(n_edges);
        let mut ve_in = Vec::with_capacity(n_edges);
        for li in 0..n_edges as u16 {
            let el = LabelId(li);
            let (src_label, dst_label) = view.schema().edge_endpoints(el);
            let (src_rid, dst_rid) = view.resolve_endpoints(el, None)?;
            let triples = |from: &[RowId], to: &[RowId]| -> Vec<(RowId, RowId, RowId)> {
                (0..from.len())
                    .map(|e| (from[e], e as RowId, to[e]))
                    .collect()
            };
            ve_out.push(Arc::new(Csr::build(
                view.vertex_count(src_label),
                triples(&src_rid, &dst_rid),
            )));
            ve_in.push(Arc::new(Csr::build(
                view.vertex_count(dst_label),
                triples(&dst_rid, &src_rid),
            )));
            ev.push(Arc::new(EvIndex { src_rid, dst_rid }));
        }
        Ok(GraphIndex { ev, ve_out, ve_in })
    }

    /// Incrementally rebuild after a committed delta: `view` is the *new*
    /// (merged) view, `changes` maps changed table names to the
    /// [`TableChange`] that produced them.
    ///
    /// Per edge label:
    ///
    /// * **untouched** (edge table and both endpoint tables unchanged) —
    ///   all three per-label structures are shared (`Arc` clone, O(1));
    /// * **endpoints grew append-only, edge table unchanged** — every
    ///   existing entry is still valid; only the CSR offset tables are
    ///   extended over the new vertex rows;
    /// * **anything else** — the label is re-derived from the old index by
    ///   the merged base+delta path: surviving entries are remapped through
    ///   the monotonic old→new row maps (which keeps them sorted), newly
    ///   ingested edges are λ-resolved against the merged view, and the two
    ///   sorted runs merge linearly (`Csr::merged_with_delta`). Deleting
    ///   a vertex row still referenced by a surviving edge is an error (λ
    ///   must stay total), as is an inserted edge with a dangling key.
    ///
    /// The result is bit-identical to [`GraphIndex::build`] over the merged
    /// view, at the cost of the touched labels only.
    pub fn rebuild_delta(
        prev: &GraphIndex,
        view: &GraphView,
        changes: &FxHashMap<String, TableChange>,
    ) -> Result<GraphIndex> {
        let n_edges = view.schema().edge_label_count();
        let mut ev = Vec::with_capacity(n_edges);
        let mut ve_out = Vec::with_capacity(n_edges);
        let mut ve_in = Vec::with_capacity(n_edges);
        for li in 0..n_edges as u16 {
            let el = LabelId(li);
            let (src_label, dst_label) = view.schema().edge_endpoints(el);
            let echange = changes.get(view.edge_table(el).name());
            let schange = changes.get(view.vertex_table(src_label).name());
            let dchange = changes.get(view.vertex_table(dst_label).name());
            let stable = |c: Option<&TableChange>| c.is_none_or(TableChange::is_append_only);
            if echange.is_none() && stable(schange) && stable(dchange) {
                // Existing entries are all valid; at most the offset tables
                // must cover newly appended vertex rows.
                ev.push(Arc::clone(&prev.ev[li as usize]));
                ve_out.push(match schange {
                    None => Arc::clone(&prev.ve_out[li as usize]),
                    Some(_) => {
                        Arc::new(prev.ve_out[li as usize].extended(view.vertex_count(src_label)))
                    }
                });
                ve_in.push(match dchange {
                    None => Arc::clone(&prev.ve_in[li as usize]),
                    Some(_) => {
                        Arc::new(prev.ve_in[li as usize].extended(view.vertex_count(dst_label)))
                    }
                });
                continue;
            }
            let (new_ev, new_out, new_in) =
                rebuild_label(prev, view, el, echange, schange, dchange)?;
            ev.push(Arc::new(new_ev));
            ve_out.push(Arc::new(new_out));
            ve_in.push(Arc::new(new_in));
        }
        Ok(GraphIndex { ev, ve_out, ve_in })
    }

    /// Whether label `el`'s structures are shared with `other` (incremental
    /// rebuilds share untouched labels; diagnostics and tests).
    pub fn shares_label_with(&self, other: &GraphIndex, el: LabelId) -> bool {
        let i = el.0 as usize;
        Arc::ptr_eq(&self.ev[i], &other.ev[i])
            && Arc::ptr_eq(&self.ve_out[i], &other.ve_out[i])
            && Arc::ptr_eq(&self.ve_in[i], &other.ve_in[i])
    }

    /// The EV-index of label `el` as a whole, shared with this epoch.
    pub(crate) fn ev(&self, el: LabelId) -> &Arc<EvIndex> {
        &self.ev[el.0 as usize]
    }

    /// EV-index lookup: source vertex row of edge row `e` (label `el`).
    #[inline]
    pub fn edge_src(&self, el: LabelId, e: RowId) -> RowId {
        self.ev[el.0 as usize].src_rid[e as usize]
    }

    /// EV-index lookup: target vertex row of edge row `e` (label `el`).
    #[inline]
    pub fn edge_dst(&self, el: LabelId, e: RowId) -> RowId {
        self.ev[el.0 as usize].dst_rid[e as usize]
    }

    /// Endpoint of edge `e` in direction `dir` (the vertex reached).
    #[inline]
    pub fn edge_endpoint(&self, el: LabelId, e: RowId, dir: Direction) -> RowId {
        match dir {
            Direction::Out => self.edge_dst(el, e),
            Direction::In => self.edge_src(el, e),
        }
    }

    /// The VE-index of `(el, dir)` as a whole, for a caller that looks up
    /// many vertices: the label and direction are resolved once.
    pub fn adjacency(&self, el: LabelId, dir: Direction) -> &Csr {
        match dir {
            Direction::Out => &self.ve_out[el.0 as usize],
            Direction::In => &self.ve_in[el.0 as usize],
        }
    }

    /// VE-index lookup: `(edges, neighbors)` adjacent to vertex row `v`
    /// through edge label `el` in direction `dir`; sorted by neighbor.
    #[inline]
    pub fn neighbors(&self, el: LabelId, dir: Direction, v: RowId) -> (&[RowId], &[RowId]) {
        self.adjacency(el, dir).neighbors(v)
    }

    /// Degree of vertex row `v` through `(el, dir)`.
    #[inline]
    pub fn degree(&self, el: LabelId, dir: Direction, v: RowId) -> usize {
        self.adjacency(el, dir).degree(v)
    }

    /// Total adjacency entries of `(el, dir)` (= edge count; for tests).
    pub fn adjacency_len(&self, el: LabelId, dir: Direction) -> usize {
        self.adjacency(el, dir).len()
    }
}

/// Re-derive one touched label from the previous index + the delta (the
/// general arm of [`GraphIndex::rebuild_delta`]).
fn rebuild_label(
    prev: &GraphIndex,
    view: &GraphView,
    el: LabelId,
    echange: Option<&TableChange>,
    schange: Option<&TableChange>,
    dchange: Option<&TableChange>,
) -> Result<(EvIndex, Csr, Csr)> {
    let li = el.0 as usize;
    let prev_ev = &prev.ev[li];
    let m_old = prev_ev.src_rid.len();
    // An absent edge-table change is the identity over the old edge rows.
    let identity = TableChange::new(m_old, Vec::new(), 0);
    let echange = echange.unwrap_or(&identity);
    let smap = |old: RowId| schange.map_or(Some(old), |c| c.new_id(old));
    let dmap = |old: RowId| dchange.map_or(Some(old), |c| c.new_id(old));

    // EV: surviving base edges remapped (validating that no survivor points
    // at a deleted vertex), then newly ingested edges λ-resolved against
    // the merged view.
    let m_new = view.edge_count(el);
    let mut ev = EvIndex {
        src_rid: Vec::with_capacity(m_new),
        dst_rid: Vec::with_capacity(m_new),
    };
    for e in 0..m_old as RowId {
        if echange.is_deleted(e) {
            continue;
        }
        let (Some(s), Some(t)) = (
            smap(prev_ev.src_rid[e as usize]),
            dmap(prev_ev.dst_rid[e as usize]),
        ) else {
            return Err(RelGoError::schema(format!(
                "cannot delete a vertex row still referenced by {}@{e} (λ must stay total)",
                view.schema().edge_label_name(el)
            )));
        };
        ev.src_rid.push(s);
        ev.dst_rid.push(t);
    }
    let inserted: Vec<RowId> = (0..echange.inserted())
        .map(|i| echange.insert_id(i))
        .collect();
    let (srcs, dsts) = view.resolve_endpoints(el, Some(&inserted))?;
    let mut delta_out = Vec::with_capacity(inserted.len());
    let mut delta_in = Vec::with_capacity(inserted.len());
    for ((&e_new, &s), &t) in inserted.iter().zip(&srcs).zip(&dsts) {
        delta_out.push((s, e_new, t));
        delta_in.push((t, e_new, s));
    }
    ev.src_rid.extend(srcs);
    ev.dst_rid.extend(dsts);
    delta_out.sort_unstable_by_key(|&(v, e, n)| (v, n, e));
    delta_in.sort_unstable_by_key(|&(v, e, n)| (v, n, e));

    let (src_label, dst_label) = view.schema().edge_endpoints(el);
    let out = prev.ve_out[li].merged_with_delta(
        view.vertex_count(src_label),
        echange,
        &smap,
        &dmap,
        &delta_out,
    )?;
    let ve_in = prev.ve_in[li].merged_with_delta(
        view.vertex_count(dst_label),
        echange,
        &dmap,
        &smap,
        &delta_in,
    )?;
    Ok((ev, out, ve_in))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig2;
    use crate::view::GraphView;
    use relgo_common::Value;
    use relgo_storage::table::TableBuilder;
    use relgo_storage::Database;

    /// Apply a committed delta to `table` by hand: its rows minus
    /// `deleted`, then `inserted`.
    fn apply(db: &mut Database, table: &str, deleted: &[RowId], inserted: Vec<Vec<Value>>) {
        let t = Arc::clone(db.table(table).unwrap());
        let mut b = TableBuilder::new(table, t.schema().clone());
        for r in (0..t.num_rows() as RowId).filter(|r| !deleted.contains(r)) {
            b.push_row(t.row(r)).unwrap();
        }
        for row in inserted {
            b.push_row(row).unwrap();
        }
        db.replace_table(b.finish()).unwrap();
    }

    #[test]
    fn ev_index_matches_fig5a() {
        let (g, _) = fig2::view();
        let likes = g.schema().edge_label_id("Likes").unwrap();
        let idx = g.index().unwrap();
        // Fig 5(a): likes rows map to (person_rowid, message_rowid)
        // l1→(0,0), l2→(1,0), l3→(1,1), l4→(2,1).
        assert_eq!(idx.edge_src(likes, 0), 0);
        assert_eq!(idx.edge_dst(likes, 0), 0);
        assert_eq!(idx.edge_src(likes, 1), 1);
        assert_eq!(idx.edge_dst(likes, 1), 0);
        assert_eq!(idx.edge_src(likes, 3), 2);
        assert_eq!(idx.edge_dst(likes, 3), 1);
    }

    #[test]
    fn ve_index_matches_fig5b() {
        let (g, _) = fig2::view();
        let likes = g.schema().edge_label_id("Likes").unwrap();
        let idx = g.index().unwrap();
        // vp1 → [(l1, vm1)]
        let (es, ns) = idx.neighbors(likes, Direction::Out, 0);
        assert_eq!(es, &[0]);
        assert_eq!(ns, &[0]);
        // vp2 → [(l2, vm1), (l3, vm2)]
        let (es, ns) = idx.neighbors(likes, Direction::Out, 1);
        assert_eq!(es, &[1, 2]);
        assert_eq!(ns, &[0, 1]);
        // vp3 → [(l4, vm2)]
        assert_eq!(idx.degree(likes, Direction::Out, 2), 1);
    }

    #[test]
    fn reverse_direction_adjacency() {
        let (g, _) = fig2::view();
        let likes = g.schema().edge_label_id("Likes").unwrap();
        let idx = g.index().unwrap();
        // m1 is liked by p1 and p2.
        let (es, ns) = idx.neighbors(likes, Direction::In, 0);
        assert_eq!(ns, &[0, 1]);
        assert_eq!(es.len(), 2);
        // m2 is liked by p2 and p3.
        let (_, ns) = idx.neighbors(likes, Direction::In, 1);
        assert_eq!(ns, &[1, 2]);
    }

    #[test]
    fn neighbor_lists_are_sorted() {
        let (g, _) = fig2::view();
        let likes = g.schema().edge_label_id("Likes").unwrap();
        let idx = g.index().unwrap();
        for v in 0..3 {
            let (_, ns) = idx.neighbors(likes, Direction::Out, v);
            assert!(ns.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn adjacency_totals_equal_edge_count() {
        let (g, _) = fig2::view();
        let likes = g.schema().edge_label_id("Likes").unwrap();
        let idx = g.index().unwrap();
        assert_eq!(idx.adjacency_len(likes, Direction::Out), 4);
        assert_eq!(idx.adjacency_len(likes, Direction::In), 4);
    }

    #[test]
    fn direction_reverse() {
        assert_eq!(Direction::Out.reverse(), Direction::In);
        assert_eq!(Direction::In.reverse(), Direction::Out);
    }

    /// Rebuild the fig-5 database with a committed delta applied by hand,
    /// and check every incremental-path invariant against a from-scratch
    /// build.
    #[test]
    fn rebuild_delta_matches_full_build() {
        use relgo_common::FxHashMap;
        use relgo_storage::TableChange;

        // Base: the Fig. 2 data, whose Knows edge label stays untouched
        // by the delta.
        let build_db = |with_delta: bool| {
            let mut db = fig2::database();
            if with_delta {
                // Delete likes row 1 (l2), insert a person and two likes —
                // one of them a parallel edge duplicating (Tom, m1).
                let ada = vec![4.into(), "Ada".into(), 40.into()];
                apply(&mut db, "Person", &[], vec![ada]);
                let likes = vec![
                    vec![5.into(), 4.into(), 200.into(), Value::Date(22)],
                    vec![6.into(), 1.into(), 100.into(), Value::Date(23)],
                ];
                apply(&mut db, "Likes", &[1], likes);
            }
            db
        };
        let mapping = fig2::mapping();

        let mut base_db = build_db(false);
        let mut base = GraphView::build(&mut base_db, mapping.clone()).unwrap();
        base.build_index().unwrap();

        let mut merged_db = build_db(true);
        let mut fresh = GraphView::build(&mut merged_db, mapping.clone()).unwrap();
        fresh.build_index().unwrap();

        let mut changes: FxHashMap<String, TableChange> = FxHashMap::default();
        changes.insert("Person".to_string(), TableChange::new(3, vec![], 1));
        changes.insert("Likes".to_string(), TableChange::new(4, vec![1], 2));
        let mut inc_db = build_db(true);
        let inc = GraphView::rebuild_delta(&base, &mut inc_db, &changes).unwrap();

        let likes = inc.schema().edge_label_id("Likes").unwrap();
        let knows = inc.schema().edge_label_id("Knows").unwrap();
        let inc_idx = inc.index().unwrap();
        let fresh_idx = fresh.index().unwrap();
        for el in [likes, knows] {
            let m = inc.edge_count(el);
            assert_eq!(m, fresh.edge_count(el));
            for e in 0..m as RowId {
                assert_eq!(inc_idx.edge_src(el, e), fresh_idx.edge_src(el, e));
                assert_eq!(inc_idx.edge_dst(el, e), fresh_idx.edge_dst(el, e));
            }
            let (sl, dl) = inc.schema().edge_endpoints(el);
            for v in 0..inc.vertex_count(sl) as RowId {
                assert_eq!(
                    inc_idx.neighbors(el, Direction::Out, v),
                    fresh_idx.neighbors(el, Direction::Out, v),
                    "{el:?} out {v}"
                );
            }
            for v in 0..inc.vertex_count(dl) as RowId {
                assert_eq!(
                    inc_idx.neighbors(el, Direction::In, v),
                    fresh_idx.neighbors(el, Direction::In, v),
                    "{el:?} in {v}"
                );
            }
        }
        // Knows's edge table is untouched, but Person grew append-only: the
        // EV index is shared and only the out-CSR offsets were extended.
        assert!(Arc::ptr_eq(
            &inc_idx.ev[knows.0 as usize],
            &base.index().unwrap().ev[knows.0 as usize]
        ));
        assert!(!inc_idx.shares_label_with(base.index().unwrap(), likes));
        // Changed-label flags follow table + endpoint reachability.
        let (cv, ce) = base.changed_label_flags(&changes);
        assert_eq!(cv, vec![true, false]);
        assert_eq!(ce, vec![true, true], "Knows inherits Person's change");
    }

    #[test]
    fn rebuild_delta_rejects_dangling_survivors() {
        use relgo_common::FxHashMap;
        use relgo_storage::TableChange;
        let (g, _) = fig2::view();
        // Delete person row 1 (Bob) without deleting Bob's likes: the
        // surviving edges dangle, so the rebuild must fail.
        let mut merged_db = fig2::database();
        apply(&mut merged_db, "Person", &[1], vec![]);
        let mut changes: FxHashMap<String, TableChange> = FxHashMap::default();
        changes.insert("Person".to_string(), TableChange::new(3, vec![1], 0));
        let err = GraphView::rebuild_delta(&g, &mut merged_db, &changes).unwrap_err();
        assert!(err.to_string().contains("λ must stay total"), "{err}");
    }

    #[test]
    fn edge_endpoint_by_direction() {
        let (g, _) = fig2::view();
        let likes = g.schema().edge_label_id("Likes").unwrap();
        let idx = g.index().unwrap();
        assert_eq!(idx.edge_endpoint(likes, 1, Direction::Out), 0, "→ message");
        assert_eq!(idx.edge_endpoint(likes, 1, Direction::In), 1, "→ person");
    }
}
