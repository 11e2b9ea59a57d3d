//! The GRainDB-style graph index (paper §3.2.1, Fig. 5).
//!
//! * **EV-index**: for every edge tuple, the pre-resolved row ids of its
//!   source and target vertex tuples — GRainDB's extra `*_rowid` columns.
//!   It routes an edge to its joinable vertex tuples without hashing.
//! * **VE-index**: for every vertex tuple, the adjacent edge tuples and the
//!   corresponding neighbor vertex tuples, stored per edge label and
//!   direction in CSR form. Neighbor lists are sorted by neighbor row id so
//!   `EXPAND_INTERSECT` can intersect them with linear merges.
//!
//! **What open and commit prove.** [`GraphIndex::build`] (run when a view
//! is opened) and [`GraphIndex::rebuild_delta`] (run per commit, for the
//! labels it touches) build nothing: they prove λˢ and λᵗ total, one
//! allocation-free pass over each foreign-key column that fails on the
//! first edge row with a NULL or dangling key.
//!
//! **When each structure is built.** A label's EV-index, out-CSR and
//! in-CSR are each built once, when a query first reads them, and then
//! serve every later reader of the epochs that share the label. The
//! EV-index is the two λ-resolved endpoint columns. The out-CSR is a
//! counting sort over those columns followed by a per-list sort by
//! `(neighbor, edge)` ([`Csr::build`]), with no comparison sort over the
//! edge relation; the in-CSR is the out-CSR's transpose, which comes out
//! already ordered, or the same counting sort over the swapped columns
//! when no out-CSR is built. A CSR's counting sort resolves λ's columns
//! afresh and drops them once built. Every path gives the same arrays bit
//! for bit, so the order of first reads is never visible.

use crate::lambda::KeyEnd;
use crate::view::GraphView;
use relgo_common::{FxHashMap, LabelId, Result, RowId};
use relgo_storage::TableChange;
use std::mem::size_of_val;
use std::sync::{Arc, OnceLock};

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

impl EvIndex {
    fn bytes(&self) -> usize {
        size_of_val(&self.src_rid[..]) + size_of_val(&self.dst_rid[..])
    }
}

/// CSR adjacency of one (edge label, direction): for vertex row `v`, the
/// adjacent `(edge row, neighbor row)` pairs are
/// `entries[offsets[v]..offsets[v+1]]`, sorted by neighbor row id and then
/// by edge row id. The entry order is thus the total order `(vertex,
/// neighbor, edge)`: parallel data edges sit in edge-row order, and every
/// build path below produces the same arrays bit for bit.
#[derive(Debug, Clone, Default)]
pub struct Csr {
    offsets: Vec<u32>,
    edge_rid: Vec<RowId>,
    nbr_rid: Vec<RowId>,
}

impl Csr {
    /// Build the adjacency of an edge relation over `num_vertices` vertex
    /// rows, where edge row `e` joins vertex row `from[e]` to neighbor row
    /// `to[e]` (also the executor's adjacency when no index exists).
    ///
    /// A counting sort over the two columns: degrees are counted into the
    /// offsets, each edge row is scattered into its vertex's list in
    /// edge-row order, and each list is then ordered by neighbor. Edge rows
    /// ascend within a list before that sort, so ordering by `(neighbor,
    /// edge)` is a stable sort by neighbor.
    pub fn build(num_vertices: usize, from: &[RowId], to: &[RowId]) -> Csr {
        debug_assert_eq!(from.len(), to.len());
        let entries = from.iter().zip(to).zip(0..).map(|((&v, &n), e)| (v, e, n));
        let mut csr = Csr::scatter(num_vertices, from, entries);
        csr.sort_lists();
        csr
    }

    /// The adjacency of the opposite direction, over `num_vertices`
    /// neighbor rows. Scattering this CSR's entries in entry order by
    /// neighbor visits each target's sources in ascending order, and one
    /// source's edges to it in ascending edge order, so every list comes
    /// out sorted by `(neighbor, edge)` with no sort at all.
    fn transpose(&self, num_vertices: usize) -> Csr {
        let entries = self.triples().map(|(v, e, n)| (n, e, v));
        Csr::scatter(num_vertices, &self.nbr_rid, entries)
    }

    /// Counting-sort placement: `keys` holds each entry's vertex (it sizes
    /// the lists), and `entries` yields the same entries as `(vertex, edge,
    /// neighbor)` in the order each list keeps them.
    fn scatter(
        num_vertices: usize,
        keys: &[RowId],
        entries: impl Iterator<Item = (RowId, RowId, RowId)>,
    ) -> Csr {
        // `offsets[v + 1]` first counts v's degree, then holds v's start as
        // its cursor; after placement it has advanced to v's end, which is
        // exactly the CSR's `offsets[v + 1]`.
        let mut offsets = vec![0u32; num_vertices + 1];
        for &v in keys {
            offsets[v as usize + 1] += 1;
        }
        let mut start = 0;
        for slot in &mut offsets[1..] {
            let degree = *slot;
            *slot = start;
            start += degree;
        }
        let mut edge_rid = vec![0; keys.len()];
        let mut nbr_rid = vec![0; keys.len()];
        for (v, e, n) in entries {
            let cursor = &mut offsets[v as usize + 1];
            edge_rid[*cursor as usize] = e;
            nbr_rid[*cursor as usize] = n;
            *cursor += 1;
        }
        Csr {
            offsets,
            edge_rid,
            nbr_rid,
        }
    }

    /// Order every list by `(neighbor, edge)`, skipping lists whose
    /// neighbors already ascend (their edges ascend too: see
    /// [`Csr::build`]).
    fn sort_lists(&mut self) {
        let mut list: Vec<u64> = Vec::new();
        for v in 0..self.offsets.len().saturating_sub(1) {
            let (lo, hi) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
            let (edges, nbrs) = (&mut self.edge_rid[lo..hi], &mut self.nbr_rid[lo..hi]);
            if nbrs.is_sorted() {
                continue;
            }
            // Neighbor in the high half, edge in the low: one integer sort
            // orders the list by `(neighbor, edge)`.
            list.clear();
            list.extend(
                nbrs.iter()
                    .zip(edges.iter())
                    .map(|(&n, &e)| (u64::from(n) << 32) | u64::from(e)),
            );
            list.sort_unstable();
            for ((key, e), n) in list.iter().zip(edges).zip(nbrs) {
                *n = (key >> 32) as RowId;
                *e = *key as RowId;
            }
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

    fn bytes(&self) -> usize {
        size_of_val(&self.offsets[..])
            + size_of_val(&self.edge_rid[..])
            + size_of_val(&self.nbr_rid[..])
    }
}

/// The complete graph index: per edge label, the EV-index and one VE-index
/// (CSR) per direction, each built when a query first reads it. A label
/// sits behind one `Arc`, so an incremental rebuild
/// ([`GraphIndex::rebuild_delta`]) shares an untouched label with the
/// previous epoch's index whole, structures built later included.
#[derive(Debug, Clone, Default)]
pub struct GraphIndex {
    labels: Vec<Arc<LabelIndex>>,
}

/// One edge label's index: the two λ ends it is built from, the row counts
/// of its endpoint vertex relations, and its three structures, each built
/// once, on first read. λ is proven total on every edge row before the
/// label is published, so no build can fail.
#[derive(Debug)]
struct LabelIndex {
    src: KeyEnd,
    dst: KeyEnd,
    sources: usize,
    targets: usize,
    ev: OnceLock<Arc<EvIndex>>,
    out: OnceLock<Arc<Csr>>,
    in_: OnceLock<Arc<Csr>>,
}

impl LabelIndex {
    /// Label `el` of `view`, nothing built.
    fn new(view: &GraphView, el: LabelId) -> LabelIndex {
        let (src_label, dst_label) = view.schema().edge_endpoints(el);
        LabelIndex {
            src: view.key_end(el, Direction::In),
            dst: view.key_end(el, Direction::Out),
            sources: view.vertex_count(src_label),
            targets: view.vertex_count(dst_label),
            ev: OnceLock::new(),
            out: OnceLock::new(),
            in_: OnceLock::new(),
        }
    }

    /// Prove λˢ and λᵗ total: fail on the first edge row with a NULL or
    /// dangling key (its source before its target), as
    /// [`GraphView::resolve_endpoints`] does, without resolving a column.
    fn check(self) -> Result<LabelIndex> {
        match (self.src.first_unresolved(), self.dst.first_unresolved()) {
            (Some(s), d) if d.is_none_or(|d| s <= d) => Err(self.src.error_at(s)),
            (_, Some(d)) => Err(self.dst.error_at(d)),
            _ => Ok(self),
        }
    }

    fn ev(&self) -> &Arc<EvIndex> {
        self.ev.get_or_init(|| {
            Arc::new(EvIndex {
                src_rid: self.src.raw(None),
                dst_rid: self.dst.raw(None),
            })
        })
    }

    fn out(&self) -> &Csr {
        self.out
            .get_or_init(|| self.over_endpoints(|s, d| Csr::build(self.sources, s, d)))
    }

    /// The out-CSR's transpose when that is built, else a counting sort
    /// over the swapped columns: the same arrays either way.
    fn in_(&self) -> &Csr {
        self.in_.get_or_init(|| match self.out.get() {
            Some(out) => Arc::new(out.transpose(self.targets)),
            None => self.over_endpoints(|s, d| Csr::build(self.targets, d, s)),
        })
    }

    /// `build` over the label's freshly resolved source and target
    /// columns, dropped once `build` returns.
    fn over_endpoints(&self, build: impl FnOnce(&[RowId], &[RowId]) -> Csr) -> Arc<Csr> {
        Arc::new(build(&self.src.raw(None), &self.dst.raw(None)))
    }
}

impl GraphIndex {
    /// The index of every edge label of the view, nothing built yet. Fails
    /// if any λ function is partial (a NULL or dangling foreign key).
    pub fn build(view: &GraphView) -> Result<GraphIndex> {
        let labels = (0..view.schema().edge_label_count() as u16)
            .map(|li| Ok(Arc::new(LabelIndex::new(view, LabelId(li)).check()?)))
            .collect::<Result<_>>()?;
        Ok(GraphIndex { labels })
    }

    /// Incrementally rebuild after a committed delta: `view` is the *new*
    /// (merged) view, `changes` maps changed table names to the
    /// [`TableChange`] that produced them.
    ///
    /// Per edge label:
    ///
    /// * **untouched** (edge table and both endpoint tables unchanged) —
    ///   the label is shared whole (`Arc` clone, O(1)); a structure either
    ///   epoch builds later serves both;
    /// * **endpoints grew append-only, edge table unchanged** — every
    ///   existing entry is still valid: a built EV-index is shared and a
    ///   built CSR has its offset table extended over the new vertex rows;
    ///   an unbuilt structure stays unbuilt;
    /// * **anything else** — λ is proven total over the merged view as
    ///   [`GraphIndex::build`] proves it, and the label starts unbuilt. An
    ///   edge whose key no longer resolves fails, whether the edge was
    ///   inserted with a dangling key or its vertex row was deleted under
    ///   it; a vertex row replaced by one with the same key resolves to the
    ///   new row.
    ///
    /// Every structure read from the result is bit-identical to the one
    /// [`GraphIndex::build`] over the merged view gives.
    pub fn rebuild_delta(
        prev: &GraphIndex,
        view: &GraphView,
        changes: &FxHashMap<String, TableChange>,
    ) -> Result<GraphIndex> {
        let mut labels = Vec::with_capacity(prev.labels.len());
        for li in 0..view.schema().edge_label_count() as u16 {
            let el = LabelId(li);
            let before = &prev.labels[li as usize];
            let (src_label, dst_label) = view.schema().edge_endpoints(el);
            let echange = changes.get(view.edge_table(el).name());
            let schange = changes.get(view.vertex_table(src_label).name());
            let dchange = changes.get(view.vertex_table(dst_label).name());
            if echange.is_none() && schange.is_none() && dchange.is_none() {
                labels.push(Arc::clone(before));
                continue;
            }
            let label = LabelIndex::new(view, el);
            let stable = |c: Option<&TableChange>| c.is_none_or(TableChange::is_append_only);
            if echange.is_some() || !stable(schange) || !stable(dchange) {
                labels.push(Arc::new(label.check()?));
                continue;
            }
            // Existing entries are all valid; at most the offset tables must
            // cover newly appended vertex rows. Cloning a cell shares what
            // it holds, built or not.
            let keep = |cell: &OnceLock<Arc<Csr>>, change: Option<&TableChange>, rows| {
                let grown = cell.get().filter(|_| change.is_some());
                grown.map_or_else(
                    || cell.clone(),
                    |csr| OnceLock::from(Arc::new(csr.extended(rows))),
                )
            };
            labels.push(Arc::new(LabelIndex {
                ev: before.ev.clone(),
                out: keep(&before.out, schange, label.sources),
                in_: keep(&before.in_, dchange, label.targets),
                ..label
            }));
        }
        Ok(GraphIndex { labels })
    }

    /// Whether label `el` is shared with `other` (incremental rebuilds
    /// share untouched labels; diagnostics and tests).
    pub fn shares_label_with(&self, other: &GraphIndex, el: LabelId) -> bool {
        Arc::ptr_eq(&self.labels[el.0 as usize], &other.labels[el.0 as usize])
    }

    /// Resident bytes of the structures built so far, summed over labels,
    /// as `("ev" | "out" | "in", bytes)`.
    pub fn built_bytes(&self) -> [(&'static str, usize); 3] {
        let sum = |bytes: fn(&LabelIndex) -> Option<usize>| -> usize {
            self.labels.iter().filter_map(|l| bytes(l)).sum()
        };
        [
            ("ev", sum(|l| l.ev.get().map(|ev| ev.bytes()))),
            ("out", sum(|l| l.out.get().map(|csr| csr.bytes()))),
            ("in", sum(|l| l.in_.get().map(|csr| csr.bytes()))),
        ]
    }

    /// The EV-index of label `el` as a whole, shared with this epoch.
    pub(crate) fn ev(&self, el: LabelId) -> &Arc<EvIndex> {
        self.labels[el.0 as usize].ev()
    }

    /// EV-index lookup: source vertex row of edge row `e` (label `el`).
    #[inline]
    pub fn edge_src(&self, el: LabelId, e: RowId) -> RowId {
        self.ev(el).src_rid[e as usize]
    }

    /// EV-index lookup: target vertex row of edge row `e` (label `el`).
    #[inline]
    pub fn edge_dst(&self, el: LabelId, e: RowId) -> RowId {
        self.ev(el).dst_rid[e as usize]
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
        let label = &self.labels[el.0 as usize];
        match dir {
            Direction::Out => label.out(),
            Direction::In => label.in_(),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig2;
    use crate::mapping::RGMapping;
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
        assert_eq!(idx.adjacency(likes, Direction::Out).len(), 4);
        assert_eq!(idx.adjacency(likes, Direction::In).len(), 4);
    }

    #[test]
    fn direction_reverse() {
        assert_eq!(Direction::Out.reverse(), Direction::In);
        assert_eq!(Direction::In.reverse(), Direction::Out);
    }

    /// The reference build: one `(vertex, edge, neighbor)` triple per edge
    /// row, comparison-sorted by `(vertex, neighbor, edge)` as a whole.
    fn reference(num_vertices: usize, from: &[RowId], to: &[RowId]) -> Csr {
        let mut triples: Vec<_> = (0..from.len())
            .map(|e| (from[e], e as RowId, to[e]))
            .collect();
        triples.sort_unstable_by_key(|&(v, e, n)| (v, n, e));
        let mut offsets = vec![0u32; num_vertices + 1];
        for &(v, _, _) in &triples {
            offsets[v as usize + 1] += 1;
        }
        for i in 0..num_vertices {
            offsets[i + 1] += offsets[i];
        }
        Csr {
            offsets,
            edge_rid: triples.iter().map(|&(_, e, _)| e).collect(),
            nbr_rid: triples.iter().map(|&(_, _, n)| n).collect(),
        }
    }

    fn assert_same(got: &Csr, want: &Csr, what: &str) {
        assert_eq!(got.offsets, want.offsets, "{what}: offsets");
        assert_eq!(got.edge_rid, want.edge_rid, "{what}: edge rows");
        assert_eq!(got.nbr_rid, want.nbr_rid, "{what}: neighbor rows");
    }

    /// Which of label `el`'s EV-index, out-CSR and in-CSR are built.
    fn built(idx: &GraphIndex, el: LabelId) -> [bool; 3] {
        let l = &idx.labels[el.0 as usize];
        [
            l.ev.get().is_some(),
            l.out.get().is_some(),
            l.in_.get().is_some(),
        ]
    }

    /// Read structure `structure` of `label` (0 EV, 1 out, 2 in), building
    /// it if it is unbuilt.
    fn touch(label: &LabelIndex, structure: u32) {
        match structure {
            0 => _ = label.ev(),
            1 => _ = label.out(),
            _ => _ = label.in_(),
        }
    }

    /// The three structures in a random order.
    fn shuffled(pick: &mut impl FnMut(u64) -> RowId) -> Vec<u32> {
        let mut order = vec![0, 1, 2];
        for i in (1..order.len()).rev() {
            order.swap(i, pick(i as u64 + 1) as usize);
        }
        order
    }

    /// Read a random subset of `label`'s structures in a random order.
    fn read(label: &LabelIndex, pick: &mut impl FnMut(u64) -> RowId) {
        let mut order = shuffled(pick);
        order.retain(|_| pick(3) != 0);
        for structure in order {
            touch(label, structure);
        }
    }

    /// Both directions of an edge relation from `sources` to `targets`
    /// vertex rows equal the reference: the counting sort (out), its
    /// transpose (in, as `GraphIndex::build` makes it) and the counting
    /// sort over the swapped columns (in, as the unindexed executor makes
    /// it).
    fn check(what: &str, (sources, targets): (usize, usize), from: &[RowId], to: &[RowId]) {
        let out = Csr::build(sources, from, to);
        assert_same(&out, &reference(sources, from, to), &format!("{what} out"));
        let want_in = reference(targets, to, from);
        assert_same(
            &out.transpose(targets),
            &want_in,
            &format!("{what} transpose"),
        );
        assert_same(
            &Csr::build(targets, to, from),
            &want_in,
            &format!("{what} in"),
        );
    }

    /// A seeded splitmix64 stream (fixed seeds; nothing shrinks).
    fn rng(seed: u64) -> impl FnMut(u64) -> RowId {
        let mut state = seed;
        move |bound| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound) as RowId
        }
    }

    #[test]
    fn counting_sort_equals_reference_on_random_relations() {
        for seed in 0..16 {
            let mut next = rng(seed);
            let (sources, targets) = (1 + next(200) as usize, 1 + next(200) as usize);
            let m = next(2_000) as usize;
            let from: Vec<RowId> = (0..m).map(|_| next(sources as u64)).collect();
            let to: Vec<RowId> = (0..m).map(|_| next(targets as u64)).collect();
            check(&format!("seed {seed}"), (sources, targets), &from, &to);
        }
    }

    #[test]
    fn counting_sort_equals_reference_on_a_hub_with_parallel_edges() {
        for seed in 0..8 {
            let mut next = rng(100 + seed);
            // Vertex 7 holds ~80 % of 3 000 edges (degree ≫ the mean of
            // 6), over only 40 neighbors: ~60 parallel edges to each, in
            // random edge-row order. One more pair repeats 50 times.
            let (from, to): (Vec<RowId>, Vec<RowId>) = (0..3_000)
                .map(|e| match next(10) {
                    _ if e % 60 == 0 => (3, 11),
                    0 | 1 => (next(500), next(500)),
                    _ => (7, next(40)),
                })
                .unzip();
            check(&format!("hub seed {seed}"), (500, 500), &from, &to);
        }
    }

    #[test]
    fn counting_sort_equals_reference_on_edge_shapes() {
        // Self-loops, parallel ones among them, over one vertex label.
        let mut next = rng(7);
        let (from, to): (Vec<RowId>, Vec<RowId>) = (0..400)
            .map(|_| {
                let v = next(30);
                if next(3) == 0 {
                    (v, v)
                } else {
                    (v, next(30))
                }
            })
            .unzip();
        check("self-loops", (30, 30), &from, &to);
        // Isolated vertices: edges touch only every fifth row, none the
        // first or last ones.
        let (from, to): (Vec<RowId>, Vec<RowId>) = (0..300)
            .map(|_| (5 + 5 * next(30), 5 + 5 * next(30)))
            .unzip();
        check("isolated", (200, 200), &from, &to);
        // Lists that are already sorted: edge rows in (vertex, neighbor)
        // order, and a single vertex with ascending neighbors.
        let (from, to): (Vec<RowId>, Vec<RowId>) = (0..50u32)
            .flat_map(|v| (0..v % 7).map(move |n| (v, 3 * n)))
            .unzip();
        check("sorted", (50, 20), &from, &to);
        let to: Vec<RowId> = (0..100).collect();
        check("one sorted list", (1, 100), &[0; 100], &to);
        // Descending neighbors: every list reversed.
        let (from, to): (Vec<RowId>, Vec<RowId>) = (0..500u32).map(|e| (e % 5, 499 - e)).unzip();
        check("reversed", (5, 500), &from, &to);
        // Zero edges, over some vertices and over none.
        check("no edges", (4, 3), &[], &[]);
        check("no vertices", (0, 0), &[], &[]);
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
        let knows = base.schema().edge_label_id("Knows").unwrap();
        // Knows's EV-index is built before the commit, so the commit can
        // carry it over.
        let base_ev = Arc::clone(base.index().unwrap().ev(knows));

        let mut merged_db = build_db(true);
        let mut fresh = GraphView::build(&mut merged_db, mapping.clone()).unwrap();
        fresh.build_index().unwrap();

        let mut changes: FxHashMap<String, TableChange> = FxHashMap::default();
        changes.insert("Person".to_string(), TableChange::new(3, vec![], 1));
        changes.insert("Likes".to_string(), TableChange::new(4, vec![1], 2));
        let mut inc_db = build_db(true);
        let inc = GraphView::rebuild_delta(&base, &mut inc_db, &changes).unwrap();

        let likes = inc.schema().edge_label_id("Likes").unwrap();
        let inc_idx = inc.index().unwrap();
        assert_eq!(built(inc_idx, knows), [true, false, false]);
        assert_eq!(built(inc_idx, likes), [false; 3]);
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
        // EV-index is shared, and its CSRs, unbuilt before, were built from
        // the merged view.
        assert!(Arc::ptr_eq(inc_idx.ev(knows), &base_ev));
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
        assert_eq!(
            err.to_string(),
            "execution error: λs: dangling source key 2 in edge Likes@1 (λ must be total)"
        );
    }

    /// Column `c` of `table`, whose values are all integers.
    fn ints(db: &Database, table: &str, c: usize) -> Vec<i64> {
        let t = db.table(table).unwrap();
        (0..t.num_rows() as RowId)
            .map(|r| t.column(c).get_int(r).unwrap())
            .collect()
    }

    /// A random two-label graph: vertex labels A and B (key, payload), edge
    /// labels AA (A → A, with self-loops) and AB (A → B), parallel edges in
    /// both. Every key, vertex or edge, is unique across the tables.
    fn stream_graph(next: &mut impl FnMut(u64) -> RowId) -> (Database, RGMapping) {
        use relgo_common::DataType;
        use relgo_storage::table::table_of;
        let mut db = Database::new();
        let vertex = [("id", DataType::Int), ("payload", DataType::Int)];
        let edge = [
            ("id", DataType::Int),
            ("src", DataType::Int),
            ("dst", DataType::Int),
        ];
        let a: Vec<_> = (0..30)
            .map(|k| vec![Value::Int(k), Value::Int(0)])
            .collect();
        let b: Vec<_> = (30..50)
            .map(|k| vec![Value::Int(k), Value::Int(0)])
            .collect();
        let mut pairs = |m: i64, first: i64, targets: (i64, u64)| {
            let mut out: Vec<Vec<Value>> = Vec::new();
            for e in first..first + m {
                let (s, t) = match next(4) {
                    0 if !out.is_empty() => {
                        let prev = &out[next(out.len() as u64) as usize];
                        (prev[1].as_int().unwrap(), prev[2].as_int().unwrap())
                    }
                    1 if targets.0 == 0 => {
                        let v = i64::from(next(30));
                        (v, v)
                    }
                    _ => (i64::from(next(30)), targets.0 + i64::from(next(targets.1))),
                };
                out.push([e, s, t].map(Value::Int).to_vec());
            }
            out
        };
        let (aa, ab) = (pairs(120, 100, (0, 30)), pairs(80, 300, (30, 20)));
        for (name, spec, data) in [
            ("A", &vertex[..], a),
            ("B", &vertex[..], b),
            ("AA", &edge[..], aa),
            ("AB", &edge[..], ab),
        ] {
            db.add_table(table_of(name, spec, data));
            db.set_primary_key(name, "id").unwrap();
        }
        let mapping = RGMapping::new()
            .vertex("A")
            .vertex("B")
            .edge("AA", "src", "A", "dst", "A")
            .edge("AB", "src", "A", "dst", "B");
        (db, mapping)
    }

    /// A stream of commits over [`stream_graph`], each mixing edge inserts
    /// and deletes, mid-table vertex deletions together with their incident
    /// edges (so later row ids shift), vertex replacements (delete a key and
    /// insert it again) and appends. Before every commit a random subset of
    /// the structures is read, so each is carried over built or unbuilt;
    /// after it, exactly the labels the commit left untouched are shared,
    /// exactly the built structures of the labels it left valid are carried,
    /// and every structure, carried or not, equals a full build of the
    /// merged view, array for array.
    #[test]
    fn rebuild_delta_equals_full_build_over_a_commit_stream() {
        let mut arms = [0usize; 3]; // shared, extended, rebuilt
        for seed in 0..12 {
            let mut next = rng(1_000 + seed);
            // Which structures are read, and in which order: a stream of
            // its own, so the commits stay those of `next`.
            let mut pick = rng(5_000 + seed);
            let (mut db, mapping) = stream_graph(&mut next);
            let mut prev = GraphView::build(&mut db, mapping.clone()).unwrap();
            prev.build_index().unwrap();
            let mut fresh_key = 1_000i64;
            for commit in 0..8i64 {
                for label in &prev.index().unwrap().labels {
                    read(label, &mut pick);
                }
                // Per vertex table: 0 untouched, 1 appends only, 2 also
                // deletions and replacements. Per edge table: touched or not.
                let mut deleted: FxHashMap<&str, Vec<RowId>> = FxHashMap::default();
                let mut inserted: FxHashMap<&str, Vec<Vec<Value>>> = FxHashMap::default();
                let mut live: FxHashMap<&str, Vec<i64>> = FxHashMap::default();
                let mut gone: Vec<i64> = Vec::new();
                for table in ["A", "B"] {
                    let vertices = ints(&db, table, 0);
                    let mode = next(3);
                    let del = deleted.entry(table).or_default();
                    let ins = inserted.entry(table).or_default();
                    if mode == 2 && vertices.len() > 4 {
                        for _ in 0..1 + next(2) {
                            // Mid-table: never the first or last row.
                            del.push(1 + next(vertices.len() as u64 - 2));
                        }
                        gone.extend(del.iter().map(|&r| vertices[r as usize]));
                        for _ in 0..1 + next(2) {
                            let r = next(vertices.len() as u64);
                            if !del.contains(&r) {
                                del.push(r);
                                let key = Value::Int(vertices[r as usize]);
                                ins.push(vec![key, Value::Int(commit + 1)]);
                            }
                        }
                    }
                    if mode >= 1 {
                        for _ in 0..1 + next(3) {
                            ins.push(vec![Value::Int(fresh_key), Value::Int(commit + 1)]);
                            fresh_key += 1;
                        }
                    }
                    let mut keys = vertices;
                    keys.retain(|k| !gone.contains(k));
                    keys.extend(ins.iter().filter_map(|r| r[0].as_int()));
                    keys.sort_unstable();
                    keys.dedup();
                    live.insert(table, keys);
                }
                for (table, dst) in [("AA", "A"), ("AB", "B")] {
                    let (from, to) = (ints(&db, table, 1), ints(&db, table, 2));
                    let touched = next(2) == 1;
                    let del = deleted.entry(table).or_default();
                    // A deleted vertex takes its incident edges with it.
                    del.extend((0..from.len() as RowId).filter(|&r| {
                        let ends = [from[r as usize], to[r as usize]];
                        ends.iter().any(|k| gone.contains(k))
                    }));
                    if !touched {
                        continue;
                    }
                    for _ in 0..next(4) {
                        if !from.is_empty() {
                            del.push(next(from.len() as u64));
                        }
                    }
                    let (srcs, dsts) = (&live["A"], &live[dst]);
                    let ins = inserted.entry(table).or_default();
                    for _ in 0..1 + next(6) {
                        let s = srcs[next(srcs.len() as u64) as usize];
                        let t = match next(4) {
                            0 if table == "AA" => s, // self-loop
                            _ => dsts[next(dsts.len() as u64) as usize],
                        };
                        // Sometimes twice: a parallel edge inside the delta.
                        for _ in 0..1 + next(2) {
                            ins.push([fresh_key, s, t].map(Value::Int).to_vec());
                            fresh_key += 1;
                        }
                    }
                }
                let mut changes: FxHashMap<String, TableChange> = FxHashMap::default();
                for table in ["A", "B", "AA", "AB"] {
                    let (del, ins) = (&deleted[table], inserted.remove(table).unwrap_or_default());
                    if del.is_empty() && ins.is_empty() {
                        continue;
                    }
                    let n = db.table(table).unwrap().num_rows();
                    changes.insert(table.into(), TableChange::new(n, del.clone(), ins.len()));
                    apply(&mut db, table, del, ins);
                }

                let inc = GraphView::rebuild_delta(&prev, &mut db, &changes).unwrap();
                let mut fresh = GraphView::build(&mut db, mapping.clone()).unwrap();
                fresh.build_index().unwrap();
                let (got, want) = (inc.index().unwrap(), fresh.index().unwrap());
                let before = prev.index().unwrap();
                let db_rows = |table: &str| db.table(table).unwrap().num_rows();
                for (i, (table, dst)) in [("AA", "A"), ("AB", "B")].into_iter().enumerate() {
                    let what = format!("seed {seed} commit {commit} {table}");
                    let (e, s, t) = (changes.get(table), changes.get("A"), changes.get(dst));
                    let stable =
                        |c: Option<&TableChange>| c.is_none_or(TableChange::is_append_only);
                    let untouched = e.is_none() && s.is_none() && t.is_none();
                    let kept = e.is_none() && stable(s) && stable(t);
                    let el = LabelId(i as u16);
                    assert_eq!(got.shares_label_with(before, el), untouched, "{what}");
                    // Built structures carry over exactly on the kept arms,
                    // a CSR by pointer only while its vertex table is
                    // unchanged (otherwise its offsets were extended).
                    let was = if kept { built(before, el) } else { [false; 3] };
                    assert_eq!(built(got, el), was, "{what}: built");
                    let (now, then) = (&got.labels[i], &before.labels[i]);
                    if let (Some(a), Some(b)) = (now.ev.get(), then.ev.get()) {
                        assert!(Arc::ptr_eq(a, b), "{what}: EV shared");
                    }
                    for (a, b, change) in [(&now.out, &then.out, s), (&now.in_, &then.in_, t)] {
                        if let (Some(a), Some(b)) = (a.get(), b.get()) {
                            assert_eq!(Arc::ptr_eq(a, b), change.is_none(), "{what}: CSR");
                        }
                    }
                    arms[usize::from(!untouched) + usize::from(!kept)] += 1;

                    // Read what `pick` chooses in `got`. Then check all three
                    // structures, in a random order, through a throw-away
                    // copy of the label: a built cell's clone shares its
                    // value and an unbuilt one's is a cell of its own, so
                    // the copy builds nothing in `got`. Each equals the full
                    // build and the comparison sort of its EV-index.
                    read(now, &mut pick);
                    let copy = LabelIndex {
                        ev: now.ev.clone(),
                        out: now.out.clone(),
                        in_: now.in_.clone(),
                        ..LabelIndex::new(&inc, el)
                    };
                    for structure in shuffled(&mut pick) {
                        touch(&copy, structure);
                    }
                    let ev = want.ev(el);
                    assert_eq!(copy.ev().src_rid, ev.src_rid, "{what}: EV src");
                    assert_eq!(copy.ev().dst_rid, ev.dst_rid, "{what}: EV dst");
                    let (sources, targets) = (db_rows("A"), db_rows(dst));
                    let out = copy.out();
                    assert_same(out, want.adjacency(el, Direction::Out), &what);
                    let want_out = reference(sources, &ev.src_rid, &ev.dst_rid);
                    assert_same(out, &want_out, &format!("{what} out"));
                    let in_ = copy.in_();
                    assert_same(in_, want.adjacency(el, Direction::In), &what);
                    let want_in = reference(targets, &ev.dst_rid, &ev.src_rid);
                    assert_same(in_, &want_in, &format!("{what} in"));
                }
                prev = inc;
            }
        }
        // Every arm of `rebuild_delta` ran.
        assert!(arms.iter().all(|&n| n > 0), "arms {arms:?}");
    }

    #[test]
    fn a_fresh_build_builds_nothing() {
        let (g, _) = fig2::view();
        let idx = g.index().unwrap();
        for li in 0..g.schema().edge_label_count() as u16 {
            assert_eq!(built(idx, LabelId(li)), [false; 3]);
        }
        assert_eq!(idx.built_bytes(), [("ev", 0), ("out", 0), ("in", 0)]);
        let likes = g.schema().edge_label_id("Likes").unwrap();
        idx.adjacency(likes, Direction::In);
        assert_eq!(built(idx, likes), [false, false, true]);
        // Four entries of two row ids each, and an offset per message + 1.
        assert_eq!(
            idx.built_bytes(),
            [("ev", 0), ("out", 0), ("in", 4 * 8 + 3 * 4)]
        );
    }

    /// Every order of first reads builds the same arrays: the in-CSR alone
    /// (a counting sort over fresh columns), the out-CSR then its transpose,
    /// or the EV-index first and both CSRs after it.
    #[test]
    fn every_read_order_builds_the_reference() {
        for seed in 0..6 {
            let (mut db, mapping) = stream_graph(&mut rng(2_000 + seed));
            for order in [[2, 1, 0], [1, 2, 0], [0, 1, 2], [0, 2, 1]] {
                let mut g = GraphView::build(&mut db, mapping.clone()).unwrap();
                g.build_index().unwrap();
                let idx = g.index().unwrap();
                for el in [LabelId(0), LabelId(1)] {
                    for structure in order {
                        touch(&idx.labels[el.0 as usize], structure);
                    }
                    let (src, dst) = g.resolve_endpoints(el, None).unwrap();
                    let ev = idx.ev(el);
                    assert_eq!((&ev.src_rid, &ev.dst_rid), (&src, &dst), "EV");
                    let (sl, dl) = g.schema().edge_endpoints(el);
                    let (sources, targets) = (g.vertex_count(sl), g.vertex_count(dl));
                    let what = format!("seed {seed} order {order:?} {el:?}");
                    let out = idx.adjacency(el, Direction::Out);
                    assert_same(out, &reference(sources, &src, &dst), &format!("{what} out"));
                    let csr = idx.adjacency(el, Direction::In);
                    assert_same(csr, &reference(targets, &dst, &src), &format!("{what} in"));
                }
            }
        }
    }

    /// A commit that leaves a label untouched shares it whole: a structure
    /// first built after the commit, from either epoch, is one allocation.
    #[test]
    fn an_untouched_label_is_shared_across_epochs() {
        use relgo_common::FxHashMap;
        use relgo_storage::TableChange;
        let (base, _) = fig2::view();
        let mut merged_db = fig2::database();
        apply(&mut merged_db, "Likes", &[0], vec![]);
        let mut changes: FxHashMap<String, TableChange> = FxHashMap::default();
        changes.insert("Likes".to_string(), TableChange::new(4, vec![0], 0));
        let inc = GraphView::rebuild_delta(&base, &mut merged_db, &changes).unwrap();
        let (before, after) = (base.index().unwrap(), inc.index().unwrap());
        let knows = base.schema().edge_label_id("Knows").unwrap();
        let likes = base.schema().edge_label_id("Likes").unwrap();
        assert!(after.shares_label_with(before, knows));
        assert!(!after.shares_label_with(before, likes));
        let out = after.adjacency(knows, Direction::Out);
        assert!(std::ptr::eq(out, before.adjacency(knows, Direction::Out)));
        let ev = before.ev(knows);
        assert!(Arc::ptr_eq(ev, after.ev(knows)));
        assert_eq!(built(before, knows), [true, true, false]);
    }

    /// Threads racing the first read of one structure all get the one
    /// that was built.
    #[test]
    fn racing_first_reads_build_once() {
        let (mut db, mapping) = stream_graph(&mut rng(3_000));
        let mut g = GraphView::build(&mut db, mapping).unwrap();
        g.build_index().unwrap();
        let idx = g.index().unwrap();
        let barrier = std::sync::Barrier::new(4);
        let got: Vec<usize> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        std::ptr::from_ref(idx.adjacency(LabelId(0), Direction::Out)) as usize
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(got.iter().all(|&p| p == got[0]), "{got:?}");
        assert_eq!(built(idx, LabelId(0)), [false, true, false]);
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
