//! The runtime representation of a graph relation.
//!
//! A [`GraphChunk`] holds the matched bindings of a sub-pattern as
//! struct-of-arrays: one row-id column per bound pattern element. Vertices
//! and edges are identified by the row id in their backing relation (the
//! paper's relation-prefixed element ids — the label is implicit in the
//! pattern element).
//!
//! A column is not always there yet. An edge scan binds the edge and *defers*
//! its endpoints: each is λ of the edge column, looked up when an operator
//! first reads it — once, for the rows alive at that point — and carried
//! along unread through `take` / `extend` / `join` otherwise, so an endpoint
//! nobody filters on, joins on or projects is never looked up. The edge
//! column of an unpredicated scan is the identity and is not allocated
//! unless someone reads the edge column itself.

use relgo_common::{RelGoError, Result, RowId};
use relgo_graph::Lambda;
use std::sync::{Arc, OnceLock};

/// One binding column.
#[derive(Debug, Clone)]
enum Col {
    /// Materialized row ids.
    Rows(Vec<RowId>),
    /// `0..len`, the edge column of an unpredicated scan; filled on first
    /// read.
    Identity(OnceLock<Vec<RowId>>),
    /// λ of the column binding pattern edge `edge` in the same chunk; filled
    /// — with the rows or with the lookup's error — on first read.
    Endpoint {
        edge: usize,
        lambda: Arc<dyn Lambda>,
        rows: OnceLock<Result<Vec<RowId>>>,
    },
}

impl Col {
    /// The column's cells if they are in memory.
    fn materialized(&self) -> Option<&[RowId]> {
        match self {
            Col::Rows(rows) => Some(rows),
            Col::Identity(rows) => rows.get().map(Vec::as_slice),
            Col::Endpoint { rows, .. } => match rows.get() {
                Some(Ok(rows)) => Some(rows),
                _ => None,
            },
        }
    }

    /// The cells at `idx` as a column of another chunk: a gather of what is
    /// in memory; the gathered positions for an unread identity; an unread
    /// endpoint as it is, to be looked up from that chunk's gathered edge
    /// column.
    fn gathered(&self, idx: &[u32]) -> Col {
        match (self.materialized(), self) {
            (Some(rows), _) => Col::Rows(idx.iter().map(|&i| rows[i as usize]).collect()),
            (None, Col::Endpoint { edge, lambda, .. }) => Col::Endpoint {
                edge: *edge,
                lambda: Arc::clone(lambda),
                rows: OnceLock::new(),
            },
            (None, _) => Col::Rows(idx.to_vec()),
        }
    }
}

/// A vertex binding that is still λ of an edge column: nobody has read it.
#[derive(Debug, Clone, Copy)]
pub struct UnreadEndpoint<'a> {
    /// λˢ or λᵗ of the edge's label.
    pub lambda: &'a dyn Lambda,
    /// The edge rows the binding is λ of, a row of the chunk each; `None` =
    /// every row of the edge relation, in order.
    pub edges: Option<&'a [RowId]>,
}

/// A columnar batch of pattern-element bindings.
#[derive(Debug, Clone)]
pub struct GraphChunk {
    /// `vcols[v]` = column index binding pattern vertex `v`.
    vcols: Vec<Option<usize>>,
    /// `ecols[e]` = column index binding pattern edge `e`.
    ecols: Vec<Option<usize>>,
    cols: Vec<Col>,
    len: usize,
}

impl GraphChunk {
    /// An empty chunk for a pattern with `nv` vertices and `ne` edges —
    /// nothing bound, zero rows.
    pub fn new(nv: usize, ne: usize) -> Self {
        GraphChunk {
            vcols: vec![None; nv],
            ecols: vec![None; ne],
            cols: Vec::new(),
            len: 0,
        }
    }

    /// A chunk binding a single vertex to `rows`.
    pub fn from_vertex(nv: usize, ne: usize, v: usize, rows: Vec<RowId>) -> Self {
        let mut c = GraphChunk::new(nv, ne);
        c.len = rows.len();
        c.vcols[v] = Some(0);
        c.cols.push(Col::Rows(rows));
        c
    }

    /// A chunk binding edge `e` to the `len` edge rows `rows` — `None` for
    /// every row of the edge relation, in order — and its endpoints, pattern
    /// vertices `src` and `dst`, to λˢ / λᵗ of them, deferred.
    pub fn from_edge_scan(
        (nv, ne): (usize, usize),
        (e, len, rows): (usize, usize, Option<Vec<RowId>>),
        (src, srcs): (usize, Arc<dyn Lambda>),
        (dst, dsts): (usize, Arc<dyn Lambda>),
    ) -> Result<Self> {
        if src == dst {
            return Err(RelGoError::execution(format!(
                "vertex {dst} is already bound"
            )));
        }
        let endpoint = |lambda| Col::Endpoint {
            edge: e,
            lambda,
            rows: OnceLock::new(),
        };
        let mut c = GraphChunk::new(nv, ne);
        c.len = len;
        c.vcols[src] = Some(0);
        c.vcols[dst] = Some(1);
        c.ecols[e] = Some(2);
        c.cols.extend([
            endpoint(srcs),
            endpoint(dsts),
            rows.map_or_else(|| Col::Identity(OnceLock::new()), Col::Rows),
        ]);
        Ok(c)
    }

    /// Number of rows (matches).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the chunk has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether vertex `v` is bound.
    pub fn binds_vertex(&self, v: usize) -> bool {
        self.vcols[v].is_some()
    }

    /// Whether edge `e` is bound.
    pub fn binds_edge(&self, e: usize) -> bool {
        self.ecols[e].is_some()
    }

    /// Bound vertex indices.
    pub fn bound_vertices(&self) -> Vec<usize> {
        (0..self.vcols.len())
            .filter(|&v| self.vcols[v].is_some())
            .collect()
    }

    /// Bound edge indices.
    pub fn bound_edges(&self) -> Vec<usize> {
        (0..self.ecols.len())
            .filter(|&e| self.ecols[e].is_some())
            .collect()
    }

    fn vertex_slot(&self, v: usize) -> Result<usize> {
        self.vcols[v]
            .ok_or_else(|| RelGoError::execution(format!("pattern vertex {v} is not bound")))
    }

    fn edge_slot(&self, e: usize) -> Result<usize> {
        self.ecols[e].ok_or_else(|| RelGoError::execution(format!("pattern edge {e} is not bound")))
    }

    /// The edge rows a deferred endpoint of pattern edge `edge` is λ of:
    /// `None` while they are the unread identity.
    fn edge_rows_of(&self, edge: usize) -> Result<Option<&[RowId]>> {
        match &self.cols[self.edge_slot(edge)?] {
            Col::Endpoint { .. } => Err(RelGoError::execution(format!(
                "pattern edge {edge} is bound by an endpoint column"
            ))),
            col => Ok(col.materialized()),
        }
    }

    /// Column `c`, filled first if this is its first read. Morsel workers
    /// share `&GraphChunk`: the cell fills once whoever gets there first.
    fn read(&self, c: usize) -> Result<&[RowId]> {
        match &self.cols[c] {
            Col::Rows(rows) => Ok(rows),
            Col::Identity(rows) => Ok(rows.get_or_init(|| (0..self.len as RowId).collect())),
            Col::Endpoint { edge, lambda, rows } => rows
                .get_or_init(|| lambda.lookup(self.edge_rows_of(*edge)?))
                .as_deref()
                .map_err(Clone::clone),
        }
    }

    /// The binding column of vertex `v`; a deferred endpoint is looked up
    /// here, for this chunk's rows, and its NULL / dangling-key error is
    /// raised here.
    pub fn vertex_col(&self, v: usize) -> Result<&[RowId]> {
        self.read(self.vertex_slot(v)?)
    }

    /// The binding column of edge `e`.
    pub fn edge_col(&self, e: usize) -> Result<&[RowId]> {
        self.read(self.edge_slot(e)?)
    }

    /// Vertex `v`'s binding as an [`UnreadEndpoint`], when that is what it
    /// is — what a filter on `v` needs to run as a semijoin on the key
    /// instead of looking every endpoint up.
    pub fn unread_endpoint(&self, v: usize) -> Result<Option<UnreadEndpoint<'_>>> {
        match &self.cols[self.vertex_slot(v)?] {
            Col::Endpoint { edge, lambda, rows } if rows.get().is_none() => {
                Ok(Some(UnreadEndpoint {
                    lambda: &**lambda,
                    edges: self.edge_rows_of(*edge)?,
                }))
            }
            _ => Ok(None),
        }
    }

    /// The binding of vertex `v` in row `row`.
    pub fn vertex_at(&self, v: usize, row: usize) -> Result<RowId> {
        Ok(self.vertex_col(v)?[row])
    }

    /// The binding of edge `e` in row `row`.
    pub fn edge_at(&self, e: usize, row: usize) -> Result<RowId> {
        Ok(self.edge_col(e)?[row])
    }

    /// Gather rows at `indices` into a new chunk (same bindings).
    pub fn take(&self, indices: &[u32]) -> GraphChunk {
        GraphChunk {
            vcols: self.vcols.clone(),
            ecols: self.ecols.clone(),
            cols: self.cols.iter().map(|c| c.gathered(indices)).collect(),
            len: indices.len(),
        }
    }

    /// Extend this chunk by gathering input rows and appending new binding
    /// columns: the workhorse of `EXPAND`-style operators.
    ///
    /// `gather[i]` is the input row replicated into output row `i`; each
    /// `(element-kind, element, column)` in `new_cols` binds a new element.
    pub fn extend(
        &self,
        gather: &[u32],
        new_vertex: Option<(usize, Vec<RowId>)>,
        new_edges: Vec<(usize, Vec<RowId>)>,
    ) -> Result<GraphChunk> {
        let mut out = self.take(gather);
        if let Some((v, col)) = new_vertex {
            if out.vcols[v].is_some() {
                return Err(RelGoError::execution(format!(
                    "vertex {v} is already bound"
                )));
            }
            if col.len() != out.len {
                return Err(RelGoError::execution("new vertex column length mismatch"));
            }
            out.vcols[v] = Some(out.cols.len());
            out.cols.push(Col::Rows(col));
        }
        for (e, col) in new_edges {
            if out.ecols[e].is_some() {
                return Err(RelGoError::execution(format!("edge {e} is already bound")));
            }
            if col.len() != out.len {
                return Err(RelGoError::execution("new edge column length mismatch"));
            }
            out.ecols[e] = Some(out.cols.len());
            out.cols.push(Col::Rows(col));
        }
        Ok(out)
    }

    /// The join of `left` and `right` on matched row pairs: output row `i`
    /// holds the bindings of `left` row `lidx[i]` and `right` row
    /// `ridx[i]`, gathered one column at a time — vertices then edges, in
    /// pattern order; an element bound on both sides is taken from `left`.
    /// An unread endpoint stays unread when the edge it is λ of comes from
    /// the same side; otherwise it is looked up first.
    pub fn join(
        left: &GraphChunk,
        lidx: &[u32],
        right: &GraphChunk,
        ridx: &[u32],
    ) -> Result<GraphChunk> {
        let mut out = GraphChunk::new(left.vcols.len(), left.ecols.len());
        out.len = lidx.len();
        let mut bind = |l: Option<usize>, r: Option<usize>| -> Result<Option<usize>> {
            let (side, c, idx) = match (l, r) {
                (Some(c), _) => (left, c, lidx),
                (None, Some(c)) => (right, c, ridx),
                (None, None) => return Ok(None),
            };
            // Only `right` can bind an endpoint whose edge `left` supplies.
            if let Col::Endpoint { edge, .. } = &side.cols[c] {
                if l.is_none() && left.ecols[*edge].is_some() {
                    side.read(c)?;
                }
            }
            out.cols.push(side.cols[c].gathered(idx));
            Ok(Some(out.cols.len() - 1))
        };
        let vcols = (0..left.vcols.len())
            .map(|v| bind(left.vcols[v], right.vcols[v]))
            .collect::<Result<_>>()?;
        let ecols = (0..left.ecols.len())
            .map(|e| bind(left.ecols[e], right.ecols[e]))
            .collect::<Result<_>>()?;
        (out.vcols, out.ecols) = (vcols, ecols);
        Ok(out)
    }
}

/// The row-at-a-time join output the executor used to build, kept as the
/// reference the column-wise [`GraphChunk::join`] is tested against.
#[cfg(test)]
impl GraphChunk {
    /// Concatenate the bindings of `left` row `li` and `right` row `ri`
    /// into a joined chunk built by repeated [`GraphChunk::push_joined`];
    /// prepare the output layout first.
    pub(crate) fn join_layout(left: &GraphChunk, right: &GraphChunk) -> GraphChunk {
        let nv = left.vcols.len();
        let ne = left.ecols.len();
        let mut out = GraphChunk::new(nv, ne);
        let mut next = 0usize;
        for v in 0..nv {
            if left.vcols[v].is_some() || right.vcols[v].is_some() {
                out.vcols[v] = Some(next);
                next += 1;
            }
        }
        for e in 0..ne {
            if left.ecols[e].is_some() || right.ecols[e].is_some() {
                out.ecols[e] = Some(next);
                next += 1;
            }
        }
        out.cols = vec![Col::Rows(Vec::new()); next];
        out
    }

    /// Append one joined row (see [`GraphChunk::join_layout`]); bindings
    /// present on both sides are taken from `left`.
    pub(crate) fn push_joined(
        &mut self,
        left: &GraphChunk,
        li: usize,
        right: &GraphChunk,
        ri: usize,
    ) -> Result<()> {
        for v in 0..self.vcols.len() {
            if let Some(c) = self.vcols[v] {
                let val = if left.vcols[v].is_some() {
                    left.vertex_at(v, li)?
                } else {
                    right.vertex_at(v, ri)?
                };
                self.push_cell(c, val);
            }
        }
        for e in 0..self.ecols.len() {
            if let Some(c) = self.ecols[e] {
                let val = if left.ecols[e].is_some() {
                    left.edge_at(e, li)?
                } else {
                    right.edge_at(e, ri)?
                };
                self.push_cell(c, val);
            }
        }
        self.len += 1;
        Ok(())
    }

    fn push_cell(&mut self, c: usize, val: RowId) {
        match &mut self.cols[c] {
            Col::Rows(rows) => rows.push(val),
            col => panic!("a joined row is pushed onto materialized columns, not {col:?}"),
        }
    }

    /// The chunk an edge scan used to build, every endpoint looked up on the
    /// spot: edge `e` bound to `rows`, `src` / `dst` to `srcs` / `dsts`.
    pub(crate) fn from_edge(
        (nv, ne): (usize, usize),
        (e, rows): (usize, Vec<RowId>),
        (src, srcs): (usize, Vec<RowId>),
        (dst, dsts): (usize, Vec<RowId>),
    ) -> GraphChunk {
        let mut c = GraphChunk::from_vertex(nv, ne, src, srcs);
        c.vcols[dst] = Some(1);
        c.ecols[e] = Some(2);
        c.cols.extend([Col::Rows(dsts), Col::Rows(rows)]);
        c
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use relgo_common::select::select;
    use relgo_storage::KeySet;
    use std::ops::Range;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn from_vertex_binds_one_column() {
        let c = GraphChunk::from_vertex(3, 2, 1, vec![10, 20]);
        assert_eq!(c.len(), 2);
        assert!(c.binds_vertex(1));
        assert!(!c.binds_vertex(0));
        assert_eq!(c.vertex_col(1).unwrap(), &[10, 20]);
        assert!(c.vertex_col(0).is_err());
        assert_eq!(c.bound_vertices(), vec![1]);
    }

    #[test]
    fn extend_gathers_and_appends() {
        let c = GraphChunk::from_vertex(2, 1, 0, vec![5, 6]);
        // Expand row 0 twice, row 1 once.
        let out = c
            .extend(
                &[0, 0, 1],
                Some((1, vec![100, 101, 102])),
                vec![(0, vec![7, 8, 9])],
            )
            .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.vertex_col(0).unwrap(), &[5, 5, 6]);
        assert_eq!(out.vertex_col(1).unwrap(), &[100, 101, 102]);
        assert_eq!(out.edge_col(0).unwrap(), &[7, 8, 9]);
    }

    #[test]
    fn extend_rejects_double_binding() {
        let c = GraphChunk::from_vertex(2, 0, 0, vec![1]);
        assert!(c.extend(&[0], Some((0, vec![2])), vec![]).is_err());
    }

    #[test]
    fn take_subsets_rows() {
        let c = GraphChunk::from_vertex(1, 0, 0, vec![1, 2, 3, 4]);
        let t = c.take(&[3, 1]);
        assert_eq!(t.vertex_col(0).unwrap(), &[4, 2]);
    }

    #[test]
    fn join_layout_and_push() {
        let left = GraphChunk::from_vertex(3, 1, 0, vec![1, 2]);
        let left = left
            .extend(&[0, 1], Some((1, vec![10, 20])), vec![(0, vec![100, 200])])
            .unwrap();
        let right = GraphChunk::from_vertex(3, 1, 1, vec![10, 30]);
        let right = right
            .extend(&[0, 1], Some((2, vec![7, 8])), vec![])
            .unwrap();
        let mut out = GraphChunk::join_layout(&left, &right);
        // Join left row 0 (v1 = 10) with right row 0 (v1 = 10).
        out.push_joined(&left, 0, &right, 0).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.vertex_at(0, 0).unwrap(), 1);
        assert_eq!(out.vertex_at(1, 0).unwrap(), 10);
        assert_eq!(out.vertex_at(2, 0).unwrap(), 7);
        assert_eq!(out.edge_at(0, 0).unwrap(), 100);
    }

    /// λ as a table — edge row → vertex row over `vertices` vertex rows —
    /// that counts what it is asked: the double the lookup-count tests share.
    #[derive(Debug)]
    pub(crate) struct TableLambda {
        pub(crate) to: Vec<RowId>,
        pub(crate) vertices: usize,
        pub(crate) lookups: AtomicUsize,
        pub(crate) key_tests: AtomicUsize,
    }

    impl TableLambda {
        pub(crate) fn new(to: Vec<RowId>, vertices: usize) -> Arc<TableLambda> {
            Arc::new(TableLambda {
                to,
                vertices,
                lookups: AtomicUsize::new(0),
                key_tests: AtomicUsize::new(0),
            })
        }
    }

    impl Lambda for TableLambda {
        fn lookup(&self, edges: Option<&[RowId]>) -> Result<Vec<RowId>> {
            let rows: Vec<RowId> = match edges {
                Some(edges) => edges.iter().map(|&e| self.to[e as usize]).collect(),
                None => self.to.clone(),
            };
            self.lookups.fetch_add(rows.len(), Ordering::Relaxed);
            Ok(rows)
        }

        fn key_set(&self, vertices: &[RowId]) -> KeySet {
            KeySet::direct(0, self.vertices, vertices.iter().map(|&v| v as i64))
        }

        fn select(&self, edges: Option<&[RowId]>, range: Range<usize>, set: &KeySet) -> Vec<u32> {
            self.key_tests.fetch_add(range.len(), Ordering::Relaxed);
            let erow = |i: u32| edges.map_or(i, |edges| edges[i as usize]);
            let range = range.start as u32..range.end as u32;
            select(range, |i| set.contains(self.to[erow(i) as usize] as i64))
        }
    }

    /// A fixed linear congruence: `below(n)` draws from `0..n`.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) as usize % n
        }

        fn rows(&mut self, len: usize, below: usize) -> Vec<RowId> {
            (0..len).map(|_| self.below(below) as RowId).collect()
        }
    }

    /// The pattern the property test binds: three edges over five vertices,
    /// `EDGES[e] = (src, dst)`; edges 0 and 1 share their target.
    const EDGES: [(usize, usize); 3] = [(0, 1), (2, 1), (3, 4)];
    const DIMS: (usize, usize) = (5, 3);
    const VERTEX_ROWS: usize = 6;

    /// One scan of pattern edge `e`, twice: with deferred endpoints, and
    /// built eagerly as `from_edge` does. The edge relation has parallel
    /// edges (few vertices), and `predicated` keeps a random subset of it.
    fn scan_pair(e: usize, predicated: bool, rng: &mut Lcg) -> (GraphChunk, GraphChunk) {
        let edge_rows = 1 + rng.below(12);
        let srcs = rng.rows(edge_rows, VERTEX_ROWS);
        let dsts = rng.rows(edge_rows, VERTEX_ROWS);
        let rows: Option<Vec<RowId>> = predicated.then(|| {
            (0..edge_rows as RowId)
                .filter(|_| rng.below(3) > 0)
                .collect()
        });
        let listed: Vec<RowId> = rows.clone().unwrap_or((0..edge_rows as RowId).collect());
        let of = |to: &[RowId]| listed.iter().map(|&r| to[r as usize]).collect();
        let (src, dst) = EDGES[e];
        let eager = GraphChunk::from_edge(
            DIMS,
            (e, listed.clone()),
            (src, of(&srcs)),
            (dst, of(&dsts)),
        );
        let deferred = GraphChunk::from_edge_scan(
            DIMS,
            (e, listed.len(), rows),
            (src, TableLambda::new(srcs, VERTEX_ROWS)),
            (dst, TableLambda::new(dsts, VERTEX_ROWS)),
        )
        .unwrap();
        (deferred, eager)
    }

    fn assert_same_column(got: &GraphChunk, want: &GraphChunk, vertex: bool, i: usize) {
        let col = |c: &GraphChunk| match vertex {
            true => c.vertex_col(i).map(<[RowId]>::to_vec),
            false => c.edge_col(i).map(<[RowId]>::to_vec),
        };
        assert_eq!(col(got), col(want), "vertex {vertex}, element {i}");
    }

    #[test]
    fn deferred_endpoints_equal_eager_ones_through_take_extend_and_join() {
        for seed in 0..400u64 {
            let mut rng = Lcg(seed);
            let (mut got, mut want) = scan_pair(rng.below(3), seed % 2 == 0, &mut rng);
            for _ in 0..rng.below(7) {
                let len = got.len();
                let indices = |rng: &mut Lcg, n: usize| -> Vec<u32> {
                    (0..n).map(|_| rng.below(len.max(1)) as u32).collect()
                };
                match rng.below(4) {
                    0 if len > 0 => {
                        let n = rng.below(len + 3);
                        let idx = indices(&mut rng, n);
                        (got, want) = (got.take(&idx), want.take(&idx));
                    }
                    1 if len > 0 => {
                        let n = rng.below(len + 3);
                        let idx = indices(&mut rng, n);
                        let vertex = (0..DIMS.0)
                            .find(|&v| !got.binds_vertex(v))
                            .map(|v| (v, rng.rows(idx.len(), VERTEX_ROWS)));
                        let mut edges = Vec::new();
                        for e in (0..DIMS.1).filter(|&e| !got.binds_edge(e)) {
                            if rng.below(2) == 0 {
                                edges.push((e, rng.rows(idx.len(), 9)));
                            }
                        }
                        got = got.extend(&idx, vertex.clone(), edges.clone()).unwrap();
                        want = want.extend(&idx, vertex, edges).unwrap();
                    }
                    // Another scan joins in — of any edge, this chunk's own
                    // included, so an edge can be bound on both sides — on
                    // either side, over arbitrary row pairs.
                    2 => {
                        let (other_got, other_want) =
                            scan_pair(rng.below(3), rng.below(2) == 0, &mut rng);
                        let pairs = match (len, other_got.len()) {
                            (0, _) | (_, 0) => 0,
                            _ => rng.below(2 * len + 1),
                        };
                        let mine: Vec<u32> = (0..pairs).map(|_| rng.below(len) as u32).collect();
                        let theirs: Vec<u32> = (0..pairs)
                            .map(|_| rng.below(other_got.len()) as u32)
                            .collect();
                        (got, want) = match rng.below(2) {
                            0 => (
                                GraphChunk::join(&got, &mine, &other_got, &theirs).unwrap(),
                                GraphChunk::join(&want, &mine, &other_want, &theirs).unwrap(),
                            ),
                            _ => (
                                GraphChunk::join(&other_got, &theirs, &got, &mine).unwrap(),
                                GraphChunk::join(&other_want, &theirs, &want, &mine).unwrap(),
                            ),
                        };
                    }
                    // A read between two steps, of one bound column.
                    _ => {
                        let vertices = got.bound_vertices();
                        let v = vertices[rng.below(vertices.len())];
                        assert_same_column(&got, &want, true, v);
                    }
                }
                assert_eq!(got.len(), want.len());
            }
            assert_eq!(got.bound_vertices(), want.bound_vertices());
            assert_eq!(got.bound_edges(), want.bound_edges());
            for v in got.bound_vertices() {
                assert_same_column(&got, &want, true, v);
                // A second read is the first one's cells, not a second lookup.
                let (first, second) = (got.vertex_col(v).unwrap(), got.vertex_col(v).unwrap());
                assert!(std::ptr::eq(first, second));
            }
            for e in got.bound_edges() {
                assert_same_column(&got, &want, false, e);
            }
        }
    }

    #[test]
    fn an_endpoint_whose_edge_the_other_side_supplies_is_looked_up_by_the_join() {
        // `left` binds edge 0 without its endpoints; `right` scans edge 0.
        let left = GraphChunk::from_vertex(5, 3, 4, vec![0, 1])
            .extend(&[0, 1], None, vec![(0, vec![2, 0])])
            .unwrap();
        let (srcs, dsts) = (
            TableLambda::new(vec![5, 4, 3], 6),
            TableLambda::new(vec![0, 1, 2], 6),
        );
        let right = GraphChunk::from_edge_scan(
            DIMS,
            (0, 3, None),
            (0, Arc::clone(&srcs) as Arc<dyn Lambda>),
            (1, Arc::clone(&dsts) as Arc<dyn Lambda>),
        )
        .unwrap();
        // Row pairs that do *not* agree on edge 0: the endpoints must follow
        // `right`'s edge rows, as they do for an eagerly built chunk.
        let out = GraphChunk::join(&left, &[0, 1], &right, &[1, 1]).unwrap();
        assert_eq!(out.edge_col(0).unwrap(), &[2, 0]);
        assert_eq!(out.vertex_col(0).unwrap(), &[4, 4]);
        assert_eq!(out.vertex_col(1).unwrap(), &[1, 1]);
        assert_eq!(srcs.lookups.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn an_unread_endpoint_is_never_looked_up_and_a_read_one_only_for_the_rows_alive() {
        let (srcs, dsts) = (
            TableLambda::new(vec![0, 1, 2, 3, 4, 5, 0, 1], 6),
            TableLambda::new(vec![5, 4, 3, 2, 1, 0, 5, 4], 6),
        );
        let scan = GraphChunk::from_edge_scan(
            DIMS,
            (0, 8, None),
            (0, Arc::clone(&srcs) as Arc<dyn Lambda>),
            (1, Arc::clone(&dsts) as Arc<dyn Lambda>),
        )
        .unwrap();
        let kept = scan.take(&[1, 6, 7]).take(&[2, 0]);
        assert_eq!(kept.vertex_col(0).unwrap(), &[1, 1]);
        assert_eq!(kept.edge_col(0).unwrap(), &[7, 1]);
        assert_eq!(srcs.lookups.load(Ordering::Relaxed), 2);
        assert_eq!(dsts.lookups.load(Ordering::Relaxed), 0);
    }
}
