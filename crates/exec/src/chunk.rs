//! The runtime representation of a graph relation.
//!
//! A [`GraphChunk`] holds the matched bindings of a sub-pattern as
//! struct-of-arrays: one `Vec<RowId>` per bound pattern element. Vertices
//! and edges are identified by the row id in their backing relation (the
//! paper's relation-prefixed element ids — the label is implicit in the
//! pattern element).

use relgo_common::{RelGoError, Result, RowId};

/// A columnar batch of pattern-element bindings.
#[derive(Debug, Clone)]
pub struct GraphChunk {
    /// `vcols[v]` = column index binding pattern vertex `v`.
    vcols: Vec<Option<usize>>,
    /// `ecols[e]` = column index binding pattern edge `e`.
    ecols: Vec<Option<usize>>,
    cols: Vec<Vec<RowId>>,
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
        c.cols.push(rows);
        c
    }

    /// A chunk binding edge `e` to `rows` and its endpoints, pattern
    /// vertices `src` and `dst`, to the matching `srcs` / `dsts`.
    pub fn from_edge(
        (nv, ne): (usize, usize),
        (e, rows): (usize, Vec<RowId>),
        (src, srcs): (usize, Vec<RowId>),
        (dst, dsts): (usize, Vec<RowId>),
    ) -> Result<Self> {
        if src == dst {
            return Err(RelGoError::execution(format!(
                "vertex {dst} is already bound"
            )));
        }
        let mut c = GraphChunk::from_vertex(nv, ne, src, srcs);
        c.vcols[dst] = Some(1);
        c.ecols[e] = Some(2);
        c.cols.extend([dsts, rows]);
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

    /// The binding column of vertex `v`.
    pub fn vertex_col(&self, v: usize) -> Result<&[RowId]> {
        let c = self.vcols[v]
            .ok_or_else(|| RelGoError::execution(format!("pattern vertex {v} is not bound")))?;
        Ok(&self.cols[c])
    }

    /// The binding column of edge `e`.
    pub fn edge_col(&self, e: usize) -> Result<&[RowId]> {
        let c = self.ecols[e]
            .ok_or_else(|| RelGoError::execution(format!("pattern edge {e} is not bound")))?;
        Ok(&self.cols[c])
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
    pub fn take(&self, indices: &[usize]) -> GraphChunk {
        GraphChunk {
            vcols: self.vcols.clone(),
            ecols: self.ecols.clone(),
            cols: self
                .cols
                .iter()
                .map(|c| indices.iter().map(|&i| c[i]).collect())
                .collect(),
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
        gather: &[usize],
        new_vertex: Option<(usize, Vec<RowId>)>,
        new_edges: Vec<(usize, Vec<RowId>)>,
    ) -> Result<GraphChunk> {
        let mut out = GraphChunk {
            vcols: self.vcols.clone(),
            ecols: self.ecols.clone(),
            cols: self
                .cols
                .iter()
                .map(|c| gather.iter().map(|&i| c[i]).collect())
                .collect(),
            len: gather.len(),
        };
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
            out.cols.push(col);
        }
        for (e, col) in new_edges {
            if out.ecols[e].is_some() {
                return Err(RelGoError::execution(format!("edge {e} is already bound")));
            }
            if col.len() != out.len {
                return Err(RelGoError::execution("new edge column length mismatch"));
            }
            out.ecols[e] = Some(out.cols.len());
            out.cols.push(col);
        }
        Ok(out)
    }

    /// The join of `left` and `right` on matched row pairs: output row `i`
    /// holds the bindings of `left` row `lidx[i]` and `right` row
    /// `ridx[i]`, gathered one column at a time — vertices then edges, in
    /// pattern order; an element bound on both sides is taken from `left`.
    pub fn join(left: &GraphChunk, lidx: &[u32], right: &GraphChunk, ridx: &[u32]) -> GraphChunk {
        let mut out = GraphChunk::new(left.vcols.len(), left.ecols.len());
        out.len = lidx.len();
        let gather = |col: &[RowId], idx: &[u32]| idx.iter().map(|&i| col[i as usize]).collect();
        let mut bind = |l: Option<usize>, r: Option<usize>| {
            let col = match (l, r) {
                (Some(c), _) => gather(&left.cols[c], lidx),
                (None, Some(c)) => gather(&right.cols[c], ridx),
                (None, None) => return None,
            };
            out.cols.push(col);
            Some(out.cols.len() - 1)
        };
        out.vcols = (0..left.vcols.len())
            .map(|v| bind(left.vcols[v], right.vcols[v]))
            .collect();
        out.ecols = (0..left.ecols.len())
            .map(|e| bind(left.ecols[e], right.ecols[e]))
            .collect();
        out
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
        out.cols = vec![Vec::new(); next];
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
                self.cols[c].push(val);
            }
        }
        for e in 0..self.ecols.len() {
            if let Some(c) = self.ecols[e] {
                let val = if left.ecols[e].is_some() {
                    left.edge_at(e, li)?
                } else {
                    right.edge_at(e, ri)?
                };
                self.cols[c].push(val);
            }
        }
        self.len += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
