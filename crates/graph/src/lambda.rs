//! λ as a value: one end of one edge label, detached from the view's borrow.
//!
//! An operator that binds an edge need not resolve its endpoints there and
//! then. It hands the binding a [`Lambda`] — λˢ or λᵗ of the edge's label as
//! of the view's epoch — and whoever first reads the endpoint looks it up,
//! for the edge rows alive at that point. Two sources realize it, the two the
//! executor's regimes already distinguish: the edge relation's foreign-key
//! column through the vertex relation's [`KeyIndex`] (no graph index), and
//! the EV array of a [`GraphIndex`](crate::GraphIndex).

use crate::index::{Direction, EvIndex};
use relgo_common::select::select;
use relgo_common::{RelGoError, Result, RowId};
use relgo_storage::{KeyIndex, KeySet, Table};
use std::fmt::Debug;
use std::ops::Range;
use std::sync::Arc;

/// λˢ or λᵗ of one edge label: edge row → endpoint vertex row. Edge rows are
/// passed as a slice, or as `None` for every row of the edge relation in row
/// order (an unpredicated scan never lists them).
pub trait Lambda: Debug + Send + Sync {
    /// The endpoint of each of `edges`. Fails on the first edge row whose key
    /// is NULL or dangling — λ must be total on the rows it is asked about.
    fn lookup(&self, edges: Option<&[RowId]>) -> Result<Vec<RowId>>;

    /// The vertex rows `vertices` as a set in the space [`Lambda::select`]
    /// tests edge rows in, without looking any endpoint up.
    fn key_set(&self, vertices: &[RowId]) -> KeySet;

    /// The ascending positions in `range` of `edges` whose endpoint is in
    /// `set` (a [`Lambda::key_set`] of this λ): the semijoin of the edge
    /// rows with a set of vertices, on the key. An edge row whose key is NULL
    /// or dangling has no endpoint and is in no set.
    fn select(&self, edges: Option<&[RowId]>, range: Range<usize>, set: &KeySet) -> Vec<u32>;
}

/// The positions in `range` of `edges` whose edge row `pass`es, one
/// branch-free loop per form of `edges`.
fn positions(
    edges: Option<&[RowId]>,
    range: Range<usize>,
    pass: impl Fn(usize) -> bool,
) -> Vec<u32> {
    let range = range.start as u32..range.end as u32;
    match edges {
        Some(rows) => select(range, |i| pass(rows[i as usize] as usize)),
        None => select(range, |erow| pass(erow as usize)),
    }
}

/// Never a row id: tables hold fewer than `u32::MAX` rows.
pub(crate) const UNRESOLVED: RowId = RowId::MAX;

/// λ through keys: `edges.fk → vertices.pk`, resolved by `index`.
#[derive(Debug)]
pub(crate) struct KeyEnd {
    pub(crate) edges: Arc<Table>,
    pub(crate) fk: usize,
    pub(crate) vertices: Arc<Table>,
    pub(crate) pk: usize,
    pub(crate) index: Arc<KeyIndex>,
    /// The edge label's name and which end this is, for the error text.
    pub(crate) label: String,
    pub(crate) dir: Direction,
}

impl KeyEnd {
    /// [`Lambda::lookup`] with [`UNRESOLVED`] where λ is undefined: the key
    /// column is resolved in one loop with one dispatch on its type.
    pub(crate) fn raw(&self, edges: Option<&[RowId]>) -> Vec<RowId> {
        let n = edges.map_or(self.edges.num_rows(), <[RowId]>::len);
        let Some(resolve) = self.resolver() else {
            return vec![UNRESOLVED; n];
        };
        match edges {
            Some(rows) => rows.iter().map(|&erow| resolve(erow)).collect(),
            None => (0..n as RowId).map(resolve).collect(),
        }
    }

    /// The first edge row whose key [`KeyEnd::raw`] cannot resolve, found
    /// in one pass that allocates nothing: proving λ total on every row.
    pub(crate) fn first_unresolved(&self) -> Option<RowId> {
        let n = self.edges.num_rows() as RowId;
        match self.resolver() {
            Some(resolve) => (0..n).find(|&erow| resolve(erow) == UNRESOLVED),
            None => (n > 0).then_some(0),
        }
    }

    /// Edge row → endpoint row, [`UNRESOLVED`] where the key is NULL or
    /// dangling; `None` when the key column holds no integers at all.
    fn resolver(&self) -> Option<impl Fn(RowId) -> RowId + '_> {
        let (keys, valid) = self.edges.column(self.fk).as_ints()?;
        Some(move |erow: RowId| match valid {
            Some(valid) if !valid[erow as usize] => UNRESOLVED,
            _ => self.index.lookup(keys[erow as usize]).unwrap_or(UNRESOLVED),
        })
    }

    /// What is wrong with edge row `erow`, whose key [`KeyEnd::raw`] could
    /// not resolve.
    pub(crate) fn error_at(&self, erow: RowId) -> RelGoError {
        let (lambda, end) = match self.dir {
            Direction::In => ("λs", "source"),
            Direction::Out => ("λt", "target"),
        };
        let name = &self.label;
        RelGoError::execution(match self.edges.column(self.fk).get_int(erow) {
            None => format!("{lambda}: NULL {end} key in edge {name}@{erow}"),
            Some(key) => format!(
                "{lambda}: dangling {end} key {key} in edge {name}@{erow} (λ must be total)"
            ),
        })
    }
}

impl Lambda for KeyEnd {
    fn lookup(&self, edges: Option<&[RowId]>) -> Result<Vec<RowId>> {
        let rows = self.raw(edges);
        match rows.iter().position(|&r| r == UNRESOLVED) {
            None => Ok(rows),
            Some(i) => Err(self.error_at(edges.map_or(i as RowId, |edges| edges[i]))),
        }
    }

    fn key_set(&self, vertices: &[RowId]) -> KeySet {
        let pks = self.vertices.column(self.pk);
        self.index
            .key_set(vertices.iter().filter_map(|&v| pks.get_int(v)))
    }

    fn select(&self, edges: Option<&[RowId]>, range: Range<usize>, set: &KeySet) -> Vec<u32> {
        match self.edges.column(self.fk).as_ints() {
            Some((keys, None)) => positions(edges, range, |erow| set.contains(keys[erow])),
            // A NULL cell holds a placeholder key: the mask is ANDed in.
            Some((keys, Some(valid))) => {
                positions(edges, range, |erow| valid[erow] & set.contains(keys[erow]))
            }
            None => Vec::new(),
        }
    }
}

/// λ through a graph index: the EV array of the label. Its key space is the
/// vertex row id itself, which the index has proven total.
#[derive(Debug)]
pub(crate) struct EvEnd {
    pub(crate) ev: Arc<EvIndex>,
    pub(crate) dir: Direction,
    /// Rows of the endpoint's vertex relation.
    pub(crate) vertices: usize,
}

impl EvEnd {
    fn rids(&self) -> &[RowId] {
        match self.dir {
            Direction::In => &self.ev.src_rid,
            Direction::Out => &self.ev.dst_rid,
        }
    }
}

impl Lambda for EvEnd {
    fn lookup(&self, edges: Option<&[RowId]>) -> Result<Vec<RowId>> {
        let rids = self.rids();
        Ok(match edges {
            Some(rows) => rows.iter().map(|&erow| rids[erow as usize]).collect(),
            None => rids.to_vec(),
        })
    }

    fn key_set(&self, vertices: &[RowId]) -> KeySet {
        KeySet::direct(0, self.vertices, vertices.iter().map(|&v| v as i64))
    }

    fn select(&self, edges: Option<&[RowId]>, range: Range<usize>, set: &KeySet) -> Vec<u32> {
        let rids = self.rids();
        positions(edges, range, |erow| set.contains(rids[erow] as i64))
    }
}
