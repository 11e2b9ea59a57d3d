//! The graph view: a property-graph lens over relational tables.
//!
//! A [`GraphView`] owns no graph data; it resolves the RGMapping against a
//! [`Database`] into label→table bindings, key indexes for the λˢ/λᵗ total
//! functions, and (on demand) the GRainDB-style [`GraphIndex`].

use crate::index::{Direction, GraphIndex};
use crate::lambda::{EvEnd, KeyEnd, Lambda, UNRESOLVED};
use crate::mapping::RGMapping;
use crate::schema::GraphSchema;
use crate::stats::GraphStats;
use relgo_common::{FxHashMap, LabelId, RelGoError, Result, RowId};
use relgo_storage::{Database, KeyIndex, Table, TableChange};
use std::sync::Arc;

/// A resolved, queryable property-graph view over relations.
#[derive(Debug, Clone)]
pub struct GraphView {
    schema: GraphSchema,
    mapping: RGMapping,
    vertex_tables: Vec<Arc<Table>>,
    edge_tables: Vec<Arc<Table>>,
    /// Column index of the source / target foreign key in each edge table.
    edge_src_col: Vec<usize>,
    edge_dst_col: Vec<usize>,
    /// Column index of each vertex table's primary key.
    vertex_pk_col: Vec<usize>,
    /// Unique key index over each vertex table's primary key — the runtime
    /// realization of the λ total functions when no graph index exists.
    vertex_pk_index: Vec<Arc<KeyIndex>>,
    /// GRainDB-style graph index (EV + VE); built on demand.
    index: Option<Arc<GraphIndex>>,
}

impl GraphView {
    /// Resolve `mapping` against `db`. Validates the mapping, binds tables,
    /// and builds the vertex primary-key indexes. Does **not** build the
    /// graph index — call [`GraphView::build_index`] for that.
    pub fn build(db: &mut Database, mapping: RGMapping) -> Result<Self> {
        mapping.validate(db)?;
        let schema = GraphSchema::from_mapping(&mapping)?;

        let mut vertex_tables = Vec::with_capacity(mapping.vertices().len());
        let mut vertex_pk_col = Vec::with_capacity(mapping.vertices().len());
        let mut vertex_pk_index = Vec::with_capacity(mapping.vertices().len());
        for v in mapping.vertices() {
            let table = Arc::clone(db.table(&v.table)?);
            let pk = db
                .primary_key(&v.table)
                .ok_or_else(|| RelGoError::schema(format!("no primary key on {}", v.table)))?
                .to_string();
            vertex_pk_col.push(table.schema().index_of(&pk)?);
            vertex_pk_index.push(db.key_index(&v.table, &pk)?);
            vertex_tables.push(table);
        }

        let mut edge_tables = Vec::with_capacity(mapping.edges().len());
        let mut edge_src_col = Vec::with_capacity(mapping.edges().len());
        let mut edge_dst_col = Vec::with_capacity(mapping.edges().len());
        for e in mapping.edges() {
            let table = Arc::clone(db.table(&e.table)?);
            edge_src_col.push(table.schema().index_of(&e.src_key)?);
            edge_dst_col.push(table.schema().index_of(&e.dst_key)?);
            edge_tables.push(table);
        }

        Ok(GraphView {
            schema,
            mapping,
            vertex_tables,
            edge_tables,
            edge_src_col,
            edge_dst_col,
            vertex_pk_col,
            vertex_pk_index,
            index: None,
        })
    }

    /// Build (or rebuild) the GRainDB-style graph index over this view:
    /// prove λ total on every edge row (an error names the first NULL or
    /// dangling key, as [`GraphView::resolve_endpoints`] would). Its
    /// structures are built when a query first reads them.
    pub fn build_index(&mut self) -> Result<()> {
        let index = GraphIndex::build(self)?;
        self.index = Some(Arc::new(index));
        Ok(())
    }

    /// Incrementally rebuild a view over the merged catalog produced by a
    /// committed delta (`relgo-delta`): tables are re-bound from `db`,
    /// primary-key indexes of changed vertex tables are rebuilt (unchanged
    /// ones keep their cached `Arc`s), and the graph index — when `prev`
    /// has one — is refreshed label-by-label through
    /// [`GraphIndex::rebuild_delta`], sharing every untouched label with
    /// the previous epoch's index.
    pub fn rebuild_delta(
        prev: &GraphView,
        db: &mut Database,
        changes: &FxHashMap<String, TableChange>,
    ) -> Result<GraphView> {
        let mapping = prev.mapping.clone();
        let mut view = GraphView::build(db, mapping)?;
        if let Some(prev_index) = prev.index() {
            let index = GraphIndex::rebuild_delta(prev_index, &view, changes)?;
            view.index = Some(Arc::new(index));
        }
        Ok(view)
    }

    /// Per-label changed flags for a committed delta: a vertex label is
    /// changed when its backing table is; an edge label when its table *or
    /// either endpoint table* is (endpoint row counts feed its degree
    /// statistics, and endpoint deletions shift its row ids). The flags
    /// drive GLogue cache retention: a cached pattern count survives a
    /// commit exactly when none of its labels is flagged.
    pub fn changed_label_flags(
        &self,
        changes: &FxHashMap<String, TableChange>,
    ) -> (Vec<bool>, Vec<bool>) {
        let nv = self.schema.vertex_label_count();
        let ne = self.schema.edge_label_count();
        let changed_v: Vec<bool> = (0..nv as u16)
            .map(|l| changes.contains_key(self.vertex_tables[l as usize].name()))
            .collect();
        let changed_e: Vec<bool> = (0..ne as u16)
            .map(|l| {
                let el = LabelId(l);
                let (src, dst) = self.schema.edge_endpoints(el);
                changes.contains_key(self.edge_tables[l as usize].name())
                    || changed_v[src.0 as usize]
                    || changed_v[dst.0 as usize]
            })
            .collect();
        (changed_v, changed_e)
    }

    /// The graph index, if built.
    pub fn index(&self) -> Option<&Arc<GraphIndex>> {
        self.index.as_ref()
    }

    /// The graph schema.
    pub fn schema(&self) -> &GraphSchema {
        &self.schema
    }

    /// The originating mapping.
    pub fn mapping(&self) -> &RGMapping {
        &self.mapping
    }

    /// Vertex table backing label `l`.
    pub fn vertex_table(&self, l: LabelId) -> &Arc<Table> {
        &self.vertex_tables[l.0 as usize]
    }

    /// Edge table backing label `l`.
    pub fn edge_table(&self, l: LabelId) -> &Arc<Table> {
        &self.edge_tables[l.0 as usize]
    }

    /// Number of vertices with label `l`.
    pub fn vertex_count(&self, l: LabelId) -> usize {
        self.vertex_tables[l.0 as usize].num_rows()
    }

    /// Number of edges with label `l`.
    pub fn edge_count(&self, l: LabelId) -> usize {
        self.edge_tables[l.0 as usize].num_rows()
    }

    /// Primary-key column index of vertex label `l`.
    pub fn vertex_pk_col(&self, l: LabelId) -> usize {
        self.vertex_pk_col[l.0 as usize]
    }

    /// The unique index over the primary key of vertex label `l`: key
    /// value → row of [`GraphView::vertex_table`], as of this view's epoch.
    pub fn vertex_pk_index(&self, l: LabelId) -> &KeyIndex {
        &self.vertex_pk_index[l.0 as usize]
    }

    /// Source FK column index of edge label `l`.
    pub fn edge_src_col(&self, l: LabelId) -> usize {
        self.edge_src_col[l.0 as usize]
    }

    /// Target FK column index of edge label `l`.
    pub fn edge_dst_col(&self, l: LabelId) -> usize {
        self.edge_dst_col[l.0 as usize]
    }

    /// λ of one end of edge label `el` through the vertex primary-key index
    /// — [`Direction::In`] is the source end (λˢ), [`Direction::Out`] the
    /// target end (λᵗ), the vertex an edge is left by or reaches.
    pub(crate) fn key_end(&self, el: LabelId, dir: Direction) -> KeyEnd {
        let li = el.0 as usize;
        let label = self.end_label(el, dir).0 as usize;
        KeyEnd {
            edges: Arc::clone(&self.edge_tables[li]),
            fk: match dir {
                Direction::In => self.edge_src_col[li],
                Direction::Out => self.edge_dst_col[li],
            },
            vertices: Arc::clone(&self.vertex_tables[label]),
            pk: self.vertex_pk_col[label],
            index: Arc::clone(&self.vertex_pk_index[label]),
            label: self.schema.edge_label_name(el).to_string(),
            dir,
        }
    }

    /// The vertex label at the `dir` end of edge label `el`.
    fn end_label(&self, el: LabelId, dir: Direction) -> LabelId {
        let (src, dst) = self.schema.edge_endpoints(el);
        match dir {
            Direction::In => src,
            Direction::Out => dst,
        }
    }

    /// λ of one end of edge label `el` as a value an operator can keep and
    /// resolve later, on the edge rows that are still of interest then:
    /// [`Direction::In`] is λˢ, [`Direction::Out`] λᵗ. `indexed` reads the
    /// graph index's EV array (an error when none is built), otherwise the
    /// foreign key goes through the vertex primary-key index.
    pub fn edge_end(&self, el: LabelId, dir: Direction, indexed: bool) -> Result<Arc<dyn Lambda>> {
        if !indexed {
            return Ok(Arc::new(self.key_end(el, dir)));
        }
        let index = self
            .index()
            .ok_or_else(|| RelGoError::execution("graph index required but not built"))?;
        Ok(Arc::new(EvEnd {
            ev: Arc::clone(index.ev(el)),
            dir,
            vertices: self.vertex_count(self.end_label(el, dir)),
        }))
    }

    /// λˢ and λᵗ over a whole slice of edge rows of label `el` (every row
    /// when `rows` is `None`): the source and target vertex rows, through
    /// the vertex primary-key indexes — what the graph index is built from.
    /// A query reads endpoints through [`GraphView::edge_end`] instead. A
    /// NULL or dangling key is reported after both columns are resolved, for
    /// the first edge row that has one (its source before its target).
    pub fn resolve_endpoints(
        &self,
        el: LabelId,
        rows: Option<&[RowId]>,
    ) -> Result<(Vec<RowId>, Vec<RowId>)> {
        let (src, dst) = (
            self.key_end(el, Direction::In),
            self.key_end(el, Direction::Out),
        );
        let (srcs, dsts) = (src.raw(rows), dst.raw(rows));
        if let Some(i) = (0..srcs.len()).find(|&i| srcs[i] == UNRESOLVED || dsts[i] == UNRESOLVED) {
            let erow = rows.map_or(i as RowId, |rows| rows[i]);
            return Err(match srcs[i] {
                UNRESOLVED => src.error_at(erow),
                _ => dst.error_at(erow),
            });
        }
        Ok((srcs, dsts))
    }

    /// Compute label-level statistics (cardinalities, average degrees).
    pub fn stats(&self) -> GraphStats {
        GraphStats::compute(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig2;
    use relgo_common::Value;

    #[test]
    fn build_resolves_tables_and_counts() {
        let mut db = fig2::database();
        let g = GraphView::build(&mut db, fig2::mapping()).unwrap();
        let person = g.schema().vertex_label_id("Person").unwrap();
        let message = g.schema().vertex_label_id("Message").unwrap();
        let likes = g.schema().edge_label_id("Likes").unwrap();
        assert_eq!(g.vertex_count(person), 3);
        assert_eq!(g.vertex_count(message), 2);
        assert_eq!(g.edge_count(likes), 4);
    }

    #[test]
    fn lambda_functions_resolve_rows() {
        let mut db = fig2::database();
        let g = GraphView::build(&mut db, fig2::mapping()).unwrap();
        let likes = g.schema().edge_label_id("Likes").unwrap();
        // Edge l2 = row 1: Bob (person row 1) likes m1 (message row 0).
        assert_eq!(
            g.resolve_endpoints(likes, Some(&[1])).unwrap(),
            (vec![1], vec![0])
        );
        let knows = g.schema().edge_label_id("Knows").unwrap();
        // Edge k4 = row 3: David (row 2) knows Bob (row 1); the whole
        // column resolves in row order.
        assert_eq!(
            g.resolve_endpoints(knows, Some(&[3])).unwrap(),
            (vec![2], vec![1])
        );
        assert_eq!(
            g.resolve_endpoints(knows, None).unwrap(),
            (vec![0, 1, 1, 2], vec![1, 0, 2, 1])
        );
    }

    #[test]
    fn dangling_key_is_an_error() {
        let (mut db, m) =
            fig2::with_bad_edges(vec![[1.into(), 100.into()], [99.into(), 100.into()]]);
        let g = GraphView::build(&mut db, m).unwrap();
        let bad = g.schema().edge_label_id("Bad").unwrap();
        assert!(g.resolve_endpoints(bad, Some(&[0])).is_ok());
        let err = g.resolve_endpoints(bad, None).unwrap_err().to_string();
        assert!(
            err.contains("λs: dangling source key 99 in edge Bad@1 (λ must be total)"),
            "{err}"
        );
    }

    /// Building the index proves λ total: the first edge row with a NULL or
    /// dangling key fails it with the text [`GraphView::resolve_endpoints`]
    /// gives, the source reported before the target of one row.
    #[test]
    fn build_index_fails_on_the_first_partial_row() {
        let cases: [(Vec<[Value; 2]>, &str); 4] = [
            (
                vec![[1.into(), 100.into()], [99.into(), 100.into()]],
                "λs: dangling source key 99 in edge Bad@1 (λ must be total)",
            ),
            (
                vec![[1.into(), 100.into()], [2.into(), Value::Null]],
                "λt: NULL target key in edge Bad@1",
            ),
            (
                vec![[1.into(), 100.into()], [99.into(), Value::Null]],
                "λs: dangling source key 99 in edge Bad@1 (λ must be total)",
            ),
            (
                vec![[1.into(), Value::Null], [99.into(), 100.into()]],
                "λt: NULL target key in edge Bad@0",
            ),
        ];
        for (keys, want) in cases {
            let (mut db, m) = fig2::with_bad_edges(keys);
            let mut g = GraphView::build(&mut db, m).unwrap();
            let bad = g.schema().edge_label_id("Bad").unwrap();
            let resolved = g.resolve_endpoints(bad, None).unwrap_err().to_string();
            assert_eq!(resolved, format!("execution error: {want}"));
            let built = g.build_index().unwrap_err().to_string();
            assert_eq!(built, resolved);
            assert!(g.index().is_none());
        }
    }

    #[test]
    fn index_is_lazy() {
        let mut db = fig2::database();
        let mut g = GraphView::build(&mut db, fig2::mapping()).unwrap();
        assert!(g.index().is_none());
        g.build_index().unwrap();
        assert!(g.index().is_some());
    }
}
