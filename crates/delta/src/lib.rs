//! # relgo-delta
//!
//! Mutable data on top of the immutable storage substrate: append-style
//! delta stores for relational tables (new rows + tombstones over
//! `relgo_storage::column`) that merge into fresh immutable snapshots at
//! commit time.
//!
//! The base tables never change — a [`DeltaSet`] accumulates per-table
//! [`TableDelta`]s (inserted rows and primary-key tombstones) on the writer
//! side, invisible to every reader. [`DeltaSet::apply`] validates the delta
//! and produces a **merged** [`Database`]: changed tables are rebuilt
//! column-wise (surviving base rows in base order, then the inserts — the
//! row-order contract of [`relgo_storage::TableChange`]), while unchanged
//! tables keep sharing their `Arc`s and cached key indexes. The
//! accompanying [`ChangeSummary`] tells downstream consumers (graph index,
//! statistics) which tables changed and how, so they refresh only what the
//! change touched; [`refresh_view`] does that for the property-graph view.
//! Epoch stamping and publication live in the session layer
//! (`relgo::Session::begin_ingest`), which swaps the merged snapshot in
//! atomically so in-flight queries keep reading the old epoch.

use relgo_common::{FxHashMap, FxHashSet, RelGoError, Result, RowId, Value};
use relgo_graph::GraphView;
use relgo_storage::{Database, KeyIndex, Table, TableChange, WriteSet};

pub mod checkpoint;
mod codec;
pub mod wal;

pub use codec::{Fs, Handle, Io, Site};

/// The pending delta against one table: appended rows plus primary-key
/// tombstones. Accumulated row-at-a-time, merged column-wise at commit.
#[derive(Debug, Default, Clone)]
pub struct TableDelta {
    inserts: Vec<Vec<Value>>,
    delete_keys: Vec<i64>,
}

impl TableDelta {
    /// Pending inserted rows.
    pub fn inserts(&self) -> &[Vec<Value>] {
        &self.inserts
    }

    /// Pending tombstones (primary-key values).
    pub fn delete_keys(&self) -> &[i64] {
        &self.delete_keys
    }

    /// Whether the delta is empty.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.delete_keys.is_empty()
    }
}

/// What one applied [`DeltaSet`] did, per table — the input every
/// incremental consumer (graph index refresh, statistics refresh, plan-cache
/// invalidation policy) keys off.
#[derive(Debug, Clone, Default)]
pub struct ChangeSummary {
    changes: FxHashMap<String, TableChange>,
}

impl ChangeSummary {
    /// The change applied to `table`, if it was touched.
    pub fn change(&self, table: &str) -> Option<&TableChange> {
        self.changes.get(table)
    }

    /// Whether `table` was touched.
    pub fn changed(&self, table: &str) -> bool {
        self.changes.contains_key(table)
    }

    /// The per-table change map (graph/statistics refresh input).
    pub fn map(&self) -> &FxHashMap<String, TableChange> {
        &self.changes
    }

    /// Touched table names, sorted (deterministic reporting).
    pub fn tables(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.changes.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Total rows inserted across all tables.
    pub fn inserted_rows(&self) -> usize {
        self.changes.values().map(TableChange::inserted).sum()
    }

    /// Total rows deleted across all tables.
    pub fn deleted_rows(&self) -> usize {
        self.changes.values().map(|c| c.deleted().len()).sum()
    }
}

/// A set of pending per-table deltas: the write side of one ingest batch.
#[derive(Debug, Default, Clone)]
pub struct DeltaSet {
    tables: FxHashMap<String, TableDelta>,
}

impl DeltaSet {
    /// Start an empty delta set.
    pub fn new() -> DeltaSet {
        DeltaSet::default()
    }

    /// Queue one row for appending to `table` (validated at
    /// [`DeltaSet::apply`] against the table's schema and primary key).
    pub fn insert(&mut self, table: &str, row: Vec<Value>) {
        self.tables
            .entry(table.to_string())
            .or_default()
            .inserts
            .push(row);
    }

    /// Queue the deletion of the base row of `table` whose primary key
    /// equals `key` (resolved and validated at [`DeltaSet::apply`]).
    pub fn delete(&mut self, table: &str, key: i64) {
        self.tables
            .entry(table.to_string())
            .or_default()
            .delete_keys
            .push(key);
    }

    /// The non-empty per-table deltas, sorted by table name — the
    /// deterministic iteration order shared by [`DeltaSet::apply`] and the
    /// WAL record codec ([`wal`]).
    pub fn tables_sorted(&self) -> Vec<(&str, &TableDelta)> {
        let mut out: Vec<(&str, &TableDelta)> = self
            .tables
            .iter()
            .filter(|(_, d)| !d.is_empty())
            .map(|(n, d)| (n.as_str(), d))
            .collect();
        out.sort_unstable_by_key(|(n, _)| *n);
        out
    }

    /// The primary-key write-set of this delta against `base`: every key an
    /// insert introduces or a tombstone removes, per table. This is the
    /// commit's conflict footprint — first-committer-wins MVCC validation
    /// intersects it against the write-sets of commits that published after
    /// the batch's base epoch. Tables without a declared primary key
    /// contribute nothing (their inserts cannot conflict on a key); an
    /// insert whose PK column is non-integer/NULL is rejected here with the
    /// same schema error [`DeltaSet::apply`] would raise.
    pub fn write_set(&self, base: &Database) -> Result<WriteSet> {
        let mut ws = WriteSet::new();
        for (name, delta) in self.tables_sorted() {
            let Some(pk) = base.primary_key(name) else {
                continue;
            };
            let pk_col = base.table(name)?.schema().index_of(pk)?;
            for row in &delta.inserts {
                let Some(k) = row.get(pk_col).and_then(Value::as_int) else {
                    return Err(RelGoError::schema(format!(
                        "insert into {name} has a non-integer/NULL primary key"
                    )));
                };
                ws.add(name, k);
            }
            for &k in &delta.delete_keys {
                ws.add(name, k);
            }
        }
        Ok(ws)
    }

    /// Total queued inserts.
    pub fn inserted_rows(&self) -> usize {
        self.tables.values().map(|d| d.inserts.len()).sum()
    }

    /// Total queued deletions.
    pub fn deleted_rows(&self) -> usize {
        self.tables.values().map(|d| d.delete_keys.len()).sum()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.tables.values().all(TableDelta::is_empty)
    }

    /// Validate and apply every pending delta against `base`, producing the
    /// merged database and the per-table change summary.
    ///
    /// Validation per touched table: rows must match the schema (arity and
    /// types), tombstone keys must resolve to existing base rows (and not be
    /// deleted twice), and — when the table declares a primary key — insert
    /// keys must be unique among themselves and against the surviving base
    /// rows. The merge is column-wise: survivors are gathered with
    /// [`relgo_storage::Column::take`], inserts appended after, so the
    /// result is bit-identical to a table built from the merged row stream.
    /// Unchanged tables share their `Arc`s (and cached key indexes) with the
    /// base catalog.
    pub fn apply(&self, base: &Database) -> Result<(Database, ChangeSummary)> {
        let mut merged_tables = Vec::new();
        let mut changes = FxHashMap::default();
        // Deterministic application order (map iteration is not).
        let mut names: Vec<&String> = self.tables.keys().collect();
        names.sort_unstable();
        for name in names {
            let delta = &self.tables[name];
            if delta.is_empty() {
                continue;
            }
            let table = base.table(name)?;
            let (merged, change) = merge_table(table, delta, base.primary_key(name))?;
            merged_tables.push(merged);
            changes.insert(name.clone(), change);
        }
        let mut db = base.clone();
        for t in merged_tables {
            db.replace_table(t)?;
        }
        Ok((db, ChangeSummary { changes }))
    }
}

/// Merge one table's delta: resolve tombstones through the primary key,
/// validate insert keys, and gather the merged columns. A base table that
/// itself violates its declared primary key (NULL, duplicate or non-integer
/// values) is reported as such before the delta is looked at.
fn merge_table(
    base: &Table,
    delta: &TableDelta,
    primary_key: Option<&str>,
) -> Result<(Table, TableChange)> {
    let name = base.name();
    for (i, row) in delta.inserts.iter().enumerate() {
        if row.len() != base.num_columns() {
            return Err(RelGoError::schema(format!(
                "insert {i} into {name} has {} values, schema expects {}",
                row.len(),
                base.num_columns()
            )));
        }
    }

    // Primary-key bookkeeping: resolve tombstones and check insert keys.
    let mut deleted: Vec<RowId> = Vec::with_capacity(delta.delete_keys.len());
    if let Some(pk) = primary_key {
        let pk_col = base.schema().index_of(pk)?;
        // One index over the base answers both questions; only the batch's
        // own keys are hashed, so validation costs what the batch costs
        // beyond the index's two passes over the key column.
        let index = KeyIndex::build(base, pk)?;
        for &key in &delta.delete_keys {
            let Some(row) = index.lookup(key) else {
                return Err(RelGoError::not_found(format!(
                    "{name}.{pk} = {key} (delete target)"
                )));
            };
            deleted.push(row);
        }
        deleted.sort_unstable();
        deleted.dedup();
        // Surviving keys + insert keys must stay unique.
        let survives = |k: i64| {
            index
                .lookup(k)
                .is_some_and(|row| deleted.binary_search(&row).is_err())
        };
        let mut inserted: FxHashSet<i64> = FxHashSet::default();
        inserted.reserve(delta.inserts.len());
        for row in &delta.inserts {
            let Some(k) = row[pk_col].as_int() else {
                return Err(RelGoError::schema(format!(
                    "insert into {name} has a non-integer/NULL primary key"
                )));
            };
            if survives(k) || !inserted.insert(k) {
                return Err(RelGoError::schema(format!(
                    "insert into {name} duplicates primary key {k}"
                )));
            }
        }
    } else if !delta.delete_keys.is_empty() {
        return Err(RelGoError::schema(format!(
            "cannot delete from {name}: no primary key declared"
        )));
    }

    let change = TableChange::new(base.num_rows(), deleted, delta.inserts.len());
    let survivors = change.survivors();
    let mut columns: Vec<_> = (0..base.num_columns())
        .map(|c| base.column(c).take(&survivors))
        .collect();
    for row in &delta.inserts {
        for (col, v) in columns.iter_mut().zip(row) {
            col.push(v.clone())
                .map_err(|e| RelGoError::schema(format!("insert into {name} rejected: {e}")))?;
        }
    }
    // Survivors share the base's string dictionaries and inserts append to
    // them.
    for col in &mut columns {
        col.bound_dictionary();
    }
    let merged = Table::from_columns(name, base.schema().clone(), columns)?;
    Ok((merged, change))
}

/// Incrementally refresh a property-graph view after [`DeltaSet::apply`]:
/// re-binds tables from the merged catalog and updates only the graph-index
/// labels the summary touched (see [`GraphView::rebuild_delta`]); untouched
/// labels keep sharing the previous index's memory.
pub fn refresh_view(
    prev: &GraphView,
    db: &mut Database,
    summary: &ChangeSummary,
) -> Result<GraphView> {
    GraphView::rebuild_delta(prev, db, summary.map())
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgo_common::DataType;
    use relgo_storage::table::table_of;

    fn base_db() -> Database {
        let mut db = Database::new();
        db.add_table(table_of(
            "Person",
            &[("person_id", DataType::Int), ("name", DataType::Str)],
            vec![
                vec![10.into(), "Tom".into()],
                vec![20.into(), "Bob".into()],
                vec![30.into(), "Eve".into()],
            ],
        ));
        db.add_table(table_of(
            "Knows",
            &[
                ("id", DataType::Int),
                ("p1", DataType::Int),
                ("p2", DataType::Int),
            ],
            vec![vec![0.into(), 10.into(), 20.into()]],
        ));
        db.set_primary_key("Person", "person_id").unwrap();
        db.set_primary_key("Knows", "id").unwrap();
        db
    }

    #[test]
    fn apply_merges_inserts_and_tombstones() {
        let db = base_db();
        let mut d = DeltaSet::new();
        d.insert("Person", vec![40.into(), "Ada".into()]);
        d.delete("Person", 20);
        d.insert("Knows", vec![1.into(), 30.into(), 10.into()]);
        assert_eq!((d.inserted_rows(), d.deleted_rows()), (2, 1));
        let (merged, summary) = d.apply(&db).unwrap();
        let person = merged.table("Person").unwrap();
        assert_eq!(person.num_rows(), 3);
        assert_eq!(person.row(0), vec![10.into(), "Tom".into()]);
        assert_eq!(person.row(1), vec![30.into(), "Eve".into()]);
        assert_eq!(person.row(2), vec![40.into(), "Ada".into()]);
        assert_eq!(merged.table("Knows").unwrap().num_rows(), 2);
        // Summary reflects both tables.
        assert_eq!(summary.tables(), vec!["Knows", "Person"]);
        assert_eq!(summary.inserted_rows(), 2);
        assert_eq!(summary.deleted_rows(), 1);
        let pc = summary.change("Person").unwrap();
        assert_eq!(pc.deleted(), &[1]);
        // Eve, base row 2, is merged row 1.
        assert_eq!(pc.survivors()[1], 2);
    }

    #[test]
    fn unchanged_tables_share_arcs() {
        let db = base_db();
        let mut d = DeltaSet::new();
        d.insert("Knows", vec![1.into(), 20.into(), 30.into()]);
        let (merged, summary) = d.apply(&db).unwrap();
        assert!(std::sync::Arc::ptr_eq(
            db.table("Person").unwrap(),
            merged.table("Person").unwrap()
        ));
        assert!(!summary.changed("Person"));
        assert!(summary.changed("Knows"));
    }

    #[test]
    fn validation_rejects_bad_deltas() {
        let db = base_db();
        // Arity mismatch.
        let mut d = DeltaSet::new();
        d.insert("Person", vec![40.into()]);
        assert!(d.apply(&db).is_err());
        // Type mismatch.
        let mut d = DeltaSet::new();
        d.insert("Person", vec!["oops".into(), "Ada".into()]);
        assert!(d.apply(&db).is_err());
        let message = |d: &DeltaSet| d.apply(&db).unwrap_err().to_string();
        // Duplicate primary key against a surviving base row.
        let mut d = DeltaSet::new();
        d.insert("Person", vec![10.into(), "Dup".into()]);
        assert!(message(&d).ends_with("insert into Person duplicates primary key 10"));
        // …but re-using a tombstoned key is fine.
        let mut d = DeltaSet::new();
        d.delete("Person", 10);
        d.insert("Person", vec![10.into(), "Reborn".into()]);
        let (merged, _) = d.apply(&db).unwrap();
        assert_eq!(merged.table("Person").unwrap().num_rows(), 3);
        // Duplicate key between two inserts.
        let mut d = DeltaSet::new();
        d.insert("Person", vec![50.into(), "A".into()]);
        d.insert("Person", vec![50.into(), "B".into()]);
        assert!(message(&d).ends_with("insert into Person duplicates primary key 50"));
        // A NULL key, reported before the duplicate that follows it.
        let mut d = DeltaSet::new();
        d.insert("Person", vec![Value::Null, "A".into()]);
        d.insert("Person", vec![10.into(), "Dup".into()]);
        assert!(message(&d).ends_with("insert into Person has a non-integer/NULL primary key"));
        // Deleting a missing key; deleting the same key twice is one delete.
        let mut d = DeltaSet::new();
        d.delete("Person", 99);
        assert!(message(&d).ends_with("Person.person_id = 99 (delete target)"));
        let mut d = DeltaSet::new();
        d.delete("Person", 20);
        d.delete("Person", 20);
        let (merged, _) = d.apply(&db).unwrap();
        assert_eq!(merged.table("Person").unwrap().num_rows(), 2);
        // Unknown table.
        let mut d = DeltaSet::new();
        d.insert("Nope", vec![1.into()]);
        assert!(d.apply(&db).is_err());
    }

    #[test]
    fn merged_equals_rebuild_from_scratch() {
        let db = base_db();
        let mut d = DeltaSet::new();
        d.delete("Person", 10);
        d.insert("Person", vec![45.into(), "Gil".into()]);
        d.insert("Person", vec![41.into(), "Hal".into()]);
        let (merged, _) = d.apply(&db).unwrap();
        let expected = table_of(
            "Person",
            &[("person_id", DataType::Int), ("name", DataType::Str)],
            vec![
                vec![20.into(), "Bob".into()],
                vec![30.into(), "Eve".into()],
                vec![45.into(), "Gil".into()],
                vec![41.into(), "Hal".into()],
            ],
        );
        let got = merged.table("Person").unwrap();
        assert_eq!(got.num_rows(), expected.num_rows());
        for r in 0..expected.num_rows() as RowId {
            assert_eq!(got.row(r), expected.row(r));
        }
    }

    #[test]
    fn delete_and_reinsert_keeps_dictionaries_bounded() {
        let rows = 600;
        let cell = |k: i64| Value::str(format!("s{}", k % 3));
        let mut db = Database::new();
        let t = (0..rows).map(|k| vec![Value::Int(k), cell(k)]).collect();
        db.add_table(table_of(
            "T",
            &[("id", DataType::Int), ("s", DataType::Str)],
            t,
        ));
        db.set_primary_key("T", "id").unwrap();
        let mut largest = 0;
        for round in 0..50 {
            let mut d = DeltaSet::new();
            for k in (0..rows).step_by(2) {
                d.delete("T", k);
                d.insert("T", vec![Value::Int(k), Value::str(format!("r{round}"))]);
            }
            db = d.apply(&db).unwrap().0;
            let t = db.table("T").unwrap();
            let entries = t.column(1).as_strs().unwrap().0.dict().len();
            assert!(
                entries <= 2 * t.num_rows() + 1024,
                "round {round}: {entries}"
            );
            largest = largest.max(entries);
        }
        // Each round appends 300 entries: the bound was reached and held.
        assert!(largest > 2 * rows as usize, "{largest}");
        let t = db.table("T").unwrap();
        assert_eq!(t.num_rows(), rows as usize);
        for r in 0..t.num_rows() as RowId {
            let k = t.column(0).get_int(r).unwrap();
            let want = if k % 2 == 0 {
                Value::str("r49")
            } else {
                cell(k)
            };
            assert_eq!(t.value(r, 1), want);
        }
    }

    #[test]
    fn empty_delta_is_a_noop_summary() {
        let db = base_db();
        let d = DeltaSet::new();
        assert!(d.is_empty());
        let (merged, summary) = d.apply(&db).unwrap();
        assert!(summary.tables().is_empty());
        assert_eq!(summary.inserted_rows() + summary.deleted_rows(), 0);
        assert!(std::sync::Arc::ptr_eq(
            db.table("Person").unwrap(),
            merged.table("Person").unwrap()
        ));
    }
}
