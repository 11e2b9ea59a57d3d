//! The database catalog: tables plus key metadata.
//!
//! The paper's `RGMapping` derives its λ total functions from primary-/
//! foreign-key relationships ("often established through primary-foreign key
//! relationships, as illustrated in an ER diagram", §2.1) — so the catalog
//! records, for every table, an optional integer primary key and any number
//! of [`ForeignKey`]s. [`KeyIndex`] resolves key values into row ids in O(1),
//! which is exactly the machinery the graph-index builder needs.

use crate::directory::{Directory, KeySet};
use crate::table::Table;
use relgo_common::{FxHashMap, RelGoError, Result, RowId};
use std::sync::Arc;

/// A foreign-key declaration: `table.column REFERENCES ref_table.ref_column`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing table.
    pub table: String,
    /// Referencing column.
    pub column: String,
    /// Referenced table.
    pub ref_table: String,
    /// Referenced column (must be that table's primary key).
    pub ref_column: String,
}

/// Unique index: key value (`i64`) → row id, over the directory that
/// [`JoinTable`](crate::ops::JoinTable) shares: direct-addressed when the
/// keys are dense in their range — a property of the data — and hashed
/// otherwise.
#[derive(Debug, Clone)]
pub struct KeyIndex {
    keys: Directory,
    len: usize,
}

impl KeyIndex {
    /// Build a unique index over `column` of `table`.
    ///
    /// Fails if the column is not integer-typed or contains duplicates /
    /// NULLs (a primary key must be total and unique).
    pub fn build(table: &Table, column: &str) -> Result<Self> {
        let col = table.column_by_name(column)?;
        let len = table.num_rows();
        // Shaped for whatever integers are there; NULLs and duplicates are
        // reported by the pass below, in row order.
        let mut keys = Directory::for_keys((0..len as RowId).filter_map(|r| col.get_int(r)));
        for r in 0..len as RowId {
            let Some(k) = col.get_int(r) else {
                return Err(RelGoError::schema(format!(
                    "primary key {}.{} contains NULL or non-integer at row {r}",
                    table.name(),
                    column
                )));
            };
            // An earlier row holds the slot: every earlier row id is smaller.
            if keys.get_or_insert(k, r) != r {
                return Err(RelGoError::schema(format!(
                    "primary key {}.{} has duplicate value {k}",
                    table.name(),
                    column
                )));
            }
        }
        Ok(KeyIndex { keys, len })
    }

    /// Resolve a key value to its row id.
    #[inline]
    pub fn lookup(&self, key: i64) -> Option<RowId> {
        self.keys.get(key)
    }

    /// `keys`, each a key of this index, as a set answering "is this key
    /// one of them" for any `i64` — the probe side of a semijoin on the key.
    pub fn key_set(&self, keys: impl Iterator<Item = i64>) -> KeySet {
        self.keys.key_set(keys)
    }

    /// Number of indexed keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// An in-memory database: named tables + key metadata + lazily built key
/// indexes.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: Vec<Arc<Table>>,
    by_name: FxHashMap<String, usize>,
    primary_keys: FxHashMap<String, String>,
    foreign_keys: Vec<ForeignKey>,
    key_indexes: FxHashMap<(String, String), Arc<KeyIndex>>,
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Register a table. Replaces any previous table of the same name.
    pub fn add_table(&mut self, table: Table) -> Arc<Table> {
        let name = table.name().to_string();
        let arc = Arc::new(table);
        match self.by_name.get(&name) {
            Some(&i) => self.tables[i] = Arc::clone(&arc),
            None => {
                self.by_name.insert(name, self.tables.len());
                self.tables.push(Arc::clone(&arc));
            }
        }
        arc
    }

    /// Declare `table.column` as the primary key (column must exist).
    pub fn set_primary_key(&mut self, table: &str, column: &str) -> Result<()> {
        let t = self.table(table)?;
        t.schema().index_of(column)?;
        self.primary_keys
            .insert(table.to_string(), column.to_string());
        Ok(())
    }

    /// Declare a foreign key; both sides must exist and the referenced
    /// column must be the referenced table's primary key.
    pub fn add_foreign_key(
        &mut self,
        table: &str,
        column: &str,
        ref_table: &str,
        ref_column: &str,
    ) -> Result<()> {
        self.table(table)?.schema().index_of(column)?;
        self.table(ref_table)?.schema().index_of(ref_column)?;
        match self.primary_keys.get(ref_table) {
            Some(pk) if pk == ref_column => {}
            _ => {
                return Err(RelGoError::schema(format!(
                    "foreign key must reference a primary key; {ref_table}.{ref_column} is not one"
                )))
            }
        }
        self.foreign_keys.push(ForeignKey {
            table: table.to_string(),
            column: column.to_string(),
            ref_table: ref_table.to_string(),
            ref_column: ref_column.to_string(),
        });
        Ok(())
    }

    /// Replace an existing table with new contents (same name, same
    /// position), dropping any cached key indexes over it — the commit path
    /// of the delta store, where unchanged tables keep sharing their `Arc`s
    /// (and their cached indexes) while changed ones are re-registered.
    pub fn replace_table(&mut self, table: Table) -> Result<Arc<Table>> {
        let name = table.name().to_string();
        let Some(&i) = self.by_name.get(&name) else {
            return Err(RelGoError::not_found(format!(
                "table '{name}' (replace_table requires an existing table)"
            )));
        };
        let arc = Arc::new(table);
        self.tables[i] = Arc::clone(&arc);
        self.key_indexes.retain(|(t, _), _| *t != name);
        Ok(arc)
    }

    /// Fetch a table by name.
    pub fn table(&self, name: &str) -> Result<&Arc<Table>> {
        self.by_name
            .get(name)
            .map(|&i| &self.tables[i])
            .ok_or_else(|| RelGoError::not_found(format!("table '{name}'")))
    }

    /// All tables in registration order.
    pub fn tables(&self) -> impl Iterator<Item = &Arc<Table>> {
        self.tables.iter()
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.iter().map(|t| t.name()).collect()
    }

    /// Primary key column of `table`, if declared.
    pub fn primary_key(&self, table: &str) -> Option<&str> {
        self.primary_keys.get(table).map(String::as_str)
    }

    /// All declared foreign keys.
    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// Get or build the unique key index over `table.column`.
    pub fn key_index(&mut self, table: &str, column: &str) -> Result<Arc<KeyIndex>> {
        let key = (table.to_string(), column.to_string());
        if let Some(idx) = self.key_indexes.get(&key) {
            return Ok(Arc::clone(idx));
        }
        let t = Arc::clone(self.table(table)?);
        let idx = Arc::new(KeyIndex::build(&t, column)?);
        self.key_indexes.insert(key, Arc::clone(&idx));
        Ok(idx)
    }

    /// Total number of rows across all tables (for dataset statistics).
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.num_rows()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::table_of;
    use relgo_common::{DataType, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.add_table(table_of(
            "Person",
            &[("person_id", DataType::Int), ("name", DataType::Str)],
            vec![vec![10.into(), "Tom".into()], vec![20.into(), "Bob".into()]],
        ));
        db.add_table(table_of(
            "Likes",
            &[("likes_id", DataType::Int), ("pid", DataType::Int)],
            vec![
                vec![1.into(), 10.into()],
                vec![2.into(), 20.into()],
                vec![3.into(), 10.into()],
            ],
        ));
        db.set_primary_key("Person", "person_id").unwrap();
        db.set_primary_key("Likes", "likes_id").unwrap();
        db
    }

    #[test]
    fn table_registration_and_lookup() {
        let db = db();
        assert_eq!(db.table("Person").unwrap().num_rows(), 2);
        assert!(db.table("Nope").is_err());
        assert_eq!(db.table_names(), vec!["Person", "Likes"]);
        assert_eq!(db.total_rows(), 5);
    }

    #[test]
    fn replacing_table_keeps_position() {
        let mut db = db();
        db.add_table(table_of(
            "Person",
            &[("person_id", DataType::Int), ("name", DataType::Str)],
            vec![vec![30.into(), "Eve".into()]],
        ));
        assert_eq!(db.table_names(), vec!["Person", "Likes"]);
        assert_eq!(db.table("Person").unwrap().num_rows(), 1);
    }

    #[test]
    fn foreign_key_requires_primary_key() {
        let mut db = db();
        assert!(db
            .add_foreign_key("Likes", "pid", "Person", "person_id")
            .is_ok());
        // Referencing a non-PK column fails.
        assert!(db
            .add_foreign_key("Likes", "pid", "Person", "name")
            .is_err());
        // Unknown column fails.
        assert!(db
            .add_foreign_key("Likes", "nope", "Person", "person_id")
            .is_err());
        assert_eq!(db.foreign_keys().len(), 1);
    }

    #[test]
    fn key_index_resolves_rows() {
        let mut db = db();
        let idx = db.key_index("Person", "person_id").unwrap();
        assert_eq!(idx.lookup(10), Some(0));
        assert_eq!(idx.lookup(20), Some(1));
        assert_eq!(idx.lookup(99), None);
        assert_eq!(idx.len(), 2);
        // Cached: same Arc returned.
        let idx2 = db.key_index("Person", "person_id").unwrap();
        assert!(Arc::ptr_eq(&idx, &idx2));
    }

    #[test]
    fn replace_table_drops_stale_key_indexes() {
        let mut db = db();
        let old_idx = db.key_index("Person", "person_id").unwrap();
        assert_eq!(old_idx.lookup(30), None);
        db.replace_table(table_of(
            "Person",
            &[("person_id", DataType::Int), ("name", DataType::Str)],
            vec![
                vec![10.into(), "Tom".into()],
                vec![20.into(), "Bob".into()],
                vec![30.into(), "Eve".into()],
            ],
        ))
        .unwrap();
        // Position and name survive; the cached index was invalidated.
        assert_eq!(db.table_names(), vec!["Person", "Likes"]);
        let idx = db.key_index("Person", "person_id").unwrap();
        assert_eq!(idx.lookup(30), Some(2));
        assert!(!Arc::ptr_eq(&old_idx, &idx));
        // Unknown tables are rejected.
        assert!(db
            .replace_table(table_of("Nope", &[("k", DataType::Int)], vec![]))
            .is_err());
    }

    fn keyed(keys: &[i64]) -> Table {
        table_of(
            "T",
            &[("k", DataType::Int)],
            keys.iter().map(|&k| vec![k.into()]).collect(),
        )
    }

    /// Every key resolves to its row, and nothing around the keys or at
    /// the ends of the `i64` range resolves at all.
    fn assert_resolves(keys: &[i64], dense: bool) {
        let idx = KeyIndex::build(&keyed(keys), "k").unwrap();
        assert_eq!(
            matches!(idx.keys, Directory::Direct { .. }),
            dense,
            "{keys:?}"
        );
        assert_eq!(idx.len(), keys.len());
        let hashed: FxHashMap<i64, RowId> = keys.iter().copied().zip(0..).collect();
        let around = keys
            .iter()
            .flat_map(|&k| [k.wrapping_sub(1), k, k.wrapping_add(1)]);
        for probe in around.chain([i64::MIN, -1, 0, 1, i64::MAX]) {
            assert_eq!(idx.lookup(probe), hashed.get(&probe).copied(), "{probe}");
        }
    }

    #[test]
    fn dense_and_hashed_key_indexes_resolve_alike() {
        // Dense, in order and shuffled, with a gap and negative keys.
        assert_resolves(&[1, 2, 3, 4, 5, 6], true);
        assert_resolves(&[4, -2, 0, 3, -1, 1], true);
        assert_resolves(&[10, 13, 11, 16], true);
        // Sparse.
        assert_resolves(&[1, 1_000, 1_000_000], false);
        assert_resolves(&[-5_000, 7, 9_000_000_000], false);
        // One key, no key, and keys whose range overflows `i64`.
        assert_resolves(&[42], true);
        assert_resolves(&[i64::MIN], true);
        assert_resolves(&[i64::MAX], true);
        assert_resolves(&[i64::MAX - 1, i64::MAX], true);
        assert_resolves(&[i64::MIN + 1, i64::MIN], true);
        assert_resolves(&[], false);
        assert_resolves(&[i64::MIN, i64::MAX], false);
        assert_resolves(&[i64::MIN, 0, i64::MAX], false);
        assert_resolves(&[-1, i64::MAX], false);
    }

    #[test]
    fn key_index_errors_name_the_first_offending_row() {
        // The duplicate at row 2 comes before the NULL at row 3, in either
        // representation.
        for first in [1, 1_000_000] {
            let t = table_of(
                "T",
                &[("k", DataType::Int)],
                vec![
                    vec![first.into()],
                    vec![2.into()],
                    vec![2.into()],
                    vec![Value::Null],
                ],
            );
            let err = KeyIndex::build(&t, "k").unwrap_err().to_string();
            assert!(
                err.contains("primary key T.k has duplicate value 2"),
                "{err}"
            );
        }
        let t = table_of(
            "T",
            &[("k", DataType::Int)],
            vec![vec![1.into()], vec![Value::Null], vec![1.into()]],
        );
        let err = KeyIndex::build(&t, "k").unwrap_err().to_string();
        assert!(
            err.contains("primary key T.k contains NULL or non-integer at row 1"),
            "{err}"
        );
    }

    #[test]
    fn key_index_rejects_duplicates_and_nulls() {
        let dup = table_of(
            "D",
            &[("k", DataType::Int)],
            vec![vec![1.into()], vec![1.into()]],
        );
        assert!(KeyIndex::build(&dup, "k").is_err());
        let withnull = table_of(
            "N",
            &[("k", DataType::Int)],
            vec![vec![1.into()], vec![Value::Null]],
        );
        assert!(KeyIndex::build(&withnull, "k").is_err());
    }
}
