//! Immutable columnar tables and their builder.

use crate::column::{Column, Interner, StrColumn};
use relgo_common::{DataType, RelGoError, Result, RowId, Schema, Value};
use std::fmt;

/// An immutable, named, columnar relation.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl Table {
    /// Construct from pre-built columns (lengths must agree).
    pub fn from_columns(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<Column>,
    ) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(RelGoError::schema(format!(
                "schema has {} fields but {} columns supplied",
                schema.len(),
                columns.len()
            )));
        }
        let rows = columns.first().map_or(0, Column::len);
        for (i, c) in columns.iter().enumerate() {
            if c.len() != rows {
                return Err(RelGoError::schema(format!(
                    "column {i} has {} rows, expected {rows}",
                    c.len()
                )));
            }
            if c.dtype() != schema.field(i).dtype {
                return Err(RelGoError::schema(format!(
                    "column {i} has type {}, schema says {}",
                    c.dtype(),
                    schema.field(i).dtype
                )));
            }
        }
        Ok(Table {
            name: name.into(),
            schema,
            columns,
            rows,
        })
    }

    /// Create an empty table with the given schema.
    pub fn empty(name: impl Into<String>, schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::new(f.dtype))
            .collect();
        Table {
            name: name.into(),
            schema,
            columns,
            rows: 0,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column at position `i`.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// Value at `(row, col)`.
    pub fn value(&self, row: RowId, col: usize) -> Value {
        self.columns[col].get(row)
    }

    /// Materialize row `row` as a `Vec<Value>`.
    pub fn row(&self, row: RowId) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(row)).collect()
    }

    /// Gather `indices` into a new table (same schema).
    pub fn take(&self, indices: &[RowId]) -> Table {
        Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.take(indices)).collect(),
            rows: indices.len(),
        }
    }

    /// Project to the columns at `cols` (renaming per the projected schema).
    pub fn project(&self, cols: &[usize]) -> Table {
        Table {
            name: self.name.clone(),
            schema: self.schema.project(cols),
            columns: cols.iter().map(|&i| self.columns[i].clone()).collect(),
            rows: self.rows,
        }
    }

    /// [`Table::project`] of a table nobody else holds: the columns are moved
    /// out, not copied. `cols` must not list a column twice.
    pub(crate) fn into_projection(self, cols: &[usize]) -> Table {
        let mut columns: Vec<Option<Column>> = self.columns.into_iter().map(Some).collect();
        Table {
            name: self.name,
            schema: self.schema.project(cols),
            columns: cols
                .iter()
                .map(|&i| {
                    columns[i]
                        .take()
                        .expect("a projected column is listed once")
                })
                .collect(),
            rows: self.rows,
        }
    }

    /// Whether `other` holds exactly the same data: the same schema and the
    /// same cells in the same row order, compared by representation — the
    /// same [`Value`] variant, floats by their bits — not by `Value::eq`,
    /// under which `Int(5) == Date(5)`, `Int(1) == Float(1.0)` and
    /// `-0.0 == 0.0`. The table's name is not data and is not compared.
    pub fn bit_identical(&self, other: &Table) -> bool {
        let same_cell = |a: Value, b: Value| match (a, b) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) | (Value::Date(a), Value::Date(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            _ => false,
        };
        self.schema == other.schema
            && self.rows == other.rows
            && self
                .columns
                .iter()
                .zip(&other.columns)
                .all(|(a, b)| (0..self.rows as RowId).all(|r| same_cell(a.get(r), b.get(r))))
    }

    /// All rows, materialized and sorted — deterministic representation for
    /// result comparison in tests.
    pub fn sorted_rows(&self) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = (0..self.rows as RowId).map(|r| self.row(r)).collect();
        rows.sort();
        rows
    }

    /// Render at most `limit` rows as an aligned ASCII table.
    pub fn display(&self, limit: usize) -> String {
        let mut header: Vec<String> = self
            .schema
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .collect();
        let shown = self.rows.min(limit);
        let mut body: Vec<Vec<String>> = Vec::with_capacity(shown);
        for r in 0..shown as RowId {
            body.push(self.row(r).iter().map(|v| v.to_string()).collect());
        }
        let mut widths: Vec<usize> = header.iter().map(String::len).collect();
        for row in &body {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        for (h, w) in header.iter_mut().zip(&widths) {
            *h = format!("{h:<w$}");
        }
        let mut out = String::new();
        out.push_str(&header.join(" | "));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 3 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in body {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            out.push_str(&cells.join(" | "));
            out.push('\n');
        }
        if self.rows > shown {
            out.push_str(&format!("... ({} more rows)\n", self.rows - shown));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} [{} rows]", self.name, self.schema, self.rows)
    }
}

/// Rows a string column is interned for before its distinct count can stop
/// the interning.
const INTERN_PROBE_ROWS: usize = 1024;
/// Distinct strings past which a column, after its first
/// [`INTERN_PROBE_ROWS`] rows, stops interning.
const INTERN_MAX_DISTINCT: usize = 512;

/// Row-at-a-time builder for [`Table`].
#[derive(Debug)]
pub struct TableBuilder {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    /// Per column, the code of each string interned so far; `None` for a
    /// column that is not `Str` or has stopped interning.
    interners: Vec<Option<Interner>>,
    rows: usize,
}

impl TableBuilder {
    /// Start building a table with the given schema.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        TableBuilder::with_capacity(name, schema, 0)
    }

    /// Pre-reserve capacity in every column.
    pub fn with_capacity(name: impl Into<String>, schema: Schema, cap: usize) -> Self {
        let fields = schema.fields();
        let columns = fields
            .iter()
            .map(|f| Column::with_capacity(f.dtype, cap))
            .collect();
        let interners = fields
            .iter()
            .map(|f| (f.dtype == DataType::Str).then(StrColumn::interner))
            .collect();
        TableBuilder {
            name: name.into(),
            schema,
            columns,
            interners,
            rows: 0,
        }
    }

    /// Number of rows appended so far.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether no rows were appended.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Append one row; arity and types must match the schema. A row that
    /// does not is rejected whole: no column takes any of its values.
    pub fn push_row(&mut self, values: Vec<Value>) -> Result<()> {
        if values.len() != self.columns.len() {
            return Err(RelGoError::schema(format!(
                "row has {} values, schema {} expects {}",
                values.len(),
                self.schema,
                self.columns.len()
            )));
        }
        if self.rows >= u32::MAX as usize {
            return Err(RelGoError::schema("table exceeds u32::MAX rows"));
        }
        if let Some((c, v)) = self.columns.iter().zip(&values).find(|(c, v)| !c.fits(v)) {
            return Err(c.mismatch(v));
        }
        let columns = self.columns.iter_mut().zip(&mut self.interners);
        for ((c, interner), v) in columns.zip(values) {
            // A column with too many distinct strings stops interning, and
            // each of its strings becomes a new entry from then on.
            if self.rows >= INTERN_PROBE_ROWS
                && interner
                    .as_ref()
                    .is_some_and(|m| m.len() > INTERN_MAX_DISTINCT)
            {
                *interner = None;
            }
            c.push_checked(v, interner.as_mut());
        }
        self.rows += 1;
        Ok(())
    }

    /// Finish, producing the immutable table.
    pub fn finish(self) -> Table {
        Table {
            name: self.name,
            schema: self.schema,
            columns: self.columns,
            rows: self.rows,
        }
    }
}

/// Convenience: build a table from a schema spec and row literals (tests and
/// examples).
pub fn table_of(name: &str, spec: &[(&str, DataType)], rows: Vec<Vec<Value>>) -> Table {
    let mut b = TableBuilder::new(name, Schema::of(spec));
    for r in rows {
        b.push_row(r).expect("literal rows must match the schema");
    }
    b.finish()
}

/// The shape of one committed change against an immutable table: which base
/// rows were deleted and how many new rows were appended after the
/// survivors. This is the contract between the delta store (`relgo-delta`)
/// and every consumer that refreshes derived state (graph indexes,
/// statistics, plan-cache retention): merged tables keep surviving base
/// rows **in base order**, then append the inserted rows, so a change that
/// deletes nothing leaves every existing row id where it was.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableChange {
    /// Deleted base row ids, sorted and deduplicated.
    deleted: Vec<RowId>,
    /// Number of rows appended after the surviving base rows.
    inserted: usize,
    /// Base row count the change applies to.
    base_rows: usize,
}

impl TableChange {
    /// Describe a change against a `base_rows`-row table (deletions are
    /// sorted and deduplicated here).
    pub fn new(base_rows: usize, mut deleted: Vec<RowId>, inserted: usize) -> TableChange {
        deleted.sort_unstable();
        deleted.dedup();
        TableChange {
            deleted,
            inserted,
            base_rows,
        }
    }

    /// Deleted base row ids, sorted ascending.
    pub fn deleted(&self) -> &[RowId] {
        &self.deleted
    }

    /// Number of appended rows.
    pub fn inserted(&self) -> usize {
        self.inserted
    }

    /// Whether the change deletes nothing (row ids of survivors are stable).
    pub fn is_append_only(&self) -> bool {
        self.deleted.is_empty()
    }

    /// The surviving base row ids in order (merged ids `0..survivors`).
    pub fn survivors(&self) -> Vec<RowId> {
        let mut out = Vec::with_capacity(self.base_rows - self.deleted.len());
        let mut del = self.deleted.iter().peekable();
        for r in 0..self.base_rows as RowId {
            if del.peek() == Some(&&r) {
                del.next();
            } else {
                out.push(r);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn people() -> Table {
        table_of(
            "Person",
            &[
                ("id", DataType::Int),
                ("name", DataType::Str),
                ("place_id", DataType::Int),
            ],
            vec![
                vec![1.into(), "Tom".into(), 10.into()],
                vec![2.into(), "Bob".into(), 20.into()],
                vec![3.into(), "David".into(), 20.into()],
            ],
        )
    }

    #[test]
    fn build_and_read() {
        let t = people();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.value(1, 1), Value::str("Bob"));
        assert_eq!(t.row(0), vec![1.into(), "Tom".into(), 10.into()]);
        assert_eq!(t.column_by_name("place_id").unwrap().get_int(2), Some(20));
    }

    #[test]
    fn bit_identical_compares_representation_not_value_eq() {
        let one = |dtype, v: Value| table_of("t", &[("c", dtype)], vec![vec![v]]);
        assert!(people().bit_identical(&people()));
        // Each pair is equal under `Value::eq`.
        assert_eq!(Value::Int(5), Value::Date(5));
        assert!(
            !one(DataType::Int, Value::Int(5)).bit_identical(&one(DataType::Date, Value::Date(5)))
        );
        assert_eq!(Value::Float(0.0), Value::Float(-0.0));
        assert!(!one(DataType::Float, Value::Float(0.0))
            .bit_identical(&one(DataType::Float, Value::Float(-0.0))));
        // NaN is its own bit pattern, not "unequal to everything".
        assert!(one(DataType::Float, Value::Float(f64::NAN))
            .bit_identical(&one(DataType::Float, Value::Float(f64::NAN))));
        assert!(!one(DataType::Int, Value::Null).bit_identical(&one(DataType::Int, Value::Int(0))));
        // Row order and column names are part of the data.
        assert!(!people().bit_identical(&people().take(&[1, 0, 2])));
        let renamed = table_of("t", &[("d", DataType::Int)], vec![vec![Value::Int(5)]]);
        assert!(!one(DataType::Int, Value::Int(5)).bit_identical(&renamed));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut b = TableBuilder::new("t", Schema::of(&[("a", DataType::Int)]));
        assert!(b.push_row(vec![1.into(), 2.into()]).is_err());
    }

    #[test]
    fn rejected_row_leaves_no_trace() {
        let schema = Schema::of(&[
            ("a", DataType::Int),
            ("s", DataType::Str),
            ("f", DataType::Float),
            ("d", DataType::Date),
        ]);
        let mut b = TableBuilder::new("t", schema);
        // Column 2 rejects a string after columns 0 and 1 would have taken
        // their values.
        let bad = vec![1.into(), "bad".into(), "x".into(), 3.into()];
        assert!(b.push_row(bad).is_err());
        // The coercions `Column::push` accepts: INT into FLOAT and DATE.
        b.push_row(vec![Value::Date(2), "ok".into(), 4.into(), 5.into()])
            .unwrap();
        let t = b.finish();
        assert_eq!(t.num_rows(), 1);
        for c in 0..t.num_columns() {
            assert_eq!(t.column(c).len(), 1);
        }
        let want = [
            Value::Int(2),
            "ok".into(),
            Value::Float(4.0),
            Value::Date(5),
        ];
        assert!(t.bit_identical(&table_of(
            "t",
            &[
                ("a", DataType::Int),
                ("s", DataType::Str),
                ("f", DataType::Float),
                ("d", DataType::Date),
            ],
            vec![want.to_vec()]
        )));
        assert_eq!(t.column(1).as_strs().unwrap().0.dict().len(), 2);
    }

    #[test]
    fn builder_interns_only_repetitive_columns() {
        let rows = (0..10_000).map(|i| {
            let v = if i % 7 == 3 {
                Value::Null
            } else {
                Value::str(["a", "bb", "c", "dd"][i % 4])
            };
            vec![v, Value::str(format!("u{i}"))]
        });
        let t = table_of(
            "t",
            &[("few", DataType::Str), ("unique", DataType::Str)],
            rows.collect(),
        );
        let entries = |c: usize| t.column(c).as_strs().unwrap().0.dict().len();
        assert!(entries(0) <= 5, "{}", entries(0));
        assert_eq!(entries(1), t.num_rows() + 1);
        assert_eq!(t.value(5, 0), Value::str("bb"));
        assert_eq!(t.value(3, 0), Value::Null);
        assert_eq!(t.value(9_999, 1), Value::str("u9999"));
        // A gather shares the dictionary.
        let sub = t.take(&[9, 2]);
        for c in 0..2 {
            let dict = |t: &Table| Arc::clone(t.column(c).as_strs().unwrap().0.dict());
            assert!(Arc::ptr_eq(&dict(&t), &dict(&sub)));
        }
    }

    #[test]
    fn from_columns_validates_lengths_and_types() {
        let schema = Schema::of(&[("a", DataType::Int), ("b", DataType::Str)]);
        let mut c1 = Column::new(DataType::Int);
        c1.push(1.into()).unwrap();
        let c2 = Column::new(DataType::Str); // wrong length
        assert!(Table::from_columns("t", schema.clone(), vec![c1.clone(), c2]).is_err());
        let c3 = Column::new(DataType::Int); // wrong type for 'b'
        assert!(Table::from_columns("t", schema, vec![c1, c3]).is_err());
    }

    #[test]
    fn take_and_project() {
        let t = people();
        let sub = t.take(&[2, 0]);
        assert_eq!(sub.num_rows(), 2);
        assert_eq!(sub.value(0, 1), Value::str("David"));
        let proj = t.project(&[1]);
        assert_eq!(proj.num_columns(), 1);
        assert_eq!(proj.schema().field(0).name, "name");
    }

    #[test]
    fn sorted_rows_deterministic() {
        let t = people();
        let a = t.take(&[2, 1, 0]).sorted_rows();
        let b = t.sorted_rows();
        assert_eq!(a, b);
    }

    #[test]
    fn display_contains_header_and_rows() {
        let s = people().display(2);
        assert!(s.contains("name"));
        assert!(s.contains("Tom"));
        assert!(s.contains("1 more rows"));
    }

    #[test]
    fn table_change_remaps_monotonically() {
        let c = TableChange::new(6, vec![4, 1, 4], 3);
        assert_eq!(c.deleted(), &[1, 4]);
        assert_eq!(c.inserted(), 3);
        assert!(!c.is_append_only());
        // Survivors keep base order: merged row i is base row survivors[i].
        assert_eq!(c.survivors(), vec![0, 2, 3, 5]);
    }

    #[test]
    fn append_only_change_is_identity_on_base() {
        let c = TableChange::new(3, vec![], 2);
        assert!(c.is_append_only());
        assert_eq!(c.survivors(), vec![0, 1, 2]);
    }
}
