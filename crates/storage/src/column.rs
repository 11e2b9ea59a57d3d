//! Typed columnar storage.
//!
//! A [`Column`] is a densely packed vector of one data type plus an optional
//! validity mask. A string column ([`StrColumn`]) stores a `u32` code per
//! row into a dictionary of `Arc<str>` entries that the column shares with
//! every column gathered from it: [`Column::take`] copies 4-byte codes and
//! clones the dictionary's `Arc`, and [`Column::get`] clones one entry's
//! `Arc`, so neither allocates per cell.
//!
//! Entry 0 of every dictionary is `""`, and a NULL cell carries code 0, so
//! a kernel may read the entry of any code. [`TableBuilder`] interns a
//! column while it is repetitive: after its first 1 024 rows, a column
//! with more than 512 distinct values stops interning and appends one entry
//! per row. [`Column::push`] always appends. A dictionary may therefore
//! hold the same string more than once, and no code may assume its entries
//! are distinct: equal strings can carry different codes.
//!
//! [`TableBuilder`]: crate::table::TableBuilder

use relgo_common::{DataType, FxHashMap, RelGoError, Result, RowId, Value};
use std::sync::Arc;

/// A typed column with optional NULL mask.
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers.
    Int(Vec<i64>, Option<Vec<bool>>),
    /// 64-bit floats.
    Float(Vec<f64>, Option<Vec<bool>>),
    /// Dictionary-coded strings.
    Str(StrColumn, Option<Vec<bool>>),
    /// Booleans.
    Bool(Vec<bool>, Option<Vec<bool>>),
    /// Dates as epoch days.
    Date(Vec<i64>, Option<Vec<bool>>),
}

/// The cells of a string column: row `r` holds `dict[codes[r]]`.
#[derive(Debug, Clone)]
pub struct StrColumn {
    codes: Vec<u32>,
    dict: Arc<Vec<Arc<str>>>,
}

impl StrColumn {
    fn with_capacity(cap: usize) -> StrColumn {
        StrColumn {
            codes: Vec::with_capacity(cap),
            dict: Arc::new(vec![Arc::from("")]),
        }
    }

    /// One code per row.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The entries the codes index; entry 0 is `""`, and entries need not
    /// be distinct.
    pub fn dict(&self) -> &Arc<Vec<Arc<str>>> {
        &self.dict
    }

    /// The string of row `row` (`""` for a NULL cell).
    #[inline]
    pub(crate) fn str_at(&self, row: usize) -> &str {
        &self.dict[self.codes[row] as usize]
    }

    /// Append a row that holds entry `code`.
    fn push_code(&mut self, code: u32) {
        debug_assert!((code as usize) < self.dict.len());
        self.codes.push(code);
    }

    /// Add `s` as a new entry and return its code; the dictionary is copied
    /// first if another column shares it.
    fn entry(&mut self, s: Arc<str>) -> u32 {
        let dict = Arc::make_mut(&mut self.dict);
        dict.push(s);
        u32::try_from(dict.len() - 1).expect("a dictionary holds fewer than 2^32 entries")
    }

    /// An interner for a new dictionary: it knows entry 0, `""`.
    pub(crate) fn interner() -> Interner {
        [(Arc::from(""), 0)].into_iter().collect()
    }

    /// The code of `s` in `seen`, which becomes a new entry if `s` is not
    /// there yet; a caller's `Arc` of a string seen before is dropped here.
    fn intern(&mut self, seen: &mut Interner, s: Arc<str>) -> u32 {
        *seen
            .entry(s)
            .or_insert_with_key(|s| self.entry(Arc::clone(s)))
    }

    /// The same cells over a dictionary of only the distinct strings they
    /// use.
    fn reinterned(&self) -> StrColumn {
        let mut out = StrColumn::with_capacity(self.codes.len());
        let mut seen = StrColumn::interner();
        let mut remap: Vec<Option<u32>> = vec![None; self.dict.len()];
        for &c in &self.codes {
            let code = *remap[c as usize]
                .get_or_insert_with(|| out.intern(&mut seen, Arc::clone(&self.dict[c as usize])));
            out.codes.push(code);
        }
        out
    }
}

/// The code of each string a dictionary holds, while a column is interned.
pub(crate) type Interner = FxHashMap<Arc<str>, u32>;

impl Column {
    /// Create an empty column of the given type.
    pub fn new(dtype: DataType) -> Self {
        Column::with_capacity(dtype, 0)
    }

    /// Create an empty column with pre-reserved capacity.
    pub fn with_capacity(dtype: DataType, cap: usize) -> Self {
        match dtype {
            DataType::Int => Column::Int(Vec::with_capacity(cap), None),
            DataType::Float => Column::Float(Vec::with_capacity(cap), None),
            DataType::Str => Column::Str(StrColumn::with_capacity(cap), None),
            DataType::Bool => Column::Bool(Vec::with_capacity(cap), None),
            DataType::Date => Column::Date(Vec::with_capacity(cap), None),
        }
    }

    /// This column's data type.
    pub fn dtype(&self) -> DataType {
        match self {
            Column::Int(..) => DataType::Int,
            Column::Float(..) => DataType::Float,
            Column::Str(..) => DataType::Str,
            Column::Bool(..) => DataType::Bool,
            Column::Date(..) => DataType::Date,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v, _) | Column::Date(v, _) => v.len(),
            Column::Float(v, _) => v.len(),
            Column::Str(s, _) => s.codes.len(),
            Column::Bool(v, _) => v.len(),
        }
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The validity mask (`false` = NULL), if any cell is NULL.
    pub(crate) fn validity(&self) -> Option<&[bool]> {
        match self {
            Column::Int(_, m)
            | Column::Date(_, m)
            | Column::Float(_, m)
            | Column::Str(_, m)
            | Column::Bool(_, m) => m.as_deref(),
        }
    }

    /// The raw `i64` cells and validity mask of an `Int`/`Date` column — the
    /// slice form of [`Column::get_int`] for loops that dispatch once.
    pub fn as_ints(&self) -> Option<(&[i64], Option<&[bool]>)> {
        match self {
            Column::Int(v, m) | Column::Date(v, m) => Some((v, m.as_deref())),
            _ => None,
        }
    }

    /// The codes, dictionary and validity mask of a `Str` column — the
    /// dictionary form of [`Column::get_str`].
    pub fn as_strs(&self) -> Option<(&StrColumn, Option<&[bool]>)> {
        match self {
            Column::Str(s, m) => Some((s, m.as_deref())),
            _ => None,
        }
    }

    fn validity_mut(&mut self) -> &mut Option<Vec<bool>> {
        match self {
            Column::Int(_, m)
            | Column::Date(_, m)
            | Column::Float(_, m)
            | Column::Str(_, m)
            | Column::Bool(_, m) => m,
        }
    }

    /// Whether the value at `row` is NULL.
    #[inline]
    pub fn is_null(&self, row: RowId) -> bool {
        match self.validity() {
            Some(m) => !m[row as usize],
            None => false,
        }
    }

    /// Fetch the value at `row` (clones only cheaply shareable data).
    pub fn get(&self, row: RowId) -> Value {
        let i = row as usize;
        if self.is_null(row) {
            return Value::Null;
        }
        match self {
            Column::Int(v, _) => Value::Int(v[i]),
            Column::Float(v, _) => Value::Float(v[i]),
            Column::Str(s, _) => Value::Str(Arc::clone(&s.dict[s.codes[i] as usize])),
            Column::Bool(v, _) => Value::Bool(v[i]),
            Column::Date(v, _) => Value::Date(v[i]),
        }
    }

    /// Raw integer accessor (valid for `Int`/`Date`); NULL yields `None`.
    #[inline]
    pub fn get_int(&self, row: RowId) -> Option<i64> {
        if self.is_null(row) {
            return None;
        }
        match self {
            Column::Int(v, _) | Column::Date(v, _) => Some(v[row as usize]),
            _ => None,
        }
    }

    /// Raw string accessor (valid for `Str`); NULL yields `None`.
    #[inline]
    pub fn get_str(&self, row: RowId) -> Option<&str> {
        if self.is_null(row) {
            return None;
        }
        match self {
            Column::Str(s, _) => Some(s.str_at(row as usize)),
            _ => None,
        }
    }

    /// Whether [`Column::push`] stores `value`: NULL fits every column, an
    /// INT a FLOAT or DATE column and a DATE an INT column.
    #[inline]
    pub(crate) fn fits(&self, value: &Value) -> bool {
        matches!(
            (self, value),
            (_, Value::Null)
                | (
                    Column::Int(..) | Column::Date(..),
                    Value::Int(_) | Value::Date(_)
                )
                | (Column::Float(..), Value::Float(_) | Value::Int(_))
                | (Column::Str(..), Value::Str(_))
                | (Column::Bool(..), Value::Bool(_))
        )
    }

    /// The error of pushing a `value` that does not [`Column::fits`].
    #[cold]
    pub(crate) fn mismatch(&self, value: &Value) -> RelGoError {
        RelGoError::schema(format!(
            "cannot store {value:?} into {} column",
            self.dtype()
        ))
    }

    /// Append a value; `Value::Null` sets the validity mask. A value of
    /// another type is an error and leaves the column as it was.
    pub fn push(&mut self, value: Value) -> Result<()> {
        if !self.fits(&value) {
            return Err(self.mismatch(&value));
        }
        self.push_checked(value, None);
        Ok(())
    }

    /// Append a value that [`Column::fits`]. A string takes its code from
    /// `interner` when there is one, and is a new entry otherwise.
    #[inline]
    pub(crate) fn push_checked(&mut self, value: Value, interner: Option<&mut Interner>) {
        fn valid(mask: &mut Option<Vec<bool>>) {
            if let Some(m) = mask {
                m.push(true);
            }
        }
        match (self, value) {
            (Column::Int(v, m) | Column::Date(v, m), Value::Int(x) | Value::Date(x)) => {
                valid(m);
                v.push(x);
            }
            (Column::Float(v, m), Value::Float(x)) => {
                valid(m);
                v.push(x);
            }
            (Column::Float(v, m), Value::Int(x)) => {
                valid(m);
                v.push(x as f64);
            }
            (Column::Str(s, m), Value::Str(x)) => {
                valid(m);
                let code = match interner {
                    Some(seen) => s.intern(seen, x),
                    None => s.entry(x),
                };
                s.push_code(code);
            }
            (Column::Bool(v, m), Value::Bool(b)) => {
                valid(m);
                v.push(b);
            }
            // Only NULL is left: a placeholder cell under the mask.
            (c, _) => c.push_null(),
        }
    }

    #[cold]
    fn push_null(&mut self) {
        let n = self.len();
        self.validity_mut()
            .get_or_insert_with(|| vec![true; n])
            .push(false);
        match self {
            Column::Int(v, _) | Column::Date(v, _) => v.push(0),
            Column::Float(v, _) => v.push(0.0),
            Column::Str(s, _) => s.push_code(0),
            Column::Bool(v, _) => v.push(false),
        }
    }

    /// Gather the rows at `indices` into a new column (used by projection
    /// and join materialization). A string column's gather shares the
    /// dictionary.
    pub fn take(&self, indices: &[RowId]) -> Column {
        fn gather<T: Copy>(v: &[T], indices: &[RowId]) -> Vec<T> {
            indices.iter().map(|&i| v[i as usize]).collect()
        }
        let mask = self.validity().map(|m| gather(m, indices));
        match self {
            Column::Int(v, _) => Column::Int(gather(v, indices), mask),
            Column::Date(v, _) => Column::Date(gather(v, indices), mask),
            Column::Float(v, _) => Column::Float(gather(v, indices), mask),
            Column::Bool(v, _) => Column::Bool(gather(v, indices), mask),
            Column::Str(s, _) => Column::Str(
                StrColumn {
                    codes: gather(&s.codes, indices),
                    dict: Arc::clone(&s.dict),
                },
                mask,
            ),
        }
    }

    /// Re-intern a string column whose dictionary holds more than twice its
    /// rows plus 1 024 entries: gathers share a dictionary and appends add
    /// to it, so deletes and re-inserts would grow it without bound (a no-op
    /// on every other column).
    pub fn bound_dictionary(&mut self) {
        if let Column::Str(s, _) = self {
            if s.dict.len() > 2 * s.codes.len() + 1024 {
                *s = s.reinterned();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_int() {
        let mut c = Column::new(DataType::Int);
        c.push(Value::Int(10)).unwrap();
        c.push(Value::Int(-3)).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(0), Value::Int(10));
        assert_eq!(c.get_int(1), Some(-3));
    }

    #[test]
    fn nulls_tracked_via_mask() {
        let mut c = Column::new(DataType::Str);
        c.push(Value::str("a")).unwrap();
        c.push(Value::Null).unwrap();
        c.push(Value::str("b")).unwrap();
        assert!(!c.is_null(0));
        assert!(c.is_null(1));
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.get_str(1), None);
        assert_eq!(c.get_str(2), Some("b"));
    }

    #[test]
    fn type_mismatch_is_error_and_rolls_back() {
        let mut c = Column::new(DataType::Int);
        c.push(Value::Int(1)).unwrap();
        c.push(Value::Null).unwrap();
        let before = c.len();
        assert!(c.push(Value::str("oops")).is_err());
        assert_eq!(c.len(), before);
        // Validity mask stays consistent.
        assert!(!c.is_null(0));
        assert!(c.is_null(1));
    }

    #[test]
    fn int_promotes_into_float_column() {
        let mut c = Column::new(DataType::Float);
        c.push(Value::Int(2)).unwrap();
        assert_eq!(c.get(0), Value::Float(2.0));
    }

    #[test]
    fn date_accepts_int_payload() {
        let mut c = Column::new(DataType::Date);
        c.push(Value::Int(100)).unwrap();
        c.push(Value::Date(200)).unwrap();
        assert_eq!(c.get(0), Value::Date(100));
        assert_eq!(c.get_int(1), Some(200));
    }

    #[test]
    fn take_gathers_rows() {
        let mut c = Column::new(DataType::Int);
        for i in 0..5 {
            c.push(Value::Int(i * 10)).unwrap();
        }
        let t = c.take(&[4, 0, 2]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(0), Value::Int(40));
        assert_eq!(t.get(1), Value::Int(0));
        assert_eq!(t.get(2), Value::Int(20));
    }

    #[test]
    fn take_preserves_nulls() {
        let mut c = Column::new(DataType::Str);
        c.push(Value::str("x")).unwrap();
        c.push(Value::Null).unwrap();
        let t = c.take(&[1, 0, 1]);
        assert!(t.is_null(0));
        assert!(!t.is_null(1));
        assert!(t.is_null(2));
    }

    #[test]
    fn take_equals_per_row_get_for_every_dtype() {
        let cells: [(DataType, Vec<Value>); 5] = [
            (DataType::Int, vec![7.into(), (-1).into(), 3.into()]),
            (
                DataType::Date,
                vec![Value::Date(9), Value::Date(-4), 0.into()],
            ),
            (
                DataType::Float,
                vec![1.5.into(), f64::NAN.into(), (-0.0).into()],
            ),
            (DataType::Bool, vec![true.into(), false.into(), true.into()]),
            (DataType::Str, vec!["a".into(), "".into(), "a".into()]),
        ];
        let bits = |v: &Value| match v {
            Value::Float(x) => Value::Int(x.to_bits() as i64),
            other => other.clone(),
        };
        for (dtype, values) in cells {
            for with_nulls in [false, true] {
                let mut c = Column::new(dtype);
                for v in &values {
                    c.push(v.clone()).unwrap();
                    if with_nulls {
                        c.push(Value::Null).unwrap();
                    }
                }
                let n = c.len() as RowId;
                for indices in [vec![], vec![0], (0..n).rev().collect(), vec![1, 1, 0, 2]] {
                    let t = c.take(&indices);
                    assert_eq!(t.dtype(), dtype);
                    assert_eq!(t.len(), indices.len());
                    for (p, &i) in indices.iter().enumerate() {
                        let (got, want) = (t.get(p as RowId), c.get(i));
                        assert_eq!(bits(&got), bits(&want), "{dtype} {indices:?}");
                        assert!(matches!(
                            (&got, &want),
                            (Value::Int(_), Value::Int(_))
                                | (Value::Date(_), Value::Date(_))
                                | (Value::Float(_), Value::Float(_))
                                | (Value::Bool(_), Value::Bool(_))
                                | (Value::Str(_), Value::Str(_))
                                | (Value::Null, Value::Null)
                        ));
                    }
                }
            }
        }
    }

    #[test]
    fn take_shares_the_dictionary_and_push_appends() {
        let mut c = Column::new(DataType::Str);
        for s in ["x", "y", "x"] {
            c.push(Value::str(s)).unwrap();
        }
        let (s, _) = c.as_strs().unwrap();
        // `push` never looks up: "x" twice is two entries, after "".
        assert_eq!(s.dict().len(), 4);
        let mut t = c.take(&[2, 0]);
        assert!(Arc::ptr_eq(s.dict(), t.as_strs().unwrap().0.dict()));
        // Appending to the gathered column copies the shared dictionary.
        t.push(Value::str("z")).unwrap();
        assert!(!Arc::ptr_eq(s.dict(), t.as_strs().unwrap().0.dict()));
        assert_eq!(c.as_strs().unwrap().0.dict().len(), 4);
        assert_eq!(t.get_str(2), Some("z"));
        // A dictionary within twice its rows plus 1 024 is left alone.
        t.push(Value::Null).unwrap();
        let before = Arc::clone(t.as_strs().unwrap().0.dict());
        t.bound_dictionary();
        assert!(Arc::ptr_eq(&before, t.as_strs().unwrap().0.dict()));
        // Past it, re-interning keeps the cells and drops repeats and
        // unused entries.
        for i in 0..1030 {
            t.push(Value::str(format!("w{i}"))).unwrap();
        }
        let mut t = t.take(&[0, 1, 2, 3]);
        t.bound_dictionary();
        let (s, _) = t.as_strs().unwrap();
        let entries: Vec<&str> = s.dict().iter().map(|e| &**e).collect();
        assert_eq!(entries, ["", "x", "z"]);
        let cells: Vec<Value> = (0..4).map(|r| t.get(r)).collect();
        let want = [
            Value::str("x"),
            Value::str("x"),
            Value::str("z"),
            Value::Null,
        ];
        assert_eq!(cells, want);
    }
}
