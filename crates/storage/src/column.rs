//! Typed columnar storage.
//!
//! A [`Column`] is a densely packed vector of one data type plus an optional
//! validity mask. Strings are deduplicated through `Arc<str>` sharing at the
//! [`Value`] boundary; inside the column they are stored as a flat `Vec` of
//! `Arc<str>` so `get` is allocation-free.

use relgo_common::{DataType, RelGoError, Result, RowId, Value};
use std::sync::Arc;

/// A typed column with optional NULL mask.
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers.
    Int(Vec<i64>, Option<Vec<bool>>),
    /// 64-bit floats.
    Float(Vec<f64>, Option<Vec<bool>>),
    /// Shared strings.
    Str(Vec<Arc<str>>, Option<Vec<bool>>),
    /// Booleans.
    Bool(Vec<bool>, Option<Vec<bool>>),
    /// Dates as epoch days.
    Date(Vec<i64>, Option<Vec<bool>>),
}

impl Column {
    /// Create an empty column of the given type.
    pub fn new(dtype: DataType) -> Self {
        match dtype {
            DataType::Int => Column::Int(Vec::new(), None),
            DataType::Float => Column::Float(Vec::new(), None),
            DataType::Str => Column::Str(Vec::new(), None),
            DataType::Bool => Column::Bool(Vec::new(), None),
            DataType::Date => Column::Date(Vec::new(), None),
        }
    }

    /// Create an empty column with pre-reserved capacity.
    pub fn with_capacity(dtype: DataType, cap: usize) -> Self {
        match dtype {
            DataType::Int => Column::Int(Vec::with_capacity(cap), None),
            DataType::Float => Column::Float(Vec::with_capacity(cap), None),
            DataType::Str => Column::Str(Vec::with_capacity(cap), None),
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
            Column::Str(v, _) => v.len(),
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
            Column::Str(v, _) => Value::Str(Arc::clone(&v[i])),
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
            Column::Str(v, _) => Some(&v[row as usize]),
            _ => None,
        }
    }

    fn push_null_slot(&mut self) {
        match self {
            Column::Int(v, _) | Column::Date(v, _) => v.push(0),
            Column::Float(v, _) => v.push(0.0),
            Column::Str(v, _) => v.push(Arc::from("")),
            Column::Bool(v, _) => v.push(false),
        }
    }

    /// Append a value; `Value::Null` sets the validity mask.
    pub fn push(&mut self, value: Value) -> Result<()> {
        let n = self.len();
        if value.is_null() {
            let mask = self.validity_mut();
            let m = mask.get_or_insert_with(|| vec![true; n]);
            m.push(false);
            self.push_null_slot();
            return Ok(());
        }
        if let Some(m) = self.validity_mut().as_mut() {
            m.push(true);
        }
        match (&mut *self, &value) {
            (Column::Int(v, _), Value::Int(x)) => v.push(*x),
            (Column::Date(v, _), Value::Date(x)) | (Column::Date(v, _), Value::Int(x)) => {
                v.push(*x)
            }
            (Column::Int(v, _), Value::Date(x)) => v.push(*x),
            (Column::Float(v, _), Value::Float(x)) => v.push(*x),
            (Column::Float(v, _), Value::Int(x)) => v.push(*x as f64),
            (Column::Str(v, _), Value::Str(s)) => v.push(Arc::clone(s)),
            (Column::Bool(v, _), Value::Bool(b)) => v.push(*b),
            _ => {
                // Roll back the validity push before erroring.
                if let Some(m) = self.validity_mut().as_mut() {
                    m.pop();
                }
                return Err(RelGoError::schema(format!(
                    "cannot store {:?} into {} column",
                    value,
                    self.dtype()
                )));
            }
        }
        Ok(())
    }

    /// Gather the rows at `indices` into a new column (used by projection
    /// and join materialization).
    pub fn take(&self, indices: &[RowId]) -> Column {
        let mut out = Column::with_capacity(self.dtype(), indices.len());
        // Fast paths avoid Value boxing for the dominant types.
        match (self, &mut out) {
            (Column::Int(v, m), Column::Int(o, om)) | (Column::Date(v, m), Column::Date(o, om)) => {
                o.extend(indices.iter().map(|&i| v[i as usize]));
                if let Some(m) = m {
                    *om = Some(indices.iter().map(|&i| m[i as usize]).collect());
                }
            }
            (Column::Str(v, m), Column::Str(o, om)) => {
                o.extend(indices.iter().map(|&i| Arc::clone(&v[i as usize])));
                if let Some(m) = m {
                    *om = Some(indices.iter().map(|&i| m[i as usize]).collect());
                }
            }
            _ => {
                for &i in indices {
                    out.push(self.get(i)).expect("same dtype");
                }
            }
        }
        out
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
}
