//! Low-order table statistics.
//!
//! These are the "low-order statistics" of the paper (§4.3): equi-width
//! histograms over integer columns, with heuristic priors for every other
//! predicate. The graph-agnostic optimizers estimate join cardinalities from them with the
//! classic independence assumptions; the graph-aware optimizer instead uses
//! the high-order statistics of `relgo-glogue`.

use crate::expr::{BinaryOp, ScalarExpr};
use crate::table::Table;
use relgo_common::{DataType, RowId};

/// An equi-width histogram over an integer/date column — the "attribute
/// distribution" statistic the paper credits Umbra's better estimates to
/// (§5.3.2) and lists as RelGo future work.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    min: i64,
    max: i64,
    /// Bucket counts over `[min, max]`, equal width.
    buckets: Vec<u32>,
    /// Total non-NULL values.
    total: u64,
}

impl Histogram {
    /// Default bucket count.
    pub const BUCKETS: usize = 32;

    /// Build over the non-NULL integer values of `table.column(col)`;
    /// `None` if the column is not integer-typed or is empty.
    pub fn build(table: &Table, col: usize) -> Option<Histogram> {
        let c = table.column(col);
        if !matches!(c.dtype(), DataType::Int | DataType::Date) {
            return None;
        }
        let mut min = i64::MAX;
        let mut max = i64::MIN;
        let mut values = Vec::with_capacity(table.num_rows());
        for r in 0..table.num_rows() as RowId {
            if let Some(v) = c.get_int(r) {
                min = min.min(v);
                max = max.max(v);
                values.push(v);
            }
        }
        if values.is_empty() {
            return None;
        }
        let mut h = Histogram {
            min,
            max,
            buckets: vec![0; Self::BUCKETS],
            total: values.len() as u64,
        };
        for v in values {
            let b = h.bucket_of(v);
            h.buckets[b] += 1;
        }
        Some(h)
    }

    fn bucket_of(&self, v: i64) -> usize {
        if self.max == self.min {
            return 0;
        }
        let span = (self.max - self.min) as u128 + 1;
        let off = (v - self.min) as u128;
        ((off * Self::BUCKETS as u128) / span) as usize
    }

    fn bucket_width(&self) -> f64 {
        ((self.max - self.min) as f64 + 1.0) / Self::BUCKETS as f64
    }

    /// Estimated selectivity of `col = v`.
    pub fn eq_selectivity(&self, v: i64) -> f64 {
        if v < self.min || v > self.max {
            return 0.0;
        }
        let b = self.bucket_of(v);
        let in_bucket = self.buckets[b] as f64;
        // Uniformity within the bucket.
        (in_bucket / self.bucket_width().max(1.0)) / self.total as f64
    }

    /// Estimated selectivity of `lo ≤ col ≤ hi` (either bound optional).
    pub fn range_selectivity(&self, lo: Option<i64>, hi: Option<i64>) -> f64 {
        let lo = lo.unwrap_or(self.min).max(self.min);
        let hi = hi.unwrap_or(self.max).min(self.max);
        if hi < lo {
            return 0.0;
        }
        let (bl, bh) = (self.bucket_of(lo), self.bucket_of(hi));
        let mut count = 0.0;
        for b in bl..=bh {
            let full = self.buckets[b] as f64;
            // Fractional coverage of the boundary buckets.
            let b_lo = self.min as f64 + b as f64 * self.bucket_width();
            let b_hi = b_lo + self.bucket_width();
            let covered_lo = (lo as f64).max(b_lo);
            let covered_hi = ((hi + 1) as f64).min(b_hi);
            let frac = ((covered_hi - covered_lo) / self.bucket_width()).clamp(0.0, 1.0);
            count += full * frac;
        }
        (count / self.total as f64).clamp(0.0, 1.0)
    }
}

/// Histogram-backed selectivity estimate of a predicate over `table`.
/// Integer comparisons consult equi-width histograms; everything else falls
/// back to the heuristic priors of [`ScalarExpr::estimated_selectivity`].
pub fn predicate_selectivity(table: &Table, expr: &ScalarExpr) -> f64 {
    expr.selectivity_with(&|op, l, r| {
        // col <op> literal (either orientation).
        let (col, lit, op) = match (l, r) {
            (ScalarExpr::Col(c), ScalarExpr::Lit(v)) => (*c, v, op),
            (ScalarExpr::Lit(v), ScalarExpr::Col(c)) => (*c, v, op.flipped()),
            _ => return None,
        };
        let v = lit.as_int()?;
        let h = Histogram::build(table, col)?;
        Some(match op {
            BinaryOp::Eq => h.eq_selectivity(v).max(1e-9),
            BinaryOp::Ne => (1.0 - h.eq_selectivity(v)).max(1e-9),
            BinaryOp::Lt => h.range_selectivity(None, Some(v - 1)).max(1e-9),
            BinaryOp::Le => h.range_selectivity(None, Some(v)).max(1e-9),
            BinaryOp::Gt => h.range_selectivity(Some(v + 1), None).max(1e-9),
            BinaryOp::Ge => h.range_selectivity(Some(v), None).max(1e-9),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::table_of;
    use relgo_common::Value;

    #[test]
    fn histogram_eq_and_range() {
        // 100 rows, values 0..100 uniform.
        let mut rows = Vec::new();
        for i in 0..100 {
            rows.push(vec![Value::Int(i)]);
        }
        let t = table_of("h", &[("x", DataType::Int)], rows);
        let h = Histogram::build(&t, 0).unwrap();
        // Uniform: eq ≈ 1/100, range [25, 74] ≈ 0.5.
        assert!((h.eq_selectivity(50) - 0.01).abs() < 0.01);
        let r = h.range_selectivity(Some(25), Some(74));
        assert!((r - 0.5).abs() < 0.1, "got {r}");
        assert_eq!(h.eq_selectivity(1_000), 0.0);
        assert_eq!(h.range_selectivity(Some(200), None), 0.0);
        assert!((h.range_selectivity(None, None) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_captures_skew() {
        // 90 values at 0, 10 spread over 1..=1000.
        let mut rows = vec![vec![Value::Int(0)]; 90];
        for i in 0..10 {
            rows.push(vec![Value::Int(1 + i * 100)]);
        }
        let t = table_of("s", &[("x", DataType::Int)], rows);
        let h = Histogram::build(&t, 0).unwrap();
        // The hot value dominates its bucket.
        assert!(h.eq_selectivity(0) > 10.0 * h.eq_selectivity(901));
        // Heuristic priors can't see this; histograms can.
        let sel_tail = h.range_selectivity(Some(500), None);
        assert!(sel_tail < 0.2, "tail is sparse: {sel_tail}");
    }

    #[test]
    fn histogram_rejects_non_integer_columns() {
        let t = table_of("s", &[("x", DataType::Str)], vec![vec!["a".into()]]);
        assert!(Histogram::build(&t, 0).is_none());
        let empty = table_of("e", &[("x", DataType::Int)], vec![]);
        assert!(Histogram::build(&empty, 0).is_none());
    }

    #[test]
    fn predicate_selectivity_uses_histograms() {
        let mut rows = Vec::new();
        for i in 0..100 {
            rows.push(vec![Value::Int(i % 10), Value::str(format!("s{i}"))]);
        }
        let t = table_of("p", &[("x", DataType::Int), ("s", DataType::Str)], rows);
        // x = 3 → exactly 10%.
        let sel = predicate_selectivity(&t, &ScalarExpr::col_eq(0, 3i64));
        assert!((sel - 0.1).abs() < 0.05, "got {sel}");
        // x >= 8 → 20%.
        let sel = predicate_selectivity(&t, &ScalarExpr::col_cmp(0, BinaryOp::Ge, 8i64));
        assert!((sel - 0.2).abs() < 0.1, "got {sel}");
        // String predicates fall back to priors.
        let sel = predicate_selectivity(
            &t,
            &ScalarExpr::StartsWith(Box::new(ScalarExpr::Col(1)), "s1".into()),
        );
        assert!(sel > 0.0 && sel <= 1.0);
        // Conjunction multiplies.
        let a = ScalarExpr::col_eq(0, 3i64);
        let b = ScalarExpr::col_cmp(0, BinaryOp::Ge, 8i64);
        let sel_and = predicate_selectivity(&t, &a.clone().and(b.clone()));
        assert!(sel_and <= predicate_selectivity(&t, &a));
    }
}
