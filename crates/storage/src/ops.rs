//! Baseline relational operators.
//!
//! These are the physical building blocks of the *relational* part of every
//! plan: filter, project, hash join (build/probe), rid join (GRainDB's
//! predefined join primitive at the relational level) and ungrouped
//! aggregation. The graph-specific operators (EXPAND, EXPAND_INTERSECT, …)
//! live in `relgo-exec`; the test oracles reuse the functions here.

use crate::column::Column;
use crate::directory::Directory;
use crate::expr::ScalarExpr;
use crate::table::Table;
use relgo_common::{FxHashMap, RelGoError, Result, RowId, Schema, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// σ — keep the rows of `input` satisfying `predicate`.
pub fn filter(input: &Table, predicate: &ScalarExpr) -> Result<Table> {
    let rows = predicate.filter(input)?;
    Ok(input.take(&rows))
}

/// π — project `input` to the columns at `cols`.
pub fn project(input: &Table, cols: &[usize]) -> Result<Table> {
    check_projection(input, cols)?;
    Ok(input.project(cols))
}

/// [`project`] for an operator's input, which the operator is often the only
/// holder of — the table its child has just built. The columns are then
/// moved into the result; a table someone else still holds, or a projection
/// that lists a column twice, is copied as [`project`] copies it.
pub fn project_arc(mut input: Arc<Table>, cols: &[usize]) -> Result<Table> {
    check_projection(&input, cols)?;
    let repeats = (1..cols.len()).any(|i| cols[..i].contains(&cols[i]));
    if !repeats {
        match Arc::try_unwrap(input) {
            Ok(owned) => return Ok(owned.into_projection(cols)),
            Err(shared) => input = shared,
        }
    }
    Ok(input.project(cols))
}

fn check_projection(input: &Table, cols: &[usize]) -> Result<()> {
    match cols.iter().find(|&&c| c >= input.num_columns()) {
        None => Ok(()),
        Some(c) => Err(RelGoError::query(format!(
            "projection column {c} out of bounds ({} columns)",
            input.num_columns()
        ))),
    }
}

/// Join keys: pairs of (left column, right column) compared with equality.
pub type JoinKeys = [(usize, usize)];

fn key_of(table: &Table, row: RowId, cols: &[usize]) -> Option<Vec<Value>> {
    let mut key = Vec::with_capacity(cols.len());
    for &c in cols {
        let v = table.value(row, c);
        if v.is_null() {
            return None; // SQL equi-join drops NULL keys.
        }
        key.push(v);
    }
    Some(key)
}

/// The build side of an equi-join on one `i64` key: a directory from key to
/// bucket (the one [`crate::KeyIndex`] stands on — direct-addressed when
/// the keys are dense in their range, hashed otherwise; buckets numbered in
/// order of first appearance), and the build rows of every bucket in input
/// order (a CSR filled by a stable counting sort). Shared by [`hash_join`]
/// and the executor's chunk join.
#[derive(Debug)]
pub struct JoinTable {
    directory: Directory,
    /// Bucket `b` holds `rows[offsets[b]..offsets[b + 1]]`.
    offsets: Vec<u32>,
    rows: Vec<RowId>,
}

impl JoinTable {
    /// Index build rows `0..n` by `key(row)`; a `None` key (SQL NULL)
    /// joins nothing.
    pub fn build(n: usize, key: impl Fn(usize) -> Option<i64>) -> Result<JoinTable> {
        if RowId::try_from(n).is_err() {
            return Err(RelGoError::ResourceExhausted(format!(
                "join build side of {n} rows exceeds the row id range"
            )));
        }
        let mut directory = Directory::for_keys((0..n).filter_map(&key));
        // Count each bucket one slot up, so the running sum turns counts
        // into start offsets.
        let mut offsets = vec![0u32];
        for k in (0..n).filter_map(&key) {
            let fresh = offsets.len() as u32 - 1;
            let b = directory.get_or_insert(k, fresh);
            if b == fresh {
                offsets.push(0);
            }
            offsets[b as usize + 1] += 1;
        }
        for b in 1..offsets.len() {
            offsets[b] += offsets[b - 1];
        }
        let mut next = offsets.clone();
        let mut rows = vec![0; offsets[offsets.len() - 1] as usize];
        for i in 0..n {
            if let Some(b) = key(i).and_then(|k| directory.get(k)) {
                rows[next[b as usize] as usize] = i as RowId;
                next[b as usize] += 1;
            }
        }
        Ok(JoinTable {
            directory,
            offsets,
            rows,
        })
    }

    /// The build rows whose key equals `key`, in input order.
    #[inline]
    pub fn probe(&self, key: i64) -> &[RowId] {
        match self.directory.get(key) {
            Some(b) => {
                let b = b as usize;
                &self.rows[self.offsets[b] as usize..self.offsets[b + 1] as usize]
            }
            None => &[],
        }
    }
}

/// ⋈ — equi hash join. Builds on the smaller side is the *optimizer's* job;
/// this operator always builds on `left`. Output is probe-major: `right`
/// rows in order, each with its `left` matches in order.
pub fn hash_join(left: &Table, right: &Table, keys: &JoinKeys) -> Result<Table> {
    // One integer key column a side: read the cells as they are.
    if let [(l, r)] = keys {
        if let (Some((ld, lvalid)), Some((rd, rvalid))) =
            (left.column(*l).as_ints(), right.column(*r).as_ints())
        {
            return join_on(
                left,
                right,
                |i| lvalid.is_none_or(|m| m[i]).then(|| ld[i]),
                |i| rvalid.is_none_or(|m| m[i]).then(|| rd[i]),
            );
        }
    }
    // Any other key: number the build side's distinct key tuples; a probe
    // tuple the build side never saw joins nothing.
    let lcols: Vec<usize> = keys.iter().map(|&(l, _)| l).collect();
    let rcols: Vec<usize> = keys.iter().map(|&(_, r)| r).collect();
    let mut ids: FxHashMap<Vec<Value>, i64> = FxHashMap::default();
    let lkeys: Vec<Option<i64>> = (0..left.num_rows() as RowId)
        .map(|r| {
            let next = ids.len() as i64;
            key_of(left, r, &lcols).map(|k| *ids.entry(k).or_insert(next))
        })
        .collect();
    let rkeys: Vec<Option<i64>> = (0..right.num_rows() as RowId)
        .map(|r| key_of(right, r, &rcols).and_then(|k| ids.get(&k).copied()))
        .collect();
    join_on(left, right, |i| lkeys[i], |i| rkeys[i])
}

/// Build on `left`, probe with `right`, gather the matched pairs.
fn join_on(
    left: &Table,
    right: &Table,
    lkey: impl Fn(usize) -> Option<i64>,
    rkey: impl Fn(usize) -> Option<i64>,
) -> Result<Table> {
    let table = JoinTable::build(left.num_rows(), lkey)?;
    let mut lrows = Vec::new();
    let mut rrows = Vec::new();
    for r in 0..right.num_rows() {
        if let Some(k) = rkey(r) {
            let matches = table.probe(k);
            lrows.extend_from_slice(matches);
            rrows.resize(rrows.len() + matches.len(), r as RowId);
        }
    }
    concat_rows(left, right, &lrows, &rrows)
}

fn concat_rows(left: &Table, right: &Table, lrows: &[RowId], rrows: &[RowId]) -> Result<Table> {
    let gather = |t: &Table, rows: &[RowId]| -> Vec<Column> {
        (0..t.num_columns())
            .map(|i| t.column(i).take(rows))
            .collect()
    };
    let mut columns = gather(left, lrows);
    columns.extend(gather(right, rrows));
    Table::from_columns(
        format!("{}_join_{}", left.name(), right.name()),
        left.schema().join(right.schema()),
        columns,
    )
}

/// Aggregate functions for ungrouped aggregation (what JOB's `SELECT MIN(..)`
/// queries need).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `MIN(col)`
    Min,
    /// `MAX(col)`
    Max,
    /// `COUNT(*)` (column ignored)
    Count,
}

/// Ungrouped aggregation producing a single row.
pub fn aggregate(input: &Table, aggs: &[(AggFunc, usize)]) -> Result<Table> {
    use relgo_common::{DataType, Field};
    let mut fields = Vec::with_capacity(aggs.len());
    let mut row = Vec::with_capacity(aggs.len());
    for (i, &(func, col)) in aggs.iter().enumerate() {
        match func {
            AggFunc::Count => {
                fields.push(Field::new(format!("count_{i}"), DataType::Int));
                row.push(Value::Int(input.num_rows() as i64));
            }
            AggFunc::Min | AggFunc::Max => {
                if col >= input.num_columns() {
                    return Err(RelGoError::query(format!(
                        "aggregate column {col} out of bounds"
                    )));
                }
                let c = input.column(col);
                let wanted = if func == AggFunc::Min {
                    Ordering::Less
                } else {
                    Ordering::Greater
                };
                let valid = c.validity();
                let best = match c {
                    Column::Int(v, _) | Column::Date(v, _) => {
                        extreme(v.len(), valid, wanted, |r| v[r])
                    }
                    Column::Float(v, _) => extreme(v.len(), valid, wanted, |r| v[r]),
                    Column::Bool(v, _) => extreme(v.len(), valid, wanted, |r| v[r]),
                    Column::Str(s, _) => extreme(s.codes().len(), valid, wanted, |r| s.str_at(r)),
                };
                let prefix = if func == AggFunc::Min { "min" } else { "max" };
                fields.push(Field::new(
                    format!("{prefix}_{}", input.schema().field(col).name),
                    input.schema().field(col).dtype,
                ));
                row.push(best.map_or(Value::Null, |r| c.get(r as RowId)));
            }
        }
    }
    let schema = Schema::new(fields)?;
    let mut b = crate::table::TableBuilder::new("agg", schema);
    b.push_row(row)?;
    Ok(b.finish())
}

/// The row holding MIN (`wanted` = `Less`) or MAX (`Greater`) of the
/// non-NULL cells `0..n`, folded as [`Value::try_cmp`] folds them: the
/// first cell seeds the result, even a NaN, and a later cell replaces it
/// only when it compares strictly `wanted`.
fn extreme<T: PartialOrd>(
    n: usize,
    valid: Option<&[bool]>,
    wanted: Ordering,
    cell: impl Fn(usize) -> T,
) -> Option<usize> {
    let mut best: Option<(usize, T)> = None;
    for r in (0..n).filter(|&r| valid.is_none_or(|m| m[r])) {
        let v = cell(r);
        match &best {
            Some((_, b)) if v.partial_cmp(b) != Some(wanted) => {}
            _ => best = Some((r, v)),
        }
    }
    best.map(|(r, _)| r)
}

/// Sort key: column index + direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    /// Column to sort by.
    pub column: usize,
    /// Whether to sort descending.
    pub descending: bool,
}

/// ORDER BY — stable multi-key sort (NULLs first ascending, last
/// descending, via the total value order).
pub fn sort(input: &Table, keys: &[SortKey]) -> Result<Table> {
    for k in keys {
        if k.column >= input.num_columns() {
            return Err(RelGoError::query(format!(
                "sort column {} out of bounds ({} columns)",
                k.column,
                input.num_columns()
            )));
        }
    }
    let mut order: Vec<RowId> = (0..input.num_rows() as RowId).collect();
    order.sort_by(|&a, &b| {
        for k in keys {
            let va = input.value(a, k.column);
            let vb = input.value(b, k.column);
            let ord = if k.descending {
                vb.cmp(&va)
            } else {
                va.cmp(&vb)
            };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        a.cmp(&b) // stability tie-break
    });
    Ok(input.take(&order))
}

/// LIMIT — keep the first `n` rows.
pub fn limit(input: &Table, n: usize) -> Table {
    let keep: Vec<RowId> = (0..input.num_rows().min(n) as RowId).collect();
    input.take(&keep)
}

/// Deduplicate full rows (DISTINCT).
pub fn distinct(input: &Table) -> Table {
    let mut seen: std::collections::HashSet<Vec<Value>> = std::collections::HashSet::new();
    let mut keep = Vec::new();
    for r in 0..input.num_rows() as RowId {
        if seen.insert(input.row(r)) {
            keep.push(r);
        }
    }
    input.take(&keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::table_of;
    use relgo_common::DataType;

    fn person() -> Table {
        table_of(
            "Person",
            &[("person_id", DataType::Int), ("name", DataType::Str)],
            vec![
                vec![10.into(), "Tom".into()],
                vec![20.into(), "Bob".into()],
                vec![30.into(), "Eve".into()],
            ],
        )
    }

    fn likes() -> Table {
        table_of(
            "Likes",
            &[("pid", DataType::Int), ("mid", DataType::Int)],
            vec![
                vec![10.into(), 100.into()],
                vec![20.into(), 100.into()],
                vec![20.into(), 200.into()],
                vec![99.into(), 300.into()], // dangling
            ],
        )
    }

    #[test]
    fn filter_project() {
        let t = person();
        let f = filter(&t, &ScalarExpr::col_eq(1, "Bob")).unwrap();
        assert_eq!(f.num_rows(), 1);
        let p = project(&f, &[1]).unwrap();
        assert_eq!(p.value(0, 0), Value::str("Bob"));
        assert!(project(&t, &[9]).is_err());
    }

    #[test]
    fn project_arc_moves_only_what_nobody_else_can_see() {
        let buffer = |t: &Table, c: usize| t.column(c).as_ints().unwrap().0.as_ptr();
        for cols in [&[1, 0][..], &[1], &[], &[0, 0], &[1, 0, 1]] {
            let want = project(&likes(), cols).unwrap();
            let repeats = cols.len() > 2 || cols == [0, 0];
            // The only holder: the columns are moved unless one is listed twice.
            let owned = Arc::new(likes());
            let before: Vec<_> = cols.iter().map(|&c| buffer(&owned, c)).collect();
            let got = project_arc(owned, cols).unwrap();
            assert!(got.bit_identical(&want), "{cols:?}");
            assert_eq!(got.schema(), want.schema());
            for (i, &was) in before.iter().enumerate() {
                assert_eq!(buffer(&got, i) == was, !repeats, "{cols:?}[{i}]");
            }
            // A second holder keeps its table, cell for cell.
            let shared = Arc::new(likes());
            let got = project_arc(Arc::clone(&shared), cols).unwrap();
            assert!(got.bit_identical(&want), "{cols:?}");
            assert!(shared.bit_identical(&likes()));
            for (i, &c) in cols.iter().enumerate() {
                assert_ne!(buffer(&got, i), buffer(&shared, c));
            }
        }
        // Out of range is `project`'s error, whoever holds the table.
        let want = project(&likes(), &[0, 2]).unwrap_err().to_string();
        assert_eq!(
            want,
            "query error: projection column 2 out of bounds (2 columns)"
        );
        let shared = Arc::new(likes());
        for input in [Arc::new(likes()), Arc::clone(&shared)] {
            assert_eq!(project_arc(input, &[0, 2]).unwrap_err().to_string(), want);
        }
    }

    #[test]
    fn hash_join_matches_pairs() {
        let j = hash_join(&person(), &likes(), &[(0, 0)]).unwrap();
        // Tom→1 like, Bob→2 likes, Eve→0, dangling dropped.
        assert_eq!(j.num_rows(), 3);
        assert_eq!(j.num_columns(), 4);
        let names: Vec<Value> = (0..3).map(|r| j.value(r, 1)).collect();
        assert!(names.contains(&Value::str("Tom")));
        assert!(names.contains(&Value::str("Bob")));
    }

    #[test]
    fn hash_join_multi_key() {
        let a = table_of(
            "a",
            &[("x", DataType::Int), ("y", DataType::Int)],
            vec![vec![1.into(), 1.into()], vec![1.into(), 2.into()]],
        );
        let b = table_of(
            "b",
            &[("x", DataType::Int), ("y", DataType::Int)],
            vec![vec![1.into(), 1.into()], vec![1.into(), 3.into()]],
        );
        let j = hash_join(&a, &b, &[(0, 0), (1, 1)]).unwrap();
        assert_eq!(j.num_rows(), 1);
    }

    #[test]
    fn null_keys_never_join() {
        let a = table_of(
            "a",
            &[("x", DataType::Int)],
            vec![vec![Value::Null], vec![1.into()]],
        );
        let b = table_of(
            "b",
            &[("x", DataType::Int)],
            vec![vec![Value::Null], vec![1.into()]],
        );
        let j = hash_join(&a, &b, &[(0, 0)]).unwrap();
        assert_eq!(j.num_rows(), 1);
    }

    #[test]
    fn every_key_shape_joins_like_the_nested_loop() {
        let of = |name: &str, dtype, keys: Vec<Value>| {
            let rows = keys
                .into_iter()
                .zip(0..)
                .map(|(k, i)| vec![k, Value::Int(i)]);
            table_of(
                name,
                &[("k", dtype), ("row", DataType::Int)],
                rows.collect(),
            )
        };
        let ints = |keys: &[i64]| keys.iter().map(|&k| Value::Int(k)).collect::<Vec<_>>();
        let cases = [
            // Dense keys (direct-address directory), repeated on both sides.
            (
                of("l", DataType::Int, ints(&[3, 1, 3, 2, 1])),
                of("r", DataType::Int, ints(&[1, 3, 9, 3])),
            ),
            // Scattered and extreme keys (hashed directory), a NULL each.
            (
                of(
                    "l",
                    DataType::Int,
                    [ints(&[i64::MAX, -7, i64::MIN, -7]), vec![Value::Null]].concat(),
                ),
                of(
                    "r",
                    DataType::Date,
                    vec![Value::Date(-7), Value::Null, Value::Date(i64::MIN)],
                ),
            ),
            // Keys that are not integers go through the numbered tuples.
            (
                of("l", DataType::Str, vec!["a".into(), "b".into(), "a".into()]),
                of("r", DataType::Str, vec!["b".into(), "a".into(), "z".into()]),
            ),
        ];
        for (l, r) in &cases {
            let j = hash_join(l, r, &[(0, 0)]).unwrap();
            let got: Vec<(Value, Value)> = (0..j.num_rows() as RowId)
                .map(|i| (j.value(i, 1), j.value(i, 3)))
                .collect();
            // Probe-major, build rows in input order; NULL = NULL is not a match.
            let mut want = Vec::new();
            for rr in 0..r.num_rows() as RowId {
                for lr in 0..l.num_rows() as RowId {
                    let (lk, rk) = (l.value(lr, 0), r.value(rr, 0));
                    if !lk.is_null() && lk == rk {
                        want.push((l.value(lr, 1), r.value(rr, 1)));
                    }
                }
            }
            assert!(!want.is_empty());
            assert_eq!(got, want, "{} ⋈ {}", l.schema(), r.schema());
        }
    }

    #[test]
    fn join_schema_disambiguates() {
        let j = hash_join(&likes(), &likes(), &[(0, 0)]).unwrap();
        assert!(j.schema().index_of("pid").is_ok());
        assert!(j.schema().index_of("pid_1").is_ok());
    }

    #[test]
    fn aggregates() {
        let t = person();
        let a = aggregate(
            &t,
            &[(AggFunc::Min, 1), (AggFunc::Max, 0), (AggFunc::Count, 0)],
        )
        .unwrap();
        assert_eq!(a.num_rows(), 1);
        assert_eq!(a.value(0, 0), Value::str("Bob"));
        assert_eq!(a.value(0, 1), Value::Int(30));
        assert_eq!(a.value(0, 2), Value::Int(3));
    }

    #[test]
    fn aggregate_of_empty_is_null_and_zero() {
        let t = person().take(&[]);
        let a = aggregate(&t, &[(AggFunc::Min, 1), (AggFunc::Count, 0)]).unwrap();
        assert_eq!(a.value(0, 0), Value::Null);
        assert_eq!(a.value(0, 1), Value::Int(0));
    }

    #[test]
    fn sort_orders_multi_key_and_is_stable() {
        let t = table_of(
            "s",
            &[("a", DataType::Int), ("b", DataType::Str)],
            vec![
                vec![2.into(), "x".into()],
                vec![1.into(), "z".into()],
                vec![2.into(), "a".into()],
                vec![1.into(), "a".into()],
            ],
        );
        let sorted = sort(
            &t,
            &[
                SortKey {
                    column: 0,
                    descending: false,
                },
                SortKey {
                    column: 1,
                    descending: true,
                },
            ],
        )
        .unwrap();
        let rows: Vec<(i64, String)> = (0..4)
            .map(|r| {
                (
                    sorted.value(r, 0).as_int().unwrap(),
                    sorted.value(r, 1).as_str().unwrap().to_string(),
                )
            })
            .collect();
        assert_eq!(
            rows,
            vec![
                (1, "z".into()),
                (1, "a".into()),
                (2, "x".into()),
                (2, "a".into())
            ]
        );
        assert!(sort(
            &t,
            &[SortKey {
                column: 9,
                descending: false
            }]
        )
        .is_err());
    }

    #[test]
    fn sort_handles_nulls_deterministically() {
        let t = table_of(
            "n",
            &[("a", DataType::Int)],
            vec![vec![2.into()], vec![Value::Null], vec![1.into()]],
        );
        let asc = sort(
            &t,
            &[SortKey {
                column: 0,
                descending: false,
            }],
        )
        .unwrap();
        assert_eq!(asc.value(0, 0), Value::Null, "NULLs first ascending");
        let desc = sort(
            &t,
            &[SortKey {
                column: 0,
                descending: true,
            }],
        )
        .unwrap();
        assert_eq!(desc.value(2, 0), Value::Null, "NULLs last descending");
    }

    #[test]
    fn limit_truncates() {
        let t = person();
        assert_eq!(limit(&t, 2).num_rows(), 2);
        assert_eq!(limit(&t, 10).num_rows(), 3);
        assert_eq!(limit(&t, 0).num_rows(), 0);
    }

    #[test]
    fn distinct_removes_duplicates() {
        let t = table_of(
            "d",
            &[("x", DataType::Int)],
            vec![vec![1.into()], vec![2.into()], vec![1.into()]],
        );
        assert_eq!(distinct(&t).num_rows(), 2);
    }
}
