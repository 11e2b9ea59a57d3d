//! Scalar expression AST and evaluation.
//!
//! Predicates in SPJM queries — both the relational σ and the per-pattern-
//! element constraints produced by `FilterIntoMatchRule` — are built from
//! [`ScalarExpr`]. [`ScalarExpr::eval`] is the scalar, row-at-a-time
//! definition (what the oracle runs); [`ScalarExpr::select`] is the batch
//! driver every operator filters through: it walks the expression once and
//! runs typed kernels over column slices, with a selection vector threaded
//! through `AND`. The selectivity estimator feeds the relational cost models.

use crate::column::Column;
use crate::table::Table;
use relgo_common::select::{select, split_into};
use relgo_common::{RelGoError, Result, RowId, Value};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// Binary comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinaryOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl BinaryOp {
    /// Whether an operand pair in order `ord` satisfies the operator, with
    /// the operator decided once: a bit per [`Ordering`], so a row's outcome
    /// is a shift, not a branch.
    #[inline]
    fn accepts(self) -> impl Fn(Ordering) -> bool + Copy {
        // Bit `ord + 1`: Less, Equal, Greater.
        let bits: u8 = match self {
            BinaryOp::Eq => 0b010,
            BinaryOp::Ne => 0b101,
            BinaryOp::Lt => 0b001,
            BinaryOp::Le => 0b011,
            BinaryOp::Gt => 0b100,
            BinaryOp::Ge => 0b110,
        };
        move |ord| bits >> (ord as i8 + 1) & 1 == 1
    }

    /// The operator with its operands swapped (`lit < col` is `col > lit`).
    pub(crate) fn flipped(self) -> BinaryOp {
        match self {
            BinaryOp::Lt => BinaryOp::Gt,
            BinaryOp::Le => BinaryOp::Ge,
            BinaryOp::Gt => BinaryOp::Lt,
            BinaryOp::Ge => BinaryOp::Le,
            eq_or_ne => eq_or_ne,
        }
    }

    /// Rough selectivity prior for this comparison (equality is selective,
    /// ranges are not) — the classic System-R constants.
    pub fn default_selectivity(self) -> f64 {
        match self {
            BinaryOp::Eq => 0.005,
            BinaryOp::Ne => 0.995,
            _ => 0.33,
        }
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Eq => "=",
            BinaryOp::Ne => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A scalar expression over the columns of one row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScalarExpr {
    /// Reference to column `i` of the input schema.
    Col(usize),
    /// A literal value.
    Lit(Value),
    /// Comparison of two sub-expressions.
    Cmp(BinaryOp, Box<ScalarExpr>, Box<ScalarExpr>),
    /// Logical conjunction.
    And(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Logical disjunction.
    Or(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Logical negation.
    Not(Box<ScalarExpr>),
    /// String prefix test (`name STARTS WITH 'B'`).
    StartsWith(Box<ScalarExpr>, String),
    /// Substring containment test (`keyword CONTAINS 'title'`).
    Contains(Box<ScalarExpr>, String),
    /// NULL test.
    IsNull(Box<ScalarExpr>),
    /// Membership in a literal list (`country IN ('x','y')`).
    InList(Box<ScalarExpr>, Vec<Value>),
}

impl ScalarExpr {
    /// `column = literal` shorthand.
    pub fn col_eq(col: usize, v: impl Into<Value>) -> Self {
        ScalarExpr::Cmp(
            BinaryOp::Eq,
            Box::new(ScalarExpr::Col(col)),
            Box::new(ScalarExpr::Lit(v.into())),
        )
    }

    /// `column <op> literal` shorthand.
    pub fn col_cmp(col: usize, op: BinaryOp, v: impl Into<Value>) -> Self {
        ScalarExpr::Cmp(
            op,
            Box::new(ScalarExpr::Col(col)),
            Box::new(ScalarExpr::Lit(v.into())),
        )
    }

    /// Conjunction helper.
    pub fn and(self, other: ScalarExpr) -> Self {
        ScalarExpr::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: ScalarExpr) -> Self {
        ScalarExpr::Or(Box::new(self), Box::new(other))
    }

    /// Conjoin an optional predicate with another.
    pub fn conjoin(a: Option<ScalarExpr>, b: ScalarExpr) -> ScalarExpr {
        match a {
            Some(a) => a.and(b),
            None => b,
        }
    }

    /// Evaluate to a [`Value`] for row `row` of `table`.
    pub fn eval(&self, table: &Table, row: RowId) -> Result<Value> {
        match self {
            ScalarExpr::Col(i) => Ok(column(table, *i)?.get(row)),
            ScalarExpr::Lit(v) => Ok(v.clone()),
            ScalarExpr::Cmp(op, l, r) => {
                let lv = l.eval(table, row)?;
                let rv = r.eval(table, row)?;
                Ok(match lv.try_cmp(&rv) {
                    Some(ord) => Value::Bool(op.accepts()(ord)),
                    None => Value::Null,
                })
            }
            ScalarExpr::And(l, r) => {
                // SQL three-valued AND with short circuit on FALSE.
                match l.eval(table, row)? {
                    Value::Bool(false) => Ok(Value::Bool(false)),
                    lv => match (lv, r.eval(table, row)?) {
                        (Value::Bool(true), Value::Bool(b)) => Ok(Value::Bool(b)),
                        (_, Value::Bool(false)) => Ok(Value::Bool(false)),
                        _ => Ok(Value::Null),
                    },
                }
            }
            ScalarExpr::Or(l, r) => match l.eval(table, row)? {
                Value::Bool(true) => Ok(Value::Bool(true)),
                lv => match (lv, r.eval(table, row)?) {
                    (Value::Bool(false), Value::Bool(b)) => Ok(Value::Bool(b)),
                    (_, Value::Bool(true)) => Ok(Value::Bool(true)),
                    _ => Ok(Value::Null),
                },
            },
            ScalarExpr::Not(e) => Ok(match e.eval(table, row)? {
                Value::Bool(b) => Value::Bool(!b),
                _ => Value::Null,
            }),
            ScalarExpr::StartsWith(e, prefix) => Ok(match e.eval(table, row)? {
                Value::Str(s) => Value::Bool(s.starts_with(prefix.as_str())),
                Value::Null => Value::Null,
                _ => Value::Bool(false),
            }),
            ScalarExpr::Contains(e, needle) => Ok(match e.eval(table, row)? {
                Value::Str(s) => Value::Bool(s.contains(needle.as_str())),
                Value::Null => Value::Null,
                _ => Value::Bool(false),
            }),
            ScalarExpr::IsNull(e) => Ok(Value::Bool(e.eval(table, row)?.is_null())),
            ScalarExpr::InList(e, list) => {
                let v = e.eval(table, row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                Ok(Value::Bool(list.contains(&v)))
            }
        }
    }

    /// Evaluate as a filter predicate: NULL counts as FALSE (SQL WHERE).
    pub fn matches(&self, table: &Table, row: RowId) -> Result<bool> {
        Ok(matches!(self.eval(table, row)?, Value::Bool(true)))
    }

    /// Batch filter: all row ids of `table` satisfying the predicate.
    pub fn filter(&self, table: &Table) -> Result<Vec<RowId>> {
        self.select(table, None)
    }

    /// The batch predicate driver: the entries of `rows` (every row of
    /// `table` when `None`), in order and with repeats, for which
    /// [`ScalarExpr::matches`] holds. It evaluates a sub-expression on
    /// exactly the rows the scalar short-circuit would reach, so it also
    /// fails exactly when some row's scalar evaluation would; only which of
    /// several distinct errors is reported may differ.
    pub fn select(&self, table: &Table, rows: Option<&[RowId]>) -> Result<Vec<RowId>> {
        let yes = self.select_positions(table, rows)?;
        Ok(match rows {
            Some(rows) => yes.into_iter().map(|p| rows[p as usize]).collect(),
            None => yes,
        })
    }

    /// [`ScalarExpr::select`] by position: the ascending indices into
    /// `rows` (row ids of `table` when `None`) of the entries that pass.
    pub fn select_positions(&self, table: &Table, rows: Option<&[RowId]>) -> Result<Vec<u32>> {
        let input = Input {
            table,
            rows,
            n: rows.map_or(table.num_rows(), <[RowId]>::len),
        };
        Ok(self.split(&input, None)?.yes)
    }

    /// Where, within the selection `sel` (`None` = every position), this
    /// predicate is TRUE and where it is NULL — SQL three-valued logic, so
    /// `OR`/`NOT` above a NULL stay exact.
    fn split(&self, input: &Input<'_>, sel: Option<&[u32]>) -> Result<Split> {
        if sel.map_or(input.n, <[u32]>::len) == 0 {
            return Ok(Split::default());
        }
        let all = || match sel {
            Some(sel) => Cow::Borrowed(sel),
            None => Cow::Owned((0..input.n as u32).collect()),
        };
        match self {
            ScalarExpr::And(l, r) => {
                // `r` runs where `l` is not FALSE; of those rows the result
                // is TRUE where both are, NULL where neither is FALSE.
                let l = l.split(input, sel)?;
                if l.unknown.is_empty() {
                    // No NULL to carry: the selection vector is the answer.
                    return r.split(input, Some(&l.yes));
                }
                let r = r.split(input, Some(&merge(&l.yes, &l.unknown, UNION)))?;
                Ok(Split {
                    yes: merge(&r.yes, &l.unknown, MINUS),
                    unknown: merge(&r.unknown, &merge(&r.yes, &l.unknown, BOTH), UNION),
                })
            }
            ScalarExpr::Or(l, r) => {
                // `r` runs where `l` is not TRUE; a NULL on either side
                // survives unless `r` is TRUE.
                let l = l.split(input, sel)?;
                let r = r.split(input, Some(&merge(&all(), &l.yes, MINUS)))?;
                Ok(Split {
                    unknown: merge(&merge(&l.unknown, &r.unknown, UNION), &r.yes, MINUS),
                    yes: merge(&l.yes, &r.yes, UNION),
                })
            }
            ScalarExpr::Not(e) => {
                let e = e.split(input, sel)?;
                let not_false = merge(&e.yes, &e.unknown, UNION);
                Ok(Split {
                    yes: merge(&all(), &not_false, MINUS),
                    unknown: e.unknown,
                })
            }
            leaf => match leaf.kernel(input, sel)? {
                Some(split) => Ok(split),
                // No typed kernel for this shape: the scalar definition,
                // row by row. Anything but a boolean counts as NULL, as it
                // does under `AND`/`OR`/`NOT` in `eval`.
                None => {
                    let mut out = Split::default();
                    for &p in all().iter() {
                        match leaf.eval(input.table, input.row(p) as RowId)? {
                            Value::Bool(true) => out.yes.push(p),
                            Value::Bool(false) => {}
                            _ => out.unknown.push(p),
                        }
                    }
                    Ok(out)
                }
            },
        }
    }

    /// The typed, allocation-free kernel for a leaf over one column and
    /// literals; `None` for every other shape.
    fn kernel(&self, input: &Input<'_>, sel: Option<&[u32]>) -> Result<Option<Split>> {
        use ScalarExpr::{Cmp, Col, Contains, InList, IsNull, Lit, StartsWith};
        let col = |e: &ScalarExpr| match e {
            Col(c) => column(input.table, *c).map(Some),
            _ => Ok(None),
        };
        Ok(match self {
            Cmp(op, l, r) => match (&**l, &**r) {
                (l, Lit(v)) => col(l)?.map(|c| compare(c, *op, v, input, sel)),
                (Lit(v), r) => col(r)?.map(|c| compare(c, op.flipped(), v, input, sel)),
                _ => None,
            },
            StartsWith(e, prefix) => {
                col(e)?.map(|c| strings(c, input, sel, |s| s.starts_with(prefix.as_str())))
            }
            Contains(e, needle) => {
                col(e)?.map(|c| strings(c, input, sel, |s| s.contains(needle.as_str())))
            }
            IsNull(e) => col(e)?.map(|c| match c.validity() {
                Some(valid) => input.scan(sel, None, |r| !valid[r]),
                None => Split::default(),
            }),
            // List entries of another type never equal a cell — except a
            // FLOAT entry an INT cell, which is left to the scalar path.
            InList(e, list) => match col(e)? {
                Some(Column::Int(..)) if list.iter().any(|v| matches!(v, Value::Float(_))) => None,
                Some(c @ (Column::Int(d, _) | Column::Date(d, _))) => {
                    let ints: Vec<i64> = list.iter().filter_map(Value::as_int).collect();
                    Some(input.scan(sel, c.validity(), |r| ints.contains(&d[r])))
                }
                Some(c @ Column::Str(..)) => {
                    let strs: Vec<&str> = list.iter().filter_map(Value::as_str).collect();
                    Some(strings(c, input, sel, |s| strs.contains(&s)))
                }
                _ => None,
            },
            _ => None,
        })
    }

    /// Remap column references through `mapping[i] = new index of old col i`.
    pub fn remap_columns(&self, mapping: &dyn Fn(usize) -> usize) -> ScalarExpr {
        match self {
            ScalarExpr::Col(i) => ScalarExpr::Col(mapping(*i)),
            ScalarExpr::Lit(v) => ScalarExpr::Lit(v.clone()),
            ScalarExpr::Cmp(op, l, r) => ScalarExpr::Cmp(
                *op,
                Box::new(l.remap_columns(mapping)),
                Box::new(r.remap_columns(mapping)),
            ),
            ScalarExpr::And(l, r) => ScalarExpr::And(
                Box::new(l.remap_columns(mapping)),
                Box::new(r.remap_columns(mapping)),
            ),
            ScalarExpr::Or(l, r) => ScalarExpr::Or(
                Box::new(l.remap_columns(mapping)),
                Box::new(r.remap_columns(mapping)),
            ),
            ScalarExpr::Not(e) => ScalarExpr::Not(Box::new(e.remap_columns(mapping))),
            ScalarExpr::StartsWith(e, p) => {
                ScalarExpr::StartsWith(Box::new(e.remap_columns(mapping)), p.clone())
            }
            ScalarExpr::Contains(e, p) => {
                ScalarExpr::Contains(Box::new(e.remap_columns(mapping)), p.clone())
            }
            ScalarExpr::IsNull(e) => ScalarExpr::IsNull(Box::new(e.remap_columns(mapping))),
            ScalarExpr::InList(e, l) => {
                ScalarExpr::InList(Box::new(e.remap_columns(mapping)), l.clone())
            }
        }
    }

    /// The set of column indices referenced by this expression.
    pub fn referenced_columns(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        self.collect_columns(&mut cols);
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            ScalarExpr::Col(i) => out.push(*i),
            ScalarExpr::Lit(_) => {}
            ScalarExpr::Cmp(_, l, r) | ScalarExpr::And(l, r) | ScalarExpr::Or(l, r) => {
                l.collect_columns(out);
                r.collect_columns(out);
            }
            ScalarExpr::Not(e)
            | ScalarExpr::StartsWith(e, _)
            | ScalarExpr::Contains(e, _)
            | ScalarExpr::IsNull(e)
            | ScalarExpr::InList(e, _) => e.collect_columns(out),
        }
    }

    /// Heuristic selectivity estimate in `(0, 1]` (no data access) — the
    /// low-order-statistics path used by the graph-agnostic optimizers.
    pub fn estimated_selectivity(&self) -> f64 {
        self.selectivity_with(&|_, _, _| None)
    }

    /// Selectivity estimate in `(0, 1]` combining independent conjuncts and
    /// disjuncts. `cmp` estimates a comparison `l <op> r`; where it returns
    /// `None` (and at every other leaf) the heuristic priors apply.
    pub(crate) fn selectivity_with(
        &self,
        cmp: &dyn Fn(BinaryOp, &ScalarExpr, &ScalarExpr) -> Option<f64>,
    ) -> f64 {
        match self {
            ScalarExpr::Col(_) | ScalarExpr::Lit(_) => 1.0,
            ScalarExpr::Cmp(op, l, r) => cmp(*op, l, r).unwrap_or_else(|| op.default_selectivity()),
            ScalarExpr::And(l, r) => (l.selectivity_with(cmp) * r.selectivity_with(cmp)).max(1e-9),
            ScalarExpr::Or(l, r) => {
                let (a, b) = (l.selectivity_with(cmp), r.selectivity_with(cmp));
                (a + b - a * b).min(1.0)
            }
            ScalarExpr::Not(e) => (1.0 - e.selectivity_with(cmp)).max(1e-9),
            ScalarExpr::StartsWith(..) => 0.05,
            ScalarExpr::Contains(..) => 0.1,
            ScalarExpr::IsNull(_) => 0.02,
            ScalarExpr::InList(_, l) => (0.005 * l.len() as f64).min(1.0),
        }
    }
}

/// Column `i` of `table`, or the error a reference to it evaluates to.
fn column(table: &Table, i: usize) -> Result<&Column> {
    if i >= table.num_columns() {
        return Err(RelGoError::query(format!(
            "column index {i} out of bounds for {}",
            table.schema()
        )));
    }
    Ok(table.column(i))
}

/// The candidates of one [`ScalarExpr::select`] call. Position `p` of `0..n`
/// stands for table row `rows[p]` (`p` itself over the whole table);
/// selections are ascending position lists, so they merge linearly even when
/// `rows` repeats or is unordered.
struct Input<'a> {
    table: &'a Table,
    rows: Option<&'a [RowId]>,
    n: usize,
}

/// Three-valued outcome over a selection: the positions where a predicate is
/// TRUE and where it is NULL, both ascending; it is FALSE everywhere else.
#[derive(Default)]
struct Split {
    yes: Vec<u32>,
    unknown: Vec<u32>,
}

impl Input<'_> {
    #[inline]
    fn row(&self, p: u32) -> usize {
        match self.rows {
            Some(rows) => rows[p as usize] as usize,
            None => p as usize,
        }
    }

    /// Split `sel` by a two-valued test of the table row; a cell that is
    /// NULL under `valid` is NULL whatever the test says of its placeholder.
    /// Without a mask that is one branch-free selection; with one, the mask
    /// is ANDed into the test and the NULL positions go through a second
    /// cursor.
    fn scan(
        &self,
        sel: Option<&[u32]>,
        valid: Option<&[bool]>,
        test: impl Fn(usize) -> bool,
    ) -> Split {
        let Some(valid) = valid else {
            let yes = match sel {
                Some(sel) => select(sel.iter().copied(), |p| test(self.row(p))),
                None => select(0..self.n as u32, |p| test(self.row(p))),
            };
            return Split {
                yes,
                unknown: Vec::new(),
            };
        };
        self.scan3(sel, |r| (valid[r] & test(r), !valid[r]))
    }

    /// Split `sel` by a three-valued test of the table row: whether it is
    /// TRUE and whether it is NULL.
    fn scan3(&self, sel: Option<&[u32]>, test: impl Fn(usize) -> (bool, bool)) -> Split {
        let mut out = Split::default();
        let (yes, unknown) = (&mut out.yes, &mut out.unknown);
        match sel {
            Some(sel) => split_into(yes, unknown, sel.iter().copied(), |p| test(self.row(p))),
            None => split_into(yes, unknown, 0..self.n as u32, |p| test(self.row(p))),
        }
        out
    }
}

/// `column <op> literal` by [`Value::try_cmp`]'s rules, dispatched once on
/// the (column type, literal type) pair instead of once per row.
fn compare(
    col: &Column,
    op: BinaryOp,
    lit: &Value,
    input: &Input<'_>,
    sel: Option<&[u32]>,
) -> Split {
    let test = op.accepts();
    let valid = col.validity();
    // A float comparison is NULL where either side is NaN, as well as where
    // the cell is.
    let partial = |ord: Option<Ordering>, r: usize| {
        let known = valid.is_none_or(|m| m[r]) & ord.is_some();
        (known & ord.is_some_and(test), !known)
    };
    match (col, lit) {
        (Column::Int(d, _) | Column::Date(d, _), Value::Int(x) | Value::Date(x)) => {
            input.scan(sel, valid, |r| test(d[r].cmp(x)))
        }
        (Column::Int(d, _), Value::Float(x)) => {
            input.scan3(sel, |r| partial((d[r] as f64).partial_cmp(x), r))
        }
        (Column::Float(d, _), Value::Float(x)) => {
            input.scan3(sel, |r| partial(d[r].partial_cmp(x), r))
        }
        (Column::Float(d, _), Value::Int(x)) => {
            let x = *x as f64;
            input.scan3(sel, |r| partial(d[r].partial_cmp(&x), r))
        }
        (Column::Str(..), Value::Str(x)) => strings(col, input, sel, |s| test(s.cmp(x))),
        (Column::Bool(d, _), Value::Bool(x)) => input.scan(sel, valid, |r| test(d[r].cmp(x))),
        // A NULL or incomparable literal: NULL on every row.
        _ => input.scan3(sel, |_| (false, true)),
    }
}

/// The one kernel under every string leaf: a two-valued test of a column's
/// strings, where a non-NULL cell that is not a string fails. When the
/// dictionary has fewer entries than there are candidates, the test runs
/// once per entry into a bitset and a row reads its code's bit; otherwise
/// each candidate is tested through the dictionary. Entries need not be
/// distinct, so each is tested on its own.
fn strings(
    col: &Column,
    input: &Input<'_>,
    sel: Option<&[u32]>,
    test: impl Fn(&str) -> bool,
) -> Split {
    let Some((s, valid)) = col.as_strs() else {
        return input.scan(sel, col.validity(), |_| false);
    };
    let (codes, dict) = (s.codes(), s.dict());
    if dict.len() < sel.map_or(input.n, <[u32]>::len) {
        let mut bits = vec![0u64; dict.len().div_ceil(64)];
        for (e, entry) in dict.iter().enumerate() {
            bits[e / 64] |= (test(entry) as u64) << (e % 64);
        }
        input.scan(sel, valid, |r| {
            let c = codes[r] as usize;
            bits[c / 64] >> (c % 64) & 1 == 1
        })
    } else {
        input.scan(sel, valid, |r| test(&dict[codes[r] as usize]))
    }
}

/// [`merge`] modes: `a ∪ b`, `a ∖ b`, `a ∩ b`.
const UNION: [bool; 3] = [true, true, true];
const MINUS: [bool; 3] = [true, false, false];
const BOTH: [bool; 3] = [false, true, false];

/// Merge two ascending position lists, keeping a position by where it
/// occurs: `keep = [only in a, in both, only in b]`.
fn merge(a: &[u32], b: &[u32], keep: [bool; 3]) -> Vec<u32> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        let which = match x.cmp(&y) {
            Ordering::Less => 0,
            Ordering::Equal => 1,
            Ordering::Greater => 2,
        };
        if keep[which] {
            out.push(x.min(y));
        }
        i += (which < 2) as usize;
        j += (which > 0) as usize;
    }
    if keep[0] {
        out.extend_from_slice(&a[i..]);
    }
    if keep[2] {
        out.extend_from_slice(&b[j..]);
    }
    out
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Col(i) => write!(f, "${i}"),
            ScalarExpr::Lit(v) => match v {
                Value::Str(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            ScalarExpr::Cmp(op, l, r) => write!(f, "{l} {op} {r}"),
            ScalarExpr::And(l, r) => write!(f, "({l} AND {r})"),
            ScalarExpr::Or(l, r) => write!(f, "({l} OR {r})"),
            ScalarExpr::Not(e) => write!(f, "NOT {e}"),
            ScalarExpr::StartsWith(e, p) => write!(f, "{e} STARTS WITH '{p}'"),
            ScalarExpr::Contains(e, p) => write!(f, "{e} CONTAINS '{p}'"),
            ScalarExpr::IsNull(e) => write!(f, "{e} IS NULL"),
            ScalarExpr::InList(e, l) => {
                write!(f, "{e} IN (")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::table_of;
    use relgo_common::DataType;

    fn t() -> Table {
        table_of(
            "t",
            &[
                ("id", DataType::Int),
                ("name", DataType::Str),
                ("score", DataType::Float),
            ],
            vec![
                vec![1.into(), "Tom".into(), 1.5.into()],
                vec![2.into(), "Bob".into(), 2.5.into()],
                vec![3.into(), Value::Null, 0.5.into()],
                vec![4.into(), "Bella".into(), 3.5.into()],
            ],
        )
    }

    #[test]
    fn comparisons() {
        let t = t();
        let e = ScalarExpr::col_eq(1, "Tom");
        assert_eq!(e.filter(&t).unwrap(), vec![0]);
        let e = ScalarExpr::col_cmp(0, BinaryOp::Gt, 2);
        assert_eq!(e.filter(&t).unwrap(), vec![2, 3]);
        let e = ScalarExpr::col_cmp(2, BinaryOp::Le, Value::Float(1.5));
        assert_eq!(e.filter(&t).unwrap(), vec![0, 2]);
    }

    #[test]
    fn null_propagates_and_where_drops_null() {
        let t = t();
        // name = 'Bob' is NULL for the row with NULL name → dropped.
        let e = ScalarExpr::col_eq(1, "Bob");
        assert_eq!(e.filter(&t).unwrap(), vec![1]);
        // NOT (name = 'Bob') also drops the NULL row.
        let e = ScalarExpr::Not(Box::new(ScalarExpr::col_eq(1, "Bob")));
        assert_eq!(e.filter(&t).unwrap(), vec![0, 3]);
        // IS NULL finds it.
        let e = ScalarExpr::IsNull(Box::new(ScalarExpr::Col(1)));
        assert_eq!(e.filter(&t).unwrap(), vec![2]);
    }

    #[test]
    fn three_valued_and_or() {
        let t = t();
        // (name = 'x') OR TRUE == TRUE even when the left side is NULL.
        let e = ScalarExpr::col_eq(1, "x").or(ScalarExpr::Lit(Value::Bool(true)));
        assert_eq!(e.filter(&t).unwrap().len(), 4);
        // (name = 'x') AND FALSE == FALSE even when the left side is NULL.
        let e = ScalarExpr::col_eq(1, "x").and(ScalarExpr::Lit(Value::Bool(false)));
        assert!(e.filter(&t).unwrap().is_empty());
    }

    #[test]
    fn string_predicates() {
        let t = t();
        let e = ScalarExpr::StartsWith(Box::new(ScalarExpr::Col(1)), "B".into());
        assert_eq!(e.filter(&t).unwrap(), vec![1, 3]);
        let e = ScalarExpr::Contains(Box::new(ScalarExpr::Col(1)), "ell".into());
        assert_eq!(e.filter(&t).unwrap(), vec![3]);
    }

    #[test]
    fn in_list() {
        let t = t();
        let e = ScalarExpr::InList(
            Box::new(ScalarExpr::Col(0)),
            vec![2.into(), 4.into(), 9.into()],
        );
        assert_eq!(e.filter(&t).unwrap(), vec![1, 3]);
    }

    #[test]
    fn out_of_bounds_column_is_error() {
        let t = t();
        let e = ScalarExpr::Col(9);
        assert!(e.eval(&t, 0).is_err());
    }

    #[test]
    fn remap_and_referenced_columns() {
        let e = ScalarExpr::col_eq(1, "x").and(ScalarExpr::col_cmp(3, BinaryOp::Lt, 5));
        assert_eq!(e.referenced_columns(), vec![1, 3]);
        let shifted = e.remap_columns(&|c| c + 10);
        assert_eq!(shifted.referenced_columns(), vec![11, 13]);
    }

    #[test]
    fn selectivity_estimates_bounded() {
        let e = ScalarExpr::col_eq(0, 1)
            .and(ScalarExpr::col_cmp(0, BinaryOp::Gt, 2))
            .or(ScalarExpr::StartsWith(
                Box::new(ScalarExpr::Col(1)),
                "B".into(),
            ));
        let s = e.estimated_selectivity();
        assert!(s > 0.0 && s <= 1.0);
    }

    #[test]
    fn display_readable() {
        let e = ScalarExpr::col_eq(1, "Tom").and(ScalarExpr::col_cmp(0, BinaryOp::Ge, 3));
        assert_eq!(e.to_string(), "($1 = 'Tom' AND $0 >= 3)");
    }
}
