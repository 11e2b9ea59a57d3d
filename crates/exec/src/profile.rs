//! Operator-level execution profiling.
//!
//! A [`ProfileSink`] collects one [`OperatorProfile`] per physical operator
//! as a plan executes. Operator ids are assigned by reserving the next slot
//! at operator entry, *before* recursing into inputs — the same pre-order
//! the plan-time [`OperatorMeta`] collection and the EXPLAIN renderers use,
//! so profiles, metas and rendered lines line up by index. The sink is only
//! touched by the single plan-driving thread (morsel workers never see it),
//! and morsel-parallel operators report their merged, morsel-ordered output
//! — profiled results are bit-identical to unprofiled ones.
//!
//! Profiling is gated by `execute_plan_with`'s `profile` flag: the
//! executors carry an `Option<&ProfileSink>` and the hot path pays exactly
//! one branch per operator when it is off.
//!
//! [`OperatorMeta`]: relgo_core::OperatorMeta

use relgo_common::{RelGoError, Result};
use relgo_core::OperatorMeta;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Duration;

/// What one physical operator actually did during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperatorProfile {
    /// Pre-order operator id (matches [`OperatorMeta::op_id`]).
    pub op_id: usize,
    /// Operator kind (`"expand"`, `"hash_join"`, …).
    pub kind: &'static str,
    /// Rows entering the operator (summed over inputs; 0 for leaves).
    pub rows_in: u64,
    /// Rows the operator produced.
    pub rows_out: u64,
    /// Morsels the operator's scheduler invocation dispatched (0 for
    /// serial-only operators).
    pub morsels: u64,
    /// The operator's own wall time, excluding its inputs' execution.
    pub elapsed: Duration,
    /// Rows charged against the shared row budget before materialization
    /// (the morsel-parallel operators charge exact projected sizes; serial
    /// operators guard after the fact and charge nothing).
    pub budget_charged: u64,
}

/// Per-operator profiles of one plan execution, in op-id (pre-order) order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanProfile {
    /// One entry per operator; index `i` is op-id `i`.
    pub ops: Vec<OperatorProfile>,
}

/// The collection target threaded through the executors. Interior-mutable
/// so it rides behind `&` references alongside the execution context; the
/// mutex is uncontended (one touch per operator from one thread).
#[derive(Debug, Default)]
pub struct ProfileSink {
    ops: Mutex<Vec<OperatorProfile>>,
}

impl ProfileSink {
    /// An empty sink.
    pub fn new() -> ProfileSink {
        ProfileSink::default()
    }

    /// Reserve the next pre-order op id for an operator of `kind`. Call at
    /// operator entry, before executing any input.
    pub fn begin(&self, kind: &'static str) -> usize {
        let mut ops = self.ops.lock().unwrap();
        let op_id = ops.len();
        ops.push(OperatorProfile {
            op_id,
            kind,
            rows_in: 0,
            rows_out: 0,
            morsels: 0,
            elapsed: Duration::ZERO,
            budget_charged: 0,
        });
        op_id
    }

    /// Fill in the measurements of a reserved operator slot.
    pub fn finish(
        &self,
        op_id: usize,
        rows_in: u64,
        rows_out: u64,
        morsels: u64,
        elapsed: Duration,
        budget_charged: u64,
    ) {
        let mut ops = self.ops.lock().unwrap();
        let slot = &mut ops[op_id];
        slot.rows_in = rows_in;
        slot.rows_out = rows_out;
        slot.morsels = morsels;
        slot.elapsed = elapsed;
        slot.budget_charged = budget_charged;
    }

    /// Drain the collected profiles (op-id order).
    pub fn take(&self) -> PlanProfile {
        PlanProfile {
            ops: std::mem::take(&mut *self.ops.lock().unwrap()),
        }
    }
}

/// One operator's plan-time meta joined with its run-time profile.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorReport {
    /// The optimizer's view (id, kind, estimates, child links).
    pub meta: OperatorMeta,
    /// What execution measured.
    pub prof: OperatorProfile,
}

impl OperatorReport {
    /// Per-operator Q-error `max(est/act, act/est)`, the paper's estimate-
    /// quality measure. `None` when either side is zero (the ratio is
    /// undefined; an empty operator estimated as empty is not an error).
    pub fn qerror(&self) -> Option<f64> {
        let est = self.meta.est_rows;
        let act = self.prof.rows_out as f64;
        if est <= 0.0 || act <= 0.0 {
            return None;
        }
        Some((est / act).max(act / est))
    }
}

/// The full estimate-vs-actual report of one profiled execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanReport {
    /// One entry per operator, in op-id (pre-order) order.
    pub ops: Vec<OperatorReport>,
}

impl PlanReport {
    /// Join plan-time metas with run-time profiles. Errors if the two
    /// traversals disagree (a bug: they share pre-order by construction).
    pub fn join(metas: Vec<OperatorMeta>, profile: PlanProfile) -> Result<PlanReport> {
        if metas.len() != profile.ops.len() {
            return Err(RelGoError::execution(format!(
                "plan metas ({}) and operator profiles ({}) disagree",
                metas.len(),
                profile.ops.len()
            )));
        }
        let ops = metas
            .into_iter()
            .zip(profile.ops)
            .map(|(meta, prof)| {
                if meta.op_id != prof.op_id || meta.kind != prof.kind {
                    return Err(RelGoError::execution(format!(
                        "operator {} planned as {} but profiled as {} (id {})",
                        meta.op_id, meta.kind, prof.kind, prof.op_id
                    )));
                }
                Ok(OperatorReport { meta, prof })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(PlanReport { ops })
    }

    /// The root operator's report (op-id 0).
    pub fn root(&self) -> Option<&OperatorReport> {
        self.ops.first()
    }

    /// The worst per-operator Q-error of the plan (`None` when no operator
    /// has a defined one).
    pub fn max_qerror(&self) -> Option<f64> {
        self.ops
            .iter()
            .filter_map(OperatorReport::qerror)
            .fold(None, |acc, q| Some(acc.map_or(q, |a: f64| a.max(q))))
    }

    /// Check the internal row accounting: every operator's `rows_in` must
    /// equal the summed `rows_out` of its inputs — i.e. each operator's
    /// actual rows reconcile with the result cardinality it feeds.
    pub fn reconcile(&self) -> Result<()> {
        for op in &self.ops {
            let fed: u64 = op
                .meta
                .inputs
                .iter()
                .map(|&i| self.ops[i].prof.rows_out)
                .sum();
            if !op.meta.inputs.is_empty() && fed != op.prof.rows_in {
                return Err(RelGoError::execution(format!(
                    "operator {} ({}) consumed {} rows but its inputs produced {}",
                    op.meta.op_id, op.meta.kind, op.prof.rows_in, fed
                )));
            }
        }
        Ok(())
    }

    /// Render the per-line EXPLAIN ANALYZE suffix for op `id`:
    /// `  [op=N est=E act=A q=Q]` (q omitted when undefined).
    pub fn annotation(&self, id: usize) -> String {
        let Some(op) = self.ops.get(id) else {
            return String::new();
        };
        let mut s = format!(
            "  [op={} est={:.0} act={}",
            op.meta.op_id, op.meta.est_rows, op.prof.rows_out
        );
        if let Some(q) = op.qerror() {
            let _ = write!(s, " q={q:.2}");
        }
        s.push(']');
        s
    }

    /// The report as one JSON array of operator objects (hand-rolled; kinds
    /// and numbers only, nothing needs escaping). The serving edge embeds
    /// this in `profile=1` responses and slow-query access-log lines.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[");
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"op\":{},\"kind\":\"{}\",\"est\":{:.1},\"rows_in\":{},\"rows_out\":{},\
                 \"morsels\":{},\"micros\":{},\"budget\":{}",
                op.meta.op_id,
                op.meta.kind,
                op.meta.est_rows,
                op.prof.rows_in,
                op.prof.rows_out,
                op.prof.morsels,
                op.prof.elapsed.as_micros(),
                op.prof.budget_charged,
            );
            if let Some(q) = op.qerror() {
                let _ = write!(s, ",\"q\":{q:.3}");
            }
            s.push('}');
        }
        s.push(']');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(op_id: usize, kind: &'static str, est: f64, inputs: Vec<usize>) -> OperatorMeta {
        OperatorMeta {
            op_id,
            kind,
            est_rows: est,
            est_cost: est,
            inputs,
        }
    }

    fn prof(op_id: usize, kind: &'static str, rows_in: u64, rows_out: u64) -> OperatorProfile {
        OperatorProfile {
            op_id,
            kind,
            rows_in,
            rows_out,
            morsels: 1,
            elapsed: Duration::from_micros(5),
            budget_charged: rows_out,
        }
    }

    #[test]
    fn sink_assigns_preorder_ids_and_drains_in_order() {
        let sink = ProfileSink::new();
        let a = sink.begin("filter");
        let b = sink.begin("scan_table");
        sink.finish(b, 0, 100, 0, Duration::from_micros(7), 0);
        sink.finish(a, 100, 40, 0, Duration::from_micros(3), 0);
        let p = sink.take();
        assert_eq!(p.ops.len(), 2);
        assert_eq!(
            (p.ops[0].op_id, p.ops[0].kind, p.ops[0].rows_out),
            (0, "filter", 40)
        );
        assert_eq!(p.ops[1].rows_out, 100);
        assert!(sink.take().ops.is_empty(), "take drains");
    }

    #[test]
    fn report_joins_qerror_and_reconciles() {
        let metas = vec![
            meta(0, "filter", 20.0, vec![1]),
            meta(1, "scan_table", 100.0, vec![]),
        ];
        let profile = PlanProfile {
            ops: vec![prof(0, "filter", 100, 40), prof(1, "scan_table", 0, 100)],
        };
        let report = PlanReport::join(metas, profile).unwrap();
        assert_eq!(report.ops[0].qerror(), Some(2.0));
        assert_eq!(report.ops[1].qerror(), Some(1.0));
        assert_eq!(report.max_qerror(), Some(2.0));
        report.reconcile().unwrap();
        let ann = report.annotation(0);
        assert!(ann.contains("est=20") && ann.contains("act=40") && ann.contains("q=2.00"));
        let json = report.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"kind\":\"filter\"") && json.contains("\"q\":2.000"));
    }

    #[test]
    fn reconcile_rejects_row_mismatch() {
        let metas = vec![
            meta(0, "filter", 20.0, vec![1]),
            meta(1, "scan_table", 100.0, vec![]),
        ];
        let profile = PlanProfile {
            ops: vec![prof(0, "filter", 99, 40), prof(1, "scan_table", 0, 100)],
        };
        let report = PlanReport::join(metas, profile).unwrap();
        assert!(report.reconcile().is_err());
    }

    #[test]
    fn join_rejects_disagreeing_traversals() {
        let metas = vec![meta(0, "filter", 20.0, vec![])];
        let profile = PlanProfile {
            ops: vec![prof(0, "project", 0, 1)],
        };
        assert!(PlanReport::join(metas, profile).is_err());
        assert!(PlanReport::join(
            vec![],
            PlanProfile {
                ops: vec![prof(0, "x", 0, 0)]
            }
        )
        .is_err());
    }

    #[test]
    fn zero_row_operators_have_no_qerror() {
        let metas = vec![meta(0, "scan_table", 0.0, vec![])];
        let profile = PlanProfile {
            ops: vec![prof(0, "scan_table", 0, 0)],
        };
        let report = PlanReport::join(metas, profile).unwrap();
        assert_eq!(report.ops[0].qerror(), None);
        assert_eq!(report.max_qerror(), None);
        assert!(!report.annotation(0).contains("q="));
    }
}
