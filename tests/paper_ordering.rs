//! The paper's ordering of optimizers, checked without a clock.
//!
//! The evaluation's claims (§5, Figs. 7–11) are that RelGo's plans beat
//! GRainDB's, which beat a graph-agnostic DuckDB-like optimizer's, and that
//! RelGo's two ingredients each pay: `EXPAND_INTERSECT` on the cyclic QC
//! queries, the heuristic rules on the QR queries. Wall-clock time on a
//! shared host is too noisy to assert, so each plan is measured by its
//! C_out instead — the rows its operators produce, summed over
//! `Session::run_profiled`'s report — which does not depend on the machine.
//! Every ordering is asserted on the geometric mean over a whole suite, and
//! RelGo against GRainDB on IC also query by query: no IC plan of RelGo
//! produces more rows than GRainDB's. On JOB single queries still invert,
//! so there the geomean alone is asserted. RelGo's estimates are checked
//! too: the median of each query's worst operator Q-error stays within 2×.
//! A failure prints every per-query ratio.

use relgo::prelude::*;
use relgo::workloads::job_queries::job_queries;
use relgo::workloads::snb_queries::{ldbc_interactive, qc_queries, qr_queries};
use relgo::workloads::Workload;
use std::sync::OnceLock;

/// The SNB dataset's session and its three suites.
struct Snb {
    session: Session,
    ic: Vec<Workload>,
    qc: Vec<Workload>,
    qr: Vec<Workload>,
}

fn snb() -> &'static Snb {
    static CELL: OnceLock<Snb> = OnceLock::new();
    CELL.get_or_init(|| {
        let (session, schema) = Session::snb(0.1, 42).unwrap();
        Snb {
            session,
            ic: ldbc_interactive(&schema).unwrap(),
            qc: qc_queries(&schema).unwrap(),
            qr: qr_queries(&schema).unwrap(),
        }
    })
}

fn imdb() -> &'static (Session, Vec<Workload>) {
    static CELL: OnceLock<(Session, Vec<Workload>)> = OnceLock::new();
    CELL.get_or_init(|| {
        let (session, schema) = Session::imdb(0.05, 42).unwrap();
        let job = job_queries(&schema).unwrap();
        (session, job)
    })
}

/// `w`'s plan under `mode`: its C_out and its worst operator Q-error.
fn measure(session: &Session, w: &Workload, mode: OptimizerMode) -> (f64, Option<f64>) {
    let (_, report) = session
        .run_profiled(&w.query, mode)
        .unwrap_or_else(|e| panic!("{} under {}: {e}", w.name, mode.name()));
    let c_out: u64 = report.ops.iter().map(|op| op.prof.rows_out).sum();
    (c_out as f64, report.max_qerror())
}

/// The geometric mean of `xs`, each counted as at least 1 row.
fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.max(1.0).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Assert that the geometric mean of C_out over `suite` strictly grows
/// along `modes`.
fn assert_ordered(session: &Session, suite: &[Workload], modes: &[OptimizerMode]) {
    let costs: Vec<Vec<f64>> = (modes.iter())
        .map(|&mode| suite.iter().map(|w| measure(session, w, mode).0).collect())
        .collect();
    let means: Vec<f64> = costs.iter().map(|c| geomean(c)).collect();
    let mut table = String::new();
    for (i, w) in suite.iter().enumerate() {
        table += &format!("\n  {:8}", w.name);
        for (mode, c) in modes.iter().zip(&costs) {
            let ratio = c[i].max(1.0) / costs[0][i].max(1.0);
            table += &format!("  {} {} (×{ratio:.2})", mode.name(), c[i]);
        }
    }
    table += "\n  geomean ";
    for (mode, m) in modes.iter().zip(&means) {
        table += &format!("  {} {m:.1} (×{:.2})", mode.name(), m / means[0]);
    }
    for (pair, m) in modes.windows(2).zip(means.windows(2)) {
        assert!(
            m[0] < m[1],
            "C_out geomean of {} is not below {}'s:{table}",
            pair[0].name(),
            pair[1].name()
        );
    }
}

/// Assert that the median over `suite` of RelGo's worst operator Q-error
/// per query is at most 2.
fn assert_estimates_close(session: &Session, suite: &[Workload]) {
    let mut per_query: Vec<(f64, &str)> = (suite.iter())
        .filter_map(|w| Some((measure(session, w, OptimizerMode::RelGo).1?, &*w.name)))
        .collect();
    per_query.sort_by(|a, b| a.0.total_cmp(&b.0));
    let median = per_query[per_query.len() / 2].0;
    assert!(
        median <= 2.0,
        "median max Q-error {median:.2}: {per_query:?}"
    );
}

#[test]
fn ic_plans_order_relgo_graindb_duckdb() {
    let Snb { session, ic, .. } = snb();
    assert_eq!(ic.len(), 18);
    let modes = [
        OptimizerMode::RelGo,
        OptimizerMode::GRainDb,
        OptimizerMode::DuckDbLike,
    ];
    assert_ordered(session, ic, &modes);
}

#[test]
fn relgo_is_never_costlier_than_graindb_on_any_ic_query() {
    let Snb { session, ic, .. } = snb();
    let costlier: Vec<String> = (ic.iter())
        .filter_map(|w| {
            let relgo = measure(session, w, OptimizerMode::RelGo).0;
            let graindb = measure(session, w, OptimizerMode::GRainDb).0;
            (relgo > graindb).then(|| format!("{}: RelGo {relgo} > GRainDB {graindb}", w.name))
        })
        .collect();
    assert!(costlier.is_empty(), "C_out per IC query: {costlier:?}");
}

#[test]
fn job_plans_order_relgo_graindb_duckdb() {
    let (session, job) = imdb();
    assert_eq!(job.len(), 33);
    let modes = [
        OptimizerMode::RelGo,
        OptimizerMode::GRainDb,
        OptimizerMode::DuckDbLike,
    ];
    assert_ordered(session, job, &modes);
}

#[test]
fn expand_intersect_pays_on_cyclic_queries() {
    let Snb { session, qc, .. } = snb();
    assert_ordered(
        session,
        qc,
        &[OptimizerMode::RelGo, OptimizerMode::RelGoNoEI],
    );
}

#[test]
fn rules_pay_on_rule_queries() {
    let Snb { session, qr, .. } = snb();
    assert_ordered(
        session,
        qr,
        &[OptimizerMode::RelGo, OptimizerMode::RelGoNoRule],
    );
}

#[test]
fn relgo_estimates_stay_within_twice_the_actual_rows() {
    let Snb { session, ic, .. } = snb();
    assert_estimates_close(session, ic);
    let (session, job) = imdb();
    assert_estimates_close(session, job);
}
