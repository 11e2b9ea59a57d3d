//! Operator profiling is an *observer*, never a participant: turning it on
//! must not change a single result row, and the per-operator row counts it
//! reports must be a deterministic property of the plan and the data — not
//! of the thread count or the serving regime.
//!
//! Property tests sweep random SNB/JOB template draws through
//!
//! 1. `Session::run_profiled` (fresh optimization),
//! 2. `Session::run_cached_profiled` (plan-cache probe + rebind, and the
//!    miss path behind an invalidation),
//! 3. `PreparedStatement::execute_profiled` (pinned skeleton, and the
//!    stale-pin re-optimize behind an invalidation), and
//! 4. `Session::explain_analyze` (the rendered-report path),
//!
//! at 1, 2, and 8 intra-query threads, and assert that every profiled
//! result is **bit-identical** to the unprofiled `Session::run` twin, and
//! that the per-operator `(kind, rows_in, rows_out)` sequence is identical
//! across all four regimes and all three thread counts.
//!
//! Each wrapper is one fixed point of the options matrix behind
//! `Session::query` / `PreparedStatement::query`: every regime is also
//! reached through that entry with the equivalent `QueryOptions`, without
//! and with a generous deadline, and must agree with its wrapper on rows,
//! operator rows, `outcome.cached` and the `relgo_queries_total{path}`
//! increment.

use proptest::prelude::*;
use relgo::prelude::*;
use relgo::workloads::templates::{job_templates, snb_templates, QueryTemplate};
use std::sync::OnceLock;
use std::time::Duration;

const THREADS: [usize; 3] = [1, 2, 8];

fn options(threads: usize) -> SessionOptions {
    SessionOptions {
        threads,
        ..SessionOptions::default()
    }
}

/// Shared sessions (data + index + GLogue construction dominates test
/// time): one per thread count per dataset.
fn snb_sessions() -> &'static [(Session, SnbSchema); 3] {
    static CELL: OnceLock<[(Session, SnbSchema); 3]> = OnceLock::new();
    CELL.get_or_init(|| THREADS.map(|t| Session::snb_with(0.03, 42, options(t)).unwrap()))
}

fn job_sessions() -> &'static [(Session, ImdbSchema); 3] {
    static CELL: OnceLock<[(Session, ImdbSchema); 3]> = OnceLock::new();
    CELL.get_or_init(|| THREADS.map(|t| Session::imdb_with(0.05, 7, options(t)).unwrap()))
}

/// Row-for-row table equality (stricter than set equality).
/// The deterministic core of a [`PlanReport`]: operator kind and measured
/// cardinalities in operator-id order. Wall times, morsel counts, and
/// budget charges legitimately vary across threads and runs; row counts
/// must not.
fn op_rows(report: &relgo::prelude::PlanReport) -> Vec<(&'static str, u64, u64)> {
    report
        .ops
        .iter()
        .map(|op| (op.meta.kind, op.prof.rows_in, op.prof.rows_out))
        .collect()
}

/// One count per [`QueryPath`], in [`QueryPath::ALL`] order.
type PathCounts = [u64; QueryPath::ALL.len()];

/// `relgo_queries_total`, one count per [`QueryPath`] (the registry hands
/// back the session's own counter for a known name + label pair).
fn path_counts(session: &Session) -> PathCounts {
    QueryPath::ALL.map(|p| {
        session
            .metrics()
            .registry()
            .counter_with("relgo_queries_total", "", &[("path", p.name())])
            .get()
    })
}

/// The increments of one query answered on `path`.
fn one_on(path: QueryPath) -> PathCounts {
    QueryPath::ALL.map(|p| u64::from(p == path))
}

/// What one profiled call did, as far as it must repeat.
#[derive(Debug, PartialEq)]
struct Probe {
    ops: Vec<(&'static str, u64, u64)>,
    cached: bool,
    path_increments: PathCounts,
}

/// Run one profiled call, hold its rows to `plain`, and keep the rest for
/// comparison.
fn probe(
    session: &Session,
    plain: &Table,
    what: &str,
    call: impl FnOnce() -> Result<(QueryOutcome, Option<PlanReport>)>,
) -> Probe {
    let before = path_counts(session);
    let (outcome, report) = call().unwrap_or_else(|e| panic!("{what}: {e}"));
    let after = path_counts(session);
    assert!(
        plain.bit_identical(&outcome.table),
        "{what} changed the result"
    );
    let report = report.unwrap_or_else(|| panic!("{what}: profiling was on"));
    report.reconcile().unwrap();
    assert_eq!(
        report.root().map(|r| r.prof.rows_out),
        Some(plain.num_rows() as u64),
        "{what}: root cardinality disagrees with the result"
    );
    Probe {
        ops: op_rows(&report),
        cached: outcome.cached,
        path_increments: std::array::from_fn(|i| after[i] - before[i]),
    }
}

/// One regime three ways — its wrapper, the `query` entry with the
/// equivalent options, and the same under a generous deadline — which must
/// be indistinguishable. With `stale`, the plan cache is invalidated
/// before each call, so cached plans miss and pins re-optimize.
fn regime(
    session: &Session,
    plain: &Table,
    what: &str,
    stale: bool,
    wrapper: impl Fn() -> Result<(QueryOutcome, PlanReport)>,
    entry: impl Fn(&QueryOptions) -> Result<(QueryOutcome, Option<PlanReport>)>,
) -> Probe {
    let fresh_cache = || {
        if stale {
            session.plan_cache().invalidate_all();
        }
    };
    fresh_cache();
    let via_wrapper = probe(session, plain, what, || {
        wrapper().map(|(o, r)| (o, Some(r)))
    });
    for deadline in [None, Some(TimeBudget::new(Duration::from_secs(3600)))] {
        let options = QueryOptions {
            deadline,
            profile: true,
            ..QueryOptions::default()
        };
        fresh_cache();
        let via_entry = probe(session, plain, what, || entry(&options));
        assert_eq!(
            via_wrapper, via_entry,
            "{what}: wrapper and query({options:?}) diverge"
        );
    }
    via_wrapper
}

/// Run one template draw through every profiled regime on one session;
/// returns the shared `(kind, rows_in, rows_out)` sequence for the
/// cross-thread-count comparison.
fn profiled_case(
    session: &Session,
    t: &QueryTemplate,
    draw: u64,
    mode: OptimizerMode,
) -> Vec<(&'static str, u64, u64)> {
    let case = format!("{} draw {draw} {}", t.name(), mode.name());
    let q = t.instantiate(draw).unwrap();
    let plain = session.run(&q, mode).unwrap().table;

    let run = regime(
        session,
        &plain,
        &format!("{case}: run_profiled"),
        false,
        || session.run_profiled(&q, mode),
        |options| session.query(&q, mode, options),
    );
    assert_eq!(
        (run.cached, run.path_increments),
        (false, one_on(QueryPath::Run))
    );

    // Prepare from the draw-0 instance so execute_profiled really rebinds.
    let stmt = session.prepare(&t.instantiate(0).unwrap(), mode).unwrap();
    let bindings = t.bindings(draw).unwrap();
    let mut regimes = Vec::new();
    for stale in [true, false] {
        let cached = regime(
            session,
            &plain,
            &format!("{case}: run_cached_profiled (stale={stale})"),
            stale,
            || session.run_cached_profiled(&q, mode, None),
            |options| {
                let options = QueryOptions {
                    plan: PlanSource::Cached,
                    ..*options
                };
                session.query(&q, mode, &options)
            },
        );
        assert_eq!(
            (cached.cached, cached.path_increments),
            (!stale, one_on(QueryPath::Cached))
        );
        let prepared = regime(
            session,
            &plain,
            &format!("{case}: execute_profiled (stale={stale})"),
            stale,
            || stmt.execute_profiled(&bindings, None),
            |options| stmt.query(&bindings, options),
        );
        assert_eq!(
            (prepared.cached, prepared.path_increments),
            (!stale, one_on(QueryPath::Prepared))
        );
        regimes.extend([cached, prepared]);
    }

    let ea = probe(session, &plain, &format!("{case}: explain_analyze"), || {
        let ea = session.explain_analyze(&q, mode)?;
        assert_eq!(ea.rendered.lines().count(), ea.report.ops.len());
        Ok((ea.outcome, Some(ea.report)))
    });
    assert_eq!(ea.path_increments, run.path_increments);
    regimes.push(ea);

    for other in &regimes {
        assert_eq!(
            run.ops, other.ops,
            "{case}: regimes measured different operator rows"
        );
    }
    run.ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn snb_profiles_are_regime_and_thread_invariant(
        idx in 0usize..5,
        draw in 0u64..60,
        relgo_mode in any::<bool>(),
    ) {
        let mode = if relgo_mode { OptimizerMode::RelGo } else { OptimizerMode::GRainDb };
        let mut per_threads = Vec::new();
        for (session, schema) in snb_sessions() {
            let t = &snb_templates(schema)[idx];
            per_threads.push(profiled_case(session, t, draw, mode));
        }
        prop_assert_eq!(&per_threads[0], &per_threads[1],
            "SNB template {} draw {}: 1- and 2-thread operator rows diverge", idx, draw);
        prop_assert_eq!(&per_threads[0], &per_threads[2],
            "SNB template {} draw {}: 1- and 8-thread operator rows diverge", idx, draw);
    }

    #[test]
    fn job_profiles_are_regime_and_thread_invariant(
        idx in 0usize..3,
        draw in 0u64..60,
        relgo_mode in any::<bool>(),
    ) {
        let mode = if relgo_mode { OptimizerMode::RelGo } else { OptimizerMode::GRainDb };
        let mut per_threads = Vec::new();
        for (session, schema) in job_sessions() {
            let t = &job_templates(schema)[idx];
            per_threads.push(profiled_case(session, t, draw, mode));
        }
        prop_assert_eq!(&per_threads[0], &per_threads[1],
            "JOB template {} draw {}: 1- and 2-thread operator rows diverge", idx, draw);
        prop_assert_eq!(&per_threads[0], &per_threads[2],
            "JOB template {} draw {}: 1- and 8-thread operator rows diverge", idx, draw);
    }
}

/// The no-profiling serving path must stay untaxed and untouched: a
/// session that has profiled once still answers unprofiled queries with
/// the same rows, and EXPLAIN (no analyze) never executes.
#[test]
fn explain_does_not_execute_and_profiling_leaves_no_residue() {
    let (session, schema) = Session::snb_with(0.03, 42, options(2)).unwrap();
    let t = &snb_templates(&schema)[0];
    let q = t.instantiate(3).unwrap();
    let before = session.run(&q, OptimizerMode::RelGo).unwrap().table;

    let rendered = session.explain(&q, OptimizerMode::RelGo).unwrap();
    assert!(rendered.contains("[op=0 est="), "{rendered}");
    assert!(
        !rendered.contains(" act="),
        "EXPLAIN must not execute: {rendered}"
    );

    let (_, report) = session.run_profiled(&q, OptimizerMode::RelGo).unwrap();
    assert_eq!(rendered.lines().count(), report.ops.len());

    let after = session.run(&q, OptimizerMode::RelGo).unwrap().table;
    assert!(before.bit_identical(&after));
}
