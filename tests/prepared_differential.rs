//! Randomized differential testing of the three serving regimes.
//!
//! For random SNB/JOB template instances, the rows returned by
//!
//! 1. direct `Session::run` (fresh optimization per instance),
//! 2. `Session::run_cached` (plan-cache probe + literal rebind), and
//! 3. `PreparedStatement::execute` (pinned skeleton, rebind only)
//!
//! must be **bit-identical** — same rows in the same order, not just
//! set-equal — under both the RelGo and GRainDB optimizer modes, at 1 and
//! 4 intra-query threads (and across the two thread counts: morsel
//! parallelism never reorders results). The optimizer's cost model is
//! literal-independent, so every instance of a template optimizes to the
//! same skeleton; any divergence between the regimes is a rebinding bug.
//!
//! Plain tests below the properties cover the prepared-handle lifecycle:
//! statistics-version invalidation forces a transparent re-optimize
//! (observable through `CacheMetrics`), and LRU eviction of the backing
//! entry never breaks a pinned handle.

#[path = "support/regimes.rs"]
mod regimes;

use proptest::prelude::*;
use regimes::assert_regimes_match;
use relgo::prelude::*;
use relgo::workloads::templates::{job_templates, snb_templates};
use std::sync::OnceLock;

fn options(threads: usize) -> SessionOptions {
    SessionOptions {
        threads,
        ..SessionOptions::default()
    }
}

/// Shared sessions (building data + index + GLogue dominates test time):
/// one serial and one 4-thread session per dataset.
fn snb_sessions() -> &'static [(Session, SnbSchema); 2] {
    static CELL: OnceLock<[(Session, SnbSchema); 2]> = OnceLock::new();
    CELL.get_or_init(|| {
        [
            Session::snb_with(0.03, 42, options(1)).unwrap(),
            Session::snb_with(0.03, 42, options(4)).unwrap(),
        ]
    })
}

fn job_sessions() -> &'static [(Session, ImdbSchema); 2] {
    static CELL: OnceLock<[(Session, ImdbSchema); 2]> = OnceLock::new();
    CELL.get_or_init(|| {
        [
            Session::imdb_with(0.05, 7, options(1)).unwrap(),
            Session::imdb_with(0.05, 7, options(4)).unwrap(),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn snb_regimes_are_bit_identical(
        idx in 0usize..5,
        draw in 0u64..60,
        relgo_mode in any::<bool>(),
    ) {
        let mode = if relgo_mode { OptimizerMode::RelGo } else { OptimizerMode::GRainDb };
        let mut per_threads = Vec::new();
        for (session, schema) in snb_sessions() {
            let t = &snb_templates(schema)[idx];
            let direct = session.run(&t.instantiate(draw).unwrap(), mode).unwrap().table;
            assert_regimes_match(session, t, draw, mode, &direct, "a first run");
            per_threads.push(direct);
        }
        prop_assert!(
            per_threads[0].bit_identical(&per_threads[1]),
            "SNB template {} draw {}: 1-thread and 4-thread results diverge", idx, draw
        );
    }

    #[test]
    fn job_regimes_are_bit_identical(
        idx in 0usize..3,
        draw in 0u64..60,
        relgo_mode in any::<bool>(),
    ) {
        let mode = if relgo_mode { OptimizerMode::RelGo } else { OptimizerMode::GRainDb };
        let mut per_threads = Vec::new();
        for (session, schema) in job_sessions() {
            let t = &job_templates(schema)[idx];
            let direct = session.run(&t.instantiate(draw).unwrap(), mode).unwrap().table;
            assert_regimes_match(session, t, draw, mode, &direct, "a first run");
            per_threads.push(direct);
        }
        prop_assert!(
            per_threads[0].bit_identical(&per_threads[1]),
            "JOB template {} draw {}: 1-thread and 4-thread results diverge", idx, draw
        );
    }
}

/// An ingest commit after `prepare` bumps the statistics version and forces
/// a transparent re-optimize on the next `execute`, visible in the `CacheMetrics` deltas; afterwards the
/// handle is pinned again and serves rebind-only.
#[test]
fn stale_prepared_handle_reoptimizes_transparently() {
    let (session, schema) = Session::snb(0.03, 42).unwrap();
    let templates = snb_templates(&schema);
    let t = &templates[1]; // IC2
    let stmt = session
        .prepare(&t.instantiate(0).unwrap(), OptimizerMode::RelGo)
        .unwrap();
    assert!(stmt.is_current());
    let warm = stmt.execute(&t.bindings(1).unwrap()).unwrap();
    assert!(warm.cached);

    let mut batch = session.begin_ingest();
    let row = vec![800_000.into(), "Fresh".into(), Value::Date(17_000)];
    batch.insert_row("Person", row).unwrap();
    batch.commit().unwrap();
    assert!(!stmt.is_current(), "version bump staled the pin");

    let before = session.cache_metrics();
    let out = stmt.execute(&t.bindings(2).unwrap()).unwrap();
    assert!(!out.cached, "stale pin re-optimized");
    assert!(
        out.table.bit_identical(
            &session
                .run(&t.instantiate(2).unwrap(), OptimizerMode::RelGo)
                .unwrap()
                .table
        ),
        "re-optimized result stays correct"
    );
    let delta = session.cache_metrics().since(&before);
    assert_eq!(delta.prepared_invalidations, 1, "{delta:?}");
    assert_eq!(delta.prepared_hits, 0, "{delta:?}");

    // The re-optimize re-pinned under the new version: back to rebind-only.
    assert!(stmt.is_current());
    let before = session.cache_metrics();
    let out = stmt.execute(&t.bindings(3).unwrap()).unwrap();
    assert!(out.cached);
    let delta = session.cache_metrics().since(&before);
    assert_eq!((delta.prepared_hits, delta.prepared_invalidations), (1, 0));
    // …and the fresh plan landed back in the cache for run_cached traffic.
    assert!(
        session
            .run_cached(&t.instantiate(4).unwrap(), OptimizerMode::RelGo)
            .unwrap()
            .cached
    );
}

/// Eviction of the backing LRU entry must not break a pinned handle: the
/// pin owns its skeleton.
#[test]
fn evicted_entry_does_not_break_pinned_handle() {
    let opts = SessionOptions {
        plan_cache_shards: 1,
        plan_cache_capacity: 2,
        ..SessionOptions::default()
    };
    let (session, schema) = Session::snb_with(0.03, 42, opts).unwrap();
    let templates = snb_templates(&schema);
    let t0 = &templates[0];
    let stmt = session
        .prepare(&t0.instantiate(0).unwrap(), OptimizerMode::RelGo)
        .unwrap();

    // Flood the 2-entry cache with the other templates: t0's entry is gone.
    let before = session.cache_metrics();
    for t in &templates[1..] {
        session
            .run_cached(&t.instantiate(0).unwrap(), OptimizerMode::RelGo)
            .unwrap();
    }
    assert!(
        session.cache_metrics().since(&before).evictions >= 1,
        "capacity 2 must evict"
    );

    // The handle still serves rebind-only from its pin.
    let before = session.cache_metrics();
    let out = stmt.execute(&t0.bindings(5).unwrap()).unwrap();
    assert!(out.cached, "pin survives eviction");
    assert_eq!(out.opt.plans_visited, 0);
    let delta = session.cache_metrics().since(&before);
    assert_eq!(delta.prepared_hits, 1, "{delta:?}");
    assert_eq!(delta.prepared_invalidations, 0, "{delta:?}");
    assert!(
        out.table.bit_identical(
            &session
                .run(&t0.instantiate(5).unwrap(), OptimizerMode::RelGo)
                .unwrap()
                .table
        ),
        "post-eviction result stays correct"
    );
}

/// An ambiguous rebind on a prepared handle (pin slots that shared a value
/// diverge) falls back to a fresh optimization of the rebound query and
/// stays correct — mirroring `run_cached`'s rebind-failure fallback.
#[test]
fn ambiguous_prepared_rebind_falls_back() {
    use relgo::core::spjm::SpjmBuilder;
    use relgo::pattern::PatternBuilder;
    use relgo::storage::BinaryOp;

    let (session, schema) = Session::snb(0.03, 42).unwrap();
    let make = |person: i64, after: i64| {
        let mut pb = PatternBuilder::new();
        let p = pb.vertex("p", schema.person);
        let m = pb.vertex("m", schema.message);
        pb.edge(m, p, schema.has_creator).unwrap();
        let mut b = SpjmBuilder::new(pb.build().unwrap());
        let p_id = b.vertex_column(p, 0, "p_id");
        let m_date = b.vertex_column(m, 2, "m_date");
        b.select(ScalarExpr::col_eq(p_id, person).and(ScalarExpr::col_cmp(
            m_date,
            BinaryOp::Gt,
            Value::Int(after),
        )));
        b.project(&[m_date]);
        b.build()
    };
    // Prepare with colliding slot values (5, 5)…
    let stmt = session.prepare(&make(5, 5), OptimizerMode::RelGo).unwrap();
    let before = session.cache_metrics();
    // …then diverge: by-value rebinding is ambiguous, so execute must fall
    // back to the optimizer and still return the right rows.
    let out = stmt.execute(&[Value::Int(3), Value::Int(15_000)]).unwrap();
    assert!(!out.cached, "ambiguous rebind must not serve from the pin");
    let delta = session.cache_metrics().since(&before);
    assert!(delta.rebind_failures >= 1, "{delta:?}");
    let expected = session.run(&make(3, 15_000), OptimizerMode::RelGo).unwrap();
    assert!(out.table.bit_identical(&expected.table));
}
