//! Integration tests for the plan-cache serving path: `run_cached` must be
//! row-identical to the uncached `run` path (and the naive oracle) on
//! templated workloads, the warm path must skip the optimizer, and the
//! cache must behave deterministically under multi-threaded replay,
//! invalidation and capacity pressure.

use relgo::prelude::*;
use relgo::workloads::templates::{job_templates, snb_templates};

/// `run_cached` output is row-identical to `run` and the oracle for every
/// templated SNB query, across modes including RelGo — both the priming
/// (miss) instance and the rebound (hit) instances.
#[test]
fn snb_run_cached_matches_oracle_across_modes() {
    let (session, schema) = Session::snb(0.04, 42).unwrap();
    for mode in [OptimizerMode::RelGo, OptimizerMode::GRainDb] {
        for t in snb_templates(&schema) {
            for draw in [0, 7, 13] {
                let q = t.instantiate(draw).unwrap();
                let expected = session.oracle(&q).unwrap().sorted_rows();
                let uncached = session.run(&q, mode).unwrap();
                let cached = session.run_cached(&q, mode).unwrap();
                assert_eq!(
                    cached.table.sorted_rows(),
                    expected,
                    "{} draw {draw} vs oracle under {}",
                    t.name(),
                    mode.name()
                );
                assert_eq!(
                    cached.table.sorted_rows(),
                    uncached.table.sorted_rows(),
                    "{} draw {draw} cached vs uncached under {}",
                    t.name(),
                    mode.name()
                );
            }
        }
    }
    let m = session.cache_metrics();
    assert!(m.hits > 0, "replayed draws must hit: {m:?}");
    assert_eq!(m.rebind_failures, 0, "{m:?}");
}

/// Same row-identity contract on the templated JOB workload.
#[test]
fn job_run_cached_matches_oracle_across_modes() {
    let (session, schema) = Session::imdb(0.1, 7).unwrap();
    for mode in [OptimizerMode::RelGo, OptimizerMode::GRainDb] {
        for t in job_templates(&schema) {
            for draw in [1, 5, 11] {
                let q = t.instantiate(draw).unwrap();
                let expected = session.oracle(&q).unwrap().sorted_rows();
                let cached = session.run_cached(&q, mode).unwrap();
                assert_eq!(
                    cached.table.sorted_rows(),
                    expected,
                    "{} draw {draw} under {}",
                    t.name(),
                    mode.name()
                );
            }
        }
    }
    assert_eq!(session.cache_metrics().rebind_failures, 0);
}

/// Warm `run_cached` skips the optimizer: summed warm optimizer time must
/// be at least 10x below the summed cold optimizer time on the same
/// repeated-template traffic.
#[test]
fn warm_cache_skips_optimizer_10x() {
    let (session, schema) = Session::snb(0.05, 42).unwrap();
    let templates = snb_templates(&schema);
    let reps = 10u64;
    let mut cold = std::time::Duration::ZERO;
    let mut warm = std::time::Duration::ZERO;
    for t in &templates {
        session
            .run_cached(&t.instantiate(0).unwrap(), OptimizerMode::RelGo)
            .unwrap();
        for draw in 1..=reps {
            let q = t.instantiate(draw).unwrap();
            cold += session.run(&q, OptimizerMode::RelGo).unwrap().opt.elapsed;
            let out = session.run_cached(&q, OptimizerMode::RelGo).unwrap();
            assert!(out.cached, "{} draw {draw} must hit", t.name());
            assert_eq!(out.opt.plans_visited, 0, "no search on the warm path");
            assert!(!out.opt.timed_out);
            warm += out.opt.elapsed;
        }
    }
    // Wall-clock ratios are only asserted in release builds, where the
    // margin over the 10x contract is wide;
    // debug builds rely on the deterministic plans_visited/cached asserts
    // above so a loaded CI runner cannot flake the suite.
    if !cfg!(debug_assertions) {
        assert!(
            cold >= warm * 10,
            "warm path must be >= 10x cheaper: cold={cold:?} warm={warm:?}"
        );
    }
}

/// Deterministic hit/miss accounting under multi-threaded serving: after a
/// single-threaded priming pass (one miss per template), concurrent
/// `run_cached` traffic is hits-only, and concurrent executes of shared
/// prepared handles are pinned hits that never probe the cache.
#[test]
fn multithreaded_replay_reports_expected_counts() {
    let (session, schema) = Session::snb(0.03, 42).unwrap();
    let templates = snb_templates(&schema);
    for t in &templates {
        let out = session
            .run_cached(&t.instantiate(0).unwrap(), OptimizerMode::RelGo)
            .unwrap();
        assert!(!out.cached, "first instance misses");
    }
    let primed = session.cache_metrics();
    assert_eq!(primed.misses as usize, templates.len());
    assert_eq!(primed.hits, 0);

    // Worker `w`'s draw in round `r` is `w * rounds + r`: literals vary,
    // template structure repeats.
    let (threads, rounds) = (4, 5);
    let queries = threads * rounds * templates.len();
    let templates = &templates;
    let serve = |query: &(dyn Fn(usize, u64) -> QueryOutcome + Sync)| {
        std::thread::scope(|s| {
            for w in 0..threads {
                s.spawn(move || {
                    for r in 0..rounds {
                        for (t, template) in templates.iter().enumerate() {
                            let out = query(t, (w * rounds + r) as u64);
                            assert!(out.cached, "{} must not optimize", template.name());
                        }
                    }
                });
            }
        });
    };

    let before = session.cache_metrics();
    serve(&|t, draw| {
        let q = templates[t].instantiate(draw).unwrap();
        session.run_cached(&q, OptimizerMode::RelGo).unwrap()
    });
    let cached = session.cache_metrics().since(&before);
    assert_eq!(cached.hits as usize, queries, "{cached:?}");
    assert_eq!(cached.misses, 0, "{cached:?}");

    // Second phase: one shared handle per template. Preparing probes the
    // cache once per template; executes only rebind the pin.
    let before = session.cache_metrics();
    let statements: Vec<_> = templates
        .iter()
        .map(|t| {
            session
                .prepare(&t.instantiate(0).unwrap(), OptimizerMode::RelGo)
                .unwrap()
        })
        .collect();
    serve(&|t, draw| {
        let bindings = templates[t].bindings(draw).unwrap();
        statements[t].execute(&bindings).unwrap()
    });
    let prepared = session.cache_metrics().since(&before);
    assert_eq!(prepared.prepared_hits as usize, queries, "{prepared:?}");
    assert_eq!(
        (prepared.hits + prepared.misses) as usize,
        templates.len(),
        "only the prepare probes touch the cache: {prepared:?}"
    );
}

/// Statistics rebuilds invalidate cached plans; capacity pressure evicts.
#[test]
fn invalidation_and_eviction() {
    let options = SessionOptions {
        plan_cache_shards: 1,
        plan_cache_capacity: 2,
        ..SessionOptions::default()
    };
    let (session, schema) = Session::snb_with(0.03, 42, options).unwrap();
    let templates = snb_templates(&schema);
    assert!(templates.len() > 2);
    for t in &templates {
        session
            .run_cached(&t.instantiate(0).unwrap(), OptimizerMode::RelGo)
            .unwrap();
    }
    let m = session.cache_metrics();
    assert!(
        m.evictions >= (templates.len() - 2) as u64,
        "capacity 2 must evict: {m:?}"
    );
    assert!(session.plan_cache().len() <= 2);

    // A commit refreshes the statistics and bumps the version: the next
    // lookup misses.
    let t0 = &templates[templates.len() - 1];
    let hit = session
        .run_cached(&t0.instantiate(1).unwrap(), OptimizerMode::RelGo)
        .unwrap();
    assert!(hit.cached, "entry live before the commit");
    let mut batch = session.begin_ingest();
    let row = vec![800_000.into(), "Fresh".into(), Value::Date(17_000)];
    batch.insert_row("Person", row).unwrap();
    batch.commit().unwrap();
    assert_eq!(session.cache_metrics().invalidations, 1);
    let out = session
        .run_cached(&t0.instantiate(2).unwrap(), OptimizerMode::RelGo)
        .unwrap();
    assert!(!out.cached, "stale plan discarded after the commit");
}

/// An ambiguous rebind (two slots shared a literal when the plan was
/// cached, then diverged) falls back to the optimizer, stays correct, and
/// is counted as a rebind failure.
#[test]
fn ambiguous_rebind_falls_back_to_optimizer() {
    use relgo::core::spjm::SpjmBuilder;
    use relgo::pattern::PatternBuilder;
    use relgo::storage::BinaryOp;

    let (session, schema) = Session::snb(0.03, 42).unwrap();
    // Template: p_id = ?a AND m_date > ?b over the has-creator edge; the
    // two slots are both Ints/Dates that can collide numerically.
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

    // Prime with colliding slot values (5, 5)…
    let q1 = make(5, 5);
    session.run_cached(&q1, OptimizerMode::RelGo).unwrap();
    // …then diverge: the by-value substitution is ambiguous, so run_cached
    // must fall back to the optimizer and still be correct.
    let q2 = make(3, 15_000);
    let out = session.run_cached(&q2, OptimizerMode::RelGo).unwrap();
    assert!(!out.cached, "ambiguous rebind must not serve from cache");
    assert_eq!(
        out.table.sorted_rows(),
        session.oracle(&q2).unwrap().sorted_rows()
    );
    assert!(session.cache_metrics().rebind_failures >= 1);

    // Non-colliding instances of the same template keep hitting.
    let q3 = make(4, 16_000);
    let out = session.run_cached(&q3, OptimizerMode::RelGo).unwrap();
    assert!(out.cached);
    assert_eq!(
        out.table.sorted_rows(),
        session.oracle(&q3).unwrap().sorted_rows()
    );
}

/// Isomorphic renamings of the same template (vertices inserted in a
/// different order) land on the same cache entry.
#[test]
fn renamed_isomorphic_queries_share_entries() {
    use relgo::core::spjm::SpjmBuilder;
    use relgo::pattern::PatternBuilder;

    let (session, schema) = Session::snb(0.03, 42).unwrap();
    let make = |person: i64, swapped: bool| {
        let mut pb = PatternBuilder::new();
        let (p, m) = if swapped {
            let m = pb.vertex("m", schema.message);
            let p = pb.vertex("p", schema.person);
            (p, m)
        } else {
            let p = pb.vertex("p", schema.person);
            let m = pb.vertex("m", schema.message);
            (p, m)
        };
        pb.edge(p, m, schema.likes).unwrap();
        let mut b = SpjmBuilder::new(pb.build().unwrap());
        let p_id = b.vertex_column(p, 0, "p_id");
        let m_date = b.vertex_column(m, 2, "m_date");
        b.select(ScalarExpr::col_eq(p_id, person));
        b.project(&[m_date]);
        b.build()
    };

    let before = session.cache_metrics();
    let a = session
        .run_cached(&make(5, false), OptimizerMode::RelGo)
        .unwrap();
    assert!(!a.cached);
    let b = session
        .run_cached(&make(9, true), OptimizerMode::RelGo)
        .unwrap();
    assert!(b.cached, "renamed isomorphic instance must hit");
    assert_eq!(
        b.table.sorted_rows(),
        session.oracle(&make(9, true)).unwrap().sorted_rows()
    );
    let delta = session.cache_metrics().since(&before);
    assert_eq!((delta.hits, delta.misses), (1, 1));
}

/// The graph-aware search obeys `opt_timeout` like every other mode: with
/// no budget it answers with the greedy plan over the same space — still
/// correct — reports `timed_out`, and the fallback is not cached for the
/// template's future instances.
#[test]
fn relgo_without_budget_falls_back_and_is_not_cached() {
    let options = SessionOptions {
        opt_timeout: std::time::Duration::ZERO,
        ..SessionOptions::default()
    };
    let (session, schema) = Session::snb_with(0.04, 42, options).unwrap();
    let q = relgo::workloads::snb_queries::ic5(&schema, 1, 5, 14_000).unwrap();
    let expected = session.oracle(&q).unwrap().sorted_rows();
    for _ in 0..2 {
        let out = session.run_cached(&q, OptimizerMode::RelGo).unwrap();
        assert_eq!(out.table.sorted_rows(), expected);
        assert!(out.opt.timed_out, "a zero budget must be reported");
        assert!(
            out.opt.plans_visited > 0,
            "the fallback's steps are counted"
        );
        assert!(!out.cached);
        assert!(
            session.plan_cache().is_empty(),
            "fallback plans are not cached"
        );
    }
}
