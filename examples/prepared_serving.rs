//! Prepared-statement serving demo: the same templated SNB workload served
//! two ways — through the plan cache (`run_cached`) and through prepared
//! handles (`execute`: rebind only) — with per-regime timing and the
//! cache's prepared-statement metrics.
//!
//! The first instance of every template pays the converged optimizer;
//! after that both regimes serve from the cache, and the summed optimizer
//! time per regime shows how little is left of it. `RELGO_THREADS=2`
//! gives every query 2 morsel workers inside its graph operators; the
//! serving threads run above that, and the two levels compose.
//!
//! Run with: `cargo run --release --example prepared_serving [-- --quick]`

use relgo::prelude::*;
use relgo::workloads::templates::snb_templates;
use std::time::{Duration, Instant};

fn main() -> Result<()> {
    let quick = std::env::args().any(|a| a == "--quick");
    let (sf, threads, rounds) = if quick { (0.03, 2, 4) } else { (0.1, 4, 24) };

    println!("generating SNB-like data (sf={sf}) and building the session...");
    let options = SessionOptions::default();
    println!(
        "  serving threads: {threads}, intra-query morsel workers: {} (RELGO_THREADS)",
        options.threads
    );
    let (session, schema) = Session::snb_with(sf, 42, options)?;
    let templates = snb_templates(&schema);

    // Cold: every template's first instance misses and pays the full
    // GLogue cost-based optimization.
    let mut cold_opt = Duration::ZERO;
    for t in &templates {
        let out = session.run_cached(&t.instantiate(0)?, OptimizerMode::RelGo)?;
        assert!(!out.cached);
        cold_opt += out.opt.elapsed;
    }
    println!(
        "  cold: {} templates optimized in {:.3} ms",
        templates.len(),
        cold_opt.as_secs_f64() * 1e3
    );

    // One prepared handle per template, shared by every serving thread:
    // parameterize + cache probe once.
    let statements = templates
        .iter()
        .map(|t| session.prepare(&t.instantiate(0)?, OptimizerMode::RelGo))
        .collect::<Result<Vec<_>>>()?;
    for (t, stmt) in templates.iter().zip(&statements) {
        println!(
            "  prepared {:<8} slots '{}' key fingerprint {:016x}",
            t.name(),
            stmt.slot_sig(),
            stmt.key().fingerprint()
        );
    }

    // The same traffic under each regime: thread `w`'s draw in round `r`
    // is `w * rounds + r`, so literals vary while template structure
    // repeats.
    println!(
        "serving {threads} threads x {rounds} rounds x {} templates per regime...",
        templates.len()
    );
    let (session, templates, statements) = (&session, &templates, &statements);
    for prepared in [false, true] {
        let regime = if prepared { "prepared" } else { "cached" };
        let before = session.cache_metrics();
        let start = Instant::now();
        let outcomes = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|w| {
                    s.spawn(move || -> Result<Vec<QueryOutcome>> {
                        let mut outcomes = Vec::new();
                        for r in 0..rounds {
                            let draw = (w * rounds + r) as u64;
                            for (t, stmt) in templates.iter().zip(statements) {
                                outcomes.push(if prepared {
                                    stmt.execute(&t.bindings(draw)?)?
                                } else {
                                    session
                                        .run_cached(&t.instantiate(draw)?, OptimizerMode::RelGo)?
                                });
                            }
                        }
                        Ok(outcomes)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|h| h.join().expect("serving thread panicked"))
                .collect::<Result<Vec<_>>>()
        })?;
        let elapsed = start.elapsed();
        let outcomes: Vec<QueryOutcome> = outcomes.into_iter().flatten().collect();
        let opt: Duration = outcomes.iter().map(|o| o.opt.elapsed).sum();
        println!(
            "  {regime:<10} {} queries in {:>7.1} ms ({:>6.0} q/s)  summed opt {:>7.3} ms",
            outcomes.len(),
            elapsed.as_secs_f64() * 1e3,
            outcomes.len() as f64 / elapsed.as_secs_f64().max(1e-9),
            opt.as_secs_f64() * 1e3
        );
        // This regime's cache-metric deltas (not the session-lifetime
        // totals).
        let m = session.cache_metrics().since(&before);
        println!(
            "             deltas: hits={} misses={} invalidations={} prepared_hits={} prepared_invalidations={}",
            m.hits, m.misses, m.invalidations, m.prepared_hits, m.prepared_invalidations
        );
        assert_eq!(outcomes.len(), threads * rounds * templates.len());
        assert!(outcomes.iter().all(|o| o.cached), "serving is warm");
        assert_eq!(m.invalidations, 0, "no commits mid-serving");
    }

    // The cache counters come from the session; the unified snapshot
    // covers the query-latency histograms and everything else it registers.
    let obs = session.observability_snapshot();
    let m = session.cache_metrics();
    println!(
        "  cache metrics: hits={} misses={} prepared_hits={} prepared_invalidations={} rebind_failures={}",
        m.hits, m.misses, m.prepared_hits, m.prepared_invalidations, m.rebind_failures
    );
    println!(
        "  observability: epoch {}, {} series, {} queries recorded across all paths",
        session.epoch(),
        obs.registry.names().len(),
        obs.registry.counter_sum("relgo_queries_total")
    );
    assert!(m.prepared_hits > 0);
    assert_eq!(m.rebind_failures, 0);
    Ok(())
}
