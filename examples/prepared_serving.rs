//! Prepared-statement serving demo: the same templated SNB workload served
//! two ways — through the plan cache (`run_cached`) and through prepared
//! handles (`execute`: rebind only) — with per-regime timing and the
//! cache's prepared-statement metrics.
//!
//! `RELGO_THREADS=2` gives every query 2 morsel workers inside its graph
//! operators; the replay itself runs from several serving threads, and the
//! two levels compose.
//!
//! Run with: `cargo run --release --example prepared_serving [-- --quick]`

use relgo::prelude::*;
use relgo::workloads::templates::snb_templates;

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

    // One prepared handle per template: parameterize + optimize once.
    for t in &templates {
        let stmt = session.prepare(&t.instantiate(0)?, OptimizerMode::RelGo)?;
        println!(
            "  prepared {:<8} slots '{}' key fingerprint {:016x}",
            t.name(),
            stmt.slot_sig(),
            stmt.key().fingerprint()
        );
    }

    // Replay the same traffic under each serving regime.
    println!(
        "replaying {threads} threads x {rounds} rounds x {} templates per regime...",
        templates.len()
    );
    for serve in [ServeMode::Cached, ServeMode::Prepared] {
        let report = replay_concurrent_with(
            &session,
            &templates,
            OptimizerMode::RelGo,
            threads,
            rounds,
            serve,
        )?;
        let ms = |d: Option<std::time::Duration>| d.map_or(f64::NAN, |d| d.as_secs_f64() * 1e3);
        println!(
            "  {:<10} {} queries in {:>7.1} ms ({:>6.0} q/s)  p50 {:>6.3} ms  p99 {:>6.3} ms  opt {:>7.3} ms  cached {}",
            serve.name(),
            report.queries,
            report.elapsed.as_secs_f64() * 1e3,
            report.throughput(),
            ms(report.p50()),
            ms(report.p99()),
            report.opt_time.as_secs_f64() * 1e3,
            report.cached_queries
        );
        // Per-replay cache-metric deltas (not the session-lifetime totals):
        // what this regime alone did to the cache.
        let m = report.metrics;
        println!(
            "             deltas: hits={} misses={} invalidations={} prepared_hits={} prepared_invalidations={}",
            m.hits, m.misses, m.invalidations, m.prepared_hits, m.prepared_invalidations
        );
        assert_eq!(report.queries, threads * rounds * templates.len());
        assert_eq!(report.cached_queries, report.queries, "replay is warm");
        assert_eq!(m.invalidations, 0, "no statistics rebuilds mid-replay");
    }

    // One unified snapshot covers the cache counters, the query-latency
    // histograms, and everything else the session registers.
    let obs = session.observability_snapshot();
    let m = obs.cache;
    println!(
        "  cache metrics: hits={} misses={} prepared_hits={} prepared_invalidations={} rebind_failures={}",
        m.hits, m.misses, m.prepared_hits, m.prepared_invalidations, m.rebind_failures
    );
    println!(
        "  observability: epoch {}, {} series, {} queries recorded across all paths",
        obs.epoch,
        obs.registry.names().len(),
        obs.registry.counter_sum("relgo_queries_total")
    );
    assert!(m.prepared_hits > 0);
    assert_eq!(m.rebind_failures, 0);
    Ok(())
}
