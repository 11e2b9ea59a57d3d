//! One function per paper figure; each returns the printable report.

use crate::harness::{cell, geomean, measure, BenchConfig, Timing};
use relgo::pattern::search_space::fig4a_series;
use relgo::prelude::*;
use relgo::workloads::{job_queries, snb_queries, Workload};
use std::fmt::Write as _;

/// Fig. 4a: search-space comparison on path patterns (m = 1..10).
pub fn fig4a() -> Result<String> {
    let rows = fig4a_series(10)?;
    let mut out = String::new();
    writeln!(
        out,
        "Fig 4a — Search space: graph-aware vs graph-agnostic (path patterns)"
    )
    .ok();
    writeln!(
        out,
        "{} {} {} {}",
        cell("m", 3),
        cell("aware", 16),
        cell("agnostic", 22),
        cell("ratio", 12)
    )
    .ok();
    for r in &rows {
        writeln!(
            out,
            "{} {} {} {}",
            cell(&r.edges.to_string(), 3),
            cell(&format!("{:.3e}", r.aware as f64), 16),
            cell(&format!("{:.3e}", r.agnostic as f64), 22),
            cell(&format!("{:.1e}", r.agnostic as f64 / r.aware as f64), 12),
        )
        .ok();
    }
    Ok(out)
}

/// Fig. 4b: optimization time on the IC workload — RelGo vs the
/// Calcite-like exhaustive enumerator (no pruning, no memoization) — and
/// the candidate steps each search evaluated: the same driver, once
/// memoized over decomposition trees, once unmemoized over all relations.
pub fn fig4b(cfg: &BenchConfig) -> Result<String> {
    let (session, schema) = Session::snb(cfg.snb_sf_small, 42)?;
    let queries = snb_queries::ldbc_interactive(&schema)?;
    let mut out = String::new();
    writeln!(
        out,
        "Fig 4b — Optimization time (ms), Calcite-like vs RelGo (timeout {:?})",
        cfg.opt_timeout
    )
    .ok();
    writeln!(
        out,
        "{} {} {} {} {}",
        cell("query", 7),
        cell("Calcite", 12),
        cell("RelGo", 10),
        cell("Calcite vis.", 13),
        cell("RelGo vis.", 11)
    )
    .ok();
    for w in &queries {
        // RelGo: warm GLogue once, then time the optimization alone.
        let _ = session.optimize(&w.query, OptimizerMode::RelGo)?;
        let (_, relgo_stats) = session.optimize(&w.query, OptimizerMode::RelGo)?;
        let (_, calcite_stats) = session.optimize(&w.query, OptimizerMode::CalciteLike)?;
        let calcite_txt = if calcite_stats.timed_out {
            "OT".to_string()
        } else {
            format!("{:.3}", calcite_stats.elapsed.as_secs_f64() * 1e3)
        };
        writeln!(
            out,
            "{} {} {} {} {}",
            cell(&w.name, 7),
            cell(&calcite_txt, 12),
            cell(
                &format!("{:.3}", relgo_stats.elapsed.as_secs_f64() * 1e3),
                10
            ),
            cell(&calcite_stats.plans_visited.to_string(), 13),
            cell(&relgo_stats.plans_visited.to_string(), 11),
        )
        .ok();
    }
    Ok(out)
}

fn run_matrix(
    session: &Session,
    queries: &[&Workload],
    modes: &[OptimizerMode],
    reps: usize,
    out: &mut String,
    split_opt_exec: bool,
) -> Result<Vec<Vec<Timing>>> {
    let mut header = cell("query", 7);
    for m in modes {
        if split_opt_exec {
            header.push_str(&cell(&format!("{} opt", m.name()), 14));
            header.push_str(&cell(&format!("{} exe", m.name()), 14));
        } else {
            header.push_str(&cell(m.name(), 13));
        }
    }
    writeln!(out, "{header}").ok();
    let mut all = Vec::new();
    for w in queries {
        let mut line = cell(&w.name, 7);
        let mut row = Vec::new();
        for mode in modes {
            let t = measure(session, &w.query, *mode, reps)?;
            match (&t, split_opt_exec) {
                (
                    Timing::Ok {
                        opt_ms, exec_ms, ..
                    },
                    true,
                ) => {
                    line.push_str(&cell(&format!("{opt_ms:.2}"), 14));
                    line.push_str(&cell(&format!("{exec_ms:.2}"), 14));
                }
                (Timing::Oom, true) => {
                    line.push_str(&cell("OOM", 14));
                    line.push_str(&cell("OOM", 14));
                }
                (t, false) => line.push_str(&cell(&t.display(), 13)),
            }
            row.push(t);
        }
        writeln!(out, "{line}").ok();
        all.push(row);
    }
    Ok(all)
}

/// Fig. 7: optimization + execution time, RelGo vs GRainDB, on the SNB
/// subset (IC1-3, IC2, IC4, IC7) and the IMDB subset (JOB1..4).
pub fn fig7(cfg: &BenchConfig) -> Result<String> {
    let mut out = String::new();
    writeln!(out, "Fig 7 — E2E time split (ms), RelGo vs GRainDB").ok();
    writeln!(out, "(a) SNB-like sf={}", cfg.snb_sf_mid).ok();
    let (session, schema) = Session::snb(cfg.snb_sf_mid, 42)?;
    let all = snb_queries::ldbc_interactive(&schema)?;
    let pick = ["IC1-3", "IC2", "IC4", "IC7"];
    let subset: Vec<&Workload> = all
        .iter()
        .filter(|w| pick.contains(&w.name.as_str()))
        .collect();
    run_matrix(
        &session,
        &subset,
        &[OptimizerMode::RelGo, OptimizerMode::GRainDb],
        cfg.reps,
        &mut out,
        true,
    )?;
    writeln!(out, "(b) IMDB-like sf={}", cfg.imdb_sf).ok();
    let (session, schema) = Session::imdb(cfg.imdb_sf, 7)?;
    let jobs = job_queries::job_queries(&schema)?;
    let subset: Vec<&Workload> = jobs.iter().take(4).collect();
    run_matrix(
        &session,
        &subset,
        &[OptimizerMode::RelGo, OptimizerMode::GRainDb],
        cfg.reps,
        &mut out,
        true,
    )?;
    Ok(out)
}

/// Fig. 8: heuristic-rule ablation — RelGo vs RelGoNoRule on QR1..4 at two
/// scales.
pub fn fig8(cfg: &BenchConfig) -> Result<String> {
    let mut out = String::new();
    writeln!(out, "Fig 8 — RelGo vs RelGoNoRule on QR1..4 (e2e ms)").ok();
    for (tag, sf) in [
        ("LDBC10-like", cfg.snb_sf_small),
        ("LDBC30-like", cfg.snb_sf_mid),
    ] {
        writeln!(out, "({tag}, sf={sf})").ok();
        let (session, schema) = Session::snb(sf, 42)?;
        let qr = snb_queries::qr_queries(&schema)?;
        let refs: Vec<&Workload> = qr.iter().collect();
        let rows = run_matrix(
            &session,
            &refs,
            &[OptimizerMode::RelGo, OptimizerMode::RelGoNoRule],
            cfg.reps,
            &mut out,
            false,
        )?;
        let speedups: Vec<f64> = rows.iter().map(|r| r[1].e2e_ms() / r[0].e2e_ms()).collect();
        writeln!(
            out,
            "  speedup per query: {:?}",
            speedups
                .iter()
                .map(|s| format!("{s:.1}x"))
                .collect::<Vec<_>>()
        )
        .ok();
        writeln!(
            out,
            "  FilterIntoMatch (QR1,QR2) geomean: {:.1}x;  TrimAndFuse (QR3,QR4) geomean: {:.1}x",
            geomean(&speedups[..2]),
            geomean(&speedups[2..]),
        )
        .ok();
    }
    Ok(out)
}

/// Fig. 9: EI-join ablation — RelGo vs RelGoNoEI on QC1..3 at two scales.
pub fn fig9(cfg: &BenchConfig) -> Result<String> {
    let mut out = String::new();
    writeln!(out, "Fig 9 — RelGo vs RelGoNoEI on QC1..3 (e2e ms)").ok();
    for (tag, sf) in [
        ("LDBC10-like", cfg.snb_sf_small),
        ("LDBC30-like", cfg.snb_sf_mid),
    ] {
        writeln!(out, "({tag}, sf={sf})").ok();
        let (session, schema) = Session::snb(sf, 42)?;
        let qc = snb_queries::qc_queries(&schema)?;
        let refs: Vec<&Workload> = qc.iter().collect();
        let rows = run_matrix(
            &session,
            &refs,
            &[OptimizerMode::RelGo, OptimizerMode::RelGoNoEI],
            cfg.reps,
            &mut out,
            false,
        )?;
        let speedups: Vec<f64> = rows.iter().map(|r| r[1].e2e_ms() / r[0].e2e_ms()).collect();
        writeln!(
            out,
            "  NoEI/RelGo per query: {:?}",
            speedups
                .iter()
                .map(|s| format!("{s:.2}x"))
                .collect::<Vec<_>>()
        )
        .ok();
    }
    Ok(out)
}

/// Fig. 10: join-order efficiency — RelGo, GRainDB, RelGoHash, DuckDB on
/// ten JOB queries.
pub fn fig10(cfg: &BenchConfig) -> Result<String> {
    let mut out = String::new();
    writeln!(
        out,
        "Fig 10 — Join-order efficiency on JOB (e2e ms), sf={}",
        cfg.imdb_sf
    )
    .ok();
    let (session, schema) = Session::imdb(cfg.imdb_sf, 7)?;
    let jobs = job_queries::job_queries(&schema)?;
    let subset: Vec<&Workload> = jobs.iter().take(10).collect();
    let modes = [
        OptimizerMode::RelGo,
        OptimizerMode::GRainDb,
        OptimizerMode::RelGoHash,
        OptimizerMode::DuckDbLike,
    ];
    let rows = run_matrix(&session, &subset, &modes, cfg.reps, &mut out, false)?;
    let vs_graindb: Vec<f64> = rows.iter().map(|r| r[1].e2e_ms() / r[0].e2e_ms()).collect();
    let hash_vs_duck: Vec<f64> = rows.iter().map(|r| r[3].e2e_ms() / r[2].e2e_ms()).collect();
    writeln!(
        out,
        "  RelGo vs GRainDB geomean speedup: {:.1}x",
        geomean(&vs_graindb)
    )
    .ok();
    writeln!(
        out,
        "  RelGoHash vs DuckDB geomean speedup: {:.1}x",
        geomean(&hash_vs_duck)
    )
    .ok();
    Ok(out)
}

/// Fig. 11: comprehensive speedups vs the DuckDB-like baseline on the full
/// IC workload (Fig 11a analog) and all 33 JOB queries (Fig 11b analog).
pub fn fig11(cfg: &BenchConfig) -> Result<String> {
    let mut out = String::new();
    let modes = [
        OptimizerMode::DuckDbLike,
        OptimizerMode::RelGo,
        OptimizerMode::UmbraLike,
        OptimizerMode::GRainDb,
        OptimizerMode::KuzuLike,
    ];
    writeln!(
        out,
        "Fig 11a — Speedup vs DuckDB on SNB-like sf={}",
        cfg.snb_sf_large
    )
    .ok();
    let (session, schema) = Session::snb(cfg.snb_sf_large, 42)?;
    let queries = snb_queries::ldbc_interactive(&schema)?;
    let refs: Vec<&Workload> = queries.iter().collect();
    speedup_table(&session, &refs, &modes, cfg.reps, &mut out)?;

    writeln!(
        out,
        "\nFig 11b — Speedup vs DuckDB on IMDB-like sf={}",
        cfg.imdb_sf
    )
    .ok();
    let (session, schema) = Session::imdb(cfg.imdb_sf, 7)?;
    let jobs = job_queries::job_queries(&schema)?;
    let refs: Vec<&Workload> = jobs.iter().collect();
    speedup_table(&session, &refs, &modes, cfg.reps, &mut out)?;
    Ok(out)
}

fn speedup_table(
    session: &Session,
    queries: &[&Workload],
    modes: &[OptimizerMode],
    reps: usize,
    out: &mut String,
) -> Result<()> {
    let mut header = cell("query", 7);
    for m in &modes[1..] {
        header.push_str(&cell(m.name(), 12));
    }
    writeln!(out, "{header}   (baseline DuckDB ms in last column)").ok();
    let mut per_mode: Vec<Vec<f64>> = vec![Vec::new(); modes.len() - 1];
    for w in queries {
        let base = measure(session, &w.query, modes[0], reps)?;
        let mut line = cell(&w.name, 7);
        for (i, mode) in modes[1..].iter().enumerate() {
            let t = measure(session, &w.query, *mode, reps)?;
            let speedup = base.e2e_ms() / t.e2e_ms();
            per_mode[i].push(speedup);
            line.push_str(&cell(&format!("{speedup:.2}x"), 12));
        }
        line.push_str(&cell(&base.display(), 12));
        writeln!(out, "{line}").ok();
    }
    let mut line = cell("geomean", 7);
    for sp in &per_mode {
        line.push_str(&cell(&format!("{:.2}x", geomean(sp)), 12));
    }
    writeln!(out, "{line}").ok();
    Ok(())
}

/// Fig. 12: the JOB17 case-study plans under RelGo, GRainDB and Umbra-like.
pub fn fig12(cfg: &BenchConfig) -> Result<String> {
    let (session, schema) = Session::imdb(cfg.imdb_sf, 7)?;
    let q = job_queries::build_job(&schema, &job_queries::job_specs()[16])?;
    let mut out = String::new();
    writeln!(out, "Fig 12 — JOB17 case study plans").ok();
    for mode in [
        OptimizerMode::RelGo,
        OptimizerMode::GRainDb,
        OptimizerMode::UmbraLike,
    ] {
        writeln!(out, "--- {} ---", mode.name()).ok();
        writeln!(out, "{}", session.explain(&q, mode)?).ok();
    }
    Ok(out)
}

/// Plan-cache figure (`fig_cache`): per-template optimizer time with a cold
/// cache vs the warm `run_cached` path (parameterize + rebind), then a
/// multi-threaded templated replay against one shared session with the
/// cache-metric deltas.
pub fn fig_cache(cfg: &BenchConfig) -> Result<String> {
    use relgo::workloads::templates::{job_templates, snb_templates};

    let mut out = String::new();
    writeln!(
        out,
        "fig_cache — plan cache: cold optimize vs warm rebind (opt ms)"
    )
    .ok();

    // Explicit options (the `*_with` constructors): the harness's optimizer
    // timeout, and cache sizing comfortably above the template count.
    let options = SessionOptions {
        opt_timeout: cfg.opt_timeout,
        plan_cache_shards: 4,
        plan_cache_capacity: 256,
        ..SessionOptions::default()
    };
    let (snb, sschema) = Session::snb_with(cfg.snb_sf_small, 42, options)?;
    let (imdb, ischema) = Session::imdb_with(cfg.imdb_sf, 7, options)?;
    let suites: [(&str, &Session, Vec<QueryTemplate>); 2] = [
        ("SNB", &snb, snb_templates(&sschema)),
        ("JOB", &imdb, job_templates(&ischema)),
    ];

    for (tag, session, templates) in &suites {
        writeln!(out, "({tag})").ok();
        writeln!(
            out,
            "{} {} {} {}",
            cell("template", 16),
            cell("cold opt", 12),
            cell("warm opt", 12),
            cell("ratio", 10)
        )
        .ok();
        let mut ratios = Vec::new();
        for t in templates {
            // Cold: the ordinary run path re-optimizes every repetition.
            let mut cold = Vec::new();
            for rep in 0..cfg.reps.max(1) {
                let q = t.instantiate(rep as u64)?;
                cold.push(session.run(&q, OptimizerMode::RelGo)?.opt.elapsed);
            }
            // Warm: prime once, then every instance rebinds.
            session.run_cached(&t.instantiate(0)?, OptimizerMode::RelGo)?;
            let mut warm = Vec::new();
            for rep in 0..cfg.reps.max(1) {
                let q = t.instantiate(1 + rep as u64)?;
                let o = session.run_cached(&q, OptimizerMode::RelGo)?;
                warm.push(o.opt.elapsed);
            }
            let cold_ms = median_duration_ms(&mut cold);
            let warm_ms = median_duration_ms(&mut warm);
            let ratio = cold_ms / warm_ms.max(1e-6);
            ratios.push(ratio);
            writeln!(
                out,
                "{} {} {} {}",
                cell(t.name(), 16),
                cell(&format!("{cold_ms:.3}"), 12),
                cell(&format!("{warm_ms:.3}"), 12),
                cell(&format!("{ratio:.0}x"), 10)
            )
            .ok();
        }
        writeln!(out, "  geomean opt-time ratio: {:.0}x", geomean(&ratios)).ok();
    }

    // Multi-threaded replay: 4 workers share the SNB session.
    let templates = snb_templates(&sschema);
    let threads = 4;
    let rounds = cfg.reps.max(2);
    for t in &templates {
        snb.run_cached(&t.instantiate(0)?, OptimizerMode::RelGo)?;
    }
    let report = replay_concurrent(&snb, &templates, OptimizerMode::RelGo, threads, rounds)?;
    writeln!(
        out,
        "(replay) {} threads x {} rounds x {} templates = {} queries in {:.0} ms ({:.0} q/s)",
        threads,
        rounds,
        templates.len(),
        report.queries,
        report.elapsed.as_secs_f64() * 1e3,
        report.throughput()
    )
    .ok();
    let m = report.metrics;
    writeln!(
        out,
        "  cache: hits={} misses={} evictions={} rebind_failures={} (hit ratio {:.0}%)",
        m.hits,
        m.misses,
        m.evictions,
        m.rebind_failures,
        m.hit_ratio() * 100.0
    )
    .ok();
    Ok(out)
}

fn median_duration_ms(xs: &mut [std::time::Duration]) -> f64 {
    xs.sort();
    xs[xs.len() / 2].as_secs_f64() * 1e3
}

/// Prepared-statement figure (`fig_prepared`): per-query opt/rebind time
/// under four serving regimes — cold `run` (full optimization), warm
/// `run_cached` (parameterize + cache probe + rebind), prepared `execute`
/// (validate + rebind only), and prepared `execute_batch` (shared batch
/// operator state) — plus a concurrent replay under each [`ServeMode`].
///
/// The figure *errors* (rather than printing a wrong table) if prepared
/// execution does not spend strictly less opt/rebind time than the warm
/// cached path on a suite (summed per-template **medians**, so one
/// scheduler stall on a sub-millisecond measurement cannot flip the
/// comparison), or if any batched result is not bit-identical to its
/// per-query `execute` twin — so rendering doubles as the acceptance
/// check, across both the RelGo and GRainDB modes.
pub fn fig_prepared(cfg: &BenchConfig) -> Result<String> {
    use relgo::workloads::templates::{job_templates, snb_templates};

    let mut out = String::new();
    writeln!(
        out,
        "fig_prepared — prepared statements: per-query opt/rebind ms by serving regime"
    )
    .ok();

    let options = SessionOptions {
        opt_timeout: cfg.opt_timeout,
        plan_cache_shards: 4,
        plan_cache_capacity: 256,
        ..SessionOptions::default()
    };
    let (snb, sschema) = Session::snb_with(cfg.snb_sf_small, 42, options)?;
    let (imdb, ischema) = Session::imdb_with(cfg.imdb_sf, 7, options)?;
    let suites: [(&str, &Session, Vec<QueryTemplate>); 2] = [
        ("SNB", &snb, snb_templates(&sschema)),
        ("JOB", &imdb, job_templates(&ischema)),
    ];
    let reps = cfg.reps.max(3) as u64;

    for (tag, session, templates) in &suites {
        for mode in [OptimizerMode::RelGo, OptimizerMode::GRainDb] {
            writeln!(out, "({tag}, {})", mode.name()).ok();
            writeln!(
                out,
                "{} {} {} {} {} {}",
                cell("template", 16),
                cell("cold", 10),
                cell("cached", 10),
                cell("prepared", 10),
                cell("batched", 10),
                cell("cached/prep", 12)
            )
            .ok();
            let mut cached_total = 0f64;
            let mut prepared_total = 0f64;
            for t in templates {
                // Cold: every instance pays the full optimizer.
                let mut cold = Vec::with_capacity(reps as usize);
                for draw in 1..=reps {
                    cold.push(session.run(&t.instantiate(draw)?, mode)?.opt.elapsed);
                }
                // Warm cached: prime, then parameterize+probe+rebind.
                session.run_cached(&t.instantiate(0)?, mode)?;
                let mut cached = Vec::with_capacity(reps as usize);
                for draw in 1..=reps {
                    cached.push(session.run_cached(&t.instantiate(draw)?, mode)?.opt.elapsed);
                }
                // Prepared: validate+rebind only; keep the per-query tables
                // for the batch bit-identity check.
                let stmt = session.prepare(&t.instantiate(0)?, mode)?;
                let bindings: Vec<Vec<Value>> =
                    (1..=reps).map(|d| t.bindings(d)).collect::<Result<_>>()?;
                let mut prepared = Vec::with_capacity(bindings.len());
                let mut singles = Vec::with_capacity(bindings.len());
                for b in &bindings {
                    let o = stmt.execute(b)?;
                    prepared.push(o.opt.elapsed);
                    singles.push(o.table);
                }
                // Batched: all bindings against one shared operator state.
                let batch = stmt.execute_batch(&bindings)?;
                for (i, (single, batched)) in singles.iter().zip(&batch.tables).enumerate() {
                    if !single.bit_identical(batched) {
                        return Err(RelGoError::execution(format!(
                            "{tag} {} ({}): batched result {i} diverges from per-query execute",
                            t.name(),
                            mode.name()
                        )));
                    }
                }
                // Per-query medians: robust to a one-off scheduler stall.
                let cold_ms = median_duration_ms(&mut cold);
                let cached_ms = median_duration_ms(&mut cached);
                let prepared_ms = median_duration_ms(&mut prepared);
                let batched_ms = batch.opt.elapsed.as_secs_f64() * 1e3 / reps as f64;
                cached_total += cached_ms;
                prepared_total += prepared_ms;
                writeln!(
                    out,
                    "{} {} {} {} {} {}",
                    cell(t.name(), 16),
                    cell(&format!("{cold_ms:.3}"), 10),
                    cell(&format!("{cached_ms:.3}"), 10),
                    cell(&format!("{prepared_ms:.3}"), 10),
                    cell(&format!("{batched_ms:.3}"), 10),
                    cell(&format!("{:.1}x", cached_ms / prepared_ms.max(1e-9)), 12)
                )
                .ok();
            }
            if prepared_total >= cached_total {
                return Err(RelGoError::execution(format!(
                    "{tag} ({}): prepared execute must spend strictly less opt/rebind time \
                     than warm run_cached (median sums: prepared {prepared_total:.4} ms \
                     vs cached {cached_total:.4} ms)",
                    mode.name()
                )));
            }
        }
    }

    // Concurrent replay: the same SNB traffic under each serving regime.
    let templates = snb_templates(&sschema);
    let (threads, rounds) = (4, cfg.reps.max(2));
    for t in &templates {
        snb.run_cached(&t.instantiate(0)?, OptimizerMode::RelGo)?;
    }
    writeln!(
        out,
        "(replay) {threads} threads x {rounds} rounds x {} templates",
        templates.len()
    )
    .ok();
    writeln!(
        out,
        "{} {} {} {} {} {}",
        cell("mode", 10),
        cell("queries", 9),
        cell("cached", 8),
        cell("batches", 9),
        cell("opt ms", 10),
        cell("q/s", 10)
    )
    .ok();
    for serve in [
        ServeMode::Cached,
        ServeMode::Prepared,
        ServeMode::PreparedBatched { batch: rounds },
    ] {
        let report = replay_concurrent_with(
            &snb,
            &templates,
            OptimizerMode::RelGo,
            threads,
            rounds,
            serve,
        )?;
        writeln!(
            out,
            "{} {} {} {} {} {}",
            cell(serve.name(), 10),
            cell(&report.queries.to_string(), 9),
            cell(&report.cached_queries.to_string(), 8),
            cell(&report.batches.to_string(), 9),
            cell(&format!("{:.3}", report.opt_time.as_secs_f64() * 1e3), 10),
            cell(&format!("{:.0}", report.throughput()), 10)
        )
        .ok();
    }
    let m = snb.cache_metrics();
    writeln!(
        out,
        "  cache: hits={} misses={} prepared_hits={} prepared_invalidations={} rebind_failures={}",
        m.hits, m.misses, m.prepared_hits, m.prepared_invalidations, m.rebind_failures
    )
    .ok();
    Ok(out)
}

/// Ingest figure (`fig_ingest`), two panels — and self-checking: rendering
/// errors instead of printing a wrong table.
///
/// **(a) Incremental vs full statistics refresh.** Two identical SNB
/// sessions warm their GLogue on the IC suite, then commit the same small
/// Likes-only delta — one under an always-incremental staleness threshold,
/// one forced to a full pattern-count rebuild. The cost that matters is
/// `stats refresh + re-optimizing the suite against the new epoch`: the
/// incremental path must retain warm counts for the labels the delta never
/// touched and come out **strictly cheaper**; both must agree with a
/// fresh session's statistics (that part is the `ingest_differential`
/// harness's job — here the figure asserts retention and cost).
///
/// **(b) Mixed-mode replay.** A writer ingests dynamic-SNB update batches
/// (each commit publishing an epoch and invalidating cached plans/pins)
/// while reader threads serve snapshot-pinned verified reads plus prepared
/// executes. The replay itself errors on any row divergence; the figure
/// additionally errors unless every commit was observed as a plan-cache
/// invalidation and at least one stale pin re-optimized.
pub fn fig_ingest(cfg: &BenchConfig) -> Result<String> {
    use relgo::workloads::templates::snb_templates;
    use std::time::Instant;

    let mut out = String::new();
    writeln!(
        out,
        "fig_ingest — snapshot-versioned ingestion: statistics refresh and mixed serving"
    )
    .ok();

    // ---- (a) incremental vs full statistics refresh -------------------
    let mk = |staleness: f64| -> Result<(Session, relgo::workloads::snb_queries::SnbSchema)> {
        let options = SessionOptions {
            opt_timeout: cfg.opt_timeout,
            stats_staleness: staleness,
            ..SessionOptions::default()
        };
        Session::snb_with(cfg.snb_sf_small, 42, options)
    };
    // The delta: Likes-only inserts — Person/Knows/HasCreator counts are
    // untouched, so the incremental path keeps the expensive ones warm.
    let likes_delta = |session: &Session| -> Result<IngestReport> {
        let db = session.db();
        let likes = db.table("Likes")?;
        let persons = db.table("Person")?.num_rows() as i64;
        let messages = db.table("Message")?.num_rows() as i64;
        let next = (0..likes.num_rows() as u32)
            .filter_map(|r| likes.value(r, 0).as_int())
            .max()
            .unwrap_or(-1)
            + 1;
        let mut batch = session.begin_ingest();
        for i in 0..16i64 {
            batch.insert_edge(
                "Likes",
                vec![
                    Value::Int(next + i),
                    Value::Int(i % persons),
                    Value::Int((i * 7) % messages),
                    Value::Date(18_500),
                ],
            )?;
        }
        Ok(batch.commit()?)
    };
    // Per path, the cost that matters: stats refresh at commit + bringing
    // the optimizer back to warm against the new epoch. Medians over
    // independent session pairs so a sub-millisecond scheduler stall
    // cannot flip the comparison.
    let reps = cfg.reps.max(3);
    let mut totals: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut last = [(0f64, 0f64); 2];
    let mut warm_counts = [0usize; 2];
    for _ in 0..reps {
        for (i, staleness) in [(0usize, 1.0), (1usize, 0.0)] {
            let (session, schema) = mk(staleness)?;
            let templates = snb_templates(&schema);
            for t in &templates {
                session.optimize(&t.instantiate(0)?, OptimizerMode::RelGo)?;
            }
            let report = likes_delta(&session)?;
            // Re-warm the *same* workload: retained counts are keyed by
            // pattern + predicates, so the incremental path re-optimizes
            // mostly from cache while the full path recounts everything.
            let reopt_start = Instant::now();
            for t in &templates {
                session.optimize(&t.instantiate(0)?, OptimizerMode::RelGo)?;
            }
            let reopt_ms = reopt_start.elapsed().as_secs_f64() * 1e3;
            let refresh_ms = report.stats_time.as_secs_f64() * 1e3;
            totals[i].push(refresh_ms + reopt_ms);
            last[i] = (refresh_ms, reopt_ms);
            match (i, report.stats) {
                (0, StatsRefresh::Incremental { retained, evicted }) => {
                    if retained == 0 {
                        return Err(RelGoError::execution(format!(
                            "incremental refresh retained no warm counts (evicted {evicted}) \
                             — a Likes-only delta must keep Person/Knows patterns warm"
                        )));
                    }
                    warm_counts[0] = retained;
                }
                (0, StatsRefresh::Full) => {
                    return Err(RelGoError::execution(
                        "staleness 1.0 must take the incremental refresh path",
                    ));
                }
                (_, stats) => {
                    if stats != StatsRefresh::Full {
                        return Err(RelGoError::execution(
                            "staleness 0.0 must take the full rebuild path",
                        ));
                    }
                }
            }
        }
    }
    let median = |xs: &mut Vec<f64>| -> f64 {
        xs.sort_by(|a, b| a.total_cmp(b));
        xs[xs.len() / 2]
    };
    let costs = [median(&mut totals[0]), median(&mut totals[1])];
    writeln!(
        out,
        "(a) statistics refresh across a 16-row Likes commit + re-warming the IC suite \
         (median of {reps})"
    )
    .ok();
    writeln!(
        out,
        "{} {} {} {} {}",
        cell("path", 12),
        cell("refresh ms", 12),
        cell("reopt ms", 12),
        cell("median ms", 12),
        cell("warm counts", 12)
    )
    .ok();
    for (i, name) in [(0usize, "incremental"), (1, "full")] {
        let warm = if i == 0 {
            warm_counts[0].to_string()
        } else {
            "0 (rebuilt)".to_string()
        };
        writeln!(
            out,
            "{} {} {} {} {}",
            cell(name, 12),
            cell(&format!("{:.3}", last[i].0), 12),
            cell(&format!("{:.3}", last[i].1), 12),
            cell(&format!("{:.3}", costs[i]), 12),
            cell(&warm, 12)
        )
        .ok();
    }
    if costs[0] >= costs[1] {
        return Err(RelGoError::execution(format!(
            "incremental statistics refresh must be strictly cheaper than a full rebuild \
             for a small delta (median: incremental {:.4} ms vs full {:.4} ms)",
            costs[0], costs[1]
        )));
    }
    writeln!(
        out,
        "  incremental refresh is {:.1}x cheaper end-to-end",
        costs[1] / costs[0].max(1e-9)
    )
    .ok();

    // ---- (b) mixed-mode replay ---------------------------------------
    let (session, schema) = mk(0.5)?;
    let templates = snb_templates(&schema);
    let (threads, rounds) = (2, cfg.reps.max(2));
    let (commits, ops_per_commit) = (3, 8);
    let before = session.cache_metrics();
    // Any row divergence between a snapshot-pinned cached read and a fresh
    // optimization on the same snapshot aborts the replay with an error.
    let report = replay_concurrent_with(
        &session,
        &templates,
        OptimizerMode::RelGo,
        threads,
        rounds,
        ServeMode::Mixed {
            commits,
            ops_per_commit,
            writers: 1,
        },
    )?;
    let delta = session.cache_metrics().since(&before);
    if report.commits != commits {
        return Err(RelGoError::execution(format!(
            "mixed replay published {} commits, expected {commits}",
            report.commits
        )));
    }
    if delta.invalidations < commits as u64 {
        return Err(RelGoError::execution(format!(
            "every commit must be observed as a plan-cache invalidation \
             ({} invalidations for {commits} commits)",
            delta.invalidations
        )));
    }
    if delta.prepared_invalidations == 0 {
        return Err(RelGoError::execution(
            "no pinned prepared statement re-optimized after the commits",
        ));
    }
    writeln!(
        out,
        "(b) mixed replay: {threads} readers x {rounds} rounds (verified) + 1 writer x \
         {commits} commits x {ops_per_commit} rows"
    )
    .ok();
    writeln!(
        out,
        "  {} queries ({} prepared) in {:.0} ms, {} rows ingested, epoch {} — zero divergences",
        report.queries,
        report.prepared_queries,
        report.elapsed.as_secs_f64() * 1e3,
        report.ingested_rows,
        session.epoch()
    )
    .ok();
    writeln!(
        out,
        "  cache deltas: hits={} misses={} invalidations={} prepared_hits={} prepared_invalidations={}",
        delta.hits, delta.misses, delta.invalidations, delta.prepared_hits, delta.prepared_invalidations
    )
    .ok();
    Ok(out)
}

/// WAL figure (`fig_wal`), three panels — and self-checking: rendering
/// errors instead of printing a wrong table.
///
/// **(a) Durability cost.** Two single-writer durable sessions commit the
/// same person-insert stream, one with fsync-on-commit and one with fsync
/// off; the figure reports median per-commit latency and asserts the WAL
/// counters prove what each path did (`syncs == records` vs `syncs == 0`).
///
/// **(b) Group commit.** A durable session runs a mixed replay with
/// concurrent writer threads racing on a shared marker row. The figure
/// errors unless the WAL delta shows group commit actually batching:
/// strictly fewer fsyncs than committed records.
///
/// **(c) Crash-recovery replay.** The log written in (b) is recovered into
/// a fresh session over the same base data; the figure errors unless the
/// replay lands on the live session's exact epoch with bit-identical
/// tables and query results.
pub fn fig_wal(cfg: &BenchConfig) -> Result<String> {
    use relgo::workloads::templates::snb_templates;
    use std::time::Instant;

    let mut out = String::new();
    writeln!(
        out,
        "fig_wal — write-ahead logging: durability cost, group commit, crash recovery"
    )
    .ok();

    let (db, mapping) = relgo::datagen::generate_snb(&relgo::datagen::SnbParams {
        sf: cfg.snb_sf_small,
        seed: 42,
    });
    let wal_path = |tag: &str| {
        std::env::temp_dir().join(format!("relgo_fig_wal_{}_{tag}.wal", std::process::id()))
    };
    let options = SessionOptions {
        opt_timeout: cfg.opt_timeout,
        ..SessionOptions::default()
    };

    // ---- (a) durability cost: fsync on vs off --------------------------
    let commits = 4 * cfg.reps.max(2);
    writeln!(
        out,
        "(a) single-writer commit latency, 8-row person batches (median of {commits} commits)"
    )
    .ok();
    writeln!(
        out,
        "{} {} {} {} {}",
        cell("path", 12),
        cell("commits", 8),
        cell("median ms", 12),
        cell("fsyncs", 8),
        cell("wal bytes", 10)
    )
    .ok();
    for (tag, fsync) in [("fsync", true), ("no-fsync", false)] {
        let path = wal_path(tag);
        let _ = std::fs::remove_file(&path);
        let (session, _) = Session::open_durable(
            db.clone(),
            mapping.clone(),
            options,
            &path,
            WalOptions {
                fsync,
                ..WalOptions::default()
            },
        )?;
        let mut times = Vec::with_capacity(commits);
        for c in 0..commits {
            let start = Instant::now();
            let mut batch = session.begin_ingest();
            for i in 0..8i64 {
                let id = 30_000_000 + (c as i64) * 8 + i;
                batch.insert_row(
                    "Person",
                    vec![
                        Value::Int(id),
                        Value::str(format!("wal_{id}")),
                        Value::Date(18_500),
                    ],
                )?;
            }
            batch.commit()?;
            times.push(start.elapsed().as_secs_f64() * 1e3);
        }
        let stats = session.wal_stats().expect("durable session has WAL stats");
        if stats.records != commits as u64 {
            return Err(RelGoError::execution(format!(
                "{tag}: expected {commits} WAL records, got {}",
                stats.records
            )));
        }
        let expected_syncs = if fsync { commits as u64 } else { 0 };
        if stats.syncs != expected_syncs {
            return Err(RelGoError::execution(format!(
                "{tag}: a single writer must fsync {expected_syncs} times, got {}",
                stats.syncs
            )));
        }
        // WAL durability is a traced query-lifecycle stage: every commit
        // on a durable session charges `wal_append`.
        let wal_stage_samples = match session
            .observability_snapshot()
            .registry
            .get("relgo_query_stage_seconds", &[("stage", "wal_append")])
        {
            Some(relgo::metrics::SampleValue::Histogram(h)) => h.count,
            _ => 0,
        };
        if wal_stage_samples != commits as u64 {
            return Err(RelGoError::execution(format!(
                "{tag}: expected {commits} wal_append stage samples, got {wal_stage_samples}"
            )));
        }
        times.sort_by(|a, b| a.total_cmp(b));
        writeln!(
            out,
            "{} {} {} {} {}",
            cell(tag, 12),
            cell(&commits.to_string(), 8),
            cell(&format!("{:.3}", times[times.len() / 2]), 12),
            cell(&stats.syncs.to_string(), 8),
            cell(&stats.bytes.to_string(), 10)
        )
        .ok();
        let _ = std::fs::remove_file(&path);
    }

    // ---- (b) group commit under concurrent writers ---------------------
    let path = wal_path("group");
    let _ = std::fs::remove_file(&path);
    let (session, _) = Session::open_durable(
        db.clone(),
        mapping.clone(),
        options,
        &path,
        WalOptions {
            // Hold each leader's flush open briefly so concurrently
            // committing writers stage into the same group.
            sync_delay: Some(std::time::Duration::from_millis(20)),
            ..WalOptions::default()
        },
    )?;
    let schema = SnbSchema::resolve(session.view().schema())?;
    let templates = snb_templates(&schema);
    let (readers, rounds) = (2, cfg.reps.max(2));
    let (commits, ops_per_commit, writers) = (8, 6, 4);
    let report = replay_concurrent_with(
        &session,
        &templates,
        OptimizerMode::RelGo,
        readers,
        rounds,
        ServeMode::Mixed {
            commits,
            ops_per_commit,
            writers,
        },
    )?;
    let wal = report.wal.ok_or_else(|| {
        RelGoError::execution("mixed replay on a durable session must report WAL deltas")
    })?;
    if wal.records != commits as u64 {
        return Err(RelGoError::execution(format!(
            "expected one WAL record per published commit ({commits}), got {}",
            wal.records
        )));
    }
    if wal.syncs >= wal.records {
        return Err(RelGoError::execution(format!(
            "group commit must reduce per-commit fsyncs under {writers} concurrent writers \
             ({} fsyncs for {} records)",
            wal.syncs, wal.records
        )));
    }
    let expected_conflicts = commits - commits.div_ceil(writers);
    if report.conflicts != expected_conflicts {
        return Err(RelGoError::execution(format!(
            "marker row must force one winner per round: expected {expected_conflicts} \
             retried conflicts, got {}",
            report.conflicts
        )));
    }
    writeln!(
        out,
        "(b) group commit: {writers} writers x {commits} commits x {ops_per_commit} rows \
         + {readers} verified readers x {rounds} rounds"
    )
    .ok();
    writeln!(
        out,
        "  {} records in {} fsyncs ({:.2} records/fsync), {} write conflicts retried, \
         {} bytes logged — zero read divergences",
        wal.records,
        wal.syncs,
        wal.records as f64 / wal.syncs.max(1) as f64,
        report.conflicts,
        wal.bytes
    )
    .ok();

    // ---- (c) crash-recovery replay -------------------------------------
    let live_epoch = session.epoch();
    let probe = templates[0].instantiate(3)?;
    let live_result = session.run(&probe, OptimizerMode::RelGo)?.table;
    let start = Instant::now();
    let (recovered, rec) = Session::recover(db.clone(), mapping.clone(), &path)?;
    let recover_ms = start.elapsed().as_secs_f64() * 1e3;
    if recovered.epoch() != live_epoch || rec.epoch != live_epoch {
        return Err(RelGoError::execution(format!(
            "recovery replay must reproduce the live epoch: live {live_epoch}, \
             recovered {} (report {})",
            recovered.epoch(),
            rec.epoch
        )));
    }
    {
        let live_db = session.db();
        let rec_db = recovered.db();
        for name in ["Person", "Knows", "Likes"] {
            if !live_db.table(name)?.bit_identical(rec_db.table(name)?) {
                return Err(RelGoError::execution(format!(
                    "recovered table {name} diverges from the live session"
                )));
            }
        }
    }
    let rec_result = recovered.run(&probe, OptimizerMode::RelGo)?.table;
    if !live_result.bit_identical(&rec_result) {
        return Err(RelGoError::execution(
            "recovered session answers the probe query differently from the live one",
        ));
    }
    writeln!(
        out,
        "(c) recovery: replayed {} records ({} rows, {} bytes) in {:.1} ms to epoch {} — \
         tables and query results bit-identical to the live session",
        rec.records, rec.rows_replayed, rec.bytes, recover_ms, rec.epoch
    )
    .ok();
    let _ = std::fs::remove_file(&path);
    Ok(out)
}

/// Checkpointing figure (`fig_ckpt`), three panels — and self-checking:
/// rendering errors instead of printing a wrong table.
///
/// **(a) WAL compaction.** A durable session commits a person-insert
/// stream, then checkpoints. The figure errors unless compaction drops
/// every pre-checkpoint record and the live log shrinks to zero bytes on
/// disk (the snapshot now carries that history).
///
/// **(b) Bounded recovery.** Two sessions replay the same N-commit history;
/// one runs under an auto-checkpoint policy capped at C records, the other
/// never checkpoints. The figure errors unless recovery of the first
/// replays at most C WAL records while the second replays all N — the
/// policy bounds replay regardless of history length.
///
/// **(c) Bit-identity.** Both recovered sessions must match the live one on
/// base tables and on a probe query under both optimizer modes.
pub fn fig_ckpt(cfg: &BenchConfig) -> Result<String> {
    use relgo::workloads::templates::snb_templates;
    use std::time::Instant;

    let mut out = String::new();
    writeln!(
        out,
        "fig_ckpt — checkpointing: WAL compaction, bounded recovery replay"
    )
    .ok();

    let (db, mapping) = relgo::datagen::generate_snb(&relgo::datagen::SnbParams {
        sf: cfg.snb_sf_small,
        seed: 42,
    });
    let wal_path = |tag: &str| {
        std::env::temp_dir().join(format!("relgo_fig_ckpt_{}_{tag}.wal", std::process::id()))
    };
    let cleanup = |path: &std::path::Path| {
        let _ = std::fs::remove_file(path);
        if let Ok(ckpts) = relgo::CheckpointStore::for_wal(path).list() {
            for (_, p) in ckpts {
                let _ = std::fs::remove_file(p);
            }
        }
    };
    let options = SessionOptions {
        opt_timeout: cfg.opt_timeout,
        ..SessionOptions::default()
    };
    let commit_batch = |session: &Session, c: i64| -> Result<()> {
        let mut batch = session.begin_ingest();
        for i in 0..8i64 {
            let id = 40_000_000 + c * 8 + i;
            batch.insert_row(
                "Person",
                vec![
                    Value::Int(id),
                    Value::str(format!("ckpt_{id}")),
                    Value::Date(19_000),
                ],
            )?;
        }
        batch.commit()?;
        Ok(())
    };

    // ---- (a) checkpoint compacts the WAL on disk -----------------------
    let commits = 4 * cfg.reps.max(2) as i64;
    let path = wal_path("compact");
    cleanup(&path);
    let (session, _) = Session::open_durable(
        db.clone(),
        mapping.clone(),
        options,
        &path,
        WalOptions::default(),
    )?;
    for c in 0..commits {
        commit_batch(&session, c)?;
    }
    let before = session
        .wal_bytes_since_checkpoint()
        .ok_or_else(|| RelGoError::execution("durable session must expose live WAL bytes"))?;
    if before == 0 {
        return Err(RelGoError::execution(
            "WAL must hold bytes before the checkpoint",
        ));
    }
    let report = session.checkpoint()?;
    if report.wal.records_dropped != commits as u64 || report.wal.bytes_retained != 0 {
        return Err(RelGoError::execution(format!(
            "checkpoint at the head epoch must drop all {commits} records and retain 0 bytes \
             (dropped {}, retained {})",
            report.wal.records_dropped, report.wal.bytes_retained
        )));
    }
    if session.wal_bytes_since_checkpoint() != Some(0) {
        return Err(RelGoError::execution(
            "compaction must shrink the live WAL to 0 bytes on disk",
        ));
    }
    writeln!(
        out,
        "(a) compaction: {commits} commits, {before} WAL bytes -> 0 after checkpoint \
         (snapshot {} bytes at epoch {}, {:.1} ms)",
        report.bytes,
        report.epoch,
        report.elapsed.as_secs_f64() * 1e3
    )
    .ok();
    cleanup(&path);

    // ---- (b) bounded recovery under an auto-checkpoint policy ----------
    let cap = 4u64;
    let total = (3 * cap + 1) as i64; // cadence leaves a 1-record tail
    let auto_path = wal_path("auto");
    let full_path = wal_path("full");
    cleanup(&auto_path);
    cleanup(&full_path);
    let auto_options = SessionOptions {
        checkpoint: Some(CheckpointPolicy {
            max_records: cap,
            max_wal_bytes: u64::MAX,
        }),
        ..options
    };
    let (live_auto, _) = Session::open_durable(
        db.clone(),
        mapping.clone(),
        auto_options,
        &auto_path,
        WalOptions::default(),
    )?;
    let (live_full, _) = Session::open_durable(
        db.clone(),
        mapping.clone(),
        options,
        &full_path,
        WalOptions::default(),
    )?;
    for c in 0..total {
        commit_batch(&live_auto, c)?;
        commit_batch(&live_full, c)?;
    }
    let start = Instant::now();
    let (rec_auto, ra) = Session::recover(db.clone(), mapping.clone(), &auto_path)?;
    let auto_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let (rec_full, rf) = Session::recover(db.clone(), mapping.clone(), &full_path)?;
    let full_ms = start.elapsed().as_secs_f64() * 1e3;
    if !ra.checkpoint_loaded || ra.records as u64 > cap {
        return Err(RelGoError::execution(format!(
            "policy cap {cap} must bound recovery replay: loaded={} records={}",
            ra.checkpoint_loaded, ra.records
        )));
    }
    if rf.checkpoint_loaded || rf.records as i64 != total {
        return Err(RelGoError::execution(format!(
            "the never-checkpointed twin must replay its full {total}-record history: \
             loaded={} records={}",
            rf.checkpoint_loaded, rf.records
        )));
    }
    if rec_auto.epoch() != live_auto.epoch() || rec_full.epoch() != live_full.epoch() {
        return Err(RelGoError::execution(
            "both recoveries must land on the live epoch",
        ));
    }
    writeln!(
        out,
        "(b) bounded recovery: {total}-commit history, policy cap {cap} records"
    )
    .ok();
    writeln!(
        out,
        "{} {} {} {} {}",
        cell("path", 14),
        cell("ckpt epoch", 11),
        cell("replayed", 9),
        cell("skipped", 8),
        cell("recover ms", 12)
    )
    .ok();
    for (tag, rec, ms) in [
        ("checkpointed", &ra, auto_ms),
        ("full-replay", &rf, full_ms),
    ] {
        writeln!(
            out,
            "{} {} {} {} {}",
            cell(tag, 14),
            cell(&rec.checkpoint_epoch.to_string(), 11),
            cell(&rec.records.to_string(), 9),
            cell(&rec.skipped_records.to_string(), 8),
            cell(&format!("{ms:.1}"), 12)
        )
        .ok();
    }

    // ---- (c) bit-identity against the live sessions --------------------
    let schema = SnbSchema::resolve(live_auto.view().schema())?;
    let probe = snb_templates(&schema)[0].instantiate(3)?;
    for (tag, live, rec) in [
        ("auto", &live_auto, &rec_auto),
        ("full", &live_full, &rec_full),
    ] {
        let live_db = live.db();
        let rec_db = rec.db();
        for name in ["Person", "Knows", "Likes"] {
            if !live_db.table(name)?.bit_identical(rec_db.table(name)?) {
                return Err(RelGoError::execution(format!(
                    "{tag}: recovered table {name} diverges from the live session"
                )));
            }
        }
        for mode in [OptimizerMode::RelGo, OptimizerMode::GRainDb] {
            let want = live.run(&probe, mode)?.table;
            let got = rec.run(&probe, mode)?.table;
            if !want.bit_identical(&got) {
                return Err(RelGoError::execution(format!(
                    "{tag}: recovered session answers the probe differently under {mode:?}"
                )));
            }
        }
    }
    writeln!(
        out,
        "(c) both recoveries bit-identical to the live sessions (tables + probe under \
         RelGo and GRainDb)"
    )
    .ok();
    cleanup(&auto_path);
    cleanup(&full_path);
    Ok(out)
}

/// Intra-query parallel scaling (`fig_par`): GLogue statistics build and
/// expand-heavy query execution at 1/2/4/8 threads over {SNB, JOB}, with
/// bit-identity checks of every parallel result against the serial run.
///
/// Speedups are relative to the 1-thread run on the same machine; on a
/// single-core container the scheduler degrades to ~1× (morsel dispatch is
/// cheap) and the figure mainly certifies determinism.
pub fn fig_par(cfg: &BenchConfig) -> Result<String> {
    use std::time::Instant;

    let thread_counts = [1usize, 2, 4, 8];
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::new();
    writeln!(
        out,
        "fig_par — morsel-driven intra-query scaling (machine has {cores} core(s))"
    )
    .ok();

    let options = SessionOptions {
        opt_timeout: cfg.opt_timeout,
        ..SessionOptions::default()
    };
    let (mut snb, sschema) = Session::snb_with(cfg.snb_sf_small, 42, options)?;
    let (mut imdb, ischema) = Session::imdb_with(cfg.imdb_sf, 7, options)?;
    // Expand-heavy, unanchored exec workloads: the knows-square (QC2)
    // chains three full-table expansions; JOB17 is the expand-based
    // case-study plan. The stats-build probe counts an *unanchored* pattern
    // so the seed range covers the whole root table (what GLogue pays on a
    // cold statistics build): the QC2 square itself for SNB, the
    // name–title–company wedge for IMDB.
    let snb_q = relgo::workloads::snb_queries::qc_queries(&sschema)?
        .remove(1)
        .query;
    let snb_stats_pattern = snb_q.pattern.clone();
    let job_q = job_queries::build_job(&ischema, &job_queries::job_specs()[16])?;
    let job_stats_pattern = {
        let mut pb = PatternBuilder::new();
        let n = pb.vertex("n", ischema.name);
        let t = pb.vertex("t", ischema.title);
        let c = pb.vertex("c", ischema.company_name);
        pb.edge(n, t, ischema.cast_info)?;
        pb.edge(c, t, ischema.movie_companies)?;
        pb.build()?
    };
    let suites: [(&str, &mut Session, SpjmQuery, Pattern); 2] = [
        ("SNB QC2", &mut snb, snb_q, snb_stats_pattern),
        ("JOB17", &mut imdb, job_q, job_stats_pattern),
    ];

    for (tag, session, query, stats_pattern) in suites {
        writeln!(out, "({tag})").ok();
        writeln!(
            out,
            "{} {} {} {} {} {}",
            cell("threads", 8),
            cell("stats ms", 12),
            cell("speedup", 9),
            cell("exec ms", 12),
            cell("speedup", 9),
            cell("identical", 10)
        )
        .ok();
        session.set_threads(1);
        let (plan, _) = session.optimize(&query, OptimizerMode::RelGo)?;
        let baseline = session.execute(&plan, OptimizerMode::RelGo)?;
        let mut stats_base = f64::NAN;
        let mut exec_base = f64::NAN;
        let mut base_card = f64::NAN;
        for &t in &thread_counts {
            // Statistics build: the exact-counting kernel GLogue pays when
            // (re)building statistics, seed-partitioned across `t` workers.
            let mut stats = Vec::new();
            let mut card = 0f64;
            for _ in 0..cfg.reps.max(1) {
                let start = Instant::now();
                card =
                    relgo::glogue::count_homomorphisms_par(&session.view(), &stats_pattern, 1, t)?;
                stats.push(start.elapsed());
            }
            // Execution: the same optimized plan, `t` morsel workers.
            session.set_threads(t);
            let mut execs = Vec::new();
            let mut table = session.execute(&plan, OptimizerMode::RelGo)?;
            for _ in 0..cfg.reps.max(1) {
                let start = Instant::now();
                table = session.execute(&plan, OptimizerMode::RelGo)?;
                execs.push(start.elapsed());
            }
            let stats_ms = median_duration_ms(&mut stats);
            let exec_ms = median_duration_ms(&mut execs);
            if t == 1 {
                stats_base = stats_ms;
                exec_base = exec_ms;
                base_card = card;
            }
            let identical = baseline.bit_identical(&table) && card == base_card;
            writeln!(
                out,
                "{} {} {} {} {} {}",
                cell(&t.to_string(), 8),
                cell(&format!("{stats_ms:.3}"), 12),
                cell(&format!("{:.2}x", stats_base / stats_ms.max(1e-9)), 9),
                cell(&format!("{exec_ms:.3}"), 12),
                cell(&format!("{:.2}x", exec_base / exec_ms.max(1e-9)), 9),
                cell(if identical { "yes" } else { "NO" }, 10)
            )
            .ok();
            if !identical {
                return Err(RelGoError::execution(format!(
                    "{tag}: parallel result at {t} threads diverges from serial"
                )));
            }
        }
        session.set_threads(1);
    }
    Ok(out)
}

/// Dataset statistics (the "full version"'s dataset table).
pub fn dataset_stats(cfg: &BenchConfig) -> Result<String> {
    let mut out = String::new();
    writeln!(out, "Dataset statistics").ok();
    for (tag, sf) in [
        ("SNB-like (LDBC10 stand-in)", cfg.snb_sf_small),
        ("SNB-like (LDBC30 stand-in)", cfg.snb_sf_mid),
        ("SNB-like (LDBC100 stand-in)", cfg.snb_sf_large),
    ] {
        let (session, _) = Session::snb(sf, 42)?;
        let stats = session.view().stats();
        writeln!(
            out,
            "{tag}: sf={sf}  vertex tuples={}  edge tuples={}",
            stats.total_vertices(),
            stats.total_edges()
        )
        .ok();
    }
    let (session, _) = Session::imdb(cfg.imdb_sf, 7)?;
    let stats = session.view().stats();
    writeln!(
        out,
        "IMDB-like: sf={}  vertex tuples={}  edge tuples={}",
        cfg.imdb_sf,
        stats.total_vertices(),
        stats.total_edges()
    )
    .ok();
    writeln!(out, "\nPer-table row counts (IMDB-like):").ok();
    for t in session.db().tables() {
        writeln!(out, "  {:<18} {:>9}", t.name(), t.num_rows()).ok();
    }
    Ok(out)
}

/// Networked serving (`fig_serve`): the `relgo-server` HTTP edge over one
/// shared session — concurrent clients, a wire ingest, a Prometheus
/// scrape, and a graceful drain — followed by in-process replay latency
/// distributions and the query-lifecycle trace coverage check.
///
/// The figure is self-checking and errors out unless:
/// - every client-observed response is well-formed and the drain loses
///   zero in-flight requests (accepted connections == complete responses),
/// - the `/metrics` scrape passes format validation and its request/row
///   counters reconcile exactly with the client-side tallies,
/// - the HTTP `query` latency histogram and both replay-mode latency
///   distributions report a *finite* p99,
/// - the serving edge recorded response serialization as a traced stage
///   (the `serialize` entry of the query-stage histogram is populated),
/// - stage traces account for >= 96% of measured end-to-end latency.
pub fn fig_serve(cfg: &BenchConfig) -> Result<String> {
    use relgo::metrics::text;
    use relgo::metrics::SampleValue;
    use relgo::workloads::templates::snb_templates;
    use relgo_server::{Server, ServerConfig};
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    // A tiny blocking HTTP client; any malformed response is an error the
    // figure propagates (that is the "zero lost queries" check's teeth).
    fn http(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String)> {
        let err = |what: &str| RelGoError::execution(format!("http {method} {path}: {what}"));
        let mut stream = TcpStream::connect(addr).map_err(|e| err(&format!("connect: {e}")))?;
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        stream
            .write_all(req.as_bytes())
            .map_err(|e| err(&format!("send: {e}")))?;
        let mut response = String::new();
        stream
            .read_to_string(&mut response)
            .map_err(|e| err(&format!("read: {e}")))?;
        let (head, body) = response
            .split_once("\r\n\r\n")
            .ok_or_else(|| err("truncated response (no header/body split)"))?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| err("malformed status line"))?;
        Ok((status, body.to_string()))
    }

    // The keep-alive counterpart: send `paths` back to back over ONE
    // socket, returning each request's status and wall latency. The
    // per-response `Content-Length` framing keeps the stream synchronized.
    fn http_keepalive(addr: &str, paths: &[String]) -> Result<Vec<(u16, Duration)>> {
        use std::io::{BufRead as _, BufReader};
        let err = |what: &str| RelGoError::execution(format!("keep-alive client: {what}"));
        let stream = TcpStream::connect(addr).map_err(|e| err(&format!("connect: {e}")))?;
        let mut reader = BufReader::new(&stream);
        let mut results = Vec::with_capacity(paths.len());
        for path in paths {
            let start = Instant::now();
            let req = format!("POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\n\r\n");
            (&stream)
                .write_all(req.as_bytes())
                .map_err(|e| err(&format!("send: {e}")))?;
            let mut status = 0u16;
            let mut content_length = 0usize;
            loop {
                let mut line = String::new();
                if reader
                    .read_line(&mut line)
                    .map_err(|e| err(&format!("read: {e}")))?
                    == 0
                {
                    return Err(err("server closed a keep-alive connection early"));
                }
                if status == 0 {
                    status = line
                        .split_whitespace()
                        .nth(1)
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("malformed status line"))?;
                }
                if line == "\r\n" {
                    break;
                }
                if let Some(v) = line.strip_prefix("Content-Length: ") {
                    content_length = v.trim().parse().map_err(|_| err("bad Content-Length"))?;
                }
            }
            let mut body = vec![0u8; content_length];
            reader
                .read_exact(&mut body)
                .map_err(|e| err(&format!("read body: {e}")))?;
            results.push((status, start.elapsed()));
        }
        Ok(results)
    }

    let mut out = String::new();
    writeln!(
        out,
        "fig_serve — networked serving: HTTP edge, metrics scrape, graceful drain"
    )
    .ok();

    let options = SessionOptions {
        opt_timeout: cfg.opt_timeout,
        ..SessionOptions::default()
    };
    let (session, schema) = Session::snb_with(cfg.snb_sf_small, 42, options)?;
    let templates = snb_templates(&schema);

    // ---- (a) HTTP serving phase ----------------------------------------
    let clients = 3usize;
    let rounds = cfg.reps.max(2);
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        max_inflight_per_tenant: 64,
        tenant_row_budget: usize::MAX,
        ..ServerConfig::default()
    };
    let bound = Server::new(&session, &templates, config).bind()?;
    let addr = bound.local_addr().to_string();

    let (stats, client_result) = std::thread::scope(|scope| {
        let server = scope.spawn(move || bound.run());

        // All client work in a fallible closure so the shutdown below runs
        // on *every* path — a figure error must not leave the server (and
        // with it the whole scope) waiting forever.
        let client_work = || -> Result<(u64, u64, u64, u64, f64, f64, Duration)> {
            let mut sent = 0u64;
            let mut rows_received = 0u64;
            // Concurrent query clients, one tenant each.
            let per_client: Vec<(u64, u64)> = std::thread::scope(|cscope| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let (addr, templates) = (&addr, &templates);
                        cscope.spawn(move || -> Result<(u64, u64)> {
                            let mut sent = 0u64;
                            let mut rows = 0u64;
                            for r in 0..rounds {
                                for t in templates.iter() {
                                    let draw = (c * rounds + r) as u64;
                                    let (status, body) = http(
                                        addr,
                                        "POST",
                                        &format!(
                                            "/query?template={}&draw={draw}&tenant=c{c}",
                                            t.name()
                                        ),
                                        "",
                                    )?;
                                    sent += 1;
                                    if status != 200 {
                                        return Err(RelGoError::execution(format!(
                                            "query {} draw {draw}: status {status}: {body}",
                                            t.name()
                                        )));
                                    }
                                    // Well-formedness: meta line agrees with
                                    // the number of row lines that follow.
                                    let mut lines = body.lines();
                                    let meta = lines.next().unwrap_or("");
                                    let n: u64 = meta
                                        .strip_prefix("ok rows=")
                                        .and_then(|m| m.split_whitespace().next())
                                        .and_then(|m| m.parse().ok())
                                        .ok_or_else(|| {
                                            RelGoError::execution(format!(
                                                "malformed meta line: {meta}"
                                            ))
                                        })?;
                                    let got = lines.count() as u64;
                                    if got != n {
                                        return Err(RelGoError::execution(format!(
                                            "meta says rows={n}, body has {got}"
                                        )));
                                    }
                                    rows += n;
                                }
                            }
                            Ok((sent, rows))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .collect::<Result<Vec<_>>>()
            })?;
            for (s, r) in per_client {
                sent += s;
                rows_received += r;
            }

            // Prepared path over the wire.
            let (status, body) = http(
                &addr,
                "POST",
                &format!("/prepare?template={}", templates[0].name()),
                "",
            )?;
            if status != 200 {
                return Err(RelGoError::execution(format!("prepare: {status}: {body}")));
            }
            let stmt = body
                .trim()
                .strip_prefix("ok stmt=")
                .unwrap_or("1")
                .to_string();
            for draw in 0..rounds as u64 {
                let (status, body) = http(
                    &addr,
                    "POST",
                    &format!("/execute?stmt={stmt}&draw={draw}"),
                    "",
                )?;
                if status != 200 {
                    return Err(RelGoError::execution(format!("execute: {status}: {body}")));
                }
                let meta = body.lines().next().unwrap_or("");
                rows_received += meta
                    .strip_prefix("ok rows=")
                    .and_then(|m| m.split_whitespace().next())
                    .and_then(|m| m.parse::<u64>().ok())
                    .unwrap_or(0);
            }

            // A wire ingest commit.
            let mut ingest = String::new();
            for i in 0..8i64 {
                writeln!(ingest, "Person|i:{}|s:serve_{i}|d:18500", 40_000_000 + i).ok();
            }
            let (status, body) = http(&addr, "POST", "/ingest", &ingest)?;
            if status != 200 {
                return Err(RelGoError::execution(format!("ingest: {status}: {body}")));
            }

            // Keep-alive reuse: the same cached query N times over ONE
            // persistent connection vs N fresh connections — the delta is
            // the per-request connection-setup tax keep-alive removes.
            let ka_reqs = (2 * rounds).max(4);
            let ka_path = format!("/query?template={}&draw=0&tenant=ka", templates[0].name());
            let reused: Vec<(u16, Duration)> =
                http_keepalive(&addr, &vec![ka_path.clone(); ka_reqs])?;
            let mut fresh = Vec::with_capacity(ka_reqs);
            for _ in 0..ka_reqs {
                let start = Instant::now();
                let (status, _) = http(&addr, "POST", &ka_path, "")?;
                fresh.push((status, start.elapsed()));
            }
            for (status, _) in reused.iter().chain(fresh.iter()) {
                sent += 1;
                if *status != 200 {
                    return Err(RelGoError::execution(format!(
                        "keep-alive phase query failed: status {status}"
                    )));
                }
            }
            // Same rows flow on both paths; count them off the oracle-free
            // meta line of one probe (all draws identical).
            let (_, probe_body) = http(&addr, "POST", &ka_path, "")?;
            sent += 1;
            let ka_rows: u64 = probe_body
                .lines()
                .next()
                .and_then(|m| m.strip_prefix("ok rows="))
                .and_then(|m| m.split_whitespace().next())
                .and_then(|m| m.parse().ok())
                .unwrap_or(0);
            rows_received += ka_rows * (2 * ka_reqs + 1) as u64;
            let mean_us = |v: &[(u16, Duration)]| {
                v.iter().map(|(_, d)| d.as_micros() as f64).sum::<f64>() / v.len() as f64
            };
            let (reused_mean_us, fresh_mean_us) = (mean_us(&reused), mean_us(&fresh));
            let reuses = (ka_reqs - 1) as u64; // first request on the socket is not a reuse

            // Deadline-bounded termination: an already-expired budget
            // (`deadline_ms=0`) must answer 503 within one morsel's work,
            // never run the query to completion. The generous wall bound
            // below is the *proof* — an unbounded query at this scale
            // would be cut off mid-flight, not merely slow.
            let deadline_probes = 2u64;
            let deadline_start = Instant::now();
            for _ in 0..deadline_probes {
                let (status, body) = http(&addr, "POST", &format!("{ka_path}&deadline_ms=0"), "")?;
                sent += 1;
                if status != 503 {
                    return Err(RelGoError::execution(format!(
                        "expired deadline answered {status}, want 503: {body}"
                    )));
                }
            }
            let deadline_elapsed = deadline_start.elapsed() / deadline_probes as u32;
            if deadline_elapsed > Duration::from_secs(2) {
                return Err(RelGoError::execution(format!(
                    "deadline_ms=0 query took {deadline_elapsed:?} to terminate (bound: 2s)"
                )));
            }

            Ok((
                sent,
                rows_received,
                reuses,
                deadline_probes,
                reused_mean_us,
                fresh_mean_us,
                deadline_elapsed,
            ))
        };
        let client_result = client_work();

        // Scrape before shutdown (the scrape itself is the last counted
        // request), then always drain.
        let scrape = http(&addr, "GET", "/metrics", "").map(|(_, body)| body);
        let shutdown = http(&addr, "POST", "/shutdown", "");
        let stats = server.join().expect("server thread");
        let combined = client_result.and_then(|c| {
            shutdown?;
            Ok((c, scrape?))
        });
        (stats, combined)
    });
    let stats = stats?;
    let (
        (
            queries_sent,
            rows_received,
            reuses,
            deadline_probes,
            reused_mean_us,
            fresh_mean_us,
            deadline_elapsed,
        ),
        scrape_body,
    ) = client_result?;

    // Drain accounting: every request was answered, nothing in-flight was
    // lost, and the only non-2xx responses are the deliberate deadline
    // probes (503s). Keep-alive reuse means strictly more requests than
    // connections.
    let answered = stats.ok_responses + stats.rejected + stats.failed;
    if stats.requests != answered || stats.failed != deadline_probes || stats.rejected != 0 {
        return Err(RelGoError::execution(format!(
            "drain lost requests: requests={} answered={answered} rejected={} failed={}",
            stats.requests, stats.rejected, stats.failed
        )));
    }
    if stats.requests <= stats.connections {
        return Err(RelGoError::execution(format!(
            "keep-alive reuse missing: requests={} <= connections={}",
            stats.requests, stats.connections
        )));
    }

    // Scrape validation + exact reconciliation with client tallies.
    text::validate(&scrape_body).map_err(RelGoError::execution)?;
    let scrape = text::parse(&scrape_body).map_err(RelGoError::execution)?;
    let series = scrape.names().len();
    let scraped_queries = scrape
        .value("relgo_http_requests_total", &[("endpoint", "query")])
        .unwrap_or(-1.0);
    let scraped_rows = scrape
        .value("relgo_http_rows_served_total", &[])
        .unwrap_or(-1.0);
    if scraped_queries != queries_sent as f64 || scraped_rows != rows_received as f64 {
        return Err(RelGoError::execution(format!(
            "scrape does not reconcile: queries {scraped_queries} vs {queries_sent}, rows {scraped_rows} vs {rows_received}"
        )));
    }
    // The keep-alive and deadline series reconcile exactly: every client
    // in this figure except the keep-alive phase sends
    // `Connection: close`, so the phase's reuses are the only ones.
    let scraped_reuses = scrape
        .value("relgo_http_keepalive_reuses_total", &[])
        .unwrap_or(-1.0);
    let scraped_deadlines = scrape
        .value("relgo_http_deadline_expirations_total", &[])
        .unwrap_or(-1.0);
    if scraped_reuses != reuses as f64 || scraped_deadlines != deadline_probes as f64 {
        return Err(RelGoError::execution(format!(
            "keep-alive/deadline series do not reconcile: reuses {scraped_reuses} vs {reuses}, deadlines {scraped_deadlines} vs {deadline_probes}"
        )));
    }
    // The scrape's own connection is open while /metrics renders.
    let open = scrape
        .value("relgo_http_open_connections", &[])
        .unwrap_or(0.0);
    if open < 1.0 {
        return Err(RelGoError::execution(format!(
            "open-connections gauge missed the scraping connection: {open}"
        )));
    }
    if series < 12 {
        return Err(RelGoError::execution(format!(
            "scrape exposes only {series} series (expected >= 12)"
        )));
    }
    // Response serialization is traced at the serving edge: every row
    // write over HTTP charged the `serialize` stage.
    let serialized = scrape
        .value("relgo_query_stage_seconds_count", &[("stage", "serialize")])
        .unwrap_or(0.0);
    if serialized <= 0.0 {
        return Err(RelGoError::execution(
            "the serving edge recorded no serialize-stage samples".to_string(),
        ));
    }

    writeln!(
        out,
        "(a) HTTP edge: {clients} clients x {rounds} rounds x {} templates, 4 workers",
        templates.len()
    )
    .ok();
    writeln!(
        out,
        "{} {} {} {}",
        cell("endpoint", 10),
        cell("requests", 9),
        cell("p50 ms", 10),
        cell("p99 ms", 10)
    )
    .ok();
    let registry = session.observability_snapshot().registry;
    let mut query_p99_finite = false;
    for endpoint in ["query", "prepare", "execute", "ingest", "metrics"] {
        let requests = match scrape.value("relgo_http_requests_total", &[("endpoint", endpoint)]) {
            Some(v) => v,
            None => continue,
        };
        let (p50, p99) = match registry.get("relgo_http_request_seconds", &[("endpoint", endpoint)])
        {
            Some(SampleValue::Histogram(h)) => (h.p50(), h.p99()),
            _ => (None, None),
        };
        if endpoint == "query" {
            query_p99_finite = p99.is_some();
        }
        let ms = |d: Option<std::time::Duration>| {
            d.map_or("inf".to_string(), |d| {
                format!("{:.3}", d.as_secs_f64() * 1e3)
            })
        };
        writeln!(
            out,
            "{} {} {} {}",
            cell(endpoint, 10),
            cell(&format!("{requests:.0}"), 9),
            cell(&ms(p50), 10),
            cell(&ms(p99), 10)
        )
        .ok();
    }
    writeln!(
        out,
        "drain: requests={} over connections={} answered={answered} lost=0;  scrape: {series} series, validated, counters reconcile",
        stats.requests, stats.connections
    )
    .ok();
    writeln!(
        out,
        "(a2) keep-alive: {reuses} reuses on one socket; per-request mean {:.0}us reused vs {:.0}us fresh",
        reused_mean_us, fresh_mean_us
    )
    .ok();
    writeln!(
        out,
        "(a3) deadline: deadline_ms=0 answers 503 in {:.1}ms mean (bound 2000ms) — expired queries terminate within one morsel",
        deadline_elapsed.as_secs_f64() * 1e3
    )
    .ok();
    if !query_p99_finite {
        return Err(RelGoError::execution(
            "HTTP query latency p99 is not finite (overflow bucket or empty histogram)".to_string(),
        ));
    }

    // ---- (b) in-process replay latency distributions --------------------
    writeln!(out, "(b) concurrent replay latency (per-query e2e)").ok();
    writeln!(
        out,
        "{} {} {} {} {}",
        cell("serve mode", 11),
        cell("queries", 8),
        cell("qps", 10),
        cell("p50 ms", 10),
        cell("p99 ms", 10)
    )
    .ok();
    for (tag, serve) in [
        ("cached", ServeMode::Cached),
        ("prepared", ServeMode::Prepared),
    ] {
        let report =
            replay_concurrent_with(&session, &templates, OptimizerMode::RelGo, 2, rounds, serve)?;
        let (p50, p99) = (report.p50(), report.p99());
        if p99.is_none() {
            return Err(RelGoError::execution(format!(
                "{tag} replay p99 is not finite over {} queries",
                report.queries
            )));
        }
        let ms = |d: Option<std::time::Duration>| {
            d.map_or("inf".to_string(), |d| {
                format!("{:.3}", d.as_secs_f64() * 1e3)
            })
        };
        writeln!(
            out,
            "{} {} {} {} {}",
            cell(tag, 11),
            cell(&report.queries.to_string(), 8),
            cell(&format!("{:.0}", report.throughput()), 10),
            cell(&ms(p50), 10),
            cell(&ms(p99), 10)
        )
        .ok();
    }

    // ---- (c) query-lifecycle trace coverage ------------------------------
    let mut accounted = std::time::Duration::ZERO;
    let mut total = std::time::Duration::ZERO;
    for (i, t) in templates.iter().enumerate() {
        for draw in 0..rounds as u64 {
            let q = t.instantiate(100 + i as u64 * 31 + draw)?;
            let outcome = session.run_cached(&q, OptimizerMode::RelGo)?;
            accounted += outcome.trace.accounted();
            total += outcome.trace.total;
        }
    }
    let coverage = if total.is_zero() {
        1.0
    } else {
        accounted.as_secs_f64() / total.as_secs_f64()
    };
    writeln!(
        out,
        "(c) trace coverage: stages account for {:.1}% of end-to-end wall (threshold 96%)",
        coverage * 1e2
    )
    .ok();
    if coverage < 0.96 {
        return Err(RelGoError::execution(format!(
            "stage traces cover only {:.1}% of end-to-end latency (need >= 96%)",
            coverage * 1e2
        )));
    }

    Ok(out)
}

/// Operator-level profiling (`fig_profile`): EXPLAIN ANALYZE over the SNB
/// and JOB template suites — per-template Q-error tables, the profiling
/// overhead bound, and the profiled serving path (`profile=1`, `POST
/// /explain`, the slow-query log) over the wire.
///
/// The figure is self-checking and errors out unless:
/// - every profiled execution is bit-identical to its unprofiled twin,
/// - every plan's per-operator actual rows reconcile: each operator's
///   measured input cardinality equals the sum of the output cardinalities
///   of the operators that feed it,
/// - the root operator's actual output equals the result cardinality,
/// - profiling overhead over a whole suite stays inside a generous bound,
/// - over HTTP, the per-operator metric series reconcile *exactly* with
///   client-side tallies of the returned profiles, and every served query
///   lands in the slow-query access log with its full operator profile.
pub fn fig_profile(cfg: &BenchConfig) -> Result<String> {
    use relgo::metrics::text;
    use relgo::workloads::templates::{job_templates, snb_templates, QueryTemplate};
    use relgo_server::{Server, ServerConfig};
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;
    use std::time::Instant;

    let mut out = String::new();
    writeln!(
        out,
        "fig_profile — operator profiling: EXPLAIN ANALYZE, Q-error, slow-query log"
    )
    .ok();

    let options = SessionOptions {
        opt_timeout: cfg.opt_timeout,
        ..SessionOptions::default()
    };
    let (snb, snb_schema) = Session::snb_with(cfg.snb_sf_small, 42, options)?;
    let (imdb, imdb_schema) = Session::imdb_with(cfg.imdb_sf, 7, options)?;
    let suites: [(&str, &Session, Vec<QueryTemplate>); 2] = [
        ("SNB", &snb, snb_templates(&snb_schema)),
        ("JOB", &imdb, job_templates(&imdb_schema)),
    ];

    // ---- (a) per-template Q-error tables --------------------------------
    // Every EXPLAIN ANALYZE is certified against its unprofiled twin:
    // bit-identical result rows, internally reconciled operator
    // cardinalities (each operator's measured input equals what its
    // children produced), and a root output equal to the result size.
    for (tag, session, templates) in &suites {
        writeln!(
            out,
            "\n(a) {tag} EXPLAIN ANALYZE (draw 0, RelGo mode; q-error = max(est/act, act/est))"
        )
        .ok();
        writeln!(
            out,
            "{} {} {} {} {}",
            cell("template", 10),
            cell("ops", 5),
            cell("rows", 8),
            cell("root est", 10),
            cell("max q", 10)
        )
        .ok();
        for t in templates {
            let q = t.instantiate(0)?;
            let plain = session.run(&q, OptimizerMode::RelGo)?;
            let ea = session.explain_analyze(&q, OptimizerMode::RelGo)?;
            if !plain.table.bit_identical(&ea.outcome.table) {
                return Err(RelGoError::execution(format!(
                    "{tag} {}: profiled execution diverges from the unprofiled run",
                    t.name()
                )));
            }
            ea.report.reconcile()?;
            let root = ea
                .report
                .root()
                .ok_or_else(|| RelGoError::execution("empty plan report"))?;
            if root.prof.rows_out != plain.table.num_rows() as u64 {
                return Err(RelGoError::execution(format!(
                    "{tag} {}: root operator reports {} rows, result has {}",
                    t.name(),
                    root.prof.rows_out,
                    plain.table.num_rows()
                )));
            }
            if ea.rendered.lines().count() != ea.report.ops.len() {
                return Err(RelGoError::execution(format!(
                    "{tag} {}: rendered tree has {} lines for {} operators",
                    t.name(),
                    ea.rendered.lines().count(),
                    ea.report.ops.len()
                )));
            }
            writeln!(
                out,
                "{} {} {} {} {}",
                cell(t.name(), 10),
                cell(&ea.report.ops.len().to_string(), 5),
                cell(&plain.table.num_rows().to_string(), 8),
                cell(&format!("{:.0}", root.meta.est_rows), 10),
                cell(
                    &ea.report
                        .max_qerror()
                        .map_or("-".to_string(), |q| format!("{q:.2}")),
                    10
                )
            )
            .ok();
        }
    }

    // ---- (b) profiling overhead -----------------------------------------
    // One full pass over each suite, profiled vs unprofiled (best of
    // `reps` passes each). The bound is deliberately generous — profiling
    // must stay a bounded tax, not a different execution regime.
    writeln!(
        out,
        "\n(b) profiling overhead (whole-suite pass, best of passes)"
    )
    .ok();
    for (tag, session, templates) in &suites {
        let passes = cfg.reps.max(2);
        let mut plain_best = f64::INFINITY;
        let mut profiled_best = f64::INFINITY;
        for _ in 0..passes {
            let start = Instant::now();
            for t in templates {
                session.run(&t.instantiate(1)?, OptimizerMode::RelGo)?;
            }
            plain_best = plain_best.min(start.elapsed().as_secs_f64());
            let start = Instant::now();
            for t in templates {
                let (outcome, report) =
                    session.run_profiled(&t.instantiate(1)?, OptimizerMode::RelGo)?;
                report.reconcile()?;
                if report.root().map(|r| r.prof.rows_out) != Some(outcome.table.num_rows() as u64) {
                    return Err(RelGoError::execution(format!(
                        "{tag}: profiled root cardinality diverges in the overhead pass"
                    )));
                }
            }
            profiled_best = profiled_best.min(start.elapsed().as_secs_f64());
        }
        let bound = 3.0 * plain_best + 0.05;
        writeln!(
            out,
            "{tag}: unprofiled {:.1}ms, profiled {:.1}ms ({:.2}x; bound 3x + 50ms)",
            plain_best * 1e3,
            profiled_best * 1e3,
            profiled_best / plain_best.max(1e-9)
        )
        .ok();
        if profiled_best > bound {
            return Err(RelGoError::execution(format!(
                "{tag}: profiling overhead out of bounds: {profiled_best:.3}s vs {plain_best:.3}s unprofiled"
            )));
        }
    }

    // ---- (c) the profiled serving path over HTTP ------------------------
    fn http(addr: &str, method: &str, path: &str) -> Result<(u16, String)> {
        let err = |what: &str| RelGoError::execution(format!("http {method} {path}: {what}"));
        let mut stream = TcpStream::connect(addr).map_err(|e| err(&format!("connect: {e}")))?;
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
        );
        stream
            .write_all(req.as_bytes())
            .map_err(|e| err(&format!("send: {e}")))?;
        let mut response = String::new();
        stream
            .read_to_string(&mut response)
            .map_err(|e| err(&format!("read: {e}")))?;
        let (head, body) = response
            .split_once("\r\n\r\n")
            .ok_or_else(|| err("truncated response"))?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| err("malformed status line"))?;
        Ok((status, body.to_string()))
    }

    // A fresh session so the operator series reconcile exactly against
    // this phase's client-side tallies (phases (a)/(b) already recorded
    // profiles on their own sessions).
    let (serve_session, serve_schema) = Session::snb_with(cfg.snb_sf_small, 42, options)?;
    let serve_templates = snb_templates(&serve_schema);
    let log_path =
        std::env::temp_dir().join(format!("relgo_fig_profile_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        max_inflight_per_tenant: 64,
        tenant_row_budget: usize::MAX,
        access_log: Some(log_path.display().to_string()),
        slow_query_ms: Some(0),
        ..ServerConfig::default()
    };
    let bound = Server::new(&serve_session, &serve_templates, config).bind()?;
    let addr = bound.local_addr().to_string();

    let (server_result, client_result) = std::thread::scope(|scope| {
        let server = scope.spawn(move || bound.run());
        let client_work = || -> Result<(u64, std::collections::HashMap<String, u64>)> {
            let mut queries = 0u64;
            let mut kind_counts: std::collections::HashMap<String, u64> =
                std::collections::HashMap::new();
            for t in &serve_templates {
                for draw in 0..cfg.reps.max(2) as u64 {
                    let (status, body) = http(
                        &addr,
                        "POST",
                        &format!("/query?template={}&draw={draw}&profile=1", t.name()),
                    )?;
                    if status != 200 {
                        return Err(RelGoError::execution(format!(
                            "profiled query {}: status {status}: {body}",
                            t.name()
                        )));
                    }
                    queries += 1;
                    let tail = body.lines().last().unwrap_or("");
                    if !tail.starts_with('[') || !tail.ends_with(']') {
                        return Err(RelGoError::execution(format!(
                            "profile=1 body does not end with a JSON profile: {tail}"
                        )));
                    }
                    for part in tail.split("\"kind\":\"").skip(1) {
                        let kind = part.split('"').next().unwrap_or("");
                        *kind_counts.entry(kind.to_string()).or_insert(0) += 1;
                    }
                }
            }

            // Scrape while the tallies are exact (the /explain below adds
            // one more profiled execution).
            let (status, scrape_body) = http(&addr, "GET", "/metrics")?;
            if status != 200 {
                return Err(RelGoError::execution(format!("scrape status {status}")));
            }
            text::validate(&scrape_body).map_err(RelGoError::execution)?;
            let scrape = text::parse(&scrape_body).map_err(RelGoError::execution)?;
            for (kind, n) in &kind_counts {
                let seconds = scrape
                    .value("relgo_operator_seconds_count", &[("op", kind)])
                    .unwrap_or(-1.0);
                let rows_out = scrape
                    .value("relgo_operator_rows_count", &[("op", kind), ("dir", "out")])
                    .unwrap_or(-1.0);
                if seconds != *n as f64 || rows_out != *n as f64 {
                    return Err(RelGoError::execution(format!(
                        "operator series for {kind} do not reconcile: seconds_count={seconds}, rows_count={rows_out}, client tally={n}"
                    )));
                }
            }
            if scrape.value("relgo_qerror_count", &[]).unwrap_or(0.0) <= 0.0 {
                return Err(RelGoError::execution(
                    "aggregate Q-error histogram is empty after profiled serving".to_string(),
                ));
            }

            // POST /explain round-trips the annotated tree.
            let (status, body) = http(
                &addr,
                "POST",
                &format!("/explain?template={}&draw=1", serve_templates[0].name()),
            )?;
            if status != 200 || !body.starts_with("ok ops=") {
                return Err(RelGoError::execution(format!(
                    "explain round-trip failed: {status}: {body}"
                )));
            }
            if !body.contains("[op=0 est=") || !body.contains(" act=") {
                return Err(RelGoError::execution(format!(
                    "explain tree lacks est/act annotations: {body}"
                )));
            }
            Ok((queries, kind_counts))
        };
        let client_result = client_work();
        let shutdown = http(&addr, "POST", "/shutdown");
        let stats = server.join().expect("server thread");
        (stats.and_then(|s| shutdown.map(|_| s)), client_result)
    });
    server_result?;
    let (queries, kind_counts) = client_result?;

    // Threshold 0 marks every request slow: each served query's access-log
    // line must carry its full operator profile.
    let log = std::fs::read_to_string(&log_path)
        .map_err(|e| RelGoError::execution(format!("read {}: {e}", log_path.display())))?;
    let mut logged_profiles = 0u64;
    for line in log.lines() {
        if !(line.starts_with('{') && line.ends_with('}')) {
            return Err(RelGoError::execution(format!(
                "access-log line is not a JSON object: {line}"
            )));
        }
        if (line.contains("\"endpoint\":\"query\"") || line.contains("\"endpoint\":\"explain\""))
            && line.contains("\"status\":200")
        {
            if !line.contains("\"slow\":true") || !line.contains("\"profile\":[{\"op\":0,") {
                return Err(RelGoError::execution(format!(
                    "served query missing from the slow-query log: {line}"
                )));
            }
            logged_profiles += 1;
        }
    }
    let _ = std::fs::remove_file(&log_path);
    if logged_profiles != queries + 1 {
        return Err(RelGoError::execution(format!(
            "slow-query log has {logged_profiles} profiled lines for {queries} queries + 1 explain"
        )));
    }

    writeln!(
        out,
        "\n(c) profiled serving: {queries} profile=1 queries over HTTP; {} operator kinds; \
         per-kind series reconcile exactly; {logged_profiles} slow-query log entries carry full profiles",
        kind_counts.len()
    )
    .ok();
    writeln!(
        out,
        "all profiled executions bit-identical to unprofiled; operator cardinalities reconcile"
    )
    .ok();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BenchConfig {
        BenchConfig {
            reps: 1,
            snb_sf_small: 0.03,
            snb_sf_mid: 0.04,
            snb_sf_large: 0.05,
            imdb_sf: 0.05,
            opt_timeout: std::time::Duration::from_millis(100),
        }
    }

    #[test]
    fn fig4a_report_has_ten_rows() {
        let s = fig4a().unwrap();
        assert_eq!(s.lines().count(), 12, "{s}");
        assert!(s.contains("ratio"));
    }

    #[test]
    fn fig4b_reports_all_queries() {
        let s = fig4b(&tiny()).unwrap();
        assert!(s.contains("IC1-1"));
        assert!(s.contains("IC12"));
    }

    #[test]
    fn fig7_and_fig12_render() {
        let s = fig7(&tiny()).unwrap();
        assert!(s.contains("IC7"));
        assert!(s.contains("JOB1"));
        let s = fig12(&tiny()).unwrap();
        assert!(s.contains("RelGo"));
        assert!(s.contains("EXPAND"));
    }

    #[test]
    fn fig8_fig9_render() {
        let s = fig8(&tiny()).unwrap();
        assert!(s.contains("QR1"));
        assert!(s.contains("FilterIntoMatch"));
        let s = fig9(&tiny()).unwrap();
        assert!(s.contains("QC3"));
    }

    #[test]
    fn fig_par_renders_and_certifies_identity() {
        // fig_par errors out if any parallel result diverges from serial,
        // so rendering doubles as a determinism check.
        let s = fig_par(&tiny()).unwrap();
        assert!(s.contains("SNB QC2"), "{s}");
        assert!(s.contains("JOB17"), "{s}");
        assert!(!s.contains(" NO "), "{s}");
    }

    #[test]
    fn fig_prepared_renders_and_certifies() {
        // fig_prepared errors out if prepared execution is not strictly
        // cheaper than warm run_cached or if any batched result diverges
        // from per-query execute, so rendering doubles as the acceptance
        // check.
        let s = fig_prepared(&tiny()).unwrap();
        assert!(s.contains("GRainDB"), "{s}");
        assert!(s.contains("prep-batch"), "{s}");
        assert!(s.contains("prepared_hits="), "{s}");
    }

    #[test]
    fn fig_ingest_renders_and_certifies() {
        // fig_ingest errors out unless the incremental statistics refresh
        // is strictly cheaper than the full rebuild, the mixed replay sees
        // zero divergences, and cache/pin invalidations are observed after
        // commits — rendering doubles as the acceptance check.
        let s = fig_ingest(&tiny()).unwrap();
        assert!(s.contains("incremental"), "{s}");
        assert!(s.contains("zero divergences"), "{s}");
        assert!(s.contains("invalidations="), "{s}");
    }

    #[test]
    fn fig_serve_renders_and_certifies() {
        // fig_serve errors out unless the drain loses zero in-flight
        // requests, the /metrics scrape validates and reconciles with
        // client tallies, every latency distribution has a finite p99,
        // and stage traces cover >= 96% of end-to-end latency — rendering
        // doubles as the acceptance check.
        let s = fig_serve(&tiny()).unwrap();
        assert!(s.contains("lost=0"), "{s}");
        assert!(s.contains("counters reconcile"), "{s}");
        assert!(s.contains("keep-alive:"), "{s}");
        assert!(s.contains("deadline_ms=0 answers 503"), "{s}");
        assert!(s.contains("trace coverage"), "{s}");
    }

    #[test]
    fn fig_profile_renders_and_certifies() {
        // fig_profile errors out unless every EXPLAIN ANALYZE is
        // bit-identical to its unprofiled twin, operator cardinalities
        // reconcile bottom-up, overhead stays bounded, the per-operator
        // metric series match client tallies exactly, and every served
        // query lands in the slow-query log with its full profile.
        let s = fig_profile(&tiny()).unwrap();
        assert!(s.contains("EXPLAIN ANALYZE"), "{s}");
        assert!(s.contains("max q"), "{s}");
        assert!(s.contains("profiling overhead"), "{s}");
        assert!(s.contains("series reconcile exactly"), "{s}");
        assert!(s.contains("bit-identical"), "{s}");
    }

    #[test]
    fn stats_report_renders() {
        let s = dataset_stats(&tiny()).unwrap();
        assert!(s.contains("IMDB-like"));
        assert!(s.contains("cast_info"));
    }
}
