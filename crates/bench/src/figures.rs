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
    let options = SessionOptions {
        opt_timeout: cfg.opt_timeout,
        ..SessionOptions::default()
    };
    let (session, schema) = Session::snb_with(cfg.snb_sf_small, 42, options)?;
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
                (Timing::Ok { opt_ms, exec_ms }, true) => {
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
    fn fig4b_applies_its_timeout() {
        // A zero budget always trips, so every Calcite-like cell reads OT.
        let cfg = BenchConfig {
            opt_timeout: std::time::Duration::ZERO,
            ..tiny()
        };
        let s = fig4b(&cfg).unwrap();
        let rows: Vec<&str> = s.lines().skip(2).collect();
        assert!(!rows.is_empty(), "{s}");
        for row in rows {
            assert_eq!(row.split_whitespace().nth(1), Some("OT"), "{s}");
        }
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
    fn stats_report_renders() {
        let s = dataset_stats(&tiny()).unwrap();
        assert!(s.contains("IMDB-like"));
        assert!(s.contains("cast_info"));
    }
}
