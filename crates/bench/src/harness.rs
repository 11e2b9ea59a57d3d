//! Timing helpers behind the `repro` binary's figures.
//!
//! Methodology mirrors the paper's (§5.1), scaled down: each query runs a
//! warm-up round (amortizing GLogue statistic collection, which the paper
//! performs offline during RGMapping) and is then repeated; we report the
//! median. A per-query timeout marks runs as `OT`; resource exhaustion is
//! reported as `OOM`.

use relgo::prelude::*;
use std::time::Duration;

/// Harness configuration.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Repetitions per (query, mode) after warm-up.
    pub reps: usize,
    /// SNB scale factor for the micro benchmarks (Figs 7–9).
    pub snb_sf_small: f64,
    /// SNB scale factor standing in for LDBC30.
    pub snb_sf_mid: f64,
    /// SNB scale factor standing in for LDBC100 (Fig 11).
    pub snb_sf_large: f64,
    /// IMDB scale factor.
    pub imdb_sf: f64,
    /// Optimizer timeout (Calcite-like enumeration, Fig 4b).
    pub opt_timeout: Duration,
}

impl BenchConfig {
    /// Full configuration (a few minutes for `repro all`).
    pub fn full() -> BenchConfig {
        BenchConfig {
            reps: 5,
            snb_sf_small: 0.1,
            snb_sf_mid: 0.3,
            snb_sf_large: 1.0,
            imdb_sf: 0.5,
            opt_timeout: Duration::from_secs(3),
        }
    }

    /// Quick configuration (sub-minute sanity run).
    pub fn quick() -> BenchConfig {
        BenchConfig {
            reps: 2,
            snb_sf_small: 0.05,
            snb_sf_mid: 0.1,
            snb_sf_large: 0.2,
            imdb_sf: 0.15,
            opt_timeout: Duration::from_millis(500),
        }
    }
}

/// One measured query run.
#[derive(Debug, Clone, Copy)]
pub enum Timing {
    /// Median optimization and execution times in milliseconds.
    Ok {
        /// Optimization time (ms).
        opt_ms: f64,
        /// Execution time (ms).
        exec_ms: f64,
    },
    /// The executor tripped the intermediate-size guard.
    Oom,
}

impl Timing {
    /// End-to-end milliseconds (`f64::INFINITY` for OOM — matches how the
    /// paper treats failed runs when averaging speedups).
    pub fn e2e_ms(&self) -> f64 {
        match self {
            Timing::Ok { opt_ms, exec_ms } => opt_ms + exec_ms,
            Timing::Oom => f64::INFINITY,
        }
    }

    /// Render like the paper's tables (`12.34` or `OOM`).
    pub fn display(&self) -> String {
        match self {
            Timing::Ok { opt_ms, exec_ms } => format!("{:.2}", opt_ms + exec_ms),
            Timing::Oom => "OOM".to_string(),
        }
    }
}

/// Measure one (query, mode): one warm-up run, then the median of
/// `reps` timed runs.
pub fn measure(
    session: &Session,
    query: &SpjmQuery,
    mode: OptimizerMode,
    reps: usize,
) -> Result<Timing> {
    // Warm-up (also catches OOM without polluting the timings).
    match session.run(query, mode) {
        Ok(_) => {}
        Err(RelGoError::ResourceExhausted(_)) => return Ok(Timing::Oom),
        Err(e) => return Err(e),
    }
    let mut opts = Vec::with_capacity(reps);
    let mut execs = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        match session.run(query, mode) {
            Ok(out) => {
                opts.push(out.opt.elapsed.as_secs_f64() * 1e3);
                execs.push(out.exec_time.as_secs_f64() * 1e3);
            }
            Err(RelGoError::ResourceExhausted(_)) => return Ok(Timing::Oom),
            Err(e) => return Err(e),
        }
    }
    Ok(Timing::Ok {
        opt_ms: median(&mut opts),
        exec_ms: median(&mut execs),
    })
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Right-pad a cell for the ASCII tables.
pub fn cell(s: &str, width: usize) -> String {
    format!("{s:>width$}")
}

/// Geometric mean of positive finite values (the paper's "average
/// speedup"); infinite entries (OOM baselines) are excluded.
pub fn geomean(xs: &[f64]) -> f64 {
    let finite: Vec<f64> = xs
        .iter()
        .copied()
        .filter(|x| x.is_finite() && *x > 0.0)
        .collect();
    if finite.is_empty() {
        return f64::NAN;
    }
    (finite.iter().map(|x| x.ln()).sum::<f64>() / finite.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_speedups() {
        let g = geomean(&[2.0, 8.0]);
        assert!((g - 4.0).abs() < 1e-9);
        assert!(geomean(&[2.0, f64::INFINITY]) - 2.0 < 1e-9);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn measure_reports_rows() {
        let (session, schema) = Session::snb(0.03, 42).unwrap();
        let q = relgo::workloads::snb_queries::ic1(&schema, 1, 5).unwrap();
        let t = measure(&session, &q, OptimizerMode::RelGo, 2).unwrap();
        match t {
            Timing::Ok { opt_ms, exec_ms } => {
                assert!(opt_ms >= 0.0 && exec_ms >= 0.0);
            }
            Timing::Oom => panic!("tiny query must not OOM"),
        }
    }

    #[test]
    fn configs_differ() {
        assert!(BenchConfig::quick().reps < BenchConfig::full().reps);
        assert!(BenchConfig::quick().snb_sf_large < BenchConfig::full().snb_sf_large);
    }
}
