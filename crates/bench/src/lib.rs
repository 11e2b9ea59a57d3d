//! # relgo-bench
//!
//! The benchmark harness that regenerates every figure of the paper's
//! evaluation (§5). Each `fig*` function produces the same rows/series the
//! paper plots; the `repro` binary prints them. Timed perf points come from
//! the fixed harness in `benchmark/` (`bash benchmark/run.sh`).
//!
//! Scale notes: `repro --quick` shrinks scale factors and repetition counts
//! so the whole suite completes in well under a minute; the default
//! configuration corresponds to the shapes reported in `EXPERIMENTS.md`.

pub mod figures;
pub mod harness;

pub use harness::{measure, BenchConfig, Timing};
