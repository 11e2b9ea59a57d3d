//! # relgo-workloads
//!
//! The benchmark query workloads of the paper's evaluation (§5.1), as SPJM
//! ASTs over the synthetic datasets of `relgo-datagen`:
//!
//! * [`snb_queries`] — the LDBC Interactive Complex subset
//!   `IC1,…,9,11,12` with the paper's fixed-length-path `-l` variants, the
//!   rule micro-benchmarks `QR1..QR4`, and the cyclic micro-benchmarks
//!   `QC1..QC3` (triangle, square, 4-clique);
//! * [`job_queries`] — 33 JOB-style join-order queries over the IMDB-like
//!   schema (all acyclic, star-shaped around `title`, with skewed
//!   predicates and `MIN` aggregates like the originals);
//! * [`templates`] — parameterized query templates (fixed structure,
//!   draw-dependent literals) served through the plan cache and prepared
//!   statements; the dynamic-SNB update stream that interleaves with them
//!   is `relgo_datagen::snb_update_stream`;
//! * [`Workload`] — a named query with metadata used by the harness.

pub mod job_queries;
pub mod snb_queries;
pub mod templates;

use relgo_core::SpjmQuery;

/// A named benchmark query.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Display name (`IC5-1`, `QC3`, `JOB17`, …).
    pub name: String,
    /// The query.
    pub query: SpjmQuery,
    /// Whether the pattern contains a cycle (drives per-figure grouping).
    pub cyclic: bool,
}

impl Workload {
    /// Construct a workload entry.
    pub fn new(name: impl Into<String>, query: SpjmQuery, cyclic: bool) -> Self {
        Workload {
            name: name.into(),
            query,
            cyclic,
        }
    }
}
