//! # relgo-exec
//!
//! The vectorized execution engine for RelGo-RS physical plans — the
//! stand-in for the paper's DuckDB runtime module (§4.3).
//!
//! * [`chunk::GraphChunk`] — the graph-relation runtime representation:
//!   one row-id column per bound pattern element (struct-of-arrays), an
//!   edge scan's endpoint columns looked up when first read;
//! * [`graph_exec`] — interprets [`relgo_core::GraphOp`] trees: `SCAN`,
//!   `EXPAND` (VE-index traversal or hash fallback), `EXPAND_INTERSECT`
//!   (sorted-list merge intersection), binding hash joins, vertex filters;
//! * [`rel_exec`] — interprets [`relgo_core::RelOp`] trees around
//!   `SCAN_GRAPH_TABLE`: π̂ projection of bindings into columnar tables,
//!   table scans, hash joins, σ/π/aggregate/DISTINCT;
//! * [`oracle`] — a naive backtracking matcher + nested-loop relational
//!   evaluation, the correctness oracle every optimizer mode is tested
//!   against;
//! * a resource guard models the paper's OOM outcomes: plans whose
//!   intermediates exceed the configured row budget abort with
//!   [`relgo_common::RelGoError::ResourceExhausted`].

pub mod chunk;
pub mod graph_exec;
pub mod oracle;
pub mod profile;
pub mod rel_exec;

pub use chunk::GraphChunk;
pub use profile::{OperatorProfile, OperatorReport, PlanProfile, PlanReport, ProfileSink};
pub use rel_exec::{execute_plan_with, ExecConfig};
