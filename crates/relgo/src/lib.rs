//! # RelGo-RS
//!
//! A converged relational–graph optimization framework for SQL/PGQ-style
//! SPJM queries — a from-scratch Rust reproduction of *"Towards a Converged
//! Relational-Graph Optimization Framework"* (Lou et al., SIGMOD 2024).
//!
//! ## Quickstart
//!
//! ```
//! use relgo::prelude::*;
//!
//! // 1. Relational tables + RGMapping → a session with graph index and
//! //    GLogue statistics.
//! let (session, schema) = Session::snb(0.05, 42).unwrap();
//!
//! // 2. An SPJM query (the paper's Fig. 1 example).
//! let query = relgo::workloads::snb_queries::fig1_example(&schema, "Tom").unwrap();
//!
//! // 3. Optimize + execute under any of the compared systems.
//! let outcome = session.run(&query, OptimizerMode::RelGo).unwrap();
//! let baseline = session.run(&query, OptimizerMode::DuckDbLike).unwrap();
//! assert_eq!(outcome.table.sorted_rows(), baseline.table.sorted_rows());
//! ```
//!
//! The crate re-exports the full stack: storage substrate, RGMapping and
//! graph indexes, pattern machinery, GLogue statistics, the converged
//! optimizer, the execution engine, dataset generators and the benchmark
//! workloads.

pub mod ingest;
pub mod observe;
pub mod prepared;
pub mod session;

pub use relgo_cache as cache;
pub use relgo_common as common;
pub use relgo_core as core;
pub use relgo_datagen as datagen;
pub use relgo_delta as delta;
pub use relgo_exec as exec;
pub use relgo_glogue as glogue;
pub use relgo_graph as graph;
pub use relgo_metrics as metrics;
pub use relgo_pattern as pattern;
pub use relgo_storage as storage;
pub use relgo_workloads as workloads;

pub use ingest::{CommitError, IngestBatch, IngestReport};
pub use observe::{ObservabilitySnapshot, QueryPath, SessionMetrics};
pub use prepared::PreparedStatement;
pub use relgo_delta::checkpoint::CheckpointStore;
pub use relgo_delta::wal::{Wal, WalOptions, WalStats};
pub use session::{
    CheckpointReport, ExplainAnalyze, PlanSource, QueryOptions, QueryOutcome, RecoveryReport,
    Session, SessionOptions, Snapshot,
};

/// The convenient all-in-one import.
pub mod prelude {
    pub use crate::ingest::{CommitError, IngestBatch, IngestReport};
    pub use crate::observe::{ObservabilitySnapshot, QueryPath, SessionMetrics};
    pub use crate::prepared::PreparedStatement;
    pub use crate::session::{
        CheckpointReport, ExplainAnalyze, PlanSource, QueryOptions, QueryOutcome, RecoveryReport,
        Session, SessionOptions, Snapshot,
    };
    pub use relgo_cache::{CacheConfig, MetricsSnapshot, PinnedPlan, PlanCache};
    pub use relgo_common::morsel::TimeBudget;
    pub use relgo_common::{DataType, RelGoError, Result, Value};
    pub use relgo_core::{OptStats, OptimizerMode, PhysicalPlan, SpjmBuilder, SpjmQuery};
    pub use relgo_delta::wal::{WalOptions, WalStats};
    pub use relgo_exec::{PlanReport, ProfileMode};
    pub use relgo_graph::{GraphView, RGMapping};
    pub use relgo_pattern::{MatchSemantics, Pattern, PatternBuilder};
    pub use relgo_storage::table::table_of;
    pub use relgo_storage::{BinaryOp, Database, ScalarExpr, Table};
    pub use relgo_workloads::job_queries::ImdbSchema;
    pub use relgo_workloads::snb_queries::SnbSchema;
    pub use relgo_workloads::templates::QueryTemplate;
}
