//! # relgo-common
//!
//! Shared primitives for the RelGo-RS converged relational-graph optimization
//! framework (a from-scratch Rust reproduction of *"Towards a Converged
//! Relational-Graph Optimization Framework"*, Lou et al., SIGMOD 2024).
//!
//! This crate hosts the vocabulary types every other crate speaks:
//!
//! * [`value::Value`] and [`value::DataType`] — the dynamically typed scalar
//!   domain of relational tuples and graph-element attributes;
//! * [`schema::Schema`] / [`schema::Field`] — relation schemas;
//! * [`error::RelGoError`] — the unified error type;
//! * [`fxhash`] — a vendored Fx-style fast hash map/set (the performance
//!   guide recommends a fast non-cryptographic hasher for integer-keyed
//!   tables; we vendor it instead of adding a dependency);
//! * [`ids`] — strongly typed identifiers (`LabelId`, `RowId`, `ElementId`);
//! * [`morsel`] — the morsel-driven intra-query parallel scheduler shared by
//!   the execution engine and GLogue counting;
//! * [`select`] — the branch-free selection loops every filter, semijoin and
//!   predicate kernel turns its per-row test into positions with.

pub mod error;
pub mod fxhash;
pub mod ids;
pub mod morsel;
pub mod schema;
pub mod select;
pub mod value;

pub use error::{RelGoError, Result};
pub use fxhash::{FxHashMap, FxHashSet};
pub use ids::{ElementId, LabelId, RowId};
pub use schema::{Field, Schema};
pub use value::{DataType, Value};
