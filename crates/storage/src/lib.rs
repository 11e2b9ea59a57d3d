//! # relgo-storage
//!
//! The columnar relational storage substrate underneath RelGo-RS.
//!
//! The paper executes optimized plans on DuckDB; this crate is the stand-in:
//! an in-memory, single-node columnar store with
//!
//! * typed columns ([`column::Column`]) and immutable tables
//!   ([`table::Table`]) built through [`table::TableBuilder`];
//! * a catalog ([`catalog::Database`]) carrying primary/foreign-key metadata
//!   — the raw material for `RGMapping`'s λ total functions;
//! * a scalar expression AST ([`expr::ScalarExpr`]) with a scalar
//!   definition (`eval`) and a typed, column-at-a-time batch driver
//!   (`select`) that every filter runs through;
//! * unique-key indexes ([`catalog::KeyIndex`]) used to resolve foreign
//!   keys into row ids when graph indexes are built;
//! * baseline relational operators ([`ops`]) — filter, project, hash join
//!   (over [`ops::JoinTable`]),
//!   aggregate — shared by the executor and by the test oracles;
//! * table statistics ([`stats`]) consumed by the relational optimizers;
//! * primary-key write-sets ([`writeset::WriteSet`]) — the stable conflict
//!   footprint of an ingest commit, intersected by the session layer's
//!   first-committer-wins MVCC validation.

pub mod catalog;
pub mod column;
mod directory;
pub mod expr;
pub mod ops;
pub mod stats;
pub mod table;
pub mod writeset;

pub use catalog::{Database, ForeignKey, KeyIndex};
pub use column::Column;
pub use directory::KeySet;
pub use expr::{BinaryOp, ScalarExpr};
pub use table::{Table, TableBuilder, TableChange};
pub use writeset::WriteSet;
