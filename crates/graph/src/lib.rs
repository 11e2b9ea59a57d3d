//! # relgo-graph
//!
//! The property-graph lens over relational tables: `RGMapping`, the graph
//! schema, and GRainDB-style graph indexes.
//!
//! Paper correspondence:
//!
//! * §2.1 *RGMapping* — [`mapping::RGMapping`] maps vertex relations and
//!   edge relations (with λˢ/λᵗ total functions derived from foreign keys)
//!   into a property graph. No graph is ever materialized.
//! * §3.2.1 *Graph Index* — [`index::GraphIndex`] holds the **EV-index**
//!   (per-edge source/target row ids, i.e. the extra rowid columns of
//!   GRainDB) and the **VE-index** (CSR adjacency per edge label and
//!   direction, neighbor lists sorted to support intersection), each
//!   built when a query first reads it.
//! * λ as a value ([`lambda::Lambda`]) — one end of an edge label, through
//!   the key index or the EV-index, for operators that bind an edge first
//!   and look its endpoints up when something reads them.
//! * Graph statistics ([`stats::GraphStats`]) — label cardinalities and
//!   average degrees, the `d̄` of the paper's cost model.
//! * The running example ([`fig2`]) — Fig. 2's Person / Message / Likes /
//!   Knows graph plus the `Place` relation Fig. 1 joins, the one fixture
//!   the workspace's unit tests build on.

pub mod fig2;
pub mod index;
pub mod lambda;
pub mod mapping;
pub mod schema;
pub mod stats;
pub mod view;

pub use index::{Direction, GraphIndex};
pub use lambda::Lambda;
pub use mapping::{EdgeMapping, RGMapping, VertexMapping};
pub use schema::GraphSchema;
pub use stats::GraphStats;
pub use view::GraphView;
