//! # relgo-glogue
//!
//! High-order statistics and the RelGo cost model, adapted from GLogS
//! (paper §4.2.1, §4.3).
//!
//! * [`counting`] — an exact homomorphism counter over the graph view
//!   (optionally root-sampled, reproducing GLogS's sparsification trick;
//!   `count_homomorphisms` partitions the seed range across a morsel
//!   worker pool);
//! * [`glogue::GLogue`] — the statistics store: exact cardinalities for
//!   sub-patterns of up to `k` vertices (keyed by canonical code, computed
//!   on demand and cached) plus extension-rate estimation for larger
//!   patterns and exact predicate selectivities;
//! * [`cost::CostModel`] — the physical cost formulas: `EXPAND` =
//!   `|M(P'ₗ)| × d̄`, `EXPAND_INTERSECT` = `|M(P'ₗ)| × (scan + avg
//!   intersection size)`, `HASH_JOIN` = `|M(P'ₗ)| + |M(P'ᵣ)| + |M(P')|`
//!   (build + probe + gather; the product without the index).

pub mod cost;
pub mod counting;
pub mod glogue;

pub use cost::CostModel;
pub use glogue::{GLogue, LabelMask};
