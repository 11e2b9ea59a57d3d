//! # relgo-core
//!
//! The RelGo converged relational-graph optimizer — the primary contribution
//! of *"Towards a Converged Relational-Graph Optimization Framework"*
//! (Lou et al., SIGMOD 2024), reimplemented from scratch.
//!
//! Pipeline (paper Fig. 6):
//!
//! 1. An [`spjm::SpjmQuery`] captures
//!    `Q = π_A(σ_Ψ(R₁ ⋈ … ⋈ R_m ⋈ π̂_A*(M_G(P))))` — the SPJM skeleton.
//! 2. Heuristic rules rewrite across the relational/graph boundary:
//!    [`rules::filter_into_match`] pushes σ predicates into the pattern,
//!    [`rules::trim_and_fuse`] drops unused edge outputs and fuses
//!    `EXPAND_EDGE` + `GET_VERTEX` into `EXPAND`.
//! 3. The **graph optimizer** plans the matching operator with the one plan
//!    search of the workspace (the private `search` module) and encapsulates
//!    the resulting [`graph_plan::GraphOp`] tree in `SCAN_GRAPH_TABLE`.
//! 4. The **relational optimizer** composes the remaining SPJ operators
//!    around it ([`rel_plan::RelOp`]).
//!
//! **One search, two spaces, three strategies.** The search is a driver
//! over bitset states with one best-table, one budget check and one
//! `plans_visited` counter, generic over a *search space* that supplies the
//! leaves, the steps into a state, their estimate and the operator they
//! emit:
//!
//! * the **relation space** of §4.1 ([`agnostic`]) — the Lemma-1 edge
//!   relations (plus the vertex relations for the Calcite-like full space),
//!   independence-assumption estimates from low-order statistics, C_out,
//!   hash joins;
//! * the **decomposition space** of §4.2.1 — connected induced sub-patterns,
//!   GLogue high-order cardinalities, the §4.2.1 cost model, `EXPAND` /
//!   `EXPAND_INTERSECT` / hash join;
//!
//! searched left-deep **greedy**, by **memoized** subset DP, or
//! **exhaustively** without a memo. An [`OptimizerMode`] is a configuration
//! — space, strategy, whether GRainDB's predefined-join upgrade and the
//! heuristic rules run — not a code path (see the table in [`optimizer`]);
//! every strategy obeys the optimization budget and falls back to greedy
//! over the same space when it runs out.

pub mod agnostic;
mod aware;
pub mod graph_plan;
pub mod op_meta;
pub mod optimizer;
pub mod param;
pub mod rel_plan;
pub mod rules;
mod search;
pub mod spjm;

pub use graph_plan::{GraphOp, PatternElem};
pub use op_meta::OperatorMeta;
pub use optimizer::{optimize, OptStats, OptimizerMode, PlannerContext};
pub use param::{
    bind_query, binding_signature, parameterize, rebind_plan, validate_bindings, ParamQuery,
    PlanKey,
};
pub use rel_plan::{PhysicalPlan, RelOp};
pub use spjm::{AggSpec, AttrRef, GraphColumn, SpjmBuilder, SpjmQuery};
