//! The converged optimizer entry point and the compared-system matrix.
//!
//! [`optimize`] takes an [`SpjmQuery`] and produces a [`PhysicalPlan`]
//! according to the chosen [`OptimizerMode`] — the full set of systems the
//! paper evaluates (§5.1). A mode is a configuration of the one plan search
//! (`search`): which space it ranges over, how hard it works, and which
//! rewrites run around it.
//!
//! | mode | space | strategy | index | rules | EI |
//! |------|-------|----------|-------|-------|----|
//! | `DuckDbLike`  | edge relations | greedy | – | pushdown | – |
//! | `GRainDb`     | edge relations | greedy | ✓ | pushdown | – |
//! | `UmbraLike`   | edge relations, histograms | memoized | ✓ | pushdown | – |
//! | `CalciteLike` | vertex + edge relations | exhaustive (no memo) | – | pushdown | – |
//! | `KuzuLike`    | – (native BFS heuristic) | – | ✓ | pushdown | – |
//! | `RelGo`       | decomposition trees | memoized | ✓ | both | ✓ |
//! | `RelGoHash`   | decomposition trees, unindexed costs | memoized | – | both | ✓ |
//! | `RelGoNoRule` | decomposition trees | memoized | ✓ | – | ✓ |
//! | `RelGoNoEI`   | decomposition trees | memoized | ✓ | both | – |

use crate::agnostic::{kuzu_heuristic_plan, upgrade_to_predefined_joins, RelationSpace};
use crate::aware::DecompositionSpace;
use crate::rel_plan::{PhysicalPlan, RelOp};
use crate::rules::{conjoin_all, filter_into_match, split_conjuncts, trim_and_fuse};
use crate::search::{search, SearchStats, Strategy};
use crate::spjm::SpjmQuery;
use relgo_common::{RelGoError, Result};
use relgo_glogue::{CostModel, GLogue};
use relgo_graph::GraphView;
use relgo_storage::{Database, ScalarExpr};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which system's optimizer to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptimizerMode {
    /// Graph-agnostic greedy, hash joins only (the naive §4.1 baseline).
    DuckDbLike,
    /// Graph-agnostic greedy + graph index (predefined joins).
    GRainDb,
    /// Graph-agnostic DP join ordering + graph index.
    UmbraLike,
    /// Graph-agnostic exhaustive enumeration, no pruning (Fig. 4b).
    CalciteLike,
    /// Graph-native heuristic engine baseline.
    KuzuLike,
    /// The full converged optimizer.
    RelGo,
    /// RelGo's converged planning, executed without the graph index.
    RelGoHash,
    /// RelGo without `FilterIntoMatchRule`/`TrimAndFuseRule`.
    RelGoNoRule,
    /// RelGo without `EXPAND_INTERSECT`.
    RelGoNoEI,
}

impl OptimizerMode {
    /// All modes, for exhaustive test sweeps.
    pub const ALL: [OptimizerMode; 9] = [
        OptimizerMode::DuckDbLike,
        OptimizerMode::GRainDb,
        OptimizerMode::UmbraLike,
        OptimizerMode::CalciteLike,
        OptimizerMode::KuzuLike,
        OptimizerMode::RelGo,
        OptimizerMode::RelGoHash,
        OptimizerMode::RelGoNoRule,
        OptimizerMode::RelGoNoEI,
    ];

    /// Whether the executor may use the graph index for this mode.
    pub fn uses_graph_index(self) -> bool {
        !matches!(
            self,
            OptimizerMode::DuckDbLike | OptimizerMode::CalciteLike | OptimizerMode::RelGoHash
        )
    }

    /// Whether this mode runs the converged (graph-aware) pipeline.
    pub fn is_graph_aware(self) -> bool {
        matches!(
            self,
            OptimizerMode::RelGo
                | OptimizerMode::RelGoHash
                | OptimizerMode::RelGoNoRule
                | OptimizerMode::RelGoNoEI
        )
    }

    /// Short display name (benchmark tables).
    pub fn name(self) -> &'static str {
        match self {
            OptimizerMode::DuckDbLike => "DuckDB",
            OptimizerMode::GRainDb => "GRainDB",
            OptimizerMode::UmbraLike => "UmbraPlans",
            OptimizerMode::CalciteLike => "Calcite",
            OptimizerMode::KuzuLike => "Kuzu",
            OptimizerMode::RelGo => "RelGo",
            OptimizerMode::RelGoHash => "RelGoHash",
            OptimizerMode::RelGoNoRule => "RelGoNoRule",
            OptimizerMode::RelGoNoEI => "RelGoNoEI",
        }
    }
}

/// Everything the planner needs to know about the data.
#[derive(Clone)]
pub struct PlannerContext {
    /// The property-graph view (index built if any mode requires it).
    pub view: Arc<GraphView>,
    /// The catalog holding the relational tables of the SPJ part.
    pub db: Arc<Database>,
    /// High-order statistics (required by graph-aware modes).
    pub glogue: Option<Arc<GLogue>>,
    /// Optimization-time budget of the plan search (every mode obeys it).
    pub timeout: Duration,
}

/// Optimization statistics (drives Fig. 4b and Fig. 7's opt-time bars).
#[derive(Debug, Clone, Copy, Default)]
pub struct OptStats {
    /// Wall-clock optimization time.
    pub elapsed: Duration,
    /// Candidate steps (joins, expansions) whose estimate the plan search
    /// evaluated; 0 only for the search-free `KuzuLike` heuristic.
    pub plans_visited: u64,
    /// Whether the search ran out of budget and fell back to the greedy
    /// strategy over the same space.
    pub timed_out: bool,
}

/// What the matching operator's plan search ranges over.
enum Space {
    /// The Lemma-1 relations, low-order statistics, C_out.
    Relation {
        vertex_items: bool,
        histograms: bool,
    },
    /// The decomposition trees, GLogue statistics, the §4.2.1 cost model.
    Decomposition { allow_ei: bool, cost: CostModel },
    /// No search: the Kùzu-like BFS heuristic.
    NativeHeuristic,
}

/// One optimizer mode as a configuration of the plan search.
struct Recipe {
    space: Space,
    strategy: Strategy,
    /// Run the GRainDB predefined-join upgrade on the found plan.
    upgrade_joins: bool,
    /// Push σ predicates into the pattern before the search (ordinary
    /// filter pushdown for the agnostic modes, `FilterIntoMatchRule` for
    /// the aware ones).
    pushdown: bool,
    /// Run `TrimAndFuseRule` on the found plan.
    trim_and_fuse: bool,
}

impl OptimizerMode {
    fn recipe(self) -> Recipe {
        let relation = |strategy, vertex_items, histograms| Recipe {
            space: Space::Relation {
                vertex_items,
                histograms,
            },
            strategy,
            upgrade_joins: self.uses_graph_index(),
            pushdown: true,
            trim_and_fuse: false,
        };
        let decomposition = |allow_ei, cost, rules| Recipe {
            space: Space::Decomposition { allow_ei, cost },
            strategy: Strategy::Memoized,
            upgrade_joins: false,
            pushdown: rules,
            trim_and_fuse: rules,
        };
        match self {
            OptimizerMode::DuckDbLike | OptimizerMode::GRainDb => {
                relation(Strategy::Greedy, false, false)
            }
            OptimizerMode::UmbraLike => relation(Strategy::Memoized, false, true),
            OptimizerMode::CalciteLike => relation(Strategy::Exhaustive, true, false),
            OptimizerMode::KuzuLike => Recipe {
                space: Space::NativeHeuristic,
                upgrade_joins: false,
                ..relation(Strategy::Greedy, false, false)
            },
            OptimizerMode::RelGo => decomposition(true, CostModel::indexed(), true),
            OptimizerMode::RelGoHash => decomposition(true, CostModel::unindexed(), true),
            OptimizerMode::RelGoNoRule => decomposition(true, CostModel::indexed(), false),
            OptimizerMode::RelGoNoEI => decomposition(false, CostModel::indexed(), true),
        }
    }
}

/// Optimize an SPJM query under the given mode.
pub fn optimize(
    query: &SpjmQuery,
    mode: OptimizerMode,
    ctx: &PlannerContext,
) -> Result<(PhysicalPlan, OptStats)> {
    query.validate(&ctx.view, &ctx.db)?;
    let start = Instant::now();
    let recipe = mode.recipe();

    let mut query = if recipe.pushdown {
        filter_into_match(query)
    } else {
        query.clone()
    };
    let pattern = &query.pattern;
    let (mut graph_op, searched) = match recipe.space {
        Space::Relation {
            vertex_items,
            histograms,
        } => {
            let space = RelationSpace::new(pattern, &ctx.view, vertex_items, histograms)?;
            search(&space, recipe.strategy, ctx.timeout)?
        }
        Space::Decomposition { allow_ei, cost } => {
            let glogue = ctx.glogue.as_ref().ok_or_else(|| {
                RelGoError::plan("graph-aware modes require a GLogue in the planner context")
            })?;
            let space = DecompositionSpace::new(pattern, glogue, allow_ei, cost)?;
            search(&space, recipe.strategy, ctx.timeout)?
        }
        Space::NativeHeuristic => (
            kuzu_heuristic_plan(pattern, &ctx.view)?,
            SearchStats::default(),
        ),
    };
    if recipe.upgrade_joins {
        graph_op = upgrade_to_predefined_joins(pattern, graph_op);
    }
    if recipe.trim_and_fuse {
        (query, graph_op) = trim_and_fuse(&query, graph_op);
    }

    let root = build_relational(&query, graph_op, &ctx.db)?;
    Ok((
        PhysicalPlan {
            pattern: query.pattern,
            root,
        },
        OptStats {
            elapsed: start.elapsed(),
            plans_visited: searched.plans_visited,
            timed_out: searched.timed_out,
        },
    ))
}

/// Compose the relational component around `SCAN_GRAPH_TABLE` (§4.2.2):
/// graph-only residual selection directly above the graph table, then the
/// declared joins (single-table conjuncts pushed into the table scans), then
/// the residual cross-table selection, projection, aggregation and DISTINCT.
fn build_relational(
    query: &SpjmQuery,
    graph: crate::graph_plan::GraphOp,
    db: &Database,
) -> Result<RelOp> {
    let gw = query.graph_width();
    // Global column ranges of each relational table.
    let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(query.tables.len());
    let mut acc = gw;
    for t in &query.tables {
        let w = db.table(t)?.schema().len();
        ranges.push((acc, acc + w));
        acc += w;
    }

    let mut root = RelOp::ScanGraphTable {
        graph,
        columns: query.columns.clone(),
    };

    // Partition the residual selection: graph-only conjuncts right above
    // the graph table, single-table conjuncts pushed into the table scan
    // (rewritten over local columns), the rest above the joins.
    let mut graph_only: Vec<ScalarExpr> = Vec::new();
    let mut residual: Vec<ScalarExpr> = Vec::new();
    let mut table_pred: Vec<Vec<ScalarExpr>> = vec![Vec::new(); query.tables.len()];
    if let Some(sel) = &query.selection {
        'conjunct: for c in split_conjuncts(sel) {
            let refs = c.referenced_columns();
            if refs.iter().all(|&r| r < gw) {
                graph_only.push(c);
                continue;
            }
            for (ti, &(lo, hi)) in ranges.iter().enumerate() {
                if refs.iter().all(|&r| r >= lo && r < hi) {
                    table_pred[ti].push(c.remap_columns(&|r| r - lo));
                    continue 'conjunct;
                }
            }
            residual.push(c);
        }
    }

    if let Some(pred) = conjoin_all(graph_only) {
        root = RelOp::Filter {
            input: Box::new(root),
            predicate: pred,
        };
    }

    // Joins with the declared tables, in declaration order; join keys whose
    // right side falls in this table's range are rewritten right-local.
    for (ti, tname) in query.tables.iter().enumerate() {
        let (lo, hi) = ranges[ti];
        let keys: Vec<(usize, usize)> = query
            .join_on
            .iter()
            .filter(|&&(_, r)| r >= lo && r < hi)
            .map(|&(l, r)| (l, r - lo))
            .collect();
        root = RelOp::HashJoin {
            left: Box::new(root),
            right: Box::new(RelOp::ScanTable {
                table: tname.clone(),
                predicate: conjoin_all(std::mem::take(&mut table_pred[ti])),
            }),
            keys,
        };
    }

    if let Some(pred) = conjoin_all(residual) {
        root = RelOp::Filter {
            input: Box::new(root),
            predicate: pred,
        };
    }
    if !query.projection.is_empty() {
        root = RelOp::Project {
            input: Box::new(root),
            cols: query.projection.clone(),
        };
    }
    if !query.aggregates.is_empty() {
        root = RelOp::Aggregate {
            input: Box::new(root),
            aggs: query.aggregates.clone(),
        };
    }
    if query.distinct {
        root = RelOp::Distinct {
            input: Box::new(root),
        };
    }
    if !query.order_by.is_empty() {
        root = RelOp::Sort {
            input: Box::new(root),
            keys: query.order_by.clone(),
        };
    }
    if let Some(n) = query.limit {
        root = RelOp::Limit {
            input: Box::new(root),
            n,
        };
    }
    Ok(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spjm::SpjmBuilder;
    use relgo_common::LabelId;
    use relgo_graph::fig2;
    use relgo_pattern::PatternBuilder;

    /// The planner over Fig. 2's view and its GLogue.
    fn context() -> PlannerContext {
        let (view, db) = fig2::view();
        let view = Arc::new(view);
        let glogue = GLogue::new(Arc::clone(&view), 3, 1).unwrap();
        PlannerContext {
            view,
            db: Arc::new(db),
            glogue: Some(Arc::new(glogue)),
            timeout: Duration::from_secs(5),
        }
    }

    /// The paper's Fig. 1 query as an SPJM AST.
    fn fig1_query() -> SpjmQuery {
        let mut pb = PatternBuilder::new();
        let p1 = pb.vertex("p1", LabelId(0));
        let p2 = pb.vertex("p2", LabelId(0));
        let m = pb.vertex("m", LabelId(1));
        pb.edge(p1, m, LabelId(0)).unwrap();
        pb.edge(p2, m, LabelId(0)).unwrap();
        pb.edge(p1, p2, LabelId(1)).unwrap();
        let pattern = pb.build().unwrap();
        let mut b = SpjmBuilder::new(pattern);
        let p1_name = b.vertex_column(0, 1, "p1_name");
        let p1_place = b.vertex_column(0, 2, "p1_place_id");
        let p2_name = b.vertex_column(1, 1, "p2_name");
        b.table("Place");
        b.join(p1_place, 3); // g.p1_place_id = place.id (global col 3)
        b.select(ScalarExpr::col_eq(p1_name, "Tom"));
        b.project(&[p2_name, 4]); // p2_name, place.pname
        b.build()
    }

    #[test]
    fn all_modes_produce_plans_for_fig1() {
        let ctx = context();
        for mode in OptimizerMode::ALL {
            let (plan, _) =
                optimize(&fig1_query(), mode, &ctx).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
            let s = plan.explain();
            assert!(s.contains("SCAN_GRAPH_TABLE"), "{mode:?}\n{s}");
        }
    }

    #[test]
    fn relgo_pushes_tom_filter_into_match() {
        let ctx = context();
        let (plan, _) = optimize(&fig1_query(), OptimizerMode::RelGo, &ctx).unwrap();
        assert!(
            plan.pattern.vertex(0).predicate.is_some(),
            "FilterIntoMatchRule must constrain p1"
        );
        let s = plan.explain();
        assert!(
            !s.contains("SELECTION ($0 = 'Tom')"),
            "filter is gone:\n{s}"
        );
    }

    #[test]
    fn norule_keeps_selection_outside() {
        let ctx = context();
        let (plan, _) = optimize(&fig1_query(), OptimizerMode::RelGoNoRule, &ctx).unwrap();
        assert!(plan.pattern.vertex(0).predicate.is_none());
        let s = plan.explain();
        assert!(s.contains("SELECTION"), "{s}");
    }

    #[test]
    fn relgo_uses_intersect_on_fig1_triangle() {
        let ctx = context();
        let (plan, _) = optimize(&fig1_query(), OptimizerMode::RelGo, &ctx).unwrap();
        let g = plan.root.graph_plan().unwrap();
        assert!(
            g.preorder().any(|op| op.kind() == "expand_intersect"),
            "{}",
            plan.explain()
        );
    }

    #[test]
    fn noei_avoids_intersect() {
        let ctx = context();
        let (plan, _) = optimize(&fig1_query(), OptimizerMode::RelGoNoEI, &ctx).unwrap();
        let g = plan.root.graph_plan().unwrap();
        assert!(g.preorder().all(|op| op.kind() != "expand_intersect"));
    }

    #[test]
    fn opt_stats_reports_timing() {
        let ctx = context();
        let (_, stats) = optimize(&fig1_query(), OptimizerMode::RelGo, &ctx).unwrap();
        assert!(stats.elapsed.as_nanos() > 0);
    }

    #[test]
    fn aware_modes_require_glogue() {
        let mut ctx = context();
        ctx.glogue = None;
        assert!(optimize(&fig1_query(), OptimizerMode::RelGo, &ctx).is_err());
        assert!(optimize(&fig1_query(), OptimizerMode::DuckDbLike, &ctx).is_ok());
    }
}
