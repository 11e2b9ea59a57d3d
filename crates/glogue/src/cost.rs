//! The RelGo cost model (paper §4.2.1).
//!
//! With a graph index, the three physical implementations of b⋈ are costed
//! as:
//!
//! * **EXPAND** (single-edge right child): `|M(P'ₗ)| × d̄`;
//! * **EXPAND_INTERSECT** (complete-star right child): `|M(P'ₗ)|` × (the
//!   cheapest adjacency list scanned per tuple + the average intersection
//!   size, i.e. the result-per-tuple ratio);
//! * **HASH_JOIN** (arbitrary right child): build + probe + gather,
//!   `|M(P'ₗ)| + |M(P'ᵣ)| + |M(P')|`, each term floored at 1 — linear, as
//!   the executor's `JoinTable` runs it (the paper prices it at the
//!   product `|M(P'ₗ)| × |M(P'ᵣ)|`).
//!
//! Without a graph index, every operation is a hash join and costs the
//! product of its input cardinalities — the join included, so that it stays
//! comparable with the product-priced EXPAND of that regime.

/// Tunable cost model. The `with_index` flag mirrors the paper's two
/// regimes.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Whether graph-index-backed operators (EXPAND / EXPAND_INTERSECT /
    /// predefined joins) are available.
    pub with_index: bool,
}

impl CostModel {
    /// Cost model with the graph index available.
    pub fn indexed() -> CostModel {
        CostModel { with_index: true }
    }

    /// Cost model without any graph index.
    pub fn unindexed() -> CostModel {
        CostModel { with_index: false }
    }

    /// Cost of expanding one edge from every tuple of the left side.
    ///
    /// `card_left` = |M(P'ₗ)|, `avg_degree` = d̄ of the traversed
    /// (edge label, direction), `edge_rel_card` = |R_e| (used by the
    /// no-index hash-join fallback).
    pub fn expand(&self, card_left: f64, avg_degree: f64, edge_rel_card: f64) -> f64 {
        if self.with_index {
            card_left * avg_degree.max(1e-3)
        } else {
            // Hash join of the left side with the edge relation.
            card_left * edge_rel_card.max(1.0)
        }
    }

    /// Cost of a complete-star intersection producing `result_card` tuples.
    ///
    /// `degrees` are the d̄ of each leaf's adjacency; the operator scans the
    /// shortest list per tuple and merges, so the per-tuple work is the
    /// smallest degree plus the average intersection size
    /// (`result_card / card_left`).
    pub fn expand_intersect(&self, card_left: f64, degrees: &[f64], result_card: f64) -> f64 {
        debug_assert!(!degrees.is_empty());
        if self.with_index {
            let d_min = degrees.iter().copied().fold(f64::INFINITY, f64::min);
            card_left * d_min.max(1e-3) + result_card
        } else {
            // Chained hash joins over |Vs| single-edge patterns; dominated
            // by the first join's product. Callers model the chain
            // explicitly; this is the aggregate shortcut.
            let d_max = degrees.iter().copied().fold(1.0f64, f64::max);
            card_left * d_max * degrees.len() as f64 + result_card
        }
    }

    /// Cost of a hash join of two sub-pattern relations producing
    /// `card_out` tuples. With the index: build, probe and gather, one
    /// term each, floored at 1. Without it: the product of the
    /// cardinalities being joined.
    pub fn hash_join(&self, card_left: f64, card_right: f64, card_out: f64) -> f64 {
        if self.with_index {
            card_left.max(1.0) + card_right.max(1.0) + card_out.max(1.0)
        } else {
            card_left.max(1.0) * card_right.max(1.0)
        }
    }

    /// Cost of scanning a vertex relation of `card` rows (plan entry point).
    pub fn scan(&self, card: f64) -> f64 {
        card.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expand_with_index_scales_by_degree() {
        let m = CostModel::indexed();
        assert_eq!(m.expand(100.0, 3.0, 1_000_000.0), 300.0);
    }

    #[test]
    fn expand_without_index_is_a_join() {
        let m = CostModel::unindexed();
        assert_eq!(m.expand(100.0, 3.0, 500.0), 50_000.0);
        // Index makes expansion dramatically cheaper when |R_e| ≫ d̄ — the
        // core GRainDB argument.
        assert!(m.expand(100.0, 3.0, 500.0) > CostModel::indexed().expand(100.0, 3.0, 500.0));
    }

    #[test]
    fn intersect_prefers_short_lists() {
        let m = CostModel::indexed();
        let cheap = m.expand_intersect(100.0, &[2.0, 50.0], 10.0);
        let pricey = m.expand_intersect(100.0, &[50.0, 50.0], 10.0);
        assert!(cheap < pricey);
    }

    #[test]
    fn intersect_beats_chained_joins_on_cycles() {
        // EI with index vs the same star without index.
        let with = CostModel::indexed().expand_intersect(1000.0, &[5.0, 5.0], 2000.0);
        let without = CostModel::unindexed().expand_intersect(1000.0, &[5.0, 5.0], 2000.0);
        assert!(with < without);
    }

    #[test]
    fn join_cost_is_linear_and_guards_zero() {
        let m = CostModel::indexed();
        assert_eq!(m.hash_join(10.0, 20.0, 5.0), 35.0);
        assert_eq!(m.hash_join(0.0, 20.0, 0.0), 22.0, "empty terms floor at 1");
        assert_eq!(m.hash_join(0.0, 0.0, 0.0), 3.0);
    }

    #[test]
    fn unindexed_join_stays_a_product() {
        let m = CostModel::unindexed();
        assert_eq!(m.hash_join(10.0, 20.0, 5.0), 200.0);
        assert_eq!(m.hash_join(0.0, 20.0, 1e6), 20.0, "empty side floors at 1");
    }

    #[test]
    fn scan_cost_floors_at_one() {
        assert_eq!(CostModel::indexed().scan(0.0), 1.0);
        assert_eq!(CostModel::indexed().scan(42.0), 42.0);
    }
}
