//! The one plan search of the workspace: a subset DP over bitset states.
//!
//! A *state* is a bitset of items (relations, or pattern vertices); a
//! *step* produces a state's plan from the plans of one or two smaller
//! states, so every plan is built bottom-up from the single-item leaves.
//! [`search`] drives a [`SearchSpace`] — which supplies the leaves,
//! the steps into a state, their cardinality/cost estimate and the operator
//! they emit — under one of three [`Strategy`]s, with one best-table
//! ("first strictly cheaper candidate wins"), one clock check and one
//! `plans_visited` counter. The graph-agnostic join ordering of §4.1 and the
//! graph-aware decomposition search of §4.2.1 are the two spaces
//! ([`crate::agnostic::RelationSpace`], [`crate::aware::DecompositionSpace`]);
//! an optimizer mode is a choice of space and strategy.

use crate::graph_plan::GraphOp;
use relgo_common::{FxHashMap, RelGoError, Result};
use std::time::{Duration, Instant};

/// A set of items as a bitmask.
pub(crate) type State = u32;

/// Beyond this many items the memoized search (`3^n` splits) is not
/// attempted and the greedy strategy answers instead.
const MAX_MEMO_ITEMS: usize = 14;

/// The clock is read once per this many state visits.
const CLOCK_STRIDE: u64 = 64;

/// How hard the search works.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Strategy {
    /// Left-deep, smallest estimated output first (DuckDB-like).
    Greedy,
    /// Bushy subset DP: every state solved once (Umbra-like, RelGo).
    Memoized,
    /// Every state re-solved every time it is needed — no pruning by memo,
    /// so the visit count grows with the full plan space (Calcite-like,
    /// Fig. 4b's baseline).
    Exhaustive,
}

/// What one search did (drives Fig. 4b).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SearchStats {
    /// Steps whose estimate the search evaluated.
    pub plans_visited: u64,
    /// Whether the search ran out of budget and the greedy strategy
    /// answered instead.
    pub timed_out: bool,
}

/// Estimated cumulative cost and output cardinality of a sub-plan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Est {
    pub cost: f64,
    pub card: f64,
}

/// The best known plan of a state.
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    pub est: Est,
    pub op: GraphOp,
}

/// What a search ranges over. Items are numbered `0..item_count()`; the
/// single-item states are the leaves.
pub(crate) trait SearchSpace {
    /// A transition producing one state from one or two smaller ones.
    type Step;

    fn item_count(&self) -> usize;

    /// The plan of the single-item state `{item}`.
    fn leaf(&self, item: usize) -> Entry;

    /// Every legal step producing exactly `s` (≥ 2 items), in enumeration
    /// order: ties on cost go to the earliest.
    fn steps_into(&self, s: State) -> impl Iterator<Item = Self::Step> + '_;

    /// The left-deep step growing `cur` by `item` (∉ `cur`), if legal.
    fn extension(&self, cur: State, item: usize) -> Option<Self::Step>;

    /// The states whose plans `step` consumes.
    fn inputs(&self, step: &Self::Step) -> (State, Option<State>);

    /// Estimate `step`'s output from its inputs' estimates.
    fn estimate(&self, step: &Self::Step, left: Est, right: Option<Est>) -> Est;

    /// The operator `step` puts on top of its inputs' plans.
    fn emit(&self, step: &Self::Step, est: Est, left: Entry, right: Option<Entry>) -> GraphOp;
}

/// Search `space` for the cheapest plan covering all its items. When the
/// chosen strategy exceeds `timeout` (or its item budget) the greedy
/// strategy over the same space answers and `timed_out` is set.
pub(crate) fn search<S: SearchSpace>(
    space: &S,
    strategy: Strategy,
    timeout: Duration,
) -> Result<(GraphOp, SearchStats)> {
    let items = space.item_count();
    if items == 0 || items > State::BITS as usize {
        return Err(RelGoError::plan(format!(
            "search space has {items} items; a search state holds 1 to {}",
            State::BITS
        )));
    }
    let full = State::MAX >> (State::BITS as usize - items);
    let mut driver = Driver {
        space,
        leaves: (0..items).map(|i| space.leaf(i)).collect(),
        table: FxHashMap::default(),
        memoize: strategy == Strategy::Memoized,
        started: Instant::now(),
        timeout,
        polls: 0,
        stats: SearchStats::default(),
    };
    // A single item is its own plan; the greedy walk returns it as is.
    let solved = items > 1
        && match strategy {
            Strategy::Greedy => false,
            Strategy::Memoized if items > MAX_MEMO_ITEMS => {
                driver.stats.timed_out = true;
                false
            }
            Strategy::Memoized | Strategy::Exhaustive => driver.solve(full),
        };
    let best = if solved {
        driver
            .table
            .remove(&full)
            .expect("solved states are tabled")
    } else {
        driver.greedy(full)?
    };
    Ok((best.op, driver.stats))
}

struct Driver<'a, S: SearchSpace> {
    space: &'a S,
    leaves: Vec<Entry>,
    /// Best plan per solved multi-item state.
    table: FxHashMap<State, Entry>,
    /// Whether a solved state is reused (`Memoized`) or re-solved.
    memoize: bool,
    started: Instant,
    timeout: Duration,
    polls: u64,
    stats: SearchStats,
}

impl<S: SearchSpace> Driver<'_, S> {
    fn entry(&self, s: State) -> &Entry {
        if s.is_power_of_two() {
            &self.leaves[s.trailing_zeros() as usize]
        } else {
            &self.table[&s]
        }
    }

    /// The one budget check: latches `timed_out` once the clock passes.
    fn out_of_time(&mut self) -> bool {
        if self.polls.is_multiple_of(CLOCK_STRIDE) && self.started.elapsed() > self.timeout {
            self.stats.timed_out = true;
        }
        self.polls += 1;
        self.stats.timed_out
    }

    /// Leave the cheapest plan of `s` in the table: the best over the steps
    /// into `s`, each over the best plans of its inputs. Returns `false`
    /// when the budget ran out (or `s` has no plan).
    fn solve(&mut self, s: State) -> bool {
        if s.is_power_of_two() || (self.memoize && self.table.contains_key(&s)) {
            return true;
        }
        if self.out_of_time() {
            return false;
        }
        let space = self.space;
        let mut chosen: Option<Entry> = None;
        for step in space.steps_into(s) {
            let (l, r) = space.inputs(&step);
            if !(self.solve(l) && r.is_none_or(|r| self.solve(r))) {
                return false;
            }
            self.stats.plans_visited += 1;
            let (left, right) = (self.entry(l), r.map(|r| self.entry(r)));
            let est = space.estimate(&step, left.est, right.map(|e| e.est));
            if chosen.as_ref().is_none_or(|c| est.cost < c.est.cost) {
                let op = space.emit(&step, est, left.clone(), right.cloned());
                chosen = Some(Entry { est, op });
            }
        }
        match chosen {
            Some(best) => {
                self.table.insert(s, best);
                true
            }
            None => false,
        }
    }

    /// Left-deep from the smallest leaf, always taking the extension with
    /// the smallest estimated output.
    fn greedy(&mut self, full: State) -> Result<Entry> {
        let space = self.space;
        let start = (0..self.leaves.len())
            .min_by(|&a, &b| self.leaves[a].est.card.total_cmp(&self.leaves[b].est.card))
            .expect("at least one item");
        let mut cur: State = 1 << start;
        let mut plan = self.leaves[start].clone();
        while cur != full {
            let mut best: Option<(State, S::Step, Est)> = None;
            for item in (0..self.leaves.len()).filter(|&i| cur & (1 << i) == 0) {
                let Some(step) = space.extension(cur, item) else {
                    continue;
                };
                // `cur`'s plan is in neither the leaves nor the table.
                let right = space.inputs(&step).1.map(|r| self.entry(r).est);
                self.stats.plans_visited += 1;
                let est = space.estimate(&step, plan.est, right);
                if best.as_ref().is_none_or(|(_, _, b)| est.card < b.card) {
                    best = Some((cur | 1 << item, step, est));
                }
            }
            let (next, step, est) =
                best.ok_or_else(|| RelGoError::plan("pattern is disconnected"))?;
            let right = space.inputs(&step).1.map(|r| self.entry(r).clone());
            plan = Entry {
                est,
                op: space.emit(&step, est, plan, right),
            };
            cur = next;
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agnostic::RelationSpace;
    use crate::aware::tests::triangle;
    use crate::aware::DecompositionSpace;
    use crate::graph_plan::PatternElem;
    use relgo_glogue::{CostModel, GLogue};
    use relgo_graph::fig2;
    use std::sync::Arc;

    const BUDGET: Duration = Duration::from_secs(5);

    fn covered_edges(plan: &GraphOp) -> usize {
        let bound = plan.bound_elements(&triangle());
        (0..3)
            .filter(|&e| bound.contains(&PatternElem::Edge(e)))
            .count()
    }

    /// Memoized and exhaustive search agree on the best cost, the
    /// exhaustive one evaluating at least as many steps, and greedy still
    /// covers the pattern.
    fn strategies_agree(space: &impl SearchSpace) {
        let (dp, s1) = search(space, Strategy::Memoized, BUDGET).unwrap();
        let (ex, s2) = search(space, Strategy::Exhaustive, BUDGET).unwrap();
        assert!(!s1.timed_out && !s2.timed_out);
        assert!(s1.plans_visited > 0);
        assert!(s2.plans_visited >= s1.plans_visited);
        assert_eq!(dp.annotation().est_cost, ex.annotation().est_cost);
        let (greedy, s0) = search(space, Strategy::Greedy, BUDGET).unwrap();
        assert!(!s0.timed_out);
        assert!(greedy.annotation().est_cost >= dp.annotation().est_cost);
        for plan in [&dp, &ex, &greedy] {
            assert_eq!(covered_edges(plan), 3, "plan: {plan:?}");
        }
    }

    #[test]
    fn dp_and_exhaustive_agree_on_small_patterns() {
        let gl = GLogue::new(Arc::new(fig2::view().0), 3, 1).unwrap();
        let p = triangle();
        for vertex_items in [false, true] {
            strategies_agree(&RelationSpace::new(&p, gl.view(), vertex_items, false).unwrap());
        }
        for allow_ei in [true, false] {
            let cost = CostModel::indexed();
            strategies_agree(&DecompositionSpace::new(&p, &gl, allow_ei, cost).unwrap());
        }
    }

    #[test]
    fn an_exhausted_budget_falls_back_to_greedy_on_either_space() {
        let gl = GLogue::new(Arc::new(fig2::view().0), 3, 1).unwrap();
        let p = triangle();
        let relation = RelationSpace::new(&p, gl.view(), false, false).unwrap();
        let trees = DecompositionSpace::new(&p, &gl, true, CostModel::indexed()).unwrap();
        for strategy in [Strategy::Memoized, Strategy::Exhaustive] {
            let (plan, stats) = search(&relation, strategy, Duration::ZERO).unwrap();
            assert!(stats.timed_out);
            assert_eq!(covered_edges(&plan), 3);
            let (plan, stats) = search(&trees, strategy, Duration::ZERO).unwrap();
            assert!(stats.timed_out);
            assert_eq!(covered_edges(&plan), 3);
        }
    }
}
