//! Prepared-statement handles: the serving fast path above the plan cache.
//!
//! [`Session::run_cached`] still pays per query for parameterization (the
//! template descriptor is a rendered string) and a cache probe before it
//! can rebind. [`Session::prepare`] hoists all of that to preparation time:
//! the handle captures the parameterized template, its [`PlanKey`], and a
//! **pinned** cache entry ([`relgo_cache::PinnedPlan`]), so
//! [`PreparedStatement::execute`] only validates the binding vector against
//! the slot signature and substitutes literals into the pinned skeleton —
//! no parse, no `parameterize`, no cache probe.
//!
//! The pin owns its skeleton: LRU eviction of the underlying cache entry
//! never breaks a handle. Statistics-version invalidation still applies —
//! every execute checks the pin against the cache's version and, when
//! stale, transparently re-optimizes (with the fresh bindings, via
//! [`relgo_core::bind_query`]), re-inserts, and re-pins. The
//! `prepared_hits` / `prepared_invalidations` cache metrics count the two
//! outcomes.

use crate::session::{
    profiled, QueryOptions, QueryOutcome, ResolvedPlan, Session, Snapshot, Source,
};
use parking_lot::Mutex;
use relgo_cache::PinnedPlan;
use relgo_common::morsel::TimeBudget;
use relgo_common::{Result, Value};
use relgo_core::{bind_query, parameterize, rebind_plan, OptimizerMode, PlanKey, SpjmQuery};
use relgo_exec::PlanReport;
use relgo_metrics::trace::{QueryTrace, Stage};
use std::sync::Arc;

/// A prepared query handle bound to a [`Session`]. Cheap to share across
/// serving threads (`&PreparedStatement` is `Send + Sync`); all interior
/// state is the pinned skeleton behind a mutex.
pub struct PreparedStatement<'a> {
    session: &'a Session,
    mode: OptimizerMode,
    /// The instance `prepare` captured (stale re-optimization rebinding
    /// source).
    query: SpjmQuery,
    key: PlanKey,
    slot_sig: String,
    pinned: Mutex<PinnedPlan>,
}

impl Session {
    /// Prepare a query template for repeated execution: parameterize once,
    /// resolve the plan through the cache (probing it — a miss optimizes
    /// and inserts like [`Session::run_cached`]), and pin the skeleton.
    /// Subsequent [`PreparedStatement::execute`] calls only rebind.
    pub fn prepare(&self, query: &SpjmQuery, mode: OptimizerMode) -> Result<PreparedStatement<'_>> {
        let pq = parameterize(query);
        let key = pq.key(mode);
        let cache = self.plan_cache();
        // The snapshot reads the statistics version before the probe, so a
        // commit landing between the probe and the pin leaves the pin born
        // stale (one re-optimize), never wrongly current.
        let snap = self.snapshot();
        let pinned = match cache.lookup(&key) {
            Some((plan, cached_params)) => cache.pin(plan, cached_params, snap.version),
            None => {
                self.plan_on_miss(&snap, query, mode, key.clone(), pq.params)?
                    .0
            }
        };
        Ok(PreparedStatement {
            session: self,
            mode,
            query: query.clone(),
            key,
            slot_sig: pq.slot_sig,
            pinned: Mutex::new(pinned),
        })
    }
}

impl PreparedStatement<'_> {
    /// The optimizer mode the statement was prepared under.
    pub fn mode(&self) -> OptimizerMode {
        self.mode
    }

    /// The plan-cache key of the captured template.
    pub fn key(&self) -> &PlanKey {
        &self.key
    }

    /// The template's parameter-slot signature (one type tag per slot).
    pub fn slot_sig(&self) -> &str {
        &self.slot_sig
    }

    /// Whether the pinned skeleton is still planned under the session's
    /// current statistics version (`false` means the next execute will
    /// transparently re-optimize).
    pub fn is_current(&self) -> bool {
        self.session
            .plan_cache()
            .pin_is_current(&self.pinned.lock())
    }

    /// Resolve one (already validated) binding vector to an executable
    /// plan: the pinned skeleton rebound (the hot path), or a transparent
    /// re-optimize against `snap` when the pin is stale / the rebind is
    /// ambiguous, which also replaces the pin.
    ///
    /// The pin mutex is held only to snapshot (or replace) the pin — the
    /// rebind and any re-optimization run outside it, so concurrent
    /// executes on one shared handle do not serialize on the hot path.
    pub(crate) fn resolve(
        &self,
        snap: &Snapshot<'_>,
        bindings: &[Value],
        trace: &mut QueryTrace,
    ) -> Result<ResolvedPlan> {
        let cache = self.session.plan_cache();
        let snapshot = {
            let pinned = self.pinned.lock();
            cache.pin_is_current(&pinned).then(|| pinned.clone())
        };
        if let Some(pin) = snapshot {
            match trace.time(Stage::Rebind, || {
                rebind_plan(&pin.plan, &pin.params, bindings).map(ResolvedPlan::rebound)
            }) {
                Ok(resolved) => {
                    cache.note_prepared_hit();
                    return Ok(resolved);
                }
                // Ambiguous rebind (slots that shared a value in the pin
                // diverged): fall through to a fresh optimization, like
                // `run_cached` does.
                Err(_) => cache.note_rebind_failure(),
            }
        } else {
            cache.note_prepared_invalidation();
        }
        let query = trace.time(Stage::Parameterize, || bind_query(&self.query, bindings))?;
        let (pin, opt) = trace.time(Stage::Optimize, || {
            self.session
                .plan_on_miss(snap, &query, self.mode, self.key.clone(), bindings.to_vec())
        })?;
        let plan = Arc::clone(&pin.plan);
        *self.pinned.lock() = pin;
        Ok(ResolvedPlan {
            plan,
            opt,
            cached: false,
        })
    }

    /// The pinned-plan twin of [`Session::query`]: execute the statement
    /// with fresh literal bindings (slot order, as produced by
    /// `parameterize` — workload templates expose matching generators via
    /// `QueryTemplate::bindings`) under `options.deadline` /
    /// `options.profile`; `options.plan` does not apply. The hot path is
    /// binding validation + literal rebinding only; `outcome.cached`
    /// reports whether the pinned skeleton served it.
    pub fn query(
        &self,
        bindings: &[Value],
        options: &QueryOptions,
    ) -> Result<(QueryOutcome, Option<PlanReport>)> {
        self.session.pipeline(
            &self.session.snapshot(),
            Source::Statement(self, bindings),
            self.mode,
            options,
        )
    }

    /// [`PreparedStatement::query`] with default options.
    pub fn execute(&self, bindings: &[Value]) -> Result<QueryOutcome> {
        Ok(self.query(bindings, &QueryOptions::default())?.0)
    }

    /// [`PreparedStatement::execute`] with operator-level profiling under
    /// an optional wall-clock budget: result rows are bit-identical to the
    /// unprofiled path, and the returned [`PlanReport`] joins the (possibly
    /// re-optimized) plan's estimates with what execution measured.
    pub fn execute_profiled(
        &self,
        bindings: &[Value],
        deadline: Option<TimeBudget>,
    ) -> Result<(QueryOutcome, PlanReport)> {
        let options = QueryOptions {
            deadline,
            profile: true,
            ..QueryOptions::default()
        };
        self.query(bindings, &options).map(profiled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgo_workloads::templates::snb_templates;

    #[test]
    fn prepared_execute_matches_run_cached_and_skips_parameterize() {
        let (session, schema) = Session::snb(0.03, 42).unwrap();
        let templates = snb_templates(&schema);
        for t in &templates {
            let stmt = session
                .prepare(&t.instantiate(0).unwrap(), OptimizerMode::RelGo)
                .unwrap();
            for draw in [1u64, 9] {
                let bindings = t.bindings(draw).unwrap();
                let out = stmt.execute(&bindings).unwrap();
                assert!(out.cached, "{} draw {draw} served from the pin", t.name());
                assert_eq!(out.opt.plans_visited, 0);
                let reference = session
                    .run_cached(&t.instantiate(draw).unwrap(), OptimizerMode::RelGo)
                    .unwrap();
                assert_eq!(
                    out.table.sorted_rows(),
                    reference.table.sorted_rows(),
                    "{} draw {draw}",
                    t.name()
                );
            }
        }
        let m = session.cache_metrics();
        assert_eq!(m.prepared_hits, 2 * templates.len() as u64, "{m:?}");
        assert_eq!(m.prepared_invalidations, 0, "{m:?}");
    }

    #[test]
    fn execute_rejects_malformed_bindings() {
        let (session, schema) = Session::snb(0.03, 42).unwrap();
        let t = &snb_templates(&schema)[1]; // IC2: slots (Int, Date)
        let stmt = session
            .prepare(&t.instantiate(0).unwrap(), OptimizerMode::RelGo)
            .unwrap();
        assert_eq!(stmt.slot_sig(), "id");
        // The registry hands back the session's own counter.
        let prepared_queries = || {
            let registry = session.metrics().registry();
            let path = [("path", "prepared")];
            registry
                .counter_with("relgo_queries_total", "", &path)
                .get()
        };
        let before = session.cache_metrics();
        assert!(stmt.execute(&[Value::Int(1)]).is_err(), "arity");
        assert!(
            stmt.execute(&[Value::Date(1), Value::Int(2)]).is_err(),
            "types"
        );
        // Rejected bindings are counted nowhere.
        assert_eq!(session.cache_metrics().since(&before).prepared_hits, 0);
        assert_eq!(prepared_queries(), 0);
        assert!(
            stmt.execute(&[Value::Int(1), Value::Date(16_000)])
                .unwrap()
                .cached
        );
        assert_eq!(session.cache_metrics().since(&before).prepared_hits, 1);
        assert_eq!(prepared_queries(), 1);
    }
}
