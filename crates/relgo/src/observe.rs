//! The session's observability layer: one [`SessionMetrics`] registry that
//! every serving path records into, and [`ObservabilitySnapshot`] — the
//! unified point-in-time view merging the registry with the subsystem
//! counters that predate it (plan-cache metrics, WAL stats, the
//! morsel-scheduler globals) plus the current epoch.
//!
//! Recording is hot-path cheap (relaxed atomics via `relgo-metrics`
//! handles); all folding and string rendering happens at snapshot/scrape
//! time. [`ObservabilitySnapshot::render_prometheus`] is what the
//! `relgo-server` `/metrics` endpoint returns.

use relgo_cache::MetricsSnapshot;
use relgo_delta::wal::WalStats;
use relgo_exec::PlanReport;
use relgo_metrics::trace::{Stage, StageTimings};
use relgo_metrics::{Counter, Histogram, Registry, Snapshot};
use std::sync::Arc;
use std::time::Duration;

/// Which serving path answered a query — the `path` label of the
/// `relgo_queries_total` / `relgo_query_seconds` series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPath {
    /// [`crate::Session::run`]: full optimize + execute.
    Run,
    /// [`crate::Session::run_cached`]: parameterize + cache probe + rebind.
    Cached,
    /// [`crate::PreparedStatement::execute`]: pinned-skeleton rebind.
    Prepared,
}

impl QueryPath {
    /// Every path, in declaration order.
    pub const ALL: [QueryPath; 3] = [QueryPath::Run, QueryPath::Cached, QueryPath::Prepared];

    /// The `path` label value.
    pub fn name(self) -> &'static str {
        match self {
            QueryPath::Run => "run",
            QueryPath::Cached => "cached",
            QueryPath::Prepared => "prepared",
        }
    }

    fn idx(self) -> usize {
        match self {
            QueryPath::Run => 0,
            QueryPath::Cached => 1,
            QueryPath::Prepared => 2,
        }
    }
}

/// The per-session metrics registry with pre-registered typed handles for
/// every hot path. One instance lives in each [`crate::Session`]; the
/// server shares the same registry for its HTTP-edge series so one scrape
/// covers the whole process.
#[derive(Debug)]
pub struct SessionMetrics {
    registry: Arc<Registry>,
    queries: [Arc<Counter>; 3],
    query_seconds: [Arc<Histogram>; 3],
    stage_seconds: [Arc<Histogram>; 9],
    ingest_commits: Arc<Counter>,
    ingest_conflicts: Arc<Counter>,
    ingest_rows: Arc<Counter>,
    ingest_commit_seconds: Arc<Histogram>,
    recovery_replayed: Arc<Counter>,
    recoveries: Arc<Counter>,
    recovery_checkpoint_loads: Arc<Counter>,
    recovery_checkpoint_fallbacks: Arc<Counter>,
    checkpoints: Arc<Counter>,
    checkpoint_failures: Arc<Counter>,
    checkpoint_seconds: Arc<Histogram>,
}

impl Default for SessionMetrics {
    fn default() -> Self {
        SessionMetrics::new()
    }
}

impl SessionMetrics {
    /// A fresh registry with every session-level series registered.
    pub fn new() -> SessionMetrics {
        let registry = Arc::new(Registry::new());
        let queries = QueryPath::ALL.map(|p| {
            registry.counter_with(
                "relgo_queries_total",
                "Queries completed, by serving path",
                &[("path", p.name())],
            )
        });
        let query_seconds = QueryPath::ALL.map(|p| {
            registry.histogram_with(
                "relgo_query_seconds",
                "End-to-end query latency, by serving path",
                &[("path", p.name())],
            )
        });
        let stage_seconds = Stage::ALL.map(|s| {
            registry.histogram_with(
                "relgo_query_stage_seconds",
                "Per-stage query-lifecycle latency",
                &[("stage", s.name())],
            )
        });
        let ingest_commits = registry.counter(
            "relgo_ingest_commits_total",
            "Ingest batches committed (epoch publishes)",
        );
        let ingest_conflicts = registry.counter(
            "relgo_ingest_conflicts_total",
            "Commits rejected by first-committer-wins validation (retryable)",
        );
        let ingest_rows = registry.counter(
            "relgo_ingest_rows_total",
            "Rows committed by ingest batches (inserts + deletes)",
        );
        let ingest_commit_seconds = registry.histogram(
            "relgo_ingest_commit_seconds",
            "Ingest commit latency (validate + merge + stats + publish + WAL)",
        );
        let recovery_replayed = registry.counter(
            "relgo_recovery_replayed_total",
            "WAL records replayed during crash recovery",
        );
        let recoveries = registry.counter(
            "relgo_recoveries_total",
            "Durable session opens that ran crash recovery",
        );
        let recovery_checkpoint_loads = registry.counter(
            "relgo_recovery_checkpoint_loads_total",
            "Recoveries that started from an on-disk checkpoint",
        );
        let recovery_checkpoint_fallbacks = registry.counter(
            "relgo_recovery_checkpoint_fallbacks_total",
            "Corrupt checkpoint files skipped during recovery (torn-newest fallback)",
        );
        let checkpoints = registry.counter(
            "relgo_checkpoints_total",
            "Checkpoints written (snapshot + WAL compaction + retention)",
        );
        let checkpoint_failures = registry.counter(
            "relgo_checkpoint_failures_total",
            "Checkpoint attempts that failed (the WAL still covers the data)",
        );
        let checkpoint_seconds = registry.histogram(
            "relgo_checkpoint_seconds",
            "Checkpoint latency (snapshot encode + fsync + rename + compaction)",
        );
        SessionMetrics {
            registry,
            queries,
            query_seconds,
            stage_seconds,
            ingest_commits,
            ingest_conflicts,
            ingest_rows,
            ingest_commit_seconds,
            recovery_replayed,
            recoveries,
            recovery_checkpoint_loads,
            recovery_checkpoint_fallbacks,
            checkpoints,
            checkpoint_failures,
            checkpoint_seconds,
        }
    }

    /// The underlying registry (the server registers its HTTP-edge series
    /// here so one scrape covers session + edge).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Record one completed query: bumps the path counter, records the
    /// end-to-end latency, and charges every traced stage to its histogram.
    pub fn record_query(&self, path: QueryPath, timings: &StageTimings) {
        self.queries[path.idx()].inc();
        self.query_seconds[path.idx()].record(timings.total);
        for (stage, d) in timings.nonzero() {
            let i = Stage::ALL
                .iter()
                .position(|s| *s == stage)
                .expect("known stage");
            self.stage_seconds[i].record(d);
        }
    }

    /// Charge one externally measured duration to a stage histogram — the
    /// hook for stages that happen outside a query trace (the serving
    /// edge's response serialization, the ingest pipeline's WAL append).
    pub fn record_stage(&self, stage: Stage, d: Duration) {
        if d.is_zero() {
            return;
        }
        let i = Stage::ALL
            .iter()
            .position(|s| *s == stage)
            .expect("known stage");
        self.stage_seconds[i].record(d);
    }

    /// Record one profiled plan execution: per-operator-kind wall time and
    /// row histograms, plus the per-operator Q-error distribution.
    ///
    /// `relgo_operator_rows` and `relgo_qerror` reuse the registry's
    /// histogram type with non-latency units: row counts record the raw row
    /// number, and Q-error records fixed-point `q × 1000` (so `q = 1.0` —
    /// a perfect estimate — lands as 1000). Series are registered lazily on
    /// first profiled query, keyed by operator kind.
    pub fn record_profile(&self, report: &PlanReport) {
        for op in &report.ops {
            self.registry
                .histogram_with(
                    "relgo_operator_seconds",
                    "Per-operator execution wall time, by operator kind",
                    &[("op", op.meta.kind)],
                )
                .record(op.prof.elapsed);
            self.registry
                .histogram_with(
                    "relgo_operator_rows",
                    "Per-operator row counts, by operator kind and direction",
                    &[("op", op.meta.kind), ("dir", "in")],
                )
                .record_us(op.prof.rows_in);
            self.registry
                .histogram_with(
                    "relgo_operator_rows",
                    "Per-operator row counts, by operator kind and direction",
                    &[("op", op.meta.kind), ("dir", "out")],
                )
                .record_us(op.prof.rows_out);
            if let Some(q) = op.qerror() {
                self.registry
                    .histogram_with(
                        "relgo_qerror",
                        "Per-operator Q-error (max(est/act, act/est)), fixed-point x1000",
                        &[],
                    )
                    .record_us((q * 1000.0).round() as u64);
            }
        }
    }

    /// Record one committed ingest batch.
    pub(crate) fn record_ingest_commit(&self, rows: usize, commit_time: Duration) {
        self.ingest_commits.inc();
        self.ingest_rows.add(rows as u64);
        self.ingest_commit_seconds.record(commit_time);
    }

    /// Record a first-committer-wins loss (retryable conflict).
    pub(crate) fn record_ingest_conflict(&self) {
        self.ingest_conflicts.inc();
    }

    /// Record one WAL record replayed by crash recovery.
    pub(crate) fn record_recovery_replay(&self, rows: usize, commit_time: Duration) {
        self.recovery_replayed.inc();
        // Replayed rows count as ingested rows (they re-run the commit
        // pipeline), but not as live commits.
        self.ingest_rows.add(rows as u64);
        self.ingest_commit_seconds.record(commit_time);
    }

    /// Record one crash recovery (durable open): whether it started from a
    /// checkpoint, and how many corrupt checkpoint files it skipped.
    pub(crate) fn record_recovery(&self, checkpoint_loaded: bool, fallbacks: usize) {
        self.recoveries.inc();
        if checkpoint_loaded {
            self.recovery_checkpoint_loads.inc();
        }
        self.recovery_checkpoint_fallbacks.add(fallbacks as u64);
    }

    /// Record one completed checkpoint.
    pub(crate) fn record_checkpoint(&self, elapsed: Duration) {
        self.checkpoints.inc();
        self.checkpoint_seconds.record(elapsed);
    }

    /// Record a failed checkpoint attempt (the WAL keeps covering the
    /// data; only recovery time suffers until a checkpoint succeeds).
    pub(crate) fn record_checkpoint_failure(&self) {
        self.checkpoint_failures.inc();
    }

    /// Total ingest conflicts recorded so far.
    pub fn ingest_conflicts(&self) -> u64 {
        self.ingest_conflicts.get()
    }

    /// Total ingest commits recorded so far.
    pub fn ingest_commits(&self) -> u64 {
        self.ingest_commits.get()
    }

    /// Total checkpoints recorded so far.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints.get()
    }
}

/// The unified observability view of one [`crate::Session`]: the metrics
/// registry with every pre-registry subsystem counter (epoch, plan cache,
/// WAL, checkpoint, morsel scheduler) folded in as additional series at
/// snapshot time.
#[derive(Debug, Clone)]
pub struct ObservabilitySnapshot {
    /// The registry snapshot, subsystem series included.
    pub registry: Snapshot,
}

impl ObservabilitySnapshot {
    /// Build the merged snapshot (called by
    /// [`crate::Session::observability_snapshot`]). `index_bytes` is the
    /// current graph index's `GraphIndex::built_bytes`.
    pub(crate) fn collect(
        metrics: &SessionMetrics,
        epoch: u64,
        cache: MetricsSnapshot,
        wal: Option<WalStats>,
        checkpoint_epoch: u64,
        wal_bytes_since_checkpoint: Option<u64>,
        index_bytes: Option<[(&str, usize); 3]>,
    ) -> ObservabilitySnapshot {
        let morsels = relgo_common::morsel::morsel_counters();
        let mut registry = metrics.registry.snapshot();
        registry.push_gauge(
            "relgo_epoch",
            "Current data epoch (0 at open, +1 per committed ingest batch)",
            &[],
            epoch as i64,
        );
        registry.push_gauge(
            "relgo_checkpoint_epoch",
            "Epoch of the newest durable checkpoint (0 when none exists)",
            &[],
            checkpoint_epoch as i64,
        );
        registry.push_gauge(
            "relgo_checkpoint_age_epochs",
            "Commits published since the last checkpoint (recovery replay bound)",
            &[],
            epoch.saturating_sub(checkpoint_epoch) as i64,
        );
        if let Some(bytes) = wal_bytes_since_checkpoint {
            registry.push_gauge(
                "relgo_wal_bytes_since_checkpoint",
                "Live WAL bytes on disk (the log is truncated at each checkpoint)",
                &[],
                bytes.min(i64::MAX as u64) as i64,
            );
        }
        for (structure, bytes) in index_bytes.into_iter().flatten() {
            registry.push_gauge(
                "relgo_graph_index_bytes",
                "Resident bytes of the graph index's structures built so far (each on first read)",
                &[("structure", structure)],
                bytes as i64,
            );
        }
        for (name, value) in cache.counters() {
            registry.push_counter(
                &format!("relgo_plan_cache_{name}_total"),
                "Plan-cache counter (see relgo-cache MetricsSnapshot)",
                &[],
                value,
            );
        }
        if let Some(wal) = &wal {
            for (name, value) in wal.counters() {
                registry.push_counter(
                    &format!("relgo_wal_{name}_total"),
                    "Write-ahead-log counter (see relgo-delta WalStats)",
                    &[],
                    value,
                );
            }
        }
        registry.push_counter(
            "relgo_morsel_runs_total",
            "Morsel-scheduler invocations, by dispatch path",
            &[("path", "serial")],
            morsels.serial_runs,
        );
        registry.push_counter(
            "relgo_morsel_runs_total",
            "Morsel-scheduler invocations, by dispatch path",
            &[("path", "parallel")],
            morsels.parallel_runs,
        );
        registry.push_counter(
            "relgo_morsels_dispatched_total",
            "Morsels dispatched across all scheduler invocations",
            &[],
            morsels.morsels,
        );
        ObservabilitySnapshot { registry }
    }

    /// The full Prometheus text-format exposition (what `GET /metrics`
    /// serves).
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// Distinct series names in the exposition (acceptance floor: ≥ 12).
    pub fn series_names(&self) -> Vec<&str> {
        self.registry.names()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgo_metrics::trace::QueryTrace;

    #[test]
    fn record_query_touches_path_and_stage_series() {
        let m = SessionMetrics::new();
        let mut t = QueryTrace::start();
        t.add(Stage::Optimize, Duration::from_micros(300));
        t.add(Stage::Execute, Duration::from_micros(700));
        m.record_query(QueryPath::Cached, &t.finish());
        let snap = m.registry().snapshot();
        assert_eq!(snap.counter_sum("relgo_queries_total"), 1);
        match snap.get("relgo_query_seconds", &[("path", "cached")]) {
            Some(relgo_metrics::SampleValue::Histogram(h)) => assert_eq!(h.count, 1),
            other => panic!("missing histogram: {other:?}"),
        }
        match snap.get("relgo_query_stage_seconds", &[("stage", "execute")]) {
            Some(relgo_metrics::SampleValue::Histogram(h)) => {
                assert_eq!(h.count, 1);
                assert_eq!(h.sum_us, 700);
            }
            other => panic!("missing stage histogram: {other:?}"),
        }
    }

    #[test]
    fn snapshot_folds_subsystem_counters_and_renders() {
        let m = SessionMetrics::new();
        m.record_ingest_commit(5, Duration::from_micros(100));
        m.record_ingest_conflict();
        let cache = MetricsSnapshot {
            hits: 3,
            ..MetricsSnapshot::default()
        };
        let wal = Some(WalStats {
            records: 2,
            flushes: 1,
            syncs: 1,
            bytes: 64,
        });
        let index = [("ev", 0), ("out", 96), ("in", 48)];
        let snap = ObservabilitySnapshot::collect(&m, 7, cache, wal, 5, Some(64), Some(index));
        let names = snap.series_names();
        assert!(names.len() >= 12, "{} series: {names:?}", names.len());
        for required in [
            "relgo_queries_total",
            "relgo_query_seconds",
            "relgo_query_stage_seconds",
            "relgo_ingest_commits_total",
            "relgo_ingest_conflicts_total",
            "relgo_ingest_rows_total",
            "relgo_ingest_commit_seconds",
            "relgo_epoch",
            "relgo_checkpoint_epoch",
            "relgo_checkpoint_age_epochs",
            "relgo_wal_bytes_since_checkpoint",
            "relgo_plan_cache_hits_total",
            "relgo_wal_records_total",
            "relgo_morsel_runs_total",
            "relgo_morsels_dispatched_total",
            "relgo_graph_index_bytes",
        ] {
            assert!(names.contains(&required), "missing {required}: {names:?}");
        }
        let text = snap.render_prometheus();
        relgo_metrics::text::validate(&text).expect("valid exposition format");
        let scrape = relgo_metrics::text::parse(&text).unwrap();
        assert_eq!(scrape.value("relgo_epoch", &[]), Some(7.0));
        assert_eq!(scrape.value("relgo_checkpoint_epoch", &[]), Some(5.0));
        assert_eq!(scrape.value("relgo_checkpoint_age_epochs", &[]), Some(2.0));
        assert_eq!(
            scrape.value("relgo_wal_bytes_since_checkpoint", &[]),
            Some(64.0)
        );
        assert_eq!(scrape.value("relgo_plan_cache_hits_total", &[]), Some(3.0));
        assert_eq!(scrape.value("relgo_wal_records_total", &[]), Some(2.0));
        assert_eq!(scrape.value("relgo_ingest_rows_total", &[]), Some(5.0));
        let structure = |s| scrape.value("relgo_graph_index_bytes", &[("structure", s)]);
        assert_eq!(structure("out"), Some(96.0));
    }
}
