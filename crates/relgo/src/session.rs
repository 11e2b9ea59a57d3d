//! The end-to-end session API: data + mapping → optimized, executed SPJM
//! queries under any of the paper's compared systems.
//!
//! ## Epoch-stamped snapshots
//!
//! All data-dependent state — catalog, graph view (with its index), and
//! GLogue statistics — lives in one immutable `SessionState` behind an
//! epoch counter. Queries pin the current state once and run entirely
//! against it, so a concurrent ingest commit ([`Session::begin_ingest`])
//! never tears a query: writers build the *next* state aside and publish it
//! with a single pointer swap. [`Session::snapshot`] exposes the same
//! mechanism to callers that want repeatable reads across several queries.

use crate::ingest::{CommitError, IngestBatch};
use crate::observe::{ObservabilitySnapshot, QueryPath, SessionMetrics};
use crate::prepared::PreparedStatement;
use parking_lot::{Mutex, RwLock};
use relgo_cache::{CacheConfig, MetricsSnapshot, PinnedPlan, PlanCache};
use relgo_common::morsel::TimeBudget;
use relgo_common::{RelGoError, Result, Value};
use relgo_core::{
    optimize, parameterize, rebind_plan, validate_bindings, OptStats, OptimizerMode, PhysicalPlan,
    PlanKey, PlannerContext, SpjmQuery,
};
use relgo_datagen::{generate_imdb, generate_snb, ImdbParams, SnbParams};
use relgo_delta::checkpoint::{RejectedCheckpoint, RetentionReport};
use relgo_delta::wal::{Wal, WalCompaction, WalOptions, WalStats};
use relgo_exec::{execute_plan_with, ExecConfig, PlanReport, ProfileMode};
use relgo_glogue::GLogue;
use relgo_graph::{GraphView, RGMapping};
use relgo_metrics::trace::{QueryTrace, Stage, StageTimings};
use relgo_storage::{Database, Table, WriteSet};
use relgo_workloads::job_queries::ImdbSchema;
use relgo_workloads::snb_queries::SnbSchema;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How many committed write-sets the session retains for first-committer-
/// wins validation. A batch whose base epoch predates the retained window
/// is conservatively rejected ([`CommitError::StaleBase`]).
const COMMIT_LOG_CAP: usize = 1024;

/// GLogue's exact-counting threshold: patterns of up to `k` vertices are
/// counted exactly (the paper's constant).
const GLOGUE_K: usize = 3;

/// Session construction options.
#[derive(Debug, Clone, Copy)]
pub struct SessionOptions {
    /// Optimizer time budget (the paper's 10-minute cap, scaled down).
    pub opt_timeout: Duration,
    /// Intermediate-result row budget (models OOM).
    pub row_limit: usize,
    /// Plan-cache shard count (`run_cached`).
    pub plan_cache_shards: usize,
    /// Plan-cache total entry capacity across shards (`run_cached`).
    pub plan_cache_capacity: usize,
    /// Intra-query worker threads: morsel-parallel graph operators and
    /// seed-partitioned GLogue counting (1 = serial; parallel results are
    /// bit-identical to serial). Defaults to `RELGO_THREADS` when set.
    pub threads: usize,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            opt_timeout: Duration::from_secs(10),
            row_limit: 50_000_000,
            plan_cache_shards: 8,
            plan_cache_capacity: 1024,
            threads: relgo_common::morsel::threads_from_env().unwrap_or(1),
        }
    }
}

/// The result of one end-to-end query run.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The query result.
    pub table: Table,
    /// The physical plan that produced it.
    pub plan: Arc<PhysicalPlan>,
    /// Optimizer statistics (plans visited, timeout flag; zero when a
    /// cached or pinned skeleton served the query). `elapsed` is the wall
    /// time of resolving the plan, whichever way: optimize, or
    /// parameterize + probe + rebind, or validate + rebind.
    pub opt: OptStats,
    /// Execution wall time.
    pub exec_time: Duration,
    /// Whether the plan came from the plan cache (`run_cached` hit) or a
    /// prepared statement's pin.
    pub cached: bool,
    /// The data epoch the query planned and executed against — the epoch
    /// pinned when it entered the pipeline, whatever committed since.
    pub epoch: u64,
    /// Per-stage lifecycle timings of this query (also recorded into the
    /// session's metrics registry).
    pub trace: StageTimings,
}

impl QueryOutcome {
    /// End-to-end time: optimization + execution (the paper's reporting
    /// unit from §5.2 onward).
    pub fn e2e(&self) -> Duration {
        self.opt.elapsed + self.exec_time
    }
}

/// The result of [`Session::explain_analyze`]: the executed plan rendered
/// with estimated vs actual rows and per-operator Q-error, plus the raw
/// per-operator report and the ordinary query outcome. The result table is
/// bit-identical to an unprofiled [`Session::run`] of the same query.
#[derive(Debug, Clone)]
pub struct ExplainAnalyze {
    /// The plan tree, one line per operator, each suffixed with
    /// `[op=N est=E act=A q=Q]`.
    pub rendered: String,
    /// Plan-time estimates joined with run-time measurements, by pre-order
    /// operator id.
    pub report: PlanReport,
    /// The ordinary outcome (result table, optimizer stats, timings).
    pub outcome: QueryOutcome,
}

impl ExplainAnalyze {
    /// Render a profiled outcome: the executed plan's tree with each
    /// operator's line suffixed by its row of `report`.
    pub fn render(outcome: QueryOutcome, report: PlanReport) -> ExplainAnalyze {
        ExplainAnalyze {
            rendered: outcome.plan.explain_annotated(|id| report.annotation(id)),
            report,
            outcome,
        }
    }
}

/// Where [`Session::query`] gets its plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanSource {
    /// Optimize this instance from scratch ([`Session::run`]).
    #[default]
    Fresh,
    /// Parameterize, probe the plan cache and rebind; optimize and insert
    /// on a miss ([`Session::run_cached`]).
    Cached,
}

/// The per-call options of the one query entry ([`Session::query`],
/// [`Snapshot::query`], [`PreparedStatement::query`]). The default is what
/// [`Session::run`] does: fresh plan, no deadline, no profiling.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryOptions {
    /// Where the plan comes from. A prepared statement's plan is always
    /// its pinned skeleton, so [`PreparedStatement::query`] does not read
    /// this field.
    pub plan: PlanSource,
    /// Wall-clock budget: execution checks it at every morsel boundary and
    /// aborts with `DeadlineExceeded` on expiry (the serving edge maps that
    /// to `503` + `Retry-After`). Construct the [`TimeBudget`] where the
    /// request enters the system so queueing and planning count against it.
    pub deadline: Option<TimeBudget>,
    /// Collect the per-operator [`PlanReport`] (result rows are
    /// bit-identical either way).
    pub profile: bool,
}

/// What the pipeline plans from: an ad-hoc query, or a prepared statement
/// with this call's bindings.
pub(crate) enum Source<'a> {
    Query(&'a SpjmQuery),
    Statement(&'a PreparedStatement<'a>, &'a [Value]),
}

/// A plan the pipeline resolved, before execution.
pub(crate) struct ResolvedPlan {
    pub(crate) plan: Arc<PhysicalPlan>,
    /// The optimizer's counters (zero when no optimizer ran); the pipeline
    /// overwrites `elapsed` with the whole resolution's wall time.
    pub(crate) opt: OptStats,
    /// Whether a cached or pinned skeleton served it.
    pub(crate) cached: bool,
}

impl ResolvedPlan {
    /// A cached or pinned skeleton rebound with this instance's literals.
    pub(crate) fn rebound(plan: PhysicalPlan) -> ResolvedPlan {
        ResolvedPlan {
            plan: Arc::new(plan),
            opt: OptStats::default(),
            cached: true,
        }
    }
}

/// One immutable epoch of session state: everything a query needs, pinned
/// together so readers see a consistent version while writers publish the
/// next one.
pub(crate) struct SessionState {
    pub(crate) epoch: u64,
    pub(crate) db: Arc<Database>,
    pub(crate) view: Arc<GraphView>,
    pub(crate) glogue: Arc<GLogue>,
}

/// An open database + property-graph session.
///
/// All data-dependent state sits in an epoch-stamped `SessionState`
/// behind a lock, so ingest commits work through `&self`: a serving setup
/// keeps plan-cache traffic and prepared-statement handles live across them
/// (the handles notice the statistics-version bump on their next execute
/// and transparently re-optimize).
pub struct Session {
    state: RwLock<Arc<SessionState>>,
    options: SessionOptions,
    cache: Arc<PlanCache>,
    /// Serializes the validate-and-publish critical section of commits.
    /// [`IngestBatch`]es stage *outside* this lock — only their commit
    /// takes it.
    pub(crate) write_lock: Mutex<()>,
    /// The write-sets of recent commits, newest at the back, for
    /// first-committer-wins validation (bounded by [`COMMIT_LOG_CAP`]).
    committed: Mutex<VecDeque<(u64, WriteSet)>>,
    /// The write-ahead log of a durable session ([`Session::open_durable`]).
    /// Installed *after* recovery replay so replay does not re-append the
    /// records it is replaying.
    wal: OnceLock<Wal>,
    /// Serializes checkpoints against each other. Commits proceed
    /// concurrently — a checkpoint snapshots an immutable pinned state and
    /// never takes `write_lock`.
    ckpt_lock: Mutex<()>,
    /// Epoch of the newest durable checkpoint (0 = none). Drives the
    /// checkpoint-age gauge.
    last_checkpoint_epoch: AtomicU64,
    /// The session's metrics registry: every serving path records into it,
    /// and [`Session::observability_snapshot`] folds the subsystem counters
    /// around it.
    metrics: Arc<SessionMetrics>,
}

/// What [`Session::open_durable`] replayed from the write-ahead log.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryReport {
    /// Intact WAL records replayed (one per recovered epoch).
    pub records: usize,
    /// The session's epoch after replay (= `records` on a fresh base).
    pub epoch: u64,
    /// Bytes of valid log retained.
    pub bytes: u64,
    /// Bytes of torn tail truncated away (0 for a clean shutdown).
    pub truncated_bytes: u64,
    /// Rows (inserts + deletes) re-applied during replay.
    pub rows_replayed: usize,
    /// Wall time of the replay (merge + view/index + statistics per epoch).
    pub replay_time: Duration,
    /// Whether recovery started from an on-disk checkpoint instead of the
    /// caller's base database.
    pub checkpoint_loaded: bool,
    /// Epoch of the checkpoint recovery started from (0 when none).
    pub checkpoint_epoch: u64,
    /// Corrupt or unreadable newer checkpoint files skipped before a valid
    /// one loaded — the fallback path (0 on the happy path).
    pub checkpoint_fallbacks: usize,
    /// WAL records skipped because the checkpoint already captured them (a
    /// crash between checkpoint rename and WAL truncation leaves these).
    pub skipped_records: usize,
}

/// What one [`Session::checkpoint`] call did.
#[derive(Debug, Clone)]
pub struct CheckpointReport {
    /// The epoch the snapshot captured.
    pub epoch: u64,
    /// Checkpoint file size in bytes.
    pub bytes: u64,
    /// Final path of the checkpoint file.
    pub path: PathBuf,
    /// What log compaction dropped and kept behind the checkpoint.
    pub wal: WalCompaction,
    /// What retention did with superseded checkpoint files.
    pub retention: RetentionReport,
    /// Wall time of the whole checkpoint (snapshot encode + write + fsync +
    /// rename + compaction + retention).
    pub elapsed: Duration,
}

impl Session {
    /// Open a session over `db` with the given RGMapping: builds the graph
    /// view, the GRainDB-style graph index, and the GLogue statistics.
    pub fn open(db: Database, mapping: RGMapping) -> Result<Session> {
        Session::open_with(db, mapping, SessionOptions::default())
    }

    /// Open with explicit options.
    pub fn open_with(
        mut db: Database,
        mapping: RGMapping,
        options: SessionOptions,
    ) -> Result<Session> {
        let mut view = GraphView::build(&mut db, mapping)?;
        view.build_index()?;
        let view = Arc::new(view);
        let glogue = Arc::new(GLogue::with_threads(
            Arc::clone(&view),
            GLOGUE_K,
            1,
            options.threads,
        )?);
        let cache = Arc::new(PlanCache::new(CacheConfig {
            shards: options.plan_cache_shards,
            capacity: options.plan_cache_capacity,
        }));
        Ok(Session {
            state: RwLock::new(Arc::new(SessionState {
                epoch: 0,
                db: Arc::new(db),
                view,
                glogue,
            })),
            options,
            cache,
            write_lock: Mutex::new(()),
            committed: Mutex::new(VecDeque::new()),
            wal: OnceLock::new(),
            ckpt_lock: Mutex::new(()),
            last_checkpoint_epoch: AtomicU64::new(0),
            metrics: Arc::new(SessionMetrics::new()),
        })
    }

    /// Open a *durable* session: like [`Session::open_with`], but every
    /// ingest commit is additionally appended to the write-ahead log at
    /// `wal_path` (group-committed and fsynced through the seam
    /// `wal_options` names, the filesystem by default) before
    /// [`IngestBatch::commit`] returns.
    ///
    /// If the log already holds records — the session crashed or exited
    /// after commits — they are replayed first, epoch by epoch, through the
    /// same merge/view/statistics pipeline a live commit runs, and the
    /// returned [`RecoveryReport`] says what was restored. A torn tail from
    /// a crash mid-flush is truncated away: recovery restores the longest
    /// durable prefix of the commit history, never a partial commit.
    ///
    /// `db`/`mapping` must be the same base the log was written against
    /// (the log stores deltas, not the base); a WAL whose first record does
    /// not continue the base's epoch is rejected.
    ///
    /// When checkpoints exist next to the log ([`Session::checkpoint`]
    /// writes them as `<wal>.ckpt.<epoch>` siblings), recovery loads the
    /// newest valid one instead of starting from `db` and replays only the
    /// WAL tail behind it — bounded restart. Records the loaded checkpoint
    /// already covers are skipped, so a crash between a checkpoint's rename
    /// and its WAL truncation recovers identically. A corrupt or unreadable
    /// newest checkpoint falls back to the previous one only while the log
    /// still holds the epochs in between (the log is compacted behind each
    /// checkpoint, so usually it does not): recovery that would end below
    /// a rejected checkpoint's epoch fails with [`RelGoError::DataLoss`]
    /// naming the file and the missing epochs, instead of dropping
    /// acknowledged commits.
    pub fn open_durable(
        db: Database,
        mapping: RGMapping,
        options: SessionOptions,
        wal_path: impl AsRef<Path>,
        wal_options: WalOptions,
    ) -> Result<(Session, RecoveryReport)> {
        let (wal, recovered) = Wal::open(wal_path, wal_options)?;
        let (loaded, rejected) = wal.checkpoints().load_newest()?;
        let checkpoint_loaded = loaded.is_some();
        let (base_db, checkpoint_epoch) = match loaded {
            Some(l) => (l.db, l.epoch),
            None => (db, 0),
        };
        let session = Session::open_with(base_db, mapping, options)?;
        if checkpoint_epoch > 0 {
            // Stamp the snapshot's epoch before replay: the WAL tail
            // continues from the checkpoint, not from 0.
            let st = session.state();
            session.publish(SessionState {
                epoch: checkpoint_epoch,
                db: Arc::clone(&st.db),
                view: Arc::clone(&st.view),
                glogue: Arc::clone(&st.glogue),
            });
        }
        session
            .last_checkpoint_epoch
            .store(checkpoint_epoch, Ordering::Release);
        let replay_start = Instant::now();
        let mut records = 0usize;
        let mut skipped_records = 0usize;
        let mut rows_replayed = 0;
        for record in recovered.records {
            if record.epoch <= checkpoint_epoch {
                // The checkpoint already captures this commit; it survived
                // on disk because the crash hit between the checkpoint
                // rename and the log truncation.
                skipped_records += 1;
                continue;
            }
            if record.epoch != session.epoch() + 1 {
                return Err(lost_epochs(&rejected, session.epoch()).unwrap_or_else(|| {
                    RelGoError::execution(format!(
                        "wal replay discontinuity: record for epoch {} cannot \
                         follow epoch {} (wrong base database?)",
                        record.epoch,
                        session.epoch()
                    ))
                }));
            }
            records += 1;
            rows_replayed += record.delta.inserted_rows() + record.delta.deleted_rows();
            session
                .commit_delta(record.delta, None)
                .map_err(RelGoError::from)?;
        }
        if let Some(lost) = lost_epochs(&rejected, session.epoch()) {
            return Err(lost);
        }
        let checkpoint_fallbacks = rejected.len();
        let report = RecoveryReport {
            records,
            epoch: session.epoch(),
            bytes: recovered.bytes,
            truncated_bytes: recovered.truncated_bytes,
            rows_replayed,
            replay_time: replay_start.elapsed(),
            checkpoint_loaded,
            checkpoint_epoch,
            checkpoint_fallbacks,
            skipped_records,
        };
        session
            .metrics
            .record_recovery(checkpoint_loaded, checkpoint_fallbacks);
        // Install the log only now: replay above must not re-append the
        // records it replays, while commits from here on append normally.
        let _ = session.wal.set(wal);
        Ok((session, report))
    }

    /// [`Session::open_durable`] with default options: the one-call crash
    /// recovery path. Replays the log at `wal_path` over the base
    /// `db`/`mapping` and resumes durable serving.
    pub fn recover(
        db: Database,
        mapping: RGMapping,
        wal_path: impl AsRef<Path>,
    ) -> Result<(Session, RecoveryReport)> {
        Session::open_durable(
            db,
            mapping,
            SessionOptions::default(),
            wal_path,
            WalOptions::default(),
        )
    }

    /// Whether commits are written ahead to a log.
    pub fn is_durable(&self) -> bool {
        self.wal.get().is_some()
    }

    /// WAL counters of a durable session (`None` otherwise). `syncs <
    /// records` under concurrent writers is group commit working.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal.get().map(Wal::stats)
    }

    /// The write-ahead log, when durable.
    pub(crate) fn wal(&self) -> Option<&Wal> {
        self.wal.get()
    }

    /// Epoch of the newest durable checkpoint (0 when none exists).
    pub fn last_checkpoint_epoch(&self) -> u64 {
        self.last_checkpoint_epoch.load(Ordering::Acquire)
    }

    /// WAL bytes accumulated since the last checkpoint (`None` when the
    /// session is not durable). Compaction truncates the log behind each
    /// checkpoint, so the live log size *is* the bytes-since measure.
    pub fn wal_bytes_since_checkpoint(&self) -> Option<u64> {
        self.wal().map(Wal::disk_len)
    }

    /// Checkpoint the current epoch: snapshot every table + key metadata to
    /// a CRC-checked sibling file of the WAL (write-to-temp + fsync +
    /// atomic rename + directory fsync — a crash mid-checkpoint leaves the
    /// old checkpoint set intact), then compact the log behind it and
    /// retire superseded checkpoints, keeping the newest two. A snapshot
    /// that fails to become durable fails the checkpoint before the log is
    /// compacted.
    ///
    /// Commits proceed concurrently — the snapshot pins one immutable
    /// published state and never blocks writers. Requires a durable
    /// session.
    pub fn checkpoint(&self) -> Result<CheckpointReport> {
        let _ckpt = self.ckpt_lock.lock();
        let result = self.checkpoint_locked();
        match &result {
            Ok(report) => self.metrics.record_checkpoint(report.elapsed),
            Err(_) => self.metrics.record_checkpoint_failure(),
        }
        result
    }

    /// The checkpoint body; runs with `ckpt_lock` held.
    fn checkpoint_locked(&self) -> Result<CheckpointReport> {
        let Some(wal) = self.wal() else {
            return Err(RelGoError::execution(
                "checkpoint requires a durable session (open the session \
                 with open_durable/recover)",
            ));
        };
        let start = Instant::now();
        let state = self.state();
        let store = wal.checkpoints();
        let written = store.write(state.epoch, &state.db)?;
        // The snapshot is durable; everything at or below its epoch is now
        // redundant in the log. A crash before (or during) this truncation
        // is fine — recovery skips records the checkpoint covers.
        let compaction = wal.compact_through(state.epoch)?;
        let retention = store.retain(2)?;
        self.last_checkpoint_epoch
            .fetch_max(state.epoch, Ordering::AcqRel);
        Ok(CheckpointReport {
            epoch: written.epoch,
            bytes: written.bytes,
            path: written.path,
            wal: compaction,
            retention,
            elapsed: start.elapsed(),
        })
    }

    /// First-committer-wins validation: reject iff some commit that
    /// published after `base` wrote a primary key in `ws`. Called with the
    /// write lock held (`current` is the locked-in current epoch).
    pub(crate) fn validate_write_set(
        &self,
        base: u64,
        ws: &WriteSet,
        current: u64,
    ) -> std::result::Result<(), CommitError> {
        if base >= current {
            return Ok(()); // nothing published since the batch began
        }
        let log = self.committed.lock();
        // The log covers bases from (front.epoch - 1) up: a batch based
        // before that window may conflict with an evicted write-set, so it
        // is conservatively rejected rather than silently admitted.
        let retained_from = log.front().map_or(current, |(e, _)| e - 1);
        if base < retained_from {
            return Err(CommitError::StaleBase {
                base_epoch: base,
                retained_from,
            });
        }
        for (epoch, committed) in log.iter().filter(|(e, _)| *e > base) {
            if let Some((table, key)) = ws.overlap(committed) {
                return Err(CommitError::Conflict {
                    table,
                    key,
                    committed_epoch: *epoch,
                });
            }
        }
        Ok(())
    }

    /// Record a published commit's write-set for future validation (called
    /// with the write lock held, so epochs arrive in order).
    pub(crate) fn record_commit(&self, epoch: u64, ws: WriteSet) {
        let mut log = self.committed.lock();
        log.push_back((epoch, ws));
        while log.len() > COMMIT_LOG_CAP {
            log.pop_front();
        }
    }

    /// Test hook: evict the `n` oldest retained write-sets, simulating
    /// commit-log turnover without issuing [`COMMIT_LOG_CAP`] commits.
    #[cfg(test)]
    pub(crate) fn forget_oldest_commits(&self, n: usize) {
        let mut log = self.committed.lock();
        for _ in 0..n {
            log.pop_front();
        }
    }

    /// Generate and open the LDBC-SNB-like dataset at scale factor `sf`.
    pub fn snb(sf: f64, seed: u64) -> Result<(Session, SnbSchema)> {
        Session::snb_with(sf, seed, SessionOptions::default())
    }

    /// Generate and open the LDBC-SNB-like dataset with explicit options
    /// (benches set threads, timeouts and cache sizing this way).
    pub fn snb_with(sf: f64, seed: u64, options: SessionOptions) -> Result<(Session, SnbSchema)> {
        let (db, mapping) = generate_snb(&SnbParams { sf, seed });
        let session = Session::open_with(db, mapping, options)?;
        let schema = SnbSchema::resolve(session.state().view.schema())?;
        Ok((session, schema))
    }

    /// Generate and open the IMDB-like dataset at scale factor `sf`.
    pub fn imdb(sf: f64, seed: u64) -> Result<(Session, ImdbSchema)> {
        Session::imdb_with(sf, seed, SessionOptions::default())
    }

    /// Generate and open the IMDB-like dataset with explicit options.
    pub fn imdb_with(sf: f64, seed: u64, options: SessionOptions) -> Result<(Session, ImdbSchema)> {
        let (db, mapping) = generate_imdb(&ImdbParams { sf, seed });
        let session = Session::open_with(db, mapping, options)?;
        let schema = ImdbSchema::resolve(session.state().view.schema())?;
        Ok((session, schema))
    }

    /// Pin the current epoch's state.
    pub(crate) fn state(&self) -> Arc<SessionState> {
        Arc::clone(&self.state.read())
    }

    /// Publish a new state (writer paths only; callers hold `write_lock`).
    pub(crate) fn publish(&self, state: SessionState) {
        *self.state.write() = Arc::new(state);
    }

    /// The current data epoch: 0 at open, +1 per committed ingest batch.
    pub fn epoch(&self) -> u64 {
        self.state().epoch
    }

    /// Pin the current epoch for repeatable reads: every query run through
    /// the returned [`Snapshot`] sees this exact data version, regardless
    /// of ingest commits that land in the meantime.
    pub fn snapshot(&self) -> Snapshot<'_> {
        // Statistics version first, state second: commits publish before
        // they invalidate, so the version a snapshot carries is never newer
        // than the statistics its state was built with.
        let version = self.cache.stats_version();
        Snapshot {
            session: self,
            state: self.state(),
            version,
        }
    }

    /// The catalog (of the current epoch).
    pub fn db(&self) -> Arc<Database> {
        Arc::clone(&self.state().db)
    }

    /// The graph view (of the current epoch).
    pub fn view(&self) -> Arc<GraphView> {
        Arc::clone(&self.state().view)
    }

    /// The current GLogue statistics (a snapshot: ingest commits swap in
    /// refreshed instances).
    pub fn glogue(&self) -> Arc<GLogue> {
        Arc::clone(&self.state().glogue)
    }

    /// The session options.
    pub fn options(&self) -> &SessionOptions {
        &self.options
    }

    /// The plan cache backing [`Session::run_cached`].
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// Snapshot the plan-cache metrics.
    pub fn cache_metrics(&self) -> MetricsSnapshot {
        self.cache.metrics()
    }

    /// The session's metrics registry: every serving path (run, cached,
    /// prepared) and the ingest pipeline record into it. The
    /// server registers its HTTP-edge series on the same registry so one
    /// scrape covers the whole process.
    pub fn metrics(&self) -> &Arc<SessionMetrics> {
        &self.metrics
    }

    /// The unified observability view: the metrics registry with the
    /// plan-cache counters, WAL stats (when durable), checkpoint gauges, the
    /// morsel-scheduler globals and the current epoch folded in as series —
    /// the source of the Prometheus `/metrics` exposition. Typed values come
    /// from the accessors ([`Session::epoch`], [`Session::cache_metrics`],
    /// [`Session::wal_stats`], …).
    pub fn observability_snapshot(&self) -> ObservabilitySnapshot {
        ObservabilitySnapshot::collect(
            &self.metrics,
            self.epoch(),
            self.cache_metrics(),
            self.wal_stats(),
            self.last_checkpoint_epoch(),
            self.wal_bytes_since_checkpoint(),
        )
    }

    /// Open an optimistic ingest batch: queue inserts and deletes, then
    /// [`IngestBatch::commit`] to validate first-committer-wins, merge,
    /// refresh statistics and publish the next epoch. Any number of batches
    /// may be open concurrently — a batch whose primary-key write-set
    /// overlaps a commit published after its base epoch loses with the
    /// retryable [`CommitError::Conflict`]. Readers are never blocked.
    pub fn begin_ingest(&self) -> IngestBatch<'_> {
        IngestBatch::begin(self)
    }

    fn planner_context(&self, state: &SessionState) -> PlannerContext {
        PlannerContext {
            view: Arc::clone(&state.view),
            db: Arc::clone(&state.db),
            glogue: Some(Arc::clone(&state.glogue)),
            timeout: self.options.opt_timeout,
        }
    }

    pub(crate) fn optimize_at(
        &self,
        state: &SessionState,
        query: &SpjmQuery,
        mode: OptimizerMode,
    ) -> Result<(PhysicalPlan, OptStats)> {
        optimize(query, mode, &self.planner_context(state))
    }

    /// Optimize a query under `mode`.
    pub fn optimize(
        &self,
        query: &SpjmQuery,
        mode: OptimizerMode,
    ) -> Result<(PhysicalPlan, OptStats)> {
        self.optimize_at(&self.state(), query, mode)
    }

    /// Execute `plan` against `state` under `mode`'s execution regime. With
    /// a `deadline`, execution checks it at morsel boundaries and aborts
    /// with `DeadlineExceeded` on expiry. With `profile` set, plan-time
    /// metas (operator ids, estimates) are joined with the run-time profiles
    /// into a [`PlanReport`] and recorded into the session's
    /// operator/Q-error metric series. The result table is bit-identical
    /// either way.
    fn execute_at(
        &self,
        state: &SessionState,
        plan: &PhysicalPlan,
        mode: OptimizerMode,
        deadline: Option<TimeBudget>,
        profile: bool,
    ) -> Result<(Table, Option<PlanReport>)> {
        let profile = if profile {
            ProfileMode::On
        } else {
            ProfileMode::Off
        };
        let cfg = ExecConfig {
            use_index: mode.uses_graph_index(),
            row_limit: self.options.row_limit,
            threads: self.options.threads,
            deadline,
        };
        let (table, prof) = execute_plan_with(plan, &state.view, &state.db, &cfg, profile)?;
        let report = match prof {
            Some(p) => {
                let report = PlanReport::join(plan.operator_metas(&state.db), p)?;
                self.metrics.record_profile(&report);
                Some(report)
            }
            None => None,
        };
        Ok((table, report))
    }

    /// Execute a previously optimized plan under `mode`'s execution regime.
    pub fn execute(&self, plan: &PhysicalPlan, mode: OptimizerMode) -> Result<Table> {
        Ok(self.execute_at(&self.state(), plan, mode, None, false)?.0)
    }

    /// The one miss path behind every cached plan (a `Cached` miss,
    /// [`Session::prepare`], a stale prepared pin): optimize against the
    /// snapshot's state, insert the skeleton, and return it pinned.
    ///
    /// The entry and the pin are stamped with the statistics version the
    /// snapshot read *before* pinning its state (see [`Session::snapshot`]),
    /// not the version current when the optimizer finishes — the one rule
    /// for every stamp, which [`Session::prepare`]'s hit path follows too.
    /// A snapshot taken before an ingest commit, or one that raced the
    /// commit between its publish and its invalidation, therefore stamps
    /// its plan with the superseded version: the entry dies on its next
    /// lookup instead of being served as current on statistics it was not
    /// costed on. A timed-out search produced a fallback plan; it serves
    /// this caller but is not inserted for every future instance of the
    /// template.
    pub(crate) fn plan_on_miss(
        &self,
        snap: &Snapshot<'_>,
        query: &SpjmQuery,
        mode: OptimizerMode,
        key: PlanKey,
        params: Vec<Value>,
    ) -> Result<(PinnedPlan, OptStats)> {
        let version = snap.version;
        let (plan, opt) = self.optimize_at(&snap.state, query, mode)?;
        let plan = Arc::new(plan);
        if !opt.timed_out {
            self.cache
                .insert(key, Arc::clone(&plan), params.clone(), version);
        }
        Ok((self.cache.pin(plan, params, version), opt))
    }

    /// Resolve a `Cached` plan: parameterize (comparison literals lifted
    /// into slots, the rest fingerprinted isomorphism-invariantly) and
    /// probe; on a hit the cached skeleton is rebound with this instance's
    /// literals without touching the optimizer. On a miss — or if rebinding
    /// is ambiguous, which is counted as a *rebind failure* — the query is
    /// optimized normally and the skeleton inserted for the next instance.
    fn resolve_cached(
        &self,
        snap: &Snapshot<'_>,
        query: &SpjmQuery,
        mode: OptimizerMode,
        trace: &mut QueryTrace,
    ) -> Result<ResolvedPlan> {
        // Key construction, the `Arc` around the rebound plan and the
        // release of what the probe returned are part of the stages they
        // serve, not glue between them: on a cache hit the whole
        // resolution is a few microseconds and the trace has to account
        // for it.
        let (key, params) = trace.time(Stage::Parameterize, || parameterize(query).into_key(mode));
        if let Some((skeleton, cached_params)) =
            trace.time(Stage::CacheProbe, || self.cache.lookup(&key))
        {
            let params = &params;
            match trace.time(Stage::Rebind, move || {
                rebind_plan(&skeleton, &cached_params, params).map(ResolvedPlan::rebound)
            }) {
                Ok(resolved) => return Ok(resolved),
                Err(_) => self.cache.note_rebind_failure(),
            }
        }
        let (pin, opt) = trace.time(Stage::Optimize, || {
            self.plan_on_miss(snap, query, mode, key, params)
        })?;
        Ok(ResolvedPlan {
            plan: pin.plan,
            opt,
            cached: false,
        })
    }

    /// The one query pipeline: against the snapshot's state, resolve a plan
    /// (`Fresh` optimize | `Cached` parameterize + probe + rebind | a
    /// prepared statement's pinned skeleton + bindings), execute it, and
    /// account for it — every public query entry is a wrapper over this.
    /// Planning and execution see the same epoch on every path.
    pub(crate) fn pipeline(
        &self,
        snap: &Snapshot<'_>,
        source: Source<'_>,
        mode: OptimizerMode,
        options: &QueryOptions,
    ) -> Result<(QueryOutcome, Option<PlanReport>)> {
        let state = &*snap.state;
        let mut trace = QueryTrace::start();
        let (path, resolved) = match (source, options.plan) {
            (Source::Query(query), PlanSource::Fresh) => {
                let (plan, opt) =
                    trace.time(Stage::Optimize, || self.optimize_at(state, query, mode))?;
                let resolved = ResolvedPlan {
                    plan: Arc::new(plan),
                    opt,
                    cached: false,
                };
                (QueryPath::Run, resolved)
            }
            (Source::Query(query), PlanSource::Cached) => {
                let resolved = self.resolve_cached(snap, query, mode, &mut trace)?;
                (QueryPath::Cached, resolved)
            }
            (Source::Statement(stmt, bindings), _) => {
                trace.time(Stage::Parse, || {
                    validate_bindings(stmt.slot_sig(), bindings)
                })?;
                let resolved = stmt.resolve(snap, bindings, &mut trace)?;
                (QueryPath::Prepared, resolved)
            }
        };
        let ResolvedPlan {
            plan,
            mut opt,
            cached,
        } = resolved;
        // Charge the whole resolution (validate / parameterize / probe /
        // rebind / optimize), whichever source served it: one clock read
        // ends it and starts execution.
        let exec_start = Instant::now();
        opt.elapsed = exec_start.duration_since(trace.started());
        let (table, report) =
            self.execute_at(state, &plan, mode, options.deadline, options.profile)?;
        let exec_time = exec_start.elapsed();
        trace.add(Stage::Execute, exec_time);
        let trace = trace.finish();
        self.metrics.record_query(path, &trace);
        let outcome = QueryOutcome {
            table,
            plan,
            opt,
            exec_time,
            cached,
            epoch: state.epoch,
            trace,
        };
        Ok((outcome, report))
    }

    /// The one public query entry: run `query` under `mode` against the
    /// current epoch, with the plan source, deadline and profiling chosen
    /// by `options`. The report is `Some` exactly when `options.profile`
    /// is set. [`Session::run`], [`Session::run_cached`] and their
    /// `_profiled` twins are this call with fixed options;
    /// [`Snapshot::query`] is the same call at a pinned epoch and
    /// [`PreparedStatement::query`] its pinned-plan twin.
    pub fn query(
        &self,
        query: &SpjmQuery,
        mode: OptimizerMode,
        options: &QueryOptions,
    ) -> Result<(QueryOutcome, Option<PlanReport>)> {
        self.snapshot().query(query, mode, options)
    }

    /// Optimize + execute, reporting timings. The whole query runs against
    /// one pinned epoch. (`query` with default options.)
    pub fn run(&self, query: &SpjmQuery, mode: OptimizerMode) -> Result<QueryOutcome> {
        self.snapshot().run(query, mode)
    }

    /// [`Session::run`] with operator-level profiling: the same execution
    /// (bit-identical result rows), plus the per-operator estimate-vs-actual
    /// report, recorded into the operator/Q-error metric series.
    pub fn run_profiled(
        &self,
        query: &SpjmQuery,
        mode: OptimizerMode,
    ) -> Result<(QueryOutcome, PlanReport)> {
        let options = QueryOptions {
            profile: true,
            ..QueryOptions::default()
        };
        self.query(query, mode, &options).map(profiled)
    }

    /// The concurrent serving path: like [`Session::run`], but plans are
    /// reused through the plan cache (`query` with [`PlanSource::Cached`]).
    pub fn run_cached(&self, query: &SpjmQuery, mode: OptimizerMode) -> Result<QueryOutcome> {
        self.snapshot().run_cached(query, mode)
    }

    /// [`Session::run_cached`] with operator-level profiling under an
    /// optional wall-clock budget: the serving path the server's
    /// `profile=1` requests take. Result rows are bit-identical to the
    /// unprofiled path.
    pub fn run_cached_profiled(
        &self,
        query: &SpjmQuery,
        mode: OptimizerMode,
        deadline: Option<TimeBudget>,
    ) -> Result<(QueryOutcome, PlanReport)> {
        let options = QueryOptions {
            plan: PlanSource::Cached,
            deadline,
            profile: true,
        };
        self.query(query, mode, &options).map(profiled)
    }

    fn oracle_at(&self, state: &SessionState, query: &SpjmQuery) -> Result<Table> {
        relgo_exec::oracle::execute_query(query, &state.view, &state.db)
    }

    /// Execute the query through the naive oracle (no optimizer at all).
    pub fn oracle(&self, query: &SpjmQuery) -> Result<Table> {
        self.oracle_at(&self.state(), query)
    }

    /// EXPLAIN: the optimized plan as text, each operator line suffixed
    /// with its pre-order operator id and the optimizer's estimated rows —
    /// the plan-time half of [`Session::explain_analyze`].
    pub fn explain(&self, query: &SpjmQuery, mode: OptimizerMode) -> Result<String> {
        let state = self.state();
        let (plan, _) = self.optimize_at(&state, query, mode)?;
        let metas = plan.operator_metas(&state.db);
        Ok(plan.explain_annotated(|id| {
            metas
                .get(id)
                .map(|m| format!("  [op={} est={:.0}]", m.op_id, m.est_rows))
                .unwrap_or_default()
        }))
    }

    /// EXPLAIN ANALYZE: optimize, execute with operator-level profiling,
    /// and render the plan tree annotated with estimated vs actual rows and
    /// per-operator Q-error (`max(est/act, act/est)`). The result table is
    /// bit-identical to an unprofiled [`Session::run`].
    pub fn explain_analyze(
        &self,
        query: &SpjmQuery,
        mode: OptimizerMode,
    ) -> Result<ExplainAnalyze> {
        let (outcome, report) = self.run_profiled(query, mode)?;
        Ok(ExplainAnalyze::render(outcome, report))
    }
}

/// The error durable recovery returns when it ends at epoch `reached`,
/// below a checkpoint it rejected: the commits in between were
/// acknowledged, and neither that checkpoint nor the compacted log can
/// restore them. `rejected` is newest first.
fn lost_epochs(rejected: &[RejectedCheckpoint], reached: u64) -> Option<RelGoError> {
    let (epoch, path, why) = rejected.iter().find(|(epoch, ..)| *epoch > reached)?;
    Some(RelGoError::DataLoss(format!(
        "checkpoint {} is unreadable ({why}) and the log no longer holds \
         epochs {}..={epoch}",
        path.display(),
        reached + 1
    )))
}

/// Unwrap the report of a `profile: true` pipeline call.
pub(crate) fn profiled(
    (outcome, report): (QueryOutcome, Option<PlanReport>),
) -> (QueryOutcome, PlanReport) {
    (outcome, report.expect("profiling was on"))
}

/// A pinned data epoch of a [`Session`]: queries run through a snapshot see
/// the same data version no matter how many ingest batches commit after it
/// was taken — uncommitted (and later-committed) rows are invisible.
/// Cached-plan probes still share the session's plan cache; a plan rebound
/// from it executes against this snapshot's data.
pub struct Snapshot<'s> {
    session: &'s Session,
    state: Arc<SessionState>,
    /// The plan cache's statistics version, read before `state` was
    /// pinned: what a plan this snapshot inserts or pins is stamped with.
    pub(crate) version: u64,
}

impl Snapshot<'_> {
    /// The epoch this snapshot pins.
    pub fn epoch(&self) -> u64 {
        self.state.epoch
    }

    /// The pinned catalog.
    pub fn db(&self) -> &Arc<Database> {
        &self.state.db
    }

    /// The pinned graph view.
    pub fn view(&self) -> &Arc<GraphView> {
        &self.state.view
    }

    /// [`Session::query`] against the pinned epoch (a `Cached` plan shares
    /// the session's plan cache).
    pub fn query(
        &self,
        query: &SpjmQuery,
        mode: OptimizerMode,
        options: &QueryOptions,
    ) -> Result<(QueryOutcome, Option<PlanReport>)> {
        self.session
            .pipeline(self, Source::Query(query), mode, options)
    }

    /// Optimize + execute against the pinned epoch.
    pub fn run(&self, query: &SpjmQuery, mode: OptimizerMode) -> Result<QueryOutcome> {
        Ok(self.query(query, mode, &QueryOptions::default())?.0)
    }

    /// [`Session::run_cached`] against the pinned epoch (shares the
    /// session's plan cache).
    pub fn run_cached(&self, query: &SpjmQuery, mode: OptimizerMode) -> Result<QueryOutcome> {
        let options = QueryOptions {
            plan: PlanSource::Cached,
            ..QueryOptions::default()
        };
        Ok(self.query(query, mode, &options)?.0)
    }

    /// The oracle against the pinned epoch.
    pub fn oracle(&self, query: &SpjmQuery) -> Result<Table> {
        self.session.oracle_at(&self.state, query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgo_common::Value;
    use relgo_workloads::snb_queries;

    #[test]
    fn explain_mentions_graph_table() {
        let (session, schema) = Session::snb(0.03, 42).unwrap();
        let query = snb_queries::ic1(&schema, 1, 5).unwrap();
        let s = session.explain(&query, OptimizerMode::RelGo).unwrap();
        assert!(s.contains("SCAN_GRAPH_TABLE"), "{s}");
        // Every line carries its pre-order op id and estimate.
        for (i, line) in s.lines().enumerate() {
            assert!(line.contains(&format!("[op={i} est=")), "line {i}: {line}");
        }
    }

    #[test]
    fn explain_analyze_reconciles_and_matches_unprofiled_run() {
        let (session, schema) = Session::snb(0.03, 42).unwrap();
        for mode in [OptimizerMode::RelGo, OptimizerMode::DuckDbLike] {
            let query = snb_queries::ic1(&schema, 1, 5).unwrap();
            let ea = session.explain_analyze(&query, mode).unwrap();
            let plain = session.run(&query, mode).unwrap();
            // Profiling never changes the result (bit-identical rows).
            assert_eq!(ea.outcome.table.num_rows(), plain.table.num_rows());
            for r in 0..plain.table.num_rows() as u32 {
                assert_eq!(ea.outcome.table.row(r), plain.table.row(r));
            }
            // One profiled operator per rendered line, actual rows
            // reconciling through the tree down to the final cardinality.
            assert_eq!(ea.rendered.lines().count(), ea.report.ops.len());
            ea.report.reconcile().unwrap();
            let root = ea.report.root().unwrap();
            assert_eq!(root.prof.rows_out, ea.outcome.table.num_rows() as u64);
            assert!(ea.rendered.contains("act="), "{}", ea.rendered);
        }
        // Profiled runs feed the operator metric series.
        let snap = session.observability_snapshot();
        let names = snap.series_names();
        assert!(names.contains(&"relgo_operator_seconds"), "{names:?}");
        assert!(names.contains(&"relgo_operator_rows"), "{names:?}");
    }

    #[test]
    fn profiled_paths_agree_across_run_cached_and_prepared() {
        let (session, schema) = Session::snb(0.03, 42).unwrap();
        let query = snb_queries::ic1(&schema, 1, 5).unwrap();
        let (run_out, run_rep) = session.run_profiled(&query, OptimizerMode::RelGo).unwrap();
        run_rep.reconcile().unwrap();
        let (cached_out, cached_rep) = session
            .run_cached_profiled(&query, OptimizerMode::RelGo, None)
            .unwrap();
        cached_rep.reconcile().unwrap();
        assert_eq!(run_out.table.sorted_rows(), cached_out.table.sorted_rows());
        assert_eq!(
            run_rep.root().unwrap().prof.rows_out,
            cached_rep.root().unwrap().prof.rows_out
        );
    }

    #[test]
    fn fresh_plan_under_an_expired_deadline_fails_closed() {
        let (session, schema) = Session::snb(0.03, 42).unwrap();
        let query = snb_queries::ic1(&schema, 1, 5).unwrap();
        let options = QueryOptions {
            deadline: Some(TimeBudget::new(Duration::ZERO)),
            ..QueryOptions::default()
        };
        let err = session
            .query(&query, OptimizerMode::RelGo, &options)
            .unwrap_err();
        assert!(matches!(err, RelGoError::DeadlineExceeded(_)), "{err}");
    }

    #[test]
    fn imdb_session_opens() {
        let (session, schema) = Session::imdb(0.05, 7).unwrap();
        let q = relgo_workloads::job_queries::build_job(
            &schema,
            &relgo_workloads::job_queries::job_specs()[0],
        )
        .unwrap();
        let out = session.run(&q, OptimizerMode::RelGo).unwrap();
        assert_eq!(out.table.num_rows(), 1, "MIN aggregate returns one row");
    }

    fn temp_wal(tag: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("relgo_session_{tag}_{}.wal", std::process::id()));
        std::fs::remove_file(&path).ok();
        path
    }

    fn cleanup_wal(path: &Path) {
        std::fs::remove_file(path).ok();
        let store = relgo_delta::checkpoint::CheckpointStore::for_wal(path);
        for (_, p) in store.list().unwrap_or_default() {
            std::fs::remove_file(p).ok();
        }
    }

    fn commit_person(session: &Session, key: i64) {
        let mut batch = session.begin_ingest();
        batch
            .insert_row(
                "Person",
                vec![key.into(), format!("P{key}").into(), Value::Date(17_000)],
            )
            .unwrap();
        batch.commit().unwrap();
    }

    #[test]
    fn checkpoint_truncates_the_wal_and_bounds_recovery_replay() {
        use relgo_datagen::{generate_snb, SnbParams};
        let path = temp_wal("ckpt");
        let params = SnbParams { sf: 0.03, seed: 42 };
        let (db, mapping) = generate_snb(&params);
        let (session, _) = Session::open_durable(
            db,
            mapping,
            SessionOptions::default(),
            &path,
            WalOptions::default(),
        )
        .unwrap();
        for i in 0..6 {
            commit_person(&session, 800_000 + i);
        }
        let before = session.wal_bytes_since_checkpoint().unwrap();
        assert!(before > 0);

        let report = session.checkpoint().unwrap();
        assert_eq!(report.epoch, 6);
        assert_eq!(report.wal.records_dropped, 6);
        assert_eq!(report.wal.bytes_retained, 0);
        assert_eq!(session.last_checkpoint_epoch(), 6);
        assert_eq!(session.wal_bytes_since_checkpoint(), Some(0));
        assert_eq!(session.metrics().checkpoints(), 1);

        // Two commits land after the checkpoint: the WAL holds only them.
        commit_person(&session, 800_100);
        commit_person(&session, 800_101);

        let (db, mapping) = generate_snb(&params);
        let (back, rec) = Session::recover(db, mapping, &path).unwrap();
        assert!(rec.checkpoint_loaded);
        assert_eq!(rec.checkpoint_epoch, 6);
        assert_eq!(rec.checkpoint_fallbacks, 0);
        assert_eq!(rec.records, 2, "replay is bounded to the WAL tail");
        assert_eq!(back.epoch(), session.epoch());
        assert_eq!(back.last_checkpoint_epoch(), 6);
        for name in ["Person", "Knows", "Likes"] {
            assert_eq!(
                session.db().table(name).unwrap().sorted_rows(),
                back.db().table(name).unwrap().sorted_rows(),
                "{name} survives checkpointed recovery bit-identically"
            );
        }
        // The recovered session keeps serving durably past the checkpoint.
        commit_person(&back, 800_200);
        assert_eq!(back.epoch(), 9);
        cleanup_wal(&path);
    }

    #[test]
    fn single_writer_syncs_once_per_commit() {
        use relgo_datagen::{generate_snb, SnbParams};
        let (db, mapping) = generate_snb(&SnbParams { sf: 0.03, seed: 42 });
        let commits = 4u64;
        let path = temp_wal("fsync");
        let (session, _) = Session::recover(db, mapping, &path).unwrap();
        for i in 0..commits {
            commit_person(&session, 800_000 + i as i64);
        }
        let stats = session.wal_stats().unwrap();
        assert_eq!((stats.records, stats.syncs), (commits, commits));
        // Every durable commit is charged to the `wal_append` stage.
        let registry = session.observability_snapshot().registry;
        match registry.get("relgo_query_stage_seconds", &[("stage", "wal_append")]) {
            Some(relgo_metrics::SampleValue::Histogram(h)) => assert_eq!(h.count, commits),
            other => panic!("missing wal_append stage histogram: {other:?}"),
        }
        cleanup_wal(&path);
    }

    #[test]
    fn checkpoint_requires_a_durable_session() {
        let (session, _) = Session::snb(0.03, 42).unwrap();
        let err = session.checkpoint().unwrap_err();
        assert!(err.to_string().contains("durable"), "{err}");
    }
}
