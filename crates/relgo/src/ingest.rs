//! Ingest batches: the MVCC write path of the snapshot-versioned session.
//!
//! [`Session::begin_ingest`] opens an [`IngestBatch`] — a writer handle
//! accumulating row inserts and primary-key deletes in a
//! [`relgo_delta::DeltaSet`], invisible to every reader. Batches are
//! *optimistic*: any number may be open concurrently, each remembering the
//! epoch it started from (its **base epoch**). [`IngestBatch::commit`] then:
//!
//! 1. **validates** first-committer-wins: the batch's primary-key write-set
//!    ([`relgo_delta::DeltaSet::write_set`]) is intersected against every
//!    commit that published after the base epoch — an overlap aborts with
//!    the retryable [`CommitError::Conflict`] and publishes nothing,
//! 2. merges the delta into fresh immutable tables
//!    ([`relgo_delta::DeltaSet::apply`]; unchanged tables share their
//!    `Arc`s),
//! 3. incrementally refreshes the graph view and GRainDB-style index
//!    (untouched edge labels share the previous epoch's memory),
//! 4. refreshes statistics: the GLogue keeps every cached pattern count
//!    whose labels the delta did not touch and evicts the rest, to be
//!    recounted exactly on demand ([`relgo_glogue::GLogue::refreshed`]),
//! 5. on a durable session, stages the delta as a write-ahead-log record
//!    ([`relgo_delta::wal::Wal::append`]),
//! 6. publishes the next epoch with one pointer swap and bumps the plan
//!    cache's statistics version, so cached plans and pinned prepared
//!    statements transparently re-optimize against the new data,
//! 7. on a durable session, waits for the WAL group commit
//!    ([`relgo_delta::wal::Wal::sync_through`]) — concurrent committers'
//!    records are fsynced together, amortizing the sync.
//!
//! Only steps 1–6 hold the session's writer lock (the short
//! validate-and-publish critical section); the fsync in step 7 happens
//! outside it so the next committer can validate meanwhile. Visibility
//! therefore precedes durability within one group-commit window: a crash in
//! that window loses a *suffix* of just-published commits, never a prefix —
//! exactly the contract [`Session::recover`] restores.
//!
//! In-flight queries (and [`crate::Snapshot`]s) keep reading the old epoch;
//! a failed commit publishes nothing and discards the batch.

use crate::session::{Session, SessionState};
use relgo_common::{RelGoError, Result, Value};
use relgo_delta::DeltaSet;
use relgo_glogue::GLogue;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why an [`IngestBatch::commit`] did not publish.
///
/// The conflict variants are *retryable*: nothing was published, and
/// re-staging the same logical change against the current epoch (a fresh
/// [`Session::begin_ingest`]) may succeed. [`CommitError::Failed`] wraps a
/// non-conflict validation or execution error.
#[derive(Debug, Clone, PartialEq)]
pub enum CommitError {
    /// First-committer-wins validation failed: a commit that published
    /// after this batch's base epoch wrote an overlapping primary key.
    Conflict {
        /// Table of the first overlapping key (sorted table order).
        table: String,
        /// The smallest overlapping primary-key value in that table.
        key: i64,
        /// The epoch of the already-published conflicting commit.
        committed_epoch: u64,
    },
    /// The batch's base epoch predates the session's retained commit log,
    /// so disjointness cannot be proven; the batch is conservatively
    /// rejected. Retry against the current epoch.
    StaleBase {
        /// The batch's base epoch.
        base_epoch: u64,
        /// The oldest base epoch the commit log can still validate against.
        retained_from: u64,
    },
    /// A non-conflict failure (schema validation, λ-totality, WAL I/O…).
    Failed(RelGoError),
}

impl CommitError {
    /// Whether the commit lost a race (retryable) rather than being invalid.
    pub fn is_conflict(&self) -> bool {
        !matches!(self, CommitError::Failed(_))
    }
}

impl fmt::Display for CommitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitError::Conflict {
                table,
                key,
                committed_epoch,
            } => write!(
                f,
                "write conflict: {table} key {key} was also written by the \
                 commit that published epoch {committed_epoch}"
            ),
            CommitError::StaleBase {
                base_epoch,
                retained_from,
            } => write!(
                f,
                "write conflict: base epoch {base_epoch} predates the \
                 retained commit log (validatable from epoch {retained_from})"
            ),
            CommitError::Failed(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CommitError {}

impl From<RelGoError> for CommitError {
    fn from(e: RelGoError) -> CommitError {
        CommitError::Failed(e)
    }
}

impl From<CommitError> for RelGoError {
    fn from(e: CommitError) -> RelGoError {
        match e {
            CommitError::Conflict {
                table,
                key,
                committed_epoch,
            } => RelGoError::conflict(format!(
                "{table} key {key} was also written by the commit that \
                 published epoch {committed_epoch}"
            )),
            CommitError::StaleBase {
                base_epoch,
                retained_from,
            } => RelGoError::conflict(format!(
                "base epoch {base_epoch} predates the retained commit log \
                 (validatable from epoch {retained_from})"
            )),
            CommitError::Failed(e) => e,
        }
    }
}

/// What one committed ingest batch did.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// The epoch the commit published.
    pub epoch: u64,
    /// Rows inserted across all tables.
    pub inserted: usize,
    /// Rows deleted across all tables.
    pub deleted: usize,
    /// Names of the tables the batch touched (sorted).
    pub tables: Vec<String>,
    /// Wall time of the statistics refresh alone.
    pub stats_time: Duration,
    /// Wall time spent making the commit durable: WAL record staging plus
    /// the group-commit sync (zero on a non-durable session).
    pub wal_time: Duration,
    /// Wall time of the whole commit (merge + view/index + statistics +
    /// publish + WAL durability).
    pub commit_time: Duration,
}

/// An optimistic ingest batch against one [`Session`]. Any number of
/// batches may be open concurrently — each validates at commit against
/// everything that published after its base epoch (first committer wins).
/// Readers are never blocked.
pub struct IngestBatch<'s> {
    session: &'s Session,
    base_epoch: u64,
    delta: DeltaSet,
}

impl<'s> IngestBatch<'s> {
    pub(crate) fn begin(session: &'s Session) -> IngestBatch<'s> {
        IngestBatch {
            base_epoch: session.epoch(),
            session,
            delta: DeltaSet::new(),
        }
    }

    /// The epoch this batch reads from and validates against at commit.
    pub fn base_epoch(&self) -> u64 {
        self.base_epoch
    }

    /// Queue one row for appending to `table`. The table must exist; full
    /// schema/key validation happens at commit.
    pub fn insert_row(&mut self, table: &str, row: Vec<Value>) -> Result<()> {
        let state = self.session.state();
        state.db.table(table)?;
        self.delta.insert(table, row);
        Ok(())
    }

    /// Queue one row for appending to the edge table `table` — like
    /// [`IngestBatch::insert_row`], but additionally checks the table backs
    /// an edge label of the session's RGMapping, so a typo cannot silently
    /// ingest graph data into a non-graph relation.
    pub fn insert_edge(&mut self, table: &str, row: Vec<Value>) -> Result<()> {
        let state = self.session.state();
        if !state
            .view
            .mapping()
            .edges()
            .iter()
            .any(|e| e.table == table)
        {
            return Err(RelGoError::schema(format!(
                "{table} does not back an edge label of the RGMapping"
            )));
        }
        self.insert_row(table, row)
    }

    /// Queue the deletion of the base row of `table` whose primary key
    /// equals `key`. Resolution (and the λ-totality check that no surviving
    /// edge still references a deleted vertex) happens at commit.
    pub fn delete_row(&mut self, table: &str, key: i64) -> Result<()> {
        let state = self.session.state();
        state.db.table(table)?;
        if state.db.primary_key(table).is_none() {
            return Err(RelGoError::schema(format!(
                "cannot delete from {table}: no primary key declared"
            )));
        }
        self.delta.delete(table, key);
        Ok(())
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.delta.is_empty()
    }

    /// Validate, merge and publish the batch as the next epoch (see the
    /// module docs for the pipeline). A lost first-committer-wins race
    /// returns the retryable [`CommitError::Conflict`]; on any error nothing
    /// is published and the batch is discarded. An empty batch is a no-op
    /// that publishes nothing.
    pub fn commit(self) -> std::result::Result<IngestReport, CommitError> {
        self.session.commit_delta(self.delta, Some(self.base_epoch))
    }
}

impl Session {
    /// The commit pipeline shared by live batches and WAL recovery replay.
    ///
    /// `base_epoch: Some(e)` is a live commit: first-committer-wins
    /// validation against everything published after `e`, and (on a durable
    /// session) a WAL record. `None` is recovery replay: the record is
    /// already in the log and, by construction, conflict-free in log order.
    pub(crate) fn commit_delta(
        &self,
        delta: DeltaSet,
        base_epoch: Option<u64>,
    ) -> std::result::Result<IngestReport, CommitError> {
        let start = Instant::now();
        if delta.is_empty() {
            let state = self.state();
            return Ok(IngestReport {
                epoch: state.epoch,
                inserted: 0,
                deleted: 0,
                tables: Vec::new(),
                stats_time: Duration::ZERO,
                wal_time: Duration::ZERO,
                commit_time: start.elapsed(),
            });
        }

        // ---- validate-and-publish critical section -----------------------
        let writer = self.write_lock.lock();
        let state = self.state();

        // First committer wins: abort before doing any merge work if a
        // commit since our base epoch touched an overlapping primary key.
        let write_set = match base_epoch {
            Some(base) => {
                let ws = delta.write_set(&state.db)?;
                if let Err(e) = self.validate_write_set(base, &ws, state.epoch) {
                    self.metrics().record_ingest_conflict();
                    return Err(e);
                }
                Some(ws)
            }
            None => None,
        };

        let (mut db, summary) = delta.apply(&state.db)?;
        let view = Arc::new(relgo_delta::refresh_view(&state.view, &mut db, &summary)?);
        let (changed_v, changed_e) = view.changed_label_flags(summary.map());

        let stats_start = Instant::now();
        let glogue = Arc::new(GLogue::refreshed(
            &state.glogue,
            Arc::clone(&view),
            &changed_v,
            &changed_e,
        )?);
        let stats_time = stats_start.elapsed();

        let epoch = state.epoch + 1;
        // Stage the WAL record last among the fallible steps and just
        // before publish: staging is pure memory (it cannot fail), so a
        // failed commit never leaves a phantom record, and a staged record
        // is always followed by its publish. Recovery replay (`None`)
        // must not re-append what it is replaying — and on a freshly
        // recovered session the log is installed only after replay anyway.
        let wal_start = Instant::now();
        let wal_seq = match base_epoch {
            Some(_) => self.wal().map(|w| w.append(epoch, &delta)),
            None => None,
        };
        let mut wal_time = match wal_seq {
            Some(_) => wal_start.elapsed(),
            None => Duration::ZERO,
        };
        self.publish(SessionState {
            epoch,
            db: Arc::new(db),
            view,
            glogue,
        });
        if let Some(ws) = write_set {
            self.record_commit(epoch, ws);
        }
        drop(writer);
        // ---- end critical section ----------------------------------------

        // Every cached plan and pinned prepared statement was costed
        // against the previous epoch's statistics: stale from now on.
        self.plan_cache().invalidate_all();
        // Group commit: concurrent committers that staged records while we
        // held the writer lock ride along on one fsync (or we ride theirs).
        if let Some(seq) = wal_seq {
            // The epoch is already visible; a durability failure here means
            // the log may lack a suffix of published commits (the same
            // window a crash exposes), so surface it loudly.
            let sync_start = Instant::now();
            self.wal()
                .expect("wal_seq implies a wal")
                .sync_through(seq)?;
            wal_time += sync_start.elapsed();
            self.metrics()
                .record_stage(relgo_metrics::trace::Stage::WalAppend, wal_time);
        }
        let commit_time = start.elapsed();
        let rows = summary.inserted_rows() + summary.deleted_rows();
        // Recovery replay (no base epoch) re-runs the commit pipeline but is
        // not a live commit: count the rows and latency, not the commit.
        match base_epoch {
            Some(_) => self.metrics().record_ingest_commit(rows, commit_time),
            None => self.metrics().record_recovery_replay(rows, commit_time),
        }
        Ok(IngestReport {
            epoch,
            inserted: summary.inserted_rows(),
            deleted: summary.deleted_rows(),
            tables: summary.tables().iter().map(|s| s.to_string()).collect(),
            stats_time,
            wal_time,
            commit_time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryOutcome;
    use relgo_core::{OptimizerMode, SpjmQuery};
    use relgo_workloads::snb_queries;

    #[test]
    fn commit_publishes_next_epoch_and_invalidates() {
        let (session, schema) = Session::snb(0.03, 42).unwrap();
        let person = session.db().table("Person").unwrap().num_rows();
        let q = snb_queries::ic1(&schema, 1, 0).unwrap();
        let before_rows = session.run(&q, OptimizerMode::RelGo).unwrap().table;
        session.run_cached(&q, OptimizerMode::RelGo).unwrap();

        let mut batch = session.begin_ingest();
        assert_eq!(batch.base_epoch(), 0);
        let next_id = person as i64 * 10; // ids are 0..n, so this is fresh
        batch
            .insert_row(
                "Person",
                vec![next_id.into(), "Zed".into(), Value::Date(17_000)],
            )
            .unwrap();
        batch
            .insert_edge(
                "Knows",
                vec![
                    900_000.into(),
                    0.into(),
                    next_id.into(),
                    Value::Date(17_001),
                ],
            )
            .unwrap();
        let report = batch.commit().unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(session.epoch(), 1);
        assert_eq!(report.inserted, 2);
        assert_eq!(report.tables, vec!["Knows", "Person"]);

        // Data is visible, cached plans were invalidated (miss → reopt).
        assert_eq!(session.db().table("Person").unwrap().num_rows(), person + 1);
        let out = session.run_cached(&q, OptimizerMode::RelGo).unwrap();
        assert!(!out.cached, "commit staled the cached plan");
        // IC1 person 0, 1 hop: the new friend shows up.
        assert_eq!(
            out.table.num_rows(),
            before_rows.num_rows() + 1,
            "ingested knows edge is served"
        );
    }

    #[test]
    fn snapshot_pins_the_old_epoch() {
        let (session, schema) = Session::snb(0.03, 42).unwrap();
        let snap = session.snapshot();
        let person = snap.db().table("Person").unwrap().num_rows();

        let mut batch = session.begin_ingest();
        batch
            .insert_row(
                "Person",
                vec![777_000.into(), "Ghost".into(), Value::Date(17_000)],
            )
            .unwrap();
        // Uncommitted rows are invisible to everyone.
        assert_eq!(session.db().table("Person").unwrap().num_rows(), person);
        batch.commit().unwrap();

        // Committed rows are invisible to the pinned snapshot…
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.db().table("Person").unwrap().num_rows(), person);
        // …and visible to the live session.
        assert_eq!(session.epoch(), 1);
        assert_eq!(session.db().table("Person").unwrap().num_rows(), person + 1);
        // An outcome names the epoch that answered, not the newest one.
        let q = snb_queries::ic1(&schema, 0, 1).unwrap();
        let pinned = snap.run_cached(&q, OptimizerMode::RelGo).unwrap();
        assert_eq!(pinned.epoch, snap.epoch());
        assert!(pinned.epoch < session.epoch());
        let live = session.run_cached(&q, OptimizerMode::RelGo).unwrap();
        assert_eq!(live.epoch, session.epoch());
        // The snapshot's miss was costed on epoch 0's statistics, so it
        // must not be served to the live session as current.
        assert!(!live.cached);
    }

    #[test]
    fn primary_key_seek_answers_from_the_epoch_it_is_asked_at() {
        // IC1 at distance 0 is `SCAN v0 ($0 = key)` and nothing else: the
        // scan seeks through the key index of the view it runs against.
        let (session, schema) = Session::snb(0.03, 42).unwrap();
        let ghost = |at: &dyn Fn(&SpjmQuery) -> Result<QueryOutcome>| {
            let q = snb_queries::ic1(&schema, 0, 777_000).unwrap();
            let fresh = at(&q).unwrap().table;
            (fresh.num_rows() == 1).then(|| fresh.value(0, 0))
        };
        let live = |q: &SpjmQuery| session.run(q, OptimizerMode::RelGo);
        let cached = |q: &SpjmQuery| session.run_cached(q, OptimizerMode::RelGo);
        let before = session.snapshot();
        assert_eq!(ghost(&live), None);

        let mut batch = session.begin_ingest();
        let row = vec![777_000.into(), "Ghost".into(), Value::Date(17_000)];
        batch.insert_row("Person", row).unwrap();
        batch.commit().unwrap();
        let during = session.snapshot();
        // The new key is found, by fresh and by cached (rebound) plans…
        assert_eq!(ghost(&live), Some(Value::str("Ghost")));
        assert_eq!(ghost(&cached), Some(Value::str("Ghost")));

        let mut batch = session.begin_ingest();
        batch.delete_row("Person", 777_000).unwrap();
        batch.commit().unwrap();
        // …the deleted one is not, and every pinned snapshot still answers
        // from the index of its own epoch.
        assert_eq!(ghost(&live), None);
        assert_eq!(ghost(&cached), None);
        let at_epoch =
            |snap: &crate::Snapshot<'_>| ghost(&|q: &SpjmQuery| snap.run(q, OptimizerMode::RelGo));
        assert_eq!((before.epoch(), at_epoch(&before)), (0, None));
        assert_eq!(
            (during.epoch(), at_epoch(&during)),
            (1, Some(Value::str("Ghost")))
        );
        // An old key still resolves to its row after rows shifted under it.
        let q = snb_queries::ic1(&schema, 0, 5).unwrap();
        assert_eq!(live(&q).unwrap().table.num_rows(), 1);
    }

    #[test]
    fn commit_validation_failures_publish_nothing() {
        let (session, _) = Session::snb(0.03, 42).unwrap();
        // Duplicate primary key.
        let mut batch = session.begin_ingest();
        batch
            .insert_row("Person", vec![0.into(), "Dup".into(), Value::Date(17_000)])
            .unwrap();
        let err = batch.commit().unwrap_err();
        assert!(matches!(err, CommitError::Failed(_)), "{err}");
        assert!(!err.is_conflict());
        assert_eq!(session.epoch(), 0);
        // Dangling edge insert.
        let mut batch = session.begin_ingest();
        batch
            .insert_edge(
                "Knows",
                vec![
                    900_000.into(),
                    0.into(),
                    999_999.into(),
                    Value::Date(17_001),
                ],
            )
            .unwrap();
        assert!(batch.commit().is_err());
        assert_eq!(session.epoch(), 0);
        // Deleting a vertex still referenced by edges.
        let mut batch = session.begin_ingest();
        batch.delete_row("Person", 0).unwrap();
        assert!(batch.commit().is_err());
        assert_eq!(session.epoch(), 0);
        // insert_edge polices the mapping.
        let mut batch = session.begin_ingest();
        assert!(batch.insert_edge("Person", vec![1.into()]).is_err());
        // An empty batch is a no-op.
        let report = batch.commit().unwrap();
        assert_eq!(report.epoch, 0);
        assert_eq!(session.epoch(), 0);
    }

    #[test]
    fn concurrent_disjoint_batches_both_commit() {
        let (session, _) = Session::snb(0.03, 42).unwrap();
        // Two batches open concurrently against epoch 0.
        let mut a = session.begin_ingest();
        let mut b = session.begin_ingest();
        a.insert_row(
            "Person",
            vec![800_000.into(), "A".into(), Value::Date(17_000)],
        )
        .unwrap();
        b.insert_row(
            "Person",
            vec![800_001.into(), "B".into(), Value::Date(17_000)],
        )
        .unwrap();
        let ra = a.commit().unwrap();
        assert_eq!(ra.epoch, 1);
        // b's base epoch (0) is behind, but its write-set is disjoint from
        // a's: first-committer-wins validation passes.
        let rb = b.commit().unwrap();
        assert_eq!(rb.epoch, 2);
        assert_eq!(session.epoch(), 2);
    }

    #[test]
    fn overlapping_batch_loses_with_typed_conflict_and_retry_succeeds() {
        let (session, _) = Session::snb(0.03, 42).unwrap();
        let key = 800_000i64;
        let mut winner = session.begin_ingest();
        let mut loser = session.begin_ingest();
        winner
            .insert_row(
                "Person",
                vec![key.into(), "Winner".into(), Value::Date(17_000)],
            )
            .unwrap();
        // The loser deletes the same key it cannot yet see — without MVCC
        // validation this would silently erase the winner's row.
        loser.delete_row("Person", key).unwrap();
        winner.commit().unwrap();
        let err = loser.commit().unwrap_err();
        assert!(err.is_conflict());
        assert_eq!(
            err,
            CommitError::Conflict {
                table: "Person".to_string(),
                key,
                committed_epoch: 1,
            }
        );
        assert!(err.to_string().contains("Person key 800000"));
        assert_eq!(session.epoch(), 1, "losing batch published nothing");

        // Retrying against the current epoch sees the winner's row and
        // commits cleanly.
        let mut retry = session.begin_ingest();
        assert_eq!(retry.base_epoch(), 1);
        retry.delete_row("Person", key).unwrap();
        let report = retry.commit().unwrap();
        assert_eq!((report.epoch, report.deleted), (2, 1));
    }

    #[test]
    fn stale_base_is_conservatively_rejected() {
        let (session, _) = Session::snb(0.03, 42).unwrap();
        // Open a batch at epoch 0, then let two disjoint commits land.
        let mut old = session.begin_ingest();
        old.insert_row(
            "Person",
            vec![800_000.into(), "Old".into(), Value::Date(17_000)],
        )
        .unwrap();
        for (i, name) in [(1i64, "X"), (2, "Y")] {
            let mut b = session.begin_ingest();
            b.insert_row(
                "Person",
                vec![(900_000 + i).into(), name.into(), Value::Date(17_000)],
            )
            .unwrap();
            b.commit().unwrap();
        }
        // Simulate commit-log eviction past the old batch's base epoch.
        session.forget_oldest_commits(2);
        let err = old.commit().unwrap_err();
        assert!(err.is_conflict(), "stale base must be retryable: {err}");
        assert_eq!(
            err,
            CommitError::StaleBase {
                base_epoch: 0,
                retained_from: 2,
            }
        );
        assert_eq!(session.epoch(), 2);
    }

    #[test]
    fn deleting_an_unreferenced_edge_row_works() {
        use relgo_core::SpjmBuilder;
        use relgo_pattern::PatternBuilder;
        use relgo_storage::ScalarExpr;

        let (session, schema) = Session::snb(0.03, 42).unwrap();
        let likes = session.db().table("Likes").unwrap().num_rows();
        // One row per like of person 0: p -[Likes]-> m, p_id = 0.
        let q = {
            let mut pb = PatternBuilder::new();
            let p = pb.vertex("p", schema.person);
            let m = pb.vertex("m", schema.message);
            pb.edge(p, m, schema.likes).unwrap();
            let mut b = SpjmBuilder::new(pb.build().unwrap());
            let p_id = b.vertex_column(p, 0, "p_id");
            let m_id = b.vertex_column(m, 0, "m_id");
            b.select(ScalarExpr::col_eq(p_id, 0i64));
            b.project(&[m_id]);
            b.build()
        };
        let before = session.run(&q, OptimizerMode::RelGo).unwrap().table;
        assert!(before.num_rows() > 0, "person 0 likes something");
        // Delete one of person 0's likes (edge rows are freely deletable).
        let key = {
            let db = session.db();
            let t = db.table("Likes").unwrap();
            (0..t.num_rows() as u32)
                .find(|&r| t.value(r, 1) == Value::Int(0))
                .map(|r| t.value(r, 0).as_int().unwrap())
                .expect("person 0 likes something")
        };
        let mut batch = session.begin_ingest();
        batch.delete_row("Likes", key).unwrap();
        let report = batch.commit().unwrap();
        assert_eq!(report.deleted, 1);
        assert_eq!(session.db().table("Likes").unwrap().num_rows(), likes - 1);
        let after = session.run(&q, OptimizerMode::RelGo).unwrap();
        assert_eq!(after.table.num_rows(), before.num_rows() - 1);
    }
}
