//! A small serving driver: replay a templated workload against one shared
//! [`Session`] from many threads, through the plan cache or through
//! prepared-statement handles.
//!
//! This is the contention-safety proof for `relgo-cache` and
//! `relgo::prepared`: every worker serves its own template instances while
//! sharing the session (graph view, GLogue, plan cache, pinned handles)
//! with all the others. The report carries the cache-metric deltas so
//! callers can assert the expected hit/miss split.
//!
//! Three serving regimes ([`ServeMode`]):
//!
//! * [`ServeMode::Cached`] — every query goes through
//!   [`Session::run_cached`] (parameterize + cache probe + rebind);
//! * [`ServeMode::Prepared`] — each template is prepared **once** (shared
//!   by all workers); per draw only the binding vector is generated and
//!   [`PreparedStatement::execute`] rebinds the pinned skeleton;
//! * [`ServeMode::Mixed`] — `writers` concurrent writer threads ingest
//!   update batches (each commit publishing a new epoch and invalidating
//!   cached plans/pins) while reader threads serve snapshot-pinned,
//!   **verified** cached queries plus prepared executes; a settle pass
//!   re-verifies both paths against the final epoch after the writers
//!   finish. Each writer round deliberately stages one *shared* marker row
//!   across all writers, so first-committer-wins MVCC validation fires on
//!   every multi-writer round: exactly one writer wins the marker, the
//!   losers observe [`crate::CommitError::Conflict`] and retry their
//!   private rows — the report's `conflicts` counter proves the collisions
//!   happened and `ingested_rows` counts only what actually committed. On a
//!   durable session ([`crate::Session::open_durable`]) the report also
//!   carries the WAL counter deltas, where `syncs < records` under
//!   concurrent writers shows group commit amortizing the fsyncs.
//!
//! Inter- and intra-query parallelism compose: the `threads` argument here
//! is the number of concurrent *queries*, while
//! [`crate::SessionOptions::threads`] controls the morsel workers *inside*
//! each query's graph operators (and GLogue counting). A serving setup
//! typically uses many replay threads × few intra-query threads for
//! throughput, or the reverse for latency on heavy analytical queries.
//!
//! ## Worker errors
//!
//! The first error aborts the replay: an atomic abort flag stops the other
//! workers at their next query boundary, and the error is propagated in
//! worker order. Per-worker tallies only ever count *completed* queries,
//! so the session's cache-metric deltas stay consistent with the work that
//! actually ran — an aborted replay never reports planned-but-unexecuted
//! queries (and therefore never inflates a throughput computed from them).

use crate::ingest::IngestBatch;
use crate::prepared::PreparedStatement;
use crate::session::Session;
use relgo_cache::MetricsSnapshot;
use relgo_common::{RelGoError, Result, Value};
use relgo_core::OptimizerMode;
use relgo_metrics::{Histogram, HistogramSnapshot};
use relgo_workloads::templates::QueryTemplate;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How [`replay_concurrent_with`] drives each query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// Per query: parameterize, probe the plan cache, rebind
    /// ([`Session::run_cached`]).
    Cached,
    /// Prepare each template once, then rebind-only executes per draw.
    Prepared,
    /// Interleave writers and readers: `writers` concurrent writer threads
    /// publish `commits` epoch-publishing batches of `ops_per_commit`
    /// private rows each (disjoint primary-key ranges per batch), while
    /// `threads` reader threads serve the templates — every cached read is
    /// pinned to an epoch snapshot and **verified** against a fresh
    /// optimization on the same snapshot (a divergence aborts the replay),
    /// and every round also fires a prepared execute so commits exercise
    /// pin invalidation.
    ///
    /// Writers proceed in rounds (one commit per writer per round) and
    /// every round's batches additionally stage one *shared* marker row, so
    /// on a multi-writer round the commits provably race: exactly one
    /// writer wins the marker, the losers observe the retryable
    /// [`crate::CommitError::Conflict`] (counted in
    /// [`ReplayReport::conflicts`]) and re-commit their private rows
    /// without it. After the threads join, a final verified cached+prepared
    /// pass per template runs against the settled epoch. Requires an
    /// SNB-shaped session.
    Mixed {
        /// Ingest commits published across all writers.
        commits: usize,
        /// Private rows per commit (≥ 1; a winning round commit carries one
        /// extra marker row).
        ops_per_commit: usize,
        /// Concurrent writer threads (≥ 1).
        writers: usize,
    },
}

impl ServeMode {
    /// Short display name (report tables).
    pub fn name(&self) -> &'static str {
        match self {
            ServeMode::Cached => "cached",
            ServeMode::Prepared => "prepared",
            ServeMode::Mixed { .. } => "mixed",
        }
    }
}

/// What one replay run did.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Queries that **completed** (threads × rounds × templates when no
    /// worker failed).
    pub queries: usize,
    /// Wall time of the whole replay.
    pub elapsed: Duration,
    /// Sum of per-query optimizer time (rebind time on hits).
    pub opt_time: Duration,
    /// Sum of per-query execution time.
    pub exec_time: Duration,
    /// Queries answered without the optimizer (plan-cache hit or pinned
    /// prepared skeleton).
    pub cached_queries: usize,
    /// Queries served through a prepared handle (0 in [`ServeMode::Cached`]).
    pub prepared_queries: usize,
    /// Ingest commits published (0 outside [`ServeMode::Mixed`]).
    pub commits: usize,
    /// Rows actually committed by the writers — staged rows of batches that
    /// lost a write conflict are *not* counted until their retry commits (0
    /// outside [`ServeMode::Mixed`]).
    pub ingested_rows: usize,
    /// First-committer-wins losses observed (and retried) by the writers
    /// (0 outside multi-writer [`ServeMode::Mixed`]).
    pub conflicts: usize,
    /// WAL counter deltas over the replay on a durable session (`None`
    /// otherwise). `syncs < records` under concurrent writers is group
    /// commit amortizing the fsyncs.
    pub wal: Option<relgo_delta::wal::WalStats>,
    /// Plan-cache metric deltas over the replay (hits/misses/invalidations/
    /// prepared invalidations as a snapshot diff — mixed-mode figures read
    /// cache behavior off this).
    pub metrics: MetricsSnapshot,
    /// Per-query end-to-end latency distribution over the replay
    /// (optimizer plus execution per query). `latency.p50()` /
    /// `latency.p99()` are the serving-mode figures' reporting unit.
    pub latency: HistogramSnapshot,
}

impl ReplayReport {
    /// Completed queries per second of wall time.
    pub fn throughput(&self) -> f64 {
        self.queries as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Median per-query latency (`None` when no query completed).
    pub fn p50(&self) -> Option<Duration> {
        self.latency.p50()
    }

    /// 99th-percentile per-query latency (`None` when no query completed or
    /// the tail fell into the overflow bucket).
    pub fn p99(&self) -> Option<Duration> {
        self.latency.p99()
    }
}

/// Counters for one unit of completed serving work — also the shape of a
/// whole worker's tally, so one `merge` covers both accumulations.
#[derive(Default)]
struct Counts {
    completed: usize,
    cached: usize,
    prepared: usize,
    commits: usize,
    ingested: usize,
    conflicts: usize,
    opt: Duration,
    exec: Duration,
}

impl Counts {
    fn merge(&mut self, o: &Counts) {
        self.completed += o.completed;
        self.cached += o.cached;
        self.prepared += o.prepared;
        self.commits += o.commits;
        self.ingested += o.ingested;
        self.conflicts += o.conflicts;
        self.opt += o.opt;
        self.exec += o.exec;
    }
}

/// Per-worker tally of completed work (queries that failed are *not*
/// counted — see the module docs on worker errors).
#[derive(Default)]
struct Tally {
    counts: Counts,
    error: Option<RelGoError>,
}

/// Replay `rounds` rounds of every template from `threads` worker threads
/// against one shared session under `mode`, through the plan cache
/// ([`ServeMode::Cached`]). See [`replay_concurrent_with`].
pub fn replay_concurrent(
    session: &Session,
    templates: &[QueryTemplate],
    mode: OptimizerMode,
    threads: usize,
    rounds: usize,
) -> Result<ReplayReport> {
    replay_concurrent_with(session, templates, mode, threads, rounds, ServeMode::Cached)
}

/// Replay `rounds` rounds of every template from `threads` worker threads
/// against one shared session under `mode`, serving through `serve`.
///
/// Worker `w`'s draw for round `r` is `w * rounds + r`, so literals vary
/// across workers and rounds while template structure repeats — the plan
/// cache's (and the prepared handles') intended traffic. The first worker
/// error aborts the replay.
pub fn replay_concurrent_with(
    session: &Session,
    templates: &[QueryTemplate],
    mode: OptimizerMode,
    threads: usize,
    rounds: usize,
    serve: ServeMode,
) -> Result<ReplayReport> {
    let threads = threads.max(1);
    let rounds = rounds.max(1);
    let before = session.cache_metrics();
    let wal_before = session.wal_stats();
    // Per-query latency distribution, recorded by every worker (the
    // session's registry sees the same durations through its own
    // `relgo_query_seconds` histograms; this one is scoped to the replay).
    let latency = Histogram::latency();
    let start = Instant::now();

    // Prepared regimes: one shared handle per template, prepared from the
    // draw-0 instance before any worker starts (so workers never optimize).
    let statements: Vec<PreparedStatement<'_>> = match serve {
        ServeMode::Cached => Vec::new(),
        ServeMode::Prepared | ServeMode::Mixed { .. } => templates
            .iter()
            .map(|t| session.prepare(&t.instantiate(0)?, mode))
            .collect::<Result<_>>()?,
    };
    // Mixed mode: writers commit in rounds, synchronized per round by a
    // barrier *between staging and committing*, so every batch of a round
    // shares a base epoch that predates the round's first publish — the
    // shared marker row then makes first-committer-wins validation fire
    // deterministically (one winner, `participants - 1` conflicts).
    let (mixed_commits, mixed_ops, mixed_writers) = match serve {
        ServeMode::Mixed {
            commits,
            ops_per_commit,
            writers,
        } => (commits, ops_per_commit.max(1), writers.max(1)),
        _ => (0, 1, 1),
    };
    let writer_rounds = mixed_commits.div_ceil(mixed_writers);
    let barriers: Vec<std::sync::Barrier> = (0..writer_rounds)
        .map(|r| {
            std::sync::Barrier::new(
                mixed_commits
                    .saturating_sub(r * mixed_writers)
                    .min(mixed_writers),
            )
        })
        .collect();

    let abort = AtomicBool::new(false);
    // Run one unit of serving work (one query, or the mixed mode's cached +
    // prepared pair) and record it; returns whether the worker should keep
    // going. Shared so the abort/tally/error bookkeeping cannot
    // diverge between the regimes: the abort check precedes the work, so
    // every unit that *ran* (and therefore touched session metrics) is
    // always tallied.
    let step = |tally: &mut Tally, work: &mut dyn FnMut() -> Result<Counts>| -> bool {
        if abort.load(Ordering::Acquire) {
            return false;
        }
        match work() {
            Ok(s) => {
                tally.counts.merge(&s);
                true
            }
            Err(e) => {
                abort.store(true, Ordering::Release);
                tally.error = Some(e);
                false
            }
        }
    };
    let worker = |w: usize| -> Tally {
        let mut tally = Tally::default();
        match serve {
            ServeMode::Cached => {
                'outer: for r in 0..rounds {
                    for t in templates {
                        let draw = (w * rounds + r) as u64;
                        let keep = step(&mut tally, &mut || {
                            let o = session.run_cached(&t.instantiate(draw)?, mode)?;
                            latency.record(o.e2e());
                            Ok(Counts {
                                completed: 1,
                                cached: usize::from(o.cached),
                                opt: o.opt.elapsed,
                                exec: o.exec_time,
                                ..Counts::default()
                            })
                        });
                        if !keep {
                            break 'outer;
                        }
                    }
                }
            }
            ServeMode::Prepared => {
                'outer: for r in 0..rounds {
                    for (t, stmt) in templates.iter().zip(&statements) {
                        let draw = (w * rounds + r) as u64;
                        let keep = step(&mut tally, &mut || {
                            let o = stmt.execute(&t.bindings(draw)?)?;
                            latency.record(o.e2e());
                            Ok(Counts {
                                completed: 1,
                                cached: usize::from(o.cached),
                                prepared: 1,
                                opt: o.opt.elapsed,
                                exec: o.exec_time,
                                ..Counts::default()
                            })
                        });
                        if !keep {
                            break 'outer;
                        }
                    }
                }
            }
            ServeMode::Mixed { .. } => {
                // Readers: every cached query pins an epoch snapshot and is
                // verified against a fresh optimization on that snapshot —
                // the writer may publish mid-replay, but never mid-query.
                'outer: for r in 0..rounds {
                    for (t, stmt) in templates.iter().zip(&statements) {
                        let draw = (w * rounds + r) as u64;
                        let keep = step(&mut tally, &mut || {
                            let snap = session.snapshot();
                            let q = t.instantiate(draw)?;
                            let o = snap.run_cached(&q, mode)?;
                            let expected = snap.run(&q, mode)?.table;
                            verified(&o.table, &expected, t.name(), draw, "cached")?;
                            // Unverified prepared execute: keeps pin
                            // invalidation traffic flowing under commits.
                            let p = stmt.execute(&t.bindings(draw)?)?;
                            latency.record(o.e2e());
                            latency.record(p.e2e());
                            Ok(Counts {
                                completed: 2,
                                cached: usize::from(o.cached) + usize::from(p.cached),
                                prepared: 1,
                                opt: o.opt.elapsed + p.opt.elapsed,
                                exec: o.exec_time + p.exec_time,
                                ..Counts::default()
                            })
                        });
                        if !keep {
                            break 'outer;
                        }
                    }
                }
            }
        }
        tally
    };
    // Mixed mode's writers: writer `w` commits chunk `r * writers + w` in
    // round `r`. All of a round's participants stage (marker included),
    // meet at the round barrier, then race to commit: the marker guarantees
    // exactly one winner, and each loser records its typed conflict and
    // retries with the private rows alone. A writer that saw the abort flag
    // (or failed) still waits on every barrier of rounds it participates
    // in, so peers never deadlock on a dead participant.
    let ingest_writer = |w: usize| -> Tally {
        let mut tally = Tally::default();
        let fail = |tally: &mut Tally, e: RelGoError| {
            abort.store(true, Ordering::Release);
            tally.error = Some(e);
        };
        for (r, barrier) in barriers.iter().enumerate() {
            let chunk = r * mixed_writers + w;
            if chunk >= mixed_commits {
                break; // not a participant of this round — nor of later ones
            }
            let staged = if abort.load(Ordering::Acquire) {
                None
            } else {
                match stage_chunk(session, mixed_ops, chunk, r, true) {
                    Ok(batch) => Some(batch),
                    Err(e) => {
                        fail(&mut tally, e);
                        None
                    }
                }
            };
            barrier.wait();
            let Some(batch) = staged else {
                continue; // keep meeting later barriers after an abort
            };
            match batch.commit() {
                Ok(report) => {
                    tally.counts.commits += 1;
                    tally.counts.ingested += report.inserted + report.deleted;
                }
                Err(e) if e.is_conflict() => {
                    tally.counts.conflicts += 1;
                    // Lost the marker race: re-stage against the current
                    // epoch without the marker. The private rows are
                    // disjoint from every other batch, so the retry must
                    // eventually validate — the jittered backoff
                    // de-synchronizes this writer from the other losers of
                    // the same round (per-writer seed), and rebasing covers
                    // losing further races to *them* meanwhile.
                    let policy = crate::ingest::RetryPolicy {
                        seed: w as u64,
                        ..crate::ingest::RetryPolicy::default()
                    };
                    match stage_chunk(session, mixed_ops, chunk, r, false)
                        .and_then(|b| b.commit_with_retry(policy).map_err(RelGoError::from))
                    {
                        Ok(report) => {
                            tally.counts.commits += 1;
                            tally.counts.ingested += report.inserted + report.deleted;
                        }
                        Err(e) => fail(&mut tally, e),
                    }
                }
                Err(e) => fail(&mut tally, RelGoError::from(e)),
            }
        }
        tally
    };

    let mut tallies: Vec<Tally> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..threads)
            .map(|w| scope.spawn(move || worker(w)))
            .collect();
        let writer_ref = &ingest_writer;
        let writers: Vec<_> = matches!(serve, ServeMode::Mixed { .. })
            .then(|| {
                (0..mixed_writers)
                    .map(|w| scope.spawn(move || writer_ref(w)))
                    .collect::<Vec<_>>()
            })
            .unwrap_or_default();
        readers
            .into_iter()
            .chain(writers)
            .map(|h| {
                h.join().unwrap_or_else(|_| Tally {
                    error: Some(RelGoError::execution("replay worker panicked")),
                    ..Tally::default()
                })
            })
            .collect()
    });

    // Mixed mode's settle pass: with the writer done, verify that the
    // cached and prepared paths serve the final epoch correctly (the last
    // commit left every pin stale, so this also exercises transparent
    // re-optimization).
    if matches!(serve, ServeMode::Mixed { .. }) && tallies.iter().all(|t| t.error.is_none()) {
        let mut tally = Tally::default();
        for (t, stmt) in templates.iter().zip(&statements) {
            let keep = step(&mut tally, &mut || {
                let draw = (threads * rounds) as u64;
                let snap = session.snapshot();
                let q = t.instantiate(draw)?;
                let expected = snap.run(&q, mode)?.table;
                let c = snap.run_cached(&q, mode)?;
                verified(&c.table, &expected, t.name(), draw, "settled cached")?;
                let p = stmt.execute(&t.bindings(draw)?)?;
                verified(&p.table, &expected, t.name(), draw, "settled prepared")?;
                latency.record(c.e2e());
                latency.record(p.e2e());
                Ok(Counts {
                    completed: 2,
                    cached: usize::from(c.cached) + usize::from(p.cached),
                    prepared: 1,
                    opt: c.opt.elapsed + p.opt.elapsed,
                    exec: c.exec_time + p.exec_time,
                    ..Counts::default()
                })
            });
            if !keep {
                break;
            }
        }
        tallies.push(tally);
    }

    let elapsed = start.elapsed();
    let mut report = ReplayReport {
        queries: 0,
        elapsed,
        opt_time: Duration::ZERO,
        exec_time: Duration::ZERO,
        cached_queries: 0,
        prepared_queries: 0,
        commits: 0,
        ingested_rows: 0,
        conflicts: 0,
        wal: match (wal_before, session.wal_stats()) {
            (Some(b), Some(a)) => Some(a.since(&b)),
            _ => None,
        },
        metrics: session.cache_metrics().since(&before),
        latency: latency.snapshot(),
    };
    let mut first_error = None;
    for tally in tallies {
        report.queries += tally.counts.completed;
        report.cached_queries += tally.counts.cached;
        report.prepared_queries += tally.counts.prepared;
        report.commits += tally.counts.commits;
        report.ingested_rows += tally.counts.ingested;
        report.conflicts += tally.counts.conflicts;
        report.opt_time += tally.counts.opt;
        report.exec_time += tally.counts.exec;
        if first_error.is_none() {
            first_error = tally.error;
        }
    }
    match first_error {
        Some(e) => Err(e),
        None => Ok(report),
    }
}

/// Stage one mixed-mode writer batch for global chunk index `chunk`: `ops`
/// private rows, optionally plus round `round`'s *shared* marker row.
/// Private Person ids and Knows edge ids live in high per-chunk-disjoint
/// ranges, and the Knows edges connect small base-person ids only, so a
/// chunk's validity never depends on which other chunks committed before
/// it — chunks may commit in any interleaving.
fn stage_chunk<'s>(
    session: &'s Session,
    ops: usize,
    chunk: usize,
    round: usize,
    with_marker: bool,
) -> Result<IngestBatch<'s>> {
    const PERSON_BASE: i64 = 10_000_000;
    const EDGE_BASE: i64 = 20_000_000;
    const MARKER_BASE: i64 = 90_000_000;
    let mut batch = session.begin_ingest();
    for i in 0..ops {
        let key = (chunk * ops + i) as i64;
        if i % 3 == 2 {
            batch.insert_edge(
                "Knows",
                vec![
                    (EDGE_BASE + key).into(),
                    ((i % 5) as i64).into(),
                    ((i % 7) as i64 + 5).into(),
                    Value::Date(18_000 + key),
                ],
            )?;
        } else {
            batch.insert_row(
                "Person",
                vec![
                    (PERSON_BASE + key).into(),
                    Value::str(format!("c{chunk}i{i}")),
                    Value::Date(18_000 + key),
                ],
            )?;
        }
    }
    if with_marker {
        batch.insert_row(
            "Person",
            vec![
                (MARKER_BASE + round as i64).into(),
                Value::str(format!("marker{round}")),
                Value::Date(18_000),
            ],
        )?;
    }
    Ok(batch)
}

/// Row check for the mixed mode's verified reads: the result *multiset*
/// must match. Order is compared sorted on purpose — a cached skeleton may
/// have been optimized under a racing epoch's statistics, which can legally
/// pick a different join order (hence row order) than a fresh optimization
/// on the pinned snapshot, while the rows themselves must be identical.
/// (Bit-exact order identity between the regimes on a *quiescent* session
/// is separately enforced by `tests/ingest_differential.rs`.)
fn verified(
    got: &relgo_storage::Table,
    expected: &relgo_storage::Table,
    template: &str,
    draw: u64,
    what: &str,
) -> Result<()> {
    if got.sorted_rows() == expected.sorted_rows() {
        Ok(())
    } else {
        Err(RelGoError::execution(format!(
            "mixed replay divergence: {template} draw {draw} ({what}) returned {} rows vs {}",
            got.num_rows(),
            expected.num_rows()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionOptions;
    use relgo_workloads::snb_queries;
    use relgo_workloads::templates::snb_templates;

    #[test]
    fn replay_composes_with_intra_query_threads() {
        let opts = SessionOptions {
            threads: 2,
            ..SessionOptions::default()
        };
        let (session, schema) = Session::snb_with(0.03, 42, opts).unwrap();
        let templates = snb_templates(&schema);
        for t in &templates {
            session
                .run_cached(&t.instantiate(0).unwrap(), OptimizerMode::RelGo)
                .unwrap();
        }
        // 2 replay workers × 2 morsel workers inside each query.
        let report = replay_concurrent(&session, &templates, OptimizerMode::RelGo, 2, 2).unwrap();
        assert_eq!(report.queries, 2 * 2 * templates.len());
        assert_eq!(report.cached_queries, report.queries);
        assert_eq!(report.prepared_queries, 0);
    }

    #[test]
    fn replay_is_contention_safe_and_mostly_cached() {
        let (session, schema) = Session::snb(0.03, 42).unwrap();
        let templates = snb_templates(&schema);
        // Prime single-threaded so the concurrent phase is deterministic.
        for t in &templates {
            session
                .run_cached(&t.instantiate(0).unwrap(), OptimizerMode::RelGo)
                .unwrap();
        }
        let report = replay_concurrent(&session, &templates, OptimizerMode::RelGo, 4, 3).unwrap();
        assert_eq!(report.queries, 4 * 3 * templates.len());
        assert_eq!(report.metrics.hits as usize, report.queries);
        assert_eq!(report.metrics.misses, 0);
        assert_eq!(report.cached_queries, report.queries);
        assert!(report.throughput() > 0.0);
        assert!(report.p99().is_some(), "finite p99 latency");
    }

    #[test]
    fn prepared_replay_is_rebind_only_and_row_identical() {
        let (session, schema) = Session::snb(0.03, 42).unwrap();
        let templates = snb_templates(&schema);
        let (threads, rounds) = (3, 2);
        let report = replay_concurrent_with(
            &session,
            &templates,
            OptimizerMode::RelGo,
            threads,
            rounds,
            ServeMode::Prepared,
        )
        .unwrap();
        let expected = threads * rounds * templates.len();
        assert_eq!(report.queries, expected);
        assert_eq!(report.prepared_queries, expected);
        assert_eq!(report.cached_queries, expected, "{:?}", report.metrics);
        assert_eq!(report.metrics.prepared_hits as usize, expected);
        assert!(report.p99().is_some(), "finite p99 latency");
        // Preparation probed the cache once per template; no query paid a
        // probe after that.
        assert_eq!(
            report.metrics.hits + report.metrics.misses,
            templates.len() as u64
        );
    }

    /// Mixed mode: concurrent writers' commits interleave with verified
    /// reads and prepared executes; zero divergences, exact conflict and
    /// committed-row accounting, every commit observed as a cache
    /// invalidation, and the post-commit pin staleness shows up as prepared
    /// invalidations.
    #[test]
    fn mixed_replay_ingests_while_serving_verified_reads() {
        let (session, schema) = Session::snb(0.03, 42).unwrap();
        let templates = snb_templates(&schema);
        let (threads, rounds, commits, ops, writers) = (2, 2, 3, 5, 2);
        let before = session.cache_metrics();
        let report = replay_concurrent_with(
            &session,
            &templates,
            OptimizerMode::RelGo,
            threads,
            rounds,
            ServeMode::Mixed {
                commits,
                ops_per_commit: ops,
                writers,
            },
        )
        .unwrap();
        // Every chunk publishes exactly once (winners directly, losers via
        // retry), so the epoch count is exact even though batches raced.
        assert_eq!(report.commits, commits);
        assert_eq!(session.epoch(), commits as u64);
        // 3 commits over 2 writers → 2 rounds: round 0 races 2 writers
        // (1 conflict), round 1 has a single participant (0 conflicts).
        let writer_rounds = commits.div_ceil(writers);
        assert_eq!(report.conflicts, commits - writer_rounds);
        // `ingested_rows` counts committed rows only: every chunk's private
        // rows plus exactly one marker per round — the losers' staged
        // markers never commit and are not counted.
        assert_eq!(report.ingested_rows, commits * ops + writer_rounds);
        assert!(report.wal.is_none(), "session is not durable");
        // Readers: 2 queries per (worker, round, template); settle pass
        // adds 2 more per template.
        let expected = 2 * threads * rounds * templates.len() + 2 * templates.len();
        assert_eq!(report.queries, expected);
        assert!(report.prepared_queries >= templates.len());
        let delta = session.cache_metrics().since(&before);
        assert!(
            delta.invalidations >= commits as u64,
            "every commit bumps the statistics version: {delta:?}"
        );
        assert!(
            delta.prepared_invalidations >= 1,
            "a stale pin re-optimized after a commit: {delta:?}"
        );
        // The ingested rows are visible afterwards.
        let persons = session.db().table("Person").unwrap().num_rows();
        assert!(persons > 1000 * 3 / 100, "base persons plus inserts");
    }

    /// Durable mixed mode: ≥2 writer threads against a WAL-backed session.
    /// The report carries WAL durability accounting, and recovering the log
    /// over the same base reproduces the live session's epoch and tables
    /// exactly.
    #[test]
    fn durable_mixed_replay_recovers_bit_identically() {
        use relgo_datagen::{generate_snb, SnbParams};
        use relgo_workloads::snb_queries::SnbSchema;

        let wal_path =
            std::env::temp_dir().join(format!("relgo_serve_durable_{}.wal", std::process::id()));
        std::fs::remove_file(&wal_path).ok();
        let params = SnbParams { sf: 0.03, seed: 42 };
        let (db, mapping) = generate_snb(&params);
        let (session, recovered) = Session::open_durable(
            db,
            mapping,
            SessionOptions::default(),
            &wal_path,
            relgo_delta::wal::WalOptions::default(),
        )
        .unwrap();
        assert!(session.is_durable());
        assert_eq!(recovered.records, 0, "fresh log");
        let schema = SnbSchema::resolve(session.view().schema()).unwrap();
        let templates = snb_templates(&schema);

        let (commits, ops, writers) = (4, 3, 2);
        let report = replay_concurrent_with(
            &session,
            &templates,
            OptimizerMode::RelGo,
            2,
            2,
            ServeMode::Mixed {
                commits,
                ops_per_commit: ops,
                writers,
            },
        )
        .unwrap();
        assert_eq!(report.commits, commits);
        let wal = report.wal.expect("durable session reports WAL stats");
        assert_eq!(
            wal.records, commits as u64,
            "one WAL record per published commit (losing batches append nothing)"
        );
        assert!(wal.syncs >= 1 && wal.syncs <= wal.records);
        assert_eq!(session.wal_stats().unwrap().records, commits as u64);

        // Crash-free recovery: replaying the log over the same base
        // reproduces the live state.
        let (db, mapping) = generate_snb(&params);
        let (recovered_session, rec) = Session::recover(db, mapping, &wal_path).unwrap();
        assert_eq!(rec.records, commits);
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(recovered_session.epoch(), session.epoch());
        for name in ["Person", "Knows", "Likes"] {
            let live = session.db().table(name).unwrap().sorted_rows();
            let back = recovered_session.db().table(name).unwrap().sorted_rows();
            assert_eq!(live, back, "{name} survives recovery bit-identically");
        }
        std::fs::remove_file(&wal_path).ok();
    }

    /// Satellite regression: a template failing mid-replay aborts with the
    /// original error, and the metric deltas only reflect queries that
    /// actually ran — nothing is counted "before error propagation".
    #[test]
    fn worker_error_aborts_with_consistent_metrics() {
        let (session, schema) = Session::snb(0.03, 42).unwrap();
        let good = QueryTemplate::new("good", move |d| {
            snb_queries::ic1(&schema, 2, (d % 20) as i64)
        });
        let failing = QueryTemplate::new("failing", move |d| {
            if d >= 2 {
                Err(RelGoError::execution("synthetic template failure"))
            } else {
                snb_queries::ic7(&schema, (d % 20) as i64)
            }
        });
        let templates = vec![good, failing];
        let before = session.cache_metrics();
        // threads=1 makes the abort point deterministic: rounds 0 and 1
        // complete both templates (4 queries), round 2 completes `good` and
        // then `failing` errors at draw 2.
        let err = replay_concurrent(&session, &templates, OptimizerMode::RelGo, 1, 4).unwrap_err();
        assert!(
            err.to_string().contains("synthetic template failure"),
            "{err}"
        );
        let delta = session.cache_metrics().since(&before);
        assert_eq!(
            delta.hits + delta.misses,
            5,
            "exactly the completed queries touched the cache: {delta:?}"
        );
        // The replay still serves correctly afterwards (no poisoned state).
        let report =
            replay_concurrent(&session, &templates[..1], OptimizerMode::RelGo, 2, 2).unwrap();
        assert_eq!(report.queries, 4);
    }

    /// A failing query (not a failing instantiate) mid-replay also aborts
    /// cleanly in the prepared regime.
    #[test]
    fn prepared_replay_propagates_binding_errors() {
        let (session, schema) = Session::snb(0.03, 42).unwrap();
        let t = QueryTemplate::new("bad-bindings", move |d| {
            snb_queries::ic1(&schema, 2, (d % 20) as i64)
        })
        // IC1 has one slot; wrong arity from draw 3 on: execute must reject it.
        .with_bindings(|d| {
            if d >= 3 {
                vec![]
            } else {
                vec![relgo_common::Value::Int((d % 20) as i64)]
            }
        });
        let before = session.cache_metrics();
        let err = replay_concurrent_with(
            &session,
            &[t],
            OptimizerMode::RelGo,
            1,
            4,
            ServeMode::Prepared,
        )
        .unwrap_err();
        assert!(err.to_string().contains("arity"), "{err}");
        // Draws 0–2 ran and each counted one prepared hit; the rejected
        // draw 3 counted nothing.
        assert_eq!(session.cache_metrics().since(&before).prepared_hits, 3);
    }
}
