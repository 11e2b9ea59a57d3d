//! `snb_ingest_mixed`: the layers of the serving workloads used the other
//! way round. Every commit invalidates the plan cache (the miss and
//! re-optimize path instead of the hit path), GLogue refreshes
//! incrementally instead of counting cold, the graph index runs
//! `rebuild_delta` instead of `build`, and reads run between writes — so a
//! gain bought for the hit path or the bulk build at the cost of these
//! shows here.
//!
//! One thread, a deterministic interleave, so cache and WAL counts repeat
//! exactly: each round is one 64-row commit from `snb_update_stream`
//! followed by 15 `run_cached` reads (5 templates × 3 draws). Rounds run
//! for 70 % of the window, then one explicit `checkpoint()`, then exactly
//! 100 more rounds; then the session is dropped and `open_durable` loads
//! the checkpoint and replays that 100-record tail.

use crate::layers::{self, Dataset, TraceAcc};
use crate::spec::Ledger;
use crate::stats::Samples;
use crate::util::{
    millis, peak_rss_mb, secs, session_options, tables_identical, timed, Rng, RunArgs, ScratchDir,
    Tally,
};
use crate::{Res, RunOutput};
use relgo::datagen::{snb_update_stream, UpdateOp};
use relgo::delta::checkpoint::{decode_checkpoint, encode_checkpoint};
use relgo::delta::{refresh_view, DeltaSet};
use relgo::graph::GraphIndex;
use relgo::prelude::*;
use relgo::workloads::snb_queries::SnbSchema;
use relgo::workloads::templates::snb_templates;
use relgo::RecoveryReport;
use std::path::Path;
use std::time::Instant;

const DATASET: Dataset = Dataset::Snb(10.0);
const MODE: OptimizerMode = OptimizerMode::RelGo;
const SETUPS: usize = 3;
const ROWS_PER_COMMIT: usize = 64;
/// Three, not two: with one miss and one hit per template the pooled median
/// of the reads sits on the edge between the two populations and jumps from
/// run to run; with two hits per miss it sits among the hits.
const DRAWS_PER_TEMPLATE: usize = 3;
/// Rounds after the checkpoint: the WAL tail recovery replays.
const TAIL_ROUNDS: usize = 100;
/// Share of the window spent before the checkpoint.
const HEAD_SHARE: f64 = 0.7;
/// Upper limit on rounds, which sizes the update stream drawn up front.
const MAX_ROUNDS: usize = 4000;
/// Every this many rounds the round's 15 reads are also answered by the
/// other optimizer family and compared.
const VERIFY_EVERY: usize = 25;
/// The rounds whose operator rows, Q-errors and plans visited are summed:
/// the window always runs more than this many (the tail alone is 100), and
/// what they ask is fixed by the seed, so the sums repeat exactly however
/// long the window ran.
const COUNTED_ROUNDS: usize = 100;
/// Restarts a traced run times after the window; each loads the checkpoint
/// and replays the same tail. The first is held to the live session's state.
const RESTARTS: usize = 3;

/// Plan-cache counter deltas a window of `rounds` rounds must produce, in
/// closed form. Each commit bumps the statistics version once; after it the
/// first read of each template finds a stale entry (a miss that
/// re-optimizes and re-inserts) and every further read of it hits.
pub fn expected_cache_counts(rounds: u64, templates: u64, draws_per_template: u64) -> [u64; 3] {
    let hits = rounds * templates * (draws_per_template - 1);
    let misses = rounds * templates;
    let invalidations = rounds;
    [hits, misses, invalidations]
}

fn open(wal: &Path, data_seed: u64) -> Res<(Session, SnbSchema, RecoveryReport)> {
    let (db, mapping) = DATASET.generate(data_seed);
    let (session, report) =
        Session::open_durable(db, mapping, session_options(), wal, WalOptions::default())?;
    let schema = SnbSchema::resolve(session.view().schema())?;
    Ok((session, schema, report))
}

fn commit_round(session: &Session, ops: &[UpdateOp]) -> Res<relgo::IngestReport> {
    let mut batch = session.begin_ingest();
    for op in ops {
        batch.insert_row(&op.table, op.row.clone())?;
    }
    Ok(batch.commit()?)
}

pub fn run(args: RunArgs) -> Res<RunOutput> {
    let scratch = ScratchDir::create("snb_ingest_mixed")?;
    let mut tally = Tally::default();
    let mut ledger = Ledger::default();

    // Set-up: datagen + open_durable on an empty WAL directory.
    let mut setup_s = Samples::default();
    let mut opened = None;
    let setups = if args.smoke { 1 } else { SETUPS };
    for k in 0..setups {
        drop(opened.take());
        let dir = scratch.path().join(format!("setup{k}"));
        std::fs::create_dir_all(&dir)?;
        let wal = dir.join("wal");
        let (d, session) = timed(|| open(&wal, args.data_seed));
        let (session, schema, report) = session?;
        setup_s.push(secs(d));
        tally.check(report.records == 0 && !report.checkpoint_loaded, || {
            "a fresh WAL directory recovered something".to_string()
        });
        opened = Some((session, schema, wal));
    }
    let (session, schema, wal) = opened.expect("at least one set-up");
    let templates = snb_templates(&schema);
    let ops = snb_update_stream(&session.db(), args.seed, (MAX_ROUNDS + 1) * ROWS_PER_COMMIT)?;
    let mut rng = Rng::new(args.seed);

    let mut commit_ms = Samples::default();
    let mut refresh_ms = Samples::default();
    let mut wal_ms = Samples::default();
    let mut read_ms = Samples::default();
    let mut profiled_read_ms = Samples::default();
    let mut acc = TraceAcc::default();
    // Wall of the commits and the reads, the whole window; checking an
    // answer against the other optimizer is the benchmark's own cost.
    let mut busy_s = 0.0;
    let mut cached_patterns = 0;
    let mut checkpoint = None;
    let cache_before = session.cache_metrics();
    let wal_before = session
        .wal_stats()
        .ok_or("a durable session has WAL stats")?;

    let tail_rounds = if args.smoke { 3 } else { TAIL_ROUNDS };
    let window = Instant::now();
    let mut rounds = 0usize;
    let mut tail_done = 0;
    while tail_done < tail_rounds {
        let head_over = rounds + tail_rounds >= MAX_ROUNDS
            || if args.smoke {
                rounds >= 2
            } else {
                rounds >= 1 && window.elapsed().as_secs_f64() >= args.seconds * HEAD_SHARE
            };
        if checkpoint.is_none() && head_over {
            let (d, report) = timed(|| session.checkpoint());
            let report = report?;
            tally.check(report.epoch == rounds as u64, || {
                format!(
                    "checkpoint took epoch {} after {rounds} rounds",
                    report.epoch
                )
            });
            checkpoint = Some((d, report));
        }
        tail_done += checkpoint.is_some() as usize;

        let batch = &ops[rounds * ROWS_PER_COMMIT..(rounds + 1) * ROWS_PER_COMMIT];
        let (d, report) = timed(|| commit_round(&session, batch));
        busy_s += secs(d);
        rounds += 1;
        match report {
            Ok(report) => {
                tally.check(
                    report.epoch == rounds as u64 && report.inserted == ROWS_PER_COMMIT,
                    || format!("round {rounds}: commit published {report:?}"),
                );
                commit_ms.push(millis(d));
                refresh_ms.push(millis(report.stats_time));
                wal_ms.push(millis(report.wal_time));
            }
            Err(e) => {
                tally.check(false, || format!("round {rounds}: commit failed: {}", e.0));
            }
        }

        let profiled = args.traced && rounds.is_multiple_of(2);
        acc.start_pass(profiled, rounds <= COUNTED_ROUNDS);
        let verify = rounds.is_multiple_of(VERIFY_EVERY) || args.smoke;
        for t in &templates {
            for _ in 0..DRAWS_PER_TEMPLATE {
                let query = t.instantiate(rng.next_u64() >> 1)?;
                let (d, result) = timed(|| -> Res<_> {
                    Ok(if profiled {
                        let (o, r) = session.run_cached_profiled(&query, MODE, None)?;
                        (o, Some(r))
                    } else {
                        (session.run_cached(&query, MODE)?, None)
                    })
                });
                busy_s += secs(d);
                match result {
                    Ok((outcome, report)) => {
                        let ok = !verify || {
                            let want = session.run(&query, OptimizerMode::DuckDbLike)?.table;
                            outcome.table.sorted_rows() == want.sorted_rows()
                        };
                        let ok = tally.check(ok, || {
                            format!("round {rounds}: {} differs from DuckDbLike", t.name())
                        });
                        if profiled {
                            profiled_read_ms.push(millis(d));
                        } else if ok {
                            read_ms.push(millis(d));
                        }
                        if args.traced {
                            acc.record(&outcome, d, report.as_ref());
                        }
                    }
                    Err(e) => {
                        tally.check(false, || format!("round {rounds}: {}: {}", t.name(), e.0));
                    }
                }
            }
        }
        if rounds == COUNTED_ROUNDS {
            cached_patterns = session.glogue().cached_patterns();
        }
    }
    // Memory of set-up and window; the restarts below also hold the live
    // tables to compare with, which is the checker's memory.
    let peak_rss = peak_rss_mb()?;
    let (checkpoint_d, checkpoint_report) = checkpoint.expect("the loop ends after a checkpoint");
    let mut checkpoint_s = Samples::default();
    checkpoint_s.push(secs(checkpoint_d));

    // Counters that must equal their closed form, WAL totals, and the live
    // state recovery is compared with.
    let cache = session.cache_metrics().since(&cache_before);
    let want = expected_cache_counts(
        rounds as u64,
        templates.len() as u64,
        DRAWS_PER_TEMPLATE as u64,
    );
    tally.check(
        [cache.hits, cache.misses, cache.invalidations] == want,
        || {
            format!(
                "plan cache counted hits/misses/invalidations {:?}, closed form {want:?}",
                [cache.hits, cache.misses, cache.invalidations]
            )
        },
    );
    let wal_stats = session
        .wal_stats()
        .ok_or("a durable session has WAL stats")?
        .since(&wal_before);
    let final_queries = templates
        .iter()
        .flat_map(|t| [t.instantiate(3), t.instantiate(11)])
        .collect::<Result<Vec<_>>>()?;
    let live_answers = final_queries
        .iter()
        .map(|q| Ok(session.run_cached(q, MODE)?.table))
        .collect::<Res<Vec<_>>>()?;
    let live_db = session.db();
    let total_rows = live_db.total_rows();

    if args.traced {
        trace_layers(
            &session,
            &final_queries,
            &ops[rounds * ROWS_PER_COMMIT..],
            &mut ledger,
        )?;
    }
    drop(session);

    // Restart: drop → open_durable returns (checkpoint load + tail replay),
    // then the first pass of reads on the recovered session.
    let mut recover_s = Samples::default();
    let mut restart_s = Samples::default();
    let mut replay_ms_per_record = 0.0;
    // An untraced run restarts once, for the checks; a traced run times
    // [`RESTARTS`] of them.
    for restart in 0..if args.traced { RESTARTS } else { 1 } {
        let (db, mapping) = DATASET.generate(args.data_seed);
        let start = Instant::now();
        let (recovered, report) =
            Session::open_durable(db, mapping, session_options(), &wal, WalOptions::default())?;
        recover_s.push(secs(start.elapsed()));
        let answers = final_queries
            .iter()
            .map(|q| Ok(recovered.run_cached(q, MODE)?.table))
            .collect::<Res<Vec<_>>>()?;
        restart_s.push(secs(start.elapsed()));
        replay_ms_per_record = millis(report.replay_time) / report.records.max(1) as f64;
        if args.traced && restart + 1 == RESTARTS {
            // A checkpoint is a write and an fsync of 150 MB, and one alone
            // spreads by a third from run to run. Two more of the same
            // state, on the last recovered session, where it no longer
            // matters what they compact.
            for _ in 0..2 {
                let (d, report) = timed(|| recovered.checkpoint());
                report?;
                checkpoint_s.push(secs(d));
            }
        }
        if restart > 0 {
            continue;
        }
        tally.check(
            report.checkpoint_loaded
                && report.checkpoint_epoch == checkpoint_report.epoch
                && report.records == tail_rounds
                && recovered.epoch() == rounds as u64,
            || format!("recovery after {rounds} rounds reported {report:?}"),
        );
        check_recovered(
            &live_db,
            &live_answers,
            &recovered.db(),
            &answers,
            &mut tally,
        );
    }

    if args.smoke {
        return Ok(RunOutput::smoke(tally));
    }
    if !args.traced {
        ledger.set("setup_s", setup_s.median());
        ledger.set("query_ms_p50", crate::pooled_median(&read_ms)?);
        // Right reads over the wall of commits and reads, the whole window:
        // two thirds of it is commits, so commit cost shows here.
        ledger.set("queries_per_s", read_ms.len() as f64 / busy_s);
        ledger.set("peak_rss_mb", peak_rss);
        return Ok(RunOutput { tally, ledger });
    }

    crate::set_tail_percentiles(&mut ledger, &read_ms);
    ledger.set("ingest.commit_ms_p50", commit_ms.median());
    // Like the query tails: unset, and so 0, below 200 commits.
    if let Some(p95) = commit_ms.percentile(0.95) {
        ledger.set("ingest.commit_ms_p95", p95);
    }
    ledger.set("ingest.checkpoint_s", checkpoint_s.median());
    ledger.set("ingest.recover_s", recover_s.median());
    // Restart to first answers: what recovery costs a user.
    ledger.set("cold_pass_s", restart_s.min());
    ledger.set("glogue.refresh_ms", refresh_ms.median());
    ledger.set("delta.wal_ms", wal_ms.median());
    let rows_committed = (rounds * ROWS_PER_COMMIT) as f64;
    ledger.set(
        "delta.wal_bytes_per_row",
        wal_stats.bytes as f64 / rows_committed,
    );
    ledger.set(
        "delta.wal_syncs_per_commit",
        wal_stats.syncs as f64 / rounds as f64,
    );
    ledger.set(
        "delta.ckpt_bytes_per_row",
        checkpoint_report.bytes as f64 / total_rows as f64,
    );
    ledger.set("delta.replay_ms_per_record", replay_ms_per_record);
    let per_round = rounds as f64;
    ledger.set("cache.hits", cache.hits as f64 / per_round);
    ledger.set("cache.misses", cache.misses as f64 / per_round);
    ledger.set(
        "cache.invalidations",
        cache.invalidations as f64 / per_round,
    );
    ledger.set("cache.hit_ratio", cache.hit_ratio());
    acc.report(&mut ledger);
    // The live GLogue's cache after the counted rounds: what incremental
    // refresh kept plus what the post-commit misses recounted.
    ledger.set("glogue.cached_patterns", cached_patterns as f64);
    let unknown = acc.unknown_kinds();
    tally.check(unknown.is_empty(), || {
        format!("operator kinds without a metric: {unknown:?}")
    });
    ledger.set("bench.passes", rounds as f64);
    ledger.set("bench.query_samples", read_ms.len() as f64);
    ledger.set("bench.commit_samples", commit_ms.len() as f64);
    ledger.set("bench.untraced_wall_s", read_ms.mean() / 1e3);
    ledger.set("bench.traced_wall_s", profiled_read_ms.mean() / 1e3);
    if read_ms.mean() > 0.0 {
        ledger.set(
            "metrics.profile_overhead_ratio",
            profiled_read_ms.mean() / read_ms.mean(),
        );
    }
    let view = layers::setup_layers(DATASET, args.data_seed, &mut ledger)?;
    layers::storage_layers(DATASET, &view, &mut ledger)?;
    Ok(RunOutput { tally, ledger })
}

/// After a restart every table is bit-identical to the live session's last
/// epoch, and the final reads return the live rows.
fn check_recovered(
    live_db: &Database,
    live_answers: &[Table],
    recovered_db: &Database,
    answers: &[Table],
    tally: &mut Tally,
) {
    for table in live_db.tables() {
        let same = recovered_db
            .table(table.name())
            .is_ok_and(|t| tables_identical(table, t));
        tally.check(same, || {
            format!("table {} differs after recovery", table.name())
        });
    }
    for (i, (got, want)) in answers.iter().zip(live_answers).enumerate() {
        // Same rows; their order is the plan's, and the recovered session is
        // free to pick another plan.
        tally.check(got.sorted_rows() == want.sorted_rows(), || {
            format!("read {i} differs after recovery")
        });
    }
}

/// Direct calls into the write path and the miss path on the live session's
/// last epoch: one more 64-row delta applied by hand, the checkpoint codec,
/// and the request path the reads between commits took.
fn trace_layers(
    session: &Session,
    queries: &[SpjmQuery],
    next_ops: &[UpdateOp],
    ledger: &mut Ledger,
) -> Res<()> {
    let db = session.db();
    let view = session.view();
    let mut delta = DeltaSet::new();
    for op in &next_ops[..ROWS_PER_COMMIT] {
        delta.insert(&op.table, op.row.clone());
    }
    let (apply, applied) = timed(|| delta.apply(&db));
    let (mut merged, summary) = applied?;
    let (refresh, refreshed) = timed(|| refresh_view(&view, &mut merged, &summary));
    let refreshed = refreshed?;
    let prev_index = view.index().ok_or("the session's view has a graph index")?;
    let (rebuild, rebuilt) =
        timed(|| GraphIndex::rebuild_delta(prev_index, &refreshed, summary.map()));
    rebuilt?;
    ledger.set("delta.apply_ms", millis(apply));
    ledger.set("delta.refresh_view_ms", millis(refresh));
    ledger.set("graph.index_rebuild_delta_ms", millis(rebuild));

    let (encode, image) = timed(|| encode_checkpoint(session.epoch(), &db));
    let (decode, decoded) = timed(|| decode_checkpoint(&image));
    let (epoch, _) = decoded?;
    if epoch != session.epoch() {
        return Err(format!("checkpoint image decoded to epoch {epoch}").into());
    }
    ledger.set("delta.ckpt_encode_ms", millis(encode));
    ledger.set("delta.ckpt_decode_ms", millis(decode));

    layers::scrape_layer(session, ledger);
    let pairs: Vec<(SpjmQuery, SpjmQuery)> = queries
        .chunks(2)
        .map(|pair| (pair[0].clone(), pair[1].clone()))
        .collect();
    layers::request_path_layers(session, &pairs, MODE, ledger)?;
    let firsts: Vec<&SpjmQuery> = pairs.iter().map(|(q, _)| q).collect();
    ledger.set(
        "core.optimize_aware_us",
        layers::optimize_layer(session, &firsts, MODE)?,
    );
    layers::pattern_layers(&view, &firsts, ledger)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// "Corrupting one expected checksum makes the command fail", for the
    /// durable workload: recovery is held to the live session's tables and
    /// answers, and a live side that differs in one table or one answer
    /// fails exactly that check.
    #[test]
    fn recovery_held_to_a_spoiled_live_state_fails() {
        let small = Dataset::Snb(1.0);
        let (db, _) = small.generate(42);
        let (same, _) = small.generate(42);
        let (other, _) = small.generate(7);
        let answers: Vec<Table> = db.tables().take(2).map(|t| Table::clone(t)).collect();
        let mut spoiled_answers = answers.clone();
        spoiled_answers.swap(0, 1);

        let mut tally = Tally::default();
        check_recovered(&db, &answers, &same, &answers, &mut tally);
        assert!(tally.passed(), "{:?}", tally.first_failure);
        let checks = tally.attempted;
        assert_eq!(checks as usize, db.tables().count() + answers.len());

        check_recovered(&db, &spoiled_answers, &same, &answers, &mut tally);
        assert_eq!(tally.failed, 2, "the two swapped answers");
        check_recovered(&other, &answers, &same, &answers, &mut tally);
        assert!(tally.failed > 2, "tables of another dataset differ");
        assert_eq!(tally.attempted, 3 * checks);
        assert!(!tally.passed(), "and the run exits non-zero");
    }

    #[test]
    fn cache_counts_in_closed_form() {
        // 300 rounds of {commit, 5 templates × 3 draws}: each commit is one
        // invalidation; per round each template misses once, then hits.
        assert_eq!(expected_cache_counts(300, 5, 3), [3000, 1500, 300]);
        assert_eq!(expected_cache_counts(0, 5, 3), [0, 0, 0]);
        // One draw per template: every read follows a commit, none can hit.
        assert_eq!(expected_cache_counts(10, 5, 1), [0, 50, 10]);
        let [hits, misses, _] = expected_cache_counts(300, 5, 3);
        assert_eq!(hits + misses, 300 * 15, "every read is a hit or a miss");
    }
}
