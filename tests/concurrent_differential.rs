//! Concurrent oracle differential: ingest commits race with reads, and
//! every answer must equal the naive oracle's answer at the epoch the
//! outcome reports.
//!
//! One writer commits a dynamic-SNB update stream chunk by chunk while
//! reader threads cycle deterministically through all nine optimizer
//! modes × three serving regimes (`Snapshot::run`, `run_cached`, a shared
//! `PreparedStatement::execute`) × the five IC templates × a few draws.
//! The oracle's answers are computed up front on a second session that
//! applies the same chunks serially, so a reader answering from one epoch
//! while claiming another — or a cached / pinned plan that went wrong
//! across a commit — fails the comparison. The writer publishes chunk
//! `i + 1` only after the readers answered enough queries at epoch `i`,
//! so every epoch is served whatever the scheduler does.
//!
//! A second case runs two writers against a durable session and checks
//! group commit's WAL accounting and that recovery reproduces the live
//! state bit for bit.

use relgo::datagen::{generate_snb, snb_update_stream, SnbParams, UpdateOp};
use relgo::prelude::*;
use relgo::workloads::templates::snb_templates;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

const SF: f64 = 0.03;
const SEED: u64 = 42;
/// Epochs the writer publishes, one update-stream chunk each.
const EPOCHS: usize = 6;
/// Update-stream operations per chunk.
const OPS_PER_CHUNK: usize = 12;
/// Draws per template.
const DRAWS: usize = 3;
/// Concurrent reader threads.
const READERS: usize = 2;
/// Serving regimes each reader cycles through.
const REGIMES: usize = 3;

/// Sorted oracle rows, indexed `[epoch][template][draw]`.
type Expected = Vec<Vec<Vec<Vec<Vec<Value>>>>>;

/// The update stream over `session`'s data, split into one chunk per
/// epoch (any in-order split commits cleanly).
fn update_chunks(session: &Session) -> Vec<Vec<UpdateOp>> {
    snb_update_stream(&session.db(), 7, EPOCHS * OPS_PER_CHUNK)
        .unwrap()
        .chunks(OPS_PER_CHUNK)
        .map(<[UpdateOp]>::to_vec)
        .collect()
}

fn commit(session: &Session, chunk: &[UpdateOp]) {
    let mut batch = session.begin_ingest();
    for op in chunk {
        batch.insert_row(&op.table, op.row.clone()).unwrap();
    }
    batch.commit().unwrap();
}

/// Apply `chunks` serially to a fresh session and record the oracle's
/// answer to every (template, draw) at every epoch `0..=EPOCHS`.
fn oracle_answers(chunks: &[Vec<UpdateOp>]) -> Expected {
    let (oracle, schema) = Session::snb(SF, SEED).unwrap();
    let templates = snb_templates(&schema);
    let answers = |session: &Session| -> Vec<Vec<Vec<Vec<Value>>>> {
        let answer = |t: &QueryTemplate, draw: usize| {
            let q = t.instantiate(draw as u64).unwrap();
            session.oracle(&q).unwrap().sorted_rows()
        };
        templates
            .iter()
            .map(|t| (0..DRAWS).map(|d| answer(t, d)).collect())
            .collect()
    };
    let mut expected = vec![answers(&oracle)];
    for chunk in chunks {
        commit(&oracle, chunk);
        expected.push(answers(&oracle));
    }
    expected
}

/// Sets its flag when dropped — also when a panic unwinds the owner.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

fn serve_while_ingesting(threads: usize) {
    let options = SessionOptions {
        threads,
        ..SessionOptions::default()
    };
    let (session, schema) = Session::snb_with(SF, SEED, options).unwrap();
    let templates = snb_templates(&schema);
    let chunks = update_chunks(&session);
    let expected = oracle_answers(&chunks);
    let changed = (0..templates.len())
        .flat_map(|t| (0..DRAWS).map(move |d| (t, d)))
        .filter(|&(t, d)| expected[0][t][d] != expected[EPOCHS][t][d])
        .count();
    assert!(
        changed > 0,
        "the update stream changes no answer: the differential would be vacuous"
    );

    // One shared handle per (mode, template), prepared at epoch 0.
    let statements: Vec<Vec<PreparedStatement<'_>>> = OptimizerMode::ALL
        .iter()
        .map(|&mode| {
            templates
                .iter()
                .map(|t| session.prepare(&t.instantiate(0).unwrap(), mode).unwrap())
                .collect()
        })
        .collect();
    // Reader answers required at each epoch before the next one is
    // published: a whole cycle of (mode, regime, template, draw).
    let cycle = OptimizerMode::ALL.len() * REGIMES * templates.len() * DRAWS;
    let before = session.cache_metrics();
    let answered: Vec<AtomicUsize> = (0..=EPOCHS).map(|_| AtomicUsize::new(0)).collect();
    let done = AtomicBool::new(false);

    let (session, templates, statements, expected, answered, done) = (
        &session,
        &templates,
        &statements,
        &expected,
        &answered,
        &done,
    );
    let reader = move |first: usize| {
        for k in (first..).step_by(READERS) {
            if done.load(Ordering::Acquire) {
                break;
            }
            // Regime varies fastest, then mode, template and draw.
            let m = k / REGIMES % OptimizerMode::ALL.len();
            let t = k / (REGIMES * OptimizerMode::ALL.len()) % templates.len();
            let d = k / (REGIMES * OptimizerMode::ALL.len() * templates.len()) % DRAWS;
            let (mode, template) = (OptimizerMode::ALL[m], &templates[t]);
            let (regime, outcome) = match k % REGIMES {
                0 => {
                    let q = template.instantiate(d as u64).unwrap();
                    ("run", session.snapshot().run(&q, mode))
                }
                1 => {
                    let q = template.instantiate(d as u64).unwrap();
                    ("run_cached", session.run_cached(&q, mode))
                }
                _ => {
                    let bindings = template.bindings(d as u64).unwrap();
                    ("execute", statements[m][t].execute(&bindings))
                }
            };
            let outcome = outcome.unwrap();
            let epoch = outcome.epoch as usize;
            let oracle = &expected[epoch][t][d];
            assert!(
                outcome.table.sorted_rows() == *oracle,
                "{} draw {d} under {} via {regime} at epoch {epoch} differs from the oracle \
                 ({} rows vs {})",
                template.name(),
                mode.name(),
                outcome.table.num_rows(),
                oracle.len()
            );
            answered[epoch].fetch_add(1, Ordering::Release);
        }
    };

    std::thread::scope(|s| {
        let readers: Vec<_> = (0..READERS).map(|r| s.spawn(move || reader(r))).collect();
        // This thread is the writer; the readers stop however it leaves.
        let _stop = SetOnDrop(done);
        let serve = |epoch: usize| {
            while answered[epoch].load(Ordering::Acquire) < cycle {
                assert!(
                    readers.iter().any(|h| !h.is_finished()),
                    "every reader stopped before epoch {epoch} was served"
                );
                std::thread::yield_now();
            }
        };
        for (epoch, chunk) in chunks.iter().enumerate() {
            serve(epoch);
            commit(session, chunk);
        }
        serve(EPOCHS);
    });

    assert_eq!(session.epoch(), EPOCHS as u64);
    let delta = session.cache_metrics().since(&before);
    assert!(
        delta.invalidations >= EPOCHS as u64,
        "every commit invalidates: {delta:?}"
    );
    assert!(
        delta.prepared_invalidations >= 1,
        "a stale pin re-optimized after a commit: {delta:?}"
    );
}

#[test]
fn concurrent_reads_match_the_oracle_at_their_epoch() {
    serve_while_ingesting(1);
}

/// Inter- and intra-query parallelism composed: two reader threads, each
/// query running two morsel workers.
#[test]
fn concurrent_reads_match_the_oracle_with_intra_query_threads() {
    serve_while_ingesting(2);
}

/// Two writers commit disjoint chunks into a durable session: one WAL
/// record per commit, group commit never syncs more often than it
/// appends, and recovering the log over the same base reproduces the live
/// epoch and tables bit for bit.
#[test]
fn durable_concurrent_writers_recover_bit_identically() {
    let wal_path = std::env::temp_dir().join(format!(
        "relgo_concurrent_differential_{}.wal",
        std::process::id()
    ));
    std::fs::remove_file(&wal_path).ok();
    let params = SnbParams { sf: SF, seed: SEED };
    let (db, mapping) = generate_snb(&params);
    let (session, recovered) = Session::open_durable(
        db,
        mapping,
        SessionOptions::default(),
        &wal_path,
        WalOptions::default(),
    )
    .unwrap();
    assert_eq!(recovered.records, 0, "fresh log");

    // New persons, and knows edges between base persons only, so the
    // chunks commit cleanly in any interleaving.
    let stream = snb_update_stream(&session.db(), 7, EPOCHS * OPS_PER_CHUNK).unwrap();
    let new_persons: HashSet<&Value> = stream
        .iter()
        .filter(|op| op.table == "Person")
        .map(|op| &op.row[0])
        .collect();
    let ops: Vec<UpdateOp> = stream
        .iter()
        .filter(|op| op.table == "Person" || !op.row[1..3].iter().any(|p| new_persons.contains(p)))
        .cloned()
        .collect();
    let chunks: Vec<&[UpdateOp]> = ops.chunks(OPS_PER_CHUNK).collect();
    let wal_before = session.wal_stats().unwrap();
    std::thread::scope(|s| {
        for w in 0..2 {
            let (session, chunks) = (&session, &chunks);
            s.spawn(move || {
                for chunk in chunks.iter().skip(w).step_by(2) {
                    commit(session, chunk);
                }
            });
        }
    });
    let commits = chunks.len() as u64;
    assert_eq!(session.epoch(), commits);
    let wal = session.wal_stats().unwrap().since(&wal_before);
    assert_eq!(wal.records, commits, "one WAL record per commit: {wal:?}");
    assert!(wal.syncs >= 1 && wal.syncs <= wal.records, "{wal:?}");

    let (db, mapping) = generate_snb(&params);
    let (back, rec) = Session::recover(db, mapping, &wal_path).unwrap();
    assert_eq!(rec.records as u64, commits);
    assert_eq!(rec.truncated_bytes, 0);
    assert_eq!(back.epoch(), session.epoch());
    for name in ["Person", "Knows", "Likes"] {
        let live = session.db().table(name).unwrap().sorted_rows();
        let recovered = back.db().table(name).unwrap().sorted_rows();
        assert_eq!(live, recovered, "{name} survives recovery bit-identically");
    }
    std::fs::remove_file(&wal_path).ok();
}
