//! Crash-recovery differential harness for the write-ahead log.
//!
//! Each proptest case re-runs this test binary as a **child process** whose
//! WAL is armed with `WalOptions::crash_after_bytes`: after a randomized
//! byte budget, the next flush writes a torn prefix of the record, fsyncs
//! it, and `abort()`s — a power cut in the middle of a commit. The parent
//! then recovers the log into a fresh session (`Session::recover`) and
//! asserts:
//!
//! * the recovered state is the **committed prefix**: some `k ≤ commits`
//!   whole commits, never a partial one;
//! * tables and query results are bit-identical to a never-crashed oracle
//!   session that applies the same first `k` commits — across `run`,
//!   `run_cached` and prepared `execute`, under both optimizer modes;
//! * recovery is idempotent: a second open of the same log finds the same
//!   records and nothing left to truncate.
//!
//! The child re-enters through the `wal_child_entry` test below, selected
//! with `--exact`; with the env var unset (the normal suite) it no-ops.
//!
//! A second harness (`ckpt_child_entry` + `run_ckpt_crash_case`) kills the
//! *checkpointer* instead of the committer: the child takes one successful
//! checkpoint, commits more, then runs a checkpoint armed with
//! [`CheckpointCrash`] — aborting mid-temp-file-write (at a randomized byte
//! offset), after the full write but before the atomic rename, or after the
//! rename but before the WAL truncation. Recovery must restore **every**
//! committed epoch bit-identically in all three cases, falling back to the
//! earlier checkpoint when the doomed snapshot never became visible and
//! skipping already-covered log records when it did.

use proptest::prelude::*;
use relgo::prelude::*;
use relgo::workloads::templates::snb_templates;
use relgo::{CheckpointCrash, CheckpointStore};
use relgo_storage::Database;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// One deterministic delta operation (shared by the crashing child and the
/// never-crashed oracle, so both replay the exact same stream).
enum Op {
    Insert(&'static str, Vec<Value>),
    Delete(&'static str, i64),
}

/// The ops of commit number `chunk`: person/knows/likes inserts with
/// chunk-unique primary keys plus a few base-edge deletes, derived from a
/// SplitMix64 stream so child and parent agree without sharing state.
fn chunk_ops(seed: u64, chunk: usize, ops: usize) -> Vec<Op> {
    let mut state = seed ^ ((chunk as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15));
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    let mut out = Vec::with_capacity(ops);
    for i in 0..ops {
        // Unique across every chunk: inserts never collide, deletes never
        // repeat, so any prefix of commits is valid.
        let uid = (chunk * ops + i) as i64;
        match next() % 4 {
            0 => out.push(Op::Insert(
                "Person",
                vec![
                    Value::Int(7_000_000 + uid),
                    Value::str(format!("crash_{uid}")),
                    Value::Date(18_000 + (next() % 400) as i64),
                ],
            )),
            1 => out.push(Op::Insert(
                "Knows",
                vec![
                    Value::Int(8_000_000 + uid),
                    Value::Int((next() % 5) as i64),
                    Value::Int(5 + (next() % 7) as i64),
                    Value::Date(18_000 + (next() % 400) as i64),
                ],
            )),
            2 => out.push(Op::Insert(
                "Likes",
                vec![
                    Value::Int(9_000_000 + uid),
                    Value::Int((next() % 5) as i64),
                    Value::Int((next() % 5) as i64),
                    Value::Date(18_000 + (next() % 400) as i64),
                ],
            )),
            // Only small uids: the base dataset is guaranteed to have these
            // Knows rows, and uid-uniqueness means no double delete.
            _ if uid < 8 => out.push(Op::Delete("Knows", uid)),
            _ => out.push(Op::Insert(
                "Person",
                vec![
                    Value::Int(7_500_000 + uid),
                    Value::str(format!("crash_alt_{uid}")),
                    Value::Date(18_000 + (next() % 400) as i64),
                ],
            )),
        }
    }
    out
}

fn stage_and_commit(session: &Session, seed: u64, chunk: usize, ops: usize) {
    let mut batch = session.begin_ingest();
    for op in chunk_ops(seed, chunk, ops) {
        match op {
            Op::Insert(table, row) => batch.insert_row(table, row).unwrap(),
            Op::Delete(table, key) => batch.delete_row(table, key).unwrap(),
        }
    }
    batch.commit().unwrap();
}

/// The shared base dataset for the parent process (children rebuild it —
/// they are fresh processes, which is the point).
fn base() -> &'static (Database, relgo::graph::RGMapping) {
    static CELL: OnceLock<(Database, relgo::graph::RGMapping)> = OnceLock::new();
    CELL.get_or_init(|| {
        relgo::datagen::generate_snb(&relgo::datagen::SnbParams { sf: 0.03, seed: 42 })
    })
}

/// Child-process entry point. Inert in the normal suite; when the parent
/// sets `RELGO_WAL_CHILD_PATH` it opens a durable session with an armed
/// crash hook and commits until it either finishes or the hook aborts the
/// process mid-flush.
#[test]
fn wal_child_entry() {
    let Some(path) = std::env::var_os("RELGO_WAL_CHILD_PATH") else {
        return;
    };
    let getenv = |k: &str| std::env::var(k).unwrap().parse::<u64>().unwrap();
    let seed = getenv("RELGO_WAL_CHILD_SEED");
    let commits = getenv("RELGO_WAL_CHILD_COMMITS") as usize;
    let ops = getenv("RELGO_WAL_CHILD_OPS") as usize;
    let crash = getenv("RELGO_WAL_CHILD_CRASH");
    let (db, mapping) =
        relgo::datagen::generate_snb(&relgo::datagen::SnbParams { sf: 0.03, seed: 42 });
    let (session, recovered) = Session::open_durable(
        db,
        mapping,
        SessionOptions::default(),
        &path,
        WalOptions {
            crash_after_bytes: Some(crash),
            ..WalOptions::default()
        },
    )
    .unwrap();
    assert_eq!(recovered.records, 0, "child starts on an empty log");
    for chunk in 0..commits {
        stage_and_commit(&session, seed, chunk, ops);
    }
    // Reached only when the byte budget outlives the whole stream.
    println!("WAL_CHILD_COMPLETED_ALL");
}

/// Child-process entry point for checkpoint-phase crash injection. Inert in
/// the normal suite; when the parent sets `RELGO_CKPT_CHILD_PATH` it takes
/// one successful checkpoint, commits a tail past it, then runs a
/// checkpoint armed to abort inside the phase `RELGO_CKPT_CHILD_PHASE`
/// selects (0 = mid-temp-write at byte `RELGO_CKPT_CHILD_OFFSET`,
/// 1 = before the atomic rename, 2 = after the rename but before the WAL
/// truncation).
#[test]
fn ckpt_child_entry() {
    let Some(path) = std::env::var_os("RELGO_CKPT_CHILD_PATH") else {
        return;
    };
    let getenv = |k: &str| std::env::var(k).unwrap().parse::<u64>().unwrap();
    let seed = getenv("RELGO_CKPT_CHILD_SEED");
    let pre = getenv("RELGO_CKPT_CHILD_PRE") as usize;
    let post = getenv("RELGO_CKPT_CHILD_POST") as usize;
    let ops = getenv("RELGO_CKPT_CHILD_OPS") as usize;
    let phase = getenv("RELGO_CKPT_CHILD_PHASE");
    let offset = getenv("RELGO_CKPT_CHILD_OFFSET");
    let (db, mapping) =
        relgo::datagen::generate_snb(&relgo::datagen::SnbParams { sf: 0.03, seed: 42 });
    let (session, recovered) = Session::open_durable(
        db,
        mapping,
        SessionOptions::default(),
        &path,
        WalOptions::default(),
    )
    .unwrap();
    assert_eq!(recovered.records, 0, "child starts on an empty log");
    for chunk in 0..pre {
        stage_and_commit(&session, seed, chunk, ops);
    }
    // A first, successful checkpoint: depending on the crash phase below,
    // recovery either falls back to this one or supersedes it.
    session.checkpoint().unwrap();
    for chunk in pre..pre + post {
        stage_and_commit(&session, seed, chunk, ops);
    }
    let crash = match phase {
        0 => CheckpointCrash::MidTempWrite(offset),
        1 => CheckpointCrash::BeforeRename,
        _ => CheckpointCrash::AfterRename,
    };
    let _ = session.checkpoint_with(Some(crash));
    // The armed checkpoint aborts the process inside the chosen phase; the
    // parent asserts this line was never reached.
    println!("CKPT_CHILD_SURVIVED_CRASH");
}

/// Remove the WAL, every checkpoint sibling, and any stray temp file a
/// mid-write crash left behind.
fn ckpt_cleanup(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    for (_, p) in CheckpointStore::for_wal(path).list().unwrap_or_default() {
        let _ = std::fs::remove_file(p);
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".ckpt.tmp");
    let _ = std::fs::remove_file(std::path::PathBuf::from(tmp));
}

/// Spawn a child that crashes inside checkpoint phase `phase`, recover in
/// this process, and differential-check every table and query result
/// against a never-crashed oracle replaying the same commit stream.
fn run_ckpt_crash_case(
    phase: u64,
    offset: u64,
    seed: u64,
    pre: usize,
    post: usize,
    ops: usize,
    template_idx: usize,
    draw: u64,
) {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "relgo_ckpt_recovery_{}_{}.wal",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    ckpt_cleanup(&path);

    // --- run the doomed checkpointer in a child process ------------------
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "ckpt_child_entry",
            "--exact",
            "--test-threads=1",
            "--nocapture",
        ])
        .env("RELGO_CKPT_CHILD_PATH", &path)
        .env("RELGO_CKPT_CHILD_SEED", seed.to_string())
        .env("RELGO_CKPT_CHILD_PRE", pre.to_string())
        .env("RELGO_CKPT_CHILD_POST", post.to_string())
        .env("RELGO_CKPT_CHILD_OPS", ops.to_string())
        .env("RELGO_CKPT_CHILD_PHASE", phase.to_string())
        .env("RELGO_CKPT_CHILD_OFFSET", offset.to_string())
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("CKPT_CHILD_SURVIVED_CRASH"),
        "armed checkpoint did not abort (phase {phase})"
    );
    assert!(
        out.status.code().is_none(),
        "child must die by the crash hook's abort, got {:?}\nstdout:\n{}\nstderr:\n{}",
        out.status,
        stdout,
        String::from_utf8_lossy(&out.stderr)
    );

    // --- recover in this (fresh) process ---------------------------------
    let total = pre + post;
    let (db, mapping) = base();
    let (session, report) = Session::recover(db.clone(), mapping.clone(), &path).unwrap();
    assert!(report.checkpoint_loaded, "a valid checkpoint always exists");
    assert_eq!(
        report.truncated_bytes, 0,
        "a checkpoint crash never tears the WAL itself"
    );
    assert_eq!(
        session.epoch(),
        total as u64,
        "every committed epoch survives a phase-{phase} checkpoint crash"
    );
    match phase {
        0 | 1 => {
            // The doomed snapshot never became visible (no rename): recovery
            // starts from the earlier checkpoint and replays the whole tail.
            assert_eq!(report.checkpoint_epoch, pre as u64);
            assert_eq!(report.records, post);
            assert_eq!(report.skipped_records, 0);
        }
        _ => {
            // Renamed before the abort: the new snapshot is authoritative,
            // and the log records it already covers (the truncation never
            // ran) are skipped instead of replayed twice.
            assert_eq!(report.checkpoint_epoch, total as u64);
            assert_eq!(report.records, 0);
            assert_eq!(report.skipped_records, post);
        }
    }

    // --- the never-crashed oracle: same stream, plain commits ------------
    let oracle =
        Session::open_with(db.clone(), mapping.clone(), SessionOptions::default()).unwrap();
    for chunk in 0..total {
        stage_and_commit(&oracle, seed, chunk, ops);
    }
    {
        let recovered_db = session.db();
        let oracle_db = oracle.db();
        for name in ["Person", "Knows", "Likes"] {
            assert!(
                recovered_db
                    .table(name)
                    .unwrap()
                    .bit_identical(oracle_db.table(name).unwrap()),
                "table {name} diverges after a phase-{phase} checkpoint crash"
            );
        }
    }
    let schema = SnbSchema::resolve(session.view().schema()).unwrap();
    let t = &snb_templates(&schema)[template_idx];
    let q = t.instantiate(draw).unwrap();
    for mode in [OptimizerMode::RelGo, OptimizerMode::GRainDb] {
        let want = oracle.run(&q, mode).unwrap().table;
        let got = session.run(&q, mode).unwrap().table;
        assert!(want.bit_identical(&got), "{} run diverges", mode.name());
        let cached = session.run_cached(&q, mode).unwrap().table;
        assert!(
            want.bit_identical(&cached),
            "{} run_cached diverges",
            mode.name()
        );
        let stmt = session.prepare(&t.instantiate(0).unwrap(), mode).unwrap();
        let prepared = stmt.execute(&t.bindings(draw).unwrap()).unwrap().table;
        assert!(
            want.bit_identical(&prepared),
            "{} prepared execute diverges",
            mode.name()
        );
    }

    // --- recovery is idempotent ------------------------------------------
    drop(session);
    let (session2, report2) = Session::recover(db.clone(), mapping.clone(), &path).unwrap();
    assert_eq!(session2.epoch(), total as u64);
    assert_eq!(report2.truncated_bytes, 0);
    assert_eq!(
        (report2.records, report2.skipped_records),
        (report.records, report.skipped_records),
        "second recovery of the same files sees the same split"
    );
    drop(session2);
    ckpt_cleanup(&path);
}

/// Deterministic sweep: kill the checkpointer inside each of the three
/// phases (mid-temp-write both at offset 0 — an empty temp file — and
/// deeper into the image), and recover bit-identically every time.
#[test]
fn checkpoint_crash_at_every_phase_recovers_bit_identically() {
    for (phase, offset) in [(0u64, 0u64), (0, 129), (1, 0), (2, 0)] {
        run_ckpt_crash_case(phase, offset, 1_000 + phase * 64 + offset, 2, 2, 3, 1, 7);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Randomized checkpoint-phase kills: any phase, any mid-write byte
    /// offset, any commit split — recovery always restores all committed
    /// epochs bit-identically.
    #[test]
    fn killed_checkpointer_recovers_all_committed_epochs(
        phase in 0u64..3,
        offset in 0u64..8_192,
        seed in 0u64..1_000,
        pre in 1usize..4,
        post in 1usize..4,
        ops in 2usize..5,
        template_idx in 0usize..5,
        draw in 0u64..40,
    ) {
        run_ckpt_crash_case(phase, offset, seed, pre, post, ops, template_idx, draw);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Kill a writer at a random byte offset mid-commit; recovery must land
    /// on a committed prefix that is bit-identical to a never-crashed
    /// oracle replaying the same prefix.
    #[test]
    fn killed_writer_recovers_to_a_committed_prefix(
        commits in 2usize..5,
        ops in 2usize..6,
        seed in 0u64..1_000,
        crash_bytes in 16u64..2_048,
        template_idx in 0usize..5,
        draw in 0u64..40,
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "relgo_wal_recovery_{}_{}.wal",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&path);

        // --- run the doomed writer in a child process ------------------
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["wal_child_entry", "--exact", "--test-threads=1", "--nocapture"])
            .env("RELGO_WAL_CHILD_PATH", &path)
            .env("RELGO_WAL_CHILD_SEED", seed.to_string())
            .env("RELGO_WAL_CHILD_COMMITS", commits.to_string())
            .env("RELGO_WAL_CHILD_OPS", ops.to_string())
            .env("RELGO_WAL_CHILD_CRASH", crash_bytes.to_string())
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        let completed = stdout.contains("WAL_CHILD_COMPLETED_ALL");
        if completed {
            prop_assert!(out.status.success(), "completed child must exit cleanly");
        } else {
            // The crash hook dies via abort(): killed by signal, not a
            // panic-driven test failure (which would exit with a code).
            prop_assert!(
                out.status.code().is_none(),
                "child must die by the crash hook's abort, got {:?}\nstdout:\n{}\nstderr:\n{}",
                out.status,
                stdout,
                String::from_utf8_lossy(&out.stderr)
            );
        }

        // --- recover in this (fresh) process ---------------------------
        let (db, mapping) = base();
        let (session, report) =
            Session::recover(db.clone(), mapping.clone(), &path).unwrap();
        let k = report.records;
        prop_assert!(k <= commits, "recovered {k} of {commits} commits");
        if completed {
            prop_assert_eq!(k, commits, "a clean run loses nothing");
        }
        prop_assert_eq!(session.epoch(), k as u64);
        prop_assert!(session.is_durable());
        prop_assert_eq!(report.epoch, k as u64);

        // --- the never-crashed oracle: same prefix, plain commits ------
        let oracle =
            Session::open_with(db.clone(), mapping.clone(), SessionOptions::default()).unwrap();
        for chunk in 0..k {
            stage_and_commit(&oracle, seed, chunk, ops);
        }
        {
            let recovered_db = session.db();
            let oracle_db = oracle.db();
            for name in ["Person", "Knows", "Likes"] {
                prop_assert!(
                    recovered_db.table(name).unwrap().bit_identical(oracle_db.table(name).unwrap()),
                    "table {} diverges after recovering {} commits",
                    name,
                    k
                );
            }
        }
        let schema = SnbSchema::resolve(session.view().schema()).unwrap();
        let t = &snb_templates(&schema)[template_idx];
        let q = t.instantiate(draw).unwrap();
        for mode in [OptimizerMode::RelGo, OptimizerMode::GRainDb] {
            let want = oracle.run(&q, mode).unwrap().table;
            let got = session.run(&q, mode).unwrap().table;
            prop_assert!(want.bit_identical(&got), "{} run diverges", mode.name());
            let cached = session.run_cached(&q, mode).unwrap().table;
            prop_assert!(
                want.bit_identical(&cached),
                "{} run_cached diverges",
                mode.name()
            );
            let stmt = session.prepare(&t.instantiate(0).unwrap(), mode).unwrap();
            let prepared = stmt.execute(&t.bindings(draw).unwrap()).unwrap().table;
            prop_assert!(
                want.bit_identical(&prepared),
                "{} prepared execute diverges",
                mode.name()
            );
        }

        // --- recovery is idempotent -------------------------------------
        // The first recovery already truncated the torn tail; a second open
        // of the same log finds only whole records and the same epoch.
        drop(session);
        let (session2, report2) =
            Session::recover(db.clone(), mapping.clone(), &path).unwrap();
        prop_assert_eq!(report2.records, k);
        prop_assert_eq!(report2.truncated_bytes, 0, "nothing left to truncate");
        prop_assert_eq!(session2.epoch(), k as u64);

        let _ = std::fs::remove_file(&path);
    }
}

/// Commits appended *after* a recovery extend the same log: a third session
/// recovering later sees the pre-crash prefix plus the post-recovery
/// commits, in order.
#[test]
fn post_recovery_commits_extend_the_recovered_log() {
    let path = std::env::temp_dir().join(format!(
        "relgo_wal_recovery_extend_{}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let (db, mapping) = base();

    let (first, rec) = Session::recover(db.clone(), mapping.clone(), &path).unwrap();
    assert_eq!(rec.records, 0);
    stage_and_commit(&first, 77, 0, 4);
    stage_and_commit(&first, 77, 1, 4);
    assert_eq!(first.wal_stats().unwrap().records, 2);
    drop(first);

    let (second, rec) = Session::recover(db.clone(), mapping.clone(), &path).unwrap();
    assert_eq!(rec.records, 2);
    assert_eq!(rec.truncated_bytes, 0);
    assert_eq!(second.epoch(), 2);
    assert!(rec.rows_replayed > 0);
    stage_and_commit(&second, 77, 2, 4);
    assert_eq!(second.epoch(), 3);
    drop(second);

    let (third, rec) = Session::recover(db.clone(), mapping.clone(), &path).unwrap();
    assert!(
        !rec.checkpoint_loaded,
        "a never-checkpointed log replays in full"
    );
    assert_eq!(rec.records, 3);
    assert_eq!(third.epoch(), 3);

    // And the final state equals three plain commits on a fresh session.
    let oracle =
        Session::open_with(db.clone(), mapping.clone(), SessionOptions::default()).unwrap();
    for chunk in 0..3 {
        stage_and_commit(&oracle, 77, chunk, 4);
    }
    let recovered_db = third.db();
    let oracle_db = oracle.db();
    for name in ["Person", "Knows", "Likes"] {
        assert!(
            recovered_db
                .table(name)
                .unwrap()
                .bit_identical(oracle_db.table(name).unwrap()),
            "table {name} diverges"
        );
    }
    let _ = std::fs::remove_file(&path);
}
