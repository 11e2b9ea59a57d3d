//! Fault harness for the write-ahead log and its checkpoints.
//!
//! Every durable byte passes the codec's I/O seam (`relgo::delta::Io`), and
//! this file puts one fault double, [`Disk`], in the filesystem's place. Its
//! *power cut* lets every call before it land — the write it interrupts up
//! to a byte budget — and fails every call after it; its other faults
//! (`EIO`, `ENOSPC`, a short write) fail one call. After the fault the test
//! drops the session, recovers through the real filesystem
//! (`Session::recover`) and asserts:
//!
//! * the recovered state is a **committed prefix**: some `k` whole commits,
//!   never a partial one, and never fewer than the commits that returned
//!   `Ok`;
//! * tables and query results are bit-identical to a never-faulted oracle
//!   session that applies the same first `k` commits — across `run`,
//!   `run_cached` and prepared `execute`, under both optimizer modes;
//! * recovery is idempotent: a second open of the same files finds the same
//!   records and nothing left to truncate.
//!
//! The cases: a writer whose power goes at a random byte budget mid-commit;
//! a checkpointer whose power goes mid-temp-write, before the rename, or
//! after the rename but before the log compaction (recovery then restores
//! **every** committed epoch); every call of a fixed durable script under
//! each of the four faults; and the checkpoint-recovery faults of a rotten
//! checkpoint, an unlistable directory and a failed directory fsync.

use proptest::prelude::*;
use relgo::delta::{Fs, Handle, Io, Site};
use relgo::graph::RGMapping;
use relgo::prelude::*;
use relgo::workloads::templates::snb_templates;
use relgo::CheckpointStore;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Stage and commit commit number `chunk` of the `(seed, ops)` stream:
/// person/knows/likes inserts with chunk-unique primary keys plus a few
/// base-edge deletes, drawn from a SplitMix64 stream so that a faulted
/// session and its oracle commit exactly the same rows.
fn stage_and_commit(session: &Session, seed: u64, chunk: usize, ops: usize) -> Result<()> {
    let mut state = seed ^ ((chunk as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15));
    let mut next = move |below: u64| {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        ((z ^ (z >> 31)) % below) as i64
    };
    let mut batch = session.begin_ingest();
    for i in 0..ops {
        // Unique across every chunk: inserts never collide, deletes never
        // repeat, so any prefix of commits is valid.
        let uid = (chunk * ops + i) as i64;
        let person = |id: i64, name: &str, day: i64| {
            let name = Value::str(format!("{name}_{uid}"));
            vec![Value::Int(id + uid), name, Value::Date(18_000 + day)]
        };
        let edge = |id: i64, src: i64, dst: i64, day: i64| {
            let ends = [id + uid, src, dst].map(Value::Int);
            [ends.to_vec(), vec![Value::Date(18_000 + day)]].concat()
        };
        let (table, row) = match next(4) {
            0 => ("Person", person(7_000_000, "crash", next(400))),
            1 => ("Knows", edge(8_000_000, next(5), 5 + next(7), next(400))),
            2 => ("Likes", edge(9_000_000, next(5), next(5), next(400))),
            // Only small uids: the base dataset is guaranteed to have these
            // Knows rows, and uid-uniqueness means no double delete.
            _ if uid < 8 => {
                batch.delete_row("Knows", uid)?;
                continue;
            }
            _ => ("Person", person(7_500_000, "crash_alt", next(400))),
        };
        batch.insert_row(table, row)?;
    }
    batch.commit().map(drop).map_err(RelGoError::from)
}

type Base = (Database, RGMapping);

fn snb(cell: &'static OnceLock<Base>, sf: f64) -> &'static Base {
    cell.get_or_init(|| relgo::datagen::generate_snb(&relgo::datagen::SnbParams { sf, seed: 42 }))
}

/// The SNB base the writer and checkpointer cases commit on.
fn base() -> &'static Base {
    static CELL: OnceLock<Base> = OnceLock::new();
    snb(&CELL, 0.03)
}

/// The smallest SNB base (20 persons): the fault matrix runs its script
/// once per call and fault, so each run has to be cheap.
fn tiny() -> &'static Base {
    static CELL: OnceLock<Base> = OnceLock::new();
    snb(&CELL, 0.0)
}

/// `log.wal` in a fresh, empty directory of its own.
fn temp_log(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("relgo_{tag}_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("log.wal")
}

fn remove_log(path: &Path) {
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

/// Open (or recover) the log at `path` on `base` through `disk`.
fn open_on(base: &Base, path: &Path, disk: &Arc<Disk>) -> Result<(Session, RecoveryReport)> {
    let options = WalOptions::with_io(disk.clone());
    let (db, mapping) = base.clone();
    Session::open_durable(db, mapping, SessionOptions::default(), path, options)
}

/// Recover the log at `path` on `base` through the filesystem.
fn recover(base: &Base, path: &Path) -> Result<(Session, RecoveryReport)> {
    let (db, mapping) = base.clone();
    Session::recover(db, mapping, path)
}

/// A fault the double injects into one call.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// The call fails with `EIO` and does nothing.
    Eio,
    /// The call fails with `ENOSPC` and does nothing.
    Enospc,
    /// A write lands half its bytes and fails; any other call just fails.
    Short,
    /// The power goes: a write lands at most this many bytes (always fewer
    /// than it was given), any other call does nothing, and every later
    /// call fails.
    Cut(u64),
}

/// The fault double behind the seam: the filesystem, plus the one fault it
/// is armed with.
#[derive(Debug, Default)]
struct Disk(Mutex<DiskState>);

#[derive(Debug, Default)]
struct DiskState {
    /// The sites of the calls since the double was armed, in order.
    trace: Vec<Site>,
    /// Inject the fault at the `n`th call (from 0) at the site.
    fault: Option<(Site, usize, Fault)>,
    /// Cut the power at the write that would exceed this many more bytes.
    budget: Option<u64>,
    /// The power is cut.
    off: bool,
}

impl DiskState {
    /// The calls at `site` so far.
    fn calls(&self, site: Site) -> usize {
        self.trace.iter().filter(|s| **s == site).count()
    }
}

impl Disk {
    /// A double that fails the `nth` call at `site` with `fault`.
    fn armed(site: Site, nth: usize, fault: Fault) -> Arc<Disk> {
        let disk = Arc::new(Disk::default());
        disk.arm(site, nth, fault);
        disk
    }

    /// Fail the `nth` call at `site` from now on with `fault`.
    fn arm(&self, site: Site, nth: usize, fault: Fault) {
        let mut st = self.0.lock().unwrap();
        st.trace.clear();
        st.fault = Some((site, nth, fault));
    }

    /// Whether the armed fault has been injected.
    fn fired(&self) -> bool {
        let st = self.0.lock().unwrap();
        st.off || st.fault.is_some_and(|(site, nth, _)| st.calls(site) > nth)
    }

    /// Admit one call of `len` bytes at `site`: how many of them land, and
    /// what the call returns.
    fn admit(&self, site: Site, len: usize) -> (usize, io::Result<()>) {
        let mut st = self.0.lock().unwrap();
        if st.off {
            return (0, Err(io::Error::other("power is off")));
        }
        let mut fault = st
            .fault
            .filter(|&(s, n, _)| (s, n) == (site, st.calls(site)));
        st.trace.push(site);
        if let Some(left) = st.budget {
            match left.checked_sub(len as u64) {
                Some(rest) => st.budget = Some(rest),
                None => fault = Some((site, 0, Fault::Cut(left))),
            }
        }
        match fault.map(|(.., f)| f) {
            None => (len, Ok(())),
            Some(Fault::Eio) => (0, Err(io::Error::from_raw_os_error(5))),
            Some(Fault::Enospc) => (0, Err(io::Error::from_raw_os_error(28))),
            Some(Fault::Short) => (len / 2, Err(io::ErrorKind::WriteZero.into())),
            Some(Fault::Cut(keep)) => {
                st.off = true;
                let lands = keep.min(len.saturating_sub(1) as u64) as usize;
                (lands, Err(io::Error::other("power cut")))
            }
        }
    }
}

/// Every call but a write: admitted whole or not at all.
macro_rules! gated {
    ($($name:ident($($arg:ident: $ty:ty),*) -> $out:ty;)*) => {$(
        fn $name(&self, site: Site, $($arg: $ty),*) -> io::Result<$out> {
            self.admit(site, 0).1?;
            Fs.$name(site, $($arg),*)
        }
    )*};
}

impl Io for Disk {
    gated! {
        open(path: &Path) -> Handle;
        create(path: &Path) -> Handle;
        open_dir(path: &Path) -> Handle;
        read(path: &Path) -> Vec<u8>;
        sync(file: &mut Handle) -> ();
        set_len(file: &mut Handle, len: u64) -> ();
        seek(file: &mut Handle, pos: u64) -> ();
        rename(from: &Path, to: &Path) -> ();
        list(dir: &Path) -> Vec<PathBuf>;
        remove(path: &Path) -> ();
    }

    fn write(&self, site: Site, file: &mut Handle, bytes: &[u8]) -> io::Result<()> {
        let (lands, outcome) = self.admit(site, bytes.len());
        Fs.write(site, file, &bytes[..lands])?;
        outcome
    }
}

/// A never-faulted session on `base` after the first `k` commits of the
/// `(seed, ops)` stream.
fn oracle(base: &Base, (seed, ops): (u64, usize), k: usize) -> Session {
    let (db, mapping) = base.clone();
    let oracle = Session::open_with(db, mapping, SessionOptions::default()).unwrap();
    for chunk in 0..k {
        stage_and_commit(&oracle, seed, chunk, ops).unwrap();
    }
    oracle
}

fn assert_same_tables(got: &Database, want: &Database, what: &str) {
    assert_eq!(got.table_names(), want.table_names(), "{what}");
    for name in want.table_names() {
        let (got, want) = (got.table(name).unwrap(), want.table(name).unwrap());
        assert!(got.bit_identical(want), "table {name} diverges: {what}");
    }
}

/// Recover `path` through the filesystem and check it: a committed prefix
/// of `acked..=attempted` commits of `stream`, bit-identical to the oracle
/// in every table and in template `template_idx`'s answers at `draw`, and
/// the same again on a second recovery.
fn check_recovery(
    path: &Path,
    stream: (u64, usize),
    acked: usize,
    attempted: usize,
    (template_idx, draw): (usize, u64),
) -> RecoveryReport {
    let (session, report) = recover(base(), path).unwrap();
    let k = session.epoch() as usize;
    assert!(
        (acked..=attempted).contains(&k),
        "{k} of {attempted} commits, {acked} acked"
    );
    assert!(session.is_durable());
    let oracle = oracle(base(), stream, k);
    assert_same_tables(&session.db(), &oracle.db(), &format!("{k} commits"));
    let schema = SnbSchema::resolve(session.view().schema()).unwrap();
    let t = &snb_templates(&schema)[template_idx];
    let q = t.instantiate(draw).unwrap();
    for mode in [OptimizerMode::RelGo, OptimizerMode::GRainDb] {
        let want = oracle.run(&q, mode).unwrap().table;
        let got = session.run(&q, mode).unwrap().table;
        assert!(want.bit_identical(&got), "{} run diverges", mode.name());
        let cached = session.run_cached(&q, mode).unwrap().table;
        assert!(want.bit_identical(&cached), "{} run_cached", mode.name());
        let stmt = session.prepare(&t.instantiate(0).unwrap(), mode).unwrap();
        let prepared = stmt.execute(&t.bindings(draw).unwrap()).unwrap().table;
        assert!(want.bit_identical(&prepared), "{} execute", mode.name());
    }
    // The first recovery already truncated any torn tail; a second open of
    // the same files finds only whole records and the same split.
    drop(session);
    let (again, second) = recover(base(), path).unwrap();
    assert_eq!(again.epoch(), k as u64);
    assert_eq!(second.truncated_bytes, 0, "nothing left to truncate");
    let split = |r: &RecoveryReport| (r.records, r.skipped_records);
    assert_eq!(split(&second), split(&report));
    report
}

/// Cut the checkpointer's power inside checkpoint phase `phase` (0 =
/// mid-temp-write at byte `offset`, 1 = before the atomic rename, 2 = after
/// the rename but before the log compaction), recover, and check every
/// committed epoch against a never-faulted oracle.
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
    let path = temp_log("ckpt_crash");
    let disk = Arc::new(Disk::default());
    let (session, _) = open_on(base(), &path, &disk).unwrap();
    for chunk in 0..pre + post {
        // A first, successful checkpoint: depending on the phase below,
        // recovery either falls back to this one or supersedes it.
        if chunk == pre {
            session.checkpoint().unwrap();
        }
        stage_and_commit(&session, seed, chunk, ops).unwrap();
    }
    let (site, keep) = match phase {
        0 => (Site::TempWrite, offset),
        1 => (Site::TempFsync, 0),
        _ => (Site::CompactRead, 0),
    };
    disk.arm(site, 0, Fault::Cut(keep));
    assert!(session.checkpoint().is_err(), "phase {phase} cut");
    drop(session);

    let total = pre + post;
    let report = check_recovery(&path, (seed, ops), total, total, (template_idx, draw));
    assert!(report.checkpoint_loaded, "a valid checkpoint always exists");
    assert_eq!(report.truncated_bytes, 0, "the log itself is never torn");
    let split = (
        report.checkpoint_epoch,
        report.records,
        report.skipped_records,
    );
    if phase < 2 {
        // The doomed snapshot never became visible (no rename): recovery
        // starts from the earlier checkpoint and replays the whole tail.
        assert_eq!(split, (pre as u64, post, 0));
    } else {
        // Renamed before the cut: the new snapshot is authoritative, and the
        // log records it already covers (the compaction never ran) are
        // skipped instead of replayed twice.
        assert_eq!(split, (total as u64, 0, post));
    }
    remove_log(&path);
}

/// Deterministic sweep: cut the checkpointer's power inside each of the
/// three phases (mid-temp-write both at offset 0 — an empty temp file — and
/// deeper into the image), and recover bit-identically every time.
#[test]
fn checkpoint_crash_at_every_phase_recovers_bit_identically() {
    for (phase, offset) in [(0u64, 0u64), (0, 129), (1, 0), (2, 0)] {
        run_ckpt_crash_case(phase, offset, 1_000 + phase * 64 + offset, 2, 2, 3, 1, 7);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Randomized checkpoint-phase power cuts: any phase, any mid-write
    /// byte offset, any commit split — recovery always restores all
    /// committed epochs bit-identically.
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

    /// Cut a writer's power at a random byte budget mid-commit; recovery
    /// must land on a committed prefix that holds every acknowledged commit
    /// and is bit-identical to a never-faulted oracle replaying it.
    #[test]
    fn killed_writer_recovers_to_a_committed_prefix(
        commits in 2usize..5,
        ops in 2usize..6,
        seed in 0u64..1_000,
        crash_bytes in 16u64..2_048,
        template_idx in 0usize..5,
        draw in 0u64..40,
    ) {
        let path = temp_log("wal_crash");
        let disk = Arc::new(Disk::default());
        disk.0.lock().unwrap().budget = Some(crash_bytes);
        let (session, recovered) = open_on(base(), &path, &disk).unwrap();
        prop_assert_eq!(recovered.records, 0, "the writer starts on an empty log");
        let acked = (0..commits)
            .take_while(|&chunk| stage_and_commit(&session, seed, chunk, ops).is_ok())
            .count();
        drop(session);
        let report = check_recovery(&path, (seed, ops), acked, commits, (template_idx, draw));
        prop_assert_eq!(report.epoch, report.records as u64);
        remove_log(&path);
    }
}

/// The commit stream of the fault matrix and the checkpoint tests.
const STREAM: (u64, usize) = (5, 3);
/// Commits the fault matrix's prepared log holds.
const PREPARED: usize = 3;

/// A log on the tiny base `commits` commits of [`STREAM`] in, with a
/// checkpoint after each commit count in `checkpoints`.
fn tiny_history(tag: &str, commits: usize, checkpoints: &[usize]) -> PathBuf {
    let path = temp_log(tag);
    let (session, _) = recover(tiny(), &path).unwrap();
    for chunk in 0..commits {
        stage_and_commit(&session, STREAM.0, chunk, STREAM.1).unwrap();
        if checkpoints.contains(&(chunk + 1)) {
            session.checkpoint().unwrap();
        }
    }
    path
}

/// The fault matrix's starting files: a checkpoint at epoch 2, epoch 3 in
/// the log and five torn bytes behind it, so that opening them reads a
/// checkpoint and truncates.
fn prepared_log() -> PathBuf {
    let path = tiny_history("faults_prepared", PREPARED, &[2]);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(&[9; 5]);
    std::fs::write(&path, bytes).unwrap();
    path
}

/// Run the fixed durable script through `disk` on a fresh copy of the
/// `prepared` files: open, two commits, checkpoint, two commits,
/// checkpoint. It stops at the first step that fails; a step fails exactly
/// when the fault fires in it, unless the fault is `best_effort` (a failed
/// directory open short of a power cut), which no step fails on. Returns
/// the log and the commits acknowledged and attempted, the prepared ones
/// included.
fn run_script(prepared: &Path, disk: &Arc<Disk>, best_effort: bool) -> (PathBuf, usize, usize) {
    let path = temp_log("faults");
    for entry in std::fs::read_dir(prepared.parent().unwrap()).unwrap() {
        let from = entry.unwrap().path();
        std::fs::copy(&from, path.with_file_name(from.file_name().unwrap())).unwrap();
    }
    let (mut acked, mut attempted) = (PREPARED, PREPARED);
    let failed = |step: &str, fired_before: bool, failed: bool| {
        let fired = !fired_before && disk.fired();
        assert_eq!(failed, fired && !best_effort, "{step}: fired {fired}");
        failed
    };
    let opened = open_on(tiny(), &path, disk);
    if failed("open", false, opened.is_err()) {
        return (path, acked, attempted);
    }
    let (session, _) = opened.unwrap();
    for step in 0..6 {
        let fired_before = disk.fired();
        // Two commits, then a checkpoint; twice.
        let outcome = if step % 3 < 2 {
            attempted += 1;
            stage_and_commit(&session, STREAM.0, attempted - 1, STREAM.1)
        } else {
            session.checkpoint().map(drop)
        };
        if failed(&format!("step {step}"), fired_before, outcome.is_err()) {
            break;
        }
        acked = attempted;
    }
    (path, acked, attempted)
}

/// The seam exists for this test: fail every call of the fixed durable
/// script with each fault in turn, and recover. Nothing panics, the fault
/// surfaces as an `Err` from the step that hit it, and recovery yields a
/// committed prefix holding every acknowledged commit, bit-identical to a
/// never-faulted oracle.
#[test]
fn every_seam_call_under_every_fault_recovers_the_acknowledged_prefix() {
    let prepared = prepared_log();
    let disk = Arc::new(Disk::default());
    let (path, acked, _) = run_script(&prepared, &disk, false);
    assert_eq!(acked, PREPARED + 4, "the script runs clean without a fault");
    remove_log(&path);
    let trace = disk.0.lock().unwrap().trace.clone();
    let mut per_site: Vec<(Site, usize)> = Vec::new();
    for &site in &trace {
        match per_site.iter_mut().find(|(s, _)| *s == site) {
            Some((_, calls)) => *calls += 1,
            None => per_site.push((site, 1)),
        }
    }
    println!("seam calls per site: {per_site:?}");
    assert_eq!(per_site.len(), 16, "the script reaches every seam site");

    let oracles: Vec<_> = (0..=acked)
        .map(|k| oracle(tiny(), STREAM, k).db())
        .collect();
    let faults = [
        Fault::Eio,
        Fault::Enospc,
        Fault::Short,
        Fault::Cut(u64::MAX),
    ];
    for (i, &site) in trace.iter().enumerate() {
        let nth = trace[..i].iter().filter(|s| **s == site).count();
        for fault in faults {
            let what = format!("{fault:?} at call {i} ({site:?} #{nth})");
            let disk = Disk::armed(site, nth, fault);
            let best_effort = site == Site::DirOpen && !matches!(fault, Fault::Cut(_));
            let (path, acked, attempted) = run_script(&prepared, &disk, best_effort);
            assert!(disk.fired(), "{what} never fired");
            let (session, _) = recover(tiny(), &path).unwrap();
            let k = session.epoch() as usize;
            assert!((acked..=attempted).contains(&k), "{what}: {k} recovered");
            assert_same_tables(&session.db(), &oracles[k], &what);
            drop(session);
            remove_log(&path);
        }
    }
    remove_log(&prepared);
}

/// Commits appended *after* a recovery extend the same log: a third session
/// recovering later sees the pre-crash prefix plus the post-recovery
/// commits, in order.
#[test]
fn post_recovery_commits_extend_the_recovered_log() {
    let path = temp_log("wal_extend");
    let (first, rec) = recover(base(), &path).unwrap();
    assert_eq!(rec.records, 0);
    stage_and_commit(&first, 77, 0, 4).unwrap();
    stage_and_commit(&first, 77, 1, 4).unwrap();
    assert_eq!(first.wal_stats().unwrap().records, 2);
    drop(first);

    let (second, rec) = recover(base(), &path).unwrap();
    assert_eq!(
        (rec.records, rec.truncated_bytes, second.epoch()),
        (2, 0, 2)
    );
    assert!(rec.rows_replayed > 0);
    stage_and_commit(&second, 77, 2, 4).unwrap();
    assert_eq!(second.epoch(), 3);
    drop(second);

    let (third, rec) = recover(base(), &path).unwrap();
    assert!(
        !rec.checkpoint_loaded,
        "a never-checkpointed log replays in full"
    );
    assert_eq!((rec.records, third.epoch()), (3, 3));
    // And the final state equals three plain commits on a fresh session.
    assert_same_tables(&third.db(), &oracle(base(), (77, 4), 3).db(), "extended");
    remove_log(&path);
}

/// Flip the last byte of the checkpoint of `epoch` next to `path`.
fn rot_checkpoint(path: &Path, epoch: u64) -> PathBuf {
    let list = CheckpointStore::for_wal(path).list().unwrap();
    let (_, file) = list.into_iter().find(|(e, _)| *e == epoch).unwrap();
    let mut bytes = std::fs::read(&file).unwrap();
    *bytes.last_mut().unwrap() ^= 0x01;
    std::fs::write(&file, bytes).unwrap();
    file
}

/// A rotten newest checkpoint over a log compacted behind it: epochs 3–4
/// were acknowledged, and neither the rotten file nor the log holds them.
/// Recovery refuses with an error naming the file and the epochs instead of
/// returning epoch 2; a read error on the file (through the seam) takes the
/// same path.
#[test]
fn rotten_checkpoint_over_a_compacted_log_is_data_loss() {
    let path = tiny_history("ckpt_rot_compacted", 4, &[2, 4]);
    let disk = Disk::armed(Site::CheckpointRead, 0, Fault::Eio);
    let Err(RelGoError::DataLoss(msg)) = open_on(tiny(), &path, &disk) else {
        panic!("an unreadable checkpoint lost epochs 3..=4 silently");
    };
    assert!(
        msg.contains("read failed") && msg.contains("epochs 3..=4"),
        "{msg}"
    );

    let file = rot_checkpoint(&path, 4);
    let Err(RelGoError::DataLoss(msg)) = recover(tiny(), &path) else {
        panic!("a rotten checkpoint lost epochs 3..=4 silently");
    };
    assert!(msg.contains(&*file.to_string_lossy()), "{msg}");
    assert!(
        msg.contains("corrupt") && msg.contains("epochs 3..=4"),
        "{msg}"
    );
    remove_log(&path);
}

/// The fallback that still holds: the newest checkpoint rots before the log
/// was compacted behind it, so the older checkpoint plus the log restore
/// every epoch.
#[test]
fn rotten_checkpoint_falls_back_while_the_log_holds_its_epochs() {
    let path = tiny_history("ckpt_rot_fallback", 4, &[2]);
    let oracle = oracle(tiny(), STREAM, 4);
    CheckpointStore::for_wal(&path)
        .write(4, &oracle.db())
        .unwrap();
    rot_checkpoint(&path, 4);
    let (back, report) = recover(tiny(), &path).unwrap();
    let fallback = (report.checkpoint_epoch, report.checkpoint_fallbacks);
    assert_eq!((fallback, report.records, back.epoch()), ((2, 1), 2, 4));
    assert_same_tables(&back.db(), &oracle.db(), "fallback recovery");
    remove_log(&path);
}

/// A directory that cannot be listed is an error, not "no checkpoints":
/// with the log compacted empty, reading it as none would restart from the
/// base database at epoch 0.
#[test]
fn unlistable_checkpoint_directory_is_an_error() {
    let path = tiny_history("ckpt_unlistable", 2, &[2]);
    let disk = Disk::armed(Site::CheckpointList, 0, Fault::Eio);
    let Err(err) = open_on(tiny(), &path, &disk) else {
        panic!("recovered from the base database past a checkpoint");
    };
    assert!(err.to_string().contains("checkpoint list failed"), "{err}");
    remove_log(&path);
}

/// A failed directory fsync fails the checkpoint before the log is
/// compacted behind it; the same failure in the compaction's own replace
/// fails the log closed, so no later commit is acknowledged.
#[test]
fn failed_directory_fsync_is_never_acknowledged() {
    let path = tiny_history("dir_fsync", 2, &[]);
    let disk = Disk::armed(Site::DirFsync, 0, Fault::Eio);
    let (session, _) = open_on(tiny(), &path, &disk).unwrap();
    let logged = session.wal_bytes_since_checkpoint();
    let err = session.checkpoint().unwrap_err().to_string();
    assert!(err.contains("checkpoint fsync directory failed"), "{err}");
    assert_eq!(
        session.wal_bytes_since_checkpoint(),
        logged,
        "not compacted"
    );

    stage_and_commit(&session, STREAM.0, 2, STREAM.1).unwrap();
    disk.arm(Site::DirFsync, 1, Fault::Eio);
    let err = session.checkpoint().unwrap_err().to_string();
    assert!(err.contains("wal compact fsync directory failed"), "{err}");
    let late = stage_and_commit(&session, STREAM.0, 3, STREAM.1);
    assert!(late.is_err(), "the log failed closed");
    drop(session);
    let (back, _) = recover(tiny(), &path).unwrap();
    assert_eq!(back.epoch(), 3, "exactly the acknowledged commits");
    remove_log(&path);
}
