//! A std-only write-ahead log for ingest commits.
//!
//! ## Format
//!
//! The log is a flat sequence of frames — length, CRC-32, payload; the
//! layout, the value encoding and the checks that make a frame *intact*
//! are `codec.rs`'s, documented in its header. This module owns what goes
//! *in* a frame: one committed epoch — the epoch number followed by the
//! per-table deltas in sorted table order (the same deterministic order
//! [`DeltaSet::apply`] merges in), inserted rows as tagged
//! [`relgo_common::Value`]s, tombstones as primary-key `i64`s.
//!
//! ## Group commit
//!
//! [`Wal::append`] only *stages* the encoded record in an in-memory buffer
//! and returns a sequence number; [`Wal::sync_through`] makes it durable.
//! The first committer to reach `sync_through` becomes the flush **leader**:
//! it takes the whole staged buffer — its own record plus every record
//! staged by concurrent committers in the meantime — and writes it with one
//! `write` + one `fsync`. Committers whose records ride along simply wait on
//! a condvar and return when the leader reports their sequence durable. Under
//! `n` concurrent writers this amortizes the dominant fsync cost: fsyncs per
//! commit drop from 1 toward `1/n` (the benchmark's
//! `delta.wal_syncs_per_commit` row measures exactly this).
//!
//! Callers are expected to stage records in commit order (the session layer
//! appends while holding its writer lock), so the byte order of the log is
//! the epoch order and recovery replay is deterministic.
//!
//! ## A failed flush fails closed
//!
//! When the leader's write or fsync fails, the records it took are gone
//! from memory and an unknown prefix of them is on disk. Staging them again
//! would put intact frames *behind* a torn one, where no scan ever reaches
//! them, so the log refuses instead: the error is remembered, and from then
//! on no [`Wal::sync_through`] returns `Ok` for a sequence that was not
//! already durable and no [`Wal::compact_through`] runs. A failed
//! compaction fails the log closed the same way: past its rename the live
//! handle points at an unlinked file, and a failed directory fsync leaves
//! the log's name itself in doubt. Reopening the log ([`Wal::open`]
//! truncates the tear away) is the way back.
//!
//! ## Recovery
//!
//! [`Wal::open`] scans the log from the start and stops at the first torn
//! record — a frame that is not intact, or an intact one whose payload does
//! not decode. Everything before the tear is returned for replay; the file
//! is truncated to that valid prefix so subsequent appends extend a clean
//! log. A torn tail loses only the suffix of not-fully-flushed commits —
//! never a record before the tear — which is the prefix-consistency
//! contract the fault harness (`tests/wal_recovery.rs`) checks against a
//! never-faulted oracle, with a power cut or an I/O error injected at every
//! call of the codec's [`Io`] seam, which the log and its checkpoint store
//! reach the disk through.

use crate::checkpoint::CheckpointStore;
use crate::codec::{self, io_err, Fs, Handle, Io, Reader, Site, Writer};
use crate::DeltaSet;
use relgo_common::{RelGoError, Result};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Guard against absurd length prefixes when scanning a corrupt log.
const MAX_RECORD: u64 = 1 << 30;

/// How a log reaches the disk: the [`Io`] seam its bytes and its
/// checkpoints' bytes pass through. The default is the filesystem.
#[derive(Debug, Clone)]
pub struct WalOptions {
    io: Arc<dyn Io>,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions::with_io(Arc::new(Fs))
    }
}

impl WalOptions {
    /// Reach the disk through `io` (a test double) instead of the
    /// filesystem.
    pub fn with_io(io: Arc<dyn Io>) -> WalOptions {
        WalOptions { io }
    }
}

/// What one [`Wal::compact_through`] call dropped and kept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalCompaction {
    /// Records whose epoch was at or below the checkpoint epoch, removed
    /// from the head of the log.
    pub records_dropped: u64,
    /// Bytes those records occupied on disk.
    pub bytes_dropped: u64,
    /// Bytes of log tail kept (records above the checkpoint epoch).
    pub bytes_retained: u64,
}

/// Monotonic WAL counters (records staged, group flushes, fsyncs, bytes
/// written). `syncs < records` under concurrent writers is the observable
/// proof of group commit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records staged via [`Wal::append`].
    pub records: u64,
    /// Group flushes (one leader write each; may cover many records).
    pub flushes: u64,
    /// `fsync` calls. The log fsyncs every flush, so this equals
    /// `flushes`; the benchmark's `delta.wal_syncs_per_commit` reads it.
    pub syncs: u64,
    /// Payload + header bytes written to the file.
    pub bytes: u64,
}

impl WalStats {
    /// Counter deltas since `before`.
    pub fn since(&self, before: &WalStats) -> WalStats {
        WalStats {
            records: self.records - before.records,
            flushes: self.flushes - before.flushes,
            syncs: self.syncs - before.syncs,
            bytes: self.bytes - before.bytes,
        }
    }

    /// The counters as stable `(name, value)` pairs for metrics export
    /// (the names become series suffixes in the scrape surface).
    pub fn counters(&self) -> [(&'static str, u64); 4] {
        [
            ("records", self.records),
            ("flushes", self.flushes),
            ("syncs", self.syncs),
            ("bytes", self.bytes),
        ]
    }
}

/// One decoded log record: the delta a commit applied and the epoch it
/// published.
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// The epoch the commit published.
    pub epoch: u64,
    /// The committed delta.
    pub delta: DeltaSet,
}

/// What [`Wal::open`] recovered from an existing log.
#[derive(Debug, Clone, Default)]
pub struct WalRecovery {
    /// The intact records, in log (= epoch) order.
    pub records: Vec<WalRecord>,
    /// Bytes of valid log retained.
    pub bytes: u64,
    /// Bytes of torn tail truncated away (0 for a clean log).
    pub truncated_bytes: u64,
}

#[derive(Default)]
struct WalState {
    /// Encoded records staged but not yet flushed.
    staged: Vec<u8>,
    /// Sequence number the last [`Wal::append`] handed out (the first is 1).
    last_seq: u64,
    /// Every sequence `<= durable_seq` has been written and fsynced.
    durable_seq: u64,
    /// A flush leader is currently writing.
    flushing: bool,
    /// The first flush or compaction error. Set once, never cleared (see
    /// the module header).
    failed: Option<String>,
    stats: WalStats,
}

/// An append-only, CRC-checked, group-committed write-ahead log.
pub struct Wal {
    /// Touched only by the flush leader (the `flushing` flag serializes
    /// leaders), so this lock is uncontended.
    file: Mutex<Handle>,
    state: Mutex<WalState>,
    flushed: Condvar,
    io: Arc<dyn Io>,
    path: PathBuf,
    /// Valid bytes currently on disk (valid prefix at open, plus every
    /// flush, minus what compaction truncates). Drives checkpoint policy
    /// and the `relgo_wal_bytes_since_checkpoint` gauge.
    disk_len: AtomicU64,
}

impl Wal {
    /// Open (or create) the log at `path`, recovering its valid prefix.
    ///
    /// A torn tail — short header, over-long length, CRC mismatch, or an
    /// undecodable payload — is truncated away; the decoded records before
    /// it come back in the [`WalRecovery`] for the caller to replay. When
    /// no record is left (a log just created, or left empty by a crash) the
    /// directory is fsynced too, so that the log's name outlives a power cut
    /// before the first commit is acknowledged into it.
    pub fn open(path: impl AsRef<Path>, options: WalOptions) -> Result<(Wal, WalRecovery)> {
        let path = path.as_ref().to_path_buf();
        let io = options.io;
        let mut file = io
            .open(Site::WalOpen, &path)
            .map_err(|e| io_err("wal open", &e))?;
        let bytes = io
            .read(Site::WalRead, &path)
            .map_err(|e| io_err("wal read", &e))?;

        let mut records = Vec::new();
        let valid = scan_log(&bytes, |record| {
            records.push(record);
            true
        });
        let truncated = (bytes.len() - valid) as u64;
        if truncated > 0 {
            io.set_len(Site::WalTruncate, &mut file, valid as u64)
                .map_err(|e| io_err("wal truncate", &e))?;
        }
        io.seek(Site::WalSeek, &mut file, valid as u64)
            .map_err(|e| io_err("wal seek", &e))?;
        // A log that holds no record may have been created just now, and
        // its name survives a power cut only once the directory is synced:
        // sync it before a commit can be acknowledged into the file.
        if valid == 0 {
            codec::sync_parent(&*io, &path, Site::WalDirOpen, Site::WalDirFsync)
                .map_err(|e| io_err("wal fsync directory", &e))?;
        }

        let recovery = WalRecovery {
            records,
            bytes: valid as u64,
            truncated_bytes: truncated,
        };
        let wal = Wal {
            file: Mutex::new(file),
            state: Mutex::new(WalState::default()),
            flushed: Condvar::new(),
            io,
            path,
            disk_len: AtomicU64::new(valid as u64),
        };
        Ok((wal, recovery))
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The checkpoint store next to this log, reaching the disk through
    /// the same seam.
    pub fn checkpoints(&self) -> CheckpointStore {
        CheckpointStore::for_wal(&self.path).with_io(Arc::clone(&self.io))
    }

    /// Current counters.
    pub fn stats(&self) -> WalStats {
        self.state.lock().unwrap().stats
    }

    /// Valid log bytes currently on disk. Because compaction truncates the
    /// log behind a checkpoint, this is also "WAL bytes since the last
    /// checkpoint" for a checkpointed session.
    pub fn disk_len(&self) -> u64 {
        self.disk_len.load(Ordering::Relaxed)
    }

    /// Stage one record and return its sequence number. Staging is pure
    /// memory — durability comes from [`Wal::sync_through`]. Callers must
    /// stage in commit order (the session appends under its writer lock).
    pub fn append(&self, epoch: u64, delta: &DeltaSet) -> u64 {
        let mut frame = Vec::with_capacity(64);
        codec::push_frame(&mut frame, |w| encode_record(w, epoch, delta));

        let mut st = self.state.lock().unwrap();
        st.last_seq += 1;
        st.stats.records += 1;
        // After a failed flush the sequence is still handed out — and can
        // never be acknowledged — but nothing will take the bytes.
        if st.failed.is_none() {
            st.staged.extend_from_slice(&frame);
        }
        st.last_seq
    }

    /// Block until every record staged up to `seq` is written and fsynced.
    /// Group commit: the first caller to find no flush in progress becomes
    /// the leader and writes *all* currently staged bytes with one write +
    /// one sync; callers whose records ride along just wait for the
    /// leader's report. Errors if this or an earlier flush failed before
    /// `seq` became durable.
    pub fn sync_through(&self, seq: u64) -> Result<()> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.durable_seq >= seq {
                return Ok(());
            }
            if st.flushing {
                st = self.flushed.wait(st).unwrap();
                continue;
            }
            (st, ()) = self.lead(st, |_| Ok(()))?;
        }
    }

    /// The one flush-leader routine. Called with the state lock held and no
    /// flush in progress: takes everything staged, releases the lock for
    /// the I/O, writes the batch with [`Wal::flush`], then runs `then` on
    /// the log file while still the only leader. Reports the outcome to
    /// the waiting committers and hands the re-taken lock back.
    ///
    /// An error from either step is sticky (see the module header); the
    /// batch is durable once the flush succeeded, whatever `then` does.
    fn lead<'a, T>(
        &'a self,
        mut st: MutexGuard<'a, WalState>,
        then: impl FnOnce(&mut Handle) -> Result<T>,
    ) -> Result<(MutexGuard<'a, WalState>, T)> {
        if let Some(why) = &st.failed {
            return Err(RelGoError::execution(format!(
                "wal is failed closed after an earlier flush error: {why}"
            )));
        }
        let buf = std::mem::take(&mut st.staged);
        let through = st.last_seq;
        st.flushing = true;
        drop(st);

        let mut file = self.file.lock().unwrap();
        // An empty batch has nothing to make durable (compaction of an
        // already-synced log): no write, no fsync, no flush counted.
        let flushed = if buf.is_empty() {
            Ok(())
        } else {
            self.flush(&mut file, &buf)
        };
        let durable = flushed.is_ok();
        let outcome = flushed.and_then(|()| then(&mut file));
        drop(file);

        let mut st = self.state.lock().unwrap();
        st.flushing = false;
        if durable {
            st.durable_seq = through;
            if !buf.is_empty() {
                st.stats.flushes += 1;
                st.stats.syncs += 1;
                st.stats.bytes += buf.len() as u64;
            }
        }
        if let Err(e) = &outcome {
            st.failed = Some(e.to_string());
        }
        self.flushed.notify_all();
        outcome.map(|value| (st, value))
    }

    /// The leader's write + fsync (only one leader runs at a time).
    fn flush(&self, file: &mut Handle, buf: &[u8]) -> Result<()> {
        self.io
            .write(Site::WalWrite, file, buf)
            .map_err(|e| io_err("wal write", &e))?;
        self.disk_len.fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.io
            .sync(Site::WalFsync, file)
            .map_err(|e| io_err("wal fsync", &e))
    }

    /// Truncate-behind-checkpoint log compaction: drop every record whose
    /// epoch is `<= epoch` from the head of the log, keeping only the tail
    /// a checkpoint-based recovery still needs to replay.
    ///
    /// The caller names an epoch already captured by a durable checkpoint.
    /// Compaction quiesces flushing by becoming the flush leader itself (so
    /// staged records are on disk before the log is rewritten), then puts
    /// the surviving tail in the log's place with the codec's atomic
    /// replace. A crash before the rename leaves the old log (recovery
    /// skips the already-checkpointed prefix); a crash after leaves exactly
    /// the tail — never a torn log.
    pub fn compact_through(&self, epoch: u64) -> Result<WalCompaction> {
        let mut st = self.state.lock().unwrap();
        while st.flushing {
            st = self.flushed.wait(st).unwrap();
        }
        let (_st, compaction) = self.lead(st, |file| self.rewrite_tail(file, epoch))?;
        Ok(compaction)
    }

    /// The compaction body; runs as the (sole) flush leader, after the
    /// staged records are on disk. The log is read by path, so `file`'s
    /// append position never moves; until the rename the log itself is
    /// untouched.
    fn rewrite_tail(&self, file: &mut Handle, epoch: u64) -> Result<WalCompaction> {
        let bytes = self
            .io
            .read(Site::CompactRead, &self.path)
            .map_err(|e| io_err("wal read", &e))?;

        // Everything before the first record the checkpoint does not cover
        // is the droppable prefix. Only intact records are walked — a torn
        // tail (possible only after an unflushed crash, not in this live
        // process) is conservatively kept.
        let mut dropped = 0u64;
        let off = scan_log(&bytes, |record| {
            let covered = record.epoch <= epoch;
            dropped += covered as u64;
            covered
        });
        let (prefix, tail) = bytes.split_at(off);
        if prefix.is_empty() {
            // Nothing to drop; leave the log alone.
            return Ok(WalCompaction {
                bytes_retained: tail.len() as u64,
                ..WalCompaction::default()
            });
        }

        let mut tmp = self.path.clone().into_os_string();
        tmp.push(".compact.tmp");
        // The renamed temp file *is* the new log: its handle, positioned at
        // the end of the tail, becomes the live one.
        *file = codec::replace_file(&*self.io, Path::new(&tmp), &self.path, tail, "wal compact")?;
        self.disk_len.store(tail.len() as u64, Ordering::Relaxed);

        Ok(WalCompaction {
            records_dropped: dropped,
            bytes_dropped: prefix.len() as u64,
            bytes_retained: tail.len() as u64,
        })
    }
}

/// The one walk over a log image: hand each intact, decodable record at the
/// head of `bytes` to `accept` until it declines one, and return the byte
/// offset just past the last accepted record. Stops at the first sign of a
/// torn tail — any frame the codec does not call intact (a short header is
/// also the clean end of the log), or a payload whose CRC matched but whose
/// structure is bad.
fn scan_log(bytes: &[u8], mut accept: impl FnMut(WalRecord) -> bool) -> usize {
    let mut rest = bytes;
    while let Ok((payload, after)) = codec::read_frame(rest, MAX_RECORD) {
        if !decode_record(payload).is_ok_and(&mut accept) {
            break;
        }
        rest = after;
    }
    bytes.len() - rest.len()
}

// --------------------------------------------------------------------------
// Record payload: what one commit stores inside a frame.
// --------------------------------------------------------------------------

fn encode_record(w: &mut Writer<'_>, epoch: u64, delta: &DeltaSet) {
    let tables = delta.tables_sorted();
    w.u64(epoch);
    w.count(tables.len());
    for (name, td) in tables {
        w.str(name);
        w.count(td.inserts().len());
        for row in td.inserts() {
            w.count(row.len());
            for v in row {
                w.value(v);
            }
        }
        w.count(td.delete_keys().len());
        for &k in td.delete_keys() {
            w.i64(k);
        }
    }
}

fn decode_record(payload: &[u8]) -> Result<WalRecord> {
    let mut r = Reader::new(payload, "wal record");
    let epoch = r.u64()?;
    let mut delta = DeltaSet::new();
    for _ in 0..r.count()? {
        let name = r.str()?;
        for _ in 0..r.count()? {
            let n_vals = r.count()?;
            let mut row = Vec::with_capacity(n_vals.min(64));
            for _ in 0..n_vals {
                row.push(r.value()?);
            }
            delta.insert(name, row);
        }
        for _ in 0..r.count()? {
            delta.delete(name, r.i64()?);
        }
    }
    r.finish()?;
    Ok(WalRecord { epoch, delta })
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgo_common::Value;
    use std::fs::OpenOptions;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::Barrier;

    /// A disk whose writes fail with `EIO` while `fail_writes` is set.
    #[derive(Debug, Default)]
    struct FlakyDisk {
        fail_writes: AtomicBool,
    }

    impl Io for FlakyDisk {
        fn write(&self, site: Site, file: &mut Handle, bytes: &[u8]) -> std::io::Result<()> {
            if self.fail_writes.load(Ordering::Relaxed) {
                return Err(std::io::Error::from_raw_os_error(5));
            }
            Fs.write(site, file, bytes)
        }
    }

    fn temp_wal(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "relgo_wal_test_{}_{tag}_{n}.wal",
            std::process::id()
        ))
    }

    fn sample_delta(i: i64) -> DeltaSet {
        let mut d = DeltaSet::new();
        d.insert(
            "Person",
            vec![
                Value::Int(i),
                Value::str(format!("p{i}")),
                Value::Date(18_000 + i),
                Value::Float(i as f64 / 3.0),
                Value::Bool(i % 2 == 0),
                Value::Null,
            ],
        );
        d.insert(
            "Knows",
            vec![Value::Int(i * 10), Value::Int(0), Value::Int(1)],
        );
        d.delete("Likes", i + 100);
        d
    }

    /// Stage and sync one record per epoch, in order, holding
    /// `sample_delta(epoch)`.
    fn log(wal: &Wal, epochs: impl IntoIterator<Item = u64>) {
        for epoch in epochs {
            let seq = wal.append(epoch, &sample_delta(epoch as i64));
            wal.sync_through(seq).unwrap();
        }
    }

    /// The epochs a fresh open of the log at `path` recovers.
    fn epochs(path: &Path) -> Vec<u64> {
        let (_, rec) = Wal::open(path, WalOptions::default()).unwrap();
        rec.records.iter().map(|r| r.epoch).collect()
    }

    fn deltas_equal(a: &DeltaSet, b: &DeltaSet) -> bool {
        let (ta, tb) = (a.tables_sorted(), b.tables_sorted());
        ta.len() == tb.len()
            && ta.iter().zip(&tb).all(|((na, da), (nb, db))| {
                na == nb && da.inserts() == db.inserts() && da.delete_keys() == db.delete_keys()
            })
    }

    #[test]
    fn roundtrip_across_reopen() {
        let path = temp_wal("roundtrip");
        let (wal, rec) = Wal::open(&path, WalOptions::default()).unwrap();
        assert!(rec.records.is_empty());
        assert_eq!(rec.truncated_bytes, 0);
        log(&wal, 1..=5);
        let stats = wal.stats();
        assert_eq!(stats.records, 5);
        assert!(stats.bytes > 0);
        drop(wal);

        let (_wal, rec) = Wal::open(&path, WalOptions::default()).unwrap();
        assert_eq!(rec.records.len(), 5);
        assert_eq!(rec.truncated_bytes, 0);
        for (i, r) in rec.records.iter().enumerate() {
            assert_eq!(r.epoch, i as u64 + 1);
            assert!(deltas_equal(&r.delta, &sample_delta(r.epoch as i64)));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_recovers_to_nothing() {
        let path = temp_wal("empty");
        std::fs::write(&path, b"").unwrap();
        let (wal, rec) = Wal::open(&path, WalOptions::default()).unwrap();
        assert!(rec.records.is_empty());
        assert_eq!((rec.bytes, rec.truncated_bytes), (0, 0));
        // Appending to the recovered-empty log works.
        log(&wal, [1]);
        drop(wal);
        assert_eq!(epochs(&path), [1]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_record_recovers_to_last_intact() {
        let path = temp_wal("torn");
        log(&Wal::open(&path, WalOptions::default()).unwrap().0, 1..=3);
        // Tear the last record mid-payload.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let (_w, rec) = Wal::open(&path, WalOptions::default()).unwrap();
        assert_eq!(rec.records.len(), 2, "torn tail drops only the last record");
        assert!(rec.truncated_bytes > 0);
        assert_eq!(rec.records[1].epoch, 2);
        // The truncation is persisted: a second open is clean.
        let (_w, rec) = Wal::open(&path, WalOptions::default()).unwrap();
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.truncated_bytes, 0);
        std::fs::remove_file(&path).ok();

        // The same tear handed straight to the record decoder is reported
        // as a fault of the log, not of some other artifact.
        let mut frame = Vec::new();
        codec::push_frame(&mut frame, |w| encode_record(w, 1, &sample_delta(0)));
        let (payload, _) = codec::read_frame(&frame, MAX_RECORD).unwrap();
        assert!(decode_record(payload).is_ok());
        let err = decode_record(&payload[..payload.len() - 3]).unwrap_err();
        assert!(
            err.to_string().contains("wal record corrupt: truncated"),
            "{err}"
        );
    }

    #[test]
    fn flipped_crc_byte_recovers_to_last_intact() {
        let path = temp_wal("crc");
        let (wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
        let mut offsets = Vec::new();
        for epoch in 1..=3 {
            offsets.push(wal.disk_len() as usize);
            log(&wal, [epoch]);
        }
        drop(wal);
        // Flip one byte inside the last record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let last_payload = offsets[2] + codec::FRAME_HEADER;
        bytes[last_payload + 4] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let (_w, rec) = Wal::open(&path, WalOptions::default()).unwrap();
        assert_eq!(rec.records.len(), 2, "CRC mismatch drops the corrupt tail");
        assert!(rec.truncated_bytes > 0);

        // Corrupting the stored CRC itself (not the payload) is equally
        // fatal for that record.
        let mut bytes = std::fs::read(&path).unwrap();
        let second_crc = offsets[1] + codec::LEN_BYTES;
        bytes[second_crc] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let (_w, rec) = Wal::open(&path, WalOptions::default()).unwrap();
        assert_eq!(rec.records.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn appends_extend_a_recovered_log() {
        let path = temp_wal("extend");
        log(&Wal::open(&path, WalOptions::default()).unwrap().0, [1]);
        let (wal, rec) = Wal::open(&path, WalOptions::default()).unwrap();
        assert_eq!(rec.records.len(), 1);
        log(&wal, [2]);
        drop(wal);
        assert_eq!(epochs(&path), [1, 2]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn group_commit_batches_concurrent_syncs() {
        let path = temp_wal("group");
        let (wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
        let writers = 4;
        let per = 4;
        // Every writer stages its record before any of them syncs, so the
        // first to sync leads one flush that carries all of them.
        let staged = Barrier::new(writers);
        std::thread::scope(|scope| {
            for w in 0..writers {
                let (wal, staged) = (&wal, &staged);
                scope.spawn(move || {
                    for i in 0..per {
                        let seq = wal.append((w * per + i) as u64 + 1, &sample_delta(i as i64));
                        staged.wait();
                        wal.sync_through(seq).unwrap();
                    }
                });
            }
        });
        let stats = wal.stats();
        assert_eq!(stats.records, (writers * per) as u64);
        assert_eq!((stats.flushes, stats.syncs), (per as u64, per as u64));
        assert!(
            stats.syncs < stats.records,
            "group commit must batch concurrent records into fewer fsyncs \
             ({} syncs for {} records)",
            stats.syncs,
            stats.records
        );
        drop(wal);
        // Everything the writers considered durable is on disk.
        assert_eq!(epochs(&path).len(), writers * per);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_flush_fails_closed() {
        let path = temp_wal("failclosed");
        let disk = Arc::new(FlakyDisk::default());
        let (wal, _) = Wal::open(&path, WalOptions::with_io(disk.clone())).unwrap();
        log(&wal, [1]);

        disk.fail_writes.store(true, Ordering::Relaxed);
        let first = wal.append(2, &sample_delta(1));
        let second = wal.append(3, &sample_delta(2));
        assert!(wal.sync_through(first).is_err(), "the write must fail");
        disk.fail_writes.store(false, Ordering::Relaxed);

        // The second record was in the batch the failed leader took and
        // dropped: with a working file again it still must not be
        // acknowledged, and neither may anything staged afterwards.
        let err = wal.sync_through(second).unwrap_err();
        assert!(err.to_string().contains("failed closed"), "{err}");
        let later = wal.append(4, &sample_delta(3));
        assert!(wal.sync_through(later).is_err());
        assert!(wal.compact_through(1).is_err());
        // What was durable before the failure still is.
        wal.sync_through(1).unwrap();
        let stats = wal.stats();
        assert_eq!((stats.flushes, stats.syncs), (1, 1));
        drop(wal);
        assert_eq!(epochs(&path), [1], "exactly the acknowledged record");
        std::fs::remove_file(&path).ok();

        // Compaction flushes through the same leader: a staged record its
        // failed write dropped is never acknowledged either.
        let path = temp_wal("failclosed_compact");
        let (wal, _) = Wal::open(&path, WalOptions::with_io(disk.clone())).unwrap();
        disk.fail_writes.store(true, Ordering::Relaxed);
        let staged = wal.append(1, &sample_delta(0));
        assert!(wal.compact_through(0).is_err());
        disk.fail_writes.store(false, Ordering::Relaxed);
        assert!(wal.sync_through(staged).is_err());
        drop(wal);
        assert!(epochs(&path).is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_drops_checkpointed_prefix_and_keeps_tail() {
        let path = temp_wal("compact");
        let (wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
        log(&wal, 1..=6);
        let before = wal.disk_len();
        let c = wal.compact_through(4).unwrap();
        assert_eq!(c.records_dropped, 4);
        assert!(c.bytes_dropped > 0);
        assert_eq!(c.bytes_dropped + c.bytes_retained, before);
        assert_eq!(wal.disk_len(), c.bytes_retained);
        assert!(wal.disk_len() < before, "the log must shrink on disk");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), c.bytes_retained);

        // The surviving tail is exactly epochs 5..=6 and appends extend it.
        log(&wal, [7]);
        drop(wal);
        assert_eq!(epochs(&path), [5, 6, 7]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_flushes_staged_records_before_rewriting() {
        let path = temp_wal("compact_staged");
        let (wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
        for i in 0..3 {
            // Staged only: no sync_through before compaction.
            wal.append(i as u64 + 1, &sample_delta(i));
        }
        let c = wal.compact_through(2).unwrap();
        assert_eq!(c.records_dropped, 2);
        drop(wal);
        assert_eq!(epochs(&path), [3], "staged records survive compaction");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_with_nothing_to_drop_is_a_no_op() {
        let path = temp_wal("compact_noop");
        let (wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
        log(&wal, 10..=12);
        let before = wal.disk_len();
        let c = wal.compact_through(5).unwrap();
        assert_eq!((c.records_dropped, c.bytes_dropped), (0, 0));
        assert_eq!(c.bytes_retained, before);
        // The log still appends and replays cleanly.
        log(&wal, [13]);
        drop(wal);
        assert_eq!(epochs(&path), [10, 11, 12, 13]);
        std::fs::remove_file(&path).ok();
    }
}
