//! Versioned, CRC-checked on-disk checkpoints of a full epoch's tables.
//!
//! A checkpoint snapshots one published epoch of a [`Database`] — every
//! table (schema + rows, all six [`relgo_common::Value`] types), the primary-key map, and
//! the foreign keys — so recovery can load the snapshot and replay only the
//! WAL tail behind it instead of the full commit history. Key indexes are
//! derived data: the decoder re-warms one unique index per primary key,
//! which also re-validates key uniqueness on the way in.
//!
//! ## File format
//!
//! ```text
//! [8B magic "RGCKPT2\n"][one frame]
//! ```
//!
//! The frame, the value encoding and the atomic-replace protocol are
//! `codec.rs`'s, documented in its header. This module owns the frame's
//! payload: epoch, then each table in registration order as `name, fields
//! (name + type tag), row count, row-major tagged values`, then the
//! primary-key pairs and foreign-key quads.
//!
//! ## Atomicity
//!
//! [`CheckpointStore::write`] publishes a snapshot as `<wal>.ckpt.<epoch>`
//! through the codec's atomic replace, so a crash at any point leaves
//! either the old checkpoint set or the new one — never a torn visible
//! checkpoint, because torn bytes only ever live under the temp name, which
//! the loader ignores. [`CheckpointCrash`] lets the crash-recovery harness
//! kill the process inside each phase to prove it.
//! [`CheckpointStore::load_newest`] additionally tolerates a corrupted
//! newest file (bit rot after rename) by falling back to the previous
//! checkpoint, which retention keeps around for exactly this reason.

pub use crate::codec::CheckpointCrash;
use crate::codec::{self, io_err, Reader};
use relgo_common::{DataType, Field, RelGoError, Result, Schema};
use relgo_storage::{Database, TableBuilder};
use std::path::{Path, PathBuf};

/// Leading bytes of every checkpoint file; the trailing digit is the
/// format version.
pub const MAGIC: &[u8; 8] = b"RGCKPT2\n";

/// What [`CheckpointStore::write`] produced.
#[derive(Debug, Clone)]
pub struct WrittenCheckpoint {
    /// The epoch the snapshot captures.
    pub epoch: u64,
    /// Final (post-rename) path of the checkpoint file.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
}

/// What [`CheckpointStore::load_newest`] recovered.
#[derive(Debug)]
pub struct LoadedCheckpoint {
    /// The epoch the snapshot captures.
    pub epoch: u64,
    /// The reconstructed database (primary-key indexes re-warmed).
    pub db: Database,
    /// Path the snapshot was loaded from.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
    /// Newer checkpoint files that were rejected as corrupt before this
    /// one loaded (0 on the happy path).
    pub rejected: usize,
}

/// What [`CheckpointStore::retain`] did with superseded checkpoints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetentionReport {
    /// Checkpoint files deleted.
    pub removed: usize,
}

/// A family of checkpoint files living next to a WAL: `<wal>.ckpt.<epoch>`,
/// plus one `<wal>.ckpt.tmp` scratch name for in-flight writes.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    prefix: String,
}

impl CheckpointStore {
    /// The store for checkpoints of the log at `wal_path`.
    pub fn for_wal(wal_path: impl AsRef<Path>) -> CheckpointStore {
        let wal_path = wal_path.as_ref();
        let dir = match wal_path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => PathBuf::from("."),
        };
        let file = wal_path
            .file_name()
            .map(|f| f.to_string_lossy().into_owned())
            .unwrap_or_else(|| "wal".to_string());
        CheckpointStore {
            dir,
            prefix: format!("{file}.ckpt."),
        }
    }

    fn path_for(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("{}{epoch:020}", self.prefix))
    }

    fn temp_path(&self) -> PathBuf {
        self.dir.join(format!("{}tmp", self.prefix))
    }

    /// Existing checkpoint files as `(epoch, path)`, ascending by epoch.
    /// Temp files and foreign names are ignored.
    pub fn list(&self) -> Result<Vec<(u64, PathBuf)>> {
        let mut out = Vec::new();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(_) => return Ok(out), // no directory yet: no checkpoints
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(suffix) = name.strip_prefix(&self.prefix) else {
                continue;
            };
            let Ok(epoch) = suffix.parse::<u64>() else {
                continue; // the temp file or an unrelated sibling
            };
            out.push((epoch, entry.path()));
        }
        out.sort_unstable_by_key(|(e, _)| *e);
        Ok(out)
    }

    /// Snapshot `db` at `epoch`, published atomically (the codec's
    /// temp + fsync + rename + directory-fsync replace). `crash` is the
    /// harness's fault-injection hook.
    pub fn write(
        &self,
        epoch: u64,
        db: &Database,
        crash: Option<CheckpointCrash>,
    ) -> Result<WrittenCheckpoint> {
        let image = encode_checkpoint(epoch, db);
        let path = self.path_for(epoch);
        codec::replace_file(&self.temp_path(), &path, &image, "checkpoint", crash)?;
        Ok(WrittenCheckpoint {
            epoch,
            path,
            bytes: image.len() as u64,
        })
    }

    /// Load the newest checkpoint that decodes cleanly, skipping (and
    /// counting) corrupt newer files — a flipped CRC byte, a truncated
    /// header, or a zero-length file all fall back to the checkpoint
    /// before them. `Ok(None)` means no valid checkpoint exists.
    pub fn load_newest(&self) -> Result<Option<LoadedCheckpoint>> {
        let mut list = self.list()?;
        let mut rejected = 0usize;
        while let Some((epoch, path)) = list.pop() {
            let Ok(bytes) = std::fs::read(&path) else {
                rejected += 1;
                continue;
            };
            match decode_checkpoint(&bytes) {
                Ok((e, db)) if e == epoch => {
                    return Ok(Some(LoadedCheckpoint {
                        epoch,
                        db,
                        path,
                        bytes: bytes.len() as u64,
                        rejected,
                    }))
                }
                _ => rejected += 1,
            }
        }
        Ok(None)
    }

    /// Keep the `keep` newest checkpoint files and delete older ones.
    /// Keeping at least 2 preserves the fallback target
    /// [`CheckpointStore::load_newest`] relies on if the newest file rots
    /// after its rename.
    pub fn retain(&self, keep: usize) -> Result<RetentionReport> {
        let mut list = self.list()?;
        let mut report = RetentionReport::default();
        if list.len() <= keep {
            return Ok(report);
        }
        let drop_n = list.len() - keep;
        for (_, path) in list.drain(..drop_n) {
            std::fs::remove_file(&path).map_err(|e| io_err("checkpoint remove", &e))?;
            report.removed += 1;
        }
        Ok(report)
    }
}

// --------------------------------------------------------------------------
// Snapshot payload: what one checkpoint stores inside its frame.
// --------------------------------------------------------------------------

/// The name decode errors carry.
const ARTIFACT: &str = "checkpoint";

fn corrupt(what: impl std::fmt::Display) -> RelGoError {
    codec::corrupt(ARTIFACT, what)
}

fn dtype_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
        DataType::Bool => 3,
        DataType::Date => 4,
    }
}

fn dtype_from(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Str,
        3 => DataType::Bool,
        4 => DataType::Date,
        t => return Err(corrupt(format_args!("unknown data type tag {t}"))),
    })
}

/// Encode the complete checkpoint file image (magic + one frame) for `db`
/// at `epoch`.
pub fn encode_checkpoint(epoch: u64, db: &Database) -> Vec<u8> {
    let mut image = Vec::with_capacity(256);
    image.extend_from_slice(MAGIC);
    codec::push_frame(&mut image, |w| {
        w.u64(epoch);
        let tables: Vec<_> = db.tables().collect();
        w.count(tables.len());
        for table in &tables {
            w.str(table.name());
            let fields = table.schema().fields();
            w.count(fields.len());
            for field in fields {
                w.str(&field.name);
                w.u8(dtype_tag(field.dtype));
            }
            w.u64(table.num_rows() as u64);
            for r in 0..table.num_rows() as u32 {
                for v in table.row(r) {
                    w.value(&v);
                }
            }
        }
        let pks: Vec<(&str, &str)> = tables
            .iter()
            .filter_map(|t| db.primary_key(t.name()).map(|pk| (t.name(), pk)))
            .collect();
        w.count(pks.len());
        for (table, column) in pks {
            w.str(table);
            w.str(column);
        }
        let fks = db.foreign_keys();
        w.count(fks.len());
        for fk in fks {
            w.str(&fk.table);
            w.str(&fk.column);
            w.str(&fk.ref_table);
            w.str(&fk.ref_column);
        }
    });
    image
}

/// Decode a checkpoint file image back into `(epoch, Database)`, verifying
/// the magic and the frame (length and CRC) before touching the payload,
/// and re-warming one key index per primary key afterwards.
pub fn decode_checkpoint(image: &[u8]) -> Result<(u64, Database)> {
    let Some(framed) = image.strip_prefix(MAGIC.as_slice()) else {
        return Err(corrupt("bad magic"));
    };
    let (payload, rest) = codec::read_frame(framed, u64::MAX).map_err(corrupt)?;
    if !rest.is_empty() {
        return Err(corrupt("bytes after the frame"));
    }

    let mut r = Reader::new(payload, ARTIFACT);
    let epoch = r.u64()?;
    let mut db = Database::new();
    for _ in 0..r.count()? {
        let name = r.str()?;
        let n_fields = r.count()?;
        let mut fields = Vec::with_capacity(n_fields.min(64));
        for _ in 0..n_fields {
            let fname = r.str()?;
            fields.push(Field::new(fname, dtype_from(r.u8()?)?));
        }
        let schema = Schema::new(fields)?;
        let n_rows = r.u64()?;
        // Every encoded value takes at least one byte, so the bytes left
        // bound the rows a table can hold; the count is checked before the
        // loop because a zero-field table would otherwise spin through any
        // claimed count without consuming input.
        let fits = match n_fields {
            0 => n_rows == 0,
            _ => n_rows <= (r.remaining() / n_fields) as u64,
        };
        if !fits {
            return Err(r.corrupt(format_args!(
                "table {name} claims {n_rows} rows of {n_fields} fields \
                 with {} bytes left",
                r.remaining()
            )));
        }
        let mut builder = TableBuilder::new(name, schema);
        for _ in 0..n_rows {
            let mut row = Vec::with_capacity(n_fields);
            for _ in 0..n_fields {
                row.push(r.value()?);
            }
            builder.push_row(row)?;
        }
        db.add_table(builder.finish());
    }
    let n_pks = r.count()?;
    let mut pks = Vec::with_capacity(n_pks.min(64));
    for _ in 0..n_pks {
        let table = r.str()?;
        let column = r.str()?;
        db.set_primary_key(table, column)?;
        pks.push((table, column));
    }
    // Foreign keys validate against primary keys, so they decode after the
    // whole primary-key map is in place.
    for _ in 0..r.count()? {
        let table = r.str()?;
        let column = r.str()?;
        let ref_table = r.str()?;
        let ref_column = r.str()?;
        db.add_foreign_key(table, column, ref_table, ref_column)?;
    }
    r.finish()?;
    // Re-warm the unique key indexes the snapshot's metadata names; this
    // also re-validates primary-key uniqueness of the decoded rows.
    for (table, column) in pks {
        db.key_index(table, column)?;
    }
    Ok((epoch, db))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgo_common::Value;
    use relgo_storage::table::table_of;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_wal(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "relgo_ckpt_test_{}_{tag}_{n}.wal",
            std::process::id()
        ))
    }

    fn cleanup(store: &CheckpointStore) {
        for (_, path) in store.list().unwrap() {
            std::fs::remove_file(path).ok();
        }
    }

    /// A database exercising all six `Value` variants, non-ASCII strings,
    /// an empty table, a primary key, and a foreign key.
    fn sample_db() -> Database {
        let mut db = Database::new();
        db.add_table(table_of(
            "Person",
            &[
                ("person_id", DataType::Int),
                ("name", DataType::Str),
                ("score", DataType::Float),
                ("active", DataType::Bool),
                ("joined", DataType::Date),
                ("note", DataType::Str),
            ],
            vec![
                vec![
                    Value::Int(1),
                    Value::str("Ada"),
                    Value::Float(1.5),
                    Value::Bool(true),
                    Value::Date(18_000),
                    Value::Null,
                ],
                vec![
                    Value::Int(2),
                    Value::str("Ωμέγα-测试"),
                    Value::Float(-0.0),
                    Value::Bool(false),
                    Value::Date(-3),
                    Value::str(""),
                ],
            ],
        ));
        db.add_table(table_of(
            "Likes",
            &[("like_id", DataType::Int), ("person_id", DataType::Int)],
            vec![vec![Value::Int(10), Value::Int(1)]],
        ));
        db.add_table(table_of("Empty", &[("k", DataType::Int)], vec![]));
        db.set_primary_key("Person", "person_id").unwrap();
        db.set_primary_key("Likes", "like_id").unwrap();
        db.add_foreign_key("Likes", "person_id", "Person", "person_id")
            .unwrap();
        db
    }

    fn dbs_identical(a: &Database, b: &Database) -> bool {
        let names = a.table_names();
        names == b.table_names()
            && names.iter().all(|name| {
                a.table(name).unwrap().bit_identical(b.table(name).unwrap())
                    && a.primary_key(name) == b.primary_key(name)
            })
            && a.foreign_keys() == b.foreign_keys()
    }

    #[test]
    fn codec_round_trips_all_value_types_and_metadata() {
        let db = sample_db();
        let image = encode_checkpoint(42, &db);
        let (epoch, decoded) = decode_checkpoint(&image).unwrap();
        assert_eq!(epoch, 42);
        assert!(dbs_identical(&db, &decoded));
    }

    #[test]
    fn decoder_rejects_torn_and_corrupt_images() {
        let image = encode_checkpoint(7, &sample_db());
        // Zero-length and truncated-header images.
        assert!(decode_checkpoint(&[]).is_err());
        assert!(decode_checkpoint(&image[..MAGIC.len() + 3]).is_err());
        // Truncated payload.
        assert!(decode_checkpoint(&image[..image.len() - 1]).is_err());
        // Bad magic.
        let mut bad = image.clone();
        bad[0] ^= 0xff;
        assert!(decode_checkpoint(&bad).is_err());
        // One flipped payload byte must trip the CRC.
        let mut bad = image.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(decode_checkpoint(&bad).is_err());
        // A flipped CRC byte is equally fatal.
        let mut bad = image;
        bad[MAGIC.len() + codec::LEN_BYTES] ^= 0x01;
        assert!(decode_checkpoint(&bad).is_err());

        // Structurally bad payloads behind a valid magic, length and CRC.
        let sealed = |payload: &dyn Fn(&mut codec::Writer<'_>)| {
            let mut image = MAGIC.to_vec();
            codec::push_frame(&mut image, payload);
            decode_checkpoint(&image).unwrap_err().to_string()
        };
        // A payload that stops short is a checkpoint fault, not a WAL one.
        let msg = sealed(&|w| w.u64(7));
        assert!(msg.contains("checkpoint corrupt: truncated"), "{msg}");
        assert!(!msg.contains("wal"), "{msg}");
        // 57 bytes: one table of zero fields claiming 2^32 rows. Decoding
        // it row by row consumes no input and so never runs out of it; the
        // row count has to be refused up front.
        let msg = sealed(&|w| {
            w.u64(7);
            w.count(1);
            w.str("T");
            w.count(0);
            w.u64(1 << 32);
            w.count(0);
            w.count(0);
        });
        assert!(msg.contains("checkpoint corrupt"), "{msg}");
        assert!(msg.contains("4294967296 rows"), "{msg}");
        // A count the remaining bytes cannot hold is refused the same way.
        let msg = sealed(&|w| {
            w.u64(7);
            w.count(1);
            w.str("T");
            w.count(1);
            w.str("k");
            w.u8(dtype_tag(DataType::Int));
            w.u64(u64::MAX);
        });
        assert!(msg.contains("18446744073709551615 rows"), "{msg}");
    }

    #[test]
    fn store_writes_atomically_and_loads_newest() {
        let store = CheckpointStore::for_wal(temp_wal("store"));
        cleanup(&store);
        let db = sample_db();
        let w1 = store.write(3, &db, None).unwrap();
        assert!(w1.path.exists());
        store.write(9, &db, None).unwrap();
        // No temp file survives a completed write.
        assert!(!store.temp_path().exists());
        let loaded = store.load_newest().unwrap().unwrap();
        assert_eq!((loaded.epoch, loaded.rejected), (9, 0));
        assert!(dbs_identical(&db, &loaded.db));
        assert_eq!(
            store
                .list()
                .unwrap()
                .iter()
                .map(|(e, _)| *e)
                .collect::<Vec<_>>(),
            vec![3, 9]
        );
        cleanup(&store);
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous_checkpoint() {
        let store = CheckpointStore::for_wal(temp_wal("fallback"));
        cleanup(&store);
        let db = sample_db();
        store.write(3, &db, None).unwrap();
        let w2 = store.write(9, &db, None).unwrap();

        // Flip one byte of the newest file: load falls back to epoch 3.
        let mut bytes = std::fs::read(&w2.path).unwrap();
        bytes[MAGIC.len() + 1] ^= 0xff;
        std::fs::write(&w2.path, &bytes).unwrap();
        let loaded = store.load_newest().unwrap().unwrap();
        assert_eq!((loaded.epoch, loaded.rejected), (3, 1));
        assert!(dbs_identical(&db, &loaded.db));

        // Truncate the newest to a short header: still falls back.
        std::fs::write(&w2.path, &bytes[..5]).unwrap();
        let loaded = store.load_newest().unwrap().unwrap();
        assert_eq!((loaded.epoch, loaded.rejected), (3, 1));

        // Zero-length newest: still falls back.
        std::fs::write(&w2.path, b"").unwrap();
        let loaded = store.load_newest().unwrap().unwrap();
        assert_eq!((loaded.epoch, loaded.rejected), (3, 1));

        // Every checkpoint corrupt: no checkpoint, caller replays from base.
        for (_, path) in store.list().unwrap() {
            std::fs::write(path, b"junk").unwrap();
        }
        assert!(store.load_newest().unwrap().is_none());
        cleanup(&store);
    }

    #[test]
    fn stray_temp_file_is_ignored_by_load_and_list() {
        let store = CheckpointStore::for_wal(temp_wal("straytmp"));
        cleanup(&store);
        let db = sample_db();
        store.write(4, &db, None).unwrap();
        // A crash between temp write and rename leaves this behind.
        std::fs::write(store.temp_path(), b"torn checkpoint bytes").unwrap();
        assert_eq!(store.list().unwrap().len(), 1);
        let loaded = store.load_newest().unwrap().unwrap();
        assert_eq!((loaded.epoch, loaded.rejected), (4, 0));
        std::fs::remove_file(store.temp_path()).ok();
        cleanup(&store);
    }

    #[test]
    fn retention_keeps_the_newest_and_deletes_the_rest() {
        let store = CheckpointStore::for_wal(temp_wal("retain"));
        cleanup(&store);
        let db = sample_db();
        for epoch in [1u64, 2, 3, 4] {
            store.write(epoch, &db, None).unwrap();
        }
        let report = store.retain(2).unwrap();
        assert_eq!(report.removed, 2);
        let epochs: Vec<u64> = store.list().unwrap().iter().map(|(e, _)| *e).collect();
        assert_eq!(epochs, vec![3, 4]);
        cleanup(&store);
    }
}
