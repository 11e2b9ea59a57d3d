//! Property tests for the durable codec behind the checkpoint store and
//! the write-ahead log (`relgo_delta::{checkpoint, wal}`, both over one
//! private frame/value codec).
//!
//! Randomized databases — any mix of the six [`Value`] variants (nulls
//! included), empty tables, non-ASCII and embedded-separator strings,
//! optional primary keys — must round-trip through
//! `encode_checkpoint`/`decode_checkpoint` bit-identically, and any single
//! flipped byte anywhere in the image must be rejected rather than decoded
//! into a silently different database.
//!
//! One mutation property covers the one frame scanner from both sides: a
//! valid multi-record log and a valid checkpoint image are truncated at
//! every offset, have every byte flipped, have every frame's length field
//! inflated and shrunk, and have a frame duplicated. The checkpoint decoder
//! must refuse each mutant; log recovery must return exactly the records
//! in front of the damaged frame, bit-identical; and neither may allocate
//! more than a constant factor of the bytes it was given.

use proptest::prelude::*;
use relgo::delta::checkpoint::{decode_checkpoint, encode_checkpoint, MAGIC};
use relgo::delta::DeltaSet;
use relgo::prelude::*;
use relgo::storage::table::table_of;
use relgo::{Wal, WalOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// String seeds exercising the encoder's length-prefixed UTF-8 path: empty,
/// multi-byte Greek/CJK/emoji, combining marks, and bytes that would break
/// a delimiter-based format.
const ALPHABET: &[&str] = &[
    "",
    "a",
    "Zed",
    "Ωμέγα",
    "测试",
    "🦀🦀",
    "naïve",
    "line\nbreak",
    "pipe|sep",
    "nul\u{0}byte",
];

fn dtype_of(tag: u8) -> DataType {
    match tag {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Str,
        3 => DataType::Bool,
        _ => DataType::Date,
    }
}

/// A deterministic cell value for dtype `tag` from one random pick. Every
/// seventh pick is a Null tombstone (the key column never takes this path),
/// and floats include the -0.0 / fractional cases a naive text codec drops.
fn value_for(tag: u8, pick: u64) -> Value {
    if pick.is_multiple_of(7) {
        return Value::Null;
    }
    match tag {
        0 => Value::Int(pick as i64 - 500),
        1 => {
            if pick.is_multiple_of(11) {
                Value::Float(-0.0)
            } else {
                Value::Float((pick as f64 - 500.0) / 8.0)
            }
        }
        2 => Value::str(format!(
            "{}_{pick}",
            ALPHABET[pick as usize % ALPHABET.len()]
        )),
        3 => Value::Bool(pick.is_multiple_of(2)),
        _ => Value::Date(pick as i64 - 300),
    }
}

/// One random table: field dtypes (field 0 always Int, the key column),
/// random cell picks (possibly zero rows), and whether a primary key is
/// declared on the key column.
#[derive(Debug, Clone)]
struct TableSpec {
    dtypes: Vec<u8>,
    cells: Vec<Vec<u64>>,
    with_pk: bool,
}

fn table_spec() -> impl Strategy<Value = TableSpec> {
    (
        proptest::collection::vec(0u8..5, 1..5),
        0usize..8,
        any::<bool>(),
    )
        .prop_flat_map(|(mut dtypes, n_rows, with_pk)| {
            dtypes[0] = 0; // the key column is always Int
            let fields = dtypes.len();
            let cells = proptest::collection::vec(
                proptest::collection::vec(1u64..100_000, fields..fields + 1),
                n_rows..n_rows + 1,
            );
            (Just(dtypes), cells, Just(with_pk)).prop_map(|(dtypes, cells, with_pk)| TableSpec {
                dtypes,
                cells,
                with_pk,
            })
        })
}

fn build_db(specs: &[TableSpec]) -> Database {
    let mut db = Database::new();
    for (t, spec) in specs.iter().enumerate() {
        let name = format!("T{t}");
        let fields: Vec<(String, DataType)> = spec
            .dtypes
            .iter()
            .enumerate()
            .map(|(i, &d)| (format!("c{i}"), dtype_of(d)))
            .collect();
        let field_refs: Vec<(&str, DataType)> =
            fields.iter().map(|(n, d)| (n.as_str(), *d)).collect();
        let rows: Vec<Vec<Value>> = spec
            .cells
            .iter()
            .enumerate()
            .map(|(r, picks)| {
                picks
                    .iter()
                    .enumerate()
                    // Row index as the key value: unique by construction, so
                    // a declared primary key always validates (and decode's
                    // key-index re-warm re-checks that uniqueness).
                    .map(|(i, &p)| {
                        if i == 0 {
                            Value::Int(r as i64)
                        } else {
                            value_for(spec.dtypes[i], p)
                        }
                    })
                    .collect()
            })
            .collect();
        db.add_table(table_of(&name, &field_refs, rows));
        if spec.with_pk {
            db.set_primary_key(&name, "c0").unwrap();
        }
    }
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

// --------------------------------------------------------------------------
// Allocation accounting for the mutation property.
// --------------------------------------------------------------------------

thread_local! {
    /// Heap bytes this thread currently holds, and their high-water mark.
    /// Per thread, so tests running in parallel do not see each other.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's live bytes.
struct Counting;

fn note(grow: usize, shrink: usize) {
    // `try_with`: the allocator also runs while a thread's locals are being
    // torn down, when there is nothing left to count into.
    let _ = LIVE.try_with(|live| {
        // Saturating: a block may be freed by another thread than its owner.
        live.set((live.get() + grow).saturating_sub(shrink));
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping around it neither allocates nor
// touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, layout.size());
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, layout.size());
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f` and report how far this thread's live heap rose above where it
/// stood when `f` started.
fn peak_heap_of<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start));
    let out = f();
    (PEAK.with(Cell::get) - start, out)
}

/// The bound the mutation property holds decoders to: a constant factor of
/// the input (a one-byte `Null` becomes a 24-byte `Value`, and vectors
/// double as they grow) plus a constant for fixed-size bookkeeping. A
/// decoder that trusted a length or count read from the input would blow
/// through it by orders of magnitude.
fn heap_budget(input_len: usize) -> usize {
    64 * input_len + (64 << 10)
}

// --------------------------------------------------------------------------
// Mutants of a sequence of frames.
// --------------------------------------------------------------------------

/// Width of a frame's little-endian length field, which is the first thing
/// in a frame (the layout is documented in `crates/delta/src/codec.rs`).
const LEN_FIELD: usize = 8;

/// What a mutant did to the original bytes.
#[derive(Debug)]
enum Damage {
    /// Cut, flipped or rewrote bytes; this is the offset of the first one.
    At(usize),
    /// Repeated the frame with this index right after itself — which
    /// damages nothing: every frame of the mutant is intact.
    Duplicated(usize),
}

/// Every mutant of `bytes` the property covers: a description, the damage,
/// the mutated bytes. `frames` holds each frame's `start..end` in `bytes`.
fn mutants(
    bytes: &[u8],
    frames: &[std::ops::Range<usize>],
    mask: u8,
) -> Vec<(String, Damage, Vec<u8>)> {
    let mut out = Vec::new();
    for cut in 0..bytes.len() {
        out.push((
            format!("cut at {cut}"),
            Damage::At(cut),
            bytes[..cut].to_vec(),
        ));
    }
    for pos in 0..bytes.len() {
        let mut m = bytes.to_vec();
        m[pos] ^= mask;
        out.push((format!("flip {pos} by {mask:#04x}"), Damage::At(pos), m));
    }
    for (index, frame) in frames.iter().enumerate() {
        let field = frame.start..frame.start + LEN_FIELD;
        let len = u64::from_le_bytes(bytes[field.clone()].try_into().unwrap());
        for claimed in [len + 1, len + 4096, u64::MAX, len.saturating_sub(1), 0] {
            if claimed != len {
                let mut m = bytes.to_vec();
                m[field.clone()].copy_from_slice(&claimed.to_le_bytes());
                let what = format!("length {len} -> {claimed} at {}", frame.start);
                out.push((what, Damage::At(frame.start), m));
            }
        }
        let mut m = bytes[..frame.end].to_vec();
        m.extend_from_slice(&bytes[frame.clone()]);
        m.extend_from_slice(&bytes[frame.end..]);
        out.push((
            format!("duplicate frame {index}"),
            Damage::Duplicated(index),
            m,
        ));
    }
    out
}

/// One random commit: inserted rows as `(table, cell picks)` plus
/// tombstone keys.
type RecordSpec = (Vec<(u8, Vec<u64>)>, Vec<i64>);

fn record_spec() -> impl Strategy<Value = RecordSpec> {
    (
        proptest::collection::vec(
            (0u8..3, proptest::collection::vec(1u64..100_000, 0..6)),
            0..4,
        ),
        proptest::collection::vec(-1000i64..1000, 0..3),
    )
}

fn build_delta((inserts, deletes): &RecordSpec) -> DeltaSet {
    let mut delta = DeltaSet::new();
    for (table, picks) in inserts {
        let row = picks.iter().map(|&p| value_for((p % 5) as u8, p)).collect();
        delta.insert(&format!("T{table}"), row);
    }
    for &key in deletes {
        delta.delete("T0", key);
    }
    delta
}

/// A representation of one log record under which two records are equal
/// only if they are bit-identical: `Debug` keeps `Int`/`Date` and
/// `0.0`/`-0.0` apart, which `Value::eq` does not.
fn record_repr(epoch: u64, delta: &DeltaSet) -> String {
    format!("{epoch} {:?}", delta.tables_sorted())
}

fn temp_log(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("relgo_codec_prop_{}_{tag}.wal", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Encode → decode is the identity on tables, rows, values, and key
    /// metadata, whatever the shape of the database.
    #[test]
    fn codec_round_trips_random_databases(
        specs in proptest::collection::vec(table_spec(), 1..4),
        epoch in 0u64..1_000_000,
    ) {
        let db = build_db(&specs);
        let image = encode_checkpoint(epoch, &db);
        let (got_epoch, decoded) = decode_checkpoint(&image).unwrap();
        prop_assert_eq!(got_epoch, epoch);
        prop_assert!(dbs_identical(&db, &decoded), "decoded database diverges");
    }

    /// Flipping any single byte of the image — header, CRC, length, or
    /// payload — is detected: decode errors instead of returning a
    /// different database.
    #[test]
    fn single_byte_corruption_never_decodes(
        specs in proptest::collection::vec(table_spec(), 1..3),
        epoch in 0u64..1_000,
        pos_pick in 0u64..1_000_000_000,
        mask in 1u8..255,
    ) {
        let db = build_db(&specs);
        let mut image = encode_checkpoint(epoch, &db);
        let pos = (pos_pick % image.len() as u64) as usize;
        image[pos] ^= mask;
        prop_assert!(
            decode_checkpoint(&image).is_err(),
            "flipped byte {pos} (mask {mask:#04x}) decoded anyway"
        );
    }

    /// Truncating the image at any point is detected.
    #[test]
    fn truncated_images_never_decode(
        specs in proptest::collection::vec(table_spec(), 1..3),
        cut_pick in 0u64..1_000_000_000,
    ) {
        let db = build_db(&specs);
        let image = encode_checkpoint(9, &db);
        let cut = (cut_pick % image.len() as u64) as usize;
        prop_assert!(
            decode_checkpoint(&image[..cut]).is_err(),
            "torn image (cut at {cut}/{}) decoded anyway",
            image.len()
        );
    }

    /// The mutation property, checkpoint side: no mutant of a valid image
    /// decodes, and refusing it costs no more heap than decoding would.
    #[test]
    fn no_mutant_of_a_checkpoint_image_decodes(
        specs in proptest::collection::vec(table_spec(), 1..3),
        epoch in 0u64..1_000,
        mask in 1u8..255,
    ) {
        let image = encode_checkpoint(epoch, &build_db(&specs));
        let (heap, decoded) = peak_heap_of(|| decode_checkpoint(&image));
        prop_assert!(decoded.is_ok());
        prop_assert!(heap <= heap_budget(image.len()), "{heap} bytes for a valid image");
        // The image is its magic and then one frame.
        let frame = MAGIC.len()..image.len();
        for (what, _, mutant) in mutants(&image, std::slice::from_ref(&frame), mask) {
            let (heap, decoded) = peak_heap_of(|| decode_checkpoint(&mutant));
            prop_assert!(decoded.is_err(), "{what}: decoded anyway");
            prop_assert!(
                heap <= heap_budget(mutant.len()),
                "{what}: {heap} heap bytes for {} input bytes",
                mutant.len()
            );
        }
    }

    /// The mutation property, log side: recovery of any mutant returns
    /// exactly the records in front of the first damaged frame — never a
    /// record behind it, never a changed one — and truncates the file to
    /// them. (`truncated_record_recovers_to_last_intact` and
    /// `flipped_crc_byte_recovers_to_last_intact` in `wal::tests` are two
    /// fixed inputs of this property, kept as named regressions.) A
    /// duplicated frame is intact, so the log layer returns it twice; that
    /// an epoch cannot repeat is the session's replay check.
    #[test]
    fn log_mutants_recover_to_the_records_before_the_damage(
        specs in proptest::collection::vec(record_spec(), 1..5),
        mask in 1u8..255,
    ) {
        let path = temp_log("log");
        std::fs::remove_file(&path).ok();
        let deltas: Vec<DeltaSet> = specs.iter().map(build_delta).collect();
        let (wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
        let mut frames = Vec::new();
        for (i, delta) in deltas.iter().enumerate() {
            let start = wal.disk_len() as usize;
            wal.sync_through(wal.append(i as u64 + 1, delta)).unwrap();
            frames.push(start..wal.disk_len() as usize);
        }
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();
        prop_assert_eq!(bytes.len(), frames.last().unwrap().end);
        let reprs: Vec<String> = deltas
            .iter()
            .enumerate()
            .map(|(i, d)| record_repr(i as u64 + 1, d))
            .collect();

        for (what, damage, mutant) in mutants(&bytes, &frames, mask) {
            // The records a correct recovery returns, and the bytes it keeps.
            let (expected, valid) = match damage {
                Damage::At(at) => {
                    let intact = frames.iter().take_while(|f| f.end <= at).count();
                    let valid = intact.checked_sub(1).map_or(0, |last| frames[last].end);
                    (reprs[..intact].to_vec(), valid)
                }
                Damage::Duplicated(dup) => {
                    let mut twice = reprs[..=dup].to_vec();
                    twice.extend_from_slice(&reprs[dup..]);
                    (twice, mutant.len())
                }
            };
            std::fs::write(&path, &mutant).unwrap();
            let (heap, opened) = peak_heap_of(|| Wal::open(&path, WalOptions::default()));
            let (wal, recovery) = opened.unwrap();
            let got: Vec<String> = recovery
                .records
                .iter()
                .map(|r| record_repr(r.epoch, &r.delta))
                .collect();
            prop_assert_eq!(&got, &expected, "{}", what);
            prop_assert_eq!(recovery.bytes as usize, valid, "{}", what);
            prop_assert_eq!(recovery.truncated_bytes as usize, mutant.len() - valid, "{}", what);
            prop_assert!(
                heap <= heap_budget(mutant.len()),
                "{what}: {heap} heap bytes for {} input bytes",
                mutant.len()
            );
            drop(wal);
            prop_assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, valid, "{}", what);
        }
        std::fs::remove_file(&path).ok();
    }
}
