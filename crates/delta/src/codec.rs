//! Every decision about durable bytes, in one place.
//!
//! The write-ahead log ([`crate::wal`]) and the checkpoint store
//! ([`crate::checkpoint`]) are callers of this module: they decide *what* a
//! record or a snapshot contains, this module decides how bytes are framed,
//! checked, encoded and put on disk. The workspace's serde is a marker-only
//! shim, which is why the codec is written out by hand.
//!
//! ## Frame
//!
//! ```text
//! [u64 len][u32 crc32(payload)][payload: len bytes]
//! ```
//!
//! All integers are little-endian; the checksum is CRC-32/IEEE over the
//! payload alone. The log is a flat sequence of frames; a checkpoint image
//! is a magic string followed by exactly one. [`push_frame`] is the only
//! code that builds a header and [`read_frame`] the only code that parses
//! one. A frame is *intact* when its header is complete, its length is
//! within the caller's cap and within the bytes that follow, and the
//! checksum matches; a reader stops at the first frame that is not, so
//! whatever lies behind a tear is never interpreted.
//!
//! ## Values
//!
//! [`Writer`] and [`Reader`] are mirror images over the same primitives:
//! `u8`, `u64`, `i64`, `count` (an element or byte count, a `u32`), `str` (a
//! byte `count`, then UTF-8) and [`Value`], which is one tag byte followed by
//! its body:
//!
//! | tag | variant | body |
//! |---|---|---|
//! | 0 | `Null` | — |
//! | 1 | `Int` | `i64` |
//! | 2 | `Float` | `u64`, the IEEE-754 bits (so `-0.0` and NaN payloads survive) |
//! | 3 | `Str` | `str` |
//! | 4 | `Bool` | `u8` (0 = false) |
//! | 5 | `Date` | `i64` |
//!
//! Every encoded value is therefore at least one byte, which is what lets a
//! decoder bound a claimed element count by the bytes it has left. A
//! [`Reader`] carries the name of the artifact it is decoding, and every
//! error it produces starts with that name.
//!
//! ## Atomic replace
//!
//! [`replace_file`] is the one way a whole file becomes visible: write the
//! bytes under a temporary sibling name, `fsync` that file, `rename` it
//! over the destination, `fsync` the directory. A crash at any point leaves
//! either the old destination or the new one — torn bytes only ever live
//! under the temporary name, which no loader opens. A failed directory
//! `fsync` is the caller's error: the new name may not survive a power cut.
//!
//! ## The I/O seam
//!
//! Every filesystem call the crate makes goes through the [`Io`] trait, and
//! each call names its [`Site`] — sixteen in all. The filesystem ([`Fs`],
//! the `fs` module at the end of this file) is the trait's one
//! implementation and the only code in the crate that names `std::fs`.
//! Tests put a double in its place through
//! [`crate::wal::WalOptions::with_io`] to fail any call with `EIO`,
//! `ENOSPC`, a short write or a power cut (`tests/wal_recovery.rs`).

use relgo_common::{RelGoError, Result, Value};
use std::io;
use std::path::{Path, PathBuf};

pub use fs::{Fs, Handle};

/// Width of a frame's length field.
pub(crate) const LEN_BYTES: usize = 8;
/// Width of a frame header: the length, then the CRC.
pub(crate) const FRAME_HEADER: usize = LEN_BYTES + 4;

/// Append one frame to `out`, its payload written by `payload`. The frame
/// is built in place — header space first, patched once the payload's
/// length and checksum are known — so the payload is never copied.
pub(crate) fn push_frame(out: &mut Vec<u8>, payload: impl FnOnce(&mut Writer<'_>)) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    payload(&mut Writer { out });
    let (header, body) = out[start..].split_at_mut(FRAME_HEADER);
    header[..LEN_BYTES].copy_from_slice(&(body.len() as u64).to_le_bytes());
    header[LEN_BYTES..].copy_from_slice(&crc32(body).to_le_bytes());
}

/// Split the intact frame at the head of `buf` into `(payload, rest)`, or
/// say why there is none: a short header (which is also what a clean end of
/// log looks like), a length above `max_len` or past the end of `buf`, or a
/// checksum mismatch.
pub(crate) fn read_frame(
    buf: &[u8],
    max_len: u64,
) -> std::result::Result<(&[u8], &[u8]), &'static str> {
    let Some((header, body)) = buf.split_at_checked(FRAME_HEADER) else {
        return Err("short frame header");
    };
    let (len, crc) = header.split_at(LEN_BYTES);
    let len = u64::from_le_bytes(len.try_into().expect("LEN_BYTES wide"));
    let crc = u32::from_le_bytes(crc.try_into().expect("4 bytes wide"));
    if len > max_len {
        return Err("frame length over the cap");
    }
    // A length that does not fit `usize` cannot fit the buffer either.
    let Some((payload, rest)) = usize::try_from(len)
        .ok()
        .and_then(|len| body.split_at_checked(len))
    else {
        return Err("frame runs past the end");
    };
    if crc32(payload) != crc {
        return Err("frame crc mismatch");
    }
    Ok((payload, rest))
}

/// Little-endian encoder over a borrowed buffer; the mirror of [`Reader`].
pub(crate) struct Writer<'a> {
    out: &'a mut Vec<u8>,
}

impl Writer<'_> {
    pub(crate) fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn i64(&mut self, v: i64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// An element or byte count, stored as `u32`.
    pub(crate) fn count(&mut self, n: usize) {
        let n = u32::try_from(n).expect("a count in a durable artifact fits u32");
        self.out.extend_from_slice(&n.to_le_bytes());
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.count(s.len());
        self.out.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u8(0),
            Value::Int(i) => {
                self.u8(1);
                self.i64(*i);
            }
            Value::Float(f) => {
                self.u8(2);
                self.u64(f.to_bits());
            }
            Value::Str(s) => {
                self.u8(3);
                self.str(s);
            }
            Value::Bool(b) => {
                self.u8(4);
                self.u8(*b as u8);
            }
            Value::Date(d) => {
                self.u8(5);
                self.i64(*d);
            }
        }
    }
}

/// Little-endian decoder over one frame's payload; the mirror of
/// [`Writer`]. `artifact` ("wal record", "checkpoint") prefixes every error.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    artifact: &'static str,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8], artifact: &'static str) -> Self {
        Reader { buf, artifact }
    }

    /// A decode error naming this reader's artifact.
    pub(crate) fn corrupt(&self, what: impl std::fmt::Display) -> RelGoError {
        corrupt(self.artifact, what)
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The payload must be fully consumed: trailing bytes are corruption.
    pub(crate) fn finish(self) -> Result<()> {
        match self.buf.len() {
            0 => Ok(()),
            n => Err(self.corrupt(format_args!("{n} trailing bytes"))),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let Some((head, rest)) = self.buf.split_at_checked(n) else {
            return Err(self.corrupt("truncated"));
        };
        self.buf = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    pub(crate) fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// An element or byte count written by [`Writer::count`].
    pub(crate) fn count(&mut self) -> Result<usize> {
        Ok(u32::from_le_bytes(self.array()?) as usize)
    }

    pub(crate) fn str(&mut self) -> Result<&'a str> {
        let n = self.count()?;
        std::str::from_utf8(self.take(n)?).map_err(|_| self.corrupt("invalid utf-8"))
    }

    pub(crate) fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Int(self.i64()?),
            2 => Value::Float(f64::from_bits(self.u64()?)),
            3 => Value::Str(self.str()?.into()),
            4 => Value::Bool(self.u8()? != 0),
            5 => Value::Date(self.i64()?),
            t => return Err(self.corrupt(format_args!("unknown value tag {t}"))),
        })
    }
}

/// "`artifact` corrupt: `what`" — the shape of every decode error.
pub(crate) fn corrupt(artifact: &str, what: impl std::fmt::Display) -> RelGoError {
    RelGoError::execution(format!("{artifact} corrupt: {what}"))
}

/// "`what` failed: `e`" — the shape of every storage I/O error; `what`
/// names the artifact and the step ("wal fsync", "checkpoint rename").
pub(crate) fn io_err(what: impl std::fmt::Display, e: &io::Error) -> RelGoError {
    RelGoError::execution(format!("{what} failed: {e}"))
}

/// One filesystem call site of the crate, which a double keys its faults on:
///
/// | caller | sites, in call order |
/// |---|---|
/// | `Wal::open` | `WalOpen`, `WalRead`, `WalTruncate` (a torn tail only), `WalSeek` |
/// | a group flush | `WalWrite`, `WalFsync` |
/// | compaction | `CompactRead`, then the atomic replace's |
/// | an atomic replace (checkpoint, compaction) | `TempCreate`, `TempWrite`, `TempFsync`, `Rename`, `DirOpen` (best effort), `DirFsync` |
/// | the checkpoint store | `CheckpointList`, `CheckpointRead` (load), `CheckpointRemove` (retention) |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    WalOpen,
    WalRead,
    WalTruncate,
    WalSeek,
    WalWrite,
    WalFsync,
    CompactRead,
    TempCreate,
    TempWrite,
    TempFsync,
    Rename,
    DirOpen,
    DirFsync,
    CheckpointList,
    CheckpointRead,
    CheckpointRemove,
}

/// The I/O seam under every durable byte (see the module header). Each
/// method defaults to the filesystem, so a double overrides only the calls
/// it changes; `site` says which call site is asking.
pub trait Io: Send + Sync + std::fmt::Debug {
    /// Open `path` for reading and writing, creating it when missing.
    fn open(&self, site: Site, path: &Path) -> io::Result<Handle> {
        Fs.open(site, path)
    }

    /// Create `path` for writing, truncating what was there.
    fn create(&self, site: Site, path: &Path) -> io::Result<Handle> {
        Fs.create(site, path)
    }

    /// Open the directory `path`, to fsync it.
    fn open_dir(&self, site: Site, path: &Path) -> io::Result<Handle> {
        Fs.open_dir(site, path)
    }

    /// The whole contents of `path`.
    fn read(&self, site: Site, path: &Path) -> io::Result<Vec<u8>> {
        Fs.read(site, path)
    }

    /// Write all of `bytes` at the handle's position.
    fn write(&self, site: Site, file: &mut Handle, bytes: &[u8]) -> io::Result<()> {
        Fs.write(site, file, bytes)
    }

    /// Make everything written through the handle durable.
    fn sync(&self, site: Site, file: &mut Handle) -> io::Result<()> {
        Fs.sync(site, file)
    }

    /// Cut (or extend) the file to `len` bytes.
    fn set_len(&self, site: Site, file: &mut Handle, len: u64) -> io::Result<()> {
        Fs.set_len(site, file, len)
    }

    /// Move the handle's position to byte `pos`.
    fn seek(&self, site: Site, file: &mut Handle, pos: u64) -> io::Result<()> {
        Fs.seek(site, file, pos)
    }

    /// Atomically rename `from` over `to`.
    fn rename(&self, site: Site, from: &Path, to: &Path) -> io::Result<()> {
        Fs.rename(site, from, to)
    }

    /// The paths of the entries of directory `dir`.
    fn list(&self, site: Site, dir: &Path) -> io::Result<Vec<PathBuf>> {
        Fs.list(site, dir)
    }

    /// Delete the file `path`.
    fn remove(&self, site: Site, path: &Path) -> io::Result<()> {
        Fs.remove(site, path)
    }
}

/// Atomically make `bytes` the contents of `dest` (see the module header):
/// write `tmp`, fsync it, rename it over `dest`, fsync the directory.
/// `artifact` prefixes the I/O errors. Returns the handle of the new file,
/// positioned at its end.
pub(crate) fn replace_file(
    io: &dyn Io,
    tmp: &Path,
    dest: &Path,
    bytes: &[u8],
    artifact: &str,
) -> Result<Handle> {
    let err = |step: &str, e: io::Error| io_err(format_args!("{artifact} {step}"), &e);
    let mut f = io
        .create(Site::TempCreate, tmp)
        .map_err(|e| err("create temp", e))?;
    io.write(Site::TempWrite, &mut f, bytes)
        .map_err(|e| err("write temp", e))?;
    io.sync(Site::TempFsync, &mut f)
        .map_err(|e| err("fsync temp", e))?;
    io.rename(Site::Rename, tmp, dest)
        .map_err(|e| err("rename", e))?;
    // The rename is what publishes the file; syncing the directory makes
    // the new name itself survive a power cut. Opening the directory is
    // best effort (not every platform lets a directory be opened); a sync
    // that fails is not.
    let dir = dest.parent().filter(|p| !p.as_os_str().is_empty());
    if let Ok(mut d) = io.open_dir(Site::DirOpen, dir.unwrap_or(Path::new("."))) {
        io.sync(Site::DirFsync, &mut d)
            .map_err(|e| err("fsync directory", e))?;
    }
    Ok(f)
}

// --------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected). Table-driven, built at compile time.
// --------------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 of `data` (IEEE polynomial — the checksum guarding each frame).
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// The filesystem: the seam's one implementation outside tests, and the
/// only code in the crate that names `std::fs` (CI checks it).
mod fs {
    use super::{Io, Site};
    use std::fs::{File, OpenOptions};
    use std::io::{self, Seek, SeekFrom, Write};
    use std::path::{Path, PathBuf};

    /// An open file (or directory) the seam hands out.
    #[derive(Debug)]
    pub struct Handle(File);

    /// The real filesystem.
    #[derive(Debug, Clone, Copy)]
    pub struct Fs;

    impl Io for Fs {
        fn open(&self, _: Site, path: &Path) -> io::Result<Handle> {
            let mut options = OpenOptions::new();
            options.read(true).write(true).create(true).truncate(false);
            options.open(path).map(Handle)
        }

        fn create(&self, _: Site, path: &Path) -> io::Result<Handle> {
            File::create(path).map(Handle)
        }

        fn open_dir(&self, _: Site, path: &Path) -> io::Result<Handle> {
            File::open(path).map(Handle)
        }

        fn read(&self, _: Site, path: &Path) -> io::Result<Vec<u8>> {
            std::fs::read(path)
        }

        fn write(&self, _: Site, file: &mut Handle, bytes: &[u8]) -> io::Result<()> {
            file.0.write_all(bytes)
        }

        fn sync(&self, _: Site, file: &mut Handle) -> io::Result<()> {
            file.0.sync_all()
        }

        fn set_len(&self, _: Site, file: &mut Handle, len: u64) -> io::Result<()> {
            file.0.set_len(len)
        }

        fn seek(&self, _: Site, file: &mut Handle, pos: u64) -> io::Result<()> {
            file.0.seek(SeekFrom::Start(pos)).map(drop)
        }

        fn rename(&self, _: Site, from: &Path, to: &Path) -> io::Result<()> {
            std::fs::rename(from, to)
        }

        fn list(&self, _: Site, dir: &Path) -> io::Result<Vec<PathBuf>> {
            std::fs::read_dir(dir)?
                .map(|entry| entry.map(|e| e.path()))
                .collect()
        }

        fn remove(&self, _: Site, path: &Path) -> io::Result<()> {
            std::fs::remove_file(path)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_round_trip_and_every_tear_is_named() {
        let mut log = Vec::new();
        push_frame(&mut log, |w| w.str("first"));
        let second = log.len();
        push_frame(&mut log, |w| w.u64(2));
        push_frame(&mut log, |_| {});

        let (p1, rest) = read_frame(&log, 64).unwrap();
        assert_eq!(Reader::new(p1, "t").str().unwrap(), "first");
        let (p2, rest) = read_frame(rest, 64).unwrap();
        assert_eq!(Reader::new(p2, "t").u64().unwrap(), 2);
        let (p3, rest) = read_frame(rest, 64).unwrap();
        assert!(p3.is_empty() && rest.is_empty());

        assert_eq!(read_frame(rest, 64).unwrap_err(), "short frame header");
        assert_eq!(
            read_frame(&log[..FRAME_HEADER - 1], 64).unwrap_err(),
            "short frame header"
        );
        assert_eq!(
            read_frame(&log, 8).unwrap_err(),
            "frame length over the cap"
        );
        assert_eq!(
            read_frame(&log[..second - 1], 64).unwrap_err(),
            "frame runs past the end"
        );
        let mut bad = log.clone();
        bad[FRAME_HEADER] ^= 1;
        assert_eq!(read_frame(&bad, 64).unwrap_err(), "frame crc mismatch");
        // A length no buffer can hold is a tear, not an overflow.
        let mut bad = log;
        bad[..LEN_BYTES].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            read_frame(&bad, u64::MAX).unwrap_err(),
            "frame runs past the end"
        );
    }

    #[test]
    fn values_round_trip_and_errors_name_the_artifact() {
        let values = [
            Value::Null,
            Value::Int(-7),
            Value::Float(-0.0),
            Value::str("Ωμέγα"),
            Value::Bool(true),
            Value::Date(18_000),
        ];
        let mut buf = Vec::new();
        push_frame(&mut buf, |w| values.iter().for_each(|v| w.value(v)));
        let (payload, _) = read_frame(&buf, u64::MAX).unwrap();
        let mut r = Reader::new(payload, "thing");
        for v in &values {
            let got = r.value().unwrap();
            assert_eq!(std::mem::discriminant(&got), std::mem::discriminant(v));
            match (&got, v) {
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(&got, v),
            }
        }
        r.finish().unwrap();

        let msg = |e: RelGoError| e.to_string();
        assert!(msg(Reader::new(&[1, 0], "thing").value().unwrap_err())
            .contains("thing corrupt: truncated"));
        assert!(msg(Reader::new(&[9], "thing").value().unwrap_err())
            .contains("thing corrupt: unknown value tag 9"));
        assert!(msg(Reader::new(&[1, 0, 0, 0, 0xff], "thing")
            .str()
            .map(drop)
            .unwrap_err())
        .contains("thing corrupt: invalid utf-8"));
        assert!(msg(Reader::new(&[0], "thing").finish().unwrap_err())
            .contains("thing corrupt: 1 trailing bytes"));
    }
}
