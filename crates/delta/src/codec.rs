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
//! under the temporary name, which no loader opens. [`CheckpointCrash`]
//! names the phases, so the crash-recovery harness can kill the process
//! inside each one.

use relgo_common::{RelGoError, Result, Value};
use std::fs::File;
use std::io::Write;
use std::path::Path;

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
pub(crate) fn io_err(what: impl std::fmt::Display, e: &std::io::Error) -> RelGoError {
    RelGoError::execution(format!("{what} failed: {e}"))
}

/// Fault-injection points for the crash-recovery harness: abort the
/// process inside a chosen phase of the atomic file replace a checkpoint
/// is written with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointCrash {
    /// Die mid-temp-write: only the first `n` bytes of the temp file reach
    /// disk (clamped to tear the file even for large `n`).
    MidTempWrite(u64),
    /// Die after the temp file is fully written but before it is fsynced
    /// and renamed — models a power cut during the fsync.
    BeforeRename,
    /// Die right after the atomic rename: the checkpoint is durable but
    /// the caller's WAL truncation never runs.
    AfterRename,
}

/// Atomically make `bytes` the contents of `dest` (see the module header):
/// write `tmp`, fsync it, rename it over `dest`, fsync the directory.
/// `artifact` prefixes the I/O errors; `crash` is the harness's hook.
/// Returns the handle of the new file, positioned at its end.
pub(crate) fn replace_file(
    tmp: &Path,
    dest: &Path,
    bytes: &[u8],
    artifact: &str,
    crash: Option<CheckpointCrash>,
) -> Result<File> {
    let err = |step: &str, e: std::io::Error| io_err(format_args!("{artifact} {step}"), &e);
    let mut f = File::create(tmp).map_err(|e| err("create temp", e))?;
    if let Some(CheckpointCrash::MidTempWrite(n)) = crash {
        // Tear the temp file: write a strict prefix, make sure it is the
        // bytes a power cut would leave, and die.
        let keep = (n as usize).min(bytes.len().saturating_sub(1));
        let _ = f.write_all(&bytes[..keep]);
        let _ = f.sync_all();
        std::process::abort();
    }
    f.write_all(bytes).map_err(|e| err("write temp", e))?;
    if crash == Some(CheckpointCrash::BeforeRename) {
        std::process::abort();
    }
    f.sync_all().map_err(|e| err("fsync temp", e))?;
    std::fs::rename(tmp, dest).map_err(|e| err("rename", e))?;
    // The rename is what publishes the file; syncing the directory makes
    // the new name itself survive a power cut. Best effort: not every
    // platform lets a directory be opened.
    let dir = dest.parent().filter(|p| !p.as_os_str().is_empty());
    if let Ok(d) = File::open(dir.unwrap_or(Path::new("."))) {
        let _ = d.sync_all();
    }
    if crash == Some(CheckpointCrash::AfterRename) {
        std::process::abort();
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
