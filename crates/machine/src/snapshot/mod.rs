//! Deterministic machine checkpoint/restore.
//!
//! A snapshot is a versioned, self-describing binary serialization of the
//! complete mutable machine state — every queue, ring, lock, RNG counter
//! and statistic that the tick loop can touch — taken mid-run and
//! restorable onto a freshly constructed machine with the same
//! configuration and programs. The determinism work (bit-identical
//! results across threads × fast-forward × flow path × lowering × faults
//! × tracing × chunking) extends to restored runs: a run killed at an
//! arbitrary cycle and resumed from its last checkpoint finishes with the
//! same fingerprint, memory digest, stats tree and report as the
//! uninterrupted run. `tests/snapshot.rs` is the proof harness.
//!
//! ## Wire format
//!
//! ```text
//! magic   [8]  b"CEDARSNP"
//! version [4]  little-endian u32 (SNAPSHOT_VERSION)
//! length  [8]  little-endian u64 payload byte count
//! check   [8]  little-endian u64 FNV-1a over the payload
//! payload [length] tagged sections, one per subsystem
//! ```
//!
//! Everything after the header is written through [`SnapWriter`] — a
//! hand-rolled little-endian encoder (the workspace is std-only; no
//! serde). Each subsystem brackets its state with a 4-byte section tag so
//! a reader that desynchronizes fails with a *named* section error
//! instead of silently misinterpreting bytes. Torn or bit-flipped files
//! fail the length or checksum test in [`read_payload`] before any field
//! is decoded; every decode error surfaces as
//! [`MachineError::Snapshot`], never a panic.
//!
//! What is deliberately *not* captured: configuration-derived immutable
//! tables (network routing/shuffle tables, stat-key formatting caches,
//! lowered program streams), the loaded programs themselves (the caller
//! re-loads them — experiment drivers are deterministic, so the programs
//! are identical), and the host-side wall-clock profiler (it measures
//! the host, not the machine). See DESIGN.md §10.

use std::fs;
use std::io::Write as _;
use std::path::Path;

use crate::error::MachineError;

mod machine;
mod wire;

pub(crate) use machine::CkptCtl;
pub(crate) use wire::{get_packet, get_request, put_packet, put_request};

/// Format magic: identifies a Cedar machine snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"CEDARSNP";

/// Current snapshot format version. Bumped on any layout change; a
/// mismatch is a structured restore error, never a misparse.
pub const SNAPSHOT_VERSION: u32 = 1;

/// 64-bit FNV-1a over `bytes` — the header checksum. Not cryptographic;
/// it exists to catch torn writes and bit rot, not adversaries.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A snapshot decode failure: what went wrong, usually naming the
/// section. Converts into [`MachineError::Snapshot`].
#[derive(Debug)]
pub(crate) struct SnapError(pub String);

impl From<SnapError> for MachineError {
    fn from(e: SnapError) -> MachineError {
        MachineError::Snapshot(e.0)
    }
}

pub(crate) type SnapResult<T> = std::result::Result<T, SnapError>;

/// Little-endian binary encoder for snapshot payloads.
#[derive(Debug, Default)]
pub(crate) struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    pub fn into_payload(self) -> Vec<u8> {
        self.buf
    }

    /// Open a subsystem section. Tags make desync failures nameable.
    pub fn tag(&mut self, t: &[u8; 4]) {
        self.buf.extend_from_slice(t);
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn cycle(&mut self, v: crate::time::Cycle) {
        self.u64(v.0);
    }

    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// `Some`/`None` prefix byte followed by the value when present.
    pub fn opt<T>(&mut self, v: Option<&T>, mut f: impl FnMut(&mut SnapWriter, &T)) {
        match v {
            Some(v) => {
                self.bool(true);
                f(self, v);
            }
            None => self.bool(false),
        }
    }

    /// Length-prefixed sequence.
    pub fn seq<T>(
        &mut self,
        items: impl ExactSizeIterator<Item = T>,
        mut f: impl FnMut(&mut SnapWriter, T),
    ) {
        self.usize(items.len());
        for it in items {
            f(self, it);
        }
    }
}

/// Little-endian binary decoder; every getter is bounds-checked and
/// returns a [`SnapError`] instead of panicking on truncated input.
#[derive(Debug)]
pub(crate) struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Last section tag opened, for error messages.
    section: [u8; 4],
}

impl<'a> SnapReader<'a> {
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader {
            buf,
            pos: 0,
            section: *b"hdr ",
        }
    }

    /// An "invalid discriminant" decode error for enum encodings.
    pub fn err_invalid(&self, what: &str, byte: u8) -> SnapError {
        self.err(&format!("invalid {what} discriminant {byte}"))
    }

    /// A "snapshot disagrees with this machine's configuration" error —
    /// decoded fine, but cannot be applied here.
    pub fn err_mismatch(&self, what: &str) -> SnapError {
        self.err(what)
    }

    fn err(&self, what: &str) -> SnapError {
        SnapError(format!(
            "snapshot section `{}` at byte {}: {what}",
            String::from_utf8_lossy(&self.section),
            self.pos,
        ))
    }

    /// True when every payload byte has been consumed.
    pub fn exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> SnapResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.err("truncated"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Check and consume a section tag.
    pub fn tag(&mut self, t: &[u8; 4]) -> SnapResult<()> {
        let got = self.take(4)?;
        if got != t {
            return Err(SnapError(format!(
                "snapshot at byte {}: expected section `{}`, found `{}`",
                self.pos - 4,
                String::from_utf8_lossy(t),
                String::from_utf8_lossy(got),
            )));
        }
        self.section = *t;
        Ok(())
    }

    pub fn u8(&mut self) -> SnapResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> SnapResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.err(&format!("invalid bool byte {b}"))),
        }
    }

    pub fn u16(&mut self) -> SnapResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> SnapResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> SnapResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn i32(&mut self) -> SnapResult<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> SnapResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn usize(&mut self) -> SnapResult<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.err("count overflows usize"))
    }

    /// A length that is about to size an allocation: additionally bounded
    /// by the bytes remaining, so a corrupted count cannot trigger a
    /// multi-gigabyte `Vec::with_capacity` before the decode fails.
    pub fn len(&mut self) -> SnapResult<usize> {
        let v = self.usize()?;
        if v > self.buf.len().saturating_sub(self.pos).saturating_add(1) * 64 {
            return Err(self.err(&format!("implausible element count {v}")));
        }
        Ok(v)
    }

    pub fn cycle(&mut self) -> SnapResult<crate::time::Cycle> {
        Ok(crate::time::Cycle(self.u64()?))
    }

    pub fn str(&mut self) -> SnapResult<String> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.err("invalid utf-8 string"))
    }

    pub fn opt<T>(
        &mut self,
        mut f: impl FnMut(&mut SnapReader<'a>) -> SnapResult<T>,
    ) -> SnapResult<Option<T>> {
        if self.bool()? {
            Ok(Some(f(self)?))
        } else {
            Ok(None)
        }
    }

    pub fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut SnapReader<'a>) -> SnapResult<T>,
    ) -> SnapResult<Vec<T>> {
        let n = self.len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// Decode a fixed-length sequence in place, checking the stored count
    /// against the structural count the configuration implies.
    pub fn seq_exact(
        &mut self,
        expect: usize,
        mut f: impl FnMut(&mut SnapReader<'a>, usize) -> SnapResult<()>,
    ) -> SnapResult<()> {
        let n = self.len()?;
        if n != expect {
            return Err(self.err(&format!("expected {expect} elements, snapshot holds {n}")));
        }
        for i in 0..expect {
            f(self, i)?;
        }
        Ok(())
    }
}

/// Frame `payload` with the snapshot header (magic, version, length,
/// FNV-1a checksum).
pub(crate) fn frame_payload(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 28);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validate the header of a complete snapshot file image and return the
/// payload slice. A torn file (truncated payload), a foreign file (bad
/// magic), a future format (version mismatch) and a corrupted body
/// (checksum mismatch) are each rejected with a distinct
/// [`MachineError::Snapshot`] message.
pub(crate) fn read_payload(image: &[u8]) -> Result<&[u8], MachineError> {
    let fail = |m: String| Err(MachineError::Snapshot(m));
    if image.len() < 28 {
        return fail(format!(
            "file too short for a snapshot header ({} bytes)",
            image.len()
        ));
    }
    if image[..8] != SNAPSHOT_MAGIC {
        return fail("bad magic: not a Cedar snapshot".to_string());
    }
    let version = u32::from_le_bytes(image[8..12].try_into().unwrap());
    if version != SNAPSHOT_VERSION {
        return fail(format!(
            "format version {version} (this build reads version {SNAPSHOT_VERSION})"
        ));
    }
    let len = u64::from_le_bytes(image[12..20].try_into().unwrap());
    let check = u64::from_le_bytes(image[20..28].try_into().unwrap());
    let body = &image[28..];
    if len != body.len() as u64 {
        return fail(format!(
            "torn file: header promises {len} payload bytes, file holds {}",
            body.len()
        ));
    }
    if fnv1a(body) != check {
        return fail("payload checksum mismatch (corrupted snapshot)".to_string());
    }
    Ok(body)
}

/// Write a framed snapshot image to `path` atomically: the bytes go to a
/// sibling temporary file which is fsynced and then renamed over the
/// target, so a crash mid-write leaves either the previous snapshot or
/// none — never a torn one. (And if a torn file appears anyway — e.g. a
/// dying filesystem — the header checksum catches it at restore.)
pub fn write_snapshot_file(path: &Path, image: &[u8]) -> Result<(), MachineError> {
    let io_err = |stage: &str, e: std::io::Error| {
        MachineError::Snapshot(format!("{stage} {}: {e}", path.display()))
    };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let mut f = fs::File::create(&tmp).map_err(|e| io_err("create", e))?;
    f.write_all(image).map_err(|e| io_err("write", e))?;
    f.sync_all().map_err(|e| io_err("sync", e))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| io_err("rename", e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.tag(b"TEST");
        w.u8(7);
        w.bool(true);
        w.u16(300);
        w.u32(70_000);
        w.u64(1 << 40);
        w.i32(-5);
        w.i64(-6);
        w.str("hello");
        w.opt(Some(&3u64), |w, v| w.u64(*v));
        w.opt::<u64>(None, |w, v| w.u64(*v));
        w.seq([1u32, 2, 3].iter(), |w, v| w.u32(*v));
        let payload = w.into_payload();
        let mut r = SnapReader::new(&payload);
        r.tag(b"TEST").unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.i32().unwrap(), -5);
        assert_eq!(r.i64().unwrap(), -6);
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.opt(|r| r.u64()).unwrap(), Some(3));
        assert_eq!(r.opt(|r| r.u64()).unwrap(), None);
        assert_eq!(r.seq(|r| r.u32()).unwrap(), vec![1, 2, 3]);
        assert!(r.exhausted());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = SnapWriter::new();
        w.u64(42);
        let payload = w.into_payload();
        let mut r = SnapReader::new(&payload[..5]);
        assert!(r.u64().is_err());
    }

    #[test]
    fn wrong_tag_names_both_sections() {
        let mut w = SnapWriter::new();
        w.tag(b"AAAA");
        let payload = w.into_payload();
        let mut r = SnapReader::new(&payload);
        let e = r.tag(b"BBBB").unwrap_err();
        assert!(e.0.contains("BBBB") && e.0.contains("AAAA"), "{}", e.0);
    }

    #[test]
    fn header_round_trip_and_rejections() {
        let payload = b"some machine state".to_vec();
        let image = frame_payload(&payload);
        assert_eq!(read_payload(&image).unwrap(), &payload[..]);

        // Torn: drop trailing bytes.
        assert!(read_payload(&image[..image.len() - 3]).is_err());
        // Foreign file.
        assert!(read_payload(b"not a snapshot at all......").is_err());
        // Future version.
        let mut future = image.clone();
        future[8] = SNAPSHOT_VERSION as u8 + 1;
        let e = read_payload(&future).unwrap_err();
        assert!(e.to_string().contains("version"), "{e}");
        // Flip one payload bit: checksum mismatch.
        let mut flipped = image.clone();
        *flipped.last_mut().unwrap() ^= 0x10;
        let e = read_payload(&flipped).unwrap_err();
        assert!(e.to_string().contains("checksum"), "{e}");
    }

    #[test]
    fn atomic_write_then_read() {
        let dir = std::env::temp_dir().join("cedar_snap_core_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.ckpt");
        let image = frame_payload(b"abc");
        write_snapshot_file(&path, &image).unwrap();
        let back = std::fs::read(&path).unwrap();
        assert_eq!(read_payload(&back).unwrap(), b"abc");
        std::fs::remove_dir_all(&dir).ok();
    }
}
