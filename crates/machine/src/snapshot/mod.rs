//! Deterministic machine checkpoint/restore.
//!
//! A snapshot is a versioned, self-describing binary serialization of the
//! complete mutable machine state — every queue, ring, lock, RNG counter
//! and statistic that the tick loop can touch — taken mid-run and
//! restorable onto a freshly constructed machine with the same
//! configuration and programs. The determinism work (bit-identical
//! results across threads × faults × tracing, and against the ticked
//! reference) extends to restored runs: a run killed at an arbitrary
//! cycle and resumed from its last checkpoint finishes with the same
//! fingerprint, memory digest, stats tree and report as the
//! uninterrupted run. `tests/snapshot.rs` is the proof harness.
//!
//! Snapshots are crash-recovery scratch, not archives: a build reads and
//! writes exactly one format, [`SNAPSHOT_VERSION`], and rejects every
//! other version by name. Keep results, not snapshots, across upgrades.
//!
//! ## Wire format (version 3)
//!
//! ```text
//! magic   [8]  b"CEDARSNP"
//! version [4]  little-endian u32 (SNAPSHOT_VERSION)
//! length  [8]  little-endian u64 payload byte count
//! check   [8]  little-endian u64 checksum over the payload
//! payload [length] tagged sections, one per subsystem
//! ```
//!
//! The image is built once, in place: [`SnapWriter::image`] lays the
//! header down with `length` and `check` blank, the subsystems append
//! their sections behind it, and [`SnapWriter::finish`] patches the two
//! fields in. The auto-checkpoint hands the writer the same two buffers
//! over and over, so a checkpoint allocates nothing once they have grown
//! to the image size.
//!
//! **Checksum.** The payload is read as little-endian 64-bit words, dealt
//! round-robin onto four lanes (a trailing partial block is zero-padded
//! to 32 bytes). Each lane steps `h = (h ^ w) · M` with `M` odd; the
//! lanes are independent, so the four multiplies overlap and the sum runs
//! at memory speed instead of one byte per multiply latency. The lanes
//! are then folded into the payload length with the same step plus an
//! xor-shift. Every step is a bijection in `h` for fixed `w` and in `w`
//! for fixed `h` (xor with a constant, multiplication by an odd number
//! modulo 2⁶⁴ and `h ^= h >> 32` are all invertible), so two payloads of
//! equal length that differ in exactly one word end in different lane
//! states, hence different folds: **any single flipped bit changes the
//! checksum** — a theorem, not a probability. It is not cryptographic;
//! it exists to catch torn writes and bit rot, not adversaries.
//!
//! **Encoding.** Everything after the header goes through [`SnapWriter`]
//! — a hand-rolled little-endian encoder (the workspace is std-only; no
//! serde). Each type names its saved state once (`codec.rs`): a value
//! type with `codec!`, a component restored in place with
//! `snapshot_state!`, which lists its saved fields in wire order and every
//! other field as derived, and derives both directions from that list.
//! Each subsystem brackets its state with a 4-byte section tag so
//! a reader that desynchronizes fails with a *named* section error
//! instead of silently misinterpreting bytes. Flat state is written as
//! what it is: a `u8`/`u32`/`u64` array is one length prefix and one
//! slice copy ([`SnapWriter::bytes`], [`SnapWriter::u32s`],
//! [`SnapWriter::u64s`]), a run of fixed-size structs is one length
//! prefix and `N`-byte records ([`SnapWriter::records`]), and a mostly
//! empty array whose owner tracks occupancy in a bit mask — the cluster
//! cache's way array, 16 384 ways of which a few hundred are valid — is
//! that mask followed by the occupied entries packed in index order
//! ([`SnapWriter::sparse`]), at the cost of the occupied entries, not
//! the array. The reader bounds-checks each such run once, against the
//! bytes that remain, before it allocates or decodes anything.
//!
//! Torn or bit-flipped files fail the length or checksum test in
//! [`read_payload`] before any field is decoded; every decode error
//! surfaces as [`MachineError::Snapshot`], never a panic. The checksum
//! catches damage, not a writer that lies, so a restored index is
//! checked against what it indexes (a component's `after_load`) rather
//! than trusted.
//!
//! ## Adding state
//!
//! A new field of a component goes into its `snapshot_state!` list:
//! under `saved` at the place in the wire order where it is written, or
//! under `derived` if the restore rebuilds it (then rebuild it in the
//! component's `after_load`). Until it is in one of the two lists the
//! crate does not compile: the generated save destructures the
//! component with no `..` ("pattern requires `..`" at the invocation). A
//! new field of a `codec!` type goes into its field list. A saved field
//! changes the image bytes, and so does any change to a list's order, an
//! adapter or a tag: bump [`SNAPSHOT_VERSION`] (images of the old
//! version are then refused by name) and re-bless the pinned image
//! checksums with `CEDAR_UPDATE_GOLDEN=1 cargo test --test golden`. A
//! derived field changes nothing on disk, and `tests/golden/
//! snapshot_images.txt` must pass unchanged.
//!
//! ## The auto-checkpoint writer
//!
//! A run with auto-checkpointing on holds one extra thread for its
//! duration ([`ImageWriter`]). The run loop serializes a due checkpoint
//! into its spare buffer, waits for the previous file write (if any) to
//! finish, and swaps buffers with the writer, which does the
//! temporary-file write, `fsync` and rename while the simulation moves
//! on. At most one write is in flight, and the run loop collects the last
//! one before `run`/`resume` returns — so the file on disk afterwards is
//! the last due checkpoint, and an I/O failure still fails that run with
//! [`MachineError::Snapshot`]. **A crash loses at most the in-flight
//! checkpoint; the visible file is always complete.**
//!
//! Engines are written as the lowered engine's state: flat program
//! counter, flat loop frames, wake cycle. A machine built by
//! `Machine::new_reference` runs the tree-walking interpreter, whose
//! frame stack the format does not carry, so it refuses to checkpoint
//! or restore ([`MachineError::ReferenceCheckpoint`]).
//!
//! What is deliberately *not* captured: configuration-derived immutable
//! tables (network routing/shuffle tables, stat-key formatting caches,
//! lowered program streams), derived indexes that the restore rebuilds
//! (the omega occupancy masks, the global memory's active-module mask),
//! the loaded programs themselves (the caller re-loads them — experiment
//! drivers are deterministic, so the programs are identical), and the
//! host-side wall-clock profiler (it measures the host, not the
//! machine). See DESIGN.md §10.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender};

use crate::bits::set_bits;
use crate::error::MachineError;

mod codec;
mod machine;
mod wire;

pub(crate) use codec::{
    codec, load_present, snapshot_state, All, Codec, Echo, Exact, Field, Fixed, Nested, Prefix,
    Present, Record, Records, Seq, Sorted, State, Words,
};
pub(crate) use machine::CkptCtl;

/// Format magic: identifies a Cedar machine snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"CEDARSNP";

/// The one snapshot format this build reads and writes. Bumped on any
/// layout change; a mismatch is a structured restore error, never a
/// misparse.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Bytes of header in front of the payload (magic, version, length,
/// checksum).
const HEADER_LEN: usize = 28;

/// Independent checksum lanes: enough that the multiplies of one
/// 32-byte block overlap instead of queueing behind each other.
const LANES: usize = 4;
const BLOCK: usize = LANES * 8;

/// The header checksum: four word-wide multiplicative lanes over
/// `bytes`, folded with its length (module docs: definition and the
/// single-bit-flip argument).
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    // Odd, so `h -> h * MUL` is a bijection modulo 2^64.
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;
    fn absorb(lanes: &mut [u64; LANES], block: &[u8; BLOCK]) {
        for (h, w) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
            *h = (*h ^ u64::from_le_bytes(*w)).wrapping_mul(MUL);
        }
    }
    // Distinct seeds, so equal words on different lanes leave different
    // states.
    let mut lanes: [u64; LANES] = [
        0xcbf2_9ce4_8422_2325,
        0x8422_2325_cbf2_9ce4,
        0x2545_f491_4f6c_dd1d,
        0xd1b5_4a32_d192_ed03,
    ];
    let (blocks, tail) = bytes.as_chunks::<BLOCK>();
    for block in blocks {
        absorb(&mut lanes, block);
    }
    if !tail.is_empty() {
        let mut padded = [0u8; BLOCK];
        padded[..tail.len()].copy_from_slice(tail);
        absorb(&mut lanes, &padded);
    }
    // The length goes in first: zero padding must not make `x` and
    // `x ++ [0]` collide.
    let mut h = bytes.len() as u64;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(MUL);
        h ^= h >> 32;
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

/// Builds one fixed-size record field by field, little-endian, for
/// [`SnapWriter::records`] and [`SnapWriter::sparse`]. The offsets are
/// compile-time constants once inlined, so a record costs its stores.
pub(crate) struct RecordWriter<const N: usize> {
    bytes: [u8; N],
    at: usize,
}

impl<const N: usize> RecordWriter<N> {
    pub fn new() -> RecordWriter<N> {
        RecordWriter {
            bytes: [0; N],
            at: 0,
        }
    }

    fn put<const K: usize>(mut self, v: [u8; K]) -> Self {
        self.bytes[self.at..self.at + K].copy_from_slice(&v);
        self.at += K;
        self
    }

    pub fn u8(self, v: u8) -> Self {
        self.put([v])
    }

    pub fn u32(self, v: u32) -> Self {
        self.put(v.to_le_bytes())
    }

    pub fn u64(self, v: u64) -> Self {
        self.put(v.to_le_bytes())
    }

    /// The finished record; every byte must have been written.
    pub fn done(self) -> [u8; N] {
        debug_assert_eq!(self.at, N, "record not filled");
        self.bytes
    }
}

/// Reads the fields of one fixed-size record back in writing order. The
/// run the record came from was bounds-checked as a whole, so these
/// getters cannot fail.
pub(crate) struct RecordReader<'a, const N: usize> {
    bytes: &'a [u8; N],
    at: usize,
}

impl<const N: usize> RecordReader<'_, N> {
    fn get<const K: usize>(&mut self) -> [u8; K] {
        let v = self.bytes[self.at..self.at + K]
            .try_into()
            .expect("slice of K bytes");
        self.at += K;
        v
    }

    pub fn u8(&mut self) -> u8 {
        self.get::<1>()[0]
    }

    pub fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.get())
    }

    pub fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.get())
    }
}

/// Little-endian binary encoder for snapshot images.
#[derive(Debug)]
pub(crate) struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Start an image in `buf` (its contents are discarded, its capacity
    /// kept): the header goes down first, with the length and checksum
    /// fields blank until [`SnapWriter::finish`].
    pub fn image(mut buf: Vec<u8>) -> SnapWriter {
        buf.clear();
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        buf.extend_from_slice(&[0; 16]);
        debug_assert_eq!(buf.len(), HEADER_LEN);
        SnapWriter { buf }
    }

    /// Patch the payload length and checksum into the header and hand
    /// the finished image back.
    pub fn finish(mut self) -> Vec<u8> {
        let (header, payload) = self.buf.split_at_mut(HEADER_LEN);
        header[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        header[20..28].copy_from_slice(&checksum(payload).to_le_bytes());
        self.buf
    }

    /// A headerless encoder, for state that is encoded once and spliced
    /// into many images (see [`SnapWriter::splice`]).
    pub fn fragment() -> SnapWriter {
        SnapWriter { buf: Vec::new() }
    }

    /// The bytes of a [`SnapWriter::fragment`].
    pub fn into_fragment(self) -> Vec<u8> {
        self.buf
    }

    /// Append an already-encoded fragment verbatim.
    pub fn splice(&mut self, fragment: &[u8]) {
        self.buf.extend_from_slice(fragment);
    }

    /// Open a subsystem section. Tags make desync failures nameable.
    pub fn tag(&mut self, t: &[u8; 4]) {
        self.buf.extend_from_slice(t);
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn cycle(&mut self, v: crate::time::Cycle) {
        self.u64(v.0);
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
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

    /// Length-prefixed sequence of variable-size elements.
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

    /// Length-prefixed byte array: one reservation, one copy.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.reserve(8 + v.len());
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed `u32` array, reserved once.
    pub fn u32s(&mut self, v: &[u32]) {
        self.buf.reserve(8 + v.len() * 4);
        self.usize(v.len());
        for x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Length-prefixed `u64` array, reserved once.
    pub fn u64s(&mut self, v: &[u64]) {
        self.buf.reserve(8 + v.len() * 8);
        self.usize(v.len());
        for x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Length-prefixed `bool` array, packed eight to a byte.
    pub fn bools(&mut self, v: &[bool]) {
        self.buf.reserve(8 + v.len().div_ceil(8));
        self.usize(v.len());
        for chunk in v.chunks(8) {
            let mut byte = 0u8;
            for (bit, &b) in chunk.iter().enumerate() {
                byte |= u8::from(b) << bit;
            }
            self.buf.push(byte);
        }
    }

    /// Count-prefixed run of `N`-byte records (build each with a
    /// [`RecordWriter`]). The count is patched in afterwards, so `items`
    /// may be a filter.
    pub fn records<T, const N: usize>(
        &mut self,
        items: impl Iterator<Item = T>,
        mut f: impl FnMut(T) -> [u8; N],
    ) {
        let count_at = self.buf.len();
        self.buf.reserve(8 + items.size_hint().0 * N);
        self.u64(0);
        let mut n = 0u64;
        for it in items {
            self.buf.extend_from_slice(&f(it));
            n += 1;
        }
        self.buf[count_at..count_at + 8].copy_from_slice(&n.to_le_bytes());
    }

    /// A mostly empty array of `slots` entries whose owner tracks occupancy
    /// in the chunked bit mask `valid`: the slot count, the mask, then the
    /// occupied entries as `N`-byte records in index order (`f(i)` encodes
    /// entry `i`). Costs the occupied entries, not the array.
    pub fn sparse<const N: usize>(
        &mut self,
        slots: usize,
        valid: &[u64],
        mut f: impl FnMut(usize) -> [u8; N],
    ) {
        debug_assert_eq!(valid.len(), slots.div_ceil(64), "mask sized for the array");
        let occupied: usize = valid.iter().map(|w| w.count_ones() as usize).sum();
        self.buf.reserve(8 + valid.len() * 8 + occupied * N);
        self.usize(slots);
        for word in valid {
            self.u64(*word);
        }
        for i in set_bits(valid) {
            self.buf.extend_from_slice(&f(i));
        }
    }
}

/// The fixed-width integers, little-endian, on both sides.
macro_rules! le_ints {
    ($($t:ident),*) => {
        impl SnapWriter {
            $(pub fn $t(&mut self, v: $t) {
                self.buf.extend_from_slice(&v.to_le_bytes());
            })*
        }

        impl SnapReader<'_> {
            $(pub fn $t(&mut self) -> SnapResult<$t> {
                let bytes = self.take(std::mem::size_of::<$t>())?;
                Ok($t::from_le_bytes(bytes.try_into().expect("taken to size")))
            })*
        }
    };
}

le_ints!(u16, u32, u64, i32, i64);

/// The little-endian 64-bit words of a bounds-checked run.
fn le_words(run: &[u8]) -> impl Iterator<Item = u64> + '_ {
    run.chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte word")))
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

    /// The whole of a run of `n` elements of `size` bytes each: the one
    /// bounds check of a slice or record run. A count the remaining
    /// bytes cannot hold fails here, before anything is allocated.
    fn take_run(&mut self, n: usize, size: usize) -> SnapResult<&'a [u8]> {
        match n.checked_mul(size) {
            Some(bytes) if bytes <= self.buf.len() - self.pos => self.take(bytes),
            _ => Err(self.err(&format!("implausible element count {n}"))),
        }
    }

    /// The count prefix of a run that must fill a destination of
    /// `expect` elements the configuration fixed.
    fn expect_count(&mut self, expect: usize) -> SnapResult<()> {
        let n = self.usize()?;
        if n != expect {
            return Err(self.err(&format!("expected {expect} elements, snapshot holds {n}")));
        }
        Ok(())
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
        let bytes = self.bytes()?;
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
        self.expect_count(expect)?;
        for i in 0..expect {
            f(self, i)?;
        }
        Ok(())
    }

    /// A length-prefixed byte array, borrowed from the image.
    pub fn bytes(&mut self) -> SnapResult<&'a [u8]> {
        let n = self.usize()?;
        self.take_run(n, 1)
    }

    /// A byte array written by [`SnapWriter::bytes`] whose length the
    /// configuration fixed.
    pub fn bytes_into(&mut self, out: &mut [u8]) -> SnapResult<()> {
        self.expect_count(out.len())?;
        out.copy_from_slice(self.take(out.len())?);
        Ok(())
    }

    /// A `u32` array whose length the configuration fixed.
    pub fn u32s_into(&mut self, out: &mut [u32]) -> SnapResult<()> {
        self.expect_count(out.len())?;
        let run = self.take_run(out.len(), 4)?;
        for (x, w) in out.iter_mut().zip(run.chunks_exact(4)) {
            *x = u32::from_le_bytes(w.try_into().expect("4-byte word"));
        }
        Ok(())
    }

    /// A `u64` array of any length.
    pub fn u64s(&mut self) -> SnapResult<Vec<u64>> {
        let n = self.usize()?;
        Ok(le_words(self.take_run(n, 8)?).collect())
    }

    /// A `u64` array whose length the configuration fixed.
    pub fn u64s_into(&mut self, out: &mut [u64]) -> SnapResult<()> {
        self.expect_count(out.len())?;
        let run = self.take_run(out.len(), 8)?;
        for (x, w) in out.iter_mut().zip(le_words(run)) {
            *x = w;
        }
        Ok(())
    }

    /// A packed `bool` array whose length the configuration fixed. Bits
    /// past the last element must be clear.
    pub fn bools_into(&mut self, out: &mut [bool]) -> SnapResult<()> {
        self.expect_count(out.len())?;
        let packed = self.take(out.len().div_ceil(8))?;
        let spare = packed.len() * 8 - out.len();
        if spare > 0 && packed[packed.len() - 1] >> (8 - spare) != 0 {
            return Err(self.err("bool array bit set past its last element"));
        }
        for (chunk, &byte) in out.chunks_mut(8).zip(packed) {
            for (bit, b) in chunk.iter_mut().enumerate() {
                *b = byte >> bit & 1 != 0;
            }
        }
        Ok(())
    }

    /// The words of a `bits`-bit chunked bit mask, rejecting set bits past
    /// its end.
    fn bitmap(&mut self, bits: usize) -> SnapResult<Vec<u64>> {
        let words: Vec<u64> = le_words(self.take_run(bits.div_ceil(64), 8)?).collect();
        let spare = words.len() * 64 - bits;
        if spare > 0 && words[words.len() - 1] >> (64 - spare) != 0 {
            return Err(self.err(&format!("bitmap bit set past its {bits} entries")));
        }
        Ok(words)
    }

    /// Decode a bounds-checked run of `N`-byte records into `out`, in
    /// place of what it held (its allocation is reused).
    fn decode_run<T, const N: usize>(
        &self,
        run: &[u8],
        out: &mut Vec<T>,
        mut f: impl FnMut(RecordReader<'_, N>) -> Result<T, &'static str>,
    ) -> SnapResult<()> {
        out.clear();
        out.reserve(run.len() / N);
        for rec in run.chunks_exact(N) {
            let bytes = rec.try_into().expect("N-byte record");
            out.push(f(RecordReader { bytes, at: 0 }).map_err(|what| self.err(what))?);
        }
        Ok(())
    }

    /// A run of `N`-byte records written by [`SnapWriter::records`].
    /// `f` names what is wrong with a record it rejects.
    pub fn records<T, const N: usize>(
        &mut self,
        f: impl FnMut(RecordReader<'_, N>) -> Result<T, &'static str>,
    ) -> SnapResult<Vec<T>> {
        let mut out = Vec::new();
        self.records_into(&mut out, f)?;
        Ok(out)
    }

    /// [`SnapReader::records`] into `out`, reusing its allocation.
    pub fn records_into<T, const N: usize>(
        &mut self,
        out: &mut Vec<T>,
        f: impl FnMut(RecordReader<'_, N>) -> Result<T, &'static str>,
    ) -> SnapResult<()> {
        let n = self.usize()?;
        let run = self.take_run(n, N)?;
        self.decode_run(run, out, f)
    }

    /// An array written by [`SnapWriter::sparse`], which must have the
    /// `slots` entries the configuration fixed: its occupancy mask and
    /// its occupied entries, one per set bit in index order. A mask bit
    /// past the last entry and a record run shorter than the mask's
    /// popcount are both errors.
    pub fn sparse<T, const N: usize>(
        &mut self,
        slots: usize,
        f: impl FnMut(RecordReader<'_, N>) -> Result<T, &'static str>,
    ) -> SnapResult<(Vec<u64>, Vec<T>)> {
        self.expect_count(slots)?;
        let valid = self.bitmap(slots)?;
        let occupied = valid.iter().map(|w| w.count_ones() as usize).sum();
        let run = self.take_run(occupied, N)?;
        let mut entries = Vec::new();
        self.decode_run(run, &mut entries, f)?;
        Ok((valid, entries))
    }
}

/// Validate the header of a complete snapshot file image and return the
/// payload slice. A torn file (truncated payload), a foreign file (bad
/// magic), another format (version mismatch) and a corrupted body
/// (checksum mismatch) are each rejected with a distinct
/// [`MachineError::Snapshot`] message.
pub(crate) fn read_payload(image: &[u8]) -> Result<&[u8], MachineError> {
    let fail = |m: String| Err(MachineError::Snapshot(m));
    if image.len() < HEADER_LEN {
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
    let body = &image[HEADER_LEN..];
    if len != body.len() as u64 {
        return fail(format!(
            "torn file: header promises {len} payload bytes, file holds {}",
            body.len()
        ));
    }
    if checksum(body) != check {
        return fail("payload checksum mismatch (corrupted snapshot)".to_string());
    }
    Ok(body)
}

/// Write a finished snapshot image to `path` atomically: the bytes go to
/// a sibling temporary file which is fsynced and then renamed over the
/// target, so a crash mid-write leaves either the previous snapshot or
/// none — never a torn one. (And if a torn file appears anyway — e.g. a
/// dying filesystem — the header checksum catches it at restore.)
pub fn write_snapshot_file(path: &Path, image: &[u8]) -> Result<(), MachineError> {
    let io_err = |stage: &str, e: std::io::Error| {
        MachineError::Snapshot(format!("{stage} {}: {e}", path.display()))
    };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut f = fs::File::create(&tmp).map_err(|e| io_err("create", e))?;
    f.write_all(image).map_err(|e| io_err("write", e))?;
    f.sync_all().map_err(|e| io_err("sync", e))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| io_err("rename", e))
}

/// The run loop's handle on the auto-checkpoint's writer thread, which
/// does [`write_snapshot_file`] off the simulation thread (module docs).
/// Dropping the handle — by return or by unwinding — sends the thread
/// home, so the `thread::scope` it was spawned in always joins.
pub(crate) struct ImageWriter {
    jobs: SyncSender<Vec<u8>>,
    /// Each write's outcome: its buffer back, or why it failed.
    done: Receiver<Result<Vec<u8>, MachineError>>,
    in_flight: bool,
}

impl ImageWriter {
    /// Spawn the writer for `path` in `scope`.
    pub fn spawn<'scope>(
        scope: &'scope std::thread::Scope<'scope, '_>,
        path: PathBuf,
    ) -> Result<ImageWriter, MachineError> {
        // Capacity 1 and at most one write in flight: `send` never blocks.
        let (jobs, job_rx) = sync_channel::<Vec<u8>>(1);
        let (done_tx, done) = channel();
        std::thread::Builder::new()
            .name("cedar-checkpoint".to_string())
            .spawn_scoped(scope, move || {
                for image in job_rx {
                    let outcome = write_snapshot_file(&path, &image).map(|()| image);
                    // After a failure the run is over; so is this thread.
                    let failed = outcome.is_err();
                    if done_tx.send(outcome).is_err() || failed {
                        return;
                    }
                }
            })
            .map_err(|e| MachineError::Snapshot(format!("spawn checkpoint writer: {e}")))?;
        Ok(ImageWriter {
            jobs,
            done,
            in_flight: false,
        })
    }

    /// Wait for the write in flight, if any, and take its buffer back
    /// (an empty one when nothing was in flight).
    fn collect(&mut self) -> Result<Vec<u8>, MachineError> {
        if !std::mem::take(&mut self.in_flight) {
            return Ok(Vec::new());
        }
        self.done.recv().unwrap_or_else(|_| Err(writer_gone()))
    }

    /// Hand `image` over for writing, first waiting out the write before
    /// it, and return that write's buffer for the next image.
    ///
    /// # Errors
    ///
    /// The previous write's I/O failure.
    pub fn submit(&mut self, image: Vec<u8>) -> Result<Vec<u8>, MachineError> {
        let spare = self.collect()?;
        self.jobs.send(image).map_err(|_| writer_gone())?;
        self.in_flight = true;
        Ok(spare)
    }

    /// Wait for the last write: afterwards the file on disk is the last
    /// image submitted.
    ///
    /// # Errors
    ///
    /// That write's I/O failure.
    pub fn finish(mut self) -> Result<(), MachineError> {
        self.collect().map(drop)
    }
}

fn writer_gone() -> MachineError {
    MachineError::Snapshot("checkpoint writer thread died without reporting".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A finished image around whatever `fill` encodes.
    fn image_of(fill: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
        let mut w = SnapWriter::image(Vec::new());
        fill(&mut w);
        w.finish()
    }

    /// The bytes `fill` encodes, headerless.
    fn fragment_of(fill: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
        let mut w = SnapWriter::fragment();
        fill(&mut w);
        w.into_fragment()
    }

    fn put_pair(&(a, b): &(u64, u8)) -> [u8; 9] {
        RecordWriter::new().u64(a).u8(b).done()
    }

    fn get_pair(mut f: RecordReader<'_, 9>) -> Result<(u64, u8), &'static str> {
        Ok((f.u64(), f.u8()))
    }

    #[test]
    fn primitives_round_trip() {
        let image = image_of(|w| {
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
        });
        let mut r = SnapReader::new(read_payload(&image).unwrap());
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
        let bytes = fragment_of(|w| w.u64(42));
        let mut r = SnapReader::new(&bytes[..5]);
        assert!(r.u64().is_err());
    }

    #[test]
    fn wrong_tag_names_both_sections() {
        let bytes = fragment_of(|w| w.tag(b"AAAA"));
        let mut r = SnapReader::new(&bytes);
        let e = r.tag(b"BBBB").unwrap_err();
        assert!(e.0.contains("BBBB") && e.0.contains("AAAA"), "{}", e.0);
    }

    /// The theorem of the module docs, checked exhaustively on every
    /// lane and tail alignment: one flipped bit, anywhere, changes the
    /// checksum.
    #[test]
    fn checksum_differs_for_every_single_bit_flip() {
        for len in 0..=96usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + len) as u8).collect();
            let clean = checksum(&data);
            for pos in 0..len {
                for bit in 0..8 {
                    let mut flipped = data.clone();
                    flipped[pos] ^= 1 << bit;
                    assert_ne!(
                        checksum(&flipped),
                        clean,
                        "len {len}, byte {pos}, bit {bit}"
                    );
                }
            }
        }
    }

    /// Zero padding of the last block must not hide a length change.
    #[test]
    fn checksum_sees_trailing_zero_bytes_come_and_go() {
        for len in 0..=96usize {
            let mut data: Vec<u8> = (0..len).map(|i| (i * 91 + 3) as u8).collect();
            let clean = checksum(&data);
            for extra in 1..=40 {
                data.push(0);
                assert_ne!(checksum(&data), clean, "len {len} + {extra} zero bytes");
            }
            // And from the other side: an input ending in zeros, shortened.
            let padded = checksum(&data);
            for kept in len..len + 40 {
                assert_ne!(
                    checksum(&data[..kept]),
                    padded,
                    "len {kept} of {}",
                    data.len()
                );
            }
        }
    }

    #[test]
    fn slices_round_trip_at_every_alignment() {
        for n in [0usize, 1, 63, 64, 65, 130] {
            let bytes: Vec<u8> = (0..n).map(|i| i as u8).collect();
            let words32: Vec<u32> = (0..n).map(|i| i as u32 * 0x0101_0101).collect();
            let words64: Vec<u64> = (0..n).map(|i| (i as u64) << 40 | 5).collect();
            let flags: Vec<bool> = (0..n).map(|i| i % 3 == 0 || i + 1 == n).collect();
            let pairs: Vec<(u64, u8)> = (0..n).map(|i| (i as u64 * 7, i as u8)).collect();
            let encoded = fragment_of(|w| {
                w.bytes(&bytes);
                w.u32s(&words32);
                w.u64s(&words64);
                w.u64s(&words64);
                w.bools(&flags);
                w.records(pairs.iter(), put_pair);
            });
            let mut r = SnapReader::new(&encoded);
            let mut got_bytes = vec![0xffu8; n];
            r.bytes_into(&mut got_bytes).unwrap();
            assert_eq!(got_bytes, bytes);
            let mut got32 = vec![u32::MAX; n];
            r.u32s_into(&mut got32).unwrap();
            assert_eq!(got32, words32);
            let mut got64 = vec![u64::MAX; n];
            r.u64s_into(&mut got64).unwrap();
            assert_eq!(got64, words64);
            assert_eq!(r.u64s().unwrap(), words64);
            let mut got_flags = vec![true; n];
            r.bools_into(&mut got_flags).unwrap();
            assert_eq!(got_flags, flags);
            assert_eq!(r.records(get_pair).unwrap(), pairs);
            assert!(r.exhausted(), "n = {n}");
        }
    }

    #[test]
    fn records_count_a_filtered_iterator() {
        let pairs: Vec<(u64, u8)> = (0..10).map(|i| (i, i as u8)).collect();
        let encoded = fragment_of(|w| {
            w.records(pairs.iter().filter(|p| p.0 % 2 == 1), put_pair);
        });
        let mut r = SnapReader::new(&encoded);
        let odd: Vec<(u64, u8)> = pairs.iter().copied().filter(|p| p.0 % 2 == 1).collect();
        assert_eq!(r.records(get_pair).unwrap(), odd);
    }

    /// A chunked occupancy mask over `entries`.
    fn mask_of(entries: &[Option<(u64, u8)>]) -> Vec<u64> {
        let mut mask = vec![0u64; entries.len().div_ceil(64)];
        for (i, e) in entries.iter().enumerate() {
            mask[i / 64] |= u64::from(e.is_some()) << (i % 64);
        }
        mask
    }

    fn put_sparse(w: &mut SnapWriter, entries: &[Option<(u64, u8)>]) {
        w.sparse(entries.len(), &mask_of(entries), |i| {
            put_pair(entries[i].as_ref().unwrap())
        });
    }

    #[test]
    fn sparse_arrays_round_trip_at_every_alignment() {
        for n in [0usize, 1, 63, 64, 65, 130] {
            for stride in [1usize, 2, 7, 1000] {
                let entries: Vec<Option<(u64, u8)>> = (0..n)
                    .map(|i| (i % stride == 0 || i + 1 == n).then_some((i as u64 * 3, i as u8)))
                    .collect();
                let encoded = fragment_of(|w| put_sparse(w, &entries));
                let occupied: Vec<(u64, u8)> = entries.iter().flatten().copied().collect();
                assert_eq!(encoded.len(), 8 + n.div_ceil(64) * 8 + occupied.len() * 9);
                let mut r = SnapReader::new(&encoded);
                let (mask, got) = r.sparse(n, get_pair).unwrap();
                assert_eq!(mask, mask_of(&entries), "n = {n}, stride = {stride}");
                assert_eq!(got, occupied, "n = {n}, stride = {stride}");
                assert!(r.exhausted());
            }
        }
    }

    /// Malformed runs are `SnapError`s found before anything is
    /// allocated for them — never a panic, never a huge `Vec`.
    #[test]
    fn malformed_runs_are_rejected() {
        let entries: Vec<Option<(u64, u8)>> =
            (0..70).map(|i| (i % 9 == 0).then_some((i, 1))).collect();
        let good = fragment_of(|w| put_sparse(w, &entries));

        // A mask bit past the last entry (70 lives in word 1, bit 6).
        let mut stray = good.clone();
        stray[8 + 8] |= 1 << 6;
        let e = SnapReader::new(&stray).sparse(70, get_pair).unwrap_err();
        assert!(e.0.contains("past its 70 entries"), "{}", e.0);

        // A record run shorter than the mask's popcount.
        let short = &good[..good.len() - 9];
        let e = SnapReader::new(short).sparse(70, get_pair).unwrap_err();
        assert!(e.0.contains("implausible element count 8"), "{}", e.0);

        // One more valid bit than records.
        let mut extra = good.clone();
        extra[8] |= 1 << 1;
        assert!(SnapReader::new(&extra).sparse(70, get_pair).is_err());

        // An entry count that is not this machine's.
        let e = SnapReader::new(&good).sparse(69, get_pair).unwrap_err();
        assert!(e.0.contains("expected 69 elements"), "{}", e.0);

        // Counts no input of this size could back.
        for count in [u64::MAX, u64::MAX / 9 + 1, 1 << 40, 17] {
            let huge = fragment_of(|w| {
                w.u64(count);
                w.u64(0);
                w.u64(0);
            });
            for what in ["records", "u64s", "bytes"] {
                let mut r = SnapReader::new(&huge);
                let e = match what {
                    "records" => r.records(get_pair).map(drop),
                    "u64s" => r.u64s().map(drop),
                    _ => r.bytes().map(drop),
                }
                .unwrap_err();
                assert!(e.0.contains("implausible"), "{what} × {count}: {}", e.0);
            }
        }

        // A record the decoder itself refuses.
        let one = fragment_of(|w| w.records([(1u64, 2u8)].iter(), put_pair));
        let e = SnapReader::new(&one)
            .records::<(), 9>(|_| Err("no such thing"))
            .unwrap_err();
        assert!(e.0.contains("no such thing"), "{}", e.0);
    }

    #[test]
    fn header_round_trip_and_rejections() {
        let image = image_of(|w| w.splice(b"some machine state"));
        assert_eq!(read_payload(&image).unwrap(), b"some machine state");

        // Torn: drop trailing bytes.
        assert!(read_payload(&image[..image.len() - 3]).is_err());
        // Foreign file.
        assert!(read_payload(b"not a snapshot at all......").is_err());
        // Flip one payload bit: checksum mismatch.
        let mut flipped = image.clone();
        *flipped.last_mut().unwrap() ^= 0x10;
        let e = read_payload(&flipped).unwrap_err();
        assert!(e.to_string().contains("checksum"), "{e}");
    }

    /// An image stamped with another version — the format this build
    /// replaced, or a future one — fails by name, whatever its body.
    #[test]
    fn other_versions_are_rejected_naming_both() {
        let image = image_of(|w| w.splice(b"abc"));
        for other in (1..SNAPSHOT_VERSION).chain([SNAPSHOT_VERSION + 1]) {
            let mut stamped = image.clone();
            stamped[8..12].copy_from_slice(&other.to_le_bytes());
            let e = read_payload(&stamped).unwrap_err().to_string();
            assert!(
                e.contains(&format!("format version {other}"))
                    && e.contains(&format!("reads version {SNAPSHOT_VERSION}")),
                "{e}"
            );
        }
    }

    #[test]
    fn a_reused_buffer_builds_the_same_image() {
        let first = image_of(|w| w.u64s(&[1, 2, 3]));
        let stale = first.clone();
        let (at, capacity) = (stale.as_ptr(), stale.capacity());
        let mut w = SnapWriter::image(stale);
        w.u64s(&[1, 2, 3]);
        let again = w.finish();
        assert_eq!(again, first);
        assert_eq!((again.as_ptr(), again.capacity()), (at, capacity));
    }

    #[test]
    fn atomic_write_then_read() {
        let dir = std::env::temp_dir().join("cedar_snap_core_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.ckpt");
        let image = image_of(|w| w.splice(b"abc"));
        write_snapshot_file(&path, &image).unwrap();
        let back = std::fs::read(&path).unwrap();
        assert_eq!(read_payload(&back).unwrap(), b"abc");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The writer thread's protocol: buffers come back in hand-off
    /// order, the file is the last image once `finish` returns, and a
    /// failed write surfaces at the next hand-off or at `finish`.
    #[test]
    fn image_writer_ping_pongs_and_reports_failures() {
        let dir = std::env::temp_dir().join(format!("cedar_snap_writer_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.ckpt");
        let images: Vec<Vec<u8>> = (0..4u64).map(|i| image_of(|w| w.u64(i))).collect();
        std::thread::scope(|s| {
            let mut writer = ImageWriter::spawn(s, path.clone()).unwrap();
            assert!(writer.submit(images[0].clone()).unwrap().is_empty());
            for i in 1..4 {
                assert_eq!(writer.submit(images[i].clone()).unwrap(), images[i - 1]);
            }
            writer.finish().unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), images[3]);
        });
        // The directory goes away under the writer: the next write fails,
        // its error arrives exactly once, and the scope still joins.
        std::fs::remove_dir_all(&dir).unwrap();
        std::thread::scope(|s| {
            let mut writer = ImageWriter::spawn(s, path.clone()).unwrap();
            writer.submit(images[0].clone()).unwrap();
            let e = writer.submit(images[1].clone()).unwrap_err();
            assert!(e.to_string().contains("create"), "{e}");
            writer.finish().unwrap();
        });
        std::thread::scope(|s| {
            let mut writer = ImageWriter::spawn(s, path.clone()).unwrap();
            writer.submit(images[0].clone()).unwrap();
            assert!(writer.finish().is_err());
        });
    }
}
