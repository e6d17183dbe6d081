//! Machine-level snapshot composition: the `MACH` section (run context,
//! allocation tables, monitoring state) followed by every subsystem's
//! section in a fixed order — forward omega, reverse omega, global
//! memory, per-cluster cache/bus/TLB, fault schedule, CE engines.
//!
//! Both sides run on a whole machine: the run loop checkpoints between
//! rounds, when nothing is on loan to its second lane.

use std::path::{Path, PathBuf};
use std::thread::Scope;

use super::{
    codec, load_present, read_payload, snapshot_state, write_snapshot_file, All, Codec, Echo,
    Field, ImageWriter, Nested, Present, SnapReader, SnapResult, SnapWriter, State,
};
use crate::ce::CeEngine;
use crate::config::MachineConfig;
use crate::error::{MachineError, Result};
use crate::handoff::Baton;
use crate::ids::CeId;
use crate::lower::LowerMeta;
use crate::machine::{Cluster, Machine, Watchdog};
use crate::program::Program;
use crate::sched::{BarrierDef, BarrierScope, CounterDef};
use crate::stats::MachineStats;
use crate::time::Cycle;

/// Auto-checkpoint state of one run with
/// [`crate::config::MachineConfig::checkpoint_every`] set: when the next
/// checkpoint is due, what every image of the run repeats, and the two
/// image buffers that ping-pong between the run loop and the writer
/// thread.
pub(crate) struct CkptCtl {
    every: u64,
    /// Earliest cycle at which the next checkpoint is due. The run loop
    /// only tests this between rounds, so a snapshot is never taken
    /// mid-round.
    pub next: Cycle,
    start: Cycle,
    limit: u64,
    /// The registry baseline taken at run start, which the resumed run's
    /// report deltas against. Constant for the run, so encoded once here
    /// and spliced into every image as bytes.
    stats_start: Vec<u8>,
    /// The image buffer the writer thread is not holding.
    spare: Vec<u8>,
    writer: ImageWriter,
}

impl CkptCtl {
    /// Begin auto-checkpointing a run at cycle `now`: spawn the file
    /// writer in `scope` and encode the run's constants.
    pub fn begin<'scope>(
        scope: &'scope Scope<'scope, '_>,
        every: u64,
        path: PathBuf,
        now: Cycle,
        start: Cycle,
        limit: u64,
        stats_start: &MachineStats,
    ) -> Result<CkptCtl> {
        let mut w = SnapWriter::fragment();
        stats_start.put(&mut w);
        Ok(CkptCtl {
            every,
            next: now + every,
            start,
            limit,
            stats_start: w.into_fragment(),
            spare: Vec::new(),
            writer: ImageWriter::spawn(scope, path)?,
        })
    }

    /// Wait for the last checkpoint to reach the disk.
    ///
    /// # Errors
    ///
    /// [`MachineError::Snapshot`] when that write failed.
    pub fn finish(self) -> Result<()> {
        self.writer.finish()
    }
}

/// The run context decoded from a snapshot, handed back to
/// [`Machine::resume`] to re-enter the run loop.
pub(crate) struct ResumeCtx {
    pub start: Cycle,
    /// The interrupted run's cycle budget, kept as provenance. `resume`
    /// runs under the caller-supplied budget instead: a crashed run may
    /// have died *because* it hit its limit, and replaying that limit
    /// would kill the resumed run on its first cycle.
    pub limit: u64,
    pub watchdog: Watchdog,
    pub stats_start: MachineStats,
}

codec!(struct ResumeCtx { start, limit, watchdog, stats_start });
codec!(struct LowerMeta { source_ops, uops, fused_ops, max_loop_depth });
codec!(enum CounterDef as "counter definition" {
    0 => Cluster { cluster, slot },
    1 => Global { base_addr },
    2 => GlobalShared { base_addr },
});
codec!(enum BarrierScope as "barrier scope" {
    0 => Cluster(cluster),
    1 => Global,
});
codec!(struct BarrierDef { scope, expected, base_addr });

impl<T: State> State for Baton<T> {
    fn save(&self, w: &mut SnapWriter) {
        T::save(self, w);
    }
    fn load(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        T::load(self, r)
    }
}

snapshot_state! {
    impl Cluster as this {
        saved: [cache, ccbus, tlb],
        derived: [],
    }
}

// The `MACH` section, then every subsystem's section in a fixed order.
// Mid-run, the slot `run()` holds everything `Machine::resume` needs to
// re-enter the loop exactly where the killed run left it (`ResumeCtx`).
// Derived and not written: the CE configuration, the stat-key cache,
// the timeline's scratch buffer, the reply buffer (empty between
// cycles), the engines' folded wake cycle, the host profiler and the
// reference flag (reference machines refuse to checkpoint).
snapshot_state! {
    impl Machine as this, run {
        tag: b"MACH",
        saved: [
            cfg: Shape, now, fastfwd_skipped, next_sync_slot, next_bus_barrier_slot,
            counters: Echo("allocated counters"), barriers: Echo("allocated barriers"),
            program_meta, latency_histogram, timeline, tracer, page_table, trace_store, run(),
            forward, reverse, gmem, clusters: All(Nested), fault_sched: Present("fault schedule"),
            engines: Engines,
        ],
        derived: [ce_cfg, stat_keys, util_scratch, replies, ce_wake, profiler, reference],
    }
}

/// The structural echo: enough of the configuration to reject an image
/// taken on a differently shaped machine with a named error before any
/// per-section count check trips.
struct Shape;

impl Shape {
    fn counts(cfg: &MachineConfig) -> [(&'static str, usize); 4] {
        [
            ("cluster count", cfg.clusters),
            ("CEs per cluster", cfg.ces_per_cluster),
            ("network port count", cfg.network_ports()),
            ("memory module count", cfg.global_memory.modules),
        ]
    }

    fn flags(cfg: &MachineConfig) -> [(&'static str, bool); 3] {
        [
            ("VM modelling", cfg.vm.enabled),
            (
                "fault injection",
                cfg.faults.as_ref().is_some_and(|p| p.enabled()),
            ),
            (
                "journey tracing",
                cfg.trace.as_ref().is_some_and(|p| p.enabled()),
            ),
        ]
    }
}

impl Field<MachineConfig> for Shape {
    fn put(&self, cfg: &MachineConfig, w: &mut SnapWriter) {
        for (_, n) in Shape::counts(cfg) {
            w.u32(n as u32);
        }
        for (_, on) in Shape::flags(cfg) {
            w.bool(on);
        }
    }

    fn load(&self, cfg: &mut MachineConfig, r: &mut SnapReader) -> SnapResult<()> {
        for (what, here) in Shape::counts(cfg) {
            let snap = r.u32()?;
            if u64::from(snap) != here as u64 {
                return Err(r.err_mismatch(&format!("{what} {snap} (this machine has {here})")));
            }
        }
        for (what, here) in Shape::flags(cfg) {
            let snap = r.bool()?;
            if snap != here {
                return Err(r.err_mismatch(&format!(
                    "{what} is {} in the snapshot but {} on this machine",
                    on_off(snap),
                    on_off(here),
                )));
            }
        }
        Ok(())
    }
}

/// The engine slots: their count, then each slot's presence byte and
/// engine. A resumed run must re-load the interrupted run's programs.
struct Engines;

impl Field<Vec<Option<CeEngine>>> for Engines {
    fn put(&self, engines: &Vec<Option<CeEngine>>, w: &mut SnapWriter) {
        w.seq(engines.iter(), |w, e| w.opt(e.as_ref(), |w, e| e.save(w)));
    }

    fn load(&self, engines: &mut Vec<Option<CeEngine>>, r: &mut SnapReader) -> SnapResult<()> {
        let n = r.len()?;
        if n != engines.len() {
            return Err(r.err_mismatch(&format!(
                "snapshot holds {n} engine slots, this machine has {}",
                engines.len()
            )));
        }
        for (i, e) in engines.iter_mut().enumerate() {
            load_present(r, e.as_mut(), format_args!("a program on CE {i}"))?;
        }
        Ok(())
    }
}

impl Machine {
    /// Serialize the complete machine (and, mid-run, the run context) as
    /// a finished image built in `buf`.
    fn write_image(&self, buf: Vec<u8>, run: Option<(&CkptCtl, &Watchdog)>) -> Vec<u8> {
        let mut w = SnapWriter::image(buf);
        // The run context in `ResumeCtx`'s layout, its registry baseline
        // encoded once per run.
        self.save_with(&mut w, |w| {
            w.opt(run.as_ref(), |w, (ck, watchdog)| {
                (ck.start, ck.limit).put(w);
                watchdog.put(w);
                w.splice(&ck.stats_start);
            });
        });
        w.finish()
    }

    /// Take the run's due checkpoint: serialize the machine into the
    /// spare image buffer and swap it with the one the writer thread has
    /// finished with.
    ///
    /// # Errors
    ///
    /// [`MachineError::Snapshot`] when the *previous* checkpoint's file
    /// write failed (this one's outcome arrives with the next hand-off,
    /// or with [`CkptCtl::finish`]).
    pub(crate) fn autosave(&self, ck: &mut CkptCtl, watchdog: &Watchdog) -> Result<()> {
        let buf = std::mem::take(&mut ck.spare);
        let image = self.write_image(buf, Some((ck, watchdog)));
        ck.spare = ck.writer.submit(image)?;
        ck.next = self.now + ck.every;
        Ok(())
    }

    /// The snapshot image of this machine between runs.
    fn image(&self) -> Result<Vec<u8>> {
        self.refuse_reference()?;
        Ok(self.write_image(Vec::new(), None))
    }

    /// The snapshot format carries the lowered engine's state only, so a
    /// reference machine neither writes nor reads images.
    fn refuse_reference(&self) -> Result<()> {
        if self.reference {
            return Err(MachineError::ReferenceCheckpoint);
        }
        Ok(())
    }

    /// Serialize the complete machine state to `w` as a versioned,
    /// checksummed snapshot image (see the module docs for the format).
    ///
    /// Taken between runs this archives the machine; the mid-run
    /// auto-checkpoint (see
    /// [`checkpoint_every`](crate::config::MachineConfig::checkpoint_every))
    /// additionally embeds the run context that [`Machine::resume`] needs.
    ///
    /// # Errors
    ///
    /// [`MachineError::Snapshot`] when writing to `w` fails, and
    /// [`MachineError::ReferenceCheckpoint`] on a reference machine.
    pub fn checkpoint<W: std::io::Write>(&self, w: &mut W) -> Result<()> {
        w.write_all(&self.image()?)
            .map_err(|e| MachineError::Snapshot(format!("write: {e}")))
    }

    /// [`Machine::checkpoint`] to a file, written atomically
    /// (temporary-file-and-rename, fsynced), so a crash mid-write never
    /// leaves a torn snapshot behind.
    ///
    /// # Errors
    ///
    /// [`MachineError::Snapshot`] on any I/O failure, and
    /// [`MachineError::ReferenceCheckpoint`] on a reference machine.
    pub fn checkpoint_to(&self, path: &Path) -> Result<()> {
        write_snapshot_file(path, &self.image()?)
    }

    /// Restore this machine's complete mutable state from a snapshot image
    /// read out of `r`. The machine must be built from the same
    /// configuration (and hold the same counter/barrier allocations and
    /// loaded programs) as the one that wrote the snapshot; any
    /// disagreement — as well as a torn, truncated, corrupted or
    /// future-versioned image — is a structured [`MachineError::Snapshot`],
    /// never a panic. To continue an interrupted *run*, use
    /// [`Machine::resume`], which also restores the run context.
    ///
    /// # Errors
    ///
    /// [`MachineError::Snapshot`] on any read, validation or decode
    /// failure, and [`MachineError::ReferenceCheckpoint`] on a reference
    /// machine. The machine may be partially overwritten when a decode
    /// fails mid-payload; restore onto a scratch machine when that
    /// matters.
    pub fn restore<R: std::io::Read>(&mut self, r: &mut R) -> Result<()> {
        let mut image = Vec::new();
        r.read_to_end(&mut image)
            .map_err(|e| MachineError::Snapshot(format!("read: {e}")))?;
        self.load_image(&image).map(|_| ())
    }

    /// Re-load `programs` exactly as the interrupted run did, restore the
    /// machine from `image` (which must hold a mid-run checkpoint written
    /// by the auto-checkpoint), and run to completion under `limit`
    /// cycles measured from the *original* run's start — exactly the
    /// budget semantics of an uninterrupted [`Machine::run`] with the
    /// same limit. The report, stats tree, memory digest and cycle count
    /// are bit-identical to the uninterrupted run's (`tests/snapshot.rs`
    /// is the proof harness).
    ///
    /// # Errors
    ///
    /// Everything [`Machine::run`] and [`Machine::restore`] can return,
    /// plus [`MachineError::Snapshot`] when the image holds no run
    /// context (it was written between runs, not by a checkpoint).
    pub fn resume(
        &mut self,
        programs: Vec<(CeId, Program)>,
        image: &[u8],
        limit: u64,
    ) -> Result<crate::machine::RunReport> {
        let ctx = self.load_run(programs, image)?;
        self.run_prepared(ctx.start, limit, ctx.stats_start, ctx.watchdog)
    }

    /// Everything of [`Machine::resume`] before the run loop: re-load the
    /// programs, restore the machine from `image`, and hand back the run
    /// context the image must hold.
    fn load_run(&mut self, programs: Vec<(CeId, Program)>, image: &[u8]) -> Result<ResumeCtx> {
        self.prepare_run(programs)?;
        let ctx = self.load_image(image)?.ok_or_else(|| {
            MachineError::Snapshot(
                "snapshot holds no run context to resume (written between runs?)".to_string(),
            )
        })?;
        let _interrupted_budget = ctx.limit;
        Ok(ctx)
    }

    /// [`Machine::resume`] from a snapshot file.
    ///
    /// # Errors
    ///
    /// As [`Machine::resume`], plus [`MachineError::Snapshot`] when the
    /// file cannot be read.
    pub fn resume_from_file(
        &mut self,
        programs: Vec<(CeId, Program)>,
        path: &Path,
        limit: u64,
    ) -> Result<crate::machine::RunReport> {
        let image = std::fs::read(path)
            .map_err(|e| MachineError::Snapshot(format!("read {}: {e}", path.display())))?;
        let ctx = self.load_run(programs, &image)?;
        // The image has done its job; the run should not carry it.
        drop(image);
        let mut report = self.run_prepared(ctx.start, limit, ctx.stats_start, ctx.watchdog)?;
        report.resumed_from = Some(path.to_path_buf());
        Ok(report)
    }

    /// Validate `image` and overwrite this machine's state from it,
    /// returning the embedded run context when the snapshot was taken
    /// mid-run.
    pub(crate) fn load_image(&mut self, image: &[u8]) -> Result<Option<ResumeCtx>> {
        self.refuse_reference()?;
        let mut r = SnapReader::new(read_payload(image)?);
        let mut run = None;
        self.load_with(&mut r, |r| {
            run = Codec::get(r)?;
            Ok(())
        })?;
        if !r.exhausted() {
            return Err(r
                .err_mismatch("trailing bytes after the last section")
                .into());
        }
        // The wake horizon is derived state: fold it from the engines
        // exactly as the cluster phase left it.
        self.ce_wake = self
            .engines
            .iter()
            .flatten()
            .map(CeEngine::wake)
            .min()
            .unwrap_or(Cycle::NEVER);
        Ok(run)
    }
}

fn on_off(v: bool) -> &'static str {
    if v {
        "on"
    } else {
        "off"
    }
}
