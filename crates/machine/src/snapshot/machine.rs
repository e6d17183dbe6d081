//! Machine-level snapshot composition: the `MACH` section (run context,
//! allocation tables, monitoring state) followed by every subsystem's
//! section in a fixed order — forward omega, reverse omega, global
//! memory, per-cluster cache/bus/TLB, fault schedule, CE engines.
//!
//! Both sides run on a whole machine: the run loop checkpoints between
//! rounds, when nothing is on loan to its second lane.

use std::path::{Path, PathBuf};
use std::thread::Scope;

use super::{read_payload, write_snapshot_file, ImageWriter, SnapReader, SnapResult, SnapWriter};
use crate::ce::CeEngine;
use crate::error::{MachineError, Result};
use crate::ids::{CeId, ClusterId};
use crate::lower::LowerMeta;
use crate::machine::{Machine, Watchdog};
use crate::monitor::Histogrammer;
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
        stats_start.save_state(&mut w);
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

fn put_counter(w: &mut SnapWriter, c: &CounterDef) {
    match *c {
        CounterDef::Cluster { cluster, slot } => {
            w.u8(0);
            w.usize(cluster.0);
            w.usize(slot);
        }
        CounterDef::Global { base_addr } => {
            w.u8(1);
            w.u64(base_addr);
        }
        CounterDef::GlobalShared { base_addr } => {
            w.u8(2);
            w.u64(base_addr);
        }
    }
}

fn get_counter(r: &mut SnapReader) -> SnapResult<CounterDef> {
    Ok(match r.u8()? {
        0 => CounterDef::Cluster {
            cluster: ClusterId(r.usize()?),
            slot: r.usize()?,
        },
        1 => CounterDef::Global {
            base_addr: r.u64()?,
        },
        2 => CounterDef::GlobalShared {
            base_addr: r.u64()?,
        },
        b => return Err(r.err_invalid("counter definition", b)),
    })
}

fn put_barrier(w: &mut SnapWriter, b: &BarrierDef) {
    match b.scope {
        BarrierScope::Cluster(c) => {
            w.u8(0);
            w.usize(c.0);
        }
        BarrierScope::Global => w.u8(1),
    }
    w.u32(b.expected);
    w.u64(b.base_addr);
}

fn get_barrier(r: &mut SnapReader) -> SnapResult<BarrierDef> {
    let scope = match r.u8()? {
        0 => BarrierScope::Cluster(ClusterId(r.usize()?)),
        1 => BarrierScope::Global,
        b => return Err(r.err_invalid("barrier scope", b)),
    };
    Ok(BarrierDef {
        scope,
        expected: r.u32()?,
        base_addr: r.u64()?,
    })
}

impl Machine {
    /// Serialize the complete machine (and, mid-run, the run context) as
    /// a finished image built in `buf`.
    fn write_image(&self, buf: Vec<u8>, run: Option<(&CkptCtl, &Watchdog)>) -> Vec<u8> {
        let cfg = &self.cfg;
        let mut w = SnapWriter::image(buf);
        w.tag(b"MACH");
        // Structural echo: enough of the configuration to reject a snapshot
        // taken on a differently shaped machine with a named error before any
        // per-section count check trips.
        w.u32(cfg.clusters as u32);
        w.u32(cfg.ces_per_cluster as u32);
        w.u32(cfg.network_ports() as u32);
        w.u32(cfg.global_memory.modules as u32);
        w.bool(cfg.vm.enabled);
        w.bool(cfg.faults.as_ref().is_some_and(|p| p.enabled()));
        w.bool(cfg.trace.as_ref().is_some_and(|p| p.enabled()));
        w.cycle(self.now);
        w.u64(self.fastfwd_skipped);
        w.u64(self.next_sync_slot);
        w.usize(self.next_bus_barrier_slot);
        w.seq(self.counters.iter(), put_counter);
        w.seq(self.barriers.iter(), put_barrier);
        w.opt(self.program_meta.as_ref(), |w, m| {
            w.usize(m.source_ops);
            w.usize(m.uops);
            w.usize(m.fused_ops);
            w.usize(m.max_loop_depth);
        });
        self.latency_histogram.save_state(&mut w);
        self.timeline.save_state(&mut w);
        self.tracer.save_state(&mut w);
        self.page_table.save_state(&mut w);
        self.trace_store.save_state(&mut w);
        // Mid-run: everything `Machine::resume` needs to re-enter the loop
        // exactly where the killed run left it — its start and budget,
        // the watchdog (so restored inspections land on the cycles the
        // uninterrupted run inspects) and the registry baseline taken at
        // run start.
        w.opt(run.as_ref(), |w, (ck, watchdog)| {
            w.cycle(ck.start);
            w.u64(ck.limit);
            w.cycle(watchdog.next_check());
            w.u32(watchdog.sync_stuck);
            w.splice(&ck.stats_start);
        });
        self.forward.save_state(&mut w);
        self.reverse.save_state(&mut w);
        self.gmem.save_state(&mut w);
        for cl in &self.clusters {
            cl.cache.save_state(&mut w);
            cl.ccbus.save_state(&mut w);
            cl.tlb.save_state(&mut w);
        }
        w.opt(self.fault_sched.as_ref(), |w, fs| fs.save_state(w));
        debug_assert_eq!(self.engines.len(), cfg.total_ces());
        w.usize(cfg.total_ces());
        for e in &self.engines {
            w.opt(e.as_ref(), |w, e| e.save_state(w));
        }
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
        let payload = read_payload(image)?;
        let mut r = SnapReader::new(payload);
        let ctx = self.load_payload(&mut r)?;
        Ok(ctx)
    }

    fn load_payload(&mut self, r: &mut SnapReader) -> Result<Option<ResumeCtx>> {
        r.tag(b"MACH")?;
        let cfg = &self.cfg;
        let checks: [(&str, u64, u64); 4] = [
            ("cluster count", u64::from(r.u32()?), cfg.clusters as u64),
            (
                "CEs per cluster",
                u64::from(r.u32()?),
                cfg.ces_per_cluster as u64,
            ),
            (
                "network port count",
                u64::from(r.u32()?),
                cfg.network_ports() as u64,
            ),
            (
                "memory module count",
                u64::from(r.u32()?),
                cfg.global_memory.modules as u64,
            ),
        ];
        for (what, snap, here) in checks {
            if snap != here {
                return Err(r
                    .err_mismatch(&format!("{what} {snap} (this machine has {here})"))
                    .into());
            }
        }
        let flags: [(&str, bool, bool); 3] = [
            ("VM modelling", r.bool()?, cfg.vm.enabled),
            (
                "fault injection",
                r.bool()?,
                cfg.faults.as_ref().is_some_and(|p| p.enabled()),
            ),
            (
                "journey tracing",
                r.bool()?,
                cfg.trace.as_ref().is_some_and(|p| p.enabled()),
            ),
        ];
        for (what, snap, here) in flags {
            if snap != here {
                return Err(r
                    .err_mismatch(&format!(
                        "{what} is {} in the snapshot but {} on this machine",
                        on_off(snap),
                        on_off(here),
                    ))
                    .into());
            }
        }
        self.now = r.cycle()?;
        self.fastfwd_skipped = r.u64()?;
        self.next_sync_slot = r.u64()?;
        self.next_bus_barrier_slot = r.usize()?;
        let counters = r.seq(get_counter).map_err(MachineError::from)?;
        if counters != self.counters {
            return Err(r
                .err_mismatch("allocated counters do not match the snapshot's")
                .into());
        }
        let barriers = r.seq(get_barrier).map_err(MachineError::from)?;
        if barriers != self.barriers {
            return Err(r
                .err_mismatch("allocated barriers do not match the snapshot's")
                .into());
        }
        self.program_meta = r
            .opt(|r| {
                Ok(LowerMeta {
                    source_ops: r.usize()?,
                    uops: r.usize()?,
                    fused_ops: r.usize()?,
                    max_loop_depth: r.usize()?,
                })
            })
            .map_err(MachineError::from)?;
        self.latency_histogram =
            std::sync::Arc::new(Histogrammer::decode(r).map_err(MachineError::from)?);
        self.timeline.load_state(r).map_err(MachineError::from)?;
        self.tracer.load_state(r).map_err(MachineError::from)?;
        self.page_table.load_state(r).map_err(MachineError::from)?;
        self.trace_store.load_state(r).map_err(MachineError::from)?;
        let run = r
            .opt(|r| {
                let start = r.cycle()?;
                let limit = r.u64()?;
                let wd_next = r.cycle()?;
                let wd_stuck = r.u32()?;
                let stats_start = MachineStats::decode(r)?;
                Ok(ResumeCtx {
                    start,
                    limit,
                    watchdog: Watchdog::from_state(wd_next, wd_stuck),
                    stats_start,
                })
            })
            .map_err(MachineError::from)?;
        self.forward.load_state(r).map_err(MachineError::from)?;
        self.reverse.load_state(r).map_err(MachineError::from)?;
        self.gmem.load_state(r).map_err(MachineError::from)?;
        for cl in &mut self.clusters {
            cl.cache.load_state(r).map_err(MachineError::from)?;
            cl.ccbus.load_state(r).map_err(MachineError::from)?;
            cl.tlb.load_state(r).map_err(MachineError::from)?;
        }
        let had_faults = r.bool().map_err(MachineError::from)?;
        match (had_faults, self.fault_sched.as_mut()) {
            (true, Some(fs)) => fs.load_state(r).map_err(MachineError::from)?,
            (false, None) => {}
            (snap, _) => {
                return Err(r
                    .err_mismatch(&format!(
                        "fault schedule is {} in the snapshot but {} on this machine",
                        on_off(snap),
                        on_off(!snap),
                    ))
                    .into());
            }
        }
        let n_engines = r.len().map_err(MachineError::from)?;
        if n_engines != self.engines.len() {
            return Err(r
                .err_mismatch(&format!(
                    "snapshot holds {n_engines} engine slots, this machine has {}",
                    self.engines.len()
                ))
                .into());
        }
        for i in 0..n_engines {
            let had = r.bool().map_err(MachineError::from)?;
            match (had, self.engines[i].as_mut()) {
                (true, Some(e)) => e.load_state(r).map_err(MachineError::from)?,
                (false, None) => {}
                (snap, _) => {
                    return Err(r
                        .err_mismatch(&format!(
                            "CE {i} {} a program in the snapshot but {} one here \
                             (resume must re-load the interrupted run's programs)",
                            if snap { "runs" } else { "does not run" },
                            if snap { "lacks" } else { "holds" },
                        ))
                        .into());
                }
            }
        }
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
