//! The run loop: one engine, on one host thread or on two lanes.
//!
//! A simulated cycle `t` has four phases, and the run loop ticks them in
//! this order on every thread count:
//!
//! | phase | work | reads and writes |
//! |-------|------|------------------|
//! | `G(t)` | fault transitions, memory modules tick | module queues; reply *injection* into the reverse network |
//! | `R(t)` | reverse network moves, replies land in the CEs | reverse network; engines (reply latches, prefetch buffers); latency histogram |
//! | `F(t)` | forward network moves, requests land in the modules | forward network; module queues |
//! | `C(t)` | CC buses and CEs tick | clusters, engines, tracer, page table; request *injection* into the forward network |
//!
//! The paper's machine couples its two unidirectional networks only at
//! the modules and at the CEs, and the phases inherit that: `R(t)` and
//! `F(t)` share nothing, and `C(t)` shares nothing with the *next*
//! cycle's `G(t+1)`, which needs the module queues `F(t)` left and the
//! reverse-injector room `R(t)` left but nothing the clusters do. So
//! within one cycle the dependencies are `G(t) → {R(t) ‖ F(t)} → C(t)`,
//! and `G(t+1)` may run beside `C(t)`.
//!
//! * **One thread** (`num_threads == 1`): the four phase functions, called
//!   in order on the calling thread. No thread, lock, hand-off or buffer
//!   exists.
//! * **Two lanes** (`num_threads >= 2`): lane A is the calling thread and
//!   owns the clusters, engines, tracer and page table for the whole run;
//!   lane B is one `std::thread::scope` worker. Each round has two
//!   [`Handoff`]s: after the first, `R(t)` runs on lane A beside `F(t)` on
//!   lane B; after the second, `C(t)` runs on lane A beside `G(t+1)` on
//!   lane B. The CEs inject straight into the forward network and post
//!   straight into the machine tracer, exactly as on one thread. A cycle
//!   has no third independent part, so more threads than two buy nothing
//!   and are not used.
//!
//! The forward network, the reverse network and the global memory are
//! each touched by one lane per phase. They live in
//! [`Baton`](crate::handoff::Baton)s on the machine; lane A lends a
//! component to lane B by moving its box into a mutex-guarded slot on the
//! [`Link`] before a hand-off and takes it back after a later one. The
//! hand-offs order every access, so the slot locks are never contended —
//! they are what lets safe Rust see the exclusivity.
//!
//! # The early memory tick
//!
//! `G(t+1)` runs beside `C(t)` only when it is provably what the in-order
//! loop would do next. Otherwise lane B sits the second phase out and
//! `G(t+1)` runs at the top of the next round, on lane A, exactly as on
//! one thread. The refusals, each with the between-rounds step it
//! protects:
//!
//! 1. *No network holds a packet after `R(t)` and `F(t)`* — the done-check
//!    might end the run, or fast-forward might skip cycles, after `C(t)`.
//!    (A busy network pins both answers to "tick the next cycle": the
//!    clusters can only add packets.)
//! 2. *An auto-checkpoint is due at `t`* — its image must hold the state
//!    before `G(t+1)`.
//! 3. *A watchdog inspection is due at `t`* — its hang report reads the
//!    module queues and the reverse network.
//! 4. *The cycle budget is exhausted at `t`* — the run stops there, and a
//!    stopped machine must image identically on every thread count.
//! 5. *A fault-schedule transition falls at `t+1`* — it must be applied
//!    before `G(t+1)`, and it writes both networks.
//!
//! When the tick does run early the between-rounds steps that would read
//! a lent component are skipped, their answers being known; the
//! utilization timeline, which reads only engines, runs as always.
//!
//! # Determinism
//!
//! A run is bit-for-bit the same on every thread count — cycles, stats
//! tree, trace stream, `memory_digest()`, snapshot bytes — because each
//! component is touched by one lane per phase and the phase order is the
//! one-thread order: `R(t) ‖ F(t)` and `C(t) ‖ G(t+1)` pair phases with
//! disjoint state (table above), and every other step runs on lane A
//! between rounds with the whole machine in hand.

use std::thread::{Scope, ScopedJoinHandle};
use std::time::Instant;

use crate::ce::{CeContext, CeEngine};
use crate::error::{HangReport, LaneContext, MachineError, Result};
use crate::handoff::{lent, Handoff, Leave, Released, Slot, LANE_A, LANE_B, STOPPED};
use crate::machine::{Machine, Watchdog, STUCK_SYNC_CHECKS};
use crate::memory::global::GlobalMemory;
use crate::network::packet::{MemReply, Packet, Payload, Stream};
use crate::network::{NetSink, Omega};
use crate::snapshot::CkptCtl;
use crate::stats::{MachineStats, UtilSample};
use crate::time::Cycle;
use crate::trace::{profiled, region, HostProfiler};

/// One lane's hand-off waits: how many, and (under host profiling) how
/// long.
#[derive(Debug, Default, Clone, Copy)]
struct Waits {
    count: u64,
    ns: u64,
}

/// What the two lanes share. A one-thread run builds none of it.
///
/// A round's two hand-offs carry, as notes: at the first, lane A's
/// `now << 1 | may_tick_early` (refusals 2–5 of the early memory tick all
/// pass); at the second, each lane's "my network still holds a packet"
/// (refusal 1), from which both work out [`ticks_early`] alike.
struct Link {
    handoff: Handoff,
    forward: Slot<Omega>,
    reverse: Slot<Omega>,
    gmem: Slot<GlobalMemory>,
    /// Whether hand-off waits and lane B's phases are timed (host
    /// profiling is on).
    timed: bool,
}

/// Whether a round's second phase runs `G(t+1)` on lane B.
fn ticks_early(may_tick_early: bool, forward_busy: bool, reverse_busy: bool) -> bool {
    may_tick_early && (forward_busy || reverse_busy)
}

/// What lane B brings home when the run ends.
struct LaneBTally {
    waits: Waits,
    profiler: Option<Box<HostProfiler>>,
}

impl Link {
    fn new(timed: bool) -> Link {
        Link {
            handoff: Handoff::new(),
            forward: Slot::empty(),
            reverse: Slot::empty(),
            gmem: Slot::empty(),
            timed,
        }
    }

    /// [`Handoff::meet`] for lane `me`, counted (and, under host
    /// profiling, timed) into `waits`.
    fn meet(&self, me: usize, note: u64, waits: &mut Waits) -> std::result::Result<u64, Released> {
        waits.count += 1;
        if !self.timed {
            return self.handoff.meet(me, note);
        }
        let t0 = Instant::now();
        let met = self.handoff.meet(me, note);
        waits.ns += t0.elapsed().as_nanos() as u64;
        met
    }

    /// Lane B's life: `F(t)`, then `G(t+1)` when it may run early, every
    /// round until lane A leaves.
    fn serve(&self) -> LaneBTally {
        let _leave = Leave(&self.handoff, LANE_B);
        let mut tally = LaneBTally {
            waits: Waits::default(),
            profiler: self.timed.then(Box::default),
        };
        loop {
            let Ok(order) = self.meet(LANE_B, 0, &mut tally.waits) else {
                return tally;
            };
            let (now, may_tick_early) = (Cycle(order >> 1), order & 1 != 0);
            let forward_busy = {
                let (mut forward, mut gmem) = (self.forward.lock(), self.gmem.lock());
                let forward = lent(&mut forward);
                forward_phase(&mut tally.profiler, forward, lent(&mut gmem));
                !forward.is_idle()
            };
            let Ok(reverse_busy) = self.meet(LANE_B, u64::from(forward_busy), &mut tally.waits)
            else {
                return tally;
            };
            if ticks_early(may_tick_early, forward_busy, reverse_busy != 0) {
                let (mut reverse, mut gmem) = (self.reverse.lock(), self.gmem.lock());
                memory_tick(
                    &mut tally.profiler,
                    lent(&mut gmem),
                    lent(&mut reverse),
                    now + 1,
                );
            }
        }
    }
}

/// Lane A's end of a two-lane run.
struct LaneA<'scope, 'env> {
    link: &'env Link,
    lane_b: Option<ScopedJoinHandle<'scope, LaneBTally>>,
    _leave: Leave<'env>,
    waits: Waits,
    rounds: u64,
    early_ticks: u64,
}

impl<'scope, 'env> LaneA<'scope, 'env> {
    fn start(scope: &'scope Scope<'scope, 'env>, link: &'env Link) -> LaneA<'scope, 'env> {
        LaneA {
            link,
            lane_b: Some(scope.spawn(move || link.serve())),
            _leave: Leave(&link.handoff, LANE_A),
            waits: Waits::default(),
            rounds: 0,
            early_ticks: 0,
        }
    }

    /// Lane B's tally once it has gone home; its panic, re-raised here on
    /// the calling thread, if that is how it went.
    fn join(&mut self) -> LaneBTally {
        let lane_b = self.lane_b.take().expect("lane B is joined once");
        lane_b
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    fn meet(&mut self, note: u64) -> u64 {
        match self.link.meet(LANE_A, note, &mut self.waits) {
            Ok(note) => note,
            // Only this lane stops the hand-off, so lane B unwound.
            Err(_) => {
                self.join();
                unreachable!("lane B left the run without panicking");
            }
        }
    }

    /// Cycle `now`'s network and cluster phases, `G(now)` done: `R ‖ F`,
    /// then `C ‖ G(now + 1)` when the memory tick may run early (the
    /// return value). `was_early` says the previous round's did, so the
    /// reverse network and the memory are still with lane B.
    fn round(
        &mut self,
        m: &mut Machine,
        now: Cycle,
        was_early: bool,
        may_tick_early: bool,
    ) -> bool {
        let link = self.link;
        m.forward.lend(&link.forward);
        if !was_early {
            m.gmem.lend(&link.gmem);
        }
        self.meet(now.0 << 1 | u64::from(may_tick_early));

        if was_early {
            m.reverse.reclaim(&link.reverse);
        }
        m.reverse_phase(now);
        let reverse_busy = !m.reverse.is_idle();
        if may_tick_early {
            m.reverse.lend(&link.reverse);
        }
        let forward_busy = self.meet(u64::from(reverse_busy)) != 0;

        m.forward.reclaim(&link.forward);
        let early = ticks_early(may_tick_early, forward_busy, reverse_busy);
        if !early {
            m.gmem.reclaim(&link.gmem);
            if may_tick_early {
                m.reverse.reclaim(&link.reverse);
            }
        }
        m.cluster_phase(now);
        self.rounds += 1;
        self.early_ticks += u64::from(early);
        early
    }

    /// Send lane B home and fold what both lanes counted into the host
    /// profile.
    fn finish(mut self, profiler: &mut Option<Box<HostProfiler>>) -> LaneContext {
        self.link.handoff.release(LANE_A, STOPPED);
        let lane_b = self.join();
        let lanes = LaneContext {
            rounds: self.rounds,
            early_memory_ticks: self.early_ticks,
            lane_waits: [self.waits, lane_b.waits]
                .iter()
                .enumerate()
                .map(|(lane, w)| (lane, w.count, w.ns))
                .collect(),
        };
        if let Some(p) = profiler.as_deref_mut() {
            if let Some(theirs) = &lane_b.profiler {
                p.merge_regions(theirs);
            }
            for &(lane, waits, ns) in &lanes.lane_waits {
                p.add_named(&format!("sync_wait_w{lane}"), waits, ns);
            }
            p.add_named("exchanges", lanes.rounds, 0);
            p.add_named("early_memory_ticks", lanes.early_memory_ticks, 0);
        }
        lanes
    }
}

/// `G(now)` after its fault transitions: the memory modules tick,
/// injecting replies into `reverse`.
fn memory_tick(
    profiler: &mut Option<Box<HostProfiler>>,
    gmem: &mut GlobalMemory,
    reverse: &mut Omega,
    now: Cycle,
) {
    // The omegas have no absolute clock of their own; give the reverse
    // network's tracing layer (if any) the cycle before its first
    // activity of the cycle.
    reverse.set_trace_now(now);
    profiled(profiler, region::GMEM, || gmem.tick(now, reverse));
}

/// `F(t)`: the forward network moves, delivering requests into the
/// modules.
fn forward_phase(
    profiler: &mut Option<Box<HostProfiler>>,
    forward: &mut Omega,
    gmem: &mut GlobalMemory,
) {
    // Nothing to move: the tick would return at once.
    if forward.is_idle() {
        return;
    }
    profiled(profiler, region::FORWARD, || {
        let epoch = gmem.accept_epoch();
        forward.tick_epoch(gmem, epoch);
    });
}

/// Fill `out` with cumulative per-CE utilization samples, one per
/// configured CE (all-zero for CEs that run no program). Reuses the
/// caller's buffer so the per-bucket timeline record allocates nothing.
fn fill_util_samples(engines: &[Option<CeEngine>], out: &mut Vec<UtilSample>) {
    out.clear();
    out.extend(engines.iter().map(|e| match e {
        Some(e) => {
            let s = e.stats();
            UtilSample {
                busy: s.busy,
                stall_mem: s.stall_mem,
                stall_sync: s.stall_sync,
                idle: s.idle,
            }
        }
        None => UtilSample::default(),
    }));
}

/// Collects the reverse network's deliveries for the engines, in
/// delivery order. The CE side always sinks replies (prefetch buffer
/// slots and reply latches are pre-reserved by the requests themselves),
/// and nothing in the reverse tick reads engine state, so handing them
/// over after the tick is the same as handing them over during it.
struct ReplySink<'a>(&'a mut Vec<(usize, MemReply)>);

impl NetSink for ReplySink<'_> {
    fn try_begin(&mut self, _port: usize) -> bool {
        true
    }

    fn deliver(&mut self, port: usize, packet: Packet) {
        if let Payload::Reply(r) = packet.payload {
            self.0.push((port, r));
        } else {
            debug_assert!(false, "request packet delivered to CE side");
        }
    }
}

impl Machine {
    /// The run loop: step the machine round by round until every program
    /// completes — on the calling thread alone, or with a second lane
    /// beside it when two or more threads are configured. See the module
    /// docs for the phases and the determinism argument.
    pub(crate) fn run_loop(
        &mut self,
        start: Cycle,
        limit: u64,
        watchdog: &mut Watchdog,
        stats_start: &MachineStats,
    ) -> Result<()> {
        let link = (self.cfg.num_threads >= 2).then(|| Link::new(self.profiler.is_some()));
        let mut lanes = None;
        let result = std::thread::scope(|s| {
            let mut lane_a = link.as_ref().map(|link| LaneA::start(s, link));
            // Auto-checkpointing holds a file-writer thread for the run.
            // The control block lives in this closure, so every way out
            // of it — including a panic — drops the writer's handle,
            // which is what lets the scope join that thread.
            let ckpt = match (self.cfg.checkpoint_every, &self.cfg.checkpoint_path) {
                (every, Some(path)) if every > 0 => {
                    CkptCtl::begin(s, every, path.clone(), self.now, start, limit, stats_start)
                        .map(Some)
                }
                _ => Ok(None),
            };
            let result = ckpt.and_then(|mut ckpt| {
                let result = self.run_rounds(lane_a.as_mut(), start, limit, watchdog, &mut ckpt);
                // However the rounds ended, the last due checkpoint
                // reaches the disk before the run returns — and a failed
                // write fails the run, ahead of whatever else stopped it.
                ckpt.map_or(Ok(()), CkptCtl::finish).and(result)
            });
            lanes = lane_a.map(|lane_a| lane_a.finish(&mut self.profiler));
            result
        });
        result.map_err(|e| match e {
            MachineError::Deadlock { mut report } => {
                report.lanes = lanes;
                MachineError::Deadlock { report }
            }
            e => e,
        })
    }

    /// The rounds of one run, one simulated cycle each: `G`, `R`, `F`, `C`
    /// in order on the calling thread, or — with a second lane — `G`, then
    /// `R ‖ F`, then `C` beside the next cycle's `G` when that may run
    /// early (module docs).
    ///
    /// The done-check, the watchdog, the budget, fast-forward and the
    /// auto-checkpoint run between rounds with the whole machine home, so
    /// the state they see is the same on every thread count. After an
    /// early memory tick they are skipped: that tick is only taken when
    /// none of them would act. A reference machine never fast-forwards:
    /// it ticks every cycle, the oracle the engine's skips are tested
    /// against.
    fn run_rounds(
        &mut self,
        mut lane_a: Option<&mut LaneA<'_, '_>>,
        start: Cycle,
        limit: u64,
        watchdog: &mut Watchdog,
        ckpt: &mut Option<CkptCtl>,
    ) -> Result<()> {
        // `G(now + 1)` has already run, beside `C(now)`; the reverse
        // network and the memory are with lane B until the next round's
        // first hand-off.
        let mut early = false;
        loop {
            if !early {
                if self.all_done() {
                    break;
                }
                // Watchdog before the budget check: a true deadlock should
                // surface as `Deadlock` (with its hang report), never as a
                // generic `CycleLimitExceeded`.
                if watchdog.due(self.now) {
                    self.check_progress(watchdog)?;
                }
                if self.now.saturating_since(start) > limit {
                    return Err(MachineError::CycleLimitExceeded { limit });
                }
            }
            self.now += 1;
            let now = self.now;
            self.forward.set_trace_now(now);
            if !early {
                self.memory_phase(now);
            }
            // With both networks empty `R` and `F` have nothing to move,
            // and a hand-off would cost more than the round: lane B is
            // called on only when there is network work to split.
            let split = early || !(self.forward.is_idle() && self.reverse.is_idle());
            match lane_a.as_deref_mut().filter(|_| split) {
                None => {
                    self.reverse_phase(now);
                    forward_phase(&mut self.profiler, &mut self.forward, &mut self.gmem);
                    self.cluster_phase(now);
                }
                Some(lane_a) => {
                    // Refusals 2–5 of the early memory tick (module docs);
                    // the first needs the networks' state after phase 1.
                    let may_tick_early = ckpt.as_ref().is_none_or(|ck| now < ck.next)
                        && !watchdog.due(now)
                        && now.saturating_since(start) <= limit
                        && self.fault_sched.as_ref().and_then(|fs| fs.next_event(now))
                            != Some(now + 1);
                    early = lane_a.round(self, now, early, may_tick_early);
                }
            }

            let mut prof = self.profiler.take();
            if self.timeline.due(self.now) {
                profiled(&mut prof, region::TIMELINE, || {
                    fill_util_samples(&self.engines, &mut self.util_scratch);
                    self.timeline.record(&self.util_scratch);
                });
            }
            if !self.reference && !early {
                profiled(&mut prof, region::FASTFWD, || {
                    self.try_fast_forward(start, limit);
                });
            }
            self.profiler = prof;

            // Auto-checkpoint between rounds: post-tick (and post-skip)
            // state is always self-consistent here, whether the run is
            // mid-fast-forward, mid-outage or mid-journey. (Never due
            // after an early memory tick.)
            if let Some(ck) = ckpt.as_mut() {
                if self.now >= ck.next {
                    self.autosave(ck, watchdog)?;
                }
            }
        }
        fill_util_samples(&self.engines, &mut self.util_scratch);
        self.timeline.finish(self.now, &self.util_scratch);
        Ok(())
    }

    /// `G(now)` at the top of a round: fault-schedule transitions first,
    /// then the memory tick.
    fn memory_phase(&mut self, now: Cycle) {
        let Machine {
            forward,
            reverse,
            gmem,
            fault_sched,
            profiler,
            ..
        } = self;
        if let Some(fs) = fault_sched {
            profiled(profiler, region::FAULTS, || {
                fs.apply_due(now, forward, reverse, gmem);
            });
        }
        memory_tick(profiler, gmem, reverse, now);
    }

    /// `R(now)`: the reverse network moves, then its replies go to the
    /// engines, histogramming prefetch round trips on the way past (the
    /// external monitor probes the reverse-network signals on the real
    /// machine).
    fn reverse_phase(&mut self, now: Cycle) {
        let Machine {
            reverse,
            replies,
            engines,
            latency_histogram,
            profiler,
            ..
        } = self;
        if reverse.is_idle() {
            return;
        }
        profiled(profiler, region::REVERSE, || {
            // The CE side always accepts (try_begin is constant), so the
            // reverse network runs under a constant acceptance epoch.
            reverse.tick_epoch(&mut ReplySink(replies), 0);
        });
        if replies.is_empty() {
            return;
        }
        profiled(profiler, region::DELIVER, || {
            for (port, r) in replies.drain(..) {
                if matches!(r.stream, Stream::Prefetch { .. }) {
                    latency_histogram.record(now.saturating_since(r.req_issued) as usize);
                }
                // Ports beyond the CE side belong to nobody.
                if let Some(Some(e)) = engines.get_mut(port) {
                    e.receive(now, r);
                }
            }
        });
    }

    /// `C(now)`: every CC bus first, then the engines in CE-id order,
    /// folding their wake cycles into the machine's.
    fn cluster_phase(&mut self, now: Cycle) {
        let Machine {
            forward,
            clusters,
            engines,
            page_table,
            tracer,
            counters,
            barriers,
            profiler,
            ce_wake,
            reference,
            ..
        } = self;
        let forward: &mut Omega = forward;
        profiled(profiler, region::CLUSTER, || {
            for cl in clusters.iter_mut() {
                cl.ccbus.tick(now);
            }
            let mut wake = Cycle::NEVER;
            for e in engines.iter_mut().flatten() {
                // Lowered, before the engine's wake cycle: one cycle of
                // attribution, no context plumbing.
                let cluster = &mut clusters[e.cluster().0];
                if *reference || !e.try_quick_tick(now, &cluster.ccbus) {
                    let mut ctx = CeContext {
                        forward: &mut *forward,
                        cache: &mut cluster.cache,
                        ccbus: &mut cluster.ccbus,
                        tlb: &mut cluster.tlb,
                        page_table: &mut *page_table,
                        counters,
                        barriers,
                        tracer: &mut *tracer,
                    };
                    e.tick(now, &mut ctx);
                }
                wake = wake.min(e.wake());
            }
            *ce_wake = wake;
        });
    }

    fn shared_idle(&self) -> bool {
        self.forward.is_idle() && self.reverse.is_idle() && self.gmem.is_idle()
    }

    fn all_done(&self) -> bool {
        self.engines.iter().flatten().all(CeEngine::is_done) && self.shared_idle()
    }

    /// One forward-progress inspection.
    ///
    /// # Errors
    ///
    /// [`MachineError::Faulted`] when a retry controller exhausted its
    /// budget, [`MachineError::Deadlock`] when the machine cannot finish.
    fn check_progress(&self, watchdog: &mut Watchdog) -> Result<()> {
        let deadlock = |kind| {
            Err(MachineError::Deadlock {
                report: Box::new(self.hang_report(kind)),
            })
        };
        watchdog.arm_next(self.now);
        let mut unfinished = 0usize;
        let mut sync_waiting = 0usize;
        for e in self.engines.iter().flatten() {
            // A CE whose retry controller gave up can never become done.
            if let Some(reason) = e.fault_exhausted() {
                return Err(MachineError::Faulted { ce: e.id(), reason });
            }
            if !e.is_done() {
                unfinished += 1;
                if e.sync_blocked() {
                    sync_waiting += 1;
                }
            }
        }
        // No subsystem will ever act again, yet work remains: nothing can
        // change, so nothing will complete.
        if !self.all_done() && self.next_machine_event().is_none() {
            return deadlock("event starvation");
        }
        // Every unfinished CE sat in a synchronization wait across several
        // consecutive checks: a barrier/counter that can never release
        // (legitimate waits release within one poll period, far shorter
        // than a single check interval).
        if unfinished > 0 && sync_waiting == unfinished {
            watchdog.sync_stuck += 1;
            if watchdog.sync_stuck >= STUCK_SYNC_CHECKS {
                return deadlock("synchronization stall");
            }
        } else {
            watchdog.sync_stuck = 0;
        }
        Ok(())
    }

    /// Capture the machine state for a [`MachineError::Deadlock`].
    fn hang_report(&self, kind: &str) -> HangReport {
        let mut ces = Vec::new();
        let mut barrier_waiters = 0usize;
        let mut pending_retries = 0u64;
        for e in self.engines.iter().flatten() {
            pending_retries += e.fault_pending();
            if !e.is_done() {
                if e.sync_blocked() {
                    barrier_waiters += 1;
                }
                // Cap the listing: a machine-wide hang names every CE on a
                // 32-CE Cedar, but a pathological config should not build
                // an unbounded report.
                if ces.len() < 64 {
                    let wake = (e.wake() != Cycle::NEVER).then_some(e.wake().0);
                    ces.push((e.id().0, e.hang_state(), wake));
                }
            }
        }
        HangReport {
            at_cycle: self.now.0,
            kind: kind.to_string(),
            ces,
            barrier_waiters,
            fwd_in_flight: self.forward.in_flight_packets(),
            rev_in_flight: self.reverse.in_flight_packets(),
            module_queues: self.gmem.queue_depths(),
            pending_retries,
            // Filled in by `run_loop` when two lanes ran.
            lanes: None,
        }
    }

    /// The earliest future cycle at which any subsystem can change
    /// externally visible state, given no machine activity in between.
    /// `None` means no subsystem will ever act again (every CE is done —
    /// or deadlocked waiting on synchronization that cannot arrive).
    ///
    /// Conservative by construction: any subsystem unsure of its next
    /// event answers `now + 1`, which suppresses skipping but can never
    /// change results. The engines answer through the earliest wake
    /// cycle the last cluster phase folded, which no engine has moved
    /// since: replies land before the cluster phase, and skips credit
    /// without ticking.
    fn next_machine_event(&self) -> Option<Cycle> {
        let now = self.now;
        let soon = now + 1;
        let mut best = min_event(self.forward.next_event(now), self.reverse.next_event(now));
        if best == Some(soon) {
            return best;
        }
        if let Some(fs) = &self.fault_sched {
            best = min_event(best, fs.next_event(now));
            if best == Some(soon) {
                return best;
            }
        }
        best = min_event(best, self.gmem.next_event(now));
        if best == Some(soon) {
            return best;
        }
        for cl in &self.clusters {
            best = min_event(best, cl.ccbus.next_event(now));
            if best == Some(soon) {
                return best;
            }
        }
        let engines = (self.ce_wake != Cycle::NEVER).then(|| self.ce_wake.max(soon));
        min_event(best, engines)
    }

    /// Event-horizon fast-forward: if every subsystem is quiescent until
    /// some future cycle `t`, jump straight to `t - 1`, bulk-crediting the
    /// skipped cycles into exactly the counters a cycle-by-cycle run would
    /// have bumped (CE idle/stall attribution, memory-module busy/queue
    /// occupancy, prefetch page-wait) and recording utilization-timeline
    /// buckets at their usual boundaries. Every statistic, histogram and
    /// digest stays bit-for-bit identical to the unskipped run.
    fn try_fast_forward(&mut self, start: Cycle, limit: u64) {
        // Past the cycle limit plus slack, so a run with no future events
        // (a deadlocked barrier) trips CycleLimitExceeded promptly instead
        // of ticking its way there.
        let deadlock_cap = Cycle(start.0.saturating_add(limit).saturating_add(2));
        let target = match self.next_machine_event() {
            Some(t) if t > self.now + 1 => t.min(deadlock_cap),
            Some(_) => return,
            None => {
                if self.all_done() {
                    return;
                }
                deadlock_cap
            }
        };
        // Skip in chunks clamped to the next timeline bucket boundary, so
        // utilization buckets are recorded from the same cumulative state a
        // ticked run would have seen at each boundary.
        while self.now + 1 < target {
            let boundary = self.timeline.next_boundary();
            let chunk_end = boundary.min(Cycle(target.0 - 1)).max(self.now + 1);
            let k = chunk_end - self.now;
            self.gmem.skip(k);
            for e in self.engines.iter_mut().flatten() {
                e.skip(self.now + 1, k);
            }
            self.fastfwd_skipped += k;
            self.now = chunk_end;
            if self.timeline.due(self.now) {
                fill_util_samples(&self.engines, &mut self.util_scratch);
                self.timeline.record(&self.util_scratch);
            }
        }
    }
}

/// The earlier of two optional event cycles (`None` = no event).
fn min_event(a: Option<Cycle>, b: Option<Cycle>) -> Option<Cycle> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole way up: lane B unwinds in its phase (nothing was lent to
    /// it), lane A's next hand-off ends instead of hanging, and lane B's
    /// own panic comes out of the calling thread.
    #[test]
    fn a_panic_on_lane_b_is_reraised_on_the_calling_thread() {
        let link = Link::new(false);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|s| {
                let mut lane_a = LaneA::start(s, &link);
                lane_a.meet(0);
                lane_a.meet(0);
            });
        }))
        .expect_err("lane B's panic must surface");
        let message = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .expect("a panic message");
        assert!(message.contains("was not lent"), "{message}");
    }
}
