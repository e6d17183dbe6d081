//! The computational element (CE) execution engine.
//!
//! Each CE is a pipelined 68020-compatible processor with a vector unit:
//! eight 32-word vector registers, register–memory vector instructions
//! with one memory operand, 11.8 MFLOPS peak on chained 64-bit operations.
//! The engine executes a [`Program`] as a state machine advanced one cycle
//! at a time, interacting with the shared cluster cache, its private
//! prefetch unit, the forward network port and the concurrency control
//! bus.

use std::sync::Arc;

use crate::cache::{CacheAccess, ClusterCache};
use crate::ccbus::CcBus;
use crate::config::{CeConfig, MachineConfig};
use crate::fault::{CeFaultCtl, CtlPoll, FaultCtlStats, ReplyAction};
use crate::ids::{CeId, ClusterId};
use crate::lower::{LProgram, UOp};
use crate::memory::address::{module_of, page_of};
use crate::memory::sync::{Rel, SyncInstr, SyncOpKind, SyncOutcome};
use crate::monitor::Histogrammer;
use crate::network::packet::{MemReply, MemRequest, Packet, Payload, RequestKind, Stream};
use crate::network::Omega;
use crate::prefetch::{Pfu, PrefetchStats};
use crate::program::{Block, MemOperand, Op, Program, VectorOp};
use crate::sched::{BarrierDef, BarrierScope, CounterDef, EPOCH_SPACING};
use crate::snapshot::{
    codec, snapshot_state, Field, Present, SnapReader, SnapResult, SnapWriter, State, Words,
};
use crate::time::Cycle;
use crate::trace::{class, hop, CeTraceCtl, TraceEvent};
use crate::vm::Tlb;

/// Everything a CE touches outside itself during one tick.
pub struct CeContext<'a> {
    /// The forward network (request injection at this CE's port).
    pub forward: &'a mut Omega,
    /// The CE's cluster's shared cache.
    pub cache: &'a mut ClusterCache,
    /// The CE's cluster's concurrency control bus.
    pub ccbus: &'a mut CcBus,
    /// The CE's cluster's TLB (used when VM modelling is enabled).
    pub tlb: &'a mut Tlb,
    /// The machine-wide page table (used when VM modelling is enabled).
    pub page_table: &'a mut crate::vm::PageTable,
    /// Machine counter registry.
    pub counters: &'a [CounterDef],
    /// Machine barrier registry.
    pub barriers: &'a [BarrierDef],
    /// The external event tracer (software event posting).
    pub tracer: &'a mut crate::monitor::EventTracer,
}

/// Per-CE execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CeStats {
    /// Floating-point operations performed.
    pub flops: u64,
    /// Vector elements processed.
    pub vector_elements: u64,
    /// Cycles in which the CE made forward progress (issued or retired
    /// work, including modelled fixed-latency compute stalls).
    pub busy: u64,
    /// Cycles after the CE's program completed while the rest of the
    /// machine was still running.
    pub idle: u64,
    /// Cycles spent blocked waiting on memory (vector/scalar data).
    pub stall_mem: u64,
    /// Cycles spent blocked on synchronization (counters, barriers,
    /// fences).
    pub stall_sync: u64,
    /// TLB misses taken (VM modelling enabled only).
    pub tlb_misses: u64,
    /// Hard (first-touch) page faults taken (VM modelling enabled only).
    pub page_faults: u64,
    /// Cycles spent in virtual-memory activity (TLB misses + faults).
    pub vm_cycles: u64,
    /// Cycle at which the program finished (0 if still running).
    pub done_at: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GbPhase {
    AwaitArrive,
    PollWait { at: Cycle },
    AwaitPoll,
}

#[derive(Debug, Clone, Copy)]
enum CeState {
    Fetch,
    Stall {
        until: Cycle,
    },
    VectorDirect {
        base: u64,
        stride: i64,
        length: u32,
        issued: u32,
        completed: u32,
        start_at: Cycle,
        /// Gather: element addresses are pseudo-randomly scattered.
        gather: bool,
    },
    VectorPref {
        length: u32,
        consumed: u32,
        start_at: Cycle,
    },
    VectorGWrite {
        base: u64,
        stride: i64,
        length: u32,
        issued: u32,
        start_at: Cycle,
        /// Scatter: element addresses are pseudo-randomly scattered.
        scatter: bool,
    },
    VectorCache {
        base: u64,
        stride: i64,
        write: bool,
        length: u32,
        issued: u32,
        last_ready: Cycle,
        start_at: Cycle,
    },
    AwaitScalarRead,
    AwaitSync,
    AwaitCounter,
    AwaitClusterBarrier,
    GlobalBarrier {
        barrier: usize,
        epoch: u64,
        phase: GbPhase,
        /// Consecutive failed polls (drives exponential backoff so
        /// spinning CEs do not saturate the barrier's memory module).
        misses: u32,
    },
    AwaitFence,
    Done,
}

#[derive(Debug, Clone, Copy)]
enum FrameKind {
    Root,
    Repeat {
        remaining: u32,
    },
    SelfSched {
        counter: usize,
        limit: u64,
        chunk: u32,
        dispatch_cost: u32,
        epoch: u64,
        chunk_end: u64,
    },
}

#[derive(Debug, Clone)]
struct Frame {
    block: Block,
    pc: usize,
    kind: FrameKind,
}

/// A flat loop frame for lowered execution: the loop body's first
/// micro-op (`head`), the matching end-marker index (`end`), and the
/// same per-kind bookkeeping the interpreter keeps in [`Frame`].
#[derive(Debug, Clone, Copy)]
struct LFrame {
    head: u32,
    end: u32,
    kind: FrameKind,
}

/// Lowered-execution state: the compiled micro-op stream, a single flat
/// program counter, and the flat loop-frame stack. Present on every
/// engine of a [`Machine::new`](crate::machine::Machine::new) machine;
/// absent only on a reference machine's, which runs the tree-walking
/// interpreter the tests compare the lowered engine against.
#[derive(Debug)]
struct FlatCtl {
    prog: Arc<LProgram>,
    pc: u32,
    frames: Vec<LFrame>,
    /// An [`UOp::ArmFire`] has executed its arm phase and owes the fire.
    fire_pending: bool,
}

enum Step {
    Progress,
    Blocked,
}

/// One CE's execution engine.
pub struct CeEngine {
    id: CeId,
    cluster: ClusterId,
    ce_in_cluster: usize,
    /// Shared, immutable CE configuration (one allocation machine-wide).
    cfg: Arc<CeConfig>,
    vm_enabled: bool,
    page_words: u64,
    tlb_miss_cycles: u32,
    page_fault_cycles: u32,
    modules: usize,
    frames: Vec<Frame>,
    /// Lowered-execution state. `None` only on a reference machine
    /// ([`Machine::new_reference`](crate::machine::Machine::new_reference)),
    /// whose engines run the tree-walking interpreter in `frames`.
    flat: Option<FlatCtl>,
    /// The wake cycle: strictly before it a full [`CeEngine::tick`] does
    /// nothing but credit one cycle of attribution. Every full tick
    /// recomputes it ([`CeEngine::wake_after`]) and replies clear it
    /// ([`CeEngine::receive`]); the lowered engine quick-ticks before it,
    /// and fast-forward jumps no further than the machine's earliest one.
    wake: Cycle,
    indices: Vec<u64>,
    state: CeState,
    pfu: Pfu,
    pending_pkt: Option<Packet>,
    outstanding_reads: u32,
    outstanding_writes: u32,
    direct_ready: std::collections::VecDeque<Cycle>,
    scalar_ready: Option<Cycle>,
    sync_result: Option<SyncOutcome>,
    /// Next epoch per counter id (flat, lazily grown — counter ids are
    /// small dense registry indices, so a `Vec` beats hashing on the
    /// dispatch path).
    counter_epochs: Vec<u64>,
    /// Uses per barrier id (flat, lazily grown like `counter_epochs`).
    barrier_uses: Vec<u64>,
    /// Elected to fetch the next shared-SDOALL value; waiting for the
    /// port to free.
    sdoall_must_fetch: bool,
    /// The shared-SDOALL fetch is in flight; its reply must be posted to
    /// the cluster bus.
    sdoall_awaiting_reply: bool,
    ces_per_cluster: usize,
    vm_stall_until: Cycle,
    /// Retry controller for sequenced global-memory operations; allocated
    /// only when the machine runs under an enabled fault plan.
    fault_ctl: Option<Box<CeFaultCtl>>,
    /// Next retry-protocol sequence number (sequence 0 means unsequenced,
    /// so numbering starts at 1).
    next_seq: u64,
    /// Causal-tracing controller; allocated only when the machine runs
    /// with journey tracing enabled.
    trace_ctl: Option<Box<CeTraceCtl>>,
    stats: CeStats,
}

impl std::fmt::Debug for CeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CeEngine")
            .field("id", &self.id)
            .field("state", &self.state)
            .field("frames", &self.frames.len())
            .finish_non_exhaustive()
    }
}

impl CeEngine {
    /// Build an engine for CE `id` loaded with `program`. The CE
    /// configuration is shared machine-wide via `ce_cfg` (one allocation,
    /// not a per-engine clone). When `lowered` carries the program's
    /// compiled form the engine executes the flat micro-op stream;
    /// otherwise it runs the tree-walking interpreter.
    pub fn new(
        id: CeId,
        cfg: &MachineConfig,
        ce_cfg: Arc<CeConfig>,
        program: Program,
        lowered: Option<Arc<LProgram>>,
    ) -> CeEngine {
        let ces_per_cluster = cfg.ces_per_cluster;
        let root = Frame {
            block: program.into_body(),
            pc: 0,
            kind: FrameKind::Root,
        };
        let trace_plan = cfg.trace.as_ref().filter(|p| p.enabled());
        let mut pfu = Pfu::new(
            id,
            &cfg.prefetch,
            cfg.vm.page_words,
            cfg.global_memory.modules,
            cfg.faults
                .as_ref()
                .filter(|p| p.enabled())
                .map(|p| u64::from(p.timeout_cycles)),
        );
        if let Some(p) = trace_plan {
            pfu.enable_trace(p.seed, p.sample_ppm);
        }
        CeEngine {
            id,
            cluster: id.cluster(ces_per_cluster),
            ce_in_cluster: id.index_in_cluster(ces_per_cluster),
            cfg: ce_cfg,
            vm_enabled: cfg.vm.enabled,
            page_words: cfg.vm.page_words,
            tlb_miss_cycles: cfg.vm.tlb_miss_cycles,
            page_fault_cycles: cfg.vm.page_fault_cycles,
            modules: cfg.global_memory.modules,
            frames: vec![root],
            flat: lowered.map(|prog| FlatCtl {
                prog,
                pc: 0,
                frames: Vec::new(),
                fire_pending: false,
            }),
            wake: Cycle::ZERO,
            indices: Vec::new(),
            state: CeState::Fetch,
            pfu,
            pending_pkt: None,
            outstanding_reads: 0,
            outstanding_writes: 0,
            direct_ready: std::collections::VecDeque::new(),
            scalar_ready: None,
            sync_result: None,
            counter_epochs: Vec::new(),
            barrier_uses: Vec::new(),
            sdoall_must_fetch: false,
            sdoall_awaiting_reply: false,
            ces_per_cluster,
            vm_stall_until: Cycle::ZERO,
            fault_ctl: cfg
                .faults
                .as_ref()
                .filter(|p| p.enabled())
                .map(|p| Box::new(CeFaultCtl::new(p))),
            next_seq: 1,
            trace_ctl: trace_plan
                .map(|p| Box::new(CeTraceCtl::new(p.seed, p.sample_ppm, id.0 as u16))),
            stats: CeStats::default(),
        }
    }

    /// This CE's id.
    pub fn id(&self) -> CeId {
        self.id
    }

    /// This CE's cluster.
    pub fn cluster(&self) -> ClusterId {
        self.cluster
    }

    /// True when the program has run to completion and every generated
    /// request has left the CE (including retries still awaiting their
    /// first successful reply).
    pub fn is_done(&self) -> bool {
        matches!(self.state, CeState::Done)
            && self.pending_pkt.is_none()
            && self.fault_ctl.as_deref().is_none_or(CeFaultCtl::is_empty)
    }

    /// Execution statistics.
    pub fn stats(&self) -> CeStats {
        self.stats
    }

    /// Prefetch-unit statistics (flushing the in-progress trace).
    pub fn prefetch_stats(&mut self) -> PrefetchStats {
        self.pfu.flush_trace();
        self.pfu.stats()
    }

    /// Prefetch-unit statistics without flushing the in-progress trace
    /// (read-only snapshots mid-run; an active fire's latency samples are
    /// not yet folded in).
    pub fn prefetch_stats_raw(&self) -> PrefetchStats {
        self.pfu.stats()
    }

    /// Retry-controller counters (zero when faults are disabled).
    pub fn fault_stats(&self) -> FaultCtlStats {
        self.fault_ctl
            .as_deref()
            .map(CeFaultCtl::stats)
            .unwrap_or_default()
    }

    /// Retry-latency histogram, when a retry controller exists.
    pub(crate) fn fault_retry_latency(&self) -> Option<&Histogrammer> {
        self.fault_ctl.as_deref().map(CeFaultCtl::retry_latency)
    }

    /// Tracked operations still awaiting a successful reply.
    pub(crate) fn fault_pending(&self) -> u64 {
        self.fault_ctl.as_deref().map_or(0, |c| c.pending() as u64)
    }

    /// The failure description once the retry controller gave up on an
    /// operation (the machine aborts with `MachineError::Faulted`).
    pub(crate) fn fault_exhausted(&self) -> Option<String> {
        self.fault_ctl
            .as_deref()
            .and_then(|c| c.exhausted().map(str::to_string))
    }

    /// True when the engine is parked in a synchronization wait that only
    /// another CE's progress can resolve — the states the forward-progress
    /// watchdog counts as potentially deadlocked. Waits that resolve
    /// through traffic or the retry controller (scalar reads, sync
    /// replies, fences) are excluded: those always keep an event pending.
    pub(crate) fn sync_blocked(&self) -> bool {
        matches!(
            self.state,
            CeState::GlobalBarrier { .. } | CeState::AwaitClusterBarrier | CeState::AwaitCounter
        )
    }

    /// Compact Debug rendering of the engine state for hang reports.
    pub(crate) fn hang_state(&self) -> String {
        let mut s = format!("{:?}", self.state);
        if s.len() > 48 {
            s.truncate(47);
            s.push('…');
        }
        s
    }

    /// The engine's wake cycle ([`Cycle::NEVER`] while it sleeps until a
    /// reply lands or a CC-bus grant or release is posted for it).
    pub(crate) fn wake(&self) -> Cycle {
        self.wake
    }

    /// Handle a reply arriving from the reverse network.
    pub fn receive(&mut self, now: Cycle, reply: MemReply) {
        // Replies are the only external push into a CE (bus grants and
        // releases are pulled): any arrival may end the sleep, so clear
        // the wake cycle and let the next full tick recompute it.
        self.wake = Cycle::ZERO;
        if let Some(ctl) = self.fault_ctl.as_deref_mut() {
            if reply.seq != 0 {
                match ctl.on_reply(now, &reply) {
                    ReplyAction::Deliver => {}
                    // Duplicate of an already-delivered reply, or a NACK
                    // the controller will resend after backoff.
                    ReplyAction::Stale | ReplyAction::Nacked => return,
                }
            } else if reply.nack {
                // Unsequenced (prefetch) NACK: discard — the prefetch
                // unit's own timeout re-requests the missing element.
                return;
            }
        }
        // Every reply surviving the retry filter above is a real delivery:
        // close the journey at the CE. Resends share the original id and
        // assembly keeps the earliest stamp per hop, so duplicates are
        // harmless.
        if reply.trace != 0 {
            if let Some(tc) = self.trace_ctl.as_deref_mut() {
                tc.stamp(reply.trace, hop::RETIRE, 0, now);
            }
        }
        match reply.stream {
            Stream::Prefetch { elem, fire_seq } => self.pfu.receive(now, elem, fire_seq),
            Stream::Direct { .. } => self
                .direct_ready
                .push_back(now + u64::from(self.cfg.global_read_extra)),
            Stream::Scalar => {
                self.scalar_ready = Some(now + u64::from(self.cfg.global_read_extra));
            }
            Stream::Sync => self.sync_result = Some(SyncOutcome::decode(reply.value)),
            Stream::WriteAck => {
                self.outstanding_writes = self.outstanding_writes.saturating_sub(1);
            }
        }
    }

    /// Attribute `cycles` cycles in which the engine made no progress to
    /// the class its (unchanging) state decides. The one table behind the
    /// full tick's fallthrough and [`CeEngine::skip`], which must agree
    /// for quick ticks and fast-forward to stay bit-identical.
    #[inline]
    fn charge_blocked(&mut self, cycles: u64) {
        match self.state {
            CeState::Done => self.stats.idle += cycles,
            CeState::VectorDirect { .. }
            | CeState::VectorPref { .. }
            | CeState::VectorCache { .. }
            | CeState::VectorGWrite { .. }
            | CeState::AwaitScalarRead
            | CeState::Fetch => self.stats.stall_mem += cycles,
            CeState::AwaitCounter
            | CeState::AwaitClusterBarrier
            | CeState::GlobalBarrier { .. }
            | CeState::AwaitSync
            | CeState::AwaitFence => self.stats.stall_sync += cycles,
            // Timed execution stalls model compute latency: busy.
            _ => self.stats.busy += cycles,
        }
    }

    /// Credit the `cycles` cycles from `from` on, all before the wake
    /// cycle, with exactly the counter increments the per-cycle
    /// [`CeEngine::tick`] would have made: each such tick is a no-op but
    /// for one stall/idle/busy attribution (decided by the unchanging
    /// state the same way the tick's fallthrough does) and a suspended
    /// prefetch unit's page-wait cycle. The quick tick is `skip(now, 1)`.
    pub(crate) fn skip(&mut self, from: Cycle, cycles: u64) {
        debug_assert!(self.pending_pkt.is_none(), "skipped CE holds a packet");
        debug_assert!(
            from + (cycles - 1) < self.wake,
            "skipped past the wake cycle"
        );
        if matches!(self.state, CeState::Done) {
            self.stats.idle += cycles;
            return;
        }
        self.pfu.skip(cycles);
        if from < self.vm_stall_until {
            self.stats.stall_mem += cycles;
            return;
        }
        self.charge_blocked(cycles);
    }

    /// Advance one cycle, then recompute the wake cycle.
    pub fn tick(&mut self, now: Cycle, ctx: &mut CeContext<'_>) {
        self.advance(now, ctx);
        self.wake = self.wake_after(now, ctx.counters);
    }

    fn advance(&mut self, now: Cycle, ctx: &mut CeContext<'_>) {
        // Flush a request that failed injection last cycle (even when the
        // program has finished — the final store must still drain).
        if let Some(pkt) = self.pending_pkt.take() {
            if !ctx.forward.try_inject(self.id.port().0, pkt) {
                self.pending_pkt = Some(pkt);
            }
        }
        // Advance the retry controller (even after Done — the last store
        // or sync may still be draining through retries). At most one
        // resend per cycle, and only when the pending latch is free.
        if self.pending_pkt.is_none() {
            if let Some(ctl) = self.fault_ctl.as_deref_mut() {
                match ctl.poll(now) {
                    CtlPoll::Idle | CtlPoll::Exhausted => {}
                    CtlPoll::Resend(pkt) => {
                        if !ctx.forward.try_inject(self.id.port().0, pkt) {
                            self.pending_pkt = Some(pkt);
                        }
                    }
                }
            }
        }
        if matches!(self.state, CeState::Done) {
            self.stats.idle += 1;
            return;
        }
        // The PFU shares the CE's network port (skip the call — it goes
        // through a `dyn` parameter, so it never inlines — when idle).
        if !self.pfu.issue_idle() {
            self.pfu.tick(now, self.id.port().0, ctx.forward);
        }

        if now < self.vm_stall_until {
            self.stats.stall_mem += 1;
            return;
        }

        let mut progressed = false;
        let flat = self.flat.is_some();
        for _ in 0..16 {
            let s = if flat {
                self.step_lowered(now, ctx)
            } else {
                self.step(now, ctx)
            };
            match s {
                Step::Progress => progressed = true,
                Step::Blocked => break,
            }
        }
        if !progressed {
            self.charge_blocked(1);
        } else {
            self.stats.busy += 1;
        }
        if self.is_done() && self.stats.done_at == 0 {
            self.stats.done_at = now.0;
        }
    }

    /// Lowered-mode quick tick: strictly before the wake cycle a full
    /// [`CeEngine::tick`] provably reduces to [`CeEngine::skip`]`(now, 1)`,
    /// so that is all this does, returning `true`; it returns `false`
    /// when a full tick is due. Only lowered engines take it: the
    /// reference interpreter always full-ticks, so it catches a wake
    /// cycle set too late.
    #[inline]
    pub(crate) fn try_quick_tick(&mut self, now: Cycle, ccbus: &CcBus) -> bool {
        debug_assert!(self.flat.is_some(), "the interpreter never quick-ticks");
        if now >= self.wake {
            return false;
        }
        // A CC-bus grant or release ends a `NEVER` sleep without passing
        // through `receive`: peek (non-consuming) and full-tick the cycle
        // it is visible — the cycle the polling stepper would consume
        // it. Only a CE that asked is ever posted a grant or release, so
        // the peeks are false in every other wait.
        match self.state {
            CeState::AwaitClusterBarrier if ccbus.peek_release(self.ce_in_cluster) => {
                return false;
            }
            CeState::AwaitCounter if ccbus.peek_grant(self.ce_in_cluster) => {
                return false;
            }
            _ => {}
        }
        self.skip(now, 1);
        true
    }

    /// The wake cycle after a full tick at `now`: the earliest cycle at
    /// which a tick can do more than credit one cycle of attribution,
    /// never earlier than `now + 1`. [`Cycle::NEVER`] means the engine
    /// sleeps until a reply lands ([`CeEngine::receive`] clears the wake
    /// cycle) or the CC bus posts it a grant or a release (which
    /// [`CeEngine::try_quick_tick`] peeks, and which the bus reports as a
    /// next-cycle event while untaken). Every other sleep ends at a cycle
    /// known now: a stall's deadline, a vector start-up or fill, a
    /// poll's backoff, a retry timeout, a prefetch page resume or a
    /// VM-stall end. Posted self-scheduling values and fetch elections
    /// have no peek, so a CE waiting on one keeps ticking.
    fn wake_after(&self, now: Cycle, counters: &[CounterDef]) -> Cycle {
        let soon = now + 1;
        if self.pending_pkt.is_some() {
            return soon; // retries injection every cycle
        }
        let at = |c: Cycle| c.max(soon);
        let on = |ready: bool| if ready { soon } else { Cycle::NEVER };
        let own = match self.state {
            // Only idle cycles remain — except retries still draining.
            CeState::Done => Cycle::NEVER,
            // The state does not step while a VM stall lasts.
            _ if now < self.vm_stall_until => self.vm_stall_until,
            CeState::Fetch => soon,
            CeState::Stall { until } => at(until),
            CeState::VectorDirect {
                length,
                issued,
                completed,
                start_at,
                ..
            } => {
                // The next completion matures off the ready queue; more
                // issues need a free miss slot (freed by that same queue)
                // and the end of the start-up ramp.
                let drain = self.direct_ready.front().map_or(Cycle::NEVER, |&c| at(c));
                let issue = if issued < length
                    && self.outstanding_reads < self.cfg.max_outstanding_global
                {
                    at(start_at)
                } else {
                    Cycle::NEVER
                };
                if completed >= length {
                    soon
                } else {
                    drain.min(issue)
                }
            }
            CeState::VectorPref {
                length,
                consumed,
                start_at,
            } => {
                if now < start_at {
                    start_at
                } else {
                    // The next word lands through `receive`.
                    on(consumed >= length || self.pfu.can_consume())
                }
            }
            CeState::VectorGWrite {
                length,
                issued,
                start_at,
                ..
            } => {
                if issued >= length {
                    soon
                } else {
                    at(start_at)
                }
            }
            CeState::VectorCache {
                write,
                length,
                issued,
                last_ready,
                start_at,
                ..
            } => {
                if issued < length {
                    at(start_at) // then contends for a cache bank each cycle
                } else if write {
                    soon
                } else {
                    at(last_ready) // every element issued: the last fill
                }
            }
            CeState::AwaitScalarRead => self.scalar_ready.map_or(Cycle::NEVER, at),
            CeState::AwaitSync => on(self.sync_result.is_some()),
            CeState::AwaitCounter => {
                let FrameKind::SelfSched { counter, .. } = self.cur_kind() else {
                    unreachable!("AwaitCounter without a SelfSched frame");
                };
                match counters[counter] {
                    CounterDef::Cluster { .. } => Cycle::NEVER,
                    CounterDef::Global { .. } => on(self.sync_result.is_some()),
                    CounterDef::GlobalShared { .. } if self.sdoall_awaiting_reply => {
                        on(self.sync_result.is_some())
                    }
                    CounterDef::GlobalShared { .. } => soon,
                }
            }
            CeState::AwaitClusterBarrier => Cycle::NEVER,
            CeState::GlobalBarrier { phase, .. } => match phase {
                GbPhase::PollWait { at: poll } => at(poll),
                GbPhase::AwaitArrive | GbPhase::AwaitPoll => on(self.sync_result.is_some()),
            },
            CeState::AwaitFence => on(self.outstanding_writes == 0),
        };
        if own == soon {
            return soon;
        }
        let fault = self.fault_ctl.as_deref().and_then(|c| c.next_event(now));
        let pfu = match self.state {
            CeState::Done => None, // a finished CE no longer ticks its PFU
            _ => self.pfu.next_event(now),
        };
        own.min(fault.unwrap_or(Cycle::NEVER))
            .min(pfu.unwrap_or(Cycle::NEVER))
    }

    /// One step of lowered execution: the hot vector states mutate in
    /// place (no state-enum copy out and rebuild per element — at one
    /// element per tick the round-trip is real overhead), everything
    /// else falls through to the shared [`CeEngine::step`]. Semantics
    /// are identical to the interpreter's steppers line for line. The
    /// in-place cache arm omits the `vm_check` its stepper makes, so
    /// under the VM model cache streams take the shared stepper.
    fn step_lowered(&mut self, now: Cycle, ctx: &mut CeContext<'_>) -> Step {
        let vm = self.vm_enabled;
        match &mut self.state {
            CeState::Stall { until } => {
                if now >= *until {
                    self.state = CeState::Fetch;
                    Step::Progress
                } else {
                    Step::Blocked
                }
            }
            CeState::VectorCache {
                base,
                stride,
                write,
                length,
                issued,
                last_ready,
                start_at,
            } if !vm => {
                let (write, length) = (*write, *length);
                if *issued >= length && (write || now >= *last_ready) {
                    self.state = CeState::Fetch;
                    return Step::Progress;
                }
                if now >= *start_at && *issued < length {
                    let a = (*base as i64 + i64::from(*issued) * *stride) as u64;
                    let acc = ctx.cache.access(now, self.ce_in_cluster, a, write);
                    match acc {
                        CacheAccess::Ready { at } | CacheAccess::Pending { at } => {
                            // Accepted cache accesses are sampling
                            // candidates like network requests; the
                            // completion stamp carries the
                            // (deterministic) future ready cycle.
                            if let Some(tc) = self.trace_ctl.as_deref_mut() {
                                let id = tc.sample_mem();
                                if id != 0 {
                                    let fill = matches!(acc, CacheAccess::Pending { .. });
                                    tc.stamp(id, hop::ISSUE, class::CACHE, now);
                                    tc.stamp(id, hop::CACHE_DONE, u8::from(fill), at);
                                }
                            }
                            if !write && at > *last_ready {
                                *last_ready = at;
                            }
                            *issued += 1;
                            self.stats.vector_elements += 1;
                        }
                        CacheAccess::Stall => {}
                    }
                    if *issued >= length && write {
                        self.state = CeState::Fetch;
                        return Step::Progress;
                    }
                }
                Step::Blocked
            }
            CeState::VectorPref {
                length,
                consumed,
                start_at,
            } => {
                if now < *start_at {
                    return Step::Blocked;
                }
                if *consumed >= *length {
                    self.state = CeState::Fetch;
                    return Step::Progress;
                }
                if self.pfu.try_consume() {
                    self.stats.vector_elements += 1;
                    *consumed += 1;
                    if *consumed >= *length {
                        self.state = CeState::Fetch;
                        return Step::Progress;
                    }
                }
                Step::Blocked
            }
            _ => self.step(now, ctx),
        }
    }

    fn step(&mut self, now: Cycle, ctx: &mut CeContext<'_>) -> Step {
        match self.state {
            CeState::Done => Step::Blocked,
            CeState::Fetch => self.fetch(now, ctx),
            CeState::Stall { until } => {
                if now >= until {
                    self.state = CeState::Fetch;
                    Step::Progress
                } else {
                    Step::Blocked
                }
            }
            CeState::VectorDirect {
                base,
                stride,
                length,
                issued,
                completed,
                start_at,
                gather,
            } => self.step_vector_direct(
                now, ctx, base, stride, length, issued, completed, start_at, gather,
            ),
            CeState::VectorPref {
                length,
                consumed,
                start_at,
            } => {
                if now < start_at {
                    return Step::Blocked;
                }
                if consumed >= length {
                    self.state = CeState::Fetch;
                    return Step::Progress;
                }
                if self.pfu.try_consume() {
                    self.stats.vector_elements += 1;
                    let consumed = consumed + 1;
                    self.state = if consumed >= length {
                        CeState::Fetch
                    } else {
                        CeState::VectorPref {
                            length,
                            consumed,
                            start_at,
                        }
                    };
                    if consumed >= length {
                        return Step::Progress;
                    }
                }
                Step::Blocked
            }
            CeState::VectorGWrite {
                base,
                stride,
                length,
                issued,
                start_at,
                scatter,
            } => self.step_vector_gwrite(now, ctx, base, stride, length, issued, start_at, scatter),
            CeState::VectorCache {
                base,
                stride,
                write,
                length,
                issued,
                last_ready,
                start_at,
            } => self.step_vector_cache(
                now, ctx, base, stride, write, length, issued, last_ready, start_at,
            ),
            CeState::AwaitScalarRead => {
                if let Some(at) = self.scalar_ready {
                    if now >= at {
                        self.scalar_ready = None;
                        self.outstanding_reads = self.outstanding_reads.saturating_sub(1);
                        self.state = CeState::Fetch;
                        return Step::Progress;
                    }
                }
                Step::Blocked
            }
            CeState::AwaitSync => {
                if self.sync_result.take().is_some() {
                    self.state = CeState::Fetch;
                    Step::Progress
                } else {
                    Step::Blocked
                }
            }
            CeState::AwaitCounter => self.step_await_counter(now, ctx),
            CeState::AwaitClusterBarrier => {
                if let Some(at) = ctx.ccbus.take_release(self.ce_in_cluster) {
                    self.trace_barrier_release(now);
                    self.state = CeState::Stall { until: at };
                    Step::Progress
                } else {
                    Step::Blocked
                }
            }
            CeState::GlobalBarrier {
                barrier,
                epoch,
                phase,
                misses,
            } => self.step_global_barrier(now, ctx, barrier, epoch, phase, misses),
            CeState::AwaitFence => {
                if self.outstanding_writes == 0 {
                    self.state = CeState::Fetch;
                    Step::Progress
                } else {
                    Step::Blocked
                }
            }
        }
    }

    // ---- fetch / dispatch -------------------------------------------------

    fn fetch(&mut self, now: Cycle, ctx: &mut CeContext<'_>) -> Step {
        if self.flat.is_some() {
            return self.fetch_flat(now, ctx);
        }
        let frame = self.frames.last_mut().expect("engine always has a frame");
        if frame.pc >= frame.block.len() {
            return self.end_of_block(now, ctx);
        }
        // Borrow the op through a refcount bump of the block (no per-op
        // deep clone: `Op` can own address expressions and nested blocks).
        let pc = frame.pc;
        let block = Arc::clone(&frame.block);
        self.dispatch(now, ctx, &block[pc])
    }

    /// Fetch and dispatch from the compiled micro-op stream. Mirrors
    /// [`CeEngine::dispatch`] exactly — the same blocking conditions, the
    /// same packets and state transitions on the same cycles — with
    /// control flow resolved through flat indices instead of the frame
    /// tree, and fused timed runs charged as a single stall.
    fn fetch_flat(&mut self, now: Cycle, ctx: &mut CeContext<'_>) -> Step {
        let flat = self.flat.as_ref().expect("flat fetch without FlatCtl");
        let Some(&uop) = flat.prog.uops().get(flat.pc as usize) else {
            // Past the end of the root stream: program complete (loop
            // frames always branch back before their end markers).
            self.state = CeState::Done;
            return Step::Progress;
        };
        match uop {
            UOp::TimedRun {
                cycles,
                flops,
                elements,
            } => {
                self.advance_pc();
                self.stats.flops += flops;
                self.stats.vector_elements += elements;
                self.state = CeState::Stall {
                    until: now + cycles,
                };
                Step::Progress
            }
            UOp::ScalarGlobalRead { addr } => {
                if self.pending_pkt.is_some() {
                    return Step::Blocked;
                }
                let a = self.flat_addr(addr);
                if self.vm_check(now, ctx, a) {
                    return Step::Blocked;
                }
                self.advance_pc();
                self.outstanding_reads += 1;
                let pkt = Packet::read_request(
                    module_of(a, self.modules).0,
                    MemRequest {
                        ce: self.id,
                        kind: RequestKind::Read,
                        addr: a,
                        stream: Stream::Scalar,
                        issued: now,
                        seq: 0,
                        nacked: false,
                        trace: 0,
                    },
                );
                self.queue_pkt(now, ctx, pkt);
                self.state = CeState::AwaitScalarRead;
                Step::Progress
            }
            UOp::ScalarGlobalWrite { addr } => {
                if self.pending_pkt.is_some() {
                    return Step::Blocked;
                }
                let a = self.flat_addr(addr);
                if self.vm_check(now, ctx, a) {
                    return Step::Blocked;
                }
                self.advance_pc();
                self.outstanding_writes += 1;
                let pkt = Packet::write_request(
                    module_of(a, self.modules).0,
                    MemRequest {
                        ce: self.id,
                        kind: RequestKind::Write,
                        addr: a,
                        stream: Stream::WriteAck,
                        issued: now,
                        seq: 0,
                        nacked: false,
                        trace: 0,
                    },
                );
                self.queue_pkt(now, ctx, pkt);
                self.state = CeState::Stall { until: now + 1 };
                Step::Progress
            }
            UOp::VecPref { length, flops } => {
                self.advance_pc();
                self.stats.flops += flops;
                self.state = CeState::VectorPref {
                    length,
                    consumed: 0,
                    start_at: now + u64::from(self.cfg.vector_startup),
                };
                Step::Progress
            }
            UOp::VecDirect {
                addr,
                stride,
                length,
                flops,
                gather,
            } => {
                self.advance_pc();
                self.stats.flops += flops;
                self.state = CeState::VectorDirect {
                    base: self.flat_addr(addr),
                    stride,
                    length,
                    issued: 0,
                    completed: 0,
                    start_at: now + u64::from(self.cfg.vector_startup),
                    gather,
                };
                Step::Progress
            }
            UOp::VecGWrite {
                addr,
                stride,
                length,
                flops,
                scatter,
            } => {
                self.advance_pc();
                self.stats.flops += flops;
                self.state = CeState::VectorGWrite {
                    base: self.flat_addr(addr),
                    stride,
                    length,
                    issued: 0,
                    start_at: now + u64::from(self.cfg.vector_startup),
                    scatter,
                };
                Step::Progress
            }
            UOp::VecCache {
                addr,
                stride,
                length,
                flops,
                write,
            } => {
                self.advance_pc();
                self.stats.flops += flops;
                let start_at = now + u64::from(self.cfg.vector_startup);
                self.state = CeState::VectorCache {
                    base: self.flat_addr(addr),
                    stride,
                    write,
                    length,
                    issued: 0,
                    last_ready: start_at,
                    start_at,
                };
                Step::Progress
            }
            UOp::PrefetchArm { length, stride } => {
                self.advance_pc();
                self.pfu.arm(length, stride);
                self.state = CeState::Stall { until: now + 1 };
                Step::Progress
            }
            UOp::PrefetchFire { base } => {
                let a = self.flat_addr(base);
                if self.vm_check(now, ctx, a) {
                    return Step::Blocked;
                }
                self.advance_pc();
                self.pfu.fire(now, a);
                self.state = CeState::Stall { until: now + 1 };
                Step::Progress
            }
            UOp::ArmFire {
                length,
                stride,
                base,
            } => {
                if !self.flat.as_ref().expect("flat").fire_pending {
                    // Arm phase: the fused slot re-executes for the fire.
                    self.pfu.arm(length, stride);
                    self.flat.as_mut().expect("flat").fire_pending = true;
                    self.state = CeState::Stall { until: now + 1 };
                    return Step::Progress;
                }
                let a = self.flat_addr(base);
                if self.vm_check(now, ctx, a) {
                    return Step::Blocked;
                }
                let flat = self.flat.as_mut().expect("flat");
                flat.fire_pending = false;
                flat.pc += 1;
                self.pfu.fire(now, a);
                self.state = CeState::Stall { until: now + 1 };
                Step::Progress
            }
            UOp::PrefetchRewind => {
                self.advance_pc();
                self.pfu.rewind();
                self.state = CeState::Stall { until: now + 1 };
                Step::Progress
            }
            UOp::EnterRepeat { count, end } => {
                let flat = self.flat.as_mut().expect("flat");
                if count == 0 {
                    flat.pc = end + 1;
                    return Step::Progress;
                }
                let head = flat.pc + 1;
                flat.frames.push(LFrame {
                    head,
                    end,
                    kind: FrameKind::Repeat { remaining: count },
                });
                flat.pc = head;
                self.indices.push(0);
                Step::Progress
            }
            UOp::LoopEnd => {
                let flat = self.flat.as_mut().expect("flat");
                let fr = flat.frames.last_mut().expect("flat loop frame");
                let FrameKind::Repeat { remaining } = &mut fr.kind else {
                    unreachable!("LoopEnd on non-repeat frame");
                };
                *remaining -= 1;
                let again = *remaining > 0;
                let target = if again { fr.head } else { fr.end + 1 };
                flat.pc = target;
                if again {
                    *self.indices.last_mut().expect("loop index") += 1;
                } else {
                    flat.frames.pop();
                    self.indices.pop();
                }
                Step::Progress
            }
            UOp::EnterSelfSched {
                counter,
                limit,
                chunk,
                dispatch_cost,
                end,
            } => {
                if limit == 0 {
                    self.flat.as_mut().expect("flat").pc = end + 1;
                    return Step::Progress;
                }
                let epoch = self.next_epoch(counter as usize);
                let flat = self.flat.as_mut().expect("flat");
                let head = flat.pc + 1;
                flat.frames.push(LFrame {
                    head,
                    end,
                    kind: FrameKind::SelfSched {
                        counter: counter as usize,
                        limit,
                        chunk,
                        dispatch_cost,
                        epoch,
                        chunk_end: 0,
                    },
                });
                flat.pc = head;
                self.indices.push(0);
                self.request_chunk(now, ctx)
            }
            UOp::SelfSchedEnd => {
                let flat = self.flat.as_ref().expect("flat");
                let fr = flat.frames.last().expect("flat loop frame");
                let FrameKind::SelfSched { chunk_end, .. } = fr.kind else {
                    unreachable!("SelfSchedEnd on non-selfsched frame");
                };
                let head = fr.head;
                let cur = *self.indices.last().expect("loop index");
                if cur + 1 < chunk_end {
                    self.flat.as_mut().expect("flat").pc = head;
                    *self.indices.last_mut().expect("loop index") += 1;
                    Step::Progress
                } else {
                    self.request_chunk(now, ctx)
                }
            }
            UOp::Barrier { barrier } => self.dispatch_barrier(now, ctx, barrier as usize),
            UOp::SyncOp { addr, instr } => {
                if self.pending_pkt.is_some() {
                    return Step::Blocked;
                }
                self.advance_pc();
                let a = self.flat_addr(addr);
                self.send_sync(now, ctx, a, instr);
                self.state = CeState::AwaitSync;
                Step::Progress
            }
            UOp::Fence => {
                self.advance_pc();
                self.state = CeState::AwaitFence;
                Step::Progress
            }
            UOp::PostEvent { tag } => {
                self.advance_pc();
                // Tag layout: caller tag in the high bits, CE id low.
                ctx.tracer.post(now, (tag << 8) | self.id.0 as u32);
                self.state = CeState::Stall { until: now + 1 };
                Step::Progress
            }
        }
    }

    fn end_of_block(&mut self, now: Cycle, ctx: &mut CeContext<'_>) -> Step {
        let frame = self.frames.last_mut().expect("frame");
        match &mut frame.kind {
            FrameKind::Root => {
                self.state = CeState::Done;
                Step::Progress
            }
            FrameKind::Repeat { remaining } => {
                *remaining -= 1;
                if *remaining > 0 {
                    frame.pc = 0;
                    *self.indices.last_mut().expect("loop index") += 1;
                } else {
                    self.frames.pop();
                    self.indices.pop();
                }
                Step::Progress
            }
            FrameKind::SelfSched { chunk_end, .. } => {
                let cur = *self.indices.last().expect("loop index");
                if cur + 1 < *chunk_end {
                    frame.pc = 0;
                    *self.indices.last_mut().expect("loop index") += 1;
                    Step::Progress
                } else {
                    self.request_chunk(now, ctx)
                }
            }
        }
    }

    /// Issue the next-chunk request for the top (SelfSched) frame.
    fn request_chunk(&mut self, now: Cycle, ctx: &mut CeContext<'_>) -> Step {
        let FrameKind::SelfSched {
            counter,
            limit,
            chunk,
            epoch,
            ..
        } = self.cur_kind()
        else {
            unreachable!("request_chunk on non-selfsched frame");
        };
        match ctx.counters[counter] {
            CounterDef::Cluster { slot, .. } => {
                ctx.ccbus
                    .request_counter(self.ce_in_cluster, slot, epoch, chunk, limit);
                self.state = CeState::AwaitCounter;
                Step::Progress
            }
            CounterDef::Global { base_addr } => {
                if self.pending_pkt.is_some() {
                    return Step::Blocked;
                }
                let addr = base_addr + epoch;
                let instr = SyncInstr {
                    test: Some((Rel::Lt, limit.min(i32::MAX as u64) as i32)),
                    op: SyncOpKind::Add(chunk as i32),
                };
                self.send_sync(now, ctx, addr, instr);
                self.state = CeState::AwaitCounter;
                Step::Progress
            }
            CounterDef::GlobalShared { .. } => {
                // The take/fetch/post protocol runs in AwaitCounter.
                self.state = CeState::AwaitCounter;
                Step::Progress
            }
        }
    }

    fn step_await_counter(&mut self, now: Cycle, ctx: &mut CeContext<'_>) -> Step {
        // Either a bus grant or a network sync reply resolves the wait.
        let frame_kind = self.cur_kind();
        let FrameKind::SelfSched {
            counter,
            limit,
            chunk,
            dispatch_cost,
            ..
        } = frame_kind
        else {
            unreachable!("AwaitCounter without a SelfSched frame");
        };
        let got: Option<u64> = match ctx.counters[counter] {
            CounterDef::Cluster { .. } => ctx.ccbus.take_grant(self.ce_in_cluster),
            CounterDef::Global { .. } => self.sync_result.take().map(|o| o.old as u64),
            CounterDef::GlobalShared { base_addr } => {
                let FrameKind::SelfSched { epoch, .. } = self.cur_kind() else {
                    unreachable!();
                };
                // 1. A fetch we own: post the reply to the cluster bus.
                if self.sdoall_awaiting_reply {
                    let Some(out) = self.sync_result.take() else {
                        return Step::Blocked;
                    };
                    self.sdoall_awaiting_reply = false;
                    ctx.ccbus.sdoall_post(counter, epoch, out.old as u64);
                }
                // 2. An election we owe a fetch for.
                if self.sdoall_must_fetch {
                    if self.pending_pkt.is_some() {
                        return Step::Blocked;
                    }
                    let addr = base_addr + epoch;
                    let instr = SyncInstr {
                        test: Some((Rel::Lt, limit.min(i32::MAX as u64) as i32)),
                        op: SyncOpKind::Add(chunk as i32),
                    };
                    self.send_sync(now, ctx, addr, instr);
                    self.sdoall_must_fetch = false;
                    self.sdoall_awaiting_reply = true;
                    return Step::Progress;
                }
                // 3. Take the cluster's next value (or get elected).
                match ctx.ccbus.sdoall_take(
                    self.ce_in_cluster,
                    counter,
                    epoch,
                    self.ces_per_cluster,
                ) {
                    crate::ccbus::SdoallTake::Ready(v) => Some(v),
                    crate::ccbus::SdoallTake::Fetch => {
                        self.sdoall_must_fetch = true;
                        return Step::Progress;
                    }
                    crate::ccbus::SdoallTake::Wait => return Step::Blocked,
                }
            }
        };
        let Some(v) = got else {
            let _ = now;
            return Step::Blocked;
        };
        if v >= limit {
            self.loop_exit();
            self.state = CeState::Fetch;
            return Step::Progress;
        }
        let end = (v + u64::from(chunk)).min(limit);
        if let FrameKind::SelfSched { chunk_end, .. } = self.cur_kind_mut() {
            *chunk_end = end;
        }
        *self.indices.last_mut().expect("loop index") = v;
        self.loop_restart();
        self.state = if dispatch_cost > 0 {
            CeState::Stall {
                until: now + u64::from(dispatch_cost),
            }
        } else {
            CeState::Fetch
        };
        Step::Progress
    }

    fn dispatch(&mut self, now: Cycle, ctx: &mut CeContext<'_>, op: &Op) -> Step {
        match op {
            Op::ScalarWork { cycles } => {
                self.advance_pc();
                self.state = CeState::Stall {
                    until: now + u64::from((*cycles).max(1)),
                };
                Step::Progress
            }
            Op::ScalarFlops {
                flops,
                cycles_per_flop,
            } => {
                self.advance_pc();
                self.stats.flops += u64::from(*flops);
                self.state = CeState::Stall {
                    until: now + u64::from(*flops) * u64::from((*cycles_per_flop).max(1)),
                };
                Step::Progress
            }
            Op::ScalarGlobalRead { addr } => {
                if self.pending_pkt.is_some() {
                    return Step::Blocked;
                }
                let a = addr.eval(&self.indices);
                if self.vm_check(now, ctx, a) {
                    return Step::Blocked;
                }
                self.advance_pc();
                self.outstanding_reads += 1;
                let pkt = Packet::read_request(
                    module_of(a, self.modules).0,
                    MemRequest {
                        ce: self.id,
                        kind: RequestKind::Read,
                        addr: a,
                        stream: Stream::Scalar,
                        issued: now,
                        seq: 0,
                        nacked: false,
                        trace: 0,
                    },
                );
                self.queue_pkt(now, ctx, pkt);
                self.state = CeState::AwaitScalarRead;
                Step::Progress
            }
            Op::ScalarGlobalWrite { addr } => {
                if self.pending_pkt.is_some() {
                    return Step::Blocked;
                }
                let a = addr.eval(&self.indices);
                if self.vm_check(now, ctx, a) {
                    return Step::Blocked;
                }
                self.advance_pc();
                self.outstanding_writes += 1;
                let pkt = Packet::write_request(
                    module_of(a, self.modules).0,
                    MemRequest {
                        ce: self.id,
                        kind: RequestKind::Write,
                        addr: a,
                        stream: Stream::WriteAck,
                        issued: now,
                        seq: 0,
                        nacked: false,
                        trace: 0,
                    },
                );
                self.queue_pkt(now, ctx, pkt);
                self.state = CeState::Stall { until: now + 1 };
                Step::Progress
            }
            Op::Vector(v) => self.dispatch_vector(now, v),
            Op::PrefetchArm { length, stride } => {
                self.advance_pc();
                self.pfu.arm(*length, *stride);
                self.state = CeState::Stall { until: now + 1 };
                Step::Progress
            }
            Op::PrefetchFire { base } => {
                let a = base.eval(&self.indices);
                if self.vm_check(now, ctx, a) {
                    return Step::Blocked;
                }
                self.advance_pc();
                self.pfu.fire(now, a);
                self.state = CeState::Stall { until: now + 1 };
                Step::Progress
            }
            Op::PrefetchRewind => {
                self.advance_pc();
                self.pfu.rewind();
                self.state = CeState::Stall { until: now + 1 };
                Step::Progress
            }
            Op::Repeat { count, body } => {
                self.advance_pc();
                if *count == 0 {
                    return Step::Progress;
                }
                self.frames.push(Frame {
                    block: Arc::clone(body),
                    pc: 0,
                    kind: FrameKind::Repeat { remaining: *count },
                });
                self.indices.push(0);
                Step::Progress
            }
            Op::SelfSchedLoop {
                counter,
                limit,
                chunk,
                dispatch_cost,
                body,
            } => {
                self.advance_pc();
                if *limit == 0 {
                    return Step::Progress;
                }
                let epoch = self.next_epoch(counter.0);
                self.frames.push(Frame {
                    block: Arc::clone(body),
                    pc: 0,
                    kind: FrameKind::SelfSched {
                        counter: counter.0,
                        limit: *limit,
                        chunk: *chunk,
                        dispatch_cost: *dispatch_cost,
                        epoch,
                        chunk_end: 0,
                    },
                });
                self.indices.push(0);
                self.request_chunk(now, ctx)
            }
            Op::Barrier { barrier } => self.dispatch_barrier(now, ctx, barrier.0),
            Op::SyncOp { addr, instr } => {
                if self.pending_pkt.is_some() {
                    return Step::Blocked;
                }
                self.advance_pc();
                let a = addr.eval(&self.indices);
                self.send_sync(now, ctx, a, *instr);
                self.state = CeState::AwaitSync;
                Step::Progress
            }
            Op::Fence => {
                self.advance_pc();
                self.state = CeState::AwaitFence;
                Step::Progress
            }
            Op::PostEvent { tag } => {
                self.advance_pc();
                // Tag layout: caller tag in the high bits, CE id low.
                ctx.tracer.post(now, (*tag << 8) | self.id.0 as u32);
                self.state = CeState::Stall { until: now + 1 };
                Step::Progress
            }
        }
    }

    fn dispatch_vector(&mut self, now: Cycle, v: &VectorOp) -> Step {
        self.advance_pc();
        let start_at = now + u64::from(self.cfg.vector_startup);
        self.stats.flops += u64::from(v.flops_per_element) * u64::from(v.length);
        match &v.operand {
            MemOperand::None => {
                self.stats.vector_elements += u64::from(v.length);
                self.state = CeState::Stall {
                    until: start_at + u64::from(v.length),
                };
            }
            MemOperand::Prefetched => {
                self.state = CeState::VectorPref {
                    length: v.length,
                    consumed: 0,
                    start_at,
                };
            }
            MemOperand::GlobalRead { addr, stride } => {
                self.state = CeState::VectorDirect {
                    base: addr.eval(&self.indices),
                    stride: *stride,
                    length: v.length,
                    issued: 0,
                    completed: 0,
                    start_at,
                    gather: false,
                };
            }
            MemOperand::GlobalGather { addr } => {
                self.state = CeState::VectorDirect {
                    base: addr.eval(&self.indices),
                    stride: 1,
                    length: v.length,
                    issued: 0,
                    completed: 0,
                    start_at,
                    gather: true,
                };
            }
            MemOperand::GlobalWrite { addr, stride } => {
                self.state = CeState::VectorGWrite {
                    base: addr.eval(&self.indices),
                    stride: *stride,
                    length: v.length,
                    issued: 0,
                    start_at,
                    scatter: false,
                };
            }
            MemOperand::GlobalScatter { addr } => {
                self.state = CeState::VectorGWrite {
                    base: addr.eval(&self.indices),
                    stride: 1,
                    length: v.length,
                    issued: 0,
                    start_at,
                    scatter: true,
                };
            }
            MemOperand::ClusterRead { addr, stride } => {
                self.state = CeState::VectorCache {
                    base: addr.eval(&self.indices),
                    stride: *stride,
                    write: false,
                    length: v.length,
                    issued: 0,
                    last_ready: start_at,
                    start_at,
                };
            }
            MemOperand::ClusterWrite { addr, stride } => {
                self.state = CeState::VectorCache {
                    base: addr.eval(&self.indices),
                    stride: *stride,
                    write: true,
                    length: v.length,
                    issued: 0,
                    last_ready: start_at,
                    start_at,
                };
            }
        }
        Step::Progress
    }

    fn dispatch_barrier(&mut self, now: Cycle, ctx: &mut CeContext<'_>, barrier: usize) -> Step {
        let def = ctx.barriers[barrier];
        match def.scope {
            BarrierScope::Cluster(_) => {
                let epoch = self.next_barrier_use(barrier);
                self.advance_pc();
                self.trace_barrier_arrive(now, barrier, epoch);
                ctx.ccbus.arrive_barrier(
                    now,
                    self.ce_in_cluster,
                    def.base_addr as usize,
                    epoch,
                    def.expected,
                );
                self.state = CeState::AwaitClusterBarrier;
                Step::Progress
            }
            BarrierScope::Global => {
                if self.pending_pkt.is_some() {
                    return Step::Blocked;
                }
                let epoch = self.next_barrier_use(barrier);
                self.advance_pc();
                self.trace_barrier_arrive(now, barrier, epoch);
                let addr = def.base_addr + epoch;
                self.send_sync(now, ctx, addr, SyncInstr::fetch_add(1));
                self.state = CeState::GlobalBarrier {
                    barrier,
                    epoch,
                    phase: GbPhase::AwaitArrive,
                    misses: 0,
                };
                Step::Progress
            }
        }
    }

    fn step_global_barrier(
        &mut self,
        now: Cycle,
        ctx: &mut CeContext<'_>,
        barrier: usize,
        epoch: u64,
        phase: GbPhase,
        misses: u32,
    ) -> Step {
        let def = ctx.barriers[barrier];
        // Exponential backoff: early polls are prompt, long waits back off
        // so spinning CEs do not saturate the barrier's memory module.
        let backoff = |m: u32| -> u64 {
            let base = u64::from(self.cfg.barrier_poll_cycles);
            (base << m.min(7)).min(2048)
        };
        match phase {
            GbPhase::AwaitArrive => {
                let Some(out) = self.sync_result.take() else {
                    return Step::Blocked;
                };
                if out.old + 1 >= def.expected as i32 {
                    // Last arriver: barrier complete.
                    self.trace_barrier_release(now);
                    self.state = CeState::Stall { until: now + 1 };
                } else {
                    // Estimate remaining arrivals to start with a matched
                    // backoff: nearly-complete barriers poll promptly.
                    let missing = (def.expected as i32 - (out.old + 1)).max(1) as u32;
                    let start = if missing > 4 { 3 } else { 0 };
                    self.state = CeState::GlobalBarrier {
                        barrier,
                        epoch,
                        phase: GbPhase::PollWait {
                            at: now + backoff(start),
                        },
                        misses: start,
                    };
                }
                Step::Progress
            }
            GbPhase::PollWait { at } => {
                if now < at || self.pending_pkt.is_some() {
                    return Step::Blocked;
                }
                let addr = def.base_addr + epoch;
                self.send_sync(now, ctx, addr, SyncInstr::test_ge_read(def.expected as i32));
                self.state = CeState::GlobalBarrier {
                    barrier,
                    epoch,
                    phase: GbPhase::AwaitPoll,
                    misses,
                };
                Step::Progress
            }
            GbPhase::AwaitPoll => {
                let Some(out) = self.sync_result.take() else {
                    return Step::Blocked;
                };
                if out.passed {
                    self.trace_barrier_release(now);
                    self.state = CeState::Stall { until: now + 1 };
                } else {
                    self.state = CeState::GlobalBarrier {
                        barrier,
                        epoch,
                        phase: GbPhase::PollWait {
                            at: now + backoff(misses + 1),
                        },
                        misses: misses + 1,
                    };
                }
                Step::Progress
            }
        }
    }

    // ---- vector element stepping ------------------------------------------

    /// Pseudo-random element address for gather/scatter: deterministic
    /// hash of (base, element) spread over a 64K-word window.
    fn scatter_addr(base: u64, elem: u32) -> u64 {
        let h = (base ^ (u64::from(elem) << 17)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        base + (h >> 40) % 65_536
    }

    #[allow(clippy::too_many_arguments)]
    fn step_vector_direct(
        &mut self,
        now: Cycle,
        ctx: &mut CeContext<'_>,
        base: u64,
        stride: i64,
        length: u32,
        mut issued: u32,
        mut completed: u32,
        start_at: Cycle,
        gather: bool,
    ) -> Step {
        // Collect completions that have matured.
        while let Some(&at) = self.direct_ready.front() {
            if at <= now {
                self.direct_ready.pop_front();
                completed += 1;
                self.outstanding_reads = self.outstanding_reads.saturating_sub(1);
                self.stats.vector_elements += 1;
            } else {
                break;
            }
        }
        if completed >= length {
            self.state = CeState::Fetch;
            return Step::Progress;
        }
        if now >= start_at
            && issued < length
            && self.outstanding_reads < self.cfg.max_outstanding_global
            && self.pending_pkt.is_none()
        {
            let a = if gather {
                Self::scatter_addr(base, issued)
            } else {
                (base as i64 + i64::from(issued) * stride) as u64
            };
            if self.vm_check(now, ctx, a) {
                self.state = CeState::VectorDirect {
                    base,
                    stride,
                    length,
                    issued,
                    completed,
                    start_at,
                    gather,
                };
                return Step::Blocked;
            }
            self.outstanding_reads += 1;
            let pkt = Packet::read_request(
                module_of(a, self.modules).0,
                MemRequest {
                    ce: self.id,
                    kind: RequestKind::Read,
                    addr: a,
                    stream: Stream::Direct { elem: issued },
                    issued: now,
                    seq: 0,
                    nacked: false,
                    trace: 0,
                },
            );
            self.queue_pkt(now, ctx, pkt);
            issued += 1;
        }
        self.state = CeState::VectorDirect {
            base,
            stride,
            length,
            issued,
            completed,
            start_at,
            gather,
        };
        Step::Blocked
    }

    #[allow(clippy::too_many_arguments)]
    fn step_vector_gwrite(
        &mut self,
        now: Cycle,
        ctx: &mut CeContext<'_>,
        base: u64,
        stride: i64,
        length: u32,
        mut issued: u32,
        start_at: Cycle,
        scatter: bool,
    ) -> Step {
        if issued >= length {
            self.state = CeState::Fetch;
            return Step::Progress;
        }
        if now >= start_at && self.pending_pkt.is_none() {
            let a = if scatter {
                Self::scatter_addr(base, issued)
            } else {
                (base as i64 + i64::from(issued) * stride) as u64
            };
            if self.vm_check(now, ctx, a) {
                self.state = CeState::VectorGWrite {
                    base,
                    stride,
                    length,
                    issued,
                    start_at,
                    scatter,
                };
                return Step::Blocked;
            }
            self.outstanding_writes += 1;
            let pkt = Packet::write_request(
                module_of(a, self.modules).0,
                MemRequest {
                    ce: self.id,
                    kind: RequestKind::Write,
                    addr: a,
                    stream: Stream::WriteAck,
                    issued: now,
                    seq: 0,
                    nacked: false,
                    trace: 0,
                },
            );
            self.queue_pkt(now, ctx, pkt);
            issued += 1;
            self.stats.vector_elements += 1;
            if issued >= length {
                self.state = CeState::Fetch;
                return Step::Progress;
            }
        }
        self.state = CeState::VectorGWrite {
            base,
            stride,
            length,
            issued,
            start_at,
            scatter,
        };
        Step::Blocked
    }

    #[allow(clippy::too_many_arguments)]
    fn step_vector_cache(
        &mut self,
        now: Cycle,
        ctx: &mut CeContext<'_>,
        base: u64,
        stride: i64,
        write: bool,
        length: u32,
        mut issued: u32,
        mut last_ready: Cycle,
        start_at: Cycle,
    ) -> Step {
        if issued >= length && (write || now >= last_ready) {
            self.state = CeState::Fetch;
            return Step::Progress;
        }
        if now >= start_at && issued < length {
            let a = (base as i64 + i64::from(issued) * stride) as u64;
            if self.vm_check(now, ctx, a) {
                self.state = CeState::VectorCache {
                    base,
                    stride,
                    write,
                    length,
                    issued,
                    last_ready,
                    start_at,
                };
                return Step::Blocked;
            }
            let acc = ctx.cache.access(now, self.ce_in_cluster, a, write);
            match acc {
                CacheAccess::Ready { at } | CacheAccess::Pending { at } => {
                    // Accepted cache accesses are sampling candidates like
                    // network requests; the completion stamp carries the
                    // (deterministic) future ready cycle.
                    if let Some(tc) = self.trace_ctl.as_deref_mut() {
                        let id = tc.sample_mem();
                        if id != 0 {
                            let fill = matches!(acc, CacheAccess::Pending { .. });
                            tc.stamp(id, hop::ISSUE, class::CACHE, now);
                            tc.stamp(id, hop::CACHE_DONE, u8::from(fill), at);
                        }
                    }
                    if !write && at > last_ready {
                        last_ready = at;
                    }
                    issued += 1;
                    self.stats.vector_elements += 1;
                }
                CacheAccess::Stall => {}
            }
            if issued >= length && write {
                self.state = CeState::Fetch;
                return Step::Progress;
            }
        }
        self.state = CeState::VectorCache {
            base,
            stride,
            write,
            length,
            issued,
            last_ready,
            start_at,
        };
        Step::Blocked
    }

    // ---- helpers -----------------------------------------------------------

    fn advance_pc(&mut self) {
        match &mut self.flat {
            Some(f) => f.pc += 1,
            None => self.frames.last_mut().expect("frame").pc += 1,
        }
    }

    /// The innermost loop frame's kind — from the flat stack when running
    /// lowered, from the interpreter's frame tree otherwise.
    fn cur_kind(&self) -> FrameKind {
        match &self.flat {
            Some(f) => f.frames.last().expect("flat loop frame").kind,
            None => self.frames.last().expect("frame").kind,
        }
    }

    fn cur_kind_mut(&mut self) -> &mut FrameKind {
        match &mut self.flat {
            Some(f) => &mut f.frames.last_mut().expect("flat loop frame").kind,
            None => &mut self.frames.last_mut().expect("frame").kind,
        }
    }

    /// Leave the innermost loop: pop its frame and loop index and (flat)
    /// jump past the loop's end marker.
    fn loop_exit(&mut self) {
        match &mut self.flat {
            Some(f) => {
                let fr = f.frames.pop().expect("flat loop frame");
                f.pc = fr.end + 1;
            }
            None => {
                self.frames.pop();
            }
        }
        self.indices.pop();
    }

    /// Restart the innermost loop body (next self-scheduled chunk).
    fn loop_restart(&mut self) {
        match &mut self.flat {
            Some(f) => f.pc = f.frames.last().expect("flat loop frame").head,
            None => self.frames.last_mut().expect("frame").pc = 0,
        }
    }

    /// Evaluate an interned address expression under the loop indices.
    fn flat_addr(&self, idx: u32) -> u64 {
        self.flat
            .as_ref()
            .expect("flat addr without FlatCtl")
            .prog
            .addr(idx)
            .eval(&self.indices)
    }

    /// Take and advance the next epoch for `counter`.
    fn next_epoch(&mut self, counter: usize) -> u64 {
        if self.counter_epochs.len() <= counter {
            self.counter_epochs.resize(counter + 1, 0);
        }
        let e = self.counter_epochs[counter];
        self.counter_epochs[counter] += 1;
        e
    }

    /// Sample a barrier episode at arrival. A sampled episode's id is
    /// shared by every participating CE (it is derived from the barrier
    /// index and epoch alone) and is carried by the arrival/poll sync ops
    /// issued while the episode is open.
    fn trace_barrier_arrive(&mut self, now: Cycle, barrier: usize, epoch: u64) {
        if let Some(tc) = self.trace_ctl.as_deref_mut() {
            if let Some(id) = tc.sample_barrier(barrier, epoch) {
                tc.stamp(id, hop::BAR_ARRIVE, 0, now);
                tc.episode = Some(id);
            }
        }
    }

    /// Close the open barrier episode, if any, at the cycle this CE
    /// observed the release.
    fn trace_barrier_release(&mut self, now: Cycle) {
        if let Some(tc) = self.trace_ctl.as_deref_mut() {
            if let Some(id) = tc.episode.take() {
                tc.stamp(id, hop::BAR_RELEASE, 0, now);
            }
        }
    }

    /// Drain this engine's trace stamps (controller, then prefetch unit):
    /// `(events, overflow drops)`.
    pub(crate) fn drain_trace(&mut self) -> (Vec<TraceEvent>, u64) {
        let (mut ev, mut dropped) = match self.trace_ctl.as_deref_mut() {
            Some(tc) => (
                std::mem::take(&mut tc.buf.events),
                std::mem::replace(&mut tc.buf.dropped, 0),
            ),
            None => (Vec::new(), 0),
        };
        let (mut pev, pd) = self.pfu.drain_trace();
        ev.append(&mut pev);
        dropped += pd;
        (ev, dropped)
    }

    /// Take and advance the use count for `barrier`.
    fn next_barrier_use(&mut self, barrier: usize) -> u64 {
        if self.barrier_uses.len() <= barrier {
            self.barrier_uses.resize(barrier + 1, 0);
        }
        let e = self.barrier_uses[barrier];
        self.barrier_uses[barrier] += 1;
        e
    }

    fn queue_pkt(&mut self, now: Cycle, ctx: &mut CeContext<'_>, mut pkt: Packet) {
        debug_assert!(self.pending_pkt.is_none());
        // Journey sampling — before fault tracking, so a tracked packet
        // (and therefore every resend of it) carries its journey id.
        // Inside a sampled barrier episode every sync op (the arrival and
        // the polls) joins the episode's journey instead of rolling its
        // own sample.
        if let Some(tc) = self.trace_ctl.as_deref_mut() {
            if let Payload::Request(req) = &mut pkt.payload {
                if req.trace == 0 && !matches!(req.stream, Stream::Prefetch { .. }) {
                    let (id, cls) = match (tc.episode, &req.stream) {
                        (Some(ep), Stream::Sync) => (ep, class::BARRIER),
                        _ => {
                            let cls = match req.stream {
                                Stream::Scalar => class::SCALAR,
                                Stream::WriteAck => class::WRITE,
                                Stream::Sync => class::SYNC,
                                Stream::Direct { .. } => class::DIRECT,
                                Stream::Prefetch { .. } => unreachable!("filtered above"),
                            };
                            (tc.sample_mem(), cls)
                        }
                    };
                    if id != 0 {
                        req.trace = id;
                        tc.stamp(id, hop::ISSUE, cls, now);
                    }
                }
            }
        }
        // Under a fault plan every engine-issued request gets a sequence
        // number and is tracked to completion; resends arrive here with
        // their number already assigned and must not be re-tracked.
        if let Some(ctl) = self.fault_ctl.as_deref_mut() {
            if let Payload::Request(req) = &mut pkt.payload {
                if req.seq == 0 && !matches!(req.stream, Stream::Prefetch { .. }) {
                    req.seq = self.next_seq;
                    self.next_seq += 1;
                    let seq = req.seq;
                    ctl.track(seq, pkt, now);
                }
            }
        }
        if !ctx.forward.try_inject(self.id.port().0, pkt) {
            self.pending_pkt = Some(pkt);
        }
    }

    fn send_sync(&mut self, now: Cycle, ctx: &mut CeContext<'_>, addr: u64, instr: SyncInstr) {
        let pkt = Packet::sync_request(
            module_of(addr, self.modules).0,
            MemRequest {
                ce: self.id,
                kind: RequestKind::Sync(instr),
                addr,
                stream: Stream::Sync,
                issued: now,
                seq: 0,
                nacked: false,
                trace: 0,
            },
        );
        self.queue_pkt(now, ctx, pkt);
    }

    /// VM address translation; returns true (and charges the stall) on a
    /// TLB miss when VM modelling is enabled. A miss whose PTE is valid in
    /// global memory costs the PTE fetch; a machine-wide first touch is a
    /// hard fault serviced by Xylem.
    fn vm_check(&mut self, now: Cycle, ctx: &mut CeContext<'_>, addr: u64) -> bool {
        if !self.vm_enabled {
            return false;
        }
        let page = page_of(addr, self.page_words);
        if ctx.tlb.touch(page) {
            false
        } else {
            self.stats.tlb_misses += 1;
            let cost = if ctx.page_table.miss(page) {
                u64::from(self.tlb_miss_cycles)
            } else {
                self.stats.page_faults += 1;
                u64::from(self.page_fault_cycles)
            };
            self.stats.vm_cycles += cost;
            self.vm_stall_until = now + cost;
            true
        }
    }
}

codec!(enum FrameKind as "frame kind" {
    0 => Root,
    1 => Repeat { remaining },
    2 => SelfSched { counter, limit, chunk, dispatch_cost, epoch, chunk_end },
});

codec!(enum GbPhase as "barrier phase" {
    0 => AwaitArrive,
    1 => PollWait { at },
    2 => AwaitPoll,
});

codec!(enum CeState as "engine state" {
    0 => Fetch,
    1 => Stall { until },
    2 => VectorDirect { base, stride, length, issued, completed, start_at, gather },
    3 => VectorPref { length, consumed, start_at },
    4 => VectorGWrite { base, stride, length, issued, start_at, scatter },
    5 => VectorCache { base, stride, write, length, issued, last_ready, start_at },
    6 => AwaitScalarRead,
    7 => AwaitSync,
    8 => AwaitCounter,
    9 => AwaitClusterBarrier,
    10 => GlobalBarrier { barrier, epoch, phase, misses },
    11 => AwaitFence,
    12 => Done,
});

codec!(struct LFrame { head, end, kind });

codec!(struct CeStats {
    flops, vector_elements, busy, idle, stall_mem, stall_sync, tlb_misses, page_faults, vm_cycles,
    done_at,
});

// The micro-op stream is the restoring engine's own: it was built from
// the identical program.
snapshot_state! {
    impl FlatCtl as this {
        saved: [pc, frames, fire_pending],
        derived: [prog],
        after_load: check_in_stream,
    }
}

impl FlatCtl {
    /// The program counter and every loop frame must lie inside the
    /// micro-op stream.
    fn check_in_stream(&self, r: &SnapReader) -> SnapResult<()> {
        let n_uops = self.prog.uops().len() as u32;
        if self.pc > n_uops {
            return Err(r.err_mismatch("flat pc beyond the micro-op stream"));
        }
        if self
            .frames
            .iter()
            .any(|fr| fr.head > n_uops || fr.end >= n_uops)
        {
            return Err(r.err_mismatch("flat loop frame beyond the micro-op stream"));
        }
        Ok(())
    }
}

/// The lowered-execution state of an engine, which every snapshotted
/// engine has: reference machines, whose engines run the interpreter,
/// refuse to checkpoint or restore before any engine is reached.
struct Lowered;

impl Field<Option<FlatCtl>> for Lowered {
    fn put(&self, v: &Option<FlatCtl>, w: &mut SnapWriter) {
        v.as_ref()
            .expect("only lowered engines are snapshotted")
            .save(w);
    }

    fn load(&self, v: &mut Option<FlatCtl>, r: &mut SnapReader) -> SnapResult<()> {
        v.as_mut()
            .expect("only lowered engines are restored")
            .load(r)
    }
}

// The program, its micro-op stream and the CE configuration are not
// written: the restoring machine is constructed with the identical
// program. Nor is the interpreter's frame tree, which lowered engines
// never use.
snapshot_state! {
    impl CeEngine as this {
        tag: b"CENG",
        saved: [
            flat: Lowered, wake, indices: Words, state, pfu, pending_pkt, outstanding_reads,
            outstanding_writes, direct_ready, scalar_ready, sync_result, counter_epochs: Words,
            barrier_uses: Words, sdoall_must_fetch, sdoall_awaiting_reply, vm_stall_until,
            fault_ctl: Present("retry controller"), next_seq,
            trace_ctl: Present("journey tracing"), stats,
        ],
        derived: [
            id, cluster, ce_in_cluster, cfg, vm_enabled, page_words, tlb_miss_cycles,
            page_fault_cycles, modules, frames, ces_per_cluster,
        ],
        after_load: check_restored,
    }
}

impl CeEngine {
    /// Check the restored state against the engine's own program: every
    /// loop frame has its index (the steppers push and pop the two
    /// together), and a global barrier in progress is one the program
    /// waits at.
    fn check_restored(&self, r: &SnapReader) -> SnapResult<()> {
        let flat = self
            .flat
            .as_ref()
            .expect("only lowered engines are restored");
        if flat.frames.len() > self.indices.len() {
            return Err(r.err_mismatch("flat loop frames outnumber the loop `indices`"));
        }
        if let CeState::GlobalBarrier { barrier, .. } = self.state {
            let waits_at =
                |u: &UOp| matches!(*u, UOp::Barrier { barrier: b } if b as usize == barrier);
            if !flat.prog.uops().iter().any(waits_at) {
                return Err(r.err_mismatch(
                    "global-barrier state `barrier` is not a barrier of the engine's program",
                ));
            }
        }
        Ok(())
    }
}

/// Sanity: epoch spacing is far beyond any realistic loop re-entry count.
const _: () = assert!(EPOCH_SPACING > 1 << 20);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{BarrierId, ProgramBuilder};

    /// Scalar work inside a loop, then a barrier (id 0).
    fn program() -> Program {
        let mut b = ProgramBuilder::new();
        b.repeat(3, |b| {
            b.scalar(5);
            b.push(Op::Fence);
        });
        b.push(Op::Barrier {
            barrier: BarrierId(0),
        });
        b.build()
    }

    /// A lowered engine for CE 0 of a Cedar machine.
    fn engine() -> CeEngine {
        let cfg = MachineConfig::cedar();
        let program = program();
        let lowered = crate::lower::lower(&program, cfg.ce.vector_startup);
        CeEngine::new(
            CeId(0),
            &cfg,
            Arc::new(cfg.ce.clone()),
            program,
            Some(lowered),
        )
    }

    fn image_of(e: &CeEngine) -> Vec<u8> {
        let mut w = SnapWriter::fragment();
        e.save(&mut w);
        w.into_fragment()
    }

    fn restore(image: &[u8]) -> SnapResult<CeEngine> {
        let mut e = engine();
        e.load(&mut SnapReader::new(image))?;
        Ok(e)
    }

    /// An engine mid-loop and at a global barrier: a loop frame with its
    /// index, wait state, queued reply cycles.
    fn mid_run() -> CeEngine {
        let mut e = engine();
        let flat = e.flat.as_mut().unwrap();
        flat.pc = 1;
        flat.frames.push(LFrame {
            head: 0,
            end: 0,
            kind: FrameKind::Repeat { remaining: 2 },
        });
        e.indices.push(1);
        e.barrier_uses = vec![3];
        e.state = CeState::GlobalBarrier {
            barrier: 0,
            epoch: 2,
            phase: GbPhase::PollWait { at: Cycle(40) },
            misses: 1,
        };
        e.direct_ready.extend([Cycle(7), Cycle(9)]);
        e.stats.busy = 11;
        e
    }

    #[test]
    fn snapshot_codec_round_trip_is_byte_equal() {
        let image = image_of(&mid_run());
        assert_eq!(image_of(&restore(&image).unwrap()), image);
    }

    /// A crafted image with a loop frame but no loop index is refused by
    /// name; it used to reach `expect("loop index")` at the loop end.
    #[test]
    fn snapshot_codec_rejects_frames_without_loop_indices() {
        let mut e = mid_run();
        e.indices.clear();
        let err = restore(&image_of(&e)).unwrap_err();
        assert!(err.0.contains("loop `indices`"), "{}", err.0);
    }

    /// A crafted image waiting at a global barrier the program never
    /// names is refused by name; it used to index past the machine's
    /// barrier table.
    #[test]
    fn snapshot_codec_rejects_a_global_barrier_the_program_lacks() {
        let mut e = mid_run();
        let CeState::GlobalBarrier { barrier, .. } = &mut e.state else {
            unreachable!("mid_run waits at a global barrier");
        };
        *barrier = 7;
        let err = restore(&image_of(&e)).unwrap_err();
        assert!(
            err.0.contains("global-barrier state `barrier`"),
            "{}",
            err.0
        );
    }
}
