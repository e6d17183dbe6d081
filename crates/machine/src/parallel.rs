//! The run loop: one engine, partitioned into one shard or several.
//!
//! The simulated Cedar is four largely independent Alliant clusters that
//! interact only through the omega networks, the global memory and the
//! concurrency control buses — the same decomposition the hardware
//! exploits. The run loop models that decomposition once: the
//! cluster-local work (CE engines, prefetch units, cluster cache and
//! memory, CC bus) lives in [`Shard`]s, the shared components stay on
//! the [`Machine`], and the number of shards is a parameter
//! ([`MachineConfig::num_threads`](crate::config::MachineConfig::num_threads)).
//!
//! * **One shard** holds every cluster and runs on the calling thread.
//!   Its CEs inject straight into the forward network, post straight
//!   into the machine tracer and use the machine-wide page table; every
//!   round is one cycle — shared components, then clusters. No thread,
//!   barrier or staging buffer exists, and the shard's lock is taken
//!   once for the whole run.
//! * **Several shards** run on `std::thread::scope` workers (the
//!   coordinator doubles as shard 0's worker). Their CEs inject into
//!   per-port staging buffers and post into per-shard event buffers,
//!   which the coordinator replays into the real network and tracer in
//!   (cluster, CE) order — and the workers advance their clusters
//!   **several cycles per barrier round** whenever the machine's
//!   conservative lookahead allows it.
//!
//! Everything else — the fault → memory → reverse → forward phase
//! sequence, the event-horizon fold, fast-forward, the watchdog, the
//! timeline, the auto-checkpoint — is the same code on every shard
//! count, written over the shards the coordinator holds between cluster
//! phases.
//!
//! # Lookahead chunking
//!
//! A cluster can only be affected by another cluster through the shared
//! components: a reverse-network delivery is the *only* externally
//! driven input a CE ever sees mid-run. At the start of a round the
//! coordinator therefore derives a **horizon** `H` — a lower bound on
//! the number of upcoming cycles that are certainly delivery-free —
//! from the shared components' states (see DESIGN.md §9 for the
//! derivation). The network is double-clocked, so a packet whose tail
//! word has left its injector can cross *all* switch stages within one
//! cycle: the bounds are word- and service-limited, never
//! stage-limited. `H` is the minimum over the applicable bounds:
//!
//! * reverse network busy → `H = 0` (a delivery may land next cycle);
//! * a busy memory module → `H = gmem.next_event − t0` (a module's
//!   earliest visible action is a reply injection, and a 1-word
//!   write-ack delivers the cycle after it is injected);
//! * forward network busy → `H = service + 2` (module delivery next
//!   cycle, service pickup the cycle after, minimum service time, then
//!   the 1-word reply bound);
//! * always applicable → `H = service + 4` (a fresh CE request staged
//!   at `t0+1` needs an injector-drain cycle and a module-delivery
//!   cycle before the same service-and-reply path).
//!
//! The chunk length `L` is `H` clamped by every event the coordinator
//! must observe on its exact cycle: the utilization-timeline boundary,
//! the next fault-schedule transition, the watchdog's next inspection,
//! the cycle limit, the configured `chunk_cycles` cap, and — the subtle
//! one — per-port injector headroom (below). `L ≤ 1` is a per-cycle
//! round: the shared components run first, so this cycle's replies
//! reach the CEs, and the one cycle of staged traffic is applied right
//! after the cluster phase.
//!
//! For a chunk, each worker runs its clusters `L` cycles back to back,
//! staging every injection with its cycle tag. The coordinator then
//! *replays* the shared components cycle by cycle — memory tick, reverse
//! tick (asserted delivery-free), forward tick, then the staged
//! injections and trace events for that cycle in (cluster, CE) order —
//! so the real networks and memory observe **exactly the call sequence
//! of per-cycle rounds** and every stat, stall charge, fault draw and
//! trace stamp lands where direct injection would put it.
//!
//! # Determinism
//!
//! A run is bit-for-bit the same on every shard count, not merely
//! "equivalent up to reordering". That follows from four facts:
//!
//! 1. **Cluster state is disjoint.** A CE only touches its own cluster's
//!    cache, TLB and CC bus, so shards never share mutable state.
//! 2. **Cross-cluster traffic is per-port.** A CE (and its prefetch unit)
//!    injects only at its own forward-network port, and acceptance
//!    depends only on that port's injector occupancy. Each staging port
//!    ([`PortStage`]) mirrors the occupancy with a shadow ring seeded
//!    from the real injector at the round start and drained one word per
//!    cycle — exactly the real injector's drain rate, which is
//!    guaranteed because the chunk is clamped to the port's stage-queue
//!    headroom (`queue_cap − occupancy`, plus one free cycle when the
//!    ring starts empty), so the real drain can never block mid-chunk.
//! 3. **Within a cycle, injections are invisible.** A cycle moves
//!    network words *before* ticking CEs, so a packet injected during the
//!    CE phase is not observed by anything until the next cycle; applying
//!    it at the replay step instead of mid-phase changes nothing.
//! 4. **Chunks are delivery-free.** The horizon bound guarantees no
//!    reverse-network delivery falls inside a chunk (debug-asserted), so
//!    no cluster input is ever computed from stale shared state.
//!
//! Tracer events posted by CEs are buffered per shard with their cycle
//! tags and merged per replayed cycle in shard order — direct posting's
//! exact order, including capacity drops, which only the machine-level
//! tracer applies. The one model staging cannot reproduce is demand
//! paging, where same-cycle faults from different clusters race for the
//! machine-wide page table; with [`VmConfig::enabled`]
//! (`crate::config::VmConfig::enabled`) set the machine runs as one
//! shard.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::ce::{min_event, CeContext, CeEngine};
use crate::error::{ChunkedContext, HangReport, MachineError, Result};
use crate::machine::{Cluster, Machine, Watchdog, STUCK_SYNC_CHECKS};
use crate::monitor::{EventTracer, Histogrammer};
use crate::network::omega::INJ_CAP;
use crate::network::packet::{Packet, Payload, Stream};
use crate::network::{InjectPort, NetSink, Omega};
use crate::sched::{BarrierDef, CounterDef};
use crate::snapshot::CkptCtl;
use crate::stats::{MachineStats, UtilSample};
use crate::time::Cycle;
use crate::trace::{profiled, region};
use crate::vm::PageTable;

/// A reusable sense-reversing barrier. `std::sync::Barrier` parks and
/// wakes through a mutex/condvar pair, which costs microseconds per wait;
/// at two waits per barrier round that would swamp the cluster work.
/// This one spins briefly and then yields, so it stays cheap both on
/// dedicated cores and on oversubscribed hosts.
struct SpinBarrier {
    members: usize,
    /// Spin iterations before falling back to `yield_now`. Zero when the
    /// host has fewer cores than barrier members: spinning there only
    /// burns the timeslice the straggler needs.
    max_spins: u32,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(members: usize) -> SpinBarrier {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        SpinBarrier {
            members,
            max_spins: if cores >= members { 128 } else { 0 },
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.members {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                if spins < self.max_spins {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Per-worker barrier-wait accounting: wall time spent waiting and the
/// number of waits, read into the host profiler after the run.
type SyncWait = (AtomicU64, AtomicU64); // (total_ns, waits)

/// Wait on `b`, charging the wait's wall time to `acc` when profiling.
#[inline]
fn timed_wait(b: &SpinBarrier, acc: Option<&SyncWait>) {
    match acc {
        Some((ns, waits)) => {
            let t0 = std::time::Instant::now();
            b.wait();
            ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            waits.fetch_add(1, Ordering::Relaxed);
        }
        None => b.wait(),
    }
}

/// A per-port staging buffer standing in for the forward network during
/// the cluster phase of a multi-shard run. It mirrors the port's real
/// injector with a shadow ring of remaining word counts, so acceptance
/// decisions over a whole chunk match what `Omega::try_inject` would
/// have returned cycle by cycle, and records accepted packets with their
/// cycle tags for deterministic replay at the exchange.
struct PortStage {
    /// The global network port this stage fronts (the owning CE's port).
    port: usize,
    /// The real injector's packet capacity.
    cap: usize,
    /// Link forced down by the fault layer, frozen for the round (chunks
    /// are clamped to end before the next fault-schedule transition).
    down: bool,
    /// Injection attempts refused because the link is down; folded into
    /// the network's `link_blocked` at the exchange, exactly the stat
    /// (and the only state) `Omega::try_inject` charges for these.
    blocked: u64,
    /// Shadow injector ring: remaining words of each queued packet, in
    /// drain order. Seeded from the real injector at the round start.
    ring: [u8; INJ_CAP],
    ring_len: usize,
    /// The worker-side cycle currently executing; tags staged packets.
    now: Cycle,
    /// Accepted packets in injection order, tagged with their cycle.
    staged: Vec<(Cycle, Packet)>,
    /// Replay cursor into `staged` (entries are cycle-ascending).
    replayed: usize,
}

impl PortStage {
    /// Start worker-side cycle `now`. On the chunked path (`drain`), the
    /// shadow ring first streams one word the way `Omega::inject_words`
    /// will during the replay of this cycle; the chunk clamp guarantees
    /// the real drain cannot block, so one word per cycle is exact. On
    /// the per-cycle path the real network already drained before the
    /// occupancy was frozen, so only the cycle tag advances.
    #[inline]
    fn begin_cycle(&mut self, now: Cycle, drain: bool) {
        self.now = now;
        if drain && self.ring_len > 0 {
            self.ring[0] -= 1;
            if self.ring[0] == 0 {
                self.ring.copy_within(1..self.ring_len, 0);
                self.ring_len -= 1;
            }
        }
    }
}

impl InjectPort for PortStage {
    fn try_inject(&mut self, port: usize, packet: Packet) -> bool {
        debug_assert_eq!(port, self.port, "CE injected at a foreign port");
        if self.down {
            // Serial order: the down check precedes the capacity check
            // and charges `link_blocked` without consuming fault-mix
            // draws or clearing stall state.
            self.blocked += 1;
            return false;
        }
        if self.ring_len >= self.cap {
            return false;
        }
        self.ring[self.ring_len] = packet.words;
        self.ring_len += 1;
        self.staged.push((self.now, packet));
        true
    }
}

/// Where a lone shard's CEs send what leaves their clusters: with nothing
/// to race against they inject into the real forward network, post into
/// the machine tracer and walk the machine-wide page table (which is what
/// lets demand paging run at all — see the module docs).
struct Direct<'a> {
    forward: &'a mut Omega,
    tracer: &'a mut EventTracer,
    page_table: &'a mut PageTable,
}

/// One worker's slice of the machine: a contiguous run of clusters and
/// their engines, plus the staging state that decouples the shard from
/// everything shared. A one-shard run keeps the whole machine in one of
/// these and leaves the staging state empty.
struct Shard {
    first_cluster: usize,
    /// Network port of `engines[0]` (CE ids and ports coincide).
    first_port: usize,
    clusters: Vec<Cluster>,
    /// Engines of the shard's CEs, indexed by CE id minus `first_port`.
    engines: Vec<Option<CeEngine>>,
    /// One staging buffer per engine slot; empty when the shard injects
    /// directly.
    stages: Vec<PortStage>,
    /// Per-round event buffer, merged into the machine tracer in cycle
    /// then cluster order at the exchange. Unbounded: only the machine
    /// tracer applies capacity, so drops land exactly where direct
    /// posting drops.
    events: EventTracer,
    /// Merge cursor into `events` (entries are cycle-ascending).
    events_cursor: usize,
    /// Scratch page table handed to `CeContext` by staged shards. Never
    /// touched: more than one shard only runs with VM modelling off.
    page_table: PageTable,
    /// The machine's counter and barrier registries (frozen for the run).
    counters: Arc<[CounterDef]>,
    barriers: Arc<[BarrierDef]>,
    /// First chunked-round cycle at whose end every local engine was
    /// done, while that has stayed true since (doneness is monotone
    /// mid-run; the chunk replay uses this to stop on the exact cycle a
    /// per-cycle run would).
    done_since: Option<Cycle>,
}

impl Shard {
    /// The cluster phase of one cycle: every CC bus first, then the
    /// engines in CE-id order. `drain` streams the shadow injector rings
    /// (chunked rounds only); `direct` bypasses the staging state.
    fn tick(&mut self, now: Cycle, drain: bool, mut direct: Option<&mut Direct<'_>>) {
        let Shard {
            first_cluster,
            clusters,
            engines,
            stages,
            events,
            page_table,
            counters,
            barriers,
            done_since,
            ..
        } = self;
        for st in stages.iter_mut() {
            st.begin_cycle(now, drain);
        }
        for cl in clusters.iter_mut() {
            cl.ccbus.tick(now);
        }
        for (i, e) in engines.iter_mut().enumerate() {
            let Some(e) = e else { continue };
            // Lowered mode: parked in a fused timed stall (or finished) —
            // one attribution increment, no context plumbing.
            let cluster = &mut clusters[e.cluster().0 - *first_cluster];
            if e.try_quick_tick(now, &cluster.ccbus) {
                continue;
            }
            let (forward, tracer, page_table): (&mut dyn InjectPort, _, _) = match &mut direct {
                Some(d) => (&mut *d.forward, &mut *d.tracer, &mut *d.page_table),
                None => (&mut stages[i], &mut *events, &mut *page_table),
            };
            let mut ctx = CeContext {
                forward,
                cache: &mut cluster.cache,
                ccbus: &mut cluster.ccbus,
                tlb: &mut cluster.tlb,
                page_table,
                counters,
                barriers,
                tracer,
            };
            e.tick(now, &mut ctx);
        }
        // Only a chunk replay reads the marker, so only chunked ticks
        // maintain it.
        if drain {
            *done_since = if engines.iter().flatten().all(CeEngine::is_done) {
                done_since.or(Some(now))
            } else {
                None
            };
        }
    }
}

/// A shard the coordinator currently holds. It holds every shard for the
/// whole of its own phase and lets go of the workers' shards only around
/// the cluster phase, so nothing below locks per cycle or per delivery.
type Held<'a> = MutexGuard<'a, Shard>;

fn hold(shard: &Mutex<Shard>) -> Held<'_> {
    shard.lock().expect("a shard worker panicked mid-tick")
}

/// Every engine slot of the machine, in CE-id order (shards partition the
/// CEs contiguously).
fn engine_slots<'a>(held: &'a [Held<'_>]) -> impl Iterator<Item = &'a Option<CeEngine>> {
    held.iter().flat_map(|sh| sh.engines.iter())
}

/// Every cluster of the machine, in id order.
fn clusters<'a>(held: &'a [Held<'_>]) -> impl Iterator<Item = &'a Cluster> {
    held.iter().flat_map(|sh| sh.clusters.iter())
}

/// Fill `out` with cumulative per-CE utilization samples, one per
/// configured CE (all-zero for CEs that run no program). Reuses the
/// caller's buffer so the per-bucket timeline record allocates nothing.
fn fill_util_samples(held: &[Held<'_>], out: &mut Vec<UtilSample>) {
    out.clear();
    for sh in held {
        out.extend(sh.engines.iter().map(|e| match e {
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
}

/// Routes reverse-network deliveries into CE engines, histogramming
/// prefetch round trips on the way past (the external monitor probes the
/// reverse-network signals on the real machine).
struct CeSink<'a, 'h> {
    held: &'a mut [Held<'h>],
    histogram: &'a mut Arc<Histogrammer>,
    now: Cycle,
}

impl NetSink for CeSink<'_, '_> {
    fn try_begin(&mut self, _port: usize) -> bool {
        // The CE side always sinks replies (prefetch buffer slots and
        // reply latches are pre-reserved by the requests themselves).
        true
    }

    fn deliver(&mut self, port: usize, packet: Packet) {
        if let Payload::Reply(r) = packet.payload {
            if matches!(r.stream, Stream::Prefetch { .. }) {
                Arc::make_mut(self.histogram)
                    .record(self.now.saturating_since(r.req_issued) as usize);
            }
            // Shards are in port order: the first one ending past `port`
            // owns it (ports beyond the CE side belong to nobody).
            let home = self
                .held
                .iter_mut()
                .map(|sh| &mut **sh)
                .find(|sh| port < sh.first_port + sh.engines.len());
            if let Some(sh) = home {
                if let Some(e) = &mut sh.engines[port - sh.first_port] {
                    e.receive(self.now, r);
                }
            }
        } else {
            debug_assert!(false, "request packet delivered to CE side");
        }
    }
}

/// What the coordinator and its workers share when more than one shard
/// runs. A one-shard run builds none of it.
struct Workers {
    go: SpinBarrier,
    handoff: SpinBarrier,
    stop: AtomicBool,
    /// One round's work order: run cycles `base+1 ..= base+len` (`len > 1`
    /// is a chunked round, which drains the shadow injector rings).
    base: AtomicU64,
    len: AtomicU64,
    /// Rounds completed (a statistic for the profiler and hang reports).
    rounds: AtomicU64,
    sync_waits: Vec<SyncWait>,
    /// Whether barrier waits are timed (host profiling is on).
    timed: bool,
}

impl Workers {
    fn new(threads: usize, timed: bool) -> Workers {
        Workers {
            go: SpinBarrier::new(threads),
            handoff: SpinBarrier::new(threads),
            stop: AtomicBool::new(false),
            base: AtomicU64::new(0),
            len: AtomicU64::new(1),
            rounds: AtomicU64::new(0),
            sync_waits: (0..threads)
                .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
                .collect(),
            timed,
        }
    }

    fn acc(&self, w: usize) -> Option<&SyncWait> {
        self.timed.then(|| &self.sync_waits[w])
    }

    /// Worker `w`'s life: run the ordered cycles on its shard each round
    /// until told to stop.
    fn serve(&self, w: usize, shard: &Mutex<Shard>) {
        loop {
            timed_wait(&self.go, self.acc(w));
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            let base = self.base.load(Ordering::Acquire);
            let len = self.len.load(Ordering::Acquire);
            let mut sh = hold(shard);
            for k in 1..=len {
                sh.tick(Cycle(base + k), len > 1, None);
            }
            drop(sh);
            timed_wait(&self.handoff, self.acc(w));
        }
    }
}

/// Lets the workers go home when the coordinator leaves the scope — by
/// return or by panic. A coordinator panic (e.g. a violated debug
/// assertion) would otherwise unwind into the scope's implicit join while
/// the workers spin at `go`. This covers the between-rounds window, where
/// every coordinator-side assertion lives — a panic inside a shard tick
/// (on either side of the `go`/`handoff` pair) still hangs, as it must
/// under any barrier scheme.
struct ReleaseWorkers<'a>(&'a Workers);

impl Drop for ReleaseWorkers<'_> {
    fn drop(&mut self) {
        self.0.stop.store(true, Ordering::Release);
        self.0.go.wait();
    }
}

impl Machine {
    /// The run loop: partition the clusters across `effective_threads`
    /// shards and step the machine round by round until every program
    /// completes. See the module docs for what one shard and several
    /// shards do differently, and for the determinism argument.
    pub(crate) fn run_loop(
        &mut self,
        start: Cycle,
        limit: u64,
        watchdog: &mut Watchdog,
        stats_start: &MachineStats,
    ) -> Result<()> {
        let threads = self.effective_threads();
        let shards = self.split_shards(threads, start);
        let workers = (threads > 1).then(|| Workers::new(threads, self.profiler.is_some()));
        let result = std::thread::scope(|s| {
            let workers = workers.as_ref();
            if let Some(crew) = workers {
                for (w, shard) in shards.iter().enumerate().skip(1) {
                    s.spawn(move || crew.serve(w, shard));
                }
            }
            let _release = workers.map(ReleaseWorkers);
            // Auto-checkpointing holds a file-writer thread for the run.
            // The control block lives in this closure, so every way out
            // of it — including a panic — drops the writer's handle,
            // which is what lets the scope join that thread.
            let mut ckpt = match (self.cfg.checkpoint_every, &self.cfg.checkpoint_path) {
                (every, Some(path)) if every > 0 => Some(CkptCtl::begin(
                    s,
                    every,
                    path.clone(),
                    self.now,
                    start,
                    limit,
                    stats_start,
                )?),
                _ => None,
            };
            let result = self.run_rounds(&shards, workers, start, limit, watchdog, &mut ckpt);
            // However the rounds ended, the last due checkpoint reaches
            // the disk before the run returns — and a failed write fails
            // the run, ahead of whatever else stopped it.
            ckpt.map_or(Ok(()), CkptCtl::finish).and(result)
        });

        // Reassemble the machine whether the run finished or stopped
        // early: `report`/`stats` need the clusters and engines back.
        for shard in shards {
            let sh = shard
                .into_inner()
                .expect("a shard worker panicked mid-tick");
            self.clusters.extend(sh.clusters);
            self.engines.extend(sh.engines);
        }
        let Some(workers) = workers else {
            return result;
        };
        let chunked = ChunkedContext {
            chunk_cycles: workers.len.load(Ordering::Relaxed),
            exchanges: workers.rounds.load(Ordering::Relaxed),
            worker_sync_waits: workers
                .sync_waits
                .iter()
                .enumerate()
                .map(|(w, (ns, waits))| {
                    (w, waits.load(Ordering::Relaxed), ns.load(Ordering::Relaxed))
                })
                .collect(),
        };
        if let Some(p) = self.profiler.as_deref_mut() {
            for &(w, waits, ns) in &chunked.worker_sync_waits {
                p.add_named(&format!("sync_wait_w{w}"), waits, ns);
            }
            p.add_named("exchanges", chunked.exchanges, 0);
        }
        result.map_err(|e| match e {
            MachineError::Deadlock { mut report } => {
                report.chunked = Some(chunked);
                MachineError::Deadlock { report }
            }
            e => e,
        })
    }

    /// Move the clusters and engines out of the machine into `threads`
    /// contiguous shards, as evenly as possible. Several shards stage
    /// their injections; a lone shard injects directly and gets no stages.
    fn split_shards(&mut self, threads: usize, start: Cycle) -> Vec<Mutex<Shard>> {
        let cpc = self.cfg.ces_per_cluster;
        let n_clusters = self.cfg.clusters;
        let injector_cap = self.forward.injector_capacity();
        let counters: Arc<[CounterDef]> = self.counters.as_slice().into();
        let barriers: Arc<[BarrierDef]> = self.barriers.as_slice().into();
        let mut cluster_iter = std::mem::take(&mut self.clusters).into_iter();
        let mut engine_iter = std::mem::take(&mut self.engines).into_iter();
        let mut first_cluster = 0;
        (0..threads)
            .map(|w| {
                let count = n_clusters / threads + usize::from(w < n_clusters % threads);
                let first_port = first_cluster * cpc;
                let engines: Vec<Option<CeEngine>> =
                    engine_iter.by_ref().take(count * cpc).collect();
                let stages = (0..if threads > 1 { count * cpc } else { 0 })
                    .map(|i| PortStage {
                        port: first_port + i,
                        cap: injector_cap,
                        down: false,
                        blocked: 0,
                        ring: [0; INJ_CAP],
                        ring_len: 0,
                        now: start,
                        staged: Vec::new(),
                        replayed: 0,
                    })
                    .collect();
                let shard = Shard {
                    first_cluster,
                    first_port,
                    clusters: cluster_iter.by_ref().take(count).collect(),
                    done_since: None,
                    engines,
                    stages,
                    events: EventTracer::with_capacity(usize::MAX),
                    events_cursor: 0,
                    page_table: PageTable::new(),
                    counters: Arc::clone(&counters),
                    barriers: Arc::clone(&barriers),
                };
                first_cluster += count;
                Mutex::new(shard)
            })
            .collect()
    }

    /// The rounds of one run, on the coordinator. Each round advances the
    /// machine `len` cycles: one when the reverse network may deliver
    /// (shared components first, then the clusters — the only order in
    /// which a CE can see this cycle's replies), the lookahead horizon
    /// when it cannot (clusters first, then the shared components replayed
    /// cycle by cycle against the staged injections). A lone shard injects
    /// directly, so it never has anything to replay and always steps one
    /// cycle.
    ///
    /// Fast-forward and the auto-checkpoint run between rounds: every
    /// staged injection and trace event is drained there, so the machine
    /// state is the same on every shard count.
    fn run_rounds<'s>(
        &mut self,
        shards: &'s [Mutex<Shard>],
        workers: Option<&Workers>,
        start: Cycle,
        limit: u64,
        watchdog: &mut Watchdog,
        ckpt: &mut Option<CkptCtl>,
    ) -> Result<()> {
        let fastfwd = self.cfg.fast_forward && !crate::config::fastfwd_disabled_from_env();
        let staged = workers.is_some();
        let mut held: Vec<Held<'s>> = shards.iter().map(hold).collect();
        while !self.all_done(&held) {
            // Watchdog before the budget check: a true deadlock should
            // surface as `Deadlock` (with its hang report), never as a
            // generic `CycleLimitExceeded`.
            if watchdog.due(self.now) {
                self.check_progress(&held, watchdog)?;
            }
            if self.now.saturating_since(start) > limit {
                return Err(MachineError::CycleLimitExceeded { limit });
            }
            let t0 = self.now;
            let len = if staged {
                self.chunk_len(watchdog, start, limit).max(1)
            } else {
                1
            };

            if len == 1 {
                self.now += 1;
                self.shared_phases(&mut held);
            }
            if staged {
                // Freeze the injector state the shadow rings start from
                // (post-tick occupancy on a one-cycle round).
                for st in held.iter_mut().flat_map(|sh| sh.stages.iter_mut()) {
                    st.down = self.forward.port_link_down(st.port);
                    (st.ring, st.ring_len) = self.forward.injector_backlog(st.port);
                    debug_assert!(st.staged.is_empty(), "stage not drained");
                }
            }

            // Cluster phase: every worker on its own shard, this thread on
            // shard 0 (the only one it keeps holding meanwhile).
            held.truncate(1);
            if let Some(w) = workers {
                w.base.store(t0.0, Ordering::Release);
                w.len.store(len, Ordering::Release);
                timed_wait(&w.go, w.acc(0));
            }
            {
                let Machine {
                    profiler,
                    forward,
                    tracer,
                    page_table,
                    ..
                } = &mut *self;
                let mut direct = (!staged).then_some(Direct {
                    forward,
                    tracer,
                    page_table,
                });
                profiled(profiler, region::CLUSTER, || {
                    for k in 1..=len {
                        held[0].tick(Cycle(t0.0 + k), len > 1, direct.as_mut());
                    }
                });
            }
            if let Some(w) = workers {
                timed_wait(&w.handoff, w.acc(0));
            }
            held.extend(shards[1..].iter().map(hold));

            if let Some(w) = workers {
                if len == 1 {
                    self.exchange(&mut held);
                } else {
                    self.replay_chunk(&mut held, Cycle(t0.0 + len));
                }
                let mut blocked = 0u64;
                for sh in held.iter_mut() {
                    for st in &mut sh.stages {
                        debug_assert_eq!(st.replayed, st.staged.len(), "unreplayed injection");
                        st.staged.clear();
                        st.replayed = 0;
                        blocked += std::mem::take(&mut st.blocked);
                    }
                    debug_assert_eq!(sh.events_cursor, sh.events.events().len());
                    sh.events.clear();
                    sh.events_cursor = 0;
                }
                if blocked > 0 {
                    self.forward.add_link_blocked(blocked);
                }
                w.rounds.fetch_add(1, Ordering::Relaxed);
            }

            let mut prof = self.profiler.take();
            if self.timeline.due(self.now) {
                profiled(&mut prof, region::TIMELINE, || {
                    fill_util_samples(&held, &mut self.util_scratch);
                    self.timeline.record(&self.util_scratch);
                });
            }
            if fastfwd {
                profiled(&mut prof, region::FASTFWD, || {
                    self.try_fast_forward(&mut held, start, limit);
                });
            }
            self.profiler = prof;

            // Auto-checkpoint between rounds: post-tick (and post-skip)
            // state is always self-consistent here, whether the run is
            // mid-fast-forward, mid-outage or mid-journey, and walking the
            // shards in order writes the same bytes on every shard count.
            if let Some(ck) = ckpt.as_mut() {
                if self.now >= ck.next {
                    self.autosave(ck, clusters(&held), engine_slots(&held), watchdog)?;
                }
            }
        }
        fill_util_samples(&held, &mut self.util_scratch);
        self.timeline.finish(self.now, &self.util_scratch);
        Ok(())
    }

    /// The shared components' half of cycle `self.now`, in the one order
    /// everything downstream depends on: fault schedule, memory, reverse
    /// network (delivering into the engines), forward network.
    fn shared_phases(&mut self, held: &mut [Held<'_>]) {
        let Machine {
            now,
            forward,
            reverse,
            gmem,
            fault_sched,
            latency_histogram,
            profiler,
            ..
        } = self;
        let now = *now;
        // The omegas have no absolute clock of their own; give their
        // tracing layer (if any) the cycle before any network activity.
        forward.set_trace_now(now);
        reverse.set_trace_now(now);
        if let Some(fs) = fault_sched {
            profiled(profiler, region::FAULTS, || {
                fs.apply_due(now, forward, reverse, gmem);
            });
        }
        profiled(profiler, region::GMEM, || gmem.tick(now, reverse));
        profiled(profiler, region::REVERSE, || {
            let mut sink = CeSink {
                held,
                histogram: latency_histogram,
                now,
            };
            // The CE side always accepts (try_begin is constant), so the
            // reverse network runs under a constant acceptance epoch.
            reverse.tick_epoch(&mut sink, 0);
        });
        profiled(profiler, region::FORWARD, || {
            let epoch = gmem.accept_epoch();
            forward.tick_epoch(gmem, epoch);
        });
    }

    /// Apply cycle `self.now`'s staged injections to the real forward
    /// network and merge its trace events into the machine tracer, in
    /// (cluster, CE) order — the order direct injection produces.
    fn exchange(&mut self, held: &mut [Held<'_>]) {
        let Machine {
            now,
            forward,
            tracer,
            profiler,
            ..
        } = self;
        let now = *now;
        profiled(profiler, region::EXCHANGE, || {
            for sh in held.iter_mut() {
                let Shard {
                    stages,
                    events,
                    events_cursor,
                    ..
                } = &mut **sh;
                for st in stages.iter_mut() {
                    while let Some(&(at, pkt)) = st.staged.get(st.replayed) {
                        if at != now {
                            break;
                        }
                        let accepted = forward.try_inject(st.port, pkt);
                        debug_assert!(accepted, "staged injection exceeded capacity");
                        st.replayed += 1;
                    }
                }
                while let Some(&(at, tag)) = events.events().get(*events_cursor) {
                    if at != now {
                        break;
                    }
                    tracer.post(at, tag);
                    *events_cursor += 1;
                }
            }
        });
    }

    /// After the workers ran their clusters through `chunk_end`: let the
    /// shared components observe the exact per-cycle call sequence for
    /// each chunk cycle, with that cycle's staged traffic applied after
    /// it, stopping where a per-cycle run would stop ticking.
    fn replay_chunk(&mut self, held: &mut [Held<'_>], chunk_end: Cycle) {
        let delivered_before = self.reverse.stats().packets_delivered;
        while self.now < chunk_end {
            self.now += 1;
            self.shared_phases(held);
            debug_assert_eq!(
                self.reverse.stats().packets_delivered,
                delivered_before,
                "lookahead violated: a delivery landed at cycle {} inside the chunk ending at {}",
                self.now.0,
                chunk_end.0,
            );
            self.exchange(held);
            let u = self.now;
            if held.iter().all(|sh| sh.done_since.is_some_and(|d| d <= u)) && self.shared_idle() {
                break;
            }
        }
        // The workers overshot the completion cycle; every overshot tick
        // of a done engine is a pure `idle += 1`, so retract the overshoot
        // and the stats match a per-cycle run exactly.
        let over = chunk_end.saturating_since(self.now);
        if over > 0 {
            for sh in held.iter_mut() {
                for e in sh.engines.iter_mut().flatten() {
                    e.uncount_idle(over);
                }
            }
        }
    }

    /// Cycles the next round may run the clusters ahead of the shared
    /// components: the delivery-free horizon — the minimum over every
    /// source that could put a reply into the reverse network (module-doc
    /// derivation) — clamped by every event that must land on its exact
    /// cycle. At most 1 means a per-cycle round.
    fn chunk_len(&self, watchdog: &Watchdog, start: Cycle, limit: u64) -> u64 {
        let t0 = self.now;
        if !self.reverse.is_idle() {
            return 0;
        }
        // Minimum module service time: the floor under every
        // request-to-reply bound (sync requests only add to it).
        // Validation guarantees it is at least 1.
        let min_service = u64::from(self.cfg.global_memory.service_cycles);
        // A fresh CE request staged at t0+1: injector drain at t0+2,
        // module delivery at t0+3, then service and the 1-word-reply
        // delivery bound.
        let mut l = min_service + 4;
        if !self.forward.is_idle() {
            // An in-flight request: module delivery at t0+1, service
            // pickup at t0+2.
            l = l.min(min_service + 2);
        }
        if let Some(ev) = self.gmem.next_event(t0) {
            // A busy module: its earliest visible action is the reply
            // injection itself, and a 1-word reply delivers the cycle
            // after.
            l = l.min(ev.saturating_since(t0));
        }
        if l <= 1 {
            return l;
        }
        // 0 means no cap beyond the lookahead bound.
        if self.cfg.chunk_cycles > 0 {
            l = l.min(self.cfg.chunk_cycles as u64);
        }
        l = l.min(watchdog.next_check().saturating_since(t0));
        l = l.min(self.timeline.next_boundary().saturating_since(t0));
        let budget_end = start.0.saturating_add(limit).saturating_add(1);
        l = l.min(budget_end.saturating_sub(t0.0));
        if let Some(ev) = self.fault_sched.as_ref().and_then(|fs| fs.next_event(t0)) {
            l = l.min(ev.saturating_since(t0).saturating_sub(1));
        }
        // Injector headroom: the shadow drain is one word per cycle only
        // while the real drain can't block on a full stage-0 queue. The +1
        // when the ring starts empty reflects that the first staged packet
        // reaches the real ring a cycle later.
        let queue_cap = self.forward.stage_queue_cap();
        for port in 0..self.cfg.total_ces() {
            if l <= 1 {
                break;
            }
            let room = (queue_cap - self.forward.stage0_queue_len(port)) as u64
                + u64::from(self.forward.injector_len(port) == 0);
            l = l.min(room);
        }
        l
    }

    fn shared_idle(&self) -> bool {
        self.forward.is_idle() && self.reverse.is_idle() && self.gmem.is_idle()
    }

    /// Direct engine doneness, not the tick-maintained `done_since`
    /// marker: an engine can finish during a fast-forward skip, between
    /// shard ticks, which the marker cannot observe.
    fn all_done(&self, held: &[Held<'_>]) -> bool {
        held.iter()
            .all(|sh| sh.engines.iter().flatten().all(CeEngine::is_done))
            && self.shared_idle()
    }

    /// One forward-progress inspection.
    ///
    /// # Errors
    ///
    /// [`MachineError::Faulted`] when a retry controller exhausted its
    /// budget, [`MachineError::Deadlock`] when the machine cannot finish.
    fn check_progress(&self, held: &[Held<'_>], watchdog: &mut Watchdog) -> Result<()> {
        let deadlock = |kind| {
            Err(MachineError::Deadlock {
                report: Box::new(self.hang_report(held, kind)),
            })
        };
        watchdog.arm_next(self.now);
        let mut unfinished = 0usize;
        let mut sync_waiting = 0usize;
        for sh in held {
            for e in sh.engines.iter().flatten() {
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
        }
        // No subsystem will ever act again, yet work remains: nothing can
        // change, so nothing will complete.
        if !self.all_done(held) && self.next_machine_event(held).is_none() {
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
    fn hang_report(&self, held: &[Held<'_>], kind: &str) -> HangReport {
        let mut ces = Vec::new();
        let mut barrier_waiters = 0usize;
        let mut pending_retries = 0u64;
        for e in engine_slots(held).flatten() {
            pending_retries += e.fault_pending();
            if !e.is_done() {
                if e.sync_blocked() {
                    barrier_waiters += 1;
                }
                // Cap the listing: a machine-wide hang names every CE on a
                // 32-CE Cedar, but a pathological config should not build
                // an unbounded report.
                if ces.len() < 64 {
                    ces.push((e.id().0, e.hang_state()));
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
            // Filled in by `run_loop` when several shards ran.
            chunked: None,
        }
    }

    /// The earliest future cycle at which any subsystem can change
    /// externally visible state, given no machine activity in between.
    /// `None` means no subsystem will ever act again (every CE is done —
    /// or deadlocked waiting on synchronization that cannot arrive).
    ///
    /// Conservative by construction: any subsystem unsure of its next
    /// event answers `now + 1`, which suppresses skipping but can never
    /// change results.
    fn next_machine_event(&self, held: &[Held<'_>]) -> Option<Cycle> {
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
        for sh in held {
            for cl in &sh.clusters {
                best = min_event(best, cl.ccbus.next_event(now));
                if best == Some(soon) {
                    return best;
                }
            }
            for e in sh.engines.iter().flatten() {
                let ccbus = &sh.clusters[e.cluster().0 - sh.first_cluster].ccbus;
                best = min_event(best, e.next_event(now, ccbus, &self.counters));
                if best == Some(soon) {
                    return best;
                }
            }
        }
        best
    }

    /// Event-horizon fast-forward: if every subsystem is quiescent until
    /// some future cycle `t`, jump straight to `t - 1`, bulk-crediting the
    /// skipped cycles into exactly the counters a cycle-by-cycle run would
    /// have bumped (CE idle/stall attribution, memory-module busy/queue
    /// occupancy, prefetch page-wait) and recording utilization-timeline
    /// buckets at their usual boundaries. Every statistic, histogram and
    /// digest stays bit-for-bit identical to the unskipped run.
    fn try_fast_forward(&mut self, held: &mut [Held<'_>], start: Cycle, limit: u64) {
        // Past the cycle limit plus slack, so a run with no future events
        // (a deadlocked barrier) trips CycleLimitExceeded promptly instead
        // of ticking its way there.
        let deadlock_cap = Cycle(start.0.saturating_add(limit).saturating_add(2));
        let target = match self.next_machine_event(held) {
            Some(t) if t > self.now + 1 => t.min(deadlock_cap),
            Some(_) => return,
            None => {
                if self.all_done(held) {
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
            for sh in held.iter_mut() {
                for e in sh.engines.iter_mut().flatten() {
                    e.skip(self.now, k);
                }
            }
            self.fastfwd_skipped += k;
            self.now = chunk_end;
            if self.timeline.due(self.now) {
                fill_util_samples(held, &mut self.util_scratch);
                self.timeline.record(&self.util_scratch);
            }
        }
    }
}
