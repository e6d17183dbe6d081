//! The complete Cedar machine: clusters, networks, global memory.
//!
//! [`Machine`] owns four (configurable) Alliant clusters — each a shared
//! cache, cluster memory, concurrency control bus and TLB — two omega
//! networks, and the interleaved global memory with its synchronization
//! processors. Programs are loaded one per CE and the machine ticks all
//! components in a fixed, deterministic order until every program
//! completes.

use std::sync::Arc;

use crate::cache::{CacheStats, ClusterCache};
use crate::ccbus::{CcBus, CcBusStats};
use crate::ce::{CeEngine, CeStats};
use crate::config::MachineConfig;
use crate::error::{MachineError, Result};
use crate::fault::{FaultCtlStats, FaultSchedule, RETRY_LATENCY_BINS, SALT_FORWARD, SALT_REVERSE};
use crate::handoff::Baton;
use crate::ids::{CeId, ClusterId, CounterId};
use crate::memory::cluster_mem::ClusterMemory;
use crate::memory::global::GlobalMemory;
use crate::memory::module::ModuleStats;
use crate::monitor::{EventTracer, Histogrammer};
use crate::network::{MemReply, NetStats, Omega};
use crate::prefetch::PrefetchStats;
use crate::program::{BarrierId, Op, Program};
use crate::sched::{BarrierDef, BarrierScope, CounterDef, EPOCH_SPACING};
use crate::stats::{MachineStats, UtilSample, UtilizationTimeline};
use crate::time::{mflops, Cycle};
use crate::trace::{
    self, BarrierEpisode, HostProfiler, Journey, LatencyBreakdown, TraceEvent, TraceStore,
};
use crate::vm::{PageTable, Tlb, TlbStats};

/// Base of the address region the machine hands out for synchronization
/// words (counters, barriers). Kept far above any data address a workload
/// uses; the interleaving still spreads it across modules.
const SYNC_REGION_BASE: u64 = 1 << 40;

/// Cycles between forward-progress watchdog inspections. Large enough
/// that a legitimate synchronization wait (barrier poll periods are tens
/// of cycles) can never span one interval, small enough that a deadlocked
/// run aborts long before a typical cycle budget.
const STUCK_CHECK_INTERVAL: u64 = 4096;

/// Consecutive inspections with every unfinished CE in a synchronization
/// wait before the watchdog declares a deadlock.
pub(crate) const STUCK_SYNC_CHECKS: u32 = 6;

/// Forward-progress watchdog state: when to look next, and how many
/// consecutive looks found every live CE stuck in a synchronization wait.
#[derive(Debug)]
pub(crate) struct Watchdog {
    next_check: Cycle,
    pub(crate) sync_stuck: u32,
}

// Checkpointed with the run, so a resumed run inspects on exactly the
// cycles the uninterrupted run would.
crate::snapshot::codec!(struct Watchdog { next_check, sync_stuck });

impl Watchdog {
    pub(crate) fn new(start: Cycle) -> Watchdog {
        Watchdog {
            next_check: start + STUCK_CHECK_INTERVAL,
            sync_stuck: 0,
        }
    }

    /// True when an inspection is due at `now`.
    pub(crate) fn due(&self, now: Cycle) -> bool {
        now >= self.next_check
    }

    pub(crate) fn arm_next(&mut self, now: Cycle) {
        self.next_check = now + STUCK_CHECK_INTERVAL;
    }
}

/// Where a loop-scheduling counter should live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterScope {
    /// On one cluster's concurrency control bus (CDOALL-style).
    Cluster(ClusterId),
    /// In global memory (XDOALL-style).
    Global,
    /// In global memory at cluster granularity (self-scheduled
    /// SDOALL-style): values are fetched once per cluster and broadcast
    /// over the concurrency bus.
    SdoallGlobal,
}

/// One cluster: shared cache (owning the cluster memory), concurrency
/// control bus, and TLB.
#[derive(Debug)]
pub struct Cluster {
    pub(crate) cache: ClusterCache,
    pub(crate) ccbus: CcBus,
    pub(crate) tlb: Tlb,
}

/// Results of one [`Machine::run`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Cycles from run start to the last CE finishing (networks drained).
    pub cycles: u64,
    /// Wall-clock seconds at the configured cycle time.
    pub seconds: f64,
    /// Total floating-point operations performed by all CEs.
    pub flops: u64,
    /// Sustained MFLOPS over the run.
    pub mflops: f64,
    /// Per-CE execution statistics for the CEs that ran programs.
    pub ce_stats: Vec<(CeId, CeStats)>,
    /// Aggregate prefetch statistics over all CEs in this run.
    pub prefetch: PrefetchStats,
    /// Per-CE prefetch statistics.
    pub prefetch_per_ce: Vec<(CeId, PrefetchStats)>,
    /// Forward network statistics (cumulative over the machine's life).
    pub net_forward: NetStats,
    /// Reverse network statistics (cumulative).
    pub net_reverse: NetStats,
    /// Per-cluster cache statistics (cumulative).
    pub cache: Vec<CacheStats>,
    /// Aggregate global-memory statistics (cumulative).
    pub memory: ModuleStats,
    /// Per-cluster TLB statistics (cumulative; all zero unless VM enabled).
    pub tlb: Vec<TlbStats>,
    /// Per-cluster concurrency-bus statistics (cumulative).
    pub ccbus: Vec<CcBusStats>,
    /// Full instrumentation-registry delta over this run: every counter
    /// and histogram of [`Machine::stats`], bracketed between run start
    /// and run end.
    pub stats: MachineStats,
    /// Provenance: the snapshot file this run was resumed from, stamped
    /// by [`Machine::resume_from_file`]. `None` for uninterrupted runs
    /// (and for [`Machine::resume`] from an in-memory image, which has
    /// no file to name). Everything else in the report is bit-identical
    /// either way — this field exists so rendered reports can say a run
    /// was recovered.
    pub resumed_from: Option<std::path::PathBuf>,
}

/// The simulated Cedar machine.
#[derive(Debug)]
pub struct Machine {
    pub(crate) cfg: MachineConfig,
    /// The CE configuration, shared by every engine (one allocation
    /// instead of a per-CE clone).
    pub(crate) ce_cfg: Arc<crate::config::CeConfig>,
    pub(crate) now: Cycle,
    /// The three components the second lane of a two-lane run works on
    /// (see `parallel.rs`); whole and in place whenever no run is in
    /// flight.
    pub(crate) forward: Baton<Omega>,
    pub(crate) reverse: Baton<Omega>,
    pub(crate) gmem: Baton<GlobalMemory>,
    pub(crate) clusters: Vec<Cluster>,
    pub(crate) counters: Vec<CounterDef>,
    pub(crate) barriers: Vec<BarrierDef>,
    pub(crate) next_sync_slot: u64,
    pub(crate) next_bus_barrier_slot: usize,
    pub(crate) engines: Vec<Option<CeEngine>>,
    pub(crate) page_table: PageTable,
    pub(crate) tracer: EventTracer,
    /// Prefetch round trips, recorded by the delivery path (owned, so a
    /// record is a plain increment; [`Machine::stats`] copies it).
    pub(crate) latency_histogram: Histogrammer,
    /// Replies the reverse network delivered this cycle, waiting to be
    /// handed to their engines (empty between cycles; reused so the
    /// delivery path allocates nothing).
    pub(crate) replies: Vec<(usize, MemReply)>,
    pub(crate) timeline: UtilizationTimeline,
    /// Preformatted per-index counter names, so [`Machine::stats`] clones
    /// strings instead of running `format!` for every key.
    pub(crate) stat_keys: StatKeys,
    /// Reusable per-CE sample buffer for the timeline (the hot loop
    /// records a sample every bucket boundary; no per-record allocation).
    pub(crate) util_scratch: Vec<UtilSample>,
    /// Cycles the fast-forward path jumped over instead of ticking.
    pub(crate) fastfwd_skipped: u64,
    /// The earliest wake cycle of any engine, folded by the cluster
    /// phase; what fast-forward and the watchdog read instead of asking
    /// each engine. Not snapshotted: restore re-folds it.
    pub(crate) ce_wake: Cycle,
    /// Scheduled link/module outage transitions; `None` on the fault-free
    /// machine (a disabled [`crate::fault::FaultPlan`] allocates nothing).
    pub(crate) fault_sched: Option<Box<FaultSchedule>>,
    /// Journey spans drained from every subsystem at the end of each run
    /// (empty when tracing is disabled — no subsystem ever stamps).
    pub(crate) trace_store: TraceStore,
    /// Host-side wall-clock self-profiler for the simulator's own tick
    /// phases; `None` (zero overhead beyond one branch) unless enabled.
    pub(crate) profiler: Option<Box<HostProfiler>>,
    /// Built by [`Machine::new_reference`]: the CEs run the tree-walking
    /// interpreter and the networks the dense per-flit sweep, instead of
    /// lowered micro-op streams and the flow path, and the run loop ticks
    /// every cycle instead of fast-forwarding.
    pub(crate) reference: bool,
    /// Static shape of the programs loaded by the most recent
    /// [`Machine::run`], summed over CEs (`None` before the first run).
    /// Computed by the lowering pass on reference machines too, so the
    /// `program.*` registry keys are identical on both.
    pub(crate) program_meta: Option<crate::lower::LowerMeta>,
}

/// Preformatted counter-key strings for every indexed stat family.
/// Deliberately *not* part of any snapshot — pure formatting cache.
#[derive(Debug)]
pub(crate) struct StatKeys {
    /// Per cluster: accesses, hits, misses, evictions, writebacks,
    /// bank_stalls, mshr_stalls.
    cache: Vec<[String; 7]>,
    /// Per cluster: fills, writebacks, words.
    cmem: Vec<[String; 3]>,
    /// Forward and reverse network key sets.
    net: [NetKeys; 2],
    /// Per bank: accesses, sync_ops, conflict_stalls.
    gmem_bank: Vec<[String; 3]>,
    /// Per cluster: dispatches, counter_requests, barrier_arrivals,
    /// barrier_releases, barrier_wait_cycles, sdoall_posts.
    ccbus: Vec<[String; 6]>,
    /// Per CE: busy, idle, stall_mem, stall_sync, flops, vector_elements,
    /// tlb_misses, page_faults, vm_cycles.
    ce: Vec<[String; 9]>,
}

#[derive(Debug)]
struct NetKeys {
    packets_injected: String,
    packets_delivered: String,
    words_moved: String,
    blocked_moves: String,
    conflicts: String,
    stage_conflicts: Vec<String>,
    stage_blocked: Vec<String>,
    queue_depth: String,
    /// Fault-injection counters; only emitted when faults are enabled, so
    /// the fault-free registry stays byte-identical to older snapshots.
    drops: String,
    nacks: String,
    link_blocked: String,
}

impl NetKeys {
    fn new(prefix: &str, stages: usize) -> NetKeys {
        NetKeys {
            packets_injected: format!("{prefix}.packets_injected"),
            packets_delivered: format!("{prefix}.packets_delivered"),
            words_moved: format!("{prefix}.words_moved"),
            blocked_moves: format!("{prefix}.blocked_moves"),
            conflicts: format!("{prefix}.conflicts"),
            stage_conflicts: (0..stages)
                .map(|s| format!("{prefix}.stage[{s}].conflicts"))
                .collect(),
            stage_blocked: (0..stages)
                .map(|s| format!("{prefix}.stage[{s}].blocked"))
                .collect(),
            queue_depth: format!("{prefix}.queue_depth"),
            drops: format!("{prefix}.drops"),
            nacks: format!("{prefix}.nacks"),
            link_blocked: format!("{prefix}.link_blocked"),
        }
    }
}

impl StatKeys {
    fn new(cfg: &MachineConfig, stages: usize) -> StatKeys {
        StatKeys {
            cache: (0..cfg.clusters)
                .map(|c| {
                    [
                        format!("cache[{c}].accesses"),
                        format!("cache[{c}].hits"),
                        format!("cache[{c}].misses"),
                        format!("cache[{c}].evictions"),
                        format!("cache[{c}].writebacks"),
                        format!("cache[{c}].bank_stalls"),
                        format!("cache[{c}].mshr_stalls"),
                    ]
                })
                .collect(),
            cmem: (0..cfg.clusters)
                .map(|c| {
                    [
                        format!("cmem[{c}].fills"),
                        format!("cmem[{c}].writebacks"),
                        format!("cmem[{c}].words"),
                    ]
                })
                .collect(),
            net: [
                NetKeys::new("net.fwd", stages),
                NetKeys::new("net.rev", stages),
            ],
            gmem_bank: (0..cfg.global_memory.modules)
                .map(|b| {
                    [
                        format!("gmem.bank[{b}].accesses"),
                        format!("gmem.bank[{b}].sync_ops"),
                        format!("gmem.bank[{b}].conflict_stalls"),
                    ]
                })
                .collect(),
            ccbus: (0..cfg.clusters)
                .map(|c| {
                    [
                        format!("ccbus[{c}].dispatches"),
                        format!("ccbus[{c}].counter_requests"),
                        format!("ccbus[{c}].barrier_arrivals"),
                        format!("ccbus[{c}].barrier_releases"),
                        format!("ccbus[{c}].barrier_wait_cycles"),
                        format!("ccbus[{c}].sdoall_posts"),
                    ]
                })
                .collect(),
            ce: (0..cfg.total_ces())
                .map(|i| {
                    [
                        format!("ce[{i}].busy"),
                        format!("ce[{i}].idle"),
                        format!("ce[{i}].stall_mem"),
                        format!("ce[{i}].stall_sync"),
                        format!("ce[{i}].flops"),
                        format!("ce[{i}].vector_elements"),
                        format!("ce[{i}].tlb_misses"),
                        format!("ce[{i}].page_faults"),
                        format!("ce[{i}].vm_cycles"),
                    ]
                })
                .collect(),
        }
    }
}

impl Machine {
    /// Build a machine from a configuration. Its CEs execute lowered
    /// micro-op streams and its networks run the flow path.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::InvalidConfig`] when the configuration is
    /// inconsistent.
    pub fn new(cfg: MachineConfig) -> Result<Machine> {
        Machine::build(cfg, false)
    }

    /// Build the differential reference for `cfg`: tree-walking CEs and
    /// per-flit networks, ticked every cycle with no fast-forward — the
    /// straightforward models the lowered engine, the flow path and the
    /// event-horizon skip are tested against. Results are bit-for-bit
    /// those of [`Machine::new`], only slower; it exists for tests, not
    /// as a production mode. A reference machine cannot be
    /// checkpointed.
    ///
    /// # Errors
    ///
    /// As [`Machine::new`], plus [`MachineError::ReferenceCheckpoint`]
    /// when `cfg` asks for auto-checkpointing.
    pub fn new_reference(cfg: MachineConfig) -> Result<Machine> {
        if cfg.checkpoint_every != 0 || cfg.checkpoint_path.is_some() {
            return Err(MachineError::ReferenceCheckpoint);
        }
        Machine::build(cfg, true)
    }

    fn build(cfg: MachineConfig, reference: bool) -> Result<Machine> {
        cfg.validate().map_err(MachineError::InvalidConfig)?;
        let ports = cfg.network_ports();
        let clusters = (0..cfg.clusters)
            .map(|_| Cluster {
                cache: ClusterCache::new(
                    &cfg.cache,
                    cfg.ces_per_cluster,
                    ClusterMemory::new(&cfg.cluster_memory),
                ),
                ccbus: CcBus::new(&cfg.ccbus, cfg.ces_per_cluster),
                tlb: Tlb::new(cfg.vm.tlb_entries),
            })
            .collect();
        let omega = if reference {
            Omega::new_reference
        } else {
            Omega::new
        };
        let mut forward = omega(ports, &cfg.network);
        let mut reverse = omega(ports, &cfg.network);
        let fault_sched = cfg.faults.as_ref().filter(|p| p.enabled()).map(|plan| {
            let drop = u64::from(plan.drop_per_million);
            forward.enable_faults(plan.seed, SALT_FORWARD, drop, plan.nack_per_million.into());
            // Replies cannot be NACKed, only lost.
            reverse.enable_faults(plan.seed, SALT_REVERSE, drop, 0);
            Box::new(FaultSchedule::new(plan))
        });
        if cfg.trace.as_ref().is_some_and(|p| p.enabled()) {
            forward.enable_trace(true);
            reverse.enable_trace(false);
        }
        let stat_keys = StatKeys::new(&cfg, forward.stage_conflicts().len());
        Ok(Machine {
            forward: Baton::new(forward),
            reverse: Baton::new(reverse),
            gmem: Baton::new(GlobalMemory::new(&cfg.global_memory)),
            clusters,
            counters: Vec::new(),
            barriers: Vec::new(),
            next_sync_slot: 0,
            next_bus_barrier_slot: 0,
            engines: Vec::new(),
            page_table: PageTable::new(),
            tracer: EventTracer::new(),
            latency_histogram: Histogrammer::with_bins(512),
            replies: Vec::new(),
            timeline: UtilizationTimeline::new(cfg.total_ces()),
            stat_keys,
            util_scratch: Vec::with_capacity(cfg.total_ces()),
            fastfwd_skipped: 0,
            ce_wake: Cycle::ZERO,
            fault_sched,
            trace_store: TraceStore::default(),
            profiler: None,
            now: Cycle::ZERO,
            ce_cfg: Arc::new(cfg.ce.clone()),
            reference,
            program_meta: None,
            cfg,
        })
    }

    /// A full 32-CE Cedar.
    ///
    /// # Errors
    ///
    /// Never fails in practice (the canonical configuration is valid).
    pub fn cedar() -> Result<Machine> {
        Machine::new(MachineConfig::cedar())
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The machine-wide page table (virtual-memory studies).
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// The external event tracer (records software-posted events).
    pub fn tracer(&self) -> &EventTracer {
        &self.tracer
    }

    /// The prefetch first-word round-trip latency histogram collected by
    /// the monitoring hardware on the reverse network (cycles, capped at
    /// the last bin). Also exposed through [`Machine::stats`] as the
    /// `prefetch.latency` histogram.
    pub fn latency_histogram(&self) -> &Histogrammer {
        &self.latency_histogram
    }

    /// Per-CE utilization timeline of the current (or most recent) run.
    pub fn timeline(&self) -> &UtilizationTimeline {
        &self.timeline
    }

    /// Cycles the event-horizon fast-forward jumped over (instead of
    /// ticking one by one) during the most recent [`run`](Machine::run).
    ///
    /// Always zero on a reference machine, which ticks every cycle.
    /// Deliberately *not* part of [`Machine::stats`]: the registry
    /// snapshot must stay bit-for-bit identical to the reference's, so
    /// the one counter that distinguishes the two lives here instead.
    pub fn fastforward_skipped_cycles(&self) -> u64 {
        self.fastfwd_skipped
    }

    /// Static shape of the programs loaded by the most recent
    /// [`run`](Machine::run) (op/micro-op/fusion counts summed over CEs,
    /// max loop depth), computed by the lowering pass on reference
    /// machines too. `None` before the first run. Also exported
    /// through the `program.*` stats keys.
    pub fn program_meta(&self) -> Option<crate::lower::LowerMeta> {
        self.program_meta
    }

    /// Fully-stalled network ticks the flow path settled by replaying its
    /// cached stall charge instead of re-walking every queue, summed over
    /// both directions. Always zero on a reference machine; the equivalence
    /// tests use it to prove the fast path actually ran.
    pub fn flow_stall_replays(&self) -> u64 {
        self.forward.stall_replays() + self.reverse.stall_replays()
    }

    /// Raw journey trace events drained at the end of the most recent
    /// [`run`](Machine::run). Empty unless the machine was built with a
    /// [`crate::trace::TracePlan`].
    pub fn trace_events(&self) -> &[TraceEvent] {
        &self.trace_store.events
    }

    /// Trace stamps lost to per-subsystem buffer caps during the most
    /// recent run.
    pub fn trace_dropped(&self) -> u64 {
        self.trace_store.dropped
    }

    /// Assemble the most recent run's trace events into journeys (one per
    /// sampled access, one per CE-participation in a barrier episode).
    pub fn trace_journeys(&self) -> Vec<Journey> {
        trace::assemble(&self.trace_store.events)
    }

    /// Per-hop, per-class latency decomposition over the most recent
    /// run's journeys.
    pub fn latency_breakdown(&self) -> LatencyBreakdown {
        LatencyBreakdown::from_journeys(&self.trace_journeys())
    }

    /// Sampled barrier episodes of the most recent run, with critical-path
    /// (last-arriver) attribution.
    pub fn barrier_episodes(&self) -> Vec<BarrierEpisode> {
        trace::episodes(&self.trace_journeys())
    }

    /// Turn on host-side self-profiling: wall-clock per simulator tick
    /// phase, read back with [`Machine::host_profile`] /
    /// [`Machine::host_profile_jsonl`]. Measures the host, never the
    /// simulated machine — results are unaffected.
    pub fn enable_host_profiling(&mut self) {
        self.profiler = Some(Box::new(HostProfiler::new()));
    }

    /// Host-profile rows `(phase, calls, total_ns)`, when profiling is on.
    pub fn host_profile(&self) -> Option<&HostProfiler> {
        self.profiler.as_deref()
    }

    /// The host profile as a JSONL metrics stream (empty when off).
    pub fn host_profile_jsonl(&self) -> String {
        self.profiler
            .as_deref()
            .map(HostProfiler::jsonl)
            .unwrap_or_default()
    }

    /// Snapshot the full instrumentation registry: named counters and
    /// histograms from every subsystem (see [`crate::stats`] for the
    /// namespace). Cache, network, memory and bus counters are cumulative
    /// over the machine's life; `ce.*` and `prefetch.*` counters reset at
    /// each [`run`](Machine::run). Bracket a region with
    /// [`MachineStats::delta`].
    pub fn stats(&self) -> MachineStats {
        let faults_on = self.cfg.faults.as_ref().is_some_and(|p| p.enabled());
        let mut s = MachineStats::new();
        s.set("machine.cycles", self.now.0);

        // Cluster caches and their memories.
        let mut agg = CacheStats::default();
        for (c, cl) in self.clusters.iter().enumerate() {
            let cs = cl.cache.stats();
            let accesses = cs.hits + cs.misses;
            let [k_acc, k_hit, k_miss, k_evict, k_wb, k_bank, k_mshr] = &self.stat_keys.cache[c];
            s.set(k_acc.clone(), accesses);
            s.set(k_hit.clone(), cs.hits);
            s.set(k_miss.clone(), cs.misses);
            s.set(k_evict.clone(), cs.evictions);
            s.set(k_wb.clone(), cs.writebacks);
            s.set(k_bank.clone(), cs.bank_stalls);
            s.set(k_mshr.clone(), cs.mshr_stalls);
            let ms = cl.cache.mem_stats();
            let [k_fills, k_mwb, k_words] = &self.stat_keys.cmem[c];
            s.set(k_fills.clone(), ms.fills);
            s.set(k_mwb.clone(), ms.writebacks);
            s.set(k_words.clone(), ms.words);
            agg.hits += cs.hits;
            agg.misses += cs.misses;
            agg.evictions += cs.evictions;
            agg.writebacks += cs.writebacks;
            agg.bank_stalls += cs.bank_stalls;
            agg.mshr_stalls += cs.mshr_stalls;
        }
        s.set("cache.accesses", agg.hits + agg.misses);
        s.set("cache.hits", agg.hits);
        s.set("cache.misses", agg.misses);
        s.set("cache.evictions", agg.evictions);
        s.set("cache.writebacks", agg.writebacks);
        s.set("cache.bank_stalls", agg.bank_stalls);
        s.set("cache.mshr_stalls", agg.mshr_stalls);

        // Both omega networks.
        for (keys, net) in self
            .stat_keys
            .net
            .iter()
            .zip([&self.forward, &self.reverse])
        {
            let ns = net.stats();
            s.set(keys.packets_injected.clone(), ns.packets_injected);
            s.set(keys.packets_delivered.clone(), ns.packets_delivered);
            s.set(keys.words_moved.clone(), ns.words_moved);
            s.set(keys.blocked_moves.clone(), ns.blocked_moves);
            s.set(keys.conflicts.clone(), ns.arbitration_losses);
            for (stage, &n) in net.stage_conflicts().iter().enumerate() {
                s.set(keys.stage_conflicts[stage].clone(), n);
            }
            for (stage, &n) in net.stage_blocked().iter().enumerate() {
                s.set(keys.stage_blocked[stage].clone(), n);
            }
            s.set_histogram(
                keys.queue_depth.clone(),
                net.queue_depth_histogram().clone(),
            );
            if faults_on {
                s.set(keys.drops.clone(), ns.drops);
                s.set(keys.nacks.clone(), ns.nacks);
                s.set(keys.link_blocked.clone(), ns.link_blocked);
            }
        }

        // Global-memory banks and their Test-And-Operate sync processors.
        let gs = self.gmem.total_stats();
        s.set("gmem.accesses", gs.requests);
        s.set("gmem.sync_ops", gs.sync_requests);
        s.set("gmem.busy_cycles", gs.busy_cycles);
        s.set("gmem.conflict_stalls", gs.conflict_stall_cycles);
        s.set("gmem.reply_stalls", gs.reply_stall_cycles);
        if faults_on {
            s.set("gmem.nacks", gs.nacks);
        }
        for (bank, ms) in self.gmem.per_module_stats().enumerate() {
            let [k_acc, k_sync, k_conf] = &self.stat_keys.gmem_bank[bank];
            s.set(k_acc.clone(), ms.requests);
            s.set(k_sync.clone(), ms.sync_requests);
            s.set(k_conf.clone(), ms.conflict_stall_cycles);
        }

        // Concurrency control buses.
        let mut bus_agg = CcBusStats::default();
        for (c, cl) in self.clusters.iter().enumerate() {
            let bs = cl.ccbus.stats();
            let [k_disp, k_creq, k_arr, k_rel, k_wait, k_sdo] = &self.stat_keys.ccbus[c];
            s.set(k_disp.clone(), bs.dispatches);
            s.set(k_creq.clone(), bs.counter_requests);
            s.set(k_arr.clone(), bs.barrier_arrivals);
            s.set(k_rel.clone(), bs.barrier_releases);
            s.set(k_wait.clone(), bs.barrier_wait_cycles);
            s.set(k_sdo.clone(), bs.sdoall_posts);
            bus_agg.dispatches += bs.dispatches;
            bus_agg.counter_requests += bs.counter_requests;
            bus_agg.barrier_arrivals += bs.barrier_arrivals;
            bus_agg.barrier_releases += bs.barrier_releases;
            bus_agg.barrier_wait_cycles += bs.barrier_wait_cycles;
            bus_agg.sdoall_posts += bs.sdoall_posts;
        }
        s.set("ccbus.dispatches", bus_agg.dispatches);
        s.set("ccbus.counter_requests", bus_agg.counter_requests);
        s.set("ccbus.barrier_arrivals", bus_agg.barrier_arrivals);
        s.set("ccbus.barrier_releases", bus_agg.barrier_releases);
        s.set("ccbus.barrier_wait_cycles", bus_agg.barrier_wait_cycles);
        s.set("ccbus.sdoall_posts", bus_agg.sdoall_posts);

        // TLBs and paging.
        let mut tlb = TlbStats::default();
        for cl in &self.clusters {
            let ts = cl.tlb.stats();
            tlb.hits += ts.hits;
            tlb.misses += ts.misses;
        }
        s.set("tlb.hits", tlb.hits);
        s.set("tlb.misses", tlb.misses);
        s.set("vm.hard_faults", self.page_table.hard_faults());
        s.set("vm.soft_faults", self.page_table.soft_faults());

        // Prefetch units and CEs (reset per run with the engines).
        let mut pf = PrefetchStats::default();
        let mut ce_busy = 0u64;
        let mut ce_idle = 0u64;
        let mut ce_stall_mem = 0u64;
        let mut ce_stall_sync = 0u64;
        for e in self.engines.iter().flatten() {
            pf.merge(&e.prefetch_stats_raw());
            let cs = e.stats();
            let [k_busy, k_idle, k_smem, k_ssync, k_flops, k_vec, k_tlb, k_pf, k_vm] =
                &self.stat_keys.ce[e.id().0];
            s.set(k_busy.clone(), cs.busy);
            s.set(k_idle.clone(), cs.idle);
            s.set(k_smem.clone(), cs.stall_mem);
            s.set(k_ssync.clone(), cs.stall_sync);
            s.set(k_flops.clone(), cs.flops);
            s.set(k_vec.clone(), cs.vector_elements);
            s.set(k_tlb.clone(), cs.tlb_misses);
            s.set(k_pf.clone(), cs.page_faults);
            s.set(k_vm.clone(), cs.vm_cycles);
            ce_busy += cs.busy;
            ce_idle += cs.idle;
            ce_stall_mem += cs.stall_mem;
            ce_stall_sync += cs.stall_sync;
        }
        s.set("ce.busy", ce_busy);
        s.set("ce.idle", ce_idle);
        s.set("ce.stall_mem", ce_stall_mem);
        s.set("ce.stall_sync", ce_stall_sync);
        s.set("prefetch.fires", pf.fires);
        s.set("prefetch.requests", pf.requests);
        s.set("prefetch.words_returned", pf.words_returned);
        s.set("prefetch.stale_words", pf.stale_words);
        s.set("prefetch.page_suspend_cycles", pf.page_suspend_cycles);
        s.set("prefetch.inject_stall_cycles", pf.inject_stall_cycles);
        s.set_histogram("prefetch.latency", self.latency_histogram.clone());

        // Static program shape, computed by the lowering pass on reference
        // machines too (identical registries both ways).
        // Absent before the first run so pre-load snapshots stay
        // byte-identical to earlier releases.
        if let Some(pm) = self.program_meta {
            s.set("program.ops", pm.source_ops as u64);
            s.set("program.uops", pm.uops as u64);
            s.set("program.fused_ops", pm.fused_ops as u64);
            s.set("program.max_loop_depth", pm.max_loop_depth as u64);
        }

        // Fault-recovery counters: absent on the fault-free machine so its
        // registry snapshot is byte-identical to pre-fault-injection runs.
        if faults_on {
            let mut fc = FaultCtlStats::default();
            let mut retry_latency = Histogrammer::with_bins(RETRY_LATENCY_BINS);
            for e in self.engines.iter().flatten() {
                fc.merge(&e.fault_stats());
                if let Some(h) = e.fault_retry_latency() {
                    retry_latency.merge(h);
                }
            }
            s.set("fault.retries", fc.retries);
            s.set("fault.nacks", fc.nacks);
            s.set("fault.timeouts", fc.timeouts);
            s.set("prefetch.retries", pf.retries);
            s.set_histogram("fault.retry_latency", retry_latency);
        }

        // The monitoring hardware itself.
        s.set("tracer.events", self.tracer.events().len() as u64);
        s.set("tracer.dropped", self.tracer.dropped());

        // Journey tracing: absent when disabled, so the registry snapshot
        // stays byte-identical to untraced runs.
        if self.cfg.trace.as_ref().is_some_and(|p| p.enabled()) {
            let journeys = trace::assemble(&self.trace_store.events);
            s.set("trace.events", self.trace_store.events.len() as u64);
            s.set("trace.dropped", self.trace_store.dropped);
            s.set("trace.journeys", journeys.len() as u64);
            s.set("trace.episodes", trace::episodes(&journeys).len() as u64);
        }
        s
    }

    /// Allocate a self-scheduling counter.
    pub fn alloc_counter(&mut self, scope: CounterScope) -> CounterId {
        let def = match scope {
            CounterScope::Cluster(cluster) => {
                let slot = self.clusters[cluster.0].ccbus.alloc_counter();
                CounterDef::Cluster { cluster, slot }
            }
            CounterScope::Global => {
                let base = self.alloc_sync_base();
                CounterDef::Global { base_addr: base }
            }
            CounterScope::SdoallGlobal => {
                let base = self.alloc_sync_base();
                CounterDef::GlobalShared { base_addr: base }
            }
        };
        self.counters.push(def);
        CounterId(self.counters.len() - 1)
    }

    /// Allocate a barrier for `expected` participants.
    pub fn alloc_barrier(&mut self, scope: BarrierScope, expected: u32) -> BarrierId {
        let base_addr = match scope {
            BarrierScope::Cluster(_) => {
                let slot = self.next_bus_barrier_slot;
                self.next_bus_barrier_slot += 1;
                slot as u64
            }
            BarrierScope::Global => self.alloc_sync_base(),
        };
        self.barriers.push(BarrierDef {
            scope,
            expected,
            base_addr,
        });
        BarrierId(self.barriers.len() - 1)
    }

    fn alloc_sync_base(&mut self) -> u64 {
        let slot = self.next_sync_slot;
        self.next_sync_slot += 1;
        // The +1 keeps successive slots (and successive epochs) on
        // different memory modules.
        SYNC_REGION_BASE + slot * (EPOCH_SPACING + 1)
    }

    /// Run `programs` (one per CE) to completion.
    ///
    /// # Errors
    ///
    /// * [`MachineError::NoSuchCe`] if a program targets a CE outside the
    ///   configured machine.
    /// * [`MachineError::BadProgram`] if a program references an
    ///   unallocated counter or barrier.
    /// * [`MachineError::CycleLimitExceeded`] if the run does not finish
    ///   within `limit` cycles (almost always a deadlocked barrier).
    pub fn run(&mut self, programs: Vec<(CeId, Program)>, limit: u64) -> Result<RunReport> {
        let stats_start = self.prepare_run(programs)?;
        let start = self.now;
        let watchdog = Watchdog::new(start);
        self.run_prepared(start, limit, stats_start, watchdog)
    }

    /// Everything [`Machine::run`] does before entering the run loop:
    /// reset per-run state, validate and lower the programs, build the
    /// engines, and take the registry baseline. Shared with
    /// [`Machine::resume`], which builds the identical engines and then
    /// overwrites the state from the snapshot.
    pub(crate) fn prepare_run(&mut self, programs: Vec<(CeId, Program)>) -> Result<MachineStats> {
        let total = self.cfg.total_ces();
        // Fresh engines restart their counter/barrier epochs at zero, so
        // stale synchronization words from a previous run must go.
        self.gmem.clear_sync();
        self.page_table.reset();
        for cl in &mut self.clusters {
            cl.ccbus.reset();
            cl.tlb.flush();
        }
        self.engines = (0..total).map(|_| None).collect();
        // Cleared before the baseline snapshot below and re-set after it,
        // so each run's `program.*` keys pass through the delta intact
        // instead of cancelling against the previous run's values.
        self.program_meta = None;
        // Compile each distinct program once (CEs loaded with the same
        // shared block reuse the compilation). A reference machine lowers
        // too — it still wants the static metadata — but keeps its
        // engines on the tree-walking interpreter.
        let mut lower_cache: Vec<(usize, Arc<crate::lower::LProgram>)> = Vec::new();
        let mut meta = crate::lower::LowerMeta::default();
        for (ce, program) in programs {
            if ce.0 >= total {
                return Err(MachineError::NoSuchCe(ce));
            }
            self.validate_program(ce, &program)?;
            let key = Arc::as_ptr(program.body()).cast::<u8>() as usize;
            let lp = match lower_cache.iter().find(|(k, _)| *k == key) {
                Some((_, lp)) => Arc::clone(lp),
                None => {
                    let lp = crate::lower::lower(&program, self.cfg.ce.vector_startup);
                    lower_cache.push((key, Arc::clone(&lp)));
                    lp
                }
            };
            let lm = lp.meta();
            meta.source_ops += lm.source_ops;
            meta.uops += lm.uops;
            meta.fused_ops += lm.fused_ops;
            meta.max_loop_depth = meta.max_loop_depth.max(lm.max_loop_depth);
            self.engines[ce.0] = Some(CeEngine::new(
                ce,
                &self.cfg,
                Arc::clone(&self.ce_cfg),
                program,
                (!self.reference).then_some(lp),
            ));
        }

        let start = self.now;
        self.timeline.reset(start, total);
        self.fastfwd_skipped = 0;
        self.ce_wake = Cycle::ZERO;
        // Journey spans reset with the engines: the store (and the
        // `trace.*` registry keys) covers exactly the upcoming run.
        self.trace_store.clear();
        let stats_start = self.stats();
        // After the snapshot: the delta keeps counters absent from the
        // baseline, so the report carries this run's absolute values.
        self.program_meta = Some(meta);
        Ok(stats_start)
    }

    /// The run loop and report of [`Machine::run`], entered with a
    /// prepared machine. [`Machine::resume`] supplies the interrupted
    /// run's start, budget, baseline and watchdog instead of fresh ones.
    pub(crate) fn run_prepared(
        &mut self,
        start: Cycle,
        limit: u64,
        stats_start: MachineStats,
        mut watchdog: Watchdog,
    ) -> Result<RunReport> {
        self.run_loop(start, limit, &mut watchdog, &stats_start)?;
        Ok(self.report(start, &stats_start))
    }

    /// A deterministic digest of the machine's persistent memory state:
    /// every global-memory synchronization word and every cluster-cache
    /// tag array. Two runs of the same programs end with equal digests iff
    /// they performed the same memory-visible work — the determinism test
    /// suite compares this across thread counts.
    pub fn memory_digest(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::Hasher;
        let mut h = DefaultHasher::new();
        self.gmem.digest(&mut h);
        for cl in &self.clusters {
            cl.cache.digest(&mut h);
        }
        h.finish()
    }

    fn report(&mut self, start: Cycle, stats_start: &MachineStats) -> RunReport {
        let cycles = self.now.saturating_since(start);
        let mut flops = 0;
        let mut ce_stats = Vec::new();
        let mut prefetch = PrefetchStats::default();
        let mut prefetch_per_ce = Vec::new();
        for e in self.engines.iter_mut().flatten() {
            let s = e.stats();
            flops += s.flops;
            ce_stats.push((e.id(), s));
            let p = e.prefetch_stats();
            prefetch.merge(&p);
            prefetch_per_ce.push((e.id(), p));
        }
        // Drain journey stamps into the span store in a fixed order —
        // engines in CE order (controller then PFU), forward network,
        // reverse network, memory modules in bank order — so the store's
        // contents are identical across thread counts and on the ticked
        // reference. (Assembly sorts anyway; the fixed order makes the raw
        // event stream comparable too.)
        for e in self.engines.iter_mut().flatten() {
            let (mut ev, d) = e.drain_trace();
            self.trace_store.events.append(&mut ev);
            self.trace_store.dropped += d;
        }
        for net in [&mut self.forward, &mut self.reverse] {
            if let Some((mut ev, d)) = net.drain_trace() {
                self.trace_store.events.append(&mut ev);
                self.trace_store.dropped += d;
            }
        }
        self.trace_store.dropped += self.gmem.drain_trace(&mut self.trace_store.events);
        // Snapshot after the loops above: prefetch traces are flushed and
        // journey spans drained, so the registry sees final per-run values.
        let stats = self.stats().delta(stats_start);
        RunReport {
            cycles,
            seconds: Cycle(cycles).to_seconds(self.cfg.cycle_ns),
            flops,
            mflops: mflops(flops, cycles, self.cfg.cycle_ns),
            ce_stats,
            prefetch,
            prefetch_per_ce,
            net_forward: self.forward.stats(),
            net_reverse: self.reverse.stats(),
            cache: self.clusters.iter().map(|c| c.cache.stats()).collect(),
            memory: self.gmem.total_stats(),
            tlb: self.clusters.iter().map(|c| c.tlb.stats()).collect(),
            ccbus: self.clusters.iter().map(|c| c.ccbus.stats()).collect(),
            stats,
            resumed_from: None,
        }
    }

    fn validate_program(&self, ce: CeId, program: &Program) -> Result<()> {
        fn walk(ops: &[Op], counters: usize, barriers: usize, ce: CeId) -> Result<()> {
            for op in ops {
                match op {
                    Op::SelfSchedLoop { counter, body, .. } => {
                        if counter.0 >= counters {
                            return Err(MachineError::BadProgram {
                                ce,
                                reason: format!("unallocated counter {}", counter.0),
                            });
                        }
                        walk(body, counters, barriers, ce)?;
                    }
                    Op::Repeat { body, .. } => walk(body, counters, barriers, ce)?,
                    Op::Barrier { barrier } if barrier.0 >= barriers => {
                        return Err(MachineError::BadProgram {
                            ce,
                            reason: format!("unallocated barrier {}", barrier.0),
                        });
                    }
                    _ => {}
                }
            }
            Ok(())
        }
        walk(program.body(), self.counters.len(), self.barriers.len(), ce)
    }
}
