//! Machine configuration.
//!
//! [`MachineConfig`] collects every architectural parameter of the simulated
//! machine. [`MachineConfig::cedar`] returns the configuration of the real
//! Cedar as described in the ISCA '93 paper (four Alliant FX/8 clusters of
//! eight CEs, 512 KB cluster caches, a 32-port shuffle-exchange network of
//! 8×8 crossbars, 64 MB of double-word-interleaved global memory, per-CE
//! prefetch units). Alternative configurations support the ablation studies
//! in `cedar-bench`.

use crate::fault::FaultPlan;
use crate::time::CEDAR_CYCLE_NS;

/// Parameters of the shared, interleaved cluster cache (one per cluster).
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Total capacity in bytes (Cedar: 512 KB).
    pub capacity_bytes: usize,
    /// Line size in bytes (Cedar: 32 B = 4 words).
    pub line_bytes: usize,
    /// Set associativity.
    pub associativity: usize,
    /// Number of interleaved banks (Cedar: 4).
    pub banks: usize,
    /// Words the whole cache can deliver per cycle (Cedar: 8; one vector
    /// stream per CE in an 8-CE cluster).
    pub words_per_cycle: u32,
    /// Cycles from a bank accepting a request to data valid on a hit.
    pub hit_latency: u32,
    /// Maximum outstanding misses per CE (Cedar: lockup-free, 2).
    pub max_outstanding_misses_per_ce: u32,
}

impl CacheConfig {
    /// The Alliant FX/8 shared-cache configuration used by Cedar.
    pub fn cedar() -> Self {
        CacheConfig {
            capacity_bytes: 512 * 1024,
            line_bytes: 32,
            associativity: 2,
            banks: 4,
            words_per_cycle: 8,
            hit_latency: 2,
            max_outstanding_misses_per_ce: 2,
        }
    }

    /// Words per cache line.
    pub fn line_words(&self) -> usize {
        self.line_bytes / 8
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.capacity_bytes / self.line_bytes / self.associativity
    }
}

/// Parameters of one cluster's local (interleaved) memory.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterMemoryConfig {
    /// Capacity in bytes (Cedar: 32 MB per cluster).
    pub capacity_bytes: usize,
    /// Sustained bandwidth in 64-bit words per cycle for the whole cluster
    /// (Cedar: 192 MB/s ≈ 4 words per 170 ns cycle).
    pub words_per_cycle: u32,
    /// Access latency in cycles for the first word of a line fill.
    pub latency: u32,
}

impl ClusterMemoryConfig {
    /// The Alliant FX/8 cluster-memory configuration.
    pub fn cedar() -> Self {
        ClusterMemoryConfig {
            capacity_bytes: 32 * 1024 * 1024,
            words_per_cycle: 4,
            latency: 8,
        }
    }
}

/// Parameters of the global shuffle-exchange networks (forward and reverse).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Crossbar radix (Cedar: 8×8 switches).
    pub radix: usize,
    /// Queue capacity, in words, on each switch input and output port
    /// (Cedar: two-word queues).
    pub queue_words: usize,
    /// Words a switch moves per port per cycle (Cedar: 1).
    pub words_per_cycle: u32,
}

impl NetworkConfig {
    /// The Cedar global-network configuration. The network stages are
    /// clocked at twice the 170 ns CE instruction cycle (85 ns switch
    /// stages), so each port moves up to two 64-bit words per CE cycle.
    pub fn cedar() -> Self {
        NetworkConfig {
            radix: 8,
            queue_words: 2,
            words_per_cycle: 2,
        }
    }
}

/// Parameters of the global shared memory.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalMemoryConfig {
    /// Capacity in bytes (Cedar: 64 MB).
    pub capacity_bytes: usize,
    /// Number of interleaved modules; the paper's global memory matches the
    /// network at one module per port (32).
    pub modules: usize,
    /// Cycles a module is busy servicing one 64-bit word access. Two cycles
    /// per word yields the paper's 24 MB/s-per-processor peak
    /// (768 MB/s across 32 modules).
    pub service_cycles: u32,
    /// Extra cycles for an indivisible synchronization (Test-And-Operate)
    /// request, performed by the module's synchronization processor.
    pub sync_extra_cycles: u32,
    /// Capacity of each module's input request queue, in requests.
    pub request_queue: usize,
}

impl GlobalMemoryConfig {
    /// The Cedar global-memory configuration.
    pub fn cedar() -> Self {
        GlobalMemoryConfig {
            capacity_bytes: 64 * 1024 * 1024,
            modules: 32,
            service_cycles: 2,
            sync_extra_cycles: 2,
            request_queue: 8,
        }
    }

    /// Words of global memory.
    pub fn capacity_words(&self) -> u64 {
        (self.capacity_bytes / 8) as u64
    }
}

/// Parameters of the per-CE data prefetch unit.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefetchConfig {
    /// Prefetch buffer capacity in words (Cedar: 512).
    pub buffer_words: u32,
    /// Maximum requests issued without pausing (Cedar: 512, within a page).
    pub max_burst: u32,
    /// Requests the PFU can inject per cycle (Cedar: 1).
    pub issue_per_cycle: u32,
    /// Whether crossing a 4 KB page boundary suspends the PFU until the CE
    /// supplies the next physical address (true on Cedar: the PFU only sees
    /// physical addresses).
    pub page_suspend: bool,
    /// Cycles the CE takes to re-arm a suspended PFU with the next page's
    /// first physical address.
    pub page_resume_cycles: u32,
}

impl PrefetchConfig {
    /// The Cedar PFU configuration.
    pub fn cedar() -> Self {
        PrefetchConfig {
            buffer_words: 512,
            max_burst: 512,
            issue_per_cycle: 1,
            page_suspend: true,
            page_resume_cycles: 6,
        }
    }
}

/// Parameters of each computational element (CE).
#[derive(Debug, Clone, PartialEq)]
pub struct CeConfig {
    /// Vector startup cost in cycles. With 32-element vectors this yields
    /// the paper's 274 MFLOPS "effective peak" against the 376 MFLOPS
    /// absolute peak (ratio ≈ 0.73 at 12 cycles).
    pub vector_startup: u32,
    /// Vector register length in 64-bit words (Cedar: 32; eight registers).
    pub vector_register_words: u32,
    /// Peak floating-point operations per cycle with chaining (Cedar: 2,
    /// i.e. 11.8 MFLOPS at 170 ns).
    pub flops_per_cycle: u32,
    /// Maximum outstanding direct (non-prefetched) global requests
    /// (Cedar: 2).
    pub max_outstanding_global: u32,
    /// CE-side cycles from a global reply landing to the datum being
    /// usable (and the outstanding-request slot freeing). Together with the
    /// ~8-cycle network+memory round trip this forms the paper's 13-cycle
    /// global-memory latency.
    pub global_read_extra: u32,
    /// Cycles between a CE's poll reads while spinning on a global barrier
    /// (runtime-library spin loop body).
    pub barrier_poll_cycles: u32,
}

impl CeConfig {
    /// The Cedar CE configuration.
    pub fn cedar() -> Self {
        CeConfig {
            vector_startup: 12,
            vector_register_words: 32,
            flops_per_cycle: 2,
            max_outstanding_global: 2,
            global_read_extra: 7,
            barrier_poll_cycles: 16,
        }
    }
}

/// Parameters of the per-cluster concurrency control bus.
#[derive(Debug, Clone, PartialEq)]
pub struct CcBusConfig {
    /// Cycles for a `concurrent start` broadcast that spreads a loop across
    /// the cluster ("a few microseconds" in the paper, dominated by the
    /// software around it; the bus itself is fast).
    pub start_cycles: u32,
    /// Cycles for one self-schedule (next-iteration) bus transaction.
    pub dispatch_cycles: u32,
    /// Cycles for a join/barrier once the last CE arrives.
    pub join_cycles: u32,
}

impl CcBusConfig {
    /// The Cedar concurrency-control-bus configuration.
    pub fn cedar() -> Self {
        CcBusConfig {
            start_cycles: 12,
            dispatch_cycles: 2,
            join_cycles: 4,
        }
    }
}

/// Virtual-memory parameters (4 KB pages on Cedar).
#[derive(Debug, Clone, PartialEq)]
pub struct VmConfig {
    /// Whether address translation (TLB/page-fault modelling) is enabled.
    pub enabled: bool,
    /// Page size in 64-bit words (4 KB = 512 words).
    pub page_words: u64,
    /// Per-cluster TLB entries.
    pub tlb_entries: usize,
    /// Cycles to service a TLB miss whose PTE is valid in global memory
    /// (the dominant fault in the paper's TRFD analysis).
    pub tlb_miss_cycles: u32,
    /// Cycles to service a hard page fault (Xylem involvement).
    pub page_fault_cycles: u32,
}

impl VmConfig {
    /// The Cedar virtual-memory configuration. Translation is disabled by
    /// default; experiments that study paging (TRFD) switch it on.
    pub fn cedar() -> Self {
        VmConfig {
            enabled: false,
            page_words: 512,
            tlb_entries: 256,
            tlb_miss_cycles: 300,
            page_fault_cycles: 30_000,
        }
    }
}

/// Complete machine configuration.
///
/// Use [`MachineConfig::cedar`] for the paper's machine, or start from it
/// and adjust fields for ablations:
///
/// ```
/// use cedar_machine::config::MachineConfig;
/// let mut cfg = MachineConfig::cedar();
/// cfg.clusters = 2; // a half-size Cedar
/// cfg.validate().unwrap();
/// assert_eq!(cfg.total_ces(), 16);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of clusters (Cedar: 4).
    pub clusters: usize,
    /// CEs per cluster (Cedar: 8).
    pub ces_per_cluster: usize,
    /// CE instruction cycle time in nanoseconds (Cedar: 170 ns).
    pub cycle_ns: f64,
    /// Simulation host threads.
    ///
    /// `1` (the default) steps the whole machine on the calling thread.
    /// `2` or more splits each simulated cycle into two lanes on two
    /// host threads — the forward network and global memory beside the
    /// reverse network and the clusters (see `parallel.rs`); a cycle has
    /// no third independent part, so values above 2 mean 2. Results are
    /// bit-for-bit identical at every count (see `Machine::run`).
    pub num_threads: usize,
    pub ce: CeConfig,
    pub cache: CacheConfig,
    pub cluster_memory: ClusterMemoryConfig,
    pub network: NetworkConfig,
    pub global_memory: GlobalMemoryConfig,
    pub prefetch: PrefetchConfig,
    pub ccbus: CcBusConfig,
    pub vm: VmConfig,
    /// Deterministic fault-injection plan, or `None` (the default) for the
    /// fault-free machine. A plan whose rates and outage lists are all
    /// zero/empty behaves bit-for-bit like `None` (tested).
    pub faults: Option<FaultPlan>,
    /// Deterministic causal-tracing plan, or `None` (the default) for the
    /// untraced machine. A plan with `sample_ppm == 0` behaves bit-for-bit
    /// like `None` (tested): no journey is sampled, no `trace.*` stats key
    /// is emitted.
    pub trace: Option<crate::trace::TracePlan>,
    /// Simulated cycles between automatic mid-run checkpoints, or `0`
    /// (the default) for no auto-checkpointing. Requires
    /// [`checkpoint_path`](Self::checkpoint_path). Checkpoints are taken
    /// between run-loop rounds only, so the interval is a floor, not an
    /// exact period. Purely an availability knob: the simulated
    /// results are bit-for-bit identical with checkpointing on or off,
    /// and a run resumed from a checkpoint finishes bit-identical to the
    /// uninterrupted run (tested).
    pub checkpoint_every: u64,
    /// Where the auto-checkpoint writes its snapshot. Each checkpoint
    /// atomically replaces the previous one (temp-file-and-rename), so
    /// the file always holds a complete snapshot — a crash mid-write can
    /// never leave a torn file behind, it loses at most the checkpoint
    /// being written. The write runs on a thread of its own while the
    /// simulation continues; when the run returns, the file is the last
    /// checkpoint that came due, and a failed write has failed the run.
    pub checkpoint_path: Option<std::path::PathBuf>,
}

impl MachineConfig {
    /// The full 4-cluster, 32-CE Cedar of the ISCA '93 paper.
    pub fn cedar() -> Self {
        MachineConfig {
            clusters: 4,
            ces_per_cluster: 8,
            cycle_ns: CEDAR_CYCLE_NS,
            num_threads: 1,
            ce: CeConfig::cedar(),
            cache: CacheConfig::cedar(),
            cluster_memory: ClusterMemoryConfig::cedar(),
            network: NetworkConfig::cedar(),
            global_memory: GlobalMemoryConfig::cedar(),
            prefetch: PrefetchConfig::cedar(),
            ccbus: CcBusConfig::cedar(),
            vm: VmConfig::cedar(),
            faults: None,
            trace: None,
            checkpoint_every: 0,
            checkpoint_path: None,
        }
    }

    /// A Cedar restricted to the first `clusters` clusters, as used in the
    /// paper's 1–4 cluster sweeps (the network and global memory keep their
    /// full size; idle CEs simply issue no traffic, as on the real machine).
    pub fn cedar_with_clusters(clusters: usize) -> Self {
        let mut cfg = Self::cedar();
        cfg.clusters = clusters;
        cfg
    }

    /// The same configuration with `num_threads` simulation threads.
    pub fn with_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// The same configuration with `num_threads` taken from the
    /// `CEDAR_NUM_THREADS` environment variable when set (and parseable);
    /// unchanged otherwise. The experiment drivers route every machine they
    /// build through this, so a CI leg or a user can switch the whole
    /// experiment suite to the parallel engine without touching code.
    pub fn with_env_threads(mut self) -> Self {
        if let Some(n) = threads_from_env() {
            self.num_threads = n;
        }
        self
    }

    /// The same configuration with the given fault-injection plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The same configuration with the given causal-tracing plan.
    pub fn with_trace(mut self, plan: crate::trace::TracePlan) -> Self {
        self.trace = Some(plan);
        self
    }

    /// The same configuration with mid-run auto-checkpointing every
    /// `every` cycles (`0` switches it off) into `path`.
    pub fn with_checkpoint(mut self, every: u64, path: impl Into<std::path::PathBuf>) -> Self {
        self.checkpoint_every = every;
        self.checkpoint_path = Some(path.into());
        self
    }

    /// The same configuration with the checkpoint knobs taken from the
    /// `CEDAR_CHECKPOINT_EVERY` / `CEDAR_CHECKPOINT_PATH` environment
    /// variables when set; unchanged otherwise. The experiment drivers
    /// route every machine they build through this.
    ///
    /// # Errors
    ///
    /// [`MachineError`](crate::error::MachineError::InvalidConfig) when
    /// either variable is set to garbage — checkpointing silently off
    /// when a CI leg asked for it would void the crash-recovery coverage,
    /// so these knobs parse strictly (see [`crate::env`]).
    pub fn with_env_checkpoint(mut self) -> Result<Self, crate::error::MachineError> {
        if let Some(every) = checkpoint_every_from_env()? {
            self.checkpoint_every = every;
        }
        if let Some(path) = checkpoint_path_from_env()? {
            self.checkpoint_path = Some(path);
        }
        Ok(self)
    }

    /// Total CEs in the machine.
    pub fn total_ces(&self) -> usize {
        self.clusters * self.ces_per_cluster
    }

    /// Check internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint (zero-sized components, non-power-of-radix network, cache
    /// geometry that does not divide evenly, and similar).
    pub fn validate(&self) -> Result<(), String> {
        if self.clusters == 0 {
            return Err("machine must have at least one cluster".into());
        }
        if self.ces_per_cluster == 0 {
            return Err("clusters must have at least one CE".into());
        }
        if self.num_threads == 0 {
            return Err("the machine needs at least one simulation thread".into());
        }
        if self.cycle_ns <= 0.0 || self.cycle_ns.is_nan() {
            return Err("cycle time must be positive".into());
        }
        crate::network::omega::check_shape(self.network_ports(), &self.network)?;
        if self.global_memory.modules == 0 {
            return Err("global memory must have at least one module".into());
        }
        if self.global_memory.service_cycles == 0 {
            return Err("global memory service time must be nonzero".into());
        }
        if self.cache.line_bytes == 0 || !self.cache.line_bytes.is_multiple_of(8) {
            return Err("cache line size must be a nonzero multiple of 8 bytes".into());
        }
        if !self
            .cache
            .capacity_bytes
            .is_multiple_of(self.cache.line_bytes * self.cache.associativity)
        {
            return Err("cache capacity must divide evenly into sets".into());
        }
        if self.cache.banks == 0 {
            return Err("cache must have at least one bank".into());
        }
        if self.ce.vector_register_words == 0 {
            return Err("vector registers must hold at least one word".into());
        }
        if self.prefetch.buffer_words == 0 {
            return Err("prefetch buffer must hold at least one word".into());
        }
        if self.vm.page_words == 0 {
            return Err("page size must be nonzero".into());
        }
        // At zero each of these either panics while the machine is built
        // (the TLB is built with the VM model off too) or leaves a stream
        // that can never issue, so the run stalls until the budget or the
        // watchdog stops it.
        let zero = [
            ("vm.tlb_entries", self.vm.tlb_entries == 0),
            ("network.words_per_cycle", self.network.words_per_cycle == 0),
            (
                "global_memory.request_queue",
                self.global_memory.request_queue == 0,
            ),
            (
                "prefetch.issue_per_cycle",
                self.prefetch.issue_per_cycle == 0,
            ),
            ("prefetch.max_burst", self.prefetch.max_burst == 0),
            (
                "ce.max_outstanding_global",
                self.ce.max_outstanding_global == 0,
            ),
            (
                "cache.max_outstanding_misses_per_ce",
                self.cache.max_outstanding_misses_per_ce == 0,
            ),
        ];
        if let Some((field, _)) = zero.iter().find(|(_, is_zero)| *is_zero) {
            return Err(format!("{field} must be nonzero"));
        }
        if let Some(plan) = &self.faults {
            plan.validate(self.network_ports(), self.global_memory.modules)?;
        }
        if let Some(plan) = &self.trace {
            plan.validate()?;
        }
        if self.checkpoint_every > 0 && self.checkpoint_path.is_none() {
            return Err("checkpoint interval set without a checkpoint path".into());
        }
        Ok(())
    }

    /// Number of ports each global network needs: enough for every CE and
    /// every memory module.
    pub fn network_ports(&self) -> usize {
        self.total_ces_full().max(self.global_memory.modules)
    }

    /// CEs the *hardware* provides (ports are sized for the full machine
    /// even when an experiment uses fewer clusters).
    fn total_ces_full(&self) -> usize {
        self.clusters.max(4) * self.ces_per_cluster
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::cedar()
    }
}

// The environment-knob parsers moved to `crate::env` (one module, one
// documented strict/lenient policy); re-exported here so call sites keep
// their historical `config::` paths.
pub use crate::env::{
    checkpoint_every_from_env, checkpoint_path_from_env, fault_seed_from_env, parse_env_threads,
    threads_from_env, trace_plan_from_env,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cedar_config_is_valid_and_has_paper_parameters() {
        let cfg = MachineConfig::cedar();
        cfg.validate().unwrap();
        assert_eq!(cfg.total_ces(), 32);
        assert_eq!(cfg.cache.capacity_bytes, 512 * 1024);
        assert_eq!(cfg.cache.line_bytes, 32);
        assert_eq!(cfg.cache.line_words(), 4);
        assert_eq!(cfg.global_memory.modules, 32);
        assert_eq!(cfg.prefetch.buffer_words, 512);
        assert_eq!(cfg.vm.page_words, 512);
        assert_eq!(cfg.ce.vector_register_words, 32);
    }

    #[test]
    fn cache_geometry() {
        let c = CacheConfig::cedar();
        // 512KB / 32B lines / 2-way = 8192 sets.
        assert_eq!(c.sets(), 8192);
    }

    #[test]
    fn cluster_subset_keeps_full_network() {
        let cfg = MachineConfig::cedar_with_clusters(1);
        assert_eq!(cfg.total_ces(), 8);
        // The hardware still has 32 ports / modules.
        assert_eq!(cfg.network_ports(), 32);
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut cfg = MachineConfig::cedar();
        cfg.clusters = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = MachineConfig::cedar();
        cfg.cache.line_bytes = 12;
        assert!(cfg.validate().is_err());

        let mut cfg = MachineConfig::cedar();
        cfg.network.radix = 1;
        assert!(cfg.validate().is_err());

        // Shapes the omega's fixed-size switch state cannot hold: each of
        // these used to pass validation and panic in `Machine::new`.
        let mut cfg = MachineConfig::cedar();
        cfg.network.queue_words = 9;
        assert!(cfg.validate().is_err());

        let mut cfg = MachineConfig::cedar();
        cfg.network.radix = 17;
        assert!(cfg.validate().is_err());

        let mut cfg = MachineConfig::cedar();
        cfg.network.radix = 2;
        cfg.global_memory.modules = (1 << 16) + 1; // 17 radix-2 stages
        assert!(cfg.validate().is_err());
        assert!(matches!(
            crate::machine::Machine::new(cfg),
            Err(crate::error::MachineError::InvalidConfig(_))
        ));

        let mut cfg = MachineConfig::cedar();
        cfg.global_memory.service_cycles = 0;
        assert!(cfg.validate().is_err());
    }

    /// Zero capacities that used to pass validation and then panic in
    /// `Machine::new` or hang the run are `InvalidConfig` naming the field.
    #[test]
    fn validate_rejects_zero_capacities_by_name() {
        type Zero = fn(&mut MachineConfig);
        let cases: [(&str, Zero); 7] = [
            ("vm.tlb_entries", |c| c.vm.tlb_entries = 0),
            ("network.words_per_cycle", |c| c.network.words_per_cycle = 0),
            ("global_memory.request_queue", |c| {
                c.global_memory.request_queue = 0
            }),
            ("prefetch.issue_per_cycle", |c| {
                c.prefetch.issue_per_cycle = 0
            }),
            ("prefetch.max_burst", |c| c.prefetch.max_burst = 0),
            ("ce.max_outstanding_global", |c| {
                c.ce.max_outstanding_global = 0
            }),
            ("cache.max_outstanding_misses_per_ce", |c| {
                c.cache.max_outstanding_misses_per_ce = 0
            }),
        ];
        for (field, zero) in cases {
            let mut cfg = MachineConfig::cedar();
            zero(&mut cfg);
            match crate::machine::Machine::new(cfg).err() {
                Some(crate::error::MachineError::InvalidConfig(msg)) => {
                    assert!(msg.contains(field), "{field}: message {msg:?}")
                }
                other => panic!("{field}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn peak_bandwidth_matches_paper() {
        let cfg = MachineConfig::cedar();
        // 32 modules, one word per 2 cycles each, 170ns cycles:
        // 32 * 8 bytes / (2 * 170ns) = 753 MB/s ~ the paper's 768 MB/s.
        let bytes_per_sec = cfg.global_memory.modules as f64 * 8.0
            / (cfg.global_memory.service_cycles as f64 * cfg.cycle_ns * 1e-9);
        assert!(bytes_per_sec > 700e6 && bytes_per_sec < 800e6);
    }

    #[test]
    fn thread_count_defaults_to_serial_and_validates() {
        let cfg = MachineConfig::cedar();
        assert_eq!(cfg.num_threads, 1);
        assert_eq!(cfg.with_threads(4).num_threads, 4);
        let mut cfg = MachineConfig::cedar();
        cfg.num_threads = 0;
        assert!(cfg.validate().is_err(), "zero threads cannot step anything");
    }

    #[test]
    fn fault_plan_is_validated_with_the_machine() {
        let mut plan = FaultPlan::none(1);
        plan.drop_per_million = 2_000_000; // > 100%
        let cfg = MachineConfig::cedar().with_faults(plan);
        assert!(cfg.validate().is_err());

        let cfg = MachineConfig::cedar().with_faults(FaultPlan::none(1));
        cfg.validate().unwrap();
    }
}
