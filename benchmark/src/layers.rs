//! The probe every harness-owned simulation goes through, and the
//! per-layer metrics derived from what it collects.
//!
//! A [`Probe`] wraps the public calls that make one simulation —
//! `Machine::new`, the program builder, `Machine::run` or
//! `resume_from_file` — sums the model counters of each `RunReport`, and,
//! when tracing, turns on the machine's host profiler and records a span
//! per call. An untraced probe does the same work without profiler and
//! spans; the difference between the two is the tracing overhead.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use cedar::machine::ids::CeId;
use cedar::machine::machine::{Machine, RunReport};
use cedar::machine::monitor::Histogrammer;
use cedar::machine::program::Program;
use cedar::machine::MachineConfig;

use crate::metrics::PER_LAYER;
use crate::span::{Open, Spans};

/// Registry counters summed over every run of a repetition.
const COUNTERS: &[&str] = &[
    "machine.cycles",
    "net.fwd.words_moved",
    "net.rev.words_moved",
    "net.fwd.conflicts",
    "net.rev.conflicts",
    "net.fwd.blocked_moves",
    "net.rev.blocked_moves",
    "net.fwd.drops",
    "net.rev.drops",
    "gmem.accesses",
    "gmem.sync_ops",
    "gmem.conflict_stalls",
    "ce.busy",
    "ce.stall_mem",
    "ce.stall_sync",
    "cache.accesses",
    "cache.hits",
    "prefetch.words_returned",
    "ccbus.barrier_wait_cycles",
    "program.uops",
    "program.fused_ops",
    "fault.retries",
    "fault.timeouts",
];

/// What one harness-owned repetition collected.
#[derive(Debug)]
pub struct Probe {
    traced: bool,
    pub spans: Spans,
    /// Wall time inside `Machine::run` / `resume_from_file`.
    run_wall: Duration,
    /// Wall time of each sweep point, in point order.
    point_walls: Vec<Duration>,
    point_started: Option<Instant>,
    counters: BTreeMap<&'static str, u64>,
    queue_depth: Histogrammer,
    prefetch_latency: Histogrammer,
    /// Host nanoseconds per `HostProfiler` tick region (traced only).
    host_ns: BTreeMap<&'static str, u64>,
    /// Host nanoseconds the parallel engine's workers waited at barriers.
    sync_wait_ns: u64,
    exchanges: u64,
    fastfwd_skipped: u64,
    stall_replays: u64,
    compile_ns: u64,
    flops: u64,
    sim_seconds: f64,
    /// Metrics only one workload can compute (`paper.err_pct`,
    /// `snapshot.save_ms`, …), set by that workload.
    extra: BTreeMap<&'static str, f64>,
}

impl Probe {
    pub fn new(traced: bool) -> Probe {
        Probe {
            traced,
            spans: Spans::new(traced),
            run_wall: Duration::ZERO,
            point_walls: Vec::new(),
            point_started: None,
            counters: BTreeMap::new(),
            queue_depth: Histogrammer::with_bins(64),
            prefetch_latency: Histogrammer::with_bins(512),
            host_ns: BTreeMap::new(),
            sync_wait_ns: 0,
            exchanges: 0,
            fastfwd_skipped: 0,
            stall_replays: 0,
            compile_ns: 0,
            flops: 0,
            sim_seconds: 0.0,
            extra: BTreeMap::new(),
        }
    }

    /// Record a workload-specific metric (a name from `PER_LAYER`).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.extra.insert(name, value);
    }

    /// The workload-specific metrics recorded with [`Probe::set`].
    pub fn extras(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.extra.iter().map(|(&k, &v)| (k, v))
    }

    /// Wall time spent inside `Machine::run` / `resume_from_file`.
    pub fn run_wall(&self) -> Duration {
        self.run_wall
    }

    /// Σ point wall: what a one-thread sweep of the points costs.
    pub fn points_wall(&self) -> Duration {
        self.point_walls.iter().sum()
    }

    /// Open sweep point `point`; everything until [`Probe::end_point`]
    /// is charged to it.
    pub fn begin_point(&mut self, point: usize) -> Open {
        self.point_started = Some(Instant::now());
        self.spans.begin("sweep.point", point)
    }

    pub fn end_point(&mut self, open: Open) {
        self.spans.end(open);
        let started = self
            .point_started
            .take()
            .expect("end_point without begin_point");
        self.point_walls.push(started.elapsed());
    }

    /// One simulation from public pieces: build the machine from `cfg`,
    /// let `stage` load its programs (a span named `stage_name`), then
    /// run it under `limit` — from the start, or continuing the snapshot
    /// at `resume`. The machine comes back with the result so the caller
    /// can fingerprint it.
    pub fn simulate(
        &mut self,
        point: usize,
        cfg: MachineConfig,
        limit: u64,
        resume: Option<&Path>,
        stage_name: &'static str,
        stage: impl FnOnce(&mut Machine) -> Vec<(CeId, Program)>,
    ) -> cedar::machine::Result<(cedar::machine::Result<RunReport>, Machine)> {
        let vector_startup = cfg.ce.vector_startup;
        let open = self.spans.begin("machine.new", point);
        let machine = Machine::new(cfg);
        self.spans.end(open);
        let mut m = machine?;
        if self.traced {
            m.enable_host_profiling();
        }
        let open = self.spans.begin(stage_name, point);
        let programs = stage(&mut m);
        self.spans.end(open);
        if self.traced {
            // `Machine::run` lowers each program itself; this extra,
            // discarded lowering exists only to time the compiler alone.
            let t = Instant::now();
            for (_, p) in &programs {
                std::hint::black_box(cedar::machine::lower::lower(p, vector_startup));
            }
            self.compile_ns += t.elapsed().as_nanos() as u64;
        }
        let open = self.spans.begin(
            if resume.is_some() {
                "snapshot.resume"
            } else {
                "machine.run"
            },
            point,
        );
        let t = Instant::now();
        let result = match resume {
            Some(snap) => m.resume_from_file(programs, snap, limit),
            None => m.run(programs, limit),
        };
        self.run_wall += t.elapsed();
        self.spans.end(open);
        self.absorb(&m, result.as_ref().ok());
        Ok((result, m))
    }

    fn absorb(&mut self, m: &Machine, report: Option<&RunReport>) {
        self.fastfwd_skipped += m.fastforward_skipped_cycles();
        self.stall_replays += m.flow_stall_replays();
        if let Some(p) = m.host_profile() {
            for &(name, _, ns) in p.rows() {
                *self.host_ns.entry(name).or_insert(0) += ns;
            }
            for (name, calls, ns) in p.extra_rows() {
                if name == "exchanges" {
                    self.exchanges += calls;
                } else if name.starts_with("sync_wait") {
                    self.sync_wait_ns += ns;
                }
            }
        }
        let Some(r) = report else { return };
        self.flops += r.flops;
        self.sim_seconds += r.seconds;
        for &key in COUNTERS {
            *self.counters.entry(key).or_insert(0) += r.stats.counter(key);
        }
        for key in ["net.fwd.queue_depth", "net.rev.queue_depth"] {
            if let Some(h) = r.stats.histogram(key) {
                self.queue_depth.merge(h);
            }
        }
        if let Some(h) = r.stats.histogram("prefetch.latency") {
            self.prefetch_latency.merge(h);
        }
    }

    /// Every per-layer metric of this repetition except the ones that
    /// need other repetitions to compare against (`harness.*`,
    /// `sweep.parallel_efficiency`, the `*.iso_*` drives): those the
    /// caller adds. Unexercised layers read 0.
    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let c = |key: &str| self.counters.get(key).copied().unwrap_or(0) as f64;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let host_ms = |row: &str| self.host_ns.get(row).copied().unwrap_or(0) as f64 / 1e6;
        // Shares are of the profiled tick regions, not of wall time: the
        // regions are what the profiler can attribute.
        let regions_ms = self.host_ns.values().sum::<u64>() as f64 / 1e6;
        let share = |row: &str| ratio(host_ms(row), regions_ms) * 100.0;
        let self_ns = self.spans.self_ns_by_name();
        let self_ms = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6;

        let words = c("net.fwd.words_moved") + c("net.rev.words_moved");
        let omega_ms = host_ms("forward") + host_ms("reverse");
        let cycles = c("machine.cycles");
        let longest = self.point_walls.iter().max().copied().unwrap_or_default();

        let mut m: BTreeMap<&'static str, f64> = BTreeMap::from([
            ("omega.fwd_host_ms", host_ms("forward")),
            ("omega.fwd_host_share", share("forward")),
            ("omega.rev_host_ms", host_ms("reverse")),
            ("omega.rev_host_share", share("reverse")),
            ("omega.words_moved", words),
            ("omega.host_ns_per_word", ratio(omega_ms * 1e6, words)),
            ("omega.stall_replays", self.stall_replays as f64),
            (
                "omega.conflicts_per_word",
                ratio(c("net.fwd.conflicts") + c("net.rev.conflicts"), words),
            ),
            (
                "omega.blocked_per_word",
                ratio(
                    c("net.fwd.blocked_moves") + c("net.rev.blocked_moves"),
                    words,
                ),
            ),
            (
                "omega.queue_depth_p95",
                self.queue_depth.percentile(0.95).unwrap_or(0) as f64,
            ),
            ("gmem.host_ms", host_ms("gmem")),
            ("gmem.host_share", share("gmem")),
            ("gmem.accesses", c("gmem.accesses")),
            ("gmem.sync_ops", c("gmem.sync_ops")),
            ("gmem.conflict_stalls", c("gmem.conflict_stalls")),
            ("ce.cluster_host_ms", host_ms("cluster")),
            ("ce.cluster_host_share", share("cluster")),
            ("ce.busy_cycles", c("ce.busy")),
            ("ce.stall_mem_cycles", c("ce.stall_mem")),
            ("ce.stall_sync_cycles", c("ce.stall_sync")),
            ("cache.accesses", c("cache.accesses")),
            (
                "cache.hit_ratio",
                ratio(c("cache.hits"), c("cache.accesses")),
            ),
            ("prefetch.words_returned", c("prefetch.words_returned")),
            (
                "prefetch.latency_p95",
                self.prefetch_latency.percentile(0.95).unwrap_or(0) as f64,
            ),
            ("ccbus.barrier_wait_cycles", c("ccbus.barrier_wait_cycles")),
            ("machine.fastfwd_host_ms", host_ms("fastfwd")),
            ("machine.fastfwd_host_share", share("fastfwd")),
            (
                "machine.fastfwd_skipped_cycles",
                self.fastfwd_skipped as f64,
            ),
            (
                "machine.fastfwd_skip_ratio",
                ratio(self.fastfwd_skipped as f64, cycles),
            ),
            ("machine.timeline_host_ms", host_ms("timeline")),
            ("machine.timeline_host_share", share("timeline")),
            ("machine.new_ms", self_ms("machine.new")),
            ("lower.uops", c("program.uops")),
            ("lower.fused_ops", c("program.fused_ops")),
            ("lower.compile_us", self.compile_ns as f64 / 1e3),
            ("fortran.restructure_ms", self_ms("fortran.restructure")),
            ("fortran.lower_ms", self_ms("fortran.lower")),
            ("kernels.build_ms", self_ms("kernels.build")),
            ("sweep.points", self.point_walls.len() as f64),
            (
                "sweep.longest_point_share",
                ratio(longest.as_secs_f64(), self.points_wall().as_secs_f64()),
            ),
            ("fault.host_ms", host_ms("faults")),
            ("fault.host_share", share("faults")),
            ("fault.drops", c("net.fwd.drops") + c("net.rev.drops")),
            ("fault.retries", c("fault.retries")),
            ("fault.timeouts", c("fault.timeouts")),
            ("parallel.exchange_host_ms", host_ms("exchange")),
            ("parallel.exchange_host_share", share("exchange")),
            ("parallel.sync_wait_ms", self.sync_wait_ns as f64 / 1e6),
            ("parallel.exchanges", self.exchanges as f64),
            ("sim.cycles", cycles),
            (
                "sim.mflops",
                ratio(self.flops as f64 / 1e6, self.sim_seconds),
            ),
        ]);
        m.extend(self.extras());
        for &(name, _) in PER_LAYER {
            m.entry(name).or_insert(0.0);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_probe_reports_every_layer_as_zero() {
        let m = Probe::new(true).metrics();
        assert_eq!(m.len(), PER_LAYER.len(), "no name outside PER_LAYER");
        assert!(m.values().all(|&v| v == 0.0));
    }
}
