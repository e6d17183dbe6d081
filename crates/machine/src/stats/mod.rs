//! The machine-wide instrumentation registry.
//!
//! Cedar's performance numbers all come from external monitoring hardware
//! probing subsystem signals (§2 "Performance monitoring"). This module is
//! the simulator's equivalent: a [`MachineStats`] registry of named
//! monotonic counters and histograms snapshotted from every subsystem —
//! cluster caches, both omega networks, the global-memory banks, the
//! concurrency control buses, the prefetch units and the CEs themselves —
//! plus a [`UtilizationTimeline`] of per-CE busy/stall/idle cycle
//! accounting, the data behind Fig. 3-style utilization plots.
//!
//! ## Counter namespace
//!
//! Dotted, with bracketed indices for per-instance counters:
//!
//! | prefix | counters |
//! |---|---|
//! | `machine.` | `cycles` |
//! | `cache.` / `cache[c].` | `accesses`, `hits`, `misses`, `evictions`, `writebacks`, `bank_stalls`, `mshr_stalls` |
//! | `net.fwd.` / `net.rev.` | `packets_injected`, `packets_delivered`, `words_moved`, `blocked_moves`, `conflicts`, `stage[s].conflicts`, `stage[s].blocked` |
//! | `gmem.` / `gmem.bank[i].` | `accesses`, `sync_ops`, `busy_cycles`, `conflict_stalls`, `reply_stalls` |
//! | `ccbus.` / `ccbus[c].` | `dispatches`, `counter_requests`, `barrier_arrivals`, `barrier_releases`, `barrier_wait_cycles`, `sdoall_posts` |
//! | `prefetch.` | `fires`, `requests`, `words_returned`, `stale_words`, `page_suspend_cycles`, `inject_stall_cycles` |
//! | `ce.` / `ce[i].` | `busy`, `idle`, `stall_mem`, `stall_sync`, `flops`, `vector_elements`, `tlb_misses`, `page_faults`, `vm_cycles` |
//! | `tracer.` | `events`, `dropped` |
//!
//! With fault injection enabled (a [`FaultPlan`] that can fire — these
//! keys are *absent* from fault-free registries, keeping them
//! byte-identical to older snapshots):
//!
//! | prefix | counters |
//! |---|---|
//! | `net.fwd.` / `net.rev.` | `drops`, `nacks`, `link_blocked` |
//! | `gmem.` | `nacks` |
//! | `fault.` | `retries`, `nacks`, `timeouts` |
//! | `prefetch.` | `retries` |
//!
//! With journey tracing enabled (a [`TracePlan`] with a nonzero sampling
//! rate — likewise *absent* from untraced registries):
//!
//! | prefix | counters |
//! |---|---|
//! | `trace.` | `events`, `dropped`, `journeys`, `episodes` |
//!
//! Histograms: `prefetch.latency` (first-word round-trip cycles),
//! `net.fwd.queue_depth` and `net.rev.queue_depth` (stage-queue words),
//! and — faults only — `fault.retry_latency` (issue-to-resolution cycles
//! of operations that needed at least one retry).
//!
//! [`FaultPlan`]: crate::fault::FaultPlan
//! [`TracePlan`]: crate::trace::TracePlan
//!
//! ## Snapshot/delta
//!
//! [`Machine::stats`](crate::machine::Machine::stats) returns a snapshot;
//! [`MachineStats::delta`] subtracts an earlier snapshot to bracket a
//! region. Cache, network, memory and bus counters are cumulative over
//! the machine's life; `ce.*` and `prefetch.*` reset at each
//! [`run`](crate::machine::Machine::run) (the engines are rebuilt), so
//! deltas across run boundaries saturate at zero for those.

pub mod export;

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::monitor::Histogrammer;
use crate::snapshot::{codec, snapshot_state, Record, RecordReader, RecordWriter, Records, Seq};
use crate::time::Cycle;

/// Snapshot bytes of one [`UtilSample`]: its four cycle counts.
const SAMPLE_RECORD: usize = 32;

/// A registry of named monotonic counters and histograms.
///
/// Histograms are held behind [`Arc`] so a snapshot shares bins with its
/// source instead of cloning them (the prefetch-latency histogram alone is
/// 512 bins, snapshotted before and after every run); the machine mutates
/// its live histogram copy-on-write, so shared snapshots stay frozen.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineStats {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Arc<Histogrammer>>,
}

impl MachineStats {
    /// An empty registry.
    pub fn new() -> MachineStats {
        MachineStats::default()
    }

    /// Set counter `name` to `value` (registering it if new).
    pub fn set(&mut self, name: impl Into<String>, value: u64) {
        self.counters.insert(name.into(), value);
    }

    /// Add `value` to counter `name` (registering it at zero if new).
    pub fn add(&mut self, name: &str, value: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += value;
        } else {
            self.counters.insert(name.to_string(), value);
        }
    }

    /// The value of counter `name`, or 0 when unregistered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Counters under a dotted `prefix` (e.g. `"cache"` matches
    /// `cache.hits` and `cache[0].hits` but not `cachex.y`).
    pub fn counters_under<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.counters().filter(move |(k, _)| {
            k.strip_prefix(prefix)
                .is_some_and(|rest| rest.starts_with('.') || rest.starts_with('['))
        })
    }

    /// Install (or replace) histogram `name`. Accepts an owned
    /// [`Histogrammer`] or an `Arc<Histogrammer>` (shared, no bin copy).
    pub fn set_histogram(&mut self, name: impl Into<String>, h: impl Into<Arc<Histogrammer>>) {
        self.histograms.insert(name.into(), h.into());
    }

    /// Histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&Histogrammer> {
        self.histograms.get(name).map(|h| h.as_ref())
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogrammer)> {
        self.histograms
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_ref()))
    }

    /// Number of registered counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// True when no counters are registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// The change since an `earlier` snapshot: counter-wise and bin-wise
    /// subtraction, saturating at zero. Counters present only in `self`
    /// pass through; counters present only in `earlier` are dropped.
    pub fn delta(&self, earlier: &MachineStats) -> MachineStats {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let d = match earlier.histograms.get(k) {
                    Some(old) => Arc::new(h.delta_since(old)),
                    None => Arc::clone(h),
                };
                (k.clone(), d)
            })
            .collect();
        MachineStats {
            counters,
            histograms,
        }
    }
}

// BTreeMaps iterate in key order, so the snapshot bytes are already
// deterministic without an explicit sort.
codec!(struct MachineStats { counters, histograms });

/// One CE's cycle budget over an interval: every cycle is exactly one of
/// busy, memory stall, synchronization stall, or idle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UtilSample {
    pub busy: u64,
    pub stall_mem: u64,
    pub stall_sync: u64,
    pub idle: u64,
}

impl UtilSample {
    /// Total cycles covered by the sample.
    pub fn total(&self) -> u64 {
        self.busy + self.stall_mem + self.stall_sync + self.idle
    }

    /// Component-wise difference, saturating at zero.
    pub fn minus(&self, earlier: &UtilSample) -> UtilSample {
        UtilSample {
            busy: self.busy.saturating_sub(earlier.busy),
            stall_mem: self.stall_mem.saturating_sub(earlier.stall_mem),
            stall_sync: self.stall_sync.saturating_sub(earlier.stall_sync),
            idle: self.idle.saturating_sub(earlier.idle),
        }
    }

    /// Component-wise sum.
    pub fn plus(&self, other: &UtilSample) -> UtilSample {
        UtilSample {
            busy: self.busy + other.busy,
            stall_mem: self.stall_mem + other.stall_mem,
            stall_sync: self.stall_sync + other.stall_sync,
            idle: self.idle + other.idle,
        }
    }

    /// The state the CE spent the plurality of the interval in, or `None`
    /// for an empty sample (a CE that ran no program).
    pub fn dominant(&self) -> Option<&'static str> {
        let states = [
            (self.busy, "busy"),
            (self.stall_mem, "stall_mem"),
            (self.stall_sync, "stall_sync"),
            (self.idle, "idle"),
        ];
        states
            .iter()
            .filter(|(n, _)| *n > 0)
            .max_by_key(|(n, _)| *n)
            .map(|&(_, name)| name)
    }
}

/// Initial timeline bucket width in cycles.
const DEFAULT_BUCKET_CYCLES: u64 = 1024;

/// Bucket count at which adjacent buckets merge and the width doubles,
/// bounding memory for arbitrarily long runs.
const MAX_BUCKETS: usize = 512;

/// Per-CE utilization over time, in fixed-width buckets that adaptively
/// coarsen: when a run outgrows [`MAX_BUCKETS`] buckets, adjacent pairs
/// merge and the bucket width doubles, so a run of any length is described
/// by a bounded, evenly spaced timeline.
#[derive(Debug, Clone)]
pub struct UtilizationTimeline {
    ces: usize,
    start: Cycle,
    end: Cycle,
    bucket_cycles: u64,
    next_boundary: Cycle,
    /// `buckets[b][ce]`: CE's cycle budget within bucket `b`.
    buckets: Vec<Vec<UtilSample>>,
    /// Cumulative per-CE samples at the last recorded boundary.
    last: Vec<UtilSample>,
}

snapshot_state! {
    impl UtilizationTimeline as this {
        saved: [
            ces, start, end, bucket_cycles, next_boundary, buckets: Seq(Records), last: Records,
        ],
        derived: [],
    }
}

impl Record<SAMPLE_RECORD> for UtilSample {
    fn record(&self) -> [u8; SAMPLE_RECORD] {
        RecordWriter::new()
            .u64(self.busy)
            .u64(self.stall_mem)
            .u64(self.stall_sync)
            .u64(self.idle)
            .done()
    }

    fn from_record(mut f: RecordReader<'_, SAMPLE_RECORD>) -> Result<Self, &'static str> {
        Ok(UtilSample {
            busy: f.u64(),
            stall_mem: f.u64(),
            stall_sync: f.u64(),
            idle: f.u64(),
        })
    }
}

impl UtilizationTimeline {
    /// An empty timeline for `ces` processors starting at cycle 0.
    pub fn new(ces: usize) -> UtilizationTimeline {
        UtilizationTimeline {
            ces,
            start: Cycle::ZERO,
            end: Cycle::ZERO,
            bucket_cycles: DEFAULT_BUCKET_CYCLES,
            next_boundary: Cycle(DEFAULT_BUCKET_CYCLES),
            buckets: Vec::new(),
            last: vec![UtilSample::default(); ces],
        }
    }

    /// Restart recording at `now` (a new run).
    pub fn reset(&mut self, now: Cycle, ces: usize) {
        self.ces = ces;
        self.start = now;
        self.end = now;
        self.bucket_cycles = DEFAULT_BUCKET_CYCLES;
        self.next_boundary = now + DEFAULT_BUCKET_CYCLES;
        self.buckets.clear();
        self.last = vec![UtilSample::default(); ces];
    }

    /// True when `now` has reached the next bucket boundary (the machine
    /// then collects cumulative samples and calls [`record`](Self::record)).
    pub fn due(&self, now: Cycle) -> bool {
        now >= self.next_boundary
    }

    /// The next bucket boundary. The fast-forward path chunks its jumps at
    /// boundaries so skipped stretches land in the same buckets the
    /// per-cycle loop would fill.
    pub fn next_boundary(&self) -> Cycle {
        self.next_boundary
    }

    /// Close the current bucket given `cumulative` per-CE samples.
    pub fn record(&mut self, cumulative: &[UtilSample]) {
        debug_assert_eq!(cumulative.len(), self.ces);
        let bucket: Vec<UtilSample> = cumulative
            .iter()
            .zip(&self.last)
            .map(|(c, l)| c.minus(l))
            .collect();
        self.last.copy_from_slice(cumulative);
        self.buckets.push(bucket);
        self.next_boundary += self.bucket_cycles;
        if self.buckets.len() >= MAX_BUCKETS {
            self.coalesce();
        }
    }

    /// Flush the final (possibly partial) bucket at the end of a run.
    pub fn finish(&mut self, now: Cycle, cumulative: &[UtilSample]) {
        self.end = now;
        if cumulative.iter().zip(&self.last).any(|(c, l)| c != l) {
            let bucket: Vec<UtilSample> = cumulative
                .iter()
                .zip(&self.last)
                .map(|(c, l)| c.minus(l))
                .collect();
            self.last.copy_from_slice(cumulative);
            self.buckets.push(bucket);
        }
    }

    fn coalesce(&mut self) {
        let mut merged = Vec::with_capacity(self.buckets.len() / 2 + 1);
        for pair in self.buckets.chunks(2) {
            if pair.len() == 2 {
                merged.push(
                    pair[0]
                        .iter()
                        .zip(&pair[1])
                        .map(|(a, b)| a.plus(b))
                        .collect(),
                );
            } else {
                merged.push(pair[0].clone());
            }
        }
        self.buckets = merged;
        self.bucket_cycles *= 2;
        self.next_boundary = self.start + self.buckets.len() as u64 * self.bucket_cycles;
    }

    /// Number of processors covered.
    pub fn ces(&self) -> usize {
        self.ces
    }

    /// Cycle the timeline started recording at.
    pub fn start(&self) -> Cycle {
        self.start
    }

    /// Cycle recording finished at (set by [`finish`](Self::finish)).
    pub fn end(&self) -> Cycle {
        self.end
    }

    /// Width of each bucket in cycles (the final bucket may be shorter).
    pub fn bucket_cycles(&self) -> u64 {
        self.bucket_cycles
    }

    /// The recorded buckets: `buckets()[b][ce]`.
    pub fn buckets(&self) -> &[Vec<UtilSample>] {
        &self.buckets
    }

    /// Whole-run utilization per CE: each CE's summed sample.
    pub fn per_ce_totals(&self) -> Vec<UtilSample> {
        let mut totals = vec![UtilSample::default(); self.ces];
        for bucket in &self.buckets {
            for (t, s) in totals.iter_mut().zip(bucket) {
                *t = t.plus(s);
            }
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_read_and_delta() {
        let mut a = MachineStats::new();
        a.set("cache.hits", 10);
        a.set("cache.misses", 4);
        a.add("cache.hits", 5);
        assert_eq!(a.counter("cache.hits"), 15);
        assert_eq!(a.counter("unknown"), 0);

        let mut b = a.clone();
        b.set("cache.hits", 40);
        b.set("net.fwd.packets_injected", 7);
        let d = b.delta(&a);
        assert_eq!(d.counter("cache.hits"), 25);
        assert_eq!(d.counter("cache.misses"), 0);
        assert_eq!(d.counter("net.fwd.packets_injected"), 7);
    }

    #[test]
    fn prefix_filter_respects_separators() {
        let mut s = MachineStats::new();
        s.set("cache.hits", 1);
        s.set("cache[0].hits", 2);
        s.set("cachex.hits", 3);
        let keys: Vec<&str> = s.counters_under("cache").map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["cache.hits", "cache[0].hits"]);
    }

    #[test]
    fn histogram_delta_is_binwise() {
        let mut early = Histogrammer::with_bins(8);
        early.record(1);
        let mut late = early.clone();
        late.record(1);
        late.record(3);

        let mut a = MachineStats::new();
        a.set_histogram("h", early);
        let mut b = MachineStats::new();
        b.set_histogram("h", late);
        let d = b.delta(&a);
        let h = d.histogram("h").unwrap();
        assert_eq!(h.total(), 2);
        assert_eq!(h.bins()[1], 1);
        assert_eq!(h.bins()[3], 1);
    }

    #[test]
    fn util_sample_dominant_and_math() {
        let s = UtilSample {
            busy: 5,
            stall_mem: 3,
            stall_sync: 0,
            idle: 2,
        };
        assert_eq!(s.total(), 10);
        assert_eq!(s.dominant(), Some("busy"));
        assert_eq!(UtilSample::default().dominant(), None);
        let t = s.minus(&UtilSample {
            busy: 1,
            ..Default::default()
        });
        assert_eq!(t.busy, 4);
    }

    #[test]
    fn timeline_buckets_and_finish() {
        let mut tl = UtilizationTimeline::new(2);
        tl.reset(Cycle(0), 2);
        let c1 = [
            UtilSample {
                busy: 1000,
                stall_mem: 24,
                ..Default::default()
            },
            UtilSample {
                busy: 512,
                idle: 512,
                ..Default::default()
            },
        ];
        assert!(tl.due(Cycle(1024)));
        assert!(!tl.due(Cycle(1023)));
        tl.record(&c1);
        // Second interval: only CE 0 advances.
        let c2 = [
            UtilSample {
                busy: 1100,
                stall_mem: 224,
                ..Default::default()
            },
            c1[1],
        ];
        tl.finish(Cycle(1324), &c2);
        assert_eq!(tl.buckets().len(), 2);
        assert_eq!(tl.buckets()[0][0].busy, 1000);
        assert_eq!(tl.buckets()[1][0].busy, 100);
        assert_eq!(tl.buckets()[1][0].stall_mem, 200);
        assert_eq!(tl.buckets()[1][1], UtilSample::default());
        let totals = tl.per_ce_totals();
        assert_eq!(totals[0].busy, 1100);
        assert_eq!(totals[1].idle, 512);
    }

    #[test]
    fn timeline_coalesces_when_full() {
        let mut tl = UtilizationTimeline::new(1);
        tl.reset(Cycle(0), 1);
        let mut cum = UtilSample::default();
        for _ in 0..MAX_BUCKETS {
            cum.busy += 7;
            let snapshot = [cum];
            tl.record(&snapshot);
        }
        assert!(tl.buckets().len() <= MAX_BUCKETS / 2 + 1);
        assert_eq!(tl.bucket_cycles(), 2 * DEFAULT_BUCKET_CYCLES);
        let total: u64 = tl.per_ce_totals()[0].busy;
        assert_eq!(total, 7 * MAX_BUCKETS as u64);
    }
}
