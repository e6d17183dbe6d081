//! The benchmark's metric names and units — the same lists
//! `BENCHMARK.json` declares (a unit test keeps the two equal) — and the
//! order statistics every reported number goes through.

/// End-to-end metrics, printed by `--trace 0`: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_cycles_per_s", "cycles/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by `--trace 1`: `(name, unit)`. Layer
/// names are module names; a workload that does not exercise a layer
/// reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    // network/omega.rs — both networks, forward + reverse.
    ("omega.fwd_host_ms", "ms"),
    ("omega.fwd_host_share", "%"),
    ("omega.rev_host_ms", "ms"),
    ("omega.rev_host_share", "%"),
    ("omega.words_moved", "count"),
    ("omega.host_ns_per_word", "ns"),
    ("omega.stall_replays", "count"),
    ("omega.conflicts_per_word", "ratio"),
    ("omega.blocked_per_word", "ratio"),
    ("omega.queue_depth_p95", "words"),
    ("omega.iso_ns_per_word", "ns"),
    // memory/global.rs
    ("gmem.host_ms", "ms"),
    ("gmem.host_share", "%"),
    ("gmem.accesses", "count"),
    ("gmem.sync_ops", "count"),
    ("gmem.conflict_stalls", "cycles"),
    ("gmem.iso_ns_per_access", "ns"),
    // ce.rs + the cluster phase (CC bus, caches, prefetch units).
    ("ce.cluster_host_ms", "ms"),
    ("ce.cluster_host_share", "%"),
    ("ce.busy_cycles", "cycles"),
    ("ce.stall_mem_cycles", "cycles"),
    ("ce.stall_sync_cycles", "cycles"),
    ("cache.accesses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.iso_ns_per_access", "ns"),
    ("prefetch.words_returned", "count"),
    ("prefetch.latency_p95", "cycles"),
    ("ccbus.barrier_wait_cycles", "cycles"),
    // machine.rs — the run loop itself.
    ("machine.fastfwd_host_ms", "ms"),
    ("machine.fastfwd_host_share", "%"),
    ("machine.fastfwd_skipped_cycles", "cycles"),
    ("machine.fastfwd_skip_ratio", "ratio"),
    ("machine.timeline_host_ms", "ms"),
    ("machine.timeline_host_share", "%"),
    ("machine.new_ms", "ms"),
    // lower/, fortran, kernels — program preparation.
    ("lower.uops", "count"),
    ("lower.fused_ops", "count"),
    ("lower.compile_us", "us"),
    ("fortran.restructure_ms", "ms"),
    ("fortran.lower_ms", "ms"),
    ("kernels.build_ms", "ms"),
    // experiments/sweep.rs
    ("sweep.points", "count"),
    ("sweep.parallel_efficiency", "ratio"),
    ("sweep.longest_point_share", "ratio"),
    // fault.rs
    ("fault.host_ms", "ms"),
    ("fault.host_share", "%"),
    ("fault.drops", "count"),
    ("fault.retries", "count"),
    ("fault.timeouts", "count"),
    ("fault.slowdown_x_5000ppm", "ratio"),
    // snapshot/
    ("snapshot.autosaves", "count"),
    ("snapshot.image_bytes", "bytes"),
    ("snapshot.save_ms", "ms"),
    ("snapshot.load_ms", "ms"),
    // parallel.rs
    ("parallel.exchange_host_ms", "ms"),
    ("parallel.exchange_host_share", "%"),
    ("parallel.sync_wait_ms", "ms"),
    ("parallel.exchanges", "count"),
    ("parallel.speedup_vs_serial", "ratio"),
    ("parallel.efficiency", "ratio"),
    ("parallel.ppt_band", "band"),
    // Fidelity against the paper (0 on workloads the paper has no
    // reference for: those are unvalidated, not exact).
    ("paper.err_pct", "%"),
    // Diagnostics.
    ("harness.wall_s", "s"),
    ("harness.rep_spread_pct", "%"),
    ("harness.trace_overhead_pct", "%"),
    ("sim.cycles", "cycles"),
    ("sim.mflops", "MFLOPS"),
];

/// Median, extremes and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `samples` (any order). `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (&min, &max) = (sorted.first()?, sorted.last()?);
        let mid = sorted.len() / 2;
        let median = if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        };
        Some(Summary {
            median,
            min,
            max,
            n: sorted.len(),
        })
    }

    /// `(max - min) / median`, in percent.
    pub fn spread_pct(&self) -> f64 {
        (self.max - self.min) / self.median * 100.0
    }
}

/// Median of `samples`; 0 for an empty slice (an unexercised layer).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn summary_of_odd_even_and_empty() {
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (2.0, 1.0, 3.0, 3));
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (2.5, 1.0, 4.0, 4));
        assert_eq!(s.spread_pct(), 120.0);
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    /// `BENCHMARK.json` is hand-written; the harness prints from the
    /// tables above. They must name the same metrics with the same units,
    /// and the workload list must match the registry.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(json::Json::as_arr)
                .unwrap_or_else(|| panic!("{key} is an array"))
                .iter()
                .map(|m| {
                    m.get(field)
                        .and_then(json::Json::as_str)
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let names: Vec<&str> = table.iter().map(|&(n, _)| n).collect();
            let units: Vec<&str> = table.iter().map(|&(_, u)| u).collect();
            assert_eq!(declared(key, "name"), names, "{key} names");
            assert_eq!(declared(key, "unit"), units, "{key} units");
        }
        let names: Vec<&str> = crate::workloads::all().map(|(name, _)| name).collect();
        assert_eq!(declared("workloads", "name"), names);
    }
}
