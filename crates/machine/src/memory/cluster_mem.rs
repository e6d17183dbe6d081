//! Cluster-local memory.
//!
//! Each Alliant FX/8 cluster has 32 MB of interleaved local memory behind
//! the shared cache. Its bandwidth is half the cache's: 192 MB/s per
//! cluster, about four 64-bit words per 170 ns cycle. The simulator models
//! it as a bandwidth-serialized line-transfer engine: the cache schedules
//! line fills and write-backs against it.

use crate::config::ClusterMemoryConfig;
use crate::snapshot::{codec, snapshot_state};
use crate::time::Cycle;

/// Statistics for one cluster memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterMemStats {
    /// Line fills serviced.
    pub fills: u64,
    /// Write-backs serviced.
    pub writebacks: u64,
    /// Total words transferred.
    pub words: u64,
}

codec!(struct ClusterMemStats { fills, writebacks, words });

/// One cluster's interleaved local memory.
#[derive(Debug)]
pub struct ClusterMemory {
    words_per_cycle: u32,
    latency: u32,
    /// First cycle at which the memory bus is free.
    next_free: Cycle,
    stats: ClusterMemStats,
}

snapshot_state! {
    impl ClusterMemory as this {
        saved: [next_free, stats],
        derived: [words_per_cycle, latency],
    }
}

impl ClusterMemory {
    /// Build from configuration.
    pub fn new(cfg: &ClusterMemoryConfig) -> ClusterMemory {
        ClusterMemory {
            words_per_cycle: cfg.words_per_cycle.max(1),
            latency: cfg.latency,
            next_free: Cycle::ZERO,
            stats: ClusterMemStats::default(),
        }
    }

    /// Schedule a line fill of `words` starting no earlier than `now`;
    /// returns the cycle at which the data is available in the cache.
    pub fn fill(&mut self, now: Cycle, words: u32) -> Cycle {
        let done = self.occupy(now, words);
        self.stats.fills += 1;
        done + u64::from(self.latency)
    }

    /// Schedule a write-back of `words`; consumes bandwidth but nobody
    /// waits for it.
    pub fn writeback(&mut self, now: Cycle, words: u32) {
        self.occupy(now, words);
        self.stats.writebacks += 1;
    }

    /// True when no transfer is in flight at `now`.
    pub fn is_idle(&self, now: Cycle) -> bool {
        now >= self.next_free
    }

    /// Statistics so far.
    pub fn stats(&self) -> ClusterMemStats {
        self.stats
    }

    fn occupy(&mut self, now: Cycle, words: u32) -> Cycle {
        let start = if now > self.next_free {
            now
        } else {
            self.next_free
        };
        let busy = words.div_ceil(self.words_per_cycle);
        self.next_free = start + u64::from(busy.max(1));
        self.stats.words += u64::from(words);
        self.next_free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> ClusterMemory {
        ClusterMemory::new(&ClusterMemoryConfig::cedar())
    }

    #[test]
    fn fill_latency_applies() {
        let mut m = mem();
        // 4 words at 4 words/cycle = 1 busy cycle, + 8 latency.
        assert_eq!(m.fill(Cycle(0), 4), Cycle(9));
    }

    #[test]
    fn bandwidth_serializes_transfers() {
        let mut m = mem();
        let a = m.fill(Cycle(0), 4);
        let b = m.fill(Cycle(0), 4);
        assert_eq!(b - a, 1, "second fill starts a bus-cycle later");
        assert!(!m.is_idle(Cycle(0)));
        assert!(m.is_idle(Cycle(100)));
    }

    #[test]
    fn writeback_consumes_bandwidth_without_latency_penalty_to_caller() {
        let mut m = mem();
        m.writeback(Cycle(0), 4);
        // A fill scheduled right after waits for the bus.
        let done = m.fill(Cycle(0), 4);
        assert_eq!(done, Cycle(10)); // 1 (wb) + 1 (fill) + 8 latency
        let s = m.stats();
        assert_eq!(s.fills, 1);
        assert_eq!(s.writebacks, 1);
        assert_eq!(s.words, 8);
    }

    #[test]
    fn sustained_rate_matches_192mb_per_sec() {
        let mut m = mem();
        // 1000 line fills of 4 words back to back: 1000 bus cycles.
        let mut last = Cycle::ZERO;
        for _ in 0..1000 {
            last = m.fill(Cycle(0), 4);
        }
        // 4000 words / (~1000 cycles + latency tail) ≈ 4 words/cycle.
        let cycles = (last - Cycle::ZERO) as f64;
        let rate = 4000.0 / cycles;
        assert!(rate > 3.5 && rate <= 4.1, "rate={rate}");
    }
}
