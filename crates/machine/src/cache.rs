//! The shared, interleaved cluster cache.
//!
//! Each cluster's eight CEs share a 512 KB physically-addressed cache with
//! 32-byte lines, organized as four interleaved banks. The cache is
//! write-back and lockup-free, allowing each CE two outstanding misses;
//! writes do not stall a CE. Its bandwidth is eight 64-bit words per
//! instruction cycle — one input stream per vector unit — twice the
//! cluster-memory bandwidth behind it (§2 "Alliant clusters").
//!
//! The model tracks real tags (set-associative, LRU) and bank occupancy,
//! but not data values: the simulator is a timing model, and numeric
//! correctness is exercised by the pure-Rust kernels in `cedar-kernels`.

use crate::bits::set_bits;
use crate::config::CacheConfig;
use crate::memory::cluster_mem::ClusterMemory;
use crate::snapshot::{
    codec, snapshot_state, Exact, Field, Fixed, RecordWriter, Records, SnapReader, SnapResult,
    SnapWriter,
};
use crate::time::Cycle;

/// Outcome of presenting one word access to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAccess {
    /// Hit: the word is available at the given cycle.
    Ready { at: Cycle },
    /// Miss: a line fill has been (or already was) scheduled; the word is
    /// available at the given cycle.
    Pending { at: Cycle },
    /// Structural stall (bank busy this cycle, or the CE is out of miss
    /// slots): retry next cycle.
    Stall,
}

impl CacheAccess {
    /// The completion time, if the access was accepted.
    pub fn ready_at(self) -> Option<Cycle> {
        match self {
            CacheAccess::Ready { at } | CacheAccess::Pending { at } => Some(at),
            CacheAccess::Stall => None,
        }
    }
}

/// Statistics for one cluster cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Accesses rejected for a busy bank.
    pub bank_stalls: u64,
    /// Accesses rejected because the CE had two misses outstanding.
    pub mshr_stalls: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
    /// Valid lines replaced by a fill (dirty or clean).
    pub evictions: u64,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    dirty: bool,
    lru: u64,
    /// Cycle the line's fill arrives; hits before this wait for it. A
    /// line resident since before `fill_at` was reached behaves as
    /// filled, so no separate pending set is consulted on the hit path.
    fill_at: Cycle,
}

/// Snapshot bytes of one valid [`Line`]: tag, LRU stamp, fill cycle,
/// dirty byte.
const LINE_RECORD: usize = 25;

/// The shared cluster cache, backed by its cluster memory.
#[derive(Debug)]
pub struct ClusterCache {
    line_words: u64,
    sets: usize,
    assoc: usize,
    banks: usize,
    /// Shift/mask decomposition of the line/bank/set arithmetic, present
    /// when `line_words`, `banks` and `sets` are all powers of two (true
    /// for every Cedar-shaped geometry). The address split runs once per
    /// simulated word, so three integer divisions matter here.
    pow2: Option<Pow2Geometry>,
    words_per_bank_cycle: u32,
    hit_latency: u64,
    max_misses_per_ce: u32,
    /// Way array, flattened row-major: `tags[set * assoc + way]`.
    tags: Vec<Option<Line>>,
    /// Which ways hold a line, as a chunked bit mask over `tags`. Lines
    /// are replaced but never invalidated, so a bit, once set by the
    /// way's first fill, stays set. The snapshot walks this instead of
    /// the way array, of which a few percent is ever valid.
    valid: Vec<u64>,
    lru_clock: u64,
    /// Outstanding fills per CE (lockup-free miss slots).
    ce_misses: Vec<Vec<(u64, Cycle)>>,
    /// Bank usage accounting for the current cycle.
    bank_cycle: Cycle,
    bank_used: Vec<u32>,
    mem: ClusterMemory,
    stats: CacheStats,
}

codec!(struct CacheStats { hits, misses, bank_stalls, mshr_stalls, writebacks, evictions });

// Geometry (sets, associativity, banks) is config-derived; the way array
// is checked against it structurally on restore.
snapshot_state! {
    impl ClusterCache as this {
        tag: b"CACH",
        saved: [
            [tags, valid]: Ways, lru_clock, ce_misses: Exact(Records), bank_cycle,
            bank_used: Fixed, mem, stats,
        ],
        derived: [
            line_words, sets, assoc, banks, pow2, words_per_bank_cycle, hit_latency,
            max_misses_per_ce,
        ],
    }
}

/// The way array, which is mostly invalid ways, goes out sparse: the
/// validity mask, then the valid lines packed in way order.
struct Ways;

impl Field<ClusterCache> for Ways {
    fn put(&self, c: &ClusterCache, w: &mut SnapWriter) {
        debug_assert!(
            c.tags
                .iter()
                .enumerate()
                .all(|(i, way)| way.is_some() == (c.valid[i / 64] >> (i % 64) & 1 != 0)),
            "validity mask out of step with the way array"
        );
        w.sparse(c.tags.len(), &c.valid, |i| {
            let line = c.tags[i].as_ref().expect("valid way holds a line");
            RecordWriter::<LINE_RECORD>::new()
                .u64(line.tag)
                .u64(line.lru)
                .u64(line.fill_at.0)
                .u8(u8::from(line.dirty))
                .done()
        });
    }

    fn load(&self, c: &mut ClusterCache, r: &mut SnapReader) -> SnapResult<()> {
        let (valid, lines) = r.sparse::<_, LINE_RECORD>(c.tags.len(), |mut f| {
            Ok(Line {
                tag: f.u64(),
                lru: f.u64(),
                fill_at: Cycle(f.u64()),
                dirty: match f.u8() {
                    0 => false,
                    1 => true,
                    _ => return Err("invalid dirty byte in a cache line"),
                },
            })
        })?;
        // Only the ways valid before or after need touching.
        for i in set_bits(&c.valid) {
            c.tags[i] = None;
        }
        c.valid = valid;
        for (i, line) in set_bits(&c.valid).zip(lines) {
            c.tags[i] = Some(line);
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
struct Pow2Geometry {
    line_shift: u32,
    bank_mask: u64,
    set_mask: u64,
    set_shift: u32,
}

impl ClusterCache {
    /// Build a cache for a cluster of `ces` processors, owning its cluster
    /// memory `mem`.
    pub fn new(cfg: &CacheConfig, ces: usize, mem: ClusterMemory) -> ClusterCache {
        let sets = cfg.sets();
        let line_words = cfg.line_words() as u64;
        let banks = cfg.banks;
        let pow2 =
            (line_words.is_power_of_two() && banks.is_power_of_two() && sets.is_power_of_two())
                .then(|| Pow2Geometry {
                    line_shift: line_words.trailing_zeros(),
                    bank_mask: banks as u64 - 1,
                    set_mask: sets as u64 - 1,
                    set_shift: sets.trailing_zeros(),
                });
        ClusterCache {
            line_words,
            sets,
            assoc: cfg.associativity,
            banks,
            pow2,
            words_per_bank_cycle: (cfg.words_per_cycle / cfg.banks as u32).max(1),
            hit_latency: u64::from(cfg.hit_latency),
            max_misses_per_ce: cfg.max_outstanding_misses_per_ce,
            tags: vec![None; sets * cfg.associativity],
            valid: vec![0; (sets * cfg.associativity).div_ceil(64)],
            lru_clock: 0,
            ce_misses: vec![Vec::new(); ces],
            bank_cycle: Cycle::ZERO,
            bank_used: vec![0; cfg.banks],
            mem,
            stats: CacheStats::default(),
        }
    }

    /// Split a word address into (line address, bank, set, tag).
    #[inline]
    fn split(&self, word_addr: u64) -> (u64, usize, usize, u64) {
        match self.pow2 {
            Some(g) => {
                let line_addr = word_addr >> g.line_shift;
                (
                    line_addr,
                    (line_addr & g.bank_mask) as usize,
                    (line_addr & g.set_mask) as usize,
                    line_addr >> g.set_shift,
                )
            }
            None => {
                let line_addr = word_addr / self.line_words;
                (
                    line_addr,
                    (line_addr % self.banks as u64) as usize,
                    (line_addr % self.sets as u64) as usize,
                    line_addr / self.sets as u64,
                )
            }
        }
    }

    /// Present one word access from CE `ce` (index within the cluster).
    ///
    /// `write` accesses allocate on miss and mark the line dirty; they
    /// otherwise share the hit/miss timing of reads (the CE does not wait
    /// for writes, which the CE engine models by ignoring the completion
    /// time of write accesses beyond bank occupancy).
    pub fn access(&mut self, now: Cycle, ce: usize, word_addr: u64, write: bool) -> CacheAccess {
        self.roll_cycle(now);
        self.expire_misses(now, ce);

        let (line_addr, bank, set, tag) = self.split(word_addr);
        if self.bank_used[bank] >= self.words_per_bank_cycle {
            self.stats.bank_stalls += 1;
            return CacheAccess::Stall;
        }

        // Hit?
        let base = set * self.assoc;
        let ways = &self.tags[base..base + self.assoc];
        if let Some((way, line)) = ways
            .iter()
            .enumerate()
            .find_map(|(w, l)| l.filter(|l| l.tag == tag).map(|l| (w, l)))
        {
            self.bank_used[bank] += 1;
            self.touch(base + way, write);
            // A hit on a line still being filled waits for the fill.
            if now < line.fill_at {
                return CacheAccess::Pending {
                    at: line.fill_at + self.hit_latency,
                };
            }
            self.stats.hits += 1;
            return CacheAccess::Ready {
                at: now + self.hit_latency,
            };
        }

        // Miss: need a free miss slot for this CE.
        if self.ce_misses[ce].len() >= self.max_misses_per_ce as usize {
            self.stats.mshr_stalls += 1;
            return CacheAccess::Stall;
        }
        self.bank_used[bank] += 1;
        self.stats.misses += 1;

        // Victim selection and write-back.
        let way = self.victim(set);
        if let Some(old) = self.tags[base + way] {
            self.stats.evictions += 1;
            if old.dirty {
                self.mem.writeback(now, self.line_words as u32);
                self.stats.writebacks += 1;
            }
        }
        self.lru_clock += 1;
        let arrive = self.mem.fill(now, self.line_words as u32);
        self.tags[base + way] = Some(Line {
            tag,
            dirty: write,
            lru: self.lru_clock,
            fill_at: arrive,
        });
        self.valid[(base + way) / 64] |= 1 << ((base + way) % 64);
        self.ce_misses[ce].push((line_addr, arrive));
        CacheAccess::Pending {
            at: arrive + self.hit_latency,
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Fold the tag-array state (tag, dirty bit and LRU stamp of every
    /// way, in set/way order) into `h` (see `Machine::memory_digest`).
    pub(crate) fn digest(&self, h: &mut impl std::hash::Hasher) {
        for way in &self.tags {
            match way {
                Some(line) => {
                    h.write_u8(1);
                    h.write_u64(line.tag);
                    h.write_u8(u8::from(line.dirty));
                    h.write_u64(line.lru);
                }
                None => h.write_u8(0),
            }
        }
    }

    /// Statistics of the backing cluster memory.
    pub fn mem_stats(&self) -> crate::memory::cluster_mem::ClusterMemStats {
        self.mem.stats()
    }

    fn roll_cycle(&mut self, now: Cycle) {
        if now != self.bank_cycle {
            self.bank_cycle = now;
            self.bank_used.iter_mut().for_each(|b| *b = 0);
        }
    }

    fn expire_misses(&mut self, now: Cycle, ce: usize) {
        let slots = &mut self.ce_misses[ce];
        if !slots.is_empty() {
            slots.retain(|&(_, at)| at > now);
        }
    }

    /// Bump the LRU stamp (and dirty bit) of the resident line at a flat
    /// way index.
    fn touch(&mut self, idx: usize, write: bool) {
        self.lru_clock += 1;
        if let Some(line) = &mut self.tags[idx] {
            line.lru = self.lru_clock;
            line.dirty |= write;
        }
    }

    fn victim(&self, set: usize) -> usize {
        let ways = &self.tags[set * self.assoc..set * self.assoc + self.assoc];
        // Prefer an invalid way, else the least recently used.
        if let Some(w) = ways.iter().position(Option::is_none) {
            return w;
        }
        ways.iter()
            .enumerate()
            .min_by_key(|(_, l)| l.map(|l| l.lru).unwrap_or(0))
            .map(|(w, _)| w)
            .expect("cache sets are non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, ClusterMemoryConfig};

    fn cache() -> ClusterCache {
        ClusterCache::new(
            &CacheConfig::cedar(),
            8,
            ClusterMemory::new(&ClusterMemoryConfig::cedar()),
        )
    }

    #[test]
    fn miss_then_hit_same_line() {
        let mut c = cache();
        let a = c.access(Cycle(0), 0, 100, false);
        assert!(matches!(a, CacheAccess::Pending { .. }));
        let at = a.ready_at().unwrap();
        // After the fill arrives, the same line hits.
        let b = c.access(at + 1, 0, 101, false);
        match b {
            CacheAccess::Ready { at: t } => assert_eq!(t, at + 1 + 2),
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn two_miss_limit_per_ce() {
        let mut c = cache();
        // Three distinct lines in the same cycle: third stalls on MSHRs.
        assert!(matches!(
            c.access(Cycle(0), 0, 0, false),
            CacheAccess::Pending { .. }
        ));
        assert!(matches!(
            c.access(Cycle(0), 0, 1024, false),
            CacheAccess::Pending { .. }
        ));
        // Use a different bank to avoid the bank limit masking the MSHR limit:
        // line of 2048/4=512 -> bank 0; pick 4*4096+8 etc. Simply advance a
        // cycle so banks are free but misses still outstanding.
        let r = c.access(Cycle(1), 0, 2048, false);
        assert_eq!(r, CacheAccess::Stall);
        assert!(c.stats().mshr_stalls >= 1);
        // Another CE still has slots.
        assert!(matches!(
            c.access(Cycle(2), 1, 4096, false),
            CacheAccess::Pending { .. }
        ));
    }

    #[test]
    fn bank_conflicts_stall_within_a_cycle() {
        let mut c = cache();
        // Warm a line, then hammer the same bank beyond 2 words/cycle.
        let at = c.access(Cycle(0), 0, 0, false).ready_at().unwrap();
        let now = at + 10;
        assert!(matches!(
            c.access(now, 0, 0, false),
            CacheAccess::Ready { .. }
        ));
        assert!(matches!(
            c.access(now, 1, 1, false),
            CacheAccess::Ready { .. }
        ));
        // Third access to bank 0 in the same cycle stalls.
        assert_eq!(c.access(now, 2, 2, false), CacheAccess::Stall);
        assert!(c.stats().bank_stalls >= 1);
        // Next cycle it goes through.
        assert!(matches!(
            c.access(now + 1, 2, 2, false),
            CacheAccess::Ready { .. }
        ));
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut cfg = CacheConfig::cedar();
        cfg.capacity_bytes = 2 * 32 * 2; // 2 sets × 2 ways × 1 line
        let mut c = ClusterCache::new(&cfg, 1, ClusterMemory::new(&ClusterMemoryConfig::cedar()));
        // Write line A (set 0), then fill two more lines mapping to set 0
        // to evict it.
        let mut now = Cycle(0);
        let wa = c.access(now, 0, 0, true); // line 0, set 0
        now = wa.ready_at().unwrap() + 1;
        let wb = c.access(now, 0, 2 * 4, false); // line 2, set 0
        now = wb.ready_at().unwrap() + 1;
        let wc = c.access(now, 0, 4 * 4, false); // line 4, set 0 -> evicts dirty line 0
        now = wc.ready_at().unwrap() + 1;
        let _ = now;
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn distinct_ces_share_the_cache_contents() {
        let mut c = cache();
        let at = c.access(Cycle(0), 0, 64, false).ready_at().unwrap();
        // CE 5 hits on the line CE 0 brought in.
        assert!(matches!(
            c.access(at + 1, 5, 65, false),
            CacheAccess::Ready { .. }
        ));
    }

    #[test]
    fn pending_line_shared_by_second_accessor() {
        let mut c = cache();
        let a = c.access(Cycle(0), 0, 0, false).ready_at().unwrap();
        // Another CE asks for the same line while in flight: no second fill.
        let b = c.access(Cycle(1), 1, 1, false).ready_at().unwrap();
        assert_eq!(c.mem_stats().fills, 1);
        assert!(b.saturating_since(a) <= 2 && a.saturating_since(b) <= 2);
    }
}
