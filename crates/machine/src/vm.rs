//! Virtual-memory modelling: per-cluster TLBs over a shared page table.
//!
//! Cedar runs a paged virtual memory system with 4 KB pages. The paper's
//! TRFD analysis found multicluster versions spending ~50 % of their time
//! in virtual-memory activity: each additional cluster takes TLB-miss
//! faults on pages whose PTE is already valid in global memory
//! \[MaEG92\]. The simulator models both levels: a per-cluster TLB of
//! bounded capacity ([`Tlb`]), and the machine-wide page table
//! ([`PageTable`]) that distinguishes a *TLB-miss fault* (PTE valid in
//! global memory — the dominant multicluster cost) from a *hard fault*
//! (first touch machine-wide, serviced by Xylem).

use std::collections::{HashMap, VecDeque};

use crate::ids::PageId;
use crate::snapshot::{codec, snapshot_state, SnapReader, SnapResult, Sorted};

/// Statistics for one TLB.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    pub hits: u64,
    pub misses: u64,
}

codec!(struct TlbStats { hits, misses });

/// The machine-wide page table: which pages have a valid PTE in global
/// memory (i.e. have been touched by any cluster since reset).
#[derive(Debug, Default)]
pub struct PageTable {
    valid: std::collections::HashSet<PageId>,
    hard_faults: u64,
    soft_faults: u64,
}

// The valid set goes out in sorted page order (the set itself is hash
// ordered).
snapshot_state! {
    impl PageTable as this {
        saved: [valid: Sorted, hard_faults, soft_faults],
        derived: [],
    }
}

impl PageTable {
    /// A fresh, empty page table.
    pub fn new() -> PageTable {
        PageTable::default()
    }

    /// Record a TLB miss on `page`. Returns `true` when the PTE was
    /// already valid in global memory (a cheap TLB-miss fault); `false`
    /// on a first-touch hard fault, which also validates the PTE.
    pub fn miss(&mut self, page: PageId) -> bool {
        if self.valid.contains(&page) {
            self.soft_faults += 1;
            true
        } else {
            self.hard_faults += 1;
            self.valid.insert(page);
            false
        }
    }

    /// Hard (first-touch) faults serviced.
    pub fn hard_faults(&self) -> u64 {
        self.hard_faults
    }

    /// TLB-miss faults with a valid PTE — the multicluster TRFD cost.
    pub fn soft_faults(&self) -> u64 {
        self.soft_faults
    }

    /// Pages with valid PTEs.
    pub fn resident_pages(&self) -> usize {
        self.valid.len()
    }

    /// Clear all PTEs (between independent runs).
    pub fn reset(&mut self) {
        self.valid.clear();
        self.hard_faults = 0;
        self.soft_faults = 0;
    }
}

/// A per-cluster TLB with FIFO replacement.
#[derive(Debug)]
pub struct Tlb {
    capacity: usize,
    entries: HashMap<PageId, ()>,
    order: VecDeque<PageId>,
    stats: TlbStats,
}

snapshot_state! {
    impl Tlb as this {
        saved: [order, stats],
        derived: [capacity, entries],
        after_load: rebuild_entries,
    }
}

impl Tlb {
    /// A TLB holding `capacity` page entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Tlb {
        assert!(capacity > 0, "TLB needs at least one entry");
        Tlb {
            capacity,
            entries: HashMap::new(),
            order: VecDeque::new(),
            stats: TlbStats::default(),
        }
    }

    /// Touch `page`: returns `true` on a hit; on a miss, installs the page
    /// (evicting FIFO) and returns `false`.
    pub fn touch(&mut self, page: PageId) -> bool {
        if self.entries.contains_key(&page) {
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if self.entries.len() >= self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.entries.remove(&old);
            }
        }
        self.entries.insert(page, ());
        self.order.push_back(page);
        false
    }

    /// Statistics so far.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Drop all entries (e.g. at a context switch).
    pub fn flush(&mut self) {
        self.entries.clear();
        self.order.clear();
    }

    /// The FIFO order is the whole replacement state: rebuild the entry
    /// map from it.
    fn rebuild_entries(&mut self, _: &SnapReader) -> SnapResult<()> {
        self.entries = self.order.iter().map(|&p| (p, ())).collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_table_distinguishes_hard_and_soft_faults() {
        let mut pt = PageTable::new();
        assert!(!pt.miss(PageId(1)), "first touch is a hard fault");
        assert!(pt.miss(PageId(1)), "second cluster's miss finds the PTE");
        assert_eq!(pt.hard_faults(), 1);
        assert_eq!(pt.soft_faults(), 1);
        assert_eq!(pt.resident_pages(), 1);
        pt.reset();
        assert_eq!(pt.resident_pages(), 0);
        assert!(!pt.miss(PageId(1)));
    }

    #[test]
    fn hit_after_install() {
        let mut t = Tlb::new(4);
        assert!(!t.touch(PageId(1)));
        assert!(t.touch(PageId(1)));
        assert_eq!(t.stats(), TlbStats { hits: 1, misses: 1 });
    }

    #[test]
    fn fifo_eviction() {
        let mut t = Tlb::new(2);
        t.touch(PageId(1));
        t.touch(PageId(2));
        t.touch(PageId(3)); // evicts 1
        assert!(!t.touch(PageId(1)));
        assert!(t.touch(PageId(3)));
    }

    #[test]
    fn flush_clears() {
        let mut t = Tlb::new(2);
        t.touch(PageId(1));
        t.flush();
        assert!(!t.touch(PageId(1)));
    }
}
