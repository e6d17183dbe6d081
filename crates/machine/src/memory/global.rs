//! The interleaved global shared memory.
//!
//! 64 MB of double-word-interleaved memory spread across one module per
//! network port (32 on Cedar), giving the paper's 768 MB/s aggregate /
//! 24 MB/s-per-processor peak. The array implements the forward network's
//! [`NetSink`] so delivered request packets land directly in module queues.

use crate::bits::set_bits;
use crate::config::GlobalMemoryConfig;
use crate::ids::ModuleId;
use crate::memory::address::module_of;
use crate::memory::module::{Module, ModuleStats};
use crate::network::packet::{Packet, Payload};
use crate::network::{NetSink, Omega};
use crate::snapshot::{snapshot_state, Exact, Nested, SnapReader, SnapResult};
use crate::time::Cycle;

/// The global-memory module array. Aligned like [`Omega`]: a two-lane run
/// ticks it on one host thread while the other works on a network.
#[derive(Debug)]
#[repr(align(128))]
pub struct GlobalMemory {
    modules: Vec<Module>,
    /// Chunked bitmask of possibly-non-idle modules: a bit is set when a
    /// request is delivered and cleared when the module's tick leaves it
    /// idle. A module with a clear bit ticks as a guaranteed no-op, so
    /// the per-cycle loop visits set bits only (in ascending module
    /// order, like the dense loop it replaces).
    active: Vec<u64>,
    /// Bumped whenever any module consumed a queue entry — the moments a
    /// [`NetSink::try_begin`] answer can turn from full to accepting.
    /// The forward network's flow path uses this as its sink-acceptance
    /// epoch (see `Omega::tick_epoch`).
    accept_epoch: u64,
    dropped_replies: u64,
}

// The acceptance epoch and every module in bank order; the module count
// is checked against the configuration on restore. The active mask is an
// index over the modules, not state of its own.
snapshot_state! {
    impl GlobalMemory as this {
        tag: b"GMEM",
        saved: [accept_epoch, dropped_replies, modules: Exact(Nested)],
        derived: [active],
        after_load: rebuild_active,
    }
}

impl GlobalMemory {
    /// Build the module array.
    pub fn new(cfg: &GlobalMemoryConfig) -> GlobalMemory {
        GlobalMemory {
            modules: (0..cfg.modules).map(|p| Module::new(p, cfg)).collect(),
            active: vec![0; cfg.modules.div_ceil(64)],
            accept_epoch: 0,
            dropped_replies: 0,
        }
    }

    /// Number of modules.
    pub fn modules(&self) -> usize {
        self.modules.len()
    }

    /// The module servicing global word `addr`.
    pub fn module_of(&self, addr: u64) -> ModuleId {
        module_of(addr, self.modules.len())
    }

    /// Take one module offline (it NACKs every request it services) or
    /// bring it back — driven by the machine's fault schedule.
    pub fn set_module_offline(&mut self, module: usize, offline: bool) {
        self.modules[module].set_offline(offline);
    }

    /// Queue depth of every module with waiting requests, `(module,
    /// depth)` — the deadlock hang report's module census.
    pub fn queue_depths(&self) -> Vec<(usize, usize)> {
        self.modules
            .iter()
            .enumerate()
            .filter(|(_, m)| m.queue_len() > 0)
            .map(|(i, m)| (i, m.queue_len()))
            .collect()
    }

    /// Advance every non-idle module one cycle, injecting replies into
    /// `reverse`. Idle modules tick as guaranteed no-ops, so only the
    /// active mask's set bits are visited (ascending module order).
    pub fn tick(&mut self, now: Cycle, reverse: &mut Omega) {
        let mut popped = false;
        for c in 0..self.active.len() {
            let mut bits = self.active[c];
            while bits != 0 {
                let i = c * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let m = &mut self.modules[i];
                popped |= m.tick(now, reverse);
                if m.is_idle() {
                    self.active[c] &= !(1 << (i % 64));
                }
            }
        }
        if popped {
            self.accept_epoch += 1;
        }
    }

    /// Sink-acceptance epoch for the forward network: changes exactly
    /// when some module's queue made room (the only event that can turn a
    /// refusing [`NetSink::try_begin`] into an accepting one between
    /// forward-network ticks — queue growth happens inside those ticks).
    pub(crate) fn accept_epoch(&self) -> u64 {
        self.accept_epoch
    }

    /// The possibly-non-idle modules, in ascending order. A module outside
    /// the active mask is idle — no event, nothing to credit — so the
    /// per-round queries below visit these only.
    fn active_modules(&self) -> impl Iterator<Item = &Module> {
        set_bits(&self.active).map(|i| &self.modules[i])
    }

    /// The mask's one invariant, checked against the dense scan: every
    /// non-idle module has its bit set.
    fn mask_covers_busy_modules(&self) -> bool {
        self.modules
            .iter()
            .enumerate()
            .all(|(i, m)| m.is_idle() || self.active[i / 64] >> (i % 64) & 1 != 0)
    }

    /// True when every module is idle.
    pub fn is_idle(&self) -> bool {
        debug_assert!(self.mask_covers_busy_modules());
        self.active_modules().all(Module::is_idle)
    }

    /// The earliest future cycle at which any module can change externally
    /// visible state (`None` when the whole array is idle). Bails out as
    /// soon as a module reports the very next cycle — no later module can
    /// report anything earlier.
    pub(crate) fn next_event(&self, now: Cycle) -> Option<Cycle> {
        debug_assert!(self.mask_covers_busy_modules());
        let soon = now + 1;
        let mut best: Option<Cycle> = None;
        for m in self.active_modules() {
            match m.next_event(now) {
                Some(t) if t <= soon => return Some(soon),
                Some(t) => best = Some(best.map_or(t, |b: Cycle| b.min(t))),
                None => {}
            }
        }
        best
    }

    /// Credit `cycles` skipped quiescent cycles into every busy module's
    /// counters (see [`Module::skip`]; an idle module has none to credit).
    pub(crate) fn skip(&mut self, cycles: u64) {
        debug_assert!(self.mask_covers_busy_modules());
        for i in set_bits(&self.active) {
            self.modules[i].skip(cycles);
        }
    }

    /// Statistics of one module.
    pub fn module_stats(&self, m: ModuleId) -> ModuleStats {
        self.modules[m.0].stats()
    }

    /// Statistics of every module, in bank order.
    pub fn per_module_stats(&self) -> impl Iterator<Item = ModuleStats> + '_ {
        self.modules.iter().map(Module::stats)
    }

    /// Aggregate statistics over all modules.
    pub fn total_stats(&self) -> ModuleStats {
        let mut t = ModuleStats::default();
        for m in &self.modules {
            let s = m.stats();
            t.requests += s.requests;
            t.sync_requests += s.sync_requests;
            t.busy_cycles += s.busy_cycles;
            t.reply_stall_cycles += s.reply_stall_cycles;
            t.queue_occupancy_sum += s.queue_occupancy_sum;
            t.conflict_stall_cycles += s.conflict_stall_cycles;
            t.nacks += s.nacks;
        }
        t
    }

    /// Current value of the synchronization word at global address `addr`
    /// (testing / debugging aid).
    pub fn sync_value(&self, addr: u64) -> i32 {
        self.modules[self.module_of(addr).0].sync_value(addr)
    }

    /// Clear all synchronization words (between independent runs).
    pub fn clear_sync(&mut self) {
        for m in &mut self.modules {
            m.clear_sync();
        }
    }

    /// Fold every module's persistent memory state into `h`, in bank
    /// order (see `Machine::memory_digest`).
    pub(crate) fn digest(&self, h: &mut impl std::hash::Hasher) {
        for m in &self.modules {
            m.digest(h);
        }
    }

    /// Rebuild the active mask from the restored modules rather than
    /// trusting the image for it: a bit per module left non-idle.
    fn rebuild_active(&mut self, _: &SnapReader) -> SnapResult<()> {
        self.active.fill(0);
        for (i, m) in self.modules.iter().enumerate() {
            if !m.is_idle() {
                self.active[i / 64] |= 1 << (i % 64);
            }
        }
        Ok(())
    }

    /// Drain every module's trace stamps into `events`, in bank order,
    /// accumulating overflow drops. Bank order is deterministic, and each
    /// module's internal stamp order is its own service order.
    pub(crate) fn drain_trace(&mut self, events: &mut Vec<crate::trace::TraceEvent>) -> u64 {
        let mut dropped = 0;
        for m in &mut self.modules {
            let (mut ev, d) = m.drain_trace();
            events.append(&mut ev);
            dropped += d;
        }
        dropped
    }
}

impl NetSink for GlobalMemory {
    fn try_begin(&mut self, port: usize) -> bool {
        port < self.modules.len() && self.modules[port].can_accept()
    }

    fn deliver(&mut self, port: usize, packet: Packet) {
        match packet.payload {
            Payload::Request(req) => {
                self.modules[port].enqueue(req);
                self.active[port / 64] |= 1 << (port % 64);
            }
            Payload::Reply(_) => {
                // A reply on the forward network is a routing bug upstream;
                // count it rather than corrupting module state.
                self.dropped_replies += 1;
                debug_assert!(false, "reply packet delivered to global memory");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::ids::CeId;
    use crate::network::packet::{MemRequest, RequestKind, Stream};

    #[derive(Default)]
    struct Collect {
        got: Vec<(usize, Packet)>,
    }
    impl NetSink for Collect {
        fn try_begin(&mut self, _p: usize) -> bool {
            true
        }
        fn deliver(&mut self, p: usize, pkt: Packet) {
            self.got.push((p, pkt));
        }
    }

    #[test]
    fn requests_route_to_interleaved_modules_and_return() {
        let gcfg = GlobalMemoryConfig::cedar();
        let ncfg = NetworkConfig::cedar();
        let mut gm = GlobalMemory::new(&gcfg);
        let mut fwd = Omega::new(32, &ncfg);
        let mut rev = Omega::new(32, &ncfg);
        let mut ce_side = Collect::default();

        // CE 0 reads words 0..8: one per module 0..8.
        for w in 0..8u64 {
            let dst = gm.module_of(w).0;
            assert_eq!(dst, w as usize);
            // Injection may be refused once the port queue fills; the
            // refused words are simply not part of this test.
            let _ = fwd.try_inject(
                0,
                Packet::read_request(
                    dst,
                    MemRequest {
                        ce: CeId(0),
                        kind: RequestKind::Read,
                        addr: w,
                        stream: Stream::Direct { elem: w as u32 },
                        issued: Cycle(0),
                        seq: 0,
                        nacked: false,
                        trace: 0,
                    },
                ),
            );
        }
        for c in 0..200u64 {
            let now = Cycle(c);
            gm.tick(now, &mut rev);
            rev.tick(&mut ce_side);
            fwd.tick(&mut gm);
        }
        // Injector capacity is 2 packets, so not all 8 were accepted above;
        // at least the accepted ones complete.
        assert!(!ce_side.got.is_empty());
        for (port, _) in &ce_side.got {
            assert_eq!(*port, 0, "replies return to the requesting CE's port");
        }
        assert!(gm.is_idle());
        assert!(fwd.is_idle() && rev.is_idle());
    }

    #[test]
    fn total_stats_aggregate() {
        let gcfg = GlobalMemoryConfig::cedar();
        let gm = GlobalMemory::new(&gcfg);
        assert_eq!(gm.total_stats().requests, 0);
        assert_eq!(gm.modules(), 32);
    }
}
