//! The per-cluster concurrency control bus.
//!
//! Every CE in an Alliant cluster connects to a concurrency control bus
//! whose instructions implement fast fork, join and synchronization:
//! `concurrent start` spreads a parallel loop across the cluster in a few
//! cycles, and the CEs then self-schedule iterations among themselves over
//! the bus (§2 "Alliant clusters"). The bus model serializes one
//! dispatch transaction per [`dispatch_cycles`](crate::config::CcBusConfig)
//! and provides counted cluster barriers for loop joins.
//!
//! Counters and barriers are *epoch addressed*: a loop that executes many
//! times (e.g. inside a timestep loop) uses a fresh logical counter each
//! entry, exactly as the runtime library allocates fresh control blocks,
//! so no reset protocol is needed.
//!
//! A barrier is a few-cycle hardware event, so its bookkeeping is kept
//! to match: a CE waits at one barrier at a time, so every parked CE of
//! the cluster fits one arrival-ordered waiter buffer, allocated once
//! with room for the whole cluster and reused by every episode. Counter
//! values and SDOALL state stay keyed by `(slot, epoch)`, under an Fx
//! hash rather than SipHash.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use crate::config::CcBusConfig;
use crate::snapshot::{
    codec, snapshot_state, Codec, Exact, Field, Nested, SnapReader, SnapResult, SnapWriter, Sorted,
};
use crate::time::Cycle;

/// The Fx multiply-rotate hash: a few integer operations per word. The
/// bus's keys are the simulator's own small integers, so the flooding
/// resistance `RandomState` pays SipHash for buys nothing here.
#[derive(Debug, Default, Clone, Copy)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// State keyed by `(slot or counter id, epoch)`.
type EpochMap<V> = HashMap<(usize, u64), V, BuildHasherDefault<FxHasher>>;

/// One pending counter-dispatch transaction.
#[derive(Debug, Clone, Copy)]
struct CounterReq {
    ce: usize,
    slot: usize,
    epoch: u64,
    chunk: u32,
    limit: u64,
}

/// A CE parked at the cluster barrier episode `(slot, epoch)`, with the
/// cycle it arrived (so the release can account the wait time).
#[derive(Debug, Clone, Copy)]
struct Waiter {
    episode: (usize, u64),
    ce: usize,
    since: Cycle,
}

/// Result of asking the bus for the cluster's next SDOALL value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SdoallTake {
    /// The next value for this CE (every CE of the cluster sees the same
    /// sequence of values, each exactly once).
    Ready(u64),
    /// No value buffered and no fetch in flight: this CE is elected to
    /// fetch the next value from the global counter on the cluster's
    /// behalf.
    Fetch,
    /// Another CE's fetch is in flight; retry next cycle.
    Wait,
}

#[derive(Debug, Default)]
struct SdoallState {
    values: Vec<u64>,
    cursor: Vec<usize>,
    fetch_in_flight: bool,
}

/// Bus statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CcBusStats {
    /// Counter dispatch transactions granted.
    pub dispatches: u64,
    /// Counter dispatch transactions requested (granted or still queued).
    pub counter_requests: u64,
    /// Barrier releases performed.
    pub barrier_releases: u64,
    /// Individual CE arrivals at cluster barriers.
    pub barrier_arrivals: u64,
    /// Total cycles CEs spent parked at cluster barriers, from each CE's
    /// arrival to the barrier's release.
    pub barrier_wait_cycles: u64,
    /// SDOALL values broadcast over the bus.
    pub sdoall_posts: u64,
}

codec!(struct CounterReq { ce, slot, epoch, chunk, limit });
codec!(struct SdoallState { values, cursor, fetch_in_flight });
codec!(struct CcBusStats {
    dispatches, counter_requests, barrier_releases, barrier_arrivals, barrier_wait_cycles,
    sdoall_posts,
});

// Counter values and SDOALL states go out in sorted `(slot, epoch)`
// order so the bytes are deterministic; the pending dispatch queue keeps
// its arrival order.
snapshot_state! {
    impl CcBus as this {
        tag: b"CBUS",
        saved: [
            next_free, pending, values: Sorted, grants: Exact(Nested), waiters: Episodes,
            sdoall: Sorted, releases: Exact(Nested), n_counters, stats,
        ],
        derived: [dispatch_cycles, join_cycles, start_cycles, posted],
        after_load: check_restored,
    }
}

/// The waiter buffer, grouped by barrier episode in sorted `(slot,
/// epoch)` order: each episode's key, its arrival count and its waiters
/// in arrival order.
struct Episodes;

impl Field<Vec<Waiter>> for Episodes {
    fn put(&self, waiters: &Vec<Waiter>, w: &mut SnapWriter) {
        let mut episodes: Vec<(usize, u64)> = waiters.iter().map(|x| x.episode).collect();
        episodes.sort_unstable();
        episodes.dedup();
        w.seq(episodes.iter(), |w, k| {
            k.put(w);
            let arrived = waiters.iter().filter(|x| x.episode == *k).count();
            w.u32(arrived as u32);
            w.usize(arrived);
            for x in waiters.iter().filter(|x| x.episode == *k) {
                w.usize(x.ce);
                w.cycle(x.since);
            }
        });
    }

    fn load(&self, waiters: &mut Vec<Waiter>, r: &mut SnapReader) -> SnapResult<()> {
        waiters.clear();
        for _ in 0..r.len()? {
            let episode = Codec::get(r)?;
            let arrived = r.u32()?;
            let n = r.len()?;
            if n != arrived as usize {
                return Err(r.err_mismatch("barrier arrival count disagrees with its waiters"));
            }
            for _ in 0..n {
                let (ce, since) = Codec::get(r)?;
                waiters.push(Waiter { episode, ce, since });
            }
        }
        Ok(())
    }
}

/// One cluster's concurrency control bus.
#[derive(Debug)]
pub struct CcBus {
    dispatch_cycles: u32,
    join_cycles: u32,
    start_cycles: u32,
    next_free: Cycle,
    pending: VecDeque<CounterReq>,
    /// `(slot, epoch)` → counter value.
    values: EpochMap<u64>,
    /// Per-CE granted old counter value.
    grants: Vec<Option<u64>>,
    /// Every CE parked at a cluster barrier, in arrival order. Episodes
    /// of any slot and epoch share it; more than one episode of a slot
    /// is live when a barrier expects fewer arrivals than it has users.
    waiters: Vec<Waiter>,
    /// `(sdoall counter id, epoch)` → shared-value state.
    sdoall: EpochMap<SdoallState>,
    /// Per-CE barrier release time.
    releases: Vec<Option<Cycle>>,
    /// Grants and releases posted but not yet taken.
    posted: usize,
    n_counters: usize,
    stats: CcBusStats,
}

/// Post `v` into a per-CE flag, counting it into `posted` unless the flag
/// was already up.
fn post<T>(flag: &mut Option<T>, v: T, posted: &mut usize) {
    *posted += usize::from(flag.is_none());
    *flag = Some(v);
}

/// Take a per-CE flag down, uncounting it from `posted`.
fn take<T>(flag: &mut Option<T>, posted: &mut usize) -> Option<T> {
    let v = flag.take();
    *posted -= usize::from(v.is_some());
    v
}

impl CcBus {
    /// Build a bus for a cluster of `ces` processors.
    pub fn new(cfg: &CcBusConfig, ces: usize) -> CcBus {
        CcBus {
            dispatch_cycles: cfg.dispatch_cycles.max(1),
            join_cycles: cfg.join_cycles,
            start_cycles: cfg.start_cycles,
            next_free: Cycle::ZERO,
            pending: VecDeque::new(),
            values: EpochMap::default(),
            grants: vec![None; ces],
            waiters: Vec::with_capacity(ces),
            sdoall: EpochMap::default(),
            releases: vec![None; ces],
            posted: 0,
            n_counters: 0,
            stats: CcBusStats::default(),
        }
    }

    /// Cycles a `concurrent start` broadcast takes.
    pub fn start_cycles(&self) -> u32 {
        self.start_cycles
    }

    /// Allocate a counter slot on this bus.
    pub fn alloc_counter(&mut self) -> usize {
        self.n_counters += 1;
        self.n_counters - 1
    }

    /// Queue a bounded fetch-and-add: grants `old`, adding `chunk` only
    /// while `old < limit`.
    pub fn request_counter(&mut self, ce: usize, slot: usize, epoch: u64, chunk: u32, limit: u64) {
        debug_assert!(slot < self.n_counters, "counter slot not allocated");
        self.stats.counter_requests += 1;
        self.pending.push_back(CounterReq {
            ce,
            slot,
            epoch,
            chunk,
            limit,
        });
    }

    /// Take a granted counter value for `ce`, if one arrived.
    pub fn take_grant(&mut self, ce: usize) -> Option<u64> {
        take(&mut self.grants[ce], &mut self.posted)
    }

    /// Arrive at cluster barrier `(slot, epoch)` expecting `expected`
    /// participants. When the last participant arrives, all are released
    /// after the join delay.
    pub fn arrive_barrier(
        &mut self,
        now: Cycle,
        ce: usize,
        slot: usize,
        epoch: u64,
        expected: u32,
    ) {
        let episode = (slot, epoch);
        self.waiters.push(Waiter {
            episode,
            ce,
            since: now,
        });
        self.stats.barrier_arrivals += 1;
        let arrived = self.waiters.iter().filter(|w| w.episode == episode).count();
        if arrived as u64 >= u64::from(expected) {
            let release_at = now + u64::from(self.join_cycles);
            self.waiters.retain(|w| {
                if w.episode != episode {
                    return true;
                }
                self.stats.barrier_wait_cycles += release_at.saturating_since(w.since);
                post(&mut self.releases[w.ce], release_at, &mut self.posted);
                false
            });
            self.stats.barrier_releases += 1;
        }
    }

    /// Take `ce`'s barrier release time, if released.
    pub fn take_release(&mut self, ce: usize) -> Option<Cycle> {
        take(&mut self.releases[ce], &mut self.posted)
    }

    /// True when a granted counter value is waiting for `ce` (a
    /// non-consuming [`CcBus::take_grant`]).
    pub(crate) fn peek_grant(&self, ce: usize) -> bool {
        self.grants[ce].is_some()
    }

    /// True when a barrier release is waiting for `ce` (a non-consuming
    /// [`CcBus::take_release`]).
    pub(crate) fn peek_release(&self, ce: usize) -> bool {
        self.releases[ce].is_some()
    }

    /// The earliest future cycle at which the bus or a CE on it can
    /// change externally visible state: the next cycle while a posted
    /// grant or release waits to be taken (its CE sleeps until then), else
    /// the next dispatch grant, or `None` with nothing queued.
    pub(crate) fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.posted > 0 {
            Some(now + 1)
        } else if self.pending.is_empty() {
            None
        } else {
            Some(self.next_free.max(now + 1))
        }
    }

    /// Advance one cycle: grant at most one dispatch per
    /// `dispatch_cycles`. (The idle check inlines into the cluster
    /// phase, which ticks every bus every cycle.)
    #[inline]
    pub fn tick(&mut self, now: Cycle) {
        if !self.pending.is_empty() && now >= self.next_free {
            self.grant(now);
        }
    }

    fn grant(&mut self, now: Cycle) {
        if let Some(req) = self.pending.pop_front() {
            let v = self.values.entry((req.slot, req.epoch)).or_insert(0);
            let old = *v;
            if old < req.limit {
                *v = old + u64::from(req.chunk);
            }
            post(&mut self.grants[req.ce], old, &mut self.posted);
            self.stats.dispatches += 1;
            self.next_free = now + u64::from(self.dispatch_cycles);
        }
    }

    /// Take the next SDOALL value for CE `ce` (index within the cluster)
    /// from shared counter `id` at `epoch`; the cluster holds `ces`
    /// members.
    pub fn sdoall_take(&mut self, ce: usize, id: usize, epoch: u64, ces: usize) -> SdoallTake {
        let st = self
            .sdoall
            .entry((id, epoch))
            .or_insert_with(|| SdoallState {
                values: Vec::new(),
                cursor: vec![0; ces],
                fetch_in_flight: false,
            });
        if st.cursor.len() < ces {
            st.cursor.resize(ces, 0);
        }
        if st.cursor[ce] < st.values.len() {
            let v = st.values[st.cursor[ce]];
            st.cursor[ce] += 1;
            SdoallTake::Ready(v)
        } else if !st.fetch_in_flight {
            st.fetch_in_flight = true;
            SdoallTake::Fetch
        } else {
            SdoallTake::Wait
        }
    }

    /// Post a value fetched from the global counter on the cluster's
    /// behalf; it becomes visible to every CE of the cluster.
    pub fn sdoall_post(&mut self, id: usize, epoch: u64, value: u64) {
        let st = self.sdoall.entry((id, epoch)).or_default();
        st.values.push(value);
        st.fetch_in_flight = false;
        self.stats.sdoall_posts += 1;
    }

    /// Check the restored per-CE indexes against the cluster's CEs and
    /// recount the posted flags.
    fn check_restored(&mut self, r: &SnapReader) -> SnapResult<()> {
        let ces = self.grants.len();
        if self.pending.iter().any(|req| req.ce >= ces) {
            return Err(r.err_mismatch("queued dispatch `ce` beyond the cluster's CEs"));
        }
        if self.waiters.iter().any(|x| x.ce >= ces) {
            return Err(r.err_mismatch("barrier waiter beyond the cluster's CEs"));
        }
        self.posted = self.grants.iter().filter(|g| g.is_some()).count()
            + self.releases.iter().filter(|r| r.is_some()).count();
        Ok(())
    }

    /// Reset all counter/barrier state (between independent runs).
    pub fn reset(&mut self) {
        self.pending.clear();
        self.values.clear();
        self.waiters.clear();
        self.sdoall.clear();
        self.grants.iter_mut().for_each(|g| *g = None);
        self.releases.iter_mut().for_each(|r| *r = None);
        self.posted = 0;
        self.next_free = Cycle::ZERO;
    }

    /// Statistics so far.
    pub fn stats(&self) -> CcBusStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{SnapReader, SnapWriter, State};

    fn bus() -> CcBus {
        CcBus::new(&CcBusConfig::cedar(), 8)
    }

    fn save(b: &CcBus) -> Vec<u8> {
        let mut w = SnapWriter::fragment();
        b.save(&mut w);
        w.into_fragment()
    }

    #[test]
    fn counter_grants_are_serialized_by_dispatch_time() {
        let mut b = bus();
        let slot = b.alloc_counter();
        for ce in 0..4 {
            b.request_counter(ce, slot, 0, 1, 100);
        }
        // dispatch_cycles = 2: grants land at t=0,2,4,6.
        b.tick(Cycle(0));
        assert_eq!(b.take_grant(0), Some(0));
        assert_eq!(b.take_grant(1), None);
        b.tick(Cycle(1)); // bus busy
        assert_eq!(b.take_grant(1), None);
        b.tick(Cycle(2));
        assert_eq!(b.take_grant(1), Some(1));
        b.tick(Cycle(4));
        b.tick(Cycle(6));
        assert_eq!(b.take_grant(2), Some(2));
        assert_eq!(b.take_grant(3), Some(3));
        assert_eq!(b.stats().dispatches, 4);
    }

    #[test]
    fn counter_respects_limit() {
        let mut b = bus();
        let slot = b.alloc_counter();
        let mut t = 0;
        let mut got = Vec::new();
        for ce in 0..5 {
            b.request_counter(ce, slot, 0, 2, 5);
        }
        for _ in 0..5 {
            b.tick(Cycle(t));
            t += 2;
        }
        for ce in 0..5 {
            got.push(b.take_grant(ce).unwrap());
        }
        // Chunks of 2 toward limit 5: 0, 2, 4, then saturate.
        assert_eq!(got[..3], [0, 2, 4]);
        assert!(got[3] >= 5 && got[4] >= 5);
    }

    #[test]
    fn epochs_are_independent() {
        let mut b = bus();
        let slot = b.alloc_counter();
        b.request_counter(0, slot, 0, 1, 10);
        b.tick(Cycle(0));
        assert_eq!(b.take_grant(0), Some(0));
        b.request_counter(0, slot, 1, 1, 10);
        b.tick(Cycle(10));
        // Fresh epoch starts at zero again.
        assert_eq!(b.take_grant(0), Some(0));
    }

    #[test]
    fn barrier_releases_all_on_last_arrival() {
        let mut b = bus();
        b.arrive_barrier(Cycle(5), 0, 0, 0, 3);
        b.arrive_barrier(Cycle(6), 1, 0, 0, 3);
        assert_eq!(b.take_release(0), None);
        b.arrive_barrier(Cycle(9), 2, 0, 0, 3);
        // join_cycles = 4.
        assert_eq!(b.take_release(0), Some(Cycle(13)));
        assert_eq!(b.take_release(1), Some(Cycle(13)));
        assert_eq!(b.take_release(2), Some(Cycle(13)));
        assert_eq!(b.stats().barrier_releases, 1);
    }

    #[test]
    fn barrier_epochs_do_not_collide() {
        let mut b = bus();
        b.arrive_barrier(Cycle(0), 0, 0, 0, 2);
        b.arrive_barrier(Cycle(0), 1, 0, 1, 2); // different epoch
        assert_eq!(b.take_release(0), None);
        assert_eq!(b.take_release(1), None);
    }

    /// A barrier expecting fewer arrivals than it has users keeps two
    /// episodes of one slot live at once; each releases exactly its own
    /// waiters, and the later-completing one leaves the other parked.
    #[test]
    fn two_live_epochs_on_one_slot_release_independently() {
        let mut b = bus();
        b.arrive_barrier(Cycle(1), 0, 3, 0, 2);
        b.arrive_barrier(Cycle(2), 1, 3, 1, 2);
        b.arrive_barrier(Cycle(3), 5, 4, 1, 2); // same epoch, other slot
        b.arrive_barrier(Cycle(4), 2, 3, 1, 2);
        assert_eq!(b.take_release(0), None, "epoch 0 is still one short");
        assert_eq!(b.take_release(1), Some(Cycle(8)));
        assert_eq!(b.take_release(2), Some(Cycle(8)));
        assert_eq!(b.take_release(5), None, "slot 4 is its own barrier");
        b.arrive_barrier(Cycle(10), 3, 3, 0, 2);
        assert_eq!(b.take_release(0), Some(Cycle(14)));
        assert_eq!(b.take_release(3), Some(Cycle(14)));
        assert_eq!(b.stats().barrier_releases, 2);
        // (8-2) + (8-4) + (14-1) + (14-10)
        assert_eq!(b.stats().barrier_wait_cycles, 27);
        assert_eq!(b.next_event(Cycle(20)), None, "every release was taken");
    }

    /// A thousand full-cluster episodes run through the waiter buffer
    /// the bus was built with: it never grows, and it is empty between
    /// episodes.
    #[test]
    fn waiter_buffer_is_reused_across_episodes() {
        let mut b = bus();
        let buffer = (b.waiters.as_ptr(), b.waiters.capacity());
        let mut now = Cycle(0);
        for epoch in 0..1_000u64 {
            for ce in 0..8 {
                now += 1;
                b.arrive_barrier(now, ce, 0, epoch, 8);
            }
            assert!(b.waiters.is_empty(), "episode {epoch} left waiters behind");
            for ce in 0..8 {
                assert_eq!(b.take_release(ce), Some(now + 4));
            }
        }
        assert_eq!((b.waiters.as_ptr(), b.waiters.capacity()), buffer);
        assert_eq!(b.stats().barrier_releases, 1_000);
        assert_eq!(b.posted, 0);
    }

    /// Posted grants and releases are next-cycle events until taken; the
    /// queue alone reports its next dispatch slot.
    #[test]
    fn posted_flags_are_next_cycle_events() {
        let mut b = bus();
        let slot = b.alloc_counter();
        assert_eq!(b.next_event(Cycle(0)), None);
        b.request_counter(0, slot, 0, 1, 10);
        b.request_counter(1, slot, 0, 1, 10);
        b.tick(Cycle(0));
        assert_eq!(
            b.next_event(Cycle(0)),
            Some(Cycle(1)),
            "grant to CE 0 posted"
        );
        b.take_grant(0);
        assert_eq!(b.next_event(Cycle(0)), Some(Cycle(2)), "next dispatch slot");
        b.tick(Cycle(2));
        b.take_grant(1);
        b.arrive_barrier(Cycle(3), 4, 0, 0, 1);
        assert_eq!(
            b.next_event(Cycle(3)),
            Some(Cycle(4)),
            "release to CE 4 posted"
        );
        b.take_release(4);
        assert_eq!(b.next_event(Cycle(3)), None);
    }

    /// Save → load → save is byte-equal with live episodes (two of them
    /// on one slot), granted-but-untaken values, queued dispatches,
    /// posted releases and SDOALL state, and the restored bus carries on
    /// exactly like the original.
    #[test]
    fn snapshot_codec_save_load_save_is_byte_equal_with_live_state() {
        let mut b = bus();
        let slot = b.alloc_counter();
        b.request_counter(2, slot, 0, 1, 10);
        b.request_counter(3, slot, 0, 1, 10);
        b.request_counter(4, slot, 1, 2, 10);
        b.tick(Cycle(0)); // grants CE 2; two requests stay queued
        b.arrive_barrier(Cycle(1), 0, 0, 1, 3);
        b.arrive_barrier(Cycle(2), 1, 0, 0, 3);
        b.arrive_barrier(Cycle(3), 5, 0, 1, 3);
        b.arrive_barrier(Cycle(4), 6, 1, 0, 1); // released at once
        assert_eq!(b.sdoall_take(7, 0, 0, 8), SdoallTake::Fetch);
        b.sdoall_post(0, 0, 42);
        assert_eq!(b.sdoall_take(7, 0, 0, 8), SdoallTake::Ready(42));
        let image = save(&b);

        let mut c = bus();
        c.alloc_counter();
        c.load(&mut SnapReader::new(&image)).unwrap();
        assert_eq!(save(&c), image);
        assert_eq!(c.next_event(Cycle(4)), b.next_event(Cycle(4)));

        for bus in [&mut b, &mut c] {
            assert_eq!(bus.take_grant(2), Some(0));
            assert_eq!(bus.take_release(6), Some(Cycle(8)));
            bus.arrive_barrier(Cycle(9), 7, 0, 1, 3);
            bus.tick(Cycle(10));
        }
        assert_eq!(save(&c), save(&b));
        assert_eq!(c.take_release(0), Some(Cycle(13)));
        assert_eq!(c.take_release(1), None, "epoch 0 still waits");
    }

    /// A crafted image whose queued dispatch names a CE beyond the
    /// cluster is refused by name; it used to reach `self.grants[req.ce]`
    /// and panic at the grant.
    #[test]
    fn snapshot_codec_rejects_a_queued_dispatch_beyond_the_cluster() {
        let mut b = bus();
        let slot = b.alloc_counter();
        b.request_counter(2, slot, 0, 1, 10);
        b.pending[0].ce = 99;
        let image = save(&b);
        let e = bus().load(&mut SnapReader::new(&image)).unwrap_err();
        assert!(e.0.contains("queued dispatch `ce`"), "{}", e.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut b = bus();
        let slot = b.alloc_counter();
        b.request_counter(0, slot, 0, 1, 10);
        b.tick(Cycle(0));
        b.reset();
        assert_eq!(b.take_grant(0), None);
        assert_eq!(b.next_event(Cycle(0)), None);
        b.request_counter(0, slot, 0, 1, 10);
        b.tick(Cycle(0));
        assert_eq!(b.take_grant(0), Some(0));
    }
}
