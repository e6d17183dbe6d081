//! One global-memory module.
//!
//! Each module owns a request queue, a bank that services one 64-bit word
//! access every [`service_cycles`](crate::config::GlobalMemoryConfig), and
//! a synchronization processor that executes the indivisible
//! Test-And-Operate instructions of [`sync`](crate::memory::sync) against
//! the module's 32-bit synchronization words.

use crate::config::GlobalMemoryConfig;
use crate::ids::CeId;
use crate::memory::sync_store::SyncStore;
use crate::network::packet::{MemReply, MemRequest, Packet, RequestKind, Stream};
use crate::network::Omega;
use crate::snapshot::{
    codec, snapshot_state, Codec, Echo, SnapReader, SnapResult, SnapWriter, Sorted, State,
};
use crate::time::Cycle;
use crate::trace::{hop, TraceBuf, TraceEvent, MODULE_TRACE_CAP};

/// Statistics for one memory module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModuleStats {
    /// Requests fully serviced.
    pub requests: u64,
    /// Of which synchronization instructions.
    pub sync_requests: u64,
    /// Cycles the bank was busy servicing.
    pub busy_cycles: u64,
    /// Cycles a completed reply waited because the reverse network refused
    /// injection (reverse-path backpressure).
    pub reply_stall_cycles: u64,
    /// Cumulative queue occupancy, one sample per tick (divide by ticks for
    /// the mean).
    pub queue_occupancy_sum: u64,
    /// Cycles in which requests waited in the queue while the bank was
    /// busy — bank-conflict stall pressure.
    pub conflict_stall_cycles: u64,
    /// Requests refused with a NACK reply (module offline, or the request
    /// arrived corrupted): serviced at normal cost but with no side
    /// effect.
    pub nacks: u64,
}

/// A fixed-capacity FIFO of queued requests (capacity = the configured
/// request queue depth). Like the network's `Ring`: one contiguous
/// allocation at construction, no growth or shuffling on the tick path.
#[derive(Debug)]
struct ReqRing {
    buf: Box<[MemRequest]>,
    head: usize,
    len: usize,
}

impl ReqRing {
    fn new(cap: usize) -> ReqRing {
        let filler = MemRequest {
            ce: CeId(0),
            kind: RequestKind::Read,
            addr: 0,
            stream: Stream::Scalar,
            issued: Cycle::ZERO,
            seq: 0,
            nacked: false,
            trace: 0,
        };
        ReqRing {
            buf: vec![filler; cap].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn is_full(&self) -> bool {
        self.len == self.buf.len()
    }

    #[inline]
    fn push_back(&mut self, req: MemRequest) {
        assert!(
            !self.is_full(),
            "module queue overflow: flow control violated"
        );
        let mut tail = self.head + self.len;
        if tail >= self.buf.len() {
            tail -= self.buf.len();
        }
        self.buf[tail] = req;
        self.len += 1;
    }

    #[inline]
    fn pop_front(&mut self) -> Option<MemRequest> {
        if self.len == 0 {
            return None;
        }
        let req = self.buf[self.head];
        self.head += 1;
        if self.head == self.buf.len() {
            self.head = 0;
        }
        self.len -= 1;
        Some(req)
    }
}

/// The queue is written front-to-back and replayed through `push_back`
/// on restore, so the ring's internal `head` need not match — only the
/// FIFO contents do.
impl State for ReqRing {
    fn save(&self, w: &mut SnapWriter) {
        let at = |j: usize| &self.buf[(self.head + j) % self.buf.len()];
        w.seq((0..self.len).map(at), |w, req| req.put(w));
    }

    fn load(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        let queued = Vec::<MemRequest>::get(r)?;
        if queued.len() > self.buf.len() {
            return Err(r.err_mismatch(&format!(
                "module queue holds {} requests, capacity is {}",
                queued.len(),
                self.buf.len()
            )));
        }
        self.head = 0;
        self.len = 0;
        for req in queued {
            self.push_back(req);
        }
        Ok(())
    }
}

/// The sync words go out in sorted address order (the store iterates in
/// hash order).
impl State for SyncStore {
    fn save(&self, w: &mut SnapWriter) {
        let mut words: Vec<(u64, i32)> = self.iter().collect();
        words.sort_unstable();
        words.put(w);
    }

    fn load(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        self.clear();
        for (addr, value) in Vec::<(u64, i32)>::get(r)? {
            *self.get_or_insert(addr) = value;
        }
        Ok(())
    }
}

codec!(struct ModuleStats {
    requests, sync_requests, busy_cycles, reply_stall_cycles, queue_occupancy_sum,
    conflict_stall_cycles, nacks,
});

snapshot_state! {
    impl Module as this {
        tag: b"MODL",
        saved: [
            port: Echo("module port"), queue, current, pending_reply, sync_vars, offline,
            sync_dedup: Sorted, stats, trace,
        ],
        derived: [service_cycles, sync_extra_cycles],
    }
}

/// A single interleaved global-memory module.
#[derive(Debug)]
pub struct Module {
    /// This module's index (also its network port on both networks).
    port: usize,
    service_cycles: u32,
    sync_extra_cycles: u32,
    queue: ReqRing,
    /// Request in service and the cycle it finishes.
    current: Option<(MemRequest, Cycle)>,
    /// Completed reply waiting for reverse-network injection.
    pending_reply: Option<Packet>,
    /// 32-bit synchronization words owned by this module.
    sync_vars: SyncStore,
    /// Scheduled outage: while set, every serviced request is NACKed.
    offline: bool,
    /// Retry dedup for indivisible sync instructions: per CE, the last
    /// applied `(seq, encoded outcome)`. If a resend of an already-applied
    /// sync arrives (its reply was dropped on the reverse network), the
    /// recorded outcome is returned instead of applying the operation
    /// twice. One slot per CE suffices: the wormhole networks keep
    /// per-(CE, module) traffic FIFO and a CE has at most one outstanding
    /// sync. Excluded from [`Module::digest`] — it is protocol state, not
    /// memory contents.
    sync_dedup: std::collections::HashMap<usize, (u64, i64)>,
    stats: ModuleStats,
    /// Causal-tracing stamps (service start/end of traced requests). The
    /// module needs no tracing configuration: an untraced machine only
    /// ever delivers requests with `trace == 0`, so the buffer stays
    /// empty and unallocated.
    trace: TraceBuf,
}

impl Module {
    /// Create a module at network port `port`.
    pub fn new(port: usize, cfg: &GlobalMemoryConfig) -> Module {
        Module {
            port,
            service_cycles: cfg.service_cycles,
            sync_extra_cycles: cfg.sync_extra_cycles,
            queue: ReqRing::new(cfg.request_queue),
            current: None,
            pending_reply: None,
            sync_vars: SyncStore::new(),
            offline: false,
            sync_dedup: std::collections::HashMap::new(),
            stats: ModuleStats::default(),
            trace: TraceBuf::with_capacity(MODULE_TRACE_CAP),
        }
    }

    /// Drain the module's stamped trace events (and overflow count).
    pub(crate) fn drain_trace(&mut self) -> (Vec<TraceEvent>, u64) {
        let events = std::mem::take(&mut self.trace.events);
        let dropped = std::mem::replace(&mut self.trace.dropped, 0);
        (events, dropped)
    }

    /// Take the module offline (every serviced request is NACKed with no
    /// side effect) or bring it back. Queued and in-service requests are
    /// kept — an outage refuses work, it does not lose it.
    pub fn set_offline(&mut self, offline: bool) {
        self.offline = offline;
    }

    /// Requests currently waiting in the input queue (excludes the one in
    /// service) — used by the deadlock hang report.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// True when a new request packet can begin arriving (used as the
    /// forward network's sink acceptance test).
    pub fn can_accept(&self) -> bool {
        !self.queue.is_full()
    }

    /// Enqueue a fully received request.
    ///
    /// # Panics
    ///
    /// Panics if called when [`Module::can_accept`] is false — the network
    /// must not deliver into a full queue.
    pub fn enqueue(&mut self, req: MemRequest) {
        self.queue.push_back(req);
    }

    /// True when the module holds no work at all.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.current.is_none() && self.pending_reply.is_none()
    }

    /// Statistics so far.
    pub fn stats(&self) -> ModuleStats {
        self.stats
    }

    /// Peek a synchronization word (testing / debugging aid).
    pub fn sync_value(&self, addr: u64) -> i32 {
        self.sync_vars.get(addr).unwrap_or(0)
    }

    /// Clear all synchronization words (between independent runs).
    pub fn clear_sync(&mut self) {
        self.sync_vars.clear();
        self.sync_dedup.clear();
    }

    /// Fold this module's persistent memory state (the synchronization
    /// words, in address order) into `h`.
    pub(crate) fn digest(&self, h: &mut impl std::hash::Hasher) {
        let mut words: Vec<(u64, i32)> = self.sync_vars.iter().collect();
        words.sort_unstable();
        h.write_usize(self.port);
        h.write_usize(words.len());
        for (addr, value) in words {
            h.write_u64(addr);
            h.write_i32(value);
        }
    }

    /// The earliest future cycle at which this module can change
    /// externally visible state, or `None` when fully idle. A pending
    /// reply or a non-empty queue needs attention next cycle; a request in
    /// service matters no sooner than its completion cycle.
    pub(crate) fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let soon = now + 1;
        if self.pending_reply.is_some() {
            return Some(soon);
        }
        if let Some((_, done_at)) = self.current {
            return Some(done_at.max(soon));
        }
        if !self.queue.is_empty() {
            return Some(soon);
        }
        None
    }

    /// Credit `cycles` skipped quiescent cycles with exactly the stat
    /// increments the per-cycle [`Module::tick`] would have made. During a
    /// skip the module is either fully idle (tick early-returns) or
    /// mid-service with the completion cycle still in the future, so each
    /// skipped tick samples queue occupancy, counts a conflict stall when
    /// requests are waiting, and charges a busy cycle.
    pub(crate) fn skip(&mut self, cycles: u64) {
        if self.current.is_some() {
            self.stats.busy_cycles += cycles;
            self.stats.queue_occupancy_sum += self.queue.len() as u64 * cycles;
            if !self.queue.is_empty() {
                self.stats.conflict_stall_cycles += cycles;
            }
        }
    }

    /// Advance one cycle: retire finished service into a reply, inject the
    /// pending reply into the reverse network, start the next request.
    /// Returns whether a queued request was consumed (service started) —
    /// the event that can turn a full queue back into an accepting one,
    /// which the global memory folds into its acceptance epoch.
    pub fn tick(&mut self, now: Cycle, reverse: &mut Omega) -> bool {
        if self.is_idle() {
            return false;
        }
        self.stats.queue_occupancy_sum += self.queue.len() as u64;
        if self.current.is_some() && !self.queue.is_empty() {
            self.stats.conflict_stall_cycles += 1;
        }

        // Retire a finished service into a pending reply.
        if let Some((req, done_at)) = self.current {
            if now >= done_at {
                self.current = None;
                self.stats.requests += 1;
                if req.trace != 0 {
                    self.trace
                        .stamp(req.trace, hop::SVC_END, 0, req.ce.0 as u16, now);
                }
                self.pending_reply = Some(self.make_reply(req));
            } else {
                self.stats.busy_cycles += 1;
            }
        }

        // Try to inject a waiting reply.
        if let Some(pkt) = self.pending_reply.take() {
            if !reverse.try_inject(self.port, pkt) {
                self.stats.reply_stall_cycles += 1;
                self.pending_reply = Some(pkt);
            }
        }

        // Start the next request if the bank is free. A pending reply that
        // could not inject stalls the bank (the reply latch is occupied),
        // which is how reverse-network congestion throttles memory.
        if self.current.is_none() && self.pending_reply.is_none() {
            if let Some(req) = self.queue.pop_front() {
                let mut cost = self.service_cycles;
                if let RequestKind::Sync(_) = req.kind {
                    cost += self.sync_extra_cycles;
                    self.stats.sync_requests += 1;
                }
                if req.trace != 0 {
                    self.trace
                        .stamp(req.trace, hop::SVC_START, 0, req.ce.0 as u16, now);
                }
                self.current = Some((req, now + u64::from(cost)));
                self.stats.busy_cycles += 1;
                return true;
            }
        }
        false
    }

    fn make_reply(&mut self, req: MemRequest) -> Packet {
        if self.offline || req.nacked {
            // Refuse with no side effect. The reply keeps the shape (word
            // count, stream) of the real answer so the reverse network is
            // loaded identically; `nack` tells the CE's retry controller
            // to resend.
            self.stats.nacks += 1;
            let reply = MemReply {
                ce: req.ce,
                stream: match req.kind {
                    RequestKind::Write => Stream::WriteAck,
                    _ => req.stream,
                },
                addr: req.addr,
                value: 0,
                req_issued: req.issued,
                seq: req.seq,
                nack: true,
                trace: req.trace,
            };
            return match req.kind {
                RequestKind::Write => Packet::write_ack(req.ce.0, reply),
                _ => Packet::reply(req.ce.0, reply),
            };
        }
        match req.kind {
            RequestKind::Read => Packet::reply(
                req.ce.0,
                MemReply {
                    ce: req.ce,
                    stream: req.stream,
                    addr: req.addr,
                    value: 0,
                    req_issued: req.issued,
                    seq: req.seq,
                    nack: false,
                    trace: req.trace,
                },
            ),
            RequestKind::Write => Packet::write_ack(
                req.ce.0,
                MemReply {
                    ce: req.ce,
                    stream: crate::network::packet::Stream::WriteAck,
                    addr: req.addr,
                    value: 0,
                    req_issued: req.issued,
                    seq: req.seq,
                    nack: false,
                    trace: req.trace,
                },
            ),
            RequestKind::Sync(instr) => {
                let value = match self.sync_dedup.get(&req.ce.0) {
                    // A resend of the sync we already applied: return the
                    // recorded outcome, do not apply twice.
                    Some(&(seq, value)) if req.seq != 0 && seq == req.seq => value,
                    _ => {
                        let v = self.sync_vars.get_or_insert(req.addr);
                        let value = instr.apply(v).encode();
                        if req.seq != 0 {
                            self.sync_dedup.insert(req.ce.0, (req.seq, value));
                        }
                        value
                    }
                };
                Packet::reply(
                    req.ce.0,
                    MemReply {
                        ce: req.ce,
                        stream: req.stream,
                        addr: req.addr,
                        value,
                        req_issued: req.issued,
                        seq: req.seq,
                        nack: false,
                        trace: req.trace,
                    },
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::ids::CeId;
    use crate::memory::sync::{SyncInstr, SyncOutcome};
    use crate::network::packet::{Payload, Stream};
    use crate::network::NetSink;

    fn cfg() -> GlobalMemoryConfig {
        GlobalMemoryConfig::cedar()
    }

    fn req(kind: RequestKind, addr: u64) -> MemRequest {
        MemRequest {
            ce: CeId(3),
            kind,
            addr,
            stream: Stream::Scalar,
            issued: Cycle(0),
            seq: 0,
            nacked: false,
            trace: 0,
        }
    }

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

    fn drain(m: &mut Module, net: &mut Omega, sink: &mut Collect, cycles: u64) {
        for c in 0..cycles {
            m.tick(Cycle(c), net);
            net.tick(sink);
        }
    }

    #[test]
    fn read_produces_reply_to_requesting_ce() {
        let mut m = Module::new(5, &cfg());
        let mut net = Omega::new(32, &NetworkConfig::cedar());
        let mut sink = Collect::default();
        m.enqueue(req(RequestKind::Read, 37));
        drain(&mut m, &mut net, &mut sink, 20);
        assert_eq!(sink.got.len(), 1);
        assert_eq!(sink.got[0].0, 3); // CE 3's port
        match sink.got[0].1.payload {
            Payload::Reply(r) => {
                assert_eq!(r.ce, CeId(3));
                assert_eq!(r.addr, 37);
            }
            _ => panic!("expected reply"),
        }
        assert!(m.is_idle());
        assert_eq!(m.stats().requests, 1);
    }

    #[test]
    fn service_time_is_charged() {
        let mut m = Module::new(0, &cfg());
        let mut net = Omega::new(32, &NetworkConfig::cedar());
        let mut sink = Collect::default();
        m.enqueue(req(RequestKind::Read, 0));
        // service_cycles = 2: started at t=0, done at t=2, injected at t=2.
        m.tick(Cycle(0), &mut net); // starts service
        assert!(!m.is_idle());
        m.tick(Cycle(1), &mut net);
        assert!(net.is_idle(), "no reply before service completes");
        m.tick(Cycle(2), &mut net);
        assert!(!net.is_idle(), "reply injected when service completes");
        drain(&mut m, &mut net, &mut sink, 10);
        assert_eq!(sink.got.len(), 1);
    }

    #[test]
    fn sync_instructions_are_atomic_and_sequenced() {
        let mut m = Module::new(0, &cfg());
        let mut net = Omega::new(32, &NetworkConfig::cedar());
        let mut sink = Collect::default();
        for _ in 0..3 {
            m.enqueue(req(RequestKind::Sync(SyncInstr::fetch_add(1)), 100));
        }
        drain(&mut m, &mut net, &mut sink, 60);
        assert_eq!(sink.got.len(), 3);
        let mut olds: Vec<i32> = sink
            .got
            .iter()
            .map(|(_, p)| match p.payload {
                Payload::Reply(r) => SyncOutcome::decode(r.value).old,
                _ => panic!("reply expected"),
            })
            .collect();
        olds.sort_unstable();
        assert_eq!(olds, vec![0, 1, 2]);
        assert_eq!(m.sync_value(100), 3);
        assert_eq!(m.stats().sync_requests, 3);
    }

    #[test]
    fn write_produces_ack() {
        let mut m = Module::new(0, &cfg());
        let mut net = Omega::new(32, &NetworkConfig::cedar());
        let mut sink = Collect::default();
        m.enqueue(req(RequestKind::Write, 8));
        drain(&mut m, &mut net, &mut sink, 20);
        assert_eq!(sink.got.len(), 1);
        match sink.got[0].1.payload {
            Payload::Reply(r) => assert_eq!(r.stream, Stream::WriteAck),
            _ => panic!("expected ack"),
        }
        assert_eq!(sink.got[0].1.words, 1);
    }

    #[test]
    fn backpressure_counts_queue_refusal() {
        let mut m = Module::new(0, &cfg());
        for _ in 0..cfg().request_queue {
            assert!(m.can_accept());
            m.enqueue(req(RequestKind::Read, 0));
        }
        assert!(!m.can_accept());
    }

    #[test]
    #[should_panic(expected = "flow control violated")]
    fn enqueue_over_capacity_panics() {
        let mut m = Module::new(0, &cfg());
        for _ in 0..=cfg().request_queue {
            m.enqueue(req(RequestKind::Read, 0));
        }
    }

    #[test]
    fn offline_module_nacks_at_normal_cost() {
        let mut m = Module::new(0, &cfg());
        let mut net = Omega::new(32, &NetworkConfig::cedar());
        let mut sink = Collect::default();
        m.set_offline(true);
        let mut r = req(RequestKind::Sync(SyncInstr::fetch_add(1)), 100);
        r.seq = 7;
        m.enqueue(r);
        drain(&mut m, &mut net, &mut sink, 30);
        assert_eq!(sink.got.len(), 1);
        match sink.got[0].1.payload {
            Payload::Reply(rep) => {
                assert!(rep.nack);
                assert_eq!(rep.seq, 7);
            }
            _ => panic!("expected reply"),
        }
        // No side effect on the sync word, but the NACK was counted.
        assert_eq!(m.sync_value(100), 0);
        assert_eq!(m.stats().nacks, 1);
        // Back online, the resend succeeds.
        m.set_offline(false);
        m.enqueue(r);
        drain(&mut m, &mut net, &mut sink, 30);
        assert_eq!(m.sync_value(100), 1);
    }

    #[test]
    fn corrupted_request_is_nacked() {
        let mut m = Module::new(0, &cfg());
        let mut net = Omega::new(32, &NetworkConfig::cedar());
        let mut sink = Collect::default();
        let mut r = req(RequestKind::Write, 8);
        r.nacked = true;
        m.enqueue(r);
        drain(&mut m, &mut net, &mut sink, 20);
        assert_eq!(sink.got.len(), 1);
        match sink.got[0].1.payload {
            Payload::Reply(rep) => {
                assert!(rep.nack);
                assert_eq!(rep.stream, Stream::WriteAck);
            }
            _ => panic!("expected ack"),
        }
        // NACK keeps the real ack's 1-word shape.
        assert_eq!(sink.got[0].1.words, 1);
    }

    #[test]
    fn sync_resend_is_deduplicated() {
        // The same sequenced sync arriving twice (reply lost in flight)
        // must apply once and return the identical outcome both times.
        let mut m = Module::new(0, &cfg());
        let mut net = Omega::new(32, &NetworkConfig::cedar());
        let mut sink = Collect::default();
        let mut r = req(RequestKind::Sync(SyncInstr::fetch_add(1)), 100);
        r.seq = 9;
        m.enqueue(r);
        m.enqueue(r);
        drain(&mut m, &mut net, &mut sink, 60);
        assert_eq!(sink.got.len(), 2);
        let olds: Vec<i32> = sink
            .got
            .iter()
            .map(|(_, p)| match p.payload {
                Payload::Reply(rep) => SyncOutcome::decode(rep.value).old,
                _ => panic!("reply expected"),
            })
            .collect();
        assert_eq!(olds, vec![0, 0], "resend echoes the first outcome");
        assert_eq!(m.sync_value(100), 1, "applied exactly once");
        // A *new* sequence number applies normally again.
        r.seq = 10;
        m.enqueue(r);
        drain(&mut m, &mut net, &mut sink, 30);
        assert_eq!(m.sync_value(100), 2);
        // clear_sync forgets the dedup slot with the sync words.
        m.clear_sync();
        assert_eq!(m.sync_value(100), 0);
    }
}
