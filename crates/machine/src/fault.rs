//! Deterministic fault injection and the retry machinery it exercises.
//!
//! The paper's Cedar is a real machine: its global-memory path (omega
//! networks, interleaved modules, Test-And-Operate sync processors) is
//! exactly where a cluster NUMA system meets transient failures. This
//! module models those failures *deterministically*: a [`FaultPlan`]
//! names a seed, per-packet drop/NACK rates, and scheduled link/module
//! outage windows, and every fault decision comes from a counter-based
//! hash ([`mix`]) keyed on `(seed, site, sequence)` — never on host
//! state — so a faulty run is bit-for-bit reproducible across
//! `CEDAR_NUM_THREADS` and on the every-cycle reference machine.
//!
//! Three kinds of fault, three recovery paths:
//!
//! * **Packet drops** (either network): decided at injection time from
//!   the per-port injection sequence number; the packet traverses the
//!   network normally (it consumes bandwidth) and evaporates at the
//!   delivery stage. CEs recover through [`CeFaultCtl`]'s timeout +
//!   bounded-exponential-backoff resend; prefetch units re-request
//!   missing elements of the current fire.
//! * **Packet NACKs** (forward network): the request is marked corrupted
//!   in flight; the memory module services it at normal cost but answers
//!   with a NACK reply instead of performing the operation. The CE backs
//!   off and retries.
//! * **Outages** ([`LinkOutage`], [`ModuleOutage`]): a [`FaultSchedule`]
//!   applies down/up transitions at exact cycles (it participates in
//!   `next_event()`, so fast-forward stops precisely at each boundary).
//!   A downed link refuses injection at that port (backpressure, which
//!   every injector already tolerates); an offline module NACKs every
//!   request it services.
//!
//! With no plan — or a plan whose [`FaultPlan::enabled`] is false — no
//! sequence numbers are assigned, no controller is allocated, and every
//! fingerprint, golden snapshot and digest is byte-identical to the
//! fault-free machine.

use crate::monitor::Histogrammer;
use crate::network::packet::{MemReply, Packet, Payload};
use crate::snapshot::{codec, snapshot_state, SnapReader, SnapResult};
use crate::time::Cycle;

/// Bins of the retry-latency histogram (issue-to-completion cycles for
/// operations that needed at least one retry; the last bin catches all
/// longer latencies). Sized to resolve several exponential-backoff
/// rounds past the default 512-cycle timeout rather than clamping every
/// retried operation into the overflow bin.
pub const RETRY_LATENCY_BINS: usize = 8192;

/// Hash-salt distinguishing forward-network fault sites from reverse.
pub(crate) const SALT_FORWARD: u64 = 0xF0;
/// Hash-salt for reverse-network fault sites.
pub(crate) const SALT_REVERSE: u64 = 0x0F00;

/// A scheduled window during which one network port pair (the CE-side
/// forward injection port and the module-side reverse injection port
/// with the same index) refuses injection — the model of a downed
/// switch-port link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkOutage {
    /// Port index on both omega networks.
    pub port: usize,
    /// First machine cycle the link is down.
    pub from: u64,
    /// First machine cycle the link is back up (exclusive end).
    pub until: u64,
}

/// A scheduled window during which one global-memory module is offline:
/// it still accepts and services requests (the interconnect path is up)
/// but answers every one with a NACK and performs no operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuleOutage {
    /// Global-memory module index.
    pub module: usize,
    /// First machine cycle the module is offline.
    pub from: u64,
    /// First machine cycle the module is back online (exclusive end).
    pub until: u64,
}

/// A complete, deterministic description of the faults to inject into
/// one machine. All-integer so plans are `Eq` and trivially serializable
/// into test code and experiment tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the counter-based hash behind every random decision.
    pub seed: u64,
    /// Per-packet drop probability in parts per million (both networks).
    pub drop_per_million: u32,
    /// Per-packet NACK probability in parts per million (forward
    /// network; a NACK-doomed reply is indistinguishable from a drop, so
    /// the reverse network only drops).
    pub nack_per_million: u32,
    /// Scheduled link-down windows.
    pub link_outages: Vec<LinkOutage>,
    /// Scheduled module-offline windows.
    pub module_outages: Vec<ModuleOutage>,
    /// Cycles a CE or prefetch unit waits for a reply before declaring a
    /// timeout and resending (grows with bounded exponential backoff on
    /// repeated attempts).
    pub timeout_cycles: u32,
    /// Resend attempts before an operation is declared failed and the
    /// run aborts with [`MachineError::Faulted`](crate::MachineError).
    pub max_retries: u32,
}

impl FaultPlan {
    /// A plan with no faults at all: zero rates, no outages, default
    /// retry parameters. `enabled()` is false, so it behaves exactly
    /// like `faults: None`.
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_per_million: 0,
            nack_per_million: 0,
            link_outages: Vec::new(),
            module_outages: Vec::new(),
            timeout_cycles: 512,
            max_retries: 16,
        }
    }

    /// True when the plan can actually produce a fault. A disabled plan
    /// is treated identically to no plan: no retry controllers, no
    /// sequence numbers, bit-identical fingerprints.
    pub fn enabled(&self) -> bool {
        self.drop_per_million > 0
            || self.nack_per_million > 0
            || !self.link_outages.is_empty()
            || !self.module_outages.is_empty()
    }

    /// Validate against a machine shape.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first inconsistency.
    pub fn validate(&self, ports: usize, modules: usize) -> Result<(), String> {
        if self.drop_per_million > 1_000_000 {
            return Err(format!(
                "drop_per_million {} exceeds 1_000_000",
                self.drop_per_million
            ));
        }
        if self.nack_per_million > 1_000_000 {
            return Err(format!(
                "nack_per_million {} exceeds 1_000_000",
                self.nack_per_million
            ));
        }
        if u64::from(self.drop_per_million) + u64::from(self.nack_per_million) > 1_000_000 {
            return Err("drop_per_million + nack_per_million exceeds 1_000_000".into());
        }
        if self.enabled() {
            if self.timeout_cycles == 0 {
                return Err("timeout_cycles must be positive when faults are enabled".into());
            }
            if self.max_retries == 0 {
                return Err("max_retries must be positive when faults are enabled".into());
            }
        }
        for o in &self.link_outages {
            if o.port >= ports {
                return Err(format!(
                    "link outage names port {} but the network has {ports} ports",
                    o.port
                ));
            }
            if o.from >= o.until {
                return Err(format!(
                    "link outage window {}..{} on port {} is empty",
                    o.from, o.until, o.port
                ));
            }
        }
        for o in &self.module_outages {
            if o.module >= modules {
                return Err(format!(
                    "module outage names module {} but global memory has {modules}",
                    o.module
                ));
            }
            if o.from >= o.until {
                return Err(format!(
                    "module outage window {}..{} on module {} is empty",
                    o.from, o.until, o.module
                ));
            }
        }
        Ok(())
    }
}

/// The counter-based hash behind every fault decision: a splitmix64-style
/// finalizer over `(seed, site, seq)`. Pure function of its inputs, so
/// any execution order that preserves per-site sequence numbering (the
/// parallel engine's staging replay does) sees identical faults.
#[must_use]
pub fn mix(seed: u64, site: u64, seq: u64) -> u64 {
    let mut z =
        seed ^ site.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seq.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One scheduled outage transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultAction {
    LinkDown(usize),
    LinkUp(usize),
    ModuleDown(usize),
    ModuleUp(usize),
}

/// The machine-owned schedule of outage transitions, applied at the top
/// of each tick. Its [`next_event`](FaultSchedule::next_event) is folded
/// into the machine event horizon, so fast-forward stops exactly at each
/// transition cycle and skipped runs see the same outage windows as
/// ticked ones.
#[derive(Debug)]
pub(crate) struct FaultSchedule {
    /// Transitions sorted by cycle (stable, so same-cycle transitions
    /// apply in plan order — deterministic).
    events: Vec<(Cycle, FaultAction)>,
    next: usize,
}

impl FaultSchedule {
    pub(crate) fn new(plan: &FaultPlan) -> FaultSchedule {
        let mut events = Vec::new();
        for o in &plan.link_outages {
            events.push((Cycle(o.from), FaultAction::LinkDown(o.port)));
            events.push((Cycle(o.until), FaultAction::LinkUp(o.port)));
        }
        for o in &plan.module_outages {
            events.push((Cycle(o.from), FaultAction::ModuleDown(o.module)));
            events.push((Cycle(o.until), FaultAction::ModuleUp(o.module)));
        }
        events.sort_by_key(|&(at, _)| at);
        FaultSchedule { events, next: 0 }
    }

    /// Apply every transition scheduled at or before `now`.
    pub(crate) fn apply_due(
        &mut self,
        now: Cycle,
        forward: &mut crate::network::Omega,
        reverse: &mut crate::network::Omega,
        gmem: &mut crate::memory::global::GlobalMemory,
    ) {
        while let Some(&(at, action)) = self.events.get(self.next) {
            if at > now {
                break;
            }
            self.next += 1;
            match action {
                FaultAction::LinkDown(p) => {
                    forward.set_port_down(p, true);
                    reverse.set_port_down(p, true);
                }
                FaultAction::LinkUp(p) => {
                    forward.set_port_down(p, false);
                    reverse.set_port_down(p, false);
                }
                FaultAction::ModuleDown(m) => gmem.set_module_offline(m, true),
                FaultAction::ModuleUp(m) => gmem.set_module_offline(m, false),
            }
        }
    }

    /// The next transition cycle, if any remain.
    pub(crate) fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.events.get(self.next).map(|&(at, _)| at.max(now + 1))
    }

    /// The cursor must point into the transition list.
    fn check_cursor(&self, r: &SnapReader) -> SnapResult<()> {
        if self.next > self.events.len() {
            return Err(r.err_mismatch(&format!(
                "fault-schedule cursor {} past the plan's {} transitions",
                self.next,
                self.events.len()
            )));
        }
        Ok(())
    }
}

// Only the cursor is mutable state: the transition list is rebuilt from
// the plan. The *effects* of already-applied transitions (downed ports,
// offline modules) live in the network and module snapshots.
snapshot_state! {
    impl FaultSchedule as this {
        saved: [next],
        derived: [events],
        after_load: check_cursor,
    }
}

/// Counters of one CE's retry controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCtlStats {
    /// Requests resent after a timeout or NACK.
    pub retries: u64,
    /// NACK replies received.
    pub nacks: u64,
    /// Reply timeouts declared.
    pub timeouts: u64,
}

impl FaultCtlStats {
    /// Component-wise accumulate.
    pub fn merge(&mut self, other: &FaultCtlStats) {
        self.retries += other.retries;
        self.nacks += other.nacks;
        self.timeouts += other.timeouts;
    }
}

/// What the controller decided about an incoming reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplyAction {
    /// First completion of a tracked operation: hand it to the engine.
    Deliver,
    /// Duplicate or unknown sequence number: discard silently.
    Stale,
    /// A NACK: the operation will be resent after backoff; discard.
    Nacked,
}

/// What the controller wants the engine to do this cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CtlPoll {
    /// Nothing due.
    Idle,
    /// Re-inject this packet (its sequence number is already assigned).
    Resend(Packet),
    /// An operation exceeded its retry budget; the run should abort.
    Exhausted,
}

/// One in-flight tracked operation.
#[derive(Debug, Clone, Copy)]
struct TrackedOp {
    seq: u64,
    pkt: Packet,
    first_issued: Cycle,
    attempts: u32,
    /// While `awaiting`, the cycle at which a timeout fires; otherwise
    /// the cycle at which the resend becomes due (post-backoff).
    at: Cycle,
    awaiting: bool,
}

/// Per-CE retry controller: tracks every sequenced global-memory request
/// from issue to first completed reply, declares timeouts, applies
/// bounded exponential backoff after NACKs and repeated timeouts, and
/// deduplicates late duplicate replies. Only allocated when the machine
/// runs under an enabled [`FaultPlan`].
#[derive(Debug)]
pub(crate) struct CeFaultCtl {
    timeout: u64,
    max_retries: u32,
    ops: Vec<TrackedOp>,
    stats: FaultCtlStats,
    retry_latency: Histogrammer,
    exhausted: Option<String>,
}

impl CeFaultCtl {
    pub(crate) fn new(plan: &FaultPlan) -> CeFaultCtl {
        CeFaultCtl {
            timeout: u64::from(plan.timeout_cycles),
            max_retries: plan.max_retries,
            ops: Vec::new(),
            stats: FaultCtlStats::default(),
            retry_latency: Histogrammer::with_bins(RETRY_LATENCY_BINS),
            exhausted: None,
        }
    }

    /// Reply-wait window for attempt `k`: the base timeout with bounded
    /// exponential backoff.
    fn wait_for(&self, attempts: u32) -> u64 {
        self.timeout << attempts.min(5)
    }

    /// Resend delay after a NACK on attempt `k`.
    fn nack_backoff(attempts: u32) -> u64 {
        (32u64 << attempts.min(6)).min(2048)
    }

    /// Begin tracking a sequenced request just handed to the network.
    pub(crate) fn track(&mut self, seq: u64, pkt: Packet, now: Cycle) {
        self.ops.push(TrackedOp {
            seq,
            pkt,
            first_issued: now,
            attempts: 0,
            at: now + self.timeout,
            awaiting: true,
        });
    }

    /// Classify an incoming reply; `Deliver` removes the operation.
    pub(crate) fn on_reply(&mut self, now: Cycle, reply: &MemReply) -> ReplyAction {
        let Some(i) = self.ops.iter().position(|o| o.seq == reply.seq) else {
            return ReplyAction::Stale;
        };
        if reply.nack {
            let op = &mut self.ops[i];
            self.stats.nacks += 1;
            op.awaiting = false;
            op.at = now + Self::nack_backoff(op.attempts);
            return ReplyAction::Nacked;
        }
        let op = self.ops.swap_remove(i);
        if op.attempts > 0 {
            self.retry_latency
                .record(now.saturating_since(op.first_issued) as usize);
        }
        ReplyAction::Deliver
    }

    /// Advance timeouts and surface at most one resend per cycle. Call
    /// only when the engine can actually take a packet (its pending
    /// latch is free).
    pub(crate) fn poll(&mut self, now: Cycle) -> CtlPoll {
        if self.exhausted.is_some() {
            return CtlPoll::Exhausted;
        }
        for op in &mut self.ops {
            if op.awaiting && now >= op.at {
                self.stats.timeouts += 1;
                op.awaiting = false;
            }
        }
        let due = self.ops.iter().position(|o| !o.awaiting && now >= o.at);
        let Some(i) = due else { return CtlPoll::Idle };
        let wait = self.wait_for(self.ops[i].attempts + 1);
        let op = &mut self.ops[i];
        if op.attempts >= self.max_retries {
            let reason = format!(
                "request seq {} (addr {:#x}) failed after {} attempts",
                op.seq,
                request_addr(&op.pkt),
                op.attempts + 1,
            );
            self.exhausted = Some(reason);
            return CtlPoll::Exhausted;
        }
        op.attempts += 1;
        self.stats.retries += 1;
        op.awaiting = true;
        op.at = now + wait;
        CtlPoll::Resend(op.pkt)
    }

    /// The next cycle at which this controller needs a tick (a timeout
    /// fires or a backoff expires), clamped to the future.
    pub(crate) fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.exhausted.is_some() {
            return Some(now + 1);
        }
        self.ops.iter().map(|o| o.at.max(now + 1)).min()
    }

    /// True when no operations are outstanding.
    pub(crate) fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Outstanding tracked operations (for hang reports).
    pub(crate) fn pending(&self) -> usize {
        self.ops.len()
    }

    /// The failure description, once an operation exhausted its budget.
    pub(crate) fn exhausted(&self) -> Option<&str> {
        self.exhausted.as_deref()
    }

    pub(crate) fn stats(&self) -> FaultCtlStats {
        self.stats
    }

    pub(crate) fn retry_latency(&self) -> &Histogrammer {
        &self.retry_latency
    }
}

codec!(struct FaultCtlStats { retries, nacks, timeouts });
codec!(struct TrackedOp { seq, pkt, first_issued, attempts, at, awaiting });

// Tracked operations, counters, the retry-latency histogram and the
// exhaustion latch; the timeout and retry budget come from the plan.
snapshot_state! {
    impl CeFaultCtl as this {
        saved: [ops, stats, retry_latency, exhausted],
        derived: [timeout, max_retries],
    }
}

fn request_addr(pkt: &Packet) -> u64 {
    match &pkt.payload {
        Payload::Request(r) => r.addr,
        Payload::Reply(r) => r.addr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::CeId;
    use crate::network::packet::{MemRequest, RequestKind, Stream};

    fn plan() -> FaultPlan {
        FaultPlan {
            drop_per_million: 1000,
            ..FaultPlan::none(7)
        }
    }

    fn pkt(seq: u64) -> Packet {
        Packet::read_request(
            0,
            MemRequest {
                ce: CeId(0),
                kind: RequestKind::Read,
                addr: 0x40,
                stream: Stream::Scalar,
                issued: Cycle(1),
                seq,
                nacked: false,
                trace: 0,
            },
        )
    }

    fn reply(seq: u64, nack: bool) -> MemReply {
        MemReply {
            ce: CeId(0),
            stream: Stream::Scalar,
            addr: 0x40,
            value: 0,
            req_issued: Cycle(1),
            seq,
            nack,
            trace: 0,
        }
    }

    #[test]
    fn mix_is_deterministic_and_site_sensitive() {
        assert_eq!(mix(1, 2, 3), mix(1, 2, 3));
        assert_ne!(mix(1, 2, 3), mix(1, 2, 4));
        assert_ne!(mix(1, 2, 3), mix(1, 3, 3));
        assert_ne!(mix(1, 2, 3), mix(2, 2, 3));
    }

    #[test]
    fn mix_rates_land_near_target() {
        // 1% target over 100k sequence numbers: the counter hash should
        // land within ±20% of expectation.
        let hits = (0..100_000u64)
            .filter(|&s| mix(42, 3, s) % 1_000_000 < 10_000)
            .count();
        assert!((800..1200).contains(&hits), "got {hits} hits");
    }

    #[test]
    fn disabled_plans_report_disabled() {
        assert!(!FaultPlan::none(1).enabled());
        assert!(plan().enabled());
        assert!(FaultPlan {
            link_outages: vec![LinkOutage {
                port: 0,
                from: 1,
                until: 2
            }],
            ..FaultPlan::none(0)
        }
        .enabled());
    }

    #[test]
    fn validate_catches_bad_shapes() {
        let mut p = plan();
        p.drop_per_million = 2_000_000;
        assert!(p.validate(32, 32).is_err());
        let mut p = plan();
        p.module_outages.push(ModuleOutage {
            module: 99,
            from: 0,
            until: 10,
        });
        assert!(p.validate(32, 32).is_err());
        let mut p = plan();
        p.link_outages.push(LinkOutage {
            port: 0,
            from: 10,
            until: 10,
        });
        assert!(p.validate(32, 32).is_err());
        let mut p = plan();
        p.max_retries = 0;
        assert!(p.validate(32, 32).is_err());
        assert!(plan().validate(32, 32).is_ok());
    }

    #[test]
    fn ctl_times_out_and_resends_with_backoff() {
        let mut ctl = CeFaultCtl::new(&plan());
        ctl.track(1, pkt(1), Cycle(0));
        assert_eq!(ctl.poll(Cycle(10)), CtlPoll::Idle);
        // Timeout at 512, resend due immediately.
        assert!(matches!(ctl.poll(Cycle(512)), CtlPoll::Resend(_)));
        assert_eq!(ctl.stats().timeouts, 1);
        assert_eq!(ctl.stats().retries, 1);
        // Second wait window doubles (1024 cycles from the resend).
        assert_eq!(ctl.poll(Cycle(513)), CtlPoll::Idle);
        assert_eq!(ctl.next_event(Cycle(513)), Some(Cycle(512 + 1024)));
    }

    #[test]
    fn ctl_delivers_once_and_drops_duplicates() {
        let mut ctl = CeFaultCtl::new(&plan());
        ctl.track(5, pkt(5), Cycle(0));
        assert_eq!(
            ctl.on_reply(Cycle(20), &reply(5, false)),
            ReplyAction::Deliver
        );
        assert_eq!(
            ctl.on_reply(Cycle(25), &reply(5, false)),
            ReplyAction::Stale
        );
        assert!(ctl.is_empty());
        // No retry happened, so the latency histogram stays empty.
        assert_eq!(ctl.retry_latency().total(), 0);
    }

    #[test]
    fn ctl_nack_backs_off_then_completes_with_latency_sample() {
        let mut ctl = CeFaultCtl::new(&plan());
        ctl.track(9, pkt(9), Cycle(100));
        assert_eq!(
            ctl.on_reply(Cycle(120), &reply(9, true)),
            ReplyAction::Nacked
        );
        assert_eq!(ctl.stats().nacks, 1);
        // Backoff of 32 cycles for attempt 0: not due at 130, due at 152.
        assert_eq!(ctl.poll(Cycle(130)), CtlPoll::Idle);
        assert!(matches!(ctl.poll(Cycle(152)), CtlPoll::Resend(_)));
        assert_eq!(
            ctl.on_reply(Cycle(190), &reply(9, false)),
            ReplyAction::Deliver
        );
        assert_eq!(ctl.retry_latency().total(), 1);
        assert!(ctl.is_empty());
    }

    #[test]
    fn ctl_exhausts_after_max_retries() {
        let mut p = plan();
        p.max_retries = 2;
        p.timeout_cycles = 10;
        let mut ctl = CeFaultCtl::new(&p);
        ctl.track(1, pkt(1), Cycle(0));
        let mut now = 0;
        let mut resends = 0;
        loop {
            now += 10_000;
            match ctl.poll(Cycle(now)) {
                CtlPoll::Resend(_) => resends += 1,
                CtlPoll::Exhausted => break,
                CtlPoll::Idle => {}
            }
        }
        assert_eq!(resends, 2);
        assert!(ctl.exhausted().unwrap().contains("failed after"));
        // Exhaustion latches.
        assert_eq!(ctl.poll(Cycle(now + 1)), CtlPoll::Exhausted);
    }

    #[test]
    fn schedule_orders_transitions_and_reports_next_event() {
        let mut p = FaultPlan::none(0);
        p.link_outages.push(LinkOutage {
            port: 2,
            from: 100,
            until: 200,
        });
        p.module_outages.push(ModuleOutage {
            module: 1,
            from: 50,
            until: 150,
        });
        let s = FaultSchedule::new(&p);
        let cycles: Vec<u64> = s.events.iter().map(|&(c, _)| c.0).collect();
        assert_eq!(cycles, vec![50, 100, 150, 200]);
        assert_eq!(s.next_event(Cycle(0)), Some(Cycle(50)));
        assert_eq!(s.next_event(Cycle(60)), Some(Cycle(61)));
    }
}
