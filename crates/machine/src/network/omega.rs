//! The multistage shuffle-exchange (omega) network.
//!
//! Cedar's two unidirectional global networks are built from 8×8 crossbar
//! switches with 64-bit-wide data paths, two-word queues on each switch
//! port, flow control between stages to prevent queue overflow, and
//! self-routing based on destination tags (Lawrie's scheme, \[Lawr75\]).
//!
//! The simulator models the network at word granularity with wormhole
//! (cut-through) flow: the head word of a packet claims an input→output
//! pairing at each switch and the remaining words follow contiguously, so
//! a blocked packet holds resources behind it — the mechanism behind the
//! tree-saturation the paper observes at 3–4 clusters (Table 2). Routing
//! tags consume one base-`radix` digit of the destination per stage.
//!
//! Geometry: a radix-`r`, `s`-stage omega connects `r^s` lines; Cedar's
//! 32 active ports live in the 64-line 2-stage radix-8 instance. Line
//! numbering follows the standard construction: a perfect shuffle
//! (rotate-left of base-`r` digits) precedes every stage, and switch `j`
//! of a stage owns lines `j*r .. j*r+r`.
//!
//! State layout: one [`Line`] record per line of each stage — the stage
//! queue on the switch's input side (ring head and length, the output
//! its front word wants, the output its packet holds), the switch output
//! on its output side (lock owner, round-robin pointer), and the routing
//! constants a hop reads — the queued [`Flit`]s in one flat ring array,
//! and one occupancy index, a bitmask with one bit per stage queue and
//! per injector. A flit carries its packet's destination, so the packet
//! itself is read only when its head is injected and when its tail is
//! delivered.

use crate::config::NetworkConfig;
use crate::monitor::Histogrammer;
use crate::network::packet::{Packet, Payload};
use crate::time::Cycle;
use crate::trace::{NetTrace, TraceEvent};

/// Index of a packet in the in-flight slab.
type PacketId = u32;

/// Sentinel for "no entry" in the slab free list.
const NO_PACKET: PacketId = PacketId::MAX;

/// Sentinel output subport: an empty line's front, or no held output.
const NO_PORT: u8 = u8::MAX;

/// An unlocked output in the image's lock table.
const NO_LOCK: u32 = u32::MAX;

/// [`Flit::flags`]: the packet's first word.
const HEAD: u8 = 1;
/// [`Flit::flags`]: the packet's last word.
const TAIL: u8 = 2;
/// [`Flit::flags`]: the packet evaporates at the final stage.
const DOOM: u8 = 4;

/// One 64-bit word in flight.
#[derive(Debug, Clone, Copy, Default)]
struct Flit {
    pkt: PacketId,
    /// Destination line (head words; the body follows the head's locks).
    dst: u16,
    /// For head words: the output subport at the stage this word
    /// currently queues at.
    route: u8,
    flags: u8,
}

/// Line `i` of one stage: the stage queue (an input + output queue
/// pair) on the switch's input side, the switch output on its output
/// side, and the routing constants a hop through them reads. Eight
/// bytes, so the records of a radix-8 switch fill one cache line.
#[derive(Debug, Clone, Copy)]
struct Line {
    /// Queue: ring slot of the front word.
    head: u8,
    /// Queue: words queued.
    len: u8,
    /// Queue: output subport the front word wants, [`NO_PORT`] when
    /// empty.
    front: u8,
    /// Queue: output subport this line's in-flight packet holds (its
    /// body words route through it), [`NO_PORT`] when it holds none.
    held: u8,
    /// Output: the subport of the input line owning it, [`NO_PORT`]
    /// when free.
    owner: u8,
    /// Output: round-robin arbitration pointer (an input subport).
    rr: u8,
    /// `i % radix`: the line's subport within its switch.
    sub: u8,
    /// The routing digit this stage consumes for destination `i`.
    route: u8,
}

/// Trace id and issuing CE carried in a packet's payload.
#[inline]
fn pkt_trace(p: &Packet) -> (u64, u16) {
    match &p.payload {
        Payload::Request(r) => (r.trace, r.ce.0 as u16),
        Payload::Reply(r) => (r.trace, r.ce.0 as u16),
    }
}

/// Where delivered packets go. Implemented by the global-memory side (for
/// the forward network) and the CE side (for the reverse network).
pub trait NetSink {
    /// Called when the *head* word of a packet wants to leave the network at
    /// `port`. Return `false` to refuse (backpressure): the packet stays in
    /// the final-stage queue and blocks traffic behind it, exactly like a
    /// full input queue on the real machine. Once a head is accepted the
    /// remaining words of the packet are always accepted.
    fn try_begin(&mut self, port: usize) -> bool;

    /// Called when the tail word of a packet leaves the network: the packet
    /// is fully delivered at `port`.
    fn deliver(&mut self, port: usize, packet: Packet);
}

/// Aggregate network statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Packets accepted by [`Omega::try_inject`].
    pub packets_injected: u64,
    /// Packets fully delivered to the sink.
    pub packets_delivered: u64,
    /// Words moved across any hop.
    pub words_moved: u64,
    /// Moves that failed because the downstream queue (or sink) had no
    /// space — the flow-control stalls that build tree saturation.
    pub blocked_moves: u64,
    /// Head words that lost output-port arbitration to another packet.
    pub arbitration_losses: u64,
    /// Injections refused because the port's link was scheduled down.
    pub link_blocked: u64,
    /// Packets marked for transient drop at injection; they traverse the
    /// network normally (consuming bandwidth) and evaporate at the final
    /// stage without being delivered.
    pub drops: u64,
    /// Requests marked corrupted at injection; the destination module
    /// NACKs them instead of performing the operation.
    pub nacks: u64,
}

/// Maximum words a stage queue can hold (input + output queue pair). Also
/// fixes the queue-depth histogram's bin count, so it must not change with
/// the configured capacity (exported stat registries pin their shape).
const RING_CAP: usize = 16;

/// Upper bound on switch stages (radix 2 over 64 lines needs 6; the bound
/// sizes the inline per-stage counters).
const MAX_STAGES: usize = 16;

/// Largest switch radix: arbitration keeps one `u16` requester mask per
/// output on the stack.
const MAX_RADIX: usize = 16;

/// Most lines a network may have: a flit names its destination in 16
/// bits.
const MAX_LINES: usize = 1 << 16;

/// Switch stages a network of `radix`-way switches needs for `ports` lines.
fn stages_for(ports: usize, radix: usize) -> usize {
    let mut size = radix;
    let mut stages = 1;
    while size < ports {
        size = size.saturating_mul(radix);
        stages += 1;
    }
    stages
}

/// Why [`Omega::new`] would refuse (or mis-index) this shape, if it would.
/// `MachineConfig::validate` asks first, so a shape the fixed-size switch
/// state cannot hold comes back as an error instead of a panic.
pub(crate) fn check_shape(ports: usize, cfg: &NetworkConfig) -> Result<(), String> {
    if !(2..=MAX_RADIX).contains(&cfg.radix) {
        return Err(format!("network radix must be between 2 and {MAX_RADIX}"));
    }
    if cfg.queue_words == 0 || cfg.queue_words * 2 > RING_CAP {
        return Err(format!(
            "network queues must hold between 1 and {} words",
            RING_CAP / 2
        ));
    }
    let stages = stages_for(ports, cfg.radix);
    let lines = cfg.radix.checked_pow(stages as u32);
    if stages > MAX_STAGES || lines.is_none_or(|n| n > MAX_LINES) {
        return Err(format!(
            "{ports} network ports need {stages} radix-{} stages; at most {MAX_STAGES} stages \
             and {MAX_LINES} lines are supported",
            cfg.radix
        ));
    }
    Ok(())
}

/// A packet slab slot: either a live in-flight packet or a link in the
/// intrusive free list (LIFO, so ids are reused densely — the same order a
/// separate free stack would give, without the side allocation).
#[derive(Debug, Clone)]
enum Slot {
    Live(Packet),
    Free { next: PacketId },
}

/// Upper bound on per-port injector occupancy (the configured cap is 2;
/// the array is sized with slack so the ring stays branch-trivial).
const INJ_CAP: usize = 4;

/// Per-port packet injector: producers hand over whole packets; the
/// injector streams them into the first stage one word per cycle. A fixed
/// inline ring — per-port heap queues would scatter the hot injection scan
/// across the heap.
#[derive(Debug, Clone, Copy)]
struct Injector {
    slots: [(PacketId, u8); INJ_CAP], // (packet, total words)
    head: u8,
    len: u8,
    words_sent: u8,
}

impl Default for Injector {
    fn default() -> Injector {
        Injector {
            slots: [(NO_PACKET, 0); INJ_CAP],
            head: 0,
            len: 0,
            words_sent: 0,
        }
    }
}

impl Injector {
    #[inline]
    fn len(&self) -> usize {
        usize::from(self.len)
    }

    #[inline]
    fn front(&self) -> (PacketId, u8) {
        debug_assert!(self.len > 0, "front of an empty injector");
        self.slots[usize::from(self.head)]
    }

    #[inline]
    fn push_back(&mut self, entry: (PacketId, u8)) {
        debug_assert!(self.len() < INJ_CAP, "injector overflow");
        let tail = (usize::from(self.head) + self.len()) % INJ_CAP;
        self.slots[tail] = entry;
        self.len += 1;
    }

    #[inline]
    fn pop_front(&mut self) {
        debug_assert!(self.len > 0);
        self.head = ((usize::from(self.head) + 1) % INJ_CAP) as u8;
        self.len -= 1;
    }
}

/// Per-port reassembly of ejected words into packets.
#[derive(Debug, Default)]
struct Assembler {
    accepted: bool, // head word accepted by the sink
}

/// What one tick moved and charged, folded into the cumulative stats at
/// its end. A tick that moved nothing — every queued stream stalled
/// behind flow control or a refusing sink — leaves the network exactly
/// as it found it, so while the network is untouched from outside and
/// the sink's acceptance epoch is unchanged, each further tick repeats
/// exactly this charge: the flow path replays it in O(1) instead of
/// re-sweeping every switch.
#[derive(Debug, Clone, Copy, Default)]
struct Charge {
    moved: u64,
    blocked: u64,
    losses: u64,
    /// Stages charged a block or a loss: the only per-stage entries that
    /// are not zero (most ticks charge none, and then cost nothing here).
    charged: u16,
    stage_blocked: [u64; MAX_STAGES],
    stage_conflicts: [u64; MAX_STAGES],
}

impl Charge {
    /// Moves, blocks and losses so far: a pass that leaves this unchanged
    /// touched nothing.
    #[inline]
    fn events(&self) -> u64 {
        self.moved + self.blocked + self.losses
    }

    /// Start a tick: nothing moved or charged yet.
    #[inline]
    fn clear(&mut self) {
        self.moved = 0;
        self.blocked = 0;
        self.losses = 0;
        for_each_stage(self.charged, |s| {
            self.stage_blocked[s] = 0;
            self.stage_conflicts[s] = 0;
        });
        self.charged = 0;
    }
}

/// Call `f` with each stage whose bit is set in `stages`.
#[inline]
fn for_each_stage(mut stages: u16, mut f: impl FnMut(usize)) {
    while stages != 0 {
        f(stages.trailing_zeros() as usize);
        stages &= stages - 1;
    }
}

/// Fault-injection state for one network instance. Present only when a
/// fault plan with network effects is installed; the fault-free hot path
/// pays a single `Option` check.
#[derive(Debug)]
struct NetFaults {
    seed: u64,
    /// Distinguishes the forward and reverse instances so they draw
    /// independent pseudo-random streams from one machine seed.
    salt: u64,
    drop_ppm: u64,
    nack_ppm: u64,
    /// Monotone per-port count of *accepted* injections — the RNG
    /// sequence number. Only the port's own CE injects there, in program
    /// order, so the stream is the same on every thread count.
    inj_seq: Vec<u64>,
    /// Ports currently refusing all injections (scheduled link outages).
    down: Vec<bool>,
    /// Per slab slot: this packet evaporates at the final stage.
    doom: Vec<bool>,
}

impl NetFaults {
    /// Whether the packet in slab slot `id` evaporates.
    fn doomed(&self, id: PacketId) -> bool {
        self.doom.get(id as usize).copied().unwrap_or(false)
    }
}

/// A unidirectional omega network instance.
///
/// Aligned to two cache lines (adjacent-line prefetch pulls them in
/// pairs): a two-lane run ticks the forward and the reverse instance on
/// different host threads at the same time, and their hot scalars and
/// counters must not share a line. The per-stage counters are inline
/// arrays for the same reason — as 8-to-32-byte heap vectors the two
/// instances' copies sat next to each other in the allocator's small
/// bins.
#[derive(Debug)]
#[repr(align(128))]
pub struct Omega {
    radix: usize,
    stages: usize,
    size: usize,
    queue_cap: usize,
    words_per_cycle: u32,
    injector_cap: usize,
    /// `lines[stage * size + line]`: every line's queue, output and
    /// routing record.
    lines: Vec<Line>,
    /// Flit storage: the ring of line `idx` (`stage * size + line`)
    /// occupies `queue_cap` contiguous slots from `idx * queue_cap`.
    /// Sizing rings by the configured capacity (4 words on Cedar)
    /// instead of the [`RING_CAP`] ceiling keeps the whole queue state
    /// inside a few KB of cache.
    ring: Vec<Flit>,
    /// The occupancy index, one bit per position: bit `idx` is set
    /// exactly when the queue `lines[idx]` holds a word, and bit `stages *
    /// size + port` exactly when that port's injector holds a packet. The
    /// sweep and the injection scan visit set bits only.
    busy: Vec<u64>,
    injectors: Vec<Injector>,
    pending_injections: usize,
    assemblers: Vec<Assembler>,
    /// In-flight packet slab with an intrusive LIFO free list.
    slab: Vec<Slot>,
    free_head: PacketId,
    in_flight: usize,
    stats: NetStats,
    /// `shuffle_tab[line]`: the perfect shuffle of `line` (the stage-0
    /// queue port `line` injects into), precomputed so no hop divides by
    /// the (non-constant) radix.
    shuffle_tab: Vec<u32>,
    /// Arbitration losses per switch stage.
    stage_conflicts: [u64; MAX_STAGES],
    /// Flow-control blocks per switch stage (injection blocks count
    /// against stage 0, whose queues they contend for).
    stage_blocked: [u64; MAX_STAGES],
    /// Distribution of stage-queue depths observed after each word push.
    queue_depth: Histogrammer,
    /// Off (every [`Omega::new`] network): the sweep visits only occupied
    /// switches, arbitrates from the cached fronts, and fully-stalled
    /// horizons replay their cached per-tick charge in O(1). On (only
    /// [`Omega::new_reference`]): every switch is scanned and every front
    /// read from its queue, the per-flit reference the tests hold the
    /// flow path to. Both produce bit-for-bit identical state, stats and
    /// delivery schedules.
    reference: bool,
    /// The current (or, while [`Omega::stall`] is set, the last) tick's
    /// moves and charges.
    charge: Charge,
    /// `Some(epoch)` when the last flow-path tick moved nothing:
    /// [`Omega::charge`] is then the charge every further tick at that
    /// sink-acceptance epoch repeats, until something changes the network.
    stall: Option<u64>,
    /// Ticks replayed in O(1) from a cached stall charge (monotone).
    stall_replays: u64,
    /// Fault-injection state, `None` on a fault-free network.
    faults: Option<Box<NetFaults>>,
    /// Causal-tracing state, `None` on an untraced network. The machine
    /// sets the cycle stamp before any network activity each ticked cycle
    /// (the network itself has no notion of absolute time).
    trace: Option<Box<NetTrace>>,
}

impl Omega {
    /// Build a network with at least `ports` lines.
    ///
    /// # Panics
    ///
    /// Panics if `ports == 0` or [`check_shape`] rejects the shape (a
    /// radix, queue depth, stage or line count the fixed-size switch
    /// state cannot hold).
    pub fn new(ports: usize, cfg: &NetworkConfig) -> Omega {
        assert!(ports > 0, "network must have at least one port");
        if let Err(why) = check_shape(ports, cfg) {
            panic!("{why}");
        }
        let stages = stages_for(ports, cfg.radix);
        let size = cfg.radix.pow(stages as u32);
        // Input + output queue per port pair; we model the pair as a single
        // per-stage queue of twice the per-queue capacity.
        let queue_cap = cfg.queue_words * 2;
        let injector_cap = 2;
        assert!(injector_cap <= INJ_CAP, "injector ring too small");
        let shuffle_tab: Vec<u32> = (0..size)
            .map(|line| ((line * cfg.radix) % size + (line * cfg.radix) / size) as u32)
            .collect();
        let lines = (0..stages)
            .flat_map(|stage| (0..size).map(move |line| (stage, line)))
            .map(|(stage, line)| Line {
                owner: NO_PORT,
                head: 0,
                len: 0,
                front: NO_PORT,
                held: NO_PORT,
                rr: 0,
                sub: (line % cfg.radix) as u8,
                // The digit of `line` (as a destination) consumed here,
                // most significant first.
                route: (line / cfg.radix.pow((stages - 1 - stage) as u32) % cfg.radix) as u8,
            })
            .collect();
        Omega {
            radix: cfg.radix,
            stages,
            size,
            queue_cap,
            words_per_cycle: cfg.words_per_cycle,
            injector_cap,
            lines,
            ring: vec![Flit::default(); stages * size * queue_cap],
            busy: vec![0; ((stages + 1) * size).div_ceil(64)],
            injectors: vec![Injector::default(); size],
            pending_injections: 0,
            assemblers: (0..size).map(|_| Assembler::default()).collect(),
            slab: Vec::new(),
            free_head: NO_PACKET,
            in_flight: 0,
            stats: NetStats::default(),
            shuffle_tab,
            stage_conflicts: [0; MAX_STAGES],
            stage_blocked: [0; MAX_STAGES],
            queue_depth: Histogrammer::with_bins(RING_CAP + 1),
            reference: false,
            charge: Charge::default(),
            stall: None,
            stall_replays: 0,
            faults: None,
            trace: None,
        }
    }

    /// A network that scans every switch and reads every front from its
    /// queue on every tick, never replaying a stall: the reference the
    /// equivalence tests compare the flow path against (see
    /// `Machine::new_reference`). Not a production mode.
    ///
    /// # Panics
    ///
    /// As [`Omega::new`].
    pub fn new_reference(ports: usize, cfg: &NetworkConfig) -> Omega {
        Omega {
            reference: true,
            ..Omega::new(ports, cfg)
        }
    }

    /// Ticks replayed in O(1) from a cached stall charge since
    /// construction (always zero on a reference network).
    pub fn stall_replays(&self) -> u64 {
        self.stall_replays
    }

    /// Install fault injection on this network. `salt` distinguishes the
    /// forward and reverse instances so each draws an independent stream
    /// from one machine seed. Transient fault decisions are made once per
    /// accepted injection: `mix(seed, salt ^ port, nth-injection)` drops
    /// the packet with probability `drop_ppm` per million, else corrupts
    /// a request (the module will NACK) with `nack_ppm` per million.
    pub fn enable_faults(&mut self, seed: u64, salt: u64, drop_ppm: u64, nack_ppm: u64) {
        self.stall = None;
        self.faults = Some(Box::new(NetFaults {
            seed,
            salt,
            drop_ppm,
            nack_ppm,
            inj_seq: vec![0; self.size],
            down: vec![false; self.size],
            doom: Vec::new(),
        }));
    }

    /// Install causal tracing on this network. `fwd` selects the forward
    /// or reverse hop kinds for the stamps. Like fault injection, the
    /// untraced hot path pays a single `Option` check per site.
    pub(crate) fn enable_trace(&mut self, fwd: bool) {
        self.trace = Some(Box::new(NetTrace::new(fwd)));
    }

    /// Set the cycle used for this network's trace stamps. Called by the
    /// machine after advancing `now`, before any injection or tick can
    /// touch the network this cycle. No-op when tracing is off.
    #[inline]
    pub(crate) fn set_trace_now(&mut self, now: Cycle) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.now = now;
        }
    }

    /// Drain the network's stamped trace events (and overflow count),
    /// leaving the buffer empty. Returns nothing when tracing is off.
    pub(crate) fn drain_trace(&mut self) -> Option<(Vec<TraceEvent>, u64)> {
        let t = self.trace.as_deref_mut()?;
        let events = std::mem::take(&mut t.buf.events);
        let dropped = std::mem::replace(&mut t.buf.dropped, 0);
        Some((events, dropped))
    }

    /// Stamp the head of packet `id` entering `stage` (tracing only).
    fn stamp_stage(&mut self, id: PacketId, stage: usize) {
        let Slot::Live(pkt) = &self.slab[id as usize] else {
            unreachable!("queued flit has live packet")
        };
        let (tid, ce) = pkt_trace(pkt);
        if let (Some(t), true) = (self.trace.as_deref_mut(), tid != 0) {
            t.stamp_stage(tid, ce, stage as u8);
        }
    }

    /// Mark `port` down (all injections refused and charged to
    /// `link_blocked`) or back up. No-op unless [`Omega::enable_faults`]
    /// was called. Packets already in flight keep draining — an outage
    /// severs the injection link, it does not strand wormhole locks.
    pub fn set_port_down(&mut self, port: usize, down: bool) {
        assert!(port < self.size, "port {port} out of range");
        self.stall = None;
        if let Some(f) = self.faults.as_deref_mut() {
            f.down[port] = down;
        }
    }

    /// Packets currently in flight (accepted but not yet delivered or
    /// evaporated). With the `drops` and `packets_delivered` counters this
    /// closes the conservation law `injected = delivered + drops +
    /// in_flight`.
    pub fn in_flight_packets(&self) -> usize {
        self.in_flight
    }

    /// Number of addressable lines (`radix^stages`, ≥ the requested ports).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of switch stages.
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Offer a packet for injection at `port`. Returns `false` when the
    /// port's injector is full; the caller must retry later (this is the
    /// backpressure that stalls a CE or memory module).
    pub fn try_inject(&mut self, port: usize, packet: Packet) -> bool {
        assert!(port < self.size, "port {port} out of range");
        assert!(
            packet.dst < self.size,
            "destination {} out of range",
            packet.dst
        );
        assert!(packet.words >= 1, "packets carry at least the header word");
        if let Some(f) = self.faults.as_deref() {
            if f.down[port] {
                self.stats.link_blocked += 1;
                return false;
            }
        }
        if self.injectors[port].len() >= self.injector_cap {
            return false;
        }
        if let Some(t) = self.trace.as_deref_mut() {
            let (tid, ce) = pkt_trace(&packet);
            if tid != 0 {
                t.stamp_inject(tid, ce);
            }
        }
        let words = packet.words;
        let id = self.alloc(packet);
        if let Some(f) = self.faults.as_deref_mut() {
            let mut doom = false;
            if f.drop_ppm + f.nack_ppm > 0 {
                let n = f.inj_seq[port];
                f.inj_seq[port] += 1;
                let r = crate::fault::mix(f.seed, f.salt ^ port as u64, n) % 1_000_000;
                if r < f.drop_ppm {
                    doom = true;
                    self.stats.drops += 1;
                } else if r < f.drop_ppm + f.nack_ppm {
                    if let Slot::Live(Packet {
                        payload: Payload::Request(req),
                        ..
                    }) = &mut self.slab[id as usize]
                    {
                        req.nacked = true;
                        self.stats.nacks += 1;
                    }
                }
            }
            // Slab slots are reused, so the doom bit is (re)written on
            // every allocation, not just when set.
            if f.doom.len() <= id as usize {
                f.doom.resize(id as usize + 1, false);
            }
            f.doom[id as usize] = doom;
        }
        self.injectors[port].push_back((id, words));
        self.set_busy(self.stages * self.size + port, true);
        self.pending_injections += 1;
        self.stats.packets_injected += 1;
        // New work invalidates any cached stall charge: the next tick must
        // re-sweep (the fresh packet may move, or adds its own charge).
        self.stall = None;
        true
    }

    /// True when no packet is anywhere in the network.
    pub fn is_idle(&self) -> bool {
        self.in_flight == 0
    }

    /// The earliest future cycle at which the network can change
    /// externally visible state: any in-flight packet means the very next
    /// cycle; an empty network means never (`None`).
    pub(crate) fn next_event(&self, now: crate::time::Cycle) -> Option<crate::time::Cycle> {
        if self.in_flight == 0 {
            None
        } else {
            Some(now + 1)
        }
    }

    /// Packets `port`'s injector can still accept this cycle.
    pub fn injector_free(&self, port: usize) -> usize {
        if let Some(f) = self.faults.as_deref() {
            if f.down[port] {
                return 0;
            }
        }
        self.injector_cap.saturating_sub(self.injectors[port].len())
    }

    /// Statistics since construction.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Arbitration losses per switch stage (index = stage).
    pub fn stage_conflicts(&self) -> &[u64] {
        &self.stage_conflicts[..self.stages]
    }

    /// Flow-control blocks per switch stage (index = stage; injection
    /// blocks are charged to stage 0).
    pub fn stage_blocked(&self) -> &[u64] {
        &self.stage_blocked[..self.stages]
    }

    /// Distribution of stage-queue depths, sampled after every word push.
    pub fn queue_depth_histogram(&self) -> &Histogrammer {
        &self.queue_depth
    }

    /// Advance the network one cycle, delivering completed packets to
    /// `sink`. Words move at most one hop per cycle; stages are processed
    /// downstream-first so freed space propagates upstream next cycle, like
    /// the real per-stage flow control. Generic over the sink so the
    /// memory- and CE-side delivery paths monomorphize and inline.
    ///
    /// This entry makes no promise about the sink between calls, so it
    /// never replays a cached stall charge; use [`Omega::tick_epoch`] when
    /// the caller can vouch for the sink's acceptance state.
    pub fn tick<S: NetSink + ?Sized>(&mut self, sink: &mut S) {
        self.stall = None;
        self.tick_epoch(sink, 0);
    }

    /// Advance the network one cycle under a sink-acceptance `epoch`: a
    /// value the caller changes whenever any [`NetSink::try_begin`] answer
    /// may have changed since the previous tick (and otherwise keeps
    /// constant). On the flow path, a tick that moved nothing — every
    /// stream stalled behind flow control or a refusing sink — keeps its
    /// charge, and subsequent ticks at the same epoch with no intervening
    /// injection or fault event replay it in O(1) instead of
    /// re-arbitrating every switch. The replayed charge is exactly what
    /// the reference sweep would have recomputed, bit for bit.
    pub fn tick_epoch<S: NetSink + ?Sized>(&mut self, sink: &mut S, epoch: u64) {
        if self.in_flight == 0 {
            return; // nothing anywhere in the network
        }
        if let Some(stalled) = self.stall {
            if stalled == epoch {
                // The previous tick moved nothing and nothing has changed
                // since: this tick charges the identical stall deltas and
                // again moves nothing.
                self.fold_charge();
                self.stall_replays += 1;
                return;
            }
            // Sink state moved on: the cached charge is stale.
            self.stall = None;
        }
        self.charge.clear();
        for _ in 0..self.words_per_cycle {
            // A pass that neither moved a word nor charged a block or an
            // arbitration loss left the network untouched, so every further
            // pass this cycle would be an identical no-op.
            let before = self.charge.events();
            for stage in (0..self.stages).rev() {
                if self.reference {
                    self.scan_every_switch(stage, sink);
                } else {
                    self.scan_busy_switches(stage, sink);
                }
            }
            if self.charge.events() == before {
                break;
            }
        }
        self.inject_words();
        self.fold_charge();
        if self.charge.moved == 0 && !self.reference {
            // Nothing moved, so nothing in the network changed: queues,
            // locks, round-robin pointers and assemblers are untouched
            // (only stat charges were made). Keep the tick's charge for
            // O(1) replay while the stall horizon lasts.
            self.stall = Some(epoch);
        }
    }

    /// Add [`Omega::charge`] to the cumulative stats.
    fn fold_charge(&mut self) {
        let c = &self.charge;
        self.stats.words_moved += c.moved;
        self.stats.blocked_moves += c.blocked;
        self.stats.arbitration_losses += c.losses;
        for_each_stage(c.charged, |s| {
            self.stage_blocked[s] += c.stage_blocked[s];
            self.stage_conflicts[s] += c.stage_conflicts[s];
        });
    }

    /// Charge a flow-control block at `stage`.
    #[inline]
    fn block(&mut self, stage: usize) {
        self.charge.blocked += 1;
        self.charge.stage_blocked[stage] += 1;
        self.charge.charged |= 1 << stage;
    }

    fn alloc(&mut self, packet: Packet) -> PacketId {
        self.in_flight += 1;
        if self.free_head != NO_PACKET {
            let id = self.free_head;
            match self.slab[id as usize] {
                Slot::Free { next } => self.free_head = next,
                Slot::Live(_) => unreachable!("free list points at a live packet"),
            }
            self.slab[id as usize] = Slot::Live(packet);
            id
        } else {
            self.slab.push(Slot::Live(packet));
            (self.slab.len() - 1) as PacketId
        }
    }

    fn release(&mut self, id: PacketId) -> Packet {
        self.in_flight -= 1;
        // Copy the packet straight out, then overwrite the slot with its
        // free-list link.
        let Slot::Live(pkt) = self.slab[id as usize] else {
            unreachable!("released packet must be live")
        };
        self.slab[id as usize] = Slot::Free {
            next: self.free_head,
        };
        self.free_head = id;
        pkt
    }

    /// Perfect shuffle: rotate the base-`radix` digits of `line` left
    /// (precomputed — the closed form divides by the non-constant radix).
    #[inline]
    fn shuffle(&self, line: usize) -> usize {
        self.shuffle_tab[line] as usize
    }

    /// Routing digit consumed at `stage` for destination `dst`
    /// (most-significant digit first; precomputed per `(stage, dst)`).
    #[inline]
    fn route_digit(&self, dst: usize, stage: usize) -> u8 {
        self.lines[stage * self.size + dst].route
    }

    /// The first set position of the occupancy index in `from..end`.
    #[inline]
    fn next_busy(&self, from: usize, end: usize) -> Option<usize> {
        if from >= end {
            return None;
        }
        let mut w = from / 64;
        let mut bits = self.busy[w] & (!0u64 << (from % 64));
        while bits == 0 {
            w += 1;
            if w * 64 >= end {
                return None;
            }
            bits = self.busy[w];
        }
        let pos = w * 64 + bits.trailing_zeros() as usize;
        (pos < end).then_some(pos)
    }

    /// Mark position `pos` of the occupancy index occupied or empty.
    #[inline]
    fn set_busy(&mut self, pos: usize, occupied: bool) {
        let bit = 1 << (pos % 64);
        if occupied {
            self.busy[pos / 64] |= bit;
        } else {
            self.busy[pos / 64] &= !bit;
        }
    }

    /// The occupied lines of the switch whose first queue is
    /// `lines[base]`, one bit per subport (a switch may straddle two
    /// words of the index).
    #[inline]
    fn switch_occupancy(&self, base: usize) -> u32 {
        let (w, off) = (base / 64, base % 64);
        let mut bits = self.busy[w] >> off;
        if off + self.radix > 64 {
            bits |= self.busy[w + 1] << (64 - off);
        }
        bits as u32 & ((1 << self.radix) - 1)
    }

    /// The flow path's scan of one stage: visit only switches with an
    /// occupied line, in ascending order (the same order as a dense scan:
    /// an empty switch's turn is a guaranteed no-op). Ticking a switch
    /// only moves words downstream, so it never changes another
    /// same-stage switch's occupancy.
    fn scan_busy_switches<S: NetSink + ?Sized>(&mut self, stage: usize, sink: &mut S) {
        let row = stage * self.size;
        let mut from = row;
        while let Some(idx) = self.next_busy(from, row + self.size) {
            let base = idx - usize::from(self.lines[idx].sub);
            self.tick_switch(stage, base - row, sink);
            from = base + self.radix;
        }
    }

    /// Arbitrate and move the switch at `base` of `stage`, which holds
    /// at least one word.
    #[inline]
    fn tick_switch<S: NetSink + ?Sized>(&mut self, stage: usize, base: usize, sink: &mut S) {
        let fronts = stage * self.size + base;
        let occupied = self.switch_occupancy(fronts);
        if occupied & (occupied - 1) == 0 {
            // One requesting line: it wins any arbitration unopposed
            // (no losses, no round-robin movement), and a held lock
            // either belongs to it or excludes it.
            let i = occupied.trailing_zeros() as usize;
            let out = usize::from(self.lines[fronts + i].front);
            let owner = self.lines[fronts + out].owner;
            if owner == NO_PORT || usize::from(owner) == i {
                self.move_from(stage, base + out, base + i, sink);
            }
        } else {
            let mut requested = [0u16; MAX_RADIX];
            let mut outs = 0u32;
            let mut live = occupied;
            while live != 0 {
                let i = live.trailing_zeros() as usize;
                live &= live - 1;
                let out = usize::from(self.lines[fronts + i].front);
                requested[out] |= 1 << i;
                outs |= 1 << out;
            }
            self.serve_outputs(stage, base, &requested, outs, sink);
        }
    }

    /// The reference scan of one stage: every switch, each line's wanted
    /// output read from the word at the front of its queue.
    fn scan_every_switch<S: NetSink + ?Sized>(&mut self, stage: usize, sink: &mut S) {
        for base in (0..self.size).step_by(self.radix) {
            let mut requested = [0u16; MAX_RADIX];
            let mut outs = 0u32;
            for i in 0..self.radix {
                let idx = stage * self.size + base + i;
                let line = self.lines[idx];
                if line.len == 0 {
                    continue;
                }
                let f = self.ring[idx * self.queue_cap + usize::from(line.head)];
                let out = if f.flags & HEAD != 0 {
                    self.route_digit(usize::from(f.dst), stage)
                } else {
                    // A body word at the front implies its head already
                    // moved through this stage and left the lock behind.
                    line.held
                };
                requested[usize::from(out)] |= 1 << i;
                outs |= 1 << out;
            }
            self.serve_outputs(stage, base, &requested, outs, sink);
        }
    }

    /// Serve each requested output of the switch at `base` in ascending
    /// subport order: the lock owner first, else round-robin among the
    /// competing head words, every other requester charged a loss.
    fn serve_outputs<S: NetSink + ?Sized>(
        &mut self,
        stage: usize,
        base: usize,
        requested: &[u16; MAX_RADIX],
        mut outs: u32,
        sink: &mut S,
    ) {
        while outs != 0 {
            let subport = outs.trailing_zeros() as usize;
            outs &= outs - 1;
            let req = u32::from(requested[subport]);
            let out_line = base + subport;
            let output = self.lines[stage * self.size + out_line];
            let src_line = if output.owner != NO_PORT {
                // Only the lock owner may use this output; competing head
                // words wait (no arbitration happened, so no losses are
                // charged).
                if req & (1 << output.owner) == 0 {
                    continue;
                }
                base + usize::from(output.owner)
            } else {
                // Round-robin: first requesting input at or cyclically
                // after `start` wins; every other requester loses.
                let start = usize::from(output.rr);
                let rot =
                    ((req >> start) | (req << (self.radix - start))) & ((1 << self.radix) - 1);
                let losers = u64::from(req.count_ones()) - 1;
                self.charge.losses += losers;
                self.charge.stage_conflicts[stage] += losers;
                self.charge.charged |= 1 << stage;
                let winner = start + rot.trailing_zeros() as usize;
                base + if winner >= self.radix {
                    winner - self.radix
                } else {
                    winner
                }
            };
            self.move_from(stage, out_line, src_line, sink);
        }
    }

    /// Move the front word of `src_line` through `stage` to `out_line`,
    /// or charge the block that stops it.
    #[inline]
    fn move_from<S: NetSink + ?Sized>(
        &mut self,
        stage: usize,
        out_line: usize,
        src_line: usize,
        sink: &mut S,
    ) {
        let src = stage * self.size + src_line;
        let out = src - src_line + out_line;
        let mut line = self.lines[src];
        let flit = self.ring[src * self.queue_cap + usize::from(line.head)];

        // Check downstream space (next stage queue, or sink acceptance).
        // A doomed packet never consults the sink: it occupies links and
        // queues like any other packet but evaporates instead of ejecting.
        let last = stage + 1 == self.stages;
        let next = src - src_line + self.size + self.shuffle(out_line);
        if last {
            if flit.flags & (HEAD | DOOM) == HEAD
                && !self.assemblers[out_line].accepted
                && !sink.try_begin(out_line)
            {
                self.block(stage);
                return;
            }
        } else if usize::from(self.lines[next].len) == self.queue_cap {
            self.block(stage);
            return;
        }

        // Commit: the lock, the round-robin pointer, then the pop.
        self.charge.moved += 1;
        let output = &mut self.lines[out];
        if flit.flags & TAIL != 0 {
            output.owner = NO_PORT;
            line.held = NO_PORT;
        } else {
            output.owner = line.sub;
            line.held = output.sub;
        }
        if flit.flags & HEAD != 0 {
            // Advance round-robin past the winner for fairness.
            output.rr = line.sub + 1;
            if usize::from(output.rr) == self.radix {
                output.rr = 0;
            }
        }
        line.head += 1;
        if usize::from(line.head) == self.queue_cap {
            line.head = 0;
        }
        line.len -= 1;
        if line.len == 0 {
            line.front = NO_PORT;
            self.set_busy(src, false);
        } else {
            let f = self.ring[src * self.queue_cap + usize::from(line.head)];
            line.front = if f.flags & HEAD != 0 {
                f.route
            } else {
                line.held
            };
        }
        // The output record may be the queue's own (a line straight
        // through its switch): write the queue fields back, not the
        // whole copy.
        let q = &mut self.lines[src];
        (q.head, q.len, q.front, q.held) = (line.head, line.len, line.front, line.held);

        if last {
            let asm = &mut self.assemblers[out_line];
            if flit.flags & HEAD != 0 {
                asm.accepted = true;
            }
            if flit.flags & TAIL != 0 {
                asm.accepted = false;
                let pkt = self.release(flit.pkt);
                if flit.flags & DOOM == 0 {
                    self.stats.packets_delivered += 1;
                    if let Some(t) = self.trace.as_deref_mut() {
                        let (tid, ce) = pkt_trace(&pkt);
                        if tid != 0 {
                            t.stamp_deliver(tid, ce);
                        }
                    }
                    sink.deliver(out_line, pkt);
                }
            }
        } else {
            let mut flit = flit;
            if flit.flags & HEAD != 0 {
                flit.route = self.route_digit(usize::from(flit.dst), stage + 1);
                if self.trace.is_some() {
                    self.stamp_stage(flit.pkt, stage + 1);
                }
            }
            self.push(next, flit);
        }
    }

    /// Append `flit` to the queue `lines[idx]` (which has room).
    #[inline(always)]
    fn push(&mut self, idx: usize, flit: Flit) {
        let q = &mut self.lines[idx];
        let len = usize::from(q.len);
        debug_assert!(len < self.queue_cap, "ring overflow");
        let mut slot = usize::from(q.head) + len;
        if slot >= self.queue_cap {
            slot -= self.queue_cap;
        }
        q.len += 1;
        if len == 0 {
            // The pushed word became the front.
            q.front = if flit.flags & HEAD != 0 {
                flit.route
            } else {
                q.held
            };
            self.set_busy(idx, true);
        }
        self.ring[idx * self.queue_cap + slot] = flit;
        self.queue_depth.record(len + 1);
    }

    fn inject_words(&mut self) {
        if self.pending_injections == 0 {
            return;
        }
        // Scan only ports with queued injections, in ascending port order
        // (the same deterministic order the dense loop used).
        let row = self.stages * self.size;
        let mut from = row;
        while let Some(pos) = self.next_busy(from, row + self.size) {
            from = pos + 1;
            let port = pos - row;
            let (pkt, words) = self.injectors[port].front();
            let line = self.shuffle(port);
            if usize::from(self.lines[line].len) == self.queue_cap {
                self.block(0);
                continue;
            }
            let sent = self.injectors[port].words_sent;
            let mut flit = Flit {
                pkt,
                flags: if sent + 1 == words { TAIL } else { 0 },
                ..Flit::default()
            };
            if self.faults.as_deref().is_some_and(|f| f.doomed(pkt)) {
                flit.flags |= DOOM;
            }
            if sent == 0 {
                let Slot::Live(p) = &self.slab[pkt as usize] else {
                    unreachable!("injected packet is live")
                };
                flit.flags |= HEAD;
                flit.dst = p.dst as u16;
                flit.route = self.route_digit(p.dst, 0);
                if self.trace.is_some() {
                    self.stamp_stage(pkt, 0);
                }
            }
            self.push(line, flit);
            self.charge.moved += 1;
            let inj = &mut self.injectors[port];
            inj.words_sent += 1;
            if inj.words_sent == words {
                inj.pop_front();
                inj.words_sent = 0;
                self.pending_injections -= 1;
                if inj.len == 0 {
                    self.set_busy(pos, false);
                }
            }
        }
    }
}

use crate::snapshot::{
    codec, snapshot_state, Codec, Exact, Field, Fixed, Nested, Prefix, Present, RecordWriter,
    SnapReader, SnapResult, SnapWriter,
};

/// Snapshot bytes of one queued [`Flit`]: packet id, head/tail flags,
/// route.
const FLIT_RECORD: usize = 6;

codec!(enum Slot as "slab slot kind" {
    1 => Live(pkt),
    0 => Free { next },
});
codec!(struct Assembler { accepted });
codec!(struct NetStats {
    packets_injected, packets_delivered, words_moved, blocked_moves, arbitration_losses,
    link_blocked, drops, nacks,
});

/// The ring goes out in FIFO order; its physical head is not state.
impl Codec for Injector {
    fn put(&self, w: &mut SnapWriter) {
        w.u8(self.len);
        w.u8(self.words_sent);
        for slot in 0..self.len() {
            self.slots[(usize::from(self.head) + slot) % INJ_CAP].put(w);
        }
    }

    fn get(r: &mut SnapReader) -> SnapResult<Injector> {
        let len = r.u8()?;
        if usize::from(len) > INJ_CAP {
            return Err(r.err_mismatch("injector ring deeper than its capacity"));
        }
        let mut inj = Injector {
            len,
            words_sent: r.u8()?,
            ..Injector::default()
        };
        for slot in &mut inj.slots[..usize::from(len)] {
            *slot = Codec::get(r)?;
        }
        Ok(inj)
    }
}

// The seeds and rates come from the fault plan.
snapshot_state! {
    impl NetFaults as this {
        saved: [inj_seq: Fixed, down: Exact(Nested), doom],
        derived: [seed, salt, drop_ppm, nack_ppm],
    }
}

// Config-derived tables (the shuffle, each line's routing constants) are
// rebuilt by `Omega::new`, and the occupancy index, cached fronts, flit
// routing fields and the stall cache from the restored queues
// (`Omega::rebuild_indexes`). The in-flight packet slab comes first:
// queued flits reference its ids.
snapshot_state! {
    impl Omega as this {
        tag: b"OMGA",
        saved: [
            slab, free_head, [lines, ring]: Queues, injectors: Exact(Nested),
            assemblers: Exact(Nested), stats, stage_conflicts: Prefix(this.stages),
            stage_blocked: Prefix(this.stages), queue_depth, stall_replays,
            faults: Present("network fault injection"), trace: Present("network tracing"),
        ],
        derived: [
            radix, stages, size, queue_cap, words_per_cycle, injector_cap, busy,
            pending_injections, in_flight, shuffle_tab,
            reference, charge, stall,
        ],
        after_load: rebuild_indexes,
    }
}

/// The switch state, in the image's per-field layout: every stage
/// queue's length, the queued words front to back in queue order, every
/// output's lock owner, every line's held output, every output's
/// round-robin pointer. Restored queues start at ring slot 0: the
/// physical ring heads are not state.
struct Queues;

impl Field<Omega> for Queues {
    fn put(&self, o: &Omega, w: &mut SnapWriter) {
        w.bytes(&o.lines.iter().map(|l| l.len).collect::<Vec<_>>());
        let queued = o.lines.iter().enumerate().flat_map(|(idx, l)| {
            (0..usize::from(l.len)).map(move |j| {
                let slot = (usize::from(l.head) + j) % o.queue_cap;
                o.ring[idx * o.queue_cap + slot]
            })
        });
        w.records(queued, |f| {
            RecordWriter::<FLIT_RECORD>::new()
                .u32(f.pkt)
                .u8(f.flags & (HEAD | TAIL))
                .u8(f.route)
                .done()
        });
        let owners = o.lines.iter().enumerate().map(|(idx, l)| match l.owner {
            NO_PORT => NO_LOCK,
            sub => (idx % o.size - usize::from(l.sub) + usize::from(sub)) as u32,
        });
        w.u32s(&owners.collect::<Vec<_>>());
        w.bytes(&o.lines.iter().map(|l| l.held).collect::<Vec<_>>());
        w.bytes(&o.lines.iter().map(|l| l.rr).collect::<Vec<_>>());
    }

    fn load(&self, o: &mut Omega, r: &mut SnapReader) -> SnapResult<()> {
        let mut lens = vec![0u8; o.lines.len()];
        r.bytes_into(&mut lens)?;
        if lens.iter().any(|&n| usize::from(n) > o.queue_cap) {
            return Err(r.err_mismatch("stage queue deeper than its capacity"));
        }
        let slots = o.slab.len();
        let queued = r.records::<_, FLIT_RECORD>(|mut f| {
            let (pkt, flags, route) = (f.u32(), f.u8(), f.u8());
            if pkt as usize >= slots {
                return Err("queued flit references no slab slot");
            }
            if flags > (HEAD | TAIL) {
                return Err("invalid flit head/tail flags");
            }
            Ok(Flit {
                pkt,
                dst: 0,
                route,
                flags,
            })
        })?;
        if queued.len() != lens.iter().map(|&n| usize::from(n)).sum::<usize>() {
            return Err(r.err_mismatch("queued flit count disagrees with the queue lengths"));
        }
        let mut owners = vec![0u32; o.lines.len()];
        r.u32s_into(&mut owners)?;
        let mut held = vec![0u8; o.lines.len()];
        r.bytes_into(&mut held)?;
        let mut rr = vec![0u8; o.lines.len()];
        r.bytes_into(&mut rr)?;
        let mut queued = queued.into_iter();
        for (idx, line) in o.lines.iter_mut().enumerate() {
            // An owner outside the output's switch is out of range.
            let base = idx % o.size - usize::from(line.sub);
            line.owner = match owners[idx] {
                NO_LOCK => NO_PORT,
                owner => match (owner as usize).checked_sub(base) {
                    Some(sub) if sub < o.radix => sub as u8,
                    _ => return Err(r.err_mismatch("output locked by another switch's line")),
                },
            };
            (line.head, line.len, line.held, line.rr) = (0, lens[idx], held[idx], rr[idx]);
            let at = idx * o.queue_cap;
            for (slot, f) in o.ring[at..at + usize::from(lens[idx])]
                .iter_mut()
                .zip(&mut queued)
            {
                *slot = f;
            }
        }
        Ok(())
    }
}

impl Omega {
    /// Check the restored packet references and switch state against the
    /// slab and the geometry, and rebuild what derives from them rather
    /// than trusting it from the image: the occupancy index, the cached
    /// fronts, each queued word's destination, route and doom flag, the
    /// injection mask. The stall cache is dropped: the next tick
    /// recomputes it bit-identically.
    fn rebuild_indexes(&mut self, r: &SnapReader) -> SnapResult<()> {
        let slots = self.slab.len();
        let in_range = |id: PacketId| id == NO_PACKET || (id as usize) < slots;
        if !in_range(self.free_head) {
            return Err(r.err_mismatch("slab free head out of range"));
        }
        let free_links = self.slab.iter().filter_map(|slot| match slot {
            Slot::Free { next } => Some(*next),
            Slot::Live(_) => None,
        });
        if !free_links.clone().all(in_range) {
            return Err(r.err_mismatch("slab free link out of range"));
        }
        let injected = self
            .injectors
            .iter()
            .flat_map(|inj| inj.slots[..inj.len()].iter());
        if injected.clone().any(|&(pkt, _)| pkt as usize >= slots) {
            return Err(r.err_mismatch("injector slot `pkt` references no slab slot"));
        }
        let size = self.size;
        if self
            .slab
            .iter()
            .any(|slot| matches!(slot, Slot::Live(p) if p.dst >= size))
        {
            return Err(r.err_mismatch("slab packet destination out of range"));
        }
        let radix = self.radix;
        if !self.lines.iter().all(|l| {
            (usize::from(l.held) < radix || l.held == NO_PORT) && usize::from(l.rr) < radix
        }) {
            return Err(r.err_mismatch("held output or round-robin pointer out of range"));
        }
        self.in_flight = slots - free_links.count();
        self.pending_injections = self.injectors.iter().map(Injector::len).sum();
        self.busy.fill(0);
        for port in 0..self.size {
            if self.injectors[port].len() > 0 {
                self.set_busy(self.stages * self.size + port, true);
            }
        }
        for idx in 0..self.lines.len() {
            let stage = idx / self.size;
            for j in 0..usize::from(self.lines[idx].len) {
                let f = &mut self.ring[idx * self.queue_cap + j];
                let Slot::Live(p) = &self.slab[f.pkt as usize] else {
                    return Err(r.err_mismatch("queued flit references a free slab slot"));
                };
                if f.flags & HEAD != 0 {
                    f.dst = p.dst as u16;
                    f.route = self.lines[stage * self.size + p.dst].route;
                }
                if self.faults.as_deref().is_some_and(|nf| nf.doomed(f.pkt)) {
                    f.flags |= DOOM;
                }
            }
            let l = &mut self.lines[idx];
            if l.len > 0 {
                let f = self.ring[idx * self.queue_cap];
                l.front = if f.flags & HEAD != 0 { f.route } else { l.held };
                if l.front == NO_PORT {
                    return Err(r.err_mismatch("queued body word holds no output"));
                }
                self.busy[idx / 64] |= 1 << (idx % 64);
            }
        }
        self.stall = None;
        Ok(())
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::CeId;
    use crate::network::packet::{MemRequest, Payload, RequestKind, Stream};
    use crate::snapshot::State;
    use crate::time::Cycle;

    fn cfg(radix: usize) -> NetworkConfig {
        NetworkConfig {
            radix,
            queue_words: 2,
            words_per_cycle: 1,
        }
    }

    fn pkt(dst: usize, words: u8, addr: u64) -> Packet {
        Packet {
            dst,
            words,
            payload: Payload::Request(MemRequest {
                ce: CeId(0),
                kind: RequestKind::Read,
                addr,
                stream: Stream::Scalar,
                issued: Cycle(0),
                seq: 0,
                nacked: false,
                trace: 0,
            }),
        }
    }

    /// Sink that records deliveries and can refuse new packets.
    #[derive(Default)]
    struct RecSink {
        delivered: Vec<(usize, Packet)>,
        refuse: bool,
    }

    impl NetSink for RecSink {
        fn try_begin(&mut self, _port: usize) -> bool {
            !self.refuse
        }
        fn deliver(&mut self, port: usize, packet: Packet) {
            self.delivered.push((port, packet));
        }
    }

    fn run_until_idle(net: &mut Omega, sink: &mut RecSink, max: usize) {
        for _ in 0..max {
            if net.is_idle() {
                return;
            }
            net.tick(sink);
        }
        assert!(net.is_idle(), "network did not drain");
    }

    fn image_of(net: &Omega) -> Vec<u8> {
        let mut w = SnapWriter::fragment();
        net.save(&mut w);
        w.into_fragment()
    }

    /// Save → load → save is byte-equal mid-traffic (queued words, a
    /// held injector, a wormhole lock), and the restored network then
    /// delivers exactly what the original does.
    #[test]
    fn snapshot_codec_round_trip_is_byte_equal_mid_traffic() {
        let mut net = Omega::new(16, &cfg(4));
        let mut sink = RecSink::default();
        for port in 0..6 {
            assert!(net.try_inject(port, pkt(port % 3, 4, port as u64)));
        }
        net.tick(&mut sink);
        net.tick(&mut sink);
        let image = image_of(&net);
        let mut copy = Omega::new(16, &cfg(4));
        copy.load(&mut SnapReader::new(&image)).unwrap();
        assert_eq!(image_of(&copy), image);
        let mut copy_sink = RecSink::default();
        run_until_idle(&mut net, &mut sink, 200);
        run_until_idle(&mut copy, &mut copy_sink, 200);
        assert_eq!(
            copy_sink.delivered,
            sink.delivered[sink.delivered.len() - copy_sink.delivered.len()..]
        );
        assert_eq!(image_of(&copy), image_of(&net));
    }

    /// A crafted image whose injector slot names a packet beyond the slab
    /// is refused by name; it used to reach `self.slab[id]` and panic.
    #[test]
    fn snapshot_codec_rejects_an_injector_slot_beyond_the_slab() {
        let mut net = Omega::new(16, &cfg(4));
        assert!(net.try_inject(2, pkt(5, 1, 0)));
        let inj = &mut net.injectors[2];
        inj.slots[usize::from(inj.head)].0 = 999;
        let image = image_of(&net);
        let e = Omega::new(16, &cfg(4))
            .load(&mut SnapReader::new(&image))
            .unwrap_err();
        assert!(e.0.contains("injector slot `pkt`"), "{}", e.0);
    }

    #[test]
    fn geometry_of_cedar_network() {
        let net = Omega::new(32, &cfg(8));
        assert_eq!(net.size(), 64);
        assert_eq!(net.stages(), 2);
        let net = Omega::new(32, &cfg(2));
        assert_eq!(net.size(), 32);
        assert_eq!(net.stages(), 5);
    }

    #[test]
    fn shuffle_rotates_digits() {
        let net = Omega::new(4, &cfg(2));
        // size 4, radix 2: shuffle(01)=10, shuffle(11)=11.
        assert_eq!(net.shuffle(1), 2);
        assert_eq!(net.shuffle(3), 3);
        assert_eq!(net.shuffle(0), 0);
        assert_eq!(net.shuffle(2), 1);
    }

    #[test]
    fn routes_every_source_destination_pair() {
        for radix in [2usize, 4, 8] {
            let mut net = Omega::new(radix * radix, &cfg(radix));
            let size = net.size();
            for src in 0..size {
                for dst in 0..size {
                    let mut sink = RecSink::default();
                    assert!(net.try_inject(src, pkt(dst, 1, 7)));
                    run_until_idle(&mut net, &mut sink, 100);
                    assert_eq!(sink.delivered.len(), 1, "src={src} dst={dst}");
                    assert_eq!(sink.delivered[0].0, dst, "src={src} dst={dst}");
                }
            }
        }
    }

    #[test]
    fn unloaded_one_word_latency_is_stages_plus_one() {
        // inject at cycle 1 (end of tick), one hop per stage, eject on the
        // last stage's move: for a 2-stage net the packet is delivered on
        // the 3rd tick after injection started.
        let mut net = Omega::new(64, &cfg(8));
        let mut sink = RecSink::default();
        assert!(net.try_inject(5, pkt(40, 1, 0)));
        let mut ticks = 0;
        while !net.is_idle() {
            net.tick(&mut sink);
            ticks += 1;
            assert!(ticks < 20);
        }
        assert_eq!(ticks, 3);
        assert_eq!(sink.delivered.len(), 1);
    }

    #[test]
    fn multiword_packets_arrive_whole_and_in_order() {
        let mut net = Omega::new(16, &cfg(4));
        let mut sink = RecSink::default();
        assert!(net.try_inject(0, pkt(9, 4, 1)));
        assert!(net.try_inject(0, pkt(9, 2, 2)));
        run_until_idle(&mut net, &mut sink, 100);
        assert_eq!(sink.delivered.len(), 2);
        // FIFO per source: addr 1 before addr 2.
        let addr = |p: &Packet| match p.payload {
            Payload::Request(r) => r.addr,
            _ => unreachable!(),
        };
        assert_eq!(addr(&sink.delivered[0].1), 1);
        assert_eq!(addr(&sink.delivered[1].1), 2);
    }

    #[test]
    fn injector_backpressure() {
        let mut net = Omega::new(16, &cfg(4));
        // injector holds 2 packets.
        assert!(net.try_inject(0, pkt(1, 4, 0)));
        assert!(net.try_inject(0, pkt(1, 4, 0)));
        assert!(!net.try_inject(0, pkt(1, 4, 0)));
    }

    #[test]
    fn sink_refusal_blocks_and_later_drains() {
        let mut net = Omega::new(16, &cfg(4));
        let mut sink = RecSink {
            refuse: true,
            ..Default::default()
        };
        assert!(net.try_inject(3, pkt(8, 1, 0)));
        for _ in 0..20 {
            net.tick(&mut sink);
        }
        assert!(sink.delivered.is_empty());
        assert!(!net.is_idle());
        assert!(net.stats().blocked_moves > 0);
        sink.refuse = false;
        run_until_idle(&mut net, &mut sink, 20);
        assert_eq!(sink.delivered.len(), 1);
    }

    #[test]
    fn contention_to_one_destination_serializes() {
        // All 16 sources fire one packet at destination 0; all must arrive,
        // and arrival takes at least 16 word-cycles at the final link.
        let mut net = Omega::new(16, &cfg(4));
        let mut sink = RecSink::default();
        for src in 0..16 {
            assert!(net.try_inject(src, pkt(0, 1, src as u64)));
        }
        let mut ticks = 0;
        while !net.is_idle() {
            net.tick(&mut sink);
            ticks += 1;
            assert!(ticks < 500);
        }
        assert_eq!(sink.delivered.len(), 16);
        assert!(ticks >= 16, "16 packets over one ejection link: {ticks}");
        // Every source's packet arrived exactly once.
        let mut addrs: Vec<u64> = sink
            .delivered
            .iter()
            .map(|(_, p)| match p.payload {
                Payload::Request(r) => r.addr,
                _ => unreachable!(),
            })
            .collect();
        addrs.sort_unstable();
        assert_eq!(addrs, (0..16).collect::<Vec<u64>>());
    }

    #[test]
    fn disjoint_traffic_proceeds_in_parallel() {
        // A permutation with distinct outputs should take barely longer
        // than a single packet.
        let mut net = Omega::new(16, &cfg(4));
        let mut sink = RecSink::default();
        for src in 0..16 {
            assert!(net.try_inject(src, pkt(src, 1, 0)));
        }
        let mut ticks = 0;
        while !net.is_idle() {
            net.tick(&mut sink);
            ticks += 1;
        }
        assert_eq!(sink.delivered.len(), 16);
        // Identity permutation is conflict-free in an omega network.
        assert!(
            ticks <= 6,
            "identity permutation should not serialize: {ticks}"
        );
    }

    #[test]
    fn route_digits_reconstruct_destination_radix2_and_4() {
        // The flattened route table consumes the destination most
        // significant digit first: digits across the stages must spell
        // the destination back out in base `radix`.
        for radix in [2usize, 4] {
            let net = Omega::new(32, &cfg(radix));
            for dst in 0..net.size() {
                let mut rebuilt = 0usize;
                for stage in 0..net.stages() {
                    rebuilt = rebuilt * radix + usize::from(net.route_digit(dst, stage));
                }
                assert_eq!(rebuilt, dst, "radix={radix} dst={dst}");
            }
        }
    }

    #[test]
    fn shuffle_table_matches_digit_rotation() {
        // The precomputed shuffle table must equal the closed-form
        // perfect shuffle (rotate base-`radix` digits left).
        for radix in [2usize, 4, 8] {
            let net = Omega::new(32, &cfg(radix));
            let size = net.size();
            for line in 0..size {
                assert_eq!(
                    net.shuffle(line),
                    (line * radix) % size + (line * radix) / size,
                    "radix={radix} line={line}"
                );
            }
        }
    }

    #[test]
    fn wormhole_lock_pins_flattened_lock_arrays() {
        // A 3-word packet from port 0 to destination 0 in a radix-4 net:
        // port 0 injects onto line 0 of stage-0 switch 0 and routes to
        // output subport 0. While body words remain, the output's owner
        // and the line's held output must name the pairing; after the
        // tail they must clear, and `rr` must have advanced past the
        // winner.
        let mut net = Omega::new(16, &cfg(4));
        let mut sink = RecSink::default();
        assert!(net.try_inject(0, pkt(0, 3, 7)));
        // Tick until the head has moved through stage 0 but the tail has
        // not (head hop happens on the tick after its injection).
        net.tick(&mut sink); // inject head
        net.tick(&mut sink); // head moves stage 0 -> stage 1; body injects
        assert_eq!(
            net.lines[0].owner, 0,
            "output 0 of stage 0 locked to line 0"
        );
        assert_eq!(net.lines[0].held, 0, "line 0 owns output subport 0");
        run_until_idle(&mut net, &mut sink, 50);
        assert_eq!(sink.delivered.len(), 1);
        // Tail passage released every lock in both stages.
        assert!(net.lines.iter().all(|l| l.owner == NO_PORT));
        assert!(net.lines.iter().all(|l| l.held == NO_PORT));
        // Round-robin advanced past the winning input subport (0 -> 1) at
        // both stages' output 0.
        assert_eq!(net.lines[0].rr, 1);
        assert_eq!(net.lines[net.size].rr, 1);
    }

    #[test]
    fn round_robin_alternates_between_contending_inputs() {
        // Ports 0 and 4 shuffle onto lines 0 and 1 of stage-0 switch 0
        // (radix 4) and fight for output subport 0. The round-robin
        // pointer starts at 0, so line 0 wins the first arbitration, the
        // pointer advances, and the two streams alternate head-for-head.
        let mut net = Omega::new(16, &cfg(4));
        let mut sink = RecSink::default();
        for i in 0..2u64 {
            assert!(net.try_inject(0, pkt(0, 1, 100 + i)));
            assert!(net.try_inject(4, pkt(0, 1, 200 + i)));
        }
        run_until_idle(&mut net, &mut sink, 100);
        let addrs: Vec<u64> = sink
            .delivered
            .iter()
            .map(|(_, p)| match p.payload {
                Payload::Request(r) => r.addr,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(addrs, vec![100, 200, 101, 201]);
        assert!(net.stats().arbitration_losses > 0);
    }

    #[test]
    fn stats_account_words() {
        let mut net = Omega::new(16, &cfg(4));
        let mut sink = RecSink::default();
        net.try_inject(2, pkt(11, 3, 0));
        run_until_idle(&mut net, &mut sink, 50);
        let s = net.stats();
        assert_eq!(s.packets_injected, 1);
        assert_eq!(s.packets_delivered, 1);
        // 3 words × (inject + 2 stages) hops.
        assert_eq!(s.words_moved, 9);
    }

    #[test]
    fn doomed_packets_traverse_but_evaporate() {
        // drop_ppm = 1_000_000: every injection is doomed. The packet
        // still consumes an injector slot and link bandwidth but never
        // reaches the sink, and conservation closes through `drops`.
        let mut net = Omega::new(16, &cfg(4));
        net.enable_faults(7, 0xF0, 1_000_000, 0);
        let mut sink = RecSink {
            refuse: true, // a doomed packet must never consult the sink
            ..Default::default()
        };
        assert!(net.try_inject(2, pkt(11, 3, 0)));
        run_until_idle(&mut net, &mut sink, 50);
        let s = net.stats();
        assert_eq!(s.packets_injected, 1);
        assert_eq!(s.drops, 1);
        assert_eq!(s.packets_delivered, 0);
        assert!(sink.delivered.is_empty());
        assert_eq!(net.in_flight_packets(), 0);
        // Bandwidth was spent exactly as for a delivered packet.
        assert_eq!(s.words_moved, 9);
    }

    #[test]
    fn nacked_requests_arrive_flagged() {
        // nack_ppm = 1_000_000 with no drops: every request arrives but
        // carries the corruption flag for the module to bounce.
        let mut net = Omega::new(16, &cfg(4));
        net.enable_faults(7, 0xF0, 0, 1_000_000);
        let mut sink = RecSink::default();
        assert!(net.try_inject(2, pkt(11, 1, 42)));
        run_until_idle(&mut net, &mut sink, 50);
        assert_eq!(net.stats().nacks, 1);
        assert_eq!(sink.delivered.len(), 1);
        match sink.delivered[0].1.payload {
            Payload::Request(r) => assert!(r.nacked),
            _ => unreachable!(),
        }
    }

    #[test]
    fn downed_port_refuses_until_restored() {
        let mut net = Omega::new(16, &cfg(4));
        net.enable_faults(7, 0xF0, 0, 0);
        net.set_port_down(3, true);
        assert_eq!(net.injector_free(3), 0);
        assert!(!net.try_inject(3, pkt(8, 1, 0)));
        assert_eq!(net.stats().link_blocked, 1);
        // Other ports are unaffected.
        assert!(net.try_inject(4, pkt(8, 1, 0)));
        net.set_port_down(3, false);
        assert!(net.try_inject(3, pkt(8, 1, 0)));
        assert_eq!(net.injector_free(3), 1);
    }

    #[test]
    fn zero_rate_faults_change_nothing() {
        // An installed-but-all-zero fault config must behave exactly like
        // a fault-free network.
        let mut plain = Omega::new(16, &cfg(4));
        let mut faulty = Omega::new(16, &cfg(4));
        faulty.enable_faults(99, 0xF0, 0, 0);
        for net in [&mut plain, &mut faulty] {
            let mut sink = RecSink::default();
            for src in 0..16 {
                assert!(net.try_inject(src, pkt(0, 2, src as u64)));
            }
            run_until_idle(net, &mut sink, 500);
            assert_eq!(sink.delivered.len(), 16);
        }
        assert_eq!(plain.stats(), faulty.stats());
    }
}
