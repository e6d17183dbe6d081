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

use crate::config::NetworkConfig;
use crate::monitor::Histogrammer;
use crate::network::packet::{Packet, Payload};
use crate::time::Cycle;
use crate::trace::{NetTrace, TraceEvent};

/// Index of a packet in the in-flight slab.
type PacketId = u32;

/// Sentinel for "no entry" in the slab free list.
const NO_PACKET: PacketId = PacketId::MAX;

/// Sentinel in [`Omega::front_out`] for a line with an empty queue.
const NO_FRONT: u8 = u8::MAX;

/// Sentinel in [`Omega::locks`] for an unlocked output.
const NO_LOCK: u32 = u32::MAX;

/// One 64-bit word in flight.
#[derive(Debug, Clone, Copy, Default)]
struct Flit {
    pkt: PacketId,
    is_head: bool,
    is_tail: bool,
    /// For head words: the output subport at the stage this word currently
    /// queues at (precomputed so arbitration needs no packet lookup).
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
/// sizes the flow path's stack snapshots of the per-stage counters).
const MAX_STAGES: usize = 16;

/// Largest switch radix: arbitration keeps one `u16` requester mask per
/// output on the stack.
const MAX_RADIX: usize = 16;

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
    if stages > MAX_STAGES {
        return Err(format!(
            "{ports} network ports need {stages} radix-{} stages; at most {MAX_STAGES} are supported",
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
    fn front(&self) -> Option<(PacketId, u8)> {
        if self.len == 0 {
            None
        } else {
            Some(self.slots[usize::from(self.head)])
        }
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

/// A chunked bitmask over network lines, iterated in ascending order (the
/// deterministic port order every scan in this module follows).
#[derive(Debug, Clone, Default)]
struct LineMask {
    words: Vec<u64>,
}

impl LineMask {
    fn new(lines: usize) -> LineMask {
        LineMask {
            words: vec![0; lines.div_ceil(64)],
        }
    }

    #[inline]
    fn set(&mut self, line: usize) {
        self.words[line / 64] |= 1 << (line % 64);
    }

    #[inline]
    fn clear(&mut self, line: usize) {
        self.words[line / 64] &= !(1 << (line % 64));
    }

    #[inline]
    fn chunks(&self) -> usize {
        self.words.len()
    }

    #[inline]
    fn chunk(&self, w: usize) -> u64 {
        self.words[w]
    }
}

/// Per-port reassembly of ejected words into packets.
#[derive(Debug, Default)]
struct Assembler {
    accepted: bool, // head word accepted by the sink
}

/// The per-tick charge of a fully-stalled flow-path tick: every queued
/// stream is blocked (a saturated tree, or a sink refusing its heads), so
/// the tick's only effect is a fixed set of stat increments. While the
/// network is untouched from outside and the sink's acceptance epoch is
/// unchanged, each further tick repeats exactly this charge — so the flow
/// path replays it in O(1) instead of re-sweeping every switch.
#[derive(Debug, Clone)]
struct StallCharge {
    /// Sink acceptance epoch the charge was recorded under (see
    /// [`Omega::tick_epoch`]).
    epoch: u64,
    blocked: u64,
    losses: u64,
    stage_blocked: [u64; MAX_STAGES],
    stage_conflicts: [u64; MAX_STAGES],
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
    /// Stage-queue flit storage, flattened: the ring of `stage * size +
    /// line` occupies `queue_cap` contiguous slots starting at
    /// `(stage * size + line) * queue_cap`. Sizing rings by the configured
    /// capacity (4 words on Cedar) instead of the [`RING_CAP`] ceiling
    /// keeps the whole queue state inside a few KB of cache; the simulator
    /// ticks these queues hundreds of millions of times.
    qbuf: Vec<Flit>,
    /// Ring head slot per `stage * size + line`.
    qhead: Vec<u8>,
    /// Ring occupancy per `stage * size + line`.
    qlen: Vec<u8>,
    /// `locks[stage * size + out_line]`: input line currently owning this
    /// output, [`NO_LOCK`] when free (flat, like `locked_to` — the
    /// per-stage nesting would cost a pointer chase on every arbitration;
    /// sentinel-coded so arbitration compares plain integers).
    locks: Vec<u32>,
    /// Reverse map: `locked_to[stage * size + in_line]` = output subport the
    /// input's in-flight packet owns (body words route through it),
    /// [`NO_FRONT`] when the input holds no lock.
    locked_to: Vec<u8>,
    /// Round-robin arbitration pointer per `stage * size + out_line`.
    rr: Vec<u8>,
    injectors: Vec<Injector>,
    pending_injections: usize,
    /// Ports whose injectors hold packets (ascending-order scan mask).
    inject_ports: LineMask,
    assemblers: Vec<Assembler>,
    /// In-flight packet slab with an intrusive LIFO free list.
    slab: Vec<Slot>,
    free_head: PacketId,
    in_flight: usize,
    stats: NetStats,
    /// Words currently queued at each stage; lets the tick skip whole
    /// stages with nothing to move.
    stage_words: [u32; MAX_STAGES],
    /// Words queued per `stage * switches + switch`; lets the per-stage
    /// sweep visit only switches that actually hold words.
    switch_words: Vec<u16>,
    /// Output subport the front word of `stage * size + line` wants
    /// ([`NO_FRONT`] when the queue is empty). A flat byte per line, so a
    /// switch arbitrates from one contiguous read instead of touching
    /// `radix` separate queue rings.
    front_out: Vec<u8>,
    /// `shuffle_tab[line]`: the perfect shuffle of `line`, precomputed so
    /// the per-word hop does no division by the (non-constant) radix.
    shuffle_tab: Vec<u32>,
    /// `route_tab[stage * size + dst]`: routing digit consumed at `stage`
    /// for destination `dst`.
    route_tab: Vec<u8>,
    /// `sw_of[line]`: the switch owning `line` within a stage
    /// (`line / radix`, precomputed).
    sw_of: Vec<u16>,
    /// `sub_of[line]`: the subport of `line` within its switch
    /// (`line % radix`, precomputed — the radix is not a compile-time
    /// constant, so a plain `%` would cost a hardware divide on every
    /// word move).
    sub_of: Vec<u8>,
    /// Per stage, a bitmask of switches holding words (chunked like
    /// [`LineMask`]): `switch_busy[stage * mask_chunks + sw/64]`. The
    /// sweep iterates set bits instead of scanning every switch's count.
    switch_busy: Vec<u64>,
    /// Chunks per stage in [`Omega::switch_busy`].
    mask_chunks: usize,
    /// Arbitration losses per switch stage.
    stage_conflicts: [u64; MAX_STAGES],
    /// Flow-control blocks per switch stage (injection blocks count
    /// against stage 0, whose queues they contend for).
    stage_blocked: [u64; MAX_STAGES],
    /// Distribution of stage-queue depths observed after each word push.
    queue_depth: Histogrammer,
    /// Off (every [`Omega::new`] network): streams advance through the
    /// flow path's SWAR sparse sweep and fully-stalled horizons replay
    /// their cached per-tick stall charge in O(1). On (only
    /// [`Omega::new_reference`]): the dense per-flit sweep runs instead,
    /// the differential reference the tests hold the flow path to. Both
    /// produce bit-for-bit identical state, stats and delivery schedules.
    reference: bool,
    /// Cached stall signature of the previous flow-path tick: `Some` when
    /// that tick charged blocks/losses but moved nothing, in which case an
    /// unchanged network replays the same charge without re-sweeping.
    stall: Option<StallCharge>,
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
    /// radix, queue depth or stage count the fixed-size switch state
    /// cannot hold).
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
        let shuffle_tab = (0..size)
            .map(|line| ((line * cfg.radix) % size + (line * cfg.radix) / size) as u32)
            .collect();
        let mut route_tab = vec![0u8; stages * size];
        for stage in 0..stages {
            for dst in 0..size {
                let mut d = dst;
                for _ in 0..(stages - 1 - stage) {
                    d /= cfg.radix;
                }
                route_tab[stage * size + dst] = (d % cfg.radix) as u8;
            }
        }
        let sw_of = (0..size).map(|line| (line / cfg.radix) as u16).collect();
        let sub_of = (0..size).map(|line| (line % cfg.radix) as u8).collect();
        let mask_chunks = (size / cfg.radix).div_ceil(64);
        Omega {
            radix: cfg.radix,
            stages,
            size,
            queue_cap,
            words_per_cycle: cfg.words_per_cycle,
            injector_cap,
            qbuf: vec![Flit::default(); stages * size * queue_cap],
            qhead: vec![0; stages * size],
            qlen: vec![0; stages * size],
            locks: vec![NO_LOCK; stages * size],
            locked_to: vec![NO_FRONT; stages * size],
            rr: vec![0; stages * size],
            injectors: vec![Injector::default(); size],
            pending_injections: 0,
            inject_ports: LineMask::new(size),
            assemblers: (0..size).map(|_| Assembler::default()).collect(),
            slab: Vec::new(),
            free_head: NO_PACKET,
            in_flight: 0,
            stats: NetStats::default(),
            stage_words: [0; MAX_STAGES],
            switch_words: vec![0; stages * (size / cfg.radix)],
            front_out: vec![NO_FRONT; stages * size],
            shuffle_tab,
            route_tab,
            sw_of,
            sub_of,
            switch_busy: vec![0; stages * mask_chunks],
            mask_chunks,
            stage_conflicts: [0; MAX_STAGES],
            stage_blocked: [0; MAX_STAGES],
            queue_depth: Histogrammer::with_bins(RING_CAP + 1),
            reference: false,
            stall: None,
            stall_replays: 0,
            faults: None,
            trace: None,
        }
    }

    /// A network that runs the dense per-flit sweep on every tick instead
    /// of the flow path: the reference the equivalence tests compare the
    /// flow path against (see `Machine::new_reference`). Not a production
    /// mode.
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

    /// Trace id and issuing CE of a live in-flight packet.
    #[inline]
    fn slab_trace(&self, id: PacketId) -> (u64, u16) {
        match &self.slab[id as usize] {
            Slot::Live(pkt) => pkt_trace(pkt),
            Slot::Free { .. } => unreachable!("queued flit has live packet"),
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

    /// Whether the packet in slab slot `id` was marked for transient drop
    /// at injection.
    #[inline]
    fn doomed(&self, id: PacketId) -> bool {
        match &self.faults {
            Some(f) => f.doom.get(id as usize).copied().unwrap_or(false),
            None => false,
        }
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
        let mut packet = packet;
        let mut doom = false;
        if let Some(f) = self.faults.as_deref_mut() {
            if f.drop_ppm + f.nack_ppm > 0 {
                let n = f.inj_seq[port];
                f.inj_seq[port] += 1;
                let r = crate::fault::mix(f.seed, f.salt ^ port as u64, n) % 1_000_000;
                if r < f.drop_ppm {
                    doom = true;
                    self.stats.drops += 1;
                } else if r < f.drop_ppm + f.nack_ppm {
                    if let crate::network::packet::Payload::Request(req) = &mut packet.payload {
                        req.nacked = true;
                        self.stats.nacks += 1;
                    }
                }
            }
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
            // Slab slots are reused, so the doom bit is (re)written on
            // every allocation, not just when set.
            if f.doom.len() <= id as usize {
                f.doom.resize(id as usize + 1, false);
            }
            f.doom[id as usize] = doom;
        }
        self.injectors[port].push_back((id, words));
        self.inject_ports.set(port);
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
    /// stream stalled behind flow control or a refusing sink — caches its
    /// stat charge, and subsequent ticks at the same epoch with no
    /// intervening injection or fault event replay it in O(1) instead of
    /// re-arbitrating every switch. The replayed charge is exactly what
    /// the reference sweep would have recomputed, bit for bit.
    pub fn tick_epoch<S: NetSink + ?Sized>(&mut self, sink: &mut S, epoch: u64) {
        if self.in_flight == 0 {
            return; // nothing anywhere in the network
        }
        if self.reference {
            self.sweep(sink);
            return;
        }
        if let Some(c) = &self.stall {
            if c.epoch == epoch {
                // The previous tick moved nothing and nothing has changed
                // since: this tick charges the identical stall deltas and
                // again moves nothing.
                self.stats.blocked_moves += c.blocked;
                self.stats.arbitration_losses += c.losses;
                for s in 0..self.stages {
                    self.stage_blocked[s] += c.stage_blocked[s];
                    self.stage_conflicts[s] += c.stage_conflicts[s];
                }
                self.stall_replays += 1;
                return;
            }
            // Sink state moved on: the cached charge is stale.
            self.stall = None;
        }
        let moved0 = self.stats.words_moved;
        let blocked0 = self.stats.blocked_moves;
        let losses0 = self.stats.arbitration_losses;
        let sb0 = self.stage_blocked;
        let sc0 = self.stage_conflicts;
        self.sweep(sink);
        if self.stats.words_moved == moved0 {
            // Nothing moved, so nothing in the network changed: queues,
            // locks, round-robin pointers and assemblers are untouched
            // (only stat charges were made). Cache the tick's exact charge
            // for O(1) replay while the stall horizon lasts.
            self.stall = Some(StallCharge {
                epoch,
                blocked: self.stats.blocked_moves - blocked0,
                losses: self.stats.arbitration_losses - losses0,
                stage_blocked: std::array::from_fn(|s| self.stage_blocked[s] - sb0[s]),
                stage_conflicts: std::array::from_fn(|s| self.stage_conflicts[s] - sc0[s]),
            });
        }
    }

    /// One full cycle of the per-flit sweep: up to `words_per_cycle`
    /// passes, then injection. Shared by the reference and the flow
    /// path's non-stalled ticks (the flow path differs per switch, not in
    /// the pass structure).
    fn sweep<S: NetSink + ?Sized>(&mut self, sink: &mut S) {
        for _ in 0..self.words_per_cycle {
            // A pass that neither moved a word nor charged a block or an
            // arbitration loss left the network untouched, so every further
            // pass this cycle would be an identical no-op.
            let before =
                self.stats.words_moved + self.stats.blocked_moves + self.stats.arbitration_losses;
            self.move_words_once(sink);
            let after =
                self.stats.words_moved + self.stats.blocked_moves + self.stats.arbitration_losses;
            if after == before {
                break;
            }
        }
        self.inject_words();
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
        let slot = std::mem::replace(
            &mut self.slab[id as usize],
            Slot::Free {
                next: self.free_head,
            },
        );
        self.free_head = id;
        match slot {
            Slot::Live(pkt) => pkt,
            Slot::Free { .. } => unreachable!("released packet must be live"),
        }
    }

    /// Destination of a live in-flight packet.
    #[inline]
    fn packet_dst(&self, id: PacketId) -> usize {
        match &self.slab[id as usize] {
            Slot::Live(pkt) => pkt.dst,
            Slot::Free { .. } => unreachable!("queued flit has live packet"),
        }
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
    fn route_digit(&self, dst: usize, stage: usize) -> usize {
        usize::from(self.route_tab[stage * self.size + dst])
    }

    /// Front flit of queue `idx` (`stage * size + line`); the queue must
    /// be non-empty.
    #[inline]
    fn q_front(&self, idx: usize) -> Flit {
        debug_assert!(self.qlen[idx] > 0, "front of an empty queue");
        self.qbuf[idx * self.queue_cap + usize::from(self.qhead[idx])]
    }

    /// Drop the front word of queue `idx` without re-reading it (the
    /// caller already holds a copy from [`Omega::q_front`]).
    #[inline]
    fn q_advance(&mut self, idx: usize) {
        debug_assert!(self.qlen[idx] > 0);
        let h = usize::from(self.qhead[idx]) + 1;
        self.qhead[idx] = if h == self.queue_cap { 0 } else { h as u8 };
        self.qlen[idx] -= 1;
    }

    /// Append `f` to queue `idx`, returning the new depth.
    #[inline]
    fn q_push(&mut self, idx: usize, f: Flit) -> usize {
        let len = usize::from(self.qlen[idx]);
        debug_assert!(len < self.queue_cap, "ring overflow");
        let mut slot = usize::from(self.qhead[idx]) + len;
        if slot >= self.queue_cap {
            slot -= self.queue_cap;
        }
        self.qbuf[idx * self.queue_cap + slot] = f;
        self.qlen[idx] = (len + 1) as u8;
        len + 1
    }

    /// Recompute the cached output subport of the front word on
    /// `stage`'s `line` after a queue push/pop changed the front.
    #[inline]
    fn refresh_front(&mut self, stage: usize, line: usize) {
        let idx = stage * self.size + line;
        self.front_out[idx] = if self.qlen[idx] == 0 {
            NO_FRONT
        } else {
            let f = self.q_front(idx);
            if f.is_head {
                f.route
            } else {
                // A body word at the front implies its head already moved
                // through this stage and left the output lock behind.
                debug_assert_ne!(self.locked_to[idx], NO_FRONT);
                self.locked_to[idx]
            }
        };
    }

    /// Note a word arriving at `sw` of `stage` (count + busy-mask upkeep).
    #[inline]
    fn add_switch_word(&mut self, stage: usize, sw: usize) {
        self.switch_words[stage * (self.size / self.radix) + sw] += 1;
        self.switch_busy[stage * self.mask_chunks + sw / 64] |= 1 << (sw % 64);
    }

    /// Note a word leaving `sw` of `stage`, clearing its busy bit on the
    /// last word out.
    #[inline]
    fn sub_switch_word(&mut self, stage: usize, sw: usize) {
        let idx = stage * (self.size / self.radix) + sw;
        self.switch_words[idx] -= 1;
        if self.switch_words[idx] == 0 {
            self.switch_busy[stage * self.mask_chunks + sw / 64] &= !(1 << (sw % 64));
        }
    }

    fn move_words_once<S: NetSink + ?Sized>(&mut self, sink: &mut S) {
        // The flow path's SWAR sweep reads a switch's cached fronts as one
        // word; it needs the full radix-8 byte lane. Other radices run the
        // (identical) dense per-line scan.
        let swar = !self.reference && self.radix == 8;
        for stage in (0..self.stages).rev() {
            if self.stage_words[stage] == 0 {
                continue; // no queued words anywhere in this stage
            }
            // Visit only switches holding words, in ascending order (the
            // same order as a dense scan): an empty switch's sweep is a
            // guaranteed no-op, and on a sparse cycle (the common case)
            // nearly every switch is empty. The chunk snapshot is safe:
            // ticking a switch can only move words downstream, so it never
            // changes another same-stage switch's occupancy.
            for c in 0..self.mask_chunks {
                let mut bits = self.switch_busy[stage * self.mask_chunks + c];
                while bits != 0 {
                    let sw = c * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if swar {
                        self.tick_switch_flow8(stage, sw, sink);
                    } else {
                        self.tick_switch(stage, sw, sink);
                    }
                }
            }
        }
    }

    /// Advance one switch: read the cached input fronts (one contiguous
    /// byte per line), collecting the output each movable word wants; then
    /// serve each requested output (lock owner first, else round-robin
    /// among competing head words).
    fn tick_switch<S: NetSink + ?Sized>(&mut self, stage: usize, sw: usize, sink: &mut S) {
        debug_assert!(self.radix <= MAX_RADIX);
        let base = sw * self.radix;
        let qbase = stage * self.size + base;
        // For each output subport, the input subports requesting it, plus
        // the set of outputs requested at all.
        let mut requested = [0u16; MAX_RADIX];
        let mut outs: u32 = 0;
        for (i, &out) in self.front_out[qbase..qbase + self.radix].iter().enumerate() {
            if out != NO_FRONT {
                requested[usize::from(out)] |= 1 << i;
                outs |= 1 << u32::from(out);
            }
        }
        // Ascending subport order, skipping unrequested outputs — the same
        // visit order as a dense 0..radix loop.
        while outs != 0 {
            let subport = outs.trailing_zeros() as usize;
            outs &= outs - 1;
            let req = requested[subport];
            let out_line = base + subport;
            let owner = self.locks[stage * self.size + out_line];
            let src_line = if owner != NO_LOCK {
                // Only the lock owner may use this output; competing head
                // words wait (no arbitration happened, so no losses are
                // charged).
                if req & (1 << (owner as usize - base)) == 0 {
                    continue;
                }
                owner as usize
            } else {
                // Round-robin: first requesting input at or cyclically
                // after `start` wins; every other requester loses.
                let start = usize::from(self.rr[stage * self.size + out_line]);
                let rot = ((u32::from(req) >> start) | (u32::from(req) << (self.radix - start)))
                    & ((1u32 << self.radix) - 1);
                let first = rot.trailing_zeros() as usize;
                let losers = u64::from(req.count_ones()) - 1;
                self.stats.arbitration_losses += losers;
                self.stage_conflicts[stage] += losers;
                base + (start + first) % self.radix
            };
            self.move_from(stage, out_line, src_line, sink);
        }
    }

    /// The flow path's radix-8 switch sweep: read all eight cached input
    /// fronts as one little-endian word and operate on the live lanes
    /// only. Route subports are 0..8 and the empty sentinel is `0xFF`, so
    /// "live" is exactly "high bit clear" — one mask, no per-byte
    /// comparisons. Visit order (ascending line, then ascending output
    /// subport) and every arbitration rule match [`Omega::tick_switch`]
    /// bit for bit; only the scan is restructured.
    fn tick_switch_flow8<S: NetSink + ?Sized>(&mut self, stage: usize, sw: usize, sink: &mut S) {
        const HI: u64 = 0x8080_8080_8080_8080;
        let base = sw * 8;
        let qbase = stage * self.size + base;
        let fronts = u64::from_le_bytes(
            self.front_out[qbase..qbase + 8]
                .try_into()
                .expect("eight front bytes per radix-8 switch"),
        );
        let mut live = !fronts & HI; // high bit per line with a queued word
        debug_assert_ne!(live, 0, "switch_words said this switch holds words");
        if live & (live - 1) == 0 {
            // One requesting line: it wins any arbitration unopposed (no
            // losses, no round-robin movement), and a held lock either
            // belongs to it or excludes it.
            let i = (live.trailing_zeros() >> 3) as usize;
            let out = usize::from((fronts >> (i * 8)) as u8);
            let out_line = base + out;
            let owner = self.locks[stage * self.size + out_line];
            if owner == NO_LOCK || owner as usize == base + i {
                self.move_from(stage, out_line, base + i, sink);
            }
            return;
        }
        // Several live lines: group them by requested output, then serve
        // each output exactly as the dense sweep does.
        let mut requested = [0u16; 8];
        let mut outs: u32 = 0;
        while live != 0 {
            let i = (live.trailing_zeros() >> 3) as usize;
            live &= live - 1;
            let out = usize::from((fronts >> (i * 8)) as u8);
            requested[out] |= 1 << i;
            outs |= 1 << out;
        }
        while outs != 0 {
            let subport = outs.trailing_zeros() as usize;
            outs &= outs - 1;
            let req = requested[subport];
            let out_line = base + subport;
            let owner = self.locks[stage * self.size + out_line];
            let src_line = if owner != NO_LOCK {
                if req & (1 << (owner as usize - base)) == 0 {
                    continue;
                }
                owner as usize
            } else {
                let start = usize::from(self.rr[stage * self.size + out_line]);
                let rot = ((u32::from(req) >> start) | (u32::from(req) << (8 - start)))
                    & ((1u32 << 8) - 1);
                let first = rot.trailing_zeros() as usize;
                let losers = u64::from(req.count_ones()) - 1;
                self.stats.arbitration_losses += losers;
                self.stage_conflicts[stage] += losers;
                base + (start + first) % 8
            };
            self.move_from(stage, out_line, src_line, sink);
        }
    }

    /// Move the front word of `src_line` through `stage` to `out_line`.
    /// Inlined into both switch sweeps: the callers already hold the
    /// stage-relative indices this recomputes, and the call sits on the
    /// per-word hot edge.
    #[inline]
    fn move_from<S: NetSink + ?Sized>(
        &mut self,
        stage: usize,
        out_line: usize,
        src_line: usize,
        sink: &mut S,
    ) {
        let src_idx = stage * self.size + src_line;
        let flit = self.q_front(src_idx);

        // Check downstream space (next stage queue, or sink acceptance).
        // A doomed packet never consults the sink: it occupies links and
        // queues like any other packet but evaporates instead of ejecting.
        let last = stage == self.stages - 1;
        if last {
            if flit.is_head
                && !self.doomed(flit.pkt)
                && !self.assemblers[out_line].accepted
                && !sink.try_begin(out_line)
            {
                self.stats.blocked_moves += 1;
                self.stage_blocked[stage] += 1;
                return;
            }
        } else {
            let next_line = self.shuffle(out_line);
            if usize::from(self.qlen[(stage + 1) * self.size + next_line]) >= self.queue_cap {
                self.stats.blocked_moves += 1;
                self.stage_blocked[stage] += 1;
                return;
            }
        }

        // Commit the move (`flit` already holds the front word).
        self.q_advance(src_idx);
        self.stage_words[stage] -= 1;
        self.sub_switch_word(stage, usize::from(self.sw_of[src_line]));
        self.stats.words_moved += 1;
        if flit.is_tail {
            self.locks[stage * self.size + out_line] = NO_LOCK;
            self.locked_to[stage * self.size + src_line] = NO_FRONT;
        } else {
            self.locks[stage * self.size + out_line] = src_line as u32;
            self.locked_to[stage * self.size + src_line] = self.sub_of[out_line];
        }
        if flit.is_head {
            // Advance round-robin past the winner for fairness
            // (`sub + 1`, wrapping at the radix).
            let sub = self.sub_of[src_line] + 1;
            self.rr[stage * self.size + out_line] = if usize::from(sub) == self.radix {
                0
            } else {
                sub
            };
        }
        // The pop (and lock update, which a newly exposed body word reads)
        // changed this line's front.
        self.refresh_front(stage, src_line);
        if last {
            let doomed = self.doomed(flit.pkt);
            let asm = &mut self.assemblers[out_line];
            if flit.is_head {
                asm.accepted = true;
            }
            if flit.is_tail {
                asm.accepted = false;
                let pkt = self.release(flit.pkt);
                if !doomed {
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
            if flit.is_head {
                let dst = self.packet_dst(flit.pkt);
                flit.route = self.route_digit(dst, stage + 1) as u8;
                if self.trace.is_some() {
                    let (tid, ce) = self.slab_trace(flit.pkt);
                    if tid != 0 {
                        self.trace
                            .as_deref_mut()
                            .expect("checked above")
                            .stamp_stage(tid, ce, (stage + 1) as u8);
                    }
                }
            }
            let next_line = self.shuffle(out_line);
            let depth = self.q_push((stage + 1) * self.size + next_line, flit);
            self.stage_words[stage + 1] += 1;
            self.add_switch_word(stage + 1, usize::from(self.sw_of[next_line]));
            if depth == 1 {
                // The pushed word became the next stage's front.
                self.refresh_front(stage + 1, next_line);
            }
            self.queue_depth.record(depth);
        }
    }

    fn inject_words(&mut self) {
        if self.pending_injections == 0 {
            return;
        }
        // Scan only ports with queued injections, in ascending port order
        // (the same deterministic order the dense loop used).
        for w in 0..self.inject_ports.chunks() {
            let mut bits = self.inject_ports.chunk(w);
            while bits != 0 {
                let port = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (pkt, words) = self.injectors[port].front().expect("masked port has work");
                let line = self.shuffle(port);
                if usize::from(self.qlen[line]) >= self.queue_cap {
                    self.stats.blocked_moves += 1;
                    self.stage_blocked[0] += 1;
                    continue;
                }
                let sent = self.injectors[port].words_sent;
                let is_head = sent == 0;
                let route = if is_head {
                    self.route_digit(self.packet_dst(pkt), 0) as u8
                } else {
                    0
                };
                let flit = Flit {
                    pkt,
                    is_head,
                    is_tail: sent + 1 == words,
                    route,
                };
                if is_head && self.trace.is_some() {
                    let (tid, ce) = self.slab_trace(pkt);
                    if tid != 0 {
                        self.trace
                            .as_deref_mut()
                            .expect("checked above")
                            .stamp_stage(tid, ce, 0);
                    }
                }
                let depth = self.q_push(line, flit);
                self.stage_words[0] += 1;
                self.add_switch_word(0, usize::from(self.sw_of[line]));
                if depth == 1 {
                    // The injected word became this line's front.
                    self.refresh_front(0, line);
                }
                self.queue_depth.record(depth);
                self.stats.words_moved += 1;
                let inj = &mut self.injectors[port];
                inj.words_sent += 1;
                if inj.words_sent == words {
                    inj.pop_front();
                    inj.words_sent = 0;
                    self.pending_injections -= 1;
                    if inj.len == 0 {
                        self.inject_ports.clear(port);
                    }
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

// Config-derived tables (shuffle, routing, switch/subport maps) are
// rebuilt by `Omega::new`, and the occupancy indexes and the stall cache
// from the restored queues (`Omega::rebuild_indexes`). The in-flight
// packet slab comes first: queued flits reference its ids.
snapshot_state! {
    impl Omega as this {
        tag: b"OMGA",
        saved: [
            slab, free_head, qlen: Fixed, [qhead, qbuf]: QueuedFlits, locks: Fixed,
            locked_to: Fixed, rr: Fixed, injectors: Exact(Nested), assemblers: Exact(Nested),
            stats, stage_conflicts: Prefix(this.stages), stage_blocked: Prefix(this.stages),
            queue_depth, stall_replays, faults: Present("network fault injection"),
            trace: Present("network tracing"),
        ],
        derived: [
            radix, stages, size, queue_cap, words_per_cycle, injector_cap, pending_injections,
            inject_ports, in_flight, stage_words, switch_words, front_out, shuffle_tab, route_tab,
            sw_of, sub_of, switch_busy, mask_chunks, reference, stall,
        ],
        after_load: rebuild_indexes,
    }
}

/// The queued words of every stage queue, front to back in queue order,
/// behind the queue lengths (`qlen`). Restored queues start at slot 0:
/// the physical ring heads are not state.
struct QueuedFlits;

impl Field<Omega> for QueuedFlits {
    fn put(&self, o: &Omega, w: &mut SnapWriter) {
        let queued = (0..o.stages * o.size).flat_map(|idx| {
            (0..usize::from(o.qlen[idx])).map(move |j| {
                let mut slot = usize::from(o.qhead[idx]) + j;
                if slot >= o.queue_cap {
                    slot -= o.queue_cap;
                }
                o.qbuf[idx * o.queue_cap + slot]
            })
        });
        w.records(queued, |f| {
            RecordWriter::<FLIT_RECORD>::new()
                .u32(f.pkt)
                .u8(u8::from(f.is_head) | u8::from(f.is_tail) << 1)
                .u8(f.route)
                .done()
        });
    }

    fn load(&self, o: &mut Omega, r: &mut SnapReader) -> SnapResult<()> {
        if o.qlen.iter().any(|&n| usize::from(n) > o.queue_cap) {
            return Err(r.err_mismatch("stage queue deeper than its capacity"));
        }
        let slots = o.slab.len();
        let queued = r.records::<_, FLIT_RECORD>(|mut f| {
            let (pkt, flags, route) = (f.u32(), f.u8(), f.u8());
            if pkt as usize >= slots {
                return Err("queued flit references no slab slot");
            }
            if flags > 3 {
                return Err("invalid flit head/tail flags");
            }
            Ok(Flit {
                pkt,
                is_head: flags & 1 != 0,
                is_tail: flags & 2 != 0,
                route,
            })
        })?;
        if queued.len() != o.qlen.iter().map(|&n| usize::from(n)).sum::<usize>() {
            return Err(r.err_mismatch("queued flit count disagrees with the queue lengths"));
        }
        let mut queued = queued.into_iter();
        for idx in 0..o.stages * o.size {
            o.qhead[idx] = 0;
            let at = idx * o.queue_cap;
            let len = usize::from(o.qlen[idx]);
            for (slot, f) in o.qbuf[at..at + len].iter_mut().zip(&mut queued) {
                *slot = f;
            }
        }
        Ok(())
    }
}

impl Omega {
    /// Check the restored packet references against the slab, and rebuild
    /// the derived occupancy indexes (stage/switch word counts, busy
    /// masks, cached fronts, injection mask) from the restored queues
    /// rather than trusting them from the image. The stall cache is
    /// dropped: the next tick recomputes it bit-identically.
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
        self.in_flight = slots - free_links.count();
        self.pending_injections = self.injectors.iter().map(Injector::len).sum();
        self.inject_ports = LineMask::new(self.size);
        for port in 0..self.size {
            if self.injectors[port].len() > 0 {
                self.inject_ports.set(port);
            }
        }
        self.stage_words = [0; MAX_STAGES];
        self.switch_words.iter_mut().for_each(|v| *v = 0);
        self.switch_busy.iter_mut().for_each(|v| *v = 0);
        for stage in 0..self.stages {
            for line in 0..self.size {
                let idx = stage * self.size + line;
                let n = self.qlen[idx];
                self.stage_words[stage] += u32::from(n);
                for _ in 0..n {
                    self.add_switch_word(stage, usize::from(self.sw_of[line]));
                }
                self.refresh_front(stage, line);
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
                    rebuilt = rebuilt * radix + net.route_digit(dst, stage);
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
        // output subport 0. While body words remain, the flat `locks`/
        // `locked_to` entries must name the pairing; after the tail they
        // must clear, and `rr` must have advanced past the winner.
        let mut net = Omega::new(16, &cfg(4));
        let mut sink = RecSink::default();
        assert!(net.try_inject(0, pkt(0, 3, 7)));
        // Tick until the head has moved through stage 0 but the tail has
        // not (head hop happens on the tick after its injection).
        net.tick(&mut sink); // inject head
        net.tick(&mut sink); // head moves stage 0 -> stage 1; body injects
        assert_eq!(net.locks[0], 0, "output 0 of stage 0 locked to line 0");
        assert_eq!(net.locked_to[0], 0, "line 0 owns output subport 0");
        run_until_idle(&mut net, &mut sink, 50);
        assert_eq!(sink.delivered.len(), 1);
        // Tail passage released every lock in both stages.
        assert!(net.locks.iter().all(|&l| l == NO_LOCK));
        assert!(net.locked_to.iter().all(|&l| l == NO_FRONT));
        // Round-robin advanced past the winning input subport (0 -> 1) at
        // both stages' output 0.
        assert_eq!(net.rr[0], 1);
        assert_eq!(net.rr[net.size], 1);
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
