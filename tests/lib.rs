//! Shared helpers for the cross-crate integration tests.

use cedar_kernels::staged::rank64::{Rank64, Rank64Version};
use cedar_machine::config::NetworkConfig;
use cedar_machine::ids::CeId;
use cedar_machine::machine::Machine;
use cedar_machine::network::packet::{MemRequest, Packet, Payload, RequestKind, Stream};
use cedar_machine::network::{NetSink, Omega};
use cedar_machine::stats::export::{chrome_trace_with_journeys, flat_text};
use cedar_machine::time::Cycle;
use cedar_machine::{MachineConfig, MachineStats, RunReport, TracePlan};

/// Cycle budget for every equivalence run (never reached).
pub const LIMIT: u64 = 1_000_000_000;

/// A full Cedar, panicking on configuration errors (tests only).
pub fn cedar() -> Machine {
    Machine::cedar().expect("canonical Cedar configuration is valid")
}

/// The production machine for `cfg`, or (with `reference`) the
/// differential reference: tree-walking CEs and per-flit networks.
pub fn machine(cfg: MachineConfig, reference: bool) -> Machine {
    if reference {
        Machine::new_reference(cfg).expect("valid reference configuration")
    } else {
        Machine::new(cfg).expect("valid configuration")
    }
}

/// Everything a run can leak about its execution, plus how many stalled
/// network ticks the flow path settled by replay and how many cycles the
/// fast-forward jumped over (both always zero on the reference, whose
/// networks sweep every flit and whose run loop ticks every cycle).
pub struct Fingerprint {
    pub cycles: u64,
    pub memory: u64,
    pub stats: MachineStats,
    pub replays: u64,
    pub skipped: u64,
}

impl Fingerprint {
    /// The fingerprint of `m` after the run that produced `r`.
    pub fn of(m: &Machine, r: RunReport) -> Fingerprint {
        Fingerprint {
            cycles: r.cycles,
            memory: m.memory_digest(),
            stats: r.stats,
            replays: m.flow_stall_replays(),
            skipped: m.fastforward_skipped_cycles(),
        }
    }
}

/// Compare an engine run against the reference run, with a readable
/// counter diff on mismatch.
pub fn assert_matches_reference(label: &str, reference: &Fingerprint, engine: &Fingerprint) {
    assert_eq!(
        reference.skipped, 0,
        "{label}: the reference must tick every cycle"
    );
    assert_eq!(
        reference.cycles, engine.cycles,
        "{label}: engine took {} cycles, reference took {}",
        engine.cycles, reference.cycles
    );
    assert_eq!(
        reference.memory, engine.memory,
        "{label}: engine left different memory state"
    );
    if reference.stats != engine.stats {
        let base = flat_text(&reference.stats);
        let got = flat_text(&engine.stats);
        let diff: Vec<String> = base
            .lines()
            .zip(got.lines())
            .filter(|(a, b)| a != b)
            .map(|(a, b)| format!("  reference: {a}\n  engine:    {b}"))
            .collect();
        panic!(
            "{label}: engine stats tree differs from the reference:\n{}",
            diff.join("\n")
        );
    }
}

/// The Table 1 rank-64 update (n = k = 64) in `version` on every cluster
/// of `cfg`, on the production machine or the reference.
pub fn rank64_fingerprint(
    cfg: MachineConfig,
    version: Rank64Version,
    reference: bool,
) -> Fingerprint {
    let clusters = cfg.clusters;
    let mut m = machine(cfg, reference);
    let progs = Rank64 {
        n: 64,
        k: 64,
        version,
    }
    .build(&mut m, clusters);
    let r = m.run(progs, LIMIT).unwrap();
    Fingerprint::of(&m, r)
}

/// Journey hop timestamps survive the engine's bulk work exactly: with
/// every candidate sampled, the raw trace-event streams of the engine
/// and the reference are element-for-element identical on the rank-64
/// `version` over `clusters` clusters, and so is the full Chrome export
/// with journeys attached — no collapsed or reordered `TraceEvent`s.
pub fn assert_journeys_match_reference(clusters: usize, version: Rank64Version) {
    let run = |reference: bool| {
        let cfg = MachineConfig::cedar_with_clusters(clusters).with_trace(TracePlan {
            seed: 0xCEDA,
            sample_ppm: 1_000_000,
        });
        let mut m = machine(cfg, reference);
        let progs = Rank64 {
            n: 64,
            k: 64,
            version,
        }
        .build(&mut m, clusters);
        let r = m.run(progs, LIMIT).unwrap();
        (r.stats, m)
    };
    let (ref_stats, reference) = run(true);
    let (eng_stats, engine) = run(false);

    let base = reference.trace_events();
    let got = engine.trace_events();
    assert!(!base.is_empty(), "full sampling must catch journeys");
    assert_eq!(
        base.len(),
        got.len(),
        "{version:?}: trace event count drifted"
    );
    if let Some(i) = (0..base.len()).find(|&i| base[i] != got[i]) {
        panic!(
            "{version:?}: trace stream diverges at event {i}:\n  reference: {:?}\n  engine:    {:?}",
            base[i], got[i]
        );
    }
    let chrome = |m: &Machine, stats: &MachineStats| {
        chrome_trace_with_journeys(m.timeline(), stats, 170.0, &m.trace_journeys())
    };
    assert_eq!(
        chrome(&reference, &ref_stats),
        chrome(&engine, &eng_stats),
        "{version:?}: Chrome export with journeys drifted"
    );
}

/// Records each delivery with its arrival tick, refusing ports according
/// to a mask the traffic generator reseeds as the run progresses — the
/// worst case for the flow path's cached stall charges.
struct MaskedSink {
    refuse_mask: u64,
    now: u64,
    delivered: Vec<(u64, usize, u64, bool)>,
}

impl NetSink for MaskedSink {
    fn try_begin(&mut self, port: usize) -> bool {
        self.refuse_mask & (1 << (port % 64)) == 0
    }
    fn deliver(&mut self, port: usize, pkt: Packet) {
        let (addr, nacked) = match pkt.payload {
            Payload::Request(r) => (r.addr, r.nacked),
            _ => (u64::MAX, false),
        };
        self.delivered.push((self.now, port, addr, nacked));
    }
}

/// What [`run_random_traffic`] observed.
pub struct Traffic {
    /// Every delivery: tick, port, payload address and NACK flag.
    pub deliveries: Vec<(u64, usize, u64, bool)>,
    /// Every observable stat: the counter struct, per-stage conflict and
    /// blocked vectors, queue-depth histogram bins and in-flight count.
    pub fingerprint: String,
    /// Ticks the network settled by replaying a cached stall charge.
    pub replays: u64,
}

/// Drive `cycles` of seeded random traffic (bursty injection, variable
/// packet lengths, sink backpressure flipping every 7 cycles) through an
/// omega network — the per-flit reference with `reference`, else the
/// flow path. With `faults`, the network also drops and NACKs packets
/// at 3 % each and takes a random port down or back up every 11 cycles.
pub fn run_random_traffic(
    reference: bool,
    seed: u64,
    cycles: u64,
    ports: usize,
    cfg: &NetworkConfig,
    faults: bool,
) -> Traffic {
    let mut net = if reference {
        Omega::new_reference(ports, cfg)
    } else {
        Omega::new(ports, cfg)
    };
    if faults {
        net.enable_faults(seed, 0xFA17, 30_000, 30_000);
    }
    let size = net.size();
    let mut sink = MaskedSink {
        refuse_mask: 0,
        now: 0,
        delivered: Vec::new(),
    };
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut epoch = 0u64;
    for c in 0..cycles {
        sink.now = c;
        if c % 7 == 0 {
            // Sink acceptance changed: the epoch contract requires a bump
            // (injections invalidate the stall cache internally).
            sink.refuse_mask = next();
            epoch += 1;
        }
        if faults && c % 11 == 0 {
            let r = next();
            net.set_port_down((r >> 8) as usize % size, r & 1 == 0);
        }
        for _ in 0..3 {
            let r = next();
            if r % 100 < 60 {
                let port = (r >> 8) as usize % size;
                let dst = (r >> 20) as usize % size;
                let words = 1 + ((r >> 40) % 4) as u8;
                net.try_inject(
                    port,
                    Packet {
                        dst,
                        words,
                        payload: Payload::Request(MemRequest {
                            ce: CeId(0),
                            kind: RequestKind::Read,
                            addr: r,
                            stream: Stream::Scalar,
                            issued: Cycle(0),
                            seq: 0,
                            nacked: false,
                            trace: 0,
                        }),
                    },
                );
            }
        }
        net.tick_epoch(&mut sink, epoch);
    }
    Traffic {
        deliveries: sink.delivered,
        fingerprint: format!(
            "{:?} conflicts={:?} blocked={:?} depth={:?} in_flight={}",
            net.stats(),
            net.stage_conflicts(),
            net.stage_blocked(),
            net.queue_depth_histogram().bins(),
            net.in_flight_packets()
        ),
        replays: net.stall_replays(),
    }
}
