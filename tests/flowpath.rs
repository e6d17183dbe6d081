//! Equivalence battery for the flow-level network fast path.
//!
//! The flow path advances steady-state wormhole streams through the
//! omega networks of every `Machine::new` machine without the dense
//! per-flit bookkeeping: radix-8 switches arbitrate all eight outputs in
//! one SWAR pass, only busy switches are visited, and a tick in which
//! every stream is stalled replays its cached stat charge in O(1)
//! instead of re-walking every queue. Its contract is *bit-for-bit*
//! equivalence with the per-flit sweep, kept as the reference that
//! `Omega::new_reference` and `Machine::new_reference` build: the same
//! cycle count, the same memory digest, the same full stats registry —
//! including the `net.*` counter and histogram trees, per-stage
//! conflict/blocked vectors and queue-depth bins — at every thread
//! count, against the reference's every-cycle ticking, under fault
//! injection, and under journey tracing.
//!
//! `lower.rs` holds the whole engine to the whole reference at four
//! clusters; these tests cover the network-bound rows at one to three
//! clusters, the direct-load traffic the network sees most of, and a
//! synthetic full-stall scenario that proves the replay path actually
//! runs. The randomized cross-check against the reference on arbitrary
//! traffic lives in `properties.rs`.

use cedar_integration::{
    assert_journeys_match_reference, assert_matches_reference, machine, rank64_fingerprint,
    Fingerprint, LIMIT,
};
use cedar_kernels::staged::rank64::Rank64Version;
use cedar_machine::config::NetworkConfig;
use cedar_machine::ids::CeId;
use cedar_machine::memory::sync::SyncInstr;
use cedar_machine::network::packet::{MemRequest, Packet, Payload, RequestKind, Stream};
use cedar_machine::network::{NetSink, Omega};
use cedar_machine::program::{AddressExpr, Op, ProgramBuilder};
use cedar_machine::time::Cycle;
use cedar_machine::{FaultPlan, MachineConfig, TracePlan};

/// The two network-bound Table 1 rows at two and three clusters —
/// where the omega load differs from the four-cluster rows `lower.rs`
/// covers — produce the reference's fingerprint on two lanes
/// (`lower.rs` covers one thread, and the cache-bound row).
#[test]
fn table1_rows_match_with_flow_path_on() {
    for version in [
        Rank64Version::GmNoPrefetch,
        Rank64Version::GmPrefetch { block_words: 32 },
    ] {
        for clusters in 2..=3 {
            let cfg = MachineConfig::cedar_with_clusters(clusters);
            let base = rank64_fingerprint(cfg.clone(), version, true);
            assert_eq!(base.replays, 0, "the reference must not replay");
            let got = rank64_fingerprint(cfg.with_threads(2), version, false);
            assert_matches_reference(
                &format!("table1 {version:?} {clusters} clusters x2 threads"),
                &base,
                &got,
            );
        }
    }
}

/// The equivalence survives fault injection: drops evaporate and NACKs
/// bounce the same packets whether the sweep is per-flit or flow-level,
/// so the fault-site sequence counters stay aligned.
#[test]
fn flow_path_matches_oracle_under_fault_injection() {
    let cfg = MachineConfig::cedar_with_clusters(4).with_faults(FaultPlan {
        drop_per_million: 2_000,
        nack_per_million: 1_000,
        ..FaultPlan::none(0xCEDA)
    });
    let version = Rank64Version::GmNoPrefetch;
    let base = rank64_fingerprint(cfg.clone(), version, true);
    for threads in [1, 4] {
        let got = rank64_fingerprint(cfg.clone().with_threads(threads), version, false);
        assert_matches_reference(&format!("faulty rank64 x{threads} threads"), &base, &got);
    }
}

/// The equivalence survives journey tracing at CI's sampling rate and at
/// an explicit rate of zero: `trace.*` keys join the registry (and hence
/// the fingerprint), so every hop stamp the flow path records must equal
/// the per-flit schedule.
#[test]
fn flow_path_matches_oracle_under_tracing() {
    let version = Rank64Version::GmNoPrefetch;
    for sample_ppm in [0, 10_000] {
        let cfg = MachineConfig::cedar_with_clusters(4).with_trace(TracePlan {
            seed: 0xCEDA,
            sample_ppm,
        });
        let base = rank64_fingerprint(cfg.clone(), version, true);
        for threads in [1, 4] {
            let got = rank64_fingerprint(cfg.clone().with_threads(threads), version, false);
            assert_matches_reference(
                &format!("traced rank64 ppm={sample_ppm} x{threads} threads"),
                &base,
                &got,
            );
        }
    }
}

/// Journey hop timestamps inside bulk-advanced streams equal the
/// per-flit schedule exactly, on cache-line fills (`lower.rs` covers the
/// prefetch streams).
#[test]
fn journey_hop_stamps_survive_bulk_advance() {
    assert_journeys_match_reference(4, Rank64Version::GmCache);
}

/// A sink whose acceptance is an explicit mask, recording each delivery
/// with its arrival tick.
struct GateSink {
    accepting: bool,
    now: u64,
    delivered: Vec<(u64, usize, u64)>,
}

impl NetSink for GateSink {
    fn try_begin(&mut self, _port: usize) -> bool {
        self.accepting
    }
    fn deliver(&mut self, port: usize, p: Packet) {
        let addr = match p.payload {
            Payload::Request(r) => r.addr,
            _ => u64::MAX,
        };
        self.delivered.push((self.now, port, addr));
    }
}

fn stall_packet(dst: usize, addr: u64) -> Packet {
    Packet {
        dst,
        words: 2,
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

/// A long full-stall window (every stream blocked on a refusing sink) is
/// settled by O(1) replay — and the replayed stat charge, the eventual
/// deliveries and the final registry are bit-identical to the reference
/// grinding through the same window per flit.
#[test]
fn full_stall_window_replays_and_matches_the_oracle() {
    let cfg = NetworkConfig {
        radix: 8,
        queue_words: 2,
        words_per_cycle: 2,
    };
    let run = |reference: bool| {
        let mut net = if reference {
            Omega::new_reference(32, &cfg)
        } else {
            Omega::new(32, &cfg)
        };
        let size = net.size();
        let mut sink = GateSink {
            accepting: false,
            now: 0,
            delivered: Vec::new(),
        };
        // Head-of-line packets reach the sink, get refused, and block
        // everything behind them: a full stall the flow path can replay.
        for port in 0..8 {
            assert!(net.try_inject(port, stall_packet(port * 3 % size, port as u64)));
        }
        // Epoch 0: the sink refuses everyone for 60 cycles.
        for c in 0..60 {
            sink.now = c;
            net.tick_epoch(&mut sink, 0);
        }
        // Epoch 1: the sink opens and the network drains.
        sink.accepting = true;
        let mut c = 60;
        while !net.is_idle() {
            sink.now = c;
            net.tick_epoch(&mut sink, 1);
            c += 1;
            assert!(c < 1_000, "network did not drain");
        }
        let fingerprint = format!(
            "{:?} conflicts={:?} blocked={:?} depth={:?} in_flight={}",
            net.stats(),
            net.stage_conflicts(),
            net.stage_blocked(),
            net.queue_depth_histogram().bins(),
            net.in_flight_packets()
        );
        (sink.delivered, fingerprint, net.stall_replays())
    };
    let (ref_deliveries, ref_fp, ref_replays) = run(true);
    let (flow_deliveries, flow_fp, flow_replays) = run(false);
    assert_eq!(ref_replays, 0, "the reference must never replay");
    assert_eq!(
        ref_deliveries, flow_deliveries,
        "delivery schedule drifted under the flow path"
    );
    assert_eq!(ref_fp, flow_fp, "stat fingerprint drifted");
    assert!(
        flow_replays >= 50,
        "a 60-cycle full stall should be mostly replayed, got {flow_replays} replays"
    );
}

/// On a full machine the epoch plumbing (global-memory acceptance epochs
/// forward, always-accepting CE sinks reverse) lets the flow path replay
/// genuine stall cycles. Ordinary reads and writes occupy a bank for only
/// `service_cycles = 2`, so some module pops — and hence an epoch bump —
/// lands every other tick; synchronization ops cost 4 cycles, so all 32
/// CEs fetch-adding distinct words of a single bank open pop gaps wide
/// enough for whole-network stalls to repeat. The machine must produce
/// the reference's exact fingerprint while demonstrably taking the
/// replay path in anger.
#[test]
fn flow_path_replays_under_single_bank_sync_hammering() {
    let run = |reference: bool| {
        let mut m = machine(MachineConfig::cedar(), reference);
        let progs = (0..m.config().total_ces())
            .map(|ce| {
                let mut b = ProgramBuilder::new();
                for i in 0..32u64 {
                    // Distinct addresses, same bank: contention without
                    // the sync processor's same-address combining.
                    b.push(Op::SyncOp {
                        addr: AddressExpr::new((ce as u64 * 64 + i) * 32),
                        instr: SyncInstr::fetch_add(1),
                    });
                }
                (CeId(ce), b.build())
            })
            .collect();
        let r = m.run(progs, LIMIT).unwrap();
        Fingerprint::of(&m, r)
    };
    let base = run(true);
    assert_eq!(base.replays, 0);
    let got = run(false);
    assert_matches_reference("single-bank sync hammer", &base, &got);
    assert!(
        got.replays > 0,
        "a single-bank sync hammer should hit full-stall windows"
    );
}
