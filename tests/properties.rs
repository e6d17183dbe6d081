//! Property-based tests on the stack's core invariants (proptest), plus
//! conservation laws checked against the machine-wide stats registry.

use proptest::prelude::*;

use cedar_integration::{run_random_traffic, LIMIT};
use cedar_kernels::banded::BandedMatrix;
use cedar_kernels::cg::{cg_solve, dot};
use cedar_kernels::dense::{rank_update, Matrix};
use cedar_kernels::staged::rank64::{Rank64, Rank64Version};
use cedar_machine::config::NetworkConfig;
use cedar_machine::ids::CeId;
use cedar_machine::machine::Machine;
use cedar_machine::memory::sync::{SyncInstr, SyncOpKind};
use cedar_machine::network::packet::{MemRequest, Packet, Payload, RequestKind, Stream};
use cedar_machine::network::{NetSink, Omega};
use cedar_machine::program::{AddressExpr, MemOperand, Op, Program, ProgramBuilder, VectorOp};
use cedar_machine::sched::BarrierScope;
use cedar_machine::stats::export::flat_text;
use cedar_machine::time::Cycle;
use cedar_machine::{
    ClusterId, CounterId, CounterScope, FaultPlan, MachineError, RunReport, TraceEvent, TracePlan,
};
use cedar_methodology::stability::{instability, stability};

#[derive(Default)]
struct Collect {
    got: Vec<(usize, u64)>,
}
impl NetSink for Collect {
    fn try_begin(&mut self, _p: usize) -> bool {
        true
    }
    fn deliver(&mut self, p: usize, pkt: Packet) {
        if let Payload::Request(r) = pkt.payload {
            self.got.push((p, r.addr));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The flow-level fast path is byte-identical to the per-flit
    /// reference sweep on arbitrary omega traffic: same delivery schedule
    /// (tick, port, payload and NACK flag of every arrival), same `net.*`
    /// counters, same per-stage conflict/blocked vectors, same
    /// queue-depth histogram bins — across radices (3 gives 81-line
    /// networks whose switches straddle a 64-bit mask word), queue
    /// depths, burst lengths, contention, sink backpressure and a fault
    /// plan of drops, NACKs and port outages. The reference never
    /// replays; the flow path may, and must charge exactly the same
    /// stats when it does.
    #[test]
    fn flow_path_is_bit_identical_to_the_per_flit_oracle(
        radix in prop::sample::select(vec![2usize, 3, 4, 8, 16]),
        ports in prop::sample::select(vec![16usize, 32, 64]),
        queue_words in prop::sample::select(vec![1usize, 2, 4]),
        words_per_cycle in 1u32..3,
        faults in any::<bool>(),
        seed in 1u64..100_000,
    ) {
        let cfg = NetworkConfig { radix, queue_words, words_per_cycle };
        let oracle = run_random_traffic(true, seed, 400, ports, &cfg, faults);
        let flow = run_random_traffic(false, seed, 400, ports, &cfg, faults);
        prop_assert_eq!(oracle.replays, 0, "the reference must never replay");
        prop_assert_eq!(oracle.deliveries, flow.deliveries);
        prop_assert_eq!(oracle.fingerprint, flow.fingerprint);
    }

    /// Every packet injected into the omega network arrives exactly once,
    /// at the right port, for arbitrary traffic patterns.
    #[test]
    fn network_delivers_everything_exactly_once(
        radix in prop::sample::select(vec![2usize, 4, 8]),
        traffic in prop::collection::vec((0usize..32, 0usize..32, 1u8..4), 1..40),
    ) {
        let mut net = Omega::new(
            32,
            &NetworkConfig { radix, queue_words: 2, words_per_cycle: 1 },
        );
        let size = net.size();
        let mut sink = Collect::default();
        let mut expected = Vec::new();
        let mut pending: Vec<(usize, Packet)> = Vec::new();
        for (tag, &(src, dst, words)) in traffic.iter().enumerate() {
            let (src, dst) = (src % size, dst % size);
            expected.push((dst, tag as u64));
            pending.push((
                src,
                Packet {
                    dst,
                    words,
                    payload: Payload::Request(MemRequest {
                        ce: CeId(0),
                        kind: RequestKind::Read,
                        addr: tag as u64,
                        stream: Stream::Scalar,
                        issued: Cycle(0),
                        seq: 0,
                        nacked: false,
                        trace: 0,
                    }),
                },
            ));
        }
        let mut guard = 0;
        while !pending.is_empty() || !net.is_idle() {
            pending.retain(|(src, pkt)| !net.try_inject(*src, *pkt));
            net.tick(&mut sink);
            guard += 1;
            prop_assert!(guard < 100_000, "network did not drain");
        }
        let mut got = sink.got.clone();
        got.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// Sync instructions are linearizable at a module: any interleaving of
    /// fetch-adds sums correctly.
    #[test]
    fn sync_fetch_add_is_atomic(deltas in prop::collection::vec(-50i32..50, 1..30)) {
        let mut v = 0i32;
        let mut sum = 0i64;
        for &d in &deltas {
            SyncInstr { test: None, op: SyncOpKind::Add(d) }.apply(&mut v);
            sum += i64::from(d);
        }
        prop_assert_eq!(i64::from(v), sum as i32 as i64);
    }

    /// The open-addressed [`SyncStore`] behind every memory module's
    /// synchronization processor behaves exactly like a hash map of
    /// zero-default words under arbitrary Test-And-Operate sequences:
    /// same outcome per instruction, same surviving words, across
    /// growth, collisions and clears.
    #[test]
    fn sync_store_matches_hashmap_model(
        ops in prop::collection::vec(
            (
                // Cluster addresses so probe chains collide, but spread
                // them with a large stride so growth rehashes matter.
                0u64..24,
                prop::sample::select(vec![0usize, 1, 2, 3]),
                -40i32..40,
            ),
            1..200,
        ),
        clear_at in prop::collection::vec(0usize..200, 0..3),
    ) {
        use std::collections::HashMap;
        use cedar_machine::memory::SyncStore;

        let mut store = SyncStore::new();
        let mut model: HashMap<u64, i32> = HashMap::new();
        for (i, &(slot, which, operand)) in ops.iter().enumerate() {
            if clear_at.contains(&i) {
                store.clear();
                model.clear();
            }
            let addr = slot * 0x1000_0001; // colliding high bits, distinct keys
            let instr = match which {
                0 => SyncInstr::read(),
                1 => SyncInstr::write(operand),
                2 => SyncInstr::fetch_add(operand),
                _ => SyncInstr::test_and_set(),
            };
            let got = instr.apply(store.get_or_insert(addr));
            let want = instr.apply(model.entry(addr).or_insert(0));
            prop_assert_eq!(got, want, "op {i}");
        }
        let mut got: Vec<(u64, i32)> = store.iter().collect();
        got.sort_unstable();
        let mut want: Vec<(u64, i32)> = model.into_iter().collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// The machine conserves flops: whatever the program shape, the run
    /// reports exactly the flops the program encodes.
    #[test]
    fn machine_conserves_flops(
        lens in prop::collection::vec(1u32..64, 1..6),
        reps in 1u32..4,
    ) {
        let mut m = Machine::cedar().unwrap();
        let mut b = ProgramBuilder::new();
        let mut expect = 0u64;
        b.repeat(reps, |b| {
            for &l in &lens {
                b.vector(VectorOp {
                    length: l,
                    flops_per_element: 2,
                    operand: MemOperand::None,
                });
            }
        });
        for &l in &lens {
            expect += u64::from(l) * 2 * u64::from(reps);
        }
        let r = m.run(vec![(CeId(0), b.build())], 10_000_000).unwrap();
        prop_assert_eq!(r.flops, expect);
    }

    /// Stability is scale-invariant and within (0, 1].
    #[test]
    fn stability_properties(
        mut xs in prop::collection::vec(0.001f64..1000.0, 2..12),
        scale in 0.001f64..1000.0,
        e in 0usize..3,
    ) {
        prop_assume!(xs.len() >= e + 2);
        let st = stability(&xs, e).unwrap();
        prop_assert!(st > 0.0 && st <= 1.0 + 1e-12);
        let scaled: Vec<f64> = xs.iter().map(|x| x * scale).collect();
        let st2 = stability(&scaled, e).unwrap();
        prop_assert!((st - st2).abs() < 1e-9 * (1.0 + st.abs()));
        // Instability is its inverse.
        let inst = instability(&xs, e).unwrap();
        prop_assert!((inst * st - 1.0).abs() < 1e-9);
        // Permutation-invariant.
        xs.reverse();
        prop_assert!((stability(&xs, e).unwrap() - st).abs() < 1e-12);
    }

    /// Banded matvec agrees with the dense definition for arbitrary
    /// bands.
    #[test]
    fn banded_matvec_matches_dense(
        n in 3usize..24,
        half in 0usize..4,
        seed in 0u64..1000,
    ) {
        prop_assume!(2 * half + 1 < 2 * n);
        let bw = 2 * half + 1;
        let f = |i: usize, j: usize| ((i * 31 + j * 17 + seed as usize) % 13) as f64 - 6.0;
        let a = BandedMatrix::from_fn(n, bw, f);
        let x: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 5) as f64 - 2.0).collect();
        let mut y = vec![0.0; n];
        a.matvec(&x, &mut y);
        for (i, yi) in y.iter().enumerate() {
            let want: f64 = (0..n).map(|j| a.get(i, j) * x[j]).sum();
            prop_assert!((yi - want).abs() < 1e-9);
        }
    }

    /// rank_update is linear in B: scaling B scales the update.
    #[test]
    fn rank_update_linear_in_b(n in 2usize..12, k in 1usize..5, s in -3.0f64..3.0) {
        let a = Matrix::from_fn(n, k, |i, j| (i + 2 * j) as f64 * 0.5 - 1.0);
        let b1 = Matrix::from_fn(k, n, |i, j| (3 * i + j) as f64 * 0.25 - 2.0);
        let bs = Matrix::from_fn(k, n, |i, j| b1[(i, j)] * s);
        let mut c1 = Matrix::zeros(n, n);
        let mut c2 = Matrix::zeros(n, n);
        rank_update(&mut c1, &a, &b1);
        rank_update(&mut c2, &a, &bs);
        for i in 0..n {
            for j in 0..n {
                prop_assert!((c2[(i, j)] - s * c1[(i, j)]).abs() < 1e-9);
            }
        }
    }

    /// CG solves random SPD-ish penta systems to tolerance.
    #[test]
    fn cg_converges_on_diagonally_dominant_systems(n in 8usize..64, seed in 0u64..100) {
        let a = BandedMatrix::from_fn(n, 5, |i, j| {
            if i == j {
                8.0
            } else {
                -(((i + j + seed as usize) % 3) as f64) / 2.0
            }
        });
        // Symmetrize: from_fn above is already symmetric in (i+j).
        let xtrue: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
        let mut b = vec![0.0; n];
        a.matvec(&xtrue, &mut b);
        let mut x = vec![0.0; n];
        let res = cg_solve(&a, &b, &mut x, 1e-9, 4 * n);
        prop_assert!(res.converged, "residual {}", res.residual);
        let err: f64 = dot(
            &x.iter().zip(&xtrue).map(|(a, b)| a - b).collect::<Vec<_>>(),
            &x.iter().zip(&xtrue).map(|(a, b)| a - b).collect::<Vec<_>>(),
        );
        prop_assert!(err.sqrt() < 1e-5, "error {err}");
    }
}

/// Counts deliveries.
#[derive(Default)]
struct Count {
    delivered: u64,
}
impl NetSink for Count {
    fn try_begin(&mut self, _p: usize) -> bool {
        true
    }
    fn deliver(&mut self, _p: usize, _pkt: Packet) {
        self.delivered += 1;
    }
}

/// Delivered 1-word packets per destination port per cycle under
/// open-loop Bernoulli traffic: each of the first `sources` ports of an
/// `Omega::new(ports, ..)` network gets a packet with probability `load`
/// per cycle into an unbounded source FIFO whose head is offered to
/// `try_inject` every cycle; a packet goes to port 0 with probability
/// `hot`, else to one of the first `dests` ports uniformly. One tick a
/// cycle at one word per cycle, so a cycle is a switch cycle. The first
/// fifth of the run is warm-up.
fn open_loop_throughput(
    ports: usize,
    sources: usize,
    dests: usize,
    queue_words: usize,
    load: f64,
    hot: f64,
    cycles: u64,
) -> f64 {
    let cfg = NetworkConfig {
        radix: 8,
        queue_words,
        words_per_cycle: 1,
    };
    let mut net = Omega::new(ports, &cfg);
    let mut rng = SplitMix(0xCEDA ^ ports as u64);
    let mut unit = move || (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
    let mut fifos = vec![std::collections::VecDeque::new(); sources];
    let mut sink = Count::default();
    let warm = cycles / 5;
    let mut at_warm = 0;
    for c in 0..cycles {
        if c == warm {
            at_warm = sink.delivered;
        }
        for (port, fifo) in fifos.iter_mut().enumerate() {
            if unit() < load {
                let dst = if unit() < hot {
                    0
                } else {
                    (unit() * dests as f64) as usize
                };
                fifo.push_back(dst);
            }
            if let Some(&dst) = fifo.front() {
                let req = MemRequest {
                    ce: CeId(0),
                    kind: RequestKind::Read,
                    addr: 0,
                    stream: Stream::Scalar,
                    issued: Cycle(c),
                    seq: 0,
                    nacked: false,
                    trace: 0,
                };
                if net.try_inject(port, Packet::read_request(dst, req)) {
                    fifo.pop_front();
                }
            }
        }
        net.tick_epoch(&mut sink, 0);
    }
    (sink.delivered - at_warm) as f64 / (dests * (cycles - warm) as usize) as f64
}

/// The network model against queueing theory (ROADMAP item 6), within
/// ±0.01 of each closed form: one 8×8 input-queued switch saturates at
/// the head-of-line bound 0.618 (Karol, Hluchyj & Morgan 1987); a
/// 64-port network offered 0.3 with a hot-spot fraction h delivers
/// 1/(1 + h(N − 1)) = 0.284 / 0.166 / 0.090 at h = 0.04 / 0.08 / 0.16
/// (Pfister & Norton 1985); and the Cedar geometry, 32 CE ports to 32
/// module ports with two-word queues, saturates at 0.542 — this
/// model's own figure, pinned so a network change cannot move it
/// unseen.
#[test]
fn omega_saturation_matches_queueing_theory() {
    let cycles = 20_000;
    let check = |what: &str, got: f64, want: f64| {
        assert!(
            (got - want).abs() <= 0.01,
            "{what}: throughput {got:.4}, expected {want} ± 0.01"
        );
    };
    check(
        "one 8x8 switch, saturated",
        open_loop_throughput(8, 8, 8, 2, 1.0, 0.0, cycles),
        0.618,
    );
    for (h, want) in [(0.04, 0.284), (0.08, 0.166), (0.16, 0.090)] {
        check(
            &format!("64-port hot spot, h = {h}"),
            open_loop_throughput(64, 64, 64, 2, 0.3, h, cycles),
            want,
        );
    }
    check(
        "Cedar geometry, saturated",
        open_loop_throughput(32, 32, 32, 2, 1.0, 0.0, cycles),
        0.542,
    );
}

proptest! {
    // Full-machine simulations are costly in debug builds; a handful of
    // sampled configurations is enough to exercise every law.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Conservation laws of the instrumentation layer hold for the
    /// rank-64 kernel on the full 32-CE machine, whatever the memory
    /// version, problem size, and — since the parallel engine promises
    /// bit-identical execution — simulation thread count: counters from
    /// every subsystem must account for each other exactly.
    #[test]
    fn stats_conservation_laws_hold_for_rank64(
        version in prop::sample::select(vec![
            Rank64Version::GmNoPrefetch,
            Rank64Version::GmPrefetch { block_words: 32 },
            Rank64Version::GmCache,
        ]),
        n in prop::sample::select(vec![32u32, 64]),
        threads in prop::sample::select(vec![1usize, 2, 4]),
    ) {
        let clusters = 4;
        let mut m = Machine::new(
            cedar_machine::MachineConfig::cedar_with_clusters(clusters).with_threads(threads),
        ).unwrap();
        let kern = Rank64 { n, k: 64, version };
        let progs = kern.build(&mut m, clusters);
        let r = m.run(progs, 1_000_000_000).unwrap();
        let s = &r.stats;

        // Cache: hits + misses == accesses, aggregate == sum of clusters.
        prop_assert_eq!(
            s.counter("cache.hits") + s.counter("cache.misses"),
            s.counter("cache.accesses")
        );
        for field in ["accesses", "hits", "misses", "evictions", "writebacks"] {
            let per_cluster: u64 = (0..clusters)
                .map(|c| s.counter(&format!("cache[{c}].{field}")))
                .sum();
            prop_assert_eq!(per_cluster, s.counter(&format!("cache.{field}")), "cache.{}", field);
        }

        // Networks: every packet injected was delivered (the run only
        // ends once all traffic has drained).
        for net in ["net.fwd", "net.rev"] {
            prop_assert_eq!(
                s.counter(&format!("{net}.packets_injected")),
                s.counter(&format!("{net}.packets_delivered")),
                "{} did not drain", net
            );
        }

        // Global memory: totals are the sum over the 32 banks.
        for field in ["accesses", "sync_ops", "conflict_stalls"] {
            let per_bank: u64 = (0..32)
                .map(|b| s.counter(&format!("gmem.bank[{b}].{field}")))
                .sum();
            prop_assert_eq!(per_bank, s.counter(&format!("gmem.{field}")), "gmem.{}", field);
        }

        // Per-CE cycle accounting: every engine cycle lands in exactly
        // one of busy / stall_mem / stall_sync / idle.
        let cycles = s.counter("machine.cycles");
        prop_assert_eq!(cycles, r.cycles);
        for i in 0..m.config().total_ces() {
            let accounted = s.counter(&format!("ce[{i}].busy"))
                + s.counter(&format!("ce[{i}].stall_mem"))
                + s.counter(&format!("ce[{i}].stall_sync"))
                + s.counter(&format!("ce[{i}].idle"));
            prop_assert_eq!(accounted, cycles, "CE {} cycle accounting", i);
        }
        prop_assert_eq!(
            s.counter("ce.busy") + s.counter("ce.stall_mem")
                + s.counter("ce.stall_sync") + s.counter("ce.idle"),
            cycles * m.config().total_ces() as u64
        );

        // The utilization timeline redistributes the same cycles.
        for (i, t) in m.timeline().per_ce_totals().iter().enumerate() {
            let counted = s.counter(&format!("ce[{i}].busy"))
                + s.counter(&format!("ce[{i}].stall_mem"))
                + s.counter(&format!("ce[{i}].stall_sync"))
                + s.counter(&format!("ce[{i}].idle"));
            prop_assert_eq!(t.total(), counted, "timeline total for CE {}", i);
        }

        // Prefetch: all prefetched words either arrived or went stale,
        // and the latency histogram saw each arrived word once.
        let words = s.counter("prefetch.words_returned");
        prop_assert!(words + s.counter("prefetch.stale_words") <= s.counter("prefetch.requests"));
        if let Some(h) = s.histogram("prefetch.latency") {
            prop_assert_eq!(h.total(), words);
        }
    }
}

/// A tiny deterministic stream for program generation (splitmix64), so
/// a single proptest seed expands into an arbitrary instruction mix.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Emit a random run of operations covering every `Op` variant the
/// lowering pipeline handles: zero- and nonzero-duration scalar work,
/// every vector operand (the pure ones are fusion bait), prefetch
/// arm/fire/consume/rewind sequences, pure and impure `Repeat`s
/// (including count zero), nested loops past the collapse depth bound,
/// self-scheduled loops over shared counters, sync ops, fences and
/// monitor events. Loop-indexed addresses exercise the flat frame
/// stack's index plumbing.
fn emit_random_ops(b: &mut ProgramBuilder, rng: &mut SplitMix, depth: u32, counters: &[CounterId]) {
    let n = 2 + rng.below(5);
    for _ in 0..n {
        // Nesting-heavy choices only below the recursion cutoff.
        match rng.below(if depth < 2 { 12 } else { 9 }) {
            0 => {
                b.scalar(rng.below(40) as u32); // 0 is a legal duration
            }
            1 => {
                b.push(Op::ScalarFlops {
                    flops: rng.below(6) as u32,
                    cycles_per_flop: 1 + rng.below(3) as u8,
                });
            }
            2 => {
                b.push(Op::ScalarGlobalRead {
                    addr: AddressExpr::new(rng.below(4096) * 8).with_coeff(0, rng.below(8) as i64),
                });
            }
            3 => {
                b.push(Op::ScalarGlobalWrite {
                    addr: AddressExpr::new(rng.below(4096) * 8).with_coeff(1, rng.below(8) as i64),
                });
            }
            4 => {
                let addr = AddressExpr::new(rng.below(2048) * 16)
                    .with_coeff(rng.below(3) as u8, rng.below(16) as i64);
                let operand = match rng.below(7) {
                    0 | 1 => MemOperand::None,
                    2 => MemOperand::GlobalRead {
                        addr,
                        stride: 1 + rng.below(3) as i64,
                    },
                    3 => MemOperand::GlobalWrite {
                        addr,
                        stride: 1 + rng.below(3) as i64,
                    },
                    4 => MemOperand::ClusterRead {
                        addr,
                        stride: 1 + rng.below(3) as i64,
                    },
                    5 => MemOperand::ClusterWrite {
                        addr,
                        stride: 1 + rng.below(3) as i64,
                    },
                    _ => {
                        if rng.below(2) == 0 {
                            MemOperand::GlobalGather { addr }
                        } else {
                            MemOperand::GlobalScatter { addr }
                        }
                    }
                };
                b.vector(VectorOp {
                    length: 1 + rng.below(32) as u32,
                    flops_per_element: rng.below(3) as u8,
                    operand,
                });
            }
            5 => {
                // Prefetch as an atomic arm / fire / consume unit (the
                // arm+fire pair is the ArmFire superinstruction's bait),
                // sometimes rewound and consumed again.
                let length = 1 + rng.below(16) as u32;
                b.push(Op::PrefetchArm {
                    length,
                    stride: 1 + rng.below(2) as i64,
                });
                b.push(Op::PrefetchFire {
                    base: AddressExpr::new(rng.below(2048) * 8),
                });
                b.vector(VectorOp {
                    length,
                    flops_per_element: 1,
                    operand: MemOperand::Prefetched,
                });
                if rng.below(3) == 0 {
                    b.push(Op::PrefetchRewind);
                    b.vector(VectorOp {
                        length,
                        flops_per_element: 2,
                        operand: MemOperand::Prefetched,
                    });
                }
            }
            6 => {
                b.push(Op::SyncOp {
                    addr: AddressExpr::new(0x10_0000 + rng.below(64) * 8),
                    instr: match rng.below(4) {
                        0 => SyncInstr::read(),
                        1 => SyncInstr::write(rng.below(100) as i32),
                        2 => SyncInstr::fetch_add(1 + rng.below(5) as i32),
                        _ => SyncInstr::test_and_set(),
                    },
                });
            }
            7 => {
                b.push(Op::Fence);
            }
            8 => {
                b.push(Op::PostEvent {
                    tag: rng.below(16) as u32,
                });
            }
            9 => {
                // A *pure* repeat — the loop-collapse superinstruction's
                // target (count 0 exercises the skip-jump).
                let count = rng.below(5) as u32;
                let work = 1 + rng.below(20) as u32;
                let veclen = 1 + rng.below(16) as u32;
                b.repeat(count, |b| {
                    b.scalar(work);
                    b.vector(VectorOp {
                        length: veclen,
                        flops_per_element: 2,
                        operand: MemOperand::None,
                    });
                });
            }
            10 => {
                // An arbitrary (usually impure) repeat, recursing.
                let count = rng.below(4) as u32;
                b.repeat(count, |b| emit_random_ops(b, rng, depth + 1, counters));
            }
            _ => {
                let counter = counters[rng.below(counters.len() as u64) as usize];
                let limit = rng.below(24);
                let chunk = 1 + rng.below(3) as u32;
                let cost = rng.below(3) as u32;
                b.self_sched_with_cost(counter, limit, chunk, cost, |b| {
                    emit_random_ops(b, rng, depth + 1, counters)
                });
            }
        }
    }
}

/// What a random-program run leaves behind: cycles, memory digest,
/// flattened stats registry and the journey trace stream (empty unless
/// the machine traces).
#[derive(Debug, PartialEq)]
struct RandomRun {
    cycles: u64,
    digest: u64,
    stats: String,
    trace: Vec<TraceEvent>,
    /// Cycles the fast-forward jumped over (zero on the reference).
    skipped: u64,
}

impl RandomRun {
    /// Assert `got` equals `self` field by field, with a readable stats
    /// diff.
    fn assert_same(&self, got: &RandomRun, base: &str, other: &str) -> TestCaseResult {
        prop_assert_eq!(self.cycles, got.cycles, "cycle count drifted");
        prop_assert_eq!(self.digest, got.digest, "memory digest drifted");
        if self.stats != got.stats {
            let diff: Vec<String> = self
                .stats
                .lines()
                .zip(got.stats.lines())
                .filter(|(a, b)| a != b)
                .map(|(a, b)| format!("  {base}: {a}\n  {other}: {b}"))
                .collect();
            prop_assert!(false, "stats drifted:\n{}", diff.join("\n"));
        }
        prop_assert!(self.trace == got.trace, "trace stream drifted");
        Ok(())
    }
}

impl RandomRun {
    /// What the run that produced `r` left behind on `m`.
    fn of(m: &Machine, r: RunReport) -> RandomRun {
        RandomRun {
            cycles: r.cycles,
            digest: m.memory_digest(),
            stats: flat_text(&r.stats),
            trace: m.trace_events().to_vec(),
            skipped: m.fastforward_skipped_cycles(),
        }
    }
}

/// The machine `cfg` builds (the reference with `reference`), loaded
/// with a seeded random program mix: every CE gets its own generated
/// program, self-scheduled loops share two global counters, its
/// cluster's bus counter and an SDOALL counter with the other CEs, and
/// every CE meets its cluster at a bus barrier and then the whole machine
/// at a global barrier at the end.
fn random_programs(
    seed: u64,
    cfg: cedar_machine::MachineConfig,
    reference: bool,
) -> (Machine, Vec<(CeId, Program)>) {
    let mut m = cedar_integration::machine(cfg, reference);
    let (clusters, cpc) = (m.config().clusters, m.config().ces_per_cluster);
    let shared = [
        m.alloc_counter(CounterScope::Global),
        m.alloc_counter(CounterScope::Global),
        m.alloc_counter(CounterScope::SdoallGlobal),
    ];
    let per_cluster: Vec<(CounterId, _)> = (0..clusters)
        .map(|c| {
            (
                m.alloc_counter(CounterScope::Cluster(ClusterId(c))),
                m.alloc_barrier(BarrierScope::Cluster(ClusterId(c)), cpc as u32),
            )
        })
        .collect();
    let barrier = m.alloc_barrier(BarrierScope::Global, (clusters * cpc) as u32);
    let progs: Vec<(CeId, Program)> = (0..clusters * cpc)
        .map(|ce| {
            let (bus_counter, bus_barrier) = per_cluster[ce / cpc];
            let counters = [shared[0], shared[1], shared[2], bus_counter];
            let mut rng = SplitMix(seed ^ (ce as u64).wrapping_mul(0xA5A5_5A5A));
            let mut b = ProgramBuilder::new();
            emit_random_ops(&mut b, &mut rng, 0, &counters);
            b.push(Op::Barrier {
                barrier: bus_barrier,
            });
            b.push(Op::Barrier { barrier });
            (CeId(ce), b.build())
        })
        .collect();
    (m, progs)
}

/// One full-machine run of [`random_programs`].
fn run_random_programs(seed: u64, cfg: cedar_machine::MachineConfig, reference: bool) -> RandomRun {
    let (mut m, progs) = random_programs(seed, cfg, reference);
    let r = m.run(progs, LIMIT).unwrap();
    RandomRun::of(&m, r)
}

proptest! {
    // Two machine runs per case; the generated programs are short.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The engine — lowered CEs, flow-path networks — is byte-identical
    /// to the reference (tree-walking interpreter, per-flit sweep) on
    /// arbitrary generated programs — every `Op` variant, loop shapes
    /// past the collapse bound, shared self-scheduling counters of every
    /// scope, bus and global barriers — across thread counts and with
    /// the VM model on or off: same cycle count, same memory digest, same
    /// flattened stats registry.
    #[test]
    fn lowering_is_bit_identical_to_the_interpreter(
        seed in 0u64..100_000,
        threads in prop::sample::select(vec![1usize, 4]),
        vm in any::<bool>(),
    ) {
        let mut cfg = cedar_machine::MachineConfig::cedar_with_clusters(2);
        cfg.vm.enabled = vm;
        let base = run_random_programs(seed, cfg.clone(), true);
        let engine = run_random_programs(seed, cfg.with_threads(threads), false);
        base.assert_same(&engine, "reference", "engine   ")?;
    }

    /// Fast-forward is invisible on arbitrary generated programs, with and
    /// without a fault plan and the VM model: the engine, which jumps to
    /// the earliest wake cycle, leaves the cycle count, stats tree, memory
    /// digest and journey trace stream exactly as the reference, which
    /// ticks every cycle, does.
    #[test]
    fn fast_forward_is_bit_identical_on_random_programs(
        seed in 0u64..100_000,
        faults in any::<bool>(),
        vm in any::<bool>(),
    ) {
        let mut cfg = cedar_machine::MachineConfig::cedar_with_clusters(2).with_trace(TracePlan {
            seed,
            sample_ppm: 250_000,
        });
        if faults {
            cfg = cfg.with_faults(FaultPlan {
                drop_per_million: 3_000,
                nack_per_million: 1_500,
                ..FaultPlan::none(seed)
            });
        }
        cfg.vm.enabled = vm;
        let ticked = run_random_programs(seed, cfg.clone(), true);
        let skipped = run_random_programs(seed, cfg, false);
        prop_assert_eq!(ticked.skipped, 0, "the reference must tick every cycle");
        prop_assert!(!ticked.trace.is_empty(), "the machine traced nothing");
        ticked.assert_same(&skipped, "ticked", "skipped")?;
    }
}

proptest! {
    // Two machine runs per case; the generated programs are short.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Two-lane execution is bit-identical to the one-thread engine on
    /// arbitrary generated traffic — sync ops, gathers/scatters, prefetch
    /// bursts, shared self-scheduling counters, barriers — including the
    /// rounds that skip cycles, which refuse the early memory tick.
    #[test]
    fn two_lane_execution_is_bit_identical_to_serial(seed in 0u64..100_000) {
        let cfg = cedar_machine::MachineConfig::cedar_with_clusters(2);
        let base = run_random_programs(seed, cfg.clone(), false);
        let lanes = run_random_programs(seed, cfg.with_threads(2), false);
        base.assert_same(&lanes, "one thread", "two lanes ")?;
    }
}

proptest! {
    // Four machine runs per case, on short generated programs.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A random-program run auto-checkpointed and killed at a cycle drawn
    /// from the seed resumes to the uninterrupted run's cycle count,
    /// memory digest, stats tree and journey trace, with and without
    /// faults, the VM model and tracing; and the killed machine's image,
    /// restored onto a sibling cut elsewhere, checkpoints back to the
    /// identical bytes.
    #[test]
    fn killed_random_programs_resume_bit_identically(
        seed in 0u64..100_000,
        faults in any::<bool>(),
        vm in any::<bool>(),
        traced in any::<bool>(),
    ) {
        let mut cfg = cedar_machine::MachineConfig::cedar_with_clusters(2);
        cfg.vm.enabled = vm;
        if faults {
            cfg = cfg.with_faults(FaultPlan {
                drop_per_million: 3_000,
                nack_per_million: 1_500,
                ..FaultPlan::none(seed)
            });
        }
        if traced {
            cfg = cfg.with_trace(TracePlan {
                seed,
                sample_ppm: 250_000,
            });
        }
        let base = run_random_programs(seed, cfg.clone(), false);
        prop_assert!(base.cycles > 8, "too short a run to cut");
        let kill_at = base.cycles / 8 + seed % (3 * base.cycles / 4);
        let path = std::env::temp_dir().join(format!(
            "cedar-prop-{}-{seed}-{faults}-{vm}-{traced}.ckpt",
            std::process::id()
        ));

        let (mut killed, progs) =
            random_programs(seed, cfg.clone().with_checkpoint((kill_at / 3).max(1), &path), false);
        let cut = killed.run(progs, kill_at);
        prop_assert!(
            matches!(cut, Err(MachineError::CycleLimitExceeded { .. })),
            "the kill run should hit its cycle limit at {}, got {:?}", kill_at, cut
        );
        let mut stopped = Vec::new();
        killed.checkpoint(&mut stopped).unwrap();

        let (mut resumed, progs) = random_programs(seed, cfg.clone(), false);
        let r = resumed.resume_from_file(progs, &path, LIMIT);
        std::fs::remove_file(&path).ok();
        base.assert_same(&RandomRun::of(&resumed, r.unwrap()), "uninterrupted", "resumed")?;

        let (mut sibling, progs) = random_programs(seed, cfg, false);
        prop_assert!(sibling.run(progs, kill_at / 2).is_err(), "the sibling should be cut");
        sibling.restore(&mut &stopped[..]).unwrap();
        let mut again = Vec::new();
        sibling.checkpoint(&mut again).unwrap();
        prop_assert!(again == stopped, "restore then checkpoint changed the image");
    }
}
