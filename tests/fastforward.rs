//! Equivalence tests for the event-horizon fast-forward.
//!
//! The engine always fast-forwards: it skips cycles in which no subsystem
//! can change externally visible state, bulk-crediting them into the same
//! counters a cycle-by-cycle run would have bumped. The reference
//! (`Machine::new_reference`) never skips — it ticks every cycle — so it
//! is the oracle for that contract: *bit-for-bit* the same cycle count,
//! final memory digest and full stats tree, at every thread count. These
//! tests pin the contract on synthetic barrier-heavy programs built to
//! maximize quiescent stretches, and hold the engine's skip counts to
//! floors on four named runs. The Table 1 rows and the Perfect code are
//! compared against the reference in `lower.rs`, the random programs in
//! `properties.rs`.

use cedar_fortran::compile::Backend;
use cedar_fortran::restructure::{Level, Restructurer};
use cedar_integration::{
    assert_matches_reference, machine, rank64_fingerprint, Fingerprint, LIMIT,
};
use cedar_kernels::staged::rank64::{Rank64, Rank64Version};
use cedar_machine::ids::CeId;
use cedar_machine::machine::Machine;
use cedar_machine::program::{MemOperand, Op, Program, ProgramBuilder, VectorOp};
use cedar_machine::sched::BarrierScope;
use cedar_machine::{ClusterId, FaultPlan, MachineConfig};
use cedar_perfect::codes::{spec, CodeName};
use cedar_xylem::costs::XylemCosts;

fn fingerprint_run(
    cfg: MachineConfig,
    reference: bool,
    build: impl FnOnce(&mut Machine) -> Vec<(CeId, Program)>,
) -> Fingerprint {
    let mut m = machine(cfg, reference);
    let progs = build(&mut m);
    let r = m.run(progs, LIMIT).unwrap();
    Fingerprint::of(&m, r)
}

/// A barrier-heavy synthetic: each round, one CE per cluster computes for
/// thousands of cycles while its seven siblings wait at a cluster
/// barrier. Almost the entire run is quiescent, so this both maximizes
/// what fast-forward can get wrong and proves it actually skips.
fn barrier_storm(m: &mut Machine, rounds: u32, work: u32) -> Vec<(CeId, Program)> {
    let clusters = m.config().clusters;
    let cpc = m.config().ces_per_cluster;
    let bars: Vec<_> = (0..clusters)
        .map(|c| m.alloc_barrier(BarrierScope::Cluster(ClusterId(c)), cpc as u32))
        .collect();
    let mut progs = Vec::new();
    for ce in 0..clusters * cpc {
        let cluster = ce / cpc;
        let mut b = ProgramBuilder::new();
        b.repeat(rounds, |b| {
            // Rotate the long worker so every CE takes turns stalling the
            // others (and the waiters' credit lands on every engine).
            if ce % cpc == 0 {
                b.scalar(work);
            } else {
                b.vector(VectorOp {
                    length: 16,
                    flops_per_element: 2,
                    operand: MemOperand::None,
                });
            }
            b.push(Op::Barrier {
                barrier: bars[cluster],
            });
        });
        progs.push((CeId(ce), b.build()));
    }
    progs
}

fn run_barrier_storm(reference: bool, threads: usize) -> Fingerprint {
    let cfg = MachineConfig::cedar().with_threads(threads);
    fingerprint_run(cfg, reference, |m| barrier_storm(m, 20, 4_000))
}

/// The barrier storm is bit-identical to the reference at 1, 2 and 4
/// threads — and the skip counter confirms the fast path actually ran.
#[test]
fn barrier_storm_matches_and_actually_skips() {
    let base = run_barrier_storm(true, 1);
    for threads in [1, 2, 4] {
        let got = run_barrier_storm(false, threads);
        assert_matches_reference(&format!("barrier storm x{threads} threads"), &base, &got);
        assert!(
            got.skipped > base.cycles / 2,
            "barrier storm should be mostly skippable: skipped {} of {} cycles",
            got.skipped,
            base.cycles
        );
    }
}

/// Global barriers poll memory with exponential backoff; the stretches
/// between polls are exactly the kind of short quiescent window the
/// chunked skip has to credit correctly (CE stall attribution, module
/// queues, timeline buckets).
#[test]
fn global_barrier_imbalance_matches() {
    let run = |reference: bool| {
        fingerprint_run(MachineConfig::cedar(), reference, |m| {
            let total = m.config().total_ces();
            let barrier = m.alloc_barrier(BarrierScope::Global, total as u32);
            let mut progs = Vec::new();
            for ce in 0..total {
                let mut b = ProgramBuilder::new();
                b.repeat(4, |b| {
                    if ce == 0 {
                        b.scalar(20_000);
                    }
                    b.push(Op::Barrier { barrier });
                });
                progs.push((CeId(ce), b.build()));
            }
            progs
        })
    };
    let got = run(false);
    assert_matches_reference("global barrier imbalance", &run(true), &got);
    assert!(got.skipped > 0, "imbalanced global barrier should skip");
}

/// Perfect TRFD at the automatable level through the full Fortran
/// pipeline, on the engine.
fn run_perfect() -> Fingerprint {
    let clusters = 4;
    let src = spec(CodeName::Trfd).to_source();
    let compiled = Restructurer::default().restructure(&src, Level::Automatable);
    let backend = Backend::new(XylemCosts::cedar());
    let cfg = MachineConfig::cedar_with_clusters(clusters);
    fingerprint_run(cfg, false, |m| backend.lower(&compiled, m, clusters))
}

/// Fast-forward never loses precision: on four named runs — a Table 1
/// row, Perfect TRFD, the barrier storm and a faulty GM/pref run shaped
/// like the resilience study's — the skip count stays at or above the
/// count the per-engine event scan that the wake cycles replaced reached.
/// A wake cycle set earlier than it needs to be shows up here as lost
/// skips, which the bit-identity tests cannot see.
#[test]
fn skip_counts_hold_their_floors() {
    let faulty = || {
        let plan = FaultPlan {
            drop_per_million: 5_000,
            nack_per_million: 2_500,
            ..FaultPlan::none(1)
        };
        let cfg = MachineConfig::cedar_with_clusters(4).with_faults(plan);
        fingerprint_run(cfg, false, |m| {
            Rank64 {
                n: 64,
                k: 64,
                version: Rank64Version::GmPrefetch { block_words: 32 },
            }
            .build(m, 4)
        })
    };
    let runs: [(&str, u64, Fingerprint); 4] = [
        (
            "table1 GM/no-pref",
            9,
            rank64_fingerprint(
                MachineConfig::cedar_with_clusters(4),
                Rank64Version::GmNoPrefetch,
                false,
            ),
        ),
        ("perfect TRFD", 93_601, run_perfect()),
        ("barrier storm", 80_020, run_barrier_storm(false, 1)),
        ("faulty GM/pref", 3_914, faulty()),
    ];
    for (label, floor, got) in runs {
        assert!(
            got.skipped >= floor,
            "{label}: skipped {} of {} cycles, below the floor of {floor}",
            got.skipped,
            got.cycles
        );
    }
}
