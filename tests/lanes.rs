//! The lane boundary: everything that happens *between* rounds of a
//! two-lane run — auto-checkpoints, fault-schedule transitions, the
//! cycle budget, the watchdog — must find the machine in the state the
//! one-thread loop would show it, which is what the refusals of the early
//! memory tick are for (`parallel.rs` module docs). Each test here drives
//! one of them across the boundary and compares, at threads {1, 2}, the
//! whole fingerprint: cycles, `now`, `memory_digest()`, the stats tree,
//! the journey-trace stream and, where an image is written, its bytes.
//!
//! The lane counters (host-profile rows `exchanges` = rounds lane B took
//! part in, `early_memory_ticks`) show that the early tick was really
//! taken where it may be and never where it may not.

use std::path::{Path, PathBuf};

use cedar_kernels::staged::rank64::{Rank64, Rank64Version};
use cedar_machine::ids::CeId;
use cedar_machine::machine::Machine;
use cedar_machine::program::{AddressExpr, MemOperand, Op, Program, ProgramBuilder, VectorOp};
use cedar_machine::stats::export::flat_text;
use cedar_machine::{
    FaultPlan, LinkOutage, MachineConfig, MachineError, ModuleOutage, TraceEvent, TracePlan,
};

const CLUSTERS: usize = 4;
const LIMIT: u64 = 1_000_000_000;
const GM_PREF: Rank64Version = Rank64Version::GmPrefetch { block_words: 32 };

fn rank64(version: Rank64Version) -> impl Fn(&mut Machine) -> Vec<(CeId, Program)> {
    move |m| {
        Rank64 {
            n: 32,
            k: 64,
            version,
        }
        .build(m, CLUSTERS)
    }
}

fn cfg(threads: usize) -> MachineConfig {
    MachineConfig::cedar_with_clusters(CLUSTERS)
        .with_threads(threads)
        .with_trace(TracePlan {
            seed: 0xCEDA,
            sample_ppm: 250_000,
        })
}

/// Everything a run can leak, plus the lane counters (which may differ).
#[derive(Debug, PartialEq)]
struct Fingerprint {
    outcome: Result<u64, MachineError>,
    now: u64,
    memory: u64,
    stats: String,
    events: Vec<TraceEvent>,
    image: Vec<u8>,
}

struct Lanes {
    rounds: u64,
    early_memory_ticks: u64,
}

fn run(
    cfg: MachineConfig,
    build: impl Fn(&mut Machine) -> Vec<(CeId, Program)>,
    limit: u64,
) -> (Fingerprint, Lanes) {
    let mut m = Machine::new(cfg).unwrap();
    m.enable_host_profiling();
    let progs = build(&mut m);
    let result = m.run(progs, limit);
    let stats = flat_text(&m.stats());
    let mut image = Vec::new();
    m.checkpoint(&mut image).unwrap();
    let row = |name: &str| {
        let rows = m.host_profile().unwrap().extra_rows();
        rows.iter().find(|r| r.0 == name).map_or(0, |r| r.1)
    };
    let lanes = Lanes {
        rounds: row("exchanges"),
        early_memory_ticks: row("early_memory_ticks"),
    };
    let fingerprint = Fingerprint {
        outcome: result.map(|r| r.cycles).map_err(|mut e| {
            // The lane context of a hang report is about the host.
            if let MachineError::Deadlock { report } = &mut e {
                report.lanes = None;
            }
            e
        }),
        now: m.now().0,
        memory: m.memory_digest(),
        stats,
        events: m.trace_events().to_vec(),
        image,
    };
    (fingerprint, lanes)
}

/// A scratch directory of this test's own, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("cedar-lanes-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap()
}

#[test]
fn the_early_memory_tick_is_taken_on_a_busy_network() {
    let (one, _) = run(cfg(1), rank64(GM_PREF), LIMIT);
    let (two, lanes) = run(cfg(2), rank64(GM_PREF), LIMIT);
    assert_eq!(one, two);
    assert!(one.outcome.is_ok() && !one.events.is_empty());
    assert!(
        lanes.early_memory_ticks * 10 > lanes.rounds * 9,
        "{} early memory ticks in {} two-lane rounds",
        lanes.early_memory_ticks,
        lanes.rounds
    );
}

/// An auto-checkpoint must image the state *before* the next cycle's
/// memory tick. Every 7 cycles the early tick is refused one round in
/// seven; every cycle, always — and the file a cut run leaves behind is
/// byte-equal either way.
#[test]
fn auto_checkpoints_land_between_rounds() {
    let scratch = Scratch::new("ckpt");
    for (every, limit) in [(7u64, LIMIT), (1, 300)] {
        let go = |threads: usize| {
            let snap = scratch.file(&format!("every{every}-t{threads}.snap"));
            let (fingerprint, lanes) = run(
                cfg(threads).with_checkpoint(every, &snap),
                rank64(GM_PREF),
                limit,
            );
            (fingerprint, read(&snap), lanes)
        };
        let (one, one_file, _) = go(1);
        let (two, two_file, lanes) = go(2);
        assert_eq!(one, two, "checkpoint every {every}");
        assert!(
            one_file == two_file,
            "checkpoint every {every}: files differ"
        );
        assert_eq!(one.outcome.is_ok(), limit == LIMIT);
        assert!(lanes.rounds > 200, "{} two-lane rounds", lanes.rounds);
        if every == 1 {
            assert_eq!(lanes.early_memory_ticks, 0);
        } else {
            assert!(lanes.early_memory_ticks > 0);
        }
    }
}

/// Fault-schedule transitions write both networks and the memory, so
/// each must be applied before its own cycle's memory tick: a burst of
/// transitions on consecutive cycles, and a module-outage window opening
/// the cycle after the burst, under drops and NACKs.
#[test]
fn fault_transitions_on_consecutive_cycles_land_on_their_cycle() {
    let plan = FaultPlan {
        drop_per_million: 2_000,
        nack_per_million: 1_000,
        link_outages: vec![
            LinkOutage {
                port: 1,
                from: 200,
                until: 201,
            },
            LinkOutage {
                port: 9,
                from: 201,
                until: 203,
            },
            LinkOutage {
                port: 17,
                from: 202,
                until: 204,
            },
        ],
        module_outages: vec![ModuleOutage {
            module: 3,
            from: 205,
            until: 290,
        }],
        ..FaultPlan::none(7)
    };
    for version in [GM_PREF, Rank64Version::GmCache] {
        let (one, _) = run(cfg(1).with_faults(plan.clone()), rank64(version), LIMIT);
        let (two, lanes) = run(cfg(2).with_faults(plan.clone()), rank64(version), LIMIT);
        assert_eq!(one, two, "{version:?}");
        assert!(one.outcome.is_ok(), "{:?}", one.outcome);
        assert!(
            one.stats.contains("gmem.nacks"),
            "the fault plan is in force"
        );
        assert!(lanes.early_memory_ticks > 0);
    }
}

/// A run cut by its cycle budget stops in the one-thread state on every
/// cycle of a busy stretch: same error, same `now`, byte-equal image —
/// and the image restores into a machine that images identically.
#[test]
fn a_cycle_limit_cut_on_any_cycle_leaves_the_one_thread_state() {
    for limit in 300..500u64 {
        let (one, _) = run(cfg(1), rank64(GM_PREF), limit);
        let (two, _) = run(cfg(2), rank64(GM_PREF), limit);
        assert_eq!(one.outcome, Err(MachineError::CycleLimitExceeded { limit }));
        assert_eq!(one, two, "cut at {limit}");
        if limit % 50 == 0 {
            // Restore lands on a machine holding the same programs; a
            // shorter run of them loads it.
            let mut m = Machine::new(cfg(2)).unwrap();
            let progs = rank64(GM_PREF)(&mut m);
            assert!(m.run(progs, limit / 2).is_err());
            m.restore(&mut two.image.as_slice()).unwrap();
            let mut again = Vec::new();
            m.checkpoint(&mut again).unwrap();
            assert!(again == two.image, "cut at {limit}: restored image differs");
        }
    }
}

/// A watchdog inspection reads the module queues and the reverse
/// network, so the early tick is refused on its cycle: a run the
/// watchdog stops, and one whose budget is too short for the watchdog to
/// see, end alike on both thread counts.
#[test]
fn watchdog_and_budget_verdicts_do_not_depend_on_the_lanes() {
    // Every CE works against global memory; CE 5 also waits at a
    // two-party barrier nobody else joins.
    let stuck = |m: &mut Machine| -> Vec<(CeId, Program)> {
        let barrier = m.alloc_barrier(cedar_machine::sched::BarrierScope::Global, 2);
        (0..CLUSTERS * 8)
            .map(|ce| {
                let mut b = ProgramBuilder::new();
                b.repeat(64, |b| {
                    b.push(Op::PrefetchArm {
                        length: 32,
                        stride: 1,
                    });
                    b.push(Op::PrefetchFire {
                        base: AddressExpr::new(ce as u64 * 4096),
                    });
                    b.vector(VectorOp {
                        length: 32,
                        flops_per_element: 2,
                        operand: MemOperand::Prefetched,
                    });
                });
                if ce == 5 {
                    b.push(Op::Barrier { barrier });
                }
                (CeId(ce), b.build())
            })
            .collect()
    };
    for limit in [LIMIT, 1_000] {
        let (one, _) = run(cfg(1), stuck, limit);
        let (two, lanes) = run(cfg(2), stuck, limit);
        assert_eq!(one, two, "limit {limit}");
        match (&one.outcome, limit) {
            (Err(MachineError::Deadlock { report }), LIMIT) => {
                assert_eq!(report.kind, "synchronization stall");
            }
            (Err(MachineError::CycleLimitExceeded { .. }), 1_000) => {}
            (other, _) => panic!("limit {limit}: unexpected outcome {other:?}"),
        }
        assert!(lanes.early_memory_ticks > 0);
    }
}

/// Demand paging on two lanes: every cluster lives on lane A with the
/// machine-wide page table, so same-cycle page faults from different
/// clusters are served in CE order, as on one thread. The `vm_study`
/// shared-TRFD shape at test scale.
#[test]
fn demand_paging_is_deterministic_across_thread_counts() {
    const PAGES: u64 = 64;
    let paging = |_: &mut Machine| -> Vec<(CeId, Program)> {
        (0..CLUSTERS * 8)
            .map(|ce| {
                let lane = (ce % 8) as u64;
                let mut b = ProgramBuilder::new();
                b.scalar(1 + ce as u32 * 4 + ce as u32 / 8);
                // One pass over residue class `lane` (mod 8): every
                // cluster touches every page once.
                b.repeat((PAGES / 8) as u32, |b| {
                    b.push(Op::PrefetchArm {
                        length: 512,
                        stride: 1,
                    });
                    b.push(Op::PrefetchFire {
                        base: AddressExpr::new(lane * 512).with_coeff(0, 8 * 512),
                    });
                    b.repeat(16, |b| {
                        b.vector(VectorOp {
                            length: 32,
                            flops_per_element: 2,
                            operand: MemOperand::Prefetched,
                        });
                    });
                });
                (CeId(ce), b.build())
            })
            .collect()
    };
    let vm = |threads: usize| {
        let mut cfg = cfg(threads);
        cfg.vm.enabled = true;
        cfg.vm.tlb_entries = 32;
        cfg.vm.page_fault_cycles = 300;
        cfg
    };
    let (one, _) = run(vm(1), paging, LIMIT);
    let (two, lanes) = run(vm(2), paging, LIMIT);
    assert_eq!(one, two);
    assert!(one.outcome.is_ok(), "{:?}", one.outcome);
    let counter = |key: &str| {
        let line = one.stats.lines().find(|l| l.starts_with(key));
        line.and_then(|l| l.split_whitespace().last()?.parse::<u64>().ok())
    };
    assert_eq!(counter("vm.hard_faults"), Some(PAGES));
    assert_eq!(
        counter("vm.soft_faults"),
        Some(PAGES * (CLUSTERS as u64 - 1))
    );
    assert!(lanes.early_memory_ticks > 0);
}
