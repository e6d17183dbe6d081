//! End-to-end behaviour of the simulated machine, including calibration
//! checks against the paper's headline numbers:
//!
//! * ~13-cycle unloaded global-memory latency (2 outstanding requests →
//!   ~0.15 words/cycle per CE without prefetch);
//! * ~8-cycle minimal first-word prefetch latency, ~1-cycle interarrival;
//! * prefetch sustains roughly the 24 MB/s-per-processor module bandwidth;
//! * self-scheduled loops partition iterations exactly;
//! * cluster and global barriers synchronize.

use cedar_machine::ids::CeId;
use cedar_machine::machine::{CounterScope, Machine};
use cedar_machine::program::{AddressExpr, MemOperand, Op, Program, ProgramBuilder, VectorOp};
use cedar_machine::sched::BarrierScope;
use cedar_machine::{ClusterId, MachineConfig, MachineError};

const LIMIT: u64 = 2_000_000;

fn vec_op(length: u32, fpe: u8, operand: MemOperand) -> VectorOp {
    VectorOp {
        length,
        flops_per_element: fpe,
        operand,
    }
}

#[test]
fn empty_machine_runs_nothing() {
    let mut m = Machine::cedar().unwrap();
    let r = m.run(vec![], LIMIT).unwrap();
    assert_eq!(r.flops, 0);
    assert!(r.cycles <= 1);
}

#[test]
fn register_vector_op_takes_startup_plus_length() {
    let mut m = Machine::cedar().unwrap();
    let mut b = ProgramBuilder::new();
    b.vector(vec_op(32, 2, MemOperand::None));
    let r = m.run(vec![(CeId(0), b.build())], LIMIT).unwrap();
    assert_eq!(r.flops, 64);
    // startup 12 + 32 elements, plus a couple of dispatch cycles.
    assert!(r.cycles >= 44 && r.cycles <= 50, "cycles={}", r.cycles);
}

#[test]
fn direct_global_vector_load_is_latency_bound() {
    // One CE streaming a long vector directly from global memory with two
    // outstanding requests: the paper's no-prefetch mode. Effective rate
    // should be ~2 elements per ~13 cycles ≈ 0.15 words/cycle.
    let mut m = Machine::cedar().unwrap();
    let mut b = ProgramBuilder::new();
    let n = 512u32;
    b.repeat(16, |b| {
        b.vector(vec_op(
            32,
            2,
            MemOperand::GlobalRead {
                addr: AddressExpr::new(0).with_coeff(0, 32),
                stride: 1,
            },
        ));
    });
    let r = m.run(vec![(CeId(0), b.build())], LIMIT).unwrap();
    let rate = f64::from(n) / r.cycles as f64;
    assert!(
        rate > 0.10 && rate < 0.22,
        "direct-load rate {rate:.3} words/cycle (cycles={})",
        r.cycles
    );
}

#[test]
fn prefetched_vector_load_hides_latency() {
    // Arm+fire a 256-word prefetch, then consume it: sustained rate should
    // approach the module service bound (0.5 words/cycle/module stream —
    // but spread over 32 modules a single CE is limited by its own
    // 1-request-per-cycle issue rate and the reply stream).
    let mut m = Machine::cedar().unwrap();
    let mut b = ProgramBuilder::new();
    let blocks = 8u32;
    b.repeat(blocks, |b| {
        b.push(Op::PrefetchArm {
            length: 256,
            stride: 1,
        });
        b.push(Op::PrefetchFire {
            base: AddressExpr::new(0).with_coeff(0, 256),
        });
        b.repeat(8, |b| {
            b.vector(vec_op(32, 2, MemOperand::Prefetched));
        });
    });
    let r = m.run(vec![(CeId(0), b.build())], LIMIT).unwrap();
    let words = f64::from(blocks * 256);
    let rate = words / r.cycles as f64;
    assert!(
        rate > 0.45,
        "prefetch rate {rate:.3} words/cycle should beat direct loads by ~3.5x"
    );
    // Monitor: near-minimal latency and interarrival for a single CE.
    assert!(
        r.prefetch.mean_latency() >= 7.0 && r.prefetch.mean_latency() <= 14.0,
        "latency={}",
        r.prefetch.mean_latency()
    );
    assert!(
        r.prefetch.mean_interarrival() <= 2.5,
        "interarrival={}",
        r.prefetch.mean_interarrival()
    );
}

#[test]
fn prefetch_beats_direct_by_paper_factor() {
    // Table 1 shows prefetch improving one-cluster rank-64 by ~3.5x.
    let run = |prefetch: bool| -> u64 {
        let mut m = Machine::cedar().unwrap();
        let mut b = ProgramBuilder::new();
        b.repeat(16, |b| {
            if prefetch {
                b.push(Op::PrefetchArm {
                    length: 32,
                    stride: 1,
                });
                b.push(Op::PrefetchFire {
                    base: AddressExpr::new(0).with_coeff(0, 32),
                });
                b.vector(vec_op(32, 2, MemOperand::Prefetched));
            } else {
                b.vector(vec_op(
                    32,
                    2,
                    MemOperand::GlobalRead {
                        addr: AddressExpr::new(0).with_coeff(0, 32),
                        stride: 1,
                    },
                ));
            }
        });
        m.run(vec![(CeId(0), b.build())], LIMIT).unwrap().cycles
    };
    let direct = run(false) as f64;
    let pref = run(true) as f64;
    let speedup = direct / pref;
    assert!(
        speedup > 2.0 && speedup < 6.0,
        "prefetch speedup {speedup:.2} out of plausible range"
    );
}

#[test]
fn cluster_vector_ops_run_near_cache_bandwidth() {
    // After warmup, 8 CEs streaming from the shared cache should sustain
    // close to 8 words/cycle in aggregate (one stream each).
    let mut m = Machine::cedar().unwrap();
    let mut progs = Vec::new();
    for ce in 0..8usize {
        let mut b = ProgramBuilder::new();
        // Each CE sweeps its own 4KB region twice: first pass warms,
        // second pass hits.
        for _pass in 0..2 {
            b.repeat(16, |b| {
                b.vector(vec_op(
                    32,
                    2,
                    MemOperand::ClusterRead {
                        addr: AddressExpr::new((ce * 4096) as u64).with_coeff(0, 32),
                        stride: 1,
                    },
                ));
            });
        }
        progs.push((CeId(ce), b.build()));
    }
    let r = m.run(progs, LIMIT).unwrap();
    let words = 8.0 * 2.0 * 16.0 * 32.0;
    let agg_rate = words / r.cycles as f64;
    assert!(
        agg_rate > 3.0,
        "aggregate cluster-cache rate {agg_rate:.2} words/cycle too low (cycles={})",
        r.cycles
    );
    assert!(r.cache[0].hits > 0);
}

#[test]
fn self_scheduled_cluster_loop_partitions_iterations() {
    // 8 CEs of cluster 0 share 1000 iterations via the concurrency bus;
    // every iteration must execute exactly once (total scalar work).
    let mut m = Machine::cedar().unwrap();
    let counter = m.alloc_counter(CounterScope::Cluster(ClusterId(0)));
    let mut progs = Vec::new();
    for ce in 0..8usize {
        let mut b = ProgramBuilder::new();
        b.self_sched(counter, 1000, 1, |b| {
            b.vector(vec_op(10, 1, MemOperand::None));
        });
        progs.push((CeId(ce), b.build()));
    }
    let r = m.run(progs, LIMIT).unwrap();
    // 1000 iterations × 10 elements × 1 flop.
    assert_eq!(r.flops, 10_000);
    // Work spread across CEs: no CE did everything.
    let max_ce = r.ce_stats.iter().map(|(_, s)| s.flops).max().unwrap();
    assert!(max_ce < 10_000, "one CE hogged the loop: {max_ce}");
}

#[test]
fn self_scheduled_global_loop_partitions_iterations_across_clusters() {
    let mut m = Machine::cedar().unwrap();
    let counter = m.alloc_counter(CounterScope::Global);
    let mut progs = Vec::new();
    for ce in 0..32usize {
        let mut b = ProgramBuilder::new();
        b.self_sched(counter, 320, 1, |b| {
            b.vector(vec_op(10, 1, MemOperand::None));
        });
        progs.push((CeId(ce), b.build()));
    }
    let r = m.run(progs, LIMIT).unwrap();
    assert_eq!(r.flops, 3_200);
    let participating = r.ce_stats.iter().filter(|(_, s)| s.flops > 0).count();
    assert!(
        participating >= 16,
        "only {participating} CEs got iterations"
    );
}

#[test]
fn chunked_self_scheduling_reduces_dispatches() {
    let run = |chunk: u32| -> u64 {
        let mut m = Machine::cedar().unwrap();
        let counter = m.alloc_counter(CounterScope::Cluster(ClusterId(0)));
        let mut progs = Vec::new();
        for ce in 0..8usize {
            let mut b = ProgramBuilder::new();
            b.self_sched(counter, 512, chunk, |b| {
                b.scalar(2);
            });
            progs.push((CeId(ce), b.build()));
        }
        let r = m.run(progs, LIMIT).unwrap();
        assert_eq!(r.ce_stats.iter().map(|(_, s)| s.flops).sum::<u64>(), 0);
        r.cycles
    };
    let fine = run(1);
    let coarse = run(16);
    assert!(
        coarse < fine,
        "chunking should cut scheduling overhead: fine={fine} coarse={coarse}"
    );
}

#[test]
fn nested_self_scheduled_loop_in_timesteps_reuses_epochs() {
    // The SDOALL-inside-timestep pattern: outer Repeat, inner self-sched.
    // Epoch addressing must give each timestep a fresh counter.
    let mut m = Machine::cedar().unwrap();
    let counter = m.alloc_counter(CounterScope::Cluster(ClusterId(0)));
    let barrier = m.alloc_barrier(BarrierScope::Cluster(ClusterId(0)), 4);
    let mut progs = Vec::new();
    for ce in 0..4usize {
        let mut b = ProgramBuilder::new();
        b.repeat(5, |b| {
            b.self_sched(counter, 40, 1, |b| {
                b.vector(vec_op(8, 1, MemOperand::None));
            });
            b.push(Op::Barrier { barrier });
        });
        progs.push((CeId(ce), b.build()));
    }
    let r = m.run(progs, LIMIT).unwrap();
    // 5 timesteps × 40 iterations × 8 flops.
    assert_eq!(r.flops, 1600);
}

#[test]
fn global_barrier_synchronizes_all_clusters() {
    // CE 0 does long work before the barrier; all others must wait.
    let mut m = Machine::cedar().unwrap();
    let barrier = m.alloc_barrier(BarrierScope::Global, 32);
    let mut progs = Vec::new();
    for ce in 0..32usize {
        let mut b = ProgramBuilder::new();
        if ce == 0 {
            b.scalar(5_000);
        }
        b.push(Op::Barrier { barrier });
        b.scalar(10);
        progs.push((CeId(ce), b.build()));
    }
    let r = m.run(progs, LIMIT).unwrap();
    // Everyone finishes after CE0's 5000-cycle phase.
    assert!(r.cycles > 5_000, "cycles={}", r.cycles);
    assert!(r.cycles < 8_000, "barrier overhead too large: {}", r.cycles);
}

#[test]
fn fence_waits_for_outstanding_writes() {
    let mut m = Machine::cedar().unwrap();
    let mut b = ProgramBuilder::new();
    b.vector(vec_op(
        64,
        0,
        MemOperand::GlobalWrite {
            addr: AddressExpr::new(0),
            stride: 1,
        },
    ));
    b.push(Op::Fence);
    let r = m.run(vec![(CeId(0), b.build())], LIMIT).unwrap();
    // 64 writes at ~1/cycle plus drain.
    assert!(r.cycles >= 64, "cycles={}", r.cycles);
}

#[test]
fn contention_degrades_prefetch_interarrival_with_more_ces() {
    // The Table 2 phenomenon: 32 CEs prefetching concurrently see larger
    // first-word latency and interarrival than 8 CEs.
    let run = |ces: usize| -> (f64, f64) {
        let mut m = Machine::cedar().unwrap();
        let mut progs = Vec::new();
        for ce in 0..ces {
            let mut b = ProgramBuilder::new();
            b.repeat(16, |b| {
                b.push(Op::PrefetchArm {
                    length: 256,
                    stride: 1,
                });
                // Offset regions by a non-multiple of the module count so
                // the streams do not start bank-aligned.
                b.push(Op::PrefetchFire {
                    base: AddressExpr::new((ce * 100_007) as u64).with_coeff(0, 256),
                });
                b.repeat(8, |b| {
                    b.vector(vec_op(32, 2, MemOperand::Prefetched));
                });
            });
            progs.push((CeId(ce), b.build()));
        }
        let r = m.run(progs, LIMIT).unwrap();
        (r.prefetch.mean_latency(), r.prefetch.mean_interarrival())
    };
    let (lat8, inter8) = run(8);
    let (lat32, inter32) = run(32);
    assert!(
        lat32 > lat8,
        "latency should grow with CEs: {lat8:.1} -> {lat32:.1}"
    );
    assert!(
        inter32 > inter8,
        "interarrival should grow with CEs: {inter8:.2} -> {inter32:.2}"
    );
}

#[test]
fn bad_programs_are_rejected() {
    use cedar_machine::program::BarrierId;
    let mut m = Machine::cedar().unwrap();
    let mut b = ProgramBuilder::new();
    b.push(Op::Barrier {
        barrier: BarrierId(99),
    });
    match m.run(vec![(CeId(0), b.build())], LIMIT) {
        Err(MachineError::BadProgram { .. }) => {}
        other => panic!("expected BadProgram, got {other:?}"),
    }
    let r = m.run(vec![(CeId(99), Program::empty())], LIMIT);
    assert!(matches!(r, Err(MachineError::NoSuchCe(_))));
}

#[test]
fn deadlocked_barrier_is_diagnosed_with_a_hang_report() {
    let mut m = Machine::cedar().unwrap();
    let barrier = m.alloc_barrier(BarrierScope::Global, 2);
    // Only one of the two expected participants arrives. The
    // forward-progress watchdog must catch this as a structured deadlock
    // (naming the stuck CE) long before the generous cycle budget runs
    // out — the run used to burn the whole budget and report only
    // CycleLimitExceeded.
    let mut b = ProgramBuilder::new();
    b.push(Op::Barrier { barrier });
    match m.run(vec![(CeId(0), b.build())], 2_000_000) {
        Err(MachineError::Deadlock { report }) => {
            assert_eq!(report.kind, "synchronization stall");
            assert!(
                report.at_cycle < 100_000,
                "caught late: {}",
                report.at_cycle
            );
            assert_eq!(report.ces.len(), 1);
            assert_eq!(report.ces[0].0, 0);
            assert_eq!(report.barrier_waiters, 1);
            let text = report.to_string();
            assert!(text.contains("ce[0]"), "report names the waiter: {text}");
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
}

/// A lone arriver at a two-party *cluster* barrier sleeps on a bus
/// release that never comes, beside a CE still working: nothing in the
/// machine has a future event once the worker finishes, so the watchdog
/// reports event starvation and names who was asleep on what — the
/// arriver with no wake cycle, the finished worker not at all.
#[test]
fn event_starvation_names_the_sleepers_and_their_wake_cycles() {
    let mut m = Machine::cedar().unwrap();
    let barrier = m.alloc_barrier(BarrierScope::Cluster(ClusterId(0)), 2);
    let mut lone = ProgramBuilder::new();
    lone.push(Op::Barrier { barrier });
    let mut worker = ProgramBuilder::new();
    worker.scalar(5_000);
    match m.run(
        vec![(CeId(0), lone.build()), (CeId(9), worker.build())],
        2_000_000,
    ) {
        Err(MachineError::Deadlock { report }) => {
            assert_eq!(report.kind, "event starvation");
            assert_eq!(
                report.ces,
                vec![(0, "AwaitClusterBarrier".to_string(), None)]
            );
            let text = report.to_string();
            assert!(
                text.contains("ce[0]: AwaitClusterBarrier, wakes at ∞"),
                "report names the sleeper: {text}"
            );
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
}

/// The watchdog judges the simulated machine, not the host: on one thread
/// or on two lanes (which is what 2 and 4 threads both mean), a stuck run
/// stops on the same cycle with the same error, the same hang report and
/// the same memory state. Every scenario keeps all four clusters busy.
#[test]
fn watchdog_verdict_is_the_same_on_every_shard_count() {
    use cedar_machine::{FaultPlan, ModuleOutage};

    // A lone arriver at a two-party global barrier, beside finite work
    // on one CE of every cluster.
    fn lone_arriver(m: &mut Machine) -> Vec<(CeId, Program)> {
        let barrier = m.alloc_barrier(BarrierScope::Global, 2);
        let mut progs = Vec::new();
        for cluster in 0..4usize {
            let mut b = ProgramBuilder::new();
            b.repeat(8, |b| {
                b.vector(vec_op(32, 2, MemOperand::None));
            });
            progs.push((CeId(cluster * 8), b.build()));
        }
        let mut b = ProgramBuilder::new();
        b.push(Op::Barrier { barrier });
        progs.push((CeId(25), b.build()));
        progs
    }
    // Scalar loads from a module that never comes back (module 0 holds
    // address 0), issued from cluster 3; the other clusters read a
    // healthy module.
    fn dead_module_reads(_: &mut Machine) -> Vec<(CeId, Program)> {
        (0..4usize)
            .map(|cluster| {
                let addr = if cluster == 3 { 0 } else { 1 };
                let mut b = ProgramBuilder::new();
                b.repeat(4, |b| {
                    b.push(Op::ScalarGlobalRead {
                        addr: AddressExpr::new(addr),
                    });
                });
                (CeId(cluster * 8 + 1), b.build())
            })
            .collect()
    }
    let outage = FaultPlan {
        module_outages: vec![ModuleOutage {
            module: 0,
            from: 0,
            until: u64::MAX,
        }],
        max_retries: 2,
        ..FaultPlan::none(2)
    };
    type Build = fn(&mut Machine) -> Vec<(CeId, Program)>;
    type Expect = fn(&MachineError) -> bool;
    let scenarios: [(&str, Option<FaultPlan>, Build, u64, Expect); 3] = [
        ("lone barrier arriver", None, lone_arriver, LIMIT, |e| {
            matches!(e, MachineError::Deadlock { report }
                if report.kind == "synchronization stall" && report.barrier_waiters == 1)
        }),
        (
            "retry exhaustion",
            Some(outage),
            dead_module_reads,
            LIMIT,
            |e| matches!(e, MachineError::Faulted { ce, .. } if *ce == CeId(25)),
        ),
        ("too-short budget", None, lone_arriver, 1_000, |e| {
            matches!(e, MachineError::CycleLimitExceeded { limit: 1_000 })
        }),
    ];
    for (name, plan, build, limit, expect) in scenarios {
        let run = |threads: usize| {
            let mut cfg = MachineConfig::cedar().with_threads(threads);
            if let Some(plan) = &plan {
                cfg = cfg.with_faults(plan.clone());
            }
            let mut m = Machine::new(cfg).unwrap();
            let progs = build(&mut m);
            let mut err = m.run(progs, limit).unwrap_err();
            if let MachineError::Deadlock { report } = &mut err {
                assert_eq!(report.at_cycle, m.now().0);
                assert_eq!(
                    report.lanes.take().is_some(),
                    threads > 1,
                    "{name}: lane context at {threads} thread(s)"
                );
            }
            (err, m.now(), m.memory_digest())
        };
        let base = run(1);
        assert!(expect(&base.0), "{name}: unexpected verdict {:?}", base.0);
        for threads in [1usize, 2, 4] {
            assert_eq!(run(threads), base, "{name}: {threads} thread(s)");
        }
    }
}

#[test]
fn short_budget_still_reports_cycle_limit() {
    // A budget shorter than the watchdog's first inspection still
    // surfaces as CycleLimitExceeded, unchanged behaviour.
    let mut m = Machine::cedar().unwrap();
    let barrier = m.alloc_barrier(BarrierScope::Global, 2);
    let mut b = ProgramBuilder::new();
    b.push(Op::Barrier { barrier });
    let r = m.run(vec![(CeId(0), b.build())], 1_000);
    assert!(matches!(r, Err(MachineError::CycleLimitExceeded { .. })));
}

#[test]
fn determinism_same_programs_same_cycles() {
    let run = || -> u64 {
        let mut m = Machine::cedar().unwrap();
        let counter = m.alloc_counter(CounterScope::Global);
        let mut progs = Vec::new();
        for ce in 0..32usize {
            let mut b = ProgramBuilder::new();
            b.self_sched(counter, 200, 1, |b| {
                b.push(Op::PrefetchArm {
                    length: 32,
                    stride: 1,
                });
                b.push(Op::PrefetchFire {
                    base: AddressExpr::new(0).with_coeff(0, 32),
                });
                b.vector(vec_op(32, 2, MemOperand::Prefetched));
            });
            progs.push((CeId(ce), b.build()));
        }
        m.run(progs, LIMIT).unwrap().cycles
    };
    assert_eq!(run(), run());
}

#[test]
fn scalar_global_reads_cost_full_latency() {
    let mut m = Machine::cedar().unwrap();
    let mut b = ProgramBuilder::new();
    let n = 50u32;
    b.repeat(n, |b| {
        b.push(Op::ScalarGlobalRead {
            addr: AddressExpr::new(0).with_coeff(0, 7),
        });
    });
    let r = m.run(vec![(CeId(0), b.build())], LIMIT).unwrap();
    let per = r.cycles as f64 / f64::from(n);
    assert!(
        (11.0..=20.0).contains(&per),
        "scalar global read should cost ~13 cycles, got {per:.1}"
    );
}

#[test]
fn software_events_reach_the_tracer() {
    let mut m = Machine::cedar().unwrap();
    let mut progs = Vec::new();
    for ce in 0..4usize {
        let mut b = ProgramBuilder::new();
        b.scalar(10 * (ce as u32 + 1));
        b.push(Op::PostEvent { tag: 7 });
        progs.push((CeId(ce), b.build()));
    }
    m.run(progs, 100_000).unwrap();
    let events = m.tracer().events();
    assert_eq!(events.len(), 4);
    // Tags carry the posting CE in the low byte; time stamps are ordered.
    let mut ces: Vec<u32> = events.iter().map(|(_, tag)| tag & 0xff).collect();
    ces.sort_unstable();
    assert_eq!(ces, vec![0, 1, 2, 3]);
    for w in events.windows(2) {
        assert!(w[0].0 <= w[1].0, "trace is time-ordered");
    }
    for (_, tag) in events {
        assert_eq!(tag >> 8, 7);
    }
}

#[test]
fn latency_histogram_agrees_with_pfu_statistics() {
    let mut m = Machine::cedar().unwrap();
    let mut b = ProgramBuilder::new();
    b.repeat(16, |b| {
        b.push(Op::PrefetchArm {
            length: 32,
            stride: 1,
        });
        b.push(Op::PrefetchFire {
            base: AddressExpr::new(0).with_coeff(0, 32),
        });
        b.vector(vec_op(32, 2, MemOperand::Prefetched));
    });
    let r = m.run(vec![(CeId(0), b.build())], 1_000_000).unwrap();
    let h = m.latency_histogram();
    assert_eq!(h.total(), u64::from(r.prefetch.words_returned as u32));
    // The histogram's mean round trip should bracket the PFU's mean
    // first-word latency (first words are the slowest of each block's
    // pipeline fill, subsequent words stream).
    assert!(
        h.mean() > 3.0 && h.mean() < r.prefetch.mean_latency() + 4.0,
        "histogram mean {:.1} vs PFU first-word latency {:.1}",
        h.mean(),
        r.prefetch.mean_latency()
    );
}

#[test]
fn vm_faults_distinguish_first_touch_from_pte_hits() {
    let mut cfg = MachineConfig::cedar();
    cfg.vm.enabled = true;
    cfg.vm.tlb_entries = 8;
    let mut m = Machine::new(cfg).unwrap();
    // CE 0 (cluster 0) touches 4 pages; CE 8 (cluster 1) then touches the
    // same pages: cluster 1 takes TLB misses but no hard faults.
    let touch = |start_delay: u32| {
        let mut b = ProgramBuilder::new();
        b.scalar(start_delay);
        b.repeat(4, |b| {
            b.push(Op::ScalarGlobalRead {
                addr: AddressExpr::new(0).with_coeff(0, 512),
            });
        });
        b.build()
    };
    let progs = vec![(CeId(0), touch(1)), (CeId(8), touch(150_000))];
    let r = m.run(progs, 10_000_000).unwrap();
    assert_eq!(m.page_table().hard_faults(), 4);
    assert_eq!(m.page_table().soft_faults(), 4);
    let misses: u64 = r.ce_stats.iter().map(|(_, s)| s.tlb_misses).sum();
    assert_eq!(misses, 8);
    let hard: u64 = r.ce_stats.iter().map(|(_, s)| s.page_faults).sum();
    assert_eq!(hard, 4);
    // The soft-faulting CE pays far less than the hard-faulting one.
    let s0 = r.ce_stats.iter().find(|(c, _)| c.0 == 0).unwrap().1;
    let s8 = r.ce_stats.iter().find(|(c, _)| c.0 == 8).unwrap().1;
    assert!(
        s0.vm_cycles > 10 * s8.vm_cycles,
        "{} vs {}",
        s0.vm_cycles,
        s8.vm_cycles
    );
}

#[test]
fn vm_disabled_takes_no_faults() {
    let mut m = Machine::cedar().unwrap();
    let mut b = ProgramBuilder::new();
    b.repeat(4, |b| {
        b.push(Op::ScalarGlobalRead {
            addr: AddressExpr::new(0).with_coeff(0, 512),
        });
    });
    let r = m.run(vec![(CeId(0), b.build())], 1_000_000).unwrap();
    assert_eq!(
        m.page_table().hard_faults() + m.page_table().soft_faults(),
        0
    );
    assert_eq!(r.ce_stats[0].1.tlb_misses, 0);
}

#[test]
fn gather_is_slower_than_strided_direct_reads() {
    // Gathers hit pseudo-random modules with the same 2-outstanding
    // limit; they cannot be prefetched, so they pay full latency per
    // element like direct reads, with extra module-conflict exposure.
    let run = |gather: bool| -> u64 {
        let mut m = Machine::cedar().unwrap();
        let mut b = ProgramBuilder::new();
        b.repeat(8, |b| {
            let operand = if gather {
                MemOperand::GlobalGather {
                    addr: AddressExpr::new(0),
                }
            } else {
                MemOperand::GlobalRead {
                    addr: AddressExpr::new(0).with_coeff(0, 32),
                    stride: 1,
                }
            };
            b.vector(vec_op(32, 2, operand));
        });
        m.run(vec![(CeId(0), b.build())], LIMIT).unwrap().cycles
    };
    let strided = run(false);
    let gathered = run(true);
    // Same request count; similar latency-bound timing.
    let ratio = gathered as f64 / strided as f64;
    assert!(
        (0.8..=1.5).contains(&ratio),
        "gather/strided ratio {ratio:.2} ({gathered} vs {strided})"
    );
}

#[test]
fn scatter_writes_complete_and_spread_modules() {
    let mut m = Machine::cedar().unwrap();
    let mut b = ProgramBuilder::new();
    b.vector(vec_op(
        64,
        0,
        MemOperand::GlobalScatter {
            addr: AddressExpr::new(1000),
        },
    ));
    b.push(Op::Fence);
    let r = m.run(vec![(CeId(0), b.build())], LIMIT).unwrap();
    assert_eq!(r.memory.requests, 64);
    assert!(r.cycles >= 64);
}

#[test]
fn gather_addresses_are_deterministic_across_runs() {
    let run = || -> u64 {
        let mut m = Machine::cedar().unwrap();
        let mut progs = Vec::new();
        for ce in 0..8usize {
            let mut b = ProgramBuilder::new();
            b.repeat(16, |b| {
                b.vector(vec_op(
                    32,
                    1,
                    MemOperand::GlobalGather {
                        addr: AddressExpr::new((ce * 100_003) as u64).with_coeff(0, 64),
                    },
                ));
            });
            progs.push((CeId(ce), b.build()));
        }
        m.run(progs, LIMIT).unwrap().cycles
    };
    assert_eq!(run(), run());
}

#[test]
fn nested_loop_indices_drive_addresses() {
    // Two nested Repeats; the inner vector op's address depends on both
    // levels. We verify via module request counts: each (i, j) pair
    // touches a distinct address, so the memory sees exactly
    // outer×inner×len requests.
    let mut m = Machine::cedar().unwrap();
    let mut b = ProgramBuilder::new();
    b.repeat(3, |b| {
        b.repeat(4, |b| {
            b.vector(vec_op(
                8,
                1,
                MemOperand::GlobalRead {
                    addr: AddressExpr::new(0).with_coeff(0, 1000).with_coeff(1, 100),
                    stride: 1,
                },
            ));
        });
    });
    let r = m.run(vec![(CeId(0), b.build())], LIMIT).unwrap();
    assert_eq!(r.memory.requests, 3 * 4 * 8);
    assert_eq!(r.flops, 3 * 4 * 8);
}

#[test]
fn scalar_flops_run_at_the_configured_rate() {
    let mut m = Machine::cedar().unwrap();
    let mut b = ProgramBuilder::new();
    b.push(Op::ScalarFlops {
        flops: 1000,
        cycles_per_flop: 4,
    });
    let r = m.run(vec![(CeId(0), b.build())], LIMIT).unwrap();
    assert_eq!(r.flops, 1000);
    assert!(r.cycles >= 4000 && r.cycles < 4020, "cycles={}", r.cycles);
}

#[test]
fn prefetch_rewind_reuses_buffered_data_without_new_requests() {
    let mut m = Machine::cedar().unwrap();
    let mut b = ProgramBuilder::new();
    b.push(Op::PrefetchArm {
        length: 32,
        stride: 1,
    });
    b.push(Op::PrefetchFire {
        base: AddressExpr::new(0),
    });
    b.vector(vec_op(32, 2, MemOperand::Prefetched));
    b.push(Op::PrefetchRewind);
    b.vector(vec_op(32, 2, MemOperand::Prefetched));
    let r = m.run(vec![(CeId(0), b.build())], LIMIT).unwrap();
    // Two consumptions, one fetch.
    assert_eq!(r.prefetch.requests, 32);
    assert_eq!(r.flops, 2 * 64);
}

#[test]
fn cluster_write_then_read_hits_the_cache() {
    let mut m = Machine::cedar().unwrap();
    let mut b = ProgramBuilder::new();
    b.vector(vec_op(
        64,
        0,
        MemOperand::ClusterWrite {
            addr: AddressExpr::new(0),
            stride: 1,
        },
    ));
    b.scalar(200); // let fills land
    b.vector(vec_op(
        64,
        2,
        MemOperand::ClusterRead {
            addr: AddressExpr::new(0),
            stride: 1,
        },
    ));
    let r = m.run(vec![(CeId(0), b.build())], LIMIT).unwrap();
    let c = r.cache[0];
    // The write allocated 16 lines; the read hits all 64 words.
    assert!(c.hits >= 64, "hits={}", c.hits);
    assert!(c.misses <= 16, "misses={}", c.misses);
}

#[test]
fn sdoall_counter_used_directly_partitions_by_cluster() {
    let mut m = Machine::cedar().unwrap();
    let counter = m.alloc_counter(CounterScope::SdoallGlobal);
    let mut progs = Vec::new();
    for ce in 0..16usize {
        let mut b = ProgramBuilder::new();
        b.self_sched(counter, 12, 1, |b| {
            b.vector(vec_op(4, 1, MemOperand::None));
        });
        progs.push((CeId(ce), b.build()));
    }
    let r = m.run(progs, LIMIT).unwrap();
    // 12 iterations, each executed by all 8 CEs of the claiming cluster.
    assert_eq!(r.flops, 12 * 8 * 4);
}
