//! Equivalence battery for the ahead-of-run program lowering.
//!
//! Every `Machine::new` machine compiles each CE program once into a
//! flat micro-op stream: branch targets resolved, pure scalar/vector
//! runs fused into single bulk-timed micro-ops, pure `Repeat` bodies
//! collapsed into one charge, and prefetch arm+fire pairs glued into a
//! superinstruction. Straight-line timed work is then charged as one
//! stall whose end the engine reports to the fast-forward scheduler, so
//! quiescent CEs tick in O(1). Its contract is *bit-for-bit*
//! equivalence with the tree-walking interpreter, kept verbatim as the
//! reference that `Machine::new_reference` builds and ticks every cycle:
//! the same cycle count, the same memory digest, the same full stats
//! registry — attribution vectors, histograms, journey stamps — at every
//! thread count, under fault injection, under journey tracing and under
//! the VM model.
//!
//! These tests pin that contract on the paper's Table 1 rows and on a
//! Perfect-benchmark code through the full Fortran pipeline. The
//! randomized cross-check on arbitrary generated programs lives in
//! `properties.rs`.

use cedar_fortran::compile::Backend;
use cedar_fortran::restructure::{Level, Restructurer};
use cedar_integration::{
    assert_journeys_match_reference, assert_matches_reference, machine, rank64_fingerprint,
    Fingerprint, LIMIT,
};
use cedar_kernels::staged::rank64::{Rank64, Rank64Version};
use cedar_machine::stats::export::flat_text;
use cedar_machine::{FaultPlan, MachineConfig, TracePlan};
use cedar_perfect::codes::{spec, CodeName};
use cedar_xylem::costs::XylemCosts;

const TABLE1: [Rank64Version; 3] = [
    Rank64Version::GmNoPrefetch,
    Rank64Version::GmPrefetch { block_words: 32 },
    Rank64Version::GmCache,
];

/// Every Table 1 memory version produces a bit-identical fingerprint on
/// the fast-forwarding engine — serially and on two lanes — as on the
/// one-thread, every-cycle reference.
#[test]
fn table1_rows_match_with_lowering_on() {
    let cfg = MachineConfig::cedar_with_clusters(4);
    for version in TABLE1 {
        let base = rank64_fingerprint(cfg.clone(), version, true);
        for threads in [1, 4] {
            let got = rank64_fingerprint(cfg.clone().with_threads(threads), version, false);
            assert_matches_reference(
                &format!("table1 {version:?} x{threads} threads"),
                &base,
                &got,
            );
        }
    }
}

/// A Perfect-benchmark code through the full Fortran pipeline: loops,
/// self-scheduling, barriers and sync ops in one real program, where
/// every lowering fixup (branch targets, frame kinds, chunk epochs) has
/// to hold at once.
#[test]
fn perfect_trfd_matches_with_lowering_on() {
    let clusters = 4;
    let src = spec(CodeName::Trfd).to_source();
    let compiled = Restructurer::default().restructure(&src, Level::Automatable);
    let backend = Backend::new(XylemCosts::cedar());
    let run = |reference: bool, threads: usize| {
        let cfg = MachineConfig::cedar_with_clusters(clusters).with_threads(threads);
        let mut m = machine(cfg, reference);
        let progs = backend.lower(&compiled, &mut m, clusters);
        let r = m.run(progs, LIMIT).unwrap();
        Fingerprint::of(&m, r)
    };
    let base = run(true, 1);
    assert!(base.cycles > 0);
    for threads in [1, 4] {
        let got = run(false, threads);
        assert_matches_reference(&format!("perfect TRFD x{threads} threads"), &base, &got);
    }
}

/// The equivalence survives fault injection: drops and NACKs replay the
/// same retry schedules whether the program is interpreted or lowered,
/// so fault-site sequence counters and recovery stalls stay aligned.
#[test]
fn lowering_matches_interpreter_under_fault_injection() {
    let cfg = MachineConfig::cedar_with_clusters(4).with_faults(FaultPlan {
        drop_per_million: 2_000,
        nack_per_million: 1_000,
        ..FaultPlan::none(0xCEDA)
    });
    let version = Rank64Version::GmPrefetch { block_words: 32 };
    let base = rank64_fingerprint(cfg.clone(), version, true);
    for threads in [1, 4] {
        let got = rank64_fingerprint(cfg.clone().with_threads(threads), version, false);
        assert_matches_reference(&format!("faulty rank64 x{threads} threads"), &base, &got);
    }
}

/// The equivalence survives journey tracing at CI's sampling rate and
/// at an explicit rate of zero: `trace.*` keys join the registry (and
/// hence the fingerprint), so every journey stamp recorded from a flat
/// stream must equal the interpreter's schedule.
#[test]
fn lowering_matches_interpreter_under_tracing() {
    let version = Rank64Version::GmCache;
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

/// Journey hop timestamps survive bulk-charged timed runs and fused
/// arm+fire pairs exactly (the prefetching row is the one that fuses).
#[test]
fn journey_hop_stamps_survive_bulk_timing() {
    assert_journeys_match_reference(4, Rank64Version::GmPrefetch { block_words: 32 });
}

/// The dense prefetching Table 1 kernel actually goes through the
/// compiler: the cached program metadata shows fusion did real work
/// (its arm+fire pairs glue into `ArmFire` superinstructions, so there
/// are strictly fewer micro-ops than source ops).
#[test]
fn dense_kernel_actually_lowers_and_fuses() {
    let clusters = 4;
    let mut m = machine(MachineConfig::cedar_with_clusters(clusters), false);
    let progs = Rank64 {
        n: 64,
        k: 64,
        version: Rank64Version::GmPrefetch { block_words: 32 },
    }
    .build(&mut m, clusters);
    m.run(progs, LIMIT).unwrap();
    let meta = m.program_meta().expect("a completed run caches metadata");
    assert!(meta.source_ops > 0);
    assert!(
        meta.fused_ops > 0,
        "the prefetching kernel must fuse some of its {} ops",
        meta.source_ops
    );
    // Loops expand (Repeat becomes EnterRepeat..LoopEnd), so the stream
    // is not strictly smaller — but fusion must at least beat the loop
    // overhead's 1-op-per-loop expansion.
    assert!(
        meta.uops < 2 * meta.source_ops,
        "micro-op stream blew up: {} uops from {} ops",
        meta.uops,
        meta.source_ops
    );
    assert!(meta.max_loop_depth >= 3, "rank64 nests three loops deep");
    // The same metadata flows into the stats registry for reports.
    let stats = m.stats();
    let text = flat_text(&stats);
    for key in [
        "program.ops",
        "program.uops",
        "program.fused_ops",
        "program.max_loop_depth",
    ] {
        assert!(
            text.lines().any(|l| l.starts_with(key)),
            "stats registry is missing {key}:\n{text}"
        );
    }
}

/// Under the VM model the engine still runs lowered — every memory
/// stream makes the interpreter's TLB and page-table checks, including
/// the cached vector streams the lowered stepper otherwise runs in
/// place — and matches the reference on all three Table 1 rows, page
/// faults and TLB misses included. (Letting that in-place stepper skip
/// the check breaks the GM/cache row, so the flat streams do execute.)
#[test]
fn vm_machines_run_lowered_and_match_the_reference() {
    let mut cfg = MachineConfig::cedar_with_clusters(4);
    cfg.vm.enabled = true;
    for version in TABLE1 {
        let base = rank64_fingerprint(cfg.clone(), version, true);
        let got = rank64_fingerprint(cfg.clone(), version, false);
        let tlb_misses: u64 = base
            .stats
            .counters()
            .filter(|(k, _)| k.ends_with(".tlb_misses"))
            .map(|(_, v)| v)
            .sum();
        assert!(tlb_misses > 0, "{version:?}: the VM model never missed");
        assert_matches_reference(&format!("vm {version:?}"), &base, &got);
    }
}
