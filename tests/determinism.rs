//! Determinism / equivalence tests for two-lane execution.
//!
//! The two-lane run loop (`MachineConfig::num_threads > 1`) promises
//! bit-for-bit equivalence with the single-threaded simulator: identical
//! cycle counts, identical final memory state, and an identical
//! stats-counter tree, whatever the thread count. These tests pin that
//! guarantee on the workloads the paper's tables are built from: the
//! rank-64 update (Table 1 rows: every memory version at every cluster
//! count) and a Perfect-benchmark code compiled through the Fortran
//! pipeline.
//!
//! The guarantee extends to fault injection: when `CEDAR_FAULT_SEED` is
//! set (CI's faults leg), every workload here reruns with a transient
//! fault plan at that seed, and the equivalence assertions then cover
//! the drop/NACK/retry machinery too — injected faults are part of the
//! fingerprint, so they must land on the same packets at every thread
//! count. The same mechanism covers journey tracing: CI's tracing leg
//! sets `CEDAR_TRACE_SAMPLE_PPM`, and the `trace.*` stats keys then join
//! the fingerprint.

use cedar_fortran::compile::Backend;
use cedar_fortran::restructure::{Level, Restructurer};
use cedar_kernels::staged::rank64::{Rank64, Rank64Version};
use cedar_machine::config::{fault_seed_from_env, trace_plan_from_env};
use cedar_machine::machine::Machine;
use cedar_machine::stats::export::flat_text;
use cedar_machine::{FaultPlan, MachineConfig, MachineStats};

/// CI's faults leg: `CEDAR_FAULT_SEED` turns every determinism workload
/// into a faulty one (2000 ppm drops, 1000 ppm NACKs at that seed). A
/// garbage value is a hard error — the strict parser, pinned separately
/// in `env_knobs.rs`, forbids silently running a different plan.
fn with_env_faults(cfg: MachineConfig) -> MachineConfig {
    match fault_seed_from_env().expect("CEDAR_FAULT_SEED must be a u64") {
        Some(seed) => cfg.with_faults(FaultPlan {
            drop_per_million: 2_000,
            nack_per_million: 1_000,
            ..FaultPlan::none(seed)
        }),
        None => cfg,
    }
}

/// CI's tracing leg: `CEDAR_TRACE_SAMPLE_PPM` (with `CEDAR_TRACE_SEED`)
/// turns every determinism workload into a traced one. Sampled journeys
/// land in the `trace.*` stats keys, so the equivalence assertions then
/// cover the tracing layer's cross-thread merge too.
fn with_env_knobs(cfg: MachineConfig) -> MachineConfig {
    let cfg = with_env_faults(cfg);
    match trace_plan_from_env().expect("CEDAR_TRACE_* must be valid") {
        Some(plan) => cfg.with_trace(plan),
        None => cfg,
    }
}
use cedar_perfect::codes::{spec, CodeName};
use cedar_xylem::costs::XylemCosts;

/// Everything a run can leak about its execution: cycle count, a digest
/// of the persistent memory state (global sync words + cache tag arrays),
/// and the full stats-counter tree.
struct Fingerprint {
    cycles: u64,
    memory: u64,
    stats: MachineStats,
}

/// Compare `got` (run on `threads` threads) against the single-threaded
/// `base`, with a readable counter diff on mismatch.
fn assert_equivalent(label: &str, threads: usize, base: &Fingerprint, got: &Fingerprint) {
    assert_eq!(
        base.cycles, got.cycles,
        "{label}: {threads}-thread run took {} cycles, serial took {}",
        got.cycles, base.cycles
    );
    assert_eq!(
        base.memory, got.memory,
        "{label}: {threads}-thread run left different memory state"
    );
    if base.stats != got.stats {
        let serial = flat_text(&base.stats);
        let parallel = flat_text(&got.stats);
        let diff: Vec<String> = serial
            .lines()
            .zip(parallel.lines())
            .filter(|(a, b)| a != b)
            .map(|(a, b)| format!("  serial:   {a}\n  {threads}-thread: {b}"))
            .collect();
        panic!(
            "{label}: {threads}-thread stats tree differs from serial:\n{}",
            diff.join("\n")
        );
    }
}

fn run_rank64(clusters: usize, threads: usize, version: Rank64Version, n: u32) -> Fingerprint {
    let cfg = with_env_knobs(MachineConfig::cedar_with_clusters(clusters).with_threads(threads));
    let mut m = Machine::new(cfg).unwrap();
    let kern = Rank64 { n, k: 64, version };
    let progs = kern.build(&mut m, clusters);
    let r = m.run(progs, 1_000_000_000).unwrap();
    Fingerprint {
        cycles: r.cycles,
        memory: m.memory_digest(),
        stats: r.stats,
    }
}

/// The headline guarantee: the rank-64 kernel on the full machine is
/// bit-identical at 1, 2 and 4 threads.
#[test]
fn rank64_is_deterministic_across_thread_counts() {
    let version = Rank64Version::GmPrefetch { block_words: 32 };
    let base = run_rank64(4, 1, version, 64);
    assert!(base.cycles > 0);
    for threads in [2, 4] {
        let got = run_rank64(4, threads, version, 64);
        assert_equivalent("rank64 gm+prefetch", threads, &base, &got);
    }
}

/// Every Table 1 row (memory version × cluster count, at test scale)
/// produces the same fingerprint on two lanes, whatever thread count
/// asked for them.
#[test]
fn table1_rows_are_deterministic() {
    for version in [
        Rank64Version::GmNoPrefetch,
        Rank64Version::GmPrefetch { block_words: 32 },
        Rank64Version::GmCache,
    ] {
        let label = format!("table1 {version:?} x4 clusters");
        let base = run_rank64(4, 1, version, 64);
        for threads in [2, 3, 4] {
            let got = run_rank64(4, threads, version, 64);
            assert_equivalent(&label, threads, &base, &got);
        }
    }
    // A partial machine.
    let version = Rank64Version::GmCache;
    let base = run_rank64(3, 1, version, 64);
    let got = run_rank64(3, 2, version, 64);
    assert_equivalent("table1 GmCache x3 clusters", 2, &base, &got);
}

/// Thread counts beyond the two lanes are capped, not an error: an
/// 8-thread request behaves like 2 threads.
#[test]
fn excess_threads_are_capped_at_the_cluster_count() {
    let version = Rank64Version::GmPrefetch { block_words: 32 };
    let base = run_rank64(4, 1, version, 32);
    let got = run_rank64(4, 8, version, 32);
    assert_equivalent("rank64 with excess threads", 8, &base, &got);
}

fn run_perfect(code: CodeName, threads: usize) -> Fingerprint {
    let clusters = 4;
    let src = spec(code).to_source();
    let compiled = Restructurer::default().restructure(&src, Level::Automatable);
    let backend = Backend::new(XylemCosts::cedar());
    let cfg = with_env_knobs(MachineConfig::cedar_with_clusters(clusters).with_threads(threads));
    let mut m = Machine::new(cfg).unwrap();
    let progs = backend.lower(&compiled, &mut m, clusters);
    let r = m.run(progs, 4_000_000_000).unwrap();
    Fingerprint {
        cycles: r.cycles,
        memory: m.memory_digest(),
        stats: r.stats,
    }
}

/// A Perfect-benchmark code through the full Fortran pipeline (TRFD at
/// the automatable level) is bit-identical at 1, 2 and 4 threads.
#[test]
fn perfect_trfd_is_deterministic_across_thread_counts() {
    let base = run_perfect(CodeName::Trfd, 1);
    assert!(base.cycles > 0);
    for threads in [2, 4] {
        let got = run_perfect(CodeName::Trfd, threads);
        assert_equivalent("perfect TRFD automatable", threads, &base, &got);
    }
}
