//! Fault-injection integration tests.
//!
//! Three contracts, in order of importance:
//!
//! 1. **Disabled faults are invisible.** A zero-rate [`FaultPlan`] must
//!    leave every fingerprint — cycles, memory digest, the full stats
//!    registry — byte-identical to a run with no plan at all.
//! 2. **Enabled faults are deterministic.** A fixed plan produces
//!    bit-identical fingerprints whatever the thread count, and the same
//!    fingerprint as the reference machine, which ticks every cycle
//!    where the engine fast-forwards; the injected drops are a function
//!    of the plan, not of the host.
//! 3. **Recovery is complete.** Every doomed packet is eventually
//!    retried to completion (run finishes, controllers drained, packet
//!    conservation holds at quiesce, final memory state matches the
//!    healthy run) or surfaces as a structured error.

use proptest::prelude::*;

use cedar_integration::{assert_matches_reference, rank64_fingerprint};
use cedar_kernels::staged::rank64::{Rank64, Rank64Version};
use cedar_machine::machine::Machine;
use cedar_machine::stats::export::flat_text;
use cedar_machine::{
    FaultPlan, LinkOutage, MachineConfig, MachineError, MachineStats, ModuleOutage,
};

/// Everything a run can leak: cycle count, persistent-memory digest, and
/// the full stats-counter tree.
#[derive(Debug)]
struct Fingerprint {
    cycles: u64,
    memory: u64,
    stats: MachineStats,
}

fn run_rank64(cfg: MachineConfig, n: u32) -> cedar_machine::Result<Fingerprint> {
    run_rank64_version(cfg, n, Rank64Version::GmPrefetch { block_words: 32 })
}

fn run_rank64_version(
    cfg: MachineConfig,
    n: u32,
    version: Rank64Version,
) -> cedar_machine::Result<Fingerprint> {
    let clusters = cfg.clusters;
    let mut m = Machine::new(cfg)?;
    let kern = Rank64 { n, k: 64, version };
    let progs = kern.build(&mut m, clusters);
    let r = m.run(progs, 1_000_000_000)?;
    Ok(Fingerprint {
        cycles: r.cycles,
        memory: m.memory_digest(),
        stats: r.stats,
    })
}

fn assert_identical(label: &str, base: &Fingerprint, got: &Fingerprint) {
    assert_eq!(base.cycles, got.cycles, "{label}: cycle counts differ");
    assert_eq!(base.memory, got.memory, "{label}: memory digests differ");
    if base.stats != got.stats {
        let diff: Vec<String> = flat_text(&base.stats)
            .lines()
            .zip(flat_text(&got.stats).lines())
            .filter(|(a, b)| a != b)
            .map(|(a, b)| format!("  base: {a}\n  got:  {b}"))
            .collect();
        panic!("{label}: stats trees differ:\n{}", diff.join("\n"));
    }
}

/// A plan that cannot fire is treated exactly like no plan: same cycles,
/// same memory, and the same stats registry — no fault counters, no
/// retry controllers, no sequence numbers anywhere in the fingerprint.
#[test]
fn zero_rate_plan_is_byte_identical_to_no_plan() {
    let plain = run_rank64(MachineConfig::cedar_with_clusters(2), 64).unwrap();
    let zeroed = run_rank64(
        MachineConfig::cedar_with_clusters(2).with_faults(FaultPlan::none(0xDEAD_BEEF)),
        64,
    )
    .unwrap();
    assert_identical("zero-rate plan", &plain, &zeroed);
    assert_eq!(
        flat_text(&plain.stats),
        flat_text(&zeroed.stats),
        "a disabled plan must not add stats keys"
    );
}

fn faulty_plan() -> FaultPlan {
    FaultPlan {
        drop_per_million: 2_000,
        nack_per_million: 1_000,
        module_outages: vec![ModuleOutage {
            module: 3,
            from: 1_000,
            until: 3_000,
        }],
        ..FaultPlan::none(0xCEDA_0001)
    }
}

/// The tentpole determinism guarantee: one fixed faulty plan, the
/// fast-forwarding engine at 1/2/4 threads and the every-cycle reference,
/// one fingerprint. The drops and NACKs land on exactly the same packets
/// everywhere because every decision hashes `(seed, site, sequence)`,
/// never host state.
#[test]
fn faulty_plan_is_deterministic_across_threads_and_fastforward() {
    let cfg = MachineConfig::cedar_with_clusters(4).with_faults(faulty_plan());
    let version = Rank64Version::GmPrefetch { block_words: 32 };
    let base = rank64_fingerprint(cfg.clone(), version, true);
    assert!(
        base.stats.counter("net.fwd.drops") > 0,
        "the plan was meant to actually drop packets"
    );
    for threads in [1, 2, 4] {
        let got = rank64_fingerprint(cfg.clone().with_threads(threads), version, false);
        assert_matches_reference(&format!("{threads} threads"), &base, &got);
    }
}

/// Transient faults slow the run down but never change its answer: the
/// final memory digest under faults matches the healthy run's.
#[test]
fn faulty_run_converges_to_the_healthy_answer() {
    let clean = run_rank64(MachineConfig::cedar_with_clusters(4), 64).unwrap();
    let faulty = run_rank64(
        MachineConfig::cedar_with_clusters(4).with_faults(faulty_plan()),
        64,
    )
    .unwrap();
    assert_eq!(
        clean.memory, faulty.memory,
        "recovery must reproduce the healthy final memory state"
    );
    assert!(
        faulty.cycles > clean.cycles,
        "recovery is not free: {} faulty vs {} clean cycles",
        faulty.cycles,
        clean.cycles
    );
}

/// A scheduled link outage refuses injections (counted), a scheduled
/// module outage answers with NACKs (counted); both windows end and the
/// run still completes.
#[test]
fn scheduled_outages_are_survivable_and_counted() {
    let plan = FaultPlan {
        link_outages: vec![LinkOutage {
            port: 0,
            from: 500,
            until: 2_500,
        }],
        module_outages: vec![ModuleOutage {
            module: 0,
            from: 500,
            until: 4_000,
        }],
        ..FaultPlan::none(1)
    };
    let fp = run_rank64(MachineConfig::cedar_with_clusters(2).with_faults(plan), 64).unwrap();
    assert!(
        fp.stats.counter("net.fwd.link_blocked") > 0,
        "the downed port should have refused at least one injection"
    );
    assert!(
        fp.stats.counter("gmem.nacks") > 0,
        "the offline module should have NACKed at least one request"
    );
    // Prefetch NACKs are recovered by the prefetch unit's timeout (the
    // reply is simply discarded), so the controllers see at most — not
    // exactly — the module's NACK count.
    assert!(
        fp.stats.counter("fault.nacks") <= fp.stats.counter("gmem.nacks"),
        "controllers cannot observe more NACKs than the modules issued"
    );
    assert!(
        fp.stats.counter("fault.retries") + fp.stats.counter("prefetch.retries") > 0,
        "surviving the outage should have taken at least one retry"
    );
}

/// The link-outage path on two lanes: the outage's two transitions write
/// both networks, so each refuses the early memory tick of the cycle
/// before it; `net.fwd.link_blocked` — and everything downstream of the
/// stalled CE — must match the one-thread run exactly.
#[test]
fn link_outages_are_deterministic_across_threads() {
    let plan = || FaultPlan {
        link_outages: vec![LinkOutage {
            port: 0,
            from: 500,
            until: 2_500,
        }],
        ..FaultPlan::none(7)
    };
    let base = run_rank64(
        MachineConfig::cedar_with_clusters(2).with_faults(plan()),
        64,
    )
    .unwrap();
    assert!(
        base.stats.counter("net.fwd.link_blocked") > 0,
        "the downed port should have refused at least one injection"
    );
    for threads in [2usize, 4] {
        let got = run_rank64(
            MachineConfig::cedar_with_clusters(2)
                .with_threads(threads)
                .with_faults(plan()),
            64,
        )
        .unwrap();
        assert_identical(&format!("{threads} threads"), &base, &got);
    }
}

/// A module that never comes back exhausts the bounded retries and
/// surfaces as a structured `Faulted` error naming the stuck CE — not a
/// hang, not a panic. The no-prefetch kernel keeps the traffic on the
/// CE's sequenced retry controller (the prefetch unit retries without a
/// bound and would instead ride the run into its cycle budget).
#[test]
fn permanent_outage_exhausts_retries_into_a_faulted_error() {
    let plan = FaultPlan {
        module_outages: vec![ModuleOutage {
            module: 0,
            from: 0,
            until: u64::MAX,
        }],
        max_retries: 2,
        ..FaultPlan::none(2)
    };
    let err = run_rank64_version(
        MachineConfig::cedar_with_clusters(1).with_faults(plan),
        64,
        Rank64Version::GmNoPrefetch,
    )
    .unwrap_err();
    match err {
        MachineError::Faulted { ref reason, .. } => {
            assert!(
                reason.contains("attempts"),
                "reason should mention the exhausted attempts: {reason}"
            );
        }
        other => panic!("expected MachineError::Faulted, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Conservation at quiesce, for arbitrary seeds and rates: the run
    /// completes (every drop was retried to completion — the machine is
    /// not done while any controller holds an op), both networks satisfy
    /// `injected = delivered + dropped`, and the final memory state is
    /// the healthy one.
    #[test]
    fn drops_are_always_retried_to_completion(
        seed in 0u64..u64::MAX,
        drop_ppm in 200u32..5_000,
    ) {
        let plan = FaultPlan {
            drop_per_million: drop_ppm,
            nack_per_million: drop_ppm / 2,
            ..FaultPlan::none(seed)
        };
        let clean = run_rank64(MachineConfig::cedar_with_clusters(2), 64).unwrap();
        let fp = run_rank64(
            MachineConfig::cedar_with_clusters(2).with_faults(plan),
            64,
        )
        .unwrap();
        for net in ["net.fwd", "net.rev"] {
            let injected = fp.stats.counter(&format!("{net}.packets_injected"));
            let delivered = fp.stats.counter(&format!("{net}.packets_delivered"));
            let dropped = fp.stats.counter(&format!("{net}.drops"));
            prop_assert_eq!(
                injected,
                delivered + dropped,
                "{} leaked packets at quiesce",
                net
            );
        }
        prop_assert_eq!(fp.memory, clean.memory);
    }
}
