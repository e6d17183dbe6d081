//! Shared helpers for the cross-crate integration tests.

use cedar_kernels::staged::rank64::{Rank64, Rank64Version};
use cedar_machine::machine::Machine;
use cedar_machine::stats::export::{chrome_trace_with_journeys, flat_text};
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
