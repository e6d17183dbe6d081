//! The benchmark's workloads. Each is a fixed set of simulations with a
//! reason to exist (README.md has one sentence per workload); together
//! they cover every layer at least twice and give each optimisation a
//! workload that exercises it and one that bypasses it.

use cedar::machine::machine::{Machine, RunReport};
use cedar::machine::MachineStats;

use crate::layers::Probe;

mod ckpt_chain;
mod par2_rank64;
mod perfect_suite;
mod ppt4_cg;
mod resilience;
mod sync_storm;
mod table1_rank64;

/// Generates a workload's inputs from `(seed, smoke)`; `smoke` shrinks
/// it to a fraction of a second (same points, same checks).
type Build = fn(u64, bool) -> Box<dyn Workload>;

/// Every workload, in report order: name, `(sweep threads, simulation
/// threads)`, constructor. The paper workloads' inputs are the paper's,
/// so they ignore the seed.
const REGISTRY: [(&str, (usize, usize), Build); 7] = [
    ("table1_rank64", (1, 1), |_, smoke| {
        Box::new(table1_rank64::Table1Rank64::new(smoke))
    }),
    ("perfect_suite", (2, 1), |_, smoke| {
        Box::new(perfect_suite::PerfectSlice::new(smoke))
    }),
    ("ppt4_cg", (2, 1), |_, smoke| {
        Box::new(ppt4_cg::Ppt4Cg::new(smoke))
    }),
    ("sync_storm", (1, 1), |seed, smoke| {
        Box::new(sync_storm::SyncStorm::new(seed, smoke))
    }),
    ("resilience", (2, 1), |seed, smoke| {
        Box::new(resilience::Resilience::new(seed, smoke))
    }),
    ("ckpt_chain", (1, 1), |_, smoke| {
        Box::new(ckpt_chain::CkptChain::new(smoke))
    }),
    ("par2_rank64", (1, par2_rank64::THREADS), |_, smoke| {
        Box::new(par2_rank64::Par2Rank64::new(smoke))
    }),
];

/// Every workload's name and `(sweep threads, simulation threads)`, in
/// report order.
pub fn all() -> impl Iterator<Item = (&'static str, (usize, usize))> {
    REGISTRY.iter().map(|&(name, threads, _)| (name, threads))
}

/// `(sweep threads, simulation threads)` workload `name` runs with.
pub fn threads(name: &str) -> Option<(usize, usize)> {
    all().find(|&(n, _)| n == name).map(|(_, threads)| threads)
}

/// Generate workload `name`'s inputs from `seed`.
pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Box<dyn Workload>> {
    REGISTRY
        .iter()
        .find(|&&(n, _, _)| n == name)
        .map(|&(_, _, build)| build(seed, smoke))
}

/// What one repetition did. A point is one simulation (or one chain of
/// simulations) with its own output check; it fails if it returns an
/// error, hits its cycle limit, or fails that check.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Rep {
    /// Simulated cycles, summed over the repetition's passing points.
    /// Must be identical on every repetition of a workload.
    pub cycles: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Rep {
    /// Record one point: its simulated cycles when it passed, `None`
    /// when it failed.
    pub fn point(&mut self, passed: Option<u64>) {
        self.attempted += 1;
        match passed {
            Some(cycles) => self.cycles += cycles,
            None => self.failed += 1,
        }
    }
}

pub trait Workload {
    /// The workload's points in the harness's own one-thread loop, every
    /// simulation through `probe`. For the workloads whose timed form is
    /// an experiment driver this is a replica built from the same public
    /// pieces; its `Rep::cycles` must equal the driver's.
    fn run_serial(&self, probe: &mut Probe) -> Rep;

    /// One untraced repetition the way a user runs it.
    fn run(&self) -> Rep {
        self.run_serial(&mut Probe::new(false))
    }
}

/// Everything a run can leak about its execution: cycle count, a digest
/// of the persistent memory state, and the full stats tree. Two engines
/// (or an interrupted and an uninterrupted run) agree iff these do.
#[derive(Debug, PartialEq)]
pub struct Fingerprint {
    cycles: u64,
    memory: u64,
    stats: MachineStats,
}

impl Fingerprint {
    pub fn of(m: &Machine, r: &RunReport) -> Fingerprint {
        Fingerprint {
            cycles: r.cycles,
            memory: m.memory_digest(),
            stats: r.stats.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, shrunk: the repetition as a user runs it and the
    /// harness's traced serial loop both pass their output checks and
    /// simulate the same cycles — for the driver-owned workloads that is
    /// the replica reproducing the driver.
    #[test]
    fn every_workload_passes_its_checks_and_its_replica_agrees() {
        // `ckpt_chain` writes its snapshots under `benchmark/out/`,
        // relative to the repository root like `run.sh`.
        std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).unwrap();
        std::env::set_var("CEDAR_SWEEP_THREADS", "2");
        for (name, _) in all() {
            let w = build(name, 7, true).unwrap();
            let as_run = w.run();
            let mut probe = Probe::new(true);
            let traced = w.run_serial(&mut probe);
            assert!(as_run.attempted > 0, "{name}");
            assert_eq!((as_run.failed, traced.failed), (0, 0), "{name}");
            assert_eq!(as_run, traced, "{name}");
            assert_eq!(
                probe.metrics()["sim.cycles"],
                as_run.cycles as f64,
                "{name}"
            );
        }
        assert!(build("no_such_workload", 7, true).is_none());
    }
}
