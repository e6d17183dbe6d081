//! The barrier storm: in every round one CE per cluster computes while
//! its seven siblings wait at a cluster barrier, so almost every cycle
//! is quiescent. Fast-forward, quick ticks and `next_event` do all the
//! work; the omega networks and global memory do none. It is the bypass
//! workload for any network optimisation and the mechanism workload for
//! the event-horizon code.

use cedar::machine::ids::{CeId, ClusterId};
use cedar::machine::machine::Machine;
use cedar::machine::program::{MemOperand, Op, Program, ProgramBuilder, VectorOp};
use cedar::machine::sched::BarrierScope;
use cedar::machine::MachineConfig;

use super::{Rep, Workload};
use crate::layers::Probe;
use crate::rng::Rng;

const LIMIT: u64 = 100_000_000_000;
/// Elements of the waiters' token vector op, two flops each.
const WAITER_ELEMENTS: u32 = 16;

pub struct SyncStorm {
    /// Compute length of each block's leader, in cycles.
    work: Vec<u32>,
    /// Barrier rounds per block.
    rounds: u32,
}

impl SyncStorm {
    /// Block work lengths drawn from `seed`, then scaled so they sum to
    /// the same total on every seed: host time follows the number of
    /// rounds and simulated time the total work, so the rate does not
    /// depend on the draw.
    pub fn new(seed: u64, smoke: bool) -> SyncStorm {
        let (blocks, rounds, total_work) = if smoke {
            (8, 50, 400_000u64)
        } else {
            (32, 4_000, 1_600_000u64)
        };
        let mut rng = Rng::new(seed);
        let weights: Vec<u64> = (0..blocks).map(|_| 1 + rng.below(8)).collect();
        let sum: u64 = weights.iter().sum();
        let mut work: Vec<u32> = weights
            .iter()
            .map(|w| (total_work * w / sum) as u32)
            .collect();
        let assigned: u64 = work.iter().map(|&w| u64::from(w)).sum();
        work[0] += (total_work - assigned) as u32;
        SyncStorm { work, rounds }
    }

    fn build(&self, m: &mut Machine) -> Vec<(CeId, Program)> {
        let clusters = m.config().clusters;
        let cpc = m.config().ces_per_cluster;
        let barriers: Vec<_> = (0..clusters)
            .map(|c| m.alloc_barrier(BarrierScope::Cluster(ClusterId(c)), cpc as u32))
            .collect();
        (0..clusters * cpc)
            .map(|ce| {
                let mut b = ProgramBuilder::new();
                for &work in &self.work {
                    b.repeat(self.rounds, |b| {
                        if ce % cpc == 0 {
                            b.scalar(work);
                        } else {
                            b.vector(VectorOp {
                                length: WAITER_ELEMENTS,
                                flops_per_element: 2,
                                operand: MemOperand::None,
                            });
                        }
                        b.push(Op::Barrier {
                            barrier: barriers[ce / cpc],
                        });
                    });
                }
                (CeId(ce), b.build())
            })
            .collect()
    }

    fn flops(&self, cfg: &MachineConfig) -> u64 {
        let waiters = (cfg.clusters * (cfg.ces_per_cluster - 1)) as u64;
        waiters * self.work.len() as u64 * u64::from(self.rounds) * u64::from(WAITER_ELEMENTS) * 2
    }
}

impl Workload for SyncStorm {
    fn run_serial(&self, probe: &mut Probe) -> Rep {
        let cfg = MachineConfig::cedar();
        let flops = self.flops(&cfg);
        let mut rep = Rep::default();
        let open = probe.begin_point(0);
        let report = probe
            .simulate(0, cfg, LIMIT, None, "kernels.build", |m| self.build(m))
            .and_then(|(r, _)| r);
        probe.end_point(open);
        rep.point(report.ok().filter(|r| r.flops == flops).map(|r| r.cycles));
        rep
    }
}
