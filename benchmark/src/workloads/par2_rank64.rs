//! One machine on two simulation threads: GM/pref and GM/cache at four
//! clusters through the partitioned engine. The same CE / cluster /
//! network code as Table 1, driven through `parallel.rs`; the serial
//! engine's runs of the same kernels are the reference for both the
//! fingerprints and the speedup.

use std::time::{Duration, Instant};

use cedar::kernels::staged::rank64::{Rank64, Rank64Version};
use cedar::machine::machine::Machine;
use cedar::machine::MachineConfig;
use cedar::methodology::{classify_efficiency, Band};

use super::{Fingerprint, Rep, Workload};
use crate::layers::Probe;

const CLUSTERS: usize = 4;
const LIMIT: u64 = 8_000_000_000;
/// Simulation threads of the partitioned engine.
pub const THREADS: usize = 2;

pub struct Par2Rank64 {
    kernels: [Rank64; 2],
    /// The serial engine's fingerprint of each kernel.
    reference: Vec<Fingerprint>,
    /// Wall time of the serial engine's `Machine::run`s, summed.
    serial_run_wall: Duration,
}

impl Par2Rank64 {
    /// The paper's inputs; the seed has nothing to vary.
    ///
    /// # Panics
    ///
    /// When a serial reference run fails.
    pub fn new(smoke: bool) -> Par2Rank64 {
        let n = if smoke { 32 } else { 96 };
        let kernels = [
            Rank64Version::GmPrefetch { block_words: 32 },
            Rank64Version::GmCache,
        ]
        .map(|version| Rank64 { n, k: 64, version });
        let mut serial_run_wall = Duration::ZERO;
        let reference = kernels
            .iter()
            .map(|kernel| {
                let mut m = Machine::new(MachineConfig::cedar_with_clusters(CLUSTERS))
                    .expect("cedar config");
                let programs = kernel.build(&mut m, CLUSTERS);
                let t = Instant::now();
                let r = m.run(programs, LIMIT).expect("serial reference run");
                serial_run_wall += t.elapsed();
                Fingerprint::of(&m, &r)
            })
            .collect();
        Par2Rank64 {
            kernels,
            reference,
            serial_run_wall,
        }
    }
}

impl Workload for Par2Rank64 {
    fn run_serial(&self, probe: &mut Probe) -> Rep {
        let mut rep = Rep::default();
        for (point, (kernel, reference)) in self.kernels.iter().zip(&self.reference).enumerate() {
            let cfg = MachineConfig::cedar_with_clusters(CLUSTERS).with_threads(THREADS);
            let open = probe.begin_point(point);
            let done = probe.simulate(point, cfg, LIMIT, None, "kernels.build", |m| {
                kernel.build(m, CLUSTERS)
            });
            probe.end_point(open);
            rep.point(match done {
                Ok((Ok(r), m))
                    if r.flops == kernel.flops() && Fingerprint::of(&m, &r) == *reference =>
                {
                    Some(r.cycles)
                }
                _ => None,
            });
        }
        // Judged with the paper's own yardstick: the PPT bands on the
        // host threads used.
        let speedup = self.serial_run_wall.as_secs_f64() / probe.run_wall().as_secs_f64();
        let efficiency = speedup / THREADS as f64;
        probe.set("parallel.speedup_vs_serial", speedup);
        probe.set("parallel.efficiency", efficiency);
        probe.set(
            "parallel.ppt_band",
            match classify_efficiency(efficiency, THREADS as u32) {
                Band::High => 2.0,
                Band::Intermediate => 1.0,
                Band::Unacceptable => 0.0,
            },
        );
        rep
    }
}
