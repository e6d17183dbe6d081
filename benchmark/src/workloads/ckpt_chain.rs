//! Checkpointed runs killed and resumed: the Table 1 GM/cache row on one
//! to four clusters, auto-checkpointing to file every 2 000 cycles, each
//! run cut off by its cycle limit at ¼, ½ and ¾ of its length and
//! continued with `resume_from_file` on a fresh machine. At every cut
//! the stopped machine is also checkpointed to memory and restored from
//! that image a few dozen times, so serialising and deserialising
//! machine state — not waiting for the disk, whose `fsync` time is noise
//! here — is most of the work. Writes beside reads: a change to how
//! machine state is described or serialised shows here and nowhere else.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use cedar::kernels::staged::rank64::{Rank64, Rank64Version};
use cedar::machine::machine::Machine;
use cedar::machine::{MachineConfig, MachineError};

use super::{Fingerprint, Rep, Workload};
use crate::layers::Probe;

const LIMIT: u64 = 8_000_000_000;
pub struct CkptChain {
    kernel: Rank64,
    /// Auto-checkpoint interval, cycles.
    every: u64,
    /// In-memory checkpoint/restore round trips at each cut.
    round_trips: u32,
    /// Fingerprint of the uninterrupted, uncheckpointed run per cluster
    /// count: what every chain must reproduce.
    reference: Vec<Fingerprint>,
    /// Scratch directory for the snapshot files, removed on drop.
    dir: PathBuf,
}

/// What the in-memory round trips of one repetition cost.
#[derive(Default)]
struct RoundTripCosts {
    trips: u32,
    save: Duration,
    load: Duration,
    /// Size of the largest image (the 4-cluster machine's).
    image_bytes: usize,
}

impl CkptChain {
    /// The paper's inputs; the seed has nothing to vary.
    ///
    /// # Panics
    ///
    /// When a reference run fails: without it there is nothing to check
    /// the chains against.
    pub fn new(smoke: bool) -> CkptChain {
        // The interval must stay below a quarter of the shortest run, or
        // the first cut finds no snapshot to resume from.
        let (n, every, round_trips) = if smoke { (32, 200, 2) } else { (96, 2_000, 24) };
        let kernel = Rank64 {
            n,
            k: 64,
            version: Rank64Version::GmCache,
        };
        let reference = (1..=4usize)
            .map(|clusters| {
                let mut m = Machine::new(MachineConfig::cedar_with_clusters(clusters))
                    .expect("cedar config");
                let programs = kernel.build(&mut m, clusters);
                let r = m.run(programs, LIMIT).expect("uninterrupted reference run");
                Fingerprint::of(&m, &r)
            })
            .collect();
        let dir = PathBuf::from(format!("benchmark/out/tmp/ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the snapshot scratch directory");
        CkptChain {
            kernel,
            every,
            round_trips,
            reference,
            dir,
        }
    }

    /// One kill/resume chain; the final report's cycles when the chain
    /// reproduced the reference.
    fn chain(&self, probe: &mut Probe, clusters: usize, costs: &mut RoundTripCosts) -> Option<u64> {
        let point = clusters - 1;
        let reference = &self.reference[point];
        let snap = self.dir.join(format!("p{clusters}.snap"));
        let _ = std::fs::remove_file(&snap);
        let cfg =
            || MachineConfig::cedar_with_clusters(clusters).with_checkpoint(self.every, &snap);
        let total = reference.cycles;
        let mut resume = None;
        for kill_at in [total / 4, total / 2, 3 * total / 4] {
            let (cut, mut m) = probe
                .simulate(point, cfg(), kill_at, resume, "kernels.build", |m| {
                    self.kernel.build(m, clusters)
                })
                .ok()?;
            if !matches!(cut, Err(MachineError::CycleLimitExceeded { .. })) {
                return None;
            }
            self.round_trip(&mut m, costs)?;
            resume = Some(snap.as_path());
        }
        let (done, m) = probe
            .simulate(point, cfg(), LIMIT, resume, "kernels.build", |m| {
                self.kernel.build(m, clusters)
            })
            .ok()?;
        let r = done.ok()?;
        (r.flops == self.kernel.flops() && Fingerprint::of(&m, &r) == *reference)
            .then_some(r.cycles)
    }

    /// `Machine::checkpoint` and `restore` alone, on a machine stopped
    /// mid-run (restored onto itself: only a machine holding the same
    /// loaded programs accepts the image). Every image of a machine must
    /// be the same bytes: restoring changes nothing.
    fn round_trip(&self, m: &mut Machine, costs: &mut RoundTripCosts) -> Option<()> {
        let mut first: Option<Vec<u8>> = None;
        for _ in 0..self.round_trips {
            let mut image = Vec::new();
            let t = Instant::now();
            m.checkpoint(&mut image).ok()?;
            costs.save += t.elapsed();
            let t = Instant::now();
            m.restore(&mut image.as_slice()).ok()?;
            costs.load += t.elapsed();
            costs.trips += 1;
            costs.image_bytes = costs.image_bytes.max(image.len());
            if *first.get_or_insert_with(|| image.clone()) != image {
                return None;
            }
        }
        Some(())
    }
}

impl Workload for CkptChain {
    fn run_serial(&self, probe: &mut Probe) -> Rep {
        let mut rep = Rep::default();
        let mut costs = RoundTripCosts::default();
        for clusters in 1..=4 {
            let open = probe.begin_point(clusters - 1);
            let passed = self.chain(probe, clusters, &mut costs);
            probe.end_point(open);
            rep.point(passed);
        }
        let autosaves: u64 = self.reference.iter().map(|f| f.cycles / self.every).sum();
        probe.set("snapshot.autosaves", autosaves as f64);
        if costs.trips > 0 {
            let per_trip_ms = |d: Duration| d.as_secs_f64() * 1e3 / f64::from(costs.trips);
            probe.set("snapshot.save_ms", per_trip_ms(costs.save));
            probe.set("snapshot.load_ms", per_trip_ms(costs.load));
            probe.set("snapshot.image_bytes", costs.image_bytes as f64);
        }
        rep
    }
}

impl Drop for CkptChain {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
