//! Table 1 as `cedar::experiments::table1::run` computes it: the rank-64
//! update in three memory versions on one to four clusters, serial
//! engine. Network- and module-bound (the omega networks take most of
//! the host time and fast-forward skips almost nothing), and it carries
//! the GM/pref fidelity gap.

use cedar::kernels::staged::rank64::{Rank64, Rank64Version};
use cedar::machine::MachineConfig;
use cedar::perfect::reference::paper;

use super::{Rep, Workload};
use crate::layers::Probe;
use crate::paper::mean_abs_rel_err_pct;

/// The driver's own per-point cycle budget.
const LIMIT: u64 = 8_000_000_000;

pub struct Table1Rank64 {
    n: u32,
}

impl Table1Rank64 {
    /// The paper's inputs; the seed has nothing to vary.
    pub fn new(smoke: bool) -> Table1Rank64 {
        Table1Rank64 {
            n: if smoke { 32 } else { 64 },
        }
    }
}

impl Workload for Table1Rank64 {
    fn run_serial(&self, probe: &mut Probe) -> Rep {
        let versions = [
            (Rank64Version::GmNoPrefetch, paper::TABLE1_NOPREF),
            (
                Rank64Version::GmPrefetch { block_words: 32 },
                paper::TABLE1_PREF,
            ),
            (Rank64Version::GmCache, paper::TABLE1_CACHE),
        ];
        let mut rep = Rep::default();
        let mut cells = Vec::new();
        for (v, (version, paper_row)) in versions.into_iter().enumerate() {
            for clusters in 1..=4usize {
                let point = v * 4 + clusters - 1;
                let kernel = Rank64 {
                    n: self.n,
                    k: 64,
                    version,
                };
                let open = probe.begin_point(point);
                let cfg = MachineConfig::cedar_with_clusters(clusters);
                let report = probe
                    .simulate(point, cfg, LIMIT, None, "kernels.build", |m| {
                        kernel.build(m, clusters)
                    })
                    .and_then(|(r, _)| r);
                probe.end_point(open);
                rep.point(match report {
                    Ok(r) if r.flops == kernel.flops() => {
                        cells.push((r.mflops, paper_row[clusters - 1]));
                        Some(r.cycles)
                    }
                    _ => None,
                });
            }
        }
        if !cells.is_empty() {
            probe.set("paper.err_pct", mean_abs_rel_err_pct(&cells));
        }
        rep
    }
}
