//! The PPT4 conjugate-gradient scalability sweep, `ppt4::run_swept` on
//! two sweep threads. The grid points are unequal (N spans 16×, P spans
//! 16×) and each carries its own 1-CE baseline, so this is the workload
//! that shows sweep load balance; inside a point it is global barriers
//! and reductions over the networks. It carries the second fidelity gap
//! (32-CE CG runs above the paper's 34–48 MFLOPS).

use cedar::experiments::ppt4;
use cedar::kernels::staged::banded::BandedMatvec;
use cedar::kernels::staged::cg::StagedCg;
use cedar::machine::MachineConfig;
use cedar::methodology::ppt::{ppt4 as eval_ppt4, ScalePoint};
use cedar::perfect::reference::paper;
use cedar::report::{f1, Table};

use super::{Rep, Workload};
use crate::layers::Probe;
use crate::paper::{against_range, mean_abs_rel_err_pct};

/// The kernels' own cycle budgets (`report_on_cedar`).
const CG_LIMIT: u64 = 2_000_000_000;
const BANDED_LIMIT: u64 = 4_000_000_000;

pub struct Ppt4Cg {
    iterations: u32,
    ns: Vec<u64>,
    procs: Vec<u32>,
    banded_n: u64,
}

impl Ppt4Cg {
    /// The paper's inputs; the seed has nothing to vary.
    pub fn new(smoke: bool) -> Ppt4Cg {
        if smoke {
            Ppt4Cg {
                iterations: 1,
                ns: vec![1_024, 10_240],
                procs: vec![32],
                banded_n: 1_024,
            }
        } else {
            Ppt4Cg {
                iterations: 1,
                ns: vec![1_024, 4_096, 10_240, 16_384],
                procs: vec![2, 8, 32],
                banded_n: 4_096,
            }
        }
    }

    /// Simulations of the whole sweep: two per grid point, two banded.
    fn simulations(&self) -> u64 {
        (2 * self.ns.len() * self.procs.len() + 2) as u64
    }
}

/// One CG simulation on `ces` CEs; its MFLOPS, NaN when the point failed.
fn cg_run(probe: &mut Probe, rep: &mut Rep, point: usize, cg: &StagedCg, ces: usize) -> f64 {
    let cfg = MachineConfig::cedar_with_clusters(ces.div_ceil(8).clamp(1, 4));
    let report = probe
        .simulate(point, cfg, CG_LIMIT, None, "kernels.build", |m| {
            cg.build(m, ces)
        })
        .and_then(|(r, _)| r)
        .ok()
        .filter(|r| r.flops == cg.flops() && r.mflops.is_finite());
    rep.point(report.as_ref().map(|r| r.cycles));
    report.map_or(f64::NAN, |r| r.mflops)
}

impl Workload for Ppt4Cg {
    fn run(&self) -> Rep {
        let attempted = self.simulations();
        match ppt4::run_swept(self.iterations, &self.ns, &self.procs, self.banded_n) {
            Ok(study) => {
                let finite = study
                    .cedar
                    .points
                    .iter()
                    .all(|(pt, _)| pt.mflops.is_finite() && pt.speedup.is_finite())
                    && study
                        .cedar_banded
                        .iter()
                        .all(|(_, mflops)| mflops.is_finite());
                Rep {
                    cycles: study.total_cycles,
                    attempted,
                    failed: if finite { 0 } else { attempted },
                }
            }
            Err(_) => Rep {
                cycles: 0,
                attempted,
                failed: attempted,
            },
        }
    }

    fn run_serial(&self, probe: &mut Probe) -> Rep {
        let mut rep = Rep::default();
        let mut point = 0;
        let mut points = Vec::new();
        for &p in &self.procs {
            for &n in &self.ns {
                let cg = StagedCg {
                    n,
                    iterations: self.iterations,
                };
                let open = probe.begin_point(point);
                let one = cg_run(probe, &mut rep, point, &cg, 1);
                let mflops = cg_run(probe, &mut rep, point, &cg, p as usize);
                probe.end_point(open);
                point += 1;
                points.push(ScalePoint {
                    processors: p,
                    n,
                    mflops,
                    speedup: mflops / one.max(1e-9),
                });
            }
        }
        for bandwidth in [3u32, 11] {
            let kernel = BandedMatvec::new(self.banded_n, bandwidth);
            let open = probe.begin_point(point);
            let report = probe
                .simulate(
                    point,
                    MachineConfig::cedar_with_clusters(4),
                    BANDED_LIMIT,
                    None,
                    "kernels.build",
                    |m| kernel.build(m, 4),
                )
                .and_then(|(r, _)| r);
            probe.end_point(open);
            point += 1;
            rep.point(
                report
                    .ok()
                    .filter(|r| r.flops == kernel.flops())
                    .map(|r| r.cycles),
            );
        }

        // §4.3: 34–48 MFLOPS on 32 CEs for N from 10K up.
        let in_paper_range: Vec<(f64, f64)> = points
            .iter()
            .filter(|pt| pt.processors == 32 && pt.n >= 10_240 && pt.mflops.is_finite())
            .map(|pt| against_range(pt.mflops, paper::CEDAR_CG_MFLOPS_RANGE))
            .collect();
        if !in_paper_range.is_empty() {
            probe.set("paper.err_pct", mean_abs_rel_err_pct(&in_paper_range));
        }
        let s = probe.spans.begin("methodology.eval", point);
        let verdict = eval_ppt4("Cedar CG", points);
        probe.spans.end(s);
        let s = probe.spans.begin("report.render", point);
        let mut table = Table::new("PPT4: Cedar CG scalability");
        table.header(&["P", "N", "MFLOPS", "band"]);
        for (pt, band) in &verdict.points {
            table.row(vec![
                pt.processors.to_string(),
                pt.n.to_string(),
                f1(pt.mflops),
                band.to_string(),
            ]);
        }
        std::hint::black_box(table.render());
        probe.spans.end(s);
        rep
    }
}
