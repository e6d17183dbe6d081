//! The fault-injection study, `resilience::run(n, seed)` on two sweep
//! threads: three workloads clean, under three transient drop rates, and
//! under a scheduled outage. The same omega / global-memory / prefetch
//! layers as Table 1, used differently — doomed packets, NACKs,
//! timeouts, retries, offline ports — so a network fast path bought by
//! assuming fault-free traffic shows its cost here.

use cedar::experiments::resilience::{self, Scenario, Workload as Kernel, DROP_RATES_PPM};
use cedar::fortran::compile::Backend;
use cedar::fortran::restructure::{Level, Restructurer};
use cedar::kernels::staged::rank64::{Rank64, Rank64Version};
use cedar::machine::{FaultPlan, LinkOutage, MachineConfig, ModuleOutage};
use cedar::perfect::{spec, CodeName};
use cedar::xylem::costs::XylemCosts;

use super::{Rep, Workload};
use crate::layers::Probe;

const CLUSTERS: usize = 4;
/// The driver's own per-point cycle budget.
const LIMIT: u64 = 4_000_000_000;

pub struct Resilience {
    n: u32,
    /// The fault plan's seed: which packets are lost is this workload's
    /// generated input.
    seed: u64,
}

impl Resilience {
    pub fn new(seed: u64, smoke: bool) -> Resilience {
        Resilience {
            n: if smoke { 32 } else { 64 },
            seed,
        }
    }

    /// The fault plan of a scenario, as the driver builds it.
    fn plan(&self, scenario: &Scenario) -> Option<FaultPlan> {
        match *scenario {
            Scenario::Clean => None,
            Scenario::Transient(ppm) => Some(FaultPlan {
                drop_per_million: ppm,
                nack_per_million: ppm / 2,
                ..FaultPlan::none(self.seed)
            }),
            Scenario::Outage => Some(FaultPlan {
                link_outages: vec![LinkOutage {
                    port: 0,
                    from: 2_000,
                    until: 6_000,
                }],
                module_outages: vec![ModuleOutage {
                    module: 0,
                    from: 2_000,
                    until: 10_000,
                }],
                ..FaultPlan::none(self.seed)
            }),
        }
    }
}

impl Workload for Resilience {
    fn run(&self) -> Rep {
        let mut rep = Rep::default();
        match resilience::run(self.n, self.seed) {
            Ok(study) => {
                for row in &study.rows {
                    let ok = row.completed && row.outcome == "ok" && row.slowdown >= 1.0;
                    rep.point(ok.then_some(row.cycles));
                }
            }
            Err(_) => {
                for _ in 0..Kernel::ALL.len() * Scenario::all().len() {
                    rep.point(None);
                }
            }
        }
        rep
    }

    fn run_serial(&self, probe: &mut Probe) -> Rep {
        let mut rep = Rep::default();
        let mut point = 0;
        let worst_rate = Scenario::Transient(*DROP_RATES_PPM.last().expect("rates"));
        let mut worst_slowdowns = Vec::new();
        for kernel in Kernel::ALL {
            let mut clean_cycles = None;
            for scenario in Scenario::all() {
                let mut cfg = MachineConfig::cedar_with_clusters(CLUSTERS);
                if let Some(plan) = self.plan(&scenario) {
                    cfg = cfg.with_faults(plan);
                }
                let open = probe.begin_point(point);
                let report = match kernel {
                    Kernel::Trfd => {
                        let s = probe.spans.begin("perfect.spec", point);
                        let src = spec(CodeName::Trfd).to_source();
                        probe.spans.end(s);
                        let s = probe.spans.begin("fortran.restructure", point);
                        let compiled =
                            Restructurer::default().restructure(&src, Level::Automatable);
                        probe.spans.end(s);
                        let backend = Backend::new(XylemCosts::cedar());
                        probe.simulate(point, cfg, LIMIT, None, "fortran.lower", |m| {
                            backend.lower(&compiled, m, CLUSTERS)
                        })
                    }
                    Kernel::Rank64NoPref | Kernel::Rank64Pref => {
                        let version = if kernel == Kernel::Rank64Pref {
                            Rank64Version::GmPrefetch { block_words: 32 }
                        } else {
                            Rank64Version::GmNoPrefetch
                        };
                        let k = Rank64 {
                            n: self.n,
                            k: 64,
                            version,
                        };
                        probe.simulate(point, cfg, LIMIT, None, "kernels.build", |m| {
                            k.build(m, CLUSTERS)
                        })
                    }
                }
                .and_then(|(r, _)| r);
                probe.end_point(open);
                point += 1;
                let cycles = report.ok().map(|r| r.cycles);
                if scenario == Scenario::Clean {
                    clean_cycles = cycles;
                }
                // Faults may only ever slow a run down.
                let slowdown = cycles
                    .zip(clean_cycles)
                    .map(|(c, base)| c as f64 / base as f64);
                if scenario == worst_rate {
                    worst_slowdowns.extend(slowdown);
                }
                rep.point(cycles.filter(|_| slowdown.is_some_and(|s| s >= 1.0)));
            }
        }
        if !worst_slowdowns.is_empty() {
            let mean = worst_slowdowns.iter().sum::<f64>() / worst_slowdowns.len() as f64;
            probe.set("fault.slowdown_x_5000ppm", mean);
        }
        rep
    }
}
