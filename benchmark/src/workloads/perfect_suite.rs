//! A four-code slice of the Perfect suite, measured the way
//! `PerfectSuite::measure(4)` measures all thirteen: every code an
//! independent `CodeStudy` (serial baseline, KAP, automatable, the two
//! ablations, hand) through the sweep runner on two threads. Two dozen
//! short machines go through perfect → fortran → xylem → machine, and
//! fast-forward skips most of their cycles, so per-machine construction,
//! program preparation and the event-horizon code matter here and the
//! tick loop matters less.
//!
//! The slice — the best and the worst restructured code, one whose hand
//! version changes the algorithm, one KAP barely helps — keeps a
//! repetition near a second; the full suite takes six.

use cedar::experiments::sweep;
use cedar::fortran::compile::Backend;
use cedar::fortran::restructure::{Level, Restructurer};
use cedar::fortran::SourceProgram;
use cedar::machine::MachineConfig;
use cedar::methodology::ppt::{ppt2, ppt3};
use cedar::perfect::codes::{hand_spec, spec, targets, CodeName};
use cedar::perfect::run::{study_code, Variant};
use cedar::report::{f2, Table};
use cedar::xylem::costs::XylemCosts;

use super::{Rep, Workload};
use crate::layers::Probe;
use crate::paper::mean_abs_rel_err_pct;

const CLUSTERS: usize = 4;
/// `CodeStudy`'s own per-run cycle budget.
const LIMIT: u64 = 4_000_000_000;

pub struct PerfectSlice {
    codes: Vec<CodeName>,
}

impl PerfectSlice {
    /// The paper's inputs; the seed has nothing to vary.
    pub fn new(smoke: bool) -> PerfectSlice {
        PerfectSlice {
            codes: if smoke {
                vec![CodeName::Trfd]
            } else {
                vec![
                    CodeName::Spice,
                    CodeName::Qcd,
                    CodeName::Trfd,
                    CodeName::Mdg,
                ]
            },
        }
    }
}

fn variants(code: CodeName) -> impl Iterator<Item = Variant> {
    Variant::ALL
        .into_iter()
        .filter(move |&v| v != Variant::Hand || hand_spec(code).is_some())
}

/// The IR a variant runs, as `cedar_perfect::run` derives it: hand codes
/// swap in the hand specification, and every restructured level drops
/// removable I/O.
fn source_for(code: CodeName, variant: Variant) -> SourceProgram {
    let s = match variant {
        Variant::Hand => hand_spec(code).unwrap_or_else(|| spec(code)),
        _ => spec(code),
    };
    let mut src = s.to_source();
    if !matches!(variant, Variant::Serial | Variant::Kap) {
        for ph in &mut src.phases {
            if ph.io.as_ref().is_some_and(|io| io.removable) {
                ph.io = None;
            }
        }
    }
    src
}

fn level_and_costs(variant: Variant) -> (Level, XylemCosts) {
    match variant {
        Variant::Serial => (Level::Serial, XylemCosts::cedar()),
        Variant::Kap => (Level::KapCedar, XylemCosts::cedar()),
        Variant::Automatable => (Level::Automatable, XylemCosts::cedar()),
        Variant::AutoNoSync | Variant::Hand => {
            (Level::Automatable, XylemCosts::cedar_without_sync())
        }
        Variant::AutoNoPrefetch => (Level::Automatable, XylemCosts::cedar_without_prefetch()),
    }
}

impl Workload for PerfectSlice {
    fn run(&self) -> Rep {
        let studies = sweep::parallel_map(&self.codes, |&code| study_code(code, CLUSTERS));
        let mut rep = Rep::default();
        for (study, &code) in studies.iter().zip(&self.codes) {
            match study {
                Ok(runs) => {
                    for r in runs {
                        let finite =
                            r.seconds.is_finite() && r.mflops.is_finite() && r.speedup.is_finite();
                        rep.point(finite.then_some(r.sim_cycles));
                    }
                }
                Err(_) => variants(code).for_each(|_| rep.point(None)),
            }
        }
        rep
    }

    fn run_serial(&self, probe: &mut Probe) -> Rep {
        let mut rep = Rep::default();
        let mut point = 0;
        let mut speedups = Vec::new(); // (measured, paper) for KAP and automatable
        let mut auto_speedups = Vec::new();
        let mut auto_mflops = Vec::new();
        let mut table = Table::new("Perfect slice: speed improvements over serial");
        table.header(&["code", "variant", "speedup", "MFLOPS"]);
        for &code in &self.codes {
            let t = targets(code);
            let mut serial_seconds = f64::NAN;
            for variant in variants(code) {
                let open = probe.begin_point(point);
                let s = probe.spans.begin("perfect.spec", point);
                let src = source_for(code, variant);
                probe.spans.end(s);
                let (level, costs) = level_and_costs(variant);
                let s = probe.spans.begin("fortran.restructure", point);
                let compiled = Restructurer::default().restructure(&src, level);
                probe.spans.end(s);
                let backend = Backend::new(costs);
                let clusters = if variant == Variant::Serial {
                    1
                } else {
                    CLUSTERS
                };
                let cfg = MachineConfig::cedar_with_clusters(clusters);
                let report = probe
                    .simulate(point, cfg, LIMIT, None, "fortran.lower", |m| {
                        backend.lower(&compiled, m, clusters)
                    })
                    .and_then(|(r, _)| r);
                probe.end_point(open);
                point += 1;
                rep.point(match report {
                    Ok(r) if r.seconds.is_finite() && r.mflops.is_finite() => {
                        if variant == Variant::Serial {
                            serial_seconds = r.seconds;
                        }
                        let speedup = serial_seconds / r.seconds;
                        match variant {
                            Variant::Kap => speedups.push((speedup, t.kap_speedup)),
                            Variant::Automatable => {
                                speedups.push((speedup, t.auto_speedup));
                                auto_speedups.push(speedup);
                                auto_mflops.push(r.mflops);
                            }
                            _ => {}
                        }
                        table.row(vec![
                            code.to_string(),
                            variant.to_string(),
                            f2(speedup),
                            f2(r.mflops),
                        ]);
                        Some(r.cycles)
                    }
                    _ => None,
                });
            }
        }
        if !speedups.is_empty() {
            probe.set("paper.err_pct", mean_abs_rel_err_pct(&speedups));
        }
        let s = probe.spans.begin("methodology.eval", point);
        std::hint::black_box((
            ppt2("Cedar", &auto_mflops, 0),
            ppt3("Cedar", &auto_speedups, (CLUSTERS * 8) as u32),
        ));
        probe.spans.end(s);
        let s = probe.spans.begin("report.render", point);
        std::hint::black_box(table.render());
        probe.spans.end(s);
        rep
    }
}
