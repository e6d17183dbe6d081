//! The Cedar simulator's benchmark: fixed workloads, simulated cycles per
//! host second end to end, host time and model counters per layer.
//! README.md is the specification; `BENCHMARK.json` at the repository
//! root is the contract this binary's output is checked against.
//!
//! Two modes:
//!
//! * `--workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]`
//!   runs one workload in this process and prints, as the last line of
//!   standard output, one JSON object with the end-to-end metrics
//!   (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! * without `--workload`, runs every workload, each in a child process
//!   of its own (see `suite`).

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

mod host;
mod iso;
mod json;
mod layers;
mod metrics;
mod paper;
mod rng;
mod span;
mod suite;
mod workloads;

use json::Json;
use layers::Probe;
use metrics::{Summary, END_TO_END, PER_LAYER};
use workloads::{Rep, Workload};

/// Seconds one run measures unless `--seconds` says otherwise; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Simulated cycles each `*.iso_*` drive offers traffic for.
const ISO_CYCLES: u64 = 100_000;

/// Fewest timed repetitions a run reports a median of.
pub fn min_reps(smoke: bool) -> usize {
    if smoke {
        1
    } else {
        3
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    record: bool,
    repeat_check: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        record: false,
        repeat_check: false,
    };
    let mut seconds_given = false;
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a number")?;
                out.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not a number"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                out.seconds = v
                    .parse()
                    .map_err(|_| format!("--seconds {v:?} is not a whole number"))?;
                seconds_given = true;
            }
            "--trace" => {
                out.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?} is neither 0 nor 1")),
                }
            }
            "--smoke" => out.smoke = true,
            "--record" => out.record = true,
            "--repeat-check" => out.repeat_check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if out.smoke && !seconds_given {
        // A smoke run is one repetition of shrunken workloads.
        out.seconds = 0;
    }
    if out.smoke && out.record {
        return Err("a smoke run is never recorded".to_string());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n(see benchmark/README.md for usage)");
            return ExitCode::from(2);
        }
    };
    // Before any thread exists: the default engine is what is measured.
    let scrubbed = host::scrub_cedar_env();
    let Some(name) = args.workload.clone() else {
        return suite::run(&args, &scrubbed);
    };
    let Some((sweep, sim)) = workloads::threads(&name) else {
        let names: Vec<&str> = workloads::all().map(|(n, _)| n).collect();
        eprintln!("error: unknown workload {name:?}; one of {names:?}");
        return ExitCode::from(2);
    };
    // The one knob the harness sets: sweep drivers read their thread
    // count from the environment and default to every core of the host.
    std::env::set_var("CEDAR_SWEEP_THREADS", sweep.to_string());
    println!(
        "workload {name}: seed {}, {} s, sweep threads {sweep}, simulation threads {sim}, host parallelism {}{}",
        args.seed,
        args.seconds,
        host::host_parallelism(),
        if args.smoke { ", smoke" } else { "" },
    );
    if host::host_parallelism() < sweep.max(sim) {
        eprintln!("warning: fewer cores than threads; {name} is oversubscribed and its numbers mean little");
    }
    let result = if args.trace {
        traced_run(&name, &args, sweep)
    } else {
        timed_run(&name, &args, started)
    };
    println!("{}", result.render());
    ExitCode::SUCCESS
}

/// Checks that hold across the repetitions of one run.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    cycles: Option<u64>,
    cycles_drifted: bool,
}

impl Checks {
    fn add(&mut self, rep: Rep) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        // `sim.cycles` must repeat exactly: the simulator is deterministic
        // and the replica loops must reproduce the drivers.
        self.cycles_drifted |= *self.cycles.get_or_insert(rep.cycles) != rep.cycles;
    }

    fn correct(&self) -> bool {
        self.failed == 0 && !self.cycles_drifted && self.attempted > 0
    }
}

/// Generate the workload's inputs and run the discarded warm-up
/// repetition; the time both take is one `setup_s` sample.
fn set_up(
    name: &str,
    args: &Args,
    since: Instant,
    checks: &mut Checks,
) -> (Box<dyn Workload>, f64) {
    let w = workloads::build(name, args.seed, args.smoke).expect("workload name checked");
    checks.add(w.run());
    (w, since.elapsed().as_secs_f64())
}

fn result_line(checks: &Checks, table: &[(&str, &str)], values: &BTreeMap<&str, f64>) -> Json {
    if checks.cycles_drifted {
        eprintln!("check failed: simulated cycles differ between repetitions");
    }
    let metrics = table.iter().map(|&(name, unit)| {
        let value = values.get(name).copied().unwrap_or(0.0);
        println!("  {name:<34} {value:>18.6} {unit}");
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    });
    let metrics = Json::obj(metrics.collect::<Vec<_>>());
    Json::obj([
        ("correct", Json::Bool(checks.correct())),
        ("attempted", Json::Num(checks.attempted as f64)),
        ("failed", Json::Num(checks.failed as f64)),
        ("metrics", metrics),
    ])
}

/// `--trace 0`: set up [`SETUPS`] times, then repeat the workload as a
/// user runs it until `--seconds` have passed.
fn timed_run(name: &str, args: &Args, started: Instant) -> Json {
    let mut checks = Checks::default();
    let mut setups = Vec::new();
    // The first set-up is timed from process start.
    let mut since = started;
    let mut workload = None;
    for _ in 0..if args.smoke { 1 } else { SETUPS } {
        drop(workload.take()); // one workload alive at a time
        let (w, seconds) = set_up(name, args, since, &mut checks);
        setups.push(seconds);
        workload = Some(w);
        since = Instant::now();
    }
    let w = workload.expect("at least one set-up");

    let window = Duration::from_secs(args.seconds);
    let measuring = Instant::now();
    let mut rates = Vec::new();
    let mut walls = Vec::new();
    while rates.len() < min_reps(args.smoke) || measuring.elapsed() < window {
        let t = Instant::now();
        let rep = w.run();
        let wall = t.elapsed().as_secs_f64();
        checks.add(rep);
        rates.push(rep.cycles as f64 / wall);
        walls.push(wall);
    }

    let rate = Summary::of(&rates).expect("at least one repetition");
    let wall = Summary::of(&walls).expect("at least one repetition");
    println!(
        "  {} repetitions of {} simulated cycles; sim_cycles_per_s median {:.0} min {:.0} max {:.0}; harness.wall_s {:.4} (not gated)",
        rate.n,
        checks.cycles.unwrap_or(0),
        rate.median,
        rate.min,
        rate.max,
        wall.median,
    );
    let values = BTreeMap::from([
        // The fastest repetition: the simulator is deterministic, so what
        // varies between repetitions of one process is host interference,
        // which only ever adds time. On a shared 2-core host the median
        // moves 4-12 % between runs of the same code, the fastest 2-4 %.
        ("sim_cycles_per_s", rate.max),
        ("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0)),
        ("setup_s", metrics::median(&setups)),
    ]);
    result_line(&checks, END_TO_END, &values)
}

/// `--trace 1`: after one set-up, rounds of three repetitions — as a
/// user runs it, the harness's own serial loop untraced, and the same
/// loop with host profiling and spans — until `--seconds` have passed.
/// Every metric is the median over rounds; counts repeat exactly.
fn traced_run(name: &str, args: &Args, sweep_threads: usize) -> Json {
    let mut checks = Checks::default();
    let (w, _) = set_up(name, args, Instant::now(), &mut checks);

    let window = Duration::from_secs(args.seconds);
    let measuring = Instant::now();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut walls = Vec::new();
    let mut last_traced = None;
    while walls.is_empty() || measuring.elapsed() < window {
        let mut plain = Probe::new(false);
        let t = Instant::now();
        checks.add(w.run_serial(&mut plain));
        let serial_wall = t.elapsed().as_secs_f64();
        // A serial workload's user-facing form is that serial loop.
        let wall = if sweep_threads > 1 {
            let t = Instant::now();
            checks.add(w.run());
            t.elapsed().as_secs_f64()
        } else {
            serial_wall
        };
        walls.push(wall);

        let mut traced = Probe::new(true);
        checks.add(w.run_serial(&mut traced));
        let mut sample = traced.metrics();
        // What a workload derives from wall time it derives untraced.
        sample.extend(plain.extras());
        let run_wall = plain.run_wall().as_secs_f64();
        sample.insert(
            "harness.trace_overhead_pct",
            (traced.run_wall().as_secs_f64() - run_wall) / run_wall * 100.0,
        );
        if sweep_threads > 1 {
            sample.insert(
                "sweep.parallel_efficiency",
                plain.points_wall().as_secs_f64() / (sweep_threads as f64 * wall),
            );
        }
        for (k, v) in sample {
            samples.entry(k).or_default().push(v);
        }
        last_traced = Some(traced);
    }

    let mut values: BTreeMap<&str, f64> = samples
        .iter()
        .map(|(&k, v)| (k, metrics::median(v)))
        .collect();
    let wall = Summary::of(&walls).expect("at least one round");
    values.insert("harness.wall_s", wall.median);
    values.insert("harness.rep_spread_pct", wall.spread_pct());
    let iso_cycles = if args.smoke {
        ISO_CYCLES / 10
    } else {
        ISO_CYCLES
    };
    values.insert(
        "omega.iso_ns_per_word",
        iso::omega_ns_per_word(args.seed, iso_cycles),
    );
    values.insert(
        "gmem.iso_ns_per_access",
        iso::gmem_ns_per_access(args.seed, iso_cycles),
    );
    values.insert(
        "cache.iso_ns_per_access",
        iso::cache_ns_per_access(args.seed, iso_cycles),
    );
    println!(
        "  {} rounds (as-run, serial untraced, serial traced)",
        wall.n
    );

    let path = format!("benchmark/out/trace-{name}.json");
    let trace = last_traced
        .expect("at least one round")
        .spans
        .chrome_trace();
    let written = std::fs::create_dir_all("benchmark/out")
        .and_then(|()| std::fs::write(&path, trace.render()));
    match written {
        Ok(()) => println!(
            "  spans of the last traced repetition: {path} (chrome://tracing, ui.perfetto.dev)"
        ),
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }
    result_line(&checks, PER_LAYER, &values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = args(&[
            "--workload",
            "ppt4_cg",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("ppt4_cg"));
        assert_eq!((a.seed, a.seconds, a.trace, a.smoke), (7, 10, true, false));
    }

    #[test]
    fn smoke_means_one_repetition_and_is_never_recorded() {
        let a = args(&["--smoke"]).unwrap();
        assert_eq!((a.seconds, a.smoke, a.workload), (0, true, None));
        assert_eq!(min_reps(true), 1);
        assert!(args(&["--smoke", "--record"]).is_err());
    }

    #[test]
    fn bad_command_lines_are_errors() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--trace", "2"],
            &["--seconds", "1.5"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn checks_catch_failures_and_cycle_drift() {
        let rep = |cycles, failed| Rep {
            cycles,
            attempted: 4,
            failed,
        };
        let mut c = Checks::default();
        assert!(!c.correct(), "nothing attempted yet");
        c.add(rep(100, 0));
        c.add(rep(100, 0));
        assert!(c.correct());
        assert_eq!((c.attempted, c.failed), (8, 0));
        c.add(rep(101, 0));
        assert!(!c.correct(), "cycles must repeat exactly");
        let mut c = Checks::default();
        c.add(rep(100, 1));
        assert!(!c.correct());
    }
}
