//! Suite mode: every workload in a child process of its own, so peak
//! memory, allocator state and lazily built tables of one workload never
//! reach the next. The parent only spawns, echoes, parses result lines
//! and writes the numbers down.

use std::process::{Command, ExitCode, Stdio};

use crate::json::{self, Json};
use crate::{host, workloads, Args};

/// Where every non-smoke suite run leaves its numbers (ignored by git).
const OUT_PATH: &str = "benchmark/out/results.json";
/// Where `--record` keeps them (committed).
const RECORD_PATH: &str = "benchmark/RESULTS.json";

/// Run one workload once in a child and return its result line.
fn child(name: &str, args: &Args, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {name} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("  {line}");
    }
    if !out.status.success() {
        return Err(format!("the {name} child ended with {}", out.status));
    }
    json::parse(last).map_err(|e| format!("the {name} child's result line does not parse: {e}"))
}

/// One pass over every workload: `{workload: {end_to_end, per_layer}}`.
fn run_set(args: &Args) -> Result<Json, String> {
    let mut set = Vec::new();
    for (name, (sweep, sim)) in workloads::all() {
        if host::host_parallelism() < sweep.max(sim) {
            // Never record a parallel row measured below its thread count.
            println!("{name}: skipped, host_parallelism < {}", sweep.max(sim));
            set.push((
                name,
                Json::obj([("skipped", Json::str("host_parallelism below thread count"))]),
            ));
            continue;
        }
        let end_to_end = child(name, args, false)?;
        let per_layer = child(name, args, true)?;
        for line in [&end_to_end, &per_layer] {
            if line.get("correct").and_then(Json::as_bool) != Some(true) {
                return Err(format!(
                    "{name} failed its output checks: {}",
                    line.render()
                ));
            }
        }
        set.push((
            name,
            Json::obj([("end_to_end", end_to_end), ("per_layer", per_layer)]),
        ));
    }
    Ok(Json::obj(set))
}

fn metric(set: &Json, workload: &str, pass: &str, name: &str) -> Option<f64> {
    set.get(workload)?
        .get(pass)?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Compare two passes over the same code: every workload × end-to-end
/// metric must agree within the bound `BENCHMARK.json` fixes for it, and
/// every exact count must be identical. Returns the comparison and
/// whether it held.
fn repeat_check(first: &Json, second: &Json) -> Result<(Json, bool), String> {
    let contract = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))
        .and_then(|t| json::parse(&t))?;
    let gated = contract
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut rows = Vec::new();
    let mut held = true;
    println!("repeat check: second pass against first, positive = worse");
    for (workload, result) in first.members() {
        if result.get("skipped").is_some() {
            continue;
        }
        for m in gated {
            let field = |key: &str| m.get(key).and_then(Json::as_str).unwrap_or_default();
            let (name, better) = (field("name"), field("better"));
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (Some(a), Some(b)) = (
                metric(first, workload, "end_to_end", name),
                metric(second, workload, "end_to_end", name),
            ) else {
                return Err(format!("{workload} did not report {name}"));
            };
            let worse_by = if better == "higher" {
                (a - b) / a
            } else {
                (b - a) / a
            };
            let ok = worse_by <= bound;
            held &= ok;
            println!(
                "  {workload:<16} {name:<18} {:>+8.2} % (bound {:.0} %){}",
                worse_by * 100.0,
                bound * 100.0,
                if ok { "" } else { "  EXCEEDED" },
            );
            rows.push(Json::obj([
                ("workload", Json::str(workload.as_str())),
                ("metric", Json::str(name)),
                ("first", Json::Num(a)),
                ("second", Json::Num(b)),
                ("worse_by", Json::Num(worse_by)),
                ("bound", Json::Num(bound)),
                ("within_bound", Json::Bool(ok)),
            ]));
        }
        for exact in ["sim.cycles", "paper.err_pct"] {
            let (a, b) = (
                metric(first, workload, "per_layer", exact),
                metric(second, workload, "per_layer", exact),
            );
            if a != b {
                held = false;
                println!("  {workload:<16} {exact:<18} differs: {a:?} vs {b:?}  NOT EXACT");
            }
        }
    }
    Ok((
        Json::obj([("rows", Json::Arr(rows)), ("held", Json::Bool(held))]),
        held,
    ))
}

fn write(path: &str, doc: &Json) -> Result<(), String> {
    std::fs::create_dir_all("benchmark/out")
        .and_then(|()| std::fs::write(path, doc.pretty()))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

fn run_suite(args: &Args, scrubbed: &[String]) -> Result<bool, String> {
    let manifest = host::manifest(args.seed, args.seconds, args.smoke, scrubbed);
    println!("manifest: {}", manifest.pretty());
    let first = run_set(args)?;
    let mut held = true;
    let mut doc = vec![("manifest", manifest)];
    if args.repeat_check {
        let (comparison, ok) = repeat_check(&first, &run_set(args)?)?;
        doc.push(("repeat_check", comparison));
        held = ok;
    }
    doc.insert(1, ("results", first));
    let doc = Json::obj(doc);
    // A smoke run's shrunken numbers are never written where full-size
    // numbers are read from.
    if !args.smoke {
        write(OUT_PATH, &doc)?;
        if args.record {
            write(RECORD_PATH, &doc)?;
        }
    }
    Ok(held)
}

pub fn run(args: &Args, scrubbed: &[String]) -> ExitCode {
    match run_suite(args, scrubbed) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: the repeat check did not hold");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
