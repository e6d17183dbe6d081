//! Bench-regression observatory: validate the committed `BENCH_*.json`
//! artifacts and gate on unexplained regressions.
//!
//! The repo commits two machine-readable study artifacts —
//! `BENCH_resilience.json` (fault-sweep outcomes) and
//! `BENCH_crash_resume.json` (checkpoint/resume kill-and-recover
//! outcomes). Each is written by a different binary with its own
//! hand-rolled serializer, so drift is easy: a field renamed in one
//! place, a committed smoke artifact masquerading as a full run.
//! (Simulator *speed* is measured by `benchmark/`, not here.)
//!
//! Default mode prints a one-screen summary of both files. `--check`
//! additionally exits nonzero when any file is missing, malformed,
//! schema-invalid, internally inconsistent, or carries a regression the
//! file itself does not explain:
//!
//! * every resilience row must have completed with outcome `"ok"` and
//!   slowdown under 10x,
//! * every crash-resume point must be bit-identical — matching cycle
//!   count, memory digest and stats tree — must name the snapshot it
//!   resumed from (`snapshot_version` equal to this build's, and its
//!   `image_bytes`), and the file must cover both kill modes
//!   (in-process and SIGKILL) at 1 and 4 threads. These are
//!   determinism gates, not performance gates, so they are *not* skipped
//!   for smoke artifacts: bit-identity holds at any workload size.
//!
//! Regression gates are skipped (with a note) for smoke artifacts — a
//! resilience `n` below the full 128 — since smoke sizes are not
//! comparable; schema and consistency checks still apply. Run it from
//! the repo root:
//!
//! ```text
//! cargo run --release -p cedar-bench --bin bench_history -- --check
//! ```

use cedar_bench::json::{parse, Value};
use cedar_machine::snapshot::SNAPSHOT_VERSION;

/// Relative tolerance for "this field must equal that quotient" checks:
/// the emitters round rates to 0.1 and speedups to 3 decimals.
const REL_TOL: f64 = 0.01;

/// Resilience rows must not slow down more than this vs their clean run.
const RESILIENCE_SLOWDOWN_CEIL: f64 = 10.0;

/// One validation failure, tagged with the file it came from.
struct Finding {
    file: &'static str,
    msg: String,
}

struct Report {
    findings: Vec<Finding>,
    gates_skipped: Vec<&'static str>,
}

impl Report {
    fn fail(&mut self, file: &'static str, msg: String) {
        self.findings.push(Finding { file, msg });
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * b.abs().max(1e-9)
}

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

/// Load and parse one artifact, recording findings for I/O/parse errors.
fn load(rep: &mut Report, file: &'static str) -> Option<Value> {
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            rep.fail(file, format!("unreadable: {e}"));
            return None;
        }
    };
    match parse(&text) {
        Ok(v) => Some(v),
        Err(e) => {
            rep.fail(file, format!("malformed JSON: {e}"));
            None
        }
    }
}

fn check_resilience(rep: &mut Report) {
    let file = "BENCH_resilience.json";
    let Some(doc) = load(rep, file) else { return };
    let n = doc.get("n").and_then(Value::as_u64);
    let Some(n) = n else {
        rep.fail(file, "missing integer n field".into());
        return;
    };
    let smoke = n < 128; // the full study runs rank-64 at n = 128
    let Some(rows) = doc.get("rows").and_then(Value::as_arr) else {
        rep.fail(file, "missing rows array".into());
        return;
    };
    if rows.is_empty() {
        rep.fail(file, "no rows".into());
    }
    // Collect clean baselines per workload for slowdown cross-checks.
    let clean_cycles = |workload: &str| -> Option<u64> {
        rows.iter()
            .find(|r| {
                r.get("workload").and_then(Value::as_str) == Some(workload)
                    && r.get("scenario").and_then(Value::as_str) == Some("clean")
            })
            .and_then(|r| r.get("cycles").and_then(Value::as_u64))
    };
    for (i, r) in rows.iter().enumerate() {
        let workload = r.get("workload").and_then(Value::as_str);
        let scenario = r.get("scenario").and_then(Value::as_str);
        let completed = r.get("completed").and_then(Value::as_bool);
        let outcome = r.get("outcome").and_then(Value::as_str);
        let cycles = r.get("cycles").and_then(Value::as_u64);
        let slowdown = num(r, "slowdown");
        let (
            Some(workload),
            Some(scenario),
            Some(completed),
            Some(outcome),
            Some(cycles),
            Some(slowdown),
        ) = (workload, scenario, completed, outcome, cycles, slowdown)
        else {
            rep.fail(file, format!("rows[{i}]: missing/mistyped field"));
            continue;
        };
        for key in ["drops", "nacks", "retries", "timeouts", "prefetch_retries"] {
            if r.get(key).and_then(Value::as_u64).is_none() {
                rep.fail(file, format!("row {workload}/{scenario}: bad {key}"));
            }
        }
        if scenario == "clean" {
            let traffic: u64 = ["drops", "nacks", "retries", "timeouts"]
                .iter()
                .filter_map(|k| r.get(k).and_then(Value::as_u64))
                .sum();
            if traffic != 0 {
                rep.fail(
                    file,
                    format!("row {workload}/clean: reports recovery traffic"),
                );
            }
        }
        if completed {
            if cycles == 0 {
                rep.fail(
                    file,
                    format!("row {workload}/{scenario}: completed with zero cycles"),
                );
            }
            if let Some(clean) = clean_cycles(workload) {
                if clean > 0 && !close(slowdown, cycles as f64 / clean as f64) {
                    rep.fail(
                        file,
                        format!(
                            "row {workload}/{scenario}: slowdown {slowdown} != \
                             cycles quotient {:.4}",
                            cycles as f64 / clean as f64
                        ),
                    );
                }
            }
        }
        if smoke {
            continue;
        }
        if !completed || outcome != "ok" {
            rep.fail(
                file,
                format!("row {workload}/{scenario}: outcome {outcome:?} (completed = {completed})"),
            );
        }
        if slowdown > RESILIENCE_SLOWDOWN_CEIL {
            rep.fail(
                file,
                format!(
                    "row {workload}/{scenario}: slowdown {slowdown:.2}x above the \
                     {RESILIENCE_SLOWDOWN_CEIL}x ceiling"
                ),
            );
        }
    }
    if smoke {
        rep.gates_skipped.push(file);
    }
}

fn check_crash_resume(rep: &mut Report) {
    let file = "BENCH_crash_resume.json";
    let Some(doc) = load(rep, file) else { return };
    if doc.get("smoke").and_then(Value::as_bool).is_none() {
        rep.fail(file, "missing boolean smoke field".into());
        return;
    }
    let Some(points) = doc.get("points").and_then(Value::as_arr) else {
        rep.fail(file, "missing points array".into());
        return;
    };
    if points.is_empty() {
        rep.fail(file, "no points".into());
    }
    // The matrix the file must cover: both kill modes on one thread and
    // on two lanes.
    let mut covered: Vec<(String, u64)> = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let mode = p.get("mode").and_then(Value::as_str);
        let threads = p.get("threads").and_then(Value::as_u64);
        let baseline = p.get("baseline_cycles").and_then(Value::as_u64);
        let resumed = p.get("resumed_cycles").and_then(Value::as_u64);
        let digest = p.get("digest_match").and_then(Value::as_bool);
        let stats = p.get("stats_match").and_then(Value::as_bool);
        let (Some(mode), Some(threads), Some(baseline), Some(resumed), Some(digest), Some(stats)) =
            (mode, threads, baseline, resumed, digest, stats)
        else {
            rep.fail(file, format!("points[{i}]: missing/mistyped field"));
            continue;
        };
        // The snapshot the point resumed from: which format, how big. An
        // artifact from before these fields existed, or from another
        // format version, says nothing about the snapshots this build
        // writes.
        let version = p.get("snapshot_version").and_then(Value::as_u64);
        let image_bytes = p.get("image_bytes").and_then(Value::as_u64);
        match (version, image_bytes) {
            (Some(v), Some(_)) => {
                if v != u64::from(SNAPSHOT_VERSION) {
                    rep.fail(
                        file,
                        format!(
                            "point {mode}@{threads}: stale artifact — snapshot format {v}, \
                             this build writes {SNAPSHOT_VERSION}; rerun crash_resume"
                        ),
                    );
                }
            }
            _ => rep.fail(
                file,
                format!(
                    "point {mode}@{threads}: stale artifact — no snapshot_version/image_bytes; \
                     rerun crash_resume"
                ),
            ),
        }
        covered.push((mode.to_string(), threads));
        if baseline == 0 {
            rep.fail(
                file,
                format!("point {mode}@{threads}: zero baseline cycles"),
            );
        }
        // Bit-identity is workload-size-independent, so these gates
        // apply to smoke artifacts too.
        if resumed != baseline {
            rep.fail(
                file,
                format!(
                    "point {mode}@{threads}: resumed run took {resumed} cycles, \
                     uninterrupted took {baseline}"
                ),
            );
        }
        if !digest {
            rep.fail(
                file,
                format!("point {mode}@{threads}: memory digest mismatch after resume"),
            );
        }
        if !stats {
            rep.fail(
                file,
                format!("point {mode}@{threads}: stats tree mismatch after resume"),
            );
        }
    }
    for mode in ["in-process", "sigkill"] {
        for threads in [1u64, 2] {
            if !covered.iter().any(|(m, t)| m == mode && *t == threads) {
                rep.fail(
                    file,
                    format!("missing coverage: no {mode} point at {threads} thread(s)"),
                );
            }
        }
    }
}

/// One-line summary per file for the default (no `--check`) mode.
fn summarize() {
    for file in ["BENCH_resilience.json", "BENCH_crash_resume.json"] {
        let Ok(text) = std::fs::read_to_string(file) else {
            println!("{file:<24} (missing)");
            continue;
        };
        let Ok(doc) = parse(&text) else {
            println!("{file:<24} (malformed)");
            continue;
        };
        match file {
            "BENCH_crash_resume.json" => {
                let pts = doc.get("points").and_then(Value::as_arr);
                let total = pts.map_or(0, <[Value]>::len);
                let ok = pts.map_or(0, |ps| {
                    ps.iter()
                        .filter(|p| {
                            p.get("digest_match").and_then(Value::as_bool) == Some(true)
                                && p.get("stats_match").and_then(Value::as_bool) == Some(true)
                        })
                        .count()
                });
                println!("{file:<24} {ok}/{total} points bit-identical");
            }
            _ => {
                let rows = doc
                    .get("rows")
                    .and_then(Value::as_arr)
                    .map_or(0, <[Value]>::len);
                let ok = doc.get("rows").and_then(Value::as_arr).map_or(0, |rs| {
                    rs.iter()
                        .filter(|r| r.get("outcome").and_then(Value::as_str) == Some("ok"))
                        .count()
                });
                println!("{file:<24} {ok}/{rows} rows ok");
            }
        }
    }
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    if !check {
        summarize();
        return;
    }
    let mut rep = Report {
        findings: Vec::new(),
        gates_skipped: Vec::new(),
    };
    check_resilience(&mut rep);
    check_crash_resume(&mut rep);
    for file in &rep.gates_skipped {
        eprintln!("note: {file} is a smoke artifact; regression gates skipped");
    }
    if rep.findings.is_empty() {
        eprintln!("bench history: all artifacts valid, no unexplained regressions");
        return;
    }
    for f in &rep.findings {
        eprintln!("FAIL {}: {}", f.file, f.msg);
    }
    eprintln!("bench history: {} finding(s)", rep.findings.len());
    std::process::exit(1);
}
