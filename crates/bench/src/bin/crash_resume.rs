//! Crash-recovery bench: kill checkpointing runs and prove the resumed
//! runs are bit-identical to uninterrupted ones.
//!
//! Two kill mechanisms on a Table 1 workload (rank-64 GM/cache, four
//! clusters) on one thread and on two lanes:
//!
//! * **in-process** — the run is cut off at an adversarial cycle via the
//!   cycle limit, the machine is dropped mid-run, and a fresh machine
//!   resumes from the auto-checkpoint;
//! * **sigkill** — the binary re-execs itself as a child running the
//!   same workload with auto-checkpointing, waits for a snapshot file to
//!   appear, and SIGKILLs the child (a real crash: no destructors, no
//!   flushing), then resumes from whatever image the dead process left.
//!
//! Both must reproduce the uninterrupted run's cycle count, memory
//! digest and full stats tree. Writes `BENCH_crash_resume.json`;
//! `bench_history --check` gates on every point matching. `--smoke`
//! shrinks the workload for CI.

use std::path::{Path, PathBuf};

use cedar_kernels::staged::rank64::{Rank64, Rank64Version};
use cedar_machine::ids::CeId;
use cedar_machine::machine::Machine;
use cedar_machine::program::Program;
use cedar_machine::{MachineConfig, MachineError, MachineStats};

const LIMIT: u64 = 2_000_000_000;
const CLUSTERS: usize = 4;

fn build(m: &mut Machine, n: u32) -> Vec<(CeId, Program)> {
    Rank64 {
        n,
        k: 64,
        version: Rank64Version::GmCache,
    }
    .build(m, CLUSTERS)
}

fn cfg_for(threads: usize) -> MachineConfig {
    MachineConfig::cedar_with_clusters(CLUSTERS).with_threads(threads)
}

struct Fingerprint {
    cycles: u64,
    memory: u64,
    stats: MachineStats,
}

/// What the crashed run left on disk: the format version stamped in the
/// file's header and the file's size.
struct Stamp {
    snapshot_version: u32,
    image_bytes: u64,
}

fn stamp_of(snap: &Path) -> Stamp {
    let image = std::fs::read(snap).expect("read the crashed run's snapshot");
    let version = image.get(8..12).expect("snapshot shorter than its header");
    Stamp {
        snapshot_version: u32::from_le_bytes(version.try_into().expect("4 bytes")),
        image_bytes: image.len() as u64,
    }
}

fn uninterrupted(threads: usize, n: u32) -> Fingerprint {
    let mut m = Machine::new(cfg_for(threads)).expect("machine");
    let progs = build(&mut m, n);
    let r = m.run(progs, LIMIT).expect("baseline run");
    Fingerprint {
        cycles: r.cycles,
        memory: m.memory_digest(),
        stats: r.stats,
    }
}

fn resume(threads: usize, n: u32, snap: &Path) -> Fingerprint {
    let mut m = Machine::new(cfg_for(threads)).expect("machine");
    let progs = build(&mut m, n);
    let r = m
        .resume_from_file(progs, snap, LIMIT)
        .expect("resume from the crashed run's snapshot");
    Fingerprint {
        cycles: r.cycles,
        memory: m.memory_digest(),
        stats: r.stats,
    }
}

struct Point {
    mode: &'static str,
    threads: usize,
    kill_cycle: u64,
    baseline_cycles: u64,
    resumed_cycles: u64,
    digest_match: bool,
    stats_match: bool,
    stamp: Stamp,
}

impl Point {
    fn ok(&self) -> bool {
        self.digest_match && self.stats_match && self.resumed_cycles == self.baseline_cycles
    }
}

fn point(
    mode: &'static str,
    threads: usize,
    kill_cycle: u64,
    base: &Fingerprint,
    got: &Fingerprint,
    stamp: Stamp,
) -> Point {
    Point {
        mode,
        threads,
        kill_cycle,
        baseline_cycles: base.cycles,
        resumed_cycles: got.cycles,
        digest_match: base.memory == got.memory,
        stats_match: base.stats == got.stats,
        stamp,
    }
}

/// In-process crash: cut the run off at `kill_at` via the cycle limit,
/// drop the machine, resume from the checkpoint file.
fn in_process(threads: usize, n: u32, base: &Fingerprint, snap: &Path) -> Point {
    let kill_at = 2 * base.cycles / 3;
    let every = (base.cycles / 9).max(1);
    let _ = std::fs::remove_file(snap);
    let mut m = Machine::new(cfg_for(threads).with_checkpoint(every, snap)).expect("machine");
    let progs = build(&mut m, n);
    match m.run(progs, kill_at) {
        Err(MachineError::CycleLimitExceeded { .. }) => {}
        other => panic!("kill run should hit the cycle limit, got {other:?}"),
    }
    drop(m);
    assert!(snap.exists(), "no checkpoint after the in-process kill");
    let stamp = stamp_of(snap);
    let got = resume(threads, n, snap);
    let p = point("in-process", threads, kill_at, base, &got, stamp);
    let _ = std::fs::remove_file(snap);
    p
}

/// Real crash: re-exec this binary as a child running the workload with
/// auto-checkpointing, SIGKILL it once a snapshot exists, resume here.
fn sigkill(threads: usize, n: u32, base: &Fingerprint, snap: &Path) -> Point {
    let every = (base.cycles / 9).max(1);
    let _ = std::fs::remove_file(snap);
    let exe = std::env::current_exe().expect("current_exe");
    let mut child = std::process::Command::new(exe)
        .args([
            "--child",
            snap.to_str().expect("utf-8 snap path"),
            &threads.to_string(),
            &n.to_string(),
            &every.to_string(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child");
    // Wait for the first auto-checkpoint to land (atomic rename: a
    // visible file is always complete), then kill without ceremony.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    while !snap.exists() {
        if let Some(status) = child.try_wait().expect("try_wait") {
            // The child finished before we could kill it: the snapshot
            // of its last interval is still on disk and resume must
            // still reproduce the run — unless it never checkpointed.
            assert!(
                status.success() && snap.exists(),
                "child exited ({status}) without leaving a snapshot"
            );
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "child produced no snapshot within the deadline"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let _ = child.kill(); // SIGKILL on unix: the process gets no say
    let _ = child.wait();
    let stamp = stamp_of(snap);
    let got = resume(threads, n, snap);
    let p = point("sigkill", threads, 0, base, &got, stamp);
    let _ = std::fs::remove_file(snap);
    p
}

/// Child mode for the sigkill scenario: run the workload with
/// auto-checkpointing until killed.
fn child_main(args: &[String]) -> ! {
    let snap = PathBuf::from(&args[0]);
    let threads: usize = args[1].parse().expect("threads");
    let n: u32 = args[2].parse().expect("n");
    let every: u64 = args[3].parse().expect("every");
    let mut m = Machine::new(cfg_for(threads).with_checkpoint(every, &snap)).expect("machine");
    let progs = build(&mut m, n);
    m.run(progs, LIMIT).expect("child run");
    std::process::exit(0);
}

fn json(smoke: bool, points: &[Point]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"crash_resume\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n  \"points\": [\n"));
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "    {{\n",
                    "      \"mode\": \"{}\",\n",
                    "      \"threads\": {},\n",
                    "      \"kill_cycle\": {},\n",
                    "      \"baseline_cycles\": {},\n",
                    "      \"resumed_cycles\": {},\n",
                    "      \"digest_match\": {},\n",
                    "      \"stats_match\": {},\n",
                    "      \"snapshot_version\": {},\n",
                    "      \"image_bytes\": {}\n",
                    "    }}"
                ),
                p.mode,
                p.threads,
                p.kill_cycle,
                p.baseline_cycles,
                p.resumed_cycles,
                p.digest_match,
                p.stats_match,
                p.stamp.snapshot_version,
                p.stamp.image_bytes,
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--child") {
        child_main(&args[1..]);
    }
    let smoke = args.iter().any(|a| a == "--smoke") || cedar_bench::quick();
    let n = if smoke { 64 } else { 128 };
    let mut points = Vec::new();
    for threads in [1usize, 2] {
        eprintln!("crash_resume: baseline (threads = {threads}, n = {n})...");
        let base = uninterrupted(threads, n);
        let snap = std::env::temp_dir().join(format!(
            "cedar-crash-resume-{}-t{threads}.snap",
            std::process::id()
        ));
        eprintln!(
            "crash_resume: in-process kill at 2/3 of {} cycles...",
            base.cycles
        );
        points.push(in_process(threads, n, &base, &snap));
        eprintln!("crash_resume: SIGKILL of a checkpointing child...");
        points.push(sigkill(threads, n, &base, &snap));
    }
    for p in &points {
        eprintln!(
            "crash_resume: {} t={} kill@{}: cycles {} -> {}, digest {}, stats {}",
            p.mode,
            p.threads,
            p.kill_cycle,
            p.baseline_cycles,
            p.resumed_cycles,
            if p.digest_match { "match" } else { "MISMATCH" },
            if p.stats_match { "match" } else { "MISMATCH" },
        );
    }
    std::fs::write("BENCH_crash_resume.json", json(smoke, &points)).expect("write artifact");
    eprintln!("wrote BENCH_crash_resume.json");
    if points.iter().any(|p| !p.ok()) {
        eprintln!("crash_resume: FAILED — resumed run differs from uninterrupted run");
        std::process::exit(1);
    }
    eprintln!("crash_resume: all {} points bit-identical", points.len());
}
