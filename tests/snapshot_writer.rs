//! The auto-checkpoint's file writer runs off the simulation thread; these
//! tests pin what that must not change.
//!
//! * However a run ends, the file on disk when `run`/`resume` returns is
//!   the last checkpoint that came due — never an older one still being
//!   overtaken by a write in flight — and it resumes bit-identically.
//! * A checkpoint that cannot be written fails *that run* with
//!   `MachineError::Snapshot`; the run neither hangs on its writer
//!   thread nor carries on unprotected.
//!
//! * A machine stopped on a given cycle serializes to the same bytes
//!   whatever the thread count it got there with, and to the same bytes
//!   every time it is asked.
//!
//! On one thread and on two lanes: the writer thread shares the run
//! loop's `thread::scope` with the second lane.

use std::path::{Path, PathBuf};

use cedar_kernels::staged::rank64::{Rank64, Rank64Version};
use cedar_machine::ids::CeId;
use cedar_machine::machine::Machine;
use cedar_machine::program::Program;
use cedar_machine::{MachineConfig, MachineError, MachineStats};

const LIMIT: u64 = 1_000_000_000;
const CLUSTERS: usize = 2;

fn build(m: &mut Machine) -> Vec<(CeId, Program)> {
    Rank64 {
        n: 64,
        k: 64,
        version: Rank64Version::GmCache,
    }
    .build(m, CLUSTERS)
}

fn cfg(threads: usize) -> MachineConfig {
    MachineConfig::cedar_with_clusters(CLUSTERS).with_threads(threads)
}

/// A scratch directory of this test's own, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("cedar-snapw-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // `replaced by a file`: the scratch path may be a file by now.
        let _ = std::fs::remove_file(&self.0);
    }
}

fn fingerprint(m: &Machine, cycles: u64, stats: MachineStats) -> (u64, u64, MachineStats) {
    (cycles, m.memory_digest(), stats)
}

fn uninterrupted(threads: usize) -> (u64, u64, MachineStats) {
    let mut m = Machine::new(cfg(threads)).unwrap();
    let progs = build(&mut m);
    let r = m.run(progs, LIMIT).unwrap();
    fingerprint(&m, r.cycles, r.stats)
}

/// Run with auto-checkpointing into `snap` until the cycle limit cuts
/// the run off at `kill_at`; returns the cycle the run stopped on.
fn run_until_killed(threads: usize, every: u64, kill_at: u64, snap: &Path) -> u64 {
    let mut m = Machine::new(cfg(threads).with_checkpoint(every, snap)).unwrap();
    let progs = build(&mut m);
    match m.run(progs, kill_at) {
        Err(MachineError::CycleLimitExceeded { .. }) => m.now().0,
        other => panic!("the kill run should hit the cycle limit, got {other:?}"),
    }
}

/// The cycle a mid-run image was taken on: resume it under a zero budget,
/// which stops before the first round.
fn cycle_of(threads: usize, image: &[u8]) -> u64 {
    let mut m = Machine::new(cfg(threads)).unwrap();
    let progs = build(&mut m);
    match m.resume(progs, image, 0) {
        Err(MachineError::CycleLimitExceeded { .. }) => m.now().0,
        other => panic!("a zero-budget resume should stop at once, got {other:?}"),
    }
}

#[test]
fn the_file_after_a_cycle_limit_is_the_last_due_checkpoint() {
    for threads in [1, 2] {
        let base = uninterrupted(threads);
        let scratch = Scratch::new(&format!("last-due-t{threads}"));
        let snap = scratch.0.join("run.snap");
        let every = base.0 / 23;
        for kill_at in [base.0 / 3, base.0 / 2, base.0 - every / 2] {
            let stopped = run_until_killed(threads, every, kill_at, &snap);
            let image = std::fs::read(&snap).unwrap();
            let taken = cycle_of(threads, &image);
            // The run checkpoints in the very round a checkpoint comes
            // due, so the newest one is less than an interval old — and
            // `run` must not return before it is the file.
            assert!(
                taken <= stopped && stopped < taken + every,
                "threads {threads}, killed at {kill_at}: stopped on cycle {stopped}, \
                 file holds cycle {taken}, interval {every}"
            );
            assert!(
                !snap.with_extension("snap.tmp").exists(),
                "a finished run leaves no temporary file behind"
            );

            let mut m = Machine::new(cfg(threads)).unwrap();
            let progs = build(&mut m);
            let r = m.resume_from_file(progs, &snap, LIMIT).unwrap();
            assert!(
                fingerprint(&m, r.cycles, r.stats) == base,
                "threads {threads}, killed at {kill_at}: resumed run differs"
            );
        }
    }
}

fn expect_write_failure(result: cedar_machine::Result<cedar_machine::RunReport>, label: &str) {
    match result {
        Err(MachineError::Snapshot(msg)) => assert!(
            msg.contains("create") && msg.contains("run.snap"),
            "{label}: the error should name the failed step and file, got {msg:?}"
        ),
        other => panic!("{label}: expected a snapshot write error, got {other:?}"),
    }
}

#[test]
fn a_checkpoint_directory_lost_mid_run_fails_the_run() {
    for threads in [1, 2] {
        let base = uninterrupted(threads);
        let every = base.0 / 23;
        let scratch = Scratch::new(&format!("lost-dir-t{threads}"));
        let snap = scratch.0.join("run.snap");
        run_until_killed(threads, every, base.0 / 2, &snap);
        let image = std::fs::read(&snap).unwrap();
        let checkpointing = || {
            let mut m = Machine::new(cfg(threads).with_checkpoint(every, &snap)).unwrap();
            let progs = build(&mut m);
            (m, progs)
        };

        // The directory disappears under the run: its continuation (and a
        // fresh run) must fail on the first checkpoint, and return.
        std::fs::remove_dir_all(&scratch.0).unwrap();
        let (mut m, progs) = checkpointing();
        expect_write_failure(m.resume(progs, &image, LIMIT), "directory removed, resume");
        let (mut m, progs) = checkpointing();
        expect_write_failure(m.run(progs, LIMIT), "directory removed, run");
        // The failure arrives with the hand-off of the *next* checkpoint
        // or when the run ends; a run too short for a second checkpoint
        // must still report it.
        let (mut m, progs) = checkpointing();
        expect_write_failure(
            m.run(progs, every + every / 2),
            "directory removed, short run",
        );

        // The directory is replaced by a file.
        std::fs::write(&scratch.0, b"in the way").unwrap();
        let (mut m, progs) = checkpointing();
        expect_write_failure(
            m.resume(progs, &image, LIMIT),
            "directory replaced by a file",
        );
        std::fs::remove_file(&scratch.0).unwrap();

        // And once it is back, the same continuation completes — the
        // failures above left nothing behind that matters.
        std::fs::create_dir_all(&scratch.0).unwrap();
        let (mut m, progs) = checkpointing();
        let r = m.resume(progs, &image, LIMIT).unwrap();
        assert!(
            fingerprint(&m, r.cycles, r.stats) == base,
            "threads {threads}: continuation after the directory came back differs"
        );
    }
}

#[test]
fn a_stopped_machine_images_identically_on_every_shard_count() {
    // An exhausted budget refuses the early memory tick, so every thread
    // count stops on the same cycle in the same state; from there the
    // bytes must agree too.
    let stopped_image = |threads: usize| {
        let cfg = MachineConfig::cedar_with_clusters(4).with_threads(threads);
        let mut m = Machine::new(cfg).unwrap();
        let progs = Rank64 {
            n: 64,
            k: 64,
            version: Rank64Version::GmPrefetch { block_words: 32 },
        }
        .build(&mut m, 4);
        match m.run(progs, 9_000) {
            Err(MachineError::CycleLimitExceeded { .. }) => {}
            other => panic!("the run should hit the cycle limit, got {other:?}"),
        }
        let mut image = Vec::new();
        m.checkpoint(&mut image).unwrap();
        let mut again = Vec::new();
        m.checkpoint(&mut again).unwrap();
        assert!(image == again, "two images of one unchanged machine differ");
        (m.now(), image)
    };
    let serial = stopped_image(1);
    for threads in [2, 4] {
        let two_lane = stopped_image(threads);
        assert_eq!(two_lane.0, serial.0, "threads {threads}");
        assert!(
            two_lane.1 == serial.1,
            "threads {threads}: image differs from the one-thread image"
        );
    }
}
