//! Crash-recovery support for the experiment drivers.
//!
//! Long sweeps die to OOM kills, host reboots and CI timeouts; the
//! machine-level snapshot subsystem
//! ([`cedar_machine::MachineConfig::checkpoint_every`]) exists so they
//! resume instead of restart. This module is the thin experiment-side
//! wrapper: a [`Checkpoint`] plan parsed from driver CLI flags, a
//! per-point snapshot naming scheme, and [`run_point`], which wires the
//! plan into one simulation — auto-checkpointing it while it runs and,
//! under `--resume`, continuing from the point's snapshot when one is on
//! disk. Because a resumed run is bit-identical to an uninterrupted one
//! (`tests/snapshot.rs`), a resumed table is the table: only the
//! `resumed_from` provenance stamped into the [`RunReport`] (and echoed
//! in the rendered report) records that a crash happened at all.

use std::path::PathBuf;

use cedar_machine::ids::CeId;
use cedar_machine::machine::{Machine, RunReport};
use cedar_machine::program::Program;
use cedar_machine::MachineConfig;

/// Default auto-checkpoint interval for experiment runs, in cycles.
/// Sized from the measured cost of one checkpoint (the benchmark's
/// `ckpt_chain` workload): serializing the machine takes the simulation
/// thread about 0.05 ms (`snapshot.save_ms`; the file write and `fsync`
/// run on the writer thread), and 100 000 simulated cycles of a Table 1
/// run take about 100 ms of host time, so checkpointing this often costs
/// well under 0.1 % of a run — while every paper-scale Table 1, Table 2
/// and PPT4 point long enough to be worth resuming (15 k–250 k cycles
/// and up) leaves a snapshot behind.
pub const DEFAULT_EVERY: u64 = 100_000;

/// A driver's checkpoint/resume request: snapshot every `every` cycles
/// into per-point files under `dir`, and (with `resume`) continue
/// interrupted points from their snapshots instead of restarting them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Directory holding one `<point-key>.snap` per simulation.
    pub dir: PathBuf,
    /// Auto-checkpoint interval in cycles.
    pub every: u64,
    /// Resume points whose snapshot file exists instead of restarting.
    pub resume: bool,
}

impl Checkpoint {
    /// Parse the shared driver flags out of `args`:
    /// `--checkpoint <dir>` enables checkpointing,
    /// `--checkpoint-every <cycles>` overrides [`DEFAULT_EVERY`], and
    /// `--resume` continues from existing snapshots. Returns `Ok(None)`
    /// when `--checkpoint` is absent. Creates `dir` eagerly so a typoed
    /// parent path fails before hours of simulation, not after.
    ///
    /// # Errors
    ///
    /// A human-readable message for a flag without its value, a
    /// non-numeric interval, `--resume`/`--checkpoint-every` without
    /// `--checkpoint`, or an uncreatable directory.
    pub fn from_cli<I: Iterator<Item = String>>(args: I) -> Result<Option<Checkpoint>, String> {
        let mut dir: Option<PathBuf> = None;
        let mut every = DEFAULT_EVERY;
        let mut saw_every = false;
        let mut resume = false;
        let mut it = args.peekable();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--checkpoint" => {
                    let v = it.next().ok_or("--checkpoint needs a directory")?;
                    dir = Some(PathBuf::from(v));
                }
                "--checkpoint-every" => {
                    let v = it.next().ok_or("--checkpoint-every needs a cycle count")?;
                    every = v
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| format!("--checkpoint-every {v:?} is not a cycle count"))?;
                    if every == 0 {
                        return Err("--checkpoint-every must be positive".to_string());
                    }
                    saw_every = true;
                }
                "--resume" => resume = true,
                _ => {}
            }
        }
        let Some(dir) = dir else {
            if resume {
                return Err("--resume needs --checkpoint <dir> (where the snapshots live)".into());
            }
            if saw_every {
                return Err("--checkpoint-every needs --checkpoint <dir>".into());
            }
            return Ok(None);
        };
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create checkpoint dir {}: {e}", dir.display()))?;
        Ok(Some(Checkpoint { dir, every, resume }))
    }

    /// The snapshot file for one experiment point. `key` should name the
    /// point uniquely within the experiment (`t1-GM-pref-3cl`); path
    /// separators and whitespace are flattened so every key stays one
    /// file inside `dir`.
    pub fn snap_path(&self, key: &str) -> PathBuf {
        let safe: String = key
            .chars()
            .map(|c| match c {
                '/' | '\\' | ' ' => '-',
                c => c,
            })
            .collect();
        self.dir.join(format!("{safe}.snap"))
    }
}

/// Run one experiment point under an optional checkpoint plan. `build`
/// loads the point's programs into a fresh machine (allocating its
/// counters and barriers), exactly as it would for a plain run — resume
/// requires re-loading the interrupted run's programs, and the snapshot
/// layer verifies the allocations match.
///
/// Without a plan this is `Machine::new` + `run`. With one, the run
/// auto-checkpoints to [`Checkpoint::snap_path`]`(key)`; under
/// `--resume` an existing snapshot continues instead (stamping
/// [`RunReport::resumed_from`]), and is removed once the point
/// completes so a later sweep starts clean.
///
/// # Errors
///
/// Everything the underlying run can return, plus
/// [`cedar_machine::MachineError::Snapshot`] for an unreadable or
/// mismatched snapshot.
pub fn run_point<F>(
    ck: Option<&Checkpoint>,
    key: &str,
    cfg: MachineConfig,
    limit: u64,
    build: F,
) -> cedar_machine::Result<RunReport>
where
    F: FnOnce(&mut Machine) -> Vec<(CeId, Program)>,
{
    let Some(ck) = ck else {
        let mut m = Machine::new(cfg)?;
        let progs = build(&mut m);
        return m.run(progs, limit);
    };
    let path = ck.snap_path(key);
    let resuming = ck.resume && path.exists();
    // The resumed machine keeps checkpointing to the same file, so a
    // second crash resumes from further along, not from the first image.
    let mut m = Machine::new(cfg.with_checkpoint(ck.every, &path))?;
    let progs = build(&mut m);
    let report = if resuming {
        m.resume_from_file(progs, &path, limit)?
    } else {
        m.run(progs, limit)?
    };
    let _ = std::fs::remove_file(&path);
    Ok(report)
}

/// Render the provenance footer for a batch of completed points: one
/// line per resumed run, empty when nothing was resumed (the common
/// case, so uninterrupted reports are unchanged).
pub fn provenance_lines<'a, I>(points: I) -> String
where
    I: IntoIterator<Item = (&'a str, &'a RunReport)>,
{
    let mut out = String::new();
    for (key, r) in points {
        if let Some(p) = &r.resumed_from {
            out.push_str(&format!("resumed: {key} <- {}\n", p.display()));
        }
    }
    out
}

/// Convenience for experiments that track provenance as strings: the
/// footer line for one resumed report, if it was resumed.
pub fn provenance_of(key: &str, r: &RunReport) -> Option<String> {
    r.resumed_from
        .as_ref()
        .map(|p| format!("resumed: {key} <- {}", p.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> impl Iterator<Item = String> {
        list.iter()
            .map(|s| (*s).to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn cli_parsing_covers_the_flag_grammar() {
        assert_eq!(Checkpoint::from_cli(args(&["--smoke"])).unwrap(), None);
        let dir = std::env::temp_dir().join(format!("cedar-ckpt-cli-{}", std::process::id()));
        let d = dir.to_str().unwrap();
        let ck = Checkpoint::from_cli(args(&["--checkpoint", d]))
            .unwrap()
            .unwrap();
        assert_eq!(ck.every, 100_000, "the documented default interval");
        assert!(!ck.resume);
        let ck = Checkpoint::from_cli(args(&[
            "--checkpoint",
            d,
            "--checkpoint-every",
            "4096",
            "--resume",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!((ck.every, ck.resume), (4096, true));
        assert!(ck.dir.is_dir(), "the directory is created eagerly");
        assert!(Checkpoint::from_cli(args(&["--checkpoint"])).is_err());
        assert!(Checkpoint::from_cli(args(&["--resume"])).is_err());
        assert!(Checkpoint::from_cli(args(&["--checkpoint-every", "9"])).is_err());
        assert!(
            Checkpoint::from_cli(args(&["--checkpoint", d, "--checkpoint-every", "soon"])).is_err()
        );
        assert!(
            Checkpoint::from_cli(args(&["--checkpoint", d, "--checkpoint-every", "0"])).is_err()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snap_paths_flatten_hostile_keys() {
        let ck = Checkpoint {
            dir: PathBuf::from("/tmp/snaps"),
            every: 1,
            resume: false,
        };
        assert_eq!(
            ck.snap_path("t1 GM/pref 3cl"),
            PathBuf::from("/tmp/snaps/t1-GM-pref-3cl.snap")
        );
    }
}
