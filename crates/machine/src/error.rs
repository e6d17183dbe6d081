//! Error types for the machine simulator.

use core::fmt;

use crate::ids::{CeId, CounterId};

/// Errors raised while building or running a simulated machine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MachineError {
    /// The machine configuration is internally inconsistent.
    InvalidConfig(String),
    /// A program referenced a CE outside the configured machine.
    NoSuchCe(CeId),
    /// A program referenced an undeclared scheduling counter.
    NoSuchCounter(CounterId),
    /// A program is malformed (e.g. consumes prefetch data that was never
    /// armed, or nests loops deeper than the supported depth).
    BadProgram { ce: CeId, reason: String },
    /// The simulation exceeded its cycle budget without completing —
    /// a genuinely slow run (the forward-progress watchdog catches true
    /// deadlocks before the budget runs out; see [`MachineError::Deadlock`]).
    CycleLimitExceeded { limit: u64 },
    /// The forward-progress watchdog decided the machine can never
    /// finish: either no subsystem has a future event while work remains,
    /// or every live CE sat in a synchronization wait across repeated
    /// checks. The report captures the machine state at detection.
    Deadlock { report: Box<HangReport> },
    /// A CE's retry controller exhausted its budget on one global-memory
    /// operation (persistent drops, NACKs, or an offline module): the
    /// machine cannot make that operation complete.
    Faulted { ce: CeId, reason: String },
    /// A machine snapshot could not be written, or could not be restored:
    /// wrong magic/version, torn or corrupted payload, or state that does
    /// not match the machine's configuration. Restore never panics on bad
    /// bytes — it returns this.
    Snapshot(String),
    /// A checkpoint, restore or resume was asked of a machine built by
    /// `Machine::new_reference`, or its configuration asks for
    /// auto-checkpointing. The reference is a test oracle: its snapshots
    /// would need the tree-walking interpreter's frame stack, which the
    /// format does not carry.
    ReferenceCheckpoint,
}

/// Machine state captured by the forward-progress watchdog at the moment
/// it declared a deadlock: who is waiting on what, and what is in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HangReport {
    /// Machine cycle at detection.
    pub at_cycle: u64,
    /// What tripped the watchdog: `"event starvation"` (no subsystem has
    /// a future event) or `"synchronization stall"` (every live CE stuck
    /// in a sync wait across repeated checks).
    pub kind: String,
    /// Every unfinished CE, as `(ce index, state, wake cycle)`: the
    /// wake cycle is the next cycle the engine does more than wait, or
    /// `None` (printed `∞`) while it sleeps until a reply lands or its CC
    /// bus posts it a grant or release.
    pub ces: Vec<(usize, String, Option<u64>)>,
    /// How many of those CEs are blocked in barrier/counter/sync waits.
    pub barrier_waiters: usize,
    /// Packets in flight on the forward (CE → memory) network.
    pub fwd_in_flight: usize,
    /// Packets in flight on the reverse (memory → CE) network.
    pub rev_in_flight: usize,
    /// Queued requests per global-memory module, `(module, depth)`,
    /// non-empty modules only.
    pub module_queues: Vec<(usize, usize)>,
    /// Global-memory operations still tracked by CE retry controllers.
    pub pending_retries: u64,
    /// Two-lane context at detection; `None` when the machine ran on one
    /// thread.
    pub lanes: Option<LaneContext>,
}

/// What a two-lane run had done when the watchdog fired, so a hang in
/// the lane hand-offs is diagnosable from the report alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneContext {
    /// Rounds the second lane took part in since the run started, two
    /// hand-offs each (a round that starts with both networks empty runs
    /// on the calling thread alone).
    pub rounds: u64,
    /// Rounds in which the next cycle's memory tick ran early, beside the
    /// cluster phase.
    pub early_memory_ticks: u64,
    /// Per-lane time parked at the hand-offs, as `(lane, waits,
    /// nanoseconds)`; the time is measured only under host profiling.
    pub lane_waits: Vec<(usize, u64, u64)>,
}

impl fmt::Display for HangReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "hang at cycle {} ({}): {} unfinished CE(s), {} in sync waits, \
             {} fwd / {} rev packets in flight, {} pending retries",
            self.at_cycle,
            self.kind,
            self.ces.len(),
            self.barrier_waiters,
            self.fwd_in_flight,
            self.rev_in_flight,
            self.pending_retries,
        )?;
        if let Some(c) = &self.lanes {
            writeln!(
                f,
                "  two lanes: {} rounds, {} early memory ticks",
                c.rounds, c.early_memory_ticks
            )?;
            for (lane, waits, ns) in &c.lane_waits {
                writeln!(f, "    lane[{lane}]: {waits} waits, {ns}ns parked")?;
            }
        }
        for (ce, state, wake) in &self.ces {
            match wake {
                Some(at) => writeln!(f, "  ce[{ce}]: {state}, wakes at {at}")?,
                None => writeln!(f, "  ce[{ce}]: {state}, wakes at ∞")?,
            }
        }
        if !self.module_queues.is_empty() {
            write!(f, "  module queues:")?;
            for (m, depth) in &self.module_queues {
                write!(f, " [{m}]={depth}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::InvalidConfig(msg) => write!(f, "invalid machine configuration: {msg}"),
            MachineError::NoSuchCe(ce) => write!(f, "no such CE: {ce}"),
            MachineError::NoSuchCounter(c) => write!(f, "no such scheduling counter: {c}"),
            MachineError::BadProgram { ce, reason } => {
                write!(f, "bad program on {ce}: {reason}")
            }
            MachineError::CycleLimitExceeded { limit } => {
                write!(f, "simulation exceeded {limit} cycles without completing")
            }
            MachineError::Deadlock { report } => {
                write!(f, "machine deadlocked: {report}")
            }
            MachineError::Faulted { ce, reason } => {
                write!(f, "unrecoverable fault on {ce}: {reason}")
            }
            MachineError::Snapshot(msg) => write!(f, "snapshot error: {msg}"),
            MachineError::ReferenceCheckpoint => {
                write!(f, "reference machines cannot be checkpointed or restored")
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// Convenient result alias for machine operations.
pub type Result<T> = std::result::Result<T, MachineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_nonempty() {
        let errs: Vec<MachineError> = vec![
            MachineError::InvalidConfig("x".into()),
            MachineError::NoSuchCe(CeId(99)),
            MachineError::NoSuchCounter(CounterId(3)),
            MachineError::BadProgram {
                ce: CeId(0),
                reason: "oops".into(),
            },
            MachineError::CycleLimitExceeded { limit: 10 },
            MachineError::Deadlock {
                report: Box::new(sample_report()),
            },
            MachineError::Faulted {
                ce: CeId(3),
                reason: "request seq 9 failed after 17 attempts".into(),
            },
            MachineError::Snapshot("payload checksum mismatch".into()),
            MachineError::ReferenceCheckpoint,
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    fn sample_report() -> HangReport {
        HangReport {
            at_cycle: 40_960,
            kind: "synchronization stall".into(),
            ces: vec![
                (0, "GlobalBarrier(poll)".into(), Some(40_993)),
                (8, "AwaitCounter".into(), None),
            ],
            barrier_waiters: 2,
            fwd_in_flight: 1,
            rev_in_flight: 0,
            module_queues: vec![(3, 2)],
            pending_retries: 1,
            lanes: Some(LaneContext {
                rounds: 512,
                early_memory_ticks: 498,
                lane_waits: vec![(0, 1024, 90_000), (1, 1024, 81_000)],
            }),
        }
    }

    #[test]
    fn hang_report_display_names_every_waiter() {
        let r = sample_report();
        let text = r.to_string();
        assert!(text.contains("cycle 40960"));
        assert!(
            text.contains("ce[0]: GlobalBarrier(poll), wakes at 40993"),
            "a CE with a known wake cycle names it: {text}"
        );
        assert!(
            text.contains("ce[8]: AwaitCounter, wakes at ∞"),
            "a CE asleep on a delivery or bus flag prints ∞: {text}"
        );
        assert!(text.contains("[3]=2"));
        assert!(
            text.contains("two lanes: 512 rounds, 498 early memory ticks"),
            "lane context missing: {text}"
        );
        assert!(text.contains("lane[1]: 1024 waits, 81000ns parked"));
        let e = MachineError::Deadlock {
            report: Box::new(r),
        };
        assert!(e.to_string().contains("deadlocked"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MachineError>();
    }
}
