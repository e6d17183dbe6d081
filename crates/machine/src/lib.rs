//! # cedar-machine
//!
//! A deterministic, cycle-level simulator of the **Cedar** multiprocessor
//! ("The Cedar System and an Initial Performance Study", ISCA 1993): four
//! Alliant FX/8 clusters of eight vector CEs, per-cluster shared caches
//! and memories, two unidirectional shuffle-exchange networks of 8×8
//! crossbars, 64 MB of interleaved global memory with per-module
//! synchronization processors, per-CE data-prefetch units, and
//! concurrency control buses.
//!
//! The simulator is a *timing* model: it tracks cache tags, queue
//! occupancies, bank conflicts and synchronization values, but not
//! floating-point data. Numeric correctness of the workloads lives in the
//! companion `cedar-kernels` crate, which provides both pure-Rust kernels
//! and the staged instruction streams executed here.
//!
//! ## Quickstart
//!
//! ```
//! use cedar_machine::config::MachineConfig;
//! use cedar_machine::ids::CeId;
//! use cedar_machine::machine::Machine;
//! use cedar_machine::program::{MemOperand, ProgramBuilder, VectorOp};
//!
//! # fn main() -> Result<(), cedar_machine::error::MachineError> {
//! let mut machine = Machine::new(MachineConfig::cedar())?;
//! let mut b = ProgramBuilder::new();
//! b.vector(VectorOp {
//!     length: 32,
//!     flops_per_element: 2,
//!     operand: MemOperand::None,
//! });
//! let report = machine.run(vec![(CeId(0), b.build())], 10_000)?;
//! assert_eq!(report.flops, 64);
//! # Ok(())
//! # }
//! ```

mod bits;
pub mod cache;
pub mod ccbus;
pub mod ce;
pub mod config;
pub mod env;
pub mod error;
pub mod fault;
mod handoff;
pub mod ids;
pub mod lower;
pub mod machine;
pub mod memory;
pub mod monitor;
pub mod network;
mod parallel;
pub mod prefetch;
pub mod program;
pub mod sched;
pub mod snapshot;
pub mod stats;
pub mod time;
pub mod trace;
pub mod vm;

pub use config::MachineConfig;
pub use error::{HangReport, LaneContext, MachineError, Result};
pub use fault::{FaultPlan, LinkOutage, ModuleOutage};
pub use ids::{CeId, ClusterId, CounterId, ModuleId, PageId, PortId};
pub use machine::{CounterScope, Machine, RunReport};
pub use program::{AddressExpr, BarrierId, MemOperand, Op, Program, ProgramBuilder, VectorOp};
pub use sched::BarrierScope;
pub use stats::{MachineStats, UtilSample, UtilizationTimeline};
pub use time::Cycle;
pub use trace::{BarrierEpisode, HostProfiler, Journey, LatencyBreakdown, TraceEvent, TracePlan};
