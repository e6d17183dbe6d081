//! # cedar-bench
//!
//! The benchmark harness of the Cedar reproduction.
//!
//! ## Table/figure regenerators (binaries)
//!
//! Each binary reruns one piece of the paper's evaluation on the
//! simulator and prints paper-vs-measured rows:
//!
//! ```text
//! cargo run --release -p cedar-bench --bin table1   # rank-64 update MFLOPS
//! cargo run --release -p cedar-bench --bin table2   # prefetch latency/interarrival
//! cargo run --release -p cedar-bench --bin table3   # Perfect suite: Tables 3–6, Fig. 3
//! cargo run --release -p cedar-bench --bin ppt4     # CG scalability vs CM-5
//! cargo run --release -p cedar-bench --bin all_experiments
//! ```
//!
//! `table3` measures the whole Perfect suite once and prints Tables 3–6
//! and Figure 3 from the same measurement (they share the ensemble, as in
//! the paper).
//!
//! ## Ablations
//!
//! `ablation_prefetch`, `ablation_sync`, `ablation_network` and
//! `ablation_loops` vary the design choices DESIGN.md calls out
//! (prefetch block size and policy, Cedar synchronization, switch queue
//! depth/radix, loop-scheduling flavor).
//!
//! These binaries measure the *machine*; the standalone `benchmark/`
//! package at the repository root measures the *simulator*.

pub mod json;

/// Environment flag: set `CEDAR_BENCH_QUICK=1` to shrink problem sizes
/// (useful in CI).
pub fn quick() -> bool {
    std::env::var("CEDAR_BENCH_QUICK").is_ok_and(|v| v == "1")
}
