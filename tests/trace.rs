//! Causal journey tracing: determinism, zero-overhead-off, and report
//! contracts.
//!
//! The tracing layer promises (TracePlan docs):
//!
//! 1. with tracing ON, the sampled journey set, every event stamp, and
//!    every derived report are bit-identical across thread counts AND
//!    on the every-cycle reference machine — sampling decisions are
//!    counter-based, never drawn from execution order;
//! 2. with tracing OFF, the machine's observable output (cycles, memory
//!    digest, stats registry) is byte-identical to a build that never
//!    heard of tracing — no `trace.*` key is ever emitted;
//! 3. the latency-breakdown report decomposes round-trips into the hops
//!    the machine actually models: the `service` segment of every traced
//!    global-memory op is exactly the module service time.

use cedar_integration::machine;
use cedar_kernels::staged::rank64::{Rank64, Rank64Version};
use cedar_machine::machine::Machine;
use cedar_machine::stats::export::{chrome_trace_with_journeys, flat_text};
use cedar_machine::trace::class;
use cedar_machine::{MachineConfig, MachineStats, TraceEvent, TracePlan};

const PLAN: TracePlan = TracePlan {
    seed: 0xCEDA,
    sample_ppm: 250_000,
};

/// Everything a traced run can leak: the usual fingerprint plus the full
/// trace-event stream.
struct Traced {
    cycles: u64,
    memory: u64,
    stats: MachineStats,
    events: Vec<TraceEvent>,
    dropped: u64,
    machine: Machine,
}

/// A rank-64 run on the engine, or (with `reference`) on the every-cycle
/// reference machine.
fn run(version: Rank64Version, threads: usize, reference: bool, plan: Option<TracePlan>) -> Traced {
    let clusters = 4;
    let mut cfg = MachineConfig::cedar_with_clusters(clusters).with_threads(threads);
    if let Some(p) = plan {
        cfg = cfg.with_trace(p);
    }
    let mut m = machine(cfg, reference);
    let kern = Rank64 {
        n: 64,
        k: 64,
        version,
    };
    let progs = kern.build(&mut m, clusters);
    let r = m.run(progs, 1_000_000_000).unwrap();
    Traced {
        cycles: r.cycles,
        memory: m.memory_digest(),
        stats: r.stats,
        events: m.trace_events().to_vec(),
        dropped: m.trace_dropped(),
        machine: m,
    }
}

/// Promise 1: the traced run's complete output — including the raw event
/// stream — is bit-identical at 1/2/4 threads and on the reference, which
/// ticks every cycle where the engine fast-forwards. This also exercises
/// the two-lane trace posting on real traffic.
#[test]
fn traced_runs_are_bit_identical_across_threads_and_fastforward() {
    let version = Rank64Version::GmPrefetch { block_words: 32 };
    let base = run(version, 1, false, Some(PLAN));
    assert!(base.cycles > 0);
    assert!(
        !base.events.is_empty(),
        "a 25% sampling rate must catch journeys on this workload"
    );
    assert_eq!(base.dropped, 0, "test workload must fit the trace buffers");
    for (threads, reference) in [(2, false), (4, false), (1, true)] {
        let got = run(version, threads, reference, Some(PLAN));
        let label = format!("{threads} threads, reference {reference}");
        assert_eq!(base.cycles, got.cycles, "{label}: cycle count drifted");
        assert_eq!(base.memory, got.memory, "{label}: memory state drifted");
        assert_eq!(base.stats, got.stats, "{label}: stats registry drifted");
        assert_eq!(base.dropped, got.dropped, "{label}: drop count drifted");
        assert_eq!(
            base.events.len(),
            got.events.len(),
            "{label}: event count drifted"
        );
        if let Some(i) = (0..base.events.len()).find(|&i| base.events[i] != got.events[i]) {
            panic!(
                "{label}: trace stream diverges at event {i}:\n  serial: {:?}\n  other:  {:?}",
                base.events[i], got.events[i]
            );
        }
    }
}

/// Promise 2: a `TracePlan` that samples nothing, or no plan at all,
/// leaves every observable byte identical — and tracing ON changes no
/// simulated outcome, only adds `trace.*` keys to the registry.
#[test]
fn tracing_off_is_byte_identical_and_on_is_read_only() {
    let version = Rank64Version::GmCache;
    let untraced = run(version, 1, false, None);
    let zero_rate = run(
        version,
        1,
        false,
        Some(TracePlan {
            seed: 7,
            sample_ppm: 0,
        }),
    );
    assert_eq!(untraced.cycles, zero_rate.cycles);
    assert_eq!(untraced.memory, zero_rate.memory);
    assert_eq!(
        flat_text(&untraced.stats),
        flat_text(&zero_rate.stats),
        "a zero-rate plan must leave the registry byte-identical"
    );
    assert!(zero_rate.events.is_empty());

    let traced = run(version, 1, false, Some(PLAN));
    assert_eq!(
        untraced.cycles, traced.cycles,
        "tracing changed the simulation"
    );
    assert_eq!(
        untraced.memory, traced.memory,
        "tracing changed memory state"
    );
    for (key, value) in untraced.stats.counters() {
        assert!(
            !key.starts_with("trace."),
            "untraced registry leaked a trace key: {key}"
        );
        assert_eq!(
            traced
                .stats
                .counters()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v),
            Some(value),
            "tracing perturbed counter {key}"
        );
    }
    let extra: Vec<&str> = traced
        .stats
        .counters()
        .map(|(k, _)| k)
        .filter(|k| untraced.stats.counters().all(|(u, _)| u != *k))
        .collect();
    assert!(
        !extra.is_empty() && extra.iter().all(|k| k.starts_with("trace.")),
        "tracing may only add trace.* keys, added: {extra:?}"
    );
}

/// Promise 3, on a Table 1 row (rank-64 GM/prefetch): every traced
/// global-memory op spends exactly the module service time in the
/// `service` segment, and the assembled journey set matches the
/// `trace.journeys` counter the registry reports.
#[test]
fn breakdown_reproduces_module_service_time_on_a_table1_row() {
    // The cache version exercises every journey class at once: prefetched
    // panel copy-in, global write-back, cluster-cache triads, and the
    // per-cluster barriers separating chunks.
    let traced = run(
        Rank64Version::GmCache,
        1,
        false,
        Some(TracePlan {
            seed: 0xCEDA,
            sample_ppm: 1_000_000,
        }),
    );
    let journeys = traced.machine.trace_journeys();
    let counted = traced
        .stats
        .counters()
        .find(|(k, _)| *k == "trace.journeys")
        .map(|(_, v)| v);
    assert_eq!(counted, Some(journeys.len() as u64));

    let breakdown = traced.machine.latency_breakdown();
    // The interleaved modules service one word per SERVICE_CYCLES = 2; a
    // traced op's svc_start -> svc_end span is exactly that, independent
    // of queueing (which lands in module_queue).
    for cls in [class::WRITE, class::PREFETCH] {
        let mean = breakdown
            .mean(cls, "service")
            .unwrap_or_else(|| panic!("no service rows for class {}", class::name(cls)));
        assert!(
            (mean - 2.0).abs() < 1e-9,
            "class {} service mean {mean} != module service time 2",
            class::name(cls)
        );
    }
    // Barrier episodes cover every CE: 8 arrivals per cluster barrier.
    let episodes = traced.machine.barrier_episodes();
    assert!(!episodes.is_empty(), "rank-64 synchronizes via barriers");
    for e in &episodes {
        assert_eq!(e.arrivals.len(), 8, "cluster barrier has 8 participants");
        assert!(e
            .arrivals
            .iter()
            .any(|&(ce, at)| ce == e.last_ce && at == e.last_at));
    }
}

/// The Chrome exporter stays well-formed with journeys attached: one
/// balanced "b"/"e" pair per journey, on top of the existing timeline.
#[test]
fn chrome_export_with_journeys_is_wellformed() {
    let traced = run(Rank64Version::GmCache, 2, false, Some(PLAN));
    let journeys = traced.machine.trace_journeys();
    assert!(!journeys.is_empty());
    let json =
        chrome_trace_with_journeys(traced.machine.timeline(), &traced.stats, 170.0, &journeys);
    assert!(json.starts_with("{\"traceEvents\":["));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    assert_eq!(json.matches(r#""ph":"b""#).count(), journeys.len());
    assert_eq!(json.matches(r#""ph":"e""#).count(), journeys.len());
    assert!(json.contains(r#""cat":"journey""#));
}
