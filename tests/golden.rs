//! Golden snapshot tests for the experiment renderings.
//!
//! Canonical outputs live under `tests/golden/`; each test regenerates
//! its table at a debug-affordable scale and diffs against the snapshot.
//! Because the simulator is deterministic — including under the parallel
//! engine (`CEDAR_NUM_THREADS`) — any drift is a real behaviour change.
//! To bless intentional changes:
//!
//! ```text
//! CEDAR_UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use cedar::experiments::table2::Table2Sizes;
use cedar::experiments::{ppt4, resilience, table1, table2};
use cedar_integration::run_random_traffic;
use cedar_kernels::staged::rank64::{Rank64, Rank64Version};
use cedar_machine::config::NetworkConfig;
use cedar_machine::{
    BarrierScope, CeId, ClusterId, CounterScope, FaultPlan, LinkOutage, Machine, MachineConfig,
    MachineError, ModuleOutage, Op, Program, ProgramBuilder, TracePlan,
};

const LIMIT: u64 = 1_000_000_000;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(name)
}

/// Diff `actual` against the snapshot `name`, or rewrite the snapshot
/// when `CEDAR_UPDATE_GOLDEN=1`.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("CEDAR_UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::write(&path, actual).unwrap();
        eprintln!("blessed golden snapshot {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); bless it with \
             CEDAR_UPDATE_GOLDEN=1 cargo test --test golden",
            path.display()
        )
    });
    if want != actual {
        let mut diff = String::new();
        for (i, (w, a)) in want.lines().zip(actual.lines()).enumerate() {
            if w != a {
                let _ = writeln!(diff, "line {}:\n  golden: {w}\n  actual: {a}", i + 1);
            }
        }
        let (wn, an) = (want.lines().count(), actual.lines().count());
        if wn != an {
            let _ = writeln!(diff, "line counts differ: golden {wn}, actual {an}");
        }
        panic!(
            "{name} drifted from its golden snapshot \
             (CEDAR_UPDATE_GOLDEN=1 to bless intentional changes):\n{diff}"
        );
    }
}

/// Table 1 + Table 2 at test scale — the snapshot analogue of
/// `results_tables12.txt`.
#[test]
fn tables12_match_golden_snapshot() {
    let t1 = table1::run(64).unwrap();
    let mut out = t1.render();
    let pf = t1.prefetch_factors();
    let cf = t1.cache_factors();
    let _ = writeln!(
        out,
        "prefetch improvement over no-pref: {:.1} / {:.1} / {:.1} / {:.1}",
        pf[0], pf[1], pf[2], pf[3]
    );
    let _ = writeln!(
        out,
        "cache improvement over no-pref   : {:.1} / {:.1} / {:.1} / {:.1}",
        cf[0], cf[1], cf[2], cf[3]
    );
    out.push('\n');
    let t2 = table2::run_sized(Table2Sizes {
        vl_words_per_ce: 1024,
        tm_n: 4096,
        rk_n: 64,
        cg_n: 4096,
    })
    .unwrap();
    out.push_str(&t2.render());
    check_golden("tables12.txt", &out);
}

/// The PPT4 scalability study over a shrunken sweep — the snapshot
/// analogue of `results_ppt4.txt`.
#[test]
fn ppt4_matches_golden_snapshot() {
    let study = ppt4::run_swept(1, &[1024, 4096], &[8, 32], 8192).unwrap();
    check_golden("ppt4.txt", &study.render());
}

/// The resilience study at test scale. Fault injection is seeded and
/// counter-based, so the exact drops, retries and cycle counts of every
/// faulty run are as reproducible as the healthy tables; drift here
/// means the fault path (not just the happy path) changed behaviour.
#[test]
fn resilience_matches_golden_snapshot() {
    let r = resilience::run(64, 0xCEDA_0001).unwrap();
    check_golden("resilience.txt", &r.render());
}

/// FNV-1a over `text`: a short, stable stand-in for a long rendering.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The omega network pinned on its own, not only against its per-flit
/// reference (`properties.rs` holds the two equal; a fault both shared
/// would pass there and fail here): checksums of the delivery schedule
/// and of the stats fingerprint of seeded random traffic on the flow
/// path, over radix 2, 3, 4, 8 and 16, queues of 1, 2 and 4 words, one
/// and two words per cycle, with and without drops, NACKs and port
/// outages.
#[test]
fn omega_traffic_matches_golden_checksums() {
    let mut out = String::new();
    for radix in [2, 3, 4, 8, 16] {
        for queue_words in [1, 2, 4] {
            for words_per_cycle in [1, 2] {
                for faults in [false, true] {
                    let cfg = NetworkConfig {
                        radix,
                        queue_words,
                        words_per_cycle,
                    };
                    let t = run_random_traffic(false, 0xCEDA, 400, 64, &cfg, faults);
                    let _ = writeln!(
                        out,
                        "radix {radix} queue_words {queue_words} words_per_cycle {words_per_cycle} \
                         faults {faults}: {} deliveries, schedule {:016x}, stats {:016x}",
                        t.deliveries.len(),
                        fnv1a(&format!("{:?}", t.deliveries)),
                        fnv1a(&t.fingerprint),
                    );
                }
            }
        }
    }
    check_golden("omega_traffic.txt", &out);
}

/// A checkpoint file written by a run killed at `kill_at` cycles while
/// auto-checkpointing every `every` cycles (so the image holds a run
/// context).
fn killed_run_image(
    name: &str,
    cfg: &MachineConfig,
    build: impl Fn(&mut Machine) -> Vec<(CeId, Program)>,
    every: u64,
    kill_at: u64,
) -> Vec<u8> {
    let path =
        std::env::temp_dir().join(format!("cedar-golden-{}-{name}.ckpt", std::process::id()));
    let mut m = Machine::new(cfg.clone().with_checkpoint(every, &path)).unwrap();
    let progs = build(&mut m);
    assert!(
        matches!(
            m.run(progs, kill_at),
            Err(MachineError::CycleLimitExceeded { .. })
        ),
        "{name}: the kill run should hit its cycle limit"
    );
    let image = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    image
}

/// Cycles of an uninterrupted run of `build` on `cfg`.
fn run_length(cfg: &MachineConfig, build: impl Fn(&mut Machine) -> Vec<(CeId, Program)>) -> u64 {
    let mut m = Machine::new(cfg.clone()).unwrap();
    let progs = build(&mut m);
    m.run(progs, LIMIT).unwrap().cycles
}

fn rank64(
    version: Rank64Version,
    clusters: usize,
) -> impl Fn(&mut Machine) -> Vec<(CeId, Program)> {
    move |m| {
        Rank64 {
            n: 64,
            k: 64,
            version,
        }
        .build(m, clusters)
    }
}

/// Cluster-bus traffic on every cluster: CEs 4–7 park at the bus
/// barrier at once, while CEs 0–3 share an SDOALL loop and then a
/// self-scheduled loop on the cluster counter (one-word chunks, so their
/// dispatch requests queue on the bus) before they join the barrier.
fn bus_traffic(m: &mut Machine) -> Vec<(CeId, Program)> {
    let (clusters, cpc) = (m.config().clusters, m.config().ces_per_cluster);
    let sdoall = m.alloc_counter(CounterScope::SdoallGlobal);
    let per_cluster: Vec<_> = (0..clusters)
        .map(|c| {
            (
                m.alloc_counter(CounterScope::Cluster(ClusterId(c))),
                m.alloc_barrier(BarrierScope::Cluster(ClusterId(c)), cpc as u32),
            )
        })
        .collect();
    (0..clusters * cpc)
        .map(|ce| {
            let (counter, barrier) = per_cluster[ce / cpc];
            let mut b = ProgramBuilder::new();
            if ce % cpc < cpc / 2 {
                b.self_sched(sdoall, 16, 1, |b| {
                    b.scalar(3);
                });
                b.self_sched(counter, 4_000, 1, |b| {
                    b.scalar(1);
                });
            }
            b.push(Op::Barrier { barrier });
            (CeId(ce), b.build())
        })
        .collect()
}

/// The snapshot format, pinned: the length and header checksum of the
/// image of each of a fixed set of machines, which between them write
/// every section and every optional part of the format — run context,
/// fault schedule, retry controllers, network and prefetch tracers, TLBs
/// and page table, live bus barriers, queued dispatches and SDOALL
/// state, engine slots with and without programs. A change of these
/// bytes is a format change: bump `SNAPSHOT_VERSION` and re-bless.
#[test]
fn snapshot_images_match_golden_checksums() {
    let mut images: Vec<(&str, Vec<u8>)> = Vec::new();

    // Mid-run GM/pref on two of four clusters: a run context, and half
    // the engine slots empty.
    let cfg = MachineConfig::cedar_with_clusters(4);
    let build = rank64(Rank64Version::GmPrefetch { block_words: 32 }, 2);
    let t = run_length(&cfg, &build);
    images.push((
        "gm_pref_mid_run",
        killed_run_image("pref", &cfg, &build, t / 4, t / 2),
    ));

    // Killed inside an outage window under drops, NACKs and journey
    // tracing: the fault schedule, retry controllers and every tracer.
    let build = rank64(Rank64Version::GmCache, 2);
    let t = run_length(&MachineConfig::cedar_with_clusters(2), &build);
    let (from, until) = (t / 4, 3 * t / 4);
    let cfg = MachineConfig::cedar_with_clusters(2)
        .with_faults(FaultPlan {
            drop_per_million: 2_000,
            nack_per_million: 1_000,
            link_outages: vec![LinkOutage {
                port: 1,
                from,
                until,
            }],
            module_outages: vec![ModuleOutage {
                module: 0,
                from,
                until,
            }],
            ..FaultPlan::none(7)
        })
        .with_trace(TracePlan {
            seed: 11,
            sample_ppm: 250_000,
        });
    let every = ((until - from) / 8).max(1);
    images.push((
        "outage_faults_traced",
        killed_run_image("outage", &cfg, &build, every, (from + until) / 2),
    ));

    // Demand paging: TLBs and the page table.
    let mut cfg = MachineConfig::cedar_with_clusters(2);
    cfg.vm.enabled = true;
    let build = rank64(Rank64Version::GmCache, 2);
    let t = run_length(&cfg, &build);
    images.push((
        "vm_demand_paging",
        killed_run_image("vm", &cfg, &build, t / 3, t / 2),
    ));

    // Live bus barrier waiters, queued dispatches and SDOALL state, on a
    // machine stopped by its cycle limit.
    let cfg = MachineConfig::cedar_with_clusters(2);
    let t = run_length(&cfg, bus_traffic);
    let mut m = Machine::new(cfg).unwrap();
    let progs = bus_traffic(&mut m);
    assert!(m.run(progs, t / 2).is_err(), "bus traffic should be cut");
    let s = m.stats();
    for c in 0..2 {
        let key = |k: &str| s.counter(&format!("ccbus[{c}].{k}"));
        assert!(
            key("counter_requests") > key("dispatches"),
            "cluster {c}: no queued dispatch"
        );
        assert!(
            key("barrier_arrivals") > 0 && key("barrier_releases") == 0,
            "cluster {c}: no waiter"
        );
        assert!(key("sdoall_posts") > 0, "cluster {c}: no SDOALL state");
    }
    let mut image = Vec::new();
    m.checkpoint(&mut image).unwrap();
    images.push(("bus_barriers_dispatch_sdoall", image));

    // A between-runs archive of a finished machine.
    let cfg = MachineConfig::cedar_with_clusters(2);
    let mut m = Machine::new(cfg).unwrap();
    let progs = rank64(Rank64Version::GmNoPrefetch, 2)(&mut m);
    m.run(progs, LIMIT).unwrap();
    let mut image = Vec::new();
    m.checkpoint(&mut image).unwrap();
    images.push(("archive_between_runs", image));

    let mut out = String::new();
    for (name, image) in &images {
        // Header bytes 20..28: the checksum over the payload.
        let check = u64::from_le_bytes(image[20..28].try_into().unwrap());
        let _ = writeln!(out, "{name}: {} bytes, checksum {check:016x}", image.len());
    }
    check_golden("snapshot_images.txt", &out);
}
