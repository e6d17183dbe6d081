//! Each hot layer driven alone through its public API under seeded
//! uniform traffic: the `*.iso_*` metrics. A change that speeds a layer
//! up inside the machine should move its isolated cost too; if only one
//! of the two moves, the saving came from how the machine calls the
//! layer, not from the layer.

use std::time::Instant;

use cedar::machine::cache::ClusterCache;
use cedar::machine::config::{CacheConfig, ClusterMemoryConfig, GlobalMemoryConfig, NetworkConfig};
use cedar::machine::ids::CeId;
use cedar::machine::memory::cluster_mem::ClusterMemory;
use cedar::machine::memory::global::GlobalMemory;
use cedar::machine::network::packet::{MemRequest, Packet, RequestKind, Stream};
use cedar::machine::network::{NetSink, Omega};
use cedar::machine::time::Cycle;

use crate::rng::Rng;

/// Network ports / CEs / memory modules of the Cedar configuration.
const PORTS: usize = 32;

/// A sink that accepts and counts everything.
#[derive(Default)]
struct CountingSink {
    delivered: u64,
}

impl NetSink for CountingSink {
    fn try_begin(&mut self, _port: usize) -> bool {
        true
    }
    fn deliver(&mut self, _port: usize, _packet: Packet) {
        self.delivered += 1;
    }
}

fn read_request(rng: &mut Rng, now: u64) -> (usize, Packet) {
    let addr = rng.below(1 << 20);
    let dst = (addr % PORTS as u64) as usize;
    let req = MemRequest {
        ce: CeId(rng.below(PORTS as u64) as usize),
        kind: RequestKind::Read,
        addr,
        stream: Stream::Scalar,
        issued: Cycle(now),
        seq: 0,
        nacked: false,
        trace: 0,
    };
    (dst, Packet::read_request(dst, req))
}

/// Host nanoseconds per word moved by one omega network: every port
/// offers a read request to a uniformly random module each cycle.
pub fn omega_ns_per_word(seed: u64, cycles: u64) -> f64 {
    let mut rng = Rng::new(seed);
    let mut net = Omega::new(PORTS, &NetworkConfig::cedar());
    let mut sink = CountingSink::default();
    let t = Instant::now();
    for now in 0..cycles {
        for port in 0..PORTS {
            let (_, packet) = read_request(&mut rng, now);
            // A refused injection is backpressure; the offer is dropped.
            let _ = net.try_inject(port, packet);
        }
        // The sink never refuses, so its acceptance epoch never changes.
        net.tick_epoch(&mut sink, 0);
    }
    while !net.is_idle() {
        net.tick_epoch(&mut sink, 0);
    }
    let ns = t.elapsed().as_nanos() as f64;
    assert_eq!(
        sink.delivered,
        net.stats().packets_injected,
        "omega lost packets"
    );
    ns / net.stats().words_moved as f64
}

/// Host nanoseconds per request serviced by the global-memory module
/// array, requests delivered straight into module queues and replies
/// drained by a reverse network into a counting sink (the module array
/// cannot tick without a network to reply into, so that drain is in the
/// figure).
pub fn gmem_ns_per_access(seed: u64, cycles: u64) -> f64 {
    let mut rng = Rng::new(seed);
    let mut gmem = GlobalMemory::new(&GlobalMemoryConfig::cedar());
    let mut reverse = Omega::new(PORTS, &NetworkConfig::cedar());
    let mut sink = CountingSink::default();
    let t = Instant::now();
    let mut now = 0;
    while now < cycles || !gmem.is_idle() || !reverse.is_idle() {
        if now < cycles {
            for _ in 0..PORTS / 2 {
                let (module, packet) = read_request(&mut rng, now);
                if gmem.try_begin(module) {
                    gmem.deliver(module, packet);
                }
            }
        }
        gmem.tick(Cycle(now), &mut reverse);
        reverse.tick_epoch(&mut sink, 0);
        now += 1;
    }
    let ns = t.elapsed().as_nanos() as f64;
    let serviced = gmem.total_stats().requests;
    assert_eq!(sink.delivered, serviced, "global memory lost replies");
    ns / serviced as f64
}

/// Host nanoseconds per access presented to one cluster cache: eight CEs
/// each present one word per cycle from a working set twice the cache's
/// capacity, one in four a write.
pub fn cache_ns_per_access(seed: u64, cycles: u64) -> f64 {
    let mut rng = Rng::new(seed);
    let cfg = CacheConfig::cedar();
    let ces = 8;
    let working_set_words = 2 * (cfg.capacity_bytes / 8) as u64;
    let mut cache = ClusterCache::new(&cfg, ces, ClusterMemory::new(&ClusterMemoryConfig::cedar()));
    let t = Instant::now();
    for now in 0..cycles {
        for ce in 0..ces {
            let addr = rng.below(working_set_words);
            let write = rng.below(4) == 0;
            std::hint::black_box(cache.access(Cycle(now), ce, addr, write));
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    let s = cache.stats();
    assert!(
        s.hits > 0 && s.misses > 0,
        "the drive should both hit and miss"
    );
    ns / (cycles * ces as u64) as f64
}
