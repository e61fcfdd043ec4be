//! E14 — the compact automaton plane at `n = 2^23` (shared budget
//! table, idle parking, quiescent-node eviction into the cold tier).
//!
//! `cargo run --release -p gcs-bench --bin exp_memory_ceiling`
//!
//! CI smoke runs shrink the width with `GCS_SMOKE_N=4096` so the
//! compact-plane code path is exercised on every push. The wheel-plane,
//! topology-plane and peak-RSS assertions at the end are
//! **fail-closed**: the binary exits nonzero when the run does not fit
//! the memory budget for its width.

use gcs_bench::e14_memory_ceiling as e14;
use gcs_bench::engine_bench::smoke_n;

fn main() {
    let config = e14::Config::scaled_to(smoke_n(e14::Config::default().n));
    println!(
        "claim: the automaton plane needs one shared budget curve, no armed timer on idle\n\
         nodes, and only packed bytes for quiescent ones — so n = 2^23 fits where the\n\
         flat plane would not\n"
    );
    println!(
        "running n = {}, backbone {}, {} waves x {} visitors, horizon {}s, threads {} \
         (host cpus: {})...\n",
        config.n,
        config.backbone,
        config.waves,
        config.wave_visitors,
        config.horizon,
        config.threads,
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    );
    let r = e14::run(&config);
    e14::render(&config, &r).print();
    let o = &r.telemetry;
    println!();
    println!(
        "evictions {} / rehydrations {} -> {} cold nodes in {} packed bytes; \
         watermark {} of n = {}; live RSS after run {} MiB",
        o.evictions,
        o.rehydrations,
        o.cold_nodes,
        o.planes.automaton_cold,
        o.node_state_watermark,
        config.n,
        gcs_analysis::mem::fmt_mib(r.current_rss_bytes),
    );
    println!(
        "plane bytes (MiB): {}",
        gcs_analysis::mem::fmt_planes(&o.planes)
    );
    assert_eq!(
        o.stats.topology_pulled, o.stats.topology_events,
        "pulled events must all apply by the horizon"
    );
    assert!(
        o.evictions > 0 && o.cold_nodes > 0,
        "departed waves must reach the cold tier"
    );
    assert!(
        o.node_state_watermark <= config.backbone + config.visitor_band(),
        "an untouched node claimed a node-state slot"
    );
    // Fail closed on the packed event plane: the v8 recording held
    // 1 168 912 384 wheel bytes at the headline width; the compact plane
    // (24-byte records + slab payload arena) must stay under half of
    // that. Smoke widths get a generous 256 MiB ceiling — far above a
    // healthy run, but a fat-record regression would still blow it.
    let wheel_limit: usize = if config.n >= (1 << 23) {
        584_456_192
    } else {
        256 << 20
    };
    assert!(
        o.planes.wheel < wheel_limit,
        "wheel plane {} bytes exceeds the {} byte budget at n = {} — \
         the packed event plane regressed",
        o.planes.wheel,
        wheel_limit,
        config.n
    );
    // Fail closed on the topology plane: the edge store's per-node
    // columns grow to the touched watermark, so the plane stays under one
    // 24-byte container header per node. Any n-length per-node array
    // (a dense adjacency mirror, rows pre-sized to n) crosses it.
    assert!(
        o.planes.topology < 24 * config.n,
        "topology plane {} bytes reaches 24 B x n = {} at n = {} — \
         an n-length per-node array came back",
        o.planes.topology,
        24 * config.n,
        config.n
    );
    let peak = gcs_analysis::peak_rss_bytes();
    println!(
        "process peak RSS: {} MiB (measured via /proc/self/status)",
        gcs_analysis::mem::fmt_mib(peak),
    );
    // Fail closed on the memory budget: 8 GiB for the headline width,
    // 2 GiB for smoke sizes (generous — a smoke run sits far below it,
    // but a flat-plane regression at smoke scale would still blow it).
    if let Some(peak) = peak {
        let limit: u64 = if config.n >= (1 << 23) {
            8 << 30
        } else {
            2 << 30
        };
        assert!(
            peak < limit,
            "peak RSS {} bytes exceeds the {} byte budget at n = {}",
            peak,
            limit,
            config.n
        );
    }
}
