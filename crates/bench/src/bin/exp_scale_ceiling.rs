//! E13 — the lazy clock plane at `n = 2^20` (churn-walk and
//! flash-crowd-alt families under multi-segment drift).
//!
//! `cargo run --release -p gcs-bench --bin exp_scale_ceiling`
//!
//! CI smoke runs shrink the width with `GCS_SMOKE_N=4096` so the
//! scale-ceiling code path is exercised on every push.

use gcs_bench::e13_scale_ceiling as e13;
use gcs_bench::engine_bench::smoke_n;

fn main() {
    let mut config = e13::Config::default();
    config.n = smoke_n(config.n);
    println!(
        "claim: §3 only requires rates to be *queryable* at touched instants — the drift\n\
         plane evaluates on demand, so per-node rate state is an O(1) cursor for touched\n\
         nodes and zero bytes for untouched ones\n"
    );
    println!(
        "running n = {}, horizon {}s, threads {} (host cpus: {})...\n",
        config.n,
        config.horizon,
        config.threads,
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    );
    let outcomes = e13::run(&config);
    e13::render(&config, &outcomes).print();
    println!();
    for o in &outcomes {
        let t = &o.record.telemetry;
        println!(
            "{:>16}: {} drift cursors / {} touched slots / {} rng streams; \
             streamed peak skew {:.2} (err <= {:.3}); live RSS after run {} MiB",
            o.family,
            t.drift_cursors,
            t.node_state_watermark,
            t.rng_streams,
            o.peak_global,
            o.skew_error_bound,
            gcs_analysis::mem::fmt_mib(o.record.current_rss_bytes),
        );
        assert_eq!(
            t.stats.topology_pulled, t.stats.topology_events,
            "{}: pulled events must all apply by the horizon",
            o.family
        );
        assert!(
            t.drift_cursors <= t.node_state_watermark,
            "{}: at most one cursor per touched node",
            o.family
        );
        assert_eq!(
            t.rng_streams, 0,
            "{}: max delays must not materialize node streams",
            o.family
        );
    }
    println!(
        "process peak RSS: {} MiB (measured via /proc/self/status)",
        gcs_analysis::mem::fmt_mib(gcs_analysis::peak_rss_bytes()),
    );
}
