//! E12 — the streaming dynamic-workload family (mobility, partition,
//! flash-crowd) at `n = 2^17` on the lazy topology pipeline.
//!
//! `cargo run --release -p gcs-bench --bin exp_dynamic_workloads`
//!
//! CI smoke runs shrink the width with `GCS_SMOKE_N=4096` so the
//! streaming-scale code path is exercised on every push.

use gcs_bench::e12_dynamic_workloads as e12;
use gcs_bench::engine_bench::smoke_n;

fn main() {
    let mut config = e12::Config::default();
    config.n = smoke_n(config.n);
    println!(
        "claim: §3.1–3.2 dynamic networks at scale — topology streams from lazy sources,\n\
         so peak memory is independent of the total churn-event count\n"
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
    let outcomes = e12::run(&config);
    e12::render(&config, &outcomes).print();
    println!();
    for o in &outcomes {
        let stats = &o.record.telemetry.stats;
        println!(
            "{:>12}: backlog peaked at {} of {} pulled events; streamed peak skew {:.2} \
             (err <= {:.3}); live RSS after run {} MiB",
            o.family,
            stats.peak_topology_backlog,
            stats.topology_pulled,
            o.peak_global,
            o.skew_error_bound,
            gcs_analysis::mem::fmt_mib(o.record.current_rss_bytes),
        );
        assert_eq!(
            stats.topology_pulled, stats.topology_events,
            "{}: pulled events must all apply by the horizon",
            o.family
        );
    }
    println!(
        "process peak RSS: {} MiB (measured via /proc/self/status)",
        gcs_analysis::mem::fmt_mib(gcs_analysis::peak_rss_bytes()),
    );
}
