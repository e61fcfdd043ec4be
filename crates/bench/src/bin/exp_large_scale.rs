//! E11 — parallel dispatch throughput and streamed skew at `n = 65 536`.
//!
//! `cargo run --release -p gcs-bench --bin exp_large_scale`
//!
//! CI smoke runs shrink the width with `GCS_SMOKE_N=4096` so the
//! large-scale code path is exercised on every push.

use gcs_bench::e11_large_scale as e11;
use gcs_bench::engine_bench::smoke_n;

fn main() {
    let mut config = e11::Config::default();
    config.n = smoke_n(config.n);
    println!(
        "claim: Theorem 4.1's gradient only emerges at large n; the engine must scale there\n"
    );
    println!(
        "running n = {}, horizon {}s, threads {:?} (host cpus: {})...\n",
        config.n,
        config.horizon,
        config.threads,
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    );
    let out = e11::run(&config);
    e11::render(&out).print();
    println!();
    println!(
        "determinism cross-check: {}",
        if out.deterministic { "PASS" } else { "FAIL" }
    );
    println!(
        "streamed peaks: global {:.2}, local {:.2} (certified error <= {:.3})",
        out.peak_global, out.peak_local, out.skew_error_bound
    );
    println!(
        "peak topology backlog: {} (streamed, not pre-loaded); process peak RSS: {} MiB",
        out.points[0].telemetry.stats.peak_topology_backlog,
        gcs_analysis::mem::fmt_mib(gcs_analysis::peak_rss_bytes()),
    );
    assert!(out.deterministic, "thread counts diverged");
}
