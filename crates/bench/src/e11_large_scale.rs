//! E11 — the lower-bound gradient at scale: deterministic parallel
//! dispatch on the E1-churn workload at `n = 65 536`.
//!
//! Theorem 4.1's `Ω(log n / log log n)` gradient on new edges is an
//! *asymptotic* statement — at the `n ≈ 1k` of E1–E10 the predicted
//! constant is indistinguishable from noise. E11 makes large-`n` runs
//! first-class: the same path-plus-flapping-chords workload as E1, at
//! `n = 65 536`, executed by the sharded parallel dispatcher at several
//! worker counts, with **streaming** observability
//! ([`gcs_analysis::SkewStream`]) instead of `O(n + m)` snapshots.
//!
//! The scenario reports three things:
//!
//! * events/sec per worker count (the trajectory number `run_all` also
//!   records in `BENCH_engine.json`, re-anchored to the batched serial
//!   engine as baseline),
//! * a determinism cross-check: every worker count must produce the exact
//!   same execution counters (the full bit-identity pin lives in
//!   `tests/determinism.rs`),
//! * streamed peak global/local skew with the probe's certified error
//!   bound.

use crate::engine_bench::{measure, smoke_n, Workload};
use crate::record::RunRecord;
use gcs_analysis::{SkewStream, Table};
use gcs_clocks::time::at;

/// Configuration for E11.
#[derive(Clone, Debug)]
pub struct Config {
    /// Node count (the headline configuration is `65 536`).
    pub n: usize,
    /// Real-time horizon.
    pub horizon: f64,
    /// Worker counts to sweep (the first is the baseline).
    pub threads: Vec<usize>,
    /// Seed for churn placement and the per-node streams.
    pub seed: u64,
}

impl Default for Config {
    /// The headline run, shrunk to `GCS_SMOKE_N` nodes when that is set
    /// ([`smoke_n`]).
    fn default() -> Self {
        let w = Workload::large_scale();
        Config {
            n: smoke_n(w.n),
            horizon: w.horizon,
            threads: vec![1, 2, 8],
            seed: w.seed,
        }
    }
}

impl Config {
    fn workload(&self) -> Workload {
        Workload {
            n: self.n,
            horizon: self.horizon,
            churn: true,
            seed: self.seed,
            threads: 1,
        }
    }
}

/// Full result of the scale run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Per-worker-count runs, in configured order (each carries its own
    /// execution counters, which must be identical across all points).
    pub points: Vec<RunRecord>,
    /// Streamed peak global skew (from the baseline run).
    pub peak_global: f64,
    /// Streamed peak local skew (from the baseline run).
    pub peak_local: f64,
    /// The probe's certified error bound on those peaks.
    pub skew_error_bound: f64,
    /// True if all worker counts produced identical counters.
    pub deterministic: bool,
}

/// Runs the sweep. The baseline (first) worker count also drives the
/// streaming skew probe; the remaining counts are pure timing runs.
pub fn run(config: &Config) -> Outcome {
    assert!(!config.threads.is_empty());
    let w = config.workload();
    let mut points = Vec::new();
    let mut probe = SkewStream::new(config.n, w.model().rho, 64);
    // Baseline run with the streaming probe attached (observability must
    // not require snapshots at this scale).
    let baseline_threads = config.threads[0];
    let mut sim = w.with_threads(baseline_threads).build();
    sim.run_until_with(at(config.horizon), |sim, t, touched| {
        probe.observe(sim, t, touched);
    });
    let baseline_stats = *sim.stats();
    drop(sim);
    // Timing runs without the probe, one per worker count; each run's own
    // counters double as the determinism cross-check against the baseline.
    for &t in &config.threads {
        points.push(measure(&w.with_threads(t)));
    }
    let deterministic = points.iter().all(|p| p.telemetry.stats == baseline_stats);
    Outcome {
        points,
        peak_global: probe.peak_global_skew(),
        peak_local: probe.peak_local_skew(),
        skew_error_bound: probe.error_bound(),
        deterministic,
    }
}

/// E11's fail-closed gate: every worker count reproduced the baseline
/// run's execution counters.
///
/// # Panics
/// When `outcome.deterministic` is false, naming the events each worker
/// count processed.
pub fn check(outcome: &Outcome) {
    assert!(
        outcome.deterministic,
        "E11 determinism gate: counters diverged across thread counts \
         (events per thread count: {:?})",
        outcome
            .points
            .iter()
            .map(|p| (p.telemetry.threads, p.events()))
            .collect::<Vec<_>>()
    );
}

/// Renders the throughput-vs-threads table of a run over `n` nodes.
pub fn render(outcome: &Outcome, n: usize) -> Table {
    let base = outcome.points[0].events_per_sec();
    let mut t = Table::new(
        format!(
            "E11 / Theorem 4.1 at scale — events/sec vs worker count (n = {} class, churn on)",
            grouped(n)
        ),
        &[
            "threads",
            "events",
            "setup s",
            "wall s",
            "events/sec",
            "vs serial",
        ],
    );
    for p in &outcome.points {
        t.row(&[
            p.telemetry.threads.to_string(),
            p.events().to_string(),
            format!("{:.3}", p.setup_s),
            format!("{:.2}", p.wall_s),
            format!("{:.0}", p.events_per_sec()),
            format!("{:.2}x", p.events_per_sec() / base),
        ]);
    }
    t
}

/// `n` with its digits in space-separated groups of three (`65 536`).
fn grouped(n: usize) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, digit) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(' ');
        }
        out.push(digit);
    }
    out
}

/// E11 behind the [`Scenario`](crate::scenario::Scenario) surface.
#[derive(Clone, Debug, Default)]
pub struct Experiment {
    /// Scale-run configuration.
    pub config: Config,
}

impl crate::scenario::Scenario for Experiment {
    fn id(&self) -> &'static str {
        "E11"
    }
    fn title(&self) -> &'static str {
        "parallel dispatch throughput and streamed skew at n = 65 536"
    }
    fn claim(&self) -> &'static str {
        "Theorem 4.1 — large-n scale-up (deterministic parallel engine)"
    }
    fn family(&self) -> crate::scenario::ScenarioFamily {
        crate::scenario::ScenarioFamily::Scale
    }
    fn run_scenario(&self) -> crate::scenario::ScenarioReport {
        let out = run(&self.config);
        check(&out);
        let mut rep = crate::scenario::ScenarioReport::new();
        rep.table(render(&out, self.config.n));
        rep.note(format!(
            "n = {}, horizon {}s, threads {:?}; determinism cross-check \
             (equal counters at all thread counts): PASS",
            self.config.n, self.config.horizon, self.config.threads
        ));
        rep.note(format!(
            "streamed peaks: global {:.2}, local {:.2} (certified error <= {:.3})",
            out.peak_global, out.peak_local, out.skew_error_bound
        ));
        rep.note(format!(
            "peak topology backlog: {} (streamed, not pre-loaded)",
            out.points[0].telemetry.stats.peak_topology_backlog,
        ));
        rep.csv(
            "e11_large_scale.csv",
            &[
                "threads",
                "events",
                "setup_s",
                "wall_s",
                "events_per_sec",
                "peak_backlog",
            ],
            out.points
                .iter()
                .map(|p| {
                    vec![
                        p.telemetry.threads as f64,
                        p.events() as f64,
                        p.setup_s,
                        p.wall_s,
                        p.events_per_sec(),
                        p.telemetry.stats.peak_topology_backlog as f64,
                    ]
                })
                .collect(),
        );
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_down_run_is_deterministic_and_streams_skew() {
        // The module logic at a test-friendly width; the full n = 65 536
        // configuration runs via `run_all` / `exp E11`.
        let config = Config {
            n: 192,
            horizon: 12.0,
            threads: vec![1, 2, 8],
            seed: 11,
        };
        let out = run(&config);
        check(&out);
        assert_eq!(out.points.len(), 3);
        let events = out.points[0].events();
        assert!(events > 10_000, "workload too small: {events} events");
        assert!(out.points.iter().all(|p| p.events() == events));
        assert!(out.peak_global > 0.0);
        assert!(out.skew_error_bound.is_finite());
    }

    #[test]
    fn table_title_names_the_run_width() {
        let out = Outcome {
            points: vec![RunRecord::of(gcs_sim::Telemetry::default())],
            peak_global: 0.0,
            peak_local: 0.0,
            skew_error_bound: 0.0,
            deterministic: true,
        };
        for (n, shown) in [
            (4096, "4 096"),
            (65_536, "65 536"),
            (16, "16"),
            (1 << 23, "8 388 608"),
        ] {
            assert!(
                render(&out, n).render().starts_with(&format!(
                    "## E11 / Theorem 4.1 at scale — events/sec vs worker count \
                     (n = {shown} class, churn on)\n"
                )),
                "n = {n}"
            );
        }
    }

    #[test]
    fn determinism_gate_rejects_unequal_counters() {
        let point = |threads, events_processed| {
            RunRecord::of(gcs_sim::Telemetry {
                threads,
                stats: gcs_sim::SimStats {
                    events_processed,
                    ..Default::default()
                },
                ..Default::default()
            })
        };
        let out = Outcome {
            points: vec![point(1, 5), point(8, 6)],
            peak_global: 0.0,
            peak_local: 0.0,
            skew_error_bound: 0.0,
            deterministic: false,
        };
        crate::assert_gate_fails(
            "E11 determinism gate: counters diverged across thread counts \
             (events per thread count: [(1, 5), (8, 6)])",
            || check(&out),
        );
    }
}
