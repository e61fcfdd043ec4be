//! The engine-throughput workloads: E1's global-skew scenario with churn,
//! at the classic `n = 1024` and at the E11 large-scale `n = 65 536`.
//!
//! One canonical workload shape, three consumers:
//!
//! * the criterion groups in `benches/engine.rs` (events/sec of the
//!   batched serial engine, and of the parallel dispatcher at
//!   `threads ∈ {1, 2, 8}`),
//! * `run_all`, which records the same comparison as machine-readable
//!   `BENCH_engine.json` (the perf trajectory future PRs diff against) —
//!   since the frozen pre-rewrite engine was deleted, the **batched
//!   serial engine (`threads = 1`) is the baseline** every speedup is
//!   measured against,
//! * the determinism regression tests in `tests/determinism.rs`.
//!
//! The workload is the E1 topology (a path, worst diameter) with the
//! block-split drift adversary, plus randomly flapping chord edges so the
//! discovery/epoch machinery is exercised — "churn on" in the experiment
//! table.

use crate::record::RunRecord;
use gcs_clocks::time::at;
use gcs_clocks::DriftModel;
use gcs_core::{AlgoParams, GradientNode};
use gcs_net::{churn, generators, ScheduleSource, TopologySchedule};
use gcs_sim::{DelayStrategy, ModelParams, SimBuilder, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters of the throughput workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Node count.
    pub n: usize,
    /// Real-time horizon to simulate.
    pub horizon: f64,
    /// Whether chord edges flap on top of the path backbone.
    pub churn: bool,
    /// Seed for churn placement and the engine's per-node streams.
    pub seed: u64,
    /// Worker count for the parallel dispatcher (1 = batched serial).
    pub threads: usize,
}

impl Workload {
    /// The serial-baseline configuration of the batched-rewrite PR:
    /// `n = 1024`, churn on, one worker.
    pub fn acceptance() -> Self {
        Workload {
            n: 1024,
            horizon: 60.0,
            churn: true,
            seed: 42,
            threads: 1,
        }
    }

    /// The E11 large-scale configuration: `n = 65 536`, churn on. The
    /// horizon is short — at this width a single simulated second is
    /// hundreds of thousands of events.
    pub fn large_scale() -> Self {
        Workload {
            n: 65_536,
            horizon: 10.0,
            churn: true,
            seed: 42,
            threads: 1,
        }
    }

    /// The same workload with a different worker count (trace-invariant).
    pub fn with_threads(self, threads: usize) -> Self {
        Workload { threads, ..self }
    }

    /// Model parameters (the E1 defaults).
    pub fn model(&self) -> ModelParams {
        ModelParams::new(0.01, 1.0, 2.0)
    }

    /// Algorithm parameters (the E1 defaults).
    pub fn params(&self) -> AlgoParams {
        AlgoParams::with_minimal_b0(self.model(), self.n, 0.5)
    }

    /// The topology schedule: path backbone, plus `n/4` flapping chords
    /// when churn is enabled.
    pub fn schedule(&self) -> TopologySchedule {
        let backbone = generators::path(self.n);
        if !self.churn {
            return TopologySchedule::static_graph(self.n, backbone);
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x000c_4e1d);
        churn::random_churn(
            self.n,
            backbone,
            self.n / 4,
            (6.0, 12.0),
            (2.0, 4.0),
            self.horizon,
            &mut rng,
        )
    }

    /// Builds the workload on the engine with this workload's threads.
    /// All `n` automata share one parameter plane
    /// (`Arc<GradientShared>`), stored once, not per node.
    pub fn build(&self) -> Simulator<GradientNode> {
        let shared = std::sync::Arc::new(gcs_core::GradientShared::new(self.params()));
        SimBuilder::topology(self.model(), ScheduleSource::new(self.schedule()))
            .drift_model(DriftModel::FastUpTo(self.n / 2), self.horizon)
            .delay(DelayStrategy::Max)
            .seed(self.seed)
            .threads(self.threads)
            .build_with(|_| GradientNode::with_shared(shared.clone()))
    }
}

/// Times one full run of `w` on the parallel dispatcher at `w.threads`.
pub fn measure(w: &Workload) -> RunRecord {
    RunRecord::measure(|| w.build(), |sim| sim.run_until(at(w.horizon)))
}

/// The environment variable CI smoke jobs use to shrink the large-scale
/// experiment widths (`GCS_SMOKE_N=4096 cargo run ... --bin
/// exp_large_scale`), so the scale paths run on every push instead of
/// only in benches.
pub const SMOKE_N_ENV: &str = "GCS_SMOKE_N";

/// The configured large-scale width: `full` unless [`SMOKE_N_ENV`]
/// overrides it, clamped into `16..=full`.
///
/// # Panics
/// When the variable is set to anything but a positive integer
/// (surrounding whitespace allowed); the message names the variable and
/// its value, so a typo cannot silently run the full width.
pub fn smoke_n(full: usize) -> usize {
    // Invalid UTF-8 turns into U+FFFD, which never parses as a count.
    std::env::var_os(SMOKE_N_ENV).map_or(full, |value| {
        parse_smoke_n(&value.to_string_lossy()).clamp(16, full)
    })
}

/// Parses one [`SMOKE_N_ENV`] value; see [`smoke_n`].
fn parse_smoke_n(value: &str) -> usize {
    match value.trim().parse() {
        Ok(n) if n > 0 => n,
        _ => panic!("{SMOKE_N_ENV}={value:?} is not a positive node count"),
    }
}

/// Runs `w` at each worker count, `repeats` times each, and returns the
/// best (lowest-wall) record per count — criterion-style
/// minimum-of-samples, cheap enough to live inside `run_all`.
pub fn measure_threads(w: &Workload, thread_counts: &[usize], repeats: usize) -> Vec<RunRecord> {
    thread_counts
        .iter()
        .map(|&t| {
            let wt = w.with_threads(t);
            (0..repeats)
                .map(|_| measure(&wt))
                .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
                .expect("at least one repeat")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_runs_identically_across_thread_counts() {
        let w = Workload {
            n: 16,
            horizon: 10.0,
            churn: true,
            seed: 7,
            threads: 1,
        };
        let serial = measure(&w);
        let parallel = measure(&w.with_threads(4));
        assert_eq!(
            serial.events(),
            parallel.events(),
            "thread counts must process identical event counts"
        );
        assert!(
            serial.events() > 1000,
            "workload too small: {} events",
            serial.events()
        );
        assert!(serial.events_per_sec() > 0.0 && parallel.events_per_sec() > 0.0);
        assert_eq!(serial.engine(), "batched-serial");
        assert_eq!(parallel.engine(), "parallel-4t");
    }

    #[test]
    fn churn_workload_actually_churns() {
        let w = Workload {
            n: 32,
            horizon: 20.0,
            churn: true,
            seed: 3,
            threads: 1,
        };
        assert!(!w.schedule().events().is_empty());
        let mut sim = w.build();
        sim.run_until(at(w.horizon));
        assert!(sim.stats().topology_events > 0);
        // Without churn the schedule is static.
        let quiet = Workload { churn: false, ..w };
        assert!(quiet.schedule().events().is_empty());
    }

    #[test]
    fn measure_threads_covers_requested_counts() {
        let w = Workload {
            n: 12,
            horizon: 5.0,
            churn: false,
            seed: 1,
            threads: 1,
        };
        let ms = measure_threads(&w, &[1, 2], 1);
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].telemetry.threads, 1);
        assert_eq!(ms[1].telemetry.threads, 2);
        assert_eq!(ms[0].events(), ms[1].events());
    }

    #[test]
    fn smoke_n_parses_positive_counts_only() {
        assert_eq!(parse_smoke_n("4096"), 4096);
        assert_eq!(parse_smoke_n(" 4096\n"), 4096);
        for bad in ["", "4k", "-1", "0"] {
            let err = std::panic::catch_unwind(|| parse_smoke_n(bad)).expect_err(bad);
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert_eq!(
                *msg,
                format!("GCS_SMOKE_N={bad:?} is not a positive node count")
            );
        }
    }
}
