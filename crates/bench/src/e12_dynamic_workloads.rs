//! E12 — the streaming dynamic-workload family at `n = 2^17`.
//!
//! The paper's subject is *dynamic* networks (§3.1–3.2: edges appear and
//! disappear under T-interval connectivity), and this scenario family is
//! where the repository actually exercises that regime at scale. Three
//! lazily generated workloads from `gcs_net::workloads` run at
//! `n = 131 072` on the streaming topology pipeline:
//!
//! * **mobility** — random-waypoint motion, geometric radius graph over
//!   a path backbone (sustained distributed churn),
//! * **partition** — periodic partition-and-heal (correlated bursts of
//!   simultaneous failures, deliberately outside Definition 3.1),
//! * **flash-crowd** — join/leave waves against rotating hubs (degree
//!   spikes and mass discovery storms).
//!
//! Every run uses [`SkewStream`] streaming observability — no `O(n + m)`
//! snapshots — and reports the three quantities the streaming pipeline
//! exists to control: **setup time** (seconds before the first event
//! runs), **peak topology backlog** (pulled-but-unapplied events, the
//! pipeline's only event buffer), and **peak RSS** (measured, via
//! `gcs_analysis::mem`). With the old eager pipeline, setup and memory
//! both grew with the total churn-event count; here the backlog is
//! bounded by the events of one pull window — it still scales with the
//! churn *rate*, but not with the horizon or the total event count.

use crate::record::RunRecord;
use crate::scenario::{Scenario, ScenarioFamily, ScenarioMeta, ScenarioReport};
use gcs_analysis::{SkewStream, Table};
use gcs_clocks::time::at;
use gcs_clocks::DriftModel;
use gcs_core::{AlgoParams, GradientNode};
use gcs_net::workloads::{FlashCrowdSource, MobilitySource, PartitionSource};
use gcs_net::TopologySource;
use gcs_sim::{DelayStrategy, SimBuilder};

/// Configuration for E12.
#[derive(Clone, Debug)]
pub struct Config {
    /// Node count (the headline configuration is `2^17 = 131 072`).
    pub n: usize,
    /// Real-time horizon.
    pub horizon: f64,
    /// Seed for workload generation and per-node streams.
    pub seed: u64,
    /// Worker count for the dispatcher (trace-invariant).
    pub threads: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 1 << 17,
            horizon: 4.0,
            seed: 42,
            threads: gcs_sim::threads_from_env(),
        }
    }
}

/// The three workload families, as fresh sources for one run each.
pub fn sources(config: &Config) -> Vec<(&'static str, Box<dyn TopologySource>)> {
    let n = config.n;
    // Geometric radius for ≈ 6 expected geometric neighbors; node motion
    // covers a quarter radius per sample so edges persist a few samples.
    let radius = (6.0 / (std::f64::consts::PI * n as f64)).sqrt();
    let sample_dt = 0.5;
    let speed = radius / (4.0 * sample_dt);
    vec![
        (
            "mobility",
            Box::new(MobilitySource::new(
                n,
                radius,
                speed,
                sample_dt,
                config.horizon,
                true,
                config.seed,
            )) as Box<dyn TopologySource>,
        ),
        (
            "partition",
            Box::new(PartitionSource::new(n, 4, 2.0, 0.5, config.horizon)),
        ),
        (
            "flash-crowd",
            Box::new(FlashCrowdSource::new(
                n,
                8,
                (n / 64).max(1),
                2.0,
                0.5,
                1.0,
                config.horizon,
                config.seed,
            )),
        ),
    ]
}

/// The result of one streamed family's run (E12's and E13's).
#[derive(Clone, Debug)]
pub struct FamilyOutcome {
    /// Family name (e.g. `"mobility"`, `"churn-walk"`).
    pub family: &'static str,
    /// Streamed peak global skew.
    pub peak_global: f64,
    /// Streamed peak local skew.
    pub peak_local: f64,
    /// The probe's certified error bound on those peaks.
    pub skew_error_bound: f64,
    /// Timings, live RSS and engine telemetry of the run.
    pub record: RunRecord,
}

/// Runs one family to the horizon under `drift` on the default model
/// with max delays and one shared budget plane for all `n` automata,
/// with the streaming skew probe attached; the probe rescans its
/// extrema every `rescan` instants.
pub fn run_streamed(
    config: &Config,
    family: &'static str,
    drift: DriftModel,
    source: Box<dyn TopologySource>,
    rescan: u64,
) -> FamilyOutcome {
    let n = config.n;
    let model = crate::default_model();
    let params = AlgoParams::with_minimal_b0(model, n, 0.5);
    let mut probe = SkewStream::new(n, model.rho, rescan);
    let record = RunRecord::measure(
        || {
            let shared = std::sync::Arc::new(gcs_core::GradientShared::new(params));
            SimBuilder::topology(model, source)
                .drift_model(drift, config.horizon)
                .delay(DelayStrategy::Max)
                .seed(config.seed)
                .threads(config.threads)
                .build_with(|_| GradientNode::with_shared(shared.clone()))
        },
        |sim| {
            sim.run_until_with(at(config.horizon), |sim, t, touched| {
                probe.observe(sim, t, touched);
            })
        },
    );
    FamilyOutcome {
        family,
        peak_global: probe.peak_global_skew(),
        peak_local: probe.peak_local_skew(),
        skew_error_bound: probe.error_bound(),
        record,
    }
}

/// Runs all three families in sequence (each alone, so its timing and
/// memory readings are honest) under the E1 split drift.
pub fn run(config: &Config) -> Vec<FamilyOutcome> {
    let drift = DriftModel::FastUpTo(config.n / 2);
    sources(config)
        .into_iter()
        .map(|(family, source)| run_streamed(config, family, drift, source, 64))
        .collect()
}

/// Renders the family comparison table.
pub fn render(config: &Config, outcomes: &[FamilyOutcome]) -> Table {
    let mut t = Table::new(
        format!(
            "E12 / §3.1–3.2 dynamic workloads at n = {} — streaming topology pipeline",
            config.n
        ),
        &[
            "family",
            "setup s",
            "wall s",
            "events",
            "events/sec",
            "topo events",
            "peak backlog",
            "peak gskew",
            "err bound",
        ],
    );
    for o in outcomes {
        let r = &o.record;
        t.row(&[
            o.family.to_string(),
            format!("{:.3}", r.setup_s),
            format!("{:.2}", r.wall_s),
            r.events().to_string(),
            format!("{:.0}", r.events_per_sec()),
            r.telemetry.stats.topology_events.to_string(),
            r.telemetry.stats.peak_topology_backlog.to_string(),
            format!("{:.2}", o.peak_global),
            format!("{:.3}", o.skew_error_bound),
        ]);
    }
    t
}

/// E12 behind the [`Scenario`] surface.
#[derive(Clone, Debug, Default)]
pub struct Experiment {
    /// Workload-family configuration.
    pub config: Config,
}

impl Scenario for Experiment {
    fn id(&self) -> &'static str {
        "E12"
    }
    fn title(&self) -> &'static str {
        "streaming dynamic workloads (mobility / partition / flash-crowd) at n = 2^17"
    }
    fn claim(&self) -> &'static str {
        "§3.1–3.2 — dynamic networks at scale on the streaming topology pipeline"
    }
    fn meta(&self) -> ScenarioMeta {
        ScenarioMeta {
            name: "E12",
            n: Some(self.config.n),
            family: ScenarioFamily::Scale,
            fault_profile: None,
        }
    }
    fn run_scenario(&self) -> ScenarioReport {
        report(&self.config, &run(&self.config))
    }
}

/// Builds the scenario report from already-computed outcomes (shared by
/// [`Scenario::run_scenario`] and `run_all`, which reuses one expensive
/// `n = 2^17` run for both the report and the JSON trajectory).
pub fn report(config: &Config, outcomes: &[FamilyOutcome]) -> ScenarioReport {
    let mut rep = ScenarioReport::new();
    rep.table(render(config, outcomes));
    for o in outcomes {
        rep.note(format!(
            "{}: backlog peaked at {} of {} pulled topology events ({} applied) — \
                 the streaming pipeline buffers a lookahead window, never the schedule",
            o.family,
            o.record.telemetry.stats.peak_topology_backlog,
            o.record.telemetry.stats.topology_pulled,
            o.record.telemetry.stats.topology_events,
        ));
    }
    // Memory goes into the dedicated field (and `print`), never into the
    // trace-compared notes; per-family live RSS is in the JSON trajectory.
    rep.record_memory();
    rep.csv(
        "e12_dynamic_workloads.csv",
        &[
            "family",
            "setup_s",
            "wall_s",
            "events",
            "events_per_sec",
            "topology_events",
            "peak_backlog",
            "peak_global_skew",
        ],
        outcomes
            .iter()
            .enumerate()
            .map(|(i, o)| {
                let r = &o.record;
                vec![
                    i as f64,
                    r.setup_s,
                    r.wall_s,
                    r.events() as f64,
                    r.events_per_sec(),
                    r.telemetry.stats.topology_events as f64,
                    r.telemetry.stats.peak_topology_backlog as f64,
                    o.peak_global,
                ]
            })
            .collect(),
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Config {
        Config {
            n: 128,
            horizon: 10.0,
            seed: 7,
            threads: 1,
        }
    }

    #[test]
    fn all_three_families_run_and_stream() {
        let outcomes = run(&small());
        assert_eq!(outcomes.len(), 3);
        let names: Vec<_> = outcomes.iter().map(|o| o.family).collect();
        assert_eq!(names, vec!["mobility", "partition", "flash-crowd"]);
        for o in &outcomes {
            assert!(
                o.record.events() > 5_000,
                "{}: workload too small: {}",
                o.family,
                o.record.events()
            );
            let stats = &o.record.telemetry.stats;
            assert!(
                stats.topology_events > 0,
                "{}: no churn reached the engine",
                o.family
            );
            assert_eq!(
                stats.topology_pulled, stats.topology_events,
                "{}: every pulled event must apply by the horizon",
                o.family
            );
            assert!(o.skew_error_bound.is_finite());
        }
    }

    #[test]
    fn backlog_stays_a_window_not_the_schedule() {
        // The defining property of the streaming pipeline: the peak
        // pulled-but-unapplied backlog is a lookahead window, far below
        // the total number of topology events of a long run.
        let config = Config {
            n: 64,
            horizon: 60.0,
            seed: 3,
            threads: 1,
        };
        for o in run(&config) {
            let stats = &o.record.telemetry.stats;
            assert!(
                stats.topology_events > 50,
                "{}: need sustained churn, got {}",
                o.family,
                stats.topology_events
            );
            assert!(
                stats.peak_topology_backlog < stats.topology_events / 2,
                "{}: backlog {} not a window of {} total events",
                o.family,
                stats.peak_topology_backlog,
                stats.topology_events
            );
        }
    }

    #[test]
    fn families_are_trace_invariant_across_thread_counts() {
        let base = small();
        let serial = run(&base);
        let parallel = run(&Config { threads: 4, ..base });
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(
                s.record.telemetry.stats, p.record.telemetry.stats,
                "{} diverged across threads",
                s.family
            );
            assert!(
                s.peak_global.to_bits() == p.peak_global.to_bits(),
                "{}: streamed peaks diverged",
                s.family
            );
        }
    }
}
