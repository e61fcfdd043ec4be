//! E13 — the scale-ceiling run: the lazy clock plane at `n = 2^20`.
//!
//! PR 4 made topology memory O(pull window); the remaining per-node
//! ceiling named in ROADMAP.md was the clock plane: one materialized
//! `RateSchedule` per node plus eagerly initialized node-local engine
//! state. This scenario runs the engine **one level up** from E11/E12 —
//! `n = 1 048 576` — on the lazy `DriftSource` plane
//! (`gcs_clocks::source`), where a node's rates are generated on demand
//! from its keyed stream and the only per-node drift state is an O(1)
//! cursor for *touched* nodes.
//!
//! Two families, both under **multi-segment** drift adversaries (the
//! case where the eager plane's memory scaled with `horizon / step` per
//! node):
//!
//! * **churn-walk** — the E1/E11 workload shape (path backbone, `n/4`
//!   flapping chords, lazily generated by `ChurnSource`) under the
//!   random-walk drift adversary,
//! * **flash-crowd-alt** — the E12 flash-crowd workload (join/leave
//!   waves against rotating hubs) under the alternating square-wave
//!   adversary.
//!
//! Observability is streaming ([`gcs_analysis::SkewStream`], through
//! E12's runner); each family reports the quantities the lazy plane
//! exists to control: **drift cursors** (`= touched nodes`, bytes
//! independent of the segment count and of `n` for untouched nodes),
//! the **node-state watermark**, materialized **RNG streams** (zero
//! here — max delays draw nothing), and measured **RSS**.

use crate::e12_dynamic_workloads as e12;
pub use crate::e12_dynamic_workloads::FamilyOutcome;
use crate::engine_bench::smoke_n;
use crate::scenario::{Scenario, ScenarioFamily, ScenarioReport};
use gcs_analysis::Table;
use gcs_clocks::DriftModel;
use gcs_net::churn::ChurnSource;
use gcs_net::workloads::FlashCrowdSource;
use gcs_net::{generators, TopologySource};

/// Configuration for E13.
#[derive(Clone, Debug)]
pub struct Config {
    /// Node count (the headline configuration is `2^20 = 1 048 576`).
    pub n: usize,
    /// Real-time horizon (short: at this width one simulated second is
    /// tens of millions of events).
    pub horizon: f64,
    /// Seed for workload generation, drift streams, and per-node streams.
    pub seed: u64,
    /// Worker count for the dispatcher (trace-invariant).
    pub threads: usize,
}

impl Default for Config {
    /// The headline run, shrunk to `GCS_SMOKE_N` nodes when that is set
    /// ([`smoke_n`]).
    fn default() -> Self {
        Config {
            n: smoke_n(1 << 20),
            horizon: 2.0,
            seed: 42,
            threads: gcs_sim::threads_from_env(),
        }
    }
}

/// The two workload families with their drift adversaries, as fresh
/// sources for one run each.
pub fn families(config: &Config) -> Vec<(&'static str, DriftModel, Box<dyn TopologySource>)> {
    let n = config.n;
    let h = config.horizon;
    vec![
        (
            "churn-walk",
            // ~4 rate segments per node over the horizon; the eager
            // plane would materialize every one of them for all n nodes.
            DriftModel::RandomWalk { step: h / 4.0 },
            Box::new(ChurnSource::new(
                n,
                generators::path(n),
                n / 4,
                // The E1 flap shape compressed to the short horizon so
                // chords actually cycle.
                (0.3 * h, 0.6 * h),
                (0.1 * h, 0.2 * h),
                h,
                config.seed ^ 0x000c_4e1d,
            )) as Box<dyn TopologySource>,
        ),
        (
            "flash-crowd-alt",
            DriftModel::Alternating { period: h / 4.0 },
            Box::new(FlashCrowdSource::new(
                n,
                8,
                (n / 64).max(1),
                h / 2.0,
                h / 8.0,
                h / 4.0,
                h,
                config.seed,
            )),
        ),
    ]
}

/// Runs both families in sequence (each alone, so timing and memory
/// readings are honest) through E12's streamed runner. Nothing per-node
/// is materialized for drift, so `setup_s` stays flat in the segment
/// count and `drift_cursors` stays at most the touched watermark.
pub fn run(config: &Config) -> Vec<FamilyOutcome> {
    let streamed = e12::Config {
        n: config.n,
        horizon: config.horizon,
        seed: config.seed,
        threads: config.threads,
    };
    // Extrema rescans are O(n); at 2^20 nodes and millions of instants a
    // 64-instant cadence would dominate the wall clock, so rescan every
    // 4096 instants — the certificate stays sound (staleness is charged
    // conservatively between rescans), only peak freshness coarsens.
    families(config)
        .into_iter()
        .map(|(family, drift, source)| e12::run_streamed(&streamed, family, drift, source, 4096))
        .collect()
}

/// Renders the family comparison table.
pub fn render(config: &Config, outcomes: &[FamilyOutcome]) -> Table {
    let mut t = Table::new(
        format!(
            "E13 / §3 scale ceiling at n = {} — lazy clock plane, multi-segment drift",
            config.n
        ),
        &[
            "family",
            "setup s",
            "wall s",
            "events",
            "events/sec",
            "topo events",
            "drift cursors",
            "watermark",
            "rng streams",
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
            r.telemetry.drift_cursors.to_string(),
            r.telemetry.node_state_watermark.to_string(),
            r.telemetry.rng_streams.to_string(),
            format!("{:.2}", o.peak_global),
            format!("{:.3}", o.skew_error_bound),
        ]);
    }
    t
}

/// E13's fail-closed gates, per family: every pulled topology event was
/// applied by the horizon, the drift plane holds at most one cursor per
/// touched node-state slot, and max delays materialized no RNG stream.
///
/// # Panics
/// On the first family and gate that fails, naming both values.
pub fn check(outcomes: &[FamilyOutcome]) {
    for o in outcomes {
        let t = &o.record.telemetry;
        assert_eq!(
            t.stats.topology_pulled, t.stats.topology_events,
            "E13 pulled-equals-applied gate: {} pulled {} topology events but applied {}",
            o.family, t.stats.topology_pulled, t.stats.topology_events
        );
        assert!(
            t.drift_cursors <= t.node_state_watermark,
            "E13 cursor-census gate: {} holds {} drift cursors for {} touched slots",
            o.family,
            t.drift_cursors,
            t.node_state_watermark
        );
        assert_eq!(
            t.rng_streams, 0,
            "E13 rng-stream gate: {} materialized {} node streams under max delays",
            o.family, t.rng_streams
        );
    }
}

/// Builds the scenario report from already-computed outcomes (shared by
/// [`Scenario::run_scenario`] and `run_all`, which reuses one expensive
/// `n = 2^20` run for both the report and the JSON trajectory) after
/// [`check`] passes.
pub fn report(config: &Config, outcomes: &[FamilyOutcome]) -> ScenarioReport {
    check(outcomes);
    let mut rep = ScenarioReport::new();
    rep.table(render(config, outcomes));
    rep.note(format!("horizon {}s", config.horizon));
    for o in outcomes {
        rep.note(format!(
            "{}: drift plane holds {} cursors for {} touched slots \
             ({} rng streams materialized) — O(1) per touched node, \
             zero for untouched ones, independent of the segment count",
            o.family,
            o.record.telemetry.drift_cursors,
            o.record.telemetry.node_state_watermark,
            o.record.telemetry.rng_streams,
        ));
    }
    // Live RSS goes into the CSV, never into the trace-compared notes.
    rep.csv(
        "e13_scale_ceiling.csv",
        &[
            "family",
            "setup_s",
            "wall_s",
            "events",
            "events_per_sec",
            "topology_events",
            "drift_cursors",
            "node_state_watermark",
            "peak_global_skew",
            "live_rss_bytes",
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
                    r.telemetry.drift_cursors as f64,
                    r.telemetry.node_state_watermark as f64,
                    o.peak_global,
                    r.live_rss(),
                ]
            })
            .collect(),
    );
    rep
}

/// E13 behind the [`Scenario`] surface.
#[derive(Clone, Debug, Default)]
pub struct Experiment {
    /// Scale-ceiling configuration.
    pub config: Config,
}

impl Scenario for Experiment {
    fn id(&self) -> &'static str {
        "E13"
    }
    fn title(&self) -> &'static str {
        "lazy clock plane — on-demand drift at n = 2^20"
    }
    fn claim(&self) -> &'static str {
        "§3 drift axioms at scale — per-node rate state evaluated on demand"
    }
    fn family(&self) -> ScenarioFamily {
        ScenarioFamily::Scale
    }
    fn run_scenario(&self) -> ScenarioReport {
        report(&self.config, &run(&self.config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Config {
        Config {
            n: 192,
            horizon: 8.0,
            seed: 7,
            threads: 1,
        }
    }

    #[test]
    fn both_families_run_and_hold_only_touched_state() {
        let outcomes = run(&small());
        assert_eq!(outcomes.len(), 2);
        let names: Vec<_> = outcomes.iter().map(|o| o.family).collect();
        assert_eq!(names, vec!["churn-walk", "flash-crowd-alt"]);
        for o in &outcomes {
            let t = &o.record.telemetry;
            let events = o.record.events();
            assert!(events > 10_000, "{}: too small: {}", o.family, events);
            assert!(
                t.stats.topology_events > 0,
                "{}: no churn reached the engine",
                o.family
            );
            assert!(
                t.drift_cursors > 0,
                "{}: multi-segment drift must cursor",
                o.family
            );
            assert!(o.skew_error_bound.is_finite());
        }
        check(&outcomes);
    }

    /// Turns a passing outcome into one that fails a single gate.
    type Doctor = fn(&mut gcs_sim::Telemetry);

    #[test]
    fn each_gate_rejects_its_doctored_family() {
        let family = |doctor: Doctor| {
            let mut t = gcs_sim::Telemetry::default();
            t.stats.topology_pulled = 9;
            t.stats.topology_events = 9;
            t.drift_cursors = 4;
            t.node_state_watermark = 5;
            doctor(&mut t);
            vec![FamilyOutcome {
                family: "churn-walk",
                peak_global: 0.0,
                peak_local: 0.0,
                skew_error_bound: 0.0,
                record: crate::record::RunRecord::of(t),
            }]
        };
        check(&family(|_| {}));
        let cases: [(&str, Doctor); 3] = [
            (
                "E13 pulled-equals-applied gate: churn-walk pulled 10 topology events but \
                 applied 9",
                |t| t.stats.topology_pulled = 10,
            ),
            (
                "E13 cursor-census gate: churn-walk holds 6 drift cursors for 5 touched slots",
                |t| t.drift_cursors = 6,
            ),
            (
                "E13 rng-stream gate: churn-walk materialized 1 node streams under max delays",
                |t| t.rng_streams = 1,
            ),
        ];
        for (expected, doctor) in cases {
            let outcomes = family(doctor);
            crate::assert_gate_fails(expected, || check(&outcomes));
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
            assert_eq!(
                s.record.telemetry.drift_cursors, p.record.telemetry.drift_cursors,
                "{} cursor census",
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
