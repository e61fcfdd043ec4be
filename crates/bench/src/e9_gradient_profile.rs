//! E9 — the gradient property itself, visualized as data.
//!
//! Gradient clock synchronization means the skew between two nodes scales
//! with their *distance*: neighbors are tight, far-apart nodes may drift
//! toward the global bound. We run Algorithm 2 on a long path under the
//! block-split drift adversary and report, for each hop distance `d`, the
//! worst skew observed between any pair at that distance — the "skew
//! gradient" profile. The same profile for the max-sync baseline is flat
//! only because its *local* skew is as loose as propagation allows; under
//! a merge event (E7) its local skew explodes, which is why the profile
//! alone must be read together with E7.

use gcs_analysis::{parallel_map, Table};
use gcs_clocks::time::at;
use gcs_clocks::DriftModel;
use gcs_core::{AlgoParams, GradientNode};
use gcs_net::{generators, node, ScheduleSource, TopologySchedule};
use gcs_sim::{DelayStrategy, ModelParams, SimBuilder};

/// Configuration for the gradient profile.
#[derive(Clone, Debug)]
pub struct Config {
    /// Path length.
    pub n: usize,
    /// Model parameters.
    pub model: ModelParams,
    /// Resend interval.
    pub delta_h: f64,
    /// Distances to report (clamped to `n−1`).
    pub distances: Vec<usize>,
    /// Steady-state observation window.
    pub window: f64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 64,
            model: ModelParams::new(0.01, 1.0, 2.0),
            delta_h: 0.5,
            distances: vec![1, 2, 4, 8, 16, 32, 63],
            window: 150.0,
        }
    }
}

/// One row of the profile.
#[derive(Clone, Debug)]
pub struct ProfileRow {
    /// Hop distance.
    pub distance: usize,
    /// Worst observed skew between any pair at that distance.
    pub worst_skew: f64,
    /// The bound that applies at this distance: `d` copies of the stable
    /// local skew, capped by the global bound.
    pub bound: f64,
}

/// Runs the profile measurement.
pub fn run(config: &Config) -> Vec<ProfileRow> {
    let n = config.n;
    let params = AlgoParams::with_minimal_b0(config.model, n, config.delta_h);
    let warmup = 8.0 * n as f64;
    let horizon = warmup + config.window;
    let schedule = TopologySchedule::static_graph(n, generators::path(n));
    let mut sim = SimBuilder::topology(config.model, ScheduleSource::new(schedule))
        .drift_model(DriftModel::FastUpTo(n / 2), horizon)
        .delay(DelayStrategy::Max)
        .build_with(|_| GradientNode::new(params));
    sim.run_until(at(warmup));

    let distances: Vec<usize> = config.distances.iter().map(|&d| d.min(n - 1)).collect();
    let mut worst = vec![0.0f64; distances.len()];
    let mut t = warmup;
    while t < horizon {
        t += 1.0;
        sim.run_until(at(t));
        let clocks = sim.logical_snapshot();
        for (k, &d) in distances.iter().enumerate() {
            for i in 0..n - d {
                worst[k] = worst[k].max((clocks[i] - clocks[i + d]).abs());
            }
        }
    }
    // A node must exist at both ends; verify the sim was sane.
    debug_assert!(sim.logical(node(0)) > 0.0);
    distances
        .into_iter()
        .zip(worst)
        .map(|(distance, worst_skew)| ProfileRow {
            distance,
            worst_skew,
            bound: (distance as f64 * params.stable_local_skew()).min(params.global_skew_bound()),
        })
        .collect()
}

/// Runs profiles for several path lengths in parallel and returns
/// `(n, profile)` pairs.
pub fn run_multi(configs: &[Config]) -> Vec<(usize, Vec<ProfileRow>)> {
    parallel_map(configs, |c| (c.n, run(c)))
}

/// Renders the profile table.
pub fn render(n: usize, rows: &[ProfileRow]) -> Table {
    let mut t = Table::new(
        format!("E9 — skew gradient on a {n}-node path"),
        &["distance", "worst skew", "d x stable bound (capped)"],
    );
    for r in rows {
        t.row(&[
            r.distance.to_string(),
            format!("{:.3}", r.worst_skew),
            format!("{:.2}", r.bound),
        ]);
    }
    t
}

/// E9 behind the [`Scenario`](crate::scenario::Scenario) surface: one
/// profile per path length.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Profile configurations, one per path length.
    pub configs: Vec<Config>,
}

impl Default for Experiment {
    /// Paths of 32, 64 and 128 nodes, each profiled at the powers of two
    /// below its diameter and at the diameter itself.
    fn default() -> Self {
        let configs = [32, 64, 128]
            .into_iter()
            .map(|n: usize| Config {
                n,
                distances: (0..usize::BITS)
                    .map(|k| 1 << k)
                    .take_while(|&d| d < n - 1)
                    .chain([n - 1])
                    .collect(),
                ..Config::default()
            })
            .collect();
        Experiment { configs }
    }
}

impl crate::scenario::Scenario for Experiment {
    fn id(&self) -> &'static str {
        "E9"
    }
    fn title(&self) -> &'static str {
        "worst skew as a function of graph distance"
    }
    fn claim(&self) -> &'static str {
        "§6 gradient property — skew grows with distance, bounded per hop"
    }
    fn family(&self) -> crate::scenario::ScenarioFamily {
        crate::scenario::ScenarioFamily::Claim
    }
    fn run_scenario(&self) -> crate::scenario::ScenarioReport {
        let mut rep = crate::scenario::ScenarioReport::new();
        let mut csv = Vec::new();
        for (n, rows) in run_multi(&self.configs) {
            rep.table(render(n, &rows));
            csv.extend(
                rows.iter()
                    .map(|r| vec![n as f64, r.distance as f64, r.worst_skew, r.bound]),
            );
        }
        rep.csv(
            "e9_gradient_profile.csv",
            &["n", "distance", "worst_skew", "bound"],
            csv,
        );
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_profiles_three_paths_up_to_their_diameters() {
        let configs = Experiment::default().configs;
        let ns: Vec<usize> = configs.iter().map(|c| c.n).collect();
        assert_eq!(ns, [32, 64, 128]);
        assert_eq!(configs[0].distances, [1, 2, 4, 8, 16, 31]);
        assert_eq!(configs[1].distances, Config::default().distances);
        assert_eq!(configs[2].distances, [1, 2, 4, 8, 16, 32, 64, 127]);
    }

    #[test]
    fn skew_grows_with_distance_and_neighbors_stay_tight() {
        let config = Config {
            n: 32,
            distances: vec![1, 4, 16, 31],
            window: 80.0,
            ..Config::default()
        };
        let rows = run(&config);
        // Monotone non-decreasing in distance (up to small noise).
        for w in rows.windows(2) {
            assert!(
                w[1].worst_skew >= w[0].worst_skew - 1e-6,
                "profile not monotone: {:?}",
                rows
            );
        }
        // The gradient: endpoint pairs carry much more skew than
        // neighbors…
        let local = rows[0].worst_skew;
        let global = rows.last().unwrap().worst_skew;
        assert!(
            global > 3.0 * local,
            "expected a gradient: local {local} vs global {global}"
        );
        // …and every distance respects its budget-chain bound.
        for r in &rows {
            assert!(r.worst_skew <= r.bound + 1e-6);
        }
    }
}
