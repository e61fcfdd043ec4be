//! E4 — Theorem 4.1 and Figure 1: the two-chain lower-bound scenario.
//!
//! Phase 1 (Figure 1(a)): run the algorithm under the Masking Lemma's β
//! adversary on the two-chain network until `T1`, building `Ω(n)` skew
//! between the designated chain-A nodes `u` and `v` (and hence between
//! `w0` and `wn`).
//!
//! Phase 2 (Figure 1(b)): apply Lemma 4.3 to the B-chain clocks at `T1`
//! to place new edges `E_new`, each carrying skew in `[I−S, I]`.
//!
//! Phase 3 (Figure 1(c)): rerun with `E_new` inserted at `T1` and measure
//! the skew still on the new edges at `T2 = T1 + k·T/(1+ρ)` — the theorem
//! says no algorithm can have reduced it below a constant fraction of `I`,
//! because the nodes around `u` and `v` cannot even have heard about the
//! new edges yet.

use gcs_analysis::Table;
use gcs_clocks::time::at;
use gcs_clocks::ScheduleDrift;
use gcs_core::{AlgoParams, GradientNode};
use gcs_lowerbound::Theorem41Scenario;
use gcs_net::schedule::add_at;
use gcs_net::{Edge, NodeId, ScheduleSource};
use gcs_sim::{DelayStrategy, ModelParams, SimBuilder, Simulator};
use std::collections::BTreeMap;

/// Configuration for E4.
#[derive(Clone, Debug)]
pub struct Config {
    /// Total node count of the two-chain network.
    pub n: usize,
    /// Block parameter `k` (constrained hops near `w0`/`wn`).
    pub k: f64,
    /// Model parameters.
    pub model: ModelParams,
    /// Subjective resend interval.
    pub delta_h: f64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 48,
            k: 3.0,
            model: ModelParams::new(0.01, 1.0, 2.0),
            delta_h: 0.5,
        }
    }
}

/// The Figure 1(d)-style clock profile of the four designated nodes.
#[derive(Clone, Debug)]
pub struct ClockProfile {
    /// `L_{w0}`.
    pub w0: f64,
    /// `L_u`.
    pub u: f64,
    /// `L_v`.
    pub v: f64,
    /// `L_{wn}`.
    pub wn: f64,
}

/// Result of the scenario.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Flexible distance `dist_M(u, v)`.
    pub flexible_distance: usize,
    /// `T1` (when the skew is established and `E_new` appears).
    pub t1: f64,
    /// `T2 = T1 + k·T/(1+ρ)`.
    pub t2: f64,
    /// Skew between `u` and `v` at `T1` (Figure 1(a)); the lemma
    /// guarantees ≥ `T·d/4`.
    pub skew_uv_t1: f64,
    /// The Lemma 4.2 bound `T·d/4`.
    pub lemma_bound: f64,
    /// Prescribed per-edge skew `I` for `E_new`.
    pub i_skew: f64,
    /// Per-edge skew bound `S` used in Lemma 4.3.
    pub s: f64,
    /// The new edges and their skews at `T1` (all in `[I−S, I]`).
    pub new_edges_t1: Vec<(Edge, f64)>,
    /// The same edges' skews at `T2` (the theorem says they remain a
    /// constant fraction of `I`).
    pub new_edges_t2: Vec<(Edge, f64)>,
    /// Clock profile at `T1` (Figure 1(d)).
    pub profile_t1: ClockProfile,
    /// Time (after `T1`) until every new edge's skew dropped below `S` —
    /// the adaptation the tradeoff says takes `Ω(n/s̄)` (None if not within
    /// the observed horizon).
    pub settle_time: Option<f64>,
    /// The reference scale `n/B0` for the settle time.
    pub n_over_b0: f64,
}

fn profile(sim: &Simulator<GradientNode>, sc: &Theorem41Scenario) -> ClockProfile {
    ClockProfile {
        w0: sim.logical(sc.tc.w0()),
        u: sim.logical(sc.u()),
        v: sim.logical(sc.v()),
        wn: sim.logical(sc.tc.wn()),
    }
}

/// Runs the full three-phase scenario.
pub fn run(config: &Config) -> Outcome {
    let sc = Theorem41Scenario::new(config.n, config.k, config.model.rho, config.model.t);
    let params = AlgoParams::with_minimal_b0(config.model, config.n, config.delta_h);
    let t1 = sc.ready_time() + 20.0;
    let t2 = t1 + config.k * config.model.t / (1.0 + config.model.rho);

    // Phase 1: establish the Figure 1(a) configuration.
    let mut sim = SimBuilder::topology(config.model, ScheduleSource::new(sc.schedule()))
        .drift(ScheduleDrift::new(sc.beta_clocks()))
        .delay(sc.beta_delays())
        .build_with(|_| GradientNode::new(params));
    sim.run_until(at(t1));
    let skew_uv_t1 = (sim.logical(sc.u()) - sim.logical(sc.v())).abs();
    let profile_t1 = profile(&sim, &sc);

    // Phase 2: place E_new from the B-chain clocks (Figure 1(b)). The
    // paper takes S = ξ·s̄(n), the *guaranteed* bound on adjacent B-chain
    // skew; Lemma 4.3 only needs S to bound the actual adjacent gaps, so
    // we use the measured bound (much tighter at these network sizes,
    // which lets the construction place several edges).
    let b_clocks: Vec<f64> = sc.b_chain().iter().map(|&w| sim.logical(w)).collect();
    let s = b_clocks
        .windows(2)
        .map(|w| (w[0] - w[1]).abs())
        .fold(0.0f64, f64::max)
        .max(1e-3);
    // I must exceed S and leave room for several edges within the total
    // B-chain spread.
    let i_skew = (skew_uv_t1 / 3.0).max(2.5 * s);
    let new_edges = sc.place_new_edges(&b_clocks, i_skew, s);
    let clock_at = |sim: &Simulator<GradientNode>, w: NodeId| sim.logical(w);
    let new_edges_t1: Vec<(Edge, f64)> = new_edges
        .iter()
        .map(|&e| (e, (clock_at(&sim, e.lo()) - clock_at(&sim, e.hi())).abs()))
        .collect();

    // Phase 3: rerun with E_new inserted at T1 (deterministic prefix), and
    // measure the new edges at T2 (Figure 1(c)). Delays on E_new are
    // "arbitrary" in the paper; we pin them to T.
    let pattern: BTreeMap<Edge, f64> = new_edges.iter().map(|&e| (e, config.model.t)).collect();
    let schedule2 = sc
        .schedule()
        .with_extra_events(new_edges.iter().map(|&e| add_at(t1, e)).collect());
    let mut sim2 = SimBuilder::topology(config.model, ScheduleSource::new(schedule2))
        .drift(ScheduleDrift::new(sc.beta_clocks()))
        .delay(DelayStrategy::Masked {
            pattern,
            default: Box::new(sc.beta_delays()),
        })
        .build_with(|_| GradientNode::new(params));
    sim2.run_until(at(t2));
    let new_edges_t2: Vec<(Edge, f64)> = new_edges
        .iter()
        .map(|&e| (e, (clock_at(&sim2, e.lo()) - clock_at(&sim2, e.hi())).abs()))
        .collect();

    // Phase 4: how long until the new edges actually settle below the
    // target skew S? The tradeoff (Theorem 4.1 + Corollary 6.14) predicts
    // Θ(n/B0)-scale adaptation.
    let settle_horizon = t2 + 20.0 * (config.n as f64 / params.b0 + 1.0) * params.tau();
    let mut settle_time = None;
    let target = i_skew.max(2.0 * s) / 2.0;
    let mut t = t2;
    while t < settle_horizon {
        t += 1.0;
        sim2.run_until(at(t));
        let worst = new_edges
            .iter()
            .map(|&e| (clock_at(&sim2, e.lo()) - clock_at(&sim2, e.hi())).abs())
            .fold(0.0f64, f64::max);
        if worst <= target {
            settle_time.get_or_insert(t - t1);
        } else {
            settle_time = None;
        }
    }

    Outcome {
        flexible_distance: sc.flexible_distance_uv(),
        t1,
        t2,
        skew_uv_t1,
        lemma_bound: sc.skew_bound(),
        i_skew,
        s,
        new_edges_t1,
        new_edges_t2,
        profile_t1,
        settle_time,
        n_over_b0: config.n as f64 / params.b0,
    }
}

/// Renders the Figure 1 tables.
pub fn render(outcome: &Outcome) -> Vec<Table> {
    let mut fig_a = Table::new(
        "E4 / Figure 1(a) — skew established by the masking adversary",
        &["quantity", "value"],
    );
    fig_a.row(&[
        "flexible distance d(u,v)".into(),
        outcome.flexible_distance.to_string(),
    ]);
    fig_a.row(&["T1".into(), format!("{:.1}", outcome.t1)]);
    fig_a.row(&[
        "skew(u,v) at T1".into(),
        format!("{:.2}", outcome.skew_uv_t1),
    ]);
    fig_a.row(&[
        "Lemma 4.2 bound T·d/4".into(),
        format!("{:.2}", outcome.lemma_bound),
    ]);

    let mut fig_d = Table::new(
        "E4 / Figure 1(d) — clock profile at T1",
        &["node", "logical clock"],
    );
    fig_d.row(&["w0".into(), format!("{:.2}", outcome.profile_t1.w0)]);
    fig_d.row(&["u".into(), format!("{:.2}", outcome.profile_t1.u)]);
    fig_d.row(&["v".into(), format!("{:.2}", outcome.profile_t1.v)]);
    fig_d.row(&["wn".into(), format!("{:.2}", outcome.profile_t1.wn)]);

    let mut fig_bc = Table::new(
        format!(
            "E4 / Figure 1(b,c) — E_new skews (I = {:.2}, S = {:.2}, T2−T1 = {:.2})",
            outcome.i_skew,
            outcome.s,
            outcome.t2 - outcome.t1
        ),
        &["edge", "skew at T1", "skew at T2", "T2/T1 ratio"],
    );
    for ((e, s1), (_, s2)) in outcome.new_edges_t1.iter().zip(&outcome.new_edges_t2) {
        fig_bc.row(&[
            format!("{e}"),
            format!("{s1:.2}"),
            format!("{s2:.2}"),
            format!("{:.3}", s2 / s1),
        ]);
    }

    let mut settle = Table::new(
        "E4 — adaptation after T1 (the Ω(n/s̄) tradeoff)",
        &["quantity", "value"],
    );
    settle.row(&[
        "new-edge settle time (to I/2)".into(),
        outcome
            .settle_time
            .map(|s| format!("{s:.1}"))
            .unwrap_or_else(|| "—".into()),
    ]);
    settle.row(&[
        "n/B0 reference scale".into(),
        format!("{:.2}", outcome.n_over_b0),
    ]);
    vec![fig_a, fig_d, fig_bc, settle]
}

/// E4 behind the [`Scenario`](crate::scenario::Scenario) surface.
#[derive(Clone, Debug, Default)]
pub struct Experiment {
    /// Two-chain scenario configuration.
    pub config: Config,
}

impl crate::scenario::Scenario for Experiment {
    fn id(&self) -> &'static str {
        "E4"
    }
    fn title(&self) -> &'static str {
        "two-chain lower-bound scenario (Figure 1)"
    }
    fn claim(&self) -> &'static str {
        "Theorem 4.1 — new edges cannot be exploited instantly"
    }
    fn family(&self) -> crate::scenario::ScenarioFamily {
        crate::scenario::ScenarioFamily::Claim
    }
    fn run_scenario(&self) -> crate::scenario::ScenarioReport {
        let out = run(&self.config);
        let mut rep = crate::scenario::ScenarioReport::new();
        for t in render(&out) {
            rep.table(t);
        }
        let retention = out
            .new_edges_t1
            .iter()
            .zip(&out.new_edges_t2)
            .map(|((_, s1), (_, s2))| s2 / s1)
            .fold(f64::INFINITY, f64::min);
        rep.note(format!(
            "minimum skew retention across E_new after T2−T1: {retention:.3} \
             (theorem: bounded below by a constant)"
        ));
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_reproduces_theorem_shape() {
        let config = Config {
            n: 24,
            k: 2.0,
            ..Config::default()
        };
        let out = run(&config);
        // Figure 1(a): the β execution builds at least the lemma's skew.
        assert!(
            out.skew_uv_t1 >= out.lemma_bound,
            "skew {} below lemma bound {}",
            out.skew_uv_t1,
            out.lemma_bound
        );
        // Figure 1(b): every new edge carries skew in [I−S, I].
        assert!(!out.new_edges_t1.is_empty());
        for (e, s1) in &out.new_edges_t1 {
            assert!(
                *s1 >= out.i_skew - out.s - 1e-6 && *s1 <= out.i_skew + 1e-6,
                "edge {e:?} carries {s1}, want [{}, {}]",
                out.i_skew - out.s,
                out.i_skew
            );
        }
        // Figure 1(c): at T2 the new edges still carry a constant fraction
        // of I — information cannot have propagated yet.
        for (e, s2) in &out.new_edges_t2 {
            assert!(
                *s2 >= 0.5 * out.i_skew,
                "edge {e:?} skew fell to {s2} < I/2 = {} within k·T/(1+ρ)",
                0.5 * out.i_skew
            );
        }
    }
}
