//! Mobile ad-hoc network: clock synchronization under continuous topology
//! churn from node mobility, behind the [`Scenario`] experiment surface.
//!
//! Nodes move through the unit square with random-waypoint mobility; links
//! exist while nodes are within radio range. Edges therefore appear and
//! disappear continuously — the dynamic setting the paper is about. A thin
//! static backbone keeps the network connected (the model's interval
//! connectivity assumption).
//!
//! Run with: `cargo run --release --example mobile_adhoc`

use gcs_net::source::collect_schedule;
use gcs_net::workloads::MobilitySource;
use gcs_net::ScheduleSource;
use gradient_clock_sync::prelude::*;

/// The mobility workload: random-waypoint motion, geometric links.
struct MobileAdhoc {
    n: usize,
    horizon: f64,
    seed: u64,
}

impl Scenario for MobileAdhoc {
    fn id(&self) -> &'static str {
        "mobile_adhoc"
    }
    fn title(&self) -> &'static str {
        "skew under continuous mobility-driven churn"
    }
    fn claim(&self) -> &'static str {
        "§3 model generality — arbitrary churn within interval connectivity"
    }
    fn run_scenario(&self) -> ScenarioReport {
        let model = ModelParams::new(0.01, 1.0, 2.0);
        let params = AlgoParams::with_minimal_b0(model, self.n, 0.5);
        let mut rep = ScenarioReport::new();

        let schedule = collect_schedule(MobilitySource::new(
            self.n,
            /* radius */ 0.3,
            /* speed */ 0.02,
            /* sample_dt */ 1.0,
            self.horizon,
            /* backbone */ true,
            self.seed,
        ));
        let adds = schedule
            .events()
            .iter()
            .filter(|e| matches!(e.kind, gradient_clock_sync::net::TopologyEventKind::Add))
            .count();
        let removes = schedule.events().len() - adds;
        rep.note(format!(
            "{} nodes, horizon {}s; churn: {adds} link formations, {removes} link failures",
            self.n, self.horizon
        ));

        let mut sim = SimBuilder::topology(model, ScheduleSource::new(schedule))
            .drift_model(DriftModel::RandomWalk { step: 4.0 }, self.horizon)
            .delay(DelayStrategy::Uniform { lo: 0.1, hi: 1.0 })
            .seed(self.seed)
            .build_with(|_| GradientNode::new(params));

        let mut recorder = Recorder::new(2.0).with_monitor(InvariantMonitor::new(params));
        recorder.run(&mut sim, at(self.horizon));

        // Summaries over the second half (after initial stabilization).
        let steady: Vec<_> = recorder
            .samples()
            .iter()
            .filter(|s| s.t >= self.horizon / 2.0)
            .collect();
        let global: Vec<f64> = steady.iter().map(|s| s.global_skew).collect();
        let local: Vec<f64> = steady.iter().map(|s| s.max_local_skew).collect();
        let gs = Summary::of(&global);
        let ls = Summary::of(&local);

        let mut table = Table::new(
            "steady-state skew (second half of the run)",
            &["metric", "mean", "p95", "max", "bound"],
        );
        table.row(&[
            "global skew".into(),
            format!("{:.3}", gs.mean),
            format!("{:.3}", gs.p95),
            format!("{:.3}", gs.max),
            format!("{:.3}", params.global_skew_bound()),
        ]);
        table.row(&[
            "worst local skew".into(),
            format!("{:.3}", ls.mean),
            format!("{:.3}", ls.p95),
            format!("{:.3}", ls.max),
            // Local skew on *young* edges is only bounded by the dynamic
            // function; report the fresh-edge bound for context.
            format!("{:.3}", params.dynamic_local_skew(0.0)),
        ]);
        rep.table(table);

        recorder.monitor().unwrap().assert_clean();
        rep.note(format!(
            "invariants held over {} samples despite {} topology changes; messages: {} sent, \
             {} delivered, {} lost to mobility",
            recorder.monitor().unwrap().snapshots(),
            adds + removes,
            sim.stats().messages_sent,
            sim.stats().messages_delivered,
            sim.stats().total_dropped(),
        ));
        rep
    }
}

fn main() {
    let s = MobileAdhoc {
        n: 24,
        horizon: 500.0,
        seed: 11,
    };
    println!("[{}] {} ({})\n", s.id(), s.title(), s.claim());
    s.run_scenario().print();
}
