//! E14 — the memory-ceiling run: the compact automaton plane at
//! `n = 2^23`.
//!
//! PR 5 made drift state lazy (E13, `n = 2^20`); the ceiling that
//! remained was the automaton plane itself: per-neighbor `f64` pairs in
//! every `Γ_u`, a private parameter copy per node, and hot engine-side
//! state for every node that was ever touched, *forever*.
//! This scenario runs **eight times** E13's width — `n = 8 388 608` —
//! on the compact plane:
//!
//! * all automata share **one [`gcs_core::GradientShared`]**, so the
//!   parameters are stored once for the whole run,
//! * **idle parking** is on: a node with empty `Υ_u` holds no armed
//!   tick timer, so the untouched majority never enters the event loop
//!   (protocol-invisible — empty `Υ` forces `L = Lmax` anyway),
//! * between phases the engine **evicts quiescent nodes** into the cold
//!   tier (`Simulator::evict_quiescent`): the automaton packs its heap
//!   state, the node's timer and peer slots shrink in place, and its
//!   next handler wakes it bit-exactly.
//!
//! The workload makes eviction *matter*: a small path backbone of
//! always-ticking nodes (low contiguous ids, so the touched watermark
//! stays a prefix), plus waves of one-shot **visitors** that each join
//! a backbone host briefly and leave. After a wave departs, its
//! visitors go quiescent; the sweep at the next chunk boundary packs
//! them. The untouched majority above the visitor band never claims a
//! node-state slot at all.
//!
//! Reported: the per-plane byte census ([`gcs_sim::PlaneBytes`]),
//! eviction/rehydration counters, cold-tier census, and measured RSS —
//! the acceptance number for "break the memory ceiling" is peak RSS at
//! `n = 2^23`, recorded in `BENCH_engine.json`.

use crate::engine_bench::smoke_n;
use crate::record::RunRecord;
use crate::scenario::{Scenario, ScenarioFamily, ScenarioReport};
use gcs_analysis::Table;
use gcs_clocks::time::at;
use gcs_core::{AlgoParams, GradientNode, GradientShared};
use gcs_net::schedule::{add_at, remove_at, TopologyEvent};
use gcs_net::{Edge, ScheduleSource, TopologySchedule};
use gcs_sim::{DelayStrategy, ModelParams, SimBuilder};
use std::sync::Arc;

/// E14's model: tighter latency bounds than [`crate::default_model`]
/// (`T = 0.25`, `D = 0.6` — still `D > ΔH/(1−ρ)` for `ΔH = 0.5`) so a
/// visitor's one-chunk stay is long enough to be discovered, exchange a
/// round, and have its departure discovered well before the next sweep
/// boundary.
pub fn model() -> ModelParams {
    ModelParams::new(0.01, 0.25, 0.6)
}

/// Configuration for E14.
#[derive(Clone, Debug)]
pub struct Config {
    /// Node count (the headline configuration is `2^23 = 8 388 608`).
    pub n: usize,
    /// Path-backbone width (always-ticking nodes, ids `0..backbone`).
    pub backbone: usize,
    /// Number of visitor waves.
    pub waves: usize,
    /// Visitors per wave (each visits one backbone host, then leaves).
    pub wave_visitors: usize,
    /// Real-time horizon.
    pub horizon: f64,
    /// Seed for the engine's streams.
    pub seed: u64,
    /// Worker count for the dispatcher (trace-invariant).
    pub threads: usize,
}

impl Default for Config {
    /// The headline run, shrunk to `GCS_SMOKE_N` nodes when that is set
    /// ([`smoke_n`], [`Config::scaled_to`]).
    fn default() -> Self {
        Config::scaled_to(smoke_n(1 << 23))
    }
}

impl Config {
    /// The headline configuration (`n = 2^23`) shrunk to `n` nodes: the
    /// backbone and visitor bands scale with `n`, keeping the same
    /// shape — touched prefix, departing waves, untouched majority.
    pub fn scaled_to(n: usize) -> Config {
        let full = Config {
            n: 1 << 23,
            backbone: 1 << 16,
            waves: 8,
            wave_visitors: 1 << 15,
            // 10 chunks of 1.8 s — each comfortably dominates D + T.
            horizon: 18.0,
            seed: 42,
            threads: gcs_sim::threads_from_env(),
        };
        if n >= full.n {
            return full;
        }
        Config {
            n,
            backbone: (n / 128).max(8),
            wave_visitors: (n / 256).max(4),
            ..full
        }
    }

    /// Gap between chunk boundaries (one wave per chunk, plus a lead-in
    /// and a drain chunk).
    fn chunk(&self) -> f64 {
        self.horizon / (self.waves + 2) as f64
    }

    /// Total distinct visitor ids, directly above the backbone band.
    pub fn visitor_band(&self) -> usize {
        self.waves * self.wave_visitors
    }

    /// The workload schedule: a static path over `0..backbone`, plus per
    /// wave `w` one add/remove pair per visitor. Wave `w`'s visitors are
    /// ids `backbone + w·wave_visitors ..`, each joining host
    /// `j % backbone` shortly after chunk `w+1` opens and leaving near
    /// its end — so the join is discovered (`+D`), a round is exchanged
    /// (`+T`), the departure is discovered, and the visitor's next tick
    /// re-parks it before the sweep at chunk boundary `w+3`.
    pub fn schedule(&self) -> TopologySchedule {
        assert!(self.backbone >= 2, "backbone needs at least one edge");
        assert!(
            self.backbone + self.visitor_band() <= self.n,
            "backbone + visitors must fit under n"
        );
        let backbone_edges: Vec<Edge> = (0..self.backbone - 1)
            .map(|i| Edge::between(i, i + 1))
            .collect();
        let chunk = self.chunk();
        assert!(
            chunk >= 2.0 * (model().d + model().t),
            "chunks must dominate the discovery/delay bounds for visits \
             to be live; widen the horizon"
        );
        let mut events: Vec<TopologyEvent> = Vec::with_capacity(2 * self.visitor_band());
        for w in 0..self.waves {
            let t_join = (w as f64 + 1.1) * chunk;
            let t_leave = (w as f64 + 1.9) * chunk;
            for j in 0..self.wave_visitors {
                let visitor = self.backbone + w * self.wave_visitors + j;
                let host = j % self.backbone;
                let e = Edge::between(visitor, host);
                events.push(add_at(t_join, e));
                events.push(remove_at(t_leave, e));
            }
        }
        TopologySchedule::static_graph(self.n, backbone_edges).with_extra_events(events)
    }
}

/// Runs the workload in chunks, sweeping the cold tier at every chunk
/// boundary (a deterministic, trace-invariant cadence). The record's
/// `wall_s` includes the eviction sweeps.
pub fn run(config: &Config) -> RunRecord {
    let model = model();
    let params = AlgoParams::with_minimal_b0(model, config.n, 0.5);
    let chunk = config.chunk();
    RunRecord::measure(
        || {
            // One shared budget plane for all n automata, with idle
            // parking so the untouched majority never arms a timer.
            let shared = Arc::new(GradientShared::new(params).with_idle_parking(true));
            SimBuilder::topology(model, ScheduleSource::new(config.schedule()))
                .delay(DelayStrategy::Max)
                .seed(config.seed)
                .threads(config.threads)
                .build_with(|_| GradientNode::with_shared(shared.clone()))
        },
        |sim| {
            for k in 1..=(config.waves + 2) {
                sim.run_until(at((k as f64 * chunk).min(config.horizon)));
                sim.evict_quiescent();
            }
            sim.run_until(at(config.horizon));
        },
    )
}

/// Renders the memory-ceiling table, with the process peak RSS that
/// [`check`] gated.
pub fn render(config: &Config, r: &RunRecord, peak_rss_bytes: Option<u64>) -> Table {
    let mib = |b: usize| format!("{:.1}", b as f64 / (1024.0 * 1024.0));
    let mut t = Table::new(
        format!(
            "E14 / §3+§5 memory ceiling at n = {} — compact automaton plane, cold tier",
            config.n
        ),
        &["metric", "value", "", "plane", "MiB"],
    );
    let tel = &r.telemetry;
    let planes = [
        ("topology", tel.planes.topology),
        ("drift", tel.planes.drift),
        ("automaton hot", tel.planes.automaton_hot),
        ("automaton cold", tel.planes.automaton_cold),
        ("wheel", tel.planes.wheel),
        ("staging", tel.planes.staging),
    ];
    let metrics = [
        ("setup s", format!("{:.3}", r.setup_s)),
        ("wall s", format!("{:.2}", r.wall_s)),
        ("events", r.events().to_string()),
        ("events/sec", format!("{:.0}", r.events_per_sec())),
        ("evictions", tel.evictions.to_string()),
        ("rehydrations", tel.rehydrations.to_string()),
        ("cold nodes", tel.cold_nodes.to_string()),
        (
            "process peak RSS MiB",
            gcs_analysis::mem::fmt_mib(peak_rss_bytes),
        ),
    ];
    for i in 0..planes.len().max(metrics.len()) {
        let (m, mv) = metrics
            .get(i)
            .map(|(k, v)| (*k, v.clone()))
            .unwrap_or(("", String::new()));
        let (p, pv) = planes
            .get(i)
            .map(|(k, v)| (*k, mib(*v)))
            .unwrap_or(("", String::new()));
        t.row(&[m.to_string(), mv, String::new(), p.to_string(), pv]);
    }
    t
}

/// E14's fail-closed gates on one run and the process peak RSS read
/// after it: every pulled topology event applied; departed waves in the
/// cold tier; no slot claimed above the backbone and visitor band; a
/// balanced cold census; at most 32 B per cold node (one shrunk 24-byte
/// peer entry, no automaton bytes); the wheel plane under one fifth of
/// the v11 recording of per-slot bucket buffers (531,017,728 B) at the
/// headline width (256 MiB at smoke widths); the automaton-hot plane
/// under 64 B per node (the 96-byte node of the v11 recording crosses
/// it); the topology plane under one 24-byte container header per node
/// (an `n`-length per-node array crosses it); peak RSS under 8 GiB at
/// the headline width (2 GiB at smoke widths). The RSS reading is
/// process-wide, so `run_all` runs E14 first.
///
/// # Panics
/// On the first gate that fails, naming it and its values.
pub fn check(config: &Config, r: &RunRecord, peak_rss_bytes: Option<u64>) {
    let o = &r.telemetry;
    let n = config.n;
    let headline = n >= 1 << 23;
    assert_eq!(
        o.stats.topology_pulled, o.stats.topology_events,
        "E14 pulled-equals-applied gate: pulled {} topology events but applied {}",
        o.stats.topology_pulled, o.stats.topology_events
    );
    assert!(
        o.evictions > 0 && o.cold_nodes > 0,
        "E14 eviction gate: departed waves must reach the cold tier \
         ({} evictions, {} cold nodes)",
        o.evictions,
        o.cold_nodes
    );
    let band = config.backbone + config.visitor_band();
    assert!(
        o.node_state_watermark <= band,
        "E14 watermark gate: watermark {} exceeds backbone plus visitor band {band} — \
         an untouched node claimed a node-state slot",
        o.node_state_watermark
    );
    assert_eq!(
        o.evictions.checked_sub(o.rehydrations),
        Some(o.cold_nodes as u64),
        "E14 cold-census gate: {} cold nodes after {} evictions and {} rehydrations",
        o.cold_nodes,
        o.evictions,
        o.rehydrations
    );
    assert!(
        o.planes.automaton_cold <= 32 * o.cold_nodes,
        "E14 cold-bytes gate: cold tier {} bytes exceeds 32 B x {} cold nodes at n = {n}",
        o.planes.automaton_cold,
        o.cold_nodes
    );
    let wheel_limit: usize = if headline { 106_203_545 } else { 256 << 20 };
    assert!(
        o.planes.wheel < wheel_limit,
        "E14 wheel-plane gate: wheel plane {} bytes exceeds the {wheel_limit} byte budget \
         at n = {n}",
        o.planes.wheel
    );
    assert!(
        o.planes.automaton_hot < 64 * n,
        "E14 automaton-plane gate: automaton-hot plane {} bytes reaches 64 B x n = {} \
         at n = {n}",
        o.planes.automaton_hot,
        64 * n
    );
    assert!(
        o.planes.topology < 24 * n,
        "E14 topology-plane gate: topology plane {} bytes reaches 24 B x n = {} at n = {n}",
        o.planes.topology,
        24 * n
    );
    if let Some(peak) = peak_rss_bytes {
        let limit: u64 = if headline { 8 << 30 } else { 2 << 30 };
        assert!(
            peak < limit,
            "E14 peak-RSS gate: peak RSS {peak} bytes exceeds the {limit} byte budget at n = {n}"
        );
    }
}

/// Builds the scenario report from an already-recorded run (shared by
/// [`Scenario::run_scenario`] and `run_all`) after [`check`] passes on
/// it and the process peak RSS.
pub fn report(config: &Config, r: &RunRecord) -> ScenarioReport {
    let peak_rss_bytes = gcs_analysis::peak_rss_bytes();
    check(config, r, peak_rss_bytes);
    let tel = &r.telemetry;
    let mut rep = ScenarioReport::new();
    rep.table(render(config, r, peak_rss_bytes));
    rep.note(format!(
        "workload: backbone {}, {} waves x {} visitors, horizon {}s",
        config.backbone, config.waves, config.wave_visitors, config.horizon,
    ));
    rep.note(format!(
        "touched watermark {} of n = {} — the untouched majority above the \
         visitor band claims no node-state slot (idle parking keeps it out \
         of the event loop entirely)",
        tel.node_state_watermark, config.n,
    ));
    rep.note(format!(
        "cold tier holds {} nodes in {} bytes at the horizon \
         ({} evictions, {} rehydrations over the run)",
        tel.cold_nodes, tel.planes.automaton_cold, tel.evictions, tel.rehydrations,
    ));
    rep.record_planes(tel.planes);
    rep.csv(
        "e14_memory_ceiling.csv",
        &[
            "events",
            "events_per_sec",
            "evictions",
            "rehydrations",
            "cold_nodes",
            "cold_bytes",
            "node_state_watermark",
            "plane_topology_bytes",
            "plane_drift_bytes",
            "plane_automaton_hot_bytes",
            "plane_automaton_cold_bytes",
            "plane_wheel_bytes",
            "plane_staging_bytes",
            "live_rss_bytes",
        ],
        vec![vec![
            r.events() as f64,
            r.events_per_sec(),
            tel.evictions as f64,
            tel.rehydrations as f64,
            tel.cold_nodes as f64,
            tel.planes.automaton_cold as f64,
            tel.node_state_watermark as f64,
            tel.planes.topology as f64,
            tel.planes.drift as f64,
            tel.planes.automaton_hot as f64,
            tel.planes.automaton_cold as f64,
            tel.planes.wheel as f64,
            tel.planes.staging as f64,
            r.live_rss(),
        ]],
    );
    rep
}

/// E14 behind the [`Scenario`] surface.
#[derive(Clone, Debug, Default)]
pub struct Experiment {
    /// Memory-ceiling configuration.
    pub config: Config,
}

impl Scenario for Experiment {
    fn id(&self) -> &'static str {
        "E14"
    }
    fn title(&self) -> &'static str {
        "compact automaton plane — evictable cold tier at n = 2^23"
    }
    fn claim(&self) -> &'static str {
        "§3/§5 at scale — shared parameters, quiescent-node eviction"
    }
    fn family(&self) -> ScenarioFamily {
        ScenarioFamily::Scale
    }
    fn run_scenario(&self) -> ScenarioReport {
        let config = self.config.clone();
        report(&config, &run(&config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Config {
        Config {
            n: 4096,
            backbone: 64,
            waves: 3,
            wave_visitors: 32,
            horizon: 10.0,
            seed: 7,
            threads: 1,
        }
    }

    #[test]
    fn waves_evict_and_the_majority_stays_untouched() {
        let config = small();
        let r = run(&config);
        let o = &r.telemetry;
        assert!(r.events() > 1_000, "workload too small: {}", r.events());
        check(&config, &r, None);
        assert!(
            o.planes.automaton_cold > 0,
            "plane census must see the cold tier"
        );
        assert!(o.planes.automaton_hot > 0 && o.planes.topology > 0);
    }

    /// Turns a passing outcome into one that fails a single gate.
    type Doctor = fn(&mut gcs_sim::Telemetry);

    #[test]
    fn each_gate_rejects_its_doctored_run() {
        // A run at `small()`'s width that passes every gate: 96 visitors
        // gone cold at 24 B each, the watermark at backbone plus band.
        let run = |doctor: Doctor| {
            let mut t = gcs_sim::Telemetry::default();
            t.stats.topology_pulled = 192;
            t.stats.topology_events = 192;
            t.evictions = 96;
            t.cold_nodes = 96;
            t.node_state_watermark = 160;
            t.planes.automaton_cold = 24 * 96;
            t.planes.wheel = 1 << 20;
            t.planes.topology = 4096;
            doctor(&mut t);
            RunRecord::of(t)
        };
        let config = small();
        check(&config, &run(|_| {}), Some(1 << 30));
        let cases: [(&str, Doctor); 8] = [
            (
                "E14 pulled-equals-applied gate: pulled 193 topology events but applied 192",
                |t| t.stats.topology_pulled = 193,
            ),
            (
                "E14 eviction gate: departed waves must reach the cold tier \
                 (0 evictions, 0 cold nodes)",
                |t| {
                    t.evictions = 0;
                    t.cold_nodes = 0;
                },
            ),
            (
                "E14 watermark gate: watermark 161 exceeds backbone plus visitor band 160",
                |t| t.node_state_watermark = 161,
            ),
            (
                "E14 cold-census gate: 96 cold nodes after 96 evictions and 1 rehydrations",
                |t| t.rehydrations = 1,
            ),
            (
                "E14 cold-bytes gate: cold tier 3168 bytes exceeds 32 B x 96 cold nodes \
                 at n = 4096",
                |t| t.planes.automaton_cold = 33 * 96,
            ),
            (
                "E14 wheel-plane gate: wheel plane 268435456 bytes exceeds the 268435456 \
                 byte budget at n = 4096",
                |t| t.planes.wheel = 256 << 20,
            ),
            (
                "E14 automaton-plane gate: automaton-hot plane 262144 bytes reaches \
                 64 B x n = 262144 at n = 4096",
                |t| t.planes.automaton_hot = 64 * 4096,
            ),
            (
                "E14 topology-plane gate: topology plane 98304 bytes reaches \
                 24 B x n = 98304 at n = 4096",
                |t| t.planes.topology = 24 * 4096,
            ),
        ];
        for (expected, doctor) in cases {
            let r = run(doctor);
            crate::assert_gate_fails(expected, || check(&config, &r, None));
        }
        let r = run(|_| {});
        crate::assert_gate_fails(
            "E14 peak-RSS gate: peak RSS 2147483648 bytes exceeds the 2147483648 byte \
             budget at n = 4096",
            || check(&config, &r, Some(2 << 30)),
        );
    }

    #[test]
    fn headline_wheel_gate_holds_one_fifth_of_the_v11_recording() {
        // The headline width's wheel budget on doctored records, without
        // a run at n = 2^23: every other gate passes, and the wheel plane
        // alone decides. The v11 recording (per-slot bucket buffers)
        // fails, as does a reading at the budget; one byte under passes.
        let config = Config::scaled_to(1 << 23);
        assert_eq!(config.n, 1 << 23);
        let run = |wheel: usize| {
            let mut t = gcs_sim::Telemetry::default();
            t.stats.topology_pulled = 524_288;
            t.stats.topology_events = 524_288;
            t.evictions = 262_144;
            t.cold_nodes = 262_144;
            t.node_state_watermark = config.backbone + config.visitor_band();
            t.planes.automaton_cold = 24 * 262_144;
            t.planes.topology = 43 << 20;
            t.planes.wheel = wheel;
            RunRecord::of(t)
        };
        check(&config, &run(106_203_544), Some(2 << 30));
        for wheel in [531_017_728, 106_203_545] {
            let r = run(wheel);
            crate::assert_gate_fails(
                &format!(
                    "E14 wheel-plane gate: wheel plane {wheel} bytes exceeds the 106203545 \
                     byte budget at n = 8388608"
                ),
                || check(&config, &r, Some(2 << 30)),
            );
        }
    }

    #[test]
    fn headline_automaton_gate_holds_64_bytes_per_node() {
        // The headline width's automaton-plane budget on doctored
        // records: the v11 recording (96-byte nodes) fails, as does a
        // reading at 64 B x n; one byte under passes.
        let config = Config::scaled_to(1 << 23);
        let run = |automaton_hot: usize| {
            let mut t = gcs_sim::Telemetry::default();
            t.stats.topology_pulled = 524_288;
            t.stats.topology_events = 524_288;
            t.evictions = 262_144;
            t.cold_nodes = 262_144;
            t.node_state_watermark = config.backbone + config.visitor_band();
            t.planes.automaton_cold = 24 * 262_144;
            t.planes.topology = 43 << 20;
            t.planes.wheel = 1 << 20;
            t.planes.automaton_hot = automaton_hot;
            RunRecord::of(t)
        };
        check(&config, &run(536_870_911), Some(2 << 30));
        for automaton_hot in [872_415_232, 536_870_912] {
            let r = run(automaton_hot);
            crate::assert_gate_fails(
                &format!(
                    "E14 automaton-plane gate: automaton-hot plane {automaton_hot} bytes \
                     reaches 64 B x n = 536870912 at n = 8388608"
                ),
                || check(&config, &r, Some(2 << 30)),
            );
        }
    }

    #[test]
    fn outcome_is_trace_invariant_across_thread_counts() {
        let base = small();
        let serial = run(&base).telemetry;
        let parallel = run(&Config { threads: 4, ..base }).telemetry;
        assert_eq!(serial.stats, parallel.stats, "counters diverged");
        assert_eq!(serial.evictions, parallel.evictions, "eviction census");
        assert_eq!(
            serial.rehydrations, parallel.rehydrations,
            "rehydration census"
        );
        assert_eq!(serial.cold_nodes, parallel.cold_nodes);
        assert_eq!(serial.planes.automaton_cold, parallel.planes.automaton_cold);
        assert_eq!(serial.node_state_watermark, parallel.node_state_watermark);
    }
}
