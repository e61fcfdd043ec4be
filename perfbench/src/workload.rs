//! The four benchmark workloads and one timed repetition of each.
//!
//! A repetition builds a fresh simulator (or scenario suite), runs it to
//! its horizon, and returns host timings plus a [`Fingerprint`] of the
//! simulated outcome. [`run`] picks the plain or the traced variant; both
//! go through the same generic code, the traced one with every trait
//! boundary wrapped in [`Spanned`].

use crate::trace::{self, Count, Span, Spanned, Totals};
use gcs_analysis::SkewStream;
use gcs_clocks::time::at;
use gcs_clocks::{DriftModel, DriftSource, ModelDrift};
use gcs_core::{AlgoParams, GradientNode, GradientShared};
use gcs_mc::{explore, ModelNode};
use gcs_net::churn::ChurnSource;
use gcs_net::schedule::{add_at, remove_at};
use gcs_net::workloads::PartitionSource;
use gcs_net::{generators, Edge, ScheduleSource, TopologySchedule, TopologySource};
use gcs_sim::{DelayStrategy, ModelParams, SimBuilder, Simulator};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The engine's default parallel threshold, pinned so an exported
/// `GCS_SIM_PAR_MIN` could not change it even if the harness let it in.
const PAR_THRESHOLD: usize = 64;

/// Scenario-run cap handed to the explorer (the n = 4 suite stays far
/// below it).
const MC_MAX_RUNS: usize = 2_000_000;

/// Suite constructions per timed batch in the model-check set-up: one
/// construction takes microseconds, so a batch is timed and divided.
const MC_SETUP_BATCH: u32 = 200;

/// Timed batches per model-check repetition; their median is the
/// repetition's `setup_s`.
const MC_SETUP_BATCHES: usize = 9;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Path backbone with flapping chords, random-walk drift, streamed
    /// skew observer, one thread.
    Churn,
    /// Periodic partition-and-heal, closed-form drift, no observer, two
    /// threads.
    Steady,
    /// Static backbone plus departing visitor waves over a mostly
    /// untouched `n`, with eviction sweeps, one thread.
    Sparse,
    /// Exhaustive model checking of the n = 4 scenario suite.
    ModelCheck,
}

impl Workload {
    /// Every workload, in the order BENCHMARK.json lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Churn,
        Workload::Steady,
        Workload::Sparse,
        Workload::ModelCheck,
    ];

    /// The name used on the command line and in the reference file.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Churn => "churn",
            Workload::Steady => "steady",
            Workload::Sparse => "sparse",
            Workload::ModelCheck => "modelcheck",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One configured workload: what [`run`] executes.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed (topology generation, drift streams, engine seed).
    pub seed: u64,
    /// Node count (simulator workloads) or suite size (model checking).
    pub n: usize,
    /// Simulated horizon in seconds (simulator workloads).
    pub horizon: f64,
    /// Engine worker count, pinned through `SimBuilder::threads`.
    pub threads: usize,
}

impl Config {
    /// The benchmark's configuration of `workload` at `seed`.
    pub fn standard(workload: Workload, seed: u64) -> Config {
        let (n, horizon, threads) = match workload {
            Workload::Churn => (1 << 14, 2.0, 1),
            Workload::Steady => (1 << 14, 4.0, 2),
            Workload::Sparse => (1 << 18, 18.0, 1),
            Workload::ModelCheck => (4, 0.0, 1),
        };
        Config {
            workload,
            seed,
            n,
            horizon,
            threads,
        }
    }

    /// A small configuration of the same shape, for tests.
    pub fn small(workload: Workload, seed: u64) -> Config {
        let n = match workload {
            Workload::Churn | Workload::Steady => 256,
            Workload::Sparse => 4096,
            Workload::ModelCheck => 2,
        };
        Config {
            n,
            ..Config::standard(workload, seed)
        }
    }
}

/// The simulated outcome of one repetition, compared exactly against the
/// recorded reference. Simulator workloads record `[events processed,
/// messages delivered, alarms fired, topology events, hash of the final
/// logical clocks]`; model checking records `[states, runs, max depth,
/// violations, hash of the per-scenario (states, runs) pairs]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint(pub [u64; 5]);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [a, b, c, d, h] = self.0;
        write!(f, "{a} {b} {c} {d} {h:016x}")
    }
}

/// FNV-1a over 64-bit words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One timed repetition.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Host seconds from the first construction call until the simulator
    /// (or suite) is ready.
    pub setup_s: f64,
    /// Host seconds of the run to the horizon (or the whole exploration).
    pub run_s: f64,
    /// Events processed (simulator) or states explored (model checking).
    pub work: u64,
    /// The simulated outcome.
    pub fingerprint: Fingerprint,
    /// Broken invariants (empty when the outcome is sound): skew above
    /// the bound, model-check violations.
    pub violations: Vec<String>,
    /// Per-layer metrics, present on traced repetitions only.
    pub layers: Option<BTreeMap<&'static str, f64>>,
}

/// Plain or traced execution, chosen at compile time so the plain run
/// carries no tracing code at all.
pub trait Mode {
    /// Whether spans and counters are recorded.
    const TRACED: bool;
    /// The automaton type the engine runs.
    type Node: ModelNode + 'static;
    /// The drift plane type.
    type Drift: DriftSource + 'static;
    /// The topology source type.
    type Source: TopologySource + 'static;
    /// Wraps a node.
    fn node(node: GradientNode) -> Self::Node;
    /// Wraps a drift plane.
    fn drift(drift: ModelDrift) -> Self::Drift;
    /// Wraps a topology source.
    fn source(source: Box<dyn TopologySource>) -> Self::Source;
}

/// Untraced execution: the workspace types as they are.
#[derive(Debug)]
pub struct Plain;

impl Mode for Plain {
    const TRACED: bool = false;
    type Node = GradientNode;
    type Drift = ModelDrift;
    type Source = Box<dyn TopologySource>;
    fn node(node: GradientNode) -> GradientNode {
        node
    }
    fn drift(drift: ModelDrift) -> ModelDrift {
        drift
    }
    fn source(source: Box<dyn TopologySource>) -> Box<dyn TopologySource> {
        source
    }
}

/// Traced execution: every trait boundary wrapped in [`Spanned`].
#[derive(Debug)]
pub struct Traced;

impl Mode for Traced {
    const TRACED: bool = true;
    type Node = Spanned<GradientNode>;
    type Drift = Spanned<ModelDrift>;
    type Source = Spanned<Box<dyn TopologySource>>;
    fn node(node: GradientNode) -> Self::Node {
        Spanned(node)
    }
    fn drift(drift: ModelDrift) -> Self::Drift {
        Spanned(drift)
    }
    fn source(source: Box<dyn TopologySource>) -> Self::Source {
        Spanned(source)
    }
}

fn span<M: Mode, R>(kind: Span, f: impl FnOnce() -> R) -> R {
    if M::TRACED {
        trace::span(kind, f)
    } else {
        f()
    }
}

fn snapshot<M: Mode>() -> Totals {
    if M::TRACED {
        trace::snapshot()
    } else {
        Totals::default()
    }
}

/// Runs one repetition of `config`, traced or not.
pub fn run(config: &Config, traced: bool) -> Outcome {
    if traced {
        trace::claim_leader();
        run_mode::<Traced>(config)
    } else {
        run_mode::<Plain>(config)
    }
}

fn run_mode<M: Mode>(config: &Config) -> Outcome {
    match config.workload {
        Workload::ModelCheck => model_check::<M>(config),
        _ => simulate::<M>(config),
    }
}

/// The repository's experiment model: `ρ = 0.01`, `T = 1`, `D = 2`.
fn default_model() -> ModelParams {
    ModelParams::new(0.01, 1.0, 2.0)
}

/// The sparse workload's model (E14's): tighter latency bounds so a
/// visitor's one-chunk stay is discovered, answered and departed well
/// inside its chunk.
fn sparse_model() -> ModelParams {
    ModelParams::new(0.01, 0.25, 0.6)
}

/// Everything the generic simulator loop needs to know about a shape.
struct Shape {
    model: ModelParams,
    drift: DriftModel,
    /// Horizon the drift plane confines rate changes to.
    drift_horizon: f64,
    idle_parking: bool,
    observe: bool,
    /// `run_until` targets; with `evict`, a sweep follows each.
    stops: Vec<f64>,
    evict: bool,
}

fn shape(config: &Config) -> Shape {
    let h = config.horizon;
    match config.workload {
        Workload::Churn => Shape {
            model: default_model(),
            drift: DriftModel::RandomWalk { step: h / 4.0 },
            drift_horizon: h,
            idle_parking: false,
            observe: true,
            stops: vec![h],
            evict: false,
        },
        Workload::Steady => Shape {
            model: default_model(),
            drift: DriftModel::FastUpTo(config.n / 2),
            drift_horizon: h,
            idle_parking: false,
            observe: false,
            stops: vec![h],
            evict: false,
        },
        Workload::Sparse => {
            // One sweep per chunk boundary; the last boundary is the horizon.
            let b = SparseBands::of(config);
            let chunks = b.waves + 2;
            let stops = (1..=chunks)
                .map(|k| if k == chunks { h } else { k as f64 * b.chunk })
                .collect();
            Shape {
                model: sparse_model(),
                // Perfect clocks, exactly what `SimBuilder` uses by default.
                drift: DriftModel::Perfect,
                drift_horizon: 1.0,
                idle_parking: true,
                observe: false,
                stops,
                evict: true,
            }
        }
        Workload::ModelCheck => unreachable!("model checking runs no simulator"),
    }
}

/// The sparse workload's id bands: a path backbone over `0..backbone`
/// and `waves` waves of `visitors` one-shot visitors directly above it;
/// the rest of `n` is never touched. The horizon is cut into `waves + 2`
/// chunks of `chunk` seconds: a lead-in, one per wave, and a drain.
struct SparseBands {
    backbone: usize,
    waves: usize,
    visitors: usize,
    chunk: f64,
}

impl SparseBands {
    fn of(config: &Config) -> SparseBands {
        let waves = 8;
        SparseBands {
            backbone: (config.n / 128).max(8),
            waves,
            visitors: (config.n / 256).max(4),
            chunk: config.horizon / (waves + 2) as f64,
        }
    }
}

/// The sparse workload's eagerly validated schedule. Visitor `j` of wave
/// `w` joins a backbone host shortly after chunk `w + 1` opens and leaves
/// near its end; the seed picks each visitor's host.
fn sparse_schedule(config: &Config) -> TopologySchedule {
    let b = SparseBands::of(config);
    let chunk = b.chunk;
    let backbone: Vec<Edge> = (0..b.backbone - 1)
        .map(|i| Edge::between(i, i + 1))
        .collect();
    let mut events = Vec::with_capacity(2 * b.waves * b.visitors);
    for w in 0..b.waves {
        let t_join = (w as f64 + 1.1) * chunk;
        let t_leave = (w as f64 + 1.9) * chunk;
        for j in 0..b.visitors {
            let visitor = b.backbone + w * b.visitors + j;
            let host = (fnv1a([config.seed, visitor as u64]) % b.backbone as u64) as usize;
            let e = Edge::between(visitor, host);
            events.push(add_at(t_join, e));
            events.push(remove_at(t_leave, e));
        }
    }
    TopologySchedule::static_graph(config.n, backbone).with_extra_events(events)
}

fn build_source(config: &Config) -> Box<dyn TopologySource> {
    let n = config.n;
    let h = config.horizon;
    match config.workload {
        // E13's churn-walk shape: n/4 chords flapping over a path.
        Workload::Churn => Box::new(ChurnSource::new(
            n,
            generators::path(n),
            n / 4,
            (0.3 * h, 0.6 * h),
            (0.1 * h, 0.2 * h),
            h,
            config.seed ^ 0x000c_4e1d,
        )),
        // E12's partition shape: four cuts every 2 s, healed after 0.5 s.
        Workload::Steady => Box::new(PartitionSource::new(n, 4, 2.0, 0.5, h)),
        Workload::Sparse => Box::new(ScheduleSource::new(sparse_schedule(config))),
        Workload::ModelCheck => unreachable!("model checking runs no simulator"),
    }
}

fn simulate<M: Mode>(config: &Config) -> Outcome {
    let shape = shape(config);
    let n = config.n;
    let before = snapshot::<M>();

    let t0 = Instant::now();
    let source = span::<M, _>(Span::SourceBuild, || M::source(build_source(config)));
    let drift = M::drift(ModelDrift::new(
        shape.drift,
        shape.model.rho,
        shape.drift_horizon,
        // The seed `SimBuilder::drift_model` derives from the engine seed.
        config.seed ^ 0x9e37_79b9_7f4a_7c15,
    ));
    let params = AlgoParams::with_minimal_b0(shape.model, n, 0.5);
    let shared = Arc::new(GradientShared::new(params).with_idle_parking(shape.idle_parking));
    let mut sim: Simulator<M::Node> = SimBuilder::topology(shape.model, source)
        .drift(drift)
        .delay(DelayStrategy::Max)
        .seed(config.seed)
        .threads(config.threads)
        .par_threshold(PAR_THRESHOLD)
        .build_with(|_| M::node(GradientNode::with_shared(shared.clone())));
    let setup_s = t0.elapsed().as_secs_f64();
    let built = snapshot::<M>();

    // E13's cadence: O(n) extrema rescans every 4096 instants.
    let mut probe = shape
        .observe
        .then(|| SkewStream::new(n, shape.model.rho, 4096));
    let t1 = Instant::now();
    for &stop in &shape.stops {
        match probe.as_mut() {
            Some(probe) => sim.run_until_with(at(stop), |sim, t, touched| {
                span::<M, _>(Span::Observe, || probe.observe(sim, t, touched));
                if M::TRACED {
                    trace::count(Count::ObserveCalls, 1);
                    trace::count(Count::TouchedNodes, touched.len() as u64);
                }
            }),
            None => sim.run_until(at(stop)),
        }
        if shape.evict {
            span::<M, _>(Span::Evict, || sim.evict_quiescent());
        }
    }
    let run_s = t1.elapsed().as_secs_f64();
    let done = snapshot::<M>();

    let stats = *sim.stats();
    let snapshot_hash = fnv1a(sim.logical_snapshot().into_iter().map(f64::to_bits));
    let fingerprint = Fingerprint([
        stats.events_processed,
        stats.messages_delivered,
        stats.alarms_fired,
        stats.topology_events,
        snapshot_hash,
    ]);
    let mut violations = Vec::new();
    if stats.topology_pulled != stats.topology_events {
        violations.push(format!(
            "{} topology events pulled but {} applied by the horizon",
            stats.topology_pulled, stats.topology_events
        ));
    }
    if let Some(probe) = &probe {
        let bound = params.global_skew_bound();
        if probe.peak_global_skew() > bound {
            violations.push(format!(
                "peak global skew {} exceeds the bound {bound}",
                probe.peak_global_skew()
            ));
        }
    }
    let layers = M::TRACED.then(|| {
        let setup = built.since(&before).leader;
        let run = done.since(&built).leader;
        let all = done.since(&before);
        let topology_apply_s = sim.topology_apply_seconds();
        let mut m = span_metrics(&all);
        m.insert("sim.build_self_s", setup_s - setup.total_secs());
        m.insert(
            "sim.run_self_s",
            run_s - run.total_secs() - topology_apply_s,
        );
        m.insert("sim.topology_apply_s", topology_apply_s);
        sim_metrics(&sim, &mut m);
        m
    });
    Outcome {
        setup_s,
        run_s,
        work: stats.events_processed,
        fingerprint,
        violations,
        layers,
    }
}

/// Busy-time and count metrics of every traced layer.
fn span_metrics(t: &Totals) -> BTreeMap<&'static str, f64> {
    let all = t.all();
    let c = |k: Count| all.count(k) as f64;
    BTreeMap::from([
        ("net.pull_s", all.secs(Span::Pull)),
        ("net.pull_calls", c(Count::PullCalls)),
        ("net.events_pulled", c(Count::EventsPulled)),
        ("net.initial_edges_s", all.secs(Span::InitialEdges)),
        ("net.schedule_build_s", all.secs(Span::SourceBuild)),
        ("clocks.drift_s", all.secs(Span::Drift)),
        ("clocks.read_calls", c(Count::ReadCalls)),
        ("clocks.fire_calls", c(Count::FireCalls)),
        ("clocks.segments_opened", c(Count::SegmentsOpened)),
        ("clocks.cursor_inits", c(Count::CursorInits)),
        ("core.start_s", all.secs(Span::Start)),
        ("core.handler_s", all.secs(Span::Handler)),
        ("core.handler_s.lane0", t.leader.secs(Span::Handler)),
        ("core.handler_s.lane1", t.lanes.secs(Span::Handler)),
        ("core.start_calls", c(Count::StartCalls)),
        ("core.receive_calls", c(Count::ReceiveCalls)),
        ("core.alarm_calls", c(Count::AlarmCalls)),
        ("core.discover_calls", c(Count::DiscoverCalls)),
        ("core.pack_calls", c(Count::PackCalls)),
        ("core.unpack_calls", c(Count::UnpackCalls)),
        ("sim.evict_s", all.secs(Span::Evict)),
        ("analysis.observe_s", all.secs(Span::Observe)),
        ("analysis.observe_calls", c(Count::ObserveCalls)),
        ("analysis.touched_nodes", c(Count::TouchedNodes)),
    ])
}

/// Engine counters, queue peaks and the plane census, read after the run.
fn sim_metrics<A: gcs_sim::Automaton>(sim: &Simulator<A>, m: &mut BTreeMap<&'static str, f64>) {
    let s = sim.stats();
    let [peak_topology, _fault, peak_deliver, peak_alarm, _discover] = sim.wheel_pending_peaks();
    let planes = sim.plane_bytes();
    let useful = s.alarms_fired as f64 / (s.alarms_fired + s.alarms_stale).max(1) as f64;
    m.extend([
        ("sim.events", s.events_processed as f64),
        ("sim.messages_delivered", s.messages_delivered as f64),
        ("sim.alarms_fired", s.alarms_fired as f64),
        ("sim.alarms_stale", s.alarms_stale as f64),
        ("sim.alarm_useful_ratio", useful),
        ("sim.discovers_stale", s.discovers_stale as f64),
        ("sim.topology_batches", s.topology_batches as f64),
        ("sim.peak_batch_len", s.peak_batch_len as f64),
        ("sim.peak_topology_backlog", s.peak_topology_backlog as f64),
        ("sim.peak_staged_events", s.peak_staged_events as f64),
        ("sim.segments_parallel", s.segments_parallel as f64),
        ("sim.segments_inline", s.segments_inline as f64),
        ("sim.evictions", sim.evictions() as f64),
        ("sim.rehydrations", sim.rehydrations() as f64),
        (
            "sim.node_state_watermark",
            sim.node_state_watermark() as f64,
        ),
        ("sim.drift_cursors", sim.drift_cursors() as f64),
        ("sim.peak_pending_deliver", peak_deliver as f64),
        ("sim.peak_pending_alarm", peak_alarm as f64),
        ("sim.peak_pending_topology", peak_topology as f64),
        ("sim.plane.topology_bytes", planes.topology as f64),
        ("sim.plane.drift_bytes", planes.drift as f64),
        ("sim.plane.automaton_hot_bytes", planes.automaton_hot as f64),
        (
            "sim.plane.automaton_cold_bytes",
            planes.automaton_cold as f64,
        ),
        ("sim.plane.wheel_bytes", planes.wheel as f64),
        ("sim.plane.staging_bytes", planes.staging as f64),
        (
            "sim.plane.dispatch_scratch_bytes",
            planes.dispatch_scratch as f64,
        ),
    ]);
}

fn model_check<M: Mode>(config: &Config) -> Outcome {
    let before = snapshot::<M>();
    // Set-up is suite construction, microseconds long: time batches of
    // constructions and keep the median batch's per-construction time.
    let mut batches: Vec<f64> = (0..MC_SETUP_BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..MC_SETUP_BATCH {
                std::hint::black_box(explore::suite(std::hint::black_box(config.n)));
            }
            t0.elapsed().as_secs_f64() / f64::from(MC_SETUP_BATCH)
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    let setup_s = batches[batches.len() / 2];
    let suite = explore::suite(config.n);
    let built = snapshot::<M>();

    let t1 = Instant::now();
    let reports: Vec<_> = suite
        .iter()
        .map(|sc| explore::explore(sc, |_| M::node(GradientNode::new(sc.algo)), MC_MAX_RUNS))
        .collect();
    let run_s = t1.elapsed().as_secs_f64();
    let done = snapshot::<M>();

    let states: u64 = reports.iter().map(|r| r.states as u64).sum();
    let runs: u64 = reports.iter().map(|r| r.runs as u64).sum();
    let max_depth = reports
        .iter()
        .map(|r| r.max_depth as u64)
        .max()
        .unwrap_or(0);
    let violations: Vec<String> = reports
        .iter()
        .filter_map(|r| {
            r.violation
                .as_ref()
                .map(|(_, msg)| format!("{}: {msg}", r.scenario))
        })
        .collect();
    let fingerprint = Fingerprint([
        states,
        runs,
        max_depth,
        violations.len() as u64,
        fnv1a(
            reports
                .iter()
                .flat_map(|r| [r.states as u64, r.runs as u64]),
        ),
    ]);
    let layers = M::TRACED.then(|| {
        let run = done.since(&built).leader;
        let mut m = span_metrics(&done.since(&before));
        m.insert("mc.states", states as f64);
        m.insert("mc.runs", runs as f64);
        m.insert("mc.max_depth", max_depth as f64);
        m.insert("mc.states_per_run", states as f64 / runs.max(1) as f64);
        m.insert("mc.self_s", run_s - run.total_secs());
        m
    });
    Outcome {
        setup_s,
        run_s,
        work: states,
        fingerprint,
        violations,
        layers,
    }
}
