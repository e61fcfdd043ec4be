//! The experiment surface: the [`Scenario`] trait plus shared workloads.
//!
//! Every quantitative claim reproduced by this repository runs behind the
//! same fail-closed interface: a [`Scenario`] names itself (`E1`…`E15` or
//! an example binary), states the paper claim it reproduces, and produces
//! a [`ScenarioReport`] — rendered tables, free-form notes, and CSV series
//! for the perf/shape trajectory. [`all_scenarios`] enumerates all fifteen
//! (E1–E15) so `run_all` (and any future driver) cannot silently drop an
//! experiment, and [`run_parallel`] fans scenarios out over scoped
//! threads via [`gcs_analysis::sweep::fan_out`].
//!
//! The *cluster merge* below is the shared workload behind E2, E3 and E7
//! (and the paper's motivating story): two halves of the network evolve
//! separately — one on fast hardware clocks, one on slow — so their
//! logical clocks drift apart at rate `2ρ`; at `t_bridge` an edge joins
//! them, instantly carrying skew `≈ 2ρ·t_bridge`. Scaling `t_bridge` with
//! `n` yields the `Θ(n)` initial skew of the paper's analysis with an
//! honest execution (clocks all start at 0; the skew is genuinely
//! accumulated, not injected).

use gcs_analysis::Table;
use gcs_clocks::HardwareClock;
use gcs_net::schedule::add_at;
use gcs_net::{Edge, TopologySchedule};
use gcs_sim::ModelParams;
use std::path::Path;

/// One CSV output series of a scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct CsvSeries {
    /// File name (relative to the experiment output directory).
    pub filename: String,
    /// Column names.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<f64>>,
}

/// Everything a scenario produces: human-readable tables and notes plus
/// machine-readable CSV series, and (optionally) the process peak RSS
/// observed after the run.
///
/// `PartialEq` is deliberate and *manual*: the determinism regression
/// tests assert that whole reports — rendered tables, notes, and every
/// CSV cell — are identical across engine thread counts. The memory
/// reading is a host fact, not a trace fact (it varies run to run), so
/// it is excluded from equality.
#[derive(Clone, Debug, Default)]
pub struct ScenarioReport {
    /// Rendered paper-vs-measured tables.
    pub tables: Vec<Table>,
    /// Free-form findings (fits, slopes, assertions that held).
    pub notes: Vec<String>,
    /// CSV series for the trajectory directory.
    pub series: Vec<CsvSeries>,
    /// Process peak RSS in bytes after the scenario ran, if measured
    /// (see [`ScenarioReport::record_memory`]). Process-wide: only
    /// meaningful for scenarios that run alone, like E11/E12.
    pub peak_rss_bytes: Option<u64>,
    /// Per-plane heap census read while the scenario's simulation was
    /// still live (see [`ScenarioReport::record_planes`]). Excluded from
    /// equality like `peak_rss_bytes`: totals are trace facts but the
    /// census counts *capacities*, whose growth rounding varies with the
    /// shard (= worker) count.
    pub plane_bytes: Option<gcs_analysis::mem::PlaneBytes>,
}

impl PartialEq for ScenarioReport {
    fn eq(&self, other: &Self) -> bool {
        // `peak_rss_bytes` and `plane_bytes` deliberately excluded — see
        // the type docs.
        self.tables == other.tables && self.notes == other.notes && self.series == other.series
    }
}

impl ScenarioReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stamps the process peak RSS (high-water mark) into the report so
    /// memory claims are measured, not asserted. Call at the end of a
    /// scenario that runs alone; `None` on platforms without
    /// `/proc/self/status`.
    pub fn record_memory(&mut self) -> &mut Self {
        self.peak_rss_bytes = gcs_analysis::peak_rss_bytes();
        self
    }

    /// Stamps a per-plane heap census into the report. Read the census
    /// (`Simulator::plane_bytes`) while the simulation is still live,
    /// then pass it here.
    pub fn record_planes(&mut self, planes: gcs_analysis::mem::PlaneBytes) -> &mut Self {
        self.plane_bytes = Some(planes);
        self
    }

    /// Adds a rendered table.
    pub fn table(&mut self, t: Table) -> &mut Self {
        self.tables.push(t);
        self
    }

    /// Adds a note line.
    pub fn note(&mut self, s: impl Into<String>) -> &mut Self {
        self.notes.push(s.into());
        self
    }

    /// Adds a CSV series.
    pub fn csv(
        &mut self,
        filename: impl Into<String>,
        header: &[&str],
        rows: Vec<Vec<f64>>,
    ) -> &mut Self {
        self.series.push(CsvSeries {
            filename: filename.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows,
        });
        self
    }

    /// Prints tables, notes, then the memory reading (if recorded) to
    /// stdout. The memory line lives here — not in `notes` — so host
    /// facts never leak into the trace-compared report content.
    pub fn print(&self) {
        for t in &self.tables {
            t.print();
            println!();
        }
        for n in &self.notes {
            println!("{n}");
        }
        if let Some(bytes) = self.peak_rss_bytes {
            println!(
                "process peak RSS: {} MiB (process-lifetime high-water mark — \
                 faithful only in a fresh process, e.g. the standalone bins)",
                gcs_analysis::mem::fmt_mib(Some(bytes))
            );
        }
        if let Some(planes) = &self.plane_bytes {
            println!(
                "plane bytes (MiB): {} — total {:.1}",
                gcs_analysis::mem::fmt_planes(planes),
                planes.total() as f64 / (1024.0 * 1024.0)
            );
        }
    }

    /// Writes every CSV series under `dir` (created if needed).
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for s in &self.series {
            let header: Vec<&str> = s.header.iter().map(String::as_str).collect();
            gcs_analysis::csv::write_csv(dir.join(&s.filename), &header, &s.rows)?;
        }
        Ok(())
    }
}

/// Which batch of the driver a scenario belongs to. Typed — `run_all`
/// partitions on this instead of matching id strings, so adding a
/// scenario can never silently land it in the wrong batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScenarioFamily {
    /// Reproduces a paper claim at small `n`; safe to fan out in
    /// parallel with its siblings.
    Claim,
    /// Is itself a wall-clock/memory benchmark; must run alone.
    Scale,
    /// Injects faults or adversarial topology control; runs alone after
    /// the claim batch (its runs are deterministic but CPU-heavy).
    Fault,
    /// An `examples/` binary behind the scenario surface.
    Example,
}

/// Structured self-description of a scenario — the typed replacement
/// for matching on [`Scenario::id`] strings in drivers and registries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScenarioMeta {
    /// Short identifier, identical to [`Scenario::id`].
    pub name: &'static str,
    /// The (largest) node count the scenario runs at, when meaningful.
    pub n: Option<usize>,
    /// Driver batch.
    pub family: ScenarioFamily,
    /// Human-readable summary of the fault injections, for
    /// [`ScenarioFamily::Fault`] scenarios.
    pub fault_profile: Option<&'static str>,
}

/// A named, self-describing experiment.
///
/// Implemented by all `E*` experiment modules (each wraps its `Config`
/// in an `Experiment` struct) and by the `examples/` binaries, so every
/// entry point into the reproduction goes through one documented surface.
pub trait Scenario: Send + Sync {
    /// Short identifier (`"E1"`, `"tdma"`, …).
    fn id(&self) -> &'static str;
    /// What the scenario measures.
    fn title(&self) -> &'static str;
    /// The paper claim it reproduces (section/theorem).
    fn claim(&self) -> &'static str;
    /// Structured metadata. The default marks the scenario an
    /// [`ScenarioFamily::Example`] with unspecified size — the
    /// `examples/` binaries take it as-is; every registry experiment
    /// overrides it.
    fn meta(&self) -> ScenarioMeta {
        ScenarioMeta {
            name: self.id(),
            n: None,
            family: ScenarioFamily::Example,
            fault_profile: None,
        }
    }
    /// Runs the workload and collects the report.
    fn run_scenario(&self) -> ScenarioReport;
}

/// All fifteen experiments, in order (E1–E10 reproduce paper claims at
/// small `n`; E11 is the large-scale parallel-engine run; E12 is the
/// streaming dynamic-workload family at `n = 2^17`; E13 is the lazy
/// clock plane's scale-ceiling run at `n = 2^20`; E14 is the compact
/// automaton plane's memory-ceiling run at `n = 2^23`; E15 is the fault
/// and adversary family).
pub fn all_scenarios() -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(crate::e1_global_skew::Experiment::default()),
        Box::new(crate::e2_local_skew::Experiment::default()),
        Box::new(crate::e3_tradeoff::Experiment::default()),
        Box::new(crate::e4_lowerbound::Experiment::default()),
        Box::new(crate::e5_masking::Experiment::default()),
        Box::new(crate::e6_max_prop::Experiment::default()),
        Box::new(crate::e7_baselines::Experiment::default()),
        Box::new(crate::e8_ablations::Experiment::default()),
        Box::new(crate::e9_gradient_profile::Experiment::default()),
        Box::new(crate::e10_weighted::Experiment::default()),
        Box::new(crate::e11_large_scale::Experiment::default()),
        Box::new(crate::e12_dynamic_workloads::Experiment::default()),
        Box::new(crate::e13_scale_ceiling::Experiment::default()),
        Box::new(crate::e14_memory_ceiling::Experiment::default()),
        Box::new(crate::e15_faults::Experiment::default()),
    ]
}

/// An ordered batch of boxed registry scenarios.
pub type ScenarioBatch = Vec<Box<dyn Scenario>>;

/// The registry scenarios belonging to `family`, in registry order.
pub fn scenarios_in(family: ScenarioFamily) -> Vec<Box<dyn Scenario>> {
    all_scenarios()
        .into_iter()
        .filter(|s| s.meta().family == family)
        .collect()
}

/// The driver's execution plan, derived from typed scenario metadata:
/// `(claim batch, solo batch)`. The claim batch fans out in parallel;
/// the solo batch — [`ScenarioFamily::Scale`] runs (themselves
/// wall-clock/memory benchmarks) and [`ScenarioFamily::Fault`] runs
/// (CPU-heavy adversary search) — executes alone afterwards, in
/// registry order. `run_all` consumes this instead of re-partitioning,
/// so the driver and the registry cannot drift apart.
pub fn driver_plan() -> (ScenarioBatch, ScenarioBatch) {
    let mut claim = Vec::new();
    let mut solo = Vec::new();
    for s in all_scenarios() {
        match s.meta().family {
            ScenarioFamily::Claim => claim.push(s),
            ScenarioFamily::Scale | ScenarioFamily::Fault => solo.push(s),
            ScenarioFamily::Example => {
                unreachable!("registry scenarios must not use the Example default meta")
            }
        }
    }
    (claim, solo)
}

/// Runs scenarios in parallel over scoped threads, preserving order.
pub fn run_parallel(scenarios: &[Box<dyn Scenario>]) -> Vec<ScenarioReport> {
    let jobs: Vec<Box<dyn FnOnce() -> ScenarioReport + Send + '_>> = scenarios
        .iter()
        .map(|s| Box::new(move || s.run_scenario()) as Box<dyn FnOnce() -> ScenarioReport + Send>)
        .collect();
    gcs_analysis::sweep::fan_out(jobs)
}

/// A cluster-merge workload.
#[derive(Clone, Debug)]
pub struct Merge {
    /// Schedule: two disjoint paths, bridged at `t_bridge`.
    pub schedule: TopologySchedule,
    /// Per-node hardware clocks (left half fast, right half slow).
    pub clocks: Vec<HardwareClock>,
    /// The bridge edge.
    pub bridge: Edge,
    /// The pre-existing edges.
    pub old_edges: Vec<Edge>,
    /// When the bridge appears.
    pub t_bridge: f64,
}

/// Builds a cluster merge over `n` nodes (`n ≥ 4`, even split).
///
/// The left cluster is nodes `0..n/2`, the right cluster `n/2..n`; the
/// bridge is `{n/2 − 1, n/2}`. Hardware rates: the left cluster runs at
/// `1+ρ` **except its bridge endpoint `n/2 − 1`, which runs at `1−ρ`** —
/// it tracks the fast cluster's max by *chasing* (discrete jumps), so any
/// mechanism that blocks jumping shows up as a measurable `Lmax − L` lag
/// there. The right cluster runs at `1−ρ`. Expected skew on the bridge at
/// formation: `≈ 2ρ·t_bridge`.
pub fn merge(n: usize, model: ModelParams, t_bridge: f64) -> Merge {
    assert!(n >= 4, "merge scenario needs n >= 4");
    let half = n / 2;
    let bridge = Edge::between(half - 1, half);
    let mut old_edges: Vec<Edge> = (0..half - 1).map(|i| Edge::between(i, i + 1)).collect();
    old_edges.extend((half..n - 1).map(|i| Edge::between(i, i + 1)));
    let schedule = TopologySchedule::static_graph(n, old_edges.clone())
        .with_extra_events(vec![add_at(t_bridge, bridge)]);
    let clocks = (0..n)
        .map(|i| {
            let rate = if i < half - 1 {
                1.0 + model.rho
            } else {
                1.0 - model.rho
            };
            HardwareClock::constant(rate, model.rho)
        })
        .collect();
    Merge {
        schedule,
        clocks,
        bridge,
        old_edges,
        t_bridge,
    }
}

/// The `t_bridge` that yields initial bridge skew ≈ `target_skew`.
pub fn t_bridge_for_skew(model: ModelParams, target_skew: f64) -> f64 {
    assert!(target_skew > 0.0);
    target_skew / (2.0 * model.rho)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_clocks::time::at;

    #[test]
    fn registry_lists_all_fifteen_experiments_in_order() {
        let ids: Vec<&str> = all_scenarios().iter().map(|s| s.id()).collect();
        assert_eq!(
            ids,
            vec![
                "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13",
                "E14", "E15"
            ]
        );
        for s in all_scenarios() {
            assert!(!s.title().is_empty(), "{} needs a title", s.id());
            assert!(!s.claim().is_empty(), "{} needs a claim", s.id());
            let meta = s.meta();
            assert_eq!(meta.name, s.id(), "meta name must equal id");
            assert_ne!(
                meta.family,
                ScenarioFamily::Example,
                "{}: registry experiments must override the default meta",
                s.id()
            );
        }
    }

    #[test]
    fn families_partition_the_registry() {
        let claim = scenarios_in(ScenarioFamily::Claim);
        let scale = scenarios_in(ScenarioFamily::Scale);
        let fault = scenarios_in(ScenarioFamily::Fault);
        assert_eq!(claim.len(), 10, "E1-E10 are the claim batch");
        let scale_ids: Vec<&str> = scale.iter().map(|s| s.id()).collect();
        assert_eq!(scale_ids, vec!["E11", "E12", "E13", "E14"]);
        let fault_ids: Vec<&str> = fault.iter().map(|s| s.id()).collect();
        assert_eq!(fault_ids, vec!["E15"]);
        for s in fault {
            assert!(
                s.meta().fault_profile.is_some(),
                "fault scenarios must describe their injections"
            );
        }
        assert_eq!(claim.len() + scale_ids.len() + fault_ids.len(), 15);
    }

    #[test]
    fn every_scenario_lands_in_exactly_one_family() {
        // The family partition is exact: summing the per-family slices
        // recovers the registry with no scenario dropped or duplicated.
        let registry: Vec<&str> = all_scenarios().iter().map(|s| s.id()).collect();
        let mut partitioned: Vec<&str> = Vec::new();
        for family in [
            ScenarioFamily::Claim,
            ScenarioFamily::Scale,
            ScenarioFamily::Fault,
            ScenarioFamily::Example,
        ] {
            for s in scenarios_in(family) {
                assert!(
                    !partitioned.contains(&s.id()),
                    "{} appears in more than one family",
                    s.id()
                );
                partitioned.push(s.id());
            }
        }
        assert_eq!(partitioned.len(), 15);
        let mut sorted_registry = registry;
        let mut sorted_partitioned = partitioned;
        sorted_registry.sort_unstable();
        sorted_partitioned.sort_unstable();
        assert_eq!(sorted_registry, sorted_partitioned);
    }

    #[test]
    fn driver_plan_fan_out_matches_the_registry() {
        // The run_all smoke: the plan's claim batch is exactly the Claim
        // family, the solo batch is Scale + Fault in registry order, and
        // together they cover the registry.
        let (claim, solo) = driver_plan();
        let claim_ids: Vec<&str> = claim.iter().map(|s| s.id()).collect();
        let solo_ids: Vec<&str> = solo.iter().map(|s| s.id()).collect();
        let expected_claim: Vec<&str> = scenarios_in(ScenarioFamily::Claim)
            .iter()
            .map(|s| s.id())
            .collect();
        let mut expected_solo: Vec<&str> = scenarios_in(ScenarioFamily::Scale)
            .iter()
            .map(|s| s.id())
            .collect();
        expected_solo.extend(scenarios_in(ScenarioFamily::Fault).iter().map(|s| s.id()));
        assert_eq!(claim_ids, expected_claim);
        assert_eq!(solo_ids, expected_solo);
        let planned: Vec<&str> = claim_ids.into_iter().chain(solo_ids).collect();
        let registry: Vec<&str> = all_scenarios().iter().map(|s| s.id()).collect();
        assert_eq!(
            planned, registry,
            "driver plan must cover the registry in order"
        );
        for s in claim {
            assert_eq!(s.meta().family, ScenarioFamily::Claim);
        }
        for s in solo {
            assert_ne!(s.meta().family, ScenarioFamily::Claim);
        }
    }

    #[test]
    fn report_equality_ignores_memory_readings() {
        let mut a = ScenarioReport::new();
        a.note("same trace");
        let mut b = a.clone();
        a.peak_rss_bytes = Some(1);
        b.peak_rss_bytes = Some(2);
        a.record_planes(gcs_analysis::mem::PlaneBytes {
            automaton_hot: 7,
            ..Default::default()
        });
        assert_eq!(a, b, "host memory facts must not break determinism pins");
        b.note("different trace");
        assert_ne!(a, b);
    }

    #[test]
    fn report_collects_and_writes() {
        struct Tiny;
        impl Scenario for Tiny {
            fn id(&self) -> &'static str {
                "tiny"
            }
            fn title(&self) -> &'static str {
                "plumbing check"
            }
            fn claim(&self) -> &'static str {
                "n/a"
            }
            fn run_scenario(&self) -> ScenarioReport {
                let mut rep = ScenarioReport::new();
                rep.table(Table::new("t", &["a"])).note("done").csv(
                    "tiny.csv",
                    &["x", "y"],
                    vec![vec![1.0, 2.0]],
                );
                rep
            }
        }
        let scenarios: Vec<Box<dyn Scenario>> = vec![Box::new(Tiny), Box::new(Tiny)];
        let reports = run_parallel(&scenarios);
        assert_eq!(reports.len(), 2);
        for rep in &reports {
            assert_eq!(rep.tables.len(), 1);
            assert_eq!(rep.notes, vec!["done".to_string()]);
            assert_eq!(rep.series.len(), 1);
        }
        let dir = std::env::temp_dir().join("gcs_scenario_report_test");
        reports[0].write_csv(&dir).unwrap();
        let written = std::fs::read_to_string(dir.join("tiny.csv")).unwrap();
        assert!(written.starts_with("x,y"));
        let _ = std::fs::remove_dir_all(&dir);
    }
    use gcs_clocks::ScheduleDrift;
    use gcs_core::{AlgoParams, GradientNode};
    use gcs_net::ScheduleSource;
    use gcs_sim::{DelayStrategy, SimBuilder};

    #[test]
    fn merge_accumulates_predicted_skew() {
        let model = ModelParams::new(0.05, 1.0, 2.0);
        let n = 16;
        let m = merge(n, model, 200.0);
        let params = AlgoParams::with_minimal_b0(model, n, 0.5);
        let mut sim = SimBuilder::topology(model, ScheduleSource::new(m.schedule.clone()))
            .drift(ScheduleDrift::new(m.clocks.clone()))
            .delay(DelayStrategy::Max)
            .build_with(|_| GradientNode::new(params));
        sim.run_until(at(200.0));
        let skew = (sim.logical(m.bridge.lo()) - sim.logical(m.bridge.hi())).abs();
        let predicted = 2.0 * model.rho * 200.0;
        assert!(
            (skew - predicted).abs() < predicted * 0.15,
            "skew {skew} vs predicted {predicted}"
        );
    }

    #[test]
    fn t_bridge_helper_inverts() {
        let model = ModelParams::new(0.05, 1.0, 2.0);
        let t = t_bridge_for_skew(model, 30.0);
        assert!((2.0 * model.rho * t - 30.0).abs() < 1e-9);
    }
}
