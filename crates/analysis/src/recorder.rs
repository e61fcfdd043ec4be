//! Time-series recording of an execution.
//!
//! [`Recorder`] samples a simulation at a fixed real-time cadence and
//! retains every [`Sample`], keeping peak skews as running aggregates.
//! Long, large-`n` runs stream through [`SkewStream`](crate::SkewStream)
//! instead.

use crate::metrics;
use gcs_clocks::Time;
use gcs_core::InvariantMonitor;
use gcs_net::{node, Edge};
use gcs_sim::{Automaton, Simulator};

/// One sampled instant of an execution.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Sample time.
    pub t: f64,
    /// Global skew `max L − min L`.
    pub global_skew: f64,
    /// Worst skew over currently present edges.
    pub max_local_skew: f64,
    /// Cumulative topology events applied by this time — read from the
    /// engine's streamed counter, not derived by diffing edge-set
    /// snapshots, so it costs `O(1)` per sample at any scale.
    pub topology_events: u64,
    /// Skew of each watched edge (`None` while the edge is absent),
    /// in the order the edges were registered.
    pub watched: Vec<Option<f64>>,
}

/// Samples a simulation at a fixed real-time cadence, optionally feeding an
/// [`InvariantMonitor`].
pub struct Recorder {
    sample_dt: f64,
    watched: Vec<Edge>,
    samples: Vec<Sample>,
    monitor: Option<InvariantMonitor>,
    peak_global: f64,
    peak_local: f64,
    /// Reused logical-snapshot buffer: a long recording allocates one
    /// snapshot vector total, not one per sample.
    snap_buf: Vec<f64>,
    /// Reused `Lmax` buffer for the invariant monitor.
    lmax_buf: Vec<f64>,
}

impl Recorder {
    /// A recorder sampling every `sample_dt` real-time units.
    pub fn new(sample_dt: f64) -> Self {
        assert!(sample_dt > 0.0);
        Recorder {
            sample_dt,
            watched: Vec::new(),
            samples: Vec::new(),
            monitor: None,
            peak_global: 0.0,
            peak_local: 0.0,
            snap_buf: Vec::new(),
            lmax_buf: Vec::new(),
        }
    }

    /// Registers an edge whose skew should be tracked in every sample.
    pub fn watch(mut self, e: Edge) -> Self {
        self.watched.push(e);
        self
    }

    /// Attaches an invariant monitor that will be fed every sample.
    pub fn with_monitor(mut self, monitor: InvariantMonitor) -> Self {
        self.monitor = Some(monitor);
        self
    }

    /// Runs `sim` from its current time to `until`, sampling on the way.
    pub fn run<A: Automaton>(&mut self, sim: &mut Simulator<A>, until: Time) {
        let mut t = sim.now().seconds();
        let end = until.seconds();
        while t < end {
            t = (t + self.sample_dt).min(end);
            sim.run_until(Time::new(t));
            self.sample_now(sim);
        }
    }

    /// Takes one sample at the simulator's current time (reusing the
    /// recorder's snapshot buffers — no per-sample allocation beyond the
    /// retained [`Sample`] itself).
    pub fn sample_now<A: Automaton>(&mut self, sim: &mut Simulator<A>) {
        sim.logical_snapshot_into(&mut self.snap_buf);
        let logical = &self.snap_buf;
        let watched = self
            .watched
            .iter()
            .map(|&e| {
                sim.graph()
                    .contains(e)
                    .then(|| metrics::edge_skew_in(logical, e))
            })
            .collect();
        let sample = Sample {
            t: sim.now().seconds(),
            global_skew: metrics::global_skew(logical),
            max_local_skew: metrics::max_local_skew_in(logical, sim.graph().edges()),
            topology_events: sim.stats().topology_events,
            watched,
        };
        if let Some(m) = &mut self.monitor {
            self.lmax_buf.clear();
            self.lmax_buf
                .extend((0..sim.n()).map(|i| sim.max_estimate_of(node(i))));
            m.observe(sim.now(), logical, &self.lmax_buf);
        }
        self.ingest(sample);
    }

    /// Feeds one sample through the aggregates and the retained buffer.
    fn ingest(&mut self, sample: Sample) {
        self.peak_global = self.peak_global.max(sample.global_skew);
        self.peak_local = self.peak_local.max(sample.max_local_skew);
        self.samples.push(sample);
    }

    /// Every sample taken, in time order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The invariant monitor, if attached.
    pub fn monitor(&self) -> Option<&InvariantMonitor> {
        self.monitor.as_ref()
    }

    /// Maximum global skew over all samples taken.
    pub fn peak_global_skew(&self) -> f64 {
        self.peak_global
    }

    /// Maximum local skew over all samples taken.
    pub fn peak_local_skew(&self) -> f64 {
        self.peak_local
    }

    /// The first sample time at which watched edge `idx` dropped
    /// to or below `threshold` and stayed there for all later samples.
    pub fn settle_time(&self, idx: usize, threshold: f64) -> Option<f64> {
        let mut settle = None;
        for s in &self.samples {
            match s.watched.get(idx).copied().flatten() {
                Some(skew) if skew <= threshold => {
                    settle.get_or_insert(s.t);
                }
                Some(_) => settle = None,
                None => settle = None,
            }
        }
        settle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_clocks::time::at;
    use gcs_core::{AlgoParams, GradientNode};
    use gcs_net::{generators, ScheduleSource, TopologySchedule};
    use gcs_sim::{DelayStrategy, ModelParams, SimBuilder};

    fn small_sim() -> Simulator<GradientNode> {
        let model = ModelParams::new(0.01, 1.0, 2.0);
        let params = AlgoParams::with_minimal_b0(model, 4, 0.5);
        SimBuilder::topology(
            model,
            ScheduleSource::new(TopologySchedule::static_graph(4, generators::path(4))),
        )
        .delay(DelayStrategy::Max)
        .build_with(move |_| GradientNode::new(params))
    }

    #[test]
    fn records_expected_sample_count() {
        let mut sim = small_sim();
        let mut rec = Recorder::new(1.0);
        rec.run(&mut sim, at(10.0));
        assert_eq!(rec.samples().len(), 10);
        assert!((rec.samples()[9].t - 10.0).abs() < 1e-12);
    }

    #[test]
    fn watched_edge_tracking() {
        let mut sim = small_sim();
        let mut rec = Recorder::new(1.0)
            .watch(Edge::between(0, 1))
            .watch(Edge::between(0, 3));
        rec.run(&mut sim, at(5.0));
        for s in rec.samples() {
            assert!(s.watched[0].is_some(), "present edge must be tracked");
            assert!(s.watched[1].is_none(), "absent edge must be None");
        }
    }

    #[test]
    fn settle_time_finds_stable_prefix() {
        let mut rec = Recorder::new(1.0).watch(Edge::between(0, 1));
        // Hand-craft samples: skew 5, 3, 1, 2, 1, 0.5 with threshold 2 ⇒
        // settles at the *last* descent below 2 that persists (t=4).
        for (t, skew) in [
            (0.0, 5.0),
            (1.0, 3.0),
            (2.0, 1.0),
            (3.0, 2.5),
            (4.0, 1.0),
            (5.0, 0.5),
        ] {
            rec.ingest(Sample {
                t,
                global_skew: skew,
                max_local_skew: skew,
                topology_events: 0,
                watched: vec![Some(skew)],
            });
        }
        assert_eq!(rec.settle_time(0, 2.0), Some(4.0));
        assert_eq!(rec.settle_time(0, 0.1), None);
        assert!((rec.peak_global_skew() - 5.0).abs() < 1e-12);
        assert!((rec.peak_local_skew() - 5.0).abs() < 1e-12);
    }
}
