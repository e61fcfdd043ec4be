//! Time-series recording of an execution, with bounded-memory streaming.
//!
//! [`Recorder`] samples a simulation at a fixed real-time cadence. By
//! default it retains every [`Sample`] (the historical behaviour small
//! experiments rely on), but two knobs make long, large-`n` recordings
//! bounded-memory:
//!
//! * [`Recorder::stream_to`] attaches [`Sink`]s — every sample is pushed
//!   to each sink the moment it is taken (e.g. a [`CsvSink`] writing rows
//!   straight to disk through the incremental
//!   [`CsvWriter`](crate::csv::CsvWriter)),
//! * [`Recorder::keep_last`] caps the in-memory buffer to a tail window.
//!
//! Peak statistics are maintained as running aggregates at ingest, so they
//! are exact in every retention mode.

use crate::metrics;
use gcs_clocks::Time;
use gcs_core::InvariantMonitor;
use gcs_net::{node, Edge};
use gcs_sim::{Automaton, Simulator};
use std::path::Path;

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

/// A streaming consumer of samples.
pub trait Sink {
    /// Called once per sample, in time order.
    fn record(&mut self, sample: &Sample);
}

/// A [`Sink`] that appends one CSV row per sample:
/// `t, global_skew, max_local_skew, topology_events, watched...` (absent
/// watched edges are written as `NaN`).
pub struct CsvSink {
    w: crate::csv::CsvWriter,
    row: Vec<f64>,
    io_errors: u64,
}

impl CsvSink {
    /// Creates the file and writes a header for `watched` watched edges.
    pub fn create(path: impl AsRef<Path>, watched: usize) -> std::io::Result<Self> {
        let mut header: Vec<String> = vec![
            "t".to_string(),
            "global_skew".to_string(),
            "max_local_skew".to_string(),
            "topology_events".to_string(),
        ];
        header.extend((0..watched).map(|i| format!("watched_{i}")));
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        Ok(CsvSink {
            w: crate::csv::CsvWriter::create(path, &header_refs)?,
            row: Vec::new(),
            io_errors: 0,
        })
    }

    /// Rows handed to the writer so far (buffered rows count; check
    /// [`io_error_count`](Self::io_error_count) for failures).
    pub fn rows_written(&self) -> u64 {
        self.w.rows_written()
    }

    /// Number of row writes that failed (sticky; a non-zero value means
    /// the CSV on disk is incomplete).
    pub fn io_error_count(&self) -> u64 {
        self.io_errors
    }
}

impl Sink for CsvSink {
    fn record(&mut self, sample: &Sample) {
        self.row.clear();
        self.row.extend([
            sample.t,
            sample.global_skew,
            sample.max_local_skew,
            sample.topology_events as f64,
        ]);
        self.row
            .extend(sample.watched.iter().map(|w| w.unwrap_or(f64::NAN)));
        // A failed write must not abort the simulation mid-run, but it
        // must not vanish either: the sticky error counter records it.
        // Rows stay in the BufWriter until it fills or the sink drops —
        // flushing per row would mean one syscall per sample.
        if self.w.row(&self.row).is_err() {
            self.io_errors += 1;
        }
    }
}

impl Drop for CsvSink {
    fn drop(&mut self) {
        if self.w.flush().is_err() {
            self.io_errors += 1;
        }
    }
}

/// Samples a simulation at a fixed real-time cadence, optionally feeding an
/// [`InvariantMonitor`] and any number of streaming [`Sink`]s.
pub struct Recorder {
    sample_dt: f64,
    watched: Vec<Edge>,
    samples: Vec<Sample>,
    keep_last: Option<usize>,
    sinks: Vec<Box<dyn Sink>>,
    monitor: Option<InvariantMonitor>,
    peak_global: f64,
    peak_local: f64,
    samples_taken: u64,
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
            keep_last: None,
            sinks: Vec::new(),
            monitor: None,
            peak_global: 0.0,
            peak_local: 0.0,
            samples_taken: 0,
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

    /// Attaches a streaming sink; every future sample is pushed to it.
    pub fn stream_to(mut self, sink: impl Sink + 'static) -> Self {
        self.sinks.push(Box::new(sink));
        self
    }

    /// Caps the in-memory sample buffer to the most recent `n` samples
    /// (`n ≥ 1`). Peaks stay exact; [`samples`](Self::samples) and
    /// [`settle_time`](Self::settle_time) then only see the retained tail.
    pub fn keep_last(mut self, n: usize) -> Self {
        assert!(n >= 1, "must retain at least one sample");
        self.keep_last = Some(n);
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

    /// Feeds one sample through aggregates, sinks and the retained buffer.
    fn ingest(&mut self, sample: Sample) {
        self.peak_global = self.peak_global.max(sample.global_skew);
        self.peak_local = self.peak_local.max(sample.max_local_skew);
        self.samples_taken += 1;
        for sink in &mut self.sinks {
            sink.record(&sample);
        }
        self.samples.push(sample);
        if let Some(cap) = self.keep_last {
            if self.samples.len() > cap {
                let excess = self.samples.len() - cap;
                self.samples.drain(..excess);
            }
        }
    }

    /// The retained samples (all of them unless [`keep_last`](Self::keep_last)
    /// is set).
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Total samples taken, including any no longer retained.
    pub fn samples_taken(&self) -> u64 {
        self.samples_taken
    }

    /// The invariant monitor, if attached.
    pub fn monitor(&self) -> Option<&InvariantMonitor> {
        self.monitor.as_ref()
    }

    /// Maximum global skew over all samples ever taken (exact in every
    /// retention mode).
    pub fn peak_global_skew(&self) -> f64 {
        self.peak_global
    }

    /// Maximum local skew over all samples ever taken (exact in every
    /// retention mode).
    pub fn peak_local_skew(&self) -> f64 {
        self.peak_local
    }

    /// The first retained sample time at which watched edge `idx` dropped
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
    use std::cell::RefCell;
    use std::rc::Rc;

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
        assert_eq!(rec.samples_taken(), 10);
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

    #[test]
    fn keep_last_bounds_memory_but_peaks_stay_exact() {
        let mut rec = Recorder::new(1.0);
        for i in 0..100 {
            // Peak (7.5) occurs early, well before the retained tail.
            let skew = if i == 3 { 7.5 } else { 1.0 };
            rec.ingest(Sample {
                t: i as f64,
                global_skew: skew,
                max_local_skew: skew,
                topology_events: 0,
                watched: vec![],
            });
        }
        let mut bounded = Recorder::new(1.0).keep_last(8);
        for i in 0..100 {
            let skew = if i == 3 { 7.5 } else { 1.0 };
            bounded.ingest(Sample {
                t: i as f64,
                global_skew: skew,
                max_local_skew: skew,
                topology_events: 0,
                watched: vec![],
            });
        }
        assert_eq!(bounded.samples().len(), 8);
        assert_eq!(bounded.samples_taken(), 100);
        assert_eq!(bounded.samples()[0].t, 92.0);
        assert_eq!(bounded.peak_global_skew(), rec.peak_global_skew());
        assert_eq!(bounded.peak_local_skew(), rec.peak_local_skew());
    }

    #[test]
    fn sinks_receive_every_sample_in_order() {
        struct Collect(Rc<RefCell<Vec<f64>>>);
        impl Sink for Collect {
            fn record(&mut self, s: &Sample) {
                self.0.borrow_mut().push(s.t);
            }
        }
        let seen = Rc::new(RefCell::new(Vec::new()));
        let mut rec = Recorder::new(1.0)
            .keep_last(2)
            .stream_to(Collect(seen.clone()));
        let mut sim = small_sim();
        rec.run(&mut sim, at(5.0));
        assert_eq!(*seen.borrow(), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(rec.samples().len(), 2, "retention capped");
    }

    #[test]
    fn csv_sink_streams_rows_to_disk() {
        let dir = std::env::temp_dir().join("gcs_recorder_csv_sink");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("series.csv");
        let mut rec = Recorder::new(1.0)
            .watch(Edge::between(0, 1))
            .stream_to(CsvSink::create(&path, 1).unwrap());
        let mut sim = small_sim();
        rec.run(&mut sim, at(4.0));
        drop(rec); // dropping the recorder drops (and flushes) the sink
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(
            lines[0],
            "t,global_skew,max_local_skew,topology_events,watched_0"
        );
        assert_eq!(lines.len(), 1 + 4, "header plus one row per sample");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
