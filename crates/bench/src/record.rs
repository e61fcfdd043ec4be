//! One record per timed engine run, and the memory gate on the perf
//! trajectory built from them.
//!
//! Every timed engine run in this crate — the E1/E11 throughput workload
//! ([`crate::engine_bench`]), each E12/E13 family and the E14 ceiling
//! run — yields one [`RunRecord`]: its two wall clocks, the live
//! resident set, and the engine's [`Telemetry`]. `run_all` writes each
//! record through [`RunRecord::to_json`] into `BENCH_engine.json`, and
//! refuses to overwrite the committed file when [`plane_regressions`]
//! finds a memory plane that grew.

use gcs_mc::json::{Json, JsonObj};
use gcs_mc::json_fields;
use gcs_sim::{Automaton, PlaneBytes, SimStats, Simulator, Telemetry};
use std::time::Instant;

/// One timed engine run.
#[derive(Clone, Copy, Debug)]
pub struct RunRecord {
    /// Wall-clock seconds spent building the simulation (source
    /// generation plus engine construction).
    pub setup_s: f64,
    /// Wall-clock seconds of the run itself.
    pub wall_s: f64,
    /// Current resident set right after the run, while the simulation is
    /// still live — unlike the process-wide high-water mark, this
    /// reflects *this* run's footprint even when other work ran earlier
    /// in the process.
    pub current_rss_bytes: Option<u64>,
    /// The engine's report, read at the end of the run.
    pub telemetry: Telemetry,
}

impl RunRecord {
    /// Builds a simulation with `build`, drives it with `run`, and
    /// records both: `setup_s` times `build`, `wall_s` times `run`, and
    /// the resident set and telemetry are read right after, while the
    /// simulator is still live.
    pub fn measure<A: Automaton>(
        build: impl FnOnce() -> Simulator<A>,
        run: impl FnOnce(&mut Simulator<A>),
    ) -> RunRecord {
        let t0 = Instant::now();
        let mut sim = build();
        let setup_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        run(&mut sim);
        let wall_s = t1.elapsed().as_secs_f64();
        RunRecord {
            setup_s,
            wall_s,
            current_rss_bytes: gcs_analysis::current_rss_bytes(),
            telemetry: sim.telemetry(),
        }
    }

    /// A record carrying only `telemetry` — the doctored runs of the gate
    /// tests.
    #[cfg(test)]
    pub(crate) fn of(telemetry: Telemetry) -> RunRecord {
        RunRecord {
            setup_s: 0.0,
            wall_s: 1.0,
            current_rss_bytes: None,
            telemetry,
        }
    }

    /// [`current_rss_bytes`](Self::current_rss_bytes) as a CSV cell:
    /// `NaN` on platforms without a reading.
    pub fn live_rss(&self) -> f64 {
        self.current_rss_bytes.map_or(f64::NAN, |b| b as f64)
    }

    /// Events processed.
    pub fn events(&self) -> u64 {
        self.telemetry.stats.events_processed
    }

    /// Throughput over the run's wall time.
    pub fn events_per_sec(&self) -> f64 {
        self.events() as f64 / self.wall_s.max(1e-12)
    }

    /// Engine label: `"batched-serial"` at one worker, else
    /// `"parallel-<threads>t"`.
    pub fn engine(&self) -> String {
        match self.telemetry.threads {
            1 => "batched-serial".to_string(),
            t => format!("parallel-{t}t"),
        }
    }

    /// The record as JSON fields, each fact once: the timings and
    /// resident set, then the telemetry — `stats` as one nested object,
    /// the wheel peaks as `peak_pending_<lane>`, and the plane census as
    /// `plane_<plane>_bytes`, the key names the memory gate reads.
    pub fn to_json(&self) -> JsonObj {
        let Telemetry {
            stats,
            planes,
            wheel_pending_peaks,
            threads,
            drift_cursors,
            node_state_watermark,
            rng_streams,
            cold_nodes,
            evictions,
            rehydrations,
            topology_apply_s,
        } = self.telemetry;
        let mut o = JsonObj::default();
        o.push("setup_s", self.setup_s);
        o.push("wall_s", self.wall_s);
        o.push("current_rss_bytes", self.current_rss_bytes);
        o.push("threads", threads);
        o.push("topology_apply_s", topology_apply_s);
        let stats = json_fields!(
            SimStats {
                events_processed,
                messages_sent,
                messages_delivered,
                dropped_no_edge,
                dropped_in_flight,
                alarms_fired,
                alarms_stale,
                discovers_delivered,
                discovers_stale,
                topology_events,
                topology_pulled,
                peak_topology_backlog,
                peak_staged_events,
                faults_pulled,
                faults_applied,
                crashes,
                restarts,
                dropped_crashed,
                suppressed_crashed,
                dropped_fault_window,
                delay_spiked,
                topology_batches,
                peak_batch_len,
                segments_parallel,
                segments_inline,
                par_min_events,
            } = stats
        );
        o.push("stats", Json::obj(stats));
        let lanes = ["topology", "fault", "deliver", "alarm", "discover"];
        for (lane, peak) in lanes.into_iter().zip(wheel_pending_peaks) {
            o.push(format!("peak_pending_{lane}"), peak);
        }
        o.push("drift_cursors", drift_cursors);
        o.push("node_state_watermark", node_state_watermark);
        o.push("rng_streams", rng_streams);
        o.push("cold_nodes", cold_nodes);
        o.push("evictions", evictions);
        o.push("rehydrations", rehydrations);
        let planes = json_fields!(
            PlaneBytes {
                topology,
                drift,
                automaton_hot,
                automaton_cold,
                wheel,
                staging,
                dispatch_scratch,
            } = planes
        );
        for (plane, bytes) in planes {
            o.push(format!("plane_{plane}_bytes"), bytes);
        }
        o
    }
}

/// One line per gated memory-plane meter of `committed` that grew by
/// more than 10% in `candidate` — section, family (`-` in the E14
/// section), meter, old -> new bytes and the growth — or that
/// `candidate` lacks, so a renamed section or family cannot switch the
/// gate off. The gated meters are every `plane_*_bytes` of the E14
/// section and each E12/E13 family's `plane_wheel_bytes` — the packed
/// event plane is the largest plane under churn backlogs. Families are
/// matched by name; a meter missing from `committed` (or recorded as 0)
/// is not compared.
pub fn plane_regressions(committed: &Json, candidate: &Json) -> Vec<String> {
    let candidate = plane_meters(candidate);
    plane_meters(committed)
        .into_iter()
        .filter_map(|(meter, old)| {
            let Some(&(_, new)) = candidate.iter().find(|(m, _)| *m == meter) else {
                return Some(format!("{meter}: missing from the new document"));
            };
            let (old_f, new_f) = (old as f64, new as f64);
            (old > 0 && new_f > old_f * 1.10).then(|| {
                let pct = (new_f / old_f - 1.0) * 100.0;
                format!("{meter}: {old} -> {new} bytes (+{pct:.1}%)")
            })
        })
        .collect()
}

/// `("<section> <family> <meter>", bytes)` for every gated meter of
/// `doc`. Sections, families and meters that are absent or not integers
/// contribute nothing, so v9 to v12 files read alike.
fn plane_meters(doc: &Json) -> Vec<(String, u64)> {
    let section = |name: &str| match doc {
        Json::Obj(doc) => doc.get(name).and_then(|s| s.as_obj(name).ok()),
        _ => None,
    };
    let mut out = Vec::new();
    let e14 = "e14_memory_ceiling";
    for (key, value) in section(e14).map_or(&[][..], |s| &s.0) {
        if let (true, Ok(bytes)) = (key.starts_with("plane_"), value.as_u64(key)) {
            out.push((format!("{e14} - {key}"), bytes));
        }
    }
    for name in ["e12_dynamic_workloads", "e13_scale_ceiling"] {
        let families = section(name)
            .and_then(|s| s.get("families"))
            .and_then(|f| f.as_arr("families").ok())
            .unwrap_or_default();
        for family in families.iter().filter_map(|f| f.as_obj("family").ok()) {
            let label = family.get("family").and_then(|l| l.as_str("family").ok());
            let bytes = family
                .get("plane_wheel_bytes")
                .and_then(|b| b.as_u64("bytes").ok());
            if let (Some(label), Some(bytes)) = (label, bytes) {
                out.push((format!("{name} {label} plane_wheel_bytes"), bytes));
            }
        }
    }
    out
}
