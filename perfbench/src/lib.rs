//! The repository benchmark: four workloads driven through the
//! workspace crates' public API, timed end to end with tracing off, and
//! broken down per layer in a separate traced run. See `README.md` in
//! this directory for the workloads, the metrics and what each metric is
//! meant to judge.

#![forbid(unsafe_code)]

pub mod reference;
pub mod trace;
pub mod workload;

/// Per-layer metrics, in the order BENCHMARK.json lists them. A traced
/// run prints every one of them; layers a workload does not use read 0.
pub const PER_LAYER: &[&str] = &[
    "net.pull_s",
    "net.pull_calls",
    "net.events_pulled",
    "net.initial_edges_s",
    "net.schedule_build_s",
    "clocks.drift_s",
    "clocks.read_calls",
    "clocks.fire_calls",
    "clocks.segments_opened",
    "clocks.cursor_inits",
    "core.start_s",
    "core.handler_s",
    "core.handler_s.lane0",
    "core.handler_s.lane1",
    "core.start_calls",
    "core.receive_calls",
    "core.alarm_calls",
    "core.discover_calls",
    "core.pack_calls",
    "core.unpack_calls",
    "sim.build_self_s",
    "sim.run_self_s",
    "sim.topology_apply_s",
    "sim.evict_s",
    "sim.events",
    "sim.messages_delivered",
    "sim.alarms_fired",
    "sim.alarms_stale",
    "sim.alarm_useful_ratio",
    "sim.discovers_stale",
    "sim.topology_batches",
    "sim.peak_batch_len",
    "sim.peak_topology_backlog",
    "sim.peak_staged_events",
    "sim.segments_parallel",
    "sim.segments_inline",
    "sim.evictions",
    "sim.rehydrations",
    "sim.node_state_watermark",
    "sim.drift_cursors",
    "sim.peak_pending_deliver",
    "sim.peak_pending_alarm",
    "sim.peak_pending_topology",
    "sim.plane.topology_bytes",
    "sim.plane.drift_bytes",
    "sim.plane.automaton_hot_bytes",
    "sim.plane.automaton_cold_bytes",
    "sim.plane.wheel_bytes",
    "sim.plane.staging_bytes",
    "sim.plane.dispatch_scratch_bytes",
    "analysis.observe_s",
    "analysis.observe_calls",
    "analysis.touched_nodes",
    "mc.states",
    "mc.runs",
    "mc.max_depth",
    "mc.states_per_run",
    "mc.self_s",
    "trace.overhead_s",
];

/// Unit of a metric, derived from its name.
pub fn unit(metric: &str) -> &'static str {
    if metric.ends_with("_per_s") {
        "1/s"
    } else if metric.ends_with("_s") || metric.contains("_s.") {
        "s"
    } else if metric.ends_with("_bytes") {
        "bytes"
    } else if metric.ends_with("_mib") {
        "MiB"
    } else if metric.ends_with("ratio") || metric.ends_with("per_run") {
        "ratio"
    } else {
        "count"
    }
}
