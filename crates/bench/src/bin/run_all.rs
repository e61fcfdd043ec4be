//! Regenerates every experiment table (E1–E15) in one run, exports the
//! main series as CSV under `target/experiments/`, and records the engine
//! perf trajectory as machine-readable `BENCH_engine.json`.
//!
//! `cargo run --release -p gcs-bench --bin run_all`
//! `cargo run --release -p gcs-bench --bin run_all -- --engine-only`
//!
//! All scenarios come from [`gcs_bench::scenario::all_scenarios`]. E1–E10
//! are fanned out in parallel over scoped threads; E11–E14 are themselves
//! wall-clock/memory benchmarks, so they run **alone** after the parallel
//! batch. The final phase times the engine on the E1 workload
//! (`n = 1024`, continuity with the PR 2 numbers) and on the E11 workload
//! (`n = 65 536`, churn on) at worker counts {1, 2, 8}.
//!
//! Before overwriting a committed `BENCH_engine.json`, the run compares
//! the new E14 per-plane byte meters — plus the per-family E12/E13
//! wheel-plane meters, where churn backlogs make the packed event plane
//! the largest plane — against the recorded ones and warns loudly when
//! any meter grew by more than 10% — a silent memory-plane regression
//! would otherwise hide until the `n = 2^23` run stops fitting.
//!
//! With the frozen pre-rewrite engine deleted, the **batched serial
//! engine (`threads = 1`) is the baseline** every speedup is measured
//! against. `host_cpus` records how much hardware parallelism the
//! recording machine actually had; when it is 1 the JSON carries
//! `"thread_sweep_valid": false` and the run prints a loud warning —
//! single-core thread-sweep numbers measure dispatch overhead, not
//! speedup, and must not be read against the scaling target.

use gcs_bench::engine_bench::{measure_threads, Measurement, Workload};
use gcs_bench::scenario::{driver_plan, run_parallel, Scenario};
use std::io::Write;

fn mc_entry(s: &gcs_mc::explore::SuiteReport) -> String {
    format!(
        "    {{\n      \"n\": {},\n      \"scenarios\": {},\n      \"states\": {},\n      \"runs\": {},\n      \"max_depth\": {},\n      \"wall_s\": {:.6},\n      \"violations\": {}\n    }}",
        s.n,
        s.reports.len(),
        s.states,
        s.runs,
        s.max_depth,
        s.wall_s,
        s.violations()
    )
}

fn csv_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from("target/experiments");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

fn entry(m: &Measurement) -> String {
    format!(
        "    {{\n      \"engine\": \"{}\",\n      \"threads\": {},\n      \"events\": {},\n      \"setup_s\": {:.6},\n      \"wall_s\": {:.6},\n      \"events_per_sec\": {:.1},\n      \"peak_topology_backlog\": {},\n      \"topology_apply_s\": {:.6},\n      \"segments_parallel\": {}\n    }}",
        m.engine,
        m.threads,
        m.events,
        m.setup_s,
        m.wall_s,
        m.events_per_sec,
        m.peak_topology_backlog,
        m.topology_apply_s,
        m.segments_parallel
    )
}

fn e12_entry(o: &gcs_bench::e12_dynamic_workloads::FamilyOutcome) -> String {
    format!(
        "    {{\n      \"family\": \"{}\",\n      \"events\": {},\n      \"setup_s\": {:.6},\n      \"wall_s\": {:.6},\n      \"events_per_sec\": {:.1},\n      \"topology_events\": {},\n      \"peak_topology_backlog\": {},\n      \"wheel_staged_events\": {},\n      \"peak_pending_deliver\": {},\n      \"peak_pending_alarm\": {},\n      \"peak_pending_topology\": {},\n      \"plane_wheel_bytes\": {},\n      \"plane_staging_bytes\": {},\n      \"current_rss_bytes\": {}\n    }}",
        o.family,
        o.events,
        o.setup_s,
        o.wall_s,
        o.events_per_sec,
        o.stats.topology_events,
        o.stats.peak_topology_backlog,
        o.stats.peak_staged_events,
        o.pending_peaks[2],
        o.pending_peaks[3],
        o.pending_peaks[0],
        o.wheel_plane_bytes,
        o.staging_plane_bytes,
        json_opt_u64(o.current_rss_bytes)
    )
}

fn e13_entry(o: &gcs_bench::e13_scale_ceiling::FamilyOutcome) -> String {
    format!(
        "    {{\n      \"family\": \"{}\",\n      \"events\": {},\n      \"setup_s\": {:.6},\n      \"wall_s\": {:.6},\n      \"topology_apply_s\": {:.6},\n      \"events_per_sec\": {:.1},\n      \"topology_events\": {},\n      \"peak_topology_backlog\": {},\n      \"wheel_staged_events\": {},\n      \"peak_pending_deliver\": {},\n      \"peak_pending_alarm\": {},\n      \"peak_pending_topology\": {},\n      \"plane_wheel_bytes\": {},\n      \"plane_staging_bytes\": {},\n      \"drift_cursors\": {},\n      \"node_state_watermark\": {},\n      \"rng_streams\": {},\n      \"current_rss_bytes\": {}\n    }}",
        o.family,
        o.events,
        o.setup_s,
        o.wall_s,
        o.topology_apply_s,
        o.events_per_sec,
        o.stats.topology_events,
        o.stats.peak_topology_backlog,
        o.stats.peak_staged_events,
        o.pending_peaks[2],
        o.pending_peaks[3],
        o.pending_peaks[0],
        o.wheel_plane_bytes,
        o.staging_plane_bytes,
        o.drift_cursors,
        o.node_state_watermark,
        o.rng_streams,
        json_opt_u64(o.current_rss_bytes)
    )
}

fn e14_entry(n: usize, o: &gcs_bench::e14_memory_ceiling::Outcome) -> String {
    format!(
        "  \"e14_memory_ceiling\": {{\n  \"n\": {},\n  \"events\": {},\n  \"setup_s\": {:.6},\n  \"wall_s\": {:.6},\n  \"events_per_sec\": {:.1},\n  \"evictions\": {},\n  \"rehydrations\": {},\n  \"cold_nodes\": {},\n  \"cold_bytes\": {},\n  \"node_state_watermark\": {},\n  \"drift_cursors\": {},\n  \"wheel_staged_events\": {},\n  \"peak_pending_deliver\": {},\n  \"peak_pending_alarm\": {},\n  \"peak_pending_topology\": {},\n  \"plane_topology_bytes\": {},\n  \"plane_drift_bytes\": {},\n  \"plane_automaton_hot_bytes\": {},\n  \"plane_automaton_cold_bytes\": {},\n  \"plane_wheel_bytes\": {},\n  \"plane_staging_bytes\": {},\n  \"plane_dispatch_scratch_bytes\": {},\n  \"current_rss_bytes\": {}\n  }}",
        n,
        o.events,
        o.setup_s,
        o.wall_s,
        o.events_per_sec,
        o.evictions,
        o.rehydrations,
        o.cold_nodes,
        o.cold_bytes,
        o.node_state_watermark,
        o.drift_cursors,
        o.stats.peak_staged_events,
        o.pending_peaks[2],
        o.pending_peaks[3],
        o.pending_peaks[0],
        o.planes.topology,
        o.planes.drift,
        o.planes.automaton_hot,
        o.planes.automaton_cold,
        o.planes.wheel,
        o.planes.staging,
        o.planes.dispatch_scratch,
        json_opt_u64(o.current_rss_bytes)
    )
}

/// A byte/count meter from a committed `BENCH_engine.json`, keyed by
/// JSON field name and scoped to the first occurrence **after**
/// `anchor` — the same field name now appears in the E12, E13 and E14
/// sections, so an unanchored lookup would read the wrong experiment.
/// Hand-rolled extraction (the file is written by this binary,
/// field-per-line) — no JSON dependency needed.
fn committed_bytes_after(json: &str, anchor: &str, key: &str) -> Option<usize> {
    let from = json.find(anchor)? + anchor.len();
    let needle = format!("\"{key}\":");
    let at = from + json[from..].find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Warns loudly when any E14 plane meter grew >10% over the committed
/// recording. Purely advisory — recording continues either way.
fn warn_on_plane_regressions(committed: &str, planes: &gcs_sim::PlaneBytes) {
    let meters = [
        ("plane_topology_bytes", planes.topology),
        ("plane_drift_bytes", planes.drift),
        ("plane_automaton_hot_bytes", planes.automaton_hot),
        ("plane_automaton_cold_bytes", planes.automaton_cold),
        ("plane_wheel_bytes", planes.wheel),
        ("plane_staging_bytes", planes.staging),
        ("plane_dispatch_scratch_bytes", planes.dispatch_scratch),
    ];
    for (key, now) in meters {
        let Some(was) = committed_bytes_after(committed, "\"e14_memory_ceiling\"", key) else {
            continue;
        };
        warn_on_meter_regression("E14", key, was, now);
    }
}

/// Warns loudly when a per-family E12/E13 wheel-plane meter grew >10%
/// over the committed recording — the packed event plane is the largest
/// plane under churn backlogs, and a silent regression there would hide
/// until the next full-scale recording. Purely advisory.
fn warn_on_wheel_regressions(
    committed: &str,
    e12: &[gcs_bench::e12_dynamic_workloads::FamilyOutcome],
    e13: &[gcs_bench::e13_scale_ceiling::FamilyOutcome],
) {
    let meters = e12
        .iter()
        .map(|o| ("E12", o.family, o.wheel_plane_bytes))
        .chain(e13.iter().map(|o| ("E13", o.family, o.wheel_plane_bytes)));
    for (exp, family, now) in meters {
        let anchor = format!("\"family\": \"{family}\"");
        let Some(was) = committed_bytes_after(committed, &anchor, "plane_wheel_bytes") else {
            continue;
        };
        warn_on_meter_regression(&format!("{exp} {family}"), "plane_wheel_bytes", was, now);
    }
}

fn warn_on_meter_regression(scope: &str, key: &str, was: usize, now: usize) {
    if was > 0 && now as f64 > was as f64 * 1.10 {
        eprintln!(
            "\nWARNING: {scope} {key} regressed {} -> {} bytes (+{:.1}%) vs the committed\n\
             BENCH_engine.json — a memory-plane regression; investigate before recording.\n",
            was,
            now,
            (now as f64 / was as f64 - 1.0) * 100.0
        );
    }
}

fn json_opt_u64(v: Option<u64>) -> String {
    v.map(|b| b.to_string())
        .unwrap_or_else(|| "null".to_string())
}

fn e15_section(n: usize, o: &gcs_bench::e15_faults::Outcomes) -> String {
    format!(
        "  \"e15_faults\": {{\n  \"n\": {},\n  \"fault\": {{\n    \"peak_global_skew\": {:.4},\n    \"final_global_skew\": {:.4},\n    \"recovery_s\": {},\n    \"crashes\": {},\n    \"restarts\": {},\n    \"dropped\": {},\n    \"delay_spiked\": {}\n  }},\n  \"adversary\": {{\n    \"attack_edge\": \"{}-{}\",\n    \"attack_time_s\": {:.3},\n    \"peak_local_skew\": {:.4},\n    \"baseline_peak_local_skew\": {:.4},\n    \"dominates_baseline\": {},\n    \"evaluations\": {}\n  }},\n  \"negative_control\": {{\n    \"monitor_violations\": {},\n    \"tripped\": {}\n  }}\n  }}",
        n,
        o.fault.peak_global,
        o.fault.final_global,
        o.fault
            .recovery_s
            .map(|s| format!("{s:.1}"))
            .unwrap_or_else(|| "null".to_string()),
        o.fault.crashes,
        o.fault.restarts,
        o.fault.dropped,
        o.fault.delay_spiked,
        o.adversary.attack.edge.lo().index(),
        o.adversary.attack.edge.hi().index(),
        o.adversary.attack.time,
        o.adversary.peak_local,
        o.adversary.baseline_peak_local,
        o.adversary.peak_local >= o.adversary.baseline_peak_local,
        o.adversary.evaluations,
        o.control.violations,
        o.control.violations > 0,
    )
}

#[allow(clippy::too_many_arguments)]
fn engine_json(
    host_cpus: usize,
    e1: &(Workload, Measurement),
    e11: &(Workload, Vec<Measurement>),
    e12: &[gcs_bench::e12_dynamic_workloads::FamilyOutcome],
    e12_n: usize,
    e13: &[gcs_bench::e13_scale_ceiling::FamilyOutcome],
    e13_n: usize,
    e14: &gcs_bench::e14_memory_ceiling::Outcome,
    e14_n: usize,
    e15: &gcs_bench::e15_faults::Outcomes,
    e15_n: usize,
    mc: &[gcs_mc::explore::SuiteReport],
    peak_rss_bytes: Option<u64>,
) -> String {
    let workload = |w: &Workload| {
        format!(
            "  \"workload\": {{\n    \"n\": {},\n    \"churn\": {},\n    \"horizon_s\": {:.1},\n    \"delay\": \"max\",\n    \"drift\": \"split\"\n  }}",
            w.n, w.churn, w.horizon
        )
    };
    let e11_entries: Vec<String> = e11.1.iter().map(entry).collect();
    let serial = e11.1.iter().find(|m| m.threads == 1);
    let best_parallel = e11
        .1
        .iter()
        .filter(|m| m.threads > 1)
        .max_by(|a, b| a.events_per_sec.total_cmp(&b.events_per_sec));
    let speedup = match (serial, best_parallel) {
        (Some(s), Some(p)) => p.events_per_sec / s.events_per_sec,
        _ => 1.0,
    };
    let thread_sweep_valid = host_cpus > 1;
    let e12_entries: Vec<String> = e12.iter().map(e12_entry).collect();
    let e13_entries: Vec<String> = e13.iter().map(e13_entry).collect();
    let mc_entries: Vec<String> = mc.iter().map(mc_entry).collect();
    format!(
        "{{\n  \"schema\": \"bench-engine/v9\",\n  \"generated_by\": \"gcs-bench run_all\",\n  \"baseline\": \"batched-serial (threads = 1); the pre-rewrite heap engine was deleted after its equivalence history\",\n  \"host_cpus\": {host_cpus},\n  \"thread_sweep_valid\": {thread_sweep_valid},\n  \"peak_rss_bytes\": {},\n  \"e1_n1024\": {{\n  {},\n  \"engines\": [\n{}\n  ]\n  }},\n  \"e11_large_scale\": {{\n  {},\n  \"engines\": [\n{}\n  ],\n  \"best_parallel_speedup_vs_serial\": {:.3}\n  }},\n  \"e12_dynamic_workloads\": {{\n  \"n\": {},\n  \"families\": [\n{}\n  ]\n  }},\n  \"e13_scale_ceiling\": {{\n  \"n\": {},\n  \"families\": [\n{}\n  ]\n  }},\n{},\n{},\n  \"model_check\": {{\n  \"suites\": [\n{}\n  ]\n  }}\n}}\n",
        json_opt_u64(peak_rss_bytes),
        workload(&e1.0),
        entry(&e1.1),
        workload(&e11.0),
        e11_entries.join(",\n"),
        speedup,
        e12_n,
        e12_entries.join(",\n"),
        e13_n,
        e13_entries.join(",\n"),
        e14_entry(e14_n, e14),
        e15_section(e15_n, e15),
        mc_entries.join(",\n"),
    )
}

fn print_report(
    s: &dyn Scenario,
    rep: &gcs_bench::scenario::ScenarioReport,
    dir: &std::path::Path,
) {
    println!("=== {} / {} ===", s.id(), s.claim());
    rep.print();
    if let Err(e) = rep.write_csv(dir) {
        eprintln!("warning: could not write CSV for {}: {e}", s.id());
    }
    println!();
}

fn main() {
    let t0 = std::time::Instant::now();
    let engine_only = std::env::args().any(|a| a == "--engine-only");
    let dir = csv_dir();

    let host_cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    if host_cpus == 1 {
        eprintln!(
            "\nWARNING: host_cpus = 1 — the thread sweep below measures DISPATCH OVERHEAD,\n\
             not parallel speedup. BENCH_engine.json will carry \"thread_sweep_valid\": false;\n\
             re-record on a multi-core host before reading any speedup number.\n"
        );
    }

    // E12–E15 run in both modes: their outcomes feed the JSON
    // trajectory.
    let e12_config = gcs_bench::e12_dynamic_workloads::Config::default();
    let e13_config = gcs_bench::e13_scale_ceiling::Config::default();
    let e14_config = gcs_bench::e14_memory_ceiling::Config::scaled_to(
        gcs_bench::engine_bench::smoke_n(gcs_bench::e14_memory_ceiling::Config::default().n),
    );
    let e15_config = gcs_bench::e15_faults::Config::default();

    let mut e12_outcomes = None;
    let mut e13_outcomes = None;
    let mut e14_outcome = None;
    let mut e15_outcomes = None;
    if !engine_only {
        // The typed execution plan: the claim batch fans out in
        // parallel; scale scenarios (themselves wall-clock/memory
        // benchmarks) and the fault family (CPU-heavy adversary search)
        // run alone afterwards, in registry order.
        let (claim_batch, solo) = driver_plan();
        println!(
            "running {} claim experiments in parallel over scoped threads, then {} alone...\n",
            claim_batch.len(),
            solo.iter().map(|s| s.id()).collect::<Vec<_>>().join(", ")
        );
        let reports = run_parallel(&claim_batch);
        for (s, rep) in claim_batch.iter().zip(&reports) {
            print_report(s.as_ref(), rep, &dir);
        }
        // E12 at n = 2^17, E13 at n = 2^20, E14 at n = 2^23 and E15's
        // adversary search are expensive: run each outcome set once and
        // reuse it for both the report and the JSON trajectory below.
        for s in &solo {
            match s.meta().name {
                "E12" => {
                    let outcomes = gcs_bench::e12_dynamic_workloads::run(&e12_config);
                    print_report(
                        s.as_ref(),
                        &gcs_bench::e12_dynamic_workloads::report(&e12_config, &outcomes),
                        &dir,
                    );
                    e12_outcomes = Some(outcomes);
                }
                "E13" => {
                    let outcomes = gcs_bench::e13_scale_ceiling::run(&e13_config);
                    print_report(
                        s.as_ref(),
                        &gcs_bench::e13_scale_ceiling::report(&e13_config, &outcomes),
                        &dir,
                    );
                    e13_outcomes = Some(outcomes);
                }
                "E14" => {
                    let outcome = gcs_bench::e14_memory_ceiling::run(&e14_config);
                    print_report(
                        s.as_ref(),
                        &gcs_bench::e14_memory_ceiling::report(&e14_config, &outcome),
                        &dir,
                    );
                    e14_outcome = Some(outcome);
                }
                "E15" => {
                    let outcomes = gcs_bench::e15_faults::run(&e15_config);
                    print_report(
                        s.as_ref(),
                        &gcs_bench::e15_faults::report(&e15_config, &outcomes),
                        &dir,
                    );
                    e15_outcomes = Some(outcomes);
                }
                _ => print_report(s.as_ref(), &s.run_scenario(), &dir),
            }
        }
    }

    println!("=== engine trajectory (baseline: batched serial; host_cpus = {host_cpus}) ===");
    let w1 = Workload::acceptance();
    let m1 = measure_threads(&w1, &[1], 2).remove(0);
    println!(
        "E1  n={:>6} {:>16}: {:>10.0} events/s  ({} events in {:.2}s, setup {:.3}s)",
        w1.n, m1.engine, m1.events_per_sec, m1.events, m1.wall_s, m1.setup_s
    );
    let w11 = Workload::large_scale();
    // Two repeats, best-of: the first large-n run pays page faults for
    // freshly allocated memory, which would otherwise masquerade as a
    // thread-count effect.
    let sweep = measure_threads(&w11, &[1, 2, 8], 2);
    for m in &sweep {
        println!(
            "E11 n={:>6} {:>16}: {:>10.0} events/s  ({} events in {:.2}s, setup {:.3}s, backlog {})",
            w11.n, m.engine, m.events_per_sec, m.events, m.wall_s, m.setup_s, m.peak_topology_backlog
        );
    }
    // The E12 streaming families, timed once each for the trajectory.
    let e12_for_json = e12_outcomes
        .take()
        .unwrap_or_else(|| gcs_bench::e12_dynamic_workloads::run(&e12_config));
    for o in &e12_for_json {
        println!(
            "E12 n={:>6} {:>16}: {:>10.0} events/s  ({} events in {:.2}s, setup {:.3}s, backlog {})",
            e12_config.n,
            o.family,
            o.events_per_sec,
            o.events,
            o.wall_s,
            o.setup_s,
            o.stats.peak_topology_backlog
        );
    }
    // The E13 scale-ceiling families on the lazy clock plane.
    let e13_for_json = e13_outcomes
        .take()
        .unwrap_or_else(|| gcs_bench::e13_scale_ceiling::run(&e13_config));
    for o in &e13_for_json {
        println!(
            "E13 n={:>7} {:>16}: {:>10.0} events/s  ({} events in {:.2}s, setup {:.3}s, {} cursors / {} touched)",
            e13_config.n,
            o.family,
            o.events_per_sec,
            o.events,
            o.wall_s,
            o.setup_s,
            o.drift_cursors,
            o.node_state_watermark
        );
    }
    // The E14 compact-automaton-plane census at the memory ceiling.
    let e14_for_json = e14_outcome
        .take()
        .unwrap_or_else(|| gcs_bench::e14_memory_ceiling::run(&e14_config));
    println!(
        "E14 n={:>7} {:>16}: {:>10.0} events/s  ({} events in {:.2}s, {} evicted / {} rehydrated, planes {})",
        e14_config.n,
        "compact plane",
        e14_for_json.events_per_sec,
        e14_for_json.events,
        e14_for_json.wall_s,
        e14_for_json.evictions,
        e14_for_json.rehydrations,
        gcs_analysis::mem::fmt_planes(&e14_for_json.planes)
    );
    // The E15 fault/adversary outcomes for the trajectory.
    let e15_for_json = e15_outcomes
        .take()
        .unwrap_or_else(|| gcs_bench::e15_faults::run(&e15_config));
    println!(
        "E15 n={:>6} {:>16}: adversary peak local {:.2} (baseline {:.2}), {} crashes/{} restarts, control violations {}",
        e15_config.n,
        "fault+adversary",
        e15_for_json.adversary.peak_local,
        e15_for_json.adversary.baseline_peak_local,
        e15_for_json.fault.crashes,
        e15_for_json.fault.restarts,
        e15_for_json.control.violations
    );
    // The bounded model-check suites, for the trajectory.
    let mc_suites: Vec<_> = (2..=4).map(gcs_mc::explore::explore_suite).collect();
    for s in &mc_suites {
        println!(
            "MC  n={:>6} {:>16}: {:>10} states  ({} runs over {} scenarios, max depth {}, {:.2}s, {} violations)",
            s.n,
            "explorer",
            s.states,
            s.runs,
            s.reports.len(),
            s.max_depth,
            s.wall_s,
            s.violations()
        );
    }
    let json = engine_json(
        host_cpus,
        &(w1, m1),
        &(w11, sweep),
        &e12_for_json,
        e12_config.n,
        &e13_for_json,
        e13_config.n,
        &e14_for_json,
        e14_config.n,
        &e15_for_json,
        e15_config.n,
        &mc_suites,
        gcs_analysis::peak_rss_bytes(),
    );
    if let Ok(committed) = std::fs::read_to_string("BENCH_engine.json") {
        warn_on_plane_regressions(&committed, &e14_for_json.planes);
        warn_on_wheel_regressions(&committed, &e12_for_json, &e13_for_json);
    }
    match std::fs::File::create("BENCH_engine.json").and_then(|mut f| f.write_all(json.as_bytes()))
    {
        Ok(()) => println!("wrote BENCH_engine.json"),
        Err(e) => eprintln!("warning: could not write BENCH_engine.json: {e}"),
    }
    if host_cpus == 1 {
        eprintln!(
            "WARNING: recorded with host_cpus = 1 (thread_sweep_valid = false) — \
             speedup columns are dispatch overhead only."
        );
    }

    println!(
        "\ndone in {:.1}s; CSV series in {}",
        t0.elapsed().as_secs_f64(),
        dir.display()
    );
}
