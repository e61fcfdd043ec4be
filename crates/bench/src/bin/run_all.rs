//! Regenerates every experiment table (E1–E15) in one run, exports the
//! main series as CSV under `target/experiments/`, and records the engine
//! perf trajectory as machine-readable `BENCH_engine.json`.
//!
//! `cargo run --release -p gcs-bench --bin run_all`
//!
//! It takes no argument: any argument exits 2 with the usage. All
//! scenarios come from [`gcs_bench::scenario::all_scenarios`] and print
//! as under `exp <id>`, in registry order. E14 runs first, alone: its
//! peak-RSS gate reads the process-wide high-water mark, which must be
//! E14's own. The claim
//! experiments (E1–E10) then fan out in parallel over scoped threads;
//! E11–E13 are themselves wall-clock/memory benchmarks and E15 is a
//! CPU-heavy search, so they run **alone** after the parallel batch.
//! Each experiment checks its own fail-closed gates, so a violated gate
//! panics before the JSON is written. The final phase times the engine
//! on the E1 workload (`n = 1024`) and on the E11 workload
//! (`n = 65 536`, churn on) at each worker count in {1, 2, 8} that the
//! host has CPUs for. The **batched serial engine (`threads = 1`) is the
//! baseline** every speedup is measured against.
//!
//! `BENCH_engine.json` is one [`Json`] tree written by the one writer:
//! every timed run is the same [`RunRecord`] object, next to the E15
//! outcomes and the model-check suite totals. Before the committed file
//! is replaced, [`plane_regressions`] compares the new E14 plane meters
//! and each E12/E13 family's wheel meter against it. If any grew by more
//! than 10%, or is missing from the new document, the new document goes
//! to `target/experiments/` instead, every such meter is printed, and the
//! run exits 1 — a silent memory-plane regression would otherwise hide
//! until the `n = 2^23` run stops fitting. To accept it, copy that file
//! over the committed one in a reviewed commit. A failed write also
//! exits 1.

use gcs_bench::e12_dynamic_workloads::{self as e12, FamilyOutcome};
use gcs_bench::e13_scale_ceiling as e13;
use gcs_bench::e14_memory_ceiling as e14;
use gcs_bench::e15_faults as e15;
use gcs_bench::engine_bench::{measure_threads, Workload};
use gcs_bench::record::{plane_regressions, RunRecord};
use gcs_bench::scenario::{driver_plan, print_report, run_parallel, OUTPUT_DIR};
use gcs_mc::explore::SuiteReport;
use gcs_mc::json::{Json, JsonObj};
use std::path::{Path, PathBuf};
use std::process::exit;

/// The committed trajectory, relative to the repository root.
const BENCH_FILE: &str = "BENCH_engine.json";

/// The usage error unless `args` is empty: `run_all` takes no argument.
fn parse_args(args: &[String]) -> Result<(), String> {
    if args.is_empty() {
        Ok(())
    } else {
        Err(format!("usage: run_all (takes no argument, got {args:?})"))
    }
}

/// The console trajectory line of one timed run.
fn trajectory(exp: &str, n: usize, label: &str, r: &RunRecord) {
    println!(
        "{exp:<3} n={n:>7} {label:>16}: {:>10.0} events/s  ({} events in {:.2}s, \
         setup {:.3}s, backlog {}, planes {:.1} MiB)",
        r.events_per_sec(),
        r.events(),
        r.wall_s,
        r.setup_s,
        r.telemetry.stats.peak_topology_backlog,
        r.telemetry.planes.total() as f64 / (1024.0 * 1024.0),
    );
}

/// A run entry: `head`'s fields, then the record's.
fn entry<'a>(head: impl IntoIterator<Item = (&'a str, Json)>, r: &RunRecord) -> Json {
    let head = head.into_iter().map(|(k, v)| (k.to_string(), v));
    Json::obj(head.chain(r.to_json().0))
}

/// The E1/E11 section: the workload, then one entry per worker count.
fn engines(w: &Workload, records: &[RunRecord]) -> JsonObj {
    let mut o = JsonObj::default();
    o.push(
        "workload",
        Json::obj([
            ("n", w.n.into()),
            ("churn", w.churn.into()),
            ("horizon_s", w.horizon.into()),
            ("delay", "max".into()),
            ("drift", "split".into()),
        ]),
    );
    o.push(
        "engines",
        records.iter().map(|r| entry([], r)).collect::<Json>(),
    );
    o
}

/// The E12/E13 section: one entry per family.
fn families(n: usize, outcomes: &[FamilyOutcome]) -> Json {
    let runs = outcomes
        .iter()
        .map(|o| entry([("family", o.family.into())], &o.record));
    Json::obj([("n", n.into()), ("families", runs.collect())])
}

fn e15_json(n: usize, o: &e15::Outcomes) -> Json {
    let (f, a) = (&o.fault, &o.adversary);
    let edge = format!(
        "{}-{}",
        a.attack.edge.lo().index(),
        a.attack.edge.hi().index()
    );
    Json::obj([
        ("n", n.into()),
        (
            "fault",
            Json::obj([
                ("peak_global_skew", f.peak_global.into()),
                ("final_global_skew", f.final_global.into()),
                ("recovery_s", f.recovery_s.into()),
                ("crashes", f.crashes.into()),
                ("restarts", f.restarts.into()),
                ("dropped", f.dropped.into()),
                ("delay_spiked", f.delay_spiked.into()),
            ]),
        ),
        (
            "adversary",
            Json::obj([
                ("attack_edge", edge.into()),
                ("attack_time_s", a.attack.time.into()),
                ("peak_local_skew", a.peak_local.into()),
                ("baseline_peak_local_skew", a.baseline_peak_local.into()),
                (
                    "dominates_baseline",
                    (a.peak_local >= a.baseline_peak_local).into(),
                ),
                ("evaluations", a.evaluations.into()),
            ]),
        ),
        (
            "negative_control",
            Json::obj([
                ("monitor_violations", o.control.violations.into()),
                ("tripped", (o.control.violations > 0).into()),
            ]),
        ),
    ])
}

fn suite_json(s: &SuiteReport) -> Json {
    Json::obj([
        ("n", s.n.into()),
        ("scenarios", s.reports.len().into()),
        ("states", s.states.into()),
        ("runs", s.runs.into()),
        ("max_depth", s.max_depth.into()),
        ("wall_s", s.wall_s.into()),
        ("violations", s.violations().into()),
    ])
}

fn main() {
    let t0 = std::time::Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_args(&args).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        exit(2)
    });
    let dir = Path::new(OUTPUT_DIR);
    let host_cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    // E12 at n = 2^17, E13 at n = 2^20, E14 at n = 2^23 and E15's
    // adversary search are expensive: run each outcome set once, in both
    // modes, and reuse it for both the gated report and the JSON
    // trajectory below. E14 runs and builds its gated report before
    // anything else, so the process peak RSS its report reads is its
    // own; the report prints in registry order with the solo batch.
    let e12_config = e12::Config::default();
    let e13_config = e13::Config::default();
    let e14_config = e14::Config::default();
    let e15_config = e15::Config::default();
    let e14_record = e14::run(&e14_config);
    let mut e14_report = Some(e14::report(&e14_config, &e14_record));

    // The typed execution plan: the claim batch fans out in parallel;
    // scale scenarios (themselves wall-clock/memory benchmarks) and the
    // fault family (CPU-heavy adversary search) run alone afterwards, in
    // registry order.
    let (claim_batch, solo) = driver_plan();
    println!(
        "ran E14 first; running {} claim experiments in parallel over scoped threads, \
         then {} alone...\n",
        claim_batch.len(),
        solo.iter().map(|s| s.id()).collect::<Vec<_>>().join(", ")
    );
    let reports = run_parallel(&claim_batch);
    for (s, rep) in claim_batch.iter().zip(&reports) {
        print_report(s.as_ref(), rep);
    }
    let mut e12_outcomes = None;
    let mut e13_outcomes = None;
    let mut e15_outcomes = None;
    for s in &solo {
        let rep = match s.id() {
            "E12" => e12::report(&e12_config, e12_outcomes.insert(e12::run(&e12_config))),
            "E13" => e13::report(&e13_config, e13_outcomes.insert(e13::run(&e13_config))),
            "E14" => e14_report.take().expect("the solo batch holds E14 once"),
            "E15" => e15::report(&e15_config, e15_outcomes.insert(e15::run(&e15_config))),
            _ => s.run_scenario(),
        };
        print_report(s.as_ref(), &rep);
    }
    let e12_outcomes = e12_outcomes.expect("the solo batch holds E12");
    let e13_outcomes = e13_outcomes.expect("the solo batch holds E13");
    let e15_outcomes = e15_outcomes.expect("the solo batch holds E15");

    println!("=== engine trajectory (baseline: batched serial; host_cpus = {host_cpus}) ===");
    let w1 = Workload::acceptance();
    let e1 = measure_threads(&w1, &[1], 2);
    for r in &e1 {
        trajectory("E1", w1.n, &r.engine(), r);
    }
    // Only worker counts the host has CPUs for: on fewer cores a sweep
    // point measures dispatch overhead, not speedup. Two repeats,
    // best-of: the first large-n run pays page faults for freshly
    // allocated memory, which would otherwise masquerade as a
    // thread-count effect.
    let w11 = Workload::large_scale();
    let sweep_threads: Vec<usize> = [1, 2, 8].into_iter().filter(|&t| t <= host_cpus).collect();
    let e11 = measure_threads(&w11, &sweep_threads, 2);
    for r in &e11 {
        trajectory("E11", w11.n, &r.engine(), r);
    }
    let serial = e11.iter().find(|r| r.telemetry.threads == 1);
    let best_parallel = e11
        .iter()
        .filter(|r| r.telemetry.threads > 1)
        .map(RunRecord::events_per_sec)
        .max_by(f64::total_cmp);
    let speedup = serial
        .zip(best_parallel)
        .map(|(s, p)| p / s.events_per_sec());
    for o in &e12_outcomes {
        trajectory("E12", e12_config.n, o.family, &o.record);
    }
    for o in &e13_outcomes {
        trajectory("E13", e13_config.n, o.family, &o.record);
    }
    trajectory("E14", e14_config.n, "compact plane", &e14_record);
    println!(
        "E15 n={:>7} {:>16}: adversary peak local {:.2} (baseline {:.2}), {} crashes/{} restarts, control violations {}",
        e15_config.n,
        "fault+adversary",
        e15_outcomes.adversary.peak_local,
        e15_outcomes.adversary.baseline_peak_local,
        e15_outcomes.fault.crashes,
        e15_outcomes.fault.restarts,
        e15_outcomes.control.violations
    );
    let mc_suites: Vec<_> = (2..=4).map(gcs_mc::explore::explore_suite).collect();
    for s in &mc_suites {
        println!(
            "MC  n={:>7} {:>16}: {:>10} states  ({} runs over {} scenarios, max depth {}, {:.2}s, {} violations)",
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

    let mut e11_section = engines(&w11, &e11);
    e11_section.push("best_parallel_speedup_vs_serial", speedup);
    let doc = Json::obj([
        ("schema", "bench-engine/v11".into()),
        ("generated_by", "gcs-bench run_all".into()),
        (
            "baseline",
            "batched-serial (threads = 1); the pre-rewrite heap engine was deleted \
             after its equivalence history"
                .into(),
        ),
        ("host_cpus", host_cpus.into()),
        ("peak_rss_bytes", gcs_analysis::peak_rss_bytes().into()),
        ("e1_n1024", engines(&w1, &e1).into()),
        ("e11_large_scale", e11_section.into()),
        (
            "e12_dynamic_workloads",
            families(e12_config.n, &e12_outcomes),
        ),
        ("e13_scale_ceiling", families(e13_config.n, &e13_outcomes)),
        (
            "e14_memory_ceiling",
            entry([("n", e14_config.n.into())], &e14_record),
        ),
        ("e15_faults", e15_json(e15_config.n, &e15_outcomes)),
        (
            "model_check",
            Json::obj([("suites", mc_suites.iter().map(suite_json).collect())]),
        ),
    ]);

    // The memory gate: compare against the committed file before
    // replacing it; on a regression (or an unreadable committed file)
    // the new document goes to `target/experiments/` instead.
    let problems = match std::fs::read_to_string(BENCH_FILE) {
        Ok(committed) => match Json::parse(&committed) {
            Ok(committed) => plane_regressions(&committed, &doc),
            Err(e) => vec![format!("the committed {BENCH_FILE} does not parse: {e}")],
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => vec![format!("could not read the committed {BENCH_FILE}: {e}")],
    };
    let path = if problems.is_empty() {
        PathBuf::from(BENCH_FILE)
    } else {
        let _ = std::fs::create_dir_all(dir);
        dir.join(BENCH_FILE)
    };
    if let Err(e) = std::fs::write(&path, doc.write(usize::MAX)) {
        eprintln!("error: could not write {}: {e}", path.display());
        exit(1);
    }
    println!("wrote {}", path.display());
    if !problems.is_empty() {
        eprintln!("\nerror: {BENCH_FILE} left as committed; the memory gate failed:");
        for problem in &problems {
            eprintln!("  {problem}");
        }
        eprintln!(
            "to accept, copy {} over {BENCH_FILE} in a reviewed commit",
            path.display()
        );
        exit(1);
    }
    println!(
        "\ndone in {:.1}s; CSV series in {}",
        t0.elapsed().as_secs_f64(),
        dir.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn takes_no_argument() {
        assert_eq!(parse_args(&args(&[])), Ok(()));
        for bad in [&["--engine-only"][..], &["E1", "E2"], &["E1"], &[""]] {
            let usage = parse_args(&args(bad)).expect_err("must be rejected");
            assert!(usage.starts_with("usage: run_all"), "{usage}");
        }
    }
}
