//! Command-line entry of the repository benchmark.
//!
//! ```text
//! perfbench --workload <churn|steady|sparse|modelcheck> [--seed <u64>]
//!           [--seconds <1..=600>] [--trace <0|1>]
//! ```
//!
//! Repeats the workload (a fresh simulator each time) until `--seconds`
//! have passed, checks every repetition's simulated outcome, and prints
//! as its last line one JSON object: the end-to-end metrics (`run_s` of
//! the fastest repetition, the median `setup_s`) with `--trace 0`, the
//! per-layer metrics with `--trace 1`.
//! Exits 1 when a correctness check failed and 2 on bad input.

use gcs_perfbench::workload::{self, Config, Outcome, Workload};
use gcs_perfbench::{reference, unit, PER_LAYER};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Environment variables that would silently change what is measured
/// (worker count, parallel threshold, experiment width).
const REFUSED_ENV: [&str; 3] = ["GCS_SIM_THREADS", "GCS_SIM_PAR_MIN", "GCS_SMOKE_N"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!("unknown workload {value:?} (churn, steady, sparse, modelcheck)")
                })?)
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value:?} is not an unsigned integer"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| {
                        format!("--seconds {value:?} is not a whole number in 1..=600")
                    })?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The fastest of `values`. On a virtual machine whose memory system is
/// shared with other tenants, their load comes and goes in stretches of
/// seconds and slows memory-heavy repetitions by up to two thirds; the
/// fastest repetition tracks the uncontended speed, where the median
/// flips between the two regimes (see README.md).
fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The median of `values`. Set-up time is dominated by allocation and
/// page faults rather than by contended cache misses, and its median is
/// the steadier figure.
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn json_metrics(metrics: &[(&str, f64)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                unit(name)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Prints the reported traced repetition's per-layer figures. Within a
/// phase the leader's self times add up to the measured total:
/// `setup_s` = net.schedule_build + net.initial_edges + core.start +
/// the setup share of clocks.drift + sim.build_self, and `run_s` = the
/// leader's run-phase spans + sim.topology_apply + sim.run_self.
fn print_breakdown(o: &Outcome, overhead_s: f64) {
    let Some(m) = &o.layers else { return };
    println!(
        "traced repetition: setup_s {:.6}, run_s {:.6}",
        o.setup_s, o.run_s
    );
    for (name, value) in m {
        println!("  {name:<36} {value:>18.6} {}", unit(name));
    }
    println!(
        "  trace.overhead_s {overhead_s:>27.6} s (this run_s minus the fastest untraced run_s)"
    );
}

fn run() -> Result<bool, String> {
    for var in REFUSED_ENV {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "refusing to run: {var} is set, and it would change what is measured; unset it"
            ));
        }
    }
    let args = parse_args()?;
    let config = Config::standard(args.workload, args.seed);
    let expected = reference::lookup(args.workload, args.seed);
    // One untimed repetition first, so every timed one starts from the
    // same warm heap instead of the first paying for faulting in fresh
    // pages. Model checking needs little memory and skips it. Its outcome
    // is checked like the others.
    let warmup: Vec<Outcome> = match args.workload {
        Workload::ModelCheck => Vec::new(),
        _ => vec![workload::run(&config, false)],
    };
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut plain: Vec<Outcome> = Vec::new();
    let mut traced: Vec<Outcome> = Vec::new();
    loop {
        plain.push(workload::run(&config, false));
        if args.trace {
            traced.push(workload::run(&config, true));
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    let reference = expected.unwrap_or(warmup.first().unwrap_or(&plain[0]).fingerprint);
    match expected {
        Some(_) => println!("checking against the recorded reference for this seed"),
        None => println!(
            "no recorded reference for seed {}: checking repetitions against each other",
            args.seed
        ),
    }
    println!(
        "fingerprint: {} {} {}",
        args.workload.name(),
        args.seed,
        plain[0].fingerprint
    );
    let mut failed = 0u64;
    for (i, o) in warmup.iter().chain(&plain).chain(&traced).enumerate() {
        println!(
            "rep {i}: setup_s {:.6} run_s {:.6} work {} traced {}",
            o.setup_s,
            o.run_s,
            o.work,
            o.layers.is_some()
        );
        let mut problems = o.violations.clone();
        if o.fingerprint != reference {
            problems.push(format!(
                "fingerprint {} differs from the reference {reference}",
                o.fingerprint
            ));
        }
        if !problems.is_empty() {
            failed += 1;
            for p in problems {
                eprintln!("perfbench: rep {i} failed: {p}");
            }
        }
    }

    let run_times: Vec<f64> = plain.iter().map(|o| o.run_s).collect();
    let run_s = fastest(&run_times);
    println!(
        "untraced run_s over {} repetitions: fastest {run_s:.6}, median {:.6}",
        run_times.len(),
        median(run_times.clone())
    );
    let metrics: Vec<(&str, f64)> = if args.trace {
        // Every per-layer figure comes from one traced repetition, the
        // fastest, so its spans add up.
        let rep = traced
            .iter()
            .min_by(|a, b| a.run_s.total_cmp(&b.run_s))
            .expect("at least one traced repetition");
        let overhead_s = rep.run_s - run_s;
        print_breakdown(rep, overhead_s);
        let layers = rep
            .layers
            .as_ref()
            .expect("traced repetitions carry layers");
        PER_LAYER
            .iter()
            .map(|&name| match name {
                "trace.overhead_s" => (name, overhead_s),
                _ => (name, layers.get(name).copied().unwrap_or(0.0)),
            })
            .collect()
    } else {
        let peak_rss = gcs_analysis::peak_rss_bytes().ok_or("VmHWM is not readable")?;
        let work = plain[0].work as f64;
        vec![
            ("setup_s", median(plain.iter().map(|o| o.setup_s).collect())),
            ("run_s", run_s),
            ("throughput_per_s", work / run_s),
            ("peak_rss_mib", peak_rss as f64 / (1024.0 * 1024.0)),
        ]
    };
    let attempted = (warmup.len() + plain.len() + traced.len()) as u64;
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        json_metrics(&metrics)
    );
    Ok(failed == 0)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(2)
        }
    }
}
