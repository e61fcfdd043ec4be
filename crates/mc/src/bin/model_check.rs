//! Fail-closed model-check driver for CI.
//!
//! Runs, in order:
//!
//! 1. the bounded exhaustive explorer over the full scenario suites at
//!    `n = 2, 3, 4`, writing any counterexample to
//!    `target/mc/<scenario>.itf.json` and exiting non-zero — also when a
//!    suite's totals differ from the recorded ones in [`RECORDED`], or an
//!    `n = 4` scenario's from [`RECORDED_N4`];
//! 2. the mutation smoke test — every seeded mutant must be caught and
//!    the unmutated control must pass (a checker that stops rejecting
//!    mutants fails the build, not just the mutant);
//! 3. a trace-replay round trip — an explorer-exported trace must parse
//!    back from JSON and replay through the real engine bit-identically
//!    at 1 and 8 worker threads;
//! 4. a bounded randomized fuzz batch over the same oracle.
//!
//! Prints one summary line per stage (states, runs, max depth, wall
//! time).

use gcs_core::GradientNode;
use gcs_mc::mutant::{smoke_run, Mutation};
use gcs_mc::{explore, fuzz, replay_trace, Trace};
use std::io::Write as _;
use std::time::Instant;

/// The recorded `(n, states, runs, max depth)` of every explored suite.
/// Exploration is deterministic, so a suite that explores anything else
/// has changed the model, the explorer or the automaton, and fails.
const RECORDED: [(usize, usize, usize, usize); 3] = [
    (2, 6016, 2463, 8),
    (3, 32576, 20480, 12),
    (4, 379520, 294912, 17),
];

/// The recorded `(scenario, states, runs, max depth)` of every `n = 4`
/// scenario, so a change that moves states between scenarios fails too
/// (`tests/model_check.rs` pins the `n = 2` and `n = 3` scenarios).
const RECORDED_N4: [(&str, usize, usize, usize); 4] = [
    ("n4-static-r0", 145600, 131072, 17),
    ("n4-static-r1", 69696, 32768, 15),
    ("n4-churn", 80064, 65536, 16),
    ("n4-crash-restart", 84160, 65536, 16),
];

fn fail(msg: &str) -> ! {
    eprintln!("model_check: FAIL: {msg}");
    std::process::exit(1);
}

fn write_counterexample(name: &str, trace: &Trace) -> String {
    let dir = std::path::Path::new("target/mc");
    std::fs::create_dir_all(dir).expect("create target/mc");
    let path = dir.join(format!("{name}.itf.json"));
    let mut f = std::fs::File::create(&path).expect("create trace file");
    f.write_all(trace.to_json().as_bytes())
        .expect("write trace");
    path.display().to_string()
}

fn main() {
    let mut failures = Vec::new();

    // Stage 1: bounded exhaustive exploration, n = 2..=4, against the
    // recorded totals.
    for (n, states, runs, max_depth) in RECORDED {
        let suite = explore::explore_suite(n);
        for report in &suite.reports {
            if let Some((trace, message)) = &report.violation {
                let path = write_counterexample(&report.scenario, trace);
                eprintln!("model_check: counterexample written to {path}");
                eprintln!("model_check: {}: {message}", report.scenario);
                failures.push(format!("invariant violation in {}", report.scenario));
            }
        }
        println!(
            "model_check: explore n={n}: {} states, {} runs, max depth {}, {:.2}s",
            suite.states, suite.runs, suite.max_depth, suite.wall_s
        );
        if (suite.states, suite.runs, suite.max_depth) != (states, runs, max_depth) {
            failures.push(format!(
                "n={n} explored {} states / {} runs / depth {}, recorded \
                 {states} / {runs} / {max_depth}",
                suite.states, suite.runs, suite.max_depth
            ));
        }
        if n == 4 {
            let explored: Vec<_> = suite
                .reports
                .iter()
                .map(|r| (r.scenario.as_str(), r.states, r.runs, r.max_depth))
                .collect();
            if explored != RECORDED_N4 {
                failures.push(format!(
                    "n=4 scenarios explored {explored:?}, recorded {RECORDED_N4:?}"
                ));
            }
        }
    }
    if !failures.is_empty() {
        fail(&format!("explorer: {}", failures.join("; ")));
    }

    // Stage 2: mutation smoke — fail closed.
    let start = Instant::now();
    if let Some(v) = smoke_run(Mutation::None) {
        fail(&format!("unmutated control was rejected: {v}"));
    }
    for (mutation, expect) in [
        (Mutation::LmaxOverwrite, "Property 6.3"),
        (Mutation::MissingHeadroomClause, "Definition 6.1"),
    ] {
        match smoke_run(mutation) {
            Some(v) if v.message.contains(expect) => {}
            Some(v) => fail(&format!(
                "mutant {mutation:?} caught, but for the wrong invariant: {v}"
            )),
            None => fail(&format!(
                "mutant {mutation:?} was NOT caught — the checker has gone soft"
            )),
        }
    }
    println!(
        "model_check: mutation smoke: 2 mutants caught, control clean, {:.2}s",
        start.elapsed().as_secs_f64()
    );

    // Stage 3: ITF export → parse → engine replay at 1 and 8 threads.
    let start = Instant::now();
    let suite = explore::suite(2);
    let sc = &suite[0];
    let (trace, oracle) =
        explore::trace_of_trail(sc, |_| GradientNode::new(sc.algo), vec![1, 0, 1, 1]);
    if let Some(v) = oracle.violation() {
        fail(&format!(
            "replay source scenario unexpectedly violates: {v}"
        ));
    }
    let parsed = match Trace::from_json(&trace.to_json()) {
        Ok(t) => t,
        Err(e) => fail(&format!("exported trace failed to parse: {e}")),
    };
    if parsed != trace {
        fail("trace JSON round trip is not the identity");
    }
    for threads in [1usize, 8] {
        if let Err(e) = replay_trace(&parsed, threads) {
            fail(&format!("engine replay diverged at {threads} threads: {e}"));
        }
    }
    println!(
        "model_check: replay round trip: {} states bit-identical at 1 and 8 \
         threads, {:.2}s",
        parsed.states.len(),
        start.elapsed().as_secs_f64()
    );

    // Stage 4: bounded fuzz batch.
    let start = Instant::now();
    let outcome = fuzz(0x6c50, 24);
    if let Some((trace, message)) = &outcome.violation {
        let path = write_counterexample("fuzz", trace);
        eprintln!("model_check: counterexample written to {path}");
        fail(&format!("fuzz found a violation: {message}"));
    }
    println!(
        "model_check: fuzz: {} schedules, {} instants checked, {:.2}s",
        outcome.iterations,
        outcome.instants_checked,
        start.elapsed().as_secs_f64()
    );

    println!("model_check: OK");
}
