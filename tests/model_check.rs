//! Full-stack model-check integration: the bounded explorer, the seeded
//! mutants, and the ITF → engine replay pipeline, exercised end to end
//! through the facade at CI-friendly bounds.
//!
//! The heavyweight exhaustive suites run in the fail-closed `model_check`
//! bin (`cargo run --release -p gcs-mc --bin model_check`); these tests
//! keep a smaller always-on footprint inside `cargo test`.

use gradient_clock_sync::core::GradientNode;
use gradient_clock_sync::mc::explore::{explore_suite, suite, trace_of_trail};
use gradient_clock_sync::mc::mutant::{smoke_run, Mutation};
use gradient_clock_sync::mc::{fuzz, replay_trace, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Explores `suite(n)` and asserts every scenario is clean and explores
/// exactly its recorded `(name, states, runs, max depth)`.
fn assert_suite_explores(n: usize, recorded: &[(&str, usize, usize, usize)]) {
    let suite = explore_suite(n);
    for r in &suite.reports {
        if let Some((_, message)) = &r.violation {
            panic!("{}: {message}", r.scenario);
        }
    }
    let explored: Vec<_> = suite
        .reports
        .iter()
        .map(|r| (r.scenario.as_str(), r.states, r.runs, r.max_depth))
        .collect();
    assert_eq!(explored, recorded);
}

#[test]
fn explorer_verifies_the_full_n2_suite() {
    assert_suite_explores(
        2,
        &[
            ("n2-static-r0", 400, 256, 8),
            ("n2-static-r1", 572, 256, 8),
            ("n2-static-r2", 692, 256, 8),
            ("n2-static-r3", 572, 256, 8),
            ("n2-static-r4", 340, 256, 8),
            ("n2-static-r5", 700, 256, 8),
            ("n2-static-r6", 692, 256, 8),
            ("n2-static-r7", 700, 256, 8),
            ("n2-static-r8", 772, 256, 8),
            ("n2-churn", 238, 55, 7),
            ("n2-crash-restart", 338, 104, 7),
        ],
    );
}

#[test]
fn explorer_verifies_the_full_n3_suite() {
    assert_suite_explores(
        3,
        &[
            ("n3-static-r0", 7088, 4096, 12),
            ("n3-static-r1", 6416, 4096, 12),
            ("n3-static-r2", 6416, 4096, 12),
            ("n3-static-r3", 4368, 4096, 12),
            ("n3-churn", 4016, 2048, 11),
            ("n3-crash-restart", 4272, 2048, 11),
        ],
    );
}

#[test]
fn seeded_mutants_fail_closed_and_the_control_passes() {
    assert_eq!(smoke_run(Mutation::None), None, "control must stay clean");
    let v = smoke_run(Mutation::LmaxOverwrite).expect("Lmax mutant must be caught");
    assert!(v.message.contains("Property 6.3"), "{v}");
    let v = smoke_run(Mutation::MissingHeadroomClause).expect("predicate mutant must be caught");
    assert!(v.message.contains("Definition 6.1"), "{v}");
}

#[test]
fn exported_trace_replays_bit_identical_through_the_engine() {
    let scenarios = suite(2);
    let sc = &scenarios[0];
    let (trace, oracle) = trace_of_trail(sc, |_| GradientNode::new(sc.algo), vec![1, 1, 0]);
    assert!(oracle.violation().is_none());
    let parsed = Trace::from_json(&trace.to_json()).expect("ITF JSON round trip");
    assert_eq!(parsed, trace);
    for threads in [1usize, 8] {
        replay_trace(&parsed, threads)
            .unwrap_or_else(|e| panic!("replay diverged at {threads} threads: {e}"));
    }
}

/// Engine↔model conformance: 50 seeded random trails per scenario of
/// every CI suite (n = 2 to 4, 21 scenarios), each exported as a trace
/// and replayed through the engine at one thread and across two node
/// shards.
#[test]
fn random_trails_of_every_suite_replay_through_the_engine() {
    let mut rng = StdRng::seed_from_u64(2009);
    let mut scenarios = 0;
    for n in 2..=4 {
        for sc in suite(n) {
            scenarios += 1;
            let arity = sc.delay_choices.len();
            for _ in 0..50 {
                // Longer than any run's decision count (at most 17); the
                // model ignores the unused tail.
                let trail = (0..24).map(|_| rng.gen_range(0..arity)).collect();
                let (trace, _) = trace_of_trail(&sc, |_| GradientNode::new(sc.algo), trail);
                for threads in [1usize, 2] {
                    replay_trace(&trace, threads).unwrap_or_else(|e| {
                        panic!("{} diverged at {threads} threads: {e}", sc.name)
                    });
                }
            }
        }
    }
    assert_eq!(scenarios, 21);
}

#[test]
fn fuzz_batch_over_the_production_node_is_clean() {
    let outcome = fuzz(2026, 4);
    assert_eq!(outcome.iterations, 4);
    assert!(
        outcome.violation.is_none(),
        "{}",
        outcome.violation.unwrap().1
    );
}
