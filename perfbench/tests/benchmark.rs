//! The benchmark's own checks: thread invariance of `steady`, traced-run
//! transparency, the recorded references, and fail-closed inputs.

use gcs_perfbench::reference;
use gcs_perfbench::workload::{run, Config, Workload};
use std::process::Command;

#[test]
fn steady_fingerprint_is_the_same_at_one_and_two_threads() {
    let two = Config::standard(Workload::Steady, 42);
    assert_eq!(two.threads, 2, "steady is the two-lane workload");
    let one = Config { threads: 1, ..two };
    let a = run(&one, false);
    let b = run(&two, false);
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(Some(b.fingerprint), reference::lookup(Workload::Steady, 42));
}

#[test]
fn recorded_references_reproduce() {
    for (workload, seed) in [(Workload::Churn, 42), (Workload::Sparse, 1_000_003)] {
        let outcome = run(&Config::standard(workload, seed), false);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
        assert_eq!(
            Some(outcome.fingerprint),
            reference::lookup(workload, seed),
            "{} at seed {seed}",
            workload.name()
        );
    }
}

/// The only test that records spans (the trace log is process-wide).
#[test]
fn traced_runs_change_nothing_and_their_spans_add_up() {
    for workload in Workload::ALL {
        let config = Config::small(workload, 7);
        let plain = run(&config, false);
        let traced = run(&config, true);
        assert_eq!(plain.fingerprint, traced.fingerprint, "{}", workload.name());
        assert!(plain.violations.is_empty(), "{:?}", plain.violations);
        assert!(plain.layers.is_none());
        let layers = traced.layers.expect("traced runs report layers");
        // Self times are remainders after the spans, so overlapping or
        // double-counted spans would drive them negative.
        let remainders: &[&str] = match workload {
            Workload::ModelCheck => &["mc.self_s"],
            _ => &["sim.build_self_s", "sim.run_self_s"],
        };
        for key in remainders {
            assert!(
                layers[key] >= 0.0,
                "{}: {key} = {}",
                workload.name(),
                layers[key]
            );
        }
        assert!(layers["core.handler_s"] > 0.0, "{}", workload.name());
        assert!(layers["core.start_calls"] > 0.0, "{}", workload.name());
    }
}

fn perfbench(args: &[&str], env: Option<(&str, &str)>) -> (Option<i32>, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(args);
    for var in ["GCS_SIM_THREADS", "GCS_SIM_PAR_MIN", "GCS_SMOKE_N"] {
        cmd.env_remove(var);
    }
    if let Some((k, v)) = env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("run the benchmark binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn refuses_environment_overrides_and_bad_arguments() {
    let ok = ["--workload", "steady", "--seconds", "1"];
    for var in ["GCS_SIM_THREADS", "GCS_SIM_PAR_MIN", "GCS_SMOKE_N"] {
        let (code, err) = perfbench(&ok, Some((var, "4")));
        assert_eq!(code, Some(2), "{var}");
        assert!(err.contains(var), "{err}");
    }
    for bad in [
        &["--workload", "nope"][..],
        &["--workload", "churn", "--seed", "-3"],
        &["--workload", "churn", "--seed", "x"],
        &["--workload", "churn", "--seconds", "0"],
        &["--workload", "churn", "--trace", "2"],
        &["--workload", "churn", "--frobnicate", "1"],
        &["--seed", "1"],
    ] {
        let (code, err) = perfbench(bad, None);
        assert_eq!(code, Some(2), "{bad:?}: {err}");
    }
}
