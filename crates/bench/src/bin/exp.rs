//! Runs one registered experiment and prints the report `run_all` prints
//! for it, CSV series included.
//!
//! `cargo run --release -p gcs-bench --bin exp -- E1`
//!
//! The one argument is a registry id, `E1` … `E15`
//! ([`gcs_bench::scenario::all_scenarios`]); a missing, unknown or extra
//! argument exits 2 and lists the ids. Each experiment checks its own
//! fail-closed gates, so a violated gate panics here exactly as it does
//! under `run_all`. One experiment per process keeps E14's peak-RSS
//! budget a reading of E14 alone. `GCS_SMOKE_N=<n>` shrinks E11–E15 to
//! `n` nodes (CI runs them at 4096).

use gcs_bench::scenario::{all_scenarios, print_report, Scenario};
use std::process::exit;

/// The registered scenario `args` names, or the usage error.
fn parse_args(args: &[String]) -> Result<Box<dyn Scenario>, String> {
    let mut registry = all_scenarios();
    let found = match args {
        [id] => registry.iter().position(|s| s.id() == id),
        _ => None,
    };
    found.map(|i| registry.swap_remove(i)).ok_or_else(|| {
        let ids: Vec<&str> = registry.iter().map(|s| s.id()).collect();
        format!("usage: exp <id>, one of {} (got {args:?})", ids.join(", "))
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scenario = parse_args(&args).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        exit(2)
    });
    print_report(scenario.as_ref(), &scenario.run_scenario());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn every_registry_id_selects_its_scenario() {
        for s in all_scenarios() {
            let chosen =
                parse_args(&args(&[s.id()])).unwrap_or_else(|usage| panic!("{}: {usage}", s.id()));
            assert_eq!(chosen.id(), s.id());
        }
    }

    #[test]
    fn missing_unknown_and_extra_arguments_are_usage_errors() {
        for bad in [&[][..], &["E16"], &["e1"], &["E1", "E2"], &["--help"]] {
            let Err(usage) = parse_args(&args(bad)) else {
                panic!("{bad:?} must be rejected");
            };
            assert!(
                usage.starts_with("usage: exp <id>, one of E1, E2, E3,")
                    && usage.contains("E14, E15 (got"),
                "{usage}"
            );
        }
    }
}
