//! # gcs-bench
//!
//! The experiment harness. Every quantitative claim of the paper runs
//! behind the [`scenario::Scenario`] trait: one module per experiment,
//! each exposing a `run(config)` function, a rendered table, and an
//! `Experiment` wrapper registered in [`scenario::all_scenarios`] — the
//! only definition of E1–E15. E11–E15 also check their fail-closed gates
//! (a `check` function in each module) on every path that builds their
//! report. Two binaries drive the registry: `exp <id>` runs one
//! experiment, and `run_all` runs them all and records the engine perf
//! trajectory as `BENCH_engine.json`, one [`record::RunRecord`] per
//! timed run. Criterion microbenchmarks live in `benches/`, with the
//! throughput workloads (serial baseline and the parallel dispatcher's
//! thread sweep) in [`engine_bench`].
//!
//! | id | claim | module |
//! |----|-------|--------|
//! | E1 | Theorem 6.9 — global skew `≤ G(n)`, linear in `n` | [`e1_global_skew`] |
//! | E2 | Corollary 6.13 — dynamic local skew decay on a new edge | [`e2_local_skew`] |
//! | E3 | Corollary 6.14 — stabilization time ∝ `n/B0` | [`e3_tradeoff`] |
//! | E4 | Theorem 4.1 / Figure 1 — the two-chain lower-bound scenario | [`e4_lowerbound`] |
//! | E5 | Lemma 4.2 — masking builds `≥ T·d/4` skew with legal delays | [`e5_masking`] |
//! | E6 | Lemma 6.8 — max-estimate propagation under churn | [`e6_max_prop`] |
//! | E7 | §1 — baseline comparison (aging vs constant budget vs max-sync) | [`e7_baselines`] |
//! | E8 | §5–6 — parameter ablations (`B(0)`, slope, assumed `n`, `ΔH`) | [`e8_ablations`] |
//! | E9 | §6 — gradient profile: worst skew vs graph distance | [`e9_gradient_profile`] |
//! | E10 | §7 — weighted per-edge budget floors | [`e10_weighted`] |
//! | E11 | Theorem 4.1 at scale — parallel dispatch at `n = 65 536` | [`e11_large_scale`] |
//! | E12 | §3.1–3.2 — streaming dynamic workloads at `n = 2^17` | [`e12_dynamic_workloads`] |
//! | E13 | §3 drift axioms at scale — lazy clock plane at `n = 2^20` | [`e13_scale_ceiling`] |
//! | E14 | §3/§5 at scale — compact automaton plane at `n = 2^23` | [`e14_memory_ceiling`] |
//! | E15 | Theorem 4.1 adversary + fault injection + negative controls | [`e15_faults`] |
//!
//! # Example
//!
//! The experiment registry is itself checkable — every scenario names
//! the claim it reproduces and the typed driver batch
//! ([`scenario::ScenarioFamily`]) it belongs to:
//!
//! ```
//! use gcs_bench::scenario::{all_scenarios, scenarios_in, ScenarioFamily};
//!
//! let scenarios = all_scenarios();
//! assert_eq!(scenarios.len(), 15);
//! assert_eq!(scenarios[0].id(), "E1");
//! assert!(scenarios[0].claim().contains("Theorem 6.9"));
//! assert_eq!(scenarios[14].id(), "E15");
//! assert_eq!(scenarios_in(ScenarioFamily::Claim).len(), 10);
//! assert_eq!(scenarios_in(ScenarioFamily::Scale).len(), 4);
//! assert_eq!(scenarios_in(ScenarioFamily::Fault).len(), 1);
//! assert!(scenarios.iter().all(|s| !s.title().is_empty()));
//! ```

pub mod e10_weighted;
pub mod e11_large_scale;
pub mod e12_dynamic_workloads;
pub mod e13_scale_ceiling;
pub mod e14_memory_ceiling;
pub mod e15_faults;
pub mod e1_global_skew;
pub mod e2_local_skew;
pub mod e3_tradeoff;
pub mod e4_lowerbound;
pub mod e5_masking;
pub mod e6_max_prop;
pub mod e7_baselines;
pub mod e8_ablations;
pub mod e9_gradient_profile;
pub mod engine_bench;
pub mod record;
pub mod scenario;

use gcs_sim::ModelParams;

/// The model parameters shared by the experiments unless a claim needs a
/// different drift regime: `ρ = 0.01`, `T = 1`, `D = 2`.
pub fn default_model() -> ModelParams {
    ModelParams::new(0.01, 1.0, 2.0)
}

/// Asserts that `f` panics with a message containing `expected` — how
/// the E11–E15 gate tests check that a doctored outcome fails its gate.
#[cfg(test)]
pub(crate) fn assert_gate_fails(expected: &str, f: impl FnOnce() + std::panic::UnwindSafe) {
    let err = std::panic::catch_unwind(f).expect_err(expected);
    let msg = match err.downcast::<String>() {
        Ok(msg) => *msg,
        Err(err) => err
            .downcast_ref::<&str>()
            .expect("a text panic")
            .to_string(),
    };
    assert!(msg.contains(expected), "expected {expected:?}, got {msg:?}");
}
