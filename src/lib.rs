#![warn(missing_docs)]

//! # gradient-clock-sync
//!
//! A full reproduction of *Gradient Clock Synchronization in Dynamic
//! Networks* (Fabian Kuhn, Thomas Locher, Rotem Oshman; SPAA 2009 /
//! MIT-CSAIL-TR-2009-022) as a Rust workspace:
//!
//! * the dynamic gradient clock synchronization algorithm (Algorithm 2)
//!   with its aging per-edge skew budgets — [`core`],
//! * the network model of Section 3 as a deterministic discrete-event
//!   simulator (bounded drift, bounded delays, FIFO links, topology-change
//!   discovery within `D`) — [`sim`],
//! * dynamic graphs, churn models and T-interval connectivity — [`net`],
//! * the lower-bound constructions of Section 4 (delay masks, the Masking
//!   Lemma's α/β executions, Lemma 4.3 edge placement, the Theorem 4.1
//!   two-chain scenario) — [`lowerbound`],
//! * bounded exhaustive model checking of Algorithm 2 (Property 6.3 and
//!   the Definition 6.1 blocked predicate on every reachable state at
//!   small `n`), with ITF counterexample export and bit-deterministic
//!   replay into the engine — [`mc`],
//! * measurement, statistics and parallel sweeps — [`analysis`].
//!
//! ## Quickstart
//!
//! ```
//! use gradient_clock_sync::prelude::*;
//!
//! // Model: drift ρ = 1%, message delays ≤ T = 1, discovery ≤ D = 2.
//! let model = ModelParams::new(0.01, 1.0, 2.0);
//! let n = 8;
//! let params = AlgoParams::with_minimal_b0(model, n, 0.5);
//!
//! // An 8-node ring with worst-case delays and split drift.
//! let schedule = TopologySchedule::static_graph(n, generators::ring(n));
//! let mut sim = SimBuilder::topology(model, ScheduleSource::new(schedule))
//!     .drift_model(DriftModel::SplitExtremes, 100.0)
//!     .delay(DelayStrategy::Max)
//!     .build_with(|_| GradientNode::new(params));
//!
//! sim.run_until(Time::new(100.0));
//! let clocks = sim.logical_snapshot();
//! let skew = clocks.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
//!     - clocks.iter().cloned().fold(f64::INFINITY, f64::min);
//! assert!(skew <= params.global_skew_bound());
//! ```

pub use gcs_analysis as analysis;
pub use gcs_bench as bench;
pub use gcs_clocks as clocks;
pub use gcs_core as core;
pub use gcs_lowerbound as lowerbound;
pub use gcs_mc as mc;
pub use gcs_net as net;
pub use gcs_sim as sim;

/// Compiles the README's Rust blocks as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

/// The most common imports in one place.
pub mod prelude {
    pub use gcs_analysis::{metrics, CsvSink, Recorder, SkewStream, Summary, Table};
    pub use gcs_bench::scenario::{Scenario, ScenarioReport};
    pub use gcs_clocks::{
        time::at, DriftModel, DriftSource, Duration, HardwareClock, ModelDrift, RateSchedule,
        ScheduleDrift, Time,
    };
    pub use gcs_core::baseline::MaxSyncNode;
    pub use gcs_core::{AlgoParams, BudgetPolicy, GradientNode, InvariantMonitor};
    pub use gcs_net::{
        churn, generators, greedy_worst_case, node, workloads, AdversarialChurnSource,
        BridgeAttack, Edge, NodeId, ScheduleSource, TopologySchedule, TopologySource,
    };
    pub use gcs_sim::{
        CrashRestartSource, DelayStrategy, DiscoveryDelay, FaultEvent, FaultKind, FaultPlan,
        FaultSource, ModelParams, SimBuilder, Simulator,
    };
}
