//! Executable model checks for Algorithm 2.
//!
//! This crate turns the paper's two per-state correctness obligations —
//! **Property 6.3** (`L_u(t) ≤ Lmax_u(t)`: no node's logical clock
//! overtakes its own max estimate) and the **Definition 6.1** blocked
//! predicate (a node is blocked iff `Lmax_u > L_u` and some
//! `Γ`-neighbor's estimate sits more than its budget below `L_u`) — into
//! machine-checked invariants over *every reachable state* of a bounded
//! configuration, and wires the results back into the real engine:
//!
//! * [`model`] — a serial, decision-instrumented mirror of the engine's
//!   exact event semantics (same `(time, class, seq)` total order, same
//!   effect merge order, same timer/discovery/FIFO/epoch rules), where
//!   every live-edge message delay is an enumerable choice.
//! * [`oracle`] — the invariant checks, evaluated at every instant of
//!   every run. The blocked predicate is recomputed from the node's
//!   observable `(estimate, budget)` caps through
//!   [`gcs_core::predicate`], the same pure functions the production
//!   automaton calls — so implementation and specification can only
//!   drift apart if the check fails.
//! * [`explore`](mod@explore) — bounded exhaustive DFS over all delay
//!   interleavings
//!   (within `[0, T]`, quantized) composed with scheduled churn and
//!   crash/restart faults at `n = 2..4`, with canonical state hashing to
//!   prune converged branches and every branch resumed from the snapshot
//!   of the instant it branches in.
//! * [`fuzz`](mod@fuzz) — randomized long schedules through the same
//!   oracle, with greedy counterexample shrinking.
//! * [`itf`] — ITF-style JSON export of every violation (and every
//!   healthy trace on request), built on [`json`].
//! * [`json`] — the workspace's one JSON value type, parser and writer
//!   (no serde), shared with `gcs-bench`'s `BENCH_engine.json`.
//! * [`replay`] — [`replay::TraceReplaySource`], a
//!   single source implementing the engine's `TopologySource` /
//!   `DriftSource` / `FaultSource` contracts, plus scripted delays, so an
//!   exported trace re-executes through `SimBuilder` bit-identically to
//!   the model at any thread count.
//! * [`mutant`] — intentionally broken Algorithm 2 variants proving the
//!   oracle actually rejects (the CI mutation smoke test fails closed).
//!
//! The `model_check` binary (`cargo run --release -p gcs-mc --bin
//! model_check`) is the CI entry point: explorer suites at `n = 2..4`
//! checked against their recorded totals, the mutation smoke test,
//! replay round-trips at 1 and 8 threads, and a bounded fuzz batch.

#![warn(missing_docs)]

pub mod explore;
pub mod fuzz;
pub mod itf;
pub mod json;
pub mod model;
pub mod mutant;
pub mod oracle;
pub mod replay;

pub use explore::{explore, Report};
pub use fuzz::{fuzz, FuzzOutcome};
pub use itf::Trace;
pub use model::{DelayDecider, InstantState, Model, ModelNode, NodeProbe, Scenario};
pub use oracle::{Oracle, Violation};
pub use replay::{replay_trace, TraceReplaySource};
