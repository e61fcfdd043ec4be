#![warn(missing_docs)]

//! # gcs-net
//!
//! Dynamic-network substrate for gradient clock synchronization.
//!
//! The paper models a dynamic network over a *static* node set `V`: edges
//! appear and disappear arbitrarily (events `add({u,v})`, `remove({u,v})`),
//! subject only to *T-interval connectivity* (Definition 3.1): for every
//! `t`, the subgraph of edges present throughout `[t, t+T]` is connected.
//!
//! This crate provides:
//!
//! * [`NodeId`] and canonical undirected [`Edge`] identifiers,
//! * [`TopologySchedule`] — the timed add/remove event log that defines a
//!   dynamic graph `E(t)`, with validation (no simultaneous add+remove of
//!   the same edge, adds only for absent edges, …); the Section 3.2
//!   `exists_throughout` predicate is
//!   [`TopologySchedule::exists_throughout`], on the event log itself
//!   (the live edge set of a running simulation is kept by the engine,
//!   `gcs_sim::Simulator::graph`),
//! * [`generators`] — static topologies (paths, rings, grids, trees,
//!   G(n,p), random geometric, and the paper's two-chain lower-bound
//!   network),
//! * [`churn`] — dynamic-topology generators (rotating star, flapping
//!   bridge, random churn over a stable backbone, waypoint mobility),
//! * [`source`] — the pull-based [`TopologySource`] stream abstraction
//!   (lazy topology generation with memory independent of the total
//!   churn-event count) and the [`ScheduleSource`] adapter over eager
//!   schedules,
//! * [`workloads`] — lazy dynamic-workload families: random-waypoint
//!   mobility, periodic partition-and-heal, flash-crowd join/leave waves,
//! * [`adversary`] — worst-case chord attacks on a path, expanded into a
//!   validated schedule ([`adversarial_churn`]), and a deterministic
//!   greedy search over attack placement/timing, the empirical companion
//!   to Theorem 4.1,
//! * [`connectivity`] — instantaneous and T-interval connectivity checks,
//! * [`distance`] — BFS distances, eccentricity, diameter.
//!
//! # Example
//!
//! A three-node dynamic graph: one edge fails, another forms, and the
//! validated schedule replays the edge set at any instant:
//!
//! ```
//! use gcs_clocks::time::at;
//! use gcs_net::schedule::{add_at, remove_at};
//! use gcs_net::{Edge, TopologySchedule};
//!
//! let schedule = TopologySchedule::new(
//!     3,
//!     [Edge::between(0, 1)],
//!     vec![add_at(5.0, Edge::between(1, 2)), remove_at(9.0, Edge::between(0, 1))],
//! );
//! assert_eq!(schedule.edges_at(at(0.0)).len(), 1);
//! assert_eq!(schedule.edges_at(at(5.0)).len(), 2);
//! assert!(!schedule.edges_at(at(9.0)).contains(&Edge::between(0, 1)));
//! // {1,2} exists throughout [5, 100] — it is never removed.
//! assert!(schedule.exists_throughout(Edge::between(1, 2), at(5.0), at(100.0)));
//! ```

pub mod adversary;
pub mod churn;
pub mod connectivity;
pub mod distance;
pub mod generators;
pub mod ids;
pub mod schedule;
pub mod source;
pub mod workloads;

pub use adversary::{adversarial_churn, greedy_worst_case, BridgeAttack};
pub use ids::{node, Edge, NodeId};
pub use schedule::{TopologyEvent, TopologyEventKind, TopologySchedule};
pub use source::{collect_schedule, ScheduleSource, TopologySource};
