#![warn(missing_docs)]

//! # gcs-sim
//!
//! A deterministic discrete-event simulator implementing the network model
//! of Section 3.2 of *Gradient Clock Synchronization in Dynamic Networks*
//! (Kuhn, Locher, Oshman; SPAA 2009):
//!
//! * every node owns a hardware clock with drift bounded by `ρ`,
//! * message delays are chosen adversarially in `[0, T]`, FIFO per link,
//! * messages on edges removed mid-flight are either delivered before the
//!   removal or dropped, in which case the sender discovers the removal no
//!   later than `send time + D`,
//! * topology changes are discovered by the endpoints within `D` time
//!   (transient changes may be skipped, exactly as the model allows),
//! * timers measure *subjective* (hardware) time and are fired by exact
//!   inversion of the node's rate schedule.
//!
//! Protocols implement the [`Automaton`] trait (`on_start`, `on_receive`,
//! `on_discover`, `on_alarm`) and interact with the environment through a
//! [`Context`] that collects sends and timer operations, mirroring the
//! event-handler style in which Algorithm 2 is written.
//!
//! Determinism: a simulation is a pure function of (model parameters,
//! topology stream, drift plane, fault stream, delay strategy, seed) —
//! and of *nothing else*. Topology streams from a lazily pulled
//! `gcs_net::TopologySource` (eager `TopologySchedule`s are adapted
//! through `ScheduleSource`), so peak memory is independent of the total
//! churn-event count; hardware rates stream the same way from a
//! [`gcs_clocks::DriftSource`] (eager clocks are adapted through
//! `ScheduleDrift`), so per-node drift state is an O(1) cursor for
//! touched nodes — bit-identical to the materialized schedules, pinned
//! by `crates/bench/tests/lazy_drift.rs`. Faults (crash/restart,
//! loss/delay windows, drift excursions) stream from a [`FaultSource`]
//! under the identical pull contract and apply as serial barriers in the
//! canonical event order — see [`fault`]. In particular the worker count
//! ([`SimBuilder::threads`], default from the `GCS_SIM_THREADS`
//! environment variable) never changes a trace: same-instant events to
//! different nodes are sharded by node id and, in wide segments, forked
//! across scoped threads that live for that segment alone, every random
//! draw comes from the consuming node's private
//! stream, and handler-emitted events are merged back into the time wheel
//! in a canonical `(triggering seq, emission index)` order. See
//! [`engine`] for the full argument and
//! `crates/bench/tests/determinism.rs` for the pin.
//!
//! # Example
//!
//! The time wheel pops in exactly `(time, seq)` order — earliest time
//! first, insertion order on ties — which is the total order all dispatch
//! modes (stepped, batched serial, parallel) preserve:
//!
//! ```
//! use gcs_clocks::time::at;
//! use gcs_net::node;
//! use gcs_sim::event::{EventPayload, TimerKind};
//! use gcs_sim::TimeWheel;
//!
//! let alarm = |i: usize, generation: u64| EventPayload::Alarm {
//!     node: node(i),
//!     kind: TimerKind::Tick,
//!     generation,
//! };
//! let mut wheel = TimeWheel::new(0.25); // bucket width, e.g. T/4
//! wheel.push(at(3.0), alarm(0, 1));
//! wheel.push(at(1.0), alarm(1, 1));
//! wheel.push(at(3.0), alarm(2, 1)); // same instant as the first push
//!
//! assert_eq!(wheel.peek_time(), Some(at(1.0)));
//! let order: Vec<_> = std::iter::from_fn(|| wheel.pop())
//!     .map(|ev| (ev.time.seconds(), ev.seq))
//!     .collect();
//! assert_eq!(order, vec![(1.0, 1), (3.0, 0), (3.0, 2)]);
//! ```

pub mod automaton;
pub mod delay;
mod dispatch;
pub mod engine;
pub mod event;
pub mod fault;
pub mod model;
mod shard;
pub mod stats;
pub mod wheel;

pub use automaton::{Action, Automaton, Context, RebootUnsupported};
pub use delay::{DelayScript, DelayStrategy};
pub use engine::{
    threads_from_env, DiscoveryDelay, PlaneBytes, SimBuilder, Simulator, Telemetry, THREADS_ENV,
};
pub use event::{LinkChange, LinkChangeKind, Message, TimerKind};
pub use fault::{CrashRestartSource, FaultEvent, FaultKind, FaultPlan, FaultSource};
pub use model::ModelParams;
pub use shard::GraphView;
pub use stats::SimStats;
pub use wheel::TimeWheel;
