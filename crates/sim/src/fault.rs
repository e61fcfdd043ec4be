//! The fault plane: typed, time-ordered fault injection.
//!
//! The paper's guarantees are claims about adversarial executions —
//! Theorem 4.1's lower bound is *constructed* from worst-case edge timing,
//! and the Section 6 upper bounds hold for every drift/delay assignment
//! the model admits. A well-behaved schedule exercises none of that. This
//! module adds the third input plane next to topology
//! ([`TopologySource`](gcs_net::TopologySource)) and drift
//! ([`DriftSource`](gcs_clocks::DriftSource)): a pull-based stream of
//! [`FaultEvent`]s that the engine applies as serial barriers in the
//! canonical `(time, class, seq)` order, so faulty runs stay bit-identical
//! at every thread count.
//!
//! ## Fault kinds
//!
//! * [`FaultKind::Crash`] / [`FaultKind::Restart`] — a node stops
//!   executing (deliveries to it vanish, its alarms and discoveries are
//!   suppressed) and later reboots **with state loss** via
//!   [`Automaton::reboot`](crate::Automaton::reboot): the replacement
//!   instance runs `on_start` at the restart instant and rediscovers its
//!   live edges exactly the discovery bound `D` later.
//! * [`FaultKind::DropWindow`] — for a window of real time, sends
//!   matching an edge filter vanish silently at the model boundary (the
//!   sender is *not* notified — unlike a removed edge, a lossy window is
//!   invisible to the protocol, which is what makes it a fault).
//! * [`FaultKind::DelaySpike`] — for a window, every delivery delay is
//!   overridden with a fixed value that may exceed the bound `T`: a
//!   deliberate model violation for negative controls.
//! * [`FaultKind::DriftExcursion`] — for a window, one node's *observed*
//!   hardware clock runs at an extra `rate_delta`, allowing rates outside
//!   `[1−ρ, 1+ρ]`. This is the negative control that must trip
//!   `InvariantMonitor` (`gcs-core`): the Section 6 proofs assume bounded
//!   drift, so an excursion falsifies their conclusions measurably.
//!   Subjective timers keep firing on the *un*-warped plane — the
//!   excursion models a mis-measuring oscillator, not a re-derived timer
//!   schedule, and keeping the base plane authoritative for `fire_time`
//!   preserves the exact-inversion contract.
//!
//! ## The pull contract
//!
//! [`FaultSource`] mirrors the topology contract: events come out in
//! nondecreasing time order with every time `> 0`, `peek_time` names the
//! earliest unemitted event, and `pull_until(t)` emits everything due at
//! or before `t`. The engine pumps faults exactly like topology — before
//! each instant, never mid-round — so pull timing is a function of the
//! instant sequence and therefore of the trace alone. A randomized source
//! must draw from its own keyed streams, never from a node's protocol
//! stream, so fault timing stays independent of protocol randomness and
//! of when the pull happens.

use gcs_clocks::Time;
use gcs_net::{Edge, NodeId};

/// One typed fault injection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The node halts: deliveries to it are lost, its alarms and
    /// discoveries are suppressed, and its timers are cancelled. Crashing
    /// an already-crashed node is a no-op. The node's last automaton state
    /// remains *queryable* (snapshots still read its clocks, which keep
    /// growing at the hardware rate — a crashed node's last logical value
    /// ages exactly like a frozen `ClockVar`).
    Crash {
        /// The node to halt.
        node: NodeId,
    },
    /// The node reboots with state loss: the automaton is replaced by
    /// [`Automaton::reboot`](crate::Automaton::reboot), `on_start` runs at
    /// the restart instant, per-neighbor discovery watermarks reset, and
    /// every currently-live incident edge is rediscovered `D` later.
    /// Restarting a node that never crashed is allowed and models an
    /// in-place reboot (state loss without downtime).
    Restart {
        /// The node to reboot.
        node: NodeId,
    },
    /// For `duration` real seconds from the fault instant, sends over
    /// `edge` (every edge when `None`) are silently lost: no delivery, no
    /// sender notification.
    DropWindow {
        /// Restrict the window to one edge; `None` drops on all edges.
        edge: Option<Edge>,
        /// Window length in real seconds.
        duration: f64,
    },
    /// For `duration` real seconds, every message delay is overridden to
    /// exactly `delay` (FIFO clamping still applies). Values above the
    /// model bound `T` are allowed — that is the point.
    DelaySpike {
        /// The forced delay in real seconds.
        delay: f64,
        /// Window length in real seconds.
        duration: f64,
    },
    /// For `duration` real seconds, `node`'s *observed* hardware clock
    /// gains an extra `rate_delta` per real second, permitting rates
    /// outside `[1−ρ, 1+ρ]` (the negative control for `InvariantMonitor`).
    DriftExcursion {
        /// The affected node.
        node: NodeId,
        /// Additional clock rate (e.g. `+0.2` makes a nominal-rate clock
        /// run at `1.2`).
        rate_delta: f64,
        /// Window length in real seconds.
        duration: f64,
    },
}

/// A [`FaultKind`] scheduled at an instant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// When the fault takes effect (must be `> 0`).
    pub time: Time,
    /// What happens.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// A crash of `node` at `time`.
    pub fn crash(time: f64, node: NodeId) -> Self {
        FaultEvent {
            time: Time::new(time),
            kind: FaultKind::Crash { node },
        }
    }

    /// A restart of `node` at `time`.
    pub fn restart(time: f64, node: NodeId) -> Self {
        FaultEvent {
            time: Time::new(time),
            kind: FaultKind::Restart { node },
        }
    }

    /// A network-wide message-loss window `[time, time + duration)`.
    pub fn drop_window(time: f64, duration: f64) -> Self {
        FaultEvent {
            time: Time::new(time),
            kind: FaultKind::DropWindow {
                edge: None,
                duration,
            },
        }
    }

    /// A single-edge message-loss window `[time, time + duration)`.
    pub fn drop_edge(time: f64, edge: Edge, duration: f64) -> Self {
        FaultEvent {
            time: Time::new(time),
            kind: FaultKind::DropWindow {
                edge: Some(edge),
                duration,
            },
        }
    }

    /// A delay-spike window: every send in `[time, time + duration)` takes
    /// exactly `delay`.
    pub fn delay_spike(time: f64, delay: f64, duration: f64) -> Self {
        FaultEvent {
            time: Time::new(time),
            kind: FaultKind::DelaySpike { delay, duration },
        }
    }

    /// A drift excursion at `node` over `[time, time + duration)`.
    pub fn drift_excursion(time: f64, node: NodeId, rate_delta: f64, duration: f64) -> Self {
        FaultEvent {
            time: Time::new(time),
            kind: FaultKind::DriftExcursion {
                node,
                rate_delta,
                duration,
            },
        }
    }
}

/// A time-ordered, pull-based stream of fault injections — the fault
/// plane's counterpart of [`TopologySource`](gcs_net::TopologySource).
/// See the module docs for the contract.
pub trait FaultSource: Send {
    /// Time of the earliest fault not yet emitted, or `None` when the
    /// stream is exhausted.
    fn peek_time(&mut self) -> Option<Time>;

    /// Appends every pending fault with time `≤ until` to `buf`, in
    /// nondecreasing time order.
    fn pull_until(&mut self, until: Time, buf: &mut Vec<FaultEvent>);
}

impl FaultSource for Box<dyn FaultSource> {
    fn peek_time(&mut self) -> Option<Time> {
        (**self).peek_time()
    }
    fn pull_until(&mut self, until: Time, buf: &mut Vec<FaultEvent>) {
        (**self).pull_until(until, buf)
    }
}

/// An eager, validated fault schedule served through the pull interface —
/// the fault plane's `ScheduleSource`. Events are sorted (stably) by time
/// at construction, so same-instant faults apply in the order they were
/// listed.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    cursor: usize,
}

impl FaultPlan {
    /// Validates and wraps a fault list. Panics on non-positive or
    /// non-finite times, negative or non-finite durations/delays, or a
    /// non-finite excursion rate.
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        for ev in &events {
            assert!(
                ev.time > Time::ZERO && ev.time.seconds().is_finite(),
                "fault times must be finite and > 0, got {:?}",
                ev.time
            );
            match ev.kind {
                FaultKind::Crash { .. } | FaultKind::Restart { .. } => {}
                FaultKind::DropWindow { duration, .. } => {
                    assert!(
                        duration >= 0.0 && duration.is_finite(),
                        "drop-window duration must be finite and >= 0"
                    );
                }
                FaultKind::DelaySpike { delay, duration } => {
                    assert!(
                        delay >= 0.0 && delay.is_finite(),
                        "delay spike must be finite and >= 0"
                    );
                    assert!(
                        duration >= 0.0 && duration.is_finite(),
                        "delay-spike duration must be finite and >= 0"
                    );
                }
                FaultKind::DriftExcursion {
                    rate_delta,
                    duration,
                    ..
                } => {
                    assert!(rate_delta.is_finite(), "excursion rate must be finite");
                    assert!(
                        duration >= 0.0 && duration.is_finite(),
                        "excursion duration must be finite and >= 0"
                    );
                }
            }
        }
        events.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("finite times"));
        FaultPlan { events, cursor: 0 }
    }

    /// The validated, time-sorted events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

impl FaultSource for FaultPlan {
    fn peek_time(&mut self) -> Option<Time> {
        self.events.get(self.cursor).map(|ev| ev.time)
    }

    fn pull_until(&mut self, until: Time, buf: &mut Vec<FaultEvent>) {
        while let Some(ev) = self.events.get(self.cursor) {
            if ev.time > until {
                break;
            }
            buf.push(*ev);
            self.cursor += 1;
        }
    }
}

/// The engine's accumulated fault state, updated only at fault barriers
/// (serial, between segments) and read — immutably — by every worker
/// during parallel dispatch. Window lists are pruned of expired entries
/// at barriers, never mid-instant, so membership checks are a pure
/// function of `(now, applied faults)`.
#[derive(Debug, Default)]
pub(crate) struct FaultState {
    /// Crashed nodes, sorted by id.
    crashed: Vec<NodeId>,
    /// Open message-loss windows: `(start, end, edge filter)`.
    drop_windows: Vec<(Time, Time, Option<Edge>)>,
    /// Open delay-override windows: `(start, end, forced delay)`.
    delay_windows: Vec<(Time, Time, f64)>,
    /// Drift excursions, **never pruned**: the accumulated warp
    /// `Σ δ·min(t, end) − start` must stay part of a node's observed
    /// clock forever (an oscillator that mis-ran keeps its offset).
    excursions: Vec<(NodeId, Time, Time, f64)>,
}

impl FaultState {
    #[inline]
    pub fn is_crashed(&self, u: NodeId) -> bool {
        !self.crashed.is_empty() && self.crashed.binary_search(&u).is_ok()
    }

    /// Marks `u` crashed; false if it already was.
    pub fn crash(&mut self, u: NodeId) -> bool {
        match self.crashed.binary_search(&u) {
            Ok(_) => false,
            Err(i) => {
                self.crashed.insert(i, u);
                true
            }
        }
    }

    /// Clears `u`'s crashed mark; false if it was not crashed.
    pub fn restart(&mut self, u: NodeId) -> bool {
        match self.crashed.binary_search(&u) {
            Ok(i) => {
                self.crashed.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    pub fn open_drop(&mut self, now: Time, duration: f64, edge: Option<Edge>) {
        self.drop_windows
            .push((now, Time::new(now.seconds() + duration), edge));
    }

    pub fn open_delay(&mut self, now: Time, duration: f64, delay: f64) {
        self.delay_windows
            .push((now, Time::new(now.seconds() + duration), delay));
    }

    pub fn open_excursion(&mut self, u: NodeId, now: Time, duration: f64, rate_delta: f64) {
        self.excursions
            .push((u, now, Time::new(now.seconds() + duration), rate_delta));
    }

    /// Drops expired drop/delay windows. Called only at fault barriers —
    /// a trace-deterministic point — so the lists every worker scans are
    /// identical at every thread count.
    pub fn prune(&mut self, now: Time) {
        self.drop_windows.retain(|&(_, end, _)| end > now);
        self.delay_windows.retain(|&(_, end, _)| end > now);
    }

    /// Whether a send over `edge` at `now` falls in an open loss window.
    #[inline]
    pub fn drops(&self, now: Time, edge: Edge) -> bool {
        self.drop_windows.iter().any(|&(start, end, filter)| {
            now >= start && now < end && filter.is_none_or(|e| e == edge)
        })
    }

    /// The forced delay at `now`, if a spike window is open (the most
    /// recently opened matching window wins).
    #[inline]
    pub fn delay_override(&self, now: Time) -> Option<f64> {
        self.delay_windows
            .iter()
            .rev()
            .find(|&&(start, end, _)| now >= start && now < end)
            .map(|&(_, _, d)| d)
    }

    /// Accumulated hardware-clock warp of `u` at `t`:
    /// `Σ over u's excursions of rate_delta · (min(t, end) − start)⁺`.
    /// Exactly `0.0` when no excursion ever touched `u`, so clean nodes'
    /// readings stay bit-identical to a fault-free run.
    #[inline]
    pub fn hw_warp(&self, u: NodeId, t: Time) -> f64 {
        if self.excursions.is_empty() {
            return 0.0;
        }
        let mut warp = 0.0;
        for &(node, start, end, delta) in &self.excursions {
            if node == u && t > start {
                warp += delta * (t.min(end).seconds() - start.seconds());
            }
        }
        warp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_clocks::time::at;
    use gcs_net::node;

    #[test]
    fn plan_sorts_and_replays_in_order() {
        let mut plan = FaultPlan::new(vec![
            FaultEvent::restart(9.0, node(3)),
            FaultEvent::crash(4.0, node(3)),
            FaultEvent::drop_window(6.0, 1.0),
        ]);
        assert_eq!(plan.peek_time(), Some(at(4.0)));
        let mut buf = Vec::new();
        plan.pull_until(at(6.0), &mut buf);
        assert_eq!(buf.len(), 2);
        assert!(matches!(buf[0].kind, FaultKind::Crash { .. }));
        assert!(matches!(buf[1].kind, FaultKind::DropWindow { .. }));
        assert_eq!(plan.peek_time(), Some(at(9.0)));
        plan.pull_until(at(100.0), &mut buf);
        assert_eq!(buf.len(), 3);
        assert_eq!(plan.peek_time(), None);
    }

    #[test]
    #[should_panic(expected = "> 0")]
    fn plan_rejects_time_zero() {
        let _ = FaultPlan::new(vec![FaultEvent::crash(0.0, node(0))]);
    }

    #[test]
    fn fault_state_windows_and_warp() {
        let mut st = FaultState::default();
        st.open_drop(at(2.0), 1.0, Some(Edge::between(0, 1)));
        st.open_delay(at(3.0), 2.0, 5.0);
        st.open_excursion(node(2), at(1.0), 4.0, 0.5);
        assert!(st.drops(at(2.5), Edge::between(0, 1)));
        assert!(!st.drops(at(2.5), Edge::between(0, 2)), "filtered edge");
        assert!(!st.drops(at(3.0), Edge::between(0, 1)), "half-open window");
        assert_eq!(st.delay_override(at(4.0)), Some(5.0));
        assert_eq!(st.delay_override(at(5.5)), None);
        // Warp integrates the excursion and saturates at its end.
        assert_eq!(st.hw_warp(node(2), at(1.0)), 0.0);
        assert!((st.hw_warp(node(2), at(3.0)) - 1.0).abs() < 1e-12);
        assert!((st.hw_warp(node(2), at(50.0)) - 2.0).abs() < 1e-12);
        assert_eq!(st.hw_warp(node(0), at(50.0)), 0.0, "other nodes clean");
        // Pruning drops closed windows but keeps the excursion's warp.
        st.prune(at(10.0));
        assert_eq!(st.delay_override(at(4.0)), None, "window pruned");
        assert!((st.hw_warp(node(2), at(50.0)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn crash_set_is_idempotent_and_sorted() {
        let mut st = FaultState::default();
        assert!(st.crash(node(5)));
        assert!(st.crash(node(2)));
        assert!(!st.crash(node(5)), "double crash is a no-op");
        assert!(st.is_crashed(node(2)) && st.is_crashed(node(5)));
        assert!(!st.is_crashed(node(3)));
        assert!(st.restart(node(5)));
        assert!(!st.restart(node(5)), "double restart is a no-op");
        assert!(!st.is_crashed(node(5)));
    }
}
