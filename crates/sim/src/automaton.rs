//! The protocol interface: event-driven automata.
//!
//! Algorithm 2 in the paper is written as five event handlers (`when
//! discover(add…)`, `when discover(remove…)`, `when alarm(lost(v))`, `when
//! receive(…)`, `when alarm(tick)`). [`Automaton`] mirrors that structure.
//! Handlers receive a [`Context`] through which they can send messages, set
//! and cancel subjective timers, read their own hardware clock, and draw
//! from their node's private random stream; the engine executes the
//! collected [`Action`]s after the handler returns.
//!
//! Automata are `Send`: the engine dispatches same-instant events to
//! *different* nodes across worker threads (see [`crate::engine`]), so a
//! node's state must be movable to the worker that owns its shard. No
//! `Sync` is required — every node is owned by exactly one shard and only
//! its owner ever touches it.

use crate::event::{LinkChange, Message, TimerKind};
use gcs_clocks::Time;
use gcs_net::NodeId;
use rand::rngs::StdRng;

/// Side effects a handler can request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Action {
    /// `send(u, v, m)`: send `msg` to `to` (delivered within `T` if the
    /// edge survives; silently dropped otherwise, with a `discover(remove)`
    /// following within `D` of the send).
    Send {
        /// Destination node.
        to: NodeId,
        /// Payload.
        msg: Message,
    },
    /// `set_timer(Δt, kind)`: fire `alarm(kind)` after the node's hardware
    /// clock advances by `delta` (subjective time). Re-setting a pending
    /// timer replaces it.
    SetTimer {
        /// Subjective duration until the alarm.
        delta: f64,
        /// Which timer.
        kind: TimerKind,
    },
    /// `cancel(kind)`: cancel a pending timer (no-op if not set).
    CancelTimer {
        /// Which timer.
        kind: TimerKind,
    },
}

/// A node's random stream: either a borrowed live generator (tests) or
/// the owner's lazy shard slot, materialized on the first draw (the
/// engine; seeding is a pure function of `(seed, node id)`, so *when* the
/// stream is created is unobservable). The engine hands the same lazy
/// handle to the node's handlers (through [`Context::rng`]) and to the
/// delay strategy timing its sends, so the stream exists exactly when
/// one of them drew.
pub(crate) enum RngHandle<'a> {
    Ready(&'a mut StdRng),
    Lazy {
        slot: &'a mut Option<Box<StdRng>>,
        seed: u64,
        index: usize,
    },
}

impl RngHandle<'_> {
    /// The stream, materializing a lazy one on first use.
    pub(crate) fn get(&mut self) -> &mut StdRng {
        match self {
            RngHandle::Ready(rng) => rng,
            RngHandle::Lazy { slot, seed, index } => crate::shard::lazy_rng(slot, *seed, *index),
        }
    }
}

/// Per-event execution context handed to automaton handlers.
pub struct Context<'a> {
    /// This node's id.
    pub node: NodeId,
    /// Current real time. Protocol code must not base decisions on this —
    /// it exists for tracing and assertions; nodes only observe `hw`.
    pub now: Time,
    /// This node's hardware clock reading at `now`.
    pub hw: f64,
    actions: &'a mut Vec<Action>,
    /// The node's private random stream (see [`Context::rng`]).
    rng: RngHandle<'a>,
}

impl<'a> Context<'a> {
    /// Creates a context writing into `actions`, drawing randomness from
    /// `rng` (tests construct one directly).
    pub fn new(
        node: NodeId,
        now: Time,
        hw: f64,
        actions: &'a mut Vec<Action>,
        rng: &'a mut StdRng,
    ) -> Self {
        Context {
            node,
            now,
            hw,
            actions,
            rng: RngHandle::Ready(rng),
        }
    }

    /// Engine-internal constructor over the owner's lazy stream slot.
    pub(crate) fn with_lazy_rng(
        node: NodeId,
        now: Time,
        hw: f64,
        actions: &'a mut Vec<Action>,
        slot: &'a mut Option<Box<StdRng>>,
        seed: u64,
    ) -> Self {
        Context {
            node,
            now,
            hw,
            actions,
            rng: RngHandle::Lazy {
                slot,
                seed,
                index: node.index(),
            },
        }
    }

    /// Queues a message send.
    pub fn send(&mut self, to: NodeId, msg: Message) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Queues a subjective timer (re)set.
    pub fn set_timer(&mut self, delta: f64, kind: TimerKind) {
        assert!(
            delta >= 0.0 && delta.is_finite(),
            "timer delta must be >= 0"
        );
        self.actions.push(Action::SetTimer { delta, kind });
    }

    /// Queues a timer cancellation.
    pub fn cancel_timer(&mut self, kind: TimerKind) {
        self.actions.push(Action::CancelTimer { kind });
    }

    /// This node's private random stream.
    ///
    /// The stream is **shard-local**: it is seeded from `(simulation seed,
    /// node id)` and consumed only while this node's handlers run, in the
    /// node's own event order. Draws therefore never depend on how events
    /// at *other* nodes interleave — which is what keeps randomized
    /// protocols bit-identical across engine thread counts. It is also
    /// **lazy**: the generator materializes on the first draw, so nodes
    /// that never draw cost no stream state.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng.get()
    }
}

/// Error returned by [`Automaton::try_reboot`] for protocols that do not
/// support crash/restart faults: injecting a `Restart` fault against such
/// an automaton is a configuration error, and this type names the
/// offending automaton so the failure is diagnosable instead of an
/// anonymous panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RebootUnsupported {
    /// `std::any::type_name` of the automaton that cannot reboot.
    type_name: &'static str,
}

impl RebootUnsupported {
    /// The type name of the automaton that rejected the reboot.
    pub fn type_name(&self) -> &'static str {
        self.type_name
    }
}

impl std::fmt::Display for RebootUnsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "automaton `{}` does not support crash/restart faults \
             (implement Automaton::try_reboot to opt in)",
            self.type_name
        )
    }
}

impl std::error::Error for RebootUnsupported {}

/// An event-driven protocol instance running at one node.
///
/// All clock-valued state must be represented so that it grows at the
/// node's hardware rate between events (see
/// [`ClockVar`](gcs_clocks::ClockVar)); the engine passes the current
/// hardware reading `hw` to the query methods.
///
/// The `Send` supertrait lets the engine hand the node to the worker
/// thread owning its shard (nodes never run on two threads at once).
pub trait Automaton: Send {
    /// Called once at time 0, before any discovery of the initial edges.
    fn on_start(&mut self, ctx: &mut Context<'_>);

    /// `receive(u, v, m)` — a message from `from` arrived.
    fn on_receive(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Message);

    /// `discover(add/remove({u,v}))` — this node learned of a link change.
    fn on_discover(&mut self, ctx: &mut Context<'_>, change: LinkChange);

    /// `alarm(kind)` — a previously set timer fired.
    fn on_alarm(&mut self, ctx: &mut Context<'_>, kind: TimerKind);

    /// The logical clock `L_u` given the current hardware reading.
    fn logical_clock(&self, hw: f64) -> f64;

    /// The max-clock estimate `Lmax_u` given the current hardware reading.
    /// Protocols without such an estimate return their logical clock.
    fn max_estimate(&self, hw: f64) -> f64 {
        self.logical_clock(hw)
    }

    /// A freshly initialized replacement for this node, used by the fault
    /// plane ([`crate::fault`]) to apply a crash/restart **with state
    /// loss**: the returned instance must be exactly what the builder's
    /// `make_node` would have produced at time 0 — configuration
    /// (parameters, weights) may be retained, clock-valued and neighbor
    /// state must not. `on_start` runs on the replacement at the restart
    /// instant.
    ///
    /// The default returns [`Err(RebootUnsupported)`](RebootUnsupported):
    /// protocols opt into restart faults by overriding this method.
    /// Callers that can surface errors (the model checker, scenario
    /// validation) use this form; the engine's fault barrier goes through
    /// [`reboot`](Self::reboot), which converts the error into a
    /// deterministic panic naming the automaton type.
    fn try_reboot(&self) -> Result<Self, RebootUnsupported>
    where
        Self: Sized,
    {
        Err(RebootUnsupported {
            type_name: std::any::type_name::<Self>(),
        })
    }

    /// [`try_reboot`](Self::try_reboot), panicking on `Err`. This is the
    /// engine's entry point at `Restart` fault barriers; the panic message
    /// is the [`RebootUnsupported`] display text, so a mis-configured
    /// fault plan fails with the automaton's type name.
    ///
    /// # Panics
    /// Panics iff `try_reboot` returns `Err` — i.e. the automaton does not
    /// implement crash/restart faults.
    fn reboot(&self) -> Self
    where
        Self: Sized,
    {
        match self.try_reboot() {
            Ok(fresh) => fresh,
            Err(e) => panic!("{e}"),
        }
    }

    // ---- Compact-plane cold tier (optional; defaults opt out) ----
    //
    // The engine's eviction sweep ([`crate::Simulator::evict_quiescent`])
    // moves nodes that are quiescent *and* hold no armed timer into the
    // cold tier: the automaton packs its heap state into bytes the engine
    // holds, while the engine's own timer and peer slots stay in place.
    // The node's next handler (or a restart's reboot) wakes it first. The
    // three methods below are the protocol side of that contract;
    // protocols that do not implement them are simply never evicted.

    /// True when the node holds no per-neighbor protocol state — for
    /// Algorithm 2, `Γ_u = Υ_u = ∅`. Only quiescent nodes are candidates
    /// for cold-tier eviction. The default (`false`) opts the protocol
    /// out entirely.
    fn quiescent(&self) -> bool {
        false
    }

    /// Packs this node's heap-backed state into `out` and **drains** it,
    /// leaving inline state (clocks, counters) untouched so queries like
    /// [`logical_clock`](Self::logical_clock) still answer exactly while
    /// cold. Returns `false` — writing nothing and draining nothing — to
    /// refuse (the default). A later
    /// [`unpack_cold`](Self::unpack_cold) of the written bytes must
    /// restore the state bit-for-bit.
    fn pack_cold(&mut self, _out: &mut Vec<u8>) -> bool {
        false
    }

    /// Restores state drained by a [`pack_cold`](Self::pack_cold) that
    /// returned `true`, before any handler or reboot reads the node.
    /// Exact inverse: the woken node must be bit-for-bit
    /// indistinguishable from one that was never evicted.
    fn unpack_cold(&mut self, _bytes: &[u8]) {}

    /// Heap bytes currently held by this node's protocol state (the
    /// automaton-hot plane meter). Inline struct bytes are accounted by
    /// the engine; the default covers protocols with no heap state.
    fn heap_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_net::node;
    use rand::{Rng, SeedableRng};

    #[test]
    fn context_collects_actions_in_order() {
        let mut actions = Vec::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = Context::new(node(0), Time::ZERO, 0.0, &mut actions, &mut rng);
        ctx.send(
            node(1),
            Message {
                logical: 1.0,
                max_estimate: 2.0,
            },
        );
        ctx.set_timer(5.0, TimerKind::Tick);
        ctx.cancel_timer(TimerKind::Lost(node(1)));
        assert_eq!(actions.len(), 3);
        assert!(matches!(actions[0], Action::Send { to, .. } if to == node(1)));
        assert!(matches!(
            actions[1],
            Action::SetTimer {
                kind: TimerKind::Tick,
                ..
            }
        ));
        assert!(matches!(
            actions[2],
            Action::CancelTimer {
                kind: TimerKind::Lost(v)
            } if v == node(1)
        ));
    }

    #[test]
    fn context_rng_draws_from_the_node_stream() {
        let mut actions = Vec::new();
        let mut rng = StdRng::seed_from_u64(7);
        let mut reference = StdRng::seed_from_u64(7);
        let mut ctx = Context::new(node(0), Time::ZERO, 0.0, &mut actions, &mut rng);
        let drawn: f64 = ctx.rng().gen_range(0.0..1.0);
        assert_eq!(drawn, reference.gen_range(0.0..1.0));
    }

    /// A protocol that never overrides the reboot hooks.
    #[derive(Debug)]
    struct NoReboot;
    impl Automaton for NoReboot {
        fn on_start(&mut self, _ctx: &mut Context<'_>) {}
        fn on_receive(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _msg: Message) {}
        fn on_discover(&mut self, _ctx: &mut Context<'_>, _change: LinkChange) {}
        fn on_alarm(&mut self, _ctx: &mut Context<'_>, _kind: TimerKind) {}
        fn logical_clock(&self, hw: f64) -> f64 {
            hw
        }
    }

    #[test]
    fn try_reboot_defaults_to_a_typed_error_naming_the_automaton() {
        let err = NoReboot.try_reboot().expect_err("default must refuse");
        assert!(
            err.type_name().ends_with("NoReboot"),
            "error names the automaton type, got {:?}",
            err.type_name()
        );
        let text = err.to_string();
        assert!(text.contains("NoReboot") && text.contains("try_reboot"));
        // It is a real std error, usable behind `dyn Error`.
        let dynamic: Box<dyn std::error::Error> = Box::new(err);
        assert!(dynamic.to_string().contains("crash/restart"));
    }

    #[test]
    #[should_panic(expected = "does not support crash/restart faults")]
    fn reboot_panics_with_the_typed_error_text() {
        let _ = NoReboot.reboot();
    }

    #[test]
    #[should_panic(expected = ">= 0")]
    fn negative_timer_rejected() {
        let mut actions = Vec::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = Context::new(node(0), Time::ZERO, 0.0, &mut actions, &mut rng);
        ctx.set_timer(-1.0, TimerKind::Tick);
    }
}
