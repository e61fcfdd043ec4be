//! Panic and boundary-invariance tests for parallel segment dispatch.
//!
//! Forking a wide segment across threads is an *execution backend*, not
//! a semantic feature: its observable contract is (a) a panic inside a
//! forked job fails the run loudly with the original payload, and (b) no
//! combination of thread count, parallel threshold, or `run_until` split
//! points ever changes the trace. The last point is also covered at scale
//! by `crates/bench/tests/determinism.rs`; here a proptest sweeps random
//! small configurations.

use gcs_clocks::time::at;
use gcs_net::schedule::{add_at, remove_at};
use gcs_net::{generators, Edge, NodeId, ScheduleSource, TopologySchedule};
use gcs_sim::{
    Automaton, Context, DelayStrategy, LinkChange, LinkChangeKind, Message, ModelParams,
    SimBuilder, SimStats, Simulator, TimerKind,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A gossiping automaton: every node ticks on the same hardware period and
/// floods the maximum value it has seen, so every instant carries a wide
/// burst of same-time events — exactly the shape that crosses the
/// parallel threshold.
struct Gossip {
    value: f64,
    period: f64,
    neighbors: BTreeSet<NodeId>,
}

impl Gossip {
    fn new(value: f64) -> Self {
        Gossip {
            value,
            period: 0.5,
            neighbors: BTreeSet::new(),
        }
    }
}

impl Automaton for Gossip {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.period, TimerKind::Tick);
    }

    fn on_receive(&mut self, _ctx: &mut Context<'_>, _from: NodeId, msg: Message) {
        self.value = self.value.max(msg.logical);
    }

    fn on_discover(&mut self, ctx: &mut Context<'_>, change: LinkChange) {
        let other = change.edge.other(ctx.node);
        match change.kind {
            LinkChangeKind::Added => self.neighbors.insert(other),
            LinkChangeKind::Removed => self.neighbors.remove(&other),
        };
    }

    fn on_alarm(&mut self, ctx: &mut Context<'_>, _kind: TimerKind) {
        for &v in &self.neighbors {
            ctx.send(
                v,
                Message {
                    logical: self.value,
                    max_estimate: self.value,
                },
            );
        }
        ctx.set_timer(self.period, TimerKind::Tick);
    }

    fn logical_clock(&self, _hw: f64) -> f64 {
        self.value
    }
}

fn params() -> ModelParams {
    ModelParams::new(0.01, 1.0, 2.0)
}

/// Ring of `n` plus bursts of chord churn where many link changes share
/// one instant — wide topology batches followed by wide discovery
/// segments.
fn churn_schedule(n: usize) -> TopologySchedule {
    let mut events = Vec::new();
    for (round, &t) in [1.0, 2.0, 3.0].iter().enumerate() {
        for i in (0..n).step_by(2) {
            let chord = Edge::between(i, (i + 2) % n);
            events.push(if round % 2 == 0 {
                add_at(t, chord)
            } else {
                remove_at(t, chord)
            });
        }
    }
    TopologySchedule::new(n, generators::ring(n), events)
}

fn gossip_sim(n: usize, threads: usize, par_min: usize, seed: u64) -> Simulator<Gossip> {
    SimBuilder::topology(params(), ScheduleSource::new(churn_schedule(n)))
        .delay(DelayStrategy::Max)
        .seed(seed)
        .threads(threads)
        .par_threshold(par_min)
        .build_with(|i| Gossip::new(i as f64))
}

/// Detonates on its first alarm; used to prove worker panics surface.
struct Bomb;

impl Automaton for Bomb {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(0.25, TimerKind::Tick);
    }

    fn on_receive(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _msg: Message) {}

    fn on_discover(&mut self, _ctx: &mut Context<'_>, _change: LinkChange) {}

    fn on_alarm(&mut self, _ctx: &mut Context<'_>, _kind: TimerKind) {
        panic!("bomb detonated in a shard worker");
    }

    fn logical_clock(&self, hw: f64) -> f64 {
        hw
    }
}

#[test]
#[should_panic(expected = "bomb detonated in a shard worker")]
fn worker_panic_fails_the_run_loudly() {
    let schedule = TopologySchedule::static_graph(8, generators::ring(8));
    let mut sim = SimBuilder::topology(params(), ScheduleSource::new(schedule))
        .threads(2)
        .par_threshold(1)
        .build_with(|_| Bomb);
    sim.run_until(at(1.0));
}

#[test]
fn par_threshold_is_recorded_in_stats() {
    let sim = gossip_sim(8, 2, 7, 1);
    assert_eq!(sim.stats().par_min_events, 7);
}

fn reference_trace() -> (Vec<u64>, SimStats) {
    let mut sim = gossip_sim(24, 1, 64, 99);
    sim.run_until(at(4.0));
    let bits = sim.logical_snapshot().iter().map(|x| x.to_bits()).collect();
    (bits, *sim.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random thread counts, parallel thresholds, and `run_until` split
    /// points never change the trace or the trace-relevant counters.
    #[test]
    fn random_boundaries_never_change_the_trace(
        threads in 1usize..9,
        par_min in 1usize..96,
        cuts in prop::collection::vec(0.0f64..4.0, 0..4),
    ) {
        let (ref_bits, ref_stats) = reference_trace();
        let mut sim = gossip_sim(24, threads, par_min, 99);
        let mut cuts = cuts;
        cuts.sort_by(f64::total_cmp);
        for c in cuts {
            sim.run_until(at(c));
        }
        sim.run_until(at(4.0));
        let bits: Vec<u64> = sim.logical_snapshot().iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(bits, ref_bits);
        prop_assert_eq!(*sim.stats(), ref_stats);
    }
}
