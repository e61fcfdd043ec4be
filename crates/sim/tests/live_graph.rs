//! The engine's live edge set `E(t)`, read through `Simulator::graph`,
//! against the schedule it replays: after every event time the view's
//! edges, every node's neighbors and edge membership equal
//! `TopologySchedule::edges_at`.
//!
//! At three threads (parallel threshold 1) every segment is forked over
//! three node shards while batches apply to the one edge store, and a
//! neighbor query for a higher endpoint reads its lower neighbors' rows.

use gcs_clocks::time::at;
use gcs_clocks::Time;
use gcs_net::schedule::{TopologyEvent, TopologyEventKind};
use gcs_net::{node, Edge, NodeId, ScheduleSource, TopologySchedule};
use gcs_sim::{
    Automaton, Context, LinkChange, Message, ModelParams, SimBuilder, Simulator, TimerKind,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Does nothing: the property concerns the topology plane alone.
struct Idle;

impl Automaton for Idle {
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}
    fn on_receive(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _msg: Message) {}
    fn on_discover(&mut self, _ctx: &mut Context<'_>, _change: LinkChange) {}
    fn on_alarm(&mut self, _ctx: &mut Context<'_>, _kind: TimerKind) {}
    fn logical_clock(&self, hw: f64) -> f64 {
        hw
    }
}

const N: usize = 7;

fn potential_edges() -> Vec<Edge> {
    (0..N)
        .flat_map(|i| (i + 1..N).map(move |j| Edge::between(i, j)))
        .collect()
}

/// Strategy: a random *valid* schedule over `N` nodes. Each toggle flips
/// one potential edge, `0`, `0.5` or `1` time units after the previous
/// toggle — so several changes often share an instant (one batch) — and
/// an edge already flipped at the current instant is skipped.
fn arb_schedule() -> impl Strategy<Value = TopologySchedule> {
    let potential = potential_edges();
    let m = potential.len();
    (
        prop::collection::vec(any::<bool>(), m),
        prop::collection::vec((0usize..m, 0u8..3), 0..60),
    )
        .prop_map(move |(initial_mask, toggles)| {
            let initial: Vec<Edge> = potential
                .iter()
                .zip(&initial_mask)
                .filter(|(_, &up)| up)
                .map(|(&e, _)| e)
                .collect();
            let mut present: BTreeSet<Edge> = initial.iter().copied().collect();
            let mut t = 0.5;
            let mut flipped_now = BTreeSet::new();
            let mut events = Vec::new();
            for (idx, step) in toggles {
                if step > 0 {
                    t += 0.5 * f64::from(step);
                    flipped_now.clear();
                }
                let e = potential[idx];
                if !flipped_now.insert(e) {
                    continue;
                }
                let kind = if present.remove(&e) {
                    TopologyEventKind::Remove
                } else {
                    present.insert(e);
                    TopologyEventKind::Add
                };
                events.push(TopologyEvent {
                    time: Time::new(t),
                    kind,
                    edge: e,
                });
            }
            TopologySchedule::new(N, initial, events)
        })
}

/// Asserts that `sim.graph()` shows exactly `expected`.
fn assert_view(sim: &Simulator<Idle>, expected: &BTreeSet<Edge>) {
    let view = sim.graph();
    let edges: Vec<Edge> = view.edges().collect();
    assert_eq!(edges, expected.iter().copied().collect::<Vec<_>>());
    for u in (0..N).map(node) {
        let mut adjacency: Vec<NodeId> = expected
            .iter()
            .filter(|e| e.touches(u))
            .map(|e| e.other(u))
            .collect();
        adjacency.sort_unstable();
        assert_eq!(view.neighbors(u).collect::<Vec<_>>(), adjacency, "{u:?}");
    }
    for e in potential_edges() {
        assert_eq!(view.contains(e), expected.contains(&e), "{e:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn live_view_matches_the_schedule_at_every_event_time(sched in arb_schedule()) {
        let mut times: Vec<Time> = sched.events().iter().map(|ev| ev.time).collect();
        times.dedup();
        for threads in [1, 3] {
            let mut sim = SimBuilder::topology(
                ModelParams::new(0.01, 1.0, 2.0),
                ScheduleSource::new(sched.clone()),
            )
            .threads(threads)
            .par_threshold(1)
            .build_with(|_| Idle);
            assert_view(&sim, &sched.edges_at(at(0.0)));
            for &t in &times {
                sim.run_until(t);
                assert_view(&sim, &sched.edges_at(t));
            }
        }
    }
}
