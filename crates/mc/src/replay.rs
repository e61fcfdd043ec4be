//! Counterexample replay: executing an ITF trace through the real engine.
//!
//! [`replay_trace`] serves a trace's scheduled nondeterminism through
//! the engine's own eager adapters: the recorded initial edges and churn
//! as a [`ScheduleSource`] over a validated [`TopologySchedule`], the
//! recorded crash/restart schedule as a [`FaultPlan`], and the recorded
//! constant per-node rates as a [`ScheduleDrift`], the plane
//! `SimBuilder::clocks` installs. A trace that breaks a schedule rule
//! (say, removing an absent edge) fails in that adapter's validator
//! before the run. The recorded per-send delays go in as a
//! [`DelayStrategy::Scripted`] script; discovery needs no input, because
//! the engine, like the model, discovers every change exactly `D` after
//! it.
//!
//! With every nondeterministic input pinned, the engine's trace is a
//! pure function of the trace file — and because the model interpreter
//! mirrors the engine's event order exactly, [`replay_trace`] demands
//! **bit identity**: at every recorded instant, every node's `L_u` and
//! `Lmax_u` must match the recorded snapshot to the last bit, at any
//! thread count. A mismatch fails with the first diverging node/instant.
//!
//! Replay reconstructs `AlgoParams` via `AlgoParams::new` (aging budget
//! policy) — the configuration of the engine-facing Algorithm 2. Traces
//! exported from baseline-policy mutants are inspection artifacts, not
//! replay inputs.

use crate::itf::Trace;
use gcs_clocks::{HardwareClock, ScheduleDrift, Time};
use gcs_core::{AlgoParams, GradientNode};
use gcs_net::{Edge, NodeId, ScheduleSource, TopologyEvent, TopologySchedule};
use gcs_sim::{DelayScript, DelayStrategy, FaultEvent, FaultPlan, ModelParams, SimBuilder};

/// Replays `trace` through the real engine at `threads` workers and
/// checks bit identity against the recorded snapshots.
///
/// Returns `Err` with the first divergence (instant, node, recorded vs
/// replayed bits) or any structural problem (unsorted snapshot times,
/// leftover scripted delays).
pub fn replay_trace(trace: &Trace, threads: usize) -> Result<(), String> {
    let model = ModelParams::new(trace.rho, trace.t, trace.d);
    let algo = AlgoParams::new(model, trace.n, trace.delta_h, trace.b0);
    let edge = |lo: u32, hi: u32| Edge::between(lo as usize, hi as usize);
    let initial = trace.initial_edges.iter().map(|&(lo, hi)| edge(lo, hi));
    let churn = trace.topology.iter().map(|ev| {
        let e = edge(ev.lo, ev.hi);
        if ev.add {
            TopologyEvent::add_at(ev.time, e)
        } else {
            TopologyEvent::remove_at(ev.time, e)
        }
    });
    let faults = trace.faults.iter().map(|ev| {
        let node = NodeId::from_index(ev.node as usize);
        if ev.restart {
            FaultEvent::restart(ev.time, node)
        } else {
            FaultEvent::crash(ev.time, node)
        }
    });
    let clocks = trace
        .rates
        .iter()
        .map(|&r| HardwareClock::constant(r, trace.rho));
    let script = DelayScript::new();
    for d in &trace.delays {
        script.push(
            NodeId::from_index(d.from as usize),
            NodeId::from_index(d.to as usize),
            d.delay,
        );
    }
    let schedule = TopologySchedule::new(trace.n, initial, churn.collect());
    let mut sim = SimBuilder::topology(model, ScheduleSource::new(schedule))
        .drift(ScheduleDrift::new(clocks.collect()))
        .faults(FaultPlan::new(faults.collect()))
        .delay(DelayStrategy::Scripted(script.clone()))
        .seed(0)
        .threads(threads)
        .build_with(|_| GradientNode::new(algo));

    let mut last = f64::NEG_INFINITY;
    for (idx, state) in trace.states.iter().enumerate() {
        if state.time <= last && idx > 0 {
            return Err(format!(
                "snapshot times must strictly increase (state {idx} at {})",
                state.time
            ));
        }
        last = state.time;
        sim.run_until(Time::new(state.time));
        for u in 0..trace.n {
            let node = NodeId::from_index(u);
            let logical = sim.logical(node);
            let lmax = sim.max_estimate_of(node);
            if logical.to_bits() != state.logical[u].to_bits() {
                return Err(format!(
                    "divergence at state {idx} (t = {}), node {u}: \
                     L_u replayed {logical:?} vs recorded {:?}",
                    state.time, state.logical[u]
                ));
            }
            if lmax.to_bits() != state.lmax[u].to_bits() {
                return Err(format!(
                    "divergence at state {idx} (t = {}), node {u}: \
                     Lmax_u replayed {lmax:?} vs recorded {:?}",
                    state.time, state.lmax[u]
                ));
            }
        }
    }
    let leftover = script.remaining();
    if leftover != 0 {
        return Err(format!(
            "{leftover} scripted delays were never consumed — the engine \
             made fewer sends than the model recorded"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{suite, trace_of_trail};

    #[test]
    fn healthy_static_trace_replays_bit_identical_at_1_and_2_threads() {
        let suite = suite(2);
        let sc = &suite[0];
        let (trace, oracle) = trace_of_trail(sc, |_| GradientNode::new(sc.algo), vec![1, 0, 1]);
        assert!(oracle.violation().is_none());
        assert!(!trace.states.is_empty() && !trace.delays.is_empty());
        replay_trace(&trace, 1).expect("single-thread replay");
        replay_trace(&trace, 2).expect("two-thread replay");
    }

    #[test]
    fn churn_and_fault_traces_replay_bit_identical() {
        for sc in suite(3)
            .iter()
            .filter(|sc| !sc.topology.is_empty() || !sc.faults.is_empty())
        {
            let (trace, oracle) = trace_of_trail(sc, |_| GradientNode::new(sc.algo), vec![1]);
            assert!(oracle.violation().is_none(), "{}", sc.name);
            replay_trace(&trace, 1).unwrap_or_else(|e| panic!("{}: {e}", sc.name));
        }
    }

    #[test]
    fn replay_round_trips_through_json() {
        let suite = suite(2);
        let sc = &suite[0];
        let (trace, _) = trace_of_trail(sc, |_| GradientNode::new(sc.algo), Vec::new());
        let parsed = Trace::from_json(&trace.to_json()).expect("parse");
        assert_eq!(parsed, trace);
        replay_trace(&parsed, 1).expect("replay of parsed trace");
    }

    #[test]
    #[should_panic(expected = "remove of absent edge")]
    fn parsed_trace_removing_an_absent_edge_fails_before_the_run() {
        let suite = suite(2);
        let sc = &suite[0];
        let (trace, _) = trace_of_trail(sc, |_| GradientNode::new(sc.algo), Vec::new());
        let mut parsed = Trace::from_json(&trace.to_json()).expect("parse");
        // Two removals of one edge at one instant: whether or not the
        // edge is up, one of them names an absent edge.
        let removal = crate::itf::TraceTopology {
            time: 0.5,
            add: false,
            lo: 0,
            hi: 1,
        };
        parsed.topology = vec![removal, removal];
        let _ = replay_trace(&parsed, 1);
    }

    #[test]
    fn corrupted_snapshot_is_rejected() {
        let suite = suite(2);
        let sc = &suite[0];
        let (mut trace, _) = trace_of_trail(sc, |_| GradientNode::new(sc.algo), Vec::new());
        let mid = trace.states.len() / 2;
        trace.states[mid].logical[0] += 1e-12;
        let err = replay_trace(&trace, 1).expect_err("tampered trace must fail");
        assert!(err.contains("divergence"), "{err}");
    }
}
