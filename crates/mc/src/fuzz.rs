//! Randomized long-schedule fuzzing over the same invariant oracle.
//!
//! The bounded explorer is exhaustive but shallow; the fuzzer is the
//! complementary probe — long horizons, continuous delay draws in
//! `[0, T]` (not just the exploration quantization), randomized churn and
//! crash/restart schedules — all checked by the same [`Oracle`] at every
//! instant. A violation is **greedily shrunk** before export: the horizon
//! is truncated at the violating instant, fault and topology events are
//! dropped one at a time, and every recorded delay is snapped toward `0`
//! or `T`, keeping each mutation only if the violation survives a
//! deterministic scripted re-run. The shrunken schedule is exported as an
//! ITF [`Trace`] exactly like an explorer counterexample.
//!
//! [`fuzz`] drives the production [`GradientNode`]; the generic
//! [`fuzz_with`] accepts any [`ModelNode`] factory so the mutation smoke
//! test can prove the fuzzer + shrinker pipeline actually catches and
//! minimizes defects.

use crate::itf::Trace;
use crate::model::{DelayDecider, Model, ModelNode, Scenario};
use crate::oracle::{Oracle, Violation};
use gcs_core::{AlgoParams, GradientNode};
use gcs_net::{node, Edge, TopologyEvent};
use gcs_sim::{FaultEvent, ModelParams};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Result of a fuzz batch.
#[derive(Clone, Debug)]
pub struct FuzzOutcome {
    /// Schedules executed.
    pub iterations: usize,
    /// Total instants checked by the oracle across all schedules.
    pub instants_checked: u64,
    /// First violation found, as `(shrunken trace, violation message)` —
    /// `None` means every schedule passed every invariant.
    pub violation: Option<(Trace, String)>,
}

/// Fuzzes the production Algorithm 2 node for `iterations` randomized
/// schedules derived from `seed`. See module docs.
pub fn fuzz(seed: u64, iterations: usize) -> FuzzOutcome {
    fuzz_with(seed, iterations, |sc: &Scenario| {
        let algo = sc.algo;
        move |_| GradientNode::new(algo)
    })
}

/// Generic fuzz driver: `mk` builds a per-scenario node factory (the
/// scenario carries the [`AlgoParams`] the nodes need).
pub fn fuzz_with<N, F, G>(seed: u64, iterations: usize, mk: F) -> FuzzOutcome
where
    N: ModelNode,
    F: Fn(&Scenario) -> G,
    G: FnMut(usize) -> N,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let mut instants_checked = 0u64;
    for iter in 0..iterations {
        let sc = random_scenario(&mut rng, iter);
        sc.validate();
        let mut factory = mk(&sc);
        let mut model = Model::new(&sc, &mut factory);
        let mut oracle = Oracle::new(sc.algo.n);
        let mut decider = DelayDecider::random(rng.next_u64(), sc.algo.model.t);
        let mut instants = 0u64;
        model.run(sc.horizon, &mut decider, |m, _| {
            instants += 1;
            oracle.check(m)
        });
        instants_checked += instants;
        if oracle.violation().is_some() {
            let delays = match decider {
                DelayDecider::Random { record, .. } => record,
                _ => unreachable!("fuzz runs use the random decider"),
            };
            let (trace, message) = shrink(&sc, delays, &mk);
            return FuzzOutcome {
                iterations: iter + 1,
                instants_checked,
                violation: Some((trace, message)),
            };
        }
    }
    FuzzOutcome {
        iterations,
        instants_checked,
        violation: None,
    }
}

/// One randomized scenario: path topology at `n ∈ {2, 3}`, continuous
/// rates in `[1 − ρ, 1 + ρ]`, optional single-edge churn and a
/// crash/restart pair, horizon in `[2, 6]`.
fn random_scenario(rng: &mut StdRng, iter: usize) -> Scenario {
    let model = ModelParams::new(0.05, 1.0, 2.0);
    let n = rng.gen_range(2..=3usize);
    let algo = AlgoParams::with_minimal_b0(model, n, 0.5);
    let rates: Vec<f64> = (0..n)
        .map(|_| rng.gen_range(1.0 - model.rho..=1.0 + model.rho))
        .collect();
    let path: Vec<Edge> = (0..n - 1)
        .map(|i| Edge::new(node(i), node(i + 1)))
        .collect();
    let horizon = rng.gen_range(2.0..6.0);

    let mut topology = Vec::new();
    if rng.gen_bool(0.5) {
        // Drop and later restore one path edge inside the horizon.
        let edge = path[rng.gen_range(0..path.len())];
        let t_remove = rng.gen_range(0.2..horizon * 0.5);
        let t_add = rng.gen_range(t_remove + 0.1..horizon * 0.9);
        topology.push(TopologyEvent::remove_at(t_remove, edge));
        topology.push(TopologyEvent::add_at(t_add, edge));
    }
    let mut faults = Vec::new();
    if rng.gen_bool(0.3) {
        let victim = node(rng.gen_range(0..n));
        let t_crash = rng.gen_range(0.2..horizon * 0.5);
        let t_restart = rng.gen_range(t_crash + 0.1..horizon * 0.9);
        faults.push(FaultEvent::crash(t_crash, victim));
        faults.push(FaultEvent::restart(t_restart, victim));
    }

    Scenario {
        name: format!("fuzz-{iter}"),
        algo,
        rates,
        initial_edges: path,
        topology,
        faults,
        delay_choices: vec![model.t],
        horizon,
    }
}

/// Scripted re-run returning the violation (if still present). Every
/// shrinking candidate must still validate.
fn rerun<N, F, G>(sc: &Scenario, delays: &[f64], mk: &F) -> Option<Violation>
where
    N: ModelNode,
    F: Fn(&Scenario) -> G,
    G: FnMut(usize) -> N,
{
    sc.validate();
    let mut factory = mk(sc);
    let mut model = Model::new(sc, &mut factory);
    let mut oracle = Oracle::new(sc.algo.n);
    let mut decider = DelayDecider::scripted(delays.to_vec(), sc.algo.model.t);
    model.run(sc.horizon, &mut decider, |m, _| oracle.check(m));
    oracle.violation().cloned()
}

/// Greedy shrinking (see module docs); returns the minimized trace and
/// its violation message.
fn shrink<N, F, G>(sc: &Scenario, delays: Vec<f64>, mk: &F) -> (Trace, String)
where
    N: ModelNode,
    F: Fn(&Scenario) -> G,
    G: FnMut(usize) -> N,
{
    let mut sc = sc.clone();
    let mut delays = delays;
    let violation = rerun(&sc, &delays, mk)
        .expect("a random-decider violation must reproduce under its own recorded delays");

    // 1. Truncate the horizon at the violating instant.
    {
        let mut candidate = sc.clone();
        candidate.horizon = violation.time.max(f64::MIN_POSITIVE);
        if rerun(&candidate, &delays, mk).is_some() {
            sc = candidate;
        }
    }
    // 2. Drop fault events one at a time (repeat until no drop helps).
    prune_events(&mut sc, &delays, mk, |sc| &mut sc.faults, |_, _| false);
    // 3. Drop topology events one at a time, each with the later events
    //    of its edge, so the log still alternates add and remove per edge
    //    (the engine rejects any other log at replay).
    prune_events(
        &mut sc,
        &delays,
        mk,
        |sc| &mut sc.topology,
        |dropped, ev| ev.edge == dropped.edge && ev.time > dropped.time,
    );
    // 4. Snap each delay to 0, else to T.
    let t = sc.algo.model.t;
    for i in 0..delays.len() {
        for snapped in [0.0, t] {
            if delays[i] == snapped {
                continue;
            }
            let saved = delays[i];
            delays[i] = snapped;
            if rerun(&sc, &delays, mk).is_some() {
                break;
            }
            delays[i] = saved;
        }
    }

    let message = rerun(&sc, &delays, mk)
        .expect("shrinking preserves the violation")
        .to_string();
    let mut factory = mk(&sc);
    let mut model = Model::new(&sc, &mut factory);
    let mut oracle = Oracle::new(sc.algo.n);
    let mut decider = DelayDecider::scripted(delays, sc.algo.model.t);
    let mut states = Vec::new();
    model.run(sc.horizon, &mut decider, |m, _| {
        oracle.check(m);
        states.push(m.snapshot());
        true
    });
    (
        Trace::build(&sc, model.sends(), states, Some(message.clone())),
        message,
    )
}

/// Removes every event (selected by `field`), together with the events
/// `tied` to it, whose removal preserves the violation.
fn prune_events<N, F, G, S, E>(
    sc: &mut Scenario,
    delays: &[f64],
    mk: &F,
    field: S,
    tied: impl Fn(&E, &E) -> bool,
) where
    N: ModelNode,
    F: Fn(&Scenario) -> G,
    G: FnMut(usize) -> N,
    S: Fn(&mut Scenario) -> &mut Vec<E>,
{
    let mut i = 0;
    while i < field(sc).len() {
        let mut candidate = sc.clone();
        let events = field(&mut candidate);
        let dropped = events.remove(i);
        events.retain(|ev| !tied(&dropped, ev));
        if rerun(&candidate, delays, mk).is_some() {
            *sc = candidate;
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutant::{smoke_scenario, MutantNode, Mutation};

    #[test]
    fn healthy_fuzz_batch_is_clean() {
        let outcome = fuzz(0xfeed, 6);
        assert_eq!(outcome.iterations, 6);
        assert!(outcome.instants_checked > 0);
        assert!(
            outcome.violation.is_none(),
            "{}",
            outcome.violation.unwrap().1
        );
    }

    #[test]
    fn fuzzer_catches_and_shrinks_a_mutant() {
        // Drive randomized delays through the Lmax-overwrite mutant on its
        // smoke scenario; the violation must surface and shrink to a
        // schedule of snapped delays with a truncated horizon.
        let sc = smoke_scenario(Mutation::LmaxOverwrite);
        let mut factory = |_| MutantNode::new(sc.algo, Mutation::LmaxOverwrite);
        let mut model = Model::new(&sc, &mut factory);
        let mut oracle = Oracle::new(sc.algo.n);
        let mut decider = DelayDecider::random(7, sc.algo.model.t);
        model.run(sc.horizon, &mut decider, |m, _| oracle.check(m));
        assert!(oracle.violation().is_some(), "mutant must trip the oracle");
        let delays = match decider {
            DelayDecider::Random { record, .. } => record,
            _ => unreachable!(),
        };
        let mk = |sc: &Scenario| {
            let algo = sc.algo;
            move |_| MutantNode::new(algo, Mutation::LmaxOverwrite)
        };
        let delays_before = delays.clone();
        let (trace, message) = shrink(&sc, delays, &mk);
        assert!(message.contains("Property 6.3"), "{message}");
        assert!(trace.horizon <= sc.horizon);
        // Greedy snapping keeps a drawn delay only when neither endpoint
        // preserves the violation — every delay is an endpoint or one of
        // the original draws, and at least one must have snapped.
        let t = sc.algo.model.t;
        assert!(trace
            .delays
            .iter()
            .all(|d| d.delay == 0.0 || d.delay == t || delays_before.contains(&d.delay)));
        assert!(
            trace.delays.iter().any(|d| d.delay == 0.0 || d.delay == t),
            "no delay snapped at all: {:?}",
            trace.delays
        );
        assert_eq!(trace.violation.as_deref(), Some(message.as_str()));
    }

    #[test]
    fn shrinking_churn_keeps_a_valid_topology_log() {
        // Churn the mutant's edge early: the violation needs neither
        // event, so both go, the removal taking its edge's later add
        // with it (an add of the live edge alone would not replay).
        let mut sc = smoke_scenario(Mutation::LmaxOverwrite);
        let edge = sc.initial_edges[0];
        sc.topology = vec![
            gcs_net::TopologyEvent::remove_at(0.3, edge),
            gcs_net::TopologyEvent::add_at(0.6, edge),
        ];
        sc.validate();
        let mk = |sc: &Scenario| {
            let algo = sc.algo;
            move |_| MutantNode::new(algo, Mutation::LmaxOverwrite)
        };
        let mut model = Model::new(&sc, mk(&sc));
        let mut oracle = Oracle::new(sc.algo.n);
        let mut decider = DelayDecider::random(7, sc.algo.model.t);
        model.run(sc.horizon, &mut decider, |m, _| oracle.check(m));
        let DelayDecider::Random { record, .. } = decider else {
            unreachable!()
        };
        let (trace, message) = shrink(&sc, record, &mk);
        assert!(message.contains("Property 6.3"), "{message}");
        assert!(trace.topology.is_empty(), "{:?}", trace.topology);
    }
}
