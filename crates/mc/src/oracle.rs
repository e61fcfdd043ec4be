//! The invariant oracle: the paper's per-state obligations, evaluated at
//! every instant of every explored or fuzzed run.
//!
//! Three checks run per node per instant:
//!
//! 1. **Property 6.3** — `L_u(t) ≤ Lmax_u(t)`. The max estimate is
//!    maintained by raising it to every incoming `Lmax` and advancing it
//!    at the hardware rate, and the logical clock never jumps past it;
//!    the check asserts that composition really is an upper bound.
//! 2. **Definition 6.1 agreement** — the automaton's own `is_blocked`
//!    report must equal the predicate recomputed from its observable
//!    `(estimate, budget)` caps via [`gcs_core::predicate::is_blocked`].
//!    Since the production handlers call the same pure functions, a
//!    disagreement means the implementation's blocked/advance wiring
//!    diverged from the specification (exactly what the seeded mutants
//!    simulate).
//! 3. **Monotonicity** — `L_u` never decreases between instants, except
//!    across a restart of `u` (state loss resets the clock; the floor
//!    resets with it).
//!
//! Checks use exact comparisons except Property 6.3, which allows a
//! `1e-9` slack: `Lmax` and `L` advance through distinct but
//! mathematically equal floating-point expressions, and the paper's claim
//! is about real arithmetic.

use crate::model::{Model, ModelNode};
use gcs_net::NodeId;

/// Absolute slack for Property 6.3 (see module docs).
pub const P63_SLACK: f64 = 1e-9;

/// One invariant failure at one node at one instant.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Real time of the offending instant.
    pub time: f64,
    /// The offending node.
    pub node: NodeId,
    /// Which invariant failed, with the observed values.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "t={} node={}: {}",
            self.time,
            self.node.index(),
            self.message
        )
    }
}

/// Stateful invariant checker for one run (tracks per-node monotonicity
/// floors across instants).
#[derive(Debug)]
pub struct Oracle {
    floors: Vec<f64>,
    restarts_seen: Vec<u64>,
    violation: Option<Violation>,
}

impl Clone for Oracle {
    fn clone(&self) -> Self {
        Oracle {
            floors: self.floors.clone(),
            restarts_seen: self.restarts_seen.clone(),
            violation: self.violation.clone(),
        }
    }

    /// Copies `source` into `self`'s buffers (the explorer copies the
    /// oracle with every model). The exhaustive destructuring makes a new
    /// field fail to compile until it is copied here.
    fn clone_from(&mut self, source: &Self) {
        let Oracle {
            floors,
            restarts_seen,
            violation,
        } = source;
        self.floors.clone_from(floors);
        self.restarts_seen.clone_from(restarts_seen);
        self.violation.clone_from(violation);
    }
}

impl Oracle {
    /// A fresh oracle for an `n`-node run.
    pub fn new(n: usize) -> Self {
        Oracle {
            floors: vec![f64::NEG_INFINITY; n],
            restarts_seen: vec![0; n],
            violation: None,
        }
    }

    /// The first violation observed, if any.
    pub fn violation(&self) -> Option<&Violation> {
        self.violation.as_ref()
    }

    /// Checks every node at the model's current instant. Returns `true`
    /// while all invariants hold (the explorer wires this straight into
    /// the run callback: a violation stops the run).
    pub fn check<N: ModelNode>(&mut self, model: &Model<N>) -> bool {
        if self.violation.is_some() {
            return false;
        }
        let t = model.now().seconds();
        for i in 0..self.floors.len() {
            let u = NodeId::from_index(i);
            if model.is_crashed(u) {
                continue;
            }
            let probe = model.probe(u);

            // Property 6.3: L_u ≤ Lmax_u.
            if probe.logical > probe.max_estimate + P63_SLACK {
                self.violation = Some(Violation {
                    time: t,
                    node: u,
                    message: format!(
                        "Property 6.3 violated: L_u = {} > Lmax_u = {}",
                        probe.logical, probe.max_estimate
                    ),
                });
                return false;
            }

            // Definition 6.1: the node's own report must agree with the
            // predicate recomputed from its observable caps.
            let spec = gcs_core::predicate::is_blocked(
                probe.logical,
                probe.max_estimate,
                probe.caps.iter().copied(),
            );
            if probe.blocked != spec {
                self.violation = Some(Violation {
                    time: t,
                    node: u,
                    message: format!(
                        "Definition 6.1 disagreement: node reports blocked = {}, \
                         predicate over caps {:?} (L_u = {}, Lmax_u = {}) says {}",
                        probe.blocked, probe.caps, probe.logical, probe.max_estimate, spec
                    ),
                });
                return false;
            }

            // Monotonicity, floor reset across restarts of u.
            let restarts = model.restarts_of(u);
            if restarts != self.restarts_seen[i] {
                self.restarts_seen[i] = restarts;
                self.floors[i] = f64::NEG_INFINITY;
            }
            if probe.logical < self.floors[i] {
                self.violation = Some(Violation {
                    time: t,
                    node: u,
                    message: format!(
                        "logical clock regressed: L_u = {} < earlier {}",
                        probe.logical, self.floors[i]
                    ),
                });
                return false;
            }
            self.floors[i] = probe.logical;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DelayDecider, Scenario};
    use gcs_core::{AlgoParams, GradientNode};
    use gcs_net::{node, Edge};
    use gcs_sim::ModelParams;

    #[test]
    fn healthy_run_passes_all_instants() {
        let model = ModelParams::new(0.05, 1.0, 2.0);
        let sc = Scenario {
            name: "oracle-healthy".into(),
            algo: AlgoParams::with_minimal_b0(model, 2, 0.5),
            rates: vec![1.05, 0.95],
            initial_edges: vec![Edge::new(node(0), node(1))],
            topology: Vec::new(),
            faults: Vec::new(),
            delay_choices: vec![0.0, 1.0],
            horizon: 3.0,
        };
        sc.validate();
        let mut m = Model::new(&sc, |_| GradientNode::new(sc.algo));
        let mut oracle = Oracle::new(2);
        let mut decider = DelayDecider::trail(vec![1, 1, 0, 1, 0]);
        m.run(sc.horizon, &mut decider, |m, _| oracle.check(m));
        assert!(oracle.violation().is_none(), "{:?}", oracle.violation());
    }
}
