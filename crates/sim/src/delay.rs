//! Message-delay adversaries.
//!
//! The environment may delay each message by any amount in `[0, T]`. The
//! lower-bound proofs pick delays adversarially — in particular the
//! Masking Lemma's execution α gives *constrained* edges a prescribed delay
//! `P(e)` and orients all other edges so that "uphill" messages take `T`
//! and "downhill" messages take `0`. [`DelayStrategy`] covers all the
//! adversaries used in the paper and the experiments.

use crate::automaton::RngHandle;
use gcs_clocks::Time;
use gcs_net::{Edge, NodeId};
use rand::Rng;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

/// How the environment assigns message delays.
#[derive(Clone, Debug)]
pub enum DelayStrategy {
    /// Every message takes exactly `delay` (must be `≤ T`).
    Constant(f64),
    /// Every message takes the maximum delay `T`.
    Max,
    /// Instant delivery (delay 0).
    Zero,
    /// Uniformly random delay in `[lo, hi] ⊆ [0, T]`.
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// The Masking Lemma's execution-α adversary.
    ///
    /// Constrained edges (the delay mask's `E_C`) get their prescribed
    /// delay `P(e)`. Unconstrained edges are oriented by `layer` (the
    /// flexible distance `dist_M(u, ·)`): messages from lower to higher
    /// layer take `T`, messages from higher to lower layer take `0`, and
    /// messages within a layer take `intra` (the paper leaves these free;
    /// we default them to 0).
    Layered {
        /// `layer[w]` = flexible distance of node `w` from the reference.
        layer: Vec<usize>,
        /// Prescribed delays on constrained edges.
        constrained: BTreeMap<Edge, f64>,
        /// Delay for messages between same-layer unconstrained nodes.
        intra: f64,
    },
    /// Per-edge override on top of a default strategy.
    Masked {
        /// Prescribed delays for specific edges.
        pattern: BTreeMap<Edge, f64>,
        /// Fallback for everything else.
        default: Box<DelayStrategy>,
    },
    /// Replays a prescribed per-directed-link delay script — the
    /// trace-replay adversary of the model checker (`gcs-mc`): every send
    /// from `u` to `v` pops the next entry of the `(u, v)` queue, so an
    /// explored execution's exact delay choices drive the engine.
    /// **Fail-closed**: a send with no scripted entry left panics — a
    /// replay that diverges from its trace must never silently invent a
    /// delay. Deterministic at every thread count because a directed
    /// link's sends all originate at one node, whose events the engine
    /// processes in canonical sequence order.
    Scripted(DelayScript),
    /// The Masking Lemma's execution-β adversary (Lemma 4.2, Part II).
    ///
    /// In execution β a node in layer `j` has hardware clock
    /// `H^β(t) = t + min{ρt, T·j}` and message delays are chosen so that β
    /// is indistinguishable from the execution α produced by
    /// [`DelayStrategy::Layered`]: a message α-sent at `tα_s` and α-received
    /// at `tα_r` is β-sent at `tβ_s` with `H^β_x(tβ_s) = tα_s` and
    /// β-received at `tβ_r` with `H^β_y(tβ_r) = tα_r`. This variant
    /// computes `tβ_r − tβ_s` in closed form from the forward map and its
    /// inverse; the paper's four-case analysis proves the result always
    /// lies in `[0, T]` (and in `[P(e)/(1+ρ), P(e)]` on constrained edges).
    BetaLayered {
        /// `layer[w]` = flexible distance of node `w` from the reference.
        layer: Vec<usize>,
        /// Prescribed α-delays on constrained edges.
        constrained: BTreeMap<Edge, f64>,
        /// Drift bound ρ used in the layered rate schedules.
        rho: f64,
        /// α-delay for messages between same-layer unconstrained nodes.
        intra: f64,
    },
}

/// The shared queue state of [`DelayStrategy::Scripted`]: one FIFO of
/// prescribed delays per **directed** node pair, pushed in global send
/// order by the trace exporter and popped in the same order by the
/// engine. The handle is cheaply cloneable (the replay harness keeps a
/// clone to assert the script drained — a leftover entry means the engine
/// sent fewer messages than the model did).
#[derive(Clone, Debug, Default)]
pub struct DelayScript {
    queues: Arc<Mutex<ScriptQueues>>,
}

/// One FIFO of prescribed delays per directed `(from, to)` node pair.
type ScriptQueues = BTreeMap<(u32, u32), VecDeque<f64>>;

impl DelayScript {
    /// An empty script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a prescribed delay for the next unscripted send from
    /// `from` to `to`.
    pub fn push(&self, from: NodeId, to: NodeId, delay: f64) {
        assert!(
            delay.is_finite() && delay >= 0.0,
            "scripted delays must be finite and >= 0, got {delay}"
        );
        self.queues
            .lock()
            .expect("delay script lock poisoned")
            .entry((from.0, to.0))
            .or_default()
            .push_back(delay);
    }

    /// Prescribed delays not yet consumed (0 once the replay has used
    /// every scripted send).
    pub fn remaining(&self) -> usize {
        self.queues
            .lock()
            .expect("delay script lock poisoned")
            .values()
            .map(VecDeque::len)
            .sum()
    }

    /// Pops the next delay for a `from → to` send.
    ///
    /// # Panics
    /// Panics when the queue for that directed pair is exhausted (or was
    /// never scripted) — the fail-closed replay contract.
    fn pop(&self, from: NodeId, to: NodeId) -> f64 {
        self.queues
            .lock()
            .expect("delay script lock poisoned")
            .get_mut(&(from.0, to.0))
            .and_then(VecDeque::pop_front)
            .unwrap_or_else(|| {
                panic!(
                    "delay script exhausted for send {} -> {}: \
                     the replayed execution sent more messages than its trace",
                    from.0, to.0
                )
            })
    }
}

/// `H^β` of the Masking Lemma: `t + min{ρt, T·layer}` (Equation (1)).
#[inline]
pub fn beta_hw(t: f64, layer: usize, rho: f64, big_t: f64) -> f64 {
    t + (rho * t).min(big_t * layer as f64)
}

/// Inverse of [`beta_hw`] in `t` for fixed layer.
#[inline]
pub fn beta_hw_inverse(h: f64, layer: usize, rho: f64, big_t: f64) -> f64 {
    // The kink is at t* = layer·T/ρ, where h* = (1+ρ)·layer·T/ρ.
    let h_kink = (1.0 + rho) * big_t * layer as f64 / rho;
    if h <= h_kink {
        h / (1.0 + rho)
    } else {
        h - big_t * layer as f64
    }
}

/// The Masking Lemma's execution-α delay of a message from layer `jx` to
/// layer `jy`: the prescribed `P(e)` on a constrained edge, otherwise `T`
/// uphill, `0` downhill and `intra` within a layer.
#[inline]
pub fn alpha_delay(prescribed: Option<f64>, jx: usize, jy: usize, big_t: f64, intra: f64) -> f64 {
    match prescribed {
        Some(p) => p,
        None => match jx.cmp(&jy) {
            std::cmp::Ordering::Less => big_t,
            std::cmp::Ordering::Greater => 0.0,
            std::cmp::Ordering::Equal => intra,
        },
    }
}

/// The Masking Lemma's execution-β delay, unclamped, of a message β-sent
/// at `tb_send` from layer `jx` to layer `jy` whose α delay is `alpha`:
/// map through the clock correspondence, `tα_s = H^β_x(tβ_s)`,
/// `tα_r = tα_s + alpha`, `tβ_r = (H^β_y)⁻¹(tα_r)`, and return
/// `tβ_r − tβ_s`.
#[inline]
pub fn beta_delay(alpha: f64, tb_send: f64, jx: usize, jy: usize, rho: f64, big_t: f64) -> f64 {
    let ta_s = beta_hw(tb_send, jx, rho, big_t);
    let ta_r = ta_s + alpha;
    let tb_r = beta_hw_inverse(ta_r, jy, rho, big_t);
    tb_r - tb_send
}

impl DelayStrategy {
    /// Panics unless every delay this strategy fixes up front is finite
    /// and in `[0, T]` and its layer vector covers all `n` nodes — the
    /// release-build check `SimBuilder::build_with` runs, so an
    /// out-of-range adversary fails closed instead of being clamped (or
    /// indexing past its layers) mid-run. Checked: `Constant`, both
    /// `Uniform` bounds (`lo <= hi`), the `Masked` pattern and, in turn,
    /// its default, and the `constrained` and `intra` delays, layer
    /// length and (for `BetaLayered`) `ρ ≥ 0` of the layered
    /// adversaries. `Scripted` delays and the computed β delays are not
    /// known up front and keep the runtime clamp of [`delay`](Self::delay).
    pub(crate) fn validate(&self, big_t: f64, n: usize) {
        let ok = |d: f64| d.is_finite() && (0.0..=big_t).contains(&d);
        let check = |d: f64, what: std::fmt::Arguments<'_>| {
            assert!(ok(d), "{what} delay {d} outside [0, T = {big_t}]")
        };
        match self {
            DelayStrategy::Constant(d) => check(*d, format_args!("constant")),
            DelayStrategy::Max | DelayStrategy::Zero | DelayStrategy::Scripted(_) => {}
            &DelayStrategy::Uniform { lo, hi } => assert!(
                ok(lo) && ok(hi) && lo <= hi,
                "delay range [{lo}, {hi}] outside 0 <= lo <= hi <= T = {big_t}"
            ),
            DelayStrategy::Masked { pattern, default } => {
                for (edge, &d) in pattern {
                    check(d, format_args!("masked {edge:?}"));
                }
                default.validate(big_t, n);
            }
            DelayStrategy::Layered {
                layer,
                constrained,
                intra,
            }
            | DelayStrategy::BetaLayered {
                layer,
                constrained,
                intra,
                ..
            } => {
                let len = layer.len();
                assert!(
                    len == n,
                    "delay layer vector has {len} entries for n = {n} nodes"
                );
                for (edge, &d) in constrained {
                    check(d, format_args!("constrained {edge:?}"));
                }
                check(*intra, format_args!("intra-layer"));
                if let DelayStrategy::BetaLayered { rho, .. } = self {
                    assert!(
                        rho.is_finite() && *rho >= 0.0,
                        "beta drift bound rho = {rho} must be finite and >= 0"
                    );
                }
            }
        }
    }

    /// The delay for a message sent at `now` from `from` across `edge`,
    /// drawing (if at all) from `rng`, the sender's stream: a lazy one
    /// materializes only when the strategy draws.
    ///
    /// `big_t` is the model's delay bound `T`; the returned value is always
    /// clamped into `[0, T]` and asserted against the strategy's own
    /// parameters in debug builds. Static delays are range-checked once,
    /// in every build, by `validate`.
    pub(crate) fn delay(
        &self,
        edge: Edge,
        from: NodeId,
        now: Time,
        big_t: f64,
        rng: &mut RngHandle<'_>,
    ) -> f64 {
        let raw = match self {
            DelayStrategy::Constant(d) => *d,
            DelayStrategy::Max => big_t,
            DelayStrategy::Zero => 0.0,
            DelayStrategy::Uniform { lo, hi } => {
                debug_assert!(lo <= hi && *lo >= 0.0 && *hi <= big_t);
                if lo == hi {
                    *lo
                } else {
                    rng.get().gen_range(*lo..=*hi)
                }
            }
            DelayStrategy::Layered {
                layer,
                constrained,
                intra,
            } => {
                let (jx, jy) = (layer[from.index()], layer[edge.other(from).index()]);
                alpha_delay(constrained.get(&edge).copied(), jx, jy, big_t, *intra)
            }
            DelayStrategy::Masked { pattern, default } => match pattern.get(&edge) {
                Some(&d) => d,
                None => default.delay(edge, from, now, big_t, rng),
            },
            DelayStrategy::Scripted(script) => script.pop(from, edge.other(from)),
            DelayStrategy::BetaLayered {
                layer,
                constrained,
                rho,
                intra,
            } => {
                let (jx, jy) = (layer[from.index()], layer[edge.other(from).index()]);
                let alpha = alpha_delay(constrained.get(&edge).copied(), jx, jy, big_t, *intra);
                beta_delay(alpha, now.seconds(), jx, jy, *rho, big_t).max(0.0)
            }
        };
        debug_assert!(
            (0.0..=big_t + 1e-12).contains(&raw),
            "strategy produced delay {raw} outside [0, {big_t}]"
        );
        raw.clamp(0.0, big_t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_clocks::time::at;
    use gcs_net::node;
    use rand::rngs::StdRng;

    /// `s.delay` at `T = 1` for a send from node `from` across `edge` at
    /// time `now`, drawing through a lazy handle over `slot`, as the
    /// engine hands one to the strategy.
    fn delay(
        s: &DelayStrategy,
        slot: &mut Option<Box<StdRng>>,
        edge: Edge,
        from: usize,
        now: f64,
    ) -> f64 {
        let mut rng = RngHandle::Lazy {
            slot,
            seed: 1,
            index: from,
        };
        s.delay(edge, node(from), at(now), 1.0, &mut rng)
    }

    fn e(i: usize, j: usize) -> Edge {
        Edge::between(i, j)
    }

    #[test]
    fn constant_and_extremes() {
        let slot = &mut None;
        assert_eq!(
            delay(&DelayStrategy::Constant(0.3), slot, e(0, 1), 0, 0.0),
            0.3
        );
        assert_eq!(delay(&DelayStrategy::Max, slot, e(0, 1), 0, 0.0), 1.0);
        assert_eq!(delay(&DelayStrategy::Zero, slot, e(0, 1), 0, 0.0), 0.0);
    }

    #[test]
    fn uniform_in_range() {
        let slot = &mut None;
        let s = DelayStrategy::Uniform { lo: 0.2, hi: 0.8 };
        for _ in 0..100 {
            let d = delay(&s, slot, e(0, 1), 0, 0.0);
            assert!((0.2..=0.8).contains(&d));
        }
    }

    #[test]
    fn layered_orients_delays() {
        let s = DelayStrategy::Layered {
            layer: vec![0, 1, 1, 2],
            constrained: [(e(1, 2), 0.5)].into_iter().collect(),
            intra: 0.0,
        };
        let slot = &mut None;
        // uphill 0->1: T
        assert_eq!(delay(&s, slot, e(0, 1), 0, 0.0), 1.0);
        // downhill 1->0: 0
        assert_eq!(delay(&s, slot, e(0, 1), 1, 0.0), 0.0);
        // constrained edge: prescribed delay regardless of direction
        assert_eq!(delay(&s, slot, e(1, 2), 1, 0.0), 0.5);
        assert_eq!(delay(&s, slot, e(1, 2), 2, 0.0), 0.5);
        // uphill 2->3 (layer 1 -> 2): T
        assert_eq!(delay(&s, slot, e(2, 3), 2, 0.0), 1.0);
    }

    #[test]
    fn masked_overrides_default() {
        let s = DelayStrategy::Masked {
            pattern: [(e(0, 1), 0.25)].into_iter().collect(),
            default: Box::new(DelayStrategy::Max),
        };
        let slot = &mut None;
        assert_eq!(delay(&s, slot, e(0, 1), 0, 0.0), 0.25);
        assert_eq!(delay(&s, slot, e(1, 2), 1, 0.0), 1.0);
    }

    /// The sender's stream materializes exactly when a strategy draws:
    /// every strategy that fixes its delays leaves the slot empty, and a
    /// drawing one (alone or as a mask's default) fills it.
    #[test]
    fn only_drawing_strategies_materialize_the_stream() {
        let layer = vec![0, 1];
        let script = DelayScript::new();
        script.push(node(0), node(1), 0.5);
        let masked = |default: DelayStrategy| DelayStrategy::Masked {
            pattern: BTreeMap::new(),
            default: Box::new(default),
        };
        let drawing = DelayStrategy::Uniform { lo: 0.1, hi: 0.9 };
        let fixed = [
            DelayStrategy::Max,
            DelayStrategy::Zero,
            DelayStrategy::Constant(0.5),
            DelayStrategy::Uniform { lo: 0.5, hi: 0.5 },
            DelayStrategy::Layered {
                layer: layer.clone(),
                constrained: BTreeMap::new(),
                intra: 0.0,
            },
            DelayStrategy::BetaLayered {
                layer,
                constrained: BTreeMap::new(),
                rho: 0.1,
                intra: 0.0,
            },
            DelayStrategy::Scripted(script),
            masked(DelayStrategy::Max),
        ];
        for s in &fixed {
            let mut slot = None;
            delay(s, &mut slot, e(0, 1), 0, 1.0);
            assert!(slot.is_none(), "{s:?} materialized the stream");
        }
        for s in [drawing.clone(), masked(drawing)] {
            let mut slot = None;
            delay(&s, &mut slot, e(0, 1), 0, 1.0);
            assert!(
                slot.is_some(),
                "{s:?} drew without materializing the stream"
            );
        }
    }

    #[test]
    fn scripted_pops_per_directed_pair_in_fifo_order() {
        let script = DelayScript::new();
        script.push(node(0), node(1), 0.25);
        script.push(node(0), node(1), 0.75);
        script.push(node(1), node(0), 0.0);
        let s = DelayStrategy::Scripted(script.clone());
        assert_eq!(script.remaining(), 3);
        let slot = &mut None;
        // Directed: 0 -> 1 and 1 -> 0 consume independent queues.
        assert_eq!(delay(&s, slot, e(0, 1), 0, 0.0), 0.25);
        assert_eq!(delay(&s, slot, e(0, 1), 1, 0.0), 0.0);
        assert_eq!(delay(&s, slot, e(0, 1), 0, 1.0), 0.75);
        assert_eq!(script.remaining(), 0, "script fully drained");
    }

    #[test]
    #[should_panic(expected = "delay script exhausted")]
    fn scripted_fails_closed_on_underrun() {
        let script = DelayScript::new();
        script.push(node(0), node(1), 0.5);
        let s = DelayStrategy::Scripted(script);
        let slot = &mut None;
        let _ = delay(&s, slot, e(0, 1), 0, 0.0);
        let _ = delay(&s, slot, e(0, 1), 0, 1.0);
    }

    #[test]
    fn clamps_to_bound() {
        // A constant above T is clamped (and would assert in debug for the
        // strategy's own parameter — use release-style tolerance here).
        let d = delay(&DelayStrategy::Constant(0.5), &mut None, e(0, 1), 0, 0.0);
        assert!(d <= 1.0);
    }
}
