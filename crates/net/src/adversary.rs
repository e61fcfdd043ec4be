//! Adversarial topology control: chord attacks against gradient skew.
//!
//! The Ω(log n / log log n) lower bound of Kuhn–Locher–Oshman (Theorem
//! 4.1) is driven by an *adaptive topology adversary*: it lets two nodes
//! sit at large graph distance while bounded drift silently separates
//! their logical clocks, then inserts a direct edge between them — the
//! accumulated end-to-end skew instantly becomes *local* skew across one
//! hop, and the algorithm needs time (the paper shows: unavoidably
//! Ω(log n / log log n) · D of it in the worst case) to dissipate it.
//!
//! [`adversarial_churn`] is the empirical companion to that argument.
//! The base topology is the path `0 — 1 — … — n−1` with its middle edge
//! cut: two *islands* whose clocks the protocol cannot compare, so
//! bounded drift separates them at the full rate `2ρ` — the adversary's
//! reservoir of skew. On top the adversary plays a finite list of
//! [`BridgeAttack`]s — chord insertions at chosen instants, each
//! optionally removed again after a chosen lifetime so a later attack
//! can reuse the chord. The instant a chord lands across the cut, the
//! accumulated inter-island skew becomes one-hop *local* skew. The
//! attacks expand into a validated [`TopologySchedule`], which a
//! [`ScheduleSource`](crate::ScheduleSource) streams to the engine
//! exactly like every well-behaved workload, bit-identical at every
//! thread count.
//!
//! [`greedy_worst_case`] searches attack *placement and timing* for the
//! worst peak local skew: it scores a caller-supplied candidate set (the
//! caller's closure runs a full simulation per candidate and reports the
//! peak), keeps the best, then hill-climbs its insertion time with a
//! deterministic shrinking step. The search itself draws no randomness —
//! given the same candidates and evaluator it always returns the same
//! attack — so experiment traces built from its output are replayable.

use crate::generators;
use crate::ids::Edge;
use crate::schedule::{add_at, remove_at, TopologyEventKind, TopologySchedule};

/// One chord attack: insert `edge` at `time`; if `lifetime` is finite,
/// remove it again at `time + lifetime`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BridgeAttack {
    /// Insertion instant (must be `> 0`).
    pub time: f64,
    /// The chord to insert. Must not be a path edge `{i, i+1}`.
    pub edge: Edge,
    /// How long the chord stays up; `f64::INFINITY` keeps it forever.
    pub lifetime: f64,
}

impl BridgeAttack {
    /// An attack inserting `edge` at `time` and keeping it up forever.
    pub fn permanent(time: f64, edge: Edge) -> Self {
        BridgeAttack {
            time,
            edge,
            lifetime: f64::INFINITY,
        }
    }

    /// An attack inserting `edge` at `time` and removing it after
    /// `lifetime`.
    pub fn transient(time: f64, edge: Edge, lifetime: f64) -> Self {
        BridgeAttack {
            time,
            edge,
            lifetime,
        }
    }
}

/// Two path islands (`0 — … — n/2−1` and `n/2 — … — n−1`) attacked by
/// `attacks`, as a validated schedule. See the module docs for why this
/// is the canonical worst-case family. Validates each attack: times
/// `> 0` and finite, lifetimes `> 0` (possibly infinite), chords must
/// span non-adjacent path positions, and the same chord must not be
/// re-inserted while still up.
pub fn adversarial_churn(n: usize, attacks: &[BridgeAttack]) -> TopologySchedule {
    assert!(n >= 3, "need at least 3 nodes for a chord");
    let mut events = Vec::with_capacity(attacks.len() * 2);
    for a in attacks {
        assert!(
            a.time > 0.0 && a.time.is_finite(),
            "attack time must be positive and finite, got {}",
            a.time
        );
        assert!(a.lifetime > 0.0, "attack lifetime must be > 0");
        let (i, j) = (a.edge.lo().index(), a.edge.hi().index());
        assert!(j < n, "chord endpoint {j} out of range for n = {n}");
        assert!(
            j - i >= 2,
            "chord {:?} is a path edge or self-loop; attacks must span distance >= 2",
            a.edge
        );
        events.push(add_at(a.time, a.edge));
        if a.lifetime.is_finite() {
            events.push(remove_at(a.time + a.lifetime, a.edge));
        }
    }
    events.sort_by(|x, y| x.time.cmp(&y.time).then(x.edge.cmp(&y.edge)));
    // Reject overlapping lives of one chord: the expanded log must
    // alternate add/remove per edge, which is exactly what the schedule
    // validator enforces — fail here with a clearer message.
    for pair in events.windows(2) {
        if pair[0].edge == pair[1].edge {
            assert!(
                pair[0].kind != pair[1].kind,
                "chord {:?} re-{}ed while already in that state (overlapping attacks?)",
                pair[0].edge,
                match pair[1].kind {
                    TopologyEventKind::Add => "insert",
                    TopologyEventKind::Remove => "remov",
                }
            );
        }
    }
    // The path minus its middle edge: two islands drifting apart.
    let cut = n / 2 - 1;
    let islands = generators::path(n)
        .into_iter()
        .filter(|e| e.lo().index() != cut);
    TopologySchedule::new(n, islands, events)
}

/// Greedy search for the worst-case [`BridgeAttack`] on the two-island
/// path.
///
/// Scores every candidate with `evaluate` (typically: run the protocol
/// under `ScheduleSource::new(adversarial_churn(n, &[candidate]))` and
/// return the peak local skew), keeps the argmax, then hill-climbs its insertion
/// time: `refine_steps` rounds of trying `time ± step` with `step`
/// halving whenever neither direction improves. Ties keep the incumbent
/// (earlier candidate / unmoved time), so the search is deterministic.
///
/// Returns the best attack and its score. Panics if `candidates` is
/// empty or an evaluation returns NaN.
pub fn greedy_worst_case(
    candidates: Vec<BridgeAttack>,
    refine_steps: usize,
    mut evaluate: impl FnMut(BridgeAttack) -> f64,
) -> (BridgeAttack, f64) {
    assert!(!candidates.is_empty(), "need at least one candidate attack");
    let mut scored = candidates.into_iter().map(|c| {
        let s = evaluate(c);
        assert!(!s.is_nan(), "evaluator returned NaN for {c:?}");
        (c, s)
    });
    let (mut best, mut best_score) = scored.next().expect("non-empty");
    for (c, s) in scored {
        if s > best_score {
            (best, best_score) = (c, s);
        }
    }
    // Refine timing around the winner with a deterministic shrinking step.
    let mut step = best.time * 0.25;
    for _ in 0..refine_steps {
        let mut improved = false;
        for dir in [-1.0, 1.0] {
            let t = best.time + dir * step;
            if t <= 0.0 {
                continue;
            }
            let cand = BridgeAttack { time: t, ..best };
            let s = evaluate(cand);
            assert!(!s.is_nan(), "evaluator returned NaN for {cand:?}");
            if s > best_score {
                (best, best_score) = (cand, s);
                improved = true;
            }
        }
        if !improved {
            step *= 0.5;
        }
    }
    (best, best_score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_clocks::time::at;

    #[test]
    fn expands_attacks_into_a_valid_schedule() {
        let sched = adversarial_churn(
            8,
            &[
                BridgeAttack::transient(5.0, Edge::between(0, 7), 3.0),
                BridgeAttack::permanent(2.0, Edge::between(2, 5)),
            ],
        );
        assert_eq!(sched.n(), 8);
        assert_eq!(sched.initial_edges().count(), 6, "two path islands");
        assert_eq!(sched.events().len(), 3, "two adds + one remove");
        assert_eq!(sched.events()[0].time, at(2.0), "sorted by time");
    }

    #[test]
    #[should_panic(expected = "distance >= 2")]
    fn rejects_path_edge_chords() {
        adversarial_churn(6, &[BridgeAttack::permanent(1.0, Edge::between(2, 3))]);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn rejects_overlapping_lives_of_one_chord() {
        adversarial_churn(
            6,
            &[
                BridgeAttack::transient(1.0, Edge::between(0, 5), 10.0),
                BridgeAttack::transient(5.0, Edge::between(0, 5), 1.0),
            ],
        );
    }

    #[test]
    fn greedy_search_finds_the_peak_and_refines_toward_it() {
        // Score is a tent function of insertion time peaking at t = 60;
        // the searcher should walk the winning candidate toward it.
        let candidates = vec![
            BridgeAttack::permanent(30.0, Edge::between(0, 9)),
            BridgeAttack::permanent(50.0, Edge::between(0, 9)),
            BridgeAttack::permanent(80.0, Edge::between(0, 9)),
        ];
        let (best, score) = greedy_worst_case(candidates, 8, |a| -(a.time - 60.0).abs());
        assert!((best.time - 60.0).abs() < 4.0, "refined near the peak");
        assert!(score > -4.0);
        // Determinism: same inputs, same output.
        let candidates = vec![
            BridgeAttack::permanent(30.0, Edge::between(0, 9)),
            BridgeAttack::permanent(50.0, Edge::between(0, 9)),
            BridgeAttack::permanent(80.0, Edge::between(0, 9)),
        ];
        let (again, score2) = greedy_worst_case(candidates, 8, |a| -(a.time - 60.0).abs());
        assert_eq!(best, again);
        assert_eq!(score, score2);
    }
}
