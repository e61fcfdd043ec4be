//! Dynamic-topology generators (churn models).
//!
//! Each builder returns a validated [`TopologySchedule`]. The paper's model
//! permits *arbitrary* edge churn subject to T-interval connectivity
//! (Definition 3.1), so these builders are parameterized to let callers
//! stay inside — or deliberately step outside — that envelope:
//!
//! * [`rotating_star`] — the canonical "always changing, never stable"
//!   dynamic graph: the star hub migrates every `period`, with `overlap`
//!   during which both stars coexist. Choosing `overlap ≥ T` keeps the
//!   schedule T-interval connected even though no single edge is long-lived.
//! * [`staggered_ring`] — ring whose edges take turns failing; with outage
//!   spacing `> T` the surviving graph in every T-window is a path.
//! * [`random_churn`] — static backbone plus randomly flapping chords;
//!   [`ChurnSource`] streams the same family lazily.
//!
//! Random-waypoint mobility is generated lazily only, by
//! [`MobilitySource`](crate::workloads::MobilitySource);
//! [`collect_schedule`](crate::source::collect_schedule) turns it into a
//! validated schedule where one is needed.

use crate::generators;
use crate::ids::{node, Edge};
use crate::schedule::{TopologyEvent, TopologyEventKind, TopologySchedule};
use crate::source::TopologySource;
use gcs_clocks::Time;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

fn ev(t: f64, kind: TopologyEventKind, edge: Edge) -> TopologyEvent {
    TopologyEvent {
        time: Time::new(t),
        kind,
        edge,
    }
}

/// A star whose hub migrates: hub `k mod n` is active during
/// `[k·period − overlap, (k+1)·period)`, so consecutive stars overlap for
/// `overlap` seconds. With `overlap ≥ T + D` the schedule is
/// `(T+D)`-interval connected while every individual edge lives at most
/// `period + overlap`.
pub fn rotating_star(n: usize, period: f64, overlap: f64, horizon: f64) -> TopologySchedule {
    assert!(n >= 3, "rotating star needs n >= 3");
    assert!(period > 0.0 && overlap > 0.0 && overlap < period);
    let initial = generators::star(n, 0);
    let mut events = Vec::new();
    let mut k = 0usize;
    loop {
        let switch = (k + 1) as f64 * period;
        if switch - overlap > horizon {
            break;
        }
        let old_hub = k % n;
        let new_hub = (k + 1) % n;
        let t_add = switch - overlap;
        // Bring up the new star (skip edges already in the old star, i.e.
        // the {old_hub, new_hub} edge and, when hubs coincide, everything).
        for i in 0..n {
            if i == new_hub {
                continue;
            }
            let e = Edge::between(new_hub, i);
            if !e.touches(node(old_hub)) {
                events.push(ev(t_add, TopologyEventKind::Add, e));
            }
        }
        // Tear down the old star at the switch, keeping shared edges.
        for i in 0..n {
            if i == old_hub {
                continue;
            }
            let e = Edge::between(old_hub, i);
            if !e.touches(node(new_hub)) {
                events.push(ev(switch, TopologyEventKind::Remove, e));
            }
        }
        k += 1;
    }
    TopologySchedule::new(n, initial, events)
}

/// Ring over `n` nodes whose edges take turns failing. Edge `i` (the edge
/// between nodes `i` and `i+1 mod n`) is down during
/// `[start + i·spacing + r·n·spacing, … + downtime)` for every round `r`.
/// With `spacing ≥ downtime + T`, at most one ring edge is missing from any
/// `T`-window, so the schedule stays T-interval connected.
pub fn staggered_ring(
    n: usize,
    spacing: f64,
    downtime: f64,
    start: f64,
    horizon: f64,
) -> TopologySchedule {
    assert!(n >= 4, "staggered ring needs n >= 4");
    assert!(spacing > downtime && downtime > 0.0 && start > 0.0);
    let initial = generators::ring(n);
    let ring_edge = |i: usize| Edge::between(i, (i + 1) % n);
    let mut events = Vec::new();
    let mut t = start;
    let mut i = 0usize;
    while t + downtime <= horizon {
        events.push(ev(t, TopologyEventKind::Remove, ring_edge(i)));
        events.push(ev(t + downtime, TopologyEventKind::Add, ring_edge(i)));
        i = (i + 1) % n;
        t += spacing;
    }
    TopologySchedule::new(n, initial, events)
}

/// A static backbone (guaranteeing connectivity) plus up to `chords`
/// random extra edges that flap: each chord independently toggles with
/// up-times drawn from `[min_up, max_up]` and down-times from
/// `[min_down, max_down]`. Small graphs may not have `chords` edges
/// outside the backbone; the count is capped at what exists.
pub fn random_churn<R: Rng>(
    n: usize,
    backbone: Vec<Edge>,
    chords: usize,
    up_range: (f64, f64),
    down_range: (f64, f64),
    horizon: f64,
    rng: &mut R,
) -> TopologySchedule {
    assert!(up_range.0 > 0.0 && up_range.0 <= up_range.1);
    assert!(down_range.0 > 0.0 && down_range.0 <= down_range.1);
    let (mut initial, chord_edges) = place_chords(n, &backbone, chords, rng);
    let mut events = Vec::new();
    for e in chord_edges {
        let mut up = rng.gen_bool(0.5);
        if up {
            initial.insert(e);
        }
        let mut t = rng.gen_range(0.01..up_range.1);
        while t <= horizon {
            let kind = if up {
                TopologyEventKind::Remove
            } else {
                TopologyEventKind::Add
            };
            events.push(ev(t, kind, e));
            up = !up;
            let dwell = if up {
                rng.gen_range(up_range.0..=up_range.1)
            } else {
                rng.gen_range(down_range.0..=down_range.1)
            };
            t += dwell;
        }
    }
    TopologySchedule::new(n, initial, events)
}

/// Chord placement shared by [`random_churn`] and [`ChurnSource`]: draws
/// distinct edges outside `backbone` from `rng` by rejection sampling,
/// `chords` of them, capped at what exists. Returns the backbone as a set
/// and the chords in ascending edge order.
fn place_chords<R: Rng>(
    n: usize,
    backbone: &[Edge],
    chords: usize,
    rng: &mut R,
) -> (BTreeSet<Edge>, BTreeSet<Edge>) {
    let backbone_set: BTreeSet<Edge> = backbone.iter().copied().collect();
    let chords = chords.min(n * (n - 1) / 2 - backbone_set.len());
    let mut chord_edges = BTreeSet::new();
    let mut guard = 0;
    while chord_edges.len() < chords {
        guard += 1;
        assert!(
            guard < 100 * chords + 1000,
            "could not find {chords} distinct chords for n={n}"
        );
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        if i == j {
            continue;
        }
        let e = Edge::between(i, j);
        if !backbone_set.contains(&e) {
            chord_edges.insert(e);
        }
    }
    (backbone_set, chord_edges)
}

/// Decorrelated per-edge stream seed for the lazy churn generator: each
/// chord edge owns an independent RNG stream derived from `(seed, edge)`,
/// so its toggle sequence can be generated on demand without replaying
/// any other edge's draws.
fn edge_stream_seed(seed: u64, e: Edge) -> u64 {
    seed ^ 0x6A09_E667_F3BC_C908
        ^ (e.lo().index() as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (e.hi().index() as u64 + 1).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

/// Per-chord toggle state of a [`ChurnSource`].
#[derive(Debug)]
struct Chord {
    edge: Edge,
    /// The chord's private stream (dwell draws only).
    rng: StdRng,
    /// Whether the chord is currently up (state *before* the next toggle).
    up: bool,
}

/// The lazy counterpart of [`random_churn`]: a static backbone plus
/// flapping chord edges whose toggle sequences are generated **on
/// demand** from per-edge RNG streams.
///
/// Memory is `O(chords)` — one RNG and one pending-toggle heap entry per
/// chord — independent of how many toggle events the horizon implies,
/// which is what makes sustained churn at `n = 2^17` affordable. The
/// stream is deterministic per `(seed, parameters)` and, collected,
/// passes [`TopologySchedule::new`] validation (each chord alternates
/// add/remove at strictly increasing times).
///
/// Chord *placement* is [`random_churn`]'s rejection sampling, one shared
/// helper (same seed → same chord set); the toggle *times* come from
/// per-edge streams instead of one shared draw sequence, so the two
/// generators describe the same family but not bit-identical logs.
#[derive(Debug)]
pub struct ChurnSource {
    n: usize,
    horizon: f64,
    up_range: (f64, f64),
    down_range: (f64, f64),
    initial: Vec<Edge>,
    chords: Vec<Chord>,
    /// Pending next toggle per chord, earliest `(time, edge)` first.
    queue: BinaryHeap<Reverse<(Time, Edge, usize)>>,
}

impl ChurnSource {
    /// Builds the source; parameters mirror [`random_churn`].
    pub fn new(
        n: usize,
        backbone: Vec<Edge>,
        chords: usize,
        up_range: (f64, f64),
        down_range: (f64, f64),
        horizon: f64,
        seed: u64,
    ) -> Self {
        assert!(up_range.0 > 0.0 && up_range.0 <= up_range.1);
        assert!(down_range.0 > 0.0 && down_range.0 <= down_range.1);
        let (mut initial, chord_edges) =
            place_chords(n, &backbone, chords, &mut StdRng::seed_from_u64(seed));
        let mut states = Vec::with_capacity(chord_edges.len());
        let mut queue = BinaryHeap::with_capacity(chord_edges.len());
        for e in chord_edges {
            let mut rng = StdRng::seed_from_u64(edge_stream_seed(seed, e));
            let up = rng.gen_bool(0.5);
            if up {
                initial.insert(e);
            }
            let first = rng.gen_range(0.01..up_range.1);
            let idx = states.len();
            states.push(Chord { edge: e, rng, up });
            if first <= horizon {
                queue.push(Reverse((Time::new(first), e, idx)));
            }
        }
        ChurnSource {
            n,
            horizon,
            up_range,
            down_range,
            initial: initial.into_iter().collect(),
            chords: states,
            queue,
        }
    }

    /// Emits the pending toggle of chord `idx` at `t` and schedules the
    /// chord's next toggle if it lands within the horizon.
    fn toggle(&mut self, t: Time, idx: usize) -> TopologyEvent {
        let chord = &mut self.chords[idx];
        let kind = if chord.up {
            TopologyEventKind::Remove
        } else {
            TopologyEventKind::Add
        };
        chord.up = !chord.up;
        let dwell = if chord.up {
            chord.rng.gen_range(self.up_range.0..=self.up_range.1)
        } else {
            chord.rng.gen_range(self.down_range.0..=self.down_range.1)
        };
        let next = t.seconds() + dwell;
        if next <= self.horizon {
            self.queue.push(Reverse((Time::new(next), chord.edge, idx)));
        }
        TopologyEvent {
            time: t,
            kind,
            edge: chord.edge,
        }
    }
}

impl TopologySource for ChurnSource {
    fn n(&self) -> usize {
        self.n
    }

    fn initial_edges(&mut self) -> Vec<Edge> {
        std::mem::take(&mut self.initial)
    }

    fn peek_time(&mut self) -> Option<Time> {
        self.queue.peek().map(|Reverse((t, _, _))| *t)
    }

    fn pull_until(&mut self, until: Time, buf: &mut Vec<TopologyEvent>) {
        while let Some(&Reverse((t, _, idx))) = self.queue.peek() {
            if t > until {
                break;
            }
            self.queue.pop();
            buf.push(self.toggle(t, idx));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::{is_connected, is_interval_connected};
    use crate::source::collect_schedule;
    use gcs_clocks::time::{at, secs};

    #[test]
    fn rotating_star_interval_connected_with_overlap() {
        let s = rotating_star(6, 10.0, 3.0, 100.0);
        // overlap 3 >= T 2 => 2-interval connected
        assert!(is_interval_connected(&s, secs(2.0), at(100.0)));
        // but 5-interval windows can straddle a full overlap: not enough
        assert!(!is_interval_connected(&s, secs(5.0), at(100.0)));
    }

    #[test]
    fn rotating_star_edges_change() {
        let s = rotating_star(5, 10.0, 2.0, 50.0);
        let early = s.edges_at(at(0.0));
        let late = s.edges_at(at(25.0));
        assert_ne!(early, late);
        // At all times the instantaneous graph is connected.
        for t in [0.0, 8.5, 10.0, 19.0, 33.3, 49.0] {
            let edges = s.edges_at(at(t));
            assert!(is_connected(5, edges.iter().copied()), "t={t}");
        }
    }

    #[test]
    fn staggered_ring_interval_connected() {
        // spacing 5 > downtime 2 + T 2
        let s = staggered_ring(6, 5.0, 2.0, 1.0, 200.0);
        assert!(is_interval_connected(&s, secs(2.0), at(200.0)));
    }

    #[test]
    fn staggered_ring_tight_spacing_fails() {
        // downtimes of consecutive edges overlap within a 4-window
        let s = staggered_ring(6, 3.0, 2.0, 1.0, 100.0);
        assert!(!is_interval_connected(&s, secs(4.0), at(100.0)));
    }

    #[test]
    fn random_churn_keeps_backbone() {
        let mut rng = StdRng::seed_from_u64(11);
        let s = random_churn(
            10,
            generators::path(10),
            8,
            (2.0, 6.0),
            (1.0, 3.0),
            100.0,
            &mut rng,
        );
        // Backbone never churns => always interval connected.
        assert!(is_interval_connected(&s, secs(5.0), at(100.0)));
        assert!(!s.events().is_empty());
    }

    #[test]
    fn random_churn_deterministic_per_seed() {
        let mk = || {
            let mut rng = StdRng::seed_from_u64(42);
            random_churn(
                8,
                generators::path(8),
                5,
                (2.0, 4.0),
                (1.0, 2.0),
                60.0,
                &mut rng,
            )
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn churn_source_collects_to_valid_schedule() {
        let src = ChurnSource::new(12, generators::path(12), 8, (2.0, 6.0), (1.0, 3.0), 80.0, 7);
        // `collect_schedule` runs the full TopologySchedule::new validator.
        let sched = collect_schedule(src);
        assert!(!sched.events().is_empty());
        // Backbone never churns, so the schedule stays interval connected.
        assert!(is_interval_connected(&sched, secs(5.0), at(80.0)));
    }

    #[test]
    fn churn_source_is_deterministic_per_seed_and_lazy_pulls_compose() {
        let mk = || {
            ChurnSource::new(
                10,
                generators::path(10),
                6,
                (2.0, 4.0),
                (1.0, 2.0),
                60.0,
                42,
            )
        };
        let all = collect_schedule(mk());
        // Pulling in small increments yields the identical stream.
        let mut src = mk();
        let initial = src.initial_edges();
        let mut events = Vec::new();
        let mut t = 0.0;
        while t < 70.0 {
            t += 1.3;
            src.pull_until(at(t), &mut events);
        }
        let chunked = TopologySchedule::new(10, initial, events);
        assert_eq!(all, chunked);
        assert_ne!(
            all,
            collect_schedule(ChurnSource::new(
                10,
                generators::path(10),
                6,
                (2.0, 4.0),
                (1.0, 2.0),
                60.0,
                43
            )),
            "different seeds must differ"
        );
    }

    #[test]
    fn churn_source_places_chords_like_the_eager_builder() {
        // Same seed ⇒ same chord placement (rejection sampling is shared);
        // toggle times differ (per-edge streams vs one shared stream).
        let seed = 11;
        let mut rng = StdRng::seed_from_u64(seed);
        let eager = random_churn(
            10,
            generators::path(10),
            5,
            (2.0, 6.0),
            (1.0, 3.0),
            50.0,
            &mut rng,
        );
        let lazy = collect_schedule(ChurnSource::new(
            10,
            generators::path(10),
            5,
            (2.0, 6.0),
            (1.0, 3.0),
            50.0,
            seed,
        ));
        let edges_of = |s: &TopologySchedule| -> BTreeSet<Edge> {
            s.events().iter().map(|ev| ev.edge).collect()
        };
        assert_eq!(edges_of(&eager), edges_of(&lazy));
    }
}
