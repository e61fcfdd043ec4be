//! Timed topology-change schedules.
//!
//! A [`TopologySchedule`] is the full description of a dynamic graph for one
//! execution: the initial edge set `E₀` plus a time-ordered log of
//! `add`/`remove` events. Section 3.2 of the paper assumes that no edge is
//! both added and removed at the same instant; the schedule validates that,
//! along with basic sanity (adds only for absent edges, removes only for
//! present ones).

use crate::ids::Edge;
use gcs_clocks::Time;
use std::collections::BTreeSet;

/// What happened to an edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyEventKind {
    /// The link formed.
    Add,
    /// The link failed.
    Remove,
}

/// One timed topology change.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TopologyEvent {
    /// Real time of the change.
    pub time: Time,
    /// Add or remove.
    pub kind: TopologyEventKind,
    /// The affected edge.
    pub edge: Edge,
}

impl TopologyEvent {
    /// An addition of `edge` at real time `time`.
    pub fn add_at(time: f64, edge: Edge) -> Self {
        TopologyEvent {
            time: Time::new(time),
            kind: TopologyEventKind::Add,
            edge,
        }
    }

    /// A removal of `edge` at real time `time`.
    pub fn remove_at(time: f64, edge: Edge) -> Self {
        TopologyEvent {
            time: Time::new(time),
            kind: TopologyEventKind::Remove,
            edge,
        }
    }
}

/// A validated dynamic-graph description: initial edges + event log.
#[derive(Clone, Debug, PartialEq)]
pub struct TopologySchedule {
    n: usize,
    initial: BTreeSet<Edge>,
    events: Vec<TopologyEvent>,
}

impl TopologySchedule {
    /// A purely static graph: initial edges, no events.
    pub fn static_graph(n: usize, edges: impl IntoIterator<Item = Edge>) -> Self {
        Self::new(n, edges, Vec::new())
    }

    /// Builds and validates a schedule.
    ///
    /// Validation rules:
    /// * all endpoints are `< n`,
    /// * events are sorted by time (ties allowed between *different* edges),
    /// * the same edge is never added and removed at the same time,
    /// * adds apply to absent edges, removes to present edges,
    /// * all event times are `> 0` (time 0 state is `initial`).
    ///
    /// Validation is one stable sort by `(time, edge)` plus one linear
    /// pass: the same-instant rule compares adjacent events only, so a
    /// batch of `k` simultaneous events costs `O(k)`, not `O(k²)`.
    ///
    /// # Panics
    /// When the schedule breaks a rule above.
    pub fn new(
        n: usize,
        initial: impl IntoIterator<Item = Edge>,
        mut events: Vec<TopologyEvent>,
    ) -> Self {
        let initial: BTreeSet<Edge> = initial.into_iter().collect();
        for e in &initial {
            assert!(
                e.hi().index() < n,
                "edge {e:?} endpoint out of range for n={n}"
            );
        }
        events.sort_by(|x, y| x.time.cmp(&y.time).then(x.edge.cmp(&y.edge)));
        let mut present = initial.clone();
        let mut i = 0;
        while i < events.len() {
            // Group events at identical times and check the same edge is not
            // both added and removed simultaneously.
            let t = events[i].time;
            assert!(
                t > Time::ZERO,
                "topology events must occur strictly after time 0 (got {t:?})"
            );
            let mut j = i;
            while j < events.len() && events[j].time == t {
                j += 1;
            }
            let batch = &events[i..j];
            for (k, ev) in batch.iter().enumerate() {
                assert!(
                    ev.edge.hi().index() < n,
                    "edge {:?} endpoint out of range for n={n}",
                    ev.edge
                );
                // The stable sort keeps one edge's events at one instant
                // together, so a run holding both kinds has an adjacent
                // pair of different kinds.
                assert!(
                    batch
                        .get(k + 1)
                        .is_none_or(|next| next.edge != ev.edge || next.kind == ev.kind),
                    "edge {:?} both added and removed at {t:?}",
                    ev.edge
                );
            }
            for ev in batch {
                match ev.kind {
                    TopologyEventKind::Add => {
                        assert!(
                            present.insert(ev.edge),
                            "add of already-present edge {:?} at {t:?}",
                            ev.edge
                        );
                    }
                    TopologyEventKind::Remove => {
                        assert!(
                            present.remove(&ev.edge),
                            "remove of absent edge {:?} at {t:?}",
                            ev.edge
                        );
                    }
                }
            }
            i = j;
        }
        TopologySchedule { n, initial, events }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The initial edge set `E₀`.
    pub fn initial_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.initial.iter().copied()
    }

    /// The time-ordered event log.
    pub fn events(&self) -> &[TopologyEvent] {
        &self.events
    }

    /// The set of edges present at time `t`.
    ///
    /// Convention (matching Section 3.2): an edge added at time `s` is in
    /// `E(t)` for all `t ≥ s`; an edge removed at time `s` is *not* in
    /// `E(t)` for `t ≥ s` (removal takes effect at the removal instant).
    pub fn edges_at(&self, t: Time) -> BTreeSet<Edge> {
        let mut present = self.initial.clone();
        for ev in &self.events {
            if ev.time > t {
                break;
            }
            match ev.kind {
                TopologyEventKind::Add => {
                    present.insert(ev.edge);
                }
                TopologyEventKind::Remove => {
                    present.remove(&ev.edge);
                }
            }
        }
        present
    }

    /// True if `edge` exists throughout the closed interval `[t1, t2]`:
    /// present at `t1` and not removed at any time in `[t1, t2]`.
    pub fn exists_throughout(&self, edge: Edge, t1: Time, t2: Time) -> bool {
        assert!(t1 <= t2);
        if !self.edges_at(t1).contains(&edge) {
            return false;
        }
        !self.events.iter().any(|ev| {
            ev.edge == edge && ev.kind == TopologyEventKind::Remove && ev.time > t1 && ev.time <= t2
        })
    }

    /// The set of edges that exist throughout `[t1, t2]` — the
    /// `E|_{[t,t+T]}` of Definition 3.1.
    pub fn edges_throughout(&self, t1: Time, t2: Time) -> BTreeSet<Edge> {
        self.edges_at(t1)
            .into_iter()
            .filter(|&e| self.exists_throughout(e, t1, t2))
            .collect()
    }

    /// Merges another schedule's events into this one (used by scenario
    /// builders that overlay extra edge insertions, e.g. Theorem 4.1's
    /// `E_new`). Re-validates the result.
    pub fn with_extra_events(&self, extra: Vec<TopologyEvent>) -> Self {
        let mut events = self.events.clone();
        events.extend(extra);
        Self::new(self.n, self.initial.iter().copied(), events)
    }
}

/// Convenience constructor for an add event.
pub fn add_at(t: f64, edge: Edge) -> TopologyEvent {
    TopologyEvent {
        time: Time::new(t),
        kind: TopologyEventKind::Add,
        edge,
    }
}

/// Convenience constructor for a remove event.
pub fn remove_at(t: f64, edge: Edge) -> TopologyEvent {
    TopologyEvent {
        time: Time::new(t),
        kind: TopologyEventKind::Remove,
        edge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_clocks::time::at;

    fn e(i: usize, j: usize) -> Edge {
        Edge::between(i, j)
    }

    #[test]
    fn static_schedule_is_constant() {
        let s = TopologySchedule::static_graph(3, [e(0, 1), e(1, 2)]);
        assert_eq!(s.edges_at(at(0.0)).len(), 2);
        assert_eq!(s.edges_at(at(100.0)).len(), 2);
        assert!(s.exists_throughout(e(0, 1), at(0.0), at(50.0)));
    }

    #[test]
    fn add_remove_sequence_replays() {
        let s = TopologySchedule::new(
            3,
            [e(0, 1)],
            vec![add_at(5.0, e(1, 2)), remove_at(9.0, e(0, 1))],
        );
        assert_eq!(s.edges_at(at(0.0)), [e(0, 1)].into_iter().collect());
        assert_eq!(
            s.edges_at(at(5.0)),
            [e(0, 1), e(1, 2)].into_iter().collect()
        );
        assert_eq!(s.edges_at(at(9.0)), [e(1, 2)].into_iter().collect());
    }

    #[test]
    fn exists_throughout_honours_removal() {
        let s = TopologySchedule::new(2, [e(0, 1)], vec![remove_at(10.0, e(0, 1))]);
        assert!(s.exists_throughout(e(0, 1), at(0.0), at(9.9)));
        assert!(!s.exists_throughout(e(0, 1), at(0.0), at(10.0)));
        assert!(!s.exists_throughout(e(0, 1), at(10.0), at(11.0)));
    }

    #[test]
    fn edges_throughout_filters() {
        let s = TopologySchedule::new(
            3,
            [e(0, 1), e(1, 2)],
            vec![remove_at(5.0, e(1, 2)), add_at(6.0, e(1, 2))],
        );
        assert_eq!(
            s.edges_throughout(at(0.0), at(4.0)),
            [e(0, 1), e(1, 2)].into_iter().collect()
        );
        assert_eq!(
            s.edges_throughout(at(0.0), at(5.0)),
            [e(0, 1)].into_iter().collect()
        );
        assert_eq!(
            s.edges_throughout(at(6.0), at(100.0)),
            [e(0, 1), e(1, 2)].into_iter().collect()
        );
    }

    #[test]
    fn with_extra_events_merges() {
        let s = TopologySchedule::static_graph(3, [e(0, 1)]);
        let s2 = s.with_extra_events(vec![add_at(3.0, e(1, 2))]);
        assert_eq!(s2.edges_at(at(4.0)).len(), 2);
        assert_eq!(s2.events().len(), 1);
        assert!(s.events().is_empty());
    }

    #[test]
    #[should_panic(expected = "both added and removed")]
    fn simultaneous_add_remove_rejected() {
        let _ = TopologySchedule::new(
            2,
            [e(0, 1)],
            vec![remove_at(5.0, e(0, 1)), add_at(5.0, e(0, 1))],
        );
    }

    /// Other edges sort between the add and the remove of one edge in the
    /// input; the sort brings them together.
    #[test]
    #[should_panic(expected = "both added and removed")]
    fn simultaneous_add_remove_rejected_across_other_edges() {
        let _ = TopologySchedule::new(
            5,
            [e(0, 1), e(2, 3)],
            vec![
                remove_at(5.0, e(0, 1)),
                add_at(5.0, e(1, 2)),
                remove_at(5.0, e(2, 3)),
                add_at(5.0, e(3, 4)),
                add_at(5.0, e(0, 1)),
            ],
        );
    }

    /// The edge's run is `[add, add, remove]`: its first adjacent pair
    /// agrees in kind, its second does not.
    #[test]
    #[should_panic(expected = "both added and removed")]
    fn simultaneous_add_add_remove_rejected() {
        let _ = TopologySchedule::new(
            2,
            [],
            vec![
                add_at(5.0, e(0, 1)),
                add_at(5.0, e(0, 1)),
                remove_at(5.0, e(0, 1)),
            ],
        );
    }

    /// 2^16 distinct edges added at one instant validate, and keep their
    /// `(time, edge)` order.
    #[test]
    fn wide_same_instant_batch_validates() {
        let n = 1 << 9;
        let adds: Vec<TopologyEvent> = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| add_at(5.0, e(i, j))))
            .take(1 << 16)
            .collect();
        assert_eq!(adds.len(), 1 << 16);
        let s = TopologySchedule::new(n, [], adds.iter().rev().copied().collect());
        assert_eq!(s.events(), adds.as_slice());
        assert_eq!(s.edges_at(at(5.0)).len(), 1 << 16);
    }

    #[test]
    #[should_panic(expected = "already-present")]
    fn double_add_rejected() {
        let _ = TopologySchedule::new(2, [e(0, 1)], vec![add_at(5.0, e(0, 1))]);
    }

    #[test]
    #[should_panic(expected = "absent edge")]
    fn remove_absent_rejected() {
        let _ = TopologySchedule::new(2, [], vec![remove_at(5.0, e(0, 1))]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_endpoint_rejected() {
        let _ = TopologySchedule::static_graph(2, [e(0, 5)]);
    }

    #[test]
    fn events_sorted_on_construction() {
        let s = TopologySchedule::new(
            4,
            [],
            vec![
                add_at(7.0, e(0, 1)),
                add_at(3.0, e(2, 3)),
                add_at(5.0, e(1, 2)),
            ],
        );
        let times: Vec<f64> = s.events().iter().map(|ev| ev.time.seconds()).collect();
        assert_eq!(times, vec![3.0, 5.0, 7.0]);
    }
}
