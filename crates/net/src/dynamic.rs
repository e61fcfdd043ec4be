//! Replayable dynamic-graph state.
//!
//! [`DynamicGraph`] is the *live* view the simulator maintains while
//! replaying a [`TopologySchedule`]: the current adjacency and edge set.
//! Interval queries ("exists throughout `[t1, t2]`") are answered by
//! [`TopologySchedule::exists_throughout`] on the event log itself.

use crate::ids::{Edge, NodeId};
use crate::schedule::{TopologyEventKind, TopologySchedule};
use gcs_clocks::Time;
use std::collections::BTreeSet;

/// Live dynamic-graph state.
#[derive(Clone, Debug)]
pub struct DynamicGraph {
    n: usize,
    adjacency: Vec<BTreeSet<NodeId>>,
    present: BTreeSet<Edge>,
    now: Time,
}

impl DynamicGraph {
    /// A graph over `n` isolated nodes at time 0.
    pub fn empty(n: usize) -> Self {
        DynamicGraph {
            n,
            adjacency: vec![BTreeSet::new(); n],
            present: BTreeSet::new(),
            now: Time::ZERO,
        }
    }

    /// Approximate heap bytes of the live adjacency and presence set (the
    /// topology plane's memory meter). B-tree node overhead is not
    /// observable from outside `std`, so set entries are counted at
    /// payload size.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let degree_total: usize = self.adjacency.iter().map(|s| s.len()).sum();
        self.adjacency.capacity() * size_of::<BTreeSet<NodeId>>()
            + degree_total * size_of::<NodeId>()
            + self.present.len() * size_of::<Edge>()
    }

    /// A graph initialized with `E₀` at time 0.
    pub fn with_initial(n: usize, edges: impl IntoIterator<Item = Edge>) -> Self {
        let mut g = Self::empty(n);
        for e in edges {
            g.add_edge(e, Time::ZERO);
        }
        g
    }

    /// Initializes from a schedule's initial edge set (events not applied).
    pub fn from_schedule_initial(schedule: &TopologySchedule) -> Self {
        Self::with_initial(schedule.n(), schedule.initial_edges())
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The latest time an event was applied.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Applies a link formation at time `t`.
    pub fn add_edge(&mut self, e: Edge, t: Time) {
        assert!(t >= self.now, "events must be applied in time order");
        assert!(
            e.hi().index() < self.n,
            "edge {e:?} out of range for n={}",
            self.n
        );
        assert!(
            self.present.insert(e),
            "edge {e:?} already present at {t:?}"
        );
        self.adjacency[e.lo().index()].insert(e.hi());
        self.adjacency[e.hi().index()].insert(e.lo());
        self.now = t;
    }

    /// Applies a link failure at time `t`.
    pub fn remove_edge(&mut self, e: Edge, t: Time) {
        assert!(t >= self.now, "events must be applied in time order");
        assert!(self.present.remove(&e), "edge {e:?} not present at {t:?}");
        self.adjacency[e.lo().index()].remove(&e.hi());
        self.adjacency[e.hi().index()].remove(&e.lo());
        self.now = t;
    }

    /// Applies one schedule event.
    pub fn apply(&mut self, kind: TopologyEventKind, e: Edge, t: Time) {
        match kind {
            TopologyEventKind::Add => self.add_edge(e, t),
            TopologyEventKind::Remove => self.remove_edge(e, t),
        }
    }

    /// True if `e` is currently up.
    pub fn contains(&self, e: Edge) -> bool {
        self.present.contains(&e)
    }

    /// Current neighbors of `u`.
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adjacency[u.index()].iter().copied()
    }

    /// Current degree of `u`.
    pub fn degree(&self, u: NodeId) -> usize {
        self.adjacency[u.index()].len()
    }

    /// All edges currently up.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.present.iter().copied()
    }

    /// Number of edges currently up.
    pub fn edge_count(&self) -> usize {
        self.present.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::node;
    use gcs_clocks::time::at;

    fn e(i: usize, j: usize) -> Edge {
        Edge::between(i, j)
    }

    #[test]
    fn adjacency_tracks_add_remove() {
        let mut g = DynamicGraph::empty(3);
        g.add_edge(e(0, 1), at(1.0));
        g.add_edge(e(1, 2), at(2.0));
        assert_eq!(g.degree(node(1)), 2);
        assert!(g.contains(e(0, 1)));
        g.remove_edge(e(0, 1), at(3.0));
        assert_eq!(g.degree(node(1)), 1);
        assert!(!g.contains(e(0, 1)));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn with_initial_sets_time_zero_edges() {
        let g = DynamicGraph::with_initial(3, [e(0, 1), e(1, 2)]);
        assert_eq!(g.edge_count(), 2);
        assert!(g.contains(e(0, 1)) && g.contains(e(1, 2)));
        assert_eq!(g.now(), Time::ZERO);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_events_rejected() {
        let mut g = DynamicGraph::empty(2);
        g.add_edge(e(0, 1), at(5.0));
        g.remove_edge(e(0, 1), at(3.0));
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn double_add_rejected() {
        let mut g = DynamicGraph::empty(2);
        g.add_edge(e(0, 1), at(1.0));
        g.add_edge(e(0, 1), at(2.0));
    }

    #[test]
    fn neighbors_iterates_current_set() {
        let mut g = DynamicGraph::empty(4);
        g.add_edge(e(0, 1), at(1.0));
        g.add_edge(e(0, 2), at(1.0));
        g.add_edge(e(0, 3), at(1.0));
        let nbrs: Vec<NodeId> = g.neighbors(node(0)).collect();
        assert_eq!(nbrs, vec![node(1), node(2), node(3)]);
    }
}
