//! Instantaneous and T-interval connectivity.
//!
//! Definition 3.1 of the paper: a dynamic graph is *T-interval connected*
//! if for all `t ≥ 0` the static subgraph of edges that exist throughout
//! `[t, t + T]` is connected. Edge presence only changes at schedule
//! events, so the set `E|_{[t, t+T]}` changes only when `t` crosses an
//! event time or an event time minus `T`; checking those critical window
//! starts (plus 0) is exhaustive.

use crate::ids::Edge;
use crate::schedule::TopologySchedule;
use gcs_clocks::{Duration, Time};

/// Union-find over node indices; used for fast connectivity checks.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// `n` singleton components.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Representative of `x`'s component (with path halving).
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Merges the components of `a` and `b`; returns true if they were
    /// previously distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        self.components -= 1;
        true
    }

    /// Number of components.
    pub fn components(&self) -> usize {
        self.components
    }

    /// True if `a` and `b` are in the same component.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }
}

/// True if the static graph `(n, edges)` is connected.
pub fn is_connected(n: usize, edges: impl IntoIterator<Item = Edge>) -> bool {
    if n <= 1 {
        return true;
    }
    let mut uf = UnionFind::new(n);
    for e in edges {
        uf.union(e.lo().0, e.hi().0);
    }
    uf.components() == 1
}

/// A violation of T-interval connectivity: the window `[start, start+T]`
/// whose surviving edge set is disconnected.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConnectivityViolation {
    /// Start of the offending window.
    pub window_start: Time,
    /// Number of connected components of the surviving subgraph.
    pub components: usize,
}

/// Verifies `T`-interval connectivity of a schedule over `[0, horizon]`.
///
/// Returns the first violation found, or `None` if the schedule is
/// `T`-interval connected on the horizon. Windows are clipped so they end
/// at or before `horizon` (behaviour after the horizon is not checked).
pub fn check_interval_connectivity(
    schedule: &TopologySchedule,
    interval: Duration,
    horizon: Time,
) -> Option<ConnectivityViolation> {
    assert!(interval.seconds() >= 0.0);
    let n = schedule.n();
    // Critical window starts: 0, every event time, and every event time − T
    // (the set of edges alive throughout [t, t+T] changes only there).
    let mut starts: Vec<Time> = vec![Time::ZERO];
    for ev in schedule.events() {
        if ev.time <= horizon {
            starts.push(ev.time);
        }
        let pre = ev.time - interval;
        if pre.is_valid_sim_time() && pre <= horizon {
            starts.push(pre);
        }
    }
    starts.sort();
    starts.dedup();
    for t in starts {
        let end = (t + interval).min(horizon);
        if end < t {
            continue;
        }
        let edges = schedule.edges_throughout(t, end);
        let mut uf = UnionFind::new(n);
        for e in &edges {
            uf.union(e.lo().0, e.hi().0);
        }
        if uf.components() != 1 {
            return Some(ConnectivityViolation {
                window_start: t,
                components: uf.components(),
            });
        }
    }
    None
}

/// Convenience wrapper: true if the schedule is `T`-interval connected.
pub fn is_interval_connected(
    schedule: &TopologySchedule,
    interval: Duration,
    horizon: Time,
) -> bool {
    check_interval_connectivity(schedule, interval, horizon).is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::schedule::{add_at, remove_at};
    use gcs_clocks::time::{at, secs};

    fn e(i: usize, j: usize) -> Edge {
        Edge::between(i, j)
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.components(), 4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(2, 3));
        assert_eq!(uf.components(), 2);
        assert!(uf.connected(0, 1));
        assert!(!uf.connected(0, 2));
        uf.union(1, 3);
        assert!(uf.connected(0, 2));
        assert_eq!(uf.components(), 1);
    }

    #[test]
    fn static_connectivity() {
        assert!(is_connected(5, generators::path(5)));
        assert!(!is_connected(3, [e(0, 1)]));
        assert!(is_connected(1, []));
        assert!(is_connected(0, []));
    }

    #[test]
    fn static_schedule_interval_connected() {
        let s = TopologySchedule::static_graph(5, generators::ring(5));
        assert!(is_interval_connected(&s, secs(10.0), at(100.0)));
    }

    #[test]
    fn flapping_edge_breaks_interval_connectivity() {
        // Path 0-1-2; edge {1,2} vanishes during [10, 12].
        let s = TopologySchedule::new(
            3,
            generators::path(3),
            vec![remove_at(10.0, e(1, 2)), add_at(12.0, e(1, 2))],
        );
        // With T=1 the first bad window starts at 9 = 10 − T: the removal
        // at time 10 falls inside [9, 10], leaving only {0,1}.
        let v = check_interval_connectivity(&s, secs(1.0), at(100.0)).unwrap();
        assert_eq!(v.window_start, at(9.0));
        assert_eq!(v.components, 2);
        // With T=0 the graph momentarily disconnected also fails...
        assert!(!is_interval_connected(&s, secs(0.0), at(100.0)));
    }

    #[test]
    fn alternating_bridges_are_interval_connected_for_small_t_only() {
        // Node 1 reaches the rest alternately through {0,1} (up on [0,10)
        // and [20,∞)) or through {1,2} (up on [8,22)); {0,2} is static.
        // The instantaneous graph is always connected and short windows
        // always contain a surviving attachment for node 1, but a
        // 15-window spanning [8, 23] keeps neither {0,1} nor {1,2} alive
        // throughout.
        let s = TopologySchedule::new(
            3,
            [e(0, 1), e(0, 2)],
            vec![
                add_at(8.0, e(1, 2)),
                remove_at(10.0, e(0, 1)),
                add_at(20.0, e(0, 1)),
                remove_at(22.0, e(1, 2)),
            ],
        );
        assert!(is_interval_connected(&s, secs(1.0), at(30.0)));
        assert!(!is_interval_connected(&s, secs(15.0), at(30.0)));
    }

    #[test]
    fn window_clipping_at_horizon() {
        // Edge removed at 90 and never restored; with horizon 80 no window
        // sees the removal.
        let s = TopologySchedule::new(2, [e(0, 1)], vec![remove_at(90.0, e(0, 1))]);
        assert!(is_interval_connected(&s, secs(5.0), at(80.0)));
        assert!(!is_interval_connected(&s, secs(5.0), at(95.0)));
    }
}
