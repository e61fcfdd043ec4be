//! Skew metrics over simulator snapshots.
//!
//! The edge-set metrics take **one** logical snapshot (one `O(n)` pass of
//! clock reads) and index into it per endpoint, instead of re-deriving
//! `sim.logical(u)` — a hardware-clock read plus an automaton query — for
//! both endpoints of every edge. At `m` edges that turns `2m` clock reads
//! into `n`, which is what keeps fixed-cadence sampling affordable as the
//! graphs grow.
//!
//! Fixed-cadence sampling **loops** take the snapshot themselves, into a
//! scratch buffer they keep, through [`Simulator::logical_snapshot_into`],
//! and pass it to the `*_in` functions, so a long recording allocates one
//! snapshot vector total instead of one per sample (the
//! [`Recorder`](crate::Recorder) samples this way).

use gcs_net::Edge;
use gcs_sim::{Automaton, Simulator};

/// Global skew of a clock vector: `max_u L_u − min_u L_v` (Definition 3.2).
pub fn global_skew(logical: &[f64]) -> f64 {
    assert!(!logical.is_empty());
    let max = logical.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = logical.iter().cloned().fold(f64::INFINITY, f64::min);
    max - min
}

/// Skew on one edge, read from a prepared logical snapshot.
#[inline]
pub fn edge_skew_in(logical: &[f64], e: Edge) -> f64 {
    (logical[e.lo().index()] - logical[e.hi().index()]).abs()
}

/// The worst local skew over all currently present edges (0 if none).
pub fn max_local_skew<A: Automaton>(sim: &Simulator<A>) -> f64 {
    max_local_skew_in(&sim.logical_snapshot(), sim.graph().edges())
}

/// The worst local skew over `edges` (typically `sim.graph().edges()`),
/// read from a prepared logical snapshot (shared by [`max_local_skew`]
/// and the recorder, which reuses one snapshot for several metrics).
pub fn max_local_skew_in(logical: &[f64], edges: impl IntoIterator<Item = Edge>) -> f64 {
    edges
        .into_iter()
        .map(|e| edge_skew_in(logical, e))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_skew_spread() {
        assert_eq!(global_skew(&[1.0, 5.0, 3.0]), 4.0);
        assert_eq!(global_skew(&[2.0]), 0.0);
    }

    #[test]
    fn edge_skew_in_indexes_snapshot() {
        let logical = [10.0, 4.0, 7.5];
        assert_eq!(edge_skew_in(&logical, Edge::between(0, 1)), 6.0);
        assert_eq!(edge_skew_in(&logical, Edge::between(2, 1)), 3.5);
    }

    #[test]
    #[should_panic]
    fn global_skew_empty_rejected() {
        let _ = global_skew(&[]);
    }
}
