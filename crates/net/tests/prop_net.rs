//! Property-based tests on the dynamic-graph substrate.

use gcs_clocks::time::{at, secs};
use gcs_net::churn::ChurnSource;
use gcs_net::schedule::{TopologyEvent, TopologyEventKind};
use gcs_net::source::{collect_schedule, ScheduleSource, TopologySource};
use gcs_net::workloads::{FlashCrowdSource, MobilitySource, PartitionSource};
use gcs_net::{connectivity, distance, generators, node, Edge, TopologySchedule};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy: a random, *valid* event sequence over `n` nodes — each edge
/// toggles between present and absent at strictly increasing times.
fn arb_schedule(n: usize) -> impl Strategy<Value = TopologySchedule> {
    let potential: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
        .collect();
    let m = potential.len();
    (
        prop::collection::vec(any::<bool>(), m),
        prop::collection::vec((0usize..m, 0.1f64..5.0), 0..40),
    )
        .prop_map(move |(initial_mask, toggles)| {
            let initial: Vec<Edge> = potential
                .iter()
                .zip(&initial_mask)
                .filter(|(_, &up)| up)
                .map(|(&(i, j), _)| Edge::between(i, j))
                .collect();
            let mut present: BTreeSet<Edge> = initial.iter().copied().collect();
            let mut t = 0.0;
            let mut events = Vec::new();
            for (idx, gap) in toggles {
                t += gap;
                let e = Edge::between(potential[idx].0, potential[idx].1);
                let kind = if present.contains(&e) {
                    present.remove(&e);
                    TopologyEventKind::Remove
                } else {
                    present.insert(e);
                    TopologyEventKind::Add
                };
                events.push(TopologyEvent {
                    time: gcs_clocks::Time::new(t),
                    kind,
                    edge: e,
                });
            }
            TopologySchedule::new(n, initial, events)
        })
}

proptest! {
    /// `exists_throughout` agrees with a brute-force `edges_at` oracle:
    /// the edge is up at `t1` and at every event time in `(t1, t2]` (the
    /// edge set only changes at event times).
    #[test]
    fn exists_throughout_agrees(sched in arb_schedule(4), t1 in 0.0f64..80.0, gap in 0.0f64..40.0) {
        let (t1, t2) = (at(t1), at(t1 + gap));
        let probes: Vec<_> = std::iter::once(t1)
            .chain(sched.events().iter().map(|ev| ev.time).filter(|&t| t > t1 && t <= t2))
            .collect();
        for i in 0..4usize {
            for j in i + 1..4 {
                let e = Edge::between(i, j);
                let oracle = probes.iter().all(|&t| sched.edges_at(t).contains(&e));
                prop_assert_eq!(
                    sched.exists_throughout(e, t1, t2),
                    oracle,
                    "edge {:?} interval [{:?}, {:?}]",
                    e,
                    t1,
                    t2
                );
            }
        }
    }

    /// Interval connectivity is monotone in the window length: a longer
    /// window keeps only a *subset* of edges alive throughout, so
    /// T-interval connectivity implies T'-interval connectivity for every
    /// shorter T'.
    #[test]
    fn interval_connectivity_monotone(sched in arb_schedule(4), t_small in 0.1f64..2.0, extra in 0.1f64..5.0) {
        let horizon = at(100.0);
        let t_large = t_small + extra;
        if connectivity::is_interval_connected(&sched, secs(t_large), horizon) {
            prop_assert!(
                connectivity::is_interval_connected(&sched, secs(t_small), horizon),
                "connected for T={t_large} but not shorter T={t_small}"
            );
        }
    }

    /// BFS distance satisfies the triangle inequality through any third
    /// node, and symmetric endpoints agree.
    #[test]
    fn bfs_triangle_inequality(seed in 0u64..500) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 12;
        let edges = generators::gnp_connected(n, 0.15, &mut rng);
        let dist: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                distance::bfs_distance(n, edges.iter().copied(), node(i))
                    .into_iter()
                    .map(|d| d.expect("connected"))
                    .collect()
            })
            .collect();
        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(dist[a][b], dist[b][a]);
                for c in 0..n {
                    prop_assert!(dist[a][b] <= dist[a][c] + dist[c][b]);
                }
            }
        }
    }

    /// Every lazy churn stream, collected, passes the eager validator
    /// (`TopologySchedule::new`: sorted times, no same-instant add+remove
    /// of one edge, adds-absent/removes-present) — and pulling it in
    /// arbitrary chunks yields the identical stream.
    #[test]
    fn churn_source_streams_are_valid_schedules(
        n in 6usize..24,
        chords in 1usize..10,
        seed in 0u64..500,
        horizon in 10.0f64..60.0,
        chunk in 0.5f64..7.0,
    ) {
        let mk = || ChurnSource::new(
            n, generators::path(n), chords, (2.0, 6.0), (1.0, 3.0), horizon, seed,
        );
        // collect_schedule runs the full validator; a violation panics.
        let sched = collect_schedule(mk());
        // Chunked pulls replay the identical stream.
        let mut src = mk();
        let initial = src.initial_edges();
        let mut events = Vec::new();
        let mut t = 0.0;
        while t < horizon + chunk {
            t += chunk;
            src.pull_until(at(t), &mut events);
        }
        prop_assert_eq!(TopologySchedule::new(n, initial, events), sched);
    }

    /// Mobility streams validate and replay identically through the
    /// ScheduleSource adapter round-trip.
    #[test]
    fn mobility_source_streams_are_valid_schedules(
        n in 4usize..20,
        seed in 0u64..200,
        radius in 0.1f64..0.5,
        backbone in any::<bool>(),
    ) {
        let sched = collect_schedule(MobilitySource::new(
            n, radius, 0.1, 1.0, 20.0, backbone, seed,
        ));
        // Round-trip through the adapter is the identity.
        prop_assert_eq!(collect_schedule(ScheduleSource::new(sched.clone())), sched);
    }

    /// Partition-and-heal streams validate for every legal parameter
    /// combination, and every cut heals within its cycle.
    #[test]
    fn partition_source_streams_are_valid_schedules(
        n in 4usize..32,
        cuts in 1usize..3,
        period in 2.0f64..8.0,
        horizon in 10.0f64..60.0,
    ) {
        let outage = period / 2.0;
        let sched = collect_schedule(PartitionSource::new(n, cuts, period, outage, horizon));
        let adds = sched.events().iter().filter(|e| e.kind == TopologyEventKind::Add).count();
        prop_assert_eq!(adds * 2, sched.events().len(), "every remove heals");
    }

    /// Flash-crowd streams validate; joins and leaves balance.
    #[test]
    fn flash_crowd_source_streams_are_valid_schedules(
        n in 16usize..64,
        hubs in 1usize..4,
        wave in 1usize..6,
        seed in 0u64..200,
    ) {
        let sched = collect_schedule(FlashCrowdSource::new(
            n, hubs, wave, 8.0, 2.0, 4.0, 50.0, seed,
        ));
        let adds = sched.events().iter().filter(|e| e.kind == TopologyEventKind::Add).count();
        prop_assert_eq!(adds * 2, sched.events().len(), "every join leaves");
    }

    /// Generated two-chain networks always have the claimed structure:
    /// exactly n edges, connected, and w0/wn are the only shared nodes.
    #[test]
    fn two_chain_structure(n in 6usize..64) {
        let tc = generators::TwoChain::new(n);
        let edges = tc.edges();
        prop_assert_eq!(edges.len(), n);
        prop_assert!(connectivity::is_connected(n, edges.iter().copied()));
        // Removing w0 and wn disconnects A-interior from B-interior.
        let filtered: Vec<Edge> = edges
            .iter()
            .copied()
            .filter(|e| !e.touches(tc.w0()) && !e.touches(tc.wn()))
            .collect();
        let a_mid = tc.a(1);
        let b_mid = tc.b(1);
        let d = distance::distance(n, filtered, a_mid, b_mid);
        prop_assert_eq!(d, None, "chains must be disjoint except at w0/wn");
    }
}
