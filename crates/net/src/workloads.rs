//! Lazy dynamic-workload generators: the scenario shapes behind the E12
//! experiment family.
//!
//! Each type here implements [`TopologySource`] and generates its events
//! **on demand** with state independent of the horizon (positions,
//! per-wave RNG streams, cycle counters) — never a materialized event
//! log. All three keep a static path backbone, so the schedules remain
//! connected at every instant regardless of how the dynamic layer
//! behaves; drop the backbone parameters to step outside the paper's
//! T-interval-connectivity envelope deliberately.
//!
//! * [`MobilitySource`] — random-waypoint motion over the unit square
//!   with a geometric connectivity radius (grid-accelerated neighbor
//!   search, see [`generators::geometric_grid`]), sampled every
//!   `sample_dt`.
//! * [`PartitionSource`] — periodic partition-and-heal: every `period`,
//!   a set of evenly spaced backbone edges fails simultaneously
//!   (splitting the path into islands) and heals `outage` later.
//! * [`FlashCrowdSource`] — flash-crowd join/leave waves: every
//!   `period`, a crowd of nodes attaches to a rotating hub over a short
//!   arrival ramp and detaches `dwell` later.

use crate::generators;
use crate::ids::{node, Edge, NodeId};
use crate::schedule::{TopologyEvent, TopologyEventKind};
use crate::source::TopologySource;
use gcs_clocks::Time;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, VecDeque};

fn ev(t: Time, kind: TopologyEventKind, edge: Edge) -> TopologyEvent {
    TopologyEvent {
        time: t,
        kind,
        edge,
    }
}

/// Random-waypoint mobility over the unit square, generated lazily.
///
/// Every `sample_dt` each node advances toward its waypoint at `speed`
/// (re-picking a waypoint on arrival); connectivity is the geometric
/// graph with the given `radius`, unioned with a static path backbone.
/// Edge diffs between consecutive samples become add/remove events at
/// the sample instant, emitted in `(time, edge)` order. State is the
/// positions, waypoints and current edge set — `O(n + m)`, independent
/// of the horizon.
#[derive(Debug)]
pub struct MobilitySource {
    n: usize,
    radius: f64,
    speed: f64,
    sample_dt: f64,
    horizon: f64,
    rng: StdRng,
    pos: Vec<(f64, f64)>,
    waypoint: Vec<(f64, f64)>,
    backbone: BTreeSet<Edge>,
    current: BTreeSet<Edge>,
    next_sample: f64,
    pending: VecDeque<TopologyEvent>,
    initial: Vec<Edge>,
}

impl MobilitySource {
    /// Builds the source. `backbone` overlays a static path so the graph
    /// stays connected regardless of geometry.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        n: usize,
        radius: f64,
        speed: f64,
        sample_dt: f64,
        horizon: f64,
        backbone: bool,
        seed: u64,
    ) -> Self {
        assert!(n >= 2 && radius > 0.0 && speed > 0.0 && sample_dt > 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let pos = generators::random_positions(n, &mut rng);
        let waypoint = generators::random_positions(n, &mut rng);
        let backbone: BTreeSet<Edge> = if backbone {
            generators::path(n).into_iter().collect()
        } else {
            BTreeSet::new()
        };
        let mut current: BTreeSet<Edge> = generators::geometric_grid(&pos, radius)
            .into_iter()
            .collect();
        current.extend(backbone.iter().copied());
        let initial: Vec<Edge> = current.iter().copied().collect();
        MobilitySource {
            n,
            radius,
            speed,
            sample_dt,
            horizon,
            rng,
            pos,
            waypoint,
            backbone,
            current,
            next_sample: sample_dt,
            pending: VecDeque::new(),
            initial,
        }
    }

    /// Advances the world by one sample and queues the edge diffs.
    fn advance_sample(&mut self) {
        let t = Time::new(self.next_sample);
        let step = self.speed * self.sample_dt;
        for i in 0..self.n {
            let (px, py) = self.pos[i];
            let (wx, wy) = self.waypoint[i];
            let (dx, dy) = (wx - px, wy - py);
            let d = (dx * dx + dy * dy).sqrt();
            if d <= step {
                self.pos[i] = (wx, wy);
                self.waypoint[i] = (self.rng.gen_range(0.0..1.0), self.rng.gen_range(0.0..1.0));
            } else {
                self.pos[i] = (px + dx / d * step, py + dy / d * step);
            }
        }
        let mut next: BTreeSet<Edge> = generators::geometric_grid(&self.pos, self.radius)
            .into_iter()
            .collect();
        next.extend(self.backbone.iter().copied());
        // `symmetric_difference` iterates ascending by edge, giving the
        // canonical (time, edge) emission order within the instant.
        for &e in self.current.symmetric_difference(&next) {
            let kind = if next.contains(&e) {
                TopologyEventKind::Add
            } else {
                TopologyEventKind::Remove
            };
            self.pending.push_back(ev(t, kind, e));
        }
        self.current = next;
        self.next_sample += self.sample_dt;
    }

    /// Ensures the pending buffer is non-empty or the horizon is spent.
    fn refill(&mut self) {
        while self.pending.is_empty() && self.next_sample <= self.horizon {
            self.advance_sample();
        }
    }
}

impl TopologySource for MobilitySource {
    fn n(&self) -> usize {
        self.n
    }

    fn initial_edges(&mut self) -> Vec<Edge> {
        std::mem::take(&mut self.initial)
    }

    fn peek_time(&mut self) -> Option<Time> {
        self.refill();
        self.pending.front().map(|e| e.time)
    }

    fn pull_until(&mut self, until: Time, buf: &mut Vec<TopologyEvent>) {
        loop {
            self.refill();
            match self.pending.front() {
                Some(e) if e.time <= until => {
                    buf.push(self.pending.pop_front().expect("peeked"));
                }
                _ => break,
            }
        }
    }
}

/// Periodic partition-and-heal over a path backbone.
///
/// Every `period` (starting at `t = period`), the `cuts` evenly spaced
/// backbone edges fail simultaneously — splitting the path into
/// `cuts + 1` islands — and heal `outage` later. Because a path loses
/// connectivity with *any* edge down, every T-window overlapping an
/// outage is disconnected: this family deliberately steps outside
/// Definition 3.1's envelope to measure re-convergence after heals.
/// State is a cycle counter.
#[derive(Debug)]
pub struct PartitionSource {
    n: usize,
    period: f64,
    outage: f64,
    horizon: f64,
    cut_edges: Vec<Edge>,
    /// Next cycle to emit (cycle `k ≥ 1` cuts at `k·period`).
    cycle: u64,
    pending: VecDeque<TopologyEvent>,
    initial: Vec<Edge>,
}

impl PartitionSource {
    /// Builds the source; `cuts ≥ 1` edges are removed per cycle.
    pub fn new(n: usize, cuts: usize, period: f64, outage: f64, horizon: f64) -> Self {
        assert!(n >= 4, "partition workload needs n >= 4");
        assert!(cuts >= 1 && cuts < n - 1, "cuts out of range");
        assert!(period > outage && outage > 0.0);
        let initial = generators::path(n);
        // Evenly spaced cut points along the path, deduplicated.
        let cut_edges: Vec<Edge> = {
            let set: BTreeSet<usize> = (1..=cuts)
                .map(|i| (i * (n - 1) / (cuts + 1)).clamp(0, n - 2))
                .collect();
            set.into_iter().map(|i| Edge::between(i, i + 1)).collect()
        };
        PartitionSource {
            n,
            period,
            outage,
            horizon,
            cut_edges,
            cycle: 1,
            pending: VecDeque::new(),
            initial,
        }
    }

    /// The edges that fail each cycle (ascending).
    pub fn cut_edges(&self) -> &[Edge] {
        &self.cut_edges
    }

    fn refill(&mut self) {
        while self.pending.is_empty() {
            let down = self.cycle as f64 * self.period;
            // Mirror `staggered_ring`: only emit complete down/up pairs.
            if down + self.outage > self.horizon {
                return;
            }
            for &e in &self.cut_edges {
                self.pending
                    .push_back(ev(Time::new(down), TopologyEventKind::Remove, e));
            }
            for &e in &self.cut_edges {
                self.pending.push_back(ev(
                    Time::new(down + self.outage),
                    TopologyEventKind::Add,
                    e,
                ));
            }
            self.cycle += 1;
        }
    }
}

impl TopologySource for PartitionSource {
    fn n(&self) -> usize {
        self.n
    }

    fn initial_edges(&mut self) -> Vec<Edge> {
        std::mem::take(&mut self.initial)
    }

    fn peek_time(&mut self) -> Option<Time> {
        self.refill();
        self.pending.front().map(|e| e.time)
    }

    fn pull_until(&mut self, until: Time, buf: &mut Vec<TopologyEvent>) {
        loop {
            self.refill();
            match self.pending.front() {
                Some(e) if e.time <= until => {
                    buf.push(self.pending.pop_front().expect("peeked"));
                }
                _ => break,
            }
        }
    }
}

/// Flash-crowd join/leave waves over a path backbone.
///
/// Wave `k` starts at `(k + 1) · period` and targets hub
/// `hub(k mod hubs)`: `wave_size` distinct crowd nodes each form an edge
/// to the hub at an arrival time uniform in the wave's `ramp`, and drop
/// it `dwell` after arriving. `ramp + dwell < period` is enforced so
/// consecutive waves never overlap and every add applies to an absent
/// edge. State is one wave's worth of buffered events plus a per-wave
/// RNG stream — `O(wave_size)`, independent of the horizon.
#[derive(Debug)]
pub struct FlashCrowdSource {
    n: usize,
    seed: u64,
    hubs: Vec<NodeId>,
    wave_size: usize,
    period: f64,
    ramp: f64,
    dwell: f64,
    horizon: f64,
    /// Hub ids plus their backbone neighbors — never sampled as crowd.
    excluded: BTreeSet<NodeId>,
    wave: u64,
    pending: VecDeque<TopologyEvent>,
    initial: Vec<Edge>,
}

impl FlashCrowdSource {
    /// Builds the source with `hubs` evenly spaced hub nodes.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        n: usize,
        hubs: usize,
        wave_size: usize,
        period: f64,
        ramp: f64,
        dwell: f64,
        horizon: f64,
        seed: u64,
    ) -> Self {
        assert!(n >= 8, "flash-crowd workload needs n >= 8");
        assert!(hubs >= 1 && hubs * 4 <= n, "too many hubs for n");
        assert!(period > 0.0 && ramp > 0.0 && dwell > 0.0);
        assert!(
            ramp + dwell < period,
            "waves must not overlap: ramp + dwell < period"
        );
        assert!(wave_size >= 1);
        let hub_ids: Vec<NodeId> = {
            let set: BTreeSet<usize> = (0..hubs).map(|h| h * n / hubs).collect();
            set.into_iter().map(node).collect()
        };
        let mut excluded = BTreeSet::new();
        for &h in &hub_ids {
            let i = h.index();
            excluded.insert(h);
            if i > 0 {
                excluded.insert(node(i - 1));
            }
            if i + 1 < n {
                excluded.insert(node(i + 1));
            }
        }
        let wave_size = wave_size.min(n - excluded.len());
        FlashCrowdSource {
            n,
            seed,
            hubs: hub_ids,
            wave_size,
            period,
            ramp,
            dwell,
            horizon,
            excluded,
            wave: 0,
            pending: VecDeque::new(),
            initial: generators::path(n),
        }
    }

    /// Generates one wave's events (sorted by `(time, edge)`).
    fn refill(&mut self) {
        while self.pending.is_empty() {
            let start = (self.wave as f64 + 1.0) * self.period;
            if start + self.ramp + self.dwell > self.horizon {
                return;
            }
            let hub = self.hubs[(self.wave % self.hubs.len() as u64) as usize];
            let mut rng = StdRng::seed_from_u64(
                self.seed
                    ^ 0x1F83_D9AB_FB41_BD6B
                    ^ (self.wave + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let mut crowd = BTreeSet::new();
            let mut guard = 0;
            while crowd.len() < self.wave_size {
                guard += 1;
                if guard > 100 * self.wave_size + 1000 {
                    break; // tiny n: accept a smaller crowd
                }
                let v = node(rng.gen_range(0..self.n));
                if !self.excluded.contains(&v) {
                    crowd.insert(v);
                }
            }
            let mut events: Vec<TopologyEvent> = Vec::with_capacity(2 * crowd.len());
            for v in crowd {
                let arrival = start + rng.gen_range(0.0..self.ramp);
                let e = Edge::new(v, hub);
                events.push(ev(Time::new(arrival), TopologyEventKind::Add, e));
                events.push(ev(
                    Time::new(arrival + self.dwell),
                    TopologyEventKind::Remove,
                    e,
                ));
            }
            events.sort_by(|a, b| a.time.cmp(&b.time).then(a.edge.cmp(&b.edge)));
            self.pending.extend(events);
            self.wave += 1;
        }
    }
}

impl TopologySource for FlashCrowdSource {
    fn n(&self) -> usize {
        self.n
    }

    fn initial_edges(&mut self) -> Vec<Edge> {
        std::mem::take(&mut self.initial)
    }

    fn peek_time(&mut self) -> Option<Time> {
        self.refill();
        self.pending.front().map(|e| e.time)
    }

    fn pull_until(&mut self, until: Time, buf: &mut Vec<TopologyEvent>) {
        loop {
            self.refill();
            match self.pending.front() {
                Some(e) if e.time <= until => {
                    buf.push(self.pending.pop_front().expect("peeked"));
                }
                _ => break,
            }
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
    fn mobility_source_collects_to_valid_schedule_and_churns() {
        for (n, speed, horizon, backbone, seed) in
            [(24, 0.08, 40.0, true, 5), (15, 0.1, 80.0, false, 6)]
        {
            let src = MobilitySource::new(n, 0.25, speed, 1.0, horizon, backbone, seed);
            let sched = collect_schedule(src);
            let adds = sched
                .events()
                .iter()
                .filter(|e| e.kind == TopologyEventKind::Add)
                .count();
            let removes = sched.events().len() - adds;
            assert!(adds > 0 && removes > 0, "adds={adds} removes={removes}");
            // A backbone keeps every instantaneous graph connected.
            if backbone {
                assert!(is_interval_connected(&sched, secs(1.0), at(horizon)));
            }
        }
    }

    #[test]
    fn mobility_source_is_deterministic_per_seed() {
        let mk = |seed| collect_schedule(MobilitySource::new(16, 0.3, 0.1, 1.0, 25.0, true, seed));
        assert_eq!(mk(3), mk(3));
        assert_ne!(mk(3), mk(4));
    }

    #[test]
    fn partition_source_cuts_and_heals() {
        let src = PartitionSource::new(16, 3, 5.0, 1.0, 52.0);
        assert_eq!(src.cut_edges().len(), 3);
        let sched = collect_schedule(PartitionSource::new(16, 3, 5.0, 1.0, 52.0));
        // 10 full cycles fit in [5, 51]: 3 removes + 3 adds each.
        assert_eq!(sched.events().len(), 10 * 6);
        // Mid-outage the path is split into 4 islands.
        assert!(!is_connected(16, sched.edges_at(at(5.5)).iter().copied()));
        // Healed again after the outage.
        assert!(is_connected(16, sched.edges_at(at(6.5)).iter().copied()));
        // A path loses connectivity with any edge down, so windows that
        // overlap an outage are disconnected — this family is deliberately
        // outside Definition 3.1's envelope.
        assert!(!is_interval_connected(&sched, secs(2.0), at(52.0)));
    }

    #[test]
    fn flash_crowd_source_waves_join_and_leave() {
        let sched = collect_schedule(FlashCrowdSource::new(64, 4, 8, 10.0, 2.0, 4.0, 65.0, 9));
        let adds = sched
            .events()
            .iter()
            .filter(|e| e.kind == TopologyEventKind::Add)
            .count();
        let removes = sched.events().len() - adds;
        assert_eq!(adds, removes, "every join leaves again");
        // Wave starts 10, 20, 30, 40, 50 all fit start + ramp + dwell ≤ 65.
        assert!(adds >= 5 * 8, "expected ≥ 5 full waves of 8, got {adds}");
        // Mid-wave the hub degree spikes above its backbone degree of 2.
        let mid_wave = sched
            .edges_at(at(12.5))
            .iter()
            .filter(|e| {
                e.touches(node(0))
                    || e.touches(node(16))
                    || e.touches(node(32))
                    || e.touches(node(48))
            })
            .count();
        assert!(mid_wave > 4, "crowd edges present mid-wave: {mid_wave}");
        // Backbone is static: always connected.
        assert!(is_interval_connected(&sched, secs(5.0), at(65.0)));
    }

    #[test]
    fn flash_crowd_is_deterministic_per_seed() {
        let mk =
            |seed| collect_schedule(FlashCrowdSource::new(32, 2, 5, 8.0, 1.0, 3.0, 40.0, seed));
        assert_eq!(mk(1), mk(1));
        assert_ne!(mk(1), mk(2));
    }
}
