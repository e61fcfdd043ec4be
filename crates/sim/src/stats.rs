//! Execution counters, used by tests (e.g. determinism checks) and benches.

/// Counters accumulated over one simulation run.
///
/// Equality deliberately skips the *scheduling* counters
/// ([`segments_parallel`](Self::segments_parallel),
/// [`segments_inline`](Self::segments_inline),
/// [`par_min_events`](Self::par_min_events)): they describe how the host
/// chose to execute the trace, not the trace itself, and determinism
/// tests compare stats across thread counts with `assert_eq!`. Every
/// other counter — including the topology *batch* counters, which are a
/// pure function of the instant sequence — must be bit-identical for
/// every worker count.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimStats {
    /// Events popped from the queue (including skipped stale ones).
    pub events_processed: u64,
    /// Messages handed to the environment via `send`.
    pub messages_sent: u64,
    /// Messages delivered to their destination.
    pub messages_delivered: u64,
    /// Sends attempted on edges that did not exist at send time.
    pub dropped_no_edge: u64,
    /// Messages lost because the edge went down in flight.
    pub dropped_in_flight: u64,
    /// Timer alarms delivered to automata.
    pub alarms_fired: u64,
    /// Alarms skipped because the timer was re-set or cancelled.
    pub alarms_stale: u64,
    /// Link changes delivered via `on_discover`.
    pub discovers_delivered: u64,
    /// Discover events skipped because a newer change for the same edge
    /// had already been delivered (transient change, allowed by the model).
    pub discovers_stale: u64,
    /// Topology events applied.
    pub topology_events: u64,
    /// Topology events pulled from the source into the wheel.
    pub topology_pulled: u64,
    /// Peak number of pulled-but-not-yet-applied topology events — the
    /// streaming pipeline's event backlog. Bounded by the pull lookahead
    /// window, independent of the total churn-event count (the old eager
    /// pre-load made this the whole schedule). Identical across thread
    /// counts: pulls are driven by the instant sequence, which is part of
    /// the trace.
    pub peak_topology_backlog: u64,
    /// Peak number of pulled topology/fault events parked in the compact
    /// staging buffers — pulled from their source (and holding reserved
    /// wheel sequence numbers) but not yet admitted into the wheel
    /// because they are not due. Staging is driven by the instant
    /// sequence alone, so the peak is identical across thread counts.
    pub peak_staged_events: u64,
    /// Fault events pulled from the fault source into the wheel.
    pub faults_pulled: u64,
    /// Fault events applied (at their barrier).
    pub faults_applied: u64,
    /// Nodes newly crashed (double crashes are no-ops and not counted).
    pub crashes: u64,
    /// Node restarts applied (including in-place reboots of live nodes).
    pub restarts: u64,
    /// Deliveries lost because the destination was crashed.
    pub dropped_crashed: u64,
    /// Alarms and discoveries suppressed at crashed nodes.
    pub suppressed_crashed: u64,
    /// Sends lost to an open `DropWindow`.
    pub dropped_fault_window: u64,
    /// Sends whose delay was overridden by an open `DelaySpike`.
    pub delay_spiked: u64,
    /// Topology batches applied — one per instant that carried at least
    /// one topology event (stepped execution applies one event per
    /// batch). A function of the instant sequence alone, so identical
    /// across thread counts.
    pub topology_batches: u64,
    /// Widest topology batch applied (events in one instant's batch).
    /// Trace-relevant like [`topology_batches`](Self::topology_batches).
    pub peak_batch_len: u64,
    /// Segments forked across threads (`dispatch::fork_join`).
    /// **Scheduling only** — depends on the thread count and the
    /// parallel threshold, excluded from equality.
    pub segments_parallel: u64,
    /// Segments run inline on the coordinating thread. Scheduling only,
    /// excluded from equality.
    pub segments_inline: u64,
    /// The effective parallel threshold this run was built with (see
    /// `SimBuilder::par_threshold`). Configuration echo, excluded from
    /// equality.
    pub par_min_events: u64,
}

impl PartialEq for SimStats {
    fn eq(&self, other: &Self) -> bool {
        // Destructure so a new counter is a compile error until it is
        // classified as trace-relevant or scheduling-only.
        let SimStats {
            events_processed,
            messages_sent,
            messages_delivered,
            dropped_no_edge,
            dropped_in_flight,
            alarms_fired,
            alarms_stale,
            discovers_delivered,
            discovers_stale,
            topology_events,
            topology_pulled,
            peak_topology_backlog,
            peak_staged_events,
            faults_pulled,
            faults_applied,
            crashes,
            restarts,
            dropped_crashed,
            suppressed_crashed,
            dropped_fault_window,
            delay_spiked,
            topology_batches,
            peak_batch_len,
            segments_parallel: _,
            segments_inline: _,
            par_min_events: _,
        } = *self;
        events_processed == other.events_processed
            && messages_sent == other.messages_sent
            && messages_delivered == other.messages_delivered
            && dropped_no_edge == other.dropped_no_edge
            && dropped_in_flight == other.dropped_in_flight
            && alarms_fired == other.alarms_fired
            && alarms_stale == other.alarms_stale
            && discovers_delivered == other.discovers_delivered
            && discovers_stale == other.discovers_stale
            && topology_events == other.topology_events
            && topology_pulled == other.topology_pulled
            && peak_topology_backlog == other.peak_topology_backlog
            && peak_staged_events == other.peak_staged_events
            && faults_pulled == other.faults_pulled
            && faults_applied == other.faults_applied
            && crashes == other.crashes
            && restarts == other.restarts
            && dropped_crashed == other.dropped_crashed
            && suppressed_crashed == other.suppressed_crashed
            && dropped_fault_window == other.dropped_fault_window
            && delay_spiked == other.delay_spiked
            && topology_batches == other.topology_batches
            && peak_batch_len == other.peak_batch_len
    }
}

impl Eq for SimStats {}

impl SimStats {
    /// Adds another counter set into this one (used to fold per-shard
    /// deltas into the global counters; addition is order-independent, so
    /// totals are identical for every worker count).
    pub fn absorb(&mut self, other: &SimStats) {
        self.events_processed += other.events_processed;
        self.messages_sent += other.messages_sent;
        self.messages_delivered += other.messages_delivered;
        self.dropped_no_edge += other.dropped_no_edge;
        self.dropped_in_flight += other.dropped_in_flight;
        self.alarms_fired += other.alarms_fired;
        self.alarms_stale += other.alarms_stale;
        self.discovers_delivered += other.discovers_delivered;
        self.discovers_stale += other.discovers_stale;
        self.topology_events += other.topology_events;
        self.topology_pulled += other.topology_pulled;
        self.peak_topology_backlog = self.peak_topology_backlog.max(other.peak_topology_backlog);
        self.peak_staged_events = self.peak_staged_events.max(other.peak_staged_events);
        self.faults_pulled += other.faults_pulled;
        self.faults_applied += other.faults_applied;
        self.crashes += other.crashes;
        self.restarts += other.restarts;
        self.dropped_crashed += other.dropped_crashed;
        self.suppressed_crashed += other.suppressed_crashed;
        self.dropped_fault_window += other.dropped_fault_window;
        self.delay_spiked += other.delay_spiked;
        self.topology_batches += other.topology_batches;
        self.peak_batch_len = self.peak_batch_len.max(other.peak_batch_len);
        self.segments_parallel += other.segments_parallel;
        self.segments_inline += other.segments_inline;
        self.par_min_events = self.par_min_events.max(other.par_min_events);
    }

    /// Messages lost for any reason.
    pub fn total_dropped(&self) -> u64 {
        self.dropped_no_edge
            + self.dropped_in_flight
            + self.dropped_crashed
            + self.dropped_fault_window
    }

    /// Delivery ratio over attempted sends (1.0 when nothing was dropped).
    pub fn delivery_ratio(&self) -> f64 {
        if self.messages_sent == 0 {
            1.0
        } else {
            self.messages_delivered as f64 / self.messages_sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let mut s = SimStats::default();
        assert_eq!(s.delivery_ratio(), 1.0);
        s.messages_sent = 10;
        s.messages_delivered = 8;
        s.dropped_no_edge = 1;
        s.dropped_in_flight = 1;
        assert_eq!(s.total_dropped(), 2);
        assert!((s.delivery_ratio() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn equality_skips_scheduling_counters() {
        let a = SimStats {
            messages_delivered: 3,
            topology_batches: 2,
            peak_batch_len: 5,
            segments_parallel: 10,
            segments_inline: 4,
            par_min_events: 64,
            ..SimStats::default()
        };
        let b = SimStats {
            segments_parallel: 0,
            segments_inline: 99,
            par_min_events: 1,
            ..a
        };
        assert_eq!(a, b, "scheduling counters must not break equality");
        let c = SimStats {
            peak_batch_len: 6,
            ..a
        };
        assert_ne!(a, c, "batch counters are trace-relevant");
    }
}
