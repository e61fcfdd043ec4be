//! Dispatcher overhead: scoped fork/join against inline dispatch.
//!
//! A timer-only automaton whose instants are exactly one wide segment
//! each, so one benchmark iteration advances one segment and the
//! measured time *is* the per-segment cost (handler work is a few
//! nanoseconds). `segment_fork_join` spawns and joins its scoped threads
//! once per segment; `segment_inline` is the zero-overhead floor.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gcs_clocks::time::at;
use gcs_net::{generators, NodeId, ScheduleSource, TopologySchedule};
use gcs_sim::{Automaton, Context, LinkChange, Message, ModelParams, SimBuilder, TimerKind};

fn model() -> ModelParams {
    ModelParams::new(0.01, 1.0, 2.0)
}

/// Re-arms its timer and does nothing else: every instant is one wide
/// all-nodes alarm segment with near-zero handler work.
struct Tick;

impl Automaton for Tick {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(0.5, TimerKind::Tick);
    }

    fn on_receive(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _msg: Message) {}

    fn on_discover(&mut self, _ctx: &mut Context<'_>, _change: LinkChange) {}

    fn on_alarm(&mut self, ctx: &mut Context<'_>, _kind: TimerKind) {
        ctx.set_timer(0.5, TimerKind::Tick);
    }

    fn logical_clock(&self, hw: f64) -> f64 {
        hw
    }
}

fn bench_segment_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_overhead");
    // One alarm instant (= one parallel segment) per iteration.
    group.throughput(Throughput::Elements(1));
    // `segment_inline` (threads = 1, no parallel dispatch at all) is the
    // zero-overhead floor: overhead(fork/join) = fork/join − inline.
    for (label, threads) in [("segment_inline", 1), ("segment_fork_join", 4)] {
        let schedule = TopologySchedule::static_graph(32, generators::ring(32));
        let mut sim = SimBuilder::topology(model(), ScheduleSource::new(schedule))
            .threads(threads)
            .par_threshold(1)
            .build_with(|_| Tick);
        let mut t = 0.0;
        group.bench_function(label, |b| {
            b.iter(|| {
                t += 0.5;
                sim.run_until(at(t));
            })
        });
        if threads > 1 {
            assert!(sim.stats().segments_parallel > 0);
        }
    }
    group.finish();
}

criterion_group!(benches, bench_segment_dispatch);
criterion_main!(benches);
