//! The bounded explorer (`gcs_mc::explore`): a whole suite, one
//! scenario, and the canonical state encoding every explored state pays
//! for.
//!
//! `suite/n3` explores the six `n = 3` scenarios (32,576 states) and
//! `scenario/n4-static-r1` the second `n = 4` scenario (69,696 states);
//! both report distinct states per second. `encode/n4` encodes one
//! `n = 4` state into a reused buffer: the state `n4-static-r1`'s default
//! run (every delay choice 0) reaches at the horizon, with its pending
//! queue.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use gcs_core::GradientNode;
use gcs_mc::explore::{explore, explore_suite, suite};
use gcs_mc::{DelayDecider, Model};

fn bench_explore(c: &mut Criterion) {
    let mut group = c.benchmark_group("explore");
    // One exploration takes tens of milliseconds: ten samples keep the
    // group within a few seconds per function.
    group.sample_size(10);
    group.throughput(Throughput::Elements(explore_suite(3).states as u64));
    group.bench_function("suite/n3", |b| {
        b.iter(|| black_box(explore_suite(3).states))
    });

    let n4 = suite(4);
    let sc = n4
        .iter()
        .find(|sc| sc.name == "n4-static-r1")
        .expect("the n = 4 suite has n4-static-r1");
    let explore_r1 = || explore(sc, |_| GradientNode::new(sc.algo), 2_000_000).states;
    group.throughput(Throughput::Elements(explore_r1() as u64));
    group.bench_function("scenario/n4-static-r1", |b| {
        b.iter(|| black_box(explore_r1()))
    });

    let mut model = Model::new(sc, |_| GradientNode::new(sc.algo));
    model.run(sc.horizon, &mut DelayDecider::trail(Vec::new()), |_, _| {
        true
    });
    let mut words = Vec::new();
    group.throughput(Throughput::Elements(1));
    group.bench_function("encode/n4", |b| {
        b.iter(|| {
            words.clear();
            black_box(&model).encode(&mut words);
            black_box(words.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_explore);
criterion_main!(benches);
