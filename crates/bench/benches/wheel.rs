//! The packed event plane: push / pop / instant-drain throughput on
//! [`gcs_sim::TimeWheel`] under backlogs of 0, 4 096 and 262 144
//! pending events, and the chunk pool's recycle path.
//!
//! Context for reading the numbers: before the compact event plane the
//! wheel stored one 56-byte `QueuedEvent` per pending event, found the
//! next non-empty bucket by linear probe over all 512 ring slots, and
//! sorted full payloads on every bucket drain. The packed plane stores a
//! 24-byte record per event (payloads live in per-class slab arenas),
//! skips empty buckets through a 512-bit occupancy bitmap, and sorts the
//! slim records only. The backlog axis is what separates the two: at
//! backlog 0 both designs do almost no work, while the 256k point is the
//! E13 churn-walk regime where record width and bucket probing dominate.
//! Compare `wheel_plane/*` means across the two designs on the same
//! machine; within one checkout the axis shows how throughput degrades
//! as the backlog grows.
//!
//! Bucket records live in 256-record chunks of one shared pool: a drain
//! copies a bucket's chunks out and returns them, and the next fill
//! takes them back. `refill/chunks_8` times that cycle on one wheel —
//! fill the next bucket with eight chunks' worth of records, drain it,
//! repeat — so it measures the pool's take/return path and the copy out
//! of the chunks, with no allocation once the first fill grew the pool.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use gcs_clocks::time::at;
use gcs_net::node;
use gcs_sim::event::{EventPayload, TimerKind};
use gcs_sim::{Message, TimeWheel};

/// Events pushed / popped per timed routine call.
const OPS: usize = 4096;
/// Width of the mass-discovery instant drained by `pop_instant`.
const INSTANT_WIDTH: usize = 1024;
/// Backlog sizes: empty, a mid e12-style pull window, the e13
/// churn-walk regime.
const BACKLOGS: [usize; 3] = [0, 4096, 262_144];
/// Records per refill: eight of the wheel's 256-record chunks.
const REFILL: usize = 8 * 256;

/// A deliver/alarm payload mix, alternating so both slab lanes are hot.
fn payload(i: usize) -> EventPayload {
    if i.is_multiple_of(2) {
        EventPayload::Deliver {
            from: node(i % 977),
            to: node((i + 1) % 977),
            msg: Message {
                logical: i as f64,
                max_estimate: i as f64,
            },
            epoch: 1,
        }
    } else {
        EventPayload::Alarm {
            node: node(i % 977),
            kind: TimerKind::Tick,
            generation: 1,
        }
    }
}

/// A wheel holding `backlog` events spread from `t = 100 s` upward
/// (0.01 s apart — a mix of in-horizon ring buckets and overflow), so
/// the timed operations below always act in front of the backlog.
fn prefilled(backlog: usize) -> TimeWheel {
    let mut wheel = TimeWheel::new(0.25);
    for j in 0..backlog {
        wheel.push(at(100.0 + j as f64 * 0.01), payload(j));
    }
    wheel
}

fn bench_wheel_plane(c: &mut Criterion) {
    let mut group = c.benchmark_group("wheel_plane");
    // iter_batched re-runs the (untimed) prefill per sample; keep the
    // sample count moderate so the 256k setup does not dominate wall
    // time.
    group.sample_size(30);
    for backlog in BACKLOGS {
        group.throughput(Throughput::Elements(OPS as u64));
        group.bench_function(format!("push/backlog_{backlog}"), |b| {
            b.iter_batched(
                || prefilled(backlog),
                |mut wheel| {
                    for i in 0..OPS {
                        wheel.push(at(1.0 + i as f64 * 1e-3), payload(i));
                    }
                    wheel
                },
                BatchSize::LargeInput,
            )
        });
        group.bench_function(format!("pop/backlog_{backlog}"), |b| {
            b.iter_batched(
                || {
                    let mut wheel = prefilled(backlog);
                    // The events the routine pops, in front of the backlog.
                    for i in 0..OPS {
                        wheel.push(at(1.0 + i as f64 * 1e-3), payload(i));
                    }
                    wheel
                },
                |mut wheel| {
                    for _ in 0..OPS {
                        black_box(wheel.pop());
                    }
                    wheel
                },
                BatchSize::LargeInput,
            )
        });
        group.throughput(Throughput::Elements(INSTANT_WIDTH as u64));
        group.bench_function(format!("pop_instant/backlog_{backlog}"), |b| {
            b.iter_batched(
                || {
                    let mut wheel = prefilled(backlog);
                    // One mass-discovery-storm instant at the front.
                    for i in 0..INSTANT_WIDTH {
                        wheel.push(at(1.0), payload(i));
                    }
                    wheel
                },
                |mut wheel| {
                    let mut buf = Vec::with_capacity(INSTANT_WIDTH);
                    wheel.pop_instant(&mut buf);
                    black_box(buf.len());
                    wheel
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.throughput(Throughput::Elements(REFILL as u64));
    group.bench_function("refill/chunks_8", |b| {
        // One wheel for every sample: each call fills the next bucket
        // (the ring wraps every 512 calls) and drains it again.
        let mut wheel = TimeWheel::new(0.25);
        let mut bucket = 0u64;
        b.iter(|| {
            bucket += 1;
            let start = bucket as f64 * 0.25;
            for i in 0..REFILL {
                wheel.push(at(start + (i % 16) as f64 * 0.01), payload(i));
            }
            for _ in 0..REFILL {
                black_box(wheel.pop());
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_wheel_plane);
criterion_main!(benches);
