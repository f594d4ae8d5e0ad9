//! Criterion micro-benchmarks of the performance-critical protocol data
//! structures and the simulator core: routing-table offers, leaf-set
//! updates, the routing function, the self-tuning solver, and event-queue
//! throughput.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mspastry::id::Id;
use mspastry::leaf_set::LeafSet;
use mspastry::routing::{route, NextHop};
use mspastry::routing_table::RoutingTable;
use mspastry::tuning;
use mspastry::Config;
use netsim::EventQueue;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn bench_routing_table(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(1);
    let own = Id::random(&mut rng);
    let ids: Vec<Id> = (0..1000).map(|_| Id::random(&mut rng)).collect();
    c.bench_function("routing_table_offer_1000", |b| {
        b.iter_batched(
            || RoutingTable::new(own, 4),
            |mut rt| {
                for (i, &id) in ids.iter().enumerate() {
                    rt.offer(id, i as u64);
                }
                rt
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_leaf_set(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(2);
    let own = Id::random(&mut rng);
    let ids: Vec<Id> = (0..256).map(|_| Id::random(&mut rng)).collect();
    c.bench_function("leaf_set_add_256", |b| {
        b.iter_batched(
            || LeafSet::new(own, 16),
            |mut ls| {
                for &id in &ids {
                    ls.add(id);
                }
                ls
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_route(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(3);
    let own = Id::random(&mut rng);
    let mut rt = RoutingTable::new(own, 4);
    let mut ls = LeafSet::new(own, 16);
    for _ in 0..2000 {
        let id = Id::random(&mut rng);
        rt.offer(id, rng.gen_range(1..100_000));
        ls.add(id);
    }
    let keys: Vec<Id> = (0..256).map(|_| Id::random(&mut rng)).collect();
    c.bench_function("route_256_keys", |b| {
        b.iter(|| {
            let mut local = 0;
            for &k in &keys {
                if route(&rt, &ls, k, |_| false) == NextHop::Local {
                    local += 1;
                }
            }
            local
        })
    });
}

fn bench_tuning(c: &mut Criterion) {
    let cfg = Config::default();
    c.bench_function("solve_t_rt", |b| {
        b.iter(|| tuning::solve_t_rt(&cfg, std::hint::black_box(2e-10), 10_000.0))
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_10k_mixed", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut x = 0x9e3779b97f4a7c15u64;
            for i in 0..10_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                q.schedule_at(x % 1_000_000, i);
            }
            let mut sum = 0u64;
            while let Some(e) = q.pop() {
                sum = sum.wrapping_add(e.payload);
            }
            sum
        })
    });
}

fn bench_codec(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(4);
    let msg = mspastry::Message::LsProbe {
        leaf_set: (0..32).map(|_| Id::random(&mut rng)).collect(),
        failed: (0..4).map(|_| Id::random(&mut rng)).collect(),
        trt_hint: Some(30_000_000),
    };
    let bytes = mspastry::codec::encode(&msg);
    c.bench_function("codec_encode_ls_probe", |b| {
        b.iter(|| mspastry::codec::encode(std::hint::black_box(&msg)))
    });
    c.bench_function("codec_decode_ls_probe", |b| {
        b.iter(|| mspastry::codec::decode(std::hint::black_box(&bytes)).unwrap())
    });
}

criterion_group!(
    benches,
    bench_routing_table,
    bench_leaf_set,
    bench_route,
    bench_tuning,
    bench_event_queue,
    bench_codec
);
criterion_main!(benches);
