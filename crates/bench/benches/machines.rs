//! Criterion benches for the dataflow machines (E4/E7/E10 timing side).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sdss_bench::{build_stores, standard_sky};
use sdss_catalog::TagObject;
use sdss_dataflow::{
    parallel_sort_by_key, HashMachine, ObjPredicate, PairPredicate, ScanMachine, SimCluster,
};
use std::hint::black_box;
use std::sync::Arc;

fn bench_scan_machine(c: &mut Criterion) {
    let objs = standard_sky(20_000, 71);
    let (store, _) = build_stores(&objs, 7);
    let pred: ObjPredicate = Arc::new(|o| o.mag(2) < 20.0);
    let mut group = c.benchmark_group("scan_machine");
    group.throughput(Throughput::Bytes(store.bytes() as u64));
    for nodes in [1usize, 4, 8] {
        let cluster = SimCluster::from_store(&store, nodes).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, _| {
            let machine = ScanMachine::new(&cluster);
            b.iter(|| {
                let mut n = 0usize;
                machine.run_query(pred.clone(), |_| n += 1).unwrap();
                black_box(n)
            });
        });
    }
    group.finish();
}

fn bench_hash_machine(c: &mut Criterion) {
    let tags: Vec<TagObject> = standard_sky(10_000, 72)
        .iter()
        .map(TagObject::from_photo)
        .collect();
    let pred: PairPredicate = Arc::new(|_, _| true);
    let radius = 30.0 / 3600.0;
    let machine = HashMachine {
        bucket_level: 9,
        margin_deg: radius,
        n_workers: 4,
    };
    c.bench_function("hash_machine_pairs_10k", |b| {
        b.iter(|| black_box(machine.find_pairs(&tags, radius, &pred).unwrap().0.len()));
    });
}

fn bench_sort(c: &mut Criterion) {
    let tags: Vec<TagObject> = standard_sky(50_000, 73)
        .iter()
        .map(TagObject::from_photo)
        .collect();
    let mut group = c.benchmark_group("river_sort_50k");
    group.throughput(Throughput::Bytes(
        (tags.len() * TagObject::SERIALIZED_LEN) as u64,
    ));
    for workers in [1usize, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| {
                black_box(
                    parallel_sort_by_key(&tags, |t| t.mags[2] as f64, w)
                        .unwrap()
                        .0
                        .len(),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scan_machine, bench_hash_machine, bench_sort);
criterion_main!(benches);
