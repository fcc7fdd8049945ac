//! Columnar batch execution vs row-at-a-time interpretation (the
//! tentpole measurement for the compiled tag-scan path).
//!
//! Workload: E5-style popular-attribute predicate queries over the tag
//! partition — the query class the paper says dominates the archive
//! ("searched more than 10 times faster, if no other attributes are
//! involved"). Both engines run the *same* plans over the *same* stores;
//! the only difference is `ExecMode`.
//!
//! Besides the criterion groups, the harness emits
//! `BENCH_batch_exec.json` at the workspace root with rows/second for
//! both modes and the speedup, so CI and later sessions can track the
//! compiled-path advantage numerically.

use criterion::{criterion_group, Criterion, Throughput};
use sdss_bench::{bitwise_multiset, build_stores, standard_sky};
use sdss_query::{Archive, ArchiveConfig, ExecMode};
use sdss_storage::{ObjectStore, TagStore};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const N_OBJECTS: usize = 60_000;

/// The E5-style query mix: popular attributes only, varying selectivity
/// and operator coverage.
const QUERIES: &[(&str, &str)] = &[
    (
        "galaxy_color_cut",
        "SELECT objid, ra, dec, r FROM photoobj \
         WHERE r < 20 AND gr BETWEEN 0.3 AND 0.9 AND class = 'GALAXY'",
    ),
    (
        "bright_selective",
        "SELECT objid, r FROM photoobj WHERE r < 17.5",
    ),
    (
        "quasar_colors",
        "SELECT objid, ug, gr FROM photoobj \
         WHERE class = 'QSO' AND ug < 0.6 AND SQRT(size) < 2",
    ),
    (
        "cone_and_predicate",
        "SELECT objid, ra, dec, r, class FROM photoobj \
         WHERE CIRCLE(185, 15, 2.5) AND r < 21 AND iz > 0.05",
    ),
    (
        "count_aggregate",
        "SELECT COUNT(*) FROM photoobj WHERE r BETWEEN 18 AND 21 AND class != 'STAR'",
    ),
    (
        "fold_aggregate",
        "SELECT COUNT(*), AVG(r), MIN(gr), MAX(gr) FROM photoobj \
         WHERE gr BETWEEN 0.3 AND 0.9",
    ),
    (
        // Mostly bisected containers: the cover's row classification.
        "wide_cone_count",
        "SELECT COUNT(*) FROM photoobj WHERE CIRCLE(185, 15, 2)",
    ),
];

/// Timed runs per query and mode; the report keeps the best.
const RUNS: usize = 5;

/// Two archive handles over the same stores, compiled vs interpreted.
fn archive_pair(store: ObjectStore, tags: TagStore) -> (Archive, Archive) {
    let (store, tags) = (Arc::new(store), Arc::new(tags));
    let compiled = Archive::with_config(
        store.clone(),
        Some(tags.clone()),
        ArchiveConfig {
            mode: ExecMode::Auto,
            ..ArchiveConfig::default()
        },
    );
    let interpreted = Archive::with_config(
        store,
        Some(tags),
        ArchiveConfig {
            mode: ExecMode::Interpreted,
            ..ArchiveConfig::default()
        },
    );
    (compiled, interpreted)
}

fn bench_batch_exec(c: &mut Criterion) {
    let objs = standard_sky(N_OBJECTS, 2026);
    let (store, tags) = build_stores(&objs, 6);
    let n_rows = tags.len() as u64;
    let (compiled, interpreted) = archive_pair(store, tags);

    for (name, sql) in QUERIES {
        // Sanity: bitwise the same rows and the compiled path engaging.
        let a = compiled.run(sql).expect("query runs");
        let b = interpreted.run(sql).expect("query runs");
        assert_eq!(
            bitwise_multiset(&a.rows),
            bitwise_multiset(&b.rows),
            "{name} diverged"
        );
        assert!(a.stats.columnar, "{name} did not take the compiled path");

        let mut group = c.benchmark_group(format!("batch_exec/{name}"));
        group.throughput(Throughput::Elements(n_rows));
        group.bench_function("interpreted_rows", |bch| {
            bch.iter(|| black_box(interpreted.run(sql).unwrap().rows.len()));
        });
        group.bench_function("compiled_columnar", |bch| {
            bch.iter(|| black_box(compiled.run(sql).unwrap().rows.len()));
        });
        group.finish();
    }
}

criterion_group!(benches, bench_batch_exec);

/// Best-of-N wall time for one archive+query, re-executing one prepared
/// statement (the server-shaped hot path: no per-run parse/plan).
fn best_secs(archive: &Archive, sql: &str, runs: usize) -> f64 {
    let prepared = archive.prepare(sql).expect("query prepares");
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let t0 = Instant::now();
        black_box(prepared.run().expect("query runs").rows.len());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn emit_json() {
    let objs = standard_sky(N_OBJECTS, 2026);
    let (store, tags) = build_stores(&objs, 6);
    let scanned_rows = tags.len() as f64;
    let (compiled, interpreted) = archive_pair(store, tags);

    let mut entries = Vec::new();
    let mut speedups = Vec::new();
    let mut headline = 0.0f64;
    for (name, sql) in QUERIES {
        // Warm both paths (cover cache, allocator) before timing.
        let _ = compiled.run(sql).unwrap();
        let _ = interpreted.run(sql).unwrap();
        let t_int = best_secs(&interpreted, sql, RUNS);
        let t_col = best_secs(&compiled, sql, RUNS);
        let rps_int = scanned_rows / t_int;
        let rps_col = scanned_rows / t_col;
        let speedup = rps_col / rps_int;
        speedups.push(speedup);
        if *name == "galaxy_color_cut" {
            headline = speedup;
        }
        entries.push(format!(
            "    {{\"query\": \"{name}\", \"interpreted_rows_per_sec\": {rps_int:.0}, \
             \"compiled_rows_per_sec\": {rps_col:.0}, \"speedup\": {speedup:.2}}}"
        ));
        println!(
            "{name:<24} interpreted {rps_int:>12.0} rows/s   compiled {rps_col:>12.0} rows/s   {speedup:>5.2}x"
        );
    }
    let geomean = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
    println!("geomean speedup {geomean:.2}x   headline (galaxy_color_cut) {headline:.2}x");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"batch_exec\",\n  \"objects\": {N_OBJECTS},\n  \
         \"cores\": {cores},\n  \"best_of_runs\": {RUNS},\n  \
         \"headline_popular_attribute_speedup\": {headline:.2},\n  \
         \"geomean_speedup\": {geomean:.2},\n  \"queries\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let path = root.join("BENCH_batch_exec.json");
    std::fs::write(&path, json).expect("write BENCH_batch_exec.json");
    println!("wrote {}", path.display());
}

fn main() {
    benches();
    emit_json();
}
