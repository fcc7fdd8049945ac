//! Intra-query parallel scan throughput — the measurement the
//! morsel-driven refactor exists for: one heavy query saturating the
//! machine instead of one core.
//!
//! Two workloads, both on the compiled tag path:
//!
//! * **heavy sweep** — an unrestricted full-store projection scan
//!   (`r < 30` keeps every row), the single-query analog of the paper's
//!   20-node scan-machine sweep;
//! * **aggregate** — `COUNT/AVG/MIN/MAX` over a color cut, folded inside
//!   the scan workers (one result row through the channel fabric).
//!
//! Each runs at 1/2/4/8 workers per query; the emitted
//! `BENCH_parallel_scan.json` carries wall-clock speedups vs the serial
//! path and the parallel efficiency (speedup / workers), plus the
//! machine's core count — on a single-core CI runner the physics caps
//! speedup at ~1.0 regardless of the architecture, so readers must judge
//! the numbers against `cores`.

use sdss_bench::{build_stores, standard_sky};
use sdss_query::{AdmissionConfig, Archive, ArchiveConfig};
use sdss_storage::{ObjectStore, TagStore};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const N_OBJECTS: usize = 120_000;
const WORKER_COUNTS: &[usize] = &[1, 2, 4, 8];
/// Timed repetitions per configuration (best-of to shed scheduler noise).
const REPS: usize = 5;

const SWEEP_SQL: &str = "SELECT objid, ra, dec, r FROM photoobj WHERE r < 30";
const AGG_SQL: &str = "SELECT COUNT(*), AVG(r), MIN(r), MAX(r) FROM photoobj WHERE gr > 0.1";

fn archive_with_workers(store: &Arc<ObjectStore>, tags: &Arc<TagStore>, workers: usize) -> Archive {
    Archive::with_config(
        store.clone(),
        Some(tags.clone()),
        ArchiveConfig {
            admission: AdmissionConfig {
                max_worker_slots: workers.max(1) * 2,
                max_workers_per_query: workers,
                max_bypass: 4,
            },
            ..ArchiveConfig::default()
        },
    )
}

/// Best-of-REPS wall seconds for one prepared statement, asserting the
/// pool engaged as configured.
fn best_seconds(archive: &Archive, sql: &str, want_workers: usize) -> (f64, u64) {
    let prepared = archive.prepare(sql).expect("query prepares");
    let mut best = f64::INFINITY;
    let mut rows = 0u64;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let out = prepared.run().expect("query runs");
        let dt = t0.elapsed().as_secs_f64();
        assert!(out.stats.columnar, "{sql} missed the compiled path");
        assert_eq!(out.stats.workers_granted, want_workers, "{sql}");
        assert!(out.stats.morsels > 0, "{sql} dispatched no morsels");
        rows = out.stats.scan.rows_scanned;
        black_box(out.rows.len());
        best = best.min(dt);
    }
    (best, rows)
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("parallel scan throughput ({N_OBJECTS} objects, {cores} core(s), best of {REPS})\n");
    let objs = standard_sky(N_OBJECTS, 2028);
    let (store, tags) = build_stores(&objs, 6);
    let (store, tags) = (Arc::new(store), Arc::new(tags));
    println!(
        "tag store: {} containers, {:.1} MB\n",
        tags.num_containers(),
        tags.bytes() as f64 / 1e6
    );

    // Warm covers/allocator.
    archive_with_workers(&store, &tags, 1)
        .run(SWEEP_SQL)
        .expect("warmup");

    let mut entries = Vec::new();
    let (mut sweep_1w, mut agg_1w) = (0.0f64, 0.0f64);
    let mut sweep_speedup_4w = 0.0f64;
    println!(
        "{:<9} {:>14} {:>9} {:>10} {:>14} {:>9} {:>10}",
        "workers", "sweep rows/s", "speedup", "efficiency", "agg rows/s", "speedup", "efficiency"
    );
    println!("{}", "-".repeat(80));
    for &workers in WORKER_COUNTS {
        let archive = archive_with_workers(&store, &tags, workers);
        let (sweep_s, sweep_rows) = best_seconds(&archive, SWEEP_SQL, workers);
        let (agg_s, agg_rows) = best_seconds(&archive, AGG_SQL, workers);
        if workers == 1 {
            sweep_1w = sweep_s;
            agg_1w = agg_s;
        }
        let sweep_speedup = sweep_1w / sweep_s;
        let agg_speedup = agg_1w / agg_s;
        if workers == 4 {
            sweep_speedup_4w = sweep_speedup;
        }
        let sweep_rps = sweep_rows as f64 / sweep_s;
        let agg_rps = agg_rows as f64 / agg_s;
        println!(
            "{workers:<9} {sweep_rps:>14.0} {sweep_speedup:>8.2}x {:>10.2} {agg_rps:>14.0} {agg_speedup:>8.2}x {:>10.2}",
            sweep_speedup / workers as f64,
            agg_speedup / workers as f64,
        );
        entries.push(format!(
            "    {{\"workers\": {workers}, \"sweep_rows_per_sec\": {sweep_rps:.0}, \
             \"sweep_speedup\": {sweep_speedup:.2}, \
             \"sweep_efficiency\": {:.2}, \
             \"agg_rows_per_sec\": {agg_rps:.0}, \"agg_speedup\": {agg_speedup:.2}, \
             \"agg_efficiency\": {:.2}}}",
            sweep_speedup / workers as f64,
            agg_speedup / workers as f64,
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"parallel_scan\",\n  \"objects\": {N_OBJECTS},\n  \
         \"cores\": {cores},\n  \"containers\": {},\n  \
         \"sweep_speedup_4w\": {sweep_speedup_4w:.2},\n  \"runs\": [\n{}\n  ]\n}}\n",
        tags.num_containers(),
        entries.join(",\n")
    );
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let path = root.join("BENCH_parallel_scan.json");
    std::fs::write(&path, json).expect("write BENCH_parallel_scan.json");
    println!("\nwrote {}", path.display());
    if cores == 1 {
        println!("note: single-core machine — wall-clock speedup is capped at ~1.0 here;");
        println!("      run on a multi-core host (CI) for the real scaling numbers.");
    }
}
