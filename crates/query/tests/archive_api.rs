//! Integration tests for the archive server API: concurrent submission
//! over one shared handle, cooperative cancellation, prepared-query
//! parameter binding without re-planning, the time-to-first-row
//! invariant, and admission control.

use sdss_catalog::SkyModel;
use sdss_query::{AdmissionConfig, Archive, ArchiveConfig, QueryOutput, Value};
use sdss_storage::{ObjectStore, StoreConfig, TagStore};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn build_archive(seed: u64, n_galaxies: usize) -> Archive {
    let model = SkyModel {
        n_galaxies,
        n_stars: n_galaxies / 3,
        n_quasars: n_galaxies / 12,
        ..SkyModel::small(seed)
    };
    let objs = model.generate().unwrap();
    let mut store = ObjectStore::new(StoreConfig::default()).unwrap();
    store.insert_batch(&objs).unwrap();
    let tags = TagStore::from_store(&store);
    Archive::new(store, Some(Arc::new(tags)))
}

/// Canonical row-key form for result comparison (order-insensitive).
fn keyed(out: &QueryOutput) -> Vec<String> {
    let mut keys: Vec<String> = out
        .rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    Value::Num(x) => format!("{:?}", x.to_bits()),
                    other => format!("{other}"),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    keys.sort();
    keys
}

const STRESS_QUERIES: &[&str] = &[
    "SELECT objid, ra, dec, r FROM photoobj WHERE CIRCLE(185, 15, 1.5) AND r < 21",
    "SELECT objid, g - r AS color FROM photoobj WHERE class = 'GALAXY' AND r < 20.5",
    "SELECT COUNT(*), AVG(r) FROM photoobj WHERE CIRCLE(185, 15, 2)",
    "SELECT objid, r FROM photoobj WHERE r BETWEEN 17 AND 19 ORDER BY r LIMIT 40",
    "(SELECT objid FROM photoobj WHERE r < 20) INTERSECT \
     (SELECT objid FROM photoobj WHERE class = 'GALAXY')",
    "SELECT objid FROM photoobj WHERE DIST(185, 15) < 1.2",
];

#[test]
fn concurrent_queries_match_single_threaded_results() {
    let archive = build_archive(91, 2400);

    // Ground truth: every query run once on this thread.
    let expected: Vec<Vec<String>> = STRESS_QUERIES
        .iter()
        .map(|sql| keyed(&archive.run(sql).unwrap()))
        .collect();

    // N threads × M rounds over clones of the same handle, phase-shifted
    // so different queries overlap in flight.
    const THREADS: usize = 8;
    const ROUNDS: usize = 4;
    let expected = Arc::new(expected);
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let archive = archive.clone();
        let expected = expected.clone();
        handles.push(std::thread::spawn(move || {
            for round in 0..ROUNDS {
                for q in 0..STRESS_QUERIES.len() {
                    let pick = (q + t + round) % STRESS_QUERIES.len();
                    let out = archive.run(STRESS_QUERIES[pick]).unwrap();
                    assert_eq!(
                        keyed(&out),
                        expected[pick],
                        "thread {t} round {round} query {pick} diverged"
                    );
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(archive.admission().running, 0);
    assert_eq!(archive.admission().queued, 0);
}

#[test]
fn cancellation_stops_batches_early() {
    // After the cancel, at most one batch per worker (blocked in its
    // send) plus the channel's 8 buffered ones can still be emitted, on
    // top of the one consumed. The worker count is pinned and the sky
    // holds at least four times that many batches, so the bound below
    // has a wide margin on any host.
    const WORKERS: u64 = 2;
    let model = SkyModel {
        n_galaxies: 25_000,
        n_stars: 25_000 / 3,
        n_quasars: 25_000 / 12,
        ..SkyModel::small(92)
    };
    let mut store = ObjectStore::new(StoreConfig::default()).unwrap();
    store.insert_batch(&model.generate().unwrap()).unwrap();
    let tags = TagStore::from_store(&store);
    let config = ArchiveConfig {
        admission: AdmissionConfig {
            max_workers_per_query: WORKERS as usize,
            ..AdmissionConfig::default()
        },
        ..ArchiveConfig::default()
    };
    let archive = Archive::with_config(store, Some(Arc::new(tags)), config);
    let prepared = archive
        .prepare("SELECT objid, ra, r FROM photoobj")
        .unwrap();

    // Baseline: total batches a full drain produces.
    let full = prepared.stream().unwrap();
    let total_batches = {
        let mut stream = full;
        let mut n = 0u64;
        while stream.next_batch().is_some() {}
        let stats = stream.finish();
        n += stats.scan.batches_emitted;
        n
    };
    assert!(
        total_batches >= 4 * (1 + 8 + WORKERS),
        "need a long scan, got {total_batches} batches"
    );

    // Cancelled run: consume one batch, cancel, drain the rest.
    let mut stream = prepared.stream().unwrap();
    let ticket = stream.ticket();
    assert!(stream.next_batch().is_some());
    ticket.cancel();
    assert!(ticket.is_cancelled());
    while stream.next_batch().is_some() {}
    let stats = stream.finish();
    // The scan observed the cancel between batches: it stopped far
    // before producing the full batch count (at most what was already
    // buffered in the channel fabric).
    assert!(
        stats.scan.batches_emitted < total_batches / 2,
        "cancelled scan still emitted {} of {total_batches} batches",
        stats.scan.batches_emitted
    );
}

#[test]
fn cancellation_stops_interpreted_sweeps_too() {
    // DIST with a per-row target is not compilable, and there is no
    // spatial domain — this drives the interpreted full-sweep fallback,
    // which must also honor the cancel token (checked per row).
    let archive = build_archive(98, 9000);
    let prepared = archive
        .prepare("SELECT objid FROM photoobj WHERE DIST(ra, 15) < 5")
        .unwrap();
    assert!(!prepared.columnar());

    let full = prepared.stream().unwrap().collect_output().unwrap();
    let total_rows = full.stats.scan.rows_scanned;
    assert!(total_rows > 2000, "sweep too small: {total_rows}");

    let mut stream = prepared.stream().unwrap();
    let ticket = stream.ticket();
    assert!(stream.next_batch().is_some());
    ticket.cancel();
    while stream.next_batch().is_some() {}
    let stats = stream.finish();
    assert!(
        stats.scan.rows_scanned < total_rows / 2,
        "cancelled interpreted sweep still scanned {} of {total_rows} rows",
        stats.scan.rows_scanned
    );
    // Bytes accounting reflects the early stop, not the whole store.
    assert!(stats.scan.bytes_scanned < full.stats.scan.bytes_scanned);
}

#[test]
fn try_stream_refuses_instead_of_queueing() {
    let archive = Archive::with_config(
        {
            let objs = SkyModel::small(99).generate().unwrap();
            let mut store = ObjectStore::new(StoreConfig::default()).unwrap();
            store.insert_batch(&objs).unwrap();
            store
        },
        None,
        ArchiveConfig {
            admission: AdmissionConfig {
                max_worker_slots: 1,
                heavy_bytes: u64::MAX,
                max_heavy: 1,
                max_workers_per_query: 1,
                max_bypass: 4,
            },
            ..ArchiveConfig::default()
        },
    );
    let prepared = archive.prepare("SELECT objid FROM photoobj").unwrap();
    let held = prepared.stream().unwrap();
    // The only slot is held by `held`: blocking stream() would deadlock
    // this thread; try_stream reports the full pool instead.
    assert!(prepared.try_stream().is_err());
    drop(held);
    let out = prepared.try_stream().unwrap().collect_output().unwrap();
    assert!(!out.rows.is_empty());
}

// NOTE: the plans_built() counter assertion lives in its own test
// binary (`prepared_plan_counter.rs`) — the counter is process-global
// and would race with this binary's parallel tests.

#[test]
fn prepared_params_rebind_matches_literals() {
    let archive = build_archive(93, 1200);
    // Spatial predicates take literals (the domain and its HTM cover are
    // plan-time artifacts — exactly what prepare amortizes); `$N` binds
    // anywhere a scalar literal goes.
    let prepared = archive
        .prepare("SELECT objid, r FROM photoobj WHERE CIRCLE(185, 15, 1.5) AND r < $1 AND gr > $2")
        .unwrap();
    assert_eq!(prepared.n_params(), 2);
    assert!(prepared.columnar());

    let mut last_len = 0usize;
    for (r_cut, color) in [(19.0, 0.6), (20.5, 0.3), (22.5, -5.0)] {
        let out = prepared.run_with(&[r_cut, color]).unwrap();
        let literal = archive
            .run(&format!(
                "SELECT objid, r FROM photoobj WHERE CIRCLE(185, 15, 1.5) AND r < {r_cut} AND gr > {color}"
            ))
            .unwrap();
        assert_eq!(keyed(&out), keyed(&literal), "params ({r_cut}, {color})");
        assert!(out.rows.len() >= last_len);
        last_len = out.rows.len();
    }

    // Arity is enforced.
    assert!(prepared.run_with(&[1.0]).is_err());
    assert!(prepared.run_with(&[1.0, 2.0, 3.0]).is_err());
    // An unparameterized statement rejects stray parameters.
    let plain = archive
        .prepare("SELECT objid FROM photoobj LIMIT 1")
        .unwrap();
    assert!(plain.run_with(&[5.0]).is_err());
}

/// A prepared statement's scan plans are made once, at prepare, from its
/// domains, and every execution reuses them: that is sound only while a
/// domain cannot hold a parameter.
#[test]
fn a_parameter_in_a_domain_is_rejected_at_prepare() {
    let archive = build_archive(96, 300);
    for sql in [
        "SELECT objid FROM photoobj WHERE CIRCLE($1, 15, 1)",
        "SELECT objid FROM photoobj WHERE CIRCLE(185, 15, $1)",
        "SELECT objid FROM photoobj WHERE RECT(184, 186, $1, 16)",
    ] {
        let err = archive.prepare(sql).unwrap_err().to_string();
        assert!(err.contains("must be numeric literals"), "{sql}: {err}");
    }
}

#[test]
fn params_anywhere_a_literal_goes() {
    let archive = build_archive(94, 900);
    // Projection + BETWEEN bounds + arithmetic.
    let prepared = archive
        .prepare("SELECT objid, r * $1 AS scaled FROM photoobj WHERE r BETWEEN $2 AND $3")
        .unwrap();
    let out = prepared.run_with(&[2.0, 18.0, 20.0]).unwrap();
    let literal = archive
        .run("SELECT objid, r * 2 AS scaled FROM photoobj WHERE r BETWEEN 18 AND 20")
        .unwrap();
    assert_eq!(keyed(&out), keyed(&literal));
    assert!(!out.rows.is_empty());
}

#[test]
fn time_to_first_row_excludes_prepare_time() {
    let archive = build_archive(95, 1200);
    let prepared = archive
        .prepare("SELECT objid FROM photoobj WHERE CIRCLE(185, 15, 2)")
        .unwrap();
    // If time_to_first_row were measured from parse/plan (the old
    // Engine behavior folded them into one call), this sleep would leak
    // into it.
    std::thread::sleep(Duration::from_millis(120));
    let t0 = Instant::now();
    let out = prepared.run().unwrap();
    let exec_wall = t0.elapsed();
    let ttfr = out.stats.time_to_first_row.expect("rows were produced");
    assert!(
        ttfr <= exec_wall,
        "ttfr {ttfr:?} exceeds the execution call itself {exec_wall:?}"
    );
    assert!(
        ttfr < Duration::from_millis(120),
        "ttfr {ttfr:?} includes pre-execution time"
    );
    assert!(ttfr <= out.stats.total_time);
}

#[test]
fn admission_bounds_concurrency_and_queues() {
    let model = SkyModel {
        n_galaxies: 2000,
        n_stars: 600,
        n_quasars: 150,
        ..SkyModel::small(96)
    };
    let objs = model.generate().unwrap();
    let mut store = ObjectStore::new(StoreConfig::default()).unwrap();
    store.insert_batch(&objs).unwrap();
    let tags = TagStore::from_store(&store);
    let archive = Archive::with_config(
        store,
        Some(Arc::new(tags)),
        ArchiveConfig {
            // Two worker slots, one worker per query: at most two
            // queries execute concurrently and the slot peak is a true
            // bound on scan threads.
            admission: AdmissionConfig {
                max_worker_slots: 2,
                heavy_bytes: u64::MAX,
                max_heavy: 1,
                max_workers_per_query: 1,
                max_bypass: 4,
            },
            ..ArchiveConfig::default()
        },
    );

    let in_flight = Arc::new(AtomicUsize::new(0));
    let peak = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for _ in 0..8 {
        let archive = archive.clone();
        let in_flight = in_flight.clone();
        let peak = peak.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..3 {
                let prepared = archive
                    .prepare("SELECT objid, ra, dec, r FROM photoobj WHERE r < 23")
                    .unwrap();
                let mut stream = prepared.stream().unwrap();
                // Between stream() returning and finish(), we hold a slot.
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                let mut rows = 0usize;
                while let Some(b) = stream.next_batch() {
                    rows += b.len();
                }
                in_flight.fetch_sub(1, Ordering::SeqCst);
                assert!(rows > 0);
                drop(stream);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let observed_peak = peak.load(Ordering::SeqCst);
    assert!(
        observed_peak <= 2,
        "admission let {observed_peak} queries run concurrently"
    );
    assert_eq!(archive.admission().running, 0);
    assert!(archive.admission().peak_running <= 2);
}

#[test]
fn heavy_queries_share_the_heavy_pool() {
    let archive_small = build_archive(97, 600);
    // With a 1-byte heavy threshold every query is heavy; with the
    // default it is not.
    let cfg = ArchiveConfig {
        admission: AdmissionConfig {
            max_worker_slots: 4,
            heavy_bytes: 1,
            max_heavy: 1,
            max_workers_per_query: 2,
            max_bypass: 4,
        },
        ..ArchiveConfig::default()
    };
    let archive = Archive::with_config(
        archive_small.store().clone(),
        archive_small.tags().cloned(),
        cfg,
    );
    let p = archive.prepare("SELECT objid FROM photoobj").unwrap();
    assert!(p.is_heavy());
    // Heavy executions still complete (the pool clamps to >= 1 slot).
    let out = p.run().unwrap();
    assert!(!out.rows.is_empty());
    assert!(out.stats.scan.bytes_scanned >= 1);

    let cheap = archive_small
        .prepare("SELECT objid FROM photoobj WHERE CIRCLE(185, 15, 0.2)")
        .unwrap();
    assert!(!cheap.is_heavy());
}
