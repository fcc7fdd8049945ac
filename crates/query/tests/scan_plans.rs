//! Prepared scan plans: `Archive::prepare` resolves each base-store scan
//! leaf's HTM cover once, the cost estimate reads that plan, and every
//! execution drains it. So the estimate predicts exactly the bytes and
//! containers an execution reads, a fresh domain takes one cover-cache
//! entry, and re-running a prepared statement makes no cover lookup.

use sdss_catalog::SkyModel;
use sdss_query::{
    AdmissionConfig, Archive, ArchiveConfig, Prepared, QueryStats, Session, SessionConfig,
};
use sdss_storage::{CoverCache, ObjectStore, StoreConfig, TagStore};
use std::sync::Arc;

fn build_stores(seed: u64, n_galaxies: usize) -> (Arc<ObjectStore>, Arc<TagStore>) {
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
    (Arc::new(store), Arc::new(tags))
}

fn archive_with_workers(store: &Arc<ObjectStore>, tags: &Arc<TagStore>, workers: usize) -> Archive {
    Archive::with_config(
        store.clone(),
        Some(tags.clone()),
        ArchiveConfig {
            admission: AdmissionConfig {
                max_worker_slots: 16,
                max_workers_per_query: workers,
                max_bypass: 4,
            },
            ..ArchiveConfig::default()
        },
    )
}

/// A session holding `s`, a candidate set around (185, 15), cut into
/// small chunks so a MATCH against it has several probe morsels.
fn session_with_set(archive: &Archive) -> Session {
    let session = archive.session_with(SessionConfig {
        chunk_rows: 256,
        ..SessionConfig::default()
    });
    session
        .run("SELECT objid INTO s FROM photoobj WHERE CIRCLE(185, 15, 0.7) AND r < 22")
        .unwrap();
    session
}

fn run(prepared: &Prepared) -> QueryStats {
    prepared.run().unwrap().stats
}

/// The `est_bytes=… containers=…` and `planned_workers=…` fields of an
/// EXPLAIN estimate line.
fn explained(prepared: &Prepared) -> Vec<String> {
    let explain = prepared.explain();
    let line = explain.lines().next().unwrap();
    line.split_whitespace()
        .filter(|f| {
            ["est_bytes=", "containers=", "planned_workers="]
                .iter()
                .any(|k| f.starts_with(k))
        })
        .map(str::to_string)
        .collect()
}

/// Tag and full-store cones, tag and full-store sweeps, and a
/// set-vs-archive MATCH either way round, at 1 and 4 workers: the
/// estimate's bytes and full/bisected containers are the execution's.
#[test]
fn the_estimate_reads_what_the_execution_reads() {
    let (store, tags) = build_stores(201, 3000);
    let mut bisected = 0;
    for workers in [1, 4] {
        let archive = archive_with_workers(&store, &tags, workers);
        let session = session_with_set(&archive);
        let mut statements = Vec::new();
        for radius in [0.1, 0.25, 1.0, 2.5] {
            statements.push(format!(
                "SELECT objid, r FROM photoobj WHERE CIRCLE(185, 15, {radius})"
            ));
            statements.push(format!(
                "SELECT COUNT(*) FROM photoobj WHERE CIRCLE(184, 14.5, {radius}) AND r < 22"
            ));
            statements.push(format!(
                "SELECT objid, psf_r FROM photoobj WHERE CIRCLE(185, 15, {radius})"
            ));
        }
        statements.extend(
            [
                "SELECT COUNT(*) FROM photoobj WHERE r < 21",
                "SELECT objid FROM photoobj WHERE gr > 0.5",
                "SELECT COUNT(*) FROM photoobj WHERE psf_r < 21",
                "SELECT COUNT(*) FROM MATCH(s, photoobj, 20)",
                "SELECT a.objid, b.objid FROM MATCH(photoobj, s, 20)",
            ]
            .map(str::to_string),
        );
        for sql in &statements {
            let prepared = session.prepare(sql).unwrap();
            let est = *prepared.estimate();
            let scan = run(&prepared).scan;
            let ctx = format!("{sql} at {workers} workers");
            assert!(est.est_bytes > 0, "{ctx}");
            assert_eq!(est.est_bytes, scan.bytes_scanned, "{ctx}");
            assert_eq!(est.containers_full as u64, scan.containers_full, "{ctx}");
            assert_eq!(
                est.containers_partial as u64, scan.containers_partial,
                "{ctx}"
            );
            bisected += est.containers_partial;
        }
    }
    assert!(bisected > 0, "no statement bisected a container");
}

/// Run `prepared` six times. Its prepare and first run must add exactly
/// one entry and one miss to `cache` (`since` holds its length and stats
/// before the prepare), and the five re-runs must look nothing up. Every
/// execution still reports one lookup, the plan's.
fn one_lookup_per_domain(
    prepared: &Prepared,
    cache: &CoverCache,
    since: (usize, (u64, u64)),
    ctx: &str,
) {
    let (len, (hits, misses)) = since;
    for _ in 0..6 {
        let scan = run(prepared).scan;
        assert_eq!(scan.cover_cache_hits + scan.cover_cache_misses, 1, "{ctx}");
        assert_eq!(cache.len(), len + 1, "{ctx}");
        assert_eq!(cache.stats(), (hits, misses + 1), "{ctx}");
    }
}

#[test]
fn a_prepared_domain_takes_one_cover_entry_and_reruns_look_up_nothing() {
    let (store, tags) = build_stores(202, 1500);
    let archive = archive_with_workers(&store, &tags, 2);
    let session = session_with_set(&archive);
    let snapshot = |cache: &CoverCache| (cache.len(), cache.stats());
    let cases = [
        (
            "SELECT objid, r FROM photoobj WHERE CIRCLE(185.2, 15.1, 0.6)",
            false,
        ),
        (
            "SELECT COUNT(*) FROM photoobj WHERE CIRCLE(184.6, 14.8, 1.3)",
            false,
        ),
        (
            "SELECT objid, psf_r FROM photoobj WHERE CIRCLE(185.3, 14.9, 0.8)",
            true,
        ),
        ("SELECT COUNT(*) FROM MATCH(s, photoobj, 30)", false),
    ];
    for (sql, full) in cases {
        let (cache, other) = if full {
            (store.cover_cache(), tags.cover_cache())
        } else {
            (tags.cover_cache(), store.cover_cache())
        };
        let (since, untouched) = (snapshot(cache), snapshot(other));
        let prepared = session.prepare(sql).unwrap();
        one_lookup_per_domain(&prepared, cache, since, sql);
        assert_eq!(snapshot(other), untouched, "{sql}: the other store's cache");
    }
}

/// An INTO of a set operation over one source and domain runs on the lane
/// route as one scan, so EXPLAIN prices one branch: its bytes, its
/// containers and its worker grant, which is what the execution reads
/// and holds.
#[test]
fn a_fused_set_operation_into_is_priced_once() {
    let (store, tags) = build_stores(203, 3000);
    let archive = archive_with_workers(&store, &tags, 4);
    let session = session_with_set(&archive);
    let left = "SELECT objid FROM photoobj WHERE CIRCLE(185, 15, 0.5) AND r < 22";
    let right = "SELECT objid FROM photoobj WHERE CIRCLE(185, 15, 0.5) AND gr > 0.3";
    let branch = session.prepare(left).unwrap();
    for op in ["UNION", "INTERSECT", "EXCEPT"] {
        let sql = format!("({left}) {op} ({right}) INTO t");
        let fused = session.prepare(&sql).unwrap();
        assert_eq!(explained(&fused), explained(&branch), "{sql}");
        let stats = run(&fused);
        assert_eq!(
            stats.scan.bytes_scanned,
            fused.estimate().est_bytes,
            "{sql}"
        );
        assert_eq!(stats.workers_granted, fused.planned_workers(), "{sql}");
        assert!(stats.workers_used <= stats.workers_granted, "{sql}");
        session.drop_set("t").unwrap();
    }
}
