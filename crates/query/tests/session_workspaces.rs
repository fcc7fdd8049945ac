//! Integration tests for session workspaces: the `INTO` / `FROM <set>`
//! compositional surface, stored-set scans riding the morsel-parallel
//! compiled path, session isolation, quotas, and stats accounting.

use sdss_catalog::SkyModel;
use sdss_query::{
    AdmissionConfig, Archive, ArchiveConfig, ExecMode, QueryError, QueryOutput, Session,
    SessionConfig, Value,
};
use sdss_storage::{ObjectStore, StoreConfig, TagStore};
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
                heavy_bytes: u64::MAX,
                max_heavy: 1,
                max_workers_per_query: workers,
                max_bypass: 4,
            },
            ..ArchiveConfig::default()
        },
    )
}

/// A session cutting small chunks so even modest sets give the worker
/// pool several morsels.
fn small_chunk_session(archive: &Archive) -> Session {
    archive.session_with(SessionConfig {
        chunk_rows: 256,
        ..SessionConfig::default()
    })
}

/// Canonical row-key form for order-insensitive result comparison (the
/// parallel-vs-serial oracle pattern from `parallel_scan.rs`).
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

/// Tiny deterministic generator for randomized predicate parameters.
struct Lcg(u64);

impl Lcg {
    fn next_f64(&mut self, lo: f64, hi: f64) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lo + (hi - lo) * ((self.0 >> 11) as f64 / (1u64 << 53) as f64)
    }
}

#[test]
fn into_then_from_equals_composed_direct_query_randomized() {
    let (store, tags) = build_stores(51, 3000);
    let serial = archive_with_workers(&store, &tags, 1);
    let parallel = archive_with_workers(&store, &tags, 4);

    let mut rng = Lcg(0x5e55_1075 ^ 0xbeef);
    for trial in 0..6 {
        let r1 = rng.next_f64(19.0, 23.5);
        let r2 = rng.next_f64(18.5, r1);
        let color = rng.next_f64(-0.2, 0.7);
        // Alternate which archive (serial / parallel workers) hosts the
        // workspace so both code paths face the oracle.
        let archive = if trial % 2 == 0 { &parallel } else { &serial };
        let session = small_chunk_session(archive);

        let p1 = format!("r < {r1:.4}");
        let p2 = format!("gr > {color:.4} AND r < {r2:.4}");
        let out = session
            .run(&format!(
                "SELECT objid, r INTO cand FROM photoobj WHERE {p1}"
            ))
            .unwrap();
        assert!(out.rows.is_empty(), "INTO returns no rows");
        let refined = session
            .run(&format!("SELECT objid, r, gr FROM cand WHERE {p2}"))
            .unwrap();
        let direct = archive
            .run(&format!(
                "SELECT objid, r, gr FROM photoobj WHERE {p1} AND {p2}"
            ))
            .unwrap();
        assert_eq!(
            keyed(&refined),
            keyed(&direct),
            "trial {trial}: INTO/FROM diverged from the composed query \
             (p1 = {p1}, p2 = {p2})"
        );
        // Spatial predicates over a set evaluate row-wise and still
        // agree with the cover-driven direct scan.
        let ra = rng.next_f64(183.0, 187.0);
        let dec = rng.next_f64(13.0, 17.0);
        let radius = rng.next_f64(0.5, 2.5);
        let circ = format!("CIRCLE({ra:.3}, {dec:.3}, {radius:.3})");
        let refined = session
            .run(&format!("SELECT objid, ra, dec FROM cand WHERE {circ}"))
            .unwrap();
        let direct = archive
            .run(&format!(
                "SELECT objid, ra, dec FROM photoobj WHERE {p1} AND {circ}"
            ))
            .unwrap();
        assert_eq!(keyed(&refined), keyed(&direct), "spatial refine diverged");
    }
}

#[test]
fn stored_set_scans_ride_the_parallel_compiled_path() {
    let (store, tags) = build_stores(52, 4000);
    let parallel = archive_with_workers(&store, &tags, 4);
    let session = small_chunk_session(&parallel);

    session
        .run("SELECT objid INTO sweep FROM photoobj WHERE r < 30")
        .unwrap();
    let info = session.set_info("sweep").unwrap();
    assert!(info.rows >= 4000, "sweep materialized {} rows", info.rows);
    assert!(info.chunks > 1, "need several chunks for parallelism");

    // The acceptance check: a stored-set scan with a compilable
    // predicate runs columnar, engages multiple morsel workers, and
    // claims one morsel per chunk.
    let prepared = session
        .prepare("SELECT objid, r, gr FROM sweep WHERE r < 30 AND gr > -9")
        .unwrap();
    assert!(prepared.columnar(), "set scans must compile");
    assert!(prepared.planned_workers() > 1);
    let out = prepared.run().unwrap();
    assert_eq!(out.rows.len(), info.rows);
    assert!(out.stats.columnar);
    assert!(
        out.stats.workers_used > 1,
        "stored-set scan never engaged the pool: {} workers",
        out.stats.workers_used
    );
    assert_eq!(out.stats.morsels, info.chunks as u64);
    assert_eq!(
        out.stats.worker_bytes.iter().sum::<u64>(),
        out.stats.scan.bytes_scanned,
        "per-worker byte accounting must add up on the set path"
    );
    assert_eq!(out.stats.scan.bytes_scanned, info.bytes as u64);

    // Aggregates over a stored set fold in-scan: one batch through the
    // fabric, multiple workers, and values that match the base archive.
    let agg = session
        .run("SELECT COUNT(*), MIN(r), MAX(r) FROM sweep WHERE gr > 0.2")
        .unwrap();
    let base = parallel
        .run("SELECT COUNT(*), MIN(r), MAX(r) FROM photoobj WHERE r < 30 AND gr > 0.2")
        .unwrap();
    assert_eq!(agg.rows, base.rows);
    assert_eq!(agg.stats.batches, 1, "in-scan folding ships one batch");
    assert!(agg.stats.workers_used > 1);

    // ORDER BY / LIMIT / set operations compose over stored sets too.
    let top = session
        .run("SELECT objid, r FROM sweep ORDER BY r LIMIT 5")
        .unwrap();
    assert!(top.rows.len() <= 5);
    for w in top.rows.windows(2) {
        assert!(w[0][1].as_num().unwrap() <= w[1][1].as_num().unwrap());
    }
    session
        .run("SELECT objid INTO galaxies FROM photoobj WHERE class = 'GALAXY'")
        .unwrap();
    let inter = session
        .run("(SELECT objid FROM sweep WHERE r < 21) INTERSECT (SELECT objid FROM galaxies)")
        .unwrap();
    let direct = parallel
        .run(
            "(SELECT objid FROM photoobj WHERE r < 30 AND r < 21) \
             INTERSECT (SELECT objid FROM photoobj WHERE class = 'GALAXY')",
        )
        .unwrap();
    assert_eq!(keyed(&inter), keyed(&direct));
}

#[test]
fn stored_set_limit_under_parallel_workers_cancels_and_releases() {
    // Bug sweep: a stored-set scan with LIMIT under multiple workers
    // must stop the remaining scan workers once the limit is hit (the
    // finished stream cancels its ticket) and return every admission
    // slot — no lingering unaccounted background work.
    let (store, tags) = build_stores(59, 4000);
    let archive = archive_with_workers(&store, &tags, 4);
    let session = small_chunk_session(&archive);
    session
        .run("SELECT objid INTO sweep FROM photoobj WHERE r < 30")
        .unwrap();
    assert!(session.set_info("sweep").unwrap().chunks > 1);

    let prepared = session
        .prepare("SELECT objid, r FROM sweep WHERE r < 30 LIMIT 7")
        .unwrap();
    assert!(
        prepared.planned_workers() > 1,
        "limit scans still parallelize"
    );
    let mut stream = prepared.stream().unwrap();
    let ticket = stream.ticket();
    let mut rows = 0usize;
    while let Some(batch) = stream.next_batch() {
        rows += batch.len();
    }
    assert_eq!(rows, 7, "limit respected");
    let stats = stream.finish();
    assert!(
        ticket.is_cancelled(),
        "finish must cancel the ticket so workers past the limit stop scanning"
    );
    // Workers may still be winding down when the stream finishes, so
    // worker counts are racy here — the hard guarantees are the limit,
    // the cancellation, and the released slots.
    assert!(stats.rows == 7);
    assert_eq!(archive.admission().running, 0, "slots leaked after LIMIT");

    // The one-shot path holds the same contract.
    let out = session
        .run("SELECT objid, r FROM sweep WHERE r < 30 LIMIT 3")
        .unwrap();
    assert_eq!(out.rows.len(), 3);
    assert_eq!(archive.admission().running, 0);
}

#[test]
fn into_fast_path_equals_fetch_path() {
    // The direct columnar INTO fast path (bare tag-routed scan) and the
    // stream-and-fetch slow path (forced here via a huge LIMIT, which
    // keeps the scan identical but stacks a node over it) must
    // materialize identical sets.
    let (store, tags) = build_stores(60, 2500);
    let archive = archive_with_workers(&store, &tags, 2);
    let session = small_chunk_session(&archive);

    session
        .run("SELECT objid INTO fast FROM photoobj WHERE r < 21.5 AND gr > 0.1")
        .unwrap();
    session
        .run("SELECT objid INTO slow FROM photoobj WHERE r < 21.5 AND gr > 0.1 LIMIT 100000000")
        .unwrap();
    let fast = session.set_info("fast").unwrap();
    let slow = session.set_info("slow").unwrap();
    assert_eq!(fast.rows, slow.rows);
    assert_eq!(fast.bytes, slow.bytes);

    let a = session.run("SELECT objid, r, gr FROM fast").unwrap();
    let b = session.run("SELECT objid, r, gr FROM slow").unwrap();
    assert_eq!(keyed(&a), keyed(&b), "fast/fetch INTO paths diverged");

    // The fast path reports itself: columnar stats, rows emitted, and
    // scan bytes bounded by the tag partition (never the full store).
    let (out, stats) = session
        .run_with_stats("SELECT objid INTO fast2 FROM photoobj WHERE r < 21.5")
        .unwrap();
    assert!(out.rows.is_empty());
    assert!(stats.columnar, "bare tag INTO must take the columnar path");
    assert!(stats.rows_emitted > 0);
    assert!(stats.scan.bytes_scanned as usize <= tags.bytes());

    // Stored sets re-materialize through the fast path too (refinement).
    session
        .run("SELECT objid INTO refined FROM fast WHERE gr > 0.4")
        .unwrap();
    let direct = archive
        .run("SELECT objid FROM photoobj WHERE r < 21.5 AND gr > 0.1 AND gr > 0.4")
        .unwrap();
    assert_eq!(session.set_info("refined").unwrap().rows, direct.rows.len());
}

/// The INTO shapes of the differential matrix, each with whether it
/// takes the lane path: bare tag and set scans, and every set operation
/// over tag/tag, tag/set and set/set branches. Branches over one source
/// and domain run on lanes as one fused scan; branches over different
/// sources or domains stay on the fetch route. `sa` and `sb` are stored
/// sets each session builds first.
fn into_matrix_shapes() -> Vec<(String, bool)> {
    let mut shapes = vec![
        (
            "SELECT objid INTO t FROM photoobj WHERE r < 21.5 AND gr > 0.1".to_string(),
            true,
        ),
        (
            "SELECT objid, r INTO t FROM sa WHERE ri > 0.1".to_string(),
            true,
        ),
    ];
    let branches = [
        (
            "SELECT objid FROM photoobj WHERE r < 21.5",
            "SELECT objid FROM photoobj WHERE gr > 0.7",
            true,
        ),
        (
            "SELECT objid FROM photoobj WHERE r < 21",
            "SELECT objid FROM photoobj WHERE gr > 0.5 AND CIRCLE(185, 15, 4)",
            false,
        ),
        (
            "SELECT objid FROM photoobj WHERE gr > 0.3",
            "SELECT objid FROM sa WHERE r < 21",
            false,
        ),
        (
            "SELECT objid FROM sa WHERE r < 21.5",
            "SELECT objid FROM sa WHERE gr > 0.7",
            true,
        ),
        (
            "SELECT objid FROM sa WHERE r < 21.5",
            "SELECT objid FROM sb",
            false,
        ),
    ];
    for op in ["UNION", "INTERSECT", "EXCEPT"] {
        for (left, right, lanes) in branches {
            shapes.push((format!("({left}) {op} ({right}) INTO t"), lanes));
        }
    }
    shapes
}

/// A session holding the stored sets the matrix shapes read.
fn matrix_session(archive: &Archive, max_bytes: u64) -> Session {
    let session = archive.session_with(SessionConfig {
        chunk_rows: 64,
        max_bytes,
        ..SessionConfig::default()
    });
    session
        .run("SELECT objid INTO sa FROM photoobj WHERE r < 22 AND gr > 0.1")
        .unwrap();
    session
        .run("SELECT objid INTO sb FROM photoobj WHERE gr > 0.6")
        .unwrap();
    session
}

/// Set `t` read back in row order by one row-interpreted worker (`DIST`
/// with a per-row target does not compile), every value by its bits.
fn read_back(session: &Session) -> Vec<String> {
    let prepared = session
        .prepare(
            "SELECT objid, ra, dec, cx, cy, cz, u, g, r, i, z, size, class, DIST(ra, 15) FROM t",
        )
        .unwrap();
    assert!(!prepared.columnar(), "the read-back must interpret");
    let out = prepared.run().unwrap();
    assert_eq!(out.stats.workers_used, 1);
    out.rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::Num(x) => format!("{:x}", x.to_bits()),
                    other => format!("{other}"),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect()
}

/// The `planned_workers=` figure of an EXPLAIN.
fn explained_workers(session: &Session, sql: &str) -> usize {
    let explain = session.prepare(sql).unwrap().explain();
    let tail = explain.split("planned_workers=").nth(1).unwrap();
    tail.split_whitespace().next().unwrap().parse().unwrap()
}

#[test]
fn lane_into_matches_the_fetch_route_at_every_worker_count() {
    let (store, tags) = build_stores(61, 2500);
    let oracle = Archive::with_config(
        store.clone(),
        Some(tags.clone()),
        ArchiveConfig {
            mode: ExecMode::Interpreted,
            admission: AdmissionConfig {
                max_workers_per_query: 1,
                ..AdmissionConfig::default()
            },
            ..ArchiveConfig::default()
        },
    );
    let oracle = matrix_session(&oracle, 1 << 30);
    let mut want = Vec::new();
    for (sql, lanes) in into_matrix_shapes() {
        let (_, stats) = oracle.run_with_stats(&sql).unwrap();
        assert!(stats.time_to_first_row.is_some(), "{sql}: oracle streamed");
        let info = oracle.set_info("t").unwrap();
        assert!(info.rows > 0 && info.chunks > 1, "{sql}: {info:?}");
        want.push((sql, lanes, info, read_back(&oracle)));
    }
    for workers in [1, 2, 4] {
        let archive = archive_with_workers(&store, &tags, workers);
        let session = matrix_session(&archive, 1 << 30);
        for (sql, lanes, info, rows) in &want {
            let planned = explained_workers(&session, sql);
            let (_, stats) = session.run_with_stats(sql).unwrap();
            // The lane path streams nothing: it has no first row.
            assert_eq!(
                stats.time_to_first_row.is_none(),
                *lanes,
                "{sql} at {workers}: wrong route"
            );
            if *lanes {
                // One scan, on every granted worker: a set operation on
                // lanes is one scan, so it holds no more workers than the
                // cap, one at a cap of 1.
                assert_eq!(stats.workers_granted, planned, "{sql} at {workers}");
                assert_eq!(stats.workers_used, workers, "{sql} at {workers}");
                assert_eq!(stats.workers_used, planned, "{sql} at {workers}");
            }
            assert_eq!(stats.rows, info.rows, "{sql} at {workers}");
            assert_eq!(&session.set_info("t").unwrap(), info, "{sql} at {workers}");
            // The lane path commits rows in morsel order; the fetch
            // route appends them as its leaves' workers deliver them.
            let mut got = read_back(&session);
            if !*lanes && workers > 1 {
                got.sort_unstable();
                let mut want = rows.clone();
                want.sort_unstable();
                assert!(got == want, "{sql} at {workers}: rows differ");
            } else {
                assert!(got == *rows, "{sql} at {workers}: rows differ");
            }
        }
        assert_eq!(archive.admission().running, 0);
    }
}

/// A stored set `EXCEPT` a tag cone, in both orders, and with `ORDER BY
/// ... LIMIT` over the set: the branches read different sources, so each
/// runs on its own leaf. On the interpreted oracle and at 1, 2 and 4
/// workers, the rows are the left branch run alone less the objects the
/// right branch run alone returns.
#[test]
fn set_except_cone_branches_read_their_own_sources() {
    let (store, tags) = build_stores(61, 2500);
    let oracle = Archive::with_config(
        store.clone(),
        Some(tags.clone()),
        ArchiveConfig {
            mode: ExecMode::Interpreted,
            admission: AdmissionConfig {
                max_workers_per_query: 1,
                ..AdmissionConfig::default()
            },
            ..ArchiveConfig::default()
        },
    );
    let set = "SELECT objid, r FROM sa WHERE r < 21.5";
    let limited = format!("{set} ORDER BY r LIMIT 300");
    let cone = "SELECT objid, r FROM photoobj WHERE CIRCLE(185, 15, 2)";
    let shapes = [(set, cone), (cone, set), (&limited, cone)];
    let mut archives = vec![oracle];
    archives.extend([1, 2, 4].map(|w| archive_with_workers(&store, &tags, w)));
    let mut want = Vec::new();
    for (k, archive) in archives.iter().enumerate() {
        let session = matrix_session(archive, 1 << 30);
        for (i, (left, right)) in shapes.iter().enumerate() {
            let sql = format!("({left}) EXCEPT ({right})");
            let out = session.run(&sql).unwrap();
            if k == 0 {
                let right = session.run(right).unwrap();
                let right: Vec<_> = right.rows.iter().map(|row| row[0].as_id()).collect();
                let mut alone = session.run(left).unwrap();
                alone.rows.retain(|row| !right.contains(&row[0].as_id()));
                assert!(!alone.rows.is_empty(), "{sql} must select rows");
                want.push(keyed(&alone));
            }
            assert_eq!(keyed(&out), want[i], "{sql} on archive {k}");
        }
    }
}

#[test]
fn lane_into_quota_counts_committed_rows_only() {
    let (store, tags) = build_stores(62, 2500);
    // Overlapping branches: a tag/tag union (one fused scan on lanes)
    // and a tag/set one (the fetch route).
    let branches = [
        "SELECT objid FROM photoobj WHERE r < 21.5",
        "SELECT objid FROM photoobj WHERE gr > 0.3",
        "SELECT objid FROM sa WHERE gr > 0.3",
    ];
    let unions = [(0, 1), (0, 2)];
    let bare = "SELECT objid INTO t FROM photoobj WHERE r < 22";
    for workers in [1, 2, 4] {
        let archive = archive_with_workers(&store, &tags, workers);
        let sized = matrix_session(&archive, 1 << 30);
        let base: u64 = sized.sets().iter().map(|i| i.bytes as u64).sum();
        let size_of = |sql: &str| {
            sized.run(sql).unwrap();
            sized.set_info("t").unwrap().bytes as u64
        };
        let bare_bytes = size_of(bare);
        let mut shapes = vec![(bare.to_string(), bare_bytes)];
        for (l, r) in unions {
            let union = format!("({}) UNION ({}) INTO t", branches[l], branches[r]);
            let union_bytes = size_of(&union);
            let branch = |sql: &str| sized.run(sql).unwrap().rows.len() as u64 * 81;
            let double = branch(branches[l]) + branch(branches[r]);
            assert!(double > union_bytes, "{union}: the branches must overlap");

            // A budget the exact union fits, and a double-counting one
            // would not, succeeds; one byte less fails.
            let exact = matrix_session(&archive, base + union_bytes);
            exact.run(&union).unwrap();
            assert_eq!(exact.set_info("t").unwrap().bytes as u64, union_bytes);
            let short = matrix_session(&archive, base + union_bytes - 1);
            assert!(short.run(&union).is_err(), "{union} at {workers}");
            assert!(short.set_info("t").is_none());
            shapes.push((union, union_bytes));
        }

        // A budget that trips mid-scan commits nothing and leaks no slot.
        for (sql, bytes) in shapes {
            let tight = matrix_session(&archive, base + bytes / 3);
            match tight.run(&sql) {
                Err(QueryError::Exec(msg)) => assert!(msg.contains("quota"), "{msg}"),
                other => panic!("{sql} at {workers}: {other:?}"),
            }
            assert!(tight.set_info("t").is_none(), "{sql} at {workers}");
            assert_eq!(archive.admission().running, 0, "{sql} at {workers}");
        }
    }
}

#[test]
fn concurrent_sessions_are_isolated() {
    let (store, tags) = build_stores(53, 2000);
    let archive = archive_with_workers(&store, &tags, 2);

    let mut handles = Vec::new();
    for t in 0..4u64 {
        let archive = archive.clone();
        handles.push(std::thread::spawn(move || {
            let session = archive.session();
            let cut = 19.0 + t as f64;
            session
                .run(&format!(
                    "SELECT objid INTO mine FROM photoobj WHERE r < {cut}"
                ))
                .unwrap();
            let got = session.run("SELECT objid FROM mine").unwrap();
            let want = archive
                .run(&format!("SELECT objid FROM photoobj WHERE r < {cut}"))
                .unwrap();
            assert_eq!(got.rows.len(), want.rows.len(), "thread {t}");
            // Same name, different session, different contents — and the
            // lifecycle completes with a drop.
            let info = session.drop_set("mine").unwrap();
            assert_eq!(info.rows, want.rows.len());
            assert!(session.sets().is_empty());
            info.rows
        }));
    }
    let sizes: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Different cuts ⇒ different set sizes: proof the namespaces never
    // bled into each other.
    let mut uniq = sizes.clone();
    uniq.dedup();
    assert_eq!(uniq, sizes, "set sizes must differ per session");

    // A fresh session cannot see anyone's sets.
    let fresh = archive.session();
    assert!(matches!(
        fresh.run("SELECT objid FROM mine"),
        Err(QueryError::Unknown(_))
    ));
    assert!(fresh.drop_set("mine").is_err());
}

#[test]
fn quotas_fail_cleanly_and_release_admission() {
    let (store, tags) = build_stores(54, 2000);
    let archive = archive_with_workers(&store, &tags, 2);

    // Byte quota: far too small for the sweep — the INTO must abort
    // mid-stream with a clean error and return its admission slots.
    let tiny = archive.session_with(SessionConfig {
        max_bytes: 4 * 1024,
        ..SessionConfig::default()
    });
    let err = tiny.run("SELECT objid INTO big FROM photoobj").unwrap_err();
    match &err {
        QueryError::Exec(msg) => assert!(msg.contains("quota"), "unhelpful error: {msg}"),
        other => panic!("expected Exec quota error, got {other:?}"),
    }
    assert!(
        tiny.set_info("big").is_none(),
        "failed INTO must not commit"
    );
    assert_eq!(archive.admission().running, 0, "slots leaked");

    // Set-count quota: the second *distinct* name errors, replacement of
    // an existing name stays legal.
    let one = archive.session_with(SessionConfig {
        max_sets: 1,
        ..SessionConfig::default()
    });
    one.run("SELECT objid INTO a FROM photoobj WHERE r < 20")
        .unwrap();
    assert!(matches!(
        one.run("SELECT objid INTO b FROM photoobj WHERE r < 19"),
        Err(QueryError::Exec(_))
    ));
    let before = one.set_info("a").unwrap().rows;
    one.run("SELECT objid INTO a FROM photoobj WHERE r < 19")
        .unwrap();
    let after = one.set_info("a").unwrap().rows;
    assert!(after < before, "replacement INTO must re-materialize");
}

#[test]
fn set_lifecycle_listing_pinning_and_refinement() {
    let (store, tags) = build_stores(55, 2000);
    let archive = archive_with_workers(&store, &tags, 2);
    let session = small_chunk_session(&archive);

    session
        .run("SELECT objid INTO bright FROM photoobj WHERE r < 21")
        .unwrap();
    session
        .run("SELECT objid INTO faint FROM photoobj WHERE r >= 21")
        .unwrap();
    let listing = session.sets();
    assert_eq!(listing.len(), 2);
    assert_eq!(listing[0].name, "bright");
    assert_eq!(listing[1].name, "faint");
    for info in &listing {
        assert!(info.rows > 0);
        assert!(info.bytes > 0);
        assert!(info.chunks >= 1);
    }
    let total = archive
        .run("SELECT objid FROM photoobj")
        .unwrap()
        .rows
        .len();
    assert_eq!(listing[0].rows + listing[1].rows, total);

    // Archive-level session registry sees the workspace.
    let infos = archive.sessions();
    let me = infos.iter().find(|i| i.id == session.id()).unwrap();
    assert_eq!(me.sets, 2);
    assert_eq!(me.rows, total);

    // A prepared statement pins its snapshot: dropping the set afterward
    // doesn't break re-execution.
    let pinned = session.prepare("SELECT objid FROM bright").unwrap();
    let n_before = pinned.run().unwrap().rows.len();
    session.drop_set("bright").unwrap();
    assert!(session.set_info("bright").is_none());
    assert_eq!(pinned.run().unwrap().rows.len(), n_before);
    // ...but a fresh prepare no longer resolves the name.
    assert!(matches!(
        session.prepare("SELECT objid FROM bright"),
        Err(QueryError::Unknown(_))
    ));

    // In-place refinement: FROM a set INTO the same name (the prepared
    // snapshot reads the old contents; the commit replaces them).
    let faint_rows = session.set_info("faint").unwrap().rows;
    session
        .run("SELECT objid INTO faint FROM faint WHERE gr > 0.3")
        .unwrap();
    let refined = session.set_info("faint").unwrap().rows;
    assert!(refined < faint_rows, "refinement must shrink the set");
    let direct = archive
        .run("SELECT objid FROM photoobj WHERE r >= 21 AND gr > 0.3")
        .unwrap();
    assert_eq!(refined, direct.rows.len());

    // Trailing INTO materializes a set-operation composition.
    session
        .run(
            "(SELECT objid FROM photoobj WHERE r < 19) UNION \
             (SELECT objid FROM photoobj WHERE class = 'QSO') INTO merged",
        )
        .unwrap();
    let merged = session.set_info("merged").unwrap().rows;
    let union = archive
        .run(
            "(SELECT objid FROM photoobj WHERE r < 19) UNION \
             (SELECT objid FROM photoobj WHERE class = 'QSO')",
        )
        .unwrap();
    assert_eq!(merged, union.rows.len());
}

#[test]
fn session_stats_and_rows_emitted_accumulate() {
    let (store, tags) = build_stores(56, 1500);
    let archive = archive_with_workers(&store, &tags, 2);
    let session = small_chunk_session(&archive);

    let out = session
        .run("SELECT objid, r FROM photoobj WHERE r < 22")
        .unwrap();
    assert_eq!(out.stats.rows_emitted, out.rows.len() as u64);
    let s1 = session.stats();
    assert_eq!(s1.queries, 1);
    assert_eq!(s1.rows_emitted, out.stats.rows_emitted);
    assert_eq!(s1.rows_delivered, out.rows.len() as u64);
    assert!(s1.bytes_scanned > 0);
    assert_eq!(s1.sets_created, 0);

    // LIMIT: producers may emit more than the consumer sees.
    let top = session
        .run("SELECT objid, r FROM photoobj WHERE r < 30 LIMIT 3")
        .unwrap();
    assert!(top.stats.rows_emitted >= top.rows.len() as u64);

    let into = session
        .run("SELECT objid INTO keep FROM photoobj WHERE r < 20")
        .unwrap();
    let s2 = session.stats();
    assert_eq!(s2.queries, 3);
    assert_eq!(s2.sets_created, 1);
    assert_eq!(
        s2.rows_materialized,
        session.set_info("keep").unwrap().rows as u64
    );
    assert!(into.stats.rows_emitted > 0, "INTO counts emitted rows too");
    session.drop_set("keep").unwrap();
    assert_eq!(session.stats().sets_dropped, 1);
}

#[test]
fn explain_carries_the_cost_estimate_line() {
    let (store, tags) = build_stores(57, 1200);
    let archive = archive_with_workers(&store, &tags, 4);
    let prepared = archive
        .prepare("SELECT objid, r FROM photoobj WHERE CIRCLE(185, 15, 2) AND r < 21")
        .unwrap();
    let text = prepared.explain();
    // EXPLAIN and the admission queue must tell one story: the estimate
    // fields appear verbatim.
    for field in [
        "est_rows=",
        "est_bytes=",
        "containers=",
        "est_seconds=",
        "planned_workers=",
        "route=",
        "heavy=",
    ] {
        assert!(text.contains(field), "explain missing {field}: {text}");
    }
    assert!(
        text.contains(&format!("planned_workers={}", prepared.planned_workers())),
        "{text}"
    );
    assert!(text.contains("Scan[tag]"), "{text}");

    // Session-prepared set scans explain with exact stored-set stats.
    let session = small_chunk_session(&archive);
    session
        .run("SELECT objid INTO s FROM photoobj WHERE r < 21")
        .unwrap();
    let p = session.prepare("SELECT objid FROM s WHERE r < 20").unwrap();
    let info = session.set_info("s").unwrap();
    assert!(p.explain().contains(&format!("est_bytes={}", info.bytes)));
    assert!(p.explain().contains("Scan[set:s]"), "{}", p.explain());
    // INTO statements announce their target.
    let q = session
        .prepare("SELECT objid INTO t FROM photoobj WHERE r < 19")
        .unwrap();
    assert!(q.explain().contains("Into[t]"), "{}", q.explain());
}

#[test]
fn sessionless_and_error_paths_stay_clean() {
    let (store, tags) = build_stores(58, 1000);
    let archive = archive_with_workers(&store, &tags, 2);

    // INTO without a session is rejected at prepare time.
    assert!(matches!(
        archive.prepare("SELECT objid INTO s FROM photoobj"),
        Err(QueryError::Exec(_))
    ));
    // FROM an unknown set without a session names the problem.
    assert!(matches!(
        archive.prepare("SELECT objid FROM nosuch"),
        Err(QueryError::Unknown(_))
    ));
    // Streaming an INTO statement is refused (the sink owns the stream).
    let session = archive.session();
    let p = session
        .prepare("SELECT objid INTO s FROM photoobj WHERE r < 20")
        .unwrap();
    assert!(p.stream().is_err());
    assert!(p.try_stream().is_err());
    // run() works, and the non-stream surface agrees.
    p.run().unwrap();
    assert!(session.set_info("s").is_some());

    // run_with_stats pairs the stats for one-shot callers.
    let (out, stats) = archive
        .run_with_stats("SELECT objid FROM photoobj WHERE r < 20")
        .unwrap();
    assert_eq!(out.rows.len(), stats.rows);
    assert_eq!(stats.rows_emitted, out.stats.rows_emitted);

    // Sampling composes with stored sets deterministically.
    let s1 = session.run("SELECT objid FROM s SAMPLE 0.3").unwrap();
    let s2 = session.run("SELECT objid FROM s SAMPLE 0.3").unwrap();
    assert_eq!(keyed(&s1), keyed(&s2));
    assert!(s1.rows.len() < session.set_info("s").unwrap().rows);
}
