//! Integration tests for the `MATCH(a, b, radius_arcsec)` cross-match
//! join source: set-vs-set and set-vs-archive pair equivalence against a
//! brute-force O(n·m) great-circle oracle, morsel-parallel execution
//! over the probe side, in-scan pair-count folding, `MATCH ... INTO`
//! materialization under session quotas, and the plan-time validation
//! surface. The declination-zone index and the footprint restriction of
//! set-vs-archive joins are checked at explicit worker counts 1 and 4
//! across RA wrap, the poles, radii from 0.5" to over a degree, pairs at
//! exactly the radius, empty sets and sets spread over a hemisphere.

use sdss_catalog::{GenRegion, PhotoObj, SkyModel};
use sdss_htm::lookup_id;
use sdss_query::{
    AdmissionConfig, Archive, ArchiveConfig, QueryError, QueryOutput, Session, SessionConfig,
};
use sdss_storage::{
    MatchFootprint, ObjectStore, ResultSetBuilder, StoreConfig, TagStore, BATCH_ROWS,
    RESULT_SET_CHUNK_ROWS,
};
use std::sync::Arc;

fn build_stores(seed: u64, n_galaxies: usize) -> (Arc<ObjectStore>, Arc<TagStore>, Vec<PhotoObj>) {
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
    (Arc::new(store), Arc::new(tags), objs)
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

/// A session cutting small chunks so even modest sets give the match
/// join several probe morsels.
fn small_chunk_session(archive: &Archive) -> Session {
    archive.session_with(SessionConfig {
        chunk_rows: 256,
        ..SessionConfig::default()
    })
}

/// Ordered `(a.objid, b.objid)` pairs out of a MATCH query result.
fn pair_keys(out: &QueryOutput) -> Vec<(u64, u64)> {
    let mut keys: Vec<(u64, u64)> = out
        .rows
        .iter()
        .map(|r| (r[0].as_id().unwrap(), r[1].as_id().unwrap()))
        .collect();
    keys.sort_unstable();
    keys
}

/// The brute-force O(n·m) great-circle oracle: every ordered pair within
/// the radius, identity pairs excluded.
fn oracle_pairs(a: &[&PhotoObj], b: &[&PhotoObj], radius_arcsec: f64) -> Vec<(u64, u64)> {
    let mut pairs = Vec::new();
    for p in a {
        for q in b {
            if p.obj_id == q.obj_id {
                continue;
            }
            let sep = p.unit_vec().separation_deg(q.unit_vec()) * 3600.0;
            if sep <= radius_arcsec {
                pairs.push((p.obj_id, q.obj_id));
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

/// Tiny deterministic generator for randomized parameters.
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
fn set_vs_set_match_equals_brute_force_oracle_randomized() {
    let (store, tags, objs) = build_stores(71, 1200);
    let serial = archive_with_workers(&store, &tags, 1);
    let parallel = archive_with_workers(&store, &tags, 4);

    let mut rng = Lcg(0x9e37_79b9);
    // Radii chosen to straddle the zone-index level boundaries (level
    // 10 up to 200", level 7 up to 3600"): zone-boundary pairs at every
    // bucket granularity must survive, and the brute-force comparison
    // catches any cover-margin loss.
    for (trial, &radius) in [5.0, 60.0, 199.9, 200.1, 900.0, 3500.0].iter().enumerate() {
        let r1 = rng.next_f64(20.0, 23.0);
        let r2 = rng.next_f64(19.0, 22.0);
        let archive = if trial % 2 == 0 { &parallel } else { &serial };
        let session = small_chunk_session(archive);
        session
            .run(&format!(
                "SELECT objid INTO s1 FROM photoobj WHERE r < {r1:.4}"
            ))
            .unwrap();
        session
            .run(&format!(
                "SELECT objid INTO s2 FROM photoobj WHERE r < {r2:.4}"
            ))
            .unwrap();
        let out = session
            .run(&format!(
                "SELECT a.objid, b.objid, sep_arcsec FROM MATCH(s1, s2, {radius})"
            ))
            .unwrap();
        let a_side: Vec<&PhotoObj> = objs.iter().filter(|o| (o.mag(2) as f64) < r1).collect();
        let b_side: Vec<&PhotoObj> = objs.iter().filter(|o| (o.mag(2) as f64) < r2).collect();
        let want = oracle_pairs(&a_side, &b_side, radius);
        assert_eq!(
            pair_keys(&out),
            want,
            "trial {trial}: MATCH(s1, s2, {radius}) diverged from the oracle \
             (r1 = {r1:.4}, r2 = {r2:.4})"
        );
        // Every reported separation is within the radius and correct.
        for row in &out.rows {
            let sep = row[2].as_num().unwrap();
            assert!(sep <= radius, "pair outside radius: {sep} > {radius}");
        }
    }
}

#[test]
fn set_vs_archive_match_equals_set_vs_materialized_sky() {
    let (store, tags, objs) = build_stores(72, 1000);
    let archive = archive_with_workers(&store, &tags, 2);
    let session = small_chunk_session(&archive);
    session
        .run("SELECT objid INTO probe FROM photoobj WHERE r < 21")
        .unwrap();
    // The whole sky as a stored set: MATCH(probe, photoobj, r) must
    // produce exactly the same pairs as MATCH(probe, sky, r).
    session
        .run("SELECT objid INTO sky FROM photoobj WHERE r < 99")
        .unwrap();
    let vs_archive = session
        .run("SELECT a.objid, b.objid FROM MATCH(probe, photoobj, 120)")
        .unwrap();
    let vs_set = session
        .run("SELECT a.objid, b.objid FROM MATCH(probe, sky, 120)")
        .unwrap();
    assert_eq!(pair_keys(&vs_archive), pair_keys(&vs_set));

    // ... and both agree with the oracle.
    let probe: Vec<&PhotoObj> = objs.iter().filter(|o| (o.mag(2) as f64) < 21.0).collect();
    let sky: Vec<&PhotoObj> = objs.iter().collect();
    assert_eq!(pair_keys(&vs_archive), oracle_pairs(&probe, &sky, 120.0));

    // Archive-as-probe mirrors the pairs (ordered-pair semantics).
    let flipped = session
        .run("SELECT a.objid, b.objid FROM MATCH(photoobj, probe, 120)")
        .unwrap();
    let mut mirrored: Vec<(u64, u64)> = pair_keys(&vs_archive)
        .into_iter()
        .map(|(a, b)| (b, a))
        .collect();
    mirrored.sort_unstable();
    assert_eq!(pair_keys(&flipped), mirrored);
}

#[test]
fn match_runs_morsel_parallel_and_folds_pair_counts_in_scan() {
    let (store, tags, _) = build_stores(73, 3000);
    let archive = archive_with_workers(&store, &tags, 4);
    let session = small_chunk_session(&archive);
    session
        .run("SELECT objid INTO all FROM photoobj WHERE r < 30")
        .unwrap();
    let info = session.set_info("all").unwrap();
    assert!(info.chunks > 1, "need a multi-chunk probe side");

    let prepared = session
        .prepare("SELECT a.objid, b.objid, sep_arcsec FROM MATCH(all, all, 60)")
        .unwrap();
    assert!(
        prepared.planned_workers() > 1,
        "match joins must parallelize"
    );
    let out = prepared.run().unwrap();
    assert!(
        !out.rows.is_empty(),
        "a 60\" self-match on a dense field pairs up"
    );
    assert!(
        out.stats.workers_used > 1,
        "match probe never engaged the pool: {} workers",
        out.stats.workers_used
    );
    assert_eq!(
        out.stats.morsels, info.chunks as u64,
        "one morsel per probe-side chunk"
    );
    assert_eq!(
        out.stats.worker_bytes.iter().sum::<u64>(),
        info.bytes as u64,
        "probe-side bytes accounted per worker"
    );
    // Self-join ordered-pair semantics: (p, q) and (q, p) both appear,
    // identity pairs never do.
    let keys = pair_keys(&out);
    for &(a, b) in &keys {
        assert_ne!(a, b, "identity pair leaked");
        assert!(
            keys.binary_search(&(b, a)).is_ok(),
            "missing mirror of ({a}, {b})"
        );
    }

    // COUNT over the same MATCH folds in-scan: one batch through the
    // fabric, the same pair count, and multiple workers.
    let cnt = session
        .run("SELECT COUNT(*) FROM MATCH(all, all, 60)")
        .unwrap();
    assert_eq!(cnt.rows[0][0].as_num().unwrap() as usize, out.rows.len());
    assert_eq!(cnt.stats.batches, 1, "in-scan folding ships one batch");
    assert!(cnt.stats.workers_used > 1);

    // Pair predicates filter row-wise: a.objid < b.objid halves the
    // ordered pairs.
    let half = session
        .run("SELECT a.objid, b.objid FROM MATCH(all, all, 60) WHERE a.objid < b.objid")
        .unwrap();
    assert_eq!(half.rows.len() * 2, out.rows.len());
}

#[test]
fn match_into_materializes_under_session_quotas() {
    let (store, tags, _) = build_stores(74, 1500);
    let archive = archive_with_workers(&store, &tags, 2);

    // Roomy session: MATCH ... INTO lands the distinct probe-side
    // objects that have a neighbor.
    let session = small_chunk_session(&archive);
    session
        .run("SELECT objid INTO cand FROM photoobj WHERE r < 22")
        .unwrap();
    session
        .run("SELECT a.objid AS objid INTO paired FROM MATCH(cand, cand, 90)")
        .unwrap();
    let paired = session.set_info("paired").expect("set landed");
    assert!(paired.rows > 0);
    let distinct = session
        .run("SELECT a.objid, b.objid FROM MATCH(cand, cand, 90)")
        .unwrap();
    let mut a_ids: Vec<u64> = distinct
        .rows
        .iter()
        .map(|r| r[0].as_id().unwrap())
        .collect();
    a_ids.sort_unstable();
    a_ids.dedup();
    assert_eq!(
        paired.rows,
        a_ids.len(),
        "one record per distinct probe objid"
    );
    // The default qualified projection works as the pointer too.
    session
        .run("SELECT a.objid INTO paired2 FROM MATCH(cand, cand, 90)")
        .unwrap();
    assert_eq!(session.set_info("paired2").unwrap().rows, paired.rows);

    // Quota enforcement: a byte budget that fits `cand` but not a
    // second materialization aborts the MATCH INTO cleanly.
    let cand_bytes = session.set_info("cand").unwrap().bytes;
    let tight = archive.session_with(SessionConfig {
        max_bytes: (cand_bytes + 256) as u64,
        chunk_rows: 256,
        ..SessionConfig::default()
    });
    tight
        .run("SELECT objid INTO cand FROM photoobj WHERE r < 22")
        .unwrap();
    let err = tight
        .run("SELECT a.objid AS objid INTO paired FROM MATCH(cand, cand, 90)")
        .unwrap_err();
    match &err {
        QueryError::Exec(msg) => assert!(msg.contains("quota"), "unhelpful error: {msg}"),
        other => panic!("expected Exec quota error, got {other:?}"),
    }
    assert!(
        tight.set_info("paired").is_none(),
        "failed INTO must not commit"
    );
    assert_eq!(archive.admission().running, 0, "slots leaked");
}

#[test]
fn match_validation_rejects_bad_shapes_at_plan_time() {
    let (store, tags, _) = build_stores(75, 400);
    let archive = archive_with_workers(&store, &tags, 2);
    let session = small_chunk_session(&archive);
    session
        .run("SELECT objid INTO s FROM photoobj WHERE r < 22")
        .unwrap();

    // Unqualified attributes are ambiguous over a pair source.
    assert!(matches!(
        session.prepare("SELECT objid FROM MATCH(s, s, 5)"),
        Err(QueryError::Unknown(_))
    ));
    // Qualified names must be tag attributes.
    assert!(matches!(
        session.prepare("SELECT a.psf_r FROM MATCH(s, s, 5)"),
        Err(QueryError::Unknown(_))
    ));
    // SELECT * cannot pick a side.
    assert!(matches!(
        session.prepare("SELECT * FROM MATCH(s, s, 5)"),
        Err(QueryError::Type(_))
    ));
    // Spatial predicates are as side-ambiguous as unqualified attrs:
    // they would silently bind one side, so they're rejected.
    assert!(matches!(
        session.prepare("SELECT a.objid FROM MATCH(s, s, 5) WHERE CIRCLE(185, 15, 1)"),
        Err(QueryError::Type(_))
    ));
    assert!(session
        .prepare("SELECT a.objid FROM MATCH(s, s, 5) WHERE DIST(185, 15) < 1")
        .is_err());
    // ...as are functions reading unqualified row attributes implicitly.
    assert!(matches!(
        session.prepare(
            "SELECT a.objid FROM MATCH(s, s, 5) WHERE COLORDIST(0.5, 0.4, 0.3, 0.2) < 0.6"
        ),
        Err(QueryError::Type(_))
    ));
    // The radius must be positive.
    assert!(session
        .prepare("SELECT a.objid FROM MATCH(s, s, 0)")
        .is_err());
    assert!(session
        .prepare("SELECT a.objid FROM MATCH(s, s, -3)")
        .is_err());
    // Unknown stored sets fail at prepare time, naming the set.
    assert!(matches!(
        session.prepare("SELECT a.objid FROM MATCH(nosuch, s, 5)"),
        Err(QueryError::Unknown(_))
    ));
    // INTO from a MATCH needs a pointer column.
    assert!(matches!(
        session.prepare("SELECT sep_arcsec INTO p FROM MATCH(s, s, 5)"),
        Err(QueryError::Type(_))
    ));
    // ORDER BY accepts qualified pair columns.
    let by_a = session
        .run("SELECT a.objid, b.objid FROM MATCH(s, s, 120) ORDER BY a.objid LIMIT 10")
        .unwrap();
    for w in by_a.rows.windows(2) {
        assert!(w[0][0].as_id().unwrap() <= w[1][0].as_id().unwrap());
    }
    // sep_arcsec projects and filters; ORDER BY composes over it.
    let out = session
        .run(
            "SELECT a.objid, b.objid, sep_arcsec FROM MATCH(s, s, 120) \
             WHERE sep_arcsec > 10 ORDER BY sep_arcsec LIMIT 5",
        )
        .unwrap();
    assert!(out.rows.len() <= 5);
    for w in out.rows.windows(2) {
        assert!(w[0][2].as_num().unwrap() <= w[1][2].as_num().unwrap());
    }
    for row in &out.rows {
        assert!(row[2].as_num().unwrap() > 10.0);
    }
}

#[test]
fn prepared_match_pins_its_set_snapshots() {
    let (store, tags, _) = build_stores(76, 800);
    let archive = archive_with_workers(&store, &tags, 2);
    let session = small_chunk_session(&archive);
    session
        .run("SELECT objid INTO s FROM photoobj WHERE r < 22")
        .unwrap();
    let prepared = session
        .prepare("SELECT a.objid, b.objid FROM MATCH(s, s, 60)")
        .unwrap();
    let before = prepared.run().unwrap().rows.len();
    // Dropping the set does not invalidate the prepared join.
    session.drop_set("s").unwrap();
    assert_eq!(prepared.run().unwrap().rows.len(), before);
    // ...but a fresh prepare no longer resolves it.
    assert!(session
        .prepare("SELECT a.objid FROM MATCH(s, s, 60)")
        .is_err());
}

// ---------------------------------------------------------------------
// Declination zones and footprint restriction: exactness at 1 and 4
// workers
// ---------------------------------------------------------------------

/// A sky over `region` with a close companion 0.2"–2" from every fifth
/// object, so arcsecond radii have pairs to find.
fn build_region_stores(
    seed: u64,
    region: GenRegion,
    n_galaxies: usize,
) -> (Arc<ObjectStore>, Arc<TagStore>, Vec<PhotoObj>) {
    let model = SkyModel {
        region,
        n_galaxies,
        n_stars: n_galaxies / 3,
        n_quasars: n_galaxies / 12,
        ..SkyModel::small(seed)
    };
    let mut objs = model.generate().unwrap();
    let mut rng = Lcg(seed);
    let first_id = objs.iter().map(|o| o.obj_id).max().unwrap() + 1;
    let companions: Vec<PhotoObj> = objs
        .iter()
        .step_by(5)
        .enumerate()
        .map(|(k, o)| {
            let mut c = o.clone();
            c.obj_id = first_id + k as u64;
            let (pa, sep) = (rng.next_f64(0.0, 360.0), rng.next_f64(0.2, 2.0));
            c.set_position(o.pos().offset_by(pa, sep / 3600.0));
            c.htm20 = lookup_id(c.unit_vec(), 20).unwrap().raw();
            c
        })
        .collect();
    objs.extend(companions);
    let mut store = ObjectStore::new(StoreConfig::default()).unwrap();
    store.insert_batch(&objs).unwrap();
    let tags = TagStore::from_store(&store);
    (Arc::new(store), Arc::new(tags), objs)
}

/// The oracle's pairs with their separations' bit patterns.
fn oracle_pairs_with_sep(
    a: &[&PhotoObj],
    b: &[&PhotoObj],
    radius_arcsec: f64,
) -> Vec<(u64, u64, u64)> {
    let mut pairs = Vec::new();
    for p in a {
        for q in b {
            let sep = p.unit_vec().separation_deg(q.unit_vec()) * 3600.0;
            if p.obj_id != q.obj_id && sep <= radius_arcsec {
                pairs.push((p.obj_id, q.obj_id, sep.to_bits()));
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

/// `MATCH(a, b, radius)` returns exactly the oracle's pairs with
/// bit-identical separations, and `COUNT(*)` over it the same number.
/// Returns the pair count.
fn assert_match_exact(
    session: &Session,
    (a, a_objs): (&str, &[&PhotoObj]),
    (b, b_objs): (&str, &[&PhotoObj]),
    radius: f64,
    context: &str,
) -> usize {
    let want = oracle_pairs_with_sep(a_objs, b_objs, radius);
    let out = session
        .run(&format!(
            "SELECT a.objid, b.objid, sep_arcsec FROM MATCH({a}, {b}, {radius:?})"
        ))
        .unwrap();
    let mut got: Vec<(u64, u64, u64)> = out
        .rows
        .iter()
        .map(|r| {
            let sep = r[2].as_num().unwrap();
            (r[0].as_id().unwrap(), r[1].as_id().unwrap(), sep.to_bits())
        })
        .collect();
    got.sort_unstable();
    assert_eq!(got, want, "{context}: MATCH({a}, {b}, {radius:?})");
    let count = session
        .run(&format!("SELECT COUNT(*) FROM MATCH({a}, {b}, {radius:?})"))
        .unwrap();
    assert_eq!(
        count.rows[0][0].as_num().unwrap() as usize,
        want.len(),
        "{context}: COUNT over MATCH({a}, {b}, {radius:?})"
    );
    want.len()
}

/// An `r` cut keeping about `fraction` of `objs`, placed midway between
/// two distinct magnitudes so float ties cannot split the oracle from
/// the engine.
fn r_cut(objs: &[PhotoObj], fraction: f64) -> f64 {
    let mut r: Vec<f64> = objs.iter().map(|o| o.mag(2) as f64).collect();
    r.sort_by(f64::total_cmp);
    r.dedup();
    let k = ((r.len() as f64 * fraction) as usize).clamp(1, r.len() - 1);
    (r[k - 1] + r[k]) / 2.0
}

#[test]
fn match_is_exact_across_ra_wrap_poles_and_radii() {
    let skies = [
        // Straddles ra = 0/360.
        GenRegion::Cap {
            ra_deg: 0.0,
            dec_deg: 0.3,
            radius_deg: 1.0,
        },
        // Every object at dec >= 89.9 (and the mirror at the south pole).
        GenRegion::Cap {
            ra_deg: 0.0,
            dec_deg: 90.0,
            radius_deg: 0.1,
        },
        GenRegion::Cap {
            ra_deg: 0.0,
            dec_deg: -90.0,
            radius_deg: 0.1,
        },
    ];
    for (k, region) in skies.into_iter().enumerate() {
        let (store, tags, objs) = build_region_stores(81 + k as u64, region, 240);
        if k == 0 {
            assert!(objs.iter().any(|o| o.ra_deg > 359.0) && objs.iter().any(|o| o.ra_deg < 1.0));
        } else {
            assert!(objs.iter().all(|o| o.dec_deg.abs() >= 89.9));
        }
        let (cut1, cut2) = (r_cut(&objs, 0.15), r_cut(&objs, 0.7));
        let s1: Vec<&PhotoObj> = objs.iter().filter(|o| (o.mag(2) as f64) < cut1).collect();
        let s2: Vec<&PhotoObj> = objs.iter().filter(|o| (o.mag(2) as f64) < cut2).collect();
        let sky: Vec<&PhotoObj> = objs.iter().collect();
        // One radius is a pair's own separation: a pair at exactly the
        // radius must be kept.
        let exact = oracle_pairs(&s1, &s2, 2.5)
            .iter()
            .filter_map(|&(p, q)| {
                let (p, q) = (
                    objs.iter().find(|o| o.obj_id == p)?,
                    objs.iter().find(|o| o.obj_id == q)?,
                );
                Some(p.unit_vec().separation_deg(q.unit_vec()) * 3600.0)
            })
            .fold(0.0, f64::max);
        assert!(exact > 0.0, "sky {k}: no close pairs to pin the radius to");
        for workers in [1, 4] {
            let archive = archive_with_workers(&store, &tags, workers);
            let session = small_chunk_session(&archive);
            session
                .run(&format!(
                    "SELECT objid INTO s1 FROM photoobj WHERE r < {cut1:?}"
                ))
                .unwrap();
            session
                .run(&format!(
                    "SELECT objid INTO s2 FROM photoobj WHERE r < {cut2:?}"
                ))
                .unwrap();
            for radius in [0.5, exact, 3.0, 45.0, 600.0, 4000.0] {
                let ctx = format!("sky {k}, {workers} workers");
                let pairs = assert_match_exact(&session, ("s1", &s1), ("s2", &s2), radius, &ctx);
                if radius >= exact {
                    assert!(pairs > 0, "{ctx}: radius {radius} found no pairs");
                }
                // The archive restricted on either side of the join.
                assert_match_exact(&session, ("s1", &s1), ("photoobj", &sky), radius, &ctx);
                assert_match_exact(&session, ("photoobj", &sky), ("s1", &s1), radius, &ctx);
            }
            assert_eq!(archive.admission().running, 0, "slots leaked");
        }
    }
}

#[test]
fn set_vs_archive_match_reads_only_the_set_footprint() {
    let (store, tags, objs) = build_stores(84, 3000);
    let whole_bytes = tags.bytes() as u64;
    for workers in [1, 4] {
        let archive = archive_with_workers(&store, &tags, workers);
        let session = small_chunk_session(&archive);
        session
            .run("SELECT objid INTO s FROM photoobj WHERE CIRCLE(185, 15, 0.7) AND r < 22")
            .unwrap();
        let set = session.set_info("s").unwrap();
        let centre = sdss_skycoords::SkyPos::new(185.0, 15.0).unwrap().unit_vec();
        let s: Vec<&PhotoObj> = objs
            .iter()
            .filter(|o| o.unit_vec().separation_deg(centre) <= 0.7 && (o.mag(2) as f64) < 22.0)
            .collect();
        assert_eq!(s.len(), set.rows);
        let sky: Vec<&PhotoObj> = objs.iter().collect();
        for sql in [
            "SELECT COUNT(*) FROM MATCH(s, photoobj, 20)",
            "SELECT COUNT(*) FROM MATCH(photoobj, s, 20)",
        ] {
            // EXPLAIN and admission price the same cap the scan reads.
            let prepared = session.prepare(sql).unwrap();
            let est = *prepared.estimate();
            assert!(!est.full_sweep, "{sql}: priced as a whole sweep");
            assert!(
                est.est_bytes < whole_bytes / 2,
                "{sql}: {} of {whole_bytes} bytes priced",
                est.est_bytes
            );
            let out = prepared.run().unwrap();
            assert_eq!(
                out.stats.scan.bytes_scanned, est.est_bytes,
                "{sql}: estimate and execution read different bytes"
            );
        }
        let ctx = format!("{workers} workers");
        assert!(assert_match_exact(&session, ("s", &s), ("photoobj", &sky), 20.0, &ctx) > 0);
        assert_match_exact(&session, ("photoobj", &sky), ("s", &s), 20.0, &ctx);
    }
}

/// A set holding the whole sky outweighs the archive inside its
/// footprint (81 B per set row against 64 B per tag row), so the archive
/// is the build side, read through the footprint cap whose boundary
/// containers are bisected. The build must report those containers and
/// their exact tests as a plain tag scan over the cap does.
#[test]
fn archive_build_side_reports_its_bisected_containers() {
    let (store, tags, objs) = build_stores(86, 1500);
    // The set's footprint, from the same rows in store order (the cap
    // does not depend on row order).
    let mut builder = ResultSetBuilder::new(RESULT_SET_CHUNK_ROWS);
    for (_, chunk) in tags.column_chunks() {
        for batch in chunk.batches(BATCH_ROWS) {
            (0..batch.len()).for_each(|i| builder.push(&batch.row(i), batch.htm20[i]));
        }
    }
    let footprint = MatchFootprint::of_set(&builder.finish(), 30.0);
    let cap = footprint
        .domain()
        .expect("a small sky's footprint is a cap");
    let plain = tags.scan_batches(Some(cap), None, |_, _| true).unwrap();
    assert!(plain.containers_partial > 0, "the cap bisects no container");
    for workers in [1, 4] {
        let archive = archive_with_workers(&store, &tags, workers);
        let session = small_chunk_session(&archive);
        session.run("SELECT objid INTO s FROM photoobj").unwrap();
        let set = session.set_info("s").unwrap();
        assert_eq!(set.rows, objs.len());
        assert!(set.bytes > plain.bytes_scanned, "the set would build");
        let (_, stats) = session
            .run_with_stats("SELECT COUNT(*) FROM MATCH(s, photoobj, 30)")
            .unwrap();
        // The set probes, one morsel per chunk: the archive built.
        assert_eq!(stats.morsels, set.chunks as u64, "{workers} workers");
        let want = |set_part: usize, cap_part: usize| (set_part + cap_part) as u64;
        let scan = stats.scan;
        assert_eq!(
            scan.containers_full,
            want(set.chunks, plain.containers_full)
        );
        assert_eq!(scan.containers_partial, want(0, plain.containers_partial));
        assert_eq!(
            scan.objects_exact_tested,
            want(0, plain.objects_exact_tested)
        );
        assert_eq!(scan.bytes_scanned, want(set.bytes, plain.bytes_scanned));
    }
}

#[test]
fn empty_set_match_yields_no_pairs_and_reads_nothing() {
    let (store, tags, _) = build_stores(85, 600);
    for workers in [1, 4] {
        let archive = archive_with_workers(&store, &tags, workers);
        let session = small_chunk_session(&archive);
        session
            .run("SELECT objid INTO e FROM photoobj WHERE r < 0")
            .unwrap();
        assert_eq!(session.set_info("e").unwrap().rows, 0);
        for (a, b) in [("e", "photoobj"), ("photoobj", "e"), ("e", "e")] {
            let sql = format!("SELECT a.objid, b.objid FROM MATCH({a}, {b}, 30)");
            let prepared = session.prepare(&sql).unwrap();
            assert_eq!(prepared.estimate().est_bytes, 0, "{sql}");
            let out = prepared.run().unwrap();
            assert!(out.rows.is_empty(), "{sql}");
            assert_eq!(out.stats.scan.bytes_scanned, 0, "{sql}");
            let count = session
                .run(&format!("SELECT COUNT(*) FROM MATCH({a}, {b}, 30)"))
                .unwrap();
            assert_eq!(count.rows[0][0].as_num().unwrap(), 0.0, "{sql}");
        }
        assert_eq!(archive.admission().running, 0, "slots leaked");
    }
}

#[test]
fn set_spread_over_a_hemisphere_falls_back_to_the_whole_archive() {
    let (store, tags, objs) = build_region_stores(86, GenRegion::AllSky, 300);
    let cut = r_cut(&objs, 0.3);
    let s: Vec<&PhotoObj> = objs.iter().filter(|o| (o.mag(2) as f64) < cut).collect();
    let sky: Vec<&PhotoObj> = objs.iter().collect();
    for workers in [1, 4] {
        let archive = archive_with_workers(&store, &tags, workers);
        let session = small_chunk_session(&archive);
        session
            .run(&format!(
                "SELECT objid INTO s FROM photoobj WHERE r < {cut:?}"
            ))
            .unwrap();
        let prepared = session
            .prepare("SELECT COUNT(*) FROM MATCH(s, photoobj, 3)")
            .unwrap();
        assert!(
            prepared.estimate().full_sweep,
            "an all-sky set cannot restrict"
        );
        let out = prepared.run().unwrap();
        assert!(out.stats.scan.bytes_scanned >= tags.bytes() as u64);
        let ctx = format!("{workers} workers");
        for radius in [3.0, 1800.0] {
            assert!(assert_match_exact(&session, ("s", &s), ("photoobj", &sky), radius, &ctx) > 0);
            assert_match_exact(&session, ("photoobj", &sky), ("s", &s), radius, &ctx);
        }
    }
}

/// Sparse sets against the archive around them: the set builds and the
/// archive probes, the shape whose zone index carries an occupancy
/// filter that turns away probes with no partner. Pairs and
/// `sep_arcsec` bits equal the oracle's at 1, 2 and 4 workers, with the
/// set across RA 0/360, near the north pole, and at the south pole
/// (caps that reach a pole build no filter).
#[test]
fn sparse_set_vs_archive_match_is_exact_at_every_worker_count() {
    let skies = [
        GenRegion::Cap {
            ra_deg: 0.0,
            dec_deg: 0.3,
            radius_deg: 1.0,
        },
        GenRegion::Cap {
            ra_deg: 200.0,
            dec_deg: 87.0,
            radius_deg: 1.5,
        },
        GenRegion::Cap {
            ra_deg: 0.0,
            dec_deg: -90.0,
            radius_deg: 0.3,
        },
    ];
    for (k, region) in skies.into_iter().enumerate() {
        let (store, tags, objs) = build_region_stores(91 + k as u64, region, 900);
        let cut = r_cut(&objs, 0.04);
        let s: Vec<&PhotoObj> = objs.iter().filter(|o| (o.mag(2) as f64) < cut).collect();
        if k == 0 {
            assert!(s.iter().any(|o| o.ra_deg > 359.0) && s.iter().any(|o| o.ra_deg < 1.0));
        }
        let sky: Vec<&PhotoObj> = objs.iter().collect();
        for workers in [1, 2, 4] {
            let archive = archive_with_workers(&store, &tags, workers);
            let session = small_chunk_session(&archive);
            session
                .run(&format!(
                    "SELECT objid INTO s FROM photoobj WHERE r < {cut:?}"
                ))
                .unwrap();
            let set_bytes = session.set_info("s").unwrap().bytes as u64;
            let mut pairs = 0;
            for radius in [3.0, 30.0, 120.0] {
                let ctx = format!("sky {k}, {workers} workers");
                // The archive side outweighs the set, so the set builds.
                let sql = format!("SELECT COUNT(*) FROM MATCH(s, photoobj, {radius:?})");
                let est = session.prepare(&sql).unwrap().estimate().est_bytes;
                assert!(est > 2 * set_bytes, "{ctx}: {est} vs {set_bytes}");
                pairs += assert_match_exact(&session, ("s", &s), ("photoobj", &sky), radius, &ctx);
                assert_match_exact(&session, ("photoobj", &sky), ("s", &s), radius, &ctx);
            }
            assert!(pairs > 0, "sky {k}: vacuous");
            assert_eq!(archive.admission().running, 0, "slots leaked");
        }
    }
}
