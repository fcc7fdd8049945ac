//! End-to-end integration: generate → chunk → load → query through every
//! access path, all paths agreeing with brute force over the generator
//! output.

use sdss::catalog::{ObjClass, PhotoObj, SkyModel, TagObject};
use sdss::dataflow::{ObjPredicate, ScanMachine, SimCluster};
use sdss::htm::Region;
use sdss::loader::{chunk::chunks_from_catalog, load_clustered};
use sdss::query::{Archive, RouteChoice};
use sdss::storage::{ObjectStore, StoreConfig, TagStore};
use std::sync::Arc;

fn build_archive(seed: u64) -> (Arc<ObjectStore>, Arc<TagStore>, Vec<PhotoObj>) {
    let objs = SkyModel::small(seed).generate().expect("valid model");
    let chunks = chunks_from_catalog(objs.clone(), 3).expect("chunking");
    let mut store = ObjectStore::new(StoreConfig::default()).expect("store");
    for c in &chunks {
        load_clustered(&mut store, c).expect("load");
    }
    let tags = TagStore::from_store(&store);
    (Arc::new(store), Arc::new(tags), objs)
}

#[test]
fn loaded_archive_contains_exactly_the_catalog() {
    let (store, tags, objs) = build_archive(101);
    assert_eq!(store.len(), objs.len());
    assert_eq!(tags.len(), objs.len());
    // Every object retrievable by id, bit-identical.
    for obj in objs.iter().step_by(111) {
        assert_eq!(&store.get(obj.obj_id).unwrap(), obj);
    }
}

#[test]
fn all_access_paths_agree() {
    let (store, tags, objs) = build_archive(102);

    // Ground truth: brute force over the generator output.
    let domain = Region::circle(185.0, 15.0, 2.0).unwrap();
    let mut want: Vec<u64> = objs
        .iter()
        .filter(|o| domain.contains(o.unit_vec()) && o.mag(2) < 21.0)
        .map(|o| o.obj_id)
        .collect();
    want.sort_unstable();

    // Path 1: storage region scan + manual filter.
    let mut p1: Vec<u64> = Vec::new();
    store
        .scan_region(&domain, None, |o| {
            if o.mag(2) < 21.0 {
                p1.push(o.obj_id);
            }
        })
        .unwrap();
    p1.sort_unstable();
    assert_eq!(p1, want, "direct region scan");

    // Path 2: the archive query API (tag route).
    let archive = Archive::new(store.clone(), Some(tags.clone()));
    let out = archive
        .run("SELECT objid FROM photoobj WHERE CIRCLE(185, 15, 2) AND r < 21")
        .unwrap();
    assert_eq!(out.stats.route, RouteChoice::TagOnly);
    let mut p2: Vec<u64> = out.rows.iter().map(|r| r[0].as_id().unwrap()).collect();
    p2.sort_unstable();
    assert_eq!(p2, want, "query engine");

    // Path 3: the scan machine over a 4-node cluster.
    let cluster = SimCluster::from_store(&store, 4).unwrap();
    let machine = ScanMachine::new(&cluster);
    let dom = domain.clone();
    let pred: ObjPredicate = Arc::new(move |o| dom.contains(o.unit_vec()) && o.mag(2) < 21.0);
    let mut p3 = Vec::new();
    machine.run_query(pred, |o| p3.push(o.obj_id)).unwrap();
    p3.sort_unstable();
    assert_eq!(p3, want, "scan machine");
}

#[test]
fn sql_class_counts_match_generator() {
    let (store, tags, objs) = build_archive(103);
    let archive = Archive::new(store, Some(tags));
    for (class, name) in [
        (ObjClass::Galaxy, "GALAXY"),
        (ObjClass::Star, "STAR"),
        (ObjClass::Quasar, "QSO"),
    ] {
        let out = archive
            .run(&format!(
                "SELECT COUNT(*) FROM photoobj WHERE class = '{name}'"
            ))
            .unwrap();
        let got = out.rows[0][0].as_num().unwrap() as usize;
        let want = objs.iter().filter(|o| o.class == class).count();
        assert_eq!(got, want, "{name}");
    }
}

#[test]
fn tag_and_full_routes_return_identical_results() {
    let (store, tags, _) = build_archive(104);
    let with_tags = Archive::new(store.clone(), Some(tags));
    let full_only = Archive::new(store, None);
    for sql in [
        "SELECT objid, r FROM photoobj WHERE CIRCLE(185, 15, 1.5) AND gr > 0.3",
        "SELECT objid, ra, dec FROM photoobj WHERE BAND('GALACTIC', 40, 90) AND r < 22",
        "SELECT COUNT(*), AVG(ug) FROM photoobj WHERE CIRCLE(185, 15, 3)",
    ] {
        let a = with_tags.run(sql).unwrap();
        let b = full_only.run(sql).unwrap();
        assert_eq!(a.rows.len(), b.rows.len(), "{sql}");
        let key = |rows: &Vec<sdss::query::Row>| -> Vec<String> {
            let mut v: Vec<String> = rows
                .iter()
                .map(|r| {
                    r.iter()
                        .map(|c| format!("{c:.32}"))
                        .collect::<Vec<_>>()
                        .join("|")
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(key(&a.rows), key(&b.rows), "{sql}");
    }
}

#[test]
fn proximity_join_quasar_query() {
    // The paper's "quasars brighter than r=22, which have a faint blue
    // galaxy within 5 arcsec" — hash machine + brute force agreement.
    let model = SkyModel {
        n_galaxies: 2500,
        n_stars: 500,
        n_quasars: 400,
        cluster_fraction: 0.7,
        ..SkyModel::small(105)
    };
    let tags: Vec<TagObject> = model
        .generate()
        .unwrap()
        .iter()
        .map(TagObject::from_photo)
        .collect();
    let radius = 5.0 / 3600.0;
    let pred: sdss::dataflow::PairPredicate = Arc::new(|a, b| {
        let (q, g) = if a.class == ObjClass::Quasar {
            (a, b)
        } else {
            (b, a)
        };
        q.class == ObjClass::Quasar
            && q.mag(2) < 22.0
            && g.class == ObjClass::Galaxy
            && g.mag(2) > q.mag(2)
            && g.color_gr() < 0.6
    });
    let machine = sdss::dataflow::HashMachine {
        bucket_level: 10,
        margin_deg: radius,
        n_workers: 4,
    };
    let (pairs, _) = machine.find_pairs(&tags, radius, &pred).unwrap();
    let brute = sdss::dataflow::brute_force_pairs(&tags, radius, &pred);
    assert_eq!(pairs, brute);
}

/// A set-vs-archive MATCH reads one footprint whatever the set's row
/// order: a set and its row-reversed copy share a cover-cache entry, and
/// both return exactly the brute-force pairs.
#[test]
fn set_row_order_changes_neither_match_footprint_nor_pairs() {
    let (store, tags, objs) = build_archive(106);
    let archive = Archive::new(store, Some(tags));
    let session = archive.session();
    let pick = "FROM photoobj WHERE CIRCLE(185, 15, 1.5) AND r < 22";
    session
        .run(&format!("SELECT objid INTO up {pick} ORDER BY objid"))
        .unwrap();
    session
        .run(&format!(
            "SELECT objid INTO down {pick} ORDER BY objid DESC"
        ))
        .unwrap();
    let members: std::collections::HashSet<u64> = archive
        .run(&format!("SELECT objid {pick}"))
        .unwrap()
        .rows
        .iter()
        .map(|row| row[0].as_id().unwrap())
        .collect();
    assert!(members.len() > 20, "{} members", members.len());

    let radius_arcsec = 120.0;
    let tags: Vec<TagObject> = objs.iter().map(TagObject::from_photo).collect();
    let in_set: sdss::dataflow::PairPredicate = {
        let members = members.clone();
        Arc::new(move |a, b| members.contains(&a.obj_id) || members.contains(&b.obj_id))
    };
    // MATCH yields ordered pairs with the set member first.
    let mut want: Vec<(u64, u64)> = Vec::new();
    for p in sdss::dataflow::brute_force_pairs(&tags, radius_arcsec / 3600.0, &in_set) {
        if members.contains(&p.a) {
            want.push((p.a, p.b));
        }
        if members.contains(&p.b) {
            want.push((p.b, p.a));
        }
    }
    want.sort_unstable();
    assert!(!want.is_empty());

    for (set, cover_misses) in [("up", 1), ("down", 0)] {
        let sql = format!("SELECT a.objid, b.objid FROM MATCH({set}, photoobj, {radius_arcsec})");
        let out = session.run(&sql).unwrap();
        let mut got: Vec<(u64, u64)> = out
            .rows
            .iter()
            .map(|row| (row[0].as_id().unwrap(), row[1].as_id().unwrap()))
            .collect();
        got.sort_unstable();
        assert_eq!(got, want, "{sql}");
        assert_eq!(out.stats.scan.cover_cache_misses, cover_misses, "{sql}");
    }
}
