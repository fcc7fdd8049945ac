//! `ra`/`dec` on the compiled path load the tag chunks' derived lanes;
//! the row interpreter derives them per row from x, y, z. The two must
//! agree bit for bit on every route that reads the lanes — the tag
//! partition and stored sets made by either INTO path — at explicit
//! worker counts, including the poles (x = y = 0) and positions either
//! side of ra = 0/360.

use sdss_catalog::{PhotoObj, SkyModel};
use sdss_query::{AdmissionConfig, Archive, ArchiveConfig, ExecMode, QueryOutput, Row, Value};
use sdss_skycoords::SkyPos;
use sdss_storage::{ObjectStore, StoreConfig, TagStore};
use std::sync::Arc;

/// The SkyModel sky plus edge positions: both poles, a near-pole point,
/// and points just either side of ra = 0/360 (y = -0.0 derives ra -0.0;
/// a tiny negative y wraps to exactly 360.0).
fn build_stores(seed: u64) -> (Arc<ObjectStore>, Arc<TagStore>) {
    let mut objs: Vec<PhotoObj> = SkyModel::small(seed).generate().unwrap();
    let next_id = objs.iter().map(|o| o.obj_id).max().unwrap() + 1;
    let by_angle = |ra: f64, dec: f64| {
        let v = SkyPos::new(ra, dec).unwrap().unit_vec();
        (v.x(), v.y(), v.z())
    };
    let edges = [
        (0.0, 0.0, 1.0),
        (0.0, 0.0, -1.0),
        (1e-9, -1e-9, 1.0),
        (0.6, -0.0, 0.8),
        (1.0, -1e-300, 0.0),
        by_angle(359.9999, 12.0),
        by_angle(359.7, -40.0),
        by_angle(0.0, -7.5),
        by_angle(0.0001, 33.0),
        by_angle(0.3, 60.0),
    ];
    for (k, &(x, y, z)) in edges.iter().enumerate() {
        let mut o = objs[k].clone();
        o.obj_id = next_id + k as u64;
        (o.x, o.y, o.z) = (x, y, z);
        let pos = SkyPos::from_unit_vec(o.unit_vec());
        (o.ra_deg, o.dec_deg) = (pos.ra_deg(), pos.dec_deg());
        o.htm20 = sdss_htm::lookup_id(o.unit_vec(), 20).unwrap().raw();
        objs.push(o);
    }
    let mut store = ObjectStore::new(StoreConfig::default()).unwrap();
    store.insert_batch(&objs).unwrap();
    let tags = TagStore::from_store(&store);
    (Arc::new(store), Arc::new(tags))
}

fn archive(
    store: &Arc<ObjectStore>,
    tags: &Arc<TagStore>,
    mode: ExecMode,
    workers: usize,
) -> Archive {
    Archive::with_config(
        store.clone(),
        Some(tags.clone()),
        ArchiveConfig {
            mode,
            admission: AdmissionConfig {
                max_worker_slots: 8,
                max_workers_per_query: workers,
                max_bypass: 4,
            },
            ..ArchiveConfig::default()
        },
    )
}

/// Rows as a sorted multiset of bit patterns (`Num` by `to_bits`, so
/// -0.0 and +0.0 stay distinct).
fn canonical(out: &QueryOutput) -> Vec<Vec<u64>> {
    let bits = |v: &Value| match v {
        Value::Num(x) => x.to_bits(),
        Value::Id(id) => *id,
        other => panic!("unexpected value {other:?}"),
    };
    let mut rows: Vec<Vec<u64>> = out
        .rows
        .iter()
        .map(|r: &Row| r.iter().map(bits).collect())
        .collect();
    rows.sort_unstable();
    rows
}

/// The projections and `ra`/`dec` predicates under test; `{src}` is the
/// source and `{pre}` a prefix of extra conjuncts.
const SHAPES: [&str; 4] = [
    "SELECT objid, ra, dec FROM {src} {where}",
    "SELECT objid, ra, dec FROM {src} WHERE {pre} ra BETWEEN 0 AND 0.5 AND dec < 91",
    "SELECT objid, ra, dec FROM {src} WHERE {pre} ra BETWEEN 359.5 AND 360 AND dec < 45",
    "SELECT objid, dec FROM {src} WHERE {pre} (ra < 0.5 OR ra > 359.5 OR dec > 89.9) AND dec < 90",
];

fn shape(template: &str, src: &str, filter: Option<&str>) -> String {
    let (pre, whole) = match filter {
        Some(f) => (format!("{f} AND"), format!("WHERE {f}")),
        None => (String::new(), String::new()),
    };
    template
        .replace("{src}", src)
        .replace("{pre}", &pre)
        .replace("{where}", &whole)
}

#[test]
fn compiled_ra_dec_lanes_match_the_interpreter_bitwise() {
    let (store, tags) = build_stores(5150);
    let oracle = archive(&store, &tags, ExecMode::Interpreted, 1);
    // The INTO filter the stored sets are built with; the oracle for a
    // set query is the same query over the archive with it conjoined.
    let filter = "r < 30";
    let mut edge_rows = 0;
    for workers in [1, 2] {
        let auto = archive(&store, &tags, ExecMode::Auto, workers);
        let session = auto.session();
        let (_, fast) = session
            .run_with_stats(&format!(
                "SELECT objid INTO fast FROM photoobj WHERE {filter}"
            ))
            .unwrap();
        assert!(fast.columnar, "bare tag INTO must take the fast path");
        session
            .run(&format!(
                "SELECT objid INTO fetched FROM photoobj WHERE {filter} LIMIT 100000000"
            ))
            .unwrap();
        assert_eq!(
            session.set_info("fast").unwrap().rows,
            session.set_info("fetched").unwrap().rows
        );

        for template in SHAPES {
            let want = oracle.run(&shape(template, "photoobj", None)).unwrap();
            assert!(!want.stats.columnar);
            let got = auto.run(&shape(template, "photoobj", None)).unwrap();
            let ctx = format!("{template} over the archive at {workers} workers");
            assert!(got.stats.columnar, "{ctx} must run compiled");
            assert_eq!(canonical(&got), canonical(&want), "{ctx}");
            if template.contains("BETWEEN") {
                edge_rows += got.rows.len();
            }

            let want = oracle
                .run(&shape(template, "photoobj", Some(filter)))
                .unwrap();
            for set in ["fast", "fetched"] {
                let got = session.run(&shape(template, set, None)).unwrap();
                let ctx = format!("{template} over set `{set}` at {workers} workers");
                assert!(got.stats.columnar, "{ctx} must run compiled");
                assert_eq!(canonical(&got), canonical(&want), "{ctx}");
            }
        }
        assert_eq!(auto.admission().running, 0);
    }
    // Both BETWEEN shapes hit the wrap-side edge objects at both worker
    // counts.
    assert!(edge_rows >= 2 * 5, "edge objects missing: {edge_rows}");
}
