//! E5 — Tag objects vs full objects: the ">10 times faster" claim.
//!
//! Runs the same queries through the engine twice — once allowed to route
//! to the 64-byte tag partition, once forced to the ~1.2 KB full store —
//! and reports bytes read and wall time.

use sdss_bench::{bitwise_multiset, build_stores, fmt_bytes, standard_sky};
use sdss_catalog::{PhotoObj, TagObject};
use sdss_query::Archive;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let n = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60_000usize);
    println!("E5: tag (vertical partition) vs full-object search ({n} objects)\n");
    let objs = standard_sky(n, 42);
    let (store, tags) = build_stores(&objs, 7);
    let record_ratio = PhotoObj::SERIALIZED_LEN as f64 / TagObject::SERIALIZED_LEN as f64;
    println!(
        "record widths: full {} B, tag {} B (ratio {record_ratio:.1}x)\n",
        PhotoObj::SERIALIZED_LEN,
        TagObject::SERIALIZED_LEN,
    );

    // --- storage layer: the claim as stated (bytes dominate) ----------
    // Both sides read the cone's object ids in place through their
    // store's scan plan, so the ratio measures bytes read, not decoding:
    // the full store tests each record's `htm20` and reads its id through
    // a `PhotoRecord` view, the tag store reads its `obj_id` lane.
    let domain = sdss_htm::Region::circle(185.0, 15.0, 4.5).unwrap();
    let mut full_ms = f64::INFINITY;
    let mut tag_ms = f64::INFINITY;
    let mut rows_full = 0usize;
    let mut rows_tag = 0usize;
    for _ in 0..3 {
        let t = Instant::now();
        let plan = store.plan_scan(Some(&domain), None).unwrap();
        let mut ids = Vec::new();
        for idx in 0..plan.morsels().len() {
            store.scan_morsel(&plan, idx, |rec| {
                ids.push(rec.obj_id());
                true
            });
        }
        rows_full = ids.len();
        full_ms = full_ms.min(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let plan = tags.plan_batch_scan(Some(&domain), None).unwrap();
        let mut ids = Vec::new();
        for idx in 0..plan.morsels().len() {
            tags.scan_morsel(&plan, idx, |batch, sel| {
                ids.extend(sel.iter_set().map(|i| batch.obj_id[i]));
                true
            });
        }
        rows_tag = ids.len();
        tag_ms = tag_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }
    assert_eq!(rows_full, rows_tag);
    println!(
        "storage-layer region search, ids read in place (4.5 deg cone, {} rows):\n  full objects {:8.2} ms   tags {:8.2} ms   speedup {:.1}x  (record bytes {:.1}x; the paper's '>10x')\n",
        rows_full,
        full_ms,
        tag_ms,
        full_ms / tag_ms,
        record_ratio
    );

    println!("engine-level queries (adds parse/plan/row-materialization overhead,");
    println!("which dilutes the raw byte ratio):\n");
    let queries = [
        ("color cut", "SELECT objid, ra, dec FROM photoobj WHERE CIRCLE(185, 15, 4.5) AND g - r > 0.4 AND r < 21"),
        ("bright galaxies", "SELECT objid, r FROM photoobj WHERE CIRCLE(185, 15, 4.5) AND class = 'GALAXY' AND r < 19"),
        ("count all", "SELECT COUNT(*) FROM photoobj WHERE CIRCLE(185, 15, 4.5) AND ug < 0.5"),
    ];

    println!(
        "{:<16} {:>10} {:>12} {:>12} {:>9}",
        "query", "rows", "tag (ms)", "full (ms)", "speedup"
    );
    println!("{}", "-".repeat(64));
    let store = Arc::new(store);
    let tags = Arc::new(tags);
    let with_tags = Archive::new(store.clone(), Some(tags.clone()));
    let full_only = Archive::new(store.clone(), None);
    for (name, sql) in queries {
        // Warm both paths once, then measure best-of-3.
        let rows = with_tags.run(sql).unwrap().rows.len();
        let mut tag_ms = f64::INFINITY;
        let mut full_ms = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            let out = with_tags.run(sql).unwrap();
            assert_eq!(out.stats.route, sdss_query::RouteChoice::TagOnly);
            assert_eq!(out.rows.len(), rows);
            tag_ms = tag_ms.min(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let full = full_only.run(sql).unwrap();
            assert_eq!(
                bitwise_multiset(&full.rows),
                bitwise_multiset(&out.rows),
                "{name}: the tag and full routes must return bitwise the same rows"
            );
            full_ms = full_ms.min(t.elapsed().as_secs_f64() * 1e3);
        }
        println!(
            "{:<16} {:>10} {:>12.2} {:>12.2} {:>8.1}x",
            name,
            rows,
            tag_ms,
            full_ms,
            full_ms / tag_ms
        );
    }

    println!(
        "\nstore bytes: full {} vs tag {} ({:.1}x smaller — the paper's 'much less space')",
        fmt_bytes(store.bytes() as f64),
        fmt_bytes(tags.bytes() as f64),
        store.bytes() as f64 / tags.bytes() as f64
    );
}
