//! The fast route check: every query below runs on four execution
//! routes — the row interpreter, and the compiled engine at exactly one,
//! two and four scan workers per query — and every route must return
//! the same rows as a bitwise multiset and charge the same scan bytes.
//! Full-store queries are also checked against a brute force over every
//! decoded object, and aggregates must be bit-identical on every route.
//!
//! Worker counts are explicit, never the host default, so the check
//! means the same thing on one core and on many. The full randomized
//! equivalence suites live with the query crate; this slice is small
//! enough for the root test run.

use sdss::catalog::{GenRegion, SkyModel};
use sdss::query::ast::SelectItem;
use sdss::query::ops::eval;
use sdss::query::parser::parse;
use sdss::query::{
    AdmissionConfig, Archive, ArchiveConfig, ExecMode, Query, QueryOutput, Row, Value,
};
use sdss::storage::{ObjectStore, StoreConfig, TagStore};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The sky spans many containers, so two-worker scans really split.
fn stores() -> (Arc<ObjectStore>, Arc<TagStore>) {
    sky_stores(SkyModel {
        n_galaxies: 2400,
        n_stars: 900,
        n_quasars: 150,
        ..SkyModel::small(1313)
    })
}

fn sky_stores(model: SkyModel) -> (Arc<ObjectStore>, Arc<TagStore>) {
    let objs = model.generate().expect("valid model");
    let mut store = ObjectStore::new(StoreConfig::default()).expect("store");
    store.insert_batch(&objs).expect("insert");
    let tags = TagStore::from_store(&store);
    (Arc::new(store), Arc::new(tags))
}

/// The route matrix: a name and an archive handle per route, all over
/// the same stores.
fn routes(store: &Arc<ObjectStore>, tags: &Arc<TagStore>) -> Vec<(&'static str, Archive)> {
    let archive = |mode, workers| {
        let config = ArchiveConfig {
            mode,
            admission: AdmissionConfig {
                max_worker_slots: 8,
                max_workers_per_query: workers,
                ..AdmissionConfig::default()
            },
            ..ArchiveConfig::default()
        };
        Archive::with_config(store.clone(), Some(tags.clone()), config)
    };
    vec![
        ("interpreted", archive(ExecMode::Interpreted, 1)),
        ("auto/1", archive(ExecMode::Auto, 1)),
        ("auto/2", archive(ExecMode::Auto, 2)),
        ("auto/4", archive(ExecMode::Auto, 4)),
    ]
}

/// A total order that is equal exactly on bitwise-identical values
/// (`total_cmp` separates NaN payloads and the signs of zero).
fn value_order(a: &Value, b: &Value) -> Ordering {
    fn rank(v: &Value) -> u8 {
        match v {
            Value::Num(_) => 0,
            Value::Id(_) => 1,
            Value::Str(_) => 2,
            Value::Bool(_) => 3,
            Value::Null => 4,
        }
    }
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => x.total_cmp(y),
        (Value::Id(x), Value::Id(y)) => x.cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        _ => rank(a).cmp(&rank(b)),
    }
}

fn row_order(a: &Row, b: &Row) -> Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| value_order(x, y))
        .find(|o| o.is_ne())
        .unwrap_or_else(|| a.len().cmp(&b.len()))
}

/// The rows as a canonically sorted multiset (no query here has ORDER
/// BY, so only the multiset is part of the result contract).
fn canonical(rows: &[Row]) -> Vec<Row> {
    let mut rows = rows.to_vec();
    rows.sort_by(row_order);
    rows
}

fn assert_same_rows(want: &[Row], got: &[Row], context: &str) {
    assert_eq!(want.len(), got.len(), "{context}: row count");
    for (i, (w, g)) in canonical(want).iter().zip(&canonical(got)).enumerate() {
        assert_eq!(
            row_order(w, g),
            Ordering::Equal,
            "{context}: sorted row {i}: {w:?} != {g:?}"
        );
    }
}

/// Run `sql` on every route, check each against the interpreter's rows
/// and scan bytes, and return the interpreter's output.
fn agree(routes: &[(&str, Archive)], sql: &str) -> QueryOutput {
    let mut outs = routes.iter().map(|(name, archive)| {
        let out = archive
            .run(sql)
            .unwrap_or_else(|e| panic!("{name}: {sql}: {e}"));
        (*name, out)
    });
    let (_, oracle) = outs.next().expect("the interpreted route comes first");
    for (name, out) in outs {
        let context = format!("{name}: {sql}");
        assert_eq!(out.columns, oracle.columns, "{context}");
        assert_same_rows(&oracle.rows, &out.rows, &context);
        let (want, got) = (&oracle.stats.scan, &out.stats.scan);
        assert_eq!(got.bytes_scanned, want.bytes_scanned, "{context}: bytes");
        assert_eq!(got.containers_full, want.containers_full, "{context}");
        assert_eq!(got.containers_partial, want.containers_partial, "{context}");
        assert_eq!(
            got.objects_exact_tested, want.objects_exact_tested,
            "{context}"
        );
    }
    oracle
}

#[test]
fn tag_cones_and_sweeps_agree_across_routes() {
    let (store, tags) = stores();
    let routes = routes(&store, &tags);
    for sql in [
        "SELECT objid, ra, dec, r, gr, class FROM photoobj WHERE CIRCLE(185, 15, 1.5) AND r < 22",
        "SELECT objid, r, ug FROM photoobj WHERE CIRCLE(185.5, 14.5, 0.4)",
        "SELECT objid, ra, dec, r, gr, ri FROM photoobj WHERE gr BETWEEN 0.2 AND 0.9",
        "SELECT objid, size, class FROM photoobj WHERE class = 'QSO' OR r < 19.5",
        "SELECT objid, r FROM photoobj SAMPLE 0.3",
    ] {
        let out = agree(&routes, sql);
        assert!(!out.rows.is_empty(), "{sql} must select rows");
        assert!(!out.stats.columnar, "the oracle route interprets");
    }
    // The two-worker route really splits a sweep.
    let (_, auto2) = &routes[2];
    let sweep = auto2
        .run("SELECT objid FROM photoobj WHERE r < 30")
        .unwrap();
    assert_eq!(sweep.stats.workers_used, 2);
}

/// Set operations whose branches read different domains or stores, so
/// each branch must run on its own leaf: `EXCEPT` and `INTERSECT` of two
/// different cones, and of a full-store branch (selecting on `psf_r`)
/// and a tag branch. The expected rows are the branches run alone: the
/// left rows whose object the right branch does not return (`EXCEPT`) or
/// does (`INTERSECT`).
#[test]
fn set_operations_over_different_leaves_agree_across_routes() {
    use sdss::query::RouteChoice::{Full, TagOnly};
    let (store, tags) = stores();
    let routes = routes(&store, &tags);
    let (_, interp) = &routes[0];
    let cone = "SELECT objid, r FROM photoobj WHERE CIRCLE(185, 15, 1.5)";
    let other = "SELECT objid, r FROM photoobj WHERE CIRCLE(185.8, 15.3, 1)";
    let full = "SELECT objid, r FROM photoobj WHERE CIRCLE(185, 15, 1.5) AND psf_r < 22";
    let right: BTreeSet<Option<u64>> = interp
        .run(other)
        .unwrap()
        .rows
        .iter()
        .map(|row| row[0].as_id())
        .collect();
    for (left, route) in [(cone, TagOnly), (full, Full)] {
        for op in ["EXCEPT", "INTERSECT"] {
            let sql = format!("({left}) {op} ({other})");
            let out = agree(&routes, &sql);
            assert_eq!(out.stats.route, route, "{sql}");
            let mut want = interp.run(left).unwrap().rows;
            want.retain(|row| right.contains(&row[0].as_id()) == (op == "INTERSECT"));
            assert!(!want.is_empty(), "{sql} must select rows");
            assert_same_rows(&want, &out.rows, &sql);
        }
    }
}

#[test]
fn non_compilable_predicate_agrees_across_routes() {
    let (store, tags) = stores();
    let routes = routes(&store, &tags);
    // String ordering on `class` stays on the interpreter, on every route.
    let sql = "SELECT objid, ra, r, class FROM photoobj WHERE class >= 'QSO' AND r < 22";
    let out = agree(&routes, sql);
    assert!(!out.rows.is_empty(), "{sql} must select rows");
    for (name, archive) in &routes {
        let stats = archive.run(sql).unwrap().stats;
        assert!(!stats.columnar, "{name}: the predicate must not compile");
        assert!(
            stats.morsels > 0,
            "{name}: interpreted tag scans run on morsels"
        );
    }
}

#[test]
fn into_then_from_agrees_across_routes() {
    let (store, tags) = stores();
    let routes = routes(&store, &tags);
    let from_t = "SELECT objid, ra, dec, r, gr, class FROM t WHERE gr > 0.3";
    let mut outs = Vec::new();
    for (name, archive) in &routes {
        let session = archive.session();
        session
            .run("SELECT objid INTO t FROM photoobj WHERE CIRCLE(185, 15, 2) AND r < 22")
            .unwrap_or_else(|e| panic!("{name}: INTO: {e}"));
        let out = session
            .run(from_t)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        outs.push((*name, out));
    }
    let (_, oracle) = &outs[0];
    assert!(!oracle.rows.is_empty());
    for (name, out) in &outs[1..] {
        let context = format!("{name}: {from_t}");
        assert_same_rows(&oracle.rows, &out.rows, &context);
        assert_eq!(
            out.stats.scan.bytes_scanned, oracle.stats.scan.bytes_scanned,
            "{context}"
        );
    }
}

/// UNION keeps every column of a right-only row: the expected rows are
/// the two sides run alone, merged by `objid`.
#[test]
fn union_keeps_right_only_values() {
    let (store, tags) = stores();
    let routes = routes(&store, &tags);
    let left = "SELECT objid, r FROM photoobj WHERE r < 19";
    let right = "SELECT objid, r FROM photoobj WHERE class = 'GALAXY'";
    let union = format!("({left}) UNION ({right})");
    let out = agree(&routes, &union);

    let (_, interp) = &routes[0];
    let mut want = interp.run(left).unwrap().rows;
    let right_only: Vec<Row> = interp
        .run(right)
        .unwrap()
        .rows
        .into_iter()
        .filter(|row| !want.iter().any(|l| l[0] == row[0]))
        .collect();
    assert!(
        !right_only.is_empty(),
        "the query must have right-only rows"
    );
    want.extend(right_only);
    assert_same_rows(&want, &out.rows, &union);
    assert!(out.rows.iter().all(|row| matches!(row[1], Value::Num(_))));
}

/// The streaming edge: draining `stream()` batch by batch through
/// `ResultBatch::rows` yields, on every route, the same rows as a
/// bitwise multiset as `collect_output` — for columnar projections
/// (with a class column), Sort's row batches, the UNION node and an
/// aggregate.
#[test]
fn streamed_row_blocks_match_collected_output() {
    let (store, tags) = stores();
    let routes = routes(&store, &tags);
    for sql in [
        "SELECT objid, ra, dec, r, gr, class FROM photoobj WHERE CIRCLE(185, 15, 1.5) AND r < 22",
        "SELECT objid, r, class FROM photoobj WHERE gr > 0.4 ORDER BY r DESC",
        "(SELECT objid, r FROM photoobj WHERE r < 19) UNION \
         (SELECT objid, r FROM photoobj WHERE class = 'GALAXY')",
        "SELECT COUNT(*), AVG(r), MIN(gr), MAX(gr) FROM photoobj WHERE gr BETWEEN 0.2 AND 0.9",
    ] {
        for (name, archive) in &routes {
            let context = format!("{name}: {sql}");
            let prepared = archive.prepare(sql).unwrap();
            let want = prepared.stream().unwrap().collect_output().unwrap().rows;
            let mut stream = prepared.stream().unwrap();
            let width = stream.columns().len();
            let mut streamed: Vec<Row> = Vec::new();
            while let Some(batch) = stream.next_batch() {
                let block = batch.rows();
                let borrowed: Vec<Row> = block.iter().map(<[Value]>::to_vec).collect();
                assert!(borrowed.iter().all(|row| row.len() == width), "{context}");
                let owned = block.into_rows();
                assert_same_rows(&borrowed, &owned, &context);
                streamed.extend(owned);
            }
            assert!(stream.failure().is_none(), "{context}");
            assert!(!want.is_empty(), "{context}: must select rows");
            assert_same_rows(&want, &streamed, &context);
            if sql.contains("ORDER BY") {
                let r: Vec<f64> = streamed
                    .iter()
                    .map(|row| row[1].as_num().unwrap())
                    .collect();
                assert!(r.windows(2).all(|w| w[0] >= w[1]), "{context}: order");
            }
        }
    }
}

/// The brute force a full-store query must match: every stored object
/// decoded (`iter_all`), its whole WHERE clause evaluated on the
/// `PhotoObj` (spatial factors by `Domain::contains`) and its select list
/// evaluated the same way. Rows come with their container id, in
/// container order.
fn brute_force(store: &ObjectStore, sql: &str) -> Vec<(u64, Row)> {
    let Query::Select(select) = parse(sql).unwrap() else {
        panic!("{sql}: a plain SELECT")
    };
    store
        .iter_all()
        .filter(|o| {
            let keep = select.predicate.as_ref().map(|p| eval(p, o).unwrap());
            keep.is_none_or(|v| v == Value::Bool(true))
        })
        .map(|o| {
            let row = select.items.iter().map(|item| match item {
                SelectItem::Expr { expr, .. } => eval(expr, &o).unwrap(),
                other => panic!("{sql}: brute force projects expressions, not {other:?}"),
            });
            (store.container_id_of(&o).unwrap().raw(), row.collect())
        })
        .collect()
}

fn rows_of(rows: Vec<(u64, Row)>) -> Vec<Row> {
    rows.into_iter().map(|(_, row)| row).collect()
}

/// The full-store shapes: a small cone on a full-only attribute, a
/// projection with `class`, a non-compilable predicate, a sweep, a cone
/// across RA 0/360 and one over the pole each return, on every route,
/// bitwise the brute force's rows, and charge the same containers and
/// exact tests as the tag route over the same domain.
#[test]
fn full_store_queries_match_the_brute_force() {
    let wrap_sky = SkyModel {
        region: GenRegion::Cap {
            ra_deg: 0.0,
            dec_deg: 10.0,
            radius_deg: 3.0,
        },
        ..SkyModel::small(77)
    };
    for ((store, tags), cases) in [
        (
            stores(),
            vec![
                ("CIRCLE(185.2, 15.1, 0.1)", "objid, psf_r, r"),
                (
                    "CIRCLE(185, 15, 1.5) AND r < 22",
                    "objid, class, psf_r, ra, dec",
                ),
                (
                    "CIRCLE(184.5, 15.5, 1) AND class >= 'QSO'",
                    "objid, mjd, gr",
                ),
                (
                    "sb_r > 21 AND run > 0",
                    "objid, sb_r, extinction_r, spectro_target",
                ),
            ],
        ),
        (
            sky_stores(wrap_sky.clone()),
            vec![("CIRCLE(0.5, 10, 1.5)", "objid, ra, dec, psf_r, parent")],
        ),
        (
            sky_stores(SkyModel {
                region: GenRegion::Cap {
                    ra_deg: 0.0,
                    dec_deg: 89.0,
                    radius_deg: 3.0,
                },
                ..SkyModel::small(78)
            }),
            vec![("CIRCLE(120, 89.5, 1)", "objid, ra, dec, psf_r")],
        ),
    ] {
        let routes = routes(&store, &tags);
        for (predicate, cols) in cases {
            let sql = format!("SELECT {cols} FROM photoobj WHERE {predicate}");
            let out = agree(&routes, &sql);
            assert_eq!(out.stats.route, sdss::query::RouteChoice::Full, "{sql}");
            let want = rows_of(brute_force(&store, &sql));
            assert!(!want.is_empty(), "{sql} must select rows");
            assert_same_rows(&want, &out.rows, &sql);
            if predicate.starts_with("CIRCLE") {
                let circle = predicate.split(" AND ").next().unwrap();
                let tag_sql = format!("SELECT objid FROM photoobj WHERE {circle}");
                let tag = agree(&routes, &tag_sql);
                assert_eq!(tag.stats.route, sdss::query::RouteChoice::TagOnly);
                let (full, tag) = (&out.stats.scan, &tag.stats.scan);
                assert_eq!(full.containers_full, tag.containers_full, "{sql}");
                assert_eq!(full.containers_partial, tag.containers_partial, "{sql}");
                assert_eq!(full.objects_exact_tested, tag.objects_exact_tested, "{sql}");
            }
        }
    }
    // The wrapping cone really holds objects on both sides of RA 0/360.
    let (store, _) = sky_stores(wrap_sky);
    let rows = brute_force(&store, "SELECT ra FROM photoobj WHERE CIRCLE(0.5, 10, 1.5)");
    let ras: Vec<f64> = rows.iter().map(|(_, r)| r[0].as_num().unwrap()).collect();
    assert!(ras.iter().any(|&ra| ra > 359.0) && ras.iter().any(|&ra| ra < 1.0));
}

/// A full-store aggregate the compiler cannot fold matches the brute
/// force bitwise: per-container partials merged in container order.
#[test]
fn full_store_aggregate_matches_the_brute_force() {
    let (store, tags) = stores();
    let routes = routes(&store, &tags);
    let predicate = "CIRCLE(185, 15, 1.5) AND r < 22";
    let sql = format!(
        "SELECT COUNT(*), SUM(psf_r), AVG(mjd), MIN(sb_r), MAX(extinction_r) \
         FROM photoobj WHERE {predicate}"
    );
    let out = agree(&routes, &sql);
    assert!(!out.stats.columnar);
    let args = brute_force(
        &store,
        &format!("SELECT psf_r, mjd, sb_r, extinction_r FROM photoobj WHERE {predicate}"),
    );
    let num = |row: &Row, i: usize| row[i].as_num().unwrap();
    let mut sums = [0.0f64; 2];
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    let mut i = 0;
    while i < args.len() {
        let container = args[i].0;
        let mut part = [0.0f64; 2];
        while i < args.len() && args[i].0 == container {
            part[0] += num(&args[i].1, 0);
            part[1] += num(&args[i].1, 1);
            min = min.min(num(&args[i].1, 2));
            max = max.max(num(&args[i].1, 3));
            i += 1;
        }
        sums[0] += part[0];
        sums[1] += part[1];
    }
    assert!(!args.is_empty());
    let n = args.len() as f64;
    let want = vec![vec![
        Value::Num(n),
        Value::Num(sums[0]),
        Value::Num(sums[1] / n),
        Value::Num(min),
        Value::Num(max),
    ]];
    assert_same_rows(&want, &out.rows, &sql);
}

/// A full-store LIMIT returns rows of the brute force, and neither a
/// LIMIT nor a cancel mid-stream leaves worker slots held.
#[test]
fn full_store_limit_and_cancel_release_admission() {
    let (store, tags) = stores();
    let routes = routes(&store, &tags);
    let sql = "SELECT objid, psf_r FROM photoobj WHERE CIRCLE(185, 15, 2) LIMIT 5";
    let want: BTreeSet<String> = rows_of(brute_force(
        &store,
        "SELECT objid, psf_r FROM photoobj WHERE CIRCLE(185, 15, 2)",
    ))
    .iter()
    .map(|row| format!("{row:?}"))
    .collect();
    for (name, archive) in &routes {
        let out = archive.run(sql).unwrap();
        assert_eq!(out.rows.len(), 5, "{name}");
        assert!(
            out.rows
                .iter()
                .all(|row| want.contains(&format!("{row:?}"))),
            "{name}: LIMIT rows must be brute-force rows"
        );
        assert_eq!(archive.admission().running, 0, "{name}: after LIMIT");

        let prepared = archive
            .prepare("SELECT objid, psf_r FROM photoobj")
            .unwrap();
        let mut stream = prepared.stream().unwrap();
        assert!(stream.next_batch().is_some(), "{name}: a first batch");
        stream.ticket().cancel();
        while stream.next_batch().is_some() {}
        drop(stream);
        assert_eq!(archive.admission().running, 0, "{name}: after cancel");
    }
}

/// Aggregates answer bit-identically on every route and at any worker
/// count: partials are kept per morsel and merged in morsel order.
/// `ra`/`dec` are full-precision columns, so a merge order that followed
/// the workers would show in the last bits.
#[test]
fn aggregates_are_bit_identical_at_any_worker_count() {
    let (store, tags) = stores();
    let routes = routes(&store, &tags);
    for sql in [
        "SELECT SUM(ra), AVG(dec), SUM(r * gr) FROM photoobj WHERE gr > 0.1",
        "SELECT SUM(psf_r), AVG(psf_r * dec) FROM photoobj WHERE gr > 0.1",
    ] {
        let mut results = BTreeSet::new();
        for (name, archive) in &routes {
            for _ in 0..20 {
                let out = archive
                    .run(sql)
                    .unwrap_or_else(|e| panic!("{name}: {sql}: {e}"));
                let bits: Vec<String> = out.rows[0]
                    .iter()
                    .map(|v| match v {
                        Value::Num(x) => format!("{:#x}", x.to_bits()),
                        other => format!("{other:?}"),
                    })
                    .collect();
                results.insert(bits);
            }
        }
        assert_eq!(results.len(), 1, "{sql}: {results:?}");
    }
}
