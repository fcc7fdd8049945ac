//! Session-workspace throughput — the measurements the compositional
//! query surface exists for:
//!
//! * **INTO materialization, fast vs fetch** — `SELECT objid INTO s FROM
//!   photoobj ...` through the **direct columnar fast path** (tag-routed
//!   scans copy whole tag records straight from the column lanes into
//!   the set) at 1 and 2 workers vs the stream-and-fetch path (stacking
//!   a no-op `LIMIT` over the same scan forces the per-objid full-store
//!   fetch route — the identical scan, materialized by fetching each
//!   object), plus a `UNION ... INTO` over two tag scans, which runs on
//!   lanes too.
//! * **stored-set scan vs base scan** — the same compiled predicate run
//!   `FROM s` (morsels = set chunks) and against the base tag partition;
//!   the ratio shows stored sets ride the same memory-bandwidth path,
//!   with the set scan reading only the candidate subset.
//! * **cross-match pair throughput** — `MATCH(cand, cand, r)` pair rows
//!   per second through the morsel-parallel zone-index join, plus the
//!   in-scan-folded `COUNT(*)` pair-count rate.
//! * **archive-probe cross-match** — `COUNT(*) FROM MATCH(qso, photoobj,
//!   30)` for a sparse set in a 2° cap, at one worker: archive probe
//!   rows per second, where most probes find no partner.
//!
//! Emits `BENCH_workspace.json` with the core count, the repetition
//! count and, per timed metric, the spread of its runs (`(worst - best)
//! / best`). Scans run at 1 and 4 workers per query; judge wall-clock
//! speedups against the recorded `cores` (a single-core runner caps at
//! ~1.0 regardless of architecture).

use sdss_bench::{build_stores, standard_sky};
use sdss_catalog::{PhotoObj, TagObject};
use sdss_query::{AdmissionConfig, Archive, ArchiveConfig, Session, SessionConfig};
use sdss_storage::{MatchFootprint, ObjectStore, ResultSetBuilder, TagStore};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const N_OBJECTS: usize = 120_000;
const WORKER_COUNTS: &[usize] = &[1, 4];
/// Timed repetitions per configuration (best-of to shed scheduler noise).
const REPS: usize = 5;

/// The candidate cut: keeps a substantial fraction of the sky.
const INTO_SQL: &str = "SELECT objid INTO cand FROM photoobj WHERE r < 22";
/// The same cut with a no-op LIMIT stacked on top: the plan shape
/// disqualifies the direct columnar fast path, so this measures the
/// stream-and-fetch materialization route over the identical scan.
const INTO_FETCH_SQL: &str = "SELECT objid INTO cand FROM photoobj WHERE r < 22 LIMIT 1000000000";
/// A union of two overlapping tag scans, materialized on lanes.
const UNION_INTO_SQL: &str = "(SELECT objid FROM photoobj WHERE r < 21.5) \
                              UNION (SELECT objid FROM photoobj WHERE gr > 0.5 AND r < 22) INTO qso";
/// The cross-match workload: candidate-vs-candidate pairs at 30".
const MATCH_SQL: &str = "SELECT a.objid, b.objid, sep_arcsec FROM MATCH(cand, cand, 30)";
const MATCH_COUNT_SQL: &str = "SELECT COUNT(*) FROM MATCH(cand, cand, 30)";
/// A sparse set in a 2° cap, and its pair count against the archive.
const SPARSE_INTO_SQL: &str =
    "SELECT objid INTO qso FROM photoobj WHERE CIRCLE(185, 15, 2) AND class = 'QSO'";
const MATCH_ARCHIVE_SQL: &str = "SELECT COUNT(*) FROM MATCH(qso, photoobj, 30)";
const MATCH_ARCHIVE_RADIUS: f64 = 30.0;
/// The refinement predicate run over the set and over the base archive.
const SET_SCAN_SQL: &str = "SELECT objid, r, gr FROM cand WHERE gr > 0.2";
const BASE_SCAN_SQL: &str = "SELECT objid, r, gr FROM photoobj WHERE r < 22 AND gr > 0.2";

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

fn session_for(archive: &Archive) -> Session {
    archive.session_with(SessionConfig {
        max_bytes: 1 << 30,
        ..SessionConfig::default()
    })
}

/// Wall seconds of REPS timed runs: the best, and the spread of the runs
/// as `(worst - best) / best`.
struct Times {
    best: f64,
    spread: f64,
}

fn time_reps(mut run: impl FnMut()) -> Times {
    let secs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            run();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let best = secs.iter().copied().fold(f64::INFINITY, f64::min);
    let worst = secs.iter().copied().fold(0.0, f64::max);
    Times {
        best,
        spread: (worst - best) / best,
    }
}

/// REPS timed runs of `sql` on `session`, with the scanned-row count of
/// the last run.
fn best_seconds(session: &Session, sql: &str) -> (Times, u64) {
    let prepared = session.prepare(sql).expect("query prepares");
    let mut rows = 0u64;
    let times = time_reps(|| {
        let out = prepared.run().expect("query runs");
        rows = out.stats.scan.rows_scanned;
        black_box(out.rows.len());
    });
    (times, rows)
}

/// REPS timed runs materializing `sql` on `session`, after one warm-up
/// run.
fn best_into_seconds(session: &Session, sql: &str) -> Times {
    session.run(sql).expect("warm-up INTO");
    time_reps(|| {
        session.run(sql).expect("INTO runs");
    })
}

/// Archive rows inside the footprint of set `name`: the rows a
/// set-vs-archive MATCH at `radius` probes.
fn footprint_rows(session: &Session, name: &str, objs: &[PhotoObj], radius: f64) -> usize {
    let ids: HashSet<u64> = session
        .run(&format!("SELECT objid FROM {name}"))
        .expect("set reads back")
        .rows
        .iter()
        .map(|row| row[0].as_id().expect("objid"))
        .collect();
    let mut set = ResultSetBuilder::new(1024);
    for o in objs.iter().filter(|o| ids.contains(&o.obj_id)) {
        set.push(&TagObject::from_photo(o), o.htm20);
    }
    let footprint = MatchFootprint::of_set(&set.finish(), radius);
    let cap = footprint
        .domain()
        .expect("a 2-degree cap restricts the archive");
    objs.iter().filter(|o| cap.contains(o.unit_vec())).count()
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("workspace queries ({N_OBJECTS} objects, {cores} core(s), best of {REPS})\n");
    let objs = standard_sky(N_OBJECTS, 2029);
    let (store, tags) = build_stores(&objs, 6);
    let (store, tags) = (Arc::new(store), Arc::new(tags));

    // --- INTO materialization (serial archive: the sink is the work) ---
    let serial = archive_with_workers(&store, &tags, 1);
    let session = session_for(&serial);
    let into = best_into_seconds(&session, INTO_SQL);
    let info = session.set_info("cand").expect("set landed");
    let into_rps = info.rows as f64 / into.best;

    // The fetch route over the identical scan: the PR 4 baseline
    // mechanics (stream batches, dedup objids, per-objid full-store
    // fetch, rebuild the tag record).
    let fetch = best_into_seconds(&session, INTO_FETCH_SQL);
    let fetch_info = session.set_info("cand").expect("set landed");
    assert_eq!(fetch_info, info, "both INTO routes agree");
    let into_fetch_rps = info.rows as f64 / fetch.best;

    // The lane path at 2 workers, and a UNION on lanes.
    let two = session_for(&archive_with_workers(&store, &tags, 2));
    let into_2w = best_into_seconds(&two, INTO_SQL);
    let into_2w_rps = info.rows as f64 / into_2w.best;
    assert_eq!(
        two.set_info("cand"),
        Some(info.clone()),
        "same set at 2 workers"
    );
    let union = best_into_seconds(&two, UNION_INTO_SQL);
    let union_rows = two.set_info("qso").expect("union landed").rows;
    let union_into_rps = union_rows as f64 / union.best;
    let into_fast_speedup = into_rps / into_fetch_rps;
    println!(
        "INTO materialization: {} rows -> {} chunks ({:.1} MB)\n  \
         direct columnar path: {into_rps:.0} rows/s ({into_2w_rps:.0} at 2 workers)\n  \
         stream-and-fetch path: {into_fetch_rps:.0} rows/s\n  \
         fast-path speedup: {into_fast_speedup:.1}x\n  \
         UNION INTO ({union_rows} rows, 2 workers): {union_into_rps:.0} rows/s\n",
        info.rows,
        info.chunks,
        info.bytes as f64 / 1e6
    );

    // --- cross-match pair throughput over the candidate set -----------
    let match_archive = archive_with_workers(&store, &tags, 4);
    let match_session = session_for(&match_archive);
    match_session.run(INTO_SQL).expect("materialize for MATCH");
    let (matched, match_pairs) = best_seconds(&match_session, MATCH_SQL);
    let match_rps = match_pairs as f64 / matched.best;
    let (counted, _) = best_seconds(&match_session, MATCH_COUNT_SQL);
    let match_count_rps = match_pairs as f64 / counted.best;
    println!(
        "cross-match MATCH(cand, cand, 30\"): {match_pairs} pairs at \
         {match_rps:.0} pairs/s (COUNT folds in-scan at {match_count_rps:.0} pairs/s)"
    );

    // --- archive-probe cross-match: a sparse set against the archive --
    session
        .run(SPARSE_INTO_SQL)
        .expect("materialize the sparse set");
    let sparse_rows = session.set_info("qso").expect("sparse set landed").rows;
    let probe_rows = footprint_rows(&session, "qso", &objs, MATCH_ARCHIVE_RADIUS);
    let (archive_count, _) = best_seconds(&session, MATCH_ARCHIVE_SQL);
    let match_archive_count_rps = probe_rows as f64 / archive_count.best;
    println!(
        "archive-probe MATCH(qso, photoobj, 30\"), 1 worker: {sparse_rows} set rows, \
         {probe_rows} probe rows at {match_archive_count_rps:.0} probe rows/s\n"
    );

    // --- stored-set scan vs equivalent base-archive scan --------------
    println!(
        "{:<9} {:>16} {:>16} {:>14} {:>10}",
        "workers", "set-scan rows/s", "base-scan rows/s", "set speedup", "bytes rat."
    );
    println!("{}", "-".repeat(70));
    let mut entries = Vec::new();
    let mut set_1w = 0.0f64;
    for &workers in WORKER_COUNTS {
        let archive = archive_with_workers(&store, &tags, workers);
        let session = session_for(&archive);
        session.run(INTO_SQL).expect("materialize per archive");
        let (set_times, set_rows) = best_seconds(&session, SET_SCAN_SQL);
        let (base_times, base_rows) = best_seconds(&session, BASE_SCAN_SQL);
        let (set_s, base_s) = (set_times.best, base_times.best);
        if workers == 1 {
            set_1w = set_s;
        }
        let set_rps = set_rows as f64 / set_s;
        let base_rps = base_rows as f64 / base_s;
        let speedup = set_1w / set_s;
        // Bytes advantage of scanning only the candidate set.
        let set_bytes = session.set_info("cand").unwrap().bytes as f64;
        let base_bytes = tags.bytes() as f64;
        let bytes_ratio = base_bytes / set_bytes;
        println!(
            "{workers:<9} {set_rps:>16.0} {base_rps:>16.0} {speedup:>13.2}x {bytes_ratio:>9.2}x"
        );
        entries.push(format!(
            "    {{\"workers\": {workers}, \"set_scan_rows_per_sec\": {set_rps:.0}, \
             \"base_scan_rows_per_sec\": {base_rps:.0}, \"set_speedup\": {speedup:.2}, \
             \"bytes_ratio\": {bytes_ratio:.2}, \"set_scan_spread\": {:.2}, \
             \"base_scan_spread\": {:.2}}}",
            set_times.spread, base_times.spread
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"workspace_queries\",\n  \"objects\": {N_OBJECTS},\n  \
         \"cores\": {cores},\n  \"reps\": {REPS},\n  \"set_rows\": {},\n  \"set_chunks\": {},\n  \
         \"into_rows_per_sec\": {into_rps:.0},\n  \
         \"into_fetch_rows_per_sec\": {into_fetch_rps:.0},\n  \
         \"into_2w_rows_per_sec\": {into_2w_rps:.0},\n  \
         \"union_into_rows_per_sec\": {union_into_rps:.0},\n  \
         \"into_fast_speedup\": {into_fast_speedup:.2},\n  \
         \"match_pairs\": {match_pairs},\n  \
         \"match_pairs_per_sec\": {match_rps:.0},\n  \
         \"match_count_pairs_per_sec\": {match_count_rps:.0},\n  \
         \"match_archive_probe_rows\": {probe_rows},\n  \
         \"match_archive_count_per_sec\": {match_archive_count_rps:.0},\n  \
         \"spread\": {{\"into\": {:.2}, \"into_fetch\": {:.2}, \"into_2w\": {:.2}, \
         \"union_into\": {:.2}, \"match_pairs\": {:.2}, \"match_count\": {:.2}, \
         \"match_archive_count\": {:.2}}},\n  \"runs\": [\n{}\n  ]\n}}\n",
        info.rows,
        info.chunks,
        into.spread,
        fetch.spread,
        into_2w.spread,
        union.spread,
        matched.spread,
        counted.spread,
        archive_count.spread,
        entries.join(",\n")
    );
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let path = root.join("BENCH_workspace.json");
    std::fs::write(&path, json).expect("write BENCH_workspace.json");
    println!("\nwrote {}", path.display());
    if cores == 1 {
        println!("note: single-core machine — scan speedups cap at ~1.0 here;");
        println!("      run on a multi-core host (CI) for the real scaling numbers.");
    }
}
