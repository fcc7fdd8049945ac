//! E14 — Ablation: scan cover depth.
//!
//! Deeper covers shrink the boundary (fewer exact geometric tests per
//! query) but cost more cover computation and produce more id intervals.
//! This sweep shows the trade-off the store's default level sits on, on
//! both stores, and fails unless every level and both stores select the
//! same objects from the same containers with the same exact tests.
//! Levels 13 and 14 over the level-7 containers are the deepest covers
//! with and without a per-container trixel table.

use sdss_bench::{build_stores, standard_sky};
use sdss_htm::{Cover, Region};
use sdss_storage::RegionScan;
use std::time::Instant;

fn main() {
    let n = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60_000usize);
    println!("E14: cover-depth ablation, cone radius 2 deg ({n} objects)\n");
    let objs = standard_sky(n, 50);
    let (store, tags) = build_stores(&objs, 7);
    let domain = Region::circle(185.0, 15.0, 2.0).unwrap();

    println!(
        "{:>6} {:>12} {:>10} {:>12} {:>8} {:>12} {:>11} {:>10} {:>9}",
        "level",
        "cover (µs)",
        "intervals",
        "exact tests",
        "rows",
        "containers",
        "bytes",
        "full (ms)",
        "tag (ms)"
    );
    println!("{}", "-".repeat(98));
    let mut first_ids: Option<Vec<u64>> = None;
    for level in [7u8, 8, 9, 10, 11, 12, 13, 14] {
        let t = Instant::now();
        let cover = Cover::compute(&domain, level).unwrap();
        let cover_us = t.elapsed().as_secs_f64() * 1e6;
        let intervals =
            cover.full_ranges().num_intervals() + cover.partial_ranges().num_intervals();
        let t = Instant::now();
        let (rows, stats) = store.query_region(&domain, Some(level)).unwrap();
        let full_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let (tag_rows, tag_stats) = tags.query_region(&domain, Some(level)).unwrap();
        let tag_ms = t.elapsed().as_secs_f64() * 1e3;

        let mut ids: Vec<u64> = rows.iter().map(|o| o.obj_id).collect();
        ids.sort_unstable();
        let mut tag_ids: Vec<u64> = tag_rows.iter().map(|t| t.obj_id).collect();
        tag_ids.sort_unstable();
        assert_eq!(
            ids, tag_ids,
            "level {level}: the stores select different objects"
        );
        let counts = |s: &RegionScan| {
            (
                s.containers_full,
                s.containers_partial,
                s.objects_exact_tested,
            )
        };
        assert_eq!(
            counts(&stats),
            counts(&tag_stats),
            "level {level}: the stores' containers or exact tests differ"
        );
        match &first_ids {
            Some(first) => assert_eq!(&ids, first, "level {level} selects different objects"),
            None => first_ids = Some(ids),
        }
        println!(
            "{:>6} {:>12.0} {:>10} {:>12} {:>8} {:>12} {:>11} {:>10.2} {:>9.2}",
            level,
            cover_us,
            intervals,
            stats.objects_exact_tested,
            rows.len(),
            format!("{}+{}", stats.containers_full, stats.containers_partial),
            stats.bytes_scanned,
            full_ms,
            tag_ms
        );
    }
    println!(
        "\n(checked: both stores select the same objects at every level, from\n the same full+bisected containers with the same exact tests — depth\n only moves work between cover computation and per-object geometry;\n bytes stay constant because the container set is fixed by the store's\n clustering level)"
    );
}
