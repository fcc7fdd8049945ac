//! E8 — Index-assisted region queries: bytes touched, container
//! classification and the cost model's output-volume prediction, swept
//! over cone radius.
//!
//! Paper: containers "tell us whether containers are fully inside,
//! outside or bisected by our query. Only the bisected container category
//! is searched [...] A prediction of the output data volume and search
//! time can be computed from the intersection volume."
//!
//! The prediction reads the scan's own plan, so its bytes must equal the
//! bytes the scan reads at every radius; the run fails otherwise.

use sdss_bench::{build_stores, standard_sky};
use sdss_htm::Region;
use sdss_storage::CostModel;
use std::time::Instant;

fn main() {
    let n = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60_000usize);
    println!("E8: cone queries — index selectivity and cost prediction ({n} objects)\n");
    let objs = standard_sky(n, 45);
    let (store, _) = build_stores(&objs, 7);
    let total_bytes = store.bytes();
    let model = CostModel::default();

    println!(
        "{:>8} {:>8} {:>9} {:>9} {:>11} {:>9} {:>9} {:>10}",
        "radius", "rows", "est rows", "est/act", "bytes", "% of all", "exact", "time (ms)"
    );
    println!("{}", "-".repeat(82));
    for radius in [0.1, 0.25, 0.5, 1.0, 2.0, 4.0] {
        let domain = Region::circle(185.0, 15.0, radius).unwrap();
        let est = model.estimate(&store.plan_scan(Some(&domain), None).unwrap());
        let t = Instant::now();
        let (rows, stats) = store.query_region(&domain, None).unwrap();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            est.est_bytes, stats.bytes_scanned as u64,
            "radius {radius}: the estimate and the scan read different bytes"
        );
        println!(
            "{:>7}d {:>8} {:>9.0} {:>9.2} {:>11} {:>8.1}% {:>9} {:>10.2}",
            radius,
            rows.len(),
            est.est_rows,
            est.est_rows / rows.len().max(1) as f64,
            stats.bytes_scanned,
            stats.bytes_scanned as f64 / total_bytes as f64 * 100.0,
            stats.objects_exact_tested,
            ms
        );
    }
    println!(
        "\n(small queries read a tiny fraction of the store; exact geometry \
         tests happen only in boundary trixels)"
    );
}
