//! Quickstart: generate a sky, load the archive, ask it questions.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sdss::catalog::SkyModel;
use sdss::coords::angle::{format_dms, format_hms};
use sdss::query::{Archive, Value};
use sdss::storage::{ObjectStore, StoreConfig, TagStore};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A reproducible synthetic sky: ~10k objects in a 5-degree field
    //    (stands in for the telescope; see DESIGN.md).
    let model = SkyModel::default();
    let objs = model.generate()?;
    println!(
        "generated {} objects ({} galaxies, {} stars, {} quasars)",
        objs.len(),
        model.n_galaxies,
        model.n_stars,
        model.n_quasars
    );

    // 2. Load into the container-clustered store and project the tag
    //    partition (the 10 popular attributes).
    let mut store = ObjectStore::new(StoreConfig::default())?;
    store.insert_batch(&objs)?;
    let tags = TagStore::from_store(&store);
    println!(
        "store: {} containers, {:.1} MB full / {:.1} MB tags",
        store.num_containers(),
        store.bytes() as f64 / 1e6,
        tags.bytes() as f64 / 1e6
    );

    // 3. A cone search with photometric cuts — prepared once (with a
    //    plan-time cost estimate), parameterized per run, and routed to
    //    the tag partition automatically.
    let archive = Archive::new(store, Some(Arc::new(tags)));
    let stmt = archive.prepare(
        "SELECT objid, ra, dec, r, g - r AS color FROM photoobj \
         WHERE CIRCLE(185.0, 15.0, 1.0) AND r < $1 AND class = 'GALAXY' \
         ORDER BY r LIMIT 8",
    )?;
    println!(
        "\nplan-time estimate: ~{:.0} rows, {:.1} KB to scan, {} containers",
        stmt.estimate().est_rows,
        stmt.estimate().est_bytes as f64 / 1e3,
        stmt.estimate().containers_full + stmt.estimate().containers_partial
    );
    let out = stmt.run_with(&[21.0])?; // bind $1 = 21.0 — no re-plan
    println!(
        "bright galaxies within 1 deg (route: {:?}, first row after {:.2} ms):",
        out.stats.route,
        out.stats
            .time_to_first_row
            .map(|d| d.as_secs_f64() * 1e3)
            .unwrap_or(0.0)
    );
    println!(
        "{:<22} {:>13} {:>13} {:>7} {:>7}",
        "objid", "RA", "Dec", "r", "g-r"
    );
    for row in &out.rows {
        let ra = row[1].as_num().unwrap();
        let dec = row[2].as_num().unwrap();
        println!(
            "{:<22} {:>13} {:>13} {:>7.2} {:>7.2}",
            row[0],
            format_hms(ra),
            format_dms(dec),
            row[3].as_num().unwrap(),
            row[4].as_num().unwrap()
        );
    }

    // 4. Aggregates and the special angular-distance operator.
    let stats = archive
        .run("SELECT COUNT(*), AVG(r), MIN(r), MAX(r) FROM photoobj WHERE DIST(185, 15) < 2.5")?;
    let row = &stats.rows[0];
    println!(
        "\nwithin 2.5 deg of field center: {} objects, r in [{:.2}, {:.2}], mean {:.2}",
        row[0], row[2], row[3], row[1]
    );

    // 5. Stream a larger result batch by batch, as it is found. Each
    //    batch materializes into one row-major `RowBlock` (one
    //    allocation per batch) whose rows are `&[Value]` slices.
    let mut stream = archive
        .prepare("SELECT objid, r, class FROM photoobj WHERE gr BETWEEN 0.2 AND 0.9")?
        .stream()?;
    let (mut rows, mut quasars, mut faintest) = (0usize, 0usize, f64::MIN);
    while let Some(batch) = stream.next_batch() {
        let block = batch.rows();
        rows += block.len();
        for row in block.iter() {
            faintest = faintest.max(row[1].as_num().unwrap_or(f64::MIN));
            quasars += matches!(&row[2], Value::Str(c) if c == "QSO") as usize;
        }
    }
    if let Some(msg) = stream.failure() {
        return Err(msg.into());
    }
    let stats = stream.finish();
    println!(
        "streamed {rows} objects with 0.2 <= g-r <= 0.9 in {} batches \
         ({quasars} quasars, faintest r = {faintest:.2})",
        stats.batches
    );
    Ok(())
}
