//! Shared workload builders for the benchmark harness.
//!
//! Every experiment binary and Criterion bench builds its datasets through
//! these helpers so that workloads are identical across harnesses and
//! reruns (fixed seeds).

use sdss_catalog::{GenRegion, PhotoObj, SkyModel};
use sdss_query::{Row, Value};
use sdss_storage::{ObjectStore, StoreConfig, TagStore};

/// Default experiment field: a 5-degree cap at the SDSS test region.
pub const FIELD_RA: f64 = 185.0;
pub const FIELD_DEC: f64 = 15.0;
pub const FIELD_RADIUS: f64 = 5.0;

/// Build the standard clustered sky of `n` total objects (70% galaxies,
/// 25% stars, 5% quasars — roughly the paper's catalog mix).
pub fn standard_sky(n: usize, seed: u64) -> Vec<PhotoObj> {
    let model = sky_model(n, seed);
    model
        .generate()
        .expect("standard model parameters are valid")
}

/// The corresponding model, for callers that need spectro data too.
pub fn sky_model(n: usize, seed: u64) -> SkyModel {
    SkyModel {
        region: GenRegion::Cap {
            ra_deg: FIELD_RA,
            dec_deg: FIELD_DEC,
            radius_deg: FIELD_RADIUS,
        },
        n_galaxies: n * 70 / 100,
        n_stars: n * 25 / 100,
        n_quasars: n - n * 70 / 100 - n * 25 / 100,
        seed,
        ..SkyModel::default()
    }
}

/// Load a sky into a fresh store (and matching tag store).
pub fn build_stores(objs: &[PhotoObj], level: u8) -> (ObjectStore, TagStore) {
    let mut store = ObjectStore::new(StoreConfig {
        container_level: level,
        ..StoreConfig::default()
    })
    .expect("valid store config");
    store.insert_batch(objs).expect("insert generated objects");
    let tags = TagStore::from_store(&store);
    (store, tags)
}

/// Pretty-print a measurement table row.
pub fn row(cols: &[String]) -> String {
    cols.join(" | ")
}

/// Format bytes human-readably.
pub fn fmt_bytes(b: f64) -> String {
    const UNITS: [&str; 6] = ["B", "KB", "MB", "GB", "TB", "PB"];
    let mut v = b;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    format!("{v:.2} {}", UNITS[u])
}

/// Rows as a sorted multiset, each value written as its variant and
/// exact bits, so two routes or modes compare bitwise whatever order
/// they stream rows in.
pub fn bitwise_multiset(rows: &[Row]) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::Num(x) => format!("Num({:#x})", x.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect()
        })
        .collect();
    rows.sort_unstable();
    rows
}
