//! Query cost prediction from the coarse-grained density map.
//!
//! Paper, §Spatial Data Structures: "These containers represent a
//! coarse-grained density map of the data. They define the base of an
//! index tree that tells us whether containers are fully inside, outside
//! or bisected by our query. [...] A prediction of the output data volume
//! and search time can be computed from the intersection volume."
//!
//! The estimator classifies containers against the query region:
//! fully-inside containers contribute their exact counts; bisected ones
//! contribute `count × (intersection volume / container volume)`
//! (area-proportional, assuming in-container uniformity). Bytes to read
//! are exact (whole touched containers); time is bytes / calibrated scan
//! bandwidth.

use crate::container::Container;
use crate::cover_cache::CoverCache;
use crate::store::ObjectStore;
use crate::vertical::TagStore;
use crate::StorageError;
use sdss_htm::cover::{classify_trixel_domain, Classification};
use sdss_htm::{Cover, Domain, HtmId, Trixel};
use std::sync::Arc;

/// What the estimator reads of one container: its trixel, its row count
/// and the bytes a scan of it is charged. Both stores describe their
/// containers this way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainerSize {
    pub id: HtmId,
    pub rows: u64,
    pub bytes: u64,
}

impl From<&Container> for ContainerSize {
    fn from(c: &Container) -> ContainerSize {
        ContainerSize {
            id: c.id(),
            rows: c.stats().count,
            bytes: c.bytes() as u64,
        }
    }
}

/// Calibration constants for the estimator.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Sustained scan bandwidth of one server, bytes/second. The default
    /// is deliberately conservative; benches calibrate it from a measured
    /// scan before asking for predictions.
    pub scan_bandwidth_bps: f64,
    /// Cover depth used for estimating the bisected-container overlap.
    pub overlap_level: u8,
    /// Seconds per probe row of a cross-match join, on top of the byte
    /// term: the declination-zone stripe searches, candidate separations
    /// and pair evaluation, plus the build it amortizes. Derived as the
    /// whole `MATCH` wall time at one worker divided by its probe rows,
    /// over a lens-pair self-join at 10" (~6k rows) and a `COUNT(*)` of a
    /// ~1.7k-row set against the 200k-object archive's footprint at 30"
    /// (~33k probe rows): 0.26–0.35 µs per probe row on a 2-vCPU VM.
    pub match_probe_seconds: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            scan_bandwidth_bps: 150.0e6, // the paper's 150 MB/s/node figure
            overlap_level: 11,
            match_probe_seconds: 0.3e-6,
        }
    }
}

/// Prediction for one region query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryEstimate {
    /// Predicted number of matching objects (output volume).
    pub est_rows: f64,
    /// Exact bytes the scan will read (touched containers).
    pub est_bytes: u64,
    /// Predicted wall time on one server, seconds.
    pub est_seconds: f64,
    /// Containers fully inside / bisected.
    pub containers_full: usize,
    pub containers_partial: usize,
}

impl CostModel {
    /// Estimate a region query against a store using only container
    /// statistics and geometry — no object data is read.
    pub fn estimate(
        &self,
        store: &ObjectStore,
        domain: &Domain,
    ) -> Result<QueryEstimate, StorageError> {
        self.estimate_containers(
            store.containers().map(ContainerSize::from),
            store.config().container_level,
            domain,
            Some(store.cover_cache()),
        )
    }

    /// Estimate a region query against the tag vertical partition: same
    /// geometry classification, tag-store byte counts (the bytes a
    /// tag-routed scan would actually read).
    pub fn estimate_tags(
        &self,
        tags: &TagStore,
        domain: &Domain,
    ) -> Result<QueryEstimate, StorageError> {
        self.estimate_containers(
            tags.container_sizes(),
            tags.container_level(),
            domain,
            Some(tags.cover_cache()),
        )
    }

    /// Exact prediction for an unrestricted sweep: every container is
    /// read whole.
    pub fn estimate_sweep(&self, containers: impl Iterator<Item = ContainerSize>) -> QueryEstimate {
        let mut est = QueryEstimate {
            est_rows: 0.0,
            est_bytes: 0,
            est_seconds: 0.0,
            containers_full: 0,
            containers_partial: 0,
        };
        for container in containers {
            est.containers_full += 1;
            est.est_rows += container.rows as f64;
            est.est_bytes += container.bytes;
        }
        est.est_seconds = est.est_bytes as f64 / self.scan_bandwidth_bps;
        est
    }

    /// The shared estimator core: classify an arbitrary container set
    /// against the query region. `cache` (when given) memoizes the deep
    /// overlap cover so repeated prepares of the same region are free.
    pub fn estimate_containers(
        &self,
        containers: impl Iterator<Item = ContainerSize>,
        container_level: u8,
        domain: &Domain,
        cache: Option<&CoverCache>,
    ) -> Result<QueryEstimate, StorageError> {
        let mut est = QueryEstimate {
            est_rows: 0.0,
            est_bytes: 0,
            est_seconds: 0.0,
            containers_full: 0,
            containers_partial: 0,
        };
        let level = self.overlap_level.max(container_level);
        // One deep cover shared by all bisected containers.
        let cover = match cache {
            Some(cache) => cache.get_or_compute(domain, level)?,
            None => Arc::new(Cover::compute(domain, level)?),
        };
        let full = cover.full_ranges();
        let partial = cover.partial_ranges();

        for container in containers {
            let t = Trixel::from_id(container.id);
            match classify_trixel_domain(&t, domain) {
                Classification::Inside => {
                    est.containers_full += 1;
                    est.est_rows += container.rows as f64;
                    est.est_bytes += container.bytes;
                }
                Classification::Outside => {}
                Classification::Partial => {
                    est.containers_partial += 1;
                    est.est_bytes += container.bytes;
                    // Overlap fraction from deep trixel counts under this
                    // container: full deep trixels count 1, partial ½.
                    let (lo, hi) = container.id.deep_range(level);
                    let total = (hi - lo) as f64;
                    let n_full = full.intersect(&range_set(lo, hi)).count() as f64;
                    let n_part = partial.intersect(&range_set(lo, hi)).count() as f64;
                    let frac = ((n_full + 0.5 * n_part) / total).clamp(0.0, 1.0);
                    est.est_rows += container.rows as f64 * frac;
                }
            }
        }
        est.est_seconds = est.est_bytes as f64 / self.scan_bandwidth_bps;
        Ok(est)
    }
}

fn range_set(lo: u64, hi: u64) -> sdss_htm::HtmRangeSet {
    sdss_htm::HtmRangeSet::from_unsorted(vec![(lo, hi)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use sdss_catalog::SkyModel;
    use sdss_htm::Region;

    fn store(seed: u64) -> ObjectStore {
        let model = SkyModel {
            n_galaxies: 3500,
            n_stars: 1200,
            n_quasars: 300,
            ..SkyModel::small(seed)
        };
        let objs = model.generate().unwrap();
        let mut s = ObjectStore::new(StoreConfig::default()).unwrap();
        s.insert_batch(&objs).unwrap();
        s
    }

    #[test]
    fn estimate_tracks_actual_rows() {
        let s = store(1);
        let model = CostModel::default();
        for radius in [1.0, 2.5, 4.0] {
            let domain = Region::circle(185.0, 15.0, radius).unwrap();
            let est = model.estimate(&s, &domain).unwrap();
            let (rows, stats) = s.query_region(&domain, None).unwrap();
            let actual = rows.len() as f64;
            // Clustered data makes per-container uniformity approximate;
            // demand the estimate be within a factor of 2 (the paper uses
            // it for scheduling, not billing).
            assert!(
                est.est_rows > actual * 0.5 && est.est_rows < actual * 2.0 + 20.0,
                "radius {radius}: est {:.0} vs actual {actual}",
                est.est_rows
            );
            // Bytes prediction is exact for whole-container reads.
            assert_eq!(est.est_bytes, stats.bytes_scanned as u64);
        }
    }

    #[test]
    fn estimate_is_cheap_no_reads() {
        let s = store(2);
        s.touches().reset();
        let domain = Region::circle(185.0, 15.0, 2.0).unwrap();
        let _ = CostModel::default().estimate(&s, &domain).unwrap();
        let (_, read_touches, bytes_read, _) = s.touches().snapshot();
        assert_eq!(read_touches, 0, "estimator must not read containers");
        assert_eq!(bytes_read, 0);
    }

    #[test]
    fn empty_region_estimates_zero() {
        let s = store(3);
        let domain = Region::circle(5.0, -40.0, 1.0).unwrap();
        let est = CostModel::default().estimate(&s, &domain).unwrap();
        assert_eq!(est.est_bytes, 0);
        assert_eq!(est.est_rows, 0.0);
        assert_eq!(est.est_seconds, 0.0);
    }

    #[test]
    fn seconds_scale_with_bandwidth() {
        let s = store(4);
        let domain = Region::circle(185.0, 15.0, 3.0).unwrap();
        let slow = CostModel {
            scan_bandwidth_bps: 10e6,
            ..CostModel::default()
        };
        let fast = CostModel {
            scan_bandwidth_bps: 100e6,
            ..CostModel::default()
        };
        let es = slow.estimate(&s, &domain).unwrap();
        let ef = fast.estimate(&s, &domain).unwrap();
        assert!(es.est_seconds > ef.est_seconds * 9.9);
    }
}
