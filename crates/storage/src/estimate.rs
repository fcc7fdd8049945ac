//! Query cost prediction from the coarse-grained density map.
//!
//! Paper, §Spatial Data Structures: "These containers represent a
//! coarse-grained density map of the data. They define the base of an
//! index tree that tells us whether containers are fully inside, outside
//! or bisected by our query. [...] A prediction of the output data volume
//! and search time can be computed from the intersection volume."
//!
//! The estimator reads the scan's own [`ScanPlan`], at the cover level
//! the scan reads, so the prediction and the scan classify containers
//! once and the same way: a fully-inside container contributes its exact
//! row count; a bisected one contributes `rows × (n_full + ½·n_partial) /
//! cells`, its cover-level trixels counted from the plan's cover
//! (area-proportional, assuming in-container uniformity). Bytes to read
//! are the morsels' charges, so they are exact by construction; time is
//! bytes / calibrated scan bandwidth.

use crate::scan_plan::ScanPlan;

/// Calibration constants for the estimator.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Sustained scan bandwidth of one server, bytes/second. The default
    /// is deliberately conservative; benches calibrate it from a measured
    /// scan before asking for predictions.
    pub scan_bandwidth_bps: f64,
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
            match_probe_seconds: 0.3e-6,
        }
    }
}

/// Prediction for one region query.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
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
    /// Predict a planned scan of either store from its morsels alone —
    /// no object data is read, and no cover is looked up.
    pub fn estimate(&self, plan: &ScanPlan) -> QueryEstimate {
        let mut est = QueryEstimate::default();
        for m in plan.morsels() {
            est.est_rows += m.rows as f64 * plan.overlap(m);
            est.est_bytes += m.bytes as u64;
            if m.full {
                est.containers_full += 1;
            } else {
                est.containers_partial += 1;
            }
        }
        est.est_seconds = est.est_bytes as f64 / self.scan_bandwidth_bps;
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{ObjectStore, StoreConfig};
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
            let est = model.estimate(&s.plan_scan(Some(&domain), None).unwrap());
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
        let _ = CostModel::default().estimate(&s.plan_scan(Some(&domain), None).unwrap());
        let (_, read_touches, bytes_read, _) = s.touches().snapshot();
        assert_eq!(read_touches, 0, "estimator must not read containers");
        assert_eq!(bytes_read, 0);
    }

    #[test]
    fn empty_region_estimates_zero() {
        let s = store(3);
        let domain = Region::circle(5.0, -40.0, 1.0).unwrap();
        let est = CostModel::default().estimate(&s.plan_scan(Some(&domain), None).unwrap());
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
        let plan = s.plan_scan(Some(&domain), None).unwrap();
        let (es, ef) = (slow.estimate(&plan), fast.estimate(&plan));
        assert!(es.est_seconds > ef.est_seconds * 9.9);
    }
}
