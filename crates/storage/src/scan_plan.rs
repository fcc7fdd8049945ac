//! Cover-to-morsels scan plans, shared by both stores.
//!
//! A region scan decides the HTM cover once and lists every touched
//! container as one morsel, classified as wholly inside the cover (every
//! row selected, no geometry) or bisected by it. In a bisected container
//! each row's precomputed level-20 id is tested against the deep cover
//! (an integer compare); only rows in boundary trixels meet the exact
//! region geometry, and rows outside the cover are rejected before
//! anything else of them is read. The tag store drains these morsels as
//! column batches, the full store as in-place record views; the query
//! engine's morsel driver drains either one in parallel.

use crate::cover_cache::CoverCache;
use crate::store::RegionScan;
use crate::StorageError;
use sdss_htm::{Cover, Domain, HtmId, HtmRangeSet};
use sdss_skycoords::UnitVec3;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One unit of parallel scan work: a single touched container of a
/// planned scan.
#[derive(Debug, Clone, Copy)]
pub struct ScanMorsel {
    /// Raw container id.
    pub container: u64,
    /// Wholly inside the cover: every row selected without geometry.
    pub full: bool,
    /// Scan charge in bytes — the whole container, in its store's unit
    /// — and the byte-balancing weight for [`crate::MorselQueue`]
    /// sharding.
    pub bytes: usize,
}

/// A resolved scan: the HTM cover decision made once, the touched
/// containers listed as morsels. Shareable across scan workers (`Send +
/// Sync`, typically behind an `Arc`).
#[derive(Debug)]
pub struct ScanPlan {
    morsels: Vec<ScanMorsel>,
    /// `None` for unrestricted sweeps (no geometry at all).
    cover: Option<(Arc<Cover>, Domain)>,
    /// Bit shift from level-20 ids down to the cover level.
    shift: u64,
    cache_hit: bool,
}

/// The cover test of one bisected morsel's rows.
pub(crate) struct Bisected<'p> {
    full: &'p HtmRangeSet,
    partial: &'p HtmRangeSet,
    domain: &'p Domain,
    shift: u64,
}

impl Bisected<'_> {
    /// Whether a row with level-20 id `htm20` lies in the domain. Only a
    /// row in a boundary trixel reads its position (`pos`) for the exact
    /// test, counted in `stats.objects_exact_tested`.
    #[inline]
    pub(crate) fn admits(
        &self,
        htm20: u64,
        pos: impl FnOnce() -> UnitVec3,
        stats: &mut RegionScan,
    ) -> bool {
        let deep_id = htm20 >> self.shift;
        if self.full.contains(deep_id) {
            true
        } else if self.partial.contains(deep_id) {
            stats.objects_exact_tested += 1;
            self.domain.contains(pos())
        } else {
            false
        }
    }
}

impl ScanPlan {
    /// Plan a scan over a store's containers (keyed by raw id, charged
    /// `bytes` each) at `cover_level` (the store's `scan_cover_level`
    /// when `None`). `domain = None` plans an unrestricted sweep: every
    /// container, no geometry.
    pub(crate) fn build<T>(
        containers: &BTreeMap<u64, T>,
        bytes: impl Fn(&T) -> usize,
        (container_level, scan_cover_level): (u8, u8),
        cover_cache: &CoverCache,
        domain: Option<&Domain>,
        cover_level: Option<u8>,
    ) -> Result<ScanPlan, StorageError> {
        let Some(domain) = domain else {
            let morsels = containers
                .iter()
                .map(|(&raw, c)| ScanMorsel {
                    container: raw,
                    full: true,
                    bytes: bytes(c),
                })
                .collect();
            return Ok(ScanPlan {
                morsels,
                cover: None,
                shift: 0,
                cache_hit: false,
            });
        };

        let level = cover_level.unwrap_or(scan_cover_level);
        if level < container_level || level > 20 {
            return Err(StorageError::InvalidConfig(format!(
                "cover level {level} outside [{container_level}, 20]"
            )));
        }
        let (cover, cache_hit) = cover_cache.get_or_compute_traced(domain, level)?;
        // Touched deep ranges coarsened to the container level; a
        // container is a full morsel when the full cover holds it whole.
        let touched = cover.touched_ranges().coarsen(level, container_level);
        let full = cover.full_ranges();
        let morsels = touched
            .ranges()
            .iter()
            .flat_map(|&(lo, hi)| containers.range(lo..hi))
            .map(|(&raw, c)| {
                let id = HtmId::from_raw(raw).expect("stored containers have valid HTM ids");
                let (clo, chi) = id.deep_range(level);
                ScanMorsel {
                    container: raw,
                    full: full.contains_range(clo, chi),
                    bytes: bytes(c),
                }
            })
            .collect();
        Ok(ScanPlan {
            morsels,
            cover: Some((cover, domain.clone())),
            shift: 2 * (20 - level) as u64,
            cache_hit,
        })
    }

    /// The touched containers, in container-id (spatial) order.
    pub fn morsels(&self) -> &[ScanMorsel] {
        &self.morsels
    }

    /// Byte weights per morsel (the [`crate::MorselQueue`] input).
    pub fn morsel_bytes(&self) -> Vec<usize> {
        self.morsels.iter().map(|m| m.bytes).collect()
    }

    pub fn is_empty(&self) -> bool {
        self.morsels.is_empty()
    }

    /// Whether the plan-time cover lookup hit the cache (`None` when the
    /// scan is an unrestricted sweep and no cover was needed).
    pub fn cover_cache_hit(&self) -> Option<bool> {
        self.cover.as_ref().map(|_| self.cache_hit)
    }

    /// Morsel `idx`'s container, its opening accounting (the whole
    /// container charged, classified full or bisected) and, for a
    /// bisected container, the row test.
    pub(crate) fn open(&self, idx: usize) -> (u64, RegionScan, Option<Bisected<'_>>) {
        let m = &self.morsels[idx];
        let stats = RegionScan {
            bytes_scanned: m.bytes,
            containers_full: usize::from(m.full),
            containers_partial: usize::from(!m.full),
            ..RegionScan::default()
        };
        let bisected = (!m.full).then(|| {
            let (cover, domain) = self.cover.as_ref().expect("bisected morsels have a cover");
            Bisected {
                full: cover.full_ranges(),
                partial: cover.partial_ranges(),
                domain,
                shift: self.shift,
            }
        });
        (m.container, stats, bisected)
    }

    /// Drain every morsel in order on the calling thread, `scan` reading
    /// one: the serial driver behind both stores' region-scan adapters
    /// (the query engine drains the same morsels in parallel). Stops
    /// after the first morsel `scan` reports unfinished.
    pub(crate) fn scan_serial(
        &self,
        mut scan: impl FnMut(usize) -> (RegionScan, bool),
    ) -> RegionScan {
        let mut stats = RegionScan::default();
        match self.cover_cache_hit() {
            Some(true) => stats.cover_cache_hits += 1,
            Some(false) => stats.cover_cache_misses += 1,
            None => {}
        }
        for idx in 0..self.morsels.len() {
            let (morsel, completed) = scan(idx);
            stats.merge(&morsel);
            if !completed {
                break;
            }
        }
        stats
    }
}
