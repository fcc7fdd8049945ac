//! Cover-to-morsels scan plans, shared by both stores.
//!
//! A region scan decides the HTM cover once and lists every touched
//! container as one morsel, classified as wholly inside the cover (every
//! row selected, no geometry) or bisected by it. Opening a bisected
//! morsel paints a table with one cell per cover-level trixel of its
//! container — outside the cover, full or partial — from the cover's
//! ranges clipped to the container, so each row's precomputed level-20 id
//! is classified by one table load. Only rows in partial (boundary)
//! trixels meet the exact region geometry, and rows outside the cover are
//! rejected before anything else of them is read. A cover more than six
//! levels below the containers would need more than 4^6 = 4096 cells;
//! its rows binary-search the full and partial ranges instead.
//! The tag store drains these morsels as column batches, the full store
//! as in-place record views; the query engine's morsel driver drains
//! either one in parallel.

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
    /// Rows the container holds.
    pub rows: usize,
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
    /// The cover's HTM level.
    level: u8,
    cache_hit: bool,
}

/// Most cells a bisected morsel's trixel table holds: 4^6, a cover six
/// levels below the containers.
const MAX_TABLE_CELLS: u64 = 1 << 12;

/// Where one cover-level trixel lies in the cover.
#[derive(Clone, Copy)]
enum Cell {
    Out,
    Full,
    Partial,
}

/// How a bisected morsel classifies its rows' cover-level ids.
enum Trixels<'p> {
    /// One cell per cover-level trixel of the container, the first one
    /// at id `base`.
    Table { base: u64, cells: Vec<Cell> },
    /// A cover too deep for a table: binary searches over the whole
    /// cover's ranges.
    Ranges {
        full: &'p HtmRangeSet,
        partial: &'p HtmRangeSet,
    },
}

/// The cover test of one bisected morsel's rows.
pub(crate) struct Bisected<'p> {
    trixels: Trixels<'p>,
    domain: &'p Domain,
    /// Bit shift from level-20 ids down to the cover level.
    shift: u64,
}

impl Bisected<'_> {
    /// Whether a row with level-20 id `htm20` lies in the domain. Only a
    /// row in a boundary trixel reads its position (`pos`) for the exact
    /// test, counted in `stats.objects_exact_tested`. `htm20` must lie in
    /// the morsel's container.
    #[inline]
    pub(crate) fn admits(
        &self,
        htm20: u64,
        pos: impl FnOnce() -> UnitVec3,
        stats: &mut RegionScan,
    ) -> bool {
        let deep_id = htm20 >> self.shift;
        let cell = match &self.trixels {
            Trixels::Table { base, cells } => cells[(deep_id - base) as usize],
            Trixels::Ranges { full, partial } => {
                if full.contains(deep_id) {
                    Cell::Full
                } else if partial.contains(deep_id) {
                    Cell::Partial
                } else {
                    Cell::Out
                }
            }
        };
        match cell {
            Cell::Full => true,
            Cell::Partial => {
                stats.objects_exact_tested += 1;
                self.domain.contains(pos())
            }
            Cell::Out => false,
        }
    }
}

/// The parts of `ranges` inside `[lo, hi)`, found by binary search.
fn clipped(ranges: &HtmRangeSet, (lo, hi): (u64, u64)) -> impl Iterator<Item = (u64, u64)> + '_ {
    let ranges = ranges.ranges();
    let first = ranges.partition_point(|&(_, rhi)| rhi <= lo);
    ranges[first..]
        .iter()
        .take_while(move |&&(rlo, _)| rlo < hi)
        .map(move |&(rlo, rhi)| (rlo.max(lo), rhi.min(hi)))
}

/// Paint `cell` over the part of `ranges` inside `[lo, hi)`, into
/// `cells` indexed from `lo`.
fn paint(cells: &mut [Cell], ranges: &HtmRangeSet, (lo, hi): (u64, u64), cell: Cell) {
    for (clo, chi) in clipped(ranges, (lo, hi)) {
        cells[(clo - lo) as usize..(chi - lo) as usize].fill(cell);
    }
}

impl ScanPlan {
    /// Plan a scan over a store's containers (keyed by raw id, `size`
    /// giving each one's rows and scan charge in bytes) at `cover_level`
    /// (the store's `scan_cover_level` when `None`). `domain = None`
    /// plans an unrestricted sweep: every container, no geometry.
    pub(crate) fn build<T>(
        containers: &BTreeMap<u64, T>,
        size: impl Fn(&T) -> (usize, usize),
        (container_level, scan_cover_level): (u8, u8),
        cover_cache: &CoverCache,
        domain: Option<&Domain>,
        cover_level: Option<u8>,
    ) -> Result<ScanPlan, StorageError> {
        let Some(domain) = domain else {
            let morsels = containers
                .iter()
                .map(|(&raw, c)| {
                    let (rows, bytes) = size(c);
                    ScanMorsel {
                        container: raw,
                        full: true,
                        rows,
                        bytes,
                    }
                })
                .collect();
            return Ok(ScanPlan {
                morsels,
                cover: None,
                level: 0,
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
                let (rows, bytes) = size(c);
                ScanMorsel {
                    container: raw,
                    full: full.contains_range(clo, chi),
                    rows,
                    bytes,
                }
            })
            .collect();
        Ok(ScanPlan {
            morsels,
            cover: Some((cover, domain.clone())),
            level,
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

    /// The cover's ids inside morsel `m`'s container: `[lo, hi)` at the
    /// cover level.
    fn deep_range(&self, m: &ScanMorsel) -> (u64, u64) {
        let id = HtmId::from_raw(m.container).expect("stored containers have valid HTM ids");
        id.deep_range(self.level)
    }

    /// The share of morsel `m`'s container inside the cover: 1 for a
    /// full morsel; for a bisected one, its cover-level trixels counted
    /// from the cover's ranges clipped to the container, a full trixel
    /// whole and a partial (boundary) one half.
    pub(crate) fn overlap(&self, m: &ScanMorsel) -> f64 {
        if m.full {
            return 1.0;
        }
        let (cover, _) = self.cover.as_ref().expect("bisected morsels have a cover");
        let span = self.deep_range(m);
        let cells = |ranges| clipped(ranges, span).map(|(lo, hi)| hi - lo).sum::<u64>() as f64;
        let inside = cells(cover.full_ranges()) + 0.5 * cells(cover.partial_ranges());
        inside / (span.1 - span.0) as f64
    }

    /// Morsel `idx`'s container, its opening accounting (the whole
    /// container charged, classified full or bisected) and, for a
    /// bisected container, the row test. That test gets a table of the
    /// container's cover-level trixels, painted from the cover's full and
    /// partial ranges clipped to the container; a cover with more than
    /// 4096 trixels per container gets the ranges themselves.
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
            let (full, partial) = (cover.full_ranges(), cover.partial_ranges());
            let (lo, hi) = self.deep_range(m);
            let trixels = if hi - lo <= MAX_TABLE_CELLS {
                let mut cells = vec![Cell::Out; (hi - lo) as usize];
                paint(&mut cells, full, (lo, hi), Cell::Full);
                paint(&mut cells, partial, (lo, hi), Cell::Partial);
                Trixels::Table { base: lo, cells }
            } else {
                Trixels::Ranges { full, partial }
            };
            Bisected {
                trixels,
                domain,
                shift: 2 * (20 - self.level) as u64,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{ObjectStore, StoreConfig};
    use crate::vertical::TagStore;
    use sdss_catalog::{GenRegion, SkyModel};
    use sdss_htm::Region;
    use sdss_skycoords::SkyPos;

    /// Three dense fields: across RA 0/360 on the equator and at both
    /// poles, on level-6 containers.
    fn stores() -> (ObjectStore, TagStore) {
        let mut objs = Vec::new();
        for (seed, dec) in [(1, 0.0), (2, 90.0), (3, -90.0)] {
            let model = SkyModel {
                region: GenRegion::Cap {
                    ra_deg: 0.0,
                    dec_deg: dec,
                    radius_deg: 6.0,
                },
                n_galaxies: 2_500,
                n_stars: 1_200,
                n_quasars: 100,
                ..SkyModel::small(seed)
            };
            objs.extend(model.generate().unwrap());
        }
        for (i, obj) in objs.iter_mut().enumerate() {
            obj.obj_id = i as u64;
        }
        let mut store = ObjectStore::new(StoreConfig::default()).unwrap();
        store.insert_batch(&objs).unwrap();
        let tags = TagStore::from_store(&store);
        (store, tags)
    }

    /// splitmix64 draws in `[0, 1)`.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as f64 / 2f64.powi(64)
        }

        /// A point within 5 deg of one of the three fields' centres.
        fn centre(&mut self) -> SkyPos {
            let dec = [0.0, 90.0, -90.0][(self.next() * 3.0) as usize];
            SkyPos::new(0.0, dec)
                .unwrap()
                .offset_by(self.next() * 360.0, self.next() * 5.0)
        }

        /// A radius from 0.002 deg (below a level-14 trixel) to 5 deg
        /// (several level-6 containers), log-uniform.
        fn radius(&mut self) -> f64 {
            0.002 * 2500f64.powf(self.next())
        }
    }

    /// Random circles and convex polygons over the three fields.
    fn domains() -> Vec<Domain> {
        let mut draws = Draws(18);
        let mut out = Vec::new();
        for _ in 0..12 {
            let c = draws.centre();
            out.push(Region::circle(c.ra_deg(), c.dec_deg(), draws.radius()).unwrap());
            // A convex polygon: 3-6 vertices on a circle, at increasing
            // position angles.
            let (c, r) = (draws.centre(), draws.radius());
            let k = 3 + (draws.next() * 4.0) as usize;
            let turn = draws.next() * 360.0;
            let mut vertices: Vec<SkyPos> = (0..k)
                .map(|j| {
                    let pa = turn + (j as f64 + 0.8 * draws.next()) * 360.0 / k as f64;
                    c.offset_by(pa, r * (0.6 + 0.4 * draws.next()))
                })
                .collect();
            let polygon = Region::polygon(&vertices).or_else(|_| {
                vertices.reverse();
                Region::polygon(&vertices)
            });
            out.push(polygon.unwrap());
        }
        out
    }

    /// Every row of every bisected container, at cover levels from the
    /// container level to 8 below it (tables up to 4096 cells, and the
    /// range searches below that): `admits` classifies each row as
    /// searching the whole cover does, selects exactly the rows inside
    /// the domain, and exact-tests exactly the rows in partial trixels;
    /// both stores' `scan_morsel` select and count the same.
    #[test]
    fn bisected_rows_classify_as_the_whole_cover_does() {
        let (store, tags) = stores();
        let chunks: BTreeMap<u64, _> = tags.column_chunks().collect();
        let (mut tables, mut searches, mut partial_rows) = (0, 0, 0);
        for domain in domains() {
            for level in 6..=14u8 {
                let plan = tags.plan_batch_scan(Some(&domain), Some(level)).unwrap();
                let full_plan = store.plan_scan(Some(&domain), Some(level)).unwrap();
                let classes = |p: &ScanPlan| -> Vec<(u64, bool)> {
                    p.morsels().iter().map(|m| (m.container, m.full)).collect()
                };
                assert_eq!(classes(&plan), classes(&full_plan));
                let (cover, _) = plan.cover.as_ref().unwrap();
                let shift = 2 * (20 - level) as u64;
                for idx in (0..plan.morsels().len()).filter(|&i| !plan.morsels()[i].full) {
                    let (raw, _, bisected) = plan.open(idx);
                    let bisected = bisected.unwrap();
                    match bisected.trixels {
                        Trixels::Table { .. } => tables += 1,
                        Trixels::Ranges { .. } => searches += 1,
                    }
                    let chunk = &chunks[&raw];
                    let (mut inside, mut tested) = (Vec::new(), 0);
                    for i in 0..chunk.len() {
                        let (htm20, pos) = (chunk.htm20[i], chunk.row(i).unit_vec());
                        let deep_id = htm20 >> shift;
                        let want = if cover.full_ranges().contains(deep_id) {
                            true
                        } else if cover.partial_ranges().contains(deep_id) {
                            tested += 1;
                            domain.contains(pos)
                        } else {
                            false
                        };
                        let mut stats = RegionScan::default();
                        let got = bisected.admits(htm20, || pos, &mut stats);
                        assert_eq!(got, want, "row {i} of {raw} at level {level}");
                        assert_eq!(got, domain.contains(pos), "row {i} of {raw}");
                        assert_eq!(
                            stats.objects_exact_tested,
                            usize::from(cover.partial_ranges().contains(deep_id))
                        );
                        if want {
                            inside.push(chunk.obj_id[i]);
                        }
                    }
                    partial_rows += tested;

                    let mut ids = Vec::new();
                    let (stats, _) = tags.scan_morsel(&plan, idx, |batch, sel| {
                        ids.extend(sel.iter_set().map(|i| batch.obj_id[i]));
                        true
                    });
                    assert_eq!((ids, stats.objects_exact_tested), (inside.clone(), tested));
                    let mut ids = Vec::new();
                    let (stats, _) = store.scan_morsel(&full_plan, idx, |rec| {
                        ids.push(rec.obj_id());
                        true
                    });
                    ids.sort_unstable();
                    inside.sort_unstable();
                    assert_eq!((ids, stats.objects_exact_tested), (inside, tested));
                }
            }
        }
        assert!(tables > 0 && searches > 0 && partial_rows > 0);
    }
}
