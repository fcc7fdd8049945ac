//! The tag store: the paper's vertical partition of popular attributes.
//!
//! The ten popular attributes of every object, clustered in the same
//! HTM containers as the full store. Queries that touch only these
//! attributes run here and read ~19× fewer bytes (experiment E5); the
//! pointer (`obj_id`) fetches the full object on demand.
//!
//! The store keeps one image of its rows: a struct-of-arrays
//! [`ColumnChunk`] per container. [`TagStore::scan_batches`] streams those
//! chunks as [`ColumnBatch`]es with a [`SelectionMask`] pre-filled from the
//! HTM cover (full trixels set, boundary trixels exact-tested, everything
//! else cleared) — the substrate the query engine's compiled predicates
//! run on at memory bandwidth, and the one its row interpreter reads
//! through [`ColumnBatch::row`]. Scans are charged the 64-byte serialized
//! tag record per row ([`TagStore::bytes`]), the unit the paper's byte
//! comparisons and the cost model speak in.

use crate::column::{ColumnBatch, ColumnChunk, SelectionMask, BATCH_ROWS};
use crate::cover_cache::CoverCache;
use crate::estimate::ContainerSize;
use crate::store::{ObjectStore, RegionScan};
use crate::StorageError;
use sdss_catalog::{PhotoObj, TagObject};
use sdss_htm::{Cover, Domain, HtmId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The scan charge of `rows` tag rows: one serialized record each.
fn charge(rows: usize) -> usize {
    rows * TagObject::SERIALIZED_LEN
}

/// The id of a stored container (keys are valid by construction).
fn container_id(raw: u64) -> HtmId {
    HtmId::from_raw(raw).expect("tag containers have valid HTM ids")
}

/// One unit of parallel scan work: a single touched container of a
/// planned batch scan.
#[derive(Debug, Clone, Copy)]
pub struct TagMorsel {
    /// Raw container id.
    pub container: u64,
    /// Wholly inside the cover: every row selected without geometry.
    pub full: bool,
    /// Scan charge in bytes (64 per row, see [`TagStore::bytes`]) — the
    /// byte-balancing weight for [`crate::MorselQueue`] sharding.
    pub bytes: usize,
}

/// A resolved columnar scan: the HTM cover decision made once, the
/// touched containers listed as morsels. Shareable across scan workers
/// (`Send + Sync`, typically behind an `Arc`).
#[derive(Debug)]
pub struct TagScanPlan {
    morsels: Vec<TagMorsel>,
    /// `None` for unrestricted sweeps (no geometry at all).
    cover: Option<Arc<Cover>>,
    domain: Option<Domain>,
    /// Bit shift from level-20 ids down to the cover level.
    shift: u64,
    cache_hit: bool,
}

impl TagScanPlan {
    /// The touched containers, in container-id (spatial) order.
    pub fn morsels(&self) -> &[TagMorsel] {
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
}

/// Vertical partition holding tag objects, clustered like the full store.
#[derive(Debug)]
pub struct TagStore {
    container_level: u8,
    scan_cover_level: u8,
    /// Each container's rows, keyed by raw container id (`Arc` so
    /// simulated cluster nodes can ship chunks without copying the
    /// columns).
    chunks: BTreeMap<u64, Arc<ColumnChunk>>,
    /// Memoized region covers for repeated queries.
    cover_cache: CoverCache,
}

impl TagStore {
    /// Project the vertical partition out of a full store.
    pub fn from_store(store: &ObjectStore) -> TagStore {
        let mut out = TagStore {
            container_level: store.config().container_level,
            scan_cover_level: store.config().scan_cover_level,
            chunks: BTreeMap::new(),
            cover_cache: CoverCache::new(),
        };
        for container in store.containers().filter(|c| !c.is_empty()) {
            // The tag container holds exactly the store container's rows:
            // size every lane once instead of regrowing it row by row.
            let chunk = ColumnChunk::with_capacity(container.len());
            out.chunks.insert(container.id().raw(), Arc::new(chunk));
            for mut rec in container.iter_records() {
                let obj = PhotoObj::read_from(&mut rec).expect("valid store record");
                out.insert(&obj).expect("projection of a valid object");
            }
        }
        out
    }

    /// Insert the tag projection of one object into its container.
    pub fn insert(&mut self, obj: &PhotoObj) -> Result<(), StorageError> {
        let cid = HtmId::from_raw(obj.htm20)?.ancestor_at(self.container_level);
        let chunk = self.chunks.entry(cid.raw()).or_default();
        Arc::make_mut(chunk).push(&TagObject::from_photo(obj), obj.htm20);
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.chunks.values().map(|c| c.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The scan charge of the whole store: 64 bytes (one serialized
    /// [`TagObject`]) per row — the "much less space" of the paper, and
    /// the unit every tag scan's `bytes_scanned`, morsel weight and cost
    /// estimate is counted in. It is not resident memory: the column
    /// lanes hold [`ColumnChunk::bytes`] (81 bytes per row).
    pub fn bytes(&self) -> usize {
        charge(self.len())
    }

    pub fn num_containers(&self) -> usize {
        self.chunks.len()
    }

    /// Each container's id, rows and scan charge, in id order — all the
    /// cost model reads of a store.
    pub fn container_sizes(&self) -> impl Iterator<Item = ContainerSize> + '_ {
        self.chunks.iter().map(|(&raw, c)| ContainerSize {
            id: container_id(raw),
            rows: c.len() as u64,
            bytes: charge(c.len()) as u64,
        })
    }

    /// The SoA chunks, keyed by raw container id.
    pub fn column_chunks(&self) -> impl Iterator<Item = (u64, &Arc<ColumnChunk>)> {
        self.chunks.iter().map(|(&raw, c)| (raw, c))
    }

    pub fn column_chunk(&self, raw: u64) -> Option<&Arc<ColumnChunk>> {
        self.chunks.get(&raw)
    }

    /// Cover-cache (hits, misses) — observability for repeated queries.
    pub fn cover_cache_stats(&self) -> (u64, u64) {
        self.cover_cache.stats()
    }

    /// The memoized cover cache (shared with plan-time estimation).
    pub fn cover_cache(&self) -> &CoverCache {
        &self.cover_cache
    }

    /// HTM level of the clustering containers.
    pub fn container_level(&self) -> u8 {
        self.container_level
    }

    /// Resolve a columnar scan into a [`TagScanPlan`]: the cover decided
    /// exactly once, and every touched container listed as one morsel
    /// with its classification (wholly inside the cover vs bisected) and
    /// byte weight. The plan is `Send + Sync`; parallel scans share it
    /// behind an `Arc` and workers drain morsels independently via
    /// [`TagStore::scan_morsel`]. `domain = None` plans an unrestricted
    /// sweep (every container, no geometry).
    pub fn plan_batch_scan(
        &self,
        domain: Option<&Domain>,
        cover_level: Option<u8>,
    ) -> Result<TagScanPlan, StorageError> {
        let Some(domain) = domain else {
            let morsels = self
                .chunks
                .iter()
                .map(|(&raw, c)| TagMorsel {
                    container: raw,
                    full: true,
                    bytes: charge(c.len()),
                })
                .collect();
            return Ok(TagScanPlan {
                morsels,
                cover: None,
                domain: None,
                shift: 0,
                cache_hit: false,
            });
        };

        let level = cover_level.unwrap_or(self.scan_cover_level);
        if level < self.container_level || level > 20 {
            return Err(StorageError::InvalidConfig(format!(
                "cover level {level} outside [{}, 20]",
                self.container_level
            )));
        }
        let (cover, cache_hit) = self.cover_cache.get_or_compute_traced(domain, level)?;
        // Touched deep ranges coarsened to the container level; a
        // container is a full morsel when the full cover holds it whole.
        let touched = cover.touched_ranges().coarsen(level, self.container_level);
        let full = cover.full_ranges();
        let morsels = touched
            .ranges()
            .iter()
            .flat_map(|&(lo, hi)| self.chunks.range(lo..hi))
            .map(|(&raw, c)| {
                let (clo, chi) = container_id(raw).deep_range(level);
                TagMorsel {
                    container: raw,
                    full: full.contains_range(clo, chi),
                    bytes: charge(c.len()),
                }
            })
            .collect();
        Ok(TagScanPlan {
            morsels,
            cover: Some(cover),
            domain: Some(domain.clone()),
            shift: 2 * (20 - level) as u64,
            cache_hit,
        })
    }

    /// Scan one morsel of a plan, streaming its [`ColumnBatch`]es with
    /// selection masks exactly as [`TagStore::scan_batches`] does. The
    /// callback may return `false` to stop. Returns this morsel's scan
    /// accounting (cover-cache counters stay zero — the lookup happened
    /// at plan time) and whether the morsel ran to completion.
    pub fn scan_morsel(
        &self,
        plan: &TagScanPlan,
        idx: usize,
        mut f: impl FnMut(&ColumnBatch<'_>, &SelectionMask) -> bool,
    ) -> (RegionScan, bool) {
        let m = &plan.morsels[idx];
        let mut stats = RegionScan::default();
        let chunk = &self.chunks[&m.container];
        stats.bytes_scanned += m.bytes;
        if m.full {
            stats.containers_full += 1;
        } else {
            stats.containers_partial += 1;
        }
        for batch in chunk.batches(BATCH_ROWS) {
            let sel = if m.full {
                stats.objects_yielded += batch.len();
                SelectionMask::all_set(batch.len())
            } else {
                let cover = plan.cover.as_ref().expect("bisected morsels have a cover");
                let domain = plan
                    .domain
                    .as_ref()
                    .expect("bisected morsels have a domain");
                let (full, partial) = (cover.full_ranges(), cover.partial_ranges());
                let mut sel = SelectionMask::none_set(batch.len());
                for (i, &deep) in batch.htm20.iter().enumerate() {
                    let deep_id = deep >> plan.shift;
                    if full.contains(deep_id) {
                        sel.set(i);
                    } else if partial.contains(deep_id) {
                        stats.objects_exact_tested += 1;
                        if domain.contains(batch.unit_vec(i)) {
                            sel.set(i);
                        }
                    }
                }
                stats.objects_yielded += sel.count();
                sel
            };
            if !f(&batch, &sel) {
                return (stats, false);
            }
        }
        (stats, true)
    }

    /// Columnar region scan: streams each container's [`ColumnBatch`]es
    /// with a [`SelectionMask`] already encoding the spatial decision —
    /// rows in fully-covered trixels are set without any geometry, rows
    /// in boundary trixels are exact-tested, everything else is cleared.
    /// `domain = None` scans the whole store with all bits set.
    ///
    /// This is the serial driver over [`TagStore::plan_batch_scan`] +
    /// [`TagStore::scan_morsel`] — the query engine's parallel scan
    /// drains the same morsels with its morsel driver instead.
    ///
    /// The callback may return `false` to stop early. `objects_yielded`
    /// counts selected rows.
    pub fn scan_batches(
        &self,
        domain: Option<&Domain>,
        cover_level: Option<u8>,
        mut f: impl FnMut(&ColumnBatch<'_>, &SelectionMask) -> bool,
    ) -> Result<RegionScan, StorageError> {
        let plan = self.plan_batch_scan(domain, cover_level)?;
        let mut stats = RegionScan::default();
        if let Some(hit) = plan.cover_cache_hit() {
            if hit {
                stats.cover_cache_hits += 1;
            } else {
                stats.cover_cache_misses += 1;
            }
        }
        for idx in 0..plan.morsels().len() {
            let (morsel_stats, completed) = self.scan_morsel(&plan, idx, &mut f);
            stats.merge(&morsel_stats);
            if !completed {
                break;
            }
        }
        Ok(stats)
    }

    /// Region scan over tags, one owned record per selected row: an
    /// adapter over [`TagStore::scan_batches`] for callers that want rows.
    pub fn scan_region(
        &self,
        domain: &Domain,
        cover_level: Option<u8>,
        mut f: impl FnMut(&TagObject),
    ) -> Result<RegionScan, StorageError> {
        self.scan_batches(Some(domain), cover_level, |batch, sel| {
            sel.iter_set().for_each(|i| f(&batch.row(i)));
            true
        })
    }

    /// Collect a region scan.
    pub fn query_region(
        &self,
        domain: &Domain,
        cover_level: Option<u8>,
    ) -> Result<(Vec<TagObject>, RegionScan), StorageError> {
        let mut out = Vec::new();
        let stats = self.scan_region(domain, cover_level, |t| out.push(*t))?;
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use sdss_catalog::SkyModel;
    use sdss_htm::Region;

    fn stores(seed: u64) -> (ObjectStore, TagStore, Vec<PhotoObj>) {
        let objs = SkyModel::small(seed).generate().unwrap();
        let mut store = ObjectStore::new(StoreConfig::default()).unwrap();
        store.insert_batch(&objs).unwrap();
        let tags = TagStore::from_store(&store);
        (store, tags, objs)
    }

    #[test]
    fn projection_is_complete() {
        let (store, tags, objs) = stores(1);
        assert_eq!(tags.len(), objs.len());
        assert_eq!(tags.num_containers(), store.num_containers());
        for (raw, chunk) in tags.column_chunks() {
            let container = store.container(raw).expect("chunk has a store container");
            assert_eq!(chunk.len(), container.len());
            // Built at its final size: no lane carries regrowth slack.
            assert_eq!(chunk.ra.capacity(), chunk.len());
            assert_eq!(chunk.htm20.capacity(), chunk.len());
        }
    }

    #[test]
    fn tag_store_is_much_smaller() {
        let (store, tags, _) = stores(2);
        let ratio = store.bytes() as f64 / tags.bytes() as f64;
        assert!(ratio > 10.0, "byte ratio {ratio:.1} must exceed 10x");
    }

    #[test]
    fn region_scan_agrees_with_full_store() {
        let (store, tags, _) = stores(3);
        for radius in [0.4, 1.5] {
            let domain = Region::circle(185.0, 15.0, radius).unwrap();
            let (full_rows, _) = store.query_region(&domain, None).unwrap();
            let (tag_rows, tag_stats) = tags.query_region(&domain, None).unwrap();
            assert_eq!(full_rows.len(), tag_rows.len(), "radius {radius}");
            let mut a: Vec<u64> = full_rows.iter().map(|o| o.obj_id).collect();
            let mut b: Vec<u64> = tag_rows.iter().map(|t| t.obj_id).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
            // And reads far fewer bytes.
            let (_, full_stats) = store.query_region(&domain, None).unwrap();
            assert!(tag_stats.bytes_scanned * 10 < full_stats.bytes_scanned);
        }
    }

    #[test]
    fn tags_point_back_to_full_objects() {
        let (store, tags, _) = stores(4);
        let domain = Region::circle(185.0, 15.0, 0.5).unwrap();
        let (tag_rows, _) = tags.query_region(&domain, None).unwrap();
        for tag in tag_rows.iter().take(25) {
            let full = store.get(tag.obj_id).unwrap();
            assert_eq!(full.obj_id, tag.obj_id);
            assert!((full.mag(2) - tag.mag(2)).abs() < 1e-6);
            assert_eq!(full.class, tag.class);
        }
    }

    /// The tag batch scan's cover selection against the full store's
    /// independent row scan: same rows, same exact tests, same
    /// containers, and the 64-byte charge per touched tag row.
    #[test]
    fn batch_scan_selects_same_rows_as_row_scan() {
        let (store, tags, _) = stores(5);
        for radius in [0.4, 1.5, 3.0] {
            let domain = Region::circle(185.0, 15.0, radius).unwrap();
            let (rows, row_stats) = store.query_region(&domain, None).unwrap();
            let mut batch_ids: Vec<u64> = Vec::new();
            let mut touched_rows = 0usize;
            let batch_stats = tags
                .scan_batches(Some(&domain), None, |batch, sel| {
                    batch_ids.extend(sel.iter_set().map(|i| batch.obj_id[i]));
                    touched_rows += batch.len();
                    true
                })
                .unwrap();
            let mut row_ids: Vec<u64> = rows.iter().map(|o| o.obj_id).collect();
            row_ids.sort_unstable();
            batch_ids.sort_unstable();
            assert_eq!(row_ids, batch_ids, "radius {radius}");
            assert_eq!(batch_stats.objects_yielded, row_stats.objects_yielded);
            assert_eq!(
                batch_stats.objects_exact_tested,
                row_stats.objects_exact_tested
            );
            assert_eq!(batch_stats.containers_full, row_stats.containers_full);
            assert_eq!(batch_stats.containers_partial, row_stats.containers_partial);
            assert_eq!(
                batch_stats.bytes_scanned,
                touched_rows * TagObject::SERIALIZED_LEN
            );
        }
    }

    #[test]
    fn batch_scan_unrestricted_covers_everything() {
        let (_, tags, objs) = stores(6);
        let mut n = 0usize;
        let stats = tags
            .scan_batches(None, None, |batch, sel| {
                assert_eq!(sel.count(), batch.len());
                n += batch.len();
                true
            })
            .unwrap();
        assert_eq!(n, objs.len());
        assert_eq!(stats.objects_yielded, objs.len());
    }

    #[test]
    fn batch_scan_early_stop() {
        let (_, tags, _) = stores(7);
        let mut batches = 0usize;
        tags.scan_batches(None, None, |_, _| {
            batches += 1;
            false
        })
        .unwrap();
        assert_eq!(batches, 1);
    }

    #[test]
    fn repeated_region_scans_hit_the_cover_cache() {
        let (_, tags, _) = stores(8);
        let domain = Region::circle(185.0, 15.0, 1.0).unwrap();
        let (a, _) = tags.query_region(&domain, None).unwrap();
        let (hits0, misses0) = tags.cover_cache_stats();
        assert_eq!((hits0, misses0), (0, 1));
        let (b, _) = tags.query_region(&domain, None).unwrap();
        assert_eq!(a.len(), b.len());
        let (hits1, misses1) = tags.cover_cache_stats();
        assert_eq!((hits1, misses1), (1, 1));
    }
}
