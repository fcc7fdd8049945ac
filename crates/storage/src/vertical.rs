//! The tag store: the paper's vertical partition of popular attributes.
//!
//! A parallel, container-clustered store of 64-byte [`TagObject`] records
//! projected from the full store. Queries that touch only the ten popular
//! attributes run here and read ~19× fewer bytes (experiment E5); the
//! pointer (`obj_id`) fetches the full object on demand.
//!
//! Each container additionally keeps a struct-of-arrays [`ColumnChunk`]
//! image of its rows, built at projection time. [`TagStore::scan_batches`]
//! streams those chunks as [`ColumnBatch`]es with a [`SelectionMask`]
//! pre-filled from the HTM cover (full trixels set, boundary trixels
//! exact-tested, everything else cleared) — the substrate the query
//! engine's compiled predicates run on at memory bandwidth.

use crate::column::{ColumnBatch, ColumnChunk, SelectionMask, BATCH_ROWS};
use crate::container::Container;
use crate::cover_cache::CoverCache;
use crate::store::{ObjectStore, RegionScan};
use crate::StorageError;
use sdss_catalog::{PhotoObj, TagObject};
use sdss_htm::{Cover, Domain, HtmId, HtmRangeSet};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Precomputed cover machinery for one region scan, shared by the row
/// and batch scan paths.
struct CoverWalk {
    cover: Arc<Cover>,
    /// Touched deep ranges coarsened to the container level.
    touched: HtmRangeSet,
    level: u8,
    /// Bit shift from level-20 ids down to the cover level.
    shift: u64,
    /// Did the cover come from the cache?
    cache_hit: bool,
}

/// One unit of parallel scan work: a single touched container of a
/// planned batch scan.
#[derive(Debug, Clone, Copy)]
pub struct TagMorsel {
    /// Raw container id.
    pub container: u64,
    /// Wholly inside the cover: every row selected without geometry.
    pub full: bool,
    /// Serialized payload bytes — the byte-balancing weight for
    /// [`crate::MorselQueue`] sharding.
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
    containers: BTreeMap<u64, Container>,
    /// Slot-parallel SoA image of each container (`Arc` so simulated
    /// cluster nodes can ship chunks without copying the columns).
    columns: BTreeMap<u64, Arc<ColumnChunk>>,
    /// Serialization scratch reused across inserts.
    scratch: Vec<u8>,
    /// Memoized region covers for repeated queries.
    cover_cache: CoverCache,
}

impl TagStore {
    /// Project the vertical partition out of a full store.
    pub fn from_store(store: &ObjectStore) -> TagStore {
        let mut out = TagStore {
            container_level: store.config().container_level,
            scan_cover_level: store.config().scan_cover_level,
            containers: BTreeMap::new(),
            columns: BTreeMap::new(),
            scratch: Vec::with_capacity(TagObject::SERIALIZED_LEN),
            cover_cache: CoverCache::new(),
        };
        for container in store.containers().filter(|c| !c.is_empty()) {
            // The tag container holds exactly the store container's rows:
            // size every lane once instead of regrowing it row by row.
            let chunk = ColumnChunk::with_capacity(container.len());
            out.columns.insert(container.id().raw(), Arc::new(chunk));
            for mut rec in container.iter_records() {
                let obj = PhotoObj::read_from(&mut rec).expect("valid store record");
                out.insert(&obj).expect("projection of a valid object");
            }
        }
        out
    }

    /// Insert the tag projection of one object (row bytes + columns).
    pub fn insert(&mut self, obj: &PhotoObj) -> Result<(), StorageError> {
        let tag = TagObject::from_photo(obj);
        let deep = HtmId::from_raw(obj.htm20)?;
        let cid = deep.ancestor_at(self.container_level);
        let container = self
            .containers
            .entry(cid.raw())
            .or_insert_with(|| Container::new(cid, TagObject::SERIALIZED_LEN));
        self.scratch.clear();
        tag.write_to(&mut self.scratch);
        container.push_record(&self.scratch, tag.mag(2), tag.class)?;
        let chunk = self.columns.entry(cid.raw()).or_default();
        Arc::make_mut(chunk).push(&tag, obj.htm20);
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.containers.values().map(Container::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total payload bytes — the "much less space" of the paper.
    pub fn bytes(&self) -> usize {
        self.containers.values().map(Container::bytes).sum()
    }

    pub fn num_containers(&self) -> usize {
        self.containers.len()
    }

    pub fn containers(&self) -> impl Iterator<Item = &Container> {
        self.containers.values()
    }

    /// The SoA chunks, keyed by raw container id.
    pub fn column_chunks(&self) -> impl Iterator<Item = (u64, &Arc<ColumnChunk>)> {
        self.columns.iter().map(|(&raw, c)| (raw, c))
    }

    pub fn column_chunk(&self, raw: u64) -> Option<&Arc<ColumnChunk>> {
        self.columns.get(&raw)
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

    /// Full scan of all tags.
    pub fn scan_all(&self, mut f: impl FnMut(&TagObject)) -> usize {
        self.scan_all_until(|tag| {
            f(tag);
            true
        })
        .0
    }

    /// Like [`TagStore::scan_all`] but the callback may return `false`
    /// to stop early (cancelled queries). Returns
    /// `(bytes_scanned, containers_read)` for the containers actually
    /// opened.
    pub fn scan_all_until(&self, mut f: impl FnMut(&TagObject) -> bool) -> (usize, usize) {
        let mut bytes = 0;
        let mut containers = 0;
        'outer: for c in self.containers.values() {
            bytes += c.bytes();
            containers += 1;
            for mut rec in c.iter_records() {
                let tag = TagObject::read_from(&mut rec).expect("valid tag record");
                if !f(&tag) {
                    break 'outer;
                }
            }
        }
        (bytes, containers)
    }

    fn check_level(&self, cover_level: Option<u8>) -> Result<u8, StorageError> {
        let level = cover_level.unwrap_or(self.scan_cover_level);
        if level < self.container_level || level > 20 {
            return Err(StorageError::InvalidConfig(format!(
                "cover level {level} outside [{}, 20]",
                self.container_level
            )));
        }
        Ok(level)
    }

    /// Resolve the cover machinery for one region scan (shared by the
    /// row and batch paths so the cover logic exists exactly once).
    fn cover_walk(
        &self,
        domain: &Domain,
        cover_level: Option<u8>,
    ) -> Result<CoverWalk, StorageError> {
        let level = self.check_level(cover_level)?;
        let (cover, cache_hit) = self.cover_cache.get_or_compute_traced(domain, level)?;
        let touched = cover.touched_ranges().coarsen(level, self.container_level);
        Ok(CoverWalk {
            cover,
            touched,
            level,
            shift: 2 * (20 - level) as u64,
            cache_hit,
        })
    }

    /// Record one cover lookup into scan stats.
    fn record_cover(walk: &CoverWalk, stats: &mut RegionScan) {
        if walk.cache_hit {
            stats.cover_cache_hits += 1;
        } else {
            stats.cover_cache_misses += 1;
        }
    }

    /// Walk every touched container of a cover, classifying each as
    /// wholly inside the full cover or bisected — the single
    /// classification rule shared by the row scan, the batch scan plan,
    /// and anything else that shards by container.
    fn touched_containers<'a>(
        &'a self,
        walk: &'a CoverWalk,
    ) -> impl Iterator<Item = (u64, &'a Container, bool)> + 'a {
        let full = walk.cover.full_ranges();
        walk.touched.ranges().iter().flat_map(move |&(lo, hi)| {
            self.containers.range(lo..hi).map(move |(&raw, container)| {
                let (clo, chi) = container.id().deep_range(walk.level);
                (raw, container, full.contains_range(clo, chi))
            })
        })
    }

    /// [`TagStore::touched_containers`] plus the common byte/container
    /// stats accounting. `f` returns `false` to stop early.
    fn for_each_touched_container(
        &self,
        walk: &CoverWalk,
        stats: &mut RegionScan,
        mut f: impl FnMut(&u64, &Container, bool, &mut RegionScan) -> bool,
    ) {
        for (raw, container, container_full) in self.touched_containers(walk) {
            stats.bytes_scanned += container.bytes();
            if container_full {
                stats.containers_full += 1;
            } else {
                stats.containers_partial += 1;
            }
            if !f(&raw, container, container_full, stats) {
                return;
            }
        }
    }

    /// Region scan over tags, same cover logic as the full store.
    pub fn scan_region(
        &self,
        domain: &Domain,
        cover_level: Option<u8>,
        mut f: impl FnMut(&TagObject),
    ) -> Result<RegionScan, StorageError> {
        self.scan_region_until(domain, cover_level, |t| {
            f(t);
            true
        })
    }

    /// Like [`TagStore::scan_region`] but the callback may return `false`
    /// to stop early.
    pub fn scan_region_until(
        &self,
        domain: &Domain,
        cover_level: Option<u8>,
        mut f: impl FnMut(&TagObject) -> bool,
    ) -> Result<RegionScan, StorageError> {
        let walk = self.cover_walk(domain, cover_level)?;
        let (full, partial) = (walk.cover.full_ranges(), walk.cover.partial_ranges());

        let mut stats = RegionScan::default();
        Self::record_cover(&walk, &mut stats);
        let mut err: Option<StorageError> = None;
        self.for_each_touched_container(
            &walk,
            &mut stats,
            |raw, container, container_full, stats| {
                let mut read = |mut rec: &[u8]| match TagObject::read_from(&mut rec) {
                    Ok(tag) => Some(tag),
                    Err(e) => {
                        err = Some(e.into());
                        None
                    }
                };
                if container_full {
                    for rec in container.iter_records() {
                        let Some(tag) = read(rec) else { return false };
                        stats.objects_yielded += 1;
                        if !f(&tag) {
                            return false;
                        }
                    }
                    return true;
                }
                let deep_ids = &self.columns[raw].htm20;
                for (slot, rec) in container.iter_records().enumerate() {
                    let deep_id = deep_ids[slot] >> walk.shift;
                    if full.contains(deep_id) {
                        let Some(tag) = read(rec) else { return false };
                        stats.objects_yielded += 1;
                        if !f(&tag) {
                            return false;
                        }
                    } else if partial.contains(deep_id) {
                        let Some(tag) = read(rec) else { return false };
                        stats.objects_exact_tested += 1;
                        if domain.contains(tag.unit_vec()) {
                            stats.objects_yielded += 1;
                            if !f(&tag) {
                                return false;
                            }
                        }
                    }
                }
                true
            },
        );
        match err {
            Some(e) => Err(e),
            None => Ok(stats),
        }
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
                .containers
                .iter()
                .map(|(&raw, c)| TagMorsel {
                    container: raw,
                    full: true,
                    bytes: c.bytes(),
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

        let walk = self.cover_walk(domain, cover_level)?;
        let morsels = self
            .touched_containers(&walk)
            .map(|(raw, container, full)| TagMorsel {
                container: raw,
                full,
                bytes: container.bytes(),
            })
            .collect();
        Ok(TagScanPlan {
            morsels,
            cover: Some(walk.cover),
            domain: Some(domain.clone()),
            shift: walk.shift,
            cache_hit: walk.cache_hit,
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
        let container = &self.containers[&m.container];
        let chunk = &self.columns[&m.container];
        stats.bytes_scanned += container.bytes();
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
        // Chunks are slot-parallel with the record containers.
        for (raw, chunk) in tags.column_chunks() {
            let container = tags
                .containers()
                .find(|c| c.id().raw() == raw)
                .expect("chunk has a container");
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

    #[test]
    fn batch_scan_selects_same_rows_as_row_scan() {
        let (_, tags, _) = stores(5);
        for radius in [0.4, 1.5, 3.0] {
            let domain = Region::circle(185.0, 15.0, radius).unwrap();
            let (rows, row_stats) = tags.query_region(&domain, None).unwrap();
            let mut batch_ids: Vec<u64> = Vec::new();
            let batch_stats = tags
                .scan_batches(Some(&domain), None, |batch, sel| {
                    batch_ids.extend(sel.iter_set().map(|i| batch.obj_id[i]));
                    true
                })
                .unwrap();
            let mut row_ids: Vec<u64> = rows.iter().map(|t| t.obj_id).collect();
            row_ids.sort_unstable();
            batch_ids.sort_unstable();
            assert_eq!(row_ids, batch_ids, "radius {radius}");
            assert_eq!(batch_stats.objects_yielded, row_stats.objects_yielded);
            assert_eq!(
                batch_stats.objects_exact_tested,
                row_stats.objects_exact_tested
            );
            assert_eq!(batch_stats.bytes_scanned, row_stats.bytes_scanned);
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
