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
use crate::scan_plan::ScanPlan;
use crate::store::{ObjectStore, RegionScan};
use crate::StorageError;
use sdss_catalog::{PhotoRecord, TagObject};
use sdss_htm::Domain;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The scan charge of `rows` tag rows: one serialized record each.
fn charge(rows: usize) -> usize {
    rows * TagObject::SERIALIZED_LEN
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
            let mut chunk = ColumnChunk::with_capacity(container.len());
            for bytes in container.iter_records() {
                let rec = PhotoRecord::new(bytes).expect("valid store record");
                chunk.push(&TagObject::from_record(&rec), rec.htm20());
            }
            out.chunks.insert(container.id().raw(), Arc::new(chunk));
        }
        out
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

    /// The memoized cover cache behind [`TagStore::plan_batch_scan`].
    pub fn cover_cache(&self) -> &CoverCache {
        &self.cover_cache
    }

    /// HTM level of the clustering containers.
    pub fn container_level(&self) -> u8 {
        self.container_level
    }

    /// Resolve a columnar scan into a [`ScanPlan`]: the cover decided
    /// exactly once, and every touched container listed as one morsel
    /// with its classification (wholly inside the cover vs bisected) and
    /// byte weight. Parallel scans share the plan behind an `Arc` and
    /// workers drain morsels independently via [`TagStore::scan_morsel`].
    /// `domain = None` plans an unrestricted sweep (every container, no
    /// geometry).
    pub fn plan_batch_scan(
        &self,
        domain: Option<&Domain>,
        cover_level: Option<u8>,
    ) -> Result<ScanPlan, StorageError> {
        ScanPlan::build(
            &self.chunks,
            |c| (c.len(), charge(c.len())),
            (self.container_level, self.scan_cover_level),
            &self.cover_cache,
            domain,
            cover_level,
        )
    }

    /// Scan one morsel of a plan, streaming its [`ColumnBatch`]es with
    /// selection masks exactly as [`TagStore::scan_batches`] does. The
    /// callback may return `false` to stop. Returns this morsel's scan
    /// accounting (cover-cache counters stay zero — the lookup happened
    /// at plan time) and whether the morsel ran to completion.
    pub fn scan_morsel(
        &self,
        plan: &ScanPlan,
        idx: usize,
        mut f: impl FnMut(&ColumnBatch<'_>, &SelectionMask) -> bool,
    ) -> (RegionScan, bool) {
        let (container, mut stats, bisected) = plan.open(idx);
        for batch in self.chunks[&container].batches(BATCH_ROWS) {
            let sel = match &bisected {
                None => SelectionMask::all_set(batch.len()),
                Some(cover) => {
                    let mut sel = SelectionMask::none_set(batch.len());
                    for (i, &htm20) in batch.htm20.iter().enumerate() {
                        if cover.admits(htm20, || batch.unit_vec(i), &mut stats) {
                            sel.set(i);
                        }
                    }
                    sel
                }
            };
            stats.objects_yielded += sel.count();
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
        Ok(plan.scan_serial(|idx| self.scan_morsel(&plan, idx, &mut f)))
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
    use sdss_catalog::{PhotoObj, SkyModel};
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
    /// record scan: same rows, same exact tests, same containers, and
    /// the 64-byte charge per touched tag row.
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
