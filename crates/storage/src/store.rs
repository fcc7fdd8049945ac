//! The object store: containers keyed by HTM trixel, region scans driven
//! by covers.
//!
//! The index tree of the paper in action: a region query computes a deep
//! HTM cover, coarsens it to the container level ([`ScanPlan`]), and then
//!
//! * containers **fully inside** the cover stream every object with *no*
//!   geometric test ("wholly accepted"),
//! * containers **bisected** by the query test each object — first against
//!   the deep cover via the object's precomputed level-20 HTM id, read in
//!   place at its fixed record offset (a trixel-table load; see
//!   [`ScanPlan`]), and only in the boundary trixels against the exact
//!   region geometry,
//! * everything else is never read ("if a node is rejected, that node's
//!   children can be ignored").
//!
//! A record rejected by the cover is never decoded: scans hand out
//! [`PhotoRecord`] views that read only the fields their caller names.
//! A scan is still charged whole containers.

use crate::container::Container;
use crate::cover_cache::CoverCache;
use crate::scan_plan::ScanPlan;
use crate::StorageError;
use sdss_catalog::{PhotoObj, PhotoRecord};
use sdss_htm::{Domain, HtmId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Store configuration.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// HTM level of the clustering containers. Level 6 gives 32768 sky
    /// cells (~1.6 deg each) — a good default for the experiment scales
    /// in this repo.
    pub container_level: u8,
    /// Deep cover level used for region scans (must be ≥ container level;
    /// objects carry level-20 ids so it must also be ≤ 20).
    pub scan_cover_level: u8,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            container_level: 6,
            scan_cover_level: 10,
        }
    }
}

/// Read/write touch counters (atomic: shared with scan threads).
#[derive(Debug, Default)]
pub struct TouchCounters {
    /// Containers opened for writing (the loader's touch-once metric).
    pub write_touches: AtomicU64,
    /// Containers read by scans.
    pub read_touches: AtomicU64,
    /// Payload bytes read by scans.
    pub bytes_read: AtomicU64,
    /// Objects tested against exact region geometry.
    pub exact_tests: AtomicU64,
}

impl TouchCounters {
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.write_touches.load(Ordering::Relaxed),
            self.read_touches.load(Ordering::Relaxed),
            self.bytes_read.load(Ordering::Relaxed),
            self.exact_tests.load(Ordering::Relaxed),
        )
    }

    pub fn reset(&self) {
        self.write_touches.store(0, Ordering::Relaxed);
        self.read_touches.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.exact_tests.store(0, Ordering::Relaxed);
    }
}

/// Statistics of one region scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionScan {
    pub containers_full: usize,
    pub containers_partial: usize,
    pub objects_yielded: usize,
    /// Objects that needed the exact geometric test.
    pub objects_exact_tested: usize,
    pub bytes_scanned: usize,
    /// Cover-cache lookups this scan answered from cache / computed
    /// fresh (a single region scan does one lookup; aggregated scans
    /// accumulate).
    pub cover_cache_hits: u64,
    pub cover_cache_misses: u64,
}

impl RegionScan {
    /// Accumulate another scan's counters into this one (per-morsel
    /// stats merging into per-worker and per-query totals).
    pub fn merge(&mut self, other: &RegionScan) {
        self.containers_full += other.containers_full;
        self.containers_partial += other.containers_partial;
        self.objects_yielded += other.objects_yielded;
        self.objects_exact_tested += other.objects_exact_tested;
        self.bytes_scanned += other.bytes_scanned;
        self.cover_cache_hits += other.cover_cache_hits;
        self.cover_cache_misses += other.cover_cache_misses;
    }
}

/// The container-clustered photometric object store.
#[derive(Debug)]
pub struct ObjectStore {
    config: StoreConfig,
    containers: BTreeMap<u64, Container>,
    /// obj_id → (container raw id, slot).
    id_index: std::collections::HashMap<u64, (u64, u32)>,
    touches: TouchCounters,
    /// Serialization scratch reused across single-object inserts.
    scratch: Vec<u8>,
    /// Memoized region covers for repeated queries.
    cover_cache: CoverCache,
}

impl ObjectStore {
    pub fn new(config: StoreConfig) -> Result<ObjectStore, StorageError> {
        if config.container_level > 20 {
            return Err(StorageError::InvalidConfig(
                "container level deeper than the stored htm20 ids".into(),
            ));
        }
        if config.scan_cover_level < config.container_level || config.scan_cover_level > 20 {
            return Err(StorageError::InvalidConfig(format!(
                "scan cover level {} must be in [container level {}, 20]",
                config.scan_cover_level, config.container_level
            )));
        }
        Ok(ObjectStore {
            config,
            containers: BTreeMap::new(),
            id_index: std::collections::HashMap::new(),
            touches: TouchCounters::default(),
            scratch: Vec::with_capacity(PhotoObj::SERIALIZED_LEN),
            cover_cache: CoverCache::new(),
        })
    }

    #[inline]
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    pub fn touches(&self) -> &TouchCounters {
        &self.touches
    }

    /// Cover-cache (hits, misses) — observability for repeated queries.
    pub fn cover_cache_stats(&self) -> (u64, u64) {
        self.cover_cache.stats()
    }

    /// The memoized cover cache (shared with plan-time estimation).
    pub fn cover_cache(&self) -> &CoverCache {
        &self.cover_cache
    }

    /// Number of objects stored.
    pub fn len(&self) -> usize {
        self.containers.values().map(Container::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.containers.values().all(Container::is_empty)
    }

    /// Total payload bytes.
    pub fn bytes(&self) -> usize {
        self.containers.values().map(Container::bytes).sum()
    }

    pub fn num_containers(&self) -> usize {
        self.containers.len()
    }

    /// The container trixel id an object belongs to.
    pub fn container_id_of(&self, obj: &PhotoObj) -> Result<HtmId, StorageError> {
        let deep = HtmId::from_raw(obj.htm20)?;
        Ok(deep.ancestor_at(self.config.container_level))
    }

    /// Insert one object. Counts one write touch per container *opened*,
    /// so arrival-order loading shows its cost (experiment E9). The
    /// serialization scratch buffer lives on the store and is reused
    /// across calls.
    pub fn insert(&mut self, obj: &PhotoObj) -> Result<(), StorageError> {
        let cid = self.container_id_of(obj)?;
        self.touches.write_touches.fetch_add(1, Ordering::Relaxed);
        let container = self
            .containers
            .entry(cid.raw())
            .or_insert_with(|| Container::new(cid, PhotoObj::SERIALIZED_LEN));
        let slot = container.len() as u32;
        container.push_photo(obj, &mut self.scratch)?;
        self.id_index.insert(obj.obj_id, (cid.raw(), slot));
        Ok(())
    }

    /// Insert a batch grouped by container: each container is opened
    /// (touched) once per group — the fast path the paper's loader uses.
    pub fn insert_batch(&mut self, objs: &[PhotoObj]) -> Result<(), StorageError> {
        // Group object indexes by destination container.
        let mut groups: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, obj) in objs.iter().enumerate() {
            let cid = self.container_id_of(obj)?;
            groups.entry(cid.raw()).or_default().push(i);
        }
        let mut scratch = Vec::with_capacity(PhotoObj::SERIALIZED_LEN);
        for (raw, indexes) in groups {
            self.touches.write_touches.fetch_add(1, Ordering::Relaxed);
            let cid = HtmId::from_raw(raw)?;
            let container = self
                .containers
                .entry(raw)
                .or_insert_with(|| Container::new(cid, PhotoObj::SERIALIZED_LEN));
            for i in indexes {
                let slot = container.len() as u32;
                container.push_photo(&objs[i], &mut scratch)?;
                self.id_index.insert(objs[i].obj_id, (raw, slot));
            }
        }
        Ok(())
    }

    /// Point lookup by object id, read in place.
    pub fn record(&self, obj_id: u64) -> Result<PhotoRecord<'_>, StorageError> {
        let &(raw, slot) = self
            .id_index
            .get(&obj_id)
            .ok_or(StorageError::NotFound(obj_id))?;
        let bytes = self
            .containers
            .get(&raw)
            .and_then(|c| c.record(slot as usize))
            .ok_or(StorageError::NotFound(obj_id))?;
        Ok(PhotoRecord::new(bytes)?)
    }

    /// Point lookup by object id, decoded.
    pub fn get(&self, obj_id: u64) -> Result<PhotoObj, StorageError> {
        Ok(self.record(obj_id)?.decode())
    }

    /// Iterate all objects in container (spatial) order.
    pub fn iter_all(&self) -> impl Iterator<Item = PhotoObj> + '_ {
        self.containers.values().flat_map(|c| {
            c.iter_records().map(|mut rec| {
                PhotoObj::read_from(&mut rec).expect("store contains only valid records")
            })
        })
    }

    /// The containers themselves (for partitioning / dataflow engines).
    pub fn containers(&self) -> impl Iterator<Item = &Container> {
        self.containers.values()
    }

    pub fn container(&self, raw: u64) -> Option<&Container> {
        self.containers.get(&raw)
    }

    /// Resolve a scan into a [`ScanPlan`]: one morsel per touched
    /// container, charged its whole payload. `domain = None` plans a
    /// sweep of every container; `cover_level` overrides the configured
    /// scan cover depth (the E14 ablation).
    pub fn plan_scan(
        &self,
        domain: Option<&Domain>,
        cover_level: Option<u8>,
    ) -> Result<ScanPlan, StorageError> {
        ScanPlan::build(
            &self.containers,
            |c| (c.len(), c.bytes()),
            (self.config.container_level, self.config.scan_cover_level),
            &self.cover_cache,
            domain,
            cover_level,
        )
    }

    /// Scan one morsel of a plan, handing `f` a [`PhotoRecord`] view of
    /// every record inside the domain. A bisected container reads each
    /// record's `htm20` in place and skips the records outside the cover
    /// before reading anything else of them. `f` may return `false` to
    /// stop. Returns the morsel's scan accounting (no cover-cache
    /// counters — the lookup happened at plan time) and whether it ran
    /// to completion.
    ///
    /// Panics on a corrupt record: the store holds only records it
    /// wrote from valid objects.
    pub fn scan_morsel(
        &self,
        plan: &ScanPlan,
        idx: usize,
        mut f: impl FnMut(&PhotoRecord<'_>) -> bool,
    ) -> (RegionScan, bool) {
        let (raw, mut stats, bisected) = plan.open(idx);
        let mut completed = true;
        for bytes in self.containers[&raw].iter_records() {
            let rec = PhotoRecord::new(bytes).expect("the store holds only valid records");
            if let Some(cover) = &bisected {
                if !cover.admits(rec.htm20(), || rec.unit_vec(), &mut stats) {
                    continue;
                }
            }
            stats.objects_yielded += 1;
            if !f(&rec) {
                completed = false;
                break;
            }
        }
        self.touches.read_touches.fetch_add(1, Ordering::Relaxed);
        self.touches
            .bytes_read
            .fetch_add(stats.bytes_scanned as u64, Ordering::Relaxed);
        self.touches
            .exact_tests
            .fetch_add(stats.objects_exact_tested as u64, Ordering::Relaxed);
        (stats, completed)
    }

    /// Region scan: yields every object inside `domain` exactly once,
    /// decoded — a serial adapter over [`ObjectStore::plan_scan`] and
    /// [`ObjectStore::scan_morsel`].
    ///
    /// `cover_level` overrides the configured scan cover depth (used by
    /// the E14 ablation); pass `None` for the default.
    pub fn scan_region(
        &self,
        domain: &Domain,
        cover_level: Option<u8>,
        mut f: impl FnMut(&PhotoObj),
    ) -> Result<RegionScan, StorageError> {
        let plan = self.plan_scan(Some(domain), cover_level)?;
        Ok(plan.scan_serial(|idx| {
            self.scan_morsel(&plan, idx, |rec| {
                f(&rec.decode());
                true
            })
        }))
    }

    /// Convenience: collect a region scan into a vector.
    pub fn query_region(
        &self,
        domain: &Domain,
        cover_level: Option<u8>,
    ) -> Result<(Vec<PhotoObj>, RegionScan), StorageError> {
        let mut out = Vec::new();
        let stats = self.scan_region(domain, cover_level, |obj| out.push(obj.clone()))?;
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdss_catalog::{SkyModel, TagObject};
    use sdss_htm::Region;

    fn store_with_sky(seed: u64) -> (ObjectStore, Vec<PhotoObj>) {
        let objs = SkyModel::small(seed).generate().unwrap();
        let mut store = ObjectStore::new(StoreConfig::default()).unwrap();
        store.insert_batch(&objs).unwrap();
        (store, objs)
    }

    #[test]
    fn config_validation() {
        assert!(ObjectStore::new(StoreConfig {
            container_level: 21,
            scan_cover_level: 21
        })
        .is_err());
        assert!(ObjectStore::new(StoreConfig {
            container_level: 8,
            scan_cover_level: 6
        })
        .is_err());
        assert!(ObjectStore::new(StoreConfig::default()).is_ok());
    }

    #[test]
    fn insert_and_count() {
        let (store, objs) = store_with_sky(1);
        assert_eq!(store.len(), objs.len());
        assert!(!store.is_empty());
        assert_eq!(store.bytes(), objs.len() * PhotoObj::SERIALIZED_LEN);
        // The 5-degree test cap spans several containers at level 6.
        assert!(store.num_containers() > 3, "{}", store.num_containers());
    }

    #[test]
    fn get_by_id() {
        let (store, objs) = store_with_sky(2);
        for obj in objs.iter().step_by(97) {
            let got = store.get(obj.obj_id).unwrap();
            assert_eq!(&got, obj);
        }
        assert!(matches!(
            store.get(0xdead_beef_dead_beef),
            Err(StorageError::NotFound(_))
        ));
    }

    /// The INTO fetch's tag, read in place, is bitwise the tag projected
    /// from the decoded object, for every object.
    #[test]
    fn in_place_tag_is_the_decoded_projection() {
        let (store, objs) = store_with_sky(11);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for obj in &objs {
            let rec = store.record(obj.obj_id).unwrap();
            let decoded = store.get(obj.obj_id).unwrap();
            got.clear();
            want.clear();
            TagObject::from_record(&rec).write_to(&mut got);
            TagObject::from_photo(&decoded).write_to(&mut want);
            assert_eq!(got, want, "object {:#x}", obj.obj_id);
            assert_eq!(rec.htm20(), decoded.htm20);
        }
    }

    #[test]
    fn iter_all_is_spatially_clustered() {
        let (store, objs) = store_with_sky(3);
        let seen: Vec<PhotoObj> = store.iter_all().collect();
        assert_eq!(seen.len(), objs.len());
        // Objects come out grouped by container: consecutive objects share
        // container ids far more often than random order would.
        let level = store.config().container_level;
        let mut same = 0usize;
        for w in seen.windows(2) {
            let a = HtmId::from_raw(w[0].htm20).unwrap().ancestor_at(level);
            let b = HtmId::from_raw(w[1].htm20).unwrap().ancestor_at(level);
            if a == b {
                same += 1;
            }
        }
        assert!(
            same * 10 > seen.len() * 8,
            "only {same}/{} adjacent pairs share a container",
            seen.len()
        );
    }

    #[test]
    fn region_scan_matches_brute_force() {
        let (store, objs) = store_with_sky(4);
        for radius in [0.3, 1.0, 2.5] {
            let domain = Region::circle(185.0, 15.0, radius).unwrap();
            let (got, stats) = store.query_region(&domain, None).unwrap();
            let want: Vec<&PhotoObj> = objs
                .iter()
                .filter(|o| domain.contains(o.unit_vec()))
                .collect();
            assert_eq!(got.len(), want.len(), "radius {radius}");
            assert_eq!(stats.objects_yielded, want.len());
            // No duplicates.
            let mut ids: Vec<u64> = got.iter().map(|o| o.obj_id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), got.len());
        }
    }

    #[test]
    fn region_scan_reads_less_than_full_scan() {
        let (store, _) = store_with_sky(5);
        let total = store.bytes();
        let domain = Region::circle(185.0, 15.0, 0.5).unwrap();
        let (_, stats) = store.query_region(&domain, None).unwrap();
        assert!(
            stats.bytes_scanned < total / 4,
            "index scan read {} of {} bytes",
            stats.bytes_scanned,
            total
        );
    }

    #[test]
    fn deep_cover_reduces_exact_tests() {
        let (store, _) = store_with_sky(6);
        let domain = Region::circle(185.0, 15.0, 2.0).unwrap();
        let (rows_shallow, shallow) = store.query_region(&domain, Some(6)).unwrap();
        let (rows_deep, deep) = store.query_region(&domain, Some(12)).unwrap();
        assert_eq!(rows_shallow.len(), rows_deep.len(), "results must agree");
        assert!(
            deep.objects_exact_tested < shallow.objects_exact_tested,
            "deep {} !< shallow {}",
            deep.objects_exact_tested,
            shallow.objects_exact_tested
        );
    }

    #[test]
    fn empty_region_scans_nothing() {
        let (store, _) = store_with_sky(7);
        // A cap on the far side of the sky.
        let domain = Region::circle(5.0, -15.0, 1.0).unwrap();
        let (rows, stats) = store.query_region(&domain, None).unwrap();
        assert!(rows.is_empty());
        assert_eq!(stats.bytes_scanned, 0, "no container should be read");
    }

    #[test]
    fn write_touch_accounting() {
        let objs = SkyModel::small(8).generate().unwrap();
        // Batch insert: one touch per distinct container.
        let mut batch = ObjectStore::new(StoreConfig::default()).unwrap();
        batch.insert_batch(&objs).unwrap();
        let batch_touches = batch.touches().snapshot().0;
        assert_eq!(batch_touches, batch.num_containers() as u64);

        // One-by-one insert in generation order: many more touches.
        let mut single = ObjectStore::new(StoreConfig::default()).unwrap();
        for o in &objs {
            single.insert(o).unwrap();
        }
        let single_touches = single.touches().snapshot().0;
        assert_eq!(single_touches, objs.len() as u64);
        assert!(single_touches > batch_touches * 3);
    }

    #[test]
    fn sweep_plan_visits_everything() {
        let (store, objs) = store_with_sky(9);
        let plan = store.plan_scan(None, None).unwrap();
        assert_eq!(plan.morsels().len(), store.num_containers());
        let mut ids = Vec::new();
        let stats = plan.scan_serial(|idx| {
            store.scan_morsel(&plan, idx, |rec| {
                ids.push(rec.obj_id());
                true
            })
        });
        ids.sort_unstable();
        let mut want: Vec<u64> = objs.iter().map(|o| o.obj_id).collect();
        want.sort_unstable();
        assert_eq!(ids, want);
        assert_eq!(stats.bytes_scanned, store.bytes());
        assert_eq!(stats.containers_full, store.num_containers());
        assert_eq!(stats.objects_exact_tested, 0);
    }

    /// A record with a bad class byte fails a scan that reads its
    /// container, the same as a whole decode fails, and the lookup of it.
    #[test]
    #[should_panic(expected = "the store holds only valid records")]
    fn corrupt_record_fails_the_scan() {
        let (mut store, objs) = store_with_sky(10);
        let victim = &objs[0];
        let raw = store.container_id_of(victim).unwrap().raw();
        let old = store.containers.remove(&raw).unwrap();
        let mut corrupt = Container::new(old.id(), old.record_len());
        for bytes in old.iter_records() {
            let mut rec = bytes.to_vec();
            if PhotoRecord::new(bytes).unwrap().obj_id() == victim.obj_id {
                rec[sdss_catalog::photoobj::offset::CLASS] = 9;
            }
            corrupt
                .push_record(&rec, 20.0, sdss_catalog::ObjClass::Star)
                .unwrap();
        }
        store.containers.insert(raw, corrupt);
        assert!(matches!(
            store.get(victim.obj_id),
            Err(StorageError::Corrupt(_))
        ));
        let domain = Region::circle(victim.ra_deg, victim.dec_deg, 0.01).unwrap();
        let _ = store.query_region(&domain, None);
    }
}
