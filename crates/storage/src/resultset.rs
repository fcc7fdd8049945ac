//! Server-side result sets: the session workspace's storage layer.
//!
//! The paper's science scenarios are multi-step — "the query agent
//! selects a candidate set, then the astronomer refines, cross-matches
//! and aggregates *that set*" — so results must land somewhere queries
//! can compose over, not just stream past once. A [`ResultSet`] is that
//! landing place: a materialized bag of tag objects stored in the same
//! struct-of-arrays [`ColumnChunk`] layout as the tag partition's
//! containers, split into fixed-size chunks so a scan over the set has
//! morsels to parallelize across (one chunk = one morsel, byte-weighted
//! exactly like a tag container).
//!
//! Because the chunks are `ColumnChunk`s, the query engine's compiled
//! predicates and projections run over a stored set *unchanged*: a
//! [`ResultSet::scan_chunk`] yields the same `(ColumnBatch,
//! SelectionMask)` pairs as `TagStore::scan_morsel`, so `FROM <set>`
//! queries take the identical memory-bandwidth path as tag scans —
//! stored sets are not a row-at-a-time side door.
//!
//! Sets carry no HTM container clustering (their rows are whatever a
//! query yielded, in arrival order); spatial predicates over a set
//! therefore evaluate row-wise through the compiled `SpatialMask` /
//! interpreter geometry instead of a cover, and every chunk scan starts
//! from an all-set selection mask.

use crate::column::{ColumnBatch, ColumnChunk, SelectionMask, BATCH_ROWS};
use crate::store::RegionScan;
use sdss_catalog::TagObject;
use std::sync::Arc;

/// Default rows per chunk (= per scan morsel) of a materialized set.
/// Large enough to amortize per-morsel overhead, small enough that a
/// few-thousand-row workspace still yields several morsels for the
/// scan workers.
pub const RESULT_SET_CHUNK_ROWS: usize = 4096;

/// A named server-side result set: tag objects materialized columnar.
///
/// Immutable once built (sessions replace a name by swapping the
/// `Arc`'d set, so in-flight scans keep reading their snapshot).
#[derive(Debug, Clone)]
pub struct ResultSet {
    chunks: Vec<Arc<ColumnChunk>>,
    rows: usize,
    bytes: usize,
}

impl ResultSet {
    /// Rows stored in the set.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Heap bytes held by the set's columns (the session quota unit).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of chunks — the morsel count of a scan over this set.
    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The SoA chunks, in materialization order.
    pub fn chunks(&self) -> &[Arc<ColumnChunk>] {
        &self.chunks
    }

    /// Byte weight per chunk (the morsel-queue sharding input).
    pub fn chunk_bytes(&self) -> Vec<usize> {
        self.chunks.iter().map(|c| c.bytes()).collect()
    }

    /// The set of `chunks`, in order.
    pub fn from_chunks(chunks: Vec<ColumnChunk>) -> ResultSet {
        let rows = chunks.iter().map(ColumnChunk::len).sum();
        ResultSet {
            chunks: chunks.into_iter().map(Arc::new).collect(),
            rows,
            bytes: rows * ColumnChunk::ROW_BYTES,
        }
    }

    /// Scan one chunk of the set, streaming its [`ColumnBatch`]es with
    /// all-set selection masks — the stored-set analog of
    /// `TagStore::scan_morsel` (sets have no cover; every row is
    /// selected until predicates run). The callback may return `false`
    /// to stop early. Returns the chunk's scan accounting and whether it
    /// ran to completion.
    pub fn scan_chunk(
        &self,
        idx: usize,
        mut f: impl FnMut(&ColumnBatch<'_>, &SelectionMask) -> bool,
    ) -> (RegionScan, bool) {
        let chunk = &self.chunks[idx];
        let mut stats = RegionScan {
            bytes_scanned: chunk.bytes(),
            containers_full: 1,
            ..RegionScan::default()
        };
        for batch in chunk.batches(BATCH_ROWS) {
            stats.objects_yielded += batch.len();
            let sel = SelectionMask::all_set(batch.len());
            if !f(&batch, &sel) {
                return (stats, false);
            }
        }
        (stats, true)
    }
}

/// Cut the rows of `runs` (rows `rows` of chunk `src`, run after run)
/// every `chunk_rows` rows, as [`ResultSetBuilder`] cuts a set: per set
/// chunk, the pieces of the runs it holds, for [`ColumnChunk::gather`].
pub fn cut_runs<'a>(
    runs: impl IntoIterator<Item = (&'a ColumnChunk, &'a [u32])>,
    chunk_rows: usize,
) -> Vec<Vec<(&'a ColumnChunk, &'a [u32])>> {
    let chunk_rows = chunk_rows.max(1);
    let mut chunks: Vec<Vec<_>> = Vec::new();
    let mut room = 0;
    for (src, mut rows) in runs {
        while !rows.is_empty() {
            if room == 0 {
                chunks.push(Vec::new());
                room = chunk_rows;
            }
            let (piece, rest) = rows.split_at(room.min(rows.len()));
            chunks
                .last_mut()
                .expect("a chunk is open")
                .push((src, piece));
            room -= piece.len();
            rows = rest;
        }
    }
    chunks
}

/// Incremental [`ResultSet`] construction — the stream-and-fetch
/// `INTO` route's fold target. Rows append in arrival order; a new
/// chunk opens every `chunk_rows` rows. Byte accounting is live so
/// quota checks can run per batch while the source query is still
/// streaming.
#[derive(Debug)]
pub struct ResultSetBuilder {
    chunk_rows: usize,
    current: ColumnChunk,
    done: Vec<Arc<ColumnChunk>>,
    done_bytes: usize,
    rows: usize,
}

impl ResultSetBuilder {
    /// A builder cutting chunks of `chunk_rows` rows (clamped to ≥ 1).
    pub fn new(chunk_rows: usize) -> ResultSetBuilder {
        ResultSetBuilder {
            chunk_rows: chunk_rows.max(1),
            current: ColumnChunk::new(),
            done: Vec::new(),
            done_bytes: 0,
            rows: 0,
        }
    }

    /// Append one tag row (with its level-20 HTM id, kept for future
    /// cross-match support; stored-set scans never consult it today).
    /// The chunk derives the row's `ra`/`dec` lanes from x, y, z.
    pub fn push(&mut self, tag: &TagObject, htm20: u64) {
        self.current.push(tag, htm20);
        self.row_pushed();
    }

    /// Count the row just appended and seal the open chunk once full.
    fn row_pushed(&mut self) {
        self.rows += 1;
        if self.current.len() >= self.chunk_rows {
            self.done_bytes += self.current.bytes();
            self.done.push(Arc::new(std::mem::take(&mut self.current)));
        }
    }

    /// Rows appended so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Live byte total (sealed chunks + the open one) — the number
    /// session quotas are enforced against mid-materialization.
    pub fn bytes(&self) -> usize {
        self.done_bytes + self.current.bytes()
    }

    /// Seal the open chunk and produce the immutable set.
    pub fn finish(mut self) -> ResultSet {
        if !self.current.is_empty() {
            self.done_bytes += self.current.bytes();
            self.done.push(Arc::new(self.current));
        }
        ResultSet {
            chunks: self.done,
            rows: self.rows,
            bytes: self.done_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdss_catalog::SkyModel;

    fn tags(n: usize, seed: u64) -> Vec<(TagObject, u64)> {
        SkyModel::small(seed)
            .generate()
            .unwrap()
            .iter()
            .take(n)
            .map(|o| (TagObject::from_photo(o), o.htm20))
            .collect()
    }

    #[test]
    fn builder_cuts_chunks_and_counts_bytes() {
        let rows = tags(950, 7);
        assert_eq!(rows.len(), 950, "sky model too small for this test");
        let mut b = ResultSetBuilder::new(400);
        for (t, h) in &rows {
            b.push(t, *h);
        }
        assert_eq!(b.rows(), 950);
        let live_bytes = b.bytes();
        let set = b.finish();
        assert_eq!(set.rows(), 950);
        assert_eq!(set.n_chunks(), 3); // 400 + 400 + 150
        assert_eq!(set.bytes(), live_bytes);
        assert_eq!(
            set.bytes(),
            set.chunks().iter().map(|c| c.bytes()).sum::<usize>()
        );
        assert_eq!(set.chunk_bytes().len(), 3);
    }

    /// Every lane of every row of a set, by bits, in row order.
    fn lane_bits(set: &ResultSet) -> Vec<Vec<u64>> {
        let mut rows = Vec::new();
        for c in set.chunks() {
            for i in 0..c.len() {
                let mut row = vec![c.obj_id[i], c.htm20[i], c.class[i] as u64];
                row.extend([c.x[i], c.y[i], c.z[i], c.ra[i], c.dec[i]].map(f64::to_bits));
                row.extend(c.mags.iter().map(|m| m[i].to_bits() as u64));
                row.push(c.size[i].to_bits() as u64);
                rows.push(row);
            }
        }
        rows
    }

    #[test]
    fn gathered_runs_cut_chunks_like_row_pushes() {
        let rows = tags(1000, 12);
        let (mut even, mut odd) = (ColumnChunk::new(), ColumnChunk::new());
        for (k, (t, h)) in rows.iter().enumerate() {
            [&mut even, &mut odd][k % 2].push(t, *h);
        }
        // Runs of scattered rows from two sources: empty runs, runs
        // inside one set chunk, and runs crossing one or several edges.
        let picks: Vec<u32> = (0..even.len() as u32).filter(|i| i % 3 != 1).collect();
        let cuts = [0, 0, 5, 5, 69, 70, 71, 200, 200, picks.len()];
        let mut runs = Vec::new();
        let mut want = ResultSetBuilder::new(70);
        for (k, w) in cuts.windows(2).enumerate() {
            let src = [&even, &odd][k % 2];
            let run = &picks[w[0]..w[1]];
            run.iter()
                .for_each(|&i| want.push(&src.row(i as usize), src.htm20[i as usize]));
            runs.push((src, run));
        }
        let set = ResultSet::from_chunks(
            cut_runs(runs, 70)
                .iter()
                .map(|pieces| ColumnChunk::gather(pieces))
                .collect(),
        );
        let want = want.finish();
        assert!(set.n_chunks() > 2);
        assert_eq!(set.rows(), want.rows());
        assert_eq!(set.bytes(), want.bytes());
        assert_eq!(set.chunk_bytes(), want.chunk_bytes());
        assert_eq!(lane_bits(&set), lane_bits(&want));

        assert!(cut_runs([(&even, &[][..]), (&odd, &[][..])], 70).is_empty());
        assert!(ResultSet::from_chunks(Vec::new()).is_empty());
    }

    #[test]
    fn scan_chunk_yields_every_row_in_order() {
        let rows = tags(900, 8);
        assert!(rows.len() > 512, "need at least two chunks");
        let mut b = ResultSetBuilder::new(512);
        for (t, h) in &rows {
            b.push(t, *h);
        }
        let set = b.finish();
        let mut seen: Vec<u64> = Vec::new();
        let mut total = RegionScan::default();
        for idx in 0..set.n_chunks() {
            let (stats, done) = set.scan_chunk(idx, |batch, sel| {
                assert_eq!(sel.count(), batch.len(), "sets start all-selected");
                seen.extend(batch.obj_id);
                true
            });
            assert!(done);
            total.merge(&stats);
        }
        let want: Vec<u64> = rows.iter().map(|(t, _)| t.obj_id).collect();
        assert_eq!(seen, want, "chunk scans preserve arrival order");
        assert_eq!(total.objects_yielded, rows.len());
        assert_eq!(total.bytes_scanned, set.bytes());
        assert_eq!(total.containers_full, set.n_chunks());
    }

    #[test]
    fn scan_chunk_early_stop() {
        let rows = tags(800, 9);
        let mut b = ResultSetBuilder::new(4096);
        for (t, h) in &rows {
            b.push(t, *h);
        }
        let set = b.finish();
        let mut batches = 0;
        let (_, done) = set.scan_chunk(0, |_, _| {
            batches += 1;
            false
        });
        assert!(!done);
        assert_eq!(batches, 1);
    }

    #[test]
    fn empty_set_is_well_formed() {
        let set = ResultSetBuilder::new(100).finish();
        assert!(set.is_empty());
        assert_eq!(set.n_chunks(), 0);
        assert_eq!(set.bytes(), 0);
    }
}
