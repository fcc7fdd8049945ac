//! Columnar (struct-of-arrays) storage for the tag partition.
//!
//! The paper's E5 argument is that the 64-byte tag record cuts the bytes
//! a popular-attribute scan reads ~19×. This module pushes the same idea
//! one level further: inside each container the tag attributes are *also*
//! kept as contiguous per-attribute arrays (a [`ColumnChunk`]), so a
//! predicate like `r < 20 AND gr < 0.8` touches only the `r`/`g` columns
//! and runs at memory bandwidth instead of deserializing a `TagObject`
//! per row. Batches of [`BATCH_ROWS`] rows flow through the query
//! engine's compiled predicates with a [`SelectionMask`] carrying which
//! rows survive (the cover test, the predicate, sampling).
//!
//! Besides the ten stored attributes a chunk keeps two **derived lanes**,
//! `ra` and `dec`. The tag record stores position as the unit vector
//! (x, y, z) only, so every query that projects or filters on `ra`/`dec`
//! would otherwise run `atan2`/`asin` per selected row. The chunk derives
//! them once, when a row is pushed, through `SkyPos::from_unit_vec` —
//! the same call `TagObject::pos` makes — so the lanes are bit-identical
//! to what the row interpreter computes (SkyServer keeps `ra, dec` next
//! to `cx, cy, cz` for the same reason). A chunk therefore costs
//! 8 + 24 + 16 + 20 + 4 + 1 + 8 = 81 heap bytes per row
//! ([`ColumnChunk::bytes`]), 16 more than the 65 bytes of the stored
//! attributes and the HTM key.

use sdss_catalog::{ObjClass, TagObject};
use sdss_skycoords::UnitVec3;

/// Rows per execution batch. 1024 rows keeps every column of a batch
/// (8 KB for an f64 column) comfortably inside L1/L2 while amortizing
/// per-batch overhead.
pub const BATCH_ROWS: usize = 1024;

/// Struct-of-arrays projection of one container's tag records.
///
/// Built incrementally at insert/projection time, rows in push order. A
/// chunk is the tag store's only image of its container's rows (and a
/// stored result set's image of one of its chunks); row `i` rebuilds as
/// a record through [`ColumnChunk::row`].
///
/// `ra` and `dec` are derived lanes: [`ColumnChunk::push`] fills them
/// from x, y, z through `SkyPos::from_unit_vec`, never from a stored
/// catalog angle, so `ra[i]`/`dec[i]` equal the bits of `row(i).pos()`.
/// [`ColumnChunk::bytes`] counts them: 81 bytes per row.
#[derive(Debug, Clone, Default)]
pub struct ColumnChunk {
    pub obj_id: Vec<u64>,
    pub x: Vec<f64>,
    pub y: Vec<f64>,
    pub z: Vec<f64>,
    /// Right ascension in degrees, `[0, 360)`, derived from x, y, z.
    pub ra: Vec<f64>,
    /// Declination in degrees, derived from x, y, z.
    pub dec: Vec<f64>,
    /// One column per band: u, g, r, i, z.
    pub mags: [Vec<f32>; 5],
    pub size: Vec<f32>,
    /// `ObjClass` discriminant per row.
    pub class: Vec<u8>,
    /// Level-20 HTM id per row (the cover filter's trixel-table key).
    pub htm20: Vec<u64>,
}

impl ColumnChunk {
    pub fn new() -> ColumnChunk {
        ColumnChunk::default()
    }

    /// An empty chunk with room for `rows` rows in every lane, so a build
    /// of known size allocates each lane once instead of regrowing it.
    pub fn with_capacity(rows: usize) -> ColumnChunk {
        ColumnChunk {
            obj_id: Vec::with_capacity(rows),
            x: Vec::with_capacity(rows),
            y: Vec::with_capacity(rows),
            z: Vec::with_capacity(rows),
            ra: Vec::with_capacity(rows),
            dec: Vec::with_capacity(rows),
            mags: std::array::from_fn(|_| Vec::with_capacity(rows)),
            size: Vec::with_capacity(rows),
            class: Vec::with_capacity(rows),
            htm20: Vec::with_capacity(rows),
        }
    }

    pub fn len(&self) -> usize {
        self.obj_id.len()
    }

    pub fn is_empty(&self) -> bool {
        self.obj_id.is_empty()
    }

    /// Heap bytes one row holds across the lanes: id, x/y/z, the
    /// derived ra/dec, five magnitudes, size, class and the HTM key.
    pub const ROW_BYTES: usize = 8 + 24 + 16 + 20 + 4 + 1 + 8;

    /// Heap bytes held by the columns (the SoA cost accounting):
    /// [`ColumnChunk::ROW_BYTES`] per row.
    pub fn bytes(&self) -> usize {
        self.len() * Self::ROW_BYTES
    }

    /// Append one row, deriving its `ra`/`dec` lanes from x, y, z.
    pub fn push(&mut self, tag: &TagObject, htm20: u64) {
        let pos = tag.pos();
        self.obj_id.push(tag.obj_id);
        self.x.push(tag.x);
        self.y.push(tag.y);
        self.z.push(tag.z);
        self.ra.push(pos.ra_deg());
        self.dec.push(pos.dec_deg());
        for (col, &m) in self.mags.iter_mut().zip(tag.mags.iter()) {
            col.push(m);
        }
        self.size.push(tag.size);
        self.class.push(tag.class as u8);
        self.htm20.push(htm20);
    }

    /// A chunk of rows `rows` of each `(src, rows)` piece, in order,
    /// copied lane by lane — the derived `ra`/`dec` and `htm20`
    /// included, so no record is rebuilt and no trig runs — with every
    /// lane allocated once at its final length.
    pub fn gather(pieces: &[(&ColumnChunk, &[u32])]) -> ColumnChunk {
        fn copy<T: Copy>(dst: &mut Vec<T>, src: &[T], rows: &[u32]) {
            dst.extend(rows.iter().map(|&i| src[i as usize]));
        }
        let mut chunk = ColumnChunk::with_capacity(pieces.iter().map(|(_, r)| r.len()).sum());
        for &(src, rows) in pieces {
            copy(&mut chunk.obj_id, &src.obj_id, rows);
            copy(&mut chunk.x, &src.x, rows);
            copy(&mut chunk.y, &src.y, rows);
            copy(&mut chunk.z, &src.z, rows);
            copy(&mut chunk.ra, &src.ra, rows);
            copy(&mut chunk.dec, &src.dec, rows);
            for (dst, lane) in chunk.mags.iter_mut().zip(&src.mags) {
                copy(dst, lane, rows);
            }
            copy(&mut chunk.size, &src.size, rows);
            copy(&mut chunk.class, &src.class, rows);
            copy(&mut chunk.htm20, &src.htm20, rows);
        }
        chunk
    }

    /// Rebuild row `i` as an owned record (the inverse projection).
    pub fn row(&self, i: usize) -> TagObject {
        TagObject {
            obj_id: self.obj_id[i],
            x: self.x[i],
            y: self.y[i],
            z: self.z[i],
            mags: [
                self.mags[0][i],
                self.mags[1][i],
                self.mags[2][i],
                self.mags[3][i],
                self.mags[4][i],
            ],
            size: self.size[i],
            class: ObjClass::from_u8(self.class[i]).expect("chunk holds valid class bytes"),
        }
    }

    /// Iterate the chunk as [`ColumnBatch`]es of at most `rows` rows.
    pub fn batches(&self, rows: usize) -> impl Iterator<Item = ColumnBatch<'_>> {
        let rows = rows.max(1);
        let n = self.len();
        (0..n.div_ceil(rows)).map(move |b| {
            let lo = b * rows;
            let hi = (lo + rows).min(n);
            ColumnBatch {
                base: lo,
                obj_id: &self.obj_id[lo..hi],
                x: &self.x[lo..hi],
                y: &self.y[lo..hi],
                z: &self.z[lo..hi],
                ra: &self.ra[lo..hi],
                dec: &self.dec[lo..hi],
                mags: [
                    &self.mags[0][lo..hi],
                    &self.mags[1][lo..hi],
                    &self.mags[2][lo..hi],
                    &self.mags[3][lo..hi],
                    &self.mags[4][lo..hi],
                ],
                size: &self.size[lo..hi],
                class: &self.class[lo..hi],
                htm20: &self.htm20[lo..hi],
            }
        })
    }
}

/// A borrowed window of up to [`BATCH_ROWS`] rows of one [`ColumnChunk`].
#[derive(Debug, Clone, Copy)]
pub struct ColumnBatch<'a> {
    /// Row offset of this batch inside its chunk.
    pub base: usize,
    pub obj_id: &'a [u64],
    pub x: &'a [f64],
    pub y: &'a [f64],
    pub z: &'a [f64],
    /// The chunk's derived `ra`/`dec` lanes, windowed like the rest.
    pub ra: &'a [f64],
    pub dec: &'a [f64],
    pub mags: [&'a [f32]; 5],
    pub size: &'a [f32],
    pub class: &'a [u8],
    pub htm20: &'a [u64],
}

impl ColumnBatch<'_> {
    pub fn len(&self) -> usize {
        self.obj_id.len()
    }

    pub fn is_empty(&self) -> bool {
        self.obj_id.is_empty()
    }

    pub fn unit_vec(&self, i: usize) -> UnitVec3 {
        UnitVec3::new_unchecked(self.x[i], self.y[i], self.z[i])
    }

    /// Rebuild row `i` of this batch as an owned record — the batch-
    /// windowed sibling of [`ColumnChunk::row`] (the MATCH probe side
    /// and the direct columnar INTO path both need whole rows back out
    /// of the lanes).
    pub fn row(&self, i: usize) -> TagObject {
        TagObject {
            obj_id: self.obj_id[i],
            x: self.x[i],
            y: self.y[i],
            z: self.z[i],
            mags: [
                self.mags[0][i],
                self.mags[1][i],
                self.mags[2][i],
                self.mags[3][i],
                self.mags[4][i],
            ],
            size: self.size[i],
            class: ObjClass::from_u8(self.class[i]).expect("batch holds valid class bytes"),
        }
    }
}

/// A per-batch selection bitmap: bit `i` set ⇔ row `i` survives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectionMask {
    words: Vec<u64>,
    len: usize,
}

impl SelectionMask {
    pub fn all_set(len: usize) -> SelectionMask {
        let mut m = SelectionMask {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        m.trim_tail();
        m
    }

    pub fn none_set(len: usize) -> SelectionMask {
        SelectionMask {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Reset in place to all-clear for `len` rows, reusing the word
    /// buffer (no allocation when capacity suffices).
    pub fn reset_false(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// Clear bits beyond `len` so popcounts stay honest.
    fn trim_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn get(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    #[inline]
    pub fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    pub fn clear(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    pub fn and_with(&mut self, other: &SelectionMask) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= b;
        }
    }

    pub fn or_with(&mut self, other: &SelectionMask) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    pub fn invert(&mut self) {
        for w in self.words.iter_mut() {
            *w = !*w;
        }
        self.trim_tail();
    }

    /// Number of selected rows.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Indices of selected rows, ascending. The iterator walks the mask
    /// a word at a time: it loads each 64-row word once, skips all-clear
    /// words in one step, and yields a set bit per `trailing_zeros` +
    /// clear-lowest-bit, with no per-row branch on unselected rows.
    pub fn iter_set(&self) -> SetBits<'_> {
        SetBits {
            words: &self.words,
            next_word: 0,
            base: 0,
            bits: 0,
        }
    }

    /// Raw words (for fused mask kernels in the query compiler).
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Re-clamp after raw word writes.
    pub fn normalize(&mut self) {
        self.trim_tail();
    }
}

/// The ascending set-bit indices of a [`SelectionMask`]
/// ([`SelectionMask::iter_set`]).
#[derive(Debug, Clone)]
pub struct SetBits<'a> {
    words: &'a [u64],
    /// Index of the next word to load.
    next_word: usize,
    /// Row index of bit 0 of `bits`.
    base: usize,
    /// The not-yet-yielded bits of the current word.
    bits: u64,
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.bits = *self.words.get(self.next_word)?;
            self.base = self.next_word * 64;
            self.next_word += 1;
        }
        let i = self.base + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(i)
    }
}

impl std::iter::FusedIterator for SetBits<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cut_runs, ObjectStore, ResultSet, ResultSetBuilder, StoreConfig, TagStore};
    use sdss_catalog::{PhotoObj, SkyModel};
    use sdss_htm::HtmId;
    use sdss_skycoords::SkyPos;

    fn chunk_from_sky(n_take: usize) -> (ColumnChunk, Vec<TagObject>) {
        let objs = SkyModel::small(11).generate().unwrap();
        let mut chunk = ColumnChunk::new();
        let tags: Vec<TagObject> = objs
            .iter()
            .take(n_take)
            .map(|o| {
                let t = TagObject::from_photo(o);
                chunk.push(&t, o.htm20);
                t
            })
            .collect();
        (chunk, tags)
    }

    #[test]
    fn push_and_row_roundtrip() {
        let (chunk, tags) = chunk_from_sky(500);
        assert_eq!(chunk.len(), tags.len());
        for (i, t) in tags.iter().enumerate() {
            assert_eq!(&chunk.row(i), t);
        }
    }

    #[test]
    fn batches_cover_every_row_once() {
        let (chunk, tags) = chunk_from_sky(2500);
        let mut seen = 0usize;
        for batch in chunk.batches(BATCH_ROWS) {
            assert_eq!(batch.base, seen);
            assert!(batch.len() <= BATCH_ROWS);
            for i in 0..batch.len() {
                assert_eq!(batch.obj_id[i], tags[seen + i].obj_id);
                assert_eq!(batch.mags[2][i], tags[seen + i].mags[2]);
                assert_eq!(batch.ra[i], chunk.ra[seen + i]);
                assert_eq!(batch.dec[i], chunk.dec[seen + i]);
            }
            seen += batch.len();
        }
        assert_eq!(seen, tags.len());
    }

    /// A sky plus the edge cases of the ra/dec derivation: both poles
    /// (x = y = 0, so ra is 0.0 by convention), a near-pole point, and
    /// positions either side of ra = 0/360 — including the `-0.0` and
    /// `360.0` that `wrap_deg_360` returns for y = -0.0 and a tiny
    /// negative y. Returns the objects and the edge objects' ids.
    fn sky_with_edge_positions(seed: u64) -> (Vec<PhotoObj>, Vec<u64>) {
        let mut objs = SkyModel::small(seed).generate().unwrap();
        let next_id = objs.iter().map(|o| o.obj_id).max().unwrap() + 1;
        let by_angle = |ra: f64, dec: f64| {
            let v = SkyPos::new(ra, dec).unwrap().unit_vec();
            (v.x(), v.y(), v.z())
        };
        let edges = [
            (0.0, 0.0, 1.0),
            (0.0, 0.0, -1.0),
            (1e-9, -1e-9, 1.0),
            (0.6, -0.0, 0.8),
            (1.0, -1e-300, 0.0),
            by_angle(359.9999, 12.0),
            by_angle(0.0, -7.5),
            by_angle(0.0001, 33.0),
        ];
        let mut ids = Vec::new();
        for (k, &(x, y, z)) in edges.iter().enumerate() {
            let mut o = objs[k].clone();
            o.obj_id = next_id + k as u64;
            (o.x, o.y, o.z) = (x, y, z);
            let pos = SkyPos::from_unit_vec(o.unit_vec());
            (o.ra_deg, o.dec_deg) = (pos.ra_deg(), pos.dec_deg());
            o.htm20 = sdss_htm::lookup_id(o.unit_vec(), 20).unwrap().raw();
            ids.push(o.obj_id);
            objs.push(o);
        }
        (objs, ids)
    }

    #[test]
    fn derived_ra_dec_lanes_are_bit_identical_to_row_pos() {
        let (objs, edge_ids) = sky_with_edge_positions(17);
        let mut store = ObjectStore::new(StoreConfig::default()).unwrap();
        store.insert_batch(&objs).unwrap();
        let tags = TagStore::from_store(&store);

        // A stored set built both ways: from rebuilt records (the fetch
        // path's push) and by copying lanes (the INTO lane path's gather).
        let mut pushed = ResultSetBuilder::new(300);
        for (_, chunk) in tags.column_chunks() {
            for batch in chunk.batches(BATCH_ROWS) {
                for i in 0..batch.len() {
                    pushed.push(&batch.row(i), batch.htm20[i]);
                }
            }
        }
        let pushed = pushed.finish();
        let every: Vec<u32> = (0..objs.len() as u32).collect();
        let runs = tags.column_chunks().map(|(_, c)| (&**c, &every[..c.len()]));
        let copied = cut_runs(runs, 300)
            .into_iter()
            .map(|p| ColumnChunk::gather(&p));
        let copied = ResultSet::from_chunks(copied.collect());
        assert_eq!(pushed.rows(), objs.len());
        assert_eq!(copied.rows(), objs.len());
        assert_eq!(copied.bytes(), objs.len() * 81);

        let chunks = tags.column_chunks().map(|(_, c)| c);
        let chunks = chunks.chain(pushed.chunks()).chain(copied.chunks());
        let (mut edges_seen, mut poles, mut below_360, mut above_0) = (0, 0, 0, 0);
        for chunk in chunks {
            for i in 0..chunk.len() {
                let pos = chunk.row(i).pos();
                let (ra, dec) = (chunk.ra[i], chunk.dec[i]);
                assert_eq!(
                    ra.to_bits(),
                    pos.ra_deg().to_bits(),
                    "ra of {:#x}",
                    chunk.obj_id[i]
                );
                assert_eq!(
                    dec.to_bits(),
                    pos.dec_deg().to_bits(),
                    "dec of {:#x}",
                    chunk.obj_id[i]
                );
                if edge_ids.contains(&chunk.obj_id[i]) {
                    edges_seen += 1;
                    poles += usize::from(chunk.x[i] == 0.0 && chunk.y[i] == 0.0);
                    below_360 += usize::from(ra > 359.0);
                    above_0 += usize::from(ra < 1.0 && dec.abs() < 89.0);
                }
            }
        }
        // Three chunk sources, each holding every edge object once.
        assert_eq!(edges_seen, 3 * edge_ids.len());
        assert_eq!(poles, 3 * 2, "both poles in every source");
        assert!(
            below_360 >= 3 * 2 && above_0 >= 3 * 3,
            "{below_360} {above_0}"
        );
    }

    #[test]
    fn selection_mask_ops() {
        let mut m = SelectionMask::all_set(130);
        assert_eq!(m.count(), 130);
        m.clear(0);
        m.clear(129);
        assert_eq!(m.count(), 128);
        assert!(!m.get(0) && !m.get(129) && m.get(64));
        let mut inv = m.clone();
        inv.invert();
        assert_eq!(inv.count(), 2);
        assert_eq!(inv.iter_set().collect::<Vec<_>>(), vec![0, 129]);
        m.and_with(&inv);
        assert_eq!(m.count(), 0);
        assert!(!m.any());
        let mut o = SelectionMask::none_set(130);
        o.set(7);
        o.or_with(&inv);
        assert_eq!(o.iter_set().collect::<Vec<_>>(), vec![0, 7, 129]);
    }

    #[test]
    fn iter_set_walks_words_in_ascending_order() {
        for len in [0, 1, 63, 64, 65, 200, 1023, 1024, 1025] {
            // Empty, full, and a pattern with all-clear words between
            // set bits at word edges.
            let sparse: Vec<usize> = (0..len).filter(|i| i % 64 == 0 || i % 97 == 63).collect();
            let mut m = SelectionMask::none_set(len);
            sparse.iter().for_each(|&i| m.set(i));
            for (mask, want) in [
                (SelectionMask::none_set(len), Vec::new()),
                (SelectionMask::all_set(len), (0..len).collect()),
                (m, sparse),
            ] {
                assert_eq!(mask.iter_set().collect::<Vec<_>>(), want, "len {len}");
                let mut it = mask.iter_set();
                it.by_ref().for_each(drop);
                assert_eq!(it.next(), None, "fused at len {len}");
            }
        }
    }

    #[test]
    fn chunk_rows_keep_push_order() {
        let objs = SkyModel::small(13).generate().unwrap();
        let mut chunk = ColumnChunk::new();
        for o in objs.iter().take(100) {
            chunk.push(&TagObject::from_photo(o), o.htm20);
        }
        for (i, o) in objs.iter().take(100).enumerate() {
            assert_eq!(chunk.obj_id[i], o.obj_id);
            let deep = HtmId::from_raw(chunk.htm20[i]).unwrap();
            assert_eq!(deep.raw(), o.htm20);
        }
    }
}
