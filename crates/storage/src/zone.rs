//! Spatial indexes for cross-identification.
//!
//! Paper, §Data Products: "each subsequent astronomical survey will want
//! to cross-identify its objects with the SDSS catalog". Every
//! cross-match — the dataflow hash machine's nearest neighbor and the
//! query engine's `MATCH(a, b, radius)` pair join — files the build side
//! so that a probe only compares against rows that could lie within the
//! match radius. Two layouts live here:
//!
//! * [`DecZoneIndex`] — the query engine's `MATCH` index. Build rows sit
//!   in declination stripes ("zones", the layout Gray et al. adopted for
//!   the SkyServer neighbours table), each stripe sorted by RA. A probe
//!   visits the stripes within `dec ± r` and binary-searches each for the
//!   RA window `ra ± α(dec, r)` — no per-probe HTM cover at all. The
//!   index is built from the rows' `(ra, dec)` scan lanes, with no trig
//!   per row. Where most probes have no partner (a sparse set probed by
//!   the archive around it), an **occupancy filter** marks the
//!   `(stripe, RA cell)`s within the radius of some build row, and a
//!   probe whose own cell is clear returns before any stripe search.
//! * [`ZoneIndex`] — HTM buckets at a radius-matched level; each probe
//!   expands into a small HTM cover of its match cap (the hash machine's
//!   one-sided replication argument — expanding one side suffices for
//!   completeness, including across bucket boundaries). It remains the
//!   build side of `dataflow::xmatch`'s nearest-neighbor matcher.
//!
//! [`MatchFootprint`] is the other half of a set-vs-archive `MATCH`: the
//! cap around a stored set outside which no archive object can pair, so
//! the archive input reads only that cap instead of the whole sky.
//!
//! Both indexes end in the same exact test,
//! `probe.separation_deg(row) * 3600 <= radius_arcsec`, so they return
//! the same pairs with bit-identical separations.

use crate::{ResultSet, StorageError};
use sdss_catalog::TagObject;
use sdss_htm::{lookup_id, Cover, Domain, Region};
use sdss_skycoords::{UnitVec3, Vec3};
use std::collections::HashMap;

/// Angular slack (degrees) added to every geometric bound of
/// [`DecZoneIndex`] and [`MatchFootprint`]. The bounds only prune
/// candidates before the exact separation test, so widening them costs a
/// few comparisons and keeps rounding in the `atan2`/`asin` conversions
/// from ever dropping a pair that sits exactly on the radius.
const BOUND_SLACK_DEG: f64 = 1e-7;

/// Within this many degrees of a pole, a probe's RA window is not worth
/// deriving: it scans whole stripes, up to the pole.
const POLAR_MARGIN_DEG: f64 = 1e-3;

/// A declination-zone index over a cross-match's build rows: positions
/// in stripes of constant declination height, each stripe sorted by
/// right ascension. Row `i` is the `i`-th point the index was built
/// from; [`DecZoneIndex::neighbors_within`] reports rows by that number.
///
/// An index may carry an **occupancy filter** (see
/// [`DecZoneIndex::build`]): a bitset over `(stripe, RA cell)` marking
/// every cell within the index radius of some build row. RA cells are
/// no wider than the RA half-width of any row's cap, so a row marks
/// about nine cells. A probe at the index radius whose own cell is clear
/// returns before any stripe search.
///
/// * **Memory** is bounded by 256 bits (32 bytes) per build row,
///   whatever the area the rows span: one bit per cell of the rows'
///   bounding box. Rows spread too wide for that get coarser cells,
///   which only send more probes on to the normal search.
/// * **No false negatives.** A cell is marked wherever a partner could
///   lie, with the slack of every other bound. The filter never rejects
///   a probe that has a partner, so it changes no pair and no
///   separation.
#[derive(Debug, Clone)]
pub struct DecZoneIndex {
    /// Stripe height, degrees. Stripe `k` covers declinations
    /// `[-90 + k·h, -90 + (k+1)·h)`.
    height_deg: f64,
    /// Absolute stripe number of the first stored stripe (only stripes
    /// between the lowest and highest build row are stored).
    first_zone: i64,
    /// Entries `starts[z]..starts[z + 1]` belong to stripe
    /// `first_zone + z`.
    starts: Vec<u32>,
    /// Per entry, ordered by (stripe, RA): RA in `[0, 360)` degrees, the
    /// position, and the build row it came from.
    ra: Vec<f64>,
    pos: Vec<UnitVec3>,
    row: Vec<u32>,
    /// The radius the index was built for and its sine (the RA-window
    /// numerator, reused by every probe at that radius).
    radius_arcsec: f64,
    sin_radius: f64,
    occupancy: Option<Occupancy>,
}

/// Half-width in degrees of the RA window that holds every point within
/// `asin(sin_r)` of a position at declination `acos(cos_dec)`, or `None`
/// when the window would wrap all the way round. sin α = sin r / cos δ
/// bounds the RA offset of every point of the cap, and α ≤ tan α =
/// s / √(1 − s²) bounds α without another trig call.
fn ra_half_width(sin_r: f64, cos_dec: f64) -> Option<f64> {
    let s = sin_r / cos_dec;
    let a = (s / (1.0 - s * s).sqrt()).to_degrees() + BOUND_SLACK_DEG;
    (s < 1.0 && a < 180.0).then_some(a)
}

/// The occupancy filter of a [`DecZoneIndex`]: one bit per
/// `(zone, RA cell)` of the box round the build rows, set for every cell
/// within the index radius of a row.
#[derive(Debug, Clone)]
struct Occupancy {
    /// Zones per degree of declination, and the box's first zone and
    /// zone count.
    zones_per_deg: f64,
    first_zone: i64,
    zones: i64,
    /// RA cells round the sky and their number per degree, and the
    /// box's first cell and cell count (wrapping round RA 360).
    cells: i64,
    cells_per_deg: f64,
    first_cell: i64,
    width: i64,
    bits: Vec<u64>,
}

impl Occupancy {
    /// The memory bound, in bits per build row.
    const BITS_PER_ROW: usize = 256;

    /// The filter over `points` (`(ra, dec, position)`, RA in `[0, 360)`,
    /// declinations in `[dec_lo, dec_hi]`) for caps of `r` degrees (sine
    /// `sin_r`) round them. `None` when a cap reaches within
    /// [`POLAR_MARGIN_DEG`] of a pole, where probes scan whole stripes,
    /// or when its RA window would wrap all the way round.
    ///
    /// Zones start as the index's stripes (`height_deg` tall) and cells
    /// as wide as the widest cap's RA window, so a row marks about nine
    /// cells. Rows spread too wide for that box within the memory bound
    /// get zones and cells twice, four times, ... as large.
    fn build(
        points: &[(f64, f64, UnitVec3)],
        (dec_lo, dec_hi): (f64, f64),
        r: f64,
        sin_r: f64,
        height_deg: f64,
    ) -> Option<Occupancy> {
        let reach = dec_hi.max(-dec_lo) + r + BOUND_SLACK_DEG;
        if points.is_empty() || reach.is_nan() || reach >= 90.0 - POLAR_MARGIN_DEG {
            return None;
        }
        // Any pair's RA offset is within the window of a cap centred on
        // its build row, and that window is widest at the largest |dec|.
        let a = ra_half_width(sin_r, dec_hi.max(-dec_lo).to_radians().cos())?;
        // The rows' RA arc: the shorter of the spans without and with
        // RAs below 180 moved past 360.
        let span = |shift: bool| {
            points
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
                    let ra = p.0 + if shift && p.0 < 180.0 { 360.0 } else { 0.0 };
                    (lo.min(ra), hi.max(ra))
                })
        };
        let (plain, shifted) = (span(false), span(true));
        let (ra_lo, ra_hi) = if plain.1 - plain.0 <= shifted.1 - shifted.0 {
            plain
        } else {
            shifted
        };
        let n_bits = (points.len() * Self::BITS_PER_ROW) as i64;
        let mut scale = 1.0;
        loop {
            let zones_per_deg = 1.0 / (height_deg * scale);
            let zone = |dec: f64| ((dec + 90.0) * zones_per_deg) as i64;
            let first_zone = zone(dec_lo - r - BOUND_SLACK_DEG);
            let zones = zone(dec_hi + r + BOUND_SLACK_DEG) - first_zone + 1;
            let cells = (360.0 / (a * scale)).ceil() as i64;
            let cells_per_deg = cells as f64 / 360.0;
            // A cell of margin each side absorbs rounding between the
            // arc's frame and the cells'.
            let lo = ((ra_lo - a) * cells_per_deg).floor() as i64 - 1;
            let hi = ((ra_hi + a) * cells_per_deg).floor() as i64 + 1;
            let (first_cell, width) = if hi - lo + 1 >= cells {
                (0, cells)
            } else {
                (lo.rem_euclid(cells), hi - lo + 1)
            };
            if zones.saturating_mul(width) <= n_bits {
                let occupancy = Occupancy {
                    zones_per_deg,
                    first_zone,
                    zones,
                    cells,
                    cells_per_deg,
                    first_cell,
                    width,
                    bits: vec![0u64; (zones * width) as usize / 64 + 1],
                };
                return occupancy.mark_all(points, r, a);
            }
            scale *= 2.0;
        }
    }

    /// Mark every cell within `a` degrees of RA and `r` of declination
    /// of a row. `None` if the box misses a marked cell (it is sized to
    /// hold them all, so this only guards against rounding).
    fn mark_all(mut self, points: &[(f64, f64, UnitVec3)], r: f64, a: f64) -> Option<Occupancy> {
        for &(ra, dec, _) in points {
            let (lo, hi) = (ra - a, ra + a);
            let z_lo = self.zone(dec - r - BOUND_SLACK_DEG);
            let z_hi = self.zone(dec + r + BOUND_SLACK_DEG);
            for z in z_lo..=z_hi {
                let marked = if lo < 0.0 {
                    self.mark(z, lo + 360.0, 360.0) && self.mark(z, 0.0, hi)
                } else if hi > 360.0 {
                    self.mark(z, lo, 360.0) && self.mark(z, 0.0, hi - 360.0)
                } else {
                    self.mark(z, lo, hi)
                };
                if !marked {
                    return None;
                }
            }
        }
        Some(self)
    }

    /// The zone of a declination. Every declination the filter sees is
    /// above -90 (no cap reaches a pole), so truncation is the floor; it
    /// is monotonic, so every declination of a span lands between its
    /// ends' zones.
    fn zone(&self, dec: f64) -> i64 {
        ((dec + 90.0) * self.zones_per_deg) as i64
    }

    /// The unfolded cell of an RA in `[0, 360]`, monotonic like
    /// [`Occupancy::zone`]. RA 360 may land one past the last cell;
    /// [`Occupancy::bit`] folds it.
    fn cell(&self, ra: f64) -> i64 {
        (ra * self.cells_per_deg) as i64
    }

    /// The bit of a cell, `None` outside the box.
    fn bit(&self, zone: i64, cell: i64) -> Option<usize> {
        let z = zone - self.first_zone;
        let mut c = cell - self.first_cell;
        if cell >= self.cells {
            c -= self.cells;
        }
        if c < 0 {
            c += self.cells;
        }
        ((0..self.zones).contains(&z) && c < self.width).then(|| (z * self.width + c) as usize)
    }

    /// Mark the cells of `zone` that hold RAs in `[lo, hi]`; `false` if
    /// one falls outside the box.
    fn mark(&mut self, zone: i64, lo: f64, hi: f64) -> bool {
        for cell in self.cell(lo)..=self.cell(hi) {
            let Some(b) = self.bit(zone, cell) else {
                return false;
            };
            self.bits[b / 64] |= 1 << (b % 64);
        }
        true
    }

    /// Could a point at `(ra, dec)` have a partner?
    fn admits(&self, (ra, dec): (f64, f64)) -> bool {
        self.bit(self.zone(dec), self.cell(ra))
            .is_some_and(|b| self.bits[b / 64] & (1 << (b % 64)) != 0)
    }
}

impl DecZoneIndex {
    /// Index `points`, each a position and its `(ra, dec)` in degrees
    /// (a scan batch's derived lanes, so the build runs no trig per
    /// row; an RA of 360 folds to 0), for probes of `radius_arcsec`.
    /// The stripe height is the radius, so a probe visits two or three
    /// stripes; it only grows where the build side is so sparse that
    /// there would be more stripes than rows.
    ///
    /// `occupancy` also builds the occupancy filter, in at most 32 bytes
    /// per build row. It pays where most probes have no partner, and
    /// costs its build where every probe has one. No filter is built
    /// when a row's cap reaches within a hair of a pole.
    pub fn build(
        points: impl IntoIterator<Item = (UnitVec3, (f64, f64))>,
        radius_arcsec: f64,
        occupancy: bool,
    ) -> DecZoneIndex {
        let points: Vec<(f64, f64, UnitVec3)> = points
            .into_iter()
            .map(|(p, (ra, dec))| (if ra >= 360.0 { ra - 360.0 } else { ra }, dec, p))
            .collect();
        let (lo, hi) = points
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
                (lo.min(p.1), hi.max(p.1))
            });
        let r = radius_arcsec / 3600.0;
        let mut height_deg = r.max((hi - lo) / points.len().max(1) as f64);
        if !(height_deg > 0.0 && height_deg.is_finite()) {
            height_deg = 1.0; // a zero radius over coincident rows
        }
        let zone = |dec: f64| ((dec + 90.0) / height_deg).floor() as i64;
        let first_zone = if points.is_empty() { 0 } else { zone(lo) };
        let n_zones = if points.is_empty() {
            0
        } else {
            (zone(hi) - first_zone + 1) as usize
        };
        // Counting sort by stripe, then RA order within each stripe.
        let home: Vec<usize> = points
            .iter()
            .map(|p| (zone(p.1) - first_zone) as usize)
            .collect();
        let mut starts = vec![0u32; n_zones + 1];
        for &z in &home {
            starts[z + 1] += 1;
        }
        for z in 0..n_zones {
            starts[z + 1] += starts[z];
        }
        let mut fill = starts.clone();
        let mut order = vec![0u32; points.len()];
        for (i, &z) in home.iter().enumerate() {
            order[fill[z] as usize] = i as u32;
            fill[z] += 1;
        }
        for z in 0..n_zones {
            order[starts[z] as usize..starts[z + 1] as usize]
                .sort_unstable_by(|&a, &b| points[a as usize].0.total_cmp(&points[b as usize].0));
        }
        let sin_radius = r.to_radians().sin();
        let occupancy = if occupancy {
            Occupancy::build(&points, (lo, hi), r, sin_radius, height_deg)
        } else {
            None
        };
        DecZoneIndex {
            height_deg,
            first_zone,
            starts,
            ra: order.iter().map(|&i| points[i as usize].0).collect(),
            pos: order.iter().map(|&i| points[i as usize].2).collect(),
            row: order,
            radius_arcsec,
            sin_radius,
            occupancy,
        }
    }

    /// Rows indexed.
    pub fn len(&self) -> usize {
        self.row.len()
    }

    pub fn is_empty(&self) -> bool {
        self.row.is_empty()
    }

    /// Whether the occupancy filter shows that a probe at `(ra, dec)`
    /// has no partner within `radius_arcsec` (at most the index radius).
    fn turns_away(&self, at: (f64, f64), radius_arcsec: f64) -> bool {
        self.occupancy
            .as_ref()
            .is_some_and(|occupancy| radius_arcsec <= self.radius_arcsec && !occupancy.admits(at))
    }

    /// Stream every indexed row within `radius_arcsec` of `probe` as
    /// `(row, separation arcsec)` — all pairs, not just the nearest.
    /// `(ra, dec)` is the probe's position in degrees, RA in `[0, 360]`:
    /// a scan batch's derived lanes, so a probe runs no trig of its own.
    /// Any rounding difference from the build rows' own lanes is far
    /// inside the bounds' slack, and the exact test uses `probe`, so the
    /// pairs and separations do not depend on it. Works for any radius (a
    /// larger one than the index was built for visits more stripes, and
    /// skips the occupancy filter). Returns the number of candidate
    /// separations computed.
    pub fn neighbors_within(
        &self,
        probe: UnitVec3,
        (ra, dec): (f64, f64),
        radius_arcsec: f64,
        mut f: impl FnMut(u32, f64),
    ) -> usize {
        let n_zones = self.starts.len() as i64 - 1;
        if n_zones <= 0 {
            return 0;
        }
        if self.turns_away((ra, dec), radius_arcsec) {
            return 0;
        }
        let r = radius_arcsec / 3600.0;
        let zone = |dec: f64| ((dec + 90.0) / self.height_deg).floor() as i64 - self.first_zone;
        let mut z_lo = zone(dec - r - BOUND_SLACK_DEG).max(0);
        let mut z_hi = zone(dec + r + BOUND_SLACK_DEG).min(n_zones - 1);
        // The RA window's half-width. `None` scans whole stripes — up to
        // the pole when the cap reaches one, or when the window would
        // wrap all the way round.
        let half_width = if dec.abs() + r >= 90.0 - POLAR_MARGIN_DEG {
            if dec > 0.0 {
                z_hi = n_zones - 1;
            } else {
                z_lo = 0;
            }
            None
        } else {
            let cos_dec = (probe.x() * probe.x() + probe.y() * probe.y()).sqrt();
            let sin_r = if radius_arcsec == self.radius_arcsec {
                self.sin_radius
            } else {
                r.to_radians().sin()
            };
            ra_half_width(sin_r, cos_dec)
        };
        let mut comparisons = 0usize;
        // Test the entries of stripe `s..e` with RA in `[lo, hi]`.
        let mut visit = |s: usize, e: usize, lo: f64, hi: f64| {
            let mut i = s + self.ra[s..e].partition_point(|&x| x < lo);
            while i < e && self.ra[i] <= hi {
                comparisons += 1;
                let sep = probe.separation_deg(self.pos[i]) * 3600.0;
                if sep <= radius_arcsec {
                    f(self.row[i], sep);
                }
                i += 1;
            }
        };
        for z in z_lo..=z_hi {
            let (s, e) = (
                self.starts[z as usize] as usize,
                self.starts[z as usize + 1] as usize,
            );
            if s == e {
                continue;
            }
            match half_width {
                None => visit(s, e, f64::NEG_INFINITY, f64::INFINITY),
                Some(a) => {
                    let (lo, hi) = (ra - a, ra + a);
                    if lo < 0.0 {
                        visit(s, e, lo + 360.0, 360.0);
                        visit(s, e, 0.0, hi);
                    } else if hi >= 360.0 {
                        visit(s, e, lo, 360.0);
                        visit(s, e, 0.0, hi - 360.0);
                    } else {
                        visit(s, e, lo, hi);
                    }
                }
            }
        }
        comparisons
    }
}

/// How much of the archive a `MATCH` between a stored set and the
/// archive has to read: only objects within the match radius of some set
/// row can pair, and all of them lie in one cap around the set.
#[derive(Debug, Clone, PartialEq)]
pub enum MatchFootprint {
    /// The whole archive: no useful cap (degenerate centroid, or the cap
    /// would reach a hemisphere).
    Whole,
    /// Only the archive objects inside this cap.
    Cap(Domain),
    /// Nothing: the set is empty, so there are no pairs.
    Empty,
}

impl MatchFootprint {
    /// The cap centred on `set`'s normalized centroid whose radius is the
    /// set's largest distance from that centroid plus the match radius.
    /// Cheap enough to call at prepare time and again at execution: one
    /// pass for the centroid, one for the largest chord.
    ///
    /// The cap depends only on which objects the set holds, not on their
    /// row order, so sets with the same objects share cover-cache
    /// entries: the centroid is summed in fixed point (exact, so
    /// associative) and the largest chord is a maximum.
    pub fn of_set(set: &ResultSet, radius_arcsec: f64) -> MatchFootprint {
        if set.is_empty() {
            return MatchFootprint::Empty;
        }
        let rows = || {
            set.chunks()
                .iter()
                .flat_map(|c| (0..c.len()).map(move |i| (c.x[i], c.y[i], c.z[i])))
        };
        // Unit-vector components lie in [-1, 1], so each scaled term fits
        // in 63 bits and the i128 sum cannot overflow.
        const SCALE: f64 = (1u64 << 62) as f64;
        let fixed = |v: f64| (v * SCALE) as i128;
        let (sx, sy, sz) = rows().fold((0i128, 0i128, 0i128), |(sx, sy, sz), (x, y, z)| {
            (sx + fixed(x), sy + fixed(y), sz + fixed(z))
        });
        let unfixed = |s: i128| s as f64 / SCALE;
        let Ok(center) = Vec3::new(unfixed(sx), unfixed(sy), unfixed(sz)).normalized() else {
            return MatchFootprint::Whole;
        };
        // The chord is well conditioned at small angles, unlike acos(dot).
        let max_chord2 = rows().fold(0.0f64, |m, (x, y, z)| {
            let (dx, dy, dz) = (x - center.x(), y - center.y(), z - center.z());
            m.max(dx * dx + dy * dy + dz * dz)
        });
        let spread_deg = 2.0 * (max_chord2.sqrt() / 2.0).min(1.0).asin().to_degrees();
        let radius_deg = spread_deg + radius_arcsec / 3600.0 + BOUND_SLACK_DEG;
        if radius_deg.is_nan() || radius_deg >= 90.0 {
            return MatchFootprint::Whole;
        }
        match Region::circle_vec(center, radius_deg) {
            Ok(cap) => MatchFootprint::Cap(cap),
            Err(_) => MatchFootprint::Whole,
        }
    }

    /// The cap to restrict the archive scan to (`None` for `Whole` and
    /// `Empty`).
    pub fn domain(&self) -> Option<&Domain> {
        match self {
            MatchFootprint::Cap(d) => Some(d),
            MatchFootprint::Whole | MatchFootprint::Empty => None,
        }
    }
}

/// A zone-partitioned spatial index over a reference catalog: reference
/// row indices bucketed by home HTM trixel at a fixed level.
#[derive(Debug, Clone)]
pub struct ZoneIndex {
    level: u8,
    buckets: HashMap<u64, Vec<u32>>,
}

impl ZoneIndex {
    /// Index `reference` at the given bucket level.
    pub fn build(reference: &[TagObject], level: u8) -> Result<ZoneIndex, StorageError> {
        let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
        for (i, r) in reference.iter().enumerate() {
            let home =
                lookup_id(r.unit_vec(), level).map_err(|e| StorageError::Htm(e.to_string()))?;
            buckets.entry(home.raw()).or_default().push(i as u32);
        }
        Ok(ZoneIndex { level, buckets })
    }

    /// Index rows by their stored level-20 HTM ids — no spherical
    /// lookup at all: the level-`level` home bucket is the deep id's
    /// ancestor, `htm20 >> 2*(20 - level)` (the same shift the tag
    /// scan's cover filter uses). This is why materialized result sets
    /// keep `htm20` per row: the cross-match build side indexes at
    /// integer-shift speed.
    pub fn build_from_deep(htm20: &[u64], level: u8) -> ZoneIndex {
        // Clamp the stored level too: probe covers are computed at
        // `self.level`, so it must be the same level the buckets were
        // keyed at.
        let level = level.min(20);
        let shift = 2 * (20 - level) as u64;
        let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
        for (i, &deep) in htm20.iter().enumerate() {
            buckets.entry(deep >> shift).or_default().push(i as u32);
        }
        ZoneIndex { level, buckets }
    }

    /// A bucket level matched to the radius: fine zones for arcsecond
    /// astrometric tolerances, coarser ones once the match cap spans
    /// whole trixels (a level-10 trixel subtends ~3 arcmin).
    pub fn level_for_radius(radius_arcsec: f64) -> u8 {
        if radius_arcsec <= 200.0 {
            10
        } else if radius_arcsec <= 3600.0 {
            7
        } else {
            4
        }
    }

    /// The bucket level this index was built at.
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Stream every reference object within `radius_arcsec` of `probe`
    /// as `(reference index, separation arcsec)` — *all* pairs, not just
    /// the nearest (the pair-join primitive). Returns the number of
    /// candidate distance computations performed.
    pub fn neighbors_within(
        &self,
        reference: &[TagObject],
        probe: UnitVec3,
        radius_arcsec: f64,
        mut f: impl FnMut(u32, f64),
    ) -> Result<usize, StorageError> {
        let cap = Region::circle_vec(probe, radius_arcsec / 3600.0)
            .map_err(|e| StorageError::Htm(e.to_string()))?;
        let cover =
            Cover::compute(&cap, self.level).map_err(|e| StorageError::Htm(e.to_string()))?;
        let mut comparisons = 0usize;
        for bucket in cover.touched_ranges().iter_ids() {
            let Some(members) = self.buckets.get(&bucket) else {
                continue;
            };
            for &ri in members {
                comparisons += 1;
                let sep = probe.separation_deg(reference[ri as usize].unit_vec()) * 3600.0;
                if sep <= radius_arcsec {
                    f(ri, sep);
                }
            }
        }
        Ok(comparisons)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdss_catalog::SkyModel;
    use sdss_skycoords::SkyPos;

    /// `(ra, dec)` in degrees by trig on the vector, RA in `[0, 360)`:
    /// the reference that lane positions are checked against.
    fn ra_dec(p: UnitVec3) -> (f64, f64) {
        let mut ra = p.y().atan2(p.x()).to_degrees();
        if ra < 0.0 {
            ra += 360.0;
        }
        if ra >= 360.0 {
            ra -= 360.0;
        }
        (ra, p.z().clamp(-1.0, 1.0).asin().to_degrees())
    }

    /// The `(ra, dec)` a scan batch's lanes carry:
    /// `SkyPos::from_unit_vec`, which can round RA up to 360.
    fn lanes(p: UnitVec3) -> (f64, f64) {
        let pos = SkyPos::from_unit_vec(p);
        (pos.ra_deg(), pos.dec_deg())
    }

    /// An index over `points` positioned by `at`.
    fn index_at(
        points: &[UnitVec3],
        at: fn(UnitVec3) -> (f64, f64),
        radius: f64,
        occupancy: bool,
    ) -> DecZoneIndex {
        DecZoneIndex::build(points.iter().map(|&p| (p, at(p))), radius, occupancy)
    }

    /// Every `(row, sep)` a probe positioned by `at` yields, in row order.
    fn pairs_at(
        ix: &DecZoneIndex,
        probe: UnitVec3,
        at: fn(UnitVec3) -> (f64, f64),
        radius: f64,
    ) -> Vec<(u32, u64)> {
        let mut v = Vec::new();
        ix.neighbors_within(probe, at(probe), radius, |ri, sep| {
            v.push((ri, sep.to_bits()))
        });
        v.sort_unstable();
        v
    }

    /// Every `(row, sep)` a probe yields, with trig-derived positions on
    /// both sides.
    fn dec_zone_pairs(ix: &DecZoneIndex, probe: UnitVec3, radius: f64) -> Vec<(u32, u64)> {
        pairs_at(ix, probe, ra_dec, radius)
    }

    #[test]
    fn dec_zones_agree_with_zone_index_on_small_sky() {
        // Same pairs, bit-identical separations, at radii on both sides
        // of every HTM bucket-level boundary.
        let objs = SkyModel::small(31).generate().unwrap();
        let tags: Vec<TagObject> = objs.iter().map(TagObject::from_photo).collect();
        let points: Vec<UnitVec3> = tags.iter().map(TagObject::unit_vec).collect();
        let deep: Vec<u64> = objs.iter().map(|o| o.htm20).collect();
        for radius in [0.5, 10.0, 200.0, 900.0, 3600.0, 5400.0] {
            let zones = ZoneIndex::build_from_deep(&deep, ZoneIndex::level_for_radius(radius));
            let stripes = index_at(&points, ra_dec, radius, false);
            assert_eq!(stripes.len(), tags.len());
            let mut pairs = 0usize;
            for probe in tags.iter().step_by(7) {
                let mut want = Vec::new();
                zones
                    .neighbors_within(&tags, probe.unit_vec(), radius, |ri, sep| {
                        want.push((ri, sep.to_bits()))
                    })
                    .unwrap();
                want.sort_unstable();
                let got = dec_zone_pairs(&stripes, probe.unit_vec(), radius);
                pairs += got.len();
                assert_eq!(got, want, "radius {radius}");
            }
            assert!(pairs > 0, "radius {radius}: vacuous");
        }
    }

    /// Brute-force reference: every point within the radius.
    fn brute(points: &[UnitVec3], probe: UnitVec3, radius: f64) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = points
            .iter()
            .enumerate()
            .filter_map(|(i, &p)| {
                let sep = probe.separation_deg(p) * 3600.0;
                (sep <= radius).then_some((i as u32, sep.to_bits()))
            })
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn dec_zones_handle_ra_wrap_and_poles() {
        // A grid straddling ra = 0/360, and rings at |dec| >= 89.9 where
        // the RA window degenerates into whole stripes.
        let mut points = Vec::new();
        for i in 0..40 {
            for j in 0..20 {
                let ra = (359.99 + i as f64 * 0.0007).rem_euclid(360.0);
                points.push(
                    SkyPos::new(ra, -0.005 + j as f64 * 0.0005)
                        .unwrap()
                        .unit_vec(),
                );
            }
        }
        for pole in [89.9f64, -89.9] {
            for i in 0..120 {
                let dec = pole + pole.signum() * (i % 10) as f64 * 0.0099;
                points.push(SkyPos::new(i as f64 * 3.0, dec).unwrap().unit_vec());
            }
        }
        points.push(UnitVec3::new_unchecked(0.0, 0.0, 1.0));
        for radius in [0.5, 2.0, 7.5, 40.0, 400.0, 4000.0] {
            let ix = index_at(&points, ra_dec, radius, false);
            for &probe in points.iter().step_by(3) {
                assert_eq!(
                    dec_zone_pairs(&ix, probe, radius),
                    brute(&points, probe, radius),
                    "radius {radius}"
                );
            }
        }
    }

    /// The probes of a filter test around `points`: each point itself,
    /// points `radius` away from it in eight directions, and a grid whose
    /// declinations are whole multiples of the radius (the stripe edges
    /// of an index one radius tall), at RAs either side of 0/360.
    fn probes_around(points: &[UnitVec3], radius: f64) -> Vec<UnitVec3> {
        let at = |ra: f64, dec: f64| SkyPos::new(ra, dec).unwrap().unit_vec();
        let r = radius / 3600.0;
        let mut probes = points.to_vec();
        for &p in points {
            let pos = SkyPos::from_unit_vec(p);
            for k in 0..8 {
                probes.push(pos.offset_by(k as f64 * 45.0, r).unit_vec());
            }
        }
        let dec = SkyPos::from_unit_vec(points[0]).dec_deg();
        let edge = (dec / r).round() * r;
        for k in -4..=4 {
            for ra in [0.0, 359.9999999, 0.05] {
                let dec = (edge + k as f64 * r).clamp(-90.0, 90.0);
                probes.push(at(ra, dec));
            }
        }
        probes
    }

    #[test]
    fn lane_fed_probes_report_the_same_pairs() {
        // Build rows and probes fed the scan lanes' (ra, dec) —
        // `SkyPos::from_unit_vec`, which can round RA up to 360 — pair
        // exactly like rows and probes fed trig on the vectors: across
        // RA 0/360, at both poles, and with caps whose edges land on
        // stripe boundaries.
        let at = |ra: f64, dec: f64| SkyPos::new(ra, dec).unwrap().unit_vec();
        // An equatorial strip across RA 0/360 (points close enough for
        // the stripes to be one radius tall, so the caps below end on
        // stripe edges), and one cluster at each pole. The first two
        // strip points have lane RA 360.
        let mut strip = vec![
            UnitVec3::new_unchecked(1.0, -1e-300, 0.0),
            UnitVec3::new_unchecked(1.0, -f64::EPSILON, 0.0),
        ];
        assert_eq!(lanes(strip[1]).0, 360.0);
        let mut north = vec![UnitVec3::new_unchecked(0.0, 0.0, 1.0)];
        let mut south = vec![UnitVec3::new_unchecked(0.0, 0.0, -1.0)];
        for i in 0..200 {
            let ra = (359.95 + i as f64 * 0.0005).rem_euclid(360.0);
            strip.push(at(ra, -0.2 + (i % 40) as f64 * 0.01));
            north.push(at(i as f64 * 1.8, 89.99 + (i % 10) as f64 * 0.0005));
            south.push(at(i as f64 * 1.8, -89.99 - (i % 10) as f64 * 0.0005));
        }
        for points in [&strip, &north, &south] {
            for radius in [3.6, 36.0, 360.0] {
                let probes = probes_around(points, radius);
                let by_trig = index_at(points, ra_dec, radius, false);
                let by_lanes = index_at(points, lanes, radius, false);
                let mut pairs = 0;
                for &probe in &probes {
                    let want = dec_zone_pairs(&by_trig, probe, radius);
                    assert_eq!(want, brute(points, probe, radius), "radius {radius}");
                    for (ix, at) in [
                        (&by_trig, lanes as fn(_) -> _),
                        (&by_lanes, ra_dec),
                        (&by_lanes, lanes),
                    ] {
                        assert_eq!(
                            pairs_at(ix, probe, at, radius),
                            want,
                            "radius {radius}, probe {probe:?}"
                        );
                    }
                    pairs += want.len();
                }
                // More than each point's pair with itself.
                assert!(pairs > points.len(), "radius {radius}: vacuous");
            }
        }
    }

    /// A small deterministic generator of uniform deviates.
    struct Lcg(u64);

    impl Lcg {
        fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lo + (hi - lo) * ((self.0 >> 11) as f64 / (1u64 << 53) as f64)
        }

        /// A position with RA `ra ± half_ra` (wrapped) and dec in
        /// `[dec_lo, dec_hi]`.
        fn around(&mut self, ra: f64, half_ra: f64, dec_lo: f64, dec_hi: f64) -> UnitVec3 {
            let ra = (ra + self.uniform(-half_ra, half_ra)).rem_euclid(360.0);
            SkyPos::new(ra, self.uniform(dec_lo, dec_hi))
                .unwrap()
                .unit_vec()
        }
    }

    #[test]
    fn occupancy_filter_never_drops_a_pair() {
        // Sparse build rows (the set-vs-archive shape): filtered and
        // unfiltered lane-built indexes report the same (row, sep bits)
        // for every probe, both equal to brute force, for probes on the
        // rows, exactly one radius from them, on stripe edges and at
        // random in a wider field. Compact rows get a filter of the
        // index's stripes, spread ones a coarser one, and rows all round
        // the sky one whose box is the whole circle.
        let mut rng = Lcg(7);
        let mut layouts = (0, 0, 0);
        // (RA centre, RA half-width, dec range, whether a filter is built)
        let fields = [
            (0.0, 1.0, (-1.0, 1.0), true), // across RA 0/360
            (120.0, 40.0, (85.0, 88.0), true),
            (300.0, 40.0, (-88.0, -85.0), true),
            (180.0, 180.0, (60.0, 70.0), true), // all round the sky
            (0.0, 180.0, (89.95, 89.9999), false), // caps reach the poles
            (0.0, 180.0, (-89.9999, -89.95), false),
        ];
        for (k, &(ra, half_ra, (dec_lo, dec_hi), filtered)) in fields.iter().enumerate() {
            let mut points: Vec<UnitVec3> = (0..300)
                .map(|_| rng.around(ra, half_ra, dec_lo, dec_hi))
                .collect();
            if filtered && half_ra == 180.0 {
                // Rows next to RA 0, 180 and 360: no arc shorter than the
                // whole circle holds them.
                for ra in [0.0001, 179.9999, 180.0001, 359.9999] {
                    points.push(SkyPos::new(ra, 65.0).unwrap().unit_vec());
                }
            }
            let mut probes: Vec<UnitVec3> = (0..3000)
                .map(|_| {
                    let (lo, hi) = ((dec_lo - 0.1f64).max(-90.0), (dec_hi + 0.1f64).min(90.0));
                    rng.around(ra, half_ra + 0.1, lo, hi)
                })
                .collect();
            // A probe exactly at the radius from row 0: the radius is
            // its computed separation.
            let p0 = SkyPos::from_unit_vec(points[0]);
            let at_radius = p0.offset_by(37.0, 25.0 / 3600.0).unit_vec();
            let exact = points[0].separation_deg(at_radius) * 3600.0;
            probes.push(at_radius);
            for radius in [3.6, exact, 30.0, 36.0, 360.0] {
                let ctx = format!("field {k}, radius {radius}");
                let plain = index_at(&points, lanes, radius, false);
                let filter = index_at(&points, lanes, radius, true);
                assert_eq!(filter.occupancy.is_some(), filtered, "{ctx}");
                // Fine boxes (zones the index's stripes) and coarse ones.
                if let Some(o) = &filter.occupancy {
                    if o.zones_per_deg == 1.0 / filter.height_deg {
                        layouts.0 += 1;
                    } else {
                        layouts.1 += 1;
                    }
                    layouts.2 += usize::from(o.width == o.cells);
                }
                let mut probes = probes.clone();
                probes.extend(probes_around(&points, radius));
                let (mut pairs, mut turned_away) = (0, 0);
                for &probe in &probes {
                    let got = pairs_at(&filter, probe, lanes, radius);
                    let want = pairs_at(&plain, probe, lanes, radius);
                    turned_away += usize::from(filter.turns_away(lanes(probe), radius));
                    assert_eq!(got, want, "{ctx}, probe {probe:?}");
                    assert_eq!(
                        want,
                        brute(&points, probe, radius),
                        "{ctx}, probe {probe:?}"
                    );
                    pairs += want.len();
                }
                if radius == exact {
                    let got = pairs_at(&filter, at_radius, lanes, radius);
                    assert!(
                        got.iter().any(|&(ri, _)| ri == 0),
                        "{ctx}: lost the pair at the radius"
                    );
                }
                assert!(pairs > points.len(), "{ctx}: vacuous");
                // Where the rows are sparse the filter turns most of the
                // 3000 random probes away before any stripe search.
                if filtered && radius <= 36.0 {
                    assert!(turned_away > 1500, "{ctx}: {turned_away}");
                } else if !filtered {
                    assert_eq!(turned_away, 0, "{ctx}");
                }
            }
        }
        assert!(
            layouts.0 >= 3 && layouts.1 >= 3 && layouts.2 >= 3,
            "{layouts:?}"
        );
    }

    #[test]
    fn dec_zones_include_pairs_at_exactly_the_radius() {
        let points: Vec<UnitVec3> = (0..50)
            .map(|i| {
                SkyPos::new(10.0 + i as f64 * 0.00071, 45.0 + i as f64 * 0.00033)
                    .unwrap()
                    .unit_vec()
            })
            .collect();
        for k in [1usize, 5, 20] {
            // The radius is one pair's own computed separation.
            let radius = points[0].separation_deg(points[k]) * 3600.0;
            for occupancy in [false, true] {
                let ix = index_at(&points, ra_dec, radius, occupancy);
                let got = dec_zone_pairs(&ix, points[0], radius);
                assert!(got.iter().any(|&(ri, _)| ri as usize == k));
                assert_eq!(got, brute(&points, points[0], radius));
            }
        }
    }

    #[test]
    fn empty_dec_zone_index_yields_nothing() {
        for occupancy in [false, true] {
            let ix = DecZoneIndex::build(std::iter::empty(), 10.0, occupancy);
            assert!(ix.is_empty() && ix.occupancy.is_none());
            let probe = UnitVec3::new_unchecked(1.0, 0.0, 0.0);
            assert_eq!(
                ix.neighbors_within(probe, ra_dec(probe), 10.0, |_, _| panic!()),
                0
            );
        }
    }

    fn set_of(points: &[UnitVec3]) -> ResultSet {
        let template = TagObject::from_photo(&SkyModel::small(1).generate().unwrap()[0]);
        let mut b = crate::ResultSetBuilder::new(64);
        for (i, p) in points.iter().enumerate() {
            let t = TagObject {
                obj_id: i as u64,
                x: p.x(),
                y: p.y(),
                z: p.z(),
                ..template
            };
            b.push(&t, 0);
        }
        b.finish()
    }

    #[test]
    fn match_footprint_covers_every_possible_partner() {
        assert_eq!(
            MatchFootprint::of_set(&set_of(&[]), 10.0),
            MatchFootprint::Empty
        );
        let cluster: Vec<UnitVec3> = (0..30)
            .map(|i| {
                SkyPos::new(359.5 + i as f64 * 0.04, 2.0 - i as f64 * 0.03)
                    .unwrap()
                    .unit_vec()
            })
            .collect();
        let radius = 30.0;
        let fp = MatchFootprint::of_set(&set_of(&cluster), radius);
        let cap = fp.domain().expect("a small cluster restricts").clone();
        // Partners exactly `radius` away from every member, in several
        // directions, all fall inside the cap.
        for p in &cluster {
            let pos = SkyPos::from_unit_vec(*p);
            for pa in [0.0, 90.0, 180.0, 270.0, 45.0] {
                let q = pos.offset_by(pa, radius / 3600.0).unit_vec();
                assert!(cap.contains(q));
            }
        }
        // Far from the cluster is outside.
        assert!(!cap.contains(SkyPos::new(180.0, 0.0).unwrap().unit_vec()));
        // A set spread over more than a hemisphere cannot restrict.
        let spread: Vec<UnitVec3> = [
            (0.0, 0.0),
            (90.0, 0.0),
            (180.0, 0.0),
            (270.0, 0.0),
            (0.0, 60.0),
        ]
        .iter()
        .map(|&(ra, dec)| SkyPos::new(ra, dec).unwrap().unit_vec())
        .collect();
        assert_eq!(
            MatchFootprint::of_set(&set_of(&spread), radius),
            MatchFootprint::Whole
        );
    }

    #[test]
    fn match_footprint_ignores_row_order() {
        // Coordinates with many significant bits, where an f64 sum in
        // row order would round differently forwards and backwards.
        let points: Vec<UnitVec3> = (0..500)
            .map(|i| {
                let t = i as f64;
                SkyPos::new(
                    (17.0 + t * 0.731_219_4).rem_euclid(40.0),
                    -20.0 + (t * 0.377_77).rem_euclid(35.0),
                )
                .unwrap()
                .unit_vec()
            })
            .collect();
        let reversed: Vec<UnitVec3> = points.iter().rev().copied().collect();
        let forward = MatchFootprint::of_set(&set_of(&points), 20.0);
        let backward = MatchFootprint::of_set(&set_of(&reversed), 20.0);
        let (Some(f), Some(b)) = (forward.domain(), backward.domain()) else {
            panic!("a 40-degree patch restricts: {forward:?}");
        };
        // Bit-identical caps, not merely close ones.
        assert_eq!(format!("{f:?}"), format!("{b:?}"));
        assert_eq!(forward, backward);
    }

    #[test]
    fn deep_id_build_matches_spherical_build() {
        // The shift-ancestor bucketing must agree with the spherical
        // lookup at every level the radius heuristic picks.
        let objs = SkyModel::small(31).generate().unwrap();
        let tags: Vec<TagObject> = objs.iter().map(TagObject::from_photo).collect();
        let deep: Vec<u64> = objs.iter().map(|o| o.htm20).collect();
        for level in [4u8, 7, 10] {
            let spherical = ZoneIndex::build(&tags, level).unwrap();
            let shifted = ZoneIndex::build_from_deep(&deep, level);
            let collect = |ix: &ZoneIndex, probe: &TagObject| {
                let mut v = Vec::new();
                ix.neighbors_within(&tags, probe.unit_vec(), 300.0, |ri, _| v.push(ri))
                    .unwrap();
                v.sort_unstable();
                v
            };
            for probe in tags.iter().step_by(40) {
                assert_eq!(
                    collect(&spherical, probe),
                    collect(&shifted, probe),
                    "level {level}"
                );
            }
        }
    }
}
