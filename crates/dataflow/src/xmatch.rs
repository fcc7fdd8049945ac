//! Cross-identification between catalogs.
//!
//! Paper, §Data Products: "As the reference astronomical data set, each
//! subsequent astronomical survey will want to cross-identify its objects
//! with the SDSS catalog" — and §Indexing the Sky motivates the common
//! HTM frame precisely because "areas in different catalogs map either
//! directly onto one another, or one is fully contained by another".
//!
//! [`XMatcher::cross_match`] finds, for every object of a *probe* catalog, its
//! nearest SDSS neighbor within a match radius, using the same
//! bucket-with-margin layout as the hash machine: probe objects are
//! joined against reference buckets, so cost is density-bound rather than
//! N·M.

use crate::DataflowError;
use sdss_catalog::TagObject;
/// The zone-partitioned build side (`sdss_storage::zone`; the query
/// engine's `MATCH(a, b, radius)` join uses that module's
/// declination-zone index instead).
pub use sdss_storage::ZoneIndex;

/// One cross-match result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Match {
    /// Index into the probe catalog.
    pub probe_idx: u32,
    /// Matched reference object id.
    pub ref_obj_id: u64,
    pub sep_arcsec: f64,
}

/// Summary of a cross-match run.
#[derive(Debug, Clone)]
pub struct XMatchReport {
    pub probes: usize,
    pub matched: usize,
    /// Probe objects with no reference neighbor in the radius.
    pub unmatched: usize,
    /// Probe objects with 2+ candidates (matched to the nearest).
    pub ambiguous: usize,
    /// Candidate distance computations performed.
    pub comparisons: usize,
}

/// Configuration.
#[derive(Debug, Clone, Copy)]
pub struct XMatcher {
    /// Bucket level for the reference index.
    pub bucket_level: u8,
    /// Match radius, arcseconds.
    pub radius_arcsec: f64,
}

impl Default for XMatcher {
    fn default() -> Self {
        XMatcher {
            bucket_level: 10,
            radius_arcsec: 2.0, // typical astrometric match tolerance
        }
    }
}

impl XMatcher {
    /// Nearest-neighbor match of every probe position against the
    /// reference catalog. Returns one [`Match`] per probe that has at
    /// least one reference object within the radius.
    pub fn cross_match(
        &self,
        reference: &[TagObject],
        probe: &[TagObject],
    ) -> Result<(Vec<Match>, XMatchReport), DataflowError> {
        if self.radius_arcsec <= 0.0 {
            return Err(DataflowError::InvalidConfig(
                "non-positive match radius".into(),
            ));
        }
        // The zone-partitioned build side.
        let index = ZoneIndex::build(reference, self.bucket_level)
            .map_err(|e| DataflowError::InvalidConfig(e.to_string()))?;

        let mut matches = Vec::new();
        let mut unmatched = 0usize;
        let mut ambiguous = 0usize;
        let mut comparisons = 0usize;
        for (pi, p) in probe.iter().enumerate() {
            let mut best: Option<(u64, f64)> = None;
            let mut candidates = 0usize;
            comparisons += index
                .neighbors_within(reference, p.unit_vec(), self.radius_arcsec, |ri, sep| {
                    candidates += 1;
                    if best.is_none_or(|(_, b)| sep < b) {
                        best = Some((reference[ri as usize].obj_id, sep));
                    }
                })
                .map_err(|e| DataflowError::InvalidConfig(e.to_string()))?;
            match best {
                Some((ref_obj_id, sep_arcsec)) => {
                    if candidates > 1 {
                        ambiguous += 1;
                    }
                    matches.push(Match {
                        probe_idx: pi as u32,
                        ref_obj_id,
                        sep_arcsec,
                    });
                }
                None => unmatched += 1,
            }
        }
        let report = XMatchReport {
            probes: probe.len(),
            matched: matches.len(),
            unmatched,
            ambiguous,
            comparisons,
        };
        Ok((matches, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sdss_catalog::{SkyModel, TagObject};
    use sdss_skycoords::SkyPos;

    fn reference(seed: u64) -> Vec<TagObject> {
        SkyModel::small(seed)
            .generate()
            .unwrap()
            .iter()
            .map(TagObject::from_photo)
            .collect()
    }

    /// A probe catalog: the reference positions jittered by sub-arcsecond
    /// astrometric noise (a later survey observing the same sky).
    fn jittered_probe(reference: &[TagObject], jitter_arcsec: f64, seed: u64) -> Vec<TagObject> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        reference
            .iter()
            .map(|r| {
                let pos = SkyPos::from_unit_vec(r.unit_vec());
                let pa: f64 = rng.gen_range(0.0..360.0);
                let dr: f64 = rng.gen();
                let moved = pos.offset_by(pa, dr * jitter_arcsec / 3600.0);
                let v = moved.unit_vec();
                TagObject {
                    obj_id: r.obj_id + 1_000_000, // new survey, new ids
                    x: v.x(),
                    y: v.y(),
                    z: v.z(),
                    ..*r
                }
            })
            .collect()
    }

    #[test]
    fn recovers_jittered_counterparts() {
        let refs = reference(1);
        let probe = jittered_probe(&refs, 0.5, 2);
        let matcher = XMatcher {
            bucket_level: 10,
            radius_arcsec: 2.0,
        };
        let (matches, report) = matcher.cross_match(&refs, &probe).unwrap();
        // Every probe must match, and (almost always) to its own source.
        assert_eq!(report.unmatched, 0, "{report:?}");
        let mut correct = 0;
        for m in &matches {
            if probe[m.probe_idx as usize].obj_id == m.ref_obj_id + 1_000_000 {
                correct += 1;
            }
            assert!(m.sep_arcsec <= 2.0);
        }
        // Dense cluster cores can genuinely swap nearest neighbors;
        // demand 99%+.
        assert!(
            correct * 100 >= matches.len() * 99,
            "only {correct}/{} correct",
            matches.len()
        );
    }

    #[test]
    fn distant_probes_do_not_match() {
        let refs = reference(3);
        // A probe field on the opposite side of the sky.
        let mut probe = refs.clone();
        for p in &mut probe {
            let pos = SkyPos::from_unit_vec(p.unit_vec());
            let anti = SkyPos::new(pos.ra_deg() + 180.0, -pos.dec_deg()).unwrap();
            let v = anti.unit_vec();
            p.x = v.x();
            p.y = v.y();
            p.z = v.z();
        }
        let (matches, report) = XMatcher::default().cross_match(&refs, &probe).unwrap();
        assert!(matches.is_empty());
        assert_eq!(report.unmatched, probe.len());
    }

    #[test]
    fn nearest_wins_among_candidates() {
        // Two reference objects 1.5" apart; probe sits 0.3" from one.
        let a_pos = SkyPos::new(185.0, 15.0).unwrap();
        let b_pos = a_pos.offset_by(90.0, 1.5 / 3600.0);
        let p_pos = a_pos.offset_by(90.0, 0.3 / 3600.0);
        let mk = |pos: SkyPos, id: u64| {
            let v = pos.unit_vec();
            TagObject {
                obj_id: id,
                x: v.x(),
                y: v.y(),
                z: v.z(),
                ..TagObject::default()
            }
        };
        let refs = vec![mk(a_pos, 1), mk(b_pos, 2)];
        let probe = vec![mk(p_pos, 100)];
        let matcher = XMatcher {
            bucket_level: 10,
            radius_arcsec: 3.0,
        };
        let (matches, report) = matcher.cross_match(&refs, &probe).unwrap();
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].ref_obj_id, 1, "nearest neighbor wins");
        assert_eq!(report.ambiguous, 1);
    }

    #[test]
    fn bucket_boundaries_do_not_lose_matches() {
        // Brute-force cross-check on a dense field.
        let refs = reference(4);
        let probe = jittered_probe(&refs[..300], 1.0, 5);
        let matcher = XMatcher {
            bucket_level: 12, // tiny buckets ⇒ many boundary crossings
            radius_arcsec: 3.0,
        };
        let (matches, _) = matcher.cross_match(&refs, &probe).unwrap();
        // Brute force nearest neighbor.
        for (pi, p) in probe.iter().enumerate() {
            let mut best: Option<(u64, f64)> = None;
            for r in &refs {
                let sep = p.unit_vec().separation_deg(r.unit_vec()) * 3600.0;
                if sep <= 3.0 && best.is_none_or(|(_, b)| sep < b) {
                    best = Some((r.obj_id, sep));
                }
            }
            let got = matches.iter().find(|m| m.probe_idx == pi as u32);
            match (best, got) {
                (Some((want_id, _)), Some(m)) => assert_eq!(m.ref_obj_id, want_id),
                (None, None) => {}
                (want, got) => panic!("probe {pi}: want {want:?}, got {got:?}"),
            }
        }
    }

    #[test]
    fn zone_index_streams_all_pairs_within_radius() {
        // neighbors_within is a pair join, not nearest-only: every
        // reference inside the radius must be reported exactly once,
        // including across zone boundaries (tiny level-12 buckets).
        let refs = reference(6);
        let probe = jittered_probe(&refs[..200], 2.0, 7);
        let radius = 5.0;
        let index = ZoneIndex::build(&refs, 12).unwrap();
        for p in &probe {
            let mut got: Vec<(u32, f64)> = Vec::new();
            index
                .neighbors_within(&refs, p.unit_vec(), radius, |ri, sep| got.push((ri, sep)))
                .unwrap();
            let mut want: Vec<u32> = refs
                .iter()
                .enumerate()
                .filter(|(_, r)| p.unit_vec().separation_deg(r.unit_vec()) * 3600.0 <= radius)
                .map(|(i, _)| i as u32)
                .collect();
            let mut got_idx: Vec<u32> = got.iter().map(|(i, _)| *i).collect();
            got_idx.sort_unstable();
            want.sort_unstable();
            assert_eq!(got_idx, want);
            for (ri, sep) in got {
                let direct = p.unit_vec().separation_deg(refs[ri as usize].unit_vec()) * 3600.0;
                assert!((sep - direct).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn level_for_radius_scales_with_cap_size() {
        assert_eq!(ZoneIndex::level_for_radius(2.0), 10);
        assert_eq!(ZoneIndex::level_for_radius(1000.0), 7);
        assert_eq!(ZoneIndex::level_for_radius(10_000.0), 4);
    }

    #[test]
    fn invalid_radius_rejected() {
        let matcher = XMatcher {
            bucket_level: 10,
            radius_arcsec: 0.0,
        };
        assert!(matcher.cross_match(&[], &[]).is_err());
    }
}
