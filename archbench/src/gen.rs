//! Seeded SQL generation for the three workloads.
//!
//! Every statement the archive receives is SQL text built here from the
//! run's `--seed`; the program never sees the seed or the parameters,
//! only the text. One client's sequence depends on nothing but the seed,
//! the workload and the client's index, so the same seed replays the same
//! traffic per client.

use sdss_bench::{FIELD_DEC, FIELD_RA};

/// Statement classes, one per query shape the workloads send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// `interactive`: cone list, `CIRCLE` 0.05–0.45° with an `r <` cut.
    ConeList,
    /// `interactive`: cone colour cut on galaxies.
    ConeColour,
    /// `interactive`: 1° cone `COUNT/AVG`, folded in the scan.
    ConeAgg,
    /// `interactive`: 0.1° cone on full-store attributes (`Full` route).
    ConeFull,
    /// `interactive`: whole-archive colour-cut `COUNT` (every worker slot).
    ArchiveCount,
    /// `sweep`: whole-archive projection streamed to the client.
    SweepProject,
    /// `sweep`: the same predicate as an in-scan aggregate.
    SweepAgg,
    /// `science` step 1: direct columnar `INTO cand`.
    SciInto,
    /// `science` step 2: `UNION ... INTO qso`, the stream-and-fetch path.
    SciUnionInto,
    /// `science` step 3: refine `FROM cand` with a projection (twice).
    SciRefine,
    /// `science` step 4: aggregate over `cand`.
    SciAgg,
    /// `science` step 5: lens pairs, `MATCH(cand, cand, 10)`.
    SciPairs,
    /// `science` step 6: `COUNT(*) FROM MATCH(qso, photoobj, 30)`.
    SciMatchCount,
}

impl Class {
    pub const ALL: [Class; 13] = [
        Class::ConeList,
        Class::ConeColour,
        Class::ConeAgg,
        Class::ConeFull,
        Class::ArchiveCount,
        Class::SweepProject,
        Class::SweepAgg,
        Class::SciInto,
        Class::SciUnionInto,
        Class::SciRefine,
        Class::SciAgg,
        Class::SciPairs,
        Class::SciMatchCount,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::ConeList => "cone_list",
            Class::ConeColour => "cone_colour",
            Class::ConeAgg => "cone_agg",
            Class::ConeFull => "cone_full",
            Class::ArchiveCount => "archive_count",
            Class::SweepProject => "sweep_project",
            Class::SweepAgg => "sweep_agg",
            Class::SciInto => "into_cand",
            Class::SciUnionInto => "into_qso",
            Class::SciRefine => "refine",
            Class::SciAgg => "set_agg",
            Class::SciPairs => "match_pairs",
            Class::SciMatchCount => "match_count",
        }
    }

    /// The four short `interactive` classes `cone_p99_ms` is taken over.
    pub fn is_short_cone(self) -> bool {
        matches!(
            self,
            Class::ConeList | Class::ConeColour | Class::ConeAgg | Class::ConeFull
        )
    }

    pub fn is_into(self) -> bool {
        matches!(self, Class::SciInto | Class::SciUnionInto)
    }

    pub fn is_match(self) -> bool {
        matches!(self, Class::SciPairs | Class::SciMatchCount)
    }

    /// Single-row answers compared within the float-merge tolerance.
    pub fn is_aggregate(self) -> bool {
        matches!(
            self,
            Class::ConeAgg
                | Class::ArchiveCount
                | Class::SweepAgg
                | Class::SciAgg
                | Class::SciMatchCount
        )
    }
}

/// The workloads, with the reason each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Interactive,
    Sweep,
    Science,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "interactive" => Some(Workload::Interactive),
            "sweep" => Some(Workload::Sweep),
            "science" => Some(Workload::Science),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Interactive => "interactive",
            Workload::Sweep => "sweep",
            Workload::Science => "science",
        }
    }

    /// Why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Interactive => {
                "SkyServer's traffic is mostly small cone searches typed into web forms: \
                 nproc clients, each request parsed and planned, half the cones on hot \
                 positions that fit the cover cache, 5% whole-archive counts that take \
                 every worker slot. Stresses parse/plan, cover resolution, admission \
                 waits and small-morsel scans; little channel, INTO or MATCH work."
            }
            Workload::Sweep => {
                "The paper's case for 64-byte tag scans: one client alternating a \
                 whole-archive projection (~1e5 rows through the channel, coalescing \
                 and edge materialization) with the same predicate as an in-scan \
                 aggregate (one row out). Same kernel and morsel pool; only the \
                 projection uses the fabric. Parse and cover are negligible."
            }
            Workload::Science => {
                "The paper's multi-step science scenarios: select candidates INTO a set, \
                 refine and aggregate it, then cross-match. The only writing workload: \
                 ResultSetBuilder and quotas, stored-set scans, zone-index build and \
                 probe, pair evaluation, over the same tag kernel as sweep."
            }
        }
    }
}

/// One generated statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub class: Class,
    pub sql: String,
}

/// splitmix64: tiny, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Independent stream for one (seed, purpose, index) triple.
pub fn stream(seed: u64, purpose: u64, index: u64) -> Rng {
    let mut mix = Rng::new(seed ^ purpose.wrapping_mul(0xA24B_AED4_963E_E407));
    let base = mix.next_u64();
    Rng::new(base ^ index.wrapping_mul(0x9FB2_1C65_1E98_DF25))
}

const PURPOSE_HOT: u64 = 1;
const PURPOSE_CLIENT: u64 = 2;

/// Hot cone positions shared by every `interactive` client; 32 fit the
/// 128-entry cover cache together with their 1° and full-store variants.
pub const HOT_POSITIONS: usize = 32;

/// A cone centre, with the list/colour radius it is always queried at
/// (a hot position repeats the whole domain, so it hits the cover cache).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cone {
    pub ra: f64,
    pub dec: f64,
    pub radius: f64,
}

/// The position at polar offset `r` degrees, angle `theta`, from the field
/// centre, rounded the way the SQL text prints it.
fn offset(r: f64, theta: f64) -> (f64, f64) {
    let dec = FIELD_DEC + r * theta.sin();
    let ra = FIELD_RA + r * theta.cos() / dec.to_radians().cos();
    (round4(ra), round4(dec))
}

/// A point uniform in a cap of `max_deg` around the field centre.
fn field_point(rng: &mut Rng, max_deg: f64) -> (f64, f64) {
    offset(
        max_deg * rng.unit().sqrt(),
        rng.range(0.0, std::f64::consts::TAU),
    )
}

fn round4(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}

/// Cones lie within this many degrees of the field centre.
const CONE_FIELD_DEG: f64 = 4.0;
const CONE_MIN_DEG: f64 = 0.05;
const CONE_MAX_DEG: f64 = 0.45;

fn cone(rng: &mut Rng) -> Cone {
    let (ra, dec) = field_point(rng, CONE_FIELD_DEG);
    Cone {
        ra,
        dec,
        radius: round4(rng.range(CONE_MIN_DEG, CONE_MAX_DEG)),
    }
}

/// Rings and sectors of the equal-area cells the hot positions fill.
const HOT_RINGS: usize = 4;
const HOT_SECTORS: usize = HOT_POSITIONS / HOT_RINGS;

/// The hot positions, stratified: one jittered point in each of 32
/// equal-area cells of the field, and the radii one jittered draw from
/// each of 32 equal slices of the radius range, dealt to the cells in a
/// seeded order. Every seed then covers the whole field and the whole
/// radius range, so the cost of the hot half of the traffic varies
/// little from seed to seed (32 free draws of the radius alone would
/// move the mean cone area by ~14%).
pub fn hot_positions(seed: u64) -> Vec<Cone> {
    let mut rng = stream(seed, PURPOSE_HOT, 0);
    let n = HOT_POSITIONS as f64;
    let mut radii: Vec<f64> = (0..HOT_POSITIONS)
        .map(|i| CONE_MIN_DEG + (CONE_MAX_DEG - CONE_MIN_DEG) * (i as f64 + rng.unit()) / n)
        .collect();
    for i in (1..radii.len()).rev() {
        radii.swap(i, rng.below(i + 1));
    }
    (0..HOT_POSITIONS)
        .map(|i| {
            let (ring, sector) = ((i / HOT_SECTORS) as f64, (i % HOT_SECTORS) as f64);
            let r = CONE_FIELD_DEG * ((ring + rng.unit()) / HOT_RINGS as f64).sqrt();
            let theta = std::f64::consts::TAU * (sector + rng.unit()) / HOT_SECTORS as f64;
            let (ra, dec) = offset(r, theta);
            Cone {
                ra,
                dec,
                radius: round4(radii[i]),
            }
        })
        .collect()
}

/// One `science` scenario: a 2° field and a colour window.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    pub ra: f64,
    pub dec: f64,
    pub gr_lo: f64,
    pub gr_hi: f64,
    pub refine_r: f64,
    pub refine_ri: f64,
}

pub const CAND_RADIUS_ARCSEC: f64 = 10.0;
pub const QSO_RADIUS_ARCSEC: f64 = 30.0;

impl Scenario {
    pub fn cand_where(&self) -> String {
        format!(
            "CIRCLE({}, {}, 2) AND r < 22 AND gr BETWEEN {} AND {}",
            self.ra, self.dec, self.gr_lo, self.gr_hi
        )
    }

    /// The candidate selection without `INTO` (its rows are the set's).
    pub fn cand_source(&self) -> String {
        format!("SELECT objid FROM photoobj WHERE {}", self.cand_where())
    }

    /// The quasar-candidate union without `INTO`.
    pub fn qso_source(&self) -> String {
        format!(
            "(SELECT objid FROM photoobj WHERE CIRCLE({ra}, {dec}, 2) AND class = 'QSO') \
             UNION (SELECT objid FROM photoobj WHERE CIRCLE({ra}, {dec}, 2) AND ug < 0.4)",
            ra = self.ra,
            dec = self.dec
        )
    }

    /// Steps 1–6; step 7 (dropping both sets) is an API call, not SQL.
    /// The set is refined twice, by magnitude and by colour: with two
    /// refines the median latency and the median time to first row each
    /// fall inside one statement class instead of on the gap between two
    /// (a scenario would otherwise hold an even number of each).
    pub fn steps(&self) -> Vec<Stmt> {
        let stmt = |class, sql: String| Stmt { class, sql };
        vec![
            stmt(
                Class::SciInto,
                format!(
                    "SELECT objid INTO cand FROM photoobj WHERE {}",
                    self.cand_where()
                ),
            ),
            stmt(
                Class::SciUnionInto,
                format!("{} INTO qso", self.qso_source()),
            ),
            stmt(
                Class::SciRefine,
                format!(
                    "SELECT objid, ra, dec, r, gr FROM cand WHERE r < {}",
                    self.refine_r
                ),
            ),
            stmt(
                Class::SciRefine,
                format!(
                    "SELECT objid, ra, dec, gr, ri FROM cand WHERE ri < {}",
                    self.refine_ri
                ),
            ),
            stmt(
                Class::SciAgg,
                "SELECT COUNT(*), AVG(gr), MIN(r), MAX(r) FROM cand".to_string(),
            ),
            stmt(
                Class::SciPairs,
                format!(
                    "SELECT a.objid, b.objid, sep_arcsec FROM MATCH(cand, cand, {}) \
                     WHERE a.objid < b.objid",
                    CAND_RADIUS_ARCSEC
                ),
            ),
            stmt(
                Class::SciMatchCount,
                format!(
                    "SELECT COUNT(*) FROM MATCH(qso, photoobj, {})",
                    QSO_RADIUS_ARCSEC
                ),
            ),
        ]
    }
}

/// One client's statement source.
#[derive(Debug, Clone)]
pub struct SqlGen {
    workload: Workload,
    rng: Rng,
    hot: Vec<Cone>,
    issued: u64,
}

impl SqlGen {
    pub fn new(workload: Workload, seed: u64, client: usize) -> SqlGen {
        SqlGen {
            workload,
            rng: stream(seed, PURPOSE_CLIENT, client as u64),
            hot: hot_positions(seed),
            issued: 0,
        }
    }

    /// The next statement of an `interactive` or `sweep` client.
    pub fn next_stmt(&mut self) -> Stmt {
        let k = self.issued;
        self.issued += 1;
        match self.workload {
            Workload::Interactive => self.interactive(),
            // One projection, then two aggregates: the median falls in
            // the aggregate shape and the 90th percentile in the
            // projection shape, so neither sits on the boundary between
            // the two latency modes.
            Workload::Sweep => self.sweep(k.is_multiple_of(3)),
            Workload::Science => panic!("science clients run scenarios"),
        }
    }

    /// The next `science` scenario.
    pub fn next_scenario(&mut self) -> Scenario {
        assert_eq!(
            self.workload,
            Workload::Science,
            "only science runs scenarios"
        );
        self.issued += 1;
        let (ra, dec) = field_point(&mut self.rng, 3.0);
        let gr_lo = round4(self.rng.range(0.2, 0.5));
        Scenario {
            ra,
            dec,
            gr_lo,
            gr_hi: round4(gr_lo + 0.6),
            refine_r: round4(self.rng.range(20.5, 21.5)),
            refine_ri: round4(self.rng.range(0.2, 0.6)),
        }
    }

    fn interactive(&mut self) -> Stmt {
        let u = self.rng.unit();
        let class = if u < 0.50 {
            Class::ConeList
        } else if u < 0.70 {
            Class::ConeColour
        } else if u < 0.85 {
            Class::ConeAgg
        } else if u < 0.95 {
            Class::ConeFull
        } else {
            Class::ArchiveCount
        };
        let c = if self.rng.unit() < 0.5 {
            self.hot[self.rng.below(self.hot.len())]
        } else {
            cone(&mut self.rng)
        };
        let sql = match class {
            Class::ConeList => format!(
                "SELECT objid, ra, dec, r, gr FROM photoobj WHERE CIRCLE({}, {}, {}) AND r < {}",
                c.ra,
                c.dec,
                c.radius,
                round4(self.rng.range(20.5, 23.0))
            ),
            Class::ConeColour => {
                let lo = round4(self.rng.range(0.2, 0.9));
                format!(
                    "SELECT objid, ra, dec, gr FROM photoobj WHERE CIRCLE({}, {}, {}) \
                     AND class = 'GALAXY' AND gr BETWEEN {} AND {}",
                    c.ra,
                    c.dec,
                    c.radius,
                    lo,
                    round4(lo + self.rng.range(0.2, 0.5))
                )
            }
            Class::ConeAgg => format!(
                "SELECT COUNT(*), AVG(r) FROM photoobj WHERE CIRCLE({}, {}, 1) AND r < {}",
                c.ra,
                c.dec,
                round4(self.rng.range(20.5, 23.0))
            ),
            Class::ConeFull => format!(
                "SELECT objid, ra, dec, psf_r, ra_err FROM photoobj \
                 WHERE CIRCLE({}, {}, 0.1) AND psf_r < {}",
                c.ra,
                c.dec,
                round4(self.rng.range(21.0, 24.0))
            ),
            _ => {
                let lo = round4(self.rng.range(0.2, 0.8));
                format!(
                    "SELECT COUNT(*) FROM photoobj WHERE gr BETWEEN {} AND {} AND ri < {}",
                    lo,
                    round4(lo + 0.4),
                    round4(self.rng.range(0.2, 0.6))
                )
            }
        };
        Stmt { class, sql }
    }

    fn sweep(&mut self, projection: bool) -> Stmt {
        let lo = round4(self.rng.range(0.1, 0.5));
        let hi = round4(lo + 0.6);
        if projection {
            Stmt {
                class: Class::SweepProject,
                sql: format!(
                    "SELECT objid, ra, dec, r, gr, ri FROM photoobj WHERE gr BETWEEN {lo} AND {hi}"
                ),
            }
        } else {
            Stmt {
                class: Class::SweepAgg,
                sql: format!(
                    "SELECT COUNT(*), AVG(r), MIN(gr), MAX(gr) FROM photoobj \
                     WHERE gr BETWEEN {lo} AND {hi}"
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(workload: Workload, seed: u64, client: usize, n: usize) -> Vec<String> {
        let mut gen = SqlGen::new(workload, seed, client);
        (0..n)
            .map(|_| match workload {
                Workload::Science => format!("{:?}", gen.next_scenario().steps()),
                _ => gen.next_stmt().sql,
            })
            .collect()
    }

    #[test]
    fn same_seed_same_sql_per_client() {
        for workload in [Workload::Interactive, Workload::Sweep, Workload::Science] {
            for client in 0..3 {
                assert_eq!(
                    sequence(workload, 42, client, 200),
                    sequence(workload, 42, client, 200),
                    "{workload:?} client {client}"
                );
            }
            assert_ne!(sequence(workload, 42, 0, 50), sequence(workload, 43, 0, 50));
        }
        assert_ne!(
            sequence(Workload::Interactive, 42, 0, 50),
            sequence(Workload::Interactive, 42, 1, 50)
        );
    }

    #[test]
    fn interactive_mix_and_hot_share() {
        let mut gen = SqlGen::new(Workload::Interactive, 7, 0);
        let hot = hot_positions(7);
        let n = 20_000;
        let mut counts = std::collections::HashMap::new();
        let mut hot_hits = 0;
        for _ in 0..n {
            let s = gen.next_stmt();
            *counts.entry(s.class).or_insert(0usize) += 1;
            if hot
                .iter()
                .any(|c| s.sql.contains(&format!("CIRCLE({}, {},", c.ra, c.dec)))
            {
                hot_hits += 1;
            }
        }
        let share = |c: Class| counts[&c] as f64 / n as f64;
        assert!((share(Class::ConeList) - 0.50).abs() < 0.02);
        assert!((share(Class::ConeColour) - 0.20).abs() < 0.02);
        assert!((share(Class::ConeAgg) - 0.15).abs() < 0.02);
        assert!((share(Class::ConeFull) - 0.10).abs() < 0.02);
        assert!((share(Class::ArchiveCount) - 0.05).abs() < 0.01);
        // Half of the cone statements (95% of all) reuse a hot position.
        let hot_share = hot_hits as f64 / (n as f64 * 0.95);
        assert!((hot_share - 0.5).abs() < 0.03, "hot share {hot_share}");
    }

    #[test]
    fn hot_positions_cover_the_field_and_the_radius_range() {
        for seed in [1u64, 2, 3] {
            let hot = hot_positions(seed);
            assert_eq!(hot.len(), HOT_POSITIONS);
            let mut radii: Vec<f64> = hot.iter().map(|c| c.radius).collect();
            radii.sort_by(f64::total_cmp);
            let slice = (CONE_MAX_DEG - CONE_MIN_DEG) / HOT_POSITIONS as f64;
            for (i, r) in radii.iter().enumerate() {
                let lo = CONE_MIN_DEG + slice * i as f64;
                assert!(
                    (lo - 1e-4..=lo + slice + 1e-4).contains(r),
                    "radius {r} in slice {i}"
                );
            }
            for c in &hot {
                let dx = (c.ra - FIELD_RA) * c.dec.to_radians().cos();
                let dy = c.dec - FIELD_DEC;
                assert!((dx * dx + dy * dy).sqrt() <= CONE_FIELD_DEG + 1e-3);
            }
        }
    }

    #[test]
    fn sweep_runs_one_projection_per_two_aggregates() {
        let mut gen = SqlGen::new(Workload::Sweep, 3, 0);
        let classes: Vec<Class> = (0..6).map(|_| gen.next_stmt().class).collect();
        use Class::{SweepAgg as A, SweepProject as P};
        assert_eq!(classes, vec![P, A, A, P, A, A]);
    }
}
