//! Answer checks, run outside the timed loop on every run.
//!
//! Each statement class, at the parameters the seed gives it, is run on
//! the archive under test and compared with an `ExecMode::Interpreted`
//! archive over the same stores: projections as canonically sorted
//! multisets, aggregates within the float-merge tolerance. MATCH answers
//! are compared with an O(n·m) great-circle brute force over the set's
//! rows, and INTO set sizes with `COUNT(*)` of the source query. Every
//! comparison is one attempted operation; a mismatch or an error is a
//! failed one.

use crate::gen::{Class, Scenario, SqlGen, Stmt, Workload, CAND_RADIUS_ARCSEC, QSO_RADIUS_ARCSEC};
use crate::run::{archive, Env};
use sdss_catalog::TagObject;
use sdss_query::{Archive, ExecMode, QueryOutput, Row, Session, Value};
use sdss_storage::TagStore;
use std::collections::{BTreeSet, HashMap};

/// Every tag record of the archive, addressable by object id.
pub struct Catalog {
    pub tags: Vec<TagObject>,
    pub htm20: Vec<u64>,
    index: HashMap<u64, u32>,
}

impl Catalog {
    pub fn new(store: &TagStore) -> Catalog {
        let mut tags = Vec::with_capacity(store.len());
        let mut htm20 = Vec::with_capacity(store.len());
        for (_, chunk) in store.column_chunks() {
            for i in 0..chunk.len() {
                tags.push(chunk.row(i));
                htm20.push(chunk.htm20[i]);
            }
        }
        let index = tags
            .iter()
            .enumerate()
            .map(|(i, t)| (t.obj_id, i as u32))
            .collect();
        Catalog { tags, htm20, index }
    }

    /// Catalog rows of the given object ids (unknown ids are an error).
    pub fn rows_of(&self, ids: &[u64]) -> Result<Vec<u32>, String> {
        ids.iter()
            .map(|id| {
                self.index
                    .get(id)
                    .copied()
                    .ok_or_else(|| format!("object {id} is not in the archive"))
            })
            .collect()
    }
}

/// Distinct `objid`s in the first column of an answer, sorted.
pub fn objids(out: &QueryOutput) -> Result<Vec<u64>, String> {
    let set: Result<BTreeSet<u64>, String> = out
        .rows
        .iter()
        .map(|r| {
            r.first()
                .and_then(Value::as_id)
                .ok_or_else(|| "answer row without an objid".to_string())
        })
        .collect();
    Ok(set?.into_iter().collect())
}

/// Ordered pairs `(probe, reference)` within `radius_arcsec`, identity
/// pairs excluded, found by comparing every probe with every reference.
/// Separations use the same formula as the archive, so boundary pairs
/// agree exactly.
pub fn brute_force_pairs(
    cat: &Catalog,
    probe: &[u32],
    reference: &[u32],
    radius_arcsec: f64,
) -> Vec<(u64, u64, f64)> {
    // Cheap dot-product screen, loose enough never to drop a true pair.
    let cos_screen = (radius_arcsec * 1.01 / 3600.0).to_radians().cos();
    let mut pairs = Vec::new();
    for &p in probe {
        let a = &cat.tags[p as usize];
        for &r in reference {
            let b = &cat.tags[r as usize];
            if a.obj_id == b.obj_id || a.x * b.x + a.y * b.y + a.z * b.z < cos_screen {
                continue;
            }
            let sep = a.unit_vec().separation_deg(b.unit_vec()) * 3600.0;
            if sep <= radius_arcsec {
                pairs.push((a.obj_id, b.obj_id, sep));
            }
        }
    }
    pairs
}

#[derive(Debug, Default)]
pub struct CheckOutcome {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl CheckOutcome {
    fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.notes.push(format!("{what}: {e}"));
        }
    }
}

fn canonical(rows: &[Row]) -> Vec<String> {
    let mut keys: Vec<String> = rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| format!("{v:?}"))
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    keys.sort_unstable();
    keys
}

/// Rows equal as multisets (no ORDER BY, so order is free).
pub fn same_multiset(got: &[Row], want: &[Row]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} rows, oracle has {}", got.len(), want.len()));
    }
    let (g, w) = (canonical(got), canonical(want));
    match g.iter().zip(&w).find(|(a, b)| a != b) {
        Some((a, b)) => Err(format!("row {a} where the oracle has {b}")),
        None => Ok(()),
    }
}

/// Relative tolerance for aggregates merged from parallel partials.
const FLOAT_MERGE_TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || (a - b).abs() <= FLOAT_MERGE_TOL * a.abs().max(b.abs()).max(1.0)
}

/// One-row aggregate answers equal within the float-merge tolerance.
pub fn same_aggregate(got: &[Row], want: &[Row]) -> Result<(), String> {
    if got.len() != 1 || want.len() != 1 || got[0].len() != want[0].len() {
        return Err(format!("shape {:?} vs oracle {:?}", got, want));
    }
    for (a, b) in got[0].iter().zip(&want[0]) {
        let ok = match (a.as_num(), b.as_num()) {
            (Some(x), Some(y)) => close(x, y),
            _ => format!("{a:?}") == format!("{b:?}"),
        };
        if !ok {
            return Err(format!("{a:?} where the oracle has {b:?}"));
        }
    }
    Ok(())
}

fn compare(class: Class, got: &[Row], want: &[Row]) -> Result<(), String> {
    if class.is_aggregate() {
        same_aggregate(got, want)
    } else {
        same_multiset(got, want)
    }
}

fn run(a: &Archive, sql: &str) -> Result<QueryOutput, String> {
    a.run(sql).map_err(|e| format!("{sql}: {e}"))
}

fn run_in(s: &Session, sql: &str) -> Result<QueryOutput, String> {
    s.run(sql).map_err(|e| format!("{sql}: {e}"))
}

/// Statements of client 0 checked per class.
const PER_CLASS: usize = 2;

/// The first statements of each class in client 0's seeded sequence.
fn seeded_statements(workload: Workload, seed: u64) -> Vec<Stmt> {
    let mut gen = SqlGen::new(workload, seed, 0);
    let mut taken: HashMap<Class, usize> = HashMap::new();
    let mut out = Vec::new();
    for _ in 0..10_000 {
        let s = gen.next_stmt();
        let n = taken.entry(s.class).or_insert(0);
        if *n < PER_CLASS {
            *n += 1;
            out.push(s);
        }
    }
    out
}

pub fn check(env: &Env, workload: Workload, seed: u64, cat: &Catalog) -> CheckOutcome {
    let oracle = archive(&env.store, &env.tags, env.nproc, ExecMode::Interpreted);
    let mut outcome = CheckOutcome::default();
    match workload {
        Workload::Science => {
            let scenario = SqlGen::new(workload, seed, 0).next_scenario();
            check_scenario(env, &oracle, &scenario, cat, &mut outcome);
        }
        _ => {
            for s in seeded_statements(workload, seed) {
                let result = run(&env.archive, &s.sql)
                    .and_then(|got| Ok((got, run(&oracle, &s.sql)?)))
                    .and_then(|(got, want)| compare(s.class, &got.rows, &want.rows));
                outcome.record(&s.sql, result);
            }
        }
    }
    outcome
}

fn check_pairs(got: &QueryOutput, want: &[(u64, u64, f64)]) -> Result<(), String> {
    let mut g: Vec<(u64, u64, f64)> = got
        .rows
        .iter()
        .map(|r| match r.as_slice() {
            [a, b, sep] => Ok((
                a.as_id().ok_or("a.objid")?,
                b.as_id().ok_or("b.objid")?,
                sep.as_num().ok_or("sep_arcsec")?,
            )),
            _ => Err("pair row of the wrong width"),
        })
        .collect::<Result<_, _>>()?;
    let mut w = want.to_vec();
    g.sort_by_key(|p| (p.0, p.1));
    w.sort_by_key(|p| (p.0, p.1));
    if g.len() != w.len() {
        return Err(format!("{} pairs, brute force finds {}", g.len(), w.len()));
    }
    for (a, b) in g.iter().zip(&w) {
        if (a.0, a.1) != (b.0, b.1) || !close(a.2, b.2) {
            return Err(format!("pair {a:?} where brute force has {b:?}"));
        }
    }
    Ok(())
}

fn check_scenario(
    env: &Env,
    oracle: &Archive,
    sc: &Scenario,
    cat: &Catalog,
    out: &mut CheckOutcome,
) {
    let steps = sc.steps();
    let auto = env.archive.session();
    let interp = oracle.session();
    // Steps 1–2: INTO, then the set sizes against COUNT(*) of the
    // source (the union's distinct objids, which is what it stores).
    let cand_count = format!("SELECT COUNT(*) FROM photoobj WHERE {}", sc.cand_where());
    let into = |session: &Session, what: &str| -> Result<(usize, usize), String> {
        run_in(session, &steps[0].sql)?;
        run_in(session, &steps[1].sql)?;
        let size = |n: &str| {
            session
                .set_info(n)
                .map(|i| i.rows)
                .ok_or(format!("{what}: no set {n}"))
        };
        Ok((size("cand")?, size("qso")?))
    };
    let sizes = into(&auto, "archive").and_then(|a| Ok((a, into(&interp, "oracle")?)));
    let want_cand = run(oracle, &cand_count).and_then(|o| {
        o.rows[0][0]
            .as_num()
            .map(|n| n as usize)
            .ok_or_else(|| "COUNT(*) is not a number".to_string())
    });
    let qso_ids = run(oracle, &sc.qso_source()).and_then(|o| objids(&o));
    let cand_ids = run(oracle, &sc.cand_source()).and_then(|o| objids(&o));
    let (sizes, want_cand, qso_ids, cand_ids) = match (sizes, want_cand, qso_ids, cand_ids) {
        (Ok(s), Ok(c), Ok(q), Ok(ci)) => (s, c, q, ci),
        (s, c, q, ci) => {
            let errs: Vec<String> = [s.err(), c.err(), q.err(), ci.err()]
                .into_iter()
                .flatten()
                .collect();
            out.record("science scenario set-up", Err(errs.join("; ")));
            return;
        }
    };
    let ((cand, qso), (cand_i, qso_i)) = sizes;
    let eq = |got: usize, want: usize| {
        if got == want {
            Ok(())
        } else {
            Err(format!("{got} rows, source query counts {want}"))
        }
    };
    out.record(
        &steps[0].sql,
        eq(cand, want_cand).and(eq(cand_i, want_cand)),
    );
    out.record(
        &steps[1].sql,
        eq(qso, qso_ids.len()).and(eq(qso_i, qso_ids.len())),
    );

    // Steps 3 (both refines) and 4: against the oracle's own set.
    for s in &steps[2..5] {
        let result = run_in(&auto, &s.sql)
            .and_then(|got| Ok((got, run_in(&interp, &s.sql)?)))
            .and_then(|(got, want)| compare(s.class, &got.rows, &want.rows));
        out.record(&s.sql, result);
    }

    // Step 5: the lens pairs against the brute force over the set's rows.
    let pairs = cat.rows_of(&cand_ids).and_then(|rows| {
        let want: Vec<(u64, u64, f64)> = brute_force_pairs(cat, &rows, &rows, CAND_RADIUS_ARCSEC)
            .into_iter()
            .filter(|p| p.0 < p.1)
            .collect();
        check_pairs(&run_in(&auto, &steps[5].sql)?, &want)?;
        check_pairs(&run_in(&interp, &steps[5].sql)?, &want)
    });
    out.record(&steps[5].sql, pairs);

    // Step 6: the quasar-vs-archive pair count against the brute force.
    let count = cat.rows_of(&qso_ids).and_then(|rows| {
        let all: Vec<u32> = (0..cat.tags.len() as u32).collect();
        let want = brute_force_pairs(cat, &rows, &all, QSO_RADIUS_ARCSEC).len() as f64;
        for session in [&auto, &interp] {
            let got = run_in(session, &steps[6].sql)?.rows[0][0]
                .as_num()
                .ok_or("COUNT(*) is not a number")?;
            if got != want {
                return Err(format!("{got} pairs, brute force counts {want}"));
            }
        }
        Ok(())
    });
    out.record(&steps[6].sql, count);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiset_ignores_order_and_counts_duplicates() {
        let r = |x: f64| vec![Value::Num(x)];
        assert!(same_multiset(&[r(1.0), r(2.0)], &[r(2.0), r(1.0)]).is_ok());
        assert!(same_multiset(&[r(1.0), r(1.0)], &[r(1.0), r(2.0)]).is_err());
        assert!(same_multiset(&[r(1.0)], &[r(1.0), r(1.0)]).is_err());
    }

    #[test]
    fn aggregates_agree_within_merge_tolerance() {
        let r = |x: f64| vec![vec![Value::Num(x)]];
        assert!(same_aggregate(&r(1.0e6), &r(1.0e6 * (1.0 + 1e-12))).is_ok());
        assert!(same_aggregate(&r(1.0), &r(1.0 + 1e-6)).is_err());
        assert!(same_aggregate(&r(f64::NAN), &r(f64::NAN)).is_ok());
    }
}
