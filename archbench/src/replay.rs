//! Layer replays for the traced run.
//!
//! Some layers sit behind a single public call (`prepare` parses and
//! plans; a scan's cover lookup, kernel and MATCH zone index run inside
//! the execution). After the traced phase, each traced statement's text
//! or plan is replayed through the layer's own public entry points on
//! one thread, with spans carrying the statement's id:
//!
//! * `parse` — `parser::parse_statement` on the statement's text;
//! * `cover` — `TagStore::plan_batch_scan` on the statement's domain, on
//!   a copy of the tag store whose cover cache only the replays use, so
//!   a first lookup of a domain is cold and a repeat is warm;
//! * `kernel` — `plan_batch_scan` + `scan_morsel` + the compiled
//!   predicate over every batch, single-threaded;
//! * `zone.build` / `zone.probe` — `ZoneIndex::build_from_deep` over the
//!   MATCH build side and `neighbors_within` for every probe row.
//!
//! Replays run after the phase, so they never slow the traced loop.

use crate::check::{objids, Catalog};
use crate::gen::{Class, CAND_RADIUS_ARCSEC, QSO_RADIUS_ARCSEC};
use crate::run::{Env, Record};
use crate::trace::{Recorder, Span};
use sdss_query::parser::parse_statement;
use sdss_query::{compile_predicate, BatchScratch, PlanNode, QuerySource};
use sdss_storage::{TagStore, ZoneIndex};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel replays per statement class (sweeps are whole-archive scans).
const KERNEL_PER_CLASS: usize = 40;
/// MATCH statements replayed through the zone index (two per scenario;
/// enough scenarios for a median).
const ZONE_STMTS: usize = 48;

#[derive(Debug, Default)]
pub struct Replays {
    pub spans: Vec<Span>,
    /// Replayed parse time per statement id.
    pub parse_ns: HashMap<u64, u64>,
    pub cover_hit_ns: Vec<f64>,
    pub cover_miss_ns: Vec<f64>,
    pub kernel_ns: u64,
    pub kernel_bytes: u64,
    pub kernel_rows: u64,
    pub kernel_selected: u64,
    /// Zone-index build time per scenario, both MATCH statements summed
    /// (one builds over the candidate set, one over the whole archive, so
    /// a median over single builds would sit between the two sizes).
    pub zone_build_ns: HashMap<u64, f64>,
    pub zone_probe_ns: u64,
    pub zone_probe_rows: u64,
    pub zone_comparisons: u64,
    pub zone_pairs: u64,
    /// Per MATCH statement: share of its worker time not spent building
    /// the index or probing it (pair evaluation, projection, fabric).
    pub pair_eval_share: Vec<f64>,
}

fn tag_scans<'p>(node: &'p PlanNode, out: &mut Vec<&'p sdss_query::plan::ScanSpec>) {
    match node {
        PlanNode::Scan(s) => {
            if s.source == QuerySource::Tag {
                out.push(s);
            }
        }
        PlanNode::Sort { child, .. }
        | PlanNode::Limit { child, .. }
        | PlanNode::Aggregate { child, .. } => tag_scans(child, out),
        PlanNode::Set { left, right, .. } => {
            tag_scans(left, out);
            tag_scans(right, out);
        }
    }
}

pub fn replay(env: &Env, records: &[Record], cat: &Catalog) -> Result<Replays, String> {
    let mut rec = Recorder::new(true, Instant::now());
    let mut r = Replays::default();
    let cover_store = TagStore::from_store(&env.store);
    let mut kernel_done: HashMap<Class, usize> = HashMap::new();
    let mut zone_done = 0usize;
    for record in records {
        let id = record.id;
        let sql = &record.stmt.sql;
        let parsed = rec.span(id, "parse", || black_box(parse_statement(sql)).is_ok());
        r.parse_ns.insert(id, rec.last_dur_ns());
        if !parsed {
            return Err(format!("replayed parse failed: {sql}"));
        }
        let plan = env
            .archive
            .explain(sql)
            .map_err(|e| format!("{sql}: {e}"))?;
        let mut scans = Vec::new();
        tag_scans(&plan.root, &mut scans);
        let run_kernel = {
            let n = kernel_done.entry(record.stmt.class).or_insert(0);
            *n += 1;
            *n <= KERNEL_PER_CLASS
        };
        for spec in scans {
            if let Some(domain) = &spec.domain {
                let first = rec.span(id, "cover", || {
                    cover_store.plan_batch_scan(Some(domain), None)
                });
                let ns = rec.last_dur_ns() as f64;
                if first.map_err(|e| e.to_string())?.cover_cache_hit() == Some(false) {
                    r.cover_miss_ns.push(ns);
                    let again = rec.span(id, "cover", || {
                        cover_store.plan_batch_scan(Some(domain), None)
                    });
                    black_box(again.map_err(|e| e.to_string())?);
                }
                r.cover_hit_ns.push(rec.last_dur_ns() as f64);
            }
            if run_kernel {
                kernel(env, spec, id, &mut rec, &mut r)?;
            }
        }
        if record.stmt.class.is_match() && zone_done < ZONE_STMTS {
            zone_done += 1;
            zone(env, record, cat, &mut rec, &mut r)?;
        }
    }
    r.spans = rec.into_spans();
    Ok(r)
}

fn kernel(
    env: &Env,
    spec: &sdss_query::plan::ScanSpec,
    id: u64,
    rec: &mut Recorder,
    r: &mut Replays,
) -> Result<(), String> {
    let pred = match &spec.predicate {
        Some(expr) => match compile_predicate(expr) {
            Some(p) => Some(p),
            // Not on the compiled path: nothing for the kernel to replay.
            None => return Ok(()),
        },
        None => None,
    };
    let (mut rows, mut selected, mut bytes) = (0u64, 0u64, 0u64);
    let token = rec.open(id, "kernel");
    let plan = env.tags.plan_batch_scan(spec.domain.as_ref(), None);
    if let Ok(plan) = &plan {
        let mut scratch = BatchScratch::new();
        for idx in 0..plan.morsels().len() {
            let (stats, _) = env.tags.scan_morsel(plan, idx, |batch, sel| {
                rows += batch.len() as u64;
                selected += match &pred {
                    Some(p) => {
                        let mut m = p.eval_hinted(batch, &mut scratch, Some(sel)).clone();
                        m.and_with(sel);
                        m.count()
                    }
                    None => sel.count(),
                } as u64;
                true
            });
            bytes += stats.bytes_scanned as u64;
        }
    }
    rec.close(token);
    plan.map_err(|e| e.to_string())?;
    r.kernel_ns += rec.last_dur_ns();
    r.kernel_rows += rows;
    r.kernel_selected += selected;
    r.kernel_bytes += bytes;
    Ok(())
}

fn zone(
    env: &Env,
    record: &Record,
    cat: &Catalog,
    rec: &mut Recorder,
    r: &mut Replays,
) -> Result<(), String> {
    let sc = record
        .scenario
        .as_ref()
        .ok_or("MATCH statement outside a scenario")?;
    let run_ids = |sql: String| {
        env.archive
            .run(&sql)
            .map_err(|e| format!("{sql}: {e}"))
            .and_then(|o| objids(&o))
    };
    let id = record.id;
    // The probe side is the MATCH's first input; the build side is the
    // candidate set itself (lens pairs) or the whole archive.
    let (probe, build, radius) = match record.stmt.class {
        Class::SciPairs => {
            let rows = cat.rows_of(&run_ids(sc.cand_source())?)?;
            (rows.clone(), Some(rows), CAND_RADIUS_ARCSEC)
        }
        _ => (
            cat.rows_of(&run_ids(sc.qso_source())?)?,
            None,
            QSO_RADIUS_ARCSEC,
        ),
    };
    let (ref_tags, ref_deep) = match &build {
        Some(rows) => (
            rows.iter().map(|&i| cat.tags[i as usize]).collect(),
            rows.iter().map(|&i| cat.htm20[i as usize]).collect(),
        ),
        None => (cat.tags.clone(), cat.htm20.clone()),
    };
    let level = ZoneIndex::level_for_radius(radius);
    let index = rec.span(id, "zone.build", || {
        ZoneIndex::build_from_deep(&ref_deep, level)
    });
    let build_ns = rec.last_dur_ns();
    let (mut comparisons, mut pairs) = (0u64, 0u64);
    let token = rec.open(id, "zone.probe");
    let mut result = Ok(());
    for &p in &probe {
        let a = &cat.tags[p as usize];
        let found = index.neighbors_within(&ref_tags, a.unit_vec(), radius, |ri, _| {
            if ref_tags[ri as usize].obj_id != a.obj_id {
                pairs += 1;
            }
        });
        match found {
            Ok(n) => comparisons += n as u64,
            Err(e) => {
                result = Err(e.to_string());
                break;
            }
        }
    }
    rec.close(token);
    result?;
    let probe_ns = rec.last_dur_ns();
    // Statement ids of one scenario share all but their low three bits.
    *r.zone_build_ns.entry(id & !7).or_default() += build_ns as f64;
    r.zone_probe_ns += probe_ns;
    r.zone_probe_rows += probe.len() as u64;
    r.zone_comparisons += comparisons;
    r.zone_pairs += pairs;
    let workers = record.stats.workers_used.max(1) as f64;
    let explained = (build_ns as f64 + probe_ns as f64 / workers) / 1e9;
    let total = record.stats.total_time.as_secs_f64();
    if total > 0.0 {
        r.pair_eval_share
            .push((1.0 - explained / total).clamp(0.0, 1.0));
    }
    Ok(())
}
