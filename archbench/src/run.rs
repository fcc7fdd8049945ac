//! Set-up and the closed client loops.

use crate::gen::{Class, Scenario, SqlGen, Stmt, Workload};
use crate::trace::{Recorder, Span};
use sdss_bench::{build_stores, standard_sky};
use sdss_query::{
    AdmissionConfig, Archive, ArchiveConfig, ExecMode, Prepared, QueryStats, Session,
};
use sdss_storage::{ObjectStore, TagStore};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Objects in the archive.
pub const N_OBJECTS: usize = 200_000;
/// The archive is one fixed sky, like the survey's; `--seed` draws the
/// traffic sent to it.
pub const SKY_SEED: u64 = 2000;
/// HTM level of the storage containers (the repository's benches use 6).
pub const CONTAINER_LEVEL: u8 = 6;

/// The archive under test and the facts of its construction.
pub struct Env {
    pub nproc: usize,
    pub store: Arc<ObjectStore>,
    pub tags: Arc<TagStore>,
    pub archive: Archive,
    pub gen_s: f64,
    pub build_s: f64,
    pub setup_s: f64,
}

/// Worker counts come from the core count of the host, never from the
/// archive's defaults, so they are recorded with every result.
pub fn admission(nproc: usize) -> AdmissionConfig {
    AdmissionConfig {
        max_worker_slots: nproc,
        max_workers_per_query: nproc,
        ..AdmissionConfig::default()
    }
}

pub fn archive(
    store: &Arc<ObjectStore>,
    tags: &Arc<TagStore>,
    nproc: usize,
    mode: ExecMode,
) -> Archive {
    Archive::with_config(
        store.clone(),
        Some(tags.clone()),
        ArchiveConfig {
            mode,
            admission: admission(nproc),
            ..ArchiveConfig::default()
        },
    )
}

/// Generate the sky, build the stores and the archive, and warm up on
/// the workload's own statement shapes (from a stream no timed client
/// uses).
pub fn setup(workload: Workload, seed: u64, nproc: usize) -> Result<Env, String> {
    let t0 = Instant::now();
    let objs = standard_sky(N_OBJECTS, SKY_SEED);
    let gen_s = t0.elapsed().as_secs_f64();
    let (store, tags) = build_stores(&objs, CONTAINER_LEVEL);
    drop(objs);
    let (store, tags) = (Arc::new(store), Arc::new(tags));
    let archive = archive(&store, &tags, nproc, ExecMode::Auto);
    let build_s = t0.elapsed().as_secs_f64() - gen_s;
    let env = Env {
        nproc,
        store,
        tags,
        archive,
        gen_s,
        build_s,
        setup_s: 0.0,
    };
    let mut rec = Recorder::new(false, Instant::now());
    let mut gen = SqlGen::new(workload, seed, WARMUP_CLIENT);
    let epoch = Instant::now();
    match workload {
        Workload::Science => {
            let scenario = gen.next_scenario();
            if let (_, Some(e)) = run_scenario(&env.archive, &scenario, 0, &mut rec, epoch) {
                return Err(e);
            }
        }
        _ => {
            for k in 0..WARMUP_STMTS {
                execute(
                    &Target::Archive(&env.archive),
                    gen.next_stmt(),
                    k,
                    &mut rec,
                    epoch,
                )?;
            }
        }
    }
    Ok(Env {
        setup_s: t0.elapsed().as_secs_f64(),
        ..env
    })
}

const WARMUP_CLIENT: usize = 1 << 20;
const WARMUP_STMTS: u64 = 48;

/// Where a statement is sent: the archive, or a science session.
pub enum Target<'a> {
    Archive(&'a Archive),
    Session(&'a Session),
}

impl Target<'_> {
    fn prepare(&self, sql: &str) -> Result<Prepared, String> {
        match self {
            Target::Archive(a) => a.prepare(sql),
            Target::Session(s) => s.prepare(sql),
        }
        .map_err(|e| e.to_string())
    }
}

/// One completed statement.
#[derive(Debug, Clone)]
pub struct Record {
    pub stmt: Stmt,
    pub id: u64,
    /// The scenario the statement belongs to (`science` only).
    pub scenario: Option<Scenario>,
    /// Completion time since the phase began.
    pub end_s: f64,
    /// Submit to last row materialized (or, for `INTO`, set committed).
    pub latency_s: f64,
    /// Submit to the first `ResultBatch` (or end of stream); not for `INTO`.
    pub ttfr_s: Option<f64>,
    pub rows_out: u64,
    pub est_bytes: u64,
    pub into_rows: u64,
    pub into_bytes: u64,
    /// MATCH first-input rows.
    pub probe_rows: u64,
    pub stats: QueryStats,
}

/// Send one statement's SQL text and drain its answer at the client,
/// with a span around every public call when the recorder is on.
pub fn execute(
    target: &Target,
    stmt: Stmt,
    id: u64,
    rec: &mut Recorder,
    epoch: Instant,
) -> Result<Record, String> {
    let t0 = Instant::now();
    let root = rec.open(id, "stmt");
    let out = drain(target, &stmt, id, rec, t0);
    rec.close(root);
    let latency_s = t0.elapsed().as_secs_f64();
    let d = out?;
    Ok(Record {
        stmt,
        id,
        scenario: None,
        end_s: epoch.elapsed().as_secs_f64(),
        latency_s,
        ttfr_s: d.ttfr.map(|t| t.as_secs_f64()),
        rows_out: d.rows_out,
        est_bytes: d.est_bytes,
        into_rows: d.into_rows,
        into_bytes: d.into_bytes,
        probe_rows: 0,
        stats: d.stats,
    })
}

struct Drained {
    stats: QueryStats,
    ttfr: Option<Duration>,
    rows_out: u64,
    est_bytes: u64,
    into_rows: u64,
    into_bytes: u64,
}

fn drain(
    target: &Target,
    stmt: &Stmt,
    id: u64,
    rec: &mut Recorder,
    t0: Instant,
) -> Result<Drained, String> {
    let prepared = rec.span(id, "prepare", || target.prepare(&stmt.sql))?;
    let est_bytes = prepared.estimate().est_bytes;
    if let Some(name) = prepared.into_set() {
        let out = rec
            .span(id, "run", || prepared.run())
            .map_err(|e| e.to_string())?;
        let Target::Session(session) = target else {
            return Err("INTO outside a session".to_string());
        };
        let info = session
            .set_info(name)
            .ok_or_else(|| format!("set {name} missing after INTO"))?;
        return Ok(Drained {
            stats: out.stats,
            ttfr: None,
            rows_out: 0,
            est_bytes,
            into_rows: info.rows as u64,
            into_bytes: info.bytes as u64,
        });
    }
    let mut stream = rec
        .span(id, "open", || prepared.stream())
        .map_err(|e| e.to_string())?;
    let mut ttfr = None;
    let mut rows_out = 0u64;
    loop {
        let batch = rec.span(id, "next_batch", || stream.next_batch());
        if ttfr.is_none() {
            ttfr = Some(t0.elapsed());
        }
        let Some(batch) = batch else { break };
        rows_out += rec.span(id, "rows", || {
            let rows = batch.rows();
            black_box(&rows);
            rows.len() as u64
        });
    }
    let failure = stream.failure();
    let stats = rec.span(id, "finish", || stream.finish());
    if let Some(msg) = failure {
        return Err(msg);
    }
    Ok(Drained {
        stats,
        ttfr,
        rows_out,
        est_bytes,
        into_rows: 0,
        into_bytes: 0,
    })
}

/// Run steps 1–7 of one scenario in a fresh session. Returns the step
/// records and the error of the step that failed, if one did (later
/// steps need its set, so the scenario stops there).
pub fn run_scenario(
    archive: &Archive,
    scenario: &Scenario,
    id_base: u64,
    rec: &mut Recorder,
    epoch: Instant,
) -> (Vec<Record>, Option<String>) {
    let session = archive.session();
    let mut records: Vec<Record> = Vec::with_capacity(7);
    let mut err = None;
    for (j, stmt) in scenario.steps().into_iter().enumerate() {
        let id = id_base + j as u64;
        match execute(&Target::Session(&session), stmt, id, rec, epoch) {
            Ok(mut r) => {
                r.scenario = Some(scenario.clone());
                r.probe_rows = match r.stmt.class {
                    Class::SciPairs => records[0].into_rows,
                    Class::SciMatchCount => records[1].into_rows,
                    _ => 0,
                };
                records.push(r);
            }
            Err(e) => {
                err = Some(format!("{}: {e}", scenario.steps()[j].sql));
                break;
            }
        }
    }
    let drop_id = id_base + 7;
    rec.span(drop_id, "drop", || {
        for name in ["cand", "qso"] {
            // A failed scenario may not have made both sets.
            let _ = session.drop_set(name);
        }
    });
    (records, err)
}

/// Everything one phase of closed-loop clients produced.
#[derive(Debug, Default)]
pub struct Phase {
    pub records: Vec<Record>,
    /// Wall seconds of each completed science scenario.
    pub scenario_s: Vec<f64>,
    pub spans: Vec<Span>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub wall_s: f64,
}

pub fn clients(workload: Workload, nproc: usize) -> usize {
    match workload {
        Workload::Interactive => nproc,
        Workload::Sweep | Workload::Science => 1,
    }
}

/// Run the workload's clients for `seconds`, each sending its next
/// statement only after the previous answer is drained. Every phase
/// restarts each client's sequence from the seed.
pub fn run_phase(env: &Env, workload: Workload, seed: u64, seconds: f64, traced: bool) -> Phase {
    let n = clients(workload, env.nproc);
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let outs: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|c| {
                let archive = &env.archive;
                scope.spawn(move || client(archive, workload, seed, c, traced, epoch, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = Phase::default();
    for mut out in outs {
        phase.records.append(&mut out.records);
        phase.scenario_s.append(&mut out.scenario_s);
        // Span parents index into their own client's list.
        let base = phase.spans.len() as u32;
        for mut s in out.spans {
            if s.parent != crate::trace::ROOT {
                s.parent += base;
            }
            phase.spans.push(s);
        }
        phase.attempted += out.attempted;
        phase.failed += out.failed;
        phase.errors.append(&mut out.errors);
    }
    phase.wall_s = epoch.elapsed().as_secs_f64();
    phase.records.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
    phase
}

fn client(
    archive: &Archive,
    workload: Workload,
    seed: u64,
    c: usize,
    traced: bool,
    epoch: Instant,
    deadline: Instant,
) -> Phase {
    let mut gen = SqlGen::new(workload, seed, c);
    let mut rec = Recorder::new(traced, epoch);
    let mut out = Phase::default();
    let mut k = 0u64;
    while Instant::now() < deadline {
        let id = ((c as u64) << 40) | k;
        if workload == Workload::Science {
            let scenario = gen.next_scenario();
            let t0 = Instant::now();
            k += 8;
            let (mut records, err) = run_scenario(archive, &scenario, id, &mut rec, epoch);
            out.attempted += records.len() as u64;
            out.records.append(&mut records);
            match err {
                None => out.scenario_s.push(t0.elapsed().as_secs_f64()),
                Some(e) => {
                    out.attempted += 1;
                    out.failed += 1;
                    out.errors.push(e);
                }
            }
        } else {
            k += 1;
            out.attempted += 1;
            match execute(
                &Target::Archive(archive),
                gen.next_stmt(),
                id,
                &mut rec,
                epoch,
            ) {
                Ok(r) => out.records.push(r),
                Err(e) => {
                    out.failed += 1;
                    out.errors.push(e);
                }
            }
        }
    }
    out.spans = rec.into_spans();
    out
}
