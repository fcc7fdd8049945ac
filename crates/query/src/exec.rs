//! Multithreaded QET execution with ASAP push streaming of *batches*.
//!
//! Every plan node runs on its own thread; results flow upward through
//! bounded crossbeam channels as [`ResultBatch`]es. Scan/Limit nodes
//! stream; Sort/Aggregate/Set nodes are the paper's blocking nodes ("at
//! least one of the child nodes must be complete before results can be
//! sent further up the tree"). The channel fabric gives the ASAP
//! property: the first matching object reaches the consumer while scans
//! are still running.
//!
//! Tag scans run **columnar**: the scan leaf pulls
//! [`sdss_storage::ColumnBatch`]es from the tag store's struct-of-arrays
//! chunks, evaluates the compiled predicate ([`crate::compile`]) over
//! each batch into a selection bitmap, and ships the projected columns
//! onward as a [`ColumnarBatch`] — typed column vectors, **not**
//! `Vec<Row>`. Rows materialize only at the edge, when a consumer calls
//! [`ResultBatch::rows`]; row-at-a-time interpretation remains as the
//! fallback for whatever the compiler can't express.
//!
//! Every columnar execution — projection, in-scan aggregate, MATCH
//! probe, INTO fast path — runs through one morsel driver
//! (`run_morsels`): the granted workers drain a byte-balanced queue of
//! container-sized morsels, each feeding its own sink.
//!
//! Execution is owned, not scoped: stores travel as `Arc`s and node
//! threads are detached, so a [`BatchHandle`] can outlive the call that
//! launched it (the pull-based `ResultStream` of [`crate::archive`]).
//! Producers observe consumer disappearance through channel send errors
//! and cooperative cancellation through the shared [`TicketCore`].

use crate::ast::{AggFn, Expr, Value};
use crate::compile::{
    compile_agg_inputs, compile_predicate, compile_projection, BatchScratch, CompiledAggInputs,
    CompiledPredicate, CompiledProjection,
};
use crate::ops::{eval, AttrSource};
use crate::plan::{AggSpec, MatchInput, MatchSpec, PlanNode, QuerySource, ScanSpec};
use crate::QueryError;
use crossbeam::channel::{bounded, Receiver, Sender};
use sdss_catalog::{ObjClass, TagObject};
use sdss_storage::{
    sample_hash_keep, ColumnBatch, DecZoneIndex, MatchFootprint, MorselQueue, ObjectStore,
    RegionScan, ResultSet, ResultSetBuilder, SelectionMask, TagScanPlan, TagStore,
};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One output row.
pub type Row = Vec<Value>;

/// Rows travel in batches to amortize channel overhead (row-path).
const BATCH: usize = 128;
/// Columnar scans coalesce projected output up to this many rows before
/// a send — selective predicates would otherwise push one tiny batch
/// per input chunk and pay a channel round-trip each time.
const COALESCE_ROWS: usize = 512;
/// Channel depth: enough to decouple producer/consumer without buffering
/// the whole result (that would break the ASAP property).
const CHANNEL_DEPTH: usize = 8;

/// Whether scans may use the compiled columnar path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Compile tag scans to columnar bytecode when possible (default).
    #[default]
    Auto,
    /// Force the row-at-a-time interpreter everywhere (the benchmark
    /// baseline, and the equivalence oracle in tests).
    Interpreted,
}

// ---------------------------------------------------------------------
// Result batches
// ---------------------------------------------------------------------

/// One projected output column of a [`ColumnarBatch`].
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Numeric lane (`Value::Num` at the edge).
    Num(Vec<f64>),
    /// Exact object ids (`Value::Id` at the edge).
    Id(Vec<u64>),
    /// Raw class bytes; decoded to class-name strings only at the edge.
    Class(Vec<u8>),
}

impl ColumnData {
    fn truncate(&mut self, n: usize) {
        match self {
            ColumnData::Num(v) => v.truncate(n),
            ColumnData::Id(v) => v.truncate(n),
            ColumnData::Class(v) => v.truncate(n),
        }
    }

    /// The value of row `i`, materialized.
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            ColumnData::Num(v) => Value::Num(v[i]),
            ColumnData::Id(v) => Value::Id(v[i]),
            ColumnData::Class(v) => Value::Str(
                ObjClass::from_u8(v[i])
                    .expect("valid stored class")
                    .as_str()
                    .to_string(),
            ),
        }
    }

    /// Numeric view of row `i` (same semantics as [`Value::as_num`]).
    pub fn num_at(&self, i: usize) -> Option<f64> {
        match self {
            ColumnData::Num(v) => Some(v[i]),
            ColumnData::Id(v) => Some(v[i] as f64),
            ColumnData::Class(_) => None,
        }
    }

    /// Exact id view of row `i` (same semantics as [`Value::as_id`]).
    pub fn id_at(&self, i: usize) -> Option<u64> {
        match self {
            ColumnData::Id(v) => Some(v[i]),
            ColumnData::Num(v) => {
                let x = v[i];
                (x.fract() == 0.0 && (0.0..9.0e15).contains(&x)).then_some(x as u64)
            }
            ColumnData::Class(_) => None,
        }
    }
}

/// A batch of projected results in struct-of-arrays form — what the
/// columnar scan path ships through the channel fabric instead of
/// materialized rows.
#[derive(Debug, Clone, Default)]
pub struct ColumnarBatch {
    columns: Vec<ColumnData>,
    len: usize,
}

impl ColumnarBatch {
    /// Build from typed columns (all must share `len`).
    pub fn new(columns: Vec<ColumnData>, len: usize) -> ColumnarBatch {
        ColumnarBatch { columns, len }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn columns(&self) -> &[ColumnData] {
        &self.columns
    }

    pub fn truncate(&mut self, n: usize) {
        if n < self.len {
            for c in &mut self.columns {
                c.truncate(n);
            }
            self.len = n;
        }
    }

    /// Append another batch of the same projection (column kinds must
    /// line up — they do, coming from one compiled projection).
    pub fn append(&mut self, other: ColumnarBatch) {
        debug_assert_eq!(self.columns.len(), other.columns.len());
        for (dst, src) in self.columns.iter_mut().zip(other.columns) {
            match (dst, src) {
                (ColumnData::Num(d), ColumnData::Num(s)) => d.extend(s),
                (ColumnData::Id(d), ColumnData::Id(s)) => d.extend(s),
                (ColumnData::Class(d), ColumnData::Class(s)) => d.extend(s),
                _ => unreachable!("one projection produces one column layout"),
            }
        }
        self.len += other.len;
    }

    /// Materialize every row — the edge adapter. Column-major fill: one
    /// dispatch per column, not per cell.
    pub fn rows(&self) -> Vec<Row> {
        let mut rows: Vec<Row> = (0..self.len)
            .map(|_| Vec::with_capacity(self.columns.len()))
            .collect();
        self.append_columns(&mut rows);
        rows
    }

    fn append_columns(&self, rows: &mut [Row]) {
        for col in &self.columns {
            match col {
                ColumnData::Num(v) => {
                    for (row, &x) in rows.iter_mut().zip(v) {
                        row.push(Value::Num(x));
                    }
                }
                ColumnData::Id(v) => {
                    for (row, &x) in rows.iter_mut().zip(v) {
                        row.push(Value::Id(x));
                    }
                }
                ColumnData::Class(v) => {
                    for (row, &b) in rows.iter_mut().zip(v) {
                        row.push(Value::Str(
                            ObjClass::from_u8(b)
                                .expect("valid stored class")
                                .as_str()
                                .to_string(),
                        ));
                    }
                }
            }
        }
    }
}

/// What travels through the channel fabric: columnar batches from the
/// compiled scan path, row batches from everything else.
#[derive(Debug, Clone)]
pub enum ResultBatch {
    Columnar(ColumnarBatch),
    Rows(Vec<Row>),
}

impl ResultBatch {
    pub fn len(&self) -> usize {
        match self {
            ResultBatch::Columnar(b) => b.len(),
            ResultBatch::Rows(r) => r.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn truncate(&mut self, n: usize) {
        match self {
            ResultBatch::Columnar(b) => b.truncate(n),
            ResultBatch::Rows(r) => r.truncate(n),
        }
    }

    /// Is this batch still in columnar (non-materialized) form?
    pub fn is_columnar(&self) -> bool {
        matches!(self, ResultBatch::Columnar(_))
    }

    /// Materialize into rows — the edge adapter. Columnar batches decode
    /// here and nowhere earlier.
    pub fn rows(self) -> Vec<Row> {
        match self {
            ResultBatch::Columnar(b) => b.rows(),
            ResultBatch::Rows(r) => r,
        }
    }

    /// Materialize into an existing row buffer (no intermediate vector).
    pub fn append_rows(self, out: &mut Vec<Row>) {
        match self {
            ResultBatch::Columnar(b) => {
                let start = out.len();
                out.extend((0..b.len()).map(|_| Vec::with_capacity(b.columns.len())));
                b.append_columns(&mut out[start..]);
            }
            ResultBatch::Rows(r) => out.extend(r),
        }
    }

    /// Numeric view of `(col, row)` without materializing.
    pub fn num_at(&self, col: usize, row: usize) -> Option<f64> {
        match self {
            ResultBatch::Columnar(b) => b.columns[col].num_at(row),
            ResultBatch::Rows(r) => r[row][col].as_num(),
        }
    }

    /// Exact-id view of `(col, row)` without materializing.
    pub fn id_at(&self, col: usize, row: usize) -> Option<u64> {
        match self {
            ResultBatch::Columnar(b) => b.columns[col].id_at(row),
            ResultBatch::Rows(r) => r[row][col].as_id(),
        }
    }
}

// ---------------------------------------------------------------------
// Tickets: cancellation + live progress
// ---------------------------------------------------------------------

/// Shared per-execution state: the cancel token checked between batches
/// and live progress counters the scan leaves update as they go. Wrapped
/// by [`crate::archive::QueryTicket`] for the public API.
#[derive(Debug, Default)]
pub struct TicketCore {
    cancelled: AtomicBool,
    rows_scanned: AtomicU64,
    /// Rows pushed into the channel fabric by producers (scan workers
    /// and the fused aggregate's result row), counted at the batch edge.
    /// Per-worker safe: every worker bumps the same atomic on its own
    /// sends. Differs from the consumer-side row count under LIMIT or
    /// cancellation (producers may emit more than is delivered).
    rows_emitted: AtomicU64,
    batches_emitted: AtomicU64,
    bytes_scanned: AtomicU64,
    containers_full: AtomicU64,
    containers_partial: AtomicU64,
    exact_tests: AtomicU64,
    cover_hits: AtomicU64,
    cover_misses: AtomicU64,
    /// One entry per scan worker that ran (morsel workers and the row
    /// fallback each register here).
    worker_scans: Mutex<Vec<WorkerScan>>,
    /// First node-thread panic, surfaced instead of silently truncating
    /// the result (detached threads have no join to propagate through).
    failure: std::sync::Mutex<Option<String>>,
    /// Test fault injection, per execution: morsel claims left until the
    /// claiming worker panics (0 = off).
    #[cfg(test)]
    pub(crate) claims_until_fault: AtomicU64,
}

/// What one scan worker did — the per-worker accounting behind
/// `QueryStats` (`workers_used`, per-worker bytes, morsel counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerScan {
    /// Bytes this worker read.
    pub bytes_scanned: u64,
    /// Container morsels this worker claimed from the queue (0 on the
    /// row-interpreted fallback, which has no morsel queue).
    pub morsels: u64,
    /// Rows that survived selection in this worker.
    pub rows_selected: u64,
}

/// A snapshot of the scan-side counters (the totals behind
/// [`crate::archive::QueryStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanTotals {
    /// Rows that survived predicates at the scan leaves.
    pub rows_scanned: u64,
    /// Batches the scan leaves pushed into the fabric.
    pub batches_emitted: u64,
    pub bytes_scanned: u64,
    pub containers_full: u64,
    pub containers_partial: u64,
    pub objects_exact_tested: u64,
    pub cover_cache_hits: u64,
    pub cover_cache_misses: u64,
}

impl TicketCore {
    /// Request cooperative cancellation: scan leaves stop between
    /// batches; blocking nodes drain out through closed channels.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Live scan-side totals (valid mid-flight; final once the stream
    /// has drained).
    pub fn totals(&self) -> ScanTotals {
        ScanTotals {
            rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
            batches_emitted: self.batches_emitted.load(Ordering::Relaxed),
            bytes_scanned: self.bytes_scanned.load(Ordering::Relaxed),
            containers_full: self.containers_full.load(Ordering::Relaxed),
            containers_partial: self.containers_partial.load(Ordering::Relaxed),
            objects_exact_tested: self.exact_tests.load(Ordering::Relaxed),
            cover_cache_hits: self.cover_hits.load(Ordering::Relaxed),
            cover_cache_misses: self.cover_misses.load(Ordering::Relaxed),
        }
    }

    /// The first execution-thread failure, if any (checked by consumers
    /// once the stream drains — a closed channel alone looks identical
    /// to a clean finish).
    pub fn failure(&self) -> Option<String> {
        self.failure.lock().unwrap().clone()
    }

    fn record_failure(&self, msg: String) {
        let mut slot = self.failure.lock().unwrap();
        if slot.is_none() {
            *slot = Some(msg);
        }
    }

    fn note_batch(&self, rows: usize) {
        self.rows_scanned.fetch_add(rows as u64, Ordering::Relaxed);
        self.rows_emitted.fetch_add(rows as u64, Ordering::Relaxed);
        self.batches_emitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Scan-survivor rows that never ship as batches (in-scan aggregate
    /// folding counts the rows it folded here).
    fn note_rows(&self, rows: u64) {
        self.rows_scanned.fetch_add(rows, Ordering::Relaxed);
    }

    /// The fused aggregate's single result row entering the fabric.
    fn note_emitted(&self) {
        self.rows_emitted.fetch_add(1, Ordering::Relaxed);
        self.batches_emitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Rows producers pushed into the fabric so far (batch-edge count).
    pub fn rows_emitted(&self) -> u64 {
        self.rows_emitted.load(Ordering::Relaxed)
    }

    /// Record the plan-time cover lookup of a morsel-driven scan (the
    /// per-morsel stats deliberately carry no cover counters).
    fn note_cover(&self, hit: bool) {
        if hit {
            self.cover_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cover_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn note_worker(&self, ws: WorkerScan) {
        self.worker_scans.lock().unwrap().push(ws);
    }

    /// Scan workers that ran so far (final once the stream drains).
    pub fn workers_used(&self) -> usize {
        self.worker_scans.lock().unwrap().len()
    }

    /// Per-worker scan accounting, in completion order.
    pub fn worker_scans(&self) -> Vec<WorkerScan> {
        self.worker_scans.lock().unwrap().clone()
    }

    /// Container morsels dispatched across all workers.
    pub fn morsels_dispatched(&self) -> u64 {
        self.worker_scans
            .lock()
            .unwrap()
            .iter()
            .map(|w| w.morsels)
            .sum()
    }

    fn absorb_scan(&self, s: &RegionScan) {
        self.bytes_scanned
            .fetch_add(s.bytes_scanned as u64, Ordering::Relaxed);
        self.containers_full
            .fetch_add(s.containers_full as u64, Ordering::Relaxed);
        self.containers_partial
            .fetch_add(s.containers_partial as u64, Ordering::Relaxed);
        self.exact_tests
            .fetch_add(s.objects_exact_tested as u64, Ordering::Relaxed);
        self.cover_hits
            .fetch_add(s.cover_cache_hits, Ordering::Relaxed);
        self.cover_misses
            .fetch_add(s.cover_cache_misses, Ordering::Relaxed);
    }

    fn absorb_sweep(&self, bytes: usize, containers: usize) {
        self.bytes_scanned
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.containers_full
            .fetch_add(containers as u64, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// The execution environment and fabric
// ---------------------------------------------------------------------

/// Everything a query execution needs, owned: any number of concurrent
/// executions share the stores through `Arc`.
#[derive(Debug, Clone)]
pub struct ExecEnv {
    pub store: Arc<ObjectStore>,
    pub tags: Option<Arc<TagStore>>,
    /// Stored result sets pinned at prepare time (session workspaces):
    /// `QuerySource::Set` leaves resolve their snapshot here by name.
    pub sets: Arc<HashMap<String, Arc<ResultSet>>>,
    /// Cover level override for scans.
    pub cover_level: Option<u8>,
    pub mode: ExecMode,
    /// Scan workers each columnar scan leaf may use (≥ 1). The caller
    /// holds this many admission slots per leaf — see the morsel
    /// driver (`run_morsels`) for the slot-accounting contract.
    pub workers: usize,
}

/// A handle to a running (sub)tree: the receiving end of its output.
pub struct BatchHandle {
    /// Output column names (shared, not re-cloned per node).
    pub columns: Arc<Vec<String>>,
    pub rx: Receiver<ResultBatch>,
}

/// Is this scan's source columnar-capable? Tag scans need the tag store
/// present; stored sets are columnar by construction (the workspace
/// materialized them into SoA chunks); the full store has no SoA image.
fn columnar_source(spec: &ScanSpec, tags_available: bool) -> bool {
    match &spec.source {
        QuerySource::Tag => tags_available,
        QuerySource::Set(_) => true,
        // MATCH joins drive only their probe side through the morsel
        // driver; pairs evaluate row-wise.
        QuerySource::Full | QuerySource::Match(_) => false,
    }
}

/// The compiled row selection of a morsel-driven scan: the predicate
/// (when present) and the deterministic sample filter, applied on top
/// of the source's cover mask. Every worker of a drive shares it.
pub(crate) struct RowFilter {
    pred: Option<CompiledPredicate>,
    sample: Option<f64>,
}

/// The one gate of every compiled scan shape: `Some` iff the mode allows
/// the columnar path, the source is columnar-capable, and the predicate
/// (when present) compiles. Projection and in-scan aggregates add what
/// their sinks need; INTO needs nothing more (it takes whole records).
pub(crate) fn compile_filter(
    spec: &ScanSpec,
    tags_available: bool,
    mode: ExecMode,
) -> Option<RowFilter> {
    if mode != ExecMode::Auto || !columnar_source(spec, tags_available) {
        return None;
    }
    let pred = match &spec.predicate {
        None => None,
        Some(p) => Some(compile_predicate(p)?),
    };
    Some(RowFilter {
        pred,
        sample: spec.sample,
    })
}

/// Lower a scan for the columnar projection path: the shared gate plus
/// a compilable projection. The single decision point — the stats flag
/// (`plan_uses_columnar`) and the executor both go through here, so the
/// gate and the execution path cannot drift.
fn compile_scan(
    spec: &ScanSpec,
    tags_available: bool,
    mode: ExecMode,
) -> Option<(RowFilter, CompiledProjection)> {
    let filter = compile_filter(spec, tags_available, mode)?;
    Some((filter, compile_projection(&spec.columns)?))
}

/// Would this scan run on the columnar compiled path?
pub fn scan_uses_columnar(spec: &ScanSpec, tags_available: bool, mode: ExecMode) -> bool {
    compile_scan(spec, tags_available, mode).is_some()
}

/// Do *all* scan leaves of the plan run columnar?
pub fn plan_uses_columnar(plan: &PlanNode, tags_available: bool, mode: ExecMode) -> bool {
    match plan {
        PlanNode::Scan(s) => scan_uses_columnar(s, tags_available, mode),
        PlanNode::Sort { child, .. }
        | PlanNode::Limit { child, .. }
        | PlanNode::Aggregate { child, .. } => plan_uses_columnar(child, tags_available, mode),
        PlanNode::Set { left, right, .. } => {
            plan_uses_columnar(left, tags_available, mode)
                && plan_uses_columnar(right, tags_available, mode)
        }
    }
}

/// Launch a plan on detached node threads and return the root's handle.
/// The caller pulls batches at its own pace; dropping the handle
/// cascades channel-disconnect shutdown through the tree, and
/// `ticket.cancel()` stops scans between batches.
pub fn launch(env: &ExecEnv, plan: PlanNode, ticket: &Arc<TicketCore>) -> BatchHandle {
    spawn_node(env, plan, ticket)
}

/// Spawn a detached node thread that records panics into the ticket —
/// detached threads have no scope join to propagate through, and a
/// silently dead producer would read as a clean (truncated) result.
fn spawn_guarded(ticket: Arc<TicketCore>, body: impl FnOnce() + Send + 'static) {
    std::thread::spawn(move || guarded(&ticket, body));
}

/// Run `body`, recording a panic into the ticket instead of unwinding
/// further: `None` means it panicked.
fn guarded<T>(ticket: &TicketCore, body: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(body))
        .map_err(|panic| record_panic(ticket, panic))
        .ok()
}

fn record_panic(ticket: &TicketCore, panic: Box<dyn std::any::Any + Send>) {
    let msg = panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic payload".to_string());
    ticket.record_failure(format!("execution thread panicked: {msg}"));
}

fn spawn_node(env: &ExecEnv, node: PlanNode, ticket: &Arc<TicketCore>) -> BatchHandle {
    match node {
        PlanNode::Scan(spec) => spawn_scan(env, spec, ticket),
        PlanNode::Limit { child, n } => {
            let child_handle = spawn_node(env, *child, ticket);
            let (tx, rx) = bounded::<ResultBatch>(CHANNEL_DEPTH);
            let columns = child_handle.columns.clone();
            spawn_guarded(ticket.clone(), move || {
                let mut remaining = n;
                for mut batch in child_handle.rx.iter() {
                    if remaining == 0 {
                        break; // dropping rx cancels the child
                    }
                    batch.truncate(remaining);
                    remaining -= batch.len();
                    if tx.send(batch).is_err() {
                        break;
                    }
                }
            });
            BatchHandle { columns, rx }
        }
        PlanNode::Sort { child, key, desc } => {
            let child_handle = spawn_node(env, *child, ticket);
            let (tx, rx) = bounded::<ResultBatch>(CHANNEL_DEPTH);
            let columns = child_handle.columns.clone();
            let key_idx = columns.iter().position(|c| c == &key);
            spawn_guarded(ticket.clone(), move || {
                // Blocking node: drain the child completely first. Sort
                // needs random access, so this is where columnar batches
                // materialize.
                let mut rows: Vec<Row> = Vec::new();
                for batch in child_handle.rx.iter() {
                    batch.append_rows(&mut rows);
                }
                if let Some(idx) = key_idx {
                    rows.sort_by(|a, b| {
                        let ord = compare_values(&a[idx], &b[idx]);
                        if desc {
                            ord.reverse()
                        } else {
                            ord
                        }
                    });
                }
                for chunk in rows.chunks(BATCH) {
                    if tx.send(ResultBatch::Rows(chunk.to_vec())).is_err() {
                        break;
                    }
                }
            });
            BatchHandle { columns, rx }
        }
        PlanNode::Aggregate { child, aggs } => match *child {
            PlanNode::Scan(spec) => spawn_agg_scan(env, spec, aggs, ticket),
            child => spawn_aggregate_over(env, child, aggs, ticket),
        },
        PlanNode::Set { op, left, right } => {
            let lh = spawn_node(env, *left, ticket);
            let rh = spawn_node(env, *right, ticket);
            let (tx, rx) = bounded::<ResultBatch>(CHANNEL_DEPTH);
            let columns = lh.columns.clone();
            let n_columns = columns.len();
            let objid_idx = columns
                .iter()
                .position(|c| c == "objid")
                .expect("planner enforced objid for set ops");
            spawn_guarded(ticket.clone(), move || {
                // Blocking on the right side: build the key set (ids
                // only — no row materialization).
                let mut right_ids: HashSet<u64> = HashSet::new();
                for batch in rh.rx.iter() {
                    for r in 0..batch.len() {
                        if let Some(id) = batch.id_at(objid_idx, r) {
                            right_ids.insert(id);
                        }
                    }
                }
                // Stream the left side against it.
                let mut seen: HashSet<u64> = HashSet::new();
                let mut out = Vec::with_capacity(BATCH);
                for batch in lh.rx.iter() {
                    for row in batch.rows() {
                        let Some(id) = row[objid_idx].as_id() else {
                            continue;
                        };
                        if seen.contains(&id) {
                            continue; // set semantics: dedupe left
                        }
                        let keep = match op {
                            crate::ast::SetOp::Union => true,
                            crate::ast::SetOp::Intersect => right_ids.contains(&id),
                            crate::ast::SetOp::Except => !right_ids.contains(&id),
                        };
                        if keep {
                            seen.insert(id);
                            out.push(row);
                            if out.len() >= BATCH
                                && tx
                                    .send(ResultBatch::Rows(std::mem::take(&mut out)))
                                    .is_err()
                            {
                                return;
                            }
                        }
                    }
                }
                // Union also emits right-only rows.
                if op == crate::ast::SetOp::Union {
                    for &id in right_ids.iter() {
                        if !seen.contains(&id) {
                            // We only kept ids, not rows, for the right
                            // side; emit a minimal row with objid and NULLs
                            // — documented bag-of-pointers semantics.
                            let mut row: Row = vec![Value::Null; n_columns];
                            row[objid_idx] = Value::Id(id);
                            out.push(row);
                            if out.len() >= BATCH
                                && tx
                                    .send(ResultBatch::Rows(std::mem::take(&mut out)))
                                    .is_err()
                            {
                                return;
                            }
                        }
                    }
                }
                if !out.is_empty() {
                    let _ = tx.send(ResultBatch::Rows(out));
                }
            });
            BatchHandle { columns, rx }
        }
    }
}

/// The channel-path Aggregate node: drain the child's batches (which
/// carry hidden `__agg_i` columns) and fold them into one row. The fused
/// in-scan path ([`spawn_agg_scan`]) replaces this whenever the child is
/// a compilable scan or a MATCH.
fn spawn_aggregate_over(
    env: &ExecEnv,
    child: PlanNode,
    aggs: Vec<AggSpec>,
    ticket: &Arc<TicketCore>,
) -> BatchHandle {
    let child_handle = spawn_node(env, child, ticket);
    let (tx, rx) = bounded::<ResultBatch>(CHANNEL_DEPTH);
    let columns = Arc::new(aggs.iter().map(|a| a.name.clone()).collect::<Vec<_>>());
    // Resolve each aggregate's hidden `__agg_i` column up front
    // instead of re-formatting the name per row.
    let child_cols = child_handle.columns.clone();
    let arg_idx: Vec<Option<usize>> = aggs
        .iter()
        .enumerate()
        .map(|(i, a)| {
            a.arg.as_ref().map(|_| {
                child_cols
                    .iter()
                    .position(|c| c == &format!("__agg_{i}"))
                    .expect("lowering appended the agg column")
            })
        })
        .collect();
    spawn_guarded(ticket.clone(), move || {
        let mut acc: Vec<AggAcc> = aggs.iter().map(|a| AggAcc::new(a.func)).collect();
        for batch in child_handle.rx.iter() {
            // Accumulate straight off the batch — columnar lanes
            // fold without materializing rows.
            for r in 0..batch.len() {
                for (i, idx) in arg_idx.iter().enumerate() {
                    let v = idx.and_then(|idx| batch.num_at(idx, r));
                    acc[i].update(v);
                }
            }
        }
        let row: Row = acc.into_iter().map(AggAcc::finish).collect();
        let _ = tx.send(ResultBatch::Rows(vec![row]));
    });
    BatchHandle { columns, rx }
}

/// Lower a scan: project columns (plus hidden aggregate argument columns,
/// handled by the planner caller) and stream matching batches. MATCH
/// joins stream pair rows from the zone-index probe; tag and set scans
/// take the columnar compiled path when the predicate and projection
/// both lower to bytecode; everything else interprets row-at-a-time.
fn spawn_scan(env: &ExecEnv, spec: ScanSpec, ticket: &Arc<TicketCore>) -> BatchHandle {
    let (tx, rx) = bounded::<ResultBatch>(CHANNEL_DEPTH);
    let columns: Arc<Vec<String>> = Arc::new(spec.columns.iter().map(|(n, _)| n.clone()).collect());
    let t = ticket.clone();
    if let QuerySource::Match(m) = spec.source.clone() {
        let exprs: Arc<Vec<Expr>> = Arc::new(spec.columns.iter().map(|(_, e)| e.clone()).collect());
        let sink = move |join: &Arc<MatchJoin>| PairRows {
            join: join.clone(),
            exprs: exprs.clone(),
            out: Vec::with_capacity(BATCH),
            tx: tx.clone(),
            ticket: t.clone(),
            pairs: 0,
        };
        spawn_drive(env.workers, ticket, match_leaf(env, spec, m), sink, drop);
        return BatchHandle { columns, rx };
    }
    // `compile_scan` is the gate `plan_uses_columnar` reports through
    // `QueryStats.columnar`. Every worker streams into the one channel
    // (the channel is the per-worker stream merge).
    if let Some((filter, proj)) = compile_scan(&spec, env.tags.is_some(), env.mode) {
        let (filter, proj) = (Arc::new(filter), Arc::new(proj));
        let sink = move |_: &()| EmitSink {
            rows: Selector::new(&filter),
            proj: proj.clone(),
            tx: tx.clone(),
            ticket: t.clone(),
            pending: None,
            sent_any: false,
        };
        spawn_drive(env.workers, ticket, scan_leaf(env, spec), sink, drop);
        return BatchHandle { columns, rx };
    }

    // --- row-at-a-time fallback ---------------------------------------
    let store = env.store.clone();
    let tags = env.tags.clone();
    let sets = env.sets.clone();
    let cover_level = env.cover_level;
    let ticket = ticket.clone();
    spawn_guarded(ticket.clone(), move || {
        let mut out: Vec<Row> = Vec::with_capacity(BATCH);
        let mut alive = true;
        let mut kept: u64 = 0;
        let mut worker_bytes: u64 = 0;

        // The row pipeline, generic over record type.
        let mut emit = |src: &dyn AttrSource, tx: &Sender<ResultBatch>| -> bool {
            if ticket.is_cancelled() {
                return false;
            }
            if let Some(f) = spec.sample {
                let id = src.attr("objid").and_then(|v| v.as_id()).unwrap_or(0);
                if !sample_hash_keep(id, f) {
                    return true;
                }
            }
            if let Some(pred) = &spec.predicate {
                match eval(pred, &SourceRef(src)) {
                    Ok(Value::Bool(true)) => {}
                    Ok(_) => return true,
                    Err(_) => return true, // row-level type errors drop the row
                }
            }
            let mut row: Row = Vec::with_capacity(spec.columns.len());
            for (_, expr) in &spec.columns {
                match eval(expr, &SourceRef(src)) {
                    Ok(v) => row.push(v),
                    Err(_) => row.push(Value::Null),
                }
            }
            out.push(row);
            kept += 1;
            out.len() < BATCH || ship(&ticket, tx, ResultBatch::Rows(std::mem::take(&mut out)))
        };

        match (&spec.source, &tags) {
            // Stored sets interpret row-wise by rebuilding each chunk
            // row as a `TagObject` (sets are tag-shaped; the planner
            // kept any spatial factor in the predicate, so geometry
            // evaluates per row here).
            (QuerySource::Set(name), _) => match sets.get(name) {
                Some(set) => {
                    let mut bytes = 0usize;
                    let mut containers = 0usize;
                    'chunks: for chunk in set.chunks() {
                        bytes += chunk.bytes();
                        containers += 1;
                        for i in 0..chunk.len() {
                            if !emit(&chunk.row(i), &tx) {
                                alive = false;
                                break 'chunks;
                            }
                        }
                    }
                    worker_bytes = bytes as u64;
                    ticket.absorb_sweep(bytes, containers);
                }
                None => ticket.record_failure(format!(
                    "stored set `{name}` was not pinned at prepare time"
                )),
            },
            (QuerySource::Match(_), _) => {
                unreachable!("MATCH scans spawn their own join path")
            }
            (QuerySource::Tag, Some(tag_store)) => match &spec.domain {
                Some(domain) => {
                    if let Ok(stats) = tag_store.scan_region_until(domain, cover_level, |t| {
                        alive = emit(t, &tx);
                        alive
                    }) {
                        worker_bytes = stats.bytes_scanned as u64;
                        ticket.absorb_scan(&stats);
                    }
                }
                None => {
                    // Full tag scan (no spatial restriction); stops
                    // between records on cancel / consumer hang-up.
                    let (bytes, containers) = tag_store.scan_all_until(|t| {
                        alive = emit(t, &tx);
                        alive
                    });
                    worker_bytes = bytes as u64;
                    ticket.absorb_sweep(bytes, containers);
                }
            },
            _ => match &spec.domain {
                Some(domain) => {
                    if let Ok(stats) = store.scan_region_until(domain, cover_level, |o| {
                        alive = emit(o, &tx);
                        alive
                    }) {
                        worker_bytes = stats.bytes_scanned as u64;
                        ticket.absorb_scan(&stats);
                    }
                }
                None => {
                    let (bytes, containers) = store.scan_all_until(|o| {
                        alive = emit(o, &tx);
                        alive
                    });
                    worker_bytes = bytes as u64;
                    ticket.absorb_sweep(bytes, containers);
                }
            },
        }
        if alive && !out.is_empty() {
            ship(&ticket, &tx, ResultBatch::Rows(out));
        }
        // The interpreted scan is a single serial worker; register it so
        // `workers_used` is truthful on every path.
        ticket.note_worker(WorkerScan {
            bytes_scanned: worker_bytes,
            morsels: 0,
            rows_selected: kept,
        });
    });
    BatchHandle { columns, rx }
}

/// Spawn an aggregate directly over a scan. A compilable scan or a MATCH
/// folds **in-scan**: workers fold partial accumulators (no `__agg_i`
/// columns, no per-row channel traffic) merged into the one result row.
/// Anything else takes the channel path.
fn spawn_agg_scan(
    env: &ExecEnv,
    spec: ScanSpec,
    aggs: Vec<AggSpec>,
    ticket: &Arc<TicketCore>,
) -> BatchHandle {
    let (tx, rx) = bounded::<ResultBatch>(CHANNEL_DEPTH);
    let columns = Arc::new(aggs.iter().map(|a| a.name.clone()).collect::<Vec<_>>());
    let funcs: Vec<AggFn> = aggs.iter().map(|a| a.func).collect();
    let t = ticket.clone();
    let merge = {
        let (funcs, t) = (funcs.clone(), t.clone());
        move |partials: Vec<Vec<AggAcc>>| send_merged(partials, &funcs, &t, &tx)
    };
    if let QuerySource::Match(m) = spec.source.clone() {
        let args: Arc<Vec<Option<Expr>>> = Arc::new(aggs.into_iter().map(|a| a.arg).collect());
        let sink = move |join: &Arc<MatchJoin>| PairFold {
            join: join.clone(),
            args: args.clone(),
            accs: new_accs(&funcs),
            ticket: t.clone(),
            pairs: 0,
        };
        spawn_drive(env.workers, ticket, match_leaf(env, spec, m), sink, merge);
    } else {
        let args: Vec<Option<&Expr>> = aggs.iter().map(|a| a.arg.as_ref()).collect();
        let Some((filter, inputs)) = compile_filter(&spec, env.tags.is_some(), env.mode)
            .and_then(|filter| Some((filter, compile_agg_inputs(&args)?)))
        else {
            return spawn_aggregate_over(env, PlanNode::Scan(spec), aggs, ticket);
        };
        let (filter, inputs) = (Arc::new(filter), Arc::new(inputs));
        let sink = move |_: &()| FoldSink {
            rows: Selector::new(&filter),
            inputs: inputs.clone(),
            accs: new_accs(&funcs),
            ticket: t.clone(),
        };
        spawn_drive(env.workers, ticket, scan_leaf(env, spec), sink, merge);
    }
    BatchHandle { columns, rx }
}

/// The shared partial merge of the in-scan aggregates (scan and MATCH).
/// A panicked worker left no partial; its failure is already on the
/// ticket, so the consumer reports it instead of this row.
fn send_merged(
    partials: Vec<Vec<AggAcc>>,
    funcs: &[AggFn],
    ticket: &TicketCore,
    tx: &Sender<ResultBatch>,
) {
    let mut acc = new_accs(funcs);
    for partial in partials {
        for (a, p) in acc.iter_mut().zip(partial) {
            a.merge(p);
        }
    }
    let row: Row = acc.into_iter().map(AggAcc::finish).collect();
    ticket.note_emitted();
    let _ = tx.send(ResultBatch::Rows(vec![row]));
}

/// Ship one batch into the fabric, counted at the batch edge; `false`
/// when the consumer hung up.
fn ship(ticket: &TicketCore, tx: &Sender<ResultBatch>, batch: ResultBatch) -> bool {
    ticket.note_batch(batch.len());
    tx.send(batch).is_ok()
}

/// Where a columnar scan's morsels come from — the substrate the morsel
/// driver drains. Tag scans resolve an HTM cover into a [`TagScanPlan`]
/// (one morsel per touched container); stored sets expose their SoA
/// chunks directly (one morsel per chunk, every row pre-selected). The
/// compiled predicate/projection machinery is identical above this seam,
/// which is exactly what makes `FROM <set>` ride the same
/// morsel-parallel compiled path as a tag scan.
enum ScanSource {
    Tag {
        store: Arc<TagStore>,
        plan: Arc<TagScanPlan>,
    },
    Set(Arc<ResultSet>),
}

impl ScanSource {
    /// Resolve a compiled scan's source. Records the failure on the
    /// ticket and returns `None` when resolution fails (scan planning
    /// error, or a stored set missing from the pinned snapshot — the
    /// latter indicates a prepare-time bug, since sessions pin sets).
    fn resolve(
        tags: &Option<Arc<TagStore>>,
        sets: &HashMap<String, Arc<ResultSet>>,
        spec: &ScanSpec,
        cover_level: Option<u8>,
        ticket: &TicketCore,
    ) -> Option<ScanSource> {
        match &spec.source {
            QuerySource::Set(name) => match sets.get(name) {
                Some(set) => Some(ScanSource::Set(set.clone())),
                None => {
                    ticket.record_failure(format!(
                        "stored set `{name}` was not pinned at prepare time"
                    ));
                    None
                }
            },
            _ => {
                let store = tags.clone().expect("columnar gate checked the tag store");
                match store.plan_batch_scan(spec.domain.as_ref(), cover_level) {
                    Ok(plan) => Some(ScanSource::Tag {
                        store,
                        plan: Arc::new(plan),
                    }),
                    Err(e) => {
                        ticket.record_failure(format!("scan planning failed: {e}"));
                        None
                    }
                }
            }
        }
    }

    /// Byte weight per morsel — the [`MorselQueue`] sharding input.
    fn morsel_bytes(&self) -> Vec<usize> {
        match self {
            ScanSource::Tag { plan, .. } => plan.morsel_bytes(),
            ScanSource::Set(set) => set.chunk_bytes(),
        }
    }

    fn n_morsels(&self) -> usize {
        match self {
            ScanSource::Tag { plan, .. } => plan.morsels().len(),
            ScanSource::Set(set) => set.n_chunks(),
        }
    }

    /// Bytes a full drain of the source reads.
    fn total_bytes(&self) -> u64 {
        self.morsel_bytes().iter().sum::<usize>() as u64
    }

    /// Plan-time cover lookup outcome (`None` for sweeps and sets).
    fn cover_cache_hit(&self) -> Option<bool> {
        match self {
            ScanSource::Tag { plan, .. } => plan.cover_cache_hit(),
            ScanSource::Set(_) => None,
        }
    }

    /// Scan one morsel, streaming `(ColumnBatch, SelectionMask)` pairs.
    fn scan_morsel(
        &self,
        idx: usize,
        f: impl FnMut(&ColumnBatch<'_>, &SelectionMask) -> bool,
    ) -> (RegionScan, bool) {
        match self {
            ScanSource::Tag { store, plan } => store.scan_morsel(plan, idx, f),
            ScanSource::Set(set) => set.scan_chunk(idx, f),
        }
    }
}

// ---------------------------------------------------------------------
// The morsel driver
// ---------------------------------------------------------------------

/// What one morsel worker does with the batches it scans: [`EmitSink`],
/// [`FoldSink`], the MATCH probe ([`PairRows`] / [`PairFold`]) and
/// [`IntoSink`]. The driver is generic over its sink, so every worker
/// loop monomorphizes — no dynamic call per row or pair.
trait MorselSink {
    /// What the worker hands back to the driver's caller.
    type Partial: Send + 'static;

    /// Consume one scanned batch; `sel` holds the rows the source
    /// selected (the cover mask, or every row of a set chunk). `false`
    /// stops every worker of the drive (consumer hang-up, quota overrun).
    fn consume(&mut self, batch: &ColumnBatch<'_>, sel: &SelectionMask) -> bool;

    /// Close the worker: the rows it kept (selected rows, folded rows or
    /// pairs — its `WorkerScan::rows_selected`) and its partial.
    fn finish(self) -> (u64, Self::Partial);
}

/// One drive's shared state, held by every worker through an `Arc`.
struct Drive<F> {
    source: ScanSource,
    queue: MorselQueue,
    make_sink: F,
    ticket: Arc<TicketCore>,
    /// Raised by the first sink that stops; every worker halts at its
    /// next batch.
    stopped: AtomicBool,
}

/// The one morsel driver: projection, in-scan aggregate, MATCH probe and
/// INTO all run through here, and only here knows the drive policy:
///
/// 1. note the source's plan-time cover-cache lookup;
/// 2. cap the workers at `min(workers, morsels)`;
/// 3. shard the morsels byte-balanced into a [`MorselQueue`]: a morsel is
///    one container (or set chunk), a claim is one `fetch_add`, and a
///    worker drains its spatially contiguous home shard before stealing
///    from the fullest one, so a fat container delays only its worker;
/// 4. run the calling thread as worker 0 and spawn and join the rest,
///    recording every worker's panic (worker 0's too) on the ticket — a
///    dead worker is a failure, never a truncated result;
/// 5. stop at the next morsel and batch on cancel or once a sink stops;
/// 6. record each worker's [`RegionScan`], morsels and kept rows.
///
/// **Slot accounting.** Admission counts worker threads, not queries: a
/// query granted `W` workers holds `W` slots while it scans, so an
/// 8-worker sweep weighs like 8 single-worker queries and the admission
/// bound stays a true bound on scan threads. Hence never more than
/// `workers` workers; callers pass their grant ([`ExecEnv::workers`]).
///
/// Returns once every worker is done, with the partials of those that
/// finished; a panicked worker's failure is on the ticket by then.
fn run_morsels<S, F>(
    source: ScanSource,
    workers: usize,
    ticket: &Arc<TicketCore>,
    make_sink: F,
) -> Vec<S::Partial>
where
    S: MorselSink,
    F: Fn() -> S + Send + Sync + 'static,
{
    if let Some(hit) = source.cover_cache_hit() {
        ticket.note_cover(hit);
    }
    let n_workers = workers.min(source.n_morsels()).max(1);
    let drive = Arc::new(Drive {
        queue: MorselQueue::build(&source.morsel_bytes(), n_workers),
        source,
        make_sink,
        ticket: ticket.clone(),
        stopped: AtomicBool::new(false),
    });
    let handles: Vec<_> = (1..n_workers)
        .map(|w| {
            let drive = drive.clone();
            std::thread::spawn(move || drive.run_worker(w))
        })
        .collect();
    let mut partials: Vec<S::Partial> = guarded(ticket, || drive.run_worker(0))
        .into_iter()
        .collect();
    // The drive (and any channel sender its sinks clone) outlives every
    // join, so a consumer cannot see end-of-stream before a panic is on
    // the ticket.
    for handle in handles {
        match handle.join() {
            Ok(partial) => partials.push(partial),
            Err(panic) => record_panic(ticket, panic),
        }
    }
    partials
}

impl<F> Drive<F> {
    fn halted(&self) -> bool {
        self.stopped.load(Ordering::Relaxed) || self.ticket.is_cancelled()
    }

    fn run_worker<S: MorselSink>(&self, w: usize) -> S::Partial
    where
        F: Fn() -> S,
    {
        let mut sink = (self.make_sink)();
        let mut local = RegionScan::default();
        let mut morsels = 0u64;
        while !self.halted() {
            let Some(m) = self.queue.next(w) else { break };
            morsels += 1;
            #[cfg(test)]
            if self.ticket.claims_until_fault.fetch_update(
                Ordering::Relaxed,
                Ordering::Relaxed,
                |k| k.checked_sub(1),
            ) == Ok(1)
            {
                panic!("injected fault: worker {w} claimed the faulting morsel");
            }
            let (stats, _) = self.source.scan_morsel(m, |batch, sel| {
                let more = !self.halted() && sink.consume(batch, sel);
                if !more {
                    self.stopped.store(true, Ordering::Relaxed);
                }
                more
            });
            local.merge(&stats);
        }
        let (rows, partial) = sink.finish();
        self.ticket.note_worker(WorkerScan {
            bytes_scanned: local.bytes_scanned as u64,
            morsels,
            rows_selected: rows,
        });
        self.ticket.absorb_scan(&local);
        partial
    }
}

/// Launch one morsel-driven leaf on a coordinator thread: `resolve`
/// yields its source plus what its sinks share (the join, for a MATCH),
/// `workers` workers drain it, and `finish` takes their partials.
fn spawn_drive<X, S>(
    workers: usize,
    ticket: &Arc<TicketCore>,
    resolve: impl FnOnce(&TicketCore) -> Option<(ScanSource, X)> + Send + 'static,
    make_sink: impl Fn(&X) -> S + Send + Sync + 'static,
    finish: impl FnOnce(Vec<S::Partial>) + Send + 'static,
) where
    X: Send + Sync + 'static,
    S: MorselSink,
{
    let t = ticket.clone();
    spawn_guarded(ticket.clone(), move || {
        if let Some((source, shared)) = resolve(&t) {
            finish(run_morsels(source, workers, &t, move || make_sink(&shared)));
        }
    });
}

/// A compiled tag/set scan leaf's resolution for [`spawn_drive`]. It
/// captures only what the scan reads: a coordinator thread may outlive
/// its stream by a moment and must not pin the full store.
fn scan_leaf(
    env: &ExecEnv,
    spec: ScanSpec,
) -> impl FnOnce(&TicketCore) -> Option<(ScanSource, ())> + Send + 'static {
    let (tags, sets, level) = (env.tags.clone(), env.sets.clone(), env.cover_level);
    move |t| Some((ScanSource::resolve(&tags, &sets, &spec, level, t)?, ()))
}

/// A MATCH leaf's resolution for [`spawn_drive`]: the probe source and
/// the prepared join.
fn match_leaf(
    env: &ExecEnv,
    spec: ScanSpec,
    m: MatchSpec,
) -> impl FnOnce(&TicketCore) -> Option<(ScanSource, Arc<MatchJoin>)> + Send + 'static {
    let (tags, sets) = (env.tags.clone(), env.sets.clone());
    move |t| MatchJoin::prepare(&tags, &sets, &spec, &m, t)
}

/// One worker's side of a [`RowFilter`], counting the rows it kept.
struct Selector {
    filter: Arc<RowFilter>,
    scratch: BatchScratch,
    sampled_out: Vec<usize>,
    kept: u64,
}

impl Selector {
    fn new(filter: &Arc<RowFilter>) -> Selector {
        Selector {
            filter: filter.clone(),
            scratch: BatchScratch::new(),
            sampled_out: Vec::new(),
            kept: 0,
        }
    }

    /// The batch rows this scan keeps: the cover mask ANDed with the
    /// compiled predicate (cover-rejected rows hinted away), then the
    /// sample filter. One rule for the projection, aggregate and INTO
    /// sinks.
    fn select(&mut self, batch: &ColumnBatch<'_>, sel: &SelectionMask) -> SelectionMask {
        let mut keep = sel.clone();
        if let Some(pred) = &self.filter.pred {
            keep.and_with(pred.eval_hinted(batch, &mut self.scratch, Some(sel)));
        }
        if let Some(f) = self.filter.sample {
            self.sampled_out.clear();
            self.sampled_out.extend(
                keep.iter_set()
                    .filter(|&i| !sample_hash_keep(batch.obj_id[i], f)),
            );
            for &i in &self.sampled_out {
                keep.clear(i);
            }
        }
        self.kept += keep.count() as u64;
        keep
    }
}

/// The projection sink: kept rows project into [`ColumnarBatch`]es,
/// coalesced up to [`COALESCE_ROWS`] per channel send — except a
/// worker's first non-empty batch, which flushes immediately so
/// coalescing never holds back the ASAP time-to-first-row.
struct EmitSink {
    rows: Selector,
    proj: Arc<CompiledProjection>,
    tx: Sender<ResultBatch>,
    ticket: Arc<TicketCore>,
    pending: Option<ColumnarBatch>,
    sent_any: bool,
}

impl MorselSink for EmitSink {
    type Partial = ();

    fn consume(&mut self, batch: &ColumnBatch<'_>, sel: &SelectionMask) -> bool {
        let keep = self.rows.select(batch, sel);
        if !keep.any() {
            return true;
        }
        let out = self.proj.eval_batch(batch, &keep, &mut self.rows.scratch);
        match &mut self.pending {
            Some(p) => p.append(out),
            None => self.pending = Some(out),
        }
        let threshold = if self.sent_any { COALESCE_ROWS } else { 1 };
        let Some(out) = self.pending.take_if(|p| p.len() >= threshold) else {
            return true;
        };
        self.sent_any = true;
        ship(&self.ticket, &self.tx, ResultBatch::Columnar(out))
    }

    fn finish(self) -> (u64, ()) {
        if let Some(out) = self.pending {
            ship(&self.ticket, &self.tx, ResultBatch::Columnar(out));
        }
        (self.rows.kept, ())
    }
}

/// The in-scan aggregate sink: fold partials straight off the kept
/// lanes (partial even when cancelled, like the channel path).
struct FoldSink {
    rows: Selector,
    inputs: Arc<CompiledAggInputs>,
    accs: Vec<AggAcc>,
    ticket: Arc<TicketCore>,
}

impl MorselSink for FoldSink {
    type Partial = Vec<AggAcc>;

    fn consume(&mut self, batch: &ColumnBatch<'_>, sel: &SelectionMask) -> bool {
        let keep = self.rows.select(batch, sel);
        if keep.any() {
            let accs = &mut self.accs;
            self.inputs
                .fold(batch, &keep, &mut self.rows.scratch, |i, v| {
                    accs[i].update(v)
                });
        }
        true
    }

    fn finish(self) -> (u64, Vec<AggAcc>) {
        // Folded rows never ship as batches; count them into the scan
        // totals here.
        self.ticket.note_rows(self.rows.kept);
        (self.rows.kept, self.accs)
    }
}

/// The INTO sink: kept rows copy their column lanes (`ra`/`dec` and
/// `htm20` included) straight into a [`ResultSetBuilder`] — no per-objid
/// full-store fetch, no record rebuilt. The session byte budget is
/// checked live per pushed row; the first row past it stops every worker.
struct IntoSink {
    rows: Selector,
    builder: ResultSetBuilder,
    budget: u64,
    ticket: Arc<TicketCore>,
}

impl MorselSink for IntoSink {
    type Partial = ResultSetBuilder;

    fn consume(&mut self, batch: &ColumnBatch<'_>, sel: &SelectionMask) -> bool {
        let keep = self.rows.select(batch, sel);
        let kept = keep.count();
        if kept > 0 {
            self.ticket.note_batch(kept);
        }
        let within_budget = keep.iter_set().all(|i| {
            self.builder.push_from(batch, i);
            self.builder.bytes() as u64 <= self.budget
        });
        within_budget
    }

    fn finish(self) -> (u64, ResultSetBuilder) {
        (self.rows.kept, self.builder)
    }
}

/// The direct columnar INTO fast path: drive a compiled tag/set scan
/// into a new result set of `chunk_rows`-row chunks, failing once it
/// outgrows `budget` bytes. Tag containers and stored sets both hold
/// each object at most once, so the builder sees no duplicate object
/// pointers (the property the slow path's dedup hash exists to
/// establish for set-op streams). INTO holds one worker slot, so its
/// one worker runs on the calling thread; a worker panic returns `Err`
/// like a quota overrun, and neither builds a set.
pub(crate) fn run_into(
    env: &ExecEnv,
    spec: &ScanSpec,
    filter: RowFilter,
    ticket: &Arc<TicketCore>,
    set_name: &str,
    chunk_rows: usize,
    budget: u64,
) -> Result<ResultSet, QueryError> {
    let (filter, t) = (Arc::new(filter), ticket.clone());
    let make_sink = move || IntoSink {
        rows: Selector::new(&filter),
        builder: ResultSetBuilder::new(chunk_rows),
        budget,
        ticket: t.clone(),
    };
    let mut partials =
        match ScanSource::resolve(&env.tags, &env.sets, spec, env.cover_level, ticket) {
            Some(source) => run_morsels(source, 1, ticket, make_sink),
            None => Vec::new(),
        };
    // Resolution failures and worker panics are both on the ticket.
    if let Some(msg) = ticket.failure() {
        return Err(QueryError::Exec(msg));
    }
    let builder = partials.pop().expect("the INTO worker reported");
    if builder.bytes() as u64 > budget {
        return Err(QueryError::Exec(format!(
            "session byte quota exceeded materializing `{set_name}`: \
             {budget} bytes available, {} rows already folded",
            builder.rows()
        )));
    }
    Ok(builder.finish())
}

// ---------------------------------------------------------------------
// MATCH joins: morsel-parallel cross-match over a declination-zone
// build side
// ---------------------------------------------------------------------

/// The part of the archive a MATCH reads. When exactly one input is the
/// archive and the other a stored set, only the set's footprint cap
/// (see [`MatchFootprint::of_set`]) can hold partners; every other shape
/// reads the archive whole. The cost estimate and the execution both
/// call this, so EXPLAIN, admission and the scan agree on what is read.
pub(crate) fn match_archive_footprint(
    m: &MatchSpec,
    sets: &HashMap<String, Arc<ResultSet>>,
) -> MatchFootprint {
    let set = match (&m.a, &m.b) {
        (MatchInput::Archive, MatchInput::Set(name))
        | (MatchInput::Set(name), MatchInput::Archive) => sets.get(name),
        _ => None,
    };
    match set {
        Some(set) => MatchFootprint::of_set(set, m.radius_arcsec),
        None => MatchFootprint::Whole,
    }
}

/// One pair of a MATCH join, presented to the row-wise evaluator:
/// `a.<attr>` / `b.<attr>` resolve through the underlying tag records,
/// `sep_arcsec` is the pair's angular separation. Positional functions
/// see the probe (`a`) side.
struct PairSource<'x> {
    a: &'x TagObject,
    b: &'x TagObject,
    sep_arcsec: f64,
}

impl AttrSource for PairSource<'_> {
    fn attr(&self, name: &str) -> Option<Value> {
        if name == "sep_arcsec" {
            return Some(Value::Num(self.sep_arcsec));
        }
        if let Some(base) = name.strip_prefix("a.") {
            return self.a.attr(base);
        }
        if let Some(base) = name.strip_prefix("b.") {
            return self.b.attr(base);
        }
        None
    }

    fn position(&self) -> sdss_skycoords::UnitVec3 {
        self.a.unit_vec()
    }
}

/// Whether a MATCH builds its index on input `a` and probes with `b`:
/// the join builds on the input with fewer bytes to read, since the
/// build is serial and held in memory while the probe side streams
/// morsel-parallel. Ties keep `a` as the probe side. The cost estimate
/// and the execution both decide through this rule.
pub(crate) fn match_builds_on_a(a_bytes: u64, b_bytes: u64) -> bool {
    a_bytes < b_bytes
}

/// The build half of one MATCH execution: the collected build rows with
/// their [`DecZoneIndex`] and the join parameters, shared read-only by
/// every probe worker. The probe side is a plain [`ScanSource`] that the
/// morsel driver drains like any columnar scan.
struct MatchJoin {
    predicate: Option<Expr>,
    /// The sample clause when it filters probe rows (`a` probes).
    probe_sample: Option<f64>,
    radius_arcsec: f64,
    /// The build rows are input `a` and the probe rows input `b` (see
    /// [`match_builds_on_a`]); pairs are presented as `(a, b)` either way.
    build_is_a: bool,
    build: Vec<TagObject>,
    index: DecZoneIndex,
}

impl MatchJoin {
    /// Resolve both join sides (the archive one restricted to the
    /// footprint), collect the build side and index it; returns the probe
    /// source and the join. Failures are recorded on the ticket.
    fn prepare(
        tags: &Option<Arc<TagStore>>,
        sets: &HashMap<String, Arc<ResultSet>>,
        spec: &ScanSpec,
        m: &MatchSpec,
        ticket: &TicketCore,
    ) -> Option<(ScanSource, Arc<MatchJoin>)> {
        let footprint = match_archive_footprint(m, sets);
        let a = Self::resolve_input(&m.a, &footprint, tags, sets, ticket)?;
        let b = Self::resolve_input(&m.b, &footprint, tags, sets, ticket)?;
        let build_is_a = match_builds_on_a(a.total_bytes(), b.total_bytes());
        let (probe, build_side) = if build_is_a { (b, a) } else { (a, b) };
        // The driver notes the probe side's cover lookup; note the
        // build side's here.
        if let Some(hit) = build_side.cover_cache_hit() {
            ticket.note_cover(hit);
        }
        // The sample clause filters `a` rows: on the probe side when `a`
        // probes, here when it is the build side.
        let build_sample = spec.sample.filter(|_| build_is_a);
        let build = Self::collect_build(&build_side, build_sample, ticket)?;
        let index = DecZoneIndex::build(build.iter().map(TagObject::unit_vec), m.radius_arcsec);
        let join = MatchJoin {
            predicate: spec.predicate.clone(),
            probe_sample: spec.sample.filter(|_| !build_is_a),
            radius_arcsec: m.radius_arcsec,
            build_is_a,
            build,
            index,
        };
        Some((probe, Arc::new(join)))
    }

    /// One join input as a morsel source, delegated to the scan path's
    /// own resolver via a bare scan spec: stored sets expose their
    /// chunks, the archive resolves to a tag scan plan over `footprint`
    /// (a cover of the other input's cap, or the whole sky), and an
    /// archive input facing an empty set resolves to no rows at all.
    fn resolve_input(
        input: &MatchInput,
        footprint: &MatchFootprint,
        tags: &Option<Arc<TagStore>>,
        sets: &HashMap<String, Arc<ResultSet>>,
        ticket: &TicketCore,
    ) -> Option<ScanSource> {
        let (source, domain) = match input {
            MatchInput::Set(name) => (QuerySource::Set(name.clone()), None),
            MatchInput::Archive if *footprint == MatchFootprint::Empty => {
                return Some(ScanSource::Set(Arc::new(ResultSetBuilder::new(1).finish())));
            }
            MatchInput::Archive => (QuerySource::Tag, footprint.domain().cloned()),
        };
        let spec = ScanSpec {
            source,
            domain,
            predicate: None,
            columns: Vec::new(),
            sample: None,
        };
        ScanSource::resolve(tags, sets, &spec, None, ticket)
    }

    /// Materialize the build side once as owned tag rows: every morsel's
    /// selected rows (a footprint-restricted archive scan clears the
    /// rows of bisected containers outside the cap), filtered by the
    /// sample when it applies to this side. Cancellation is checked per
    /// morsel — a whole-archive build side is the most expensive thing
    /// a cancelled MATCH could otherwise keep doing. Its bytes count
    /// toward the execution totals but toward no probe worker.
    fn collect_build(
        source: &ScanSource,
        sample: Option<f64>,
        ticket: &TicketCore,
    ) -> Option<Vec<TagObject>> {
        let mut rows = Vec::new();
        let mut bytes = 0usize;
        let containers = source.n_morsels();
        for idx in 0..containers {
            if ticket.is_cancelled() {
                return None;
            }
            let (stats, _) = source.scan_morsel(idx, |batch, sel| {
                rows.extend(
                    sel.iter_set()
                        .filter(|&i| sample.is_none_or(|f| sample_hash_keep(batch.obj_id[i], f)))
                        .map(|i| batch.row(i)),
                );
                true
            });
            bytes += stats.bytes_scanned;
        }
        ticket.absorb_sweep(bytes, containers);
        Some(rows)
    }

    /// Join the selected probe rows of one batch against the zone index
    /// and hand every surviving pair to `on_pair`: identity pairs
    /// excluded, the sample applied to `a` rows, the predicate evaluated
    /// per pair. `false` from `on_pair` stops the probe and is returned.
    fn probe(
        &self,
        batch: &ColumnBatch<'_>,
        sel: &SelectionMask,
        mut on_pair: impl FnMut(&PairSource<'_>) -> bool,
    ) -> bool {
        let mut alive = true;
        for i in sel.iter_set() {
            let probe_id = batch.obj_id[i];
            if self
                .probe_sample
                .is_some_and(|f| !sample_hash_keep(probe_id, f))
            {
                continue;
            }
            // The probe row is only materialized once it pairs.
            let mut probe_row: Option<TagObject> = None;
            self.index
                .neighbors_within(batch.unit_vec(i), self.radius_arcsec, |ri, sep| {
                    if !alive {
                        return;
                    }
                    let built = &self.build[ri as usize];
                    // An object is not its own neighbor: the self-join
                    // identity pair (sep = 0) carries no information.
                    if built.obj_id == probe_id {
                        return;
                    }
                    let probed = &*probe_row.get_or_insert_with(|| batch.row(i));
                    let (a, b) = if self.build_is_a {
                        (built, probed)
                    } else {
                        (probed, built)
                    };
                    let pair = PairSource {
                        a,
                        b,
                        sep_arcsec: sep,
                    };
                    if let Some(pred) = &self.predicate {
                        match eval(pred, &pair) {
                            Ok(Value::Bool(true)) => {}
                            // Type errors drop the pair, like the
                            // row-wise scan fallback.
                            Ok(_) | Err(_) => return,
                        }
                    }
                    alive = on_pair(&pair);
                });
            if !alive {
                return false;
            }
        }
        true
    }
}

/// The MATCH sink that emits pairs: probe, then evaluate the output
/// expressions per pair and ship row batches (pair rows are
/// heterogeneous expression results — the row form of the fabric, like
/// every non-compiled path).
struct PairRows {
    join: Arc<MatchJoin>,
    exprs: Arc<Vec<Expr>>,
    out: Vec<Row>,
    tx: Sender<ResultBatch>,
    ticket: Arc<TicketCore>,
    pairs: u64,
}

impl MorselSink for PairRows {
    type Partial = ();

    fn consume(&mut self, batch: &ColumnBatch<'_>, sel: &SelectionMask) -> bool {
        self.join.probe(batch, sel, |pair| {
            self.pairs += 1;
            let row = self
                .exprs
                .iter()
                .map(|e| eval(e, pair).unwrap_or(Value::Null));
            self.out.push(row.collect());
            self.out.len() < BATCH
                || ship(
                    &self.ticket,
                    &self.tx,
                    ResultBatch::Rows(std::mem::take(&mut self.out)),
                )
        })
    }

    fn finish(self) -> (u64, ()) {
        if !self.out.is_empty() {
            ship(&self.ticket, &self.tx, ResultBatch::Rows(self.out));
        }
        (self.pairs, ())
    }
}

/// The MATCH sink that folds pairs: probe, then fold each pair straight
/// into partial accumulators.
struct PairFold {
    join: Arc<MatchJoin>,
    args: Arc<Vec<Option<Expr>>>,
    accs: Vec<AggAcc>,
    ticket: Arc<TicketCore>,
    pairs: u64,
}

impl MorselSink for PairFold {
    type Partial = Vec<AggAcc>;

    fn consume(&mut self, batch: &ColumnBatch<'_>, sel: &SelectionMask) -> bool {
        self.join.probe(batch, sel, |pair| {
            self.pairs += 1;
            for (acc, arg) in self.accs.iter_mut().zip(self.args.iter()) {
                let v = arg.as_ref().and_then(|e| eval(e, pair).ok());
                acc.update(v.and_then(|v| v.as_num()));
            }
            true
        })
    }

    fn finish(self) -> (u64, Vec<AggAcc>) {
        // Folded pairs never ship as batches; count them into the scan
        // totals like the in-scan aggregate over a normal scan does, so
        // `QueryStats.scan.rows_scanned` stays comparable across shapes.
        self.ticket.note_rows(self.pairs);
        (self.pairs, self.accs)
    }
}

/// Wrapper so `&dyn AttrSource` satisfies the generic eval bound.
struct SourceRef<'a>(&'a dyn AttrSource);

impl AttrSource for SourceRef<'_> {
    fn attr(&self, name: &str) -> Option<Value> {
        self.0.attr(name)
    }

    fn position(&self) -> sdss_skycoords::UnitVec3 {
        self.0.position()
    }
}

/// Total order over values for ORDER BY (numbers < strings < bools < NULL).
pub fn compare_values(a: &Value, b: &Value) -> std::cmp::Ordering {
    use std::cmp::Ordering::*;
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => x.total_cmp(y),
        (Value::Id(x), Value::Id(y)) => x.cmp(y),
        (Value::Id(x), Value::Num(y)) => (*x as f64).total_cmp(y),
        (Value::Num(x), Value::Id(y)) => x.total_cmp(&(*y as f64)),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Null, Value::Null) => Equal,
        (Value::Num(_) | Value::Id(_), _) => Less,
        (_, Value::Num(_) | Value::Id(_)) => Greater,
        (Value::Str(_), _) => Less,
        (_, Value::Str(_)) => Greater,
        (Value::Bool(_), _) => Less,
        (_, Value::Bool(_)) => Greater,
    }
}

/// Fresh accumulators, one per aggregate function.
fn new_accs(funcs: &[AggFn]) -> Vec<AggAcc> {
    funcs.iter().map(|&f| AggAcc::new(f)).collect()
}

/// Aggregate accumulator.
struct AggAcc {
    func: AggFn,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl AggAcc {
    fn new(func: AggFn) -> AggAcc {
        AggAcc {
            func,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn update(&mut self, v: Option<f64>) {
        match self.func {
            AggFn::Count => self.count += 1,
            _ => {
                if let Some(x) = v {
                    self.count += 1;
                    self.sum += x;
                    self.min = self.min.min(x);
                    self.max = self.max.max(x);
                }
            }
        }
    }

    /// Fold another partial accumulator of the same function into this
    /// one — per-worker partials merging at the edge of a parallel
    /// aggregate scan.
    fn merge(&mut self, o: AggAcc) {
        self.count += o.count;
        self.sum += o.sum;
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
    }

    fn finish(self) -> Value {
        match self.func {
            AggFn::Count => Value::Num(self.count as f64),
            AggFn::Sum => Value::Num(self.sum),
            AggFn::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Num(self.sum / self.count as f64)
                }
            }
            AggFn::Min => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Num(self.min)
                }
            }
            AggFn::Max => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Num(self.max)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_ordering_total() {
        let vals = [
            Value::Num(1.0),
            Value::Num(2.0),
            Value::Str("a".into()),
            Value::Bool(false),
            Value::Null,
        ];
        // compare_values is a total order: antisymmetric & transitive on
        // this sample.
        for a in &vals {
            assert_eq!(compare_values(a, a), std::cmp::Ordering::Equal);
            for b in &vals {
                let ab = compare_values(a, b);
                let ba = compare_values(b, a);
                assert_eq!(ab, ba.reverse());
            }
        }
    }

    #[test]
    fn agg_accumulators() {
        let mut count = AggAcc::new(AggFn::Count);
        let mut avg = AggAcc::new(AggFn::Avg);
        let mut min = AggAcc::new(AggFn::Min);
        let mut max = AggAcc::new(AggFn::Max);
        let mut sum = AggAcc::new(AggFn::Sum);
        for v in [2.0, 4.0, 6.0] {
            count.update(None);
            avg.update(Some(v));
            min.update(Some(v));
            max.update(Some(v));
            sum.update(Some(v));
        }
        assert_eq!(count.finish(), Value::Num(3.0));
        assert_eq!(avg.finish(), Value::Num(4.0));
        assert_eq!(min.finish(), Value::Num(2.0));
        assert_eq!(max.finish(), Value::Num(6.0));
        assert_eq!(sum.finish(), Value::Num(12.0));
        // Empty aggregates are NULL (except COUNT = 0).
        assert_eq!(AggAcc::new(AggFn::Avg).finish(), Value::Null);
        assert_eq!(AggAcc::new(AggFn::Count).finish(), Value::Num(0.0));
    }

    #[test]
    fn columnar_batch_rows_and_truncate() {
        let mut b = ColumnarBatch::new(
            vec![
                ColumnData::Id(vec![1, 2, 3]),
                ColumnData::Num(vec![1.5, 2.5, 3.5]),
                ColumnData::Class(vec![2, 1, 3]),
            ],
            3,
        );
        assert_eq!(b.len(), 3);
        let rows = b.rows();
        assert_eq!(rows[0][0], Value::Id(1));
        assert_eq!(rows[1][1], Value::Num(2.5));
        assert_eq!(rows[2][2], Value::Str("QSO".to_string()));
        b.truncate(1);
        assert_eq!(b.len(), 1);
        assert_eq!(b.rows().len(), 1);
        // num_at / id_at agree with the materialized values.
        assert_eq!(b.columns()[0].num_at(0), Some(1.0));
        assert_eq!(b.columns()[1].num_at(0), Some(1.5));
        assert_eq!(b.columns()[2].num_at(0), None);
        assert_eq!(b.columns()[0].id_at(0), Some(1));
    }

    #[test]
    fn guarded_spawn_surfaces_panics() {
        let ticket = Arc::new(TicketCore::default());
        spawn_guarded(ticket.clone(), || panic!("boom in a node thread"));
        // The detached thread records its panic instead of vanishing.
        for _ in 0..200 {
            if ticket.failure().is_some() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let msg = ticket.failure().expect("panic recorded");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn ticket_counters_accumulate() {
        let t = TicketCore::default();
        t.note_batch(10);
        t.note_batch(5);
        t.absorb_sweep(1024, 3);
        let totals = t.totals();
        assert_eq!(totals.rows_scanned, 15);
        assert_eq!(totals.batches_emitted, 2);
        assert_eq!(totals.bytes_scanned, 1024);
        assert_eq!(totals.containers_full, 3);
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
    }
}
