//! QET execution with ASAP push streaming of *batches*.
//!
//! All parallelism is at the scan leaves: each scan leaf and in-scan
//! aggregate is a drive whose granted workers push [`ResultBatch`]es up
//! a bounded crossbeam channel from the moment the execution starts, so
//! the first matching object reaches the consumer while scans still
//! run. `Limit`, `Sort` and `Set` are pulled above the leaves on the
//! consumer's thread (`Node`); Sort and Set are the paper's blocking
//! nodes ("at least one of the child nodes must be complete before
//! results can be sent further up the tree") and drain a child on their
//! first pull.
//!
//! Tag scans run **columnar**: the scan leaf pulls
//! [`sdss_storage::ColumnBatch`]es from the tag store's struct-of-arrays
//! chunks, evaluates the compiled predicate ([`crate::compile`]) over
//! each batch into a selection bitmap, and ships the projected columns
//! onward as a [`ColumnarBatch`] — typed column vectors, **not** rows.
//! Rows materialize only at the edge, when a consumer calls
//! [`ResultBatch::rows`], which builds every value of the batch eagerly
//! into one row-major [`RowBlock`] (one allocation per batch, not per
//! row); row-at-a-time interpretation, the fallback for whatever the
//! compiler can't express, fills [`RowBlock`]s itself.
//!
//! Every scan execution — projection, in-scan aggregate, MATCH probe,
//! INTO fast path and the row interpreter, over tags, stored sets and
//! the full store alike — runs through one morsel driver
//! (`run_morsels`): the granted workers drain a byte-balanced queue of
//! container-sized morsels, each feeding its own sink. The full store
//! feeds the row interpreter in-place record views, so a record is read
//! only once it passes the cover, and only in the attributes the query
//! names. Prepare resolves each scan leaf's morsel source once (a
//! `Leaf`), and every execution takes the leaves in plan order.
//!
//! Execution is owned, not scoped: stores travel as `Arc`s and drives
//! run on their own threads, so the operator tree can outlive the call
//! that started it (the pull-based `ResultStream` of [`crate::archive`]).
//! Drives observe consumer disappearance through channel send errors
//! and cooperative cancellation through the shared [`TicketCore`].

use crate::ast::{AggFn, Expr, SetOp, Value};
use crate::compile::{
    compile_agg_inputs, compile_predicate, compile_projection, BatchScratch, CompiledAggInputs,
    CompiledPredicate, CompiledProjection,
};
use crate::ops::{eval, AttrSource};
use crate::plan::{AggSpec, MatchInput, MatchSpec, PlanNode, QuerySource, ScanSpec};
use crate::QueryError;
use crossbeam::channel::{bounded, Receiver, Sender};
use sdss_catalog::{ObjClass, PhotoRecord, TagObject};
use sdss_storage::{
    cut_runs, sample_hash_keep, ColumnBatch, ColumnChunk, DecZoneIndex, MorselQueue, ObjectStore,
    RegionScan, ResultSet, ScanPlan, SelectionMask, TagStore,
};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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
    // Inlined into the edge's per-cell loop; the class arm's string
    // build stays out of line in `class_value`.
    #[inline]
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            ColumnData::Num(v) => Value::Num(v[i]),
            ColumnData::Id(v) => Value::Id(v[i]),
            ColumnData::Class(v) => class_value(v[i]),
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

/// A stored class byte as its edge value, the class name.
fn class_value(b: u8) -> Value {
    Value::Str(
        ObjClass::from_u8(b)
            .expect("valid stored class")
            .as_str()
            .to_string(),
    )
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

    /// Materialize every row into one row-major [`RowBlock`] — the edge
    /// adapter. One allocation per batch; every `Value` is built before
    /// this returns.
    pub fn rows(&self) -> RowBlock {
        let width = self.columns.len();
        let mut values = Vec::with_capacity(self.len * width);
        for i in 0..self.len {
            for col in &self.columns {
                values.push(col.value_at(i));
            }
        }
        RowBlock {
            values,
            width,
            len: self.len,
        }
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
                        row.push(class_value(b));
                    }
                }
            }
        }
    }
}

/// A batch of materialized rows: one row-major `Vec<Value>` slab
/// (`width` values per row), so a batch costs one allocation instead of
/// one per row. The row interpreter, MATCH pairs, aggregates and the
/// pulled operators fill blocks directly, and [`ResultBatch::rows`]
/// hands them to the client as they are. Eager: every `Value` is fully
/// built. Index or iterate it as `&[Value]` rows; [`RowBlock::into_rows`]
/// moves the values out as owned rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowBlock {
    values: Vec<Value>,
    width: usize,
    len: usize,
}

impl RowBlock {
    /// An empty block of `width`-value rows with room for `rows` rows.
    fn with_capacity(width: usize, rows: usize) -> RowBlock {
        RowBlock {
            values: Vec::with_capacity(width * rows),
            width,
            len: 0,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The rows in order, each as a `&[Value]` of `width` values.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Value]> + '_ {
        (0..self.len).map(move |i| &self[i])
    }

    /// Owned rows, moving every value out of the slab (no clones).
    pub fn into_rows(self) -> Vec<Row> {
        let mut values = self.values.into_iter();
        (0..self.len)
            .map(|_| values.by_ref().take(self.width).collect())
            .collect()
    }

    /// Append one row of exactly `width` values, one `push` per value (at
    /// the columnar edge a `Vec::extend` per row cost 36 against 22 ns).
    fn push(&mut self, row: impl IntoIterator<Item = Value>) {
        for value in row {
            self.values.push(value);
        }
        self.len += 1;
        debug_assert_eq!(self.values.len(), self.len * self.width, "one row width");
    }

    /// Append every row of `other`, moving its values (an empty block
    /// takes `other` whole).
    fn append(&mut self, other: RowBlock) {
        if self.len == 0 {
            *self = other;
            return;
        }
        assert_eq!(other.width, self.width, "one node emits one row width");
        self.values.extend(other.values);
        self.len += other.len;
    }

    fn truncate(&mut self, n: usize) {
        if n < self.len {
            self.values.truncate(n * self.width);
            self.len = n;
        }
    }

    /// Hand out the rows so far, leaving an empty block of the same width.
    fn take(&mut self) -> RowBlock {
        let empty = RowBlock::with_capacity(self.width, self.len);
        std::mem::replace(self, empty)
    }

    /// Move the rows at `rows`, in that order, into a new block; each
    /// moved value leaves a `Null` behind.
    fn take_rows(&mut self, rows: impl ExactSizeIterator<Item = usize>) -> RowBlock {
        let width = self.width;
        let mut out = RowBlock::with_capacity(width, rows.len());
        for r in rows {
            let row = &mut self.values[r * width..(r + 1) * width];
            out.push(row.iter_mut().map(|v| std::mem::replace(v, Value::Null)));
        }
        out
    }
}

impl std::ops::Index<usize> for RowBlock {
    type Output = [Value];

    fn index(&self, row: usize) -> &[Value] {
        assert!(row < self.len, "row {row} out of {} rows", self.len);
        &self.values[row * self.width..(row + 1) * self.width]
    }
}

/// What the drives push and the operators pass up: columnar batches from
/// the compiled scan path, row blocks from everything else.
#[derive(Debug, Clone)]
pub enum ResultBatch {
    Columnar(ColumnarBatch),
    Rows(RowBlock),
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

    /// Materialize into one row-major [`RowBlock`] — the edge adapter.
    /// Eager, and one allocation per batch: columnar batches decode here
    /// and nowhere earlier; a row batch already is a block.
    pub fn rows(self) -> RowBlock {
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
            ResultBatch::Rows(r) => out.extend(r.into_rows()),
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
    /// One entry per scan worker that ran.
    worker_scans: Mutex<Vec<WorkerScan>>,
    /// First execution-thread panic, surfaced instead of silently
    /// truncating the result (a drive's coordinator thread is detached).
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
    /// Container morsels this worker claimed from the queue.
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
    /// batches, and their channels close.
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
}

// ---------------------------------------------------------------------
// The execution environment and fabric
// ---------------------------------------------------------------------

/// What a query execution needs beside its scan leaves, which prepare
/// resolved and which hold the stores and sets they read.
#[derive(Debug, Clone)]
pub struct ExecEnv {
    pub tags: Option<Arc<TagStore>>,
    pub mode: ExecMode,
    /// Scan workers each scan leaf may use (≥ 1). The caller
    /// holds this many admission slots per leaf — see the morsel
    /// driver (`run_morsels`) for the slot-accounting contract.
    pub workers: usize,
}

/// The compiled row selection of a morsel-driven scan: the predicate
/// (when present) and the deterministic sample filter, applied on top
/// of the source's cover mask. Every worker of a drive shares it.
pub(crate) struct RowFilter {
    pred: Option<CompiledPredicate>,
    sample: Option<f64>,
}

/// The one gate of every compiled scan shape: `Some` iff the mode allows
/// the columnar path, the source has a column image (tags when the tag
/// store is present, stored sets always — never the full store, and
/// MATCH pairs evaluate row-wise), and the predicate (when present)
/// compiles. Projection and in-scan aggregates add what their sinks
/// need; INTO needs nothing more (it takes whole records).
pub(crate) fn compile_filter(
    spec: &ScanSpec,
    tags_available: bool,
    mode: ExecMode,
) -> Option<RowFilter> {
    let columns = match spec.source {
        QuerySource::Tag => tags_available,
        QuerySource::Set(_) => true,
        QuerySource::Full | QuerySource::Match(_) => false,
    };
    if mode != ExecMode::Auto || !columns {
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

/// Lower an aggregate over a scan for compiled in-scan folding: the
/// shared gate plus compilable argument lanes. The executor and
/// `plan_uses_columnar` both decide through here.
fn compile_fold(
    spec: &ScanSpec,
    aggs: &[AggSpec],
    tags_available: bool,
    mode: ExecMode,
) -> Option<(RowFilter, CompiledAggInputs)> {
    let filter = compile_filter(spec, tags_available, mode)?;
    let args: Vec<Option<&Expr>> = aggs.iter().map(|a| a.arg.as_ref()).collect();
    Some((filter, compile_agg_inputs(&args)?))
}

/// Do *all* scan leaves of the plan run columnar?
pub fn plan_uses_columnar(plan: &PlanNode, tags_available: bool, mode: ExecMode) -> bool {
    match plan {
        PlanNode::Scan(s) => compile_scan(s, tags_available, mode).is_some(),
        PlanNode::Aggregate { child, aggs } => matches!(
            child.as_ref(),
            PlanNode::Scan(s) if compile_fold(s, aggs, tags_available, mode).is_some()
        ),
        PlanNode::Sort { child, .. } | PlanNode::Limit { child, .. } => {
            plan_uses_columnar(child, tags_available, mode)
        }
        PlanNode::Set { left, right, .. } => {
            plan_uses_columnar(left, tags_available, mode)
                && plan_uses_columnar(right, tags_available, mode)
        }
    }
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

/// The plan's leaves not yet taken, in left-to-right order.
type Leaves<'a> = std::slice::Iter<'a, Leaf>;

/// The next scan node's leaf.
fn next_leaf(leaves: &mut Leaves<'_>) -> Leaf {
    let leaf = leaves
        .next()
        .expect("prepare resolves one leaf per scan node");
    leaf.clone()
}

// ---------------------------------------------------------------------
// The pulled operators
// ---------------------------------------------------------------------

/// One execution's plan as its stream pulls it, on the consumer's
/// thread: scan leaves and aggregates are the channels of drives started
/// with the tree, and `Limit`, `Sort` and `Set` pull their children. No
/// operator starts a thread, so none can outlive its stream.
pub(crate) enum Node {
    /// A scan leaf or in-scan aggregate: its drive's batches.
    Drive(Receiver<ResultBatch>),
    /// `LIMIT n`: truncates, and drops its child once spent, which
    /// closes the drives below it.
    Limit {
        child: Option<Box<Node>>,
        remaining: usize,
    },
    Sort(Box<Sort>),
    Set(Box<SetNode>),
}

impl Node {
    /// Start every scan leaf's drive and build the operators over them.
    /// `leaves` are the plan's scan leaves as prepare resolved them, in
    /// the plan's left-to-right order; each scan node takes the next one.
    /// Dropping the tree closes every drive's channel, and
    /// `ticket.cancel()` stops the drives between batches.
    pub(crate) fn start(
        env: &ExecEnv,
        node: PlanNode,
        leaves: &mut Leaves<'_>,
        ticket: &Arc<TicketCore>,
    ) -> Node {
        let mut build = |node: Box<PlanNode>| Node::start(env, *node, leaves, ticket);
        match node {
            PlanNode::Scan(spec) => Node::Drive(spawn_scan(env, spec, next_leaf(leaves), ticket)),
            PlanNode::Aggregate { child, aggs } => {
                let PlanNode::Scan(spec) = *child else {
                    unreachable!("the planner puts every aggregate directly over its scan")
                };
                Node::Drive(spawn_agg_scan(env, spec, aggs, next_leaf(leaves), ticket))
            }
            PlanNode::Limit { child, n } => Node::Limit {
                // A `LIMIT 0` still takes its leaves, then drops them.
                child: Some(Box::new(build(child))).filter(|_| n > 0),
                remaining: n,
            },
            PlanNode::Sort { child, key, desc } => Node::Sort(Box::new(Sort {
                key_col: child.columns().iter().position(|c| c == &key),
                child: Some(build(child)),
                desc,
                ..Sort::default()
            })),
            PlanNode::Set { op, left, right } => {
                let objid = left.columns().iter().position(|c| c == "objid");
                // The left subtree takes its leaves first.
                let left = build(left);
                let right = Some(build(right));
                Node::Set(Box::new(SetNode {
                    op,
                    objid_col: objid.expect("planner enforced objid for set ops"),
                    left,
                    right,
                    right_ids: HashSet::new(),
                    right_only: Vec::new().into_iter(),
                    seen: HashSet::new(),
                }))
            }
        }
    }

    /// The next batch, or `None` once the node is done (and on every
    /// pull after).
    pub(crate) fn next(&mut self) -> Option<ResultBatch> {
        match self {
            Node::Drive(rx) => rx.recv().ok(),
            Node::Limit { child, remaining } => {
                let mut batch = child.as_mut()?.next()?;
                batch.truncate(*remaining);
                *remaining -= batch.len();
                if *remaining == 0 {
                    *child = None;
                }
                Some(batch)
            }
            Node::Sort(sort) => sort.next(),
            Node::Set(set) => set.next(),
        }
    }
}

/// `ORDER BY key`: drains its child into one block on the first pull,
/// orders the rows by a stable sort (equal keys keep their arrival
/// order), and hands them out moved into blocks of [`BATCH`] rows.
#[derive(Default)]
pub(crate) struct Sort {
    child: Option<Node>,
    key_col: Option<usize>,
    desc: bool,
    rows: RowBlock,
    /// The rows not yet handed out, in output order.
    order: std::vec::IntoIter<usize>,
}

impl Sort {
    fn next(&mut self) -> Option<ResultBatch> {
        if let Some(mut child) = self.child.take() {
            std::iter::from_fn(|| child.next()).for_each(|batch| self.rows.append(batch.rows()));
            let mut order: Vec<usize> = (0..self.rows.len()).collect();
            if let Some(k) = self.key_col {
                let key = |r: usize| &self.rows[r][k];
                // Swapped operands order descending and keep ties stable.
                order.sort_by(|&a, &b| match self.desc {
                    false => compare_values(key(a), key(b)),
                    true => compare_values(key(b), key(a)),
                });
            }
            self.order = order.into_iter();
        }
        let n = self.order.len().min(BATCH);
        let out = self.rows.take_rows(self.order.by_ref().take(n));
        (!out.is_empty()).then_some(ResultBatch::Rows(out))
    }
}

/// `UNION`/`INTERSECT`/`EXCEPT` on `objid`: drains its right child on
/// the first pull, then filters the left stream batch by batch, each
/// object once. UNION's right-only rows come last, in arrival order.
pub(crate) struct SetNode {
    op: SetOp,
    objid_col: usize,
    left: Node,
    right: Option<Node>,
    /// The right side's objects (INTERSECT and EXCEPT).
    right_ids: HashSet<u64>,
    /// The right side's batches, unmaterialized (UNION).
    right_only: std::vec::IntoIter<ResultBatch>,
    /// The objects emitted so far.
    seen: HashSet<u64>,
}

impl SetNode {
    fn next(&mut self) -> Option<ResultBatch> {
        let key = self.objid_col;
        if let Some(mut right) = self.right.take() {
            let batches = std::iter::from_fn(|| right.next());
            if self.op == SetOp::Union {
                self.right_only = batches.collect::<Vec<_>>().into_iter();
            } else {
                for batch in batches {
                    self.right_ids
                        .extend((0..batch.len()).filter_map(|r| batch.id_at(key, r)));
                }
            }
        }
        loop {
            // The left batches, then UNION's right-only rows.
            let (batch, left) = match self.left.next() {
                Some(batch) => (batch, true),
                None => (self.right_only.next()?, false),
            };
            let mut rows = batch.rows();
            let keep: Vec<usize> = (0..rows.len())
                .filter(|&r| {
                    rows[r][key].as_id().is_some_and(|id| {
                        let keep = !left
                            || match self.op {
                                SetOp::Union => true,
                                SetOp::Intersect => self.right_ids.contains(&id),
                                SetOp::Except => !self.right_ids.contains(&id),
                            };
                        keep && self.seen.insert(id)
                    })
                })
                .collect();
            if !keep.is_empty() {
                return Some(ResultBatch::Rows(rows.take_rows(keep.into_iter())));
            }
        }
    }
}

/// Lower a scan and stream its matching batches. MATCH joins stream pair
/// rows from the zone-index probe; tag and set scans take the columnar
/// compiled path when the predicate and projection both lower to
/// bytecode; everything else — the full store always — interprets
/// row-at-a-time over the same morsels.
fn spawn_scan(
    env: &ExecEnv,
    spec: ScanSpec,
    leaf: Leaf,
    ticket: &Arc<TicketCore>,
) -> Receiver<ResultBatch> {
    let (tx, rx) = bounded::<ResultBatch>(CHANNEL_DEPTH);
    let t = ticket.clone();
    let source = match leaf {
        Leaf::Scan(source) => source,
        Leaf::Match(leaf) => {
            let exprs: Arc<Vec<Expr>> =
                Arc::new(spec.columns.iter().map(|(_, e)| e.clone()).collect());
            let sink = move |join: &Arc<MatchJoin>| PairRows {
                join: join.clone(),
                out: RowBlock::with_capacity(exprs.len(), BATCH),
                exprs: exprs.clone(),
                tx: tx.clone(),
                ticket: t.clone(),
                pairs: 0,
            };
            let probe = leaf.probe.clone();
            let join = move |t: &TicketCore| MatchJoin::build(&leaf, &spec, t);
            spawn_drive(env.workers, ticket, probe, join, sink, drop);
            return rx;
        }
    };
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
        spawn_drive(env.workers, ticket, source, no_share, sink, drop);
        return rx;
    }
    let spec = Arc::new(spec);
    let sink = move |_: &()| RowSink {
        spec: spec.clone(),
        out: RowBlock::with_capacity(spec.columns.len(), BATCH),
        tx: tx.clone(),
        ticket: t.clone(),
        kept: 0,
    };
    spawn_drive(env.workers, ticket, source, no_share, sink, drop);
    rx
}

/// Whether the row interpreter keeps a record: the sample, then the
/// predicate (a row-level type error drops the row).
fn row_kept<S: AttrSource>(spec: &ScanSpec, src: &S) -> bool {
    if let Some(f) = spec.sample {
        let id = src.attr("objid").and_then(|v| v.as_id()).unwrap_or(0);
        if !sample_hash_keep(id, f) {
            return false;
        }
    }
    spec.predicate
        .as_ref()
        .is_none_or(|pred| matches!(eval(pred, src), Ok(Value::Bool(true))))
}

/// The row interpreter: the sample, predicate and projection evaluated
/// one record at a time — the fallback for what the compiler cannot
/// express, and the oracle the compiled sinks are tested against. It
/// rebuilds each selected row of a tag or set batch as a [`TagObject`],
/// and reads full-store records in place.
struct RowSink {
    spec: Arc<ScanSpec>,
    out: RowBlock,
    tx: Sender<ResultBatch>,
    ticket: Arc<TicketCore>,
    kept: u64,
}

impl RowSink {
    /// Interpret one record; `false` on consumer hang-up.
    fn emit<S: AttrSource>(&mut self, src: &S) -> bool {
        if !row_kept(&self.spec, src) {
            return true;
        }
        let row = self
            .spec
            .columns
            .iter()
            .map(|(_, expr)| eval(expr, src).unwrap_or(Value::Null));
        self.out.push(row);
        self.kept += 1;
        self.out.len() < BATCH || ship(&self.ticket, &self.tx, ResultBatch::Rows(self.out.take()))
    }
}

impl MorselSink for RowSink {
    type Partial = ();

    fn consume(&mut self, batch: &ColumnBatch<'_>, sel: &SelectionMask) -> bool {
        sel.iter_set().all(|i| self.emit(&batch.row(i)))
    }

    fn consume_record(&mut self, rec: &PhotoRecord<'_>) -> bool {
        self.emit(rec)
    }

    fn finish(self) -> (u64, ()) {
        if !self.out.is_empty() {
            ship(&self.ticket, &self.tx, ResultBatch::Rows(self.out));
        }
        (self.kept, ())
    }
}

/// The row interpreter's aggregate sink: each record [`row_kept`] keeps
/// folds its arguments into the morsel's partial — every aggregate the
/// compiler cannot fold (the full store, [`ExecMode::Interpreted`]).
struct RowFold {
    spec: Arc<ScanSpec>,
    args: Arc<Vec<Option<Expr>>>,
    accs: MorselAccs,
    ticket: Arc<TicketCore>,
    kept: u64,
}

impl RowFold {
    fn fold<S: AttrSource>(&mut self, src: &S) {
        if row_kept(&self.spec, src) {
            self.kept += 1;
            fold_row(self.accs.current(), &self.args, src);
        }
    }
}

impl MorselSink for RowFold {
    type Partial = Vec<MorselPartial>;

    fn begin_morsel(&mut self, idx: usize) {
        self.accs.begin(idx);
    }

    fn consume(&mut self, batch: &ColumnBatch<'_>, sel: &SelectionMask) -> bool {
        sel.iter_set().for_each(|i| self.fold(&batch.row(i)));
        true
    }

    fn consume_record(&mut self, rec: &PhotoRecord<'_>) -> bool {
        self.fold(rec);
        true
    }

    fn finish(self) -> (u64, Vec<MorselPartial>) {
        self.ticket.note_rows(self.kept);
        (self.kept, self.accs.parts)
    }
}

/// Fold one interpreted row (a record or a MATCH pair) into `accs`: each
/// argument evaluated, non-numeric values and type errors skipped like
/// NULLs.
fn fold_row<S: AttrSource>(accs: &mut [AggAcc], args: &[Option<Expr>], src: &S) {
    for (acc, arg) in accs.iter_mut().zip(args) {
        let v = arg.as_ref().and_then(|e| eval(e, src).ok());
        acc.update(v.and_then(|v| v.as_num()));
    }
}

/// Spawn an aggregate over its scan. Every aggregate folds **in-scan**
/// into per-morsel partials, merged into the one result row: compiled
/// lanes ([`FoldSink`]) when the scan and the arguments compile, pairs
/// for a MATCH ([`PairFold`]), the row interpreter ([`RowFold`]) else.
fn spawn_agg_scan(
    env: &ExecEnv,
    spec: ScanSpec,
    aggs: Vec<AggSpec>,
    leaf: Leaf,
    ticket: &Arc<TicketCore>,
) -> Receiver<ResultBatch> {
    let (tx, rx) = bounded::<ResultBatch>(CHANNEL_DEPTH);
    let funcs: Vec<AggFn> = aggs.iter().map(|a| a.func).collect();
    let t = ticket.clone();
    let merge = {
        let (funcs, t) = (funcs.clone(), t.clone());
        move |partials: Vec<Vec<MorselPartial>>| send_merged(partials, &funcs, &t, &tx)
    };
    let source = match leaf {
        Leaf::Scan(source) => source,
        Leaf::Match(leaf) => {
            let args: Arc<Vec<_>> = Arc::new(aggs.into_iter().map(|a| a.arg).collect());
            let sink = move |join: &Arc<MatchJoin>| PairFold {
                join: join.clone(),
                args: args.clone(),
                accs: MorselAccs::new(&funcs),
                ticket: t.clone(),
                pairs: 0,
            };
            let probe = leaf.probe.clone();
            let join = move |t: &TicketCore| MatchJoin::build(&leaf, &spec, t);
            spawn_drive(env.workers, ticket, probe, join, sink, merge);
            return rx;
        }
    };
    if let Some((filter, inputs)) = compile_fold(&spec, &aggs, env.tags.is_some(), env.mode) {
        let (filter, inputs) = (Arc::new(filter), Arc::new(inputs));
        let sink = move |_: &()| FoldSink {
            rows: Selector::new(&filter),
            inputs: inputs.clone(),
            accs: MorselAccs::new(&funcs),
            ticket: t.clone(),
        };
        spawn_drive(env.workers, ticket, source, no_share, sink, merge);
        return rx;
    }
    let args: Arc<Vec<_>> = Arc::new(aggs.into_iter().map(|a| a.arg).collect());
    let spec = Arc::new(spec);
    let sink = move |_: &()| RowFold {
        spec: spec.clone(),
        args: args.clone(),
        accs: MorselAccs::new(&funcs),
        ticket: t.clone(),
        kept: 0,
    };
    spawn_drive(env.workers, ticket, source, no_share, sink, merge);
    rx
}

/// One morsel's aggregate partial, tagged with its morsel index.
type MorselPartial = (usize, Vec<AggAcc>);

/// An aggregate sink's partials, one per morsel it scanned. Merged in
/// morsel-index order ([`send_merged`]), a sum rounds the same way
/// whichever worker folded which morsel, so an aggregate answers
/// bit-identically at any worker count.
struct MorselAccs {
    funcs: Vec<AggFn>,
    parts: Vec<MorselPartial>,
}

impl MorselAccs {
    fn new(funcs: &[AggFn]) -> MorselAccs {
        MorselAccs {
            funcs: funcs.to_vec(),
            parts: Vec::new(),
        }
    }

    fn begin(&mut self, idx: usize) {
        self.parts.push((idx, new_accs(&self.funcs)));
    }

    /// The open morsel's accumulators.
    fn current(&mut self) -> &mut [AggAcc] {
        &mut self.parts.last_mut().expect("begin_morsel opened one").1
    }
}

/// The shared partial merge of the in-scan aggregates: every worker's
/// per-morsel partials, folded in morsel-index order. A panicked worker
/// left no partial; its failure is already on the ticket, so the
/// consumer reports it instead of this row.
fn send_merged(
    partials: Vec<Vec<MorselPartial>>,
    funcs: &[AggFn],
    ticket: &TicketCore,
    tx: &Sender<ResultBatch>,
) {
    let mut parts: Vec<MorselPartial> = partials.into_iter().flatten().collect();
    parts.sort_unstable_by_key(|&(idx, _)| idx);
    let mut acc = new_accs(funcs);
    for (_, part) in parts {
        for (a, p) in acc.iter_mut().zip(part) {
            a.merge(p);
        }
    }
    let mut row = RowBlock::with_capacity(funcs.len(), 1);
    row.push(acc.into_iter().map(AggAcc::finish));
    ticket.note_emitted();
    let _ = tx.send(ResultBatch::Rows(row));
}

/// Ship one batch into the fabric, counted at the batch edge; `false`
/// when the consumer hung up.
fn ship(ticket: &TicketCore, tx: &Sender<ResultBatch>, batch: ResultBatch) -> bool {
    ticket.note_batch(batch.len());
    tx.send(batch).is_ok()
}

/// One scan leaf of a prepared statement, resolved at prepare: where its
/// rows come from. Prepare resolves the leaves in the plan's
/// left-to-right order, in the walk that makes the cost estimate, and
/// every execution takes them in that order, so an execution looks
/// nothing up, plans nothing and decides nothing about its sources. A
/// leaf holds the stores and stored sets it reads, which pins a
/// session's sets for as long as the statement lives.
#[derive(Clone, Debug)]
pub(crate) enum Leaf {
    /// A tag, full-store or stored-set scan.
    Scan(ScanSource),
    /// A MATCH join.
    Match(MatchLeaf),
}

/// A MATCH leaf: both inputs' sources and the join's shape, decided at
/// prepare from the one footprint (see [`Leaf::join`]).
#[derive(Clone, Debug)]
pub(crate) struct MatchLeaf {
    /// The input the workers drain, morsel by morsel.
    pub(crate) probe: ScanSource,
    /// The input the coordinator collects and indexes.
    pub(crate) build: ScanSource,
    /// The build rows are input `a` and the probe rows input `b`; pairs
    /// are presented as `(a, b)` either way.
    pub(crate) build_is_a: bool,
    /// Whether the zone index carries an occupancy filter (see
    /// [`MatchJoin`]).
    occupancy: bool,
    radius_arcsec: f64,
}

impl Leaf {
    /// A MATCH leaf over its inputs `a` and `b`. The join builds on the
    /// input with fewer bytes to read, since the build is serial and
    /// held in memory while the probe side streams morsel-parallel; ties
    /// keep `a` as the probe side. The index filters on occupancy only
    /// where the archive probes a stored set (see [`MatchJoin`]).
    pub(crate) fn join(m: &MatchSpec, a: ScanSource, b: ScanSource) -> Leaf {
        let build_is_a = a.total_bytes() < b.total_bytes();
        let (probe_input, build_input) = if build_is_a {
            (&m.b, &m.a)
        } else {
            (&m.a, &m.b)
        };
        let occupancy = matches!(
            (probe_input, build_input),
            (MatchInput::Archive, MatchInput::Set(_))
        );
        let (probe, build) = if build_is_a { (b, a) } else { (a, b) };
        Leaf::Match(MatchLeaf {
            probe,
            build,
            build_is_a,
            occupancy,
            radius_arcsec: m.radius_arcsec,
        })
    }

    /// Morsels the granted workers drain: the scan's, or a MATCH's probe
    /// side's (the coordinator reads the build side alone).
    pub(crate) fn drained_morsels(&self) -> usize {
        match self {
            Leaf::Scan(source) => source.n_morsels(),
            Leaf::Match(m) => m.probe.n_morsels(),
        }
    }
}

/// Where a scan's morsels come from — the substrate the morsel driver
/// drains, fixed at prepare. Tag and full-store scans hold the
/// [`ScanPlan`] prepare made from their HTM cover (one morsel per touched
/// container); stored sets expose their SoA chunks (one morsel per chunk,
/// every row pre-selected). Tag and set morsels stream column batches,
/// which is what makes `FROM <set>` ride the same compiled path as a tag
/// scan; full-store morsels stream in-place record views to the row
/// interpreter.
#[derive(Clone, Debug)]
pub(crate) enum ScanSource {
    Tag(Arc<TagStore>, Arc<ScanPlan>),
    Set(Arc<ResultSet>),
    Full(Arc<ObjectStore>, Arc<ScanPlan>),
}

impl ScanSource {
    /// Byte weight per morsel — the [`MorselQueue`] sharding input.
    fn morsel_bytes(&self) -> Vec<usize> {
        match self {
            ScanSource::Tag(_, plan) | ScanSource::Full(_, plan) => plan.morsel_bytes(),
            ScanSource::Set(set) => set.chunk_bytes(),
        }
    }

    fn n_morsels(&self) -> usize {
        match self {
            ScanSource::Tag(_, plan) | ScanSource::Full(_, plan) => plan.morsels().len(),
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
            ScanSource::Tag(_, plan) | ScanSource::Full(_, plan) => plan.cover_cache_hit(),
            ScanSource::Set(_) => None,
        }
    }

    /// The column chunk morsel `idx` of a tag or set source reads.
    fn morsel_chunk(&self, idx: usize) -> &ColumnChunk {
        match self {
            ScanSource::Tag(store, plan) => store
                .column_chunk(plan.morsels()[idx].container)
                .expect("a planned morsel's container is stored"),
            ScanSource::Set(set) => &set.chunks()[idx],
            ScanSource::Full(..) => unreachable!("full-store morsels hold records, not lanes"),
        }
    }

    /// Scan one morsel into `sink` until it or `halted` says stop.
    /// Returns the morsel's accounting and whether it ran to completion.
    fn scan_morsel<S: MorselSink>(
        &self,
        idx: usize,
        sink: &mut S,
        halted: impl Fn() -> bool,
    ) -> (RegionScan, bool) {
        let batches =
            |batch: &ColumnBatch<'_>, sel: &SelectionMask| !halted() && sink.consume(batch, sel);
        match self {
            ScanSource::Tag(store, plan) => store.scan_morsel(plan, idx, batches),
            ScanSource::Set(set) => set.scan_chunk(idx, batches),
            ScanSource::Full(store, plan) => {
                store.scan_morsel(plan, idx, |rec| !halted() && sink.consume_record(rec))
            }
        }
    }
}

// ---------------------------------------------------------------------
// The morsel driver
// ---------------------------------------------------------------------

/// What one morsel worker does with the rows it scans: [`EmitSink`],
/// [`FoldSink`], the MATCH probe ([`PairRows`] / [`PairFold`]),
/// [`IntoSink`] and the row interpreter ([`RowSink`] / [`RowFold`]). The
/// driver is generic over its sink, so every worker loop monomorphizes —
/// no dynamic call per row, record or pair.
trait MorselSink {
    /// What the worker hands back to the driver's caller.
    type Partial: Send + 'static;

    /// A morsel (index `idx` of the source) begins; the aggregate sinks
    /// open its partial here.
    fn begin_morsel(&mut self, _idx: usize) {}

    /// Consume one scanned batch; `sel` holds the rows the source
    /// selected (the cover mask, or every row of a set chunk). `false`
    /// stops every worker of the drive (consumer hang-up, quota overrun).
    fn consume(&mut self, batch: &ColumnBatch<'_>, sel: &SelectionMask) -> bool;

    /// Consume one full-store record inside the scan's domain, like
    /// [`MorselSink::consume`]. Only the row interpreter's sinks take
    /// records: [`compile_filter`] keeps compiled sinks off the full store.
    fn consume_record(&mut self, _rec: &PhotoRecord<'_>) -> bool {
        unreachable!("the compile gate keeps compiled sinks off the full store")
    }

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

/// The one morsel driver: projection, in-scan aggregate, MATCH probe,
/// INTO and the row interpreter all run through here. The source arrives
/// as prepare resolved it, so the driver plans and looks up nothing, and
/// only the driver knows the drive policy:
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
            sink.begin_morsel(m);
            let (stats, completed) = self.source.scan_morsel(m, &mut sink, || self.halted());
            local.merge(&stats);
            if !completed {
                self.stopped.store(true, Ordering::Relaxed);
            }
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

/// A closure over column batches is a sink that hands nothing back (the
/// MATCH build side's collector).
impl<F: FnMut(&ColumnBatch<'_>, &SelectionMask) -> bool> MorselSink for F {
    type Partial = ();

    fn consume(&mut self, batch: &ColumnBatch<'_>, sel: &SelectionMask) -> bool {
        self(batch, sel)
    }

    fn finish(self) -> (u64, ()) {
        (0, ())
    }
}

/// Launch one morsel-driven leaf on a coordinator thread: `share` builds
/// what its sinks share there (a MATCH's join; `None` stops the leaf),
/// `workers` workers drain `source`, and `finish` takes their partials.
/// The coordinator is detached, so it records its panic on the ticket: a
/// silently dead producer would read as a clean (truncated) result.
fn spawn_drive<X, S>(
    workers: usize,
    ticket: &Arc<TicketCore>,
    source: ScanSource,
    share: impl FnOnce(&TicketCore) -> Option<X> + Send + 'static,
    make_sink: impl Fn(&X) -> S + Send + Sync + 'static,
    finish: impl FnOnce(Vec<S::Partial>) + Send + 'static,
) where
    X: Send + Sync + 'static,
    S: MorselSink,
{
    let t = ticket.clone();
    std::thread::spawn(move || {
        guarded(&t, || {
            if let Some(shared) = share(&t) {
                finish(run_morsels(source, workers, &t, move || make_sink(&shared)));
            }
        })
    });
}

/// The `share` of a scan whose sinks share nothing.
fn no_share(_: &TicketCore) -> Option<()> {
    Some(())
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

/// The compiled in-scan aggregate sink: fold per-morsel partials
/// straight off the kept lanes, a whole lane per aggregate per batch
/// ([`AggAcc::fold_lane`]; partial even when cancelled).
struct FoldSink {
    rows: Selector,
    inputs: Arc<CompiledAggInputs>,
    accs: MorselAccs,
    ticket: Arc<TicketCore>,
}

impl MorselSink for FoldSink {
    type Partial = Vec<MorselPartial>;

    fn begin_morsel(&mut self, idx: usize) {
        self.accs.begin(idx);
    }

    fn consume(&mut self, batch: &ColumnBatch<'_>, sel: &SelectionMask) -> bool {
        let keep = self.rows.select(batch, sel);
        if keep.any() {
            let accs = self.accs.current();
            self.inputs
                .fold(batch, &keep, &mut self.rows.scratch, |i, lane| {
                    accs[i].fold_lane(lane, &keep)
                });
        }
        true
    }

    fn finish(self) -> (u64, Vec<MorselPartial>) {
        // Folded rows never ship as batches; count them into the scan
        // totals here.
        self.ticket.note_rows(self.rows.kept);
        (self.rows.kept, self.accs.parts)
    }
}

/// The lane path's INTO plan: one compiled scan's filter, and for a set
/// operation the right branch's filter over the same source and domain.
pub(crate) struct IntoPlan {
    filter: Arc<RowFilter>,
    set: Option<(SetOp, Arc<RowFilter>)>,
}

/// Lower an INTO statement's bound plan for the lane path: a bare scan,
/// or `UNION`/`INTERSECT`/`EXCEPT` over two scans of one source and
/// domain, whose every leaf passes [`compile_filter`] (tag or set
/// sources, which hold each object once). A set operation's leaves must
/// also project `objid` itself, since the stream route keys its set
/// semantics on that column. `None` sends the statement down the
/// stream-and-fetch route.
pub(crate) fn compile_into(
    root: PlanNode,
    tags_available: bool,
    mode: ExecMode,
) -> Option<IntoPlan> {
    let leaf = |node: PlanNode, keyed: bool| {
        let PlanNode::Scan(spec) = node else {
            return None;
        };
        let objid = ("objid".to_string(), Expr::Attr("objid".to_string()));
        if keyed && !spec.columns.contains(&objid) {
            return None;
        }
        let filter = Arc::new(compile_filter(&spec, tags_available, mode)?);
        Some((spec, filter))
    };
    match root {
        PlanNode::Set { op, left, right } => {
            let (spec, filter) = leaf(*left, true)?;
            let (right, right_filter) = leaf(*right, true)?;
            let fused = spec.source == right.source && spec.domain == right.domain;
            fused.then_some(IntoPlan {
                filter,
                set: Some((op, right_filter)),
            })
        }
        scan => {
            let (_, filter) = leaf(scan, false)?;
            Some(IntoPlan { filter, set: None })
        }
    }
}

/// The session byte budget of one INTO, charged by every worker for the
/// rows it will commit.
struct IntoQuota {
    budget: u64,
    charged: AtomicU64,
}

impl IntoQuota {
    /// Charge `rows` rows; `false` once the INTO has outgrown its budget.
    fn charge(&self, rows: usize) -> bool {
        let bytes = (rows * ColumnChunk::ROW_BYTES) as u64;
        self.charged.fetch_add(bytes, Ordering::Relaxed) + bytes <= self.budget
    }

    fn exceeded(&self) -> bool {
        self.charged.load(Ordering::Relaxed) > self.budget
    }
}

/// The rows one morsel's scan keeps for the set: its index and, per
/// output (the left rows; UNION's right-only rows), the kept rows'
/// positions in the morsel's chunk.
type KeptRows = (usize, [Vec<u32>; 2]);

/// The INTO sink: selects each batch's rows and records the kept rows'
/// chunk positions per morsel; no lane is copied during the scan (the
/// commit writes each row once, see [`run_into`]). A fused set
/// operation selects both branches per batch: the source holds each
/// object once, so a row is in both branches exactly when its id is.
/// Each batch charges the shared quota for the rows it keeps; the first
/// charge past the budget stops every worker.
struct IntoSink {
    rows: Selector,
    /// A set operation's operator and right-branch selector.
    right: Option<(SetOp, Selector)>,
    quota: Arc<IntoQuota>,
    ticket: Arc<TicketCore>,
    kept: Vec<KeptRows>,
}

impl MorselSink for IntoSink {
    type Partial = Vec<KeptRows>;

    fn begin_morsel(&mut self, idx: usize) {
        self.kept.push((idx, Default::default()));
    }

    fn consume(&mut self, batch: &ColumnBatch<'_>, sel: &SelectionMask) -> bool {
        let mut left = self.rows.select(batch, sel);
        let right_only = match &mut self.right {
            None => None,
            Some((op, right)) => {
                let mut right = right.select(batch, sel);
                match op {
                    SetOp::Union => {
                        let mut right_only = left.clone();
                        right_only.invert();
                        right_only.and_with(&right);
                        Some(right_only)
                    }
                    SetOp::Intersect => {
                        left.and_with(&right);
                        None
                    }
                    SetOp::Except => {
                        right.invert();
                        left.and_with(&right);
                        None
                    }
                }
            }
        };
        let (_, kept) = self.kept.last_mut().expect("batches follow begin_morsel");
        let before = kept[0].len() + kept[1].len();
        for (out, mask) in kept.iter_mut().zip([Some(&left), right_only.as_ref()]) {
            if let Some(mask) = mask {
                out.extend(mask.iter_set().map(|i| (batch.base + i) as u32));
            }
        }
        let n = kept[0].len() + kept[1].len() - before;
        if n == 0 {
            return true;
        }
        self.ticket.note_batch(n);
        self.quota.charge(n)
    }

    fn finish(self) -> (u64, Vec<KeptRows>) {
        let rows = self.kept.iter().map(|(_, k)| k[0].len() + k[1].len());
        (rows.sum::<usize>() as u64, self.kept)
    }
}

/// The direct columnar INTO path: drive an [`IntoPlan`]'s scan of the
/// statement's one resolved leaf (a fused set operation resolves only its
/// left branch's) with `env.workers` workers into a new result set of
/// `chunk_rows`-row chunks, failing once it outgrows `budget` bytes.
///
/// A set operation runs as the one scan, selecting both branches per
/// batch: no second scan, no id hash. The workers record which rows
/// each morsel keeps; the commit then knows every row's place in the
/// set (the left rows, then UNION's right-only rows, each in morsel
/// order), and the same number of writers build the set's chunks, each
/// gathering a chunk's rows lane by lane into lanes allocated once
/// ([`ColumnChunk::gather`]): every row is copied once. A set's rows,
/// row order and chunks are therefore the same at every worker count,
/// and the same as the stream route's at one worker per leaf. A worker
/// panic or quota overrun returns `Err` and builds no set.
pub(crate) fn run_into(
    env: &ExecEnv,
    leaves: &[Leaf],
    plan: IntoPlan,
    ticket: &Arc<TicketCore>,
    set_name: &str,
    chunk_rows: usize,
    budget: u64,
) -> Result<ResultSet, QueryError> {
    let [Leaf::Scan(source)] = leaves else {
        unreachable!("a lane-route INTO resolves one scan leaf")
    };
    let failed = || QueryError::Exec(ticket.failure().unwrap_or_default());
    let quota = Arc::new(IntoQuota {
        budget,
        charged: AtomicU64::new(0),
    });
    let (filter, right) = (plan.filter, plan.set);
    let (q, t) = (quota.clone(), ticket.clone());
    let parts = run_morsels(source.clone(), env.workers, ticket, move || IntoSink {
        rows: Selector::new(&filter),
        right: right.as_ref().map(|(op, f)| (*op, Selector::new(f))),
        quota: q.clone(),
        ticket: t.clone(),
        kept: Vec::new(),
    });
    if ticket.failure().is_some() {
        return Err(failed());
    }
    let mut kept: Vec<KeptRows> = parts.into_iter().flatten().collect();
    kept.sort_unstable_by_key(|(m, _)| *m);
    let kept = &kept;
    let runs = (0..2).flat_map(|out| {
        let kept = kept.iter().filter(move |(_, rows)| !rows[out].is_empty());
        kept.map(move |(m, rows)| (source.morsel_chunk(*m), &rows[out][..]))
    });
    let chunks = cut_runs(runs, chunk_rows);
    let rows: usize = chunks.iter().flatten().map(|(_, rows)| rows.len()).sum();
    if quota.exceeded() || (rows * ColumnChunk::ROW_BYTES) as u64 > budget {
        return Err(QueryError::Exec(format!(
            "session byte quota exceeded materializing `{set_name}`: \
             {budget} bytes available, {rows} rows already folded",
        )));
    }
    // Each writer claims whole set chunks, so it allocates and fills its
    // chunk's lanes once.
    let next = AtomicUsize::new(0);
    let write = || {
        let mut built = Vec::new();
        loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            let Some(pieces) = chunks.get(c) else {
                return built;
            };
            built.push((c, ColumnChunk::gather(pieces)));
        }
    };
    let mut built = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..env.workers.min(chunks.len()))
            .map(|_| s.spawn(write))
            .collect();
        let mut built = write();
        for helper in helpers {
            match helper.join() {
                Ok(chunks) => built.extend(chunks),
                Err(panic) => record_panic(ticket, panic),
            }
        }
        built
    });
    if ticket.failure().is_some() {
        return Err(failed());
    }
    built.sort_unstable_by_key(|(c, _)| *c);
    Ok(ResultSet::from_chunks(
        built.into_iter().map(|(_, chunk)| chunk).collect(),
    ))
}

// ---------------------------------------------------------------------
// MATCH joins: morsel-parallel cross-match over a declination-zone
// build side
// ---------------------------------------------------------------------

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

/// A MATCH's collected build rows and each row's `(ra, dec)` lanes.
type BuildRows = (Vec<TagObject>, Vec<(f64, f64)>);

/// The build half of one MATCH execution: the collected build rows with
/// their [`DecZoneIndex`] and the join parameters, shared read-only by
/// every probe worker. Prepare fixed both sides and the join's shape in
/// the [`MatchLeaf`]; the probe side is a plain [`ScanSource`] that the
/// morsel driver drains like any columnar scan.
///
/// The index is built from the build batches' `ra`/`dec` lanes, and it
/// carries an occupancy filter when a stored set builds and the archive
/// probes. That is the set-vs-archive shape, where the archive inside
/// the set's footprint mostly holds rows with no partner, and the filter
/// turns them away before any stripe search. Self-joins skip it: every
/// probe row pairs at least with itself, so the filter would reject
/// nothing and only add its build. Joins of two different sets skip it
/// too; no workload runs one.
struct MatchJoin {
    predicate: Option<Expr>,
    /// The sample clause when it filters probe rows (`a` probes).
    probe_sample: Option<f64>,
    radius_arcsec: f64,
    /// See [`MatchLeaf::build_is_a`].
    build_is_a: bool,
    build: Vec<TagObject>,
    index: DecZoneIndex,
}

impl MatchJoin {
    /// Collect a MATCH leaf's build side and index it, on the leaf's
    /// coordinator thread; `None` once cancelled.
    fn build(leaf: &MatchLeaf, spec: &ScanSpec, ticket: &TicketCore) -> Option<Arc<MatchJoin>> {
        // The driver notes the probe side's cover lookup; note the
        // build side's here.
        if let Some(hit) = leaf.build.cover_cache_hit() {
            ticket.note_cover(hit);
        }
        // The sample clause filters `a` rows: on the probe side when `a`
        // probes, here when it is the build side.
        let build_sample = spec.sample.filter(|_| leaf.build_is_a);
        let (build, at) = Self::collect_build(&leaf.build, build_sample, ticket)?;
        let points = build.iter().zip(at).map(|(row, at)| (row.unit_vec(), at));
        let index = DecZoneIndex::build(points, leaf.radius_arcsec, leaf.occupancy);
        Some(Arc::new(MatchJoin {
            predicate: spec.predicate.clone(),
            probe_sample: spec.sample.filter(|_| !leaf.build_is_a),
            radius_arcsec: leaf.radius_arcsec,
            build_is_a: leaf.build_is_a,
            build,
            index,
        }))
    }

    /// Materialize the build side once as owned tag rows, with each
    /// row's `(ra, dec)` from the batch lanes: every morsel's selected
    /// rows (a footprint-restricted archive scan clears the rows of
    /// bisected containers outside the cap), filtered by the sample when
    /// it applies to this side. Cancellation is checked per morsel — a
    /// whole-archive build side is the most expensive thing a cancelled
    /// MATCH could otherwise keep doing. Its bytes count toward the
    /// execution totals but toward no probe worker.
    fn collect_build(
        source: &ScanSource,
        sample: Option<f64>,
        ticket: &TicketCore,
    ) -> Option<BuildRows> {
        let (mut rows, mut at) = (Vec::new(), Vec::new());
        let mut collect = |batch: &ColumnBatch<'_>, sel: &SelectionMask| {
            let kept = sel.iter_set();
            for i in kept.filter(|&i| sample.is_none_or(|f| sample_hash_keep(batch.obj_id[i], f))) {
                rows.push(batch.row(i));
                at.push((batch.ra[i], batch.dec[i]));
            }
            true
        };
        // Each morsel's own accounting: a footprint cap's bisected
        // containers count as partial, with their exact tests.
        let mut total = RegionScan::default();
        for idx in 0..source.n_morsels() {
            if ticket.is_cancelled() {
                return None;
            }
            let (stats, _) = source.scan_morsel(idx, &mut collect, || false);
            total.merge(&stats);
        }
        ticket.absorb_scan(&total);
        Some((rows, at))
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
            let at = (batch.ra[i], batch.dec[i]);
            self.index
                .neighbors_within(batch.unit_vec(i), at, self.radius_arcsec, |ri, sep| {
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
    out: RowBlock,
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
            self.out.push(row);
            self.out.len() < BATCH
                || ship(&self.ticket, &self.tx, ResultBatch::Rows(self.out.take()))
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
/// into the morsel's partial accumulators.
struct PairFold {
    join: Arc<MatchJoin>,
    args: Arc<Vec<Option<Expr>>>,
    accs: MorselAccs,
    ticket: Arc<TicketCore>,
    pairs: u64,
}

impl MorselSink for PairFold {
    type Partial = Vec<MorselPartial>;

    fn begin_morsel(&mut self, idx: usize) {
        self.accs.begin(idx);
    }

    fn consume(&mut self, batch: &ColumnBatch<'_>, sel: &SelectionMask) -> bool {
        let accs = self.accs.current();
        self.join.probe(batch, sel, |pair| {
            self.pairs += 1;
            fold_row(accs, &self.args, pair);
            true
        })
    }

    fn finish(self) -> (u64, Vec<MorselPartial>) {
        // Folded pairs never ship as batches; count them into the scan
        // totals like the in-scan aggregate over a normal scan does, so
        // `QueryStats.scan.rows_scanned` stays comparable across shapes.
        self.ticket.note_rows(self.pairs);
        (self.pairs, self.accs.parts)
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

    /// Fold the rows `sel` keeps of one batch lane (`None` for
    /// `COUNT(*)`): the function is matched once per batch, `COUNT` is a
    /// popcount, and the value aggregates walk the set bits in ascending
    /// row order with `update`'s own `+=`, `f64::min` and `f64::max`, so
    /// the partial finishes bit-identically to one `update` per row.
    /// Only the field the function finishes from is folded.
    fn fold_lane(&mut self, lane: Option<&[f64]>, sel: &SelectionMask) {
        let rows = sel.iter_set();
        match (self.func, lane) {
            (AggFn::Count, _) => {}
            // `update(None)` folds nothing into a value aggregate.
            (_, None) => return,
            (AggFn::Sum | AggFn::Avg, Some(x)) => self.sum = rows.fold(self.sum, |s, i| s + x[i]),
            (AggFn::Min, Some(x)) => self.min = rows.fold(self.min, |m, i| m.min(x[i])),
            (AggFn::Max, Some(x)) => self.max = rows.fold(self.max, |m, i| m.max(x[i])),
        }
        self.count += sel.count() as u64;
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

    /// The finished value. A `SUM` or `AVG` that met a NaN finishes as
    /// [`f64::NAN`]: which NaN payload a chain of `+` leaves depends on
    /// how the compiler orders each sum's operands, so the row
    /// interpreter's `update` and the compiled `fold_lane` need not leave
    /// the same one.
    fn finish(self) -> Value {
        let canonical = |x: f64| if x.is_nan() { f64::NAN } else { x };
        match self.func {
            AggFn::Count => Value::Num(self.count as f64),
            AggFn::Sum => Value::Num(canonical(self.sum)),
            AggFn::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Num(canonical(self.sum / self.count as f64))
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

    /// Empty, full and sparse masks over `len` rows (the sparse one has
    /// all-clear words between its bits).
    fn edge_masks(len: usize) -> [SelectionMask; 3] {
        let mut sparse = SelectionMask::none_set(len);
        (0..len)
            .filter(|i| i % 5 == 0 || i % 67 == 66)
            .for_each(|i| sparse.set(i));
        [
            SelectionMask::none_set(len),
            SelectionMask::all_set(len),
            sparse,
        ]
    }

    /// A finished aggregate as its variant and exact bits.
    fn value_bits(v: Value) -> String {
        match v {
            Value::Num(x) => format!("Num({:#x})", x.to_bits()),
            other => format!("{other:?}"),
        }
    }

    #[test]
    fn lane_folds_finish_like_row_updates() {
        let nan = f64::from(crate::compile::tests::invalid_nan());
        let specials = [nan, 0.0, -0.0, f64::INFINITY, -f64::INFINITY, 1.5, -2.25];
        let funcs = [AggFn::Count, AggFn::Sum, AggFn::Avg, AggFn::Min, AggFn::Max];
        for len in crate::compile::tests::EDGE_LENGTHS {
            // Mixed signed zeros, NaNs and infinities; signed zeros
            // alone; and values whose sum rounds differently in any
            // other order.
            let specials: Vec<f64> = (0..len).map(|i| specials[i % specials.len()]).collect();
            let zeros: Vec<f64> = (0..len)
                .map(|i| if i % 2 == 0 { 0.0 } else { -0.0 })
                .collect();
            let rounding: Vec<f64> = (0..len)
                .map(|i| 0.1 * i as f64 + 1e17 * (i % 3) as f64)
                .collect();
            for sel in edge_masks(len) {
                for func in funcs {
                    for lane in [Some(&specials[..]), Some(&zeros), Some(&rounding), None] {
                        if lane.is_none() && func != AggFn::Count {
                            continue;
                        }
                        let mut rows = AggAcc::new(func);
                        sel.iter_set().for_each(|i| rows.update(lane.map(|l| l[i])));
                        let mut folded = AggAcc::new(func);
                        folded.fold_lane(lane, &sel);
                        let (want, got) = (rows.finish(), folded.finish());
                        if sel.count() == 0 && func != AggFn::Count && func != AggFn::Sum {
                            assert_eq!(got, Value::Null, "{func:?} over no rows");
                        }
                        assert_eq!(value_bits(got), value_bits(want), "{func:?} at {len}");
                    }
                }
            }
        }
    }

    #[test]
    fn compiled_folds_match_the_interpreter_at_every_edge() {
        let attr = |n: &str| Some(Expr::Attr(n.to_string()));
        let args = [
            (AggFn::Count, None),
            (AggFn::Count, attr("gr")),
            (AggFn::Sum, attr("gr")),
            (AggFn::Avg, attr("r")),
            (AggFn::Min, attr("gr")),
            (AggFn::Max, attr("gr")),
            (AggFn::Min, attr("size")),
            (AggFn::Max, attr("iz")),
            (AggFn::Sum, attr("ra")),
        ];
        let funcs: Vec<AggFn> = args.iter().map(|(f, _)| *f).collect();
        let exprs: Vec<Option<Expr>> = args.iter().map(|(_, e)| e.clone()).collect();
        let inputs = compile_agg_inputs(&exprs.iter().map(Option::as_ref).collect::<Vec<_>>())
            .expect("tag arguments compile");
        let mut scratch = BatchScratch::new();
        for len in crate::compile::tests::EDGE_LENGTHS {
            let mut chunk = crate::compile::tests::special_chunk(len);
            // A stored +NaN in `r` on every seventh row, beside the
            // `inf - inf` NaNs the specials already put in `r` and `gr`.
            chunk.mags[2]
                .iter_mut()
                .step_by(7)
                .for_each(|r| *r = f32::NAN);
            let batch = chunk.batches(len).next().unwrap();
            for sel in edge_masks(len) {
                let mut interpreted = new_accs(&funcs);
                sel.iter_set()
                    .for_each(|i| fold_row(&mut interpreted, &exprs, &batch.row(i)));
                let mut compiled = new_accs(&funcs);
                inputs.fold(&batch, &sel, &mut scratch, |i, lane| {
                    compiled[i].fold_lane(lane, &sel)
                });
                for ((func, want), got) in funcs.iter().zip(interpreted).zip(compiled) {
                    let (want, got) = (value_bits(want.finish()), value_bits(got.finish()));
                    assert_eq!(got, want, "{func:?} at {len}, {} rows", sel.count());
                }
            }
        }
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
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][0], Value::Id(1));
        assert_eq!(rows[1][1], Value::Num(2.5));
        assert_eq!(rows[2][2], Value::Str("QSO".to_string()));
        assert_eq!(rows[1].len(), 3);
        // `iter` yields the same rows as `Index`, in order.
        assert_eq!(rows.iter().len(), 3);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row, &rows[i]);
        }
        // `into_rows` is bitwise the `append_rows` materialization.
        let mut appended = Vec::new();
        ResultBatch::Columnar(b.clone()).append_rows(&mut appended);
        assert_eq!(bitwise(&rows.clone().into_rows()), bitwise(&appended));
        assert_eq!(ResultBatch::Columnar(b.clone()).rows(), rows);
        b.truncate(1);
        assert_eq!(b.len(), 1);
        let truncated = b.rows();
        assert_eq!(truncated.len(), 1);
        assert_eq!(truncated.iter().count(), 1);
        assert_eq!(truncated.into_rows(), vec![appended[0].clone()]);
        // id_at agrees with the materialized values.
        assert_eq!(b.columns()[0].id_at(0), Some(1));
    }

    /// Each value's variant and exact bits, so NaN payloads and signed
    /// zeros compare as themselves.
    fn bitwise(rows: &[Row]) -> Vec<Vec<String>> {
        rows.iter()
            .map(|row| {
                row.iter()
                    .map(|v| match v {
                        Value::Num(x) => format!("Num({:#x})", x.to_bits()),
                        other => format!("{other:?}"),
                    })
                    .collect()
            })
            .collect()
    }

    /// A block holding `rows`.
    fn block(width: usize, rows: &[Row]) -> RowBlock {
        let mut block = RowBlock::with_capacity(width, rows.len());
        rows.iter().for_each(|row| block.push(row.iter().cloned()));
        block
    }

    #[test]
    fn row_blocks_from_row_batches_and_empty_batches() {
        let rows: Vec<Row> = vec![
            vec![Value::Id(7), Value::Num(-0.0), Value::Str("STAR".into())],
            vec![Value::Id(8), Value::Num(f64::NAN), Value::Null],
        ];
        let mut appended = Vec::new();
        ResultBatch::Rows(block(3, &rows)).append_rows(&mut appended);
        assert_eq!(bitwise(&appended), bitwise(&rows));
        let block3 = ResultBatch::Rows(block(3, &rows)).rows();
        assert_eq!(block3.len(), 2);
        assert!(!block3.is_empty());
        assert_eq!(block3[1][0], Value::Id(8));
        assert_eq!(block3[0][2], Value::Str("STAR".into()));
        assert_eq!(
            block3.iter().map(<[Value]>::len).collect::<Vec<_>>(),
            [3, 3]
        );
        assert_eq!(bitwise(&block3.into_rows()), bitwise(&rows));

        let mut truncated = ResultBatch::Rows(block(3, &rows));
        truncated.truncate(1);
        let truncated = truncated.rows();
        assert_eq!(truncated.len(), 1);
        assert_eq!(truncated.into_rows(), vec![rows[0].clone()]);

        for empty in [
            ResultBatch::Rows(block(3, &[])),
            ResultBatch::Columnar(ColumnarBatch::new(
                vec![ColumnData::Id(vec![]), ColumnData::Num(vec![])],
                0,
            )),
        ] {
            let block = empty.rows();
            assert!(block.is_empty());
            assert_eq!(block.len(), 0);
            assert_eq!(block.iter().count(), 0);
            assert!(block.into_rows().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "out of 1 rows")]
    fn row_block_index_past_the_end_panics() {
        let block = ResultBatch::Rows(block(1, &[vec![Value::Id(1)]])).rows();
        let _ = &block[1];
    }

    /// A drive that has already pushed `batches` of `(objid, r)` rows, one
    /// batch per slice: a row batch, or a columnar one when `columnar`.
    fn drive(batches: &[&[(u64, f64)]], columnar: bool) -> (Node, Sender<ResultBatch>) {
        let (tx, rx) = bounded(batches.len() + 1);
        for rows in batches {
            let batch = if columnar {
                let ids = ColumnData::Id(rows.iter().map(|r| r.0).collect());
                let r = ColumnData::Num(rows.iter().map(|r| r.1).collect());
                ResultBatch::Columnar(ColumnarBatch::new(vec![ids, r], rows.len()))
            } else {
                let rows: Vec<Row> = rows
                    .iter()
                    .map(|&(id, r)| vec![Value::Id(id), Value::Num(r)])
                    .collect();
                ResultBatch::Rows(block(2, &rows))
            };
            tx.send(batch).unwrap();
        }
        (Node::Drive(rx), tx)
    }

    /// Pull `node` dry: its `(objid, r)` rows in output order.
    fn pull(mut node: Node) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        while let Some(batch) = node.next() {
            for row in batch.rows().iter() {
                out.push((row[0].as_id().unwrap(), row[1].as_num().unwrap()));
            }
        }
        out
    }

    #[test]
    fn pulled_operators_keep_their_row_order() {
        let left: &[&[(u64, f64)]] = &[&[(1, 20.0), (2, 19.0), (1, 20.0)], &[(3, 21.0), (4, 19.0)]];
        let right: &[&[(u64, f64)]] = &[&[(5, 18.0), (3, 0.0)], &[(2, 0.0), (6, 22.0), (5, 1.0)]];
        for columnar in [false, true] {
            // ORDER BY r is stable: equal keys keep their arrival order.
            for (desc, want) in [(false, [2, 4, 1, 1, 3]), (true, [3, 1, 1, 2, 4])] {
                let sort = Node::Sort(Box::new(Sort {
                    child: Some(drive(left, columnar).0),
                    key_col: Some(1),
                    desc,
                    ..Sort::default()
                }));
                let ids: Vec<u64> = pull(sort).iter().map(|r| r.0).collect();
                assert_eq!(ids, want, "desc {desc}, columnar {columnar}");
            }
            // UNION: the left objects once each, then the right-only ones
            // in arrival order, each with its own row.
            for (op, want) in [
                (
                    SetOp::Union,
                    vec![
                        (1, 20.0),
                        (2, 19.0),
                        (3, 21.0),
                        (4, 19.0),
                        (5, 18.0),
                        (6, 22.0),
                    ],
                ),
                (SetOp::Intersect, vec![(2, 19.0), (3, 21.0)]),
                (SetOp::Except, vec![(1, 20.0), (4, 19.0)]),
            ] {
                let set = Node::Set(Box::new(SetNode {
                    op,
                    objid_col: 0,
                    left: drive(left, columnar).0,
                    right: Some(drive(right, !columnar).0),
                    right_ids: HashSet::new(),
                    right_only: Vec::new().into_iter(),
                    seen: HashSet::new(),
                }));
                assert_eq!(pull(set), want, "{op:?}, columnar {columnar}");
            }
        }
        // LIMIT truncates, then drops its child, closing the drive.
        let (child, tx) = drive(left, false);
        let mut limit = Node::Limit {
            child: Some(Box::new(child)),
            remaining: 4,
        };
        assert_eq!(limit.next().unwrap().len(), 3);
        assert!(tx.send(ResultBatch::Rows(block(2, &[]))).is_ok());
        assert_eq!(limit.next().unwrap().len(), 1);
        assert!(tx.send(ResultBatch::Rows(block(2, &[]))).is_err());
        assert!(limit.next().is_none());
    }

    #[test]
    fn guarded_records_panics_on_the_ticket() {
        let ticket = TicketCore::default();
        assert_eq!(guarded(&ticket, || 7), Some(7));
        assert!(ticket.failure().is_none());
        // A panic is recorded instead of unwinding into the caller.
        assert_eq!(
            guarded(&ticket, || panic!("boom in a drive thread")),
            None::<()>
        );
        let msg = ticket.failure().expect("panic recorded");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn ticket_counters_accumulate() {
        let t = TicketCore::default();
        t.note_batch(10);
        t.note_batch(5);
        t.absorb_scan(&RegionScan {
            bytes_scanned: 1024,
            containers_full: 3,
            ..RegionScan::default()
        });
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
