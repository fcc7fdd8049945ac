//! The archive server API: a shared, thread-safe query surface.
//!
//! The paper's archive is a multi-user server: query agents accept many
//! concurrent requests, *estimate their cost before running them*,
//! stream partial results ASAP, and let users abort long scans. This
//! module is that surface:
//!
//! * [`Archive`] — an owned, cloneable, `Send + Sync` handle; stores
//!   live behind `Arc` and any number of threads submit queries
//!   concurrently.
//! * [`Prepared`] — parse + plan exactly once ([`Archive::prepare`]),
//!   each base-store scan's HTM cover resolved once into the scan plan
//!   every execution drains; inspect the plan and its plan-time
//!   [`CostEstimate`] (rows / bytes / containers touched, read from those
//!   scan plans), then execute repeatedly with `$1`-style numeric
//!   parameters re-bound per execution — no re-parse, no re-plan, no
//!   cover lookup.
//! * [`ResultStream`] — a pull-based stream of [`ResultBatch`]es; the
//!   columnar scan path delivers struct-of-arrays batches end to end and
//!   rows materialize only when the consumer asks
//!   ([`ResultBatch::rows`], one row-major [`RowBlock`](crate::RowBlock)
//!   per batch).
//! * [`QueryTicket`] — every execution's cancel token + live progress
//!   counters; [`QueryStats`] summarizes the run once the stream
//!   finishes.
//! * Admission control — a semaphore-bounded slot pool
//!   ([`AdmissionConfig`]): executions queue for a slot instead of
//!   oversubscribing the machine, and *heavy* queries (estimated bytes
//!   over a threshold) additionally share a smaller heavy-slot pool so
//!   a burst of full-sky sweeps cannot starve interactive cone searches.

use crate::exec::{
    compile_into, launch, plan_uses_columnar, run_into, BatchHandle, ExecEnv, ExecMode, Leaf,
    ResultBatch, Row, ScanSource, ScanTotals, TicketCore,
};
use crate::parser::parse_statement;
use crate::plan::{plan, MatchInput, MatchSpec, PlanNode, QueryPlan, QuerySource, ScanSpec};
use crate::session::{Session, SessionConfig, SessionInfo, SessionShared};
use crate::QueryError;
use sdss_htm::Domain;
use sdss_storage::{
    CostModel, MatchFootprint, ObjectStore, QueryEstimate, ResultSet, ResultSetBuilder, ScanPlan,
    TagStore,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

/// Which store the root scans of a query were routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteChoice {
    /// At least one scan read full photometric objects.
    Full,
    /// No scan touched the full store: every leaf ran on the tag
    /// vertical partition or a stored (tag-shaped) session set.
    TagOnly,
}

/// Timing, routing and scan statistics for one finished execution.
#[derive(Debug, Clone)]
pub struct QueryStats {
    pub route: RouteChoice,
    /// Did every scan leaf run on the compiled columnar batch path?
    pub columnar: bool,
    /// Time spent queued for an admission slot before execution began.
    pub queue_time: Duration,
    /// Latency from execution start (admission granted, threads
    /// launched) until the first row reached the consumer — the ASAP
    /// metric. Parse/plan time is *not* included: `prepare` is a
    /// separate phase.
    pub time_to_first_row: Option<Duration>,
    /// Execution wall time (excludes parse/plan and queueing).
    pub total_time: Duration,
    /// Rows delivered to the consumer.
    pub rows: usize,
    /// Rows the producers pushed into the channel fabric, counted at the
    /// batch edge (per-worker safe — every scan worker bumps one shared
    /// atomic on its own sends). Under LIMIT or cancellation this can
    /// exceed `rows`; sessions accumulate it into `SessionStats`.
    pub rows_emitted: u64,
    /// Batches delivered to the consumer.
    pub batches: usize,
    /// Worker-thread slots this execution held (= scan workers granted
    /// at admission).
    pub workers_granted: usize,
    /// Scan workers that actually ran.
    pub workers_used: usize,
    /// Bytes scanned per worker, in worker completion order — the
    /// balance check for the parallel-efficiency numbers.
    pub worker_bytes: Vec<u64>,
    /// Container morsels dispatched across all scan workers. Every scan
    /// leaf — tag, stored set or full store, compiled or interpreted —
    /// runs on morsels.
    pub morsels: u64,
    /// Scan-side totals: bytes/containers touched, exact geometry
    /// tests, and cover-cache hit/miss counts.
    pub scan: ScanTotals,
}

/// A fully materialized query result.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
    pub stats: QueryStats,
}

/// Plan-time cost prediction for one prepared query, summed over every
/// scan leaf of the plan (set operations have several).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostEstimate {
    /// Predicted number of rows the scans will yield (before residual
    /// predicates).
    pub est_rows: f64,
    /// Bytes the scans will read (exact for whole-container reads).
    pub est_bytes: u64,
    /// Predicted single-server scan seconds at the cost model's
    /// calibrated bandwidth.
    pub est_seconds: f64,
    pub containers_full: usize,
    pub containers_partial: usize,
    /// At least one scan has no spatial restriction (whole-store sweep).
    pub full_sweep: bool,
}

/// Admission-control configuration: the slot pool bounding concurrent
/// scan **worker threads** (not query count — a query holds one slot per
/// granted scan worker, so an 8-worker sweep occupies the machine like 8
/// single-worker queries).
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Total worker-thread slots across all executing queries; waiters
    /// queue cost-ordered (shortest estimated query first, with a
    /// starvation bound).
    pub max_worker_slots: usize,
    /// Estimated scan bytes at or above which a query is *heavy*.
    pub heavy_bytes: u64,
    /// How many heavy queries may execute at once (clamped to at least 1
    /// so heavy queries always make progress).
    pub max_heavy: usize,
    /// Cap on scan workers granted to one query — the intra-query
    /// parallelism degree (clamped to at least 1).
    pub max_workers_per_query: usize,
    /// Starvation bound for the cost-ordered queue: once a waiter has
    /// been bypassed by this many later-arriving queries it becomes a
    /// barrier no later arrival may pass.
    pub max_bypass: u32,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        AdmissionConfig {
            // Enough slots for one full-width sweep plus interactive
            // queries alongside it.
            max_worker_slots: (2 * cores).max(4),
            heavy_bytes: 64 << 20,
            max_heavy: 2,
            max_workers_per_query: cores.max(1),
            max_bypass: 4,
        }
    }
}

/// A point-in-time view of the admission state. All slot counts are in
/// worker threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionSnapshot {
    /// Worker-thread slots currently held by executing queries.
    pub running: usize,
    /// Queries blocked waiting for slots.
    pub queued: usize,
    /// High-water mark of `running` since the archive was built.
    pub peak_running: usize,
}

/// One queued admission request.
#[derive(Debug)]
struct Waiter {
    id: u64,
    weight: usize,
    heavy: bool,
    est_seconds: f64,
    /// Later-arriving queries that dispatched ahead of this one.
    bypass: u32,
}

#[derive(Debug)]
struct SlotState {
    free: usize,
    heavy_free: usize,
    total: usize,
    max_bypass: u32,
    /// Waiting queries in arrival order.
    waiters: Vec<Waiter>,
    next_id: u64,
    running: usize,
    peak_running: usize,
}

/// A weighted counting semaphore over (general, heavy) worker slots with
/// a **cost-ordered** wait queue: among the waiters that fit the free
/// slots, the one with the smallest `est_seconds` dispatches first
/// (short interactive queries jump queued sweeps). Every dispatch that
/// overtakes an earlier arrival increments the overtaken waiters'
/// bypass counts; a waiter at the bound becomes a barrier — nothing
/// later passes it, so the pool drains until the starved query fits.
#[derive(Debug)]
struct Slots {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl Slots {
    fn new(cfg: &AdmissionConfig) -> Slots {
        let total = cfg.max_worker_slots.max(1);
        Slots {
            state: Mutex::new(SlotState {
                free: total,
                heavy_free: cfg.max_heavy.clamp(1, total),
                total,
                max_bypass: cfg.max_bypass,
                waiters: Vec::new(),
                next_id: 0,
                running: 0,
                peak_running: 0,
            }),
            cv: Condvar::new(),
        }
    }

    fn fits(st: &SlotState, w: &Waiter) -> bool {
        w.weight <= st.free && (!w.heavy || st.heavy_free > 0)
    }

    /// The waiter that should dispatch next, if any fits right now.
    fn chosen(st: &SlotState) -> Option<usize> {
        // A starved waiter is a barrier: it dispatches next or nothing
        // does (the pool drains until it fits).
        if let Some(pos) = st.waiters.iter().position(|w| w.bypass >= st.max_bypass) {
            return Self::fits(st, &st.waiters[pos]).then_some(pos);
        }
        // Cost order: cheapest eligible first; `min_by` keeps the first
        // (earliest-arrival) of equal estimates, so FIFO breaks ties.
        st.waiters
            .iter()
            .enumerate()
            .filter(|(_, w)| Self::fits(st, w))
            .min_by(|(_, a), (_, b)| a.est_seconds.total_cmp(&b.est_seconds))
            .map(|(pos, _)| pos)
    }

    /// Take `pos` out of the queue and claim its slots. Earlier arrivals
    /// still waiting were just bypassed.
    fn dispatch(st: &mut SlotState, pos: usize) -> Waiter {
        let w = st.waiters.remove(pos);
        for earlier in &mut st.waiters[..pos] {
            earlier.bypass += 1;
        }
        st.free -= w.weight;
        if w.heavy {
            st.heavy_free -= 1;
        }
        st.running += w.weight;
        st.peak_running = st.peak_running.max(st.running);
        w
    }

    /// Blocking acquire of `weight` worker slots (clamped to the pool
    /// size so wide queries always fit eventually).
    fn acquire(self: &Arc<Slots>, weight: usize, heavy: bool, est_seconds: f64) -> SlotGuard {
        let mut st = self.state.lock().unwrap();
        let weight = weight.clamp(1, st.total);
        let id = st.next_id;
        st.next_id += 1;
        st.waiters.push(Waiter {
            id,
            weight,
            heavy,
            est_seconds,
            bypass: 0,
        });
        loop {
            if let Some(pos) = Self::chosen(&st) {
                if st.waiters[pos].id == id {
                    let w = Self::dispatch(&mut st, pos);
                    drop(st);
                    // Another waiter may also fit in what's left.
                    self.cv.notify_all();
                    return SlotGuard {
                        slots: self.clone(),
                        weight: w.weight,
                        heavy,
                    };
                }
                // Someone else should go first; make sure they're awake.
                self.cv.notify_all();
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Non-blocking acquire: `None` when the slots aren't free right now
    /// or queued queries are ahead (try never jumps the queue).
    fn try_acquire(self: &Arc<Slots>, weight: usize, heavy: bool) -> Option<SlotGuard> {
        let mut st = self.state.lock().unwrap();
        let weight = weight.clamp(1, st.total);
        let probe = Waiter {
            id: 0,
            weight,
            heavy,
            est_seconds: 0.0,
            bypass: 0,
        };
        if !st.waiters.is_empty() || !Self::fits(&st, &probe) {
            return None;
        }
        st.free -= weight;
        if heavy {
            st.heavy_free -= 1;
        }
        st.running += weight;
        st.peak_running = st.peak_running.max(st.running);
        drop(st);
        Some(SlotGuard {
            slots: self.clone(),
            weight,
            heavy,
        })
    }

    fn snapshot(&self) -> AdmissionSnapshot {
        let st = self.state.lock().unwrap();
        AdmissionSnapshot {
            running: st.running,
            queued: st.waiters.len(),
            peak_running: st.peak_running,
        }
    }
}

/// Holds one execution's worker slots; returning them on drop wakes
/// queued queries.
#[derive(Debug)]
struct SlotGuard {
    slots: Arc<Slots>,
    weight: usize,
    heavy: bool,
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        let mut st = self.slots.state.lock().unwrap();
        st.free += self.weight;
        if self.heavy {
            st.heavy_free += 1;
        }
        st.running -= self.weight;
        drop(st);
        self.slots.cv.notify_all();
    }
}

/// Archive-wide configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArchiveConfig {
    /// Cover level override for all scans (None = store default).
    pub cover_level: Option<u8>,
    /// Columnar compilation vs forced interpretation (default: Auto).
    pub mode: ExecMode,
    /// Calibration for plan-time cost estimates.
    pub cost_model: CostModel,
    /// The execution slot pool.
    pub admission: AdmissionConfig,
}

#[derive(Debug)]
struct ArchiveInner {
    store: Arc<ObjectStore>,
    tags: Option<Arc<TagStore>>,
    config: ArchiveConfig,
    slots: Arc<Slots>,
    /// Session registry: weak handles to every live session workspace,
    /// pruned on access (observability only — sessions own their sets).
    sessions: Mutex<Vec<Weak<SessionShared>>>,
    next_session_id: AtomicU64,
}

/// The shared archive handle: clone it freely, send it across threads;
/// every clone talks to the same stores and the same admission pool.
#[derive(Debug, Clone)]
pub struct Archive {
    inner: Arc<ArchiveInner>,
}

impl Archive {
    /// An archive over the given stores with default configuration.
    /// Accepts owned stores or pre-shared `Arc`s.
    pub fn new(store: impl Into<Arc<ObjectStore>>, tags: Option<Arc<TagStore>>) -> Archive {
        Archive::with_config(store, tags, ArchiveConfig::default())
    }

    pub fn with_config(
        store: impl Into<Arc<ObjectStore>>,
        tags: Option<Arc<TagStore>>,
        config: ArchiveConfig,
    ) -> Archive {
        Archive {
            inner: Arc::new(ArchiveInner {
                store: store.into(),
                tags,
                slots: Arc::new(Slots::new(&config.admission)),
                config,
                sessions: Mutex::new(Vec::new()),
                next_session_id: AtomicU64::new(1),
            }),
        }
    }

    /// Open a session workspace with default quotas: a per-user
    /// namespace of named server-side result sets that `INTO` / `FROM
    /// <set>` queries compose over. Each call opens an isolated
    /// namespace; clone the returned [`Session`] to share one workspace
    /// across threads.
    pub fn session(&self) -> Session {
        self.session_with(SessionConfig::default())
    }

    /// Open a session workspace with explicit quotas.
    pub fn session_with(&self, config: SessionConfig) -> Session {
        Session::open(self.clone(), config)
    }

    /// Live session workspaces (id, set/row/byte/query counts), pruning
    /// dropped sessions from the registry as a side effect.
    pub fn sessions(&self) -> Vec<SessionInfo> {
        let mut reg = self.inner.sessions.lock().unwrap();
        reg.retain(|w| w.strong_count() > 0);
        reg.iter()
            .filter_map(|w| w.upgrade())
            .map(|s| s.info())
            .collect()
    }

    /// Allocate an archive-unique session id.
    pub(crate) fn alloc_session_id(&self) -> u64 {
        self.inner.next_session_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Register a new session in the observability registry, pruning
    /// dead entries so churning sessions can't grow the vec unbounded.
    pub(crate) fn register_session(&self, shared: &Arc<SessionShared>) {
        let mut reg = self.inner.sessions.lock().unwrap();
        reg.retain(|w| w.strong_count() > 0);
        reg.push(Arc::downgrade(shared));
    }

    pub fn store(&self) -> &Arc<ObjectStore> {
        &self.inner.store
    }

    pub fn tags(&self) -> Option<&Arc<TagStore>> {
        self.inner.tags.as_ref()
    }

    pub fn config(&self) -> &ArchiveConfig {
        &self.inner.config
    }

    /// Current admission-control state (running / queued / peak).
    pub fn admission(&self) -> AdmissionSnapshot {
        self.inner.slots.snapshot()
    }

    /// Parse and plan without executing (EXPLAIN). Accepts the full
    /// statement form, including a trailing `INTO <name>`.
    pub fn explain(&self, sql: &str) -> Result<QueryPlan, QueryError> {
        let (query, trailing_into) = parse_statement(sql)?;
        let mut query_plan = plan(&query, self.inner.tags.is_some())?;
        if let Some(name) = trailing_into {
            query_plan.set_into(name)?;
        }
        Ok(query_plan)
    }

    /// Parse + plan + estimate once; the returned [`Prepared`] executes
    /// any number of times (concurrently, with fresh parameters) without
    /// repeating any of that work.
    ///
    /// Queries over stored sets (`FROM <set>`, `INTO <set>`) need a
    /// session workspace to resolve the names against — prepare those
    /// through [`Session::prepare`]; here they error.
    pub fn prepare(&self, sql: &str) -> Result<Prepared, QueryError> {
        self.prepare_in(sql, &HashMap::new(), None)
    }

    /// The shared prepare path: `sets` is the session's stored sets
    /// (empty for sessionless prepares), of which the statement's leaves
    /// pin those they read, and `workspace` the session the statement
    /// runs under (required for `INTO`).
    pub(crate) fn prepare_in(
        &self,
        sql: &str,
        sets: &HashMap<String, Arc<ResultSet>>,
        workspace: Option<Arc<SessionShared>>,
    ) -> Result<Prepared, QueryError> {
        let query_plan = self.explain(sql)?;
        if query_plan.into.is_some() && workspace.is_none() {
            return Err(QueryError::Exec(
                "INTO requires a session workspace (use Archive::session)".to_string(),
            ));
        }
        let route = route_of(&query_plan.root);
        let columnar = plan_uses_columnar(
            &query_plan.root,
            self.inner.tags.is_some(),
            self.inner.config.mode,
        );
        // The INTO route is decided here, so the worker grant knows it:
        // the lane route runs a set operation as one scan. Binding can
        // only widen what compiles, so a bound plan takes the same route.
        let lane_into = query_plan.into.is_some()
            && compile_into(
                query_plan.root.clone(),
                self.inner.tags.is_some(),
                self.inner.config.mode,
            )
            .is_some();
        // The lane route runs a set operation as one scan of its left
        // branch's source and domain, so only that leaf is resolved.
        let root = match &query_plan.root {
            PlanNode::Set { left, .. } if lane_into => left,
            root => root,
        };
        let mut resolver = LeafResolver {
            inner: &self.inner,
            sets,
            plans: Vec::new(),
            leaves: Vec::new(),
            estimate: CostEstimate::default(),
        };
        resolver.walk(root)?;
        let estimate = resolver.estimate;
        let heavy = estimate.est_bytes >= self.inner.config.admission.heavy_bytes;
        Ok(Prepared {
            archive: self.clone(),
            columns: query_plan.root.columns(),
            into: query_plan.into.clone(),
            plan: Arc::new(query_plan),
            leaves: resolver.leaves.into(),
            workspace,
            route,
            columnar,
            lane_into,
            estimate,
            heavy,
            #[cfg(test)]
            fault_at_claim: 0,
        })
    }

    /// Prepare, execute without parameters, and collect every row.
    pub fn run(&self, sql: &str) -> Result<QueryOutput, QueryError> {
        self.prepare(sql)?.run()
    }

    /// One-shot convenience: run and return the rows *and* the execution
    /// statistics as a pair, so callers that only want timing / scan
    /// counters don't hand-roll the stream loop. (The stats are the same
    /// object as `output.stats`; the pair form just makes the common
    /// `let (out, stats) = ...` destructure direct.)
    pub fn run_with_stats(&self, sql: &str) -> Result<(QueryOutput, QueryStats), QueryError> {
        let output = self.run(sql)?;
        let stats = output.stats.clone();
        Ok((output, stats))
    }
}

/// What decides a base-store scan plan: whether it scans the full store,
/// the domain and the cover level.
type PlanKey = (bool, Option<Domain>, Option<u8>);

/// The prepare walk over a plan's scan leaves, left to right: it resolves
/// each leaf into what every execution drains and sums the leaves'
/// estimates. A tag or full-store leaf's HTM cover is resolved once, at
/// the cover level its scan reads, into a [`ScanPlan`]; a leaf of one
/// domain as another shares its plan, and so one cover-cache entry.
/// Domains are numeric literals (the parser rejects a parameter in one),
/// so binding never changes a domain and a plan made at prepare serves
/// every execution; a domain parameter would have to re-plan at bind.
/// Reads no object data.
struct LeafResolver<'a> {
    inner: &'a ArchiveInner,
    sets: &'a HashMap<String, Arc<ResultSet>>,
    /// The plans made so far, each after what decides it.
    plans: Vec<(PlanKey, Arc<ScanPlan>)>,
    leaves: Vec<Leaf>,
    estimate: CostEstimate,
}

impl LeafResolver<'_> {
    fn walk(&mut self, node: &PlanNode) -> Result<(), QueryError> {
        match node {
            PlanNode::Scan(s) => {
                let leaf = self.leaf(s)?;
                self.price(&leaf);
                self.leaves.push(leaf);
            }
            PlanNode::Sort { child, .. }
            | PlanNode::Limit { child, .. }
            | PlanNode::Aggregate { child, .. } => self.walk(child)?,
            PlanNode::Set { left, right, .. } => {
                self.walk(left)?;
                self.walk(right)?;
            }
        }
        Ok(())
    }

    fn leaf(&mut self, s: &ScanSpec) -> Result<Leaf, QueryError> {
        let level = self.inner.config.cover_level;
        let source = match &s.source {
            QuerySource::Set(name) => ScanSource::Set(self.set(name)?),
            QuerySource::Tag => self.base(false, s.domain.as_ref(), level)?,
            QuerySource::Full => self.base(true, s.domain.as_ref(), level)?,
            QuerySource::Match(m) => return self.join(m),
        };
        Ok(Leaf::Scan(source))
    }

    /// A MATCH leaf. When exactly one input is the archive and the other
    /// a stored set, only the set's footprint cap (see
    /// [`MatchFootprint::of_set`]) can hold partners, so the archive
    /// input reads that cap, or nothing for an empty set; every other
    /// shape reads the archive whole. The archive is read at the store's
    /// scan cover level.
    fn join(&mut self, m: &MatchSpec) -> Result<Leaf, QueryError> {
        let footprint = match (&m.a, &m.b) {
            (MatchInput::Archive, MatchInput::Set(name))
            | (MatchInput::Set(name), MatchInput::Archive) => {
                MatchFootprint::of_set(&*self.set(name)?, m.radius_arcsec)
            }
            _ => MatchFootprint::Whole,
        };
        let mut input = |input: &MatchInput| match input {
            MatchInput::Set(name) => Ok(ScanSource::Set(self.set(name)?)),
            MatchInput::Archive if footprint == MatchFootprint::Empty => {
                Ok(ScanSource::Set(Arc::new(ResultSetBuilder::new(1).finish())))
            }
            MatchInput::Archive => self.base(false, footprint.domain(), None),
        };
        let (a, b) = (input(&m.a)?, input(&m.b)?);
        Ok(Leaf::join(m, a, b))
    }

    /// A stored set the statement reads.
    fn set(&self, name: &str) -> Result<Arc<ResultSet>, QueryError> {
        self.sets.get(name).cloned().ok_or_else(|| {
            QueryError::Unknown(format!(
                "stored set {name} (prepare through a session workspace that holds it)"
            ))
        })
    }

    /// A scan of the full store (`full`) or the tag store over `domain`
    /// at `cover_level`, planned unless an equal one already was.
    fn base(
        &mut self,
        full: bool,
        domain: Option<&Domain>,
        cover_level: Option<u8>,
    ) -> Result<ScanSource, QueryError> {
        self.estimate.full_sweep |= domain.is_none();
        let inner = self.inner;
        let tags = || {
            let tags = inner.tags.clone();
            tags.expect("the planner routes to tags only when present")
        };
        let planned = self
            .plans
            .iter()
            .find(|((f, d, level), _)| *f == full && d.as_ref() == domain && *level == cover_level);
        let plan = match planned {
            Some((.., plan)) => plan.clone(),
            None => {
                let plan = Arc::new(if full {
                    inner.store.plan_scan(domain, cover_level)?
                } else {
                    tags().plan_batch_scan(domain, cover_level)?
                });
                let key = (full, domain.cloned(), cover_level);
                self.plans.push((key, plan.clone()));
                plan
            }
        };
        Ok(if full {
            ScanSource::Full(inner.store.clone(), plan)
        } else {
            ScanSource::Tag(tags(), plan)
        })
    }

    /// Add a leaf's estimate. A MATCH reads both inputs; pair
    /// multiplicity is data-dependent, so its `est_rows` carries the
    /// probe side's row count (the scan driver), and `est_seconds` adds a
    /// per-probe term (stripe searches, candidate separations, pair
    /// evaluation — see `CostModel::match_probe_seconds`) to the byte
    /// cost of reading both sides: the queue orders on `est_seconds`, so
    /// underpricing it would let heavy joins jump interactive queries.
    fn price(&mut self, leaf: &Leaf) {
        let model = &self.inner.config.cost_model;
        let est = &mut self.estimate;
        let mut read = |e: &QueryEstimate| {
            est.est_bytes += e.est_bytes;
            est.est_seconds += e.est_seconds;
            est.containers_full += e.containers_full;
            est.containers_partial += e.containers_partial;
        };
        match leaf {
            Leaf::Scan(source) => {
                let e = price(model, source);
                read(&e);
                est.est_rows += e.est_rows;
            }
            Leaf::Match(m) => {
                let (a, b) = if m.build_is_a {
                    (&m.build, &m.probe)
                } else {
                    (&m.probe, &m.build)
                };
                let [a, b] = [a, b].map(|side| price(model, side));
                read(&a);
                read(&b);
                let probe_rows = if m.build_is_a { b.est_rows } else { a.est_rows };
                est.est_rows += probe_rows;
                est.est_seconds += probe_rows * model.match_probe_seconds;
            }
        }
    }
}

/// The plan-time estimate of draining `source`: a tag or full-store
/// scan's read from its own plan ([`CostModel::estimate`]), a stored
/// set's from its row, byte and chunk counts (exact: the set is resident
/// and scans read it whole, its chunks being the containers).
fn price(model: &CostModel, source: &ScanSource) -> QueryEstimate {
    match source {
        ScanSource::Tag(_, plan) | ScanSource::Full(_, plan) => model.estimate(plan),
        ScanSource::Set(set) => QueryEstimate {
            est_rows: set.rows() as f64,
            est_bytes: set.bytes() as u64,
            est_seconds: set.bytes() as f64 / model.scan_bandwidth_bps,
            containers_full: set.n_chunks(),
            containers_partial: 0,
        },
    }
}

fn route_of(node: &PlanNode) -> RouteChoice {
    fn any_full(node: &PlanNode) -> bool {
        match node {
            PlanNode::Scan(s) => s.source == QuerySource::Full,
            PlanNode::Sort { child, .. } | PlanNode::Limit { child, .. } => any_full(child),
            PlanNode::Aggregate { child, .. } => any_full(child),
            PlanNode::Set { left, right, .. } => any_full(left) || any_full(right),
        }
    }
    if any_full(node) {
        RouteChoice::Full
    } else {
        RouteChoice::TagOnly
    }
}

/// A parsed + planned + estimated query, ready to execute any number of
/// times. Cheap to clone; clones share the plan and its resolved scan
/// leaves.
#[derive(Debug, Clone)]
pub struct Prepared {
    archive: Archive,
    plan: Arc<QueryPlan>,
    columns: Vec<String>,
    /// Every scan leaf, resolved at prepare in the plan's left-to-right
    /// order: the base-store scan plans and the stored sets the statement
    /// reads, which it keeps even if the session later drops or replaces
    /// a name. Every execution drains these and looks nothing up.
    leaves: Arc<[Leaf]>,
    /// `INTO <name>` target, when this statement materializes a set.
    into: Option<String>,
    /// The session workspace this statement runs under (set when
    /// prepared via [`Session::prepare`]; executions report their stats
    /// into its `SessionStats`).
    workspace: Option<Arc<SessionShared>>,
    route: RouteChoice,
    columnar: bool,
    /// An `INTO` statement that materializes on the lane route (see
    /// [`Prepared::run_into_columnar`]), decided at prepare time.
    lane_into: bool,
    estimate: CostEstimate,
    heavy: bool,
    /// Injected worker fault for this statement's executions (see
    /// [`TicketCore`]'s `claims_until_fault`; 0 = off).
    #[cfg(test)]
    fault_at_claim: u64,
}

impl Prepared {
    /// The Query Execution Tree this statement will run.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// EXPLAIN-style rendering: the plan-time cost estimate (the same
    /// numbers the admission queue orders on), then the QET. The
    /// estimate line carries `est_rows` / `est_bytes` / `containers` /
    /// `est_seconds` / `planned_workers` / `route` so EXPLAIN and the
    /// admission decision tell one story.
    pub fn explain(&self) -> String {
        let est = &self.estimate;
        format!(
            "Estimate: est_rows={:.0} est_bytes={} containers={}+{} \
             est_seconds={:.4} planned_workers={} route={:?} heavy={} \
             columnar={} full_sweep={}\n{}",
            est.est_rows,
            est.est_bytes,
            est.containers_full,
            est.containers_partial,
            est.est_seconds,
            self.planned_workers(),
            self.route,
            self.heavy,
            self.columnar,
            est.full_sweep,
            self.plan.explain(),
        )
    }

    /// The materialization target (`INTO <name>`), if any.
    pub fn into_set(&self) -> Option<&str> {
        self.into.as_deref()
    }

    pub(crate) fn archive(&self) -> &Archive {
        &self.archive
    }

    pub(crate) fn workspace(&self) -> Option<&Arc<SessionShared>> {
        self.workspace.as_ref()
    }

    /// The plan-time cost prediction (rows / bytes / containers), read
    /// from the scan plans the executions drain: its bytes and its full
    /// and bisected containers are what an execution that runs to
    /// completion reads. A stored set is priced from its exact counts.
    pub fn estimate(&self) -> &CostEstimate {
        &self.estimate
    }

    /// Number of `$N` parameters each execution must bind.
    pub fn n_params(&self) -> usize {
        self.plan.n_params
    }

    /// Output column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    pub fn route(&self) -> RouteChoice {
        self.route
    }

    /// Plan-time prediction: will every scan leaf run on the compiled
    /// columnar path? ([`QueryStats::columnar`] is the per-execution
    /// truth, judged after parameter binding.)
    pub fn columnar(&self) -> bool {
        self.columnar
    }

    /// Would this execution occupy a heavy admission slot?
    pub fn is_heavy(&self) -> bool {
        self.heavy
    }

    /// Scan workers an execution will be granted — and the worker-thread
    /// slots it will hold while running. Every scan leaf needs at least
    /// one thread (set operations run their sides concurrently), so the
    /// grant never drops below the leaf count; an `INTO` on the lane
    /// route runs a set operation as one scan, so it counts one leaf.
    /// Beyond that, only compiled columnar plans and MATCH joins
    /// parallelize, bounded by the per-query cap, the pool size, and the
    /// morsels the workers drain: touched containers and set chunks, and
    /// a MATCH's probe side only, since its build side is read once by
    /// the coordinator (a one-container cone search gains nothing from a
    /// second worker).
    pub fn planned_workers(&self) -> usize {
        let leaves = self.leaves.len();
        let has_match = self.leaves.iter().any(|l| matches!(l, Leaf::Match(_)));
        if !self.columnar && !has_match {
            return leaves;
        }
        let morsels: usize = self.leaves.iter().map(Leaf::drained_morsels).sum();
        let cfg = &self.archive.inner.config.admission;
        cfg.max_workers_per_query
            .max(1)
            .min(cfg.max_worker_slots.max(1))
            .min(morsels.max(1))
            .max(leaves)
    }

    /// Execute with no parameters, streaming batches.
    pub fn stream(&self) -> Result<ResultStream, QueryError> {
        self.stream_with(&[])
    }

    /// Execute with `$N` parameters bound positionally (`params[0]` is
    /// `$1`). Binding substitutes literals into a clone of the plan —
    /// no re-parse, no re-plan, the prepared scan plans and routing reused
    /// as-is.
    /// Blocks while the admission pool is full (the queue), then
    /// launches execution threads and returns the pull end.
    ///
    /// **Deadlock note:** an open [`ResultStream`] holds its admission
    /// slots (one per granted worker, see [`Prepared::planned_workers`])
    /// until dropped or finished. A caller whose open streams already
    /// hold enough of the `max_worker_slots` pool that this execution's
    /// grant cannot fit waits for slots only it can free — layer nested
    /// queries over open streams with [`Prepared::try_stream_with`]
    /// instead.
    pub fn stream_with(&self, params: &[f64]) -> Result<ResultStream, QueryError> {
        self.reject_into_stream()?;
        self.stream_raw(params)
    }

    /// `INTO` statements materialize server-side: the archive drives the
    /// stream into the session's writer sink, so handing the pull end to
    /// a caller would be two consumers fighting over one stream.
    fn reject_into_stream(&self) -> Result<(), QueryError> {
        match &self.into {
            Some(name) => Err(QueryError::Exec(format!(
                "INTO {name} materializes server-side; execute it with run()/run_with()"
            ))),
            None => Ok(()),
        }
    }

    /// The admission + launch path, with no `INTO` guard — the session
    /// writer sink uses this to drive the materializing stream itself.
    pub(crate) fn stream_raw(&self, params: &[f64]) -> Result<ResultStream, QueryError> {
        let root = self.bind_root(params)?;
        let queued_at = Instant::now();
        let slot = self.archive.inner.slots.acquire(
            self.planned_workers(),
            self.heavy,
            self.estimate.est_seconds,
        );
        Ok(self.launch_stream(root, slot, queued_at.elapsed()))
    }

    /// Non-blocking variant of [`Prepared::stream`]: errors immediately
    /// when the admission pool has no free (heavy-)slot.
    pub fn try_stream(&self) -> Result<ResultStream, QueryError> {
        self.try_stream_with(&[])
    }

    /// Non-blocking variant of [`Prepared::stream_with`]: errors
    /// immediately when the admission pool has no free (heavy-)slot
    /// instead of queueing, so callers that hold open streams can issue
    /// nested queries without risking self-deadlock.
    pub fn try_stream_with(&self, params: &[f64]) -> Result<ResultStream, QueryError> {
        self.reject_into_stream()?;
        let root = self.bind_root(params)?;
        let slot = self
            .archive
            .inner
            .slots
            .try_acquire(self.planned_workers(), self.heavy)
            .ok_or_else(|| {
                QueryError::Exec("admission pool is full (try again later)".to_string())
            })?;
        Ok(self.launch_stream(root, slot, Duration::ZERO))
    }

    fn bind_root(&self, params: &[f64]) -> Result<PlanNode, QueryError> {
        if params.len() != self.plan.n_params {
            return Err(QueryError::Exec(format!(
                "query takes {} parameter(s), got {}",
                self.plan.n_params,
                params.len()
            )));
        }
        if params.is_empty() {
            Ok(self.plan.root.clone())
        } else {
            self.plan.root.bind_params(params)
        }
    }

    /// The post-admission half of an execution: spawn the node threads
    /// and wrap the pull end.
    fn launch_stream(&self, root: PlanNode, slot: SlotGuard, queue_time: Duration) -> ResultStream {
        let inner = &self.archive.inner;
        // The execution-truth flag: judged on the *bound* plan (binding
        // can only widen compilability — e.g. a parameter in a position
        // the static gate judged conservatively).
        let columnar = plan_uses_columnar(&root, inner.tags.is_some(), inner.config.mode);
        let ticket = self.new_ticket();
        // The granted slots split across the plan's scan leaves (set
        // operations run several concurrently): `leaves * per_leaf <=
        // granted`, so the execution never runs more scan threads than
        // it holds slots for. (`planned_workers` grants at least one
        // slot per leaf; the only exception is a pool smaller than the
        // plan's leaf count, where the clamp to the pool size leaves
        // each leaf its mandatory single thread.)
        let workers_granted = slot.weight;
        let env = self.exec_env((workers_granted / self.leaves.len()).max(1));
        let started = Started {
            route: self.route,
            columnar,
            queue_time,
            at: Instant::now(),
            workers_granted,
        };
        let handle = launch(&env, root, &self.leaves, &ticket);
        ResultStream {
            handle,
            ticket: QueryTicket { core: ticket },
            started,
            first: None,
            rows: 0,
            batches: 0,
            finished: false,
            workspace: self.workspace.clone(),
            _slot: slot,
        }
    }

    /// The execution environment of one run with `workers` scan workers
    /// per leaf.
    fn exec_env(&self, workers: usize) -> ExecEnv {
        let inner = &self.archive.inner;
        ExecEnv {
            tags: inner.tags.clone(),
            mode: inner.config.mode,
            workers,
        }
    }

    /// A fresh per-execution ticket (armed with the injected fault in
    /// tests).
    fn new_ticket(&self) -> Arc<TicketCore> {
        let ticket = TicketCore::default();
        #[cfg(test)]
        ticket
            .claims_until_fault
            .store(self.fault_at_claim, Ordering::Relaxed);
        Arc::new(ticket)
    }

    /// Make the worker that claims the `k`-th morsel of each of this
    /// statement's executions panic (0 disarms).
    #[cfg(test)]
    pub(crate) fn inject_worker_panic(&mut self, k: u64) {
        self.fault_at_claim = k;
    }

    /// Execute with no parameters and collect every row (or, for `INTO`
    /// statements, materialize the named set server-side and return the
    /// empty-rows output carrying the execution stats).
    pub fn run(&self) -> Result<QueryOutput, QueryError> {
        self.run_with(&[])
    }

    /// Execute with parameters and collect every row. `INTO` statements
    /// fold the result into their session set instead of returning rows.
    pub fn run_with(&self, params: &[f64]) -> Result<QueryOutput, QueryError> {
        if self.into.is_some() {
            return crate::session::run_into(self, params);
        }
        self.stream_with(params)?.collect_output()
    }

    /// The **direct columnar INTO path**: when the statement is a bare
    /// tag- or set-routed scan, or a `UNION`/`INTERSECT`/`EXCEPT` of two
    /// such scans over one source and domain, and every leaf's predicate
    /// compiles, the materialization copies whole tag records straight
    /// out of the source's [`sdss_storage::ColumnChunk`] lanes into the
    /// set — no per-objid full-store fetch, no channel fabric, and no
    /// dedup hash (tag containers and stored sets hold each object
    /// once, and a set operation runs as one scan selecting both
    /// branches). It runs one scan under [`Prepared::planned_workers`]
    /// slots, every granted worker draining it, then writes each kept
    /// row once into the set's final chunks, and commits the same set
    /// at any worker count (see `exec::run_into`). Returns `Ok(None)`
    /// for every other shape, as judged at prepare time (see
    /// `session::run_into`): the caller falls back to the
    /// stream-and-fetch route, which handles them all. A statement
    /// prepare put on this route fails if its bound plan does not lower
    /// to it: prepare resolved only the scan this route runs, so the
    /// fetch route could not run it.
    ///
    /// Workers charge `budget` per batch for the rows they keep, so a
    /// quota overrun stops the scan like the fetch route's mid-stream
    /// check.
    pub(crate) fn run_into_columnar(
        &self,
        params: &[f64],
        set_name: &str,
        chunk_rows: usize,
        budget: u64,
    ) -> Result<Option<(ResultSet, QueryStats)>, QueryError> {
        let inner = &self.archive.inner;
        if !self.lane_into {
            return Ok(None);
        }
        let root = self.bind_root(params)?;
        let Some(plan) = compile_into(root, inner.tags.is_some(), inner.config.mode) else {
            return Err(QueryError::Exec(format!(
                "INTO {set_name} was prepared for the lane route, \
                 but its bound plan does not lower to it"
            )));
        };
        let queued_at = Instant::now();
        let slot = inner.slots.acquire(
            self.planned_workers(),
            self.heavy,
            self.estimate.est_seconds,
        );
        let started = Started {
            route: self.route,
            columnar: true,
            queue_time: queued_at.elapsed(),
            at: Instant::now(),
            workers_granted: slot.weight,
        };
        let ticket = self.new_ticket();
        let env = self.exec_env(slot.weight);
        let result = run_into(
            &env,
            &self.leaves,
            plan,
            &ticket,
            set_name,
            chunk_rows,
            budget,
        );
        drop(slot);
        let set = result?;
        // The set's rows are what the stream route delivers to its sink,
        // so SessionStats.rows_delivered doesn't depend on which INTO
        // route executed.
        let batches = ticket.totals().batches_emitted as usize;
        let stats = started.stats(&ticket, set.rows(), batches, None);
        Ok(Some((set, stats)))
    }
}

/// What an execution fixed when it started, on either route: the part of
/// its [`QueryStats`] the ticket does not count.
#[derive(Debug)]
struct Started {
    route: RouteChoice,
    columnar: bool,
    queue_time: Duration,
    /// When execution began (after admission).
    at: Instant,
    workers_granted: usize,
}

impl Started {
    /// The stats of the execution once it is done: the `rows` and
    /// `batches` delivered and the first-row latency, beside the ticket's
    /// worker and scan counters. Both routes build their [`QueryStats`]
    /// here, so they cannot count differently.
    fn stats(
        &self,
        ticket: &TicketCore,
        rows: usize,
        batches: usize,
        time_to_first_row: Option<Duration>,
    ) -> QueryStats {
        let worker_scans = ticket.worker_scans();
        QueryStats {
            route: self.route,
            columnar: self.columnar,
            queue_time: self.queue_time,
            time_to_first_row,
            total_time: self.at.elapsed(),
            rows,
            rows_emitted: ticket.rows_emitted(),
            batches,
            workers_granted: self.workers_granted,
            workers_used: worker_scans.len(),
            worker_bytes: worker_scans.iter().map(|w| w.bytes_scanned).collect(),
            morsels: worker_scans.iter().map(|w| w.morsels).sum(),
            scan: ticket.totals(),
        }
    }
}

/// Live progress + cancellation for one execution. Clones share state;
/// hand one to a dashboard thread and call [`QueryTicket::cancel`] from
/// anywhere.
#[derive(Debug, Clone)]
pub struct QueryTicket {
    core: Arc<TicketCore>,
}

impl QueryTicket {
    /// Request cooperative cancellation: scan leaves stop between
    /// batches (already-buffered batches may still arrive).
    pub fn cancel(&self) {
        self.core.cancel();
    }

    pub fn is_cancelled(&self) -> bool {
        self.core.is_cancelled()
    }

    /// Scan-side progress so far (rows/batches produced, bytes read).
    pub fn progress(&self) -> ScanTotals {
        self.core.totals()
    }

    /// The first execution-thread failure, if any (a failed producer
    /// otherwise looks like a clean early end-of-stream).
    pub fn failure(&self) -> Option<String> {
        self.core.failure()
    }
}

/// The pull end of one execution: iterate [`ResultBatch`]es as they
/// arrive (ASAP push upstream, pull at the edge), then call
/// [`ResultStream::finish`] for the [`QueryStats`].
///
/// Dropping the stream mid-flight tears execution down: node threads
/// observe the closed channel and exit. The admission slot is held until
/// the stream is dropped or finished.
pub struct ResultStream {
    handle: BatchHandle,
    ticket: QueryTicket,
    started: Started,
    first: Option<Duration>,
    rows: usize,
    batches: usize,
    finished: bool,
    /// Session this execution runs under: [`ResultStream::finish`]
    /// reports the final stats into its accumulated `SessionStats`.
    workspace: Option<Arc<SessionShared>>,
    _slot: SlotGuard,
}

impl ResultStream {
    /// Output column names.
    pub fn columns(&self) -> &[String] {
        &self.handle.columns
    }

    /// This execution's cancel/progress ticket.
    pub fn ticket(&self) -> QueryTicket {
        self.ticket.clone()
    }

    /// The next batch, blocking until one arrives or the plan finishes.
    pub fn next_batch(&mut self) -> Option<ResultBatch> {
        if self.finished {
            return None;
        }
        match self.handle.rx.recv() {
            Ok(batch) => {
                if self.first.is_none() && !batch.is_empty() {
                    self.first = Some(self.started.at.elapsed());
                }
                self.rows += batch.len();
                self.batches += 1;
                Some(batch)
            }
            Err(_) => {
                self.finished = true;
                None
            }
        }
    }

    /// Statistics for what this stream consumed. Scan-side totals are
    /// final once the stream has fully drained (or execution was
    /// cancelled and wound down).
    pub fn finish(self) -> QueryStats {
        // The consumer is done: cancel so producers still scanning stop
        // at their next morsel/batch check. On a fully drained plan this
        // is a no-op (everything already exited); after a LIMIT cut the
        // stream short, it keeps scan workers from burning CPU on
        // morsels nobody will read — the slots return when `self` drops
        // at the end of this call, and unaccounted background work is
        // exactly what admission exists to prevent.
        self.ticket.cancel();
        let stats = self
            .started
            .stats(&self.ticket.core, self.rows, self.batches, self.first);
        if let Some(ws) = &self.workspace {
            ws.note_query(&stats);
        }
        stats
    }

    /// The first execution-thread failure, if any. Meaningful once the
    /// stream has drained: a dead producer closes its channel exactly
    /// like a finished one, so callers that need the distinction check
    /// here (or use [`ResultStream::collect_output`], which does).
    pub fn failure(&self) -> Option<String> {
        self.ticket.failure()
    }

    /// Drain everything, materializing rows at the edge. Errors if an
    /// execution thread failed mid-flight (the rows would be silently
    /// truncated otherwise).
    pub fn collect_output(mut self) -> Result<QueryOutput, QueryError> {
        let columns = self.columns().to_vec();
        let mut rows: Vec<Row> = Vec::new();
        while let Some(batch) = self.next_batch() {
            batch.append_rows(&mut rows);
        }
        if let Some(msg) = self.failure() {
            return Err(QueryError::Exec(msg));
        }
        Ok(QueryOutput {
            columns,
            rows,
            stats: self.finish(),
        })
    }
}

impl Iterator for ResultStream {
    type Item = ResultBatch;

    fn next(&mut self) -> Option<ResultBatch> {
        self.next_batch()
    }
}

/// Abandoning a stream cancels its execution: without this, blocking
/// nodes (Sort/Aggregate/Set) would keep draining their children to
/// completion on detached threads *after* the admission slot returns to
/// the pool — unaccounted background work admission exists to prevent.
impl Drop for ResultStream {
    fn drop(&mut self) {
        self.ticket.cancel();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Value;
    use sdss_catalog::{PhotoObj, SkyModel};
    use sdss_htm::Region;
    use sdss_storage::StoreConfig;

    fn setup(seed: u64) -> (Archive, Vec<PhotoObj>) {
        let objs = SkyModel::small(seed).generate().unwrap();
        let mut store = ObjectStore::new(StoreConfig::default()).unwrap();
        store.insert_batch(&objs).unwrap();
        let tags = TagStore::from_store(&store);
        (Archive::new(store, Some(Arc::new(tags))), objs)
    }

    #[test]
    fn cone_query_matches_brute_force() {
        let (archive, objs) = setup(1);
        let out = archive
            .run("SELECT objid, ra, dec, r FROM photoobj WHERE CIRCLE(185, 15, 1.5) AND r < 21")
            .unwrap();
        let domain = Region::circle(185.0, 15.0, 1.5).unwrap();
        let want: Vec<&PhotoObj> = objs
            .iter()
            .filter(|o| domain.contains(o.unit_vec()) && o.mag(2) < 21.0)
            .collect();
        assert_eq!(out.rows.len(), want.len());
        assert_eq!(out.stats.route, RouteChoice::TagOnly);
        assert_eq!(out.columns, vec!["objid", "ra", "dec", "r"]);
        // ids agree
        let mut got: Vec<u64> = out.rows.iter().map(|r| r[0].as_id().unwrap()).collect();
        let mut exp: Vec<u64> = want.iter().map(|o| o.obj_id).collect();
        got.sort_unstable();
        exp.sort_unstable();
        assert_eq!(got, exp);
        // Scan accounting flowed through the ticket into the stats.
        assert!(out.stats.scan.bytes_scanned > 0);
        assert_eq!(
            out.stats.scan.cover_cache_hits + out.stats.scan.cover_cache_misses,
            1
        );
    }

    #[test]
    fn full_route_when_needed() {
        let (archive, objs) = setup(2);
        let out = archive
            .run("SELECT objid, psf_r FROM photoobj WHERE CIRCLE(185, 15, 1) AND psf_r < 21")
            .unwrap();
        assert_eq!(out.stats.route, RouteChoice::Full);
        let domain = Region::circle(185.0, 15.0, 1.0).unwrap();
        let want = objs
            .iter()
            .filter(|o| domain.contains(o.unit_vec()) && o.bands[2].psf_mag < 21.0)
            .count();
        assert_eq!(out.rows.len(), want);
    }

    #[test]
    fn order_by_and_limit() {
        let (archive, _) = setup(3);
        let out = archive
            .run("SELECT objid, r FROM photoobj WHERE CIRCLE(185, 15, 2) ORDER BY r LIMIT 5")
            .unwrap();
        assert!(out.rows.len() <= 5);
        // Sorted ascending by r.
        for w in out.rows.windows(2) {
            assert!(w[0][1].as_num().unwrap() <= w[1][1].as_num().unwrap());
        }
        // DESC gives the reverse extreme.
        let desc = archive
            .run("SELECT objid, r FROM photoobj WHERE CIRCLE(185, 15, 2) ORDER BY r DESC LIMIT 1")
            .unwrap();
        let all = archive
            .run("SELECT objid, r FROM photoobj WHERE CIRCLE(185, 15, 2)")
            .unwrap();
        let max_r = all
            .rows
            .iter()
            .map(|r| r[1].as_num().unwrap())
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(desc.rows[0][1].as_num().unwrap(), max_r);
    }

    #[test]
    fn aggregates_over_region() {
        let (archive, objs) = setup(4);
        let out = archive
            .run("SELECT COUNT(*), MIN(r), MAX(r), AVG(r) FROM photoobj WHERE CIRCLE(185, 15, 2)")
            .unwrap();
        assert_eq!(out.rows.len(), 1);
        let domain = Region::circle(185.0, 15.0, 2.0).unwrap();
        let rs: Vec<f64> = objs
            .iter()
            .filter(|o| domain.contains(o.unit_vec()))
            .map(|o| o.mag(2) as f64)
            .collect();
        let row = &out.rows[0];
        assert_eq!(row[0].as_num().unwrap() as usize, rs.len());
        let min = rs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = rs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let avg = rs.iter().sum::<f64>() / rs.len() as f64;
        assert!((row[1].as_num().unwrap() - min).abs() < 1e-9);
        assert!((row[2].as_num().unwrap() - max).abs() < 1e-9);
        assert!((row[3].as_num().unwrap() - avg).abs() < 1e-6);
    }

    #[test]
    fn set_operations() {
        let (archive, objs) = setup(5);
        let bright = "SELECT objid FROM photoobj WHERE r < 20";
        let galaxies = "SELECT objid FROM photoobj WHERE class = 'GALAXY'";
        let inter = archive
            .run(&format!("({bright}) INTERSECT ({galaxies})"))
            .unwrap();
        let expect_inter = objs
            .iter()
            .filter(|o| o.mag(2) < 20.0 && o.class == sdss_catalog::ObjClass::Galaxy)
            .count();
        assert_eq!(inter.rows.len(), expect_inter);

        let except = archive
            .run(&format!("({bright}) EXCEPT ({galaxies})"))
            .unwrap();
        let expect_except = objs
            .iter()
            .filter(|o| o.mag(2) < 20.0 && o.class != sdss_catalog::ObjClass::Galaxy)
            .count();
        assert_eq!(except.rows.len(), expect_except);

        let union = archive
            .run(&format!("({bright}) UNION ({galaxies})"))
            .unwrap();
        let expect_union = objs
            .iter()
            .filter(|o| o.mag(2) < 20.0 || o.class == sdss_catalog::ObjClass::Galaxy)
            .count();
        assert_eq!(union.rows.len(), expect_union);
    }

    #[test]
    fn sample_reduces_rows_deterministically() {
        let (archive, _) = setup(6);
        let all = archive.run("SELECT objid FROM photoobj").unwrap();
        let s1 = archive
            .run("SELECT objid FROM photoobj SAMPLE 0.2")
            .unwrap();
        let s2 = archive
            .run("SELECT objid FROM photoobj SAMPLE 0.2")
            .unwrap();
        assert_eq!(s1.rows.len(), s2.rows.len());
        assert!(s1.rows.len() < all.rows.len() / 2);
        assert!(!s1.rows.is_empty());
    }

    #[test]
    fn streaming_early_drop_stops_consumption() {
        let (archive, _) = setup(7);
        let prepared = archive.prepare("SELECT objid FROM photoobj").unwrap();
        let mut stream = prepared.stream().unwrap();
        let first = stream.next_batch().expect("at least one batch");
        assert!(!first.is_empty());
        // Dropping mid-flight releases the slot and tears down cleanly.
        drop(stream);
        assert_eq!(archive.admission().running, 0);
    }

    #[test]
    fn time_to_first_row_is_recorded() {
        let (archive, _) = setup(8);
        let out = archive
            .run("SELECT objid FROM photoobj WHERE CIRCLE(185, 15, 3)")
            .unwrap();
        let stats = out.stats;
        assert!(stats.time_to_first_row.is_some());
        assert!(stats.time_to_first_row.unwrap() <= stats.total_time);
        assert_eq!(stats.rows, out.rows.len());
        assert!(stats.batches >= 1);
    }

    #[test]
    fn dist_function_in_predicate() {
        let (archive, objs) = setup(9);
        // DIST is not extracted spatially (it's a scalar function), so it
        // scans everything — correctness check only.
        let out = archive
            .run("SELECT objid FROM photoobj WHERE DIST(185, 15) < 1.0")
            .unwrap();
        let center = sdss_skycoords::SkyPos::new(185.0, 15.0).unwrap().unit_vec();
        let want = objs
            .iter()
            .filter(|o| o.unit_vec().separation_deg(center) < 1.0)
            .count();
        assert_eq!(out.rows.len(), want);
    }

    #[test]
    fn empty_result_is_not_an_error() {
        let (archive, _) = setup(10);
        let out = archive
            .run("SELECT objid FROM photoobj WHERE r < 0")
            .unwrap();
        assert!(out.rows.is_empty());
        assert!(out.stats.time_to_first_row.is_none());
    }

    #[test]
    fn unknown_attributes_rejected_at_prepare_time() {
        let (archive, _) = setup(11);
        assert!(archive.prepare("SELECT qqq FROM photoobj").is_err());
    }

    #[test]
    fn archive_without_tags_still_answers() {
        let objs = SkyModel::small(12).generate().unwrap();
        let mut store = ObjectStore::new(StoreConfig::default()).unwrap();
        store.insert_batch(&objs).unwrap();
        let archive = Archive::new(store, None);
        let out = archive
            .run("SELECT objid FROM photoobj WHERE r < 20")
            .unwrap();
        let want = objs.iter().filter(|o| o.mag(2) < 20.0).count();
        assert_eq!(out.rows.len(), want);
        assert_eq!(out.stats.route, RouteChoice::Full);
    }

    #[test]
    fn values_are_typed() {
        let (archive, _) = setup(13);
        let out = archive
            .run("SELECT class, r FROM photoobj WHERE CIRCLE(185, 15, 0.5)")
            .unwrap();
        for row in &out.rows {
            assert!(matches!(row[0], Value::Str(_)));
            assert!(matches!(row[1], Value::Num(_)));
        }
    }

    #[test]
    fn estimate_predicts_cone_scan() {
        let (archive, _) = setup(14);
        let small = archive
            .prepare("SELECT objid FROM photoobj WHERE CIRCLE(185, 15, 0.5)")
            .unwrap();
        let big = archive
            .prepare("SELECT objid FROM photoobj WHERE CIRCLE(185, 15, 3)")
            .unwrap();
        assert!(small.estimate().est_bytes > 0);
        assert!(big.estimate().est_bytes > small.estimate().est_bytes);
        assert!(big.estimate().est_rows > small.estimate().est_rows);
        assert!(!small.estimate().full_sweep);
        let sweep = archive.prepare("SELECT objid FROM photoobj").unwrap();
        assert!(sweep.estimate().full_sweep);
        // The estimate matched reality: the executed scan read exactly
        // the predicted bytes (whole-container reads are exact).
        let out = small.run().unwrap();
        assert_eq!(out.stats.scan.bytes_scanned, small.estimate().est_bytes);
    }

    #[test]
    fn columnar_batches_survive_to_the_edge() {
        let (archive, _) = setup(15);
        let prepared = archive
            .prepare("SELECT objid, ra, r, class FROM photoobj WHERE r < 21")
            .unwrap();
        assert!(prepared.columnar());
        let mut stream = prepared.stream().unwrap();
        let mut saw_columnar = false;
        while let Some(batch) = stream.next_batch() {
            // Every batch off the compiled scan path is still columnar
            // here — nothing flattened to rows inside the fabric.
            saw_columnar |= batch.is_columnar();
            assert!(batch.is_columnar());
        }
        assert!(saw_columnar);
    }

    #[test]
    fn archive_types_are_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<Archive>();
        check::<Prepared>();
        check::<QueryTicket>();
        fn check_send<T: Send>() {}
        check_send::<ResultStream>();
    }

    fn slots_cfg(max_worker_slots: usize, max_heavy: usize, max_bypass: u32) -> AdmissionConfig {
        AdmissionConfig {
            max_worker_slots,
            heavy_bytes: 1,
            max_heavy,
            max_workers_per_query: max_worker_slots,
            max_bypass,
        }
    }

    #[test]
    fn admission_slots_block_and_release() {
        let slots = Arc::new(Slots::new(&slots_cfg(2, 1, 4)));
        let a = slots.acquire(1, false, 1.0);
        let b = slots.acquire(1, true, 1.0);
        assert_eq!(slots.snapshot().running, 2);
        // Third acquire must wait until one guard drops.
        let slots2 = slots.clone();
        let t = std::thread::spawn(move || {
            let _c = slots2.acquire(1, false, 1.0);
        });
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(slots.snapshot().queued, 1);
        drop(a);
        t.join().unwrap();
        assert_eq!(slots.snapshot().queued, 0);
        drop(b);
        assert_eq!(slots.snapshot().running, 0);
        assert_eq!(slots.snapshot().peak_running, 2);
    }

    #[test]
    fn weighted_acquire_accounts_worker_slots() {
        let slots = Arc::new(Slots::new(&slots_cfg(8, 2, 4)));
        // An 8-worker sweep holds 8 slots — the whole pool.
        let sweep = slots.acquire(8, false, 100.0);
        assert_eq!(slots.snapshot().running, 8);
        let slots2 = slots.clone();
        let t = std::thread::spawn(move || {
            let _one = slots2.acquire(1, false, 0.1);
        });
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(
            slots.snapshot().queued,
            1,
            "no room beside a full-width sweep"
        );
        drop(sweep);
        t.join().unwrap();
        assert_eq!(slots.snapshot().running, 0);
        assert_eq!(slots.snapshot().peak_running, 8);
        // Weights clamp to the pool: an oversized request still fits.
        let wide = slots.acquire(64, false, 1.0);
        assert_eq!(slots.snapshot().running, 8);
        drop(wide);
    }

    #[test]
    fn admission_queue_is_cost_ordered() {
        let slots = Arc::new(Slots::new(&slots_cfg(1, 1, 100)));
        let hold = slots.acquire(1, false, 0.0);
        let (order_tx, order_rx) = std::sync::mpsc::channel::<&'static str>();
        // Expensive waiter arrives first...
        let slow = {
            let slots = slots.clone();
            let tx = order_tx.clone();
            std::thread::spawn(move || {
                let g = slots.acquire(1, false, 60.0);
                tx.send("slow").unwrap();
                drop(g);
            })
        };
        while slots.snapshot().queued < 1 {
            std::thread::sleep(Duration::from_millis(2));
        }
        // ...then a cheap one.
        let fast = {
            let slots = slots.clone();
            let tx = order_tx.clone();
            std::thread::spawn(move || {
                let g = slots.acquire(1, false, 0.5);
                tx.send("fast").unwrap();
                // Hold briefly so "slow" can't finish first by racing.
                std::thread::sleep(Duration::from_millis(20));
                drop(g);
            })
        };
        while slots.snapshot().queued < 2 {
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(hold);
        // The cheap query dispatches ahead of the earlier expensive one.
        assert_eq!(
            order_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            "fast"
        );
        assert_eq!(
            order_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            "slow"
        );
        slow.join().unwrap();
        fast.join().unwrap();
    }

    #[test]
    fn starvation_bound_limits_bypasses() {
        // max_bypass = 2: after two cheap queries overtake it, the
        // expensive waiter becomes a barrier and dispatches next even
        // though cheaper work is queued behind it.
        let slots = Arc::new(Slots::new(&slots_cfg(1, 1, 2)));
        let hold = slots.acquire(1, false, 0.0);
        let order = Arc::new(Mutex::new(Vec::<String>::new()));
        let mut handles = Vec::new();
        // The starving expensive waiter arrives first.
        {
            let (slots, order) = (slots.clone(), order.clone());
            handles.push(std::thread::spawn(move || {
                let g = slots.acquire(1, false, 1000.0);
                order.lock().unwrap().push("slow".into());
                drop(g);
            }));
        }
        while slots.snapshot().queued < 1 {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Cheap queries arrive one at a time; each dispatch bypasses the
        // expensive waiter until the bound trips.
        for i in 0..4 {
            let (slots_t, order_t) = (slots.clone(), order.clone());
            handles.push(std::thread::spawn(move || {
                let g = slots_t.acquire(1, false, 0.1);
                order_t.lock().unwrap().push(format!("fast{i}"));
                std::thread::sleep(Duration::from_millis(10));
                drop(g);
            }));
            while slots.snapshot().queued < 2 + i {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        drop(hold);
        for h in handles {
            h.join().unwrap();
        }
        let order = order.lock().unwrap();
        let slow_pos = order.iter().position(|s| s == "slow").unwrap();
        assert!(
            slow_pos <= 2,
            "starved waiter dispatched after {slow_pos} bypasses (bound is 2): {order:?}"
        );
    }

    /// A worker panic inside the morsel driver surfaces as `Err` on every
    /// shape it drives, at 1 and 4 workers, whichever worker makes the
    /// faulting claim (the coordinator or a spawned worker, the first
    /// claim or a later one): never a truncated result, never a leaked
    /// admission slot, and a failed INTO commits no set.
    #[test]
    fn injected_worker_panic_fails_every_driven_shape_cleanly() {
        let objs = SkyModel::small(91).generate().unwrap();
        let mut store = ObjectStore::new(StoreConfig::default()).unwrap();
        store.insert_batch(&objs).unwrap();
        let tags = Arc::new(TagStore::from_store(&store));
        let store = Arc::new(store);
        let shapes = [
            "SELECT objid, r FROM photoobj WHERE r < 23",
            "SELECT COUNT(*), AVG(r) FROM photoobj WHERE r < 23",
            "SELECT a.objid, b.objid, sep_arcsec FROM MATCH(s, photoobj, 60)",
            "SELECT COUNT(*) FROM MATCH(s, s, 600)",
            "SELECT objid INTO t FROM photoobj WHERE r < 23",
            "(SELECT objid FROM photoobj WHERE r < 22) UNION (SELECT objid FROM photoobj WHERE gr > 0.3) INTO t",
            "(SELECT objid FROM s) INTERSECT (SELECT objid FROM photoobj WHERE gr > 0.3) INTO t",
            "(SELECT objid FROM photoobj WHERE r < 22) EXCEPT (SELECT objid FROM photoobj WHERE gr > 0.3) INTO t",
        ];
        for workers in [1, 4] {
            let config = ArchiveConfig {
                admission: AdmissionConfig {
                    max_worker_slots: 16,
                    heavy_bytes: u64::MAX,
                    max_heavy: 1,
                    max_workers_per_query: workers,
                    max_bypass: 4,
                },
                ..ArchiveConfig::default()
            };
            let archive = Archive::with_config(store.clone(), Some(tags.clone()), config);
            // Small chunks give the stored set more probe morsels than
            // workers (and at least three), so every faulting claim
            // happens.
            let session = archive.session_with(SessionConfig {
                chunk_rows: 8,
                ..SessionConfig::default()
            });
            session
                .run("SELECT objid INTO s FROM photoobj WHERE r < 21")
                .unwrap();
            for sql in shapes {
                let clean = session.run(sql).unwrap();
                assert!(
                    clean.stats.morsels > workers.max(2) as u64,
                    "{sql}: {:?}",
                    clean.stats
                );
                session.drop_set("t").ok();
                for k in [1, 2, 3] {
                    let mut stmt = session.prepare(sql).unwrap();
                    stmt.inject_worker_panic(k);
                    match stmt.run() {
                        Err(QueryError::Exec(msg)) => {
                            assert!(msg.contains("injected fault"), "{sql} k={k}: {msg}")
                        }
                        other => panic!(
                            "{sql} at {workers} workers, k={k}: {:?} rows",
                            other.map(|out| out.rows.len())
                        ),
                    }
                    assert_eq!(archive.admission().running, 0, "{sql} k={k}");
                    assert!(session.set_info("t").is_none(), "{sql} k={k}");
                }
            }
        }
    }
}
