//! # Query engine: parser, Query Execution Trees, a multi-user archive API
//!
//! The paper's prototype query system:
//!
//! > "Each query received from the User Interface is parsed into a Query
//! > Execution Tree (QET) that is then executed by the Query Engine. Each
//! > node of the QET is either a query or a set-operation node, and
//! > returns a bag of object-pointers upon execution. The multi-threaded
//! > Query Engine executes in parallel at all the nodes at a given level
//! > of the QET. Results from child nodes are passed up the tree as soon
//! > as they are generated. [...] this ASAP data push strategy ensures
//! > that even in the case of a query that takes a very long time to
//! > complete, the user starts seeing results almost immediately."
//!
//! The public surface is the **archive server API** in [`archive`] plus
//! the **session workspaces** in [`session`]:
//!
//! * [`Archive`] — an owned, cloneable, `Send + Sync` handle over
//!   `Arc`'d stores; any number of threads submit queries concurrently.
//! * [`Archive::session`] → [`Session`] — a per-user workspace of named
//!   **server-side result sets**. `SELECT objid, ... INTO s FROM ...`
//!   materializes the matching objects columnar under the session's
//!   quotas; `FROM s` then treats the stored set as a first-class query
//!   source — refine, aggregate, set-operate, cross-compose — scanning
//!   it through the *same* compiled-predicate + morsel-parallel worker
//!   path as a tag scan (one morsel per materialized chunk). Sessions
//!   are isolated namespaces with byte/set quotas and accumulated
//!   [`SessionStats`]. Tag- and set-routed `INTO` statements take the
//!   **direct columnar fast path**: whole tag records project straight
//!   out of the scan's column lanes into the set builder — no per-objid
//!   full-store fetch — an order of magnitude faster materialization.
//! * `MATCH(a, b, radius_arcsec)` — stored sets are **joinable**: the
//!   cross-match source yields every ordered pair within the radius
//!   (set-vs-set or set-vs-archive), exposing `a.<attr>` / `b.<attr>`
//!   and the `sep_arcsec` pseudo-column. The join runs morsel-parallel
//!   over the probe side against a declination-zone build index, and a
//!   set-vs-archive join reads only the archive inside the set's
//!   footprint cap — the paper's "find objects near other objects" /
//!   gravitational-lens queries as a first-class query source, and
//!   `MATCH ... INTO pairs` materializes the result under quotas.
//! * [`Archive::prepare`] / [`Session::prepare`] → [`Prepared`] —
//!   parse/plan split from execution: inspect the plan, read the
//!   plan-time [`CostEstimate`] (rows / bytes / containers — exact for
//!   stored sets, read from the scan plans the executions reuse for the
//!   base stores), then execute
//!   repeatedly with `$1`-style numeric parameters re-bound per run — no
//!   re-parse, no re-plan. Prepare resolves each scan leaf once, and a
//!   session-prepared statement's leaves keep the sets they read.
//!   [`Prepared::explain`] leads with the estimate line the admission
//!   queue orders on.
//! * [`Prepared::stream`] → [`ResultStream`] — pull-based
//!   [`ResultBatch`]es; the compiled scan path ships struct-of-arrays
//!   [`ColumnarBatch`]es through the whole channel fabric and rows
//!   materialize only at the edge: [`ResultBatch::rows`] builds each
//!   batch eagerly into one row-major [`RowBlock`], one allocation per
//!   batch.
//! * [`QueryTicket`] — per-execution cancellation + live progress;
//!   [`QueryStats`] closes the loop with timing, routing, scan-byte,
//!   worker and cover-cache counters (including `rows_emitted`, the
//!   batch-edge producer count). [`Archive::run_with_stats`] pairs the
//!   rows and stats for one-shot callers.
//! * Admission control — a semaphore-bounded slot pool
//!   ([`AdmissionConfig`]) queues executions rather than oversubscribing,
//!   with a separate bound on *heavy* (over-estimate) queries — the
//!   behavior the paper's query agents gave the multi-user archive.
//!   `INTO` materializations hold their slots while the writer sink
//!   folds batches into the set.
//!
//! ```
//! use sdss_query::Archive;
//! # use sdss_catalog::SkyModel;
//! # use sdss_storage::{ObjectStore, StoreConfig, TagStore};
//! # use std::sync::Arc;
//! # let objs = SkyModel::small(7).generate().unwrap();
//! # let mut store = ObjectStore::new(StoreConfig::default()).unwrap();
//! # store.insert_batch(&objs).unwrap();
//! # let tags = TagStore::from_store(&store);
//! let archive = Archive::new(store, Some(Arc::new(tags)));
//! let stmt = archive.prepare(
//!     "SELECT objid, ra, dec, r FROM photoobj WHERE CIRCLE(185, 15, 2) AND r < $1",
//! )?;
//! assert!(stmt.estimate().est_bytes > 0);
//! let bright = stmt.run_with(&[20.0])?; // binds $1 — no re-parse/re-plan
//! let faint = stmt.run_with(&[22.0])?;
//! assert!(bright.rows.len() <= faint.rows.len());
//!
//! // The multi-step scenario: select a candidate set once, then
//! // compose over it without re-scanning the sky.
//! let session = archive.session();
//! session.run("SELECT objid INTO cand FROM photoobj WHERE r < 21")?;
//! let refined = session.run("SELECT objid, gr FROM cand WHERE gr > 0.6")?;
//! let stats = session.run("SELECT COUNT(*), AVG(r) FROM cand")?;
//! assert_eq!(stats.rows.len(), 1);
//! assert!(refined.rows.len() <= session.set_info("cand").unwrap().rows);
//!
//! // Cross-identification in the same session: gravitational-lens
//! // candidates are bright pairs within a few arcseconds — select the
//! // candidates once, then join the set against itself.
//! session.run("SELECT objid INTO bright FROM photoobj WHERE r < 20")?;
//! let pairs = session.run(
//!     "SELECT a.objid, b.objid, sep_arcsec FROM MATCH(bright, bright, 3) \
//!      WHERE a.objid < b.objid",
//! )?;
//! let n = session.run("SELECT COUNT(*) FROM MATCH(bright, bright, 3)")?;
//! // Ordered-pair semantics: COUNT sees both orderings of each pair.
//! assert_eq!(n.rows[0][0].as_num().unwrap() as usize, 2 * pairs.rows.len());
//! # Ok::<(), sdss_query::QueryError>(())
//! ```
//!
//! ## The result contract
//!
//! Parallel execution fixes only what the query asks for:
//!
//! * Without `ORDER BY`, a result is a **multiset**: scan workers merge
//!   their streams in whatever order they finish morsels, so compare
//!   results as sorted multisets, never by position.
//! * With `ORDER BY`, only the key order is fixed; rows with equal keys
//!   may come in any order.
//! * Aggregates are bit-identical on every route and at any worker
//!   count: workers fold one partial per morsel, and the partials merge
//!   in morsel order, so a sum always rounds the same way.
//! * A failed execution returns an error, never a truncated result: a
//!   scan worker panic or a quota overrun surfaces as `Err`, and its
//!   admission slots return to the pool.
//!
//! Module map:
//!
//! * [`ast`] / [`lexer`] / [`parser`] — a small SQL-ish surface language
//!   with spatial predicates (`CIRCLE`, `RECT`, `BAND`), set operators
//!   (`UNION` / `INTERSECT` / `EXCEPT`), `$N` parameters, `INTO` /
//!   stored-set `FROM` sources, and the `MATCH(a, b, radius)` join
//!   source with `a.`/`b.`-qualified projections
//! * [`plan`] — the QET itself, built from the AST; [`QuerySource`]
//!   routes each scan leaf (full store / tag partition / stored set /
//!   cross-match join); spatial predicates compile to HTM covers for the
//!   base stores and stay row-wise for sets and pairs; parameters bind
//!   per execution
//! * [`compile`] — predicate/projection compilation to register bytecode
//!   evaluated over column batches (the E5 hot path, shared by tag
//!   containers and stored-set chunks)
//! * [`exec`] — multithreaded ASAP-push execution over crossbeam
//!   channels; batches stay columnar through the fabric, and compiled
//!   scans run **morsel-parallel**: the touched-container (or set-chunk)
//!   list is a byte-balanced work queue drained by a pool of scan
//!   workers, with `COUNT`/`SUM`/`MIN`/`MAX` folding inside the scan loop
//! * [`archive`] — the server API: shared handle, prepared queries,
//!   batch streams, tickets, admission control (slots accounted in
//!   worker threads, cost-ordered queue), session registry
//! * [`session`] — session workspaces: stored-set lifecycle (`INTO`
//!   writer sink, listing, drop), quotas, per-session stats
//! * [`ops`] — the "special operators related to angular distances and
//!   complex similarity tests" (the row-at-a-time fallback interpreter)
//!
//! Migration: `Archive::prepare` / `run` / `stream` are **unchanged** —
//! sessions are purely additive. Code that never says `INTO` or queries
//! a stored set needs no edits.

pub mod archive;
pub mod ast;
pub mod compile;
pub mod exec;
pub mod lexer;
pub mod ops;
pub mod parser;
pub mod plan;
pub mod session;

pub use archive::{
    AdmissionConfig, AdmissionSnapshot, Archive, ArchiveConfig, CostEstimate, Prepared,
    QueryOutput, QueryStats, QueryTicket, ResultStream, RouteChoice,
};
pub use ast::{BinOp, Expr, Query, SelectStmt, SetOp, Value};
pub use compile::{
    compile_agg_inputs, compile_predicate, compile_projection, BatchScratch, CompiledAggInputs,
    CompiledPredicate, CompiledProjection,
};
pub use exec::{
    ColumnData, ColumnarBatch, ExecMode, ResultBatch, Row, RowBlock, ScanTotals, WorkerScan,
};
pub use plan::{plans_built, MatchInput, MatchSpec, PlanNode, QueryPlan, QuerySource};
pub use session::{Session, SessionConfig, SessionInfo, SessionStats, StoredSetInfo};

/// Errors produced by the query crate.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// Lexical error with position.
    Lex { pos: usize, message: String },
    /// Parse error with position.
    Parse { pos: usize, message: String },
    /// Unknown attribute / table name.
    Unknown(String),
    /// Type mismatch in an expression.
    Type(String),
    /// Region construction failed.
    Region(String),
    /// Execution-time failure.
    Exec(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Lex { pos, message } => write!(f, "lex error at {pos}: {message}"),
            QueryError::Parse { pos, message } => {
                write!(f, "parse error at {pos}: {message}")
            }
            QueryError::Unknown(n) => write!(f, "unknown name: {n}"),
            QueryError::Type(m) => write!(f, "type error: {m}"),
            QueryError::Region(m) => write!(f, "region error: {m}"),
            QueryError::Exec(m) => write!(f, "execution error: {m}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<sdss_htm::HtmError> for QueryError {
    fn from(e: sdss_htm::HtmError) -> Self {
        QueryError::Region(e.to_string())
    }
}

impl From<sdss_storage::StorageError> for QueryError {
    fn from(e: sdss_storage::StorageError) -> Self {
        QueryError::Exec(e.to_string())
    }
}
