//! Session workspaces: per-user namespaces of named server-side result
//! sets, and the compositional query surface over them.
//!
//! The paper's science scenarios are multi-step — the query agent
//! selects a candidate set, then the astronomer refines, cross-matches
//! and aggregates *that set* rather than re-scanning the sky. A
//! [`Session`] is where those intermediate results live:
//!
//! * `SELECT objid, ... INTO bright FROM photoobj WHERE r < 20` runs the
//!   query under admission control and **materializes** the matching
//!   objects as a named set in the session (columnar
//!   [`sdss_storage::ResultSet`] chunks), instead of streaming rows
//!   back.
//! * `SELECT gr, r FROM bright WHERE gr > 0.6` then scans the stored set
//!   through the *same* compiled-predicate + morsel-parallel worker path
//!   as a tag scan (one morsel per chunk) — stored sets are first-class
//!   query sources, not a row-at-a-time side door.
//!
//! A stored set is a **bag of tagged objects**: whatever the creating
//! query selected, the set materializes the full 64-byte tag record per
//! distinct `objid` the query yielded (which is why `INTO` requires
//! `objid` in the select list). Follow-up queries can therefore project
//! any tag attribute, not just the originally selected columns, and the
//! `INTO`-then-`FROM` round trip composes: `FROM s WHERE P2` over a set
//! built with `WHERE P1` equals the direct query `WHERE P1 AND P2`.
//!
//! Sessions are isolated namespaces (no cross-session visibility),
//! quota-bounded ([`SessionConfig`]: set count + resident bytes, checked
//! live while a materialization streams), and observable
//! ([`SessionStats`] accumulates per-query counters; the archive lists
//! live sessions via `Archive::sessions`). Prepared statements pin a
//! snapshot of the sets they reference, so dropping or replacing a name
//! never invalidates an in-flight or re-executable statement — the
//! `Arc`'d chunks stay alive until the last reader is gone.

use crate::archive::{Archive, Prepared, QueryOutput, QueryStats};
use crate::plan::pointer_column;
use crate::QueryError;
use sdss_catalog::TagObject;
use sdss_storage::{ResultSet, ResultSetBuilder, RESULT_SET_CHUNK_ROWS};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// Quotas and materialization parameters for one session workspace.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Named sets the session may hold at once (`INTO` over an existing
    /// name replaces it and does not count twice).
    pub max_sets: usize,
    /// Total resident bytes across the session's sets. Enforced *live*
    /// while an `INTO` streams: the materialization aborts cleanly (and
    /// cancels its execution) the moment the builder crosses the budget.
    pub max_bytes: u64,
    /// Rows per materialized chunk — the morsel granularity of scans
    /// over the set. Smaller chunks give small sets more parallelism;
    /// larger chunks amortize per-morsel overhead on big ones.
    pub chunk_rows: usize,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            max_sets: 16,
            max_bytes: 256 << 20,
            chunk_rows: RESULT_SET_CHUNK_ROWS,
        }
    }
}

/// Accumulated counters for one session (monotonic except the resident
/// set figures, which track the live workspace).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Executions that ran to completion under this session (streamed
    /// reads and `INTO` materializations both count on finish).
    pub queries: u64,
    /// Sum of per-query `QueryStats::rows` (rows delivered to consumers).
    pub rows_delivered: u64,
    /// Sum of per-query [`QueryStats::rows_emitted`] — rows producers
    /// pushed into the channel fabric, counted at the batch edge.
    pub rows_emitted: u64,
    /// Sum of per-query scan bytes.
    pub bytes_scanned: u64,
    /// `INTO` materializations that committed a set.
    pub sets_created: u64,
    /// Explicit `drop_set` calls that removed a set.
    pub sets_dropped: u64,
    /// Rows materialized into sets, across all `INTO` runs.
    pub rows_materialized: u64,
}

/// One stored set's listing entry (name, row/byte counts, chunk count —
/// the chunk count is the morsel-parallelism a scan over it can reach).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredSetInfo {
    pub name: String,
    pub rows: usize,
    pub bytes: usize,
    pub chunks: usize,
}

impl StoredSetInfo {
    fn of(name: impl Into<String>, set: &ResultSet) -> StoredSetInfo {
        StoredSetInfo {
            name: name.into(),
            rows: set.rows(),
            bytes: set.bytes(),
            chunks: set.n_chunks(),
        }
    }
}

/// Archive-level listing entry for one live session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionInfo {
    pub id: u64,
    /// Named sets currently resident.
    pub sets: usize,
    /// Rows across the resident sets.
    pub rows: usize,
    /// Bytes across the resident sets.
    pub bytes: u64,
    /// Completed executions so far.
    pub queries: u64,
}

/// The state every clone of one [`Session`] shares.
#[derive(Debug)]
pub(crate) struct SessionShared {
    id: u64,
    config: SessionConfig,
    sets: Mutex<HashMap<String, Arc<ResultSet>>>,
    stats: Mutex<SessionStats>,
}

impl SessionShared {
    /// Fold one finished execution's stats into the session counters
    /// (called by `ResultStream::finish`).
    pub(crate) fn note_query(&self, stats: &QueryStats) {
        let mut s = self.stats.lock().unwrap();
        s.queries += 1;
        s.rows_delivered += stats.rows as u64;
        s.rows_emitted += stats.rows_emitted;
        s.bytes_scanned += stats.scan.bytes_scanned;
    }

    pub(crate) fn info(&self) -> SessionInfo {
        let sets = self.sets.lock().unwrap();
        SessionInfo {
            id: self.id,
            sets: sets.len(),
            rows: sets.values().map(|s| s.rows()).sum(),
            bytes: sets.values().map(|s| s.bytes() as u64).sum(),
            queries: self.stats.lock().unwrap().queries,
        }
    }

    /// Resident bytes held by every set *except* `name` (the
    /// materialization budget for a set about to land under `name`).
    fn bytes_excluding(&self, name: &str) -> u64 {
        self.sets
            .lock()
            .unwrap()
            .iter()
            .filter(|(n, _)| n.as_str() != name)
            .map(|(_, s)| s.bytes() as u64)
            .sum()
    }

    /// The set-count quota rule, evaluated against a locked map
    /// (replacing an existing name never counts as a new slot). Shared
    /// by the pre-flight check and the under-lock commit.
    fn check_slot_locked(
        config: &SessionConfig,
        sets: &HashMap<String, Arc<ResultSet>>,
        name: &str,
    ) -> Result<(), QueryError> {
        if !sets.contains_key(name) && sets.len() >= config.max_sets {
            return Err(QueryError::Exec(format!(
                "session set quota exceeded: {} sets resident (max {})",
                sets.len(),
                config.max_sets
            )));
        }
        Ok(())
    }

    /// Early set-count check so an over-quota `INTO` fails before it
    /// scans anything (re-checked under the lock at commit).
    fn check_set_slot(&self, name: &str) -> Result<(), QueryError> {
        Self::check_slot_locked(&self.config, &self.sets.lock().unwrap(), name)
    }

    /// Commit a materialized set under `name`, re-checking both quotas
    /// under the lock (concurrent clones of the session may have raced).
    fn insert_set(&self, name: &str, set: Arc<ResultSet>) -> Result<StoredSetInfo, QueryError> {
        let mut sets = self.sets.lock().unwrap();
        Self::check_slot_locked(&self.config, &sets, name)?;
        let others: u64 = sets
            .iter()
            .filter(|(n, _)| n.as_str() != name)
            .map(|(_, s)| s.bytes() as u64)
            .sum();
        if others + set.bytes() as u64 > self.config.max_bytes {
            return Err(QueryError::Exec(format!(
                "session byte quota exceeded: set `{name}` needs {} bytes, \
                 {} of {} available",
                set.bytes(),
                self.config.max_bytes.saturating_sub(others),
                self.config.max_bytes
            )));
        }
        let info = StoredSetInfo::of(name, &set);
        sets.insert(name.to_string(), set);
        let mut stats = self.stats.lock().unwrap();
        stats.sets_created += 1;
        stats.rows_materialized += info.rows as u64;
        Ok(info)
    }
}

/// A per-user session workspace handle. Clone it to share one workspace
/// across threads; every clone sees the same sets, quotas and stats.
/// Opened via `Archive::session()` / `Archive::session_with`.
#[derive(Debug, Clone)]
pub struct Session {
    archive: Archive,
    shared: Arc<SessionShared>,
}

impl Session {
    pub(crate) fn open(archive: Archive, config: SessionConfig) -> Session {
        let shared = Arc::new(SessionShared {
            id: archive.alloc_session_id(),
            config: SessionConfig {
                max_sets: config.max_sets.max(1),
                max_bytes: config.max_bytes,
                chunk_rows: config.chunk_rows.max(1),
            },
            sets: Mutex::new(HashMap::new()),
            stats: Mutex::new(SessionStats::default()),
        });
        archive.register_session(&shared);
        Session { archive, shared }
    }

    /// This session's archive-unique id.
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// The archive this workspace lives in.
    pub fn archive(&self) -> &Archive {
        &self.archive
    }

    /// The quotas this session was opened with.
    pub fn config(&self) -> SessionConfig {
        self.shared.config
    }

    /// Prepare a statement against this workspace: `FROM <set>` names
    /// resolve to a **pinned snapshot** of the current sets (later drops
    /// or replacements don't affect this statement's executions), and
    /// `INTO <name>` statements materialize into this session when run.
    pub fn prepare(&self, sql: &str) -> Result<Prepared, QueryError> {
        let sets = self.shared.sets.lock().unwrap().clone();
        self.archive
            .prepare_in(sql, &sets, Some(self.shared.clone()))
    }

    /// Prepare + execute. Plain queries return their rows; `INTO`
    /// statements materialize the named set server-side and return an
    /// empty-rows [`QueryOutput`] carrying the execution stats (inspect
    /// the landed set via [`Session::set_info`]).
    pub fn run(&self, sql: &str) -> Result<QueryOutput, QueryError> {
        self.prepare(sql)?.run()
    }

    /// One-shot convenience mirroring `Archive::run_with_stats`.
    pub fn run_with_stats(&self, sql: &str) -> Result<(QueryOutput, QueryStats), QueryError> {
        let output = self.run(sql)?;
        let stats = output.stats.clone();
        Ok((output, stats))
    }

    /// List the resident sets (name order) with row/byte/chunk counts.
    pub fn sets(&self) -> Vec<StoredSetInfo> {
        let mut out: Vec<StoredSetInfo> = self
            .shared
            .sets
            .lock()
            .unwrap()
            .iter()
            .map(|(name, set)| StoredSetInfo::of(name.clone(), set))
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Listing entry for one set, if resident. Names are
    /// case-insensitive, matching the query language.
    pub fn set_info(&self, name: &str) -> Option<StoredSetInfo> {
        let name = name.to_ascii_lowercase();
        let sets = self.shared.sets.lock().unwrap();
        sets.get(&name).map(|set| StoredSetInfo::of(name, set))
    }

    /// Drop a stored set, freeing its quota immediately. Statements
    /// prepared before the drop keep their pinned snapshot. Errors if no
    /// such set is resident.
    pub fn drop_set(&self, name: &str) -> Result<StoredSetInfo, QueryError> {
        let name = name.to_ascii_lowercase();
        let removed = self.shared.sets.lock().unwrap().remove(&name);
        match removed {
            Some(set) => {
                self.shared.stats.lock().unwrap().sets_dropped += 1;
                Ok(StoredSetInfo::of(name, &set))
            }
            None => Err(QueryError::Unknown(format!("stored set {name}"))),
        }
    }

    /// Accumulated session counters.
    pub fn stats(&self) -> SessionStats {
        *self.shared.stats.lock().unwrap()
    }
}

/// The `INTO` writer sink. Two routes materialize a set:
///
/// * **Lanes** — a bare tag- or set-routed scan, or a `UNION`,
///   `INTERSECT` or `EXCEPT` of two such scans over one source and
///   domain, whose predicates all compile, copies whole tag records
///   straight out of the scanned column lanes into the set
///   ([`Prepared::run_into_columnar`]): no per-objid full-store fetch,
///   no channel fabric, and a set operation runs as one scan. It runs
///   on every granted worker, then writes each kept row once, in morsel
///   order, into the set's final chunks, so the set (rows, row order,
///   chunks) is the same at any worker count and the same as the fetch
///   route's at one worker per leaf.
/// * **Stream-and-fetch** — every other shape drives the
///   admission-held stream and fetches one tag record per distinct
///   object pointer through the full store's id index. The fetch reads
///   the tag and its `htm20` in place from the stored record
///   ([`TagObject::from_record`]), never decoding the whole object.
///   The shapes left on it: full-store sources (a non-compilable
///   predicate included), `MATCH ... INTO`, `ORDER BY` or `LIMIT` over
///   the scan, set operations whose branches read different sources
///   or domains or include a branch that is not such a scan
///   (full-store, non-compilable, nested, or projecting something else
///   as `objid`), and every shape under
///   [`crate::ExecMode::Interpreted`], which keeps this route as the
///   oracle of the lane route.
///
/// Both routes quota-check live while folding; a violation aborts
/// cleanly (dropping the fetch route's stream cancels the execution)
/// and returns the admission slots.
pub(crate) fn run_into(prepared: &Prepared, params: &[f64]) -> Result<QueryOutput, QueryError> {
    let name = prepared
        .into_set()
        .expect("run_into is only called for INTO statements")
        .to_string();
    let ws = prepared
        .workspace()
        .cloned()
        .expect("prepare rejected INTO without a session workspace");
    ws.check_set_slot(&name)?;

    let columns = prepared.columns().to_vec();
    let budget = ws
        .config
        .max_bytes
        .saturating_sub(ws.bytes_excluding(&name));

    if let Some((set, stats)) =
        prepared.run_into_columnar(params, &name, ws.config.chunk_rows, budget)?
    {
        ws.note_query(&stats);
        ws.insert_set(&name, Arc::new(set))?;
        return Ok(QueryOutput {
            columns,
            rows: Vec::new(),
            stats,
        });
    }

    let objid_idx = pointer_column(&columns)
        .expect("the planner requires an object pointer in INTO select lists");
    let store = prepared.archive().store().clone();

    let mut stream = prepared.stream_raw(params)?;
    let mut seen: HashSet<u64> = HashSet::new();
    let mut builder = ResultSetBuilder::new(ws.config.chunk_rows);
    while let Some(batch) = stream.next_batch() {
        for r in 0..batch.len() {
            // Set semantics: one tag record per distinct object pointer.
            let Some(id) = batch.id_at(objid_idx, r) else {
                continue;
            };
            if !seen.insert(id) {
                continue;
            }
            let rec = store.record(id).map_err(|e| {
                QueryError::Exec(format!("INTO {name}: object {id:#x} fetch failed: {e}"))
            })?;
            builder.push(&TagObject::from_record(&rec), rec.htm20());
            if builder.bytes() as u64 > budget {
                // Dropping the stream cancels the producing execution.
                return Err(QueryError::Exec(format!(
                    "session byte quota exceeded materializing `{name}`: \
                     {} bytes available, {} rows already folded",
                    budget,
                    builder.rows()
                )));
            }
        }
    }
    if let Some(msg) = stream.failure() {
        return Err(QueryError::Exec(msg));
    }
    let stats = stream.finish(); // reports into SessionStats
    ws.insert_set(&name, Arc::new(builder.finish()))?;
    Ok(QueryOutput {
        columns,
        rows: Vec::new(),
        stats,
    })
}
