//! Query planning: AST → Query Execution Tree.
//!
//! The planner does three jobs the paper calls out:
//!
//! 1. **Spatial extraction** — top-level conjunctive spatial factors of
//!    the WHERE clause become one HTM [`Domain`] so the scan reads only
//!    covered containers; the residual predicate is evaluated per object.
//! 2. **Routing** — if every attribute the query touches lives on the
//!    64-byte tag record, the plan scans the tag partition ("searched
//!    more than 10 times faster, if no other attributes are involved").
//! 3. **Tree shaping** — set operations become internal QET nodes; sort /
//!    aggregate / limit stack on top of scans.

use crate::ast::{AggFn, Expr, Query, SelectItem, SelectStmt, SetOp, SpatialPred, TableSource};
use crate::ops::{function_arity, FULL_ATTRS, TAG_ATTRS};
use crate::QueryError;
use sdss_htm::{Domain, Region};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of plans built — lets tests assert that prepared
/// queries re-execute without re-planning.
static PLANS_BUILT: AtomicU64 = AtomicU64::new(0);

/// Total number of [`plan`] invocations in this process.
pub fn plans_built() -> u64 {
    PLANS_BUILT.load(Ordering::Relaxed)
}

/// One side of a `MATCH(a, b, radius)` cross-match join: the base
/// archive (its tag partition) or a stored session set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchInput {
    /// The tag vertical partition of the base archive (`photoobj`/`tag`).
    Archive,
    /// A named stored set, resolved against the session's pinned
    /// snapshot at prepare time.
    Set(String),
}

impl MatchInput {
    fn label(&self) -> String {
        match self {
            MatchInput::Archive => "archive".to_string(),
            MatchInput::Set(name) => format!("set:{name}"),
        }
    }
}

/// The `MATCH(a, b, radius_arcsec)` join description carried by a scan
/// leaf: probe side `a` (one morsel per chunk/container), build side `b`
/// (filed into declination zones), and the match radius. An archive
/// input facing a stored set reads only the set's footprint cap.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchSpec {
    /// Probe side — its chunks become the scan morsels.
    pub a: MatchInput,
    /// Build side — zone-indexed in memory before probing starts.
    pub b: MatchInput,
    pub radius_arcsec: f64,
}

/// Where a scan leaf reads its rows from. Replaces the old implicit
/// tags-vs-full-store routing flag: a query source is now first-class,
/// and stored session sets sit beside the base stores as equal citizens.
#[derive(Debug, Clone, PartialEq)]
pub enum QuerySource {
    /// The ~1.2 KB full photometric objects.
    Full,
    /// The 64-byte tag vertical partition.
    Tag,
    /// A named server-side result set in the caller's session workspace
    /// (resolved to a pinned snapshot at prepare time). Tag-shaped:
    /// exposes exactly the tag attributes, scans columnar.
    Set(String),
    /// A `MATCH(a, b, radius)` cross-match join: rows are the ordered
    /// pairs within the radius, exposing `a.<attr>` / `b.<attr>` plus
    /// `sep_arcsec`. Executes morsel-parallel over the probe side
    /// against the declination-zone build side.
    Match(MatchSpec),
}

impl QuerySource {
    /// Short label for EXPLAIN output.
    pub fn label(&self) -> String {
        match self {
            QuerySource::Full => "full".to_string(),
            QuerySource::Tag => "tag".to_string(),
            QuerySource::Set(name) => format!("set:{name}"),
            QuerySource::Match(m) => format!(
                "match:{}~{}@{}\"",
                m.a.label(),
                m.b.label(),
                m.radius_arcsec
            ),
        }
    }
}

/// One scan leaf of the QET.
#[derive(Debug, Clone)]
pub struct ScanSpec {
    pub source: QuerySource,
    /// Spatial restriction (None = whole stored sky). Always `None` for
    /// stored-set sources: sets carry no HTM clustering, so spatial
    /// factors stay in the residual predicate and evaluate row-wise.
    pub domain: Option<Domain>,
    /// Residual predicate after spatial extraction.
    pub predicate: Option<Expr>,
    /// Output columns (name, expression).
    pub columns: Vec<(String, Expr)>,
    /// Deterministic sampling fraction (`SAMPLE 0.01`).
    pub sample: Option<f64>,
}

/// Aggregate description.
#[derive(Debug, Clone)]
pub struct AggSpec {
    pub func: AggFn,
    pub arg: Option<Expr>,
    pub name: String,
}

/// A node of the Query Execution Tree.
#[derive(Debug, Clone)]
pub enum PlanNode {
    Scan(ScanSpec),
    /// Blocking sort on an output column.
    Sort {
        child: Box<PlanNode>,
        key: String,
        desc: bool,
    },
    /// Streaming row-count cutoff.
    Limit {
        child: Box<PlanNode>,
        n: usize,
    },
    /// Blocking aggregation (one output row), always directly over the
    /// scan whose rows it folds in-scan.
    Aggregate {
        child: Box<PlanNode>,
        aggs: Vec<AggSpec>,
    },
    /// Set operation keyed on `objid` (the paper's bags of
    /// object-pointers).
    Set {
        op: SetOp,
        left: Box<PlanNode>,
        right: Box<PlanNode>,
    },
}

impl PlanNode {
    /// Output column names of this node.
    pub fn columns(&self) -> Vec<String> {
        match self {
            PlanNode::Scan(s) => s.columns.iter().map(|(n, _)| n.clone()).collect(),
            PlanNode::Sort { child, .. } | PlanNode::Limit { child, .. } => child.columns(),
            PlanNode::Aggregate { aggs, .. } => aggs.iter().map(|a| a.name.clone()).collect(),
            PlanNode::Set { left, .. } => left.columns(),
        }
    }

    /// Highest `$N` parameter index referenced anywhere in the tree
    /// (0 = the plan takes no parameters).
    pub fn max_param(&self) -> usize {
        fn scan_max(s: &ScanSpec) -> usize {
            let p = s.predicate.as_ref().map_or(0, Expr::max_param);
            let c = s
                .columns
                .iter()
                .map(|(_, e)| e.max_param())
                .max()
                .unwrap_or(0);
            p.max(c)
        }
        match self {
            PlanNode::Scan(s) => scan_max(s),
            PlanNode::Sort { child, .. } | PlanNode::Limit { child, .. } => child.max_param(),
            PlanNode::Aggregate { child, aggs } => child.max_param().max(
                aggs.iter()
                    .filter_map(|a| a.arg.as_ref())
                    .map(Expr::max_param)
                    .max()
                    .unwrap_or(0),
            ),
            PlanNode::Set { left, right, .. } => left.max_param().max(right.max_param()),
        }
    }

    /// Clone of this tree with every `$N` replaced by `params[N-1]` —
    /// the per-execution bind step of a prepared query. Spatial domains,
    /// routing and node shape are reused untouched; no re-parse, no
    /// re-plan.
    pub fn bind_params(&self, params: &[f64]) -> Result<PlanNode, QueryError> {
        Ok(match self {
            PlanNode::Scan(s) => PlanNode::Scan(ScanSpec {
                source: s.source.clone(),
                domain: s.domain.clone(),
                predicate: s
                    .predicate
                    .as_ref()
                    .map(|p| p.bind_params(params))
                    .transpose()?,
                columns: s
                    .columns
                    .iter()
                    .map(|(n, e)| Ok((n.clone(), e.bind_params(params)?)))
                    .collect::<Result<Vec<_>, QueryError>>()?,
                sample: s.sample,
            }),
            PlanNode::Sort { child, key, desc } => PlanNode::Sort {
                child: Box::new(child.bind_params(params)?),
                key: key.clone(),
                desc: *desc,
            },
            PlanNode::Limit { child, n } => PlanNode::Limit {
                child: Box::new(child.bind_params(params)?),
                n: *n,
            },
            PlanNode::Aggregate { child, aggs } => PlanNode::Aggregate {
                child: Box::new(child.bind_params(params)?),
                aggs: aggs
                    .iter()
                    .map(|a| {
                        Ok(AggSpec {
                            func: a.func,
                            arg: a.arg.as_ref().map(|e| e.bind_params(params)).transpose()?,
                            name: a.name.clone(),
                        })
                    })
                    .collect::<Result<Vec<_>, QueryError>>()?,
            },
            PlanNode::Set { op, left, right } => PlanNode::Set {
                op: *op,
                left: Box::new(left.bind_params(params)?),
                right: Box::new(right.bind_params(params)?),
            },
        })
    }

    /// Number of nodes (for tests / EXPLAIN).
    pub fn size(&self) -> usize {
        match self {
            PlanNode::Scan(_) => 1,
            PlanNode::Sort { child, .. } | PlanNode::Limit { child, .. } => 1 + child.size(),
            PlanNode::Aggregate { child, .. } => 1 + child.size(),
            PlanNode::Set { left, right, .. } => 1 + left.size() + right.size(),
        }
    }

    /// EXPLAIN-style rendering.
    pub fn explain(&self, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        match self {
            PlanNode::Scan(s) => {
                out.push_str(&format!(
                    "{pad}Scan[{}] domain={} predicate={} cols={} sample={:?}\n",
                    s.source.label(),
                    s.domain.is_some(),
                    s.predicate.is_some(),
                    s.columns.len(),
                    s.sample,
                ));
            }
            PlanNode::Sort { child, key, desc } => {
                out.push_str(&format!("{pad}Sort key={key} desc={desc}\n"));
                child.explain(indent + 1, out);
            }
            PlanNode::Limit { child, n } => {
                out.push_str(&format!("{pad}Limit {n}\n"));
                child.explain(indent + 1, out);
            }
            PlanNode::Aggregate { child, aggs } => {
                out.push_str(&format!("{pad}Aggregate {} fns\n", aggs.len()));
                child.explain(indent + 1, out);
            }
            PlanNode::Set { op, left, right } => {
                out.push_str(&format!("{pad}Set {op:?}\n"));
                left.explain(indent + 1, out);
                right.explain(indent + 1, out);
            }
        }
    }
}

/// A complete plan.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    pub root: PlanNode,
    /// Number of `$N` parameters the plan expects per execution.
    pub n_params: usize,
    /// Materialization target: `Some(name)` when the statement ends in
    /// `INTO <name>` — execution folds the result into a named session
    /// set instead of streaming it back.
    pub into: Option<String>,
}

impl QueryPlan {
    pub fn explain(&self) -> String {
        let mut s = String::new();
        if let Some(name) = &self.into {
            s.push_str(&format!("Into[{name}]\n"));
        }
        self.root.explain(0, &mut s);
        s
    }

    /// Attach a statement-level (trailing) `INTO` target, validating it
    /// the same way a select-level one is validated at plan time.
    pub fn set_into(&mut self, name: String) -> Result<(), QueryError> {
        if self.into.is_some() {
            return Err(QueryError::Type(
                "INTO given twice (select-level and statement-level)".to_string(),
            ));
        }
        validate_into(&name, &self.root)?;
        self.into = Some(name);
        Ok(())
    }
}

/// The column an `INTO` materialization treats as the object pointer:
/// `objid`, or — for MATCH sources, whose natural projections are
/// qualified — `a.objid` / `b.objid` (first present wins). Also used by
/// the session writer sink to locate the pointer at fold time.
pub fn pointer_column(columns: &[String]) -> Option<usize> {
    ["objid", "a.objid", "b.objid"]
        .iter()
        .find_map(|want| columns.iter().position(|c| c == want))
}

/// INTO targets must be legal set names and the materialized rows must
/// carry the object pointer (a stored set is a bag of tagged objects).
fn validate_into(name: &str, root: &PlanNode) -> Result<(), QueryError> {
    if name == "photoobj" || name == "tag" {
        return Err(QueryError::Type(format!(
            "INTO {name}: the base catalog names are reserved"
        )));
    }
    if pointer_column(&root.columns()).is_none() {
        return Err(QueryError::Type(
            "INTO requires objid (or a.objid / b.objid for MATCH) in the \
             select list (stored sets are bags of object pointers)"
                .to_string(),
        ));
    }
    Ok(())
}

/// Compile a parsed query into a QET.
///
/// `tags_available` controls routing: without a tag store every scan goes
/// to the full store.
pub fn plan(query: &Query, tags_available: bool) -> Result<QueryPlan, QueryError> {
    PLANS_BUILT.fetch_add(1, Ordering::Relaxed);
    // Select-level INTO is only meaningful on a top-level plain SELECT;
    // inside a set-operation branch it would be ambiguous about which
    // rows materialize (use the trailing statement form for those).
    let into = match query {
        Query::Select(s) => s.into.clone(),
        Query::SetOp(..) => {
            if query.selects().iter().any(|s| s.into.is_some()) {
                return Err(QueryError::Type(
                    "INTO inside a set-operation branch; put it at the end \
                     of the statement: (..) UNION (..) INTO name"
                        .to_string(),
                ));
            }
            None
        }
    };
    let root = plan_query(query, tags_available)?;
    if let Some(name) = &into {
        validate_into(name, &root)?;
    }
    let n_params = root.max_param();
    Ok(QueryPlan {
        root,
        n_params,
        into,
    })
}

fn plan_query(query: &Query, tags_available: bool) -> Result<PlanNode, QueryError> {
    match query {
        Query::Select(s) => plan_select(s, tags_available),
        Query::SetOp(op, l, r) => {
            let left = plan_query(l, tags_available)?;
            let right = plan_query(r, tags_available)?;
            // Set inputs must expose objid to key on.
            for side in [&left, &right] {
                if !side.columns().iter().any(|c| c == "objid") {
                    return Err(QueryError::Type(
                        "set operations require objid in the select list".to_string(),
                    ));
                }
            }
            if left.columns() != right.columns() {
                return Err(QueryError::Type(
                    "set operation sides must select the same columns".to_string(),
                ));
            }
            Ok(PlanNode::Set {
                op: *op,
                left: Box::new(left),
                right: Box::new(right),
            })
        }
    }
}

fn plan_select(s: &SelectStmt, tags_available: bool) -> Result<PlanNode, QueryError> {
    // Resolve the FROM clause. A MATCH source names two inputs (archive
    // or stored set); any other table name besides the two base catalogs
    // is a stored-set reference, resolved against the session workspace
    // at prepare time.
    let match_spec: Option<MatchSpec> = match &s.table {
        TableSource::Match {
            a,
            b,
            radius_arcsec,
        } => {
            let resolve = |n: &str| {
                if n == "photoobj" || n == "tag" {
                    MatchInput::Archive
                } else {
                    MatchInput::Set(n.to_string())
                }
            };
            let (ma, mb) = (resolve(a), resolve(b));
            if !tags_available && (ma == MatchInput::Archive || mb == MatchInput::Archive) {
                return Err(QueryError::Type(
                    "MATCH against the archive requires the tag store".to_string(),
                ));
            }
            Some(MatchSpec {
                a: ma,
                b: mb,
                radius_arcsec: *radius_arcsec,
            })
        }
        TableSource::Named(_) => None,
    };
    let table_name = s.table.named().unwrap_or("MATCH");
    let set_source = match_spec.is_none() && table_name != "photoobj" && table_name != "tag";

    // --- split the predicate into spatial conjuncts and the residual ---
    // Stored sets have no HTM container clustering to cover, so their
    // spatial factors stay in the residual predicate and evaluate
    // row-wise (compiled `SpatialMask` on the columnar path, geometry in
    // the interpreter otherwise). MATCH pair predicates are inherently
    // row-wise too: the join itself is the spatial restriction.
    let (domain, residual) = match &s.predicate {
        Some(p) if !set_source && match_spec.is_none() => extract_spatial(p)?,
        Some(p) => (None, Some(p.clone())),
        None => (None, None),
    };
    let residual = residual.map(|mut e| {
        e.normalize_function_names();
        e
    });

    // --- projection ---
    // The plan owns its expressions (cloned out of the AST once, here);
    // function names normalize to their canonical spelling at the same
    // time so row-at-a-time evaluation never case-folds.
    let mut columns: Vec<(String, Expr)> = Vec::new();
    let mut aggs: Vec<AggSpec> = Vec::new();
    for item in &s.items {
        match item {
            SelectItem::Star => {
                if match_spec.is_some() {
                    return Err(QueryError::Type(
                        "SELECT * is ambiguous over a MATCH source; project \
                         a.<attr> / b.<attr> explicitly"
                            .to_string(),
                    ));
                }
                for a in TAG_ATTRS {
                    columns.push((a.to_string(), Expr::Attr(a.to_string())));
                }
            }
            SelectItem::Expr { expr, name } => {
                let mut expr = expr.clone();
                expr.normalize_function_names();
                columns.push((name.clone(), expr));
            }
            SelectItem::Agg { func, arg, name } => aggs.push(AggSpec {
                func: *func,
                arg: arg.clone().map(|mut e| {
                    e.normalize_function_names();
                    e
                }),
                name: name.clone(),
            }),
        }
    }
    if !aggs.is_empty() && !columns.is_empty() {
        return Err(QueryError::Type(
            "mixing aggregates and plain columns needs GROUP BY, which is not supported"
                .to_string(),
        ));
    }

    // --- collect every referenced attribute for routing & validation ---
    // (borrowed &str names: no per-attribute String clones at plan time)
    let mut attrs: Vec<&str> = Vec::new();
    for (_, e) in &columns {
        e.attrs_ref(&mut attrs);
    }
    for a in &aggs {
        if let Some(e) = &a.arg {
            e.attrs_ref(&mut attrs);
        }
    }
    if let Some(p) = &residual {
        p.attrs_ref(&mut attrs);
    }
    // Order key must be an output column, not a table attribute. The
    // match is case-insensitive (identifiers are, everywhere else in
    // the language) and canonicalizes to the projected column's actual
    // name so execution's by-name key lookup always hits.
    let order_by = match &s.order_by {
        Some((key, desc)) => {
            let canonical = columns
                .iter()
                .map(|(n, _)| n)
                .chain(aggs.iter().map(|a| &a.name))
                .find(|n| n.eq_ignore_ascii_case(key));
            match canonical {
                Some(name) => Some((name.clone(), *desc)),
                None => return Err(QueryError::Unknown(format!("ORDER BY column {key}"))),
            }
        }
        None => None,
    };
    if match_spec.is_some() {
        // MATCH rows are pairs: every attribute must be qualified to a
        // join side (and name a tag attribute — both inputs are
        // tag-shaped) or be the separation pseudo-column.
        for a in &attrs {
            let ok = *a == "sep_arcsec"
                || a.strip_prefix("a.")
                    .or_else(|| a.strip_prefix("b."))
                    .is_some_and(|base| TAG_ATTRS.contains(&base));
            if !ok {
                return Err(QueryError::Unknown(format!(
                    "attribute {a} in a MATCH query (project a.<tag attr>, \
                     b.<tag attr> or sep_arcsec)"
                )));
            }
        }
        // Spatial predicates and implicit-attribute functions (DIST,
        // FRAMELAT, COLORDIST, ...) are as ambiguous over a pair as an
        // unqualified attribute: they would silently bind one side
        // only (or error per pair), so they are rejected rather than
        // mis-answered.
        fn no_rowwise_geometry(e: &Expr) -> Result<(), QueryError> {
            match e {
                Expr::Spatial(_) => Err(QueryError::Type(
                    "spatial predicates are ambiguous over a MATCH source \
                     (restrict the inputs before joining, or filter on \
                     a./b. attributes and sep_arcsec)"
                        .to_string(),
                )),
                Expr::Unary(_, a) => no_rowwise_geometry(a),
                Expr::Bin(_, a, b) => {
                    no_rowwise_geometry(a)?;
                    no_rowwise_geometry(b)
                }
                Expr::Between(a, b, c) => {
                    no_rowwise_geometry(a)?;
                    no_rowwise_geometry(b)?;
                    no_rowwise_geometry(c)
                }
                Expr::Call(name, args) => {
                    if crate::ops::function_reads_implicit_attrs(name) {
                        return Err(QueryError::Type(format!(
                            "{name} reads unqualified row attributes and is \
                             ambiguous over a MATCH source"
                        )));
                    }
                    args.iter().try_for_each(no_rowwise_geometry)
                }
                Expr::Attr(_) | Expr::Lit(_) | Expr::Param(_) => Ok(()),
            }
        }
        if let Some(p) = &residual {
            no_rowwise_geometry(p)?;
        }
        for (_, e) in &columns {
            no_rowwise_geometry(e)?;
        }
        for a in &aggs {
            if let Some(e) = &a.arg {
                no_rowwise_geometry(e)?;
            }
        }
        validate_functions(&columns, &aggs, &residual)?;
    } else {
        validate_names(&attrs, &columns, &aggs, &residual)?;
    }

    let force_tag = table_name == "tag";
    let tag_ok = attrs.iter().all(|a| TAG_ATTRS.contains(a));
    if (force_tag || set_source) && !tag_ok && match_spec.is_none() {
        return Err(QueryError::Type(format!(
            "query against `{table_name}` uses attributes outside the tag record"
        )));
    }
    let source = if let Some(m) = match_spec {
        QuerySource::Match(m)
    } else if set_source {
        QuerySource::Set(table_name.to_string())
    } else if (force_tag || tag_ok) && tags_available {
        QuerySource::Tag
    } else {
        QuerySource::Full
    };

    let mut node = PlanNode::Scan(ScanSpec {
        source,
        domain,
        predicate: residual,
        columns,
        sample: s.sample,
    });

    if !aggs.is_empty() {
        node = PlanNode::Aggregate {
            child: Box::new(node),
            aggs,
        };
    }
    if let Some((key, desc)) = order_by {
        node = PlanNode::Sort {
            child: Box::new(node),
            key,
            desc,
        };
    }
    if let Some(n) = s.limit {
        node = PlanNode::Limit {
            child: Box::new(node),
            n,
        };
    }
    Ok(node)
}

/// Validate attribute and function names against the full schema.
fn validate_names(
    attrs: &[&str],
    columns: &[(String, Expr)],
    aggs: &[AggSpec],
    residual: &Option<Expr>,
) -> Result<(), QueryError> {
    for a in attrs {
        if !FULL_ATTRS.contains(a) {
            return Err(QueryError::Unknown(format!("attribute {a}")));
        }
    }
    validate_functions(columns, aggs, residual)
}

/// Check function names/arities recursively across every expression of
/// the select (shared by named-table and MATCH validation — MATCH does
/// its own attribute checks but functions resolve identically).
fn validate_functions(
    columns: &[(String, Expr)],
    aggs: &[AggSpec],
    residual: &Option<Expr>,
) -> Result<(), QueryError> {
    fn check(e: &Expr) -> Result<(), QueryError> {
        match e {
            Expr::Call(name, args) => {
                match function_arity(name) {
                    Some(n) if n == args.len() => {}
                    Some(n) => {
                        return Err(QueryError::Type(format!(
                            "{name} takes {n} arguments, got {}",
                            args.len()
                        )))
                    }
                    None => return Err(QueryError::Unknown(format!("function {name}"))),
                }
                for a in args {
                    check(a)?;
                }
                Ok(())
            }
            Expr::Unary(_, a) => check(a),
            Expr::Bin(_, a, b) => {
                check(a)?;
                check(b)
            }
            Expr::Between(a, b, c) => {
                check(a)?;
                check(b)?;
                check(c)
            }
            _ => Ok(()),
        }
    }
    for (_, e) in columns {
        check(e)?;
    }
    for a in aggs {
        if let Some(e) = &a.arg {
            check(e)?;
        }
    }
    if let Some(e) = residual {
        check(e)?;
    }
    Ok(())
}

/// Pull top-level conjunctive spatial factors out of a predicate.
/// Returns (combined domain, residual predicate).
fn extract_spatial(pred: &Expr) -> Result<(Option<Domain>, Option<Expr>), QueryError> {
    let mut factors = Vec::new();
    let mut residual = Vec::new();
    split_conjuncts(pred, &mut factors);
    let mut domain: Option<Domain> = None;
    for f in factors {
        match f {
            Expr::Spatial(sp) => {
                let d = spatial_to_domain(&sp)?;
                domain = Some(match domain {
                    None => d,
                    Some(prev) => prev.intersect(&d),
                });
            }
            other => residual.push(other),
        }
    }
    let residual = residual
        .into_iter()
        .reduce(|a, b| Expr::Bin(crate::ast::BinOp::And, Box::new(a), Box::new(b)));
    Ok((domain, residual))
}

fn split_conjuncts(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Bin(crate::ast::BinOp::And, a, b) => {
            split_conjuncts(a, out);
            split_conjuncts(b, out);
        }
        other => out.push(other.clone()),
    }
}

/// Compile a spatial predicate to an HTM domain.
pub fn spatial_to_domain(sp: &SpatialPred) -> Result<Domain, QueryError> {
    match sp {
        SpatialPred::Circle { ra, dec, radius } => Ok(Region::circle(*ra, *dec, *radius)?),
        SpatialPred::Rect {
            ra_lo,
            ra_hi,
            dec_lo,
            dec_hi,
        } => Ok(Region::rect(*ra_lo, *ra_hi, *dec_lo, *dec_hi)?),
        SpatialPred::Band {
            frame,
            lat_lo,
            lat_hi,
        } => {
            let f = crate::ops::parse_frame(frame)?;
            Ok(Region::band(f, *lat_lo, *lat_hi)?)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn plan_sql(sql: &str) -> Result<QueryPlan, QueryError> {
        plan(&parse(sql)?, true)
    }

    #[test]
    fn tag_routing_for_popular_attributes() {
        let p = plan_sql("SELECT ra, dec, r FROM photoobj WHERE r < 20").unwrap();
        match &p.root {
            PlanNode::Scan(s) => assert_eq!(s.source, QuerySource::Tag),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn full_routing_when_rare_attribute_used() {
        let p = plan_sql("SELECT ra, psf_r FROM photoobj WHERE r < 20").unwrap();
        match &p.root {
            PlanNode::Scan(s) => assert_eq!(s.source, QuerySource::Full),
            other => panic!("{other:?}"),
        }
        // ... even if only the predicate needs it.
        let p = plan_sql("SELECT ra FROM photoobj WHERE mjd > 51000").unwrap();
        match &p.root {
            PlanNode::Scan(s) => assert_eq!(s.source, QuerySource::Full),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn no_tag_store_forces_full() {
        let p = plan(&parse("SELECT ra FROM photoobj").unwrap(), false).unwrap();
        match &p.root {
            PlanNode::Scan(s) => assert_eq!(s.source, QuerySource::Full),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stored_set_sources_resolve_and_keep_spatial_rowwise() {
        // An unknown table name is a stored-set reference; its spatial
        // factors stay in the residual (sets have no cover to extract).
        let p =
            plan_sql("SELECT objid, r FROM bright WHERE CIRCLE(185, 15, 1) AND r < 20").unwrap();
        match &p.root {
            PlanNode::Scan(s) => {
                assert_eq!(s.source, QuerySource::Set("bright".to_string()));
                assert!(s.domain.is_none(), "sets never get a cover domain");
                let pred = s.predicate.as_ref().expect("whole predicate kept");
                let mut spatial = false;
                fn walk(e: &Expr, found: &mut bool) {
                    match e {
                        Expr::Spatial(_) => *found = true,
                        Expr::Bin(_, a, b) => {
                            walk(a, found);
                            walk(b, found);
                        }
                        _ => {}
                    }
                }
                walk(pred, &mut spatial);
                assert!(spatial, "spatial factor must stay in the residual");
            }
            other => panic!("{other:?}"),
        }
        // Sets are tag-shaped: full-object attributes are rejected.
        assert!(matches!(
            plan_sql("SELECT psf_r FROM bright"),
            Err(QueryError::Type(_))
        ));
        assert!(p.explain().contains("set:bright"));
    }

    #[test]
    fn into_validation() {
        // Select-level INTO needs objid.
        assert!(matches!(
            plan_sql("SELECT ra INTO s FROM photoobj"),
            Err(QueryError::Type(_))
        ));
        let p = plan_sql("SELECT objid, ra INTO s FROM photoobj").unwrap();
        assert_eq!(p.into.as_deref(), Some("s"));
        assert!(p.explain().contains("Into[s]"));
        // Reserved names are rejected.
        assert!(plan_sql("SELECT objid INTO photoobj FROM tag").is_err());
        // INTO buried in a set-op branch is rejected with a pointer to
        // the trailing statement form.
        assert!(
            plan_sql("(SELECT objid INTO s FROM photoobj) UNION (SELECT objid FROM photoobj)")
                .is_err()
        );
        // The trailing form attaches via set_into, once.
        let mut p =
            plan_sql("(SELECT objid FROM photoobj) UNION (SELECT objid FROM photoobj)").unwrap();
        p.set_into("merged".to_string()).unwrap();
        assert_eq!(p.into.as_deref(), Some("merged"));
        assert!(p.set_into("again".to_string()).is_err());
    }

    #[test]
    fn spatial_extraction_removes_factors() {
        let p = plan_sql(
            "SELECT ra FROM photoobj WHERE CIRCLE(185, 15, 2) AND r < 21 AND BAND('GALACTIC', 30, 90)",
        )
        .unwrap();
        match &p.root {
            PlanNode::Scan(s) => {
                let d = s.domain.as_ref().expect("domain extracted");
                // Two intersected spatial factors → intersected domain.
                assert!(!d.convexes().is_empty());
                // The residual predicate only holds r < 21.
                let mut attrs = Vec::new();
                s.predicate.as_ref().unwrap().attrs(&mut attrs);
                assert_eq!(attrs, vec!["r".to_string()]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn spatial_inside_or_stays_in_predicate() {
        // OR-ed spatial factors cannot be extracted conjunctively.
        let p = plan_sql("SELECT ra FROM photoobj WHERE CIRCLE(185, 15, 1) OR r < 15").unwrap();
        match &p.root {
            PlanNode::Scan(s) => {
                assert!(s.domain.is_none());
                assert!(s.predicate.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn node_stacking_order() {
        let p = plan_sql("SELECT ra, r FROM photoobj WHERE r < 21 ORDER BY r LIMIT 5").unwrap();
        // Limit on top of Sort on top of Scan.
        match &p.root {
            PlanNode::Limit { child, n } => {
                assert_eq!(*n, 5);
                match child.as_ref() {
                    PlanNode::Sort { child, key, desc } => {
                        assert_eq!(key, "r");
                        assert!(!desc);
                        assert!(matches!(child.as_ref(), PlanNode::Scan(_)));
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(p.root.size(), 3);
        assert!(p.explain().contains("Limit 5"));
    }

    #[test]
    fn set_ops_need_objid_and_same_columns() {
        assert!(
            plan_sql("(SELECT objid FROM photoobj) UNION (SELECT objid FROM photoobj)").is_ok()
        );
        assert!(plan_sql("(SELECT ra FROM photoobj) UNION (SELECT ra FROM photoobj)").is_err());
        assert!(plan_sql(
            "(SELECT objid, ra FROM photoobj) UNION (SELECT objid, dec FROM photoobj)"
        )
        .is_err());
    }

    #[test]
    fn aggregates_cannot_mix_with_columns() {
        assert!(plan_sql("SELECT COUNT(*), ra FROM photoobj").is_err());
        assert!(plan_sql("SELECT COUNT(*), MAX(r) FROM photoobj").is_ok());
    }

    #[test]
    fn unknown_names_rejected_at_plan_time() {
        assert!(matches!(
            plan_sql("SELECT nonsense FROM photoobj"),
            Err(QueryError::Unknown(_))
        ));
        assert!(matches!(
            plan_sql("SELECT NOSUCHFN(1) FROM photoobj"),
            Err(QueryError::Unknown(_))
        ));
        assert!(matches!(
            plan_sql("SELECT DIST(1) FROM photoobj"),
            Err(QueryError::Type(_))
        ));
        // A non-catalog table name is now a stored-set reference: it
        // plans fine (tag-shaped) and resolution happens at prepare
        // time against the session workspace.
        assert!(plan_sql("SELECT ra FROM spectra").is_ok());
        assert!(matches!(
            plan_sql("SELECT ra FROM photoobj ORDER BY qqq"),
            Err(QueryError::Unknown(_))
        ));
    }

    #[test]
    fn tag_table_rejects_full_attrs() {
        assert!(plan_sql("SELECT psf_r FROM tag").is_err());
        assert!(plan_sql("SELECT r FROM tag").is_ok());
    }

    #[test]
    fn star_expands_to_tag_attrs() {
        let p = plan_sql("SELECT * FROM photoobj").unwrap();
        assert_eq!(p.root.columns().len(), TAG_ATTRS.len());
    }
}
