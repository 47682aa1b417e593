//! Multi-accelerator fleet: deterministic shard placement, scatter/gather
//! execution, and epoch-fenced replica failover.
//!
//! The fleet generalizes the paper's single DB2 + accelerator pairing to K
//! accelerator nodes, each behind its own metered [`NetLink`] and seeded
//! [`FaultRegistry`]. The single accelerator is a fleet of one node: it
//! enlists, exchanges statements and runs two-phase commit through the same
//! node-generic code as every larger fleet. In a larger fleet,
//! accelerator-only tables created `IN ACCELERATOR` are hash-sharded across
//! the fleet (physical tables `T__S0 .. T__S{N-1}`), with every shard placed
//! on `replication_factor` consecutive nodes. Queries scatter to the owning
//! shards in ascending shard order and merge at the coordinator, so any
//! fleet size reproduces the single-accelerator answer modulo float
//! summation order. When a shard's primary is crashed or Offline, the gather
//! fails over to the next replica (protected by the epoch-fenced
//! [`SeqTracker`] exactly-once exchange every node uses), the lagging node
//! re-joins via a metered catch-up copy, and a
//! rebalance check on the virtual clock migrates shards back to their
//! preferred owners. Shard placement, gather order, and failover order are
//! all deterministic, so a given seed replays byte-identical `LinkMetrics`
//! and traces.

use crate::health::{HealthMonitor, HealthState, SeqTracker};
use crate::idaa::{Idaa, IdaaConfig, ReplyPayload};
use crate::replication::Replicator;
use crate::session::Session;
use idaa_accel::{AccelEngine, RestartStats};
use idaa_common::trace::Trace;
use idaa_common::{wire, Error, ObjectName, Result, Row, Rows, Schema, Value};
use idaa_host::TxnId;
use idaa_netsim::{sites, Direction, FaultRegistry, LinkMetrics, NetLink};
use idaa_sql::ast::{BinaryOp, Expr, JoinKind, OrderByItem, Query, SelectItem, TableRef};
use idaa_sql::plan::split_conjuncts;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Fleet topology: how many accelerators, how AOTs shard across them, and
/// when a failed-over shard migrates back to its preferred owner.
///
/// The default (one accelerator, one shard, replication factor one) is the
/// paper's single-accelerator pairing: a fleet of one node whose
/// accelerator-only tables are not sharded.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of accelerator nodes (K). Each gets its own metered link,
    /// fault registry, health monitor, and replication stream.
    pub accelerators: usize,
    /// Number of hash shards (N) for accelerator-only tables.
    pub shards: usize,
    /// Copies of every shard (clamped to `1..=accelerators`). Shard `s`
    /// lives on nodes `(s + r) % K` for `r in 0..replication_factor`.
    pub replication_factor: usize,
    /// Virtual-clock delay after a failover before the shard migrates back
    /// to its preferred (recovered) owner.
    pub rebalance_after: Duration,
    /// Ship a build-side key summary (Bloom filter + min/max) with the
    /// scatter request of an inner equi-join against a sharded probe table,
    /// so each shard pre-filters its reply before encoding. The summary is
    /// false-positive-only, so the merged answer is byte-identical with the
    /// knob off — only gather traffic changes.
    pub join_pushdown: bool,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            accelerators: 1,
            shards: 1,
            replication_factor: 1,
            rebalance_after: Duration::from_millis(20),
            join_pushdown: true,
        }
    }
}

// ---------------------------------------------------------------------------
// Per-node state
// ---------------------------------------------------------------------------

/// One accelerator node: the engine plus everything the coordinator tracks
/// per peer — its metered link, seeded fault registry, health machine,
/// epoch-fenced delivery tracker, replication stream, and queued phase-2
/// commit decisions.
pub struct AccelNode {
    /// Position in the fleet (0-based; node 0 holds the unsharded tables).
    pub(crate) id: usize,
    /// The accelerator engine itself.
    pub(crate) engine: Arc<AccelEngine>,
    /// This node's host↔accelerator link. Every byte to or from the node is
    /// metered here.
    pub(crate) link: Arc<NetLink>,
    /// This node's seeded fault/crash registry.
    pub(crate) registry: Arc<FaultRegistry>,
    /// Circuit breaker for this node's link.
    pub(crate) health: HealthMonitor,
    /// Exactly-once statement delivery, fenced by this node's recovery epoch.
    pub(crate) delivered: SeqTracker,
    /// Replication stream shipping committed host changes to this node.
    pub(crate) replicator: Mutex<Replicator>,
    /// Phase-2 COMMIT decisions that could not be delivered; flushed on
    /// reconnect.
    pub(crate) pending_commits: Mutex<Vec<TxnId>>,
    /// Stats from this node's most recent crash restart.
    pub(crate) last_restart: Mutex<Option<RestartStats>>,
    /// Set when the node's durable state failed validation beyond local
    /// repair and a full rebuild (fresh media + re-ship from the host /
    /// replicas) is in progress. A rebuild that fails part-way leaves the
    /// flag set, so the next recovery probe resumes it instead of booting
    /// an empty engine.
    pub(crate) needs_rebuild: std::sync::atomic::AtomicBool,
    /// Completed storage rebuilds of this node (diagnostics + traces).
    pub(crate) rebuilds: AtomicU64,
}

impl AccelNode {
    pub(crate) fn new(id: usize, config: &IdaaConfig, registry: Arc<FaultRegistry>) -> Arc<AccelNode> {
        let engine = Arc::new(AccelEngine::new(&config.default_schema, config.accel.clone()));
        engine.set_identity(&format!("ACCEL{}", id + 1));
        engine.set_fault_registry(registry.clone());
        let node = AccelNode {
            id,
            engine,
            link: Arc::new(NetLink::new(config.link.clone())),
            registry,
            health: HealthMonitor::new(config.health.clone()),
            delivered: SeqTracker::default(),
            replicator: Mutex::new(Replicator::new(config.replication_batch, config.retry)),
            pending_commits: Mutex::new(Vec::new()),
            last_restart: Mutex::new(None),
            needs_rebuild: std::sync::atomic::AtomicBool::new(false),
            rebuilds: AtomicU64::new(0),
        };
        node.delivered.reset(node.engine.epoch());
        Arc::new(node)
    }
}

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

/// FNV-1a over the value's canonical debug rendering. Stable across runs and
/// platforms, so shard placement is deterministic per value.
pub fn shard_of(value: &Value, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{value:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// Physical per-shard table name: `SCHEMA.NAME__S{shard}`.
pub fn shard_table(table: &ObjectName, shard: usize) -> ObjectName {
    ObjectName { schema: table.schema.clone(), name: format!("{}__S{shard}", table.name) }
}

/// Coordinator-side fleet bookkeeping: current primaries, failover history,
/// nodes awaiting catch-up, per-transaction enlistment, and which logical
/// tables are sharded.
pub(crate) struct FleetState {
    accelerators: usize,
    pub(crate) shards: usize,
    replicas: usize,
    rebalance_after: Duration,
    current_primary: Mutex<Vec<usize>>,
    failed_over_at: Mutex<Vec<Option<Duration>>>,
    catch_up: Mutex<BTreeSet<usize>>,
    enlisted: Mutex<HashMap<TxnId, BTreeSet<usize>>>,
    sharded: Mutex<BTreeSet<ObjectName>>,
    failovers: AtomicU64,
    rebalances: AtomicU64,
    catch_up_bytes: AtomicU64,
}

impl FleetState {
    pub(crate) fn new(config: &FleetConfig) -> FleetState {
        let accelerators = config.accelerators.max(1);
        let shards = config.shards.max(1);
        let replicas = config.replication_factor.clamp(1, accelerators);
        FleetState {
            accelerators,
            shards,
            replicas,
            rebalance_after: config.rebalance_after,
            current_primary: Mutex::new((0..shards).map(|s| s % accelerators).collect()),
            failed_over_at: Mutex::new(vec![None; shards]),
            catch_up: Mutex::new(BTreeSet::new()),
            enlisted: Mutex::new(HashMap::new()),
            sharded: Mutex::new(BTreeSet::new()),
            failovers: AtomicU64::new(0),
            rebalances: AtomicU64::new(0),
            catch_up_bytes: AtomicU64::new(0),
        }
    }

    /// Nodes owning `shard`, preferred owner first.
    pub(crate) fn owners(&self, shard: usize) -> Vec<usize> {
        (0..self.replicas).map(|r| (shard + r) % self.accelerators).collect()
    }

    pub(crate) fn primary_of(&self, shard: usize) -> usize {
        self.current_primary.lock()[shard]
    }

    pub(crate) fn record_failover(&self, shard: usize, to: usize, now: Duration) {
        let mut primaries = self.current_primary.lock();
        primaries[shard] = to;
        let preferred = self.owners(shard)[0];
        self.failed_over_at.lock()[shard] = if to == preferred { None } else { Some(now) };
        self.failovers.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn failed_over_time(&self, shard: usize) -> Option<Duration> {
        self.failed_over_at.lock()[shard]
    }

    pub(crate) fn set_primary(&self, shard: usize, node: usize) {
        self.current_primary.lock()[shard] = node;
        self.failed_over_at.lock()[shard] = None;
    }

    pub(crate) fn mark_catch_up(&self, node: usize) {
        self.catch_up.lock().insert(node);
    }

    pub(crate) fn needs_catch_up(&self, node: usize) -> bool {
        self.catch_up.lock().contains(&node)
    }

    pub(crate) fn clear_catch_up(&self, node: usize) {
        self.catch_up.lock().remove(&node);
    }

    pub(crate) fn enlist(&self, txn: TxnId, node: usize) {
        self.enlisted.lock().entry(txn).or_default().insert(node);
    }

    pub(crate) fn is_enlisted(&self, txn: TxnId, node: usize) -> bool {
        self.enlisted.lock().get(&txn).is_some_and(|s| s.contains(&node))
    }

    /// Remove and return the nodes enlisted in `txn`, in ascending id order.
    pub(crate) fn take_enlisted(&self, txn: TxnId) -> Vec<usize> {
        self.enlisted.lock().remove(&txn).map(|s| s.into_iter().collect()).unwrap_or_default()
    }

    pub(crate) fn add_sharded(&self, table: ObjectName) {
        self.sharded.lock().insert(table);
    }

    /// Remove `table` from the sharded set; true if it was sharded.
    pub(crate) fn remove_sharded(&self, table: &ObjectName) -> bool {
        self.sharded.lock().remove(table)
    }

    pub(crate) fn is_sharded(&self, table: &ObjectName) -> bool {
        self.sharded.lock().contains(table)
    }

    pub(crate) fn sharded_tables(&self) -> Vec<ObjectName> {
        self.sharded.lock().iter().cloned().collect()
    }

    pub(crate) fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    pub(crate) fn rebalances(&self) -> u64 {
        self.rebalances.load(Ordering::Relaxed)
    }

    pub(crate) fn note_rebalance(&self) {
        self.rebalances.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_catch_up_bytes(&self, bytes: u64) {
        self.catch_up_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn catch_up_bytes(&self) -> u64 {
        self.catch_up_bytes.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Scatter planning
// ---------------------------------------------------------------------------

/// Name of the coordinator-local staging table gathered partials land in.
const GATHER: &str = "__GATHER";

/// How a query over one sharded table executes across the fleet.
pub(crate) enum ScatterPlan {
    /// Run `partial` on every shard, gather the partial rows into a staging
    /// table, and run `merge` over it at the coordinator. Covers mergeable
    /// aggregation (COUNT/SUM/MIN/MAX re-aggregate) and top-K (per-shard
    /// ORDER BY + LIMIT, re-sorted and re-limited at the coordinator).
    TwoPhase { partial: Box<Query>, merge: Box<Query> },
    /// Gather raw shard rows and run the original query at the coordinator.
    Raw,
}

fn col(name: impl Into<String>) -> Expr {
    Expr::Column { qualifier: None, name: name.into() }
}

fn item(expr: Expr, alias: String) -> SelectItem {
    SelectItem::Expr { expr, alias: Some(alias) }
}

/// The output column name `plan_query` would derive for projection item `i`:
/// the alias if present, a bare column's own name, else `C{i+1}`.
fn output_name(expr: &Expr, alias: &Option<String>, i: usize) -> String {
    if let Some(a) = alias {
        return a.clone();
    }
    if let Expr::Column { name, .. } = expr {
        return name.clone();
    }
    format!("C{}", i + 1)
}

/// True for `ORDER BY <integer literal>` positional references.
fn is_ordinal(expr: &Expr) -> bool {
    matches!(expr, Expr::Literal(Value::SmallInt(_) | Value::Int(_) | Value::BigInt(_)))
}

/// The merge-side aggregate that re-aggregates partials of `expr`, if the
/// aggregate is mergeable (partial COUNTs re-aggregate by summation; AVG,
/// STDDEV, VARIANCE, and DISTINCT aggregates are not decomposable without
/// changing float summation order, so they gather raw rows instead).
fn merge_fn_of(expr: &Expr) -> Option<&'static str> {
    let Expr::Function { name, args, distinct } = expr else { return None };
    if *distinct || args.iter().any(Expr::contains_aggregate) {
        return None;
    }
    match name.as_str() {
        "COUNT" | "SUM" => Some("SUM"),
        "MIN" => Some("MIN"),
        "MAX" => Some("MAX"),
        _ => None,
    }
}

/// Collect every aggregate call in `expr` into `out` (structurally deduped).
/// Returns false if a non-mergeable aggregate is found.
fn collect_aggregates(expr: &Expr, out: &mut Vec<Expr>) -> bool {
    if let Expr::Function { name, .. } = expr {
        if idaa_sql::ast::is_aggregate_name(name) {
            if merge_fn_of(expr).is_none() {
                return false;
            }
            if !out.contains(expr) {
                out.push(expr.clone());
            }
            return true;
        }
    }
    match expr {
        Expr::Binary { left, right, .. } => {
            collect_aggregates(left, out) && collect_aggregates(right, out)
        }
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
            collect_aggregates(expr, out)
        }
        Expr::Function { args, .. } => args.iter().all(|a| collect_aggregates(a, out)),
        Expr::InList { expr, list, .. } => {
            collect_aggregates(expr, out) && list.iter().all(|e| collect_aggregates(e, out))
        }
        Expr::Between { expr, low, high, .. } => {
            collect_aggregates(expr, out)
                && collect_aggregates(low, out)
                && collect_aggregates(high, out)
        }
        Expr::Like { expr, pattern, .. } => {
            collect_aggregates(expr, out) && collect_aggregates(pattern, out)
        }
        Expr::Case { operand, branches, else_result } => {
            operand.as_deref().map(|e| collect_aggregates(e, out)).unwrap_or(true)
                && branches
                    .iter()
                    .all(|(w, t)| collect_aggregates(w, out) && collect_aggregates(t, out))
                && else_result.as_deref().map(|e| collect_aggregates(e, out)).unwrap_or(true)
        }
        _ => true,
    }
}

/// The partial-result components a two-phase aggregate ships per shard:
/// the group expressions (aliased `C0..C{G-1}`) followed by the deduped
/// aggregates (aliased `C{G}..`).
struct Components {
    groups: Vec<Expr>,
    aggs: Vec<Expr>,
}

/// Rewrite `expr` for the merge query: group expressions become references to
/// their partial column, aggregates become their merge aggregate over the
/// partial column, and scalar structure is preserved. None if the expression
/// mixes in anything that cannot be reconstructed from the partials.
fn rewrite(expr: &Expr, comp: &Components) -> Option<Expr> {
    if let Some(i) = comp.groups.iter().position(|g| g == expr) {
        return Some(col(format!("C{i}")));
    }
    if let Some(j) = comp.aggs.iter().position(|a| a == expr) {
        let merge = merge_fn_of(expr)?;
        return Some(Expr::Function {
            name: merge.into(),
            args: vec![col(format!("C{}", comp.groups.len() + j))],
            distinct: false,
        });
    }
    match expr {
        Expr::Literal(_) | Expr::Parameter(_) => Some(expr.clone()),
        Expr::Binary { left, op, right } => Some(Expr::Binary {
            left: Box::new(rewrite(left, comp)?),
            op: *op,
            right: Box::new(rewrite(right, comp)?),
        }),
        Expr::Unary { op, expr } => {
            Some(Expr::Unary { op: *op, expr: Box::new(rewrite(expr, comp)?) })
        }
        Expr::IsNull { expr, negated } => {
            Some(Expr::IsNull { expr: Box::new(rewrite(expr, comp)?), negated: *negated })
        }
        Expr::Between { expr, low, high, negated } => Some(Expr::Between {
            expr: Box::new(rewrite(expr, comp)?),
            low: Box::new(rewrite(low, comp)?),
            high: Box::new(rewrite(high, comp)?),
            negated: *negated,
        }),
        Expr::InList { expr, list, negated } => Some(Expr::InList {
            expr: Box::new(rewrite(expr, comp)?),
            list: list.iter().map(|e| rewrite(e, comp)).collect::<Option<Vec<_>>>()?,
            negated: *negated,
        }),
        Expr::Like { expr, pattern, negated } => Some(Expr::Like {
            expr: Box::new(rewrite(expr, comp)?),
            pattern: Box::new(rewrite(pattern, comp)?),
            negated: *negated,
        }),
        _ => None,
    }
}

fn gather_from() -> Option<TableRef> {
    Some(TableRef::Table { name: ObjectName::bare(GATHER), alias: None })
}

/// Plan how `q` scatters across shards. Non-Raw plans require a plain
/// single-table query (no DISTINCT, no UNION) whose result is reconstructible
/// from per-shard partials.
pub(crate) fn plan_scatter(q: &Query) -> ScatterPlan {
    if q.distinct || !q.unions.is_empty() {
        return ScatterPlan::Raw;
    }
    if !matches!(&q.from, Some(TableRef::Table { .. })) {
        return ScatterPlan::Raw;
    }
    if let Some(plan) = plan_two_phase_aggregate(q) {
        return plan;
    }
    if let Some(plan) = plan_top_k(q) {
        return plan;
    }
    ScatterPlan::Raw
}

fn plan_two_phase_aggregate(q: &Query) -> Option<ScatterPlan> {
    let mut proj = Vec::with_capacity(q.projection.len());
    for it in &q.projection {
        let SelectItem::Expr { expr, alias } = it else { return None };
        proj.push((expr.clone(), alias.clone()));
    }
    if q.group_by.iter().any(Expr::contains_aggregate) {
        return None;
    }
    let mut aggs = Vec::new();
    for (e, _) in &proj {
        if !collect_aggregates(e, &mut aggs) {
            return None;
        }
    }
    if let Some(h) = &q.having {
        if !collect_aggregates(h, &mut aggs) {
            return None;
        }
    }
    for o in &q.order_by {
        if !collect_aggregates(&o.expr, &mut aggs) {
            return None;
        }
    }
    if aggs.is_empty() && q.group_by.is_empty() {
        return None;
    }
    let comp = Components { groups: q.group_by.clone(), aggs };

    let names: Vec<String> =
        proj.iter().enumerate().map(|(i, (e, a))| output_name(e, a, i)).collect();
    // A bare `ORDER BY <group expr>` in the merge query resolves by output
    // name first; bail out if a derived output name could shadow a partial
    // column reference.
    if !q.order_by.is_empty()
        && names.iter().any(|n| {
            n.strip_prefix('C').is_some_and(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))
        })
    {
        return None;
    }

    let mut merge_proj = Vec::with_capacity(proj.len());
    for (i, (e, _)) in proj.iter().enumerate() {
        merge_proj.push(item(rewrite(e, &comp)?, names[i].clone()));
    }
    let merge_having = match &q.having {
        Some(h) => Some(rewrite(h, &comp)?),
        None => None,
    };
    let mut merge_order = Vec::with_capacity(q.order_by.len());
    for o in &q.order_by {
        let expr = if is_ordinal(&o.expr) { o.expr.clone() } else { rewrite(&o.expr, &comp)? };
        merge_order.push(OrderByItem { expr, desc: o.desc });
    }

    let mut partial_proj = Vec::with_capacity(comp.groups.len() + comp.aggs.len());
    for (i, g) in comp.groups.iter().enumerate() {
        partial_proj.push(item(g.clone(), format!("C{i}")));
    }
    for (j, a) in comp.aggs.iter().enumerate() {
        partial_proj.push(item(a.clone(), format!("C{}", comp.groups.len() + j)));
    }
    let partial = Query {
        distinct: false,
        projection: partial_proj,
        from: q.from.clone(),
        filter: q.filter.clone(),
        group_by: q.group_by.clone(),
        having: None,
        unions: Vec::new(),
        order_by: Vec::new(),
        limit: None,
    };
    let merge = Query {
        distinct: false,
        projection: merge_proj,
        from: gather_from(),
        filter: None,
        group_by: (0..comp.groups.len()).map(|i| col(format!("C{i}"))).collect(),
        having: merge_having,
        unions: Vec::new(),
        order_by: merge_order,
        limit: q.limit,
    };
    Some(ScatterPlan::TwoPhase { partial: Box::new(partial), merge: Box::new(merge) })
}

fn plan_top_k(q: &Query) -> Option<ScatterPlan> {
    if !q.group_by.is_empty() || q.having.is_some() || q.order_by.is_empty() || q.limit.is_none() {
        return None;
    }
    let mut proj = Vec::with_capacity(q.projection.len());
    for it in &q.projection {
        let SelectItem::Expr { expr, alias } = it else { return None };
        if expr.contains_aggregate() {
            return None;
        }
        proj.push((expr.clone(), alias.clone()));
    }
    let names: Vec<String> =
        proj.iter().enumerate().map(|(i, (e, a))| output_name(e, a, i)).collect();
    let mut sorted = names.clone();
    sorted.sort();
    sorted.dedup();
    if sorted.len() != names.len() {
        return None;
    }
    let mut merge_order = Vec::with_capacity(q.order_by.len());
    for o in &q.order_by {
        if o.expr.contains_aggregate() {
            return None;
        }
        let expr = if is_ordinal(&o.expr) {
            o.expr.clone()
        } else if let Some(j) = proj.iter().position(|(e, _)| e == &o.expr) {
            col(names[j].clone())
        } else if let Expr::Column { qualifier: None, name } = &o.expr {
            if names.iter().filter(|n| *n == name).count() == 1 {
                col(name.clone())
            } else {
                return None;
            }
        } else {
            return None;
        };
        merge_order.push(OrderByItem { expr, desc: o.desc });
    }
    let merge = Query {
        distinct: false,
        projection: vec![SelectItem::Wildcard],
        from: gather_from(),
        filter: None,
        group_by: Vec::new(),
        having: None,
        unions: Vec::new(),
        order_by: merge_order,
        limit: q.limit,
    };
    Some(ScatterPlan::TwoPhase { partial: Box::new(q.clone()), merge: Box::new(merge) })
}

/// Retarget the query's single FROM table at a shard's physical table,
/// keeping the original name visible as an alias so column qualifiers still
/// resolve.
pub(crate) fn with_shard_from(q: &Query, shard: &ObjectName) -> Query {
    let mut out = q.clone();
    if let Some(TableRef::Table { name, alias }) = &q.from {
        out.from = Some(TableRef::Table {
            name: shard.clone(),
            alias: Some(alias.clone().unwrap_or_else(|| name.name.clone())),
        });
    }
    out
}

fn select_star(table: &ObjectName) -> Query {
    Query {
        distinct: false,
        projection: vec![SelectItem::Wildcard],
        from: Some(TableRef::Table { name: table.clone(), alias: None }),
        filter: None,
        group_by: Vec::new(),
        having: None,
        unions: Vec::new(),
        order_by: Vec::new(),
        limit: None,
    }
}

fn shard_unavailable(shard: usize, table: &ObjectName) -> Error {
    Error::ResourceUnavailable(format!(
        "shard {shard} of {table} has no live replica; all owners are unavailable"
    ))
}

fn shard_link_failure(shard: usize, table: &ObjectName) -> Error {
    Error::LinkFailure(format!(
        "the exchange for shard {shard} of {table} failed after retries on every replica"
    ))
}

// ---------------------------------------------------------------------------
// Join-filter pushdown for raw gathers
// ---------------------------------------------------------------------------

/// A build-side key summary that rides with each shard's gather request of
/// an inner equi-join, so the node drops probe rows that cannot match any
/// build key *before* encoding its reply frame. The summary is
/// false-positive-only (Bloom filter plus min/max range), so false negatives
/// are impossible and the merged answer is byte-identical with pushdown
/// disabled — only gather traffic shrinks.
pub(crate) struct GatherFilter {
    /// Key column index in the sharded probe table's schema.
    col: usize,
    summary: wire::KeySummary,
    /// Encoded summary size, charged on every shard's request leg.
    bytes: usize,
}

/// An inner equi-join eligible for gather pushdown: the single sharded
/// table is the probe side and `build` (replicated, gathered raw from DB2)
/// supplies the keys summarized for the shards.
struct JoinPushdown {
    build: ObjectName,
    probe_col: usize,
    build_col: usize,
}

/// Detect a pushdown-eligible join in `q`: a plain (no UNION) inner join of
/// two base tables, exactly one of them `sharded`, with at least one ON
/// conjunct equating a bare probe column with a bare build column whose
/// declared types share a key family (integer or character) — the same
/// static gate the accelerator's typed join kernels use, so a value can
/// never equal a key the summary cannot represent.
fn find_join_pushdown(
    q: &Query,
    sharded: &ObjectName,
    default_schema: &str,
    schema_of: &dyn Fn(&ObjectName) -> Option<Schema>,
) -> Option<JoinPushdown> {
    if !q.unions.is_empty() {
        return None;
    }
    let TableRef::Join { left, right, kind: JoinKind::Inner, on } = q.from.as_ref()? else {
        return None;
    };
    let (TableRef::Table { name: ln, alias: la }, TableRef::Table { name: rn, alias: ra }) =
        (left.as_ref(), right.as_ref())
    else {
        return None;
    };
    let (lr, rr) = (ln.resolve(default_schema), rn.resolve(default_schema));
    let (pn, pa, bn, ba, build) = if lr == *sharded && rr != *sharded {
        (ln, la, rn, ra, rr)
    } else if rr == *sharded && lr != *sharded {
        (rn, ra, ln, la, lr)
    } else {
        return None;
    };
    let plabel = pa.clone().unwrap_or_else(|| pn.name.clone());
    let blabel = ba.clone().unwrap_or_else(|| bn.name.clone());
    let probe_schema = schema_of(sharded)?;
    let build_schema = schema_of(&build)?;
    // Resolve a bare column to (is_probe, index), or None if ambiguous.
    let side_of = |e: &Expr| -> Option<(bool, usize)> {
        let Expr::Column { qualifier, name } = e else { return None };
        match qualifier {
            Some(q) if *q == plabel => probe_schema.index_of(name).ok().map(|i| (true, i)),
            Some(q) if *q == blabel => build_schema.index_of(name).ok().map(|i| (false, i)),
            Some(_) => None,
            None => match (probe_schema.index_of(name).ok(), build_schema.index_of(name).ok()) {
                (Some(i), None) => Some((true, i)),
                (None, Some(i)) => Some((false, i)),
                _ => None,
            },
        }
    };
    for conj in split_conjuncts(on) {
        let Expr::Binary { left, op: BinaryOp::Eq, right } = conj else { continue };
        if let (Some((ls, li)), Some((rs, ri))) = (side_of(left), side_of(right)) {
            if ls != rs {
                let (probe_col, build_col) = if ls { (li, ri) } else { (ri, li) };
                let pt = probe_schema.columns()[probe_col].data_type;
                let bt = build_schema.columns()[build_col].data_type;
                if (pt.is_integer() && bt.is_integer()) || (pt.is_character() && bt.is_character())
                {
                    return Some(JoinPushdown { build, probe_col, build_col });
                }
            }
        }
    }
    None
}

/// Summarize the build side's key column for shipping to the shards.
fn build_gather_filter(rows: &[Row], build_col: usize, probe_col: usize) -> GatherFilter {
    let mut summary = wire::KeySummary::with_capacity(rows.len());
    for r in rows {
        match &r[build_col] {
            Value::Null => {}
            Value::SmallInt(v) => summary.insert_i64(i64::from(*v)),
            Value::Int(v) => summary.insert_i64(i64::from(*v)),
            Value::BigInt(v) => summary.insert_i64(*v),
            Value::Varchar(s) => summary.insert_str(s),
            // Unreachable under the declared-type gate; a value the summary
            // cannot represent is simply not inserted, and the probe side's
            // matching values pass through `matches_value` untouched.
            _ => {}
        }
    }
    let bytes = wire::encode_summary(&summary).len();
    GatherFilter { col: probe_col, summary, bytes }
}

// ---------------------------------------------------------------------------
// Fleet execution
// ---------------------------------------------------------------------------

impl Idaa {
    /// True when this instance runs a real fleet (more than one node or more
    /// than one shard). It decides two things only: whether `CREATE TABLE …
    /// IN ACCELERATOR` shards the table, and whether trace spans name their
    /// node.
    pub fn fleet_active(&self) -> bool {
        self.nodes.len() > 1 || self.fleet.shards > 1
    }

    /// Number of accelerator nodes in the fleet.
    pub fn fleet_size(&self) -> usize {
        self.nodes.len()
    }

    /// Engine of node `i` (0-based).
    pub fn node_engine(&self, i: usize) -> &AccelEngine {
        &self.nodes[i].engine
    }

    /// Metered link of node `i`.
    pub fn node_link(&self, i: usize) -> &NetLink {
        &self.nodes[i].link
    }

    /// Seeded fault/crash registry of node `i`.
    pub fn node_registry(&self, i: usize) -> &Arc<FaultRegistry> {
        &self.nodes[i].registry
    }

    /// Install a crash plan on node `i`'s registry.
    pub fn set_crash_plan_on(&self, i: usize, plan: idaa_netsim::CrashPlan) {
        self.nodes[i].registry.set_plan(plan);
    }

    /// Install a seeded storage fault plan on node `i`'s registry.
    pub fn set_disk_plan_on(&self, i: usize, plan: idaa_netsim::DiskFaultPlan) {
        self.nodes[i].registry.set_disk_plan(plan);
    }

    /// Completed storage rebuilds of node `i` (durable state discarded and
    /// re-shipped from the host and replicas after unrepairable
    /// corruption).
    pub fn node_rebuilds(&self, i: usize) -> u64 {
        self.nodes[i].rebuilds.load(Ordering::Relaxed)
    }

    /// Total failovers (a gather served by a non-primary replica).
    pub fn fleet_failovers(&self) -> u64 {
        self.fleet.failovers()
    }

    /// Total shards migrated back to their preferred owner.
    pub fn fleet_rebalances(&self) -> u64 {
        self.fleet.rebalances()
    }

    /// Total wire bytes spent on shard catch-up copies.
    pub fn fleet_catch_up_bytes(&self) -> u64 {
        self.fleet.catch_up_bytes()
    }

    /// Current primary node of every shard.
    pub fn current_primaries(&self) -> Vec<usize> {
        (0..self.fleet.shards).map(|s| self.fleet.primary_of(s)).collect()
    }

    /// Merged [`LinkMetrics`] across every node's link: the fleet-wide
    /// traffic totals the experiments report.
    pub fn fleet_link_metrics(&self) -> LinkMetrics {
        let per_node: Vec<LinkMetrics> = self.nodes.iter().map(|n| n.link.metrics()).collect();
        LinkMetrics::merged(per_node.iter())
    }

    /// Lift a node's virtual clock up to the coordinator's "now". The
    /// coordinator timeline is node 0's link; a lagging node cannot serve a
    /// statement in the coordinator's past, so every per-node exchange first
    /// synchronizes the node clock forward. Together with
    /// [`Idaa::absorb_node_clock`] this keeps statement span trees
    /// well-nested on one monotone timeline even though every shard link
    /// meters (and delays) independently.
    pub(crate) fn sync_node_clock(&self, node: &AccelNode) {
        let (now, node_now) = (self.link().now(), node.link.now());
        if node_now < now {
            node.link.advance(now - node_now);
        }
    }

    /// Absorb into the coordinator's clock whatever virtual time a node
    /// consumed serving an exchange (transfer costs, retries, recovery).
    pub(crate) fn absorb_node_clock(&self, node: &AccelNode) {
        let (now, node_now) = (self.link().now(), node.link.now());
        if now < node_now {
            self.link().advance(node_now - now);
        }
    }

    /// Manually trigger recovery of node `i`, bypassing the probe-interval
    /// gate (the fleet counterpart of [`Idaa::recover`]).
    pub fn recover_node(&self, i: usize) -> bool {
        let node = self.nodes[i].clone();
        if self.faults.accel_unavailable.load(Ordering::Relaxed) {
            return false;
        }
        if node.engine.is_crashed() {
            node.health.force_offline();
        }
        if !node.health.probe(&node.link, &self.retry) {
            return false;
        }
        if node.engine.is_crashed() && self.restart_node(&node).is_err() {
            return false;
        }
        if self.catch_up_node(&node).is_err() {
            return false;
        }
        let _ = self.replicate_now();
        true
    }

    /// Execute `q`, which reads at least one sharded table, across the
    /// fleet: scatter to owning shards in ascending shard order, fail over
    /// per shard, and merge at the coordinator.
    pub(crate) fn fleet_query(
        &self,
        session: &mut Session,
        q: &Query,
        tables: &[ObjectName],
    ) -> Result<Rows> {
        let trace = session.trace.clone();
        if self.faults.accel_unavailable.load(Ordering::Relaxed) {
            return Err(self.unavailable_error());
        }
        self.maybe_rebalance();
        let mut sharded: Vec<ObjectName> = Vec::new();
        for t in tables {
            if self.fleet.is_sharded(t) && !sharded.contains(t) {
                sharded.push(t.clone());
            }
        }
        let span = if trace.is_enabled() { Some(trace.begin("gather", self.link().now())) } else { None };
        if let Some(id) = span {
            let list = sharded.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(",");
            trace.attr(id, "tables", list);
            trace.attr(id, "shards", self.fleet.shards);
        }
        let result = self.fleet_query_inner(session, &trace, q, tables, &sharded);
        if let Some(id) = span {
            if let Err(e) = &result {
                trace.attr(id, "err", e);
            }
            trace.end(id, self.link().now());
        }
        result
    }

    fn fleet_query_inner(
        &self,
        session: &mut Session,
        trace: &Trace,
        q: &Query,
        tables: &[ObjectName],
        sharded: &[ObjectName],
    ) -> Result<Rows> {
        let scratch = AccelEngine::new(&self.config.default_schema, self.config.accel.clone());
        let plan = if sharded.len() == 1 { plan_scatter(q) } else { ScatterPlan::Raw };
        match plan {
            ScatterPlan::TwoPhase { partial, merge } => {
                let table = &sharded[0];
                let gather = ObjectName::bare(GATHER);
                let mut created = false;
                for s in 0..self.fleet.shards {
                    let pq = with_shard_from(&partial, &shard_table(table, s));
                    let rows = self.gather_shard(session, trace, table, s, &pq, None)?;
                    if !created {
                        scratch.create_table(&gather, rows.schema.clone(), &[])?;
                        created = true;
                    }
                    scratch.load_committed(&gather, rows.rows)?;
                }
                scratch.query(0, &merge)
            }
            ScatterPlan::Raw => {
                let mut staged: Vec<ObjectName> = Vec::new();
                // Inner equi-join against one sharded probe table: stage the
                // build side first and ship its key summary with every shard
                // gather, so shards pre-filter probe rows before encoding.
                let mut filter: Option<GatherFilter> = None;
                if self.config.fleet.join_pushdown && sharded.len() == 1 {
                    let schema_of = |t: &ObjectName| -> Option<Schema> {
                        self.host.table_meta(t).ok().map(|m| m.schema.clone())
                    };
                    if let Some(pd) =
                        find_join_pushdown(q, &sharded[0], &self.config.default_schema, &schema_of)
                    {
                        let meta = self.host.table_meta(&pd.build)?;
                        scratch.create_table(&pd.build, meta.schema.clone(), &[])?;
                        let build_rows = self.host.scan_all(&pd.build)?;
                        filter = Some(build_gather_filter(&build_rows, pd.build_col, pd.probe_col));
                        scratch.load_committed(&pd.build, build_rows)?;
                        staged.push(pd.build);
                    }
                }
                for t in tables {
                    if t.name == "SYSDUMMY1" || staged.contains(t) {
                        continue;
                    }
                    let meta = self.host.table_meta(t)?;
                    scratch.create_table(t, meta.schema.clone(), &[])?;
                    if self.fleet.is_sharded(t) {
                        for s in 0..self.fleet.shards {
                            let pq = select_star(&shard_table(t, s));
                            let rows =
                                self.gather_shard(session, trace, t, s, &pq, filter.as_ref())?;
                            scratch.load_committed(t, rows.rows)?;
                        }
                    } else {
                        scratch.load_committed(t, self.host.scan_all(t)?)?;
                    }
                    staged.push(t.clone());
                }
                scratch.query(0, q)
            }
        }
    }

    /// Fetch one shard's partial result, failing over from the current
    /// primary to the remaining replicas in deterministic order.
    pub(crate) fn gather_shard(
        &self,
        session: &mut Session,
        trace: &Trace,
        table: &ObjectName,
        shard: usize,
        pq: &Query,
        prefilter: Option<&GatherFilter>,
    ) -> Result<Rows> {
        let span = if trace.is_enabled() { Some(trace.begin("shard", self.link().now())) } else { None };
        if let Some(id) = span {
            trace.attr(id, "table", table);
            trace.attr(id, "shard", shard);
            if let Some(f) = prefilter {
                trace.attr(id, "summary_bytes", f.bytes);
            }
        }
        let owners = self.fleet.owners(shard);
        let primary = self.fleet.primary_of(shard);
        let start = owners.iter().position(|&o| o == primary).unwrap_or(0);
        let mut saw_unavailable = false;
        let mut outcome = None;
        for step in 0..owners.len() {
            let owner = owners[(start + step) % owners.len()];
            let node = self.nodes[owner].clone();
            self.sync_node_clock(&node);
            let ready = self.node_ready(&node);
            self.absorb_node_clock(&node);
            if !ready {
                saw_unavailable = true;
                continue;
            }
            if node.engine.crash_point(sites::MID_SCATTER).is_err() {
                node.health.force_offline();
                self.fleet.mark_catch_up(owner);
                saw_unavailable = true;
                continue;
            }
            let txn = self.node_query_txn(session, &node);
            let attempt = self.exchange_on(
                &node,
                session,
                pq.to_string().len()
                    + wire::CONTROL_FRAME
                    + prefilter.map_or(0, |f| f.bytes),
                || {
                    let mut rows = node.engine.query(txn, pq)?;
                    if let Some(f) = prefilter {
                        // Node-side pre-filter: only rows that *might* join
                        // are encoded into the reply frame.
                        rows.rows.retain(|r| f.summary.matches_value(&r[f.col]));
                    }
                    Ok(rows)
                },
                |r: &Rows| ReplyPayload::Frame(wire::encode_frame(&r.schema, &r.rows)),
            );
            self.absorb_node_clock(&node);
            match attempt {
                Ok((rows, frame)) => {
                    let frame = frame.expect("row replies travel as wire frames");
                    let delivered = wire::decode_rows(&frame, &rows.schema)?;
                    if owner != primary {
                        self.fleet.record_failover(shard, owner, self.link().now());
                        self.metrics.inc("fleet.failovers", 1);
                        trace.event(
                            "failover",
                            &[("shard", &shard), ("from", &primary), ("to", &owner)],
                            self.link().now(),
                        );
                    }
                    if let Some(id) = span {
                        trace.attr(id, "node", node.engine.identity());
                        trace.attr(id, "epoch", node.engine.epoch());
                    }
                    outcome = Some(Ok(Rows { schema: rows.schema, rows: delivered }));
                    break;
                }
                Err(Error::LinkFailure(_)) => continue,
                Err(Error::ResourceUnavailable(_)) => {
                    node.health.force_offline();
                    saw_unavailable = true;
                    continue;
                }
                Err(e) => {
                    outcome = Some(Err(e));
                    break;
                }
            }
        }
        let result = outcome.unwrap_or_else(|| {
            Err(if saw_unavailable {
                shard_unavailable(shard, table)
            } else {
                shard_link_failure(shard, table)
            })
        });
        if let Some(id) = span {
            if let Err(e) = &result {
                trace.attr(id, "err", e);
            }
            trace.end(id, self.link().now());
        }
        result
    }

    /// Route failed-over shards back to their preferred owner once it is
    /// healthy, caught up, and the rebalance delay has elapsed on the
    /// virtual clock.
    pub(crate) fn maybe_rebalance(&self) {
        for s in 0..self.fleet.shards {
            let preferred = self.fleet.owners(s)[0];
            if self.fleet.primary_of(s) == preferred {
                continue;
            }
            let Some(at) = self.fleet.failed_over_time(s) else { continue };
            if self.link().now() < at + self.fleet.rebalance_after {
                continue;
            }
            let node = &self.nodes[preferred];
            if node.engine.is_crashed()
                || node.health.state() == HealthState::Offline
                || self.fleet.needs_catch_up(preferred)
            {
                continue;
            }
            self.fleet.set_primary(s, preferred);
            self.fleet.note_rebalance();
            self.metrics.inc("fleet.rebalances", 1);
        }
    }

    /// Copy every shard a node marked as lagging owns from a live replica,
    /// metering both legs of the transfer. The node stays flagged until a
    /// full pass succeeds; an unmarked node has nothing to copy.
    pub(crate) fn catch_up_node(&self, node: &AccelNode) -> Result<()> {
        if !self.fleet.needs_catch_up(node.id) {
            return Ok(());
        }
        for t in self.fleet.sharded_tables() {
            let meta = self.host.table_meta(&t)?;
            for s in 0..self.fleet.shards {
                let owners = self.fleet.owners(s);
                if !owners.contains(&node.id) {
                    continue;
                }
                let Some(src_id) = owners.iter().copied().find(|&o| {
                    o != node.id
                        && !self.nodes[o].engine.is_crashed()
                        && !self.fleet.needs_catch_up(o)
                }) else {
                    continue;
                };
                let src = self.nodes[src_id].clone();
                let st = shard_table(&t, s);
                let rows = src.engine.scan_visible(&st)?;
                let mut delivered: Vec<Row> = Vec::with_capacity(rows.len());
                let mut bytes = 0u64;
                for frame in wire::encode_frames(&meta.schema, &rows) {
                    self.ship_frame_on(&src, Direction::ToHost, &frame)?;
                    self.ship_frame_on(node, Direction::ToAccel, &frame)?;
                    bytes += 2 * frame.len() as u64;
                    delivered.extend(wire::decode_rows(&frame, &meta.schema)?);
                }
                node.engine.truncate(&st)?;
                node.engine.load_committed(&st, delivered)?;
                self.fleet.add_catch_up_bytes(bytes);
                self.metrics.inc("fleet.catch_up.bytes", bytes);
            }
        }
        self.fleet.clear_catch_up(node.id);
        self.metrics.inc("fleet.catch_ups", 1);
        Ok(())
    }

    /// Create an `IN ACCELERATOR` table. This is the one placement rule:
    /// in a real fleet the table is sharded — every owning node gets its
    /// shard's physical table and the logical table is registered as
    /// sharded — while the single accelerator holds it under its own name.
    pub(crate) fn fleet_create_table(
        &self,
        name: &ObjectName,
        schema: &Schema,
        distribute_by: &[String],
        ddl: &str,
    ) -> Result<()> {
        if !self.fleet_active() {
            let node = &self.nodes[0];
            self.ship_ddl_on(node, ddl)?;
            return node.engine.create_table(name, schema.clone(), distribute_by);
        }
        for s in 0..self.fleet.shards {
            let st = shard_table(name, s);
            for owner in self.fleet.owners(s) {
                let node = &self.nodes[owner];
                self.ship_ddl_on(node, ddl)?;
                node.engine.create_table(&st, schema.clone(), distribute_by)?;
            }
        }
        self.fleet.add_sharded(name.clone());
        Ok(())
    }

    /// Best-effort drop of a table's accelerator copies across the fleet
    /// (shard tables if sharded, else the replicated copy on every node).
    pub(crate) fn fleet_drop_table(&self, name: &ObjectName, ddl: &str) {
        if self.fleet.remove_sharded(name) {
            for s in 0..self.fleet.shards {
                let st = shard_table(name, s);
                for owner in self.fleet.owners(s) {
                    let node = &self.nodes[owner];
                    let _ = self.ship_ddl_on(node, ddl);
                    let _ = node.engine.drop_table(&st);
                }
            }
        } else {
            for node in &self.nodes {
                let _ = self.ship_ddl_on(node, ddl);
                let _ = node.engine.drop_table(name);
            }
        }
    }

    /// Scatter an AOT insert: rows hash to shards by the first distribution
    /// column and every owning replica applies its shard's slice.
    pub(crate) fn fleet_insert_rows(
        &self,
        session: &mut Session,
        table: &ObjectName,
        schema: &Schema,
        distribute_by: &[String],
        rows: Vec<Row>,
    ) -> Result<usize> {
        self.maybe_rebalance();
        let dist_idx = match distribute_by.first() {
            Some(c) => schema.index_of(c)?,
            None => 0,
        };
        let mut by_shard: BTreeMap<usize, Vec<Row>> = BTreeMap::new();
        for row in rows {
            by_shard.entry(shard_of(&row[dist_idx], self.fleet.shards)).or_default().push(row);
        }
        let mut total = 0usize;
        for (s, shard_rows) in by_shard {
            total += self.write_shard(session, table, s, |session, node, st| {
                self.insert_on(session, node, st, schema, &shard_rows)
            })?;
        }
        Ok(total)
    }

    /// Scatter an AOT UPDATE/DELETE: every shard applies the statement on
    /// every live owning replica.
    pub(crate) fn fleet_dml_each_shard(
        &self,
        session: &mut Session,
        table: &ObjectName,
        request_bytes: usize,
        op: impl Fn(&AccelEngine, TxnId, &ObjectName) -> Result<usize>,
    ) -> Result<usize> {
        self.maybe_rebalance();
        let mut total = 0usize;
        for s in 0..self.fleet.shards {
            total += self.write_shard(session, table, s, |session, node, st| {
                self.write_on(session, node, request_bytes, |txn| op(&node.engine, txn, st))
            })?;
        }
        Ok(total)
    }

    /// Apply one write to every owning replica of shard `s` of `table`, in
    /// placement order. An owner that is unready or fails the write is
    /// marked for catch-up; the shard's row count comes from the first
    /// owner that applied it, and a shard no owner applied fails the
    /// statement.
    fn write_shard(
        &self,
        session: &mut Session,
        table: &ObjectName,
        s: usize,
        write: impl Fn(&mut Session, &AccelNode, &ObjectName) -> Result<usize>,
    ) -> Result<usize> {
        let st = shard_table(table, s);
        let mut counted = None;
        let mut saw_unavailable = false;
        for owner in self.fleet.owners(s) {
            let node = self.nodes[owner].clone();
            self.sync_node_clock(&node);
            let ready = self.node_ready(&node);
            self.absorb_node_clock(&node);
            if !ready {
                self.fleet.mark_catch_up(owner);
                saw_unavailable = true;
                continue;
            }
            let attempt = write(session, &node, &st);
            self.absorb_node_clock(&node);
            match attempt {
                Ok(n) => {
                    counted.get_or_insert(n);
                }
                Err(Error::LinkFailure(_)) => self.fleet.mark_catch_up(owner),
                Err(Error::ResourceUnavailable(_)) => {
                    node.health.force_offline();
                    self.fleet.mark_catch_up(owner);
                    saw_unavailable = true;
                }
                Err(e) => return Err(e),
            }
        }
        counted.ok_or_else(|| {
            if saw_unavailable {
                shard_unavailable(s, table)
            } else {
                shard_link_failure(s, table)
            }
        })
    }

    /// Two-phase commit across every enlisted node — one node on the single
    /// accelerator — hardened against a stopped or crashed participant and
    /// link-level message loss at every step: all prepare, all vote, one
    /// host decision, then per-node phase-2 delivery with queued decisions
    /// for unreachable nodes. Every protocol message is a `control`
    /// transfer.
    pub(crate) fn commit_two_phase_fleet(
        &self,
        trace: &Trace,
        txn: TxnId,
        ids: &[usize],
    ) -> Result<()> {
        // Presumed abort: roll back on every participant and the host.
        let abort_all = |err: Error| -> Result<()> {
            for &i in ids {
                self.nodes[i].engine.abort(txn);
            }
            self.host.rollback(txn)?;
            Err(err)
        };
        let control = |node: &AccelNode, direction: Direction| {
            self.sync_node_clock(node);
            let shipped =
                self.ship_traced_on(node, trace, direction, "control", wire::CONTROL_FRAME);
            self.absorb_node_clock(node);
            shipped
        };
        const ROLLED_BACK: &str = "transaction rolled back on all participants";
        // A stopped or crashed accelerator cannot vote: presume abort on
        // both sides. (A crashed engine's copy of the transaction is
        // aborted durably when recovery replays the log.)
        if self.faults.accel_unavailable.load(Ordering::Relaxed)
            || ids.iter().any(|&i| self.nodes[i].engine.is_crashed())
        {
            return abort_all(Error::ResourceUnavailable(format!(
                "the accelerator is unavailable; {ROLLED_BACK}"
            )));
        }
        // Phase 1: PREPARE requests. Undeliverable after retries means the
        // participant never voted — presumed abort everywhere.
        for &i in ids {
            if let Err(e) = control(&self.nodes[i], Direction::ToAccel) {
                return abort_all(Error::CommitFailed(format!(
                    "PREPARE could not be delivered ({e}); {ROLLED_BACK}"
                )));
            }
        }
        // The PREPARE vote consults the failure registry: a fired
        // `coord.prepare.vote_no` site (armed one-shot or seeded plan)
        // makes a participant vote NO.
        if self.faults.registry.fire(sites::PREPARE_VOTE_NO) {
            return abort_all(Error::CommitFailed(format!(
                "accelerator failed to prepare; {ROLLED_BACK}"
            )));
        }
        for &i in ids {
            if let Err(e) = self.nodes[i].engine.prepare(txn) {
                return abort_all(Error::CommitFailed(format!(
                    "accelerator PREPARE failed ({e}); {ROLLED_BACK}"
                )));
            }
        }
        // The YES votes travel back. Losing one leaves the transaction
        // in doubt on that node: it is prepared but the coordinator cannot
        // see the outcome. The resolver re-runs the status inquiry once; if
        // that fails too, every side rolls back (presumed abort).
        for &i in ids {
            let node = &self.nodes[i];
            if control(node, Direction::ToHost).is_err() {
                let resolved = control(node, Direction::ToAccel).is_ok()
                    && control(node, Direction::ToHost).is_ok();
                if !resolved {
                    return abort_all(Error::CommitFailed(
                        "in-doubt transaction could not be resolved before timeout; rolled \
                         back on all participants"
                            .into(),
                    ));
                }
                self.in_doubt_resolved.fetch_add(1, Ordering::Relaxed);
                self.metrics.inc("twopc.in_doubt_resolved", 1);
            }
        }
        // Phase 2: the decision is durable once the coordinator commits.
        self.host.commit(txn);
        for &i in ids {
            let node = &self.nodes[i];
            if node.engine.is_crashed() || control(node, Direction::ToAccel).is_err() {
                // The COMMIT decision is queued and redelivered on the next
                // replication round or recovery probe; the node holds the
                // transaction prepared (durably — a crash re-materializes
                // it from the log) until the decision arrives.
                node.pending_commits.lock().push(txn);
                self.metrics.inc("twopc.decisions_queued", 1);
            } else {
                node.engine.commit(txn);
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use idaa_sql::parse_statement;
    use idaa_sql::ast::Statement;

    fn q(sql: &str) -> Query {
        match parse_statement(sql).expect("parse") {
            Statement::Query(q) => *q,
            other => panic!("not a query: {other:?}"),
        }
    }

    #[test]
    fn shard_placement_is_deterministic_and_wraps() {
        let fs = FleetState::new(&FleetConfig {
            accelerators: 3,
            shards: 4,
            replication_factor: 2,
            ..FleetConfig::default()
        });
        assert_eq!(fs.owners(0), vec![0, 1]);
        assert_eq!(fs.owners(2), vec![2, 0]);
        assert_eq!(fs.owners(3), vec![0, 1]);
        let v = Value::BigInt(42);
        assert_eq!(shard_of(&v, 4), shard_of(&v, 4));
        assert_eq!(shard_of(&v, 1), 0);
        assert!(shard_of(&Value::Varchar("x".into()), 4) < 4);
    }

    #[test]
    fn replication_factor_clamps_to_fleet_size() {
        let fs = FleetState::new(&FleetConfig {
            accelerators: 2,
            shards: 2,
            replication_factor: 5,
            ..FleetConfig::default()
        });
        assert_eq!(fs.owners(0), vec![0, 1]);
    }

    #[test]
    fn shard_table_names_keep_schema() {
        let t = ObjectName::qualified("APP", "SALES");
        assert_eq!(shard_table(&t, 2).to_string(), "APP.SALES__S2");
    }

    #[test]
    fn mergeable_aggregates_plan_two_phase() {
        let plan =
            plan_scatter(&q("SELECT REGION, COUNT(*), SUM(AMOUNT) FROM SALES GROUP BY REGION"));
        let ScatterPlan::TwoPhase { partial, merge } = plan else {
            panic!("expected two-phase plan")
        };
        assert_eq!(
            partial.to_string(),
            "SELECT REGION AS C0, COUNT(*) AS C1, SUM(AMOUNT) AS C2 FROM SALES GROUP BY REGION"
        );
        assert_eq!(
            merge.to_string(),
            "SELECT C0 AS REGION, SUM(C1) AS C2, SUM(C2) AS C3 FROM __GATHER GROUP BY C0"
        );
    }

    #[test]
    fn global_aggregates_merge_without_groups() {
        let plan = plan_scatter(&q("SELECT COUNT(*) AS N, MIN(X) AS LO FROM T WHERE X > 3"));
        let ScatterPlan::TwoPhase { partial, merge } = plan else {
            panic!("expected two-phase plan")
        };
        assert_eq!(
            partial.to_string(),
            "SELECT COUNT(*) AS C0, MIN(X) AS C1 FROM T WHERE (X > 3)"
        );
        assert_eq!(merge.to_string(), "SELECT SUM(C0) AS N, MIN(C1) AS LO FROM __GATHER");
    }

    #[test]
    fn avg_distinct_and_joins_gather_raw() {
        assert!(matches!(plan_scatter(&q("SELECT AVG(X) FROM T")), ScatterPlan::Raw));
        assert!(matches!(plan_scatter(&q("SELECT COUNT(DISTINCT X) FROM T")), ScatterPlan::Raw));
        assert!(matches!(plan_scatter(&q("SELECT DISTINCT X FROM T")), ScatterPlan::Raw));
        assert!(matches!(
            plan_scatter(&q("SELECT A.X FROM A JOIN B ON A.K = B.K")),
            ScatterPlan::Raw
        ));
    }

    #[test]
    fn top_k_pushes_order_and_limit_per_shard() {
        let original = q("SELECT ID, AMOUNT FROM SALES ORDER BY AMOUNT DESC LIMIT 5");
        let plan = plan_scatter(&original);
        let ScatterPlan::TwoPhase { partial, merge } = plan else {
            panic!("expected two-phase plan")
        };
        assert_eq!(*partial, original);
        assert_eq!(merge.to_string(), "SELECT * FROM __GATHER ORDER BY AMOUNT DESC LIMIT 5");
    }

    #[test]
    fn unlimited_scans_gather_raw() {
        assert!(matches!(plan_scatter(&q("SELECT X FROM T")), ScatterPlan::Raw));
        assert!(matches!(plan_scatter(&q("SELECT X FROM T ORDER BY X")), ScatterPlan::Raw));
    }

    #[test]
    fn with_shard_from_preserves_qualifier_resolution() {
        let original = q("SELECT SALES.ID FROM SALES WHERE SALES.ID > 1");
        let shard = ObjectName::qualified("APP", "SALES__S1");
        let rewritten = with_shard_from(&original, &shard);
        assert_eq!(
            rewritten.to_string(),
            "SELECT SALES.ID FROM APP.SALES__S1 AS SALES WHERE (SALES.ID > 1)"
        );
    }

    #[test]
    fn join_pushdown_detects_typed_inner_equi_joins_only() {
        use idaa_common::{ColumnDef, DataType};
        let probe = Schema::new(vec![
            ColumnDef::not_null("K", DataType::Integer),
            ColumnDef::new("V", DataType::Double),
        ])
        .unwrap();
        let build = Schema::new(vec![
            ColumnDef::not_null("K", DataType::BigInt),
            ColumnDef::new("NAME", DataType::Varchar(10)),
        ])
        .unwrap();
        let schema_of = |t: &ObjectName| -> Option<Schema> {
            match t.name.as_str() {
                "F" => Some(probe.clone()),
                "D" => Some(build.clone()),
                _ => None,
            }
        };
        let sharded = ObjectName::bare("F").resolve("APP");
        let find = |sql: &str| find_join_pushdown(&q(sql), &sharded, "APP", &schema_of);
        // Inner equi-join on an integer-family key pair qualifies.
        let pd = find("SELECT * FROM F JOIN D ON F.K = D.K AND F.V > 1").unwrap();
        assert_eq!((pd.probe_col, pd.build_col), (0, 0));
        assert_eq!(pd.build, ObjectName::bare("D").resolve("APP"));
        // Probe/build sides swap freely.
        assert!(find("SELECT * FROM D JOIN F ON D.K = F.K").is_some());
        // LEFT joins must keep non-matching probe rows for null padding.
        assert!(find("SELECT * FROM F LEFT JOIN D ON F.K = D.K").is_none());
        // Self-joins, mixed key families, and non-equi conjuncts don't.
        assert!(find("SELECT * FROM F A JOIN F B ON A.K = B.K").is_none());
        assert!(find("SELECT * FROM F JOIN D ON F.K = D.NAME").is_none());
        assert!(find("SELECT * FROM F JOIN D ON F.K > D.K").is_none());
    }

    #[test]
    fn gather_filter_is_false_positive_only() {
        let rows: Vec<Row> = (0..50)
            .map(|i| vec![Value::Int(i * 3), Value::Varchar(format!("N{i}"))])
            .collect();
        let f = build_gather_filter(&rows, 0, 0);
        // Every build key must pass; NULLs never do.
        for r in &rows {
            assert!(f.summary.matches_value(&r[0]));
        }
        assert!(!f.summary.matches_value(&Value::Null));
        // Out-of-range probes are cut off by the min/max guard.
        assert!(!f.summary.matches_value(&Value::Int(-1)));
        assert!(!f.summary.matches_value(&Value::Int(1000)));
        assert!(f.bytes > 0);
    }

    #[test]
    fn failover_bookkeeping_tracks_primaries() {
        let fs = FleetState::new(&FleetConfig {
            accelerators: 3,
            shards: 2,
            replication_factor: 2,
            ..FleetConfig::default()
        });
        assert_eq!(fs.primary_of(1), 1);
        fs.record_failover(1, 2, Duration::from_millis(5));
        assert_eq!(fs.primary_of(1), 2);
        assert_eq!(fs.failed_over_time(1), Some(Duration::from_millis(5)));
        assert_eq!(fs.failovers(), 1);
        fs.set_primary(1, 1);
        assert_eq!(fs.primary_of(1), 1);
        assert_eq!(fs.failed_over_time(1), None);
    }
}
