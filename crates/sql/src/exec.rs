//! The reference executor: one Volcano-style interpreter (materialized per
//! operator) for every [`Plan`] node, shared by the host and the
//! accelerator.
//!
//! The two engines differ in how they reach their data, not in how they
//! join, group or sort it. Each plugs in a [`Source`]: the host's row store
//! with B-tree access paths, the accelerator's columnar slices with
//! kernels, zone maps and late materialization. A source may also override
//! a node with a faster path that is exact (the accelerator's fused
//! aggregate). Every other operator runs here: projection, filters over
//! non-scan inputs, the stable sort and fused top-K, DISTINCT, UNION, the
//! typed-key Bloom-guarded hash join, the nested-loop join and chunked
//! grouped aggregation. Projection masks are pushed down to the scans.
//!
//! Parallel operators split their input into [`Source::workers`] parts and
//! merge partial results in part order with stable tiebreaks, so any worker
//! count reproduces the serial answer (modulo float summation order).
//! [`run_parts`] is the one place worker threads are spawned.

use crate::ast::{BinaryOp, Expr, JoinKind};
use crate::eval::{bind, eval, eval_predicate, AggState, BoundExpr, FlatResolver};
use crate::plan::{resolver_of, split_conjuncts, AggCall, Plan, PlanCol, PlanProfile};
use idaa_common::wire::{key_hash_i64, key_hash_str, KeySummary};
use idaa_common::{DataType, Error, ObjectName, Result, Row, Rows, Value};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

/// `Limit(Sort(…))` fuses into a bounded top-K selection when the limit is
/// at most this many rows (beyond that a full sort wins).
const TOPK_MAX: u64 = 1024;

/// Where an engine's base-table rows come from, plus its faster paths.
pub trait Source {
    /// Rows of a base-table scan, filtered by `spec.predicate` (by index,
    /// kernel or row loop). `needed[i] == false` means no caller reads
    /// output column `i`, so the source may leave it NULL. `probe`, when
    /// set, digests a join's build keys: a probe row whose key it rejects
    /// can never join, so the source may drop it, or ignore the filter. A
    /// source that runs a `Filter`'s `Scan` child as its own pass records
    /// the child's cardinality in `profile`; one that fuses it leaves the
    /// child unrecorded.
    fn scan(
        &self,
        spec: &ScanSpec,
        needed: Option<Vec<bool>>,
        probe: Option<&ProbeKeys>,
        profile: Option<&PlanProfile>,
    ) -> Result<Vec<Row>>;

    /// Execute `node` by a faster path that is exact, or return `Ok(None)`
    /// to let the reference operator run. `exec` runs child plans.
    fn run_node(&self, _node: &Plan, _exec: &Exec) -> Result<Option<Vec<Row>>> {
        Ok(None)
    }

    /// Worker count for the parallel operators (1 = serial).
    fn workers(&self) -> usize;
}

/// One statement's execution: the source, plus the profile each executed
/// node records its output cardinality into (fused children stay
/// unrecorded, so fusion is visible in the profile).
pub struct Exec<'a> {
    src: &'a dyn Source,
    pub profile: Option<&'a PlanProfile>,
}

/// Execute `plan` against `src`, producing a materialized result.
pub fn execute_plan(
    plan: &Plan,
    src: &dyn Source,
    profile: Option<&PlanProfile>,
) -> Result<Rows> {
    let rows = Exec { src, profile }.run(plan, None)?;
    Ok(Rows::new(plan.schema(), rows))
}

/// Run `f(0)..f(parts-1)` on scoped worker threads and return the results
/// in part order. The fixed partition order is what keeps every parallel
/// operator deterministic for a given configuration. A worker that panics
/// fails the statement with an internal error (SQLCODE -901) instead of
/// taking the process down; every worker is joined before this returns.
pub fn run_parts<T, F>(parts: usize, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if parts <= 1 {
        return Ok((0..parts).map(f).collect());
    }
    std::thread::scope(|scope| {
        let fr = &f;
        let handles: Vec<_> = (0..parts).map(|i| scope.spawn(move || fr(i))).collect();
        let joined: Vec<std::thread::Result<T>> = handles.into_iter().map(|h| h.join()).collect();
        joined
            .into_iter()
            .map(|r| r.map_err(|_| Error::internal("executor worker thread panicked")))
            .collect()
    })
}

/// Keep the rows `bound` accepts, in order.
pub fn filter_rows(rows: Vec<Row>, bound: &BoundExpr) -> Result<Vec<Row>> {
    rows.into_iter()
        .filter_map(|row| match eval_predicate(bound, &row) {
            Ok(true) => Some(Ok(row)),
            Ok(false) => None,
            Err(e) => Some(Err(e)),
        })
        .collect()
}

/// A plan node a [`Source`] executes whole: a base-table `Scan`, or a
/// `Filter` directly over one.
pub struct ScanSpec<'a> {
    /// The executed node: the `Scan`, or the `Filter` over it.
    pub node: &'a Plan,
    /// The `Scan` itself.
    pub scan: &'a Plan,
    pub table: &'a ObjectName,
    /// The scan's output columns (every column of the table).
    pub cols: &'a [PlanCol],
    pub predicate: Option<&'a Expr>,
}

impl<'a> ScanSpec<'a> {
    /// `node` as a scan, if it has that shape. The FROM-less `SELECT`'s
    /// one-row pseudo table is not a scan: the executor yields its row.
    pub fn of(node: &'a Plan) -> Option<ScanSpec<'a>> {
        let (scan, predicate) = match node {
            Plan::Filter { input, predicate } => (input.as_ref(), Some(predicate)),
            _ => (node, None),
        };
        match scan {
            Plan::Scan { table, cols, .. } if !(cols.is_empty() && table.name == "SYSDUMMY1") => {
                Some(ScanSpec { node, scan, table, cols, predicate })
            }
            _ => None,
        }
    }
}

/// Union the column ordinals of `exprs` into a mask over `width` columns.
fn mask_of(width: usize, bound: &[&BoundExpr]) -> Vec<bool> {
    let mut set = HashSet::new();
    for b in bound {
        b.collect_columns(&mut set);
    }
    (0..width).map(|i| set.contains(&i)).collect()
}

/// The caller's mask widened to `width` columns, plus the `keys` ordinals.
fn widen_mask(
    needed: Option<Vec<bool>>,
    width: usize,
    keys: &[(usize, bool)],
) -> Option<Vec<bool>> {
    needed.map(|mut m| {
        m.resize(width, false);
        for (i, _) in keys {
            if *i < width {
                m[*i] = true;
            }
        }
        m
    })
}

/// Drop repeated rows, keeping first occurrences in order.
fn dedup_rows(rows: &mut Vec<Row>) {
    let mut seen: HashSet<Row> = HashSet::with_capacity(rows.len());
    rows.retain(|r| seen.insert(r.clone()));
}

impl Exec<'_> {
    /// Dispatch one node and, when profiling, record its output cardinality
    /// on the way out. `needed` is the projection mask (see
    /// [`Source::scan`]); `None` reads every column.
    pub fn run(&self, plan: &Plan, needed: Option<Vec<bool>>) -> Result<Vec<Row>> {
        let rows = self.run_inner(plan, needed)?;
        self.record(plan, &rows);
        Ok(rows)
    }

    fn record(&self, plan: &Plan, rows: &[Row]) {
        if let Some(prof) = self.profile {
            prof.record(plan, rows.len() as u64);
        }
    }

    fn run_inner(&self, plan: &Plan, needed: Option<Vec<bool>>) -> Result<Vec<Row>> {
        if let Some(rows) = self.src.run_node(plan, self)? {
            return Ok(rows);
        }
        if let Some(spec) = ScanSpec::of(plan) {
            return self.src.scan(&spec, needed, None, self.profile);
        }
        match plan {
            // Only the FROM-less pseudo table is left: one empty row.
            Plan::Scan { .. } => Ok(vec![vec![]]),
            Plan::Filter { input, predicate } => {
                let cols = input.cols();
                let bound = bind(predicate, &resolver_of(&cols))?;
                let child_mask = needed.map(|m| {
                    let pred = mask_of(cols.len(), &[&bound]);
                    m.iter().zip(&pred).map(|(x, y)| *x || *y).collect()
                });
                filter_rows(self.run(input, child_mask)?, &bound)
            }
            Plan::Project { input, exprs, .. } => {
                let in_cols = input.cols();
                let resolver = resolver_of(&in_cols);
                let bound: Vec<BoundExpr> =
                    exprs.iter().map(|(e, _)| bind(e, &resolver)).collect::<Result<_>>()?;
                let refs: Vec<&BoundExpr> = bound.iter().collect();
                let rows = self.run(input, Some(mask_of(in_cols.len(), &refs)))?;
                rows.into_iter()
                    .map(|row| bound.iter().map(|b| eval(b, &row)).collect())
                    .collect()
            }
            Plan::Join { left, right, kind, on } => {
                self.run_join(plan, left, right, *kind, on, needed)
            }
            Plan::Aggregate { input, group_exprs, aggs, .. } => {
                self.run_aggregate(input, group_exprs, aggs)
            }
            Plan::Sort { input, keys } => {
                let child_mask = widen_mask(needed, input.cols().len(), keys);
                sort_rows(self.run(input, child_mask)?, keys, self.src.workers())
            }
            Plan::Distinct { input } => {
                // Row-level dedup reads every column: no pushdown through here.
                let mut rows = self.run(input, None)?;
                dedup_rows(&mut rows);
                Ok(rows)
            }
            Plan::Limit { input, n } => {
                // `Limit(Sort(…))` fuses into a bounded top-K selection: keep
                // the `n` best rows by (sort key, input position) in one pass
                // instead of sorting everything. The position tiebreak makes
                // the result identical to a stable sort then truncation.
                if let Plan::Sort { input: sorted, keys } = input.as_ref() {
                    if *n <= TOPK_MAX {
                        let child_mask = widen_mask(needed, sorted.cols().len(), keys);
                        let rows = self.run(sorted, child_mask)?;
                        return Ok(top_k(rows, *n as usize, sort_cmp(keys)));
                    }
                }
                let mut rows = self.run(input, needed)?;
                rows.truncate(*n as usize);
                Ok(rows)
            }
            Plan::KeepCols { input, n } => {
                let child_mask = widen_mask(needed, input.cols().len(), &[]);
                let mut rows = self.run(input, child_mask)?;
                for row in &mut rows {
                    row.truncate(*n);
                }
                Ok(rows)
            }
            Plan::Union { left, right, all } => {
                // Plain UNION dedups on full rows, so branches must
                // materialize every column; UNION ALL can push the caller's
                // mask through.
                let child_mask = if *all { needed } else { None };
                let mut rows = self.run(left, child_mask.clone())?;
                rows.extend(self.run(right, child_mask)?);
                if !*all {
                    dedup_rows(&mut rows);
                }
                Ok(rows)
            }
        }
    }

    fn run_join(
        &self,
        plan: &Plan,
        left: &Plan,
        right: &Plan,
        kind: JoinKind,
        on: &Expr,
        needed: Option<Vec<bool>>,
    ) -> Result<Vec<Row>> {
        let lcols = left.cols();
        let rcols = right.cols();
        let lres = resolver_of(&lcols);
        let rres = resolver_of(&rcols);
        let bound_on = bind(on, &lres.concat(&rres))?;

        let (lkeys, rkeys, total_conjs) = equi_keys(on, &lres, &rres);
        // When every ON conjunct became an equi-key pair, key equality *is*
        // the whole predicate — matched candidates skip the ON re-check.
        let on_covered = lkeys.len() == total_conjs;

        let lwidth = lcols.len();
        let rwidth = rcols.len();
        let workers = self.src.workers();

        // Projection pushdown through the join: each side materializes the
        // columns the caller reads of it, its equi-key columns, and — unless
        // key equality covers the whole ON predicate — the ON columns.
        let (lmask, rmask) = match &needed {
            None => (None, None),
            Some(m) => {
                let mut on_cols = HashSet::new();
                if !on_covered {
                    bound_on.collect_columns(&mut on_cols);
                }
                let side = |off: usize, width: usize, keys: &[BoundExpr]| -> Vec<bool> {
                    let mut key_cols = HashSet::new();
                    for k in keys {
                        k.collect_columns(&mut key_cols);
                    }
                    (0..width)
                        .map(|i| {
                            m.get(off + i).copied().unwrap_or(false)
                                || on_cols.contains(&(off + i))
                                || key_cols.contains(&i)
                        })
                        .collect()
                };
                (Some(side(0, lwidth, &lkeys)), Some(side(lwidth, rwidth, &rkeys)))
            }
        };

        // Build side (right) first: its finished keys can pre-filter the
        // probe-side scan before any probe row materializes.
        let rrows = self.run(right, rmask)?;

        if lkeys.is_empty() {
            let lrows = self.run(left, lmask)?;
            return nested_loop_join(&lrows, &rrows, kind, &bound_on, rwidth, workers);
        }

        let mut layout = key_layout(&lkeys, &lcols, &rkeys, &rcols);
        let mut rkeyed = match try_extract_keys(&rkeys, &rrows, layout)? {
            Some(k) => k,
            None => {
                layout = KeyLayout::Generic;
                extract_generic(&rkeys, &rrows)?
            }
        };

        // Offer the build keys to an INNER join's probe-side scan. LEFT
        // joins must see every probe row to null-extend, and generic keys
        // have no digest.
        let probe_scan = ScanSpec::of(left)
            .filter(|_| kind == JoinKind::Inner && layout != KeyLayout::Generic)
            .zip(lkeys[0].as_column());
        let lrows = match probe_scan {
            Some((spec, col)) => {
                let probe = ProbeKeys { col, keys: &rkeyed };
                let rows = self.src.scan(&spec, lmask, Some(&probe), self.profile)?;
                self.record(left, &rows);
                rows
            }
            None => self.run(left, lmask)?,
        };

        let lkeyed = match try_extract_keys(&lkeys, &lrows, layout)? {
            Some(k) => k,
            None => {
                // A probe value fell outside the layout class. A typed layout
                // over a bare scan column always yields in-class values, so
                // no filter was pushed and re-extracting both sides
                // generically is safe and exact.
                rkeyed = extract_generic(&rkeys, &rrows)?;
                extract_generic(&lkeys, &lrows)?
            }
        };

        let residual_on = if on_covered { None } else { Some(&bound_on) };
        let (out, bloom_skipped) =
            hash_join(&lrows, &rrows, kind, &lkeyed, &rkeyed, residual_on, rwidth, workers)?;
        if let Some(prof) = self.profile {
            prof.record_bloom(plan, bloom_skipped);
        }
        Ok(out)
    }

    fn run_aggregate(
        &self,
        input: &Plan,
        group_exprs: &[Expr],
        aggs: &[AggCall],
    ) -> Result<Vec<Row>> {
        let cols = input.cols();
        let resolver = resolver_of(&cols);
        let bound_keys: Vec<BoundExpr> =
            group_exprs.iter().map(|e| bind(e, &resolver)).collect::<Result<_>>()?;
        let bound_args: Vec<Option<BoundExpr>> = aggs
            .iter()
            .map(|a| a.arg.as_ref().map(|e| bind(e, &resolver)).transpose())
            .collect::<Result<_>>()?;

        let refs: Vec<&BoundExpr> = bound_keys.iter().chain(bound_args.iter().flatten()).collect();
        let rows = self.run(input, Some(mask_of(cols.len(), &refs)))?;

        let workers = self.src.workers();
        let groups = if workers > 1 && rows.len() > 1 {
            let chunk = rows.len().div_ceil(workers).max(1);
            let chunks: Vec<&[Row]> = rows.chunks(chunk).collect();
            let parts: Vec<Groups> = run_parts(chunks.len(), |ci| {
                aggregate_rows(chunks[ci], &bound_keys, &bound_args, aggs)
            })?
            .into_iter()
            .collect::<Result<_>>()?;
            merge_groups(parts)?
        } else {
            aggregate_rows(&rows, &bound_keys, &bound_args, aggs)?
        };
        finish_groups(groups, group_exprs, aggs)
    }
}

/// Comparator over `Plan::Sort` keys (shared by sort and top-K).
fn sort_cmp(keys: &[(usize, bool)]) -> impl Fn(&Row, &Row) -> std::cmp::Ordering + Sync + '_ {
    move |a, b| {
        for (i, desc) in keys {
            let o = a[*i].cmp_total(&b[*i]);
            let o = if *desc { o.reverse() } else { o };
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        std::cmp::Ordering::Equal
    }
}

/// Stable sort, parallelized as chunk-sorts plus a k-way merge that breaks
/// ties toward the earliest chunk — output is identical to a serial stable
/// sort regardless of worker count.
fn sort_rows(mut rows: Vec<Row>, keys: &[(usize, bool)], workers: usize) -> Result<Vec<Row>> {
    let cmp = sort_cmp(keys);
    if workers <= 1 || rows.len() <= 1 {
        rows.sort_by(&cmp);
        return Ok(rows);
    }
    let chunk = rows.len().div_ceil(workers).max(1);
    {
        // Each worker sorts one disjoint chunk in place; the locks, each
        // taken once, only hand the `&mut` chunks across threads.
        let parts: Vec<Mutex<&mut [Row]>> = rows.chunks_mut(chunk).map(Mutex::new).collect();
        run_parts(parts.len(), |i| {
            parts[i].lock().expect("each chunk is locked by its one worker").sort_by(&cmp)
        })?;
    }
    let mut bounds: Vec<(usize, usize)> = Vec::new();
    let mut start = 0;
    while start < rows.len() {
        let end = (start + chunk).min(rows.len());
        bounds.push((start, end));
        start = end;
    }
    let mut cursors: Vec<usize> = bounds.iter().map(|(s, _)| *s).collect();
    let mut out = Vec::with_capacity(rows.len());
    loop {
        let mut best: Option<usize> = None;
        for ci in 0..bounds.len() {
            if cursors[ci] >= bounds[ci].1 {
                continue;
            }
            best = match best {
                None => Some(ci),
                Some(b)
                    if cmp(&rows[cursors[ci]], &rows[cursors[b]])
                        == std::cmp::Ordering::Less =>
                {
                    Some(ci)
                }
                keep => keep,
            };
        }
        match best {
            None => break,
            Some(b) => {
                out.push(std::mem::take(&mut rows[cursors[b]]));
                cursors[b] += 1;
            }
        }
    }
    Ok(out)
}

/// Bounded top-K selection: the `k` smallest rows under `(cmp, input
/// position)`, in that order — exactly a stable sort followed by
/// `truncate(k)`, without sorting the rest.
fn top_k<F: Fn(&Row, &Row) -> std::cmp::Ordering>(rows: Vec<Row>, k: usize, cmp: F) -> Vec<Row> {
    if k == 0 {
        return Vec::new();
    }
    // Sorted buffer of the current best k, worst last. Entries carry their
    // input position so ties keep first-seen order (stable-sort semantics).
    let mut buf: Vec<(usize, Row)> = Vec::with_capacity(k + 1);
    for (seq, row) in rows.into_iter().enumerate() {
        if let Some((_, worst)) = buf.last().filter(|_| buf.len() == k) {
            // Existing entries always have earlier positions, so an Equal
            // comparison means the newcomer loses the tiebreak too.
            if cmp(&row, worst) != std::cmp::Ordering::Less {
                continue;
            }
        }
        let pos = buf.partition_point(|(_, b)| cmp(b, &row) != std::cmp::Ordering::Greater);
        buf.insert(pos, (seq, row));
        buf.truncate(k);
    }
    buf.into_iter().map(|(_, r)| r).collect()
}

/// How a join's equi-key tuple is represented during build and probe.
/// The layout is decided *statically* from the declared column types of the
/// key expressions — integer↔integer keys compare exactly as raw `i64` and
/// character↔character keys as trimmed strings, matching [`Value`] equality
/// for those type pairs — and *verified* during extraction: any value
/// outside the layout's class falls the whole join back to the generic
/// `Vec<Value>` representation. Exact-or-fallback, like every kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyLayout {
    I64,
    Str,
    Generic,
}

impl KeyLayout {
    /// The layout as `EXPLAIN`'s PIPELINE line names it.
    pub fn describe(self) -> &'static str {
        match self {
            KeyLayout::I64 => "typed i64 keys",
            KeyLayout::Str => "typed string keys",
            KeyLayout::Generic => "generic keys",
        }
    }
}

/// One row's join key under a [`KeyLayout`]. Both sides of a join always
/// share a layout, so equality never compares across variants.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum JoinKey {
    I64(i64),
    /// Trailing blanks already trimmed (DB2 padded CHAR comparison).
    Str(String),
    Row(Vec<Value>),
}

impl JoinKey {
    /// Hash in the layout's shared domain: typed keys use the wire-level
    /// key hashes (the same domain fleet gather summaries are built in),
    /// generic keys keep the `Vec<Value>` hasher.
    fn key_hash(&self) -> u64 {
        match self {
            JoinKey::I64(v) => key_hash_i64(*v),
            JoinKey::Str(s) => key_hash_str(s),
            JoinKey::Row(key) => {
                let mut hasher = std::collections::hash_map::DefaultHasher::new();
                key.hash(&mut hasher);
                hasher.finish()
            }
        }
    }
}

/// One side's keys, extracted once: `None` marks a NULL key (SQL join keys
/// never match on NULL), else the key plus its 64-bit hash.
pub type Keyed = Vec<Option<(u64, JoinKey)>>;

/// A derived join-key filter offered to the probe-side scan of an INNER
/// hash join: the build side's typed keys, and the probe key's ordinal in
/// the scan's output.
pub struct ProbeKeys<'a> {
    /// Probe key ordinal in the scan's output.
    pub col: usize,
    keys: &'a Keyed,
}

impl ProbeKeys<'_> {
    /// Digest the build keys (min-max + Bloom), on demand so a source that
    /// ignores the filter pays nothing. The digest only ever
    /// false-positives: every build key tests present. `None` for generic
    /// keys, which have no digest.
    pub fn summary(&self) -> Option<KeySummary> {
        let mut summary = KeySummary::with_capacity(self.keys.len());
        for (_, key) in self.keys.iter().flatten() {
            match key {
                JoinKey::I64(v) => summary.insert_i64(*v),
                JoinKey::Str(s) => summary.insert_str(s),
                JoinKey::Row(_) => return None,
            }
        }
        Some(summary)
    }
}

/// Declared types whose values compare exactly as raw `i64` among
/// themselves under [`Value`] integer-family equality.
pub fn int_key_type(t: DataType) -> bool {
    matches!(t, DataType::SmallInt | DataType::Integer | DataType::BigInt)
}

/// Pick the key layout a join's equi-keys admit. Only single-key joins on
/// bare columns qualify for a typed layout: mixed-type pairs (e.g. INT vs
/// DOUBLE) must keep full [`Value`] equality semantics, and multi-key
/// tuples keep the generic path.
pub fn key_layout(
    lkeys: &[BoundExpr],
    lcols: &[PlanCol],
    rkeys: &[BoundExpr],
    rcols: &[PlanCol],
) -> KeyLayout {
    if lkeys.len() != 1 {
        return KeyLayout::Generic;
    }
    let (Some(li), Some(ri)) = (lkeys[0].as_column(), rkeys[0].as_column()) else {
        return KeyLayout::Generic;
    };
    let lt = lcols[li].data_type;
    let rt = rcols[ri].data_type;
    if int_key_type(lt) && int_key_type(rt) {
        KeyLayout::I64
    } else if lt.is_character() && rt.is_character() {
        KeyLayout::Str
    } else {
        KeyLayout::Generic
    }
}

/// Evaluate one side's keys once, into the shared layout. Returns
/// `Ok(None)` when a value falls outside the layout's class (the declared
/// type lied — e.g. an expression rewrote the column) — the caller then
/// re-extracts *both* sides generically.
pub fn try_extract_keys(
    keys: &[BoundExpr],
    rows: &[Row],
    layout: KeyLayout,
) -> Result<Option<Keyed>> {
    if layout == KeyLayout::Generic {
        return extract_generic(keys, rows).map(Some);
    }
    let key_expr = &keys[0];
    let mut out: Keyed = Vec::with_capacity(rows.len());
    for row in rows {
        let Some(k) = key_of(layout, eval(key_expr, row)?) else { return Ok(None) };
        out.push(k.map(|k| (k.key_hash(), k)));
    }
    Ok(Some(out))
}

/// One single-column key value under `layout`: `Some(None)` for NULL (SQL
/// join keys never match on NULL), `None` when the value falls outside the
/// layout's class.
pub fn key_of(layout: KeyLayout, v: Value) -> Option<Option<JoinKey>> {
    Some(match (layout, v) {
        (_, Value::Null) => None,
        (KeyLayout::I64, Value::SmallInt(x)) => Some(JoinKey::I64(x as i64)),
        (KeyLayout::I64, Value::Int(x)) => Some(JoinKey::I64(x as i64)),
        (KeyLayout::I64, Value::BigInt(x)) => Some(JoinKey::I64(x)),
        (KeyLayout::Str, Value::Varchar(mut s)) => {
            s.truncate(s.trim_end_matches(' ').len());
            Some(JoinKey::Str(s))
        }
        (KeyLayout::Generic, v) => Some(JoinKey::Row(vec![v])),
        _ => return None,
    })
}

/// Generic key extraction: the full `Vec<Value>` tuple per row, evaluated
/// once per side (never re-hashed per probe).
pub fn extract_generic(keys: &[BoundExpr], rows: &[Row]) -> Result<Keyed> {
    rows.iter()
        .map(|row| {
            let key: Vec<Value> = keys.iter().map(|k| eval(k, row)).collect::<Result<_>>()?;
            if key.iter().any(Value::is_null) {
                return Ok(None);
            }
            let k = JoinKey::Row(key);
            Ok(Some((k.key_hash(), k)))
        })
        .collect()
}

/// Split an ON predicate into equi-key pairs bindable against the two
/// sides. Returns the key expression lists plus the total conjunct count
/// (equal lengths mean key equality covers the whole predicate).
pub fn equi_keys(
    on: &Expr,
    lres: &FlatResolver,
    rres: &FlatResolver,
) -> (Vec<BoundExpr>, Vec<BoundExpr>, usize) {
    let conjs = split_conjuncts(on);
    let total = conjs.len();
    let mut lkeys: Vec<BoundExpr> = Vec::new();
    let mut rkeys: Vec<BoundExpr> = Vec::new();
    for conj in conjs {
        if let Expr::Binary { left: a, op: BinaryOp::Eq, right: b } = conj {
            if let (Ok(la), Ok(rb)) = (bind(a, lres), bind(b, rres)) {
                lkeys.push(la);
                rkeys.push(rb);
                continue;
            }
            if let (Ok(lb), Ok(ra)) = (bind(b, lres), bind(a, rres)) {
                lkeys.push(lb);
                rkeys.push(ra);
            }
        }
    }
    (lkeys, rkeys, total)
}

/// Partitioned parallel hash join over pre-extracted keys: both sides are
/// split by key hash across the worker pool, each partition builds a hash
/// table *and a Bloom filter* over its build keys and probes independently,
/// and partition outputs concatenate in partition order (deterministic for
/// a given configuration). The Bloom filter is consulted before any hash
/// table lookup; it only ever false-positives, so skipped probes are
/// exactly the hash-table misses (the second returned value counts them).
/// LEFT-join padding stays correct because a probe row's key maps it to
/// exactly one partition — a Bloom skip leaves `matched` false and the row
/// null-extends in place; probe rows with NULL keys ride along in
/// partition 0 and can only null-extend.
#[allow(clippy::too_many_arguments)]
fn hash_join(
    lrows: &[Row],
    rrows: &[Row],
    kind: JoinKind,
    lkeyed: &Keyed,
    rkeyed: &Keyed,
    residual_on: Option<&BoundExpr>,
    rwidth: usize,
    workers: usize,
) -> Result<(Vec<Row>, u64)> {
    let parts = workers.clamp(1, lrows.len().max(1));
    let mut build_parts: Vec<Vec<usize>> = vec![Vec::new(); parts];
    for (i, k) in rkeyed.iter().enumerate() {
        if let Some((h, _)) = k {
            build_parts[(h % parts as u64) as usize].push(i);
        }
    }
    let mut probe_parts: Vec<Vec<usize>> = vec![Vec::new(); parts];
    for (i, k) in lkeyed.iter().enumerate() {
        let h = k.as_ref().map(|(h, _)| *h).unwrap_or(0);
        probe_parts[(h % parts as u64) as usize].push(i);
    }

    let results = run_parts(parts, |p| -> Result<(Vec<Row>, u64)> {
        let mut table: HashMap<u64, Vec<usize>> = HashMap::with_capacity(build_parts[p].len());
        let mut bloom = KeySummary::with_capacity(build_parts[p].len());
        for &ri in &build_parts[p] {
            if let Some((h, _)) = &rkeyed[ri] {
                bloom.insert_hash(*h);
                table.entry(*h).or_default().push(ri);
            }
        }
        let mut out = Vec::new();
        let mut skipped = 0u64;
        for &li in &probe_parts[p] {
            let mut matched = false;
            if let Some((h, key)) = &lkeyed[li] {
                if !bloom.might_contain(*h) {
                    skipped += 1;
                } else if let Some(cands) = table.get(h) {
                    for &ri in cands {
                        if !matches!(&rkeyed[ri], Some((_, rkey)) if rkey == key) {
                            continue; // same hash bucket, different key
                        }
                        let mut j = lrows[li].clone();
                        j.extend(rrows[ri].iter().cloned());
                        if let Some(b) = residual_on {
                            if !eval_predicate(b, &j)? {
                                continue;
                            }
                        }
                        matched = true;
                        out.push(j);
                    }
                }
            }
            if !matched && kind == JoinKind::Left {
                let mut j = lrows[li].clone();
                j.extend(std::iter::repeat_n(Value::Null, rwidth));
                out.push(j);
            }
        }
        Ok((out, skipped))
    })?;
    let mut out = Vec::new();
    let mut skipped = 0u64;
    for r in results {
        let (rows, s) = r?;
        out.extend(rows);
        skipped += s;
    }
    Ok((out, skipped))
}

/// Nested-loop join for non-equi conditions, parallelized over contiguous
/// probe chunks — chunk order concatenation reproduces the serial output
/// exactly.
fn nested_loop_join(
    lrows: &[Row],
    rrows: &[Row],
    kind: JoinKind,
    bound_on: &BoundExpr,
    rwidth: usize,
    workers: usize,
) -> Result<Vec<Row>> {
    let chunk = lrows.len().div_ceil(workers.max(1)).max(1);
    let chunks: Vec<&[Row]> = lrows.chunks(chunk).collect();
    let results = run_parts(chunks.len(), |ci| -> Result<Vec<Row>> {
        let mut out = Vec::new();
        for lrow in chunks[ci] {
            let mut matched = false;
            for rrow in rrows {
                let mut j = lrow.clone();
                j.extend(rrow.iter().cloned());
                if eval_predicate(bound_on, &j)? {
                    matched = true;
                    out.push(j);
                }
            }
            if !matched && kind == JoinKind::Left {
                let mut j = lrow.clone();
                j.extend(std::iter::repeat_n(Value::Null, rwidth));
                out.push(j);
            }
        }
        Ok(out)
    })?;
    let mut out = Vec::new();
    for r in results {
        out.extend(r?);
    }
    Ok(out)
}

/// Grouped partial-aggregation state: insertion-ordered groups plus a key
/// index. Insertion order is what makes chunked aggregation deterministic —
/// merging chunk results in chunk order reproduces the serial
/// first-encounter group order exactly.
pub type Groups = Vec<(Vec<Value>, Vec<AggState>)>;

/// Aggregate one run of rows into insertion-ordered groups.
fn aggregate_rows(
    rows: &[Row],
    bound_keys: &[BoundExpr],
    bound_args: &[Option<BoundExpr>],
    aggs: &[AggCall],
) -> Result<Groups> {
    let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut groups: Groups = Vec::new();
    for row in rows {
        let key: Vec<Value> = bound_keys.iter().map(|k| eval(k, row)).collect::<Result<_>>()?;
        let gi = match index.get(&key) {
            Some(&i) => i,
            None => {
                groups.push((
                    key.clone(),
                    aggs.iter().map(|a| AggState::new(a.kind, a.distinct)).collect(),
                ));
                index.insert(key, groups.len() - 1);
                groups.len() - 1
            }
        };
        for (state, arg) in groups[gi].1.iter_mut().zip(bound_args) {
            let v = match arg {
                Some(b) => eval(b, row)?,
                None => Value::Null, // COUNT(*) counts the row regardless
            };
            state.update(&v)?;
        }
    }
    Ok(groups)
}

/// Fold per-worker partial groups together in worker order.
pub fn merge_groups(parts: Vec<Groups>) -> Result<Groups> {
    let mut iter = parts.into_iter();
    let mut acc = iter.next().unwrap_or_default();
    let mut index: HashMap<Vec<Value>, usize> =
        acc.iter().enumerate().map(|(i, (k, _))| (k.clone(), i)).collect();
    for part in iter {
        for (key, states) in part {
            match index.get(&key) {
                Some(&i) => {
                    for (a, b) in acc[i].1.iter_mut().zip(&states) {
                        a.merge(b)?;
                    }
                }
                None => {
                    index.insert(key.clone(), acc.len());
                    acc.push((key, states));
                }
            }
        }
    }
    Ok(acc)
}

/// Turn finished groups into output rows (`key columns… then aggregates…`).
/// Global aggregation over an empty input still yields one group.
pub fn finish_groups(
    mut groups: Groups,
    group_exprs: &[Expr],
    aggs: &[AggCall],
) -> Result<Vec<Row>> {
    if groups.is_empty() && group_exprs.is_empty() {
        groups.push((vec![], aggs.iter().map(|a| AggState::new(a.kind, a.distinct)).collect()));
    }
    groups
        .into_iter()
        .map(|(mut key, states)| {
            for s in states {
                key.push(s.finish()?);
            }
            Ok(key)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan_query, SchemaProvider};
    use crate::{parse_statement, Statement};
    use idaa_common::{ColumnDef, Schema};

    /// An in-memory source: tables as row vectors, filters as row loops. It
    /// honours projection masks (unread columns come back NULL), so every
    /// query test also checks that mask pushdown never hides a column an
    /// operator reads.
    struct Mem {
        tables: HashMap<String, (Schema, Vec<Row>)>,
        workers: usize,
    }

    impl Mem {
        fn demo(workers: usize) -> Mem {
            let mut tables = HashMap::new();
            tables.insert(
                "EMP".to_string(),
                (
                    Schema::new(vec![
                        ColumnDef::new("ID", DataType::Integer),
                        ColumnDef::new("DEPT", DataType::Varchar(8)),
                        ColumnDef::new("PAY", DataType::Integer),
                    ])
                    .unwrap(),
                    vec![
                        vec![Value::Int(1), Value::Varchar("ENG".into()), Value::Int(100)],
                        vec![Value::Int(2), Value::Varchar("ENG".into()), Value::Int(200)],
                        vec![Value::Int(3), Value::Varchar("OPS".into()), Value::Int(150)],
                        vec![Value::Int(4), Value::Varchar("OPS".into()), Value::Null],
                    ],
                ),
            );
            tables.insert(
                "DEPT".to_string(),
                (
                    Schema::new(vec![
                        ColumnDef::new("NAME", DataType::Varchar(8)),
                        ColumnDef::new("SITE", DataType::Varchar(8)),
                    ])
                    .unwrap(),
                    vec![
                        vec![Value::Varchar("ENG".into()), Value::Varchar("BB".into())],
                        vec![Value::Varchar("FIN".into()), Value::Varchar("NY".into())],
                    ],
                ),
            );
            Mem { tables, workers }
        }
    }

    impl SchemaProvider for Mem {
        fn table_schema(&self, name: &ObjectName) -> Result<Schema> {
            self.tables
                .get(&name.name)
                .map(|(s, _)| s.clone())
                .ok_or_else(|| Error::UndefinedObject(name.to_string()))
        }
    }

    impl Source for Mem {
        fn scan(
            &self,
            spec: &ScanSpec,
            needed: Option<Vec<bool>>,
            _probe: Option<&ProbeKeys>,
            _profile: Option<&PlanProfile>,
        ) -> Result<Vec<Row>> {
            let mut rows = self
                .tables
                .get(&spec.table.name)
                .map(|(_, r)| r.clone())
                .ok_or_else(|| Error::UndefinedObject(spec.table.to_string()))?;
            if let Some(p) = spec.predicate {
                rows = filter_rows(rows, &bind(p, &resolver_of(spec.cols))?)?;
            }
            if let Some(m) = needed {
                for row in &mut rows {
                    for (i, v) in row.iter_mut().enumerate() {
                        if !m.get(i).copied().unwrap_or(false) {
                            *v = Value::Null;
                        }
                    }
                }
            }
            Ok(rows)
        }

        fn workers(&self) -> usize {
            self.workers
        }
    }

    fn run_sql(sql: &str, workers: usize) -> Rows {
        let mem = Mem::demo(workers);
        let Statement::Query(query) = parse_statement(sql).unwrap() else { panic!() };
        let plan = plan_query(&query, &mem).unwrap();
        execute_plan(&plan, &mem, None).unwrap()
    }

    /// Run `sql` serially, and check three workers give the same answer.
    fn q(sql: &str) -> Rows {
        let serial = run_sql(sql, 1);
        assert_eq!(run_sql(sql, 3).rows, serial.rows, "parallel disagrees on {sql}");
        serial
    }

    #[test]
    fn scan_project_filter() {
        let r = q("SELECT id FROM emp WHERE pay > 120");
        assert_eq!(r.len(), 2);
        let ids: Vec<i64> = r.rows.iter().map(|x| x[0].as_i64().unwrap()).collect();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn null_pay_filtered_out() {
        let r = q("SELECT id FROM emp WHERE pay < 1000");
        assert_eq!(r.len(), 3, "NULL pay must not satisfy the predicate");
    }

    #[test]
    fn computed_projection() {
        let r = q("SELECT id * 10 AS x FROM emp WHERE id = 1");
        assert_eq!(r.scalar().unwrap(), &Value::BigInt(10));
        assert_eq!(r.schema.columns()[0].name, "X");
    }

    #[test]
    fn order_and_limit() {
        let r = q("SELECT id FROM emp ORDER BY pay DESC LIMIT 2");
        // NULL sorts high... DESC reverses: NULL first.
        assert_eq!(r.rows[0][0], Value::Int(4));
        assert_eq!(r.rows[1][0], Value::Int(2));
    }

    #[test]
    fn group_by_aggregates() {
        let r = q("SELECT dept, COUNT(*), SUM(pay), AVG(pay) FROM emp GROUP BY dept ORDER BY dept");
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[0][0], Value::Varchar("ENG".into()));
        assert_eq!(r.rows[0][1], Value::BigInt(2));
        assert_eq!(r.rows[0][2], Value::BigInt(300));
        assert_eq!(r.rows[0][3], Value::Double(150.0));
        // OPS: one NULL pay -> SUM=150, COUNT(*)=2
        assert_eq!(r.rows[1][1], Value::BigInt(2));
        assert_eq!(r.rows[1][2], Value::BigInt(150));
    }

    #[test]
    fn global_aggregate_on_empty_filter() {
        let r = q("SELECT COUNT(*), SUM(pay) FROM emp WHERE id > 100");
        assert_eq!(r.rows[0][0], Value::BigInt(0));
        assert!(r.rows[0][1].is_null());
    }

    #[test]
    fn having_filters_groups() {
        let r = q("SELECT dept FROM emp GROUP BY dept HAVING SUM(pay) > 200");
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::Varchar("ENG".into()));
    }

    #[test]
    fn inner_join_hash_path() {
        let r = q("SELECT e.id, d.site FROM emp e INNER JOIN dept d ON e.dept = d.name ORDER BY e.id");
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[0][1], Value::Varchar("BB".into()));
    }

    #[test]
    fn left_join_emits_nulls() {
        let r = q("SELECT e.id, d.site FROM emp e LEFT JOIN dept d ON e.dept = d.name ORDER BY e.id");
        assert_eq!(r.len(), 4);
        assert!(r.rows[2][1].is_null(), "OPS has no dept row");
    }

    #[test]
    fn non_equi_join_nested_loop() {
        let r = q("SELECT e.id FROM emp e INNER JOIN dept d ON e.pay > 100 AND d.site = 'BB'");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn distinct_rows() {
        let r = q("SELECT DISTINCT dept FROM emp ORDER BY dept");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn count_distinct() {
        let r = q("SELECT COUNT(DISTINCT dept) FROM emp");
        assert_eq!(r.scalar().unwrap(), &Value::BigInt(2));
    }

    #[test]
    fn subquery_pipeline() {
        let r = q("SELECT x + 1 AS y FROM (SELECT pay AS x FROM emp WHERE dept = 'ENG') s ORDER BY y");
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[0][0], Value::BigInt(101));
    }

    #[test]
    fn fromless_select() {
        let r = q("SELECT 1 + 1");
        assert_eq!(r.scalar().unwrap(), &Value::BigInt(2));
    }

    #[test]
    fn case_in_projection() {
        let r = q("SELECT id, CASE WHEN pay IS NULL THEN 'unknown' ELSE 'known' END FROM emp ORDER BY id");
        assert_eq!(r.rows[3][1], Value::Varchar("unknown".into()));
    }

    /// Deterministic pseudo-random rows: (key, payload) pairs with heavy
    /// key duplication so joins and sorts exercise ties.
    fn synth_rows(n: usize, seed: u64, key_mod: i64) -> Vec<Row> {
        let mut x = seed;
        (0..n)
            .map(|i| {
                // splitmix64 step — fixed, no external RNG.
                x = x.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^= z >> 31;
                vec![Value::BigInt((z % key_mod as u64) as i64), Value::BigInt(i as i64)]
            })
            .collect()
    }

    fn canon(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort_by(|a, b| {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| x.cmp_total(y))
                .find(|o| *o != std::cmp::Ordering::Equal)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        rows
    }

    #[test]
    fn worker_panic_fails_the_call_not_the_process() {
        let r = run_parts(3, |i| {
            if i == 1 {
                panic!("injected worker failure");
            }
            i
        });
        let err = r.expect_err("a panicking part must fail the call");
        assert_eq!(err.sqlcode(), -901);
        // Nothing is poisoned: the next call runs normally.
        assert_eq!(run_parts(3, |i| i * 2).unwrap(), vec![0, 2, 4]);
    }

    #[test]
    fn parallel_sort_matches_serial() {
        let rows = synth_rows(501, 7, 13);
        let keys = [(0usize, false), (1usize, true)];
        let serial = sort_rows(rows.clone(), &keys, 1).unwrap();
        for workers in [2, 3, 4, 8] {
            let par = sort_rows(rows.clone(), &keys, workers).unwrap();
            assert_eq!(par, serial, "workers={workers}");
        }
    }

    #[test]
    fn parallel_sort_is_stable_like_serial() {
        // Many ties on the single sort key: the k-way merge must preserve
        // the original relative order of equal rows, like the serial
        // stable sort does.
        let rows = synth_rows(200, 3, 4);
        let keys = [(0usize, false)];
        let serial = sort_rows(rows.clone(), &keys, 1).unwrap();
        assert_eq!(sort_rows(rows, &keys, 4).unwrap(), serial);
    }

    #[test]
    fn top_k_matches_stable_sort_truncate() {
        let rows = synth_rows(300, 11, 9);
        let keys = [(0usize, true)];
        for k in [0usize, 1, 5, 50, 299, 300, 400] {
            let mut expect = sort_rows(rows.clone(), &keys, 1).unwrap();
            expect.truncate(k);
            let got = top_k(rows.clone(), k, sort_cmp(&keys));
            assert_eq!(got, expect, "k={k}");
        }
    }

    /// Extract both sides under `layout`, with the whole-join generic
    /// fallback `run_join` applies when a value falls outside the class.
    fn extract_both(
        lkeys: &[BoundExpr],
        lrows: &[Row],
        rkeys: &[BoundExpr],
        rrows: &[Row],
        layout: KeyLayout,
    ) -> (Keyed, Keyed) {
        match (
            try_extract_keys(lkeys, lrows, layout).unwrap(),
            try_extract_keys(rkeys, rrows, layout).unwrap(),
        ) {
            (Some(l), Some(r)) => (l, r),
            _ => (
                extract_generic(lkeys, lrows).unwrap(),
                extract_generic(rkeys, rrows).unwrap(),
            ),
        }
    }

    #[test]
    fn hash_join_parallel_matches_serial() {
        let mut lrows = synth_rows(400, 1, 37);
        let mut rrows = synth_rows(350, 2, 37);
        // Sprinkle NULL keys on both sides: they must never match, and
        // LEFT joins must null-extend the probe-side ones exactly once.
        for i in (0..rrows.len()).step_by(41) {
            rrows[i][0] = Value::Null;
        }
        for i in (0..lrows.len()).step_by(53) {
            lrows[i][0] = Value::Null;
        }
        let lkeys = [BoundExpr::Column(0)];
        let rkeys = [BoundExpr::Column(0)];
        for layout in [KeyLayout::I64, KeyLayout::Generic] {
            let (lkeyed, rkeyed) = extract_both(&lkeys, &lrows, &rkeys, &rrows, layout);
            for kind in [JoinKind::Inner, JoinKind::Left] {
                let (serial, _) =
                    hash_join(&lrows, &rrows, kind, &lkeyed, &rkeyed, None, 2, 1).unwrap();
                for workers in [2, 4, 8] {
                    let (par, _) =
                        hash_join(&lrows, &rrows, kind, &lkeyed, &rkeyed, None, 2, workers)
                            .unwrap();
                    // Partition concatenation order differs from serial row
                    // order, but the multiset of joined rows is identical.
                    assert_eq!(
                        canon(par),
                        canon(serial.clone()),
                        "{layout:?} {kind:?} workers={workers}"
                    );
                }
                if kind == JoinKind::Left {
                    let padded = serial
                        .iter()
                        .filter(|r| r[2] == Value::Null && r[3] == Value::Null)
                        .count();
                    assert!(padded > 0, "expected null-extended probe rows");
                }
            }
        }
    }

    /// Row-at-a-time oracle from the join's defining semantics: probe rows
    /// in input order, each matched against build rows in input order, NULL
    /// keys never matching, LEFT padding in place.
    fn oracle_join(lrows: &[Row], rrows: &[Row], kind: JoinKind) -> Vec<Row> {
        let mut out = Vec::new();
        for lrow in lrows {
            let mut matched = false;
            for rrow in rrows {
                if lrow[0] == Value::Null || rrow[0] == Value::Null || lrow[0] != rrow[0] {
                    continue;
                }
                let mut j = lrow.clone();
                j.extend(rrow.iter().cloned());
                matched = true;
                out.push(j);
            }
            if !matched && kind == JoinKind::Left {
                let mut j = lrow.clone();
                j.extend(std::iter::repeat_n(Value::Null, 2));
                out.push(j);
            }
        }
        out
    }

    #[test]
    fn hash_join_serial_output_order_is_pinned() {
        let mut lrows = synth_rows(150, 9, 13);
        let mut rrows = synth_rows(120, 10, 13);
        for i in (0..rrows.len()).step_by(17) {
            rrows[i][0] = Value::Null;
        }
        for i in (0..lrows.len()).step_by(19) {
            lrows[i][0] = Value::Null;
        }
        let keys = [BoundExpr::Column(0)];
        for layout in [KeyLayout::I64, KeyLayout::Generic] {
            let (lkeyed, rkeyed) = extract_both(&keys, &lrows, &keys, &rrows, layout);
            for kind in [JoinKind::Inner, JoinKind::Left] {
                // One partition ⇒ byte-identical to the nested oracle, not
                // just the same multiset: probe order, then build order.
                let (got, _) =
                    hash_join(&lrows, &rrows, kind, &lkeyed, &rkeyed, None, 2, 1).unwrap();
                assert_eq!(got, oracle_join(&lrows, &rrows, kind), "{layout:?} {kind:?}");
            }
        }
    }

    #[test]
    fn typed_key_extraction_falls_back_on_layout_violation() {
        let keys = [BoundExpr::Column(0)];
        // A Double value under the I64 layout: the whole side refuses.
        let rows = vec![vec![Value::BigInt(1)], vec![Value::Double(2.5)]];
        assert!(try_extract_keys(&keys, &rows, KeyLayout::I64).unwrap().is_none());
        // A number under the Str layout likewise.
        let rows = vec![vec![Value::Varchar("a".into())], vec![Value::Int(3)]];
        assert!(try_extract_keys(&keys, &rows, KeyLayout::Str).unwrap().is_none());
        // The generic layout accepts anything.
        let rows = vec![vec![Value::BigInt(1)], vec![Value::Double(2.5)], vec![Value::Null]];
        let keyed = try_extract_keys(&keys, &rows, KeyLayout::Generic).unwrap().unwrap();
        assert!(keyed[0].is_some() && keyed[1].is_some() && keyed[2].is_none());
    }

    #[test]
    fn string_keys_join_with_db2_padded_semantics() {
        // 'EU' must join 'EU  ' under both the typed and generic layouts,
        // exactly like Value equality for CHAR-family pairs.
        let lrows: Vec<Row> =
            vec![vec![Value::Varchar("EU".into())], vec![Value::Varchar("US ".into())]];
        let rrows: Vec<Row> =
            vec![vec![Value::Varchar("EU  ".into())], vec![Value::Varchar("ASIA".into())]];
        let keys = [BoundExpr::Column(0)];
        let mut outs = Vec::new();
        for layout in [KeyLayout::Str, KeyLayout::Generic] {
            let (lkeyed, rkeyed) = extract_both(&keys, &lrows, &keys, &rrows, layout);
            let (out, _) =
                hash_join(&lrows, &rrows, JoinKind::Inner, &lkeyed, &rkeyed, None, 1, 1)
                    .unwrap();
            outs.push(out);
        }
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[0].len(), 1);
        assert_eq!(outs[0][0][0], Value::Varchar("EU".into()));
    }

    #[test]
    fn nested_loop_parallel_matches_serial_order_exactly() {
        let lrows = synth_rows(120, 5, 11);
        let rrows = synth_rows(90, 6, 11);
        // Non-equi ON: left.key < right.key.
        let on = BoundExpr::Binary {
            left: Box::new(BoundExpr::Column(0)),
            op: BinaryOp::Lt,
            right: Box::new(BoundExpr::Column(2)),
        };
        for kind in [JoinKind::Inner, JoinKind::Left] {
            let serial = nested_loop_join(&lrows, &rrows, kind, &on, 2, 1).unwrap();
            for workers in [2, 4, 7] {
                // Chunk-order concatenation reproduces the serial output
                // byte for byte — not just as a multiset.
                let par = nested_loop_join(&lrows, &rrows, kind, &on, 2, workers).unwrap();
                assert_eq!(par, serial, "{kind:?} workers={workers}");
            }
        }
    }
}
