//! Columnar, slice-parallel data access for the accelerator: its
//! [`Source`] for the shared reference executor (`idaa_sql::exec`).
//!
//! The hot path is the vectorized scan: predicate conjuncts are compiled to
//! a kernel IR (numeric comparisons, BETWEEN ranges, dictionary-code string
//! equality, IS \[NOT\] NULL over bitmap words) and each 4096-row block is
//! processed as a batch — a selection vector of visible positions that
//! every kernel compacts in place over the typed column vectors, with no
//! intermediate row materialization. Whole blocks are skipped via zone
//! maps, and data slices scan in parallel threads. Rows are materialized
//! only for positions that survive visibility + kernel + residual (+ derived
//! join-filter) filtering; the shared operators (join/aggregate/sort/…) run
//! over that much smaller set, and filter→aggregate chains — optionally
//! through an INNER star join — override the reference aggregate by feeding
//! aggregate states directly from the surviving selection. Any conjunct the
//! compiler cannot prove exact (see `guarded_lit`) stays with the
//! row-at-a-time interpreter as a residual — results are always exact,
//! never approximate.

use crate::column::{Column, NullMap};
use crate::engine::AccelEngine;
use crate::mvcc::{RunVisibility, Snapshot};
use crate::table::{AccelTable, Slice, ZoneEntry, BLOCK_ROWS};
use idaa_common::wire::KeySummary;
use idaa_common::{Result, Row, Value};
use idaa_sql::ast::{BinaryOp, Expr, JoinKind};
use idaa_sql::eval::{bind, eval, eval_predicate, AggState, BoundExpr};
use idaa_sql::exec::{
    equi_keys, extract_generic, finish_groups, int_key_type, key_layout, key_of, merge_groups,
    run_parts, try_extract_keys, Exec, Groups, JoinKey, KeyLayout, ProbeKeys, ScanSpec, Source,
};
use idaa_sql::plan::{and_all, resolver_of, split_conjuncts, AggCall, Plan, PlanCol, PlanProfile};
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;

/// Run `f` over every slice of a table — one worker per slice when the
/// engine is parallel, else serially — returning results in slice order.
/// Every slice runs either way; the first error in slice order wins.
fn per_slice<T, F>(ctx: &ExecCtx, slices: &[RwLock<Slice>], f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(&RwLock<Slice>) -> Result<T> + Sync,
{
    let results: Vec<Result<T>> = if ctx.engine.config.parallel {
        run_parts(slices.len(), |si| f(&slices[si]))?
    } else {
        slices.iter().map(f).collect()
    };
    results.into_iter().collect()
}

/// Which execution pipeline the accelerator uses for scans and fused
/// aggregation. `Vectorized` (the default) compiles predicate conjuncts to
/// batch kernels that filter block-sized selection vectors directly over
/// the column vectors; `Interpreted` forces the row-at-a-time expression
/// interpreter with no fused aggregate and no derived join filter — the
/// shared reference executor as is, kept as the exactness oracle and the
/// fallback for any expression the compiler cannot prove exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    #[default]
    Vectorized,
    Interpreted,
}

/// Execution context for one statement: the accelerator's [`Source`] for
/// the shared reference executor (`idaa_sql::exec`). It overrides only the
/// data access — vectorized slice scans with zone maps, late
/// materialization and derived join filters — and the fused aggregate.
pub struct ExecCtx<'a> {
    pub engine: &'a AccelEngine,
    pub snap: Snapshot,
    pub mode: ExecMode,
}

impl Source for ExecCtx<'_> {
    fn scan(
        &self,
        spec: &ScanSpec,
        needed: Option<Vec<bool>>,
        probe: Option<&ProbeKeys>,
        profile: Option<&PlanProfile>,
    ) -> Result<Vec<Row>> {
        let t = self.engine.table(spec.table)?;
        // The interpreted oracle pushes no derived join filter.
        let prefilter = match (self.mode, probe) {
            (ExecMode::Vectorized, Some(p)) => {
                p.summary().map(|summary| ProbeFilter { col: p.col, summary })
            }
            _ => None,
        };
        let pred = spec.predicate.map(|p| (p, spec.cols));
        let prof = profile.map(|p| (p, spec.node));
        scan_filtered_with(&t, pred, self, needed, prof, prefilter.as_ref())
    }

    fn run_node(&self, node: &Plan, exec: &Exec) -> Result<Option<Vec<Row>>> {
        match node {
            Plan::Aggregate { input, group_exprs, aggs, .. }
                if self.mode == ExecMode::Vectorized =>
            {
                try_fused_aggregate(node, input, group_exprs, aggs, self, exec)
            }
            _ => Ok(None),
        }
    }

    fn workers(&self) -> usize {
        self.engine.config.workers()
    }
}


/// Every visible row of `table`, with every column materialized.
pub(crate) fn scan_all(table: &AccelTable, ctx: &ExecCtx) -> Result<Vec<Row>> {
    scan_filtered_with(table, None, ctx, None, None, None)
}

/// The kernel IR: one compiled single-column predicate. A conjunction
/// compiles into a list of kernels that each filter the block's selection
/// vector in turn; anything the compiler can't prove exact stays in the
/// interpreted residual.
#[derive(Debug, Clone)]
enum Kernel {
    /// Numeric comparison against a constant.
    Num { col: usize, op: BinaryOp, val: f64 },
    /// `col [NOT] BETWEEN lo AND hi` over a numeric column.
    Range { col: usize, lo: f64, hi: f64, negated: bool },
    /// String equality / inequality against a constant.
    Str { col: usize, val: String, negated: bool },
    /// `col IS [NOT] NULL` over the packed null bitmap.
    IsNull { col: usize, negated: bool },
}

impl Kernel {
    /// The column whose zone map can prune blocks for this kernel, if any.
    /// String and NULL-ness kernels never prune: zone maps track numeric
    /// min/max only, and staying a superset is the correctness rule.
    fn zone_col(&self) -> Option<usize> {
        match self {
            Kernel::Num { col, .. } | Kernel::Range { col, .. } => Some(*col),
            Kernel::Str { .. } | Kernel::IsNull { .. } => None,
        }
    }

    /// Can the zone map of `z` prove no row in the block matches?
    fn prunes(&self, z: &ZoneEntry) -> bool {
        if !z.valid {
            return false;
        }
        match self {
            Kernel::Num { op, val, .. } => match op {
                BinaryOp::Eq => *val < z.min || *val > z.max,
                BinaryOp::Lt => z.min >= *val,
                BinaryOp::LtEq => z.min > *val,
                BinaryOp::Gt => z.max <= *val,
                BinaryOp::GtEq => z.max < *val,
                BinaryOp::Neq => z.min == z.max && z.min == *val,
                _ => false,
            },
            Kernel::Range { lo, hi, negated: false, .. } => z.max < *lo || z.min > *hi,
            // Every non-NULL row inside [lo, hi] ⇒ NOT BETWEEN matches none
            // (NULL rows never match either way, and zones ignore NULLs).
            Kernel::Range { lo, hi, negated: true, .. } => z.min >= *lo && z.max <= *hi,
            Kernel::Str { .. } | Kernel::IsNull { .. } => false,
        }
    }

    /// Resolve this kernel against one slice's physical column vectors,
    /// picking the tightest typed loop the storage admits. String kernels
    /// reuse the column's memoized dictionary probe, so repeated slices
    /// (and repeated queries) don't re-scan the dictionary.
    fn specialize<'s>(&'s self, slice: &'s Slice) -> SpecKernel<'s> {
        match self {
            Kernel::Num { col, op, val } => {
                let c: &Column = &slice.columns[*col];
                if let (Some(vals), Some(i)) = (c.i64_data(), exact_i64(*val)) {
                    SpecKernel::I64Cmp { vals, nulls: &c.nulls, op: *op, val: i }
                } else if let Some(vals) = c.f64_data() {
                    SpecKernel::F64Cmp { vals, nulls: &c.nulls, op: *op, val: *val }
                } else {
                    SpecKernel::NumCmp { col: c, op: *op, val: *val }
                }
            }
            Kernel::Range { col, lo, hi, negated } => {
                let c: &Column = &slice.columns[*col];
                if let (Some(vals), Some(l), Some(h)) =
                    (c.i64_data(), exact_i64(*lo), exact_i64(*hi))
                {
                    SpecKernel::I64Range { vals, nulls: &c.nulls, lo: l, hi: h, negated: *negated }
                } else if let Some(vals) = c.f64_data() {
                    SpecKernel::F64Range {
                        vals,
                        nulls: &c.nulls,
                        lo: *lo,
                        hi: *hi,
                        negated: *negated,
                    }
                } else {
                    SpecKernel::NumRange { col: c, lo: *lo, hi: *hi, negated: *negated }
                }
            }
            Kernel::Str { col, val, negated } => {
                let c: &Column = &slice.columns[*col];
                let Some(codes) = c.str_codes() else { return SpecKernel::Never };
                SpecKernel::Str {
                    codes,
                    nulls: &c.nulls,
                    matches: c.codes_matching(val),
                    negated: *negated,
                }
            }
            Kernel::IsNull { col, negated } => {
                SpecKernel::IsNull { nulls: &slice.columns[*col].nulls, negated: *negated }
            }
        }
    }
}

/// The f64 image of an i64 column value compares exactly against `v` (in
/// the i64 domain) only when `v` is integral with magnitude strictly below
/// 2^53 — above that, distinct integers share an f64 image and Eq/Neq
/// would lie. Within the limit the typed i64 loop is provably identical to
/// the f64-image comparison the interpreter performs.
fn exact_i64(v: f64) -> Option<i64> {
    const LIMIT: f64 = 9_007_199_254_740_992.0; // 2^53
    if v.fract() == 0.0 && v.abs() < LIMIT {
        Some(v as i64)
    } else {
        None
    }
}

/// A [`Kernel`] resolved against one slice's physical data. Each variant
/// filters a selection vector of candidate positions in place — the batch
/// replacement for the old per-row `matches` test.
enum SpecKernel<'s> {
    I64Cmp { vals: &'s [i64], nulls: &'s NullMap, op: BinaryOp, val: i64 },
    F64Cmp { vals: &'s [f64], nulls: &'s NullMap, op: BinaryOp, val: f64 },
    /// Generic numeric compare through `numeric_at` (DECIMAL storage, or an
    /// i64 column against a fractional / out-of-range literal).
    NumCmp { col: &'s Column, op: BinaryOp, val: f64 },
    I64Range { vals: &'s [i64], nulls: &'s NullMap, lo: i64, hi: i64, negated: bool },
    F64Range { vals: &'s [f64], nulls: &'s NullMap, lo: f64, hi: f64, negated: bool },
    NumRange { col: &'s Column, lo: f64, hi: f64, negated: bool },
    Str { codes: &'s [u32], nulls: &'s NullMap, matches: &'s [u32], negated: bool },
    IsNull { nulls: &'s NullMap, negated: bool },
    /// Structurally impossible (e.g. non-dictionary column): matches nothing.
    Never,
}

/// Compact `sel` in place, keeping positions where `keep` holds. Survivor
/// order stays ascending, which is what keeps vectorized output order
/// identical to the row-at-a-time scan.
#[inline]
fn compact(sel: &mut Vec<u32>, mut keep: impl FnMut(usize) -> bool) {
    let mut w = 0;
    for r in 0..sel.len() {
        if keep(sel[r] as usize) {
            sel[w] = sel[r];
            w += 1;
        }
    }
    sel.truncate(w);
}

/// Typed comparison loop shared by the i64 and f64 kernels.
fn cmp_filter<T: PartialOrd + Copy>(
    sel: &mut Vec<u32>,
    vals: &[T],
    nulls: &NullMap,
    op: BinaryOp,
    val: T,
) {
    match op {
        BinaryOp::Eq => compact(sel, |p| !nulls.is_null(p) && vals[p] == val),
        BinaryOp::Neq => compact(sel, |p| !nulls.is_null(p) && vals[p] != val),
        BinaryOp::Lt => compact(sel, |p| !nulls.is_null(p) && vals[p] < val),
        BinaryOp::LtEq => compact(sel, |p| !nulls.is_null(p) && vals[p] <= val),
        BinaryOp::Gt => compact(sel, |p| !nulls.is_null(p) && vals[p] > val),
        BinaryOp::GtEq => compact(sel, |p| !nulls.is_null(p) && vals[p] >= val),
        _ => sel.clear(),
    }
}

fn range_filter<T: PartialOrd + Copy>(
    sel: &mut Vec<u32>,
    vals: &[T],
    nulls: &NullMap,
    lo: T,
    hi: T,
    negated: bool,
) {
    if negated {
        compact(sel, |p| !(nulls.is_null(p) || vals[p] >= lo && vals[p] <= hi));
    } else {
        compact(sel, |p| !nulls.is_null(p) && vals[p] >= lo && vals[p] <= hi);
    }
}

fn cmp_f64(op: BinaryOp, x: f64, val: f64) -> bool {
    match op {
        BinaryOp::Eq => x == val,
        BinaryOp::Neq => x != val,
        BinaryOp::Lt => x < val,
        BinaryOp::LtEq => x <= val,
        BinaryOp::Gt => x > val,
        BinaryOp::GtEq => x >= val,
        _ => false,
    }
}

impl SpecKernel<'_> {
    /// Filter the selection vector in place, keeping only positions this
    /// kernel accepts. NULL never matches a comparison, matching SQL.
    fn filter(&self, sel: &mut Vec<u32>) {
        match self {
            SpecKernel::I64Cmp { vals, nulls, op, val } => {
                cmp_filter(sel, vals, nulls, *op, *val)
            }
            SpecKernel::F64Cmp { vals, nulls, op, val } => {
                cmp_filter(sel, vals, nulls, *op, *val)
            }
            SpecKernel::NumCmp { col, op, val } => compact(sel, |p| match col.numeric_at(p) {
                None => false,
                Some(x) => cmp_f64(*op, x, *val),
            }),
            SpecKernel::I64Range { vals, nulls, lo, hi, negated } => {
                range_filter(sel, vals, nulls, *lo, *hi, *negated)
            }
            SpecKernel::F64Range { vals, nulls, lo, hi, negated } => {
                range_filter(sel, vals, nulls, *lo, *hi, *negated)
            }
            SpecKernel::NumRange { col, lo, hi, negated } => {
                compact(sel, |p| match col.numeric_at(p) {
                    None => false,
                    Some(x) => (x >= *lo && x <= *hi) != *negated,
                })
            }
            SpecKernel::Str { codes, nulls, matches, negated } => {
                let neg = *negated;
                match matches.len() {
                    0 if !neg => sel.clear(),
                    0 => compact(sel, |p| !nulls.is_null(p)),
                    1 => {
                        let c = matches[0];
                        if neg {
                            compact(sel, |p| !nulls.is_null(p) && codes[p] != c)
                        } else {
                            compact(sel, |p| !nulls.is_null(p) && codes[p] == c)
                        }
                    }
                    _ => compact(sel, |p| {
                        !nulls.is_null(p) && (matches.binary_search(&codes[p]).is_ok() != neg)
                    }),
                }
            }
            SpecKernel::IsNull { nulls, negated } => {
                // Word-at-a-time over the packed bitmap: the 64-bit null
                // word is reloaded only when the selection crosses into
                // the next word.
                let words = nulls.words();
                let neg = *negated;
                let mut cur = usize::MAX;
                let mut word = 0u64;
                compact(sel, |p| {
                    let wi = p / 64;
                    if wi != cur {
                        cur = wi;
                        word = words.get(wi).copied().unwrap_or(0);
                    }
                    ((word >> (p % 64)) & 1 == 1) != neg
                })
            }
            SpecKernel::Never => sel.clear(),
        }
    }
}

/// Resolve a bare column reference against this scan's schema.
fn scan_ordinal(col_expr: &Expr, table: &AccelTable, scan_cols: &[PlanCol]) -> Option<usize> {
    let Expr::Column { qualifier, name } = col_expr else { return None };
    // The qualifier must refer to this scan.
    if let Some(q) = qualifier {
        if !scan_cols.iter().any(|c| c.qualifier.as_deref() == Some(q.as_str())) {
            return None;
        }
    }
    table.schema.index_of(name).ok()
}

/// Literal → f64 under the exactness guard. Kernels compare in f64; an
/// integer literal beyond 2^53 is not exactly representable, which would
/// make equality kernels lie — such predicates stay with the exact
/// residual evaluator.
fn guarded_lit(lit: &Value) -> Option<f64> {
    let val = match lit {
        Value::Null => return None,
        v => v.as_f64().ok()?,
    };
    if let Ok(i) = lit.as_i64() {
        if (val as i64) != i {
            return None;
        }
    }
    Some(val)
}

fn numeric_family(t: idaa_common::DataType) -> bool {
    t.is_numeric()
        || matches!(
            t,
            idaa_common::DataType::Date | idaa_common::DataType::Timestamp | idaa_common::DataType::Boolean
        )
}

/// Try to compile one conjunct into a kernel over `table`'s columns.
fn compile_kernel(conj: &Expr, table: &AccelTable, scan_cols: &[PlanCol]) -> Option<Kernel> {
    match conj {
        Expr::Binary { left, op, right } => {
            let (col_expr, lit, op) = match (left.as_ref(), right.as_ref()) {
                (Expr::Column { .. }, Expr::Literal(v)) => (left.as_ref(), v, *op),
                (Expr::Literal(v), Expr::Column { .. }) => (right.as_ref(), v, flip(*op)?),
                _ => return None,
            };
            let ordinal = scan_ordinal(col_expr, table, scan_cols)?;
            let col_type = table.schema.columns()[ordinal].data_type;
            if numeric_family(col_type) {
                let val = guarded_lit(lit)?;
                if matches!(
                    op,
                    BinaryOp::Eq
                        | BinaryOp::Neq
                        | BinaryOp::Lt
                        | BinaryOp::LtEq
                        | BinaryOp::Gt
                        | BinaryOp::GtEq
                ) {
                    return Some(Kernel::Num { col: ordinal, op, val });
                }
                return None;
            }
            if col_type.is_character() {
                let Value::Varchar(s) = lit else { return None };
                return match op {
                    BinaryOp::Eq => {
                        Some(Kernel::Str { col: ordinal, val: s.clone(), negated: false })
                    }
                    BinaryOp::Neq => {
                        Some(Kernel::Str { col: ordinal, val: s.clone(), negated: true })
                    }
                    _ => None,
                };
            }
            None
        }
        Expr::Between { expr, low, high, negated } => {
            let ordinal = scan_ordinal(expr, table, scan_cols)?;
            if !numeric_family(table.schema.columns()[ordinal].data_type) {
                return None;
            }
            let (Expr::Literal(lo), Expr::Literal(hi)) = (low.as_ref(), high.as_ref()) else {
                return None;
            };
            let lo = guarded_lit(lo)?;
            let hi = guarded_lit(hi)?;
            Some(Kernel::Range { col: ordinal, lo, hi, negated: *negated })
        }
        Expr::IsNull { expr, negated } => {
            let ordinal = scan_ordinal(expr, table, scan_cols)?;
            Some(Kernel::IsNull { col: ordinal, negated: *negated })
        }
        _ => None,
    }
}

fn flip(op: BinaryOp) -> Option<BinaryOp> {
    Some(match op {
        BinaryOp::Eq => BinaryOp::Eq,
        BinaryOp::Neq => BinaryOp::Neq,
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        _ => return None,
    })
}

/// Any-kernel zone test for one block: a block is skipped when any kernel's
/// zone map proves it empty (superset rule: pruning is only ever a subset
/// of what the kernels would reject row by row).
fn zone_prunes(kernels: &[Kernel], slice: &Slice, b: usize) -> bool {
    kernels.iter().any(|k| {
        k.zone_col()
            .and_then(|c| slice.zones[c].get(b))
            .map(|z| k.prunes(z))
            .unwrap_or(false)
    })
}

/// Fill `sel` with the visible positions of block `b`, ascending. Returns
/// the block's `(start, end)` row range.
fn select_block(
    sel: &mut Vec<u32>,
    slice: &Slice,
    b: usize,
    total: usize,
    vis: &mut RunVisibility,
) -> (usize, usize) {
    let start = b * BLOCK_ROWS;
    let end = (start + BLOCK_ROWS).min(total);
    sel.clear();
    for pos in start..end {
        if vis.visible(slice.created[pos], slice.deleted[pos]) {
            sel.push(pos as u32);
        }
    }
    (start, end)
}

/// The per-slice batch loop every vectorized scan shares: count each
/// block, skip it when a zone map proves it empty, fill the selection with
/// its visible positions, let each kernel compact the selection, and hand
/// the survivors to `visit`. Returns the number of batches visited.
fn for_each_block(
    slice: &Slice,
    kernels: &[Kernel],
    ctx: &ExecCtx,
    mut visit: impl FnMut(&mut Vec<u32>) -> Result<()>,
) -> Result<u64> {
    let engine = ctx.engine;
    let spec: Vec<SpecKernel> = kernels.iter().map(|k| k.specialize(slice)).collect();
    let mut vis = engine.txns.run_visibility(ctx.snap);
    let total = slice.version_count();
    let mut sel: Vec<u32> = Vec::with_capacity(BLOCK_ROWS.min(total));
    let mut batches = 0u64;
    for b in 0..slice.block_count() {
        engine.stats.blocks_scanned.fetch_add(1, Ordering::Relaxed);
        if engine.config.zone_maps && zone_prunes(kernels, slice, b) {
            engine.stats.blocks_pruned.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        batches += 1;
        let (start, end) = select_block(&mut sel, slice, b, total, &mut vis);
        for k in &spec {
            if sel.is_empty() {
                break;
            }
            k.filter(&mut sel);
        }
        visit(&mut sel)?;
        engine.stats.rows_scanned.fetch_add((end - start) as u64, Ordering::Relaxed);
    }
    Ok(batches)
}

fn scan_filtered_with(
    table: &AccelTable,
    pred: Option<(&Expr, &[PlanCol])>,
    ctx: &ExecCtx,
    needed: Option<Vec<bool>>,
    prof: Option<(&PlanProfile, &Plan)>,
    prefilter: Option<&ProbeFilter>,
) -> Result<Vec<Row>> {
    // Compile conjuncts into kernels plus a residual predicate. Forced
    // interpreter mode compiles nothing: the whole predicate is residual.
    let mut kernels: Vec<Kernel> = Vec::new();
    let mut residual: Option<BoundExpr> = None;
    if let Some((predicate, scan_cols)) = pred {
        let mut leftover: Vec<&Expr> = Vec::new();
        for conj in split_conjuncts(predicate) {
            let compiled = match ctx.mode {
                ExecMode::Vectorized => compile_kernel(conj, table, scan_cols),
                ExecMode::Interpreted => None,
            };
            match compiled {
                Some(k) => kernels.push(k),
                None => leftover.push(conj),
            }
        }
        if !leftover.is_empty() {
            let resolver = resolver_of(scan_cols);
            let combined = and_all(leftover.into_iter().cloned().collect()).expect("non-empty");
            residual = Some(bind(&combined, &resolver)?);
        }
    }
    // Effective materialization mask: what the caller reads plus what the
    // residual predicate reads. Kernel columns are evaluated directly on
    // the typed vectors and need no materialization.
    let width = table.schema.len();
    let mask: Option<Vec<bool>> = match (&needed, &residual) {
        (None, _) => None,
        (Some(m), None) => Some(m.clone()),
        (Some(m), Some(res)) => {
            let mut set = std::collections::HashSet::new();
            res.collect_columns(&mut set);
            Some((0..width).map(|i| m.get(i).copied().unwrap_or(false) || set.contains(&i)).collect())
        }
    };

    // Late materialization: with no interpreted residual left, survivors
    // are assembled column-at-a-time by projection kernels instead of the
    // per-row loop. Interpreted mode keeps the row loop as the oracle.
    let late_mat = ctx.mode == ExecMode::Vectorized && residual.is_none();

    // Per slice: materialize (and residual-check) only the kernel
    // survivors of each block, in ascending position order — the same
    // output order as a per-row loop, without its per-row dispatch.
    let scan_one = |slice_lock: &RwLock<Slice>| -> Result<(Vec<Row>, u64)> {
        let slice = slice_lock.read();
        let probe: Option<SpecProbe> = prefilter.map(|pf| pf.specialize(&slice));
        let mut out = Vec::new();
        let batches = for_each_block(&slice, &kernels, ctx, |sel| {
            // The derived join-filter runs after the scan's own kernels: it
            // only shrinks the selection, never prunes blocks, so every
            // stats counter stays identical with and without it.
            if let Some(p) = &probe {
                if !sel.is_empty() {
                    p.filter(sel);
                }
            }
            if late_mat {
                materialize_block(&slice, sel, mask.as_deref(), &mut out);
                return Ok(());
            }
            for &p in sel.iter() {
                let pos = p as usize;
                let row: Row = match &mask {
                    None => slice.row_at(pos),
                    Some(m) => slice
                        .columns
                        .iter()
                        .enumerate()
                        .map(|(i, c)| if m[i] { c.get(pos) } else { Value::Null })
                        .collect(),
                };
                if let Some(res) = &residual {
                    if !eval_predicate(res, &row)? {
                        continue;
                    }
                }
                out.push(row);
            }
            Ok(())
        })?;
        Ok((out, batches))
    };

    let results = per_slice(ctx, table.slices(), scan_one)?;
    let mut out = Vec::new();
    let mut batches = 0u64;
    for (rows, b) in results {
        out.extend(rows);
        batches += b;
    }
    // A scan counts as vectorized only when at least one kernel compiled
    // (or a derived join-filter ran as one) — with zero kernels every row
    // goes through the interpreted residual.
    if let Some((prof, node)) = prof {
        if !kernels.is_empty() || prefilter.is_some() {
            prof.record_vectorized(node, batches);
        }
    }
    Ok(out)
}

/// Assemble output rows for one block's surviving selection with projection
/// kernels: one typed pass per column (masked-out columns append NULL), so
/// the per-position storage dispatch is paid once per column instead of
/// once per value. Output is byte-identical to the per-row loop.
fn materialize_block(slice: &Slice, sel: &[u32], mask: Option<&[bool]>, out: &mut Vec<Row>) {
    if sel.is_empty() {
        return;
    }
    let width = slice.columns.len();
    let base = out.len();
    out.extend(std::iter::repeat_with(|| Row::with_capacity(width)).take(sel.len()));
    for (i, c) in slice.columns.iter().enumerate() {
        if mask.is_none_or(|m| m[i]) {
            c.gather_into(sel, &mut out[base..]);
        } else {
            for row in &mut out[base..] {
                row.push(Value::Null);
            }
        }
    }
}

/// A derived join-filter pushed into the probe-side scan: the build side's
/// key digest applied to the probe key column as one more selection-vector
/// filter. It runs after the scan's compiled kernels and never prunes
/// blocks, so `blocks_scanned`/`blocks_pruned`/`rows_scanned` stay
/// byte-identical with and without it; the digest only ever false-positives
/// (an inserted key always tests present), so on an INNER join it can only
/// drop probe rows that could never match.
struct ProbeFilter {
    /// Probe key ordinal in the scan's schema.
    col: usize,
    summary: KeySummary,
}

/// A [`ProbeFilter`] resolved against one slice's physical column vectors.
enum SpecProbe<'s> {
    I64 { vals: &'s [i64], nulls: &'s NullMap, summary: &'s KeySummary },
    /// Dictionary columns test each distinct value once, then filter rows
    /// by code through the precomputed keep table.
    Dict { codes: &'s [u32], nulls: &'s NullMap, keep: Vec<bool> },
    Generic { col: &'s Column, summary: &'s KeySummary },
}

impl ProbeFilter {
    fn specialize<'s>(&'s self, slice: &'s Slice) -> SpecProbe<'s> {
        let c = &slice.columns[self.col];
        if let Some(vals) = c.i64_data() {
            if int_key_type(c.data_type) {
                return SpecProbe::I64 { vals, nulls: &c.nulls, summary: &self.summary };
            }
        }
        if let (Some(codes), Some(dict)) = (c.str_codes(), c.dictionary()) {
            let keep = dict.iter().map(|v| self.summary.contains_str(v)).collect();
            return SpecProbe::Dict { codes, nulls: &c.nulls, keep };
        }
        SpecProbe::Generic { col: c, summary: &self.summary }
    }
}

impl SpecProbe<'_> {
    /// Drop selected positions whose key provably matches no build key.
    /// NULL probe keys never join, so they drop too (INNER-only pushdown).
    fn filter(&self, sel: &mut Vec<u32>) {
        match self {
            SpecProbe::I64 { vals, nulls, summary } => {
                compact(sel, |p| !nulls.is_null(p) && summary.contains_i64(vals[p]))
            }
            SpecProbe::Dict { codes, nulls, keep } => {
                compact(sel, |p| !nulls.is_null(p) && keep[codes[p] as usize])
            }
            SpecProbe::Generic { col, summary } => {
                compact(sel, |p| summary.matches_value(&col.get(p)))
            }
        }
    }
}


/// Where a fused group key or aggregate argument reads from: a column of
/// the probe-side scan, or a column of the materialized build rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    Probe(usize),
    Build(usize),
}

/// One aggregate argument in a fused pipeline.
enum FusedArg {
    Star,
    Col(Src),
    /// A scalar expression over probe-side columns.
    Expr(BoundExpr),
}

/// A [`FusedArg`] specialized against one slice's column vectors. Integer
/// and double columns feed accumulators through the typed
/// [`AggState::update_i64`]/[`AggState::update_f64`] entry points — no
/// per-row [`Value`] construction; every other shape keeps the generic
/// per-value path.
enum ArgSlot<'a> {
    Star,
    I64 { vals: &'a [i64], nulls: &'a NullMap, native: fn(i64) -> Value },
    F64 { vals: &'a [f64], nulls: &'a NullMap },
    Generic(&'a Column),
    Build(usize),
    Expr(&'a BoundExpr),
}

impl<'a> ArgSlot<'a> {
    fn specialize(arg: &'a FusedArg, slice: &'a Slice) -> ArgSlot<'a> {
        match arg {
            FusedArg::Star => ArgSlot::Star,
            FusedArg::Expr(b) => ArgSlot::Expr(b),
            FusedArg::Col(Src::Build(i)) => ArgSlot::Build(*i),
            FusedArg::Col(Src::Probe(i)) => {
                let c = &slice.columns[*i];
                // `native` must rebuild exactly what `Column::get` renders
                // for the declared type, or typed accumulation drifts from
                // the interpreter (e.g. a single-row SUM keeps the native
                // type; only the second value promotes to BigInt).
                let native: Option<fn(i64) -> Value> = match c.data_type {
                    idaa_common::DataType::SmallInt => Some(|v| Value::SmallInt(v as i16)),
                    idaa_common::DataType::Integer => Some(|v| Value::Int(v as i32)),
                    idaa_common::DataType::BigInt => Some(Value::BigInt),
                    _ => None,
                };
                match (c.i64_data(), c.f64_data(), native) {
                    (Some(vals), _, Some(native)) => {
                        ArgSlot::I64 { vals, nulls: &c.nulls, native }
                    }
                    (_, Some(vals), _) if c.data_type == idaa_common::DataType::Double => {
                        ArgSlot::F64 { vals, nulls: &c.nulls }
                    }
                    _ => ArgSlot::Generic(c),
                }
            }
        }
    }

    /// Feed probe position `pos`, joined with build row `brow` (empty
    /// without a join), into `state`. `scratch` holds the columns
    /// expression arguments read.
    #[inline]
    fn feed(&self, state: &mut AggState, pos: usize, brow: &[Value], scratch: &Row) -> Result<()> {
        match self {
            ArgSlot::Star => state.update(&Value::Null),
            ArgSlot::I64 { vals, nulls, native } => {
                if nulls.is_null(pos) {
                    Ok(())
                } else {
                    state.update_i64(vals[pos], *native)
                }
            }
            ArgSlot::F64 { vals, nulls } => {
                if nulls.is_null(pos) {
                    Ok(())
                } else {
                    state.update_f64(vals[pos])
                }
            }
            ArgSlot::Generic(c) => state.update(&c.get(pos)),
            ArgSlot::Build(i) => state.update(&brow[*i]),
            ArgSlot::Expr(b) => state.update(&eval(b, scratch)?),
        }
    }
}

/// The INNER equi-join a fused star-join aggregate absorbs. The build side
/// still runs as an ordinary operator; the probe side is the fused scan,
/// which looks each surviving position's key up in the build index.
struct FusedJoin<'p> {
    build: &'p Plan,
    /// Probe key ordinal in the scan's schema.
    probe_col: usize,
    /// Build key ordinal in the build plan's output.
    build_col: usize,
    layout: KeyLayout,
    /// Build columns the aggregate reads, plus the key (projection
    /// pushdown into the build side).
    build_mask: Vec<bool>,
}

/// A fully compiled fused pipeline: scan→filter→aggregate, optionally with
/// an INNER join folded in between. Produced by [`compile_fused`]; `None`
/// from there means the plan takes the unfused path instead.
struct FusedPipeline<'p> {
    table: std::sync::Arc<AccelTable>,
    keys: Vec<Src>,
    args: Vec<FusedArg>,
    /// Probe ordinals any expression argument reads (scratch-row fill list).
    expr_cols: Vec<usize>,
    kernels: Vec<Kernel>,
    join: Option<FusedJoin<'p>>,
}

/// Check whether `Aggregate(input)` can run fused, and compile it if so.
/// The probe input must be `Scan` or `Filter(Scan)` whose whole predicate
/// compiles to kernels — either directly under the aggregate or as the left
/// side of an INNER join whose ON is one typed (i64 or string) equi-key.
/// Group keys must be bare columns of either side; aggregate arguments may
/// also be scalar expressions over probe columns (CAST, arithmetic, …),
/// evaluated against a scratch row holding only the columns they read.
fn compile_fused<'p>(
    input: &'p Plan,
    group_exprs: &[Expr],
    aggs: &[AggCall],
    engine: &AccelEngine,
) -> Result<Option<FusedPipeline<'p>>> {
    let (probe, joined) = match input {
        Plan::Join { left, right, kind: JoinKind::Inner, on } => {
            (left.as_ref(), Some((right.as_ref(), on)))
        }
        _ => (input, None),
    };
    let (table_name, predicate, scan_cols) = match probe {
        Plan::Scan { table, cols, .. } if !cols.is_empty() => (table, None, cols),
        Plan::Filter { input: inner, predicate } => match inner.as_ref() {
            Plan::Scan { table, cols, .. } if !cols.is_empty() => (table, Some(predicate), cols),
            _ => return Ok(None),
        },
        _ => return Ok(None),
    };
    let table = engine.table(table_name)?;
    // Keys and arguments bind against the aggregate's input row — probe
    // columns first, then build columns — exactly as the interpreter's.
    let pwidth = scan_cols.len();
    let src = |i: usize| if i < pwidth { Src::Probe(i) } else { Src::Build(i - pwidth) };
    let resolver = resolver_of(&input.cols());
    let mut keys = Vec::with_capacity(group_exprs.len());
    for g in group_exprs {
        match bind(g, &resolver).ok().and_then(|b| b.as_column()) {
            Some(i) => keys.push(src(i)),
            None => return Ok(None),
        }
    }
    let mut args: Vec<FusedArg> = Vec::with_capacity(aggs.len());
    let mut expr_cols: HashSet<usize> = HashSet::new();
    for a in aggs {
        let Some(e) = &a.arg else {
            args.push(FusedArg::Star);
            continue;
        };
        let Ok(b) = bind(e, &resolver) else { return Ok(None) };
        match b.as_column() {
            Some(i) => args.push(FusedArg::Col(src(i))),
            None => {
                let mut cols = HashSet::new();
                b.collect_columns(&mut cols);
                if cols.iter().any(|&c| c >= pwidth) {
                    return Ok(None);
                }
                expr_cols.extend(cols);
                args.push(FusedArg::Expr(b));
            }
        }
    }
    let mut expr_cols: Vec<usize> = expr_cols.into_iter().collect();
    expr_cols.sort_unstable();
    // The whole predicate must compile to kernels.
    let mut kernels: Vec<Kernel> = Vec::new();
    if let Some(pred) = predicate {
        for conj in split_conjuncts(pred) {
            match compile_kernel(conj, &table, scan_cols) {
                Some(k) => kernels.push(k),
                None => return Ok(None),
            }
        }
    }
    let join = match joined {
        None => None,
        Some((build, on)) => {
            let bcols = build.cols();
            let (pkeys, bkeys, conjs) =
                equi_keys(on, &resolver_of(scan_cols), &resolver_of(&bcols));
            // `key_layout` is typed only for one bare-column key pair.
            let layout = key_layout(&pkeys, scan_cols, &bkeys, &bcols);
            if conjs != 1 || layout == KeyLayout::Generic {
                return Ok(None);
            }
            let (Some(probe_col), Some(build_col)) = (pkeys[0].as_column(), bkeys[0].as_column())
            else {
                return Ok(None);
            };
            let mut build_mask = vec![false; bcols.len()];
            build_mask[build_col] = true;
            let arg_srcs = args.iter().filter_map(|a| match a {
                FusedArg::Col(s) => Some(s),
                _ => None,
            });
            for s in keys.iter().chain(arg_srcs) {
                if let Src::Build(i) = s {
                    build_mask[*i] = true;
                }
            }
            Some(FusedJoin { build, probe_col, build_col, layout, build_mask })
        }
    };
    Ok(Some(FusedPipeline { table, keys, args, expr_cols, kernels, join }))
}

/// The build side of a fused star join: its rows, and for each key the
/// matching build-row ids in build order — the order `hash_join` emits
/// matches in.
struct BuildIndex {
    rows: Vec<Row>,
    layout: KeyLayout,
    index: HashMap<JoinKey, Vec<u32>>,
}

impl BuildIndex {
    fn new(rows: Vec<Row>, join: &FusedJoin) -> Result<BuildIndex> {
        let key = [BoundExpr::Column(join.build_col)];
        // A build value outside the declared layout's class falls the join
        // back to generic keys, as in `run_join`.
        let (layout, keyed) = match try_extract_keys(&key, &rows, join.layout)? {
            Some(k) => (join.layout, k),
            None => (KeyLayout::Generic, extract_generic(&key, &rows)?),
        };
        let mut index: HashMap<JoinKey, Vec<u32>> = HashMap::new();
        for (i, k) in keyed.into_iter().enumerate() {
            if let Some((_, key)) = k {
                index.entry(key).or_default().push(i as u32);
            }
        }
        Ok(BuildIndex { rows, layout, index })
    }

    /// Build rows whose key equals the probe value `v`. NULL matches
    /// nothing; so would a value outside the layout's class, which a
    /// probe column of the declared key type never holds.
    fn matches(&self, v: Value) -> &[u32] {
        match key_of(self.layout, v) {
            Some(Some(key)) => self.index.get(&key).map_or(&[], Vec::as_slice),
            _ => &[],
        }
    }
}

/// A fused join's probe key resolved against one slice's column vectors.
enum SpecJoin<'a> {
    /// Integer keys look the index up directly, building no [`Value`].
    I64 { vals: &'a [i64], nulls: &'a NullMap, build: &'a BuildIndex },
    /// Dictionary-coded keys resolve each distinct code once (as
    /// [`SpecProbe::Dict`] does), then match rows by code.
    Dict { codes: &'a [u32], nulls: &'a NullMap, hits: Vec<&'a [u32]> },
    /// Anything else (only under the generic fallback layout).
    Generic { col: &'a Column, build: &'a BuildIndex },
}

impl<'a> SpecJoin<'a> {
    fn new(build: &'a BuildIndex, slice: &'a Slice, col: usize) -> SpecJoin<'a> {
        let c = &slice.columns[col];
        match (build.layout, c.i64_data(), c.str_codes(), c.dictionary()) {
            (KeyLayout::I64, Some(vals), _, _) => SpecJoin::I64 { vals, nulls: &c.nulls, build },
            (_, _, Some(codes), Some(dict)) => SpecJoin::Dict {
                codes,
                nulls: &c.nulls,
                hits: dict.iter().map(|v| build.matches(Value::Varchar(v.clone()))).collect(),
            },
            _ => SpecJoin::Generic { col: c, build },
        }
    }

    /// Build-row ids joining probe position `p`, in build order.
    #[inline]
    fn matches(&self, p: usize) -> &'a [u32] {
        match self {
            SpecJoin::I64 { vals, nulls, build } => {
                if nulls.is_null(p) {
                    return &[];
                }
                build.index.get(&JoinKey::I64(vals[p])).map_or(&[], Vec::as_slice)
            }
            // NULL rows carry the empty-string code: the null bit decides.
            SpecJoin::Dict { codes, nulls, hits } => {
                if nulls.is_null(p) {
                    &[]
                } else {
                    hits[codes[p] as usize]
                }
            }
            SpecJoin::Generic { col, build } => build.matches(col.get(p)),
        }
    }
}

/// How one slice's fused aggregation finds a row's group. Each strategy
/// creates groups in first-encounter order, so merging slice partials in
/// slice order reproduces the serial group order.
enum GroupSlots<'a> {
    /// No GROUP BY: one group.
    Single,
    /// One dictionary-coded probe key: a dense code → group table (slot 0
    /// = NULL) instead of hashing a materialized key per row.
    Dict { col: &'a Column, codes: &'a [u32], map: Vec<usize> },
    /// Every key on the build side: the slot is resolved once per build row.
    PerBuildRow(Vec<usize>),
    /// Anything else: hash the materialized key tuple.
    Hashed,
}

/// One slice's partial aggregation in a fused pipeline.
struct SliceGroups<'a> {
    keys: &'a [Src],
    aggs: &'a [AggCall],
    slice: &'a Slice,
    build: &'a [Row],
    slots: GroupSlots<'a>,
    index: HashMap<Vec<Value>, usize>,
    groups: Groups,
}

impl<'a> SliceGroups<'a> {
    fn new(keys: &'a [Src], aggs: &'a [AggCall], slice: &'a Slice, build: &'a [Row]) -> Self {
        let slots = match keys {
            [] => GroupSlots::Single,
            [Src::Probe(k)] if slice.columns[*k].str_codes().is_some() => {
                let col = &slice.columns[*k];
                let dict_len = col.dictionary().map_or(0, <[String]>::len);
                GroupSlots::Dict {
                    col,
                    codes: col.str_codes().unwrap_or_default(),
                    map: vec![usize::MAX; dict_len + 1],
                }
            }
            _ if keys.iter().all(|k| matches!(k, Src::Build(_))) => {
                GroupSlots::PerBuildRow(vec![usize::MAX; build.len()])
            }
            _ => GroupSlots::Hashed,
        };
        SliceGroups { keys, aggs, slice, build, slots, index: HashMap::new(), groups: Vec::new() }
    }

    /// Feed probe position `pos` joined with build row `b` (ignored without
    /// a join) into its group's aggregate states.
    #[inline]
    fn feed(&mut self, args: &[ArgSlot], pos: usize, b: usize, scratch: &Row) -> Result<()> {
        let gi = self.slot(pos, b);
        let brow: &[Value] = self.build.get(b).map_or(&[], Vec::as_slice);
        for (state, arg) in self.groups[gi].1.iter_mut().zip(args) {
            arg.feed(state, pos, brow, scratch)?;
        }
        Ok(())
    }

    fn slot(&mut self, pos: usize, b: usize) -> usize {
        let SliceGroups { keys, aggs, slice, build, slots, index, groups } = self;
        let key_at = || -> Vec<Value> {
            keys.iter()
                .map(|k| match k {
                    Src::Probe(i) => slice.columns[*i].get(pos),
                    Src::Build(i) => build[b][*i].clone(),
                })
                .collect()
        };
        match slots {
            GroupSlots::Single => {
                if groups.is_empty() {
                    push_group(groups, aggs, Vec::new());
                }
                0
            }
            GroupSlots::Dict { col, codes, map } => {
                let s = if col.nulls.is_null(pos) { 0 } else { codes[pos] as usize + 1 };
                if map[s] == usize::MAX {
                    map[s] = push_group(groups, aggs, vec![col.get(pos)]);
                }
                map[s]
            }
            GroupSlots::PerBuildRow(map) => {
                if map[b] == usize::MAX {
                    map[b] = hashed_group(index, groups, aggs, key_at());
                }
                map[b]
            }
            GroupSlots::Hashed => hashed_group(index, groups, aggs, key_at()),
        }
    }
}

/// Append a fresh group keyed `key`; returns its index.
fn push_group(groups: &mut Groups, aggs: &[AggCall], key: Vec<Value>) -> usize {
    groups.push((key, aggs.iter().map(|a| AggState::new(a.kind, a.distinct)).collect()));
    groups.len() - 1
}

/// Index of the group keyed `key`, appended on first sight.
fn hashed_group(
    index: &mut HashMap<Vec<Value>, usize>,
    groups: &mut Groups,
    aggs: &[AggCall],
    key: Vec<Value>,
) -> usize {
    if let Some(&i) = index.get(&key) {
        return i;
    }
    let i = push_group(groups, aggs, key.clone());
    index.insert(key, i);
    i
}

/// Fused vectorized aggregation: aggregate states are fed *directly from
/// the column vectors* over each block's surviving selection — no row
/// materialization, no per-row expression interpretation. With a join
/// folded in (the star-join shape: fact ⋈ dimension, then GROUP BY), each
/// surviving probe position looks its key up in the build index and feeds
/// one update per matching build row, so no joined row is ever built.
/// Updates arrive in probe order, then build order — the order the hash
/// join emits rows in — so serial output is bit-identical to the unfused
/// path. This is the accelerator's bread and butter for reporting queries.
fn try_fused_aggregate(
    agg_node: &Plan,
    input: &Plan,
    group_exprs: &[Expr],
    aggs: &[AggCall],
    ctx: &ExecCtx,
    exec: &Exec,
) -> Result<Option<Vec<Row>>> {
    let Some(fused) = compile_fused(input, group_exprs, aggs, ctx.engine)? else {
        return Ok(None);
    };
    let FusedPipeline { table, keys, args, expr_cols, kernels, join } = &fused;
    // The build side runs first, reading only the columns the aggregate
    // and the key need; the fused join and probe scan stay unrecorded.
    let build = match join {
        Some(j) => {
            let rows = exec.run(j.build, Some(j.build_mask.clone()))?;
            Some((BuildIndex::new(rows, j)?, j.probe_col))
        }
        None => None,
    };
    let build_rows: &[Row] = build.as_ref().map_or(&[], |(b, _)| b.rows.as_slice());
    let width = table.schema.len();

    let fuse_slice = |slice_lock: &RwLock<Slice>| -> Result<(Groups, u64)> {
        let slice = slice_lock.read();
        let slots: Vec<ArgSlot> = args.iter().map(|a| ArgSlot::specialize(a, &slice)).collect();
        let probe = build.as_ref().map(|(b, col)| SpecJoin::new(b, &slice, *col));
        let mut groups = SliceGroups::new(keys, aggs, &slice, build_rows);
        // Scratch row for expression arguments: only the ordinals an
        // expression reads are ever filled in.
        let mut scratch: Row = vec![Value::Null; width];
        let batches = for_each_block(&slice, kernels, ctx, |sel| {
            for &p in sel.iter() {
                let pos = p as usize;
                for &c in expr_cols {
                    scratch[c] = slice.columns[c].get(pos);
                }
                match &probe {
                    None => groups.feed(&slots, pos, 0, &scratch)?,
                    Some(m) => {
                        for &b in m.matches(pos) {
                            groups.feed(&slots, pos, b as usize, &scratch)?;
                        }
                    }
                }
            }
            Ok(())
        })?;
        Ok((groups.groups, batches))
    };

    // One partial per slice, merged in slice order so group order matches
    // the serial pass.
    let partials = per_slice(ctx, table.slices(), fuse_slice)?;
    let mut batches = 0u64;
    let mut groups_parts = Vec::with_capacity(partials.len());
    for (g, b) in partials {
        groups_parts.push(g);
        batches += b;
    }
    if let Some(prof) = exec.profile {
        prof.record_vectorized(agg_node, batches);
    }
    let groups = merge_groups(groups_parts)?;
    Ok(Some(finish_groups(groups, group_exprs, aggs)?))
}

/// Classify which pipeline the accelerator would use for `plan` — surfaced
/// through plain `EXPLAIN` without executing anything.
pub fn describe_pipeline(plan: &Plan, engine: &AccelEngine) -> String {
    if let Some(desc) = find_fused(plan, engine) {
        return desc;
    }
    if let Some(desc) = find_join(plan) {
        return desc;
    }
    describe_scan(plan, engine)
        .unwrap_or_else(|| "interpreted (no batch-eligible scan)".to_string())
}

/// Report on the first join in the tree, mirroring `run_join`'s static
/// decisions: equi-key extraction, declared-type key layout, Bloom-guarded
/// probe, and whether the build digest pushes into the probe scan as a
/// derived join-filter.
fn find_join(plan: &Plan) -> Option<String> {
    if let Plan::Join { left, right, kind, on } = plan {
        let lcols = left.cols();
        let rcols = right.cols();
        let lres = resolver_of(&lcols);
        let rres = resolver_of(&rcols);
        let (lkeys, rkeys, _) = equi_keys(on, &lres, &rres);
        if lkeys.is_empty() {
            return Some("interpreted (nested-loop join)".to_string());
        }
        let layout = key_layout(&lkeys, &lcols, &rkeys, &rcols);
        let keys = layout.describe();
        let pushdown = layout != KeyLayout::Generic
            && *kind == JoinKind::Inner
            && ScanSpec::of(left).is_some();
        return Some(match (layout, pushdown) {
            (KeyLayout::Generic, _) => {
                format!("interpreted (hash join: {keys}, bloom-guarded probe)")
            }
            (_, true) => format!(
                "vectorized (hash join: {keys}, bloom-guarded probe, derived probe filter)"
            ),
            (_, false) => format!("vectorized (hash join: {keys}, bloom-guarded probe)"),
        });
    }
    plan.children().into_iter().find_map(find_join)
}

/// Find the first aggregate in the tree that would take the fused path
/// (aggregates usually sit under a `Project`, so the root alone is not
/// enough).
fn find_fused(plan: &Plan, engine: &AccelEngine) -> Option<String> {
    if let Plan::Aggregate { input, group_exprs, aggs, .. } = plan {
        if let Ok(Some(fused)) = compile_fused(input, group_exprs, aggs, engine) {
            return Some(match fused.join {
                None => "vectorized (fused scan-filter-aggregate)".to_string(),
                Some(j) => {
                    format!("vectorized (fused scan-join-aggregate: {})", j.layout.describe())
                }
            });
        }
    }
    plan.children().into_iter().find_map(|c| find_fused(c, engine))
}

/// Report on the first filtered scan in the tree: how many conjuncts
/// compile to kernels and whether an interpreted residual remains.
fn describe_scan(plan: &Plan, engine: &AccelEngine) -> Option<String> {
    match plan {
        Plan::Filter { input, predicate } => {
            if let Plan::Scan { table, .. } = input.as_ref() {
                let t = engine.table(table).ok()?;
                let cols = input.cols();
                let conjs = split_conjuncts(predicate);
                let total = conjs.len();
                let compiled =
                    conjs.iter().filter(|c| compile_kernel(c, &t, &cols).is_some()).count();
                return Some(if compiled == 0 {
                    format!("interpreted (0/{total} conjuncts compile to kernels)")
                } else if compiled == total {
                    format!("vectorized ({compiled}/{total} conjuncts as kernels)")
                } else {
                    format!(
                        "vectorized ({compiled}/{total} conjuncts as kernels + interpreted residual)"
                    )
                });
            }
            describe_scan(input, engine)
        }
        Plan::Scan { .. } => Some("vectorized (columnar scan, no kernels)".to_string()),
        _ => plan.children().into_iter().find_map(|c| describe_scan(c, engine)),
    }
}

// Kernel-level unit tests live here; engine-level behavior is tested in
// `engine.rs` and the integration suite.
#[cfg(test)]
mod tests {
    use super::*;
    use idaa_common::{ColumnDef, DataType, ObjectName, Schema};

    #[test]
    fn zone_pruning_rules() {
        let z = ZoneEntry { min: 10.0, max: 20.0, valid: true };
        let k = |op, val| Kernel::Num { col: 0, op, val };
        assert!(k(BinaryOp::Eq, 5.0).prunes(&z));
        assert!(k(BinaryOp::Eq, 25.0).prunes(&z));
        assert!(!k(BinaryOp::Eq, 15.0).prunes(&z));
        assert!(k(BinaryOp::Lt, 10.0).prunes(&z));
        assert!(!k(BinaryOp::Lt, 11.0).prunes(&z));
        assert!(k(BinaryOp::Gt, 20.0).prunes(&z));
        assert!(!k(BinaryOp::Gt, 19.0).prunes(&z));
        assert!(k(BinaryOp::LtEq, 9.0).prunes(&z));
        assert!(k(BinaryOp::GtEq, 21.0).prunes(&z));
        let point = ZoneEntry { min: 7.0, max: 7.0, valid: true };
        assert!(k(BinaryOp::Neq, 7.0).prunes(&point));
        assert!(!k(BinaryOp::Neq, 8.0).prunes(&point));
        // Invalid zones never prune.
        let inv = ZoneEntry::default();
        assert!(!k(BinaryOp::Eq, 5.0).prunes(&inv));
    }

    #[test]
    fn range_and_null_zone_pruning_rules() {
        let z = ZoneEntry { min: 10.0, max: 20.0, valid: true };
        let range = |lo, hi, negated| Kernel::Range { col: 0, lo, hi, negated };
        // BETWEEN prunes blocks entirely outside [lo, hi]…
        assert!(range(1.0, 9.0, false).prunes(&z));
        assert!(range(21.0, 30.0, false).prunes(&z));
        // …but never blocks that touch the range.
        assert!(!range(1.0, 10.0, false).prunes(&z));
        assert!(!range(20.0, 30.0, false).prunes(&z));
        assert!(!range(12.0, 14.0, false).prunes(&z));
        // NOT BETWEEN prunes only blocks entirely inside [lo, hi].
        assert!(range(10.0, 20.0, true).prunes(&z));
        assert!(range(5.0, 25.0, true).prunes(&z));
        assert!(!range(11.0, 20.0, true).prunes(&z));
        assert!(!range(10.0, 19.0, true).prunes(&z));
        // Invalid zones never prune.
        assert!(!range(1.0, 9.0, false).prunes(&ZoneEntry::default()));
        // NULL-ness kernels never prune (zones don't track NULLs), and
        // neither do string kernels.
        let isnull = Kernel::IsNull { col: 0, negated: false };
        assert!(!isnull.prunes(&z));
        assert!(isnull.zone_col().is_none());
        let s = Kernel::Str { col: 0, val: "x".into(), negated: false };
        assert!(s.zone_col().is_none());
    }

    #[test]
    fn kernel_compilation() {
        let table = AccelTable::new(
            ObjectName::bare("T"),
            Schema::new(vec![
                ColumnDef::new("A", DataType::Integer),
                ColumnDef::new("S", DataType::Varchar(8)),
            ])
            .unwrap(),
            vec![],
            1,
        );
        let cols: Vec<PlanCol> = table
            .schema
            .columns()
            .iter()
            .map(|c| PlanCol {
                qualifier: Some("T".into()),
                name: c.name.clone(),
                data_type: c.data_type,
            })
            .collect();
        // col < lit compiles.
        let e = idaa_sql::parse_statement("SELECT 1 FROM t WHERE a < 5").unwrap();
        let idaa_sql::Statement::Query(q) = e else { panic!() };
        let k = compile_kernel(q.filter.as_ref().unwrap(), &table, &cols);
        assert!(matches!(k, Some(Kernel::Num { op: BinaryOp::Lt, .. })));
        // lit > col flips.
        let e = idaa_sql::parse_statement("SELECT 1 FROM t WHERE 5 > a").unwrap();
        let idaa_sql::Statement::Query(q) = e else { panic!() };
        let k = compile_kernel(q.filter.as_ref().unwrap(), &table, &cols);
        assert!(matches!(k, Some(Kernel::Num { op: BinaryOp::Lt, .. })));
        // string equality compiles to the string kernel.
        let e = idaa_sql::parse_statement("SELECT 1 FROM t WHERE s = 'x'").unwrap();
        let idaa_sql::Statement::Query(q) = e else { panic!() };
        let k = compile_kernel(q.filter.as_ref().unwrap(), &table, &cols);
        assert!(matches!(k, Some(Kernel::Str { negated: false, .. })));
        // LIKE does not compile (stays residual).
        let e = idaa_sql::parse_statement("SELECT 1 FROM t WHERE s LIKE 'x%'").unwrap();
        let idaa_sql::Statement::Query(q) = e else { panic!() };
        assert!(compile_kernel(q.filter.as_ref().unwrap(), &table, &cols).is_none());

        let compile = |sql: &str| {
            let e = idaa_sql::parse_statement(sql).unwrap();
            let idaa_sql::Statement::Query(q) = e else { panic!() };
            compile_kernel(q.filter.as_ref().unwrap(), &table, &cols)
        };
        // BETWEEN over a numeric column compiles to a range kernel.
        let k = compile("SELECT 1 FROM t WHERE a BETWEEN 1 AND 5");
        assert!(
            matches!(k, Some(Kernel::Range { lo, hi, negated: false, .. }) if lo == 1.0 && hi == 5.0)
        );
        let k = compile("SELECT 1 FROM t WHERE a NOT BETWEEN 1 AND 5");
        assert!(matches!(k, Some(Kernel::Range { negated: true, .. })));
        // String BETWEEN stays residual (kernels only range over numerics).
        assert!(compile("SELECT 1 FROM t WHERE s BETWEEN 'a' AND 'b'").is_none());
        // A bound beyond 2^53 is not exactly representable in f64: bail to
        // the exact residual evaluator (same guard as plain comparisons).
        assert!(compile("SELECT 1 FROM t WHERE a BETWEEN 1 AND 9007199254740993").is_none());
        assert!(compile("SELECT 1 FROM t WHERE a = 9007199254740993").is_none());
        // IS [NOT] NULL compiles for any column type.
        assert!(matches!(
            compile("SELECT 1 FROM t WHERE a IS NULL"),
            Some(Kernel::IsNull { negated: false, .. })
        ));
        assert!(matches!(
            compile("SELECT 1 FROM t WHERE s IS NOT NULL"),
            Some(Kernel::IsNull { negated: true, .. })
        ));
    }

    /// Run `kernel` over all positions of the first slice of `table`,
    /// returning the surviving positions.
    fn filter_positions(table: &AccelTable, n: usize, kernel: &Kernel) -> Vec<u32> {
        let slice = table.slices()[0].read();
        let spec = kernel.specialize(&slice);
        let mut sel: Vec<u32> = (0..n as u32).collect();
        spec.filter(&mut sel);
        sel
    }

    #[test]
    fn str_kernel_negated_matches_values_absent_from_dictionary() {
        let table = AccelTable::new(
            ObjectName::bare("T"),
            Schema::new(vec![ColumnDef::new("S", DataType::Varchar(8))]).unwrap(),
            vec![],
            1,
        );
        let rows: Vec<Row> = vec![
            vec![Value::Varchar("a".into())],
            vec![Value::Null],
            vec![Value::Varchar("b".into())],
            vec![Value::Varchar("a".into())],
        ];
        let checked: Vec<Row> =
            rows.iter().map(|r| table.schema.check_row(r).unwrap()).collect();
        table.insert_bulk(&checked, 1).unwrap();
        let run = |negated: bool, val: &str| {
            filter_positions(&table, rows.len(), &Kernel::Str {
                col: 0,
                val: val.into(),
                negated,
            })
        };
        // "zzz" is absent from the dictionary: equality matches nothing,
        // while the negated kernel matches every non-NULL row.
        assert_eq!(run(false, "zzz"), Vec::<u32>::new());
        assert_eq!(run(true, "zzz"), vec![0, 2, 3]);
        // Present value: Eq picks the matching rows, Neq the other non-NULLs.
        assert_eq!(run(false, "a"), vec![0, 3]);
        assert_eq!(run(true, "a"), vec![2]);
        // The dictionary probe is memoized: repeated lookups return the
        // same slice, not a rebuilt one.
        let slice = table.slices()[0].read();
        let first = slice.columns[0].codes_matching("a").as_ptr();
        let second = slice.columns[0].codes_matching("a").as_ptr();
        assert_eq!(first, second);
    }

    #[test]
    fn batch_kernels_match_row_oracle() {
        let table = AccelTable::new(
            ObjectName::bare("T"),
            Schema::new(vec![
                ColumnDef::new("A", DataType::BigInt),
                ColumnDef::new("D", DataType::Double),
            ])
            .unwrap(),
            vec![],
            1,
        );
        let mut rows: Vec<Row> = Vec::new();
        for i in 0..300i64 {
            let a = if i % 7 == 0 { Value::Null } else { Value::BigInt(i % 50 - 10) };
            let d = if i % 11 == 0 {
                Value::Null
            } else {
                Value::Double((i % 40) as f64 * 0.25)
            };
            rows.push(vec![a, d]);
        }
        let checked: Vec<Row> =
            rows.iter().map(|r| table.schema.check_row(r).unwrap()).collect();
        table.insert_bulk(&checked, 1).unwrap();
        let kernels = [
            Kernel::Num { col: 0, op: BinaryOp::Lt, val: 7.0 },
            Kernel::Num { col: 0, op: BinaryOp::Eq, val: -3.0 },
            Kernel::Num { col: 1, op: BinaryOp::GtEq, val: 4.5 },
            Kernel::Range { col: 0, lo: -5.0, hi: 12.0, negated: false },
            Kernel::Range { col: 0, lo: -5.0, hi: 12.0, negated: true },
            Kernel::Range { col: 1, lo: 1.25, hi: 6.75, negated: false },
            Kernel::Range { col: 1, lo: 1.25, hi: 6.75, negated: true },
            // Fractional bounds against the i64 column exercise the
            // generic `numeric_at` fallback loop.
            Kernel::Range { col: 0, lo: -4.5, hi: 11.5, negated: false },
            Kernel::Num { col: 0, op: BinaryOp::Gt, val: 2.5 },
            Kernel::IsNull { col: 0, negated: false },
            Kernel::IsNull { col: 0, negated: true },
            Kernel::IsNull { col: 1, negated: false },
        ];
        let slice = table.slices()[0].read();
        for kernel in &kernels {
            // Per-row oracle straight from the kernel's defining semantics:
            // NULL never matches a comparison or range, and IS [NOT] NULL
            // reads only the null bitmap.
            let oracle: Vec<u32> = (0..rows.len())
                .filter(|&p| {
                    let null = slice.columns[match kernel {
                        Kernel::Num { col, .. }
                        | Kernel::Range { col, .. }
                        | Kernel::Str { col, .. }
                        | Kernel::IsNull { col, .. } => *col,
                    }]
                    .nulls
                    .is_null(p);
                    match kernel {
                        Kernel::Num { col, op, val } => match slice.columns[*col].numeric_at(p)
                        {
                            None => false,
                            Some(x) => cmp_f64(*op, x, *val),
                        },
                        Kernel::Range { col, lo, hi, negated } => {
                            match slice.columns[*col].numeric_at(p) {
                                None => false,
                                Some(x) => (x >= *lo && x <= *hi) != *negated,
                            }
                        }
                        Kernel::IsNull { negated, .. } => null != *negated,
                        Kernel::Str { .. } => unreachable!(),
                    }
                })
                .map(|p| p as u32)
                .collect();
            let spec = kernel.specialize(&slice);
            let mut sel: Vec<u32> = (0..rows.len() as u32).collect();
            spec.filter(&mut sel);
            assert_eq!(sel, oracle, "kernel {kernel:?}");
        }
    }

    #[test]
    fn probe_filter_drops_only_never_matching_rows() {
        let table = AccelTable::new(
            ObjectName::bare("T"),
            Schema::new(vec![
                ColumnDef::new("K", DataType::BigInt),
                ColumnDef::new("S", DataType::Varchar(8)),
            ])
            .unwrap(),
            vec![],
            1,
        );
        let mut rows: Vec<Row> = Vec::new();
        for i in 0..500i64 {
            let k = if i % 23 == 0 { Value::Null } else { Value::BigInt(i % 90) };
            let s = if i % 31 == 0 {
                Value::Null
            } else {
                Value::Varchar(format!("V{}", i % 60))
            };
            rows.push(vec![k, s]);
        }
        let checked: Vec<Row> =
            rows.iter().map(|r| table.schema.check_row(r).unwrap()).collect();
        table.insert_bulk(&checked, 1).unwrap();

        // Build-side keys 0..40 on the i64 column, V0..V25 on the dict one.
        let mut int_summary = KeySummary::with_capacity(40);
        for v in 0..40i64 {
            int_summary.insert_i64(v);
        }
        let mut str_summary = KeySummary::with_capacity(25);
        for v in 0..25 {
            str_summary.insert_str(&format!("V{v}"));
        }
        let slice = table.slices()[0].read();
        for (pf, matches) in [
            (
                ProbeFilter { col: 0, summary: int_summary },
                (0..rows.len())
                    .filter(|&p| matches!(rows[p][0], Value::BigInt(v) if v < 40))
                    .collect::<Vec<usize>>(),
            ),
            (
                ProbeFilter { col: 1, summary: str_summary },
                (0..rows.len())
                    .filter(|&p| match &rows[p][1] {
                        Value::Varchar(s) => {
                            s[1..].parse::<i64>().expect("V<number>") < 25
                        }
                        _ => false,
                    })
                    .collect::<Vec<usize>>(),
            ),
        ] {
            let spec = pf.specialize(&slice);
            let mut sel: Vec<u32> = (0..rows.len() as u32).collect();
            spec.filter(&mut sel);
            // No false negatives: every truly matching position survives,
            // in ascending order; NULLs always drop.
            for &p in &matches {
                assert!(sel.binary_search(&(p as u32)).is_ok(), "dropped true match {p}");
            }
            for &p in &sel {
                assert!(rows[p as usize][pf.col] != Value::Null, "kept a NULL key");
            }
            assert!(sel.windows(2).all(|w| w[0] < w[1]), "selection not ascending");
        }
    }

    #[test]
    fn materialize_block_matches_per_row_get() {
        let table = AccelTable::new(
            ObjectName::bare("T"),
            Schema::new(vec![
                ColumnDef::new("I", DataType::Integer),
                ColumnDef::new("D", DataType::Double),
                ColumnDef::new("N", DataType::Decimal(7, 2)),
                ColumnDef::new("S", DataType::Varchar(8)),
            ])
            .unwrap(),
            vec![],
            1,
        );
        let mut rows: Vec<Row> = Vec::new();
        for i in 0..40i64 {
            rows.push(vec![
                if i % 5 == 0 { Value::Null } else { Value::Int(i as i32 - 7) },
                if i % 7 == 0 { Value::Null } else { Value::Double(i as f64 * 0.5) },
                if i % 9 == 0 {
                    Value::Null
                } else {
                    Value::Decimal(idaa_common::Decimal::new((i * 125) as i128, 2))
                },
                if i % 4 == 0 { Value::Null } else { Value::Varchar(format!("s{}", i % 6)) },
            ]);
        }
        let checked: Vec<Row> =
            rows.iter().map(|r| table.schema.check_row(r).unwrap()).collect();
        table.insert_bulk(&checked, 1).unwrap();
        let slice = table.slices()[0].read();
        let sel: Vec<u32> = (0..rows.len() as u32).step_by(3).collect();
        for mask in [None, Some(vec![true, false, true, false])] {
            let mut got: Vec<Row> = Vec::new();
            materialize_block(&slice, &sel, mask.as_deref(), &mut got);
            let expect: Vec<Row> = sel
                .iter()
                .map(|&p| {
                    slice
                        .columns
                        .iter()
                        .enumerate()
                        .map(|(i, c)| {
                            if mask.as_ref().is_none_or(|m| m[i]) {
                                c.get(p as usize)
                            } else {
                                Value::Null
                            }
                        })
                        .collect()
                })
                .collect();
            assert_eq!(got, expect, "mask={mask:?}");
        }
    }

}
