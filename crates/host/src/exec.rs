//! The host engine's access paths: how the shared reference executor
//! (`idaa_sql::exec`) reaches DB2-style row storage.
//!
//! The host stays a serial row engine: one worker, scans that walk every
//! slot of every page and return full rows, and interpreted expressions
//! over them. A `Filter` directly over a `Scan` is served from a B-tree when
//! a conjunct pins an indexed column to a literal (equality first, then
//! merged range bounds), with the whole predicate re-checked on the index
//! hits. That cost model is the baseline the accelerator's columnar engine
//! is compared against throughout the experiments.

use crate::engine::HostEngine;
use idaa_common::{ObjectName, Result, Row, Value};
use idaa_sql::ast::{BinaryOp, Expr};
use idaa_sql::eval::bind;
use idaa_sql::exec::{filter_rows, ProbeKeys, ScanSpec, Source};
use idaa_sql::plan::{resolver_of, split_conjuncts, PlanCol, PlanProfile};

/// The host's [`Source`]: heap scans and index access paths. It ignores
/// projection masks and derived join filters, and runs serially.
pub(crate) struct HostSource<'a> {
    pub engine: &'a HostEngine,
}

impl Source for HostSource<'_> {
    fn scan(
        &self,
        spec: &ScanSpec,
        _needed: Option<Vec<bool>>,
        _probe: Option<&ProbeKeys>,
        profile: Option<&PlanProfile>,
    ) -> Result<Vec<Row>> {
        let Some(predicate) = spec.predicate else { return self.engine.scan_all(spec.table) };
        let bound = bind(predicate, &resolver_of(spec.cols))?;
        // Residual: the full predicate still applies (cheap on the few
        // index hits).
        if let Some(rows) = self.index_rows(spec.table, spec.cols, predicate)? {
            return filter_rows(rows, &bound);
        }
        // No usable index: the full scan runs as the Filter's child.
        let rows = self.engine.scan_all(spec.table)?;
        if let Some(prof) = profile {
            prof.record(spec.scan, rows.len() as u64);
        }
        filter_rows(rows, &bound)
    }

    fn workers(&self) -> usize {
        1
    }
}

impl HostSource<'_> {
    /// Candidate rows from an index serving one of `predicate`'s conjuncts,
    /// or `None` when no index applies.
    fn index_rows(
        &self,
        table: &ObjectName,
        cols: &[PlanCol],
        predicate: &Expr,
    ) -> Result<Option<Vec<Row>>> {
        let conjs = split_conjuncts(predicate);
        // Equality lookups first (most selective)…
        for conj in &conjs {
            if let Some((col, val)) = eq_literal(conj, cols) {
                if let Some(rows) = self.engine.index_lookup(table, col, val)? {
                    return Ok(Some(rows));
                }
            }
        }
        // …then range access: merge every bound on the same column.
        let mut merged: Vec<RangeBound> = Vec::new();
        for conj in &conjs {
            if let Some(rb) = range_literal(conj, cols) {
                match merged.iter_mut().find(|m| m.column == rb.column) {
                    Some(m) => {
                        if rb.low.is_some() {
                            m.low = rb.low;
                        }
                        if rb.high.is_some() {
                            m.high = rb.high;
                        }
                    }
                    None => merged.push(rb),
                }
            }
        }
        for rb in &merged {
            if let Some(rows) = self.engine.index_range(table, rb.column, rb.low, rb.high)? {
                return Ok(Some(rows));
            }
        }
        Ok(None)
    }
}

/// `e` as a bare column of the scan producing `cols`, by name.
fn scan_column<'a>(e: &'a Expr, cols: &[PlanCol]) -> Option<&'a str> {
    let Expr::Column { qualifier, name } = e else { return None };
    cols.iter()
        .any(|c| {
            c.name == *name
                && qualifier.as_ref().is_none_or(|q| c.qualifier.as_deref() == Some(q.as_str()))
        })
        .then_some(name.as_str())
}

/// `e` as a non-NULL literal.
fn non_null_literal(e: &Expr) -> Option<&Value> {
    match e {
        Expr::Literal(v) if !v.is_null() => Some(v),
        _ => None,
    }
}

/// A range bound extracted from a conjunct: `column` bounded below/above.
struct RangeBound<'a> {
    column: &'a str,
    low: Option<&'a Value>,
    high: Option<&'a Value>,
}

/// If `conj` bounds a single column (`col < lit`, `lit <= col`,
/// `col BETWEEN a AND b`), return the inclusive-superset bound.
fn range_literal<'a>(conj: &'a Expr, cols: &[PlanCol]) -> Option<RangeBound<'a>> {
    match conj {
        Expr::Between { expr, low, high, negated: false } => {
            let column = scan_column(expr, cols)?;
            Some(RangeBound { column, low: non_null_literal(low), high: non_null_literal(high) })
        }
        Expr::Binary { left, op, right } => {
            use BinaryOp::*;
            // col OP lit
            if let (Some(column), Some(v)) = (scan_column(left, cols), non_null_literal(right)) {
                return match op {
                    Lt | LtEq => Some(RangeBound { column, low: None, high: Some(v) }),
                    Gt | GtEq => Some(RangeBound { column, low: Some(v), high: None }),
                    _ => None,
                };
            }
            // lit OP col (flip)
            if let (Some(v), Some(column)) = (non_null_literal(left), scan_column(right, cols)) {
                return match op {
                    Lt | LtEq => Some(RangeBound { column, low: Some(v), high: None }),
                    Gt | GtEq => Some(RangeBound { column, low: None, high: Some(v) }),
                    _ => None,
                };
            }
            None
        }
        _ => None,
    }
}

/// If `conj` is `col = literal` (either side) over `cols`, return the
/// column name and value — the index-eligible shape.
fn eq_literal<'a>(conj: &'a Expr, cols: &[PlanCol]) -> Option<(&'a str, &'a Value)> {
    let Expr::Binary { left, op: BinaryOp::Eq, right } = conj else {
        return None;
    };
    match (scan_column(left, cols), non_null_literal(right)) {
        (Some(c), Some(v)) => Some((c, v)),
        _ => Some((scan_column(right, cols)?, non_null_literal(left)?)),
    }
}
