//! The relational operators: each turns its input rows into one plan node's
//! output rows, over the one scalar evaluator. Two walkers of a
//! [`LogicalPlan`](crate::LogicalPlan) call them — the engine's executor and
//! the simulated model answering a whole query — and each of their arms is
//! one call here, so the two cannot disagree on a join, a group or a sort
//! order.
//!
//! A column reference or a literal evaluates borrowed (from the row, from
//! the plan), a computed value owned; errors are raised as
//! [`ErrorKind::Execution`]. Aggregates are [`AggAccumulator`]'s.

use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, HashSet};

use llmsql_sql::ast::{BinaryOp, JoinKind};
use llmsql_sql::bound::BoundColumn;
use llmsql_sql::eval::truth;
use llmsql_types::{Error, ErrorKind, Result, Row, Value};

use crate::expr::{conjoin, split_conjunction, BoundExpr};
use crate::logical::SortKey;

pub use llmsql_sql::eval::AggAccumulator;

// ---------------------------------------------------------------------------
// Scalar evaluation
// ---------------------------------------------------------------------------

// `eval` and `eval_predicate` are `#[inline]`: the engine's scans, in
// another crate, call them once per row.

/// Evaluate an expression against a row. Aggregates are rejected (they are
/// handled by [`AggAccumulator`] under an Aggregate plan node).
#[inline]
pub fn eval<'a>(expr: &'a BoundExpr, row: &'a Row) -> Result<Cow<'a, Value>> {
    llmsql_sql::eval::eval(expr, &|c| row.get(c.index), ErrorKind::Execution)
}

/// Evaluate a predicate to a three-valued boolean.
#[inline]
pub fn eval_predicate(expr: &BoundExpr, row: &Row) -> Result<Option<bool>> {
    eval(expr, row).map(|v| truth(&v))
}

/// Evaluate a predicate over the row `left ++ right` without building it: a
/// column past `left`'s cells is read from `right`, as in [`Row::concat`].
fn eval_pair_predicate(expr: &BoundExpr, left: &Row, right: &Row) -> Result<Option<bool>> {
    let split = left.arity();
    let column = |c: &BoundColumn| match c.index.checked_sub(split) {
        None => left.get(c.index),
        Some(i) => right.get(i),
    };
    llmsql_sql::eval::eval(expr, &column, ErrorKind::Execution).map(|v| truth(&v))
}

// ---------------------------------------------------------------------------
// Constant rows, filter, projection, limit, distinct
// ---------------------------------------------------------------------------

/// A constant relation: each row's expressions evaluated over no input.
pub fn values_rows(rows: &[Vec<BoundExpr>]) -> Result<Vec<Row>> {
    rows.iter()
        .map(|exprs| {
            exprs
                .iter()
                .map(|e| eval(e, &Row::empty()).map(Cow::into_owned))
                .collect::<Result<Vec<Value>>>()
                .map(Row::new)
        })
        .collect()
}

/// Keep the rows on which `predicate` is true, in place. `retain` cannot
/// stop early, so the first error parks here and the rest of the pass
/// evaluates nothing.
pub fn filter_rows(mut rows: Vec<Row>, predicate: &BoundExpr) -> Result<Vec<Row>> {
    let mut error = None;
    rows.retain(|row| {
        if error.is_some() {
            return false;
        }
        match eval_predicate(predicate, row) {
            Ok(keep) => keep == Some(true),
            Err(e) => {
                error = Some(e);
                false
            }
        }
    });
    error.map_or(Ok(rows), Err)
}

/// Project every row through `exprs`, each output row built in its input
/// row's own buffer. The computed expressions are evaluated first, while
/// every input cell is still in place; then each column that one bare
/// reference uses and no other expression reads is moved out of the input
/// instead of copied. (Moving a column at its first bare use would leave
/// `NULL` behind for a later `population + 1` to read.)
pub fn project_rows(mut rows: Vec<Row>, exprs: &[BoundExpr]) -> Result<Vec<Row>> {
    let moves = movable_columns(exprs);
    let mut staged: Vec<Value> = Vec::with_capacity(exprs.len());
    for row in &mut rows {
        for (expr, moved) in exprs.iter().zip(&moves) {
            staged.push(match moved {
                Some(_) => Value::Null,
                None => eval(expr, row)?.into_owned(),
            });
        }
        let mut values = std::mem::take(row).into_values();
        for (slot, moved) in staged.iter_mut().zip(&moves) {
            if let Some(i) = *moved {
                *slot = values.get_mut(i).map(std::mem::take).unwrap_or_default();
            }
        }
        values.clear();
        values.append(&mut staged);
        *row = Row::new(values);
    }
    Ok(rows)
}

/// For each projected expression, the input column it may take by move: it
/// is a bare reference to that column, and no expression of the list reads
/// the column anywhere else.
fn movable_columns(exprs: &[BoundExpr]) -> Vec<Option<usize>> {
    let mut reads: HashMap<usize, usize> = HashMap::new();
    for expr in exprs {
        expr.visit(&mut |e| {
            if let BoundExpr::Column(c) = e {
                *reads.entry(c.index).or_default() += 1;
            }
        });
    }
    exprs
        .iter()
        .map(|expr| match expr {
            BoundExpr::Column(c) if reads.get(&c.index) == Some(&1) => Some(c.index),
            _ => None,
        })
        .collect()
}

/// Skip `offset` rows, then keep at most `limit` (all when `None`).
pub fn limit_rows(rows: Vec<Row>, limit: Option<usize>, offset: usize) -> Vec<Row> {
    let iter = rows.into_iter().skip(offset);
    match limit {
        Some(l) => iter.take(l).collect(),
        None => iter.collect(),
    }
}

/// Keep each distinct row's first occurrence, in input order. The firsts
/// are marked by reference and kept in place: no row is cloned.
pub fn distinct_rows(mut rows: Vec<Row>) -> Vec<Row> {
    let mut seen = HashSet::with_capacity(rows.len());
    let first: Vec<bool> = rows.iter().map(|r| seen.insert(r)).collect();
    drop(seen);
    let mut first = first.into_iter();
    rows.retain(|_| first.next().unwrap_or(false));
    rows
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

/// Extract equi-join key pairs `(left_index, right_index)` from a join
/// condition, plus the residual predicate that is not a simple equality.
fn equi_keys(on: &BoundExpr, left_arity: usize) -> (Vec<(usize, usize)>, Vec<BoundExpr>) {
    let mut keys = Vec::new();
    let mut residual = Vec::new();
    for conjunct in split_conjunction(on) {
        if let BoundExpr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } = &conjunct
        {
            if let (BoundExpr::Column(a), BoundExpr::Column(b)) = (left.as_ref(), right.as_ref()) {
                let (a, b) = (a.index, b.index);
                let (l, r) = if a < left_arity && b >= left_arity {
                    (a, b - left_arity)
                } else if b < left_arity && a >= left_arity {
                    (b, a - left_arity)
                } else {
                    residual.push(conjunct.clone());
                    continue;
                };
                keys.push((l, r));
                continue;
            }
        }
        residual.push(conjunct.clone());
    }
    (keys, residual)
}

/// Join two row sets: a hash join on the equi-key conjuncts of `on` when
/// there are any, else a nested loop; what is left of the condition is
/// applied to each candidate pair. Handles INNER, LEFT, RIGHT and CROSS
/// joins. Output order is left-row order, then build-side row order per key;
/// the first error in that order is the one reported.
pub fn join_rows(
    left_rows: &[Row],
    right_rows: &[Row],
    left_arity: usize,
    right_arity: usize,
    kind: JoinKind,
    on: Option<&BoundExpr>,
) -> Result<Vec<Row>> {
    // RIGHT JOIN is a LEFT JOIN with sides swapped then columns reordered.
    if kind == JoinKind::Right {
        let swapped_on = on
            .map(|e| {
                e.remap_columns(&|i| match i {
                    i if i < left_arity => Some(i + right_arity),
                    i if i < left_arity + right_arity => Some(i - left_arity),
                    _ => None,
                })
                .ok_or_else(|| {
                    Error::execution("a join condition names a column outside both inputs")
                })
            })
            .transpose()?;
        let swapped = join_rows(
            right_rows,
            left_rows,
            right_arity,
            left_arity,
            JoinKind::Left,
            swapped_on.as_ref(),
        )?;
        // Each swapped row is `r ++ l`: rotating it in place moves every
        // cell once.
        return Ok(swapped
            .into_iter()
            .map(|row| {
                let mut values = row.into_values();
                let mid = right_arity.min(values.len());
                values.rotate_left(mid);
                Row::new(values)
            })
            .collect());
    }

    let (keys, residual) = match on {
        Some(on) => equi_keys(on, left_arity),
        None => (vec![], vec![]),
    };
    let pad_to = (kind == JoinKind::Left).then_some(left_arity + right_arity);
    let mut out = Vec::new();
    if keys.is_empty() {
        // Nested loop: every right row is a candidate for every left row.
        for l in left_rows {
            push_matches(&mut out, l, right_rows.iter(), on, pad_to)?;
        }
        return Ok(out);
    }
    // Hash join: build on the right side in one pass, keyed by reference
    // into the build rows (no per-row `Vec<Value>` clones), then probe and
    // push straight into `out`. A NULL key matches nothing on either side.
    let mut table: HashMap<Vec<&Value>, Vec<&Row>> = HashMap::new();
    for r in right_rows {
        let key: Vec<&Value> = keys.iter().map(|(_, ri)| r.get(*ri)).collect();
        if !key.iter().any(|v| v.is_null()) {
            table.entry(key).or_default().push(r);
        }
    }
    let residual = conjoin(&residual);
    let mut key = Vec::with_capacity(keys.len());
    for l in left_rows {
        key.clear();
        key.extend(keys.iter().map(|(li, _)| l.get(*li)));
        let candidates = if key.iter().any(|v| v.is_null()) {
            None
        } else {
            table.get(&key)
        };
        let candidates = candidates.into_iter().flatten().copied();
        push_matches(&mut out, l, candidates, residual.as_ref(), pad_to)?;
    }
    Ok(out)
}

/// Append to `out` every `l ++ r` over `candidates` that passes `pred`,
/// which reads the pair's cells where they are: only a kept pair is copied
/// into a row. A left row left without a match is padded with NULLs to
/// `pad_to` columns (LEFT JOIN) or dropped (`None`).
fn push_matches<'a>(
    out: &mut Vec<Row>,
    l: &Row,
    candidates: impl Iterator<Item = &'a Row>,
    pred: Option<&BoundExpr>,
    pad_to: Option<usize>,
) -> Result<()> {
    let before = out.len();
    for r in candidates {
        let keep = match pred {
            Some(p) => eval_pair_predicate(p, l, r)? == Some(true),
            None => true,
        };
        if keep {
            out.push(l.concat(r));
        }
    }
    if let (true, Some(width)) = (out.len() == before, pad_to) {
        let mut padded = l.clone();
        padded.resize(width);
        out.push(padded);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Aggregation and sorting
// ---------------------------------------------------------------------------

/// A group key as [`aggregate_rows`] compares it: a group's owned key, or a
/// row's group values borrowed where they are. Ordered as `Vec<Value>` is,
/// cell by cell, so the map of owned keys answers a borrowed probe.
trait GroupKey {
    fn cells(&self) -> usize;
    fn cell(&self, i: usize) -> &Value;
}

impl GroupKey for Vec<Value> {
    fn cells(&self) -> usize {
        self.len()
    }
    fn cell(&self, i: usize) -> &Value {
        &self[i]
    }
}

impl GroupKey for Vec<Cow<'_, Value>> {
    fn cells(&self) -> usize {
        self.len()
    }
    fn cell(&self, i: usize) -> &Value {
        &self[i]
    }
}

impl<'a> Borrow<dyn GroupKey + 'a> for Vec<Value> {
    fn borrow(&self) -> &(dyn GroupKey + 'a) {
        self
    }
}

impl Ord for dyn GroupKey + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        (0..self.cells())
            .map(|i| self.cell(i))
            .cmp((0..other.cells()).map(|i| other.cell(i)))
    }
}

impl PartialOrd for dyn GroupKey + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for dyn GroupKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for dyn GroupKey + '_ {}

/// Hash aggregation. A row's group values and aggregate arguments are read
/// in place; a group's key is copied once, when the group is new. Groups
/// come out in key order.
pub fn aggregate_rows(
    rows: &[Row],
    group_exprs: &[BoundExpr],
    aggregates: &[BoundExpr],
) -> Result<Vec<Row>> {
    let mut groups: BTreeMap<Vec<Value>, Vec<AggAccumulator>> = BTreeMap::new();

    let make_accs = || -> Result<Vec<AggAccumulator>> {
        aggregates
            .iter()
            .map(|a| match a {
                BoundExpr::Aggregate { func, distinct, .. } => {
                    Ok(AggAccumulator::new(*func, *distinct))
                }
                other => Err(Error::execution(format!(
                    "aggregate list contains a non-aggregate expression: {other}"
                ))),
            })
            .collect()
    };

    let fold = |accs: &mut [AggAccumulator], row: &Row| -> Result<()> {
        for (acc, agg) in accs.iter_mut().zip(aggregates) {
            let BoundExpr::Aggregate { arg, .. } = agg else {
                unreachable!("validated above")
            };
            match arg {
                None => acc.update(&Value::Int(1)),
                Some(a) => acc.update(&*eval(a, row)?),
            }
        }
        Ok(())
    };
    let mut probe: Vec<Cow<'_, Value>> = Vec::with_capacity(group_exprs.len());
    for row in rows {
        probe.clear();
        for e in group_exprs {
            probe.push(eval(e, row)?);
        }
        if let Some(accs) = groups.get_mut(&probe as &dyn GroupKey) {
            fold(accs, row)?;
        } else {
            let mut accs = make_accs()?;
            fold(&mut accs, row)?;
            groups.insert(probe.drain(..).map(Cow::into_owned).collect(), accs);
        }
    }

    // A global aggregate over zero rows still produces one output row.
    if groups.is_empty() && group_exprs.is_empty() {
        groups.insert(vec![], make_accs()?);
    }

    Ok(groups
        .into_iter()
        .map(|(key, accs)| {
            let mut values = key;
            values.extend(accs.iter().map(AggAccumulator::finish));
            Row::new(values)
        })
        .collect())
}

/// Stable multi-key sort. NULL keys sort first under both ASC and DESC, so
/// a row whose key is missing surfaces at the top whatever the direction.
/// That is SQLite's order under ASC and PostgreSQL's under DESC, and neither
/// database's under both: SQLite puts NULLs last under DESC, and
/// PostgreSQL's default for ASC is `NULLS LAST`.
pub fn sort_rows(rows: &mut [Row], keys: &[SortKey]) -> Result<()> {
    let mut order = sorted_order(rows, keys)?;
    // Apply the permutation in place, one cycle at a time: `order[j]` is the
    // row that belongs at `j`, and a placed slot is marked `order[j] = j`.
    for start in 0..order.len() {
        let mut j = start;
        loop {
            let src = std::mem::replace(&mut order[j], j);
            if src == start {
                break;
            }
            rows.swap(j, src);
            j = src;
        }
    }
    Ok(())
}

/// The stable sorted order of `rows` under `keys`, as row indices. The key
/// values are evaluated once per row (keeping the comparator infallible) and
/// borrowed where a key is a column or a literal.
fn sorted_order(rows: &[Row], keys: &[SortKey]) -> Result<Vec<usize>> {
    let width = keys.len();
    let mut key_values: Vec<Cow<'_, Value>> = Vec::with_capacity(rows.len() * width);
    for row in rows {
        for key in keys {
            key_values.push(eval(&key.expr, row)?);
        }
    }
    let mut order: Vec<usize> = (0..rows.len()).collect();
    // Stable sort over indices: equal keys keep input order.
    order.sort_by(|&a, &b| {
        let (ka, kb) = (&key_values[a * width..], &key_values[b * width..]);
        for ((key, ka), kb) in keys.iter().zip(ka).zip(kb) {
            let ord = match (ka.is_null(), kb.is_null()) {
                (true, true) => Ordering::Equal,
                // NULLS FIRST regardless of direction.
                (true, false) => Ordering::Less,
                (false, true) => Ordering::Greater,
                (false, false) => {
                    let ord = ka.total_cmp(kb);
                    if key.ascending {
                        ord
                    } else {
                        ord.reverse()
                    }
                }
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    Ok(order)
}
