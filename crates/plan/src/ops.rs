//! The relational operators: each turns its input rows into one plan node's
//! output rows, over the one scalar evaluator. Two walkers of a
//! [`LogicalPlan`](crate::LogicalPlan) call them — the engine's executor and
//! the simulated model answering a whole query — and each of their arms is
//! one call here, so the two cannot disagree on a join, a group or a sort
//! order.
//!
//! A join and an aggregation have one implementation each, fed one row at a
//! time: [`HashJoin`] is built over the input it keeps and probed with the
//! other, and [`Aggregator`] folds its input and finishes into groups. Each
//! only reads the rows it is fed, so the executor hands them a scan's rows
//! one after another from one reused buffer; [`join_rows`] and
//! [`aggregate_rows`] feed them a slice.
//!
//! A column reference or a literal evaluates borrowed (from the row, from
//! the plan), a computed value owned; errors are raised as
//! [`ErrorKind::Execution`]. Aggregates are [`AggAccumulator`]'s.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{BuildHasher, Hash, Hasher};

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
/// joins. Output order is left-row order, then build-side row order per key
/// (right-row order under RIGHT JOIN); the first error in that order is the
/// one reported. [`HashJoin`] over the whole probe side.
pub fn join_rows(
    left_rows: &[Row],
    right_rows: &[Row],
    left_arity: usize,
    right_arity: usize,
    kind: JoinKind,
    on: Option<&BoundExpr>,
) -> Result<Vec<Row>> {
    let (build, probe) = if kind == JoinKind::Right {
        (left_rows, right_rows)
    } else {
        (right_rows, left_rows)
    };
    let mut join = HashJoin::new(build, left_arity, right_arity, kind, on)?;
    for row in probe {
        join.probe(row)?;
    }
    Ok(join.finish())
}

/// A join built over the input it keeps and probed with the other one row
/// at a time, so the probe side is only read: its rows may be handed in one
/// after another from one reused buffer. The build side is the right input,
/// and the left one under RIGHT JOIN (a LEFT JOIN with the sides swapped);
/// the probe side is the other. Each probe row's matches are pushed in build
/// order, and an unmatched one is padded (LEFT, RIGHT) or dropped.
pub struct HashJoin<'b> {
    build: &'b [Row],
    /// `(probe column, build column)` of each equi-key conjunct of the
    /// condition; none for a nested loop, where every build row is a
    /// candidate.
    keys: Vec<(usize, usize)>,
    hasher: RandomState,
    /// The build rows of each key hash, in build order. A row with a NULL
    /// key matches nothing and is left out.
    table: HashMap<u64, Vec<&'b Row>>,
    /// What a candidate pair must pass, read over `probe ++ build`: the
    /// residual of the equi-keys, or a nested loop's whole condition.
    pred: Option<Cow<'b, BoundExpr>>,
    /// The width of a padded row (LEFT, RIGHT), or `None` to drop an
    /// unmatched probe row.
    pad_to: Option<usize>,
    /// RIGHT JOIN: the probe row is the right input's, written after the
    /// build row it joins.
    swapped: bool,
    out: Vec<Row>,
}

impl<'b> HashJoin<'b> {
    /// The join of `kind` on `on`, over `left_arity` and `right_arity`
    /// columns, built over `build`: the right input's rows, or the left
    /// input's under RIGHT JOIN.
    pub fn new(
        build: &'b [Row],
        left_arity: usize,
        right_arity: usize,
        kind: JoinKind,
        on: Option<&'b BoundExpr>,
    ) -> Result<Self> {
        let swapped = kind == JoinKind::Right;
        let probe_arity = if swapped { right_arity } else { left_arity };
        // The condition over `probe ++ build`.
        let on = match on {
            Some(on) if swapped => Some(Cow::Owned(
                on.remap_columns(&|i| match i {
                    i if i < left_arity => Some(i + right_arity),
                    i if i < left_arity + right_arity => Some(i - left_arity),
                    _ => None,
                })
                .ok_or_else(|| {
                    Error::execution("a join condition names a column outside both inputs")
                })?,
            )),
            on => on.map(Cow::Borrowed),
        };
        let (keys, residual) = match &on {
            Some(on) => equi_keys(on, probe_arity),
            None => (vec![], vec![]),
        };
        let pred = if keys.is_empty() {
            on
        } else {
            conjoin(&residual).map(Cow::Owned)
        };
        let mut join = HashJoin {
            build,
            keys,
            hasher: RandomState::new(),
            table: HashMap::new(),
            pred,
            pad_to: matches!(kind, JoinKind::Left | JoinKind::Right)
                .then_some(left_arity + right_arity),
            swapped,
            out: Vec::new(),
        };
        if !join.keys.is_empty() {
            for row in build {
                if let Some(hash) = key_hash(&join.hasher, &join.keys, row, |&(_, b)| b) {
                    join.table.entry(hash).or_default().push(row);
                }
            }
        }
        Ok(join)
    }

    /// Join one probe row: push each build row it matches, in build order.
    pub fn probe(&mut self, row: &Row) -> Result<()> {
        let HashJoin {
            build,
            keys,
            hasher,
            table,
            pred,
            pad_to,
            swapped,
            out,
        } = self;
        let before = out.len();
        // Push the pair if it passes the condition, which reads its cells
        // where they are: only a kept pair is copied.
        let mut push = |candidate: &Row| -> Result<()> {
            let keep = match pred {
                Some(p) => eval_pair_predicate(p, row, candidate)? == Some(true),
                None => true,
            };
            if keep {
                out.push(if *swapped {
                    candidate.concat(row)
                } else {
                    row.concat(candidate)
                });
            }
            Ok(())
        };
        if keys.is_empty() {
            build.iter().try_for_each(&mut push)?;
        } else if let Some(hash) = key_hash(hasher, keys, row, |&(p, _)| p) {
            for &candidate in table.get(&hash).into_iter().flatten() {
                if keys.iter().all(|&(p, b)| row.get(p) == candidate.get(b)) {
                    push(candidate)?;
                }
            }
        }
        if let (true, Some(width)) = (out.len() == before, *pad_to) {
            out.push(if *swapped {
                let mut values = vec![Value::Null; width.saturating_sub(row.arity())];
                values.extend_from_slice(row.values());
                Row::new(values)
            } else {
                let mut padded = row.clone();
                padded.resize(width);
                padded
            });
        }
        Ok(())
    }

    /// The joined rows, in probe order.
    pub fn finish(self) -> Vec<Row> {
        self.out
    }
}

/// The hash of `row`'s join key — the column `side` picks from each pair of
/// `keys` — or `None` if some key cell is NULL.
fn key_hash(
    hasher: &RandomState,
    keys: &[(usize, usize)],
    row: &Row,
    side: impl Fn(&(usize, usize)) -> usize,
) -> Option<u64> {
    let mut state = hasher.build_hasher();
    for pair in keys {
        let cell = row.get(side(pair));
        if cell.is_null() {
            return None;
        }
        cell.hash(&mut state);
    }
    Some(state.finish())
}

// ---------------------------------------------------------------------------
// Aggregation and sorting
// ---------------------------------------------------------------------------

/// Hash aggregation: [`Aggregator`] folded over `rows`. Groups come out in
/// key order.
pub fn aggregate_rows(
    rows: &[Row],
    group_exprs: &[BoundExpr],
    aggregates: &[BoundExpr],
) -> Result<Vec<Row>> {
    let mut aggregator = Aggregator::new(group_exprs, aggregates);
    for row in rows {
        aggregator.fold(row)?;
    }
    aggregator.finish()
}

/// A hash aggregation fed one row at a time, so its input is only read: the
/// rows may be handed in one after another from one reused buffer. A row's
/// group values are written into one probe reused row to row (a text value
/// into the probe's own `String`), and a group's key is copied once, when
/// the group is new.
pub struct Aggregator<'p> {
    group_exprs: &'p [BoundExpr],
    aggregates: &'p [BoundExpr],
    groups: BTreeMap<Vec<Value>, Vec<AggAccumulator>>,
    probe: Vec<Value>,
}

impl<'p> Aggregator<'p> {
    /// The aggregation of `aggregates` per group of `group_exprs`' values.
    pub fn new(group_exprs: &'p [BoundExpr], aggregates: &'p [BoundExpr]) -> Self {
        Aggregator {
            group_exprs,
            aggregates,
            groups: BTreeMap::new(),
            probe: vec![Value::Null; group_exprs.len()],
        }
    }

    /// A new group's accumulators.
    fn accumulators(&self) -> Result<Vec<AggAccumulator>> {
        self.aggregates
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
    }

    /// Fold one row into its group.
    pub fn fold(&mut self, row: &Row) -> Result<()> {
        for (slot, e) in self.probe.iter_mut().zip(self.group_exprs) {
            match eval(e, row)? {
                Cow::Borrowed(value) => slot.clone_from(value),
                Cow::Owned(value) => *slot = value,
            }
        }
        if let Some(accs) = self.groups.get_mut(&self.probe) {
            return update(accs, self.aggregates, row);
        }
        let mut accs = self.accumulators()?;
        update(&mut accs, self.aggregates, row)?;
        self.groups.insert(self.probe.clone(), accs);
        Ok(())
    }

    /// The groups' rows, in key order: each group's key, then its
    /// aggregates. A global aggregate over zero rows still produces one.
    pub fn finish(mut self) -> Result<Vec<Row>> {
        if self.groups.is_empty() && self.group_exprs.is_empty() {
            self.groups.insert(vec![], self.accumulators()?);
        }
        Ok(self
            .groups
            .into_iter()
            .map(|(key, accs)| {
                let mut values = key;
                values.extend(accs.iter().map(AggAccumulator::finish));
                Row::new(values)
            })
            .collect())
    }
}

/// Fold `row` into a group's accumulators, one per aggregate expression.
fn update(accs: &mut [AggAccumulator], aggregates: &[BoundExpr], row: &Row) -> Result<()> {
    for (acc, agg) in accs.iter_mut().zip(aggregates) {
        let BoundExpr::Aggregate { arg, .. } = agg else {
            unreachable!("validated when the group was made")
        };
        match arg {
            None => acc.update(&Value::Int(1)),
            Some(a) => acc.update(&*eval(a, row)?),
        }
    }
    Ok(())
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
