//! The plan interpreter: turns a [`LogicalPlan`] into rows.
//!
//! Execution is operator-at-a-time (each operator materializes its output),
//! which keeps every operator easy to verify in isolation. The only latency
//! worth overlapping is the model round trip, and that happens inside a
//! scan: it keeps a window of `EngineConfig::parallelism` model calls in
//! flight (see [`crate::scan`]). The relational operators above a scan run
//! on the calling thread — their inputs are capped by `max_scan_rows` and
//! cost microseconds, less than spawning a thread does — so a plan produces
//! identical rows at any `parallelism`.

use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, HashSet};

use llmsql_plan::{BoundExpr, LogicalPlan, SortKey};
use llmsql_sql::ast::{BinaryOp, JoinKind};
use llmsql_store::CatalogEntry;
use llmsql_types::{clock, Batch, Error, ExecutionMode, Result, Row, Value};

use crate::context::ExecContext;
use crate::eval::{eval, eval_pair_predicate, eval_predicate, AggAccumulator};
use crate::scan::{hybrid_scan, llm_scan, table_scan, ScanSpec};

/// Execute a logical plan and return the result batch.
pub fn execute(ctx: &ExecContext, plan: &LogicalPlan) -> Result<Batch> {
    let rows = execute_rows(ctx, plan)?;
    ctx.metrics.borrow_mut().rows_output = rows.len() as u64;
    Ok(Batch::new(plan.schema(), rows))
}

/// Execute a plan node to rows.
pub fn execute_rows(ctx: &ExecContext, plan: &LogicalPlan) -> Result<Vec<Row>> {
    execute_rows_at(ctx, plan, "0")
}

/// Execute a plan node identified by its pre-order path (`"0"` = root,
/// `"0.1"` = its second child), recording per-operator actuals — output
/// rows, wall time, and the LLM calls issued while the subtree ran — under
/// that path in [`crate::metrics::ExecMetrics::op_stats`]. Call attribution
/// reads the query's own ledger before and after, which is exact because
/// nobody else writes it and operators run one at a time: a child completes
/// before its parent does any work of its own.
fn execute_rows_at(ctx: &ExecContext, plan: &LogicalPlan, path: &str) -> Result<Vec<Row>> {
    let calls_before = ctx.metrics.borrow().llm_calls();
    let started = clock::now();
    let rows = execute_node(ctx, plan, path)?;
    let wall_ms = (clock::now() - started).as_secs_f64() * 1000.0;
    let mut ledger = ctx.metrics.borrow_mut();
    let calls = ledger.llm_calls() - calls_before;
    let s = ledger.op_stats.entry(path.to_string()).or_default();
    s.rows_out += rows.len() as u64;
    s.llm_calls += calls;
    s.wall_ms += wall_ms;
    Ok(rows)
}

fn execute_node(ctx: &ExecContext, plan: &LogicalPlan, path: &str) -> Result<Vec<Row>> {
    match plan {
        LogicalPlan::Scan {
            table,
            table_schema,
            pushed_filter,
            prompt_columns,
            virtual_table,
            pushed_limit,
            ..
        } => {
            let spec = ScanSpec {
                table,
                table_schema,
                pushed_filter: pushed_filter.as_ref(),
                prompt_columns: prompt_columns.as_deref(),
                pushed_limit: *pushed_limit,
            };
            execute_scan(ctx, &spec, *virtual_table)
        }
        LogicalPlan::Values { rows, .. } => rows
            .iter()
            .map(|exprs| {
                exprs
                    .iter()
                    .map(|e| eval(e, &Row::empty()).map(Cow::into_owned))
                    .collect::<Result<Vec<Value>>>()
                    .map(Row::new)
            })
            .collect(),
        LogicalPlan::Filter { input, predicate } => {
            let mut rows = execute_rows_at(ctx, input, &format!("{path}.0"))?;
            // In place. `retain` cannot stop early, so the first error parks
            // here and the rest of the pass evaluates nothing.
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
        LogicalPlan::Project { input, exprs, .. } => {
            let rows = execute_rows_at(ctx, input, &format!("{path}.0"))?;
            project_rows(rows, exprs)
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            ..
        } => {
            let left_rows = execute_rows_at(ctx, left, &format!("{path}.0"))?;
            let right_rows = execute_rows_at(ctx, right, &format!("{path}.1"))?;
            join_rows(
                &left_rows,
                &right_rows,
                left.schema().len(),
                right.schema().len(),
                *kind,
                on.as_ref(),
            )
        }
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggregates,
            ..
        } => {
            let rows = execute_rows_at(ctx, input, &format!("{path}.0"))?;
            aggregate_rows(&rows, group_exprs, aggregates)
        }
        LogicalPlan::Sort { input, keys } => {
            let mut rows = execute_rows_at(ctx, input, &format!("{path}.0"))?;
            sort_rows(&mut rows, keys)?;
            Ok(rows)
        }
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => {
            let rows = execute_rows_at(ctx, input, &format!("{path}.0"))?;
            let iter = rows.into_iter().skip(*offset);
            Ok(match limit {
                Some(l) => iter.take(*l).collect(),
                None => iter.collect(),
            })
        }
        LogicalPlan::Distinct { input } => {
            let mut rows = execute_rows_at(ctx, input, &format!("{path}.0"))?;
            // Mark each row's first occurrence by reference, then keep those
            // in place: no row is cloned.
            let mut seen = HashSet::with_capacity(rows.len());
            let first: Vec<bool> = rows.iter().map(|r| seen.insert(r)).collect();
            drop(seen);
            let mut first = first.into_iter();
            rows.retain(|_| first.next().unwrap_or(false));
            Ok(rows)
        }
    }
}

/// Project every row through `exprs`, each output row built in its input
/// row's own buffer. The computed expressions are evaluated first, while
/// every input cell is still in place; then each column that one bare
/// reference uses and no other expression reads is moved out of the input
/// instead of copied. (Moving a column at its first bare use would leave
/// `NULL` behind for a later `population + 1` to read.)
fn project_rows(mut rows: Vec<Row>, exprs: &[BoundExpr]) -> Result<Vec<Row>> {
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

/// Pick the physical scan for a logical scan based on the execution mode and
/// whether the relation is virtual.
fn execute_scan(ctx: &ExecContext, spec: &ScanSpec, virtual_table: bool) -> Result<Vec<Row>> {
    match ctx.config.mode {
        ExecutionMode::Traditional => {
            let entry = ctx.catalog.get(spec.table)?;
            match entry {
                CatalogEntry::Materialized(table) => table_scan(ctx, spec, &table),
                CatalogEntry::Virtual(_) => Err(Error::execution(format!(
                    "table '{}' is virtual; traditional mode cannot scan it",
                    spec.table
                ))),
            }
        }
        ExecutionMode::LlmOnly => llm_scan(ctx, spec),
        ExecutionMode::Hybrid => {
            if virtual_table {
                return llm_scan(ctx, spec);
            }
            match ctx.catalog.get(spec.table)? {
                CatalogEntry::Materialized(table) => hybrid_scan(ctx, spec, &table),
                CatalogEntry::Virtual(_) => llm_scan(ctx, spec),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

/// Extract equi-join key pairs `(left_index, right_index)` from a join
/// condition, plus the residual predicate that is not a simple equality.
fn equi_keys(on: &BoundExpr, left_arity: usize) -> (Vec<(usize, usize)>, Vec<BoundExpr>) {
    let mut keys = Vec::new();
    let mut residual = Vec::new();
    for conjunct in llmsql_plan::split_conjunction(on) {
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
    let residual = llmsql_plan::conjoin(&residual);
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
/// in place; a group's key is copied once, when the group is new.
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

/// Stable multi-key sort. NULL keys sort first under both ASC and DESC
/// (NULLS FIRST, as in PostgreSQL's `NULLS FIRST` / SQLite's default for
/// ASC — we extend it to DESC so missing evidence always surfaces at the top
/// rather than flipping ends with the direction).
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

#[cfg(test)]
mod tests {
    use super::*;
    use llmsql_plan::{bind_select, optimize, OptimizerOptions};
    use llmsql_sql::{parse_statement, Statement};
    use llmsql_store::Catalog;
    use llmsql_types::{Column, DataType, EngineConfig, Schema};

    fn catalog() -> Catalog {
        let cat = Catalog::new();
        let countries = cat
            .create_table(Schema::new(
                "countries",
                vec![
                    Column::new("name", DataType::Text).primary_key(),
                    Column::new("region", DataType::Text),
                    Column::new("population", DataType::Int),
                ],
            ))
            .unwrap();
        for (n, r, p) in [
            ("France", "Europe", 68),
            ("Germany", "Europe", 84),
            ("Japan", "Asia", 125),
            ("Peru", "Americas", 34),
            ("Kenya", "Africa", 54),
            ("Iceland", "Europe", 1),
        ] {
            countries
                .insert(Row::new(vec![n.into(), r.into(), Value::Int(p)]))
                .unwrap();
        }
        let cities = cat
            .create_table(Schema::new(
                "cities",
                vec![
                    Column::new("name", DataType::Text).primary_key(),
                    Column::new("country", DataType::Text),
                    Column::new("population", DataType::Int),
                ],
            ))
            .unwrap();
        for (n, c, p) in [
            ("Paris", "France", 2),
            ("Lyon", "France", 1),
            ("Berlin", "Germany", 3),
            ("Tokyo", "Japan", 13),
            ("Atlantis City", "Atlantis", 0),
        ] {
            cities
                .insert(Row::new(vec![n.into(), c.into(), Value::Int(p)]))
                .unwrap();
        }
        cat
    }

    fn run(sql: &str) -> Batch {
        let cat = catalog();
        let stmt = parse_statement(sql).unwrap();
        let Statement::Select(select) = stmt else {
            panic!()
        };
        let plan = optimize(
            bind_select(&cat, &select).unwrap(),
            &OptimizerOptions::default(),
        );
        let ctx = ExecContext::new(
            cat,
            None,
            EngineConfig {
                mode: ExecutionMode::Traditional,
                ..EngineConfig::default()
            },
        );
        execute(&ctx, &plan).unwrap()
    }

    fn cell(batch: &Batch, row: usize, col: usize) -> Value {
        batch.rows[row].get(col).clone()
    }

    #[test]
    fn select_star() {
        let b = run("SELECT * FROM countries");
        assert_eq!(b.len(), 6);
        assert_eq!(b.schema.len(), 3);
    }

    #[test]
    fn filter_projection_order_limit() {
        let b = run(
            "SELECT name, population FROM countries WHERE region = 'Europe' \
             ORDER BY population DESC LIMIT 2",
        );
        assert_eq!(b.len(), 2);
        assert_eq!(cell(&b, 0, 0), Value::Text("Germany".into()));
        assert_eq!(cell(&b, 1, 0), Value::Text("France".into()));
    }

    #[test]
    fn expression_projection() {
        let b =
            run("SELECT name, population * 2 AS double_pop FROM countries WHERE name = 'Japan'");
        assert_eq!(cell(&b, 0, 1), Value::Int(250));
        assert_eq!(b.schema.names()[1], "double_pop");
    }

    #[test]
    fn inner_join_matches() {
        let b = run(
            "SELECT ci.name, c.region FROM cities ci JOIN countries c ON ci.country = c.name \
             ORDER BY ci.name",
        );
        assert_eq!(b.len(), 4); // Atlantis City has no matching country
        assert_eq!(cell(&b, 0, 0), Value::Text("Berlin".into()));
        assert_eq!(cell(&b, 0, 1), Value::Text("Europe".into()));
    }

    #[test]
    fn left_join_pads_nulls() {
        let b = run(
            "SELECT ci.name, c.name FROM cities ci LEFT JOIN countries c ON ci.country = c.name \
             ORDER BY ci.name",
        );
        assert_eq!(b.len(), 5);
        let atlantis = b
            .rows
            .iter()
            .find(|r| r.get(0) == &Value::Text("Atlantis City".into()))
            .unwrap();
        assert!(atlantis.get(1).is_null());
    }

    #[test]
    fn right_join_keeps_unmatched_right() {
        let b = run(
            "SELECT ci.name, c.name FROM cities ci RIGHT JOIN countries c ON ci.country = c.name",
        );
        // every country appears; countries without cities padded with NULL city
        assert_eq!(
            b.rows.iter().filter(|r| r.get(0).is_null()).count(),
            3 // Peru, Kenya, Iceland
        );
    }

    #[test]
    fn cross_join_cardinality() {
        let b = run("SELECT c.name, ci.name FROM countries c CROSS JOIN cities ci");
        assert_eq!(b.len(), 30);
    }

    #[test]
    fn join_with_extra_condition() {
        let b = run(
            "SELECT ci.name FROM cities ci JOIN countries c ON ci.country = c.name AND ci.population > 1",
        );
        assert_eq!(b.len(), 3); // Paris, Berlin, Tokyo
    }

    #[test]
    fn group_by_aggregates() {
        let b = run(
            "SELECT region, COUNT(*) AS n, SUM(population) AS pop, AVG(population) AS avg_pop, \
             MIN(population) AS min_pop, MAX(population) AS max_pop \
             FROM countries GROUP BY region ORDER BY region",
        );
        assert_eq!(b.len(), 4);
        // regions sorted: Africa, Americas, Asia, Europe
        assert_eq!(cell(&b, 3, 0), Value::Text("Europe".into()));
        assert_eq!(cell(&b, 3, 1), Value::Int(3));
        assert_eq!(cell(&b, 3, 2), Value::Int(153));
        assert_eq!(cell(&b, 3, 3), Value::Float(51.0));
        assert_eq!(cell(&b, 3, 4), Value::Int(1));
        assert_eq!(cell(&b, 3, 5), Value::Int(84));
    }

    #[test]
    fn having_filters_groups() {
        let b =
            run("SELECT region, COUNT(*) AS n FROM countries GROUP BY region HAVING COUNT(*) > 1");
        assert_eq!(b.len(), 1);
        assert_eq!(cell(&b, 0, 0), Value::Text("Europe".into()));
    }

    #[test]
    fn global_aggregate() {
        let b = run("SELECT COUNT(*), SUM(population) FROM countries");
        assert_eq!(b.len(), 1);
        assert_eq!(cell(&b, 0, 0), Value::Int(6));
        assert_eq!(cell(&b, 0, 1), Value::Int(366));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let b = run("SELECT COUNT(*) FROM countries WHERE population > 99999");
        assert_eq!(b.len(), 1);
        assert_eq!(cell(&b, 0, 0), Value::Int(0));
    }

    #[test]
    fn distinct_values() {
        let b = run("SELECT DISTINCT region FROM countries");
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn count_distinct() {
        let b = run("SELECT COUNT(DISTINCT region) FROM countries");
        assert_eq!(cell(&b, 0, 0), Value::Int(4));
    }

    #[test]
    fn in_and_between_and_like() {
        assert_eq!(
            run("SELECT name FROM countries WHERE region IN ('Asia', 'Africa')").len(),
            2
        );
        assert_eq!(
            run("SELECT name FROM countries WHERE population BETWEEN 50 AND 90").len(),
            3
        );
        assert_eq!(
            run("SELECT name FROM countries WHERE name LIKE 'I%'").len(),
            1
        );
    }

    #[test]
    fn case_expression_in_projection() {
        let b = run(
            "SELECT name, CASE WHEN population > 80 THEN 'big' ELSE 'small' END AS size \
             FROM countries WHERE name IN ('Japan', 'Iceland') ORDER BY name",
        );
        assert_eq!(cell(&b, 0, 1), Value::Text("small".into()));
        assert_eq!(cell(&b, 1, 1), Value::Text("big".into()));
    }

    #[test]
    fn constant_query_without_from() {
        let b = run("SELECT 1 + 1 AS two, 'hello' AS greeting");
        assert_eq!(b.len(), 1);
        assert_eq!(cell(&b, 0, 0), Value::Int(2));
        assert_eq!(cell(&b, 0, 1), Value::Text("hello".into()));
    }

    #[test]
    fn offset_and_positional_order() {
        let b = run("SELECT name FROM countries ORDER BY 1 LIMIT 2 OFFSET 1");
        assert_eq!(b.len(), 2);
        assert_eq!(cell(&b, 0, 0), Value::Text("Germany".into()));
    }

    #[test]
    fn subquery_in_from_executes() {
        let b = run(
            "SELECT big.name FROM (SELECT name, population FROM countries WHERE population > 60) AS big \
             ORDER BY big.name",
        );
        assert_eq!(b.len(), 3);
        assert_eq!(cell(&b, 0, 0), Value::Text("France".into()));
    }

    #[test]
    fn traditional_mode_rejects_virtual_tables() {
        let cat = catalog();
        cat.create_virtual_table(Schema::new(
            "ghosts",
            vec![Column::new("name", DataType::Text).primary_key()],
        ))
        .unwrap();
        let stmt = parse_statement("SELECT * FROM ghosts").unwrap();
        let Statement::Select(select) = stmt else {
            panic!()
        };
        let plan = bind_select(&cat, &select).unwrap();
        let ctx = ExecContext::new(
            cat,
            None,
            EngineConfig {
                mode: ExecutionMode::Traditional,
                ..EngineConfig::default()
            },
        );
        assert!(execute(&ctx, &plan).is_err());
    }

    #[test]
    fn metrics_track_operators_and_rows() {
        let cat = catalog();
        let stmt = parse_statement("SELECT name FROM countries WHERE population > 60").unwrap();
        let Statement::Select(select) = stmt else {
            panic!()
        };
        let plan = optimize(
            bind_select(&cat, &select).unwrap(),
            &OptimizerOptions::default(),
        );
        let ctx = ExecContext::new(
            cat,
            None,
            EngineConfig {
                mode: ExecutionMode::Traditional,
                ..EngineConfig::default()
            },
        );
        let batch = execute(&ctx, &plan).unwrap();
        let m = ctx.metrics.borrow();
        assert_eq!(m.rows_output, batch.len() as u64);
        assert_eq!(m.op_stats["0"].rows_out, batch.len() as u64);
        assert_eq!(m.llm_calls(), 0);
    }

    #[test]
    fn sort_rows_puts_nulls_first_in_both_directions() {
        use llmsql_types::DataType;
        let make_rows = || -> Vec<Row> {
            vec![
                Row::new(vec!["b".into(), Value::Int(2)]),
                Row::new(vec!["n1".into(), Value::Null]),
                Row::new(vec!["a".into(), Value::Int(1)]),
                Row::new(vec!["n2".into(), Value::Null]),
                Row::new(vec!["c".into(), Value::Int(3)]),
            ]
        };
        let key = |ascending: bool| {
            vec![SortKey {
                expr: BoundExpr::col(1, "v", DataType::Int),
                ascending,
            }]
        };
        let labels = |rows: &[Row]| -> Vec<String> {
            rows.iter().map(|r| r.get(0).to_display_string()).collect()
        };

        let mut asc = make_rows();
        sort_rows(&mut asc, &key(true)).unwrap();
        // NULLs lead and preserve input order (stable sort).
        assert_eq!(labels(&asc), vec!["n1", "n2", "a", "b", "c"]);

        let mut desc = make_rows();
        sort_rows(&mut desc, &key(false)).unwrap();
        // NULLs still first even though the value order flips.
        assert_eq!(labels(&desc), vec!["n1", "n2", "c", "b", "a"]);
    }

    #[test]
    fn sort_rows_multi_key_stability() {
        use llmsql_types::DataType;
        let mut rows = vec![
            Row::new(vec!["x".into(), Value::Int(1), Value::Int(10)]),
            Row::new(vec!["y".into(), Value::Int(1), Value::Null]),
            Row::new(vec!["z".into(), Value::Int(0), Value::Int(5)]),
        ];
        let keys = vec![
            SortKey {
                expr: BoundExpr::col(1, "k1", DataType::Int),
                ascending: true,
            },
            SortKey {
                expr: BoundExpr::col(2, "k2", DataType::Int),
                ascending: false,
            },
        ];
        sort_rows(&mut rows, &keys).unwrap();
        let order: Vec<String> = rows.iter().map(|r| r.get(0).to_display_string()).collect();
        // k1 ascending groups z first; within k1 = 1 the NULL k2 leads even
        // under DESC.
        assert_eq!(order, vec!["z", "y", "x"]);
    }

    #[test]
    fn a_right_join_on_a_column_outside_both_inputs_is_an_error() {
        use llmsql_types::DataType;
        let left = vec![Row::new(vec![Value::Int(1)])];
        let right = vec![Row::new(vec![Value::Int(1)])];
        let on = |column: usize| BoundExpr::Binary {
            left: Box::new(BoundExpr::col(0, "l", DataType::Int)),
            op: BinaryOp::Eq,
            right: Box::new(BoundExpr::col(column, "r", DataType::Int)),
        };
        let joined = join_rows(&left, &right, 1, 1, JoinKind::Right, Some(&on(1))).unwrap();
        assert_eq!(joined, vec![Row::new(vec![Value::Int(1), Value::Int(1)])]);
        let err = join_rows(&left, &right, 1, 1, JoinKind::Right, Some(&on(2))).unwrap_err();
        assert_eq!(err.kind, llmsql_types::ErrorKind::Execution, "{err}");
    }
}
