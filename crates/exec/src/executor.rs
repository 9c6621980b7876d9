//! The plan interpreter: turns a [`LogicalPlan`] into rows.
//!
//! The walk only dispatches: a scan runs here, and every other node is one
//! call to its relational operator in [`llmsql_plan::ops`], which the
//! simulated model's whole-query answer runs too. What the walk adds is the
//! engine's own: how the plan runs — operator by operator, or as one
//! full-query prompt — the physical scan it picks per execution mode and
//! the per-operator actuals it records.
//!
//! Execution is operator-at-a-time: each operator runs to completion before
//! its parent does any work of its own, which keeps every operator easy to
//! verify in isolation. Not every operator materializes its input, though.
//! An aggregate only folds its input, and a join only reads its probe side
//! (the left input; the right one under RIGHT JOIN), so a model page scan
//! under either hands over the pages it consumed instead of rows, and the
//! operator reads them a line at a time, decoded into one reused row
//! ([`llmsql_plan::ops::Aggregator`], [`llmsql_plan::ops::HashJoin`]), so
//! no row is allocated for a line that is only read. Every other input — a
//! join's build side included — is a `Vec<Row>`, decoded as its scan's
//! pages arrive.
//!
//! The only latency worth overlapping is the model round trip, and that
//! happens inside a scan: it keeps a window of `EngineConfig::parallelism`
//! model calls in flight (see [`crate::scan`]). The relational operators
//! above a scan run on the calling thread — their inputs are capped by
//! `max_scan_rows` and cost microseconds, less than spawning a thread does —
//! so a plan produces identical rows at any `parallelism`.

use std::sync::Arc;

use llmsql_plan::ops::{
    distinct_rows, filter_rows, limit_rows, project_rows, sort_rows, values_rows, Aggregator,
    HashJoin,
};
use llmsql_plan::LogicalPlan;
use llmsql_sql::ast::JoinKind;
use llmsql_store::CatalogEntry;
use llmsql_types::{clock, Batch, Error, ExecutionMode, PromptStrategy, Result, Row, Schema};

use crate::context::ExecContext;
use crate::metrics::OpStats;
use crate::scan::{
    hybrid_scan, llm_scan, table_scan, whole_query_scan, ModelScan, ScanOutput, ScanSpec,
    WholeQuery,
};

/// A plan and what its runs derive from it alone, built once: how it runs —
/// as one full-query prompt, or operator by operator — and the compiled
/// form of each of its model scans (see [`crate::scan`]). Built for one
/// engine's configuration, catalog generation and client: whoever keeps it
/// across runs drops it when any of those changes.
pub struct CompiledPlan {
    plan: Arc<LogicalPlan>,
    run: Run,
}

/// How a compiled plan runs.
enum Run {
    /// As one `full_query` prompt of the statement.
    Whole(WholeQuery),
    /// Operator by operator: per scan, in execution order (the plan's
    /// scans in pre-order), its compiled model scan, or `None` for a scan
    /// the store answers.
    Operators(Vec<Option<ModelScan>>),
}

impl CompiledPlan {
    /// Compile `plan` for runs under `ctx`'s configuration, catalog and
    /// client; `ctx.statement` is the text a full-query prompt sends.
    pub fn new(ctx: &ExecContext<'_>, plan: Arc<LogicalPlan>) -> Result<Self> {
        let run = match one_prompt(ctx, &plan) {
            Some((sql, context)) => Run::Whole(WholeQuery::new(sql, &plan.schema(), context)),
            None => {
                let mut scans = Vec::new();
                compile_scans(ctx, &plan, &mut scans)?;
                Run::Operators(scans)
            }
        };
        Ok(CompiledPlan { plan, run })
    }

    /// The logical plan.
    pub fn plan(&self) -> &LogicalPlan {
        &self.plan
    }
}

/// Compile the model scans of `plan` into `scans`, in pre-order.
fn compile_scans(
    ctx: &ExecContext<'_>,
    plan: &LogicalPlan,
    scans: &mut Vec<Option<ModelScan>>,
) -> Result<()> {
    if let Some((spec, virtual_table)) = scan_spec(plan) {
        let asks = asks_model(ctx, &spec, virtual_table)?;
        scans.push(asks.then(|| ModelScan::new(ctx, &spec)).transpose()?);
        return Ok(());
    }
    plan.children()
        .into_iter()
        .try_for_each(|child| compile_scans(ctx, child, scans))
}

/// Whether the mode answers a scan of `spec` from the model: always in
/// LlmOnly mode, never in Traditional, and in Hybrid for a virtual relation.
fn asks_model(ctx: &ExecContext<'_>, spec: &ScanSpec<'_>, virtual_table: bool) -> Result<bool> {
    Ok(match ctx.config.mode {
        ExecutionMode::Traditional => false,
        ExecutionMode::LlmOnly => true,
        ExecutionMode::Hybrid => {
            virtual_table || matches!(ctx.catalog.get(spec.table)?, CatalogEntry::Virtual(_))
        }
    })
}

/// Execute a compiled plan and return the result batch.
pub fn execute(ctx: &ExecContext<'_>, compiled: &CompiledPlan) -> Result<Batch> {
    let plan = compiled.plan();
    let rows = match &compiled.run {
        Run::Whole(query) => {
            timed(ctx, || whole_query_scan(ctx, query).map(ScanOutput::Rows))?.into_rows()?
        }
        Run::Operators(scans) => {
            let mut walk = Walk {
                ctx,
                scans: scans.iter(),
            };
            walk.rows(plan)?
        }
    };
    ctx.metrics.borrow_mut().rows_output = rows.len() as u64;
    Ok(Batch::new(plan.schema(), rows))
}

/// One run's walk of a compiled plan: the context, and the compiled scans
/// not yet reached.
struct Walk<'c, 'e> {
    ctx: &'c ExecContext<'e>,
    scans: std::slice::Iter<'c, Option<ModelScan>>,
}

impl<'c> Walk<'c, '_> {
    /// The rows of `plan`.
    fn rows(&mut self, plan: &LogicalPlan) -> Result<Vec<Row>> {
        self.output(plan, false)?.into_rows()
    }

    /// Execute the plan node `plan`, recording its actuals (see [`timed`]).
    /// `only_read` says that the operator above only reads the rows — an
    /// aggregate's input, a join's probe side — so a page scan may hand over
    /// the pages that hold them instead of decoding them.
    fn output(&mut self, plan: &LogicalPlan, only_read: bool) -> Result<ScanOutput<'c>> {
        let ctx = self.ctx;
        timed(ctx, || match scan_spec(plan) {
            Some((spec, _)) => {
                let compiled = self.scans.next().ok_or_else(not_a_scan)?;
                self.scan(&spec, compiled.as_ref(), only_read)
            }
            None => self.node(plan).map(ScanOutput::Rows),
        })
    }

    /// Execute an operator above the scans.
    fn node(&mut self, plan: &LogicalPlan) -> Result<Vec<Row>> {
        match plan {
            LogicalPlan::Scan { .. } => Err(not_a_scan()),
            LogicalPlan::Values { rows, .. } => values_rows(rows),
            LogicalPlan::Filter { input, predicate } => filter_rows(self.rows(input)?, predicate),
            LogicalPlan::Project { input, exprs, .. } => project_rows(self.rows(input)?, exprs),
            LogicalPlan::Join {
                left,
                right,
                kind,
                on,
                ..
            } => {
                // The left input runs first. The probe side is only read:
                // the left input, or the right one under RIGHT JOIN.
                let probe_right = *kind == JoinKind::Right;
                let left_rows = self.output(left, !probe_right)?;
                let right_rows = self.output(right, probe_right)?;
                let (build, probe) = if probe_right {
                    (left_rows, right_rows)
                } else {
                    (right_rows, left_rows)
                };
                let build = build.into_rows()?;
                let mut join =
                    HashJoin::new(&build, left.arity(), right.arity(), *kind, on.as_ref())?;
                probe.for_each_row(|row| join.probe(row))?;
                Ok(join.finish())
            }
            LogicalPlan::Aggregate {
                input,
                group_exprs,
                aggregates,
                ..
            } => {
                let input = self.output(input, true)?;
                let mut aggregator = Aggregator::new(group_exprs, aggregates);
                input.for_each_row(|row| aggregator.fold(row))?;
                aggregator.finish()
            }
            LogicalPlan::Sort { input, keys } => {
                let mut rows = self.rows(input)?;
                sort_rows(&mut rows, keys)?;
                Ok(rows)
            }
            LogicalPlan::Limit {
                input,
                limit,
                offset,
            } => Ok(limit_rows(self.rows(input)?, *limit, *offset)),
            LogicalPlan::Distinct { input } => Ok(distinct_rows(self.rows(input)?)),
        }
    }

    /// Run the scan of `spec`: through its compiled model scan when it asks
    /// the model, holding its pages if `hold`, else from the store — as it
    /// stands in traditional mode, with its NULL cells filled by the model
    /// in hybrid mode.
    fn scan(
        &self,
        spec: &ScanSpec<'_>,
        compiled: Option<&'c ModelScan>,
        hold: bool,
    ) -> Result<ScanOutput<'c>> {
        let ctx = self.ctx;
        if let Some(scan) = compiled {
            return scan.run(ctx, spec, hold);
        }
        let mode = ctx.config.mode;
        let rows = match ctx.catalog.get(spec.table)? {
            CatalogEntry::Materialized(table) if mode == ExecutionMode::Hybrid => {
                hybrid_scan(ctx, spec, &table)
            }
            CatalogEntry::Materialized(table) => table_scan(ctx, spec, &table),
            CatalogEntry::Virtual(_) if mode == ExecutionMode::Traditional => {
                Err(Error::execution(format!(
                    "table '{}' is virtual; traditional mode cannot scan it",
                    spec.table
                )))
            }
            // Made virtual since the plan was compiled: compile the scan for
            // this run.
            CatalogEntry::Virtual(_) => llm_scan(ctx, spec),
        };
        rows.map(ScanOutput::Rows)
    }
}

/// Run `body` as the next plan node in pre-order — the walk numbers a node
/// as it enters it, so its children come after it — and record its actuals
/// at that position of [`crate::metrics::ExecMetrics::op_stats`]: output
/// rows, wall time, and the LLM calls issued while its subtree ran. Call
/// attribution reads the query's own ledger before and after, which is
/// exact because nobody else writes it and operators run one at a time: a
/// child completes before its parent does any work of its own.
fn timed<'c>(
    ctx: &ExecContext<'_>,
    body: impl FnOnce() -> Result<ScanOutput<'c>>,
) -> Result<ScanOutput<'c>> {
    let (node, calls_before) = {
        let mut ledger = ctx.metrics.borrow_mut();
        ledger.op_stats.push(OpStats::default());
        (ledger.op_stats.len() - 1, ledger.llm_calls())
    };
    let started = clock::now();
    let output = body()?;
    let wall_ms = (clock::now() - started).as_secs_f64() * 1000.0;
    let mut ledger = ctx.metrics.borrow_mut();
    let llm_calls = ledger.llm_calls() - calls_before;
    ledger.op_stats[node] = OpStats {
        rows_out: output.len() as u64,
        llm_calls,
        wall_ms,
    };
    Ok(output)
}

/// A scan node reached where the walk expected none, or past the last
/// compiled scan: the compiled form does not match its plan.
fn not_a_scan() -> Error {
    Error::execution("a compiled plan does not match its scans")
}

/// The scan spec of a `Scan` node and whether its relation is virtual.
fn scan_spec(plan: &LogicalPlan) -> Option<(ScanSpec<'_>, bool)> {
    let LogicalPlan::Scan {
        table,
        table_schema,
        pushed_filter,
        prompt_columns,
        virtual_table,
        pushed_limit,
        ..
    } = plan
    else {
        return None;
    };
    let spec = ScanSpec {
        table,
        table_schema,
        pushed_filter: pushed_filter.as_ref(),
        prompt_columns: prompt_columns.as_deref(),
        pushed_limit: *pushed_limit,
    };
    Some((spec, *virtual_table))
}

/// The statement and the first scanned relation's schema, if `plan` runs as
/// one full-query prompt: in LlmOnly mode under the full-query strategy,
/// when the plan scans a table and the context holds the statement's text.
fn one_prompt<'a>(ctx: &ExecContext<'a>, plan: &'a LogicalPlan) -> Option<(&'a str, &'a Schema)> {
    let config = ctx.config;
    let whole = (ExecutionMode::LlmOnly, PromptStrategy::FullQuery);
    if (config.mode, config.strategy) != whole {
        return None;
    }
    Some((ctx.statement?, first_scan(plan)?))
}

/// The schema of the first relation `plan` scans, in pre-order.
fn first_scan(plan: &LogicalPlan) -> Option<&Schema> {
    match plan {
        LogicalPlan::Scan { table_schema, .. } => Some(table_schema),
        _ => plan.children().into_iter().find_map(first_scan),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsql_plan::ops::join_rows;
    use llmsql_plan::{bind_select, optimize, BoundExpr, OptimizerOptions, SortKey};
    use llmsql_sql::ast::BinaryOp;
    use llmsql_sql::{parse_statement, Statement};
    use llmsql_store::Catalog;
    use llmsql_types::{Column, DataType, EngineConfig, Schema, Value};

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

    /// `plan` compiled for runs under `ctx`.
    fn compiled(ctx: &ExecContext<'_>, plan: LogicalPlan) -> CompiledPlan {
        CompiledPlan::new(ctx, Arc::new(plan)).unwrap()
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
        let config = EngineConfig {
            mode: ExecutionMode::Traditional,
            ..EngineConfig::default()
        };
        let ctx = ExecContext::new(&cat, None, &config, None);
        execute(&ctx, &compiled(&ctx, plan)).unwrap()
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
        let config = EngineConfig {
            mode: ExecutionMode::Traditional,
            ..EngineConfig::default()
        };
        let ctx = ExecContext::new(&cat, None, &config, None);
        assert!(execute(&ctx, &compiled(&ctx, plan)).is_err());
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
        let config = EngineConfig {
            mode: ExecutionMode::Traditional,
            ..EngineConfig::default()
        };
        let ctx = ExecContext::new(&cat, None, &config, None);
        let batch = execute(&ctx, &compiled(&ctx, plan)).unwrap();
        let m = ctx.metrics.borrow();
        assert_eq!(m.rows_output, batch.len() as u64);
        assert_eq!(m.op_stats[0].rows_out, batch.len() as u64);
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
