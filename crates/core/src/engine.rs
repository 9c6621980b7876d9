//! The engine: the public entry point tying parser, planner, executor,
//! relational store and language-model storage together.

use std::sync::Arc;

use llmsql_exec::{
    dispatch_one, eval as eval_expr, execute as execute_plan, CallSlots, ExecContext,
};
use llmsql_llm::prompt::TaskSpec;
use llmsql_llm::{
    parse_pipe_rows, BackendPool, KnowledgeBase, LanguageModel, LlmClient, PromptCoalescer, SimLlm,
};
use llmsql_plan::{
    bind_select, cost_plan, lint_plan, optimize, optimize_traced, schema_from_create, CostParams,
    LogicalPlan, RuleTrace,
};
use llmsql_sql::ast::{InsertStatement, SelectStatement, Statement};
use llmsql_sql::parse_statement;
use llmsql_store::{Catalog, CatalogEntry};
use llmsql_types::{
    clock, Batch, DataType, EngineConfig, Error, ExecutionMode, Field, PromptStrategy, RelSchema,
    Result, Row, Value,
};

use crate::result::QueryResult;

/// The query engine.
///
/// ```
/// use llmsql_core::Engine;
/// use llmsql_types::{EngineConfig, ExecutionMode};
///
/// let mut engine = Engine::new(EngineConfig::default().with_mode(ExecutionMode::Traditional));
/// engine.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)").unwrap();
/// engine.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')").unwrap();
/// let result = engine.execute("SELECT name FROM t WHERE id = 2").unwrap();
/// assert_eq!(result.row_count(), 1);
/// ```
pub struct Engine {
    catalog: Catalog,
    config: EngineConfig,
    client: Option<LlmClient>,
    /// Global LLM-call slot pool shared with other engines/queries (attached
    /// by a cross-query scheduler). `None` means unthrottled dispatch.
    slots: Option<Arc<CallSlots>>,
    /// Deployment-scope single-flight table (attached by a scheduler):
    /// identical in-flight prompts across queries coalesce into one physical
    /// call. `None` = the client's own table (dedup within this engine).
    coalescer: Option<Arc<PromptCoalescer>>,
}

impl Engine {
    /// Create an engine with an empty catalog and no model attached.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            catalog: Catalog::new(),
            config,
            client: None,
            slots: None,
            coalescer: None,
        }
    }

    /// Create an engine over an existing catalog.
    pub fn with_catalog(catalog: Catalog, config: EngineConfig) -> Self {
        Engine {
            catalog,
            config,
            client: None,
            slots: None,
            coalescer: None,
        }
    }

    /// Throttle every LLM dispatch of this engine through a shared
    /// [`CallSlots`] pool: across all queries (and all engines sharing the
    /// pool), at most `pool.capacity()` model requests are in flight at
    /// once. Attached by `llmsql_sched::QueryScheduler`; harmless to set
    /// directly. Throttling delays dispatch only — rows and logical call
    /// counts are unchanged.
    ///
    /// When the engine routes through a `BackendPool`, its hedges fit into
    /// this slot pool too: a hedge fires only against spare slot capacity
    /// and holds a slot while in flight.
    pub fn set_call_slots(&mut self, slots: Arc<CallSlots>) {
        if let Some(pool) = self.client.as_ref().and_then(LlmClient::pool) {
            pool.set_hedge_slots(Some(Arc::clone(&slots)));
        }
        self.slots = Some(slots);
    }

    /// The attached global slot pool, if any.
    pub fn call_slots(&self) -> Option<&Arc<CallSlots>> {
        self.slots.as_ref()
    }

    /// Coalesce this engine's in-flight prompts against a deployment-scope
    /// single-flight table: identical concurrent requests (typically from
    /// different queries, each on its own thread) collapse into one physical call
    /// whose success fans out to every waiter. Attached by
    /// `llmsql_sched::QueryScheduler`; survives a later
    /// [`Engine::attach_model`]. Logical call accounting is unchanged —
    /// followers are charged their logical call but issue no physical one.
    pub fn set_prompt_coalescer(&mut self, coalescer: Arc<PromptCoalescer>) {
        if let Some(client) = &mut self.client {
            client.set_coalescer(Arc::clone(&coalescer));
        }
        self.coalescer = Some(coalescer);
    }

    /// The attached prompt coalescer, if any.
    pub fn prompt_coalescer(&self) -> Option<&Arc<PromptCoalescer>> {
        self.coalescer.as_ref()
    }

    /// Attach a language model (wrapped in a caching, usage-tracking client).
    ///
    /// With `config.backends` non-empty the model is served through a
    /// [`llmsql_llm::BackendPool`] of deterministic remote-like endpoints
    /// (one per [`llmsql_types::BackendSpec`]) with the configured routing
    /// policy and failover; otherwise it is called directly. Fails when the
    /// backend list is invalid (duplicate or empty names, out-of-range
    /// rates) — the same errors `EngineConfig::validate` reports.
    pub fn attach_model(&mut self, model: Arc<dyn LanguageModel>) -> Result<()> {
        let cached = self.config.enable_prompt_cache;
        self.client = Some(if self.config.backends.is_empty() {
            if cached {
                LlmClient::new(model)
            } else {
                LlmClient::without_cache(model)
            }
        } else {
            let pool = BackendPool::from_specs_with_chaos(
                model,
                &self.config.backends,
                self.config.routing_policy,
                self.config.seed,
                self.config.chaos.clone(),
            )?
            .with_retries(self.config.backend_retries)
            .with_backoff_base_ms(self.config.backend_backoff_ms)
            .with_breaker(
                self.config.breaker_threshold,
                self.config.breaker_cooldown_ms,
            )
            .with_hedging(self.config.hedge_multiplier, self.config.hedge_min_ms);
            pool.set_hedge_slots(self.slots.clone());
            LlmClient::from_pool(Arc::new(pool), cached)
        });
        // A scheduler may have attached its slot pool / coalescer before the
        // model was attached; the pool above took the slots, and the fresh
        // client takes the coalescer.
        if let (Some(coalescer), Some(client)) = (&self.coalescer, &mut self.client) {
            client.set_coalescer(Arc::clone(coalescer));
        }
        Ok(())
    }

    /// Attach the simulated model over the given knowledge base, using the
    /// engine configuration's fidelity, cost model and seed. Fails under the
    /// same conditions as [`Engine::attach_model`].
    pub fn attach_simulator(&mut self, kb: Arc<KnowledgeBase>) -> Result<()> {
        let sim = SimLlm::new(kb, self.config.fidelity, self.config.seed)
            .with_cost_model(self.config.cost_model);
        self.attach_model(Arc::new(sim))
    }

    /// Build a knowledge base mirroring every materialized table of a
    /// catalog. This is how the experiments make "what the model knows" equal
    /// to the ground truth stored in the oracle.
    pub fn knowledge_from_catalog(catalog: &Catalog) -> Result<KnowledgeBase> {
        let mut kb = KnowledgeBase::new();
        for name in catalog.table_names() {
            if let CatalogEntry::Materialized(table) = catalog.get(&name)? {
                kb.add_table(table.schema(), table.scan());
            }
        }
        Ok(kb)
    }

    /// The engine's catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Mutable access to the configuration (mode/strategy switches between
    /// experiment runs).
    pub fn config_mut(&mut self) -> &mut EngineConfig {
        &mut self.config
    }

    /// The attached LLM client, if any.
    pub fn client(&self) -> Option<&LlmClient> {
        self.client.as_ref()
    }

    /// Parse and execute one SQL statement.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        let statement = parse_statement(sql)?;
        self.execute_statement(&statement, Some(sql))
    }

    /// Parse and execute one SQL statement under a per-call deadline (in
    /// addition to any engine-wide `EngineConfig::deadline_ms`; the tighter
    /// of the two wins). The deadline clock starts now: scans check it
    /// before every request, requests still in flight when it fires are
    /// cancelled, and the query fails with
    /// [`llmsql_types::ErrorKind::DeadlineExceeded`] (carrying elapsed time
    /// and calls issued). Used by the scheduler to grant each
    /// query only its remaining deadline budget after queueing.
    pub fn execute_with_deadline(&self, sql: &str, deadline_ms: f64) -> Result<QueryResult> {
        let statement = parse_statement(sql)?;
        self.execute_statement_inner(&statement, Some(sql), Some(deadline_ms))
    }

    /// Execute an already-parsed statement. `sql_text` (when available) is
    /// used verbatim for full-query prompting.
    pub fn execute_statement(
        &self,
        statement: &Statement,
        sql_text: Option<&str>,
    ) -> Result<QueryResult> {
        self.execute_statement_inner(statement, sql_text, None)
    }

    fn execute_statement_inner(
        &self,
        statement: &Statement,
        sql_text: Option<&str>,
        deadline_override_ms: Option<f64>,
    ) -> Result<QueryResult> {
        self.config.validate()?;
        if let Some(d) = deadline_override_ms {
            if !d.is_finite() || d <= 0.0 {
                return Err(Error::config(
                    "deadline_ms must be finite and greater than zero",
                ));
            }
        }
        // The effective deadline is the tighter of the engine-wide knob and
        // the per-call override.
        let deadline_ms = match (self.config.deadline_ms, deadline_override_ms) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let start = clock::now();

        let mut result = match statement {
            Statement::Select(select) => self.execute_select(select, sql_text, deadline_ms)?,
            Statement::CreateTable(create) => {
                let schema = schema_from_create(
                    &create.name,
                    &create.columns,
                    create.virtual_table,
                    create.comment.as_deref(),
                )?;
                if create.if_not_exists && self.catalog.contains(&create.name) {
                    QueryResult::default()
                } else {
                    if create.virtual_table {
                        self.catalog.create_virtual_table(schema)?;
                    } else {
                        self.catalog.create_table(schema)?;
                    }
                    QueryResult {
                        rows_affected: 1,
                        ..QueryResult::default()
                    }
                }
            }
            Statement::DropTable { name, if_exists } => {
                let dropped = self.catalog.drop_table(name, *if_exists)?;
                QueryResult {
                    rows_affected: usize::from(dropped),
                    ..QueryResult::default()
                }
            }
            Statement::Insert(insert) => self.execute_insert(insert)?,
            Statement::Describe { name } => self.describe(name)?,
            Statement::Explain { statement, analyze } => {
                let Statement::Select(select) = statement.as_ref() else {
                    return Err(Error::unsupported(
                        "EXPLAIN supports only SELECT statements",
                    ));
                };
                self.execute_explain(select, *analyze, deadline_ms)?
            }
        };

        result.engine_ms = (clock::now() - start).as_secs_f64() * 1000.0;
        Ok(result)
    }

    /// Bind and optimize a SELECT into a logical plan — what every executed
    /// statement pays before its first prompt.
    pub fn plan_select(&self, select: &SelectStatement) -> Result<LogicalPlan> {
        let bound = bind_select(&self.catalog, select)?;
        Ok(optimize(bound, &self.config.optimizer))
    }

    /// Bind and optimize a SELECT, also reporting which rewrite rules fired
    /// (`EXPLAIN` prints the trace). The same plan as [`Engine::plan_select`]
    /// at the cost of a plan copy per rule.
    pub fn plan_select_traced(&self, select: &SelectStatement) -> Result<(LogicalPlan, RuleTrace)> {
        let bound = bind_select(&self.catalog, select)?;
        Ok(optimize_traced(bound, &self.config.optimizer))
    }

    /// Cost-model parameters for a plan: engine config plus cardinality
    /// hints for every scanned relation — what the attached model's client
    /// holds (`LlmClient::relation_cardinality`: the number the scans page
    /// to) for virtual tables, the stored row count for materialized ones.
    pub fn cost_params_for(&self, plan: &LogicalPlan) -> CostParams {
        let mut params = CostParams::from_config(&self.config);
        for table in plan.scanned_tables() {
            let hint = self
                .client
                .as_ref()
                .and_then(|c| c.relation_cardinality(&table))
                .or_else(|| match self.catalog.get(&table) {
                    Ok(CatalogEntry::Materialized(t)) => Some(t.row_count() as u64),
                    _ => None,
                });
            if let Some(rows) = hint {
                params = params.with_hint(table, rows);
            }
        }
        params
    }

    /// `EXPLAIN [ANALYZE]`: statically analyze (and for ANALYZE also run)
    /// the query, returning the annotated operator tree as rows. The text
    /// carries per-operator estimated rows/calls/USD/latency, the fired-rule
    /// trace, plan lints, and — for ANALYZE — the executor's actual rows,
    /// calls and per-operator wall time for drift comparison.
    fn execute_explain(
        &self,
        select: &SelectStatement,
        analyze: bool,
        deadline_ms: Option<f64>,
    ) -> Result<QueryResult> {
        let (plan, trace) = self.plan_select_traced(select)?;
        // In LlmOnly mode every scan hits the model regardless of the
        // schema's virtual flag; mark the plan so cost estimates and lints
        // describe the scans the executor will actually run.
        let plan = if self.config.mode == ExecutionMode::LlmOnly {
            plan.with_scans_marked_virtual()
        } else {
            plan
        };
        let params = self.cost_params_for(&plan);
        let cost = cost_plan(&plan, &params);
        let diagnostics = lint_plan(&plan, &params, self.config.cost_budget_usd);
        // ANALYZE runs the plan through the standard operator path (even
        // under the one-shot full-query strategy, which has no per-operator
        // story to report) and keeps its metrics.
        let metrics = if analyze {
            let ctx = self.exec_context(deadline_ms);
            execute_plan(&ctx, &plan)?;
            Some(ctx.metrics.into_inner())
        } else {
            None
        };
        let text =
            crate::explain::render_explain(&plan, &cost, &trace, &diagnostics, metrics.as_ref());
        let schema = RelSchema::new(vec![Field::new(None, "plan", DataType::Text, false)]);
        let rows = text
            .lines()
            .map(|l| Row::new(vec![Value::Text(l.to_string())]))
            .collect();
        Ok(QueryResult {
            batch: Batch::new(schema, rows),
            plan: Some(text),
            metrics: metrics.unwrap_or_default(),
            ..QueryResult::default()
        })
    }

    /// The execution context of one query: this engine's catalog, client and
    /// configuration under the query's effective deadline, dispatching
    /// through the attached slot pool (if any).
    fn exec_context(&self, deadline_ms: Option<f64>) -> ExecContext {
        let mut config = self.config.clone();
        config.deadline_ms = deadline_ms;
        let mut ctx = ExecContext::new(self.catalog.clone(), self.client.clone(), config);
        if let Some(slots) = &self.slots {
            ctx = ctx.with_slots(Arc::clone(slots));
        }
        ctx
    }

    fn execute_select(
        &self,
        select: &SelectStatement,
        sql_text: Option<&str>,
        deadline_ms: Option<f64>,
    ) -> Result<QueryResult> {
        let plan = self.plan_select(select)?;

        // One-shot whole-query prompting.
        if self.config.mode == ExecutionMode::LlmOnly
            && self.config.strategy == PromptStrategy::FullQuery
            && !plan.scanned_tables().is_empty()
        {
            return self.execute_full_query(select, &plan, sql_text, deadline_ms);
        }

        let ctx = self.exec_context(deadline_ms);
        let batch = execute_plan(&ctx, &plan)?;
        Ok(QueryResult {
            metrics: ctx.metrics.into_inner(),
            batch,
            ..QueryResult::default()
        })
    }

    /// Send the entire SQL statement as a single prompt — a window of one,
    /// so slot gating, coalescing and the mid-flight deadline are those of
    /// any scan request — and parse the completion as the result table.
    fn execute_full_query(
        &self,
        select: &SelectStatement,
        plan: &LogicalPlan,
        sql_text: Option<&str>,
        deadline_ms: Option<f64>,
    ) -> Result<QueryResult> {
        let ctx = self.exec_context(deadline_ms);
        let client = ctx.require_client()?;
        let schema = plan.schema();
        let sql = match sql_text {
            Some(text) => text.to_string(),
            None => Statement::Select(Box::new(select.clone())).to_string(),
        };
        let task = TaskSpec::FullQuery {
            sql,
            columns: schema.names(),
        };
        // Use the first scanned table's schema as prompt context.
        let context_schema = plan
            .scanned_tables()
            .first()
            .and_then(|t| self.catalog.schema_of(t).ok());
        let prompt = task.to_prompt(context_schema.as_ref());
        let response = dispatch_one(&ctx, client, task.kind(), prompt)?;
        // One-shot prompting has no later request to notice a lapsed
        // deadline: a response that lands past the budget fails like a scan
        // would at its next admission.
        ctx.check_deadline()?;

        let types: Vec<DataType> = schema.fields.iter().map(|f| f.data_type).collect();
        let parsed = parse_pipe_rows(&response.text, &types);
        let mut metrics = ctx.metrics.into_inner();
        metrics.dropped_lines = parsed.dropped_lines as u64;
        metrics.rows_from_llm = parsed.rows.len() as u64;
        metrics.rows_output = parsed.rows.len() as u64;

        let mut rows = parsed.rows;
        for row in &mut rows {
            row.resize(schema.len());
        }

        Ok(QueryResult {
            batch: Batch::new(schema, rows),
            metrics,
            ..QueryResult::default()
        })
    }

    fn execute_insert(&self, insert: &InsertStatement) -> Result<QueryResult> {
        let table = self.catalog.table(&insert.table)?;
        let schema = table.schema();
        let mut rows = Vec::with_capacity(insert.values.len());
        for value_exprs in &insert.values {
            let mut row = vec![Value::Null; schema.arity()];
            if insert.columns.is_empty() {
                if value_exprs.len() != schema.arity() {
                    return Err(Error::execution(format!(
                        "INSERT provides {} values but table '{}' has {} columns",
                        value_exprs.len(),
                        schema.name,
                        schema.arity()
                    )));
                }
                for (i, expr) in value_exprs.iter().enumerate() {
                    row[i] = self.eval_constant(expr)?;
                }
            } else {
                if value_exprs.len() != insert.columns.len() {
                    return Err(Error::execution(
                        "INSERT column list and VALUES row have different lengths",
                    ));
                }
                for (name, expr) in insert.columns.iter().zip(value_exprs) {
                    let idx = schema.index_of(name).ok_or_else(|| {
                        Error::binding(format!(
                            "column '{name}' not found in table '{}'",
                            schema.name
                        ))
                    })?;
                    row[idx] = self.eval_constant(expr)?;
                }
            }
            rows.push(Row::new(row));
        }
        let inserted = table.insert_many(rows)?;
        Ok(QueryResult {
            rows_affected: inserted,
            ..QueryResult::default()
        })
    }

    fn eval_constant(&self, expr: &llmsql_sql::ast::Expr) -> Result<Value> {
        // Keep the binder's structured error (kind + message): "not a
        // constant" is a binding failure, and the original message names the
        // offending column reference.
        let bound = llmsql_plan::bind_expr(expr, &RelSchema::empty()).map_err(|e| {
            Error::new(
                e.kind,
                format!("INSERT values must be constant expressions: {}", e.message),
            )
        })?;
        eval_expr(&bound, &Row::empty()).map(std::borrow::Cow::into_owned)
    }

    fn describe(&self, name: &str) -> Result<QueryResult> {
        let schema = self.catalog.schema_of(name)?;
        let rel = RelSchema::new(vec![
            Field::new(None, "column", DataType::Text, false),
            Field::new(None, "type", DataType::Text, false),
            Field::new(None, "nullable", DataType::Bool, false),
            Field::new(None, "primary_key", DataType::Bool, false),
            Field::new(None, "description", DataType::Text, true),
        ]);
        let rows = schema
            .columns
            .iter()
            .map(|c| {
                Row::new(vec![
                    Value::Text(c.name.clone()),
                    Value::Text(c.data_type.to_string()),
                    Value::Bool(c.nullable),
                    Value::Bool(c.primary_key),
                    c.description
                        .clone()
                        .map(Value::Text)
                        .unwrap_or(Value::Null),
                ])
            })
            .collect();
        Ok(QueryResult {
            batch: Batch::new(rel, rows),
            ..QueryResult::default()
        })
    }

    /// Execute a script of semicolon-separated statements, returning the last
    /// result. A failing statement aborts the script; the error keeps its
    /// structured kind and gains the 1-based statement ordinal so callers can
    /// locate the failure inside the script.
    pub fn execute_script(&self, sql: &str) -> Result<QueryResult> {
        let statements = llmsql_sql::parse_script(sql)?;
        let mut last = QueryResult::default();
        for (index, stmt) in statements.iter().enumerate() {
            last = self.execute_statement(stmt, None).map_err(|e| {
                let mut contextual = Error::new(
                    e.kind,
                    format!(
                        "statement {} of {}: {}",
                        index + 1,
                        statements.len(),
                        e.message
                    ),
                );
                contextual.offset = e.offset;
                contextual
            })?;
        }
        Ok(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsql_types::LlmFidelity;

    fn traditional_engine() -> Engine {
        let engine = Engine::new(EngineConfig::default().with_mode(ExecutionMode::Traditional));
        engine
            .execute_script(
                "CREATE TABLE countries (\
                   name TEXT PRIMARY KEY, region TEXT, population INTEGER);\
                 INSERT INTO countries VALUES \
                   ('France', 'Europe', 68), ('Germany', 'Europe', 84), ('Japan', 'Asia', 125);",
            )
            .unwrap();
        engine
    }

    fn llm_engine(fidelity: LlmFidelity, strategy: PromptStrategy) -> Engine {
        let oracle = traditional_engine();
        let kb = Engine::knowledge_from_catalog(oracle.catalog()).unwrap();
        let mut engine = Engine::with_catalog(
            oracle.catalog().deep_clone().unwrap(),
            EngineConfig::default()
                .with_mode(ExecutionMode::LlmOnly)
                .with_strategy(strategy)
                .with_fidelity(fidelity),
        );
        engine.attach_simulator(kb.into_shared()).unwrap();
        engine
    }

    #[test]
    fn ddl_dml_and_query() {
        let engine = traditional_engine();
        let r = engine
            .execute("SELECT name FROM countries WHERE population > 80 ORDER BY name")
            .unwrap();
        assert_eq!(r.row_count(), 2);
        assert_eq!(r.rows()[0].get(0), &Value::Text("Germany".into()));
        assert!(r.plan.is_none(), "only EXPLAIN renders plan text");
        assert_eq!(r.metrics.llm_calls(), 0);
    }

    #[test]
    fn insert_with_column_list_and_nulls() {
        let engine = traditional_engine();
        let r = engine
            .execute("INSERT INTO countries (name, population) VALUES ('Peru', 34)")
            .unwrap();
        assert_eq!(r.rows_affected, 1);
        assert!(r.plan.is_none());
        let q = engine
            .execute("SELECT region FROM countries WHERE name = 'Peru'")
            .unwrap();
        assert!(q.rows()[0].get(0).is_null());
    }

    #[test]
    fn insert_arity_mismatch_errors() {
        let engine = traditional_engine();
        assert!(engine.execute("INSERT INTO countries VALUES (1)").is_err());
        assert!(engine
            .execute("INSERT INTO countries (name) VALUES ('X', 'Y')")
            .is_err());
    }

    #[test]
    fn create_if_not_exists_and_drop() {
        let engine = traditional_engine();
        assert!(engine.execute("CREATE TABLE countries (x INT)").is_err());
        engine
            .execute("CREATE TABLE IF NOT EXISTS countries (x INT)")
            .unwrap();
        let r = engine.execute("DROP TABLE countries").unwrap();
        assert_eq!(r.rows_affected, 1);
        engine.execute("DROP TABLE IF EXISTS countries").unwrap();
        assert!(engine.execute("DROP TABLE countries").is_err());
    }

    #[test]
    fn describe_and_explain() {
        let engine = traditional_engine();
        let d = engine.execute("DESCRIBE countries").unwrap();
        assert_eq!(d.row_count(), 3);
        assert_eq!(d.column_names()[0], "column");
        assert!(d.plan.is_none());
        let e = engine
            .execute("EXPLAIN SELECT name FROM countries WHERE population > 1")
            .unwrap();
        assert!(e.plan.as_ref().unwrap().contains("Scan countries"));
        assert!(e.row_count() >= 2);
    }

    #[test]
    fn scalar_helper() {
        let engine = traditional_engine();
        let r = engine.execute("SELECT COUNT(*) FROM countries").unwrap();
        assert_eq!(r.scalar(), Some(Value::Int(3)));
    }

    #[test]
    fn llm_only_perfect_matches_traditional() {
        let oracle = traditional_engine();
        let subject = llm_engine(LlmFidelity::perfect(), PromptStrategy::BatchedRows);
        for sql in [
            "SELECT name, population FROM countries WHERE population > 70",
            "SELECT region, COUNT(*) FROM countries GROUP BY region",
            "SELECT name FROM countries ORDER BY population DESC LIMIT 2",
        ] {
            let expected = oracle.execute(sql).unwrap();
            let actual = subject.execute(sql).unwrap();
            let score = crate::eval::score_batches(&actual.batch, &expected.batch, false);
            assert!(score.exact, "query {sql} diverged: {score:?}");
            assert!(actual.metrics.llm_calls() > 0);
            assert!(actual.metrics.usage.calls > 0);
        }
    }

    #[test]
    fn full_query_strategy_uses_one_call() {
        let subject = llm_engine(LlmFidelity::perfect(), PromptStrategy::FullQuery);
        let r = subject
            .execute("SELECT name FROM countries WHERE region = 'Europe'")
            .unwrap();
        assert_eq!(r.metrics.llm_calls(), 1);
        assert_eq!(r.metrics.llm_calls_by_kind["full_query"], 1);
        assert_eq!(r.row_count(), 2);
    }

    #[test]
    fn weak_model_degrades_but_does_not_crash() {
        let subject = llm_engine(LlmFidelity::weak(), PromptStrategy::BatchedRows);
        let r = subject
            .execute("SELECT name, population FROM countries")
            .unwrap();
        assert!(r.row_count() <= 4); // may fabricate a little, may forget a lot
    }

    #[test]
    fn traditional_mode_without_model_is_fine_but_llm_mode_needs_one() {
        let engine = Engine::new(EngineConfig::default().with_mode(ExecutionMode::LlmOnly));
        engine
            .execute("CREATE VIRTUAL TABLE ghosts (name TEXT PRIMARY KEY)")
            .unwrap();
        assert!(engine.execute("SELECT * FROM ghosts").is_err());
    }

    #[test]
    fn usage_accounting_per_query() {
        let subject = llm_engine(LlmFidelity::perfect(), PromptStrategy::TupleAtATime);
        let r1 = subject.execute("SELECT name FROM countries").unwrap();
        let r2 = subject.execute("SELECT region FROM countries").unwrap();
        assert!(r1.metrics.usage.calls > 0);
        // the second query's usage is its own delta, not cumulative
        assert!(r2.metrics.usage.calls > 0);
        assert!(r2.metrics.usage.calls < r1.metrics.usage.calls + r2.metrics.usage.calls);
        assert!(r1.total_latency_ms() > 0.0);
    }

    #[test]
    fn execute_script_returns_last_result() {
        let engine = Engine::new(EngineConfig::default().with_mode(ExecutionMode::Traditional));
        let r = engine
            .execute_script("CREATE TABLE t (a INT PRIMARY KEY); INSERT INTO t VALUES (1), (2); SELECT COUNT(*) FROM t")
            .unwrap();
        assert_eq!(r.scalar(), Some(Value::Int(2)));
    }

    #[test]
    fn execute_script_errors_are_structured_and_located() {
        let engine = Engine::new(EngineConfig::default().with_mode(ExecutionMode::Traditional));
        let err = engine
            .execute_script(
                "CREATE TABLE t (a INT PRIMARY KEY); SELECT nope FROM t; SELECT COUNT(*) FROM t",
            )
            .unwrap_err();
        assert_eq!(err.kind, llmsql_types::ErrorKind::Binding);
        assert!(
            err.message.starts_with("statement 2 of 3:"),
            "missing location context: {err}"
        );
    }

    #[test]
    fn insert_constant_errors_keep_the_binding_cause() {
        let engine = traditional_engine();
        let err = engine
            .execute("INSERT INTO countries VALUES (population, 'x', 1)")
            .unwrap_err();
        assert_eq!(err.kind, llmsql_types::ErrorKind::Binding);
        assert!(
            err.message.contains("constant"),
            "missing constant-expression context: {err}"
        );
    }

    #[test]
    fn full_query_strategy_honors_deadlines() {
        // The one-shot path has no admission checkpoints; the deadline is
        // enforced on the completion itself.
        let oracle = traditional_engine();
        let kb = Engine::knowledge_from_catalog(oracle.catalog()).unwrap();
        let mut engine = Engine::with_catalog(
            oracle.catalog().deep_clone().unwrap(),
            EngineConfig::default()
                .with_mode(ExecutionMode::LlmOnly)
                .with_strategy(PromptStrategy::FullQuery)
                .with_fidelity(LlmFidelity::perfect()),
        );
        let sim = SimLlm::new(kb.into_shared(), LlmFidelity::perfect(), 42)
            .with_simulated_latency_ms(30.0);
        engine.attach_model(Arc::new(sim)).unwrap();
        let sql = "SELECT name FROM countries WHERE region = 'Europe'";
        let err = engine.execute_with_deadline(sql, 5.0).unwrap_err();
        assert_eq!(err.kind, llmsql_types::ErrorKind::DeadlineExceeded);
        assert!(err.message.contains("1 LLM call(s) issued"), "{err}");
        // A generous deadline is transparent.
        let ok = engine.execute_with_deadline(sql, 60_000.0).unwrap();
        assert_eq!(ok.row_count(), 2);
    }

    #[test]
    fn execute_with_deadline_enforces_and_is_transparent_when_unhit() {
        let engine = llm_engine(LlmFidelity::perfect(), PromptStrategy::BatchedRows);
        let sql = "SELECT name, population FROM countries";
        let expected = engine.execute(sql).unwrap();

        // A generous per-call deadline changes nothing.
        let relaxed = engine.execute_with_deadline(sql, 60_000.0).unwrap();
        assert_eq!(expected.rows(), relaxed.rows());
        assert_eq!(expected.metrics.llm_calls(), relaxed.metrics.llm_calls());

        // Invalid budgets are config errors.
        assert!(engine.execute_with_deadline(sql, 0.0).is_err());
        assert!(engine.execute_with_deadline(sql, f64::NAN).is_err());

        // An engine-wide deadline combines with the per-call one (tighter
        // wins): a sub-microsecond budget trips at the first admission.
        let mut strict = llm_engine(LlmFidelity::perfect(), PromptStrategy::BatchedRows);
        strict.config_mut().deadline_ms = Some(1e-4);
        let err = strict.execute(sql).unwrap_err();
        assert_eq!(err.kind, llmsql_types::ErrorKind::DeadlineExceeded);
        assert!(err.message.contains("deadline"), "{err}");
    }

    #[test]
    fn attached_slot_pool_throttles_without_changing_results() {
        let free = llm_engine(LlmFidelity::perfect(), PromptStrategy::BatchedRows);
        let sql = "SELECT name, population FROM countries ORDER BY name";
        let expected = free.execute(sql).unwrap();

        let mut throttled = llm_engine(LlmFidelity::perfect(), PromptStrategy::BatchedRows);
        throttled.config_mut().parallelism = 4;
        let slots = Arc::new(CallSlots::new(1));
        throttled.set_call_slots(Arc::clone(&slots));
        assert!(throttled.call_slots().is_some());
        let got = throttled.execute(sql).unwrap();
        assert_eq!(expected.rows(), got.rows());
        assert_eq!(expected.metrics.llm_calls(), got.metrics.llm_calls());
        assert_eq!(got.metrics.slot_waits, got.metrics.llm_calls());
        assert!(slots.peak_in_use() <= 1);
    }
}
