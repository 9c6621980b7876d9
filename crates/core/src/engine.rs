//! The engine: the public entry point tying parser, planner, executor,
//! relational store and language-model storage together.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;
use std::sync::Arc;

use parking_lot::RwLock;

use llmsql_exec::{
    eval as eval_expr, execute as execute_plan, CallSlots, CompiledPlan, ExecContext,
};
use llmsql_llm::{BackendPool, KnowledgeBase, LanguageModel, LlmClient, SimLlm};
use llmsql_plan::{
    bind_select, cost_plan, lint_plan, optimize, optimize_traced, schema_from_create, CostParams,
    LogicalPlan, RuleTrace,
};
use llmsql_sql::ast::{InsertStatement, SelectStatement, Statement};
use llmsql_sql::parse_statement;
use llmsql_store::{Catalog, CatalogEntry};
use llmsql_types::{
    check_deadline_ms, clock, Batch, DataType, EngineConfig, Error, ExecutionMode, Field,
    RelSchema, Result, Row, Value,
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
    /// The compiled plans of `SELECT` texts this engine parsed itself (see
    /// [`Engine::execute`]).
    plans: RwLock<PlanTable>,
}

/// At most this many plans, and as many marks of texts planned once, are
/// kept per engine; a full set is emptied before its next insert.
const PLAN_TABLE_CAPACITY: usize = 1024;

/// The compiled plans of `SELECT` texts, keyed by the exact text, all bound
/// under one catalog generation and compiled for this engine's configuration
/// and client.
///
/// A text's plan is kept the second time the text is planned: the first
/// time leaves only a mark (the text's hash). So an engine that runs each
/// text once — an oracle, a recording pass, ad-hoc traffic — holds a few
/// bytes per text and no plans.
#[derive(Default)]
struct PlanTable {
    /// The catalog generation every kept plan was bound under.
    generation: u64,
    plans: HashMap<String, Arc<CompiledPlan>>,
    /// Hashes of the texts planned since the marks were last emptied.
    planned_once: HashSet<u64>,
}

impl PlanTable {
    /// Start over under `generation` if it is newer than the table's.
    fn advance(&mut self, generation: u64) {
        if generation > self.generation {
            self.plans.clear();
            self.generation = generation;
        }
    }

    /// `plan`, bound under `generation`, was just built for `sql`: keep it if
    /// `sql` was planned before. A plan bound under an older generation
    /// than the table's is not kept.
    fn insert(&mut self, sql: &str, generation: u64, plan: Arc<CompiledPlan>) {
        self.advance(generation);
        if generation < self.generation {
            return;
        }
        let mark = self.plans.hasher().hash_one(sql);
        if !self.planned_once.contains(&mark) {
            if self.planned_once.len() >= PLAN_TABLE_CAPACITY {
                self.planned_once.clear();
            }
            self.planned_once.insert(mark);
            return;
        }
        if self.plans.len() >= PLAN_TABLE_CAPACITY {
            self.plans.clear();
        }
        self.plans.insert(sql.to_owned(), plan);
    }
}

impl Engine {
    /// Create an engine with an empty catalog and no model attached.
    pub fn new(config: EngineConfig) -> Self {
        Engine::with_catalog(Catalog::new(), config)
    }

    /// Create an engine over an existing catalog.
    pub fn with_catalog(catalog: Catalog, config: EngineConfig) -> Self {
        let plans = RwLock::new(PlanTable::default());
        plans.set_audit_name("core.plans");
        Engine {
            catalog,
            config,
            client: None,
            slots: None,
            plans,
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
    /// and holds a slot while in flight. And since the queries sharing the
    /// pool run at the same time, the client shares their flights: a
    /// cache-less client gets a request table that keeps no answers
    /// ([`LlmClient::share_flights`]), so identical concurrent requests
    /// collapse into one physical call whose success fans out to every
    /// waiter. Logical call accounting is unchanged — followers are charged
    /// their logical call but issue no physical one.
    pub fn set_call_slots(&mut self, slots: Arc<CallSlots>) {
        if let Some(client) = &mut self.client {
            if let Some(pool) = client.pool() {
                pool.set_hedge_slots(Some(Arc::clone(&slots)));
            }
            client.share_flights();
        }
        self.slots = Some(slots);
    }

    /// The attached global slot pool, if any.
    pub fn call_slots(&self) -> Option<&Arc<CallSlots>> {
        self.slots.as_ref()
    }

    /// Attach a language model (wrapped in a caching, usage-tracking client).
    ///
    /// With `config.backends` non-empty the model is served through a
    /// [`llmsql_llm::BackendPool`] of deterministic remote-like endpoints
    /// (one per [`llmsql_types::BackendSpec`]) with the configured routing
    /// policy and failover; otherwise it is called directly. Fails when the
    /// backend list is invalid (duplicate or empty names, out-of-range
    /// rates) — the same errors `EngineConfig::validate` reports. Empties
    /// the engine's plan table: a kept plan is compiled for the client it
    /// runs through (its model's fingerprint and cardinality hints).
    pub fn attach_model(&mut self, model: Arc<dyn LanguageModel>) -> Result<()> {
        self.plans.get_mut().plans.clear();
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
            LlmClient::from_pool(Arc::new(pool), cached)
        });
        // A slot pool attached before the model holds for the new client.
        if let Some(slots) = self.slots.clone() {
            self.set_call_slots(slots);
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
    /// experiment runs). Empties the engine's plan table: the optimizer
    /// switches are part of every kept plan, and the rest of the
    /// configuration of its compiled scans — and a kept plan's runs skip
    /// [`EngineConfig::validate`], which only a configuration that passed it
    /// can reach.
    pub fn config_mut(&mut self) -> &mut EngineConfig {
        self.plans.get_mut().plans.clear();
        &mut self.config
    }

    /// The attached LLM client, if any.
    pub fn client(&self) -> Option<&LlmClient> {
        self.client.as_ref()
    }

    /// Parse and execute one SQL statement.
    ///
    /// A repeated `SELECT` is planned once: the engine keeps the plan of a
    /// `SELECT` text it parsed here or in [`Engine::execute_with_deadline`]
    /// the second time it plans that text, keyed by the exact text, and a
    /// later call with the same text skips parsing, binding and optimizing
    /// and runs the kept plan (shared, not copied). A plan is kept compiled:
    /// with what every run derives from it alone — each model scan's columns,
    /// filter text, prompt templates and first window, the request keys of
    /// the prompts it fixes ([`CompiledPlan`]) — so a warm run of a kept plan
    /// renders none of those prompts again. A text run only once leaves a
    /// mark of a few bytes and no plan. Every other statement, a statement
    /// that fails to parse or plan, `EXPLAIN` (which always plans afresh,
    /// with its rule trace) and [`Engine::execute_statement`] (whose caller
    /// parsed the statement, so there is no text to key on) plan and compile
    /// each time and keep nothing. The kept plans are emptied when the
    /// catalog's set of tables changes — through any handle sharing it
    /// ([`Catalog::generation`]) — by [`Engine::config_mut`] and by
    /// [`Engine::attach_model`]; not by `LlmClient::clear_cache`, since no
    /// compiled state depends on an answer. The table is bounded: it holds at
    /// most 1 024 plans and 1 024 marks, and a full set is emptied before its
    /// next insert.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.execute_sql(sql, None)
    }

    /// Parse and execute one SQL statement under a per-call deadline (in
    /// addition to any engine-wide `EngineConfig::deadline_ms`; the tighter
    /// of the two wins). The deadline clock starts now: scans check it
    /// before every request, requests still in flight when it fires are
    /// cancelled, and the query fails with
    /// [`llmsql_types::ErrorKind::DeadlineExceeded`] (carrying elapsed time
    /// and calls issued). Used by the scheduler to grant each
    /// query only its remaining deadline budget after queueing.
    ///
    /// Shares [`Engine::execute`]'s plan table: a `SELECT` text planned by
    /// either runs its kept plan here, under the same rules.
    pub fn execute_with_deadline(&self, sql: &str, deadline_ms: f64) -> Result<QueryResult> {
        self.execute_sql(sql, Some(deadline_ms))
    }

    /// Execute an already-parsed statement. `sql_text` (when available) is
    /// used verbatim for full-query prompting; without it, the statement as
    /// the parser prints it. A `SELECT` is planned on every call: no plan is
    /// kept or reused for a statement parsed elsewhere.
    pub fn execute_statement(
        &self,
        statement: &Statement,
        sql_text: Option<&str>,
    ) -> Result<QueryResult> {
        self.config.validate()?;
        self.timed(None, |deadline_ms| {
            self.run_statement(statement, sql_text, deadline_ms)
        })
    }

    /// Run `sql` from its kept plan, or parse it (and plan and keep a
    /// `SELECT`).
    fn execute_sql(&self, sql: &str, deadline_override_ms: Option<f64>) -> Result<QueryResult> {
        // Read before binding: a plan bound while the catalog changes is
        // tagged with the older generation, and the next lookup drops it.
        let generation = self.catalog.generation();
        if let Some(plan) = self.kept_plan(sql, generation) {
            // Kept under a configuration that passed validation: any change
            // to it empties the table.
            return self.timed(deadline_override_ms, |deadline_ms| {
                self.run_compiled(&self.context(sql, deadline_ms), &plan)
            });
        }
        let statement = parse_statement(sql)?;
        self.config.validate()?;
        self.timed(deadline_override_ms, |deadline_ms| {
            let Statement::Select(select) = statement else {
                return self.run_statement(&statement, Some(sql), deadline_ms);
            };
            let plan = Arc::new(self.plan_select(&select)?);
            let ctx = self.context(sql, deadline_ms);
            let plan = Arc::new(CompiledPlan::new(&ctx, plan)?);
            self.plans
                .write()
                .insert(sql, generation, Arc::clone(&plan));
            self.run_compiled(&ctx, &plan)
        })
    }

    /// The kept plan of `sql`, if it was bound under `generation`. A lookup
    /// under a newer generation than the table's empties the table.
    fn kept_plan(&self, sql: &str, generation: u64) -> Option<Arc<CompiledPlan>> {
        let plans = self.plans.read();
        if plans.generation == generation {
            return plans.plans.get(sql).cloned();
        }
        drop(plans);
        self.plans.write().advance(generation);
        None
    }

    /// Run `body` under the per-call deadline's check and the query's
    /// effective deadline, timing it into the result's `engine_ms`. The
    /// caller has validated the configuration.
    fn timed(
        &self,
        deadline_override_ms: Option<f64>,
        body: impl FnOnce(Option<f64>) -> Result<QueryResult>,
    ) -> Result<QueryResult> {
        if let Some(d) = deadline_override_ms {
            check_deadline_ms(d)?;
        }
        // The effective deadline is the tighter of the engine-wide knob and
        // the per-call override.
        let deadline_ms = match (self.config.deadline_ms, deadline_override_ms) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let start = clock::now();
        let mut result = body(deadline_ms)?;
        result.engine_ms = (clock::now() - start).as_secs_f64() * 1000.0;
        Ok(result)
    }

    /// Plan and run one parsed statement.
    fn run_statement(
        &self,
        statement: &Statement,
        sql_text: Option<&str>,
        deadline_ms: Option<f64>,
    ) -> Result<QueryResult> {
        Ok(match statement {
            Statement::Select(select) => {
                let plan = self.plan_select(select)?;
                let sql = sql_text.map_or_else(|| Cow::Owned(statement.to_string()), Cow::Borrowed);
                self.execute_select(Arc::new(plan), &sql, deadline_ms)?
            }
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
        })
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
        // ANALYZE runs the plan the way the query runs, and keeps its
        // metrics: under the full-query strategy as one prompt of the SELECT
        // as the parser prints it, its actuals on the root line.
        let plan = Arc::new(plan);
        let metrics = if analyze {
            let sql = select.to_string();
            let run = self.execute_select(Arc::clone(&plan), &sql, deadline_ms)?;
            Some(run.metrics)
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

    /// Compile a SELECT's plan, built from the statement `sql`, and run it
    /// once under the query's effective deadline.
    fn execute_select(
        &self,
        plan: Arc<LogicalPlan>,
        sql: &str,
        deadline_ms: Option<f64>,
    ) -> Result<QueryResult> {
        let ctx = self.context(sql, deadline_ms);
        let plan = CompiledPlan::new(&ctx, plan)?;
        self.run_compiled(&ctx, &plan)
    }

    /// A query's context over this engine, for the statement `sql`: its
    /// deadline starts now. Dispatch goes through the attached slot pool, if
    /// any.
    fn context<'e>(&'e self, sql: &'e str, deadline_ms: Option<f64>) -> ExecContext<'e> {
        let mut ctx = ExecContext::new(
            &self.catalog,
            self.client.as_ref(),
            &self.config,
            deadline_ms,
        );
        ctx.statement = Some(sql);
        ctx.slots = self.slots.as_ref();
        ctx
    }

    /// Run a compiled SELECT in `ctx`: the executor decides how (see
    /// [`llmsql_exec::execute`]).
    fn run_compiled(&self, ctx: &ExecContext<'_>, plan: &CompiledPlan) -> Result<QueryResult> {
        let batch = execute_plan(ctx, plan)?;
        Ok(QueryResult {
            metrics: ctx.metrics.take(),
            batch,
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
    use llmsql_types::{LlmFidelity, PromptStrategy};

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

    /// EXPLAIN ANALYZE runs the query the way the query itself runs: under
    /// every strategy it makes the plain run's calls, kind for kind. Under
    /// full-query that is one `full_query` prompt, whose actuals are the
    /// root's.
    #[test]
    fn explain_analyze_makes_the_calls_the_query_makes() {
        let sql = "SELECT name FROM countries WHERE population > 70";
        for strategy in PromptStrategy::ALL {
            let engine = llm_engine(LlmFidelity::perfect(), strategy);
            let plain = engine.execute(sql).unwrap();
            let analyzed = engine.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
            let (run, explained) = (&plain.metrics, &analyzed.metrics);
            assert_eq!(
                run.llm_calls_by_kind, explained.llm_calls_by_kind,
                "{strategy:?}"
            );
            assert_eq!(run.rows_output, explained.rows_output, "{strategy:?}");
            assert_eq!(plain.row_count(), 2, "{strategy:?}");
        }
        let engine = llm_engine(LlmFidelity::perfect(), PromptStrategy::FullQuery);
        let analyzed = engine.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        let by_kind = &analyzed.metrics.llm_calls_by_kind;
        assert_eq!(
            by_kind.iter().collect::<Vec<_>>(),
            [(&"full_query".into(), &1)]
        );
        let text = analyzed.plan.unwrap();
        let root = text.lines().next().unwrap();
        assert!(root.contains("[act rows=2 calls=1 "), "{text}");
    }

    /// A deadline that has lapsed before the first admission costs no call,
    /// whatever the strategy: a full-query's one prompt is admitted as a
    /// scan's are.
    #[test]
    fn a_lapsed_deadline_issues_no_call_under_any_strategy() {
        for strategy in PromptStrategy::ALL {
            let engine = llm_engine(LlmFidelity::perfect(), strategy);
            let err = engine
                .execute_with_deadline("SELECT name FROM countries", 1e-6)
                .unwrap_err();
            assert_eq!(err.kind, llmsql_types::ErrorKind::DeadlineExceeded);
            assert!(
                err.message.ends_with("with 0 LLM call(s) issued"),
                "{strategy:?}: {err}"
            );
            assert_eq!(engine.client().unwrap().usage().calls, 0, "{strategy:?}");
        }
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

    /// The plans `engine` keeps, by text.
    fn kept(engine: &Engine) -> Vec<String> {
        let mut texts: Vec<String> = engine.plans.read().plans.keys().cloned().collect();
        texts.sort();
        texts
    }

    #[test]
    fn a_select_text_is_planned_once_and_nothing_else_is_kept() {
        let engine = traditional_engine();
        assert!(kept(&engine).is_empty(), "DDL and INSERT keep no plan");
        let sql = "SELECT name FROM countries WHERE population > 80 ORDER BY name";
        let first = engine.execute(sql).unwrap();
        assert!(kept(&engine).is_empty(), "a text run once keeps no plan");
        assert_eq!(engine.plans.read().planned_once.len(), 1);
        engine.execute(sql).unwrap();
        assert_eq!(kept(&engine), [sql]);
        let plan = Arc::clone(&engine.plans.read().plans[sql]);
        let again = engine.execute_with_deadline(sql, 60_000.0).unwrap();
        assert_eq!(first.rows(), again.rows());
        assert!(
            Arc::ptr_eq(&plan, &engine.plans.read().plans[sql]),
            "a hit runs the kept plan, it does not plan again"
        );

        // EXPLAIN, DESCRIBE, errors and caller-parsed statements keep nothing.
        let other = "SELECT region FROM countries";
        let parsed = parse_statement(other).unwrap();
        for _ in 0..2 {
            engine.execute(&format!("EXPLAIN {sql}")).unwrap();
            engine.execute("DESCRIBE countries").unwrap();
            assert!(engine.execute("SELECT nope FROM countries").is_err());
            assert!(engine.execute("SELEC name FROM countries").is_err());
            engine.execute_statement(&parsed, Some(other)).unwrap();
        }
        assert_eq!(kept(&engine), [sql]);
        assert_eq!(engine.plans.read().planned_once.len(), 1);
    }

    /// The kept plan of every statement of the standard suite is the plan
    /// `plan_select` builds for it afresh.
    #[test]
    fn every_kept_plan_equals_a_fresh_plan() {
        let world = llmsql_workload::World::generate(llmsql_workload::WorldSpec {
            countries: 15,
            cities_per_country: 2,
            people: 20,
            movies: 15,
            seed: 23,
        })
        .unwrap();
        let engine = Engine::with_catalog(
            world.catalog.deep_clone().unwrap(),
            EngineConfig::default().with_mode(ExecutionMode::Traditional),
        );
        let suite = llmsql_workload::standard_suite(&world, 2);
        for q in &suite {
            engine.execute(&q.sql).unwrap();
            engine.execute(&q.sql).unwrap();
            let Statement::Select(select) = parse_statement(&q.sql).unwrap() else {
                panic!("the suite holds only queries: {}", q.sql);
            };
            let fresh = engine.plan_select(&select).unwrap();
            assert_eq!(
                *engine.plans.read().plans[&q.sql].plan(),
                fresh,
                "{}",
                q.sql
            );
        }
        assert!(kept(&engine).len() > 1);
    }

    /// A plan is bound against the catalog's schemas: when any handle on
    /// the catalog replaces a table, the next run binds the new one.
    #[test]
    fn a_catalog_change_through_any_handle_empties_the_plan_table() {
        let a = traditional_engine();
        let b = Engine::with_catalog(
            a.catalog().clone(),
            EngineConfig::default().with_mode(ExecutionMode::Traditional),
        );
        let sql = "SELECT * FROM countries";
        for _ in 0..2 {
            assert_eq!(a.execute(sql).unwrap().column_names().len(), 3);
        }
        assert_eq!(kept(&a), [sql]);

        b.execute_script(
            "DROP TABLE countries; \
             CREATE TABLE countries (code TEXT PRIMARY KEY, name TEXT); \
             INSERT INTO countries VALUES ('fr', 'France')",
        )
        .unwrap();
        let r = a.execute(sql).unwrap();
        assert_eq!(r.column_names(), ["code", "name"]);
        assert_eq!(r.row_count(), 1);
        assert_eq!(kept(&a), [sql], "only the new plan is kept");
        assert_eq!(a.execute(sql).unwrap().column_names(), ["code", "name"]);

        // The same through the catalog's own API.
        a.catalog().drop_table("countries", false).unwrap();
        let schema = llmsql_types::Schema::new(
            "countries",
            vec![llmsql_types::Column::new("id", DataType::Int).primary_key()],
        );
        b.catalog().create_table(schema).unwrap();
        let r = a.execute(sql).unwrap();
        assert_eq!(r.column_names(), ["id"]);
        assert_eq!(r.row_count(), 0);
    }

    /// The optimizer switches are part of a plan: switching one through
    /// `config_mut` runs the query as an engine built with it would.
    #[test]
    fn config_mut_empties_the_plan_table() {
        let engine_over = |pushdown: bool| {
            let oracle = traditional_engine();
            for i in 0..30 {
                oracle
                    .execute(&format!(
                        "INSERT INTO countries VALUES ('Land{i}', 'Asia', {i})"
                    ))
                    .unwrap();
            }
            let kb = Engine::knowledge_from_catalog(oracle.catalog()).unwrap();
            let mut config = EngineConfig::default()
                .with_mode(ExecutionMode::LlmOnly)
                .with_strategy(PromptStrategy::BatchedRows)
                .with_fidelity(LlmFidelity::perfect());
            config.optimizer.predicate_pushdown = pushdown;
            let mut engine = Engine::with_catalog(oracle.catalog().deep_clone().unwrap(), config);
            engine.attach_simulator(kb.into_shared()).unwrap();
            engine
        };
        let sql = "SELECT name FROM countries WHERE population > 70";
        let mut engine = engine_over(true);
        let pushed = engine.execute(sql).unwrap();
        engine.execute(sql).unwrap();
        assert_eq!(kept(&engine), [sql]);
        engine.config_mut().optimizer.predicate_pushdown = false;
        assert!(kept(&engine).is_empty());
        let switched = engine.execute(sql).unwrap();
        let fresh = engine_over(false).execute(sql).unwrap();
        assert_eq!(switched.metrics.llm_calls(), fresh.metrics.llm_calls());
        assert_ne!(switched.metrics.llm_calls(), pushed.metrics.llm_calls());
        assert_eq!(switched.rows(), pushed.rows());
    }

    #[test]
    fn the_plan_table_is_bounded() {
        let engine = traditional_engine();
        let sql = |i: usize| format!("SELECT name FROM countries WHERE population > {i}");
        let twice = |i: usize| {
            engine.execute(&sql(i)).unwrap();
            engine.execute(&sql(i)).unwrap();
        };
        for i in 0..PLAN_TABLE_CAPACITY {
            twice(i);
        }
        assert_eq!(kept(&engine).len(), PLAN_TABLE_CAPACITY);
        assert_eq!(engine.plans.read().planned_once.len(), PLAN_TABLE_CAPACITY);
        twice(PLAN_TABLE_CAPACITY);
        assert_eq!(kept(&engine), [sql(PLAN_TABLE_CAPACITY)]);
        assert_eq!(engine.plans.read().planned_once.len(), 1);
    }

    /// Four threads run one new text at once, as the scheduler's workers
    /// do: the first plan only marks the text, so at least two threads plan
    /// it, each later insert replaces an equal plan, and one is kept.
    #[test]
    fn concurrent_misses_on_one_text_keep_one_plan() {
        let engine = llm_engine(LlmFidelity::perfect(), PromptStrategy::BatchedRows);
        let sql = "SELECT name, population FROM countries ORDER BY name";
        let start = std::sync::Barrier::new(4);
        let rows: Vec<Vec<Row>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let r = engine.execute_with_deadline(sql, 60_000.0).unwrap();
                        r.rows().to_vec()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(rows.iter().all(|r| r == &rows[0]));
        assert_eq!(rows[0].len(), 3);
        assert_eq!(kept(&engine), [sql]);
    }

    /// Locks a path takes, counted by the `parking_lot` shim on this thread:
    /// finding a kept plan takes the plan table's read lock and nothing else.
    /// A warm Traditional `SELECT` takes 3 in all: the hit, then the scan's
    /// catalog and table read locks. Before plans were kept it took 4: the
    /// binder's catalog and table read locks, then the scan's.
    #[cfg(feature = "lock_audit")]
    #[test]
    fn a_kept_plan_is_found_under_one_read_lock() {
        let locks = |call: &mut dyn FnMut()| {
            let before = parking_lot::acquisitions();
            call();
            parking_lot::acquisitions() - before
        };
        let engine = traditional_engine();
        let sql = "SELECT name FROM countries WHERE population > 80";
        engine.execute(sql).unwrap();
        engine.execute(sql).unwrap();
        let generation = engine.catalog().generation();
        let found = locks(&mut || assert!(engine.kept_plan(sql, generation).is_some()));
        assert_eq!(found, 1);
        let warm = locks(&mut || drop(engine.execute(sql).unwrap()));
        assert_eq!(warm, 3);
    }

    /// A warm LlmOnly batched-rows `SELECT` of a kept plan whose three pages
    /// all hit the request table takes 4 locks: the plan table's read lock
    /// and one shard read lock per page. The compiled plan holds the scan's
    /// cardinality hint and each page's request key, whose memo takes no
    /// lock; before plans were compiled the scan also took the client's hint
    /// lock, 5 in all.
    #[cfg(feature = "lock_audit")]
    #[test]
    fn a_warm_paged_select_takes_a_lock_per_page_and_one_for_its_plan() {
        let locks = |call: &mut dyn FnMut()| {
            let before = parking_lot::acquisitions();
            call();
            parking_lot::acquisitions() - before
        };
        let mut engine = llm_engine(LlmFidelity::perfect(), PromptStrategy::BatchedRows);
        engine.config_mut().batch_size = 1;
        let sql = "SELECT name, population FROM countries";
        for _ in 0..3 {
            engine.execute(sql).unwrap();
        }
        let mut pages = 0;
        let warm = locks(&mut || {
            let result = engine.execute(sql).unwrap();
            assert_eq!(result.metrics.usage.cache_hits, result.metrics.llm_calls());
            pages = result.metrics.llm_calls();
        });
        assert_eq!(pages, 3);
        assert_eq!(warm, 4);
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
