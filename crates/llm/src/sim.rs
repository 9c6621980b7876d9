//! The simulated language model.
//!
//! `SimLlm` implements [`LanguageModel`] by interpreting the structured
//! `### TASK` header of each prompt, consulting the [`KnowledgeBase`] through
//! the [`NoiseModel`], and rendering a *textual* completion the way a real
//! model would (one value per line, pipe-separated rows, yes/no words,
//! occasional formatting violations and hedging). The engine then has to
//! parse that text back — so the full prompt → completion → parse pipeline is
//! exercised end to end.
//!
//! Design notes:
//!
//! * Whether the model "knows" an entity or attribute is a stable function of
//!   `(seed, table, key, column)` (see [`NoiseModel`]), so paginated and
//!   repeated prompts observe a consistent world.
//! * The full-query task runs a crude internal interpreter over the model's
//!   *observed* (noisy) view of the data, with an extra reliability penalty
//!   per join — mirroring the empirical finding that one-shot whole-query
//!   prompting degrades quickly with query complexity.
//! * `SimLlm` is fully thread-safe and cheap to call from many scan workers
//!   at once: it carries no interior mutability or shared RNG stream. Every
//!   noise decision is re-derived per call from a hash of
//!   `(seed, table, entity, column)` / `(seed, prompt, line)` — the moral
//!   equivalent of a per-call RNG seeded with `seed ⊕ hash(prompt)` — so
//!   fidelity noise is byte-identical regardless of how calls interleave
//!   across threads.

use std::sync::Arc;

use llmsql_sql::ast::{
    AggregateFunc, Expr, JoinKind, SelectItem, SelectStatement, Statement, TableExpr,
};
use llmsql_sql::parse_statement;
use llmsql_types::{DataType, Error, LlmCostModel, LlmFidelity, Result, Row, Schema, Value};

use crate::eval::{eval_expr, eval_predicate_text};
use crate::knowledge::{normalize_key, KnowledgeBase};
use crate::model::{CompletionRequest, CompletionResponse, LanguageModel};
use crate::noise::{hash01, NoiseModel};
use crate::prompt::{parse_task, TaskSpec};
use crate::tokenizer::count_tokens;

/// The simulated model.
pub struct SimLlm {
    kb: Arc<KnowledgeBase>,
    noise: NoiseModel,
    cost_model: LlmCostModel,
    /// Upper bound on rows the simulator will ever emit for one prompt
    /// (defensive cap, roughly a context-window limit).
    max_rows_per_completion: usize,
    /// When nonzero, every request takes this many milliseconds to become
    /// observable, emulating the network round-trip of a real endpoint.
    /// Parallel-dispatch benchmarks use this to make request overlap
    /// observable in wall-clock time.
    simulated_latency_ms: f64,
}

impl SimLlm {
    /// Create a simulator over the given knowledge base.
    pub fn new(kb: Arc<KnowledgeBase>, fidelity: LlmFidelity, seed: u64) -> Self {
        SimLlm {
            kb,
            noise: NoiseModel::new(fidelity, seed),
            cost_model: LlmCostModel::default(),
            max_rows_per_completion: 500,
            simulated_latency_ms: 0.0,
        }
    }

    /// Override the cost model.
    pub fn with_cost_model(mut self, cost_model: LlmCostModel) -> Self {
        self.cost_model = cost_model;
        self
    }

    /// Make every request take `ms` milliseconds, emulating endpoint latency
    /// (0 disables; negative values are clamped to 0).
    pub fn with_simulated_latency_ms(mut self, ms: f64) -> Self {
        self.simulated_latency_ms = ms.max(0.0);
        self
    }

    /// The fidelity this simulator was configured with.
    pub fn fidelity(&self) -> LlmFidelity {
        self.noise.fidelity
    }

    /// The knowledge base backing this simulator.
    pub fn knowledge(&self) -> &Arc<KnowledgeBase> {
        &self.kb
    }

    // ------------------------------------------------------------------
    // Observed world: the model's (noisy) view of the knowledge base
    // ------------------------------------------------------------------

    /// The value the model reports for one attribute of one entity, or `None`
    /// when it omits the attribute.
    fn observe_attr(
        &self,
        table: &str,
        key_norm: &str,
        schema: &Schema,
        row: &Row,
        col: usize,
    ) -> Option<Value> {
        let column = &schema.columns[col];
        if column.primary_key {
            // The identifier itself is what the model was asked about; it is
            // reproduced verbatim.
            return Some(row.get(col).clone());
        }
        self.noise.observe_fact(
            table,
            key_norm,
            &column.name,
            row.get(col),
            column.data_type,
        )
    }

    /// The model's observed version of a full row (omitted attributes become
    /// NULL).
    fn observe_row(&self, table: &str, schema: &Schema, row: &Row) -> Row {
        let key_col = schema
            .columns
            .iter()
            .position(|c| c.primary_key)
            .unwrap_or(0);
        let key_norm = normalize_key(row.get(key_col));
        let values: Vec<Value> = (0..schema.arity())
            .map(|i| {
                self.observe_attr(table, &key_norm, schema, row, i)
                    .unwrap_or(Value::Null)
            })
            .collect();
        Row::new(values)
    }

    /// All rows of a relation as the model believes them to be: unknown
    /// entities are missing, fabricated entities are appended.
    fn observed_table(&self, table: &str) -> Result<(Schema, Vec<Row>)> {
        let kb_table = self.kb.table(table)?;
        let schema = kb_table.schema.clone();
        let key_col = kb_table.key_column();
        let mut rows = Vec::new();
        for row in &kb_table.rows {
            let key_norm = normalize_key(row.get(key_col));
            if !self.noise.knows_entity(table, &key_norm) {
                continue;
            }
            rows.push(self.observe_row(table, &schema, row));
        }
        // Fabricated entities.
        let fabricated = self.noise.fabricated_entity_count(table, rows.len());
        for i in 0..fabricated {
            let key = self.noise.fabricate_entity_key(table, i);
            let key_norm = normalize_key(&key);
            let values: Vec<Value> = schema
                .columns
                .iter()
                .enumerate()
                .map(|(c, col)| {
                    if c == key_col {
                        key.clone()
                    } else {
                        self.noise
                            .fabricate_value(table, &key_norm, &col.name, col.data_type)
                    }
                })
                .collect();
            rows.push(Row::new(values));
        }
        Ok((schema, rows))
    }

    // ------------------------------------------------------------------
    // Task handlers
    // ------------------------------------------------------------------

    fn handle_enumerate(
        &self,
        table: &str,
        filter: Option<&str>,
        limit: usize,
        offset: usize,
    ) -> Result<Vec<String>> {
        let (schema, rows) = self.observed_table(table)?;
        let key_col = schema
            .columns
            .iter()
            .position(|c| c.primary_key)
            .unwrap_or(0);
        let mut keys = Vec::new();
        for row in &rows {
            if let Some(pred) = filter {
                match eval_predicate_text(&schema, row, pred) {
                    Ok(Some(true)) => {}
                    Ok(_) => continue,
                    // A predicate the "model" cannot make sense of is simply
                    // ignored (it lists everything) — a realistic failure.
                    Err(_) => {}
                }
            }
            keys.push(row.get(key_col).to_display_string());
        }
        Ok(keys
            .into_iter()
            .skip(offset)
            .take(limit.min(self.max_rows_per_completion))
            .collect())
    }

    fn handle_row_batch(
        &self,
        table: &str,
        columns: &[String],
        filter: Option<&str>,
        limit: usize,
        offset: usize,
    ) -> Result<Vec<String>> {
        let (schema, rows) = self.observed_table(table)?;
        let col_indices: Vec<Option<usize>> = columns.iter().map(|c| schema.index_of(c)).collect();
        let mut lines = Vec::new();
        for row in &rows {
            if let Some(pred) = filter {
                match eval_predicate_text(&schema, row, pred) {
                    Ok(Some(true)) => {}
                    Ok(_) => continue,
                    Err(_) => {}
                }
            }
            let fields: Vec<String> = col_indices
                .iter()
                .map(|idx| match idx {
                    Some(i) => row.get(*i).to_display_string(),
                    None => "NULL".to_string(),
                })
                .collect();
            lines.push(fields.join(" | "));
        }
        Ok(lines
            .into_iter()
            .skip(offset)
            .take(limit.min(self.max_rows_per_completion))
            .collect())
    }

    fn handle_lookup(&self, table: &str, key: &str, columns: &[String]) -> Result<Vec<String>> {
        let kb_table = self.kb.table(table)?;
        let schema = &kb_table.schema;
        let key_value = Value::Text(key.to_string());
        let key_norm = normalize_key(&key_value);
        let row = kb_table.row_for_key(&key_value);

        let known = row.is_some() && self.noise.knows_entity(table, &key_norm);
        let fields: Vec<String> = columns
            .iter()
            .map(|c| {
                let Some(col) = schema.index_of(c) else {
                    return "NULL".to_string();
                };
                if known {
                    let row = row.expect("known implies row");
                    match self.observe_attr(table, &key_norm, schema, row, col) {
                        Some(v) => v.to_display_string(),
                        None => "unknown".to_string(),
                    }
                } else if self.noise.hallucinates_fact(table, &key_norm, c) {
                    self.noise
                        .fabricate_value(table, &key_norm, c, schema.columns[col].data_type)
                        .to_display_string()
                } else {
                    "unknown".to_string()
                }
            })
            .collect();
        Ok(vec![fields.join(" | ")])
    }

    fn handle_filter_check(&self, table: &str, key: &str, condition: &str) -> Result<Vec<String>> {
        let kb_table = self.kb.table(table)?;
        let schema = kb_table.schema.clone();
        let key_value = Value::Text(key.to_string());
        let key_norm = normalize_key(&key_value);
        let Some(row) = kb_table.row_for_key(&key_value) else {
            // Unknown entity: hedge, or guess when hallucinating.
            return Ok(vec![
                if self.noise.hallucinates_fact(table, &key_norm, condition) {
                    if hash01(&["guess", table, &key_norm, condition], self.noise.seed) < 0.5 {
                        "yes".to_string()
                    } else {
                        "no".to_string()
                    }
                } else {
                    "unknown".to_string()
                },
            ]);
        };
        if !self.noise.knows_entity(table, &key_norm) {
            return Ok(vec!["unknown".to_string()]);
        }
        let observed = self.observe_row(table, &schema, row);
        let answer = match eval_predicate_text(&schema, &observed, condition) {
            Ok(Some(true)) => "yes",
            Ok(Some(false)) => "no",
            Ok(None) => "unknown",
            Err(_) => "unknown",
        };
        Ok(vec![answer.to_string()])
    }

    // ------------------------------------------------------------------
    // Full-query interpretation (one-shot prompting)
    // ------------------------------------------------------------------

    fn handle_full_query(&self, sql: &str) -> Result<Vec<String>> {
        let stmt = match parse_statement(sql) {
            Ok(Statement::Select(s)) => *s,
            Ok(_) => return Err(Error::llm("full-query prompts must contain a SELECT")),
            Err(e) => return Err(Error::llm(format!("the model could not read the SQL: {e}"))),
        };
        let (names, mut rows) = self.eval_from(&stmt)?;

        // WHERE
        if let Some(pred) = &stmt.selection {
            let pred = rewrite_columns(pred, &names)?;
            let schema = flat_schema(&names);
            rows.retain(|r| {
                matches!(eval_expr(&schema, r, &pred), Ok(Value::Bool(true)))
                    || matches!(eval_expr(&schema, r, &pred), Ok(Value::Int(i)) if i != 0)
            });
        }

        // Join penalty: one-shot prompting over joined relations is less
        // reliable; each surviving row is dropped with a probability that
        // grows with the number of joins.
        let join_count = stmt.from.as_ref().map(|f| f.join_count()).unwrap_or(0);
        if join_count > 0 {
            let penalty = ((1.0 - self.noise.fidelity.recall) * 0.5 * join_count as f64).min(0.9);
            rows.retain(|r| {
                hash01(&["join_penalty", &r.to_pipe_string()], self.noise.seed) >= penalty
            });
        }

        let schema = flat_schema(&names);
        let mut out_rows: Vec<Vec<Value>> = Vec::new();

        if stmt.is_aggregate() {
            out_rows = self.eval_aggregate(&stmt, &names, &schema, &rows)?;
        } else {
            for row in &rows {
                let mut out = Vec::new();
                for item in &stmt.projection {
                    match item {
                        SelectItem::Wildcard => {
                            out.extend(row.values().iter().cloned());
                        }
                        SelectItem::QualifiedWildcard(q) => {
                            for (i, (qual, _)) in names.iter().enumerate() {
                                if qual.as_deref() == Some(q.as_str()) {
                                    out.push(row.get(i).clone());
                                }
                            }
                        }
                        SelectItem::Expr { expr, .. } => {
                            let e = rewrite_columns(expr, &names)?;
                            out.push(eval_expr(&schema, row, &e).unwrap_or(Value::Null));
                        }
                    }
                }
                out_rows.push(out);
            }
        }

        // ORDER BY (best effort: only plain column references are honoured).
        if !stmt.order_by.is_empty() && !stmt.is_aggregate() {
            if let Some(first) = stmt.order_by.first() {
                if let Ok(e) = rewrite_columns(&first.expr, &names) {
                    let schema = flat_schema(&names);
                    let mut keyed: Vec<(Value, Vec<Value>)> = rows
                        .iter()
                        .zip(out_rows.iter())
                        .map(|(r, o)| (eval_expr(&schema, r, &e).unwrap_or(Value::Null), o.clone()))
                        .collect();
                    keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
                    if !first.ascending {
                        keyed.reverse();
                    }
                    out_rows = keyed.into_iter().map(|(_, o)| o).collect();
                }
            }
        }

        if let Some(offset) = stmt.offset {
            out_rows = out_rows.into_iter().skip(offset as usize).collect();
        }
        if let Some(limit) = stmt.limit {
            out_rows.truncate(limit as usize);
        }
        out_rows.truncate(self.max_rows_per_completion);

        Ok(out_rows
            .into_iter()
            .map(|vals| {
                vals.iter()
                    .map(|v| v.to_display_string())
                    .collect::<Vec<_>>()
                    .join(" | ")
            })
            .collect())
    }

    /// Evaluate the FROM clause into a flat list of qualified column names and
    /// joined (observed) rows.
    #[allow(clippy::type_complexity)]
    fn eval_from(
        &self,
        stmt: &SelectStatement,
    ) -> Result<(Vec<(Option<String>, String)>, Vec<Row>)> {
        let Some(from) = &stmt.from else {
            return Ok((vec![], vec![Row::empty()]));
        };
        self.eval_table_expr(from)
    }

    #[allow(clippy::type_complexity)]
    fn eval_table_expr(
        &self,
        expr: &TableExpr,
    ) -> Result<(Vec<(Option<String>, String)>, Vec<Row>)> {
        match expr {
            TableExpr::Table { name, alias } => {
                let (schema, rows) = self.observed_table(name)?;
                let qual = alias.clone().unwrap_or_else(|| name.clone());
                let names = schema
                    .columns
                    .iter()
                    .map(|c| (Some(qual.to_ascii_lowercase()), c.name.clone()))
                    .collect();
                Ok((names, rows))
            }
            TableExpr::Subquery { .. } => Err(Error::llm(
                "the model does not interpret subqueries in one-shot prompts",
            )),
            TableExpr::Join {
                left,
                right,
                kind,
                on,
            } => {
                let (lnames, lrows) = self.eval_table_expr(left)?;
                let (rnames, rrows) = self.eval_table_expr(right)?;
                let mut names = lnames.clone();
                names.extend(rnames.iter().cloned());
                let schema = flat_schema(&names);
                let on_expr = match on {
                    Some(o) => Some(rewrite_columns(o, &names)?),
                    None => None,
                };
                let mut rows = Vec::new();
                for l in &lrows {
                    let mut matched = false;
                    for r in &rrows {
                        let combined = l.concat(r);
                        let keep = match &on_expr {
                            Some(e) => {
                                matches!(eval_expr(&schema, &combined, e), Ok(Value::Bool(true)))
                            }
                            None => true,
                        };
                        if keep {
                            matched = true;
                            rows.push(combined);
                        }
                    }
                    if !matched && *kind == JoinKind::Left {
                        let mut combined = l.clone();
                        combined.resize(names.len());
                        rows.push(combined);
                    }
                    if rows.len() > self.max_rows_per_completion * 4 {
                        break;
                    }
                }
                Ok((names, rows))
            }
        }
    }

    fn eval_aggregate(
        &self,
        stmt: &SelectStatement,
        names: &[(Option<String>, String)],
        schema: &Schema,
        rows: &[Row],
    ) -> Result<Vec<Vec<Value>>> {
        use std::collections::BTreeMap;
        // Group rows by the group-by key values.
        let group_exprs: Vec<Expr> = stmt
            .group_by
            .iter()
            .map(|e| rewrite_columns(e, names))
            .collect::<Result<_>>()?;
        let mut groups: BTreeMap<Vec<Value>, Vec<&Row>> = BTreeMap::new();
        for row in rows {
            let key: Vec<Value> = group_exprs
                .iter()
                .map(|e| eval_expr(schema, row, e).unwrap_or(Value::Null))
                .collect();
            groups.entry(key).or_default().push(row);
        }
        if groups.is_empty() && stmt.group_by.is_empty() {
            groups.insert(vec![], vec![]);
        }

        let mut out = Vec::new();
        for (key, members) in groups {
            let mut row_out = Vec::new();
            for item in &stmt.projection {
                match item {
                    SelectItem::Expr { expr, .. } => {
                        let v = self.eval_projection_with_aggregates(
                            expr,
                            names,
                            schema,
                            &key,
                            &group_exprs,
                            &members,
                        )?;
                        row_out.push(v);
                    }
                    _ => return Err(Error::llm(
                        "wildcard projections are not supported with GROUP BY in one-shot prompts",
                    )),
                }
            }
            out.push(row_out);
        }
        Ok(out)
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_projection_with_aggregates(
        &self,
        expr: &Expr,
        names: &[(Option<String>, String)],
        schema: &Schema,
        group_key: &[Value],
        group_exprs: &[Expr],
        members: &[&Row],
    ) -> Result<Value> {
        match expr {
            Expr::Aggregate {
                func,
                arg,
                distinct,
            } => {
                let mut values: Vec<Value> = Vec::new();
                for row in members {
                    match arg {
                        None => values.push(Value::Int(1)),
                        Some(a) => {
                            let e = rewrite_columns(a, names)?;
                            let v = eval_expr(schema, row, &e).unwrap_or(Value::Null);
                            if !v.is_null() {
                                values.push(v);
                            }
                        }
                    }
                }
                if *distinct {
                    let mut seen = Vec::new();
                    values.retain(|v| {
                        if seen.iter().any(|s: &Value| s.semantic_eq(v)) {
                            false
                        } else {
                            seen.push(v.clone());
                            true
                        }
                    });
                }
                Ok(compute_aggregate(*func, &values))
            }
            // A projection expression that is one of the group-by expressions
            // evaluates to the group key.
            other => {
                let rewritten = rewrite_columns(other, names)?;
                for (i, g) in group_exprs.iter().enumerate() {
                    if *g == rewritten {
                        return Ok(group_key[i].clone());
                    }
                }
                match members.first() {
                    Some(row) => Ok(eval_expr(schema, row, &rewritten).unwrap_or(Value::Null)),
                    None => Ok(Value::Null),
                }
            }
        }
    }

    /// Render the completion text: join lines, apply per-line format noise.
    fn render(&self, prompt: &str, lines: Vec<String>) -> String {
        let mut out_lines = Vec::with_capacity(lines.len());
        for (i, line) in lines.into_iter().enumerate() {
            if self.noise.mangles_line(prompt, i) {
                out_lines.push(self.noise.mangle_line(&line));
            } else {
                out_lines.push(line);
            }
        }
        if out_lines.is_empty() {
            // A model never returns a truly empty completion.
            "(no results)".to_string()
        } else {
            out_lines.join("\n")
        }
    }
}

/// Compute an aggregate over already-collected values.
pub fn compute_aggregate(func: AggregateFunc, values: &[Value]) -> Value {
    match func {
        AggregateFunc::Count => Value::Int(values.len() as i64),
        AggregateFunc::Sum => {
            if values.is_empty() {
                return Value::Null;
            }
            let all_int = values.iter().all(|v| matches!(v, Value::Int(_)));
            if all_int {
                Value::Int(values.iter().filter_map(|v| v.as_int()).sum())
            } else {
                Value::Float(values.iter().filter_map(|v| v.as_f64()).sum())
            }
        }
        AggregateFunc::Avg => {
            if values.is_empty() {
                return Value::Null;
            }
            let sum: f64 = values.iter().filter_map(|v| v.as_f64()).sum();
            Value::Float(sum / values.len() as f64)
        }
        AggregateFunc::Min => values
            .iter()
            .min_by(|a, b| a.total_cmp(b))
            .cloned()
            .unwrap_or(Value::Null),
        AggregateFunc::Max => values
            .iter()
            .max_by(|a, b| a.total_cmp(b))
            .cloned()
            .unwrap_or(Value::Null),
    }
}

/// Build a throwaway schema whose column names are `__c0`, `__c1`, ... so the
/// simulator's evaluator can run over joined rows.
fn flat_schema(names: &[(Option<String>, String)]) -> Schema {
    let columns = (0..names.len().max(1))
        .map(|i| llmsql_types::Column::new(format!("__c{i}"), DataType::Text))
        .collect();
    Schema {
        name: "__joined".to_string(),
        columns,
        virtual_table: false,
        description: None,
    }
}

/// Rewrite column references in an expression to the positional `__cN` names
/// of [`flat_schema`], resolving qualifiers against `names`.
fn rewrite_columns(expr: &Expr, names: &[(Option<String>, String)]) -> Result<Expr> {
    let resolve = |qualifier: &Option<String>, name: &str| -> Result<usize> {
        let name_l = name.to_ascii_lowercase();
        let qual_l = qualifier.as_ref().map(|q| q.to_ascii_lowercase());
        let mut matches = names.iter().enumerate().filter(|(_, (q, n))| {
            *n == name_l
                && match &qual_l {
                    Some(want) => q.as_deref() == Some(want.as_str()),
                    None => true,
                }
        });
        match (matches.next(), matches.next()) {
            (Some((i, _)), None) => Ok(i),
            (Some((i, _)), Some(_)) => Ok(i), // ambiguous: the model just picks the first
            (None, _) => Err(Error::llm(format!("unknown column '{name}'"))),
        }
    };
    rewrite(expr, &resolve)
}

fn rewrite(expr: &Expr, resolve: &impl Fn(&Option<String>, &str) -> Result<usize>) -> Result<Expr> {
    Ok(match expr {
        Expr::Column { qualifier, name } => Expr::Column {
            qualifier: None,
            name: format!("__c{}", resolve(qualifier, name)?),
        },
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(rewrite(left, resolve)?),
            op: *op,
            right: Box::new(rewrite(right, resolve)?),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(rewrite(expr, resolve)?),
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(rewrite(expr, resolve)?),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(rewrite(expr, resolve)?),
            list: list
                .iter()
                .map(|e| rewrite(e, resolve))
                .collect::<Result<_>>()?,
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(rewrite(expr, resolve)?),
            low: Box::new(rewrite(low, resolve)?),
            high: Box::new(rewrite(high, resolve)?),
            negated: *negated,
        },
        Expr::Aggregate {
            func,
            arg,
            distinct,
        } => Expr::Aggregate {
            func: *func,
            arg: match arg {
                Some(a) => Some(Box::new(rewrite(a, resolve)?)),
                None => None,
            },
            distinct: *distinct,
        },
        Expr::Cast { expr, data_type } => Expr::Cast {
            expr: Box::new(rewrite(expr, resolve)?),
            data_type: *data_type,
        },
        Expr::Case {
            branches,
            else_expr,
        } => Expr::Case {
            branches: branches
                .iter()
                .map(|(c, v)| Ok((rewrite(c, resolve)?, rewrite(v, resolve)?)))
                .collect::<Result<_>>()?,
            else_expr: match else_expr {
                Some(e) => Some(Box::new(rewrite(e, resolve)?)),
                None => None,
            },
        },
    })
}

impl LanguageModel for SimLlm {
    fn name(&self) -> String {
        format!(
            "sim-llm(recall={:.2},halluc={:.2},seed={})",
            self.noise.fidelity.recall, self.noise.fidelity.hallucination, self.noise.seed
        )
    }

    /// Every knob that changes completion text is part of the identity:
    /// clients sharing a prompt cache must not mix configurations that answer
    /// the same prompt differently.
    fn fingerprint(&self) -> String {
        let f = &self.noise.fidelity;
        format!(
            "sim-llm(r={},h={},v={},f={},e={},seed={},cap={})",
            f.recall,
            f.hallucination,
            f.value_noise,
            f.format_noise,
            f.enumeration_coverage,
            self.noise.seed,
            self.max_rows_per_completion,
        )
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse> {
        self.submit(request).wait()
    }

    /// The completion is pure compute, so it is produced immediately and the
    /// simulated round trip becomes a timer on the handle — one event loop
    /// can then hold many in-flight simulated requests on a single OS thread.
    fn submit(&self, request: &CompletionRequest) -> crate::backend::CallHandle {
        let result = self.complete_now(request);
        if self.simulated_latency_ms > 0.0 {
            let ready_at = std::time::Instant::now()
                + std::time::Duration::from_secs_f64(self.simulated_latency_ms / 1000.0);
            crate::backend::CallHandle::timed(result, ready_at)
        } else {
            crate::backend::CallHandle::ready(result)
        }
    }

    fn cost_model(&self) -> LlmCostModel {
        self.cost_model
    }

    /// The simulator's observed row count for `table`: known entities minus
    /// forgotten ones plus fabricated ones — exactly the number of lines an
    /// unfiltered enumeration of the relation would produce, and a pure
    /// function of `(seed, table)`, so the hint is stable across calls.
    fn relation_cardinality(&self, table: &str) -> Option<u64> {
        self.observed_table(table)
            .ok()
            .map(|(_, rows)| rows.len() as u64)
    }
}

impl SimLlm {
    /// The deterministic completion for `request`, without the simulated
    /// network delay (`submit` computes here and represents the delay as a
    /// timer).
    fn complete_now(&self, request: &CompletionRequest) -> Result<CompletionResponse> {
        // Packed composite (tuple batching): answer each member task
        // independently and join the answers with the same separator. Each
        // member goes through the full single-task path — including its own
        // noise draws, keyed on the member prompt — so a batched answer is
        // byte-identical to the unbatched answers it replaces, at any batch
        // size. The per-member token budget is the caller's budget: the
        // packing contract gives every member the full page allowance.
        if crate::batch::is_packed(&request.prompt) {
            let members = crate::batch::split_prompt(&request.prompt);
            let mut texts = Vec::with_capacity(members.len());
            let mut completion_tokens = 0;
            let mut cost_usd = 0.0;
            for member in &members {
                let response = self.complete_now(&CompletionRequest {
                    prompt: (*member).to_string(),
                    max_tokens: request.max_tokens,
                    temperature: request.temperature,
                })?;
                completion_tokens += response.completion_tokens;
                cost_usd += response.cost_usd;
                texts.push(response.text);
            }
            let prompt_tokens = count_tokens(&request.prompt);
            return Ok(CompletionResponse {
                text: texts.join(&format!("\n{}\n", crate::batch::BATCH_SEPARATOR)),
                prompt_tokens,
                completion_tokens,
                // One request, one round trip: the composite pays a single
                // simulated latency, which is the whole point of batching.
                latency_ms: self.cost_model.request_latency_ms(completion_tokens),
                cost_usd,
            });
        }
        let task = parse_task(&request.prompt)?;
        let lines = match &task {
            TaskSpec::Enumerate {
                table,
                filter,
                limit,
                offset,
            } => self.handle_enumerate(table, filter.as_deref(), *limit, *offset)?,
            TaskSpec::RowBatch {
                table,
                columns,
                filter,
                limit,
                offset,
            } => self.handle_row_batch(table, columns, filter.as_deref(), *limit, *offset)?,
            TaskSpec::Lookup {
                table,
                key,
                columns,
            } => self.handle_lookup(table, key, columns)?,
            TaskSpec::FilterCheck {
                table,
                key,
                condition,
            } => self.handle_filter_check(table, key, condition)?,
            TaskSpec::FullQuery { sql, .. } => self.handle_full_query(sql)?,
        };
        let text = self.render(&request.prompt, lines);

        let prompt_tokens = count_tokens(&request.prompt);
        let mut completion_tokens = count_tokens(&text);
        // Honour the caller's completion budget: truncate whole lines.
        let text = if completion_tokens > request.max_tokens {
            let mut kept = Vec::new();
            let mut used = 0;
            for line in text.lines() {
                let t = count_tokens(line) + 1;
                if used + t > request.max_tokens {
                    break;
                }
                used += t;
                kept.push(line);
            }
            completion_tokens = used;
            kept.join("\n")
        } else {
            text
        };

        Ok(CompletionResponse {
            cost_usd: self
                .cost_model
                .request_cost_usd(prompt_tokens, completion_tokens),
            latency_ms: self.cost_model.request_latency_ms(completion_tokens),
            text,
            prompt_tokens,
            completion_tokens,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_pipe_rows, parse_value_lines, parse_yes_no, YesNoAnswer};
    use llmsql_types::Column;

    fn world() -> Arc<KnowledgeBase> {
        let schema = Schema::virtual_table(
            "countries",
            vec![
                Column::new("name", DataType::Text).primary_key(),
                Column::new("region", DataType::Text),
                Column::new("capital", DataType::Text),
                Column::new("population", DataType::Int),
            ],
        );
        let data: [(&str, &str, &str, i64); 6] = [
            ("France", "Europe", "Paris", 68_000_000),
            ("Germany", "Europe", "Berlin", 84_000_000),
            ("Japan", "Asia", "Tokyo", 125_000_000),
            ("Peru", "Americas", "Lima", 34_000_000),
            ("Kenya", "Africa", "Nairobi", 54_000_000),
            ("Iceland", "Europe", "Reykjavik", 380_000),
        ];
        let rows = data
            .iter()
            .map(|(n, r, c, p)| {
                Row::new(vec![(*n).into(), (*r).into(), (*c).into(), Value::Int(*p)])
            })
            .collect();

        let city_schema = Schema::virtual_table(
            "cities",
            vec![
                Column::new("name", DataType::Text).primary_key(),
                Column::new("country", DataType::Text),
                Column::new("population", DataType::Int),
            ],
        );
        let cities = vec![
            Row::new(vec!["Paris".into(), "France".into(), Value::Int(2_148_000)]),
            Row::new(vec!["Lyon".into(), "France".into(), Value::Int(513_000)]),
            Row::new(vec![
                "Berlin".into(),
                "Germany".into(),
                Value::Int(3_645_000),
            ]),
            Row::new(vec!["Tokyo".into(), "Japan".into(), Value::Int(13_960_000)]),
        ];

        let mut kb = KnowledgeBase::new();
        kb.add_table(schema, rows);
        kb.add_table(city_schema, cities);
        kb.into_shared()
    }

    fn perfect() -> SimLlm {
        SimLlm::new(world(), LlmFidelity::perfect(), 1)
    }

    fn complete(sim: &SimLlm, spec: &TaskSpec) -> String {
        let schema = spec
            .table()
            .and_then(|t| sim.knowledge().table(t).ok())
            .map(|t| t.schema.clone());
        let prompt = spec.to_prompt(schema.as_ref());
        sim.complete(&CompletionRequest::new(prompt)).unwrap().text
    }

    #[test]
    fn enumerate_perfect_lists_everything() {
        let sim = perfect();
        let text = complete(
            &sim,
            &TaskSpec::Enumerate {
                table: "countries".into(),
                filter: None,
                limit: 100,
                offset: 0,
            },
        );
        let parsed = parse_value_lines(&text, DataType::Text);
        assert_eq!(parsed.rows.len(), 6);
    }

    #[test]
    fn packed_prompts_answer_each_member_byte_identically() {
        // Tuple batching contract: a composite answer, split back per
        // member, is byte-identical to answering each member alone — noise
        // draws are keyed on the member prompt, so even a noisy simulator
        // agrees at any batch size.
        let sim = SimLlm::new(world(), LlmFidelity::medium(), 9);
        let prompts: Vec<String> = ["France", "Japan", "Iceland"]
            .iter()
            .map(|key| {
                TaskSpec::Lookup {
                    table: "countries".into(),
                    key: (*key).to_string(),
                    columns: vec!["capital".into(), "population".into()],
                }
                .to_prompt(None)
            })
            .collect();
        let packed = crate::batch::pack_prompts(&prompts);
        let composite = sim.complete(&CompletionRequest::new(packed)).unwrap();
        let parts = crate::batch::split_response(&composite, prompts.len());
        assert_eq!(parts.len(), prompts.len());
        for (prompt, part) in prompts.iter().zip(&parts) {
            let single = sim
                .complete(&CompletionRequest::new(prompt.as_str()))
                .unwrap();
            assert_eq!(single.text, part.text);
        }
    }

    #[test]
    fn enumerate_with_filter_and_pagination() {
        let sim = perfect();
        let text = complete(
            &sim,
            &TaskSpec::Enumerate {
                table: "countries".into(),
                filter: Some("region = 'Europe'".into()),
                limit: 2,
                offset: 1,
            },
        );
        let parsed = parse_value_lines(&text, DataType::Text);
        // Europe has France, Germany, Iceland; skip 1, take 2
        assert_eq!(parsed.rows.len(), 2);
    }

    #[test]
    fn row_batch_returns_requested_columns() {
        let sim = perfect();
        let text = complete(
            &sim,
            &TaskSpec::RowBatch {
                table: "countries".into(),
                columns: vec!["name".into(), "population".into()],
                filter: Some("population > 60000000".into()),
                limit: 50,
                offset: 0,
            },
        );
        let parsed = parse_pipe_rows(&text, &[DataType::Text, DataType::Int]);
        assert_eq!(parsed.rows.len(), 3); // France, Germany, Japan
        for row in &parsed.rows {
            assert!(row.get(1).as_int().unwrap() > 60_000_000);
        }
    }

    #[test]
    fn lookup_returns_attributes() {
        let sim = perfect();
        let text = complete(
            &sim,
            &TaskSpec::Lookup {
                table: "countries".into(),
                key: "Japan".into(),
                columns: vec!["capital".into(), "population".into()],
            },
        );
        let parsed = parse_pipe_rows(&text, &[DataType::Text, DataType::Int]);
        assert_eq!(parsed.rows[0].get(0), &Value::Text("Tokyo".into()));
        assert_eq!(parsed.rows[0].get(1), &Value::Int(125_000_000));
    }

    #[test]
    fn lookup_unknown_entity_hedges() {
        let sim = SimLlm::new(world(), LlmFidelity::perfect(), 1);
        let text = complete(
            &sim,
            &TaskSpec::Lookup {
                table: "countries".into(),
                key: "Atlantis".into(),
                columns: vec!["capital".into()],
            },
        );
        assert!(text.to_lowercase().contains("unknown"));
    }

    #[test]
    fn filter_check_yes_no() {
        let sim = perfect();
        let yes = complete(
            &sim,
            &TaskSpec::FilterCheck {
                table: "countries".into(),
                key: "Japan".into(),
                condition: "population > 100000000".into(),
            },
        );
        assert_eq!(parse_yes_no(&yes), YesNoAnswer::Yes);
        let no = complete(
            &sim,
            &TaskSpec::FilterCheck {
                table: "countries".into(),
                key: "Iceland".into(),
                condition: "population > 100000000".into(),
            },
        );
        assert_eq!(parse_yes_no(&no), YesNoAnswer::No);
    }

    #[test]
    fn full_query_single_table() {
        let sim = perfect();
        let text = complete(
            &sim,
            &TaskSpec::FullQuery {
                sql: "SELECT name, capital FROM countries WHERE region = 'Europe' ORDER BY name LIMIT 10"
                    .into(),
                columns: vec!["name".into(), "capital".into()],
            },
        );
        let parsed = parse_pipe_rows(&text, &[DataType::Text, DataType::Text]);
        assert_eq!(parsed.rows.len(), 3);
        assert_eq!(parsed.rows[0].get(0), &Value::Text("France".into()));
    }

    #[test]
    fn full_query_join() {
        let sim = perfect();
        let text = complete(
            &sim,
            &TaskSpec::FullQuery {
                sql: "SELECT ci.name, c.region FROM cities ci JOIN countries c ON ci.country = c.name"
                    .into(),
                columns: vec!["name".into(), "region".into()],
            },
        );
        let parsed = parse_pipe_rows(&text, &[DataType::Text, DataType::Text]);
        assert_eq!(parsed.rows.len(), 4);
    }

    #[test]
    fn full_query_aggregate() {
        let sim = perfect();
        let text = complete(
            &sim,
            &TaskSpec::FullQuery {
                sql: "SELECT region, COUNT(*) FROM countries GROUP BY region".into(),
                columns: vec!["region".into(), "count(*)".into()],
            },
        );
        let parsed = parse_pipe_rows(&text, &[DataType::Text, DataType::Int]);
        assert_eq!(parsed.rows.len(), 4);
        let europe = parsed
            .rows
            .iter()
            .find(|r| r.get(0) == &Value::Text("Europe".into()))
            .unwrap();
        assert_eq!(europe.get(1), &Value::Int(3));
    }

    #[test]
    fn full_query_global_aggregate() {
        let sim = perfect();
        let text = complete(
            &sim,
            &TaskSpec::FullQuery {
                sql: "SELECT COUNT(*), SUM(population), MAX(population) FROM countries".into(),
                columns: vec![],
            },
        );
        let parsed = parse_pipe_rows(&text, &[DataType::Int, DataType::Int, DataType::Int]);
        assert_eq!(parsed.rows[0].get(0), &Value::Int(6));
        assert_eq!(parsed.rows[0].get(2), &Value::Int(125_000_000));
    }

    #[test]
    fn weak_model_misses_and_fabricates() {
        let sim = SimLlm::new(world(), LlmFidelity::weak(), 3);
        let text = complete(
            &sim,
            &TaskSpec::RowBatch {
                table: "countries".into(),
                columns: vec!["name".into(), "capital".into(), "population".into()],
                filter: None,
                limit: 100,
                offset: 0,
            },
        );
        let parsed = parse_pipe_rows(&text, &[DataType::Text, DataType::Text, DataType::Int]);
        // With weak fidelity the result differs from the truth: either some
        // of the 6 entities are missing, or values are wrong/fabricated.
        let names: Vec<String> = parsed
            .rows
            .iter()
            .map(|r| r.get(0).to_display_string())
            .collect();
        let truth = ["France", "Germany", "Japan", "Peru", "Kenya", "Iceland"];
        let exact = names.len() == 6 && truth.iter().all(|t| names.contains(&t.to_string()));
        let capitals_ok = parsed.rows.iter().all(|r| {
            matches!(r.get(1), Value::Text(s) if ["Paris","Berlin","Tokyo","Lima","Nairobi","Reykjavik"].contains(&s.as_str()))
        });
        assert!(!(exact && capitals_ok), "weak model should not be perfect");
    }

    #[test]
    fn simulator_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimLlm>();
    }

    #[test]
    fn concurrent_calls_match_sequential_calls() {
        // Same (seed, prompt) must produce the same completion no matter how
        // calls interleave across threads — the property parallel scans rely
        // on for determinism.
        let sim = SimLlm::new(world(), LlmFidelity::medium(), 9);
        let specs: Vec<TaskSpec> = (0..8)
            .map(|i| TaskSpec::RowBatch {
                table: "countries".into(),
                columns: vec!["name".into(), "population".into()],
                filter: None,
                limit: 2,
                offset: i,
            })
            .collect();
        let sequential: Vec<String> = specs.iter().map(|s| complete(&sim, s)).collect();
        let concurrent: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = specs
                .iter()
                .map(|s| scope.spawn(|| complete(&sim, s)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(sequential, concurrent);
    }

    #[test]
    fn simulated_latency_delays_completion() {
        let sim = SimLlm::new(world(), LlmFidelity::perfect(), 1).with_simulated_latency_ms(20.0);
        let spec = TaskSpec::Enumerate {
            table: "countries".into(),
            filter: None,
            limit: 5,
            offset: 0,
        };
        let start = std::time::Instant::now();
        complete(&sim, &spec);
        assert!(start.elapsed().as_millis() >= 15);
    }

    #[test]
    fn deterministic_given_seed() {
        let sim1 = SimLlm::new(world(), LlmFidelity::medium(), 9);
        let sim2 = SimLlm::new(world(), LlmFidelity::medium(), 9);
        let spec = TaskSpec::RowBatch {
            table: "countries".into(),
            columns: vec!["name".into(), "population".into()],
            filter: None,
            limit: 100,
            offset: 0,
        };
        assert_eq!(complete(&sim1, &spec), complete(&sim2, &spec));
    }

    #[test]
    fn max_tokens_truncates_whole_lines() {
        let sim = perfect();
        let spec = TaskSpec::RowBatch {
            table: "countries".into(),
            columns: vec![
                "name".into(),
                "region".into(),
                "capital".into(),
                "population".into(),
            ],
            filter: None,
            limit: 100,
            offset: 0,
        };
        let schema = sim.knowledge().table("countries").unwrap().schema.clone();
        let prompt = spec.to_prompt(Some(&schema));
        let resp = sim
            .complete(&CompletionRequest::new(prompt).with_max_tokens(20))
            .unwrap();
        assert!(resp.completion_tokens <= 20);
        assert!(resp.text.lines().count() < 6);
    }

    #[test]
    fn unknown_table_is_an_error() {
        let sim = perfect();
        let spec = TaskSpec::Enumerate {
            table: "starships".into(),
            filter: None,
            limit: 10,
            offset: 0,
        };
        let prompt = spec.to_prompt(None);
        assert!(sim.complete(&CompletionRequest::new(prompt)).is_err());
    }

    #[test]
    fn non_task_prompt_is_an_error() {
        let sim = perfect();
        assert!(sim
            .complete(&CompletionRequest::new("What is the capital of France?"))
            .is_err());
    }

    #[test]
    fn response_accounting_present() {
        let sim = perfect();
        let spec = TaskSpec::Enumerate {
            table: "countries".into(),
            filter: None,
            limit: 10,
            offset: 0,
        };
        let resp = sim
            .complete(&CompletionRequest::new(spec.to_prompt(None)))
            .unwrap();
        assert!(resp.prompt_tokens > 10);
        assert!(resp.completion_tokens > 0);
        assert!(resp.cost_usd > 0.0);
        assert!(resp.latency_ms > 0.0);
        assert!(sim.name().starts_with("sim-llm"));
    }

    #[test]
    fn aggregate_helper() {
        let vals = vec![Value::Int(1), Value::Int(5), Value::Int(3)];
        assert_eq!(
            compute_aggregate(AggregateFunc::Count, &vals),
            Value::Int(3)
        );
        assert_eq!(compute_aggregate(AggregateFunc::Sum, &vals), Value::Int(9));
        assert_eq!(
            compute_aggregate(AggregateFunc::Avg, &vals),
            Value::Float(3.0)
        );
        assert_eq!(compute_aggregate(AggregateFunc::Min, &vals), Value::Int(1));
        assert_eq!(compute_aggregate(AggregateFunc::Max, &vals), Value::Int(5));
        assert_eq!(compute_aggregate(AggregateFunc::Sum, &[]), Value::Null);
        assert_eq!(compute_aggregate(AggregateFunc::Count, &[]), Value::Int(0));
    }
}
