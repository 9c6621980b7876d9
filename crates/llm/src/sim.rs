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
//! * The full-query task reads the SQL as the engine does — bound by the
//!   engine's binder against the knowledge base's schemas — and answers the
//!   plan with the engine's own relational operators over the model's
//!   *observed* (noisy) view of the data. Only that view, a reliability
//!   penalty per join and the rendering are the model's own; the penalty
//!   mirrors the empirical finding that one-shot whole-query prompting
//!   degrades quickly with query complexity.
//! * `SimLlm` is fully thread-safe and cheap to call from many scan workers
//!   at once: it carries no interior mutability or shared RNG stream. Every
//!   noise decision is re-derived per call from a hash of
//!   `(seed, table, entity, column)` / `(seed, prompt, line)` — the moral
//!   equivalent of a per-call RNG seeded with `seed ⊕ hash(prompt)` — so
//!   fidelity noise is byte-identical regardless of how calls interleave
//!   across threads.

use std::sync::Arc;

use llmsql_plan::ops::{
    aggregate_rows, distinct_rows, filter_rows, join_rows, limit_rows, project_rows, sort_rows,
    values_rows,
};
use llmsql_plan::{bind_select, LogicalPlan};
use llmsql_sql::ast::{Statement, TableExpr};
use llmsql_sql::parse_statement;
use llmsql_types::{clock, Error, LlmCostModel, LlmFidelity, Result, Row, Schema, Value};

use crate::eval::{eval_predicate, eval_predicate_text, read_predicate, ReadExpr};
use crate::knowledge::{normalize_key, KbTable, KnowledgeBase};
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
        let key_norm = normalize_key(row.get(schema.key_column()));
        let values: Vec<Value> = (0..schema.arity())
            .map(|i| {
                self.observe_attr(table, &key_norm, schema, row, i)
                    .unwrap_or(Value::Null)
            })
            .collect();
        Row::new(values)
    }

    /// The knowledge base's rows whose entity the model has not forgotten.
    fn known_rows<'a>(
        &'a self,
        table: &'a str,
        kb_table: &'a KbTable,
    ) -> impl Iterator<Item = &'a Row> + 'a {
        let key_col = kb_table.key_column();
        kb_table.rows.iter().filter(move |row| {
            self.noise
                .knows_entity(table, &normalize_key(row.get(key_col)))
        })
    }

    /// All rows of a relation as the model believes them to be: unknown
    /// entities are missing, fabricated entities are appended.
    fn observed_table(&self, table: &str) -> Result<(Schema, Vec<Row>)> {
        let kb_table = self.kb.table(table)?;
        let schema = kb_table.schema.clone();
        let key_col = kb_table.key_column();
        let mut rows: Vec<Row> = self
            .known_rows(table, kb_table)
            .map(|row| self.observe_row(table, &schema, row))
            .collect();
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
        let key_col = schema.key_column();
        let filter = read_filter(&schema, filter);
        Ok(rows
            .iter()
            .filter(|row| lists(filter.as_ref(), row))
            .map(|row| row.get(key_col).to_display_string())
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
        let filter = read_filter(&schema, filter);
        Ok(rows
            .iter()
            .filter(|row| lists(filter.as_ref(), row))
            .map(|row| {
                let fields: Vec<String> = col_indices
                    .iter()
                    .map(|idx| match idx {
                        Some(i) => row.get(*i).to_display_string(),
                        None => "NULL".to_string(),
                    })
                    .collect();
                fields.join(" | ")
            })
            .skip(offset)
            .take(limit.min(self.max_rows_per_completion))
            .collect())
    }

    fn handle_lookup(&self, table: &str, key: &str, columns: &[String]) -> Result<Vec<String>> {
        let kb_table = self.kb.table(table)?;
        let schema = &kb_table.schema;
        let key_value = Value::Text(key.to_string());
        let key_norm = normalize_key(&key_value);
        let known_row = kb_table
            .row_for_key(&key_value)
            .filter(|_| self.noise.knows_entity(table, &key_norm));
        let fields: Vec<String> = columns
            .iter()
            .map(|c| {
                let Some(col) = schema.index_of(c) else {
                    return "NULL".to_string();
                };
                if let Some(row) = known_row {
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
    // Full-query answers (one-shot prompting)
    // ------------------------------------------------------------------

    /// Read the SQL as the engine does — bound against the knowledge base's
    /// schemas, unoptimized — and answer the plan over the observed tables.
    fn handle_full_query(&self, sql: &str) -> Result<Vec<String>> {
        let unreadable = |e: Error| Error::llm(format!("the model could not read the SQL: {e}"));
        let stmt = match parse_statement(sql).map_err(unreadable)? {
            Statement::Select(s) => s,
            _ => return Err(Error::llm("full-query prompts must contain a SELECT")),
        };
        let plan = bind_select(&self.kb.catalog()?, &stmt).map_err(unreadable)?;
        // One-shot prompting over joined relations is less reliable: each
        // joined row is dropped with a probability that grows with the
        // number of joins.
        let joins = stmt.from.as_ref().map_or(0, TableExpr::join_count);
        let penalty = ((1.0 - self.noise.fidelity.recall) * 0.5 * joins as f64).min(0.9);
        let mut rows = self.answer(&plan, penalty)?;
        rows.truncate(self.max_rows_per_completion);
        Ok(rows.iter().map(Row::to_pipe_string).collect())
    }

    /// The rows of `plan` as the model believes them to be. A scan reads the
    /// observed table, and every other node is one call to the engine's
    /// operator for it. The first join met on the way down drops its rows
    /// at the `penalty` rate; the joins below it drop none.
    fn answer(&self, plan: &LogicalPlan, penalty: f64) -> Result<Vec<Row>> {
        let child = |input: &LogicalPlan| self.answer(input, penalty);
        match plan {
            LogicalPlan::Scan { table, .. } => Ok(self.observed_table(table)?.1),
            LogicalPlan::Values { rows, .. } => values_rows(rows),
            LogicalPlan::Filter { input, predicate } => filter_rows(child(input)?, predicate),
            LogicalPlan::Project { input, exprs, .. } => project_rows(child(input)?, exprs),
            LogicalPlan::Join {
                left,
                right,
                kind,
                on,
                ..
            } => {
                let mut rows = join_rows(
                    &self.answer(left, 0.0)?,
                    &self.answer(right, 0.0)?,
                    left.arity(),
                    right.arity(),
                    *kind,
                    on.as_ref(),
                )?;
                if penalty > 0.0 {
                    rows.retain(|r| {
                        hash01(&["join_penalty", &r.to_pipe_string()], self.noise.seed) >= penalty
                    });
                }
                Ok(rows)
            }
            LogicalPlan::Aggregate {
                input,
                group_exprs,
                aggregates,
                ..
            } => aggregate_rows(&child(input)?, group_exprs, aggregates),
            LogicalPlan::Sort { input, keys } => {
                let mut rows = child(input)?;
                sort_rows(&mut rows, keys)?;
                Ok(rows)
            }
            LogicalPlan::Limit {
                input,
                limit,
                offset,
            } => Ok(limit_rows(child(input)?, *limit, *offset)),
            LogicalPlan::Distinct { input } => Ok(distinct_rows(child(input)?)),
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

/// The pushed filter of a scan prompt, read once per prompt. A predicate the
/// "model" cannot make sense of is simply ignored (it lists everything) — a
/// realistic failure.
fn read_filter(schema: &Schema, filter: Option<&str>) -> Option<ReadExpr> {
    filter.and_then(|f| read_predicate(schema, f).ok())
}

/// Whether the model lists `row` under `filter`; a row it cannot evaluate
/// the filter on is listed too.
fn lists(filter: Option<&ReadExpr>, row: &Row) -> bool {
    filter.is_none_or(|f| matches!(eval_predicate(f, row), Ok(Some(true)) | Err(_)))
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
            let ready_at = clock::now()
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
    /// Counted (one hash per entity), not materialised: `observed_table`
    /// would also run every attribute of every row through the noise model.
    fn relation_cardinality(&self, table: &str) -> Option<u64> {
        let kb_table = self.kb.table(table).ok()?;
        let known = self.known_rows(table, kb_table).count();
        Some((known + self.noise.fabricated_entity_count(table, known)) as u64)
    }
}

impl SimLlm {
    /// The deterministic completion for `request`, without the simulated
    /// network delay (`submit` computes here and represents the delay as a
    /// timer).
    fn complete_now(&self, request: &CompletionRequest) -> Result<CompletionResponse> {
        // Packed composite (tuple batching): answer each member task
        // independently and pack the answers with separator lines. Each
        // member is recovered as the exact one-task prompt it stands for and
        // goes through the full single-task path — including its own noise
        // draws, keyed on the member prompt — so a batched answer is
        // byte-identical to the unbatched answers it replaces, at any batch
        // size. The per-member token budget is the caller's budget: the
        // packing contract gives every member the full page allowance.
        if crate::batch::is_packed(&request.prompt) {
            let members = crate::batch::split_prompt(&request.prompt);
            let mut texts = Vec::with_capacity(members.len());
            let mut completion_tokens = 0;
            for prompt in members {
                let response = self.complete_now(&CompletionRequest {
                    prompt,
                    max_tokens: request.max_tokens,
                    temperature: request.temperature,
                })?;
                completion_tokens += response.completion_tokens;
                texts.push(response.text);
            }
            // The request is billed as sent: its own prompt tokens, which
            // state what the members share once.
            let prompt_tokens = count_tokens(&request.prompt);
            return Ok(CompletionResponse {
                text: crate::batch::pack_prompts(&texts),
                prompt_tokens,
                completion_tokens,
                // One request, one round trip: the composite pays a single
                // simulated latency, which is the whole point of batching.
                latency_ms: self.cost_model.request_latency_ms(completion_tokens),
                cost_usd: self
                    .cost_model
                    .request_cost_usd(prompt_tokens, completion_tokens),
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
    use crate::prompt::PromptTemplate;
    use llmsql_types::{Column, DataType};

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
    fn cardinality_is_counted_equal_to_the_observed_table() {
        // The hint is counted, the pages are cut from `observed_table`: they
        // must agree at every fidelity, or a hinted scan stops early or late.
        let schema = |name: &str| {
            Schema::virtual_table(
                name,
                vec![
                    Column::new("id", DataType::Text).primary_key(),
                    Column::new("size", DataType::Int),
                ],
            )
        };
        let mut kb = KnowledgeBase::new();
        let parts = (0..80).map(|i| Row::new(vec![format!("part-{i}").into(), Value::Int(i)]));
        kb.add_table(schema("parts"), parts.collect());
        kb.add_table(schema("nothing"), Vec::new());
        let kb = kb.into_shared();
        let presets = [
            LlmFidelity::perfect(),
            LlmFidelity::strong(),
            LlmFidelity::medium(),
            LlmFidelity::weak(),
        ];
        for fidelity in presets {
            for seed in [1, 7, 42] {
                let sim = SimLlm::new(Arc::clone(&kb), fidelity, seed);
                for table in ["parts", "nothing"] {
                    let observed = sim.observed_table(table).unwrap().1.len() as u64;
                    assert_eq!(
                        sim.relation_cardinality(table),
                        Some(observed),
                        "{table} at {fidelity:?}, seed {seed}"
                    );
                }
                assert_eq!(sim.relation_cardinality("unheard_of"), None);
            }
        }
        let noisy = SimLlm::new(Arc::clone(&kb), LlmFidelity::weak(), 7);
        assert_ne!(noisy.relation_cardinality("parts"), Some(80));
        assert_eq!(perfect().relation_cardinality("countries"), Some(6));
    }

    #[test]
    fn packed_prompts_answer_each_member_byte_identically() {
        // Tuple batching contract: a composite answer, split back per
        // member, is byte-identical to answering each member alone — noise
        // draws are keyed on the member prompt, so even a noisy simulator
        // agrees at any batch size.
        let sim = SimLlm::new(world(), LlmFidelity::medium(), 9);
        let template = PromptTemplate::lookup("countries", &["capital", "population"], None);
        let keys = ["France", "Japan", "Iceland"];
        let packed = crate::batch::pack_keys(keys.iter().map(|&key| (&template, key)));
        let composite = sim.complete(&CompletionRequest::new(packed)).unwrap();
        let parts = crate::batch::split_response(&composite, keys.len());
        assert_eq!(parts.len(), keys.len());
        for (key, part) in keys.iter().zip(&parts) {
            let single = sim
                .complete(&CompletionRequest::new(template.render_key(key)))
                .unwrap();
            assert_eq!(single.text, part.text);
        }
    }

    #[test]
    fn a_packed_request_is_priced_at_its_own_token_counts() {
        let sim = perfect();
        let template = PromptTemplate::filter_check("countries", "population > 1", None);
        let keys = ["France", "Japan", "Iceland", "Peru"];
        let packed = crate::batch::pack_keys(keys.iter().map(|&key| (&template, key)));
        let response = sim
            .complete(&CompletionRequest::new(packed.as_str()))
            .unwrap();
        assert_eq!(response.prompt_tokens, count_tokens(&packed));
        let cost_model = sim.cost_model();
        assert_eq!(
            response.cost_usd,
            cost_model.request_cost_usd(response.prompt_tokens, response.completion_tokens)
        );
        // Stating the template once is what makes the request cheaper than
        // its members asked one by one.
        let singles: f64 = keys
            .iter()
            .map(|key| {
                let request = CompletionRequest::new(template.render_key(key));
                sim.complete(&request).unwrap().cost_usd
            })
            .sum();
        assert!(
            response.cost_usd < singles,
            "{} vs {singles}",
            response.cost_usd
        );
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
        let _paused = clock::pause();
        let start = clock::now();
        complete(&sim, &spec);
        assert_eq!(clock::now() - start, std::time::Duration::from_millis(20));
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
}
