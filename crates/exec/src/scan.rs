//! Scan operators: the point where the engine touches storage.
//!
//! Three physical scans exist for one logical `Scan` node:
//!
//! * [`table_scan`] — read a materialized table from `llmsql-store`
//!   (Traditional mode, and the ground-truth oracle).
//! * [`llm_scan`] — materialize a *virtual* relation by prompting the model;
//!   how exactly depends on the [`PromptStrategy`].
//! * [`hybrid_scan`] — read the materialized (but incomplete) table and fill
//!   NULL cells by prompting the model for the missing attribute values.
//!
//! # Concurrent dispatch
//!
//! Model calls dominate query latency, so every LLM-backed scan dispatches
//! its prompts in *waves* of up to [`ExecContext::scan_fanout`] concurrent
//! requests (`EngineConfig::parallelism`). There is one dispatch path: every
//! prompt of a wave — of one prompt or of sixty-four — becomes a poll-based
//! `llmsql_llm::ClientCall` and the calling thread parks on the
//! [`crate::reactor`] until the wave drains, so slot gating, single-flight
//! coalescing and mid-flight deadlines apply to every request alike. Waves
//! preserve the sequential scan's semantics exactly:
//!
//! * Prompts are planned deterministically (page offsets, tuple order), so
//!   the prompt *set* does not depend on thread interleaving; completions are
//!   reassembled in page/tuple order before any row is emitted. Same seed +
//!   same query ⇒ byte-identical rows at any parallelism.
//! * Call budgets (`max_llm_calls`) bound the wave size up front, so
//!   parallelism never issues calls a sequential run would have skipped.
//! * Pagination is speculative: a wave assumes every page comes back full.
//!   When the relation ends mid-wave, responses after the first short page
//!   are discarded. Wave sizes ramp up TCP-style (1, 2, 4, … capped at the
//!   fanout), so the extra calls a scan can issue past the end of the
//!   relation are bounded by the smaller of `parallelism - 1` and the page
//!   count the relation already served — an empty relation costs at most
//!   one call, as in a sequential run. Models that report a
//!   relation-cardinality hint (`LanguageModel::relation_cardinality`)
//!   eliminate the tail overshoot entirely: pages past the reported end are
//!   never planned, and an empty relation costs zero calls. Budget-capped
//!   scans (`LIMIT`/`max_scan_rows` reached before exhaustion) issue exactly
//!   the sequential call count. Cost accounting reports every issued call
//!   faithfully.
//!
//! # Multi-backend fan-out
//!
//! When the client wraps a `BackendPool`, the concurrent requests of one wave
//! spread across the pool's endpoints per its routing policy (round-robin
//! interleaves a wave; least-in-flight reacts to stragglers). This is
//! invisible to the wave planner: pooled backends are semantically identical
//! and failover happens inside the pool, so rows stay byte-identical and the
//! query-global call budget (`max_llm_calls`) keeps counting *logical*
//! prompts — a retried or failed-over prompt consumes exactly one unit of
//! budget no matter how many physical attempts it took.

use std::sync::Arc;
use std::time::Instant;

use llmsql_llm::prompt::TaskSpec;
use llmsql_llm::{
    pack_prompts, parse_pipe_rows, parse_value_lines, parse_yes_no, split_response, ClientCall,
    CompletionRequest, CompletionResponse, LlmClient, YesNoAnswer,
};
use llmsql_plan::BoundExpr;
use llmsql_store::Table;
use llmsql_types::{
    DataType, Error, ErrorKind, Incomplete, PromptStrategy, Result, Row, Schema, Value,
};

use crate::context::ExecContext;
use crate::eval::eval_predicate;
use crate::metrics::{InFlightGuard, SharedMetrics};
use crate::reactor::{self, Completion, DriveOutcome};
use crate::slots::CallSlots;

/// Parameters of a scan, extracted from the logical plan node. Borrows the
/// plan's data — constructing a spec allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct ScanSpec<'a> {
    /// Catalog table name.
    pub table: &'a str,
    /// Base-table schema.
    pub table_schema: &'a Schema,
    /// Filter over the base columns (pushed down by the optimizer).
    pub pushed_filter: Option<&'a BoundExpr>,
    /// Base columns that must be fetched (`None` = all).
    pub prompt_columns: Option<&'a [usize]>,
    /// Row cap pushed from a LIMIT.
    pub pushed_limit: Option<usize>,
}

impl ScanSpec<'_> {
    /// The columns the scan must actually obtain values for.
    fn needed_columns(&self) -> Vec<usize> {
        match self.prompt_columns {
            Some(cols) => cols.to_vec(),
            None => (0..self.table_schema.arity()).collect(),
        }
    }

    /// The per-scan row budget.
    fn row_budget(&self, ctx: &ExecContext) -> usize {
        self.pushed_limit
            .unwrap_or(usize::MAX)
            .min(ctx.config.max_scan_rows)
    }

    /// Render the pushed filter as SQL text for the prompt, if any (and if the
    /// engine is allowed to push predicates into prompts).
    fn prompt_filter(&self, ctx: &ExecContext) -> Option<String> {
        if !ctx.config.enable_predicate_pushdown {
            return None;
        }
        self.pushed_filter.and_then(|f| f.to_sql_text().ok())
    }

    /// The column names to request from the model (respecting projection
    /// pruning configuration).
    fn prompt_column_names(&self, ctx: &ExecContext) -> (Vec<usize>, Vec<String>, Vec<DataType>) {
        let indices = if ctx.config.enable_projection_pruning {
            self.needed_columns()
        } else {
            (0..self.table_schema.arity()).collect()
        };
        let names = indices
            .iter()
            .map(|&i| self.table_schema.columns[i].name.clone())
            .collect();
        let types = indices
            .iter()
            .map(|&i| self.table_schema.columns[i].data_type)
            .collect();
        (indices, names, types)
    }

    /// Index of the primary-key column (first column when none is marked).
    fn key_column(&self) -> usize {
        self.table_schema
            .columns
            .iter()
            .position(|c| c.primary_key)
            .unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// Wave dispatch
// ---------------------------------------------------------------------------

/// Issue one wave of prompts concurrently, returning responses in prompt
/// order. Every prompt is recorded as one LLM call of `kind` and tracked in
/// the in-flight gauge while outstanding.
///
/// The whole wave is submitted through poll-based [`ClientCall`]s and the
/// calling thread parks on the [`crate::reactor`] — one OS thread holds
/// every in-flight request of the wave, so deployment concurrency is bounded
/// by slot capacity, not thread count. Under a cross-query scheduler each
/// request additionally holds a global call slot while in flight (a
/// non-blocking `try_acquire` gate, with the wait spent parked);
/// prompt-cache hits and single-flight followers bypass the slot pool. The
/// wave is fully planned before any slot is taken, so throttling delays
/// dispatch but never changes the prompt set, the rows, or the logical call
/// count.
fn dispatch_wave(
    ctx: &ExecContext,
    client: &LlmClient,
    kind: &str,
    prompts: &[String],
) -> Vec<Result<CompletionResponse>> {
    ctx.metrics.update(|m| {
        for _ in prompts {
            m.record_llm_call(kind);
        }
    });
    dispatch_physical(ctx, client, prompts)
}

/// Dispatch a wave of one prompt (an enumeration, a one-shot full-query
/// prompt) with the accounting, slot gating, coalescing and mid-flight
/// deadline of any other wave; the prompt is recorded as one LLM call of
/// `kind`.
pub fn dispatch_one(
    ctx: &ExecContext,
    client: &LlmClient,
    kind: &str,
    prompt: String,
) -> Result<CompletionResponse> {
    dispatch_wave(ctx, client, kind, &[prompt])
        .pop()
        .expect("one prompt in, one response out")
}

/// Issue a wave of **per-tuple** prompts with tuple batching: chunks of up to
/// `EngineConfig::batch_rows_per_call` prompts are packed into one composite
/// request each, and every composite answer is split back into per-prompt
/// responses. Logical calls are recorded per *original* prompt — the budget
/// charge and `llm_calls_by_kind` are byte-identical at any batch size —
/// while the physical wave shrinks by the batch factor. Only per-tuple task
/// kinds route through here (lookups, filter checks); page-sized `row_batch`
/// prompts are already batches.
fn dispatch_wave_batched(
    ctx: &ExecContext,
    client: &LlmClient,
    kind: &str,
    prompts: &[String],
) -> Vec<Result<CompletionResponse>> {
    let rows_per_call = ctx.config.batch_rows_per_call.max(1);
    if rows_per_call <= 1 || prompts.len() <= 1 {
        return dispatch_wave(ctx, client, kind, prompts);
    }
    ctx.metrics.update(|m| {
        for _ in prompts {
            m.record_llm_call(kind);
        }
    });
    let composites: Vec<String> = prompts.chunks(rows_per_call).map(pack_prompts).collect();
    let responses = dispatch_physical(ctx, client, &composites);
    let mut out = Vec::with_capacity(prompts.len());
    for (chunk, response) in prompts.chunks(rows_per_call).zip(responses) {
        match response {
            Ok(response) => {
                if chunk.len() > 1 {
                    ctx.metrics.update(|m| m.batched_rows += chunk.len() as u64);
                }
                out.extend(split_response(&response, chunk.len()).into_iter().map(Ok));
            }
            // A failed composite fails each member identically — the same
            // per-prompt outcome independent dispatch would produce under
            // the same fault.
            Err(err) => out.extend(chunk.iter().map(|_| Err(err.clone()))),
        }
    }
    out
}

/// Where a [`WaveOp`] deposits its response: read by the dispatching thread
/// after the wave drains, written by whichever thread happens to be driving
/// the (possibly shared) reactor when the call completes.
type ResultSlot = Arc<parking_lot::Mutex<Option<Result<CompletionResponse>>>>;

/// One wave entry on the reactor: a [`ClientCall`] plus this query's
/// accounting — the in-flight gauge held for the whole flight and the
/// non-blocking slot gate with its wait measurement. Owned (`'static`) so a
/// wave can be handed to the deployment-shared reactor where another
/// query's worker may drive it.
struct WaveOp {
    metrics: SharedMetrics,
    slots: Option<Arc<CallSlots>>,
    call: ClientCall,
    _in_flight: InFlightGuard,
    /// When this op first found the slot pool saturated (the wait being
    /// accumulated toward `slot_wait_ms`).
    slot_wait_started: Option<Instant>,
    result: ResultSlot,
    done: bool,
}

impl Completion for WaveOp {
    fn poll(&mut self, now: Instant) -> bool {
        if self.done {
            return true;
        }
        let metrics = &self.metrics;
        let slots = &self.slots;
        let slot_wait_started = &mut self.slot_wait_started;
        // The admission gate: grant immediately without a pool; otherwise
        // try_acquire and account the parked wait on grant.
        let mut gate = || -> Option<Box<dyn std::any::Any + Send>> {
            let Some(slots) = slots.as_ref() else {
                return Some(Box::new(()));
            };
            match slots.try_acquire_owned() {
                Some(guard) => {
                    let waited_us = slot_wait_started
                        .take()
                        .map_or(0, |since| since.elapsed().as_micros() as u64);
                    metrics.update(|m| {
                        m.slot_waits += 1;
                        m.slot_wait_ms += waited_us as f64 / 1000.0;
                    });
                    slots.record_blocked_wait(waited_us);
                    Some(Box::new(guard))
                }
                None => {
                    slot_wait_started.get_or_insert(now);
                    None
                }
            }
        };
        let Some(result) = self.call.poll(now, &mut gate) else {
            return false;
        };
        if self.call.coalesced() {
            metrics.update(|m| m.coalesced_calls += 1);
        }
        *self.result.lock() = Some(result);
        self.done = true;
        true
    }

    fn next_wakeup(&self, now: Instant) -> Option<Instant> {
        self.call.next_wakeup(now)
    }
}

/// Dispatch an already-accounted wave: submit every prompt as a poll-based
/// call and park until the wave drains (or the query deadline fires
/// mid-wave, in which case unfinished calls are cancelled by drop and
/// reported as `DeadlineExceeded` with partial accounting). With a
/// deployment-shared reactor attached the wave joins the shared event loop —
/// one driving thread interleaves completions from every query — otherwise
/// the calling thread drives a private loop for just this wave, whose first
/// pass resolves cache hits and ready handles inline.
fn dispatch_physical(
    ctx: &ExecContext,
    client: &LlmClient,
    prompts: &[String],
) -> Vec<Result<CompletionResponse>> {
    let result_slots: Vec<ResultSlot> = prompts
        .iter()
        .map(|_| Arc::new(parking_lot::Mutex::new(None)))
        .collect();
    let ops: Vec<WaveOp> = prompts
        .iter()
        .zip(&result_slots)
        .map(|(prompt, slot)| WaveOp {
            metrics: ctx.metrics.clone(),
            slots: ctx.slots().map(Arc::clone),
            call: client.start_call(CompletionRequest::new(prompt.as_str())),
            _in_flight: ctx.metrics.track_in_flight(),
            slot_wait_started: None,
            result: Arc::clone(slot),
            done: false,
        })
        .collect();
    let outcome = if let Some(shared) = ctx.reactor() {
        shared.submit_wave(
            ops.into_iter()
                .map(|op| Box::new(op) as Box<dyn Completion + Send>)
                .collect(),
            ctx.deadline_instant(),
        )
    } else {
        let mut ops = ops;
        reactor::drive(&mut ops, ctx.deadline_instant())
    };
    debug_assert!(
        outcome == DriveOutcome::Completed || ctx.config.deadline_ms.is_some(),
        "reactor aborted without a deadline"
    );
    result_slots
        .into_iter()
        .map(|slot| {
            slot.lock()
                .take()
                .unwrap_or_else(|| Err(ctx.deadline_error()))
        })
        .collect()
}

/// LLM calls already issued for this query.
fn calls_used(ctx: &ExecContext) -> usize {
    ctx.metrics.llm_call_count() as usize
}

// ---------------------------------------------------------------------------
// Traditional scan
// ---------------------------------------------------------------------------

/// Scan a materialized table, applying the pushed filter locally.
pub fn table_scan(ctx: &ExecContext, spec: &ScanSpec<'_>, table: &Table) -> Result<Vec<Row>> {
    let mut rows = Vec::new();
    let budget = spec.row_budget(ctx);
    for row in table.scan() {
        if let Some(filter) = spec.pushed_filter {
            if eval_predicate(filter, &row)? != Some(true) {
                continue;
            }
        }
        rows.push(row);
        if rows.len() >= budget {
            break;
        }
    }
    ctx.metrics
        .update(|m| m.rows_from_store += rows.len() as u64);
    Ok(rows)
}

// ---------------------------------------------------------------------------
// LLM scan
// ---------------------------------------------------------------------------

/// Materialize a virtual relation by prompting the model.
pub fn llm_scan(ctx: &ExecContext, spec: &ScanSpec<'_>) -> Result<Vec<Row>> {
    let strategy = ctx.config.strategy;
    let rows = match strategy {
        PromptStrategy::TupleAtATime => llm_scan_tuple_at_a_time(ctx, spec, true)?,
        PromptStrategy::DecomposedOperators => llm_scan_decomposed(ctx, spec)?,
        // FullQuery is handled at the engine level; if a scan still ends up
        // here (e.g. a mixed plan), fall back to batched pagination.
        PromptStrategy::BatchedRows | PromptStrategy::FullQuery => llm_scan_batched(ctx, spec)?,
    };
    ctx.metrics.update(|m| m.rows_from_llm += rows.len() as u64);
    Ok(rows)
}

/// Page through the relation with `RowBatch` prompts, dispatching each wave
/// of pages concurrently at precomputed offsets and reassembling results in
/// page order.
fn llm_scan_batched(ctx: &ExecContext, spec: &ScanSpec<'_>) -> Result<Vec<Row>> {
    let client = ctx.require_client()?;
    let (indices, names, types) = spec.prompt_column_names(ctx);
    let filter = spec.prompt_filter(ctx);
    let budget = spec.row_budget(ctx);
    let page = ctx.config.batch_size.max(1);

    let mut rows: Vec<Row> = Vec::new();
    let mut offset = 0usize;
    let mut exhausted = false;
    // Relation-cardinality hint: when the model reports how many lines an
    // unfiltered enumeration would produce, pages at offsets past that count
    // can only come back empty — planning stops there instead of paying for
    // them. With a pushed filter the hint is still a sound upper bound (the
    // model emits at most one line per observed row), and the short-page
    // check below still detects the filtered relation's earlier end. Without
    // a hint the slow-start ramp bounds the overshoot as before.
    let cardinality_hint = client.relation_cardinality(spec.table).map(|n| n as usize);
    // Slow-start ramp: speculative pagination past the end of the relation
    // wastes calls, and before the first response nothing is known about the
    // relation's size. The first wave is a single probe page; each full wave
    // doubles the next one up to the configured fanout, so overshoot at the
    // relation's end is bounded by what the relation has already
    // demonstrated (an empty relation costs exactly 1 call, like a
    // sequential scan).
    let mut ramp = 1usize;
    // Wall-time EWMA of completed waves — the basis for deadline-aware wave
    // sizing below. `None` until the first wave lands.
    let mut wave_ewma_ms: Option<f64> = None;
    // Graceful degradation (`EngineConfig::with_partial_results`): when a
    // deadline lapses or the backend layer becomes unrecoverable mid-scan,
    // return the rows already assembled instead of discarding completed
    // work. The cut is deterministic: pages are consumed strictly in page
    // order and consumption stops at the first failed page, so the delivered
    // rows are always an exact page-aligned prefix of the full result. The
    // triggering fault and the accounting at the cut are recorded as a
    // structured `Incomplete` marker in the metrics (first cut wins).
    let cut_short = |err: &Error, rows_delivered: usize| -> bool {
        if !ctx.config.partial_results
            || !matches!(err.kind, ErrorKind::DeadlineExceeded | ErrorKind::Llm)
        {
            return false;
        }
        let marker = Incomplete {
            kind: err.kind,
            message: err.message.clone(),
            rows_delivered: rows_delivered as u64,
            calls_spent: ctx.metrics.llm_call_count(),
        };
        ctx.metrics.update(|m| {
            if m.incomplete.is_none() {
                m.incomplete = Some(marker);
            }
        });
        true
    };
    // The call cap is query-global (shared with any other scans of the same
    // query through the metrics channel), like in the other strategies.
    while !exhausted && rows.len() < budget && calls_used(ctx) < ctx.config.max_llm_calls {
        // Deadline check between waves: a query past its deadline fails
        // before planning (or paying for) another wave.
        if let Err(err) = ctx.check_deadline() {
            if cut_short(&err, rows.len()) {
                break;
            }
            return Err(err);
        }
        let call_budget = ctx.config.max_llm_calls - calls_used(ctx);
        // Plan the wave. A wave may only contain *full* pages (`limit` =
        // `page`): their prompts depend on nothing but the page offset, which
        // advances by exactly `page` while pages come back full, so they can
        // be fetched concurrently and still match a sequential run prompt-
        // for-prompt. A budget-clamped final page is different — its `limit`
        // is `budget - rows.len()`, which depends on how many rows the
        // earlier pages actually *parsed* (fidelity noise drops lines) — so
        // it is always issued alone, planned from the true row count.
        let mut wave: Vec<(usize, usize)> = Vec::new(); // (offset, want)
        let mut planned_rows = rows.len();
        let mut planned_offset = offset;
        let mut wave_cap = ctx.scan_fanout().min(ramp).min(call_budget);
        // Deadline-aware wave sizing: with the deadline less than two typical
        // waves away, shrink to a single probe page. The query never commits
        // to a wave it cannot afford — either that page finishes the scan or
        // the between-wave deadline check fires with at most one page of
        // overshoot. Pages stay full-sized and sequential, so the prompt set
        // (and with it rows and logical calls) is unchanged; only how many
        // pages fly concurrently is.
        if let (Some(deadline), Some(est_ms)) = (ctx.deadline_instant(), wave_ewma_ms) {
            let remaining_ms = deadline
                .saturating_duration_since(reactor::now())
                .as_secs_f64()
                * 1000.0;
            if remaining_ms < est_ms * 2.0 {
                wave_cap = 1;
            }
        }
        while wave.len() < wave_cap && planned_rows < budget {
            if cardinality_hint.is_some_and(|n| planned_offset >= n) {
                break;
            }
            let remaining = budget - planned_rows;
            if remaining < page {
                // Budget-clamped page: speculation about earlier pages'
                // parsed counts would leak into its prompt. Issue it alone
                // (wave of one, planned from actual state) or after the
                // current wave of full pages drains.
                if wave.is_empty() {
                    wave.push((planned_offset, remaining));
                }
                break;
            }
            wave.push((planned_offset, page));
            planned_rows += page;
            planned_offset += page;
        }
        if wave.is_empty() {
            // The hint capped planning at the relation's end: nothing left
            // to fetch (an empty relation costs zero calls).
            break;
        }
        let prompts: Vec<String> = wave
            .iter()
            .map(|&(page_offset, want)| {
                TaskSpec::RowBatch {
                    table: spec.table.to_string(),
                    columns: names.clone(),
                    filter: filter.clone(),
                    limit: want,
                    offset: page_offset,
                }
                .to_prompt(Some(spec.table_schema))
            })
            .collect();
        let wave_started = reactor::now();
        let responses = dispatch_wave(ctx, client, "row_batch", &prompts);
        let wave_ms = wave_started.elapsed().as_secs_f64() * 1000.0;
        wave_ewma_ms = Some(wave_ewma_ms.map_or(wave_ms, |prev| 0.7 * prev + 0.3 * wave_ms));

        for (&(page_offset, want), response) in wave.iter().zip(responses) {
            let response = match response {
                Ok(response) => response,
                Err(err) => {
                    // Pages before this one were already consumed in order;
                    // stopping here keeps the delivered rows an exact
                    // page-aligned prefix.
                    if cut_short(&err, rows.len()) {
                        exhausted = true;
                        break;
                    }
                    return Err(err);
                }
            };
            let parsed = parse_pipe_rows(&response.text, &types);
            ctx.metrics
                .update(|m| m.dropped_lines += parsed.dropped_lines as u64);
            // Lines the model produced for this page, whether or not they
            // parsed: the relation is only exhausted when the model had fewer
            // rows to say than we asked for, not when some lines were
            // malformed. A backend that disobeys the prompt and emits *more*
            // lines than requested is clamped to the requested page size —
            // later pages were (or will be) dispatched at offsets assuming at
            // most `want` lines per page, so consuming overshoot here would
            // duplicate rows and desynchronize pagination.
            let got_lines = (parsed.rows.len() + parsed.dropped_lines).min(want);
            for partial in parsed.rows.into_iter().take(want) {
                rows.push(widen_row(&indices, partial, spec.table_schema.arity()));
                if rows.len() >= budget {
                    break;
                }
            }
            if got_lines < want {
                // End of relation: later pages in this wave were speculative
                // fetches past the end — discard them.
                exhausted = true;
                break;
            }
            offset = page_offset + got_lines;
            if rows.len() >= budget {
                break;
            }
        }
        if !exhausted {
            ramp = (ramp * 2).min(ctx.scan_fanout().max(1));
        }
    }
    if !ctx.config.enable_predicate_pushdown {
        apply_local_filter(spec, &mut rows)?;
    }
    Ok(rows)
}

/// Enumerate keys, then one `Lookup` prompt per entity; lookups for distinct
/// entities are independent and dispatched in concurrent waves.
fn llm_scan_tuple_at_a_time(
    ctx: &ExecContext,
    spec: &ScanSpec<'_>,
    push_filter_into_enumeration: bool,
) -> Result<Vec<Row>> {
    let client = ctx.require_client()?;
    let (indices, names, _types) = spec.prompt_column_names(ctx);
    let budget = spec.row_budget(ctx);
    let key_idx = spec.key_column();
    let key_name = spec.table_schema.columns[key_idx].name.clone();
    let key_type = spec.table_schema.columns[key_idx].data_type;

    // 1. Enumerate entity keys.
    ctx.check_deadline()?;
    let filter = if push_filter_into_enumeration {
        spec.prompt_filter(ctx)
    } else {
        None
    };
    let enumerate = TaskSpec::Enumerate {
        table: spec.table.to_string(),
        filter,
        limit: budget,
        offset: 0,
    };
    let response = dispatch_one(
        ctx,
        client,
        enumerate.kind(),
        enumerate.to_prompt(Some(spec.table_schema)),
    )?;
    let keys = parse_value_lines(&response.text, key_type);
    ctx.metrics
        .update(|m| m.dropped_lines += keys.dropped_lines as u64);
    let keys: Vec<Value> = keys
        .rows
        .into_iter()
        .take(budget)
        .map(|row| row.get(0).clone())
        .collect();

    // 2. One lookup per entity for the remaining columns.
    let other_names: Vec<String> = names.iter().filter(|n| **n != key_name).cloned().collect();
    let other_types: Vec<DataType> = indices
        .iter()
        .zip(&names)
        .filter(|(_, n)| **n != key_name)
        .map(|(&i, _)| spec.table_schema.columns[i].data_type)
        .collect();

    let mut rows = Vec::new();
    if other_names.is_empty() {
        // Key-only projection: no lookups needed; the call-budget check is
        // kept for parity with the per-lookup path (and hoisted — the loop
        // itself issues no calls).
        if calls_used(ctx) < ctx.config.max_llm_calls {
            for key in keys {
                let mut full = vec![Value::Null; spec.table_schema.arity()];
                full[key_idx] = key;
                rows.push(Row::new(full));
            }
        }
    } else {
        let mut cursor = 0;
        while cursor < keys.len() {
            ctx.check_deadline()?;
            let call_budget = ctx.config.max_llm_calls.saturating_sub(calls_used(ctx));
            if call_budget == 0 {
                break;
            }
            let wave_len = (keys.len() - cursor)
                .min(ctx.scan_fanout())
                .min(call_budget);
            let wave_keys = &keys[cursor..cursor + wave_len];
            let prompts: Vec<String> = wave_keys
                .iter()
                .map(|key| {
                    TaskSpec::Lookup {
                        table: spec.table.to_string(),
                        key: key.to_display_string(),
                        columns: other_names.clone(),
                    }
                    .to_prompt(Some(spec.table_schema))
                })
                .collect();
            let responses = dispatch_wave_batched(ctx, client, "lookup", &prompts);
            for (key, response) in wave_keys.iter().zip(responses) {
                let response = response?;
                let parsed = parse_pipe_rows(&response.text, &other_types);
                ctx.metrics
                    .update(|m| m.dropped_lines += parsed.dropped_lines as u64);
                let mut full = vec![Value::Null; spec.table_schema.arity()];
                full[key_idx] = key.clone();
                if let Some(values) = parsed.rows.into_iter().next() {
                    let mut vi = 0;
                    for (&idx, name) in indices.iter().zip(&names) {
                        if *name == key_name {
                            continue;
                        }
                        full[idx] = values.get(vi).clone();
                        vi += 1;
                    }
                }
                rows.push(Row::new(full));
            }
            cursor += wave_len;
        }
    }

    // The per-tuple strategy re-checks the predicate locally: it has the
    // attribute values in hand, so it does not need to trust the model's
    // filtering.
    apply_local_filter(spec, &mut rows)?;
    Ok(rows)
}

/// Decomposed-operator strategy: enumerate + lookups *without* pushing the
/// predicate, then a `FilterCheck` prompt per candidate row, dispatched in
/// concurrent waves.
fn llm_scan_decomposed(ctx: &ExecContext, spec: &ScanSpec<'_>) -> Result<Vec<Row>> {
    let client = ctx.require_client()?;
    // Materialize without the filter so the filter becomes its own operator.
    let unfiltered_spec = ScanSpec {
        pushed_filter: None,
        ..*spec
    };
    let rows = llm_scan_tuple_at_a_time(ctx, &unfiltered_spec, false)?;
    let Some(filter) = spec.pushed_filter else {
        return Ok(rows);
    };
    let Ok(condition) = filter.to_sql_text() else {
        // Not renderable (should not happen) — fall back to local evaluation.
        let mut rows = rows;
        apply_local_filter(spec, &mut rows)?;
        return Ok(rows);
    };
    let key_idx = spec.key_column();

    let mut slots: Vec<Option<Row>> = rows.into_iter().map(Some).collect();
    let mut kept = Vec::new();
    let mut cursor = 0;
    while cursor < slots.len() {
        ctx.check_deadline()?;
        let call_budget = ctx.config.max_llm_calls.saturating_sub(calls_used(ctx));
        if call_budget == 0 {
            break;
        }
        let wave_len = (slots.len() - cursor)
            .min(ctx.scan_fanout())
            .min(call_budget);
        let prompts: Vec<String> = slots[cursor..cursor + wave_len]
            .iter()
            .map(|row| {
                TaskSpec::FilterCheck {
                    table: spec.table.to_string(),
                    key: row
                        .as_ref()
                        .expect("unconsumed slot")
                        .get(key_idx)
                        .to_display_string(),
                    condition: condition.clone(),
                }
                .to_prompt(Some(spec.table_schema))
            })
            .collect();
        let responses = dispatch_wave_batched(ctx, client, "filter_check", &prompts);
        for (i, response) in responses.into_iter().enumerate() {
            let response = response?;
            if parse_yes_no(&response.text) == YesNoAnswer::Yes {
                kept.push(slots[cursor + i].take().expect("unconsumed slot"));
            }
        }
        cursor += wave_len;
    }
    Ok(kept)
}

// ---------------------------------------------------------------------------
// Hybrid scan
// ---------------------------------------------------------------------------

/// Read a materialized (incomplete) table and fill NULL cells in the needed
/// columns by asking the model. Fill lookups for distinct rows are
/// independent and dispatched in concurrent waves.
pub fn hybrid_scan(ctx: &ExecContext, spec: &ScanSpec<'_>, table: &Table) -> Result<Vec<Row>> {
    let client = ctx.require_client()?;
    let (indices, _names, _types) = spec.prompt_column_names(ctx);
    let key_idx = spec.key_column();
    let budget = spec.row_budget(ctx);

    let missing_in = |row: &Row| -> Vec<usize> {
        indices
            .iter()
            .copied()
            .filter(|&i| row.get(i).is_null() && i != key_idx)
            .collect()
    };

    let mut all_rows: Vec<Row> = table.scan();
    let mut rows = Vec::new();
    let mut cursor = 0;
    'segments: while cursor < all_rows.len() && rows.len() < budget {
        ctx.check_deadline()?;
        // Collect a segment: consecutive rows containing at most one wave's
        // worth of fill lookups. With the call budget exhausted, remaining
        // rows pass through unfilled (as in a sequential run). The segment
        // never spans more rows than the remaining row budget: a sequential
        // scan stops issuing lookups once `budget` rows are emitted, so
        // planning fills past that point would pay for lookups a sequential
        // run never makes (rows filtered out along the way only make the
        // scan continue into a *later* segment, never skip a lookup).
        let wave_cap = ctx
            .config
            .max_llm_calls
            .saturating_sub(calls_used(ctx))
            .min(ctx.scan_fanout());
        let seg_cap = cursor + (budget - rows.len());
        let mut seg_end = cursor;
        let mut lookups: Vec<(usize, Vec<usize>)> = Vec::new(); // (row index, missing cols)
        while seg_end < all_rows.len() && seg_end < seg_cap {
            let missing = missing_in(&all_rows[seg_end]);
            if !missing.is_empty() && wave_cap > 0 {
                if lookups.len() == wave_cap {
                    break;
                }
                lookups.push((seg_end, missing));
            }
            seg_end += 1;
        }

        let prompts: Vec<String> = lookups
            .iter()
            .map(|(row_idx, missing)| {
                TaskSpec::Lookup {
                    table: spec.table.to_string(),
                    key: all_rows[*row_idx].get(key_idx).to_display_string(),
                    columns: missing
                        .iter()
                        .map(|&i| spec.table_schema.columns[i].name.clone())
                        .collect(),
                }
                .to_prompt(Some(spec.table_schema))
            })
            .collect();
        let responses = dispatch_wave_batched(ctx, client, "lookup", &prompts);

        // Apply fills in row order.
        for ((row_idx, missing), response) in lookups.iter().zip(responses) {
            let response = response?;
            let types: Vec<DataType> = missing
                .iter()
                .map(|&i| spec.table_schema.columns[i].data_type)
                .collect();
            let parsed = parse_pipe_rows(&response.text, &types);
            ctx.metrics
                .update(|m| m.dropped_lines += parsed.dropped_lines as u64);
            if let Some(values) = parsed.rows.into_iter().next() {
                let row = &mut all_rows[*row_idx];
                for (vi, &col) in missing.iter().enumerate() {
                    let v = values.get(vi).clone();
                    if !v.is_null() {
                        row.set(col, v);
                        ctx.metrics.update(|m| m.cells_filled_by_llm += 1);
                    }
                }
            }
        }

        // Emit the segment's rows in order, applying the pushed filter.
        for slot in &mut all_rows[cursor..seg_end] {
            let row = std::mem::replace(slot, Row::empty());
            if let Some(filter) = spec.pushed_filter {
                if eval_predicate(filter, &row)? != Some(true) {
                    continue;
                }
            }
            rows.push(row);
            if rows.len() >= budget {
                break 'segments;
            }
        }
        cursor = seg_end;
    }
    ctx.metrics
        .update(|m| m.rows_from_store += rows.len() as u64);
    Ok(rows)
}

// ---------------------------------------------------------------------------

/// Expand a row containing only the prompt columns into the full base arity,
/// filling non-requested columns with NULL.
fn widen_row(indices: &[usize], partial: Row, arity: usize) -> Row {
    let mut full = vec![Value::Null; arity];
    for (vi, &idx) in indices.iter().enumerate() {
        full[idx] = partial.get(vi).clone();
    }
    Row::new(full)
}

/// Apply the pushed filter locally (rows with missing evidence are kept out
/// only when the predicate definitively fails — NULL-tolerant).
fn apply_local_filter(spec: &ScanSpec<'_>, rows: &mut Vec<Row>) -> Result<()> {
    if let Some(filter) = spec.pushed_filter {
        let mut out = Vec::with_capacity(rows.len());
        for row in rows.drain(..) {
            if eval_predicate(filter, &row)? == Some(true) {
                out.push(row);
            }
        }
        *rows = out;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsql_llm::{KnowledgeBase, LlmClient, SimLlm};
    use llmsql_store::Catalog;
    use llmsql_types::{Column, EngineConfig, ExecutionMode, LlmFidelity};
    use std::sync::Arc;

    fn country_schema() -> Schema {
        Schema::virtual_table(
            "countries",
            vec![
                Column::new("name", DataType::Text).primary_key(),
                Column::new("region", DataType::Text),
                Column::new("population", DataType::Int),
            ],
        )
    }

    fn world_rows() -> Vec<Row> {
        [
            ("France", "Europe", 68),
            ("Germany", "Europe", 84),
            ("Japan", "Asia", 125),
            ("Peru", "Americas", 34),
            ("Kenya", "Africa", 54),
        ]
        .iter()
        .map(|(n, r, p)| Row::new(vec![(*n).into(), (*r).into(), Value::Int(*p)]))
        .collect()
    }

    fn context(strategy: PromptStrategy, fidelity: LlmFidelity) -> ExecContext {
        let mut kb = KnowledgeBase::new();
        kb.add_table(country_schema(), world_rows());
        let sim = SimLlm::new(kb.into_shared(), fidelity, 7);
        let client = LlmClient::new(Arc::new(sim));
        let catalog = Catalog::new();
        catalog.create_virtual_table(country_schema()).unwrap();
        let config = EngineConfig::default()
            .with_mode(ExecutionMode::LlmOnly)
            .with_strategy(strategy)
            .with_batch_size(2);
        ExecContext::new(catalog, Some(client), config)
    }

    /// Owns the borrowed parts of a [`ScanSpec`] for tests.
    struct SpecParts {
        schema: Schema,
        filter: Option<BoundExpr>,
        prompt_columns: Option<Vec<usize>>,
        pushed_limit: Option<usize>,
    }

    fn parts(filter: Option<BoundExpr>, prompt_columns: Option<Vec<usize>>) -> SpecParts {
        SpecParts {
            schema: country_schema(),
            filter,
            prompt_columns,
            pushed_limit: None,
        }
    }

    impl SpecParts {
        fn spec(&self) -> ScanSpec<'_> {
            ScanSpec {
                table: "countries",
                table_schema: &self.schema,
                pushed_filter: self.filter.as_ref(),
                prompt_columns: self.prompt_columns.as_deref(),
                pushed_limit: self.pushed_limit,
            }
        }
    }

    fn gt_filter(population: i64) -> BoundExpr {
        BoundExpr::Binary {
            left: Box::new(BoundExpr::col(2, "population", DataType::Int)),
            op: llmsql_sql::ast::BinaryOp::Gt,
            right: Box::new(BoundExpr::lit(population)),
        }
    }

    #[test]
    fn batched_scan_pages_through_table() {
        let ctx = context(PromptStrategy::BatchedRows, LlmFidelity::perfect());
        let rows = llm_scan(&ctx, &parts(None, None).spec()).unwrap();
        assert_eq!(rows.len(), 5);
        let m = ctx.metrics.snapshot();
        // page size 2 over 5 rows: at least 3 calls
        assert!(m.llm_calls_by_kind["row_batch"] >= 3);
        assert_eq!(m.rows_from_llm, 5);
    }

    #[test]
    fn batched_scan_with_filter_and_pruning() {
        let ctx = context(PromptStrategy::BatchedRows, LlmFidelity::perfect());
        let rows = llm_scan(&ctx, &parts(Some(gt_filter(60)), Some(vec![0, 2])).spec()).unwrap();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            // pruned column (region) is NULL
            assert!(r.get(1).is_null());
            assert!(r.get(2).as_int().unwrap() > 60);
        }
    }

    #[test]
    fn tuple_strategy_issues_lookup_per_row() {
        let ctx = context(PromptStrategy::TupleAtATime, LlmFidelity::perfect());
        let rows = llm_scan(&ctx, &parts(Some(gt_filter(60)), None).spec()).unwrap();
        assert_eq!(rows.len(), 3);
        let m = ctx.metrics.snapshot();
        assert_eq!(m.llm_calls_by_kind["enumerate"], 1);
        assert!(m.llm_calls_by_kind["lookup"] >= 3);
    }

    #[test]
    fn decomposed_strategy_uses_filter_checks() {
        let ctx = context(PromptStrategy::DecomposedOperators, LlmFidelity::perfect());
        let rows = llm_scan(&ctx, &parts(Some(gt_filter(60)), None).spec()).unwrap();
        assert_eq!(rows.len(), 3);
        let m = ctx.metrics.snapshot();
        assert_eq!(m.llm_calls_by_kind["filter_check"], 5);
    }

    #[test]
    fn pushed_limit_caps_rows_and_calls() {
        let ctx = context(PromptStrategy::BatchedRows, LlmFidelity::perfect());
        let mut p = parts(None, None);
        p.pushed_limit = Some(2);
        let rows = llm_scan(&ctx, &p.spec()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(ctx.metrics.snapshot().llm_calls(), 1);
    }

    #[test]
    fn max_scan_rows_is_respected() {
        let mut ctx = context(PromptStrategy::BatchedRows, LlmFidelity::perfect());
        ctx.config.max_scan_rows = 3;
        let rows = llm_scan(&ctx, &parts(None, None).spec()).unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn budget_clamped_scan_under_noise_matches_sequential() {
        // Regression: a row budget close to the table size makes the final
        // page's `limit` depend on how many rows earlier pages *parsed*.
        // With fidelity noise dropping lines, an optimistic wave planner
        // would issue that page with a speculated limit (a different prompt
        // than sequential), changing both results and call counts. Waves
        // must therefore contain only full pages and issue clamped pages
        // alone.
        let big_schema = Schema::virtual_table(
            "countries",
            vec![
                Column::new("name", DataType::Text).primary_key(),
                Column::new("region", DataType::Text),
                Column::new("population", DataType::Int),
            ],
        );
        let big_rows: Vec<Row> = (0..60)
            .map(|i| {
                Row::new(vec![
                    Value::Text(format!("Country {i:04}")),
                    Value::Text("Europe".into()),
                    Value::Int(1000 + i64::from(i)),
                ])
            })
            .collect();
        let context_with = |parallelism: usize| {
            let mut kb = KnowledgeBase::new();
            kb.add_table(big_schema.clone(), big_rows.clone());
            let sim = SimLlm::new(kb.into_shared(), LlmFidelity::medium(), 7);
            let catalog = Catalog::new();
            catalog.create_virtual_table(big_schema.clone()).unwrap();
            let mut config = EngineConfig::default()
                .with_mode(ExecutionMode::LlmOnly)
                .with_strategy(PromptStrategy::BatchedRows)
                .with_batch_size(5)
                .with_parallelism(parallelism);
            config.max_scan_rows = 12;
            ExecContext::new(catalog, Some(LlmClient::new(Arc::new(sim))), config)
        };
        let p = parts(None, None);
        let seq_ctx = context_with(1);
        let expected = llm_scan(&seq_ctx, &p.spec()).unwrap();
        let expected_calls = seq_ctx.metrics.snapshot().llm_calls();
        for parallelism in [4, 8] {
            let ctx = context_with(parallelism);
            let got = llm_scan(&ctx, &p.spec()).unwrap();
            assert_eq!(expected, got, "rows diverged at parallelism {parallelism}");
            assert_eq!(
                expected_calls,
                ctx.metrics.snapshot().llm_calls(),
                "call count diverged at parallelism {parallelism}"
            );
        }
    }

    #[test]
    fn cardinality_hint_eliminates_tail_overshoot() {
        // 20 rows at page size 5 is an exact multiple: without a hint the
        // scan must probe past the end (a sequential run pays 1 extra empty
        // page; a ramped wave can pay more). The simulator reports its
        // observed cardinality, so planning stops at page 4 exactly — same
        // rows, minimal calls, at any parallelism.
        let schema = country_schema();
        let rows_20: Vec<Row> = (0..20)
            .map(|i| {
                Row::new(vec![
                    Value::Text(format!("Country {i:02}")),
                    Value::Text("Europe".into()),
                    Value::Int(100 + i64::from(i)),
                ])
            })
            .collect();
        let context_with = |parallelism: usize| {
            let mut kb = KnowledgeBase::new();
            kb.add_table(schema.clone(), rows_20.clone());
            let sim = SimLlm::new(kb.into_shared(), LlmFidelity::perfect(), 7);
            let catalog = Catalog::new();
            catalog.create_virtual_table(schema.clone()).unwrap();
            let config = EngineConfig::default()
                .with_mode(ExecutionMode::LlmOnly)
                .with_strategy(PromptStrategy::BatchedRows)
                .with_batch_size(5)
                .with_parallelism(parallelism);
            ExecContext::new(catalog, Some(LlmClient::new(Arc::new(sim))), config)
        };
        let p = SpecParts {
            schema: country_schema(),
            filter: None,
            prompt_columns: None,
            pushed_limit: None,
        };
        let seq_ctx = context_with(1);
        let expected = llm_scan(&seq_ctx, &p.spec()).unwrap();
        assert_eq!(expected.len(), 20);
        assert_eq!(
            seq_ctx.metrics.snapshot().llm_calls(),
            4,
            "hint should stop the sequential scan at exactly 4 full pages"
        );
        for parallelism in [4, 8] {
            let ctx = context_with(parallelism);
            let got = llm_scan(&ctx, &p.spec()).unwrap();
            assert_eq!(expected, got, "rows diverged at parallelism {parallelism}");
            assert_eq!(
                ctx.metrics.snapshot().llm_calls(),
                4,
                "ramped wave overshot the hinted end at parallelism {parallelism}"
            );
        }
    }

    #[test]
    fn cardinality_hint_makes_empty_relations_free() {
        let schema = country_schema();
        let mut kb = KnowledgeBase::new();
        kb.add_table(schema.clone(), Vec::new());
        let sim = SimLlm::new(kb.into_shared(), LlmFidelity::perfect(), 7);
        let catalog = Catalog::new();
        catalog.create_virtual_table(schema).unwrap();
        let config = EngineConfig::default()
            .with_mode(ExecutionMode::LlmOnly)
            .with_strategy(PromptStrategy::BatchedRows)
            .with_batch_size(5);
        let ctx = ExecContext::new(catalog, Some(LlmClient::new(Arc::new(sim))), config);
        let rows = llm_scan(&ctx, &parts(None, None).spec()).unwrap();
        assert!(rows.is_empty());
        assert_eq!(ctx.metrics.snapshot().llm_calls(), 0);
    }

    #[test]
    fn lapsed_deadline_fails_the_scan_unless_partial_results_are_on() {
        // Already-lapsed deadline: the strict path fails before paying for a
        // wave; with partial results on, the scan degrades to an empty
        // prefix plus a structured marker instead.
        let mut strict = context(PromptStrategy::BatchedRows, LlmFidelity::perfect());
        strict.config.deadline_ms = Some(0.0);
        let err = llm_scan(&strict, &parts(None, None).spec()).unwrap_err();
        assert_eq!(err.kind, ErrorKind::DeadlineExceeded);

        let mut graceful = context(PromptStrategy::BatchedRows, LlmFidelity::perfect());
        graceful.config.deadline_ms = Some(0.0);
        graceful.config.partial_results = true;
        let rows = llm_scan(&graceful, &parts(None, None).spec()).unwrap();
        assert!(rows.is_empty());
        let marker = graceful.metrics.snapshot().incomplete.unwrap();
        assert_eq!(marker.kind, ErrorKind::DeadlineExceeded);
        assert_eq!(marker.rows_delivered, 0);
        assert_eq!(marker.calls_spent, 0);
    }

    #[test]
    fn backend_failure_mid_scan_degrades_to_a_page_aligned_prefix() {
        use llmsql_llm::CompletionResponse as Resp;
        use std::sync::atomic::{AtomicU64, Ordering};
        /// Serves the first `healthy_calls` completions, then goes hard down
        /// — a deterministic mid-scan backend loss.
        struct DiesAfter {
            inner: Arc<dyn llmsql_llm::LanguageModel>,
            healthy_calls: u64,
            served: AtomicU64,
        }
        impl llmsql_llm::LanguageModel for DiesAfter {
            fn name(&self) -> String {
                "dies-after".into()
            }
            fn complete(&self, request: &CompletionRequest) -> llmsql_types::Result<Resp> {
                // ordering: SeqCst — the test needs exactly healthy_calls
                // successes across racing callers; total order is the point.
                if self.served.fetch_add(1, Ordering::SeqCst) < self.healthy_calls {
                    self.inner.complete(request)
                } else {
                    Err(Error::llm("backend lost mid-scan"))
                }
            }
            fn fingerprint(&self) -> String {
                self.inner.fingerprint()
            }
        }
        let scan_with = |partial: bool| {
            let mut kb = KnowledgeBase::new();
            kb.add_table(country_schema(), world_rows());
            let sim = SimLlm::new(kb.into_shared(), LlmFidelity::perfect(), 7);
            let model = DiesAfter {
                inner: Arc::new(sim),
                healthy_calls: 1,
                served: AtomicU64::new(0),
            };
            let catalog = Catalog::new();
            catalog.create_virtual_table(country_schema()).unwrap();
            let mut config = EngineConfig::default()
                .with_mode(ExecutionMode::LlmOnly)
                .with_strategy(PromptStrategy::BatchedRows)
                .with_batch_size(2);
            config.partial_results = partial;
            let ctx = ExecContext::new(
                Catalog::clone(&catalog),
                Some(LlmClient::new(Arc::new(model))),
                config,
            );
            (llm_scan(&ctx, &parts(None, None).spec()), ctx)
        };
        // Strict: the mid-scan loss fails the whole query.
        let (strict, _) = scan_with(false);
        assert_eq!(strict.unwrap_err().kind, ErrorKind::Llm);
        // Graceful: the first page (2 rows — an exact page-aligned prefix)
        // survives, with the fault recorded in the marker.
        let (graceful, ctx) = scan_with(true);
        let rows = graceful.unwrap();
        assert_eq!(rows.len(), 2, "prefix must be the completed first page");
        let marker = ctx.metrics.snapshot().incomplete.unwrap();
        assert_eq!(marker.kind, ErrorKind::Llm);
        assert_eq!(marker.rows_delivered, 2);
        assert!(marker.calls_spent >= 2, "both issued calls are accounted");
        assert!(marker.message.contains("backend lost mid-scan"));
    }

    #[test]
    fn slot_pool_throttles_dispatch_without_changing_results() {
        use crate::slots::CallSlots;
        let p = parts(None, None);
        let free_ctx = context(PromptStrategy::BatchedRows, LlmFidelity::medium());
        let expected = llm_scan(&free_ctx, &p.spec()).unwrap();
        let expected_calls = free_ctx.metrics.snapshot().llm_calls();

        let slots = Arc::new(CallSlots::new(2));
        let mut throttled_ctx = context(PromptStrategy::BatchedRows, LlmFidelity::medium());
        throttled_ctx.config.parallelism = 8;
        let throttled_ctx = throttled_ctx.with_slots(Arc::clone(&slots));
        let got = llm_scan(&throttled_ctx, &p.spec()).unwrap();
        assert_eq!(expected, got, "slot throttling changed scan output");
        let m = throttled_ctx.metrics.snapshot();
        assert_eq!(expected_calls, m.llm_calls());
        assert_eq!(m.slot_waits, m.llm_calls(), "every dispatch takes a slot");
        assert!(slots.peak_in_use() <= 2, "slot cap exceeded");
        assert!(slots.peak_in_use() >= 1);
    }

    #[test]
    fn expired_deadline_fails_scans_with_partial_accounting() {
        for strategy in [
            PromptStrategy::BatchedRows,
            PromptStrategy::TupleAtATime,
            PromptStrategy::DecomposedOperators,
        ] {
            let mut ctx = context(strategy, LlmFidelity::perfect());
            ctx.config.deadline_ms = Some(2.0);
            std::thread::sleep(std::time::Duration::from_millis(5));
            let err = llm_scan(&ctx, &parts(None, None).spec()).unwrap_err();
            assert_eq!(
                err.kind,
                llmsql_types::ErrorKind::DeadlineExceeded,
                "{strategy:?}"
            );
            // Partial accounting: the scan failed before its first wave, so
            // zero calls were issued — and the error says so.
            assert!(err.message.contains("0 LLM call(s) issued"), "{err}");
            assert_eq!(ctx.metrics.snapshot().llm_calls(), 0, "{strategy:?}");
        }
    }

    #[test]
    fn unhit_deadline_leaves_scans_byte_identical() {
        let p = parts(None, None);
        let free_ctx = context(PromptStrategy::BatchedRows, LlmFidelity::medium());
        let expected = llm_scan(&free_ctx, &p.spec()).unwrap();
        let mut deadline_ctx = context(PromptStrategy::BatchedRows, LlmFidelity::medium());
        deadline_ctx.config.deadline_ms = Some(60_000.0);
        let got = llm_scan(&deadline_ctx, &p.spec()).unwrap();
        assert_eq!(expected, got, "an unhit deadline changed scan output");
        assert_eq!(
            free_ctx.metrics.snapshot().llm_calls(),
            deadline_ctx.metrics.snapshot().llm_calls()
        );
    }

    #[test]
    fn max_llm_calls_caps_waves() {
        for parallelism in [1, 4] {
            let mut ctx = context(PromptStrategy::TupleAtATime, LlmFidelity::perfect());
            ctx.config.parallelism = parallelism;
            // 1 enumerate + at most 2 lookups.
            ctx.config.max_llm_calls = 3;
            let rows = llm_scan(&ctx, &parts(None, None).spec()).unwrap();
            assert_eq!(rows.len(), 2, "parallelism {parallelism}");
            assert_eq!(ctx.metrics.snapshot().llm_calls(), 3);
        }
    }

    #[test]
    fn batched_call_cap_is_query_global() {
        // Two consecutive batched scans in the same query context share one
        // max_llm_calls budget: the second scan gets only what the first
        // left over.
        for parallelism in [1, 4] {
            let mut ctx = context(PromptStrategy::BatchedRows, LlmFidelity::perfect());
            ctx.config.parallelism = parallelism;
            ctx.config.max_llm_calls = 4;
            let p = parts(None, None);
            let first = llm_scan(&ctx, &p.spec()).unwrap();
            // 5 rows at page size 2: the relation needs 3 calls to drain.
            assert_eq!(first.len(), 5, "parallelism {parallelism}");
            let second = llm_scan(&ctx, &p.spec()).unwrap();
            assert!(
                second.len() <= 2,
                "parallelism {parallelism}: second scan exceeded the shared budget"
            );
            assert!(ctx.metrics.snapshot().llm_calls() <= 4);
        }
    }

    #[test]
    fn table_scan_applies_filter_locally() {
        let catalog = Catalog::new();
        let schema = Schema::new(
            "countries",
            vec![
                Column::new("name", DataType::Text).primary_key(),
                Column::new("region", DataType::Text),
                Column::new("population", DataType::Int),
            ],
        );
        let table = catalog.create_table(schema).unwrap();
        table.insert_many(world_rows()).unwrap();
        let ctx = ExecContext::new(catalog, None, EngineConfig::default());
        let p = parts(Some(gt_filter(60)), None);
        let rows = table_scan(&ctx, &p.spec(), &table).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(ctx.metrics.snapshot().rows_from_store, 3);
    }

    fn hybrid_fixture() -> (ExecContext, Table) {
        let catalog = Catalog::new();
        let schema = Schema::new(
            "countries",
            vec![
                Column::new("name", DataType::Text).primary_key(),
                Column::new("region", DataType::Text),
                Column::new("population", DataType::Int),
            ],
        );
        let table = catalog.create_table(schema).unwrap();
        table
            .insert_many(vec![
                Row::new(vec!["France".into(), "Europe".into(), Value::Null]),
                Row::new(vec!["Japan".into(), Value::Null, Value::Int(125)]),
            ])
            .unwrap();

        let mut kb = KnowledgeBase::new();
        kb.add_table(country_schema(), world_rows());
        let client = LlmClient::new(Arc::new(SimLlm::new(
            kb.into_shared(),
            LlmFidelity::perfect(),
            3,
        )));
        let ctx = ExecContext::new(
            catalog,
            Some(client),
            EngineConfig::default().with_mode(ExecutionMode::Hybrid),
        );
        (ctx, table)
    }

    #[test]
    fn hybrid_scan_fills_nulls() {
        // Store with some NULL populations; the model knows the truth.
        let (ctx, table) = hybrid_fixture();
        let p = parts(None, None);
        let rows = hybrid_scan(&ctx, &p.spec(), &table).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get(2), &Value::Int(68));
        assert_eq!(rows[1].get(1), &Value::Text("Asia".into()));
        let m = ctx.metrics.snapshot();
        assert_eq!(m.cells_filled_by_llm, 2);
        assert_eq!(m.llm_calls_by_kind["lookup"], 2);
    }

    #[test]
    fn hybrid_scan_stops_filling_at_row_budget() {
        // Regression: a pushed LIMIT must stop fill lookups exactly where a
        // sequential row-at-a-time scan would — planning fills for rows past
        // the budget pays for calls that are never needed.
        for parallelism in [1, 8] {
            let (mut ctx, table) = hybrid_fixture();
            ctx.config.parallelism = parallelism;
            let mut p = parts(None, None);
            // Both stored rows have a missing cell, but only the first is
            // within the budget.
            p.pushed_limit = Some(1);
            let rows = hybrid_scan(&ctx, &p.spec(), &table).unwrap();
            assert_eq!(rows.len(), 1);
            assert_eq!(
                ctx.metrics.snapshot().llm_calls(),
                1,
                "parallelism {parallelism} issued lookups past the row budget"
            );
        }
    }

    #[test]
    fn hybrid_scan_parallel_matches_sequential() {
        let (seq_ctx, seq_table) = hybrid_fixture();
        let p = parts(None, None);
        let expected = hybrid_scan(&seq_ctx, &p.spec(), &seq_table).unwrap();

        let (mut par_ctx, par_table) = hybrid_fixture();
        par_ctx.config.parallelism = 4;
        let got = hybrid_scan(&par_ctx, &p.spec(), &par_table).unwrap();
        assert_eq!(expected, got);
        assert_eq!(
            seq_ctx.metrics.snapshot().llm_calls(),
            par_ctx.metrics.snapshot().llm_calls()
        );
    }

    #[test]
    fn weak_model_loses_rows() {
        let ctx = context(PromptStrategy::BatchedRows, LlmFidelity::weak());
        let rows = llm_scan(&ctx, &parts(None, None).spec()).unwrap();
        // The weak model forgets entities and mangles lines: strictly fewer
        // than or equal to the real 5, and deterministic for the seed.
        assert!(rows.len() <= 5);
        let ctx2 = context(PromptStrategy::BatchedRows, LlmFidelity::weak());
        let rows2 = llm_scan(&ctx2, &parts(None, None).spec()).unwrap();
        assert_eq!(rows.len(), rows2.len());
    }

    #[test]
    fn parallel_scans_match_sequential_for_all_strategies() {
        for strategy in [
            PromptStrategy::BatchedRows,
            PromptStrategy::TupleAtATime,
            PromptStrategy::DecomposedOperators,
        ] {
            for fidelity in [LlmFidelity::perfect(), LlmFidelity::medium()] {
                let p = parts(Some(gt_filter(40)), None);
                let seq_ctx = context(strategy, fidelity);
                let expected = llm_scan(&seq_ctx, &p.spec()).unwrap();
                for parallelism in [2, 4, 8] {
                    let mut ctx = context(strategy, fidelity);
                    ctx.config.parallelism = parallelism;
                    let got = llm_scan(&ctx, &p.spec()).unwrap();
                    assert_eq!(
                        expected, got,
                        "{strategy:?} diverged at parallelism {parallelism}"
                    );
                    assert!(ctx.metrics.snapshot().peak_in_flight >= 1);
                }
            }
        }
    }
}
