//! Scan operators: the point where the engine touches storage.
//!
//! Three physical scans exist for one logical `Scan` node:
//!
//! * [`table_scan`] — read a materialized table from `llmsql-store`
//!   (Traditional mode, and the ground-truth oracle).
//! * [`llm_scan`] — materialize a *virtual* relation by prompting the model;
//!   which prompts depends on the [`PromptStrategy`].
//! * [`hybrid_scan`] — read the materialized (but incomplete) table and fill
//!   NULL cells by prompting the model for the missing attribute values.
//!
//! # One driver, four plans
//!
//! A scan over the model *is* a sequence of prompts, and a prompting
//! strategy only decides which prompts. So a strategy is a `PromptPlan` —
//! "with room for `cap` prompts, which come next" and "here is the answer to
//! prompt `i`" — and there are four: `Pages` (`row_batch` pagination),
//! `Enumerate` (the key list that opens the per-tuple strategies), `Lookups`
//! (one `lookup` per row with missing cells, be it an enumerated key or a
//! stored row with NULLs) and `FilterChecks` (one `filter_check` per
//! candidate row). `TupleAtATime` is enumerate → lookups,
//! `DecomposedOperators` is enumerate → lookups → filter checks, and the
//! hybrid scan is lookups over the stored rows.
//!
//! Everything that is not prompt content lives once, in `Driver::drive`:
//!
//! * **Waves.** Model calls dominate query latency, so prompts are
//!   dispatched in waves of up to [`ExecContext::scan_fanout`] concurrent
//!   requests (`EngineConfig::parallelism`). Every prompt of a wave — of one
//!   prompt or of sixty-four — becomes a poll-based `llmsql_llm::ClientCall`
//!   and the calling thread parks on the [`crate::reactor`] until the wave
//!   drains, so slot gating, single-flight coalescing and mid-flight
//!   deadlines apply to every request alike.
//! * **Determinism.** A plan is a pure function of the answers consumed so
//!   far, and answers are consumed strictly in prompt order, so the prompt
//!   *set* does not depend on thread interleaving: same seed + same query ⇒
//!   byte-identical rows and logical call counts at any parallelism and any
//!   `batch_rows_per_call`.
//! * **Call budget.** `max_llm_calls` is query-global and bounds every wave
//!   up front, so parallelism never issues calls a sequential run would have
//!   skipped. It counts *logical* prompts: a retried, failed-over or packed
//!   prompt costs one unit however it travelled.
//! * **Tuple batching.** Per-tuple prompts travel packed,
//!   `EngineConfig::batch_rows_per_call` to a request; the composite answer
//!   is split back before the plan sees it.
//! * **Deadline and partial results.** The deadline is checked before each
//!   wave is paid for and fires mid-wave on the reactor. A lapsed deadline or
//!   a backend-layer failure fails the query — or, with
//!   `EngineConfig::partial_results`, cuts the scan short: consumption stops
//!   at the first failed answer, so every strategy delivers exactly the rows
//!   for which all the prompts it needs were answered before that point (a
//!   prefix in page, key or stored-row order; nothing while the filter checks
//!   of a decomposed scan are still to come), labelled by an [`Incomplete`]
//!   marker.
//!
//! When the client wraps a `BackendPool`, the requests of one wave spread
//! across its endpoints per the routing policy. That is invisible here:
//! pooled backends are semantically identical and failover happens inside
//! the pool, so rows and logical calls stay byte-identical.

use std::sync::Arc;
use std::time::Instant;

use llmsql_llm::prompt::TaskSpec;
use llmsql_llm::{
    pack_prompts, parse_pipe_rows, parse_value_lines, parse_yes_no, split_response, ClientCall,
    CompletionRequest, CompletionResponse, LlmClient, ParsedRows, YesNoAnswer,
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

/// Parameters of a scan, extracted from the logical plan node, which alone
/// says what the optimizer pushed. Borrows the plan's data — constructing a
/// spec allocates nothing.
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

    /// The pushed filter as SQL text for a prompt, if there is one.
    fn prompt_filter(&self) -> Result<Option<String>> {
        self.pushed_filter.map(BoundExpr::to_sql_text).transpose()
    }

    /// Whether `row` passes the pushed filter, evaluated locally (a row with
    /// missing evidence does not: NULL is not TRUE).
    fn passes(&self, row: &Row) -> Result<bool> {
        match self.pushed_filter {
            Some(filter) => Ok(eval_predicate(filter, row)? == Some(true)),
            None => Ok(true),
        }
    }

    /// Index of the primary-key column (first column when none is marked).
    fn key_column(&self) -> usize {
        self.table_schema
            .columns
            .iter()
            .position(|c| c.primary_key)
            .unwrap_or(0)
    }

    /// The display form of `row`'s key, as per-tuple prompts name an entity.
    fn key_text(&self, row: &Row) -> String {
        row.get(self.key_column()).to_display_string()
    }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Dispatch a one-shot prompt (the full-query strategy's) with the
/// accounting, slot gating, coalescing and mid-flight deadline of a scan
/// wave; the prompt is recorded as one LLM call of `kind`.
pub fn dispatch_one(
    ctx: &ExecContext,
    client: &LlmClient,
    kind: &str,
    prompt: String,
) -> Result<CompletionResponse> {
    ctx.metrics.update(|m| m.record_llm_call(kind));
    dispatch_physical(ctx, client, &[prompt])
        .pop()
        .unwrap_or_else(|| Err(Error::execution("a wave of one prompt drained empty")))
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
/// reported as `DeadlineExceeded` with partial accounting). Under a
/// cross-query scheduler each request holds a global call slot while in
/// flight, which delays dispatch but never changes the prompt set. With a
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

// ---------------------------------------------------------------------------
// The scan driver
// ---------------------------------------------------------------------------

/// What a prompting strategy contributes to a scan: which prompts come next,
/// and what an answer means. A plan holds only finished rows, so a scan cut
/// short delivers them as they stand.
trait PromptPlan {
    /// The task kind every prompt of this plan is accounted under.
    const KIND: &'static str;
    /// Per-tuple prompts, packed `batch_rows_per_call` to a request.
    const PACKS: bool = false;
    /// The relation's end is unknown, so waves ramp up 1, 2, 4, … and
    /// shrink near the deadline (see [`Pages`]).
    const SPECULATIVE: bool = false;

    /// The next wave: at most `cap` prompts, planned from what was consumed
    /// so far. Empty means the plan is finished.
    fn next(&mut self, cap: usize) -> Result<Vec<String>>;

    /// Consume the answer to prompt `i` of the wave `next` returned last.
    /// Called in prompt order, and never past a failed answer.
    fn accept(&mut self, i: usize, response: CompletionResponse) -> Result<Flow>;
}

/// What the driver does after an accepted answer.
#[derive(PartialEq)]
enum Flow {
    /// Go on with the wave.
    Continue,
    /// The plan is finished; answers still unconsumed are discarded.
    Done,
}

/// Runs the plans of one scan: the one wave loop, and the one place each
/// dispatch policy lives (see the module docs).
struct Driver<'a> {
    ctx: &'a ExecContext,
    /// The fault that cut this scan short under `partial_results`. Once set,
    /// no plan of the scan issues another prompt.
    cut: Option<Error>,
}

impl Driver<'_> {
    /// Drive `plan` until it is finished or the scan is cut short.
    fn drive<P: PromptPlan>(&mut self, plan: &mut P) -> Result<()> {
        let ctx = self.ctx;
        let client = ctx.require_client()?;
        let fanout = ctx.scan_fanout();
        let packing = ctx.config.batch_rows_per_call.max(1);
        let per_request = if P::PACKS { packing } else { 1 };
        let mut ramp = if P::SPECULATIVE { 1 } else { fanout };
        // Wall-time EWMA of completed speculative waves — the basis for
        // deadline-aware wave sizing. `None` until the first wave lands.
        let mut wave_ewma_ms: Option<f64> = None;
        while self.cut.is_none() {
            // The call cap is query-global: every scan of the query draws on
            // it through the metrics channel.
            let calls_used = ctx.metrics.llm_call_count() as usize;
            let call_budget = ctx.config.max_llm_calls.saturating_sub(calls_used);
            let mut cap = fanout.min(ramp).min(call_budget);
            // Deadline-aware wave sizing: with the deadline less than two
            // typical waves away, shrink to a single probe prompt — either
            // it finishes the scan or the deadline check fires with at most
            // one prompt of overshoot. Only how many prompts fly
            // concurrently changes, never which.
            if let (Some(deadline), Some(est_ms)) = (ctx.deadline_instant(), wave_ewma_ms) {
                let remaining = deadline.saturating_duration_since(reactor::now());
                if remaining.as_secs_f64() * 1000.0 < est_ms * 2.0 {
                    cap = cap.min(1);
                }
            }
            let prompts = plan.next(cap)?;
            if prompts.is_empty() {
                break;
            }
            // A query past its deadline fails before paying for another wave.
            if let Err(err) = ctx.check_deadline() {
                return self.cut_short(err);
            }
            // Logical calls are recorded per planned prompt, so the budget
            // charge and `llm_calls_by_kind` are the same at any batch size.
            ctx.metrics.update(|m| {
                for _ in &prompts {
                    m.record_llm_call(P::KIND);
                }
            });
            let packed: Vec<String>;
            let requests = if per_request > 1 && prompts.len() > 1 {
                packed = prompts.chunks(per_request).map(pack_prompts).collect();
                &packed
            } else {
                &prompts
            };
            let wave_started = P::SPECULATIVE.then(reactor::now);
            let responses = dispatch_physical(ctx, client, requests);
            if let Some(started) = wave_started {
                let ms = started.elapsed().as_secs_f64() * 1000.0;
                wave_ewma_ms = Some(wave_ewma_ms.map_or(ms, |prev| 0.7 * prev + 0.3 * ms));
            }
            let mut consumed = 0;
            for (members, response) in prompts.chunks(per_request).zip(responses) {
                let response = match response {
                    Ok(response) => response,
                    // Earlier answers were consumed in order, so the plan
                    // holds an exact prefix. A failed composite fails each
                    // member identically, as independent dispatch would.
                    Err(err) => return self.cut_short(err),
                };
                let (whole, parts) = if members.len() == 1 {
                    (Some(response), None)
                } else {
                    ctx.metrics
                        .update(|m| m.batched_rows += members.len() as u64);
                    (None, Some(split_response(&response, members.len())))
                };
                for answer in whole.into_iter().chain(parts.into_iter().flatten()) {
                    if plan.accept(consumed, answer)? == Flow::Done {
                        return Ok(());
                    }
                    consumed += 1;
                }
            }
            ramp = ramp.saturating_mul(2).min(fanout);
        }
        Ok(())
    }

    /// Graceful degradation (`EngineConfig::with_partial_results`): a lapsed
    /// deadline or an unrecoverable backend layer mid-scan keeps the rows
    /// already assembled. Any other error, or the switch off, fails the query.
    fn cut_short(&mut self, err: Error) -> Result<()> {
        let degradable = matches!(err.kind, ErrorKind::DeadlineExceeded | ErrorKind::Llm);
        if !(self.ctx.config.partial_results && degradable) {
            return Err(err);
        }
        self.cut = Some(err);
        Ok(())
    }

    /// Hand over the scan's rows; if it was cut short, record the fault and
    /// the accounting at the cut as the query's [`Incomplete`] marker (the
    /// first cut of a query wins).
    fn finish(self, rows: Vec<Row>) -> Vec<Row> {
        if let Some(err) = self.cut {
            let marker = Incomplete {
                kind: err.kind,
                message: err.message,
                rows_delivered: rows.len() as u64,
                calls_spent: self.ctx.metrics.llm_call_count(),
            };
            self.ctx.metrics.update(|m| {
                m.incomplete.get_or_insert(marker);
            });
        }
        rows
    }
}

/// Account the lines of an answer that did not parse.
fn note_dropped(ctx: &ExecContext, parsed: &ParsedRows) {
    if parsed.dropped_lines > 0 {
        ctx.metrics
            .update(|m| m.dropped_lines += parsed.dropped_lines as u64);
    }
}

/// A row of the base arity holding `values` at `columns`, NULL elsewhere.
fn widen(columns: &[usize], values: &Row, arity: usize) -> Row {
    let mut full = vec![Value::Null; arity];
    for (vi, &idx) in columns.iter().enumerate() {
        full[idx] = values.get(vi).clone();
    }
    Row::new(full)
}

// ---------------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------------

/// Page through the relation with `row_batch` prompts at precomputed
/// offsets.
///
/// Pagination is speculative: a wave assumes every page comes back full, and
/// answers after the first short page are discarded. Nothing is known about
/// the relation's size before the first answer, so the driver ramps wave
/// sizes up TCP-style (1, 2, 4, … capped at the fanout): the calls a scan
/// can issue past the relation's end are bounded by the smaller of
/// `parallelism - 1` and the page count the relation already served — an
/// empty relation costs at most one call, as in a sequential run.
/// Budget-capped scans (`LIMIT` or `max_scan_rows` reached before
/// exhaustion) issue exactly the sequential call count.
struct Pages<'a> {
    ctx: &'a ExecContext,
    spec: &'a ScanSpec<'a>,
    columns: Vec<usize>,
    names: Vec<String>,
    types: Vec<DataType>,
    filter: Option<String>,
    budget: usize,
    page: usize,
    /// Relation-cardinality hint (`LanguageModel::relation_cardinality`):
    /// how many lines an unfiltered enumeration would produce. Pages at
    /// offsets past it can only come back empty, so they are never planned —
    /// no tail overshoot, and an empty relation costs zero calls. Under a
    /// pushed filter it is still a sound upper bound, and the short-page
    /// check still detects the filtered relation's earlier end.
    hint: Option<usize>,
    /// Where the next unplanned page starts.
    offset: usize,
    /// `(offset, limit)` of each page of the wave in flight.
    wave: Vec<(usize, usize)>,
    rows: Vec<Row>,
}

impl<'a> Pages<'a> {
    fn new(ctx: &'a ExecContext, spec: &'a ScanSpec<'a>, filter: Option<String>) -> Self {
        let columns = spec.needed_columns();
        let column = |&i: &usize| &spec.table_schema.columns[i];
        let hint = ctx
            .client
            .as_ref()
            .and_then(|c| c.relation_cardinality(spec.table));
        Pages {
            ctx,
            spec,
            names: columns.iter().map(|i| column(i).name.clone()).collect(),
            types: columns.iter().map(|i| column(i).data_type).collect(),
            columns,
            filter,
            budget: spec.row_budget(ctx),
            page: ctx.config.batch_size.max(1),
            hint: hint.map(|n| n as usize),
            offset: 0,
            wave: Vec::new(),
            rows: Vec::new(),
        }
    }
}

impl PromptPlan for Pages<'_> {
    const KIND: &'static str = "row_batch";
    const SPECULATIVE: bool = true;

    fn next(&mut self, cap: usize) -> Result<Vec<String>> {
        // A wave may only contain *full* pages (`limit` = `page`): their
        // prompts depend on nothing but the page offset, which advances by
        // exactly `page` while pages come back full, so they can be fetched
        // concurrently and still match a sequential run prompt-for-prompt. A
        // budget-clamped final page is different — its `limit` is
        // `budget - rows.len()`, which depends on how many rows the earlier
        // pages actually *parsed* (fidelity noise drops lines) — so it is
        // always issued alone, planned from the true row count.
        let room = self.budget - self.rows.len();
        let full = cap.min(room / self.page);
        self.wave.clear();
        self.wave
            .extend((0..full).map(|k| (self.offset + k * self.page, self.page)));
        if full == 0 && cap > 0 && room > 0 {
            self.wave.push((self.offset, room));
        }
        let end = self.hint.unwrap_or(usize::MAX);
        self.wave.retain(|&(at, _)| at < end);
        let prompts = self.wave.iter().map(|&(offset, limit)| {
            TaskSpec::RowBatch {
                table: self.spec.table.to_string(),
                columns: self.names.clone(),
                filter: self.filter.clone(),
                limit,
                offset,
            }
            .to_prompt(Some(self.spec.table_schema))
        });
        Ok(prompts.collect())
    }

    fn accept(&mut self, i: usize, response: CompletionResponse) -> Result<Flow> {
        let (page_offset, want) = self.wave[i];
        let parsed = parse_pipe_rows(&response.text, &self.types);
        note_dropped(self.ctx, &parsed);
        // Lines the model produced for this page, parsed or not: the
        // relation is exhausted when the model had fewer rows to say than
        // asked for, not when some lines were malformed. A backend that
        // emits *more* lines than requested is clamped to the page size —
        // later pages are dispatched at offsets assuming at most `want`
        // lines per page, so consuming overshoot would duplicate rows.
        let got_lines = (parsed.rows.len() + parsed.dropped_lines).min(want);
        let room = self.budget - self.rows.len();
        let arity = self.spec.table_schema.arity();
        let taken = parsed.rows.iter().take(want.min(room));
        self.rows
            .extend(taken.map(|partial| widen(&self.columns, partial, arity)));
        self.offset = page_offset + got_lines;
        // A short page is the end of the relation: later pages of this wave
        // were speculative fetches past the end.
        if got_lines < want || self.rows.len() >= self.budget {
            return Ok(Flow::Done);
        }
        Ok(Flow::Continue)
    }
}

/// The key enumeration that opens the per-tuple strategies: one `enumerate`
/// prompt, answered by one row per key with every other column NULL.
struct Enumerate<'a> {
    ctx: &'a ExecContext,
    spec: &'a ScanSpec<'a>,
    prompt: Option<String>,
    rows: Vec<Row>,
}

impl PromptPlan for Enumerate<'_> {
    const KIND: &'static str = "enumerate";

    fn next(&mut self, _cap: usize) -> Result<Vec<String>> {
        // Issued even on a spent call budget: the keys then cost one call
        // and the lookups they would feed cost none.
        Ok(self.prompt.take().into_iter().collect())
    }

    fn accept(&mut self, _i: usize, response: CompletionResponse) -> Result<Flow> {
        let schema = self.spec.table_schema;
        let key_idx = self.spec.key_column();
        let parsed = parse_value_lines(&response.text, schema.columns[key_idx].data_type);
        note_dropped(self.ctx, &parsed);
        let keys = parsed.rows.iter().take(self.spec.row_budget(self.ctx));
        self.rows
            .extend(keys.map(|key| widen(&[key_idx], key, schema.arity())));
        Ok(Flow::Continue)
    }
}

/// The needed columns `row` has no value for.
fn missing<'r>(needed: &'r [usize], row: &'r Row) -> impl Iterator<Item = usize> + 'r {
    needed
        .iter()
        .copied()
        .filter(move |&col| row.get(col).is_null())
}

/// Walk `source` rows in order and ask one `lookup` per row for the needed
/// cells it is missing; rows that pass the pushed filter locally are
/// delivered, up to `budget` of them. The per-tuple strategies feed it the
/// enumerated keys (the local re-check means the model's own filtering need
/// not be trusted), the hybrid scan the stored rows.
///
/// A wave serves one *segment*: consecutive rows holding at most `cap`
/// lookups, and never more rows than the row budget has room for — a
/// sequential scan stops issuing lookups once `budget` rows are delivered,
/// so fills planned past that point would be calls a sequential run never
/// makes (rows filtered out only make the scan continue into a *later*
/// segment). Rows that need no lookup — complete rows, key-only projections
/// — are delivered without a call.
struct Lookups<'a> {
    ctx: &'a ExecContext,
    spec: &'a ScanSpec<'a>,
    /// The needed columns other than the key.
    needed: Vec<usize>,
    budget: usize,
    /// The rows come from the store: with the call budget spent they pass
    /// through unfilled, as in a sequential run, and fills are counted. An
    /// enumerated key without its lookup is no row at all.
    stored: bool,
    source: Vec<Row>,
    /// The first source row neither delivered nor filtered out yet.
    cursor: usize,
    /// The source rows the wave in flight looks up, and its segment's end.
    wave: Vec<usize>,
    segment_end: usize,
    /// Scratch: the column types one answer is parsed against.
    types: Vec<DataType>,
    rows: Vec<Row>,
}

impl<'a> Lookups<'a> {
    fn new(ctx: &'a ExecContext, spec: &'a ScanSpec<'a>, source: Vec<Row>, stored: bool) -> Self {
        let key_idx = spec.key_column();
        let mut needed = spec.needed_columns();
        needed.retain(|&col| col != key_idx);
        Lookups {
            ctx,
            spec,
            needed,
            budget: spec.row_budget(ctx),
            stored,
            source,
            cursor: 0,
            wave: Vec::new(),
            segment_end: 0,
            types: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Deliver the source rows up to `upto`: every one of them has all the
    /// answers it is going to get.
    fn deliver(&mut self, upto: usize) -> Result<()> {
        for slot in &mut self.source[self.cursor..upto] {
            let row = std::mem::replace(slot, Row::empty());
            if self.spec.passes(&row)? {
                self.rows.push(row);
            }
        }
        self.cursor = upto;
        Ok(())
    }
}

impl PromptPlan for Lookups<'_> {
    const KIND: &'static str = "lookup";
    const PACKS: bool = true;

    fn next(&mut self, cap: usize) -> Result<Vec<String>> {
        self.wave.clear();
        if cap == 0 && !self.stored {
            return Ok(Vec::new());
        }
        while self.cursor < self.source.len() && self.rows.len() < self.budget {
            let room = self.budget - self.rows.len();
            let segment_cap = self.source.len().min(self.cursor + room);
            let mut end = self.cursor;
            while end < segment_cap {
                if cap > 0 && missing(&self.needed, &self.source[end]).next().is_some() {
                    if self.wave.len() == cap {
                        break;
                    }
                    self.wave.push(end);
                }
                end += 1;
            }
            self.segment_end = end;
            self.deliver(self.wave.first().copied().unwrap_or(end))?;
            if !self.wave.is_empty() {
                break;
            }
        }
        let schema = self.spec.table_schema;
        let prompts = self.wave.iter().map(|&at| {
            let names = missing(&self.needed, &self.source[at]).map(|c| &schema.columns[c].name);
            TaskSpec::Lookup {
                table: self.spec.table.to_string(),
                key: self.spec.key_text(&self.source[at]),
                columns: names.cloned().collect(),
            }
            .to_prompt(Some(schema))
        });
        Ok(prompts.collect())
    }

    fn accept(&mut self, i: usize, response: CompletionResponse) -> Result<Flow> {
        let row = &mut self.source[self.wave[i]];
        let columns = &self.spec.table_schema.columns;
        self.types.clear();
        self.types
            .extend(missing(&self.needed, row).map(|col| columns[col].data_type));
        let parsed = parse_pipe_rows(&response.text, &self.types);
        note_dropped(self.ctx, &parsed);
        if let Some(values) = parsed.rows.first() {
            let mut filled = 0;
            let mut answers = values.values().iter();
            for &col in &self.needed {
                if !row.get(col).is_null() {
                    continue;
                }
                if let Some(value) = answers.next().filter(|v| !v.is_null()) {
                    row.set(col, value.clone());
                    filled += 1;
                }
            }
            if self.stored && filled > 0 {
                self.ctx.metrics.update(|m| m.cells_filled_by_llm += filled);
            }
        }
        // Everything ahead of the next lookup is now final.
        let upto = self.wave.get(i + 1).copied().unwrap_or(self.segment_end);
        self.deliver(upto)?;
        Ok(Flow::Continue)
    }
}

/// The decomposed strategy's filter operator: one `filter_check` prompt per
/// candidate row, keeping the rows the model says yes to, up to `budget`.
/// A wave never holds more checks than the row budget still has room for —
/// the rule [`Lookups`] segments follow, for the same reason.
struct FilterChecks<'a> {
    spec: &'a ScanSpec<'a>,
    condition: String,
    budget: usize,
    candidates: std::vec::IntoIter<Row>,
    kept: Vec<Row>,
}

impl PromptPlan for FilterChecks<'_> {
    const KIND: &'static str = "filter_check";
    const PACKS: bool = true;

    fn next(&mut self, cap: usize) -> Result<Vec<String>> {
        let wave = cap.min(self.budget - self.kept.len());
        let prompts = self.candidates.as_slice().iter().take(wave).map(|row| {
            TaskSpec::FilterCheck {
                table: self.spec.table.to_string(),
                key: self.spec.key_text(row),
                condition: self.condition.clone(),
            }
            .to_prompt(Some(self.spec.table_schema))
        });
        Ok(prompts.collect())
    }

    fn accept(&mut self, _i: usize, response: CompletionResponse) -> Result<Flow> {
        // Answers arrive in candidate order, one candidate each.
        let candidate = self.candidates.next();
        if parse_yes_no(&response.text) == YesNoAnswer::Yes {
            self.kept.extend(candidate);
        }
        Ok(Flow::Continue)
    }
}

// ---------------------------------------------------------------------------
// The scans
// ---------------------------------------------------------------------------

/// Scan a materialized table, applying the pushed filter locally.
pub fn table_scan(ctx: &ExecContext, spec: &ScanSpec<'_>, table: &Table) -> Result<Vec<Row>> {
    let mut rows = Vec::new();
    let budget = spec.row_budget(ctx);
    for row in table.scan() {
        if !spec.passes(&row)? {
            continue;
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

/// Materialize a virtual relation by prompting the model.
pub fn llm_scan(ctx: &ExecContext, spec: &ScanSpec<'_>) -> Result<Vec<Row>> {
    let mut driver = Driver { ctx, cut: None };
    let rows = match (ctx.config.strategy, spec.prompt_filter()?) {
        (PromptStrategy::TupleAtATime, filter) => tuple_rows(&mut driver, spec, filter)?,
        (PromptStrategy::DecomposedOperators, None) => tuple_rows(&mut driver, spec, None)?,
        // The filter becomes its own operator: materialize candidates
        // without it, then check each. The row budget caps the rows the
        // filter *keeps*, so every key up to the scan cap is a candidate.
        (PromptStrategy::DecomposedOperators, Some(condition)) => {
            let candidates = ScanSpec {
                pushed_filter: None,
                pushed_limit: None,
                ..*spec
            };
            let mut checks = FilterChecks {
                spec,
                condition,
                budget: spec.row_budget(ctx),
                candidates: tuple_rows(&mut driver, &candidates, None)?.into_iter(),
                kept: Vec::new(),
            };
            driver.drive(&mut checks)?;
            checks.kept
        }
        // FullQuery is handled at the engine level; if a scan still ends up
        // here (e.g. a mixed plan), fall back to batched pagination.
        (PromptStrategy::BatchedRows | PromptStrategy::FullQuery, filter) => {
            let mut pages = Pages::new(ctx, spec, filter);
            driver.drive(&mut pages)?;
            pages.rows
        }
    };
    let rows = driver.finish(rows);
    ctx.metrics.update(|m| m.rows_from_llm += rows.len() as u64);
    Ok(rows)
}

/// Enumerate the keys (with `filter` in the prompt, if any), then look up
/// the other needed columns of each, in concurrent waves.
fn tuple_rows(
    driver: &mut Driver<'_>,
    spec: &ScanSpec<'_>,
    filter: Option<String>,
) -> Result<Vec<Row>> {
    let task = TaskSpec::Enumerate {
        table: spec.table.to_string(),
        filter,
        limit: spec.row_budget(driver.ctx),
        offset: 0,
    };
    let mut keys = Enumerate {
        ctx: driver.ctx,
        spec,
        prompt: Some(task.to_prompt(Some(spec.table_schema))),
        rows: Vec::new(),
    };
    driver.drive(&mut keys)?;
    let mut lookups = Lookups::new(driver.ctx, spec, keys.rows, false);
    driver.drive(&mut lookups)?;
    Ok(lookups.rows)
}

/// Read a materialized (incomplete) table and fill NULL cells in the needed
/// columns by asking the model, in concurrent waves.
pub fn hybrid_scan(ctx: &ExecContext, spec: &ScanSpec<'_>, table: &Table) -> Result<Vec<Row>> {
    let mut driver = Driver { ctx, cut: None };
    let mut fills = Lookups::new(ctx, spec, table.scan(), true);
    driver.drive(&mut fills)?;
    let rows = driver.finish(fills.rows);
    ctx.metrics
        .update(|m| m.rows_from_store += rows.len() as u64);
    Ok(rows)
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

    type Model = Arc<dyn llmsql_llm::LanguageModel>;

    /// A simulator that knows the five countries.
    fn sim(fidelity: LlmFidelity, seed: u64) -> Model {
        let mut kb = KnowledgeBase::new();
        kb.add_table(country_schema(), world_rows());
        Arc::new(SimLlm::new(kb.into_shared(), fidelity, seed))
    }

    fn context(strategy: PromptStrategy, fidelity: LlmFidelity) -> ExecContext {
        context_over(sim(fidelity, 7), strategy)
    }

    fn context_over(model: Model, strategy: PromptStrategy) -> ExecContext {
        let catalog = Catalog::new();
        catalog.create_virtual_table(country_schema()).unwrap();
        let config = EngineConfig::default()
            .with_mode(ExecutionMode::LlmOnly)
            .with_strategy(strategy)
            .with_batch_size(2);
        ExecContext::new(catalog, Some(LlmClient::new(model)), config)
    }

    /// The LLM-backed scans: the three strategies over the virtual relation
    /// and the hybrid fill over the stored fixture.
    #[derive(Debug, Clone, Copy)]
    enum Scan {
        Llm(PromptStrategy),
        Hybrid,
    }

    const SCANS: [Scan; 4] = [
        Scan::Llm(PromptStrategy::BatchedRows),
        Scan::Llm(PromptStrategy::TupleAtATime),
        Scan::Llm(PromptStrategy::DecomposedOperators),
        Scan::Hybrid,
    ];

    impl Scan {
        /// Build the fixture over `model`, let `tweak` adjust its
        /// configuration, and run the scan with `filter` pushed.
        fn run(
            self,
            model: Model,
            filter: Option<BoundExpr>,
            tweak: impl FnOnce(&mut EngineConfig),
        ) -> (Result<Vec<Row>>, ExecContext) {
            let p = parts(filter, None);
            match self {
                Scan::Llm(strategy) => {
                    let mut ctx = context_over(model, strategy);
                    tweak(&mut ctx.config);
                    (llm_scan(&ctx, &p.spec()), ctx)
                }
                Scan::Hybrid => {
                    let (mut ctx, table) = hybrid_fixture_over(model);
                    tweak(&mut ctx.config);
                    (hybrid_scan(&ctx, &p.spec(), &table), ctx)
                }
            }
        }
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
        // wave; with partial results on, every scan degrades to an empty
        // prefix plus a structured marker instead.
        for scan in SCANS {
            let model = sim(LlmFidelity::perfect(), 7);
            let (strict, _) = scan.run(model.clone(), None, |c| c.deadline_ms = Some(0.0));
            assert_eq!(strict.unwrap_err().kind, ErrorKind::DeadlineExceeded);

            let (graceful, ctx) = scan.run(model, None, |c| {
                c.deadline_ms = Some(0.0);
                c.partial_results = true;
            });
            assert!(graceful.unwrap().is_empty(), "{scan:?}");
            let marker = ctx.metrics.snapshot().incomplete.unwrap();
            assert_eq!(marker.kind, ErrorKind::DeadlineExceeded, "{scan:?}");
            assert_eq!(marker.rows_delivered, 0, "{scan:?}");
            assert_eq!(marker.calls_spent, 0, "{scan:?}");
        }
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
        let dying = |healthy_calls: u64| -> Model {
            Arc::new(DiesAfter {
                inner: sim(LlmFidelity::perfect(), 7),
                healthy_calls,
                served: AtomicU64::new(0),
            })
        };
        // (scan, calls served before the loss, pushed filter, rows surviving)
        let decomposed = Scan::Llm(PromptStrategy::DecomposedOperators);
        let cases = [
            // The first page of two.
            (SCANS[0], 1, None, 2),
            // The enumeration and two of five lookups.
            (SCANS[1], 3, None, 2),
            // Cut among the lookups, the filter still to check: nothing is
            // deliverable.
            (decomposed, 3, Some(gt_filter(60)), 0),
            // The enumeration, all five lookups and two checks (both yes).
            (decomposed, 8, Some(gt_filter(60)), 2),
            // The first of two fills.
            (Scan::Hybrid, 1, None, 1),
        ];
        for (scan, healthy_calls, filter, survivors) in cases {
            let uncut = scan.run(dying(u64::MAX), filter.clone(), |_| {}).0.unwrap();
            // Strict: the mid-scan loss fails the whole query.
            let (strict, _) = scan.run(dying(healthy_calls), filter.clone(), |_| {});
            assert_eq!(strict.unwrap_err().kind, ErrorKind::Llm, "{scan:?}");
            // Graceful: exactly the rows whose every prompt was answered
            // before the loss survive — a prefix of the uncut result — with
            // the fault and the accounting at the cut in the marker.
            let (graceful, ctx) =
                scan.run(dying(healthy_calls), filter, |c| c.partial_results = true);
            let rows = graceful.unwrap();
            assert_eq!(rows.len(), survivors, "{scan:?} after {healthy_calls}");
            assert_eq!(rows[..], uncut[..rows.len()], "{scan:?}: not a prefix");
            let m = ctx.metrics.snapshot();
            let marker = m.incomplete.clone().unwrap();
            assert_eq!(marker.kind, ErrorKind::Llm);
            assert_eq!(marker.rows_delivered, rows.len() as u64, "{scan:?}");
            assert_eq!(marker.calls_spent, m.llm_calls(), "{scan:?}");
            assert_eq!(marker.calls_spent, healthy_calls + 1, "{scan:?}");
            assert!(marker.message.contains("backend lost mid-scan"));
        }
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
        hybrid_fixture_over(sim(LlmFidelity::perfect(), 3))
    }

    /// Two stored countries, each with one NULL cell the model can fill.
    fn hybrid_fixture_over(model: Model) -> (ExecContext, Table) {
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

        let ctx = ExecContext::new(
            catalog,
            Some(LlmClient::new(model)),
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
        for scan in SCANS {
            for fidelity in [LlmFidelity::perfect(), LlmFidelity::medium()] {
                let run = |parallelism: usize, batch_rows: usize| {
                    let (rows, ctx) = scan.run(sim(fidelity, 7), Some(gt_filter(40)), |c| {
                        c.parallelism = parallelism;
                        c.batch_rows_per_call = batch_rows;
                    });
                    (rows.unwrap(), ctx.metrics.snapshot())
                };
                let (expected, seq) = run(1, 1);
                for parallelism in [1, 2, 4, 8] {
                    for batch_rows in [1, 4] {
                        let at = format!("{scan:?} at parallelism {parallelism} x {batch_rows}");
                        let (got, m) = run(parallelism, batch_rows);
                        assert_eq!(expected, got, "rows diverged: {at}");
                        assert_eq!(
                            seq.llm_calls_by_kind, m.llm_calls_by_kind,
                            "logical calls diverged: {at}"
                        );
                        assert!(m.peak_in_flight >= 1);
                    }
                }
            }
        }
    }
}
