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
//! "which prompts come next" and "here is the answer to the oldest one in
//! flight" — and there are four: `Pages` (`row_batch` pagination),
//! `Enumerate` (the key list that opens the per-tuple strategies), `Lookups`
//! (one `lookup` per row with missing cells, be it an enumerated key or a
//! stored row with NULLs) and `FilterChecks` (one `filter_check` per
//! candidate row). `TupleAtATime` is enumerate → lookups,
//! `DecomposedOperators` is enumerate → lookups → filter checks, and the
//! hybrid scan is lookups over the stored rows.
//!
//! The prompts of one plan differ in a key, or in a limit and an offset, and
//! in nothing else. So a plan builds the rest — table, columns, filter, the
//! schema's description, the instructions — once, as a
//! [`PromptTemplate`], and `next` hands the driver only what varies: a page
//! plan renders its limit and offset in, a per-tuple plan hands over the
//! template and the key. Either way a prompt is byte for byte what
//! `TaskSpec::to_prompt` gives for that one task, since that is the same
//! renderer.
//!
//! Everything that is not prompt content lives once, in `Driver::drive`:
//!
//! * **The window.** Model calls dominate query latency, so a scan keeps
//!   several prompts in flight: prompt *i* may be in flight iff
//!   `i < consumed + W`, where `consumed` counts the answers the plan has
//!   taken — strictly in prompt order — and `W` is the plan's window, at
//!   most [`ExecContext::scan_fanout`] (`EngineConfig::parallelism`). After
//!   every consumed request the driver admits whatever became eligible, so a
//!   slow answer holds back only what lies more than `W` behind it. Every
//!   request is a poll-based `llmsql_llm::ClientCall` on the scan's own
//!   event loop ([`crate::reactor`]), standalone or under a scheduler; the
//!   query's thread parks there until the *oldest* one resolves, so slot
//!   gating, single-flight coalescing and mid-flight deadlines apply to
//!   every request alike. A plan that knows its prompts
//!   up front has `W` = the fanout; `Pages` speculates: it starts where the
//!   planner expects the scan to end, and once the answers have passed that
//!   estimate only the cardinality hint bounds it (see there).
//! * **Determinism.** Admission is keyed on the consumed prefix, never on
//!   which request happened to complete first, and a plan is a pure function
//!   of the answers consumed so far. So the prompt *set* and the composition
//!   of every packed request are a pure function of (query, seed, config):
//!   same seed + same query ⇒ byte-identical rows at any parallelism and any
//!   `batch_rows_per_call`, and identical logical call counts wherever a
//!   cardinality hint, a row budget or parallelism 1 ends the scan (a scan
//!   that only a filter ends may page past the end; `Pages` bounds by how
//!   much).
//! * **Call budget.** `max_llm_calls` is query-global and bounds every
//!   admission, so parallelism never issues calls a sequential run would
//!   have skipped. It counts *logical* prompts: a retried, failed-over or
//!   packed prompt costs one unit however it travelled.
//! * **Tuple batching.** Per-tuple prompts travel packed,
//!   `EngineConfig::batch_rows_per_call` to a request — a request is
//!   admitted only once the window has room for a whole one, so every
//!   request but a plan's last is full — and the composite answer is split
//!   back before the plan sees it. A request states each template once:
//!   [`pack_keys`] writes a run of one template's keys as one section — the
//!   fixed text, a `key:` line per prompt, instructions naming each entity —
//!   so its prompt tokens grow by a key line, not a whole prompt, per
//!   member. The model recovers every member as its exact one-key prompt
//!   (`llmsql_llm::batch`).
//! * **Deadline and partial results.** A lapsed deadline stops admission,
//!   and fires mid-flight on the reactor. A lapsed deadline or a
//!   backend-layer failure fails the query — or, with
//!   `EngineConfig::partial_results`, cuts the scan short: consumption stops
//!   at the first failed answer, so every strategy delivers exactly the rows
//!   for which all the prompts it needs were answered before that point (a
//!   prefix in page, key or stored-row order; nothing while the filter checks
//!   of a decomposed scan are still to come), labelled by an [`Incomplete`]
//!   marker.
//! * **Everything drains.** When a plan finishes early (`Flow::Done`), is
//!   cut, or fails, the requests still in flight are cancelled by drop
//!   before `drive` returns: call slots, in-flight gauges, hedge permits,
//!   breaker probes and coalescer entries are back to zero, and a dropped
//!   coalescing leader hands over to its followers.
//!
//! When the client wraps a `BackendPool`, the requests in flight spread
//! across its endpoints per the routing policy. That is invisible here:
//! pooled backends are semantically identical and failover happens inside
//! the pool, so rows and logical calls stay byte-identical.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use llmsql_llm::prompt::PromptTemplate;
use llmsql_llm::{
    pack_keys, parse_yes_no, scan_pipe_rows, scan_value_lines, split_sections, CallSlots,
    ClientCall, CompletionRequest, CompletionResponse, LlmClient, YesNoAnswer,
};
use llmsql_plan::{estimate_scan_rows, BoundExpr};
use llmsql_store::Table;
use llmsql_types::{
    DataType, Error, ErrorKind, Incomplete, PromptStrategy, Result, Row, Schema, Value,
};

use crate::context::ExecContext;
use crate::eval::eval_predicate;
use crate::metrics::ExecMetrics;
use crate::reactor::{Completion, Expired, LiveSet};

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
/// request; the prompt is recorded as one LLM call of `kind`.
pub fn dispatch_one(
    ctx: &ExecContext,
    client: &LlmClient,
    kind: &str,
    prompt: String,
) -> Result<Arc<CompletionResponse>> {
    ctx.metrics.borrow_mut().record_llm_call(kind);
    let mut flight = InFlight::new(ctx);
    flight.push(client.start_call(CompletionRequest::new(prompt)));
    flight.wait_head()
}

/// One request on the event loop: a [`ClientCall`] and the non-blocking slot
/// gate with its wait measurement. It never leaves the query's thread, so it
/// borrows the query's ledger and slot pool. The ledger is written once per
/// request, when the request leaves the loop — handed back resolved or
/// dropped in flight — with what the request itself did
/// ([`ExecMetrics::record_request`]).
struct RequestOp<'a> {
    ledger: &'a RefCell<ExecMetrics>,
    slots: Option<&'a Arc<CallSlots>>,
    call: ClientCall,
    /// When this op first found the slot pool saturated.
    slot_wait_started: Option<Instant>,
    /// How long the op had been parked when the pool granted its slot, µs.
    slot_wait_us: Option<u64>,
    /// What the call resolved to, for the waiter to take.
    answer: Option<Result<Arc<CompletionResponse>>>,
}

impl Completion for RequestOp<'_> {
    fn poll(&mut self, now: Instant) -> bool {
        let slots = self.slots;
        let slot_wait_started = &mut self.slot_wait_started;
        let slot_wait_us = &mut self.slot_wait_us;
        // The admission gate: grant immediately without a pool; otherwise
        // try_acquire and note the parked wait on grant.
        let mut gate = || -> Option<Box<dyn std::any::Any + Send>> {
            let Some(slots) = slots else {
                return Some(Box::new(()));
            };
            match slots.try_acquire_owned() {
                Some(guard) => {
                    let waited_us = slot_wait_started.take().map_or(0, |since| {
                        now.saturating_duration_since(since).as_micros() as u64
                    });
                    *slot_wait_us = Some(waited_us);
                    slots.record_blocked_wait(waited_us);
                    Some(Box::new(guard))
                }
                None => {
                    slot_wait_started.get_or_insert(now);
                    None
                }
            }
        };
        let Some(answer) = self.call.poll(now, &mut gate) else {
            return false;
        };
        self.answer = Some(answer);
        true
    }

    fn next_wakeup(&self, now: Instant) -> Option<Instant> {
        self.call.next_wakeup(now)
    }
}

impl Drop for RequestOp<'_> {
    fn drop(&mut self) {
        // No borrow of the ledger is ever held while a request leaves the
        // loop; `try_` only so that a drop during some unwind cannot panic
        // again.
        if let Ok(mut ledger) = self.ledger.try_borrow_mut() {
            ledger.record_request(&self.call, self.slot_wait_us);
        }
    }
}

/// The requests of one scan in flight, oldest first, on the scan's own event
/// loop. Under a cross-query scheduler each holds a global call slot while in
/// flight, which delays dispatch but never changes the prompt set. Dropping
/// it cancels whatever has not resolved.
struct InFlight<'a> {
    ctx: &'a ExecContext,
    live: LiveSet<RequestOp<'a>>,
}

impl<'a> InFlight<'a> {
    fn new(ctx: &'a ExecContext) -> Self {
        InFlight {
            ctx,
            live: LiveSet::default(),
        }
    }

    /// Put an already-accounted request in flight.
    fn push(&mut self, call: ClientCall) {
        self.live.push(RequestOp {
            ledger: &self.ctx.metrics,
            slots: self.ctx.slots(),
            call,
            slot_wait_started: None,
            slot_wait_us: None,
            answer: None,
        });
        let mut ledger = self.ctx.metrics.borrow_mut();
        ledger.peak_in_flight = ledger.peak_in_flight.max(self.live.len() as u64);
    }

    /// Park until the oldest request in flight resolves and take its answer.
    /// If the query deadline fires first the answer is `DeadlineExceeded`
    /// with partial accounting, and the request stays in flight for the drop
    /// to cancel.
    fn wait_head(&mut self) -> Result<Arc<CompletionResponse>> {
        match self.live.wait_head(self.ctx.deadline_instant()) {
            Some(Ok(mut op)) => op
                .answer
                .take()
                .unwrap_or_else(|| Err(Error::execution("a request resolved without an answer"))),
            Some(Err(Expired)) => Err(self.ctx.deadline_error()),
            None => Err(Error::execution("no request in flight to wait for")),
        }
    }
}

// ---------------------------------------------------------------------------
// The scan driver
// ---------------------------------------------------------------------------

/// The prompts a plan asks next, in prompt order.
enum Asks {
    /// One whole prompt: a page, or the key enumeration.
    Prompt(String),
    /// Per-tuple prompts, each `template.render_key(key)`. The driver packs
    /// them into one request ([`pack_keys`]), which states each template's
    /// fixed text once.
    Keys(Vec<(Rc<PromptTemplate>, String)>),
}

/// What a prompting strategy contributes to a scan: which prompts come next,
/// and what an answer means. A plan holds only finished rows, so a scan cut
/// short delivers them as they stand.
trait PromptPlan {
    /// The task kind every prompt of this plan is accounted under.
    const KIND: &'static str;
    /// Per-tuple prompts, packed `batch_rows_per_call` to a request.
    const PACKS: bool = false;

    /// How many prompts may be in flight at once, before the driver clamps
    /// it to `1..=fanout`. A function of the answers consumed so far only.
    fn window(&self) -> usize {
        usize::MAX
    }

    /// Up to `cap` further prompts, planned from the answers consumed so far
    /// and the prompts still in flight; `cap` is 0 once the call budget is
    /// spent. `None` means nothing more can be asked until another answer is
    /// consumed — the plan is finished once nothing is in flight either.
    fn next(&mut self, cap: usize) -> Result<Option<Asks>>;

    /// Consume the answer to the oldest prompt in flight: the text the model
    /// replied to that prompt with, borrowed from the completion it
    /// travelled in. Called in prompt order, and never past a failed answer.
    fn accept(&mut self, answer: &str) -> Result<Flow>;
}

/// What the driver does after an accepted answer.
#[derive(PartialEq)]
enum Flow {
    /// Go on.
    Continue,
    /// The plan is finished; requests still in flight are cancelled.
    Done,
}

/// An answer arrived that no prompt in flight asked for: a driver bug.
fn unasked() -> Error {
    Error::execution("an answer arrived for no prompt in flight")
}

/// Runs the plans of one scan: the one dispatch loop, and the one place each
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
        let packing = if P::PACKS {
            ctx.config.batch_rows_per_call
        } else {
            1
        };
        let per_request = packing.clamp(1, fanout);
        let mut flight = InFlight::new(ctx);
        // How many prompts each request in flight carries, oldest first, and
        // their sum.
        let mut members: VecDeque<usize> = VecDeque::new();
        let mut prompts_in_flight = 0;
        while self.cut.is_none() {
            // Admit every request the window has room for: prompt `i` is
            // eligible iff `i < consumed + window`.
            while prompts_in_flight + per_request <= plan.window().clamp(1, fanout) {
                // The call cap is query-global: every scan of the query
                // draws on it through the query's ledger.
                let calls_used = ctx.metrics.borrow().llm_calls() as usize;
                let call_budget = ctx.config.max_llm_calls.saturating_sub(calls_used);
                let Some(asks) = plan.next(per_request.min(call_budget))? else {
                    break;
                };
                // A query past its deadline pays for nothing more, and
                // waits for nothing more.
                if let Err(err) = ctx.check_deadline() {
                    return self.cut_short(err);
                }
                let (prompt, asked) = match asks {
                    Asks::Prompt(prompt) => (prompt, 1),
                    Asks::Keys(keys) => {
                        let members = keys.iter().map(|(t, key)| (&**t, key.as_str()));
                        (pack_keys(members), keys.len())
                    }
                };
                // Logical calls are recorded per planned prompt, so the
                // budget charge and `llm_calls_by_kind` are the same at any
                // batch size.
                for _ in 0..asked {
                    ctx.metrics.borrow_mut().record_llm_call(P::KIND);
                }
                flight.push(client.start_call(CompletionRequest::new(prompt)));
                members.push_back(asked);
                prompts_in_flight += asked;
            }
            // Nothing in flight and nothing to admit: the plan is finished.
            let Some(asked) = members.pop_front() else {
                break;
            };
            prompts_in_flight -= asked;
            let response = match flight.wait_head() {
                Ok(response) => response,
                // Earlier answers were consumed in order, so the plan holds
                // an exact prefix. A failed composite fails each member
                // identically, as independent dispatch would.
                Err(err) => return self.cut_short(err),
            };
            if asked > 1 {
                ctx.metrics.borrow_mut().batched_rows += asked as u64;
            }
            for answer in split_sections(&response.text, asked) {
                if plan.accept(answer)? == Flow::Done {
                    return Ok(());
                }
            }
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
                calls_spent: self.ctx.metrics.borrow().llm_calls(),
            };
            self.ctx
                .metrics
                .borrow_mut()
                .incomplete
                .get_or_insert(marker);
        }
        rows
    }
}

/// Account the lines of an answer that did not parse.
fn note_dropped(ctx: &ExecContext, dropped_lines: usize) {
    if dropped_lines > 0 {
        ctx.metrics.borrow_mut().dropped_lines += dropped_lines as u64;
    }
}

// ---------------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------------

/// Page through the relation with `row_batch` prompts at precomputed
/// offsets.
///
/// Pagination is speculative: a page is asked for on the assumption that
/// every page before it comes back full, and once a short page is consumed
/// the pages still in flight are cancelled. So the window is sized by what
/// is known about the relation's end:
///
/// * **Where it starts.** With a cardinality hint, `W₀` is the page count
///   the planner expects the scan to take — `llmsql_plan::estimate_scan_rows`
///   (hint, pushed filter's selectivity, row budget), the very number EXPLAIN
///   prints as the scan's rows, over the page size. With no hint nothing is
///   known before the first answer: `W₀` is one page.
/// * **How it grows.** With a hint, by one per full page consumed — evidence
///   that the relation goes on — while fewer than `W₀` are:
///   `W(c) = min(fanout, W₀ + c)` for `c < W₀`. At `c = W₀` the filtered
///   relation has reached the planner's estimate, which then bounds nothing:
///   from there `W` = the fanout, and the hint alone bounds speculation. So
///   an estimate that is too low costs at most one round trip more than an
///   exact one. Without a hint the window is slow start, one page more per
///   full page consumed, `W(c) = min(fanout, 1 + c)`: the pages in flight
///   double each round trip, 1, 2, 4, 8, …
/// * **What it can waste.** A scan that a filter ends on its `k`-th page
///   (`k` full pages served) has issued `min(W(k), hint pages − k) − 1`
///   calls past the end. Without a hint that is at most `min(fanout − 1, k)`,
///   and an empty relation costs one call as in a sequential run. With a
///   hint it is `min(fanout, W₀ + k) − 1` at most while `k < W₀` — an
///   estimate that is too high costs at most the estimated pages − 1 over
///   an exact one — and `min(fanout, hint pages − k) − 1` once `k ≥ W₀`.
///   Pages past the hint are never planned, so an unfiltered hinted scan
///   wastes nothing, and a budget-capped scan (`LIMIT` or `max_scan_rows`
///   reached before exhaustion) issues exactly the sequential call count.
///
/// A page's prompt is the plan's one template with the page's limit and
/// offset rendered in.
struct Pages<'a> {
    ctx: &'a ExecContext,
    spec: &'a ScanSpec<'a>,
    columns: Vec<usize>,
    types: Vec<DataType>,
    /// Everything a page's prompt says but its limit and offset — table,
    /// column list, filter, the schema's description — rendered once.
    template: PromptTemplate,
    budget: usize,
    page: usize,
    /// Relation-cardinality hint: how many lines an unfiltered enumeration
    /// would produce. Read from `LlmClient::relation_cardinality`, which
    /// asked the model the first time any scan, plan or EXPLAIN on this
    /// client named the table and has held the answer since — so every scan
    /// of a relation pages to the same end, and building one costs a map
    /// lookup, not a question to the model. Pages at
    /// offsets past it can only come back empty, so they are never planned —
    /// no tail overshoot, and an empty relation costs zero calls. Under a
    /// pushed filter it is still a sound upper bound, and the short-page
    /// check still detects the filtered relation's earlier end.
    hint: Option<usize>,
    /// `W₀`: the pages the planner expects the scan to take (1 without a
    /// hint).
    first_window: usize,
    /// Full pages consumed.
    full_consumed: usize,
    /// Where the next unplanned page starts.
    offset: usize,
    /// The `limit` of each page in flight, oldest first.
    in_flight: VecDeque<usize>,
    rows: Vec<Row>,
}

impl<'a> Pages<'a> {
    fn new(ctx: &'a ExecContext, spec: &'a ScanSpec<'a>, filter: Option<String>) -> Self {
        let columns = spec.needed_columns();
        let column = |&i: &usize| &spec.table_schema.columns[i];
        let names: Vec<&str> = columns.iter().map(|i| column(i).name.as_str()).collect();
        let hint = ctx
            .client
            .as_ref()
            .and_then(|c| c.relation_cardinality(spec.table));
        let page = ctx.config.batch_size.max(1);
        let max_rows = ctx.config.max_scan_rows;
        let first_window = hint.map_or(1, |n| {
            let expected_rows =
                estimate_scan_rows(n, max_rows, spec.pushed_filter, spec.pushed_limit);
            (expected_rows / page as f64).ceil() as usize
        });
        Pages {
            ctx,
            spec,
            types: columns.iter().map(|i| column(i).data_type).collect(),
            template: PromptTemplate::row_batch(
                spec.table,
                &names,
                filter.as_deref(),
                Some(spec.table_schema),
            ),
            columns,
            budget: spec.row_budget(ctx),
            page,
            hint: hint.map(|n| n as usize),
            first_window,
            full_consumed: 0,
            offset: 0,
            in_flight: VecDeque::new(),
            rows: Vec::new(),
        }
    }
}

impl PromptPlan for Pages<'_> {
    const KIND: &'static str = "row_batch";

    fn window(&self) -> usize {
        // The answers have passed the planner's estimate: only the hint
        // still bounds what may be asked.
        if self.hint.is_some() && self.full_consumed >= self.first_window {
            return usize::MAX;
        }
        self.first_window + self.full_consumed
    }

    fn next(&mut self, cap: usize) -> Result<Option<Asks>> {
        // Only *full* pages (`limit` = `page`) fly together: their prompts
        // depend on nothing but the page offset, which advances by exactly
        // `page` while pages come back full, so they can be fetched
        // concurrently and still match a sequential run prompt-for-prompt —
        // as long as the row budget has room for every one of them coming
        // back full. A budget-clamped final page is different — its `limit`
        // is `budget - rows.len()`, which depends on how many rows the
        // earlier pages actually *parsed* (fidelity noise drops lines) — so
        // it is issued alone, planned from the true row count.
        let reserved: usize = self.in_flight.iter().sum();
        let limit = (self.budget.saturating_sub(self.rows.len() + reserved)).min(self.page);
        let clamped_in_company = limit < self.page && !self.in_flight.is_empty();
        let past_the_hint = self.hint.is_some_and(|end| self.offset >= end);
        if cap == 0 || limit == 0 || clamped_in_company || past_the_hint {
            return Ok(None);
        }
        let prompt = self.template.render_page(limit, self.offset);
        self.offset += limit;
        self.in_flight.push_back(limit);
        Ok(Some(Asks::Prompt(prompt)))
    }

    fn accept(&mut self, answer: &str) -> Result<Flow> {
        let want = self.in_flight.pop_front().ok_or_else(unasked)?;
        // A backend that emits *more* lines than requested is clamped to the
        // page size — later pages are dispatched at offsets assuming at most
        // `want` lines per page, so consuming overshoot would duplicate rows.
        let keep = want.min(self.budget - self.rows.len());
        let arity = self.spec.table_schema.arity();
        let (columns, rows) = (&self.columns, &mut self.rows);
        let mut parsed = 0;
        // Each kept line's cells go straight to their columns of a row of
        // the base arity, NULL elsewhere.
        let dropped = scan_pipe_rows(answer, &self.types, |cells| {
            if parsed < keep {
                let mut full = vec![Value::Null; arity];
                for (cell, &column) in cells.iter_mut().zip(columns) {
                    full[column] = std::mem::take(cell);
                }
                rows.push(Row::new(full));
            }
            parsed += 1;
        });
        note_dropped(self.ctx, dropped);
        // Lines the model produced for this page, parsed or not: the
        // relation is exhausted when the model had fewer rows to say than
        // asked for, not when some lines were malformed.
        let got_lines = (parsed + dropped).min(want);
        // A short page is the end of the relation: the pages still in flight
        // were speculative fetches past the end.
        if got_lines < want || self.rows.len() >= self.budget {
            return Ok(Flow::Done);
        }
        self.full_consumed += 1;
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

    fn next(&mut self, _cap: usize) -> Result<Option<Asks>> {
        // Issued even on a spent call budget: the keys then cost one call
        // and the lookups they would feed cost none.
        Ok(self.prompt.take().map(Asks::Prompt))
    }

    fn accept(&mut self, answer: &str) -> Result<Flow> {
        let schema = self.spec.table_schema;
        let key_idx = self.spec.key_column();
        let budget = self.spec.row_budget(self.ctx);
        let rows = &mut self.rows;
        let dropped = scan_value_lines(answer, schema.columns[key_idx].data_type, |key| {
            if rows.len() < budget {
                let mut full = vec![Value::Null; schema.arity()];
                full[key_idx] = key;
                rows.push(Row::new(full));
            }
        });
        note_dropped(self.ctx, dropped);
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
/// Planning never runs further ahead than the row budget has room for: the
/// rows delivered plus the rows planned but not yet final stay within
/// `budget`. A sequential scan stops issuing lookups once `budget` rows are
/// delivered, so a fill planned past that point would be a call a sequential
/// run never makes (a row filtered out makes room for a *later* one). Rows
/// that need no lookup — complete rows, key-only projections — are delivered
/// without a call.
///
/// A lookup's prompt varies with the row's key and with which columns the row
/// is missing. The key is what `render_key` writes; the rest is a
/// [`PromptTemplate`] per missing-column set, built the first time a row with
/// that set is planned: one set for enumerated keys (every needed column is
/// missing), as many as the stored rows' NULL patterns for a hybrid fill.
/// The plan hands the driver each lookup as its template and key.
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
    /// The first source row not planned yet; the rows from `cursor` to here
    /// await a lookup in flight or queue behind one.
    planned: usize,
    /// The source rows with a lookup in flight, oldest first.
    in_flight: VecDeque<usize>,
    /// Scratch: the column types one answer is parsed against.
    types: Vec<DataType>,
    /// The lookup template of each missing-column set met so far.
    templates: HashMap<Vec<usize>, Rc<PromptTemplate>>,
    /// Scratch: the missing-column set of the row being planned.
    missing: Vec<usize>,
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
            planned: 0,
            in_flight: VecDeque::new(),
            types: Vec::new(),
            templates: HashMap::new(),
            missing: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// The lookup for `row`, which is missing the columns in
    /// `self.missing`: its template and key.
    fn lookup_for(&mut self, row: usize) -> (Rc<PromptTemplate>, String) {
        let spec = self.spec;
        let template = match self.templates.get(self.missing.as_slice()) {
            Some(template) => template,
            None => {
                let columns = &spec.table_schema.columns;
                let names: Vec<&str> = self.missing.iter().map(|&c| &*columns[c].name).collect();
                let template = PromptTemplate::lookup(spec.table, &names, Some(spec.table_schema));
                self.templates
                    .entry(self.missing.clone())
                    .or_insert(Rc::new(template))
            }
        };
        (Rc::clone(template), spec.key_text(&self.source[row]))
    }

    /// Deliver the source rows ahead of the oldest lookup in flight: every
    /// one of them has all the answers it is going to get.
    fn deliver(&mut self) -> Result<()> {
        let upto = self.in_flight.front().copied().unwrap_or(self.planned);
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

    fn next(&mut self, cap: usize) -> Result<Option<Asks>> {
        let mut lookups = Vec::new();
        if cap == 0 && !self.stored {
            return Ok(None);
        }
        loop {
            let before = (self.planned, self.cursor);
            while self.planned < self.source.len()
                && self.rows.len() + (self.planned - self.cursor) < self.budget
            {
                self.missing.clear();
                self.missing
                    .extend(missing(&self.needed, &self.source[self.planned]));
                if cap > 0 && !self.missing.is_empty() {
                    if lookups.len() == cap {
                        break;
                    }
                    lookups.push(self.lookup_for(self.planned));
                    self.in_flight.push_back(self.planned);
                }
                self.planned += 1;
            }
            // Delivery can filter rows out, which makes room to plan on.
            self.deliver()?;
            if (self.planned, self.cursor) == before {
                return Ok((!lookups.is_empty()).then_some(Asks::Keys(lookups)));
            }
        }
    }

    fn accept(&mut self, answer: &str) -> Result<Flow> {
        let at = self.in_flight.pop_front().ok_or_else(unasked)?;
        let row = &mut self.source[at];
        let columns = &self.spec.table_schema.columns;
        self.types.clear();
        self.types
            .extend(missing(&self.needed, row).map(|col| columns[col].data_type));
        // The first line that reads as a row answers for the missing cells,
        // in column order; a cell it leaves NULL stays missing.
        let mut answered = false;
        let mut filled = 0;
        let needed = &self.needed;
        let dropped = scan_pipe_rows(answer, &self.types, |cells| {
            if std::mem::replace(&mut answered, true) {
                return;
            }
            let mut cells = cells.iter_mut();
            for &col in needed {
                if !row.get(col).is_null() {
                    continue;
                }
                if let Some(cell) = cells.next().filter(|cell| !cell.is_null()) {
                    row.set(col, std::mem::take(cell));
                    filled += 1;
                }
            }
        });
        note_dropped(self.ctx, dropped);
        if self.stored && filled > 0 {
            self.ctx.metrics.borrow_mut().cells_filled_by_llm += filled;
        }
        // Everything ahead of the next lookup in flight is now final.
        self.deliver()?;
        Ok(Flow::Continue)
    }
}

/// The decomposed strategy's filter operator: one `filter_check` prompt per
/// candidate row, keeping the rows the model says yes to, up to `budget`.
/// No more checks are in flight than the row budget still has room for — the
/// rule [`Lookups`] follows, for the same reason. A check's prompt is the
/// plan's one template with the candidate's key rendered in; the plan hands
/// the driver that template and the key.
struct FilterChecks<'a> {
    spec: &'a ScanSpec<'a>,
    /// Everything a check's prompt says but the candidate's key — table,
    /// condition, the schema's description — rendered once.
    template: Rc<PromptTemplate>,
    budget: usize,
    /// The candidates not yet answered for; the first `in_flight` of them
    /// have a check in flight.
    candidates: std::vec::IntoIter<Row>,
    in_flight: usize,
    kept: Vec<Row>,
}

impl PromptPlan for FilterChecks<'_> {
    const KIND: &'static str = "filter_check";
    const PACKS: bool = true;

    fn next(&mut self, cap: usize) -> Result<Option<Asks>> {
        let room = self.budget.saturating_sub(self.kept.len() + self.in_flight);
        let unasked = self.candidates.as_slice().iter().skip(self.in_flight);
        let checks: Vec<_> = unasked
            .take(cap.min(room))
            .map(|row| (Rc::clone(&self.template), self.spec.key_text(row)))
            .collect();
        self.in_flight += checks.len();
        Ok((!checks.is_empty()).then_some(Asks::Keys(checks)))
    }

    fn accept(&mut self, answer: &str) -> Result<Flow> {
        // Answers arrive in candidate order, one candidate each.
        let candidate = self.candidates.next();
        self.in_flight = self.in_flight.saturating_sub(1);
        if parse_yes_no(answer) == YesNoAnswer::Yes {
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
    ctx.metrics.borrow_mut().rows_from_store += rows.len() as u64;
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
                template: Rc::new(PromptTemplate::filter_check(
                    spec.table,
                    &condition,
                    Some(spec.table_schema),
                )),
                budget: spec.row_budget(ctx),
                candidates: tuple_rows(&mut driver, &candidates, None)?.into_iter(),
                in_flight: 0,
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
    ctx.metrics.borrow_mut().rows_from_llm += rows.len() as u64;
    Ok(rows)
}

/// Enumerate the keys (with `filter` in the prompt, if any), then look up
/// the other needed columns of each, a window of them at a time.
fn tuple_rows(
    driver: &mut Driver<'_>,
    spec: &ScanSpec<'_>,
    filter: Option<String>,
) -> Result<Vec<Row>> {
    let template =
        PromptTemplate::enumerate(spec.table, filter.as_deref(), Some(spec.table_schema));
    let mut keys = Enumerate {
        ctx: driver.ctx,
        spec,
        prompt: Some(template.render_page(spec.row_budget(driver.ctx), 0)),
        rows: Vec::new(),
    };
    driver.drive(&mut keys)?;
    let mut lookups = Lookups::new(driver.ctx, spec, keys.rows, false);
    driver.drive(&mut lookups)?;
    Ok(lookups.rows)
}

/// Read a materialized (incomplete) table and fill NULL cells in the needed
/// columns by asking the model, a window of lookups at a time.
pub fn hybrid_scan(ctx: &ExecContext, spec: &ScanSpec<'_>, table: &Table) -> Result<Vec<Row>> {
    let mut driver = Driver { ctx, cut: None };
    let mut fills = Lookups::new(ctx, spec, table.scan(), true);
    driver.drive(&mut fills)?;
    let rows = driver.finish(fills.rows);
    ctx.metrics.borrow_mut().rows_from_store += rows.len() as u64;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsql_llm::prompt::TaskSpec;
    use llmsql_llm::{KnowledgeBase, LlmClient, SimLlm};
    use llmsql_store::Catalog;
    use llmsql_types::{clock, Column, EngineConfig, ExecutionMode, LlmFidelity};
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
        context_over(sim(fidelity, 7), strategy, |_| {})
    }

    /// The virtual-relation fixture over `model`; `tweak` adjusts its
    /// configuration before the context is created, which is when a
    /// configured deadline starts running.
    fn context_over(
        model: Model,
        strategy: PromptStrategy,
        tweak: impl FnOnce(&mut EngineConfig),
    ) -> ExecContext {
        let catalog = Catalog::new();
        catalog.create_virtual_table(country_schema()).unwrap();
        let mut config = EngineConfig::default()
            .with_mode(ExecutionMode::LlmOnly)
            .with_strategy(strategy)
            .with_batch_size(2);
        tweak(&mut config);
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
                    let ctx = context_over(model, strategy, tweak);
                    (llm_scan(&ctx, &p.spec()), ctx)
                }
                Scan::Hybrid => {
                    let (ctx, table) = hybrid_fixture_over(model, tweak);
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
        let m = ctx.metrics.borrow();
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
    fn a_page_row_is_null_outside_the_asked_columns() {
        // Asked for in an order that is not the table's: each cell lands at
        // its own column of a full-width row, and the column nobody asked
        // for is NULL.
        let ctx = context(PromptStrategy::BatchedRows, LlmFidelity::perfect());
        let rows = llm_scan(&ctx, &parts(None, Some(vec![2, 0])).spec()).unwrap();
        let world = world_rows();
        assert_eq!(rows.len(), world.len());
        for (row, truth) in rows.iter().zip(&world) {
            assert_eq!(row.arity(), 3);
            assert_eq!(row.get(0), truth.get(0));
            assert!(row.get(1).is_null());
            assert_eq!(row.get(2), truth.get(2));
        }
    }

    #[test]
    fn tuple_strategy_issues_lookup_per_row() {
        let ctx = context(PromptStrategy::TupleAtATime, LlmFidelity::perfect());
        let rows = llm_scan(&ctx, &parts(Some(gt_filter(60)), None).spec()).unwrap();
        assert_eq!(rows.len(), 3);
        let m = ctx.metrics.borrow();
        assert_eq!(m.llm_calls_by_kind["enumerate"], 1);
        assert!(m.llm_calls_by_kind["lookup"] >= 3);
    }

    #[test]
    fn decomposed_strategy_uses_filter_checks() {
        let ctx = context(PromptStrategy::DecomposedOperators, LlmFidelity::perfect());
        let rows = llm_scan(&ctx, &parts(Some(gt_filter(60)), None).spec()).unwrap();
        assert_eq!(rows.len(), 3);
        let m = ctx.metrics.borrow();
        assert_eq!(m.llm_calls_by_kind["filter_check"], 5);
    }

    #[test]
    fn pushed_limit_caps_rows_and_calls() {
        let ctx = context(PromptStrategy::BatchedRows, LlmFidelity::perfect());
        let mut p = parts(None, None);
        p.pushed_limit = Some(2);
        let rows = llm_scan(&ctx, &p.spec()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(ctx.metrics.borrow().llm_calls(), 1);
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
        // With fidelity noise dropping lines, an optimistic planner would
        // issue that page with a speculated limit (a different prompt than
        // sequential), changing both results and call counts. Only full
        // pages may therefore fly together; a clamped page is issued alone.
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
        let expected_calls = seq_ctx.metrics.borrow().llm_calls();
        for parallelism in [4, 8] {
            let ctx = context_with(parallelism);
            let got = llm_scan(&ctx, &p.spec()).unwrap();
            assert_eq!(expected, got, "rows diverged at parallelism {parallelism}");
            assert_eq!(
                expected_calls,
                ctx.metrics.borrow().llm_calls(),
                "call count diverged at parallelism {parallelism}"
            );
        }
    }

    #[test]
    fn cardinality_hint_eliminates_tail_overshoot() {
        // 20 rows at page size 5 is an exact multiple: without a hint the
        // scan must probe past the end (a sequential run pays 1 extra empty
        // page; a speculating window can pay more). The simulator reports its
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
            seq_ctx.metrics.borrow().llm_calls(),
            4,
            "hint should stop the sequential scan at exactly 4 full pages"
        );
        for parallelism in [4, 8] {
            let ctx = context_with(parallelism);
            let got = llm_scan(&ctx, &p.spec()).unwrap();
            assert_eq!(expected, got, "rows diverged at parallelism {parallelism}");
            assert_eq!(
                ctx.metrics.borrow().llm_calls(),
                4,
                "the window overshot the hinted end at parallelism {parallelism}"
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
        assert_eq!(ctx.metrics.borrow().llm_calls(), 0);
    }

    #[test]
    fn lapsed_deadline_fails_the_scan_unless_partial_results_are_on() {
        // Already-lapsed deadline: the strict path fails before paying for a
        // prompt; with partial results on, every scan degrades to an empty
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
            let marker = ctx.metrics.borrow().incomplete.clone().unwrap();
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
            let m = ctx.metrics.borrow();
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
        let p = parts(None, None);
        let free_ctx = context(PromptStrategy::BatchedRows, LlmFidelity::medium());
        let expected = llm_scan(&free_ctx, &p.spec()).unwrap();
        let expected_calls = free_ctx.metrics.borrow().llm_calls();

        let slots = Arc::new(CallSlots::new(2));
        let mut throttled_ctx = context(PromptStrategy::BatchedRows, LlmFidelity::medium());
        throttled_ctx.config.parallelism = 8;
        let throttled_ctx = throttled_ctx.with_slots(Arc::clone(&slots));
        let got = llm_scan(&throttled_ctx, &p.spec()).unwrap();
        assert_eq!(expected, got, "slot throttling changed scan output");
        let m = throttled_ctx.metrics.borrow();
        assert_eq!(expected_calls, m.llm_calls());
        assert_eq!(m.slot_waits, m.llm_calls(), "every dispatch takes a slot");
        assert!(slots.peak_in_use() <= 2, "slot cap exceeded");
        assert!(slots.peak_in_use() >= 1);
    }

    #[test]
    fn expired_deadline_fails_scans_with_partial_accounting() {
        let _paused = clock::pause();
        for strategy in [
            PromptStrategy::BatchedRows,
            PromptStrategy::TupleAtATime,
            PromptStrategy::DecomposedOperators,
        ] {
            let ctx = context_over(sim(LlmFidelity::perfect(), 7), strategy, |c| {
                c.deadline_ms = Some(2.0);
            });
            clock::sleep_until(clock::now() + std::time::Duration::from_millis(5));
            let err = llm_scan(&ctx, &parts(None, None).spec()).unwrap_err();
            assert_eq!(
                err.kind,
                llmsql_types::ErrorKind::DeadlineExceeded,
                "{strategy:?}"
            );
            // Partial accounting: the scan failed before its first prompt, 5ms
            // after the context was created, so zero calls were issued — and
            // the error says so.
            assert!(
                err.message
                    .ends_with("2ms deadline after 5.0ms with 0 LLM call(s) issued"),
                "{err}"
            );
            assert_eq!(ctx.metrics.borrow().llm_calls(), 0, "{strategy:?}");
        }
    }

    #[test]
    fn unhit_deadline_leaves_scans_byte_identical() {
        let p = parts(None, None);
        let free_ctx = context(PromptStrategy::BatchedRows, LlmFidelity::medium());
        let expected = llm_scan(&free_ctx, &p.spec()).unwrap();
        let deadline_ctx = context_over(
            sim(LlmFidelity::medium(), 7),
            PromptStrategy::BatchedRows,
            |c| c.deadline_ms = Some(60_000.0),
        );
        let got = llm_scan(&deadline_ctx, &p.spec()).unwrap();
        assert_eq!(expected, got, "an unhit deadline changed scan output");
        assert_eq!(
            free_ctx.metrics.borrow().llm_calls(),
            deadline_ctx.metrics.borrow().llm_calls()
        );
    }

    #[test]
    fn max_llm_calls_caps_admission() {
        for parallelism in [1, 4] {
            let mut ctx = context(PromptStrategy::TupleAtATime, LlmFidelity::perfect());
            ctx.config.parallelism = parallelism;
            // 1 enumerate + at most 2 lookups.
            ctx.config.max_llm_calls = 3;
            let rows = llm_scan(&ctx, &parts(None, None).spec()).unwrap();
            assert_eq!(rows.len(), 2, "parallelism {parallelism}");
            assert_eq!(ctx.metrics.borrow().llm_calls(), 3);
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
            assert!(ctx.metrics.borrow().llm_calls() <= 4);
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
        assert_eq!(ctx.metrics.borrow().rows_from_store, 3);
    }

    fn hybrid_fixture() -> (ExecContext, Table) {
        hybrid_fixture_over(sim(LlmFidelity::perfect(), 3), |_| {})
    }

    /// Two stored countries, each with one NULL cell the model can fill.
    fn hybrid_fixture_over(
        model: Model,
        tweak: impl FnOnce(&mut EngineConfig),
    ) -> (ExecContext, Table) {
        let stored = vec![
            Row::new(vec!["France".into(), "Europe".into(), Value::Null]),
            Row::new(vec!["Japan".into(), Value::Null, Value::Int(125)]),
        ];
        hybrid_fixture_storing(model, stored, tweak)
    }

    /// `stored` over `model` in hybrid mode; `tweak` adjusts the
    /// configuration before the context is created (see [`context_over`]).
    fn hybrid_fixture_storing(
        model: Model,
        stored: Vec<Row>,
        tweak: impl FnOnce(&mut EngineConfig),
    ) -> (ExecContext, Table) {
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
        table.insert_many(stored).unwrap();

        let mut config = EngineConfig::default().with_mode(ExecutionMode::Hybrid);
        tweak(&mut config);
        let ctx = ExecContext::new(catalog, Some(LlmClient::new(model)), config);
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
        let m = ctx.metrics.borrow();
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
                ctx.metrics.borrow().llm_calls(),
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
            seq_ctx.metrics.borrow().llm_calls(),
            par_ctx.metrics.borrow().llm_calls()
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
                    (rows.unwrap(), ctx.metrics.into_inner())
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

    // -----------------------------------------------------------------------
    // The window: determinism, the overshoot bound, stragglers, draining
    // -----------------------------------------------------------------------

    use llmsql_llm::{CallHandle, CallMachine, LanguageModel};
    use parking_lot::Mutex;
    use std::time::Duration;

    /// What a [`Probe`] saw, in the order it happened.
    #[derive(Debug, Clone, PartialEq)]
    enum Event {
        Submitted(String),
        Resolved(String),
    }

    /// When a [`Probe`] lets an answer be seen.
    #[derive(Clone, Copy)]
    enum Pace {
        /// This long after the request was submitted.
        After(Duration),
        /// Once the reactor has polled the request this many times — a
        /// straggler that owes nothing to the wall clock.
        Polls(usize),
    }

    const NEVER: Pace = Pace::After(Duration::from_hours(1));
    const AT_ONCE: Pace = Pace::After(Duration::ZERO);

    /// Wraps a model to script when each answer arrives, withhold the
    /// cardinality hint, and record what was asked and answered.
    struct Probe {
        inner: Model,
        hinted: bool,
        pace: Box<dyn Fn(&str) -> Pace + Send + Sync>,
        log: Arc<Mutex<Vec<Event>>>,
    }

    impl Probe {
        fn over(
            inner: Model,
            hinted: bool,
            pace: impl Fn(&str) -> Pace + Send + Sync + 'static,
        ) -> (Model, Arc<Mutex<Vec<Event>>>) {
            let log = Arc::new(Mutex::new(Vec::new()));
            let probe = Probe {
                inner,
                hinted,
                pace: Box::new(pace),
                log: Arc::clone(&log),
            };
            (Arc::new(probe), log)
        }
    }

    impl LanguageModel for Probe {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn fingerprint(&self) -> String {
            self.inner.fingerprint()
        }
        fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse> {
            self.inner.complete(request)
        }
        fn submit(&self, request: &CompletionRequest) -> CallHandle {
            self.log
                .lock()
                .push(Event::Submitted(request.prompt.clone()));
            CallHandle::machine(Box::new(ProbeCall {
                prompt: request.prompt.clone(),
                result: Some(self.inner.complete(request)),
                pace: (self.pace)(&request.prompt),
                submitted: clock::now(),
                polls: 0,
                log: Arc::clone(&self.log),
            }))
        }
        fn relation_cardinality(&self, table: &str) -> Option<u64> {
            self.inner
                .relation_cardinality(table)
                .filter(|_| self.hinted)
        }
    }

    struct ProbeCall {
        prompt: String,
        result: Option<Result<CompletionResponse>>,
        pace: Pace,
        submitted: Instant,
        polls: usize,
        log: Arc<Mutex<Vec<Event>>>,
    }

    impl CallMachine for ProbeCall {
        fn poll(&mut self, now: Instant) -> Option<Result<CompletionResponse>> {
            self.polls += 1;
            let ready = match self.pace {
                Pace::After(delay) => now >= self.submitted + delay,
                Pace::Polls(polls) => self.polls > polls,
            };
            let result = self.result.take_if(|_| ready)?;
            self.log.lock().push(Event::Resolved(self.prompt.clone()));
            Some(result)
        }
        fn next_wakeup(&self, _now: Instant) -> Option<Instant> {
            match self.pace {
                Pace::After(delay) => Some(self.submitted + delay),
                Pace::Polls(_) => None,
            }
        }
    }

    /// `count` countries with populations 0, 1, 2, …, the first two named as
    /// the hybrid fixture's stored rows are.
    fn numbered_world(count: usize) -> Model {
        let rows = (0..count).map(|i| {
            let name = match i {
                0 => "France".to_string(),
                1 => "Japan".to_string(),
                _ => format!("Country {i:03}"),
            };
            Row::new(vec![name.into(), "Europe".into(), Value::Int(i as i64)])
        });
        let mut kb = KnowledgeBase::new();
        kb.add_table(country_schema(), rows.collect());
        Arc::new(SimLlm::new(kb.into_shared(), LlmFidelity::perfect(), 7))
    }

    /// `population < bound`.
    fn lt_filter(bound: i64) -> BoundExpr {
        BoundExpr::Binary {
            left: Box::new(BoundExpr::col(2, "population", DataType::Int)),
            op: llmsql_sql::ast::BinaryOp::Lt,
            right: Box::new(BoundExpr::lit(bound)),
        }
    }

    /// `population BETWEEN low AND high`.
    fn between_filter(low: i64, high: i64) -> BoundExpr {
        BoundExpr::Between {
            expr: Box::new(BoundExpr::col(2, "population", DataType::Int)),
            low: Box::new(BoundExpr::lit(low)),
            high: Box::new(BoundExpr::lit(high)),
            negated: false,
        }
    }

    /// `region = 'Europe'`: every row of [`numbered_world`].
    fn in_europe() -> BoundExpr {
        BoundExpr::Binary {
            left: Box::new(BoundExpr::col(1, "region", DataType::Text)),
            op: llmsql_sql::ast::BinaryOp::Eq,
            right: Box::new(BoundExpr::lit("Europe")),
        }
    }

    /// The prompts a [`Probe`] was sent, sorted: the multiset a scan asked.
    fn prompts_asked(log: &Mutex<Vec<Event>>) -> Vec<String> {
        let mut asked: Vec<String> = log
            .lock()
            .iter()
            .filter_map(|event| match event {
                Event::Submitted(prompt) => Some(prompt.clone()),
                Event::Resolved(_) => None,
            })
            .collect();
        asked.sort();
        asked
    }

    #[test]
    fn completion_order_never_changes_what_a_scan_asks_or_returns() {
        // Every answer is late by a pseudo-random 0–300µs keyed on (prompt,
        // jitter seed), so requests complete in a different order under each
        // seed. On the paused clock that order is a pure function of the
        // seed. Rows, logical calls and the multiset of submitted prompts —
        // packed requests included — must not notice.
        let jitter = |seed: u64| {
            move |prompt: &str| {
                let hash = prompt.bytes().fold(seed ^ 0xcbf2_9ce4_8422_2325, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
                });
                Pace::After(Duration::from_micros((hash >> 20) % 300))
            }
        };
        let _paused = clock::pause();
        let mut reordered = 0;
        for scan in SCANS {
            for filter in [None, Some(gt_filter(9))] {
                for hinted in [true, false] {
                    let run = |seed: u64, parallelism: usize, batch_rows: usize| {
                        let (model, log) = Probe::over(numbered_world(23), hinted, jitter(seed));
                        let (rows, ctx) = scan.run(model, filter.clone(), |c| {
                            c.parallelism = parallelism;
                            c.batch_rows_per_call = batch_rows;
                        });
                        let calls = ctx.metrics.into_inner().llm_calls_by_kind;
                        let events = log.lock().clone();
                        (rows.unwrap(), calls, prompts_asked(&log), events)
                    };
                    let sequential = run(1, 1, 1).0;
                    for parallelism in [1, 2, 4, 8, 16] {
                        for batch_rows in [1, 4] {
                            let at = format!(
                                "{scan:?}, filter {}, hint {hinted}, {parallelism} x {batch_rows}",
                                filter.is_some()
                            );
                            let one = run(1, parallelism, batch_rows);
                            assert_eq!(one.0, sequential, "rows diverged: {at}");
                            if parallelism == 16 {
                                let again = run(1, parallelism, batch_rows).3;
                                assert_eq!(one.3, again, "order is not the seed's: {at}");
                            }
                            // A window of one has one order of completion;
                            // window 8 gets one other seed, to keep the
                            // test's run time down.
                            let last_seed = match parallelism {
                                1 => 1,
                                8 => 2,
                                _ => 4,
                            };
                            for seed in 2..=last_seed {
                                let other = run(seed, parallelism, batch_rows);
                                assert_eq!(one.0, other.0, "rows depend on timing: {at}");
                                assert_eq!(one.1, other.1, "calls depend on timing: {at}");
                                assert_eq!(one.2, other.2, "prompts depend on timing: {at}");
                                reordered += usize::from(one.3 != other.3);
                            }
                        }
                    }
                }
            }
        }
        // The seeds do reorder completions: the property is not vacuous.
        assert!(reordered > 100, "only {reordered} runs saw another order");
    }

    #[test]
    fn a_hybrid_fill_asks_each_row_the_one_off_lookup_of_its_missing_columns() {
        // The stored rows cycle through four NULL patterns — region,
        // population, both, neither — so the fill needs three lookup
        // templates and meets them interleaved. What it submits must be, row
        // for row, the prompt rendered from scratch for that row alone.
        const ROWS: usize = 14;
        // (region stored, population stored)
        const PATTERNS: [(bool, bool); 4] =
            [(false, true), (true, false), (false, false), (true, true)];
        let stored: Vec<Row> = (0..ROWS)
            .map(|i| {
                let name = match i {
                    0 => "France".to_string(),
                    1 => "Japan".to_string(),
                    _ => format!("Country {i:03}"),
                };
                let (region, population) = PATTERNS[i % 4];
                let region = if region { "Europe".into() } else { Value::Null };
                let population = if population {
                    Value::Int(i as i64)
                } else {
                    Value::Null
                };
                Row::new(vec![name.into(), region, population])
            })
            .collect();
        let p = parts(None, None);
        let mut expected: Vec<String> = stored
            .iter()
            .filter_map(|row| {
                let columns: Vec<String> = missing(&[1, 2], row)
                    .map(|col| p.schema.columns[col].name.clone())
                    .collect();
                (!columns.is_empty()).then(|| {
                    TaskSpec::Lookup {
                        table: "countries".into(),
                        key: row.get(0).to_display_string(),
                        columns,
                    }
                    .to_prompt(Some(&p.schema))
                })
            })
            .collect();
        expected.sort();
        let sets: std::collections::BTreeSet<&str> = expected
            .iter()
            .filter_map(|prompt| prompt.lines().find(|line| line.starts_with("columns: ")))
            .collect();
        assert_eq!(sets.len(), 3, "the fixture must need three templates");
        assert_eq!(expected.len(), ROWS - ROWS / 4);

        for batch_rows in [1, 4] {
            for parallelism in [1, 8] {
                let (model, log) = Probe::over(numbered_world(ROWS), true, |_| AT_ONCE);
                let (ctx, table) = hybrid_fixture_storing(model, stored.clone(), |c| {
                    c.parallelism = parallelism;
                    c.batch_rows_per_call = batch_rows;
                });
                let rows = hybrid_scan(&ctx, &p.spec(), &table).unwrap();
                assert_eq!(rows.len(), ROWS);
                assert!(rows
                    .iter()
                    .all(|row| !row.get(1).is_null() && !row.get(2).is_null()));
                let mut asked: Vec<String> = prompts_asked(&log)
                    .iter()
                    .flat_map(|request| llmsql_llm::batch::split_prompt(request))
                    .collect();
                asked.sort();
                assert_eq!(asked, expected, "{parallelism} x {batch_rows}");
            }
        }
    }

    proptest::proptest! {
        /// The two ways a paged scan ends. A row budget ends it exactly
        /// where a sequential run ends; a relation that runs out — only a
        /// filter or the model knows where — is paged past by no more than
        /// the window was wide when the short page was consumed, and never
        /// past a cardinality hint.
        #[test]
        fn paging_past_the_end_is_bounded_and_budget_capped_scans_are_exact(
            size in 0usize..70,
            page in 1usize..9,
            keep in proptest::option::of((0usize..3, 0i64..70)),
            parallelism in 1usize..17,
            limit in proptest::option::of(1usize..80),
        ) {
            for hinted in [true, false] {
                // The planner expects `<` to keep a third of the relation,
                // `BETWEEN` a quarter and `=` a tenth; `region = 'Europe'`
                // keeps all of it.
                let filter = keep.map(|(shape, keep)| match shape {
                    0 => lt_filter(keep),
                    1 => between_filter(0, keep),
                    _ => in_europe(),
                });
                let mut p = parts(filter.clone(), None);
                p.pushed_limit = limit;
                let run = |parallelism: usize| {
                    let (model, _) = Probe::over(numbered_world(size), hinted, |_| AT_ONCE);
                    let ctx = context_over(model, PromptStrategy::BatchedRows, |c| {
                        c.batch_size = page;
                        c.parallelism = parallelism;
                    });
                    let rows = llm_scan(&ctx, &p.spec()).unwrap();
                    (rows, ctx.metrics.into_inner().llm_calls() as usize)
                };
                let (expected, sequential_calls) = run(1);
                let (rows, calls) = run(parallelism);
                let at = format!(
                    "{size} rows, page {page}, filter (shape, keep) {keep:?}, limit {limit:?}, \
                     parallelism {parallelism}, hint {hinted}"
                );
                proptest::prop_assert_eq!(&rows, &expected, "rows diverged: {}", at);
                // What a scan asking one page at a time must pay: the pages
                // up to the budget; or every full page plus the short one
                // that ends the relation, unless the hint rules that one out.
                let capped = Some(rows.len()) == limit;
                let pages_needed = if capped {
                    rows.len().div_ceil(page)
                } else if hinted {
                    (rows.len() / page + 1).min(size.div_ceil(page))
                } else {
                    rows.len() / page + 1
                };
                proptest::prop_assert_eq!(sequential_calls, pages_needed, "sequential: {}", at);
                if capped {
                    proptest::prop_assert_eq!(calls, sequential_calls, "budget-capped: {}", at);
                    continue;
                }
                // The window when the short page was consumed, less that page.
                let full_pages = rows.len() / page;
                let bound = if hinted {
                    let max_scan_rows = EngineConfig::default().max_scan_rows;
                    let expected_rows =
                        estimate_scan_rows(size as u64, max_scan_rows, filter.as_ref(), limit);
                    let first_window = (expected_rows / page as f64).ceil() as usize;
                    if full_pages < first_window {
                        parallelism.min(first_window + full_pages) - 1
                    } else {
                        // Past the estimate only the hint bounds the window.
                        parallelism
                            .min(size.div_ceil(page) - full_pages)
                            .saturating_sub(1)
                    }
                } else {
                    parallelism.min(1 + full_pages) - 1
                };
                proptest::prop_assert!(
                    (sequential_calls..=sequential_calls + bound).contains(&calls),
                    "{} calls against {} sequential, bound {}: {}",
                    calls, sequential_calls, bound, at
                );
                if hinted && filter.is_none() {
                    proptest::prop_assert_eq!(calls, sequential_calls, "hint-ended: {}", at);
                }
            }
        }
    }

    /// The `row_batch` prompt of page `index` of a scan in pages of `page`.
    fn page_prompt(p: &SpecParts, page: usize, index: usize) -> String {
        TaskSpec::RowBatch {
            table: "countries".into(),
            columns: p.schema.columns.iter().map(|c| c.name.clone()).collect(),
            filter: p.spec().prompt_filter().unwrap(),
            limit: page,
            offset: index * page,
        }
        .to_prompt(Some(&p.schema))
    }

    #[test]
    fn a_hinted_scan_past_its_estimate_opens_the_window_to_the_fanout() {
        // 200 rows in pages of 10 at fanout 16, every row passing the pushed
        // filter. The planner expects `BETWEEN` to keep a quarter of them
        // (`W₀` = 5 pages) and `=` a tenth (`W₀` = 2). The first `W₀` pages
        // answer at once, every later one only after the reactor has polled
        // it 40 times, so no clock is involved. Read off the model's event
        // log: by the time any page past `W₀` resolves, the first `W₀` have
        // come back full and refuted the estimate, and the second round put
        // every page the fanout allows in flight — `W₀ + 16`. For `BETWEEN`
        // that is all 20 pages, two rounds where slow growth took three
        // (5 + 10 + 5); for `=` it is 18 — 16 in flight behind the 2
        // consumed — three rounds where slow growth took four (2 + 4 + 8 +
        // 6).
        const PAGE: usize = 10;
        const FANOUT: usize = 16;
        for (filter, first_window) in [(between_filter(0, 199), 5), (in_europe(), 2)] {
            let expected_rows = estimate_scan_rows(200, usize::MAX, Some(&filter), None);
            assert_eq!(
                (expected_rows / PAGE as f64).ceil() as usize,
                first_window,
                "{filter}"
            );
            let p = parts(Some(filter), None);
            let prompts: Vec<String> = (0..20).map(|i| page_prompt(&p, PAGE, i)).collect();
            let late = prompts[first_window..].to_vec();
            let (model, log) = Probe::over(numbered_world(200), true, move |prompt| {
                if late.iter().any(|q| q == prompt) {
                    Pace::Polls(40)
                } else {
                    AT_ONCE
                }
            });
            let ctx = context_over(model, PromptStrategy::BatchedRows, |c| {
                c.batch_size = PAGE;
                c.parallelism = FANOUT;
            });
            assert_eq!(llm_scan(&ctx, &p.spec()).unwrap().len(), 200);
            assert_eq!(ctx.metrics.borrow().llm_calls(), 20);

            let index = |prompt: &String| prompts.iter().position(|q| q == prompt).unwrap();
            let log = log.lock();
            let first_late_answer = log
                .iter()
                .position(|e| matches!(e, Event::Resolved(q) if index(q) >= first_window))
                .unwrap();
            let submitted: Vec<usize> = log[..first_late_answer]
                .iter()
                .filter_map(|event| match event {
                    Event::Submitted(prompt) => Some(index(prompt)),
                    Event::Resolved(_) => None,
                })
                .collect();
            let second_round_ends = (first_window + FANOUT).min(20);
            assert_eq!(
                submitted,
                (0..second_round_ends).collect::<Vec<_>>(),
                "W₀ = {first_window}"
            );
        }
    }

    #[test]
    fn a_straggler_holds_back_only_what_lies_a_window_behind_it() {
        // 20 pages of 2 at fanout 4; page 5 answers only after the reactor
        // has polled it 40 times, every other page at once. Read off the
        // model's event log, no clock involved: at every submission the
        // window invariant held, and while page 5 was the straggler the
        // whole window behind it was put in flight — and nothing beyond.
        const FANOUT: usize = 4;
        const STRAGGLER: usize = 5;
        for hinted in [true, false] {
            let p = parts(None, None);
            // Without the hint the scan pages past the 20th page to find the end.
            let prompts: Vec<String> = (0..24).map(|i| page_prompt(&p, 2, i)).collect();
            let slow = prompts[STRAGGLER].clone();
            let (model, log) = Probe::over(numbered_world(40), hinted, move |prompt| {
                if prompt == slow {
                    Pace::Polls(40)
                } else {
                    AT_ONCE
                }
            });
            let ctx = context_over(model, PromptStrategy::BatchedRows, |c| {
                c.parallelism = FANOUT;
            });
            assert_eq!(llm_scan(&ctx, &p.spec()).unwrap().len(), 40);

            let index = |prompt: &String| prompts.iter().position(|q| q == prompt).unwrap();
            let first_window = if hinted { FANOUT } else { 1 };
            let window = |consumed: usize| FANOUT.min(first_window + consumed);
            let mut resolved = [false; 24];
            let mut submitted_before_straggler_resolved = Vec::new();
            for event in log.lock().iter() {
                match event {
                    Event::Submitted(prompt) => {
                        // Answers are consumed in order, so no more were
                        // consumed than the resolved prefix is long.
                        let prefix = resolved.iter().take_while(|&&done| done).count();
                        assert!(
                            index(prompt) < prefix + window(prefix),
                            "page {} submitted with only {prefix} consumable (hint {hinted})",
                            index(prompt)
                        );
                        if !resolved[STRAGGLER] {
                            submitted_before_straggler_resolved.push(index(prompt));
                        }
                    }
                    Event::Resolved(prompt) => resolved[index(prompt)] = true,
                }
            }
            let behind = STRAGGLER + window(STRAGGLER);
            assert_eq!(
                submitted_before_straggler_resolved,
                (0..behind).collect::<Vec<_>>(),
                "hint {hinted}"
            );
        }
    }

    #[test]
    fn an_unhinted_scan_opens_at_one_page_and_doubles_each_round_trip() {
        // 200 rows in pages of 10 at fanout 16, no cardinality hint, capped
        // at 200 rows. Every page answers on the reactor's second poll of
        // it, so each round trip's pages resolve together and no clock is
        // involved: a round is a run of submissions between two answers in
        // the model's event log. Slow start opens at one page and consumes
        // each full page into two more — 1, 2, 4, 8, then the 5 the budget
        // leaves.
        let mut p = parts(None, None);
        p.pushed_limit = Some(200);
        let (model, log) = Probe::over(numbered_world(200), false, |_| Pace::Polls(1));
        let ctx = context_over(model, PromptStrategy::BatchedRows, |c| {
            c.batch_size = 10;
            c.parallelism = 16;
        });
        assert_eq!(llm_scan(&ctx, &p.spec()).unwrap().len(), 200);
        let mut rounds: Vec<usize> = Vec::new();
        let mut answered = true;
        for event in log.lock().iter() {
            match event {
                Event::Submitted(_) if answered => rounds.push(1),
                Event::Submitted(_) => *rounds.last_mut().unwrap() += 1,
                Event::Resolved(_) => {}
            }
            answered = matches!(event, Event::Resolved(_));
        }
        assert_eq!(rounds, [1, 2, 4, 8, 5]);
    }

    #[test]
    fn a_scan_that_ends_with_requests_in_flight_leaves_nothing_behind() {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Ending {
            /// The empty page 3 finishes the plan; pages 4–10 never answer.
            Finished,
            /// Page 2 never answers and the deadline fires mid-flight.
            Deadline,
            /// The same, degraded to the two pages consumed.
            DeadlineCut,
        }
        // 40 rows in pages of 2 at fanout 8, `population < 6` pushed: three
        // full pages, then an empty one. The hint makes the planner expect 7
        // pages, so pages 0–6 go out at once and 7–10 follow as full pages
        // are consumed. How many pages ever answer decides how the scan ends
        // — finished, failed or cut — each time with requests still
        // unresolved. They hold call slots, the in-flight gauge and
        // single-flight leaderships, and all of it must be back when the scan
        // returns.
        let p = parts(Some(lt_filter(6)), None);
        let _paused = clock::pause();
        for ending in [Ending::Finished, Ending::Deadline, Ending::DeadlineCut] {
            let at = format!("{ending:?}");
            let answered = if ending == Ending::Finished { 4 } else { 2 };
            // Pages are submitted in order: the first `answered` answer.
            let submissions = Mutex::new(0);
            let (model, log) = Probe::over(numbered_world(40), true, move |_| {
                let mut submissions = submissions.lock();
                *submissions += 1;
                if *submissions <= answered {
                    AT_ONCE
                } else {
                    NEVER
                }
            });
            let slots = Arc::new(CallSlots::new(16));
            let ctx = context_over(model, PromptStrategy::BatchedRows, |c| {
                c.parallelism = 8;
                if ending != Ending::Finished {
                    c.deadline_ms = Some(40.0);
                    c.partial_results = ending == Ending::DeadlineCut;
                }
            })
            .with_slots(Arc::clone(&slots));

            let outcome = llm_scan(&ctx, &p.spec());
            match ending {
                Ending::Finished => assert_eq!(outcome.unwrap().len(), 6, "{at}"),
                Ending::Deadline => {
                    assert_eq!(
                        outcome.unwrap_err().kind,
                        ErrorKind::DeadlineExceeded,
                        "{at}"
                    );
                }
                Ending::DeadlineCut => assert_eq!(outcome.unwrap().len(), 4, "{at}"),
            }
            let asked = prompts_asked(&log).len();
            let resolved = log
                .lock()
                .iter()
                .filter(|e| matches!(e, Event::Resolved(_)))
                .count();
            // 3 full pages consumed: 3 + min(8, 7 + 3) planned; with
            // page 2 stuck, 2 + min(8, 7 + 2).
            let planned = if ending == Ending::Finished { 11 } else { 10 };
            assert_eq!(asked, planned, "{at}");
            assert_eq!(ctx.metrics.borrow().llm_calls(), planned as u64, "{at}");
            assert_eq!(resolved, answered, "{at}");

            // Cancelled or answered, every request left the loop through
            // the ledger: each was granted a slot on its first poll.
            assert_eq!(ctx.metrics.borrow().slot_waits, planned as u64, "{at}");
            assert_eq!(slots.in_use(), 0, "call slots: {at}");
            let coalescer = ctx.client.as_ref().unwrap().coalescer().unwrap();
            assert_eq!(coalescer.in_flight(), 0, "coalescer entries: {at}");
        }
    }
}
