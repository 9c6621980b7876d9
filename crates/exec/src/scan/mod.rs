//! Scan operators: the point where the engine touches storage.
//!
//! Three physical scans exist for one logical `Scan` node, and one more
//! answers a whole plan:
//!
//! * [`table_scan`] — read a materialized table from `llmsql-store`
//!   (Traditional mode, and the ground-truth oracle).
//! * [`llm_scan`] — materialize a *virtual* relation by prompting the model;
//!   which prompts depends on the [`PromptStrategy`].
//! * [`hybrid_scan`] — read the materialized (but incomplete) table and fill
//!   NULL cells by prompting the model for the missing attribute values.
//! * `full_query_scan` — the full-query strategy in LlmOnly mode: the
//!   whole statement as one prompt, its answer read as the result table.
//!
//! # One driver, five plans
//!
//! A scan over the model *is* a sequence of prompts, and a prompting
//! strategy only decides which prompts. So a strategy is a `PromptPlan` —
//! "which prompts come next" and "here is the answer to the oldest one in
//! flight" — and there are five. In `pages.rs`: `Pages` (`row_batch`
//! pagination) and `Whole` (the one `full_query` prompt). In `tuples.rs`:
//! `Enumerate` (the key list that opens the per-tuple strategies), `Lookups`
//! (one `lookup` per row with missing cells, be it an enumerated key or a
//! stored row with NULLs) and `FilterChecks` (one `filter_check` per
//! candidate row). `TupleAtATime` is enumerate → lookups,
//! `DecomposedOperators` is enumerate → lookups → filter checks, and the
//! hybrid scan is lookups over the stored rows.
//!
//! A plan is plain data over given answers. It is built from the
//! [`ScanSpec`] (a `Whole` from the statement), the configuration values it
//! reads (page size, `max_scan_rows`, the row budget) and the cardinality
//! hint, all handed in; `next` and `accept` read nothing else, and what an
//! answer did for the ledger — lines dropped, cells filled — comes back in
//! `accept`'s `Accepted`. So a plan runs, and is tested, with no context,
//! client or model, and this file's `Driver` is the scan's one shell: the
//! only scan code that touches the [`ExecContext`], the client, the clock
//! and the ledger.
//!
//! The prompts of one plan differ in a key, or in a limit and an offset, and
//! in nothing else. So the rest — table, columns, filter, the schema's
//! description, the instructions — is built once, as a [`PromptTemplate`],
//! and `next` hands the driver only what varies: a page plan renders its
//! limit and offset in, a per-tuple plan hands over the template and the
//! key. Either way a prompt is byte for byte what `TaskSpec::to_prompt`
//! gives for that one task, since that is the same renderer.
//!
//! # Compiled once, run many times
//!
//! A scan's plan splits in two. What depends only on the plan node, the
//! configuration and the client's cardinality hint is compiled once, into a
//! `ModelScan`: the needed columns and their types, the pushed filter's
//! prompt text, the templates, the first window `Pages` derives from the
//! hint — and, for the prompts that are functions of the plan alone, the
//! request key the client builds for each, kept in a `OnceLock` the first
//! time a run asks it. What depends on the answers — which page comes next,
//! the rows so far — is the per-run plan over it. The engine keeps a
//! `SELECT`'s compiled plan ([`crate::CompiledPlan`]) with the plan itself,
//! so a warm run derives nothing again; a plan that is not kept is compiled,
//! run once and dropped, the same path.
//!
//! # Rows, or the pages that hold them
//!
//! A scan hands the operator above it a `ScanOutput`. Under an operator that
//! only reads its rows — an aggregate, a join's probe side — a page scan
//! runs holding: `Pages` reads each answer through its page index as it
//! arrives, so what ends the scan is known at once, but keeps the answer and
//! how many of its lines it keeps instead of building rows, and the operator
//! reads the held pages a line at a time into one reused row. Every other
//! scan decodes its rows as its pages arrive, so no decoding moves past a
//! timer-bound scan's last round trip. The rows, their order, the ledger and
//! a cut scan's prefix are the same either way. Nothing is kept across runs:
//! the held answers are dropped with the operator's input.
//!
//! Which prompts are compiled and which are rendered per run:
//!
//! * **Compiled:** every full `row_batch` page (`limit` = the page size, at
//!   a multiple of it, within the cardinality hint), the key enumeration of
//!   the per-tuple strategies, and a whole query's `full_query` prompt. Such
//!   a prompt is rendered the first time it is asked through a client whose
//!   request table keeps answers; every later run starts its call from the
//!   kept key ([`llmsql_llm::LlmClient::start_kept`]), so a warm page that
//!   the table answers renders no prompt, builds no request and hashes
//!   nothing. Where such a prompt fills the window with nothing in flight
//!   ahead of it (parallelism 1, or a window of one page), nothing else can
//!   be admitted before its answer is consumed, so a table hit is taken
//!   straight from the kept key ([`llmsql_llm::LlmClient::kept_answer`]),
//!   with no call on the event loop: the prompts, their order and the ledger
//!   are the call's. Without such a table (no cache) a key would not outlive
//!   its flight, so nothing is kept and these prompts render per run as
//!   well.
//! * **Rendered per run:** a budget-clamped last page (its `limit` depends
//!   on how many rows earlier pages parsed), the pages of a scan whose model
//!   gives no cardinality hint (nothing bounds how many there are), and the
//!   per-tuple prompts — lookups and filter checks name keys an earlier
//!   answer gave — packed as below.
//!
//! Everything that is not prompt content lives once, in `Driver::drive`:
//!
//! * **The window.** Model calls dominate query latency, so a scan keeps
//!   several prompts in flight: prompt *i* may be in flight iff
//!   `i < consumed + W`, where `consumed` counts the answers the plan has
//!   taken — strictly in prompt order — and `W` is the plan's window, at
//!   most the fanout, `EngineConfig::parallelism` (at least 1). After
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
//!   and fires mid-flight on the reactor (a full-query answer landing past
//!   it counts as lapsed). A lapsed deadline or a backend-layer failure
//!   fails the query — or, with `EngineConfig::partial_results`, cuts the
//!   scan short: consumption stops at the first failed answer, so every
//!   strategy delivers exactly the rows for which all the prompts it needs
//!   were answered before that point (a prefix in page, key or stored-row
//!   order; nothing while the filter checks of a decomposed scan are still
//!   to come; nothing, for a full-query), labelled by an [`Incomplete`]
//!   marker.
//! * **Everything drains.** When a plan finishes early (`Accepted::done`),
//!   is cut, or fails, the requests still in flight are cancelled by drop
//!   before `drive` returns: call slots, in-flight gauges, hedge permits,
//!   breaker probes and request-table flights are back to zero, and a dropped
//!   coalescing leader hands over to its followers.
//!
//! When the client wraps a `BackendPool`, the requests in flight spread
//! across its endpoints per the routing policy. That is invisible here:
//! pooled backends are semantically identical and failover happens inside
//! the pool, so rows and logical calls stay byte-identical.

mod pages;
mod tuples;

use std::borrow::Cow;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use llmsql_llm::prompt::PromptTemplate;
use llmsql_llm::{
    pack_keys, split_sections, Answer, ClientCall, CompletionRequest, Page, RequestKey,
};
use llmsql_plan::BoundExpr;
use llmsql_store::Table;
use llmsql_types::{
    DataType, Error, ErrorKind, Incomplete, PromptStrategy, Result, Row, Schema, Value,
};

use crate::context::ExecContext;
use crate::eval::eval_predicate;
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

    /// The scan of every candidate row: no filter, no pushed limit.
    fn candidates(self) -> Self {
        ScanSpec {
            pushed_filter: None,
            pushed_limit: None,
            ..self
        }
    }

    /// The per-scan row budget under the configured `max_scan_rows`.
    fn row_budget(&self, max_scan_rows: usize) -> usize {
        self.pushed_limit.unwrap_or(usize::MAX).min(max_scan_rows)
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

    /// The display form of `row`'s key, as per-tuple prompts name an entity:
    /// a text key is borrowed from the row.
    fn key_text<'r>(&self, row: &'r Row) -> Cow<'r, str> {
        match row.get(self.table_schema.key_column()) {
            Value::Text(key) => Cow::Borrowed(key),
            key => Cow::Owned(key.to_display_string()),
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// One request on the event loop: a [`ClientCall`] and the non-blocking slot
/// gate with its wait measurement. It never leaves the query's thread, so it
/// borrows the query's context for its ledger and slot pool. The ledger is
/// written once per request, when the request leaves the loop — handed back
/// resolved or dropped in flight — with what the request itself did
/// ([`crate::ExecMetrics::record_request`]).
struct RequestOp<'a> {
    ctx: &'a ExecContext<'a>,
    call: ClientCall,
    /// When this op first found the slot pool saturated.
    slot_wait_started: Option<Instant>,
    /// How long the op had been parked when the pool granted its slot, µs.
    slot_wait_us: Option<u64>,
    /// What the call resolved to, for the waiter to take.
    answer: Option<Result<Arc<Answer>>>,
}

impl Completion for RequestOp<'_> {
    fn poll(&mut self, now: Instant) -> bool {
        let slots = self.ctx.slots;
        let slot_wait_started = &mut self.slot_wait_started;
        let slot_wait_us = &mut self.slot_wait_us;
        // The admission gate: grant immediately without a pool; otherwise
        // try_acquire and note the parked wait on grant.
        let mut gate = || -> Option<Box<dyn std::any::Any + Send>> {
            let Some(slots) = slots else {
                return Some(Box::new(()));
            };
            let Some(guard) = slots.try_acquire_owned() else {
                slot_wait_started.get_or_insert(now);
                return None;
            };
            let waited_us = slot_wait_started.take().map_or(0, |since| {
                now.saturating_duration_since(since).as_micros() as u64
            });
            *slot_wait_us = Some(waited_us);
            slots.record_blocked_wait(waited_us);
            Some(Box::new(guard))
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
        if let Ok(mut ledger) = self.ctx.metrics.try_borrow_mut() {
            ledger.record_request(&self.call, self.slot_wait_us);
        }
    }
}

/// The requests of one scan in flight, oldest first, on the scan's own event
/// loop. Under a cross-query scheduler each holds a global call slot while in
/// flight, which delays dispatch but never changes the prompt set. Dropping
/// it cancels whatever has not resolved.
struct InFlight<'a> {
    ctx: &'a ExecContext<'a>,
    live: LiveSet<RequestOp<'a>>,
    /// The requests the window lets fly at once: the room the live set
    /// takes at its first request. A scan whose every prompt is a table hit
    /// taken without a call never takes it.
    window: usize,
}

impl<'a> InFlight<'a> {
    /// An empty flight for up to `window` requests at once.
    fn new(ctx: &'a ExecContext<'a>, window: usize) -> Self {
        InFlight {
            ctx,
            live: LiveSet::default(),
            window,
        }
    }

    /// Put an already-accounted request in flight.
    fn push(&mut self, call: ClientCall) {
        if self.live.is_empty() {
            self.live.reserve(self.window);
        }
        self.live.push(RequestOp {
            ctx: self.ctx,
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
    fn wait_head(&mut self) -> Result<Arc<Answer>> {
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
enum Asks<'p> {
    /// One whole prompt, rendered for this run: a page the compiled scan
    /// keeps no key for.
    Prompt(String),
    /// One prompt the compiled scan fixes — a full page, the key
    /// enumeration, a whole query — and the cell its request key is kept in:
    /// rendered the first time it is asked through a client with a request
    /// table, and never again ([`llmsql_llm::LlmClient::start_kept`]).
    Kept(&'p OnceLock<RequestKey>, Render<'p>),
    /// Per-tuple prompts, each `template.render_key(key)`, a key borrowed
    /// from the plan's row where it can be. The driver packs them into one
    /// request ([`pack_keys`]), which states each template's fixed text once.
    Keys(Vec<(Rc<PromptTemplate>, Cow<'p, str>)>),
}

/// How a kept prompt is written, the times it has to be.
enum Render<'p> {
    /// A page of a template: its limit and offset.
    Page(&'p PromptTemplate, usize, usize),
    /// A prompt rendered when the scan was compiled.
    Text(&'p str),
}

impl Render<'_> {
    fn text(&self) -> String {
        match *self {
            Render::Page(template, limit, offset) => template.render_page(limit, offset),
            Render::Text(text) => text.to_owned(),
        }
    }
}

/// A prompt a compiled scan asks once per run — the key enumeration, a
/// whole query — rendered once, and its request key once a run through a
/// client with a request table has asked it.
pub(super) struct KeptPrompt {
    text: String,
    key: OnceLock<RequestKey>,
}

impl KeptPrompt {
    fn new(text: String) -> Self {
        KeptPrompt {
            text,
            key: OnceLock::new(),
        }
    }

    fn ask(&self) -> Asks<'_> {
        Asks::Kept(&self.key, Render::Text(&self.text))
    }
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
    fn next(&mut self, cap: usize) -> Result<Option<Asks<'_>>>;

    /// Consume the answer to the oldest prompt in flight. Called in prompt
    /// order, and never past a failed answer.
    fn accept(&mut self, reply: Reply<'_>) -> Result<Accepted>;
}

/// The answer to one prompt.
struct Reply<'a> {
    /// The text the model replied to the prompt with, borrowed from the
    /// completion it travelled in.
    text: &'a str,
    /// That completion, when the prompt travelled alone: its page index is
    /// this prompt's, and a plan may hold on to it.
    alone: Option<&'a Arc<Answer>>,
}

impl<'a> Reply<'a> {
    /// The reply read as pipe-separated rows of `types`: through the index
    /// its completion keeps, when it has one of its own.
    fn page(&self, types: &Arc<[DataType]>) -> Result<Page<'a>> {
        match self.alone {
            Some(answer) => answer.page(types),
            None => Page::read(self.text, types),
        }
    }
}

/// What consuming one answer did: whether the plan is finished, and what
/// the driver folds into the query's ledger for it.
#[derive(Default)]
struct Accepted {
    /// The plan is finished; requests still in flight are cancelled.
    done: bool,
    /// Lines of the answer that did not parse.
    dropped_lines: u64,
    /// Stored NULL cells the answer filled.
    cells_filled: u64,
}

/// An answer arrived that no prompt in flight asked for: a driver bug.
fn unasked() -> Error {
    Error::execution("an answer arrived for no prompt in flight")
}

/// Hand `plan` the answer to its oldest request, which carried `asked`
/// prompts, and fold what it did into the ledger. True when the plan is
/// finished.
fn consume<P: PromptPlan>(
    ctx: &ExecContext<'_>,
    plan: &mut P,
    asked: usize,
    response: &Arc<Answer>,
) -> Result<bool> {
    let mut ledger = ctx.metrics.borrow_mut();
    ledger.batched_rows += if asked > 1 { asked as u64 } else { 0 };
    let alone = (asked == 1).then_some(response);
    for text in split_sections(&response.text, asked) {
        let accepted = plan.accept(Reply { text, alone })?;
        ledger.dropped_lines += accepted.dropped_lines;
        ledger.cells_filled_by_llm += accepted.cells_filled;
        if accepted.done {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Runs the plans of one scan: the one dispatch loop, and the one place each
/// dispatch policy lives (see the module docs).
struct Driver<'a> {
    ctx: &'a ExecContext<'a>,
    /// The fault that cut this scan short under `partial_results`. Once set,
    /// no plan of the scan issues another prompt.
    cut: Option<Error>,
}

impl Driver<'_> {
    /// Drive `plan` until it is finished or the scan is cut short.
    fn drive<P: PromptPlan>(&mut self, plan: &mut P) -> Result<()> {
        let ctx = self.ctx;
        let client = ctx.require_client()?;
        let fanout = ctx.config.parallelism.max(1);
        let batch = ctx.config.batch_rows_per_call.clamp(1, fanout);
        let per_request = if P::PACKS { batch } else { 1 };
        let mut flight = InFlight::new(ctx, fanout / per_request);
        // How many prompts each request in flight carries, oldest first, and
        // their sum.
        let mut members: VecDeque<usize> = VecDeque::new();
        let mut prompts_in_flight = 0;
        while self.cut.is_none() {
            // Admit every request the window has room for: prompt `i` is
            // eligible iff `i < consumed + window`.
            loop {
                let window = plan.window().clamp(1, fanout);
                if prompts_in_flight + per_request > window {
                    break;
                }
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
                // A kept prompt that fills the window, nothing in flight
                // ahead of it: nothing else can be admitted before its
                // answer is consumed, so when the request table holds that
                // answer the prompt goes straight from its key to it, with
                // no call on the event loop — and the ledger reads as the
                // call's would: one logical call, one cache hit.
                let held = match &asks {
                    Asks::Kept(key, _) if window == 1 && members.is_empty() => {
                        client.kept_answer(key)
                    }
                    _ => None,
                };
                if let Some(answer) = held {
                    drop(asks);
                    let mut ledger = ctx.metrics.borrow_mut();
                    ledger.record_llm_call(P::KIND);
                    ledger.usage.cache_hits += 1;
                    ledger.peak_in_flight = ledger.peak_in_flight.max(1);
                    drop(ledger);
                    if consume(ctx, plan, 1, &answer)? {
                        return Ok(());
                    }
                    continue;
                }
                let (call, asked, rendered) = match asks {
                    Asks::Prompt(prompt) => {
                        (client.start_call(CompletionRequest::new(prompt)), 1, 1)
                    }
                    Asks::Kept(key, render) => {
                        let (call, rendered) = client.start_kept(key, || render.text());
                        (call, 1, usize::from(rendered))
                    }
                    Asks::Keys(keys) => {
                        let members = keys.iter().map(|(t, key)| (&**t, &**key));
                        let request = CompletionRequest::new(pack_keys(members));
                        (client.start_call(request), keys.len(), keys.len())
                    }
                };
                // Logical calls are recorded per planned prompt, so the
                // budget charge and `llm_calls_by_kind` are the same at any
                // batch size.
                let mut ledger = ctx.metrics.borrow_mut();
                for _ in 0..asked {
                    ledger.record_llm_call(P::KIND);
                }
                ledger.prompts_rendered += rendered as u64;
                drop(ledger);
                flight.push(call);
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
            if consume(ctx, plan, asked, &response)? {
                // The flight drops with the requests still in it.
                return Ok(());
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

    /// The scan delivers `rows`: if it was cut short, record the fault and
    /// the accounting at the cut as the query's [`Incomplete`] marker (the
    /// first cut of a query wins).
    fn finish(self, rows: usize) {
        if let Some(err) = self.cut {
            let mut ledger = self.ctx.metrics.borrow_mut();
            let calls_spent = ledger.llm_calls();
            ledger.incomplete.get_or_insert(Incomplete {
                kind: err.kind,
                message: err.message,
                rows_delivered: rows as u64,
                calls_spent,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// The scans
// ---------------------------------------------------------------------------

/// Scan a materialized table, applying the pushed filter locally.
pub fn table_scan(ctx: &ExecContext<'_>, spec: &ScanSpec<'_>, table: &Table) -> Result<Vec<Row>> {
    let mut rows = Vec::new();
    let budget = spec.row_budget(ctx.config.max_scan_rows);
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

/// Materialize a virtual relation by prompting the model: the scan compiled
/// for this one run (see the module docs).
pub fn llm_scan(ctx: &ExecContext<'_>, spec: &ScanSpec<'_>) -> Result<Vec<Row>> {
    ModelScan::new(ctx, spec)?
        .run(ctx, spec, false)?
        .into_rows()
}

/// What a model scan of one plan node derives from the node, the
/// configuration and the client's cardinality hint alone (see the module
/// docs). A compiled plan builds one per model scan, and every run of the
/// plan reads it.
pub(crate) enum ModelScan {
    /// `row_batch` pages: batched rows, and the full-query strategy where a
    /// scan runs on its own.
    Pages(pages::PageScan),
    /// The key enumeration and the per-tuple prompts it leads to.
    Tuples(tuples::TupleScan),
}

impl ModelScan {
    /// Compile the model scan of `spec` under the context's configuration.
    pub(crate) fn new(ctx: &ExecContext<'_>, spec: &ScanSpec<'_>) -> Result<Self> {
        let config = ctx.config;
        let filter = spec.prompt_filter()?;
        Ok(match config.strategy {
            PromptStrategy::TupleAtATime | PromptStrategy::DecomposedOperators => {
                let decomposed = config.strategy == PromptStrategy::DecomposedOperators;
                let scan = tuples::TupleScan::new(*spec, filter, decomposed, config.max_scan_rows);
                ModelScan::Tuples(scan)
            }
            // Under FullQuery a scan reaches here in Hybrid mode (only LlmOnly
            // answers a whole plan with one prompt, `crate::execute`): it
            // pages.
            PromptStrategy::BatchedRows | PromptStrategy::FullQuery => {
                // Relation-cardinality hint: `LlmClient::relation_cardinality`
                // asked the model the first time any scan, plan or EXPLAIN on
                // this client named the table and has held the answer since,
                // so every scan of a relation pages to the same end.
                let hint = ctx.require_client()?.relation_cardinality(spec.table);
                let (page, max_rows) = (config.batch_size, config.max_scan_rows);
                let scan = pages::PageScan::new(*spec, filter.as_deref(), page, max_rows, hint);
                ModelScan::Pages(scan)
            }
        })
    }

    /// Run the scan of `spec`, the plan node it was compiled from. With
    /// `hold`, for an operator that only reads the rows, a page scan keeps
    /// the pages that hold them instead of decoding them (see
    /// [`ScanOutput`]); every other scan hands over its rows.
    pub(crate) fn run(
        &self,
        ctx: &ExecContext<'_>,
        spec: &ScanSpec<'_>,
        hold: bool,
    ) -> Result<ScanOutput<'_>> {
        let mut driver = Driver { ctx, cut: None };
        let rows = match self {
            ModelScan::Pages(scan) => {
                let mut pages = if hold {
                    pages::Pages::holding(scan)
                } else {
                    pages::Pages::new(scan)
                };
                driver.drive(&mut pages)?;
                pages.into_output()
            }
            ModelScan::Tuples(scan) => match &scan.condition {
                None => ScanOutput::Rows(tuple_rows(&mut driver, *spec, &scan.enumerate)?),
                // The filter becomes its own operator: materialize
                // candidates without it, then check each. The row budget
                // caps the rows the filter *keeps*, so every key up to the
                // scan cap is a candidate.
                Some(condition) => {
                    let candidates = tuple_rows(&mut driver, spec.candidates(), &scan.enumerate)?;
                    let budget = spec.row_budget(ctx.config.max_scan_rows);
                    let mut checks =
                        tuples::FilterChecks::new(*spec, condition, budget, candidates);
                    driver.drive(&mut checks)?;
                    ScanOutput::Rows(checks.kept)
                }
            },
        };
        driver.finish(rows.len());
        ctx.metrics.borrow_mut().rows_from_llm += rows.len() as u64;
        Ok(rows)
    }
}

/// What a scan hands the operator above it: its rows, or — for a page scan
/// whose operator only reads them, the input of an aggregate or the probe
/// side of a join — the pages that hold them, each kept line decoded only
/// when it is read, into one reused row.
pub(crate) enum ScanOutput<'c> {
    /// The rows, decoded.
    Rows(Vec<Row>),
    /// The consumed pages of a page scan.
    Pages(pages::HeldPages<'c>),
}

impl ScanOutput<'_> {
    /// The rows the scan delivered.
    pub(crate) fn len(&self) -> usize {
        match self {
            ScanOutput::Rows(rows) => rows.len(),
            ScanOutput::Pages(pages) => pages.len(),
        }
    }

    /// The rows, each its own allocation.
    pub(crate) fn into_rows(self) -> Result<Vec<Row>> {
        match self {
            ScanOutput::Rows(rows) => Ok(rows),
            ScanOutput::Pages(pages) => {
                let mut rows = Vec::with_capacity(pages.len());
                pages.for_each_row(&mut |row: &Row| {
                    rows.push(row.clone());
                    Ok(())
                })?;
                Ok(rows)
            }
        }
    }

    /// Hand each row to `each`, in order. Held pages are decoded a line at a
    /// time into one row, which `each` only borrows.
    pub(crate) fn for_each_row(&self, mut each: impl FnMut(&Row) -> Result<()>) -> Result<()> {
        match self {
            ScanOutput::Rows(rows) => rows.iter().try_for_each(each),
            ScanOutput::Pages(pages) => pages.for_each_row(&mut each),
        }
    }
}

/// Enumerate the keys by `prompt` (with the pushed filter in it, if any),
/// then look up the other needed columns of each, a window of them at a
/// time.
fn tuple_rows(
    driver: &mut Driver<'_>,
    spec: ScanSpec<'_>,
    prompt: &KeptPrompt,
) -> Result<Vec<Row>> {
    let budget = spec.row_budget(driver.ctx.config.max_scan_rows);
    let mut keys = tuples::Enumerate::new(spec, budget, prompt);
    driver.drive(&mut keys)?;
    let mut lookups = tuples::Lookups::new(spec, keys.rows, false, budget);
    driver.drive(&mut lookups)?;
    Ok(lookups.rows)
}

pub(crate) use pages::WholeQuery;

/// Answer a whole query with its compiled `full_query` prompt. An answer
/// landing past the deadline is a lapse.
pub(crate) fn whole_query_scan(ctx: &ExecContext<'_>, query: &WholeQuery) -> Result<Vec<Row>> {
    let mut driver = Driver { ctx, cut: None };
    let mut whole = pages::Whole::new(query);
    driver.drive(&mut whole)?;
    // One prompt has no later admission to notice a lapsed deadline.
    let late = ctx.check_deadline().err().filter(|_| driver.cut.is_none());
    if let Some(err) = late {
        driver.cut_short(err)?;
        whole.rows.clear();
    }
    driver.finish(whole.rows.len());
    ctx.metrics.borrow_mut().rows_from_llm += whole.rows.len() as u64;
    Ok(whole.rows)
}

/// Read a materialized (incomplete) table and fill NULL cells in the needed
/// columns by asking the model, a window of lookups at a time.
pub fn hybrid_scan(ctx: &ExecContext<'_>, spec: &ScanSpec<'_>, table: &Table) -> Result<Vec<Row>> {
    let mut driver = Driver { ctx, cut: None };
    let budget = spec.row_budget(ctx.config.max_scan_rows);
    let mut fills = tuples::Lookups::new(*spec, table.scan(), true, budget);
    driver.drive(&mut fills)?;
    driver.finish(fills.rows.len());
    ctx.metrics.borrow_mut().rows_from_store += fills.rows.len() as u64;
    Ok(fills.rows)
}

#[cfg(test)]
mod tests {
    use super::pages::{PageScan, Pages};
    use super::tuples::{enumeration, missing, Enumerate, FilterChecks, Lookups};
    use super::*;
    use llmsql_llm::prompt::TaskSpec;
    use llmsql_llm::{CallSlots, CompletionResponse, KnowledgeBase, LlmClient, SimLlm};
    use llmsql_plan::estimate_scan_rows;
    use llmsql_store::Catalog;
    use llmsql_types::{
        clock, Column, DataType, EngineConfig, ExecutionMode, LlmFidelity, RelSchema, Value,
    };
    use std::sync::Arc;

    // -----------------------------------------------------------------------
    // The relation: five countries, and the specs of scans over them
    // -----------------------------------------------------------------------

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

    pub(super) fn world_rows() -> Vec<Row> {
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

    /// `count` countries in Europe with populations 0, 1, 2, …, the first
    /// two named as the hybrid fixture's stored rows are.
    pub(super) fn numbered_rows(count: usize) -> Vec<Row> {
        (0..count)
            .map(|i| {
                let name = match i {
                    0 => "France".to_string(),
                    1 => "Japan".to_string(),
                    _ => format!("Country {i:03}"),
                };
                Row::new(vec![name.into(), "Europe".into(), Value::Int(i as i64)])
            })
            .collect()
    }

    /// Owns the borrowed parts of a [`ScanSpec`] for tests.
    pub(super) struct SpecParts {
        pub(super) schema: Schema,
        pub(super) filter: Option<BoundExpr>,
        pub(super) prompt_columns: Option<Vec<usize>>,
        pub(super) pushed_limit: Option<usize>,
    }

    pub(super) fn parts(
        filter: Option<BoundExpr>,
        prompt_columns: Option<Vec<usize>>,
    ) -> SpecParts {
        SpecParts {
            schema: country_schema(),
            filter,
            prompt_columns,
            pushed_limit: None,
        }
    }

    impl SpecParts {
        pub(super) fn spec(&self) -> ScanSpec<'_> {
            ScanSpec {
                table: "countries",
                table_schema: &self.schema,
                pushed_filter: self.filter.as_ref(),
                prompt_columns: self.prompt_columns.as_deref(),
                pushed_limit: self.pushed_limit,
            }
        }
    }

    pub(super) fn gt_filter(population: i64) -> BoundExpr {
        BoundExpr::Binary {
            left: Box::new(BoundExpr::col(2, "population", DataType::Int)),
            op: llmsql_sql::ast::BinaryOp::Gt,
            right: Box::new(BoundExpr::lit(population)),
        }
    }

    /// `population < bound`.
    pub(super) fn lt_filter(bound: i64) -> BoundExpr {
        BoundExpr::Binary {
            left: Box::new(BoundExpr::col(2, "population", DataType::Int)),
            op: llmsql_sql::ast::BinaryOp::Lt,
            right: Box::new(BoundExpr::lit(bound)),
        }
    }

    /// `population BETWEEN low AND high`.
    pub(super) fn between_filter(low: i64, high: i64) -> BoundExpr {
        BoundExpr::Between {
            expr: Box::new(BoundExpr::col(2, "population", DataType::Int)),
            low: Box::new(BoundExpr::lit(low)),
            high: Box::new(BoundExpr::lit(high)),
            negated: false,
        }
    }

    /// `region = 'Europe'`: every row of [`numbered_rows`].
    pub(super) fn in_europe() -> BoundExpr {
        BoundExpr::Binary {
            left: Box::new(BoundExpr::col(1, "region", DataType::Text)),
            op: llmsql_sql::ast::BinaryOp::Eq,
            right: Box::new(BoundExpr::lit("Europe")),
        }
    }

    /// The `row_batch` prompt of page `index` of a scan in pages of `page`.
    pub(super) fn page_prompt(p: &SpecParts, page: usize, index: usize) -> String {
        TaskSpec::RowBatch {
            table: "countries".into(),
            columns: (p.spec().needed_columns().iter())
                .map(|&c| p.schema.columns[c].name.clone())
                .collect(),
            filter: p.spec().prompt_filter().unwrap(),
            limit: page,
            offset: index * page,
        }
        .to_prompt(Some(&p.schema))
    }

    /// The `lookup` prompt asking `key` for `columns`.
    pub(super) fn lookup_prompt(key: &str, columns: &[usize]) -> String {
        let schema = country_schema();
        TaskSpec::Lookup {
            table: "countries".into(),
            key: key.into(),
            columns: columns
                .iter()
                .map(|&c| schema.columns[c].name.clone())
                .collect(),
        }
        .to_prompt(Some(&schema))
    }

    // -----------------------------------------------------------------------
    // Plans on given answers: no context, client or model
    // -----------------------------------------------------------------------

    /// What a plan planned and consumed on given answers.
    #[derive(Debug, Default, PartialEq)]
    pub(super) struct Replay {
        /// Every prompt planned, in order, each as the model reads it alone.
        pub(super) prompts: Vec<String>,
        /// For each prompt, how many answers had been consumed when it was
        /// planned.
        pub(super) planned_after: Vec<usize>,
        /// The answers consumed.
        pub(super) consumed: usize,
        /// `Accepted::dropped_lines`, summed over the answers consumed.
        pub(super) dropped_lines: u64,
        /// `Accepted::cells_filled`, summed over the answers consumed.
        pub(super) cells_filled: u64,
    }

    /// Run `plan` the way [`Driver::drive`] runs it, on answers given by
    /// `answer(i, prompt)` for the `i`-th prompt planned: prompt `i` is
    /// planned iff `i < consumed + window` (the window clamped to
    /// `1..=fanout`), per-tuple prompts `batch` to a request, `calls`
    /// prompts in all, answers consumed oldest first until the plan is done
    /// or nothing is left in flight. Fails if a `next(cap)` plans more than
    /// `cap` prompts.
    pub(super) fn replay<P: PromptPlan>(
        plan: &mut P,
        fanout: usize,
        batch: usize,
        calls: usize,
        answer: impl Fn(usize, &str) -> String,
    ) -> Replay {
        let per_request = if P::PACKS { batch.clamp(1, fanout) } else { 1 };
        let mut out = Replay::default();
        let mut requests = VecDeque::new();
        let mut in_flight = 0;
        loop {
            while in_flight + per_request <= plan.window().clamp(1, fanout) {
                let cap = per_request.min(calls.saturating_sub(out.prompts.len()));
                let Some(asks) = plan.next(cap).unwrap() else {
                    break;
                };
                let prompts: Vec<String> = match asks {
                    Asks::Prompt(prompt) => vec![prompt],
                    Asks::Kept(_, render) => vec![render.text()],
                    Asks::Keys(keys) => keys.iter().map(|(t, key)| t.render_key(key)).collect(),
                };
                // Only the key enumeration is asked on a spent budget.
                assert!(
                    prompts.len() <= cap || P::KIND == "enumerate",
                    "{} {} prompts planned at cap {cap}",
                    prompts.len(),
                    P::KIND
                );
                let planned_after = std::iter::repeat_n(out.consumed, prompts.len());
                out.planned_after.extend(planned_after);
                requests.push_back(prompts.len());
                in_flight += prompts.len();
                out.prompts.extend(prompts);
            }
            let Some(asked) = requests.pop_front() else {
                return out;
            };
            in_flight -= asked;
            for _ in 0..asked {
                let i = out.consumed;
                let given = given(answer(i, &out.prompts[i]));
                let accepted = plan.accept(alone(&given)).unwrap();
                out.consumed += 1;
                out.dropped_lines += accepted.dropped_lines;
                out.cells_filled += accepted.cells_filled;
                if accepted.done {
                    return out;
                }
            }
        }
    }

    /// `text` as a completion the model returned.
    pub(super) fn given(text: String) -> Arc<Answer> {
        Arc::from(CompletionResponse {
            text,
            prompt_tokens: 1,
            completion_tokens: 1,
            latency_ms: 0.0,
            cost_usd: 0.0,
        })
    }

    /// The reply of a prompt that travelled alone and was answered `answer`.
    pub(super) fn alone(answer: &Arc<Answer>) -> Reply<'_> {
        Reply {
            text: &answer.text,
            alone: Some(answer),
        }
    }

    /// The value of the header line `name: …` of `prompt`.
    pub(super) fn field<'p>(prompt: &'p str, name: &str) -> &'p str {
        prompt
            .lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(": "))
            .unwrap_or_else(|| panic!("no `{name}:` line in {prompt}"))
    }

    /// The columns a lookup `prompt` asks for.
    fn asked_columns(prompt: &str) -> Vec<usize> {
        let schema = country_schema();
        (field(prompt, "columns").split(" | "))
            .map(|name| schema.index_of(name).unwrap())
            .collect()
    }

    /// `row`'s cells at `columns`, as a model writes one answer line.
    fn line_of(row: &Row, columns: &[usize]) -> String {
        let cells: Vec<String> = columns
            .iter()
            .map(|&c| row.get(c).to_display_string())
            .collect();
        cells.join(" | ")
    }

    /// A model that knows `rows` and answers each page its slice of them, in
    /// the asked `columns`.
    pub(super) fn pages_of(rows: Vec<Row>, columns: Vec<usize>) -> impl Fn(usize, &str) -> String {
        move |_, prompt| {
            let offset: usize = field(prompt, "offset").parse().unwrap();
            let limit: usize = field(prompt, "limit").parse().unwrap();
            let page = rows.iter().skip(offset).take(limit);
            let lines: Vec<String> = page.map(|row| line_of(row, &columns)).collect();
            lines.join("\n")
        }
    }

    /// A model that knows `rows` and answers each lookup with the asked
    /// columns of the row named by its key.
    pub(super) fn lookups_in(rows: Vec<Row>) -> impl Fn(usize, &str) -> String {
        move |_, prompt| {
            let key = field(prompt, "key");
            let row = rows
                .iter()
                .find(|row| row.get(0).to_display_string() == key);
            row.map(|row| line_of(row, &asked_columns(prompt)))
                .unwrap_or_default()
        }
    }

    /// Two stored countries, each with one NULL cell the model can fill.
    pub(super) fn stored_with_nulls() -> Vec<Row> {
        vec![
            Row::new(vec!["France".into(), "Europe".into(), Value::Null]),
            Row::new(vec!["Japan".into(), Value::Null, Value::Int(125)]),
        ]
    }

    /// What a plan planned and consumed on given answers, and its rows.
    type Run = (Replay, Vec<Row>);

    proptest::proptest! {
        /// Every plan, fed seeded answers of every awkward shape — short,
        /// empty and overlong pages, answers past the hint, key lists with
        /// duplicates, blank lookups, hedged checks, chatter lines before
        /// any of them — keeps the invariants the driver relies on:
        /// * what it plans depends only on the answers it has consumed: at
        ///   any window and packing it plans the sequential run's prompts,
        ///   consumes the same answers and delivers the same rows, and where
        ///   one run plans further the other's prompts are a prefix of its;
        /// * no page past the cardinality hint is planned;
        /// * no `next(cap)` plans more than `cap` prompts (checked in
        ///   [`replay`]), so no run plans more than its call budget;
        /// * the same answers twice plan the same prompts twice.
        #[test]
        fn every_plan_on_given_answers_keeps_the_drivers_invariants(
            shapes in proptest::collection::vec((0usize..5, 0usize..3), 1..24),
            scan in (
                1usize..6,
                proptest::option::of(0u64..30),
                proptest::option::of(1usize..20),
                proptest::option::of(0i64..30),
            ),
            schedule in (1usize..17, 1usize..6, 1usize..40),
        ) {
            let (page, hint, limit, keep) = scan;
            let (fanout, batch, calls) = schedule;
            let mut p = parts(keep.map(lt_filter), None);
            p.pushed_limit = limit;
            let spec = p.spec();
            let text = spec.prompt_filter().unwrap();
            let budget = spec.row_budget(usize::MAX);
            let answer = |i: usize, prompt: &str| {
                let (shape, chatter) = shapes[i % shapes.len()];
                shaped_answer(shape, chatter, i, prompt)
            };
            // The stored rows of a hybrid fill: the shapes pick each row's
            // NULLs, and some names repeat.
            let stored_rows: Vec<Row> = shapes
                .iter()
                .enumerate()
                .map(|(i, &(shape, _))| {
                    let mut row = numbered_rows(30)[i % 7].clone();
                    for col in [1, 2].into_iter().filter(|col| shape & col != 0) {
                        row.set(col, Value::Null);
                    }
                    row
                })
                .collect();
            let keys: Vec<Row> = stored_rows
                .iter()
                .map(|row| Row::new(vec![row.get(0).clone(), Value::Null, Value::Null]))
                .collect();
            // Run a plan, built afresh by `plan(fanout, batch)`, at window 1
            // and at the drawn window and packing, and hold the runs to the
            // invariants.
            let schedules = |plan: &dyn Fn(usize, usize) -> Run| {
                let (sequential, expected) = plan(1, 1);
                for (fanout, batch) in [(fanout, batch), (16, 4)] {
                    let (spread, rows) = plan(fanout, batch);
                    let n = sequential.prompts.len().min(spread.prompts.len());
                    assert_eq!(sequential.prompts[..n], spread.prompts[..n], "not a prefix");
                    assert_eq!(sequential.consumed, spread.consumed);
                    assert_eq!(expected, rows);
                    assert_eq!(sequential.dropped_lines, spread.dropped_lines);
                    assert_eq!(sequential.cells_filled, spread.cells_filled);
                    assert_eq!(plan(fanout, batch), (spread, rows), "replayed");
                }
            };
            let pages = |fanout, batch| {
                let scan = PageScan::new(spec, text.as_deref(), page, usize::MAX, hint);
                let mut plan = Pages::new(&scan);
                (replay(&mut plan, fanout, batch, calls, answer), plan.rows)
            };
            schedules(&pages);
            let planned = pages(fanout, batch).0.prompts.len();
            proptest::prop_assert!(planned <= calls);
            if let Some(hint) = hint {
                proptest::prop_assert!(planned <= (hint as usize).div_ceil(page), "past the hint");
            }
            schedules(&|fanout, batch| {
                let prompt = enumeration(spec, text.as_deref(), budget);
                let mut plan = Enumerate::new(spec, budget, &prompt);
                (replay(&mut plan, fanout, batch, calls, answer), plan.rows)
            });
            for (source, stored) in [(&keys, false), (&stored_rows, true)] {
                schedules(&|fanout, batch| {
                    let mut plan = Lookups::new(spec, source.clone(), stored, budget);
                    (replay(&mut plan, fanout, batch, calls, answer), plan.rows)
                });
            }
            schedules(&|fanout, batch| {
                let mut plan = FilterChecks::new(spec, "population < 9", budget, keys.clone());
                (replay(&mut plan, fanout, batch, calls, answer), plan.kept)
            });
        }
    }

    /// The `i`-th answer of a model whose `shape` picks how it answers
    /// `prompt`, after `chatter` lines of commentary. A page is full (0),
    /// short (1), empty (2), overlong (3) or full with its first row repeated
    /// and its last line garbled (4), whatever the hint says; an enumeration lists a few keys, some twice,
    /// or none; a lookup answers, leaves a cell NULL or says nothing; a
    /// check says yes, no or something else.
    fn shaped_answer(shape: usize, chatter: usize, i: usize, prompt: &str) -> String {
        let world = numbered_rows(60);
        let mut lines = vec!["Here are the results:".to_string(); chatter];
        match field(prompt, "kind") {
            "row_batch" => {
                let offset: usize = field(prompt, "offset").parse().unwrap();
                let limit: usize = field(prompt, "limit").parse().unwrap();
                let count = [limit, limit / 2, 0, limit + 2, limit][shape];
                let page = world.iter().skip(offset).take(count);
                lines.extend(page.map(|row| line_of(row, &[0, 1, 2])));
                if shape == 4 && lines.len() > chatter + 2 {
                    let last = lines.len() - 1;
                    lines[last - 1] = lines[chatter].clone();
                    lines[last] = "garbled".into();
                }
            }
            "enumerate" => {
                let count = [3, 6, 0, 9, 5][shape];
                lines.extend((0..count).map(|k| world[(i + k) % 7].get(0).to_display_string()));
            }
            "lookup" => {
                let row = world
                    .iter()
                    .find(|row| row.get(0).to_display_string() == field(prompt, "key"));
                let columns = asked_columns(prompt);
                match (shape, row) {
                    (0 | 3 | 4, Some(row)) => lines.push(line_of(row, &columns)),
                    (1, _) => lines.push(vec!["NULL"; columns.len()].join(" | ")),
                    _ => {}
                }
            }
            _ => lines.push(["yes", "no", "unknown", "Yes.", "no"][shape].to_string()),
        }
        lines.join("\n")
    }

    // -----------------------------------------------------------------------
    // The driver: admission, cut-short, drain and completion order, over a
    // simulated model
    // -----------------------------------------------------------------------

    type Model = Arc<dyn llmsql_llm::LanguageModel>;

    /// A simulator that knows the five countries.
    fn sim(fidelity: LlmFidelity, seed: u64) -> Model {
        let mut kb = KnowledgeBase::new();
        kb.add_table(country_schema(), world_rows());
        Arc::new(SimLlm::new(kb.into_shared(), fidelity, seed))
    }

    /// What a scan's context borrows: a catalog, a client and the
    /// configuration.
    struct Setup {
        catalog: Catalog,
        client: LlmClient,
        config: EngineConfig,
    }

    impl Setup {
        /// A query's context over the setup; its deadline, the
        /// configuration's `deadline_ms`, starts running now.
        fn ctx(&self) -> ExecContext<'_> {
            let deadline_ms = self.config.deadline_ms;
            ExecContext::new(&self.catalog, Some(&self.client), &self.config, deadline_ms)
        }
    }

    fn context(strategy: PromptStrategy, fidelity: LlmFidelity) -> Setup {
        context_over(sim(fidelity, 7), strategy, |_| {})
    }

    /// The virtual-relation fixture over `model`; `tweak` adjusts its
    /// configuration.
    fn context_over(
        model: Model,
        strategy: PromptStrategy,
        tweak: impl FnOnce(&mut EngineConfig),
    ) -> Setup {
        context_with(LlmClient::new(model), strategy, tweak)
    }

    /// [`context_over`] a given client (and the prompt cache it holds).
    fn context_with(
        client: LlmClient,
        strategy: PromptStrategy,
        tweak: impl FnOnce(&mut EngineConfig),
    ) -> Setup {
        let catalog = Catalog::new();
        catalog.create_virtual_table(country_schema()).unwrap();
        let mut config = EngineConfig::default()
            .with_mode(ExecutionMode::LlmOnly)
            .with_strategy(strategy)
            .with_batch_size(2);
        tweak(&mut config);
        Setup {
            catalog,
            client,
            config,
        }
    }

    /// The LLM-backed scans: the three strategies over the virtual relation,
    /// the hybrid fill over the stored fixture, and the full-query answer
    /// to a `SELECT` of the virtual relation.
    #[derive(Debug, Clone, Copy)]
    enum Scan {
        Llm(PromptStrategy),
        Hybrid,
        Whole,
    }

    const SCANS: [Scan; 5] = [
        Scan::Llm(PromptStrategy::BatchedRows),
        Scan::Llm(PromptStrategy::TupleAtATime),
        Scan::Llm(PromptStrategy::DecomposedOperators),
        Scan::Hybrid,
        Scan::Whole,
    ];

    impl Scan {
        /// Build the fixture over `model`, let `tweak` adjust its
        /// configuration, and run the scan with `filter` pushed (for a
        /// full-query, in the statement's `WHERE` clause). Returns the rows
        /// and the query's ledger.
        fn run(
            self,
            model: Model,
            filter: Option<BoundExpr>,
            tweak: impl FnOnce(&mut EngineConfig),
        ) -> (Result<Vec<Row>>, crate::ExecMetrics) {
            let p = parts(filter, None);
            match self {
                Scan::Llm(strategy) => {
                    let setup = context_over(model, strategy, tweak);
                    let ctx = setup.ctx();
                    (llm_scan(&ctx, &p.spec()), ctx.metrics.into_inner())
                }
                Scan::Hybrid => {
                    let (setup, table) = hybrid_fixture_over(model, tweak);
                    let ctx = setup.ctx();
                    let rows = hybrid_scan(&ctx, &p.spec(), &table);
                    (rows, ctx.metrics.into_inner())
                }
                Scan::Whole => {
                    let setup = context_over(model, PromptStrategy::FullQuery, tweak);
                    let filter = p.spec().prompt_filter().unwrap();
                    let sql = format!(
                        "SELECT name, region, population FROM countries{}",
                        filter.map_or_else(String::new, |f| format!(" WHERE {f}"))
                    );
                    let output = RelSchema::from_table(&p.schema, "countries");
                    let ctx = setup.ctx();
                    let query = WholeQuery::new(&sql, &output, &p.schema);
                    let rows = whole_query_scan(&ctx, &query);
                    (rows, ctx.metrics.into_inner())
                }
            }
        }
    }

    #[test]
    fn lapsed_deadline_fails_the_scan_unless_partial_results_are_on() {
        // Already-lapsed deadline: the strict path fails before paying for a
        // prompt — a full-query's one prompt included; with partial results
        // on, every scan degrades to an empty prefix plus a structured marker
        // instead.
        for scan in SCANS {
            let model = sim(LlmFidelity::perfect(), 7);
            let (strict, m) = scan.run(model.clone(), None, |c| c.deadline_ms = Some(0.0));
            assert_eq!(strict.unwrap_err().kind, ErrorKind::DeadlineExceeded);
            assert_eq!(m.llm_calls(), 0, "{scan:?}");

            let (graceful, m) = scan.run(model, None, |c| {
                c.deadline_ms = Some(0.0);
                c.partial_results = true;
            });
            assert!(graceful.unwrap().is_empty(), "{scan:?}");
            let marker = m.incomplete.clone().unwrap();
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
            // A full-query's one prompt: nothing.
            (Scan::Whole, 0, Some(gt_filter(60)), 0),
        ];
        for (scan, healthy_calls, filter, survivors) in cases {
            let uncut = scan.run(dying(u64::MAX), filter.clone(), |_| {}).0.unwrap();
            // Strict: the mid-scan loss fails the whole query.
            let (strict, _) = scan.run(dying(healthy_calls), filter.clone(), |_| {});
            assert_eq!(strict.unwrap_err().kind, ErrorKind::Llm, "{scan:?}");
            // Graceful: exactly the rows whose every prompt was answered
            // before the loss survive — a prefix of the uncut result — with
            // the fault and the accounting at the cut in the marker.
            let (graceful, m) =
                scan.run(dying(healthy_calls), filter, |c| c.partial_results = true);
            let rows = graceful.unwrap();
            assert_eq!(rows.len(), survivors, "{scan:?} after {healthy_calls}");
            assert_eq!(rows[..], uncut[..rows.len()], "{scan:?}: not a prefix");
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
        let free = context(PromptStrategy::BatchedRows, LlmFidelity::medium());
        let free_ctx = free.ctx();
        let expected = llm_scan(&free_ctx, &p.spec()).unwrap();
        let expected_calls = free_ctx.metrics.borrow().llm_calls();

        let slots = Arc::new(CallSlots::new(2));
        let mut throttled = context(PromptStrategy::BatchedRows, LlmFidelity::medium());
        throttled.config.parallelism = 8;
        let mut throttled_ctx = throttled.ctx();
        throttled_ctx.slots = Some(&slots);
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
            let setup = context_over(sim(LlmFidelity::perfect(), 7), strategy, |c| {
                c.deadline_ms = Some(2.0);
            });
            let ctx = setup.ctx();
            clock::park_until(Some(clock::now() + std::time::Duration::from_millis(5)));
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
        let free = context(PromptStrategy::BatchedRows, LlmFidelity::medium());
        let free_ctx = free.ctx();
        let expected = llm_scan(&free_ctx, &p.spec()).unwrap();
        let deadline = context_over(
            sim(LlmFidelity::medium(), 7),
            PromptStrategy::BatchedRows,
            |c| c.deadline_ms = Some(60_000.0),
        );
        let deadline_ctx = deadline.ctx();
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
            let mut setup = context(PromptStrategy::TupleAtATime, LlmFidelity::perfect());
            setup.config.parallelism = parallelism;
            // 1 enumerate + at most 2 lookups.
            setup.config.max_llm_calls = 3;
            let ctx = setup.ctx();
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
            let mut setup = context(PromptStrategy::BatchedRows, LlmFidelity::perfect());
            setup.config.parallelism = parallelism;
            setup.config.max_llm_calls = 4;
            let ctx = setup.ctx();
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
        let config = EngineConfig::default();
        let ctx = ExecContext::new(&catalog, None, &config, None);
        let p = parts(Some(gt_filter(60)), None);
        let rows = table_scan(&ctx, &p.spec(), &table).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(ctx.metrics.borrow().rows_from_store, 3);
    }

    /// [`stored_with_nulls`] over `model` in hybrid mode.
    fn hybrid_fixture_over(model: Model, tweak: impl FnOnce(&mut EngineConfig)) -> (Setup, Table) {
        hybrid_fixture_storing(model, stored_with_nulls(), tweak)
    }

    /// `stored` over `model` in hybrid mode; `tweak` adjusts the
    /// configuration.
    fn hybrid_fixture_storing(
        model: Model,
        stored: Vec<Row>,
        tweak: impl FnOnce(&mut EngineConfig),
    ) -> (Setup, Table) {
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
        let client = LlmClient::new(model);
        let setup = Setup {
            catalog,
            client,
            config,
        };
        (setup, table)
    }

    #[test]
    fn weak_model_loses_rows() {
        let weak = || context(PromptStrategy::BatchedRows, LlmFidelity::weak());
        let rows = llm_scan(&weak().ctx(), &parts(None, None).spec()).unwrap();
        // The weak model forgets entities and mangles lines: strictly fewer
        // than or equal to the real 5, and deterministic for the seed.
        assert!(rows.len() <= 5);
        let rows2 = llm_scan(&weak().ctx(), &parts(None, None).spec()).unwrap();
        assert_eq!(rows.len(), rows2.len());
    }

    #[test]
    fn parallel_scans_match_sequential_for_all_strategies() {
        // The logical calls are recorded under each plan's own kind.
        let kinds = |scan: Scan| match scan {
            Scan::Llm(PromptStrategy::BatchedRows) => vec!["row_batch"],
            Scan::Llm(PromptStrategy::DecomposedOperators) => {
                vec!["enumerate", "filter_check", "lookup"]
            }
            Scan::Llm(_) => vec!["enumerate", "lookup"],
            Scan::Hybrid => vec!["lookup"],
            Scan::Whole => vec!["full_query"],
        };
        // What `accept` hands back reaches the ledger, so the comparisons of
        // the moved counts below are not vacuous.
        let (mut dropped, mut filled) = (0, 0);
        for scan in SCANS {
            for fidelity in [LlmFidelity::perfect(), LlmFidelity::medium()] {
                let run = |parallelism: usize, batch_rows: usize| {
                    let (rows, m) = scan.run(sim(fidelity, 7), Some(gt_filter(40)), |c| {
                        c.parallelism = parallelism;
                        c.batch_rows_per_call = batch_rows;
                    });
                    (rows.unwrap(), m)
                };
                let (expected, seq) = run(1, 1);
                assert!(seq.llm_calls_by_kind.keys().eq(kinds(scan)), "{scan:?}");
                let delivered = seq.rows_from_llm + seq.rows_from_store;
                assert_eq!(delivered, expected.len() as u64, "{scan:?}");
                dropped += seq.dropped_lines;
                filled += seq.cells_filled_by_llm;
                for parallelism in [1, 2, 4, 8] {
                    for batch_rows in [1, 4] {
                        let at = format!("{scan:?} at parallelism {parallelism} x {batch_rows}");
                        let (got, m) = run(parallelism, batch_rows);
                        assert_eq!(expected, got, "rows diverged: {at}");
                        assert_eq!(
                            seq.llm_calls_by_kind, m.llm_calls_by_kind,
                            "logical calls diverged: {at}"
                        );
                        assert_eq!(seq.dropped_lines, m.dropped_lines, "drops diverged: {at}");
                        assert_eq!(
                            seq.cells_filled_by_llm, m.cells_filled_by_llm,
                            "fills diverged: {at}"
                        );
                        assert!(m.peak_in_flight >= 1);
                    }
                }
            }
        }
        assert!(
            dropped > 0 && filled > 0,
            "dropped {dropped}, filled {filled}"
        );
    }

    #[test]
    fn a_warm_page_scan_reads_the_cold_scans_rows_and_ledger() {
        // Two page scans through one client: the first fills its prompt
        // cache, the second is served every page from it and reads each
        // cached answer through the page index the first read built. Rows
        // and ledger are the cold scan's, the noisy model's dropped lines
        // included.
        let garbling = LlmFidelity {
            format_noise: 0.5,
            ..LlmFidelity::medium()
        };
        for parallelism in [1, 16] {
            let client = LlmClient::new(sim(garbling, 7));
            let run = || {
                let setup = context_with(client.clone(), PromptStrategy::BatchedRows, |c| {
                    c.parallelism = parallelism;
                });
                let ctx = setup.ctx();
                let rows = llm_scan(&ctx, &parts(None, None).spec()).unwrap();
                (rows, ctx.metrics.into_inner())
            };
            let (cold_rows, cold) = run();
            let (warm_rows, warm) = run();
            let at = format!("parallelism {parallelism}");
            assert_eq!(cold_rows, warm_rows, "{at}");
            assert!(cold.dropped_lines > 0, "{at}: the model dropped no line");
            assert_eq!(cold.dropped_lines, warm.dropped_lines, "{at}");
            assert_eq!(cold.rows_from_llm, warm.rows_from_llm, "{at}");
            assert_eq!(cold.llm_calls_by_kind, warm.llm_calls_by_kind, "{at}");
            let pages = cold.llm_calls_by_kind["row_batch"];
            assert_eq!(
                (cold.usage.calls, cold.usage.cache_hits),
                (pages, 0),
                "{at}"
            );
            assert_eq!(
                (warm.usage.calls, warm.usage.cache_hits),
                (0, pages),
                "{at}"
            );
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
        /// straggler that owes nothing to the wall clock, always due.
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
                Pace::Polls(_) => Some(self.submitted),
            }
        }
    }

    /// `count` countries with populations 0, 1, 2, …, the first two named as
    /// the hybrid fixture's stored rows are.
    fn numbered_world(count: usize) -> Model {
        let mut kb = KnowledgeBase::new();
        kb.add_table(country_schema(), numbered_rows(count));
        Arc::new(SimLlm::new(kb.into_shared(), LlmFidelity::perfect(), 7))
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
                        let (rows, m) = scan.run(model, filter.clone(), |c| {
                            c.parallelism = parallelism;
                            c.batch_rows_per_call = batch_rows;
                        });
                        let calls = m.llm_calls_by_kind;
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
                let (setup, table) = hybrid_fixture_storing(model, stored.clone(), |c| {
                    c.parallelism = parallelism;
                    c.batch_rows_per_call = batch_rows;
                });
                let ctx = setup.ctx();
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
                    let setup = context_over(model, PromptStrategy::BatchedRows, |c| {
                        c.batch_size = page;
                        c.parallelism = parallelism;
                    });
                    let ctx = setup.ctx();
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
            let setup = context_over(model, PromptStrategy::BatchedRows, |c| {
                c.parallelism = FANOUT;
            });
            assert_eq!(llm_scan(&setup.ctx(), &p.spec()).unwrap().len(), 40);

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
            let setup = context_over(model, PromptStrategy::BatchedRows, |c| {
                c.parallelism = 8;
                if ending != Ending::Finished {
                    c.deadline_ms = Some(40.0);
                    c.partial_results = ending == Ending::DeadlineCut;
                }
            });
            let mut ctx = setup.ctx();
            ctx.slots = Some(&slots);

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
            let coalescer = setup.client.table().unwrap();
            assert_eq!(coalescer.in_flight(), 0, "coalescer entries: {at}");
        }
    }
}
