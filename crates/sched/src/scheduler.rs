//! The scheduler runtime: admission queue, worker pool, policy dispatch and
//! aggregate statistics.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use llmsql_core::Engine;
use llmsql_exec::CallSlots;
use llmsql_llm::PromptCoalescer;
use llmsql_types::clock;
use llmsql_types::{AtomicEwmaMs, Error, Priority, Result, SchedConfig, SchedPolicy, TenantId};

use crate::ratelimit::TenantLimiter;
use crate::ticket::{QueryOutcome, QueryTicket, TicketState};

/// One admitted, not-yet-running query.
struct Job {
    sql: String,
    tenant: TenantId,
    priority: Priority,
    /// Admission ordinal: the FIFO key, and the tiebreaker everywhere else.
    seq: u64,
    submitted: Instant,
    /// Per-query deadline in milliseconds from submission, when one was
    /// given ([`QueryScheduler::submit_with_deadline`]).
    deadline_ms: Option<f64>,
    ticket: Arc<TicketState>,
}

/// Mutable queue state, guarded by one mutex (admission and dispatch are
/// control-plane operations; queries execute outside the lock).
struct QueueState {
    /// Admitted jobs in admission order (`seq` ascending).
    jobs: VecDeque<Job>,
    /// Queued (not running) jobs per tenant, for the per-tenant cap.
    queued_per_tenant: BTreeMap<TenantId, usize>,
    /// Per-tenant deficit counters: LLM calls completed so far. Weighted
    /// fair share serves the tenant minimizing `charged / weight`.
    charges: BTreeMap<TenantId, u64>,
    next_seq: u64,
    paused: bool,
    shutdown: bool,
}

struct SchedCore {
    engine: Engine,
    slots: Arc<CallSlots>,
    config: SchedConfig,
    state: Mutex<QueueState>,
    work: Condvar,
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    finish_seq: AtomicU64,
    /// Submissions rejected at admission because the projected queue wait
    /// alone already exceeded their deadline.
    deadline_rejected: AtomicU64,
    /// Admitted queries cancelled unexecuted because their deadline passed
    /// while they queued.
    deadline_expired: AtomicU64,
    /// Submissions shed at admission because the deployment was past a
    /// load-shedding watermark and a higher-priority query was queued.
    shed: AtomicU64,
    /// Submissions rejected by a per-tenant token-bucket rate limit.
    throttled: AtomicU64,
    /// Logical LLM calls served by deployment-scope prompt coalescing across
    /// all completed queries (see [`SchedStats::coalesced_calls`]).
    coalesced_calls: AtomicU64,
    /// Per-tuple prompts that rode a packed multi-row request across all
    /// completed queries (see [`SchedStats::batched_rows`]).
    batched_rows: AtomicU64,
    /// EWMA of completed-query run time, milliseconds. Drives the
    /// projected-queue-wait estimate at admission.
    run_ewma: AtomicEwmaMs,
    /// The scheduler's millisecond clock origin: token buckets run on
    /// milliseconds since it, so every bucket shares one monotone clock.
    epoch: Instant,
    /// Lazily-built per-tenant rate limiters (only tenants with a configured
    /// limit ever get an entry).
    limiters: Mutex<BTreeMap<TenantId, Arc<TenantLimiter>>>,
}

impl SchedCore {
    /// Milliseconds since the scheduler was built (the token-bucket clock).
    fn now_ms(&self) -> u64 {
        (clock::now() - self.epoch).as_millis() as u64
    }

    /// The rate limiter for `tenant`, if the configuration gives it one.
    fn limiter_for(&self, tenant: &str) -> Option<Arc<TenantLimiter>> {
        let limit = *self.config.rate_limit_of(tenant)?;
        let mut limiters = self.limiters.lock().unwrap_or_else(|e| e.into_inner());
        Some(Arc::clone(
            limiters
                .entry(tenant.to_string())
                .or_insert_with(|| Arc::new(TenantLimiter::new(limit, self.now_ms()))),
        ))
    }

    /// Projected time to drain a backlog of `queued` jobs: run-time EWMA ×
    /// depth over worker count. `None` until the first query completes.
    fn projected_backlog_wait_ms(&self, queued: usize) -> Option<f64> {
        self.run_ewma
            .get()
            .map(|ewma| ewma * (queued as f64 / self.config.workers as f64))
    }

    /// Retry-after hint for a rejection issued with `queued` jobs in the
    /// queue, from the backlog projection; 1ms floor when no EWMA exists yet.
    fn backlog_retry_hint_ms(&self, queued: usize) -> u64 {
        self.projected_backlog_wait_ms(queued)
            .map(|wait| wait.ceil().max(1.0) as u64)
            .unwrap_or(1)
    }
}

/// Aggregate scheduler statistics (see [`QueryScheduler::stats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SchedStats {
    /// Queries admitted over the scheduler's lifetime.
    pub submitted: u64,
    /// Queries rejected at admission (queue or tenant cap).
    pub rejected: u64,
    /// Queries completed (successfully or with an error).
    pub completed: u64,
    /// Queries currently queued (admitted, not yet running).
    pub queued: usize,
    /// The configured global LLM-call slot count.
    pub slot_capacity: usize,
    /// Highest number of LLM requests in flight at once across all queries —
    /// never exceeds `slot_capacity`.
    pub peak_slots_in_use: u64,
    /// Total time all queries spent blocked waiting for call slots, ms.
    pub total_slot_wait_ms: f64,
    /// Per-tenant deficit counters: LLM calls completed per tenant. Under
    /// [`SchedPolicy::WeightedFair`] with sustained backlog these converge
    /// to the configured weight ratios.
    pub tenant_calls: BTreeMap<TenantId, u64>,
    /// Submissions rejected at admission because the projected queue wait
    /// alone already exceeded their deadline (also counted in `rejected`).
    pub deadline_rejected: u64,
    /// Admitted queries cancelled unexecuted because their deadline passed
    /// while they queued (also counted in `completed` — their tickets
    /// resolve with [`llmsql_types::ErrorKind::DeadlineExceeded`]).
    pub deadline_expired: u64,
    /// Submissions shed at admission — the deployment was past a
    /// load-shedding watermark ([`llmsql_types::SchedConfig`]'s
    /// `shed_queue_watermark` / `shed_wait_watermark_ms`) and a
    /// higher-priority query was queued. Also counted in `rejected`; the
    /// rejection is [`llmsql_types::ErrorKind::Overloaded`] with a
    /// `retry_after_ms` from the backlog projection.
    pub shed: u64,
    /// Submissions rejected by a per-tenant token-bucket rate limit (also
    /// counted in `rejected`; same `Overloaded { retry_after_ms }` shape).
    pub throttled: u64,
    /// Logical LLM calls served by the deployment-scope prompt coalescer
    /// without a physical request: an identical call from another query (or
    /// wave) was already in flight, and this one rode along as a follower.
    /// Each such call is still charged to its query's logical call budget.
    pub coalesced_calls: u64,
    /// Per-tuple prompts that were packed into a multi-row request
    /// (`EngineConfig::batch_rows_per_call`) instead of dispatched
    /// individually. Single-member packs are not counted.
    pub batched_rows: u64,
}

/// The cross-query scheduler. See the crate docs for the model.
///
/// Owns the engine it schedules onto and a worker-thread pool. Dropping the
/// scheduler is graceful: admission closes, already-queued queries still
/// run, and the workers are joined.
pub struct QueryScheduler {
    core: Arc<SchedCore>,
    workers: Vec<JoinHandle<()>>,
}

impl QueryScheduler {
    /// Wrap `engine` in a scheduler configured by `config`. The engine's LLM
    /// dispatch is throttled through a fresh [`CallSlots`] pool of
    /// `config.llm_slots` slots; `config.workers` threads execute admitted
    /// queries.
    pub fn new(mut engine: Engine, config: SchedConfig) -> Result<QueryScheduler> {
        config.validate()?;
        let slots = Arc::new(CallSlots::new(config.llm_slots));
        engine.set_call_slots(Arc::clone(&slots));
        // One single-flight table for the whole deployment: identical
        // in-flight prompts from different queries coalesce into one
        // physical request.
        engine.set_prompt_coalescer(Arc::new(PromptCoalescer::new()));
        let worker_count = config.workers;
        let start_paused = config.start_paused;
        let core = Arc::new(SchedCore {
            engine,
            slots,
            config,
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                queued_per_tenant: BTreeMap::new(),
                charges: BTreeMap::new(),
                next_seq: 1,
                paused: start_paused,
                shutdown: false,
            }),
            work: Condvar::new(),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            finish_seq: AtomicU64::new(0),
            deadline_rejected: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            throttled: AtomicU64::new(0),
            coalesced_calls: AtomicU64::new(0),
            batched_rows: AtomicU64::new(0),
            run_ewma: AtomicEwmaMs::new(),
            epoch: clock::now(),
            limiters: Mutex::new(BTreeMap::new()),
        });
        let workers = (0..worker_count)
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("llmsql-sched-{i}"))
                    .spawn(move || worker_loop(&core))
                    .map_err(|e| Error::scheduler(format!("failed to spawn worker: {e}")))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(QueryScheduler { core, workers })
    }

    /// Admit one query under `tenant` with `priority`, or reject it when the
    /// global queue or the tenant's queue is at capacity
    /// ([`llmsql_types::ErrorKind::Scheduler`]). On admission the returned
    /// [`QueryTicket`] resolves once the query ran.
    pub fn submit(
        &self,
        tenant: impl Into<TenantId>,
        priority: Priority,
        sql: impl Into<String>,
    ) -> Result<QueryTicket> {
        self.submit_inner(tenant.into(), priority, sql.into(), None)
    }

    /// [`QueryScheduler::submit`] with a per-query deadline in milliseconds,
    /// counted from submission. Deadline-aware behaviour, in order:
    ///
    /// 1. **Queue-aware admission.** When the projected queue wait alone
    ///    (policy-aware jobs-ahead count over worker count, times the EWMA
    ///    of completed-query run time) already exceeds the deadline, the
    ///    submission is rejected immediately with
    ///    [`llmsql_types::ErrorKind::DeadlineExceeded`] — queueing it would
    ///    only waste queue space on a doomed query. The estimate is
    ///    optimistic under every policy (under `Priority` only
    ///    higher-or-equal-priority jobs count as ahead; under
    ///    `WeightedFair` no projection is made), so a feasible query is
    ///    never falsely rejected.
    /// 2. **Queue cancellation.** An admitted query whose deadline passes
    ///    while it queues is cancelled when a worker picks it, never
    ///    executed; its ticket resolves with `DeadlineExceeded`.
    /// 3. **Runtime enforcement.** A query that starts in time runs with its
    ///    *remaining* budget: scans check the deadline before every
    ///    request and fail with `DeadlineExceeded` carrying partial accounting
    ///    (elapsed, calls issued).
    pub fn submit_with_deadline(
        &self,
        tenant: impl Into<TenantId>,
        priority: Priority,
        sql: impl Into<String>,
        deadline_ms: f64,
    ) -> Result<QueryTicket> {
        if !deadline_ms.is_finite() || deadline_ms <= 0.0 {
            return Err(Error::config(
                "deadline_ms must be finite and greater than zero",
            ));
        }
        self.submit_inner(tenant.into(), priority, sql.into(), Some(deadline_ms))
    }

    fn submit_inner(
        &self,
        tenant: TenantId,
        priority: Priority,
        sql: String,
        deadline_ms: Option<f64>,
    ) -> Result<QueryTicket> {
        // Resolve the tenant's limiter before taking the queue lock (the
        // limiter map has its own lock; tokens are only spent after the
        // shutdown check below).
        let limiter = self.core.limiter_for(&tenant);
        let mut state = self.lock_state();
        if state.shutdown {
            return Err(Error::scheduler("scheduler is shutting down"));
        }
        // Per-tenant token buckets: the query axis pre-pays one token, the
        // LLM-call axis must hold credit. A throttled submission never
        // queued, so resubmitting after `retry_after_ms` is loss-less.
        if let Some(limiter) = &limiter {
            if let Err(retry_after_ms) = limiter.admit(self.core.now_ms()) {
                // ordering: Relaxed — monotone statistics counters; the
                // rejection itself is returned on this thread, nothing is
                // published under the counters. (All SchedCore counters
                // below follow this contract; exact cross-counter snapshots
                // are taken under the state mutex in paused tests.)
                self.core.throttled.fetch_add(1, Ordering::Relaxed);
                self.core.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(Error::overloaded(
                    retry_after_ms,
                    format!("tenant '{tenant}' is over its rate limit"),
                ));
            }
        }
        if state.jobs.len() >= self.core.config.max_queue_depth {
            // ordering: Relaxed — statistics counter, see admit() above.
            self.core.rejected.fetch_add(1, Ordering::Relaxed);
            let retry_after_ms = self.core.backlog_retry_hint_ms(state.jobs.len());
            return Err(Error::scheduler(format!(
                "admission queue full ({} queued, cap {})",
                state.jobs.len(),
                self.core.config.max_queue_depth
            ))
            .with_retry_after(retry_after_ms));
        }
        // Deployment-wide load shedding: past either watermark (queue depth,
        // or projected slot wait from the run-time EWMA), an incoming
        // submission that ranks below the highest-priority queued query is
        // shed. Shedding is loss-less — the query never started — and the
        // `Overloaded` rejection carries a retry-after computed from the
        // backlog projection.
        let queued = state.jobs.len();
        let over_depth = self.core.config.shed_queue_watermark > 0
            && queued >= self.core.config.shed_queue_watermark;
        let over_wait = self.core.config.shed_wait_watermark_ms > 0.0
            && self
                .core
                .projected_backlog_wait_ms(queued)
                .is_some_and(|wait| wait >= self.core.config.shed_wait_watermark_ms);
        if over_depth || over_wait {
            if let Some(top) = state.jobs.iter().map(|job| job.priority).max() {
                if priority < top {
                    // ordering: Relaxed — statistics counters, see admit().
                    self.core.shed.fetch_add(1, Ordering::Relaxed);
                    self.core.rejected.fetch_add(1, Ordering::Relaxed);
                    let retry_after_ms = self.core.backlog_retry_hint_ms(queued);
                    return Err(Error::overloaded(
                        retry_after_ms,
                        format!(
                            "shed at admission: {priority} ranks below the highest queued \
                             {top} with {queued} queued past the load watermark"
                        ),
                    ));
                }
            }
        }
        // Queue-aware admission: reject a deadline-carrying query whose
        // projected queue wait alone already dooms it. The estimate must be
        // optimistic under every policy — a query it rules out must truly
        // have no chance — so "jobs ahead" is policy-aware: everything
        // queued under FIFO, only higher-or-equal-priority jobs under
        // Priority (a later high-priority submit overtakes the backlog),
        // and nothing under WeightedFair (deficit order can serve an
        // underserved tenant immediately regardless of position; pick-time
        // cancellation still protects those queries).
        if let Some(deadline) = deadline_ms {
            if let Some(run_ewma_ms) = self.core.run_ewma.get() {
                let jobs_ahead = match self.core.config.policy {
                    SchedPolicy::Fifo => state.jobs.len(),
                    SchedPolicy::Priority => state
                        .jobs
                        .iter()
                        .filter(|job| job.priority >= priority)
                        .count(),
                    SchedPolicy::WeightedFair => 0,
                };
                let projected_wait_ms =
                    run_ewma_ms * (jobs_ahead as f64 / self.core.config.workers as f64);
                if projected_wait_ms > deadline {
                    // ordering: Relaxed — statistics counters, see admit().
                    self.core.rejected.fetch_add(1, Ordering::Relaxed);
                    self.core.deadline_rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(Error::deadline_exceeded(format!(
                        "rejected at admission: projected queue wait {projected_wait_ms:.1}ms \
                         ({jobs_ahead} job(s) ahead over {} workers at ~{run_ewma_ms:.1}ms per \
                         query) exceeds the {deadline:.0}ms deadline (0 LLM calls issued)",
                        self.core.config.workers
                    ))
                    .with_retry_after(projected_wait_ms.ceil().max(1.0) as u64));
                }
            }
        }
        let tenant_queued = state.queued_per_tenant.entry(tenant.clone()).or_insert(0);
        if *tenant_queued >= self.core.config.tenant_queue_cap {
            let retry_after_ms = self.core.backlog_retry_hint_ms(*tenant_queued);
            // ordering: Relaxed — statistics counter, see admit() above.
            self.core.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(Error::scheduler(format!(
                "tenant '{tenant}' queue full ({tenant_queued} queued, cap {})",
                self.core.config.tenant_queue_cap
            ))
            .with_retry_after(retry_after_ms));
        }
        *tenant_queued += 1;
        let seq = state.next_seq;
        state.next_seq += 1;
        let ticket_state = TicketState::new();
        state.jobs.push_back(Job {
            sql,
            tenant: tenant.clone(),
            priority,
            seq,
            submitted: clock::now(),
            deadline_ms,
            ticket: Arc::clone(&ticket_state),
        });
        drop(state);
        // ordering: Relaxed — statistics counter; the queue insert above was
        // published by the state mutex, not by this increment.
        self.core.submitted.fetch_add(1, Ordering::Relaxed);
        self.core.work.notify_one();
        Ok(QueryTicket {
            state: ticket_state,
            id: seq,
            tenant,
        })
    }

    /// Unpause a scheduler created with
    /// [`llmsql_types::SchedConfig::start_paused`]: queued queries start
    /// executing. Idempotent.
    pub fn resume(&self) {
        let mut state = self.lock_state();
        state.paused = false;
        drop(state);
        self.core.work.notify_all();
    }

    /// The scheduled engine (for catalog inspection, backend stats, ...).
    pub fn engine(&self) -> &Engine {
        &self.core.engine
    }

    /// A snapshot of the aggregate statistics.
    pub fn stats(&self) -> SchedStats {
        let state = self.lock_state();
        // ordering: Relaxed — advisory statistics snapshot; counters are
        // individually monotone but not mutually consistent mid-run (tests
        // needing exact totals pause the scheduler first).
        SchedStats {
            submitted: self.core.submitted.load(Ordering::Relaxed),
            rejected: self.core.rejected.load(Ordering::Relaxed),
            completed: self.core.completed.load(Ordering::Relaxed),
            queued: state.jobs.len(),
            slot_capacity: self.core.slots.capacity(),
            peak_slots_in_use: self.core.slots.peak_in_use(),
            total_slot_wait_ms: self.core.slots.total_wait_ms(),
            tenant_calls: state.charges.clone(),
            // ordering: Relaxed — same advisory-snapshot contract as above.
            deadline_rejected: self.core.deadline_rejected.load(Ordering::Relaxed),
            deadline_expired: self.core.deadline_expired.load(Ordering::Relaxed),
            shed: self.core.shed.load(Ordering::Relaxed),
            throttled: self.core.throttled.load(Ordering::Relaxed),
            coalesced_calls: self.core.coalesced_calls.load(Ordering::Relaxed),
            batched_rows: self.core.batched_rows.load(Ordering::Relaxed),
        }
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.core.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Drop for QueryScheduler {
    /// Graceful shutdown: close admission, let queued queries finish (a
    /// paused scheduler is resumed so they can), join the workers.
    fn drop(&mut self) {
        {
            let mut state = self.lock_state();
            state.shutdown = true;
            state.paused = false;
        }
        self.core.work.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Pick (and remove) the next job per the configured policy. Caller holds
/// the state lock.
fn pick_next(state: &mut QueueState, config: &SchedConfig) -> Option<Job> {
    if state.jobs.is_empty() {
        return None;
    }
    let index = match config.policy {
        // Jobs sit in admission order, so FIFO is the front.
        SchedPolicy::Fifo => 0,
        // Highest priority wins; admission order within a level. This scans
        // the whole queue (not per-tenant fronts): a tenant's later
        // high-priority query overtakes its own earlier low-priority ones
        // too.
        SchedPolicy::Priority => state
            .jobs
            .iter()
            .enumerate()
            .max_by(|(ai, a), (bi, b)| {
                a.priority
                    .cmp(&b.priority)
                    .then(b.seq.cmp(&a.seq))
                    .then(bi.cmp(ai))
            })
            .map(|(i, _)| i)?,
        // Deficit scheduling: among tenants with queued work, serve the one
        // with the smallest weight-normalized charge; its earliest job runs.
        SchedPolicy::WeightedFair => {
            let tenant = state
                .jobs
                .iter()
                .map(|j| j.tenant.as_str())
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .min_by(|a, b| {
                    let deficit = |t: &str| {
                        state.charges.get(t).copied().unwrap_or(0) as f64
                            / config.weight_of(t) as f64
                    };
                    deficit(a).total_cmp(&deficit(b)).then(a.cmp(b))
                })?
                .to_string();
            state.jobs.iter().position(|j| j.tenant == tenant)?
        }
    };
    let job = state.jobs.remove(index)?;
    if let Some(queued) = state.queued_per_tenant.get_mut(&job.tenant) {
        *queued = queued.saturating_sub(1);
    }
    Some(job)
}

fn worker_loop(core: &SchedCore) {
    loop {
        let job = {
            let mut state = core.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if !state.paused {
                    if let Some(job) = pick_next(&mut state, &core.config) {
                        break job;
                    }
                    if state.shutdown {
                        return;
                    }
                }
                state = core.work.wait(state).unwrap_or_else(|e| e.into_inner());
            }
        };
        run_job(core, job);
    }
}

fn run_job(core: &SchedCore, job: Job) {
    let run_start = clock::now();
    let queue_ms = (run_start - job.submitted).as_secs_f64() * 1000.0;
    // Queue cancellation: a query whose deadline passed while it queued is
    // never executed — its ticket resolves with the structured error and the
    // queue-time accounting it did accumulate.
    let expired = job
        .deadline_ms
        .filter(|&deadline_ms| queue_ms >= deadline_ms);
    if expired.is_some() {
        // ordering: Relaxed — statistics counter; the ticket resolution that
        // callers wait on synchronizes via its own mutex/condvar.
        core.deadline_expired.fetch_add(1, Ordering::Relaxed);
    }
    let result = if let Some(deadline_ms) = expired {
        Err(Error::deadline_exceeded(format!(
            "cancelled unexecuted: queued {queue_ms:.1}ms past its {deadline_ms:.0}ms deadline \
             (0 LLM calls issued)"
        )))
    } else {
        // A panicking query must not take its worker thread (and every later
        // queued query's ticket) down with it.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match job.deadline_ms {
            // The query gets only its remaining budget after queueing.
            Some(deadline_ms) => core
                .engine
                .execute_with_deadline(&job.sql, deadline_ms - queue_ms),
            None => core.engine.execute(&job.sql),
        }))
        .unwrap_or_else(|_| Err(Error::execution("query execution panicked")))
    };
    let run_ms = (clock::now() - run_start).as_secs_f64() * 1000.0;
    if expired.is_none() {
        core.run_ewma.observe(run_ms);
    }

    let (llm_calls, slot_wait_ms) = match &result {
        Ok(r) => (r.metrics.llm_calls(), r.metrics.slot_wait_ms),
        Err(_) => (0, 0.0),
    };
    if let Ok(r) = &result {
        // ordering: Relaxed — statistics counters, same advisory contract as
        // the rest of SchedCore's.
        core.coalesced_calls
            .fetch_add(r.metrics.coalesced_calls, Ordering::Relaxed);
        core.batched_rows
            .fetch_add(r.metrics.batched_rows, Ordering::Relaxed);
    }
    // Graceful degradation: surface the partial-result marker on the
    // outcome so QoS layers need not dig through the metrics.
    let incomplete = result
        .as_ref()
        .ok()
        .and_then(|r| r.metrics.incomplete.clone());
    // Post-paid rate limiting: debit the tenant's call bucket with the
    // calls actually consumed; an overdrawn bucket holds the tenant's next
    // admissions until the debt drains.
    if llm_calls > 0 {
        if let Some(limiter) = core.limiter_for(&job.tenant) {
            limiter.charge_calls(core.now_ms(), llm_calls);
        }
    }
    {
        let mut state = core.state.lock().unwrap_or_else(|e| e.into_inner());
        // Charge the tenant's deficit counter with the calls the query
        // consumed; a call-free query is charged 1 so spinning cheap queries
        // cannot monopolize the fair-share rotation for free.
        *state.charges.entry(job.tenant.clone()).or_insert(0) += llm_calls.max(1);
    }
    // ordering: Relaxed — finish_seq only needs uniqueness and atomicity of
    // the increment itself to hand out distinct ordinals; completed is a
    // statistics counter like the rest of SchedCore's.
    let finish_seq = core.finish_seq.fetch_add(1, Ordering::Relaxed) + 1;
    core.completed.fetch_add(1, Ordering::Relaxed);
    job.ticket.fulfill(QueryOutcome {
        tenant: job.tenant,
        priority: job.priority,
        result,
        queue_ms,
        run_ms,
        slot_wait_ms,
        llm_calls,
        incomplete,
        finish_seq,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsql_llm::KnowledgeBase;
    use llmsql_store::Catalog;
    use llmsql_types::{
        Column, DataType, EngineConfig, ErrorKind, ExecutionMode, LlmFidelity, PromptStrategy, Row,
        Schema, Value,
    };

    /// A traditional in-memory engine (no model): queries are instant, which
    /// keeps policy tests about ordering, not timing.
    fn store_engine() -> Engine {
        let engine = Engine::new(EngineConfig::default().with_mode(ExecutionMode::Traditional));
        engine
            .execute_script(
                "CREATE TABLE nums (n INTEGER PRIMARY KEY); \
                 INSERT INTO nums VALUES (1), (2), (3), (4)",
            )
            .unwrap();
        engine
    }

    /// An LLM-only engine over a small virtual relation, cache off so every
    /// query pays a stable, identical number of logical calls.
    fn llm_engine(parallelism: usize) -> Engine {
        llm_engine_with_latency(parallelism, 0.0)
    }

    /// [`llm_engine`] with a simulated per-call latency, for tests that need
    /// queries to take measurable wall time.
    fn llm_engine_with_latency(parallelism: usize, latency_ms: f64) -> Engine {
        let schema = Schema::virtual_table(
            "countries",
            vec![
                Column::new("name", DataType::Text).primary_key(),
                Column::new("population", DataType::Int),
            ],
        );
        let rows: Vec<Row> = (0..10)
            .map(|i| {
                Row::new(vec![
                    Value::Text(format!("Country {i:02}")),
                    Value::Int(100 + i as i64),
                ])
            })
            .collect();
        let catalog = Catalog::new();
        catalog.create_virtual_table(schema.clone()).unwrap();
        let mut kb = KnowledgeBase::new();
        kb.add_table(schema, rows);
        let mut config = EngineConfig::default()
            .with_mode(ExecutionMode::LlmOnly)
            .with_strategy(PromptStrategy::BatchedRows)
            .with_fidelity(LlmFidelity::perfect())
            .with_batch_size(5)
            .with_seed(11)
            .with_parallelism(parallelism);
        config.enable_prompt_cache = false;
        let mut engine = Engine::with_catalog(catalog, config);
        if latency_ms > 0.0 {
            let sim = llmsql_llm::SimLlm::new(kb.into_shared(), LlmFidelity::perfect(), 11)
                .with_simulated_latency_ms(latency_ms);
            engine.attach_model(std::sync::Arc::new(sim)).unwrap();
        } else {
            engine.attach_simulator(kb.into_shared()).unwrap();
        }
        engine
    }

    #[test]
    fn scheduler_handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QueryScheduler>();
        assert_send_sync::<SchedStats>();
    }

    #[test]
    fn fifo_completes_in_admission_order() {
        let sched = QueryScheduler::new(
            store_engine(),
            SchedConfig::default().with_workers(1).paused(),
        )
        .unwrap();
        let tickets: Vec<QueryTicket> = (0..6)
            .map(|i| {
                sched
                    .submit(
                        format!("tenant-{}", i % 3),
                        Priority::NORMAL,
                        "SELECT COUNT(*) FROM nums",
                    )
                    .unwrap()
            })
            .collect();
        sched.resume();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let outcome = ticket.wait();
            assert_eq!(outcome.finish_seq, i as u64 + 1, "FIFO order violated");
            assert!(outcome.result.is_ok());
            assert!(outcome.queue_ms >= 0.0 && outcome.run_ms >= 0.0);
        }
        let stats = sched.stats();
        assert_eq!(stats.submitted, 6);
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.queued, 0);
    }

    #[test]
    fn priority_flood_cannot_starve_a_high_priority_query() {
        // Regression for the starvation scenario: a flood of low-priority
        // queries is admitted first; one high-priority query submitted after
        // them must run before the flood, not behind it.
        let sched = QueryScheduler::new(
            store_engine(),
            SchedConfig::default()
                .with_workers(1)
                .with_policy(SchedPolicy::Priority)
                .paused(),
        )
        .unwrap();
        let flood: Vec<QueryTicket> = (0..20)
            .map(|_| {
                sched
                    .submit("bulk", Priority::LOW, "SELECT COUNT(*) FROM nums")
                    .unwrap()
            })
            .collect();
        let urgent = sched
            .submit(
                "interactive",
                Priority::HIGH,
                "SELECT n FROM nums WHERE n = 1",
            )
            .unwrap();
        sched.resume();
        let outcome = urgent.wait();
        assert_eq!(
            outcome.finish_seq, 1,
            "high-priority query was starved behind the flood"
        );
        for t in flood {
            assert!(t.wait().finish_seq > 1);
        }
    }

    #[test]
    fn equal_priorities_keep_admission_order() {
        let sched = QueryScheduler::new(
            store_engine(),
            SchedConfig::default()
                .with_workers(1)
                .with_policy(SchedPolicy::Priority)
                .paused(),
        )
        .unwrap();
        let tickets: Vec<QueryTicket> = (0..5)
            .map(|_| {
                sched
                    .submit("t", Priority::NORMAL, "SELECT COUNT(*) FROM nums")
                    .unwrap()
            })
            .collect();
        sched.resume();
        for (i, ticket) in tickets.into_iter().enumerate() {
            assert_eq!(ticket.wait().finish_seq, i as u64 + 1);
        }
    }

    #[test]
    fn admission_rejects_beyond_global_and_tenant_caps() {
        let sched = QueryScheduler::new(
            store_engine(),
            SchedConfig::default()
                .with_workers(1)
                .with_max_queue_depth(4)
                .with_tenant_queue_cap(2)
                .paused(),
        )
        .unwrap();
        let sql = "SELECT COUNT(*) FROM nums";
        // Tenant cap: the third submission from one tenant is rejected.
        sched.submit("a", Priority::NORMAL, sql).unwrap();
        sched.submit("a", Priority::NORMAL, sql).unwrap();
        let err = sched.submit("a", Priority::NORMAL, sql).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Scheduler);
        assert!(err.message.contains("tenant 'a'"), "{err}");
        // Global cap: other tenants fill the queue to 4, then everyone is
        // rejected.
        sched.submit("b", Priority::NORMAL, sql).unwrap();
        sched.submit("c", Priority::NORMAL, sql).unwrap();
        let err = sched.submit("d", Priority::NORMAL, sql).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Scheduler);
        assert!(err.message.contains("admission queue full"), "{err}");
        assert_eq!(sched.stats().rejected, 2);
        sched.resume();
    }

    #[test]
    fn rate_limited_tenant_is_throttled_with_retry_after() {
        let sched = QueryScheduler::new(
            store_engine(),
            SchedConfig::default()
                .with_workers(1)
                .with_tenant_rate_limit("metered", llmsql_types::TenantRateLimit::queries(1.0, 2.0))
                .paused(),
        )
        .unwrap();
        let sql = "SELECT COUNT(*) FROM nums";
        // Burst of 2 admits, then the bucket is dry for ~1s.
        sched.submit("metered", Priority::NORMAL, sql).unwrap();
        sched.submit("metered", Priority::NORMAL, sql).unwrap();
        let err = sched.submit("metered", Priority::NORMAL, sql).unwrap_err();
        assert!(err.is_overloaded(), "{err}");
        assert!(err.retry_after_ms().unwrap() > 0);
        assert!(err.message.contains("rate limit"), "{err}");
        // Unmetered tenants are unaffected.
        sched.submit("free", Priority::NORMAL, sql).unwrap();
        let stats = sched.stats();
        assert_eq!(stats.throttled, 1);
        assert_eq!(stats.shed, 0);
        assert_eq!(
            stats.rejected,
            stats.throttled + stats.shed,
            "counters must match the rejections handed out exactly"
        );
        sched.resume();
    }

    #[test]
    fn shedding_drops_only_lower_priority_past_the_watermark() {
        let sched = QueryScheduler::new(
            store_engine(),
            SchedConfig::default()
                .with_workers(1)
                .with_policy(SchedPolicy::Priority)
                .with_shed_queue_watermark(2)
                .paused(),
        )
        .unwrap();
        let sql = "SELECT COUNT(*) FROM nums";
        // Below the watermark everything is admitted.
        sched.submit("t", Priority::NORMAL, sql).unwrap();
        sched.submit("t", Priority::NORMAL, sql).unwrap();
        // Past it, lower-priority work is shed with a structured rejection...
        let err = sched.submit("bulk", Priority::LOW, sql).unwrap_err();
        assert!(err.is_overloaded(), "{err}");
        assert!(err.retry_after_ms().unwrap() > 0);
        assert!(err.message.contains("shed at admission"), "{err}");
        // ...while equal- and higher-priority submissions still get in.
        sched.submit("t", Priority::NORMAL, sql).unwrap();
        sched.submit("vip", Priority::HIGH, sql).unwrap();
        // A LOW submission keeps being shed while HIGH work is queued.
        assert!(sched.submit("bulk", Priority::LOW, sql).is_err());
        let stats = sched.stats();
        assert_eq!(stats.shed, 2);
        assert_eq!(stats.throttled, 0);
        assert_eq!(stats.rejected, 2);
        sched.resume();
    }

    #[test]
    fn queue_full_and_tenant_cap_rejections_carry_retry_after() {
        let sched = QueryScheduler::new(
            store_engine(),
            SchedConfig::default()
                .with_workers(1)
                .with_max_queue_depth(2)
                .with_tenant_queue_cap(1)
                .paused(),
        )
        .unwrap();
        let sql = "SELECT COUNT(*) FROM nums";
        sched.submit("a", Priority::NORMAL, sql).unwrap();
        // Tenant cap rejection: structured Scheduler error plus the hint.
        let err = sched.submit("a", Priority::NORMAL, sql).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Scheduler);
        assert!(err.retry_after_ms().unwrap() >= 1, "{err}");
        sched.submit("b", Priority::NORMAL, sql).unwrap();
        // Global queue-full rejection: same shape.
        let err = sched.submit("c", Priority::NORMAL, sql).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Scheduler);
        assert!(err.message.contains("admission queue full"), "{err}");
        assert!(err.retry_after_ms().unwrap() >= 1);
        sched.resume();
    }

    #[test]
    fn throttled_tenant_cannot_starve_others_fair_share() {
        // Regression: a tenant hammering a tight rate limit must only hurt
        // itself — its rejections are loss-less and every other tenant's
        // queries are admitted and complete.
        let sched = QueryScheduler::new(
            store_engine(),
            SchedConfig::default()
                .with_workers(1)
                .with_tenant_rate_limit("greedy", llmsql_types::TenantRateLimit::queries(1.0, 1.0)),
        )
        .unwrap();
        let sql = "SELECT COUNT(*) FROM nums";
        let mut greedy_admitted = Vec::new();
        let mut greedy_throttled = 0u64;
        let mut polite = Vec::new();
        for _ in 0..10 {
            match sched.submit("greedy", Priority::NORMAL, sql) {
                Ok(ticket) => greedy_admitted.push(ticket),
                Err(err) => {
                    assert!(err.is_overloaded(), "{err}");
                    greedy_throttled += 1;
                }
            }
            polite.push(sched.submit("polite", Priority::NORMAL, sql).unwrap());
        }
        assert!(greedy_throttled >= 8, "burst 1 at 1qps: {greedy_throttled}");
        for ticket in polite {
            assert!(ticket.wait().result.is_ok(), "polite tenant was starved");
        }
        for ticket in greedy_admitted {
            assert!(ticket.wait().result.is_ok());
        }
        let stats = sched.stats();
        assert_eq!(stats.throttled, greedy_throttled);
        assert_eq!(stats.rejected, greedy_throttled);
        assert_eq!(stats.completed, stats.submitted);
    }

    #[test]
    fn partial_results_surface_on_the_outcome() {
        // 5 pages at ~10ms each against a 25ms deadline: the scan is cut
        // between waves. With partial results on, the outcome resolves Ok
        // with a page-aligned prefix and the Incomplete marker surfaced on
        // the QueryOutcome itself.
        let schema = Schema::virtual_table(
            "countries",
            vec![
                Column::new("name", DataType::Text).primary_key(),
                Column::new("population", DataType::Int),
            ],
        );
        let rows: Vec<Row> = (0..10)
            .map(|i| {
                Row::new(vec![
                    Value::Text(format!("Country {i:02}")),
                    Value::Int(100 + i as i64),
                ])
            })
            .collect();
        let catalog = Catalog::new();
        catalog.create_virtual_table(schema.clone()).unwrap();
        let mut kb = KnowledgeBase::new();
        kb.add_table(schema, rows);
        let mut config = EngineConfig::default()
            .with_mode(ExecutionMode::LlmOnly)
            .with_strategy(PromptStrategy::BatchedRows)
            .with_fidelity(LlmFidelity::perfect())
            .with_batch_size(2)
            .with_seed(11)
            .with_parallelism(1)
            .with_partial_results();
        config.enable_prompt_cache = false;
        let mut engine = Engine::with_catalog(catalog, config);
        let sim = llmsql_llm::SimLlm::new(kb.into_shared(), LlmFidelity::perfect(), 11)
            .with_simulated_latency_ms(10.0);
        engine.attach_model(std::sync::Arc::new(sim)).unwrap();
        let sched = QueryScheduler::new(engine, SchedConfig::default().with_workers(1)).unwrap();
        let outcome = sched
            .submit_with_deadline("t", Priority::NORMAL, "SELECT name FROM countries", 25.0)
            .unwrap()
            .wait();
        let result = outcome.result.expect("degrades gracefully, not an error");
        assert!(result.is_partial());
        let marker = outcome.incomplete.expect("marker surfaced on the outcome");
        assert_eq!(marker.kind, ErrorKind::DeadlineExceeded);
        assert!(marker.rows_delivered < 10, "{marker}");
        assert_eq!(marker.rows_delivered % 2, 0, "prefix must be page-aligned");
        assert_eq!(result.rows().len() as u64, marker.rows_delivered);
    }

    #[test]
    fn weighted_fair_serves_tenants_by_weight() {
        // Deterministic companion to the proptest below: weights 3:1 with a
        // single worker; among the first 8 completions tenant shares must
        // track the weights (6:2), not the alternating admission order.
        let sched = QueryScheduler::new(
            llm_engine(1),
            SchedConfig::default()
                .with_workers(1)
                .with_policy(SchedPolicy::WeightedFair)
                .with_tenant_weight("gold", 3)
                .with_tenant_weight("bronze", 1)
                .paused(),
        )
        .unwrap();
        let mut tickets = Vec::new();
        for _ in 0..8 {
            tickets.push(
                sched
                    .submit("gold", Priority::NORMAL, "SELECT name FROM countries")
                    .unwrap(),
            );
            tickets.push(
                sched
                    .submit("bronze", Priority::NORMAL, "SELECT name FROM countries")
                    .unwrap(),
            );
        }
        sched.resume();
        let outcomes: Vec<QueryOutcome> = tickets.into_iter().map(QueryTicket::wait).collect();
        let prefix_share = |tenant: &str| {
            outcomes
                .iter()
                .filter(|o| o.finish_seq <= 8 && o.tenant == tenant)
                .count()
        };
        let gold = prefix_share("gold");
        let bronze = prefix_share("bronze");
        assert_eq!(gold + bronze, 8);
        assert_eq!(gold, 6, "gold should get 3/4 of the prefix, got {gold}/8");
        assert_eq!(bronze, 2);
        // Every query issued the same logical call count (uniform cost).
        let calls: std::collections::BTreeSet<u64> = outcomes.iter().map(|o| o.llm_calls).collect();
        assert_eq!(calls.len(), 1, "expected uniform cost, got {calls:?}");
    }

    #[test]
    fn unknown_tenants_under_weighted_fair_schedule_cleanly() {
        // Regression: the weight-normalized deficit divides by
        // `config.weight_of(tenant)`; tenants absent from the weight map
        // (falling back to the default weight) must produce finite deficits
        // and sane ordering, not inf/NaN that silently breaks the policy.
        let sched = QueryScheduler::new(
            store_engine(),
            SchedConfig::default()
                .with_workers(1)
                .with_policy(SchedPolicy::WeightedFair)
                .with_tenant_weight("known", 3)
                .paused(),
        )
        .unwrap();
        let sql = "SELECT COUNT(*) FROM nums";
        let mut tickets = Vec::new();
        for _ in 0..4 {
            tickets.push(sched.submit("known", Priority::NORMAL, sql).unwrap());
            tickets.push(sched.submit("stranger", Priority::NORMAL, sql).unwrap());
            tickets.push(sched.submit("drifter", Priority::NORMAL, sql).unwrap());
        }
        sched.resume();
        let outcomes: Vec<QueryOutcome> = tickets.into_iter().map(QueryTicket::wait).collect();
        assert!(outcomes.iter().all(|o| o.result.is_ok()));
        let stats = sched.stats();
        assert_eq!(stats.completed, 12);
        // Every tenant — mapped or not — was served and charged.
        assert_eq!(stats.tenant_calls.len(), 3);
        assert!(stats.tenant_calls.values().all(|&c| c > 0));
    }

    #[test]
    fn expired_deadline_cancels_queued_query_without_executing() {
        // A query whose deadline passes while it queues must resolve with
        // DeadlineExceeded and never run.
        let sched = QueryScheduler::new(
            llm_engine(1),
            SchedConfig::default().with_workers(1).paused(),
        )
        .unwrap();
        let doomed = sched
            .submit_with_deadline("t", Priority::NORMAL, "SELECT name FROM countries", 15.0)
            .unwrap();
        let unhurried = sched
            .submit("t", Priority::NORMAL, "SELECT name FROM countries")
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        sched.resume();
        let outcome = doomed.wait();
        let err = outcome.result.unwrap_err();
        assert_eq!(err.kind, ErrorKind::DeadlineExceeded);
        assert!(err.message.contains("0 LLM calls issued"), "{err}");
        assert_eq!(outcome.llm_calls, 0, "cancelled query must not execute");
        // The deadline-free companion is unaffected.
        assert!(unhurried.wait().result.is_ok());
        let stats = sched.stats();
        assert_eq!(stats.deadline_expired, 1);
        assert_eq!(stats.deadline_rejected, 0);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn queue_aware_admission_rejects_hopeless_deadlines() {
        // ~10ms per call, 3 calls per query: each query runs ~30ms.
        let sched = QueryScheduler::new(
            llm_engine_with_latency(1, 10.0),
            SchedConfig::default().with_workers(1),
        )
        .unwrap();
        let sql = "SELECT name FROM countries";
        // Warm the run-time EWMA (no projection is possible without it).
        sched
            .submit("t", Priority::NORMAL, sql)
            .unwrap()
            .wait()
            .result
            .unwrap();
        // Build a backlog, then submit with a deadline far below the
        // projected queue wait: rejected at admission, never queued.
        let backlog: Vec<QueryTicket> = (0..5)
            .map(|_| sched.submit("t", Priority::NORMAL, sql).unwrap())
            .collect();
        let err = sched
            .submit_with_deadline("t", Priority::NORMAL, sql, 1.0)
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::DeadlineExceeded);
        assert!(err.message.contains("projected queue wait"), "{err}");
        let stats = sched.stats();
        assert_eq!(stats.deadline_rejected, 1);
        assert_eq!(stats.rejected, 1);
        for t in backlog {
            assert!(t.wait().result.is_ok());
        }
        // Invalid deadlines are config errors, not silent admits.
        assert!(sched
            .submit_with_deadline("t", Priority::NORMAL, sql, 0.0)
            .is_err());
        assert!(sched
            .submit_with_deadline("t", Priority::NORMAL, sql, f64::NAN)
            .is_err());
    }

    #[test]
    fn priority_aware_projection_admits_urgent_deadlines() {
        // Regression: the queue-wait projection must not count lower-priority
        // backlog as "ahead" of a high-priority submission — under
        // SchedPolicy::Priority the urgent query overtakes the flood, so a
        // FIFO-position estimate would falsely reject a feasible query.
        let sched = QueryScheduler::new(
            llm_engine_with_latency(1, 10.0),
            SchedConfig::default()
                .with_workers(1)
                .with_policy(SchedPolicy::Priority),
        )
        .unwrap();
        let sql = "SELECT name FROM countries";
        // Warm the run-time EWMA (~30ms per query: 3 calls at ~10ms).
        sched
            .submit("t", Priority::NORMAL, sql)
            .unwrap()
            .wait()
            .result
            .unwrap();
        // A low-priority flood deep enough that the FIFO projection (~8 ×
        // 30ms = 240ms) would reject a 150ms deadline...
        let flood: Vec<QueryTicket> = (0..8)
            .map(|_| sched.submit("bulk", Priority::LOW, sql).unwrap())
            .collect();
        // ...but the urgent query has zero higher-or-equal-priority jobs
        // ahead: admitted, runs next, and finishes well inside its deadline.
        let urgent = sched
            .submit_with_deadline("vip", Priority::HIGH, sql, 150.0)
            .unwrap();
        let outcome = urgent.wait();
        assert!(
            outcome.result.is_ok(),
            "urgent query should beat the flood: {:?}",
            outcome.result.err()
        );
        for t in flood {
            t.wait();
        }
        assert_eq!(sched.stats().deadline_rejected, 0);
    }

    #[test]
    fn generous_deadlines_change_nothing() {
        // A deadline that is not hit must leave rows and logical call
        // counts byte-identical to a deadline-free run.
        let sql = "SELECT name, population FROM countries";
        let baseline = {
            let sched =
                QueryScheduler::new(llm_engine(4), SchedConfig::default().with_workers(1)).unwrap();
            let outcome = sched.submit("t", Priority::NORMAL, sql).unwrap().wait();
            let result = outcome.result.unwrap();
            (result.rows().to_vec(), result.metrics.llm_calls())
        };
        let sched =
            QueryScheduler::new(llm_engine(4), SchedConfig::default().with_workers(1)).unwrap();
        let outcome = sched
            .submit_with_deadline("t", Priority::NORMAL, sql, 60_000.0)
            .unwrap()
            .wait();
        let result = outcome.result.unwrap();
        assert_eq!(result.rows(), &baseline.0[..], "deadline changed rows");
        assert_eq!(
            result.metrics.llm_calls(),
            baseline.1,
            "deadline changed the logical call count"
        );
        assert_eq!(sched.stats().deadline_expired, 0);
    }

    #[test]
    fn scheduler_drop_completes_queued_work() {
        let tickets: Vec<QueryTicket> = {
            let sched = QueryScheduler::new(
                store_engine(),
                SchedConfig::default().with_workers(2).paused(),
            )
            .unwrap();
            (0..5)
                .map(|_| {
                    sched
                        .submit("t", Priority::NORMAL, "SELECT COUNT(*) FROM nums")
                        .unwrap()
                })
                .collect()
            // Dropped while paused with 5 queries queued: shutdown resumes
            // and drains before joining the workers.
        };
        for ticket in tickets {
            let outcome = ticket.wait();
            assert_eq!(
                outcome.result.unwrap().scalar(),
                Some(Value::Int(4)),
                "queued query was dropped unexecuted"
            );
        }
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let sched = QueryScheduler::new(store_engine(), SchedConfig::default()).unwrap();
        sched.lock_state().shutdown = true;
        let err = sched
            .submit("t", Priority::NORMAL, "SELECT COUNT(*) FROM nums")
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::Scheduler);
        assert!(err.message.contains("shutting down"), "{err}");
    }

    #[test]
    fn failing_queries_resolve_their_tickets_and_spare_the_worker() {
        let sched = QueryScheduler::new(store_engine(), SchedConfig::default()).unwrap();
        let bad = sched
            .submit("t", Priority::NORMAL, "SELECT missing_col FROM nums")
            .unwrap();
        let outcome = bad.wait();
        assert_eq!(outcome.result.unwrap_err().kind, ErrorKind::Binding);
        // The worker survives and keeps serving.
        let ok = sched
            .submit("t", Priority::NORMAL, "SELECT COUNT(*) FROM nums")
            .unwrap();
        assert!(ok.wait().result.is_ok());
    }

    #[test]
    fn slot_pool_caps_global_in_flight_across_queries() {
        // 8 queries at parallelism 4 through 2 slots: without the pool,
        // in-flight would reach workers * parallelism; with it, the global
        // peak cannot exceed 2.
        let sched = QueryScheduler::new(
            llm_engine(4),
            SchedConfig::default().with_workers(4).with_llm_slots(2),
        )
        .unwrap();
        let tickets: Vec<QueryTicket> = (0..8)
            .map(|i| {
                sched
                    .submit(
                        format!("t{}", i % 2),
                        Priority::NORMAL,
                        "SELECT name, population FROM countries",
                    )
                    .unwrap()
            })
            .collect();
        let outcomes: Vec<QueryOutcome> = tickets.into_iter().map(QueryTicket::wait).collect();
        assert!(outcomes.iter().all(|o| o.result.is_ok()));
        let stats = sched.stats();
        assert_eq!(stats.slot_capacity, 2);
        assert!(
            stats.peak_slots_in_use <= 2,
            "global in-flight exceeded the slot pool: {stats:?}"
        );
        assert!(stats.peak_slots_in_use >= 1);
        assert_eq!(stats.completed, 8);
        // Per-tenant deficit counters saw every query's calls.
        assert_eq!(
            stats.tenant_calls.values().sum::<u64>(),
            outcomes.iter().map(|o| o.llm_calls).sum::<u64>()
        );
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Under weighted fair share with sustained backlog, the
            /// completed-call shares of any completion prefix track the
            /// configured weights: the deficit counters keep
            /// |calls_a/w_a - calls_b/w_b| within one query's cost.
            #[test]
            fn weighted_fair_shares_converge_to_weights(
                weight_a in 1u32..5,
                weight_b in 1u32..5,
            ) {
                let per_tenant = 12usize;
                let sched = QueryScheduler::new(
                    llm_engine(1),
                    SchedConfig::default()
                        .with_workers(1)
                        .with_policy(SchedPolicy::WeightedFair)
                        .with_tenant_weight("a", weight_a)
                        .with_tenant_weight("b", weight_b)
                        .paused(),
                )
                .unwrap();
                let mut tickets = Vec::new();
                for _ in 0..per_tenant {
                    tickets.push(sched.submit("a", Priority::NORMAL,
                        "SELECT name FROM countries").unwrap());
                    tickets.push(sched.submit("b", Priority::NORMAL,
                        "SELECT name FROM countries").unwrap());
                }
                sched.resume();
                let outcomes: Vec<QueryOutcome> =
                    tickets.into_iter().map(QueryTicket::wait).collect();
                let cost = outcomes[0].llm_calls.max(1);
                prop_assert!(outcomes.iter().all(|o| o.llm_calls == outcomes[0].llm_calls),
                    "non-uniform query cost breaks the share math");

                // Prefix short enough that both tenants still had backlog
                // throughout with margin (the heavier tenant drains first at
                // ~prefix * max_w / (w_a + w_b) completions; keep that well
                // under per_tenant).
                let max_w = weight_a.max(weight_b) as usize;
                let prefix =
                    (per_tenant * (weight_a + weight_b) as usize * 3 / (4 * max_w)) as u64;
                let calls_in_prefix = |tenant: &str| -> u64 {
                    outcomes
                        .iter()
                        .filter(|o| o.tenant == tenant && o.finish_seq <= prefix)
                        .map(|o| o.llm_calls)
                        .sum()
                };
                let (calls_a, calls_b) = (calls_in_prefix("a"), calls_in_prefix("b"));
                prop_assert_eq!(calls_a % cost, 0);
                // Deficit bound: weight-normalized charges never drift apart
                // by more than one query's cost.
                let norm_a = calls_a as f64 / weight_a as f64;
                let norm_b = calls_b as f64 / weight_b as f64;
                prop_assert!(
                    (norm_a - norm_b).abs() <= cost as f64 + 1e-9,
                    "shares diverged from weights: a={} (w={}), b={} (w={}), prefix={}",
                    calls_a, weight_a, calls_b, weight_b, prefix
                );
            }
        }
    }
}
