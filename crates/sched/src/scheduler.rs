//! The scheduler's thread shell around the [`Queue`]: one mutex over the
//! queue, the pause and shutdown flags and the idle workers, the workers
//! that park until `submit`, `resume` or shutdown wakes them, and the
//! tickets. This is the crate's only clock reader: it reads
//! `clock::now()` once per admission, pick and finish and hands the instant
//! to the queue.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use llmsql_core::Engine;
use llmsql_exec::{CallSlots, ExecMetrics};
use llmsql_llm::PromptCoalescer;
use llmsql_types::clock;
use llmsql_types::{Error, Priority, Result, SchedConfig, TenantId};

use crate::queue::{Pick, Queue, Submission};
use crate::ticket::{QueryOutcome, QueryTicket, TicketState};

/// What a worker runs an admitted query with: its SQL and its ticket.
type Work = (String, Arc<TicketState>);

/// Everything submitters and workers share, under the one mutex.
struct Shared {
    queue: Queue<Work>,
    paused: bool,
    shutdown: bool,
    /// Workers parked for want of work, each once.
    idle: Vec<clock::Unparker>,
}

struct SchedCore {
    engine: Engine,
    slots: Arc<CallSlots>,
    state: Mutex<Shared>,
}

impl SchedCore {
    fn lock(&self) -> MutexGuard<'_, Shared> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Aggregate scheduler statistics (see [`QueryScheduler::stats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SchedStats {
    /// Queries admitted over the scheduler's lifetime.
    pub submitted: u64,
    /// Queries rejected at admission, by any rule.
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
    /// [`llmsql_types::SchedPolicy::WeightedFair`] with sustained backlog
    /// these converge to the configured weight ratios.
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
        let core = Arc::new(SchedCore {
            engine,
            slots,
            state: Mutex::new(Shared {
                paused: config.start_paused,
                shutdown: false,
                queue: Queue::new(config, clock::now()),
                idle: Vec::new(),
            }),
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
    ///    (jobs ahead over workers, times the run-time EWMA) already exceeds
    ///    the deadline, the submission is rejected at once with
    ///    [`llmsql_types::ErrorKind::DeadlineExceeded`]. Only jobs the policy
    ///    would run first count as ahead (none under `WeightedFair`), so a
    ///    feasible query is never rejected.
    /// 2. **Queue cancellation.** An admitted query whose deadline passes
    ///    while it queues is cancelled when a worker picks it, never
    ///    executed; its ticket resolves with `DeadlineExceeded`.
    /// 3. **Runtime enforcement.** A query that starts in time runs with its
    ///    *remaining* budget: scans check the deadline before every request
    ///    and fail with `DeadlineExceeded` carrying partial accounting.
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
        let ticket = TicketState::new();
        let submission = Submission {
            tenant: tenant.clone(),
            priority,
            deadline_ms,
            payload: (sql, Arc::clone(&ticket)),
        };
        let mut state = self.core.lock();
        if state.shutdown {
            return Err(Error::scheduler("scheduler is shutting down"));
        }
        let id = state.queue.admit(submission, clock::now())?;
        let worker = state.idle.pop();
        drop(state);
        worker.iter().for_each(clock::Unparker::unpark);
        Ok(QueryTicket {
            state: ticket,
            id,
            tenant,
        })
    }

    /// Unpause a scheduler created with
    /// [`llmsql_types::SchedConfig::start_paused`]: queued queries start
    /// executing. Idempotent.
    pub fn resume(&self) {
        let mut state = self.core.lock();
        state.paused = false;
        state.idle.drain(..).for_each(|worker| worker.unpark());
    }

    /// The scheduled engine (for catalog inspection, backend stats, ...).
    pub fn engine(&self) -> &Engine {
        &self.core.engine
    }

    /// The aggregate statistics: one exact snapshot, taken under the lock
    /// every admission, pick and finish takes.
    pub fn stats(&self) -> SchedStats {
        let state = self.core.lock();
        SchedStats {
            slot_capacity: self.core.slots.capacity(),
            peak_slots_in_use: self.core.slots.peak_in_use(),
            total_slot_wait_ms: self.core.slots.total_wait_ms(),
            ..state.queue.stats()
        }
    }
}

impl Drop for QueryScheduler {
    /// Graceful shutdown: close admission, let queued queries finish (a
    /// paused scheduler is resumed so they can), join the workers.
    fn drop(&mut self) {
        let mut state = self.core.lock();
        (state.shutdown, state.paused) = (true, false);
        state.idle.drain(..).for_each(|worker| worker.unpark());
        drop(state);
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Pick and serve jobs until shutdown finds the queue empty. A worker with
/// nothing to pick parks among the idle; whoever wakes it took it off that
/// list, and a worker woken by anything else takes itself off, so a busy
/// worker is never the one a submission wakes.
fn worker_loop(core: &SchedCore) {
    let me = clock::unparker();
    loop {
        let mut state = core.lock();
        let (picked, now) = loop {
            state.idle.retain(|worker| *worker != me);
            if !state.paused {
                let now = clock::now();
                if let Some(picked) = state.queue.pick(now) {
                    break (picked, now);
                }
                if state.shutdown {
                    return;
                }
            }
            state.idle.push(me.clone());
            drop(state);
            clock::park_until(None);
            state = core.lock();
        };
        drop(state);
        serve(core, picked, now);
    }
}

/// Run a job picked at `started` and resolve its ticket; a job cancelled at
/// pick resolves with its error at once.
fn serve(core: &SchedCore, picked: Pick<Work>, started: Instant) {
    let none = ExecMetrics::default();
    let (job, queue_ms, result, run_ms, finish_seq) = match picked {
        Pick::Cancelled(job, queue_ms, error, seq) => (job, queue_ms, Err(error), 0.0, seq),
        Pick::Run(job, queue_ms, budget_ms) => {
            let sql = &job.submission.payload.0;
            // A panicking query must not take its worker thread (and every
            // later queued query's ticket) down with it.
            let result = catch_unwind(AssertUnwindSafe(|| match budget_ms {
                // The query gets only its remaining budget after queueing.
                Some(budget_ms) => core.engine.execute_with_deadline(sql, budget_ms),
                None => core.engine.execute(sql),
            }))
            .unwrap_or_else(|_| Err(Error::execution("query execution panicked")));
            let finished = clock::now();
            let run_ms = (finished - started).as_secs_f64() * 1000.0;
            let m = result.as_ref().map_or(&none, |r| &r.metrics);
            let (calls, coalesced, batched) = (m.llm_calls(), m.coalesced_calls, m.batched_rows);
            let finish_seq = core
                .lock()
                .queue
                .finish(&job, calls, run_ms, coalesced, batched, finished);
            (job, queue_ms, result, run_ms, finish_seq)
        }
    };
    let m = result.as_ref().map_or(&none, |r| &r.metrics);
    let s = job.submission;
    s.payload.1.fulfill(QueryOutcome {
        tenant: s.tenant,
        priority: s.priority,
        queue_ms,
        run_ms,
        slot_wait_ms: m.slot_wait_ms,
        llm_calls: m.llm_calls(),
        // Graceful degradation: the partial-result marker rides on the
        // outcome, so QoS layers need not dig through the metrics.
        incomplete: m.incomplete.clone(),
        finish_seq,
        result,
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

    /// A traditional in-memory engine (no model): queries are instant.
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
        engine.attach_simulator(kb.into_shared()).unwrap();
        engine
    }

    #[test]
    fn scheduler_handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QueryScheduler>();
        assert_send_sync::<SchedStats>();
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
        // Invalid deadlines are config errors, not silent admits.
        for deadline_ms in [0.0, f64::NAN] {
            let err = sched
                .submit_with_deadline("t", Priority::NORMAL, sql, deadline_ms)
                .unwrap_err();
            assert_eq!(err.kind, ErrorKind::Config);
        }
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
        sched.core.lock().shutdown = true;
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
}
