#![forbid(unsafe_code)]
//! # llmsql-sched
//!
//! The cross-query scheduler: the shared runtime that sits between client
//! sessions and one `llmsql_core::Engine`, arbitrating the engine's scarcest
//! resource — LLM-call slots — between many concurrent queries. A query's
//! `parallelism` bounds its own requests in flight; [`QueryScheduler`]
//! bounds them across queries with three mechanisms:
//!
//! * **Admission control.** [`QueryScheduler::submit`] enqueues a query under
//!   a tenant and a [`llmsql_types::Priority`]. The queue is bounded
//!   globally ([`llmsql_types::SchedConfig::max_queue_depth`]) and per
//!   tenant ([`llmsql_types::SchedConfig::tenant_queue_cap`]); submissions
//!   beyond either cap are rejected immediately with a
//!   [`llmsql_types::ErrorKind::Scheduler`] error instead of piling up
//!   unbounded. A [`llmsql_types::SchedPolicy`] picks the next admitted
//!   query: FIFO, priority, or weighted fair share (per-tenant deficit
//!   counters charged with each query's completed LLM calls; the tenant with
//!   the smallest weight-normalized charge runs next, so completed-call
//!   shares converge to the configured weights under backlog and no tenant
//!   can starve another).
//!
//! * **Slot-based throttling.** The scheduler owns a global
//!   [`llmsql_exec::CallSlots`] pool of `llm_slots` call slots and attaches
//!   it to the engine; every scan worker of every running query takes a slot
//!   for exactly the duration of one model request. Global in-flight never
//!   exceeds the pool, *whatever* each query's `parallelism` is — and
//!   because prompts are planned before slots are taken, throttling delays
//!   dispatch without changing any query's prompt set, rows, or logical
//!   call count (see the slot/ticket contract in [`llmsql_llm::slots`]).
//!
//! * **Per-query tickets.** [`submit`](QueryScheduler::submit) returns a
//!   [`QueryTicket`]; [`QueryTicket::wait`] blocks until the query ran and
//!   yields a [`QueryOutcome`] carrying the result plus queue time, run
//!   time, slot-wait time (from `ExecMetrics::slot_wait_ms`), LLM calls and
//!   the global completion ordinal — the accounting a billing or QoS layer
//!   needs per query.
//!
//! # Admission is a transition function on given time
//!
//! The queue — admitted jobs, per-tenant counts and token buckets, the
//! run-time EWMA and every [`SchedStats`] counter — is plain data that three
//! transitions change: admit, pick and finish, each at an instant it is
//! handed. Only the thread shell around it reads the clock, once per event,
//! and it holds the queue, the pause flag and the shutdown flag under one
//! lock. [`QueryScheduler::stats`] is therefore one exact snapshot: at any
//! moment `rejected` is the number of rejections handed out, `completed` the
//! number of tickets resolved, and `queued` the admitted queries no worker
//! has picked. The policy and admission tests drive the queue on synthetic
//! instants with no engine, thread or sleep.
//!
//! # Failure-handling contract
//!
//! Three guarantees hold whenever the scheduler rejects or degrades work,
//! so callers can build retry loops and QoS layers on top without
//! second-guessing the runtime:
//!
//! * **Rejections are loss-less and self-describing.** A submission turned
//!   away at admission — per-tenant token-bucket throttle, watermark-based
//!   load shedding ([`llmsql_types::SchedConfig`]'s `shed_queue_watermark` /
//!   `shed_wait_watermark_ms`), a full global or tenant queue, or a
//!   hopeless-deadline projection — never started, consumed no LLM calls
//!   and spent no rate-limit token; resubmitting it is always safe. Each
//!   carries a `retry_after_ms` hint ([`llmsql_types::Error::retry_after_ms`]):
//!   structurally for throttle and shed ([`llmsql_types::ErrorKind::Overloaded`]),
//!   attached for queue-full and deadline rejections. Shedding drops
//!   strictly-lower-priority work first; [`SchedStats::shed`] and
//!   [`SchedStats::throttled`] are also counted in `rejected`, which always
//!   equals the rejection errors handed out.
//!
//! * **Retries and hedges are budget-free.** Fault recovery below the
//!   scheduler (backend retries, hedged requests, failover) never consumes
//!   a query's logical call budget or a tenant's call bucket: buckets and
//!   deficit counters are charged with *logical* calls
//!   (`ExecMetrics::llm_calls`), never physical attempts.
//!
//! * **Partial results are deterministic and labelled.** With
//!   `EngineConfig::with_partial_results`, a query cut short by a lapsed
//!   deadline or a mid-query backend loss resolves `Ok` with an exact
//!   prefix of the full answer — under every prompt strategy, the rows
//!   whose prompts were all answered before the first failed one — and a
//!   [`llmsql_types::Incomplete`] marker (surfaced on
//!   [`QueryOutcome::incomplete`]) naming the fault and the rows/calls
//!   spent; the prefix a given cut produces is a function of the answers
//!   consumed in prompt order, never of scheduling interleavings.
//!
//! **Workers park on their own event loop, not inside calls.** A query runs
//! on the worker that picked it up, and each of its scans drives a private
//! [`llmsql_exec::LiveSet`] there, the same loop a standalone engine runs. A
//! worker therefore holds a whole window of requests, and `llm_slots` is the
//! only deployment-wide in-flight ceiling: 64 slots on 4 workers is the
//! normal shape, not 64 blocked threads (`examples/async_dispatch.rs`). The
//! workers share only the state their requests poll: the
//! [`llmsql_exec::CallSlots`] pool (which the backend pool's hedges draw on
//! too), the client's request table, and the backend pool's breakers and
//! latency averages. A request waiting on another query — for a slot, or for
//! a coalescing leader's answer — registers its worker's thread with the
//! slot pool or the leader's flight and parks; the release or publish that
//! unblocks it unparks the thread (`llmsql_types::clock::park_until`). Its
//! waits surface in `SchedStats::total_slot_wait_ms` /
//! `ExecMetrics::slot_wait_ms`. Idle workers and ticket holders park and
//! are unparked the same way, by `submit`, `resume`, shutdown and the
//! worker that fulfils the ticket.
//!
//! Two optimizations take physical requests below logical calls, both
//! accounted in [`SchedStats`]:
//!
//! * **Prompt coalescing** (`llmsql_llm::RequestTable`): the engine's one
//!   client has one table, so identical in-flight `(fingerprint, prompt,
//!   params)` calls from different queries collapse into one physical
//!   request whose answer fans out to every waiter. A cached client's table
//!   already does this; a cache-less one is given a table that keeps no
//!   answers when the scheduler attaches its slot pool. Followers are charged
//!   their query's *logical* call budget but issue zero physical requests
//!   ([`SchedStats::coalesced_calls`]; the contract is `llmsql_llm::cache`'s).
//! * **Tuple batching** (`EngineConfig::batch_rows_per_call`): where the
//!   scan strategy allows, up to that many per-tuple prompts pack into one
//!   request and the structured answer is split back per row — rows and
//!   logical call counts are byte-identical at any batch size
//!   ([`SchedStats::batched_rows`]).
//!
//! ```
//! use llmsql_core::Engine;
//! use llmsql_sched::QueryScheduler;
//! use llmsql_types::{EngineConfig, ExecutionMode, Priority, SchedConfig};
//!
//! let mut engine = Engine::new(EngineConfig::default().with_mode(ExecutionMode::Traditional));
//! engine.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)").unwrap();
//! engine.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
//!
//! let sched = QueryScheduler::new(engine, SchedConfig::default()).unwrap();
//! let ticket = sched
//!     .submit("tenant-a", Priority::NORMAL, "SELECT COUNT(*) FROM t")
//!     .unwrap();
//! let outcome = ticket.wait();
//! assert_eq!(outcome.result.unwrap().scalar(), Some(llmsql_types::Value::Int(3)));
//! ```

#![warn(missing_docs)]

mod queue;
mod ratelimit;
mod scheduler;
mod ticket;

pub use scheduler::{QueryScheduler, SchedStats};
pub use ticket::{QueryOutcome, QueryTicket};
