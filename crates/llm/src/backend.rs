//! Multi-backend dispatch: the [`Backend`] trait, the deterministic
//! [`RemoteLlm`] endpoint simulator, and the [`BackendPool`] router.
//!
//! # The `Backend` contract
//!
//! A [`Backend`] is one *endpoint* serving completions — in production an
//! HTTP host behind a load balancer, here a deterministic simulation of one.
//! Implementations must uphold:
//!
//! 1. **Semantic identity.** `complete` either fails or returns a completion
//!    whose *text* is a pure function of the prompt — never of the attempt
//!    number, wall-clock time, or thread interleaving. Accounting fields
//!    (`cost_usd`, `latency_ms`) may differ per backend; the text may not.
//!    Backends advertise the model they serve via [`Backend::fingerprint`];
//!    two backends with equal fingerprints MUST produce byte-identical text
//!    for every prompt. [`BackendPool::new`] enforces fingerprint equality so
//!    routing and failover can never change query results.
//! 2. **Deterministic failure.** Whether attempt `k` of a prompt fails must
//!    be a pure function of `(backend, prompt, k)`. This keeps *call counts*
//!    reproducible: the retry/failover trace for a query is identical across
//!    runs and across parallelism levels.
//! 3. **Thread safety without serialization.** `complete` is called from many
//!    scan workers at once; implementations must not funnel requests through
//!    one lock (interior counters should be atomics).
//!
//! # The dispatch protocol
//!
//! There is one way a request travels through a pool:
//! [`BackendPool::submit_call`] returns a [`PoolCall`], a poll-driven state
//! machine that performs the *entire* routing protocol without blocking or
//! spawning. An event loop (`llmsql_exec::reactor`) polls many of them from
//! one thread; [`BackendPool::complete`] is the same machine driven by
//! [`CallHandle::wait`] for callers that have no loop.
//!
//! * **Candidate walk.** The backends are ordered by the configured
//!   [`RoutingPolicy`]; each candidate gets at most `1 + retries` attempts
//!   with exponential backoff between attempts (`backoff_base_ms *
//!   2^attempt`, capped). The first success wins; if every candidate is
//!   exhausted the last error is returned. Backoff is a timer surfaced
//!   through [`CallMachine::next_wakeup`], never a sleep. With hedging on
//!   the policy picks only the primary: the failover candidates behind it
//!   are sorted once per request by health (see "Latency tracking and
//!   hedged requests"), so the walk and the hedge follow one order.
//! * **Attempts are handles.** Each attempt is one [`Backend::submit`]: it
//!   returns a [`CallHandle`] at once and must not wait out the round trip.
//!   [`CallHandle::poll`] is non-blocking and yields the result exactly once
//!   (`None` while pending, and again after the result was taken);
//!   [`CallHandle::next_wakeup`] says when polling can next make progress,
//!   so a parked caller never spins. The default `submit` is a blocking
//!   adapter — `complete` runs inline and the handle comes back resolved —
//!   so any backend works, but one that can separate *computing* a response
//!   from *waiting out* its latency (like [`RemoteLlm`]) returns a
//!   timer-backed handle and lets one thread hold many requests in flight.
//! * **Cancellation is dropping.** A dropped in-flight handle or
//!   [`PoolCall`] releases its per-backend `in_flight` gauges, a half-open
//!   probe claim and a hedge's slot permit; nothing keeps running elsewhere.
//! * **Accounting.** Retries, failover attempts and hedges are *physical*
//!   calls — they show up in the per-backend counters
//!   ([`BackendPool::stats`]) but never in the engine's logical call budget
//!   (`max_llm_calls`), which counts prompts, not attempts. Each is counted
//!   once, where the attempt launches or is harvested, on the pool's counter
//!   and on the [`BackendReceipt`] of the call that made it
//!   ([`CallMachine::backend_receipts`]): a query's share of the pool's
//!   counters is the sum of its calls' receipts, never a difference of two
//!   snapshots.
//!
//! # Circuit breaker (backend health tracking)
//!
//! Without health tracking a hard-down backend costs `1 + retries` wasted
//! attempts on *every* request routed to it. With
//! [`BackendPool::with_breaker`] each backend carries a breaker:
//!
//! * **closed** — requests flow normally; every success resets the
//!   consecutive-error count.
//! * **open** — after `threshold` consecutive failed attempts the backend is
//!   skipped by the candidate walk entirely (recorded as
//!   [`BackendStats::short_circuits`]); the total attempts a hard-down
//!   backend absorbs is bounded by the threshold (plus in-flight races), not
//!   by request count.
//! * **half-open** — once `cooldown_ms` elapses, exactly one probe request
//!   is let through *per cooldown window*. Success closes the breaker;
//!   failure re-opens it for another cooldown. The single-probe guarantee is
//!   race-free: the probe claim is a compare-exchange on the exact cooldown
//!   expiry the claimant observed (the claim and the expiry share one atomic
//!   word), so N racing requests on an expired breaker admit exactly one
//!   probe — and a racer that read the expiry just before a failed probe
//!   re-opened the breaker cannot claim a second probe inside the new
//!   window. An abandoned probe (dropped [`CallHandle`], panicking backend)
//!   releases the claim and re-expires the cooldown immediately.
//!
//! The breaker is disabled by default (`threshold == 0`): with it off, the
//! physical retry/failover trace is the PR 2 pure function of
//! `(backend, prompt, attempt)`; with it on, wall-clock cooldowns make the
//! trace time-dependent by design — health tracking trades trace
//! reproducibility for bounded waste. Completion *text* is unaffected either
//! way.
//!
//! # Failure-handling contract
//!
//! The invariants every fault-tolerance mechanism in this module upholds,
//! relied on by the scheduler and the chaos harness:
//!
//! * **Retries, failover and hedges are budget-free.** They are *physical*
//!   attempts — visible in [`BackendPool::stats`] — but the engine's logical
//!   call budget (`max_llm_calls`) counts prompts. A fault that costs extra
//!   attempts can never starve a query of its call budget.
//! * **Bounded retry spend.** One logical call issues at most
//!   `backends × (1 + retries)` physical attempts plus at most one hedge;
//!   with the breaker on, a hard-down backend absorbs at most `threshold`
//!   attempts per cooldown window (plus one probe), no matter the request
//!   rate.
//! * **Faults cannot change rows.** Pooled backends are fingerprint-equal,
//!   completion text is a pure function of the prompt, and failure decisions
//!   are pure functions of `(backend, prompt, attempt, seed, chaos plan)` —
//!   so any interleaving of retries, failover, hedging and fault injection
//!   yields byte-identical result rows.
//! * **Deterministic fault injection.** A [`ChaosPlan`]
//!   ([`BackendPool::from_specs_with_chaos`]) schedules outages, error
//!   bursts and latency storms on the plan's *virtual* clock (a pure
//!   function of the prompt), never the wall clock: the same seed reproduces
//!   the same faults, and latency storms stretch only wall-clock round
//!   trips, never reported latency accounting.
//!
//! # Latency tracking and hedged requests (tail-latency control)
//!
//! Every backend slot keeps a lock-free exponentially-weighted moving
//! average of its *measured* request latency (wall-clock time from
//! [`Backend::submit`] to the handle resolving, updated on success only —
//! distinct from
//! [`BackendStats::latency_ms`], which accumulates the *reported* simulated
//! latencies). The EWMA powers three mechanisms:
//!
//! * [`llmsql_types::RoutingPolicy::LatencyAware`] orders candidates by
//!   ascending EWMA; sample-less backends sort first so a cold pool explores
//!   every member once before settling on the fastest.
//! * **Hedged requests** ([`BackendPool::with_hedging`]). A request is *late*
//!   once it has been in flight longer than
//!   `multiplier × (lowest EWMA among healthy backends)`, floored at
//!   `min_ms`. Every hedgeable request arms a timer for that instant when
//!   the walk launches its first attempt; if the timer expires while that
//!   candidate is still working, exactly one duplicate ("hedge") goes to the
//!   next healthy candidate of the walk. The first success wins and the
//!   loser is dropped, which cancels it; the time a beaten flight had
//!   already taken is folded into its backend's EWMA where it exceeds the
//!   estimate, so a member that only ever loses still gets sampled. Because
//!   arming a timer costs nothing, a one-off stall on a usually-fast backend
//!   is hedged just like a chronically slow one.
//! * **Failover by health.** With hedging on, [`BackendPool::submit_call`]
//!   keeps the policy's primary and sorts the candidates behind it once per
//!   request: breaker-closed before open, then lowest decayed EWMA first
//!   (sample-less last), then registration order. Failover walks that
//!   order and the hedge goes to its next closed candidate, so the fastest
//!   healthy sibling is both the hedge target and the first failover stop —
//!   one rule for where the next attempt goes. A request whose primary
//!   fails or is short-circuited therefore lands on the healthiest sibling,
//!   not on whichever backend the policy's rotation puts next.
//!
//! The hedging contract:
//!
//! * **A hedge may fire only when** (a) hedging is enabled
//!   (`multiplier > 0`), (b) at least one healthy backend has a latency
//!   sample (otherwise "late" is undefined and the request takes the plain
//!   candidate walk), (c) at least two candidates' breakers are closed — the
//!   timer covers the first one the walk launches, and the hedge goes to the
//!   next closed one — and (d) the hedge admission gate grants capacity
//!   ([`BackendPool::set_hedge_permit_gate`] — wired to
//!   `CallSlots::try_acquire_owned` under a cross-query scheduler, so a
//!   hedge only ever uses *spare* slot capacity and never queues behind
//!   planned work). A veto disarms the hedge for good: the gate is consulted
//!   once per request.
//! * **Rows can never change**: pooled backends are fingerprint-equal
//!   (contract rule 1), so primary and hedge produce byte-identical text;
//!   whichever wins, the caller sees the same completion.
//! * **Budget/slot semantics**: a hedge is a *physical* attempt — it shows
//!   up in [`BackendStats::hedges`] / [`BackendStats::hedges_won`] and the
//!   per-backend call counters, holds one call slot (the permit) for its
//!   whole flight, but never consumes the engine's logical `max_llm_calls`
//!   budget (which counts prompts, like retries).
//! * Hedging, like the breaker, trades physical-trace reproducibility for
//!   latency: whether a hedge fires depends on wall-clock timing, and the
//!   failover order behind the primary follows measured health, not the
//!   policy. With hedging off the walk is the policy's order verbatim (so
//!   [`RoutingPolicy::PromptHash`]'s physical trace stays a pure function
//!   of the prompt). Completion text, rows, and logical call counts are
//!   unaffected either way.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use llmsql_types::{
    AtomicEwmaMs, BackendSpec, ChaosEffect, ChaosPlan, Error, LlmCostModel, Result, RoutingPolicy,
};

use crate::model::{CompletionRequest, CompletionResponse, LanguageModel};
use crate::noise::hash01;

/// A poll-driven completion state machine: anything that makes progress when
/// polled and can tell an event loop when to poll it next. [`PoolCall`] is
/// the main implementation; [`CallHandle::machine`] wraps one as a handle.
pub trait CallMachine: Send {
    /// Attempt to make progress. Returns the final result exactly once;
    /// `None` while pending (and again after the result was taken).
    fn poll(&mut self, now: Instant) -> Option<Result<CompletionResponse>>;

    /// The earliest instant at which [`CallMachine::poll`] can make further
    /// progress, or `None` when it should be polled immediately.
    fn next_wakeup(&self, now: Instant) -> Option<Instant>;

    /// What this call has done so far on each backend it was routed over,
    /// in routing order; readable while the call is pending and after it
    /// resolved. A machine that routes nowhere reports nothing.
    fn backend_receipts(&self, _visit: &mut dyn FnMut(&str, &BackendReceipt)) {}
}

/// The completion handle returned by [`Backend::submit`] /
/// `LanguageModel::submit`: a one-shot, poll-based future for a single
/// logical completion. See the module docs ("The dispatch protocol") for the
/// poll/cancel contract.
pub struct CallHandle {
    inner: HandleInner,
}

enum HandleInner {
    /// Already resolved (the blocking-adapter case).
    Ready(Option<Result<CompletionResponse>>),
    /// Resolved, but not observable before `ready_at` (a simulated round
    /// trip represented as a timer instead of a sleeping thread).
    Timed {
        ready_at: Instant,
        result: Option<Result<CompletionResponse>>,
    },
    /// Driven by a nested state machine (e.g. a [`PoolCall`]).
    Machine(Box<dyn CallMachine>),
}

impl CallHandle {
    /// An already-resolved handle (the blocking adapter).
    pub fn ready(result: Result<CompletionResponse>) -> CallHandle {
        CallHandle {
            inner: HandleInner::Ready(Some(result)),
        }
    }

    /// A handle whose (precomputed) result becomes observable at `ready_at`.
    pub fn timed(result: Result<CompletionResponse>, ready_at: Instant) -> CallHandle {
        CallHandle {
            inner: HandleInner::Timed {
                ready_at,
                result: Some(result),
            },
        }
    }

    /// A handle driven by a nested [`CallMachine`].
    pub fn machine(machine: Box<dyn CallMachine>) -> CallHandle {
        CallHandle {
            inner: HandleInner::Machine(machine),
        }
    }

    /// Non-blocking progress check; returns the result exactly once.
    pub fn poll(&mut self, now: Instant) -> Option<Result<CompletionResponse>> {
        match &mut self.inner {
            HandleInner::Ready(result) => result.take(),
            HandleInner::Timed { ready_at, result } => {
                if now >= *ready_at {
                    result.take()
                } else {
                    None
                }
            }
            HandleInner::Machine(machine) => machine.poll(now),
        }
    }

    /// When the next [`CallHandle::poll`] can make progress (`None` = now).
    pub fn next_wakeup(&self, now: Instant) -> Option<Instant> {
        match &self.inner {
            HandleInner::Ready(_) => None,
            HandleInner::Timed { ready_at, .. } => Some(*ready_at),
            HandleInner::Machine(machine) => machine.next_wakeup(now),
        }
    }

    /// [`CallMachine::backend_receipts`] of the machine driving this handle,
    /// if one does.
    pub fn backend_receipts(&self, visit: &mut dyn FnMut(&str, &BackendReceipt)) {
        if let HandleInner::Machine(machine) = &self.inner {
            machine.backend_receipts(visit);
        }
    }

    /// Block the calling thread until the handle resolves: poll, then sleep
    /// to [`CallHandle::next_wakeup`]. This is how every blocking `complete`
    /// in this crate is built from its `submit`.
    pub fn wait(mut self) -> Result<CompletionResponse> {
        crate::wait::block_on(|now| self.poll(now).ok_or_else(|| self.next_wakeup(now)))
    }
}

/// One completion endpoint. See the module docs for the full contract.
pub trait Backend: Send + Sync {
    /// Unique endpoint name within a pool (shows up in per-backend metrics).
    fn id(&self) -> &str;

    /// Serve one attempt of a request. `attempt` is the zero-based ordinal of
    /// this attempt *on this backend* for this request; deterministic
    /// backends derive transient-failure decisions from it (contract rule 2).
    fn complete(&self, request: &CompletionRequest, attempt: usize) -> Result<CompletionResponse>;

    /// Non-blocking submission of one attempt (see the module docs). The
    /// default is the blocking adapter: `complete` runs inline and the handle
    /// comes back already resolved, so existing backends work unchanged.
    fn submit(&self, request: &CompletionRequest, attempt: usize) -> CallHandle {
        CallHandle::ready(self.complete(request, attempt))
    }

    /// Semantic fingerprint of the model this endpoint serves (contract
    /// rule 1). Pools require all members to agree.
    fn fingerprint(&self) -> String;

    /// This endpoint's pricing/latency model (cost-aware routing reads it).
    fn cost_model(&self) -> LlmCostModel {
        LlmCostModel::default()
    }

    /// The served model's observed cardinality of `table`, if the endpoint
    /// reports one (see [`LanguageModel::relation_cardinality`]).
    fn relation_cardinality(&self, _table: &str) -> Option<u64> {
        None
    }
}

/// A deterministic "remote-like" endpoint: wraps a shared [`LanguageModel`]
/// (the completion text source) and layers endpoint behaviour on top —
/// simulated network latency, deterministic transient errors, and its own
/// pricing. Built from a [`BackendSpec`] via [`RemoteLlm::from_spec`].
pub struct RemoteLlm {
    id: String,
    inner: Arc<dyn LanguageModel>,
    latency_ms: f64,
    error_rate: f64,
    cost_model: LlmCostModel,
    seed: u64,
    /// Optional chaos schedule (outages, error bursts, latency storms). The
    /// effect for a prompt is a pure function of `(plan, backend id, prompt)`
    /// — fault injection keeps contract rule 2 intact.
    chaos: Option<Arc<ChaosPlan>>,
}

impl RemoteLlm {
    /// Wrap `inner` as the endpoint described by `spec`. `seed` drives the
    /// deterministic error stream (usually the engine seed).
    pub fn from_spec(inner: Arc<dyn LanguageModel>, spec: &BackendSpec, seed: u64) -> Self {
        RemoteLlm {
            id: spec.name.clone(),
            inner,
            latency_ms: spec.latency_ms.max(0.0),
            error_rate: spec.error_rate.clamp(0.0, 1.0),
            cost_model: spec.cost_model,
            seed,
            chaos: None,
        }
    }

    /// Builder-style: subject this endpoint to a [`ChaosPlan`]. Outage and
    /// flapping windows make attempts fail deterministically, error bursts
    /// raise the effective error rate, and latency storms / slow drips scale
    /// the *wall-clock* round trip (reported latency accounting is
    /// unaffected, so cost/latency metrics stay chaos-independent).
    pub fn with_chaos(mut self, plan: Arc<ChaosPlan>) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// The chaos effect governing `prompt` on this endpoint (none → benign).
    fn chaos_effect(&self, prompt: &str) -> ChaosEffect {
        match &self.chaos {
            Some(plan) => plan.effect_for_prompt(&self.id, prompt),
            None => ChaosEffect::NONE,
        }
    }

    /// Does attempt `attempt` of `prompt` fail on this endpoint? Pure
    /// function of `(backend id, prompt, attempt, seed, chaos plan)` —
    /// contract rule 2 holds with fault injection active.
    fn attempt_fails(&self, prompt: &str, attempt: usize) -> bool {
        let effect = self.chaos_effect(prompt);
        if effect.down {
            return true;
        }
        if effect.error_rate > 0.0
            && hash01(
                &["chaos_error", &self.id, prompt, &attempt.to_string()],
                self.seed,
            ) < effect.error_rate
        {
            return true;
        }
        if self.error_rate >= 1.0 {
            return true;
        }
        if self.error_rate <= 0.0 {
            return false;
        }
        hash01(
            &["backend_error", &self.id, prompt, &attempt.to_string()],
            self.seed,
        ) < self.error_rate
    }

    /// This endpoint's wall-clock simulated round trip for `prompt`,
    /// milliseconds: the spec latency scaled by any active latency storm.
    fn effective_latency_ms(&self, prompt: &str) -> f64 {
        self.latency_ms * self.chaos_effect(prompt).latency_factor
    }
}

/// Re-price an inner model's completion as served by one endpoint: the
/// endpoint's own cost model, with the endpoint's network round trip folded
/// into the reported latency. The text stays the inner model's verbatim
/// (contract rule 1).
fn reprice_response(
    cost_model: LlmCostModel,
    endpoint_latency_ms: f64,
    response: CompletionResponse,
) -> CompletionResponse {
    let cost_usd = cost_model.request_cost_usd(response.prompt_tokens, response.completion_tokens);
    let latency_ms =
        endpoint_latency_ms + cost_model.request_latency_ms(response.completion_tokens);
    CompletionResponse {
        cost_usd,
        latency_ms,
        ..response
    }
}

/// The flight of one [`RemoteLlm`] attempt: first the inner model's
/// (possibly timer-backed) completion, then this endpoint's own simulated
/// round trip as a second timer — so a latency-bearing inner model never
/// blocks the polling thread, and the serial wall time is inner time plus
/// endpoint latency.
struct RemoteCall {
    inner: CallHandle,
    endpoint_latency: Duration,
    cost_model: LlmCostModel,
    endpoint_latency_ms: f64,
    /// The repriced result, held until the endpoint round-trip timer fires.
    staged: Option<(Result<CompletionResponse>, Instant)>,
}

impl CallMachine for RemoteCall {
    fn poll(&mut self, now: Instant) -> Option<Result<CompletionResponse>> {
        let (result, ready_at) = match self.staged.take() {
            Some(staged) => staged,
            None => {
                let outcome = self.inner.poll(now)?;
                let repriced = outcome
                    .map(|resp| reprice_response(self.cost_model, self.endpoint_latency_ms, resp));
                (repriced, now + self.endpoint_latency)
            }
        };
        if now >= ready_at {
            Some(result)
        } else {
            self.staged = Some((result, ready_at));
            None
        }
    }

    fn next_wakeup(&self, now: Instant) -> Option<Instant> {
        match &self.staged {
            Some((_, ready_at)) => Some(*ready_at),
            None => self.inner.next_wakeup(now),
        }
    }
}

impl Backend for RemoteLlm {
    fn id(&self) -> &str {
        &self.id
    }

    fn complete(&self, request: &CompletionRequest, attempt: usize) -> Result<CompletionResponse> {
        self.submit(request, attempt).wait()
    }

    /// One attempt: the failure decision is made now — a pure function of
    /// `(backend, prompt, attempt)`, contract rule 2 — the inner model is
    /// submitted through *its* non-blocking API (so an inner model with its
    /// own simulated latency contributes a timer, not a sleep), and this
    /// endpoint's round trip becomes a second timer on the returned handle.
    /// On success the inner model's text is kept verbatim (contract rule 1)
    /// and re-priced with this endpoint's cost model. This is the backend
    /// that lets one OS thread hold arbitrarily many in-flight simulated
    /// requests.
    fn submit(&self, request: &CompletionRequest, attempt: usize) -> CallHandle {
        // Chaos latency storms stretch the wall-clock timers; the *reported*
        // latency (and therefore cost/latency accounting) stays the spec's.
        let round_trip_ms = self.effective_latency_ms(&request.prompt);
        if self.attempt_fails(&request.prompt, attempt) {
            let err = Err(Error::llm(format!(
                "backend '{}' failed attempt {attempt} (simulated endpoint error)",
                self.id
            )));
            return if round_trip_ms > 0.0 {
                CallHandle::timed(
                    err,
                    Instant::now() + Duration::from_secs_f64(round_trip_ms / 1000.0),
                )
            } else {
                CallHandle::ready(err)
            };
        }
        CallHandle::machine(Box::new(RemoteCall {
            inner: self.inner.submit(request),
            endpoint_latency: Duration::from_secs_f64(round_trip_ms.max(0.0) / 1000.0),
            cost_model: self.cost_model,
            endpoint_latency_ms: self.latency_ms,
            staged: None,
        }))
    }

    fn fingerprint(&self) -> String {
        self.inner.fingerprint()
    }

    fn cost_model(&self) -> LlmCostModel {
        self.cost_model
    }

    fn relation_cardinality(&self, table: &str) -> Option<u64> {
        self.inner.relation_cardinality(table)
    }
}

/// A snapshot of one backend's physical-call counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BackendStats {
    /// Backend name.
    pub id: String,
    /// Physical attempts issued to this backend (including failed ones).
    pub calls: u64,
    /// Attempts that returned an error.
    pub errors: u64,
    /// Attempts that were retries (of any prior failed attempt on this
    /// backend for the same request).
    pub retries: u64,
    /// Sum of reported completion latencies for successful attempts, ms.
    pub latency_ms: f64,
    /// Requests currently being served by this backend.
    pub in_flight: u64,
    /// Requests that skipped this backend because its circuit breaker was
    /// open (each one saved `1 + retries` doomed attempts).
    pub short_circuits: u64,
    /// True while the breaker is not closed (open, or awaiting the outcome
    /// of a half-open probe).
    pub breaker_open: bool,
    /// Hedge requests issued *to* this backend (duplicates of a late request
    /// first dispatched elsewhere). Always zero with hedging disabled.
    pub hedges: u64,
    /// Hedges issued to this backend whose response won the race against the
    /// late primary.
    pub hedges_won: u64,
}

/// One call's own share of one backend's [`BackendStats`]: what that call,
/// and nothing else, did there. Every event is counted on the backend's
/// counters and on the receipt of the call that caused it at the same site,
/// so the receipts of all calls sum to the pool's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BackendReceipt {
    /// Physical attempts this call issued to the backend (failed ones,
    /// retries and a hedge included).
    pub calls: u64,
    /// Attempts that returned an error.
    pub errors: u64,
    /// Reported completion latency of the attempts that succeeded, ms.
    pub latency_ms: f64,
    /// Hedges this call issued to the backend (at most one).
    pub hedges: u64,
    /// Hedges issued to the backend that beat the late primary.
    pub hedges_won: u64,
}

/// Lock-free per-backend counters (see [`BackendStats`] for the snapshot).
#[derive(Default)]
struct SlotCounters {
    calls: AtomicU64,
    errors: AtomicU64,
    retries: AtomicU64,
    /// Latency accumulated in microseconds (an atomic f64 is not portable).
    latency_us: AtomicU64,
    in_flight: AtomicU64,
    short_circuits: AtomicU64,
    hedges: AtomicU64,
    hedges_won: AtomicU64,
    /// EWMA of *measured* successful-request latency, milliseconds.
    ewma: AtomicEwmaMs,
    /// Pool-epoch time (ms, saturated to ≥ 1 so 0 keeps meaning "never") of
    /// the latest EWMA sample — the staleness clock for read-side decay.
    last_sample_ms: AtomicU64,
}

/// Reported completion latency → accumulated microseconds. Rounds to the
/// nearest microsecond instead of truncating (which silently dropped sub-µs
/// remainders on every call) and clamps NaN / negative simulated latencies
/// to zero instead of letting the `f64 → u64` cast produce garbage.
fn round_latency_us(latency_ms: f64) -> u64 {
    let us = (latency_ms * 1000.0).round();
    if us.is_finite() && us > 0.0 {
        us as u64 // saturating cast: an absurd finite latency pins at u64::MAX
    } else {
        0
    }
}

/// Sentinel value of [`BreakerState::open_until_ms`] marking "a half-open
/// probe is in flight". Encoding the probe claim *in the same word* as the
/// cooldown expiry is what makes probe admission race-free: claiming the
/// probe is a compare-exchange on the exact expiry the claimant observed, so
/// a racer holding a stale expiry (including one from a previous cooldown
/// window) can never slip a second probe through.
const PROBE_IN_FLIGHT: u64 = u64::MAX;

/// Circuit-breaker state of one backend. Lock-free: the candidate walk reads
/// it on every request.
///
/// The whole open/half-open protocol lives in one atomic word,
/// `open_until_ms`: `0` = closed, [`PROBE_IN_FLIGHT`] = a probe owns the
/// half-open window, anything else = open until that pool-epoch time.
#[derive(Default)]
struct BreakerState {
    /// Failed attempts since the last success.
    consecutive_errors: AtomicU64,
    /// `0` = closed. [`PROBE_IN_FLIGHT`] = cooldown expired and exactly one
    /// probe request is in flight. Otherwise the pool-epoch-relative time
    /// (ms, saturated to at least 1 so it never collides with the closed
    /// sentinel) at which the cooldown expires and a half-open probe may go
    /// through.
    open_until_ms: AtomicU64,
}

/// What the breaker allows for the next request on a backend.
#[derive(Debug, PartialEq)]
enum Admission {
    /// Breaker closed: attempt normally.
    Normal,
    /// Cooldown elapsed: this request is the single half-open probe.
    Probe,
    /// Breaker open: skip the backend.
    Skip,
}

impl BreakerState {
    fn admission(&self, now_ms: u64) -> Admission {
        // ordering: Acquire — pairs with the Release stores in open()/
        // on_success(); a caller that observes "closed" also observes the
        // error-count reset that preceded it.
        let open_until = self.open_until_ms.load(Ordering::Acquire);
        if open_until == 0 {
            return Admission::Normal;
        }
        if open_until == PROBE_IN_FLIGHT || now_ms < open_until {
            return Admission::Skip;
        }
        // Cooldown elapsed: let exactly one caller through as the probe.
        // The compare-exchange is against the expiry this caller *observed*,
        // so of N racers exactly one wins; the rest fail (the word now holds
        // the sentinel — or a fresh expiry if the probe already resolved)
        // and keep skipping. In particular a racer that passed the expiry
        // check just before a failed probe re-opened the breaker can no
        // longer claim a second probe inside the new cooldown window: its
        // stale expiry no longer matches.
        // ordering: AcqRel on success — the winner both acquires the state
        // the opener published and releases its probe claim to whoever
        // resolves it; Acquire on failure so the loser sees the up-to-date
        // word when it skips.
        if self
            .open_until_ms
            .compare_exchange(
                open_until,
                PROBE_IN_FLIGHT,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
        {
            Admission::Probe
        } else {
            Admission::Skip
        }
    }

    fn on_success(&self) {
        // ordering: Release ×2 — the error-count reset must be visible
        // before the "closed" word is; pairs with the Acquire load in
        // admission(), so a closed breaker is never seen with a stale
        // pre-reset error count.
        self.consecutive_errors.store(0, Ordering::Release);
        self.open_until_ms.store(0, Ordering::Release);
    }

    /// Open the breaker until `now_ms + cooldown_ms`. Saturating: an absurd
    /// (but finite, so validation-passing) cooldown pins the expiry just
    /// below [`PROBE_IN_FLIGHT`] instead of overflowing (or colliding with
    /// the sentinel, which would read as a phantom probe).
    fn open(&self, now_ms: u64, cooldown_ms: f64) {
        let cooldown = cooldown_ms.max(0.0) as u64; // f64→u64 casts saturate
                                                    // ordering: Release — publishes the expiry (and the error history
                                                    // before it) to admission()'s Acquire load; the probe CAS there is
                                                    // against this exact value.
        self.open_until_ms.store(
            now_ms
                .saturating_add(cooldown)
                .clamp(1, PROBE_IN_FLIGHT - 1),
            Ordering::Release,
        );
    }

    /// Record a failed attempt; returns true when the breaker is now open
    /// (so the caller stops burning retries on this backend).
    fn on_error(&self, now_ms: u64, threshold: u64, cooldown_ms: f64, was_probe: bool) -> bool {
        // ordering: AcqRel — the RMW must see the latest reset (Acquire,
        // pairs with on_success's Release) and publish the new count before
        // a threshold-crossing open() (Release side); plain Relaxed could
        // fold increments across an unseen reset and open the breaker on
        // stale history.
        let errors = self.consecutive_errors.fetch_add(1, Ordering::AcqRel) + 1;
        // A failed probe goes straight back to open for another cooldown;
        // otherwise the threshold decides.
        if was_probe || (threshold > 0 && errors >= threshold) {
            self.open(now_ms, cooldown_ms);
            return true;
        }
        false
    }

    /// Release an abandoned probe claim (dropped handle, panicking backend):
    /// expire the cooldown immediately so the next request re-probes, instead
    /// of the backend staying short-circuited forever. The compare-exchange
    /// only fires if the claim is still ours — a probe whose outcome already
    /// resolved the breaker (concurrent `open`/`on_success`) is left alone.
    fn abort_probe(&self) {
        // ordering: AcqRel/Acquire — same pairing discipline as the probe
        // claim in admission(); releasing the claim must not be reorderable
        // before the work the probe abandoned.
        let _ = self.open_until_ms.compare_exchange(
            PROBE_IN_FLIGHT,
            1,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }
}

/// The per-backend state a [`PoolCall`] carries for each candidate (counters
/// and breaker live behind one `Arc`, so a call can outlive a borrow of the
/// pool).
#[derive(Default)]
struct SlotShared {
    counters: SlotCounters,
    breaker: BreakerState,
}

impl SlotShared {
    /// Record one successful attempt: reported-latency accumulator and the
    /// measured-latency EWMA. Primary and hedge flights account alike.
    /// Returns the reported latency as accumulated, microseconds.
    fn record_success(
        &self,
        reported_latency_ms: f64,
        measured_ms: f64,
        now_ms: u64,
        decay_half_life_ms: f64,
    ) -> u64 {
        let reported_us = round_latency_us(reported_latency_ms);
        // ordering: Relaxed — latency_us is a monotone statistic.
        self.counters
            .latency_us
            .fetch_add(reported_us, Ordering::Relaxed);
        self.observe_latency(measured_ms, now_ms, decay_half_life_ms);
        reported_us
    }

    /// Fold one measured latency into the EWMA and restart its staleness
    /// clock (for decayed reads).
    ///
    /// A sample landing after the estimate went stale (idle ≥ 2 decay
    /// half-lives) *replaces* the average instead of merging into it: the
    /// decayed read already declared the old value untrustworthy, so letting
    /// it drag the fresh observation would keep a recovered backend pinned
    /// to its obsolete history for many more samples.
    fn observe_latency(&self, measured_ms: f64, now_ms: u64, decay_half_life_ms: f64) {
        // ordering: Relaxed — last_sample_ms is a freshness hint where a
        // stale read only makes one sample merge instead of replace (both
        // outcomes valid).
        let last = self.counters.last_sample_ms.load(Ordering::Relaxed);
        let stale = decay_half_life_ms > 0.0
            && last != 0
            && now_ms.saturating_sub(last) as f64 >= 2.0 * decay_half_life_ms;
        if stale {
            self.counters.ewma.set(measured_ms);
        } else {
            self.counters.ewma.observe(measured_ms);
        }
        // ordering: Relaxed — freshness hint, see the load above.
        self.counters
            .last_sample_ms
            .store(now_ms.max(1), Ordering::Relaxed);
    }

    /// Fold in a *lower bound* on this backend's latency: the time a flight
    /// had already taken when a hedge beat it. The flight is about to be
    /// cancelled, so this is the only sample it will give; where the bound
    /// exceeds the current estimate it is informative. Without it a slow
    /// member whose every request is hedged away stays unsampled, and
    /// latency-aware routing keeps exploring it first.
    fn observe_latency_at_least(&self, elapsed_ms: f64, now_ms: u64, decay_half_life_ms: f64) {
        if self
            .decayed_ewma(now_ms, decay_half_life_ms)
            .is_none_or(|estimate_ms| elapsed_ms > estimate_ms)
        {
            self.observe_latency(elapsed_ms, now_ms, decay_half_life_ms);
        }
    }

    /// Record one failed attempt; returns true when the breaker just opened
    /// (so the caller fails over instead of burning retries).
    fn record_error(&self, now_ms: u64, threshold: u64, cooldown_ms: f64, probe: bool) -> bool {
        // ordering: Relaxed — statistics counter; breaker decisions use the
        // separately-ordered BreakerState word, not this.
        self.counters.errors.fetch_add(1, Ordering::Relaxed);
        threshold > 0 && self.breaker.on_error(now_ms, threshold, cooldown_ms, probe)
    }

    /// The latency EWMA discounted for staleness (see
    /// [`AtomicEwmaMs::decayed`]): `half_life_ms` of idle time halves the
    /// estimate, so a backend whose scary average chased routing away decays
    /// back into contention and gets re-probed.
    fn decayed_ewma(&self, now_ms: u64, half_life_ms: f64) -> Option<f64> {
        // ordering: Relaxed — freshness hint read; a stale value only skews
        // the advisory decay estimate.
        let last = self.counters.last_sample_ms.load(Ordering::Relaxed);
        let idle_ms = if last == 0 {
            0.0
        } else {
            now_ms.saturating_sub(last) as f64
        };
        self.counters.ewma.decayed(idle_ms, half_life_ms)
    }

    /// True while the breaker is closed (never opened, or reset by a
    /// success). An expired cooldown still reads open: that backend's next
    /// request is a probe, not ordinary traffic.
    fn breaker_closed(&self) -> bool {
        // ordering: Acquire — same pairing as admission(): a "closed" read
        // implies the preceding error-count reset is visible.
        self.breaker.open_until_ms.load(Ordering::Acquire) == 0
    }
}

struct PoolSlot {
    backend: Arc<dyn Backend>,
    shared: Arc<SlotShared>,
}

/// Admission gate for hedge dispatch: invoked right before a hedge fires and
/// expected to return a permit (any RAII guard — held for the hedge's whole
/// flight) when spare capacity exists *right now*, or `None` to veto the
/// hedge. The engine wires this to `CallSlots::try_acquire_owned` under a
/// cross-query scheduler so hedges never queue behind planned work; with no
/// gate attached, hedges are always admitted.
pub type HedgePermitGate = Arc<dyn Fn() -> Option<Box<dyn std::any::Any + Send>> + Send + Sync>;

/// A registry of semantically identical backends with routing and failover.
///
/// The pool implements [`LanguageModel`], so an [`crate::LlmClient`] can wrap
/// it exactly like a single model: caching, single-flight dedup and usage
/// accounting all see one *logical* endpoint, while physical attempts spread
/// across the members.
pub struct BackendPool {
    slots: Vec<PoolSlot>,
    policy: RoutingPolicy,
    rr_cursor: AtomicUsize,
    /// Retries per backend before failing over (bounded retry).
    retries: usize,
    /// Exponential backoff base between attempts, milliseconds.
    backoff_base_ms: f64,
    /// Breaker and latency-tracking settings, and the clock they run on.
    health: Health,
    /// Hedged requests: lateness threshold as a multiple of the pool's
    /// lowest latency EWMA (0 = hedging disabled).
    hedge_multiplier: f64,
    /// Hedged requests: floor on the lateness threshold, milliseconds.
    hedge_min_ms: f64,
    /// Hedge admission gate (see [`HedgePermitGate`]); `None` = always admit.
    hedge_gate: parking_lot::Mutex<Option<HedgePermitGate>>,
}

/// What judging an attempt's outcome needs of its pool: the breaker and
/// latency-tracking settings and the clock they run on. Copied into every
/// [`PoolCall`], which can outlive a borrow of the pool.
#[derive(Clone, Copy)]
struct Health {
    /// Circuit breaker: consecutive errors that open a backend's breaker
    /// (0 = breaker disabled).
    breaker_threshold: u64,
    /// Circuit breaker: cooldown before a half-open probe, milliseconds.
    breaker_cooldown_ms: f64,
    /// Half-life for read-side decay of the latency EWMAs, milliseconds
    /// (0 disables decay). See [`BackendPool::with_latency_decay`].
    decay_half_life_ms: f64,
    /// Monotonic base for the breakers' cooldown clocks.
    epoch: Instant,
}

impl Health {
    /// Milliseconds since pool creation (the breakers' cooldown clock).
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }
}

/// Hard cap on a single backoff sleep so a misconfigured base cannot stall
/// a scan worker for seconds.
const BACKOFF_CAP_MS: f64 = 100.0;

/// Default half-life for read-side decay of the latency EWMAs. Long enough
/// that decay is invisible within one query (sub-second), short enough that
/// a backend sidelined by a stale scary average re-enters contention within
/// a few seconds of idling.
const DEFAULT_DECAY_HALF_LIFE_MS: f64 = 2_000.0;

impl BackendPool {
    /// Build a pool. Fails on an empty backend list, duplicate ids, or
    /// members whose [`Backend::fingerprint`]s disagree (which would let
    /// routing change query results — contract rule 1).
    pub fn new(backends: Vec<Arc<dyn Backend>>, policy: RoutingPolicy) -> Result<Self> {
        if backends.is_empty() {
            return Err(Error::config("a backend pool needs at least one backend"));
        }
        let fingerprint = backends[0].fingerprint();
        let mut seen = std::collections::BTreeSet::new();
        for backend in &backends {
            if !seen.insert(backend.id().to_string()) {
                return Err(Error::config(format!(
                    "duplicate backend id '{}' in pool",
                    backend.id()
                )));
            }
            let fp = backend.fingerprint();
            if fp != fingerprint {
                return Err(Error::config(format!(
                    "backend '{}' serves a different model ({fp} != {fingerprint}); \
                     pooled backends must be semantically identical",
                    backend.id()
                )));
            }
        }
        Ok(BackendPool {
            slots: backends
                .into_iter()
                .map(|backend| PoolSlot {
                    backend,
                    shared: Arc::new(SlotShared::default()),
                })
                .collect(),
            policy,
            rr_cursor: AtomicUsize::new(0),
            retries: 1,
            backoff_base_ms: 1.0,
            health: Health {
                breaker_threshold: 0,
                breaker_cooldown_ms: 250.0,
                decay_half_life_ms: DEFAULT_DECAY_HALF_LIFE_MS,
                epoch: Instant::now(),
            },
            hedge_multiplier: 0.0,
            hedge_min_ms: 1.0,
            hedge_gate: parking_lot::Mutex::new(None),
        })
    }

    /// Build a pool of [`RemoteLlm`] endpoints over one shared model, one per
    /// spec. `seed` drives the deterministic per-backend error streams.
    pub fn from_specs(
        inner: Arc<dyn LanguageModel>,
        specs: &[BackendSpec],
        policy: RoutingPolicy,
        seed: u64,
    ) -> Result<Self> {
        BackendPool::from_specs_with_chaos(inner, specs, policy, seed, None)
    }

    /// [`BackendPool::from_specs`], with every member additionally subjected
    /// to a shared [`ChaosPlan`] (see [`RemoteLlm::with_chaos`]). The plan is
    /// validated once here so a malformed window fails construction, not a
    /// request.
    pub fn from_specs_with_chaos(
        inner: Arc<dyn LanguageModel>,
        specs: &[BackendSpec],
        policy: RoutingPolicy,
        seed: u64,
        chaos: Option<ChaosPlan>,
    ) -> Result<Self> {
        if let Some(plan) = &chaos {
            plan.validate()?;
        }
        let chaos = chaos.map(Arc::new);
        let backends = specs
            .iter()
            .map(|spec| {
                spec.validate()?;
                let mut remote = RemoteLlm::from_spec(Arc::clone(&inner), spec, seed);
                if let Some(plan) = &chaos {
                    remote = remote.with_chaos(Arc::clone(plan));
                }
                Ok(Arc::new(remote) as Arc<dyn Backend>)
            })
            .collect::<Result<Vec<_>>>()?;
        BackendPool::new(backends, policy)
    }

    /// Builder-style: retries per backend before failing over (default 1).
    pub fn with_retries(mut self, retries: usize) -> Self {
        self.retries = retries;
        self
    }

    /// Builder-style: exponential backoff base in milliseconds (default 1.0;
    /// each retry doubles it, capped at 100ms). Zero disables backoff sleeps.
    pub fn with_backoff_base_ms(mut self, base_ms: f64) -> Self {
        self.backoff_base_ms = base_ms.max(0.0);
        self
    }

    /// Builder-style: enable the circuit breaker — open a backend after
    /// `threshold` consecutive failed attempts and allow one half-open probe
    /// after `cooldown_ms` (see the module docs). `threshold == 0` disables
    /// the breaker (the default).
    pub fn with_breaker(mut self, threshold: usize, cooldown_ms: f64) -> Self {
        self.health.breaker_threshold = threshold as u64;
        self.health.breaker_cooldown_ms = cooldown_ms.max(0.0);
        self
    }

    /// Builder-style: enable hedged requests (see the module docs for the
    /// full contract). A request late by `multiplier ×` the pool's lowest
    /// latency EWMA (floored at `min_ms`) gets one duplicate on the next
    /// healthy candidate of its walk; first success wins. With hedging on,
    /// the candidates behind the routing policy's primary are walked in
    /// order of health, not in the policy's order. `multiplier == 0`
    /// disables hedging (the default).
    pub fn with_hedging(mut self, multiplier: f64, min_ms: f64) -> Self {
        self.hedge_multiplier = multiplier.max(0.0);
        self.hedge_min_ms = min_ms.max(0.0);
        self
    }

    /// Builder-style: half-life (ms) for read-side decay of the latency
    /// EWMAs. Every read that drives a decision —
    /// [`llmsql_types::RoutingPolicy::LatencyAware`] ordering, hedge
    /// thresholds, [`BackendPool::latency_ewma_ms`] — discounts a backend's
    /// average by half per `half_life_ms` since its last sample. This fixes
    /// the latency-aware cold-trap: a backend that was slow (or tripped its
    /// breaker) once would otherwise keep its scary average forever, never
    /// receive traffic, and so never get the fresh sample proving it
    /// recovered. Decay is on by default (2s half-life); 0 disables it.
    pub fn with_latency_decay(mut self, half_life_ms: f64) -> Self {
        self.health.decay_half_life_ms = half_life_ms.max(0.0);
        self
    }

    /// Install (or clear) the hedge admission gate. Under a cross-query
    /// scheduler the engine wires this to the global call-slot pool's
    /// non-blocking acquire, so hedges only ever use spare slot capacity.
    pub fn set_hedge_permit_gate(&self, gate: Option<HedgePermitGate>) {
        *self.hedge_gate.lock() = gate;
    }

    /// Number of backends in the pool.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the pool has no backends (never, per [`BackendPool::new`]).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The routing policy.
    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// Per-backend counter snapshots, in registration order.
    pub fn stats(&self) -> Vec<BackendStats> {
        self.slots
            .iter()
            .map(|slot| {
                let counters = &slot.shared.counters;
                // ordering: Relaxed throughout — advisory statistics
                // snapshot; fields are individually monotone but not
                // mutually consistent mid-flight (tests needing exact
                // totals quiesce the pool first). breaker_open is a hint
                // here; admission() does the Acquire read that decides.
                BackendStats {
                    id: slot.backend.id().to_string(),
                    calls: counters.calls.load(Ordering::Relaxed),
                    errors: counters.errors.load(Ordering::Relaxed),
                    retries: counters.retries.load(Ordering::Relaxed),
                    latency_ms: counters.latency_us.load(Ordering::Relaxed) as f64 / 1000.0,
                    in_flight: counters.in_flight.load(Ordering::Relaxed),
                    short_circuits: counters.short_circuits.load(Ordering::Relaxed),
                    breaker_open: slot.shared.breaker.open_until_ms.load(Ordering::Relaxed) != 0,
                    hedges: counters.hedges.load(Ordering::Relaxed),
                    hedges_won: counters.hedges_won.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// The measured latency EWMA per backend (registration order), `None`
    /// before a backend's first successful request. Kept out of
    /// [`BackendStats`] because it is wall-clock-measured and would break
    /// trace-reproducibility comparisons of deterministic counter snapshots.
    ///
    /// Reads are staleness-decayed ([`BackendPool::with_latency_decay`]):
    /// what this returns is exactly the estimate routing and hedging act on,
    /// so an idle backend's entry visibly drifts back toward zero.
    pub fn latency_ewma_ms(&self) -> Vec<(String, Option<f64>)> {
        let now_ms = self.health.now_ms();
        self.slots
            .iter()
            .map(|slot| {
                (
                    slot.backend.id().to_string(),
                    slot.shared
                        .decayed_ewma(now_ms, self.health.decay_half_life_ms),
                )
            })
            .collect()
    }

    /// Candidate order for the next request under the configured policy.
    fn candidate_order(&self, request: &CompletionRequest) -> Vec<usize> {
        let n = self.slots.len();
        let mut order: Vec<usize> = (0..n).collect();
        match self.policy {
            RoutingPolicy::RoundRobin => {
                // ordering: Relaxed — the cursor only needs per-increment
                // uniqueness to spread starts; no memory rides on it.
                let start = self.rr_cursor.fetch_add(1, Ordering::Relaxed) % n;
                order.rotate_left(start);
            }
            RoutingPolicy::LeastInFlight => {
                order.sort_by_key(|&i| {
                    (
                        self.slots[i]
                            .shared
                            .counters
                            .in_flight
                            // ordering: Relaxed — load-balancing hint; a
                            // stale gauge only mis-ranks one candidate walk.
                            .load(Ordering::Relaxed),
                        i,
                    )
                });
            }
            RoutingPolicy::LatencyAware => {
                // Lowest measured EWMA first; backends without a sample sort
                // ahead of everything (0.0 < any clamped sample) so a cold
                // pool explores each member once before settling. Reads are
                // staleness-decayed, so a sidelined backend's average drifts
                // down until it wins a probe request and refreshes itself.
                let now_ms = self.health.now_ms();
                order.sort_by(|&a, &b| {
                    let ewma = |i: usize| {
                        self.slots[i]
                            .shared
                            .decayed_ewma(now_ms, self.health.decay_half_life_ms)
                            .unwrap_or(0.0)
                    };
                    ewma(a).total_cmp(&ewma(b)).then(a.cmp(&b))
                });
            }
            RoutingPolicy::CostAware => {
                order.sort_by(|&a, &b| {
                    let price = |i: usize| {
                        let m = self.slots[i].backend.cost_model();
                        m.usd_per_1k_prompt_tokens + m.usd_per_1k_completion_tokens
                    };
                    price(a).total_cmp(&price(b)).then(a.cmp(&b))
                });
            }
            RoutingPolicy::PromptHash => {
                // The start index is a pure function of the prompt text, so
                // the backend serving each prompt (and the whole physical
                // trace) is reproducible at any parallelism.
                let start = (hash01(&["route", &request.prompt], 0) * n as f64) as usize % n;
                order.rotate_left(start);
            }
        }
        order
    }

    /// Route one request: the whole routing protocol — candidate walk,
    /// bounded retry with backoff timers, breaker skips/probes, timer-armed
    /// hedging — as a poll-driven [`PoolCall`] machine. The caller (usually
    /// an event loop holding many of these) polls it to completion; dropping
    /// it mid-flight cancels cleanly. [`BackendPool::complete`] is this,
    /// waited on.
    pub fn submit_call(&self, request: &CompletionRequest) -> PoolCall {
        let mut order = self.candidate_order(request);
        let hedge_threshold_ms = if self.hedge_multiplier > 0.0 {
            let now_ms = self.health.now_ms();
            self.sort_by_health(&mut order[1..], now_ms);
            self.hedge_threshold_ms(&order, now_ms)
        } else {
            None
        };
        let cands: Vec<PoolCandidate> = order
            .iter()
            .map(|&i| PoolCandidate {
                backend: Arc::clone(&self.slots[i].backend),
                shared: Arc::clone(&self.slots[i].shared),
                receipt: BackendReceipt::default(),
            })
            .collect();
        PoolCall {
            request: request.clone(),
            cands,
            retries: self.retries,
            backoff_base_ms: self.backoff_base_ms,
            health: self.health,
            walk: WalkState::Next,
            pos: 0,
            attempt: 0,
            hedge_threshold_ms,
            hedge_fire_at: None,
            hedge_flight: None,
            hedge_used: None,
            hedge_gate: self.hedge_gate.lock().clone(),
            held_permit: None,
            last_err: None,
            short_circuited: 0,
        }
    }

    /// Sort failover candidates (slot indices) by health: breaker-closed
    /// before open, then lowest decayed EWMA first with sample-less last,
    /// then slot index. The key ends in the index, so the order is total and
    /// an unstable (allocation-free) sort is deterministic.
    fn sort_by_health(&self, candidates: &mut [usize], now_ms: u64) {
        let key = |i: usize| {
            let shared = &self.slots[i].shared;
            let ewma_ms = shared
                .decayed_ewma(now_ms, self.health.decay_half_life_ms)
                .unwrap_or(f64::INFINITY);
            (!shared.breaker_closed(), ewma_ms)
        };
        candidates.sort_unstable_by(|&a, &b| {
            let ((open_a, ewma_a), (open_b, ewma_b)) = (key(a), key(b));
            open_a
                .cmp(&open_b)
                .then(ewma_a.total_cmp(&ewma_b))
                .then(a.cmp(&b))
        });
    }

    /// The in-flight time, milliseconds, after which a request routed in
    /// `order` counts as late: `multiplier ×` the lowest decayed EWMA among
    /// breaker-closed backends, floored at `min_ms`. A request is hedgeable
    /// when that floor is defined (some closed backend has a sample) and at
    /// least two candidates are closed — one for the walk's first launch,
    /// one for its hedge. A timer is armed for every hedgeable request and
    /// the decision is taken at expiry, against the first launch's *actual*
    /// progress.
    fn hedge_threshold_ms(&self, order: &[usize], now_ms: u64) -> Option<f64> {
        let (mut closed, mut floor_ms) = (0, f64::INFINITY);
        for &i in order {
            let shared = &self.slots[i].shared;
            if shared.breaker_closed() {
                closed += 1;
                if let Some(ewma_ms) = shared.decayed_ewma(now_ms, self.health.decay_half_life_ms) {
                    floor_ms = floor_ms.min(ewma_ms);
                }
            }
        }
        (closed >= 2 && floor_ms.is_finite())
            .then(|| (self.hedge_multiplier * floor_ms).max(self.hedge_min_ms))
    }
}

/// One candidate of a [`PoolCall`], in routing order.
struct PoolCandidate {
    backend: Arc<dyn Backend>,
    shared: Arc<SlotShared>,
    /// What this call has done on this backend so far.
    receipt: BackendReceipt,
}

/// One in-flight attempt inside a [`PoolCall`]: owns the per-backend
/// `in_flight` increment (and, for a half-open probe, the probe flag) so that
/// dropping the flight — cancellation by abandonment — always restores the
/// backend's gauges.
///
/// Every attempt event is counted here and nowhere else — a launch, a retry
/// and a hedge in [`Flight::launch`]; a success, an error and a hedge won in
/// [`Flight::harvest`] — each on the backend's counters and on the call's
/// [`BackendReceipt`] together.
struct Flight {
    handle: CallHandle,
    started: Instant,
    probe: bool,
    /// A duplicate of a late primary rather than a step of the walk.
    hedge: bool,
    /// Index (into the call's candidates) of the backend serving it.
    cand: usize,
    shared: Arc<SlotShared>,
    /// True while the in-flight increment is still owed back.
    open: bool,
}

impl Flight {
    /// Launch attempt `attempt` (> 0 is a retry) of `request` on
    /// `cands[cand]`.
    fn launch(
        cands: &mut [PoolCandidate],
        cand: usize,
        request: &CompletionRequest,
        attempt: usize,
        probe: bool,
        hedge: bool,
    ) -> Flight {
        let at = &mut cands[cand];
        let counters = &at.shared.counters;
        // ordering: Relaxed — calls is a statistic; in_flight is an advisory
        // gauge (a routing hint); no memory is published under either.
        counters.calls.fetch_add(1, Ordering::Relaxed);
        counters.in_flight.fetch_add(1, Ordering::Relaxed);
        at.receipt.calls += 1;
        if attempt > 0 {
            // ordering: Relaxed — statistics counter.
            counters.retries.fetch_add(1, Ordering::Relaxed);
        }
        if hedge {
            // ordering: Relaxed — statistics counter.
            counters.hedges.fetch_add(1, Ordering::Relaxed);
            at.receipt.hedges += 1;
        }
        // The flight owns its gauges before the backend runs, so a backend
        // that panics inside `submit` still releases them (and a probe
        // claim) on unwind.
        let mut flight = Flight {
            handle: CallHandle {
                inner: HandleInner::Ready(None),
            },
            started: Instant::now(),
            probe,
            hedge,
            cand,
            shared: Arc::clone(&at.shared),
            open: true,
        };
        flight.handle = at.backend.submit(request, attempt);
        flight
    }

    /// Poll the attempt; once it has resolved, release its gauges and count
    /// its outcome. A failure also says whether this backend is spent for
    /// the call — a probe gets a single attempt, and a breaker the failure
    /// just opened dooms any retry.
    fn harvest(
        &mut self,
        now: Instant,
        cands: &mut [PoolCandidate],
        health: &Health,
    ) -> Option<std::result::Result<CompletionResponse, (Error, bool)>> {
        let outcome = self.handle.poll(now)?;
        let measured_ms = now.saturating_duration_since(self.started).as_secs_f64() * 1000.0;
        self.close();
        let receipt = &mut cands[self.cand].receipt;
        Some(match outcome {
            Ok(response) => {
                let reported_us = self.shared.record_success(
                    response.latency_ms,
                    measured_ms,
                    health.now_ms(),
                    health.decay_half_life_ms,
                );
                receipt.latency_ms += reported_us as f64 / 1000.0;
                if health.breaker_threshold > 0 {
                    self.shared.breaker.on_success();
                }
                if self.hedge {
                    // ordering: Relaxed — statistics counter.
                    self.shared
                        .counters
                        .hedges_won
                        .fetch_add(1, Ordering::Relaxed);
                    receipt.hedges_won += 1;
                }
                Ok(response)
            }
            Err(e) => {
                let opened = self.shared.record_error(
                    health.now_ms(),
                    health.breaker_threshold,
                    health.breaker_cooldown_ms,
                    self.probe,
                );
                receipt.errors += 1;
                Err((e, self.probe || opened))
            }
        })
    }

    /// Normal resolution: release the in-flight increment; breaker state is
    /// [`Flight::harvest`]'s job (`on_success`/`on_error` own the probe flag
    /// there).
    fn close(&mut self) {
        if self.open {
            self.open = false;
            // ordering: Relaxed — advisory routing gauge, pairs with the
            // fetch_add in launch().
            self.shared
                .counters
                .in_flight
                .fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl Drop for Flight {
    fn drop(&mut self) {
        if self.open {
            // ordering: Relaxed — advisory routing gauge, as in close().
            self.shared
                .counters
                .in_flight
                .fetch_sub(1, Ordering::Relaxed);
            if self.probe {
                // An abandoned half-open probe must not wedge the breaker.
                self.shared.breaker.abort_probe();
            }
            self.open = false;
        }
    }
}

/// Where a [`PoolCall`]'s candidate walk currently is.
enum WalkState {
    /// Advance to the next admissible candidate and launch attempt 0.
    Next,
    /// The current candidate has this attempt in flight.
    InFlight(Flight),
    /// The current candidate failed a retryable attempt; the next attempt
    /// launches once the backoff timer expires.
    Backoff { until: Instant },
    /// Every candidate is exhausted but a hedge is still in flight — its
    /// outcome decides the call.
    AwaitHedge,
    /// Resolved (result already handed out).
    Done,
}

/// A poll-driven [`BackendPool`] request: the full routing/retry/hedging
/// protocol as a [`CallMachine`], created by [`BackendPool::submit_call`].
///
/// Ownership rules (the completion contract, relied on by
/// `llmsql_exec::reactor`):
///
/// * [`CallMachine::poll`] returns the result exactly once; after that the
///   machine is inert.
/// * Backoff and hedge delays are timers surfaced through
///   [`CallMachine::next_wakeup`], never sleeps — polling is always
///   non-blocking (up to a member backend's own `submit`, which for
///   timer-backed backends is compute only).
/// * Dropping the machine mid-flight abandons primary and hedge alike:
///   per-backend `in_flight` gauges, probe flags and the hedge's slot permit
///   are all released by `Drop`.
/// * A fired hedge holds its admission-gate permit for its whole flight and
///   releases it on resolution or abandonment; the loser of the
///   primary/hedge race is dropped, not waited for.
pub struct PoolCall {
    request: CompletionRequest,
    /// Candidates in routing order (index 0 = primary).
    cands: Vec<PoolCandidate>,
    retries: usize,
    backoff_base_ms: f64,
    health: Health,
    walk: WalkState,
    /// Index (into `cands`) of the candidate the walk is currently on.
    pos: usize,
    /// Attempt ordinal on the current candidate.
    attempt: usize,
    /// The lateness threshold that arms the hedge timer, ms (`None` = not
    /// hedgeable, or already armed).
    hedge_threshold_ms: Option<f64>,
    /// When the armed hedge timer expires and the candidate index (into
    /// `cands`) it covers — set at the walk's first launch.
    hedge_fire_at: Option<(Instant, usize)>,
    hedge_flight: Option<Flight>,
    /// Candidate index consumed by a fired hedge (excluded from failover).
    hedge_used: Option<usize>,
    hedge_gate: Option<HedgePermitGate>,
    /// The admission permit a fired hedge holds while in flight.
    held_permit: Option<Box<dyn std::any::Any + Send>>,
    last_err: Option<Error>,
    short_circuited: usize,
}

impl PoolCall {
    /// Resolve the whole call: abandon whatever is still in flight.
    fn finish(&mut self) {
        self.walk = WalkState::Done; // dropping the flight releases its gauges
        self.hedge_flight = None;
        self.held_permit = None;
        self.hedge_fire_at = None;
    }

    /// Launch the next attempt on the current candidate and, at the walk's
    /// first launch, arm the hedge timer to cover this candidate.
    fn launch_attempt(&mut self, probe: bool) {
        let flight = Flight::launch(
            &mut self.cands,
            self.pos,
            &self.request,
            self.attempt,
            probe,
            false,
        );
        if let Some(threshold_ms) = self.hedge_threshold_ms.take() {
            self.hedge_fire_at = Some((
                flight.started + Duration::from_secs_f64(threshold_ms / 1000.0),
                self.pos,
            ));
        }
        self.walk = WalkState::InFlight(flight);
    }

    /// Drive the hedge side: harvest a finished hedge (a win resolves the
    /// call) and fire the armed timer when it expires while the candidate it
    /// covers is still working. Returns the final result when the hedge won.
    fn poll_hedge(&mut self, now: Instant) -> Option<Result<CompletionResponse>> {
        if let Some(flight) = &mut self.hedge_flight {
            let outcome = flight.harvest(now, &mut self.cands, &self.health)?;
            self.hedge_flight = None;
            self.held_permit = None; // slot released with the flight
            match outcome {
                Ok(response) => {
                    if let WalkState::InFlight(beaten) = &self.walk {
                        beaten.shared.observe_latency_at_least(
                            now.saturating_duration_since(beaten.started).as_secs_f64() * 1000.0,
                            self.health.now_ms(),
                            self.health.decay_half_life_ms,
                        );
                    }
                    self.finish();
                    return Some(Ok(response));
                }
                Err((e, _)) => self.last_err = Some(e),
            }
            return None;
        }
        // Timer-armed firing: one shot, only while the covered candidate is
        // still the active one (failover has its own protocol), only if a
        // closed candidate follows it in the walk — the next one is the
        // healthiest sibling left — and only with the admission gate's
        // blessing: a veto disarms for good.
        if let Some((fire_at, covered)) = self.hedge_fire_at {
            if now >= fire_at {
                self.hedge_fire_at = None;
                let covered_active = self.pos == covered
                    && matches!(
                        self.walk,
                        WalkState::InFlight(_) | WalkState::Backoff { .. }
                    );
                let target = covered_active
                    .then(|| {
                        (covered + 1..self.cands.len())
                            .find(|&c| self.cands[c].shared.breaker_closed())
                    })
                    .flatten();
                if let Some(target) = target {
                    let permit = match &self.hedge_gate {
                        None => Some(Box::new(()) as Box<dyn std::any::Any + Send>),
                        Some(gate) => gate(),
                    };
                    if let Some(permit) = permit {
                        self.held_permit = Some(permit);
                        self.hedge_flight = Some(Flight::launch(
                            &mut self.cands,
                            target,
                            &self.request,
                            0,
                            false,
                            true,
                        ));
                        self.hedge_used = Some(target);
                    }
                }
            }
        }
        None
    }

    /// The terminal error once every candidate (and any hedge) is spent.
    fn exhausted_error(&mut self) -> Error {
        self.last_err.take().unwrap_or_else(|| {
            if self.short_circuited > 0 {
                Error::llm(format!(
                    "all {} backend(s) are circuit-broken; retry after the cooldown",
                    self.short_circuited
                ))
            } else {
                Error::llm("backend pool has no backends")
            }
        })
    }
}

impl CallMachine for PoolCall {
    fn poll(&mut self, now: Instant) -> Option<Result<CompletionResponse>> {
        if matches!(self.walk, WalkState::Done) {
            return None;
        }
        if let Some(win) = self.poll_hedge(now) {
            return Some(win);
        }
        loop {
            match &mut self.walk {
                WalkState::Next => {
                    if self.pos >= self.cands.len() {
                        if self.hedge_flight.is_some() {
                            // Every candidate failed but the hedge is still
                            // racing; its outcome decides the call.
                            self.walk = WalkState::AwaitHedge;
                            return None;
                        }
                        let err = self.exhausted_error();
                        self.finish();
                        return Some(Err(err));
                    }
                    if Some(self.pos) == self.hedge_used {
                        // The fired hedge already consumed this candidate.
                        self.pos += 1;
                        continue;
                    }
                    let probe = if self.health.breaker_threshold > 0 {
                        let cand = &self.cands[self.pos].shared;
                        match cand.breaker.admission(self.health.now_ms()) {
                            Admission::Skip => {
                                // ordering: Relaxed — statistics counter.
                                cand.counters.short_circuits.fetch_add(1, Ordering::Relaxed);
                                self.short_circuited += 1;
                                self.pos += 1;
                                continue;
                            }
                            Admission::Probe => true,
                            Admission::Normal => false,
                        }
                    } else {
                        false
                    };
                    self.attempt = 0;
                    self.launch_attempt(probe);
                }
                WalkState::InFlight(flight) => {
                    let outcome = flight.harvest(now, &mut self.cands, &self.health)?;
                    match outcome {
                        Ok(response) => {
                            self.finish();
                            return Some(Ok(response));
                        }
                        Err((e, spent)) => {
                            self.last_err = Some(e);
                            if spent || self.attempt >= self.retries {
                                self.pos += 1;
                                self.walk = WalkState::Next;
                            } else {
                                self.attempt += 1;
                                let backoff_ms = (self.backoff_base_ms
                                    * (1u64 << (self.attempt - 1).min(20)) as f64)
                                    .min(BACKOFF_CAP_MS);
                                self.walk = WalkState::Backoff {
                                    until: now + Duration::from_secs_f64(backoff_ms / 1000.0),
                                };
                            }
                        }
                    }
                }
                WalkState::Backoff { until } => {
                    if now < *until {
                        return None;
                    }
                    self.launch_attempt(false);
                }
                WalkState::AwaitHedge => {
                    if self.hedge_flight.is_some() {
                        return None;
                    }
                    // poll_hedge drained the hedge with an error.
                    let err = self.exhausted_error();
                    self.finish();
                    return Some(Err(err));
                }
                WalkState::Done => return None,
            }
        }
    }

    fn next_wakeup(&self, now: Instant) -> Option<Instant> {
        let mut earliest: Option<Instant> = None;
        let mut fold = |candidate: Option<Instant>| match candidate {
            None => {}
            Some(t) => earliest = Some(earliest.map_or(t, |e| e.min(t))),
        };
        match &self.walk {
            WalkState::Next | WalkState::Done => return None,
            WalkState::InFlight(flight) => match flight.handle.next_wakeup(now) {
                None => return None,
                wake => fold(wake),
            },
            WalkState::Backoff { until } => fold(Some(*until)),
            WalkState::AwaitHedge => {}
        }
        if let Some(flight) = &self.hedge_flight {
            match flight.handle.next_wakeup(now) {
                None => return None,
                wake => fold(wake),
            }
        } else if let Some((fire_at, _)) = self.hedge_fire_at {
            fold(Some(fire_at));
        }
        earliest
    }

    fn backend_receipts(&self, visit: &mut dyn FnMut(&str, &BackendReceipt)) {
        for cand in &self.cands {
            visit(cand.backend.id(), &cand.receipt);
        }
    }
}

impl LanguageModel for BackendPool {
    fn name(&self) -> String {
        let members: Vec<&str> = self.slots.iter().map(|s| s.backend.id()).collect();
        format!("pool[{}]({})", self.policy, members.join(","))
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse> {
        self.submit(request).wait()
    }

    fn submit(&self, request: &CompletionRequest) -> CallHandle {
        CallHandle::machine(Box::new(self.submit_call(request)))
    }

    fn fingerprint(&self) -> String {
        // All members agree (enforced at construction); the pool is
        // semantically the model its members serve.
        self.slots[0].backend.fingerprint()
    }

    fn cost_model(&self) -> LlmCostModel {
        self.slots[0].backend.cost_model()
    }

    fn relation_cardinality(&self, table: &str) -> Option<u64> {
        // Members are semantically identical (enforced at construction), so
        // any member's hint is the pool's hint.
        self.slots[0].backend.relation_cardinality(table)
    }
}

/// A trivial [`Backend`] adapter exposing any [`LanguageModel`] as a single
/// always-healthy endpoint (no injected latency or errors) — the degenerate
/// one-backend pool, and a convenient building block for tests.
pub struct DirectBackend {
    id: String,
    inner: Arc<dyn LanguageModel>,
}

impl DirectBackend {
    /// Expose `inner` as the endpoint named `id`.
    pub fn new(id: impl Into<String>, inner: Arc<dyn LanguageModel>) -> Self {
        DirectBackend {
            id: id.into(),
            inner,
        }
    }
}

impl Backend for DirectBackend {
    fn id(&self) -> &str {
        &self.id
    }

    fn complete(&self, request: &CompletionRequest, _attempt: usize) -> Result<CompletionResponse> {
        self.inner.complete(request)
    }

    fn submit(&self, request: &CompletionRequest, _attempt: usize) -> CallHandle {
        self.inner.submit(request)
    }

    fn fingerprint(&self) -> String {
        self.inner.fingerprint()
    }

    fn cost_model(&self) -> LlmCostModel {
        self.inner.cost_model()
    }

    fn relation_cardinality(&self, table: &str) -> Option<u64> {
        self.inner.relation_cardinality(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::count_tokens;
    use parking_lot::Mutex;

    /// A deterministic fake model: completion text is a pure function of the
    /// prompt; counts invocations.
    struct EchoModel {
        tag: String,
        calls: Mutex<u64>,
    }

    impl EchoModel {
        fn new(tag: &str) -> Self {
            EchoModel {
                tag: tag.to_string(),
                calls: Mutex::new(0),
            }
        }
    }

    impl LanguageModel for EchoModel {
        fn name(&self) -> String {
            format!("echo({})", self.tag)
        }
        fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse> {
            *self.calls.lock() += 1;
            Ok(CompletionResponse {
                text: format!("{}:{}", self.tag, request.prompt),
                prompt_tokens: count_tokens(&request.prompt),
                completion_tokens: 3,
                latency_ms: 1.0,
                cost_usd: 0.001,
            })
        }
    }

    fn spec(name: &str) -> BackendSpec {
        BackendSpec::new(name)
    }

    fn pool_over(specs: &[BackendSpec], policy: RoutingPolicy) -> (Arc<EchoModel>, BackendPool) {
        let model = Arc::new(EchoModel::new("m"));
        let pool = BackendPool::from_specs(
            Arc::clone(&model) as Arc<dyn LanguageModel>,
            specs,
            policy,
            7,
        )
        .unwrap()
        .with_backoff_base_ms(0.0);
        (model, pool)
    }

    #[test]
    fn round_robin_rotates_across_backends() {
        let (_, pool) = pool_over(
            &[spec("a"), spec("b"), spec("c")],
            RoutingPolicy::RoundRobin,
        );
        for i in 0..6 {
            pool.complete(&CompletionRequest::new(format!("p{i}")))
                .unwrap();
        }
        let stats = pool.stats();
        assert_eq!(
            stats.iter().map(|s| s.calls).collect::<Vec<_>>(),
            vec![2, 2, 2],
            "round robin should spread calls evenly: {stats:?}"
        );
        assert!(stats.iter().all(|s| s.errors == 0 && s.in_flight == 0));
    }

    #[test]
    fn cost_aware_prefers_cheapest_backend() {
        let cheap = LlmCostModel {
            usd_per_1k_prompt_tokens: 0.0001,
            usd_per_1k_completion_tokens: 0.0002,
            ..LlmCostModel::default()
        };
        let (_, pool) = pool_over(
            &[
                spec("pricey"),
                spec("bargain").with_cost_model(cheap),
                spec("mid"),
            ],
            RoutingPolicy::CostAware,
        );
        for i in 0..5 {
            pool.complete(&CompletionRequest::new(format!("p{i}")))
                .unwrap();
        }
        let stats = pool.stats();
        let bargain = stats.iter().find(|s| s.id == "bargain").unwrap();
        assert_eq!(bargain.calls, 5, "all traffic should hit the cheap backend");
    }

    #[test]
    fn failover_skips_hard_down_backend() {
        let (model, pool) = pool_over(
            &[spec("down").failing(), spec("up")],
            RoutingPolicy::RoundRobin,
        );
        let resp = pool.complete(&CompletionRequest::new("hello")).unwrap();
        assert_eq!(resp.text, "m:hello");
        let stats = pool.stats();
        let down = stats.iter().find(|s| s.id == "down").unwrap();
        let up = stats.iter().find(|s| s.id == "up").unwrap();
        // The failing backend got 1 + retries attempts, all errors; the
        // healthy one served the request.
        assert_eq!(down.calls, 2);
        assert_eq!(down.errors, 2);
        assert_eq!(down.retries, 1);
        assert_eq!(up.calls, 1);
        assert_eq!(up.errors, 0);
        // The inner model saw exactly one completion: failed attempts never
        // reach it.
        assert_eq!(*model.calls.lock(), 1);
    }

    #[test]
    fn all_backends_down_returns_last_error() {
        let (model, pool) = pool_over(
            &[spec("d1").failing(), spec("d2").failing()],
            RoutingPolicy::RoundRobin,
        );
        let err = pool.complete(&CompletionRequest::new("x")).unwrap_err();
        assert!(err.to_string().contains("simulated endpoint error"));
        assert_eq!(*model.calls.lock(), 0);
        assert!(pool.stats().iter().all(|s| s.in_flight == 0));
    }

    #[test]
    fn transient_errors_are_deterministic() {
        let flaky = [spec("flaky").with_error_rate(0.5), spec("backup")];
        let trace = |prompts: &[&str]| -> Vec<BackendStats> {
            let (_, pool) = pool_over(&flaky, RoutingPolicy::RoundRobin);
            for p in prompts {
                pool.complete(&CompletionRequest::new(*p)).unwrap();
            }
            pool.stats()
        };
        let prompts = ["a", "b", "c", "d", "e", "f", "g", "h"];
        let first = trace(&prompts);
        let second = trace(&prompts);
        assert_eq!(first, second, "retry/failover trace must be reproducible");
        assert!(
            first.iter().any(|s| s.errors > 0),
            "a 50% error rate over 8 prompts should produce at least one error: {first:?}"
        );
    }

    #[test]
    fn mismatched_fingerprints_are_rejected() {
        let a: Arc<dyn Backend> =
            Arc::new(DirectBackend::new("a", Arc::new(EchoModel::new("one"))));
        let b: Arc<dyn Backend> =
            Arc::new(DirectBackend::new("b", Arc::new(EchoModel::new("two"))));
        assert!(BackendPool::new(vec![a, b], RoutingPolicy::RoundRobin).is_err());
    }

    #[test]
    fn duplicate_ids_and_empty_pools_are_rejected() {
        let model = Arc::new(EchoModel::new("m"));
        let mk = || -> Arc<dyn Backend> {
            Arc::new(DirectBackend::new(
                "same",
                Arc::clone(&model) as Arc<dyn LanguageModel>,
            ))
        };
        assert!(BackendPool::new(vec![mk(), mk()], RoutingPolicy::RoundRobin).is_err());
        assert!(BackendPool::new(vec![], RoutingPolicy::RoundRobin).is_err());
    }

    #[test]
    fn per_backend_pricing_is_applied() {
        let pricey = LlmCostModel {
            usd_per_1k_prompt_tokens: 1.0,
            usd_per_1k_completion_tokens: 1.0,
            ..LlmCostModel::default()
        };
        let (_, pool) = pool_over(
            &[spec("pricey").with_cost_model(pricey)],
            RoutingPolicy::RoundRobin,
        );
        let resp = pool
            .complete(&CompletionRequest::new("prompt text here"))
            .unwrap();
        let want = pricey.request_cost_usd(resp.prompt_tokens, resp.completion_tokens);
        assert!((resp.cost_usd - want).abs() < 1e-12);
    }

    #[test]
    fn pool_name_and_fingerprint() {
        let (model, pool) = pool_over(&[spec("a"), spec("b")], RoutingPolicy::LeastInFlight);
        assert_eq!(pool.name(), "pool[least-in-flight](a,b)");
        assert_eq!(pool.fingerprint(), model.fingerprint());
        assert_eq!(pool.len(), 2);
        assert!(!pool.is_empty());
        assert_eq!(pool.policy(), RoutingPolicy::LeastInFlight);
    }

    #[test]
    fn prompt_hash_routing_is_a_pure_function_of_the_prompt() {
        // The same prompt set must produce the same per-backend counters no
        // matter how calls interleave — sequential vs 8 threads racing.
        let specs = [spec("a"), spec("b"), spec("c")];
        let prompts: Vec<String> = (0..24).map(|i| format!("prompt {i}")).collect();

        let (_, sequential) = pool_over(&specs, RoutingPolicy::PromptHash);
        for p in &prompts {
            sequential
                .complete(&CompletionRequest::new(p.clone()))
                .unwrap();
        }

        let (_, concurrent) = pool_over(&specs, RoutingPolicy::PromptHash);
        let concurrent = Arc::new(concurrent);
        std::thread::scope(|scope| {
            for chunk in prompts.chunks(3) {
                let pool = Arc::clone(&concurrent);
                scope.spawn(move || {
                    for p in chunk {
                        pool.complete(&CompletionRequest::new(p.clone())).unwrap();
                    }
                });
            }
        });

        let seq: Vec<u64> = sequential.stats().iter().map(|s| s.calls).collect();
        let conc: Vec<u64> = concurrent.stats().iter().map(|s| s.calls).collect();
        assert_eq!(seq, conc, "physical trace depends on interleaving");
        assert!(
            seq.iter().filter(|&&c| c > 0).count() >= 2,
            "24 hashed prompts should spread over >= 2 of 3 backends: {seq:?}"
        );
    }

    #[test]
    fn breaker_opens_and_bounds_attempts_on_a_hard_down_backend() {
        let (_, pool) = pool_over(
            &[spec("down").failing(), spec("up")],
            RoutingPolicy::RoundRobin,
        );
        // Threshold 3, cooldown far beyond the test duration.
        let pool = pool.with_breaker(3, 60_000.0);
        for i in 0..50 {
            pool.complete(&CompletionRequest::new(format!("p{i}")))
                .unwrap();
        }
        let stats = pool.stats();
        let down = stats.iter().find(|s| s.id == "down").unwrap();
        // Without the breaker the down backend would absorb 2 attempts per
        // request routed to it (~50 total); with it, attempts stop at the
        // threshold and later requests short-circuit.
        assert_eq!(down.calls, 3, "attempts not bounded by threshold: {down:?}");
        assert!(down.breaker_open);
        assert!(
            down.short_circuits > 0,
            "open breaker never short-circuited: {down:?}"
        );
        let up = stats.iter().find(|s| s.id == "up").unwrap();
        assert_eq!(up.calls, 50);
    }

    #[test]
    fn breaker_half_open_probe_reopens_on_failure_and_closes_on_recovery() {
        /// A backend whose health is flipped by the test.
        struct FlakyBackend {
            inner: Arc<dyn LanguageModel>,
            healthy: std::sync::atomic::AtomicBool,
        }
        impl Backend for FlakyBackend {
            fn id(&self) -> &str {
                "flappy"
            }
            fn complete(
                &self,
                request: &CompletionRequest,
                _attempt: usize,
            ) -> Result<CompletionResponse> {
                // ordering: Relaxed — test health flag; eventual visibility
                // is all the scenario needs.
                if self.healthy.load(Ordering::Relaxed) {
                    self.inner.complete(request)
                } else {
                    Err(Error::llm("flappy is down"))
                }
            }
            fn fingerprint(&self) -> String {
                self.inner.fingerprint()
            }
        }

        let model = Arc::new(EchoModel::new("m"));
        let flaky = Arc::new(FlakyBackend {
            inner: Arc::clone(&model) as Arc<dyn LanguageModel>,
            healthy: std::sync::atomic::AtomicBool::new(false),
        });
        let backup: Arc<dyn Backend> = Arc::new(DirectBackend::new(
            "backup",
            Arc::clone(&model) as Arc<dyn LanguageModel>,
        ));
        // Cost-aware with equal prices degenerates to registration order, so
        // every request tries the flaky backend first — which keeps the
        // request-to-breaker-transition mapping exact.
        let pool = BackendPool::new(
            vec![Arc::clone(&flaky) as Arc<dyn Backend>, backup],
            RoutingPolicy::CostAware,
        )
        .unwrap()
        .with_retries(0)
        .with_backoff_base_ms(0.0)
        .with_breaker(2, 20.0);

        // Two failures open the breaker.
        pool.complete(&CompletionRequest::new("a")).unwrap();
        pool.complete(&CompletionRequest::new("b")).unwrap();
        assert!(pool.stats()[0].breaker_open);
        let attempts_when_opened = pool.stats()[0].calls;
        assert_eq!(attempts_when_opened, 2);

        // Inside the cooldown: short-circuited, no new attempts.
        pool.complete(&CompletionRequest::new("c")).unwrap();
        assert_eq!(pool.stats()[0].calls, attempts_when_opened);

        // After the cooldown, one probe goes through; the backend is still
        // down, so the probe fails and the breaker reopens.
        std::thread::sleep(std::time::Duration::from_millis(25));
        pool.complete(&CompletionRequest::new("d")).unwrap();
        let after_probe = pool.stats()[0].clone();
        assert_eq!(after_probe.calls, attempts_when_opened + 1);
        assert!(after_probe.breaker_open, "failed probe must reopen");

        // Backend recovers; the next probe succeeds and closes the breaker.
        // ordering: Relaxed — test health flag, see FlakyBackend::complete.
        flaky.healthy.store(true, Ordering::Relaxed);
        std::thread::sleep(std::time::Duration::from_millis(25));
        pool.complete(&CompletionRequest::new("e")).unwrap();
        let recovered = pool.stats()[0].clone();
        assert!(!recovered.breaker_open, "successful probe must close");
        // Closed again: requests flow to it normally (round robin).
        pool.complete(&CompletionRequest::new("f")).unwrap();
        pool.complete(&CompletionRequest::new("g")).unwrap();
        assert!(pool.stats()[0].calls > recovered.calls);
    }

    #[test]
    fn panicking_probe_does_not_wedge_the_half_open_state() {
        #[derive(PartialEq)]
        enum Mode {
            Err,
            Panic,
            Healthy,
        }
        struct MoodyBackend {
            inner: Arc<dyn LanguageModel>,
            mode: parking_lot::Mutex<Mode>,
        }
        impl Backend for MoodyBackend {
            fn id(&self) -> &str {
                "moody"
            }
            fn complete(
                &self,
                request: &CompletionRequest,
                _attempt: usize,
            ) -> Result<CompletionResponse> {
                match *self.mode.lock() {
                    Mode::Err => Err(Error::llm("moody is down")),
                    Mode::Panic => panic!("moody panicked mid-probe"),
                    Mode::Healthy => self.inner.complete(request),
                }
            }
            fn fingerprint(&self) -> String {
                self.inner.fingerprint()
            }
        }

        let model = Arc::new(EchoModel::new("m"));
        let moody = Arc::new(MoodyBackend {
            inner: Arc::clone(&model) as Arc<dyn LanguageModel>,
            mode: parking_lot::Mutex::new(Mode::Err),
        });
        let backup: Arc<dyn Backend> = Arc::new(DirectBackend::new(
            "backup",
            Arc::clone(&model) as Arc<dyn LanguageModel>,
        ));
        let pool = BackendPool::new(
            vec![Arc::clone(&moody) as Arc<dyn Backend>, backup],
            RoutingPolicy::CostAware,
        )
        .unwrap()
        .with_retries(0)
        .with_backoff_base_ms(0.0)
        .with_breaker(1, 10.0);

        // One error opens the breaker.
        pool.complete(&CompletionRequest::new("a")).unwrap();
        assert!(pool.stats()[0].breaker_open);

        // The half-open probe panics. Without the unwind guard this would
        // leave the probe claim held forever, permanently short-circuiting
        // the backend.
        *moody.mode.lock() = Mode::Panic;
        std::thread::sleep(std::time::Duration::from_millis(15));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.complete(&CompletionRequest::new("b"))
        }));
        assert!(panicked.is_err(), "probe should have panicked");

        // Backend recovers: the next cooldown expiry must still admit a
        // probe, which succeeds and closes the breaker.
        *moody.mode.lock() = Mode::Healthy;
        std::thread::sleep(std::time::Duration::from_millis(15));
        let resp = pool.complete(&CompletionRequest::new("c")).unwrap();
        assert_eq!(resp.text, "m:c");
        assert!(
            !pool.stats()[0].breaker_open,
            "recovered backend stayed short-circuited: {:?}",
            pool.stats()[0]
        );
    }

    #[test]
    fn racing_admissions_claim_exactly_one_probe_per_window() {
        // The half-open race regression: N threads observe the expired
        // cooldown concurrently; the old two-word state (expiry + separate
        // `probing` bool) let a racer that passed the stale expiry check win
        // the flag CAS *after* a failed probe re-opened the breaker —
        // launching a second probe inside the fresh cooldown window. The
        // single-word encoding admits exactly one probe per window, however
        // many racers and however the probe resolves.
        use std::sync::Barrier;
        for round in 0..50 {
            let breaker = BreakerState::default();
            breaker.open(0, 10.0); // cooldown expires at t=10ms
            let threads = 8;
            let barrier = Barrier::new(threads);
            let probes = AtomicU64::new(0);
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let breaker = &breaker;
                    let barrier = &barrier;
                    let probes = &probes;
                    scope.spawn(move || {
                        barrier.wait();
                        if breaker.admission(20) == Admission::Probe {
                            // ordering: SeqCst — the race test counts exact
                            // probe admissions across threads; total order
                            // keeps the count unambiguous.
                            probes.fetch_add(1, Ordering::SeqCst);
                            // Half the rounds: the probe fails and re-opens
                            // the breaker — the window where the old race
                            // admitted a second probe. Other half: the probe
                            // stays in flight (sentinel held) while the
                            // remaining racers run their admission checks.
                            if (round + t) % 2 == 0 {
                                breaker.on_error(20, 1, 1_000.0, true);
                            }
                        }
                    });
                }
            });
            assert_eq!(
                // ordering: SeqCst — paired with the increments above.
                probes.load(Ordering::SeqCst),
                1,
                "round {round}: expired breaker must admit exactly one probe"
            );
        }
    }

    #[test]
    fn racing_pool_calls_send_exactly_one_probe_per_cooldown() {
        // Pool-level version of the race: a hard-down backend with an open
        // breaker, N calls issued concurrently after the cooldown expired.
        // Exactly one physical probe attempt may reach the backend per
        // cooldown window; everyone else short-circuits to the healthy
        // sibling.
        let (_, pool) = pool_over(
            &[spec("down").failing(), spec("up")],
            RoutingPolicy::CostAware, // static order: down first
        );
        let pool = Arc::new(pool.with_retries(0).with_breaker(1, 10.0));
        // Trip the breaker (one failed attempt, failover serves the call).
        pool.complete(&CompletionRequest::new("trip")).unwrap();
        let calls_when_opened = pool.stats()[0].calls;
        assert!(pool.stats()[0].breaker_open);

        // Let the cooldown expire, then race 8 calls through the machine.
        std::thread::sleep(Duration::from_millis(15));
        std::thread::scope(|scope| {
            for i in 0..8 {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    let resp = pool
                        .complete(&CompletionRequest::new(format!("r{i}")))
                        .unwrap();
                    assert_eq!(resp.text, format!("m:r{i}"));
                });
            }
        });
        let down = &pool.stats()[0];
        // The probe fails and re-opens the breaker for 10ms — longer than
        // the racing burst — so the window admits exactly one attempt.
        assert_eq!(
            down.calls,
            calls_when_opened + 1,
            "more than one probe escaped the half-open window: {down:?}"
        );
        assert!(
            down.short_circuits >= 7,
            "racers that lost the probe claim must short-circuit: {down:?}"
        );
        assert!(down.breaker_open, "failed probe must re-open");
    }

    #[test]
    fn abandoned_probe_releases_the_claim_for_the_next_caller() {
        let breaker = BreakerState::default();
        breaker.open(0, 10.0);
        assert_eq!(breaker.admission(20), Admission::Probe);
        // While the probe is in flight every other caller skips.
        assert_eq!(breaker.admission(25), Admission::Skip);
        // The probe is abandoned (dropped handle): the claim is released and
        // the cooldown re-expires immediately.
        breaker.abort_probe();
        assert_eq!(breaker.admission(26), Admission::Probe);
        // A probe that already resolved is not disturbed by a late abort.
        breaker.on_success();
        breaker.abort_probe();
        assert_eq!(breaker.admission(27), Admission::Normal);
    }

    #[test]
    fn absurd_cooldowns_saturate_instead_of_overflowing() {
        // A finite-but-enormous cooldown passes config validation; the
        // breaker must pin the expiry at u64::MAX, not overflow (debug
        // panic / release wraparound that would silently re-close it).
        let (_, pool) = pool_over(&[spec("d").failing(), spec("up")], RoutingPolicy::CostAware);
        let pool = pool.with_breaker(1, 3.0e19);
        pool.complete(&CompletionRequest::new("x")).unwrap();
        pool.complete(&CompletionRequest::new("y")).unwrap();
        let down = &pool.stats()[0];
        assert_eq!(down.calls, 1, "breaker failed to hold open: {down:?}");
        assert!(down.breaker_open);
        assert!(down.short_circuits >= 1);
    }

    #[test]
    fn chaos_outage_fails_over_and_reproduces_identical_stats() {
        use llmsql_types::{ChaosFault, ChaosPlan};
        // One backend hard-down for half the virtual horizon, plus an error
        // burst on the other: failover still answers every prompt with the
        // correct text, and the physical trace is a pure function of the
        // seed (same plan + same prompts ⇒ identical BackendStats).
        let plan = ChaosPlan::new(11, 1_000)
            .with_window("a", ChaosFault::Outage, 0, 500)
            .with_window("b", ChaosFault::ErrorBurst { error_rate: 0.3 }, 250, 750);
        let trace = || -> Vec<BackendStats> {
            let model = Arc::new(EchoModel::new("m"));
            let pool = BackendPool::from_specs_with_chaos(
                model as Arc<dyn LanguageModel>,
                &[spec("a"), spec("b"), spec("c")],
                RoutingPolicy::PromptHash,
                7,
                Some(plan.clone()),
            )
            .unwrap()
            .with_backoff_base_ms(0.0);
            for i in 0..24 {
                let prompt = format!("prompt {i}");
                let resp = pool
                    .complete(&CompletionRequest::new(prompt.clone()))
                    .unwrap();
                assert_eq!(resp.text, format!("m:{prompt}"));
            }
            pool.stats()
        };
        let first = trace();
        let second = trace();
        assert_eq!(first, second, "chaos trace must reproduce run-to-run");
        let a = first.iter().find(|s| s.id == "a").unwrap();
        assert!(
            a.errors > 0,
            "an outage over half the horizon should fail some attempts on 'a': {first:?}"
        );
    }

    #[test]
    fn chaos_latency_storm_scales_wall_clock_but_not_reported_latency() {
        use llmsql_types::{ChaosFault, ChaosPlan};
        // The whole horizon is one latency storm: the round trip visibly
        // stretches, but the *reported* latency (what metrics accumulate)
        // stays the spec's 5ms — accounting is chaos-independent.
        let plan = ChaosPlan::new(3, 1_000).with_window(
            "only",
            ChaosFault::LatencyStorm { factor: 8.0 },
            0,
            1_000,
        );
        let run = |plan: Option<ChaosPlan>| {
            let model = Arc::new(EchoModel::new("m"));
            let pool = BackendPool::from_specs_with_chaos(
                model as Arc<dyn LanguageModel>,
                &[spec("only").with_latency_ms(5.0)],
                RoutingPolicy::RoundRobin,
                7,
                plan,
            )
            .unwrap();
            let started = Instant::now();
            let resp = pool.complete(&CompletionRequest::new("p")).unwrap();
            (resp, started.elapsed())
        };
        let (calm_resp, _) = run(None);
        let (storm_resp, storm_elapsed) = run(Some(plan));
        assert!(
            storm_elapsed >= Duration::from_millis(35),
            "8× storm on a 5ms backend should take ≥ 35ms, took {storm_elapsed:?}"
        );
        // Reported latency accounting is chaos-independent: storm and calm
        // runs report byte-identical responses.
        assert_eq!(storm_resp.latency_ms, calm_resp.latency_ms);
        assert_eq!(storm_resp.text, calm_resp.text);
    }

    #[test]
    fn all_breakers_open_is_a_clean_error() {
        let (_, pool) = pool_over(&[spec("d").failing()], RoutingPolicy::RoundRobin);
        let pool = pool.with_breaker(1, 60_000.0);
        // First request trips the breaker (and fails through the normal
        // path); subsequent requests fail fast with a breaker error.
        pool.complete(&CompletionRequest::new("x")).unwrap_err();
        let err = pool.complete(&CompletionRequest::new("y")).unwrap_err();
        assert!(
            err.to_string().contains("circuit-broken"),
            "unexpected error: {err}"
        );
        assert_eq!(pool.stats()[0].calls, 1, "fail-fast must cost no attempts");
    }

    #[test]
    fn latency_accounting_rounds_and_matches_reported_sums() {
        // Regression: `(latency_ms * 1000.0) as u64` truncated sub-µs
        // remainders, so a model reporting 0.6µs per call accumulated zero.
        // Rounding keeps the error within 0.5µs per call.
        struct TinyLatencyModel;
        impl LanguageModel for TinyLatencyModel {
            fn name(&self) -> String {
                "tiny".into()
            }
            fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse> {
                Ok(CompletionResponse {
                    text: format!("r:{}", request.prompt),
                    prompt_tokens: 1,
                    completion_tokens: 1,
                    latency_ms: 0.0006, // 0.6µs
                    cost_usd: 0.0,
                })
            }
        }
        let backend: Arc<dyn Backend> =
            Arc::new(DirectBackend::new("tiny", Arc::new(TinyLatencyModel)));
        let pool = BackendPool::new(vec![backend], RoutingPolicy::RoundRobin).unwrap();
        const CALLS: usize = 1000;
        let mut reported_sum = 0.0;
        for i in 0..CALLS {
            let resp = pool
                .complete(&CompletionRequest::new(format!("p{i}")))
                .unwrap();
            reported_sum += resp.latency_ms;
        }
        let accounted = pool.stats()[0].latency_ms;
        let tolerance_ms = CALLS as f64 * 0.0005; // 0.5µs per call
        assert!(
            (accounted - reported_sum).abs() <= tolerance_ms,
            "accounted {accounted}ms vs reported {reported_sum}ms drifts more than \
             0.5µs/call (truncation regression)"
        );
    }

    #[test]
    fn nan_and_negative_latencies_clamp_to_zero() {
        // A buggy/simulated endpoint reporting NaN or negative latency must
        // not poison (or wrap) the accumulator.
        struct NastyLatencyModel {
            latencies: Mutex<Vec<f64>>,
        }
        impl LanguageModel for NastyLatencyModel {
            fn name(&self) -> String {
                "nasty".into()
            }
            fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse> {
                let latency_ms = self.latencies.lock().pop().unwrap_or(0.0);
                Ok(CompletionResponse {
                    text: format!("r:{}", request.prompt),
                    prompt_tokens: 1,
                    completion_tokens: 1,
                    latency_ms,
                    cost_usd: 0.0,
                })
            }
        }
        let backend: Arc<dyn Backend> = Arc::new(DirectBackend::new(
            "nasty",
            Arc::new(NastyLatencyModel {
                latencies: Mutex::new(vec![2.5, -5.0, f64::NAN]),
            }),
        ));
        let pool = BackendPool::new(vec![backend], RoutingPolicy::RoundRobin).unwrap();
        for i in 0..3 {
            pool.complete(&CompletionRequest::new(format!("p{i}")))
                .unwrap();
        }
        // NaN and -5.0 contribute nothing; only the 2.5ms call counts.
        assert!((pool.stats()[0].latency_ms - 2.5).abs() < 1e-9);
    }

    #[test]
    fn latency_aware_explores_cold_members_then_prefers_the_fastest() {
        let (_, pool) = pool_over(
            &[
                spec("slow").with_latency_ms(15.0),
                spec("fast").with_latency_ms(1.0),
            ],
            RoutingPolicy::LatencyAware,
        );
        // Cold pool: sample-less backends sort first, so the first two
        // requests explore both members.
        pool.complete(&CompletionRequest::new("a")).unwrap();
        pool.complete(&CompletionRequest::new("b")).unwrap();
        let warmup: Vec<u64> = pool.stats().iter().map(|s| s.calls).collect();
        assert_eq!(warmup, vec![1, 1], "cold pool must explore every member");
        // Steady state: everything routes to the measured-fastest backend.
        for i in 0..5 {
            pool.complete(&CompletionRequest::new(format!("p{i}")))
                .unwrap();
        }
        let stats = pool.stats();
        assert_eq!(
            stats[0].calls, 1,
            "slow backend should see no steady-state traffic: {stats:?}"
        );
        assert_eq!(stats[1].calls, 6);
        let ewma = pool.latency_ewma_ms();
        let (slow_ewma, fast_ewma) = (ewma[0].1.unwrap(), ewma[1].1.unwrap());
        assert!(
            slow_ewma > fast_ewma,
            "EWMA ordering inverted: slow={slow_ewma}ms fast={fast_ewma}ms"
        );
    }

    #[test]
    fn hedge_fires_on_a_late_primary_and_the_fast_sibling_wins() {
        let (_, pool) = pool_over(
            &[
                spec("slow").with_latency_ms(40.0),
                spec("fast").with_latency_ms(1.0),
            ],
            RoutingPolicy::RoundRobin,
        );
        let pool = pool.with_hedging(3.0, 1.0);
        // Warm-up: round robin alternates, giving both backends an EWMA
        // sample. No hedge can fire before any sample exists (lateness is
        // undefined), so these take the plain walk.
        pool.complete(&CompletionRequest::new("w0")).unwrap(); // -> slow
        pool.complete(&CompletionRequest::new("w1")).unwrap(); // -> fast
        assert_eq!(pool.stats().iter().map(|s| s.hedges).sum::<u64>(), 0);
        // This request starts on the slow backend, goes late at ~3× the
        // fast EWMA, and is hedged to the fast sibling — which wins by a
        // wide margin. The completion text is identical either way
        // (fingerprint equality), so rows can never change.
        let resp = pool.complete(&CompletionRequest::new("p")).unwrap();
        assert_eq!(resp.text, "m:p");
        let stats = pool.stats();
        let fast = stats.iter().find(|s| s.id == "fast").unwrap();
        assert!(fast.hedges >= 1, "no hedge issued: {stats:?}");
        assert!(fast.hedges_won >= 1, "hedge should have won: {stats:?}");
    }

    #[test]
    fn hedge_gate_veto_and_permit_semantics() {
        use std::sync::atomic::AtomicUsize;
        let (_, pool) = pool_over(
            &[
                spec("slow").with_latency_ms(30.0),
                spec("fast").with_latency_ms(1.0),
            ],
            RoutingPolicy::RoundRobin,
        );
        let pool = pool.with_hedging(3.0, 1.0);
        pool.complete(&CompletionRequest::new("w0")).unwrap();
        pool.complete(&CompletionRequest::new("w1")).unwrap();

        // A vetoing gate: the late primary is simply waited out; no hedge.
        pool.set_hedge_permit_gate(Some(Arc::new(|| None)));
        let resp = pool.complete(&CompletionRequest::new("vetoed")).unwrap();
        assert_eq!(resp.text, "m:vetoed");
        assert_eq!(
            pool.stats().iter().map(|s| s.hedges).sum::<u64>(),
            0,
            "gate veto must suppress the hedge"
        );

        // Round-robin parity: this filler lands on the fast backend (no
        // hedge), so the next request starts on the slow one again.
        pool.complete(&CompletionRequest::new("filler")).unwrap();

        // A granting gate is consulted exactly once per hedge, and its
        // permit is returned (held by the hedge flight while it lasts).
        let grants = Arc::new(AtomicUsize::new(0));
        let gate_grants = Arc::clone(&grants);
        pool.set_hedge_permit_gate(Some(Arc::new(move || {
            // ordering: SeqCst — exact grant count asserted below.
            gate_grants.fetch_add(1, Ordering::SeqCst);
            Some(Box::new(()) as Box<dyn std::any::Any + Send>)
        })));
        pool.complete(&CompletionRequest::new("hedged")).unwrap();
        // ordering: SeqCst — paired with the gate increment above.
        assert_eq!(grants.load(Ordering::SeqCst), 1);
        assert_eq!(pool.stats().iter().map(|s| s.hedges).sum::<u64>(), 1);
    }

    #[test]
    fn hedged_dispatch_still_fails_over_on_errors() {
        // Primary errors fast (before the hedge threshold): the request
        // fails over across the remaining candidates like the plain walk.
        let (_, pool) = pool_over(
            &[spec("down").failing(), spec("up").with_latency_ms(1.0)],
            RoutingPolicy::CostAware, // static order: down first
        );
        let pool = pool.with_hedging(3.0, 50.0);
        // Warm the healthy backend so hedge planning has a sample (the
        // first request fails over to it via the plain-walk fallback).
        let resp = pool.complete(&CompletionRequest::new("warm")).unwrap();
        assert_eq!(resp.text, "m:warm");
        // Now hedged dispatch is viable; the primary still errors
        // immediately and failover must still reach the healthy sibling.
        let resp = pool.complete(&CompletionRequest::new("x")).unwrap();
        assert_eq!(resp.text, "m:x");
        let down = &pool.stats()[0];
        assert!(down.errors > 0);
    }

    /// A backend whose round trip is adjustable at runtime (the stall is a
    /// timer on the handle, not a sleep).
    struct AdjustableBackend {
        id: String,
        inner: Arc<dyn LanguageModel>,
        delay_ms: AtomicU64,
    }

    impl AdjustableBackend {
        fn new(id: &str, inner: Arc<dyn LanguageModel>, delay_ms: u64) -> Arc<Self> {
            Arc::new(AdjustableBackend {
                id: id.to_string(),
                inner,
                delay_ms: AtomicU64::new(delay_ms),
            })
        }
    }

    impl Backend for AdjustableBackend {
        fn id(&self) -> &str {
            &self.id
        }
        fn complete(
            &self,
            request: &CompletionRequest,
            attempt: usize,
        ) -> Result<CompletionResponse> {
            self.submit(request, attempt).wait()
        }
        fn submit(&self, request: &CompletionRequest, _attempt: usize) -> CallHandle {
            // ordering: Relaxed — test knob; any recent value is fine.
            let delay = self.delay_ms.load(Ordering::Relaxed);
            let result = self.inner.complete(request);
            if delay > 0 {
                CallHandle::timed(result, Instant::now() + Duration::from_millis(delay))
            } else {
                CallHandle::ready(result)
            }
        }
        fn fingerprint(&self) -> String {
            self.inner.fingerprint()
        }
    }

    #[test]
    fn failover_trace_matches_the_pinned_counters() {
        // A hard-down, a 50%-flaky and a healthy backend in static order:
        // every prompt is answered, and the per-backend physical counters
        // are the deterministic failover trace — pinned, so a change to the
        // walk (retry count, failover order, attempt numbering) shows up.
        let prompts: Vec<String> = (0..8).map(|i| format!("p{i}")).collect();
        let specs = [
            spec("down").failing(),
            spec("flaky").with_error_rate(0.5),
            spec("up"),
        ];
        let (_, pool) = pool_over(&specs, RoutingPolicy::CostAware);
        for p in &prompts {
            let resp = pool.complete(&CompletionRequest::new(p.clone())).unwrap();
            assert_eq!(resp.text, format!("m:{p}"));
        }
        let trace: Vec<(String, u64, u64, u64)> = pool
            .stats()
            .into_iter()
            .map(|s| {
                assert_eq!(s.in_flight, 0);
                (s.id, s.calls, s.errors, s.retries)
            })
            .collect();
        assert_eq!(
            trace,
            vec![
                ("down".to_string(), 16, 16, 8),
                ("flaky".to_string(), 10, 4, 2),
                ("up".to_string(), 2, 0, 0),
            ]
        );
    }

    #[test]
    fn timer_armed_hedge_rescues_a_one_off_stall() {
        // A usually-fast primary (EWMA well under the hedge threshold)
        // stalls once. Every hedgeable request arms a timer, so the stall is
        // rescued by the sibling — through the blocking entry exactly as
        // through a polled `PoolCall`: a parallelism-1 scan or the first
        // wave of a ramp is protected like any other request.
        type Send = fn(&BackendPool, &str) -> Result<CompletionResponse>;
        let entries: [(&str, Send); 2] = [
            ("complete", |pool, prompt| {
                pool.complete(&CompletionRequest::new(prompt))
            }),
            ("submit_call", |pool, prompt| {
                let call = pool.submit_call(&CompletionRequest::new(prompt));
                CallHandle::machine(Box::new(call)).wait()
            }),
        ];
        for (entry, send) in entries {
            let model = Arc::new(EchoModel::new("m"));
            let a = AdjustableBackend::new("a", Arc::clone(&model) as Arc<dyn LanguageModel>, 2);
            let b = AdjustableBackend::new("b", Arc::clone(&model) as Arc<dyn LanguageModel>, 2);
            let pool = BackendPool::new(
                vec![
                    Arc::clone(&a) as Arc<dyn Backend>,
                    Arc::clone(&b) as Arc<dyn Backend>,
                ],
                RoutingPolicy::CostAware, // static order: a is always primary
            )
            .unwrap()
            .with_backoff_base_ms(0.0)
            .with_hedging(4.0, 1.0);
            // Warm both members (~2ms EWMAs; hedge threshold ≈ 8ms).
            send(&pool, "w0").unwrap();
            send(&pool, "w1").unwrap();
            // A fast primary that stays fast is never hedged: the armed
            // timer is cancelled by the primary's completion.
            send(&pool, "fastpath").unwrap();
            assert_eq!(pool.stats().iter().map(|s| s.hedges).sum::<u64>(), 0);

            // One-off stall: 60ms on a backend whose EWMA says ~2ms.
            // ordering: Relaxed — test knob (single-threaded driver here).
            a.delay_ms.store(60, Ordering::Relaxed);
            let started = Instant::now();
            let resp = send(&pool, "stall").unwrap();
            assert_eq!(resp.text, "m:stall");
            let elapsed = started.elapsed();
            assert!(
                elapsed < Duration::from_millis(45),
                "{entry}: stall was not hedged away: took {elapsed:?}"
            );
            let stats = pool.stats();
            let b_stats = stats.iter().find(|s| s.id == "b").unwrap();
            assert_eq!(b_stats.hedges, 1, "{entry}: {stats:?}");
            assert_eq!(b_stats.hedges_won, 1, "{entry}: {stats:?}");
            assert!(
                stats.iter().all(|s| s.in_flight == 0),
                "{entry}: gauge leak: {stats:?}"
            );
        }
    }

    /// Give slot `slot` a latency sample of `ms` as though a request had
    /// just measured it.
    fn warm(pool: &BackendPool, slot: usize, ms: f64) {
        pool.slots[slot].shared.observe_latency(
            ms,
            pool.health.now_ms(),
            pool.health.decay_half_life_ms,
        );
    }

    /// Open slot `slot`'s breaker for longer than any test runs.
    fn trip(pool: &BackendPool, slot: usize) {
        pool.slots[slot]
            .shared
            .breaker
            .open(pool.health.now_ms(), 60_000.0);
    }

    #[test]
    fn hedged_failover_lands_on_the_fastest_sibling_not_the_next_in_rotation() {
        // The primary is hard down and fails fast, before its hedge timer
        // fires; its rotation successor is 40× slower than the two others.
        // Failover must follow health, not registration order.
        let (_, pool) = pool_over(
            &[
                spec("b0").failing(),
                spec("b1").with_latency_ms(40.0),
                spec("b2").with_latency_ms(1.0),
                spec("b3").with_latency_ms(1.0),
            ],
            RoutingPolicy::CostAware, // static order: b0 is always primary
        );
        let pool = pool.with_hedging(3.0, 1.0);
        for (slot, ms) in [(1, 40.0), (2, 1.0), (3, 1.0)] {
            warm(&pool, slot, ms);
        }
        let started = Instant::now();
        let resp = pool.complete(&CompletionRequest::new("x")).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(resp.text, "m:x");
        let calls: Vec<u64> = pool.stats().iter().map(|s| s.calls).collect();
        assert_eq!(
            calls,
            vec![2, 0, 1, 0],
            "failover skipped the fast siblings"
        );
        assert!(
            elapsed < Duration::from_millis(20),
            "failover landed on the slow backend: took {elapsed:?}"
        );
    }

    #[test]
    fn the_hedge_goes_to_the_first_closed_candidate_of_the_sorted_walk() {
        // Registration order b0..b3; b2 is the fastest but breaker-open, b3
        // is faster than b1. The walk keeps the primary and sorts the rest:
        // b0, b3, b1, b2 — and a stall on b0 is hedged to b3.
        let model = Arc::new(EchoModel::new("m"));
        let backends: Vec<Arc<AdjustableBackend>> = [("b0", 60), ("b1", 3), ("b2", 1), ("b3", 2)]
            .iter()
            .map(|&(id, ms)| AdjustableBackend::new(id, Arc::clone(&model) as _, ms))
            .collect();
        let pool = BackendPool::new(
            backends
                .iter()
                .map(|b| Arc::clone(b) as Arc<dyn Backend>)
                .collect(),
            RoutingPolicy::CostAware,
        )
        .unwrap()
        .with_breaker(3, 60_000.0)
        .with_hedging(3.0, 1.0);
        for (slot, ms) in [(0, 1.0), (1, 3.0), (2, 0.5), (3, 2.0)] {
            warm(&pool, slot, ms);
        }
        trip(&pool, 2);
        let call = pool.submit_call(&CompletionRequest::new("stall"));
        let walk: Vec<&str> = call.cands.iter().map(|c| c.backend.id()).collect();
        assert_eq!(walk, ["b0", "b3", "b1", "b2"]);
        let resp = CallHandle::machine(Box::new(call)).wait().unwrap();
        assert_eq!(resp.text, "m:stall");
        let hedges: Vec<u64> = pool.stats().iter().map(|s| s.hedges).collect();
        assert_eq!(hedges, vec![0, 0, 0, 1], "{:?}", pool.stats());
    }

    #[test]
    fn a_short_circuited_primary_still_has_its_first_launch_hedged() {
        // The primary's breaker is open, so the walk's first launch is the
        // healthiest sibling — which stalls this once. The hedge timer must
        // cover that launch, not give up because the primary is skipped.
        let model = Arc::new(EchoModel::new("m"));
        let backends: Vec<Arc<AdjustableBackend>> = [("b0", 1), ("b1", 60), ("b2", 2)]
            .iter()
            .map(|&(id, ms)| AdjustableBackend::new(id, Arc::clone(&model) as _, ms))
            .collect();
        let pool = BackendPool::new(
            backends
                .iter()
                .map(|b| Arc::clone(b) as Arc<dyn Backend>)
                .collect(),
            RoutingPolicy::CostAware,
        )
        .unwrap()
        .with_breaker(3, 60_000.0)
        .with_hedging(3.0, 1.0);
        for (slot, ms) in [(0, 1.0), (1, 1.0), (2, 2.0)] {
            warm(&pool, slot, ms);
        }
        trip(&pool, 0);
        let started = Instant::now();
        let resp = pool.complete(&CompletionRequest::new("stall")).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(resp.text, "m:stall");
        let stats = pool.stats();
        assert_eq!(stats[0].calls, 0, "{stats:?}");
        assert_eq!((stats[2].hedges, stats[2].hedges_won), (1, 1), "{stats:?}");
        assert!(
            elapsed < Duration::from_millis(40),
            "the stalled first launch was not hedged: took {elapsed:?}"
        );
        assert!(stats.iter().all(|s| s.in_flight == 0), "{stats:?}");
    }

    #[test]
    fn a_flight_beaten_by_its_hedge_still_yields_a_latency_sample() {
        // Latency-aware routing explores an unsampled member first. If that
        // member is slow, its request is hedged away and cancelled — and were
        // the cancelled flight to leave no sample, the member would stay
        // unsampled and be explored first (and hedged away) forever.
        let model = Arc::new(EchoModel::new("m"));
        let fast = AdjustableBackend::new("fast", Arc::clone(&model) as Arc<dyn LanguageModel>, 2);
        let slow = AdjustableBackend::new("slow", Arc::clone(&model) as Arc<dyn LanguageModel>, 60);
        let pool = BackendPool::new(
            vec![
                Arc::clone(&fast) as Arc<dyn Backend>,
                Arc::clone(&slow) as Arc<dyn Backend>,
            ],
            RoutingPolicy::LatencyAware,
        )
        .unwrap()
        .with_hedging(4.0, 1.0);
        // Cold pool: registration order, so `fast` is sampled first (~2ms).
        pool.complete(&CompletionRequest::new("w0")).unwrap();
        // `slow` is explored, goes late at ~8ms and loses to the hedge.
        pool.complete(&CompletionRequest::new("w1")).unwrap();
        let stats = pool.stats();
        assert_eq!((stats[1].calls, stats[0].hedges_won), (1, 1), "{stats:?}");
        let slow_ewma = pool.latency_ewma_ms()[1].1;
        assert!(
            slow_ewma.is_some_and(|ms| ms >= 8.0),
            "beaten flight left no usable sample: {slow_ewma:?}"
        );
        // Steady state: traffic now prefers the measured-fast member.
        for i in 0..3 {
            pool.complete(&CompletionRequest::new(format!("p{i}")))
                .unwrap();
        }
        let stats = pool.stats();
        assert_eq!(
            stats[1].calls, 1,
            "slow member was explored again: {stats:?}"
        );
        assert!(stats.iter().all(|s| s.in_flight == 0), "{stats:?}");
    }

    #[test]
    fn hedge_timer_vs_primary_completion_races_stay_consistent() {
        // Stress the race window: primary latency straddles the hedge
        // threshold, so across many calls some are won by the primary, some
        // by the hedge, and some timers are cancelled mid-flight. Whatever
        // interleaving happens: the response text is always correct, permits
        // never leak, counters stay consistent, gauges drain to zero.
        use std::sync::atomic::AtomicI64;
        let model = Arc::new(EchoModel::new("m"));
        let primary = AdjustableBackend::new("p", Arc::clone(&model) as Arc<dyn LanguageModel>, 2);
        let sibling = AdjustableBackend::new("s", Arc::clone(&model) as Arc<dyn LanguageModel>, 2);
        let pool = BackendPool::new(
            vec![
                Arc::clone(&primary) as Arc<dyn Backend>,
                Arc::clone(&sibling) as Arc<dyn Backend>,
            ],
            RoutingPolicy::CostAware,
        )
        .unwrap()
        .with_backoff_base_ms(0.0)
        // Threshold ≈ 1× the pool's floor EWMA: the cycling primary delay
        // genuinely straddles it, so both race outcomes occur.
        .with_hedging(1.0, 1.0);
        let outstanding_permits = Arc::new(AtomicI64::new(0));
        struct PermitToken(Arc<AtomicI64>);
        impl Drop for PermitToken {
            fn drop(&mut self) {
                // ordering: SeqCst — the leak check asserts an exact zero
                // across worker threads; keep drops in the total order.
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let gate_permits = Arc::clone(&outstanding_permits);
        pool.set_hedge_permit_gate(Some(Arc::new(move || {
            // ordering: SeqCst — paired with PermitToken::drop's decrement.
            gate_permits.fetch_add(1, Ordering::SeqCst);
            Some(Box::new(PermitToken(Arc::clone(&gate_permits))) as Box<dyn std::any::Any + Send>)
        })));
        pool.complete(&CompletionRequest::new("warm-p")).unwrap();
        pool.complete(&CompletionRequest::new("warm-s")).unwrap();

        // Deterministic schedule: the primary delay cycles 2..6ms around the
        // moving ~EWMA threshold.
        for i in 0..60u64 {
            // ordering: Relaxed — test knob (single-threaded driver here).
            primary.delay_ms.store(2 + (i % 5), Ordering::Relaxed);
            let prompt = format!("race-{i}");
            let resp = pool
                .complete(&CompletionRequest::new(prompt.clone()))
                .unwrap();
            assert_eq!(resp.text, format!("m:{prompt}"));
        }
        let stats = pool.stats();
        let hedges: u64 = stats.iter().map(|s| s.hedges).sum();
        let hedges_won: u64 = stats.iter().map(|s| s.hedges_won).sum();
        assert!(hedges_won <= hedges, "{stats:?}");
        assert!(
            hedges >= 1,
            "a delay schedule straddling the threshold should hedge at least once: {stats:?}"
        );
        assert!(
            stats.iter().all(|s| s.in_flight == 0),
            "gauge leak: {stats:?}"
        );
        assert_eq!(
            // ordering: SeqCst — paired with the grant/drop pair above.
            outstanding_permits.load(Ordering::SeqCst),
            0,
            "hedge permits leaked"
        );
        assert!(stats.iter().all(|s| s.errors == 0));
    }

    #[test]
    fn dropping_a_pool_call_mid_flight_releases_gauges_and_probe_flags() {
        // Cancellation-by-drop: abandon calls at various stages and verify
        // nothing sticks — in-flight gauges, hedge permits, probe flags.
        let model = Arc::new(EchoModel::new("m"));
        let slow = AdjustableBackend::new("slow", Arc::clone(&model) as Arc<dyn LanguageModel>, 50);
        let fast = AdjustableBackend::new("fast", Arc::clone(&model) as Arc<dyn LanguageModel>, 50);
        let pool = BackendPool::new(
            vec![
                Arc::clone(&slow) as Arc<dyn Backend>,
                Arc::clone(&fast) as Arc<dyn Backend>,
            ],
            RoutingPolicy::CostAware,
        )
        .unwrap()
        .with_hedging(1.0, 1.0);
        // In flight, never polled to completion — then dropped.
        let mut call = pool.submit_call(&CompletionRequest::new("abandoned"));
        assert!(call.poll(Instant::now()).is_none());
        assert_eq!(pool.stats()[0].in_flight, 1);
        drop(call);
        let stats = pool.stats();
        assert!(
            stats.iter().all(|s| s.in_flight == 0),
            "abandoned call leaked its in-flight gauge: {stats:?}"
        );
    }

    #[test]
    fn latency_decay_lets_a_recovered_backend_reattract_traffic() {
        // The LatencyAware cold-trap regression: a backend that *was* slow
        // keeps a scary EWMA forever, never receives traffic, and so can
        // never prove it recovered. With read-side decay its estimate drifts
        // down while it idles, routing re-probes it, and the fresh sample
        // restores its fair share.
        let run = |decay_half_life_ms: f64| -> u64 {
            let model = Arc::new(EchoModel::new("m"));
            let was_slow = AdjustableBackend::new(
                "was-slow",
                Arc::clone(&model) as Arc<dyn LanguageModel>,
                30,
            );
            let steady =
                AdjustableBackend::new("steady", Arc::clone(&model) as Arc<dyn LanguageModel>, 2);
            let pool = BackendPool::new(
                vec![
                    Arc::clone(&was_slow) as Arc<dyn Backend>,
                    Arc::clone(&steady) as Arc<dyn Backend>,
                ],
                RoutingPolicy::LatencyAware,
            )
            .unwrap()
            .with_latency_decay(decay_half_life_ms);
            // Cold exploration samples both: was-slow ~30ms, steady ~2ms.
            pool.complete(&CompletionRequest::new("w0")).unwrap();
            pool.complete(&CompletionRequest::new("w1")).unwrap();
            let calls_after_warmup = pool.stats()[0].calls;
            assert_eq!(calls_after_warmup, 1);
            // The slow backend recovers, then the pool idles a few
            // half-lives (stale estimates decay; nothing refreshes them).
            // ordering: Relaxed — test knob (single-threaded driver here).
            was_slow.delay_ms.store(2, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(200));
            for i in 0..10 {
                pool.complete(&CompletionRequest::new(format!("p{i}")))
                    .unwrap();
            }
            pool.stats()[0].calls - calls_after_warmup
        };
        let without_decay = run(0.0);
        assert_eq!(
            without_decay, 0,
            "without decay the recovered backend must stay starved (the bug)"
        );
        // Under CPU contention the re-probe's *measured* sample can come
        // back inflated and keep the backend mostly sidelined, so asserting
        // a fair share here is flaky; the invariant decay guarantees is that
        // the recovered backend is re-probed at all (without decay it is
        // provably starved forever).
        let with_decay = run(40.0);
        assert!(
            with_decay >= 1,
            "recovered backend was never re-probed; decay must restore it \
             to contention"
        );
    }

    #[test]
    fn least_in_flight_balances_under_concurrency() {
        // Two slow backends, four concurrent requests: least-in-flight must
        // use both (round robin would too, but a broken policy sending all
        // four to one backend is what this guards against).
        let specs = [
            spec("s1").with_latency_ms(20.0),
            spec("s2").with_latency_ms(20.0),
        ];
        let (_, pool) = pool_over(&specs, RoutingPolicy::LeastInFlight);
        let pool = Arc::new(pool);
        std::thread::scope(|scope| {
            for i in 0..4 {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    pool.complete(&CompletionRequest::new(format!("p{i}")))
                        .unwrap()
                });
            }
        });
        let stats = pool.stats();
        assert!(
            stats.iter().all(|s| s.calls >= 1),
            "least-in-flight left a backend idle: {stats:?}"
        );
        assert!(stats.iter().all(|s| s.latency_ms > 0.0));
    }
}
