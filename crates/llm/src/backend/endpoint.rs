//! One endpoint: the [`Backend`] trait, the [`CallHandle`] an attempt
//! returns, and the deterministic [`RemoteLlm`] simulator.
//!
//! A [`Backend`] is one endpoint serving completions — in production an
//! HTTP host, here a deterministic simulation of one. Implementations must
//! uphold:
//!
//! 1. **Semantic identity.** An attempt fails or returns text that is a pure
//!    function of the prompt — never of the attempt, the time or thread
//!    interleaving (`cost_usd` and `latency_ms` may differ per backend).
//!    Backends with equal [`Backend::fingerprint`]s MUST produce
//!    byte-identical text; [`super::BackendPool::new`] enforces equality, so
//!    routing and failover can never change query results.
//! 2. **Deterministic failure.** Whether attempt `k` of a prompt fails is a
//!    pure function of `(backend, prompt, k)`, so a query's retry/failover
//!    trace is identical across runs and parallelism levels.
//! 3. **No serialization.** `submit` is called from many scans at once; it
//!    must not funnel requests through one lock.
//!
//! [`Backend::submit`] is an endpoint's one dispatch method. It is handed the
//! instant of the poll that launches the attempt and returns a handle at
//! once: [`CallHandle::poll`] never blocks and yields the result exactly
//! once, and [`CallHandle::next_wakeup`] says when polling can next make
//! progress. A backend that separates *computing* a response from *waiting
//! out* its latency (like [`RemoteLlm`]) returns a timer-backed handle, so
//! one thread holds many requests in flight.

use std::sync::Arc;
use std::time::{Duration, Instant};

use llmsql_types::{BackendSpec, ChaosEffect, ChaosPlan, Error, LlmCostModel, Result};

use super::BackendReceipt;
use crate::model::{block_on, CompletionRequest, CompletionResponse, LanguageModel};
use crate::noise::hash01;

/// A poll-driven completion state machine: anything that makes progress when
/// polled and can tell an event loop when to poll it next.
/// [`super::PoolCall`] is the main implementation; [`CallHandle::machine`]
/// wraps one as a handle.
pub trait CallMachine: Send {
    /// Attempt to make progress. Returns the final result exactly once;
    /// `None` while pending (and again after the result was taken).
    fn poll(&mut self, now: Instant) -> Option<Result<CompletionResponse>>;

    /// The earliest instant at which [`CallMachine::poll`] can make further
    /// progress. `None` after a poll that made no progress means the machine
    /// waits on another thread, which unparks the polling one
    /// (`llmsql_types::clock::park_until`); before the first poll and after
    /// the result it means "nothing to wait for".
    fn next_wakeup(&self, now: Instant) -> Option<Instant>;

    /// What this call has done so far on each backend it was routed over,
    /// in routing order; readable while the call is pending and after it
    /// resolved. A machine that routes nowhere reports nothing.
    fn backend_receipts(&self, _visit: &mut dyn FnMut(&str, &BackendReceipt)) {}
}

/// The completion handle returned by [`Backend::submit`] /
/// `LanguageModel::submit`: a one-shot, poll-based future for a single
/// logical completion (see the module docs).
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
    /// Driven by a nested state machine (e.g. a [`super::PoolCall`]).
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

    /// A handle whose result was already taken: what an attempt holds
    /// before its backend has been asked.
    pub(super) fn taken() -> CallHandle {
        CallHandle {
            inner: HandleInner::Ready(None),
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

    /// When the next [`CallHandle::poll`] can make progress, read as
    /// [`CallMachine::next_wakeup`] is.
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
        block_on(|now| self.poll(now).ok_or_else(|| self.next_wakeup(now)))
    }
}

/// One completion endpoint. See the module docs for the full contract.
pub trait Backend: Send + Sync {
    /// Unique endpoint name within a pool (shows up in per-backend metrics).
    fn id(&self) -> &str;

    /// Launch one attempt of a request at `now`, the instant of the poll
    /// that launches it. `attempt` is the zero-based ordinal of this attempt
    /// *on this backend* for this request; deterministic backends derive
    /// transient-failure decisions from it (contract rule 2).
    fn submit(&self, request: &CompletionRequest, attempt: usize, now: Instant) -> CallHandle;

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

    /// Builder-style: subject this endpoint to a [`ChaosPlan`], whose windows
    /// run on the plan's virtual clock (a pure function of the prompt), never
    /// a real one. Outage and flapping windows make attempts fail, error bursts
    /// raise the effective error rate, and latency storms / slow drips scale
    /// the round trip's timer (reported latency accounting is unaffected, so
    /// cost/latency metrics stay chaos-independent).
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

    /// This endpoint's simulated round trip for `prompt`, milliseconds: the
    /// spec latency scaled by any active latency storm.
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
/// (possibly timer-backed) completion — or the attempt's simulated error —
/// then this endpoint's own round trip as a second timer, started by the
/// poll that sees the first resolve. A latency-bearing inner model never
/// blocks the polling thread, and the serial time is inner time plus
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

    /// One attempt: the failure decision is made now — a pure function of
    /// `(backend, prompt, attempt)`, contract rule 2. A successful attempt
    /// submits the inner model through *its* non-blocking API (so an inner
    /// model with its own simulated latency contributes a timer, not a
    /// sleep) and keeps its text verbatim (contract rule 1), re-priced with
    /// this endpoint's cost model; a failed one carries its error instead.
    /// Either way this endpoint's round trip is a second timer on the
    /// returned handle. This is the backend that lets one OS thread hold
    /// arbitrarily many in-flight simulated requests.
    fn submit(&self, request: &CompletionRequest, attempt: usize, _now: Instant) -> CallHandle {
        let inner = if self.attempt_fails(&request.prompt, attempt) {
            CallHandle::ready(Err(Error::llm(format!(
                "backend '{}' failed attempt {attempt} (simulated endpoint error)",
                self.id
            ))))
        } else {
            self.inner.submit(request)
        };
        // Chaos latency storms stretch the timer; the *reported* latency
        // (and therefore cost/latency accounting) stays the spec's.
        let round_trip_ms = self.effective_latency_ms(&request.prompt);
        CallHandle::machine(Box::new(RemoteCall {
            inner,
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

    fn submit(&self, request: &CompletionRequest, _attempt: usize, _now: Instant) -> CallHandle {
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
