//! The `LanguageModel` abstraction and the tracked client wrapper.
//!
//! The engine only ever talks to a [`LanguageModel`] through a
//! [`LlmClient`], which adds prompt caching and usage accounting. Two
//! implementations ship in this reproduction: the simulator
//! ([`crate::sim::SimLlm`]) and the multi-backend router
//! ([`crate::backend::BackendPool`], itself composed of [`crate::backend::Backend`]
//! endpoints); a production deployment would add an HTTP-backed endpoint
//! without touching the engine.

use std::collections::HashMap;
use std::fmt::Write;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

use llmsql_types::{clock, LlmCostModel, Result};

use crate::backend::{BackendPool, BackendReceipt, BackendStats, CallHandle};
use crate::cache::PromptCache;
use crate::coalesce::{Claim, CoalesceEntry, CoalesceGuard, FollowerPoll, PromptCoalescer};
use crate::cost::UsageStats;
use crate::key::RequestKey;

/// A completion request.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletionRequest {
    /// The full prompt text.
    pub prompt: String,
    /// Maximum completion tokens the caller is willing to receive.
    pub max_tokens: usize,
    /// Sampling temperature (the simulator uses it to scale noise slightly).
    pub temperature: f64,
}

impl CompletionRequest {
    /// Build a request with default limits.
    pub fn new(prompt: impl Into<String>) -> Self {
        CompletionRequest {
            prompt: prompt.into(),
            max_tokens: 2048,
            temperature: 0.0,
        }
    }

    /// Set the maximum completion tokens.
    pub fn with_max_tokens(mut self, max_tokens: usize) -> Self {
        self.max_tokens = max_tokens;
        self
    }
}

/// A completion response with accounting metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletionResponse {
    /// The completion text.
    pub text: String,
    /// Tokens in the prompt.
    pub prompt_tokens: usize,
    /// Tokens in the completion.
    pub completion_tokens: usize,
    /// Simulated wall-clock latency of the request in milliseconds.
    pub latency_ms: f64,
    /// Simulated dollar cost of the request.
    pub cost_usd: f64,
}

/// The storage device: anything that turns prompts into completions.
pub trait LanguageModel: Send + Sync {
    /// A short model identifier (shows up in experiment reports).
    fn name(&self) -> String;

    /// Produce a completion for the request, blocking for the round trip.
    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse>;

    /// Submit the request and return a poll-based [`CallHandle`] — the form
    /// every dispatch in the engine uses. The default is a blocking adapter
    /// (`complete` runs inline, the handle comes back resolved) so any model
    /// works; models that can represent their latency as a timer
    /// ([`crate::SimLlm`], [`crate::BackendPool`]) override it — that is
    /// what lets one OS thread hold many in-flight requests.
    fn submit(&self, request: &CompletionRequest) -> CallHandle {
        CallHandle::ready(self.complete(request))
    }

    /// Advisory: true when [`LanguageModel::submit`] returns without
    /// blocking on the round trip. No dispatch decision reads it — every
    /// model is dispatched through `submit` — it only documents whether a
    /// wave of requests to this model overlaps or runs one after another.
    fn supports_async_submit(&self) -> bool {
        false
    }

    /// Semantic identity of this model: two models with equal fingerprints
    /// must produce byte-identical completion text for every prompt. Folded
    /// into prompt-cache and single-flight keys so clients over different
    /// model configurations can share a cache without collisions. The default
    /// reuses [`LanguageModel::name`]; override it when the name omits
    /// configuration that changes completions.
    fn fingerprint(&self) -> String {
        self.name()
    }

    /// The cost model of this endpoint (used for reporting only).
    fn cost_model(&self) -> LlmCostModel {
        LlmCostModel::default()
    }

    /// How many lines this model would emit for an unfiltered, unpaginated
    /// enumeration of `table` — its *observed* cardinality of the relation
    /// (which under fidelity noise differs from the ground truth: forgotten
    /// entities are missing, fabricated ones included). Scans use the hint to
    /// stop speculative pagination at the relation's end instead of paying
    /// for pages past it. `None` (the default) means the model offers no
    /// hint and scans probe for the end as before.
    ///
    /// An [`LlmClient`] asks once per table and holds the answer — `None`
    /// included — for as long as it lives; every scan, plan and EXPLAIN over
    /// that client reads the held answer. So a hint must be exact, and
    /// stable for as long as the model is attached: a relation that grew
    /// would be paged only to its old end. An implementation may be as slow
    /// as a metadata round trip; it is not on any scan's per-query path.
    fn relation_cardinality(&self, _table: &str) -> Option<u64> {
        None
    }
}

/// The client the executor uses: wraps a model with a prompt cache, a
/// single-flight table, a usage accumulator and the relation-cardinality
/// hints the model has given. Cloning shares all four.
#[derive(Clone)]
pub struct LlmClient {
    model: Arc<dyn LanguageModel>,
    /// When the model is a [`BackendPool`], a typed handle to it so callers
    /// can read per-backend counters.
    pool: Option<Arc<BackendPool>>,
    cache: Option<Arc<PromptCache>>,
    /// Semantic fingerprint of the wrapped model, folded into every cache /
    /// single-flight key: prompts are only shared between requests that the
    /// same model configuration would answer identically.
    fingerprint: Arc<str>,
    usage: Arc<Mutex<UsageStats>>,
    /// The single-flight table (see [`crate::coalesce`]): identical requests
    /// in flight at the same time collapse into one model call. A cached
    /// client starts with a private table; a scheduler replaces it with the
    /// deployment's so the dedup spans clients and queries. `None` (a
    /// cache-less client nobody attached a table to) means no dedup.
    coalescer: Option<Arc<PromptCoalescer>>,
    /// What the model answered to [`LanguageModel::relation_cardinality`],
    /// per table, `None` included: the model is asked once, however many
    /// scans, queries and worker threads share this client. Nothing
    /// invalidates an entry — the trait forbids the answer from changing
    /// while the model is attached, and attaching another model builds
    /// another client.
    cardinalities: Arc<Mutex<HashMap<String, CardinalityCell>>>,
}

/// One table's remembered hint. The cell, not the map's lock, is what a
/// second asker waits on, so the model is called with no lock of ours held.
type CardinalityCell = Arc<OnceLock<Option<u64>>>;

impl LlmClient {
    /// Wrap a model with caching enabled.
    pub fn new(model: Arc<dyn LanguageModel>) -> Self {
        Self::with_shared_cache(model, Arc::new(PromptCache::new()))
    }

    /// Wrap a model over an existing (possibly shared) prompt cache. Clients
    /// over *different* model configurations can safely share one cache: the
    /// model fingerprint is part of every key.
    pub fn with_shared_cache(model: Arc<dyn LanguageModel>, cache: Arc<PromptCache>) -> Self {
        LlmClient {
            cache: Some(cache),
            coalescer: Some(Arc::new(PromptCoalescer::new())),
            ..Self::without_cache(model)
        }
    }

    /// Wrap a model without a prompt cache.
    pub fn without_cache(model: Arc<dyn LanguageModel>) -> Self {
        let fingerprint: Arc<str> = model.fingerprint().into();
        LlmClient {
            model,
            pool: None,
            cache: None,
            fingerprint,
            usage: Arc::new(Mutex::new(UsageStats::default())),
            coalescer: None,
            cardinalities: Arc::default(),
        }
    }

    /// Wrap a multi-backend pool (with caching when `cached`). Completions
    /// route through the pool's policy + failover; [`LlmClient::backend_stats`]
    /// exposes the per-backend counters.
    pub fn from_pool(pool: Arc<BackendPool>, cached: bool) -> Self {
        let mut client = if cached {
            Self::new(Arc::clone(&pool) as Arc<dyn LanguageModel>)
        } else {
            Self::without_cache(Arc::clone(&pool) as Arc<dyn LanguageModel>)
        };
        client.pool = Some(pool);
        client
    }

    /// Per-backend physical-call counters, when the client wraps a pool.
    pub fn backend_stats(&self) -> Option<Vec<BackendStats>> {
        self.pool.as_ref().map(|p| p.stats())
    }

    /// The wrapped [`BackendPool`], when this client routes through one
    /// (hedge slots and EWMA inspection go through this handle).
    pub fn pool(&self) -> Option<&Arc<BackendPool>> {
        self.pool.as_ref()
    }

    /// Replace this client's single-flight table with a deployment-scope
    /// [`PromptCoalescer`], so identical in-flight requests from *different*
    /// clients and queries collapse into one physical call whose success
    /// fans out to every waiter.
    pub fn set_coalescer(&mut self, coalescer: Arc<PromptCoalescer>) {
        self.coalescer = Some(coalescer);
    }

    /// The single-flight table this client claims request keys in, if any.
    pub fn coalescer(&self) -> Option<&Arc<PromptCoalescer>> {
        self.coalescer.as_ref()
    }

    /// The wrapped model's observed cardinality of `table`, if it reports
    /// one (see [`LanguageModel::relation_cardinality`]). The model is asked
    /// the first time a table is named; this client and its clones remember
    /// the answer from then on.
    pub fn relation_cardinality(&self, table: &str) -> Option<u64> {
        let cell = {
            let mut memo = self.cardinalities.lock();
            if let Some(known) = memo.get(table).and_then(|cell| cell.get()) {
                return *known;
            }
            Arc::clone(memo.entry(table.to_string()).or_default())
        };
        *cell.get_or_init(|| self.model.relation_cardinality(table))
    }

    /// The cache / single-flight key for a request: the model fingerprint
    /// plus every request parameter that can change the completion. Two
    /// queries sharing a prompt string but differing in model config,
    /// `max_tokens` or `temperature` never collide. The text is hashed here,
    /// once; every table the call consults reuses that hash.
    fn request_key(&self, request: &CompletionRequest) -> RequestKey {
        // Room for the prompt up front: a packed prompt runs to kilobytes,
        // and growing into it would copy it several times over.
        let mut text = String::with_capacity(self.fingerprint.len() + request.prompt.len() + 48);
        // Writing to a `String` cannot fail.
        let _ = write!(
            text,
            "{}\u{1f}{}\u{1f}{}\u{1f}{}",
            self.fingerprint, request.max_tokens, request.temperature, request.prompt
        );
        RequestKey::new(text)
    }

    /// Issue a completion and block for it: [`LlmClient::start_call`],
    /// waited on.
    pub fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse> {
        self.start_call(request.clone()).wait()
    }

    /// Begin one completion as a poll-driven [`ClientCall`]: the cache is
    /// consulted first, and concurrent calls with an identical request key
    /// are deduplicated (single-flight) — one queries the model, the others
    /// take its result — so parallel dispatch never pays for a completion a
    /// sequential run would have served from the cache. Poll it from an
    /// event loop (`llmsql_exec::reactor`); dropping it mid-flight releases
    /// single-flight leadership and any held permit.
    pub fn start_call(&self, request: CompletionRequest) -> ClientCall {
        let key =
            (self.cache.is_some() || self.coalescer.is_some()).then(|| self.request_key(&request));
        ClientCall {
            client: self.clone(),
            request,
            key,
            guard: None,
            coalesced: false,
            usage: UsageStats::default(),
            permit: None,
            handle: None,
            state: CcState::Start,
        }
    }

    /// A snapshot of accumulated usage.
    pub fn usage(&self) -> UsageStats {
        self.usage.lock().clone()
    }

    /// Clear the prompt cache.
    pub fn clear_cache(&self) {
        if let Some(cache) = &self.cache {
            cache.clear();
        }
    }
}

/// Which phase of its life a [`ClientCall`] is in.
enum CcState {
    /// Not yet dispatched: check the cache, claim single-flight leadership.
    Start,
    /// An identical request is in flight (on this client or, with a
    /// deployment-scope table, on another client/query); the shared entry
    /// wakes this thread when the leader's flight resolves.
    Follower(Arc<CoalesceEntry>),
    /// Leader without a permit: the admission gate said "no capacity", and
    /// wakes this thread when it may have some.
    AwaitingSlot,
    /// Dispatched to the model: the call's handle is resolving.
    InFlight,
    /// Resolved (result already handed out).
    Done,
}

/// A poll-driven [`LlmClient`] completion, created by
/// [`LlmClient::start_call`].
///
/// The completion contract:
///
/// * `poll` never blocks (up to the model's `submit`, which for timer-backed
///   models is compute only) and returns the result exactly once.
/// * Cache hits resolve without ever consulting the admission gate, so under
///   a cross-query scheduler they neither consume nor wait for slot capacity.
/// * A miss claims its request key in the client's single-flight table
///   ([`PromptCoalescer`]) before consulting the gate: leaders dispatch,
///   write the cache and publish their success to every waiter; followers
///   park without gating and resolve from the leader's fan-out (zero
///   physical calls, [`ClientCall::coalesced`] reports `true`). A leader
///   that fails abandons the entry and followers re-claim, so error and
///   retry semantics per query are unchanged.
/// * The gate is consulted only when this call leads (or does no dedup) and
///   a real dispatch is imminent; a `None` verdict parks the call until the
///   gate wakes the polling thread (a [`crate::CallSlots`] release does), a
///   permit is held until the model resolves and released with the call —
///   the call owns the slot guard for exactly the dispatch it gates.
/// * A call that waits on another — its leader, or the gate — reports no
///   wake-up ([`ClientCall::next_wakeup`] is `None`): it is blocked until
///   that other call's thread unparks this one, never polled on a timer.
/// * Dropping the call mid-flight abandons its leadership (so followers
///   elect a new leader instead of waiting forever) and releases the
///   permit; the model-side flight is abandoned.
pub struct ClientCall {
    client: LlmClient,
    request: CompletionRequest,
    /// Cache / single-flight key, formatted and hashed once; `None` when the
    /// client has neither.
    key: Option<RequestKey>,
    /// Held while this call leads its key's flight; published with the
    /// outcome when the flight ends, abandoned by drop.
    guard: Option<CoalesceGuard>,
    /// True when the result was served from another call's in-flight request.
    coalesced: bool,
    /// What this call added to the client's [`LlmClient::usage`]: written
    /// beside it, at the same two sites.
    usage: UsageStats,
    /// The admission permit held from dispatch to resolution.
    permit: Option<Box<dyn std::any::Any + Send>>,
    /// The model-side flight, from dispatch on. Kept once it has resolved:
    /// it holds what the flight did (see [`ClientCall::backend_receipts`]).
    handle: Option<CallHandle>,
    state: CcState,
}

impl ClientCall {
    /// Attempt progress. `gate` is the admission gate: called right before a
    /// real dispatch; `Some(permit)` admits (the permit is held for the
    /// flight), `None` parks the call, and the gate must then unpark the
    /// calling thread when capacity may be free. Returns the final result
    /// exactly once; `None` while pending.
    pub fn poll(
        &mut self,
        now: Instant,
        gate: &mut dyn FnMut() -> Option<Box<dyn std::any::Any + Send>>,
    ) -> Option<Result<Arc<CompletionResponse>>> {
        loop {
            match &mut self.state {
                CcState::Start => {
                    if let Some(key) = &self.key {
                        // A leader is here again only to close the race
                        // below: its miss is already counted.
                        let hit = self.client.cache.as_ref().and_then(|c| match self.guard {
                            None => c.get(key),
                            Some(_) => c.peek(key),
                        });
                        if let Some(hit) = hit {
                            // A leader that finds the answer cached abandons
                            // its claim; its followers re-check the cache.
                            self.guard = None;
                            self.client.usage.lock().cache_hits += 1;
                            self.usage.cache_hits += 1;
                            self.state = CcState::Done;
                            return Some(Ok(hit));
                        }
                        if let (None, Some(table)) = (&self.guard, &self.client.coalescer) {
                            match table.claim(key) {
                                Claim::Leader(guard) => {
                                    self.guard = Some(guard);
                                    // Double-check: a previous leader may have
                                    // populated the cache between miss and
                                    // claim.
                                    continue;
                                }
                                Claim::Follower(entry) => {
                                    self.state = CcState::Follower(entry);
                                    continue;
                                }
                            }
                        }
                    }
                    self.state = CcState::AwaitingSlot;
                }
                CcState::Follower(entry) => match entry.poll() {
                    FollowerPoll::Pending => return None,
                    FollowerPoll::Ready(response) => {
                        // Served from another call's flight: no physical
                        // call, no usage record — only the leader pays.
                        self.coalesced = true;
                        if let (Some(key), Some(cache)) = (&self.key, &self.client.cache) {
                            cache.put(key, Arc::clone(&response));
                        }
                        self.state = CcState::Done;
                        return Some(Ok(response));
                    }
                    FollowerPoll::Abandoned => {
                        // The leader failed or was cancelled. Start over: we
                        // re-check the cache and (re-)claim a flight of our
                        // own, preserving per-query retry semantics.
                        self.state = CcState::Start;
                    }
                },
                CcState::AwaitingSlot => {
                    self.permit = Some(gate()?);
                    self.handle = Some(self.client.model.submit(&self.request));
                    self.state = CcState::InFlight;
                }
                CcState::InFlight => {
                    // The one allocation of an answer: the cache entry, the
                    // followers and the caller all share it from here.
                    let outcome = self.handle.as_mut()?.poll(now)?.map(Arc::new);
                    self.permit = None;
                    if let Ok(response) = &outcome {
                        self.client.usage.lock().record(response);
                        self.usage.record(response);
                        if let (Some(key), Some(cache)) = (&self.key, &self.client.cache) {
                            cache.put(key, Arc::clone(response));
                        }
                    }
                    // Publish after the cache write, so a request arriving
                    // now finds either the entry or the cached answer:
                    // successes resolve the followers, failures make them
                    // re-claim.
                    if let Some(guard) = self.guard.take() {
                        guard.publish(&outcome);
                    }
                    self.state = CcState::Done;
                    return Some(outcome);
                }
                CcState::Done => return None,
            }
        }
    }

    /// When the next [`ClientCall::poll`] can make progress: the flight's
    /// timer, or `None` while the call waits for another thread to unpark
    /// it (see the type's contract).
    pub fn next_wakeup(&self, now: Instant) -> Option<Instant> {
        match &self.state {
            CcState::InFlight => self.handle.as_ref()?.next_wakeup(now),
            _ => None,
        }
    }

    /// True when the result was served by fan-out from another call's
    /// in-flight request (zero physical calls issued by this one).
    pub fn coalesced(&self) -> bool {
        self.coalesced
    }

    /// This call's own share of [`LlmClient::usage`]: one cache hit, or the
    /// one completion the model served it — nothing for a follower, a failed
    /// call or one still pending.
    pub fn usage(&self) -> &UsageStats {
        &self.usage
    }

    /// This call's own share of [`LlmClient::backend_stats`]: what its flight
    /// has done on each backend of the pool, in routing order (see
    /// [`crate::CallMachine::backend_receipts`]). Readable at any time — a
    /// call dropped mid-flight has paid for its attempts all the same.
    pub fn backend_receipts(&self, visit: &mut dyn FnMut(&str, &BackendReceipt)) {
        if let Some(handle) = &self.handle {
            handle.backend_receipts(visit);
        }
    }

    /// Block the calling thread until the call resolves, admitting its
    /// dispatch unconditionally — for callers with no event loop and no
    /// slot pool. Such a caller owns its answer: the text is copied only if
    /// a cache entry or a follower still shares it.
    pub fn wait(mut self) -> Result<CompletionResponse> {
        let mut grant = || Some(Box::new(()) as Box<dyn std::any::Any + Send>);
        block_on(|now| {
            self.poll(now, &mut grant)
                .ok_or_else(|| self.next_wakeup(now))
        })
        .map(Arc::unwrap_or_clone)
    }
}

/// Run `step` until it yields a value. Each call either finishes (`Ok`) or
/// reports when polling can next make progress (`Err(wakeup)`; `None` means
/// when another thread unparks this one); the thread parks on the clock
/// until then. This is how [`ClientCall::wait`] and [`CallHandle::wait`]
/// block.
pub(crate) fn block_on<T>(
    mut step: impl FnMut(Instant) -> std::result::Result<T, Option<Instant>>,
) -> T {
    loop {
        let now = clock::now();
        match step(now) {
            Ok(value) => return value,
            Err(wakeup) => clock::park_until(wakeup),
        }
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crate::tokenizer::count_tokens;
    use parking_lot::Mutex;

    /// A model that echoes a canned response and counts invocations.
    pub struct CannedModel {
        pub response: String,
        pub calls: Mutex<usize>,
    }

    impl CannedModel {
        pub fn new(response: &str) -> Self {
            CannedModel {
                response: response.to_string(),
                calls: Mutex::new(0),
            }
        }
    }

    impl LanguageModel for CannedModel {
        fn name(&self) -> String {
            "canned".to_string()
        }

        fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse> {
            *self.calls.lock() += 1;
            Ok(CompletionResponse {
                text: self.response.clone(),
                prompt_tokens: count_tokens(&request.prompt),
                completion_tokens: count_tokens(&self.response),
                latency_ms: 10.0,
                cost_usd: 0.001,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::CannedModel;
    use super::*;

    #[test]
    fn client_tracks_usage() {
        let model = Arc::new(CannedModel::new("Paris"));
        let client = LlmClient::without_cache(model.clone());
        let req = CompletionRequest::new("What is the capital of France?");
        let resp = client.complete(&req).unwrap();
        assert_eq!(resp.text, "Paris");
        let resp2 = client.complete(&req).unwrap();
        assert_eq!(resp2.text, "Paris");
        let usage = client.usage();
        assert_eq!(usage.calls, 2);
        assert_eq!(usage.cache_hits, 0);
        assert!(usage.prompt_tokens > 0);
        assert_eq!(*model.calls.lock(), 2);
    }

    #[test]
    fn cache_avoids_repeat_calls() {
        let model = Arc::new(CannedModel::new("42"));
        let client = LlmClient::new(model.clone());
        let req = CompletionRequest::new("same prompt");
        client.complete(&req).unwrap();
        client.complete(&req).unwrap();
        client.complete(&req).unwrap();
        assert_eq!(*model.calls.lock(), 1);
        let usage = client.usage();
        assert_eq!(usage.calls, 1);
        assert_eq!(usage.cache_hits, 2);
        client.clear_cache();
        client.complete(&req).unwrap();
        assert_eq!(*model.calls.lock(), 2, "a cleared cache still answered");
    }

    #[test]
    fn a_led_miss_is_counted_once() {
        // A miss goes on to claim leadership and re-checks the cache under
        // the claim; that second look must not count as a second miss.
        const PROMPTS: u64 = 7;
        let cache = Arc::new(PromptCache::new());
        let client =
            LlmClient::with_shared_cache(Arc::new(CannedModel::new("x")), Arc::clone(&cache));
        let pass = || {
            for i in 0..PROMPTS {
                let request = CompletionRequest::new(format!("prompt {i}"));
                client.complete(&request).unwrap();
            }
        };
        pass();
        assert_eq!(cache.stats(), (0, PROMPTS), "cold pass");
        pass();
        assert_eq!(cache.stats(), (PROMPTS, PROMPTS), "warm pass");
        assert_eq!(client.usage().calls, PROMPTS);
        assert_eq!(client.usage().cache_hits, PROMPTS);
    }

    #[test]
    fn concurrent_identical_prompts_are_single_flight() {
        // A slow model: 8 threads racing on one prompt must produce exactly
        // one model call; the rest follow the leader's flight (or, arriving
        // after it landed, hit the cache).
        struct SlowModel {
            calls: Mutex<usize>,
        }
        impl LanguageModel for SlowModel {
            fn name(&self) -> String {
                "slow".into()
            }
            fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse> {
                *self.calls.lock() += 1;
                std::thread::sleep(std::time::Duration::from_millis(30));
                Ok(CompletionResponse {
                    text: "r".into(),
                    prompt_tokens: count_tokens(&request.prompt),
                    completion_tokens: 1,
                    latency_ms: 1.0,
                    cost_usd: 0.001,
                })
            }
        }
        let model = Arc::new(SlowModel {
            calls: Mutex::new(0),
        });
        let client = LlmClient::new(model.clone());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let client = client.clone();
                scope.spawn(move || {
                    client
                        .complete(&CompletionRequest::new("same prompt"))
                        .unwrap()
                });
            }
        });
        assert_eq!(*model.calls.lock(), 1, "model called more than once");
        let usage = client.usage();
        assert_eq!(usage.calls, 1);
        let followers = client.coalescer().unwrap().stats().followers_served;
        assert_eq!(usage.cache_hits + followers, 7);
        assert_eq!(client.coalescer().unwrap().in_flight(), 0);
    }

    use crate::tokenizer::count_tokens;

    #[test]
    fn clones_share_state() {
        let client = LlmClient::new(Arc::new(CannedModel::new("x")));
        let clone = client.clone();
        clone.complete(&CompletionRequest::new("p")).unwrap();
        assert_eq!(client.usage().calls, 1);
    }

    #[test]
    fn request_builder() {
        let r = CompletionRequest::new("hi").with_max_tokens(16);
        assert_eq!(r.max_tokens, 16);
        assert_eq!(r.temperature, 0.0);
    }

    #[test]
    fn shared_cache_does_not_collide_across_model_configs() {
        // Regression: cache keys used to be the prompt text alone, so two
        // clients over *different* model configurations sharing a cache (or
        // a future cross-query cache) could serve each other's completions.
        struct NamedModel(&'static str);
        impl LanguageModel for NamedModel {
            fn name(&self) -> String {
                self.0.to_string()
            }
            fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse> {
                Ok(CompletionResponse {
                    text: format!("{}-answer", self.0),
                    prompt_tokens: count_tokens(&request.prompt),
                    completion_tokens: 2,
                    latency_ms: 1.0,
                    cost_usd: 0.001,
                })
            }
        }
        let cache = Arc::new(PromptCache::new());
        let a = LlmClient::with_shared_cache(Arc::new(NamedModel("model-a")), Arc::clone(&cache));
        let b = LlmClient::with_shared_cache(Arc::new(NamedModel("model-b")), Arc::clone(&cache));
        let req = CompletionRequest::new("shared prompt");
        assert_eq!(a.complete(&req).unwrap().text, "model-a-answer");
        assert_eq!(b.complete(&req).unwrap().text, "model-b-answer");
        // Each client still hits its own entry on repeat.
        assert_eq!(a.complete(&req).unwrap().text, "model-a-answer");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn gate_is_only_invoked_on_real_dispatch() {
        // Cache hits and single-flight followers must not pay admission
        // (slot) costs: the gate fires exactly once per model call.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let model = Arc::new(CannedModel::new("x"));
        let client = LlmClient::new(model.clone());
        let gates = AtomicUsize::new(0);
        for _ in 0..3 {
            let mut call = client.start_call(CompletionRequest::new("p"));
            let mut gate = || {
                // ordering: Relaxed — single-threaded test counter.
                gates.fetch_add(1, Ordering::Relaxed);
                Some(Box::new(()) as Box<dyn std::any::Any + Send>)
            };
            let resp = loop {
                if let Some(result) = call.poll(Instant::now(), &mut gate) {
                    break result.unwrap();
                }
            };
            assert_eq!(resp.text, "x");
        }
        assert_eq!(*model.calls.lock(), 1);
        assert_eq!(
            // ordering: Relaxed — single-threaded test counter.
            gates.load(Ordering::Relaxed),
            1,
            "cache hits must bypass the gate"
        );
        assert_eq!(client.usage().cache_hits, 2);

        // Single-flight: 8 threads race one slow prompt; only the leader
        // gates.
        struct SlowModel;
        impl LanguageModel for SlowModel {
            fn name(&self) -> String {
                "slow".into()
            }
            fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse> {
                std::thread::sleep(std::time::Duration::from_millis(20));
                Ok(CompletionResponse {
                    text: "r".into(),
                    prompt_tokens: count_tokens(&request.prompt),
                    completion_tokens: 1,
                    latency_ms: 1.0,
                    cost_usd: 0.001,
                })
            }
        }
        let client = LlmClient::new(Arc::new(SlowModel));
        let gates = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let client = client.clone();
                let gates = &gates;
                scope.spawn(move || {
                    let mut call = client.start_call(CompletionRequest::new("same"));
                    let mut gate = || {
                        // ordering: Relaxed — test counter; the scope join
                        // publishes the total to the assert below.
                        gates.fetch_add(1, Ordering::Relaxed);
                        Some(Box::new(()) as Box<dyn std::any::Any + Send>)
                    };
                    loop {
                        if let Some(result) = call.poll(Instant::now(), &mut gate) {
                            break result.unwrap();
                        }
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                });
            }
        });
        assert_eq!(
            // ordering: Relaxed — read after scope join; join synchronizes.
            gates.load(Ordering::Relaxed),
            1,
            "single-flight followers must bypass the gate"
        );
    }

    #[test]
    fn client_call_single_flight_followers_park_and_take_the_leaders_result() {
        let model = Arc::new(CannedModel::new("x"));
        let client = LlmClient::new(model.clone());
        let mut deny = || None;
        let mut grant = || Some(Box::new(()) as Box<dyn std::any::Any + Send>);

        // Leader claims but is parked by a denying gate.
        let mut leader = client.start_call(CompletionRequest::new("same"));
        assert!(leader.poll(Instant::now(), &mut deny).is_none());
        // A second call for the same prompt becomes a follower: polling it
        // (even with a granting gate) must NOT dispatch a duplicate.
        let mut follower = client.start_call(CompletionRequest::new("same"));
        assert!(follower.poll(Instant::now(), &mut grant).is_none());
        assert_eq!(*model.calls.lock(), 0);
        // Leader gets capacity and resolves; the follower takes its result
        // without a model call or a gate consultation.
        leader.poll(Instant::now(), &mut grant).unwrap().unwrap();
        let resp = follower.poll(Instant::now(), &mut deny).unwrap().unwrap();
        assert_eq!(resp.text, "x");
        assert!(follower.coalesced());
        assert_eq!(*model.calls.lock(), 1, "follower dispatched a duplicate");
        assert_eq!(client.usage().calls, 1, "only the leader pays");
    }

    #[test]
    fn one_answer_is_allocated_once_and_shared_by_everyone_who_reads_it() {
        let model = Arc::new(CannedModel::new("x"));
        let client = LlmClient::new(model.clone());
        let request = CompletionRequest::new("same");
        let mut deny = || None;
        let mut grant = || Some(Box::new(()) as Box<dyn std::any::Any + Send>);

        let mut leader = client.start_call(request.clone());
        assert!(leader.poll(Instant::now(), &mut deny).is_none());
        let mut followers: Vec<ClientCall> =
            (0..3).map(|_| client.start_call(request.clone())).collect();
        for follower in &mut followers {
            assert!(follower.poll(Instant::now(), &mut deny).is_none());
        }
        let led = leader.poll(Instant::now(), &mut grant).unwrap().unwrap();
        let cache = client.cache.as_ref().unwrap();
        let entry = cache.peek(&client.request_key(&request)).unwrap();
        assert!(Arc::ptr_eq(&led, &entry), "the cache holds a copy");
        for follower in &mut followers {
            let followed = follower.poll(Instant::now(), &mut deny).unwrap().unwrap();
            assert!(Arc::ptr_eq(&followed, &led), "a follower was handed a copy");
        }
        // The followers' own cache writes stored the same allocation again.
        drop(entry);
        let entry = cache.peek(&client.request_key(&request)).unwrap();
        assert!(Arc::ptr_eq(&led, &entry));
        let hit = client
            .start_call(request.clone())
            .poll(Instant::now(), &mut deny)
            .unwrap()
            .unwrap();
        assert!(Arc::ptr_eq(&hit, &entry), "a hit copied the entry");
        assert_eq!(*model.calls.lock(), 1);

        // An answer lives as long as whoever reads it, not as long as its
        // entry; a caller with no event loop gets one of its own.
        client.clear_cache();
        assert_eq!(hit.text, "x");
        drop((led, entry));
        assert_eq!(Arc::strong_count(&hit), 1);
        assert_eq!(client.complete(&request).unwrap(), *hit);
        assert_eq!(*model.calls.lock(), 2, "a cleared cache still answered");
    }

    #[test]
    fn dropping_a_parked_leader_frees_its_followers() {
        // Cancellation safety: a leader abandoned mid-flight (deadline fired,
        // wave dropped) must release single-flight leadership so a follower
        // can become the new leader instead of waiting forever.
        let model = Arc::new(CannedModel::new("x"));
        let client = LlmClient::new(model.clone());
        let mut deny = || None;

        let mut leader = client.start_call(CompletionRequest::new("same"));
        assert!(leader.poll(Instant::now(), &mut deny).is_none());
        let mut follower = client.start_call(CompletionRequest::new("same"));
        assert!(follower.poll(Instant::now(), &mut deny).is_none());
        drop(leader); // cancelled — e.g. its wave hit the query deadline
        let resp = follower.wait().unwrap();
        assert_eq!(resp.text, "x");
        assert_eq!(*model.calls.lock(), 1);
    }

    #[test]
    fn coalescer_fans_one_flight_out_across_clients() {
        // Two *distinct* clients (cache off, so neither has a table of its
        // own) over one model and one coalescer: the first call leads and
        // pays; an identical concurrent call from the other client follows
        // and resolves from the fan-out with zero physical calls.
        let model = Arc::new(CannedModel::new("x"));
        let co = Arc::new(PromptCoalescer::new());
        let mut a = LlmClient::without_cache(model.clone());
        a.set_coalescer(Arc::clone(&co));
        let mut b = LlmClient::without_cache(model.clone());
        b.set_coalescer(Arc::clone(&co));

        let mut deny = || None;
        let mut grant = || Some(Box::new(()) as Box<dyn std::any::Any + Send>);
        let mut leader = a.start_call(CompletionRequest::new("same"));
        assert!(leader.poll(Instant::now(), &mut deny).is_none());
        let mut follower = b.start_call(CompletionRequest::new("same"));
        // Even with a granting gate, the follower must not dispatch.
        assert!(follower.poll(Instant::now(), &mut grant).is_none());
        assert_eq!(*model.calls.lock(), 0);

        leader.poll(Instant::now(), &mut grant).unwrap().unwrap();
        let resp = loop {
            if let Some(result) = follower.poll(Instant::now(), &mut grant) {
                break result.unwrap();
            }
        };
        assert_eq!(resp.text, "x");
        assert!(follower.coalesced());
        assert!(!leader.coalesced());
        assert_eq!(*model.calls.lock(), 1, "follower issued a physical call");
        assert_eq!(a.usage().calls, 1, "leader records its physical call");
        assert_eq!(b.usage().calls, 0, "follower records no physical call");
    }

    #[test]
    fn coalesce_followers_reclaim_after_a_dropped_leader() {
        let model = Arc::new(CannedModel::new("x"));
        let co = Arc::new(PromptCoalescer::new());
        let mut a = LlmClient::without_cache(model.clone());
        a.set_coalescer(Arc::clone(&co));
        let mut b = LlmClient::without_cache(model.clone());
        b.set_coalescer(Arc::clone(&co));

        let mut deny = || None;
        let mut grant = || Some(Box::new(()) as Box<dyn std::any::Any + Send>);
        let mut leader = a.start_call(CompletionRequest::new("same"));
        assert!(leader.poll(Instant::now(), &mut deny).is_none());
        let mut follower = b.start_call(CompletionRequest::new("same"));
        assert!(follower.poll(Instant::now(), &mut grant).is_none());
        drop(leader); // cancelled mid-flight (deadline, wave dropped, ...)
        let resp = loop {
            if let Some(result) = follower.poll(Instant::now(), &mut grant) {
                break result.unwrap();
            }
        };
        assert_eq!(resp.text, "x");
        assert!(!follower.coalesced(), "reclaimed flights are not coalesced");
        assert_eq!(*model.calls.lock(), 1);
        assert_eq!(b.usage().calls, 1, "new leader pays for its own flight");
    }

    #[test]
    fn request_params_are_part_of_the_cache_key() {
        // The same prompt at different max_tokens can produce different
        // (truncated) completions — those must not share a cache slot.
        let client = LlmClient::new(Arc::new(CannedModel::new("x")));
        for _ in 0..2 {
            for max_tokens in [8, 2048] {
                client
                    .complete(&CompletionRequest::new("p").with_max_tokens(max_tokens))
                    .unwrap();
            }
        }
        // Both completions were cached, each under its own key.
        let usage = client.usage();
        assert_eq!(usage.calls, 2, "different max_tokens collided");
        assert_eq!(usage.cache_hits, 2);
    }

    /// A model that knows one relation's size and counts how often it is
    /// asked for any.
    struct Census {
        asks: Mutex<usize>,
    }

    impl LanguageModel for Census {
        fn name(&self) -> String {
            "census".to_string()
        }
        fn complete(&self, _: &CompletionRequest) -> Result<CompletionResponse> {
            Err(llmsql_types::Error::llm("not under test"))
        }
        fn relation_cardinality(&self, table: &str) -> Option<u64> {
            *self.asks.lock() += 1;
            (table == "towns").then_some(37)
        }
    }

    #[test]
    fn a_cardinality_is_asked_for_once_by_a_client_and_all_its_clones() {
        const THREADS: usize = 8;
        let model = Arc::new(Census {
            asks: Mutex::new(0),
        });
        let client = LlmClient::new(Arc::clone(&model) as Arc<dyn LanguageModel>);
        // Every thread's first ask races the others'.
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let client = client.clone();
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..50 {
                        assert_eq!(client.relation_cardinality("towns"), Some(37));
                    }
                });
            }
        });
        assert_eq!(*model.asks.lock(), 1);
        // "No hint" is an answer too, and held like one.
        assert_eq!(client.relation_cardinality("rivers"), None);
        assert_eq!(client.clone().relation_cardinality("rivers"), None);
        assert_eq!(*model.asks.lock(), 2);
        // Another client over the same model starts with nothing.
        let other = LlmClient::without_cache(Arc::clone(&model) as Arc<dyn LanguageModel>);
        assert_eq!(other.relation_cardinality("towns"), Some(37));
        assert_eq!(*model.asks.lock(), 3);
    }
}
