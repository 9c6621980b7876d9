//! Engine-wide configuration: execution modes, prompting strategies, and the
//! fidelity model of the simulated language model.

use std::fmt;

use crate::chaos::ChaosPlan;
use crate::error::{Error, Result};

/// How queries are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecutionMode {
    /// Classic execution against the relational store only.
    Traditional,
    /// Every base relation is virtual; all data comes from the language model.
    #[default]
    LlmOnly,
    /// Base relations live in the store but may have gaps (NULLs / missing
    /// rows) that the language model fills at query time.
    Hybrid,
}

impl fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ExecutionMode::Traditional => "traditional",
            ExecutionMode::LlmOnly => "llm-only",
            ExecutionMode::Hybrid => "hybrid",
        };
        write!(f, "{s}")
    }
}

/// How the engine turns relational requests into prompts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PromptStrategy {
    /// The whole SQL statement is sent as a single prompt and the completion
    /// is parsed as the final result table. Cheapest, least reliable.
    FullQuery,
    /// Rows are requested in pages of `batch_size` per prompt; predicates and
    /// projections are pushed into the prompt. The paper-style default.
    #[default]
    BatchedRows,
    /// The engine first enumerates entity keys, then issues one prompt per
    /// tuple (or per attribute). Most calls, highest precision.
    TupleAtATime,
    /// The plan runs operator-at-a-time: scans, filters and joins each map to
    /// dedicated prompts over intermediate results.
    DecomposedOperators,
}

impl PromptStrategy {
    /// All strategies, for sweeps.
    pub const ALL: [PromptStrategy; 4] = [
        PromptStrategy::FullQuery,
        PromptStrategy::BatchedRows,
        PromptStrategy::TupleAtATime,
        PromptStrategy::DecomposedOperators,
    ];

    /// Short label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            PromptStrategy::FullQuery => "full-query",
            PromptStrategy::BatchedRows => "batched-rows",
            PromptStrategy::TupleAtATime => "tuple-at-a-time",
            PromptStrategy::DecomposedOperators => "decomposed-ops",
        }
    }
}

impl fmt::Display for PromptStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// How the backend pool picks the endpoint serving the next LLM request.
///
/// Routing never changes query *results*: every backend of a pool must be
/// semantically identical (same completion text for the same prompt), so the
/// policy only shifts latency, load distribution and spend.
///
/// With hedging off ([`EngineConfig::hedge_multiplier`] `== 0`) the policy
/// orders the whole candidate walk; with hedging on, failover and the hedge
/// go by the pool's health order, and `LatencyAware` is that order either
/// way. The order is stated once, in the module docs of the `llmsql-llm`
/// crate's `backend/call.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoutingPolicy {
    /// Rotate through the backends in registration order.
    #[default]
    RoundRobin,
    /// Prefer the backend with the fewest requests currently in flight
    /// (ties broken by registration order).
    LeastInFlight,
    /// Prefer the backend with the cheapest per-token pricing (ties broken by
    /// registration order); more expensive backends only serve failover
    /// traffic.
    CostAware,
    /// Start the candidate walk at `hash(prompt) % pool_size`: the backend
    /// serving each prompt is a pure function of the prompt text, so with
    /// hedging off the *physical* per-backend trace is reproducible at any
    /// parallelism — round robin's cursor advances in request-arrival order,
    /// which thread interleaving scrambles; a prompt hash does not. With
    /// hedging on, the walk depends on measured timing: failover and the
    /// hedge go by health, and a primary the pool expects to be late does
    /// not launch first.
    PromptHash,
    /// Walk the backends in the pool's health order, hedging or not: a cold
    /// pool explores every member once, then the shortest expected time to
    /// a success — measured latency and failure share both — goes first
    /// (the order is stated in the module docs of `backend/call.rs`).
    LatencyAware,
}

impl RoutingPolicy {
    /// All policies, for sweeps.
    pub const ALL: [RoutingPolicy; 5] = [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::LeastInFlight,
        RoutingPolicy::CostAware,
        RoutingPolicy::PromptHash,
        RoutingPolicy::LatencyAware,
    ];

    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            RoutingPolicy::RoundRobin => "round-robin",
            RoutingPolicy::LeastInFlight => "least-in-flight",
            RoutingPolicy::CostAware => "cost-aware",
            RoutingPolicy::PromptHash => "prompt-hash",
            RoutingPolicy::LatencyAware => "latency-aware",
        }
    }
}

impl fmt::Display for RoutingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Declarative description of one LLM endpoint in a multi-backend deployment.
///
/// The engine turns each spec into a deterministic "remote-like" backend
/// wrapping the attached model: same completions, but with the spec's own
/// latency, failure behaviour and pricing. See `llmsql_llm::backend` for the
/// runtime contract.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendSpec {
    /// Unique backend name (shows up in per-backend metrics).
    pub name: String,
    /// Simulated network round-trip per request, in milliseconds.
    pub latency_ms: f64,
    /// Probability in [0, 1] that one attempt on this backend fails with a
    /// transient error (deterministic per `(backend, prompt, attempt)`).
    /// `1.0` means the backend is hard down and every attempt fails.
    pub error_rate: f64,
    /// Per-backend pricing and latency model.
    pub cost_model: LlmCostModel,
}

impl BackendSpec {
    /// A healthy backend with default pricing and no extra latency.
    pub fn new(name: impl Into<String>) -> Self {
        BackendSpec {
            name: name.into(),
            latency_ms: 0.0,
            error_rate: 0.0,
            cost_model: LlmCostModel::default(),
        }
    }

    /// Builder-style: set the simulated per-request latency.
    pub fn with_latency_ms(mut self, latency_ms: f64) -> Self {
        self.latency_ms = latency_ms;
        self
    }

    /// Builder-style: set the per-attempt transient error probability.
    pub fn with_error_rate(mut self, error_rate: f64) -> Self {
        self.error_rate = error_rate;
        self
    }

    /// Builder-style: mark the backend as hard down (every attempt fails).
    pub fn failing(self) -> Self {
        self.with_error_rate(1.0)
    }

    /// Builder-style: set the per-backend pricing model.
    pub fn with_cost_model(mut self, cost_model: LlmCostModel) -> Self {
        self.cost_model = cost_model;
        self
    }

    /// Validate the spec.
    pub fn validate(&self) -> Result<()> {
        if self.name.is_empty() {
            return Err(Error::config("backend name must not be empty"));
        }
        if !(0.0..=1.0).contains(&self.error_rate) || self.error_rate.is_nan() {
            return Err(Error::config(format!(
                "backend '{}' error_rate must be in [0,1], got {}",
                self.name, self.error_rate
            )));
        }
        if !self.latency_ms.is_finite() || self.latency_ms < 0.0 {
            return Err(Error::config(format!(
                "backend '{}' latency_ms must be finite and non-negative",
                self.name
            )));
        }
        Ok(())
    }
}

/// The fidelity model of the simulated language model: what fraction of facts
/// it recalls, how often it fabricates, and how noisy its formatting is.
///
/// These knobs stand in for "model quality" (GPT-3.5 vs GPT-4 vs a small open
/// model) in the paper's evaluation and let the experiments sweep model
/// quality reproducibly and offline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LlmFidelity {
    /// Probability that a fact present in the world is recalled correctly.
    pub recall: f64,
    /// Probability that a requested-but-unknown (or dropped) fact is replaced
    /// by a fabricated, plausible-looking value instead of being omitted.
    pub hallucination: f64,
    /// Probability that a recalled value is corrupted (off-by-some numeric
    /// error, misspelling, stale value).
    pub value_noise: f64,
    /// Probability that a structured response line violates the requested
    /// format (and may be dropped by the parser).
    pub format_noise: f64,
    /// Fraction of the entity population the model can enumerate when asked to
    /// list entities (coverage of the "long tail").
    pub enumeration_coverage: f64,
}

impl LlmFidelity {
    /// A perfect oracle: recalls everything, never fabricates. Useful for
    /// differential testing (LlmOnly at `perfect()` must match Traditional).
    pub fn perfect() -> Self {
        LlmFidelity {
            recall: 1.0,
            hallucination: 0.0,
            value_noise: 0.0,
            format_noise: 0.0,
            enumeration_coverage: 1.0,
        }
    }

    /// Default fidelity approximating a strong commercial model on
    /// head-entity factual queries.
    pub fn strong() -> Self {
        LlmFidelity {
            recall: 0.92,
            hallucination: 0.05,
            value_noise: 0.06,
            format_noise: 0.03,
            enumeration_coverage: 0.90,
        }
    }

    /// Fidelity approximating a mid-size open model.
    pub fn medium() -> Self {
        LlmFidelity {
            recall: 0.78,
            hallucination: 0.12,
            value_noise: 0.15,
            format_noise: 0.08,
            enumeration_coverage: 0.72,
        }
    }

    /// Fidelity approximating a small local model.
    pub fn weak() -> Self {
        LlmFidelity {
            recall: 0.55,
            hallucination: 0.25,
            value_noise: 0.28,
            format_noise: 0.18,
            enumeration_coverage: 0.50,
        }
    }

    /// Linear interpolation between [`weak`](Self::weak) (q = 0) and
    /// [`perfect`](Self::perfect) (q = 1); used for model-quality sweeps.
    pub fn from_quality(q: f64) -> Self {
        let q = q.clamp(0.0, 1.0);
        let lerp = |lo: f64, hi: f64| lo + (hi - lo) * q;
        let weak = Self::weak();
        let perfect = Self::perfect();
        LlmFidelity {
            recall: lerp(weak.recall, perfect.recall),
            hallucination: lerp(weak.hallucination, perfect.hallucination),
            value_noise: lerp(weak.value_noise, perfect.value_noise),
            format_noise: lerp(weak.format_noise, perfect.format_noise),
            enumeration_coverage: lerp(weak.enumeration_coverage, perfect.enumeration_coverage),
        }
    }

    /// Validate that every probability lies in [0, 1].
    pub fn validate(&self) -> Result<()> {
        for (name, v) in [
            ("recall", self.recall),
            ("hallucination", self.hallucination),
            ("value_noise", self.value_noise),
            ("format_noise", self.format_noise),
            ("enumeration_coverage", self.enumeration_coverage),
        ] {
            if !(0.0..=1.0).contains(&v) || v.is_nan() {
                return Err(Error::config(format!(
                    "fidelity parameter '{name}' must be in [0,1], got {v}"
                )));
            }
        }
        Ok(())
    }
}

impl Default for LlmFidelity {
    fn default() -> Self {
        LlmFidelity::strong()
    }
}

/// Pricing and latency model of the (simulated) model endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LlmCostModel {
    /// Dollars per 1000 prompt tokens.
    pub usd_per_1k_prompt_tokens: f64,
    /// Dollars per 1000 completion tokens.
    pub usd_per_1k_completion_tokens: f64,
    /// Fixed per-request latency in milliseconds (network + queuing).
    pub request_latency_ms: f64,
    /// Additional latency per generated completion token, in milliseconds.
    pub per_token_latency_ms: f64,
}

impl Default for LlmCostModel {
    fn default() -> Self {
        // Ballpark of 2023-era commercial pricing; the absolute numbers only
        // matter for relative comparisons between strategies.
        LlmCostModel {
            usd_per_1k_prompt_tokens: 0.003,
            usd_per_1k_completion_tokens: 0.006,
            request_latency_ms: 350.0,
            per_token_latency_ms: 25.0,
        }
    }
}

impl LlmCostModel {
    /// Cost in dollars of a single request.
    pub fn request_cost_usd(&self, prompt_tokens: usize, completion_tokens: usize) -> f64 {
        prompt_tokens as f64 / 1000.0 * self.usd_per_1k_prompt_tokens
            + completion_tokens as f64 / 1000.0 * self.usd_per_1k_completion_tokens
    }

    /// Simulated latency in milliseconds of a single request.
    pub fn request_latency_ms(&self, completion_tokens: usize) -> f64 {
        self.request_latency_ms + completion_tokens as f64 * self.per_token_latency_ms
    }
}

/// Which optimizer rewrite rules run; one switch per rule in the registry
/// (`llmsql_plan::rules`). The ablation experiment (E9) measures each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizerOptions {
    /// Fold literal-only subexpressions at plan time.
    pub constant_folding: bool,
    /// Push filters into scans (and through joins).
    pub predicate_pushdown: bool,
    /// Push LIMIT into scans when order-insensitive.
    pub limit_pushdown: bool,
    /// Reorder AND-ed conjuncts by estimated selectivity and cost.
    pub conjunct_reordering: bool,
    /// Prune unused columns from LLM scans.
    pub projection_pruning: bool,
}

impl Default for OptimizerOptions {
    fn default() -> Self {
        OptimizerOptions {
            constant_folding: true,
            predicate_pushdown: true,
            limit_pushdown: true,
            conjunct_reordering: true,
            projection_pruning: true,
        }
    }
}

impl OptimizerOptions {
    /// All rules disabled (the ablation baseline).
    pub fn disabled() -> Self {
        OptimizerOptions {
            constant_folding: false,
            predicate_pushdown: false,
            limit_pushdown: false,
            conjunct_reordering: false,
            projection_pruning: false,
        }
    }
}

/// Top-level engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Execution mode.
    pub mode: ExecutionMode,
    /// Prompting strategy for LLM-backed operators.
    pub strategy: PromptStrategy,
    /// Fidelity of the simulated model.
    pub fidelity: LlmFidelity,
    /// Cost/latency model of the endpoint.
    pub cost_model: LlmCostModel,
    /// Page size for [`PromptStrategy::BatchedRows`].
    pub batch_size: usize,
    /// Tuple batching: how many per-tuple prompts (lookups, filter checks)
    /// may be packed into one physical LLM call where the scan strategy
    /// allows. A packed request states what its prompts share — the task
    /// header, the relation's context, the instructions — once, with one
    /// `key:` line per prompt, so its prompt tokens grow by a key per member
    /// rather than by a whole prompt. The structured answer is split back
    /// per tuple, so rows and *logical* call counts are byte-identical at
    /// any setting — only the physical call count and the tokens (and
    /// therefore cost) change. `1` (the default) disables packing and
    /// preserves the one-prompt-per-call trace.
    pub batch_rows_per_call: usize,
    /// Hard cap on rows requested from a single virtual-table scan; protects
    /// against unbounded enumeration prompts.
    pub max_scan_rows: usize,
    /// Hard cap on LLM calls per query (budget guard).
    pub max_llm_calls: usize,
    /// Random seed driving the simulator's noise; fixed for reproducibility.
    pub seed: u64,
    /// The scan window: how many model requests one scan keeps in flight at
    /// once, and nothing else. No thread is spawned — the query's own thread
    /// holds the whole window on the reactor, and the relational operators
    /// above a scan run on that thread. `1` means one request at a time;
    /// results are identical at any setting because scans reassemble
    /// completions in page/tuple order and the simulator's noise is a pure
    /// function of `(seed, prompt)`.
    pub parallelism: usize,
    /// Multi-backend deployment: when non-empty, the attached model is served
    /// through a pool of these endpoints (with failover) instead of being
    /// called directly. Empty (the default) means a single direct backend.
    pub backends: Vec<BackendSpec>,
    /// How the backend pool routes requests when `backends` is non-empty.
    pub routing_policy: RoutingPolicy,
    /// Retries per backend before failing over to the next one (bounded
    /// retry: a request touches each candidate backend at most
    /// `1 + backend_retries` times).
    pub backend_retries: usize,
    /// Base of the exponential backoff between retry attempts, in
    /// milliseconds (doubled per attempt, capped internally).
    pub backend_backoff_ms: f64,
    /// Circuit breaker: consecutive failed attempts after which a backend is
    /// taken out of the routing rotation ("open"). `0` (the default)
    /// disables the breaker, preserving PR 2's always-attempt behaviour.
    pub breaker_threshold: usize,
    /// Circuit breaker: how long an opened backend stays out of rotation
    /// before one half-open probe request is allowed through, milliseconds.
    pub breaker_cooldown_ms: f64,
    /// Hedged requests: once a dispatched request has been in flight longer
    /// than `hedge_multiplier` times the pool's lowest per-backend latency
    /// EWMA (but at least [`EngineConfig::hedge_min_ms`]), one duplicate of
    /// it is issued to the next healthy backend of its walk and the first
    /// success wins. `0.0` (the default) disables hedging; values >= 1.0 set
    /// the lateness threshold as a multiple of the expected latency (2.0 ~
    /// "tail beyond twice the typical request"). With hedging on, every
    /// policy's walk goes by the pool's health order, trading physical-trace
    /// reproducibility for latency (see [`RoutingPolicy`]). The backend pool
    /// is the one hedging layer — every request through it arms a hedge
    /// timer — so without [`EngineConfig::backends`] this has no effect.
    pub hedge_multiplier: f64,
    /// Hedged requests: floor on the lateness threshold, milliseconds, so a
    /// near-zero EWMA cannot make every request look late.
    pub hedge_min_ms: f64,
    /// Per-query wall-clock deadline, milliseconds. Scans check it before
    /// every request, and the requests in flight (the one-shot full-query
    /// prompt included) are cancelled when it fires; either way
    /// the query fails with [`crate::ErrorKind::DeadlineExceeded`] (carrying
    /// elapsed time and calls issued so far). `None` (the default) means no
    /// deadline.
    pub deadline_ms: Option<f64>,
    /// Graceful degradation: when enabled, an LLM-backed scan (any prompt
    /// strategy, and the hybrid fill) cut short by a lapsed deadline or a
    /// backend-layer failure returns the rows it already paid for in full —
    /// those for which every prompt the strategy needs was answered before
    /// the first failed one, an exact prefix of the full result in page,
    /// key or stored-row order — plus a structured [`crate::Incomplete`]
    /// marker in the execution metrics, instead of discarding the work with
    /// an error. A decomposed scan cut before its filter checks began
    /// delivers no rows. Off by default (failures stay failures).
    pub partial_results: bool,
    /// Deterministic fault injection: when set, every backend built from
    /// [`EngineConfig::backends`] consults this seeded [`ChaosPlan`] —
    /// outages, error bursts and latency storms replay identically run after
    /// run. `None` (the default) injects nothing. Test/benchmark harness
    /// knob; see [`crate::chaos`].
    pub chaos: Option<ChaosPlan>,
    /// Whether the prompt cache is enabled.
    pub enable_prompt_cache: bool,
    /// Which optimizer rules run. All by default; the ablation experiment
    /// turns rules off one at a time, and [`OptimizerOptions::disabled`] is
    /// "optimizer off".
    pub optimizer: OptimizerOptions,
    /// Per-query spend budget in dollars, checked *statically*: the plan
    /// analyzer flags (and `EXPLAIN` reports) any plan whose estimated LLM
    /// spend exceeds it. `None` (the default) means no budget — nothing is
    /// flagged. Advisory only; the hard runtime cap stays
    /// [`EngineConfig::max_llm_calls`].
    pub cost_budget_usd: Option<f64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mode: ExecutionMode::LlmOnly,
            strategy: PromptStrategy::BatchedRows,
            fidelity: LlmFidelity::default(),
            cost_model: LlmCostModel::default(),
            batch_size: 20,
            batch_rows_per_call: 1,
            max_scan_rows: 1000,
            max_llm_calls: 10_000,
            seed: 42,
            parallelism: 1,
            backends: Vec::new(),
            routing_policy: RoutingPolicy::RoundRobin,
            backend_retries: 1,
            backend_backoff_ms: 1.0,
            breaker_threshold: 0,
            breaker_cooldown_ms: 250.0,
            hedge_multiplier: 0.0,
            hedge_min_ms: 1.0,
            deadline_ms: None,
            partial_results: false,
            chaos: None,
            enable_prompt_cache: true,
            optimizer: OptimizerOptions::default(),
            cost_budget_usd: None,
        }
    }
}

impl EngineConfig {
    /// Builder-style: set the execution mode.
    pub fn with_mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }
    /// Builder-style: set the prompting strategy.
    pub fn with_strategy(mut self, strategy: PromptStrategy) -> Self {
        self.strategy = strategy;
        self
    }
    /// Builder-style: set the simulator fidelity.
    pub fn with_fidelity(mut self, fidelity: LlmFidelity) -> Self {
        self.fidelity = fidelity;
        self
    }
    /// Builder-style: set the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
    /// Builder-style: set the batched-rows page size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }
    /// Builder-style: set how many per-tuple prompts may be packed into one
    /// physical LLM call (see [`EngineConfig::batch_rows_per_call`]).
    pub fn with_batch_rows_per_call(mut self, rows_per_call: usize) -> Self {
        self.batch_rows_per_call = rows_per_call;
        self
    }
    /// Builder-style: set how many model requests one scan keeps in flight
    /// (see [`EngineConfig::parallelism`]).
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self
    }
    /// Builder-style: serve the attached model through a pool of backends
    /// (with failover) instead of calling it directly.
    pub fn with_backends(mut self, backends: Vec<BackendSpec>) -> Self {
        self.backends = backends;
        self
    }
    /// Builder-style: set the backend-pool routing policy.
    pub fn with_routing_policy(mut self, policy: RoutingPolicy) -> Self {
        self.routing_policy = policy;
        self
    }
    /// Builder-style: enable the backend circuit breaker — a backend is
    /// taken out of rotation after `threshold` consecutive failed attempts
    /// and probed again after `cooldown_ms` (see
    /// [`EngineConfig::breaker_threshold`]).
    pub fn with_circuit_breaker(mut self, threshold: usize, cooldown_ms: f64) -> Self {
        self.breaker_threshold = threshold;
        self.breaker_cooldown_ms = cooldown_ms;
        self
    }
    /// Builder-style: enable hedged requests — duplicate a request to a
    /// second backend once it has been in flight longer than `multiplier`
    /// times the pool's lowest latency EWMA (floored at `min_ms`), taking
    /// the first success (see [`EngineConfig::hedge_multiplier`]).
    pub fn with_hedging(mut self, multiplier: f64, min_ms: f64) -> Self {
        self.hedge_multiplier = multiplier;
        self.hedge_min_ms = min_ms;
        self
    }
    /// Builder-style: set the per-query wall-clock deadline in milliseconds
    /// (see [`EngineConfig::deadline_ms`]).
    pub fn with_deadline_ms(mut self, deadline_ms: f64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }
    /// Builder-style: opt in to partial results under faults (see
    /// [`EngineConfig::partial_results`]).
    pub fn with_partial_results(mut self) -> Self {
        self.partial_results = true;
        self
    }
    /// Builder-style: inject a deterministic chaos plan into every backend
    /// (see [`EngineConfig::chaos`]).
    pub fn with_chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }
    /// Builder-style: set the advisory per-query spend budget in dollars
    /// (see [`EngineConfig::cost_budget_usd`]).
    pub fn with_cost_budget_usd(mut self, budget_usd: f64) -> Self {
        self.cost_budget_usd = Some(budget_usd);
        self
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        self.fidelity.validate()?;
        let mut names = std::collections::BTreeSet::new();
        for backend in &self.backends {
            backend.validate()?;
            if !names.insert(backend.name.as_str()) {
                return Err(Error::config(format!(
                    "duplicate backend name '{}'",
                    backend.name
                )));
            }
        }
        if !self.backend_backoff_ms.is_finite() || self.backend_backoff_ms < 0.0 {
            return Err(Error::config(
                "backend_backoff_ms must be finite and non-negative",
            ));
        }
        if !self.breaker_cooldown_ms.is_finite() || self.breaker_cooldown_ms < 0.0 {
            return Err(Error::config(
                "breaker_cooldown_ms must be finite and non-negative",
            ));
        }
        if self.hedge_multiplier != 0.0
            && (!self.hedge_multiplier.is_finite() || self.hedge_multiplier < 1.0)
        {
            return Err(Error::config(
                "hedge_multiplier must be 0 (disabled) or a finite value >= 1",
            ));
        }
        if !self.hedge_min_ms.is_finite() || self.hedge_min_ms < 0.0 {
            return Err(Error::config(
                "hedge_min_ms must be finite and non-negative",
            ));
        }
        if let Some(deadline_ms) = self.deadline_ms {
            if !deadline_ms.is_finite() || deadline_ms <= 0.0 {
                return Err(Error::config(
                    "deadline_ms must be finite and greater than zero",
                ));
            }
        }
        if let Some(chaos) = &self.chaos {
            chaos.validate()?;
        }
        if let Some(budget) = self.cost_budget_usd {
            if !budget.is_finite() || budget <= 0.0 {
                return Err(Error::config(
                    "cost_budget_usd must be finite and greater than zero",
                ));
            }
        }
        if self.batch_size == 0 {
            return Err(Error::config("batch_size must be at least 1"));
        }
        if self.batch_rows_per_call == 0 {
            return Err(Error::config("batch_rows_per_call must be at least 1"));
        }
        if self.max_scan_rows == 0 {
            return Err(Error::config("max_scan_rows must be at least 1"));
        }
        if self.max_llm_calls == 0 {
            return Err(Error::config("max_llm_calls must be at least 1"));
        }
        if self.parallelism == 0 {
            return Err(Error::config("parallelism must be at least 1"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing() {
        assert_eq!(ExecutionMode::Traditional.to_string(), "traditional");
        assert_eq!(ExecutionMode::LlmOnly.to_string(), "llm-only");
        assert_eq!(ExecutionMode::Hybrid.to_string(), "hybrid");
    }

    #[test]
    fn strategy_parsing_and_labels() {
        for s in PromptStrategy::ALL {
            assert_eq!(s.to_string(), s.label());
        }
        assert_eq!(PromptStrategy::TupleAtATime.label(), "tuple-at-a-time");
    }

    #[test]
    fn fidelity_presets_are_valid_and_ordered() {
        for f in [
            LlmFidelity::perfect(),
            LlmFidelity::strong(),
            LlmFidelity::medium(),
            LlmFidelity::weak(),
        ] {
            f.validate().unwrap();
        }
        assert!(LlmFidelity::perfect().recall > LlmFidelity::strong().recall);
        assert!(LlmFidelity::strong().recall > LlmFidelity::medium().recall);
        assert!(LlmFidelity::medium().recall > LlmFidelity::weak().recall);
        assert!(LlmFidelity::weak().hallucination > LlmFidelity::strong().hallucination);
    }

    #[test]
    fn fidelity_from_quality_interpolates() {
        let lo = LlmFidelity::from_quality(0.0);
        let hi = LlmFidelity::from_quality(1.0);
        assert!((lo.recall - LlmFidelity::weak().recall).abs() < 1e-9);
        assert!((hi.recall - 1.0).abs() < 1e-9);
        let mid = LlmFidelity::from_quality(0.5);
        assert!(mid.recall > lo.recall && mid.recall < hi.recall);
        // clamped
        assert_eq!(LlmFidelity::from_quality(7.0).recall, 1.0);
    }

    #[test]
    fn fidelity_validation_rejects_out_of_range() {
        let mut f = LlmFidelity {
            recall: 1.5,
            ..LlmFidelity::default()
        };
        assert!(f.validate().is_err());
        f.recall = f64::NAN;
        assert!(f.validate().is_err());
    }

    #[test]
    fn cost_model_math() {
        let m = LlmCostModel::default();
        let c = m.request_cost_usd(1000, 1000);
        assert!((c - 0.009).abs() < 1e-12);
        assert!(m.request_latency_ms(10) > m.request_latency_ms);
    }

    #[test]
    fn config_builder_and_validation() {
        let cfg = EngineConfig::default()
            .with_mode(ExecutionMode::Hybrid)
            .with_strategy(PromptStrategy::TupleAtATime)
            .with_seed(7)
            .with_batch_size(5)
            .with_parallelism(4);
        assert_eq!(cfg.mode, ExecutionMode::Hybrid);
        assert_eq!(cfg.strategy, PromptStrategy::TupleAtATime);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.parallelism, 4);
        cfg.validate().unwrap();

        let bad = EngineConfig::default().with_batch_size(0);
        assert!(bad.validate().is_err());
        let bad = EngineConfig::default().with_parallelism(0);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn parallelism_defaults_to_sequential() {
        assert_eq!(EngineConfig::default().parallelism, 1);
    }

    #[test]
    fn routing_policy_parsing_and_labels() {
        for p in RoutingPolicy::ALL {
            assert_eq!(p.to_string(), p.label());
        }
        assert_eq!(RoutingPolicy::default(), RoutingPolicy::RoundRobin);
    }

    #[test]
    fn backend_spec_builders_and_validation() {
        let spec = BackendSpec::new("edge-1")
            .with_latency_ms(5.0)
            .with_error_rate(0.25);
        assert_eq!(spec.name, "edge-1");
        assert_eq!(spec.latency_ms, 5.0);
        assert_eq!(spec.error_rate, 0.25);
        spec.validate().unwrap();
        assert_eq!(BackendSpec::new("down").failing().error_rate, 1.0);

        assert!(BackendSpec::new("").validate().is_err());
        assert!(BackendSpec::new("x")
            .with_error_rate(1.5)
            .validate()
            .is_err());
        assert!(BackendSpec::new("x")
            .with_latency_ms(-1.0)
            .validate()
            .is_err());
        assert!(BackendSpec::new("x")
            .with_latency_ms(f64::INFINITY)
            .validate()
            .is_err());
    }

    #[test]
    fn config_validates_backend_lists() {
        let good = EngineConfig::default()
            .with_backends(vec![BackendSpec::new("a"), BackendSpec::new("b").failing()])
            .with_routing_policy(RoutingPolicy::LeastInFlight);
        assert_eq!(good.backends.len(), 2);
        assert_eq!(good.routing_policy, RoutingPolicy::LeastInFlight);
        good.validate().unwrap();

        let dup = EngineConfig::default()
            .with_backends(vec![BackendSpec::new("a"), BackendSpec::new("a")]);
        assert!(dup.validate().is_err());

        let bad_rate = EngineConfig::default()
            .with_backends(vec![BackendSpec::new("a").with_error_rate(f64::NAN)]);
        assert!(bad_rate.validate().is_err());

        let bad_backoff = EngineConfig {
            backend_backoff_ms: -1.0,
            ..EngineConfig::default()
        };
        assert!(bad_backoff.validate().is_err());
    }

    #[test]
    fn hedging_and_deadline_config() {
        // Both off by default: PR 2/3 deployments keep their exact behaviour.
        let default = EngineConfig::default();
        assert_eq!(default.hedge_multiplier, 0.0);
        assert_eq!(default.deadline_ms, None);

        let cfg = EngineConfig::default()
            .with_hedging(2.0, 5.0)
            .with_deadline_ms(1500.0);
        assert_eq!(cfg.hedge_multiplier, 2.0);
        assert_eq!(cfg.hedge_min_ms, 5.0);
        assert_eq!(cfg.deadline_ms, Some(1500.0));
        cfg.validate().unwrap();

        // A sub-1 multiplier would hedge requests that are *faster* than
        // expected; reject it.
        assert!(EngineConfig::default()
            .with_hedging(0.5, 1.0)
            .validate()
            .is_err());
        assert!(EngineConfig::default()
            .with_hedging(f64::NAN, 1.0)
            .validate()
            .is_err());
        assert!(EngineConfig::default()
            .with_hedging(2.0, -1.0)
            .validate()
            .is_err());
        assert!(EngineConfig::default()
            .with_deadline_ms(0.0)
            .validate()
            .is_err());
        assert!(EngineConfig::default()
            .with_deadline_ms(f64::INFINITY)
            .validate()
            .is_err());
    }

    #[test]
    fn chaos_and_partial_results_config() {
        use crate::chaos::{ChaosFault, ChaosPlan};
        // Both off by default: existing deployments keep their behaviour.
        let default = EngineConfig::default();
        assert!(!default.partial_results);
        assert!(default.chaos.is_none());

        let cfg = EngineConfig::default().with_partial_results().with_chaos(
            ChaosPlan::new(7, 10_000).with_window("edge-a", ChaosFault::Outage, 0, 1_000),
        );
        assert!(cfg.partial_results);
        cfg.validate().unwrap();

        // An invalid plan fails engine-config validation too.
        let bad = EngineConfig::default().with_chaos(ChaosPlan::new(7, 0));
        assert!(bad.validate().is_err());
    }

    #[test]
    fn circuit_breaker_config() {
        // Disabled by default: PR 2 deployments keep their exact behaviour.
        assert_eq!(EngineConfig::default().breaker_threshold, 0);
        let cfg = EngineConfig::default().with_circuit_breaker(5, 100.0);
        assert_eq!(cfg.breaker_threshold, 5);
        assert_eq!(cfg.breaker_cooldown_ms, 100.0);
        cfg.validate().unwrap();
        assert!(EngineConfig::default()
            .with_circuit_breaker(5, f64::NAN)
            .validate()
            .is_err());
        assert!(EngineConfig::default()
            .with_circuit_breaker(5, -1.0)
            .validate()
            .is_err());
    }
}
