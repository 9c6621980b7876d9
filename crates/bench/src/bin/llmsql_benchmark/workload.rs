//! The five workloads and their set-up.
//!
//! Each workload is an engine configuration, a generated dataset, a list of
//! distinct queries and a rule for the order they run in. Set-up builds all
//! of it from the seed, computes what every query must return, records the
//! simulator's answers, and hands the measured phase an engine whose model
//! only replays. The README next to this file says why each workload exists
//! and which layers it leans on.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use llmsql_core::Engine;
use llmsql_llm::{LanguageModel, SimLlm};
use llmsql_sched::QueryScheduler;
use llmsql_types::{
    BackendSpec, ChaosFault, ChaosPlan, EngineConfig, ExecutionMode, LlmFidelity, Priority,
    PromptStrategy, RoutingPolicy, Row, SchedConfig, SchedPolicy,
};

use crate::data::{self, Dataset, Sizes};
use crate::queries::{self, Query, ScanShape, SCAN_MIX_PERIOD, TENANTS};
use crate::replay::{Recorder, ReplayLlm};
use crate::rng::Rng;

/// A harness failure (as opposed to a failed query): the run cannot produce
/// a result at all.
pub type Failure = String;

/// Engine and chaos seeds are constants: the benchmark seed drives only the
/// generated inputs, never the engine's own configuration.
const ENGINE_SEED: u64 = 42;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScanRtt,
    CpuStack,
    CachedAnalytics,
    TenantsOpen,
    TailFaulty,
}

/// When the measured loop empties the prompt cache (outside the latency
/// timer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheClear {
    /// The cache is off, or never emptied.
    Never,
    /// Before every query: each call goes miss → dispatch → put.
    EveryQuery,
    /// At the start of every cycle: a refresh, after which one pass over the
    /// distinct queries refills the cache and the remaining passes hit.
    EveryCycle,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ScanRtt,
        Workload::CpuStack,
        Workload::CachedAnalytics,
        Workload::TenantsOpen,
        Workload::TailFaulty,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanRtt => "scan_rtt",
            Workload::CpuStack => "cpu_stack",
            Workload::CachedAnalytics => "cached_analytics",
            Workload::TenantsOpen => "tenants_open",
            Workload::TailFaulty => "tail_faulty",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Independent users arriving on a schedule, as opposed to one client
    /// that waits for each reply.
    pub fn open_loop(self) -> bool {
        self == Workload::TenantsOpen
    }

    fn sizes(self) -> Sizes {
        match self {
            Workload::CachedAnalytics => Sizes {
                countries: 80,
                cities_per_country: 4,
                people: 150,
                movies: 100,
            },
            _ => Sizes::scan(200),
        }
    }

    fn distinct_queries(self, quick: bool) -> usize {
        let full = match self {
            Workload::ScanRtt | Workload::TailFaulty => 64,
            Workload::CpuStack => 16,
            Workload::CachedAnalytics => 72,
            Workload::TenantsOpen => 200,
        };
        if quick && self != Workload::CachedAnalytics {
            full.min(8)
        } else {
            full
        }
    }

    /// Round trip of the replayed model itself; pooled workloads put their
    /// latency on the backends instead.
    fn model_rtt_ms(self) -> f64 {
        match self {
            Workload::ScanRtt => 5.0,
            Workload::TenantsOpen => 2.0,
            _ => 0.0,
        }
    }

    pub fn cache_clear(self) -> CacheClear {
        match self {
            Workload::CpuStack => CacheClear::EveryQuery,
            Workload::CachedAnalytics => CacheClear::EveryCycle,
            _ => CacheClear::Never,
        }
    }

    /// Passes over the distinct queries in one cycle. The analytics cycle is
    /// one refresh plus 24 warm passes, so 4 % of its queries run cold and
    /// `model_requests_per_query` is the (non-zero) price of a refresh.
    pub fn passes_per_cycle(self) -> usize {
        match self {
            Workload::CachedAnalytics => 25,
            _ => 1,
        }
    }

    /// Queries after which the mix of work repeats; measured blocks are whole
    /// multiples of it. For the scans, every projection shape once; for the
    /// analytics workload, one whole refresh cycle.
    pub fn mix_period(self, distinct: usize) -> usize {
        match self {
            Workload::CachedAnalytics => distinct * self.passes_per_cycle(),
            _ => SCAN_MIX_PERIOD.min(distinct),
        }
    }

    /// Every millisecond of a query is CPU (no timer on its critical path),
    /// so its latency scales with the machine's speed and is calibrated.
    pub fn cpu_bound(self) -> bool {
        matches!(self, Workload::CpuStack | Workload::CachedAnalytics)
    }

    /// Arrival events per second of the open-loop workload: 1.75 queries per
    /// event ≈ 190 queries/s, about 60 % of what four workers serve.
    pub const ARRIVAL_EVENTS_PER_S: f64 = 110.0;

    /// The measured engine configuration.
    pub fn config(self) -> EngineConfig {
        let base = EngineConfig::default()
            .with_mode(ExecutionMode::LlmOnly)
            .with_fidelity(LlmFidelity::perfect())
            .with_seed(ENGINE_SEED);
        let mut config = match self {
            Workload::ScanRtt => base
                .with_strategy(PromptStrategy::BatchedRows)
                .with_batch_size(10)
                .with_parallelism(16),
            Workload::CpuStack => base
                .with_strategy(PromptStrategy::TupleAtATime)
                .with_batch_rows_per_call(4)
                .with_parallelism(16)
                .with_routing_policy(RoutingPolicy::RoundRobin)
                .with_backends(
                    (0..3)
                        .map(|i| BackendSpec::new(format!("b{i}")).with_latency_ms(0.0))
                        .collect(),
                ),
            // Parallelism 1 keeps the relational operators on the client's
            // thread. Above 1 the engine spawns scoped threads for every
            // operator over 256 rows, and on a shared two-core host those
            // spawns were the noisiest thing in the process. (It also pages
            // past the end of a relation that a filter ends, so logical
            // calls would no longer equal the sequential reference's.)
            Workload::CachedAnalytics => base
                .with_strategy(PromptStrategy::BatchedRows)
                .with_batch_size(20)
                .with_parallelism(1),
            Workload::TenantsOpen => base
                .with_strategy(PromptStrategy::BatchedRows)
                .with_batch_size(10)
                .with_parallelism(8),
            Workload::TailFaulty => {
                let mut config = base
                    .with_strategy(PromptStrategy::BatchedRows)
                    .with_batch_size(20)
                    .with_parallelism(8)
                    .with_routing_policy(RoutingPolicy::PromptHash)
                    .with_backends(
                        [1.0, 1.5, 2.0, 2.5]
                            .iter()
                            .enumerate()
                            .map(|(i, &ms)| BackendSpec::new(format!("b{i}")).with_latency_ms(ms))
                            .collect(),
                    )
                    .with_circuit_breaker(3, 50.0)
                    .with_hedging(3.0, 5.0)
                    .with_chaos(
                        ChaosPlan::new(ENGINE_SEED, 10_000)
                            .with_window("b0", ChaosFault::Outage, 0, 5_000)
                            .with_window(
                                "b1",
                                ChaosFault::LatencyStorm { factor: 10.0 },
                                2_000,
                                8_000,
                            )
                            .with_window(
                                "b2",
                                ChaosFault::ErrorBurst { error_rate: 0.4 },
                                1_000,
                                9_000,
                            ),
                    );
                config.backend_retries = 1;
                config.backend_backoff_ms = 0.0;
                config
            }
        };
        config.enable_prompt_cache = matches!(self, Workload::CpuStack | Workload::CachedAnalytics);
        config
    }

    /// The scheduler in front of the open-loop workload's engine.
    pub fn sched_config() -> SchedConfig {
        let mut config = SchedConfig::default()
            .with_workers(4)
            .with_llm_slots(32)
            .with_policy(SchedPolicy::WeightedFair)
            .with_max_queue_depth(4096)
            .with_tenant_queue_cap(4096);
        for tenant in 0..TENANTS {
            config = config.with_tenant_weight(tenant_name(tenant), 1);
        }
        config
    }
}

pub fn tenant_name(tenant: usize) -> String {
    format!("tenant-{}", tenant % TENANTS)
}

/// The same configuration made sequential and direct: parallelism 1, one
/// prompt per request, no pool, no cache, no faults. Rows and logical calls of
/// the measured engine must equal what this one produces.
fn sequential(config: &EngineConfig) -> EngineConfig {
    let mut config = config.clone();
    config.parallelism = 1;
    config.batch_rows_per_call = 1;
    config.backends.clear();
    config.chaos = None;
    config.hedge_multiplier = 0.0;
    config.breaker_threshold = 0;
    config.enable_prompt_cache = false;
    config
}

/// The workload's own configuration with latencies zero and chaos off: what
/// the recording pass runs, so it sees the prompts (packed ones included)
/// the measured engine will send.
fn recording(config: &EngineConfig) -> EngineConfig {
    let mut config = config.clone();
    for backend in &mut config.backends {
        backend.latency_ms = 0.0;
    }
    config.chaos = None;
    config
}

/// What one distinct query must return on every execution: the rows (as an
/// order-sensitive hash) and the logical calls of the sequential reference
/// run, whose rows were checked against the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub row_hash: u64,
    pub logical_calls: u64,
}

pub fn hash_rows(rows: &[Row]) -> u64 {
    let mut hasher = DefaultHasher::new();
    rows.len().hash(&mut hasher);
    for row in rows {
        row.values().hash(&mut hasher);
    }
    hasher.finish()
}

/// Oracle comparison: exact for `ORDER BY` queries, as multisets otherwise.
fn same_rows(actual: &[Row], oracle: &[Row], ordered: bool) -> bool {
    if ordered {
        return actual == oracle;
    }
    let canonical = |rows: &[Row]| {
        let mut lines: Vec<String> = rows.iter().map(Row::to_pipe_string).collect();
        lines.sort_unstable();
        lines
    };
    canonical(actual) == canonical(oracle)
}

/// What the measured phase drives: the engine directly, or the scheduler in
/// front of it.
pub enum Target {
    Direct(Box<Engine>),
    Scheduled(QueryScheduler),
}

impl Target {
    pub fn engine(&self) -> &Engine {
        match self {
            Target::Direct(engine) => engine,
            Target::Scheduled(scheduler) => scheduler.engine(),
        }
    }
}

/// Everything set-up produces.
pub struct Prepared {
    pub workload: Workload,
    pub data: Dataset,
    pub queries: Vec<Query>,
    pub expected: Vec<Expected>,
    pub sim: Arc<SimLlm>,
    pub model: Arc<ReplayLlm>,
    pub target: Target,
    /// Wall time of this set-up up to the warm-up: all CPU.
    pub build_s: f64,
    /// Wall time of the warm-up block: round trips where the workload has
    /// them.
    pub warm_s: f64,
}

impl Prepared {
    /// Execute query `index` once the way a closed-loop client would and
    /// judge it: rows equal the reference, logical calls equal the
    /// reference.
    pub fn run_and_check(&self, index: usize) -> bool {
        match self.target.engine().execute(&self.queries[index].sql) {
            Ok(result) => self.judge(index, result.rows(), result.metrics.llm_calls()),
            Err(_) => false,
        }
    }

    pub fn judge(&self, index: usize, rows: &[Row], logical_calls: u64) -> bool {
        let expected = &self.expected[index];
        logical_calls == expected.logical_calls && hash_rows(rows) == expected.row_hash
    }

    /// Empty the measured engine's prompt cache (no-op with the cache off).
    pub fn clear_cache(&self) {
        if let Some(client) = self.target.engine().client() {
            client.clear_cache();
        }
    }
}

fn fail(context: &str, error: impl std::fmt::Display) -> Failure {
    format!("{context}: {error}")
}

/// Build a workload from the seed. `quick` shrinks the query lists so the
/// unit tests can run every workload in a debug build.
pub fn prepare(workload: Workload, seed: u64, quick: bool) -> Result<Prepared, Failure> {
    let started = Instant::now();
    let rng = Rng::new(seed);
    let data = data::generate(&rng, workload.sizes()).map_err(|e| fail("generate tables", e))?;
    let queries = match workload {
        Workload::CachedAnalytics => queries::analytics_queries(&data, &rng),
        _ => queries::scan_queries(
            &data,
            &rng,
            workload.distinct_queries(quick),
            match workload {
                Workload::CpuStack => ScanShape::Lookups,
                Workload::TailFaulty => ScanShape::FixedText,
                _ => ScanShape::Paged,
            },
        ),
    }
    .map_err(|e| fail("generate queries", e))?;

    // The oracle: a traditional engine over the stored tables.
    let oracle = Engine::with_catalog(
        data.catalog.clone(),
        EngineConfig::default().with_mode(ExecutionMode::Traditional),
    );
    let knowledge = Engine::knowledge_from_catalog(&data.catalog)
        .map_err(|e| fail("knowledge base", e))?
        .into_shared();
    let sim = Arc::new(SimLlm::new(knowledge, LlmFidelity::perfect(), ENGINE_SEED));
    let recorder = Arc::new(Recorder::new(Arc::clone(&sim)));
    let config = workload.config();
    let subject = |config: EngineConfig, model: Arc<dyn LanguageModel>| {
        let catalog = data
            .catalog
            .deep_clone()
            .map_err(|e| fail("clone catalog", e))?;
        let mut engine = Engine::with_catalog(catalog, config);
        engine
            .attach_model(model)
            .map_err(|e| fail("attach model", e))?;
        Ok::<Engine, Failure>(engine)
    };

    // Sequential reference, checked against the oracle.
    let reference = subject(sequential(&config), Arc::clone(&recorder) as _)?;
    let mut expected = Vec::with_capacity(queries.len());
    for query in &queries {
        let truth = oracle
            .execute(&query.sql)
            .map_err(|e| fail(&format!("oracle: {}", query.sql), e))?;
        let got = reference
            .execute(&query.sql)
            .map_err(|e| fail(&format!("reference: {}", query.sql), e))?;
        if !same_rows(got.rows(), truth.rows(), query.ordered) {
            return Err(format!(
                "reference rows differ from the oracle ({} vs {} rows): {}",
                got.row_count(),
                truth.row_count(),
                query.sql
            ));
        }
        expected.push(Expected {
            row_hash: hash_rows(got.rows()),
            logical_calls: got.metrics.llm_calls(),
        });
    }

    // Recording pass under the workload's own dispatch configuration.
    let recording_engine = subject(recording(&config), Arc::clone(&recorder) as _)?;
    for (query, expected) in queries.iter().zip(&expected) {
        let got = recording_engine
            .execute(&query.sql)
            .map_err(|e| fail(&format!("recording: {}", query.sql), e))?;
        if hash_rows(got.rows()) != expected.row_hash
            || got.metrics.llm_calls() != expected.logical_calls
        {
            return Err(format!(
                "recording pass differs from the sequential reference \
                 ({} rows, {} logical calls; {} expected): {}",
                got.row_count(),
                got.metrics.llm_calls(),
                expected.logical_calls,
                query.sql
            ));
        }
    }
    drop((reference, recording_engine));

    let model = Arc::new(ReplayLlm::new(
        Arc::clone(&sim),
        recorder.recording(),
        workload.model_rtt_ms(),
    ));
    let engine = subject(config, Arc::clone(&model) as _)?;
    let target = if workload.open_loop() {
        Target::Scheduled(
            QueryScheduler::new(engine, Workload::sched_config())
                .map_err(|e| fail("start scheduler", e))?,
        )
    } else {
        Target::Direct(Box::new(engine))
    };

    let mut prepared = Prepared {
        workload,
        data,
        queries,
        expected,
        sim,
        model,
        target,
        build_s: started.elapsed().as_secs_f64(),
        warm_s: 0.0,
    };
    let warm_started = Instant::now();
    warm_up(&prepared, quick)?;
    prepared.warm_s = warm_started.elapsed().as_secs_f64();
    if prepared.model.counters().misses > 0 {
        return Err("warm-up sent prompts the recording pass never saw".to_string());
    }
    Ok(prepared)
}

/// One discarded block: fills caches and faults code in. Two passes over
/// the distinct queries where that is cheap, a handful of queries where each
/// costs round trips.
fn warm_up(prepared: &Prepared, quick: bool) -> Result<(), Failure> {
    let distinct = prepared.queries.len();
    let count = match prepared.workload {
        Workload::CpuStack | Workload::CachedAnalytics => 2 * distinct,
        _ => 8,
    };
    let count = if quick { count.min(distinct) } else { count };
    for i in 0..count {
        let index = i % distinct;
        let ok = match &prepared.target {
            Target::Direct(_) => {
                if prepared.workload.cache_clear() == CacheClear::EveryQuery {
                    prepared.clear_cache();
                }
                prepared.run_and_check(index)
            }
            Target::Scheduled(scheduler) => {
                let outcome = scheduler
                    .submit(
                        tenant_name(i),
                        Priority::NORMAL,
                        prepared.queries[index].sql.as_str(),
                    )
                    .map_err(|e| fail("warm-up submit", e))?
                    .wait();
                match &outcome.result {
                    Ok(result) => prepared.judge(index, result.rows(), outcome.llm_calls),
                    Err(_) => false,
                }
            }
        };
        if !ok {
            return Err(format!(
                "warm-up query failed its check: {}",
                prepared.queries[index].sql
            ));
        }
    }
    Ok(())
}
