//! Latency in virtual time: single-client scenarios run on a paused clock.
//!
//! Under [`clock::pause`] a standalone query's round trips cost exactly the
//! model latency its backends report and its CPU costs nothing, so a
//! query's virtual latency is the model time along its critical path —
//! what the dispatch policy (window, routing, retries, breakers, hedges)
//! costs, with no scheduler noise or host speed in it. Each scenario builds
//! its engine under the pause (so the pool's epoch and every instant it
//! sees are virtual), runs its queries one after another on the calling
//! thread, and reports:
//!
//! * the virtual p50, p90 and mean over the measured queries;
//! * the *ideal*: per query, its round trips at the engine's parallelism
//!   (`ceil(logical calls / parallelism)`) × the slowest healthy round
//!   trip — the critical path if no fault or stall cost anything;
//! * per query, the physical model requests (attempts that reached the
//!   model: answered, or beaten by a hedge and dropped), the attempts
//!   (failed ones included) and the hedges.
//!
//! Every number is a function of the scenario's seeds, identical in debug
//! and release: `tests/virtual_latency_golden.rs` holds [`golden_report`]
//! against `tests/snapshots/virtual_latency.txt`, and the
//! `virtual_latency` binary prints it, or sweeps the `tail_faulty` replica
//! over many seeds (`--seeds N`).
//!
//! The scenarios:
//!
//! * [`tail_faulty`] — a replica of the repo benchmark's `tail_faulty`
//!   workload with its numbers: four backends at 1.0 / 1.5 / 2.0 / 2.5 ms,
//!   prompt-hash routing, one retry without backoff, breaker (3, 50 ms),
//!   hedging (3×, 5 ms), an outage on `b0`, a 10× latency storm on `b1` and
//!   a 40 % error burst on `b2`. Its 64 scans have the benchmark's fixed
//!   texts (`countries` has the benchmark's three columns, and every
//!   predicate keeps every row), so each prompt meets the fault the
//!   benchmark's does. Eight warm-up queries, then ten passes over the 64.
//! * [`chaos_suite`] — the chaos suite's scan ([`crate::chaos`]) on a fresh
//!   deployment per seed, once with breakers and hedging absorbing the
//!   faults and once without.
//! * [`scan_rtt`] — a `scan_rtt`-shaped paged scan: 200 rows in pages of
//!   10 at parallelism 16 over a 5 ms model, cache off.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use llmsql_core::{Engine, QueryResult};
use llmsql_llm::SimLlm;
use llmsql_store::Catalog;
use llmsql_types::{
    clock, BackendSpec, ChaosFault, ChaosPlan, Column, DataType, EngineConfig, ExecutionMode,
    LlmFidelity, PromptStrategy, Result, RoutingPolicy, Row, Schema, Value,
};

use crate::chaos::{chaos_engine, chaos_plan, chaos_world_spec};
use crate::report::{Cell, Report};
use crate::world::{World, REGIONS};

/// The chaos-plan and engine seed of the benchmark's `tail_faulty`.
pub const TAIL_FAULTY_SEED: u64 = 42;

/// Seeds of the chaos-suite scenario: one fresh deployment each.
const CHAOS_SEEDS: std::ops::Range<u64> = 0..16;

/// What one scenario's measured queries did on a paused clock.
#[derive(Debug, Clone, Default)]
pub struct PausedRun {
    /// Virtual latency of each measured query, in run order, ms.
    pub latencies_ms: Vec<f64>,
    /// The measured queries' ideal critical paths (see the module docs),
    /// summed, ms.
    pub ideal_ms: f64,
    /// Physical attempts, summed over the measured queries.
    pub attempts: u64,
    /// Failed attempts, summed over the measured queries.
    pub errors: u64,
    /// Hedges issued, summed over the measured queries.
    pub hedges: u64,
}

impl PausedRun {
    /// Run `sqls` on the engine `build` makes, one after another on this
    /// thread's paused clock; the first `warm_up` are run but not measured.
    /// `parallelism` and `rtt_ms` state the ideal.
    fn measure(
        build: impl FnOnce() -> Result<Engine>,
        sqls: &[String],
        warm_up: usize,
        parallelism: usize,
        rtt_ms: f64,
    ) -> Result<PausedRun> {
        let _paused = clock::pause();
        let engine = build()?;
        let mut run = PausedRun::default();
        for (i, sql) in sqls.iter().enumerate() {
            let start = clock::now();
            let result = engine.execute(sql)?;
            if i >= warm_up {
                run.record(&result, start, parallelism, rtt_ms);
            }
        }
        Ok(run)
    }

    fn record(&mut self, result: &QueryResult, start: Instant, parallelism: usize, rtt_ms: f64) {
        let metrics = &result.metrics;
        self.latencies_ms
            .push(clock::now().duration_since(start).as_secs_f64() * 1000.0);
        let rounds = metrics.llm_calls().div_ceil(parallelism.max(1) as u64);
        self.ideal_ms += rounds as f64 * rtt_ms;
        self.attempts += if metrics.backend_calls.is_empty() {
            // A model served without a pool: one attempt per request.
            metrics.usage.calls
        } else {
            metrics.backend_calls.values().sum()
        };
        self.errors += metrics.backend_errors.values().sum::<u64>();
        self.hedges += metrics.hedges_issued;
    }

    /// Fold in another run's queries, after this run's.
    fn extend(&mut self, other: PausedRun) {
        self.latencies_ms.extend(other.latencies_ms);
        self.ideal_ms += other.ideal_ms;
        self.attempts += other.attempts;
        self.errors += other.errors;
        self.hedges += other.hedges;
    }

    /// Measured queries.
    pub fn queries(&self) -> usize {
        self.latencies_ms.len()
    }

    /// The nearest-rank `q`-quantile of the virtual latencies (the
    /// benchmark's definition), ms.
    pub fn percentile(&self, q: f64) -> f64 {
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted
            .get(rank.clamp(1, sorted.len().max(1)) - 1)
            .copied()
            .unwrap_or(0.0)
    }

    /// Mean virtual latency, ms.
    pub fn mean_ms(&self) -> f64 {
        self.per_query(self.latencies_ms.iter().sum())
    }

    /// Mean ideal critical path, ms.
    pub fn ideal_mean_ms(&self) -> f64 {
        self.per_query(self.ideal_ms)
    }

    /// `total` spread over the measured queries.
    pub fn per_query(&self, total: f64) -> f64 {
        total / self.queries().max(1) as f64
    }

    /// Physical model requests per query: attempts that reached the model.
    pub fn requests_per_query(&self) -> f64 {
        self.per_query((self.attempts - self.errors) as f64)
    }
}

/// The benchmark's eight projections of `countries`.
const PROJECTIONS: [&str; 8] = [
    "name",
    "region",
    "population",
    "name, region",
    "name, population",
    "region, population",
    "name, region, population",
    "population, name",
];

/// The benchmark's `countries` relation — its three columns with their
/// descriptions, so prompt texts match — over the names of a generated
/// world. Every population is at least 100 000.
fn tail_faulty_catalog() -> Result<Catalog> {
    let world = World::generate(chaos_world_spec(TAIL_FAULTY_SEED))?;
    let catalog = Catalog::new();
    let countries = catalog.create_table(
        Schema::new(
            "countries",
            vec![
                Column::new("name", DataType::Text)
                    .primary_key()
                    .with_description("the short English name of the country"),
                Column::new("region", DataType::Text)
                    .with_description("the continent or world region"),
                Column::new("population", DataType::Int).with_description("the total population"),
            ],
        )
        .with_description("countries of the synthetic world atlas"),
    )?;
    let rows = world
        .country_names()
        .into_iter()
        .enumerate()
        .map(|(i, name)| {
            Row::new(vec![
                name.into(),
                REGIONS[i % REGIONS.len()].into(),
                Value::Int(100_000 + 37_219 * i as i64),
            ])
        })
        .collect();
    countries.insert_many(rows)?;
    Ok(catalog)
}

/// Fisher–Yates with the workload crate's generator.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// The benchmark's 64 fixed-text scans: eight predicates that keep every
/// row, each crossed with the eight projections; `order_seed` shuffles the
/// projections within each predicate and the predicates.
fn tail_faulty_queries(order_seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(order_seed);
    let mut groups: Vec<Vec<String>> = (0..8)
        .map(|template| {
            let mut group: Vec<String> = PROJECTIONS
                .iter()
                .map(|columns| {
                    format!(
                        "SELECT {columns} FROM countries WHERE population >= {}",
                        50_000 + 1_000 * template
                    )
                })
                .collect();
            shuffle(&mut group, &mut rng);
            group
        })
        .collect();
    shuffle(&mut groups, &mut rng);
    groups.into_iter().flatten().collect()
}

/// The benchmark's `tail_faulty` engine configuration, with the chaos plan
/// dealt by `plan_seed`.
fn tail_faulty_config(plan_seed: u64) -> EngineConfig {
    let mut config = EngineConfig::default()
        .with_mode(ExecutionMode::LlmOnly)
        .with_fidelity(LlmFidelity::perfect())
        .with_seed(TAIL_FAULTY_SEED)
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
            ChaosPlan::new(plan_seed, 10_000)
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
    config.enable_prompt_cache = false;
    config
}

/// The `tail_faulty` replica (see the module docs): eight warm-up queries,
/// then ten passes over the 64 scans in the order `order_seed` deals, on
/// the chaos plan `plan_seed` deals. The benchmark runs
/// `tail_faulty(42, seed)` for its own input seed.
pub fn tail_faulty(plan_seed: u64, order_seed: u64) -> Result<PausedRun> {
    const WARM_UP: usize = 8;
    const PASSES: usize = 10;
    let catalog = tail_faulty_catalog()?;
    let queries = tail_faulty_queries(order_seed);
    let sqls: Vec<String> = queries[..WARM_UP]
        .iter()
        .chain(queries.iter().cycle().take(PASSES * queries.len()))
        .cloned()
        .collect();
    let build = || {
        let knowledge = Engine::knowledge_from_catalog(&catalog)?.into_shared();
        let mut engine = Engine::with_catalog(catalog.deep_clone()?, tail_faulty_config(plan_seed));
        let sim = SimLlm::new(knowledge, LlmFidelity::perfect(), TAIL_FAULTY_SEED);
        engine.attach_model(Arc::new(sim))?;
        Ok(engine)
    };
    PausedRun::measure(build, &sqls, WARM_UP, 8, 2.5)
}

/// The chaos suite's scan under its fault plan, one fresh deployment per
/// seed of `CHAOS_SEEDS`: with breakers and hedging (`resilient`), or
/// with both off. Its slowest healthy member, `edge-d`, answers in 2.5 ms.
pub fn chaos_suite(resilient: bool) -> Result<PausedRun> {
    let mut all = PausedRun::default();
    for seed in CHAOS_SEEDS {
        let world = World::generate(chaos_world_spec(seed))?;
        let build = || chaos_engine(&world, seed, Some(chaos_plan(seed)), resilient);
        all.extend(PausedRun::measure(
            build,
            &[crate::chaos::CHAOS_SQL.to_string()],
            0,
            8,
            2.5,
        )?);
    }
    Ok(all)
}

/// A `scan_rtt`-shaped paged scan: 16 full scans of a 200-row `countries`
/// (every projection, two predicates that keep every row) in pages of 10 at
/// parallelism 16 over one 5 ms model with the cache off — 20 pages, two
/// round trips, 10 ms ideal.
pub fn scan_rtt() -> Result<PausedRun> {
    const RTT_MS: f64 = 5.0;
    let world = World::generate(chaos_world_spec(TAIL_FAULTY_SEED))?;
    let sqls: Vec<String> = [50_000, 60_000]
        .iter()
        .flat_map(|floor| {
            PROJECTIONS.iter().map(move |columns| {
                format!("SELECT {columns} FROM countries WHERE population >= {floor}")
            })
        })
        .collect();
    let build = || {
        let mut config = EngineConfig::default()
            .with_mode(ExecutionMode::LlmOnly)
            .with_fidelity(LlmFidelity::perfect())
            .with_seed(TAIL_FAULTY_SEED)
            .with_strategy(PromptStrategy::BatchedRows)
            .with_batch_size(10)
            .with_parallelism(16);
        config.enable_prompt_cache = false;
        let sim = SimLlm::new(world.knowledge()?, LlmFidelity::perfect(), TAIL_FAULTY_SEED)
            .with_simulated_latency_ms(RTT_MS);
        let mut engine = Engine::with_catalog(world.catalog.deep_clone()?, config);
        engine.attach_model(Arc::new(sim))?;
        Ok(engine)
    };
    PausedRun::measure(build, &sqls, 0, 16, RTT_MS)
}

/// Every scenario, one row each: virtual p50 / p90 / mean against the
/// ideal, and what the queries spent. Every cell is a function of the
/// scenarios' seeds.
pub fn golden_report() -> Result<Report> {
    let mut report = Report::new(
        "Virtual latency on a paused clock (one client, ms)",
        &[
            "scenario",
            "queries",
            "ideal",
            "p50",
            "p90",
            "mean",
            "requests/q",
            "attempts/q",
            "hedges/q",
        ],
    );
    let scenarios = [
        (
            "tail_faulty",
            tail_faulty(TAIL_FAULTY_SEED, TAIL_FAULTY_SEED)?,
        ),
        ("chaos_suite absorbed", chaos_suite(true)?),
        ("chaos_suite plain", chaos_suite(false)?),
        ("scan_rtt", scan_rtt()?),
    ];
    for (name, run) in scenarios {
        report.row(vec![
            name.into(),
            run.queries().into(),
            Cell::fixed(run.ideal_mean_ms(), 2),
            Cell::fixed(run.percentile(0.5), 2),
            Cell::fixed(run.percentile(0.9), 2),
            Cell::fixed(run.mean_ms(), 2),
            Cell::fixed(run.requests_per_query(), 3),
            Cell::fixed(run.per_query(run.attempts as f64), 3),
            Cell::fixed(run.per_query(run.hedges as f64), 3),
        ]);
    }
    Ok(report)
}
