#![forbid(unsafe_code)]
//! Shared scaffolding for the experiment binaries (`src/bin/exp*.rs`) and the
//! Criterion benches (`benches/*.rs`).
//!
//! Every experiment uses the same synthetic world and the same construction
//! of oracle / subject engines so that numbers across experiments are
//! comparable. `EXPERIMENTS.md` documents which binary regenerates which
//! table or figure of the paper.

use llmsql_core::Engine;
use llmsql_llm::{KnowledgeBase, SimLlm};
use llmsql_store::Catalog;
use llmsql_types::{
    BackendSpec, Column, DataType, EngineConfig, ExecutionMode, LlmFidelity, PromptStrategy,
    Result, RoutingPolicy, Row, Schema, Value,
};
use llmsql_workload::{World, WorldSpec};

/// The world spec used by the experiment binaries (moderate size so every
/// binary finishes in seconds).
pub fn experiment_world_spec() -> WorldSpec {
    WorldSpec {
        countries: 80,
        cities_per_country: 4,
        people: 150,
        movies: 100,
        seed: 2024,
    }
}

/// Generate the standard experiment world.
pub fn experiment_world() -> Result<World> {
    World::generate(experiment_world_spec())
}

/// The default subject configuration for LLM-only execution.
pub fn llm_config(strategy: PromptStrategy, fidelity: LlmFidelity) -> EngineConfig {
    EngineConfig::default()
        .with_mode(ExecutionMode::LlmOnly)
        .with_strategy(strategy)
        .with_fidelity(fidelity)
        .with_seed(2024)
}

/// Build oracle + subject engines in one call.
pub fn engines(
    world: &World,
    strategy: PromptStrategy,
    fidelity: LlmFidelity,
) -> Result<(Engine, Engine)> {
    let oracle = world.oracle_engine();
    let subject = world.subject_engine(llm_config(strategy, fidelity))?;
    Ok((oracle, subject))
}

/// Number of queries per operator class used in accuracy experiments.
pub const QUERIES_PER_CLASS: usize = 12;

/// A minimal virtual-table world for parallel-dispatch benchmarks: a
/// `countries` relation of exactly `rows` synthetic entities, plus a
/// simulator over the matching knowledge base that sleeps `latency_ms` per
/// request (emulating endpoint round-trip time).
pub fn parallel_world(rows: usize, fidelity: LlmFidelity, latency_ms: f64) -> (Catalog, SimLlm) {
    let schema = Schema::virtual_table(
        "countries",
        vec![
            Column::new("name", DataType::Text).primary_key(),
            Column::new("region", DataType::Text),
            Column::new("population", DataType::Int),
        ],
    );
    const REGIONS: [&str; 5] = ["Europe", "Asia", "Africa", "Americas", "Oceania"];
    let data: Vec<Row> = (0..rows)
        .map(|i| {
            Row::new(vec![
                Value::Text(format!("Country {i:04}")),
                Value::Text(REGIONS[i % REGIONS.len()].to_string()),
                Value::Int(100_000 + 37_219 * i as i64),
            ])
        })
        .collect();
    let catalog = Catalog::new();
    catalog
        .create_virtual_table(schema.clone())
        .expect("fresh catalog");
    let mut kb = KnowledgeBase::new();
    kb.add_table(schema, data);
    let sim = SimLlm::new(kb.into_shared(), fidelity, 2024).with_simulated_latency_ms(latency_ms);
    (catalog, sim)
}

/// The standard parallel-dispatch scenario shared by the bench, the speedup
/// integration test and the `parallel_scan` example: a batched LLM-only scan
/// of a [`parallel_world`] relation in pages of 10, prompt cache off (every
/// run pays the full call pattern), keeping `parallelism` requests in flight.
pub fn parallel_scan_engine(rows: usize, parallelism: usize, latency_ms: f64) -> Engine {
    let (catalog, sim) = parallel_world(rows, LlmFidelity::perfect(), latency_ms);
    let mut config = EngineConfig::default()
        .with_mode(ExecutionMode::LlmOnly)
        .with_strategy(PromptStrategy::BatchedRows)
        .with_batch_size(10)
        .with_parallelism(parallelism);
    config.max_scan_rows = rows;
    config.enable_prompt_cache = false;
    let mut engine = Engine::with_catalog(catalog, config);
    engine
        .attach_model(std::sync::Arc::new(sim))
        .expect("no backends configured");
    engine
}

/// The tuple-batching scenario shared by the bench gate and
/// `tests/cross_query_dispatch.rs`: a tuple-at-a-time LLM-only scan of a
/// [`parallel_world`] relation where up to `batch_rows_per_call` per-tuple
/// prompts pack into one physical request
/// (`EngineConfig::batch_rows_per_call`), prompt cache off.
pub fn batched_tuple_scan_engine(
    rows: usize,
    parallelism: usize,
    batch_rows_per_call: usize,
    latency_ms: f64,
) -> Result<Engine> {
    let (catalog, sim) = parallel_world(rows, LlmFidelity::perfect(), latency_ms);
    let mut config = EngineConfig::default()
        .with_mode(ExecutionMode::LlmOnly)
        .with_strategy(PromptStrategy::TupleAtATime)
        .with_parallelism(parallelism)
        .with_batch_rows_per_call(batch_rows_per_call);
    config.max_scan_rows = rows;
    config.enable_prompt_cache = false;
    let mut engine = Engine::with_catalog(catalog, config);
    engine.attach_model(std::sync::Arc::new(sim))?;
    Ok(engine)
}

/// The standard multi-backend scenario shared by the routing bench, the
/// failover integration tests and the `multi_backend` example: the
/// [`parallel_scan_engine`] workload served through the canonical
/// mixed-backend deployment ([`llmsql_workload::mixed_backend_config`]:
/// `edge-a` hard down when `one_failing`, `edge-b` vanilla, `edge-c` at
/// premium pricing).
pub fn multi_backend_engine(
    rows: usize,
    parallelism: usize,
    latency_ms: f64,
    policy: RoutingPolicy,
    one_failing: bool,
) -> Engine {
    let (catalog, sim) = parallel_world(rows, LlmFidelity::perfect(), latency_ms);
    let base = EngineConfig::default()
        .with_mode(ExecutionMode::LlmOnly)
        .with_strategy(PromptStrategy::BatchedRows)
        .with_batch_size(10)
        .with_parallelism(parallelism)
        .with_routing_policy(policy);
    let mut config = llmsql_workload::mixed_backend_config(base, one_failing);
    config.max_scan_rows = rows;
    config.enable_prompt_cache = false;
    let mut engine = Engine::with_catalog(catalog, config);
    engine
        .attach_model(std::sync::Arc::new(sim))
        .expect("canonical backend specs are valid");
    engine
}

/// Simulated round trip of the fast members of the tail-latency scenario,
/// milliseconds.
pub const OUTLIER_FAST_MS: f64 = 3.0;
/// Simulated round trip of the slow outlier (10× the fast members).
pub const OUTLIER_SLOW_MS: f64 = 30.0;

/// The tail-latency scenario shared by the hedging bench, the acceptance
/// test and the `deadlines_and_hedging` example: the [`parallel_scan_engine`]
/// workload served through three backends, two fast and one with 10× their
/// latency (`edge-slow`, registered last so latency-aware cold-start
/// exploration reaches it only after the fast members have samples — at
/// which point the exploratory request is already hedge-protected). With
/// `hedge` true, requests late by 3× the pool's fastest EWMA are hedged.
pub fn slow_outlier_engine(
    rows: usize,
    parallelism: usize,
    policy: RoutingPolicy,
    hedge: bool,
) -> Engine {
    let (catalog, sim) = parallel_world(rows, LlmFidelity::perfect(), 0.0);
    let mut config = EngineConfig::default()
        .with_mode(ExecutionMode::LlmOnly)
        .with_strategy(PromptStrategy::BatchedRows)
        .with_batch_size(10)
        .with_parallelism(parallelism)
        .with_routing_policy(policy)
        .with_backends(vec![
            BackendSpec::new("edge-fast-1").with_latency_ms(OUTLIER_FAST_MS),
            BackendSpec::new("edge-fast-2").with_latency_ms(OUTLIER_FAST_MS),
            BackendSpec::new("edge-slow").with_latency_ms(OUTLIER_SLOW_MS),
        ]);
    if hedge {
        config = config.with_hedging(3.0, 1.0);
    }
    config.backend_backoff_ms = 0.0;
    config.max_scan_rows = rows;
    config.enable_prompt_cache = false;
    let mut engine = Engine::with_catalog(catalog, config);
    engine
        .attach_model(std::sync::Arc::new(sim))
        .expect("outlier backend specs are valid");
    engine
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_and_engines_build() {
        let world = World::generate(WorldSpec::tiny()).unwrap();
        let (oracle, subject) =
            engines(&world, PromptStrategy::BatchedRows, LlmFidelity::perfect()).unwrap();
        assert_eq!(
            oracle
                .execute("SELECT COUNT(*) FROM countries")
                .unwrap()
                .scalar(),
            Some(llmsql_types::Value::Int(WorldSpec::tiny().countries as i64))
        );
        assert!(subject.client().is_some());
    }
}
