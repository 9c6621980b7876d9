//! Counts per query on a paused clock: what a query asks of the model, and
//! how many prompts the engine builds to ask it.
//!
//! Every number here is a count, a function of the scenarios' seeds, so it
//! repeats exactly in debug and release: `tests/counters_golden.rs` holds
//! [`golden_report`] against `tests/snapshots/counters.txt`, and the
//! `counters` binary prints it. Per query, in each pass: the rows returned,
//! the logical calls by task kind, the requests that reached the model, their
//! prompt tokens, the request-table hits, and the prompts rendered
//! (`ExecMetrics::prompts_rendered`).
//!
//! The scenarios:
//!
//! * [`analytics_replica`] — the shape of the repo benchmark's
//!   `cached_analytics` mix: the standard suite (12 texts per class, 72 in
//!   all) over a world of that workload's sizes (80 countries, 4 cities per
//!   country, 150 people, 100 movies), LlmOnly batched rows in pages of 20 at
//!   parallelism 1, prompt cache on, emptied once per [`CYCLE_PASSES`]
//!   passes. Two passes first keep every text's plan (a plan is kept the
//!   second time its text is planned) and fill the cache; then one cycle is
//!   measured: the refresh, its cold pass and its warm passes.
//! * [`strategy_passes`] — the standard suite (2 texts per class) over a
//!   small world under each prompt strategy, cache on: two passes to keep the
//!   plans, then a cold pass after a refresh and a warm pass.
//!
//! The binary's `--warm-passes N` runs the replica's warm-up and then `N`
//! warm passes, printing only the number of queries: under the preloaded
//! allocation counter (`scripts/count_mallocs.c`) two such runs give the
//! allocations per warm query (`scripts/allocations.sh`).

use std::collections::BTreeMap;

use llmsql_core::{Engine, QueryResult};
use llmsql_types::{clock, EngineConfig, ExecutionMode, LlmFidelity, PromptStrategy, Result};

use crate::queries::standard_suite;
use crate::report::{Cell, Report};
use crate::world::{World, WorldSpec};

/// Passes per refresh of the replica's cache, as in `cached_analytics`.
pub const CYCLE_PASSES: usize = 25;

/// What a pass's queries did, summed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassCounts {
    /// Queries run.
    pub queries: u64,
    /// Rows returned.
    pub rows: u64,
    /// Logical calls by task kind.
    pub calls_by_kind: BTreeMap<String, u64>,
    /// Requests the model served.
    pub requests: u64,
    /// Prompt tokens of those requests.
    pub prompt_tokens: u64,
    /// Requests served from the request table.
    pub hits: u64,
    /// Prompts the engine rendered.
    pub prompts_rendered: u64,
}

impl PassCounts {
    fn record(&mut self, result: &QueryResult) {
        let metrics = &result.metrics;
        self.queries += 1;
        self.rows += result.row_count() as u64;
        for (kind, calls) in &metrics.llm_calls_by_kind {
            *self.calls_by_kind.entry(kind.clone()).or_default() += calls;
        }
        self.requests += metrics.usage.calls;
        self.prompt_tokens += metrics.usage.prompt_tokens;
        self.hits += metrics.usage.cache_hits;
        self.prompts_rendered += metrics.prompts_rendered;
    }

    /// Run every text of `sqls` once on `engine`, adding what it did.
    fn pass(&mut self, engine: &Engine, sqls: &[String]) -> Result<()> {
        for sql in sqls {
            self.record(&engine.execute(sql)?);
        }
        Ok(())
    }

    /// `total` per query.
    fn per_query(&self, total: u64) -> Cell {
        Cell::fixed(total as f64 / self.queries.max(1) as f64, 3)
    }
}

/// The replica's cold pass and its warm passes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cycle {
    /// The first pass after the refresh.
    pub cold: PassCounts,
    /// The other passes of the cycle.
    pub warm: PassCounts,
}

/// The world of the replica: `cached_analytics`' sizes.
fn replica_world() -> Result<World> {
    World::generate(WorldSpec {
        countries: 80,
        cities_per_country: 4,
        people: 150,
        movies: 100,
        seed: WorldSpec::default().seed,
    })
}

/// The measured configuration under `strategy`: LlmOnly, a perfect model,
/// pages of 20, parallelism 1, prompt cache on.
fn config(strategy: PromptStrategy) -> EngineConfig {
    EngineConfig::default()
        .with_mode(ExecutionMode::LlmOnly)
        .with_fidelity(LlmFidelity::perfect())
        .with_strategy(strategy)
        .with_batch_size(20)
        .with_parallelism(1)
}

/// The replica's engine and texts, after the two passes that keep every
/// plan and fill the cache. Runs on the caller's (paused) clock.
fn warmed_replica() -> Result<(Engine, Vec<String>)> {
    let world = replica_world()?;
    let engine = world.subject_engine(config(PromptStrategy::BatchedRows))?;
    let sqls: Vec<String> = standard_suite(&world, 12)
        .into_iter()
        .map(|q| q.sql)
        .collect();
    let mut warm_up = PassCounts::default();
    for _ in 0..2 {
        warm_up.pass(&engine, &sqls)?;
    }
    Ok((engine, sqls))
}

/// The `cached_analytics` replica (see the module docs): one measured cycle.
pub fn analytics_replica() -> Result<Cycle> {
    let _paused = clock::pause();
    let (engine, sqls) = warmed_replica()?;
    let mut cycle = Cycle::default();
    clear_cache(&engine);
    cycle.cold.pass(&engine, &sqls)?;
    for _ in 1..CYCLE_PASSES {
        cycle.warm.pass(&engine, &sqls)?;
    }
    Ok(cycle)
}

/// The replica's warm-up and then `passes` warm passes; returns the queries
/// run in those passes. What an allocation counter sees between two such
/// runs is what the extra warm queries allocated.
pub fn replica_warm_passes(passes: usize) -> Result<u64> {
    let _paused = clock::pause();
    let (engine, sqls) = warmed_replica()?;
    let mut warm = PassCounts::default();
    for _ in 0..passes {
        warm.pass(&engine, &sqls)?;
    }
    Ok(warm.queries)
}

/// The standard suite under `strategy` (see the module docs).
pub fn strategy_passes(strategy: PromptStrategy) -> Result<Cycle> {
    let _paused = clock::pause();
    let world = World::generate(WorldSpec::tiny())?;
    let engine = world.subject_engine(config(strategy))?;
    let sqls: Vec<String> = standard_suite(&world, 2)
        .into_iter()
        .map(|q| q.sql)
        .collect();
    let mut warm_up = PassCounts::default();
    for _ in 0..2 {
        warm_up.pass(&engine, &sqls)?;
    }
    let mut cycle = Cycle::default();
    clear_cache(&engine);
    cycle.cold.pass(&engine, &sqls)?;
    cycle.warm.pass(&engine, &sqls)?;
    Ok(cycle)
}

fn clear_cache(engine: &Engine) {
    if let Some(client) = engine.client() {
        client.clear_cache();
    }
}

/// Every scenario, a row per pass kind: the counts per query.
pub fn golden_report() -> Result<Report> {
    let mut report = Report::new(
        "Counts per query on a paused clock",
        &[
            "scenario",
            "pass",
            "queries",
            "rows/q",
            "calls/q by kind",
            "requests/q",
            "prompt tokens/q",
            "hits/q",
            "rendered/q",
        ],
    );
    let mut scenarios = vec![("cached_analytics replica".to_string(), analytics_replica()?)];
    for strategy in PromptStrategy::ALL {
        scenarios.push((format!("{strategy:?}"), strategy_passes(strategy)?));
    }
    for (name, cycle) in scenarios {
        for (pass, counts) in [("cold", &cycle.cold), ("warm", &cycle.warm)] {
            let by_kind: Vec<String> = (counts.calls_by_kind.iter())
                .map(|(kind, &calls)| format!("{kind} {}", counts.per_query(calls)))
                .collect();
            report.row(vec![
                name.as_str().into(),
                pass.into(),
                counts.queries.into(),
                counts.per_query(counts.rows),
                by_kind.join(", ").into(),
                counts.per_query(counts.requests),
                counts.per_query(counts.prompt_tokens),
                counts.per_query(counts.hits),
                counts.per_query(counts.prompts_rendered),
            ]);
        }
    }
    Ok(report)
}
