//! The `chaos_suite` scenario: one seeded fault schedule driven through a
//! four-backend scan, plus the robustness invariants the run must uphold.
//!
//! The scenario is the acceptance harness for the fault-robustness layer:
//! a 200-row `countries` scan at parallelism 8 over four simulated
//! endpoints, with a single [`ChaosPlan`] scheduling a hard-down outage, a
//! 20× latency storm and an error burst. Three invariants are checked by
//! [`ChaosSuiteOutcome::verify`], and a fourth at the end of every run:
//!
//! 1. **Faults never change answers.** The rows produced under chaos (with
//!    breakers, hedging and failover absorbing the faults) are byte-identical
//!    to the no-chaos run.
//! 2. **Retry spend is bounded.** Total physical attempts never exceed
//!    `logical calls × backends × (1 + retries)` plus the hedges issued.
//! 3. **Chaos is deterministic.** With interleaving-independent routing
//!    ([`RoutingPolicy::PromptHash`], breakers and hedging off), the same
//!    seed reproduces identical per-backend counters run over run.
//! 4. **Accounting is conserved.** Each run is one query on a fresh
//!    deployment, so the query's own bill — model calls, tokens, per-backend
//!    attempts and errors, hedges — equals the deployment's counters however
//!    many retries, failovers and hedges the faults caused
//!    ([`run_chaos_scan`] fails otherwise).

use llmsql_core::{Engine, QueryResult};
use llmsql_llm::{BackendStats, UsageStats};
use llmsql_types::{
    BackendSpec, Batch, ChaosFault, ChaosPlan, EngineConfig, Error, ExecutionMode, LlmFidelity,
    PromptStrategy, Result, RoutingPolicy,
};

use crate::world::{World, WorldSpec};

/// The four endpoints of the chaos deployment.
pub const CHAOS_BACKENDS: [&str; 4] = ["edge-a", "edge-b", "edge-c", "edge-d"];

/// Rows in the scanned `countries` relation.
pub const CHAOS_ROWS: usize = 200;

/// The scan the scenario drives.
pub const CHAOS_SQL: &str = "SELECT name, population FROM countries";

/// The world spec backing the scenario: 200 countries, everything else tiny.
pub fn chaos_world_spec(seed: u64) -> WorldSpec {
    WorldSpec {
        countries: CHAOS_ROWS,
        cities_per_country: 1,
        people: 10,
        movies: 10,
        seed,
    }
}

/// The canonical fault schedule: one hard-down window on `edge-a`, one 20×
/// latency storm on `edge-b` and one error burst on `edge-c`, all from a
/// single seeded plan over a 10-second virtual horizon. `edge-d` stays
/// healthy throughout, so failover always has somewhere to land.
pub fn chaos_plan(seed: u64) -> ChaosPlan {
    ChaosPlan::new(seed, 10_000)
        .with_window("edge-a", ChaosFault::Outage, 0, 5_000)
        .with_window(
            "edge-b",
            ChaosFault::LatencyStorm { factor: 20.0 },
            2_000,
            8_000,
        )
        .with_window(
            "edge-c",
            ChaosFault::ErrorBurst { error_rate: 0.4 },
            1_000,
            9_000,
        )
}

/// Build the scenario engine over `world`: four ~1–3ms backends, LLM-only
/// batched scan at parallelism 8, prompt-hash routing (deterministic and
/// interleaving-independent). `resilient` adds the absorption machinery —
/// circuit breakers and hedged requests; `chaos` attaches the fault plan.
pub fn chaos_engine(
    world: &World,
    seed: u64,
    chaos: Option<ChaosPlan>,
    resilient: bool,
) -> Result<Engine> {
    let specs = CHAOS_BACKENDS
        .iter()
        .enumerate()
        .map(|(i, name)| BackendSpec::new(*name).with_latency_ms(1.0 + i as f64 * 0.5))
        .collect();
    let mut config = EngineConfig::default()
        .with_mode(ExecutionMode::LlmOnly)
        .with_strategy(PromptStrategy::BatchedRows)
        .with_fidelity(LlmFidelity::perfect())
        .with_batch_size(20)
        .with_parallelism(8)
        .with_seed(seed)
        .with_backends(specs)
        .with_routing_policy(RoutingPolicy::PromptHash);
    config.enable_prompt_cache = false;
    config.backend_backoff_ms = 0.0;
    if resilient {
        config = config.with_circuit_breaker(3, 50.0).with_hedging(3.0, 5.0);
    }
    if let Some(plan) = chaos {
        config = config.with_chaos(plan);
    }
    world.subject_engine(config)
}

/// Everything one scenario run produced.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The result rows (compared byte-for-byte across runs).
    pub batch: Batch,
    /// Logical LLM calls the query issued.
    pub logical_calls: u64,
    /// Physical attempts across all backends (includes failures/retries).
    pub attempts: u64,
    /// Failed attempts across all backends.
    pub errors: u64,
    /// Retry attempts across all backends.
    pub retries: u64,
    /// Hedge requests issued across all backends.
    pub hedges: u64,
    /// Per-backend counters (determinism is asserted on these).
    pub backend_stats: Vec<BackendStats>,
}

/// The conservation invariant of accounting: the bills of `results` — every
/// query a deployment has served, all finished — sum to the deployment's own
/// counters, the client's `usage` and the pool's per-backend `backends`:
/// model calls, cache hits, tokens, dollars and reported latency; attempts,
/// errors and reported latency per backend; hedges issued and won. Fails
/// naming the first number that does not add up.
pub fn check_accounting_conserved(
    results: &[QueryResult],
    usage: &UsageStats,
    backends: &[BackendStats],
) -> Result<()> {
    let differs = |what: &str, billed: f64, counted: f64| {
        let tolerance = 1e-9 * billed.abs().max(counted.abs()).max(1.0);
        if (billed - counted).abs() <= tolerance {
            return Ok(());
        }
        Err(Error::execution(format!(
            "accounting is not conserved: {what}: the queries were billed {billed}, \
             the deployment counted {counted}"
        )))
    };
    let mut billed = UsageStats::default();
    for result in results {
        billed.absorb(&result.metrics.usage);
    }
    differs("model calls", billed.calls as f64, usage.calls as f64)?;
    differs(
        "cache hits",
        billed.cache_hits as f64,
        usage.cache_hits as f64,
    )?;
    differs(
        "tokens",
        billed.total_tokens() as f64,
        usage.total_tokens() as f64,
    )?;
    differs("USD", billed.cost_usd, usage.cost_usd)?;
    differs("model latency", billed.latency_ms, usage.latency_ms)?;
    let metrics = || results.iter().map(|r| &r.metrics);
    for backend in backends {
        let id = &backend.id;
        let (mut calls, mut errors, mut latency_ms) = (0, 0, 0.0);
        for m in metrics() {
            calls += m.backend_calls.get(id).copied().unwrap_or(0);
            errors += m.backend_errors.get(id).copied().unwrap_or(0);
            latency_ms += m.backend_latency_ms.get(id).copied().unwrap_or(0.0);
        }
        differs(
            &format!("attempts on {id}"),
            calls as f64,
            backend.calls as f64,
        )?;
        differs(
            &format!("errors on {id}"),
            errors as f64,
            backend.errors as f64,
        )?;
        differs(&format!("latency on {id}"), latency_ms, backend.latency_ms)?;
    }
    let hedges: u64 = metrics().map(|m| m.hedges_issued).sum();
    let counted: u64 = backends.iter().map(|b| b.hedges).sum();
    differs("hedges issued", hedges as f64, counted as f64)?;
    let won: u64 = metrics().map(|m| m.hedges_won).sum();
    let counted: u64 = backends.iter().map(|b| b.hedges_won).sum();
    differs("hedges won", won as f64, counted as f64)
}

/// Execute the scenario scan on `engine` (fresh: the scan is all its client
/// and pool have served), check that the query's bill is the deployment's
/// ([`check_accounting_conserved`]), and collect the report.
pub fn run_chaos_scan(engine: &Engine) -> Result<ChaosReport> {
    let result = engine.execute(CHAOS_SQL)?;
    let client = engine.client();
    let backend_stats = client.and_then(|c| c.backend_stats()).unwrap_or_default();
    let usage = client.map(|c| c.usage()).unwrap_or_default();
    check_accounting_conserved(std::slice::from_ref(&result), &usage, &backend_stats)?;
    Ok(ChaosReport {
        logical_calls: result.metrics.llm_calls(),
        attempts: backend_stats.iter().map(|s| s.calls).sum(),
        errors: backend_stats.iter().map(|s| s.errors).sum(),
        retries: backend_stats.iter().map(|s| s.retries).sum(),
        hedges: backend_stats.iter().map(|s| s.hedges).sum(),
        backend_stats,
        batch: result.batch,
    })
}

/// The four runs of the suite (see [`run_chaos_suite`]).
#[derive(Debug, Clone)]
pub struct ChaosSuiteOutcome {
    /// Fault-free run with the full absorption machinery on.
    pub baseline: ChaosReport,
    /// Chaos with breakers/hedging *off* and prompt-hash routing — first run.
    pub deterministic_first: ChaosReport,
    /// Same engine configuration and seed, fresh engine — must match exactly.
    pub deterministic_second: ChaosReport,
    /// Chaos with breakers, hedging and failover absorbing the faults.
    pub absorbed: ChaosReport,
    /// The retry-spend ceiling the absorbed run must respect:
    /// `logical × backends × (1 + retries)` + hedges issued.
    pub attempt_ceiling: u64,
}

/// Run the full suite at `seed`: baseline, the deterministic chaos pair and
/// the absorbed chaos run, all over the same generated world.
pub fn run_chaos_suite(seed: u64) -> Result<ChaosSuiteOutcome> {
    let world = World::generate(chaos_world_spec(seed))?;
    let baseline = run_chaos_scan(&chaos_engine(&world, seed, None, true)?)?;
    let deterministic_first =
        run_chaos_scan(&chaos_engine(&world, seed, Some(chaos_plan(seed)), false)?)?;
    let deterministic_second =
        run_chaos_scan(&chaos_engine(&world, seed, Some(chaos_plan(seed)), false)?)?;
    let absorbed = run_chaos_scan(&chaos_engine(&world, seed, Some(chaos_plan(seed)), true)?)?;
    // backend_retries defaults to 1 extra attempt per backend; every logical
    // call may in the worst case walk the whole failover chain.
    let retries_per_backend = 1 + EngineConfig::default().backend_retries as u64;
    let attempt_ceiling =
        absorbed.logical_calls * CHAOS_BACKENDS.len() as u64 * retries_per_backend
            + absorbed.hedges;
    Ok(ChaosSuiteOutcome {
        baseline,
        deterministic_first,
        deterministic_second,
        absorbed,
        attempt_ceiling,
    })
}

impl ChaosSuiteOutcome {
    /// Check the three robustness invariants, failing with a structured
    /// error naming the first one violated.
    pub fn verify(&self) -> Result<()> {
        if self.baseline.batch.rows.len() != CHAOS_ROWS {
            return Err(Error::execution(format!(
                "baseline returned {} rows, expected {CHAOS_ROWS}",
                self.baseline.batch.rows.len()
            )));
        }
        if self.absorbed.batch.rows != self.baseline.batch.rows {
            return Err(Error::execution(
                "chaos changed the answer: absorbed rows differ from the no-chaos run",
            ));
        }
        if self.deterministic_first.batch.rows != self.baseline.batch.rows {
            return Err(Error::execution(
                "chaos changed the answer: deterministic rows differ from the no-chaos run",
            ));
        }
        if self.absorbed.attempts > self.attempt_ceiling {
            return Err(Error::execution(format!(
                "retry spend unbounded: {} attempts exceed the ceiling {} \
                 ({} logical calls, {} hedges)",
                self.absorbed.attempts,
                self.attempt_ceiling,
                self.absorbed.logical_calls,
                self.absorbed.hedges
            )));
        }
        if self.deterministic_first.backend_stats != self.deterministic_second.backend_stats {
            return Err(Error::execution(format!(
                "chaos is not deterministic: same seed produced different backend stats\n\
                 first:  {:?}\nsecond: {:?}",
                self.deterministic_first.backend_stats, self.deterministic_second.backend_stats
            )));
        }
        if self.deterministic_first.errors == 0 {
            return Err(Error::execution(
                "the fault schedule injected no failures — the scenario tested nothing",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_valid_and_covers_three_fault_kinds() {
        let plan = chaos_plan(42);
        plan.validate().unwrap();
        assert_eq!(plan.windows.len(), 3);
        assert!(plan
            .windows
            .iter()
            .any(|w| matches!(w.fault, ChaosFault::Outage)));
        assert!(plan
            .windows
            .iter()
            .any(|w| matches!(w.fault, ChaosFault::LatencyStorm { .. })));
        assert!(plan
            .windows
            .iter()
            .any(|w| matches!(w.fault, ChaosFault::ErrorBurst { .. })));
        // Only named chaos backends appear; edge-d stays clean for failover.
        for w in &plan.windows {
            assert!(CHAOS_BACKENDS.contains(&w.backend.as_str()));
            assert_ne!(w.backend, "edge-d");
        }
    }

    #[test]
    fn suite_invariants_hold_at_the_smoke_seed() {
        let outcome = run_chaos_suite(2024).unwrap();
        outcome.verify().unwrap();
        // The absorbed run really exercised recovery machinery.
        assert!(outcome.absorbed.attempts >= outcome.absorbed.logical_calls);
        assert_eq!(outcome.absorbed.batch.rows.len(), CHAOS_ROWS);
    }
}
