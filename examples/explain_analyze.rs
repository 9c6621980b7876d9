//! EXPLAIN / EXPLAIN ANALYZE: the static plan analyzer end to end.
//!
//! Builds a small world, points an LLM-only engine (perfect-fidelity
//! simulator) at it, and walks through what the analyzer surfaces:
//!
//! 1. `EXPLAIN` with the optimizer off — the plan lints call out every
//!    cost hazard (a filter evaluated *after* the LLM scan returns rows).
//! 2. `EXPLAIN` with the optimizer on — the fired-rule trace shows the
//!    rewrites and the estimated calls/USD/latency drop.
//! 3. `EXPLAIN ANALYZE` — the query actually runs and every operator line
//!    carries actual rows/calls/wall time next to the estimates.
//!
//! ```sh
//! cargo run --example explain_analyze
//! ```

use llmsql_core::{
    Engine, EngineConfig, ExecutionMode, LlmFidelity, OptimizerOptions, PromptStrategy,
};

const SQL: &str = "SELECT name FROM countries WHERE population > 50 AND region LIKE '%a%'";

fn subject(optimize: bool, oracle: &Engine) -> Result<Engine, Box<dyn std::error::Error>> {
    let mut config = EngineConfig::default()
        .with_mode(ExecutionMode::LlmOnly)
        .with_strategy(PromptStrategy::BatchedRows)
        .with_fidelity(LlmFidelity::perfect());
    if !optimize {
        config.optimizer = OptimizerOptions::disabled();
    }
    let kb = Engine::knowledge_from_catalog(oracle.catalog())?;
    let mut engine = Engine::with_catalog(oracle.catalog().deep_clone()?, config);
    engine.attach_simulator(kb.into_shared())?;
    Ok(engine)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let oracle = Engine::new(EngineConfig::default().with_mode(ExecutionMode::Traditional));
    oracle.execute_script(
        "CREATE TABLE countries (name TEXT PRIMARY KEY, region TEXT, population INTEGER);
         INSERT INTO countries VALUES
            ('France','Europe',68), ('Germany','Europe',84), ('Japan','Asia',125),
            ('Kenya','Africa',54), ('Peru','Americas',34), ('India','Asia',1428),
            ('Brazil','Americas',216), ('Norway','Europe',5), ('Chad','Africa',18),
            ('Laos','Asia',7)",
    )?;

    println!("== 1. EXPLAIN, optimizer off: the lints flag the hazards ==");
    let naive = subject(false, &oracle)?;
    let result = naive.execute(&format!("EXPLAIN {SQL}"))?;
    println!("{}", result.plan.unwrap_or_default());

    println!("== 2. EXPLAIN, optimizer on: rules fire, estimates drop ==");
    let tuned = subject(true, &oracle)?;
    let result = tuned.execute(&format!("EXPLAIN {SQL}"))?;
    println!("{}", result.plan.unwrap_or_default());

    println!("== 3. EXPLAIN ANALYZE: estimated vs. actual per operator ==");
    let result = tuned.execute(&format!("EXPLAIN ANALYZE {SQL}"))?;
    println!("{}", result.plan.unwrap_or_default());

    println!("== 4. The query itself, for reference ==");
    let answer = tuned.execute(SQL)?;
    println!("{}", answer.to_ascii_table());
    println!("LLM calls spent: {}", answer.metrics.llm_calls());

    Ok(())
}
