//! Compare the four prompting strategies on one query: what the engine sends
//! to the model, how many calls it makes, what it costs, and how good the
//! answer is.
//!
//! ```sh
//! cargo run --example prompt_strategies
//! ```

use llmsql_core::score_batches;
use llmsql_types::{EngineConfig, ExecutionMode, LlmFidelity, PromptStrategy};
use llmsql_workload::{World, WorldSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let world = World::generate(WorldSpec {
        countries: 30,
        cities_per_country: 3,
        people: 30,
        movies: 20,
        seed: 11,
    })?;
    let oracle = world.oracle_engine();
    let sql =
        "SELECT name, capital FROM countries WHERE region = 'Europe' AND population > 1000000";
    let truth = oracle.execute(sql)?;
    println!("SQL> {sql}");
    println!("ground truth: {} rows\n", truth.row_count());

    for strategy in PromptStrategy::ALL {
        let subject = world.subject_engine(
            EngineConfig::default()
                .with_mode(ExecutionMode::LlmOnly)
                .with_strategy(strategy)
                .with_fidelity(LlmFidelity::strong()),
        )?;
        let answer = subject.execute(sql)?;
        let score = score_batches(&answer.batch, &truth.batch, false);
        println!("strategy: {strategy}");
        println!(
            "  rows {:>3}   F1 {:.2}   calls {:>3}   tokens {:>6}   cost ${:.4}   simulated latency {:>7.0} ms",
            answer.row_count(),
            score.f1,
            answer.metrics.llm_calls(),
            answer.metrics.usage.total_tokens(),
            answer.metrics.usage.cost_usd,
            answer.metrics.usage.latency_ms,
        );
        // Show which prompt kinds this strategy used.
        let kinds: Vec<String> = answer
            .metrics
            .llm_calls_by_kind
            .iter()
            .map(|(k, v)| format!("{k}×{v}"))
            .collect();
        println!("  prompt kinds: {}\n", kinds.join(", "));
    }

    println!("-- the optimized plan behind the non-full-query strategies --");
    let subject = world.subject_engine(
        EngineConfig::default()
            .with_mode(ExecutionMode::LlmOnly)
            .with_fidelity(LlmFidelity::strong()),
    )?;
    let explain = subject.execute(&format!("EXPLAIN {sql}"))?;
    println!("{}", explain.plan.unwrap_or_default());
    Ok(())
}
