//! The headline scenario of the paper: answering SQL over a *virtual* schema
//! whose data lives only in the language model's knowledge.
//!
//! The example generates a synthetic world atlas, hands it to the simulated
//! model as its "parametric knowledge", and then answers SQL against virtual
//! tables — comparing the answers, the model-call counts and the accuracy
//! against the relational ground truth.
//!
//! ```sh
//! cargo run --example world_atlas_llm
//! ```

use llmsql_core::score_batches;
use llmsql_types::{EngineConfig, ExecutionMode, LlmFidelity, PromptStrategy};
use llmsql_workload::{World, WorldSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The ground truth: a synthetic world atlas stored relationally.
    let world = World::generate(WorldSpec {
        countries: 40,
        cities_per_country: 3,
        people: 60,
        movies: 40,
        seed: 2024,
    })?;
    let oracle = world.oracle_engine();

    // The subject: the same schema, but every scan is answered by the
    // (simulated) language model at "strong commercial model" fidelity.
    let subject = world.subject_engine(
        EngineConfig::default()
            .with_mode(ExecutionMode::LlmOnly)
            .with_strategy(PromptStrategy::BatchedRows)
            .with_fidelity(LlmFidelity::strong()),
    )?;

    let queries = [
        "SELECT name, capital FROM countries WHERE region = 'Europe'",
        "SELECT name, population FROM countries ORDER BY population DESC LIMIT 5",
        "SELECT c.region, COUNT(*) FROM cities ci JOIN countries c ON ci.country = c.name GROUP BY c.region",
        "SELECT profession, COUNT(*) FROM people GROUP BY profession",
    ];

    for sql in queries {
        println!("SQL> {sql}");
        let truth = oracle.execute(sql)?;
        let answer = subject.execute(sql)?;
        let score = score_batches(&answer.batch, &truth.batch, false);
        println!("{}", answer.to_ascii_table());
        println!(
            "  model: {} calls, {} tokens, ${:.4}, ~{:.0} ms simulated latency",
            answer.metrics.llm_calls(),
            answer.metrics.usage.total_tokens(),
            answer.metrics.usage.cost_usd,
            answer.metrics.usage.latency_ms,
        );
        println!(
            "  accuracy vs ground truth: precision {:.2}, recall {:.2}, F1 {:.2}{}",
            score.precision,
            score.recall,
            score.f1,
            if score.exact { "  (exact)" } else { "" }
        );
        println!();
    }
    Ok(())
}
