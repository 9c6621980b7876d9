//! Hybrid execution: a relational store with missing values, completed from
//! the language model at query time.
//!
//! The example degrades the ground-truth store (40% of attribute values
//! replaced by NULL), then answers the same queries three ways — traditional
//! over the damaged store, hybrid (model fills the gaps), and pure LLM-only —
//! and prints the accuracy of each against the undamaged oracle.
//!
//! ```sh
//! cargo run --example hybrid_completion
//! ```

use llmsql_core::{score_batches, Engine};
use llmsql_store::{degrade_catalog, DegradeSpec};
use llmsql_types::{EngineConfig, ExecutionMode, LlmFidelity, PromptStrategy};
use llmsql_workload::{World, WorldSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let world = World::generate(WorldSpec {
        countries: 30,
        cities_per_country: 3,
        people: 40,
        movies: 30,
        seed: 7,
    })?;
    let oracle = world.oracle_engine();

    // Damage the store: 40% of nullable attribute values disappear.
    let (degraded, report) = degrade_catalog(&world.catalog, &DegradeSpec::nulls(0.4, 99))?;
    println!(
        "degraded store: {} attribute values removed across {} rows\n",
        report.nulled_values, report.kept_rows
    );

    let traditional = Engine::with_catalog(
        degraded.clone(),
        EngineConfig::default().with_mode(ExecutionMode::Traditional),
    );
    let hybrid = world.subject_engine_with_catalog(
        degraded,
        EngineConfig::default()
            .with_mode(ExecutionMode::Hybrid)
            .with_fidelity(LlmFidelity::strong()),
    )?;
    let llm_only = world.subject_engine(
        EngineConfig::default()
            .with_mode(ExecutionMode::LlmOnly)
            .with_strategy(PromptStrategy::BatchedRows)
            .with_fidelity(LlmFidelity::strong()),
    )?;

    let queries = [
        "SELECT name, capital FROM countries WHERE region = 'Europe'",
        "SELECT name, population FROM countries WHERE population > 50000000",
        "SELECT region, COUNT(*) FROM countries GROUP BY region",
    ];

    for sql in queries {
        println!("SQL> {sql}");
        let truth = oracle.execute(sql)?;
        for (label, engine) in [
            ("traditional (damaged store)", &traditional),
            ("hybrid (store + model)     ", &hybrid),
            ("llm-only (model alone)     ", &llm_only),
        ] {
            let answer = engine.execute(sql)?;
            let score = score_batches(&answer.batch, &truth.batch, false);
            println!(
                "  {label}: F1 {:.2}  (precision {:.2}, recall {:.2}; {} model calls, {} cells filled)",
                score.f1,
                score.precision,
                score.recall,
                answer.metrics.llm_calls(),
                answer.metrics.cells_filled_by_llm,
            );
        }
        println!();
    }
    Ok(())
}
