//! The paper's experiments, one function per table or figure, each returning
//! a [`Report`]. `cargo run --release -p llmsql-workload --bin reproduce`
//! prints them all; `tests/reproduction_golden.rs` compares each table's
//! deterministic columns with a committed golden file and checks the
//! orderings the paper reports on the same run.
//!
//! Every table but E8 queries the same synthetic world with the same subject
//! configuration, so numbers are comparable across tables. Every cell is a
//! function of (seed, config) except the timing columns (engine wall time).

use llmsql_core::EvalOptions;
use llmsql_store::{degrade_catalog, DegradeSpec};
use llmsql_types::{
    EngineConfig, ExecutionMode, LlmFidelity, OptimizerOptions, PromptStrategy, Result,
};

use crate::harness::{run_suite, CaseOutcome, SuiteOutcome};
use crate::queries::{cardinality_suite, join_chain_suite, standard_suite, QueryCase, QueryClass};
use crate::report::{Cell, Report};
use crate::world::{World, WorldSpec};

/// Every table, in the paper's order.
pub const TABLES: [fn() -> Result<Report>; 9] = [
    e1_operator_accuracy,
    e2_strategies,
    e3_cardinality,
    e4_complexity,
    e5_model_quality,
    e6_hybrid,
    e7_cost,
    e8_engine_overhead,
    e9_ablation,
];

/// Queries per operator class in the accuracy tables.
const QUERIES_PER_CLASS: usize = 12;

/// The world the tables query (moderate, so all of them finish in seconds).
fn world() -> Result<World> {
    World::generate(WorldSpec {
        countries: 80,
        cities_per_country: 4,
        people: 150,
        movies: 100,
        seed: 2024,
    })
}

/// The LLM-only subject configuration the tables start from.
fn llm_config(strategy: PromptStrategy, fidelity: LlmFidelity) -> EngineConfig {
    EngineConfig::default()
        .with_mode(ExecutionMode::LlmOnly)
        .with_strategy(strategy)
        .with_fidelity(fidelity)
        .with_seed(2024)
}

/// Run `suite` on `world`'s oracle and on a subject engine built from
/// `config`, scoring every answer exactly.
fn run(world: &World, config: EngineConfig, suite: &[QueryCase]) -> Result<SuiteOutcome> {
    let subject = world.subject_engine(config)?;
    run_suite(
        &world.oracle_engine(),
        &subject,
        suite,
        &EvalOptions::exact(),
    )
}

fn of_class(outcome: &SuiteOutcome, class: QueryClass) -> Vec<&CaseOutcome> {
    outcome
        .cases
        .iter()
        .filter(|c| c.case.class == class)
        .collect()
}

/// E1 (Table 1): per-operator accuracy of LLM-only execution at strong
/// fidelity, against the relational oracle.
pub fn e1_operator_accuracy() -> Result<Report> {
    let world = world()?;
    let suite = standard_suite(&world, QUERIES_PER_CLASS);
    let outcome = run(
        &world,
        llm_config(PromptStrategy::BatchedRows, LlmFidelity::strong()),
        &suite,
    )?;
    let mut report = Report::new(
        "E1 / Table 1 — per-operator accuracy (LLM-only, strong fidelity)",
        &[
            "operator class",
            "queries",
            "precision",
            "recall",
            "F1",
            "exact",
            "llm calls/query",
        ],
    );
    let by_class = outcome.by_class();
    let overall = outcome.overall();
    let rows = by_class
        .iter()
        .map(|(class, score)| {
            let calls: u64 = of_class(&outcome, *class).iter().map(|c| c.llm_calls).sum();
            (class.label(), score, calls)
        })
        .chain([("ALL", &overall, outcome.total_llm_calls())]);
    for (label, score, calls) in rows {
        report.row(vec![
            label.into(),
            score.len().into(),
            Cell::score(score.precision()),
            Cell::score(score.recall()),
            Cell::score(score.f1()),
            Cell::score(score.exact_rate()),
            Cell::fixed(calls as f64 / score.len().max(1) as f64, 1),
        ]);
    }
    Ok(report)
}

/// E2 (Table 2): the four prompting strategies on one mixed suite —
/// accuracy, model calls, tokens, cost and latency.
pub fn e2_strategies() -> Result<Report> {
    let world = world()?;
    let suite = standard_suite(&world, QUERIES_PER_CLASS / 2);
    let mut report = Report::new(
        "E2 / Table 2 — prompting strategies (strong fidelity, mixed suite)",
        &[
            "strategy",
            "precision",
            "recall",
            "F1",
            "llm calls",
            "tokens",
            "cost ($)",
            "mean model latency (ms)",
        ],
    )
    .with_timings(&["mean engine (ms)"]);
    for strategy in PromptStrategy::ALL {
        let outcome = run(&world, llm_config(strategy, LlmFidelity::strong()), &suite)?;
        let overall = outcome.overall();
        report.row(vec![
            strategy.label().into(),
            Cell::score(overall.precision()),
            Cell::score(overall.recall()),
            Cell::score(overall.f1()),
            outcome.total_llm_calls().into(),
            outcome.total_tokens().into(),
            Cell::fixed(outcome.total_cost_usd(), 2),
            Cell::fixed(outcome.mean_model_latency_ms(), 2),
            Cell::fixed(outcome.mean_engine_ms(), 2),
        ]);
    }
    Ok(report)
}

/// E3 (Figure): accuracy and model calls of `LIMIT k` scans as the requested
/// cardinality k grows, per strategy.
pub fn e3_cardinality() -> Result<Report> {
    let world = world()?;
    let ks = [1usize, 5, 10, 20, 40, 80];
    let suite = cardinality_suite(&ks);
    let mut report = Report::new(
        "E3 / Figure — accuracy vs result cardinality (strong fidelity)",
        &[
            "limit k",
            "strategy",
            "precision",
            "recall",
            "F1",
            "llm calls",
        ],
    );
    for strategy in [
        PromptStrategy::FullQuery,
        PromptStrategy::BatchedRows,
        PromptStrategy::TupleAtATime,
    ] {
        let outcome = run(&world, llm_config(strategy, LlmFidelity::strong()), &suite)?;
        for (k, case) in ks.iter().zip(&outcome.cases) {
            report.row(vec![
                (*k).into(),
                strategy.label().into(),
                Cell::score(case.score.precision),
                Cell::score(case.score.recall),
                Cell::score(case.score.f1),
                case.llm_calls.into(),
            ]);
        }
    }
    Ok(report)
}

/// E4 (Figure): model calls, tokens, latency and accuracy of join chains of
/// 0–3 joins.
pub fn e4_complexity() -> Result<Report> {
    let world = world()?;
    let suite = join_chain_suite(3);
    let mut report = Report::new(
        "E4 / Figure — cost and accuracy vs number of joins (strong fidelity)",
        &[
            "joins",
            "strategy",
            "precision",
            "recall",
            "F1",
            "llm calls",
            "tokens",
            "model latency (ms)",
        ],
    )
    .with_timings(&["engine (ms)"]);
    for strategy in [PromptStrategy::FullQuery, PromptStrategy::BatchedRows] {
        let outcome = run(&world, llm_config(strategy, LlmFidelity::strong()), &suite)?;
        for (joins, case) in outcome.cases.iter().enumerate() {
            report.row(vec![
                joins.into(),
                strategy.label().into(),
                Cell::score(case.score.precision),
                Cell::score(case.score.recall),
                Cell::score(case.score.f1),
                case.llm_calls.into(),
                case.tokens.into(),
                Cell::fixed(case.model_latency_ms, 2),
                Cell::fixed(case.engine_ms, 2),
            ]);
        }
    }
    Ok(report)
}

/// E5 (Figure): accuracy of the mixed suite as the simulated model's quality
/// q sweeps from weak (0) to perfect (1).
pub fn e5_model_quality() -> Result<Report> {
    let world = world()?;
    let suite = standard_suite(&world, QUERIES_PER_CLASS / 2);
    let mut report = Report::new(
        "E5 / Figure — query accuracy vs model quality (batched-rows)",
        &[
            "quality q",
            "recall knob",
            "hallucination knob",
            "precision",
            "recall",
            "F1",
            "exact",
        ],
    );
    for step in 0..=5 {
        let q = f64::from(step) / 5.0;
        let fidelity = LlmFidelity::from_quality(q);
        let outcome = run(
            &world,
            llm_config(PromptStrategy::BatchedRows, fidelity),
            &suite,
        )?;
        let overall = outcome.overall();
        report.row(vec![
            Cell::fixed(q, 1),
            Cell::score(fidelity.recall),
            Cell::score(fidelity.hallucination),
            Cell::score(overall.precision()),
            Cell::score(overall.recall()),
            Cell::score(overall.f1()),
            Cell::score(overall.exact_rate()),
        ]);
    }
    Ok(report)
}

/// E6 (Figure): hybrid completion. A growing share of the store's attribute
/// values is replaced by NULL, and the suite is answered three ways:
/// traditional execution over the degraded store, hybrid execution (missing
/// values filled from the model) and LLM-only execution.
pub fn e6_hybrid() -> Result<Report> {
    let world = world()?;
    let suite = standard_suite(&world, QUERIES_PER_CLASS / 3);
    let oracle = world.oracle_engine();
    let mut report = Report::new(
        "E6 / Figure — hybrid completion vs store degradation (strong fidelity)",
        &[
            "missing values",
            "mode",
            "precision",
            "recall",
            "F1",
            "llm calls",
            "cells filled",
        ],
    );
    for missing in [0.0f64, 0.2, 0.4, 0.6, 0.8] {
        let (degraded, _) = degrade_catalog(
            &world.catalog,
            &DegradeSpec::nulls(missing, 11 + (missing * 100.0) as u64),
        )?;
        let traditional = llmsql_core::Engine::with_catalog(
            degraded.clone(),
            EngineConfig::default().with_mode(ExecutionMode::Traditional),
        );
        let hybrid = world.subject_engine_with_catalog(
            degraded,
            EngineConfig::default()
                .with_mode(ExecutionMode::Hybrid)
                .with_fidelity(LlmFidelity::strong()),
        )?;
        // A fresh engine per share, so its prompt cache starts empty.
        let llm_only = world.subject_engine(llm_config(
            PromptStrategy::BatchedRows,
            LlmFidelity::strong(),
        ))?;
        for (mode, engine) in [
            ("traditional", &traditional),
            ("hybrid", &hybrid),
            ("llm-only", &llm_only),
        ] {
            let outcome = run_suite(&oracle, engine, &suite, &EvalOptions::exact())?;
            let overall = outcome.overall();
            let filled: u64 = outcome.cases.iter().map(|c| c.cells_filled).sum();
            report.row(vec![
                format!("{:.0}%", missing * 100.0).into(),
                mode.into(),
                Cell::score(overall.precision()),
                Cell::score(overall.recall()),
                Cell::score(overall.f1()),
                outcome.total_llm_calls().into(),
                filled.into(),
            ]);
        }
    }
    Ok(report)
}

/// E7 (Table 3): prompts, tokens and dollars one query of each operator class
/// costs under each strategy.
pub fn e7_cost() -> Result<Report> {
    let world = world()?;
    let suite = standard_suite(&world, QUERIES_PER_CLASS / 2);
    let mut report = Report::new(
        "E7 / Table 3 — per-class cost of LLM-backed querying (strong fidelity)",
        &[
            "operator class",
            "strategy",
            "calls/query",
            "tokens/query",
            "cost/query ($)",
            "F1",
        ],
    );
    for strategy in [
        PromptStrategy::FullQuery,
        PromptStrategy::BatchedRows,
        PromptStrategy::TupleAtATime,
    ] {
        let outcome = run(&world, llm_config(strategy, LlmFidelity::strong()), &suite)?;
        for class in QueryClass::ALL {
            let cases = of_class(&outcome, class);
            if cases.is_empty() {
                continue;
            }
            let mean = |of: fn(&CaseOutcome) -> f64| {
                cases.iter().map(|c| of(c)).sum::<f64>() / cases.len() as f64
            };
            report.row(vec![
                class.label().into(),
                strategy.label().into(),
                Cell::fixed(mean(|c| c.llm_calls as f64), 1),
                Cell::fixed(mean(|c| c.tokens as f64), 0),
                Cell::fixed(mean(|c| c.cost_usd), 4),
                Cell::score(mean(|c| c.score.f1)),
            ]);
        }
    }
    Ok(report)
}

/// E8 (Figure): engine overhead. One selection in Traditional and LLM-only
/// mode over worlds of 100, 400 and 1000 countries. The model is simulated,
/// so its latency is not wall time and the timing column is the engine's own
/// parse, plan and execute.
pub fn e8_engine_overhead() -> Result<Report> {
    let sql = "SELECT name, population FROM countries WHERE population > 1000000";
    let mut report = Report::new(
        "E8 / Figure — engine overhead vs base-table size (perfect fidelity)",
        &["countries", "mode", "rows", "llm calls"],
    )
    .with_timings(&["engine (ms)"]);
    for countries in [100usize, 400, 1000] {
        let world = World::generate(WorldSpec {
            countries,
            cities_per_country: 2,
            people: 20,
            movies: 10,
            seed: 99,
        })?;
        let traditional = world.oracle_engine();
        let llm_only = world.subject_engine(
            llm_config(PromptStrategy::BatchedRows, LlmFidelity::perfect()).with_batch_size(50),
        )?;
        for (mode, engine) in [("traditional", &traditional), ("llm-only", &llm_only)] {
            let result = engine.execute(sql)?;
            report.row(vec![
                countries.into(),
                mode.into(),
                result.row_count().into(),
                result.metrics.llm_calls().into(),
                Cell::fixed(result.engine_ms, 2),
            ]);
        }
    }
    Ok(report)
}

/// E9 (Table 4): optimizer ablation. The call-minimising rewrite rules are
/// turned off one at a time; the last row adds the prompt cache back on top
/// of all rules.
pub fn e9_ablation() -> Result<Report> {
    let world = world()?;
    let suite = standard_suite(&world, QUERIES_PER_CLASS / 2);
    // The cache is off for the rule variants so each rule's effect is
    // measured alone: unfiltered, unpruned scan prompts repeat across
    // queries and would otherwise be served from the cache, hiding their cost.
    let mut base = llm_config(PromptStrategy::BatchedRows, LlmFidelity::strong());
    base.enable_prompt_cache = false;
    let mut no_pushdown = base.clone();
    no_pushdown.optimizer.predicate_pushdown = false;
    let mut no_pruning = base.clone();
    no_pruning.optimizer.projection_pruning = false;
    let mut optimizer_off = base.clone();
    optimizer_off.optimizer = OptimizerOptions::disabled();
    let mut cached = base.clone();
    cached.enable_prompt_cache = true;
    let mut report = Report::new(
        "E9 / Table 4 — optimizer ablation (batched-rows, strong fidelity)",
        &["configuration", "llm calls", "tokens", "cost ($)", "F1"],
    );
    for (label, config) in [
        ("all rules on", base),
        ("no predicate pushdown", no_pushdown),
        ("no projection pruning", no_pruning),
        ("optimizer off", optimizer_off),
        ("all rules on + prompt cache", cached),
    ] {
        let outcome = run(&world, config, &suite)?;
        report.row(vec![
            label.into(),
            outcome.total_llm_calls().into(),
            outcome.total_tokens().into(),
            Cell::fixed(outcome.total_cost_usd(), 2),
            Cell::score(outcome.overall().f1()),
        ]);
    }
    Ok(report)
}
