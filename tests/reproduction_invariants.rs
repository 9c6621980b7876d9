//! Differential and invariant tests that pin down the properties the
//! reproduction's experiments rely on:
//!
//! * the optimizer never changes answers (Traditional mode, optimizer on vs
//!   off, over the whole generated query suite),
//! * LLM-only execution at perfect fidelity equals Traditional execution for
//!   every generated query and every decomposed strategy,
//! * the simulator is deterministic for a fixed seed and differs across
//!   seeds,
//! * degradation + hybrid completion round-trips at perfect fidelity.

use llmsql_core::{score_batches, Engine};
use llmsql_store::{degrade_catalog, DegradeSpec};
use llmsql_types::{EngineConfig, ExecutionMode, LlmFidelity, OptimizerOptions, PromptStrategy};
use llmsql_workload::{join_chain_suite, standard_suite, World, WorldSpec};

fn world() -> World {
    World::generate(WorldSpec {
        countries: 20,
        cities_per_country: 2,
        people: 30,
        movies: 20,
        seed: 13,
    })
    .unwrap()
}

#[test]
fn optimizer_never_changes_traditional_answers() {
    let w = world();
    let optimized = w.oracle_engine();
    let mut config = EngineConfig::default().with_mode(ExecutionMode::Traditional);
    config.optimizer = OptimizerOptions::disabled();
    let unoptimized = Engine::with_catalog(w.catalog.clone(), config);

    let queries: Vec<_> = standard_suite(&w, 3)
        .into_iter()
        .chain(join_chain_suite(3))
        .collect();
    for q in queries {
        let a = optimized.execute(&q.sql).unwrap();
        let b = unoptimized.execute(&q.sql).unwrap();
        let score = score_batches(&a.batch, &b.batch, false);
        assert!(
            score.exact,
            "optimizer changed the answer of {}: {score:?}",
            q.sql
        );
    }
}

#[test]
fn llm_only_at_perfect_fidelity_is_a_drop_in_replacement() {
    let w = world();
    let oracle = w.oracle_engine();
    for strategy in [PromptStrategy::BatchedRows, PromptStrategy::TupleAtATime] {
        let subject = w
            .subject_engine(
                EngineConfig::default()
                    .with_mode(ExecutionMode::LlmOnly)
                    .with_strategy(strategy)
                    .with_fidelity(LlmFidelity::perfect()),
            )
            .unwrap();
        for q in standard_suite(&w, 2) {
            let truth = oracle.execute(&q.sql).unwrap();
            let answer = subject.execute(&q.sql).unwrap();
            let score = score_batches(&answer.batch, &truth.batch, q.order_sensitive);
            assert!(
                score.exact,
                "strategy {strategy}, query {} diverged: {score:?}\n{}",
                q.id, q.sql
            );
        }
    }
}

#[test]
fn simulator_is_deterministic_per_seed_and_varies_across_seeds() {
    let w = world();
    let sql = "SELECT name, capital, population FROM countries";
    let run = |seed: u64| {
        let subject = w
            .subject_engine(
                EngineConfig::default()
                    .with_mode(ExecutionMode::LlmOnly)
                    .with_fidelity(LlmFidelity::medium())
                    .with_seed(seed),
            )
            .unwrap();
        subject.execute(sql).unwrap().batch
    };
    let a1 = run(100);
    let a2 = run(100);
    assert_eq!(a1, a2, "same seed must give identical answers");
    let b = run(101);
    assert_ne!(a1, b, "different seeds should give different noisy answers");
}

#[test]
fn degradation_then_hybrid_completion_round_trips() {
    let w = world();
    let oracle = w.oracle_engine();
    let (degraded, report) = degrade_catalog(&w.catalog, &DegradeSpec::nulls(0.6, 5)).unwrap();
    assert!(report.nulled_values > 0);
    let hybrid = w
        .subject_engine_with_catalog(
            degraded,
            EngineConfig::default()
                .with_mode(ExecutionMode::Hybrid)
                .with_fidelity(LlmFidelity::perfect()),
        )
        .unwrap();
    for q in standard_suite(&w, 2) {
        // Aggregates over degraded-and-refilled stores are exact only if every
        // referenced cell was refilled; at perfect fidelity they must be.
        let truth = oracle.execute(&q.sql).unwrap();
        let answer = hybrid.execute(&q.sql).unwrap();
        let score = score_batches(&answer.batch, &truth.batch, false);
        assert!(
            score.exact,
            "hybrid at perfect fidelity diverged on {}: {score:?}",
            q.sql
        );
    }
}

#[test]
fn fidelity_knobs_shift_precision_and_recall_in_the_expected_direction() {
    let w = world();
    let oracle = w.oracle_engine();
    let sql = "SELECT name, capital FROM countries";
    let truth = oracle.execute(sql).unwrap();

    // A model that forgets (low recall knob, no hallucination) loses recall
    // but keeps precision high.
    let forgetful = {
        let mut f = LlmFidelity::perfect();
        f.recall = 0.5;
        f.enumeration_coverage = 0.5;
        f
    };
    let subject = w
        .subject_engine(
            EngineConfig::default()
                .with_mode(ExecutionMode::LlmOnly)
                .with_fidelity(forgetful),
        )
        .unwrap();
    let score = score_batches(&subject.execute(sql).unwrap().batch, &truth.batch, false);
    assert!(
        score.recall < 0.9,
        "forgetful model should miss rows: {score:?}"
    );
    assert!(
        score.precision >= score.recall,
        "forgetting should hurt recall more than precision: {score:?}"
    );

    // A model that fabricates (hallucination high) loses precision.
    let fabulist = {
        let mut f = LlmFidelity::perfect();
        f.hallucination = 0.9;
        f.enumeration_coverage = 0.6;
        f
    };
    let subject = w
        .subject_engine(
            EngineConfig::default()
                .with_mode(ExecutionMode::LlmOnly)
                .with_fidelity(fabulist),
        )
        .unwrap();
    let score = score_batches(&subject.execute(sql).unwrap().batch, &truth.batch, false);
    assert!(
        score.precision < 1.0,
        "fabricating model should hallucinate rows: {score:?}"
    );
}

#[test]
fn parallel_dispatch_is_deterministic_at_any_width() {
    // Same seed + same query must yield byte-identical result batches — and
    // therefore identical fidelity-noise outcomes — whether scan prompts are
    // dispatched sequentially or 4/8 at a time. Noise is a pure function of
    // (seed, prompt) and scans reassemble completions in page/tuple order,
    // so thread interleaving must never leak into answers.
    let w = world();
    let run = |strategy: PromptStrategy, fidelity: LlmFidelity, parallelism: usize| {
        let subject = w
            .subject_engine(
                EngineConfig::default()
                    .with_mode(ExecutionMode::LlmOnly)
                    .with_strategy(strategy)
                    .with_fidelity(fidelity)
                    .with_seed(77)
                    .with_parallelism(parallelism),
            )
            .unwrap();
        let mut tables = Vec::new();
        for q in standard_suite(&w, 2) {
            tables.push(subject.execute(&q.sql).unwrap().batch.to_ascii_table());
        }
        tables
    };
    for strategy in [
        PromptStrategy::BatchedRows,
        PromptStrategy::TupleAtATime,
        PromptStrategy::DecomposedOperators,
    ] {
        // medium fidelity exercises recall loss, hallucination, corruption
        // and format noise; perfect fidelity pins the lossless path.
        for fidelity in [LlmFidelity::perfect(), LlmFidelity::medium()] {
            let sequential = run(strategy, fidelity, 1);
            for parallelism in [4, 8] {
                let parallel = run(strategy, fidelity, parallelism);
                assert_eq!(
                    sequential, parallel,
                    "strategy {strategy} diverged at parallelism {parallelism}"
                );
            }
        }
    }
}
