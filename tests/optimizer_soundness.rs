//! Optimizer soundness over the whole generated workload, in LLM-only mode:
//! for every query in the standard suite, the optimized plan must return
//! byte-identical rows to a fully disabled optimizer, and must never issue
//! *more* LLM calls. This is the property the static cost model and the
//! rewrite rules are allowed to assume — rewrites change cost, never
//! answers.

use llmsql_core::Engine;
use llmsql_types::{
    EngineConfig, ExecutionMode, LlmFidelity, OptimizerOptions, PromptStrategy, Row,
};
use llmsql_workload::{standard_suite, World, WorldSpec};

fn world() -> World {
    World::generate(WorldSpec {
        countries: 15,
        cities_per_country: 2,
        people: 20,
        movies: 15,
        seed: 23,
    })
    .unwrap()
}

fn subject(w: &World, optimize: bool) -> Engine {
    let mut config = EngineConfig::default()
        .with_mode(ExecutionMode::LlmOnly)
        .with_strategy(PromptStrategy::BatchedRows)
        .with_fidelity(LlmFidelity::perfect());
    if !optimize {
        config.optimizer = OptimizerOptions::disabled();
    }
    w.subject_engine(config).unwrap()
}

/// Canonical form for order-insensitive comparison: render each row and
/// sort the renderings, so the comparison is still byte-level per row.
fn canonical(rows: &[Row], order_sensitive: bool) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    if !order_sensitive {
        out.sort();
    }
    out
}

#[test]
fn optimized_plans_match_unoptimized_rows_with_no_extra_llm_calls() {
    let w = world();
    let optimized = subject(&w, true);
    let unoptimized = subject(&w, false);

    let mut total_opt_calls = 0u64;
    let mut total_unopt_calls = 0u64;
    for q in standard_suite(&w, 2) {
        let a = optimized.execute(&q.sql).unwrap();
        let b = unoptimized.execute(&q.sql).unwrap();
        assert_eq!(
            canonical(&a.batch.rows, q.order_sensitive),
            canonical(&b.batch.rows, q.order_sensitive),
            "optimizer changed the rows of {} ({})",
            q.id,
            q.sql
        );
        let opt_calls = a.metrics.llm_calls();
        let unopt_calls = b.metrics.llm_calls();
        assert!(
            opt_calls <= unopt_calls,
            "optimizer increased LLM calls for {} ({}): {opt_calls} > {unopt_calls}",
            q.id,
            q.sql
        );
        total_opt_calls += opt_calls;
        total_unopt_calls += unopt_calls;
    }
    assert!(
        total_opt_calls <= total_unopt_calls,
        "suite-wide: {total_opt_calls} > {total_unopt_calls}"
    );
}
