//! Optimizer soundness over the whole generated workload, in LLM-only mode:
//! for every query in the standard suite, the optimized plan must return
//! byte-identical rows to a fully disabled optimizer, and must never issue
//! *more* LLM calls. This is the property the static cost model and the
//! rewrite rules are allowed to assume — rewrites change cost, never
//! answers. Each query runs twice on each engine, and the second run, from
//! the plan the engine kept for the text, must repeat the first exactly.

use llmsql_core::Engine;
use llmsql_plan::rules::{self, ALL_RULES};
use llmsql_plan::{bind_select, optimize, optimize_traced};
use llmsql_sql::{parse_statement, Statement};
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
        for (engine, first) in [(&optimized, &a), (&unoptimized, &b)] {
            let again = engine.execute(&q.sql).unwrap();
            assert_eq!(
                again.batch.rows, first.batch.rows,
                "a kept plan changed the rows of {} ({})",
                q.id, q.sql
            );
            assert_eq!(
                again.metrics.llm_calls_by_kind, first.metrics.llm_calls_by_kind,
                "a kept plan changed the calls of {} ({})",
                q.id, q.sql
            );
        }
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

/// `optimize` is the path every executed statement takes and
/// `optimize_traced` the one `EXPLAIN` prints: over the whole suite and all
/// 32 settings of the rule switches they build the same plan, and the trace
/// names exactly the rules whose output differed from their input — checked
/// against a clone-and-compare loop written out here.
#[test]
fn the_executed_plan_is_the_explained_plan_under_every_rule_switch() {
    let w = world();
    let engine = subject(&w, true);
    let mut plans = 0;
    for q in standard_suite(&w, 2) {
        let Statement::Select(select) = parse_statement(&q.sql).unwrap() else {
            panic!("the suite holds only queries: {}", q.sql);
        };
        let bound = bind_select(engine.catalog(), &select).unwrap();
        for switches in 0u8..32 {
            let on = |bit: u8| switches & (1 << bit) != 0;
            let options = OptimizerOptions {
                constant_folding: on(0),
                predicate_pushdown: on(1),
                limit_pushdown: on(2),
                conjunct_reordering: on(3),
                projection_pruning: on(4),
            };
            let enabled = |rule: &str| match rule {
                rules::RULE_CONSTANT_FOLD => options.constant_folding,
                rules::RULE_PREDICATE_PUSHDOWN => options.predicate_pushdown,
                rules::RULE_LIMIT_PUSHDOWN => options.limit_pushdown,
                rules::RULE_LLM_CONJUNCT_REORDER => options.conjunct_reordering,
                rules::RULE_PROJECTION_PRUNE => options.projection_pruning,
                other => panic!("a rule this test does not know: {other}"),
            };
            let mut reference = bound.clone();
            let mut fired = Vec::new();
            for &(rule, apply) in ALL_RULES.iter().filter(|(rule, _)| enabled(rule)) {
                let rewritten = apply(reference.clone());
                if rewritten != reference {
                    fired.push(rule);
                }
                reference = rewritten;
            }
            let (traced, trace) = optimize_traced(bound.clone(), &options);
            assert_eq!(traced, reference, "{} under {options:?}", q.sql);
            assert_eq!(trace.fired, fired, "{} under {options:?}", q.sql);
            assert_eq!(
                optimize(bound.clone(), &options),
                traced,
                "{} under {options:?}",
                q.sql
            );
            plans += 1;
        }
    }
    assert!(plans >= 32 * 10, "only {plans} plans compared");
}
