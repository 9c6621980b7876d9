//! Acceptance test for the static plan analyzer (ISSUE 9): on a seeded
//! pushdown scenario — a native predicate AND an LLM-text predicate over a
//! 1k-row relation — the optimized plan must return byte-identical rows
//! with measurably fewer LLM calls than the unoptimized plan, `EXPLAIN
//! ANALYZE` must report estimated vs. actual call counts for it, and each
//! seeded cost hazard must be flagged by exactly one plan lint.

use llmsql_core::Engine;
use llmsql_store::Catalog;
use llmsql_types::{
    EngineConfig, ExecutionMode, LlmFidelity, OptimizerOptions, PromptStrategy, Row,
};

const ROWS: usize = 1000;

/// The seeded pushdown query: `score > 900` is the cheap native predicate,
/// the `LIKE` over free text is the kind of predicate only the model can
/// answer on a virtual relation.
const PUSHDOWN_SQL: &str =
    "SELECT id, category, score, notes FROM items WHERE score > 900 AND notes LIKE '%ore%'";

/// A 1k-row relation with a selective numeric column and a text column.
fn seeded_catalog() -> Catalog {
    let oracle = Engine::new(EngineConfig::default().with_mode(ExecutionMode::Traditional));
    oracle
        .execute(
            "CREATE TABLE items (id INTEGER PRIMARY KEY, category TEXT, score INTEGER, notes TEXT)",
        )
        .unwrap();
    let categories = ["ore", "gas", "crop", "wood"];
    let mut values = Vec::with_capacity(ROWS);
    for i in 0..ROWS {
        let cat = categories[i % categories.len()];
        values.push(format!(
            "({}, '{}', {}, 'lot {} of {}')",
            i,
            cat,
            (i * 7919) % 1000,
            i,
            cat
        ));
    }
    oracle
        .execute(&format!("INSERT INTO items VALUES {}", values.join(", ")))
        .unwrap();
    oracle.catalog().deep_clone().unwrap()
}

/// An LLM-only engine over the seeded catalog, perfect fidelity so answers
/// are comparable byte-for-byte.
fn llm_engine(catalog: &Catalog, configure: impl FnOnce(EngineConfig) -> EngineConfig) -> Engine {
    let config = configure(
        EngineConfig::default()
            .with_mode(ExecutionMode::LlmOnly)
            .with_strategy(PromptStrategy::BatchedRows)
            .with_fidelity(LlmFidelity::perfect()),
    );
    let kb = Engine::knowledge_from_catalog(catalog).unwrap();
    let mut engine = Engine::with_catalog(catalog.deep_clone().unwrap(), config);
    engine.attach_simulator(kb.into_shared()).unwrap();
    engine
}

fn disable_optimizer(mut config: EngineConfig) -> EngineConfig {
    config.optimizer = OptimizerOptions::disabled();
    config
}

fn sorted_debug(rows: &[Row]) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

/// Count how many lint diagnostic lines an EXPLAIN text carries, and how
/// many mention the given rule.
fn lint_lines(plan_text: &str) -> Vec<&str> {
    plan_text
        .lines()
        .filter(|l| {
            l.starts_with("critical:") || l.starts_with("warning:") || l.starts_with("info:")
        })
        .collect()
}

fn explain(engine: &Engine, sql: &str) -> String {
    let result = engine.execute(&format!("EXPLAIN {sql}")).unwrap();
    result.plan.expect("EXPLAIN must return plan text")
}

#[test]
fn pushdown_scenario_same_rows_fewer_calls() {
    let catalog = seeded_catalog();
    let optimized = llm_engine(&catalog, |c| c);
    let unoptimized = llm_engine(&catalog, disable_optimizer);

    let fast = optimized.execute(PUSHDOWN_SQL).unwrap();
    let slow = unoptimized.execute(PUSHDOWN_SQL).unwrap();

    assert!(!fast.batch.rows.is_empty(), "scenario must select rows");
    assert_eq!(
        sorted_debug(&fast.batch.rows),
        sorted_debug(&slow.batch.rows),
        "optimized plan changed the answer"
    );
    let fast_calls = fast.metrics.llm_calls();
    let slow_calls = slow.metrics.llm_calls();
    assert!(
        fast_calls < slow_calls,
        "pushdown must measurably cut LLM calls: optimized {fast_calls} vs unoptimized {slow_calls}"
    );
}

#[test]
fn explain_analyze_reports_estimated_and_actual_calls() {
    let catalog = seeded_catalog();
    let engine = llm_engine(&catalog, |c| c);
    let result = engine
        .execute(&format!("EXPLAIN ANALYZE {PUSHDOWN_SQL}"))
        .unwrap();
    let text = result.plan.expect("EXPLAIN ANALYZE must return plan text");

    // Per-operator estimates and actuals, joined on the same tree.
    assert!(text.contains("[est rows≈"), "missing estimates:\n{text}");
    assert!(text.contains("[act rows="), "missing actuals:\n{text}");
    // Plan-wide estimated and actual call counts.
    assert!(
        text.contains("estimated:"),
        "missing estimate footer:\n{text}"
    );
    assert!(text.contains("actual:"), "missing actuals footer:\n{text}");
    let actual_line = text.lines().find(|l| l.starts_with("actual:")).unwrap();
    assert!(
        actual_line.contains(&format!("{} LLM calls", result.metrics.llm_calls())),
        "actual line must carry the measured call count: {actual_line}"
    );
    // The optimized pushdown plan is hazard-free.
    assert!(lint_lines(&text).is_empty(), "unexpected lints:\n{text}");
}

#[test]
fn each_seeded_hazard_fires_exactly_one_lint() {
    let catalog = seeded_catalog();

    // Hazard: filter left above an LLM scan (optimizer off). Selecting every
    // column keeps projection pruning out of the picture.
    let unopt = llm_engine(&catalog, disable_optimizer);
    let text = explain(&unopt, PUSHDOWN_SQL);
    let lints = lint_lines(&text);
    assert_eq!(lints.len(), 1, "{text}");
    assert!(lints[0].contains("[filter-above-llm-scan]"), "{text}");

    // Hazard: LLM scan with no native pre-filter at all.
    let text = explain(&unopt, "SELECT id, category, score, notes FROM items");
    let lints = lint_lines(&text);
    assert_eq!(lints.len(), 1, "{text}");
    assert!(lints[0].contains("[llm-scan-no-filter]"), "{text}");

    // Hazard: unprojected columns inflating prompts. Pushdown is enabled so
    // the filter reaches the scan, pruning is disabled so the scan still
    // fetches every column for a one-column projection.
    let no_prune = llm_engine(&catalog, |mut c| {
        c.optimizer.projection_pruning = false;
        c
    });
    let text = explain(&no_prune, "SELECT id FROM items WHERE score > 900");
    let lints = lint_lines(&text);
    assert_eq!(lints.len(), 1, "{text}");
    assert!(lints[0].contains("[unprojected-columns]"), "{text}");

    // Hazard: cross join under LLM predicates. Both sides keep pushed
    // filters so no other lint has grounds to fire.
    let full = llm_engine(&catalog, |c| c);
    let text = explain(
        &full,
        "SELECT a.id, a.category, a.score, a.notes, b.id, b.category, b.score, b.notes \
         FROM items a CROSS JOIN items b WHERE a.score > 990 AND b.score > 990",
    );
    let lints = lint_lines(&text);
    assert_eq!(lints.len(), 1, "{text}");
    assert!(lints[0].contains("[cross-join-llm]"), "{text}");

    // Hazard: estimated spend above the tenant budget.
    let tight = llm_engine(&catalog, |c| c.with_cost_budget_usd(0.000_000_1));
    let text = explain(&tight, PUSHDOWN_SQL);
    let lints = lint_lines(&text);
    assert_eq!(lints.len(), 1, "{text}");
    assert!(lints[0].contains("[budget-exceeded]"), "{text}");
}
