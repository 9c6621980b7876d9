//! Rendering for `EXPLAIN` / `EXPLAIN ANALYZE`.
//!
//! Stitches the three static-analysis layers onto the operator tree: the
//! optimizer's fired-rule trace, the per-operator cost estimates
//! (`llmsql_plan::cost`), and the plan lints (`llmsql_plan::lint`). For
//! `EXPLAIN ANALYZE` the query actually runs first and each line gains the
//! executor's recorded actuals, so estimated-vs-actual drift is visible per
//! operator.
//!
//! Estimates and actuals are joined by position in pre-order:
//! `LogicalPlan::explain` emits nodes in pre-order, `cost_plan` produces its
//! `nodes` vector in the same order, and the executor numbers
//! `ExecMetrics::op_stats` the same way, as its walk enters each node.

use llmsql_exec::ExecMetrics;
use llmsql_plan::{LogicalPlan, PlanCost, PlanDiagnostic, RuleTrace};

/// Render the full `EXPLAIN` (or, with `actuals`, `EXPLAIN ANALYZE`) text:
/// the annotated operator tree followed by the rule trace, plan-wide totals,
/// and any lint diagnostics.
pub fn render_explain(
    plan: &LogicalPlan,
    cost: &PlanCost,
    trace: &RuleTrace,
    diagnostics: &[PlanDiagnostic],
    actuals: Option<&ExecMetrics>,
) -> String {
    let mut out = String::new();
    let tree = plan.explain();
    for (at, (line, node)) in tree.lines().zip(&cost.nodes).enumerate() {
        out.push_str(line);
        out.push_str(&format!("  [est rows≈{:.0}", node.cost.rows_out));
        if node.cost.llm_calls > 0 {
            out.push_str(&format!(
                " calls={} usd=${:.4} latency≈{:.0}ms",
                node.cost.llm_calls, node.cost.usd, node.cost.latency_ms
            ));
        }
        out.push(']');
        if let Some(metrics) = actuals {
            if let Some(s) = metrics.op_stats.get(at) {
                out.push_str(&format!(
                    "  [act rows={} calls={} wall={:.2}ms]",
                    s.rows_out, s.llm_calls, s.wall_ms
                ));
            }
        }
        out.push('\n');
    }
    out.push_str(&format!("rules fired: {trace}\n"));
    out.push_str(&format!(
        "estimated: {} LLM calls, ${:.4}, ≈{:.0}ms model latency\n",
        cost.total.llm_calls, cost.total.usd, cost.total.latency_ms
    ));
    if let Some(metrics) = actuals {
        out.push_str(&format!(
            "actual: {} LLM calls, {} rows from llm, {} rows out\n",
            metrics.llm_calls(),
            metrics.rows_from_llm,
            metrics.rows_output
        ));
    }
    for d in diagnostics {
        out.push_str(&format!("{d}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsql_plan::{cost_plan, lint_plan, CostParams};

    use crate::engine::Engine;
    use llmsql_types::{EngineConfig, ExecutionMode};

    fn plan_for(sql: &str) -> (Engine, LogicalPlan, RuleTrace) {
        let engine = Engine::new(EngineConfig::default().with_mode(ExecutionMode::Traditional));
        engine
            .execute_script(
                "CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER); \
                 INSERT INTO t VALUES (1, 10), (2, 20)",
            )
            .unwrap();
        let stmt = llmsql_sql::parse_statement(sql).unwrap();
        let llmsql_sql::Statement::Select(select) = stmt else {
            panic!()
        };
        let (plan, trace) = engine.plan_select_traced(&select).unwrap();
        (engine, plan, trace)
    }

    #[test]
    fn every_tree_line_carries_an_estimate() {
        let (_, plan, trace) = plan_for("SELECT x FROM t WHERE x > 5 LIMIT 1");
        let params = CostParams::default();
        let cost = cost_plan(&plan, &params);
        let text = render_explain(&plan, &cost, &trace, &[], None);
        let tree_lines = plan.explain().lines().count();
        let annotated = text.lines().filter(|l| l.contains("[est rows≈")).count();
        assert_eq!(annotated, tree_lines);
        assert!(text.contains("rules fired:"));
        assert!(text.contains("estimated:"));
        assert!(!text.contains("actual:"));
    }

    #[test]
    fn diagnostics_are_appended() {
        let (_, plan, trace) = plan_for("SELECT x FROM t");
        let params = CostParams::default();
        let cost = cost_plan(&plan, &params);
        let diags = lint_plan(&plan, &params, Some(0.0000001));
        let text = render_explain(&plan, &cost, &trace, &diags, None);
        for d in &diags {
            assert!(text.contains(d.rule), "missing {}: {text}", d.rule);
        }
    }
}
