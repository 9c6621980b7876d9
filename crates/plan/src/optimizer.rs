//! The rule-based optimizer driver.
//!
//! For an LLM-backed storage layer the optimizer's job is less about CPU time
//! and more about **minimising model calls and tokens**. The rewrite rules
//! themselves live in [`crate::rules`], one module per rule, each a pure
//! `LogicalPlan -> LogicalPlan` function:
//!
//! * **Constant folding** evaluates literal-only subexpressions at plan time.
//! * **Predicate pushdown** moves filters into scans so that the condition is
//!   rendered into the prompt — the model returns fewer rows, which means
//!   fewer pages and fewer completion tokens.
//! * **Limit pushdown** caps how many rows a scan requests in the first place.
//! * **Conjunct reordering** ranks AND-ed predicates cheapest/most-selective
//!   first.
//! * **Projection pruning** narrows the set of columns a prompt asks for.
//!
//! The driver runs enabled rules in that fixed order. There is one loop and
//! two ways in: [`optimize`], which every executed statement takes, moves the
//! plan through the rules by value; [`optimize_traced`], which `EXPLAIN`
//! takes, also records which rules actually changed the plan in a
//! [`RuleTrace`] — it keeps a copy of each rule's input to compare with its
//! output, a cost only the caller who wants the trace pays. Both return the
//! same plan. Each rule can be disabled individually through
//! [`OptimizerOptions`]; the ablation experiment (E9) measures the effect of
//! each.

use crate::logical::LogicalPlan;
use crate::rules::{self, RuleTrace, ALL_RULES};

pub use llmsql_types::OptimizerOptions;

/// Does `options` enable the rule with the given registry key?
fn enables(options: &OptimizerOptions, rule: &str) -> bool {
    match rule {
        rules::RULE_CONSTANT_FOLD => options.constant_folding,
        rules::RULE_PREDICATE_PUSHDOWN => options.predicate_pushdown,
        rules::RULE_LIMIT_PUSHDOWN => options.limit_pushdown,
        rules::RULE_LLM_CONJUNCT_REORDER => options.conjunct_reordering,
        rules::RULE_PROJECTION_PRUNE => options.projection_pruning,
        _ => false,
    }
}

/// Optimize a plan with the given options. The plan moves through the rules
/// by value: nothing is cloned and nothing compared.
pub fn optimize(plan: LogicalPlan, options: &OptimizerOptions) -> LogicalPlan {
    run_rules(plan, options, None)
}

/// Optimize a plan and report which rules actually changed it.
///
/// A rule "fires" when its output differs structurally from its input
/// (plans are compared with `PartialEq`), so the trace lists rewrites that
/// did something, not merely rules that were enabled. Learning that costs a
/// copy and a comparison of the plan per enabled rule — `EXPLAIN` pays it,
/// [`optimize`] does not.
pub fn optimize_traced(plan: LogicalPlan, options: &OptimizerOptions) -> (LogicalPlan, RuleTrace) {
    let mut trace = RuleTrace::default();
    let plan = run_rules(plan, options, Some(&mut trace));
    (plan, trace)
}

/// The driver: the enabled rules of [`ALL_RULES`], in registry order. Only a
/// caller that asked for a trace pays for the before/after comparison.
fn run_rules(
    mut plan: LogicalPlan,
    options: &OptimizerOptions,
    mut trace: Option<&mut RuleTrace>,
) -> LogicalPlan {
    for &(rule, apply) in ALL_RULES {
        if !enables(options, rule) {
            continue;
        }
        plan = match trace.as_deref_mut() {
            None => apply(plan),
            Some(trace) => {
                let rewritten = apply(plan.clone());
                if rewritten != plan {
                    trace.fired.push(rule);
                }
                rewritten
            }
        };
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::bind_select;
    use llmsql_sql::{parse_statement, Statement};
    use llmsql_store::Catalog;
    use llmsql_types::{Column, DataType, Schema};

    fn catalog() -> Catalog {
        let cat = Catalog::new();
        for name in ["countries", "cities"] {
            cat.create_virtual_table(Schema::new(
                name,
                vec![
                    Column::new("name", DataType::Text).primary_key(),
                    Column::new("country", DataType::Text),
                    Column::new("region", DataType::Text),
                    Column::new("population", DataType::Int),
                ],
            ))
            .unwrap();
        }
        cat
    }

    fn plan(sql: &str, options: &OptimizerOptions) -> LogicalPlan {
        let stmt = parse_statement(sql).unwrap();
        let select = match stmt {
            Statement::Select(s) => s,
            _ => panic!(),
        };
        let bound = bind_select(&catalog(), &select).unwrap();
        optimize(bound, options)
    }

    fn scan_of<'a>(p: &'a LogicalPlan, table: &str) -> &'a LogicalPlan {
        let mut found = None;
        fn walk<'a>(p: &'a LogicalPlan, table: &str, found: &mut Option<&'a LogicalPlan>) {
            if let LogicalPlan::Scan { table: t, .. } = p {
                if t == table {
                    *found = Some(p);
                }
            }
            for c in p.children() {
                walk(c, table, found);
            }
        }
        walk(p, table, &mut found);
        found.expect("scan not found")
    }

    #[test]
    fn filter_pushed_into_scan() {
        let p = plan(
            "SELECT name FROM countries WHERE population > 10 AND region = 'Europe'",
            &OptimizerOptions::default(),
        );
        match scan_of(&p, "countries") {
            LogicalPlan::Scan { pushed_filter, .. } => {
                let f = pushed_filter.as_ref().unwrap().to_string();
                assert!(f.contains("population"));
                assert!(f.contains("Europe"));
            }
            _ => unreachable!(),
        }
        // No residual Filter node remains.
        let mut filters = 0;
        p.visit(&mut |n| {
            if matches!(n, LogicalPlan::Filter { .. }) {
                filters += 1;
            }
        });
        assert_eq!(filters, 0);
    }

    #[test]
    fn disabled_pushdown_keeps_filter_node() {
        let p = plan(
            "SELECT name FROM countries WHERE population > 10",
            &OptimizerOptions::disabled(),
        );
        let mut filters = 0;
        p.visit(&mut |n| {
            if matches!(n, LogicalPlan::Filter { .. }) {
                filters += 1;
            }
        });
        assert_eq!(filters, 1);
        match scan_of(&p, "countries") {
            LogicalPlan::Scan {
                pushed_filter,
                prompt_columns,
                pushed_limit,
                ..
            } => {
                assert!(pushed_filter.is_none());
                assert!(prompt_columns.is_none());
                assert!(pushed_limit.is_none());
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn filter_split_across_join() {
        let p = plan(
            "SELECT c.name FROM countries c JOIN cities ci ON ci.country = c.name \
             WHERE c.region = 'Europe' AND ci.population > 1000000",
            &OptimizerOptions::default(),
        );
        match scan_of(&p, "countries") {
            LogicalPlan::Scan { pushed_filter, .. } => {
                assert!(pushed_filter
                    .as_ref()
                    .unwrap()
                    .to_string()
                    .contains("region"));
            }
            _ => unreachable!(),
        }
        match scan_of(&p, "cities") {
            LogicalPlan::Scan { pushed_filter, .. } => {
                let f = pushed_filter.as_ref().unwrap();
                assert!(f.to_string().contains("population"));
                // indices were remapped to the right side's local schema
                assert!(f.referenced_indices().iter().all(|&i| i < 4));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn left_join_blocks_pushdown_to_right() {
        let p = plan(
            "SELECT c.name FROM countries c LEFT JOIN cities ci ON ci.country = c.name \
             WHERE ci.population > 10",
            &OptimizerOptions::default(),
        );
        match scan_of(&p, "cities") {
            LogicalPlan::Scan { pushed_filter, .. } => assert!(pushed_filter.is_none()),
            _ => unreachable!(),
        }
        // the predicate stays as a Filter above the join
        let mut filters = 0;
        p.visit(&mut |n| {
            if matches!(n, LogicalPlan::Filter { .. }) {
                filters += 1;
            }
        });
        assert_eq!(filters, 1);
    }

    #[test]
    fn projection_pruning_sets_prompt_columns() {
        let p = plan(
            "SELECT name FROM countries WHERE population > 10",
            &OptimizerOptions::default(),
        );
        match scan_of(&p, "countries") {
            LogicalPlan::Scan {
                prompt_columns,
                table_schema,
                ..
            } => {
                let cols = prompt_columns.as_ref().unwrap();
                let names: Vec<&str> = cols
                    .iter()
                    .map(|&i| table_schema.columns[i].name.as_str())
                    .collect();
                assert!(names.contains(&"name"));
                assert!(names.contains(&"population")); // needed by the filter
                assert!(!names.contains(&"region"));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn select_star_keeps_all_columns() {
        let p = plan("SELECT * FROM countries", &OptimizerOptions::default());
        match scan_of(&p, "countries") {
            LogicalPlan::Scan { prompt_columns, .. } => assert!(prompt_columns.is_none()),
            _ => unreachable!(),
        }
    }

    #[test]
    fn limit_pushdown_through_projection() {
        let p = plan(
            "SELECT name FROM countries LIMIT 7 OFFSET 3",
            &OptimizerOptions::default(),
        );
        match scan_of(&p, "countries") {
            LogicalPlan::Scan { pushed_limit, .. } => assert_eq!(*pushed_limit, Some(10)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn sort_blocks_limit_pushdown() {
        let p = plan(
            "SELECT name FROM countries ORDER BY population DESC LIMIT 5",
            &OptimizerOptions::default(),
        );
        match scan_of(&p, "countries") {
            LogicalPlan::Scan { pushed_limit, .. } => assert_eq!(*pushed_limit, None),
            _ => unreachable!(),
        }
    }

    #[test]
    fn aggregate_prunes_to_needed_columns() {
        let p = plan(
            "SELECT region, COUNT(*) FROM countries GROUP BY region",
            &OptimizerOptions::default(),
        );
        match scan_of(&p, "countries") {
            LogicalPlan::Scan {
                prompt_columns,
                table_schema,
                ..
            } => {
                let cols = prompt_columns.as_ref().unwrap();
                let names: Vec<&str> = cols
                    .iter()
                    .map(|&i| table_schema.columns[i].name.as_str())
                    .collect();
                assert!(names.contains(&"region"));
                assert!(!names.contains(&"population"));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn optimized_plan_keeps_schema() {
        for sql in [
            "SELECT name FROM countries WHERE population > 10 ORDER BY name LIMIT 3",
            "SELECT c.region, COUNT(*) FROM countries c GROUP BY c.region",
            "SELECT c.name, ci.name FROM countries c JOIN cities ci ON ci.country = c.name WHERE c.population > 5",
        ] {
            let unopt = plan(sql, &OptimizerOptions::disabled());
            let opt = plan(sql, &OptimizerOptions::default());
            assert_eq!(unopt.schema().names(), opt.schema().names(), "{sql}");
        }
    }

    #[test]
    fn trace_lists_only_rules_that_changed_the_plan() {
        let stmt =
            parse_statement("SELECT name FROM countries WHERE population > 10 LIMIT 5").unwrap();
        let select = match stmt {
            Statement::Select(s) => s,
            _ => panic!(),
        };
        let bound = bind_select(&catalog(), &select).unwrap();
        let (_, trace) = optimize_traced(bound.clone(), &OptimizerOptions::default());
        assert!(trace.did_fire(rules::RULE_PREDICATE_PUSHDOWN));
        assert!(trace.did_fire(rules::RULE_LIMIT_PUSHDOWN));
        assert!(trace.did_fire(rules::RULE_PROJECTION_PRUNE));
        // Nothing literal-only to fold, single conjunct: neither fires.
        assert!(!trace.did_fire(rules::RULE_CONSTANT_FOLD));
        assert!(!trace.did_fire(rules::RULE_LLM_CONJUNCT_REORDER));
        // Disabled options yield an empty trace and an unchanged plan.
        let (unopt, empty) = optimize_traced(bound.clone(), &OptimizerOptions::disabled());
        assert!(empty.is_empty());
        assert_eq!(unopt, bound);
    }

    #[test]
    fn trace_display_is_readable() {
        let mut t = RuleTrace::default();
        assert_eq!(t.to_string(), "(no rules fired)");
        t.fired.push(rules::RULE_PREDICATE_PUSHDOWN);
        t.fired.push(rules::RULE_PROJECTION_PRUNE);
        assert_eq!(t.to_string(), "predicate-pushdown, projection-prune");
    }
}
