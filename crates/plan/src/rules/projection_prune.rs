//! Projection pruning: narrow the set of columns an LLM scan's prompt asks
//! for.
//!
//! Every column a prompt requests costs completion tokens on every returned
//! row. This rule walks the plan top-down tracking which output columns each
//! parent actually consumes; scans remember the required base columns (plus
//! their pushed filter's columns and the key column) as `prompt_columns`.

use crate::logical::LogicalPlan;

/// Apply the rule to a whole plan (every root output column is required).
pub fn apply(plan: LogicalPlan) -> LogicalPlan {
    let all: Vec<usize> = (0..plan.arity()).collect();
    prune_columns(plan, &all)
}

/// `required` lists the output-column indices of `plan` that the parent
/// actually consumes.
fn prune_columns(plan: LogicalPlan, required: &[usize]) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan {
            table,
            alias,
            table_schema,
            schema,
            pushed_filter,
            prompt_columns: _,
            virtual_table,
            pushed_limit,
        } => {
            let mut needed: Vec<usize> = required.to_vec();
            if let Some(f) = &pushed_filter {
                needed.extend(f.referenced_indices());
            }
            // Always fetch the key column: LLM scans identify entities by it.
            needed.push(table_schema.key_column());
            needed.sort_unstable();
            needed.dedup();
            needed.retain(|&i| i < table_schema.arity());
            let prompt_columns = if needed.len() == table_schema.arity() {
                None
            } else {
                Some(needed)
            };
            LogicalPlan::Scan {
                table,
                alias,
                table_schema,
                schema,
                pushed_filter,
                prompt_columns,
                virtual_table,
                pushed_limit,
            }
        }
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => {
            let mut needed: Vec<usize> = Vec::new();
            for e in &exprs {
                needed.extend(e.referenced_indices());
            }
            needed.sort_unstable();
            needed.dedup();
            LogicalPlan::Project {
                input: Box::new(prune_columns(*input, &needed)),
                exprs,
                schema,
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut needed: Vec<usize> = required.to_vec();
            needed.extend(predicate.referenced_indices());
            needed.sort_unstable();
            needed.dedup();
            LogicalPlan::Filter {
                input: Box::new(prune_columns(*input, &needed)),
                predicate,
            }
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            schema,
        } => {
            let left_arity = left.arity();
            let mut needed: Vec<usize> = required.to_vec();
            if let Some(on) = &on {
                needed.extend(on.referenced_indices());
            }
            let left_req: Vec<usize> = needed.iter().copied().filter(|&i| i < left_arity).collect();
            let right_req: Vec<usize> = needed
                .iter()
                .copied()
                .filter(|&i| i >= left_arity)
                .map(|i| i - left_arity)
                .collect();
            LogicalPlan::Join {
                left: Box::new(prune_columns(*left, &left_req)),
                right: Box::new(prune_columns(*right, &right_req)),
                kind,
                on,
                schema,
            }
        }
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggregates,
            schema,
        } => {
            let mut needed: Vec<usize> = Vec::new();
            for e in group_exprs.iter().chain(aggregates.iter()) {
                needed.extend(e.referenced_indices());
            }
            needed.sort_unstable();
            needed.dedup();
            LogicalPlan::Aggregate {
                input: Box::new(prune_columns(*input, &needed)),
                group_exprs,
                aggregates,
                schema,
            }
        }
        LogicalPlan::Sort { input, keys } => {
            let mut needed: Vec<usize> = required.to_vec();
            for k in &keys {
                needed.extend(k.expr.referenced_indices());
            }
            needed.sort_unstable();
            needed.dedup();
            LogicalPlan::Sort {
                input: Box::new(prune_columns(*input, &needed)),
                keys,
            }
        }
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => LogicalPlan::Limit {
            input: Box::new(prune_columns(*input, required)),
            limit,
            offset,
        },
        LogicalPlan::Distinct { input } => {
            // DISTINCT compares whole rows: every input column is required.
            let all: Vec<usize> = (0..input.arity()).collect();
            LogicalPlan::Distinct {
                input: Box::new(prune_columns(*input, &all)),
            }
        }
        LogicalPlan::Values { schema, rows } => LogicalPlan::Values { schema, rows },
    }
}
