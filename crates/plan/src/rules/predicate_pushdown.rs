//! Predicate pushdown: move filters into scans (and through joins).
//!
//! For a virtual relation the pushed condition is rendered into the prompt,
//! so the model returns only matching rows — fewer pages, fewer completion
//! tokens, fewer dollars. This is the single highest-leverage rewrite in the
//! engine: an LLM predicate costs ~6 orders of magnitude more than a native
//! one, so every row the prompt filters out is a row never paid for.

use llmsql_sql::ast::JoinKind;

use crate::expr::{conjoin, split_conjunction, BoundExpr};
use crate::logical::LogicalPlan;
use crate::rules::map_children;

/// Apply the rule to a whole plan.
pub fn apply(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let input = apply(*input);
            push_predicate_into(input, predicate)
        }
        other => map_children(other, apply),
    }
}

/// Push a predicate as far down into `plan` as possible; whatever cannot be
/// pushed remains as a Filter node on top.
fn push_predicate_into(plan: LogicalPlan, predicate: BoundExpr) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan {
            table,
            alias,
            table_schema,
            schema,
            pushed_filter,
            prompt_columns,
            virtual_table,
            pushed_limit,
        } => {
            let combined = match pushed_filter {
                Some(existing) => existing.and(predicate),
                None => predicate,
            };
            LogicalPlan::Scan {
                table,
                alias,
                table_schema,
                schema,
                pushed_filter: Some(combined),
                prompt_columns,
                virtual_table,
                pushed_limit,
            }
        }
        LogicalPlan::Filter {
            input,
            predicate: inner,
        } => {
            // Merge consecutive filters and keep pushing.
            push_predicate_into(*input, inner.and(predicate))
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            schema,
        } => {
            let left_arity = left.schema().len();
            let mut to_left: Vec<BoundExpr> = Vec::new();
            let mut to_right: Vec<BoundExpr> = Vec::new();
            let mut keep: Vec<BoundExpr> = Vec::new();
            for conjunct in split_conjunction(&predicate) {
                let refs = conjunct.referenced_indices();
                let only_left = refs.iter().all(|&i| i < left_arity);
                let only_right = refs.iter().all(|&i| i >= left_arity);
                // Pushing below an outer join's preserved side changes
                // semantics; only push into the side that cannot produce
                // padded NULLs.
                match (only_left, only_right, kind) {
                    (true, _, JoinKind::Inner | JoinKind::Left | JoinKind::Cross) => {
                        to_left.push(conjunct)
                    }
                    (_, true, JoinKind::Inner | JoinKind::Right | JoinKind::Cross) => {
                        match conjunct.remap_columns(&|i| i.checked_sub(left_arity)) {
                            Some(remapped) => to_right.push(remapped),
                            // Unreachable (all refs are on the right side),
                            // but keeping the conjunct above the join is
                            // always sound.
                            None => keep.push(conjunct),
                        }
                    }
                    _ => keep.push(conjunct),
                }
            }
            let new_left = match conjoin(&to_left) {
                Some(p) => push_predicate_into(*left, p),
                None => apply(*left),
            };
            let new_right = match conjoin(&to_right) {
                Some(p) => push_predicate_into(*right, p),
                None => apply(*right),
            };
            let join = LogicalPlan::Join {
                left: Box::new(new_left),
                right: Box::new(new_right),
                kind,
                on,
                schema,
            };
            match conjoin(&keep) {
                Some(p) => LogicalPlan::Filter {
                    input: Box::new(join),
                    predicate: p,
                },
                None => join,
            }
        }
        // It is not worth rewriting predicates through projections or
        // aggregates for this engine; keep the filter where it is.
        other => LogicalPlan::Filter {
            input: Box::new(map_children(other, apply)),
            predicate,
        },
    }
}
