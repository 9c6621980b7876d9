#![forbid(unsafe_code)]
#![warn(clippy::pedantic)]
// Pedantic exceptions, each a deliberate local judgment call rather than a
// bug class: numeric casts are used where the domain bounds the value, and
// must_use / doc-section lints would add noise to an internal API.
#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss,
    clippy::doc_markdown,
    clippy::enum_glob_use,
    clippy::float_cmp,
    clippy::if_not_else,
    clippy::match_same_arms,
    clippy::missing_errors_doc,
    clippy::missing_panics_doc,
    clippy::must_use_candidate,
    clippy::needless_pass_by_value,
    clippy::return_self_not_must_use,
    clippy::single_match_else,
    clippy::struct_excessive_bools,
    clippy::too_many_lines
)]
//! # llmsql-exec
//!
//! The execution engine: scalar/aggregate evaluation of bound expressions,
//! physical scan operators over the relational store and the language-model
//! storage layer, relational operators (filter, project, hash/nested-loop
//! join, hash aggregate, sort, limit, distinct), and the plan interpreter.
//!
//! Execution is operator-at-a-time and single-threaded per query. The one
//! latency worth overlapping is the model round trip: an LLM-backed scan
//! keeps a window of `EngineConfig::parallelism` prompts in flight, and that
//! is all `parallelism` means. Dispatch is event-driven — the query's thread
//! parks on the scan's own event loop ([`reactor`]) holding the whole window
//! of poll-based submissions, with or without a scheduler above it — and the
//! relational operators above a scan run on that same thread; no thread is
//! spawned here. Output order and (for scans) the set
//! of issued prompts are deterministic, so any parallelism setting produces
//! byte-identical results for a fixed seed.

#![warn(missing_docs)]

pub mod context;
pub mod eval;
pub mod executor;
pub mod metrics;
pub mod reactor;
pub mod scan;
pub mod slots;

pub use context::ExecContext;
pub use eval::{eval, eval_predicate, AggAccumulator};
pub use executor::{aggregate_rows, execute, execute_rows, join_rows, sort_rows};
pub use metrics::{ExecMetrics, InFlightGuard, OpStats, SharedMetrics};
pub use reactor::{drive, Completion, DriveOutcome, Expired, LiveSet, TimerId, TimerWheel};
pub use scan::{dispatch_one, hybrid_scan, llm_scan, table_scan, ScanSpec};
pub use slots::{CallSlots, OwnedSlotGuard, SlotGuard};

#[cfg(test)]
mod proptests {
    use super::*;
    use llmsql_plan::BoundExpr;
    use llmsql_sql::ast::{BinaryOp, JoinKind};
    use llmsql_types::{DataType, Row, Value};
    use proptest::prelude::*;

    /// Hash join (equi-key path) must agree with a nested-loop join
    /// (residual-predicate path) on random data.
    fn nested_loop_reference(
        left: &[Row],
        right: &[Row],
        key_l: usize,
        key_r: usize,
    ) -> Vec<(Value, Value)> {
        let mut out = Vec::new();
        for l in left {
            for r in right {
                if !l.get(key_l).is_null() && l.get(key_l).semantic_eq(r.get(key_r)) {
                    out.push((l.get(0).clone(), r.get(0).clone()));
                }
            }
        }
        out.sort();
        out
    }

    proptest! {
        #[test]
        fn hash_join_matches_nested_loop(
            left_keys in proptest::collection::vec(0i64..10, 0..20),
            right_keys in proptest::collection::vec(0i64..10, 0..20),
        ) {
            let left: Vec<Row> = left_keys
                .iter()
                .enumerate()
                .map(|(i, k)| Row::new(vec![Value::Int(i as i64), Value::Int(*k)]))
                .collect();
            let right: Vec<Row> = right_keys
                .iter()
                .enumerate()
                .map(|(i, k)| Row::new(vec![Value::Int(1000 + i as i64), Value::Int(*k)]))
                .collect();
            let on = BoundExpr::Binary {
                left: Box::new(BoundExpr::col(1, "k", DataType::Int)),
                op: BinaryOp::Eq,
                right: Box::new(BoundExpr::col(3, "k", DataType::Int)),
            };
            let joined = join_rows(&left, &right, 2, 2, JoinKind::Inner, Some(&on)).unwrap();
            let mut got: Vec<(Value, Value)> = joined
                .iter()
                .map(|r| (r.get(0).clone(), r.get(2).clone()))
                .collect();
            got.sort();
            let expected = nested_loop_reference(&left, &right, 1, 1);
            prop_assert_eq!(got, expected);
        }

        /// Sorting is a permutation and respects the key order.
        #[test]
        fn sort_is_ordered_permutation(values in proptest::collection::vec(-100i64..100, 0..50)) {
            let mut rows: Vec<Row> = values.iter().map(|v| Row::new(vec![Value::Int(*v)])).collect();
            let keys = vec![llmsql_plan::SortKey {
                expr: BoundExpr::col(0, "v", DataType::Int),
                ascending: true,
            }];
            sort_rows(&mut rows, &keys).unwrap();
            prop_assert_eq!(rows.len(), values.len());
            for w in rows.windows(2) {
                prop_assert!(w[0].get(0).total_cmp(w[1].get(0)) != std::cmp::Ordering::Greater);
            }
            let mut sorted_input = values.clone();
            sorted_input.sort_unstable();
            let got: Vec<i64> = rows.iter().map(|r| r.get(0).as_int().unwrap()).collect();
            prop_assert_eq!(got, sorted_input);
        }

        /// No integer operands make an operator panic, in the engine's
        /// tree-walker or in the simulated model's, and the two agree on
        /// every answer — whatever is drawn, each case also crosses it with
        /// the values integer arithmetic overflows or divides by zero on.
        #[test]
        fn integer_operators_never_panic_and_both_evaluators_agree(
            a in any::<i64>(),
            b in any::<i64>(),
        ) {
            use llmsql_sql::ast::{Expr, UnaryOp};
            use BinaryOp::*;
            let ops = [
                Plus, Minus, Multiply, Divide, Modulo, Eq, NotEq, Lt, LtEq, Gt, GtEq, And, Or,
                Like, Concat,
            ];
            let operands = [a, b, i64::MIN, i64::MAX, -1, 0, 1];
            let no_columns = llmsql_types::Schema::new("t", vec![]);
            let row = Row::empty();
            let model = |expr: &Expr| llmsql_llm::eval::eval_expr(&no_columns, &row, expr).ok();
            let lit = |v: i64| Expr::Literal(Value::Int(v));
            for x in operands {
                let negated = BoundExpr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(BoundExpr::lit(Value::Int(x))),
                };
                let asked = Expr::Unary { op: UnaryOp::Neg, expr: Box::new(lit(x)) };
                prop_assert_eq!(eval(&negated, &row).ok(), model(&asked), "-({})", x);
                for y in operands {
                    for op in ops {
                        let bound = BoundExpr::Binary {
                            left: Box::new(BoundExpr::lit(Value::Int(x))),
                            op,
                            right: Box::new(BoundExpr::lit(Value::Int(y))),
                        };
                        let asked = Expr::binary(lit(x), op, lit(y));
                        let engine = eval(&bound, &row).ok();
                        prop_assert!(engine.is_some(), "{} {} {}", x, op, y);
                        prop_assert_eq!(engine, model(&asked), "{} {} {}", x, op, y);
                    }
                }
            }
        }

        /// COUNT(*) equals the number of input rows for any grouping.
        #[test]
        fn aggregate_counts_sum_to_input(values in proptest::collection::vec(0i64..5, 0..60)) {
            let rows: Vec<Row> = values.iter().map(|v| Row::new(vec![Value::Int(*v)])).collect();
            let group = vec![BoundExpr::col(0, "g", DataType::Int)];
            let aggs = vec![BoundExpr::Aggregate {
                func: llmsql_sql::ast::AggregateFunc::Count,
                arg: None,
                distinct: false,
            }];
            let out = aggregate_rows(&rows, &group, &aggs).unwrap();
            let total: i64 = out.iter().map(|r| r.get(1).as_int().unwrap()).sum();
            prop_assert_eq!(total as usize, values.len());
        }
    }
}
