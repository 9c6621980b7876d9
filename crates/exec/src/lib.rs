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
//! The execution engine: physical scan operators over the relational store
//! and the language-model storage layer, and the plan interpreter that runs
//! them under the relational operators (filter, project, hash/nested-loop
//! join, hash aggregate, sort, limit, distinct) of `llmsql_plan::ops`, whose
//! evaluator and three pinned operators this crate re-exports.
//!
//! Execution is operator-at-a-time and single-threaded per query; an
//! aggregate's input and a join's probe side are read a row at a time from
//! the pages a model scan consumed (see [`executor`]). The one
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

pub use context::ExecContext;
pub use eval::{eval, eval_predicate, AggAccumulator};
pub use executor::{execute, CompiledPlan};
pub use llmsql_llm::{CallSlots, OwnedSlotGuard, SlotGuard};
pub use llmsql_plan::ops::{aggregate_rows, join_rows, sort_rows};
pub use metrics::{ExecMetrics, OpStats};
pub use reactor::{drive, Completion, DriveOutcome, Expired, LiveSet, TimerWheel};
pub use scan::{hybrid_scan, llm_scan, table_scan, ScanSpec};

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

    /// The relation the generated predicates are over.
    const COLUMNS: [(&str, DataType); 4] = [
        ("n", DataType::Int),
        ("x", DataType::Float),
        ("s", DataType::Text),
        ("b", DataType::Bool),
    ];

    fn arb_int() -> impl Strategy<Value = i64> {
        prop_oneof![any::<i64>(), -3i64..4, Just(i64::MIN), Just(i64::MAX)]
    }

    fn arb_float() -> impl Strategy<Value = f64> {
        (-40i64..40).prop_map(|quarters| quarters as f64 / 4.0)
    }

    /// Rows of [`COLUMNS`], each value NULL about one time in four.
    fn arb_row() -> impl Strategy<Value = Row> {
        use proptest::option::of;
        (
            of(arb_int()),
            of(arb_float()),
            of("[a-c]{0,3}"),
            of(any::<bool>()),
        )
            .prop_map(|(n, x, s, b)| {
                let or_null = |v: Option<Value>| v.unwrap_or(Value::Null);
                Row::new(vec![
                    or_null(n.map(Value::Int)),
                    or_null(x.map(Value::Float)),
                    or_null(s.map(Value::Text)),
                    or_null(b.map(Value::Bool)),
                ])
            })
    }

    /// Bound expressions over [`COLUMNS`] using every construct SQL has.
    fn arb_predicate() -> impl Strategy<Value = BoundExpr> {
        use llmsql_sql::ast::UnaryOp;
        use BinaryOp::*;
        const OPS: [BinaryOp; 15] = [
            Plus, Minus, Multiply, Divide, Modulo, Eq, NotEq, Lt, LtEq, Gt, GtEq, And, Or, Like,
            Concat,
        ];
        let boxed = |e: BoundExpr| Box::new(e);
        let leaf = prop_oneof![
            (0usize..COLUMNS.len()).prop_map(|i| BoundExpr::col(i, COLUMNS[i].0, COLUMNS[i].1)),
            arb_int().prop_map(BoundExpr::lit),
            arb_float().prop_map(BoundExpr::lit),
            "[a-c%_']{0,3}".prop_map(BoundExpr::lit),
            any::<bool>().prop_map(BoundExpr::lit),
            Just(BoundExpr::Literal(Value::Null)),
        ];
        leaf.prop_recursive(3, 32, 4, move |inner| {
            let op = (0usize..OPS.len()).prop_map(|i| OPS[i]);
            // The four column types are the four types there are.
            let data_type = (0usize..COLUMNS.len()).prop_map(|i| COLUMNS[i].1);
            let list = proptest::collection::vec(inner.clone(), 1..4);
            let branches = proptest::collection::vec((inner.clone(), inner.clone()), 1..3);
            let else_expr = proptest::option::of(inner.clone());
            prop_oneof![
                (inner.clone(), op, inner.clone())
                    .prop_map(|(l, op, r)| BoundExpr::binary(l, op, r)),
                inner.clone().prop_map(move |e| BoundExpr::Unary {
                    op: UnaryOp::Not,
                    expr: boxed(e)
                }),
                // A negated literal is a literal, as the parser makes it.
                inner.clone().prop_map(move |e| match e {
                    BoundExpr::Literal(Value::Int(i)) => BoundExpr::lit(i.wrapping_neg()),
                    BoundExpr::Literal(Value::Float(f)) => BoundExpr::lit(-f),
                    e => BoundExpr::Unary {
                        op: UnaryOp::Neg,
                        expr: boxed(e)
                    },
                }),
                (inner.clone(), any::<bool>()).prop_map(move |(e, negated)| BoundExpr::IsNull {
                    expr: boxed(e),
                    negated
                }),
                (inner.clone(), list, any::<bool>()).prop_map(move |(e, list, negated)| {
                    BoundExpr::InList {
                        expr: boxed(e),
                        list,
                        negated,
                    }
                }),
                (inner.clone(), inner.clone(), inner.clone(), any::<bool>()).prop_map(
                    move |(e, low, high, negated)| BoundExpr::Between {
                        expr: boxed(e),
                        low: boxed(low),
                        high: boxed(high),
                        negated,
                    }
                ),
                (inner.clone(), data_type).prop_map(move |(e, data_type)| BoundExpr::Cast {
                    expr: boxed(e),
                    data_type
                }),
                (branches, else_expr).prop_map(move |(branches, else_expr)| BoundExpr::Case {
                    branches,
                    else_expr: else_expr.map(boxed),
                }),
            ]
        })
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

        /// The trip a pushed filter makes: the engine prints the bound
        /// predicate into a prompt, the model parses that text, resolves
        /// its names against the relation and evaluates it per row. Whatever
        /// predicate and row are drawn — every construct, NULLs in the row
        /// and in the lists, the integers arithmetic overflows or divides
        /// by zero on — the model computes what the engine computes from
        /// the tree it started with (or fails where it fails), and neither
        /// panics. The walker is shared; printing, parsing and name
        /// resolution are what can still come apart.
        #[test]
        fn a_pushed_filter_means_to_the_model_what_it_means_to_the_engine(
            predicates in proptest::collection::vec(arb_predicate(), 64..65),
            rows in proptest::collection::vec(arb_row(), 8..9),
        ) {
            let relation = llmsql_types::Schema::new(
                "t",
                COLUMNS
                    .iter()
                    .map(|(name, data_type)| llmsql_types::Column::new(*name, *data_type))
                    .collect(),
            );
            for predicate in &predicates {
                let text = predicate.to_sql_text().unwrap();
                let read = llmsql_llm::eval::read_predicate(&relation, &text)
                    .unwrap_or_else(|e| panic!("the model cannot read {text}: {e}"));
                for row in &rows {
                    let model = llmsql_llm::eval::eval_value(&read, row).ok();
                    prop_assert_eq!(eval(predicate, row).ok(), model, "{} over {:?}", text, row);
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
