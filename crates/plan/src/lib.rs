#![forbid(unsafe_code)]
//! # llmsql-plan
//!
//! Query planning and static plan analysis: [`BoundExpr`] (resolved
//! expressions), [`LogicalPlan`] construction from the parsed AST
//! ([`binder`]), the call-minimising rule-based [`optimizer`] (rules live in
//! [`rules`], one module each), the per-operator LLM [`cost`] model, and the
//! [`lint`] pass that flags statically-detectable cost hazards. `EXPLAIN`
//! stitches all three together. The relational operators that turn a plan
//! node's input rows into its output ([`ops`]) live here too, beside the
//! plan they run: the engine's executor and the simulated model both call
//! them.

#![warn(missing_docs)]

pub mod binder;
pub mod cost;
pub mod expr;
pub mod lint;
pub mod logical;
pub mod ops;
pub mod optimizer;
pub mod rules;

pub use binder::{bind_select, schema_from_create};
pub use cost::{cost_plan, estimate_scan_rows, CostParams, NodeCost, OperatorCost, PlanCost};
pub use expr::{bind_expr, conjoin, split_conjunction, BoundExpr};
pub use lint::{lint_plan, PlanDiagnostic, Severity};
pub use logical::{LogicalPlan, SortKey};
pub use optimizer::{optimize, optimize_traced, OptimizerOptions};
pub use rules::RuleTrace;

#[cfg(test)]
mod proptests {
    use super::*;
    use llmsql_sql::{parse_statement, Statement};
    use llmsql_store::Catalog;
    use llmsql_types::{Column, DataType, Schema};
    use proptest::prelude::*;

    fn catalog() -> Catalog {
        let cat = Catalog::new();
        cat.create_virtual_table(Schema::new(
            "t",
            vec![
                Column::new("id", DataType::Int).primary_key(),
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Text),
                Column::new("c", DataType::Float),
            ],
        ))
        .unwrap();
        cat
    }

    /// Generate simple single-table SQL queries.
    fn arb_query() -> impl Strategy<Value = String> {
        let col = prop_oneof![Just("id"), Just("a"), Just("b"), Just("c")];
        let pred = (col.clone(), 0i64..100).prop_map(|(c, v)| {
            if c == "b" {
                "b LIKE '%x%'".to_string()
            } else {
                format!("{c} > {v}")
            }
        });
        (
            proptest::collection::vec(col, 1..3),
            proptest::option::of(pred),
            proptest::option::of(0u64..50),
            any::<bool>(),
        )
            .prop_map(|(cols, pred, limit, order)| {
                let mut sql = format!("SELECT {} FROM t", cols.join(", "));
                if let Some(p) = pred {
                    sql.push_str(&format!(" WHERE {p}"));
                }
                if order {
                    sql.push_str(" ORDER BY a");
                }
                if let Some(l) = limit {
                    sql.push_str(&format!(" LIMIT {l}"));
                }
                sql
            })
    }

    proptest! {
        /// The optimizer never changes the output schema of a plan.
        #[test]
        fn optimizer_preserves_schema(sql in arb_query()) {
            let cat = catalog();
            let stmt = parse_statement(&sql).unwrap();
            let select = match stmt { Statement::Select(s) => s, _ => unreachable!() };
            let bound = bind_select(&cat, &select).unwrap();
            let before = bound.schema();
            let after = optimize(bound, &OptimizerOptions::default()).schema();
            prop_assert_eq!(before.names(), after.names());
        }

        /// Pushed filters never reference out-of-range base columns.
        #[test]
        fn pushed_filters_reference_valid_columns(sql in arb_query()) {
            let cat = catalog();
            let stmt = parse_statement(&sql).unwrap();
            let select = match stmt { Statement::Select(s) => s, _ => unreachable!() };
            let bound = bind_select(&cat, &select).unwrap();
            let opt = optimize(bound, &OptimizerOptions::default());
            let mut ok = true;
            opt.visit(&mut |p| {
                if let LogicalPlan::Scan { pushed_filter: Some(f), table_schema, .. } = p {
                    ok &= f.referenced_indices().iter().all(|&i| i < table_schema.arity());
                }
            });
            prop_assert!(ok);
        }
    }
}
