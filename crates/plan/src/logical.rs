//! The logical query plan.
//!
//! Plans are produced by the [binder](crate::binder), transformed by the
//! [optimizer](crate::optimizer) and interpreted by the executor
//! (`llmsql-exec`). LLM-specific knowledge lives in the `Scan` node: a scan of
//! a *virtual* relation carries the pushed-down filter (rendered into the
//! prompt) and the set of columns that actually need to be requested from the
//! model.

use llmsql_sql::ast::JoinKind;
use llmsql_types::{RelSchema, Schema};

use crate::expr::BoundExpr;

/// A sort key: expression plus direction.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// The sort expression (bound against the node's input).
    pub expr: BoundExpr,
    /// Ascending?
    pub ascending: bool,
}

/// A node of the logical plan.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan of a base relation, materialized or virtual.
    Scan {
        /// Catalog name of the relation.
        table: String,
        /// Alias the query knows it by.
        alias: String,
        /// The base-table schema (with prompt descriptions).
        table_schema: Schema,
        /// Output schema: all base columns qualified by the alias.
        schema: RelSchema,
        /// Filter pushed into the scan, bound against the base columns.
        /// For virtual relations it is rendered into the prompt; for
        /// materialized ones it is evaluated during the scan.
        pushed_filter: Option<BoundExpr>,
        /// The base columns that must actually be fetched (prompt projection).
        /// `None` means all. Columns outside this set are emitted as NULL by
        /// LLM-backed scans; the pruning rule guarantees nothing reads them.
        prompt_columns: Option<Vec<usize>>,
        /// Whether the relation is virtual (LLM-backed).
        virtual_table: bool,
        /// A limit pushed into the scan (from a top-level LIMIT with no
        /// intervening order-sensitive operators).
        pushed_limit: Option<usize>,
    },
    /// A constant relation (SELECT without FROM, or VALUES).
    Values {
        /// Output schema.
        schema: RelSchema,
        /// Row expressions.
        rows: Vec<Vec<BoundExpr>>,
    },
    /// Row filter.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Predicate over the input schema.
        predicate: BoundExpr,
    },
    /// Projection.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Output expressions.
        exprs: Vec<BoundExpr>,
        /// Output schema (names/aliases).
        schema: RelSchema,
    },
    /// Join of two inputs.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join kind.
        kind: JoinKind,
        /// Join condition over the concatenated schema.
        on: Option<BoundExpr>,
        /// Output schema (left ++ right).
        schema: RelSchema,
    },
    /// Grouped aggregation.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Grouping expressions over the input.
        group_exprs: Vec<BoundExpr>,
        /// Aggregate calls over the input (each is `BoundExpr::Aggregate`).
        aggregates: Vec<BoundExpr>,
        /// Output schema: group columns then aggregate columns.
        schema: RelSchema,
    },
    /// Sort.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys over the input schema.
        keys: Vec<SortKey>,
    },
    /// Limit/offset.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Maximum rows to emit (`None` = unlimited, offset only).
        limit: Option<usize>,
        /// Rows to skip.
        offset: usize,
    },
    /// Duplicate elimination.
    Distinct {
        /// Input plan.
        input: Box<LogicalPlan>,
    },
}

impl LogicalPlan {
    /// The output schema of this node.
    pub fn schema(&self) -> RelSchema {
        match self {
            LogicalPlan::Scan { schema, .. }
            | LogicalPlan::Values { schema, .. }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::Join { schema, .. }
            | LogicalPlan::Aggregate { schema, .. } => schema.clone(),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => input.schema(),
        }
    }

    /// The direct children of this node.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
        }
    }

    /// Number of plan nodes (for tests and metrics).
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }

    /// Names of all scanned base tables.
    pub fn scanned_tables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit(&mut |p| {
            if let LogicalPlan::Scan { table, .. } = p {
                out.push(table.clone());
            }
        });
        out
    }

    /// A copy of the plan with every scan marked virtual (LLM-backed).
    ///
    /// The per-scan flag mirrors the schema, but in `LlmOnly` execution
    /// every scan hits the model regardless; the engine applies this before
    /// cost estimation and plan linting so the static analysis sees the
    /// scans the executor will actually run.
    pub fn with_scans_marked_virtual(self) -> LogicalPlan {
        match self {
            LogicalPlan::Scan {
                table,
                alias,
                table_schema,
                schema,
                pushed_filter,
                prompt_columns,
                virtual_table: _,
                pushed_limit,
            } => LogicalPlan::Scan {
                table,
                alias,
                table_schema,
                schema,
                pushed_filter,
                prompt_columns,
                virtual_table: true,
                pushed_limit,
            },
            other => crate::rules::map_children(other, LogicalPlan::with_scans_marked_virtual),
        }
    }

    /// True if any scanned relation is virtual (LLM-backed).
    pub fn uses_virtual_tables(&self) -> bool {
        let mut any = false;
        self.visit(&mut |p| {
            if let LogicalPlan::Scan { virtual_table, .. } = p {
                any |= *virtual_table;
            }
        });
        any
    }

    /// Visit every node (pre-order).
    pub fn visit(&self, f: &mut impl FnMut(&LogicalPlan)) {
        f(self);
        for c in self.children() {
            c.visit(f);
        }
    }

    /// Render an EXPLAIN-style indented tree.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let indent = "  ".repeat(depth);
        let line = match self {
            LogicalPlan::Scan {
                table,
                alias,
                pushed_filter,
                prompt_columns,
                virtual_table,
                pushed_limit,
                table_schema,
                ..
            } => {
                let mut s = format!(
                    "{}Scan {}{}",
                    if *virtual_table { "Llm" } else { "" },
                    table,
                    if alias != table {
                        format!(" AS {alias}")
                    } else {
                        String::new()
                    }
                );
                if let Some(cols) = prompt_columns {
                    let names: Vec<&str> = cols
                        .iter()
                        .filter_map(|&i| table_schema.columns.get(i).map(|c| c.name.as_str()))
                        .collect();
                    s.push_str(&format!(" columns=[{}]", names.join(", ")));
                }
                if let Some(f) = pushed_filter {
                    s.push_str(&format!(" filter={f}"));
                }
                if let Some(l) = pushed_limit {
                    s.push_str(&format!(" limit={l}"));
                }
                s
            }
            LogicalPlan::Values { rows, .. } => format!("Values rows={}", rows.len()),
            LogicalPlan::Filter { predicate, .. } => format!("Filter {predicate}"),
            LogicalPlan::Project { exprs, schema, .. } => {
                let items: Vec<String> = exprs
                    .iter()
                    .zip(&schema.fields)
                    .map(|(e, f)| format!("{e} AS {}", f.name))
                    .collect();
                format!("Project [{}]", items.join(", "))
            }
            LogicalPlan::Join { kind, on, .. } => match on {
                Some(on) => format!("{kind} ON {on}"),
                None => format!("{kind}"),
            },
            LogicalPlan::Aggregate {
                group_exprs,
                aggregates,
                ..
            } => format!(
                "Aggregate group=[{}] aggs=[{}]",
                group_exprs
                    .iter()
                    .map(|e| e.to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
                aggregates
                    .iter()
                    .map(|e| e.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            LogicalPlan::Sort { keys, .. } => format!(
                "Sort [{}]",
                keys.iter()
                    .map(|k| format!("{}{}", k.expr, if k.ascending { "" } else { " DESC" }))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            LogicalPlan::Limit { limit, offset, .. } => {
                format!("Limit limit={limit:?} offset={offset}")
            }
            LogicalPlan::Distinct { .. } => "Distinct".to_string(),
        };
        out.push_str(&indent);
        out.push_str(&line);
        out.push('\n');
        for c in self.children() {
            c.explain_into(out, depth + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsql_types::{Column, DataType, Field};

    fn scan(virtual_table: bool) -> LogicalPlan {
        let table_schema = Schema::new(
            "t",
            vec![
                Column::new("id", DataType::Int).primary_key(),
                Column::new("x", DataType::Int),
            ],
        );
        LogicalPlan::Scan {
            table: "t".into(),
            alias: "t".into(),
            schema: RelSchema::from_table(&table_schema, "t"),
            table_schema,
            pushed_filter: None,
            prompt_columns: None,
            virtual_table,
            pushed_limit: None,
        }
    }

    #[test]
    fn schema_propagates_through_wrappers() {
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan(false)),
                predicate: BoundExpr::lit(true),
            }),
            limit: Some(5),
            offset: 0,
        };
        assert_eq!(plan.schema().len(), 2);
        assert_eq!(plan.node_count(), 3);
        assert_eq!(plan.scanned_tables(), vec!["t".to_string()]);
        assert!(!plan.uses_virtual_tables());
    }

    #[test]
    fn join_schema_concatenates() {
        let join = LogicalPlan::Join {
            schema: scan(false).schema().join(&scan(true).schema()),
            left: Box::new(scan(false)),
            right: Box::new(scan(true)),
            kind: JoinKind::Inner,
            on: None,
        };
        assert_eq!(join.schema().len(), 4);
        assert!(join.uses_virtual_tables());
        assert_eq!(join.children().len(), 2);
    }

    #[test]
    fn explain_renders_tree() {
        let plan = LogicalPlan::Project {
            schema: RelSchema::new(vec![Field::new(None, "x", DataType::Int, true)]),
            exprs: vec![BoundExpr::col(1, "x", DataType::Int)],
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan(true)),
                predicate: BoundExpr::Binary {
                    left: Box::new(BoundExpr::col(1, "x", DataType::Int)),
                    op: llmsql_sql::ast::BinaryOp::Gt,
                    right: Box::new(BoundExpr::lit(5i64)),
                },
            }),
        };
        let text = plan.explain();
        assert!(text.contains("Project"));
        assert!(text.contains("Filter"));
        assert!(text.contains("LlmScan t"));
        // indentation increases with depth
        assert!(text.lines().nth(2).unwrap().starts_with("    "));
    }
}
