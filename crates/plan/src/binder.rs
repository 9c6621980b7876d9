//! The binder: semantic analysis turning a parsed `SELECT` into a
//! [`LogicalPlan`] against a catalog of schemas.

use llmsql_sql::ast::{
    ColumnRef, Expr, JoinKind, OrderByItem, SelectItem, SelectStatement, TableExpr,
};
use llmsql_store::Catalog;
use llmsql_types::{DataType, Error, Field, RelSchema, Result, Schema};

use crate::expr::{bind_expr, BoundExpr};
use crate::logical::{LogicalPlan, SortKey};

/// Bind a SELECT statement into a logical plan.
pub fn bind_select(catalog: &Catalog, stmt: &SelectStatement) -> Result<LogicalPlan> {
    Binder { catalog }.bind_select(stmt)
}

struct Binder<'a> {
    catalog: &'a Catalog,
}

impl Binder<'_> {
    fn bind_select(&self, stmt: &SelectStatement) -> Result<LogicalPlan> {
        // FROM
        let mut plan = match &stmt.from {
            Some(from) => self.bind_table_expr(from)?,
            None => LogicalPlan::Values {
                schema: RelSchema::empty(),
                rows: vec![vec![]],
            },
        };

        // WHERE
        if let Some(selection) = &stmt.selection {
            let predicate = bind_expr(selection, &plan.schema())?;
            if predicate.contains_aggregate() {
                return Err(Error::binding(
                    "aggregate functions are not allowed in WHERE",
                ));
            }
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate,
            };
        }

        // Projection items (expand wildcards first).
        let input_schema = plan.schema();
        let items = self.expand_projection(&stmt.projection, &input_schema)?;

        if stmt.is_aggregate() {
            plan = self.bind_aggregate(stmt, plan, &items)?;
        } else {
            // Plain projection.
            let mut exprs = Vec::new();
            let mut fields = Vec::new();
            for (expr, alias) in &items {
                let bound = bind_expr(expr, &input_schema)?;
                let name = alias.clone().unwrap_or_else(|| bound.default_name());
                fields.push(Field::new(None, name, bound.data_type(), true));
                exprs.push(bound);
            }
            // ORDER BY: try binding against the projection output first
            // (aliases), falling back to the pre-projection schema (sort
            // below the projection).
            let out_schema = RelSchema::new(fields.clone());
            let (sort_above, sort_below) =
                self.bind_order_by(&stmt.order_by, &out_schema, Some(&input_schema))?;
            if let Some(keys) = sort_below {
                plan = LogicalPlan::Sort {
                    input: Box::new(plan),
                    keys,
                };
            }
            plan = LogicalPlan::Project {
                input: Box::new(plan),
                exprs,
                schema: out_schema,
            };
            if let Some(keys) = sort_above {
                plan = LogicalPlan::Sort {
                    input: Box::new(plan),
                    keys,
                };
            }
        }

        if stmt.distinct {
            plan = LogicalPlan::Distinct {
                input: Box::new(plan),
            };
        }

        if stmt.limit.is_some() || stmt.offset.is_some() {
            plan = LogicalPlan::Limit {
                input: Box::new(plan),
                limit: stmt.limit.map(|l| l as usize),
                offset: stmt.offset.unwrap_or(0) as usize,
            };
        }
        Ok(plan)
    }

    /// Expand `*` and `alias.*` into explicit column expressions.
    #[allow(clippy::type_complexity)]
    fn expand_projection(
        &self,
        projection: &[SelectItem],
        schema: &RelSchema,
    ) -> Result<Vec<(Expr, Option<String>)>> {
        let mut out = Vec::new();
        for item in projection {
            match item {
                SelectItem::Wildcard => {
                    if schema.is_empty() {
                        return Err(Error::binding("SELECT * requires a FROM clause"));
                    }
                    for f in &schema.fields {
                        out.push((
                            Expr::Column(ColumnRef {
                                qualifier: f.qualifier.clone(),
                                name: f.name.clone(),
                            }),
                            None,
                        ));
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let q_l = q.to_ascii_lowercase();
                    let matched: Vec<&Field> = schema
                        .fields
                        .iter()
                        .filter(|f| f.qualifier.as_deref() == Some(q_l.as_str()))
                        .collect();
                    if matched.is_empty() {
                        return Err(Error::binding(format!(
                            "unknown table alias '{q}' in {q}.*"
                        )));
                    }
                    for f in matched {
                        out.push((
                            Expr::Column(ColumnRef {
                                qualifier: f.qualifier.clone(),
                                name: f.name.clone(),
                            }),
                            None,
                        ));
                    }
                }
                SelectItem::Expr { expr, alias } => out.push((expr.clone(), alias.clone())),
            }
        }
        if out.is_empty() {
            return Err(Error::binding("SELECT list must not be empty"));
        }
        Ok(out)
    }

    fn bind_table_expr(&self, expr: &TableExpr) -> Result<LogicalPlan> {
        match expr {
            TableExpr::Table { name, alias } => {
                let schema = self.catalog.schema_of(name)?;
                let alias = alias
                    .clone()
                    .unwrap_or_else(|| name.clone())
                    .to_ascii_lowercase();
                Ok(LogicalPlan::Scan {
                    table: schema.name.clone(),
                    schema: RelSchema::from_table(&schema, &alias),
                    alias,
                    virtual_table: schema.virtual_table,
                    table_schema: schema,
                    pushed_filter: None,
                    prompt_columns: None,
                    pushed_limit: None,
                })
            }
            TableExpr::Subquery { query, alias } => {
                let inner = self.bind_select(query)?;
                // Re-qualify the subquery's output columns by the alias.
                let fields = inner
                    .schema()
                    .fields
                    .iter()
                    .map(|f| Field::new(Some(alias), f.name.clone(), f.data_type, f.nullable))
                    .collect();
                let schema = RelSchema::new(fields);
                let exprs = inner
                    .schema()
                    .fields
                    .iter()
                    .enumerate()
                    .map(|(i, f)| BoundExpr::col(i, &f.name, f.data_type))
                    .collect();
                Ok(LogicalPlan::Project {
                    input: Box::new(inner),
                    exprs,
                    schema,
                })
            }
            TableExpr::Join {
                left,
                right,
                kind,
                on,
            } => {
                let left_plan = self.bind_table_expr(left)?;
                let right_plan = self.bind_table_expr(right)?;
                let schema = left_plan.schema().join(&right_plan.schema());
                let on_bound = match on {
                    Some(on) => {
                        let b = bind_expr(on, &schema)?;
                        if b.contains_aggregate() {
                            return Err(Error::binding(
                                "aggregate functions are not allowed in JOIN conditions",
                            ));
                        }
                        Some(b)
                    }
                    None => {
                        if *kind != JoinKind::Cross {
                            return Err(Error::binding("JOIN requires an ON condition"));
                        }
                        None
                    }
                };
                Ok(LogicalPlan::Join {
                    left: Box::new(left_plan),
                    right: Box::new(right_plan),
                    kind: *kind,
                    on: on_bound,
                    schema,
                })
            }
        }
    }

    /// Bind GROUP BY + aggregate projection (+ HAVING).
    fn bind_aggregate(
        &self,
        stmt: &SelectStatement,
        input: LogicalPlan,
        items: &[(Expr, Option<String>)],
    ) -> Result<LogicalPlan> {
        let input_schema = input.schema();

        // Bind group expressions.
        let group_exprs: Vec<BoundExpr> = stmt
            .group_by
            .iter()
            .map(|e| bind_expr(e, &input_schema))
            .collect::<Result<_>>()?;

        // Collect aggregate calls appearing in the projection and HAVING.
        let mut aggregates: Vec<BoundExpr> = Vec::new();
        let mut collect = |bound: &BoundExpr| {
            bound.visit(&mut |e| {
                if matches!(e, BoundExpr::Aggregate { .. }) && !aggregates.contains(e) {
                    aggregates.push(e.clone());
                }
            });
        };
        let bound_items: Vec<(BoundExpr, Option<String>)> = items
            .iter()
            .map(|(e, a)| Ok((bind_expr(e, &input_schema)?, a.clone())))
            .collect::<Result<_>>()?;
        for (b, _) in &bound_items {
            collect(b);
        }
        let bound_having = match &stmt.having {
            Some(h) => {
                let b = bind_expr(h, &input_schema)?;
                collect(&b);
                Some(b)
            }
            None => None,
        };

        // The aggregate node's output: group columns then aggregate columns.
        let mut agg_fields = Vec::new();
        for g in &group_exprs {
            agg_fields.push(Field::new(None, g.default_name(), g.data_type(), true));
        }
        for a in &aggregates {
            agg_fields.push(Field::new(None, a.default_name(), a.data_type(), true));
        }
        let agg_schema = RelSchema::new(agg_fields);

        let mut plan = LogicalPlan::Aggregate {
            input: Box::new(input),
            group_exprs: group_exprs.clone(),
            aggregates: aggregates.clone(),
            schema: agg_schema.clone(),
        };

        // Rewrite an expression over the aggregate output: group expressions
        // and aggregate calls become column references.
        let rewrite = |expr: &BoundExpr| -> Result<BoundExpr> {
            rewrite_post_aggregate(expr.clone(), &group_exprs, &aggregates).ok_or_else(|| {
                Error::binding(format!(
                    "expression '{expr}' must appear in the GROUP BY clause or be used in an aggregate function"
                ))
            })
        };

        // HAVING runs over the aggregate output.
        if let Some(having) = bound_having {
            plan = LogicalPlan::Filter {
                predicate: rewrite(&having)?,
                input: Box::new(plan),
            };
        }

        // Final projection over the aggregate output.
        let mut exprs = Vec::new();
        let mut fields = Vec::new();
        for (b, alias) in &bound_items {
            let rewritten = rewrite(b)?;
            let name = alias.clone().unwrap_or_else(|| b.default_name());
            fields.push(Field::new(None, name, rewritten.data_type(), true));
            exprs.push(rewritten);
        }
        let out_schema = RelSchema::new(fields);

        // ORDER BY: each key is resolved against the projection output
        // (position, alias, or an expression equal to a projected item); keys
        // that cannot be expressed over the output (e.g. a group column that
        // was not projected) are bound against the aggregate output instead,
        // in which case the sort runs below the projection. Mixing the two in
        // one ORDER BY is not supported.
        let mut above_keys: Vec<SortKey> = Vec::new();
        let mut below_keys: Vec<SortKey> = Vec::new();
        for o in &stmt.order_by {
            // 1. positional reference
            if let Expr::Literal(llmsql_types::Value::Int(pos)) = &o.expr {
                let idx = *pos as usize;
                if idx >= 1 && idx <= out_schema.len() {
                    let f = &out_schema.fields[idx - 1];
                    above_keys.push(SortKey {
                        expr: BoundExpr::col(idx - 1, &f.name, f.data_type),
                        ascending: o.ascending,
                    });
                    continue;
                }
            }
            // 2. output alias / name
            if let Ok(bound) = bind_expr(&o.expr, &out_schema) {
                above_keys.push(SortKey {
                    expr: bound,
                    ascending: o.ascending,
                });
                continue;
            }
            // 3. an expression over the input that equals a projected item
            if let Ok(bound_input) = bind_expr(&o.expr, &input_schema) {
                if let Some(pos) = bound_items.iter().position(|(b, _)| *b == bound_input) {
                    let f = &out_schema.fields[pos];
                    above_keys.push(SortKey {
                        expr: BoundExpr::col(pos, &f.name, f.data_type),
                        ascending: o.ascending,
                    });
                    continue;
                }
                // 4. otherwise rewrite it onto the aggregate output
                below_keys.push(SortKey {
                    expr: rewrite(&bound_input)?,
                    ascending: o.ascending,
                });
                continue;
            }
            // 5. last chance: the aggregate output itself
            let bound = bind_expr(&o.expr, &agg_schema)?;
            below_keys.push(SortKey {
                expr: bound,
                ascending: o.ascending,
            });
        }
        if !above_keys.is_empty() && !below_keys.is_empty() {
            return Err(Error::unsupported(
                "ORDER BY mixes projected and non-projected grouped expressions",
            ));
        }
        let sort_above = (!above_keys.is_empty()).then_some(above_keys);
        let sort_below = (!below_keys.is_empty()).then_some(below_keys);
        if let Some(keys) = sort_below {
            plan = LogicalPlan::Sort {
                input: Box::new(plan),
                keys,
            };
        }
        plan = LogicalPlan::Project {
            input: Box::new(plan),
            exprs,
            schema: out_schema,
        };
        if let Some(keys) = sort_above {
            plan = LogicalPlan::Sort {
                input: Box::new(plan),
                keys,
            };
        }
        Ok(plan)
    }

    /// Bind ORDER BY items. Returns `(above, below)`: keys bound against the
    /// projection output (sort goes above the Project) or against the
    /// pre-projection schema (sort goes below). All keys must bind the same
    /// way; output binding is preferred.
    #[allow(clippy::type_complexity)]
    fn bind_order_by(
        &self,
        order_by: &[OrderByItem],
        output: &RelSchema,
        below: Option<&RelSchema>,
    ) -> Result<(Option<Vec<SortKey>>, Option<Vec<SortKey>>)> {
        if order_by.is_empty() {
            return Ok((None, None));
        }
        let try_bind = |schema: &RelSchema| -> Result<Vec<SortKey>> {
            order_by
                .iter()
                .map(|o| {
                    // Positional ORDER BY (1-based) refers to output columns.
                    if let Expr::Literal(llmsql_types::Value::Int(pos)) = &o.expr {
                        let idx = *pos as usize;
                        if idx >= 1 && idx <= schema.len() {
                            let f = &schema.fields[idx - 1];
                            return Ok(SortKey {
                                expr: BoundExpr::col(idx - 1, &f.name, f.data_type),
                                ascending: o.ascending,
                            });
                        }
                    }
                    Ok(SortKey {
                        expr: bind_expr(&o.expr, schema)?,
                        ascending: o.ascending,
                    })
                })
                .collect()
        };
        match try_bind(output) {
            Ok(keys) => Ok((Some(keys), None)),
            Err(out_err) => match below {
                Some(schema) => match try_bind(schema) {
                    Ok(keys) => Ok((None, Some(keys))),
                    Err(_) => Err(out_err),
                },
                None => Err(out_err),
            },
        }
    }
}

/// Rewrite an expression over the aggregate node's output schema: any subtree
/// equal to a group expression becomes a column reference to that group
/// column, any aggregate call becomes a reference to its aggregate column.
/// Returns `None` when a leaf column survives un-grouped (invalid query).
fn rewrite_post_aggregate(
    expr: BoundExpr,
    group_exprs: &[BoundExpr],
    aggregates: &[BoundExpr],
) -> Option<BoundExpr> {
    let output =
        |index: usize, e: &BoundExpr| BoundExpr::col(index, &e.default_name(), e.data_type());
    if let Some(i) = group_exprs.iter().position(|g| *g == expr) {
        return Some(output(i, &expr));
    }
    if matches!(expr, BoundExpr::Aggregate { .. }) {
        let pos = aggregates.iter().position(|a| *a == expr)?;
        return Some(output(group_exprs.len() + pos, &expr));
    }
    // Otherwise recurse; bare columns that are not part of a group expression
    // are invalid.
    expr.try_map_children(&|_| Err(()), |e| {
        rewrite_post_aggregate(e, group_exprs, aggregates).ok_or(())
    })
    .ok()
}

/// Bind a CREATE TABLE column list into a [`Schema`].
pub fn schema_from_create(
    name: &str,
    columns: &[llmsql_sql::ast::ColumnDef],
    virtual_table: bool,
    comment: Option<&str>,
) -> Result<Schema> {
    let cols = columns
        .iter()
        .map(|c| {
            let mut col = llmsql_types::Column::new(c.name.to_ascii_lowercase(), c.data_type);
            if c.primary_key {
                col = col.primary_key();
            } else if c.not_null {
                col = col.not_null();
            }
            if let Some(comment) = &c.comment {
                col = col.with_description(comment.clone());
            }
            col
        })
        .collect();
    let mut schema = if virtual_table {
        Schema::virtual_table(name, cols)
    } else {
        Schema::new(name, cols)
    };
    if let Some(c) = comment {
        schema = schema.with_description(c);
    }
    schema.validate()?;
    let _ = DataType::Int; // keep DataType import used in all cfgs
    Ok(schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsql_sql::parse_statement;
    use llmsql_sql::Statement;
    use llmsql_types::Column;

    fn catalog() -> Catalog {
        let cat = Catalog::new();
        cat.create_table(Schema::new(
            "countries",
            vec![
                Column::new("name", DataType::Text).primary_key(),
                Column::new("region", DataType::Text),
                Column::new("population", DataType::Int),
            ],
        ))
        .unwrap();
        cat.create_virtual_table(Schema::new(
            "cities",
            vec![
                Column::new("name", DataType::Text).primary_key(),
                Column::new("country", DataType::Text),
                Column::new("population", DataType::Int),
            ],
        ))
        .unwrap();
        cat
    }

    fn bind(sql: &str) -> Result<LogicalPlan> {
        let stmt = parse_statement(sql).unwrap();
        match stmt {
            Statement::Select(s) => bind_select(&catalog(), &s),
            _ => panic!("not a select"),
        }
    }

    #[test]
    fn simple_select_star() {
        let plan = bind("SELECT * FROM countries").unwrap();
        assert_eq!(plan.schema().len(), 3);
        assert!(matches!(plan, LogicalPlan::Project { .. }));
        assert_eq!(plan.scanned_tables(), vec!["countries".to_string()]);
    }

    #[test]
    fn filter_and_projection() {
        let plan = bind("SELECT name FROM countries WHERE population > 10").unwrap();
        assert_eq!(plan.schema().names(), vec!["name".to_string()]);
        let text = plan.explain();
        assert!(text.contains("Filter"));
        assert!(text.contains("Scan countries"));
    }

    #[test]
    fn virtual_table_flag_propagates() {
        let plan = bind("SELECT * FROM cities").unwrap();
        assert!(plan.uses_virtual_tables());
        assert!(plan.explain().contains("LlmScan"));
    }

    #[test]
    fn join_binding() {
        let plan =
            bind("SELECT c.name, ci.name FROM countries c JOIN cities ci ON ci.country = c.name")
                .unwrap();
        assert_eq!(plan.schema().len(), 2);
        let mut joins = 0;
        plan.visit(&mut |p| {
            if matches!(p, LogicalPlan::Join { .. }) {
                joins += 1;
            }
        });
        assert_eq!(joins, 1);
    }

    #[test]
    fn join_without_on_rejected() {
        assert!(bind("SELECT * FROM countries JOIN cities ON 1 = 1").is_ok());
        // the parser requires ON for non-cross joins, so test cross join path
        assert!(bind("SELECT * FROM countries CROSS JOIN cities").is_ok());
    }

    #[test]
    fn aggregate_group_by() {
        let plan = bind(
            "SELECT region, COUNT(*) AS n, SUM(population) FROM countries \
             GROUP BY region HAVING COUNT(*) > 1 ORDER BY n DESC",
        )
        .unwrap();
        assert_eq!(
            plan.schema().names(),
            vec![
                "region".to_string(),
                "n".to_string(),
                "sum(population)".to_string()
            ]
        );
        let text = plan.explain();
        assert!(text.contains("Aggregate"));
        assert!(text.contains("Sort"));
        assert!(text.contains("Filter")); // HAVING
    }

    #[test]
    fn global_aggregate_without_group() {
        let plan = bind("SELECT COUNT(*), MAX(population) FROM countries").unwrap();
        assert_eq!(plan.schema().len(), 2);
        assert!(plan.explain().contains("Aggregate group=[]"));
    }

    #[test]
    fn ungrouped_column_in_aggregate_rejected() {
        let err = bind("SELECT name, COUNT(*) FROM countries GROUP BY region").unwrap_err();
        assert!(err.message.contains("GROUP BY"));
    }

    #[test]
    fn aggregate_in_where_rejected() {
        assert!(bind("SELECT name FROM countries WHERE SUM(population) > 1").is_err());
    }

    #[test]
    fn order_by_column_not_in_projection() {
        let plan = bind("SELECT name FROM countries ORDER BY population DESC").unwrap();
        // Sort must sit below the Project (it references population).
        match &plan {
            LogicalPlan::Project { input, .. } => {
                assert!(matches!(**input, LogicalPlan::Sort { .. }))
            }
            other => panic!("unexpected root {other:?}"),
        }
    }

    #[test]
    fn order_by_alias_and_position() {
        let plan = bind("SELECT name AS n FROM countries ORDER BY n").unwrap();
        assert!(matches!(plan, LogicalPlan::Sort { .. }));
        let plan = bind("SELECT name, population FROM countries ORDER BY 2 DESC").unwrap();
        assert!(matches!(plan, LogicalPlan::Sort { .. }));
    }

    #[test]
    fn limit_offset_distinct() {
        let plan = bind("SELECT DISTINCT region FROM countries LIMIT 5 OFFSET 2").unwrap();
        match &plan {
            LogicalPlan::Limit {
                limit,
                offset,
                input,
            } => {
                assert_eq!(*limit, Some(5));
                assert_eq!(*offset, 2);
                assert!(matches!(**input, LogicalPlan::Distinct { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn select_without_from() {
        let plan = bind("SELECT 1 + 1 AS two, 'x' AS s").unwrap();
        assert_eq!(
            plan.schema().names(),
            vec!["two".to_string(), "s".to_string()]
        );
    }

    #[test]
    fn select_star_without_from_rejected() {
        assert!(bind("SELECT *").is_err());
    }

    #[test]
    fn unknown_table_and_column() {
        assert!(bind("SELECT * FROM starfleet").is_err());
        assert!(bind("SELECT gdp FROM countries").is_err());
        assert!(bind("SELECT x.* FROM countries c").is_err());
    }

    #[test]
    fn ambiguous_column_rejected() {
        let err =
            bind("SELECT name FROM countries c JOIN cities ci ON ci.country = c.name").unwrap_err();
        assert!(err.message.contains("ambiguous"));
    }

    #[test]
    fn subquery_in_from() {
        let plan = bind(
            "SELECT big.name FROM (SELECT name, population FROM countries WHERE population > 5) AS big",
        )
        .unwrap();
        assert_eq!(plan.schema().names(), vec!["name".to_string()]);
    }

    #[test]
    fn schema_from_create_works() {
        let stmt = parse_statement(
            "CREATE VIRTUAL TABLE t (a INT PRIMARY KEY, b TEXT COMMENT 'the b') COMMENT 'stuff'",
        )
        .unwrap();
        match stmt {
            Statement::CreateTable(c) => {
                let schema =
                    schema_from_create(&c.name, &c.columns, c.virtual_table, c.comment.as_deref())
                        .unwrap();
                assert!(schema.virtual_table);
                assert_eq!(schema.description.as_deref(), Some("stuff"));
                assert!(schema.columns[0].primary_key);
                assert_eq!(schema.columns[1].description.as_deref(), Some("the b"));
            }
            _ => panic!(),
        }
    }
}
