//! Binding expressions: from the parser's column names to [`BoundExpr`].
//!
//! The tree is `llmsql-sql`'s one [`Expr`]; binding changes only what a
//! column reference holds — the flat input-row index, the resolved name and
//! the data type ([`BoundColumn`]) — through the tree's one rebuild. This
//! module owns how a bound expression is made and how predicates are taken
//! apart into conjuncts and put back together.

use llmsql_sql::ast::{BinaryOp, Expr};
use llmsql_types::{RelSchema, Result};

pub use llmsql_sql::bound::{BoundColumn, BoundExpr};

/// Bind an AST expression against an input schema.
pub fn bind_expr(expr: &Expr, schema: &RelSchema) -> Result<BoundExpr> {
    expr.clone().try_map_columns(&|c| {
        let index = schema.resolve(c.qualifier.as_deref(), &c.name)?;
        let field = &schema.fields[index];
        Ok(BoundExpr::col(index, &field.name, field.data_type))
    })
}

/// Split a predicate into its top-level conjuncts.
pub fn split_conjunction(expr: &BoundExpr) -> Vec<BoundExpr> {
    match expr {
        BoundExpr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            let mut out = split_conjunction(left);
            out.extend(split_conjunction(right));
            out
        }
        other => vec![other.clone()],
    }
}

/// Combine predicates with AND; `None` when the slice is empty.
pub fn conjoin(exprs: &[BoundExpr]) -> Option<BoundExpr> {
    exprs.iter().cloned().reduce(BoundExpr::and)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsql_sql::parse_expression;
    use llmsql_types::{DataType, Field};

    fn schema() -> RelSchema {
        RelSchema::new(vec![
            Field::new(Some("c"), "name", DataType::Text, false),
            Field::new(Some("c"), "region", DataType::Text, true),
            Field::new(Some("c"), "population", DataType::Int, true),
        ])
    }

    fn bind(sql: &str) -> BoundExpr {
        bind_expr(&parse_expression(sql).unwrap(), &schema()).unwrap()
    }

    #[test]
    fn binds_columns_to_indices() {
        let e = bind("population > 10");
        assert_eq!(e.referenced_indices(), vec![2]);
        assert_eq!(e.data_type(), DataType::Bool);
        let e = bind("c.name = 'France' AND region = 'Europe'");
        assert_eq!(e.referenced_indices(), vec![0, 1]);
    }

    #[test]
    fn unknown_column_fails() {
        assert!(bind_expr(&parse_expression("gdp > 1").unwrap(), &schema()).is_err());
    }

    #[test]
    fn data_types() {
        assert_eq!(bind("population + 1").data_type(), DataType::Int);
        assert_eq!(bind("population / 2").data_type(), DataType::Float);
        assert_eq!(bind("name || region").data_type(), DataType::Text);
        assert_eq!(bind("population IS NULL").data_type(), DataType::Bool);
        assert_eq!(bind("CAST(population AS TEXT)").data_type(), DataType::Text);
        assert_eq!(bind("COUNT(*)").data_type(), DataType::Int);
        assert_eq!(bind("AVG(population)").data_type(), DataType::Float);
    }

    #[test]
    fn aggregate_detection_and_pushdown_guard() {
        let agg = bind("SUM(population)");
        assert!(agg.contains_aggregate());
        assert!(agg.to_sql_text().is_err());
        let plain = bind("population > 5");
        assert!(!plain.contains_aggregate());
        assert_eq!(plain.to_sql_text().unwrap(), "(population > 5)");
    }

    #[test]
    fn sql_text_roundtrips_through_parser() {
        for (sql, pushed) in [
            (
                "population > 10 AND region = 'Europe'",
                "((population > 10) AND (region = 'Europe'))",
            ),
            ("name LIKE 'F%'", "(name LIKE 'F%')"),
            (
                "population BETWEEN 1 AND 10",
                "(population BETWEEN 1 AND 10)",
            ),
            (
                "region IN ('Europe', 'Asia')",
                "(region IN ('Europe', 'Asia'))",
            ),
            ("region IS NOT NULL", "(region IS NOT NULL)"),
            // What a prompt says is what the query said, whatever the script.
            ("name = 'São Tomé'", "(name = 'São Tomé')"),
            (
                "name LIKE 'Côte d''Ivoire%' OR region = '日本'",
                "((name LIKE 'Côte d''Ivoire%') OR (region = '日本'))",
            ),
        ] {
            let text = bind(sql).to_sql_text().unwrap();
            assert_eq!(text, pushed);
            // and the model reads back the predicate the engine wrote
            assert_eq!(bind(&text).to_sql_text().unwrap(), text);
        }
    }

    #[test]
    fn split_and_conjoin() {
        let e = bind("population > 1 AND region = 'Europe' AND name <> 'X'");
        let parts = split_conjunction(&e);
        assert_eq!(parts.len(), 3);
        let back = conjoin(&parts).unwrap();
        assert_eq!(split_conjunction(&back).len(), 3);
        assert!(conjoin(&[]).is_none());
    }

    #[test]
    fn remap_columns() {
        let e = bind("population > 10 AND region = 'Europe'");
        // map input indices 1,2 -> 0,1
        let remapped = e.remap_columns(&|i| i.checked_sub(1)).unwrap();
        assert_eq!(remapped.referenced_indices(), vec![0, 1]);
        // mapping that loses a column fails
        let gone = e.remap_columns(&|i| if i == 2 { None } else { Some(i) });
        assert!(gone.is_none());
    }

    #[test]
    fn default_names() {
        assert_eq!(bind("population").default_name(), "population");
        assert_eq!(bind("COUNT(*)").default_name(), "count(*)");
        assert_eq!(bind("SUM(population)").default_name(), "sum(population)");
    }

    #[test]
    fn display_case() {
        let e = bind("CASE WHEN population > 5 THEN 'big' ELSE 'small' END");
        let s = e.to_string();
        assert!(s.contains("CASE WHEN"));
        assert!(s.contains("ELSE"));
    }
}
