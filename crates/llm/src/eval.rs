//! How the *simulator* applies the conditions it reads in a prompt.
//!
//! This models "the language model reading a condition in the prompt and
//! applying it to facts it recalls": the predicate arrives as SQL text, the
//! model parses it and resolves its column names to positions in the
//! relation — once per prompt — and then evaluates it per row with
//! [`llmsql_sql::eval::eval`], the walker the engine itself uses. A scan
//! trusts the model's filtering, so a model at perfect fidelity must filter
//! as the engine would; sharing the evaluator is what guarantees it. Only
//! the reading (names to positions) and the error kind are the model's own.

use std::borrow::Cow;

use llmsql_sql::ast::Expr;
use llmsql_sql::eval::{eval, truth};
use llmsql_sql::parse_expression;
use llmsql_types::{Error, ErrorKind, Result, Row, Schema, Value};

/// An expression as the model holds it after reading a prompt: column
/// references are positions in the rows it will be applied to.
pub type ReadExpr = Expr<usize>;

/// Read a predicate (given as SQL text) against the relation it is about.
/// The table qualifier of a column, if any, is ignored: the prompt is about
/// one relation.
pub fn read_predicate(schema: &Schema, predicate: &str) -> Result<ReadExpr> {
    parse_expression(predicate)?.try_map_columns(&|c| {
        schema.index_of(&c.name).map(Expr::Column).ok_or_else(|| {
            Error::llm(format!(
                "predicate references unknown column '{}' of '{}'",
                c.name, schema.name
            ))
        })
    })
}

/// Evaluate an expression the model has read against a row: a column or a
/// literal comes back borrowed, a computed value owned.
pub fn eval_value<'a>(expr: &'a ReadExpr, row: &'a Row) -> Result<Cow<'a, Value>> {
    eval(expr, &|&i| row.get(i), ErrorKind::Llm)
}

/// Evaluate a predicate the model has read against a row.
///
/// Returns `Ok(None)` when the predicate value is SQL UNKNOWN (three-valued
/// logic) — the caller usually treats that as "does not satisfy".
pub fn eval_predicate(predicate: &ReadExpr, row: &Row) -> Result<Option<bool>> {
    eval_value(predicate, row).map(|v| truth(&v))
}

/// Read a predicate (given as SQL text) and evaluate it against one row of
/// the relation.
pub fn eval_predicate_text(schema: &Schema, row: &Row, predicate: &str) -> Result<Option<bool>> {
    eval_predicate(&read_predicate(schema, predicate)?, row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsql_types::{Column, DataType};

    fn schema() -> Schema {
        Schema::new(
            "countries",
            vec![
                Column::new("name", DataType::Text).primary_key(),
                Column::new("region", DataType::Text),
                Column::new("population", DataType::Int),
                Column::new("area", DataType::Float),
            ],
        )
    }

    fn row() -> Row {
        Row::new(vec![
            "France".into(),
            "Europe".into(),
            Value::Int(68_000_000),
            Value::Float(643_801.0),
        ])
    }

    fn check(pred: &str) -> Option<bool> {
        eval_predicate_text(&schema(), &row(), pred).unwrap()
    }

    #[test]
    fn comparisons() {
        assert_eq!(check("population > 50000000"), Some(true));
        assert_eq!(check("population < 50000000"), Some(false));
        assert_eq!(check("name = 'France'"), Some(true));
        assert_eq!(check("name <> 'France'"), Some(false));
        assert_eq!(check("area >= 643801.0"), Some(true));
        assert_eq!(check("population <= 68000000"), Some(true));
    }

    #[test]
    fn boolean_logic() {
        assert_eq!(check("population > 1 AND region = 'Europe'"), Some(true));
        assert_eq!(check("population > 1 AND region = 'Asia'"), Some(false));
        assert_eq!(check("region = 'Asia' OR area > 1000"), Some(true));
        assert_eq!(check("NOT region = 'Asia'"), Some(true));
    }

    #[test]
    fn null_semantics() {
        let schema = schema();
        let row = Row::new(vec!["X".into(), Value::Null, Value::Null, Value::Null]);
        assert_eq!(
            eval_predicate_text(&schema, &row, "population > 10").unwrap(),
            None
        );
        assert_eq!(
            eval_predicate_text(&schema, &row, "region IS NULL").unwrap(),
            Some(true)
        );
        assert_eq!(
            eval_predicate_text(&schema, &row, "region IS NOT NULL").unwrap(),
            Some(false)
        );
        // false AND unknown = false
        assert_eq!(
            eval_predicate_text(&schema, &row, "name = 'Y' AND population > 10").unwrap(),
            Some(false)
        );
        // true OR unknown = true
        assert_eq!(
            eval_predicate_text(&schema, &row, "name = 'X' OR population > 10").unwrap(),
            Some(true)
        );
    }

    #[test]
    fn in_between_like() {
        assert_eq!(check("region IN ('Europe', 'Asia')"), Some(true));
        assert_eq!(check("region NOT IN ('Europe')"), Some(false));
        // A NULL item makes "not found" unknown, as in the engine.
        assert_eq!(check("region IN ('Europe', NULL)"), Some(true));
        assert_eq!(check("region NOT IN ('Asia', NULL)"), None);
        assert_eq!(
            check("population BETWEEN 1000000 AND 100000000"),
            Some(true)
        );
        assert_eq!(check("population NOT BETWEEN 1 AND 10"), Some(true));
        assert_eq!(check("name LIKE 'Fra%'"), Some(true));
        assert_eq!(check("name LIKE '%ance'"), Some(true));
        assert_eq!(check("name LIKE 'F_ance'"), Some(true));
        assert_eq!(check("name LIKE 'Ger%'"), Some(false));
    }

    #[test]
    fn arithmetic_and_case() {
        assert_eq!(check("population / 1000000 >= 68"), Some(true));
        assert_eq!(check("population % 2 = 0"), Some(true));
        assert_eq!(check("population + 1 > population"), Some(true));
        assert_eq!(
            check("CASE WHEN region = 'Europe' THEN 1 ELSE 0 END = 1"),
            Some(true)
        );
        assert_eq!(check("CAST(area AS INTEGER) = 643801"), Some(true));
        // A cast that fails is NULL, not an error.
        assert_eq!(check("CAST(name AS INTEGER) IS NULL"), Some(true));
        // division by zero yields NULL -> unknown
        assert_eq!(check("population / 0 > 1"), None);
    }

    #[test]
    fn unknown_column_errors() {
        assert!(eval_predicate_text(&schema(), &row(), "gdp > 1").is_err());
        assert!(eval_predicate_text(&schema(), &row(), "SUM(population) > 1").is_err());
    }
}
