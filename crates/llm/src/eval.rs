//! A small expression evaluator the *simulator* uses to interpret filter
//! predicates that the engine pushed into prompts.
//!
//! This is intentionally separate from the engine's own evaluator
//! (`llmsql-exec`): it models "the language model reading a condition in the
//! prompt and applying it to facts it recalls". It supports the subset of SQL
//! expressions the prompt builder ever pushes down: comparisons, boolean
//! connectives, arithmetic, LIKE, IN, BETWEEN, IS NULL over the relation's
//! columns and literals. What an operator does to values is
//! [`llmsql_sql::eval`], the engine's own kernel: a scan trusts the model's
//! filtering, so a model at perfect fidelity must filter as the engine would.

use llmsql_sql::ast::Expr;
use llmsql_sql::eval::{binary, truthy, unary};
use llmsql_sql::parse_expression;
use llmsql_types::{Error, Result, Row, Schema, Value};

/// Evaluate a predicate (given as SQL text) against a row of the relation.
///
/// Returns `Ok(None)` when the predicate value is SQL UNKNOWN (three-valued
/// logic) — the caller usually treats that as "does not satisfy".
pub fn eval_predicate_text(schema: &Schema, row: &Row, predicate: &str) -> Result<Option<bool>> {
    let expr = parse_expression(predicate)?;
    let v = eval_expr(schema, row, &expr)?;
    Ok(match v {
        Value::Null => None,
        Value::Bool(b) => Some(b),
        other => Some(truthy(&other)),
    })
}

/// Evaluate an expression against a row of the relation.
pub fn eval_expr(schema: &Schema, row: &Row, expr: &Expr) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column { name, .. } => {
            let idx = schema.index_of(name).ok_or_else(|| {
                Error::llm(format!(
                    "predicate references unknown column '{name}' of '{}'",
                    schema.name
                ))
            })?;
            Ok(row.get(idx).clone())
        }
        Expr::Unary { op, expr } => {
            let v = eval_expr(schema, row, expr)?;
            unary(*op, &v).ok_or_else(|| Error::llm(format!("cannot negate {}", v.type_name())))
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_expr(schema, row, expr)?;
            let is_null = v.is_null();
            Ok(Value::Bool(if *negated { !is_null } else { is_null }))
        }
        Expr::Binary { left, op, right } => {
            let l = eval_expr(schema, row, left)?;
            let r = eval_expr(schema, row, right)?;
            binary(&l, *op, &r).ok_or_else(|| Error::llm("invalid arithmetic operands"))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_expr(schema, row, expr)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut found = false;
            for item in list {
                let iv = eval_expr(schema, row, item)?;
                if v.semantic_eq(&iv) {
                    found = true;
                    break;
                }
            }
            Ok(Value::Bool(if *negated { !found } else { found }))
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval_expr(schema, row, expr)?;
            let lo = eval_expr(schema, row, low)?;
            let hi = eval_expr(schema, row, high)?;
            if v.is_null() || lo.is_null() || hi.is_null() {
                return Ok(Value::Null);
            }
            let within = v.total_cmp(&lo) != std::cmp::Ordering::Less
                && v.total_cmp(&hi) != std::cmp::Ordering::Greater;
            Ok(Value::Bool(if *negated { !within } else { within }))
        }
        Expr::Cast { expr, data_type } => {
            let v = eval_expr(schema, row, expr)?;
            v.cast(*data_type).map_err(|e| Error::llm(e.message))
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (cond, val) in branches {
                let c = eval_expr(schema, row, cond)?;
                if truthy(&c) {
                    return eval_expr(schema, row, val);
                }
            }
            match else_expr {
                Some(e) => eval_expr(schema, row, e),
                None => Ok(Value::Null),
            }
        }
        Expr::Aggregate { .. } => Err(Error::llm(
            "aggregate expressions cannot appear in pushed-down predicates",
        )),
    }
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
        // division by zero yields NULL -> unknown
        assert_eq!(check("population / 0 > 1"), None);
    }

    #[test]
    fn unknown_column_errors() {
        assert!(eval_predicate_text(&schema(), &row(), "gdp > 1").is_err());
        assert!(eval_predicate_text(&schema(), &row(), "SUM(population) > 1").is_err());
    }
}
