//! Constant folding: evaluate literal-only subexpressions at plan time.
//!
//! Anything folded here is a token the prompt renderer never has to spell
//! out and a predicate the executor never has to re-evaluate per row. The
//! rule is deliberately conservative: it only folds non-NULL literals of
//! matching types and the three-valued-logic-safe boolean identities
//! (`TRUE AND x → x`, `FALSE AND x → FALSE`, duals for OR), so folding can
//! never change a query's result rows. A `WHERE` clause that folds to `TRUE`
//! removes its Filter node entirely.

use std::convert::Infallible;

use llmsql_sql::ast::{BinaryOp, UnaryOp};
use llmsql_types::Value;

use crate::expr::BoundExpr;
use crate::logical::LogicalPlan;
use crate::rules::map_children;

/// Apply the rule to a whole plan.
pub fn apply(plan: LogicalPlan) -> LogicalPlan {
    let plan = map_children(plan, apply);
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            match fold_expr(predicate) {
                // WHERE TRUE filters nothing: drop the node.
                BoundExpr::Literal(Value::Bool(true)) => *input,
                folded => LogicalPlan::Filter {
                    input,
                    predicate: folded,
                },
            }
        }
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => LogicalPlan::Project {
            input,
            exprs: exprs.into_iter().map(fold_expr).collect(),
            schema,
        },
        LogicalPlan::Scan {
            table,
            alias,
            table_schema,
            schema,
            pushed_filter,
            prompt_columns,
            virtual_table,
            pushed_limit,
        } => LogicalPlan::Scan {
            table,
            alias,
            table_schema,
            schema,
            pushed_filter: pushed_filter.map(fold_expr),
            prompt_columns,
            virtual_table,
            pushed_limit,
        },
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            schema,
        } => LogicalPlan::Join {
            left,
            right,
            kind,
            on: on.map(fold_expr),
            schema,
        },
        LogicalPlan::Values { schema, rows } => LogicalPlan::Values {
            schema,
            rows: rows
                .into_iter()
                .map(|r| r.into_iter().map(fold_expr).collect())
                .collect(),
        },
        other => other,
    }
}

/// Fold one expression bottom-up.
pub fn fold_expr(expr: BoundExpr) -> BoundExpr {
    let Ok(rebuilt) = expr.try_map_children(&|c| Ok::<_, Infallible>(BoundExpr::Column(c)), |e| {
        Ok(fold_expr(e))
    });
    match rebuilt {
        BoundExpr::Binary { left, op, right } => fold_binary(left, op, right),
        BoundExpr::Unary { op, expr } => {
            let folded = match (op, expr.as_ref()) {
                (UnaryOp::Not, BoundExpr::Literal(Value::Bool(b))) => Some(BoundExpr::lit(!*b)),
                (UnaryOp::Neg, BoundExpr::Literal(Value::Int(i))) => {
                    i.checked_neg().map(BoundExpr::lit)
                }
                _ => None,
            };
            folded.unwrap_or(BoundExpr::Unary { op, expr })
        }
        other => other,
    }
}

/// Fold a binary node whose operands are already folded (boxed as the
/// rebuild left them, so a node that does not fold is put back as it is).
fn fold_binary(left: Box<BoundExpr>, op: BinaryOp, right: Box<BoundExpr>) -> BoundExpr {
    use llmsql_sql::ast::Expr::Literal;
    // Three-valued-logic-safe boolean identities. `FALSE AND x` is FALSE and
    // `TRUE OR x` is TRUE even when x is NULL, so both eliminations hold.
    match (op, left.as_ref(), right.as_ref()) {
        (BinaryOp::And, Literal(Value::Bool(true)), _) => return *right,
        (BinaryOp::And, _, Literal(Value::Bool(true))) => return *left,
        (BinaryOp::And, Literal(Value::Bool(false)), _)
        | (BinaryOp::And, _, Literal(Value::Bool(false))) => return BoundExpr::lit(false),
        (BinaryOp::Or, Literal(Value::Bool(false)), _) => return *right,
        (BinaryOp::Or, _, Literal(Value::Bool(false))) => return *left,
        (BinaryOp::Or, Literal(Value::Bool(true)), _)
        | (BinaryOp::Or, _, Literal(Value::Bool(true))) => return BoundExpr::lit(true),
        _ => {}
    }
    // Literal-only arithmetic and comparisons, same-type and non-NULL only
    // (mixed-type coercion stays with the runtime evaluator).
    if let (Literal(a), Literal(b)) = (left.as_ref(), right.as_ref()) {
        if let Some(folded) = fold_literals(a, op, b) {
            return folded;
        }
    }
    BoundExpr::Binary { left, op, right }
}

fn fold_literals(a: &Value, op: BinaryOp, b: &Value) -> Option<BoundExpr> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => match op {
            BinaryOp::Plus => x.checked_add(*y).map(BoundExpr::lit),
            BinaryOp::Minus => x.checked_sub(*y).map(BoundExpr::lit),
            BinaryOp::Multiply => x.checked_mul(*y).map(BoundExpr::lit),
            BinaryOp::Eq => Some(BoundExpr::lit(x == y)),
            BinaryOp::NotEq => Some(BoundExpr::lit(x != y)),
            BinaryOp::Lt => Some(BoundExpr::lit(x < y)),
            BinaryOp::LtEq => Some(BoundExpr::lit(x <= y)),
            BinaryOp::Gt => Some(BoundExpr::lit(x > y)),
            BinaryOp::GtEq => Some(BoundExpr::lit(x >= y)),
            _ => None,
        },
        (Value::Text(x), Value::Text(y)) => match op {
            BinaryOp::Eq => Some(BoundExpr::lit(x == y)),
            BinaryOp::NotEq => Some(BoundExpr::lit(x != y)),
            BinaryOp::Lt => Some(BoundExpr::lit(x < y)),
            BinaryOp::LtEq => Some(BoundExpr::lit(x <= y)),
            BinaryOp::Gt => Some(BoundExpr::lit(x > y)),
            BinaryOp::GtEq => Some(BoundExpr::lit(x >= y)),
            BinaryOp::Concat => Some(BoundExpr::lit(format!("{x}{y}"))),
            _ => None,
        },
        (Value::Bool(x), Value::Bool(y)) => match op {
            BinaryOp::Eq => Some(BoundExpr::lit(x == y)),
            BinaryOp::NotEq => Some(BoundExpr::lit(x != y)),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsql_types::DataType;

    fn bin(l: BoundExpr, op: BinaryOp, r: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            left: Box::new(l),
            op,
            right: Box::new(r),
        }
    }

    #[test]
    fn folds_integer_arithmetic_and_comparisons() {
        let e = bin(BoundExpr::lit(2i64), BinaryOp::Plus, BoundExpr::lit(3i64));
        assert_eq!(fold_expr(e), BoundExpr::lit(5i64));
        let e = bin(BoundExpr::lit(2i64), BinaryOp::Gt, BoundExpr::lit(3i64));
        assert_eq!(fold_expr(e), BoundExpr::lit(false));
    }

    #[test]
    fn overflow_is_left_unfolded() {
        let e = bin(
            BoundExpr::lit(i64::MAX),
            BinaryOp::Plus,
            BoundExpr::lit(1i64),
        );
        assert!(matches!(fold_expr(e), BoundExpr::Binary { .. }));
    }

    #[test]
    fn boolean_identities_respect_three_valued_logic() {
        let col = BoundExpr::col(0, "x", DataType::Bool);
        // TRUE AND x -> x
        let e = bin(BoundExpr::lit(true), BinaryOp::And, col.clone());
        assert_eq!(fold_expr(e), col);
        // x AND FALSE -> FALSE (even if x is NULL at runtime)
        let e = bin(col.clone(), BinaryOp::And, BoundExpr::lit(false));
        assert_eq!(fold_expr(e), BoundExpr::lit(false));
        // x OR TRUE -> TRUE
        let e = bin(col.clone(), BinaryOp::Or, BoundExpr::lit(true));
        assert_eq!(fold_expr(e), BoundExpr::lit(true));
        // NOT folding
        let e = BoundExpr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(BoundExpr::lit(false)),
        };
        assert_eq!(fold_expr(e), BoundExpr::lit(true));
    }

    #[test]
    fn text_concat_and_comparison() {
        let e = bin(BoundExpr::lit("ab"), BinaryOp::Concat, BoundExpr::lit("cd"));
        assert_eq!(fold_expr(e), BoundExpr::lit("abcd"));
    }

    #[test]
    fn null_literals_are_never_folded() {
        let e = bin(
            BoundExpr::Literal(Value::Null),
            BinaryOp::Eq,
            BoundExpr::lit(1i64),
        );
        assert!(matches!(fold_expr(e), BoundExpr::Binary { .. }));
    }
}
