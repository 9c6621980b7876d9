//! Scalar evaluation of bound expressions against rows: [`eval`],
//! [`eval_predicate`] and [`AggAccumulator`] live in [`llmsql_plan::ops`],
//! beside the relational operators that run them, and are re-exported here.
//! The tests pin what the engine reads from them: borrowed references,
//! three-valued logic, and errors of the engine's kind.

pub use llmsql_plan::ops::{eval, eval_predicate, AggAccumulator};

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    use llmsql_plan::BoundExpr;
    use llmsql_sql::ast::{AggregateFunc, BinaryOp};
    use llmsql_types::{DataType, Row, Value};

    fn col(i: usize) -> BoundExpr {
        BoundExpr::col(i, &format!("c{i}"), DataType::Int)
    }

    fn row(vals: &[i64]) -> Row {
        Row::new(vals.iter().map(|v| Value::Int(*v)).collect())
    }

    #[test]
    fn references_and_literals_are_borrowed_computed_values_owned() {
        let r = row(&[10, 20]);
        let column = col(1);
        match eval(&column, &r).unwrap() {
            Cow::Borrowed(v) => assert!(std::ptr::eq(v, r.get(1)), "not the row's own cell"),
            Cow::Owned(v) => panic!("a column reference came back owned: {v}"),
        }
        let literal = BoundExpr::lit("a literal");
        let BoundExpr::Literal(held) = &literal else {
            unreachable!()
        };
        match eval(&literal, &r).unwrap() {
            Cow::Borrowed(v) => assert!(std::ptr::eq(v, held), "not the tree's own literal"),
            Cow::Owned(v) => panic!("a literal came back owned: {v}"),
        }
        // Through a CASE the chosen branch is still the row's cell.
        let case = BoundExpr::Case {
            branches: vec![(BoundExpr::lit(true), col(0))],
            else_expr: None,
        };
        assert!(matches!(eval(&case, &r).unwrap(), Cow::Borrowed(v) if std::ptr::eq(v, r.get(0))));
        let sum = BoundExpr::Binary {
            left: Box::new(col(0)),
            op: BinaryOp::Plus,
            right: Box::new(col(1)),
        };
        assert!(matches!(
            eval(&sum, &r).unwrap(),
            Cow::Owned(Value::Int(30))
        ));
    }

    #[test]
    fn arithmetic_and_comparison() {
        let e = BoundExpr::Binary {
            left: Box::new(col(0)),
            op: BinaryOp::Plus,
            right: Box::new(BoundExpr::lit(5i64)),
        };
        assert_eq!(*eval(&e, &row(&[10])).unwrap(), Value::Int(15));

        let cmp = BoundExpr::Binary {
            left: Box::new(col(0)),
            op: BinaryOp::Gt,
            right: Box::new(col(1)),
        };
        assert_eq!(*eval(&cmp, &row(&[3, 2])).unwrap(), Value::Bool(true));
        assert_eq!(*eval(&cmp, &row(&[1, 2])).unwrap(), Value::Bool(false));
    }

    #[test]
    fn int_division_yields_float() {
        let e = BoundExpr::Binary {
            left: Box::new(col(0)),
            op: BinaryOp::Divide,
            right: Box::new(BoundExpr::lit(4i64)),
        };
        assert_eq!(*eval(&e, &row(&[10])).unwrap(), Value::Float(2.5));
        let z = BoundExpr::Binary {
            left: Box::new(col(0)),
            op: BinaryOp::Divide,
            right: Box::new(BoundExpr::lit(0i64)),
        };
        assert_eq!(*eval(&z, &row(&[10])).unwrap(), Value::Null);
    }

    #[test]
    fn null_propagation_and_three_valued_logic() {
        let null_row = Row::new(vec![Value::Null, Value::Int(1)]);
        let cmp = BoundExpr::Binary {
            left: Box::new(col(0)),
            op: BinaryOp::Eq,
            right: Box::new(col(1)),
        };
        assert_eq!(*eval(&cmp, &null_row).unwrap(), Value::Null);
        assert_eq!(eval_predicate(&cmp, &null_row).unwrap(), None);

        // false AND NULL = false
        let and = BoundExpr::Binary {
            left: Box::new(BoundExpr::lit(false)),
            op: BinaryOp::And,
            right: Box::new(cmp.clone()),
        };
        assert_eq!(*eval(&and, &null_row).unwrap(), Value::Bool(false));
        // true OR NULL = true
        let or = BoundExpr::Binary {
            left: Box::new(BoundExpr::lit(true)),
            op: BinaryOp::Or,
            right: Box::new(cmp),
        };
        assert_eq!(*eval(&or, &null_row).unwrap(), Value::Bool(true));
    }

    #[test]
    fn in_list_null_semantics() {
        let e = BoundExpr::InList {
            expr: Box::new(col(0)),
            list: vec![BoundExpr::lit(1i64), BoundExpr::Literal(Value::Null)],
            negated: false,
        };
        assert_eq!(*eval(&e, &row(&[1])).unwrap(), Value::Bool(true));
        // not found but NULL present -> unknown
        assert_eq!(*eval(&e, &row(&[9])).unwrap(), Value::Null);
    }

    #[test]
    fn cast_failures_degrade_to_null() {
        let e = BoundExpr::Cast {
            expr: Box::new(BoundExpr::lit("not a number")),
            data_type: DataType::Int,
        };
        assert_eq!(*eval(&e, &Row::empty()).unwrap(), Value::Null);
    }

    #[test]
    fn case_expression() {
        let e = BoundExpr::Case {
            branches: vec![(
                BoundExpr::Binary {
                    left: Box::new(col(0)),
                    op: BinaryOp::Gt,
                    right: Box::new(BoundExpr::lit(5i64)),
                },
                BoundExpr::lit("big"),
            )],
            else_expr: Some(Box::new(BoundExpr::lit("small"))),
        };
        assert_eq!(*eval(&e, &row(&[10])).unwrap(), Value::Text("big".into()));
        assert_eq!(*eval(&e, &row(&[1])).unwrap(), Value::Text("small".into()));
    }

    #[test]
    fn aggregate_outside_aggregate_node_errors() {
        let e = BoundExpr::Aggregate {
            func: AggregateFunc::Count,
            arg: None,
            distinct: false,
        };
        assert!(eval(&e, &Row::empty()).is_err());
    }
}
