//! Scalar evaluation of [`BoundExpr`] against rows, and aggregate
//! accumulators. This is the engine's own tree-walker — distinct from the
//! simulator's (`llmsql-llm`), which models the *model's* reading of pushed
//! predicates; what an operator does to values is [`llmsql_sql::eval`] for
//! both, so the two cannot disagree on it.

use llmsql_plan::BoundExpr;
use llmsql_sql::ast::AggregateFunc;
use llmsql_sql::eval::{binary, truthy, unary};
use llmsql_types::{Error, Result, Row, Value};

/// Evaluate an expression against a row. Aggregates are rejected (they are
/// handled by [`AggAccumulator`] under an Aggregate plan node).
pub fn eval(expr: &BoundExpr, row: &Row) -> Result<Value> {
    match expr {
        BoundExpr::Literal(v) => Ok(v.clone()),
        BoundExpr::Column { index, .. } => Ok(row.get(*index).clone()),
        BoundExpr::Binary { left, op, right } => {
            let l = eval(left, row)?;
            let r = eval(right, row)?;
            binary(&l, *op, &r).ok_or_else(|| {
                Error::execution(format!(
                    "invalid operands for arithmetic: {} {} {}",
                    l.type_name(),
                    op,
                    r.type_name()
                ))
            })
        }
        BoundExpr::Unary { op, expr } => {
            let v = eval(expr, row)?;
            unary(*op, &v)
                .ok_or_else(|| Error::execution(format!("cannot negate {}", v.type_name())))
        }
        BoundExpr::IsNull { expr, negated } => {
            let v = eval(expr, row)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut found = false;
            let mut saw_null = false;
            for item in list {
                let iv = eval(item, row)?;
                if iv.is_null() {
                    saw_null = true;
                } else if v.semantic_eq(&iv) {
                    found = true;
                    break;
                }
            }
            if found {
                Ok(Value::Bool(!*negated))
            } else if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        BoundExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval(expr, row)?;
            let lo = eval(low, row)?;
            let hi = eval(high, row)?;
            if v.is_null() || lo.is_null() || hi.is_null() {
                return Ok(Value::Null);
            }
            let within = v.total_cmp(&lo) != std::cmp::Ordering::Less
                && v.total_cmp(&hi) != std::cmp::Ordering::Greater;
            Ok(Value::Bool(within != *negated))
        }
        BoundExpr::Cast { expr, data_type } => {
            let v = eval(expr, row)?;
            // Follow the lenient philosophy at runtime: failed casts of dirty
            // (LLM-produced) values degrade to NULL instead of failing the
            // whole query.
            Ok(v.cast(*data_type).unwrap_or(Value::Null))
        }
        BoundExpr::Case {
            branches,
            else_expr,
        } => {
            for (cond, val) in branches {
                if truthy(&eval(cond, row)?) {
                    return eval(val, row);
                }
            }
            match else_expr {
                Some(e) => eval(e, row),
                None => Ok(Value::Null),
            }
        }
        BoundExpr::Aggregate { .. } => Err(Error::execution(
            "aggregate expression evaluated outside an Aggregate operator",
        )),
    }
}

/// Evaluate a predicate to a three-valued boolean.
pub fn eval_predicate(expr: &BoundExpr, row: &Row) -> Result<Option<bool>> {
    Ok(match eval(expr, row)? {
        Value::Null => None,
        Value::Bool(b) => Some(b),
        other => Some(truthy(&other)),
    })
}

/// A running aggregate.
#[derive(Debug, Clone)]
pub struct AggAccumulator {
    func: AggregateFunc,
    distinct: bool,
    seen: Vec<Value>,
    count: i64,
    sum: f64,
    sum_int: i64,
    all_int: bool,
    min: Option<Value>,
    max: Option<Value>,
}

impl AggAccumulator {
    /// Create an accumulator for the given aggregate.
    pub fn new(func: AggregateFunc, distinct: bool) -> Self {
        AggAccumulator {
            func,
            distinct,
            seen: Vec::new(),
            count: 0,
            sum: 0.0,
            sum_int: 0,
            all_int: true,
            min: None,
            max: None,
        }
    }

    /// Feed one value. `Value::Null` is ignored except for COUNT(*) which the
    /// executor feeds with `Value::Int(1)` per row.
    pub fn update(&mut self, value: &Value) {
        if value.is_null() {
            return;
        }
        if self.distinct {
            if self.seen.iter().any(|s| s.semantic_eq(value)) {
                return;
            }
            self.seen.push(value.clone());
        }
        self.count += 1;
        if let Some(f) = value.as_f64() {
            self.sum += f;
        }
        if let Some(i) = value.as_int() {
            self.sum_int = self.sum_int.wrapping_add(i);
        } else {
            self.all_int = false;
        }
        match &self.min {
            Some(m) if value.total_cmp(m) != std::cmp::Ordering::Less => {}
            _ => self.min = Some(value.clone()),
        }
        match &self.max {
            Some(m) if value.total_cmp(m) != std::cmp::Ordering::Greater => {}
            _ => self.max = Some(value.clone()),
        }
    }

    /// Produce the final aggregate value.
    pub fn finish(&self) -> Value {
        match self.func {
            AggregateFunc::Count => Value::Int(self.count),
            AggregateFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.all_int {
                    Value::Int(self.sum_int)
                } else {
                    Value::Float(self.sum)
                }
            }
            AggregateFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggregateFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggregateFunc::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsql_sql::ast::BinaryOp;
    use llmsql_types::DataType;

    fn col(i: usize) -> BoundExpr {
        BoundExpr::col(i, &format!("c{i}"), DataType::Int)
    }

    fn row(vals: &[i64]) -> Row {
        Row::new(vals.iter().map(|v| Value::Int(*v)).collect())
    }

    #[test]
    fn arithmetic_and_comparison() {
        let e = BoundExpr::Binary {
            left: Box::new(col(0)),
            op: BinaryOp::Plus,
            right: Box::new(BoundExpr::lit(5i64)),
        };
        assert_eq!(eval(&e, &row(&[10])).unwrap(), Value::Int(15));

        let cmp = BoundExpr::Binary {
            left: Box::new(col(0)),
            op: BinaryOp::Gt,
            right: Box::new(col(1)),
        };
        assert_eq!(eval(&cmp, &row(&[3, 2])).unwrap(), Value::Bool(true));
        assert_eq!(eval(&cmp, &row(&[1, 2])).unwrap(), Value::Bool(false));
    }

    #[test]
    fn int_division_yields_float() {
        let e = BoundExpr::Binary {
            left: Box::new(col(0)),
            op: BinaryOp::Divide,
            right: Box::new(BoundExpr::lit(4i64)),
        };
        assert_eq!(eval(&e, &row(&[10])).unwrap(), Value::Float(2.5));
        let z = BoundExpr::Binary {
            left: Box::new(col(0)),
            op: BinaryOp::Divide,
            right: Box::new(BoundExpr::lit(0i64)),
        };
        assert_eq!(eval(&z, &row(&[10])).unwrap(), Value::Null);
    }

    #[test]
    fn null_propagation_and_three_valued_logic() {
        let null_row = Row::new(vec![Value::Null, Value::Int(1)]);
        let cmp = BoundExpr::Binary {
            left: Box::new(col(0)),
            op: BinaryOp::Eq,
            right: Box::new(col(1)),
        };
        assert_eq!(eval(&cmp, &null_row).unwrap(), Value::Null);
        assert_eq!(eval_predicate(&cmp, &null_row).unwrap(), None);

        // false AND NULL = false
        let and = BoundExpr::Binary {
            left: Box::new(BoundExpr::lit(false)),
            op: BinaryOp::And,
            right: Box::new(cmp.clone()),
        };
        assert_eq!(eval(&and, &null_row).unwrap(), Value::Bool(false));
        // true OR NULL = true
        let or = BoundExpr::Binary {
            left: Box::new(BoundExpr::lit(true)),
            op: BinaryOp::Or,
            right: Box::new(cmp),
        };
        assert_eq!(eval(&or, &null_row).unwrap(), Value::Bool(true));
    }

    #[test]
    fn in_list_null_semantics() {
        let e = BoundExpr::InList {
            expr: Box::new(col(0)),
            list: vec![BoundExpr::lit(1i64), BoundExpr::Literal(Value::Null)],
            negated: false,
        };
        assert_eq!(eval(&e, &row(&[1])).unwrap(), Value::Bool(true));
        // not found but NULL present -> unknown
        assert_eq!(eval(&e, &row(&[9])).unwrap(), Value::Null);
    }

    #[test]
    fn cast_failures_degrade_to_null() {
        let e = BoundExpr::Cast {
            expr: Box::new(BoundExpr::lit("not a number")),
            data_type: DataType::Int,
        };
        assert_eq!(eval(&e, &Row::empty()).unwrap(), Value::Null);
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
        assert_eq!(eval(&e, &row(&[10])).unwrap(), Value::Text("big".into()));
        assert_eq!(eval(&e, &row(&[1])).unwrap(), Value::Text("small".into()));
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

    #[test]
    fn accumulators() {
        let vals = [Value::Int(3), Value::Int(1), Value::Null, Value::Int(3)];
        let mut count = AggAccumulator::new(AggregateFunc::Count, false);
        let mut count_d = AggAccumulator::new(AggregateFunc::Count, true);
        let mut sum = AggAccumulator::new(AggregateFunc::Sum, false);
        let mut avg = AggAccumulator::new(AggregateFunc::Avg, false);
        let mut min = AggAccumulator::new(AggregateFunc::Min, false);
        let mut max = AggAccumulator::new(AggregateFunc::Max, false);
        for v in &vals {
            for acc in [
                &mut count,
                &mut count_d,
                &mut sum,
                &mut avg,
                &mut min,
                &mut max,
            ] {
                acc.update(v);
            }
        }
        assert_eq!(count.finish(), Value::Int(3));
        assert_eq!(count_d.finish(), Value::Int(2));
        assert_eq!(sum.finish(), Value::Int(7));
        assert_eq!(avg.finish(), Value::Float(7.0 / 3.0));
        assert_eq!(min.finish(), Value::Int(1));
        assert_eq!(max.finish(), Value::Int(3));
    }

    #[test]
    fn empty_accumulators() {
        assert_eq!(
            AggAccumulator::new(AggregateFunc::Count, false).finish(),
            Value::Int(0)
        );
        assert_eq!(
            AggAccumulator::new(AggregateFunc::Sum, false).finish(),
            Value::Null
        );
        assert_eq!(
            AggAccumulator::new(AggregateFunc::Avg, false).finish(),
            Value::Null
        );
        assert_eq!(
            AggAccumulator::new(AggregateFunc::Min, false).finish(),
            Value::Null
        );
    }

    #[test]
    fn float_sum_when_mixed() {
        let mut sum = AggAccumulator::new(AggregateFunc::Sum, false);
        sum.update(&Value::Int(1));
        sum.update(&Value::Float(2.5));
        assert_eq!(sum.finish(), Value::Float(3.5));
    }
}
