//! The evaluator: what a SQL expression means over [`Value`]s.
//!
//! A scan trusts the model's filtering, so a predicate pushed into a prompt
//! must mean to the (simulated) model exactly what it means to the engine, or
//! rows differ by prompt strategy. It does by construction: there is one
//! tree-walker, [`eval`], over the one tree ([`Expr`]), and it owns every
//! construct — operators ([`unary`], [`binary`]), `IS NULL`, `IN`, `BETWEEN`,
//! `CAST`, `CASE` — as [`AggAccumulator`] owns every aggregate. A caller
//! supplies only what differs between the engine (`llmsql-exec`) and the
//! model (`llmsql-llm`): how a column reference finds its value in the row at
//! hand, and the [`ErrorKind`] an ill-typed operation is reported under.
//!
//! [`eval`] copies nothing it only reads: a column reference comes back
//! borrowed from the row and a literal from the tree ([`Cow::Borrowed`]), and
//! only a value the walker computes is owned. A caller that keeps the value
//! pays for the copy ([`Cow::into_owned`]); one that only compares or tests
//! it pays nothing.
//!
//! Nothing in here panics, whatever the operands: integer `+ - * %`,
//! negation and `SUM` wrap, `/` is always a float division, `/ 0` and `% 0`
//! are `NULL`, and a cast that fails is `NULL` (values an LLM produced are
//! dirty; one of them must not fail the query).

use std::borrow::Cow;

use llmsql_types::{Error, ErrorKind, Result, Value};

use crate::ast::{AggregateFunc, BinaryOp, Expr, UnaryOp};

/// Evaluate `expr` over one row: `column` is the row's value for a column
/// reference, `kind` the category an error is raised under. A column
/// reference or a literal comes back borrowed, a computed value owned.
/// Aggregates are rejected (they are computed by [`AggAccumulator`] over many
/// rows).
pub fn eval<'v, C>(
    expr: &'v Expr<C>,
    column: &impl Fn(&C) -> &'v Value,
    kind: ErrorKind,
) -> Result<Cow<'v, Value>> {
    let sub = |e: &'v Expr<C>| eval(e, column, kind);
    let owned = |v: Value| Ok(Cow::Owned(v));
    match expr {
        Expr::Literal(v) => Ok(Cow::Borrowed(v)),
        Expr::Column(c) => Ok(Cow::Borrowed(column(c))),
        Expr::Binary { left, op, right } => {
            let l = sub(left)?;
            let r = sub(right)?;
            let value = binary(&l, *op, &r).ok_or_else(|| {
                Error::new(
                    kind,
                    format!(
                        "invalid operands for arithmetic: {} {} {}",
                        l.type_name(),
                        op,
                        r.type_name()
                    ),
                )
            })?;
            owned(value)
        }
        Expr::Unary { op, expr } => {
            let v = sub(expr)?;
            let value = unary(*op, &v)
                .ok_or_else(|| Error::new(kind, format!("cannot negate {}", v.type_name())))?;
            owned(value)
        }
        Expr::IsNull { expr, negated } => owned(Value::Bool(sub(expr)?.is_null() != *negated)),
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = sub(expr)?;
            if v.is_null() {
                return owned(Value::Null);
            }
            // Three-valued: a NULL item makes "not found" unknown.
            let mut saw_null = false;
            for item in list {
                let iv = sub(item)?;
                if iv.is_null() {
                    saw_null = true;
                } else if v.semantic_eq(&iv) {
                    return owned(Value::Bool(!*negated));
                }
            }
            owned(if saw_null {
                Value::Null
            } else {
                Value::Bool(*negated)
            })
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = sub(expr)?;
            let lo = sub(low)?;
            let hi = sub(high)?;
            if v.is_null() || lo.is_null() || hi.is_null() {
                return owned(Value::Null);
            }
            let within = v.total_cmp(&lo) != std::cmp::Ordering::Less
                && v.total_cmp(&hi) != std::cmp::Ordering::Greater;
            owned(Value::Bool(within != *negated))
        }
        // Follow the lenient philosophy at runtime: failed casts of dirty
        // (LLM-produced) values degrade to NULL instead of failing the
        // whole query.
        Expr::Cast { expr, data_type } => owned(sub(expr)?.cast(*data_type).unwrap_or(Value::Null)),
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (cond, val) in branches {
                if truthy(&*sub(cond)?) {
                    return sub(val);
                }
            }
            else_expr.as_deref().map_or(owned(Value::Null), sub)
        }
        Expr::Aggregate { .. } => Err(Error::new(
            kind,
            "aggregate expression evaluated outside an aggregate operator",
        )),
    }
}

/// What a value means where SQL wants a condition, three-valued: `None` is
/// UNKNOWN (a `WHERE` or `ON` keeps a row only on `Some(true)`).
pub fn truth(v: &Value) -> Option<bool> {
    (!v.is_null()).then(|| truthy(v))
}

/// Whether a value counts as true where SQL wants a condition. `NULL` is not
/// true; callers that need three-valued logic check for it first.
pub fn truthy(v: &Value) -> bool {
    match v {
        Value::Bool(b) => *b,
        Value::Int(i) => *i != 0,
        Value::Float(f) => *f != 0.0,
        Value::Text(s) => !s.is_empty(),
        Value::Null => false,
    }
}

/// Apply a unary operator. `None` when the operand has no such operation
/// (negating text, say) — the caller raises its own error.
pub fn unary(op: UnaryOp, v: &Value) -> Option<Value> {
    Some(match (op, v) {
        (_, Value::Null) => Value::Null,
        (UnaryOp::Not, other) => Value::Bool(!truthy(other)),
        (UnaryOp::Neg, Value::Int(i)) => Value::Int(i.wrapping_neg()),
        (UnaryOp::Neg, Value::Float(f)) => Value::Float(-f),
        (UnaryOp::Neg, _) => return None,
    })
}

/// Apply a binary operator under SQL's three-valued logic. `None` when the
/// operands have no such operation (arithmetic on text, say) — the caller
/// raises its own error.
pub fn binary(l: &Value, op: BinaryOp, r: &Value) -> Option<Value> {
    use std::cmp::Ordering::{Greater, Less};
    use BinaryOp::*;
    Some(match op {
        And | Or => match (op, truth(l), truth(r)) {
            (And, Some(false), _) | (And, _, Some(false)) => Value::Bool(false),
            (And, Some(true), Some(true)) => Value::Bool(true),
            (Or, Some(true), _) | (Or, _, Some(true)) => Value::Bool(true),
            (Or, Some(false), Some(false)) => Value::Bool(false),
            _ => Value::Null,
        },
        _ if l.is_null() || r.is_null() => Value::Null,
        Plus | Minus | Multiply | Divide | Modulo => return arith(l, op, r),
        Eq => Value::Bool(l.semantic_eq(r)),
        NotEq => Value::Bool(!l.semantic_eq(r)),
        Lt => Value::Bool(l.total_cmp(r) == Less),
        LtEq => Value::Bool(l.total_cmp(r) != Greater),
        Gt => Value::Bool(l.total_cmp(r) == Greater),
        GtEq => Value::Bool(l.total_cmp(r) != Less),
        Like => Value::Bool(like_match(&l.to_display_string(), &r.to_display_string())),
        Concat => Value::Text(format!(
            "{}{}",
            l.to_display_string(),
            r.to_display_string()
        )),
    })
}

/// Arithmetic over two non-NULL values; `None` unless both are numeric.
fn arith(l: &Value, op: BinaryOp, r: &Value) -> Option<Value> {
    use BinaryOp::*;
    match (l, r) {
        // Integers stay integers, except under `/`.
        (Value::Int(a), Value::Int(b)) if op != Divide => Some(match op {
            Plus => Value::Int(a.wrapping_add(*b)),
            Minus => Value::Int(a.wrapping_sub(*b)),
            Multiply => Value::Int(a.wrapping_mul(*b)),
            Modulo if *b == 0 => Value::Null,
            Modulo => Value::Int(a.wrapping_rem(*b)),
            _ => return None,
        }),
        _ => {
            let a = l.as_f64()?;
            let b = r.as_f64()?;
            Some(match op {
                Plus => Value::Float(a + b),
                Minus => Value::Float(a - b),
                Multiply => Value::Float(a * b),
                Divide | Modulo if b == 0.0 => Value::Null,
                Divide => Value::Float(a / b),
                Modulo => Value::Float(a % b),
                _ => return None,
            })
        }
    }
}

/// SQL LIKE matching with `%` (any run) and `_` (single char), case-insensitive
/// (mirrors how an LLM treats string questions).
///
/// Iterative two-pointer algorithm with `%`-backtracking: on a mismatch the
/// scan resumes one text position past where the most recent `%` started
/// matching, so the worst case is O(|text| × |pattern|) — never the
/// exponential blowup (and stack overflow) of naive recursion on adversarial
/// patterns like `%a%a%a%b`.
pub fn like_match(text: &str, pattern: &str) -> bool {
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let mut ti = 0; // cursor into text
    let mut pi = 0; // cursor into pattern
                    // Backtracking state: the pattern index just past the last `%`, and the
                    // text index that `%` is currently assumed to have consumed up to.
    let mut star_pi = usize::MAX;
    let mut star_ti = 0;
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi].eq_ignore_ascii_case(&t[ti])) {
            ti += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star_pi = pi + 1;
            star_ti = ti;
            pi = star_pi;
        } else if star_pi != usize::MAX {
            // Mismatch after a `%`: widen that `%` by one character and
            // retry the remainder of the pattern from there.
            star_ti += 1;
            ti = star_ti;
            pi = star_pi;
        } else {
            return false;
        }
    }
    // Text exhausted: the remaining pattern must be all `%`.
    p[pi..].iter().all(|&c| c == '%')
}

/// A running aggregate: the one implementation of `COUNT` / `SUM` / `AVG` /
/// `MIN` / `MAX` (integer sums wrap, as integer `+` does).
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

    /// Feed one value. `Value::Null` is ignored; for `COUNT(*)` the caller
    /// feeds `Value::Int(1)` per row.
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

    #[test]
    fn int_division_yields_float_and_zero_divisors_yield_null() {
        let int = Value::Int;
        assert_eq!(
            binary(&int(7), BinaryOp::Divide, &int(2)),
            Some(Value::Float(3.5))
        );
        assert_eq!(
            binary(&int(7), BinaryOp::Modulo, &int(2)),
            Some(Value::Int(1))
        );
        for op in [BinaryOp::Divide, BinaryOp::Modulo] {
            assert_eq!(binary(&int(7), op, &int(0)), Some(Value::Null));
            assert_eq!(
                binary(&Value::Float(7.0), op, &Value::Float(0.0)),
                Some(Value::Null)
            );
        }
    }

    #[test]
    fn integer_extremes_wrap_instead_of_panicking() {
        let min = Value::Int(i64::MIN);
        let minus_one = Value::Int(-1);
        assert_eq!(
            binary(&min, BinaryOp::Modulo, &minus_one),
            Some(Value::Int(0))
        );
        assert_eq!(
            binary(&min, BinaryOp::Divide, &minus_one),
            Some(Value::Float(i64::MIN as f64 / -1.0))
        );
        assert_eq!(
            binary(&min, BinaryOp::Multiply, &minus_one),
            Some(min.clone())
        );
        assert_eq!(unary(UnaryOp::Neg, &min), Some(min));
    }

    #[test]
    fn operands_without_the_operation_are_none_not_an_answer() {
        let text = Value::Text("a".into());
        assert_eq!(binary(&text, BinaryOp::Plus, &Value::Int(1)), None);
        assert_eq!(unary(UnaryOp::Neg, &text), None);
        // NULL answers before the operands are looked at.
        assert_eq!(
            binary(&text, BinaryOp::Plus, &Value::Null),
            Some(Value::Null)
        );
        assert_eq!(unary(UnaryOp::Neg, &Value::Null), Some(Value::Null));
    }

    #[test]
    fn and_or_are_three_valued() {
        let t = Value::Bool(true);
        let f = Value::Bool(false);
        let n = Value::Null;
        let table = [
            (&t, BinaryOp::And, &t, &t),
            (&t, BinaryOp::And, &f, &f),
            (&f, BinaryOp::And, &n, &f),
            (&n, BinaryOp::And, &f, &f),
            (&t, BinaryOp::And, &n, &n),
            (&n, BinaryOp::And, &n, &n),
            (&f, BinaryOp::Or, &f, &f),
            (&f, BinaryOp::Or, &t, &t),
            (&t, BinaryOp::Or, &n, &t),
            (&n, BinaryOp::Or, &t, &t),
            (&f, BinaryOp::Or, &n, &n),
            (&n, BinaryOp::Or, &n, &n),
        ];
        for (l, op, r, expected) in table {
            assert_eq!(binary(l, op, r).as_ref(), Some(expected), "{l} {op} {r}");
        }
    }

    #[test]
    fn like_edge_cases() {
        assert!(like_match("", ""));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "%"));
        assert!(like_match("abc", "a%c"));
        assert!(like_match("ABC", "abc"));
        assert!(!like_match("abc", "a%d"));
        assert!(like_match("a|b", "a|b"));
        assert!(like_match("abc", "%%%"));
        assert!(like_match("abc", "%_c"));
        assert!(like_match("abc", "_b_"));
        assert!(!like_match("abc", "abcd"));
        assert!(!like_match("abcd", "abc"));
        assert!(like_match("ab%cd", "ab%cd"));
    }

    #[test]
    fn like_adversarial_pattern_is_fast() {
        // Regression: the old recursive matcher backtracked exponentially on
        // repeated `%x` groups over a long non-matching text (and could
        // overflow the stack). The iterative matcher is O(|text|·|pattern|).
        let text: String = "a".repeat(5_000);
        let pattern = "%a%a%a%a%a%a%a%a%a%a%b";
        let start = std::time::Instant::now();
        assert!(!like_match(&text, pattern));
        assert!(like_match(&(text.clone() + "b"), pattern));
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "adversarial LIKE took {elapsed:?}"
        );
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

    /// Naive exponential reference matcher: `%` tries every split. Only safe
    /// on the short inputs the property test generates.
    fn naive_like(t: &[char], p: &[char]) -> bool {
        match p.split_first() {
            None => t.is_empty(),
            Some((&'%', rest)) => (0..=t.len()).any(|k| naive_like(&t[k..], rest)),
            Some((&'_', rest)) => !t.is_empty() && naive_like(&t[1..], rest),
            Some((pc, rest)) => match t.split_first() {
                Some((tc, trest)) => tc.eq_ignore_ascii_case(pc) && naive_like(trest, rest),
                None => false,
            },
        }
    }

    proptest::proptest! {
        /// The iterative matcher agrees with the naive reference on random
        /// pattern/text pairs over a small alphabet (dense in collisions, so
        /// `%`-backtracking paths actually get exercised).
        #[test]
        fn like_matches_naive_reference(
            text in "[abAB]{0,10}",
            pattern in "[ab%_]{0,8}",
        ) {
            let t: Vec<char> = text.chars().collect();
            let p: Vec<char> = pattern.chars().collect();
            proptest::prop_assert_eq!(
                like_match(&text, &pattern),
                naive_like(&t, &p),
                "text={:?} pattern={:?}",
                text,
                pattern
            );
        }
    }
}
