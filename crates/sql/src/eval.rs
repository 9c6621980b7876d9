//! The scalar kernel: what SQL's operators do to [`Value`]s.
//!
//! Two tree-walkers evaluate SQL expressions — the engine's, over bound
//! plans (`llmsql-exec`), and the simulated model's, over the predicate text
//! it reads in a prompt (`llmsql-llm`). A scan trusts the model's filtering,
//! so the two must agree on every operator or rows differ by prompt
//! strategy. They agree by sharing this module: each walker keeps its own
//! tree, column lookup and error kind, and applies unary and binary
//! operators here. (`IN`, `BETWEEN`, `CASE` and `CAST` are still written in
//! each walker; ROADMAP item 1(e) lists where those two copies differ.)
//!
//! Nothing in here panics, whatever the operands: integer `+ - * %` and
//! negation wrap, `/` is always a float division, and `/ 0` and `% 0` are
//! `NULL`.

use llmsql_types::Value;

use crate::ast::{BinaryOp, UnaryOp};

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
        And | Or => {
            let lb = (!l.is_null()).then(|| truthy(l));
            let rb = (!r.is_null()).then(|| truthy(r));
            match (op, lb, rb) {
                (And, Some(false), _) | (And, _, Some(false)) => Value::Bool(false),
                (And, Some(true), Some(true)) => Value::Bool(true),
                (Or, Some(true), _) | (Or, _, Some(true)) => Value::Bool(true),
                (Or, Some(false), Some(false)) => Value::Bool(false),
                _ => Value::Null,
            }
        }
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
