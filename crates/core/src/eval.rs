//! Accuracy evaluation: scoring an LLM-backed result against the ground-truth
//! oracle result.
//!
//! The paper's central measurement is how *correct* query answers are when
//! the storage layer is a language model. Following the standard methodology
//! of the Galois-style prototypes, results are compared as bags of tuples:
//!
//! * **precision** — fraction of returned tuples that appear in the oracle
//!   answer (penalises hallucinated rows and corrupted values),
//! * **recall** — fraction of oracle tuples that were returned (penalises
//!   forgotten entities and dropped lines),
//! * **F1** — their harmonic mean.
//!
//! Tuples are normalised before comparison (case-insensitive text, trimmed
//! whitespace, int/float unification) so that harmless formatting
//! differences do not count as errors; values then match exactly. Row order
//! counts only where the caller says it does (a top-k query's).

use std::collections::HashMap;

use llmsql_types::{Batch, Row, Value};

/// The outcome of scoring a result against the oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResultScore {
    /// Tuples returned by the system under test.
    pub returned: usize,
    /// Tuples in the oracle answer.
    pub expected: usize,
    /// Returned tuples that match an oracle tuple.
    pub matched: usize,
    /// Precision = matched / returned (1.0 when nothing was returned and
    /// nothing was expected).
    pub precision: f64,
    /// Recall = matched / expected (1.0 when nothing was expected).
    pub recall: f64,
    /// F1 = harmonic mean of precision and recall.
    pub f1: f64,
    /// True when the result is exactly the oracle answer (same bag, and same
    /// order if order-sensitive).
    pub exact: bool,
}

impl ResultScore {
    fn from_counts(returned: usize, expected: usize, matched: usize, exact: bool) -> Self {
        let precision = if returned == 0 {
            if expected == 0 {
                1.0
            } else {
                0.0
            }
        } else {
            matched as f64 / returned as f64
        };
        let recall = if expected == 0 {
            1.0
        } else {
            matched as f64 / expected as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        ResultScore {
            returned,
            expected,
            matched,
            precision,
            recall,
            f1,
            exact,
        }
    }
}

/// Normalise a value for comparison.
fn normalize(v: &Value) -> Value {
    match v {
        Value::Text(s) => Value::Text(s.trim().to_ascii_lowercase()),
        Value::Float(f) if f.fract() == 0.0 && f.abs() < 9.2e18 => Value::Int(*f as i64),
        other => other.clone(),
    }
}

/// Do two rows match value for value, once normalised?
fn rows_match(a: &Row, b: &Row) -> bool {
    a.arity() == b.arity()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| normalize(x).semantic_eq(&normalize(y)))
}

/// A hashable normalised key for bag matching.
fn row_key(row: &Row) -> Vec<Value> {
    row.values().iter().map(normalize).collect()
}

/// Score `actual` against the oracle answer `expected`; with `ordered`, an
/// exact answer must also list the rows in the oracle's order.
pub fn score_batches(actual: &Batch, expected: &Batch, ordered: bool) -> ResultScore {
    score_rows(&actual.rows, &expected.rows, ordered)
}

/// Score row sets directly: the bag intersection, by hashing.
pub fn score_rows(actual: &[Row], expected: &[Row], ordered: bool) -> ResultScore {
    let mut counts: HashMap<Vec<Value>, usize> = HashMap::new();
    for e in expected {
        *counts.entry(row_key(e)).or_default() += 1;
    }
    let mut matched = 0;
    for a in actual {
        if let Some(c) = counts.get_mut(&row_key(a)) {
            if *c > 0 {
                *c -= 1;
                matched += 1;
            }
        }
    }
    let exact = matched == actual.len()
        && matched == expected.len()
        && (!ordered || actual.iter().zip(expected).all(|(a, e)| rows_match(a, e)));
    ResultScore::from_counts(actual.len(), expected.len(), matched, exact)
}

/// Aggregate scores across a suite of queries (macro-average).
#[derive(Debug, Clone, Default)]
pub struct SuiteScore {
    /// Individual query scores.
    pub scores: Vec<ResultScore>,
}

impl SuiteScore {
    /// Add one query's score.
    pub fn push(&mut self, score: ResultScore) {
        self.scores.push(score);
    }

    /// Number of scored queries.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// True when no queries have been scored.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Macro-averaged precision.
    pub fn precision(&self) -> f64 {
        avg(self.scores.iter().map(|s| s.precision))
    }

    /// Macro-averaged recall.
    pub fn recall(&self) -> f64 {
        avg(self.scores.iter().map(|s| s.recall))
    }

    /// Macro-averaged F1.
    pub fn f1(&self) -> f64 {
        avg(self.scores.iter().map(|s| s.f1))
    }

    /// Fraction of queries answered exactly.
    pub fn exact_rate(&self) -> f64 {
        avg(self.scores.iter().map(|s| if s.exact { 1.0 } else { 0.0 }))
    }
}

fn avg(iter: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = iter.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: &[&str]) -> Row {
        Row::new(vals.iter().map(|v| Value::Text(v.to_string())).collect())
    }

    #[test]
    fn perfect_match() {
        let a = vec![row(&["France", "Paris"]), row(&["Japan", "Tokyo"])];
        let s = score_rows(&a, &a.clone(), false);
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 1.0);
        assert_eq!(s.f1, 1.0);
        assert!(s.exact);
    }

    #[test]
    fn missing_and_hallucinated_rows() {
        let expected = vec![row(&["a"]), row(&["b"]), row(&["c"]), row(&["d"])];
        let actual = vec![row(&["a"]), row(&["b"]), row(&["zz"])];
        let s = score_rows(&actual, &expected, false);
        assert_eq!(s.matched, 2);
        assert!((s.precision - 2.0 / 3.0).abs() < 1e-9);
        assert!((s.recall - 0.5).abs() < 1e-9);
        assert!(!s.exact);
        assert!(s.f1 > 0.5 && s.f1 < 0.67);
    }

    #[test]
    fn normalization_ignores_case_and_int_float() {
        let expected = vec![Row::new(vec!["France".into(), Value::Int(68)])];
        let actual = vec![Row::new(vec!["  france ".into(), Value::Float(68.0)])];
        let s = score_rows(&actual, &expected, false);
        assert!(s.exact);
    }

    #[test]
    fn duplicate_rows_counted_as_bag() {
        let expected = vec![row(&["x"]), row(&["x"])];
        let actual = vec![row(&["x"])];
        let s = score_rows(&actual, &expected, false);
        assert_eq!(s.matched, 1);
        assert_eq!(s.recall, 0.5);
        // over-reporting duplicates hurts precision
        let actual3 = vec![row(&["x"]), row(&["x"]), row(&["x"])];
        let s3 = score_rows(&actual3, &expected, false);
        assert_eq!(s3.matched, 2);
        assert!((s3.precision - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn order_sensitivity() {
        let expected = vec![row(&["a"]), row(&["b"])];
        let reversed = vec![row(&["b"]), row(&["a"])];
        let unordered = score_rows(&reversed, &expected, false);
        assert!(unordered.exact);
        let ordered = score_rows(&reversed, &expected, true);
        assert!(!ordered.exact);
        assert_eq!(ordered.f1, 1.0); // bag still matches
    }

    #[test]
    fn empty_results() {
        let s = score_rows(&[], &[], false);
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 1.0);
        assert!(s.exact);
        let s = score_rows(&[], &[row(&["a"])], false);
        assert_eq!(s.recall, 0.0);
        assert_eq!(s.precision, 0.0);
        let s = score_rows(&[row(&["a"])], &[], false);
        assert_eq!(s.precision, 0.0);
        assert_eq!(s.recall, 1.0);
    }

    #[test]
    fn suite_macro_average() {
        let mut suite = SuiteScore::default();
        suite.push(score_rows(&[row(&["a"])], &[row(&["a"])], false));
        suite.push(score_rows(&[], &[row(&["a"])], false));
        assert_eq!(suite.len(), 2);
        assert!((suite.precision() - 0.5).abs() < 1e-9);
        assert!((suite.recall() - 0.5).abs() < 1e-9);
        assert!((suite.exact_rate() - 0.5).abs() < 1e-9);
        assert!(!suite.is_empty());
    }
}
