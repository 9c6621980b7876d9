//! Query results returned by the engine.

use llmsql_exec::ExecMetrics;
use llmsql_types::{Batch, Incomplete, Row, Value};

/// The result of executing one SQL statement.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// The rows (empty for DDL/DML statements).
    pub batch: Batch,
    /// Rows affected by DDL/DML (inserted rows, dropped tables, ...).
    pub rows_affected: usize,
    /// The statement's ledger (LLM calls by kind, per-backend attempts,
    /// per-operator actuals, parse drops): written by this statement's own
    /// calls, never derived from a deployment-wide counter.
    pub metrics: ExecMetrics,
    /// The text of `EXPLAIN` / `EXPLAIN ANALYZE` (the annotated plan, also
    /// returned line by line as the rows); `None` for every other statement —
    /// a plain SELECT renders nothing it was not asked for.
    pub plan: Option<String>,
    /// Wall-clock engine time in milliseconds (excludes simulated model
    /// latency, which is reported in `metrics.usage.latency_ms`).
    pub engine_ms: f64,
}

impl QueryResult {
    /// Number of result rows.
    pub fn row_count(&self) -> usize {
        self.batch.len()
    }

    /// Column names of the result.
    pub fn column_names(&self) -> Vec<String> {
        self.batch.column_names()
    }

    /// The result rows.
    pub fn rows(&self) -> &[Row] {
        &self.batch.rows
    }

    /// Convenience: the single scalar value of a 1x1 result.
    pub fn scalar(&self) -> Option<Value> {
        if self.batch.len() == 1 && !self.batch.schema.is_empty() {
            Some(self.batch.rows[0].get(0).clone())
        } else {
            None
        }
    }

    /// Render as an ASCII table.
    pub fn to_ascii_table(&self) -> String {
        self.batch.to_ascii_table()
    }

    /// Total end-to-end latency: engine time plus simulated model latency.
    pub fn total_latency_ms(&self) -> f64 {
        self.engine_ms + self.metrics.usage.latency_ms
    }

    /// The graceful-degradation marker, when this result was cut short
    /// (`EngineConfig::with_partial_results`): the triggering fault plus the
    /// rows/calls accounting at the cut. `None` = the result is complete.
    pub fn incomplete(&self) -> Option<&Incomplete> {
        self.metrics.incomplete.as_ref()
    }

    /// True when the rows are a partial (exact prefix) result
    /// delivered under graceful degradation rather than the full answer.
    pub fn is_partial(&self) -> bool {
        self.metrics.incomplete.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsql_types::{DataType, Field, RelSchema};

    #[test]
    fn scalar_and_counts() {
        let schema = RelSchema::new(vec![Field::new(None, "n", DataType::Int, false)]);
        let r = QueryResult {
            batch: Batch::new(schema, vec![Row::new(vec![Value::Int(7)])]),
            ..QueryResult::default()
        };
        assert_eq!(r.row_count(), 1);
        assert_eq!(r.scalar(), Some(Value::Int(7)));
        assert_eq!(r.column_names(), vec!["n".to_string()]);
        assert!(r.to_ascii_table().contains('7'));
    }

    #[test]
    fn scalar_none_for_multi_row() {
        let schema = RelSchema::new(vec![Field::new(None, "n", DataType::Int, false)]);
        let r = QueryResult {
            batch: Batch::new(
                schema,
                vec![Row::new(vec![Value::Int(1)]), Row::new(vec![Value::Int(2)])],
            ),
            ..QueryResult::default()
        };
        assert_eq!(r.scalar(), None);
    }

    #[test]
    fn latency_sums() {
        let mut r = QueryResult {
            engine_ms: 2.0,
            ..QueryResult::default()
        };
        r.metrics.usage.latency_ms = 100.0;
        assert_eq!(r.total_latency_ms(), 102.0);
    }
}
