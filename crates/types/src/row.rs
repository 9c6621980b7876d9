//! Rows and row batches.
//!
//! The executor is not an iterator: it runs one operator at a time, and each
//! operator returns its whole output as a materialized `Vec<Row>` that the
//! operator above consumes. A [`Batch`] is such a vector together with its
//! schema: a query's result set.

use std::fmt;

use crate::schema::RelSchema;
use crate::value::Value;

/// A single tuple: a boxed slice of values.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    /// Create a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    /// Create an empty row.
    pub fn empty() -> Self {
        Row { values: vec![] }
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// True if the row holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Access a value by index, returning NULL when out of bounds (defensive
    /// behaviour for noisy LLM-parsed rows that may be short).
    pub fn get(&self, idx: usize) -> &Value {
        static NULL: Value = Value::Null;
        self.values.get(idx).unwrap_or(&NULL)
    }

    /// Replace the value at `idx`; extends with NULLs when needed.
    pub fn set(&mut self, idx: usize, value: Value) {
        if idx >= self.values.len() {
            self.values.resize(idx + 1, Value::Null);
        }
        self.values[idx] = value;
    }

    /// The underlying values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Consume into the underlying values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Append a value.
    pub fn push(&mut self, value: Value) {
        self.values.push(value);
    }

    /// Concatenate two rows (used by join operators).
    pub fn concat(&self, other: &Row) -> Row {
        let mut values = Vec::with_capacity(self.values.len() + other.values.len());
        values.extend(self.values.iter().cloned());
        values.extend(other.values.iter().cloned());
        Row { values }
    }

    /// Project a subset of columns by index.
    pub fn project(&self, indices: &[usize]) -> Row {
        Row {
            values: indices.iter().map(|&i| self.get(i).clone()).collect(),
        }
    }

    /// True if every value in the row is NULL.
    pub fn all_null(&self) -> bool {
        !self.values.is_empty() && self.values.iter().all(super::value::Value::is_null)
    }

    /// Pad or truncate the row to exactly `arity` values.
    pub fn resize(&mut self, arity: usize) {
        self.values.resize(arity, Value::Null);
    }

    /// Render as a pipe-separated string (used in prompts and debugging).
    pub fn to_pipe_string(&self) -> String {
        self.values
            .iter()
            .map(super::value::Value::to_display_string)
            .collect::<Vec<_>>()
            .join(" | ")
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({})", self.to_pipe_string())
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Row::new(iter.into_iter().collect())
    }
}

impl std::ops::Index<usize> for Row {
    type Output = Value;
    fn index(&self, index: usize) -> &Value {
        self.get(index)
    }
}

/// A materialized batch of rows together with its schema.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Batch {
    /// Schema describing the rows.
    pub schema: RelSchema,
    /// The rows.
    pub rows: Vec<Row>,
}

impl Batch {
    /// Create a batch.
    pub fn new(schema: RelSchema, rows: Vec<Row>) -> Self {
        Batch { schema, rows }
    }

    /// Create an empty batch with the given schema.
    pub fn empty(schema: RelSchema) -> Self {
        Batch {
            schema,
            rows: vec![],
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Column names of the schema.
    pub fn column_names(&self) -> Vec<String> {
        self.schema.names()
    }

    /// Extract one column as a vector of values.
    pub fn column(&self, idx: usize) -> Vec<Value> {
        self.rows.iter().map(|r| r.get(idx).clone()).collect()
    }

    /// Render as an ASCII table (for examples and experiment binaries).
    pub fn to_ascii_table(&self) -> String {
        let headers: Vec<String> = self
            .schema
            .fields
            .iter()
            .map(super::schema::Field::qualified_name)
            .collect();
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                (0..headers.len())
                    .map(|i| r.get(i).to_display_string())
                    .collect()
            })
            .collect();
        ascii_grid(&headers, &rows)
    }
}

/// A fixed-width text grid: a `+---+` rule, the `headers` as `| cell |`, a
/// rule, one line per row and a closing rule, each column as wide as its
/// widest cell. A row shorter than the headers leaves its last cells blank;
/// cells past the last header are not drawn. No newline follows the last
/// rule.
pub fn ascii_grid(headers: &[String], rows: &[Vec<String>]) -> String {
    use std::fmt::Write as _;
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in rows {
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    let mut rule = String::from("+");
    for w in &widths {
        rule.push_str(&"-".repeat(w + 2));
        rule.push('+');
    }
    let line = |out: &mut String, cells: &[String]| {
        out.push('|');
        for (i, w) in widths.iter().enumerate() {
            let cell = cells.get(i).map_or("", String::as_str);
            // Writing to a `String` cannot fail.
            let _ = write!(out, " {cell:w$} |");
        }
        out.push('\n');
    };
    let mut out = format!("{rule}\n");
    line(&mut out, headers);
    out.push_str(&rule);
    out.push('\n');
    for row in rows {
        line(&mut out, row);
    }
    out.push_str(&rule);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Field};

    fn row(vals: &[i64]) -> Row {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn basic_accessors() {
        let r = Row::new(vec![Value::Int(1), Value::Text("a".into())]);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.get(0), &Value::Int(1));
        assert_eq!(r.get(99), &Value::Null);
        assert_eq!(r[1], Value::Text("a".into()));
    }

    #[test]
    fn set_extends_with_nulls() {
        let mut r = Row::empty();
        r.set(2, Value::Int(9));
        assert_eq!(r.arity(), 3);
        assert_eq!(r.get(0), &Value::Null);
        assert_eq!(r.get(2), &Value::Int(9));
    }

    #[test]
    fn concat_and_project() {
        let a = row(&[1, 2]);
        let b = row(&[3]);
        let c = a.concat(&b);
        assert_eq!(c.arity(), 3);
        let p = c.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::Int(3), Value::Int(1)]);
    }

    #[test]
    fn null_counting() {
        let r = Row::new(vec![Value::Null, Value::Int(1), Value::Null]);
        assert!(!r.all_null());
        assert!(Row::new(vec![Value::Null, Value::Null]).all_null());
        assert!(!Row::empty().all_null());
    }

    #[test]
    fn resize_pads_and_truncates() {
        let mut r = row(&[1, 2, 3]);
        r.resize(5);
        assert_eq!(r.arity(), 5);
        assert_eq!(r.get(4), &Value::Null);
        r.resize(2);
        assert_eq!(r.arity(), 2);
    }

    #[test]
    fn display_and_pipe() {
        let r = Row::new(vec![Value::Int(1), Value::Text("x".into()), Value::Null]);
        assert_eq!(r.to_pipe_string(), "1 | x | NULL");
        assert_eq!(r.to_string(), "(1 | x | NULL)");
    }

    #[test]
    fn batch_columns() {
        let schema = RelSchema::new(vec![
            Field::new(None, "a", DataType::Int, false),
            Field::new(None, "b", DataType::Int, false),
        ]);
        let batch = Batch::new(schema, vec![row(&[1, 2]), row(&[3, 4])]);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.column(1), vec![Value::Int(2), Value::Int(4)]);
        assert_eq!(batch.column_names(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn ascii_table_renders() {
        let schema = RelSchema::new(vec![
            Field::new(Some("t"), "name", DataType::Text, false),
            Field::new(Some("t"), "pop", DataType::Int, false),
        ]);
        let batch = Batch::new(
            schema,
            vec![Row::new(vec![Value::Text("France".into()), Value::Int(68)])],
        );
        let s = batch.to_ascii_table();
        assert!(s.contains("t.name"));
        assert!(s.contains("France"));
        assert!(s.starts_with('+'));
    }
}
