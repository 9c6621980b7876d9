//! In-memory row-oriented tables.
//!
//! The store is the traditional-DBMS baseline of the reproduction and also
//! the *ground-truth oracle* the accuracy experiments compare LLM answers
//! against. It is deliberately simple: a `Vec<Row>` guarded by a `RwLock`.
//! There are no indexes — no statement, planner rule or operator would read
//! one; a primary key is enforced by a scan on insert.

use std::sync::Arc;

use parking_lot::RwLock;

use llmsql_types::{DataType, Error, Result, Row, Schema, Value};

/// A handle to a table; cheap to clone.
#[derive(Clone)]
pub struct Table {
    inner: Arc<RwLock<TableInner>>,
}

struct TableInner {
    schema: Schema,
    rows: Vec<Row>,
}

impl Table {
    /// Create an empty table for the given schema.
    pub fn new(schema: Schema) -> Result<Self> {
        schema.validate()?;
        Ok(Table {
            inner: Arc::new(RwLock::new(TableInner {
                schema,
                rows: Vec::new(),
            })),
        })
    }

    /// The table schema (cloned).
    pub fn schema(&self) -> Schema {
        self.inner.read().schema.clone()
    }

    /// The table name.
    pub fn name(&self) -> String {
        self.inner.read().schema.name.clone()
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.inner.read().rows.len()
    }

    /// Validate and coerce a row against the schema: arity check, type
    /// coercion, NOT NULL enforcement.
    fn coerce_row(schema: &Schema, row: Row) -> Result<Row> {
        if row.arity() != schema.arity() {
            return Err(Error::storage(format!(
                "table '{}' expects {} values, got {}",
                schema.name,
                schema.arity(),
                row.arity()
            )));
        }
        let mut out = Vec::with_capacity(row.arity());
        for (value, col) in row.into_values().into_iter().zip(&schema.columns) {
            let v = if value.is_null() {
                if !col.nullable {
                    return Err(Error::storage(format!(
                        "column '{}' of table '{}' is NOT NULL",
                        col.name, schema.name
                    )));
                }
                Value::Null
            } else {
                value.cast(col.data_type).map_err(|e| {
                    Error::storage(format!(
                        "value for column '{}' of table '{}': {}",
                        col.name, schema.name, e.message
                    ))
                })?
            };
            out.push(v);
        }
        Ok(Row::new(out))
    }

    /// Insert a single row. Enforces primary-key uniqueness.
    pub fn insert(&self, row: Row) -> Result<()> {
        self.insert_many(vec![row]).map(|_| ())
    }

    /// Insert many rows; returns the number inserted. The batch is validated
    /// first so either all rows are inserted or none.
    pub fn insert_many(&self, rows: Vec<Row>) -> Result<usize> {
        let mut inner = self.inner.write();
        let schema = inner.schema.clone();
        let pk = schema.primary_key_indices();

        let mut coerced = Vec::with_capacity(rows.len());
        for row in rows {
            let row = Self::coerce_row(&schema, row)?;
            if !pk.is_empty() {
                let key: Vec<Value> = pk.iter().map(|&i| row.get(i).clone()).collect();
                if key.iter().any(|v| v.is_null()) {
                    return Err(Error::storage(format!(
                        "primary key of table '{}' must not be NULL",
                        schema.name
                    )));
                }
                let exists = inner
                    .rows
                    .iter()
                    .chain(coerced.iter())
                    .any(|r: &Row| pk.iter().enumerate().all(|(k, &i)| r.get(i) == &key[k]));
                if exists {
                    return Err(Error::storage(format!(
                        "duplicate primary key {:?} in table '{}'",
                        key.iter()
                            .map(|v| v.to_display_string())
                            .collect::<Vec<_>>(),
                        schema.name
                    )));
                }
            }
            coerced.push(row);
        }

        let n = coerced.len();
        inner.rows.extend(coerced);
        Ok(n)
    }

    /// Full scan: clone out all rows.
    pub fn scan(&self) -> Vec<Row> {
        self.inner.read().rows.clone()
    }
}

/// Build a schema + table pair in one call (test/workload convenience).
pub fn table_with_rows(schema: Schema, rows: Vec<Vec<Value>>) -> Result<Table> {
    let table = Table::new(schema)?;
    table.insert_many(rows.into_iter().map(Row::new).collect())?;
    Ok(table)
}

/// Convenience: build a simple schema from `(name, type)` pairs, first column
/// is the primary key.
pub fn simple_schema(table: &str, cols: &[(&str, DataType)]) -> Schema {
    let columns = cols
        .iter()
        .enumerate()
        .map(|(i, (name, ty))| {
            let c = llmsql_types::Column::new(*name, *ty);
            if i == 0 {
                c.primary_key()
            } else {
                c
            }
        })
        .collect();
    Schema::new(table, columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsql_types::Column;

    fn people_schema() -> Schema {
        Schema::new(
            "people",
            vec![
                Column::new("name", DataType::Text).primary_key(),
                Column::new("age", DataType::Int),
                Column::new("city", DataType::Text),
            ],
        )
    }

    fn sample_table() -> Table {
        table_with_rows(
            people_schema(),
            vec![
                vec!["alice".into(), 30i64.into(), "paris".into()],
                vec!["bob".into(), 25i64.into(), "london".into()],
                vec!["carol".into(), 35i64.into(), "paris".into()],
            ],
        )
        .unwrap()
    }

    #[test]
    fn insert_and_scan() {
        let t = sample_table();
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.scan().len(), 3);
        assert_eq!(t.name(), "people");
    }

    #[test]
    fn arity_mismatch_rejected() {
        let t = Table::new(people_schema()).unwrap();
        assert!(t.insert(Row::new(vec!["x".into()])).is_err());
    }

    #[test]
    fn type_coercion_on_insert() {
        let t = Table::new(people_schema()).unwrap();
        t.insert(Row::new(vec!["dave".into(), "40".into(), Value::Null]))
            .unwrap();
        assert_eq!(t.scan()[0].get(1), &Value::Int(40));
    }

    #[test]
    fn not_null_enforced() {
        let t = Table::new(people_schema()).unwrap();
        let err = t
            .insert(Row::new(vec![Value::Null, 1i64.into(), Value::Null]))
            .unwrap_err();
        assert!(err.message.contains("NULL") || err.message.contains("primary key"));
    }

    #[test]
    fn duplicate_primary_key_rejected() {
        let t = sample_table();
        let err = t
            .insert(Row::new(vec!["alice".into(), 99i64.into(), Value::Null]))
            .unwrap_err();
        assert!(err.message.contains("duplicate"));
        // failed insert does not change the table
        assert_eq!(t.row_count(), 3);
    }

    #[test]
    fn batch_insert_is_atomic() {
        let t = sample_table();
        let res = t.insert_many(vec![
            Row::new(vec!["dave".into(), 1i64.into(), Value::Null]),
            Row::new(vec!["alice".into(), 2i64.into(), Value::Null]), // dup
        ]);
        assert!(res.is_err());
        assert_eq!(t.row_count(), 3);
    }

    #[test]
    fn simple_schema_builder() {
        let s = simple_schema("t", &[("id", DataType::Int), ("x", DataType::Float)]);
        assert!(s.columns[0].primary_key);
        assert!(!s.columns[1].primary_key);
    }
}
