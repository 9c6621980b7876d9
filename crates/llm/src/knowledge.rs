//! The simulated "parametric knowledge" of the language model.
//!
//! The paper's storage device is the world knowledge a commercial LLM
//! absorbed during pre-training. The reproduction substitutes an explicit
//! [`KnowledgeBase`]: a set of relations whose rows stand in for the facts the
//! model knows. The simulator answers prompts by querying this knowledge base
//! and then passing the answers through the noise model — so the *same world*
//! backs both the LLM storage and the relational ground-truth oracle, and
//! accuracy can be measured exactly.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use llmsql_types::{Error, Result, Row, Schema, Value};

/// One relation of the knowledge base.
#[derive(Debug, Clone)]
pub struct KbTable {
    /// The relation schema (including prompt descriptions).
    pub schema: Schema,
    /// The facts: one row per entity.
    pub rows: Vec<Row>,
    /// Index from normalised key value to row position.
    key_index: HashMap<String, usize>,
    /// Which column is the entity key.
    key_col: usize,
}

/// Normalise an entity key for fuzzy lookup (case/whitespace-insensitive).
pub fn normalize_key(value: &Value) -> String {
    value.to_display_string().trim().to_ascii_lowercase()
}

impl KbTable {
    /// Build a knowledge-base relation from a schema and rows.
    pub fn new(schema: Schema, rows: Vec<Row>) -> Self {
        let key_col = schema.key_column();
        let mut key_index = HashMap::new();
        for (i, row) in rows.iter().enumerate() {
            key_index.insert(normalize_key(row.get(key_col)), i);
        }
        KbTable {
            schema,
            rows,
            key_index,
            key_col,
        }
    }

    /// The entity-key column index.
    pub fn key_column(&self) -> usize {
        self.key_col
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the relation has no entities.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Find the full row for an entity key (fuzzy: case-insensitive match of
    /// the rendered value).
    pub fn row_for_key(&self, key: &Value) -> Option<&Row> {
        self.key_index
            .get(&normalize_key(key))
            .and_then(|&i| self.rows.get(i))
    }
}

/// The complete simulated world knowledge.
#[derive(Debug, Clone, Default)]
pub struct KnowledgeBase {
    tables: BTreeMap<String, KbTable>,
}

impl KnowledgeBase {
    /// Create an empty knowledge base.
    pub fn new() -> Self {
        KnowledgeBase::default()
    }

    /// Add a relation. Replaces any existing relation of the same name.
    pub fn add_table(&mut self, schema: Schema, rows: Vec<Row>) {
        let name = schema.name.clone();
        self.tables.insert(name, KbTable::new(schema, rows));
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True if the knowledge base holds no relations.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Look up a relation by (case-insensitive) name.
    pub fn table(&self, name: &str) -> Result<&KbTable> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| Error::llm(format!("the model knows no relation named '{name}'")))
    }

    /// Wrap in an `Arc` for sharing with the simulator.
    pub fn into_shared(self) -> Arc<KnowledgeBase> {
        Arc::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsql_types::{Column, DataType};

    fn kb() -> KnowledgeBase {
        let schema = Schema::new(
            "countries",
            vec![
                Column::new("name", DataType::Text).primary_key(),
                Column::new("capital", DataType::Text),
                Column::new("population", DataType::Int),
            ],
        );
        let rows = vec![
            Row::new(vec![
                "France".into(),
                "Paris".into(),
                Value::Int(68_000_000),
            ]),
            Row::new(vec![
                "Japan".into(),
                "Tokyo".into(),
                Value::Int(125_000_000),
            ]),
            Row::new(vec!["Peru".into(), "Lima".into(), Value::Null]),
        ];
        let mut kb = KnowledgeBase::new();
        kb.add_table(schema, rows);
        kb
    }

    #[test]
    fn table_lookup_case_insensitive() {
        let kb = kb();
        assert!(kb.table("Countries").is_ok());
        assert!(kb.table("unknown").is_err());
        assert_eq!(kb.len(), 1);
    }

    #[test]
    fn entity_keys_and_rows() {
        let kb = kb();
        let t = kb.table("countries").unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.key_column(), 0);
        // fuzzy key match
        let row = t.row_for_key(&Value::Text("  france ".into())).unwrap();
        assert_eq!(row.get(1), &Value::Text("Paris".into()));
        assert!(t.row_for_key(&Value::Text("Narnia".into())).is_none());
    }

    #[test]
    fn add_table_replaces() {
        let mut kb = kb();
        let schema = Schema::new("countries", vec![Column::new("name", DataType::Text)]);
        kb.add_table(schema, vec![Row::new(vec!["X".into()])]);
        assert_eq!(kb.table("countries").unwrap().len(), 1);
    }
}
