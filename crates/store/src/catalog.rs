//! The catalog: the collection of named tables (materialized and virtual).
//!
//! Virtual tables have a schema registered in the catalog but no stored rows;
//! the executor materializes them through the language model. The catalog is
//! shared between the planner, the executor and the oracle used by the
//! accuracy evaluation, and is cheap to clone.
//!
//! Schemas are handed out shared (`Arc<Schema>`), so a plan that keeps one
//! copies nothing. A generation counter moves with every change to the set
//! of tables, so a kept plan can tell whether what it was bound against
//! still stands.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use llmsql_types::{Error, Result, Schema};

use crate::table::Table;

/// A catalog entry.
#[derive(Clone)]
pub enum CatalogEntry {
    /// A materialized table with stored rows.
    Materialized(Table),
    /// A virtual, LLM-backed table: schema only.
    Virtual(Arc<Schema>),
}

impl CatalogEntry {
    /// The schema of the entry (cloned).
    pub fn schema(&self) -> Schema {
        Schema::clone(&self.shared_schema())
    }

    /// The schema of the entry, shared with the catalog.
    fn shared_schema(&self) -> Arc<Schema> {
        match self {
            CatalogEntry::Materialized(t) => t.shared_schema(),
            CatalogEntry::Virtual(s) => Arc::clone(s),
        }
    }

    /// True for virtual (LLM-backed) tables.
    pub fn is_virtual(&self) -> bool {
        matches!(self, CatalogEntry::Virtual(_))
    }

    /// The underlying table, if materialized.
    pub fn table(&self) -> Option<&Table> {
        match self {
            CatalogEntry::Materialized(t) => Some(t),
            CatalogEntry::Virtual(_) => None,
        }
    }
}

/// The catalog; cheap to clone (shared interior).
#[derive(Clone, Default)]
pub struct Catalog {
    inner: Arc<CatalogInner>,
}

#[derive(Default)]
struct CatalogInner {
    entries: RwLock<BTreeMap<String, CatalogEntry>>,
    /// Bumped under the `entries` write lock by every change to the set of
    /// tables: create, register and a drop that removed one.
    generation: AtomicU64,
}

impl CatalogInner {
    /// Record a change to the set of tables; call with the write lock held.
    fn changed(&self) {
        // ordering: Relaxed — the bump happens under the entries write lock,
        // so a reader that loads the counter before taking the read lock
        // cannot see a bump from a write that follows its read; the
        // entries themselves are published by the lock.
        self.generation.fetch_add(1, Ordering::Relaxed);
    }
}

impl Catalog {
    /// Create an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// The catalog's generation: it moves whenever a table is created,
    /// registered or dropped (by this handle or any clone of it), and never
    /// otherwise — inserted rows leave it alone. Anything derived from the
    /// catalog's schemas stays valid while the generation it read stays.
    pub fn generation(&self) -> u64 {
        // ordering: Relaxed — see `CatalogInner::changed`.
        self.inner.generation.load(Ordering::Relaxed)
    }

    /// Register a materialized table; errors if the name exists.
    pub fn create_table(&self, schema: Schema) -> Result<Table> {
        schema.validate()?;
        let name = schema.name.clone();
        let mut entries = self.inner.entries.write();
        if entries.contains_key(&name) {
            return Err(Error::schema(format!("table '{name}' already exists")));
        }
        let table = Table::new(schema)?;
        entries.insert(name, CatalogEntry::Materialized(table.clone()));
        self.inner.changed();
        Ok(table)
    }

    /// Register a virtual (LLM-backed) table; errors if the name exists.
    pub fn create_virtual_table(&self, mut schema: Schema) -> Result<()> {
        schema.virtual_table = true;
        schema.validate()?;
        let name = schema.name.clone();
        let mut entries = self.inner.entries.write();
        if entries.contains_key(&name) {
            return Err(Error::schema(format!("table '{name}' already exists")));
        }
        entries.insert(name, CatalogEntry::Virtual(Arc::new(schema)));
        self.inner.changed();
        Ok(())
    }

    /// Register an existing table object (used by workload generators that
    /// build tables directly).
    pub fn register_table(&self, table: Table) -> Result<()> {
        let name = table.name();
        let mut entries = self.inner.entries.write();
        if entries.contains_key(&name) {
            return Err(Error::schema(format!("table '{name}' already exists")));
        }
        entries.insert(name, CatalogEntry::Materialized(table));
        self.inner.changed();
        Ok(())
    }

    /// Drop a table by name. With `if_exists`, missing tables are not errors.
    pub fn drop_table(&self, name: &str, if_exists: bool) -> Result<bool> {
        let key = name.to_ascii_lowercase();
        let mut entries = self.inner.entries.write();
        let removed = entries.remove(&key).is_some();
        if removed {
            self.inner.changed();
        }
        drop(entries);
        if !removed && !if_exists {
            return Err(Error::schema(format!("table '{name}' does not exist")));
        }
        Ok(removed)
    }

    /// Look up an entry by name.
    pub fn get(&self, name: &str) -> Result<CatalogEntry> {
        let key = name.to_ascii_lowercase();
        self.inner
            .entries
            .read()
            .get(&key)
            .cloned()
            .ok_or_else(|| Error::schema(format!("table '{name}' does not exist")))
    }

    /// Look up a schema by name (cloned).
    pub fn schema_of(&self, name: &str) -> Result<Schema> {
        let schema = self.shared_schema(name)?;
        Ok(Schema::clone(&schema))
    }

    /// Look up a schema by name, shared with the catalog: no copy of the
    /// schema or of the entry is made.
    pub fn shared_schema(&self, name: &str) -> Result<Arc<Schema>> {
        let key = name.to_ascii_lowercase();
        self.inner
            .entries
            .read()
            .get(&key)
            .map(CatalogEntry::shared_schema)
            .ok_or_else(|| Error::schema(format!("table '{name}' does not exist")))
    }

    /// Look up a materialized table, erroring for virtual tables.
    pub fn table(&self, name: &str) -> Result<Table> {
        match self.get(name)? {
            CatalogEntry::Materialized(t) => Ok(t),
            CatalogEntry::Virtual(_) => Err(Error::schema(format!(
                "table '{name}' is virtual and has no stored rows"
            ))),
        }
    }

    /// True if the name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.inner
            .entries
            .read()
            .contains_key(&name.to_ascii_lowercase())
    }

    /// All table names in sorted order.
    pub fn table_names(&self) -> Vec<String> {
        self.inner.entries.read().keys().cloned().collect()
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.inner.entries.read().len()
    }

    /// True if no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.inner.entries.read().is_empty()
    }

    /// Clone this catalog into a new, independent catalog where every table's
    /// rows are deep-copied. Used to derive the "degraded" store for hybrid
    /// experiments without touching the oracle.
    pub fn deep_clone(&self) -> Result<Catalog> {
        let out = Catalog::new();
        for name in self.table_names() {
            match self.get(&name)? {
                CatalogEntry::Materialized(t) => {
                    let copy = out.create_table(t.schema())?;
                    copy.insert_many(t.scan())?;
                }
                CatalogEntry::Virtual(s) => out.create_virtual_table(Schema::clone(&s))?,
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsql_types::{Column, DataType, Row, Value};

    fn schema(name: &str) -> Schema {
        Schema::new(
            name,
            vec![
                Column::new("id", DataType::Int).primary_key(),
                Column::new("x", DataType::Text),
            ],
        )
    }

    #[test]
    fn create_and_get() {
        let cat = Catalog::new();
        cat.create_table(schema("t1")).unwrap();
        cat.create_virtual_table(schema("v1")).unwrap();
        assert!(cat.contains("t1"));
        assert!(cat.contains("T1"));
        assert!(cat.get("v1").unwrap().is_virtual());
        assert!(!cat.get("t1").unwrap().is_virtual());
        assert_eq!(cat.len(), 2);
        assert_eq!(cat.table_names(), vec!["t1".to_string(), "v1".to_string()]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let cat = Catalog::new();
        cat.create_table(schema("t")).unwrap();
        assert!(cat.create_table(schema("t")).is_err());
        assert!(cat.create_virtual_table(schema("T")).is_err());
    }

    #[test]
    fn virtual_table_has_no_rows() {
        let cat = Catalog::new();
        cat.create_virtual_table(schema("v")).unwrap();
        assert!(cat.table("v").is_err());
        assert!(cat.schema_of("v").unwrap().virtual_table);
    }

    #[test]
    fn drop_table_semantics() {
        let cat = Catalog::new();
        cat.create_table(schema("t")).unwrap();
        assert!(cat.drop_table("t", false).unwrap());
        assert!(!cat.contains("t"));
        assert!(cat.drop_table("t", false).is_err());
        assert!(!cat.drop_table("t", true).unwrap());
    }

    #[test]
    fn missing_table_error() {
        let cat = Catalog::new();
        assert!(cat.get("nope").is_err());
        assert!(cat.schema_of("nope").is_err());
    }

    #[test]
    fn register_existing_table() {
        let cat = Catalog::new();
        let t = Table::new(schema("ext")).unwrap();
        t.insert(Row::new(vec![Value::Int(1), "a".into()])).unwrap();
        cat.register_table(t).unwrap();
        assert_eq!(cat.table("ext").unwrap().row_count(), 1);
    }

    #[test]
    fn deep_clone_is_independent() {
        let cat = Catalog::new();
        let t = cat.create_table(schema("t")).unwrap();
        t.insert(Row::new(vec![Value::Int(1), "a".into()])).unwrap();
        cat.create_virtual_table(schema("v")).unwrap();

        let copy = cat.deep_clone().unwrap();
        assert_eq!(copy.table("t").unwrap().row_count(), 1);
        // mutate the copy; original unaffected
        copy.table("t")
            .unwrap()
            .insert(Row::new(vec![Value::Int(2), "b".into()]))
            .unwrap();
        assert_eq!(copy.table("t").unwrap().row_count(), 2);
        assert_eq!(cat.table("t").unwrap().row_count(), 1);
        assert!(copy.get("v").unwrap().is_virtual());
    }

    #[test]
    fn shared_interior_between_clones() {
        let cat = Catalog::new();
        let cat2 = cat.clone();
        cat.create_table(schema("t")).unwrap();
        assert!(cat2.contains("t"));
    }
}
