//! Logical schema descriptions: data types, columns, table schemas.
//!
//! A schema in this engine may describe either a *materialized* relation held
//! by the relational store, or a *virtual* relation whose contents only exist
//! in the parametric knowledge of the language model. Virtual relations carry
//! extra natural-language metadata (entity description, attribute
//! descriptions) that the prompt builder uses to phrase questions.

use std::fmt;

use crate::error::{Error, Result};

/// The scalar data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 text.
    Text,
}

/// `word` in ASCII upper case, written into `buf`: what a case-insensitive
/// match against upper-case names (keywords, type names, aggregates) reads,
/// without allocating. `None` when `word` does not fit, which makes it longer
/// than any name such a match lists.
pub fn ascii_upper<'b>(word: &str, buf: &'b mut [u8]) -> Option<&'b str> {
    let upper = buf.get_mut(..word.len())?;
    upper.copy_from_slice(word.as_bytes());
    upper.make_ascii_uppercase();
    std::str::from_utf8(upper).ok()
}

/// Whether `stored` is `name` in ASCII lower case, byte for byte: what
/// `stored == name.to_ascii_lowercase()` answers, without allocating.
fn is_lowercase_of(stored: &str, name: &str) -> bool {
    stored.len() == name.len()
        && stored
            .bytes()
            .zip(name.bytes())
            .all(|(s, n)| s == n.to_ascii_lowercase())
}

impl DataType {
    /// The SQL name, upper case (`INTEGER`).
    pub fn sql(self) -> &'static str {
        match self {
            DataType::Bool => "BOOLEAN",
            DataType::Int => "INTEGER",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
        }
    }

    /// Parse a SQL type name.
    pub fn parse(name: &str) -> Option<DataType> {
        match ascii_upper(name, &mut [0; 16])? {
            "BOOL" | "BOOLEAN" => Some(DataType::Bool),
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" => Some(DataType::Int),
            "FLOAT" | "DOUBLE" | "REAL" | "DECIMAL" | "NUMERIC" => Some(DataType::Float),
            "TEXT" | "VARCHAR" | "CHAR" | "STRING" => Some(DataType::Text),
            _ => None,
        }
    }

    /// True for INT / FLOAT.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }

    /// The wider of two numeric types, used for arithmetic result typing.
    pub fn widen(self, other: DataType) -> DataType {
        if self == DataType::Float || other == DataType::Float {
            DataType::Float
        } else {
            DataType::Int
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql())
    }
}

/// A column definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Column name (lower-cased at bind time).
    pub name: String,
    /// Data type.
    pub data_type: DataType,
    /// Whether NULLs are allowed.
    pub nullable: bool,
    /// Whether this column is (part of) the primary key.
    pub primary_key: bool,
    /// Natural-language description used when prompting the LLM for this
    /// attribute (e.g. "the population of the country in 2023").
    pub description: Option<String>,
}

impl Column {
    /// Create a nullable, non-key column.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Column {
            name: name.into(),
            data_type,
            nullable: true,
            primary_key: false,
            description: None,
        }
    }

    /// Mark this column as the primary key (implies NOT NULL).
    pub fn primary_key(mut self) -> Self {
        self.primary_key = true;
        self.nullable = false;
        self
    }

    /// Mark the column NOT NULL.
    pub fn not_null(mut self) -> Self {
        self.nullable = false;
        self
    }

    /// Attach a natural-language description used in prompts.
    pub fn with_description(mut self, desc: impl Into<String>) -> Self {
        self.description = Some(desc.into());
        self
    }

    /// The phrase the prompt builder uses for this attribute: the description
    /// if present, otherwise the column name with underscores spelled out.
    pub fn prompt_phrase(&self) -> String {
        match &self.description {
            Some(d) => d.clone(),
            None => self.name.replace('_', " "),
        }
    }
}

/// A relation schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    /// Table name (lower-cased).
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<Column>,
    /// Whether the relation is virtual (LLM-backed) rather than materialized.
    pub virtual_table: bool,
    /// Natural-language description of the entity set, e.g.
    /// "sovereign countries of the world as of 2023".
    pub description: Option<String>,
}

impl Schema {
    /// Create a materialized schema.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Self {
        Schema {
            name: name.into().to_ascii_lowercase(),
            columns,
            virtual_table: false,
            description: None,
        }
    }

    /// Create a virtual (LLM-backed) schema.
    pub fn virtual_table(name: impl Into<String>, columns: Vec<Column>) -> Self {
        let mut s = Schema::new(name, columns);
        s.virtual_table = true;
        s
    }

    /// Attach an entity-set description used in prompts.
    pub fn with_description(mut self, desc: impl Into<String>) -> Self {
        self.description = Some(desc.into());
        self
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Find a column index by (case-insensitive) name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Find a column by name or return a binding error.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.columns
            .iter()
            .find(|c| c.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                Error::binding(format!(
                    "column '{}' not found in table '{}'",
                    name, self.name
                ))
            })
    }

    /// Names of all columns, in order.
    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }

    /// Indices of primary-key columns.
    pub fn primary_key_indices(&self) -> Vec<usize> {
        self.columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.primary_key)
            .map(|(i, _)| i)
            .collect()
    }

    /// Index of the key column (first PK column, else column 0): the entity
    /// identifier a per-tuple prompt names, so the engine and the simulated
    /// model must both pick it here.
    pub fn key_column(&self) -> usize {
        self.columns.iter().position(|c| c.primary_key).unwrap_or(0)
    }

    /// The phrase describing the entity set for prompt construction.
    pub fn prompt_phrase(&self) -> String {
        match &self.description {
            Some(d) => d.clone(),
            None => self.name.replace('_', " "),
        }
    }

    /// Validate the schema: non-empty, unique column names.
    pub fn validate(&self) -> Result<()> {
        if self.name.is_empty() {
            return Err(Error::schema("table name must not be empty"));
        }
        if self.columns.is_empty() {
            return Err(Error::schema(format!(
                "table '{}' must have at least one column",
                self.name
            )));
        }
        for (i, c) in self.columns.iter().enumerate() {
            if c.name.is_empty() {
                return Err(Error::schema(format!(
                    "table '{}' has an unnamed column at position {i}",
                    self.name
                )));
            }
            for other in &self.columns[i + 1..] {
                if c.name.eq_ignore_ascii_case(&other.name) {
                    return Err(Error::schema(format!(
                        "duplicate column '{}' in table '{}'",
                        c.name, self.name
                    )));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", c.name, c.data_type)?;
            if c.primary_key {
                write!(f, " PRIMARY KEY")?;
            } else if !c.nullable {
                write!(f, " NOT NULL")?;
            }
        }
        write!(f, ")")
    }
}

/// A fully qualified column reference produced by the binder: which input
/// relation (by position in the plan's input list) and which column index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Offset of the column in the flattened input row.
    pub index: usize,
}

/// Schema of an intermediate result: a flat list of named, typed fields,
/// optionally qualified by the relation they came from.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RelSchema {
    /// Fields in output order.
    pub fields: Vec<Field>,
}

/// One field of an intermediate-result schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Optional qualifier (table name or alias).
    pub qualifier: Option<String>,
    /// Field name.
    pub name: String,
    /// Data type.
    pub data_type: DataType,
    /// Nullability.
    pub nullable: bool,
}

impl Field {
    /// Create a new field.
    pub fn new(
        qualifier: Option<&str>,
        name: impl Into<String>,
        data_type: DataType,
        nullable: bool,
    ) -> Self {
        Field {
            qualifier: qualifier.map(str::to_ascii_lowercase),
            name: name.into().to_ascii_lowercase(),
            data_type,
            nullable,
        }
    }

    /// The qualified display name, e.g. `countries.population`.
    pub fn qualified_name(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{}.{}", q, self.name),
            None => self.name.clone(),
        }
    }
}

impl RelSchema {
    /// Create an empty schema.
    pub fn empty() -> Self {
        RelSchema { fields: vec![] }
    }

    /// Build from a list of fields.
    pub fn new(fields: Vec<Field>) -> Self {
        RelSchema { fields }
    }

    /// Build from a base-table [`Schema`], qualifying fields by `alias`.
    pub fn from_table(schema: &Schema, alias: &str) -> Self {
        RelSchema {
            fields: schema
                .columns
                .iter()
                .map(|c| Field::new(Some(alias), c.name.clone(), c.data_type, c.nullable))
                .collect(),
        }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if there are no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Concatenate two schemas (used for joins).
    pub fn join(&self, other: &RelSchema) -> RelSchema {
        let mut fields = self.fields.clone();
        fields.extend(other.fields.iter().cloned());
        RelSchema { fields }
    }

    /// Resolve a possibly-qualified column name to its index.
    ///
    /// Returns an error when the name is ambiguous or unknown.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let mut matches = self.fields.iter().enumerate().filter(|(_, f)| {
            is_lowercase_of(&f.name, name)
                && match qualifier {
                    Some(q) => f
                        .qualifier
                        .as_deref()
                        .is_some_and(|fq| is_lowercase_of(fq, q)),
                    None => true,
                }
        });
        let first = matches.next();
        let second = matches.next();
        match (first, second) {
            (Some((i, _)), None) => Ok(i),
            (Some(_), Some(_)) => Err(Error::binding(format!(
                "ambiguous column reference '{}'",
                match qualifier {
                    Some(q) => format!("{q}.{name}"),
                    None => name.to_string(),
                }
            ))),
            (None, _) => Err(Error::binding(format!(
                "unknown column '{}'",
                match qualifier {
                    Some(q) => format!("{q}.{name}"),
                    None => name.to_string(),
                }
            ))),
        }
    }

    /// Field names (unqualified), in order.
    pub fn names(&self) -> Vec<String> {
        self.fields.iter().map(|f| f.name.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_schema() -> Schema {
        Schema::new(
            "Countries",
            vec![
                Column::new("name", DataType::Text).primary_key(),
                Column::new("capital", DataType::Text),
                Column::new("population", DataType::Int).with_description("population in 2023"),
                Column::new("area_km2", DataType::Float),
            ],
        )
    }

    #[test]
    fn datatype_parse_and_display() {
        assert_eq!(DataType::parse("integer"), Some(DataType::Int));
        assert_eq!(DataType::parse("VARCHAR"), Some(DataType::Text));
        assert_eq!(DataType::parse("double"), Some(DataType::Float));
        assert_eq!(DataType::parse("bool"), Some(DataType::Bool));
        assert_eq!(DataType::parse("blob"), None);
        assert_eq!(DataType::Int.to_string(), "INTEGER");
    }

    #[test]
    fn case_folding_without_allocation_matches_the_allocating_forms() {
        let words = [
            "sElEcT",
            "x",
            "",
            "Ünïcode",
            "名前",
            "verylongidentifier_name",
        ];
        for word in words {
            let upper = word.to_ascii_uppercase();
            let fits = (upper.len() <= 16).then_some(upper.as_str());
            assert_eq!(ascii_upper(word, &mut [0; 16]), fits, "{word}");
            for stored in ["select", "Select", "x", "", "Ünïcode", "ünïcode"] {
                assert_eq!(
                    is_lowercase_of(stored, word),
                    stored == word.to_ascii_lowercase(),
                    "{stored} / {word}"
                );
            }
        }
        let fields = RelSchema::from_table(&sample_schema(), "C");
        assert_eq!(fields.resolve(Some("c"), "Capital").ok(), Some(1));
        assert_eq!(fields.resolve(Some("COUNTRIES"), "capital").ok(), None);
        assert_eq!(fields.resolve(None, "AREA_KM2").ok(), Some(3));
    }

    #[test]
    fn datatype_widen() {
        assert_eq!(DataType::Int.widen(DataType::Int), DataType::Int);
        assert_eq!(DataType::Int.widen(DataType::Float), DataType::Float);
        assert_eq!(DataType::Float.widen(DataType::Int), DataType::Float);
    }

    #[test]
    fn schema_lowercases_name() {
        let s = sample_schema();
        assert_eq!(s.name, "countries");
        assert_eq!(s.arity(), 4);
    }

    #[test]
    fn index_and_lookup() {
        let s = sample_schema();
        assert_eq!(s.index_of("CAPITAL"), Some(1));
        assert_eq!(s.index_of("nope"), None);
        assert!(s.column("population").is_ok());
        assert!(s.column("missing").is_err());
    }

    #[test]
    fn key_column_prefers_primary_key() {
        let s = sample_schema();
        assert_eq!(s.columns[s.key_column()].name, "name");
        let s2 = Schema::new("t", vec![Column::new("a", DataType::Int)]);
        assert_eq!(s2.key_column(), 0);
        let s3 = Schema::new(
            "t",
            vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Text).primary_key(),
            ],
        );
        assert_eq!(s3.key_column(), 1);
    }

    #[test]
    fn prompt_phrases() {
        let s = sample_schema();
        assert_eq!(s.prompt_phrase(), "countries");
        assert_eq!(
            s.column("population").unwrap().prompt_phrase(),
            "population in 2023"
        );
        assert_eq!(s.column("area_km2").unwrap().prompt_phrase(), "area km2");
    }

    #[test]
    fn validation_catches_duplicates() {
        let s = Schema::new(
            "t",
            vec![
                Column::new("a", DataType::Int),
                Column::new("A", DataType::Text),
            ],
        );
        assert!(s.validate().is_err());
        assert!(sample_schema().validate().is_ok());
        assert!(Schema::new("t", vec![]).validate().is_err());
    }

    #[test]
    fn display_shows_constraints() {
        let s = sample_schema();
        let d = s.to_string();
        assert!(d.contains("countries("));
        assert!(d.contains("name TEXT PRIMARY KEY"));
    }

    #[test]
    fn relschema_resolution() {
        let s = sample_schema();
        let rel = RelSchema::from_table(&s, "c");
        assert_eq!(rel.len(), 4);
        assert_eq!(rel.resolve(None, "capital").unwrap(), 1);
        assert_eq!(rel.resolve(Some("c"), "capital").unwrap(), 1);
        assert!(rel.resolve(Some("x"), "capital").is_err());
        assert!(rel.resolve(None, "missing").is_err());
    }

    #[test]
    fn relschema_join_detects_ambiguity() {
        let s = sample_schema();
        let rel = RelSchema::from_table(&s, "a").join(&RelSchema::from_table(&s, "b"));
        assert_eq!(rel.len(), 8);
        assert!(rel.resolve(None, "capital").is_err());
        assert_eq!(rel.resolve(Some("b"), "capital").unwrap(), 5);
    }

    #[test]
    fn field_qualified_name() {
        let f = Field::new(Some("T"), "Col", DataType::Int, true);
        assert_eq!(f.qualified_name(), "t.col");
        let g = Field::new(None, "col", DataType::Int, true);
        assert_eq!(g.qualified_name(), "col");
    }
}
