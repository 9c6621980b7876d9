//! Controlled degradation of stored tables.
//!
//! The hybrid-execution experiment (E6) needs a relational store with a known
//! fraction of missing information: attribute values replaced by NULL and/or
//! whole rows dropped. This module produces such degraded copies
//! deterministically from a seed so that the experiment is reproducible and
//! the oracle (the undamaged catalog) stays intact.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use llmsql_types::{Result, Row, Value};

use crate::catalog::{Catalog, CatalogEntry};
use crate::table::Table;

/// Parameters of a degradation pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeSpec {
    /// Probability that a non-key attribute value is replaced by NULL.
    pub null_fraction: f64,
    /// Probability that an entire row is dropped.
    pub drop_row_fraction: f64,
    /// Random seed.
    pub seed: u64,
}

impl Default for DegradeSpec {
    fn default() -> Self {
        DegradeSpec {
            null_fraction: 0.3,
            drop_row_fraction: 0.0,
            seed: 7,
        }
    }
}

impl DegradeSpec {
    /// Spec that only nulls out attribute values.
    pub fn nulls(fraction: f64, seed: u64) -> Self {
        DegradeSpec {
            null_fraction: fraction,
            drop_row_fraction: 0.0,
            seed,
        }
    }
}

/// Statistics about what a degradation pass removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradeReport {
    /// Attribute values replaced by NULL.
    pub nulled_values: usize,
    /// Rows dropped.
    pub dropped_rows: usize,
    /// Rows kept.
    pub kept_rows: usize,
}

/// Produce a degraded copy of a single table. Key columns and NOT NULL
/// columns are never nulled (that would violate the schema); they can still
/// disappear when the whole row is dropped.
pub fn degrade_table(table: &Table, spec: &DegradeSpec) -> Result<(Table, DegradeReport)> {
    let schema = table.schema();
    let mut rng = StdRng::seed_from_u64(spec.seed ^ hash_name(&schema.name));
    let mut report = DegradeReport::default();

    let out = Table::new(schema.clone())?;
    let mut new_rows = Vec::new();
    for row in table.scan() {
        if rng.gen_bool(spec.drop_row_fraction.clamp(0.0, 1.0)) {
            report.dropped_rows += 1;
            continue;
        }
        let mut values = row.into_values();
        for (i, col) in schema.columns.iter().enumerate() {
            if col.primary_key || !col.nullable {
                continue;
            }
            if !values[i].is_null() && rng.gen_bool(spec.null_fraction.clamp(0.0, 1.0)) {
                values[i] = Value::Null;
                report.nulled_values += 1;
            }
        }
        new_rows.push(Row::new(values));
        report.kept_rows += 1;
    }
    out.insert_many(new_rows)?;
    Ok((out, report))
}

/// Produce a degraded deep copy of an entire catalog. Virtual tables are
/// copied unchanged (they have no stored rows to degrade).
pub fn degrade_catalog(catalog: &Catalog, spec: &DegradeSpec) -> Result<(Catalog, DegradeReport)> {
    let out = Catalog::new();
    let mut total = DegradeReport::default();
    for name in catalog.table_names() {
        match catalog.get(&name)? {
            CatalogEntry::Materialized(t) => {
                let (copy, report) = degrade_table(&t, spec)?;
                out.register_table(copy)?;
                total.nulled_values += report.nulled_values;
                total.dropped_rows += report.dropped_rows;
                total.kept_rows += report.kept_rows;
            }
            CatalogEntry::Virtual(s) => out.create_virtual_table(s)?,
        }
    }
    Ok((out, total))
}

fn hash_name(name: &str) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    name.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{simple_schema, table_with_rows};
    use llmsql_types::DataType;

    fn big_table() -> Table {
        let schema = simple_schema(
            "nums",
            &[
                ("id", DataType::Int),
                ("a", DataType::Int),
                ("b", DataType::Text),
            ],
        );
        let rows = (0..200)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i * 2),
                    Value::Text(format!("v{i}")),
                ]
            })
            .collect();
        table_with_rows(schema, rows).unwrap()
    }

    #[test]
    fn null_degradation_hits_expected_fraction() {
        let t = big_table();
        let (d, report) = degrade_table(&t, &DegradeSpec::nulls(0.5, 3)).unwrap();
        assert_eq!(d.row_count(), 200);
        assert_eq!(report.dropped_rows, 0);
        // 400 degradable cells, expect ~200 nulled; allow generous slack
        assert!(
            report.nulled_values > 120 && report.nulled_values < 280,
            "nulled {}",
            report.nulled_values
        );
        // primary keys never nulled
        assert!(d.scan().iter().all(|r| !r.get(0).is_null()));
    }

    #[test]
    fn row_dropping() {
        let t = big_table();
        let spec = DegradeSpec {
            null_fraction: 0.0,
            drop_row_fraction: 0.25,
            seed: 9,
        };
        let (d, report) = degrade_table(&t, &spec).unwrap();
        assert_eq!(report.kept_rows, d.row_count());
        assert_eq!(report.kept_rows + report.dropped_rows, 200);
        assert!(report.dropped_rows > 20 && report.dropped_rows < 90);
        assert_eq!(report.nulled_values, 0);
    }

    #[test]
    fn zero_degradation_is_identity() {
        let t = big_table();
        let (d, report) = degrade_table(
            &t,
            &DegradeSpec {
                null_fraction: 0.0,
                drop_row_fraction: 0.0,
                seed: 1,
            },
        )
        .unwrap();
        assert_eq!(
            report,
            DegradeReport {
                nulled_values: 0,
                dropped_rows: 0,
                kept_rows: 200
            }
        );
        assert_eq!(d.scan(), t.scan());
    }

    #[test]
    fn degradation_is_deterministic() {
        let t = big_table();
        let spec = DegradeSpec::nulls(0.4, 77);
        let (d1, r1) = degrade_table(&t, &spec).unwrap();
        let (d2, r2) = degrade_table(&t, &spec).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(d1.scan(), d2.scan());
    }

    #[test]
    fn original_table_untouched() {
        let t = big_table();
        let before = t.scan();
        let _ = degrade_table(&t, &DegradeSpec::nulls(0.9, 5)).unwrap();
        assert_eq!(t.scan(), before);
    }

    #[test]
    fn catalog_degradation_preserves_virtual_tables() {
        let cat = Catalog::new();
        cat.register_table(big_table()).unwrap();
        cat.create_virtual_table(simple_schema("v", &[("id", DataType::Int)]))
            .unwrap();
        let (copy, report) = degrade_catalog(&cat, &DegradeSpec::nulls(0.5, 2)).unwrap();
        assert!(report.nulled_values > 0);
        assert!(copy.get("v").unwrap().is_virtual());
        assert_eq!(copy.table("nums").unwrap().row_count(), 200);
    }
}
