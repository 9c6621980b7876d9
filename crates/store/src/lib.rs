#![forbid(unsafe_code)]
//! # llmsql-store
//!
//! The relational storage substrate: an in-memory row store with a catalog,
//! hash and B-tree secondary indexes, and controlled degradation utilities.
//!
//! In the reproduction this crate plays two roles:
//!
//! 1. the **traditional-DBMS baseline** the paper compares against, and
//! 2. the **ground-truth oracle**: the synthetic world is materialized here
//!    and every LLM-backed answer is scored against it.
//!
//! The `degrade` module derives stores with missing values/rows for the
//! hybrid-completion experiment (E6).

#![warn(missing_docs)]

pub mod catalog;
pub mod degrade;
pub mod index;
pub mod table;

pub use catalog::{Catalog, CatalogEntry};
pub use degrade::{degrade_catalog, degrade_table, DegradeReport, DegradeSpec};
pub use index::{BTreeIndex, HashIndex, Index};
pub use table::{simple_schema, table_with_rows, ColumnStats, Table};

#[cfg(test)]
mod proptests {
    use super::*;
    use llmsql_types::{DataType, Row, Value};
    use proptest::prelude::*;

    proptest! {
        /// Hash-index lookups agree with a scan for random integer data.
        #[test]
        fn index_lookup_matches_scan(values in proptest::collection::vec(0i64..50, 1..100)) {
            let schema = simple_schema("t", &[("id", DataType::Int), ("v", DataType::Int)]);
            let table = Table::new(schema).unwrap();
            let rows: Vec<Row> = values
                .iter()
                .enumerate()
                .map(|(i, v)| Row::new(vec![Value::Int(i as i64), Value::Int(*v)]))
                .collect();
            table.insert_many(rows).unwrap();
            table.create_index("v", false).unwrap();
            let needle = Value::Int(values[0]);
            let via_index = table.lookup(1, &needle);
            let via_scan = table.scan_filtered(|r| r.get(1) == &needle);
            prop_assert_eq!(via_index.len(), via_scan.len());
        }

        /// B-tree range lookups agree with a filtered scan.
        #[test]
        fn btree_range_matches_scan(values in proptest::collection::vec(-100i64..100, 1..80),
                                    lo in -100i64..100, span in 0i64..100) {
            let hi = lo + span;
            let schema = simple_schema("t", &[("id", DataType::Int), ("v", DataType::Int)]);
            let table = Table::new(schema).unwrap();
            let rows: Vec<Row> = values
                .iter()
                .enumerate()
                .map(|(i, v)| Row::new(vec![Value::Int(i as i64), Value::Int(*v)]))
                .collect();
            table.insert_many(rows).unwrap();
            table.create_index("v", true).unwrap();
            let via_index = table.range_lookup(1, Some(&Value::Int(lo)), Some(&Value::Int(hi)));
            let via_scan = table.scan_filtered(|r| {
                let v = r.get(1).as_int().unwrap();
                v >= lo && v <= hi
            });
            prop_assert_eq!(via_index.len(), via_scan.len());
        }
    }
}
