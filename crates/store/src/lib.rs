#![forbid(unsafe_code)]
//! # llmsql-store
//!
//! The relational storage substrate: an in-memory row store with a catalog
//! and controlled degradation utilities.
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
pub mod table;

pub use catalog::{Catalog, CatalogEntry};
pub use degrade::{degrade_catalog, degrade_table, DegradeReport, DegradeSpec};
pub use table::{simple_schema, table_with_rows, Table};
