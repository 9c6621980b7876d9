#![forbid(unsafe_code)]
//! # llmsql-core
//!
//! The public API of the `llmsql` engine — the reproduction of
//! *"Large Language Models as Storage for SQL Querying"* (ICDE 2024).
//!
//! An [`Engine`] parses SQL, plans it, and executes it in one of three modes:
//!
//! * **Traditional** — against the relational store (`llmsql-store`); this is
//!   the baseline and the ground-truth oracle.
//! * **LlmOnly** — every base relation is virtual and materialized by
//!   prompting the language model (`llmsql-llm`), using a configurable
//!   [`PromptStrategy`].
//! * **Hybrid** — stored tables with gaps are completed from the model at
//!   query time.
//!
//! The [`eval`] module scores LLM-backed answers against the oracle
//! (precision / recall / F1), which is the measurement underlying every
//! accuracy experiment in `EXPERIMENTS.md`.
//!
//! ```
//! use llmsql_core::{Engine, eval::score_batches};
//! use llmsql_types::{EngineConfig, ExecutionMode, LlmFidelity, PromptStrategy};
//!
//! // Ground truth lives in a traditional engine.
//! let oracle = Engine::new(EngineConfig::default().with_mode(ExecutionMode::Traditional));
//! oracle.execute_script(
//!     "CREATE TABLE countries (name TEXT PRIMARY KEY, region TEXT, population INTEGER);
//!      INSERT INTO countries VALUES ('France','Europe',68), ('Japan','Asia',125);").unwrap();
//!
//! // The subject engine answers the same SQL from the (simulated) model.
//! let kb = Engine::knowledge_from_catalog(oracle.catalog()).unwrap();
//! let mut subject = Engine::with_catalog(
//!     oracle.catalog().deep_clone().unwrap(),
//!     EngineConfig::default()
//!         .with_mode(ExecutionMode::LlmOnly)
//!         .with_strategy(PromptStrategy::BatchedRows)
//!         .with_fidelity(LlmFidelity::perfect()));
//! subject.attach_simulator(kb.into_shared());
//!
//! let sql = "SELECT name FROM countries WHERE population > 100";
//! let expected = oracle.execute(sql).unwrap();
//! let actual = subject.execute(sql).unwrap();
//! let score = score_batches(&actual.batch, &expected.batch, false);
//! assert!(score.exact);
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod eval;
pub mod explain;
pub mod result;

pub use engine::Engine;
pub use eval::{score_batches, score_rows, ResultScore, SuiteScore};
pub use explain::render_explain;
pub use result::QueryResult;

// Re-export the configuration types users need to drive the engine.
pub use llmsql_types::{
    EngineConfig, ExecutionMode, LlmCostModel, LlmFidelity, OptimizerOptions, PromptStrategy, Value,
};
