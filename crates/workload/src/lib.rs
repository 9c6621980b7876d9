#![forbid(unsafe_code)]
//! # llmsql-workload
//!
//! Workload generation and the experiment harness:
//!
//! * [`world`] — deterministic synthetic world knowledge (countries, cities,
//!   people, movies) registered both as the ground-truth relational store and
//!   as the simulated model's knowledge base,
//! * [`queries`] — benchmark query suites organised by operator class,
//! * [`harness`] — run a suite on the oracle and a subject engine and score
//!   every answer,
//! * [`chaos`] — the seeded chaos-suite scenario: a multi-backend scan under
//!   a deterministic fault schedule, with robustness invariants,
//! * [`report`] — the paper's tables as typed cells, rendered as text,
//! * [`reproduce`] — one function per table of the paper; the `reproduce`
//!   binary prints them all,
//! * [`virtual_latency`] — single-client scenarios on a paused clock: each
//!   query's latency is its model time along the critical path; the
//!   `virtual_latency` binary prints them.

#![warn(missing_docs)]

pub mod chaos;
pub mod harness;
pub mod queries;
pub mod report;
pub mod reproduce;
pub mod virtual_latency;
pub mod world;

pub use chaos::{
    chaos_engine, chaos_plan, chaos_world_spec, check_accounting_conserved, run_chaos_scan,
    run_chaos_suite, ChaosReport, ChaosSuiteOutcome, CHAOS_BACKENDS, CHAOS_ROWS, CHAOS_SQL,
};
pub use harness::{run_suite, CaseOutcome, SuiteOutcome};
pub use queries::{
    cardinality_suite, class_suite, join_chain_suite, multi_tenant_suite, standard_suite,
    QueryCase, QueryClass,
};
pub use report::{Cell, Report};
pub use world::{mixed_backend_config, World, WorldSpec};
