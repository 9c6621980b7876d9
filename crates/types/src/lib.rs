#![forbid(unsafe_code)]
#![warn(clippy::pedantic)]
// Pedantic exceptions, each a deliberate local judgment call rather than a
// bug class: numeric casts are used where the domain bounds the value, and
// must_use / doc-section lints would add noise to an internal API.
#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss,
    clippy::doc_markdown,
    clippy::enum_glob_use,
    clippy::float_cmp,
    clippy::if_not_else,
    clippy::match_same_arms,
    clippy::missing_errors_doc,
    clippy::missing_panics_doc,
    clippy::must_use_candidate,
    clippy::needless_pass_by_value,
    clippy::return_self_not_must_use,
    clippy::single_match_else,
    clippy::struct_excessive_bools,
    clippy::too_many_lines
)]
//! # llmsql-types
//!
//! Shared primitive types for the `llmsql` engine: scalar [`Value`]s, table
//! [`Schema`]s, [`Row`]s and [`Batch`]es, the unified [`Error`] type, the
//! engine/LLM [`config`] knobs, and the one [`clock`].
//!
//! Every other crate in the workspace depends on this one; it has no
//! dependencies on the rest of the engine.

#![warn(missing_docs)]

pub mod chaos;
pub mod clock;
pub mod config;
pub mod error;
pub mod ewma;
pub mod row;
pub mod sched;
pub mod schema;
pub mod value;

pub use chaos::{ChaosEffect, ChaosFault, ChaosPlan, ChaosWindow};
pub use config::{
    BackendSpec, EngineConfig, ExecutionMode, LlmCostModel, LlmFidelity, OptimizerOptions,
    PromptStrategy, RoutingPolicy,
};
pub use error::{Error, ErrorKind, Incomplete, Result};
pub use ewma::AtomicEwmaMs;
pub use row::{Batch, Row};
pub use sched::{Priority, SchedConfig, SchedPolicy, TenantId, TenantRateLimit};
pub use schema::{ascii_upper, Column, ColumnRef, DataType, Field, RelSchema, Schema};
pub use value::Value;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            (-1e12f64..1e12f64).prop_map(Value::Float),
            "[a-zA-Z0-9 ]{0,12}".prop_map(Value::Text),
        ]
    }

    proptest! {
        /// total_cmp is a total order: antisymmetric and transitive on samples.
        #[test]
        fn value_ordering_is_consistent(a in arb_value(), b in arb_value(), c in arb_value()) {
            use std::cmp::Ordering;
            let ab = a.total_cmp(&b);
            let ba = b.total_cmp(&a);
            prop_assert_eq!(ab, ba.reverse());
            if ab == Ordering::Less && b.total_cmp(&c) == Ordering::Less {
                prop_assert_eq!(a.total_cmp(&c), Ordering::Less);
            }
            prop_assert_eq!(a.total_cmp(&a), Ordering::Equal);
        }

        /// semantic_eq implies equal hashes (hash-join safety).
        #[test]
        fn eq_implies_same_hash(a in arb_value(), b in arb_value()) {
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            if a.semantic_eq(&b) {
                let mut ha = DefaultHasher::new();
                let mut hb = DefaultHasher::new();
                a.hash(&mut ha);
                b.hash(&mut hb);
                prop_assert_eq!(ha.finish(), hb.finish());
            }
        }

        /// Casting to text and leniently parsing back preserves integers.
        #[test]
        fn int_text_roundtrip(i in any::<i64>()) {
            let v = Value::Int(i);
            let t = v.cast(DataType::Text).unwrap();
            let back = t.cast(DataType::Int).unwrap();
            prop_assert_eq!(back, v);
        }

        /// Row project never panics and produces the requested arity.
        #[test]
        fn row_project_arity(vals in proptest::collection::vec(arb_value(), 0..8),
                             idxs in proptest::collection::vec(0usize..10, 0..8)) {
            let row = Row::new(vals);
            let p = row.project(&idxs);
            prop_assert_eq!(p.arity(), idxs.len());
        }
    }
}
