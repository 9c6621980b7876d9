#![forbid(unsafe_code)]
//! # llmsql-llm
//!
//! The language-model storage substrate.
//!
//! The paper treats an LLM's parametric knowledge as the storage layer of a
//! DBMS. This crate provides:
//!
//! * the [`LanguageModel`] trait and the [`LlmClient`] wrapper (prompt cache +
//!   usage accounting) the executor talks to,
//! * the [`backend`] dispatch subsystem: the [`Backend`] endpoint trait, the
//!   deterministic [`RemoteLlm`] endpoint simulator, and the [`BackendPool`]
//!   router (round-robin / least-in-flight / cost-aware routing with bounded
//!   retry + exponential-backoff failover),
//! * [`SimLlm`]: a deterministic, seedable **simulated model** over an
//!   explicit [`KnowledgeBase`], with configurable recall, hallucination,
//!   value corruption and format noise ([`llmsql_types::LlmFidelity`]),
//! * the prompt builder ([`prompt::TaskSpec`]) and the tolerant completion
//!   parsers ([`parse`]),
//! * token counting, cost and latency accounting.
//!
//! The simulator is the substitution for the hosted GPT endpoints used in the
//! paper (see DESIGN.md): the engine-side code path is identical, but the
//! storage device is reproducible and its quality is a knob.

#![warn(missing_docs)]

pub mod backend;
pub mod batch;
pub mod cache;
pub mod coalesce;
pub mod cost;
pub mod eval;
pub mod key;
pub mod knowledge;
pub mod model;
pub mod noise;
pub mod parse;
pub mod prompt;
pub mod sim;
pub mod tokenizer;
mod wait;

pub use backend::{
    Backend, BackendPool, BackendStats, CallHandle, CallMachine, DirectBackend, HedgePermitGate,
    PoolCall, RemoteLlm,
};
pub use batch::{is_packed, pack_prompts, split_response, BATCH_SEPARATOR};
pub use cache::PromptCache;
pub use coalesce::{Claim, CoalesceStats, FollowerPoll, PromptCoalescer};
pub use cost::UsageStats;
pub use key::RequestKey;
pub use knowledge::{KbTable, KnowledgeBase};
pub use model::{ClientCall, CompletionRequest, CompletionResponse, LanguageModel, LlmClient};
pub use noise::NoiseModel;
pub use parse::{parse_pipe_rows, parse_value_lines, parse_yes_no, ParsedRows, YesNoAnswer};
pub use prompt::{describe_schema, parse_task, PromptTemplate, TaskSpec};
pub use sim::SimLlm;
pub use tokenizer::count_tokens;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_task() -> impl Strategy<Value = TaskSpec> {
        let ident = "[a-z][a-z0-9_]{0,8}";
        let cols = proptest::collection::vec("[a-z][a-z0-9_]{0,8}", 1..4);
        prop_oneof![
            (
                ident,
                proptest::option::of("[a-z][a-z0-9_ ><=']{0,19}"),
                1usize..200,
                0usize..50
            )
                .prop_map(|(table, filter, limit, offset)| TaskSpec::Enumerate {
                    table,
                    filter: filter.map(|f| f.trim().to_string()),
                    limit,
                    offset
                }),
            (ident, cols.clone(), 1usize..200, 0usize..50).prop_map(
                |(table, columns, limit, offset)| TaskSpec::RowBatch {
                    table,
                    columns,
                    filter: None,
                    limit,
                    offset
                }
            ),
            (ident, "[A-Za-z][A-Za-z ]{0,11}", cols.clone()).prop_map(|(table, key, columns)| {
                TaskSpec::Lookup {
                    table,
                    key: key.trim().to_string(),
                    columns,
                }
            }),
            (ident, "[A-Za-z]{1,12}", "[a-z][a-z0-9_ ><=']{0,19}").prop_map(
                |(table, key, condition)| TaskSpec::FilterCheck {
                    table,
                    key,
                    condition: condition.trim().to_string()
                }
            ),
        ]
    }

    /// Keys built from what a key must survive unescaped: the characters the
    /// prompt and key formats give meaning to, and the batch separator.
    fn arb_awkward_key() -> impl Strategy<Value = String> {
        let piece = prop_oneof![
            Just("\"".to_string()),
            Just("|".to_string()),
            Just(":".to_string()),
            Just("\n".to_string()),
            Just("\u{1f}".to_string()),
            Just(BATCH_SEPARATOR.to_string()),
            "[A-Za-z ]{0,6}",
        ];
        proptest::collection::vec(piece, 0..6).prop_map(|pieces| pieces.concat())
    }

    proptest! {
        /// A template renders a key the way the engine always formatted the
        /// whole prompt: every byte of the key lands verbatim, in both places.
        #[test]
        fn template_renders_the_formatted_prompt(
            key in arb_awkward_key(),
            columns in proptest::collection::vec("[a-z][a-z0-9_]{0,8}", 1..4),
        ) {
            let lookup = format!(
                "### TASK\nkind: lookup\ntable: t\nkey: {key}\ncolumns: {}\n### CONTEXT\n\
                 (no additional context)\n### INSTRUCTIONS\nYou are acting as the storage layer \
                 of a relational database. For the single entity identified by \"{key}\", return \
                 the values of the columns [{}] in that exact order on one line, separated by \
                 \" | \". Write NULL for values you do not know. No commentary.",
                columns.join(" | "),
                columns.join(", ")
            );
            prop_assert_eq!(PromptTemplate::lookup("t", &columns, None).render_key(&key), lookup);
            let check = format!(
                "### TASK\nkind: filter_check\ntable: t\nkey: {key}\ncondition: a > 1\n### CONTEXT\n\
                 (no additional context)\n### INSTRUCTIONS\nConsider the entity identified by \
                 \"{key}\" in the relation described above. Does it satisfy the condition \
                 `a > 1`? Answer with exactly one word: \"yes\" or \"no\". If you are unsure, \
                 answer \"unknown\"."
            );
            prop_assert_eq!(PromptTemplate::filter_check("t", "a > 1", None).render_key(&key), check);
        }

        /// Prompt build → parse recovers the task spec, for arbitrary specs.
        #[test]
        fn prompt_roundtrip(spec in arb_task()) {
            // keys/filters with '|' or newline are not produced by the engine
            let prompt = spec.to_prompt(None);
            let parsed = parse_task(&prompt).unwrap();
            prop_assert_eq!(parsed, spec);
        }

        /// The tolerant row parser never panics and never returns more rows
        /// than input lines.
        #[test]
        fn parser_row_bound(text in "[ -~\n]{0,400}") {
            let parsed = parse_pipe_rows(&text, &[llmsql_types::DataType::Text, llmsql_types::DataType::Int]);
            prop_assert!(parsed.rows.len() <= text.lines().count());
        }

        /// Token counting is monotone under concatenation.
        #[test]
        fn token_count_monotone(a in "[ -~]{0,100}", b in "[ -~]{0,100}") {
            let joined = format!("{a} {b}");
            prop_assert!(count_tokens(&joined) >= count_tokens(&a));
            prop_assert!(count_tokens(&joined) >= count_tokens(&b));
        }
    }
}
