#![forbid(unsafe_code)]
//! # llmsql-llm
//!
//! The language-model storage substrate.
//!
//! The paper treats an LLM's parametric knowledge as the storage layer of a
//! DBMS. This crate provides:
//!
//! * the [`LanguageModel`] trait and the [`LlmClient`] wrapper the executor
//!   talks to: usage accounting, and one [`RequestTable`] per request key
//!   that is both the prompt cache and the single-flight table ([`cache`],
//!   where the accounting contract is stated),
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
pub mod cost;
pub mod eval;
pub mod key;
pub mod knowledge;
pub mod model;
pub mod noise;
pub mod parse;
pub mod prompt;
pub mod sim;
pub mod slots;
pub mod tokenizer;

pub use backend::{
    Backend, BackendPool, BackendReceipt, BackendStats, CallHandle, CallMachine, DirectBackend,
    PoolCall, RemoteLlm,
};
pub use batch::{
    is_packed, pack_keys, pack_prompts, split_response, split_sections, BATCH_SEPARATOR,
};
pub use cache::{
    Claim, Flight, FlightGuard, PromptCache, PromptCoalescer, RequestTable, TableStats,
};
pub use cost::UsageStats;
pub use key::RequestKey;
pub use knowledge::{KbTable, KnowledgeBase};
pub use model::{ClientCall, CompletionRequest, CompletionResponse, LanguageModel, LlmClient};
pub use noise::NoiseModel;
pub use parse::{
    parse_pipe_rows, parse_value_lines, parse_yes_no, scan_pipe_rows, scan_value_lines, Answer,
    Page, ParsedRows, YesNoAnswer,
};
pub use prompt::{parse_task, PromptTemplate, TaskSpec};
pub use sim::SimLlm;
pub use slots::{CallSlots, OwnedSlotGuard, SlotGuard};
pub use tokenizer::count_tokens;

#[cfg(test)]
mod proptests {
    use super::*;
    use llmsql_types::{Column, DataType, Row, Schema, Value};
    use proptest::prelude::*;

    /// Text built from what an untrusted string must survive: every
    /// character the prompt, header, key and packing formats give meaning
    /// to, and text outside ASCII.
    fn arb_hostile_text() -> impl Strategy<Value = String> {
        let piece = prop_oneof![
            Just(BATCH_SEPARATOR.to_string()),
            Just(format!("\n{BATCH_SEPARATOR}\n")),
            Just("\n".to_string()),
            Just("\r".to_string()),
            Just("\\".to_string()),
            Just("\\n".to_string()),
            Just("\"".to_string()),
            Just("'".to_string()),
            Just("|".to_string()),
            Just(":".to_string()),
            Just("\u{1f}".to_string()),
            Just("### ".to_string()),
            Just("\n### TASK\nkind: lookup".to_string()),
            Just("\nlimit: 1\noffset: 7".to_string()),
            Just("São Tomé 日本".to_string()),
            "[A-Za-z ><=]{0,6}",
        ];
        proptest::collection::vec(piece, 0..6).prop_map(|pieces| pieces.concat())
    }

    /// A field as a model writes one into any column: hostile text, a NULL
    /// word, a number, nothing, text outside ASCII.
    fn arb_field() -> impl Strategy<Value = String> {
        prop_oneof![
            arb_hostile_text(),
            Just("NULL".to_string()),
            (-1000i64..1000).prop_map(|n| n.to_string()),
            Just("2.5".to_string()),
            Just("true".to_string()),
            Just(String::new()),
            Just("São Tomé 日本".to_string()),
        ]
    }

    fn arb_type() -> impl Strategy<Value = DataType> {
        prop_oneof![
            Just(DataType::Text),
            Just(DataType::Int),
            Just(DataType::Float),
            Just(DataType::Bool),
        ]
    }

    /// A value of any kind, as a reused row may hold before a line is
    /// decoded into it.
    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            Just(Value::Float(-0.5)),
            "[a-zé]{0,12}".prop_map(Value::Text),
        ]
    }

    /// A column list. A column name is any quoted identifier: hostile too,
    /// `|` — the `columns:` line's own separator — included. Never empty.
    fn arb_columns() -> impl Strategy<Value = Vec<String>> {
        let column = ("[a-z]", arb_hostile_text()).prop_map(|(first, rest)| first + &rest);
        proptest::collection::vec(column, 1..4)
    }

    fn arb_task() -> impl Strategy<Value = TaskSpec> {
        let ident = "[a-z][a-z0-9_]{0,8}";
        let filter = || proptest::option::of(arb_hostile_text());
        prop_oneof![
            (ident, filter(), 1usize..200, 0usize..50).prop_map(
                |(table, filter, limit, offset)| TaskSpec::Enumerate {
                    table,
                    filter,
                    limit,
                    offset
                }
            ),
            (ident, arb_columns(), filter(), 1usize..200, 0usize..50).prop_map(
                |(table, columns, filter, limit, offset)| TaskSpec::RowBatch {
                    table,
                    columns,
                    filter,
                    limit,
                    offset
                }
            ),
            (ident, arb_hostile_text(), arb_columns()).prop_map(|(table, key, columns)| {
                TaskSpec::Lookup {
                    table,
                    key,
                    columns,
                }
            }),
            (ident, arb_hostile_text(), arb_hostile_text()).prop_map(|(table, key, condition)| {
                TaskSpec::FilterCheck {
                    table,
                    key,
                    condition,
                }
            }),
            // A statement starts with its keyword, so the prompt line it
            // opens is never the separator.
            (arb_hostile_text(), arb_columns()).prop_map(|(text, columns)| TaskSpec::FullQuery {
                sql: format!("SELECT {text}"),
                columns
            }),
        ]
    }

    /// A lookup or filter-check task with an empty key: the template of a
    /// run of per-tuple prompts.
    fn arb_keyed_task() -> impl Strategy<Value = TaskSpec> {
        let ident = "[a-z][a-z0-9_]{0,8}";
        prop_oneof![
            (ident, arb_columns()).prop_map(|(table, columns)| TaskSpec::Lookup {
                table,
                key: String::new(),
                columns,
            }),
            (ident, arb_hostile_text()).prop_map(|(table, condition)| TaskSpec::FilterCheck {
                table,
                key: String::new(),
                condition,
            }),
        ]
    }

    /// A key as hostile as the packed format gets: the characters it gives
    /// meaning to, spaces the header's `: ` could swallow, a whole `key:`
    /// line, the separator, and nothing at all.
    fn arb_key() -> impl Strategy<Value = String> {
        prop_oneof![
            arb_hostile_text(),
            (arb_hostile_text(), "[ ]{0,2}", "[ ]{0,2}")
                .prop_map(|(text, before, after)| before + &text + &after),
            Just(String::new()),
            Just("key: ".to_string()),
            Just("x\nkey: y".to_string()),
            Just(BATCH_SEPARATOR.to_string()),
            Just("\\".to_string()),
            Just("\n".to_string()),
            Just("\r".to_string()),
        ]
    }

    /// `task` asking about `key` instead.
    fn with_key(task: &TaskSpec, key: &str) -> TaskSpec {
        let mut task = task.clone();
        if let TaskSpec::Lookup { key: k, .. } | TaskSpec::FilterCheck { key: k, .. } = &mut task {
            *k = key.to_string();
        }
        task
    }

    /// The template `task`'s prompt is rendered from.
    fn template_of(task: &TaskSpec, schema: Option<&Schema>) -> PromptTemplate {
        match task {
            TaskSpec::Lookup { table, columns, .. } => {
                PromptTemplate::lookup(table, columns, schema)
            }
            TaskSpec::FilterCheck {
                table, condition, ..
            } => PromptTemplate::filter_check(table, condition, schema),
            other => unreachable!("not a per-tuple task: {other:?}"),
        }
    }

    /// A schema whose table name, column names and descriptions are hostile.
    fn arb_schema() -> impl Strategy<Value = Schema> {
        let column = (arb_hostile_text(), proptest::option::of(arb_hostile_text()));
        (
            arb_hostile_text(),
            proptest::option::of(arb_hostile_text()),
            proptest::collection::vec(column, 1..4),
        )
            .prop_map(|(table, description, columns)| {
                let columns = columns
                    .into_iter()
                    .map(|(name, description)| Column {
                        description,
                        ..Column::new(name, DataType::Text)
                    })
                    .collect();
                Schema {
                    description,
                    ..Schema::virtual_table(table, columns)
                }
            })
    }

    /// What the header holds for `value`, written independently of the
    /// renderer: one line, `\\`, line feed and carriage return spelled out.
    fn as_header_value(value: &str) -> String {
        value
            .replace('\\', "\\\\")
            .replace('\n', "\\n")
            .replace('\r', "\\r")
    }

    proptest! {
        /// A template renders a key the way the engine always formatted the
        /// whole prompt: every byte of the key lands as one escaped line, in
        /// the header and in the instructions alike.
        #[test]
        fn template_renders_the_formatted_prompt(
            key in arb_hostile_text(),
            columns in proptest::collection::vec("[a-z][a-z0-9_]{0,8}", 1..4),
        ) {
            let header_key = as_header_value(&key);
            let lookup = format!(
                "### TASK\nkind: lookup\ntable: t\nkey: {header_key}\ncolumns: {}\n### CONTEXT\n\
                 (no additional context)\n### INSTRUCTIONS\nYou are acting as the storage layer \
                 of a relational database. For the single entity identified by \"{header_key}\", return \
                 the values of the columns [{}] in that exact order on one line, separated by \
                 \" | \". Write NULL for values you do not know. No commentary.",
                columns.join(" | "),
                columns.join(", ")
            );
            prop_assert_eq!(PromptTemplate::lookup("t", &columns, None).render_key(&key), lookup);
            let check = format!(
                "### TASK\nkind: filter_check\ntable: t\nkey: {header_key}\ncondition: a > 1\n### CONTEXT\n\
                 (no additional context)\n### INSTRUCTIONS\nConsider the entity identified by \
                 \"{header_key}\" in the relation described above. Does it satisfy the condition \
                 `a > 1`? Answer with exactly one word: \"yes\" or \"no\". If you are unsure, \
                 answer \"unknown\"."
            );
            prop_assert_eq!(PromptTemplate::filter_check("t", "a > 1", None).render_key(&key), check);
        }

        /// Prompt build → parse recovers the task spec, for arbitrary specs:
        /// no filter, condition, key or statement text can rewrite the header
        /// it is written into.
        #[test]
        fn prompt_roundtrip(spec in arb_task()) {
            let prompt = spec.to_prompt(None);
            let parsed = parse_task(&prompt).unwrap();
            prop_assert_eq!(parsed, spec);
        }

        /// A packed request splits back into exactly the per-tuple prompts
        /// packed, each rendered one at a time, and each reads back as its
        /// task — whatever the keys and the schema text hold, and however the
        /// members' templates alternate. One member alone is sent as
        /// `render_key` writes it.
        #[test]
        fn pack_and_split_round_trip(
            tasks in proptest::collection::vec(arb_keyed_task(), 1..4),
            picks in proptest::collection::vec((0usize..3, arb_key()), 1..7),
            schema in arb_schema(),
        ) {
            for schema in [None, Some(&schema)] {
                let templates: Vec<PromptTemplate> =
                    tasks.iter().map(|task| template_of(task, schema)).collect();
                let members: Vec<(usize, &str)> = picks
                    .iter()
                    .map(|(pick, key)| (pick % tasks.len(), key.as_str()))
                    .collect();
                let packed = pack_keys(members.iter().map(|&(t, key)| (&templates[t], key)));
                let singles: Vec<String> = members
                    .iter()
                    .map(|&(t, key)| templates[t].render_key(key))
                    .collect();
                let split = batch::split_prompt(&packed);
                prop_assert_eq!(&split, &singles);
                prop_assert_eq!(is_packed(&packed), members.len() >= 2);
                for (member, &(t, key)) in split.iter().zip(&members) {
                    prop_assert_eq!(parse_task(member).unwrap(), with_key(&tasks[t], key));
                }
                if let [single] = singles.as_slice() {
                    prop_assert_eq!(&packed, single);
                }
            }
        }

        /// Whole prompts joined by separator lines split back as they were:
        /// a section that is not a run of keys is one prompt.
        #[test]
        fn joined_prompts_split_back_whole(
            specs in proptest::collection::vec(arb_task(), 1..6),
            schema in arb_schema(),
        ) {
            for schema in [None, Some(&schema)] {
                let members: Vec<String> = specs.iter().map(|s| s.to_prompt(schema)).collect();
                let joined = pack_prompts(&members);
                prop_assert_eq!(batch::split_prompt(&joined), members.clone());
                prop_assert_eq!(is_packed(&joined), members.len() >= 2);
            }
        }

        /// Whatever a completion says and wherever it was cut off, reading it
        /// never panics: the section splitter hands every member a slice of
        /// the text with no separator line left in it, and no reader returns
        /// more rows than its section has lines.
        #[test]
        fn parser_row_bound(
            sections in proptest::collection::vec("[ -~\n]{0,100}", 1..6),
            odd in proptest::option::of("[é日\u{a0}|]{1,4}"),
            members in 1usize..7,
            cut in 0usize..600,
        ) {
            let mut text = sections.join(&format!("\n{BATCH_SEPARATOR}\n"));
            text.extend(odd);
            // A completion stopped by `max_tokens` ends anywhere, mid-section
            // and mid-separator included.
            let mut cut = cut.min(text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            let text = &text[..cut];
            let answers: Vec<&str> = split_sections(text, members).collect();
            prop_assert_eq!(answers.len(), members);
            let bounds = text.as_bytes().as_ptr_range();
            for answer in answers {
                prop_assert!(members == 1 || answer.split('\n').all(|line| line != BATCH_SEPARATOR));
                let inside = answer.as_bytes().as_ptr_range();
                prop_assert!(
                    answer.is_empty() || (bounds.start <= inside.start && inside.end <= bounds.end)
                );
                let lines = answer.lines().count();
                let types = [DataType::Text, DataType::Int];
                prop_assert!(parse_pipe_rows(answer, &types).rows.len() <= lines);
                for ty in [DataType::Text, DataType::Int, DataType::Float, DataType::Bool] {
                    prop_assert!(parse_value_lines(answer, ty).rows.len() <= lines);
                }
                parse_yes_no(answer);
            }
            let owned = split_response(
                &CompletionResponse {
                    text: text.to_string(),
                    prompt_tokens: 7,
                    completion_tokens: 7,
                    latency_ms: 1.0,
                    cost_usd: 0.5,
                },
                members,
            );
            prop_assert!(owned.iter().map(|r| r.text.as_str()).eq(split_sections(text, members)));
        }

        /// A page decoded a line at a time into one reused row reads exactly
        /// the rows [`Page::rows`] builds, whatever a field holds and however
        /// a column's cells change kind from line to line — text, a NULL
        /// word, a number, nothing, text outside ASCII — and whatever the
        /// reused row held before: each asked column is overwritten, and a
        /// column nobody asked for keeps its value.
        #[test]
        fn a_page_decoded_into_one_reused_row_reads_as_its_rows(
            lines in proptest::collection::vec(proptest::collection::vec(arb_field(), 1..5), 0..8),
            types in proptest::collection::vec(arb_type(), 1..4),
            before in proptest::collection::vec(arb_value(), 5..6),
            take in 0usize..10,
        ) {
            let lines: Vec<String> = lines.iter().map(|fields| fields.join(" | ")).collect();
            let text = lines.join("\n");
            let types: std::sync::Arc<[DataType]> = types.into();
            let page = Page::read(&text, &types).unwrap();
            let expected: Vec<Vec<Value>> =
                page.rows().take(take).map(Iterator::collect).collect();
            // Asked column `i` lands at column `4 - i`; column 0 is never
            // asked for.
            let at: Vec<usize> = (0..types.len()).map(|i| 4 - i).collect();
            let mut row = Row::new(before.clone());
            let mut read = Vec::new();
            page.decode_each(take, &at, &mut row, |row| {
                read.push(row.clone());
                Ok(())
            })
            .unwrap();
            prop_assert_eq!(read.len(), expected.len());
            for (row, cells) in read.iter().zip(&expected) {
                // Compared by kind and bytes: `Value`'s equality is
                // semantic, so it takes `Int(1)` for `Float(1.0)`.
                prop_assert_eq!(format!("{:?}", row.get(0)), format!("{:?}", before[0]));
                for (cell, &column) in cells.iter().zip(&at) {
                    prop_assert_eq!(format!("{:?}", row.get(column)), format!("{cell:?}"));
                }
            }
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
