//! What a model's answer text means to a scan, end to end: rows that start
//! like commentary come back under every strategy and page size, and a key
//! the model invents can never shift a packed request's answers onto the
//! wrong rows.

use std::sync::Arc;

use llmsql_core::Engine;
use llmsql_llm::batch::split_prompt;
use llmsql_llm::{
    pack_prompts, parse_value_lines, CompletionRequest, CompletionResponse, KnowledgeBase,
    LanguageModel, SimLlm, BATCH_SEPARATOR,
};
use llmsql_store::Catalog;
use llmsql_types::{
    Column, DataType, EngineConfig, ExecutionMode, LlmFidelity, PromptStrategy, Result, Row,
    Schema, Value,
};
use proptest::prelude::*;

/// Twelve films; six titles start the way a model starts its commentary.
const FILMS: [(&str, i64); 12] = [
    ("Alien", 1979),
    ("I Am Legend", 2007),
    ("Heat", 1995),
    ("The Following", 1998),
    ("Sure Thing", 1985),
    ("I'm Not There", 2007),
    ("Here Is Your Life", 1966),
    ("Note: Unsent", 2019),
    ("Zodiac", 2007),
    ("Ran", 1985),
    ("Up", 2009),
    ("Her", 2013),
];

fn films_schema() -> Schema {
    Schema::virtual_table(
        "films",
        vec![
            Column::new("title", DataType::Text).primary_key(),
            Column::new("year", DataType::Int),
        ],
    )
}

fn films_engine(strategy: PromptStrategy, page: usize) -> Engine {
    let mut kb = KnowledgeBase::new();
    let rows = FILMS
        .iter()
        .map(|(title, year)| Row::new(vec![(*title).into(), Value::Int(*year)]))
        .collect();
    kb.add_table(films_schema(), rows);
    let catalog = Catalog::new();
    catalog.create_virtual_table(films_schema()).unwrap();
    let config = EngineConfig::default()
        .with_mode(ExecutionMode::LlmOnly)
        .with_strategy(strategy)
        .with_batch_size(page);
    let mut engine = Engine::with_catalog(catalog, config);
    let sim = SimLlm::new(kb.into_shared(), LlmFidelity::perfect(), 7);
    engine.attach_model(Arc::new(sim)).unwrap();
    engine
}

#[test]
fn rows_that_start_like_chatter_come_back_under_every_strategy() {
    let mut written: Vec<(String, i64)> =
        FILMS.iter().map(|(t, y)| ((*t).to_string(), *y)).collect();
    written.sort();
    for strategy in PromptStrategy::ALL {
        for page in [3, 20] {
            let engine = films_engine(strategy, page);
            let result = engine.execute("SELECT title, year FROM films").unwrap();
            let mut read: Vec<(String, i64)> = result
                .rows()
                .iter()
                .map(|r| {
                    (
                        r.get(0).to_display_string(),
                        r.get(1).as_int().unwrap_or(-1),
                    )
                })
                .collect();
            read.sort();
            assert_eq!(read, written, "{strategy:?} at page {page}");
            assert_eq!(
                result.metrics.dropped_lines, 0,
                "{strategy:?} at page {page}"
            );
        }
    }
    // One-column answers have no separator to tell a row by: a page of
    // titles, a whole-query result of titles, a key list.
    let mut titles: Vec<&str> = FILMS.iter().map(|(title, _)| *title).collect();
    titles.sort_unstable();
    for strategy in [
        PromptStrategy::BatchedRows,
        PromptStrategy::FullQuery,
        PromptStrategy::TupleAtATime,
    ] {
        for page in [3, 20] {
            let engine = films_engine(strategy, page);
            let result = engine.execute("SELECT title FROM films").unwrap();
            let mut read: Vec<String> = result
                .rows()
                .iter()
                .map(|r| r.get(0).to_display_string())
                .collect();
            read.sort();
            assert_eq!(read, titles, "{strategy:?} at page {page}");
        }
    }
}

fn things_schema() -> Schema {
    Schema::virtual_table(
        "things",
        vec![
            Column::new("name", DataType::Text).primary_key(),
            Column::new("mark", DataType::Int),
        ],
    )
}

/// What the [`Scripted`] model says about a key: a number that is the key's
/// alone, so an answer on the wrong row shows.
fn mark_of(key: &str) -> i64 {
    let hash = key.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    (hash % 1_000_000_007) as i64
}

/// A model that enumerates whatever it was scripted to say, and answers a
/// lookup with [`mark_of`] the key its prompt names. It reads a packed
/// request the way `SimLlm` does: cut at the separator lines, one answer a
/// member, packed the same way.
struct Scripted {
    enumeration: String,
}

impl Scripted {
    fn answer(&self, prompt: &str) -> String {
        if prompt.contains("kind: enumerate") {
            return self.enumeration.clone();
        }
        // A member that is no whole lookup prompt has no key line.
        prompt
            .lines()
            .find_map(|line| line.strip_prefix("key: "))
            .map_or_else(|| "NULL".to_string(), |key| mark_of(key).to_string())
    }
}

impl LanguageModel for Scripted {
    fn name(&self) -> String {
        "scripted".into()
    }
    fn fingerprint(&self) -> String {
        format!("scripted:{}", self.enumeration)
    }
    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse> {
        let answers: Vec<String> = split_prompt(&request.prompt)
            .into_iter()
            .map(|member| self.answer(&member))
            .collect();
        Ok(CompletionResponse {
            text: pack_prompts(&answers),
            prompt_tokens: 1,
            completion_tokens: 1,
            latency_ms: 0.0,
            cost_usd: 0.0,
        })
    }
}

/// An enumerate answer as hostile as model output gets: the batch separator,
/// the characters the prompt and answer formats give meaning to, text outside
/// ASCII, and ordinary keys between them.
fn arb_enumeration() -> impl Strategy<Value = String> {
    let fixed = |text: &'static str| Just(text.to_string());
    let piece = prop_oneof![
        "[A-Za-z]{1,8}",
        "[A-Za-z]{1,8}",
        "[0-9 ]{1,3}",
        fixed("\n"),
        fixed("\n"),
        fixed("\n"),
        fixed(BATCH_SEPARATOR),
        fixed("|"),
        fixed(":"),
        fixed("\""),
        fixed("key: "),
        fixed("é"),
        fixed("日本"),
    ];
    proptest::collection::vec(piece, 0..40).prop_map(|pieces| pieces.concat())
}

proptest! {
    /// Whatever an enumerate answer says, every key it names comes back, and
    /// member *i*'s answer lands on key *i*, packed or not: a key holding the
    /// separator is escaped into a line that is never the separator.
    #[test]
    fn an_invented_key_never_shifts_a_packed_answer(enumeration in arb_enumeration()) {
        let said = parse_value_lines(&enumeration, DataType::Text);
        let keys: Vec<String> =
            said.rows.iter().map(|row| row.get(0).to_display_string()).collect();
        for rows_per_call in [1, 4] {
            let catalog = Catalog::new();
            catalog.create_virtual_table(things_schema()).unwrap();
            let mut config = EngineConfig::default()
                .with_mode(ExecutionMode::LlmOnly)
                .with_strategy(PromptStrategy::TupleAtATime)
                .with_parallelism(8)
                .with_batch_rows_per_call(rows_per_call);
            config.enable_prompt_cache = false;
            let mut engine = Engine::with_catalog(catalog, config);
            let model = Scripted { enumeration: enumeration.clone() };
            engine.attach_model(Arc::new(model)).unwrap();
            let result = engine.execute("SELECT name, mark FROM things").unwrap();
            let names: Vec<String> =
                result.rows().iter().map(|r| r.get(0).to_display_string()).collect();
            prop_assert_eq!(&names, &keys, "{:?} at {} per call", enumeration, rows_per_call);
            for row in result.rows() {
                let name = row.get(0).to_display_string();
                prop_assert_eq!(
                    row.get(1),
                    &Value::Int(mark_of(&name)),
                    "{:?}: the answer on {:?} is another key's ({} per call)",
                    enumeration,
                    name,
                    rows_per_call
                );
            }
            prop_assert_eq!(
                result.metrics.dropped_lines as usize,
                said.dropped_lines,
                "{:?} at {} per call",
                enumeration,
                rows_per_call
            );
        }
    }
}
