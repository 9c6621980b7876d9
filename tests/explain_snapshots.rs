//! Golden-file snapshot tests for `EXPLAIN` / `EXPLAIN ANALYZE` text.
//!
//! The rendered plan is part of the debugging contract: estimates, rule
//! traces, lint lines and the estimated-vs-actual layout should not drift
//! silently. Wall-clock digits are the only non-deterministic part, so the
//! normalizer rewrites `wall=<digits>.<digits>ms` to `wall=NNms` before
//! comparing. Regenerate the goldens with:
//!
//! ```sh
//! UPDATE_SNAPSHOTS=1 cargo test --test explain_snapshots
//! ```

use llmsql_core::Engine;
use llmsql_types::{EngineConfig, ExecutionMode, LlmFidelity, OptimizerOptions, PromptStrategy};

/// Replace the digits of every `wall=<float>ms` occurrence with `NN` so
/// ANALYZE output is stable across runs (no regex: plain scan-and-rewrite).
fn normalize(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(pos) = rest.find("wall=") {
        let (head, tail) = rest.split_at(pos + "wall=".len());
        out.push_str(head);
        let digits = tail
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(tail.len());
        out.push_str("NN");
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

fn check_snapshot(name: &str, actual: &str) {
    let path = format!("{}/tests/snapshots/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    let actual = normalize(actual);
    if std::env::var("UPDATE_SNAPSHOTS").is_ok() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing snapshot {path} ({e}); run with UPDATE_SNAPSHOTS=1"));
    assert_eq!(
        actual, expected,
        "EXPLAIN text drifted from {name}.txt; if intended, rerun with UPDATE_SNAPSHOTS=1"
    );
}

/// A small fixed relation so the estimates are stable.
fn engine(optimize: bool) -> Engine {
    let mut config = EngineConfig::default()
        .with_mode(ExecutionMode::LlmOnly)
        .with_strategy(PromptStrategy::BatchedRows)
        .with_fidelity(LlmFidelity::perfect());
    if !optimize {
        config.optimizer = OptimizerOptions::disabled();
    }
    let oracle = Engine::new(EngineConfig::default().with_mode(ExecutionMode::Traditional));
    oracle
        .execute_script(
            "CREATE TABLE towns (name TEXT PRIMARY KEY, region TEXT, population INTEGER);
             INSERT INTO towns VALUES
               ('Aarhus','north',336), ('Bergen','north',286), ('Cadiz','south',116),
               ('Delft','west',104), ('Evora','south',57), ('Fulda','east',69),
               ('Gent','west',265), ('Hobro','north',12), ('Imola','south',70),
               ('Jena','east',111)",
        )
        .unwrap();
    let kb = Engine::knowledge_from_catalog(oracle.catalog()).unwrap();
    let mut subject = Engine::with_catalog(oracle.catalog().deep_clone().unwrap(), config);
    subject.attach_simulator(kb.into_shared()).unwrap();
    subject
}

fn explain_text(engine: &Engine, sql: &str) -> String {
    engine.execute(sql).unwrap().plan.expect("plan text")
}

#[test]
fn explain_optimized_pushdown() {
    let text = explain_text(
        &engine(true),
        "EXPLAIN SELECT name FROM towns WHERE population > 100 AND region LIKE '%o%'",
    );
    check_snapshot("explain_optimized_pushdown", &text);
}

#[test]
fn explain_unoptimized_with_lints() {
    let text = explain_text(
        &engine(false),
        "EXPLAIN SELECT name FROM towns WHERE population > 100",
    );
    check_snapshot("explain_unoptimized_with_lints", &text);
}

#[test]
fn explain_analyze_actuals() {
    let text = explain_text(
        &engine(true),
        "EXPLAIN ANALYZE SELECT name FROM towns WHERE population > 100",
    );
    check_snapshot("explain_analyze_actuals", &text);
}
