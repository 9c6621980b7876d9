//! End-to-end integration tests spanning every crate: SQL text in, scored
//! answers out, across execution modes and prompting strategies.

use llmsql_core::{score_batches, Engine};
use llmsql_store::{degrade_catalog, DegradeSpec};
use llmsql_types::{EngineConfig, ExecutionMode, LlmFidelity, PromptStrategy, Value};
use llmsql_workload::{run_suite, standard_suite, World, WorldSpec};

fn world() -> World {
    World::generate(WorldSpec {
        countries: 25,
        cities_per_country: 3,
        people: 40,
        movies: 30,
        seed: 41,
    })
    .unwrap()
}

/// At perfect fidelity every prompting strategy, one-shot full-query
/// included, reproduces the oracle answer of every query of the mixed suite
/// exactly, in the oracle's order where the query sorts: the simulated model
/// answers a whole query with the engine's own binder and operators, and
/// each of this suite's answers fits one completion.
#[test]
fn perfect_fidelity_is_lossless_for_all_decomposed_strategies() {
    let w = world();
    let oracle = w.oracle_engine();
    let suite = standard_suite(&w, 3);
    for strategy in [
        PromptStrategy::FullQuery,
        PromptStrategy::BatchedRows,
        PromptStrategy::TupleAtATime,
        PromptStrategy::DecomposedOperators,
    ] {
        let subject = w
            .subject_engine(
                EngineConfig::default()
                    .with_mode(ExecutionMode::LlmOnly)
                    .with_strategy(strategy)
                    .with_fidelity(LlmFidelity::perfect()),
            )
            .unwrap();
        let outcome = run_suite(&oracle, &subject, &suite).unwrap();
        for case in &outcome.cases {
            assert!(
                case.score.exact,
                "strategy {strategy}: '{}' diverged: {:?}",
                case.case.sql, case.score
            );
        }
    }
}

/// A pushed LIMIT caps the rows that *pass* the filter, whichever operator
/// applies it: the decomposed strategy checks the filter after the scan has
/// enumerated, so it must not stop enumerating at `limit` keys. Same rows as
/// the oracle for every strategy, and the same calls at any parallelism.
#[test]
fn limit_counts_rows_that_pass_the_filter_in_every_strategy() {
    let w = world();
    let oracle = w.oracle_engine();
    let queries = [
        "SELECT name FROM countries WHERE region = 'Europe' LIMIT 3",
        "SELECT name FROM people WHERE profession = 'scientist' LIMIT 4",
        "SELECT title FROM movies WHERE rating > 5.0 LIMIT 5",
    ];
    for strategy in [
        PromptStrategy::BatchedRows,
        PromptStrategy::TupleAtATime,
        PromptStrategy::DecomposedOperators,
    ] {
        let run = |sql: &str, parallelism: usize| {
            let config = EngineConfig::default()
                .with_mode(ExecutionMode::LlmOnly)
                .with_strategy(strategy)
                .with_fidelity(LlmFidelity::perfect())
                .with_parallelism(parallelism);
            let result = w.subject_engine(config).unwrap().execute(sql).unwrap();
            (result.batch, result.metrics.llm_calls())
        };
        for (sql, limit) in queries.into_iter().zip([3, 4, 5]) {
            let expected = oracle.execute(sql).unwrap().batch;
            assert_eq!(expected.len(), limit, "the world has enough matches: {sql}");
            let (sequential, calls) = run(sql, 1);
            assert_eq!(expected, sequential, "{strategy}: {sql}");
            let (parallel, parallel_calls) = run(sql, 16);
            assert_eq!(expected, parallel, "{strategy} at parallelism 16: {sql}");
            assert_eq!(calls, parallel_calls, "{strategy} call count: {sql}");
        }
    }
}

/// A scan trusts the model's reading of a pushed filter, so the simulated
/// model and the engine must do the same arithmetic. `/` is a float division
/// in SQL as the oracle runs it: no population is its own predecessor's
/// double, and every population's half exceeds its predecessor's — while a
/// model dividing integers would say so of the odd ones only. The same goes
/// for what is not an operator: a NULL in an `IN` list makes "not found"
/// unknown, a cast that fails is NULL rather than an error, and a WHERE value
/// of any type counts as a condition the way the engine counts it.
#[test]
fn pushed_arithmetic_filters_match_the_oracle_in_every_strategy() {
    let w = world();
    let oracle = w.oracle_engine();
    let queries = [
        "SELECT name, population FROM countries WHERE population / 2 = (population - 1) / 2",
        "SELECT name, population FROM countries WHERE population / 2 > (population - 1) / 2",
        "SELECT name FROM countries WHERE region NOT IN ('Europe', NULL)",
        "SELECT name FROM countries WHERE NOT (region IN ('Europe', NULL))",
        "SELECT name FROM countries WHERE CAST(name AS INTEGER) IS NULL",
        "SELECT name FROM countries WHERE population / 3.0",
        "SELECT name FROM countries WHERE name",
        "SELECT name FROM countries WHERE CASE WHEN population > 1000 THEN 1.5 ELSE 0 END",
    ];
    for (sql, expected_rows) in queries.into_iter().zip([0, 25, 0, 0, 25, 25, 25, 25]) {
        let truth = oracle.execute(sql).unwrap();
        assert_eq!(truth.row_count(), expected_rows, "{sql}");
        for strategy in [
            PromptStrategy::FullQuery,
            PromptStrategy::BatchedRows,
            PromptStrategy::TupleAtATime,
            PromptStrategy::DecomposedOperators,
        ] {
            let config = EngineConfig::default()
                .with_mode(ExecutionMode::LlmOnly)
                .with_strategy(strategy)
                .with_fidelity(LlmFidelity::perfect());
            let answer = w.subject_engine(config).unwrap().execute(sql).unwrap();
            let score = score_batches(&answer.batch, &truth.batch, false);
            assert!(score.exact, "{strategy}: '{sql}' diverged: {score:?}");
        }
    }
}

/// A literal outside ASCII reaches the model as it was written. The rows go
/// into the store as Rust strings, not through SQL text: the oracle shares
/// the lexer, so a literal mangled on the way in would be mangled the same
/// way for both engines and the comparison alone would see nothing.
#[test]
fn a_name_outside_ascii_is_found_in_every_strategy() {
    let w = world();
    let countries = w.catalog.table("countries").unwrap();
    for (name, capital) in [
        ("São Tomé", "Água Grande"),
        ("Côte d'Ivoire", "Yamoussoukro"),
    ] {
        let mut row = countries.scan()[0].clone();
        row.set(0, Value::Text(name.to_string()));
        row.set(2, Value::Text(capital.to_string()));
        countries.insert(row).unwrap();
    }
    let oracle = w.oracle_engine();
    let queries = [
        (
            "SELECT name, capital FROM countries WHERE name = 'São Tomé'",
            "São Tomé",
        ),
        (
            "SELECT name, capital FROM countries WHERE name = 'Côte d''Ivoire'",
            "Côte d'Ivoire",
        ),
        (
            "SELECT name, capital FROM countries WHERE capital LIKE 'Água%'",
            "São Tomé",
        ),
    ];
    for (sql, name) in queries {
        let truth = oracle.execute(sql).unwrap();
        assert_eq!(truth.row_count(), 1, "{sql}");
        assert_eq!(truth.rows()[0].get(0), &Value::Text(name.to_string()));
        for strategy in [
            PromptStrategy::FullQuery,
            PromptStrategy::BatchedRows,
            PromptStrategy::TupleAtATime,
            PromptStrategy::DecomposedOperators,
        ] {
            let config = EngineConfig::default()
                .with_mode(ExecutionMode::LlmOnly)
                .with_strategy(strategy)
                .with_fidelity(LlmFidelity::perfect());
            let answer = w.subject_engine(config).unwrap().execute(sql).unwrap();
            assert_eq!(answer.batch, truth.batch, "{strategy}: {sql}");
        }
    }
}

/// Full-query prompting at perfect fidelity answers exactly, in the oracle's
/// order where the query sorts: an outer join keeps its unmatched side, DESC
/// keeps ties in input order, a second sort key breaks the first one's ties,
/// and a grouped query's ORDER BY runs before its LIMIT.
#[test]
fn full_query_strategy_handles_single_table_queries() {
    let w = world();
    let oracle = w.oracle_engine();
    let subject = w
        .subject_engine(
            EngineConfig::default()
                .with_mode(ExecutionMode::LlmOnly)
                .with_strategy(PromptStrategy::FullQuery)
                .with_fidelity(LlmFidelity::perfect()),
        )
        .unwrap();
    for sql in [
        "SELECT name, capital FROM countries WHERE region = 'Europe'",
        "SELECT name FROM people WHERE profession = 'scientist'",
        "SELECT title, rating FROM movies WHERE rating > 5.0",
        "SELECT ci.name, co.name FROM cities ci RIGHT JOIN countries co \
         ON ci.country = co.name AND co.population < 0",
        "SELECT name, region FROM countries ORDER BY region DESC LIMIT 5",
        "SELECT name, region FROM countries ORDER BY region DESC, name ASC LIMIT 5",
        "SELECT region, COUNT(*) AS n FROM countries GROUP BY region ORDER BY n DESC LIMIT 2",
    ] {
        let truth = oracle.execute(sql).unwrap();
        let answer = subject.execute(sql).unwrap();
        let score = score_batches(&answer.batch, &truth.batch, sql.contains("ORDER BY"));
        assert!(score.exact, "query '{sql}' diverged: {score:?}");
        assert_eq!(answer.metrics.llm_calls(), 1, "full-query must be one call");
    }
}

/// Accuracy is monotone in model quality (weak < strong <= perfect) on the
/// standard suite.
#[test]
fn accuracy_improves_with_model_quality() {
    let w = world();
    let oracle = w.oracle_engine();
    let suite = standard_suite(&w, 3);
    let mut f1s = Vec::new();
    for fidelity in [
        LlmFidelity::weak(),
        LlmFidelity::strong(),
        LlmFidelity::perfect(),
    ] {
        let subject = w
            .subject_engine(
                EngineConfig::default()
                    .with_mode(ExecutionMode::LlmOnly)
                    .with_fidelity(fidelity),
            )
            .unwrap();
        let outcome = run_suite(&oracle, &subject, &suite).unwrap();
        f1s.push(outcome.overall().f1());
    }
    assert!(
        f1s[0] < f1s[1],
        "weak {} should be below strong {}",
        f1s[0],
        f1s[1]
    );
    assert!(
        f1s[1] <= f1s[2] + 1e-9,
        "strong {} should not beat perfect {}",
        f1s[1],
        f1s[2]
    );
    assert!(f1s[2] > 0.999);
}

/// Hybrid execution over a degraded store recovers accuracy that traditional
/// execution over the same store has lost.
#[test]
fn hybrid_execution_recovers_missing_values() {
    let w = world();
    let oracle = w.oracle_engine();
    let (degraded, report) = degrade_catalog(&w.catalog, &DegradeSpec::nulls(0.5, 17)).unwrap();
    assert!(report.nulled_values > 50);

    let sql = "SELECT name, capital FROM countries WHERE region = 'Europe'";
    let truth = oracle.execute(sql).unwrap();

    let traditional = Engine::with_catalog(
        degraded.clone(),
        EngineConfig::default().with_mode(ExecutionMode::Traditional),
    );
    let hybrid = w
        .subject_engine_with_catalog(
            degraded,
            EngineConfig::default()
                .with_mode(ExecutionMode::Hybrid)
                .with_fidelity(LlmFidelity::perfect()),
        )
        .unwrap();

    let damaged_score = score_batches(
        &traditional.execute(sql).unwrap().batch,
        &truth.batch,
        false,
    );
    let hybrid_result = hybrid.execute(sql).unwrap();
    let hybrid_score = score_batches(&hybrid_result.batch, &truth.batch, false);

    assert!(hybrid_score.f1 >= damaged_score.f1);
    assert!(
        hybrid_score.exact,
        "perfect-fidelity hybrid must restore the answer"
    );
    assert!(hybrid_result.metrics.cells_filled_by_llm > 0);
}

/// The prompt cache spares repeat calls without changing answers.
#[test]
fn prompt_cache_reduces_calls_but_not_answers() {
    let w = world();
    let subject = w
        .subject_engine(
            EngineConfig::default()
                .with_mode(ExecutionMode::LlmOnly)
                .with_fidelity(LlmFidelity::strong()),
        )
        .unwrap();
    let sql = "SELECT name, population FROM countries WHERE population > 1000000";
    let first = subject.execute(sql).unwrap();
    let second = subject.execute(sql).unwrap();
    assert_eq!(first.batch, second.batch);
    assert!(first.metrics.usage.calls > 0);
    // The second run is served from the cache: no new model calls.
    assert_eq!(second.metrics.usage.calls, 0);
    assert!(second.metrics.usage.cache_hits > 0);
}

/// A cache hit shares the entry's answer with the scan that reads it, so an
/// answer must outlive its entry: emptying the cache under running queries
/// costs model calls, never rows.
#[test]
fn clearing_the_cache_under_running_queries_changes_no_row() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let w = world();
    let subject = w
        .subject_engine(
            EngineConfig::default()
                .with_mode(ExecutionMode::LlmOnly)
                .with_strategy(PromptStrategy::BatchedRows)
                .with_fidelity(LlmFidelity::perfect())
                .with_batch_size(5),
        )
        .unwrap();
    let sql = "SELECT c.name, ci.name FROM countries c JOIN cities ci ON ci.country = c.name";
    let baseline = subject.execute(sql).unwrap().batch;
    assert!(baseline.len() >= 25);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let client = subject.client().unwrap();
            // ordering: Relaxed — a stop flag; the scope's join publishes
            // everything else.
            while !done.load(Ordering::Relaxed) {
                client.clear_cache();
                std::thread::yield_now();
            }
        });
        for _ in 0..200 {
            assert_eq!(subject.execute(sql).unwrap().batch, baseline);
        }
        // ordering: Relaxed — see above.
        done.store(true, Ordering::Relaxed);
    });
}

/// Pushing predicates and projections into prompts reduces model calls and
/// tokens without reducing accuracy at perfect fidelity (the E9 claim).
#[test]
fn optimizer_rules_reduce_model_traffic() {
    let w = world();
    let oracle = w.oracle_engine();
    let suite = standard_suite(&w, 2);

    let run = |pushdown: bool, pruning: bool| {
        let mut config = EngineConfig::default()
            .with_mode(ExecutionMode::LlmOnly)
            .with_fidelity(LlmFidelity::perfect());
        config.optimizer.predicate_pushdown = pushdown;
        config.optimizer.projection_pruning = pruning;
        config.enable_prompt_cache = false;
        let subject = w.subject_engine(config).unwrap();
        let outcome = run_suite(&oracle, &subject, &suite).unwrap();
        (
            outcome.overall().f1(),
            outcome.total_llm_calls(),
            outcome.total_tokens(),
        )
    };

    let (f1_on, calls_on, tokens_on) = run(true, true);
    let (f1_off, calls_off, tokens_off) = run(false, false);
    assert!(f1_on > 0.999 && f1_off > 0.999);
    assert!(
        calls_on <= calls_off,
        "optimized {calls_on} calls vs unoptimized {calls_off}"
    );
    assert!(
        tokens_on < tokens_off,
        "optimized {tokens_on} tokens vs unoptimized {tokens_off}"
    );
}

/// The engine's usage accounting matches the client's: token and cost totals
/// reported per query sum to the client's cumulative numbers.
#[test]
fn usage_accounting_is_consistent() {
    let w = world();
    let subject = w
        .subject_engine(
            EngineConfig::default()
                .with_mode(ExecutionMode::LlmOnly)
                .with_fidelity(LlmFidelity::strong()),
        )
        .unwrap();
    let queries = [
        "SELECT name FROM countries WHERE region = 'Asia'",
        "SELECT name, population FROM cities WHERE population > 100000",
        "SELECT COUNT(*) FROM people",
    ];
    let mut sum_calls = 0;
    let mut sum_tokens = 0;
    for sql in queries {
        let r = subject.execute(sql).unwrap();
        sum_calls += r.metrics.usage.calls;
        sum_tokens += r.metrics.usage.total_tokens();
    }
    let total = subject.client().unwrap().usage();
    assert_eq!(total.calls, sum_calls);
    assert_eq!(total.total_tokens(), sum_tokens);
}

/// Traditional mode over the oracle catalog answers exactly and never calls
/// the model, even when a model is attached.
#[test]
fn traditional_mode_never_calls_the_model() {
    let w = world();
    let mut engine = Engine::with_catalog(
        w.catalog.clone(),
        EngineConfig::default().with_mode(ExecutionMode::Traditional),
    );
    engine.attach_simulator(w.knowledge().unwrap()).unwrap();
    let r = engine
        .execute("SELECT region, COUNT(*) FROM countries GROUP BY region")
        .unwrap();
    assert!(r.row_count() > 0);
    assert_eq!(r.metrics.llm_calls(), 0);
    assert_eq!(r.metrics.usage.calls, 0);
}

/// DDL + DML + query flow built from scratch through the public API, ending
/// with an LLM-backed query over a virtual table defined in SQL.
#[test]
fn virtual_table_declared_in_sql_is_answered_by_the_model() {
    let w = world();
    let mut engine = Engine::new(
        EngineConfig::default()
            .with_mode(ExecutionMode::LlmOnly)
            .with_fidelity(LlmFidelity::perfect()),
    );
    engine.attach_simulator(w.knowledge().unwrap()).unwrap();
    // Declare a virtual relation matching (a subset of) the model's knowledge.
    engine
        .execute(
            "CREATE VIRTUAL TABLE countries (
                name TEXT PRIMARY KEY COMMENT 'the short English name of the country',
                region TEXT COMMENT 'the continent or world region',
                population INTEGER COMMENT 'the total population'
             ) COMMENT 'countries of the synthetic world atlas'",
        )
        .unwrap();
    let r = engine
        .execute("SELECT name FROM countries WHERE region = 'Europe'")
        .unwrap();
    assert!(r.row_count() > 0);
    assert!(r.metrics.llm_calls() > 0);
    // Every returned name is a real country of the world.
    let truth: Vec<Value> = w
        .catalog
        .table("countries")
        .unwrap()
        .scan()
        .iter()
        .map(|row| row.get(0).clone())
        .collect();
    for row in r.rows() {
        assert!(truth.contains(row.get(0)), "hallucinated {:?}", row.get(0));
    }
}

/// Tuple batching states what a request's per-tuple prompts share once: at
/// four prompts a request the same scans ask the same logical calls and
/// return the same rows in a quarter of the requests, for under 40 % of the
/// prompt tokens — and the dollars fall with the tokens. The counts are
/// exact: the model is deterministic and the cache is off.
#[test]
fn packed_requests_state_their_template_once() {
    let w = world();
    let scans = [
        (
            PromptStrategy::TupleAtATime,
            "SELECT name, capital, population FROM countries",
            // (requests, prompt tokens) at 1 and at 4 prompts a request
            [(26, 6603), (8, 2438)],
        ),
        (
            PromptStrategy::DecomposedOperators,
            "SELECT name, capital FROM countries WHERE population > 50000000",
            [(51, 12780), (15, 4588)],
        ),
    ];
    for (strategy, sql, expected) in scans {
        let run = |batch_rows_per_call: usize| {
            let mut config = EngineConfig::default()
                .with_mode(ExecutionMode::LlmOnly)
                .with_strategy(strategy)
                .with_fidelity(LlmFidelity::perfect())
                .with_parallelism(16)
                .with_batch_rows_per_call(batch_rows_per_call);
            config.enable_prompt_cache = false;
            w.subject_engine(config).unwrap().execute(sql).unwrap()
        };
        let (one, four) = (run(1), run(4));
        assert_eq!(one.batch, four.batch, "{strategy}");
        assert!(!one.batch.rows.is_empty(), "{strategy}");
        assert_eq!(
            one.metrics.llm_calls_by_kind, four.metrics.llm_calls_by_kind,
            "{strategy}"
        );
        let counts = [&one, &four].map(|r| (r.metrics.usage.calls, r.metrics.usage.prompt_tokens));
        assert_eq!(counts, expected, "{strategy}: (requests, prompt tokens)");
        assert!(
            four.metrics.usage.prompt_tokens * 10 < one.metrics.usage.prompt_tokens * 4,
            "{strategy}"
        );
        assert!(
            four.metrics.usage.cost_usd < one.metrics.usage.cost_usd,
            "{strategy}"
        );
    }
}
