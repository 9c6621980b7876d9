//! An aggregate reads its input, and a join its probe side, a row at a time:
//! a page scan below them hands over the pages it consumed, and each line is
//! decoded into one reused row as the operator reads it. These runs check
//! that nothing a query returns or accounts depends on that: every join
//! kind, a nested loop with a residual, NULL join keys, a NULL group, a
//! global aggregate over nothing, `COUNT(DISTINCT ..)` and a probe scan cut
//! short. Each query runs cold and then warm on one engine that has run
//! the others, and on an engine of its own, at parallelism 1 and 16: rows
//! and ledgers are identical run for run, and the rows are the oracle's.

use std::sync::Arc;

use llmsql_core::Engine;
use llmsql_exec::ExecMetrics;
use llmsql_llm::{CompletionRequest, CompletionResponse, LanguageModel, SimLlm};
use llmsql_types::{
    clock, EngineConfig, Error, ExecutionMode, LlmFidelity, PromptStrategy, Result, Row,
};
use llmsql_workload::{World, WorldSpec};

const QUERIES: [&str; 11] = [
    // INNER
    "SELECT ci.name, c.region FROM cities ci JOIN countries c ON ci.country = c.name",
    // LEFT, with unmatched rows: few countries have a city this large
    "SELECT c.name, ci.name FROM countries c LEFT JOIN cities ci \
     ON ci.country = c.name AND ci.population > 13000000",
    // RIGHT, likewise
    "SELECT ci.name, c.name FROM cities ci RIGHT JOIN countries c \
     ON ci.country = c.name AND ci.population > 13000000",
    // CROSS
    "SELECT c.name, m.title FROM countries c CROSS JOIN movies m",
    // A nested loop with a residual
    "SELECT c.name, ci.name FROM countries c JOIN cities ci ON ci.population * 10 > c.population",
    // NULL join keys on both sides
    "SELECT p.name, c.region FROM (SELECT name, CASE WHEN birth_year > 1970 THEN nationality END \
     AS land FROM people) p JOIN (SELECT name, region, CASE WHEN population > 20000000 THEN name \
     END AS land FROM countries) c ON p.land = c.land",
    // A NULL group
    "SELECT CASE WHEN population > 20000000 THEN region END AS big, COUNT(*), SUM(population) \
     FROM countries GROUP BY CASE WHEN population > 20000000 THEN region END",
    // A global aggregate over an empty relation
    "SELECT COUNT(*), SUM(population), MIN(name) FROM countries WHERE population < 0",
    // COUNT(DISTINCT ..)
    "SELECT COUNT(DISTINCT region), COUNT(region) FROM countries",
    // Groups over a join
    "SELECT c.region, COUNT(*), MAX(ci.population) FROM cities ci JOIN countries c \
     ON ci.country = c.name GROUP BY c.region",
    // Groups of text keys
    "SELECT genre, COUNT(*), AVG(rating) FROM movies GROUP BY genre",
];

/// The join whose probe scan (`cities`, pages of 3) fails at its third page.
const CUT: &str = "SELECT ci.name, c.region FROM cities ci JOIN countries c ON ci.country = c.name";

fn world() -> World {
    World::generate(WorldSpec::tiny()).unwrap()
}

/// The simulator, failing every request whose prompt `fails` names.
struct Model {
    sim: SimLlm,
    fails: fn(&str) -> bool,
}

impl LanguageModel for Model {
    fn name(&self) -> String {
        "streamed".to_string()
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse> {
        if (self.fails)(&request.prompt) {
            return Err(Error::llm("the model is down for this page"));
        }
        self.sim.complete(request)
    }

    fn fingerprint(&self) -> String {
        self.sim.fingerprint()
    }

    fn relation_cardinality(&self, table: &str) -> Option<u64> {
        self.sim.relation_cardinality(table)
    }
}

fn config(parallelism: usize) -> EngineConfig {
    EngineConfig::default()
        .with_mode(ExecutionMode::LlmOnly)
        .with_strategy(PromptStrategy::BatchedRows)
        .with_fidelity(LlmFidelity::perfect())
        .with_batch_size(3)
        .with_parallelism(parallelism)
        .with_partial_results()
}

fn engine(world: &World, config: EngineConfig, fails: fn(&str) -> bool) -> Engine {
    let sim = SimLlm::new(world.knowledge().unwrap(), LlmFidelity::perfect(), 42);
    let mut engine = Engine::with_catalog(world.catalog.deep_clone().unwrap(), config);
    engine
        .attach_model(Arc::new(Model { sim, fails }) as _)
        .unwrap();
    engine
}

fn never(_: &str) -> bool {
    false
}

fn third_cities_page(prompt: &str) -> bool {
    prompt.contains("\ntable: cities\n") && prompt.contains("\noffset: 6\n")
}

/// A run's rows and ledger.
fn run(engine: &Engine, sql: &str) -> (Vec<Row>, ExecMetrics) {
    let result = engine.execute(sql).unwrap();
    (result.rows().to_vec(), result.metrics)
}

/// `rows` in a canonical order, for a query without ORDER BY.
fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by_key(Row::to_pipe_string);
    rows
}

/// `sql` cold and warm on `shared` — its cache emptied first, so the cold
/// run asks the model — and on a fresh engine: the two cold runs and the
/// two warm runs are identical, rows and ledger; the four runs' rows are
/// one list. Returns the rows and the cold ledger.
fn cold_and_warm(
    world: &World,
    shared: &Engine,
    parallelism: usize,
    fails: fn(&str) -> bool,
    sql: &str,
) -> (Vec<Row>, ExecMetrics) {
    shared.client().unwrap().clear_cache();
    let cold = run(shared, sql);
    let warm = run(shared, sql);
    let fresh = engine(world, config(parallelism), fails);
    let fresh_cold = run(&fresh, sql);
    let fresh_warm = run(&fresh, sql);
    let at = format!("{sql} at parallelism {parallelism}");
    assert_eq!(cold, fresh_cold, "cold: {at}");
    assert_eq!(warm, fresh_warm, "warm: {at}");
    assert_eq!(cold.0, warm.0, "{at}");
    if warm.1.incomplete.is_none() {
        assert_eq!(warm.1.usage.cache_hits, warm.1.llm_calls(), "{at}");
    }
    cold
}

#[test]
fn an_operator_that_only_reads_its_input_returns_and_accounts_what_the_oracle_does() {
    let _paused = clock::pause();
    let world = world();
    let oracle = world.oracle_engine();
    let mut at_one: Vec<Vec<Row>> = Vec::new();
    for parallelism in [1, 16] {
        let shared = engine(&world, config(parallelism), never);
        for (i, sql) in QUERIES.into_iter().enumerate() {
            let (rows, metrics) = cold_and_warm(&world, &shared, parallelism, never, sql);
            let truth = oracle.execute(sql).unwrap();
            assert_eq!(sorted(rows.clone()), sorted(truth.rows().to_vec()), "{sql}");
            assert!(metrics.incomplete.is_none(), "{sql}");
            assert_eq!(metrics.rows_output, rows.len() as u64, "{sql}");
            // The same rows in the same order at any parallelism.
            match at_one.get(i) {
                Some(sequential) => assert_eq!(&rows, sequential, "{sql}"),
                None => at_one.push(rows),
            }
        }
    }
    // What each case is there for, it has.
    let has_null = |rows: &[Row], column: usize| rows.iter().any(|r| r.get(column).is_null());
    assert!(has_null(&at_one[1], 1), "LEFT JOIN pads an unmatched row");
    assert!(has_null(&at_one[2], 0), "RIGHT JOIN pads an unmatched row");
    assert!(has_null(&at_one[6], 0), "a NULL group");
    assert_eq!(
        at_one[7].len(),
        1,
        "a global aggregate over nothing is one row"
    );
    assert!(at_one[7][0].get(1).is_null(), "SUM over nothing");
    for (i, rows) in at_one.iter().enumerate() {
        assert!(!rows.is_empty(), "{}", QUERIES[i]);
    }
}

#[test]
fn a_probe_scan_cut_short_joins_the_prefix_it_delivered() {
    let _paused = clock::pause();
    let world = world();
    let full = run(&engine(&world, config(1), never), CUT).0;
    let mut cut_at_one = None;
    for parallelism in [1, 16] {
        let shared = engine(&world, config(parallelism), third_cities_page);
        // The shared engine has run another join over the same relations.
        run(&shared, QUERIES[9]);
        let (rows, metrics) = cold_and_warm(&world, &shared, parallelism, third_cities_page, CUT);
        // The two pages before the failed one: six cities, each in one
        // country, joined in page order — a prefix of the whole join.
        let cut = metrics.incomplete.as_ref().expect("the probe scan was cut");
        assert_eq!(cut.rows_delivered, 6, "at parallelism {parallelism}");
        assert_eq!(
            metrics.rows_from_llm,
            6 + 12,
            "at parallelism {parallelism}"
        );
        assert_eq!(rows.len(), 6, "at parallelism {parallelism}");
        assert_eq!(rows[..], full[..6], "at parallelism {parallelism}");
        match &cut_at_one {
            Some(sequential) => assert_eq!(&rows, sequential),
            None => cut_at_one = Some(rows),
        }
    }
}
