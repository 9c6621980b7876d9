//! End-to-end guarantees of the parallel scan pipeline: concurrent dispatch
//! must be faster than sequential dispatch when call latency dominates, while
//! producing identical rows and identical cost accounting — and `parallelism`
//! must mean nothing at all to the relational operators above a scan.

use llmsql_bench::parallel_scan_engine;
use llmsql_core::{Engine, QueryResult};
use llmsql_store::Catalog;
use llmsql_types::{clock, EngineConfig, ExecutionMode, OptimizerOptions, Row, Value};

const SCAN_SQL: &str = "SELECT name, population FROM countries";

/// A 100-row batched scan (10 pages of 10) against a simulator with the
/// given per-call latency.
fn run_scan(parallelism: usize, latency_ms: f64) -> QueryResult {
    let engine = parallel_scan_engine(100, parallelism, latency_ms).unwrap();
    engine.execute(SCAN_SQL).unwrap()
}

#[test]
fn four_way_dispatch_doubles_scan_throughput() {
    // On the paused clock a query's engine time is exactly its round trips:
    // 10 pages x 40ms one at a time, and at 4-way — the relation's
    // cardinality hint says 10 pages, so the window opens full — 3 rounds
    // (4 + 4 + 2), a 3.3x speed-up. A window that opened at 1 and grew
    // would take 4 rounds; losing the overlap would take 10.
    let _paused = clock::pause();
    let sequential = run_scan(1, 40.0);
    let parallel = run_scan(4, 40.0);
    assert_eq!(sequential.row_count(), 100);
    assert_eq!(sequential.rows(), parallel.rows(), "rows diverged");
    let micros = |ms: f64| (ms * 1000.0).round() as u64;
    assert_eq!(micros(sequential.engine_ms), 400_000);
    assert_eq!(micros(parallel.engine_ms), 120_000);
}

#[test]
fn parallelism_does_not_inflate_cost_accounting() {
    let sequential = run_scan(1, 0.0);
    for parallelism in [4, 8] {
        let parallel = run_scan(parallelism, 0.0);
        assert_eq!(
            sequential.metrics.usage.calls, parallel.metrics.usage.calls,
            "call count changed at parallelism {parallelism}"
        );
        assert_eq!(
            sequential.metrics.usage.cache_hits,
            parallel.metrics.usage.cache_hits
        );
        assert_eq!(
            sequential.metrics.usage.prompt_tokens,
            parallel.metrics.usage.prompt_tokens
        );
        assert_eq!(
            sequential.metrics.usage.completion_tokens,
            parallel.metrics.usage.completion_tokens
        );
        // Cost totals sum identical per-call costs; only the accumulation
        // order differs across threads.
        assert!(
            (sequential.metrics.usage.cost_usd - parallel.metrics.usage.cost_usd).abs() < 1e-9,
            "cost diverged at parallelism {parallelism}"
        );
        assert_eq!(sequential.metrics.llm_calls(), parallel.metrics.llm_calls());
    }
}

#[test]
fn peak_in_flight_reflects_configured_fanout() {
    let sequential = run_scan(1, 0.0);
    assert_eq!(sequential.metrics.peak_in_flight, 1);
    let parallel = run_scan(4, 2.0);
    assert!(
        parallel.metrics.peak_in_flight > 1,
        "expected concurrent requests in flight, saw peak {}",
        parallel.metrics.peak_in_flight
    );
    assert!(parallel.metrics.peak_in_flight <= 4);
}

/// Two stored relations, both larger than any operator input elsewhere in
/// the suite, with duplicate and NULL join keys: `f(id, k, v)` has 320 rows
/// and `d(id, k, v)` 300, `v = id`, and `k = id % 20` (`% 30` in `d`) except
/// that the largest remainder is stored as NULL — so `f` has keys 0..=18
/// with 16 rows each plus 16 NULL keys, and `d` has keys 0..=28 with 10 rows
/// each plus 10 NULL keys.
fn two_large_tables() -> Catalog {
    let engine = Engine::new(EngineConfig::default().with_mode(ExecutionMode::Traditional));
    for (table, rows, modulus) in [("f", 320, 20), ("d", 300, 30)] {
        let values: Vec<String> = (0..rows)
            .map(|id| match id % modulus {
                k if k == modulus - 1 => format!("({id}, NULL, {id})"),
                k => format!("({id}, {k}, {id})"),
            })
            .collect();
        let create = format!("CREATE TABLE {table} (id INTEGER PRIMARY KEY, k INTEGER, v INTEGER)");
        let insert = format!("INSERT INTO {table} VALUES {}", values.join(", "));
        engine
            .execute_script(&format!("{create}; {insert};"))
            .unwrap();
    }
    engine.catalog().clone()
}

#[test]
fn operators_over_large_inputs_ignore_parallelism() {
    const FILTER_PROJECT: &str = "SELECT id, v * 2 + 1 AS x FROM f WHERE k <> 3";
    const INNER: &str = "SELECT f.id, d.id FROM f JOIN d ON f.k = d.k AND d.v < 10";
    const LEFT: &str = "SELECT f.id, d.id FROM f LEFT JOIN d ON f.k = d.k AND d.v < 10";
    const RIGHT: &str = "SELECT f.id, d.id FROM f RIGHT JOIN d ON f.k = d.k";
    const NON_EQUI: &str = "SELECT f.id, d.id FROM f JOIN d ON f.v + 280 < d.v";
    let catalog = two_large_tables();
    let run = |optimizer: OptimizerOptions, parallelism: usize, sql: &str| {
        let mut config = EngineConfig::default()
            .with_mode(ExecutionMode::Traditional)
            .with_parallelism(parallelism);
        config.optimizer = optimizer;
        let result = Engine::with_catalog(catalog.clone(), config).execute(sql);
        result.unwrap().rows().to_vec()
    };
    // With the optimizer off no condition moves into a scan, so `Filter` and
    // `Join` see both relations whole; with it on, whatever it pushes down
    // must not change a row either.
    let check = |sql: &str, expected_rows: usize, null_col: usize, expected_nulls: usize| {
        for optimizer in [OptimizerOptions::disabled(), OptimizerOptions::default()] {
            let sequential = run(optimizer, 1, sql);
            let nulls = sequential.iter().filter(|r| r.get(null_col).is_null());
            assert_eq!(
                (sequential.len(), nulls.count()),
                (expected_rows, expected_nulls),
                "{sql}"
            );
            for parallelism in [4, 16] {
                let rows = run(optimizer, parallelism, sql);
                assert_eq!(rows, sequential, "parallelism {parallelism}: {sql}");
            }
        }
    };
    // NULL keys (16 rows) and key 3 (16 rows) go.
    check(FILTER_PROJECT, 288, 1, 0);
    // INNER equi-join with a residual: `d` rows 0..=9 carry keys 0..=9, one
    // each, and every key has 16 `f` rows. LEFT pads the other 160 of `f`.
    check(INNER, 160, 1, 0);
    check(LEFT, 320, 1, 160);
    // RIGHT: 19 shared keys x 10 x 16 = 3040 matches; the 100 `d` rows with
    // keys 19..=28 and the 10 with NULL keys are padded.
    check(RIGHT, 3150, 0, 110);
    // No equi-key, so a nested loop: `d` row j matches the `f` rows below
    // j - 280, which makes 1 + 2 + .. + 19 pairs.
    check(NON_EQUI, 190, 0, 0);
    // The projection is evaluated, not just counted: id 3 has key 3.
    let rows = run(OptimizerOptions::default(), 16, FILTER_PROJECT);
    assert_eq!(rows[3], Row::new(vec![Value::Int(4), Value::Int(9)]));
}
