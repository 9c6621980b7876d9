//! End-to-end guarantees of the parallel scan pipeline: concurrent dispatch
//! must be faster than sequential dispatch when call latency dominates, while
//! producing identical rows and identical cost accounting — and `parallelism`
//! must mean nothing at all to the relational operators above a scan.

use std::time::Instant;

use llmsql_bench::parallel_scan_engine;
use llmsql_core::{Engine, QueryResult};
use llmsql_store::Catalog;
use llmsql_types::{EngineConfig, ExecutionMode, OptimizerOptions, Row, Value};

const SCAN_SQL: &str = "SELECT name, population FROM countries";

/// A 100-row batched scan (10 pages of 10) against a simulator with the
/// given per-call latency.
fn run_scan(parallelism: usize, latency_ms: f64) -> (QueryResult, f64) {
    let engine = parallel_scan_engine(100, parallelism, latency_ms).unwrap();
    let start = Instant::now();
    let result = engine.execute(SCAN_SQL).unwrap();
    (result, start.elapsed().as_secs_f64() * 1000.0)
}

#[test]
fn four_way_dispatch_doubles_scan_throughput() {
    // 10 pages x 40ms sequential = 400ms+. The relation's cardinality hint
    // says 10 pages, so the 4-way window opens full and the pages go out in
    // 3 rounds (4+4+2), i.e. ~120ms of latency, a theoretical 3.3x. The
    // latency is set high enough that per-query CPU overhead (significant in
    // debug builds on a single core) cannot mask the win. Wall-clock ratios
    // jitter on loaded CI runners, so the 2.5x expectation gets three
    // attempts; a hard 2x floor then still catches any real regression (a
    // window that opened at 1 and grew would take 4 rounds, 2.5x at best;
    // losing the overlap entirely would put the ratio near 1.0).
    let mut last = (0.0, 0.0);
    for _attempt in 0..3 {
        let (sequential, seq_ms) = run_scan(1, 40.0);
        let (parallel, par_ms) = run_scan(4, 40.0);
        assert_eq!(sequential.row_count(), 100);
        assert_eq!(sequential.rows(), parallel.rows(), "rows diverged");
        if seq_ms >= 2.5 * par_ms {
            return;
        }
        last = (seq_ms, par_ms);
        eprintln!("timing attempt below 2.5x ({seq_ms:.1}ms vs {par_ms:.1}ms)");
    }
    assert!(
        last.0 >= 2.0 * last.1,
        "4-way dispatch shows too little overlap: sequential {:.1}ms, parallel {:.1}ms",
        last.0,
        last.1
    );
}

#[test]
fn parallelism_does_not_inflate_cost_accounting() {
    let (sequential, _) = run_scan(1, 0.0);
    for parallelism in [4, 8] {
        let (parallel, _) = run_scan(parallelism, 0.0);
        assert_eq!(
            sequential.usage.calls, parallel.usage.calls,
            "call count changed at parallelism {parallelism}"
        );
        assert_eq!(sequential.usage.cache_hits, parallel.usage.cache_hits);
        assert_eq!(sequential.usage.prompt_tokens, parallel.usage.prompt_tokens);
        assert_eq!(
            sequential.usage.completion_tokens,
            parallel.usage.completion_tokens
        );
        // Cost totals sum identical per-call costs; only the accumulation
        // order differs across threads.
        assert!(
            (sequential.usage.cost_usd - parallel.usage.cost_usd).abs() < 1e-9,
            "cost diverged at parallelism {parallelism}"
        );
        assert_eq!(sequential.metrics.llm_calls(), parallel.metrics.llm_calls());
    }
}

#[test]
fn peak_in_flight_reflects_configured_fanout() {
    let (sequential, _) = run_scan(1, 0.0);
    assert_eq!(sequential.metrics.peak_in_flight, 1);
    let (parallel, _) = run_scan(4, 2.0);
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
