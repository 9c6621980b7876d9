//! End-to-end guarantees of the cross-query scheduler (the ISSUE 3
//! acceptance scenario): concurrent scheduling changes *when* queries run,
//! never what they return or what they cost; the global slot pool bounds
//! in-flight requests across queries; and with a backend hard down, the
//! circuit breaker bounds wasted attempts by its threshold, not by query
//! count.

use llmsql_bench::{parallel_scan_engine, parallel_world, slow_outlier_engine};
use llmsql_core::Engine;
use llmsql_sched::{QueryOutcome, QueryScheduler, QueryTicket};
use llmsql_types::{
    EngineConfig, ErrorKind, ExecutionMode, Priority, PromptStrategy, RoutingPolicy, SchedConfig,
    Value,
};
use llmsql_workload::mixed_backend_config;

const ROWS: usize = 60;
const SLOTS: usize = 3;
const SCAN_SQL: &str = "SELECT name, population FROM countries";

/// 16 distinct queries spread over 3 tenants.
fn workload() -> Vec<(String, String)> {
    let regions = ["Europe", "Asia", "Africa", "Americas", "Oceania"];
    (0..16)
        .map(|i| {
            let tenant = format!("tenant-{}", i % 3);
            let sql = match i % 4 {
                0 => "SELECT name, population FROM countries".to_string(),
                1 => format!(
                    "SELECT name FROM countries WHERE region = '{}'",
                    regions[i % regions.len()]
                ),
                2 => format!(
                    "SELECT name, population FROM countries WHERE population > {}",
                    100_000 + 37_219 * (10 + i as i64)
                ),
                _ => format!("SELECT name FROM countries LIMIT {}", 5 + i),
            };
            (tenant, sql)
        })
        .collect()
}

/// The acceptance scenario: 16 concurrent queries over 3 tenants through one
/// scheduler produce byte-identical rows and per-query logical call counts
/// to the same queries run sequentially, and global in-flight never exceeds
/// the slot pool.
#[test]
fn concurrent_queries_match_sequential_and_respect_the_slot_pool() {
    let queries = workload();

    // Sequential baseline: a fresh identical engine, one query at a time.
    let baseline_engine = parallel_scan_engine(ROWS, 4, 1.0).unwrap();
    let baseline: Vec<(Vec<llmsql_types::Row>, u64)> = queries
        .iter()
        .map(|(_, sql)| {
            let r = baseline_engine.execute(sql).unwrap();
            (r.rows().to_vec(), r.metrics.llm_calls())
        })
        .collect();

    // The same queries through a scheduler: 4 query workers racing over 3
    // global call slots, each query itself 4-way parallel.
    let sched = QueryScheduler::new(
        parallel_scan_engine(ROWS, 4, 1.0).unwrap(),
        SchedConfig::default().with_workers(4).with_llm_slots(SLOTS),
    )
    .unwrap();
    let tickets: Vec<QueryTicket> = queries
        .iter()
        .map(|(tenant, sql)| {
            sched
                .submit(tenant.clone(), Priority::NORMAL, sql.clone())
                .unwrap()
        })
        .collect();
    let outcomes: Vec<QueryOutcome> = tickets.into_iter().map(QueryTicket::wait).collect();

    for (i, (outcome, (expected_rows, expected_calls))) in
        outcomes.iter().zip(&baseline).enumerate()
    {
        let result = outcome.result.as_ref().unwrap();
        assert_eq!(
            result.rows(),
            &expected_rows[..],
            "query {i} rows diverged under concurrent scheduling"
        );
        assert_eq!(
            result.metrics.llm_calls(),
            *expected_calls,
            "query {i} logical call count diverged"
        );
        assert_eq!(outcome.llm_calls, *expected_calls);
        assert_eq!(outcome.tenant, queries[i].0);
    }

    let stats = sched.stats();
    assert_eq!(stats.completed, 16);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.slot_capacity, SLOTS);
    assert!(
        stats.peak_slots_in_use <= SLOTS as u64,
        "global in-flight exceeded the slot pool: {stats:?}"
    );
    // 4 workers x parallelism 4 over 3 slots with per-call latency: the pool
    // must actually have been shared (overlap) and contended (waits).
    assert!(
        stats.peak_slots_in_use >= 2,
        "no cross-query overlap: {stats:?}"
    );
    assert!(
        stats.total_slot_wait_ms > 0.0,
        "16 parallel queries over 3 slots never contended: {stats:?}"
    );
    assert_eq!(stats.tenant_calls.len(), 3);
    assert_eq!(
        stats.tenant_calls.values().sum::<u64>(),
        baseline.iter().map(|(_, calls)| *calls).sum::<u64>()
    );
}

/// Circuit-breaker acceptance: one backend hard down across a 16-query
/// scheduled run. The breaker opens after its threshold and every later
/// request short-circuits, so total attempts on the dead backend are bounded
/// by the threshold (plus in-flight racers), not by query count — while rows
/// still match the healthy single-backend baseline.
#[test]
fn breaker_bounds_dead_backend_attempts_across_a_scheduled_run() {
    const THRESHOLD: usize = 3;
    let queries = workload();

    let baseline_engine = parallel_scan_engine(ROWS, 4, 0.0).unwrap();
    let expected: Vec<Vec<llmsql_types::Row>> = queries
        .iter()
        .map(|(_, sql)| baseline_engine.execute(sql).unwrap().rows().to_vec())
        .collect();

    let breaker_engine = || {
        let (catalog, sim) =
            parallel_world(ROWS, llmsql_types::LlmFidelity::perfect(), 0.0).unwrap();
        let base = EngineConfig::default()
            .with_mode(ExecutionMode::LlmOnly)
            .with_strategy(PromptStrategy::BatchedRows)
            .with_batch_size(10)
            .with_parallelism(4)
            .with_routing_policy(RoutingPolicy::RoundRobin)
            .with_circuit_breaker(THRESHOLD, 600_000.0);
        let mut config = mixed_backend_config(base, true);
        config.max_scan_rows = ROWS;
        config.enable_prompt_cache = false;
        let mut engine = Engine::with_catalog(catalog, config);
        engine
            .attach_model(std::sync::Arc::new(sim))
            .expect("canonical backend specs are valid");
        engine
    };

    let sched = QueryScheduler::new(
        breaker_engine(),
        SchedConfig::default().with_workers(4).with_llm_slots(SLOTS),
    )
    .unwrap();
    let tickets: Vec<QueryTicket> = queries
        .iter()
        .map(|(tenant, sql)| {
            sched
                .submit(tenant.clone(), Priority::NORMAL, sql.clone())
                .unwrap()
        })
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let outcome = ticket.wait();
        let result = outcome.result.unwrap();
        assert_eq!(
            result.rows(),
            &expected[i][..],
            "query {i} rows diverged with a hard-down backend + breaker"
        );
    }

    let stats = sched
        .engine()
        .client()
        .expect("model attached")
        .backend_stats()
        .expect("pooled deployment");
    let down = stats.iter().find(|s| s.id == "edge-a").unwrap();
    // Bounded by the threshold plus racers that were already past the
    // breaker check when it opened — never by the ~100+ prompts of the run.
    assert!(
        down.calls as usize <= THRESHOLD + SLOTS,
        "dead backend absorbed {} attempts; breaker should cap near {THRESHOLD}: {down:?}",
        down.calls
    );
    assert_eq!(down.calls, down.errors, "dead backend only errors");
    assert!(down.breaker_open, "breaker should still be open");
    assert!(
        down.short_circuits > 0,
        "later requests should have skipped the dead backend: {down:?}"
    );
    // The healthy members served everything.
    let healthy_calls: u64 = stats
        .iter()
        .filter(|s| s.id != "edge-a")
        .map(|s| s.calls)
        .sum();
    assert!(healthy_calls > down.calls);
}

/// Fair-share smoke test at the facade level: tenants with 4:1 weights and
/// identical backlogs complete calls in ~4:1 ratio over the shared prefix.
#[test]
fn weighted_fair_share_tracks_weights_end_to_end() {
    let sched = QueryScheduler::new(
        parallel_scan_engine(30, 1, 0.0).unwrap(),
        SchedConfig::default()
            .with_workers(1)
            .with_policy(llmsql_types::SchedPolicy::WeightedFair)
            .with_tenant_weight("heavy", 4)
            .with_tenant_weight("light", 1)
            .paused(),
    )
    .unwrap();
    let sql = "SELECT name FROM countries";
    let tickets: Vec<QueryTicket> = (0..10)
        .flat_map(|_| {
            [
                sched.submit("heavy", Priority::NORMAL, sql).unwrap(),
                sched.submit("light", Priority::NORMAL, sql).unwrap(),
            ]
        })
        .collect();
    sched.resume();
    let outcomes: Vec<QueryOutcome> = tickets.into_iter().map(QueryTicket::wait).collect();
    let in_prefix = |tenant: &str| {
        outcomes
            .iter()
            .filter(|o| o.tenant == tenant && o.finish_seq <= 10)
            .count()
    };
    let (heavy, light) = (in_prefix("heavy"), in_prefix("light"));
    assert_eq!(heavy + light, 10);
    assert_eq!(
        heavy, 8,
        "expected a 4:1 split of the first 10, got {heavy}:{light}"
    );
    // Every query still returned real rows.
    assert!(outcomes
        .iter()
        .all(|o| o.result.as_ref().unwrap().row_count() == 30));
}

/// The deadline acceptance scenario: a query whose deadline is shorter than
/// its queue wait resolves with `ErrorKind::DeadlineExceeded` and is never
/// executed, while deadline-free companions are untouched; and a deadline
/// that is not hit changes nothing about a query's rows or call counts.
#[test]
fn deadline_shorter_than_queue_wait_is_cancelled_never_executed() {
    let sched = QueryScheduler::new(
        parallel_scan_engine(ROWS, 4, 1.0).unwrap(),
        SchedConfig::default().with_workers(1).paused(),
    )
    .unwrap();
    let doomed = sched
        .submit_with_deadline("t", Priority::NORMAL, SCAN_SQL, 10.0)
        .unwrap();
    let companion = sched.submit("t", Priority::NORMAL, SCAN_SQL).unwrap();
    // Let the deadline lapse while both queries queue behind the pause.
    std::thread::sleep(std::time::Duration::from_millis(25));
    sched.resume();

    let outcome = doomed.wait();
    let err = outcome.result.unwrap_err();
    assert_eq!(err.kind, ErrorKind::DeadlineExceeded);
    assert!(err.message.contains("0 LLM calls issued"), "{err}");
    assert_eq!(outcome.llm_calls, 0, "a cancelled query must never execute");

    let companion_outcome = companion.wait();
    let companion_result = companion_outcome.result.unwrap();
    assert_eq!(companion_result.row_count(), ROWS);

    // A generous deadline is transparent: identical rows and call counts.
    let relaxed = sched
        .submit_with_deadline("t", Priority::NORMAL, SCAN_SQL, 60_000.0)
        .unwrap()
        .wait();
    let relaxed_result = relaxed.result.unwrap();
    assert_eq!(relaxed_result.rows(), companion_result.rows());
    assert_eq!(
        relaxed_result.metrics.llm_calls(),
        companion_result.metrics.llm_calls()
    );

    let stats = sched.stats();
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.completed, 3);
}

/// Scheduled queries against the slow-outlier deployment with hedging: the
/// scheduler's slot pool gates hedges (each hedge holds a slot, so the
/// global in-flight cap still holds) and every query's rows and logical
/// call counts stay byte-identical to the sequential baseline.
#[test]
fn scheduled_hedging_respects_slots_and_keeps_results() {
    let queries = workload();
    let baseline_engine = parallel_scan_engine(ROWS, 4, 0.0).unwrap();
    let baseline: Vec<(Vec<llmsql_types::Row>, u64)> = queries
        .iter()
        .map(|(_, sql)| {
            let r = baseline_engine.execute(sql).unwrap();
            (r.rows().to_vec(), r.metrics.llm_calls())
        })
        .collect();

    const HEDGE_SLOTS: usize = 8;
    let sched = QueryScheduler::new(
        slow_outlier_engine(ROWS, 4, RoutingPolicy::LatencyAware, true).unwrap(),
        SchedConfig::default()
            .with_workers(4)
            .with_llm_slots(HEDGE_SLOTS),
    )
    .unwrap();
    let tickets: Vec<QueryTicket> = queries
        .iter()
        .map(|(tenant, sql)| {
            sched
                .submit(tenant.clone(), Priority::NORMAL, sql.clone())
                .unwrap()
        })
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let outcome = ticket.wait();
        let result = outcome.result.unwrap();
        assert_eq!(
            result.rows(),
            &baseline[i].0[..],
            "query {i} rows diverged under scheduled hedging"
        );
        assert_eq!(
            result.metrics.llm_calls(),
            baseline[i].1,
            "query {i} logical call count diverged (hedges must be budget-free)"
        );
    }
    let stats = sched.stats();
    assert_eq!(stats.completed, 16);
    // Hedge permits come from the same slot pool, so the accounted global
    // in-flight cap holds even with hedges firing.
    assert!(
        stats.peak_slots_in_use <= HEDGE_SLOTS as u64,
        "hedges overflowed the slot pool: {stats:?}"
    );
}

/// The ISSUE 5 acceptance scenario: with `llm_slots = 64` and 4 scheduler
/// workers, a multi-tenant suite sustains ~64 concurrent in-flight simulated
/// calls — each worker thread parks on its wave's reactor instead of pinning
/// one thread per request — while every query's rows and logical call counts
/// stay byte-identical to an unscheduled run of the same engine.
#[test]
fn async_core_holds_64_in_flight_calls_on_4_worker_threads() {
    use llmsql_llm::{KnowledgeBase, SimLlm};
    use llmsql_store::Catalog;
    use llmsql_types::{Column, DataType, LlmFidelity, Row, SchedConfig, Schema};

    const TABLE_ROWS: usize = 64;
    let build_engine = |parallelism: usize| {
        let schema = Schema::virtual_table(
            "countries",
            vec![
                Column::new("name", DataType::Text).primary_key(),
                Column::new("population", DataType::Int),
            ],
        );
        let data: Vec<Row> = (0..TABLE_ROWS)
            .map(|i| {
                Row::new(vec![
                    llmsql_types::Value::Text(format!("Country {i:04}")),
                    llmsql_types::Value::Int(100_000 + 37 * i as i64),
                ])
            })
            .collect();
        let catalog = Catalog::new();
        catalog.create_virtual_table(schema.clone()).unwrap();
        let mut kb = KnowledgeBase::new();
        kb.add_table(schema, data);
        // Tuple-at-a-time: one enumerate, then one 64-lookup wave per query —
        // at parallelism 64 the whole wave is in flight at once.
        let mut config = EngineConfig::default()
            .with_mode(ExecutionMode::LlmOnly)
            .with_strategy(PromptStrategy::TupleAtATime)
            .with_parallelism(parallelism)
            .with_seed(7);
        config.max_scan_rows = TABLE_ROWS;
        config.enable_prompt_cache = false;
        let mut engine = Engine::with_catalog(catalog, config);
        let sim = SimLlm::new(kb.into_shared(), LlmFidelity::perfect(), 7)
            .with_simulated_latency_ms(12.0);
        engine.attach_model(std::sync::Arc::new(sim)).unwrap();
        engine
    };

    // Multi-tenant workload: 8 queries over 3 tenants, distinct filters.
    let queries: Vec<(String, String)> = (0..8)
        .map(|i| {
            (
                format!("tenant-{}", i % 3),
                format!(
                    "SELECT name, population FROM countries WHERE population > {}",
                    90_000 + i
                ),
            )
        })
        .collect();

    // Unscheduled baseline on an identical engine.
    let baseline_engine = build_engine(64);
    let baseline: Vec<(Vec<llmsql_types::Row>, u64)> = queries
        .iter()
        .map(|(_, sql)| {
            let r = baseline_engine.execute(sql).unwrap();
            (r.rows().to_vec(), r.metrics.llm_calls())
        })
        .collect();
    // Sequential sanity for one query: wave width never changes results.
    let seq = build_engine(1).execute(&queries[0].1).unwrap();
    assert_eq!(seq.rows(), &baseline[0].0[..]);
    assert_eq!(seq.metrics.llm_calls(), baseline[0].1);

    let sched = QueryScheduler::new(
        build_engine(64),
        SchedConfig::default()
            .with_workers(4)
            .with_llm_slots(64)
            .paused(),
    )
    .unwrap();
    let tickets: Vec<QueryTicket> = queries
        .iter()
        .map(|(tenant, sql)| {
            sched
                .submit(tenant.clone(), Priority::NORMAL, sql.clone())
                .unwrap()
        })
        .collect();
    sched.resume();
    let outcomes: Vec<QueryOutcome> = tickets.into_iter().map(QueryTicket::wait).collect();

    let mut peak_in_flight = 0;
    for (i, outcome) in outcomes.iter().enumerate() {
        let result = outcome.result.as_ref().unwrap();
        assert_eq!(
            result.rows(),
            &baseline[i].0[..],
            "query {i} rows diverged through the async core"
        );
        assert_eq!(
            result.metrics.llm_calls(),
            baseline[i].1,
            "query {i} logical call count diverged"
        );
        peak_in_flight = peak_in_flight.max(result.metrics.peak_in_flight);
    }
    let stats = sched.stats();
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.slot_capacity, 64);
    // The acceptance bar: the deployment actually sustained a large share of
    // the 64-slot capacity in flight at once (4 queries × 64-lookup waves
    // racing over 64 slots), held by 4 worker threads parked on reactors —
    // not by 64 blocked threads. `examples/async_dispatch.rs` (run in CI)
    // additionally asserts the OS thread count stays ≤ 8.
    assert!(
        stats.peak_slots_in_use >= 48,
        "expected ≥ 48 of 64 slots in flight at peak: {stats:?}"
    );
    assert!(
        peak_in_flight >= 48,
        "expected a query to hold ≥ 48 in-flight calls: {peak_in_flight}"
    );
}

/// The scheduler works for traditional (no-model) engines too — queue-time
/// and run-time accounting still apply even when no LLM slots are taken.
#[test]
fn traditional_queries_schedule_without_slots() {
    let engine = Engine::new(EngineConfig::default().with_mode(ExecutionMode::Traditional));
    engine
        .execute_script(
            "CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT); \
             INSERT INTO kv VALUES (1, 'one'), (2, 'two')",
        )
        .unwrap();
    let sched = QueryScheduler::new(engine, SchedConfig::default()).unwrap();
    let outcome = sched
        .submit("t", Priority::HIGH, "SELECT v FROM kv WHERE k = 2")
        .unwrap()
        .wait();
    let result = outcome.result.unwrap();
    assert_eq!(result.scalar(), Some(Value::Text("two".into())));
    assert_eq!(outcome.llm_calls, 0);
    assert_eq!(outcome.slot_wait_ms, 0.0);
    assert_eq!(outcome.priority, Priority::HIGH);
    assert_eq!(sched.stats().peak_slots_in_use, 0);
}
