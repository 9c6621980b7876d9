//! Acceptance scenarios for the fault-robustness layer: the seeded chaos
//! harness (faults never change answers, retry spend stays bounded, the
//! same seed reproduces the same per-backend counters), admission-time
//! overload shedding with structured retry-after rejections, and
//! partial-result graceful degradation.

use llmsql_bench::parallel_scan_engine;
use llmsql_core::Engine;
use llmsql_llm::KnowledgeBase;
use llmsql_sched::{QueryScheduler, QueryTicket};
use llmsql_store::Catalog;
use llmsql_types::{
    BackendSpec, ChaosFault, ChaosPlan, Column, DataType, EngineConfig, ErrorKind, ExecutionMode,
    LlmFidelity, Priority, PromptStrategy, RoutingPolicy, Row, SchedConfig, Schema,
    TenantRateLimit, Value,
};
use llmsql_workload::run_chaos_suite;

const SCAN_SQL: &str = "SELECT name, population FROM countries";

// ---------------------------------------------------------------------------
// Chaos harness
// ---------------------------------------------------------------------------

#[test]
fn chaos_suite_invariants_hold_end_to_end() {
    // The canonical scenario: 200-row scan at parallelism 8 over 4 backends,
    // one seeded plan scheduling a hard-down outage + 20x latency storm +
    // error burst.
    let outcome = run_chaos_suite(7).unwrap();
    outcome.verify().unwrap();

    // Rows are byte-identical to the no-chaos run while faults were really
    // injected and absorbed.
    assert_eq!(outcome.absorbed.batch.rows, outcome.baseline.batch.rows);
    assert!(outcome.deterministic_first.errors > 0, "no faults fired");
    assert!(outcome.absorbed.attempts <= outcome.attempt_ceiling);
    // Same seed, fresh engine: identical per-backend accounting.
    assert_eq!(
        outcome.deterministic_first.backend_stats,
        outcome.deterministic_second.backend_stats
    );
    // A different seed shuffles the fault schedule (the harness is seeded,
    // not hard-coded) — but the rows still never change.
    let other = run_chaos_suite(8).unwrap();
    other.verify().unwrap();
    assert_eq!(other.baseline.batch.rows.len(), 200);
}

// ---------------------------------------------------------------------------
// Overload shedding at admission
// ---------------------------------------------------------------------------

#[test]
fn overload_flood_sheds_low_priority_with_exact_counters() {
    // Flood past llm_slots with mixed-priority tenants: 2 slots, queries at
    // parallelism 4. Paused admission builds the backlog deterministically.
    let sched = QueryScheduler::new(
        parallel_scan_engine(60, 4, 2.0).unwrap(),
        SchedConfig::default()
            .with_workers(2)
            .with_llm_slots(2)
            .with_shed_queue_watermark(4)
            .with_tenant_rate_limit("bulk", TenantRateLimit::queries(1.0, 2.0))
            .paused(),
    )
    .unwrap();

    // The metered bulk tenant bursts 2 admissions, then is throttled.
    let mut admitted: Vec<QueryTicket> = Vec::new();
    let mut throttled = 0u64;
    for _ in 0..4 {
        match sched.submit("bulk", Priority::LOW, SCAN_SQL) {
            Ok(ticket) => admitted.push(ticket),
            Err(err) => {
                assert!(err.is_overloaded(), "{err}");
                assert!(err.retry_after_ms().unwrap() > 0);
                throttled += 1;
            }
        }
    }
    assert_eq!(throttled, 2, "burst 2 at 1 qps");

    // Fill past the shed watermark with normal-priority tenants.
    for i in 0..4 {
        admitted.push(
            sched
                .submit(format!("tenant-{i}"), Priority::NORMAL, SCAN_SQL)
                .unwrap(),
        );
    }
    // Low-priority submissions are now shed — with the structured shape.
    let mut shed = 0u64;
    for _ in 0..3 {
        let err = sched.submit("louder", Priority::LOW, SCAN_SQL).unwrap_err();
        assert!(err.is_overloaded(), "{err}");
        assert!(err.retry_after_ms().unwrap() > 0);
        assert!(err.message.contains("shed at admission"), "{err}");
        shed += 1;
    }
    // High-priority work with a deadline still gets in past the watermark.
    let vip = sched
        .submit_with_deadline("vip", Priority::HIGH, SCAN_SQL, 60_000.0)
        .unwrap();

    sched.resume();
    let vip_outcome = vip.wait();
    assert!(
        vip_outcome.result.is_ok(),
        "admitted high-priority query must complete within its deadline: {:?}",
        vip_outcome.result.err()
    );
    assert!(vip_outcome.queue_ms + vip_outcome.run_ms < 60_000.0);
    for ticket in admitted {
        assert!(ticket.wait().result.is_ok());
    }

    // Shed/throttle counters match the rejections handed out exactly.
    let stats = sched.stats();
    assert_eq!(stats.throttled, throttled);
    assert_eq!(stats.shed, shed);
    assert_eq!(stats.rejected, throttled + shed);
    assert_eq!(stats.deadline_expired, 0);
    assert_eq!(stats.completed, stats.submitted);
}

// ---------------------------------------------------------------------------
// Partial-result graceful degradation
// ---------------------------------------------------------------------------

fn countries_world(rows: usize) -> (Catalog, KnowledgeBase) {
    let schema = Schema::virtual_table(
        "countries",
        vec![
            Column::new("name", DataType::Text).primary_key(),
            Column::new("population", DataType::Int),
        ],
    );
    let data: Vec<Row> = (0..rows)
        .map(|i| {
            Row::new(vec![
                Value::Text(format!("Country {i:03}")),
                Value::Int(1_000 + i as i64),
            ])
        })
        .collect();
    let catalog = Catalog::new();
    catalog.create_virtual_table(schema.clone()).unwrap();
    let mut kb = KnowledgeBase::new();
    kb.add_table(schema, data);
    (catalog, kb)
}

fn chaos_config() -> EngineConfig {
    let mut config = EngineConfig::default()
        .with_mode(ExecutionMode::LlmOnly)
        .with_strategy(PromptStrategy::BatchedRows)
        .with_fidelity(LlmFidelity::perfect())
        .with_batch_size(10)
        .with_seed(3)
        .with_parallelism(2)
        .with_routing_policy(RoutingPolicy::PromptHash)
        .with_backends(vec![BackendSpec::new("edge-a"), BackendSpec::new("edge-b")]);
    config.enable_prompt_cache = false;
    config.backend_backoff_ms = 0.0;
    config
}

#[test]
fn total_backend_loss_degrades_to_a_partial_result() {
    // Every backend is down for the whole horizon: with partial results on,
    // the query degrades to an empty page-aligned prefix with a structured
    // marker instead of failing — under every prompt strategy, the one-shot
    // full-query included.
    let blackout = ChaosPlan::new(5, 1_000)
        .with_window("edge-a", ChaosFault::Outage, 0, 1_000)
        .with_window("edge-b", ChaosFault::Outage, 0, 1_000);

    let (catalog, kb) = countries_world(30);
    for strategy in PromptStrategy::ALL {
        let config = chaos_config()
            .with_strategy(strategy)
            .with_chaos(blackout.clone());
        let mut strict = Engine::with_catalog(catalog.deep_clone().unwrap(), config.clone());
        strict.attach_simulator(kb.clone().into_shared()).unwrap();
        let err = strict.execute(SCAN_SQL).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Llm, "{strategy:?}: {err}");

        let graceful_config = config.with_partial_results();
        let mut graceful = Engine::with_catalog(catalog.deep_clone().unwrap(), graceful_config);
        graceful.attach_simulator(kb.clone().into_shared()).unwrap();
        let result = graceful.execute(SCAN_SQL).unwrap();
        assert!(result.is_partial(), "{strategy:?}");
        assert_eq!(result.row_count(), 0, "{strategy:?}: no prompt completed");
        let marker = result.incomplete().unwrap();
        assert_eq!(marker.kind, ErrorKind::Llm, "{strategy:?}");
        assert_eq!(marker.rows_delivered, 0, "{strategy:?}");
    }
}

#[test]
fn lapsed_deadline_yields_a_deterministic_page_aligned_prefix() {
    // A deadline that lapses immediately cuts the scan before the first
    // wave: zero rows, zero calls, marker names the deadline — and the
    // outcome is identical run over run (deterministic page boundary). A
    // full-query's one prompt is not issued either.
    let (catalog, kb) = countries_world(30);
    for strategy in PromptStrategy::ALL {
        let config = chaos_config()
            .with_strategy(strategy)
            .with_partial_results();
        let mut engine = Engine::with_catalog(catalog.deep_clone().unwrap(), config);
        engine.attach_simulator(kb.clone().into_shared()).unwrap();
        for _ in 0..2 {
            let result = engine.execute_with_deadline(SCAN_SQL, 0.000_001).unwrap();
            assert!(result.is_partial(), "{strategy:?}");
            assert_eq!(result.row_count(), 0, "{strategy:?}");
            let marker = result.incomplete().unwrap();
            assert_eq!(marker.kind, ErrorKind::DeadlineExceeded, "{strategy:?}");
            assert_eq!(marker.rows_delivered, 0, "{strategy:?}");
            assert_eq!(marker.calls_spent, 0, "{strategy:?}");
        }
        assert_eq!(engine.client().unwrap().usage().calls, 0, "{strategy:?}");
    }
}

#[test]
fn partial_results_change_nothing_on_a_healthy_run() {
    // Opting in must be free: a run that never hits a fault returns the
    // complete answer with no marker, byte-identical to the strict engine.
    let (catalog, kb) = countries_world(30);
    let mut strict = Engine::with_catalog(catalog.deep_clone().unwrap(), chaos_config());
    strict.attach_simulator(kb.clone().into_shared()).unwrap();
    let baseline = strict.execute(SCAN_SQL).unwrap();

    let mut graceful = Engine::with_catalog(catalog, chaos_config().with_partial_results());
    graceful.attach_simulator(kb.into_shared()).unwrap();
    let result = graceful.execute(SCAN_SQL).unwrap();
    assert!(!result.is_partial());
    assert!(result.incomplete().is_none());
    assert_eq!(result.rows(), baseline.rows());
    assert_eq!(result.metrics.llm_calls(), baseline.metrics.llm_calls());
}

// ---------------------------------------------------------------------------
// Cross-query coalescing under chaos
// ---------------------------------------------------------------------------

#[test]
fn coalescing_stays_deterministic_through_an_error_burst() {
    // Shared-dispatch deployment under fire: an error burst takes every
    // edge-a attempt down for the whole horizon while 4 identical queries
    // run concurrently on one scheduler — cross-query coalescer, retries
    // absorbing the burst. A coalesced leader's failure
    // must abandon the in-flight entry (followers re-claim and retry), so
    // rows and per-query logical call counts stay byte-identical to the
    // fault-free single-query baseline.
    let (catalog, kb) = countries_world(40);
    let mut baseline_engine = Engine::with_catalog(catalog.deep_clone().unwrap(), chaos_config());
    baseline_engine
        .attach_simulator(kb.clone().into_shared())
        .unwrap();
    let baseline = baseline_engine.execute(SCAN_SQL).unwrap();

    let burst = ChaosPlan::new(13, 1_000).with_window(
        "edge-a",
        ChaosFault::ErrorBurst { error_rate: 1.0 },
        0,
        1_000,
    );
    let chaos_specs = vec![
        BackendSpec::new("edge-a").with_latency_ms(2.0),
        BackendSpec::new("edge-b").with_latency_ms(2.0),
    ];
    let mut engine = Engine::with_catalog(
        catalog,
        chaos_config().with_backends(chaos_specs).with_chaos(burst),
    );
    engine.attach_simulator(kb.into_shared()).unwrap();
    let sched = QueryScheduler::new(
        engine,
        SchedConfig::default()
            .with_workers(4)
            .with_llm_slots(16)
            .paused(),
    )
    .unwrap();
    let tickets: Vec<QueryTicket> = (0..4)
        .map(|_| {
            sched
                .submit("tenant-a", Priority::NORMAL, SCAN_SQL)
                .unwrap()
        })
        .collect();
    sched.resume();
    for ticket in tickets {
        let outcome = ticket.wait();
        let result = outcome.result.expect("burst must be absorbed by retries");
        assert_eq!(result.rows(), baseline.rows());
        assert_eq!(outcome.llm_calls, baseline.metrics.llm_calls());
    }
    assert!(
        sched.stats().coalesced_calls > 0,
        "identical concurrent queries never coalesced during the burst"
    );
}

#[test]
fn partial_scan_under_mid_horizon_outage_keeps_a_row_prefix() {
    // Only some pages fall in the outage window (virtual time is per-prompt):
    // the graceful engine keeps the completed pages as an exact prefix and
    // reports the calls spent when the first page failed.
    let outage = ChaosPlan::new(11, 1_000)
        .with_window("edge-a", ChaosFault::Outage, 0, 1_000)
        .with_window("edge-b", ChaosFault::Outage, 0, 600);

    let (catalog, kb) = countries_world(40);
    let mut config = chaos_config().with_chaos(outage).with_partial_results();
    // Sequential dispatch: pages are attempted strictly in order, so the
    // first failing page determines the prefix deterministically.
    config.parallelism = 1;
    let mut engine = Engine::with_catalog(catalog, config);
    engine.attach_simulator(kb.into_shared()).unwrap();
    let first = engine.execute(SCAN_SQL).unwrap();
    let second = engine.execute(SCAN_SQL).unwrap();
    // Deterministic: the same plan cuts at the same page boundary.
    assert_eq!(first.rows(), second.rows());
    assert_eq!(first.row_count() % 10, 0, "prefix must be page-aligned");
    if let Some(marker) = first.incomplete() {
        assert_eq!(marker.rows_delivered as usize, first.row_count());
        assert!(marker.calls_spent > 0);
    }
}
