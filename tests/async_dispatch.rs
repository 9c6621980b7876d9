//! End-to-end guarantees of the event-driven dispatch core: one parked
//! thread holds a whole wave, and neither the wave width nor the model's
//! latency changes what a query returns or what it costs; deadlines fire
//! while calls are parked.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use llmsql_bench::{parallel_scan_engine, parallel_world};
use llmsql_core::Engine;
use llmsql_exec::CallSlots;
use llmsql_llm::{
    CallHandle, CompletionRequest, CompletionResponse, KnowledgeBase, LanguageModel, SimLlm,
};
use llmsql_sched::QueryScheduler;
use llmsql_store::Catalog;
use llmsql_types::{
    clock, BackendSpec, Column, DataType, EngineConfig, Error, ErrorKind, ExecutionMode,
    LlmFidelity, Priority, PromptStrategy, Result, Row, SchedConfig, Schema, Value,
};

const SCAN_SQL: &str = "SELECT name, population FROM countries";

/// A `countries` engine with `rows` entities served tuple-at-a-time (one
/// enumerate + one lookup per row, so `parallelism` bounds one big wave) by
/// an async-capable simulator with `latency_ms` simulated round trips.
fn lookup_engine(rows: usize, parallelism: usize, latency_ms: f64) -> Engine {
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
                Value::Text(format!("Country {i:04}")),
                Value::Int(100_000 + 37 * i as i64),
            ])
        })
        .collect();
    let catalog = Catalog::new();
    catalog.create_virtual_table(schema.clone()).unwrap();
    let mut kb = KnowledgeBase::new();
    kb.add_table(schema, data);
    let mut config = EngineConfig::default()
        .with_mode(ExecutionMode::LlmOnly)
        .with_strategy(PromptStrategy::TupleAtATime)
        .with_parallelism(parallelism)
        .with_seed(7);
    config.max_scan_rows = rows;
    config.enable_prompt_cache = false;
    let mut engine = Engine::with_catalog(catalog, config);
    let sim = SimLlm::new(kb.into_shared(), LlmFidelity::perfect(), 7)
        .with_simulated_latency_ms(latency_ms);
    engine.attach_model(std::sync::Arc::new(sim)).unwrap();
    engine
}

/// Wide waves parked on timers return the rows and logical call count of the
/// sequential reference: parallelism 1 over a zero-latency model, where every
/// wave is one prompt that resolves inline.
#[test]
fn reactor_waves_match_sequential_waves_byte_for_byte() {
    let sequential = parallel_scan_engine(60, 1, 0.0)
        .unwrap()
        .execute(SCAN_SQL)
        .unwrap();
    assert_eq!(sequential.metrics.peak_in_flight, 1);

    for latency_ms in [0.0, 2.0] {
        let wide = parallel_scan_engine(60, 4, latency_ms)
            .unwrap()
            .execute(SCAN_SQL)
            .unwrap();
        assert_eq!(
            sequential.rows(),
            wide.rows(),
            "wave width changed the rows at {latency_ms}ms"
        );
        assert_eq!(
            sequential.metrics.llm_calls(),
            wide.metrics.llm_calls(),
            "wave width changed the logical call count at {latency_ms}ms"
        );
        assert!(wide.metrics.peak_in_flight >= 2, "waves never overlapped");
    }
}

/// One thread really does hold a whole wave: a 48-lookup wave of 30ms calls
/// drains in one round trip through the reactor, not 48.
#[test]
fn one_wave_of_in_flight_calls_overlaps_on_the_callers_thread() {
    let _paused = clock::pause();
    let engine = lookup_engine(48, 48, 30.0);
    let started = clock::now();
    let result = engine.execute(SCAN_SQL).unwrap();
    assert_eq!(result.row_count(), 48);
    // 1 enumerate + 48 lookups at 30ms each: sequential would be 1.47s; the
    // reactor takes 2 round trips (enumerate, then the lookup wave).
    assert_eq!(clock::now() - started, Duration::from_millis(60));
    assert_eq!(result.metrics.llm_calls(), 49);
    assert!(
        result.metrics.peak_in_flight >= 48,
        "expected the whole wave in flight at once: {:?}",
        result.metrics
    );
}

/// A deadline that expires while calls are parked in the reactor aborts the
/// wave mid-flight (cancellation by drop), with the structured error and
/// partial accounting — it does not wait for the stragglers.
#[test]
fn deadline_fires_while_calls_are_parked_in_the_reactor() {
    let _paused = clock::pause();
    let engine = lookup_engine(32, 32, 200.0);
    let started = clock::now();
    // Enumerate (200ms) fits; the 32-lookup wave (ready at 400ms) does not:
    // the deadline fires at 250ms with every lookup parked.
    let err = engine.execute_with_deadline(SCAN_SQL, 250.0).unwrap_err();
    assert_eq!(clock::now() - started, Duration::from_millis(250));
    assert_eq!(err.kind, ErrorKind::DeadlineExceeded);
    assert!(
        err.message
            .ends_with("250ms deadline after 250.0ms with 33 LLM call(s) issued"),
        "{err}"
    );

    // An unhit deadline on the same deployment changes nothing.
    let baseline = lookup_engine(32, 32, 5.0).execute(SCAN_SQL).unwrap();
    let relaxed = lookup_engine(32, 32, 5.0)
        .execute_with_deadline(SCAN_SQL, 60_000.0)
        .unwrap();
    assert_eq!(baseline.rows(), relaxed.rows());
    assert_eq!(baseline.metrics.llm_calls(), relaxed.metrics.llm_calls());
}

/// Single-prompt waves park like any other, so the deadline fires while
/// their one call is in flight: a parallelism-1 scan and a one-shot
/// full-query prompt over a 50ms model both give up at their 10ms deadline
/// instead of blocking for the whole round trip first.
#[test]
fn deadlines_fire_mid_flight_on_single_prompt_waves_and_full_query() {
    let full_query_engine = {
        let (catalog, sim) = parallel_world(60, LlmFidelity::perfect(), 50.0).unwrap();
        let mut config = EngineConfig::default()
            .with_mode(ExecutionMode::LlmOnly)
            .with_strategy(PromptStrategy::FullQuery);
        config.enable_prompt_cache = false;
        let mut engine = Engine::with_catalog(catalog, config);
        engine.attach_model(Arc::new(sim)).unwrap();
        engine
    };
    let _paused = clock::pause();
    for (label, engine) in [
        (
            "parallelism-1 scan",
            parallel_scan_engine(60, 1, 50.0).unwrap(),
        ),
        ("full query", full_query_engine),
    ] {
        let started = clock::now();
        let err = engine.execute_with_deadline(SCAN_SQL, 10.0).unwrap_err();
        assert_eq!(clock::now() - started, Duration::from_millis(10), "{label}");
        assert_eq!(err.kind, ErrorKind::DeadlineExceeded, "{label}: {err}");
        assert!(
            err.message
                .ends_with("10ms deadline after 10.0ms with 1 LLM call(s) issued"),
            "{label}: {err}"
        );
    }
}

/// A deadline further off than an `Instant` can hold is no deadline at all:
/// given directly, engine-wide or through the scheduler, it returns the rows
/// and logical calls of a run without one.
#[test]
fn a_deadline_past_the_representable_range_is_no_deadline() {
    let engine = || parallel_scan_engine(40, 4, 0.0).unwrap();
    let baseline = engine().execute(SCAN_SQL).unwrap();
    for deadline_ms in [1e22, 1e300] {
        let direct = engine().execute_with_deadline(SCAN_SQL, deadline_ms);
        let mut configured = engine();
        configured.config_mut().deadline_ms = Some(deadline_ms);
        let configured = configured.execute(SCAN_SQL);
        let sched = QueryScheduler::new(engine(), SchedConfig::default()).unwrap();
        let scheduled = sched
            .submit_with_deadline("t", Priority::NORMAL, SCAN_SQL, deadline_ms)
            .unwrap()
            .wait()
            .result;
        for (how, result) in [
            ("direct", direct),
            ("configured", configured),
            ("scheduled", scheduled),
        ] {
            let result = result.unwrap_or_else(|e| panic!("{how} at {deadline_ms}: {e}"));
            assert_eq!(result.rows(), baseline.rows(), "{how} at {deadline_ms}");
            assert_eq!(
                result.metrics.llm_calls(),
                baseline.metrics.llm_calls(),
                "{how} at {deadline_ms}"
            );
        }
    }
}

/// A model that relays to the simulator until it is broken, then fails every
/// request — an LLM error no retry or failover can absorb.
struct Breakable {
    sim: SimLlm,
    broken: AtomicBool,
}

impl LanguageModel for Breakable {
    fn name(&self) -> String {
        self.sim.name()
    }
    fn fingerprint(&self) -> String {
        self.sim.fingerprint()
    }
    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse> {
        self.submit(request).wait()
    }
    fn submit(&self, request: &CompletionRequest) -> CallHandle {
        // ordering: Relaxed — test switch flipped between queries, on the
        // thread that then submits (or hands off through a channel).
        if self.broken.load(Ordering::Relaxed) {
            CallHandle::ready(Err(Error::llm("the model is down")))
        } else {
            self.sim.submit(request)
        }
    }
    fn relation_cardinality(&self, table: &str) -> Option<u64> {
        self.sim.relation_cardinality(table)
    }
}

/// Physical resources drain to zero on the single dispatch path however a
/// query ends — completed, cancelled at its deadline with calls parked, or
/// failed by an LLM error — whether it ran directly or under the scheduler:
/// no coalescer entry, call slot or per-backend in-flight gauge is left held.
#[test]
fn resources_drain_after_completed_cancelled_and_failed_queries() {
    let build = || {
        let (catalog, sim) = parallel_world(40, LlmFidelity::perfect(), 40.0).unwrap();
        let mut config = EngineConfig::default()
            .with_mode(ExecutionMode::LlmOnly)
            .with_strategy(PromptStrategy::BatchedRows)
            .with_batch_size(10)
            .with_parallelism(4)
            .with_backends(vec![BackendSpec::new("a"), BackendSpec::new("b")]);
        config.backend_backoff_ms = 0.0;
        config.max_scan_rows = 40;
        config.enable_prompt_cache = false;
        let model = Arc::new(Breakable {
            sim,
            broken: AtomicBool::new(false),
        });
        let mut engine = Engine::with_catalog(catalog, config);
        engine
            .attach_model(Arc::clone(&model) as Arc<dyn LanguageModel>)
            .unwrap();
        (engine, model)
    };
    let assert_drained = |engine: &Engine, when: &str| {
        assert_eq!(
            engine.client().unwrap().table().unwrap().in_flight(),
            0,
            "coalescer entry left behind after a {when} query"
        );
        assert_eq!(
            engine.call_slots().unwrap().in_use(),
            0,
            "call slot left held after a {when} query"
        );
        let stats = engine.client().unwrap().backend_stats().unwrap();
        assert!(
            stats.iter().all(|s| s.in_flight == 0),
            "backend gauge left raised after a {when} query: {stats:?}"
        );
    };

    // Direct: the engine drives its own waves.
    let (mut engine, model) = build();
    engine.set_call_slots(Arc::new(CallSlots::new(4)));
    assert_eq!(engine.execute(SCAN_SQL).unwrap().row_count(), 40);
    assert_drained(&engine, "completed direct");
    let err = engine.execute_with_deadline(SCAN_SQL, 10.0).unwrap_err();
    assert_eq!(err.kind, ErrorKind::DeadlineExceeded, "{err}");
    assert_drained(&engine, "deadline-cancelled direct");
    // ordering: Relaxed — see Breakable::submit.
    model.broken.store(true, Ordering::Relaxed);
    let err = engine.execute(SCAN_SQL).unwrap_err();
    assert_eq!(err.kind, ErrorKind::Llm, "{err}");
    assert_drained(&engine, "failed direct");

    // Scheduled: two workers over one slot pool and one coalescer.
    let (engine, model) = build();
    let sched = QueryScheduler::new(
        engine,
        SchedConfig::default().with_workers(2).with_llm_slots(4),
    )
    .unwrap();
    let run = |deadline_ms: Option<f64>| {
        let ticket = match deadline_ms {
            Some(ms) => sched.submit_with_deadline("t", Priority::NORMAL, SCAN_SQL, ms),
            None => sched.submit("t", Priority::NORMAL, SCAN_SQL),
        };
        ticket.unwrap().wait().result
    };
    assert_eq!(run(None).unwrap().row_count(), 40);
    assert_drained(sched.engine(), "completed scheduled");
    let err = run(Some(15.0)).unwrap_err();
    assert_eq!(err.kind, ErrorKind::DeadlineExceeded, "{err}");
    assert!(err.message.contains("LLM call(s) issued"), "{err}");
    assert_drained(sched.engine(), "deadline-cancelled scheduled");
    // ordering: Relaxed — see Breakable::submit.
    model.broken.store(true, Ordering::Relaxed);
    let err = run(None).unwrap_err();
    assert_eq!(err.kind, ErrorKind::Llm, "{err}");
    assert_drained(sched.engine(), "failed scheduled");
}

/// Parallelism invariance holds through the reactor path: any wave width
/// yields the sequential run's rows and call counts, even with fidelity
/// noise dropping lines.
#[test]
fn reactor_scans_are_parallelism_invariant_under_noise() {
    let build = |parallelism: usize| {
        let (catalog, sim) = llmsql_bench::parallel_world(50, LlmFidelity::medium(), 1.0).unwrap();
        let mut config = EngineConfig::default()
            .with_mode(ExecutionMode::LlmOnly)
            .with_strategy(PromptStrategy::BatchedRows)
            .with_batch_size(10)
            .with_parallelism(parallelism);
        config.max_scan_rows = 50;
        config.enable_prompt_cache = false;
        let mut engine = Engine::with_catalog(catalog, config);
        engine.attach_model(std::sync::Arc::new(sim)).unwrap();
        engine
    };
    let baseline = build(1).execute(SCAN_SQL).unwrap();
    for parallelism in [2, 4, 8] {
        let result = build(parallelism).execute(SCAN_SQL).unwrap();
        assert_eq!(
            baseline.rows(),
            result.rows(),
            "reactor rows diverged at parallelism {parallelism}"
        );
        assert_eq!(
            baseline.metrics.llm_calls(),
            result.metrics.llm_calls(),
            "reactor call count diverged at parallelism {parallelism}"
        );
    }
}
