//! The event-driven dispatch core in one picture: 64 in-flight LLM calls
//! served by 4 scheduler worker threads.
//!
//! No in-flight request pins an OS thread: a worker *submits* its whole wave
//! through the poll-based `LanguageModel::submit` API and parks on the
//! reactor, so the process holds `llm_slots = 64` in-flight requests on
//! little more than its 4 worker threads — the example samples
//! `/proc/self/status` while the workload runs and prints peak OS threads
//! next to the peak in-flight gauge.
//!
//! Run with: `cargo run --release --example async_dispatch`

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use llmsql::types::{Column, DataType, Row, Schema, Value};
use llmsql::{Engine, EngineConfig, ExecutionMode, LlmFidelity, Priority, PromptStrategy};
use llmsql::{QueryOutcome, QueryScheduler, QueryTicket, SchedConfig};
use llmsql_llm::{KnowledgeBase, SimLlm};
use llmsql_store::Catalog;

const TABLE_ROWS: usize = 64;
const LLM_SLOTS: usize = 64;
const WORKERS: usize = 4;

/// A 64-entity virtual relation scanned tuple-at-a-time at parallelism 64:
/// each query is one enumerate followed by one 64-lookup wave, all of it in
/// flight at once on the submitting worker's reactor.
fn subject_engine() -> Engine {
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
                Value::Text(format!("Country {i:04}")),
                Value::Int(100_000 + 37 * i as i64),
            ])
        })
        .collect();
    let catalog = Catalog::new();
    catalog
        .create_virtual_table(schema.clone())
        .expect("fresh catalog");
    let mut kb = KnowledgeBase::new();
    kb.add_table(schema, data);
    let mut config = EngineConfig::default()
        .with_mode(ExecutionMode::LlmOnly)
        .with_strategy(PromptStrategy::TupleAtATime)
        .with_parallelism(LLM_SLOTS)
        .with_seed(7);
    config.max_scan_rows = TABLE_ROWS;
    config.enable_prompt_cache = false; // every query pays its real wave
    let mut engine = Engine::with_catalog(catalog, config);
    // 20ms simulated round trips — represented as reactor timers, never as
    // sleeping threads.
    let sim =
        SimLlm::new(kb.into_shared(), LlmFidelity::perfect(), 7).with_simulated_latency_ms(20.0);
    engine.attach_model(Arc::new(sim)).expect("no backend list");
    engine
}

/// Current OS thread count of this process (Linux; `None` elsewhere).
fn os_threads() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

fn main() {
    let sched = QueryScheduler::new(
        subject_engine(),
        SchedConfig::default()
            .with_workers(WORKERS)
            .with_llm_slots(LLM_SLOTS)
            .paused(), // build the backlog first so all workers start together
    )
    .expect("valid scheduler config");

    // Sample the process's thread count while the workload runs.
    let stop = Arc::new(AtomicBool::new(false));
    let peak_threads = Arc::new(AtomicU64::new(0));
    let sampler = {
        let stop = Arc::clone(&stop);
        let peak_threads = Arc::clone(&peak_threads);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if let Some(threads) = os_threads() {
                    peak_threads.fetch_max(threads, Ordering::Relaxed);
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        })
    };

    let tickets: Vec<QueryTicket> = (0..8)
        .map(|i| {
            sched
                .submit(
                    format!("tenant-{}", i % 2),
                    Priority::NORMAL,
                    format!(
                        "SELECT name, population FROM countries WHERE population > {}",
                        90_000 + i
                    ),
                )
                .expect("within admission caps")
        })
        .collect();
    println!(
        "8 queries × (1 enumerate + {TABLE_ROWS} lookups) over {WORKERS} workers, \
         {LLM_SLOTS} global call slots, 20ms simulated round trips\n"
    );
    let started = std::time::Instant::now();
    sched.resume();
    let outcomes: Vec<QueryOutcome> = tickets.into_iter().map(QueryTicket::wait).collect();
    let elapsed = started.elapsed();
    stop.store(true, Ordering::Relaxed);
    sampler.join().expect("sampler joins");

    let mut peak_in_flight = 0;
    let mut total_calls = 0;
    for outcome in &outcomes {
        let result = outcome.result.as_ref().expect("query succeeded");
        assert_eq!(result.row_count(), TABLE_ROWS);
        peak_in_flight = peak_in_flight.max(result.metrics.peak_in_flight);
        total_calls += outcome.llm_calls;
    }
    let stats = sched.stats();

    println!("wall time               : {elapsed:?} ({total_calls} calls of 20ms each)");
    println!("peak in-flight (1 query): {peak_in_flight}  (ExecMetrics::peak_in_flight)");
    println!(
        "peak slots in use       : {}/{}  (global, all queries)",
        stats.peak_slots_in_use, stats.slot_capacity
    );
    match peak_threads.load(Ordering::Relaxed) {
        0 => println!("peak OS threads         : n/a (no /proc on this platform)"),
        peak => {
            println!(
                "peak OS threads         : {peak}  (main + sampler + {WORKERS} workers; \
                 no thread per in-flight call)"
            );
            // The acceptance bar: 64 in-flight calls on ~8 threads; a thread
            // per in-flight call would peak near 64+.
            assert!(
                peak <= 8,
                "event-driven dispatch should not spawn per-call threads (saw {peak})"
            );
        }
    }
    assert!(
        peak_in_flight >= 48,
        "expected a near-full wave in flight, saw {peak_in_flight}"
    );
    assert!(
        stats.peak_slots_in_use >= 48,
        "expected ≥ 48/64 global slots at peak: {stats:?}"
    );
    println!("\n64 in-flight calls, no per-call threads ✓");
}
