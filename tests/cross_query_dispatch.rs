//! Acceptance scenarios for what concurrent queries share — the call-slot
//! pool and the deployment's prompt coalescer — and for tuple batching, under
//! the determinism contract: rows and per-query logical call counts are
//! byte-identical whatever the batch size and however many queries run
//! alongside.

use llmsql_bench::batched_tuple_scan_engine;
use llmsql_sched::{QueryScheduler, QueryTicket};
use llmsql_types::{Priority, SchedConfig};

const SCAN_SQL: &str = "SELECT name, population FROM countries";

// ---------------------------------------------------------------------------
// Determinism: batching never changes answers
// ---------------------------------------------------------------------------

#[test]
fn batch_size_never_changes_rows_or_logical_calls() {
    // The unbatched engine is the reference; every batch size must produce
    // byte-identical rows and the same logical call count — batching only
    // changes how many physical requests carry them.
    let reference = batched_tuple_scan_engine(40, 8, 1, 0.5)
        .expect("valid batched scan engine")
        .execute(SCAN_SQL)
        .unwrap();
    assert_eq!(reference.row_count(), 40);
    for batch in [1, 3, 16] {
        let engine =
            batched_tuple_scan_engine(40, 8, batch, 0.5).expect("valid batched scan engine");
        let result = engine.execute(SCAN_SQL).unwrap();
        assert_eq!(result.rows(), reference.rows(), "batch {batch}");
        assert_eq!(
            result.metrics.llm_calls(),
            reference.metrics.llm_calls(),
            "batch {batch}"
        );
        if batch > 1 {
            assert!(
                result.metrics.batched_rows > 0,
                "batch {batch} never packed a request"
            );
            assert!(
                engine.client().unwrap().usage().calls < reference.metrics.llm_calls(),
                "batch {batch} issued as many physical calls as unbatched"
            );
        }
    }
}

#[test]
fn inline_and_parked_waves_agree_with_the_sequential_run() {
    // The reference is the sequential run: parallelism 1, unbatched, zero
    // latency, so every wave is one prompt resolved inline. Wide batched
    // waves — resolved inline at zero latency, parked on timers otherwise —
    // return the same rows for the same logical calls.
    let sequential = batched_tuple_scan_engine(30, 1, 1, 0.0)
        .expect("valid batched scan engine")
        .execute(SCAN_SQL)
        .unwrap();
    for latency_ms in [0.0, 0.5] {
        let wide = batched_tuple_scan_engine(30, 4, 3, latency_ms)
            .expect("valid batched scan engine")
            .execute(SCAN_SQL)
            .unwrap();
        assert_eq!(sequential.rows(), wide.rows(), "{latency_ms}ms");
        assert_eq!(
            sequential.metrics.llm_calls(),
            wide.metrics.llm_calls(),
            "{latency_ms}ms"
        );
    }
}

// ---------------------------------------------------------------------------
// Acceptance: 8 concurrent queries, 64-prompt working set, batch 4
// ---------------------------------------------------------------------------

#[test]
fn concurrent_identical_queries_coalesce_below_0_3x_physical() {
    // Baseline: one query, unbatched, no coalescer — the physical cost one
    // client pays alone. 8 such queries would pay 8× that.
    let solo = batched_tuple_scan_engine(64, 8, 1, 4.0).expect("valid batched scan engine");
    let baseline = solo.execute(SCAN_SQL).unwrap();
    let baseline_calls = solo.client().unwrap().usage().calls;
    assert!(baseline_calls >= 64, "64 tuples need at least 64 lookups");
    let unshared_total = 8 * baseline_calls;

    // Subject: the same 64-prompt working set, 8 identical queries released
    // simultaneously on one scheduler — one coalescer for all of them, and
    // 4 tuples packed per physical request.
    let sched = QueryScheduler::new(
        batched_tuple_scan_engine(64, 8, 4, 4.0).expect("valid batched scan engine"),
        SchedConfig::default()
            .with_workers(8)
            .with_llm_slots(64)
            .paused(),
    )
    .unwrap();
    let tickets: Vec<QueryTicket> = (0..8)
        .map(|i| {
            sched
                .submit(format!("tenant-{}", i % 2), Priority::NORMAL, SCAN_SQL)
                .unwrap()
        })
        .collect();
    sched.resume();
    for ticket in tickets {
        let outcome = ticket.wait();
        let result = outcome.result.unwrap();
        // Every query sees the full, byte-identical answer and is charged
        // its full logical budget regardless of who issued the physical
        // request that served it.
        assert_eq!(result.rows(), baseline.rows());
        assert_eq!(outcome.llm_calls, baseline.metrics.llm_calls());
    }

    let physical = sched.engine().client().unwrap().usage().calls;
    assert!(
        (physical as f64) <= 0.3 * unshared_total as f64,
        "physical calls {physical} not ≤ 0.3 × unshared baseline {unshared_total}"
    );

    let stats = sched.stats();
    assert!(stats.coalesced_calls > 0, "no cross-query coalescing fired");
    assert!(stats.batched_rows > 0, "no tuple batching fired");
}

// ---------------------------------------------------------------------------
// Draining: a query that ends with requests in flight leaves nothing behind
// ---------------------------------------------------------------------------

#[test]
fn queries_that_end_with_requests_in_flight_drain_the_deployment() {
    use llmsql_bench::parallel_scan_engine;
    use llmsql_types::ErrorKind;
    // 200 rows in pages of 10 at fanout 8 over 20 ms round trips; two
    // queries share the scheduler's slot pool and coalescer. The
    // filter keeps 25 rows, so that scan ends on its third page while pages
    // its window speculated past the end are still in flight (the planner
    // expected 66 rows, 7 pages). The full scan needs three round trips and
    // has 30 ms: its deadline fires with a window of requests parked. Each
    // must give back what its own requests held — and nothing else.
    const FILTERED: &str = "SELECT name, population FROM countries WHERE population < 1030475";
    let sequential = parallel_scan_engine(200, 1, 0.0).execute(FILTERED).unwrap();
    assert_eq!(sequential.row_count(), 25);
    assert_eq!(sequential.metrics.llm_calls(), 3);

    let sched = QueryScheduler::new(
        parallel_scan_engine(200, 8, 20.0),
        SchedConfig::default()
            .with_workers(2)
            .with_llm_slots(32)
            .paused(),
    )
    .unwrap();
    let filtered = sched.submit("a", Priority::NORMAL, FILTERED).unwrap();
    let doomed = sched
        .submit_with_deadline("b", Priority::NORMAL, SCAN_SQL, 30.0)
        .unwrap();
    sched.resume();

    let outcome = filtered.wait();
    assert_eq!(outcome.result.unwrap().rows(), sequential.rows());
    // Two full pages served from a first window of 7: min(8, 7 + 2) − 1
    // calls past the sequential run's 3, and exactly that many.
    assert_eq!(outcome.llm_calls, 3 + 7);
    let err = doomed.wait().result.unwrap_err();
    assert_eq!(err.kind, ErrorKind::DeadlineExceeded);

    let engine = sched.engine();
    assert_eq!(engine.call_slots().unwrap().in_use(), 0, "call slots");
    assert_eq!(engine.prompt_coalescer().unwrap().in_flight(), 0);
}

#[test]
fn a_leader_cancelled_on_another_thread_hands_its_flights_to_the_follower() {
    use llmsql_bench::parallel_scan_engine;
    use llmsql_types::ErrorKind;
    use std::time::{Duration, Instant};
    // Two identical 20-page scans on two workers over 60 ms round trips.
    // The first has 40 ms: it puts its first window of 8 pages in flight,
    // leads all 8, and its deadline fires before any can answer. The second
    // is submitted once those 8 flights are claimed, so it follows them —
    // and when the first query's drop abandons them, on another thread, the
    // second must notice, re-claim each and finish the scan on its own.
    let sequential = parallel_scan_engine(200, 1, 0.0).execute(SCAN_SQL).unwrap();
    assert_eq!(sequential.row_count(), 200);

    let sched = QueryScheduler::new(
        parallel_scan_engine(200, 8, 60.0),
        SchedConfig::default().with_workers(2).with_llm_slots(32),
    )
    .unwrap();
    let doomed = sched
        .submit_with_deadline("a", Priority::NORMAL, SCAN_SQL, 40.0)
        .unwrap();
    let coalescer = sched.engine().prompt_coalescer().unwrap();
    let submitted = Instant::now();
    while coalescer.in_flight() < 8 {
        assert!(
            submitted.elapsed() < Duration::from_millis(40),
            "the first window was never seen in flight"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
    let survivor = sched.submit("b", Priority::NORMAL, SCAN_SQL).unwrap();

    let err = doomed.wait().result.unwrap_err();
    assert_eq!(err.kind, ErrorKind::DeadlineExceeded);
    let outcome = survivor.wait();
    assert_eq!(outcome.result.unwrap().rows(), sequential.rows());
    assert_eq!(outcome.llm_calls, sequential.metrics.llm_calls());
    // The first query published nothing, so every flight the second joined
    // as a follower it had to re-claim to get an answer at all.
    let stats = coalescer.stats();
    assert!(
        stats.followers_served > 0,
        "the second query never followed"
    );
    assert!(stats.leaders > 20, "no abandoned flight was re-claimed");

    let engine = sched.engine();
    assert_eq!(engine.call_slots().unwrap().in_use(), 0, "call slots");
    assert_eq!(coalescer.in_flight(), 0, "coalescer entries");
}
