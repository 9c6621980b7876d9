//! Tail-latency control end to end: latency-aware (EWMA) routing and hedged
//! requests against a deployment with one 10×-slow backend, then per-query
//! deadlines — engine-level enforcement between scan waves and
//! scheduler-level cancellation of queries whose deadline lapses in the
//! queue.
//!
//! Run with: `cargo run --release --example deadlines_and_hedging`

use llmsql::types::{ErrorKind, RoutingPolicy};
use llmsql::{Priority, SchedConfig};
use llmsql_bench::{parallel_scan_engine, slow_outlier_engine};
use llmsql_sched::QueryScheduler;

const ROWS: usize = 100;
const SCAN_SQL: &str = "SELECT name, population FROM countries";

fn main() {
    // ---- Hedged requests + EWMA routing --------------------------------
    // Baseline: one healthy backend, sequential scan.
    let baseline = parallel_scan_engine(ROWS, 1, 0.0)
        .expect("baseline scenario")
        .execute(SCAN_SQL)
        .expect("baseline scan");

    // Subject: three backends, one with 10× the latency of its siblings.
    // Latency-aware routing steers steady-state traffic to the fast
    // members, and hedging rescues the requests that discover the outlier:
    // once a request is late by 3× the pool's fastest EWMA, a duplicate
    // goes to a fast sibling and the first success wins.
    let engine =
        slow_outlier_engine(ROWS, 4, RoutingPolicy::LatencyAware, true).expect("outlier scenario");
    let hedged = engine.execute(SCAN_SQL).expect("hedged scan");
    assert_eq!(
        baseline.rows(),
        hedged.rows(),
        "hedging may only move latency"
    );
    assert_eq!(baseline.metrics.llm_calls(), hedged.metrics.llm_calls());

    println!("hedged scan over a slow-outlier pool ({ROWS} rows):");
    println!(
        "  rows {} | logical calls {} | hedges issued {} | hedges won {}",
        hedged.row_count(),
        hedged.metrics.llm_calls(),
        hedged.metrics.hedges_issued,
        hedged.metrics.hedges_won
    );
    for (id, calls) in &hedged.metrics.backend_calls {
        println!("  backend {id:<12} physical attempts {calls}");
    }

    // ---- Engine-level deadlines ----------------------------------------
    // A generous per-call deadline is transparent; rows and calls match.
    let relaxed = engine
        .execute_with_deadline(SCAN_SQL, 60_000.0)
        .expect("relaxed deadline");
    assert_eq!(relaxed.rows(), hedged.rows());
    println!("\n60s deadline: transparent ({} rows)", relaxed.row_count());

    // ---- Scheduler-level deadlines -------------------------------------
    // A paused scheduler builds a queue; the doomed query's 10ms deadline
    // lapses while it waits and it is cancelled without executing a single
    // LLM call, while its deadline-free companion runs normally.
    let sched = QueryScheduler::new(
        slow_outlier_engine(ROWS, 4, RoutingPolicy::LatencyAware, true).expect("outlier scenario"),
        SchedConfig::default().with_workers(1).paused(),
    )
    .expect("scheduler");
    let doomed = sched
        .submit_with_deadline("interactive", Priority::HIGH, SCAN_SQL, 10.0)
        .expect("admitted");
    let patient = sched
        .submit("analytics", Priority::NORMAL, SCAN_SQL)
        .expect("admitted");
    std::thread::sleep(std::time::Duration::from_millis(25));
    sched.resume();

    let doomed_outcome = doomed.wait();
    let err = doomed_outcome
        .result
        .expect_err("deadline must have lapsed");
    assert_eq!(err.kind, ErrorKind::DeadlineExceeded);
    assert_eq!(
        doomed_outcome.llm_calls, 0,
        "cancelled queries never execute"
    );
    println!("\nscheduler cancelled the 10ms-deadline query:\n  {err}");

    let patient_outcome = patient.wait();
    let patient_result = patient_outcome.result.expect("companion runs");
    println!(
        "companion query unaffected: {} rows after {:.1}ms queue + {:.1}ms run",
        patient_result.row_count(),
        patient_outcome.queue_ms,
        patient_outcome.run_ms
    );
    let stats = sched.stats();
    println!(
        "scheduler stats: completed {} | deadline_expired {} | deadline_rejected {}",
        stats.completed, stats.deadline_expired, stats.deadline_rejected
    );
}
