//! Demonstrates multi-backend dispatch with failover: the same 100-row
//! virtual-table scan served through a pool of three deterministic
//! "remote-like" endpoints — one of them hard down — under every routing
//! policy. Rows and logical call counts never change; only which endpoint
//! does the work, what it costs and how long the scan takes do. Each
//! request takes a simulated 1 ms round trip, so the wall time printed per
//! policy shows what its routing costs a scan that keeps four requests in
//! flight. Under `LatencyAware` it asserts that the hard-down member is
//! tried once (`1 + backend_retries` attempts) and then sorts last.
//!
//! Run with: `cargo run --release --example multi_backend`

use llmsql_bench::{multi_backend_engine, parallel_scan_engine};
use llmsql_types::RoutingPolicy;

fn main() {
    let sql = "SELECT name, population FROM countries";
    let baseline = parallel_scan_engine(100, 4, 1.0)
        .unwrap()
        .execute(sql)
        .unwrap();
    println!(
        "single backend : {} rows, {} calls, ${:.4}, {:.1} ms wall",
        baseline.row_count(),
        baseline.metrics.usage.calls,
        baseline.metrics.usage.cost_usd,
        baseline.engine_ms
    );

    for policy in RoutingPolicy::ALL {
        let engine = multi_backend_engine(100, 4, 1.0, policy, true).unwrap();
        let result = engine.execute(sql).unwrap();
        assert_eq!(result.rows(), baseline.rows(), "rows diverged");
        assert_eq!(
            result.metrics.usage.calls, baseline.metrics.usage.calls,
            "calls diverged"
        );
        println!(
            "\n{policy} (edge-a is hard down): {} rows, {} logical calls, ${:.4}, {:.1} ms wall",
            result.row_count(),
            result.metrics.usage.calls,
            result.metrics.usage.cost_usd,
            result.engine_ms
        );
        for (backend, calls) in &result.metrics.backend_calls {
            println!(
                "  {backend:<8} {calls:>3} attempts, {} errors, {:.0} ms served",
                result.metrics.backend_errors.get(backend).unwrap_or(&0),
                result
                    .metrics
                    .backend_latency_ms
                    .get(backend)
                    .unwrap_or(&0.0),
            );
        }
        if policy == RoutingPolicy::LatencyAware {
            // Latency-aware routing counts failures: the hard-down member
            // gets one candidate's worth of attempts, then sorts last.
            let down = result.metrics.backend_calls.get("edge-a").copied();
            let budget = 1 + engine.config().backend_retries as u64;
            assert!(
                down.unwrap_or(0) <= budget,
                "{policy}: edge-a took {down:?} attempts, at most {budget} allowed"
            );
        }
    }
    println!("\nidentical rows and call counts under every policy ✓");
}
