//! Demonstrates concurrent LLM dispatch: the same 100-row virtual-table scan
//! executed with 1, 4 and 8 model requests in flight at a time — one thread
//! holding the whole window, no worker pool — against a simulator that takes
//! 2ms per request like a real endpoint would.
//!
//! Run with: `cargo run --release --example parallel_scan`

use std::time::Instant;

use llmsql_bench::parallel_scan_engine;

fn main() {
    let sql = "SELECT name, population FROM countries";
    let mut baseline_rows = None;
    for parallelism in [1usize, 4, 8] {
        let engine = parallel_scan_engine(100, parallelism, 2.0).unwrap();
        let start = Instant::now();
        let result = engine.execute(sql).unwrap();
        let elapsed = start.elapsed();
        println!(
            "parallelism {parallelism}: {} rows in {:>7.1?}  ({} calls, peak {} in flight)",
            result.row_count(),
            elapsed,
            result.metrics.usage.calls,
            result.metrics.peak_in_flight,
        );
        match &baseline_rows {
            None => baseline_rows = Some(result.rows().to_vec()),
            Some(expected) => assert_eq!(expected.as_slice(), result.rows(), "rows diverged"),
        }
    }
    println!("identical rows at every parallelism ✓");
}
