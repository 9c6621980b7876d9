//! The chaos suite: survive a seeded bad day without changing a single row.
//!
//! One deterministic fault schedule — a hard-down outage on `edge-a`, a 20×
//! latency storm on `edge-b`, an error burst on `edge-c` — is driven through
//! a 200-row scan over four backends at parallelism 8. The run asserts the
//! robustness invariants:
//!
//! 1. rows under chaos are byte-identical to the fault-free run,
//! 2. physical retry spend stays under `logical × backends × (1 + retries)`
//!    plus hedges,
//! 3. the same seed reproduces identical per-backend counters,
//! 4. every run's query is billed exactly what its deployment counted
//!    (checked as each run ends).
//!
//! Run with: `cargo run --release --example chaos_suite`

use llmsql_workload::{run_chaos_suite, CHAOS_ROWS};

fn main() {
    let seed = 2024;
    let outcome = run_chaos_suite(seed).expect("chaos suite must complete");

    let print = |label: &str, report: &llmsql_workload::ChaosReport| {
        println!(
            "{label:<14} {} rows, {} logical calls, {} attempts ({} errors, {} retries, {} hedges)",
            report.batch.rows.len(),
            report.logical_calls,
            report.attempts,
            report.errors,
            report.retries,
            report.hedges
        );
        for s in &report.backend_stats {
            println!(
                "  {:<8} {:>3} attempts, {:>3} errors, {:>3} retries, {:>2} short-circuits, {:>2} hedges",
                s.id, s.calls, s.errors, s.retries, s.short_circuits, s.hedges
            );
        }
    };

    println!("chaos suite @ seed {seed} ({CHAOS_ROWS}-row scan, 4 backends, parallelism 8)\n");
    print("no chaos", &outcome.baseline);
    println!();
    print("chaos (det 1)", &outcome.deterministic_first);
    println!();
    print("chaos (det 2)", &outcome.deterministic_second);
    println!();
    print("chaos+absorb", &outcome.absorbed);

    outcome.verify().expect("robustness invariants must hold");
    println!(
        "\nall invariants hold: rows byte-identical, {} attempts <= ceiling {}, \
         per-backend stats reproduce exactly, every query's bill is its deployment's",
        outcome.absorbed.attempts, outcome.attempt_ceiling
    );
}
