//! Prints the per-query counts (`llmsql_workload::counters`) on a paused
//! clock, or runs the `cached_analytics` replica's warm passes alone.
//!
//! Run with: `cargo run --release -p llmsql-workload --bin counters` — and
//! add `-- --warm-passes N` to run the replica's warm-up and then `N` warm
//! passes, printing only the queries those passes ran (what
//! `scripts/allocations.sh` runs under the allocation counter).

use llmsql_workload::counters::{golden_report, replica_warm_passes};

fn main() -> llmsql_types::Result<()> {
    let args: Vec<String> = std::env::args().collect();
    let passes = match args.iter().position(|a| a == "--warm-passes") {
        Some(i) => args.get(i + 1).and_then(|n| n.parse::<usize>().ok()),
        None => None,
    };
    match passes {
        Some(passes) => println!("queries {}", replica_warm_passes(passes)?),
        None => print!("{}", golden_report()?.render()),
    }
    Ok(())
}
