//! Prints the virtual-latency scenarios (`llmsql_workload::virtual_latency`)
//! on a paused clock, or sweeps the `tail_faulty` replica over seeds.
//!
//! Run with: `cargo run --release -p llmsql-workload --bin virtual_latency`
//! — and add `-- --seeds 100` for the sweep: the replica's virtual p90 per
//! seed, once on the benchmark's chaos plan with the query order dealt by
//! the seed, once with the plan dealt by the seed too, each as a count per
//! p90 value.

use std::collections::BTreeMap;

use llmsql_workload::virtual_latency::{golden_report, tail_faulty, TAIL_FAULTY_SEED};

fn main() -> llmsql_types::Result<()> {
    let args: Vec<String> = std::env::args().collect();
    let seeds = match args.iter().position(|a| a == "--seeds") {
        Some(i) => args.get(i + 1).and_then(|n| n.parse::<u64>().ok()),
        None => None,
    };
    let Some(seeds) = seeds else {
        print!("{}", golden_report()?.render());
        return Ok(());
    };
    for (label, plan_seed) in [
        ("plan 42, order by seed", Some(TAIL_FAULTY_SEED)),
        ("plan and order by seed", None),
    ] {
        // p90 in µs (exact on a paused clock) → seeds that read it.
        let mut modes: BTreeMap<u64, u64> = BTreeMap::new();
        for seed in 0..seeds {
            let run = tail_faulty(plan_seed.unwrap_or(seed), seed)?;
            *modes
                .entry((run.percentile(0.9) * 1000.0).round() as u64)
                .or_default() += 1;
        }
        println!("tail_faulty virtual p90 over {seeds} seeds ({label}):");
        for (p90_us, count) in modes {
            println!("  {:>8.3} ms  {count}", p90_us as f64 / 1000.0);
        }
    }
    Ok(())
}
