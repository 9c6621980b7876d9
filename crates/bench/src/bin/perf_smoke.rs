//! CI perf gate: a coarse (<60s) smoke benchmark of the throughput surfaces
//! the shared dispatch core owns — scan throughput, scheduler queries/sec,
//! cross-query dedup factor, batched-scan throughput and hedged tail
//! latency — written as `BENCH_<N>.json` at the repo root and compared
//! against the latest committed `BENCH_*.json`.
//!
//! The gate fails (exit 1) when either throughput metric regresses more
//! than [`REGRESSION_TOLERANCE`] against the most recent committed
//! baseline; with no prior baseline it just emits one. Latency metrics are
//! recorded for trend visibility but not gated (CI runner jitter makes
//! absolute-latency gates flappy; throughput over simulated latency is
//! stable because the work is timer-bound, not CPU-bound). The scan scenario
//! also reports its round-trip floor, its measured wall time per query and
//! their ratio, so the report says how far the gated number is from ideal.
//!
//! Run with: `cargo run --release --bin perf_smoke`

use std::time::Instant;

use llmsql_bench::{batched_tuple_scan_engine, parallel_scan_engine, slow_outlier_engine};
use llmsql_sched::{QueryScheduler, QueryTicket};
use llmsql_types::{Priority, RoutingPolicy, SchedConfig};

/// The index this run writes: `BENCH_15.json` (PR 15 replaced barrier waves
/// with the sliding dispatch window, which moved the scan and scheduler
/// numbers the gate defends).
const BENCH_INDEX: u32 = 15;

/// Fail CI when a throughput metric drops below this fraction of the
/// baseline (>25% regression).
const REGRESSION_TOLERANCE: f64 = 0.75;

/// The scan scenario: 200 rows in pages of 10 over a 5ms simulated round
/// trip at parallelism 16.
const SCAN_ROWS: usize = 200;
const SCAN_PAGE: usize = 10;
const SCAN_FANOUT: usize = 16;
const SCAN_RTT_MS: f64 = 5.0;

/// The scan scenario's floor: its pages cannot take fewer round trips than
/// the fanout allows (20 pages at 16-way = 2 round trips = 10 ms).
fn scan_ideal_ms() -> f64 {
    SCAN_ROWS.div_ceil(SCAN_PAGE).div_ceil(SCAN_FANOUT) as f64 * SCAN_RTT_MS
}

/// Scan throughput: the scan scenario, dispatched through the reactor's
/// sliding window. Returns (rows/sec, wall ms per query).
fn scan_throughput() -> (f64, f64) {
    // Warm once (build plan caches, fault in the world).
    parallel_scan_engine(SCAN_ROWS, SCAN_FANOUT, SCAN_RTT_MS)
        .execute("SELECT name, population FROM countries")
        .expect("warmup scan");
    let engine = parallel_scan_engine(SCAN_ROWS, SCAN_FANOUT, SCAN_RTT_MS);
    let started = Instant::now();
    const RUNS: usize = 5;
    let mut rows = 0usize;
    for _ in 0..RUNS {
        engine.client().expect("model attached").clear_cache();
        let result = engine
            .execute("SELECT name, population FROM countries")
            .expect("smoke scan");
        rows += result.row_count();
    }
    let elapsed = started.elapsed().as_secs_f64();
    (rows as f64 / elapsed, elapsed * 1000.0 / RUNS as f64)
}

/// Scheduler throughput: 40 queries over 3 tenants through 4 workers and 32
/// global slots, 2ms simulated round trips. Returns queries/sec.
fn scheduler_throughput() -> f64 {
    let sched = QueryScheduler::new(
        parallel_scan_engine(60, 8, 2.0),
        SchedConfig::default()
            .with_workers(4)
            .with_llm_slots(32)
            .paused(),
    )
    .expect("valid scheduler config");
    const QUERIES: usize = 40;
    let tickets: Vec<QueryTicket> = (0..QUERIES)
        .map(|i| {
            sched
                .submit(
                    format!("tenant-{}", i % 3),
                    Priority::NORMAL,
                    format!(
                        "SELECT name FROM countries WHERE population > {}",
                        100_000 + 37 * i
                    ),
                )
                .expect("within admission caps")
        })
        .collect();
    let started = Instant::now();
    sched.resume();
    for ticket in tickets {
        ticket.wait().result.expect("scheduled query succeeded");
    }
    QUERIES as f64 / started.elapsed().as_secs_f64()
}

/// Cross-query dedup: 8 identical queries released simultaneously on 8
/// workers, each on its own event loop, all sharing the scheduler's
/// coalescer. Every query is charged
/// its full logical call budget, but concurrent identical prompts collapse
/// into one physical request. Returns logical calls / physical calls — the
/// deployment-wide fan-in factor (≈ query count under perfect overlap, 1.0
/// with coalescing broken).
fn cross_query_dedup() -> f64 {
    let sched = QueryScheduler::new(
        parallel_scan_engine(64, 8, 4.0),
        SchedConfig::default()
            .with_workers(8)
            .with_llm_slots(64)
            .paused(),
    )
    .expect("valid scheduler config");
    const QUERIES: usize = 8;
    let tickets: Vec<QueryTicket> = (0..QUERIES)
        .map(|i| {
            sched
                .submit(
                    format!("tenant-{}", i % 2),
                    Priority::NORMAL,
                    "SELECT name, population FROM countries",
                )
                .expect("within admission caps")
        })
        .collect();
    sched.resume();
    let mut logical = 0u64;
    for ticket in tickets {
        let outcome = ticket.wait();
        outcome.result.expect("dedup query succeeded");
        logical += outcome.llm_calls;
    }
    let physical = sched
        .engine()
        .client()
        .expect("model attached")
        .usage()
        .calls;
    logical as f64 / physical.max(1) as f64
}

/// Batched-scan throughput: a 200-row tuple-at-a-time scan with 4 per-tuple
/// prompts packed per physical request over a 5ms simulated round trip at
/// parallelism 16. Returns rows/sec.
fn batched_scan_throughput() -> f64 {
    // Warm once (build plan caches, fault in the world).
    batched_tuple_scan_engine(200, 16, 4, 5.0)
        .expect("valid batched scan engine")
        .execute("SELECT name, population FROM countries")
        .expect("warmup batched scan");
    let engine = batched_tuple_scan_engine(200, 16, 4, 5.0).expect("valid batched scan engine");
    let started = Instant::now();
    const RUNS: usize = 5;
    let mut rows = 0usize;
    for _ in 0..RUNS {
        engine.client().expect("model attached").clear_cache();
        let result = engine
            .execute("SELECT name, population FROM countries")
            .expect("smoke batched scan");
        rows += result.row_count();
    }
    rows as f64 / started.elapsed().as_secs_f64()
}

/// Hedged tail latency: per-query wall times against the slow-outlier pool
/// (two fast backends, one 10×) with hedging on. Returns (p50_ms, p99_ms).
fn hedged_tail_latency() -> (f64, f64) {
    let engine = slow_outlier_engine(30, 4, RoutingPolicy::LatencyAware, true);
    let mut samples_ms: Vec<f64> = Vec::new();
    for i in 0..40 {
        engine.client().expect("model attached").clear_cache();
        let started = Instant::now();
        engine
            .execute(&format!(
                "SELECT name FROM countries WHERE population > {}",
                100_000 + 37 * i
            ))
            .expect("hedged query");
        samples_ms.push(started.elapsed().as_secs_f64() * 1000.0);
    }
    samples_ms.sort_by(f64::total_cmp);
    let pick = |q: f64| samples_ms[((samples_ms.len() - 1) as f64 * q) as usize];
    (pick(0.5), pick(0.99))
}

/// Extract `"key": <number>` from a flat JSON document (the files are our
/// own, written below — no nested objects, no string values with colons).
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The committed baseline: the highest-indexed `BENCH_<k>.json` at the repo
/// root with `k <= BENCH_INDEX`. Read *before* this run writes its own
/// report, so once `BENCH_<BENCH_INDEX>.json` is committed the gate compares
/// each fresh run against the committed copy rather than against itself.
fn previous_baseline(root: &std::path::Path) -> Option<(u32, String)> {
    let mut best: Option<(u32, String)> = None;
    for entry in std::fs::read_dir(root).ok()? {
        let entry = entry.ok()?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(index) = name
            .strip_prefix("BENCH_")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|n| n.parse::<u32>().ok())
        else {
            continue;
        };
        if index > BENCH_INDEX {
            continue;
        }
        if best.as_ref().is_none_or(|(b, _)| index > *b) {
            let doc = std::fs::read_to_string(entry.path()).ok()?;
            best = Some((index, doc));
        }
    }
    best
}

fn main() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels under the repo root")
        .to_path_buf();

    // Capture the committed baseline before writing this run's report —
    // otherwise a re-run of the current index would gate against itself.
    let committed_baseline = previous_baseline(&root);

    eprintln!("perf_smoke: scan throughput ...");
    let (scan_rows_per_sec, scan_measured_ms) = scan_throughput();
    let scan_ideal_ms = scan_ideal_ms();
    let scan_efficiency = scan_ideal_ms / scan_measured_ms;
    eprintln!("perf_smoke: scheduler throughput ...");
    let sched_queries_per_sec = scheduler_throughput();
    eprintln!("perf_smoke: cross-query dedup ...");
    let cross_query_dedup_factor = cross_query_dedup();
    eprintln!("perf_smoke: batched scan throughput ...");
    let batched_scan_rows_per_sec = batched_scan_throughput();
    eprintln!("perf_smoke: hedged tail latency ...");
    let (hedged_p50_ms, hedged_p99_ms) = hedged_tail_latency();

    let doc = format!(
        "{{\n  \"bench\": {BENCH_INDEX},\n  \"scan_rows_per_sec\": {scan_rows_per_sec:.1},\n  \
         \"scan_ideal_ms\": {scan_ideal_ms:.2},\n  \"scan_measured_ms\": {scan_measured_ms:.2},\n  \
         \"scan_efficiency\": {scan_efficiency:.3},\n  \
         \"sched_queries_per_sec\": {sched_queries_per_sec:.2},\n  \
         \"cross_query_dedup_factor\": {cross_query_dedup_factor:.2},\n  \
         \"batched_scan_rows_per_sec\": {batched_scan_rows_per_sec:.1},\n  \
         \"hedged_p50_ms\": {hedged_p50_ms:.2},\n  \"hedged_p99_ms\": {hedged_p99_ms:.2}\n}}\n"
    );
    let out = root.join(format!("BENCH_{BENCH_INDEX}.json"));
    std::fs::write(&out, &doc).expect("write bench report");
    println!("wrote {}:\n{doc}", out.display());

    let Some((prev_index, prev)) = committed_baseline else {
        println!("no previous BENCH_*.json baseline; emitted the first one");
        return;
    };
    let mut failed = false;
    for key in [
        "scan_rows_per_sec",
        "sched_queries_per_sec",
        "cross_query_dedup_factor",
        "batched_scan_rows_per_sec",
    ] {
        let Some(baseline) = json_number(&prev, key) else {
            println!("baseline BENCH_{prev_index}.json lacks {key}; skipping gate");
            continue;
        };
        let current = json_number(&doc, key).expect("just wrote it");
        let ratio = current / baseline;
        println!(
            "{key}: {current:.1} vs baseline {baseline:.1} (BENCH_{prev_index}) → {:.0}%",
            ratio * 100.0
        );
        if ratio < REGRESSION_TOLERANCE {
            eprintln!(
                "PERF GATE FAILED: {key} regressed {:.0}% (> {:.0}% allowed)",
                (1.0 - ratio) * 100.0,
                (1.0 - REGRESSION_TOLERANCE) * 100.0
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("perf gate passed");
}
