//! Parallel-dispatch bench: wall-time of a 100-row batched LLM scan at
//! 1/4/8-way dispatch, plus prompt-cache contention under concurrent
//! readers.
//!
//! The simulator sleeps a few milliseconds per request (stand-in for the
//! network round trip of a real endpoint), so the win from overlapping
//! requests is visible in wall-clock time even on a single-core machine:
//! the relation's cardinality hint opens the dispatch window full, so 4-way
//! dispatch of the scan's 10 pages takes 3 rounds (4+4+2) and 8-way 2 (8+2)
//! instead of 10 sequential calls — 3.3x and 5x at best. The prompt cache is
//! disabled so every iteration pays the full call pattern; result rows and
//! call counts are identical at every parallelism level.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use llmsql_bench::parallel_scan_engine;
use llmsql_core::Engine;
use llmsql_llm::{CompletionResponse, PromptCache};

const SCAN_SQL: &str = "SELECT name, population FROM countries";
const LATENCY_MS: f64 = 2.0;

fn scan_engine(parallelism: usize) -> Engine {
    parallel_scan_engine(100, parallelism, LATENCY_MS)
}

fn bench_parallel_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_scan_100_rows");
    group.sample_size(5);
    let baseline = {
        let engine = scan_engine(1);
        engine.execute(SCAN_SQL).unwrap()
    };
    for parallelism in [1usize, 4, 8] {
        let engine = scan_engine(parallelism);
        // Same rows and same call count at any fanout.
        let result = engine.execute(SCAN_SQL).unwrap();
        assert_eq!(result.rows(), baseline.rows());
        assert_eq!(result.usage.calls, baseline.usage.calls);
        group.bench_with_input(
            BenchmarkId::from_parameter(parallelism),
            &parallelism,
            |b, _| b.iter(|| black_box(engine.execute(black_box(SCAN_SQL)).unwrap())),
        );
    }
    group.finish();
}

fn bench_cache_contention(c: &mut Criterion) {
    let response = CompletionResponse {
        text: "cached".to_string(),
        prompt_tokens: 10,
        completion_tokens: 5,
        latency_ms: 1.0,
        cost_usd: 0.0001,
    };
    let keys: Vec<String> = (0..512).map(|i| format!("prompt-{i}")).collect();

    let mut group = c.benchmark_group("prompt_cache_8_threads");
    group.sample_size(10);
    for shards in [1usize, 16] {
        let cache = PromptCache::with_shards(shards);
        for key in &keys {
            cache.put(key.clone(), response.clone());
        }
        group.bench_with_input(BenchmarkId::new("shards", shards), &cache, |b, cache| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    for t in 0..8 {
                        let keys = &keys;
                        scope.spawn(move || {
                            for key in keys.iter().skip(t % 7) {
                                black_box(cache.get(key));
                            }
                        });
                    }
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_scan, bench_cache_contention);
criterion_main!(benches);
