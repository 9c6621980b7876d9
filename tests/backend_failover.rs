//! End-to-end guarantees of multi-backend dispatch: routing and failover may
//! change which endpoint serves a prompt, but never the rows a query returns
//! or the number of logical LLM calls it issues — at any parallelism, under
//! every routing policy, even with a backend hard down.

use llmsql_bench::{multi_backend_engine, parallel_scan_engine, slow_outlier_engine};
use llmsql_types::RoutingPolicy;

const SCAN_SQL: &str = "SELECT name, population FROM countries";

/// The ISSUE acceptance scenario: 3 simulated backends (one hard down), a
/// 100-row scan at parallelism 4 — identical rows and total call count as
/// the single-backend run, with per-backend counters visible in metrics.
#[test]
fn failing_backend_does_not_change_rows_or_call_counts() {
    let single = parallel_scan_engine(100, 4, 0.0)
        .unwrap()
        .execute(SCAN_SQL)
        .unwrap();
    assert_eq!(single.row_count(), 100);

    for policy in RoutingPolicy::ALL {
        let pooled = multi_backend_engine(100, 4, 0.0, policy, true)
            .unwrap()
            .execute(SCAN_SQL)
            .unwrap();
        assert_eq!(
            single.rows(),
            pooled.rows(),
            "rows diverged under {policy} with a failing backend"
        );
        assert_eq!(
            single.usage.calls, pooled.usage.calls,
            "logical call count diverged under {policy}"
        );
        assert_eq!(
            single.metrics.llm_calls(),
            pooled.metrics.llm_calls(),
            "metrics call count diverged under {policy}"
        );

        // Per-backend physical counters are surfaced in ExecMetrics.
        let m = &pooled.metrics;
        assert_eq!(m.backend_calls.len(), 3, "policy {policy}: {m:?}");
        let attempts: u64 = m.backend_calls.values().sum();
        let errors: u64 = m.backend_errors.values().sum();
        // Every error was retried somewhere, so physical attempts exceed
        // logical calls by exactly the error count.
        assert_eq!(attempts, m.llm_calls() + errors, "policy {policy}");
        // The healthy backends absorbed all logical calls...
        assert_eq!(
            m.backend_calls["edge-b"] + m.backend_calls["edge-c"]
                - m.backend_errors["edge-b"]
                - m.backend_errors["edge-c"],
            m.llm_calls(),
            "policy {policy}"
        );
        // ...and the down backend produced only errors.
        assert_eq!(
            m.backend_calls["edge-a"], m.backend_errors["edge-a"],
            "policy {policy}"
        );
    }
}

/// Same seed + query ⇒ byte-identical rows and identical physical
/// retry/failover traces across repeat runs. Round robin's cursor advances
/// in request-arrival order, so its full physical trace is pinned down at
/// parallelism 1; cost-aware ordering is static, so its trace is
/// reproducible even with 4 workers racing.
#[test]
fn failover_is_deterministic_across_runs() {
    for (policy, parallelism) in [
        (RoutingPolicy::RoundRobin, 1),
        (RoutingPolicy::CostAware, 4),
    ] {
        let run = || {
            let engine = multi_backend_engine(60, parallelism, 0.0, policy, true).unwrap();
            let result = engine.execute(SCAN_SQL).unwrap();
            (
                result.rows().to_vec(),
                result.metrics.backend_calls.clone(),
                result.metrics.backend_errors.clone(),
            )
        };
        let first = run();
        let second = run();
        assert_eq!(first, second, "nondeterministic trace under {policy}");
    }
}

/// Rows and logical call counts are invariant across parallelism levels in a
/// mixed-health pool (the PR 1 determinism guarantee extended to failover).
#[test]
fn pooled_scan_is_parallelism_invariant() {
    let baseline = multi_backend_engine(50, 1, 0.0, RoutingPolicy::RoundRobin, true)
        .unwrap()
        .execute(SCAN_SQL)
        .unwrap();
    for parallelism in [2, 4, 8] {
        let result = multi_backend_engine(50, parallelism, 0.0, RoutingPolicy::RoundRobin, true)
            .unwrap()
            .execute(SCAN_SQL)
            .unwrap();
        assert_eq!(
            baseline.rows(),
            result.rows(),
            "rows diverged at parallelism {parallelism}"
        );
        assert_eq!(
            baseline.usage.calls, result.usage.calls,
            "call count diverged at parallelism {parallelism}"
        );
    }
}

/// A healthy pool spreads wave traffic across its members (round robin), and
/// failed attempts never consume the query's logical call budget.
#[test]
fn healthy_pool_spreads_load_and_budget_counts_logical_calls() {
    let result = multi_backend_engine(100, 4, 0.0, RoutingPolicy::RoundRobin, false)
        .unwrap()
        .execute(SCAN_SQL)
        .unwrap();
    let m = &result.metrics;
    let served: Vec<u64> = m.backend_calls.values().copied().collect();
    assert_eq!(served.iter().sum::<u64>(), m.llm_calls());
    assert!(
        served.iter().all(|&c| c > 0),
        "round robin left a backend idle: {:?}",
        m.backend_calls
    );
    assert_eq!(m.backend_errors.values().sum::<u64>(), 0);
}

/// The tail-latency acceptance scenario: 3 backends where one has 10× the
/// latency of its siblings, a 100-row scan at parallelism 4 under
/// `RoutingPolicy::LatencyAware` with hedging. Rows and logical call counts
/// must be byte-identical to the sequential single-backend baseline, with
/// hedges actually fired and won (the exploratory requests that discover the
/// outlier's latency are rescued by their hedges instead of eating the full
/// 10× round trip).
#[test]
fn hedging_with_a_slow_outlier_keeps_results_and_wins_hedges() {
    let baseline = parallel_scan_engine(100, 1, 0.0)
        .unwrap()
        .execute(SCAN_SQL)
        .unwrap();
    assert_eq!(baseline.row_count(), 100);

    let hedged = slow_outlier_engine(100, 4, RoutingPolicy::LatencyAware, true)
        .unwrap()
        .execute(SCAN_SQL)
        .unwrap();
    assert_eq!(
        baseline.rows(),
        hedged.rows(),
        "hedging changed the rows a scan returns"
    );
    assert_eq!(
        baseline.usage.calls, hedged.usage.calls,
        "hedges must not consume the logical call budget"
    );
    assert_eq!(baseline.metrics.llm_calls(), hedged.metrics.llm_calls());
    assert!(
        hedged.metrics.hedges_won > 0,
        "the slow outlier should have lost at least one hedge race: {:?}",
        hedged.metrics
    );
    assert!(hedged.metrics.hedges_issued >= hedged.metrics.hedges_won);

    // The same deployment without hedging: identical rows, zero hedges.
    let unhedged = slow_outlier_engine(100, 4, RoutingPolicy::LatencyAware, false)
        .unwrap()
        .execute(SCAN_SQL)
        .unwrap();
    assert_eq!(baseline.rows(), unhedged.rows());
    assert_eq!(unhedged.metrics.hedges_issued, 0);
    assert_eq!(unhedged.metrics.hedges_won, 0);
}

/// Latency-aware routing sends steady-state traffic to the fast members: the
/// slow outlier serves at most the cold-start exploration (bounded by one
/// dispatch wave, since in-flight requests have no sample yet), not a third
/// of the scan as round robin would give it. 300 rows = 30 pages, so
/// exploration (≤ 4 calls) is a small fraction of the whole scan.
#[test]
fn latency_aware_routing_starves_the_slow_outlier() {
    let result = slow_outlier_engine(300, 4, RoutingPolicy::LatencyAware, false)
        .unwrap()
        .execute(SCAN_SQL)
        .unwrap();
    let m = &result.metrics;
    let slow_share = m.backend_calls["edge-slow"] as f64 / m.llm_calls() as f64;
    assert!(
        slow_share < 0.2,
        "latency-aware routing kept feeding the slow outlier: {:?}",
        m.backend_calls
    );
    let round_robin = slow_outlier_engine(300, 4, RoutingPolicy::RoundRobin, false)
        .unwrap()
        .execute(SCAN_SQL)
        .unwrap();
    assert_eq!(result.rows(), round_robin.rows());
    assert!(
        round_robin.metrics.backend_calls["edge-slow"] > m.backend_calls["edge-slow"],
        "round robin should hit the outlier more than latency-aware routing"
    );
}

/// A pooled engine with one member hard down returns the rows and pays the
/// calls of the non-pooled sequential run (parallelism 1, no pool), and its
/// waves really overlap: failover happens inside the pool, out of sight of
/// the wave planner.
#[test]
fn pooled_engines_keep_the_sequential_results_and_overlap_their_waves() {
    let pooled = multi_backend_engine(60, 4, 0.0, RoutingPolicy::RoundRobin, true)
        .unwrap()
        .execute(SCAN_SQL)
        .unwrap();
    let sequential = parallel_scan_engine(60, 1, 0.0)
        .unwrap()
        .execute(SCAN_SQL)
        .unwrap();
    assert_eq!(sequential.rows(), pooled.rows());
    assert_eq!(sequential.usage.calls, pooled.usage.calls);
    assert!(pooled.metrics.peak_in_flight >= 2, "{:?}", pooled.metrics);
}

/// Cost-aware routing avoids the premium-priced backend entirely while the
/// cheap backends stay healthy, and total spend reflects that.
#[test]
fn cost_aware_routing_prefers_cheap_backends() {
    let cost_aware = multi_backend_engine(100, 4, 0.0, RoutingPolicy::CostAware, false)
        .unwrap()
        .execute(SCAN_SQL)
        .unwrap();
    assert_eq!(
        cost_aware.metrics.backend_calls["edge-c"], 0,
        "cost-aware routing used the premium backend: {:?}",
        cost_aware.metrics.backend_calls
    );

    let round_robin = multi_backend_engine(100, 4, 0.0, RoutingPolicy::RoundRobin, false)
        .unwrap()
        .execute(SCAN_SQL)
        .unwrap();
    assert!(round_robin.metrics.backend_calls["edge-c"] > 0);
    assert!(
        cost_aware.usage.cost_usd < round_robin.usage.cost_usd,
        "cost-aware spend {} should undercut round-robin spend {}",
        cost_aware.usage.cost_usd,
        round_robin.usage.cost_usd
    );
}
