//! Conservation of accounting: a query's bill is what its own requests did,
//! whatever its neighbours do meanwhile, and at quiescence the bills of all
//! queries sum to the deployment's counters (`LlmClient::usage`,
//! `BackendPool::stats`). Every scenario runs its queries concurrently
//! through a `QueryScheduler` over one engine, one client and one pool.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use llmsql_bench::{multi_backend_engine, parallel_world, slow_outlier_engine};
use llmsql_core::{Engine, QueryResult};
use llmsql_llm::{
    Backend, BackendPool, BackendStats, CallHandle, CompletionRequest, LanguageModel, UsageStats,
};
use llmsql_sched::{QueryScheduler, QueryTicket};
use llmsql_types::{
    EngineConfig, ExecutionMode, LlmCostModel, LlmFidelity, Priority, PromptStrategy,
    RoutingPolicy, SchedConfig,
};
use llmsql_workload::check_accounting_conserved;

/// Run `sqls` at once through a scheduler of `workers` workers over
/// `engine`; the results in submission order, and the deployment's totals
/// once every query is done.
fn run_concurrently(
    engine: Engine,
    workers: usize,
    sqls: &[String],
) -> (Vec<QueryResult>, UsageStats, Vec<BackendStats>) {
    let sched = QueryScheduler::new(
        engine,
        SchedConfig::default()
            .with_workers(workers)
            .with_llm_slots(32)
            .paused(),
    )
    .expect("valid scheduler config");
    let tickets: Vec<QueryTicket> = sqls
        .iter()
        .map(|sql| {
            sched
                .submit("tenant", Priority::NORMAL, sql.clone())
                .expect("within admission caps")
        })
        .collect();
    sched.resume();
    let results = tickets
        .into_iter()
        .map(|ticket| ticket.wait().result.expect("scheduled query succeeded"))
        .collect();
    let client = sched.engine().client().expect("a model is attached");
    (
        results,
        client.usage(),
        client.backend_stats().unwrap_or_default(),
    )
}

/// Σ over `results` of every per-query number equals the deployment's.
fn assert_conserved(results: &[QueryResult], usage: &UsageStats, backends: &[BackendStats]) {
    check_accounting_conserved(results, usage, backends).unwrap();
    for backend in backends {
        assert_eq!(backend.in_flight, 0, "{} is not quiescent", backend.id);
    }
}

/// (a) Eight distinct scans of a 120-row relation, 4 workers, 3 backends
/// with one hard down, 2 ms round trips. Routing by prompt hash makes each
/// prompt's physical trace a function of the prompt alone, so a query's solo
/// bill is the reference for its bill in company.
#[test]
fn a_query_in_company_reports_its_solo_bill_and_the_bills_sum_to_the_deployment() {
    const ROWS: usize = 120;
    let engine = || multi_backend_engine(ROWS, 4, 2.0, RoutingPolicy::PromptHash, true).unwrap();
    let sqls: Vec<String> = (0..8)
        .map(|i| format!("SELECT name, population FROM countries WHERE population >= {i}"))
        .collect();
    let (results, usage, backends) = run_concurrently(engine(), 4, &sqls);
    for (sql, result) in sqls.iter().zip(&results) {
        let solo = engine().execute(sql).unwrap();
        assert_eq!(result.rows(), solo.rows(), "{sql}");
        assert_eq!(result.metrics.usage.calls, 12, "{sql}");
        assert_eq!(result.metrics.usage, solo.metrics.usage, "{sql}");
        let (m, s) = (&result.metrics, &solo.metrics);
        assert_eq!(m.backend_calls, s.backend_calls, "{sql}");
        assert_eq!(m.backend_errors, s.backend_errors, "{sql}");
        assert_eq!(m.backend_latency_ms, s.backend_latency_ms, "{sql}");
        assert!(m.backend_calls.values().sum::<u64>() > 12, "{sql}: {m:?}");
    }
    assert_eq!(usage.calls, 8 * 12);
    assert_conserved(&results, &usage, &backends);
}

/// (b) Scans a filter ends on their second page while the pages speculated
/// past it are still in flight (the slow backend answers in 30 ms, the short
/// page in 3): the cancelled pages' attempts are on the query's bill, paid
/// for and never answered.
#[test]
fn attempts_of_pages_cancelled_in_flight_are_on_the_bill_of_the_query_that_made_them() {
    let engine = slow_outlier_engine(200, 8, RoutingPolicy::RoundRobin, false).unwrap();
    // Populations grow with the row number: `< cut` keeps the first 15, 14, …
    let sqls: Vec<String> = (0..4)
        .map(|i| {
            let cut = 100_000 + 37_219 * (15 - i);
            format!("SELECT name FROM countries WHERE population < {cut} LIMIT 100")
        })
        .collect();
    let (results, usage, backends) = run_concurrently(engine, 4, &sqls);
    let mut attempts = 0;
    for (i, result) in results.iter().enumerate() {
        assert_eq!(result.row_count(), 15 - i);
        let m = &result.metrics;
        let made: u64 = m.backend_calls.values().sum();
        assert_eq!(made, m.llm_calls(), "one attempt per page: {m:?}");
        assert!(result.metrics.usage.calls <= made, "{m:?}");
        attempts += made;
    }
    // A third of the pages went to the slow backend, and none of those was
    // answered before its scan ended.
    assert!(
        usage.calls < attempts,
        "no page was cancelled in flight: {usage:?} for {attempts} attempts"
    );
    assert_conserved(&results, &usage, &backends);
}

/// A pool member that answers in 3 ms — except, when it `stalls`, every
/// other attempt from its ninth on, which takes 100. Its first eight answers
/// (the scans' first waves, launched before any member had an estimate, so
/// not hedgeable, among them) are fast; after that its estimate mixes fast
/// answers with the lower bounds its hedged stalls leave, so it stays under
/// the hedge threshold (3 × the fastest estimate, which an event loop busy
/// with four queries' answers can read at several times 3 ms): each stall
/// is unexpected, and the member keeps the prompts routing gives it.
struct StallingMember {
    id: &'static str,
    model: Arc<dyn LanguageModel>,
    stalls: bool,
    attempts: AtomicU64,
}

impl Backend for StallingMember {
    fn id(&self) -> &str {
        self.id
    }
    fn submit(&self, request: &CompletionRequest, _attempt: usize, now: Instant) -> CallHandle {
        // ordering: Relaxed — a per-member attempt counter; no memory rides
        // on it.
        let n = self.attempts.fetch_add(1, Ordering::Relaxed);
        let rtt_ms = if self.stalls && n >= 8 && n.is_multiple_of(2) {
            100
        } else {
            3
        };
        CallHandle::timed(
            self.model.complete(request),
            now + Duration::from_millis(rtt_ms),
        )
    }
    fn fingerprint(&self) -> String {
        self.model.fingerprint()
    }
    fn cost_model(&self) -> LlmCostModel {
        self.model.cost_model()
    }
    fn relation_cardinality(&self, table: &str) -> Option<u64> {
        self.model.relation_cardinality(table)
    }
}

/// (b) A hedged run: the duplicates sent after a late primary, the ones that
/// won, and the primaries they beat (dropped unanswered) are all attributed
/// to the query whose request armed the hedge.
#[test]
fn hedges_and_the_flights_they_beat_are_on_the_bill_of_the_query_that_hedged() {
    const ROWS: usize = 120;
    let (catalog, sim) = parallel_world(ROWS, LlmFidelity::perfect(), 0.0).unwrap();
    let model: Arc<dyn LanguageModel> = Arc::new(sim);
    let members = ["edge-1", "edge-2", "edge-3"].map(|id| {
        Arc::new(StallingMember {
            id,
            model: Arc::clone(&model),
            stalls: id == "edge-3",
            attempts: AtomicU64::new(0),
        }) as Arc<dyn Backend>
    });
    let pool = Arc::new(
        BackendPool::new(members.to_vec(), RoutingPolicy::RoundRobin)
            .unwrap()
            .with_backoff_base_ms(0.0)
            .with_hedging(3.0, 1.0),
    );
    let mut config = EngineConfig::default()
        .with_mode(ExecutionMode::LlmOnly)
        .with_strategy(PromptStrategy::BatchedRows)
        .with_batch_size(10)
        .with_parallelism(4);
    config.max_scan_rows = ROWS;
    config.enable_prompt_cache = false;
    let mut engine = Engine::with_catalog(catalog, config);
    engine.attach_model(Arc::clone(&pool) as _).unwrap();
    let sqls: Vec<String> = (0..4)
        .map(|i| format!("SELECT name, region FROM countries WHERE population >= {i}"))
        .collect();
    let (results, usage, _) = run_concurrently(engine, 4, &sqls);
    let won: u64 = results.iter().map(|r| r.metrics.hedges_won).sum();
    assert!(won > 0, "no hedge ever beat a stalled flight");
    for result in &results {
        let m = &result.metrics;
        assert_eq!(result.metrics.usage.calls, 12);
        assert!(m.hedges_issued >= m.hedges_won, "{m:?}");
        // Every request made one primary attempt, and one more per hedge.
        let attempts: u64 = m.backend_calls.values().sum();
        assert_eq!(attempts, 12 + m.hedges_issued, "{m:?}");
    }
    assert_conserved(&results, &usage, &pool.stats());
}

/// (c) Two identical one-prompt queries at once: one leads the flight and
/// pays for it; the other is answered by it and pays nothing.
#[test]
fn a_coalesced_follower_pays_nothing_and_its_leader_pays_once() {
    let (catalog, sim) = parallel_world(20, LlmFidelity::perfect(), 60.0).unwrap();
    let mut config = EngineConfig::default()
        .with_mode(ExecutionMode::LlmOnly)
        .with_strategy(PromptStrategy::FullQuery);
    config.enable_prompt_cache = false;
    let mut engine = Engine::with_catalog(catalog, config);
    engine.attach_model(Arc::new(sim)).unwrap();
    let sql = "SELECT name FROM countries".to_string();
    let (results, usage, backends) = run_concurrently(engine, 2, &[sql.clone(), sql]);
    assert_eq!(results[0].rows(), results[1].rows());
    let mut bills: Vec<(u64, u64)> = results
        .iter()
        .map(|r| (r.metrics.usage.calls, r.metrics.coalesced_calls))
        .collect();
    bills.sort_unstable();
    assert_eq!(bills, [(0, 1), (1, 0)], "(model calls, coalesced calls)");
    let follower = results.iter().find(|r| r.metrics.usage.calls == 0).unwrap();
    assert_eq!(follower.metrics.usage, UsageStats::default());
    assert_eq!(
        follower.metrics.llm_calls(),
        1,
        "the logical call is charged"
    );
    assert_eq!(usage.calls, 1);
    assert_conserved(&results, &usage, &backends);
}
