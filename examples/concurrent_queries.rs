//! Walkthrough of the cross-query scheduler: three tenants with different
//! traffic shapes share one engine through a `QueryScheduler` — admission
//! control bounds the queue, a weighted fair-share policy divides LLM call
//! slots 4:2:1, and every ticket reports queue/run/slot-wait accounting.
//! Each result carries its own bill, so a tenant's dollars are the sum of its
//! queries' — and the tenants' sum to what the deployment's client counted.
//!
//! Run with: `cargo run --release --example concurrent_queries`

use llmsql::{Engine, EngineConfig, ExecutionMode, LlmFidelity, Priority, PromptStrategy};
use llmsql::{QueryOutcome, QueryScheduler, QueryTicket, SchedConfig, SchedPolicy};
use llmsql_workload::{multi_tenant_suite, World, WorldSpec};

fn subject_engine(world: &World) -> Engine {
    let mut config = EngineConfig::default()
        .with_mode(ExecutionMode::LlmOnly)
        .with_strategy(PromptStrategy::BatchedRows)
        .with_fidelity(LlmFidelity::perfect())
        .with_parallelism(4);
    config.enable_prompt_cache = false; // every query pays its real call cost
    let catalog = world.catalog.deep_clone().expect("catalog clones");
    let mut engine = Engine::with_catalog(catalog, config);
    // A simulator with a visible per-call round trip, so slot contention
    // (not CPU) is what the scheduler arbitrates — as in a real deployment.
    let sim = llmsql::llm::SimLlm::new(
        world.knowledge().expect("knowledge mirrors catalog"),
        LlmFidelity::perfect(),
        engine.config().seed,
    )
    .with_simulated_latency_ms(4.0);
    engine
        .attach_model(std::sync::Arc::new(sim))
        .expect("no backend list configured");
    engine
}

fn main() {
    let world = World::generate(WorldSpec::tiny()).expect("world generates");
    let queries = multi_tenant_suite(&world, 4);

    // Sequential baseline: the same queries, one at a time, on an identical
    // engine. Scheduling may only change timing — rows and call counts must
    // match this exactly.
    let baseline_engine = subject_engine(&world);
    let baseline: Vec<(Vec<llmsql::types::Row>, u64)> = queries
        .iter()
        .map(|(_, case)| {
            let r = baseline_engine.execute(&case.sql).expect("baseline query");
            (r.rows().to_vec(), r.metrics.llm_calls())
        })
        .collect();

    // One shared engine behind a scheduler: 3 query workers, 4 global call
    // slots, weighted fair share 4:2:1.
    let sched = QueryScheduler::new(
        subject_engine(&world),
        SchedConfig::default()
            .with_workers(3)
            .with_llm_slots(4)
            .with_policy(SchedPolicy::WeightedFair)
            .with_tenant_weight("interactive", 4)
            .with_tenant_weight("analytics", 2)
            .with_tenant_weight("bulk", 1)
            .paused(), // build the backlog first so fair share, not arrival order, decides
    )
    .expect("valid scheduler config");

    let tickets: Vec<QueryTicket> = queries
        .iter()
        .map(|(tenant, case)| {
            sched
                .submit(tenant.clone(), Priority::NORMAL, case.sql.clone())
                .expect("within admission caps")
        })
        .collect();
    println!(
        "submitted {} queries over 3 tenants; releasing the backlog\n",
        tickets.len()
    );
    sched.resume();

    // Outcomes in submission order, for the per-query comparison.
    let outcomes: Vec<QueryOutcome> = tickets.into_iter().map(QueryTicket::wait).collect();
    for (i, (outcome, (rows, calls))) in outcomes.iter().zip(&baseline).enumerate() {
        let result = outcome.result.as_ref().expect("scheduled query succeeded");
        assert_eq!(result.rows(), &rows[..], "query {i}: rows diverged");
        assert_eq!(outcome.llm_calls, *calls, "query {i}: call count diverged");
    }

    let mut by_finish: Vec<&QueryOutcome> = outcomes.iter().collect();
    by_finish.sort_by_key(|o| o.finish_seq);
    println!("finish  tenant        queue ms  run ms  slot-wait ms  llm calls");
    for o in by_finish {
        println!(
            "{:>6}  {:<12} {:>9.1} {:>7.1} {:>13.2} {:>10}",
            o.finish_seq, o.tenant, o.queue_ms, o.run_ms, o.slot_wait_ms, o.llm_calls
        );
    }

    let stats = sched.stats();
    println!(
        "\nscheduler stats : {} completed, {} rejected",
        stats.completed, stats.rejected
    );
    println!(
        "global slots    : capacity {}, peak in use {}, total slot-wait {:.1} ms",
        stats.slot_capacity, stats.peak_slots_in_use, stats.total_slot_wait_ms
    );
    println!(
        "shared dispatch : {} logical calls coalesced across queries, {} rows batched",
        stats.coalesced_calls, stats.batched_rows
    );
    println!("per-tenant calls (deficit counters):");
    for (tenant, calls) in &stats.tenant_calls {
        println!("  {tenant:<12} {calls:>5}");
    }
    assert!(stats.peak_slots_in_use <= stats.slot_capacity as u64);

    // A query's bill is what its own requests did, whatever ran beside it:
    // per-tenant spend is a plain sum over the tenant's outcomes.
    let mut tenant_usd = std::collections::BTreeMap::<&str, (u64, f64)>::new();
    for outcome in &outcomes {
        let result = outcome.result.as_ref().expect("checked above");
        let usage = &result.metrics.usage;
        let (calls, usd) = tenant_usd.entry(outcome.tenant.as_str()).or_default();
        *calls += usage.calls;
        *usd += usage.cost_usd;
    }
    println!("per-tenant spend (summed from the outcomes):");
    for (tenant, (calls, usd)) in &tenant_usd {
        println!("  {tenant:<12} {calls:>5} model calls  ${usd:.4}");
    }
    let deployment = sched.engine().client().expect("model attached").usage();
    let (calls, usd) = tenant_usd
        .values()
        .fold((0, 0.0), |(c, u), (calls, usd)| (c + calls, u + usd));
    println!(
        "  {:<12} {:>5} model calls  ${:.4}  (the client's own count)",
        "deployment", deployment.calls, deployment.cost_usd
    );
    assert_eq!(calls, deployment.calls, "tenant bills != the deployment's");
    assert!((usd - deployment.cost_usd).abs() < 1e-9);
    println!("\nidentical rows and call counts under concurrent scheduling ✓");
}
