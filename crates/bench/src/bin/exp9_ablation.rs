//! E9 (Table 4): optimizer ablation.
//!
//! Turns the call-minimising optimizer rules (predicate pushdown into
//! prompts, projection pruning, the optimizer as a whole) off one at a time
//! and reports the effect on model calls, tokens and accuracy. The point of
//! the paper's corresponding table: classic relational optimizations
//! translate directly into fewer/cheaper model calls when the storage layer
//! is an LLM.

use llmsql_bench::{experiment_world, llm_config, QUERIES_PER_CLASS};
use llmsql_core::EvalOptions;
use llmsql_types::{EngineConfig, LlmFidelity, OptimizerOptions, PromptStrategy};
use llmsql_workload::{fmt_f2, fmt_score, run_suite, standard_suite, Report};

fn main() {
    let world = experiment_world().expect("world generation");
    let suite = standard_suite(&world, QUERIES_PER_CLASS / 2);
    let oracle = world.oracle_engine();

    // The prompt cache is disabled for the rewrite-rule variants so that the
    // effect of each rule is measured in isolation: unfiltered, unpruned scan
    // prompts are identical across queries and would otherwise be served from
    // the cache, hiding their true cost. The last row adds the cache back on
    // top of all rules to show its own contribution.
    let mut base = llm_config(PromptStrategy::BatchedRows, LlmFidelity::strong());
    base.enable_prompt_cache = false;
    let variants: Vec<(&str, EngineConfig)> = vec![
        ("all rules on", base.clone()),
        ("no predicate pushdown", {
            let mut c = base.clone();
            c.optimizer.predicate_pushdown = false;
            c
        }),
        ("no projection pruning", {
            let mut c = base.clone();
            c.optimizer.projection_pruning = false;
            c
        }),
        ("optimizer off", {
            let mut c = base.clone();
            c.optimizer = OptimizerOptions::disabled();
            c
        }),
        ("all rules on + prompt cache", {
            let mut c = base.clone();
            c.enable_prompt_cache = true;
            c
        }),
    ];

    let mut report = Report::new(vec![
        "configuration",
        "llm calls",
        "tokens",
        "cost ($)",
        "F1",
    ])
    .with_title("E9 / Table 4 — optimizer ablation (batched-rows, strong fidelity)");

    for (label, config) in variants {
        let subject = world.subject_engine(config).expect("subject engine");
        let outcome =
            run_suite(&oracle, &subject, &suite, &EvalOptions::exact()).expect("suite execution");
        let overall = outcome.overall();
        report.row(vec![
            label.to_string(),
            outcome.total_llm_calls().to_string(),
            outcome.total_tokens().to_string(),
            fmt_f2(outcome.total_cost_usd()),
            fmt_score(overall.f1()),
        ]);
    }
    println!("{}", report.render());
}
