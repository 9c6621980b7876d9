//! The experiment harness: run a query suite against the oracle and a subject
//! engine, score every answer, and aggregate per class.

use std::collections::BTreeMap;

use llmsql_core::{score_batches, Engine, EvalOptions, ResultScore, SuiteScore};
use llmsql_llm::UsageStats;
use llmsql_types::Result;

use crate::queries::{QueryCase, QueryClass};

/// The outcome of running one query on the subject engine.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// The query.
    pub case: QueryCase,
    /// Accuracy against the oracle.
    pub score: ResultScore,
    /// LLM prompts issued for this query.
    pub llm_calls: u64,
    /// NULL cells filled from the model (hybrid scans only).
    pub cells_filled: u64,
    /// Prompt + completion tokens for this query.
    pub tokens: u64,
    /// Simulated model cost in dollars.
    pub cost_usd: f64,
    /// Simulated model latency in milliseconds: a function of the answers,
    /// so it repeats exactly.
    pub model_latency_ms: f64,
    /// Engine wall time in milliseconds; varies run to run.
    pub engine_ms: f64,
}

/// The outcome of running a whole suite.
#[derive(Debug, Clone, Default)]
pub struct SuiteOutcome {
    /// Per-query outcomes, in execution order.
    pub cases: Vec<CaseOutcome>,
}

impl SuiteOutcome {
    /// Group the scores by query class.
    pub fn by_class(&self) -> BTreeMap<QueryClass, SuiteScore> {
        let mut map: BTreeMap<QueryClass, SuiteScore> = BTreeMap::new();
        for c in &self.cases {
            map.entry(c.case.class).or_default().push(c.score);
        }
        map
    }

    /// Overall macro-averaged score across all queries.
    pub fn overall(&self) -> SuiteScore {
        let mut s = SuiteScore::default();
        for c in &self.cases {
            s.push(c.score);
        }
        s
    }

    /// Total LLM calls across the suite.
    pub fn total_llm_calls(&self) -> u64 {
        self.cases.iter().map(|c| c.llm_calls).sum()
    }

    /// Total tokens across the suite.
    pub fn total_tokens(&self) -> u64 {
        self.cases.iter().map(|c| c.tokens).sum()
    }

    /// Total simulated cost in dollars.
    pub fn total_cost_usd(&self) -> f64 {
        self.cases.iter().map(|c| c.cost_usd).sum()
    }

    /// Mean simulated model latency per query in milliseconds.
    pub fn mean_model_latency_ms(&self) -> f64 {
        self.mean(|c| c.model_latency_ms)
    }

    /// Mean engine wall time per query in milliseconds.
    pub fn mean_engine_ms(&self) -> f64 {
        self.mean(|c| c.engine_ms)
    }

    fn mean(&self, of: impl Fn(&CaseOutcome) -> f64) -> f64 {
        if self.cases.is_empty() {
            0.0
        } else {
            self.cases.iter().map(of).sum::<f64>() / self.cases.len() as f64
        }
    }
}

/// Run every query on both engines and score the subject against the oracle.
///
/// Queries that fail on the subject engine score zero (the failure is the
/// system's fault); queries that fail on the *oracle* are skipped (they are
/// malformed for the ground truth and cannot be scored).
pub fn run_suite(
    oracle: &Engine,
    subject: &Engine,
    queries: &[QueryCase],
    options: &EvalOptions,
) -> Result<SuiteOutcome> {
    let mut outcome = SuiteOutcome::default();
    for case in queries {
        let Ok(expected) = oracle.execute(&case.sql) else {
            continue;
        };
        let case_options = if case.order_sensitive {
            EvalOptions {
                order_sensitive: true,
                ..*options
            }
        } else {
            *options
        };
        let (score, usage, llm_calls, cells_filled, engine_ms) = match subject.execute(&case.sql) {
            Ok(actual) => {
                let score = score_batches(&actual.batch, &expected.batch, &case_options);
                (
                    score,
                    actual.usage,
                    actual.metrics.llm_calls(),
                    actual.metrics.cells_filled_by_llm,
                    actual.engine_ms,
                )
            }
            Err(_) => (
                score_batches(&Default::default(), &expected.batch, &case_options),
                UsageStats::default(),
                0,
                0,
                0.0,
            ),
        };
        outcome.cases.push(CaseOutcome {
            case: case.clone(),
            score,
            llm_calls,
            cells_filled,
            tokens: usage.total_tokens(),
            cost_usd: usage.cost_usd,
            model_latency_ms: usage.latency_ms,
            engine_ms,
        });
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::standard_suite;
    use crate::world::{World, WorldSpec};
    use llmsql_types::{EngineConfig, ExecutionMode, LlmFidelity, PromptStrategy};

    fn world() -> World {
        World::generate(WorldSpec::tiny()).unwrap()
    }

    #[test]
    fn perfect_fidelity_scores_one() {
        let w = world();
        let oracle = w.oracle_engine();
        let subject = w
            .subject_engine(
                EngineConfig::default()
                    .with_mode(ExecutionMode::LlmOnly)
                    .with_strategy(PromptStrategy::BatchedRows)
                    .with_fidelity(LlmFidelity::perfect()),
            )
            .unwrap();
        let suite = standard_suite(&w, 2);
        let outcome = run_suite(&oracle, &subject, &suite, &EvalOptions::exact()).unwrap();
        assert_eq!(outcome.cases.len(), suite.len());
        let overall = outcome.overall();
        assert!(overall.f1() > 0.999, "f1 = {}", overall.f1());
        assert!(outcome.total_llm_calls() > 0);
        assert!(outcome.total_tokens() > 0);
        assert!(outcome.total_cost_usd() > 0.0);
        assert!(outcome.mean_model_latency_ms() > 0.0);
    }

    #[test]
    fn weak_fidelity_scores_lower_than_strong() {
        let w = world();
        let oracle = w.oracle_engine();
        let suite = standard_suite(&w, 2);
        let f1_of = |fidelity: LlmFidelity| {
            let subject = w
                .subject_engine(
                    EngineConfig::default()
                        .with_mode(ExecutionMode::LlmOnly)
                        .with_fidelity(fidelity),
                )
                .unwrap();
            run_suite(&oracle, &subject, &suite, &EvalOptions::exact())
                .unwrap()
                .overall()
                .f1()
        };
        let strong = f1_of(LlmFidelity::perfect());
        let weak = f1_of(LlmFidelity::weak());
        assert!(weak < strong, "weak {weak} vs strong {strong}");
    }

    #[test]
    fn mixed_backend_suite_matches_single_backend_suite() {
        // The full query suite over a mixed-health backend pool (one endpoint
        // hard down) must score and *answer* exactly like the single-backend
        // run: failover changes which endpoint serves each prompt, never the
        // completion — and the logical call accounting must agree too.
        let w = world();
        let oracle = w.oracle_engine();
        let base = || {
            EngineConfig::default()
                .with_mode(ExecutionMode::LlmOnly)
                .with_strategy(PromptStrategy::BatchedRows)
                .with_fidelity(LlmFidelity::medium())
                .with_parallelism(4)
        };
        let suite = standard_suite(&w, 2);
        let single = w.subject_engine(base()).unwrap();
        let pooled = w.subject_engine_multi_backend(base()).unwrap();
        let single_out = run_suite(&oracle, &single, &suite, &EvalOptions::exact()).unwrap();
        let pooled_out = run_suite(&oracle, &pooled, &suite, &EvalOptions::exact()).unwrap();
        for (a, b) in single_out.cases.iter().zip(&pooled_out.cases) {
            assert_eq!(a.case.sql, b.case.sql);
            assert_eq!(a.score, b.score, "score diverged on {}", a.case.sql);
            assert_eq!(a.llm_calls, b.llm_calls, "calls diverged on {}", a.case.sql);
        }
        assert_eq!(single_out.total_llm_calls(), pooled_out.total_llm_calls());
    }

    #[test]
    fn by_class_partitions_all_cases() {
        let w = world();
        let oracle = w.oracle_engine();
        let subject = w
            .subject_engine(
                EngineConfig::default()
                    .with_mode(ExecutionMode::LlmOnly)
                    .with_fidelity(LlmFidelity::perfect()),
            )
            .unwrap();
        let suite = standard_suite(&w, 2);
        let outcome = run_suite(&oracle, &subject, &suite, &EvalOptions::exact()).unwrap();
        let by_class = outcome.by_class();
        let total: usize = by_class.values().map(|s| s.len()).sum();
        assert_eq!(total, outcome.cases.len());
        assert_eq!(by_class.len(), QueryClass::ALL.len());
    }
}
