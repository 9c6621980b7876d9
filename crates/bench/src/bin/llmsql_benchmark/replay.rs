//! The benchmark-owned models: [`Recorder`] memoizes the simulator's answers
//! at set-up, [`ReplayLlm`] replays them in the measured phase.
//!
//! `SimLlm` *computes* every answer inline on the dispatch thread (hundreds
//! of microseconds per page), which a remote model never would. Replaying
//! precomputed answers takes that CPU off the measured path: a request costs
//! one hash lookup, then waits out the round trip as a timer.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use llmsql_llm::{CallHandle, CompletionRequest, CompletionResponse, LanguageModel, SimLlm};
use llmsql_types::{LlmCostModel, Result};

/// The request parameters every engine prompt is sent with today. A request
/// with other parameters is not in the recording and counts as a miss.
fn default_params(request: &CompletionRequest) -> bool {
    let reference = CompletionRequest::new("");
    request.max_tokens == reference.max_tokens && request.temperature == reference.temperature
}

/// Recording model for the set-up passes: answers from its memo, or asks the
/// simulator and remembers. Semantically the simulator itself.
pub struct Recorder {
    sim: Arc<SimLlm>,
    memo: Mutex<HashMap<String, CompletionResponse>>,
}

impl Recorder {
    pub fn new(sim: Arc<SimLlm>) -> Recorder {
        Recorder {
            sim,
            memo: Mutex::new(HashMap::new()),
        }
    }

    /// Everything recorded so far, as the table a [`ReplayLlm`] replays.
    pub fn recording(&self) -> HashMap<String, CompletionResponse> {
        self.memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl LanguageModel for Recorder {
    fn name(&self) -> String {
        self.sim.name()
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse> {
        if !default_params(request) {
            return self.sim.complete(request);
        }
        // The memo lock is not held while the simulator computes.
        let known = self
            .memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&request.prompt)
            .cloned();
        if let Some(response) = known {
            return Ok(response);
        }
        let response = self.sim.complete(request)?;
        self.memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(request.prompt.clone(), response.clone());
        Ok(response)
    }

    fn fingerprint(&self) -> String {
        self.sim.fingerprint()
    }

    fn cost_model(&self) -> LlmCostModel {
        self.sim.cost_model()
    }

    fn relation_cardinality(&self, table: &str) -> Option<u64> {
        self.sim.relation_cardinality(table)
    }
}

/// One request as the model saw it: submit time and the time its answer
/// became observable.
#[derive(Debug, Clone, Copy)]
pub struct RequestSpan {
    pub submit: Instant,
    pub ready_at: Instant,
}

/// Counters of a [`ReplayLlm`], cumulative since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelCounters {
    /// Requests that reached the model — what a provider would bill.
    pub requests: u64,
    /// Prompt + completion tokens of those requests.
    pub tokens: u64,
    /// Requests that were not in the recording (the run is then invalid).
    pub misses: u64,
}

impl ModelCounters {
    pub fn since(&self, earlier: &ModelCounters) -> ModelCounters {
        ModelCounters {
            requests: self.requests - earlier.requests,
            tokens: self.tokens - earlier.tokens,
            misses: self.misses - earlier.misses,
        }
    }
}

/// The replayed model of the measured phase. Always asynchronous, so the
/// engine's event-driven dispatch runs even at zero latency.
pub struct ReplayLlm {
    sim: Arc<SimLlm>,
    answers: HashMap<String, CompletionResponse>,
    rtt: Duration,
    requests: AtomicU64,
    tokens: AtomicU64,
    misses: AtomicU64,
    /// `Some` while a traced block records request spans.
    spans: Mutex<Option<Vec<RequestSpan>>>,
}

impl ReplayLlm {
    pub fn new(
        sim: Arc<SimLlm>,
        answers: HashMap<String, CompletionResponse>,
        rtt_ms: f64,
    ) -> ReplayLlm {
        ReplayLlm {
            sim,
            answers,
            rtt: Duration::from_secs_f64(rtt_ms.max(0.0) / 1000.0),
            requests: AtomicU64::new(0),
            tokens: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            spans: Mutex::new(None),
        }
    }

    pub fn counters(&self) -> ModelCounters {
        // ordering: Relaxed — statistics read at block boundaries, when the
        // single client is between queries (or, open loop, as an advisory
        // snapshot); nothing is published under the counters.
        ModelCounters {
            requests: self.requests.load(Ordering::Relaxed),
            tokens: self.tokens.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Round trip of one request, milliseconds.
    pub fn rtt_ms(&self) -> f64 {
        self.rtt.as_secs_f64() * 1000.0
    }

    /// The recorded prompt → response table (the probes' captured inputs).
    pub fn answers(&self) -> &HashMap<String, CompletionResponse> {
        &self.answers
    }

    /// Start recording one span per request (the traced block).
    pub fn start_tracing(&self) {
        *self.spans.lock().unwrap_or_else(PoisonError::into_inner) = Some(Vec::new());
    }

    /// Stop recording and hand back the spans, in submit order.
    pub fn stop_tracing(&self) -> Vec<RequestSpan> {
        let mut spans = self
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .unwrap_or_default();
        spans.sort_by_key(|span| span.submit);
        spans
    }

    /// Look the request up, count it, and note when its answer is ready.
    fn answer(&self, request: &CompletionRequest) -> (Result<CompletionResponse>, Instant) {
        let result = match self.answers.get(&request.prompt) {
            Some(response) if default_params(request) => Ok(response.clone()),
            _ => {
                // ordering: Relaxed — statistics counter.
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.sim.complete(request)
            }
        };
        // ordering: Relaxed — statistics counters, read at block boundaries.
        self.requests.fetch_add(1, Ordering::Relaxed);
        if let Ok(response) = &result {
            let tokens = (response.prompt_tokens + response.completion_tokens) as u64;
            // ordering: Relaxed — statistics counter, as above.
            self.tokens.fetch_add(tokens, Ordering::Relaxed);
        }
        let submit = Instant::now();
        let ready_at = submit + self.rtt;
        if let Some(spans) = self
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_mut()
        {
            spans.push(RequestSpan { submit, ready_at });
        }
        (result, ready_at)
    }
}

impl LanguageModel for ReplayLlm {
    fn name(&self) -> String {
        self.sim.name()
    }

    /// Blocking form: the engine still calls it for single-prompt waves.
    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse> {
        let (result, ready_at) = self.answer(request);
        let wait = ready_at.saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        result
    }

    fn submit(&self, request: &CompletionRequest) -> CallHandle {
        let (result, ready_at) = self.answer(request);
        if self.rtt.is_zero() {
            CallHandle::ready(result)
        } else {
            CallHandle::timed(result, ready_at)
        }
    }

    fn supports_async_submit(&self) -> bool {
        true
    }

    fn fingerprint(&self) -> String {
        self.sim.fingerprint()
    }

    fn cost_model(&self) -> LlmCostModel {
        self.sim.cost_model()
    }

    fn relation_cardinality(&self, table: &str) -> Option<u64> {
        self.sim.relation_cardinality(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{generate, Sizes};
    use crate::rng::Rng;
    use llmsql_core::Engine;
    use llmsql_llm::pack_prompts;
    use llmsql_llm::prompt::TaskSpec;
    use llmsql_types::LlmFidelity;

    fn sim() -> (Arc<SimLlm>, Vec<String>) {
        let data = generate(&Rng::new(3), Sizes::scan(40)).unwrap();
        let schema = data.catalog.schema_of("countries").unwrap();
        let kb = Engine::knowledge_from_catalog(&data.catalog).unwrap();
        let sim = Arc::new(SimLlm::new(kb.into_shared(), LlmFidelity::perfect(), 42));
        let names = data.texts("countries", 0).unwrap();
        let page = TaskSpec::RowBatch {
            table: "countries".into(),
            columns: vec!["name".into(), "population".into()],
            filter: Some("population >= 0".into()),
            limit: 10,
            offset: 10,
        };
        let lookups: Vec<String> = names[..4]
            .iter()
            .map(|key| {
                TaskSpec::Lookup {
                    table: "countries".into(),
                    key: key.clone(),
                    columns: vec!["region".into()],
                }
                .to_prompt(Some(&schema))
            })
            .collect();
        let mut prompts = vec![page.to_prompt(Some(&schema)), pack_prompts(&lookups)];
        prompts.extend(lookups);
        (sim, prompts)
    }

    #[test]
    fn replay_is_byte_identical_to_the_simulator_on_recorded_prompts() {
        let (sim, prompts) = sim();
        let recorder = Recorder::new(Arc::clone(&sim));
        for prompt in &prompts {
            recorder
                .complete(&CompletionRequest::new(prompt.as_str()))
                .unwrap();
        }
        let replay = ReplayLlm::new(Arc::clone(&sim), recorder.recording(), 0.0);
        assert!(replay.supports_async_submit());
        assert_eq!(replay.fingerprint(), sim.fingerprint());
        assert_eq!(replay.relation_cardinality("countries"), Some(40));
        let mut tokens = 0;
        for prompt in &prompts {
            let request = CompletionRequest::new(prompt.as_str());
            let expected = sim.complete(&request).unwrap();
            assert_eq!(replay.complete(&request).unwrap(), expected);
            let submitted = replay.submit(&request).poll(Instant::now());
            assert_eq!(submitted.unwrap().unwrap(), expected);
            tokens += 2 * (expected.prompt_tokens + expected.completion_tokens) as u64;
        }
        let counters = replay.counters();
        assert_eq!(counters.requests, 2 * prompts.len() as u64);
        assert_eq!((counters.tokens, counters.misses), (tokens, 0));
    }

    #[test]
    fn a_prompt_outside_the_recording_falls_back_and_counts_as_a_miss() {
        let (sim, prompts) = sim();
        let replay = ReplayLlm::new(Arc::clone(&sim), HashMap::new(), 0.0);
        let request = CompletionRequest::new(prompts[0].as_str());
        assert_eq!(
            replay.complete(&request).unwrap(),
            sim.complete(&request).unwrap()
        );
        assert_eq!(replay.counters().misses, 1);
    }

    #[test]
    fn round_trips_become_timers_and_traced_requests_leave_spans() {
        let (sim, prompts) = sim();
        let recorder = Recorder::new(Arc::clone(&sim));
        let request = CompletionRequest::new(prompts[0].as_str());
        recorder.complete(&request).unwrap();
        let replay = ReplayLlm::new(sim, recorder.recording(), 2.0);
        replay.start_tracing();
        let mut handle = replay.submit(&request);
        let now = Instant::now();
        assert!(handle.poll(now).is_none(), "answer visible before the rtt");
        assert!(handle
            .poll(now + Duration::from_millis(3))
            .is_some_and(|r| r.is_ok()));
        let started = Instant::now();
        replay.complete(&request).unwrap();
        assert!(started.elapsed() >= Duration::from_millis(2));
        let spans = replay.stop_tracing();
        assert_eq!(spans.len(), 2);
        assert!(spans
            .iter()
            .all(|s| s.ready_at - s.submit == Duration::from_millis(2)));
        replay.complete(&request).unwrap();
        assert!(replay.stop_tracing().is_empty());
    }
}
