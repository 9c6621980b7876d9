//! Usage accounting for LLM calls.

use std::fmt;

use crate::model::CompletionResponse;

/// Accumulated usage across a query, session or experiment run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UsageStats {
    /// Number of completions actually issued to the model.
    pub calls: u64,
    /// Completions served from the prompt cache.
    pub cache_hits: u64,
    /// Total prompt tokens sent.
    pub prompt_tokens: u64,
    /// Total completion tokens received.
    pub completion_tokens: u64,
    /// Total simulated dollar cost.
    pub cost_usd: f64,
    /// Total simulated latency in milliseconds (sequential sum).
    pub latency_ms: f64,
}

impl UsageStats {
    /// Record one response.
    pub fn record(&mut self, response: &CompletionResponse) {
        self.calls += 1;
        self.prompt_tokens += response.prompt_tokens as u64;
        self.completion_tokens += response.completion_tokens as u64;
        self.cost_usd += response.cost_usd;
        self.latency_ms += response.latency_ms;
    }

    /// Total tokens in either direction.
    pub fn total_tokens(&self) -> u64 {
        self.prompt_tokens + self.completion_tokens
    }

    /// Add `other`'s totals to these: how a query sums its calls' usage.
    pub fn absorb(&mut self, other: &UsageStats) {
        self.calls += other.calls;
        self.cache_hits += other.cache_hits;
        self.prompt_tokens += other.prompt_tokens;
        self.completion_tokens += other.completion_tokens;
        self.cost_usd += other.cost_usd;
        self.latency_ms += other.latency_ms;
    }
}

impl fmt::Display for UsageStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} calls ({} cached), {} prompt tok, {} completion tok, ${:.4}, {:.0} ms",
            self.calls,
            self.cache_hits,
            self.prompt_tokens,
            self.completion_tokens,
            self.cost_usd,
            self.latency_ms
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(pt: usize, ct: usize) -> CompletionResponse {
        CompletionResponse {
            text: String::new(),
            prompt_tokens: pt,
            completion_tokens: ct,
            latency_ms: 100.0,
            cost_usd: 0.01,
        }
    }

    #[test]
    fn record_accumulates() {
        let mut u = UsageStats::default();
        u.record(&resp(10, 5));
        u.record(&resp(20, 15));
        assert_eq!(u.calls, 2);
        assert_eq!(u.prompt_tokens, 30);
        assert_eq!(u.completion_tokens, 20);
        assert_eq!(u.total_tokens(), 50);
        assert!((u.cost_usd - 0.02).abs() < 1e-12);
        assert!((u.latency_ms - 200.0).abs() < 1e-9);
    }

    #[test]
    fn absorb_adds_every_field() {
        let mut one = UsageStats::default();
        one.record(&resp(10, 10));
        one.cache_hits = 2;
        let mut total = one.clone();
        total.absorb(&one);
        assert_eq!((total.calls, total.cache_hits), (2, 4));
        assert_eq!(total.total_tokens(), 40);
        assert!((total.cost_usd - 0.02).abs() < 1e-12);
        assert!((total.latency_ms - 200.0).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_calls() {
        let mut u = UsageStats::default();
        u.record(&resp(1, 1));
        assert!(u.to_string().contains("1 calls"));
    }
}
