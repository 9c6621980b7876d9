//! What one query did: the ledger its execution fills in.
//!
//! [`ExecMetrics`] is a plain value. The query's [`crate::ExecContext`] owns
//! it, only the query's thread writes it, and the result carries it out. The
//! one rule of accounting: a per-query number is written by the query's own
//! calls — each request folds what it itself did into the ledger as it leaves
//! the scan's event loop, resolved or cancelled — and a deployment number by
//! the shared object that counts it (`LlmClient::usage`,
//! `BackendPool::stats`, the scheduler's `SchedStats`). Neither is ever
//! derived from the other by subtraction, so a query's bill does not depend
//! on what its neighbours did meanwhile, and at quiescence the bills of all
//! queries sum to the deployment's counters.

use std::collections::BTreeMap;
use std::fmt;

use llmsql_llm::{ClientCall, UsageStats};
use llmsql_types::Incomplete;

/// Actuals for one executed plan node, reported by `EXPLAIN ANALYZE`.
///
/// `llm_calls` and `wall_ms` are *inclusive* of the node's children (the
/// executor recurses operator-at-a-time, so a parent's interval covers its
/// subtree); `rows_out` is the node's own output.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpStats {
    /// Rows this operator emitted.
    pub rows_out: u64,
    /// LLM calls issued while this operator (and its subtree) ran.
    pub llm_calls: u64,
    /// Wall-clock time this operator (and its subtree) took, milliseconds.
    pub wall_ms: f64,
}

/// The ledger of one query execution (see the module docs for who writes
/// it).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecMetrics {
    /// Rows read from materialized tables.
    pub rows_from_store: u64,
    /// Rows materialized from LLM completions.
    pub rows_from_llm: u64,
    /// Rows emitted by the root operator.
    pub rows_output: u64,
    /// Completion lines the tolerant parsers had to drop.
    pub dropped_lines: u64,
    /// NULL cells filled from the model by hybrid scans.
    pub cells_filled_by_llm: u64,
    /// Highest number of this query's LLM requests that were on its event
    /// loop at the same time (1 under sequential dispatch, up to
    /// `EngineConfig::parallelism` under concurrent dispatch).
    pub peak_in_flight: u64,
    /// Dispatches that went through a shared cross-query slot pool.
    pub slot_waits: u64,
    /// Hedged requests this query's calls issued: duplicates of a late
    /// in-flight request sent to a sibling backend. Hedges are physical
    /// attempts — they never consume the logical call budget
    /// (`max_llm_calls`), like retries — but each held a call slot while in
    /// flight.
    pub hedges_issued: u64,
    /// Hedges whose response beat the late primary (each one shaved the
    /// difference off a tail latency).
    pub hedges_won: u64,
    /// Logical calls served by deployment-scope coalescing: an identical
    /// request (possibly from another query of the deployment) was
    /// already in flight, and its successful response fanned out here. These
    /// calls are counted in `llm_calls_by_kind` like any other — the logical
    /// budget is charged — but issued zero physical requests.
    pub coalesced_calls: u64,
    /// Per-tuple prompts that rode a packed composite request (tuple
    /// batching, `EngineConfig::batch_rows_per_call`): each counts one
    /// logical call but shared a single physical request with its chunk
    /// neighbours. Single-member chunks are not counted.
    pub batched_rows: u64,
    /// Total time this query's workers spent blocked waiting for a global
    /// LLM-call slot, milliseconds (0 outside a scheduler). High values mean
    /// the deployment's slot pool, not this query's parallelism, is the
    /// bottleneck.
    pub slot_wait_ms: f64,
    /// LLM prompts issued, by task kind ("row_batch", "lookup", ...).
    pub llm_calls_by_kind: BTreeMap<String, u64>,
    /// What the model served this query's requests: completions and their
    /// tokens, dollars and reported latency, and cache hits. A request
    /// answered by another query's identical in-flight one is in
    /// `coalesced_calls` instead — only the leader pays — and a request
    /// cancelled before its answer landed paid nothing. Summed over the
    /// queries of a deployment it is the client's `LlmClient::usage`,
    /// whatever ran concurrently.
    pub usage: UsageStats,
    /// Physical attempts this query's requests made, per backend of the pool
    /// (multi-backend deployments only). Failed attempts, retries, hedges
    /// and the attempts of requests cancelled mid-flight are all in, so the
    /// sum can exceed [`ExecMetrics::llm_calls`], which counts *logical*
    /// prompts. This map and the two below name every backend a request was
    /// routed over, those it never reached at zero.
    pub backend_calls: BTreeMap<String, u64>,
    /// Failed attempts per backend.
    pub backend_errors: BTreeMap<String, u64>,
    /// Reported completion latency accumulated per backend, milliseconds.
    pub backend_latency_ms: BTreeMap<String, f64>,
    /// Per-operator actuals, keyed by the node's pre-order path (`"0"` =
    /// root, `"0.1"` = its second child — the same scheme the static cost
    /// model uses, so `EXPLAIN ANALYZE` can join estimates to actuals).
    pub op_stats: BTreeMap<String, OpStats>,
    /// Set when graceful degradation cut this query short
    /// (`EngineConfig::with_partial_results`): the rows produced are an
    /// exact prefix of the full result, and this marker carries
    /// the triggering fault plus the accounting at the moment of the cut.
    /// `None` = the result is complete.
    pub incomplete: Option<Incomplete>,
}

impl ExecMetrics {
    /// Total LLM prompts issued (all kinds).
    pub fn llm_calls(&self) -> u64 {
        self.llm_calls_by_kind.values().sum()
    }

    /// Record one LLM prompt of the given kind.
    pub fn record_llm_call(&mut self, kind: &str) {
        add(&mut self.llm_calls_by_kind, kind, 1);
    }

    /// Fold in what one request did, as it leaves the scan's event loop —
    /// answered, failed or cancelled mid-flight: what the model served it,
    /// whether another query's flight answered it, its own attempts on each
    /// backend of the pool, and the call slot it was granted after waiting
    /// `slot_wait_us` for it (`None` = it never went through a slot pool).
    /// This is the only writer of the fields it touches.
    pub fn record_request(&mut self, call: &ClientCall, slot_wait_us: Option<u64>) {
        self.usage.absorb(call.usage());
        self.coalesced_calls += u64::from(call.coalesced());
        if let Some(waited_us) = slot_wait_us {
            self.slot_waits += 1;
            self.slot_wait_ms += waited_us as f64 / 1000.0;
        }
        call.backend_receipts(&mut |backend, receipt| {
            add(&mut self.backend_calls, backend, receipt.calls);
            add(&mut self.backend_errors, backend, receipt.errors);
            add(&mut self.backend_latency_ms, backend, receipt.latency_ms);
            self.hedges_issued += receipt.hedges;
            self.hedges_won += receipt.hedges_won;
        });
    }
}

/// Add `n` to `name`'s total. The name is copied only the first time it is
/// seen: a scan records hundreds of prompts of one kind, and a pooled one
/// as many receipts per backend.
fn add<T: std::ops::AddAssign>(totals: &mut BTreeMap<String, T>, name: &str, n: T) {
    match totals.get_mut(name) {
        Some(total) => *total += n,
        None => {
            totals.insert(name.to_string(), n);
        }
    }
}

impl fmt::Display for ExecMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "store_rows={} llm_rows={} out_rows={} llm_calls={} dropped={} filled={} peak_in_flight={}",
            self.rows_from_store,
            self.rows_from_llm,
            self.rows_output,
            self.llm_calls(),
            self.dropped_lines,
            self.cells_filled_by_llm,
            self.peak_in_flight
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_total() {
        let mut m = ExecMetrics::default();
        m.record_llm_call("row_batch");
        m.record_llm_call("row_batch");
        m.record_llm_call("lookup");
        assert_eq!(m.llm_calls(), 3);
        assert_eq!(m.llm_calls_by_kind["row_batch"], 2);
        assert!(m.to_string().contains("llm_calls=3"));
    }
}
