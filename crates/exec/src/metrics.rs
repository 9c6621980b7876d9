//! Execution metrics collected while a query runs.
//!
//! Counter updates funnel through [`SharedMetrics`], which operators on any
//! worker thread can clone and update concurrently. In-flight request
//! tracking is lock-free (`AtomicU64`) so it can sit directly on the LLM
//! dispatch hot path.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use llmsql_types::Incomplete;
use parking_lot::Mutex;

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

/// Metrics for one query execution.
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
    /// Highest number of LLM requests that were in flight at the same time
    /// (1 under sequential dispatch, up to `EngineConfig::parallelism` under
    /// concurrent dispatch).
    pub peak_in_flight: u64,
    /// Dispatches that went through a shared cross-query slot pool.
    pub slot_waits: u64,
    /// Hedged requests issued while this query ran: duplicates of a late
    /// in-flight request sent to a sibling backend. Hedges are physical
    /// attempts — they never consume the logical call budget
    /// (`max_llm_calls`), like retries — but each held a call slot while in
    /// flight. Exact for a standalone engine; a deployment-wide delta under
    /// a scheduler (see [`crate::ExecContext::sync_backend_metrics`]).
    pub hedges_issued: u64,
    /// Hedges whose response beat the late primary (each one shaved the
    /// difference off a tail latency). Exact for a standalone engine; a
    /// deployment-wide delta under a scheduler.
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
    /// Physical attempts per backend (multi-backend deployments only;
    /// includes failed attempts and retries, so the sum can exceed
    /// [`ExecMetrics::llm_calls`], which counts *logical* prompts). Like the
    /// two maps below, a delta of the *pool's* counter over the query's
    /// lifetime: exact for a standalone engine; a deployment-wide delta
    /// under a scheduler (see [`crate::ExecContext::sync_backend_metrics`]).
    pub backend_calls: BTreeMap<String, u64>,
    /// Failed attempts per backend. Exact for a standalone engine; a
    /// deployment-wide delta under a scheduler.
    pub backend_errors: BTreeMap<String, u64>,
    /// Reported completion latency accumulated per backend, milliseconds.
    /// Exact for a standalone engine; a deployment-wide delta under a
    /// scheduler.
    pub backend_latency_ms: BTreeMap<String, f64>,
    /// Plan nodes executed, by operator name.
    pub operators: BTreeMap<String, u64>,
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
        bump(&mut self.llm_calls_by_kind, kind);
    }

    /// Record an executed operator.
    pub fn record_operator(&mut self, name: &str) {
        bump(&mut self.operators, name);
    }
}

/// Count one more `name`. The name is copied only the first time it is
/// seen: a scan records hundreds of prompts of one kind.
fn bump(counts: &mut BTreeMap<String, u64>, name: &str) {
    match counts.get_mut(name) {
        Some(count) => *count += 1,
        None => {
            counts.insert(name.to_string(), 1);
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

/// A shared, thread-safe metrics handle.
#[derive(Clone, Default)]
pub struct SharedMetrics {
    inner: Arc<Mutex<ExecMetrics>>,
    in_flight: Arc<AtomicU64>,
    peak_in_flight: Arc<AtomicU64>,
}

impl SharedMetrics {
    /// Create a fresh handle.
    pub fn new() -> Self {
        SharedMetrics::default()
    }

    /// Run a closure with mutable access to the metrics.
    pub fn update(&self, f: impl FnOnce(&mut ExecMetrics)) {
        f(&mut self.inner.lock());
    }

    /// Total LLM calls recorded so far, without cloning the metrics (cheap
    /// enough for per-request budget checks on the dispatch hot path).
    pub fn llm_call_count(&self) -> u64 {
        self.inner.lock().llm_calls()
    }

    /// Snapshot the current metrics (including the in-flight peak).
    pub fn snapshot(&self) -> ExecMetrics {
        let mut m = self.inner.lock().clone();
        // ordering: SeqCst — the in-flight gauge pairs increments with peak
        // observation across threads; SeqCst keeps gauge and peak totally
        // ordered so a snapshot can never report peak < a gauge value some
        // thread already observed. Cold path (snapshots), cost irrelevant.
        m.peak_in_flight = m
            .peak_in_flight
            .max(self.peak_in_flight.load(Ordering::SeqCst));
        m
    }

    /// Mark one LLM request as in flight; the returned guard decrements the
    /// gauge on drop. The observed maximum is reported as
    /// [`ExecMetrics::peak_in_flight`].
    pub fn track_in_flight(&self) -> InFlightGuard {
        // ordering: SeqCst — increment and peak update must appear in one
        // total order with the decrements in InFlightGuard::drop, so the
        // recorded peak equals the true maximum concurrency (the
        // parallel-pipeline tests assert exact peaks).
        let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak_in_flight.fetch_max(now, Ordering::SeqCst);
        InFlightGuard {
            in_flight: Arc::clone(&self.in_flight),
        }
    }

    /// Requests currently in flight (0 when idle).
    pub fn in_flight(&self) -> u64 {
        // ordering: SeqCst — read in the same total order as the gauge
        // updates above; cold path, cost irrelevant.
        self.in_flight.load(Ordering::SeqCst)
    }
}

/// RAII guard for one in-flight LLM request.
pub struct InFlightGuard {
    in_flight: Arc<AtomicU64>,
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        // ordering: SeqCst — pairs with the fetch_add in track_in_flight;
        // see the peak-accuracy note there.
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
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
        m.record_operator("Filter");
        assert_eq!(m.llm_calls(), 3);
        assert_eq!(m.llm_calls_by_kind["row_batch"], 2);
        assert_eq!(m.operators["Filter"], 1);
        assert!(m.to_string().contains("llm_calls=3"));
    }

    #[test]
    fn shared_handle() {
        let shared = SharedMetrics::new();
        let clone = shared.clone();
        clone.update(|m| m.rows_output = 9);
        assert_eq!(shared.snapshot().rows_output, 9);
    }

    #[test]
    fn in_flight_gauge_tracks_peak() {
        let shared = SharedMetrics::new();
        assert_eq!(shared.in_flight(), 0);
        {
            let _a = shared.track_in_flight();
            let _b = shared.track_in_flight();
            assert_eq!(shared.in_flight(), 2);
            {
                let _c = shared.track_in_flight();
                assert_eq!(shared.in_flight(), 3);
            }
            assert_eq!(shared.in_flight(), 2);
        }
        assert_eq!(shared.in_flight(), 0);
        assert_eq!(shared.snapshot().peak_in_flight, 3);
    }

    #[test]
    fn peak_survives_across_threads() {
        let shared = SharedMetrics::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let handle = shared.clone();
                scope.spawn(move || {
                    let _g = handle.track_in_flight();
                    std::thread::sleep(std::time::Duration::from_millis(20));
                });
            }
        });
        assert!(shared.snapshot().peak_in_flight >= 2);
        assert_eq!(shared.in_flight(), 0);
    }
}
