//! Execution context shared by all operators of one query.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use llmsql_llm::{CallSlots, LlmClient};
use llmsql_store::Catalog;
use llmsql_types::{EngineConfig, Error, Result};

use crate::metrics::ExecMetrics;

/// Everything an operator needs: the catalog, the (optional) LLM client, the
/// engine configuration and the query's ledger. One query, one context, one
/// thread: it is neither cloned nor shared.
pub struct ExecContext {
    /// The catalog resolving table names to stored tables / virtual schemas.
    pub catalog: Catalog,
    /// The language-model client; `None` in pure traditional deployments.
    pub client: Option<LlmClient>,
    /// Engine configuration (mode, strategy, batch size, caps).
    pub config: EngineConfig,
    /// The query's ledger (see [`crate::metrics`]): written through
    /// short-lived borrows by the operators of this query's thread, taken
    /// out with `into_inner` when the query is done.
    pub metrics: RefCell<ExecMetrics>,
    /// Global LLM-call slot pool (cross-query admission). `None` outside a
    /// scheduler: dispatch is bounded only by this query's `parallelism`.
    slots: Option<Arc<CallSlots>>,
    /// When this query started executing — the anchor for
    /// `EngineConfig::deadline_ms` (see [`ExecContext::check_deadline`]).
    started: Instant,
}

impl ExecContext {
    /// Create a context.
    pub fn new(catalog: Catalog, client: Option<LlmClient>, config: EngineConfig) -> Self {
        ExecContext {
            catalog,
            client,
            config,
            metrics: RefCell::default(),
            slots: None,
            started: Instant::now(),
        }
    }

    /// Fail the query once its deadline has passed. Scans call this before
    /// admitting a request, so what is already in flight is the most a late
    /// query still pays for. The error carries the partial accounting at the moment of
    /// failure: elapsed wall time and logical LLM calls already issued.
    pub fn check_deadline(&self) -> Result<()> {
        let Some(deadline_ms) = self.config.deadline_ms else {
            return Ok(());
        };
        let elapsed_ms = self.started.elapsed().as_secs_f64() * 1000.0;
        if elapsed_ms > deadline_ms {
            return Err(self.deadline_error());
        }
        Ok(())
    }

    /// The structured `DeadlineExceeded` error with this query's partial
    /// accounting (elapsed wall time, logical calls issued so far). Used by
    /// [`ExecContext::check_deadline`] at admission and by the scan driver
    /// when the deadline fires while calls are parked mid-flight.
    pub fn deadline_error(&self) -> Error {
        let deadline_ms = self.config.deadline_ms.unwrap_or(0.0);
        let elapsed_ms = self.started.elapsed().as_secs_f64() * 1000.0;
        let calls = self.metrics.borrow().llm_calls();
        Error::deadline_exceeded(format!(
            "query exceeded its {deadline_ms:.0}ms deadline after {elapsed_ms:.1}ms \
             with {calls} LLM call(s) issued"
        ))
    }

    /// The wall-clock instant at which this query's deadline fires, if one
    /// is configured — the abort signal handed to the scan's event loop so a
    /// thread parked on in-flight calls still honours the deadline.
    pub fn deadline_instant(&self) -> Option<std::time::Instant> {
        self.config
            .deadline_ms
            .map(|ms| self.started + std::time::Duration::from_secs_f64(ms.max(0.0) / 1000.0))
    }

    /// Builder-style: throttle this query's LLM dispatch through a shared
    /// [`CallSlots`] pool (see the [`llmsql_llm::slots`] module docs for the
    /// contract). Prompt planning is unaffected — only dispatch timing is.
    pub fn with_slots(mut self, slots: Arc<CallSlots>) -> Self {
        self.slots = Some(slots);
        self
    }

    /// The attached global slot pool, if any (dispatch acquires from it
    /// without blocking, one slot per request in flight).
    pub(crate) fn slots(&self) -> Option<&Arc<CallSlots>> {
        self.slots.as_ref()
    }

    /// The LLM client, or an error explaining that the query needs one.
    pub fn require_client(&self) -> Result<&LlmClient> {
        self.client.as_ref().ok_or_else(|| {
            Error::execution(
                "this query needs the language-model storage layer but no model is configured",
            )
        })
    }

    /// The scan-concurrency knob: how many LLM requests one scan may keep in
    /// flight at a time (never zero).
    pub fn scan_fanout(&self) -> usize {
        self.config.parallelism.max(1)
    }
}
