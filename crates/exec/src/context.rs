//! Execution context shared by all operators of one query.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use llmsql_llm::{CallSlots, LlmClient};
use llmsql_store::Catalog;
use llmsql_types::{clock, EngineConfig, Error, Result};

use crate::metrics::ExecMetrics;

/// Everything an operator needs: the catalog, the (optional) LLM client, the
/// engine configuration, the statement, the slot pool and the query's
/// ledger, all but the ledger borrowed from whoever runs the query. One
/// query, one context, one thread: it is neither cloned nor shared.
pub struct ExecContext<'e> {
    /// The catalog resolving table names to stored tables / virtual schemas.
    pub catalog: &'e Catalog,
    /// The language-model client; `None` in pure traditional deployments.
    pub client: Option<&'e LlmClient>,
    /// Engine configuration (mode, strategy, batch size, caps). Its
    /// `deadline_ms` is not read here: the query's effective deadline is
    /// handed to [`ExecContext::new`].
    pub config: &'e EngineConfig,
    /// The text of the statement the plan was built from, if known: what a
    /// full-query prompt sends whole. Without it, every plan runs operator
    /// by operator.
    pub statement: Option<&'e str>,
    /// Global LLM-call slot pool (cross-query admission; see the
    /// [`llmsql_llm::slots`] module docs). `None` outside a scheduler:
    /// dispatch is bounded only by this query's `parallelism`.
    pub slots: Option<&'e Arc<CallSlots>>,
    /// The query's ledger (see [`crate::metrics`]): written through
    /// short-lived borrows by the operators of this query's thread, taken
    /// out with `into_inner` when the query is done.
    pub metrics: RefCell<ExecMetrics>,
    /// When this query's deadline fires, and its budget in milliseconds:
    /// that many milliseconds after the context was created. `None` without
    /// a deadline, and for one past the range an `Instant` can represent,
    /// which no query outlives.
    deadline: Option<(Instant, f64)>,
}

impl<'e> ExecContext<'e> {
    /// Create a context; a deadline of `deadline_ms` starts running now.
    pub fn new(
        catalog: &'e Catalog,
        client: Option<&'e LlmClient>,
        config: &'e EngineConfig,
        deadline_ms: Option<f64>,
    ) -> Self {
        let deadline = deadline_ms.and_then(|ms| {
            let after = Duration::try_from_secs_f64(ms.max(0.0) / 1000.0).ok()?;
            Some((clock::now().checked_add(after)?, ms))
        });
        ExecContext {
            catalog,
            client,
            config,
            statement: None,
            metrics: RefCell::default(),
            slots: None,
            deadline,
        }
    }

    /// Fail the query once its deadline has passed. Scans call this before
    /// admitting a request, so what is already in flight is the most a late
    /// query still pays for. The error carries the partial accounting at the moment of
    /// failure: elapsed time and logical LLM calls already issued.
    pub(crate) fn check_deadline(&self) -> Result<()> {
        match self.deadline {
            Some((at, _)) if clock::now() >= at => Err(self.deadline_error()),
            _ => Ok(()),
        }
    }

    /// The structured `DeadlineExceeded` error with this query's partial
    /// accounting (elapsed time, logical calls issued so far). Used by
    /// [`ExecContext::check_deadline`] at admission and by the scan driver
    /// when the deadline fires while calls are parked mid-flight.
    pub(crate) fn deadline_error(&self) -> Error {
        let (at, deadline_ms) = self.deadline.unwrap_or((clock::now(), 0.0));
        let elapsed_ms = deadline_ms + (clock::now() - at).as_secs_f64() * 1000.0;
        let calls = self.metrics.borrow().llm_calls();
        Error::deadline_exceeded(format!(
            "query exceeded its {deadline_ms:.0}ms deadline after {elapsed_ms:.1}ms \
             with {calls} LLM call(s) issued"
        ))
    }

    /// The instant at which this query's deadline fires, if it has one — the
    /// abort signal handed to the scan's event loop so a thread parked on
    /// in-flight calls still honours the deadline.
    pub(crate) fn deadline_instant(&self) -> Option<Instant> {
        self.deadline.map(|(at, _)| at)
    }

    /// The LLM client, or an error explaining that the query needs one.
    pub fn require_client(&self) -> Result<&'e LlmClient> {
        self.client.ok_or_else(|| {
            Error::execution(
                "this query needs the language-model storage layer but no model is configured",
            )
        })
    }
}
