//! Query tickets: the handle a submitter holds while the scheduler runs (or
//! queues) their query, and the outcome it resolves to.

use std::sync::{Arc, Mutex};

use llmsql_core::QueryResult;
use llmsql_types::{clock, Incomplete, Priority, Result, TenantId};

/// Everything known about one scheduled query once it finished.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Tenant the query was submitted under.
    pub tenant: TenantId,
    /// Priority it was submitted with.
    pub priority: Priority,
    /// The query's result (or the error it failed with).
    pub result: Result<QueryResult>,
    /// Time between admission and the query starting to run, milliseconds.
    pub queue_ms: f64,
    /// Wall-clock execution time, milliseconds.
    pub run_ms: f64,
    /// Time the query's workers spent blocked waiting for global LLM-call
    /// slots (copied from `ExecMetrics::slot_wait_ms`), milliseconds.
    pub slot_wait_ms: f64,
    /// Logical LLM calls the query issued.
    pub llm_calls: u64,
    /// Set when the query was cut short under graceful degradation
    /// (`EngineConfig::with_partial_results`): the result's rows are a
    /// prefix of the full answer and this marker carries the triggering fault
    /// plus the rows/calls accounting at the cut. Copied from
    /// `ExecMetrics::incomplete` so QoS layers see it without digging
    /// through the metrics.
    pub incomplete: Option<Incomplete>,
    /// Global completion ordinal (1 = first query the scheduler finished).
    /// Fairness and starvation tests key off this.
    pub finish_seq: u64,
}

/// Shared slot the worker fulfills and the ticket holder waits on.
pub(crate) struct TicketState {
    slot: Mutex<Slot>,
}

/// The outcome once it is in, and the thread parked waiting for it.
#[derive(Default)]
struct Slot {
    outcome: Option<QueryOutcome>,
    waiter: Option<clock::Unparker>,
}

impl TicketState {
    pub(crate) fn new() -> Arc<TicketState> {
        Arc::new(TicketState {
            slot: Mutex::default(),
        })
    }

    /// Deliver the outcome and wake the waiter. Called exactly once.
    pub(crate) fn fulfill(&self, outcome: QueryOutcome) {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert!(slot.outcome.is_none(), "ticket fulfilled twice");
        slot.outcome = Some(outcome);
        if let Some(waiter) = slot.waiter.take() {
            waiter.unpark();
        }
    }

    fn wait(&self) -> QueryOutcome {
        loop {
            let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(outcome) = slot.outcome.take() {
                return outcome;
            }
            slot.waiter = Some(clock::unparker());
            drop(slot);
            clock::park_until(None);
        }
    }
}

/// Handle for one submitted query. Obtain with `QueryScheduler::submit`;
/// consume with [`QueryTicket::wait`].
///
/// Dropping a ticket without waiting is fine — the query still runs (the
/// scheduler never cancels admitted work), its outcome is simply discarded.
pub struct QueryTicket {
    pub(crate) state: Arc<TicketState>,
    pub(crate) id: u64,
    pub(crate) tenant: TenantId,
}

impl std::fmt::Debug for QueryTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryTicket")
            .field("id", &self.id)
            .field("tenant", &self.tenant)
            .finish_non_exhaustive()
    }
}

impl QueryTicket {
    /// The scheduler-assigned query id (admission order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block until the query completes and take its [`QueryOutcome`].
    pub fn wait(self) -> QueryOutcome {
        self.state.wait()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(finish_seq: u64) -> QueryOutcome {
        QueryOutcome {
            tenant: "t".to_string(),
            priority: Priority::NORMAL,
            result: Ok(QueryResult::default()),
            queue_ms: 0.0,
            run_ms: 0.0,
            slot_wait_ms: 0.0,
            llm_calls: 0,
            incomplete: None,
            finish_seq,
        }
    }

    #[test]
    fn fulfill_then_wait_returns_outcome() {
        let state = TicketState::new();
        state.fulfill(outcome(7));
        let ticket = QueryTicket {
            state,
            id: 1,
            tenant: "t".to_string(),
        };
        assert_eq!(ticket.id(), 1);
        assert_eq!(ticket.wait().finish_seq, 7);
    }

    #[test]
    fn wait_blocks_until_fulfilled() {
        let state = TicketState::new();
        let ticket = QueryTicket {
            state: Arc::clone(&state),
            id: 1,
            tenant: "t".to_string(),
        };
        let waiter = std::thread::spawn(move || ticket.wait().finish_seq);
        std::thread::sleep(std::time::Duration::from_millis(20));
        state.fulfill(outcome(3));
        assert_eq!(waiter.join().unwrap(), 3);
    }
}
