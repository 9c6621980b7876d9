//! Prompt coalescing: the single-flight table that dedups identical
//! in-flight requests — within one client, or *across* clients and queries.
//!
//! Every [`crate::model::ClientCall`] whose client carries a
//! [`PromptCoalescer`] claims its request key here after a cache miss and
//! before dispatching. The first claimant (the **leader**) issues the
//! physical call; concurrent claimants of the same key (**followers**) park
//! on the entry and receive the leader's successful response — the same
//! `Arc<CompletionResponse>` the leader returns and its cache holds, never a
//! copy of the text — zero physical calls, while each query still records
//! its own *logical* call. A follower registers its thread on the entry, and
//! resolving the entry wakes every registered thread. This is the only in-flight table there is: a
//! cached client owns a private one, so the waves of one query never pay
//! twice for one prompt, and a scheduler swaps in one table for the whole
//! deployment (`LlmClient::set_coalescer`), which lifts the same dedup
//! across queries.
//!
//! The accounting contract:
//!
//! * Logical call counts (`ExecMetrics::llm_calls`, tenant charges) are
//!   recorded at wave-planning time, before coalescing — byte-identical with
//!   the coalescer on or off.
//! * Physical calls (`UsageStats::calls`, backend counters) are recorded
//!   only by leaders. Followers record nothing.
//! * Only **successes** fan out. A leader that fails (or is dropped
//!   mid-flight) abandons the entry; followers re-claim and issue their own
//!   physical call, so per-query retry/error semantics are unchanged.
//! * Entries are removed the moment they resolve: coalescing joins requests
//!   that are in flight *at the same time*, it is not a response cache.
//!
//! The table is keyed by [`RequestKey`], the request text hashed once where
//! the client built it: claiming and resolving reuse that hash, the guard
//! keeps a reference to the key rather than a copy, and two requests share a
//! flight only when their full text is equal — never on a hash match alone
//! (see [`crate::key`]). There is one map behind one lock, so the hash only
//! ever picks a bucket.

use std::collections::hash_map::Entry;
use std::sync::Arc;

use llmsql_types::{clock, Result};
use parking_lot::Mutex;

use crate::key::{KeyMap, RequestKey};
use crate::model::CompletionResponse;

/// The state of one in-flight coalescing entry. Followers hold an `Arc` to
/// it and poll; the leader resolves it exactly once.
enum EntryState {
    /// The leader's physical call is still in flight; the threads of the
    /// followers that found it so wait to be woken when it resolves.
    Pending(Vec<clock::Unparker>),
    /// The leader completed successfully; followers share this response.
    Done(Arc<CompletionResponse>),
    /// The leader failed or was dropped. Followers must re-claim the key
    /// (the entry is already unlinked from the table).
    Abandoned,
}

/// One in-flight dedup entry, shared between the leader and its followers.
pub struct CoalesceEntry {
    state: Mutex<EntryState>,
}

/// What a follower observed when polling its entry.
pub enum FollowerPoll {
    /// The leader is still in flight; the calling thread is woken when it
    /// resolves.
    Pending,
    /// The leader succeeded: here is its response, shared.
    Ready(Arc<CompletionResponse>),
    /// The leader failed or vanished; re-claim the key.
    Abandoned,
}

impl CoalesceEntry {
    /// Non-blocking follower poll. A pending entry registers the calling
    /// thread, to be unparked when the entry resolves.
    pub fn poll(&self) -> FollowerPoll {
        match &mut *self.state.lock() {
            EntryState::Pending(waiters) => {
                clock::enlist(waiters);
                FollowerPoll::Pending
            }
            EntryState::Done(response) => FollowerPoll::Ready(Arc::clone(response)),
            EntryState::Abandoned => FollowerPoll::Abandoned,
        }
    }
}

/// The single-flight table. Cheap to share (`Arc`): one per client, or one
/// per scheduler/deployment.
#[derive(Default)]
pub struct PromptCoalescer {
    entries: Mutex<KeyMap<Arc<CoalesceEntry>>>,
    /// Lifetime counters (leaders claimed / followers served), advisory.
    stats: Mutex<CoalesceStats>,
}

/// Advisory lifetime counters of a [`PromptCoalescer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Requests that claimed leadership (issued a physical call).
    pub leaders: u64,
    /// Requests served the leader's fanned-out answer (zero physical calls).
    pub followers_served: u64,
}

/// The outcome of claiming a key.
pub enum Claim {
    /// This request leads: issue the physical call, then resolve the guard.
    Leader(CoalesceGuard),
    /// An identical request is already in flight: park on the entry.
    Follower(Arc<CoalesceEntry>),
}

impl PromptCoalescer {
    /// Create an empty coalescer.
    pub fn new() -> Self {
        PromptCoalescer::default()
    }

    /// Claim `key`: the first claimant becomes the leader, concurrent
    /// claimants become followers of the leader's entry.
    pub fn claim(self: &Arc<Self>, key: impl Into<RequestKey>) -> Claim {
        let claim = match self.entries.lock().entry(key.into()) {
            Entry::Occupied(flight) => Claim::Follower(Arc::clone(flight.get())),
            Entry::Vacant(free) => {
                let entry = Arc::new(CoalesceEntry {
                    state: Mutex::new(EntryState::Pending(Vec::new())),
                });
                let key = free.key().clone();
                free.insert(Arc::clone(&entry));
                Claim::Leader(CoalesceGuard {
                    coalescer: Arc::clone(self),
                    key,
                    entry: Some(entry),
                })
            }
        };
        let mut stats = self.stats.lock();
        match claim {
            Claim::Leader(_) => stats.leaders += 1,
            Claim::Follower(_) => stats.followers_served += 1,
        }
        drop(stats);
        claim
    }

    /// Advisory lifetime counters.
    pub fn stats(&self) -> CoalesceStats {
        *self.stats.lock()
    }

    /// Entries currently in flight (leaders without a resolution yet).
    pub fn in_flight(&self) -> usize {
        self.entries.lock().len()
    }

    /// Unlink `key`, resolve `entry` to `state` and wake its followers.
    fn resolve(&self, key: &RequestKey, entry: &CoalesceEntry, state: EntryState) {
        // Unlink first so late claimants start a fresh flight rather than
        // following a resolved entry (coalescing is not a cache).
        self.entries.lock().remove(key);
        let resolved = std::mem::replace(&mut *entry.state.lock(), state);
        if let EntryState::Pending(waiters) = resolved {
            waiters.iter().for_each(clock::Unparker::unpark);
        }
    }
}

/// Leadership over one in-flight key. The leader must call
/// [`CoalesceGuard::publish`] with its outcome; dropping the guard without
/// publishing (or publishing an error) abandons the entry so followers
/// re-claim and issue their own calls.
pub struct CoalesceGuard {
    coalescer: Arc<PromptCoalescer>,
    key: RequestKey,
    entry: Option<Arc<CoalesceEntry>>,
}

impl CoalesceGuard {
    /// Resolve the entry with the leader's outcome: successes fan out to
    /// every follower, failures abandon the entry (followers retry on their
    /// own physical calls, preserving per-query error semantics). A leader
    /// holding an `Arc<CompletionResponse>` shares it (the clone below is a
    /// reference-count bump); a caller that lends an owned response has it
    /// copied into a new one.
    pub fn publish<R>(mut self, outcome: &Result<R>)
    where
        R: Clone + Into<Arc<CompletionResponse>>,
    {
        if let Some(entry) = self.entry.take() {
            let state = match outcome {
                Ok(response) => EntryState::Done(response.clone().into()),
                Err(_) => EntryState::Abandoned,
            };
            self.coalescer.resolve(&self.key, &entry, state);
        }
    }
}

impl Drop for CoalesceGuard {
    fn drop(&mut self) {
        if let Some(entry) = self.entry.take() {
            self.coalescer
                .resolve(&self.key, &entry, EntryState::Abandoned);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(text: &str) -> CompletionResponse {
        CompletionResponse {
            text: text.to_string(),
            prompt_tokens: 1,
            completion_tokens: 1,
            latency_ms: 0.0,
            cost_usd: 0.0,
        }
    }

    #[test]
    fn followers_receive_the_leaders_success() {
        let co = Arc::new(PromptCoalescer::new());
        let Claim::Leader(guard) = co.claim("k") else {
            panic!("first claim must lead");
        };
        let Claim::Follower(entry) = co.claim("k") else {
            panic!("second claim must follow");
        };
        assert!(matches!(entry.poll(), FollowerPoll::Pending));
        guard.publish(&Ok(response("answer")));
        match entry.poll() {
            FollowerPoll::Ready(r) => assert_eq!(r.text, "answer"),
            _ => panic!("follower must see the published response"),
        }
        assert_eq!(co.stats().leaders, 1);
        assert_eq!(co.stats().followers_served, 1);
        assert_eq!(co.in_flight(), 0);
    }

    #[test]
    fn a_shared_answer_is_published_without_a_copy() {
        let co = Arc::new(PromptCoalescer::new());
        let Claim::Leader(guard) = co.claim("k") else {
            panic!("first claim must lead");
        };
        let Claim::Follower(entry) = co.claim("k") else {
            panic!("second claim must follow");
        };
        let answer = Arc::new(response("answer"));
        guard.publish(&Ok(Arc::clone(&answer)));
        for _ in 0..2 {
            match entry.poll() {
                FollowerPoll::Ready(r) => assert!(Arc::ptr_eq(&r, &answer)),
                _ => panic!("follower must see the published response"),
            }
        }
    }

    #[test]
    fn failures_abandon_and_followers_reclaim() {
        let co = Arc::new(PromptCoalescer::new());
        let Claim::Leader(guard) = co.claim("k") else {
            panic!("first claim must lead");
        };
        let Claim::Follower(entry) = co.claim("k") else {
            panic!("second claim must follow");
        };
        guard.publish::<CompletionResponse>(&Err(llmsql_types::Error::llm("backend down")));
        assert!(matches!(entry.poll(), FollowerPoll::Abandoned));
        // The key is free again: the former follower can lead a retry.
        assert!(matches!(co.claim("k"), Claim::Leader(_)));
    }

    #[test]
    fn dropping_the_guard_abandons_the_entry() {
        let co = Arc::new(PromptCoalescer::new());
        let Claim::Leader(guard) = co.claim("k") else {
            panic!("first claim must lead");
        };
        let Claim::Follower(entry) = co.claim("k") else {
            panic!("second claim must follow");
        };
        drop(guard);
        assert!(matches!(entry.poll(), FollowerPoll::Abandoned));
        assert_eq!(co.in_flight(), 0);
    }

    #[test]
    fn resolved_entries_do_not_cache() {
        let co = Arc::new(PromptCoalescer::new());
        let Claim::Leader(guard) = co.claim("k") else {
            panic!("first claim must lead");
        };
        guard.publish(&Ok(response("a")));
        // The flight resolved; a later identical request starts fresh.
        assert!(matches!(co.claim("k"), Claim::Leader(_)));
    }

    #[test]
    fn keys_that_share_a_hash_lead_independently() {
        let co = Arc::new(PromptCoalescer::new());
        let one = RequestKey::with_hash(42, "one prompt");
        let other = RequestKey::with_hash(42, "another prompt");
        let Claim::Leader(guard_one) = co.claim(&one) else {
            panic!("first claim of one key must lead");
        };
        let Claim::Leader(guard_other) = co.claim(&other) else {
            panic!("a hash match made a follower of another prompt");
        };
        let Claim::Follower(entry) = co.claim(&one) else {
            panic!("an equal key must follow");
        };
        assert_eq!(co.in_flight(), 2);
        guard_other.publish(&Ok(response("another answer")));
        assert!(matches!(entry.poll(), FollowerPoll::Pending));
        guard_one.publish(&Ok(response("one answer")));
        match entry.poll() {
            FollowerPoll::Ready(r) => assert_eq!(r.text, "one answer"),
            _ => panic!("follower must see its own leader's response"),
        }
        assert_eq!(co.in_flight(), 0);
    }

    #[test]
    fn distinct_keys_lead_independently() {
        let co = Arc::new(PromptCoalescer::new());
        let Claim::Leader(guard_a) = co.claim("a") else {
            panic!("first claim of 'a' must lead");
        };
        let Claim::Leader(guard_b) = co.claim("b") else {
            panic!("first claim of 'b' must lead");
        };
        assert_eq!(co.in_flight(), 2);
        guard_a.publish(&Ok(response("a")));
        guard_b.publish(&Ok(response("b")));
        assert_eq!(co.in_flight(), 0);
    }
}
