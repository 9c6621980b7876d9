//! The request table: one entry per request key, for the answer cache and
//! the single-flight table alike.
//!
//! A [`crate::ClientCall`] claims its [`RequestKey`] here once, before any
//! dispatch ([`Claim`]): a **hit** takes the published answer, a
//! **follower** waits on the [`Flight`] in progress for its leader's own
//! `Arc<Answer>`, and a **leader** makes the one physical call and publishes
//! the outcome. A caching table keeps a success as a hit; one that is not a
//! cache unlinks it. A failure is unlinked, and the followers claim again.
//!
//! The single-flight accounting contract:
//!
//! * Logical calls (`ExecMetrics::llm_calls`, tenant charges) are counted
//!   when a wave is planned, before any lookup, with a table or without.
//! * Physical calls (`UsageStats::calls`, backend counters) are recorded by
//!   leaders only; a hit counts `UsageStats::cache_hits`, a follower nothing.
//! * Only successes fan out: a follower of a failed or dropped leader claims
//!   again and makes its own call, so retries and errors stay per query.

use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::Poll;

use llmsql_types::{clock, Result};
use parking_lot::{Mutex, RwLock};

use crate::key::{KeyMap, RequestKey};
use crate::parse::Answer;

const SHARDS: usize = 16;

/// The prompt cache's old name. `PromptCache::new()` keeps only what `put`
/// stores; a table that caches published answers is [`RequestTable::caching`].
pub type PromptCache = RequestTable;
/// The single-flight table's old name: [`RequestTable::new`] keeps no answer.
pub type PromptCoalescer = RequestTable;

/// A published answer, or a flight in progress (only its guard removes it).
type Slot = std::result::Result<Arc<Answer>, Arc<Flight>>;

/// One leader's call, shared with the followers that found it in flight:
/// `Err` with the threads to wake while in flight, then `Ok` with the
/// leader's success, or `None` when it failed or was dropped.
pub struct Flight(Mutex<std::result::Result<Option<Arc<Answer>>, Vec<clock::Unparker>>>);

impl Flight {
    /// Non-blocking follower poll: `Ready(Some)` is the leader's answer,
    /// `Ready(None)` says claim again; `Pending` registers this thread.
    pub fn poll(&self) -> Poll<Option<Arc<Answer>>> {
        match &mut *self.0.lock() {
            Ok(answer) => Poll::Ready(answer.clone()),
            Err(waiters) => {
                clock::enlist(waiters);
                Poll::Pending
            }
        }
    }
}

/// The outcome of claiming a key.
pub enum Claim {
    /// An answer is published: take it.
    Hit(Arc<Answer>),
    /// The key was free: issue the physical call, publish through the guard.
    Leader(FlightGuard),
    /// An identical request is in flight: poll its flight.
    Follower(Arc<Flight>),
}

/// Advisory lifetime counters of a [`RequestTable`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Lookups served a published answer.
    pub hits: u64,
    /// Lookups that found none (leaders and followers alike).
    pub misses: u64,
    /// Claims that led a flight.
    pub leaders: u64,
    /// Claims that followed another's flight.
    pub followers_served: u64,
}

/// Request key → published answer or flight in progress. Cheap to share.
#[derive(Default)]
pub struct RequestTable {
    shards: [RwLock<KeyMap<Slot>>; SHARDS],
    keeps_answers: bool,
    hits: AtomicU64,
    misses: AtomicU64,
    leaders: AtomicU64,
    followers: AtomicU64,
}

impl RequestTable {
    /// A table that keeps no answers: it joins identical requests in flight
    /// at once, and serves only what [`RequestTable::put`] stores.
    pub fn new() -> Self {
        RequestTable::default()
    }

    /// A table that keeps every published success as a hit.
    pub fn caching() -> Self {
        let keeps_answers = true;
        RequestTable {
            keeps_answers,
            ..RequestTable::default()
        }
    }

    fn shard(&self, key: &RequestKey) -> &RwLock<KeyMap<Slot>> {
        &self.shards[key.shard(SHARDS)]
    }

    /// Look `key` up: a hit or a follow takes one shard read lock; a leader
    /// takes the write lock to enter its flight and again to resolve it,
    /// then the flight's lock, never two at once.
    pub fn claim(self: &Arc<Self>, key: impl Into<RequestKey>) -> Claim {
        let key = key.into();
        let shard = self.shard(&key);
        let of = |slot: &Slot| slot.clone().map_or_else(Claim::Follower, Claim::Hit);
        let found = shard.read().get(&key).map(of);
        let claim = found.unwrap_or_else(|| match shard.write().entry(key) {
            Entry::Occupied(slot) => of(slot.get()),
            Entry::Vacant(free) => {
                let flight = Arc::new(Flight(Mutex::new(Err(Vec::new()))));
                let key = free.key().clone();
                free.insert(Err(Arc::clone(&flight)));
                Claim::Leader(FlightGuard(Arc::clone(self), key, flight, None))
            }
        });
        let counter = match claim {
            Claim::Hit(_) => &self.hits,
            Claim::Leader(_) => &self.leaders,
            Claim::Follower(_) => &self.followers,
        };
        // ordering: Relaxed — advisory counters; nothing is published under them.
        counter.fetch_add(1, Ordering::Relaxed);
        if !matches!(claim, Claim::Hit(_)) {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        claim
    }

    /// Look a key up without claiming it, counting the hit or miss: its
    /// published answer, or `None` (a flight in progress included).
    pub fn get(&self, key: impl Into<RequestKey>) -> Option<Arc<Answer>> {
        let key = key.into();
        let slot = self.shard(&key).read().get(&key).cloned();
        let found = slot.and_then(|slot| slot.ok());
        let counter = found.as_ref().map_or(&self.misses, |_| &self.hits);
        // ordering: Relaxed — advisory statistics, as in `claim`.
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// The answer published under `key`, counted as a hit. A miss is not
    /// counted: the claim that follows it counts it.
    pub(crate) fn hit(&self, key: &RequestKey) -> Option<Arc<Answer>> {
        let slot = self.shard(key).read().get(key).cloned();
        let answer = slot?.ok()?;
        // ordering: Relaxed — advisory statistics, as in `claim`.
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(answer)
    }

    /// The key an equal `key` is stored under, when the table keeps answers
    /// and holds one: a caller that keeps `key` keeps this one instead, so
    /// the table and the caller share one text, and a later claim finds it
    /// by address.
    pub(crate) fn kept_key(&self, key: RequestKey) -> Option<RequestKey> {
        if !self.keeps_answers {
            return None;
        }
        let stored = self
            .shard(&key)
            .read()
            .get_key_value(&key)
            .map(|(k, _)| k.clone());
        Some(stored.unwrap_or(key))
    }

    /// Publish an answer under `key` (an owned response is moved into a new
    /// shared answer), unless a flight is in progress there.
    pub fn put(&self, key: impl Into<RequestKey>, response: impl Into<Arc<Answer>>) {
        let key = key.into();
        let mut shard = self.shard(&key).write();
        if !matches!(shard.get(&key), Some(Err(_))) {
            shard.insert(key, Ok(response.into()));
        }
    }

    /// Flights in progress.
    pub fn in_flight(&self) -> usize {
        let flights =
            |shard: &RwLock<KeyMap<Slot>>| shard.read().values().filter(|s| s.is_err()).count();
        self.shards.iter().map(flights).sum()
    }

    /// Drop every published answer (whoever still reads one keeps it) and
    /// reset the hit and miss counters. Flights in progress stay.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().retain(|_, slot| slot.is_err());
        }
        // ordering: Relaxed — a racing increment may land on either side.
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// Advisory lifetime counters.
    pub fn stats(&self) -> TableStats {
        // ordering: Relaxed — advisory counters, which need not agree.
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        TableStats {
            hits: read(&self.hits),
            misses: read(&self.misses),
            leaders: read(&self.leaders),
            followers_served: read(&self.followers),
        }
    }
}

/// Leadership of one key's flight — its table, key, flight and the answer
/// to publish: publish the outcome through it. Dropped unpublished, it
/// abandons the flight, and the followers claim again.
pub struct FlightGuard(
    Arc<RequestTable>,
    RequestKey,
    Arc<Flight>,
    Option<Arc<Answer>>,
);

impl FlightGuard {
    /// Resolve the flight: a success fans out to every follower (an
    /// `Arc<Answer>` shared, a response copied), a failure abandons it.
    pub fn publish<R: Clone + Into<Arc<Answer>>>(mut self, outcome: &Result<R>) {
        let FlightGuard(.., answer) = &mut self;
        *answer = outcome.as_ref().ok().map(|r| r.clone().into());
    }
}

impl Drop for FlightGuard {
    fn drop(&mut self) {
        let FlightGuard(table, key, flight, answer) = self;
        let answer = answer.take();
        let mut shard = table.shard(key).write();
        match (&answer, table.keeps_answers, shard.get_mut(key)) {
            (Some(answer), true, Some(slot)) => *slot = Ok(Arc::clone(answer)),
            _ => drop(shard.remove(key)),
        }
        drop(shard);
        let resolved = std::mem::replace(&mut *flight.0.lock(), Ok(answer));
        if let Err(waiters) = resolved {
            waiters.iter().for_each(clock::Unparker::unpark);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CompletionResponse;
    use proptest::prelude::*;

    impl RequestTable {
        /// Published answers held.
        pub(crate) fn answers(&self) -> usize {
            let answers =
                |shard: &RwLock<KeyMap<Slot>>| shard.read().values().filter(|s| s.is_ok()).count();
            self.shards.iter().map(answers).sum()
        }
    }

    fn resp(text: &str) -> CompletionResponse {
        CompletionResponse {
            text: text.to_string(),
            prompt_tokens: 1,
            completion_tokens: 1,
            latency_ms: 1.0,
            cost_usd: 0.0,
        }
    }

    /// (hits, misses).
    fn lookups(table: &RequestTable) -> (u64, u64) {
        let stats = table.stats();
        (stats.hits, stats.misses)
    }

    fn lead(table: &Arc<RequestTable>, key: impl Into<RequestKey>) -> FlightGuard {
        let Claim::Leader(guard) = table.claim(key) else {
            panic!("the first claim of a free key must lead");
        };
        guard
    }

    fn follow(table: &Arc<RequestTable>, key: impl Into<RequestKey>) -> Arc<Flight> {
        let Claim::Follower(flight) = table.claim(key) else {
            panic!("a claim of a key in flight must follow");
        };
        flight
    }

    fn answer_of(flight: &Flight) -> Arc<Answer> {
        match flight.poll() {
            Poll::Ready(Some(answer)) => answer,
            _ => panic!("the follower must see its leader's answer"),
        }
    }

    // The answer cache.

    #[test]
    fn put_get_roundtrip() {
        let cache = PromptCache::new();
        assert!(cache.get("p").is_none());
        cache.put("p", resp("r"));
        assert_eq!(cache.get("p").unwrap().text, "r");
        assert_eq!(cache.answers(), 1);
    }

    #[test]
    fn a_hit_is_the_entry_not_a_copy_of_it() {
        let cache = PromptCache::new();
        let shared = Arc::new(Answer::new(resp("r")));
        cache.put("p", Arc::clone(&shared));
        assert!(Arc::ptr_eq(&cache.get("p").unwrap(), &shared));
        // An owned response is moved into one allocation every hit shares.
        cache.put("q", resp("s"));
        assert!(Arc::ptr_eq(
            &cache.get("q").unwrap(),
            &cache.get("q").unwrap()
        ));
        // An answer outlives its entry for whoever still reads it.
        cache.clear();
        assert_eq!(shared.text, "r");
        assert_eq!(Arc::strong_count(&shared), 1);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let cache = PromptCache::new();
        cache.get("a");
        cache.put("a", resp("x"));
        cache.get("a");
        cache.get("b");
        assert_eq!(lookups(&cache), (1, 2));
    }

    #[test]
    fn keys_that_share_a_hash_do_not_share_an_answer() {
        let cache = PromptCache::new();
        let stored = RequestKey::with_hash(42, "one prompt");
        let other = RequestKey::with_hash(42, "another prompt");
        cache.put(&stored, resp("one answer"));
        assert!(cache.get(&other).is_none(), "a hash match served an answer");
        assert_eq!(cache.get(&stored).unwrap().text, "one answer");
        cache.put(&other, resp("another answer"));
        assert_eq!(cache.get(&stored).unwrap().text, "one answer");
        assert_eq!(cache.get(&other).unwrap().text, "another answer");
        assert_eq!(cache.answers(), 2);
    }

    #[test]
    fn clear_resets_everything() {
        let cache = PromptCache::new();
        cache.put("a", resp("x"));
        cache.get("a");
        cache.clear();
        assert_eq!(cache.answers(), 0);
        assert_eq!(lookups(&cache), (0, 0));
    }

    #[test]
    fn entries_spread_across_shards() {
        let cache = PromptCache::new();
        for i in 0..200 {
            cache.put(format!("prompt-{i}"), resp("x"));
        }
        assert_eq!(cache.answers(), 200);
        // With 200 keys over 16 shards, more than one shard must be populated.
        let populated = cache.shards.iter().filter(|s| !s.read().is_empty()).count();
        assert!(populated > 1, "all keys landed in one shard");
        for i in 0..200 {
            assert!(cache.get(format!("prompt-{i}")).is_some());
        }
        assert_eq!(lookups(&cache), (200, 0));
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let cache = PromptCache::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..100 {
                        let key = format!("k-{t}-{i}");
                        cache.put(key.clone(), resp("v"));
                        assert!(cache.get(&key).is_some());
                        cache.get("shared-missing");
                    }
                });
            }
        });
        assert_eq!(cache.answers(), 400);
        assert_eq!(lookups(&cache), (400, 400));
    }

    // The single-flight table.

    #[test]
    fn followers_receive_the_leaders_success() {
        let co = Arc::new(PromptCoalescer::new());
        let guard = lead(&co, "k");
        let flight = follow(&co, "k");
        assert!(flight.poll().is_pending());
        guard.publish(&Ok(resp("answer")));
        assert_eq!(answer_of(&flight).text, "answer");
        assert_eq!(co.stats().leaders, 1);
        assert_eq!(co.stats().followers_served, 1);
        assert_eq!(co.in_flight(), 0);
    }

    #[test]
    fn a_shared_answer_is_published_without_a_copy() {
        let co = Arc::new(PromptCoalescer::new());
        let guard = lead(&co, "k");
        let flight = follow(&co, "k");
        let answer = Arc::new(Answer::new(resp("answer")));
        guard.publish(&Ok(Arc::clone(&answer)));
        for _ in 0..2 {
            assert!(Arc::ptr_eq(&answer_of(&flight), &answer));
        }
    }

    #[test]
    fn failures_abandon_and_followers_reclaim() {
        let co = Arc::new(PromptCoalescer::new());
        let guard = lead(&co, "k");
        let flight = follow(&co, "k");
        guard.publish::<CompletionResponse>(&Err(llmsql_types::Error::llm("backend down")));
        assert!(matches!(flight.poll(), Poll::Ready(None)));
        // The key is free again: the former follower can lead a retry.
        assert!(matches!(co.claim("k"), Claim::Leader(_)));
    }

    #[test]
    fn dropping_the_guard_abandons_the_entry() {
        let co = Arc::new(PromptCoalescer::new());
        let guard = lead(&co, "k");
        let flight = follow(&co, "k");
        drop(guard);
        assert!(matches!(flight.poll(), Poll::Ready(None)));
        assert_eq!(co.in_flight(), 0);
    }

    #[test]
    fn resolved_entries_do_not_cache() {
        let co = Arc::new(PromptCoalescer::new());
        lead(&co, "k").publish(&Ok(resp("a")));
        // The flight resolved; a later identical request starts fresh.
        assert!(matches!(co.claim("k"), Claim::Leader(_)));
    }

    #[test]
    fn keys_that_share_a_hash_lead_independently() {
        let co = Arc::new(PromptCoalescer::new());
        let one = RequestKey::with_hash(42, "one prompt");
        let other = RequestKey::with_hash(42, "another prompt");
        let guard_one = lead(&co, &one);
        let guard_other = lead(&co, &other);
        let flight = follow(&co, &one);
        assert_eq!(co.in_flight(), 2);
        guard_other.publish(&Ok(resp("another answer")));
        assert!(flight.poll().is_pending());
        guard_one.publish(&Ok(resp("one answer")));
        assert_eq!(answer_of(&flight).text, "one answer");
        assert_eq!(co.in_flight(), 0);
    }

    #[test]
    fn distinct_keys_lead_independently() {
        let co = Arc::new(PromptCoalescer::new());
        let guard_a = lead(&co, "a");
        let guard_b = lead(&co, "b");
        assert_eq!(co.in_flight(), 2);
        guard_a.publish(&Ok(resp("a")));
        guard_b.publish(&Ok(resp("b")));
        assert_eq!(co.in_flight(), 0);
    }

    // One table for both.

    #[test]
    fn a_kept_success_is_the_next_lookups_hit_and_clear_keeps_flights() {
        let cache = Arc::new(RequestTable::caching());
        let guard = lead(&cache, "k");
        let flight = follow(&cache, "k");
        cache.clear();
        let late = follow(&cache, "k");
        guard.publish(&Ok(resp("answer")));
        let led = answer_of(&flight);
        assert!(Arc::ptr_eq(&answer_of(&late), &led));
        let Claim::Hit(hit) = cache.claim("k") else {
            panic!("a kept success must be a hit");
        };
        assert!(Arc::ptr_eq(&hit, &led));
        assert!(Arc::ptr_eq(&cache.get("k").unwrap(), &led));
        // A failure keeps nothing.
        lead(&cache, "f").publish::<CompletionResponse>(&Err(llmsql_types::Error::llm("down")));
        assert!(matches!(cache.claim("f"), Claim::Leader(_)));
    }

    /// What the model of one key knows: its leader, the flights its
    /// followers hold, and the answer a lookup must hit.
    #[derive(Default)]
    struct KeyModel {
        guard: Option<FlightGuard>,
        followers: Vec<Arc<Flight>>,
        kept: Option<Arc<Answer>>,
    }

    impl KeyModel {
        /// Resolve the followers: each must see `answer`'s very allocation,
        /// or be told to claim again.
        fn resolve(&mut self, answer: Option<&Arc<Answer>>) {
            for flight in self.followers.drain(..) {
                match (flight.poll(), answer) {
                    (Poll::Ready(Some(got)), Some(answer)) => assert!(Arc::ptr_eq(&got, answer)),
                    (Poll::Ready(None), None) => {}
                    _ => panic!("a follower saw something other than its own leader's outcome"),
                }
            }
        }
    }

    proptest! {
        /// Seeded sequences of lookup, publish `Ok`, publish `Err`, guard
        /// drop and `clear` over three keys, two of which share a hash, on
        /// a table that keeps answers and on one that does not, held against
        /// a model of the contract.
        #[test]
        fn the_table_keeps_the_single_flight_contract(
            ops in proptest::collection::vec((0usize..5, 0usize..3), 1..48),
        ) {
            for keeps in [false, true] {
                let table = Arc::new(if keeps { RequestTable::caching() } else { RequestTable::new() });
                let keys = [
                    RequestKey::with_hash(7, "one"),
                    RequestKey::with_hash(7, "two"),
                    RequestKey::from("three"),
                ];
                let mut model: [KeyModel; 3] = Default::default();
                let mut expected = TableStats::default();
                for (step, &(op, k)) in ops.iter().enumerate() {
                    let key = &mut model[k];
                    match op {
                        0 => match table.claim(&keys[k]) {
                            Claim::Hit(hit) => {
                                let kept = key.kept.as_ref().expect("a hit nothing published");
                                prop_assert!(Arc::ptr_eq(&hit, kept), "a hit copied the answer");
                                expected.hits += 1;
                            }
                            Claim::Leader(guard) => {
                                prop_assert!(key.guard.is_none(), "two leaders of one key");
                                prop_assert!(key.kept.is_none(), "a kept answer was missed");
                                key.guard = Some(guard);
                                expected.leaders += 1;
                            }
                            Claim::Follower(flight) => {
                                prop_assert!(key.guard.is_some(), "a follower of no flight");
                                prop_assert!(flight.poll().is_pending());
                                key.followers.push(flight);
                                expected.followers_served += 1;
                            }
                        },
                        1 => if let Some(guard) = key.guard.take() {
                            let answer = Arc::new(Answer::new(resp(&format!("{k} at {step}"))));
                            guard.publish(&Ok(Arc::clone(&answer)));
                            key.resolve(Some(&answer));
                            key.kept = keeps.then_some(answer);
                        },
                        2 => if let Some(guard) = key.guard.take() {
                            guard.publish::<Arc<Answer>>(&Err(llmsql_types::Error::llm("down")));
                            key.resolve(None);
                        },
                        3 => if let Some(guard) = key.guard.take() {
                            drop(guard);
                            key.resolve(None);
                        },
                        _ => {
                            table.clear();
                            model.iter_mut().for_each(|key| key.kept = None);
                        }
                    }
                    let leading = model.iter().filter(|key| key.guard.is_some()).count();
                    prop_assert_eq!(table.in_flight(), leading, "flights after op {} of key {}", op, k);
                }
                for key in &mut model {
                    drop(key.guard.take());
                    key.resolve(None);
                }
                prop_assert_eq!(table.in_flight(), 0);
                let stats = table.stats();
                prop_assert_eq!(
                    (stats.leaders, stats.followers_served),
                    (expected.leaders, expected.followers_served)
                );
                prop_assert!(stats.hits <= expected.hits);
            }
        }
    }
}
