//! A sharded prompt cache.
//!
//! Identical prompts within one engine session return the cached completion
//! without touching the model. Because the simulator is deterministic per
//! (seed, prompt) the cache does not change answers — it only changes the
//! call count and cost, which is exactly what the cost experiments measure.
//!
//! Keys are [`RequestKey`]s: [`crate::LlmClient`] composes the text from the
//! model fingerprint plus the request parameters (`max_tokens`,
//! `temperature`) plus the prompt — so one cache instance can safely be
//! shared between clients over different model configurations without
//! collisions — and hashes it once. Every lookup and store below reuses that
//! hash; a match is a match of the full text (see [`crate::key`]). A caller
//! holding only the text passes it and pays for the hash here.
//!
//! An entry is an `Arc<CompletionResponse>`: a hit hands out the entry's own
//! allocation, so the answer text is never copied on the way to the scan that
//! reads it, and an answer lives as long as its entry or the scan still
//! reading it — [`PromptCache::clear`] mid-scan takes nothing from the scan.
//!
//! The map is split into 16 independently locked shards, so queries
//! completing different prompts on different threads do not serialize on
//! one lock. The shard index and the shard's bucket index are both cut from
//! the key's one hash, from different bits (`RequestKey::shard`). Hit/miss
//! counters are lock-free `AtomicU64`s: a cache read costs one shard read
//! lock and one atomic increment.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::key::{KeyMap, RequestKey};
use crate::model::CompletionResponse;

/// Shards the key space is split into.
const SHARDS: usize = 16;

/// A thread-safe, sharded prompt → completion cache.
pub struct PromptCache {
    shards: [RwLock<KeyMap<Arc<CompletionResponse>>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for PromptCache {
    fn default() -> Self {
        PromptCache::new()
    }
}

impl PromptCache {
    /// Create an empty cache.
    pub fn new() -> Self {
        PromptCache {
            shards: std::array::from_fn(|_| RwLock::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, key: &RequestKey) -> &RwLock<KeyMap<Arc<CompletionResponse>>> {
        &self.shards[key.shard(SHARDS)]
    }

    /// Look up a key, counting the hit or miss. A hit shares the entry: a
    /// reference-count bump, no copy of the answer.
    pub fn get(&self, key: impl Into<RequestKey>) -> Option<Arc<CompletionResponse>> {
        let found = self.peek(&key.into());
        // ordering: Relaxed — hit/miss are advisory statistics; nothing is
        // published under them and exact interleaving is irrelevant.
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Look up a key without counting: for a caller re-checking a key whose
    /// miss [`PromptCache::get`] already counted.
    pub(crate) fn peek(&self, key: &RequestKey) -> Option<Arc<CompletionResponse>> {
        self.shard_for(key).read().get(key).cloned()
    }

    /// Store a completion: an owned response is moved into a new shared
    /// allocation, an `Arc` is stored as it is.
    pub fn put(&self, key: impl Into<RequestKey>, response: impl Into<Arc<CompletionResponse>>) {
        let key = key.into();
        self.shard_for(&key).write().insert(key, response.into());
    }

    /// Number of cached prompts.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Remove all entries and reset counters.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.write().clear();
        }
        // ordering: Relaxed — statistics reset; racing increments may land
        // on either side of the clear, both outcomes are valid snapshots.
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        // ordering: Relaxed — advisory statistics read; the pair need not
        // be mutually consistent.
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(text: &str) -> CompletionResponse {
        CompletionResponse {
            text: text.to_string(),
            prompt_tokens: 1,
            completion_tokens: 1,
            latency_ms: 1.0,
            cost_usd: 0.0,
        }
    }

    #[test]
    fn put_get_roundtrip() {
        let cache = PromptCache::new();
        assert!(cache.get("p").is_none());
        cache.put("p", resp("r"));
        assert_eq!(cache.get("p").unwrap().text, "r");
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn a_hit_is_the_entry_not_a_copy_of_it() {
        let cache = PromptCache::new();
        let shared = Arc::new(resp("r"));
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
        assert_eq!(cache.stats(), (1, 2));
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
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn clear_resets_everything() {
        let cache = PromptCache::new();
        cache.put("a", resp("x"));
        cache.get("a");
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), (0, 0));
    }

    #[test]
    fn entries_spread_across_shards() {
        let cache = PromptCache::new();
        for i in 0..200 {
            cache.put(format!("prompt-{i}"), resp("x"));
        }
        assert_eq!(cache.len(), 200);
        // With 200 keys over 16 shards, more than one shard must be populated.
        let populated = cache.shards.iter().filter(|s| !s.read().is_empty()).count();
        assert!(populated > 1, "all keys landed in one shard");
        for i in 0..200 {
            assert!(cache.get(format!("prompt-{i}")).is_some());
        }
        assert_eq!(cache.stats(), (200, 0));
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
        assert_eq!(cache.len(), 400);
        let (hits, misses) = cache.stats();
        assert_eq!(hits, 400);
        assert_eq!(misses, 400);
    }
}
