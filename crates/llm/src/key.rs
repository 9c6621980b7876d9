//! The key a request is cached and coalesced under: hashed once.
//!
//! A request key is the whole request as text — model fingerprint, request
//! parameters, prompt — and a packed prompt runs to kilobytes, so what a
//! lookup costs is how often those bytes are hashed and copied. A
//! [`RequestKey`] pays both once, where it is built: it carries the text's
//! 64-bit hash beside the text, the maps keyed by it (`KeyMap`) take that
//! hash as it is instead of hashing again, and a clone is a reference-count
//! bump.
//!
//! Equality still compares the full text: two keys whose hashes collide are
//! different keys, and one prompt's answer is never served for another.
//!
//! A key the client builds ends with its request's prompt and records where
//! that starts ([`RequestKey::prompt`]), so a call started from a kept key
//! reads its prompt back out of the key when it leads a dispatch, instead of
//! rendering it again.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher, RandomState};
use std::sync::{Arc, OnceLock};

/// The text of one request and its hash.
#[derive(Debug, Clone)]
pub struct RequestKey {
    hash: u64,
    text: Arc<str>,
    /// Where the request's prompt starts in `text`.
    prompt_at: usize,
}

impl RequestKey {
    /// Hash `text`, the one time it is hashed. The whole text is the key's
    /// prompt.
    pub fn new(text: impl Into<Arc<str>>) -> Self {
        RequestKey::with_prompt_at(text.into(), 0)
    }

    /// Hash `text`, whose prompt starts at byte `prompt_at`.
    pub(crate) fn with_prompt_at(text: Arc<str>, prompt_at: usize) -> Self {
        // One randomly keyed SipHash for the process: keys carry text from
        // outside the program (SQL literals reach the prompt), so the hash
        // must stay unpredictable to whoever writes that text.
        static HASHER: OnceLock<RandomState> = OnceLock::new();
        RequestKey {
            hash: HASHER.get_or_init(RandomState::new).hash_one(&*text),
            text,
            prompt_at,
        }
    }

    /// The prompt of the request this key stands for: the tail of the key's
    /// text (all of it, for a key built from a bare text).
    pub fn prompt(&self) -> &str {
        &self.text[self.prompt_at..]
    }

    /// A key with a chosen hash, for forcing two texts to collide.
    #[cfg(test)]
    pub(crate) fn with_hash(hash: u64, text: &str) -> Self {
        RequestKey {
            hash,
            text: text.into(),
            prompt_at: 0,
        }
    }

    /// Whether two keys share one text allocation, as a key and its clones
    /// do.
    #[cfg(test)]
    pub(crate) fn shares_text(&self, other: &RequestKey) -> bool {
        Arc::ptr_eq(&self.text, &other.text)
    }

    /// Which of `shards` maps this key lives in. A `KeyMap` picks its
    /// bucket from the low bits of the hash and its in-bucket tag from the
    /// top seven, so the shard comes from bits in between: taken from the
    /// same bits as the bucket, every key of a shard would agree on them and
    /// crowd into `1/shards` of that shard's buckets.
    pub(crate) fn shard(&self, shards: usize) -> usize {
        (self.hash >> 32) as usize % shards
    }
}

impl PartialEq for RequestKey {
    fn eq(&self, other: &Self) -> bool {
        // A key usually meets its own clone; anything else is settled by the
        // text, never by the hash alone.
        self.hash == other.hash && (Arc::ptr_eq(&self.text, &other.text) || self.text == other.text)
    }
}

impl Eq for RequestKey {}

impl Hash for RequestKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl From<String> for RequestKey {
    fn from(text: String) -> Self {
        RequestKey::new(text)
    }
}

impl From<&String> for RequestKey {
    fn from(text: &String) -> Self {
        RequestKey::new(text.as_str())
    }
}

impl From<&str> for RequestKey {
    fn from(text: &str) -> Self {
        RequestKey::new(text)
    }
}

impl From<&RequestKey> for RequestKey {
    fn from(key: &RequestKey) -> Self {
        key.clone()
    }
}

/// Hands a [`RequestKey`]'s stored hash to the map unchanged.
#[derive(Default)]
pub(crate) struct StoredHash(u64);

impl Hasher for StoredHash {
    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    /// The trait's required method; `RequestKey` never reaches it.
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by [`RequestKey`] that does not hash the key again.
pub(crate) type KeyMap<V> = HashMap<RequestKey, V, BuildHasherDefault<StoredHash>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_text_is_an_equal_key_however_it_was_built() {
        let owned = RequestKey::from(String::from("prompt"));
        let borrowed = RequestKey::from("prompt");
        assert_eq!(owned, borrowed);
        assert_eq!(owned.hash, borrowed.hash);
        assert_eq!(RequestKey::from(&owned), owned);
    }

    #[test]
    fn a_shared_hash_does_not_make_keys_equal() {
        let a = RequestKey::with_hash(7, "a");
        let b = RequestKey::with_hash(7, "b");
        assert_ne!(a, b);
        let mut map: KeyMap<u8> = KeyMap::default();
        map.insert(a.clone(), 1);
        map.insert(b.clone(), 2);
        assert_eq!((map[&a], map[&b]), (1, 2));
    }

    #[test]
    fn shard_and_bucket_come_from_different_bits() {
        // Keys that agree on every bit a map's bucket index can use still
        // spread over the shards, and the other way round.
        let same_bucket = (0..16u64).map(|i| RequestKey::with_hash(i << 32, "k"));
        let shards: std::collections::BTreeSet<usize> = same_bucket.map(|k| k.shard(16)).collect();
        assert_eq!(shards.len(), 16);
        assert_eq!(RequestKey::with_hash(0xffff_ffff, "k").shard(16), 0);
    }
}
