//! A byte-budgeted LRU cache.
//!
//! Shared as a [`StagingCache`], it holds a session's copies for degraded
//! reads and the scheduler's read-ahead: a staged object is served from
//! here at memory speed until it is invalidated or evicted, oldest use
//! first. Values are [`Payload`]s kept as they were read: held bytes stay
//! one reference-counted buffer, and a staged recipe stays a recipe, so a
//! hit is an O(1) clone, never a copy or a generation. An entry is charged
//! its [`len`](Payload::len), the bytes it stands for, whichever form it
//! has.

use msr_storage::Payload;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// An [`LruCache`] shareable across threads.
pub type StagingCache = Arc<Mutex<LruCache>>;

/// A [`StagingCache`] bounded to `capacity` bytes.
pub fn staging_cache(capacity: u64) -> StagingCache {
    Arc::new(Mutex::new(LruCache::new(capacity)))
}

#[derive(Debug, Clone)]
struct Entry {
    data: Payload,
    stamp: u64,
}

/// An LRU cache of named payloads with a total-bytes capacity.
#[derive(Debug)]
pub struct LruCache {
    capacity: u64,
    used: u64,
    entries: HashMap<String, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl LruCache {
    /// A cache bounded to `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        LruCache {
            capacity,
            used: 0,
            entries: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Cache hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a key, refreshing its recency. Counts a hit or miss.
    pub fn get(&mut self, key: &str) -> Option<Payload> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some(e) => {
                e.stamp = self.tick;
                self.hits += 1;
                Some(e.data.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Whether the key is cached, without touching recency or counters.
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Insert a payload, evicting least recently used entries as needed.
    /// Returns whether the payload was cached: payloads larger than the
    /// whole capacity are not cached at all (and any stale entry under the
    /// same key is dropped, so a later `get` can never serve outdated
    /// bytes).
    pub fn put(&mut self, key: &str, data: Payload) -> bool {
        let size = data.len() as u64;
        if size > self.capacity {
            self.invalidate(key);
            return false;
        }
        self.tick += 1;
        if let Some(old) = self.entries.remove(key) {
            self.used -= old.data.len() as u64;
        }
        while self.used + size > self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
                .expect("a cache over budget holds an entry");
            self.invalidate(&victim);
        }
        self.used += size;
        self.entries.insert(
            key.to_owned(),
            Entry {
                data,
                stamp: self.tick,
            },
        );
        true
    }

    /// Drop an entry.
    pub fn invalidate(&mut self, key: &str) {
        if let Some(old) = self.entries.remove(key) {
            self.used -= old.data.len() as u64;
        }
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.used = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(n: usize, fill: u8) -> Payload {
        Payload::from(vec![fill; n])
    }

    #[test]
    fn put_get_roundtrip() {
        let mut c = LruCache::new(100);
        c.put("a", bytes(10, 1));
        assert_eq!(c.get("a").unwrap().into_vec(), vec![1; 10]);
        assert_eq!(c.hits(), 1);
        assert!(c.get("b").is_none());
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(30);
        c.put("a", bytes(10, 1));
        c.put("b", bytes(10, 2));
        c.put("c", bytes(10, 3));
        c.get("a"); // refresh a
        c.put("d", bytes(10, 4)); // evicts b
        assert!(c.contains("a"));
        assert!(!c.contains("b"));
        assert!(c.contains("c") && c.contains("d"));
        assert_eq!(c.used_bytes(), 30);
    }

    #[test]
    fn oversized_entry_is_not_cached() {
        let mut c = LruCache::new(5);
        assert!(!c.put("big", bytes(10, 0)));
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn oversized_put_drops_the_stale_entry_for_that_key() {
        let mut c = LruCache::new(50);
        assert!(c.put("a", bytes(40, 1)));
        // The value changed but no longer fits; the old bytes must not
        // survive to be served by a later get.
        assert!(!c.put("a", bytes(60, 2)));
        assert!(!c.contains("a"));
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn oversized_put_leaves_other_entries_alone() {
        let mut c = LruCache::new(30);
        c.put("a", bytes(10, 1));
        c.put("b", bytes(10, 2));
        assert!(!c.put("big", bytes(31, 3)));
        assert!(c.contains("a") && c.contains("b"));
        assert_eq!(c.used_bytes(), 20);
    }

    #[test]
    fn zero_capacity_cache_rejects_everything() {
        let mut c = LruCache::new(0);
        assert!(!c.put("a", bytes(1, 1)));
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
        assert!(c.get("a").is_none());
        assert_eq!(c.misses(), 1);
        // An empty buffer technically fits a zero-byte budget.
        assert!(c.put("empty", bytes(0, 0)));
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn replacing_a_key_updates_accounting() {
        let mut c = LruCache::new(100);
        c.put("a", bytes(40, 1));
        c.put("a", bytes(10, 2));
        assert_eq!(c.used_bytes(), 10);
        assert_eq!(c.get("a").unwrap().into_vec(), vec![2; 10]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidate_and_clear() {
        let mut c = LruCache::new(100);
        c.put("a", bytes(10, 1));
        c.put("b", bytes(10, 2));
        c.invalidate("a");
        assert!(!c.contains("a"));
        assert_eq!(c.used_bytes(), 10);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn a_payload_is_kept_as_it_was_put() {
        let mut c = LruCache::new(100);
        let data = bytes(40, 7);
        c.put("held", data.clone());
        let (Payload::Bytes(put), Some(Payload::Bytes(got))) = (data, c.get("held")) else {
            panic!("held bytes came back in another form");
        };
        assert_eq!(got.as_ptr(), put.as_ptr(), "a hit copied the bytes");
        // A recipe is charged the bytes it stands for and comes back a
        // recipe: nothing is generated to stage or serve it.
        assert!(c.put("recipe", Payload::dump(3, "chk", 5, 60)));
        assert_eq!(c.used_bytes(), 100);
        assert!(matches!(c.get("recipe"), Some(Payload::Recipe(r)) if r.len() == 60));
        assert!(!c.put("big", Payload::fill(0, 101)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn eviction_frees_enough_for_large_insert() {
        let mut c = LruCache::new(100);
        for i in 0..10 {
            c.put(&format!("k{i}"), bytes(10, i as u8));
        }
        c.put("big", bytes(95, 9));
        assert!(c.contains("big"));
        assert!(c.used_bytes() <= 100);
    }
}
