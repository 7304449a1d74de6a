//! Sharded in-memory store.
//!
//! A fixed number of shards, each a `HashMap` behind a `parking_lot::RwLock`.
//! Sharding keeps lock contention negligible when the live driver's replica
//! thread and observers touch the store concurrently; under the simulator the
//! locks are uncontended and effectively free.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use bytes::Bytes;
use parking_lot::RwLock;

/// Aggregate statistics for a [`Store`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of live keys.
    pub keys: u64,
    /// Total key bytes resident.
    pub key_bytes: u64,
    /// Completed get operations.
    pub gets: u64,
    /// Completed put/update operations.
    pub puts: u64,
    /// Completed deletes.
    pub deletes: u64,
}

struct Shard<V> {
    map: HashMap<Bytes, V>,
    /// Total bytes of the keys in `map` (kept exact under the shard lock).
    key_bytes: u64,
}

/// Operation counts as relaxed atomics: pure statistics that publish no
/// other data, so no operation takes a second, store-wide lock to count
/// itself.
#[derive(Default)]
struct OpCounts {
    gets: AtomicU64,
    puts: AtomicU64,
    deletes: AtomicU64,
}

/// A sharded key-value store with closure-based updates.
pub struct Store<V> {
    /// Shard 0: a store always has one, so picking a shard cannot fail.
    first: RwLock<Shard<V>>,
    /// Shards 1 and up; `1 + rest.len()` is a power of two.
    rest: Box<[RwLock<Shard<V>>]>,
    ops: OpCounts,
}

impl<V: Clone> Store<V> {
    /// Create a store with the default shard count (16).
    pub fn new() -> Self {
        Store::with_shards(16)
    }

    /// Create a store with an explicit power-of-two shard count.
    pub fn with_shards(n: usize) -> Self {
        let n = n.next_power_of_two().max(1);
        let shard = || {
            RwLock::new(Shard {
                map: HashMap::new(),
                key_bytes: 0,
            })
        };
        Store {
            first: shard(),
            rest: (1..n).map(|_| shard()).collect(),
            ops: OpCounts::default(),
        }
    }

    /// Every shard, in shard order.
    fn shards(&self) -> impl Iterator<Item = &RwLock<Shard<V>>> {
        std::iter::once(&self.first).chain(self.rest.iter())
    }

    fn shard_for(&self, key: &[u8]) -> &RwLock<Shard<V>> {
        // FNV-1a over the key; shard count is a power of two, so
        // `rest.len()` is the mask.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in key {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let i = (h as usize) & self.rest.len();
        (i.checked_sub(1))
            .and_then(|i| self.rest.get(i))
            .unwrap_or(&self.first)
    }

    /// Fetch a clone of the value for `key`.
    pub fn get(&self, key: &[u8]) -> Option<V> {
        self.ops.gets.fetch_add(1, Relaxed);
        self.shard_for(key).read().map.get(key).cloned()
    }

    /// Insert or replace the value for `key`.
    pub fn put(&self, key: Bytes, value: V) {
        let shard = self.shard_for(&key);
        let mut guard = shard.write();
        self.ops.puts.fetch_add(1, Relaxed);
        let key_len = key.len() as u64;
        if guard.map.insert(key, value).is_none() {
            guard.key_bytes += key_len;
        }
    }

    /// Update the value for `key` in place, inserting `default()` first if
    /// the key is absent. Returns whatever the closure returns.
    pub fn update<R>(
        &self,
        key: &Bytes,
        default: impl FnOnce() -> V,
        f: impl FnOnce(&mut V) -> R,
    ) -> R {
        let shard = self.shard_for(key);
        let mut guard = shard.write();
        let mut inserted = false;
        let entry = guard.map.entry(key.clone()).or_insert_with(|| {
            inserted = true;
            default()
        });
        let out = f(entry);
        if inserted {
            guard.key_bytes += key.len() as u64;
        }
        self.ops.puts.fetch_add(1, Relaxed);
        out
    }

    /// Read-only access to the value for `key` through a closure (no clone).
    pub fn with<R>(&self, key: &[u8], f: impl FnOnce(Option<&V>) -> R) -> R {
        let shard = self.shard_for(key);
        let guard = shard.read();
        self.ops.gets.fetch_add(1, Relaxed);
        f(guard.map.get(key))
    }

    /// Remove `key`. Returns the removed value if present.
    pub fn delete(&self, key: &[u8]) -> Option<V> {
        let shard = self.shard_for(key);
        let mut guard = shard.write();
        let prev = guard.map.remove(key);
        if prev.is_some() {
            guard.key_bytes -= key.len() as u64;
        }
        self.ops.deletes.fetch_add(1, Relaxed);
        prev
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.shards().map(|s| s.read().map.len()).sum()
    }

    /// True if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the statistics counters.
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats {
            gets: self.ops.gets.load(Relaxed),
            puts: self.ops.puts.load(Relaxed),
            deletes: self.ops.deletes.load(Relaxed),
            ..StoreStats::default()
        };
        for shard in self.shards() {
            let guard = shard.read();
            stats.keys += guard.map.len() as u64;
            stats.key_bytes += guard.key_bytes;
        }
        stats
    }

    /// Remove every key.
    pub fn clear(&self) {
        for shard in self.shards() {
            let mut guard = shard.write();
            guard.map.clear();
            guard.key_bytes = 0;
        }
    }

    /// Visit every `(key, value)` pair in key order within each shard.
    /// Callers that need a fully key-ordered walk must merge across shards;
    /// what matters here is that the order is a pure function of the store
    /// contents — snapshot export chunks from this walk, and those wire
    /// bytes must be identical across same-seed replays (the shard maps
    /// hash-order their entries, so the raw iteration order is not).
    pub fn for_each(&self, mut f: impl FnMut(&Bytes, &V)) {
        for shard in self.shards() {
            let guard = shard.read();
            // lint:allow(determinism): the hash order this iteration leaks
            // is erased by the sort on the next line before any visit.
            let mut keys: Vec<&Bytes> = guard.map.keys().collect();
            keys.sort_unstable();
            for k in keys {
                if let Some(v) = guard.map.get(k) {
                    f(k, v);
                }
            }
        }
    }
}

impl<V: Clone> Default for Store<V> {
    fn default() -> Self {
        Store::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let s: Store<u32> = Store::new();
        assert!(s.is_empty());
        s.put(b("a"), 1);
        s.put(b("b"), 2);
        assert_eq!(s.get(b"a"), Some(1));
        assert_eq!(s.get(b"b"), Some(2));
        assert_eq!(s.get(b"c"), None);
        assert_eq!(s.len(), 2);
        assert_eq!(s.delete(b"a"), Some(1));
        assert_eq!(s.delete(b"a"), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn put_replaces_without_growing() {
        let s: Store<u32> = Store::new();
        s.put(b("k"), 1);
        s.put(b("k"), 2);
        assert_eq!(s.get(b"k"), Some(2));
        assert_eq!(s.len(), 1);
        assert_eq!(s.stats().keys, 1);
    }

    #[test]
    fn update_inserts_default_then_mutates() {
        let s: Store<Vec<u32>> = Store::new();
        let key = b("list");
        let len = s.update(&key, Vec::new, |v| {
            v.push(7);
            v.len()
        });
        assert_eq!(len, 1);
        let len = s.update(&key, Vec::new, |v| {
            v.push(8);
            v.len()
        });
        assert_eq!(len, 2);
        assert_eq!(s.get(b"list"), Some(vec![7, 8]));
    }

    #[test]
    fn with_avoids_clone_and_sees_absent() {
        let s: Store<u32> = Store::new();
        s.put(b("k"), 5);
        assert_eq!(s.with(b"k", |v| v.copied()), Some(5));
        assert!(s.with(b"missing", |v| v.is_none()));
    }

    #[test]
    fn stats_track_operations() {
        let s: Store<u32> = Store::new();
        s.put(b("a"), 1);
        s.get(b"a");
        s.get(b"b");
        s.delete(b"a");
        let st = s.stats();
        assert_eq!(st.puts, 1);
        assert_eq!(st.gets, 2);
        assert_eq!(st.deletes, 1);
        assert_eq!(st.keys, 0);
        assert_eq!(st.key_bytes, 0);
    }

    #[test]
    fn clear_empties_all_shards() {
        let s: Store<u32> = Store::with_shards(4);
        for i in 0..100u32 {
            s.put(b(&format!("k{i}")), i);
        }
        assert_eq!(s.len(), 100);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.stats().keys, 0);
    }

    #[test]
    fn for_each_visits_everything() {
        let s: Store<u32> = Store::with_shards(8);
        for i in 0..50u32 {
            s.put(b(&format!("k{i}")), i);
        }
        let mut sum = 0;
        s.for_each(|_, v| sum += v);
        assert_eq!(sum, (0..50).sum::<u32>());
    }

    #[test]
    fn keys_spread_over_every_shard() {
        let s: Store<u32> = Store::with_shards(4);
        for i in 0..100u32 {
            s.put(b(&format!("k{i}")), i);
        }
        let per_shard: Vec<usize> = s.shards().map(|sh| sh.read().map.len()).collect();
        assert!(per_shard.iter().all(|&n| n > 10), "{per_shard:?}");
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let s: Store<u32> = Store::with_shards(3);
        assert_eq!(s.shards().count(), 4);
        let s: Store<u32> = Store::with_shards(0);
        assert_eq!(s.shards().count(), 1);
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let s: Arc<Store<u64>> = Arc::new(Store::new());
        let mut handles = vec![];
        for t in 0..4u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    let key = Bytes::from(format!("t{t}-k{i}"));
                    s.put(key.clone(), i);
                    assert_eq!(s.get(&key), Some(i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), 4000);
    }
}
