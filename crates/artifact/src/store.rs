//! The content-addressed artifact store.
//!
//! Keys are stage-qualified content hashes (see [`crate::Stage::key`]);
//! values are artifact JSON. The store is deliberately a dumb string
//! map: artifacts carry their own digests, the flow decides what a key
//! means, and a store never invents or mutates entries (a bounded store
//! may drop them, which the flow sees as a miss) — so any
//! implementation (in-memory, on-disk, remote tier) is interchangeable
//! without touching the flow.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Where serialized stage artifacts live. Implementations must be
/// thread-safe: the compile server's workers share one store.
pub trait ArtifactStore: Send + Sync {
    /// Fetches the artifact stored under `key`, if any.
    fn get(&self, key: &str) -> Option<String>;

    /// Stores `json` under `key` (last write wins; identical compiles
    /// write identical bytes, so races between workers are benign).
    fn put(&self, key: &str, json: String);
}

/// Cumulative counters of one store's traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// `get` calls that found an entry.
    pub hits: u64,
    /// `get` calls that found nothing.
    pub misses: u64,
    /// Entries currently held.
    pub entries: u64,
    /// Total JSON bytes currently held.
    pub bytes: u64,
    /// Entries dropped to keep `bytes` within `budget_bytes`.
    pub evictions: u64,
    /// The most JSON bytes the store holds at once.
    pub budget_bytes: u64,
}

/// [`MemStore`]'s byte budget: 8 MiB.
///
/// Sized on the compile-server benchmark's warm set — 18 design × style
/// keys, 3.55 MB of artifacts — plus the largest artifacts of the at
/// most nine fresh-seed misses that fall between two reads of one key
/// (about 3.2 MB), so a key that is read again is never the
/// least-recently-used victim. It also holds adder64 QDI's whole set
/// (7.3 MB). A design whose artifacts exceed the budget is recomputed
/// instead of cached.
pub const MEM_STORE_BUDGET_BYTES: u64 = 8 << 20;

/// The in-memory store: a mutexed map holding at most
/// [`MEM_STORE_BUDGET_BYTES`] of JSON, evicting the least recently used
/// entry first — the "hot tier" a farm deployment would back with
/// warm/durable tiers. A `get` that finds an entry and a `put` both make
/// it the most recently used. An entry larger than the whole budget is
/// never stored: its `put` only drops what the key held before.
#[derive(Default)]
pub struct MemStore {
    inner: Mutex<Lru>,
}

/// The map plus its recency order: `order` maps a strictly increasing
/// use stamp to the key used at that stamp, so the first entry of
/// `order` is the eviction victim and a touch is O(log n).
#[derive(Default)]
struct Lru {
    map: HashMap<String, Entry>,
    order: BTreeMap<u64, String>,
    clock: u64,
    bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

struct Entry {
    json: String,
    stamp: u64,
}

impl Lru {
    fn get(&mut self, key: &str) -> Option<String> {
        let Some(entry) = self.map.get_mut(key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.clock += 1;
        let old = std::mem::replace(&mut entry.stamp, self.clock);
        let key = self.order.remove(&old).expect("every entry has a stamp");
        self.order.insert(self.clock, key);
        Some(entry.json.clone())
    }

    fn put(&mut self, key: &str, mut json: String) {
        if let Some(old) = self.map.remove(key) {
            self.order.remove(&old.stamp);
            self.bytes -= old.json.len() as u64;
        }
        let len = json.len() as u64;
        if len > MEM_STORE_BUDGET_BYTES {
            return;
        }
        // Stored strings live for many requests: give back the slack a
        // serializer's doubling growth left behind.
        json.shrink_to_fit();
        self.clock += 1;
        self.map.insert(
            key.to_string(),
            Entry {
                json,
                stamp: self.clock,
            },
        );
        self.order.insert(self.clock, key.to_string());
        self.bytes += len;
        // The new entry has the newest stamp and fits on its own, so it
        // is never its own victim.
        while self.bytes > MEM_STORE_BUDGET_BYTES {
            let (_, victim) = self.order.pop_first().expect("over budget means non-empty");
            let old = self.map.remove(&victim).expect("every stamp has an entry");
            self.bytes -= old.json.len() as u64;
            self.evictions += 1;
        }
    }
}

impl MemStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The store's state. No step under the lock can panic while the
    /// map, the recency order and the byte count agree (the `expect`s
    /// fire only on an invariant that is already broken), so a poisoned
    /// lock still guards valid data and is reused rather than turned
    /// into a panic in every later caller.
    fn lock(&self) -> MutexGuard<'_, Lru> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// All keys currently held, in arbitrary order (tests poison
    /// entries through this; the flow itself never enumerates).
    #[must_use]
    pub fn keys(&self) -> Vec<String> {
        self.lock().map.keys().cloned().collect()
    }

    /// Current traffic and occupancy counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let lru = self.lock();
        StoreStats {
            hits: lru.hits,
            misses: lru.misses,
            entries: lru.map.len() as u64,
            bytes: lru.bytes,
            evictions: lru.evictions,
            budget_bytes: MEM_STORE_BUDGET_BYTES,
        }
    }
}

impl ArtifactStore for MemStore {
    fn get(&self, key: &str) -> Option<String> {
        self.lock().get(key)
    }

    fn put(&self, key: &str, json: String) {
        self.lock().put(key, json);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_and_stats() {
        let store = MemStore::new();
        assert_eq!(store.get("k"), None);
        store.put("k", "{\"v\":1}".to_string());
        assert_eq!(store.get("k").as_deref(), Some("{\"v\":1}"));
        let stats = store.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, 7);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let store = MemStore::new();
        std::thread::scope(|s| {
            for i in 0..4 {
                let store = &store;
                s.spawn(move || {
                    for j in 0..50 {
                        store.put(&format!("k{}", j % 8), format!("v{i}"));
                        let _ = store.get(&format!("k{}", j % 8));
                    }
                });
            }
        });
        assert_eq!(store.stats().entries, 8);
    }

    /// A JSON-sized filler of `mib` MiB.
    fn filler(mib: u64) -> String {
        "x".repeat(usize::try_from(mib << 20).unwrap())
    }

    fn held_bytes(store: &MemStore) -> u64 {
        store
            .keys()
            .iter()
            .map(|k| store.lock().map[k].json.len() as u64)
            .sum()
    }

    #[test]
    fn eviction_takes_least_recently_used_first() {
        let store = MemStore::new();
        for k in ["a", "b", "c", "d"] {
            store.put(k, filler(2));
        }
        assert_eq!(store.stats().bytes, MEM_STORE_BUDGET_BYTES);
        assert_eq!(store.stats().evictions, 0);
        // Reading "a" makes "b" the least recently used entry.
        assert!(store.get("a").is_some());
        store.put("e", filler(1));
        let mut keys = store.keys();
        keys.sort();
        assert_eq!(keys, ["a", "c", "d", "e"]);
        // A rewrite refreshes too: "c" survives, "d" then "a" go.
        store.put("c", filler(2));
        store.put("f", filler(4));
        let mut keys = store.keys();
        keys.sort();
        assert_eq!(keys, ["c", "e", "f"]);
        let stats = store.stats();
        assert_eq!(stats.evictions, 3);
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.bytes, 7 << 20);
        assert_eq!(stats.bytes, held_bytes(&store));
        assert_eq!(stats.budget_bytes, MEM_STORE_BUDGET_BYTES);
    }

    #[test]
    fn oversize_entries_are_not_stored() {
        let store = MemStore::new();
        store.put("small", "{}".to_string());
        store.put(
            "big",
            "x".repeat(usize::try_from(MEM_STORE_BUDGET_BYTES).unwrap() + 1),
        );
        assert_eq!(store.get("big"), None);
        assert_eq!(store.get("small").as_deref(), Some("{}"));
        // An oversize rewrite drops the key's old value; nothing else.
        store.put("small", filler(9));
        let stats = store.stats();
        assert_eq!((stats.entries, stats.bytes, stats.evictions), (0, 0, 0));
        // An entry of exactly the budget fits, alone.
        store.put("a", "{}".to_string());
        store.put("full", filler(8));
        assert_eq!(store.keys(), ["full"]);
        assert_eq!(store.stats().bytes, held_bytes(&store));
    }

    #[test]
    fn byte_count_tracks_held_entries_under_churn() {
        let store = MemStore::new();
        for i in 0..64u64 {
            let key = format!("k{}", i % 11);
            store.put(
                &key,
                "y".repeat(usize::try_from((i % 5 + 1) << 19).unwrap()),
            );
            let _ = store.get(&format!("k{}", (i * 7) % 11));
            let stats = store.stats();
            assert!(stats.bytes <= MEM_STORE_BUDGET_BYTES);
            assert_eq!(stats.bytes, held_bytes(&store), "after put {i}");
            assert_eq!(stats.entries, store.keys().len() as u64);
        }
        assert!(store.stats().evictions > 0);
    }
}
