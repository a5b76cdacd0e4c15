//! A sharded LRU answer cache.
//!
//! Keys are canonical query strings ([`crate::Query::key`]); the shard is
//! picked by FNV-1a over the key so placement is stable across runs and
//! thread counts. Each shard keeps its entries on a recency list, least
//! recently used first, so eviction (drop the head) is deterministic even
//! though the backing `HashMap`'s iteration order is not. The list is
//! linked by slot index, so a touch, an insert and an eviction each cost
//! O(1) whatever the shard's capacity, and the map and the list share one
//! allocation per key.
//!
//! The service probes and inserts serially during batch merge, so the
//! cache never needs to be shared across threads; sharding exposes
//! per-shard occupancy as a gauge, mirroring how a production server
//! would partition its lock.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

/// End of a recency list.
const NIL: usize = usize::MAX;

/// One entry, linked to its neighbours on the shard's recency list.
struct Slot<V> {
    key: Arc<str>,
    value: V,
    older: usize,
    newer: usize,
}

struct Shard<V> {
    /// Key → its slot.
    map: HashMap<Arc<str>, usize>,
    /// Grows to the shard's capacity; from then on a new key takes over
    /// the evicted key's slot. Emptied only by a clear.
    slots: Vec<Slot<V>>,
    /// Least and most recently used slots ([`NIL`] when empty).
    oldest: usize,
    newest: usize,
}

impl<V> Shard<V> {
    fn unlink(&mut self, i: usize) {
        let (older, newer) = (self.slots[i].older, self.slots[i].newer);
        match older {
            NIL => self.oldest = newer,
            o => self.slots[o].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.slots[n].older = older,
        }
    }

    fn push_newest(&mut self, i: usize) {
        self.slots[i].older = self.newest;
        self.slots[i].newer = NIL;
        match self.newest {
            NIL => self.oldest = i,
            n => self.slots[n].newer = i,
        }
        self.newest = i;
    }

    /// Mark slot `i` most recently used.
    fn touch(&mut self, i: usize) {
        if self.newest != i {
            self.unlink(i);
            self.push_newest(i);
        }
    }
}

/// Shard count for a service running on `threads` workers: four shards
/// per worker, rounded up to a power of two and clamped to `[1, 64]` —
/// enough spread that concurrent batches rarely contend on one shard's
/// recency list, without fragmenting capacity at small thread counts.
///
/// Shard count never changes *what* is answered — keys hash to shards
/// deterministically and eviction is per shard — it only moves the
/// occupancy/eviction boundaries, which the RED metrics surface.
pub fn auto_shards(threads: usize) -> usize {
    (threads.max(1) * 4).next_power_of_two().clamp(1, 64)
}

/// The shard of `key` among `shards`: FNV-1a, 64-bit, so placement is
/// stable across platforms and runs.
fn shard_of(key: &str, shards: usize) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in key.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    (hash % shards as u64) as usize
}

/// Sharded least-recently-used cache with a fixed per-shard capacity.
pub struct ShardedLru<V> {
    shards: Vec<Shard<V>>,
    capacity_per_shard: usize,
}

impl<V: Clone> ShardedLru<V> {
    /// Create a cache with `shards` shards of `capacity_per_shard`
    /// entries each. Both are clamped to at least 1.
    pub fn new(shards: usize, capacity_per_shard: usize) -> Self {
        let shards = shards.max(1);
        ShardedLru {
            shards: (0..shards)
                .map(|_| Shard {
                    map: HashMap::new(),
                    slots: Vec::new(),
                    oldest: NIL,
                    newest: NIL,
                })
                .collect(),
            capacity_per_shard: capacity_per_shard.max(1),
        }
    }

    /// Look up `key`, bumping its recency on a hit.
    pub fn get(&mut self, key: &str) -> Option<V> {
        let idx = shard_of(key, self.shards.len());
        let shard = &mut self.shards[idx];
        let i = *shard.map.get(key)?;
        shard.touch(i);
        Some(shard.slots[i].value.clone())
    }

    /// Insert (or refresh) `key`, evicting the least-recently-used entry
    /// of its shard if the shard is full.
    pub fn insert(&mut self, key: &str, value: V) {
        self.put(key, value);
    }

    /// [`ShardedLru::insert`], returning the evicted key.
    fn put(&mut self, key: &str, value: V) -> Option<Arc<str>> {
        let idx = shard_of(key, self.shards.len());
        let full = self.shards[idx].slots.len() >= self.capacity_per_shard;
        let shard = &mut self.shards[idx];
        // One hash lookup places a new key; a refresh (rare: the service
        // inserts only after a miss) pays for the key it then drops. A new
        // key takes the oldest slot when the shard is full.
        let key: Arc<str> = Arc::from(key);
        let i = match shard.map.entry(Arc::clone(&key)) {
            Entry::Occupied(e) => {
                let i = *e.get();
                shard.slots[i].value = value;
                shard.touch(i);
                return None;
            }
            Entry::Vacant(e) => *e.insert(if full {
                shard.oldest
            } else {
                shard.slots.len()
            }),
        };
        let victim = if full {
            shard.unlink(i);
            let slot = &mut shard.slots[i];
            slot.value = value;
            let victim = std::mem::replace(&mut slot.key, key);
            shard.map.remove(&victim);
            Some(victim)
        } else {
            shard.slots.push(Slot {
                key,
                value,
                older: NIL,
                newer: NIL,
            });
            None
        };
        shard.push_newest(i);
        victim
    }

    /// Total live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.map.len()).sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total capacity (shards × per-shard capacity).
    pub fn capacity(&self) -> usize {
        self.shards.len() * self.capacity_per_shard
    }

    /// Per-shard live entry counts, in shard order.
    pub fn shard_occupancy(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.map.len()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The eviction the recency list replaced, kept as the oracle: each
    /// touch stamps an entry with its shard's next tick, and a full shard
    /// scans every entry for the minimum.
    struct FullScan {
        shards: Vec<ScanShard>,
        capacity: usize,
    }

    /// Value and last-use tick per key, and the shard's tick.
    #[derive(Default)]
    struct ScanShard {
        map: HashMap<String, (u32, u64)>,
        tick: u64,
    }

    impl FullScan {
        fn new(shards: usize, capacity: usize) -> Self {
            FullScan {
                shards: (0..shards.max(1)).map(|_| ScanShard::default()).collect(),
                capacity: capacity.max(1),
            }
        }

        fn get(&mut self, key: &str) -> Option<u32> {
            let idx = shard_of(key, self.shards.len());
            let shard = &mut self.shards[idx];
            shard.tick += 1;
            let entry = shard.map.get_mut(key)?;
            entry.1 = shard.tick;
            Some(entry.0)
        }

        fn put(&mut self, key: &str, value: u32) -> Option<String> {
            let idx = shard_of(key, self.shards.len());
            let shard = &mut self.shards[idx];
            shard.tick += 1;
            if let Some(entry) = shard.map.get_mut(key) {
                *entry = (value, shard.tick);
                return None;
            }
            let mut victim = None;
            if shard.map.len() >= self.capacity {
                victim = shard
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.1)
                    .map(|(k, _)| k.clone());
                if let Some(v) = &victim {
                    shard.map.remove(v);
                }
            }
            shard.map.insert(key.to_string(), (value, shard.tick));
            victim
        }

        fn occupancy(&self) -> Vec<usize> {
            self.shards.iter().map(|s| s.map.len()).collect()
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Get(u8),
        Insert(u8, u32),
    }

    /// Gets and inserts over 24 keys, half each.
    fn op() -> impl Strategy<Value = Op> {
        (0u8..2, 0u8..24, 0u32..1000).prop_map(|(kind, k, v)| {
            if kind == 0 {
                Op::Get(k)
            } else {
                Op::Insert(k, v)
            }
        })
    }

    proptest! {
        #[test]
        fn recency_list_evicts_what_the_full_scan_did(
            shards in 1usize..4,
            capacity in 1usize..6,
            ops in prop::collection::vec(op(), 1..200),
        ) {
            let mut cache: ShardedLru<u32> = ShardedLru::new(shards, capacity);
            let mut oracle = FullScan::new(shards, capacity);
            for (i, o) in ops.iter().enumerate() {
                match *o {
                    Op::Get(k) => {
                        let key = format!("k{k}");
                        prop_assert_eq!(cache.get(&key), oracle.get(&key), "op {}", i);
                    }
                    Op::Insert(k, v) => {
                        let key = format!("k{k}");
                        let victim = cache.put(&key, v).map(|k| k.to_string());
                        prop_assert_eq!(victim, oracle.put(&key, v), "op {}", i);
                    }
                }
                prop_assert_eq!(cache.len(), oracle.occupancy().iter().sum::<usize>());
                prop_assert_eq!(cache.shard_occupancy(), oracle.occupancy());
            }
        }
    }

    #[test]
    fn get_after_insert_hits() {
        let mut cache: ShardedLru<u64> = ShardedLru::new(4, 8);
        assert!(cache.get("a").is_none());
        cache.insert("a", 7);
        assert_eq!(cache.get("a"), Some(7));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.capacity(), 32);
    }

    #[test]
    fn eviction_drops_the_least_recently_used() {
        // One shard so we control the recency order exactly.
        let mut cache: ShardedLru<u32> = ShardedLru::new(1, 2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        cache.get("a"); // "b" is now the LRU entry
        cache.insert("c", 3);
        assert_eq!(cache.get("a"), Some(1));
        assert!(cache.get("b").is_none(), "LRU entry was evicted");
        assert_eq!(cache.get("c"), Some(3));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn len_never_exceeds_capacity() {
        let mut cache: ShardedLru<usize> = ShardedLru::new(3, 4);
        for i in 0..200 {
            cache.insert(&format!("key{i}"), i);
            assert!(cache.len() <= cache.capacity());
            for (shard, occ) in cache.shard_occupancy().into_iter().enumerate() {
                assert!(occ <= 4, "shard {shard} over capacity: {occ}");
            }
        }
    }

    #[test]
    fn auto_shards_tracks_thread_count() {
        assert_eq!(auto_shards(1), 4);
        assert_eq!(auto_shards(4), 16);
        assert_eq!(auto_shards(3), 16, "rounds up to a power of two");
        assert_eq!(auto_shards(0), 4, "zero threads clamps to one worker");
        assert_eq!(auto_shards(1024), 64, "clamped to 64 shards");
    }

    #[test]
    fn occupancy_invariants_hold_at_auto_sizes() {
        // The shard counts a 1-thread and a 4-thread service resolve to.
        for threads in [1usize, 4] {
            let shards = auto_shards(threads);
            let cap = 8;
            let mut cache: ShardedLru<usize> = ShardedLru::new(shards, cap);
            for i in 0..shards * cap * 4 {
                cache.insert(&format!("key{i}"), i);
                let occ = cache.shard_occupancy();
                assert_eq!(occ.len(), shards, "{threads} threads");
                assert_eq!(occ.iter().sum::<usize>(), cache.len());
                assert!(
                    occ.iter().all(|&o| o <= cap),
                    "per-shard capacity respected"
                );
            }
            assert!(
                cache.shard_occupancy().iter().all(|&o| o > 0),
                "with 4x capacity inserted every shard is populated at {threads} threads"
            );
            assert_eq!(cache.capacity(), shards * cap);
        }
    }

    #[test]
    fn reinsert_refreshes_in_place() {
        let mut cache: ShardedLru<u32> = ShardedLru::new(1, 2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        cache.insert("a", 10); // refresh, not a new entry
        assert_eq!(cache.len(), 2);
        cache.insert("c", 3); // evicts "b", the stalest
        assert_eq!(cache.get("a"), Some(10));
        assert!(cache.get("b").is_none());
    }
}
