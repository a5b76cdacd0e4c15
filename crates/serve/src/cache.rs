//! A sharded LRU answer cache.
//!
//! Keys are canonical query strings ([`crate::Query::key`]), hashed once
//! with FNV-1a: the hash picks the shard, so placement is stable across
//! runs and thread counts, and then finds the key in that shard's map.
//! Each shard keeps its entries in slots on a recency list, least
//! recently used first, so eviction (drop the head) is deterministic. The
//! list is linked by slot number, so a touch, an insert and an eviction
//! each cost O(1) whatever the shard's capacity. A full shard reuses the
//! evicted key's slot for the new key.
//!
//! Shards share nothing, so the service gives each shard's probes and
//! inserts of a batch to one pool task; the per-shard occupancy gauge
//! shows how evenly keys spread.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// End of a recency list or of a same-hash chain.
const NIL: u32 = u32::MAX;

/// The FNV-1a (64-bit) hash of a key: the one hash the cache uses.
pub(crate) fn key_hash(key: &str) -> u64 {
    fnv1a(key.bytes())
}

/// FNV-1a (64-bit) over `bytes`.
pub(crate) fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Bytes a key keeps inline. Every key of the `serve_cold`, `serve_hot`
/// and `campaign_load` workloads fits (the longest is 52 bytes).
const INLINE_KEY: usize = 62;

/// A key's text, inline when it is short, so that a probe finds it in the
/// slot's own cache lines and a new key or an eviction allocates nothing.
pub(crate) enum Key {
    Inline { len: u8, bytes: [u8; INLINE_KEY] },
    Heap(Box<str>),
}

impl Key {
    fn new(text: &str) -> Self {
        match text.len() {
            len @ 0..=INLINE_KEY => {
                let mut bytes = [0; INLINE_KEY];
                bytes[..len].copy_from_slice(text.as_bytes());
                Key::Inline {
                    len: len as u8,
                    bytes,
                }
            }
            _ => Key::Heap(text.into()),
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            Key::Inline { len, bytes } => &bytes[..*len as usize],
            Key::Heap(text) => text.as_bytes(),
        }
    }
}

/// Hands a shard's map the key hash it is given, so the key is not hashed
/// again. Rotated, as the hash's low bits picked the shard and so are the
/// same for every key of a shard. FNV-1a is not keyed, so clients could
/// craft keys whose hashes collide in the bits the map reads; a shard's
/// capacity bounds the probe run that builds.
#[derive(Default)]
struct KeyHash(u64);

impl Hasher for KeyHash {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a shard's map is keyed by u64 hashes only")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash.rotate_left(32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One entry, linked to its neighbours on the shard's recency list.
struct Slot<V> {
    hash: u64,
    key: Key,
    value: V,
    older: u32,
    newer: u32,
    /// The next slot whose key has the same hash (almost always [`NIL`]).
    same_hash: u32,
}

/// One shard: its slots, their map and their recency list.
pub(crate) struct Shard<V> {
    /// Hash → the newest slot with that hash; the rest follow on its
    /// same-hash chain.
    map: HashMap<u64, u32, BuildHasherDefault<KeyHash>>,
    /// Grows to the shard's capacity; from then on a new key takes over
    /// the evicted key's slot.
    slots: Vec<Slot<V>>,
    /// Least and most recently used slots ([`NIL`] when empty).
    oldest: u32,
    newest: u32,
    capacity: usize,
}

impl<V> Shard<V> {
    fn new(capacity: usize) -> Self {
        Shard {
            map: HashMap::default(),
            slots: Vec::new(),
            oldest: NIL,
            newest: NIL,
            capacity,
        }
    }

    fn find(&self, key: &str, hash: u64) -> Option<u32> {
        let mut i = *self.map.get(&hash)?;
        while self.slots[i as usize].key.as_bytes() != key.as_bytes() {
            i = self.slots[i as usize].same_hash;
            if i == NIL {
                return None;
            }
        }
        Some(i)
    }

    /// The value of `key` (whose hash is `hash`), bumping its recency.
    pub(crate) fn get(&mut self, key: &str, hash: u64) -> Option<&V> {
        let i = self.find(key, hash)?;
        self.touch(i);
        Some(&self.slots[i as usize].value)
    }

    /// Insert (or refresh) `key`, whose hash is `hash`, evicting the least
    /// recently used entry if the shard is full; returns the evicted key.
    pub(crate) fn insert(&mut self, key: &str, hash: u64, value: V) -> Option<Key> {
        if let Some(i) = self.find(key, hash) {
            self.slots[i as usize].value = value;
            self.touch(i);
            return None;
        }
        let (i, victim) = if self.slots.len() >= self.capacity {
            let i = self.oldest;
            self.unlink(i);
            self.unmap(i);
            let slot = &mut self.slots[i as usize];
            slot.hash = hash;
            slot.value = value;
            (i, Some(std::mem::replace(&mut slot.key, Key::new(key))))
        } else {
            self.slots.push(Slot {
                hash,
                key: Key::new(key),
                value,
                older: NIL,
                newer: NIL,
                same_hash: NIL,
            });
            (self.slots.len() as u32 - 1, None)
        };
        self.slots[i as usize].same_hash = self.map.insert(hash, i).unwrap_or(NIL);
        self.push_newest(i);
        victim
    }

    /// Take slot `i` off its same-hash chain.
    fn unmap(&mut self, i: u32) {
        let (hash, next) = (
            self.slots[i as usize].hash,
            self.slots[i as usize].same_hash,
        );
        let head = self.map.get_mut(&hash).expect("a slot's hash is mapped");
        if *head == i {
            match next {
                NIL => self.map.remove(&hash),
                next => Some(std::mem::replace(head, next)),
            };
            return;
        }
        let mut prev = *head;
        while self.slots[prev as usize].same_hash != i {
            prev = self.slots[prev as usize].same_hash;
        }
        self.slots[prev as usize].same_hash = next;
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn unlink(&mut self, i: u32) {
        let (older, newer) = (self.slots[i as usize].older, self.slots[i as usize].newer);
        match older {
            NIL => self.oldest = newer,
            o => self.slots[o as usize].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.slots[n as usize].older = older,
        }
    }

    fn push_newest(&mut self, i: u32) {
        self.slots[i as usize].older = self.newest;
        self.slots[i as usize].newer = NIL;
        match self.newest {
            NIL => self.oldest = i,
            n => self.slots[n as usize].newer = i,
        }
        self.newest = i;
    }

    /// Mark slot `i` most recently used.
    fn touch(&mut self, i: u32) {
        if self.newest != i {
            self.unlink(i);
            self.push_newest(i);
        }
    }
}

/// Shard count for a service running on `threads` workers: four shards
/// per worker, rounded up to a power of two and clamped to `[1, 64]` —
/// enough shards that a batch's per-shard tasks keep every worker busy,
/// without fragmenting capacity at small thread counts.
///
/// Shard count never changes *what* is answered — keys hash to shards
/// deterministically and eviction is per shard — it only moves the
/// occupancy/eviction boundaries, which the RED metrics surface.
pub fn auto_shards(threads: usize) -> usize {
    (threads.max(1) * 4).next_power_of_two().clamp(1, 64)
}

/// Sharded least-recently-used cache with a fixed per-shard capacity.
pub struct ShardedLru<V> {
    shards: Vec<Shard<V>>,
}

impl<V> ShardedLru<V> {
    /// Create a cache with `shards` shards of `capacity_per_shard`
    /// entries each. Both are clamped to at least 1, and the capacity
    /// to fewer than 2³² entries.
    pub fn new(shards: usize, capacity_per_shard: usize) -> Self {
        let capacity = capacity_per_shard.clamp(1, NIL as usize - 1);
        ShardedLru {
            shards: (0..shards.max(1)).map(|_| Shard::new(capacity)).collect(),
        }
    }

    /// Look up `key`, bumping its recency on a hit.
    pub fn get(&mut self, key: &str) -> Option<V>
    where
        V: Clone,
    {
        let hash = key_hash(key);
        let shard = self.shard_of(hash);
        self.shards[shard].get(key, hash).cloned()
    }

    /// Insert (or refresh) `key`, evicting the least-recently-used entry
    /// of its shard if the shard is full.
    pub fn insert(&mut self, key: &str, value: V) {
        self.put(key, value);
    }

    /// [`ShardedLru::insert`], returning the evicted key.
    fn put(&mut self, key: &str, value: V) -> Option<Key> {
        let hash = key_hash(key);
        let shard = self.shard_of(hash);
        self.shards[shard].insert(key, hash, value)
    }

    /// The shard a key with `hash` lives in.
    pub(crate) fn shard_of(&self, hash: u64) -> usize {
        (hash % self.shards.len() as u64) as usize
    }

    /// The shards, in shard order.
    pub(crate) fn shards_mut(&mut self) -> &mut [Shard<V>] {
        &mut self.shards
    }

    /// Total live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Shard::len).sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total capacity (shards × per-shard capacity).
    pub fn capacity(&self) -> usize {
        self.shards.len() * self.shards[0].capacity
    }

    /// Per-shard live entry counts, in shard order.
    pub fn shard_occupancy(&self) -> Vec<usize> {
        self.shards.iter().map(Shard::len).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn shard_of(key: &str, shards: usize) -> usize {
        (key_hash(key) % shards as u64) as usize
    }

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

    /// Key `k`'s text: every third too long to keep inline.
    fn key_text(k: u8) -> String {
        match k % 3 {
            0 => format!("{k:0>70}"),
            _ => format!("k{k}"),
        }
    }

    /// The text of a key the cache returned.
    fn text(key: Key) -> String {
        String::from_utf8(key.as_bytes().to_vec()).expect("UTF-8 key")
    }

    /// Gets and inserts over 96 keys, half each.
    fn op() -> impl Strategy<Value = Op> {
        (0u8..2, 0u8..96, 0u32..1000).prop_map(|(kind, k, v)| {
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
            capacity in 1usize..40,
            ops in prop::collection::vec(op(), 1..400),
        ) {
            let mut cache: ShardedLru<u32> = ShardedLru::new(shards, capacity);
            let mut oracle = FullScan::new(shards, capacity);
            for (i, o) in ops.iter().enumerate() {
                match *o {
                    Op::Get(k) => {
                        let key = key_text(k);
                        prop_assert_eq!(cache.get(&key), oracle.get(&key), "op {}", i);
                    }
                    Op::Insert(k, v) => {
                        let key = key_text(k);
                        let victim = cache.put(&key, v).map(text);
                        prop_assert_eq!(victim, oracle.put(&key, v), "op {}", i);
                    }
                }
                prop_assert_eq!(cache.len(), oracle.occupancy().iter().sum::<usize>());
                prop_assert_eq!(cache.shard_occupancy(), oracle.occupancy());
            }
        }

        /// One shard given hashes that collide (key `k` hashes to `k % 4`),
        /// so its same-hash chains grow long and lose links at any place.
        #[test]
        fn same_hash_chains_evict_what_the_full_scan_did(
            capacity in 1usize..40,
            ops in prop::collection::vec(op(), 1..400),
        ) {
            let mut shard: Shard<u32> = Shard::new(capacity);
            let mut oracle = FullScan::new(1, capacity);
            for (i, o) in ops.iter().enumerate() {
                match *o {
                    Op::Get(k) => {
                        let key = key_text(k);
                        let got = shard.get(&key, k as u64 % 4).copied();
                        prop_assert_eq!(got, oracle.get(&key), "op {}", i);
                    }
                    Op::Insert(k, v) => {
                        let key = key_text(k);
                        let victim = shard.insert(&key, k as u64 % 4, v).map(text);
                        prop_assert_eq!(victim, oracle.put(&key, v), "op {}", i);
                    }
                }
                prop_assert_eq!(shard.len(), oracle.occupancy()[0]);
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
