//! Concurrency cores: the shared-state hot paths of the storage layer,
//! extracted into small generic structures so a model checker can explore
//! them exhaustively.
//!
//! Two cores live here, each generic over the [`SyncFacade`]:
//!
//! * [`ClockCacheCore`] — the sharded clock (second-chance) cache behind
//!   the bounded chunk cache of `SegmentReader`, keyed by dense slot
//!   numbers so a lookup reads a side table instead of hashing;
//! * [`SeqReserver`] — the atomic sequence/rate-limit reservation behind
//!   query admission and the access log's sequence numbers.
//!
//! Production code uses them through [`StdSync`](crate::sync::StdSync)
//! (zero-cost `std::sync` pass-throughs); the `skyweb-check` explorer
//! instantiates them with a model facade whose every operation is a
//! scheduling yield point and enumerates bounded thread interleavings.
//!
//! Each core accepts a `racy` flag that *weakens* its atomic
//! read-modify-write updates (for the clock cache, its shared eviction and
//! resident-bytes counters) to separate load + store steps — the seeded
//! mutation the explorer must detect to prove it has teeth. Production
//! constructors always pass `false`; the flag exists only so the checker
//! can demonstrate that the exact interleavings it explores distinguish
//! the correct protocol from the broken one.

use crate::sync::{FacadeAtomicU64, FacadeMutex, SyncFacade};

/// Adds `delta` to `counter`, either atomically or — under the seeded
/// `racy` mutation — as a non-atomic load + store pair (two separate
/// yield points under the model facade, so a lost update is reachable).
fn counter_add<A: FacadeAtomicU64>(counter: &A, delta: u64, racy: bool) {
    if racy {
        let v = counter.load();
        counter.store(v.wrapping_add(delta));
    } else {
        counter.fetch_add(delta);
    }
}

/// Subtracting twin of [`counter_add`].
fn counter_sub<A: FacadeAtomicU64>(counter: &A, delta: u64, racy: bool) {
    if racy {
        let v = counter.load();
        counter.store(v.wrapping_sub(delta));
    } else {
        counter.fetch_sub(delta);
    }
}

/// One resident entry of a [`ClockCacheCore`] shard.
struct ClockSlot<V> {
    key: usize,
    value: V,
    cost: u64,
    referenced: bool,
}

/// One shard: clock (second-chance) eviction over a flat slot array, with
/// a dense side table from key to slot and the shard's hit and miss
/// counts, all guarded by the shard's lock.
struct ClockShard<V> {
    slots: Vec<ClockSlot<V>>,
    /// `index[key]` is the key's slot position + 1, or 0 when the key is
    /// not resident. Its length, fixed at construction, bounds the keys.
    index: Vec<u32>,
    hand: usize,
    bytes: u64,
    hits: u64,
    misses: u64,
}

impl<V> ClockShard<V> {
    /// The slot position of `key`, if it is resident.
    #[inline]
    fn position(&self, key: usize) -> Option<usize> {
        let tag = *self.index.get(key)?;
        usize::try_from(tag).ok()?.checked_sub(1)
    }

    /// Records `key` in the side table at slot position `at`, or as
    /// absent for `None`.
    fn point(&mut self, key: usize, at: Option<usize>) {
        let tag = at.map_or(Some(0), |i| u32::try_from(i + 1).ok());
        if let (Some(entry), Some(tag)) = (self.index.get_mut(key), tag) {
            *entry = tag;
        }
    }
}

/// A sharded, byte-budgeted cache with clock (second-chance) eviction.
///
/// A key is a slot number local to its shard, below the per-shard table
/// length fixed at construction; the caller maps its own keys onto shards
/// and slots (the chunk cache derives both from a chunk's kind, attribute
/// and number). Each shard holds at most `total_budget / n_shards` bytes
/// and finds a key's slot by reading a dense side table, so a lookup
/// hashes nothing. A key outside the table is always a miss, and its
/// value is served uncached. A lookup marks its slot *referenced*; the
/// eviction hand clears the mark on first contact and only evicts slots
/// it finds unmarked, so anything touched since the hand's last sweep
/// survives one extra revolution.
///
/// Hits and misses are counted per shard, under the lock each lookup
/// already holds. The eviction and resident-bytes counters are facade
/// atomics shared by all shards, so the statistics stay exact under
/// concurrent clients — the invariant the `skyweb-check` explorer pins is
/// `resident == Σ slot costs` across every reachable interleaving.
pub struct ClockCacheCore<S: SyncFacade, V: Send> {
    shards: Vec<S::Mutex<ClockShard<V>>>,
    shard_budget: u64,
    evictions: S::AtomicU64,
    resident: S::AtomicU64,
    racy: bool,
}

/// A consistency snapshot of a [`ClockCacheCore`], taken by walking every
/// shard under its lock: the ground truth the counters must agree with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAudit {
    /// Number of resident slots across all shards.
    pub slots: usize,
    /// Sum of the resident slots' costs (ground-truth resident bytes).
    pub slot_bytes: u64,
    /// Value of the `resident` counter (must equal `slot_bytes`).
    pub resident_counter: u64,
    /// `true` if any shard holds more bytes than its budget.
    pub over_budget: bool,
    /// Lifetime hit count.
    pub hits: u64,
    /// Lifetime miss count.
    pub misses: u64,
    /// Lifetime eviction count.
    pub evictions: u64,
}

impl<S, V> ClockCacheCore<S, V>
where
    S: SyncFacade,
    V: Clone + Send,
{
    /// Creates a cache of `n_shards` shards sharing `total_budget` bytes,
    /// each addressing the keys `0..keys_per_shard` (capped at
    /// `u32::MAX`, the side table's range).
    ///
    /// `racy` must be `false` outside the model checker: it weakens the
    /// counter updates to load + store (the seeded lost-update mutation).
    pub fn new(n_shards: usize, keys_per_shard: usize, total_budget: u64, racy: bool) -> Self {
        let divisor = u64::try_from(n_shards.max(1)).unwrap_or(u64::MAX);
        let keys = keys_per_shard.min(usize::try_from(u32::MAX).unwrap_or(usize::MAX));
        ClockCacheCore {
            shards: (0..n_shards.max(1))
                .map(|_| {
                    S::Mutex::new(ClockShard {
                        slots: Vec::new(),
                        index: vec![0; keys],
                        hand: 0,
                        bytes: 0,
                        hits: 0,
                        misses: 0,
                    })
                })
                .collect(),
            shard_budget: total_budget / divisor,
            evictions: S::AtomicU64::new(0),
            resident: S::AtomicU64::new(0),
            racy,
        }
    }

    /// Shard number `shard`, wrapped modulo the shard count. The caller's
    /// numbers are in range, so the division is skipped.
    #[inline]
    fn shard(&self, shard: usize) -> &S::Mutex<ClockShard<V>> {
        let n = self.shards.len();
        &self.shards[if shard < n { shard } else { shard % n }]
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard byte budget.
    pub fn shard_budget(&self) -> u64 {
        self.shard_budget
    }

    /// Looks `key` up in `shard`, counting a hit or a miss under the
    /// shard's lock. A hit marks the slot referenced (its second chance
    /// against the clock hand).
    pub fn get(&self, shard: usize, key: usize) -> Option<V> {
        self.shard(shard)
            .with(|s| match s.position(key).and_then(|i| s.slots.get_mut(i)) {
                Some(slot) => {
                    slot.referenced = true;
                    let value = slot.value.clone();
                    s.hits += 1;
                    Some(value)
                }
                None => {
                    s.misses += 1;
                    None
                }
            })
    }

    /// `true` if `key` is resident in `shard`. No counters move and the
    /// referenced bit is left alone, so tests can probe eviction order.
    #[cfg(test)]
    pub fn contains(&self, shard: usize, key: usize) -> bool {
        self.shard(shard).with(|s| s.position(key).is_some())
    }

    /// Inserts `value` under `key` into `shard`, evicting by clock as
    /// needed, and returns the canonical resident copy. A value whose
    /// `cost` exceeds the shard budget, or whose key lies outside the
    /// shard's table, is served back uncached; a key already resident
    /// returns the existing copy unchanged.
    pub fn insert(&self, shard: usize, key: usize, value: V, cost: u64) -> V {
        if cost > self.shard_budget {
            // Too large to ever stay resident: serve uncached.
            return value;
        }
        self.shard(shard).with(|s| {
            if key >= s.index.len() {
                return value;
            }
            if let Some(slot) = s.position(key).and_then(|i| s.slots.get(i)) {
                return slot.value.clone();
            }
            while s.bytes + cost > self.shard_budget && !s.slots.is_empty() {
                let i = s.hand % s.slots.len();
                if s.slots[i].referenced {
                    s.slots[i].referenced = false;
                    s.hand = i + 1;
                } else {
                    let victim = s.slots.swap_remove(i);
                    s.point(victim.key, None);
                    s.bytes -= victim.cost;
                    counter_add(&self.evictions, 1, self.racy);
                    counter_sub(&self.resident, victim.cost, self.racy);
                    if let Some(moved) = s.slots.get(i).map(|slot| slot.key) {
                        s.point(moved, Some(i));
                    }
                }
            }
            let i = s.slots.len();
            s.point(key, Some(i));
            s.slots.push(ClockSlot {
                key,
                value: value.clone(),
                cost,
                referenced: true,
            });
            s.bytes += cost;
            counter_add(&self.resident, cost, self.racy);
            value
        })
    }

    /// Lifetime hit count, summed over the shards.
    pub fn hit_count(&self) -> u64 {
        self.shards.iter().map(|shard| shard.with(|s| s.hits)).sum()
    }

    /// Lifetime miss count, summed over the shards.
    pub fn miss_count(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| shard.with(|s| s.misses))
            .sum()
    }

    /// Lifetime eviction count.
    pub fn eviction_count(&self) -> u64 {
        self.evictions.load()
    }

    /// Current resident-bytes counter.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load()
    }

    /// Walks every shard and cross-checks the counters against the ground
    /// truth — the explorer's invariant probe (also handy in stress
    /// tests). Shards are visited one at a time, so the audit is exact
    /// only when no writer runs concurrently (quiescence is the caller's
    /// job; the explorer audits after all model threads have joined).
    pub fn audit(&self) -> CacheAudit {
        let mut audit = CacheAudit {
            slots: 0,
            slot_bytes: 0,
            resident_counter: self.resident.load(),
            over_budget: false,
            hits: 0,
            misses: 0,
            evictions: self.evictions.load(),
        };
        for shard in &self.shards {
            shard.with(|s| {
                audit.slots += s.slots.len();
                let bytes: u64 = s.slots.iter().map(|slot| slot.cost).sum();
                debug_assert_eq!(bytes, s.bytes, "shard byte tally out of sync");
                debug_assert!(
                    s.slots
                        .iter()
                        .enumerate()
                        .all(|(i, slot)| s.position(slot.key) == Some(i)),
                    "side table out of sync with the slots"
                );
                audit.slot_bytes += bytes;
                audit.over_budget |= s.bytes > self.shard_budget;
                audit.hits += s.hits;
                audit.misses += s.misses;
            });
        }
        audit
    }
}

/// Atomic sequence numbering with optional rate-limit reservation: the
/// admission counter of `HiddenDb`.
///
/// The value returned by the increment *is* the log sequence number:
/// re-reading the counter after the increment would let concurrent
/// clients log duplicate or skipped sequence numbers — exactly the bug
/// the `racy` mutation re-introduces and the explorer detects.
pub struct SeqReserver<S: SyncFacade> {
    counter: S::AtomicU64,
    racy: bool,
}

impl<S: SyncFacade> SeqReserver<S> {
    /// Creates a reserver starting at zero. `racy` must be `false` outside
    /// the model checker (see the type docs).
    pub fn new(racy: bool) -> Self {
        SeqReserver {
            counter: S::AtomicU64::new(0),
            racy,
        }
    }

    /// Reserves the next sequence number (1-based). With a `limit`, the
    /// slot is reserved atomically *before* the bound check and rolled
    /// back on failure, so concurrent clients cannot exceed the limit;
    /// `Err(limit)` reports an exhausted budget.
    pub fn reserve(&self, limit: Option<u64>) -> Result<u64, u64> {
        if self.racy {
            // Seeded mutation: the reservation is a load + store pair, so
            // two threads can claim the same sequence number.
            let prev = self.counter.load();
            self.counter.store(prev + 1);
            if let Some(max) = limit {
                if prev >= max {
                    let cur = self.counter.load();
                    self.counter.store(cur.wrapping_sub(1));
                    return Err(max);
                }
            }
            return Ok(prev + 1);
        }
        match limit {
            Some(max) => {
                // Reserve a slot atomically so concurrent clients cannot
                // exceed the limit.
                let prev = self.counter.fetch_add(1);
                if prev >= max {
                    self.counter.fetch_sub(1);
                    Err(max)
                } else {
                    Ok(prev + 1)
                }
            }
            None => Ok(self.counter.fetch_add(1) + 1),
        }
    }

    /// Number of sequence numbers currently issued.
    pub fn issued(&self) -> u64 {
        self.counter.load()
    }

    /// Resets the counter to zero (stats reset).
    pub fn reset(&self) {
        self.counter.store(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::StdSync;

    #[test]
    fn clock_cache_second_chance() {
        // Budget of 3 one-cost slots in a single shard.
        let cache: ClockCacheCore<StdSync, usize> = ClockCacheCore::new(1, 8, 3, false);
        for key in 1..=3 {
            cache.insert(0, key, key * 10, 1);
        }
        // Fresh slots start referenced, so the first eviction pass clears
        // every bit on its first revolution and evicts the oldest slot
        // (key 1) on its second.
        cache.insert(0, 4, 40, 1);
        assert!(!cache.contains(0, 1));
        // Touch key 2: its referenced bit is the only one set now.
        assert_eq!(cache.get(0, 2), Some(20));
        // The next eviction must spare the just-referenced key 2 (its
        // second chance) and take the unreferenced key 3 instead —
        // without the `get` above, key 2 would have been the victim.
        cache.insert(0, 5, 50, 1);
        assert!(cache.contains(0, 2));
        assert!(!cache.contains(0, 3));
        assert!(cache.contains(0, 4));
        assert!(cache.contains(0, 5));
        let audit = cache.audit();
        assert_eq!(audit.evictions, 2);
        assert_eq!(audit.slot_bytes, audit.resident_counter);
        assert!(!audit.over_budget);
    }

    #[test]
    fn evicting_a_middle_slot_repoints_the_moved_last_slot() {
        let cache: ClockCacheCore<StdSync, usize> = ClockCacheCore::new(1, 8, 3, false);
        for key in 1..=3 {
            cache.insert(0, key, key * 10, 1);
        }
        // The first eviction takes slot 0 (key 1) and moves the last slot
        // (key 3) into it; the hand stays on slot 0.
        cache.insert(0, 4, 40, 1);
        assert!(!cache.contains(0, 1));
        assert_eq!(cache.get(0, 3), Some(30), "the moved key keeps its value");
        // Slot 0 (key 3) is referenced now, so the hand spares it and
        // evicts the middle slot 1 (key 2); the last slot (key 4) moves
        // into slot 1.
        cache.insert(0, 5, 50, 1);
        assert!(!cache.contains(0, 2));
        assert_eq!(cache.get(0, 4), Some(40), "the moved key still hits");
        assert_eq!(cache.get(0, 3), Some(30));
        assert_eq!(cache.get(0, 5), Some(50));
        assert_eq!(cache.get(0, 2), None);
        let audit = cache.audit();
        assert_eq!((audit.hits, audit.misses, audit.evictions), (4, 1, 2));
        assert_eq!(
            (audit.slots, audit.slot_bytes, audit.resident_counter),
            (3, 3, 3)
        );
    }

    #[test]
    fn clock_cache_oversized_value_served_uncached() {
        let cache: ClockCacheCore<StdSync, u32> = ClockCacheCore::new(2, 16, 4, false);
        assert_eq!(cache.shard_budget(), 2);
        assert_eq!(cache.insert(0, 9, 99, 3), 99);
        assert!(!cache.contains(0, 9));
        assert_eq!(cache.audit().slots, 0);
    }

    #[test]
    fn a_key_outside_the_table_is_a_miss_served_uncached() {
        let cache: ClockCacheCore<StdSync, u32> = ClockCacheCore::new(2, 4, 8, false);
        assert_eq!(cache.insert(1, 4, 44, 1), 44);
        assert_eq!(cache.get(1, 4), None);
        assert_eq!(cache.get(1, usize::MAX), None);
        let audit = cache.audit();
        assert_eq!((audit.slots, audit.hits, audit.misses), (0, 0, 2));
    }

    #[test]
    fn clock_cache_duplicate_insert_returns_resident_copy() {
        let cache: ClockCacheCore<StdSync, u32> = ClockCacheCore::new(1, 8, 8, false);
        assert_eq!(cache.insert(0, 1, 10, 1), 10);
        assert_eq!(cache.insert(0, 1, 77, 1), 10);
        assert_eq!(cache.audit().slots, 1);
    }

    #[test]
    fn seq_reserver_respects_limit_and_rolls_back() {
        let seq: SeqReserver<StdSync> = SeqReserver::new(false);
        assert_eq!(seq.reserve(Some(2)), Ok(1));
        assert_eq!(seq.reserve(Some(2)), Ok(2));
        assert_eq!(seq.reserve(Some(2)), Err(2));
        // The failed reservation rolled back: the count stays at the limit.
        assert_eq!(seq.issued(), 2);
        seq.reset();
        assert_eq!(seq.reserve(None), Ok(1));
    }
}
