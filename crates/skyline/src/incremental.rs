//! Incremental skyline / sky-band maintenance.
//!
//! The batch algorithms of this crate ([`crate::bnl_skyline`],
//! [`crate::sfs_skyline`], [`crate::skyband`]) recompute their answer from
//! a complete tuple set. Discovery clients instead need *incremental*
//! maintenance: tuples arrive one response at a time, and the skyline (or
//! top-h sky band) of everything seen so far must stay current after every
//! insertion. `skyweb-core`'s `KnowledgeBase` wraps an
//! [`IncrementalSkyline`] to keep the skyline (or K-sky band) of everything
//! a discovery run has retrieved, one `Arc` bump per tuple.
//!
//! # Design
//!
//! Entries are kept sorted by a **monotone key**: the sum of the tuple's
//! values on the dominance attributes, ties broken by tuple id. Dominance
//! implies a strictly smaller key, so
//!
//! * dominators of a new tuple can only sit in the sorted prefix before its
//!   insertion point (found by binary search), and the scan early-exits as
//!   soon as `band` dominators are seen;
//! * tuples a new entry evicts can only sit in the suffix after it;
//! * the first skyline entry in key order that dominates a probe tuple is
//!   the *smallest-key* dominator — a deterministic answer independent of
//!   insertion order (the old BNL collector's answer depended on it).
//!
//! With `band = h` the structure maintains the **top-h sky band** (tuples
//! dominated by fewer than `h` others; `h = 1` is the plain skyline). The
//! per-entry dominator counts are *exact global counts*, not band-local
//! approximations: a band member's dominators are all band members
//! themselves (any dominator outside the band would contribute its own
//! `>= h` band dominators transitively, contradicting membership), so
//! [`IncrementalSkyline::band_members`] can answer every level `<= h`
//! exactly — which is what lets sky-band discovery drop its repeated
//! O(n²) dominance-count passes over the retrieved set.
//!
//! ```
//! use skyweb_hidden_db::Tuple;
//! use skyweb_skyline::incremental::incremental_skyline_on;
//!
//! let tuples = vec![
//!     Tuple::new(0, vec![5, 1]),
//!     Tuple::new(1, vec![4, 4]),
//!     Tuple::new(2, vec![1, 3]),
//!     Tuple::new(3, vec![3, 2]),
//! ];
//! assert_eq!(incremental_skyline_on(&tuples, &[0, 1]).len(), 3);
//! ```

use std::borrow::Borrow;
use std::sync::Arc;

use skyweb_hidden_db::{dominates_on, AttrId, Tuple};

/// One indexed tuple: the shared handle, its monotone sort key and its
/// exact dominator count.
#[derive(Debug, Clone)]
struct Entry {
    tuple: Arc<Tuple>,
    key: u64,
    dom: u32,
}

/// Target block size of the two-level entry layout: blocks split at twice
/// this, so steady-state blocks hold between one and two targets' worth.
const BLOCK_TARGET: usize = 512;

/// An incrementally maintained skyline (or top-h sky band) over a growing
/// set of `Arc`-shared tuples.
///
/// Inserts are amortized cheap on realistic discovery streams: the binary
/// search costs O(log s), the dominator scan stops at the first `band`
/// dominators (immediately, for the common dominated-tuple case), and the
/// eviction scan only touches the strictly-worse suffix.
///
/// Entries live in a **two-level blocked layout** — a sequence of sorted
/// blocks of at most `2 * BLOCK_TARGET` entries each, globally ordered by
/// the monotone `(key, id)` key. A flat sorted `Vec` paid an O(s) memmove
/// on every accepted insert, which dominated large ingests; the blocked
/// layout caps the memmove at one block (plus an occasional split), for
/// O(s/B + B) structural work per insert.
///
/// ```
/// use std::sync::Arc;
/// use skyweb_hidden_db::Tuple;
/// use skyweb_skyline::incremental::IncrementalSkyline;
///
/// let mut sky = IncrementalSkyline::new(vec![0, 1]);
/// sky.insert(Arc::new(Tuple::new(0, vec![4, 4])));
/// sky.insert(Arc::new(Tuple::new(1, vec![1, 3])));
/// sky.insert(Arc::new(Tuple::new(2, vec![3, 2])));
/// assert_eq!(sky.skyline_len(), 2); // (4,4) is dominated by both
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalSkyline {
    attrs: Vec<AttrId>,
    band: u32,
    /// Sorted blocks in global `(key, id)` order; every block is non-empty
    /// (empty blocks are dropped after evictions).
    blocks: Vec<Vec<Entry>>,
    len: usize,
    skyline_len: usize,
}

impl IncrementalSkyline {
    /// Creates an incremental *skyline* (band = 1) over the given dominance
    /// attributes.
    pub fn new(attrs: Vec<AttrId>) -> Self {
        IncrementalSkyline::with_band(attrs, 1)
    }

    /// Creates an incremental top-`band` sky band over the given dominance
    /// attributes.
    ///
    /// # Panics
    /// Panics if `band == 0`.
    pub fn with_band(attrs: Vec<AttrId>, band: usize) -> Self {
        assert!(band >= 1, "the sky band requires band >= 1");
        IncrementalSkyline {
            attrs,
            band: band as u32,
            blocks: Vec::new(),
            len: 0,
            skyline_len: 0,
        }
    }

    /// The dominance attributes.
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// The band parameter `h` (1 for a plain skyline).
    pub fn band(&self) -> usize {
        self.band as usize
    }

    /// Number of band members currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if nothing has been inserted (or everything was rejected).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of current *skyline* members (entries dominated by nobody).
    pub fn skyline_len(&self) -> usize {
        self.skyline_len
    }

    /// The monotone sort key: dominance implies a strictly smaller key.
    fn key_of(&self, t: &Tuple) -> u64 {
        self.attrs.iter().map(|&a| u64::from(t.values[a])).sum()
    }

    /// Locates the insertion point of `(key, id)` as `(block, offset)`.
    /// With no blocks this returns `(0, 0)` — callers insert a block first.
    fn locate(&self, key: u64, id: u64) -> (usize, usize) {
        let probe = (key, id);
        let bi = self
            .blocks
            .partition_point(|b| {
                // Blocks are never empty; an empty one sorts first.
                b.last()
                    .is_some_and(|last| (last.key, last.tuple.id) < probe)
            })
            .min(self.blocks.len().saturating_sub(1));
        let pos = match self.blocks.get(bi) {
            Some(b) => b.partition_point(|e| (e.key, e.tuple.id) < probe),
            None => 0,
        };
        (bi, pos)
    }

    /// Iterates all entries in global `(key, id)` order.
    fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.blocks.iter().flatten()
    }

    /// Inserts a tuple, updating band membership and dominator counts.
    /// Returns `true` if the tuple entered the band (i.e. it is dominated by
    /// fewer than `band` previously inserted band members).
    ///
    /// The caller is responsible for not inserting the same tuple id twice;
    /// duplicate *values* under distinct ids are fine (they do not dominate
    /// each other).
    pub fn insert(&mut self, tuple: Arc<Tuple>) -> bool {
        let key = self.key_of(&tuple);
        self.insert_with_key(key, &tuple)
    }

    /// [`IncrementalSkyline::insert`] with the monotone key precomputed and
    /// the handle borrowed — the batch path already knows the key, and a
    /// rejected tuple (the common case on dominated streams) then pays no
    /// `Arc` traffic at all.
    fn insert_with_key(&mut self, key: u64, tuple: &Arc<Tuple>) -> bool {
        let (bi, pos) = self.locate(key, tuple.id);

        // Dominators live strictly before the insertion point (strictly
        // smaller key). Scanned as one contiguous slice loop per block —
        // a chained `flatten` here costs a per-element branch on the
        // hottest loop the client owns.
        let mut dom = 0u32;
        for (i, b) in self.blocks.iter().enumerate().take(bi + 1) {
            let slice = if i == bi { &b[..pos] } else { &b[..] };
            for e in slice {
                if e.key < key && dominates_on(&e.tuple, tuple, &self.attrs) {
                    dom += 1;
                    if dom >= self.band {
                        return false;
                    }
                }
            }
        }

        // Eviction candidates live strictly after the insertion point
        // (larger key). Entries hold dom < band before the pass and gain at
        // most one dominator, so exactly the entries reaching `band` leave.
        let mut evicted = 0usize;
        let mut sky_lost = 0usize;
        {
            let attrs = &self.attrs;
            let band = self.band;
            for (i, b) in self.blocks.iter_mut().enumerate().skip(bi) {
                let slice = if i == bi { &mut b[pos..] } else { &mut b[..] };
                for e in slice {
                    if e.key > key && dominates_on(tuple, &e.tuple, attrs) {
                        if e.dom == 0 {
                            sky_lost += 1;
                        }
                        e.dom += 1;
                        if e.dom >= band {
                            evicted += 1;
                        }
                    }
                }
            }
        }
        self.skyline_len -= sky_lost;
        let (mut bi, mut pos) = (bi, pos);
        if evicted > 0 {
            let band = self.band;
            for b in &mut self.blocks {
                b.retain(|e| e.dom < band);
            }
            self.blocks.retain(|b| !b.is_empty());
            self.len -= evicted;
            // Block boundaries moved; re-locate the insertion point.
            (bi, pos) = self.locate(key, tuple.id);
        }

        if dom == 0 {
            self.skyline_len += 1;
        }
        if self.blocks.is_empty() {
            self.blocks.push(Vec::with_capacity(BLOCK_TARGET));
        }
        self.blocks[bi].insert(
            pos,
            Entry {
                tuple: Arc::clone(tuple),
                key,
                dom,
            },
        );
        self.len += 1;
        if self.blocks[bi].len() >= 2 * BLOCK_TARGET {
            let tail = self.blocks[bi].split_off(BLOCK_TARGET);
            self.blocks.insert(bi + 1, tail);
        }
        true
    }

    /// Inserts a whole batch, pre-sorted into ascending `(key, id)` order:
    /// dominated batch tuples then see their in-batch dominators first (one
    /// early-exiting reject instead of a structural insert + later
    /// eviction), and block memmoves cluster. The final structure is
    /// identical to inserting in any order; the returned acceptance count —
    /// tuples that entered the band — is for this sorted order.
    pub fn insert_batch(&mut self, tuples: impl IntoIterator<Item = Arc<Tuple>>) -> usize {
        let mut batch: Vec<(u64, Arc<Tuple>)> =
            tuples.into_iter().map(|t| (self.key_of(&t), t)).collect();
        batch.sort_unstable_by_key(|(key, t)| (*key, t.id));
        batch
            .into_iter()
            .filter(|(key, t)| self.insert_with_key(*key, t))
            .count()
    }

    /// Iterates the band members in monotone-key order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<Tuple>> {
        self.entries().map(|e| &e.tuple)
    }

    /// Iterates the current *skyline* members (dominator count 0) in
    /// monotone-key order.
    pub fn skyline(&self) -> impl Iterator<Item = &Arc<Tuple>> {
        self.entries().filter(|e| e.dom == 0).map(|e| &e.tuple)
    }

    /// Iterates the members of the top-`level` sky band, for any
    /// `1 <= level <= band` — exact, because band members' dominator counts
    /// are exact global counts (see the module docs).
    ///
    /// # Panics
    /// Panics if `level` is 0 or exceeds the structure's band parameter.
    pub fn band_members(&self, level: usize) -> impl Iterator<Item = &Arc<Tuple>> {
        assert!(
            level >= 1 && level <= self.band as usize,
            "level {level} outside 1..={}",
            self.band
        );
        let level = level as u32;
        self.entries()
            .filter(move |e| e.dom < level)
            .map(|e| &e.tuple)
    }

    /// The smallest-key skyline member that dominates `t`, if any.
    ///
    /// A dominator's key is strictly smaller than `t`'s, so the scan stops
    /// at `t`'s key; the answer is deterministic and independent of the
    /// order in which tuples were inserted.
    pub fn first_skyline_dominator(&self, t: &Tuple) -> Option<&Arc<Tuple>> {
        let key = self.key_of(t);
        for b in &self.blocks {
            for e in b {
                if e.key >= key {
                    return None;
                }
                if e.dom == 0 && dominates_on(&e.tuple, t, &self.attrs) {
                    return Some(&e.tuple);
                }
            }
        }
        None
    }
}

/// Computes the skyline of `tuples` on `attrs` by feeding them through an
/// [`IncrementalSkyline`] — a third batch strategy alongside BNL and SFS,
/// and the one the differential tests pin against both.
pub fn incremental_skyline_on<B: Borrow<Tuple>>(tuples: &[B], attrs: &[AttrId]) -> Vec<Tuple> {
    let mut sky = IncrementalSkyline::new(attrs.to_vec());
    for t in tuples {
        sky.insert(Arc::new(t.borrow().clone()));
    }
    sky.skyline().map(|t| t.as_ref().clone()).collect()
}

/// Computes the top-`h` sky band of `tuples` on `attrs` incrementally —
/// the streaming counterpart of [`crate::skyband_on`].
pub fn incremental_skyband_on<B: Borrow<Tuple>>(
    tuples: &[B],
    attrs: &[AttrId],
    h: usize,
) -> Vec<Tuple> {
    let mut sky = IncrementalSkyline::with_band(attrs.to_vec(), h);
    for t in tuples {
        sky.insert(Arc::new(t.borrow().clone()));
    }
    sky.iter().map(|t| t.as_ref().clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bnl_skyline_on, same_ids, skyband_on};

    fn arc(id: u64, values: Vec<u32>) -> Arc<Tuple> {
        Arc::new(Tuple::new(id, values))
    }

    /// Naive reference: exact dominator counts by pairwise comparison.
    fn naive_counts(tuples: &[Arc<Tuple>], attrs: &[AttrId]) -> Vec<usize> {
        tuples
            .iter()
            .map(|t| {
                tuples
                    .iter()
                    .filter(|u| u.id != t.id && dominates_on(u, t, attrs))
                    .count()
            })
            .collect()
    }

    fn ids<'a>(iter: impl Iterator<Item = &'a Arc<Tuple>>) -> Vec<u64> {
        let mut v: Vec<u64> = iter.map(|t| t.id).collect();
        v.sort_unstable();
        v
    }

    fn pseudo_random(n: u64, m: usize, domain: u32) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                let values = (0..m)
                    .map(|j| ((i * 2654435761 + j as u64 * 40503 + 11) % u64::from(domain)) as u32)
                    .collect();
                Tuple::new(i, values)
            })
            .collect()
    }

    #[test]
    fn maintains_the_skyline_incrementally() {
        let mut sky = IncrementalSkyline::new(vec![0, 1]);
        assert!(sky.insert(arc(1, vec![4, 4])));
        assert_eq!(sky.skyline_len(), 1);
        assert!(sky.insert(arc(3, vec![3, 2])));
        // (3,2) dominates (4,4): with band 1 the dominated entry is evicted.
        assert_eq!(sky.skyline_len(), 1);
        assert_eq!(sky.len(), 1);
        assert!(sky.insert(arc(0, vec![5, 1])));
        assert_eq!(ids(sky.skyline()), vec![0, 3]);
        // A dominated insert is rejected outright.
        assert!(!sky.insert(arc(9, vec![5, 5])));
        assert_eq!(sky.len(), 2);
    }

    #[test]
    fn equal_values_do_not_dominate_each_other() {
        let mut sky = IncrementalSkyline::new(vec![0, 1]);
        assert!(sky.insert(arc(0, vec![2, 2])));
        assert!(sky.insert(arc(1, vec![2, 2])));
        assert_eq!(sky.skyline_len(), 2);
    }

    #[test]
    fn band_counts_are_exact_against_the_naive_reference() {
        // Pseudo-random stream in adversarial (non-sorted) insertion order.
        let attrs = vec![0usize, 1, 2];
        for band in 1..=4usize {
            let tuples: Vec<Arc<Tuple>> = (0..120u64)
                .map(|i| {
                    arc(
                        i,
                        vec![
                            ((i * 2654435761) % 13) as u32,
                            ((i * 40503 + 7) % 11) as u32,
                            ((i * 9176 + 3) % 7) as u32,
                        ],
                    )
                })
                .collect();
            let mut sky = IncrementalSkyline::with_band(attrs.clone(), band);
            for t in &tuples {
                sky.insert(Arc::clone(t));
            }
            let counts = naive_counts(&tuples, &attrs);
            for level in 1..=band {
                let expected: Vec<u64> = {
                    let mut v: Vec<u64> = tuples
                        .iter()
                        .zip(&counts)
                        .filter(|(_, &c)| c < level)
                        .map(|(t, _)| t.id)
                        .collect();
                    v.sort_unstable();
                    v
                };
                assert_eq!(
                    ids(sky.band_members(level)),
                    expected,
                    "band={band}, level={level}"
                );
            }
            assert_eq!(sky.skyline_len(), sky.band_members(1).count());
        }
    }

    #[test]
    fn first_skyline_dominator_is_the_smallest_key_dominator() {
        let mut sky = IncrementalSkyline::new(vec![0, 1]);
        sky.insert(arc(0, vec![5, 1]));
        sky.insert(arc(2, vec![1, 3]));
        sky.insert(arc(3, vec![3, 2]));
        // (4,4) is dominated by (1,3) [key 4] and (3,2) [key 5].
        let probe = Tuple::new(9, vec![4, 4]);
        assert_eq!(sky.first_skyline_dominator(&probe).unwrap().id, 2);
        let free = Tuple::new(9, vec![0, 0]);
        assert!(sky.first_skyline_dominator(&free).is_none());
    }

    #[test]
    fn band_member_iteration_respects_levels() {
        // Chain t_i = (i, i): t_i has exactly i dominators.
        let mut sky = IncrementalSkyline::with_band(vec![0, 1], 3);
        for i in (0..6u64).rev() {
            sky.insert(arc(i, vec![i as u32, i as u32]));
        }
        assert_eq!(sky.len(), 3);
        assert_eq!(ids(sky.band_members(1)), vec![0]);
        assert_eq!(ids(sky.band_members(2)), vec![0, 1]);
        assert_eq!(ids(sky.band_members(3)), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "band >= 1")]
    fn zero_band_panics() {
        let _ = IncrementalSkyline::with_band(vec![0], 0);
    }

    #[test]
    fn blocked_layout_splits_evicts_and_matches_the_naive_reference() {
        // Anti-correlated values with jitter: hundreds of band members, so
        // the two-level layout splits blocks and eviction crosses block
        // boundaries.
        let attrs = vec![0usize, 1];
        let tuples: Vec<Arc<Tuple>> = (0..6000u64)
            .map(|i| {
                let a = ((i * 2654435761) % 4096) as u32;
                let jitter = ((i * 40503 + 7) % 16) as u32;
                arc(i, vec![a, 8192 - a + jitter])
            })
            .collect();
        let counts = naive_counts(&tuples, &attrs);
        for band in [1usize, 3] {
            let mut one = IncrementalSkyline::with_band(attrs.clone(), band);
            for t in &tuples {
                one.insert(Arc::clone(t));
            }
            let mut batched = IncrementalSkyline::with_band(attrs.clone(), band);
            batched.insert_batch(tuples.iter().cloned());
            // One-at-a-time and batched ingest agree with each other and
            // with the naive pairwise reference.
            let expected: Vec<u64> = {
                let mut v: Vec<u64> = tuples
                    .iter()
                    .zip(&counts)
                    .filter(|(_, &c)| c < band)
                    .map(|(t, _)| t.id)
                    .collect();
                v.sort_unstable();
                v
            };
            assert_eq!(ids(one.iter()), expected, "band={band}");
            assert!(
                one.len() > 2 * BLOCK_TARGET,
                "the test must span several blocks (len {})",
                one.len()
            );
            let seq: Vec<u64> = one.iter().map(|t| t.id).collect();
            let batched_seq: Vec<u64> = batched.iter().map(|t| t.id).collect();
            assert_eq!(seq, batched_seq, "band={band}");
            assert_eq!(one.skyline_len(), batched.skyline_len());
            // Iteration is globally sorted by the monotone key across
            // block boundaries.
            let keys: Vec<u64> = one
                .iter()
                .map(|t| attrs.iter().map(|&a| u64::from(t.values[a])).sum())
                .collect();
            assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn incremental_skyline_agrees_with_bnl() {
        for (n, m, domain) in [(50, 2, 8), (200, 3, 16), (120, 4, 6)] {
            let tuples = pseudo_random(n, m, domain);
            let attrs: Vec<AttrId> = (0..m).collect();
            let inc = incremental_skyline_on(&tuples, &attrs);
            let bnl = bnl_skyline_on(&tuples, &attrs);
            assert!(same_ids(&inc, &bnl), "n={n}, m={m}, domain={domain}");
        }
    }

    #[test]
    fn incremental_skyband_agrees_with_batch_skyband() {
        let tuples = pseudo_random(150, 3, 10);
        let attrs = [0usize, 1, 2];
        for h in 1..=4 {
            let inc = incremental_skyband_on(&tuples, &attrs, h);
            let batch = skyband_on(&tuples, &attrs, h);
            assert!(same_ids(&inc, &batch), "h={h}");
        }
    }
}
