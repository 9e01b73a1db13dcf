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
//! Each block stores, beside its entries, one flat **row** of the `m`
//! dominance values per entry, so every scan reads contiguous `u32`s
//! instead of following `Entry → Arc<Tuple> → values`. The key makes the
//! row test cheap: when an entry's key is strictly smaller than the
//! probe's, "row ≤ probe on every attribute" *is* dominance (the smaller
//! sum forces a strictly better value somewhere), and the mirror test holds
//! for a strictly larger key.
//!
//! The insert's dominator scan walks its prefix **nearest-first**, from the
//! insertion point toward the smallest key: a dominator's values sit close
//! to the tuple it dominates, so a rejected tuple meets its `band`
//! dominators after a few visits, and an accepted tuple scans the whole
//! prefix in either order. Band membership and every stored dominator
//! count are therefore unchanged. [`IncrementalSkyline::first_skyline_dominator`]
//! keeps the ascending order, because its contract is the smallest-key
//! dominator: RQ-DB-SKY's pivots, and so its query costs, depend on it.
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

use skyweb_hidden_db::{AttrId, Tuple, Value};

/// One indexed tuple: the shared handle, its monotone sort key and its
/// exact dominator count.
#[derive(Debug, Clone)]
struct Entry {
    tuple: Arc<Tuple>,
    key: u64,
    dom: u32,
}

/// One sorted block: its entries, and beside them one flat row of the `m`
/// dominance values per entry — row `j` is `rows[j * m..(j + 1) * m]` and
/// belongs to `entries[j]`. Every structural change moves both in step.
#[derive(Debug, Clone)]
struct Block {
    entries: Vec<Entry>,
    rows: Vec<Value>,
}

impl Block {
    /// Row `j`: the dominance values of `entries[j]`.
    fn row(&self, j: usize, m: usize) -> &[Value] {
        &self.rows[j * m..(j + 1) * m]
    }

    /// Drops the entries that reached `band` dominators, with their rows.
    fn evict(&mut self, band: u32, m: usize) {
        let mut kept = 0;
        for j in 0..self.entries.len() {
            if self.entries[j].dom < band {
                self.entries.swap(kept, j);
                self.rows.copy_within(j * m..(j + 1) * m, kept * m);
                kept += 1;
            }
        }
        self.entries.truncate(kept);
        self.rows.truncate(kept * m);
    }
}

/// `true` if `a` is at most `b` on every attribute. When `a`'s key is
/// strictly smaller than `b`'s this is exactly "`a` dominates `b`" (see the
/// module docs). Short-circuiting on purpose: most pairs fail on an early
/// attribute, and a branch-free fold made a replayed mq-diamonds ingest
/// ~1.4× slower.
#[inline]
fn le_all(a: &[Value], b: &[Value]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

/// Target block size of the two-level entry layout: blocks split at twice
/// this, so steady-state blocks hold between one and two targets' worth.
const BLOCK_TARGET: usize = 512;

/// An incrementally maintained skyline (or top-h sky band) over a growing
/// set of `Arc`-shared tuples.
///
/// Inserts are amortized cheap on realistic discovery streams: the binary
/// search costs O(log s), the nearest-first dominator scan stops at the
/// first `band` dominators (after a few visits, for the common
/// dominated-tuple case), and the eviction scan only touches the
/// strictly-worse suffix. Every scan compares flat rows of dominance
/// values, not the tuples themselves.
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
    blocks: Vec<Block>,
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
    /// Panics if `band == 0` or `band > u32::MAX`.
    pub fn with_band(attrs: Vec<AttrId>, band: usize) -> Self {
        assert!(band >= 1, "the sky band requires band >= 1");
        assert!(
            u32::try_from(band).is_ok(),
            "the sky band requires band <= u32::MAX"
        );
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

    /// `t`'s dominance values, in `attrs` order: its row.
    fn row_of<'a>(&'a self, t: &'a Tuple) -> impl Iterator<Item = Value> + 'a {
        self.attrs.iter().map(|&a| t.values[a])
    }

    /// The monotone sort key: dominance implies a strictly smaller key.
    fn key_of(&self, t: &Tuple) -> u64 {
        self.row_of(t).map(u64::from).sum()
    }

    /// Locates the insertion point of `(key, id)` as `(block, offset)`.
    /// With no blocks this returns `(0, 0)` — callers insert a block first.
    fn locate(&self, key: u64, id: u64) -> (usize, usize) {
        let probe = (key, id);
        let bi = self
            .blocks
            .partition_point(|b| {
                // Blocks are never empty; an empty one sorts first.
                b.entries
                    .last()
                    .is_some_and(|last| (last.key, last.tuple.id) < probe)
            })
            .min(self.blocks.len().saturating_sub(1));
        let pos = match self.blocks.get(bi) {
            Some(b) => b.entries.partition_point(|e| (e.key, e.tuple.id) < probe),
            None => 0,
        };
        (bi, pos)
    }

    /// Iterates all entries in global `(key, id)` order.
    fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.blocks.iter().flat_map(|b| &b.entries)
    }

    /// Inserts a tuple, updating band membership and dominator counts.
    /// Returns `true` if the tuple entered the band (i.e. it is dominated by
    /// fewer than `band` previously inserted band members).
    ///
    /// The caller is responsible for not inserting the same tuple id twice;
    /// duplicate *values* under distinct ids are fine (they do not dominate
    /// each other).
    pub fn insert(&mut self, tuple: Arc<Tuple>) -> bool {
        self.insert_batch([tuple]) == 1
    }

    /// [`IncrementalSkyline::insert`] with the row and its key precomputed
    /// and the handle made on acceptance only: `share` runs once the band
    /// takes tuple `id`, so a rejected tuple (the common case on dominated
    /// streams) pays no `Arc` traffic or tuple copy at all.
    ///
    /// `share` is a `dyn` callback so that this function stays non-generic
    /// and is compiled once, in this crate, where its helpers (`locate`,
    /// `Block::row`) can be inlined. A generic version is instantiated in
    /// each caller's crate instead; there `locate` stayed an out-of-line
    /// call, and mq-diamonds discovery ran ~4% slower.
    fn insert_row(
        &mut self,
        key: u64,
        row: &[Value],
        id: u64,
        share: &dyn Fn() -> Arc<Tuple>,
    ) -> bool {
        let m = self.attrs.len();
        let (bi, pos) = self.locate(key, id);

        // Dominators live strictly before the insertion point (strictly
        // smaller key). Walked nearest-first: dominators sit close to what
        // they dominate, and an accepted tuple scans the whole prefix in
        // either order, so the count is the same (see the module docs).
        let mut dom = 0u32;
        let upto = (bi + 1).min(self.blocks.len());
        for (i, b) in self.blocks[..upto].iter().enumerate().rev() {
            let end = if i == bi { pos } else { b.entries.len() };
            for (j, e) in b.entries[..end].iter().enumerate().rev() {
                if e.key < key && le_all(b.row(j, m), row) {
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
        for (i, b) in self.blocks.iter_mut().enumerate().skip(bi) {
            let start = if i == bi { pos } else { 0 };
            for j in start..b.entries.len() {
                if b.entries[j].key > key && le_all(row, b.row(j, m)) {
                    let e = &mut b.entries[j];
                    if e.dom == 0 {
                        sky_lost += 1;
                    }
                    e.dom += 1;
                    if e.dom >= self.band {
                        evicted += 1;
                    }
                }
            }
        }
        self.skyline_len -= sky_lost;
        let (mut bi, mut pos) = (bi, pos);
        if evicted > 0 {
            for b in &mut self.blocks {
                b.evict(self.band, m);
            }
            self.blocks.retain(|b| !b.entries.is_empty());
            self.len -= evicted;
            // Block boundaries moved; re-locate the insertion point.
            (bi, pos) = self.locate(key, id);
        }

        if dom == 0 {
            self.skyline_len += 1;
        }
        if self.blocks.is_empty() {
            self.blocks.push(Block {
                entries: Vec::with_capacity(BLOCK_TARGET),
                rows: Vec::with_capacity(BLOCK_TARGET * m),
            });
        }
        let b = &mut self.blocks[bi];
        b.entries.insert(
            pos,
            Entry {
                tuple: share(),
                key,
                dom,
            },
        );
        b.rows.splice(pos * m..pos * m, row.iter().copied());
        self.len += 1;
        if b.entries.len() >= 2 * BLOCK_TARGET {
            let tail = Block {
                entries: b.entries.split_off(BLOCK_TARGET),
                rows: b.rows.split_off(BLOCK_TARGET * m),
            };
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
        let mut row = Vec::with_capacity(self.attrs.len());
        batch
            .into_iter()
            .filter(|(key, t)| {
                row.clear();
                row.extend(self.row_of(t));
                self.insert_row(*key, &row, t.id, &|| Arc::clone(t))
            })
            .count()
    }

    /// Builds a structure over `tuples`, inserted one by one in slice order,
    /// that copies a tuple into a fresh `Arc` only when the band accepts it.
    fn of_borrowed<B: Borrow<Tuple>>(tuples: &[B], attrs: &[AttrId], band: usize) -> Self {
        let mut sky = IncrementalSkyline::with_band(attrs.to_vec(), band);
        let mut row = Vec::with_capacity(attrs.len());
        for t in tuples {
            let t = t.borrow();
            row.clear();
            row.extend(sky.row_of(t));
            sky.insert_row(sky.key_of(t), &row, t.id, &|| Arc::new(t.clone()));
        }
        sky
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
    /// order in which tuples were inserted. Unlike the insert's scan this
    /// one walks in ascending key order: the smallest-key dominator is its
    /// contract.
    pub fn first_skyline_dominator(&self, t: &Tuple) -> Option<&Arc<Tuple>> {
        let m = self.attrs.len();
        let row: Vec<Value> = self.row_of(t).collect();
        let key = self.key_of(t);
        for b in &self.blocks {
            for (j, e) in b.entries.iter().enumerate() {
                if e.key >= key {
                    return None;
                }
                if e.dom == 0 && le_all(b.row(j, m), &row) {
                    return Some(&e.tuple);
                }
            }
        }
        None
    }

    /// `true` if some skyline member lies within every `(attr, lo, hi)`
    /// bound — answered from the rows when every bound is on a dominance
    /// attribute, and from the tuples otherwise.
    pub fn any_skyline_within(&self, bounds: &[(AttrId, Value, Value)]) -> bool {
        let m = self.attrs.len();
        let cols: Option<Vec<(usize, Value, Value)>> = bounds
            .iter()
            .map(|&(attr, lo, hi)| Some((self.attrs.iter().position(|&a| a == attr)?, lo, hi)))
            .collect();
        let Some(cols) = cols else {
            return self.skyline().any(|t| t.within_bounds(bounds));
        };
        self.blocks.iter().any(|b| {
            b.entries.iter().enumerate().any(|(j, e)| {
                e.dom == 0
                    && cols
                        .iter()
                        .all(|&(c, lo, hi)| (lo..=hi).contains(&b.row(j, m)[c]))
            })
        })
    }
}

/// Computes the skyline of `tuples` on `attrs` by feeding them through an
/// [`IncrementalSkyline`] — a third batch strategy alongside BNL and SFS,
/// and the one the differential tests pin against both.
pub fn incremental_skyline_on<B: Borrow<Tuple>>(tuples: &[B], attrs: &[AttrId]) -> Vec<Tuple> {
    let sky = IncrementalSkyline::of_borrowed(tuples, attrs, 1);
    sky.skyline().map(|t| t.as_ref().clone()).collect()
}

/// Computes the top-`h` sky band of `tuples` on `attrs` incrementally —
/// the streaming counterpart of [`crate::skyband_on`].
pub fn incremental_skyband_on<B: Borrow<Tuple>>(
    tuples: &[B],
    attrs: &[AttrId],
    h: usize,
) -> Vec<Tuple> {
    let sky = IncrementalSkyline::of_borrowed(tuples, attrs, h);
    sky.iter().map(|t| t.as_ref().clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bnl_skyline_on, same_ids, skyband_on};
    use skyweb_hidden_db::dominates_on;

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
    fn zero_dominance_attributes_keep_every_tuple() {
        // Nothing dominates on zero attributes, so every tuple stays; every
        // row is empty.
        let tuples = pseudo_random(40, 3, 5);
        let mut sky = IncrementalSkyline::new(vec![]);
        for t in &tuples {
            assert!(sky.insert(Arc::new(t.clone())));
        }
        assert_eq!(sky.skyline_len(), tuples.len());
        assert!(sky.first_skyline_dominator(&tuples[0]).is_none());
        assert!(sky.any_skyline_within(&[]));
        assert!(!sky.any_skyline_within(&[(0, 9, 9)]));
        let inc = incremental_skyline_on(&tuples, &[]);
        let bnl = bnl_skyline_on(&tuples, &[]);
        assert_eq!(inc.len(), tuples.len());
        assert!(same_ids(&inc, &bnl));
    }

    #[test]
    #[should_panic(expected = "band >= 1")]
    fn zero_band_panics() {
        let _ = IncrementalSkyline::with_band(vec![0], 0);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "band <= u32::MAX")]
    fn band_past_u32_panics() {
        let _ = IncrementalSkyline::with_band(vec![0], u32::MAX as usize + 1);
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
