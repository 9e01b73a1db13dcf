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
//! * dominators of a new tuple can only sit before the first entry of its
//!   key (found by binary search), and the scan early-exits as soon as
//!   `band` dominators are seen;
//! * tuples a new entry evicts can only sit after the last entry of its key;
//! * the first skyline entry in key order that dominates a probe tuple is
//!   the *smallest-key* dominator — a deterministic answer independent of
//!   insertion order (the old BNL collector's answer depended on it).
//!
//! Each block stores, beside its entries, the `m` dominance values as `m`
//! **columns** (`cols[c][j]` belongs to `entries[j]`), so every scan reads
//! contiguous `u32`s instead of following `Entry → Arc<Tuple> → values`.
//! The key makes the column test cheap: within the strictly-smaller-key
//! prefix, "≤ the probe on every attribute" *is* dominance (the smaller sum
//! forces a strictly better value somewhere), and the mirror test holds in
//! the strictly-larger-key suffix. The key test itself stays out of the
//! loops: the binary search bounds each scan to its prefix or suffix.
//!
//! Every scan takes `LANES` = 8 entries per step: it compares one column
//! across the 8 entries with branch-free compares, ANDs the columns into an
//! 8-bit lane mask, and only then handles the hits, lane by lane. LLVM
//! vectorizes the compares on baseline x86-64 (SSE2). A block's last
//! entries, fewer than 8, take a scalar loop. (A branch-free fold of *one
//! entry's* `m` values, with no early exit, made a replayed mq-diamonds
//! ingest ~1.4× slower than the short-circuiting row test it replaced; the
//! kernel here instead compares one column across 8 entries, so the
//! compares vectorize and a step costs `m` vector compares, not `8·m`
//! branches.)
//!
//! The insert's dominator scan walks its prefix **nearest-first**, from the
//! insertion point toward the smallest key: a dominator's values sit close
//! to the tuple it dominates, so a rejected tuple meets its `band`
//! dominators after a few steps, and an accepted tuple scans the whole
//! prefix in either order. Band membership and every stored dominator
//! count are therefore unchanged. [`IncrementalSkyline::first_skyline_dominator`]
//! keeps the ascending order and takes the lowest hit lane first, because
//! its contract is the smallest-key dominator: RQ-DB-SKY's pivots, and so
//! its query costs, depend on it.
//!
//! Rejections, the common case on dominated streams, pay one binary search
//! and no structural work.
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

/// Entries compared per step of the columnar scans.
const LANES: usize = 8;

/// Bit `l` of the result is set when `test(col[j + l], bound)` holds for
/// every `(col, bound)` pair: one column across `LANES` entries per step,
/// with no branch until the caller reads the mask.
///
/// Each lane keeps an all-ones/all-zeros `u32` mask, the form in which
/// LLVM's SLP vectorizer turns a step into two 4-lane compares per column
/// on SSE2. With `[bool; LANES]` lanes it vectorized only part of the step.
#[inline]
fn lane_mask<'a, B: Copy>(
    j: usize,
    cols: impl Iterator<Item = (&'a [Value], B)>,
    test: impl Fn(Value, B) -> bool,
) -> u32 {
    let mut hit = [u32::MAX; LANES];
    for (col, bound) in cols {
        for (h, &x) in hit.iter_mut().zip(&col[j..j + LANES]) {
            *h &= 0u32.wrapping_sub(u32::from(test(x, bound)));
        }
    }
    hit.iter()
        .enumerate()
        .fold(0, |mask, (l, &h)| mask | ((h & 1) << l))
}

/// The scalar form of [`lane_mask`] for one entry, short-circuiting: the
/// tails shorter than `LANES` entries.
#[inline]
fn holds_at<'a, B: Copy>(
    j: usize,
    mut cols: impl Iterator<Item = (&'a [Value], B)>,
    test: impl Fn(Value, B) -> bool,
) -> bool {
    cols.all(|(col, bound)| test(col[j], bound))
}

/// One sorted block: its entries, and beside them the `m` dominance values
/// as columns — `cols[c][j]` belongs to `entries[j]`. Every structural
/// change moves both in step.
#[derive(Debug, Clone)]
struct Block {
    entries: Vec<Entry>,
    cols: Vec<Vec<Value>>,
}

impl Block {
    fn new(m: usize) -> Self {
        Block {
            entries: Vec::with_capacity(BLOCK_TARGET),
            cols: (0..m).map(|_| Vec::with_capacity(BLOCK_TARGET)).collect(),
        }
    }

    /// The columns paired with one bound each, for the lane kernels.
    fn paired<'a>(&'a self, row: &'a [Value]) -> impl Iterator<Item = (&'a [Value], Value)> + 'a {
        self.cols.iter().map(Vec::as_slice).zip(row.iter().copied())
    }

    fn insert(&mut self, pos: usize, entry: Entry, row: &[Value]) {
        self.entries.insert(pos, entry);
        for (col, &v) in self.cols.iter_mut().zip(row) {
            col.insert(pos, v);
        }
    }

    /// Moves the entries from `at` on into a new block.
    fn split_off(&mut self, at: usize) -> Block {
        Block {
            entries: self.entries.split_off(at),
            cols: self.cols.iter_mut().map(|col| col.split_off(at)).collect(),
        }
    }

    /// Drops the entries that reached `band` dominators, with their values.
    fn evict(&mut self, band: u32) {
        let mut kept = 0;
        for j in 0..self.entries.len() {
            if self.entries[j].dom < band {
                self.entries.swap(kept, j);
                for col in &mut self.cols {
                    col[kept] = col[j];
                }
                kept += 1;
            }
        }
        self.entries.truncate(kept);
        for col in &mut self.cols {
            col.truncate(kept);
        }
    }
}

/// The blocks holding the entries before `(bi, pos)`, as `locate` returns
/// it, each with the number of its entries that lie before it.
fn prefix(
    blocks: &[Block],
    (bi, pos): (usize, usize),
) -> impl DoubleEndedIterator<Item = (&Block, usize)> {
    blocks[..(bi + 1).min(blocks.len())]
        .iter()
        .enumerate()
        .map(move |(i, b)| (b, if i == bi { pos } else { b.entries.len() }))
}

/// The first skyline entry (dominator count 0) in ascending `(key, id)`
/// order, over the first `end` entries of each block, whose `cols` pass
/// `test`: each step's hits are read lowest lane first, so the answer is
/// the smallest-key one.
fn first_skyline_where<'a, 'c, B: Copy, I: Iterator<Item = (&'c [Value], B)>>(
    ranges: impl Iterator<Item = (&'a Block, usize)>,
    cols: impl Fn(&'a Block) -> I,
    test: impl Fn(Value, B) -> bool + Copy,
) -> Option<&'a Entry> {
    for (b, end) in ranges {
        let mut j = 0;
        while j + LANES <= end {
            let mut mask = lane_mask(j, cols(b), test);
            while mask != 0 {
                let e = &b.entries[j + mask.trailing_zeros() as usize];
                if e.dom == 0 {
                    return Some(e);
                }
                mask &= mask - 1;
            }
            j += LANES;
        }
        if let Some(j) = (j..end).find(|&j| b.entries[j].dom == 0 && holds_at(j, cols(b), test)) {
            return Some(&b.entries[j]);
        }
    }
    None
}

/// Target block size of the two-level entry layout: blocks split at twice
/// this, so steady-state blocks hold between one and two targets' worth.
const BLOCK_TARGET: usize = 512;

/// An incrementally maintained skyline (or top-h sky band) over a growing
/// set of `Arc`-shared tuples.
///
/// Inserts are amortized cheap on realistic discovery streams: a rejected
/// tuple pays one binary search and a nearest-first dominator scan that
/// stops at the first `band` dominators, and an accepted tuple's eviction
/// scan only touches the strictly-worse suffix. Every scan compares
/// columns of dominance values, eight entries per step, not the tuples
/// themselves.
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

    /// Locates the position of `(key, id)` as `(block, offset)`: every entry
    /// before it sorts strictly below. `locate(key, 0)` is therefore the
    /// first entry whose key is at least `key`. With no blocks this returns
    /// `(0, 0)` — callers insert a block first.
    fn locate(&self, key: u64, id: u64) -> (usize, usize) {
        let before = |e: &Entry| e.key < key || (e.key == key && e.tuple.id < id);
        let bi = self
            .blocks
            .partition_point(|b| {
                // Blocks are never empty; an empty one sorts first.
                b.entries.last().is_some_and(before)
            })
            .min(self.blocks.len().saturating_sub(1));
        let pos = match self.blocks.get(bi) {
            Some(b) => b.entries.partition_point(before),
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

    /// Counts `row`'s dominators nearest-first, stopping at `band`: `None`
    /// when the band rejects the row, its exact dominator count otherwise.
    fn count_dominators(&self, key: u64, row: &[Value]) -> Option<u32> {
        let mut dom = 0u32;
        for (b, end) in prefix(&self.blocks, self.locate(key, 0)).rev() {
            let mut hi = end;
            while hi >= LANES {
                hi -= LANES;
                dom += lane_mask(hi, b.paired(row), |x, v| x <= v).count_ones();
                if dom >= self.band {
                    return None;
                }
            }
            for j in (0..hi).rev() {
                if holds_at(j, b.paired(row), |x, v| x <= v) {
                    dom += 1;
                    if dom >= self.band {
                        return None;
                    }
                }
            }
        }
        Some(dom)
    }

    /// [`IncrementalSkyline::insert`] with the row and its key precomputed
    /// and the handle made on acceptance only: `share` runs once the band
    /// takes tuple `id`, so a rejected tuple (the common case on dominated
    /// streams) pays no `Arc` traffic or tuple copy at all.
    ///
    /// `share` is a `dyn` callback so that this function stays non-generic
    /// and is compiled once, in this crate, where its helpers (`locate`,
    /// the lane kernels) can be inlined. A generic version is instantiated
    /// in each caller's crate instead; there `locate` stayed an out-of-line
    /// call, and mq-diamonds discovery ran ~4% slower.
    fn insert_row(
        &mut self,
        key: u64,
        row: &[Value],
        id: u64,
        share: &dyn Fn() -> Arc<Tuple>,
    ) -> bool {
        let Some(dom) = self.count_dominators(key, row) else {
            return false;
        };

        // Eviction candidates live from the first entry of a strictly
        // larger key on. Entries hold dom < band before the pass and gain
        // at most one dominator, so exactly the entries reaching `band`
        // leave.
        let (ebi, epos) = self.locate(key.saturating_add(1), 0);
        let band = self.band;
        let mut evicted = 0usize;
        let mut sky_lost = 0usize;
        for (i, b) in self.blocks.iter_mut().enumerate().skip(ebi) {
            let mut j = if i == ebi { epos } else { 0 };
            let len = b.entries.len();
            let mut hits = |b: &mut Block, j: usize| {
                let e = &mut b.entries[j];
                if e.dom == 0 {
                    sky_lost += 1;
                }
                e.dom += 1;
                if e.dom >= band {
                    evicted += 1;
                }
            };
            while j + LANES <= len {
                let mut mask = lane_mask(j, b.paired(row), |x, v| x >= v);
                while mask != 0 {
                    hits(b, j + mask.trailing_zeros() as usize);
                    mask &= mask - 1;
                }
                j += LANES;
            }
            for j in j..len {
                if holds_at(j, b.paired(row), |x, v| x >= v) {
                    hits(b, j);
                }
            }
        }
        self.skyline_len -= sky_lost;
        if evicted > 0 {
            for b in &mut self.blocks[ebi..] {
                b.evict(band);
            }
            self.blocks.retain(|b| !b.entries.is_empty());
            self.len -= evicted;
        }

        if dom == 0 {
            self.skyline_len += 1;
        }
        if self.blocks.is_empty() {
            self.blocks.push(Block::new(self.attrs.len()));
        }
        let (bi, pos) = self.locate(key, id);
        let b = &mut self.blocks[bi];
        let entry = Entry {
            tuple: share(),
            key,
            dom,
        };
        b.insert(pos, entry, row);
        self.len += 1;
        if b.entries.len() >= 2 * BLOCK_TARGET {
            let tail = b.split_off(BLOCK_TARGET);
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
    /// one walks in ascending key order and reads each step's hits lowest
    /// lane first: the smallest-key dominator is its contract.
    pub fn first_skyline_dominator(&self, t: &Tuple) -> Option<&Arc<Tuple>> {
        let row: Vec<Value> = self.row_of(t).collect();
        let ranges = prefix(&self.blocks, self.locate(self.key_of(t), 0));
        first_skyline_where(ranges, |b| b.paired(&row), |x, v| x <= v).map(|e| &e.tuple)
    }

    /// `true` if some skyline member lies within every `(attr, lo, hi)`
    /// bound — answered from the columns when every bound is on a dominance
    /// attribute, and from the tuples otherwise.
    pub fn any_skyline_within(&self, bounds: &[(AttrId, Value, Value)]) -> bool {
        let cols: Option<Vec<(usize, (Value, Value))>> = bounds
            .iter()
            .map(|&(attr, lo, hi)| Some((self.attrs.iter().position(|&a| a == attr)?, (lo, hi))))
            .collect();
        let Some(cols) = cols else {
            return self.skyline().any(|t| t.within_bounds(bounds));
        };
        first_skyline_where(
            self.blocks.iter().map(|b| (b, b.entries.len())),
            |b| cols.iter().map(move |&(c, lh)| (b.cols[c].as_slice(), lh)),
            |x, (lo, hi)| lo <= x && x <= hi,
        )
        .is_some()
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

    /// The monotone key of `t` on `attrs`.
    fn key_on(t: &Tuple, attrs: &[AttrId]) -> u64 {
        attrs.iter().map(|&a| u64::from(t.values[a])).sum()
    }

    /// Checks one structure against the naive reference over everything
    /// inserted so far: band membership and order, the skyline count,
    /// `first_skyline_dominator` on `probes` and `any_skyline_within` on a
    /// grid of boxes.
    fn assert_matches_naive(
        sky: &IncrementalSkyline,
        inserted: &[Arc<Tuple>],
        counts: &[usize],
        probes: &[Tuple],
        what: &str,
    ) {
        let attrs = sky.attrs().to_vec();
        let band = sky.band();
        let expected: Vec<u64> = {
            let mut v: Vec<u64> = inserted
                .iter()
                .zip(counts)
                .filter(|(_, &c)| c < band)
                .map(|(t, _)| t.id)
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(ids(sky.iter()), expected, "{what}: band members");
        let skyline: Vec<&Arc<Tuple>> = inserted
            .iter()
            .zip(counts)
            .filter(|(_, &c)| c == 0)
            .map(|(t, _)| t)
            .collect();
        assert_eq!(sky.skyline_len(), skyline.len(), "{what}: skyline count");
        // Iteration is globally sorted by the monotone key across block
        // boundaries.
        let keys: Vec<(u64, u64)> = sky.iter().map(|t| (key_on(t, &attrs), t.id)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{what}: key order");

        for p in probes {
            let naive = skyline
                .iter()
                .filter(|u| dominates_on(u, p, &attrs))
                .min_by_key(|u| (key_on(u, &attrs), u.id))
                .map(|u| u.id);
            assert_eq!(
                sky.first_skyline_dominator(p).map(|t| t.id),
                naive,
                "{what}: first dominator of {:?}",
                p.values
            );
        }

        // Point boxes on the entries the scans' scalar tails cover: the last
        // `len % LANES` entries of every block.
        for b in &sky.blocks {
            let len = b.entries.len();
            for e in &b.entries[len - len % LANES..] {
                let bounds: Vec<(AttrId, Value, Value)> = attrs
                    .iter()
                    .map(|&a| (a, e.tuple.values[a], e.tuple.values[a]))
                    .collect();
                assert_eq!(
                    sky.any_skyline_within(&bounds),
                    skyline.iter().any(|t| t.within_bounds(&bounds)),
                    "{what}: point box {bounds:?}"
                );
            }
        }

        let m = attrs.len();
        for &x in &[0u32, 1500, 3000, 4100, 8000, u32::MAX] {
            for &y in &[0u32, 4200, 6000, 8100, 9000, u32::MAX] {
                for lo in [0u32, 1000] {
                    // Downward closed on every attribute, a two-ended box
                    // on the first two, and one bound on a single column.
                    let mut boxes = vec![
                        (0..m)
                            .map(|c| (attrs[c], 0, if c % 2 == 0 { x } else { y }))
                            .collect::<Vec<_>>(),
                        vec![(attrs[0], lo, x), (attrs[1], lo, y)],
                        vec![(attrs[m - 1], lo, x.min(y))],
                    ];
                    boxes.retain(|b| b.iter().all(|&(_, lo, hi)| lo <= hi));
                    for bounds in boxes {
                        assert_eq!(
                            sky.any_skyline_within(&bounds),
                            skyline.iter().any(|t| t.within_bounds(&bounds)),
                            "{what}: box {bounds:?}"
                        );
                    }
                }
            }
        }
    }

    /// The columnar scans against the naive pairwise reference, at m = 2,
    /// 5 and 9 and bands 1 and 3, after each of three phases:
    ///
    /// 1. anti-correlated values with jitter: well over a thousand band
    ///    members, so the two-level layout splits blocks, eviction crosses
    ///    block boundaries, and prefix and suffix scans end on tails of
    ///    every length 0–7. At m = 2 the stream has 6,000 rows with jitter
    ///    0–15, so rows `i` and `i + 4096` share their first value and
    ///    some share both; at m = 5 and 9 it has 2,000 rows with jitter
    ///    0–7, which keeps the naive reference cheap;
    /// 2. a run of 1,100 rows of one key, which no earlier row dominates:
    ///    longer than a block, so the run straddles a split;
    /// 3. probes of that key, half of them copies of run rows under larger
    ///    ids. Equal keys never dominate, so a scan that reached past the
    ///    first entry of its own key would count the copies' twins.
    ///
    /// One-at-a-time ingest, 50-tuple batches and one batch per phase must
    /// also build the same structure. A whole-phase batch is presorted by
    /// key, so it meets every dominator before the rows it dominates and
    /// never evicts a row of its own phase.
    #[test]
    fn blocked_layout_splits_evicts_and_matches_the_naive_reference() {
        for m in [2usize, 5, 9] {
            let attrs: Vec<AttrId> = (0..m).collect();
            let extra = |i: u64, c: usize| ((i * 97 + c as u64 * 40503 + 5) % 4096) as u32;
            let (rows, spread) = if m == 2 { (6000u64, 16) } else { (2000, 8) };
            let stream: Vec<Arc<Tuple>> = (0..rows)
                .map(|i| {
                    let a = ((i * 2654435761) % 4096) as u32;
                    let jitter = ((i * 40503 + 7) % spread) as u32;
                    let mut values = vec![a, 8192 - a + jitter];
                    values.extend((2..m).map(|c| extra(i, c)));
                    arc(i, values)
                })
                .collect();
            // Every run row sums to 8000 on the first two columns, below
            // any stream row's 8192, so no stream row dominates it.
            let run: Vec<Arc<Tuple>> = (0..1100u64)
                .map(|i| {
                    let mut values = vec![i as u32 * 3, 8000 - i as u32 * 3];
                    values.extend((2..m).map(|_| 2000));
                    arc(10_000 + i, values)
                })
                .collect();
            let same_key: Vec<Arc<Tuple>> = (0..120u64)
                .map(|i| {
                    let values = if i % 2 == 0 {
                        run[(i * 9 % 1100) as usize].values.clone()
                    } else {
                        let mut v = vec![i as u32 * 3 + 1, 8000 - i as u32 * 3 - 1];
                        v.extend((2..m).map(|_| 2000));
                        v
                    };
                    arc(20_000 + i, values)
                })
                .collect();

            let mut probes: Vec<Tuple> = stream
                .iter()
                .chain(&run)
                .step_by(37)
                .map(|t| Tuple::new(99_999, t.values.iter().map(|v| v + 1).collect()))
                .collect();
            probes.extend(same_key.iter().map(|t| t.as_ref().clone()));

            let mut inserted: Vec<Arc<Tuple>> = Vec::new();
            let mut counts: Vec<usize> = Vec::new();
            let mut one: Vec<IncrementalSkyline> = [1usize, 3]
                .iter()
                .map(|&band| IncrementalSkyline::with_band(attrs.clone(), band))
                .collect();
            let mut chunked = one.clone();
            let mut whole = one.clone();
            for (phase, batch) in [("stream", &stream), ("run", &run), ("same key", &same_key)] {
                for sky in &mut one {
                    for t in batch.iter() {
                        sky.insert(Arc::clone(t));
                    }
                }
                for sky in &mut chunked {
                    for chunk in batch.chunks(50) {
                        sky.insert_batch(chunk.iter().cloned());
                    }
                }
                for sky in &mut whole {
                    sky.insert_batch(batch.iter().cloned());
                }
                // The naive counts, extended pairwise: each old tuple gains
                // the new tuples that dominate it, each new one counts all.
                let old = inserted.len();
                inserted.extend(batch.iter().cloned());
                let keys: Vec<u64> = inserted.iter().map(|t| key_on(t, &attrs)).collect();
                let dominators = |i: usize, among: std::ops::Range<usize>| {
                    among
                        .filter(|&u| {
                            keys[u] < keys[i] && dominates_on(&inserted[u], &inserted[i], &attrs)
                        })
                        .count()
                };
                for i in 0..inserted.len() {
                    if i < old {
                        counts[i] += dominators(i, old..inserted.len());
                    } else {
                        counts.push(dominators(i, 0..inserted.len()));
                    }
                }
                for ((sky, chunked), whole) in one.iter().zip(&chunked).zip(&whole) {
                    let what = format!("m={m}, band={}, after the {phase}", sky.band());
                    assert_matches_naive(sky, &inserted, &counts, &probes, &what);
                    for (how, batched) in [("50-tuple batches", chunked), ("one batch", whole)] {
                        for level in 1..=sky.band() {
                            let seq: Vec<u64> = sky.band_members(level).map(|t| t.id).collect();
                            let batched_seq: Vec<u64> =
                                batched.band_members(level).map(|t| t.id).collect();
                            assert_eq!(seq, batched_seq, "{what}: {how}, level {level}");
                        }
                        assert_eq!(sky.skyline_len(), batched.skyline_len(), "{what}: {how}");
                    }
                    assert!(
                        sky.len() > 2 * BLOCK_TARGET,
                        "{what}: the test must span several blocks (len {})",
                        sky.len()
                    );
                }
            }
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
