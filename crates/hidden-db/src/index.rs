//! The indexed query-execution engine behind [`crate::HiddenDb`].
//!
//! The experiment harness issues tens of thousands of simulated top-k
//! queries per discovery run, so the per-query cost of the simulator bounds
//! how fast whole experiments can go. A naive interface would answer each
//! query with a full O(n) predicate scan, a heap-allocated match vector, a
//! full sort by score and deep tuple clones. This module precomputes, once
//! at construction:
//!
//! * a **rank-order permutation** — the ranker's global preference order
//!   over the store (via [`crate::Ranker::precompute`]), so top-k selection
//!   becomes "walk the store in rank order, stop after `k` matches plus one
//!   overflow probe" with no sorting at query time;
//! * **per-rank-block zone maps** — for every 64 consecutive ranks and every
//!   attribute, the min/max attribute value inside the block. Broad-range
//!   rank scans skip whole blocks whose value range cannot intersect the
//!   query box and evaluate surviving blocks with a branch-free 64-bit
//!   match bitset instead of a tuple-by-tuple candidate walk;
//! * **per-attribute posting lists with prefix counts** — tuple indices
//!   bucketed by attribute value (a counting sort per attribute), so the
//!   engine knows the exact selectivity of any single-attribute range in
//!   O(1) and can iterate only the candidates of the most selective
//!   predicate of a conjunction;
//! * a **shared response path** — answers are built by bumping reference
//!   counts out of the unified [`TupleStore`] instead of deep-copying
//!   tuples, and all per-query working memory lives in a reusable
//!   [`Scratch`] buffer owned by the calling session.
//!
//! The same structures also exist in persisted form: a
//! [`crate::SegmentReader`] serves the permutation, columns, zone maps and
//! posting lists straight from an on-disk columnar segment, hydrating
//! lazily per chunk. Both backings implement [`IndexStorage`], and the
//! engine is written once, generic over it: [`QueryIndex`] picks the backing
//! once per entry call, so every plan below runs unchanged — and produces
//! byte-identical answers — against either (pinned by the differential
//! suites in `tests/proptest_segment.rs` and `tests/golden_traces.rs`).
//! Storage faults surface as typed [`SegmentError`]s threaded through every
//! execution path; the RAM backing never produces one.
//!
//! Every read loop of the engine reads the lazy columns one chunk at a
//! time, through the [`ColumnCursors`] its entry call opens: a read inside
//! the chunk a cursor holds costs a compare and an in-place extraction, and
//! only a read that leaves it goes back to the chunk cache, so a budgeted
//! segment pays one cache lookup per chunk entered, not one per value. The
//! RAM index is the one-chunk case.
//!
//! Every conjunctive predicate the interface supports (`<`, `<=`, `=`,
//! `>=`, `>`) is a one-attribute range constraint, so a whole query reduces
//! to a per-attribute box `[lo, hi]^m` — membership is a handful of integer
//! compares and never needs the original `Query` again.
//!
//! The engine is the database's one execution path, and it is behaviorally
//! identical to the naive filter-then-rank definition: same tuples, same
//! order, same overflow flag, same statistics. That definition exists only
//! as the test suites' reference (`crates/hidden-db/tests/support/`).

use std::sync::Arc;

use crate::predicate::{fold_bounds, schema_maxima, PrefixGroup};
use crate::ranking::select_shared;
use crate::segment::{SegmentError, SegmentReader};
use crate::store::TupleStore;
use crate::{
    AttrId, HiddenDb, Predicate, Query, QueryError, QueryResponse, Ranker, Schema, Tuple, Value,
};

/// Ranks per zone-map block: the rank permutation is cut into chunks of 64
/// so one `u64` bitset covers a block and the per-block min/max tables stay
/// small (`2·m·n/64` values). Segment chunk sizes are multiples of this, so
/// a block never spans two persisted chunks.
pub(crate) const BLOCK: usize = 64;

/// Denominator of the planner's selectivity crossover: a conjunction whose
/// most selective predicate matches `count` tuples takes the early-
/// terminating block rank scan when `count * BLOCK_SCAN_CROSSOVER_DEN >= n`
/// (i.e. selectivity ≥ n / 32 — a *broad* query), and the posting-list plan
/// otherwise.
///
/// Rationale: the block engine costs ~1 sequential u32 read per visited
/// rank versus a pointer-chasing push per posting candidate (~20-30x more),
/// so it wins well below 50% selectivity; n/32 is the empirical crossover
/// on the discovery workloads (MQ/BASELINE region queries of the paper's
/// figure suite). The same constant gates the shared-prefix materializer
/// (both the posting cut and the joint-selectivity estimate), so the
/// estimated-vs-actual counts of ROADMAP direction 3(c), which are to
/// confirm or replace it, have exactly one seam to replace. Referenced from
/// the planner unit tests
/// (`crossover_constant_separates_scan_and_posting_plans`).
pub(crate) const BLOCK_SCAN_CROSSOVER_DEN: usize = 32;

/// Where the engine reads its precomputed structures from: the in-RAM build
/// ([`RamIndex`]) or a persisted segment ([`SegmentReader`]). Both answer
/// identically, and only a segment can fail (I/O error or corrupted
/// chunk). The zone accessor and the rank-ordered columns require a rank
/// order ([`IndexStorage::has_perm`]).
///
/// The eager structures (prefix counts, zone maps) are read directly; the
/// lazy columns only through [`IndexStorage::cursors`], which an engine
/// entry call opens once and reads every column through.
pub(crate) trait IndexStorage {
    /// The column cursors of one engine entry call.
    type Cursors<'a>: ColumnCursors
    where
        Self: 'a;

    /// Whether a rank permutation exists (the ranker exposed a total order).
    fn has_perm(&self) -> bool;

    /// Number of tuples whose value on `attr` lies in `[lo, hi]` — O(1)
    /// from the prefix counts, so planning never touches lazy chunks.
    fn range_count(&self, attr: AttrId, lo: Value, hi: Value) -> usize;

    /// Zone-map `(min, max)` of rank block `b` on `attr`.
    fn zone(&self, attr: AttrId, b: usize) -> (Value, Value);

    /// Walks `attr`'s posting order over `[lo, hi]`: store indices,
    /// ascending within each value bucket.
    fn for_posting(
        &self,
        attr: AttrId,
        lo: Value,
        hi: Value,
        f: impl FnMut(u32) -> Result<(), SegmentError>,
    ) -> Result<(), SegmentError>;

    /// Fresh cursors over the lazy columns, holding no chunk yet.
    fn cursors(&self) -> Self::Cursors<'_>;
}

/// One cursor per lazy column — `perm`, `rank-of`, and `rank-col(a)` and
/// `store-col(a)` for every attribute — opened for one engine entry call.
///
/// Each cursor holds the validated block of the chunk it last read, so a
/// read inside that chunk is a bounds compare and an in-place extraction,
/// and only a read that leaves the chunk asks the chunk cache again. On a
/// segment that is an uncounted borrow of a resident sticky block, or one
/// counted lookup in the bounded cache, whose block the cursor then keeps
/// alive until the call ends even if the cache evicts it. The RAM index is
/// the one-chunk case: its cursors are the slices and the tuple store.
pub(crate) trait ColumnCursors {
    /// Store index of the tuple at rank `rank` (`perm`).
    fn perm(&mut self, rank: usize) -> Result<u32, SegmentError>;

    /// Rank position of the tuple at store index `idx` (`rank-of`).
    fn rank_of(&mut self, idx: usize) -> Result<u32, SegmentError>;

    /// Value of the rank-`rank` tuple on `attr` (`rank-col(attr)`).
    fn rank_col(&mut self, attr: AttrId, rank: usize) -> Result<Value, SegmentError>;

    /// The lane bitset of rank block `b` on `attr`: bit `i` is set iff the
    /// block's `i`-th rank (of its `len`) has a value in `[lo, hi]`. A zone
    /// block never spans two chunks.
    fn rank_lanes(
        &mut self,
        attr: AttrId,
        b: usize,
        len: usize,
        lo: Value,
        hi: Value,
    ) -> Result<u64, SegmentError>;

    /// Value of the tuple at store index `idx` on `attr` (`store-col(attr)`)
    /// — never builds a tuple on a segment.
    fn store_col(&mut self, attr: AttrId, idx: usize) -> Result<Value, SegmentError>;

    /// Shares the tuple at store index `idx` for an answer. Under a cache
    /// budget a segment builds it from the `store-col` cursors.
    fn share(&mut self, idx: usize) -> Result<Arc<Tuple>, SegmentError>;
}

/// Whether the tuple at store index `idx` satisfies every bound of `cons`
/// but the one at position `skip`, which a posting walk already guarantees.
#[inline]
fn within_rest(
    cur: &mut impl ColumnCursors,
    idx: usize,
    cons: &[(AttrId, Value, Value)],
    skip: usize,
) -> Result<bool, SegmentError> {
    for (i, &(attr, lo, hi)) in cons.iter().enumerate() {
        if i == skip {
            continue;
        }
        let v = cur.store_col(attr, idx)?;
        if v < lo || v > hi {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The lane bitset of one zone block's rank-ordered values, built
/// branch-free: bit `i` is set iff `col[i]` lies in `[lo, hi]`.
#[inline]
pub(crate) fn lanes_within(col: &[Value], lo: Value, hi: Value) -> u64 {
    let mut mask = 0u64;
    for (lane, &v) in col.iter().enumerate() {
        mask |= u64::from(v >= lo && v <= hi) << lane;
    }
    mask
}

/// Per-attribute posting list: tuple indices grouped by attribute value.
///
/// `order[starts[v] .. starts[v + 1]]` are the indices (ascending, thanks to
/// the stable counting sort) of the tuples whose value on this attribute is
/// exactly `v`; `starts` doubles as a prefix-count table, so the number of
/// tuples with value in `[lo, hi]` is `starts[hi + 1] - starts[lo]`.
struct Posting {
    starts: Vec<u32>,
    order: Vec<u32>,
}

/// Rank-ordered columnar values with per-block min/max zone maps, one table
/// per attribute. Built only when a rank permutation exists, since only the
/// rank scan consults them.
///
/// `cols[attr][rank]` is the value of the rank-`rank` tuple on `attr` —
/// the same data as the tuple store, laid out so a block's bound check is a
/// sequential pass over 64 contiguous `u32`s instead of 64 pointer chases
/// through `Arc<Tuple>` handles. `mins[attr][block]` / `maxs[attr][block]`
/// summarize each 64-rank block so provably empty (or provably full) blocks
/// skip the pass entirely.
struct RankColumns {
    cols: Vec<Vec<Value>>,
    mins: Vec<Vec<Value>>,
    maxs: Vec<Vec<Value>>,
}

/// The fully-materialized in-RAM index — what [`QueryIndex::build`]
/// produces and what [`crate::SegmentWriter`] persists.
pub(crate) struct RamIndex {
    /// The indexed store: store-ordered values are read off its tuples.
    store: TupleStore,
    /// `perm[r]` = store index of the tuple at rank `r` (best first), when
    /// the ranker exposes a deterministic total order.
    perm: Option<Vec<u32>>,
    /// Inverse of `perm`: store index → rank position. Empty when `perm` is
    /// `None`.
    rank_of: Vec<u32>,
    /// Columnar values + per-block min/max over the rank order. `None` iff
    /// `perm` is.
    zones: Option<RankColumns>,
    postings: Vec<Posting>,
}

impl RamIndex {
    /// Builds the index for a tuple store. O(m·n) plus one O(n log n) sort
    /// per deterministic ranker.
    fn build(store: &TupleStore, schema: &Schema, ranker: &dyn Ranker) -> Self {
        let n = store.len();
        let perm = ranker.precompute(store, schema);
        if let Some(p) = &perm {
            assert_eq!(p.len(), n, "precomputed rank order must cover the store");
        }
        let rank_of = match &perm {
            Some(p) => {
                let mut inv = vec![0u32; n];
                for (rank, &idx) in p.iter().enumerate() {
                    inv[idx as usize] = rank as u32;
                }
                inv
            }
            None => Vec::new(),
        };
        let zones = perm.as_ref().map(|p| {
            let blocks = p.len().div_ceil(BLOCK);
            let mut cols = vec![vec![0 as Value; p.len()]; schema.len()];
            let mut mins = vec![vec![Value::MAX; blocks]; schema.len()];
            let mut maxs = vec![vec![Value::MIN; blocks]; schema.len()];
            for (rank, &idx) in p.iter().enumerate() {
                let b = rank / BLOCK;
                for (attr, &v) in store[idx as usize].values.iter().enumerate() {
                    cols[attr][rank] = v;
                    let (lo, hi) = (&mut mins[attr][b], &mut maxs[attr][b]);
                    *lo = (*lo).min(v);
                    *hi = (*hi).max(v);
                }
            }
            RankColumns { cols, mins, maxs }
        });
        let postings = (0..schema.len())
            .map(|attr| {
                let d = schema.attr(attr).domain_size as usize;
                let mut starts = vec![0u32; d + 1];
                for t in store.iter() {
                    starts[t.values[attr] as usize + 1] += 1;
                }
                for v in 0..d {
                    starts[v + 1] += starts[v];
                }
                let mut cursor = starts.clone();
                let mut order = vec![0u32; n];
                for (i, t) in store.iter().enumerate() {
                    let slot = &mut cursor[t.values[attr] as usize];
                    order[*slot as usize] = i as u32;
                    *slot += 1;
                }
                Posting { starts, order }
            })
            .collect();
        RamIndex {
            store: store.clone(),
            perm,
            rank_of,
            zones,
            postings,
        }
    }

    /// The rank permutation, if the ranker exposes a total order.
    pub(crate) fn perm(&self) -> Option<&[u32]> {
        self.perm.as_deref()
    }

    /// The inverse permutation (empty when [`RamIndex::perm`] is `None`).
    pub(crate) fn rank_of(&self) -> &[u32] {
        &self.rank_of
    }

    /// Rank-ordered columns and zone maps. Requires a rank order.
    #[expect(
        clippy::expect_used,
        reason = "backend invariant: these accessors are only reachable when the index was built with a rank order (zones/perm populated)"
    )]
    fn zones(&self) -> &RankColumns {
        self.zones
            .as_ref()
            .expect("rank columns and zone maps require a rank order")
    }

    /// The rank-ordered column of `attr`. Requires a rank order.
    pub(crate) fn rank_col(&self, attr: AttrId) -> &[Value] {
        &self.zones().cols[attr]
    }

    /// Per-block zone-map minima of `attr`. Requires a rank order.
    pub(crate) fn zone_mins(&self, attr: AttrId) -> &[Value] {
        &self.zones().mins[attr]
    }

    /// Per-block zone-map maxima of `attr`. Requires a rank order.
    pub(crate) fn zone_maxs(&self, attr: AttrId) -> &[Value] {
        &self.zones().maxs[attr]
    }

    /// Prefix-count table of `attr`'s posting list (`domain_size + 1`
    /// entries).
    pub(crate) fn posting_starts(&self, attr: AttrId) -> &[u32] {
        &self.postings[attr].starts
    }

    /// Value-bucketed store indices of `attr`'s posting list.
    pub(crate) fn posting_order(&self, attr: AttrId) -> &[u32] {
        &self.postings[attr].order
    }
}

impl IndexStorage for RamIndex {
    type Cursors<'a> = RamCursors<'a>;

    fn has_perm(&self) -> bool {
        self.perm.is_some()
    }

    #[inline]
    fn range_count(&self, attr: AttrId, lo: Value, hi: Value) -> usize {
        if lo > hi {
            return 0;
        }
        let s = &self.postings[attr].starts;
        (s[hi as usize + 1] - s[lo as usize]) as usize
    }

    #[inline]
    fn zone(&self, attr: AttrId, b: usize) -> (Value, Value) {
        let z = self.zones();
        (z.mins[attr][b], z.maxs[attr][b])
    }

    #[inline]
    fn cursors(&self) -> RamCursors<'_> {
        RamCursors {
            perm: self.perm.as_deref().unwrap_or_default(),
            rank_of: &self.rank_of,
            rank_cols: self.zones.as_ref().map_or(&[], |z| &z.cols[..]),
            rows: self.store.as_slice(),
        }
    }

    fn for_posting(
        &self,
        attr: AttrId,
        lo: Value,
        hi: Value,
        mut f: impl FnMut(u32) -> Result<(), SegmentError>,
    ) -> Result<(), SegmentError> {
        if lo > hi {
            return Ok(());
        }
        let p = &self.postings[attr];
        let range = p.starts[lo as usize] as usize..p.starts[hi as usize + 1] as usize;
        for &idx in &p.order[range] {
            f(idx)?;
        }
        Ok(())
    }
}

/// The RAM index's cursors: every column is one chunk, so each cursor is
/// the whole slice (`perm`, `rank-of`, the rank-ordered columns) or the
/// tuple store (the store-ordered values and shared answers). Without a
/// rank order the rank-side slices are empty.
pub(crate) struct RamCursors<'a> {
    perm: &'a [u32],
    rank_of: &'a [u32],
    rank_cols: &'a [Vec<Value>],
    rows: &'a [Arc<Tuple>],
}

impl ColumnCursors for RamCursors<'_> {
    #[inline]
    fn perm(&mut self, rank: usize) -> Result<u32, SegmentError> {
        Ok(self.perm[rank])
    }

    #[inline]
    fn rank_of(&mut self, idx: usize) -> Result<u32, SegmentError> {
        Ok(self.rank_of[idx])
    }

    #[inline]
    fn rank_col(&mut self, attr: AttrId, rank: usize) -> Result<Value, SegmentError> {
        Ok(self.rank_cols[attr][rank])
    }

    #[inline]
    fn rank_lanes(
        &mut self,
        attr: AttrId,
        b: usize,
        len: usize,
        lo: Value,
        hi: Value,
    ) -> Result<u64, SegmentError> {
        let base = b * BLOCK;
        Ok(lanes_within(
            &self.rank_cols[attr][base..base + len],
            lo,
            hi,
        ))
    }

    #[inline]
    fn store_col(&mut self, attr: AttrId, idx: usize) -> Result<Value, SegmentError> {
        Ok(self.rows[idx].values[attr])
    }

    #[inline]
    fn share(&mut self, idx: usize) -> Result<Arc<Tuple>, SegmentError> {
        Ok(Arc::clone(&self.rows[idx]))
    }
}

/// Outcome of one indexed execution.
pub(crate) struct ExecOutcome {
    /// The answer tuples, best-ranked first, sharing the store's allocations.
    pub returned: Vec<Arc<Tuple>>,
    /// Whether more than `k` tuples matched.
    pub overflowed: bool,
}

impl ExecOutcome {
    /// The answer of a query that matches nothing.
    fn empty() -> Self {
        ExecOutcome {
            returned: Vec::new(),
            overflowed: false,
        }
    }
}

/// Reusable per-session working memory so steady-state queries allocate
/// nothing beyond their (small) answer vector.
///
/// Earlier revisions kept one of these in a thread-local; it now lives in
/// [`crate::Session`] (and in a small pool inside [`crate::HiddenDb`] for
/// session-less one-off queries), so the database itself stays free of
/// thread-affine state.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Closed per-attribute bounds `[lo, hi]` of the current query.
    bounds: Vec<(i64, i64)>,
    /// Constrained attributes as `(attr, lo, hi)`.
    cons: Vec<(AttrId, Value, Value)>,
    /// Rank positions (or store indices) of matching candidates.
    hits: Vec<u32>,
}

/// The storage a [`QueryIndex`] owns. Only `with_engine!` looks inside.
enum Storage {
    Ram(RamIndex),
    Segment(Arc<SegmentReader>),
}

/// The per-database index: rank permutation + zone maps + posting lists,
/// backed either by RAM or by a persisted segment.
pub(crate) struct QueryIndex {
    n: usize,
    storage: Storage,
}

/// Evaluates `$body` with `$e` bound to the [`Engine`] over `$index`'s
/// storage: the one place the engine's backing is chosen, once per entry
/// call. Everything the body runs is compiled separately per backing.
macro_rules! with_engine {
    ($index:expr, $e:ident => $body:expr) => {
        match &$index.storage {
            Storage::Ram(s) => {
                let $e = Engine { s, n: $index.n };
                $body
            }
            Storage::Segment(s) => {
                let $e = Engine {
                    s: &**s,
                    n: $index.n,
                };
                $body
            }
        }
    };
}

impl QueryIndex {
    /// Builds the index in RAM for a tuple store.
    pub(crate) fn build(store: &TupleStore, schema: &Schema, ranker: &dyn Ranker) -> Self {
        QueryIndex {
            n: store.len(),
            storage: Storage::Ram(RamIndex::build(store, schema, ranker)),
        }
    }

    /// Wraps an opened segment as an index: nothing is read eagerly beyond
    /// what [`SegmentReader::open`] already validated (footer + zone maps +
    /// prefix counts), so this is the O(touched blocks) cold-open path.
    pub(crate) fn from_segment(reader: Arc<SegmentReader>) -> Self {
        QueryIndex {
            n: reader.n(),
            storage: Storage::Segment(reader),
        }
    }

    /// The RAM view of the index, if it was built in RAM (what the segment
    /// writer serializes). `None` for segment-backed indexes.
    pub(crate) fn ram(&self) -> Option<&RamIndex> {
        match &self.storage {
            Storage::Ram(r) => Some(r),
            Storage::Segment(_) => None,
        }
    }

    /// Number of tuples whose value on `attr` lies in `[lo, hi]` — the O(1)
    /// selectivity oracle behind [`crate::HiddenDb::selectivity`].
    pub(crate) fn range_count(&self, attr: AttrId, lo: Value, hi: Value) -> usize {
        with_engine!(self, e => e.s.range_count(attr, lo, hi))
    }

    /// Executes a validated query against the store, using the caller's
    /// scratch buffers for all per-query working memory. The plan depends on
    /// the query alone. An `Err` is only possible on the segment backend
    /// (I/O failure or corrupted chunk).
    pub(crate) fn execute(
        &self,
        query: &Query,
        k: usize,
        store: &TupleStore,
        schema: &Schema,
        ranker: &dyn Ranker,
        scratch: &mut Scratch,
    ) -> Result<ExecOutcome, SegmentError> {
        with_engine!(self, e => e.execute(query, k, store, schema, ranker, scratch))
    }

    /// Evaluates a group's shared conjunction once: folds the prefix into a
    /// per-attribute box, gates on whether sharing beats the per-query
    /// plans, and materializes the matching candidates.
    ///
    /// The caller must have validated the group's head query (the prefix is
    /// a prefix of it, so that validates the prefix too).
    pub(crate) fn prepare_shared(
        &self,
        prefix: &[Predicate],
        group_len: usize,
        schema: &Schema,
    ) -> Result<SharedGroup, SegmentError> {
        with_engine!(self, e => e.prepare_shared(prefix, group_len, schema))
    }

    /// Answers one member query of a prepared group — byte-identical to what
    /// [`QueryIndex::execute`] returns for the same query.
    ///
    /// Must not be called with [`SharedGroup::PerQuery`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn execute_shared(
        &self,
        shared: &SharedGroup,
        query: &Query,
        k: usize,
        store: &TupleStore,
        schema: &Schema,
        ranker: &dyn Ranker,
        scratch: &mut Scratch,
    ) -> Result<ExecOutcome, SegmentError> {
        with_engine!(self, e => e.execute_shared(shared, query, k, store, schema, ranker, scratch))
    }
}

/// Materialized shared-prefix context for one plan group (see
/// [`execute_plan`]): the result of evaluating the group's shared
/// conjunction exactly once, against which every member query only has to
/// apply its private residual predicates and top-k selection.
pub(crate) enum SharedGroup {
    /// Sharing would not pay off (singleton group, unconstrained prefix, a
    /// prefix so broad that the per-query early-terminating plans win, or a
    /// ranker without a rank order, which selects from each member's own
    /// matching set): run every member through the regular single-query
    /// engine.
    PerQuery,
    /// The shared conjunction provably matches nothing — every member
    /// query answers empty.
    Empty,
    /// Candidate tuples matching the shared conjunction, as ascending rank
    /// positions: a member's top-k answer is the first k candidates passing
    /// its residual bounds.
    Ranked {
        /// Matching rank positions, ascending (best-ranked first).
        hits: Vec<u32>,
        /// The shared conjunction folded into a per-attribute box; member
        /// queries only re-check attributes their own box tightens.
        bounds: Vec<(i64, i64)>,
    },
}

/// The query engine over one storage backing, for one entry call of
/// [`QueryIndex`].
struct Engine<'a, S> {
    s: &'a S,
    n: usize,
}

impl<S: IndexStorage> Engine<'_, S> {
    /// The zone-map block walk shared by the early-terminating rank scan
    /// and the batch executor's shared-conjunction materializer: visits the
    /// rank order block by block, skips blocks whose zone maps prove no
    /// member can satisfy some bound, and hands the caller every surviving
    /// block's base rank plus its non-empty lane bitset (bit i set iff the
    /// block's i-th member lies inside every bound; a bound the whole block
    /// provably satisfies needs no lane pass). Lanes are rank-ordered, so
    /// consuming set bits low-to-high walks candidates best-ranked first.
    /// Stops early when `emit` returns `Ok(false)`. The lanes are read
    /// through `cur`, which `emit` gets back to read the answers with.
    fn for_each_matching_block<C: ColumnCursors>(
        &self,
        cur: &mut C,
        cons: &[(AttrId, Value, Value)],
        mut emit: impl FnMut(&mut C, usize, u64) -> Result<bool, SegmentError>,
    ) -> Result<(), SegmentError> {
        let blocks = self.n.div_ceil(BLOCK);
        for b in 0..blocks {
            // Zone check: can any member of this block satisfy every bound?
            let survives = cons.iter().all(|&(attr, lo, hi)| {
                let (bmin, bmax) = self.s.zone(attr, b);
                bmin <= hi && bmax >= lo
            });
            if !survives {
                continue;
            }
            // Lane bitset: one attribute at a time, from the columnar
            // rank-ordered values.
            let base = b * BLOCK;
            let len = BLOCK.min(self.n - base);
            let mut mask: u64 = if len == BLOCK {
                u64::MAX
            } else {
                (1u64 << len) - 1
            };
            for &(attr, lo, hi) in cons {
                let (bmin, bmax) = self.s.zone(attr, b);
                if bmin >= lo && bmax <= hi {
                    continue;
                }
                mask &= cur.rank_lanes(attr, b, len, lo, hi)?;
                if mask == 0 {
                    break;
                }
            }
            if mask != 0 && !emit(cur, base, mask)? {
                return Ok(());
            }
        }
        Ok(())
    }

    /// See [`QueryIndex::execute`].
    fn execute(
        &self,
        query: &Query,
        k: usize,
        store: &TupleStore,
        schema: &Schema,
        ranker: &dyn Ranker,
        scratch: &mut Scratch,
    ) -> Result<ExecOutcome, SegmentError> {
        let Some(best) = self.plan(
            query.predicates(),
            schema,
            &mut scratch.bounds,
            &mut scratch.cons,
        ) else {
            return Ok(ExecOutcome::empty());
        };

        match (self.s.has_perm(), best) {
            // SELECT * (no constraints): the answer is the head of the rank
            // order.
            (true, None) => {
                let take = k.min(self.n);
                let mut returned = Vec::with_capacity(take);
                let mut cur = self.s.cursors();
                for r in 0..take {
                    let idx = cur.perm(r)?;
                    returned.push(cur.share(idx as usize)?);
                }
                Ok(ExecOutcome {
                    returned,
                    overflowed: self.n > k,
                })
            }
            (true, Some((count, best_pos))) => {
                if count == 0 {
                    return Ok(ExecOutcome::empty());
                }
                // Plan choice: walking the most selective posting list costs
                // `count` rank lookups plus a k-selection; the block rank
                // scan touches columnar values in preference order and stops
                // after k matches + 1 overflow probe (see
                // [`BLOCK_SCAN_CROSSOVER_DEN`] for the crossover rationale).
                if count * BLOCK_SCAN_CROSSOVER_DEN >= self.n {
                    self.rank_scan(k, &scratch.cons)
                } else {
                    self.posting_topk(k, &scratch.cons, best_pos, &mut scratch.hits)
                }
            }
            // No precomputed order (randomized / adversarial rankers): defer
            // ranking to the ranker itself on the exact matching set, using
            // the posting list only to prune the candidates.
            (false, _) => self.ranker_fallback(query, k, store, schema, ranker, best, scratch),
        }
    }

    /// Query planning shared by [`Engine::execute`] and
    /// [`Engine::prepare_shared`]: folds the conjunction into one closed box
    /// per attribute (`bounds`), collects the constrained attributes into
    /// `cons`, and picks the most selective one via the prefix counts.
    ///
    /// Returns `None` when the conjunction is unsatisfiable, otherwise
    /// `Some(best)` where `best` is `(count, position in cons)` of the most
    /// selective constrained attribute (or `None` for `SELECT *`).
    fn plan(
        &self,
        preds: &[Predicate],
        schema: &Schema,
        bounds: &mut Vec<(i64, i64)>,
        cons: &mut Vec<(AttrId, Value, Value)>,
    ) -> Option<Option<(usize, usize)>> {
        if !fold_bounds(preds, schema_maxima(schema), bounds) {
            return None;
        }
        cons.clear();
        let mut best: Option<(usize, usize)> = None; // (count, cons position)
        for (attr, &(lo, hi)) in bounds.iter().enumerate() {
            let max = i64::from(schema.attr(attr).max_value());
            if lo > 0 || hi < max {
                let (lo, hi) = (lo as Value, hi as Value);
                let count = self.s.range_count(attr, lo, hi);
                let pos = cons.len();
                cons.push((attr, lo, hi));
                if best.is_none_or(|(c, _)| count < c) {
                    best = Some((count, pos));
                }
            }
        }
        Some(best)
    }

    /// Broad-query plan: walk the rank order block by block, best ranks
    /// first, early-terminating after k matches and one overflow probe.
    ///
    /// A block of 64 ranks is skipped wholesale when its zone map proves no
    /// member can satisfy some bound (and needs no per-lane work when it
    /// proves every member does); surviving blocks are evaluated with a
    /// branch-free 64-bit match bitset built from the rank-ordered columnar
    /// values — a sequential pass over contiguous `u32`s — instead of the
    /// old tuple-at-a-time candidate walk, whose per-tuple pointer chasing
    /// and branching dominated broad-range queries.
    fn rank_scan(
        &self,
        k: usize,
        cons: &[(AttrId, Value, Value)],
    ) -> Result<ExecOutcome, SegmentError> {
        let mut returned = Vec::with_capacity(k.min(16));
        let mut overflowed = false;
        self.for_each_matching_block(&mut self.s.cursors(), cons, |cur, base, mut mask| {
            // Consuming set bits low-to-high preserves the answer order of
            // the old tuple-at-a-time walk exactly.
            while mask != 0 {
                let lane = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if returned.len() == k {
                    // Overflow probe: one extra match proves truncation.
                    overflowed = true;
                    return Ok(false);
                }
                let idx = cur.perm(base + lane)?;
                returned.push(cur.share(idx as usize)?);
            }
            Ok(true)
        })?;
        Ok(ExecOutcome {
            returned,
            overflowed,
        })
    }

    /// Selective-query plan: iterate the most selective predicate's posting
    /// range, bound-check the remaining attributes columnar-only, then pick
    /// the k best by precomputed rank position with one partial selection.
    fn posting_topk(
        &self,
        k: usize,
        cons: &[(AttrId, Value, Value)],
        best_pos: usize,
        hits: &mut Vec<u32>,
    ) -> Result<ExecOutcome, SegmentError> {
        let (attr, lo, hi) = cons[best_pos];
        hits.clear();
        let mut cur = self.s.cursors();
        self.s.for_posting(attr, lo, hi, |idx| {
            // The posting range already guarantees the best attribute's
            // bounds; check the others.
            if within_rest(&mut cur, idx as usize, cons, best_pos)? {
                hits.push(cur.rank_of(idx as usize)?);
            }
            Ok(())
        })?;
        let overflowed = hits.len() > k;
        if overflowed {
            // Partial selection: k smallest rank positions to the front,
            // then order just those k.
            hits.select_nth_unstable(k - 1);
            hits.truncate(k);
        }
        hits.sort_unstable();
        let mut returned = Vec::with_capacity(hits.len());
        for &rank in hits.iter() {
            let idx = cur.perm(rank as usize)?;
            returned.push(cur.share(idx as usize)?);
        }
        Ok(ExecOutcome {
            returned,
            overflowed,
        })
    }

    /// Fallback for rankers without a precomputed order: materialize the
    /// matching positions (pruned through the best posting list, in store
    /// order — byte-identical to what a naive filter pass hands the ranker)
    /// and let [`Ranker::select_top_k`] decide.
    #[allow(clippy::too_many_arguments)]
    fn ranker_fallback(
        &self,
        query: &Query,
        k: usize,
        store: &TupleStore,
        schema: &Schema,
        ranker: &dyn Ranker,
        best: Option<(usize, usize)>,
        scratch: &mut Scratch,
    ) -> Result<ExecOutcome, SegmentError> {
        let Scratch { cons, hits, .. } = scratch;
        hits.clear();
        match best {
            Some((_, best_pos)) => {
                let (attr, lo, hi) = cons[best_pos];
                let mut cur = self.s.cursors();
                self.s.for_posting(attr, lo, hi, |idx| {
                    if within_rest(&mut cur, idx as usize, cons, best_pos)? {
                        hits.push(idx);
                    }
                    Ok(())
                })?;
                // Store order, exactly like a naive filter pass
                // (this matters for rankers that consume randomness).
                hits.sort_unstable();
            }
            None => hits.extend(0..self.n as u32),
        }
        // The ranker reads tuples by reference: on a segment, hydrate the
        // whole store first, so every tuple access below is infallible.
        store.try_hydrate_all()?;
        debug_assert!(hits.iter().all(|&i| query.matches(&store[i as usize])));
        Ok(ExecOutcome {
            overflowed: hits.len() > k,
            returned: select_shared(ranker, store, hits, k, schema),
        })
    }

    /// See [`QueryIndex::prepare_shared`].
    fn prepare_shared(
        &self,
        prefix: &[Predicate],
        group_len: usize,
        schema: &Schema,
    ) -> Result<SharedGroup, SegmentError> {
        let (mut bounds, mut cons) = (Vec::new(), Vec::new());
        let Some(best) = self.plan(prefix, schema, &mut bounds, &mut cons) else {
            return Ok(SharedGroup::Empty);
        };
        let Some((count, best_pos)) = best else {
            // Unconstrained prefix (`SELECT *`-shaped): nothing to share.
            return Ok(SharedGroup::PerQuery);
        };
        if count == 0 {
            return Ok(SharedGroup::Empty);
        }
        if group_len < 2 || !self.s.has_perm() {
            // A singleton amortizes nothing over the per-query plans, and a
            // ranker without a rank order selects from each member's own
            // matching set anyway.
            return Ok(SharedGroup::PerQuery);
        }
        if count * BLOCK_SCAN_CROSSOVER_DEN < self.n {
            // Posting-list intersection: one attribute is selective enough
            // that walking its posting range (what every member's own
            // posting plan would do anyway) materializes the shared
            // candidates once for the whole group.
            let (attr, lo, hi) = cons[best_pos];
            let mut hits = Vec::with_capacity(count);
            let mut cur = self.s.cursors();
            self.s.for_posting(attr, lo, hi, |idx| {
                if within_rest(&mut cur, idx as usize, &cons, best_pos)? {
                    hits.push(cur.rank_of(idx as usize)?);
                }
                Ok(())
            })?;
            hits.sort_unstable();
            return Ok(SharedGroup::Ranked { hits, bounds });
        }
        // Every individual attribute is broad. Tree frontiers still produce
        // *jointly* selective conjunctions (each sibling inherits its whole
        // ancestor chain), and for those one block-skipping zone-map scan,
        // amortized over the group, beats per-query early-terminating scans.
        // Joint selectivity is estimated from the O(1) per-attribute counts
        // under independence; a broad estimate keeps the per-query plans,
        // whose early termination is unbeatable for answers near k.
        let est: f64 = cons
            .iter()
            .map(|&(attr, lo, hi)| self.s.range_count(attr, lo, hi) as f64 / self.n as f64)
            .product::<f64>()
            * self.n as f64;
        if est * BLOCK_SCAN_CROSSOVER_DEN as f64 >= self.n as f64 {
            return Ok(SharedGroup::PerQuery);
        }
        // Zone-map scan over the rank-ordered columns (the same block walk
        // the rank scan uses, without early termination): the collected
        // rank positions arrive already sorted.
        let mut hits = Vec::new();
        self.for_each_matching_block(&mut self.s.cursors(), &cons, |_, base, mut mask| {
            while mask != 0 {
                let lane = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                hits.push((base + lane) as u32);
            }
            Ok(true)
        })?;
        Ok(SharedGroup::Ranked { hits, bounds })
    }

    /// Answers one member query of a prepared group: folds the member's full
    /// conjunction, derives the residual constraints (attributes whose box
    /// is strictly tighter than the shared one) and selects the top k among
    /// the shared candidates.
    #[allow(clippy::too_many_arguments)]
    fn execute_shared(
        &self,
        shared: &SharedGroup,
        query: &Query,
        k: usize,
        store: &TupleStore,
        schema: &Schema,
        ranker: &dyn Ranker,
        scratch: &mut Scratch,
    ) -> Result<ExecOutcome, SegmentError> {
        let (hits, shared_bounds) = match shared {
            SharedGroup::Empty => return Ok(ExecOutcome::empty()),
            SharedGroup::Ranked { hits, bounds } => (hits, bounds),
            SharedGroup::PerQuery => unreachable!("PerQuery groups bypass shared execution"),
        };
        if !fold_bounds(
            query.predicates(),
            schema_maxima(schema),
            &mut scratch.bounds,
        ) {
            return Ok(ExecOutcome::empty());
        }
        // Per-member cost choice: a member whose own most selective posting
        // range is much smaller than the shared candidate set (its private
        // residual, not the inherited prefix, is the selective part) is
        // cheaper through its regular single-query plan. Both paths return
        // identical answers, so this is purely a plan-cost decision; the
        // O(1) prefix counts make it a handful of lookups.
        let mut member_best = usize::MAX;
        for (attr, &(lo, hi)) in scratch.bounds.iter().enumerate() {
            let max = i64::from(schema.attr(attr).max_value());
            if lo > 0 || hi < max {
                member_best = member_best.min(self.s.range_count(attr, lo as Value, hi as Value));
            }
        }
        if member_best != usize::MAX && hits.len() > member_best.saturating_mul(2) {
            return self.execute(query, k, store, schema, ranker, scratch);
        }
        // The member's box is the shared box intersected with its residual
        // predicates, so exactly the attributes it tightened need a
        // re-check; every shared candidate already satisfies the rest.
        scratch.cons.clear();
        for (attr, (&full, &sh)) in scratch.bounds.iter().zip(shared_bounds).enumerate() {
            if full != sh {
                scratch.cons.push((attr, full.0 as Value, full.1 as Value));
            }
        }
        // Candidates arrive best-ranked first: the answer is the first k
        // residual matches, early-terminating after one overflow probe.
        let mut returned = Vec::with_capacity(k.min(16));
        let mut cur = self.s.cursors();
        for &r in hits {
            let r = r as usize;
            let mut ok = true;
            for &(attr, lo, hi) in scratch.cons.iter() {
                let v = cur.rank_col(attr, r)?;
                if v < lo || v > hi {
                    ok = false;
                    break;
                }
            }
            if !ok {
                continue;
            }
            if returned.len() == k {
                return Ok(ExecOutcome {
                    returned,
                    overflowed: true,
                });
            }
            let idx = cur.perm(r)?;
            returned.push(cur.share(idx as usize)?);
        }
        Ok(ExecOutcome {
            returned,
            overflowed: false,
        })
    }
}

/// Executes a whole multi-query plan against the database: walks the plan's
/// prefix groups, evaluates each group's shared conjunction once (lazily,
/// after the group's first member passes admission) and answers every member
/// from the shared candidates plus its private residual — stopping at the
/// first rejected query, whose error is returned.
///
/// Per-query admission (validation, rate-limit reservation, sequence
/// numbering), statistics and access-log accounting run through exactly the
/// same [`HiddenDb`] hooks as individually issued queries, in plan order, so
/// responses, [`crate::QueryStats`] and log snapshots are byte-identical to
/// the sequential path — the differential battery in `tests/proptest_plan.rs`
/// pins this.
pub(crate) fn execute_plan(
    db: &HiddenDb,
    queries: &[Query],
    groups: &[PrefixGroup],
    scratch: &mut Scratch,
    responses: &mut Vec<QueryResponse>,
) -> Option<QueryError> {
    debug_assert!(crate::predicate::groups_cover(queries, groups));
    let mut pos = 0usize;
    for g in groups {
        let group = &queries[pos..pos + g.len];
        pos += g.len;
        let shares = g.prefix_len > 0 && g.len >= 2;
        // Shared context for the group, prepared lazily once the first
        // member passes admission: validating the head validates the prefix
        // (it is a prefix of the head), and a plan cut short by the rate
        // limit before reaching this group never pays for materialization.
        let mut shared: Option<SharedGroup> = None;
        for q in group {
            let seq = match db.admit(q) {
                Ok(seq) => seq,
                Err(e) => return Some(e),
            };
            let out = if shares {
                let index = db.index();
                if shared.is_none() {
                    let prefix = &group[0].predicates()[..g.prefix_len];
                    match index.prepare_shared(prefix, g.len, db.schema()) {
                        Ok(sg) => shared = Some(sg),
                        Err(e) => return Some(QueryError::Storage { error: e }),
                    }
                }
                // Just prepared above; the unshared fallback is correct (it
                // executes each query individually).
                match shared.get_or_insert(SharedGroup::PerQuery) {
                    SharedGroup::PerQuery => db.exec_validated(q, scratch),
                    ctx => index
                        .execute_shared(
                            ctx,
                            q,
                            db.k(),
                            db.store(),
                            db.schema(),
                            db.ranker(),
                            scratch,
                        )
                        .map_err(|e| QueryError::Storage { error: e }),
                }
            } else {
                db.exec_validated(q, scratch)
            };
            match out {
                Ok(out) => responses.push(db.finish_query(q, seq, out)),
                Err(e) => return Some(e),
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{MemSource, SegmentOpenOptions, SegmentWriter};
    use crate::{InterfaceType, Predicate, SchemaBuilder, SumRanker};

    fn schema() -> Schema {
        SchemaBuilder::new()
            .ranking("a", 10, InterfaceType::Rq)
            .ranking("b", 10, InterfaceType::Rq)
            .filtering("f", 3)
            .build()
    }

    fn build() -> (Schema, TupleStore, QueryIndex) {
        let s = schema();
        let store = TupleStore::new(vec![
            Tuple::new(0, vec![2, 5, 0]),
            Tuple::new(1, vec![4, 2, 1]),
            Tuple::new(2, vec![7, 7, 2]),
            Tuple::new(3, vec![1, 8, 1]),
            Tuple::new(4, vec![5, 5, 0]),
            Tuple::new(5, vec![2, 2, 2]),
        ]);
        let index = QueryIndex::build(&store, &s, &SumRanker);
        (s, store, index)
    }

    #[test]
    fn prefix_counts_answer_selectivity_in_o1() {
        let (_, _, index) = build();
        assert_eq!(index.range_count(0, 0, 9), 6);
        assert_eq!(index.range_count(0, 2, 2), 2);
        assert_eq!(index.range_count(0, 0, 1), 1);
        assert_eq!(index.range_count(0, 8, 9), 0);
        assert_eq!(index.range_count(2, 0, 0), 2);
        assert_eq!(index.range_count(2, 1, 2), 4);
    }

    #[test]
    fn posting_lists_group_by_value_in_store_order() {
        let (_, store, index) = build();
        let ram = index.ram().expect("built in RAM");
        let starts = ram.posting_starts(2);
        let order = ram.posting_order(2);
        // Value 0 → tuples 0, 4; value 1 → 1, 3; value 2 → 2, 5.
        let bucket = |v: usize| order[starts[v] as usize..starts[v + 1] as usize].to_vec();
        assert_eq!(bucket(0), vec![0, 4]);
        assert_eq!(bucket(1), vec![1, 3]);
        assert_eq!(bucket(2), vec![2, 5]);
        assert_eq!(store.len(), 6);
    }

    /// The orders the cursor checks read every column in: ascending,
    /// descending, a stride of 97 that crosses chunk boundaries forwards
    /// and wraps back across them, and a zigzag between the two ends, so
    /// that each read leaves the chunk of the one before.
    fn read_orders(n: usize) -> [(&'static str, Vec<usize>); 4] {
        [
            ("ascending", (0..n).collect()),
            ("descending", (0..n).rev().collect()),
            ("stride", (0..n).map(|j| j * 97 % n).collect()),
            (
                "zigzag",
                (0..n)
                    .map(|j| if j % 2 == 0 { j / 2 } else { n - 1 - j / 2 })
                    .collect(),
            ),
        ]
    }

    /// Reads every column of `st` through its cursors in every
    /// [`read_orders`] order and checks each value against the store it
    /// indexes, under the rank order `perm`. Each order runs on cursors of
    /// its own, as one entry call opens them, and again on one set shared
    /// by all orders.
    fn check_cursors(st: &impl IndexStorage, store: &TupleStore, s: &Schema, perm: &[u32]) {
        let n = store.len();
        let val = |idx: usize, attr: AttrId| store[idx].values[attr];
        let mut rank_of = vec![0u32; n];
        for (rank, &idx) in perm.iter().enumerate() {
            rank_of[idx as usize] = rank as u32;
        }
        let mut shared = st.cursors();
        for (order, reads) in read_orders(n) {
            let mut own = st.cursors();
            for cur in [&mut own, &mut shared] {
                for &i in &reads {
                    let at = format!("{order} read of {i}");
                    assert_eq!(cur.perm(i).unwrap(), perm[i], "perm, {at}");
                    assert_eq!(cur.rank_of(i).unwrap(), rank_of[i], "rank-of, {at}");
                    for attr in 0..s.len() {
                        let want = val(perm[i] as usize, attr);
                        assert_eq!(cur.rank_col(attr, i).unwrap(), want, "rank-col, {at}");
                        let want = val(i, attr);
                        assert_eq!(cur.store_col(attr, i).unwrap(), want, "store-col, {at}");
                    }
                    let t = cur.share(i).unwrap();
                    assert_eq!((t.id, &t.values), (store[i].id, &store[i].values), "{at}");
                }
            }
        }
    }

    /// Runs every [`IndexStorage`] accessor and cursor on `st` and checks
    /// it against the store it indexes, under the rank order `perm`.
    fn check_accessors(st: &impl IndexStorage, store: &TupleStore, s: &Schema, perm: &[u32]) {
        let n = store.len();
        let val = |idx: usize, attr: AttrId| store[idx].values[attr];
        assert!(st.has_perm(), "SumRanker precomputes");
        check_cursors(st, store, s, perm);
        for attr in 0..s.len() {
            let block_values = |b: usize| -> Vec<Value> {
                let len = BLOCK.min(n - b * BLOCK);
                (b * BLOCK..b * BLOCK + len)
                    .map(|r| val(perm[r] as usize, attr))
                    .collect()
            };
            for b in 0..n.div_ceil(BLOCK) {
                let values = block_values(b);
                let bounds = (*values.iter().min().unwrap(), *values.iter().max().unwrap());
                assert_eq!(st.zone(attr, b), bounds, "zone of attr {attr} block {b}");
            }
            let mut cur = st.cursors();
            let max = s.attr(attr).max_value();
            let ranges = (0..=max).flat_map(|lo| (lo..=max).map(move |hi| (lo, hi)));
            for (lo, hi) in ranges.chain([(max, 0)]) {
                // Posting walk: value buckets ascending, store order within.
                let want: Vec<u32> = (lo..=hi)
                    .flat_map(|v| (0..n).filter(move |&i| val(i, attr) == v))
                    .map(|i| i as u32)
                    .collect();
                assert_eq!(st.range_count(attr, lo, hi), want.len());
                let mut walked = Vec::new();
                st.for_posting(attr, lo, hi, |idx| {
                    walked.push(idx);
                    Ok(())
                })
                .unwrap();
                assert_eq!(
                    walked, want,
                    "posting walk of attr {attr} over [{lo}, {hi}]"
                );
                // Lanes of every block, last to first and back again.
                let blocks = 0..n.div_ceil(BLOCK);
                for b in blocks.clone().rev().chain(blocks) {
                    let values = block_values(b);
                    let want = values
                        .iter()
                        .enumerate()
                        .fold(0u64, |m, (i, &v)| m | u64::from(lo <= v && v <= hi) << i);
                    let got = cur.rank_lanes(attr, b, values.len(), lo, hi).unwrap();
                    assert_eq!(got, want, "lanes of attr {attr} block {b} in [{lo}, {hi}]");
                }
                let cons = [(attr, lo, hi), ((attr + 1) % s.len(), 1, 2)];
                for idx in 0..n {
                    let within = |cons: &[_]| store[idx].within_bounds(cons);
                    let all = within_rest(&mut cur, idx, &cons, usize::MAX).unwrap();
                    assert_eq!(all, within(&cons[..]));
                    let rest = within_rest(&mut cur, idx, &cons, 0).unwrap();
                    assert_eq!(rest, within(&cons[1..]));
                }
            }
        }
    }

    /// Reads column `store-col(0)` of `reader` in every [`read_orders`]
    /// order, each on fresh cursors, and returns the chunk lookups each
    /// order counted next to the chunks it entered.
    fn lookups_per_order(reader: &SegmentReader) -> Vec<(u64, u64)> {
        let chunk = reader.chunk_size();
        let lookups = || {
            let stats = reader.storage_stats();
            stats.cache_hits + stats.cache_misses
        };
        read_orders(reader.n())
            .into_iter()
            .map(|(_, reads)| {
                let before = lookups();
                let mut cur = reader.cursors();
                for &i in &reads {
                    cur.store_col(0, i).unwrap();
                }
                let left = reads.windows(2).filter(|w| w[0] / chunk != w[1] / chunk);
                (lookups() - before, 1 + left.count() as u64)
            })
            .collect()
    }

    #[test]
    fn zone_maps_and_columns_cover_every_block() {
        // One store of five zone blocks behind three storages: the RAM
        // index, and a segment of two-block chunks (so blocks also start
        // mid-chunk) opened without a budget and under one whose shards
        // hold two or three chunks each, so it evicts.
        let s = schema();
        let tuples: Vec<Tuple> = (0..300u64)
            .map(|i| {
                Tuple::new(
                    i,
                    vec![(i * 7 % 10) as u32, (i / 30) as u32, (i % 3) as u32],
                )
            })
            .collect();
        let store = TupleStore::new(tuples.clone());
        let perm = SumRanker
            .precompute(&store, &s)
            .expect("SumRanker precomputes");
        let db = HiddenDb::new(s.clone(), tuples, Box::new(SumRanker), 5);
        let bytes = SegmentWriter::new()
            .with_chunk_size(2 * BLOCK)
            .write(&db)
            .unwrap();
        let open = |options| {
            SegmentReader::open_with(Box::new(MemSource::new(bytes.clone())), options).unwrap()
        };
        let unbudgeted = open(SegmentOpenOptions::new());
        // A budget caches each 128-value chunk packed, charged 8 · words
        // + 32 bytes: 72 B for the 2-bit column up to 184 B for the 9-bit
        // permutation, so a 300-byte shard holds two or three chunks.
        let capped = open(SegmentOpenOptions::new().with_cache_budget(8 * 300));

        check_accessors(&RamIndex::build(&store, &s, &SumRanker), &store, &s, &perm);
        check_accessors(&unbudgeted, &store, &s, &perm);
        check_accessors(&capped, &store, &s, &perm);
        assert_eq!(unbudgeted.storage_stats().cache_evictions, 0);
        assert!(
            capped.storage_stats().cache_evictions > 0,
            "the budget evicts"
        );
        // Every chunk is resident now: cursors on the unbudgeted reader
        // borrow the sticky blocks and count nothing. Under the budget
        // every chunk a cursor enters is one counted lookup, and a read
        // inside the held chunk is none.
        for (lookups, _) in lookups_per_order(&unbudgeted) {
            assert_eq!(lookups, 0, "a resident sticky block is read uncounted");
        }
        for (lookups, entered) in lookups_per_order(&capped) {
            assert_eq!(lookups, entered, "one lookup per chunk entered");
        }
    }

    #[test]
    fn execute_matches_naive_filter_and_rank() {
        let (s, store, index) = build();
        let queries = vec![
            Query::select_all(),
            Query::new(vec![Predicate::lt(0, 5)]),
            Query::new(vec![Predicate::eq(2, 1)]),
            Query::new(vec![
                Predicate::lt(0, 5),
                Predicate::lt(1, 6),
                Predicate::eq(2, 2),
            ]),
            Query::new(vec![Predicate::gt(0, 9)]),
            Query::new(vec![Predicate::ge(0, 0)]), // full-range predicate
        ];
        let mut scratch = Scratch::default();
        for q in &queries {
            for k in 1..=7 {
                let naive: Vec<&Tuple> = store.iter().filter(|t| q.matches(t)).collect();
                let expected = SumRanker.select_top_k(&naive, k, &s);
                let out = index
                    .execute(q, k, &store, &s, &SumRanker, &mut scratch)
                    .expect("RAM execution is infallible");
                let got: Vec<u64> = out.returned.iter().map(|t| t.id).collect();
                let want: Vec<u64> = expected.iter().map(|t| t.id).collect();
                assert_eq!(got, want, "query {q} k={k}");
                assert_eq!(out.overflowed, naive.len() > k, "query {q} k={k}");
            }
        }
    }

    #[test]
    fn rank_scan_spans_multiple_blocks() {
        // More than one zone-map block, bounds that skip the best-ranked
        // blocks entirely: matches live at the tail of the rank order.
        let s = SchemaBuilder::new()
            .ranking("a", 200, InterfaceType::Rq)
            .build();
        let store = TupleStore::new((0..150).map(|i| Tuple::new(i, vec![i as u32])).collect());
        let index = QueryIndex::build(&store, &s, &SumRanker);
        let mut scratch = Scratch::default();
        let q = Query::new(vec![Predicate::ge(0, 100)]);
        let out = index
            .execute(&q, 3, &store, &s, &SumRanker, &mut scratch)
            .unwrap();
        let ids: Vec<u64> = out.returned.iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![100, 101, 102]);
        assert!(out.overflowed);
        // And an exhaustive (non-overflowing) scan across blocks.
        let out = index
            .execute(&q, 60, &store, &s, &SumRanker, &mut scratch)
            .unwrap();
        assert_eq!(out.returned.len(), 50);
        assert!(!out.overflowed);
    }

    #[test]
    fn crossover_constant_separates_scan_and_posting_plans() {
        // Pins the planner's crossover behaviorally on both sides of
        // BLOCK_SCAN_CROSSOVER_DEN: a selective predicate
        // (count * DEN < n) takes the posting plan, which collects its
        // matches in `scratch.hits`; a broad one (count * DEN >= n) takes
        // the early-terminating rank scan, which never touches them.
        let s = SchemaBuilder::new()
            .ranking("a", 200, InterfaceType::Rq)
            .build();
        let store = TupleStore::new((0..160).map(|i| Tuple::new(i, vec![i as u32])).collect());
        let index = QueryIndex::build(&store, &s, &SumRanker);
        let mut scratch = Scratch::default();
        let n = store.len();

        let selective = Query::new(vec![Predicate::lt(0, 4)]); // count = 4
        assert!(4 * BLOCK_SCAN_CROSSOVER_DEN < n);
        let out = index
            .execute(&selective, 2, &store, &s, &SumRanker, &mut scratch)
            .unwrap();
        assert!(out.overflowed);
        assert_eq!(
            scratch.hits,
            [0, 1],
            "selective plans (count * {BLOCK_SCAN_CROSSOVER_DEN} < n) walk the posting list"
        );

        let broad = Query::new(vec![Predicate::lt(0, 8)]); // count = 8
        assert!(8 * BLOCK_SCAN_CROSSOVER_DEN >= n);
        scratch.hits.clear();
        let out = index
            .execute(&broad, 2, &store, &s, &SumRanker, &mut scratch)
            .unwrap();
        assert!(out.overflowed);
        assert!(
            scratch.hits.is_empty(),
            "broad plans (count * {BLOCK_SCAN_CROSSOVER_DEN} >= n) take the rank scan"
        );
    }

    #[test]
    fn shared_group_paths_match_single_query_execution() {
        use crate::WorstCaseRanker;
        let mut b = SchemaBuilder::new();
        for i in 0..3 {
            b = b.ranking(format!("a{i}"), 32, InterfaceType::Rq);
        }
        let s = b.build();
        // Attribute 0 has a rare value (posting-selective prefixes);
        // attributes 1 and 2 are individually broad but *jointly* selective
        // on short conjunctions — the tree-frontier shape the zone-scan
        // materializer exists for.
        let tuples: Vec<Tuple> = (0..1000u64)
            .map(|i| {
                let v0 = if i < 10 { 0 } else { 1 + (i % 31) as u32 };
                Tuple::new(i, vec![v0, ((i / 32) % 32) as u32, ((i * 7) % 32) as u32])
            })
            .collect();
        let store = TupleStore::new(tuples);
        let ids = |v: &[Arc<Tuple>]| v.iter().map(|t| t.id).collect::<Vec<u64>>();

        let rankers: [(&str, Box<dyn crate::Ranker>); 2] = [
            ("sum", Box::new(SumRanker)),         // precomputed rank order
            ("worst", Box::new(WorstCaseRanker)), // no rank order: fallback
        ];
        for (rname, ranker) in rankers {
            let index = QueryIndex::build(&store, &s, ranker.as_ref());
            let ranked = ranker.precompute(&store, &s).is_some();
            let mut scratch = Scratch::default();
            let cases: Vec<(Vec<Predicate>, &str)> = vec![
                // One attribute selective: posting-list materialization.
                (vec![Predicate::lt(0, 1)], "shared"),
                // All attributes broad, conjunction selective: zone scan.
                (vec![Predicate::lt(1, 4), Predicate::lt(2, 4)], "shared"),
                // Jointly broad: the per-query plans stay.
                (
                    vec![Predicate::lt(1, 16), Predicate::lt(2, 16)],
                    "per-query",
                ),
                // Provably empty shared conjunction.
                (vec![Predicate::gt(0, 31)], "empty"),
            ];
            for (prefix, expect) in cases {
                let shared = index.prepare_shared(&prefix, 4, &s).unwrap();
                // Without a rank order each member selects from its own
                // matching set, so only a provably empty prefix is shared.
                let expect = if ranked || expect == "empty" {
                    expect
                } else {
                    "per-query"
                };
                match (expect, &shared) {
                    ("shared", SharedGroup::Ranked { .. })
                    | ("per-query", SharedGroup::PerQuery)
                    | ("empty", SharedGroup::Empty) => {}
                    _ => panic!("{rname}: prefix {prefix:?} took an unexpected path"),
                }
                if matches!(shared, SharedGroup::PerQuery) {
                    continue;
                }
                let base = Query::new(prefix.clone());
                let members = vec![
                    base.clone(), // identical to the prefix (empty residual)
                    base.and(Predicate::lt(2, 8)),
                    base.and(Predicate::ge(1, 2)),
                    base.and(Predicate::lt(0, 0)), // unsatisfiable residual
                ];
                for q in &members {
                    for k in [1usize, 5, 100] {
                        let want = index
                            .execute(q, k, &store, &s, ranker.as_ref(), &mut scratch)
                            .unwrap();
                        let got = index
                            .execute_shared(
                                &shared,
                                q,
                                k,
                                &store,
                                &s,
                                ranker.as_ref(),
                                &mut scratch,
                            )
                            .unwrap();
                        assert_eq!(
                            ids(&got.returned),
                            ids(&want.returned),
                            "{rname}: answer diverged for {q} k={k}"
                        );
                        assert_eq!(got.overflowed, want.overflowed, "{rname}: {q} k={k}");
                    }
                }
            }
        }
    }

    #[test]
    fn responses_share_the_store_allocation() {
        let (s, store, index) = build();
        let mut scratch = Scratch::default();
        let out = index
            .execute(
                &Query::select_all(),
                3,
                &store,
                &s,
                &SumRanker,
                &mut scratch,
            )
            .unwrap();
        for t in &out.returned {
            assert!(
                store.as_slice().iter().any(|u| Arc::ptr_eq(u, t)),
                "indexed responses must alias the shared store"
            );
        }
    }
}
