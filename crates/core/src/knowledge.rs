//! The client-side knowledge base: everything a discovery run has learned
//! about the hidden database, indexed for the questions the algorithms ask
//! on every query.
//!
//! [`KnowledgeBase`] replaces the old `Collector`, which maintained the
//! retrieved-set skyline with BNL insertion over deep-cloned tuples,
//! re-cloned and re-sorted the whole retrieved set on every `retrieved()`
//! call, and answered non-downward-closed `any_seen_matches` probes with a
//! full scan of everything retrieved. It is built on an
//! [`IncrementalSkyline`] ([`skyweb_skyline::incremental`]) plus
//! per-attribute posting lists over the retrieved set:
//!
//! * **storage** — every retrieved tuple is held as the `Arc<Tuple>` handle
//!   the [`QueryResponse`](skyweb_hidden_db::QueryResponse) shared with the
//!   database store; nothing is deep-cloned, ingested, snapshotted or
//!   returned by value;
//! * **skyline / sky band** — an [`IncrementalSkyline`] (band `h` for
//!   sky-band discovery, 1 otherwise) keeps the minimal set current in one
//!   monotone-key-sorted pass per insertion, and answers
//!   [`KnowledgeBase::dominated_by_skyline`] with a deterministic
//!   smallest-key dominator instead of a BNL-order-dependent one;
//! * **membership** — [`KnowledgeBase::any_seen_matches`] is exact for
//!   *every* query shape. Only the RQ tree walk calls it: RQ-DB-SKY,
//!   MQ-DB-SKY's range phase and sky-band discovery (MQ's point phase walks
//!   SQ trees, which never probe). Downward-closed queries scan only the
//!   skyline's rows of dominance values. The only probes that are not
//!   downward closed are the `≥`-rooted boxes of sky-band subspace
//!   traversals; they walk the posting lists of the most selective
//!   constrained attribute instead of the whole retrieved set.

use std::collections::HashSet;
use std::sync::Arc;

use skyweb_hidden_db::{AttrId, CmpOp, Query, Tuple, TupleId, Value};
use skyweb_skyline::incremental::IncrementalSkyline;

use crate::codec;
use crate::discovery::{DiscoveryResult, TracePoint};

/// Per-attribute bounds a conjunctive query folds into: the closed interval
/// `[lo, hi]` (in `i64` so empty intervals are representable).
type Bounds = Vec<(i64, i64)>;

/// The knowledge a discovery run has accumulated: the retrieved set, its
/// skyline (or top-h sky band), posting lists for membership probes, and
/// the anytime trace.
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    attrs: Vec<AttrId>,
    /// The incremental skyline (or sky band) of the retrieved set.
    index: IncrementalSkyline,
    /// Ids of every retrieved tuple (response tuples repeat across
    /// queries; each id is indexed once).
    ids: HashSet<TupleId>,
    /// Every distinct retrieved tuple, in retrieval order, aliasing the
    /// database store.
    retrieved: Vec<Arc<Tuple>>,
    /// `postings[attr][value]` = positions in `retrieved` (ascending) of
    /// the tuples whose value on `attr` is exactly `value` — one dense
    /// bucket table per attribute of the schema (values live in small
    /// rank-space domains, so direct indexing beats any tree/hash map),
    /// sized on first ingest and grown to the largest value seen.
    postings: Vec<Vec<Vec<u32>>>,
    trace: Vec<TracePoint>,
}

impl KnowledgeBase {
    /// Creates a knowledge base that evaluates dominance on `attrs`.
    pub fn new(attrs: Vec<AttrId>) -> Self {
        KnowledgeBase::with_band(attrs, 1)
    }

    /// Creates a knowledge base maintaining the top-`band` sky band of the
    /// retrieved set (band 1 is the plain skyline).
    pub fn with_band(attrs: Vec<AttrId>, band: usize) -> Self {
        KnowledgeBase {
            index: IncrementalSkyline::with_band(attrs.clone(), band),
            attrs,
            ids: HashSet::new(),
            retrieved: Vec::new(),
            postings: Vec::new(),
            trace: Vec::new(),
        }
    }

    /// Ingests newly returned tuples: deduplicates by id, shares the `Arc`
    /// handles (no deep clone), updates the posting lists and the
    /// incremental skyline.
    ///
    /// The whole batch reaches the incremental index through
    /// [`IncrementalSkyline::insert_batch`], which pre-sorts it into
    /// monotone-key order so dominated tuples reject on an early-exiting
    /// scan instead of paying a structural insert — the final skyline state
    /// is identical to one-at-a-time insertion.
    pub fn ingest(&mut self, tuples: &[Arc<Tuple>]) {
        let mut fresh: Vec<Arc<Tuple>> = Vec::new();
        for t in tuples {
            if !self.ids.insert(t.id) {
                continue;
            }
            if self.postings.is_empty() {
                self.postings = vec![Vec::new(); t.arity()];
            }
            let pos = self.retrieved.len() as u32;
            for (attr, &v) in t.values.iter().enumerate() {
                let buckets = &mut self.postings[attr];
                if buckets.len() <= v as usize {
                    buckets.resize(v as usize + 1, Vec::new());
                }
                buckets[v as usize].push(pos);
            }
            self.retrieved.push(Arc::clone(t));
            fresh.push(Arc::clone(t));
        }
        self.index.insert_batch(fresh);
    }

    /// Test convenience: ingests owned tuples by wrapping them in fresh
    /// `Arc`s.
    pub fn ingest_owned(&mut self, tuples: Vec<Tuple>) {
        let arcs: Vec<Arc<Tuple>> = tuples.into_iter().map(Arc::new).collect();
        self.ingest(&arcs);
    }

    /// Records a trace point after `queries` issued queries.
    pub fn record(&mut self, queries: u64) {
        self.trace.push(TracePoint {
            queries,
            skyline_found: self.index.skyline_len(),
        });
    }

    /// Number of distinct tuples retrieved so far.
    pub fn retrieved_len(&self) -> usize {
        self.retrieved.len()
    }

    /// The anytime trace recorded so far.
    pub fn trace(&self) -> &[TracePoint] {
        &self.trace
    }

    /// Every distinct retrieved tuple, in retrieval order, borrowing the
    /// shared handles — O(1), unlike the old `retrieved()` which deep-cloned
    /// and re-sorted the whole set on every call.
    pub fn retrieved_snapshot(&self) -> &[Arc<Tuple>] {
        &self.retrieved
    }

    /// Number of current skyline members of the retrieved set.
    pub fn skyline_len(&self) -> usize {
        self.index.skyline_len()
    }

    /// The current skyline of the retrieved set (shared handles, monotone
    /// key order).
    pub fn skyline_tuples(&self) -> Vec<Arc<Tuple>> {
        self.index.skyline().map(Arc::clone).collect()
    }

    /// The top-`level` sky band of the retrieved set, for any level up to
    /// the band this knowledge base was created with — answered from the
    /// incremental index's exact dominator counts, not by an O(n²) pass
    /// over the retrieved set.
    pub fn band_tuples(&self, level: usize) -> Vec<Arc<Tuple>> {
        self.index.band_members(level).map(Arc::clone).collect()
    }

    /// `true` if any retrieved tuple matches `query` — exact for every
    /// query shape.
    ///
    /// Queries whose predicates are all *upper bounds* on the dominance
    /// attributes are downward closed under coordinate-wise ≤, so a
    /// retrieved tuple matches iff some tuple of the current (minimal)
    /// skyline matches — scanning the skyline's rows of dominance values
    /// ([`IncrementalSkyline::any_skyline_within`]) is exact. Every other
    /// shape walks the posting lists of the most selective constrained
    /// attribute; the old collector fell back to scanning the entire
    /// retrieved set for those. The only such shape a machine issues is the
    /// `≥`-rooted box of sky-band domination subspaces; equality and mixed
    /// predicates are answered exactly all the same.
    pub fn any_seen_matches(&self, query: &Query) -> bool {
        if self.retrieved.is_empty() {
            return false;
        }
        let Some(bounds) = self.fold_bounds(query) else {
            return false; // unsatisfiable conjunction matches nothing
        };
        let cons: Vec<(AttrId, Value, Value)> = bounds
            .iter()
            .enumerate()
            .filter(|&(_, &(lo, hi))| lo > 0 || hi < i64::from(Value::MAX))
            .map(|(attr, &(lo, hi))| {
                let hi = hi.min(i64::from(Value::MAX)) as Value;
                (attr, lo as Value, hi)
            })
            .collect();
        if cons.is_empty() {
            return true; // SELECT * matches any retrieved tuple
        }

        let downward_closed = cons
            .iter()
            .all(|&(attr, lo, _)| lo == 0 && self.attrs.contains(&attr));
        if downward_closed {
            return self.index.any_skyline_within(&cons);
        }

        // Broad queries usually hit within the first few retrieved tuples;
        // a short prefix probe resolves those at full-scan speed before any
        // index machinery runs.
        if self
            .retrieved
            .iter()
            .take(8)
            .any(|t| t.within_bounds(&cons))
        {
            return true;
        }

        // Pick the constrained attribute with the fewest candidate tuples;
        // counting walks only the value buckets inside the bound (capped in
        // both candidates seen and buckets visited), and equality pivots
        // resolve with a single bucket lookup. When even the best predicate
        // is broad (no selective entry point), a plain early-exit scan of
        // the retrieved set beats walking posting buckets, so the probe
        // degrades to the old collector's full-scan fallback plus the
        // constant-sized bound-folding preamble above (tens of ns — see
        // the any_seen_matches_ge_box row of BENCH_knowledge.json).
        let bucket_range = |&(attr, lo, hi): &(AttrId, Value, Value)| -> &[Vec<u32>] {
            let buckets = &self.postings[attr];
            let lo = (lo as usize).min(buckets.len());
            let hi = (hi as usize).saturating_add(1).min(buckets.len());
            &buckets[lo..hi]
        };
        let cutoff = (self.retrieved.len() / 4).max(16);
        let mut best: Option<(usize, (AttrId, Value, Value))> = None;
        for &c in &cons {
            let cap = best.map_or(cutoff, |(count, _)| count.min(cutoff));
            let mut count = 0usize;
            for (visited, bucket) in bucket_range(&c).iter().enumerate() {
                count += bucket.len();
                if visited >= 256 {
                    // Too wide a value range to size cheaply: treat the
                    // predicate as unselective rather than keep walking.
                    count = count.max(cap);
                }
                if count >= cap {
                    break;
                }
            }
            if best.is_none_or(|(b, _)| count < b) {
                best = Some((count, c));
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "local invariant: the candidate list is built non-empty two lines above in the same scope"
        )]
        let (count, best) = best.expect("cons is non-empty");
        if count >= cutoff {
            return self.retrieved.iter().any(|t| t.within_bounds(&cons));
        }
        bucket_range(&best)
            .iter()
            .flatten()
            .any(|&pos| self.retrieved[pos as usize].within_bounds(&cons))
    }

    /// The smallest-key skyline tuple dominating `t`, if any — a
    /// deterministic answer (the old BNL collector returned whichever
    /// dominator its insertion order happened to place first).
    pub fn dominated_by_skyline(&self, t: &Tuple) -> Option<&Arc<Tuple>> {
        self.index.first_skyline_dominator(t)
    }

    /// Folds the query's predicates into one closed `[lo, hi]` interval per
    /// attribute; `None` if the conjunction is unsatisfiable over `u32`
    /// values.
    fn fold_bounds(&self, query: &Query) -> Option<Bounds> {
        let arity = self.postings.len();
        let mut bounds: Bounds = vec![(0, i64::from(Value::MAX)); arity];
        for p in query.predicates() {
            if p.attr >= arity {
                // No retrieved tuple carries this attribute (the database
                // would have rejected the query); nothing can match.
                return None;
            }
            let (lo, hi) = &mut bounds[p.attr];
            let v = i64::from(p.value);
            match p.op {
                CmpOp::Lt => *hi = (*hi).min(v - 1),
                CmpOp::Le => *hi = (*hi).min(v),
                CmpOp::Eq => {
                    *lo = (*lo).max(v);
                    *hi = (*hi).min(v);
                }
                CmpOp::Ge => *lo = (*lo).max(v),
                CmpOp::Gt => *lo = (*lo).max(v + 1),
            }
            if *lo > *hi {
                return None;
            }
        }
        Some(bounds)
    }

    /// Appends the knowledge base to `out` in the binary checkpoint format:
    /// the dominance attributes, the band, the retrieval-ordered tuple list
    /// and the anytime trace. The posting lists and the incremental index
    /// are *not* stored — [`KnowledgeBase::decode`] rebuilds them by
    /// replaying the ingest, which is deterministic in retrieval order.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        codec::put_usize_slice(out, &self.attrs);
        codec::put_usize(out, self.index.band());
        codec::put_usize(out, self.retrieved.len());
        for t in &self.retrieved {
            codec::put_tuple(out, t);
        }
        codec::put_usize(out, self.trace.len());
        for p in &self.trace {
            codec::put_u64(out, p.queries);
            codec::put_usize(out, p.skyline_found);
        }
    }

    /// Restores a knowledge base from the binary checkpoint format by
    /// replaying the ingest of the stored tuple list, then reattaching the
    /// recorded trace. Because ingest deduplicates by id and builds the
    /// posting lists and incremental index in retrieval order, the restored
    /// state is identical to the encoded one (re-encoding reproduces the
    /// same bytes).
    ///
    /// A sealed payload is untrusted: a band outside `1..=u32::MAX`, or a
    /// tuple whose arity differs from the first tuple's or lacks a
    /// dominance attribute, is rejected with [`CodecError::Invalid`]
    /// (no encoder writes one, and replaying it would panic).
    ///
    /// [`CodecError::Invalid`]: codec::CodecError::Invalid
    pub(crate) fn decode(r: &mut codec::Reader<'_>) -> Result<Self, codec::CodecError> {
        let attrs = codec::read_usize_vec(r)?;
        let band = r.usize()?;
        if band == 0 || u32::try_from(band).is_err() {
            return Err(codec::CodecError::Invalid);
        }
        let mut kb = KnowledgeBase::with_band(attrs, band);
        let n = r.usize()?;
        let mut arity = None;
        for _ in 0..n {
            let t = codec::read_tuple(r)?;
            if *arity.get_or_insert(t.arity()) != t.arity()
                || kb.attrs.iter().any(|&a| a >= t.arity())
            {
                return Err(codec::CodecError::Invalid);
            }
            kb.ingest(std::slice::from_ref(&t));
        }
        let n = r.usize()?;
        let mut trace = Vec::new();
        for _ in 0..n {
            let queries = r.u64()?;
            let skyline_found = r.usize()?;
            trace.push(TracePoint {
                queries,
                skyline_found,
            });
        }
        kb.trace = trace;
        Ok(kb)
    }

    /// Consumes the knowledge base into a [`DiscoveryResult`], sharing
    /// every tuple handle with the database store.
    pub fn finish(self, query_cost: u64, complete: bool) -> DiscoveryResult {
        let mut retrieved = self.retrieved;
        retrieved.sort_by_key(|t| t.id);
        let mut skyline: Vec<Arc<Tuple>> = self.index.skyline().map(Arc::clone).collect();
        skyline.sort_by_key(|t| t.id);
        DiscoveryResult {
            skyline,
            retrieved,
            query_cost,
            trace: self.trace,
            complete,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyweb_hidden_db::Predicate;

    #[test]
    fn maintains_skyline_of_seen() {
        let mut kb = KnowledgeBase::new(vec![0, 1]);
        kb.ingest_owned(vec![Tuple::new(1, vec![4, 4])]);
        assert_eq!(kb.skyline_len(), 1);
        kb.ingest_owned(vec![Tuple::new(3, vec![3, 2])]);
        // (3,2) dominates (4,4).
        assert_eq!(kb.skyline_len(), 1);
        assert_eq!(kb.skyline_tuples()[0].id, 3);
        kb.ingest_owned(vec![Tuple::new(0, vec![5, 1]), Tuple::new(3, vec![3, 2])]);
        assert_eq!(kb.skyline_len(), 2);
        assert_eq!(kb.retrieved_len(), 3);
    }

    #[test]
    fn trace_and_finish() {
        let mut kb = KnowledgeBase::new(vec![0, 1]);
        kb.record(1);
        kb.ingest_owned(vec![Tuple::new(0, vec![5, 1])]);
        kb.record(2);
        let result = kb.finish(2, true);
        assert_eq!(result.trace.len(), 2);
        assert_eq!(result.trace[0].skyline_found, 0);
        assert_eq!(result.trace[1].skyline_found, 1);
        assert_eq!(result.query_cost, 2);
        assert!(result.complete);
        assert!((result.queries_per_skyline() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn matching_and_domination_helpers() {
        let mut kb = KnowledgeBase::new(vec![0, 1]);
        kb.ingest_owned(vec![Tuple::new(3, vec![3, 2])]);
        assert!(kb.any_seen_matches(&Query::new(vec![Predicate::lt(0, 4)])));
        assert!(!kb.any_seen_matches(&Query::new(vec![Predicate::lt(0, 2)])));
        assert!(kb
            .dominated_by_skyline(&Tuple::new(9, vec![4, 4]))
            .is_some());
        assert!(kb
            .dominated_by_skyline(&Tuple::new(9, vec![1, 1]))
            .is_none());
    }

    #[test]
    fn any_seen_matches_covers_non_downward_closed_shapes() {
        let mut kb = KnowledgeBase::new(vec![0, 1, 2]);
        kb.ingest_owned(vec![
            Tuple::new(0, vec![2, 5, 1]),
            Tuple::new(1, vec![4, 2, 0]),
            Tuple::new(2, vec![7, 7, 2]),
        ]);
        // Equality predicates: no machine issues them as probes (MQ's point
        // phase walks SQ trees, which never probe), but they are exact.
        assert!(kb.any_seen_matches(&Query::new(vec![Predicate::eq(2, 0)])));
        assert!(!kb.any_seen_matches(&Query::new(vec![Predicate::eq(2, 3)])));
        // Equality conjoined with a range.
        assert!(kb.any_seen_matches(&Query::new(vec![Predicate::eq(2, 2), Predicate::ge(0, 6),])));
        assert!(!kb.any_seen_matches(&Query::new(vec![Predicate::eq(2, 2), Predicate::lt(0, 6),])));
        // ≥-rooted box (sky-band domination subspaces).
        assert!(kb.any_seen_matches(&Query::new(vec![Predicate::ge(0, 4), Predicate::ge(1, 2),])));
        assert!(!kb.any_seen_matches(&Query::new(vec![Predicate::ge(0, 8), Predicate::ge(1, 2),])));
        // Unsatisfiable conjunction.
        assert!(!kb.any_seen_matches(&Query::new(vec![Predicate::lt(0, 3), Predicate::gt(0, 5),])));
        // SELECT *.
        assert!(kb.any_seen_matches(&Query::select_all()));
    }

    #[test]
    fn band_levels_are_exact() {
        let mut kb = KnowledgeBase::with_band(vec![0, 1], 3);
        // Chain (i, i): tuple i has exactly i dominators.
        kb.ingest_owned(
            (0..6)
                .map(|i| Tuple::new(i, vec![i as u32, i as u32]))
                .collect(),
        );
        assert_eq!(kb.band_tuples(1).len(), 1);
        assert_eq!(kb.band_tuples(2).len(), 2);
        assert_eq!(kb.band_tuples(3).len(), 3);
        assert_eq!(kb.skyline_len(), 1);
    }

    #[test]
    fn ingest_deduplicates_and_aliases() {
        let mut kb = KnowledgeBase::new(vec![0]);
        let t = Arc::new(Tuple::new(7, vec![3]));
        kb.ingest(&[Arc::clone(&t), Arc::clone(&t)]);
        kb.ingest(&[Arc::clone(&t)]);
        assert_eq!(kb.retrieved_len(), 1);
        assert!(Arc::ptr_eq(&kb.retrieved_snapshot()[0], &t));
    }
}
