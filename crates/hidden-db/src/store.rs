//! The unified, immutable, `Arc`-backed tuple store.
//!
//! Earlier revisions of the simulator kept the tuples **twice**: a plain
//! `Vec<Tuple>` for the oracle/scan path and a lazily built `Vec<Arc<Tuple>>`
//! from which indexed responses were cloned. [`TupleStore`] replaces both
//! with a single `Arc<[Arc<Tuple>]>`:
//!
//! * the **index builder** iterates the store by reference
//!   ([`TupleStore::iter`]), and the engine's **ranker fallback** hands the
//!   ranker its matching tuples by reference too,
//! * **responses** bump a reference count ([`TupleStore::share`]) instead of
//!   deep-cloning a tuple (on a RAM store, or a segment-backed one with the
//!   unbounded sticky cache),
//! * **oracle consumers** (ground-truth skylines, workload analysis) borrow
//!   the same allocation through [`crate::HiddenDb::oracle_tuples`],
//!
//! halving the resident memory of an indexed database. The store itself is
//! a handle: cloning it is one atomic increment, so it can be shared across
//! threads and sessions freely.
//!
//! A store can also be **lazily backed by a persisted columnar segment**
//! ([`crate::SegmentReader`]): tuples materialize per chunk the first time
//! a query response touches them, so opening a 10M-tuple segment costs
//! O(footer) and resident memory tracks the *touched* working set, not the
//! dataset. The public API is unchanged — `share`/`get`/indexing hydrate on
//! demand (panicking on storage faults; the engine builds its answers
//! through its fallible column cursors instead), and
//! [`TupleStore::as_slice`]/[`TupleStore::iter`] hydrate everything once
//! (the full-scan escape hatch for oracle consumers and the ranker
//! fallback). Either way the reader keeps each column chunk as
//! its packed block and builds tuples from those blocks. With the
//! unbounded sticky cache, it builds a chunk of tuples at a time and keeps
//! them, so clones of a lazy store share every materialized tuple. Under a
//! cache budget, each share builds a fresh tuple from the blocks instead,
//! and only the full-hydration snapshot is shared.

use std::fmt;
use std::ops::Index;
use std::sync::Arc;

use crate::segment::{SegmentError, SegmentReader};
use crate::Tuple;

/// Where a [`TupleStore`]'s tuples live.
#[derive(Clone)]
enum Repr {
    /// Fully materialized in RAM.
    Ram(Arc<[Arc<Tuple>]>),
    /// Served lazily from a persisted columnar segment; hydrated chunks are
    /// cached inside the (shared) reader.
    Lazy(Arc<SegmentReader>),
}

/// An immutable tuple store shared (via `Arc`) by the query index, the
/// ranker fallback and every [`crate::QueryResponse`].
#[derive(Clone)]
pub struct TupleStore {
    repr: Repr,
}

impl TupleStore {
    /// Builds a store from owned tuples. Each tuple is placed behind its own
    /// `Arc` exactly once; no code path copies it again afterwards.
    pub fn new(tuples: Vec<Tuple>) -> Self {
        TupleStore {
            repr: Repr::Ram(tuples.into_iter().map(Arc::new).collect()),
        }
    }

    /// Wraps an opened segment as a lazily-hydrating store.
    pub(crate) fn from_segment(reader: Arc<SegmentReader>) -> Self {
        TupleStore {
            repr: Repr::Lazy(reader),
        }
    }

    /// The backing segment reader, if this store is segment-backed.
    pub(crate) fn segment_reader(&self) -> Option<&Arc<SegmentReader>> {
        match &self.repr {
            Repr::Ram(_) => None,
            Repr::Lazy(reader) => Some(reader),
        }
    }

    /// Number of tuples in the store.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Ram(tuples) => tuples.len(),
            Repr::Lazy(reader) => reader.n(),
        }
    }

    /// `true` if the store holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrows the tuple at `idx`, or `None` if out of range. On a
    /// segment-backed store this hydrates the **entire** store once (the
    /// bounded chunk cache may evict individual chunks, so a plain borrow
    /// can only come from the sticky full-hydration snapshot) —
    /// [`TupleStore::share`] serves owned handles one tuple at a time
    /// instead.
    ///
    /// # Panics
    /// Panics if a segment-backed chunk fails to load (I/O error or
    /// corrupted bytes) — use the engine-facing fallible accessors to
    /// surface storage faults as errors instead.
    pub fn get(&self, idx: usize) -> Option<&Tuple> {
        match &self.repr {
            Repr::Ram(tuples) => tuples.get(idx).map(Arc::as_ref),
            Repr::Lazy(reader) => expect_loaded(reader.hydrate_all())
                .get(idx)
                .map(Arc::as_ref),
        }
    }

    /// Shares the tuple at `idx`, the way query responses share theirs. On
    /// a RAM store, and on a segment-backed one with the sticky cache, it
    /// is one reference-count bump and no deep clone (plus, on the segment,
    /// a one-time build of the tuple's chunk from its packed column
    /// blocks). Under a cache budget it builds the one tuple from its
    /// column values, read in place from the packed blocks.
    ///
    /// # Panics
    /// Panics if `idx` is out of range, or if a segment-backed chunk fails
    /// to load.
    pub fn share(&self, idx: usize) -> Arc<Tuple> {
        match &self.repr {
            Repr::Ram(tuples) => Arc::clone(&tuples[idx]),
            Repr::Lazy(reader) => expect_loaded(reader.tuple_at(idx)),
        }
    }

    /// Materializes every tuple of a segment-backed store (no-op on RAM),
    /// surfacing storage faults. After this succeeds, every infallible
    /// accessor is guaranteed panic-free.
    pub(crate) fn try_hydrate_all(&self) -> Result<(), SegmentError> {
        match &self.repr {
            Repr::Ram(_) => Ok(()),
            Repr::Lazy(reader) => reader.hydrate_all().map(|_| ()),
        }
    }

    /// The underlying shared slice, for callers that need positional access
    /// to the `Arc` handles themselves. On a segment-backed store this
    /// hydrates the **entire** store once (cached in the shared reader) —
    /// it is the full-scan escape hatch, not a lazy path.
    ///
    /// # Panics
    /// Panics if a segment-backed chunk fails to load.
    pub fn as_slice(&self) -> &[Arc<Tuple>] {
        match &self.repr {
            Repr::Ram(tuples) => tuples,
            Repr::Lazy(reader) => expect_loaded(reader.hydrate_all()),
        }
    }

    /// Iterates the tuples in store order (fully hydrating a segment-backed
    /// store, like [`TupleStore::as_slice`]).
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &Tuple> {
        self.as_slice().iter().map(Arc::as_ref)
    }

    /// Deep-copies the store into owned tuples (test/analysis convenience —
    /// the hot paths never call this).
    pub fn to_vec(&self) -> Vec<Tuple> {
        self.iter().cloned().collect()
    }
}

/// Unwraps a lazy-hydration result on the infallible (panicking) API.
#[expect(
    clippy::panic,
    reason = "expect_loaded is the documented panicking facade over lazy hydration; callers needing errors use the try_ accessors"
)]
fn expect_loaded<T>(res: Result<T, SegmentError>) -> T {
    res.unwrap_or_else(|e| panic!("segment-backed tuple store failed to hydrate: {e}"))
}

impl Index<usize> for TupleStore {
    type Output = Tuple;

    fn index(&self, idx: usize) -> &Tuple {
        match &self.repr {
            Repr::Ram(tuples) => &tuples[idx],
            Repr::Lazy(reader) => expect_loaded(reader.hydrate_all())[idx].as_ref(),
        }
    }
}

impl fmt::Debug for TupleStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TupleStore")
            .field("len", &self.len())
            .field(
                "backing",
                &match &self.repr {
                    Repr::Ram(_) => "ram",
                    Repr::Lazy(_) => "segment",
                },
            )
            .finish()
    }
}

impl From<Vec<Tuple>> for TupleStore {
    fn from(tuples: Vec<Tuple>) -> Self {
        TupleStore::new(tuples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> TupleStore {
        TupleStore::new(vec![
            Tuple::new(0, vec![1, 2]),
            Tuple::new(1, vec![3, 4]),
            Tuple::new(2, vec![5, 6]),
        ])
    }

    #[test]
    fn accessors() {
        let s = store();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s[1].id, 1);
        assert_eq!(s.get(2).map(|t| t.id), Some(2));
        assert!(s.get(3).is_none());
        assert_eq!(s.iter().map(|t| t.id).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(s.to_vec().len(), 3);
    }

    #[test]
    fn share_aliases_the_store() {
        let s = store();
        let shared = s.share(1);
        assert!(Arc::ptr_eq(&shared, &s.as_slice()[1]));
    }

    #[test]
    fn clone_is_a_handle_not_a_copy() {
        let s = store();
        let c = s.clone();
        for (a, b) in s.as_slice().iter().zip(c.as_slice()) {
            assert!(Arc::ptr_eq(a, b));
        }
    }
}
