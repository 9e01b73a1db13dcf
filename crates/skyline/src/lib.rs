//! # skyweb-skyline
//!
//! Local (full-access) skyline and K-sky-band computation.
//!
//! These are the classical algorithms one uses when the database is *not*
//! hidden — they require access to every tuple. Within the `skyweb` project
//! they serve two purposes:
//!
//! 1. **Ground truth** for tests: discovery algorithms in `skyweb-core` must
//!    return exactly the skyline these algorithms compute.
//! 2. **Post-processing of the BASELINE**: the crawling baseline of the
//!    paper first downloads every tuple through the web interface and then
//!    extracts the skyline locally with one of these algorithms.
//!
//! Two batch skyline algorithms are provided — block-nested-loop
//! ([`bnl_skyline`]) and sort-filter-skyline ([`sfs_skyline`]) — along with a
//! K-sky-band operator ([`skyband`]). All of them operate on the ranking
//! attributes of a [`skyweb_hidden_db::Schema`], or on an explicit attribute
//! subset (`*_on` variants). The [`incremental`] module computes the same
//! sets one tuple at a time ([`incremental::incremental_skyline_on`],
//! [`incremental::incremental_skyband_on`]).
//!
//! ```
//! use skyweb_hidden_db::{InterfaceType, SchemaBuilder, Tuple};
//! use skyweb_skyline::{bnl_skyline, sfs_skyline};
//!
//! let schema = SchemaBuilder::new()
//!     .ranking("x", 10, InterfaceType::Rq)
//!     .ranking("y", 10, InterfaceType::Rq)
//!     .build();
//! let tuples = vec![
//!     Tuple::new(0, vec![5, 1]),
//!     Tuple::new(1, vec![4, 4]),
//!     Tuple::new(2, vec![1, 3]),
//!     Tuple::new(3, vec![3, 2]),
//! ];
//! let sky = bnl_skyline(&tuples, &schema);
//! assert_eq!(sky.len(), 3); // tuple 1 is dominated by tuple 3
//! assert_eq!(sfs_skyline(&tuples, &schema).len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bnl;
pub mod incremental;
mod sfs;
mod skyband;

pub use bnl::{bnl_skyline, bnl_skyline_on};
pub use sfs::{sfs_skyline, sfs_skyline_on};
pub use skyband::{dominance_counts, skyband, skyband_on};

use std::borrow::Borrow;

use skyweb_hidden_db::{AttrId, Tuple};

/// Sorts a skyline (or any tuple list) by tuple id, producing a canonical
/// order that makes result sets comparable across algorithms.
pub fn canonicalize(mut tuples: Vec<Tuple>) -> Vec<Tuple> {
    tuples.sort_by_key(|t| t.id);
    tuples.dedup_by_key(|t| t.id);
    tuples
}

/// Returns `true` if the two tuple sets contain exactly the same tuple ids.
///
/// Generic over the tuple handles on both sides (`&[Tuple]`,
/// `&[Arc<Tuple>]`, ...), so discovery results — which share their tuples
/// with the database store — compare directly against owned ground truth.
pub fn same_ids<A: Borrow<Tuple>, B: Borrow<Tuple>>(a: &[A], b: &[B]) -> bool {
    let mut ia: Vec<u64> = a.iter().map(|t| t.borrow().id).collect();
    let mut ib: Vec<u64> = b.iter().map(|t| t.borrow().id).collect();
    ia.sort_unstable();
    ia.dedup();
    ib.sort_unstable();
    ib.dedup();
    ia == ib
}

/// Checks whether `candidate` is a skyline tuple of `tuples` on `attrs`,
/// i.e. no tuple (other than itself) dominates it.
pub fn is_skyline_member<B: Borrow<Tuple>>(
    candidate: &Tuple,
    tuples: &[B],
    attrs: &[AttrId],
) -> bool {
    !tuples
        .iter()
        .map(Borrow::borrow)
        .any(|t| t.id != candidate.id && skyweb_hidden_db::dominates_on(t, candidate, attrs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyweb_hidden_db::{InterfaceType, SchemaBuilder};

    #[test]
    fn canonicalize_sorts_and_dedups() {
        let tuples = vec![
            Tuple::new(3, vec![1]),
            Tuple::new(1, vec![2]),
            Tuple::new(3, vec![1]),
        ];
        let canon = canonicalize(tuples);
        assert_eq!(canon.iter().map(|t| t.id).collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn same_ids_ignores_order_and_duplicates() {
        let a = vec![Tuple::new(1, vec![0]), Tuple::new(2, vec![0])];
        let b = vec![
            Tuple::new(2, vec![0]),
            Tuple::new(1, vec![0]),
            Tuple::new(2, vec![0]),
        ];
        assert!(same_ids(&a, &b));
        let c = vec![Tuple::new(3, vec![0])];
        assert!(!same_ids(&a, &c));
    }

    #[test]
    fn skyline_membership_check() {
        let schema = SchemaBuilder::new()
            .ranking("x", 10, InterfaceType::Rq)
            .ranking("y", 10, InterfaceType::Rq)
            .build();
        let tuples = vec![Tuple::new(0, vec![1, 1]), Tuple::new(1, vec![2, 2])];
        assert!(is_skyline_member(
            &tuples[0],
            &tuples,
            schema.ranking_attrs()
        ));
        assert!(!is_skyline_member(
            &tuples[1],
            &tuples,
            schema.ranking_attrs()
        ));
    }
}
