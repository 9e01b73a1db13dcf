//! Property-based tests of the local skyline / sky-band algorithms.

use proptest::prelude::*;

use skyweb_hidden_db::{dominates_on, Tuple};
use skyweb_skyline::incremental::{incremental_skyband_on, incremental_skyline_on};
use skyweb_skyline::{
    bnl_skyline_on, dominance_counts, is_skyline_member, same_ids, sfs_skyline_on, skyband_on,
};

fn tuples_strategy() -> impl Strategy<Value = Vec<Tuple>> {
    (1usize..=4, 0usize..=60).prop_flat_map(|(m, n)| {
        prop::collection::vec(prop::collection::vec(0u32..20, m), n).prop_map(|rows| {
            rows.into_iter()
                .enumerate()
                .map(|(i, v)| Tuple::new(i as u64, v))
                .collect()
        })
    })
}

fn attrs(tuples: &[Tuple]) -> Vec<usize> {
    (0..tuples.first().map_or(0, Tuple::arity)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    /// BNL, SFS and the incremental skyline always agree.
    #[test]
    fn all_skyline_algorithms_agree(tuples in tuples_strategy()) {
        let a = attrs(&tuples);
        let bnl = bnl_skyline_on(&tuples, &a);
        let sfs = sfs_skyline_on(&tuples, &a);
        let incremental = incremental_skyline_on(&tuples, &a);
        prop_assert!(same_ids(&bnl, &sfs));
        prop_assert!(same_ids(&bnl, &incremental));
    }

    /// The skyline contains exactly the non-dominated tuples.
    #[test]
    fn skyline_members_are_exactly_the_non_dominated(tuples in tuples_strategy()) {
        let a = attrs(&tuples);
        let sky = bnl_skyline_on(&tuples, &a);
        let sky_ids: Vec<u64> = sky.iter().map(|t| t.id).collect();
        for t in &tuples {
            let dominated = tuples
                .iter()
                .any(|u| u.id != t.id && dominates_on(u, t, &a));
            prop_assert_eq!(!dominated, sky_ids.contains(&t.id));
            prop_assert_eq!(!dominated, is_skyline_member(t, &tuples, &a));
        }
    }

    /// No skyline member dominates another skyline member.
    #[test]
    fn skyline_is_an_antichain(tuples in tuples_strategy()) {
        let a = attrs(&tuples);
        let sky = bnl_skyline_on(&tuples, &a);
        for s in &sky {
            for t in &sky {
                prop_assert!(!(s.id != t.id && dominates_on(s, t, &a)));
            }
        }
    }

    /// The K-sky-band grows with K, starts at the skyline, and eventually
    /// covers the whole database.
    #[test]
    fn skyband_is_monotone_in_k(tuples in tuples_strategy()) {
        let a = attrs(&tuples);
        let sky = bnl_skyline_on(&tuples, &a);
        let mut prev_len = 0usize;
        for k in 1..=4usize {
            let band = skyband_on(&tuples, &a, k);
            prop_assert!(band.len() >= prev_len);
            if k == 1 {
                prop_assert!(same_ids(&band, &sky));
            }
            prev_len = band.len();
        }
        let everything = skyband_on(&tuples, &a, tuples.len() + 1);
        prop_assert_eq!(everything.len(), tuples.len());
    }

    /// A tuple is in the K-band iff its dominance count is below K, and the
    /// incremental sky band holds the same tuples as the batch one.
    #[test]
    fn skyband_matches_dominance_counts(tuples in tuples_strategy(), k in 1usize..4) {
        let a = attrs(&tuples);
        let counts = dominance_counts(&tuples, &a);
        let band = skyband_on(&tuples, &a, k);
        let band_ids: Vec<u64> = band.iter().map(|t| t.id).collect();
        for (t, c) in tuples.iter().zip(counts) {
            prop_assert_eq!(c < k, band_ids.contains(&t.id));
        }
        prop_assert!(same_ids(&band, &incremental_skyband_on(&tuples, &a, k)));
    }
}
