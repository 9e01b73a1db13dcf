//! Differential property tests of the dominance-driven rankers after the
//! incremental-peel rewrite:
//!
//! * [`WorstCaseRanker`] must reproduce, *exactly*, the output of the old
//!   O(rounds · n²) recompute-the-minimal-set-per-round reference — the
//!   adversarial pick (largest `(sum, id)` among the minimal set) is
//!   deterministic, so old and new must agree tuple for tuple.
//! * Every selection must remain domination-consistent and be a prefix of a
//!   linear extension of the dominance order (each emitted tuple is minimal
//!   among the not-yet-emitted matching tuples).

use proptest::prelude::*;

use skyweb_hidden_db::{
    dominates_on, is_domination_consistent, InterfaceType, RandomSkylineRanker, Ranker, Schema,
    SchemaBuilder, Tuple, WorstCaseRanker,
};

fn schema(m: usize) -> Schema {
    let mut b = SchemaBuilder::new();
    for i in 0..m {
        b = b.ranking(format!("a{i}"), 16, InterfaceType::Rq);
    }
    b.build()
}

/// The pre-refactor WorstCaseRanker, kept verbatim as the reference.
fn old_worst_case_select<'a>(matching: &[&'a Tuple], k: usize, schema: &Schema) -> Vec<&'a Tuple> {
    let attrs = schema.ranking_attrs();
    let minimal_indices = |candidates: &[&Tuple]| -> Vec<usize> {
        let mut minimal = Vec::new();
        'outer: for (i, &t) in candidates.iter().enumerate() {
            for (j, &u) in candidates.iter().enumerate() {
                if i != j && dominates_on(u, t, attrs) {
                    continue 'outer;
                }
            }
            minimal.push(i);
        }
        minimal
    };
    let mut remaining: Vec<&'a Tuple> = matching.to_vec();
    let mut out = Vec::with_capacity(k.min(remaining.len()));
    while out.len() < k && !remaining.is_empty() {
        let minimal = minimal_indices(&remaining);
        let pick = minimal
            .into_iter()
            .max_by_key(|&i| {
                let sum: u64 = attrs
                    .iter()
                    .map(|&a| u64::from(remaining[i].values[a]))
                    .sum();
                (sum, remaining[i].id)
            })
            .expect("minimal set of a non-empty candidate set is non-empty");
        out.push(remaining.swap_remove(pick));
    }
    out
}

#[derive(Debug, Clone)]
struct RankWorkload {
    m: usize,
    rows: Vec<Vec<u32>>,
    subset: Vec<u8>,
    k: usize,
}

fn rank_workload() -> impl Strategy<Value = RankWorkload> {
    (2usize..=4, 1usize..=40).prop_flat_map(|(m, n)| {
        let rows = prop::collection::vec(prop::collection::vec(0u32..16, m), n);
        let subset = prop::collection::vec(0u8..2, n);
        let k = 1usize..=8;
        (rows, subset, k).prop_map(move |(rows, subset, k)| RankWorkload { m, rows, subset, k })
    })
}

fn tuples_of(w: &RankWorkload) -> Vec<Tuple> {
    w.rows
        .iter()
        .enumerate()
        .map(|(i, v)| Tuple::new(i as u64, v.clone()))
        .collect()
}

/// The workload's matching set: the tuples its subset mask keeps, in
/// ascending id order.
fn matching_of<'a>(w: &RankWorkload, tuples: &'a [Tuple]) -> Vec<&'a Tuple> {
    tuples
        .iter()
        .zip(&w.subset)
        .filter(|&(_, &keep)| keep == 1)
        .map(|(t, _)| t)
        .collect()
}

/// Every emitted tuple must be minimal among the matching tuples not yet
/// emitted — the linear-extension property both rankers promise.
fn assert_linear_extension(selected: &[&Tuple], matching: &[&Tuple], schema: &Schema) {
    let attrs = schema.ranking_attrs();
    let mut remaining: Vec<&Tuple> = matching.to_vec();
    for &t in selected {
        for &u in &remaining {
            assert!(
                !dominates_on(u, t, attrs),
                "emitted tuple {} while {} still dominated it",
                t.id,
                u.id
            );
        }
        remaining.retain(|u| u.id != t.id);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        max_shrink_iters: 300,
        .. ProptestConfig::default()
    })]

    /// The rewritten WorstCaseRanker reproduces the old quadratic reference
    /// exactly, on every subset and k.
    #[test]
    fn worst_case_ranker_matches_the_old_reference(w in rank_workload()) {
        let s = schema(w.m);
        let tuples = tuples_of(&w);
        let matching = matching_of(&w, &tuples);
        let old: Vec<u64> = old_worst_case_select(&matching, w.k, &s)
            .iter()
            .map(|t| t.id)
            .collect();
        let new: Vec<u64> = WorstCaseRanker
            .select_top_k(&matching, w.k, &s)
            .iter()
            .map(|t| t.id)
            .collect();
        prop_assert_eq!(&new, &old);
    }

    /// The random-skyline selection is a linear-extension prefix and
    /// domination-consistent.
    #[test]
    fn random_skyline_ranker_is_a_linear_extension(w in rank_workload()) {
        let s = schema(w.m);
        let tuples = tuples_of(&w);
        let matching = matching_of(&w, &tuples);
        let selected = RandomSkylineRanker::new(99).select_top_k(&matching, w.k, &s);
        assert_linear_extension(&selected, &matching, &s);
        prop_assert!(is_domination_consistent(&selected, &matching, &s));
    }

    /// The worst-case selection is also a linear-extension prefix and
    /// domination-consistent (sanity net independent of the old reference).
    #[test]
    fn worst_case_ranker_is_a_linear_extension(w in rank_workload()) {
        let s = schema(w.m);
        let tuples = tuples_of(&w);
        let matching = matching_of(&w, &tuples);
        let selected = WorstCaseRanker.select_top_k(&matching, w.k, &s);
        assert_linear_extension(&selected, &matching, &s);
        prop_assert!(is_domination_consistent(&selected, &matching, &s));
    }
}
