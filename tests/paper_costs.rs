//! The cost analysis of SQ-DB-SKY (Section 3.2 of the paper) as assertions,
//! on the two ranking models the analysis is stated for. The average case
//! returns a uniformly random skyline tuple of each query's matching set
//! ([`RandomSkylineRanker`]); the worst case returns an adversarial one
//! ([`WorstCaseRanker`]). Neither ranker has a total order, so every query
//! here goes through the engine's fallback selection.

use proptest::prelude::*;

use skyweb::core::analysis::{sq_average_case_cost, sq_worst_case_bound};
use skyweb::core::{Discoverer, SqDbSky};
use skyweb::hidden_db::{
    HiddenDb, InterfaceType, RandomSkylineRanker, SchemaBuilder, Tuple, WorstCaseRanker,
};
use skyweb::skyline::bnl_skyline;

/// Eq 4, exact at m = 2. Every tuple of the database is a skyline tuple
/// (attribute 0 = i, attribute 1 = s − 1 − i), and the interface returns
/// one tuple per query. Whichever skyline tuple the random ranker draws,
/// SQ-DB-SKY then costs `E(C_s)` = 2s + 1 queries: the paper's 2s plus the
/// root `SELECT *`.
///
/// Eq 4 charges the queries that fold to an empty box from the schema
/// alone. The tuple (0, s − 1) is a skyline tuple. As a pivot it makes
/// SQ-DB-SKY append `A0 < 0`, and 2s + 1 counts that child; (s − 1, 0)
/// does the same with `A1 < 0`. So a change that skips such queries
/// departs from the paper's cost, and the access log shows it first: each
/// run logs exactly these two, each returning nothing. At k = 1 an empty
/// answer means that nothing matched.
#[test]
fn sq_cost_is_exactly_eq4_at_m2_under_the_random_skyline_ranker() {
    for s in [2usize, 4, 8, 12] {
        let expected = sq_average_case_cost(2, s);
        for seed in 0..50 {
            let schema = SchemaBuilder::new()
                .ranking("a0", 16, InterfaceType::Sq)
                .ranking("a1", 16, InterfaceType::Sq)
                .build();
            let tuples = (0..s)
                .map(|i| Tuple::new(i as u64, vec![i as u32, (s - 1 - i) as u32]))
                .collect();
            let db = HiddenDb::new(schema, tuples, Box::new(RandomSkylineRanker::new(seed)), 1);
            db.enable_access_log();
            let result = SqDbSky::new().discover(&db).unwrap();
            assert!(result.complete, "s={s}, seed={seed}");
            assert_eq!(result.skyline.len(), s, "s={s}, seed={seed}");
            let mut below_zero: Vec<(Vec<&str>, usize)> = Vec::new();
            let log = db.access_log();
            for entry in log.entries() {
                let (_, clause) = entry.query.split_once(" WHERE ").unwrap_or_default();
                let preds: Vec<&str> = clause
                    .split(" AND ")
                    .filter(|p| p.ends_with(" < 0"))
                    .collect();
                if !preds.is_empty() {
                    below_zero.push((preds, entry.returned));
                }
            }
            below_zero.sort();
            assert_eq!(
                below_zero,
                [(vec!["A0 < 0"], 0), (vec!["A1 < 0"], 0)],
                "s={s}, seed={seed}: Eq 4 charges one empty-box query per axis"
            );
            assert!(
                (result.query_cost as f64 - expected).abs() < 1e-6,
                "s={s}, seed={seed}: cost {} against E(C_s) = {expected}",
                result.query_cost
            );
        }
    }
}

/// A permutation of `0..s`: a Fisher–Yates shuffle driven by a SplitMix64
/// stream seeded with `seed`.
fn permutation(s: usize, seed: u64) -> Vec<u32> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut perm: Vec<u32> = (0..s as u32).collect();
    for i in (1..s).rev() {
        perm.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    perm
}

/// Eq 4 where the cost is a random variable, at m = 3 and 4. Every tuple
/// is again a skyline tuple (attribute 0 = i, attribute 1 = s − 1 − i),
/// and attributes 2..m hold seeded permutations of 0..s. Over 500 seeds
/// per cell, the mean cost under the random skyline ranker must lie within
/// four standard errors of `E(C_s)`. A fixed relative bound would not do:
/// at this many seeds the mean sits up to ~3% from `E(C_s)` by chance.
#[test]
fn sq_mean_cost_matches_eq4_at_m3_and_m4_under_the_random_skyline_ranker() {
    const SEEDS: u64 = 500;
    for m in [3usize, 4] {
        for s in [2usize, 4, 8, 12] {
            let costs: Vec<f64> = (0..SEEDS)
                .map(|seed| {
                    let mut builder = SchemaBuilder::new();
                    for a in 0..m {
                        builder = builder.ranking(format!("a{a}"), 16, InterfaceType::Sq);
                    }
                    let perms: Vec<Vec<u32>> = (2..m)
                        .map(|a| permutation(s, (seed << 8) | a as u64))
                        .collect();
                    let tuples = (0..s)
                        .map(|i| {
                            let mut values = vec![i as u32, (s - 1 - i) as u32];
                            values.extend(perms.iter().map(|p| p[i]));
                            Tuple::new(i as u64, values)
                        })
                        .collect();
                    let ranker = Box::new(RandomSkylineRanker::new(seed));
                    let db = HiddenDb::new(builder.build(), tuples, ranker, 1);
                    let result = SqDbSky::new().discover(&db).unwrap();
                    assert!(result.complete, "m={m}, s={s}, seed={seed}");
                    assert_eq!(result.skyline.len(), s, "m={m}, s={s}, seed={seed}");
                    result.query_cost as f64
                })
                .collect();
            let n = costs.len() as f64;
            let mean = costs.iter().sum::<f64>() / n;
            let var = costs.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / (n - 1.0);
            let se = (var / n).sqrt();
            let expected = sq_average_case_cost(m, s);
            assert!(
                (mean - expected).abs() <= 4.0 * se,
                "m={m}, s={s}: mean cost {mean:.3} over {SEEDS} seeds against \
                 E(C_s) = {expected:.3} (standard error {se:.3})"
            );
        }
    }
}

#[derive(Debug, Clone)]
struct Instance {
    m: usize,
    k: usize,
    rows: Vec<Vec<u32>>,
}

fn instance() -> impl Strategy<Value = Instance> {
    (2usize..=4, 0usize..2, 1usize..=30).prop_flat_map(|(m, k_pick, n)| {
        prop::collection::vec(prop::collection::vec(0u32..16, m), n).prop_map(move |rows| {
            Instance {
                m,
                k: [1, 3][k_pick],
                rows,
            }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 400,
        .. ProptestConfig::default()
    })]

    /// The worst case of Section 3.2: under any domination-consistent
    /// ranker, SQ-DB-SKY issues at most `m·|S|^{m+1}` queries
    /// (`sq_worst_case_bound`) beyond the root `SELECT *`, which the bound
    /// leaves out just as Eq 5 does. The adversarial ranker returns the
    /// largest-sum non-dominated tuple to every query.
    #[test]
    fn sq_cost_stays_within_the_worst_case_bound(inst in instance()) {
        let mut builder = SchemaBuilder::new();
        for i in 0..inst.m {
            builder = builder.ranking(format!("a{i}"), 16, InterfaceType::Sq);
        }
        let tuples = inst
            .rows
            .iter()
            .enumerate()
            .map(|(i, v)| Tuple::new(i as u64, v.clone()))
            .collect();
        let db = HiddenDb::new(builder.build(), tuples, Box::new(WorstCaseRanker), inst.k);
        let sky = bnl_skyline(db.oracle_tuples().as_slice(), db.schema()).len();
        let result = SqDbSky::new().discover(&db).unwrap();
        prop_assert!(result.complete);
        let bound = sq_worst_case_bound(inst.m, sky) + 1.0;
        prop_assert!(
            result.query_cost as f64 <= bound,
            "m={}, k={}, |S|={sky}: cost {} above the bound {bound}",
            inst.m,
            inst.k,
            result.query_cost
        );
    }
}
