//! Differential property tests of the client-side knowledge base: for
//! random ingest streams and random probe queries of **every** supported
//! shape, [`KnowledgeBase`] must agree with a naive reference collector
//! that keeps plain vectors and answers every question by exhaustive scan —
//! the exact data structure the old `Collector` was.
//!
//! A second suite pins the discovery algorithms end to end: run the same
//! algorithm against an [`ExecStrategy::Indexed`] and an
//! [`ExecStrategy::Scan`] database and require identical `DiscoveryResult`s
//! (skyline, retrieved set, query cost, trace), so the knowledge base and
//! both server execution strategies are checked as one system.

use proptest::prelude::*;

use skyweb::core::{Discoverer, KnowledgeBase, MqDbSky, RqDbSky, SqDbSky};
use skyweb::hidden_db::{
    dominates_on, CmpOp, ExecStrategy, HiddenDb, InterfaceType, Predicate, Query,
    RandomSkylineRanker, Ranker, SchemaBuilder, SumRanker, Tuple, WorstCaseRanker,
};

/// The naive reference: what the old `Collector` did, minus the incremental
/// BNL (the skyline is recomputed by exhaustive scan on demand).
struct NaiveReference {
    attrs: Vec<usize>,
    seen: Vec<Tuple>,
}

impl NaiveReference {
    fn new(attrs: Vec<usize>) -> Self {
        NaiveReference {
            attrs,
            seen: Vec::new(),
        }
    }

    fn ingest(&mut self, tuples: &[Tuple]) {
        for t in tuples {
            if !self.seen.iter().any(|s| s.id == t.id) {
                self.seen.push(t.clone());
            }
        }
    }

    fn skyline_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .seen
            .iter()
            .filter(|t| {
                !self
                    .seen
                    .iter()
                    .any(|u| u.id != t.id && dominates_on(u, t, &self.attrs))
            })
            .map(|t| t.id)
            .collect();
        ids.sort_unstable();
        ids
    }

    fn band_ids(&self, level: usize) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .seen
            .iter()
            .filter(|t| {
                self.seen
                    .iter()
                    .filter(|u| u.id != t.id && dominates_on(u, t, &self.attrs))
                    .count()
                    < level
            })
            .map(|t| t.id)
            .collect();
        ids.sort_unstable();
        ids
    }

    fn any_seen_matches(&self, q: &Query) -> bool {
        self.seen.iter().any(|t| q.matches(t))
    }

    /// The skyline dominator of `t` with the smallest `(Σ attrs, id)` —
    /// the one `dominated_by_skyline` must return — found by scan.
    fn first_skyline_dominator(&self, t: &Tuple) -> Option<u64> {
        let sky = self.skyline_ids();
        self.seen
            .iter()
            .filter(|s| sky.binary_search(&s.id).is_ok() && dominates_on(s, t, &self.attrs))
            .map(|s| {
                let key: u64 = self.attrs.iter().map(|&a| u64::from(s.values[a])).sum();
                (key, s.id)
            })
            .min()
            .map(|(_, id)| id)
    }
}

#[derive(Debug, Clone)]
struct KbWorkload {
    m: usize,
    band: usize,
    /// Ingest batches of raw tuple values.
    batches: Vec<Vec<Vec<u32>>>,
    /// Probe queries: (attr, op-code, value) conjunctions — every CmpOp
    /// appears, including the equality pivots and `≥`-rooted boxes the old
    /// collector could only answer by full scan.
    probes: Vec<Vec<(usize, u8, u32)>>,
    /// Dominance probes for `dominated_by_skyline`.
    dom_probes: Vec<Vec<u32>>,
}

fn kb_workload() -> impl Strategy<Value = KbWorkload> {
    (2usize..=5, 1usize..=3).prop_flat_map(|(m, band)| {
        let batch = prop::collection::vec(prop::collection::vec(0u32..8, m), 0..=12);
        let batches = prop::collection::vec(batch, 1..=5);
        let probe = prop::collection::vec((0..m, 0u8..5, 0u32..9), 0..=3);
        let probes = prop::collection::vec(probe, 1..=8);
        let dom_probes = prop::collection::vec(prop::collection::vec(0u32..8, m), 1..=4);
        (batches, probes, dom_probes).prop_map(move |(batches, probes, dom_probes)| KbWorkload {
            m,
            band,
            batches,
            probes,
            dom_probes,
        })
    })
}

fn query_of(raw: &[(usize, u8, u32)]) -> Query {
    Query::new(
        raw.iter()
            .map(|&(attr, op, value)| {
                let op = match op {
                    0 => CmpOp::Lt,
                    1 => CmpOp::Le,
                    2 => CmpOp::Eq,
                    3 => CmpOp::Ge,
                    _ => CmpOp::Gt,
                };
                Predicate::new(attr, op, value)
            })
            .collect(),
    )
}

fn sorted_ids(tuples: &[std::sync::Arc<Tuple>]) -> Vec<u64> {
    let mut ids: Vec<u64> = tuples.iter().map(|t| t.id).collect();
    ids.sort_unstable();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        max_shrink_iters: 400,
        .. ProptestConfig::default()
    })]

    /// After every ingest batch, the knowledge base agrees with the naive
    /// reference on the skyline, every band level, every query shape of
    /// `any_seen_matches`, and the exact dominator `dominated_by_skyline`
    /// returns: the smallest-`(Σ attrs, id)` skyline dominator. `m` reaches
    /// 5, the arity of the diamonds workloads.
    #[test]
    fn knowledge_base_matches_naive_reference(w in kb_workload()) {
        let attrs: Vec<usize> = (0..w.m).collect();
        let mut kb = KnowledgeBase::with_band(attrs.clone(), w.band);
        let mut naive = NaiveReference::new(attrs.clone());

        let mut next_id = 0u64;
        for batch in &w.batches {
            let tuples: Vec<Tuple> = batch
                .iter()
                .map(|values| {
                    next_id += 1;
                    Tuple::new(next_id, values.clone())
                })
                .collect();
            naive.ingest(&tuples);
            kb.ingest_owned(tuples);

            // Skyline and every band level up to the configured band.
            let naive_sky = naive.skyline_ids();
            prop_assert_eq!(kb.skyline_len(), naive_sky.len());
            prop_assert_eq!(sorted_ids(&kb.skyline_tuples()), naive_sky);
            for level in 1..=w.band {
                prop_assert_eq!(
                    sorted_ids(&kb.band_tuples(level)),
                    naive.band_ids(level),
                    "band level {} of {}", level, w.band
                );
            }

            // Exact membership for every probe shape.
            for raw in &w.probes {
                let q = query_of(raw);
                prop_assert_eq!(
                    kb.any_seen_matches(&q),
                    naive.any_seen_matches(&q),
                    "query {}", q
                );
            }

            // Dominator probes: the answer is the skyline dominator with the
            // smallest `(Σ attrs, id)`, or none if no skyline member
            // dominates.
            for values in &w.dom_probes {
                let probe = Tuple::new(u64::MAX, values.clone());
                prop_assert_eq!(
                    kb.dominated_by_skyline(&probe).map(|d| d.id),
                    naive.first_skyline_dominator(&probe),
                    "dominator of {:?}", values
                );
            }
        }
        prop_assert_eq!(kb.retrieved_len(), naive.seen.len());
    }
}

#[derive(Debug, Clone)]
struct DiscoveryWorkload {
    m: usize,
    rows: Vec<Vec<u32>>,
    k: usize,
    ranker: u8,
    interface: u8,
}

fn discovery_workload() -> impl Strategy<Value = DiscoveryWorkload> {
    (2usize..=3, 1usize..=3, 0u8..3, 0u8..3).prop_flat_map(|(m, k, ranker, interface)| {
        let rows = prop::collection::vec(prop::collection::vec(0u32..7, m), 0..=30);
        rows.prop_map(move |rows| DiscoveryWorkload {
            m,
            rows,
            k,
            ranker,
            interface,
        })
    })
}

fn build_db(w: &DiscoveryWorkload, strategy: ExecStrategy) -> HiddenDb {
    let mut b = SchemaBuilder::new();
    let itf = match w.interface {
        0 => InterfaceType::Rq,
        1 => InterfaceType::Sq,
        _ => InterfaceType::Rq, // MQ run below exercises mixtures separately
    };
    for i in 0..w.m {
        b = b.ranking(format!("a{i}"), 7, itf);
    }
    let tuples: Vec<Tuple> = w
        .rows
        .iter()
        .enumerate()
        .map(|(i, v)| Tuple::new(i as u64, v.clone()))
        .collect();
    let ranker: Box<dyn Ranker> = match w.ranker {
        0 => Box::new(SumRanker),
        1 => Box::new(RandomSkylineRanker::new(1234)),
        _ => Box::new(WorstCaseRanker),
    };
    HiddenDb::new(b.build(), tuples, ranker, w.k).with_strategy(strategy)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        max_shrink_iters: 200,
        .. ProptestConfig::default()
    })]

    /// End-to-end differential: the same discovery run against the indexed
    /// engine and the naive scan reference must produce identical results —
    /// same skyline, same retrieved set, same query cost, same trace —
    /// under deterministic, randomized and adversarial rankers alike.
    #[test]
    fn discovery_is_identical_under_both_exec_strategies(w in discovery_workload()) {
        let run = |strategy: ExecStrategy| {
            let db = build_db(&w, strategy);
            let result = match w.interface {
                0 => RqDbSky::new().discover(&db),
                1 => SqDbSky::new().discover(&db),
                _ => MqDbSky::new().discover(&db),
            };
            result.expect("discovery run failed")
        };
        let indexed = run(ExecStrategy::Indexed);
        let scan = run(ExecStrategy::Scan);
        prop_assert_eq!(indexed.query_cost, scan.query_cost);
        prop_assert_eq!(indexed.complete, scan.complete);
        prop_assert_eq!(sorted_ids(&indexed.skyline), sorted_ids(&scan.skyline));
        prop_assert_eq!(sorted_ids(&indexed.retrieved), sorted_ids(&scan.retrieved));
        prop_assert_eq!(indexed.trace, scan.trace);
    }
}
