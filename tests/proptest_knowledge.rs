//! Differential property tests of the client-side knowledge base: for
//! random ingest streams and random probe queries of **every** supported
//! shape, [`KnowledgeBase`] must agree with a naive reference collector
//! that keeps plain vectors and answers every question by exhaustive scan —
//! the exact data structure the old `Collector` was.
//!
//! A second suite pins the discovery algorithms end to end: run the same
//! algorithm against the database's engine and against the naive
//! filter-then-rank reference of the hidden-db test support, and require
//! identical `DiscoveryResult`s (skyline, retrieved set, query cost,
//! trace), so the knowledge base and the server's query engine are checked
//! as one system.

#[path = "../crates/hidden-db/tests/support/mod.rs"]
mod support;

use proptest::prelude::*;

use skyweb::core::{
    Discoverer, DiscoveryDriver, DriverConfig, KnowledgeBase, MqDbSky, PlanOracle, RqDbSky, SqDbSky,
};
use skyweb::hidden_db::{
    dominates_on, CmpOp, HiddenDb, InterfaceType, Predicate, PrefixGroup, Query, QueryError,
    QueryResponse, RandomSkylineRanker, Ranker, SchemaBuilder, SumRanker, Tuple, WorstCaseRanker,
};

use support::NaiveReference;

/// The naive reference: what the old `Collector` did, minus the incremental
/// BNL (the skyline is recomputed by exhaustive scan on demand).
struct NaiveCollector {
    attrs: Vec<usize>,
    seen: Vec<Tuple>,
}

impl NaiveCollector {
    fn new(attrs: Vec<usize>) -> Self {
        NaiveCollector {
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
        let mut naive = NaiveCollector::new(attrs.clone());

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

fn ranker_of(w: &DiscoveryWorkload) -> Box<dyn Ranker> {
    match w.ranker {
        0 => Box::new(SumRanker),
        1 => Box::new(RandomSkylineRanker::new(1234)),
        _ => Box::new(WorstCaseRanker),
    }
}

fn build_db(w: &DiscoveryWorkload) -> HiddenDb {
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
    HiddenDb::new(b.build(), tuples, ranker_of(w), w.k)
}

/// The naive reference as a plan transport: answers a plan one query at a
/// time and stops at the first rejection, as a `Session` does.
#[derive(Debug)]
struct ReferenceOracle<'a>(NaiveReference<'a>);

impl PlanOracle for ReferenceOracle<'_> {
    fn run_plan_grouped(
        &mut self,
        queries: &[Query],
        _groups: Option<&[PrefixGroup]>,
    ) -> (Vec<QueryResponse>, Option<QueryError>) {
        let mut answered = Vec::with_capacity(queries.len());
        for q in queries {
            match self.0.answer(q) {
                Ok(response) => answered.push(response),
                Err(e) => return (answered, Some(e)),
            }
        }
        (answered, None)
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        max_shrink_iters: 200,
        .. ProptestConfig::default()
    })]

    /// End-to-end differential: the same discovery run against the engine
    /// and against the naive reference must produce identical results —
    /// same skyline, same retrieved set, same query cost, same trace —
    /// under deterministic, randomized and adversarial rankers alike. The
    /// reference gets a fresh ranker with the engine's seed.
    #[test]
    fn discovery_matches_the_naive_reference(w in discovery_workload()) {
        let alg: Box<dyn Discoverer> = match w.interface {
            0 => Box::new(RqDbSky::new()),
            1 => Box::new(SqDbSky::new()),
            _ => Box::new(MqDbSky::new()),
        };
        let db = build_db(&w);
        let engine = alg.discover(&db).expect("discovery run failed");
        let oracle = ReferenceOracle(NaiveReference::new(&db, ranker_of(&w)));
        let machine = alg.machine(&db).expect("supported interface");
        let reference = DiscoveryDriver::with_oracle(oracle, machine, DriverConfig::new())
            .run()
            .expect("reference run failed");
        prop_assert_eq!(engine.query_cost, reference.query_cost);
        prop_assert_eq!(engine.complete, reference.complete);
        prop_assert_eq!(sorted_ids(&engine.skyline), sorted_ids(&reference.skyline));
        prop_assert_eq!(sorted_ids(&engine.retrieved), sorted_ids(&reference.retrieved));
        prop_assert_eq!(engine.trace, reference.trace);
    }
}
