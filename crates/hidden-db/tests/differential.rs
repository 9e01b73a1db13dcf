//! Differential property tests of the query engine: for random schemas,
//! rankers, top-k constraints and query mixes, the engine must answer
//! exactly like the naive filter-then-rank reference of `support/` — same
//! tuples in the same order, same overflow flags, same validation errors —
//! and account for it exactly: its [`QueryStats`] must equal the counters
//! folded from the reference answers, and its access log must hold one
//! entry per reference answer: the query, the returned count and the
//! overflow flag.
//!
//! The workloads reach every single-query plan on their own: up to 400
//! tuples over domains of up to 64 values, so a predicate can match fewer
//! than n/32 tuples (the posting walk) or many more (the rank scan), and
//! rankers without a total order take the ranker fallback.
//!
//! The multi-threaded suite extends the contract to concurrent sessions:
//! every response produced by parallel clients must equal the reference
//! answer, aggregate statistics must be exact multiples, and the merged
//! access log must be a permutation of the reference entries with gap-free
//! sequence numbers.

mod support;

use proptest::prelude::*;

use skyweb_hidden_db::{
    dominates_on, CmpOp, HiddenDb, InterfaceType, LexicographicRanker, Predicate, Query,
    QueryError, QueryStats, RandomSkylineRanker, Ranker, Schema, SchemaBuilder,
    SingleAttributeRanker, SumRanker, Tuple, WeightedSumRanker, WorstCaseRanker,
};

use support::NaiveReference;

/// One generated workload: schema shape, data, k, ranker choice, queries.
#[derive(Debug, Clone)]
struct Workload {
    domains: Vec<u32>,
    interfaces: Vec<u8>,
    /// Index of the first filtering attribute (all attrs before are ranking).
    num_ranking: usize,
    rows: Vec<Vec<u32>>,
    k: usize,
    ranker: u8,
    /// Raw query material: per query, a list of (attr, op-code, value).
    queries: Vec<Vec<(usize, u8, u32)>>,
}

fn workload() -> impl Strategy<Value = Workload> {
    (2usize..=4, 0usize..=1, 0usize..=400, 1usize..=6, 0u8..7).prop_flat_map(
        |(m, filtering, n, k, ranker)| {
            let total = m + filtering;
            let domains = prop::collection::vec(1u32..=64, total);
            let interfaces = prop::collection::vec(0u8..=2, total);
            (domains, interfaces).prop_flat_map(move |(domains, interfaces)| {
                let row = domains.iter().map(|&d| 0u32..d).collect::<Vec<_>>();
                let rows = prop::collection::vec(row, n);
                let query = prop::collection::vec((0usize..total, 0u8..5, 0u32..9), 0..=3);
                let queries = prop::collection::vec(query, 1..=6);
                let domains = Just(domains);
                let interfaces = Just(interfaces);
                (domains, interfaces, rows, queries).prop_map(
                    move |(domains, interfaces, rows, queries)| Workload {
                        domains,
                        interfaces,
                        num_ranking: m,
                        rows,
                        k,
                        ranker,
                        queries,
                    },
                )
            })
        },
    )
}

fn schema_of(w: &Workload) -> Schema {
    let mut b = SchemaBuilder::new();
    for (i, &d) in w.domains.iter().enumerate() {
        if i < w.num_ranking {
            let itf = match w.interfaces[i] {
                0 => InterfaceType::Sq,
                1 => InterfaceType::Rq,
                _ => InterfaceType::Pq,
            };
            b = b.ranking(format!("a{i}"), d, itf);
        } else {
            b = b.filtering(format!("f{i}"), d);
        }
    }
    b.build()
}

fn ranker_of(w: &Workload) -> Box<dyn Ranker> {
    match w.ranker {
        0 => Box::new(SumRanker),
        1 => Box::new(WeightedSumRanker::new(vec![1.5; w.num_ranking])),
        2 => Box::new(SingleAttributeRanker::new(0)),
        3 => Box::new(LexicographicRanker::new((0..w.num_ranking).collect())),
        // Same seed on both sides: identical rng consumption is part of the
        // behavioral-identity contract.
        4 => Box::new(RandomSkylineRanker::new(77)),
        5 => Box::new(WorstCaseRanker),
        _ => Box::new(FirstSkylineRanker),
    }
}

/// A ranker without a total order whose answer depends on the order it is
/// handed the matching set: `k` times, it takes the first remaining tuple
/// that no other remaining tuple dominates. That is domination-consistent,
/// and it makes the engine's promise to hand fallback rankers their
/// matching set in store order observable — the built-in fallback rankers
/// sort their input first, so they cannot tell.
struct FirstSkylineRanker;

impl Ranker for FirstSkylineRanker {
    fn name(&self) -> &str {
        "first-skyline"
    }

    fn select_top_k<'a>(
        &self,
        matching: &[&'a Tuple],
        k: usize,
        schema: &Schema,
    ) -> Vec<&'a Tuple> {
        let attrs = schema.ranking_attrs();
        let mut rest = matching.to_vec();
        let mut picked = Vec::new();
        while picked.len() < k && !rest.is_empty() {
            let first = rest
                .iter()
                .position(|t| !rest.iter().any(|u| dominates_on(u, t, attrs)))
                .expect("a finite set has a non-dominated member");
            picked.push(rest.remove(first));
        }
        picked
    }
}

fn db_of(w: &Workload) -> HiddenDb {
    let tuples: Vec<Tuple> = w
        .rows
        .iter()
        .enumerate()
        .map(|(i, v)| Tuple::new(i as u64, v.clone()))
        .collect();
    HiddenDb::new(schema_of(w), tuples, ranker_of(w), w.k)
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

/// The reference's verdict on one query: the returned ids and values and
/// the overflow flag — or the rejection.
type Outcome = Result<(Vec<(u64, Vec<u32>)>, bool), QueryError>;

/// One access-log entry's content, without its sequence number.
type LogKey = (String, usize, bool);

/// Answers every query of `w` through a fresh reference over `db`.
fn reference_outcomes(w: &Workload, db: &HiddenDb) -> Vec<Outcome> {
    let reference = NaiveReference::new(db, ranker_of(w));
    w.queries
        .iter()
        .map(|raw| {
            reference.answer(&query_of(raw)).map(|resp| {
                let tuples = resp.iter().map(|t| (t.id, t.values.clone())).collect();
                (tuples, resp.overflowed)
            })
        })
        .collect()
}

/// The statistics a database must report after answering `outcomes`.
fn folded_stats(outcomes: &[Outcome]) -> QueryStats {
    let mut stats = QueryStats::default();
    for (tuples, overflowed) in outcomes.iter().flatten() {
        stats.queries += 1;
        stats.overflows += u64::from(*overflowed);
        stats.empty_answers += u64::from(tuples.is_empty());
        stats.tuples_returned += tuples.len() as u64;
    }
    stats
}

/// The access-log entries a database must record for `outcomes`, in order.
fn logged(w: &Workload, outcomes: &[Outcome]) -> Vec<LogKey> {
    w.queries
        .iter()
        .zip(outcomes)
        .filter_map(|(raw, outcome)| {
            let (tuples, overflowed) = outcome.as_ref().ok()?;
            Some((query_of(raw).to_string(), tuples.len(), *overflowed))
        })
        .collect()
}

/// Runs `w` against the engine, one query at a time, and checks every
/// response, rejection, counter and access-log entry against the
/// reference.
fn assert_engine_matches_reference(w: &Workload) {
    let db = db_of(w);
    db.enable_access_log();
    let want = reference_outcomes(w, &db);
    for (raw, want) in w.queries.iter().zip(&want) {
        let q = query_of(raw);
        match (db.query(&q), want) {
            (Ok(got), Ok((tuples, overflowed))) => {
                prop_assert_eq!(got.overflowed, *overflowed, "overflow flag for {}", q);
                let got: Vec<(u64, Vec<u32>)> =
                    got.iter().map(|t| (t.id, t.values.clone())).collect();
                prop_assert_eq!(&got, tuples, "answer for {}", q);
            }
            (Err(got), Err(want)) => prop_assert_eq!(&got, want, "rejection of {}", q),
            (got, want) => prop_assert!(
                false,
                "divergent outcome for {}: {:?} vs {:?}",
                q,
                got,
                want
            ),
        }
    }
    prop_assert_eq!(db.stats(), folded_stats(&want), "query statistics diverged");
    let entries = db.access_log().entries().to_vec();
    for (i, e) in entries.iter().enumerate() {
        prop_assert_eq!(e.seq, i as u64 + 1, "log seqs must be 1..=N");
    }
    let got: Vec<LogKey> = entries
        .into_iter()
        .map(|e| (e.query, e.returned, e.overflowed))
        .collect();
    prop_assert_eq!(got, logged(w, &want), "access log diverged");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// Responses, errors, statistics and access logs of the engine equal
    /// the reference on arbitrary workloads. Queries here are *not*
    /// pre-filtered for validity, so rejection behavior is covered too.
    #[test]
    fn engine_matches_the_naive_reference(w in workload()) {
        assert_engine_matches_reference(&w);
    }

    /// Concurrent sessions against one shared database reproduce the
    /// reference exactly: per-query responses, global statistics (an exact
    /// multiple of one pass) and an access log that is a permutation of the
    /// reference entries with gap-free sequence numbers.
    ///
    /// Rankers that consume shared randomness per query are excluded — for
    /// them, response content legitimately depends on query interleaving.
    #[test]
    fn concurrent_sessions_match_the_naive_reference(w in workload()) {
        const THREADS: usize = 4;
        let mut w = w;
        if w.ranker == 4 {
            w.ranker = 0; // RandomSkylineRanker → deterministic substitute
        }
        let db = db_of(&w);
        db.enable_access_log();
        let want = reference_outcomes(&w, &db);


        // Every thread replays the whole list through its own session.
        let outcomes: Vec<Vec<Outcome>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let (db, w) = (&db, &w);
                    scope.spawn(move || {
                        let mut session = db.session();
                        w.queries
                            .iter()
                            .map(|raw| {
                                session.query(&query_of(raw)).map(|a| {
                                    let tuples = a.iter().map(|t| (t.id, t.values.clone())).collect();
                                    (tuples, a.overflowed)
                                })
                            })
                            .collect::<Vec<Outcome>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("session thread panicked")).collect()
        });
        for per_thread in &outcomes {
            prop_assert_eq!(per_thread, &want, "a concurrent session diverged from the reference");
        }

        // Statistics: each counter is exactly THREADS × one pass.
        let one = folded_stats(&want);
        let all = db.stats();
        let t = THREADS as u64;
        prop_assert_eq!(all.queries, one.queries * t);
        prop_assert_eq!(all.overflows, one.overflows * t);
        prop_assert_eq!(all.empty_answers, one.empty_answers * t);
        prop_assert_eq!(all.tuples_returned, one.tuples_returned * t);

        // Access log: gap-free monotone seqs, and the entry multiset is the
        // reference multiset repeated THREADS times.
        let merged = db.access_log();
        for (i, e) in merged.entries().iter().enumerate() {
            prop_assert_eq!(e.seq, i as u64 + 1, "merged log seqs must be 1..=N");
        }
        let mut expected: Vec<LogKey> = logged(&w, &want)
            .into_iter()
            .flat_map(|e| std::iter::repeat_n(e, THREADS))
            .collect();
        let mut got: Vec<LogKey> = merged
            .entries()
            .iter()
            .map(|e| (e.query.clone(), e.returned, e.overflowed))
            .collect();
        expected.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(got, expected, "merged log is not a permutation of the reference entries");
    }

    /// The O(1) selectivity oracle agrees with brute-force counting.
    #[test]
    fn selectivity_matches_brute_force(w in workload(), lo in 0u32..9, hi in 0u32..9) {
        let db = db_of(&w);
        for attr in 0..db.schema().len() {
            let max = db.schema().attr(attr).max_value();
            let (lo, hi) = (lo.min(max), hi.min(max));
            let expected = db
                .oracle_tuples()
                .iter()
                .filter(|t| t.values[attr] >= lo && t.values[attr] <= hi)
                .count();
            prop_assert_eq!(db.selectivity(attr, lo, hi), expected);
        }
    }
}
