//! Differential property tests of the shared-prefix batch executor: for
//! random schemas, rankers, rate limits and multi-query plans (with and
//! without shared predicate prefixes), `Session::run_plan_grouped` must be
//! **byte-identical** to answering the same plan one query at a time
//! through `Session::query` — same tuples in the same order, same overflow
//! flags, same cutting error and answered-prefix length, same per-session
//! [`QueryStats`], same global statistics and the same merged access-log
//! snapshot. The sequential loop is itself checked against the naive
//! reference in `tests/differential.rs`.
//!
//! Machine-style sibling annotations (`run_plan_grouped`) are additionally
//! pinned equal to the engine-side factoring path.
//!
//! The workloads reach every plan on their own: up to 400 tuples over
//! domains of up to 64 values, so single queries take the posting walk, the
//! rank scan and the ranker fallback, and shared prefixes materialize
//! through a posting list and through the zone-map scan.

use proptest::prelude::*;

use skyweb_hidden_db::{
    prefix_groups, CmpOp, HiddenDb, InterfaceType, LexicographicRanker, PlanOracle, Predicate,
    PrefixGroup, Query, QueryError, QueryResponse, RandomSkylineRanker, Ranker, RateLimit, Schema,
    SchemaBuilder, SingleAttributeRanker, SumRanker, Tuple, WeightedSumRanker, WorstCaseRanker,
};

/// Raw predicate material: (attr, op-code, value). Not pre-filtered for
/// validity, so rejection behavior (and the answered-prefix cut) is covered.
type RawPred = (usize, u8, u32);

/// One generated workload: schema shape, data, k, ranker choice, rate limit
/// and a plan assembled from sibling groups (a shared base followed by
/// per-member residuals) plus loose singleton queries.
#[derive(Debug, Clone)]
struct Workload {
    domains: Vec<u32>,
    interfaces: Vec<u8>,
    num_ranking: usize,
    rows: Vec<Vec<u32>>,
    k: usize,
    ranker: u8,
    /// Rate limit as quarters of the plan length (`0` = unlimited), so
    /// some cases cut mid-plan and some never trip.
    limit_num: u8,
    /// Sibling groups: shared base predicates + one residual list per
    /// member. A group with an empty base exercises zero-shared-prefix
    /// grouping; a group whose residuals are empty yields identical
    /// queries.
    groups: Vec<(Vec<RawPred>, Vec<Vec<RawPred>>)>,
}

fn workload() -> impl Strategy<Value = Workload> {
    (
        2usize..=4,
        0usize..=1,
        0usize..=400,
        1usize..=6,
        0u8..6,
        0u8..=4,
    )
        .prop_flat_map(|(m, filtering, n, k, ranker, limit_num)| {
            let total = m + filtering;
            let domains = prop::collection::vec(1u32..=64, total);
            let interfaces = prop::collection::vec(0u8..=2, total);
            (domains, interfaces).prop_flat_map(move |(domains, interfaces)| {
                let row = domains.iter().map(|&d| 0u32..d).collect::<Vec<_>>();
                let rows = prop::collection::vec(row, n);
                let pred = (0usize..total, 0u8..5, 0u32..9);
                let base = prop::collection::vec(pred.clone(), 0..=2);
                let residual = prop::collection::vec(pred, 0..=2);
                let group = (base, prop::collection::vec(residual, 1..=5));
                let groups = prop::collection::vec(group, 1..=4);
                (Just(domains), Just(interfaces), rows, groups).prop_map(
                    move |(domains, interfaces, rows, groups)| Workload {
                        domains,
                        interfaces,
                        num_ranking: m,
                        rows,
                        k,
                        ranker,
                        limit_num,
                        groups,
                    },
                )
            })
        })
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
        // Same seed on both sides: identical RNG consumption per query is
        // part of the behavioral-identity contract.
        4 => Box::new(RandomSkylineRanker::new(77)),
        _ => Box::new(WorstCaseRanker),
    }
}

fn db_of(w: &Workload, plan_len: usize) -> HiddenDb {
    let tuples: Vec<Tuple> = w
        .rows
        .iter()
        .enumerate()
        .map(|(i, v)| Tuple::new(i as u64, v.clone()))
        .collect();
    let mut db = HiddenDb::new(schema_of(w), tuples, ranker_of(w), w.k);
    if w.limit_num > 0 {
        // Between 1/4 and 4/4 of the plan length (min 1): cuts range from
        // "mid-first-group" to "never trips".
        let limit = ((plan_len * w.limit_num as usize) / 4).max(1) as u64;
        db = db.with_rate_limit(RateLimit::new(limit));
    }
    db
}

fn predicate_of(&(attr, op, value): &RawPred) -> Predicate {
    let op = match op {
        0 => CmpOp::Lt,
        1 => CmpOp::Le,
        2 => CmpOp::Eq,
        3 => CmpOp::Ge,
        _ => CmpOp::Gt,
    };
    Predicate::new(attr, op, value)
}

/// Assembles the plan and the machine-style sibling annotation the groups
/// imply (base length = shared prefix; residuals appended per member).
fn plan_of(w: &Workload) -> (Vec<Query>, Vec<PrefixGroup>) {
    let mut plan = Vec::new();
    let mut groups = Vec::new();
    for (base, residuals) in &w.groups {
        let base_preds: Vec<Predicate> = base.iter().map(predicate_of).collect();
        groups.push(PrefixGroup {
            len: residuals.len(),
            prefix_len: base_preds.len(),
        });
        for residual in residuals {
            let mut preds = base_preds.clone();
            preds.extend(residual.iter().map(predicate_of));
            plan.push(Query::new(preds));
        }
    }
    (plan, groups)
}

type Ids = Vec<u64>;

/// Sequential ground truth: the same plan, one `Session::query` at a time,
/// stopping at the first rejection (exactly `run_plan`'s contract).
fn sequential(
    db: &HiddenDb,
    plan: &[Query],
) -> (
    Vec<(Ids, bool)>,
    Option<QueryError>,
    skyweb_hidden_db::QueryStats,
) {
    let mut session = db.session();
    let mut out = Vec::new();
    let mut err = None;
    for q in plan {
        match session.query(q) {
            Ok(resp) => out.push((resp.iter().map(|t| t.id).collect(), resp.overflowed)),
            Err(e) => {
                err = Some(e);
                break;
            }
        }
    }
    (out, err, session.stats())
}

fn outcomes(responses: &[QueryResponse]) -> Vec<(Ids, bool)> {
    responses
        .iter()
        .map(|r| (r.iter().map(|t| t.id).collect(), r.overflowed))
        .collect()
}

/// Full byte-identity check of one batched execution against the
/// sequential reference, including values, stats and access logs.
fn assert_batch_matches_sequential(w: &Workload, hinted: bool) {
    let (plan, hint) = plan_of(w);
    let reference = db_of(w, plan.len());
    reference.enable_access_log();
    let (want, want_err, want_stats) = sequential(&reference, &plan);

    let batched_db = db_of(w, plan.len());
    batched_db.enable_access_log();
    let mut batched = batched_db.session();
    let (responses, err) = batched.run_plan_grouped(&plan, hinted.then_some(&hint[..]));

    prop_assert_eq!(outcomes(&responses), want, "responses diverged");
    prop_assert_eq!(err, want_err, "cutting error diverged");
    prop_assert_eq!(batched.stats(), want_stats, "session stats diverged");
    prop_assert_eq!(
        batched_db.stats(),
        reference.stats(),
        "global stats diverged"
    );
    // Tuple *values*, not just ids.
    for (resp, q) in responses.iter().zip(&plan) {
        for t in &resp.tuples {
            prop_assert_eq!(
                &t.values,
                &reference.oracle_tuples()[usize::try_from(t.id).unwrap()].values,
                "tuple content diverged for {}",
                q
            );
        }
    }
    let (got_log, want_log) = (batched_db.access_log(), reference.access_log());
    prop_assert_eq!(got_log.len(), want_log.len(), "log length diverged");
    for (a, b) in got_log.entries().iter().zip(want_log.entries()) {
        prop_assert_eq!(a.seq, b.seq);
        prop_assert_eq!(&a.query, &b.query);
        prop_assert_eq!(a.returned, b.returned);
        prop_assert_eq!(a.overflowed, b.overflowed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 160, ..ProptestConfig::default() })]

    /// Batched plan execution is byte-identical to the sequential query
    /// loop (responses, errors, stats, access log).
    #[test]
    fn run_plan_matches_sequential_queries(w in workload()) {
        assert_batch_matches_sequential(&w, false);
    }

    /// Machine-style sibling annotations take the hinted path and remain
    /// byte-identical to the sequential loop.
    #[test]
    fn hinted_plans_match_sequential_queries(w in workload()) {
        assert_batch_matches_sequential(&w, true);
    }

    /// The engine-side factoring (`prefix_groups`) always produces a valid
    /// tiling whose execution matches the hinted grouping's.
    #[test]
    fn engine_side_factoring_is_a_valid_tiling(w in workload()) {
        let (plan, _) = plan_of(&w);
        let groups = prefix_groups(&plan);
        prop_assert!(skyweb_hidden_db::groups_cover(&plan, &groups));
        prop_assert_eq!(groups.iter().map(|g| g.len).sum::<usize>(), plan.len());
    }
}
