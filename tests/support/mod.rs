//! Scaffolding shared by the pause/resume suites (`proptest_resume.rs` and
//! `proptest_checkpoint.rs`): the random database and driver spec, the
//! database it builds and the identity check between two runs.

use proptest::prelude::*;

use skyweb::core::DiscoveryResult;
use skyweb::hidden_db::{HiddenDb, InterfaceType, SchemaBuilder, Tuple};

/// One generated run: the database (domains, rows, k and interface codes)
/// and the driver limits (budget and batch size).
#[derive(Debug, Clone)]
pub struct DbSpec {
    pub domains: Vec<u32>,
    pub values: Vec<Vec<u32>>,
    pub k: usize,
    pub interfaces: Vec<u8>,
    pub budget: Option<u64>,
    pub max_batch: usize,
}

/// Specs with `m_range` ranking attributes over domains of 2 to 6 values,
/// up to 30 tuples, k in 1..=4, an optional budget and a batch size of 1
/// to 5.
pub fn db_spec(m_range: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = DbSpec> {
    (m_range, 0usize..=30, 1usize..=4)
        .prop_flat_map(|(m, n, k)| {
            let domains = prop::collection::vec(2u32..=6, m);
            (domains, Just(n), Just(k))
        })
        .prop_flat_map(|(domains, n, k)| {
            let value_strategy: Vec<_> = domains.iter().map(|&d| 0u32..d).collect();
            let values = prop::collection::vec(value_strategy, n);
            let interfaces = prop::collection::vec(0u8..=2, domains.len());
            // Raw values above 60 mean "no budget" (the vendored proptest
            // has no Option strategy).
            let budget_raw = 0u64..=90;
            (
                Just(domains),
                values,
                Just(k),
                interfaces,
                budget_raw,
                1usize..=5,
            )
        })
        .prop_map(
            |(domains, values, k, interfaces, budget_raw, max_batch)| DbSpec {
                domains,
                values,
                k,
                interfaces,
                budget: (budget_raw <= 60).then_some(budget_raw),
                max_batch,
            },
        )
}

/// The sum-ranked database of `spec`, every ranking attribute behind
/// `interface` or, when it is `None`, behind the spec's own interface codes.
pub fn build_db(spec: &DbSpec, interface: Option<InterfaceType>) -> HiddenDb {
    let mut builder = SchemaBuilder::new();
    for (i, &d) in spec.domains.iter().enumerate() {
        let itf = interface.unwrap_or(match spec.interfaces[i] {
            0 => InterfaceType::Sq,
            1 => InterfaceType::Rq,
            _ => InterfaceType::Pq,
        });
        builder = builder.ranking(format!("a{i}"), d, itf);
    }
    let tuples: Vec<Tuple> = spec
        .values
        .iter()
        .enumerate()
        .map(|(i, v)| Tuple::new(i as u64, v.clone()))
        .collect();
    HiddenDb::with_sum_ranking(builder.build(), tuples, spec.k)
}

/// Asserts two runs identical: skyline, retrieved set, query cost, anytime
/// trace and completion flag.
pub fn assert_identical(a: &DiscoveryResult, b: &DiscoveryResult) {
    let ids = |r: &DiscoveryResult| -> Vec<(u64, Vec<u32>)> {
        r.skyline.iter().map(|t| (t.id, t.values.clone())).collect()
    };
    let retrieved =
        |r: &DiscoveryResult| -> Vec<u64> { r.retrieved.iter().map(|t| t.id).collect() };
    assert_eq!(ids(a), ids(b), "skylines diverged");
    assert_eq!(retrieved(a), retrieved(b), "retrieved sets diverged");
    assert_eq!(a.query_cost, b.query_cost, "query costs diverged");
    assert_eq!(a.trace, b.trace, "anytime traces diverged");
    assert_eq!(a.complete, b.complete, "completion flags diverged");
}
