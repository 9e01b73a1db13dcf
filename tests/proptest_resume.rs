//! Property-based tests of the sans-io layer's central guarantee: a
//! discovery run that is **paused at every query-plan boundary**,
//! checkpointed, and resumed through a fresh driver (and a fresh database
//! session) produces a `DiscoveryResult` byte-identical to the
//! uninterrupted run — skyline, retrieved set, query cost, anytime trace
//! and completion flag — for all eight algorithm machines, any batch limit
//! and any budget.
//!
//! Because the resumed run also exercises every batch size from 1 upward,
//! these properties simultaneously pin the batching guarantee: issuing a
//! machine's multi-query plans through the session batch interface is
//! order-identical to fully sequential execution.

mod support;

use proptest::prelude::*;

use skyweb::core::{
    BaselineCrawl, Checkpoint, Discoverer, DiscoveryDriver, DiscoveryMachine, DiscoveryResult,
    DriverConfig, MqDbSky, PointSpaceCrawl, Pq2dSky, PqDbSky, RqDbSky, RqSkyband, SkybandResult,
    SqDbSky, StepOutcome,
};
use skyweb::hidden_db::{HiddenDb, InterfaceType};

use support::{assert_identical, build_db, db_spec, DbSpec};

/// Runs `machine` against `db`, pausing at **every** plan boundary and
/// resuming from the checkpoint through a fresh driver.
fn run_with_pauses(
    db: &HiddenDb,
    machine: Box<dyn DiscoveryMachine>,
    config: DriverConfig,
) -> DiscoveryResult {
    let mut driver = DiscoveryDriver::new(db, machine, config);
    while let StepOutcome::Progressed { .. } = driver
        .step()
        .expect("no real query errors in these schemas")
    {
        let checkpoint: Checkpoint<_> = driver.pause();
        driver = DiscoveryDriver::new(db, checkpoint.into_machine(), config);
    }
    driver.finish().expect("result extraction is infallible")
}

/// The uninterrupted reference run and the pause-at-every-boundary run for
/// one algorithm, both under the spec's budget, on separate but identical
/// databases.
fn check_alg(alg: &dyn Discoverer, spec: &DbSpec, interface: Option<InterfaceType>) {
    let db_ref = build_db(spec, interface);
    let Ok(machine) = alg.machine(&db_ref) else {
        return; // interface mismatch (e.g. random mixed schema)
    };
    let reference = DiscoveryDriver::new(
        &db_ref,
        machine,
        DriverConfig::new().with_budget(spec.budget),
    )
    .run()
    .expect("no real query errors in these schemas");
    assert_eq!(
        reference.query_cost,
        db_ref.queries_issued(),
        "driver accounting must match the server's"
    );

    let db_resumed = build_db(spec, interface);
    let machine = alg
        .machine(&db_resumed)
        .expect("reference run proved the interface is supported");
    // Vary the batch limit freely — identity must hold regardless.
    let config = DriverConfig::new()
        .with_budget(spec.budget)
        .with_max_batch(spec.max_batch);
    let resumed = run_with_pauses(&db_resumed, machine, config);
    assert_identical(&reference, &resumed);
    assert_eq!(resumed.query_cost, db_resumed.queries_issued());
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 120,
        .. ProptestConfig::default()
    })]

    /// SQ-DB-SKY: batched BFS frontier, any pause schedule.
    #[test]
    fn sq_pause_resume_is_identical(spec in db_spec(2..=4)) {
        check_alg(&SqDbSky::new(), &spec, Some(InterfaceType::Sq));
    }

    /// RQ-DB-SKY: adaptive single-query plans.
    #[test]
    fn rq_pause_resume_is_identical(spec in db_spec(2..=4)) {
        check_alg(&RqDbSky::new(), &spec, Some(InterfaceType::Rq));
    }

    /// PQ-DB-SKY: plane enumeration with pruned 2D sweeps.
    #[test]
    fn pq_pause_resume_is_identical(spec in db_spec(2..=4)) {
        check_alg(&PqDbSky::new(), &spec, Some(InterfaceType::Pq));
    }

    /// PQ-2D-SKY (and through it the PQ-2DSUB-SKY sweep machine).
    #[test]
    fn pq2d_pause_resume_is_identical(spec in db_spec(2..=2)) {
        check_alg(&Pq2dSky::new(), &spec, Some(InterfaceType::Pq));
    }

    /// MQ-DB-SKY on arbitrary interface mixtures (including the degenerate
    /// delegations to SQ/RQ/PQ machines).
    #[test]
    fn mq_pause_resume_is_identical(spec in db_spec(2..=4)) {
        check_alg(&MqDbSky::new(), &spec, None);
    }

    /// The crawling BASELINE.
    #[test]
    fn baseline_pause_resume_is_identical(spec in db_spec(2..=3)) {
        check_alg(&BaselineCrawl::new(), &spec, Some(InterfaceType::Rq));
    }

    /// The exhaustive point-space crawl (fully batchable odometer).
    #[test]
    fn point_crawl_pause_resume_is_identical(spec in db_spec(2..=3)) {
        check_alg(&PointSpaceCrawl::new(), &spec, Some(InterfaceType::Pq));
    }

    /// Top-h sky-band discovery (machine-specific band result).
    #[test]
    fn skyband_pause_resume_is_identical(spec in db_spec(2..=3), h in 1usize..=3) {
        let alg = RqSkyband::new(h);
        let db_ref = build_db(&spec, Some(InterfaceType::Rq));
        let machine = alg.build_machine(&db_ref).unwrap();
        let reference: SkybandResult =
            DiscoveryDriver::new(&db_ref, machine, DriverConfig::new().with_budget(spec.budget))
                .run_into_machine()
                .unwrap()
                .take_band_result();

        let db_resumed = build_db(&spec, Some(InterfaceType::Rq));
        let machine = alg.build_machine(&db_resumed).unwrap();
        let config = DriverConfig::new()
            .with_budget(spec.budget)
            .with_max_batch(spec.max_batch);
        let mut driver = DiscoveryDriver::new(&db_resumed, machine, config);
        while let StepOutcome::Progressed { .. } = driver.step().unwrap() {
            let checkpoint = driver.pause();
            driver = DiscoveryDriver::new(&db_resumed, checkpoint.into_machine(), config);
        }
        let resumed = driver.into_machine().take_band_result();
        let band_ids = |r: &SkybandResult| -> Vec<u64> { r.band.iter().map(|t| t.id).collect() };
        prop_assert_eq!(band_ids(&reference), band_ids(&resumed));
        prop_assert_eq!(reference.query_cost, resumed.query_cost);
        prop_assert_eq!(reference.runs, resumed.runs);
        prop_assert_eq!(reference.complete, resumed.complete);
        prop_assert_eq!(
            reference.retrieved.iter().map(|t| t.id).collect::<Vec<_>>(),
            resumed.retrieved.iter().map(|t| t.id).collect::<Vec<_>>()
        );
    }
}
