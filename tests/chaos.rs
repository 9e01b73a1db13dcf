//! Chaos differential battery: every algorithm machine, driven through the
//! deterministic fault-injection oracle at several fault rates and seeds
//! with the default retry policy, must converge to a result identical to
//! the fault-free run — skyline, retrieved order, query cost, anytime
//! trace — and must charge the database for exactly the same number of
//! queries (faulted attempts never reach the server).
//!
//! The battery also pins the degraded path: when the retry policy is
//! guaranteed to give up (a fault stream whose first four attempts fail),
//! every machine halts into a partial anytime result instead of aborting,
//! and without a policy the transient error propagates.

use skyweb::core::{
    BaselineCrawl, Discoverer, DiscoveryDriver, DiscoveryError, DiscoveryResult, DriverConfig,
    MqDbSky, PointSpaceCrawl, Pq2dSky, PqDbSky, RetryPolicy, RqDbSky, SqDbSky, StepOutcome,
};
use skyweb::hidden_db::{
    FaultPlan, FaultyOracle, HiddenDb, InterfaceType, PlanOracle, Query, SchemaBuilder, Tuple,
};

/// A deterministic 3-attribute database; `interface` selects the search
/// form exposed on every attribute.
fn chaos_db(interface: InterfaceType, k: usize) -> HiddenDb {
    let mut builder = SchemaBuilder::new();
    for (name, domain) in [("a", 5u32), ("b", 4), ("c", 3)] {
        builder = builder.ranking(name, domain, interface);
    }
    // A fixed LCG fills the table so the test needs no RNG dependency.
    let mut state = 0x2545_F491u64;
    let mut next = |m: u32| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as u32) % m
    };
    let tuples: Vec<Tuple> = (0..24)
        .map(|id| Tuple::new(id, vec![next(5), next(4), next(3)]))
        .collect();
    HiddenDb::with_sum_ranking(builder.build(), tuples, k)
}

fn algorithms() -> Vec<(Box<dyn Discoverer>, InterfaceType)> {
    vec![
        (Box::new(SqDbSky::new()), InterfaceType::Sq),
        (Box::new(RqDbSky::new()), InterfaceType::Rq),
        (Box::new(PqDbSky::new()), InterfaceType::Pq),
        (Box::new(MqDbSky::new()), InterfaceType::Rq),
        (Box::new(BaselineCrawl::new()), InterfaceType::Rq),
        (Box::new(PointSpaceCrawl::new()), InterfaceType::Pq),
    ]
}

fn assert_identical(name: &str, a: &DiscoveryResult, b: &DiscoveryResult) {
    let ids = |r: &DiscoveryResult| -> Vec<u64> { r.skyline.iter().map(|t| t.id).collect() };
    let retrieved =
        |r: &DiscoveryResult| -> Vec<u64> { r.retrieved.iter().map(|t| t.id).collect() };
    assert_eq!(ids(a), ids(b), "{name}: skylines diverged");
    assert_eq!(
        retrieved(a),
        retrieved(b),
        "{name}: retrieved sets diverged"
    );
    assert_eq!(a.query_cost, b.query_cost, "{name}: query costs diverged");
    assert_eq!(a.trace, b.trace, "{name}: anytime traces diverged");
    assert_eq!(a.complete, b.complete, "{name}: completion flags diverged");
}

/// One faulted run: returns the result plus the retry count, asserting the
/// run never degraded and the server saw no faulted attempts.
fn faulted_run(alg: &dyn Discoverer, db: &HiddenDb, faults: FaultPlan) -> (DiscoveryResult, u64) {
    let machine = alg.machine(db).expect("interface supported");
    let config = DriverConfig::new().with_retry(Some(RetryPolicy::new()));
    let oracle = FaultyOracle::new(db.session(), faults);
    let mut driver = DiscoveryDriver::with_oracle(oracle, machine, config);
    loop {
        match driver
            .step()
            .expect("transient faults are retried, not raised")
        {
            StepOutcome::Progressed { .. } => continue,
            StepOutcome::Finished => break,
            StepOutcome::Degraded { .. } => {
                panic!(
                    "{}: default policy must outlast these fault rates",
                    alg.name()
                )
            }
        }
    }
    let retries = driver.retries();
    (driver.finish().unwrap(), retries)
}

#[test]
fn all_machines_converge_under_chaos() {
    for (alg, interface) in algorithms() {
        let db_ref = chaos_db(interface, 2);
        let reference = alg.discover(&db_ref).expect("fault-free reference");
        assert_eq!(reference.query_cost, db_ref.queries_issued());

        let mut saw_retries = false;
        for rate in [0.05, 0.2, 0.5] {
            for seed in [1u64, 42, 0xDEAD_BEEF] {
                let db = chaos_db(interface, 2);
                let (result, retries) = faulted_run(alg.as_ref(), &db, FaultPlan::new(seed, rate));
                assert_identical(alg.name(), &reference, &result);
                // Faulted attempts never reached the database: it was
                // charged exactly the fault-free cost.
                assert_eq!(
                    db.queries_issued(),
                    reference.query_cost,
                    "{}: faulted attempts leaked to the server",
                    alg.name()
                );
                saw_retries |= retries > 0;
            }
        }
        assert!(
            saw_retries,
            "{}: the battery must actually exercise the retry path",
            alg.name()
        );
    }
}

#[test]
fn pq2d_converges_under_chaos() {
    // PQ-2D-SKY requires exactly two attributes, so it gets its own table.
    let make_db = || {
        let schema = SchemaBuilder::new()
            .ranking("x", 6, InterfaceType::Pq)
            .ranking("y", 5, InterfaceType::Pq)
            .build();
        let tuples: Vec<Tuple> = (0..20)
            .map(|id| Tuple::new(id, vec![(id as u32 * 7 + 3) % 6, (id as u32 * 5 + 1) % 5]))
            .collect();
        HiddenDb::with_sum_ranking(schema, tuples, 2)
    };
    let alg = Pq2dSky::new();
    let db_ref = make_db();
    let reference = alg.discover(&db_ref).unwrap();
    for rate in [0.05, 0.2, 0.5] {
        let db = make_db();
        let (result, _) = faulted_run(&alg, &db, FaultPlan::new(9, rate));
        assert_identical("PQ-2D-SKY", &reference, &result);
        assert_eq!(db.queries_issued(), reference.query_cost);
    }
}

#[test]
fn every_machine_degrades_gracefully_when_retries_exhaust() {
    // At fault rate 1 every attempt faults, but a latency spike under the
    // timeout only slows its answer (seed 7's third attempt is one). This
    // stream's first four attempts all fail, so the default policy gives up
    // on every machine's first plan before any query is answered.
    let faults = FaultPlan::new(1, 1.0).with_max_consecutive(u32::MAX);
    let db = chaos_db(InterfaceType::Rq, 2);
    let mut probe = FaultyOracle::new(db.session(), faults);
    for attempt in 0..4 {
        let (answered, err) = probe.run_plan_grouped(&[Query::select_all()], None);
        assert!(
            answered.is_empty() && err.is_some_and(|e| e.is_transient()),
            "attempt {attempt} of the stream must fail"
        );
    }
    for (alg, interface) in algorithms() {
        let db = chaos_db(interface, 2);
        let machine = alg.machine(&db).unwrap();
        let config = DriverConfig::new().with_retry(Some(RetryPolicy::new()));
        let oracle = FaultyOracle::new(db.session(), faults);
        let mut driver = DiscoveryDriver::with_oracle(oracle, machine, config);
        let mut outcome = driver.step().unwrap();
        while let StepOutcome::Progressed { .. } = outcome {
            outcome = driver.step().unwrap();
        }
        assert!(
            matches!(outcome, StepOutcome::Degraded { .. }),
            "{}: expected a degraded halt",
            alg.name()
        );
        let err = driver.last_error().expect("give-up records the error");
        assert!(err.is_transient(), "{}: {err:?}", alg.name());
        let result = driver.finish().unwrap();
        assert!(
            !result.complete,
            "{}: degraded runs are partial",
            alg.name()
        );
        assert_eq!(
            db.queries_issued(),
            0,
            "{}: nothing reached the server",
            alg.name()
        );
    }
}

#[test]
fn transient_faults_without_a_policy_propagate() {
    for (alg, interface) in algorithms() {
        let db = chaos_db(interface, 2);
        let machine = alg.machine(&db).unwrap();
        let faults = FaultPlan::new(7, 1.0).with_max_consecutive(u32::MAX);
        let oracle = FaultyOracle::new(db.session(), faults);
        let mut driver = DiscoveryDriver::with_oracle(oracle, machine, DriverConfig::new());
        match driver.step() {
            Err(DiscoveryError::Query(e)) => {
                assert!(e.is_transient(), "{}: {e:?}", alg.name())
            }
            other => panic!(
                "{}: expected a propagated transient error, got {other:?}",
                alg.name()
            ),
        }
    }
}
