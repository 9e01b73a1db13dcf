//! The multi-tenant discovery service: many concurrent discovery runs
//! multiplexed over one shared [`HiddenDb`].
//!
//! Each tenant is one sans-io [`DiscoveryMachine`] attached to its own
//! database [`Session`](skyweb_hidden_db::Session) through a
//! [`DiscoveryDriver`], so per-tenant query accounting is exact (sessions
//! never share counters) while the store, index, rate limit and access log
//! are shared. The service schedules tenants **round-robin**: every
//! scheduling round gives each unfinished tenant one driver step (at most
//! `max_batch` queries), which bounds how far any tenant can run ahead —
//! the fairness knob of the north-star "millions of concurrent runs"
//! deployment.
//!
//! Cooperative rounds are deterministic and single-threaded;
//! [`DiscoveryService::run_to_completion_parallel`] drives disjoint tenant
//! chunks on scoped threads for multi-core throughput (tenants never share
//! mutable state, so the split is safe by construction).

use std::time::Instant;

use skyweb_hidden_db::{FaultPlan, HiddenDb};

use crate::driver::{DiscoveryDriver, DriverConfig, StepOutcome};
use crate::machine::{AnytimeSnapshot, DiscoveryMachine};
use crate::{DiscoveryError, DiscoveryResult};

/// Handle to one tenant of a [`DiscoveryService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(usize);

/// Progress accounting for one tenant.
#[derive(Debug, Clone, Default)]
pub struct TenantStats {
    /// Scheduling rounds in which this tenant made progress.
    pub steps: u64,
    /// Queries answered for this tenant so far (per-session accounting:
    /// never shared with or attributed to other tenants).
    pub queries: u64,
    /// Skyline candidates currently certified.
    pub skyline_found: usize,
    /// Queries the tenant had spent when its first skyline candidate was
    /// certified (`None` until then) — the "time to first result" of the
    /// anytime API.
    pub first_skyline_at: Option<u64>,
    /// `true` once the tenant's run finished (completed or halted).
    pub finished: bool,
    /// `true` if the finished run completed exhaustively (`false` while
    /// running, or when halted by budget/deadline/rate limit, or on error).
    pub complete: bool,
    /// `true` if the run ended degraded: the retry policy gave up on a
    /// transient failure and the partial anytime result was surfaced.
    pub degraded: bool,
    /// Retries the tenant's driver performed against transient failures.
    pub retries: u64,
    /// Total simulated retry backoff, in milliseconds.
    pub backoff_ms: u64,
}

struct Tenant<'db> {
    label: String,
    driver: DiscoveryDriver<'db, Box<dyn DiscoveryMachine>>,
    stats: TenantStats,
    outcome: Option<Result<DiscoveryResult, DiscoveryError>>,
}

impl<'db> Tenant<'db> {
    /// Gives the tenant one scheduling quantum. Returns `true` if it is
    /// still unfinished afterwards.
    fn step(&mut self) -> bool {
        if self.outcome.is_some() {
            return false;
        }
        match self.driver.step() {
            Ok(StepOutcome::Progressed { .. }) => {
                self.stats.steps += 1;
                self.refresh_progress();
                true
            }
            Ok(StepOutcome::Finished) => {
                self.refresh_progress();
                let result = self.driver.take_result();
                self.stats.finished = true;
                self.stats.complete = result.complete;
                self.stats.skyline_found = result.skyline.len();
                self.outcome = Some(Ok(result));
                false
            }
            Ok(StepOutcome::Degraded { .. }) => {
                // The retry policy gave up: surface the partial anytime
                // result instead of an error, flagged as degraded.
                self.refresh_progress();
                let result = self.driver.take_result();
                self.stats.finished = true;
                self.stats.complete = false;
                self.stats.degraded = true;
                self.stats.skyline_found = result.skyline.len();
                self.outcome = Some(Ok(result));
                false
            }
            Err(e) => {
                // The failing step may still have answered a plan prefix
                // (counted by the shared database); keep the per-tenant
                // accounting conserved before recording the error.
                self.refresh_progress();
                self.stats.finished = true;
                self.outcome = Some(Err(e));
                false
            }
        }
    }

    fn refresh_progress(&mut self) {
        let progress = self.driver.progress();
        self.stats.queries = progress.queries;
        self.stats.skyline_found = progress.skyline_len;
        self.stats.first_skyline_at = progress.first_skyline_at;
        self.stats.retries = self.driver.retries();
        self.stats.backoff_ms = self.driver.total_backoff_ms();
    }
}

impl std::fmt::Debug for Tenant<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tenant")
            .field("label", &self.label)
            .field("stats", &self.stats)
            .finish()
    }
}

/// Multiplexes many sans-io discovery runs over one shared database with
/// round-robin fairness and exact per-tenant accounting.
///
/// ```
/// use skyweb_core::{Discoverer, DiscoveryService, DriverConfig, RqDbSky, SqDbSky};
/// use skyweb_hidden_db::{HiddenDb, InterfaceType, SchemaBuilder, Tuple};
///
/// let schema = SchemaBuilder::new()
///     .ranking("a", 10, InterfaceType::Rq)
///     .ranking("b", 10, InterfaceType::Rq)
///     .build();
/// let tuples = (0..9).map(|i| Tuple::new(i, vec![i as u32, 8 - i as u32])).collect();
/// let db = HiddenDb::with_sum_ranking(schema, tuples, 2);
///
/// let mut service = DiscoveryService::new(&db);
/// let a = service.submit("sq", SqDbSky::new().machine(&db).unwrap(), DriverConfig::new());
/// let b = service.submit("rq", RqDbSky::new().machine(&db).unwrap(), DriverConfig::new());
/// service.run_to_completion();
/// let ra = service.take_result(a).unwrap().unwrap();
/// let rb = service.take_result(b).unwrap().unwrap();
/// assert!(ra.complete && rb.complete);
/// assert_eq!(ra.query_cost + rb.query_cost, db.queries_issued());
/// ```
pub struct DiscoveryService<'db> {
    db: &'db HiddenDb,
    tenants: Vec<Tenant<'db>>,
    rounds: u64,
}

impl<'db> DiscoveryService<'db> {
    /// Creates an empty service over `db`.
    pub fn new(db: &'db HiddenDb) -> Self {
        DiscoveryService {
            db,
            tenants: Vec::new(),
            rounds: 0,
        }
    }

    /// The shared database.
    pub fn db(&self) -> &'db HiddenDb {
        self.db
    }

    /// Admits a new tenant: attaches `machine` to its own session of the
    /// shared database, driven under `config` (budget, batch limit,
    /// deadline — the deadline clock starts now).
    pub fn submit(
        &mut self,
        label: impl Into<String>,
        machine: Box<dyn DiscoveryMachine>,
        config: DriverConfig,
    ) -> TenantId {
        self.submit_with_faults(label, machine, config, FaultPlan::none())
    }

    /// Like [`DiscoveryService::submit`], but routes the tenant's queries
    /// through a deterministic fault-injection layer (see
    /// [`DiscoveryDriver::with_faults`]) — the chaos harness for
    /// multi-tenant resilience scenarios.
    pub fn submit_with_faults(
        &mut self,
        label: impl Into<String>,
        machine: Box<dyn DiscoveryMachine>,
        config: DriverConfig,
        faults: FaultPlan,
    ) -> TenantId {
        let id = TenantId(self.tenants.len());
        self.tenants.push(Tenant {
            label: label.into(),
            driver: DiscoveryDriver::with_faults(self.db, machine, config, faults),
            stats: TenantStats::default(),
            outcome: None,
        });
        id
    }

    /// Number of admitted tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Number of tenants still running.
    pub fn active_count(&self) -> usize {
        self.tenants.iter().filter(|t| t.outcome.is_none()).count()
    }

    /// Scheduling rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// A tenant's label.
    pub fn label(&self, id: TenantId) -> &str {
        &self.tenants[id.0].label
    }

    /// A tenant's progress accounting.
    pub fn stats(&self, id: TenantId) -> &TenantStats {
        &self.tenants[id.0].stats
    }

    /// An anytime snapshot of a tenant's run (valid at any point, finished
    /// or not).
    pub fn snapshot(&self, id: TenantId) -> AnytimeSnapshot {
        self.tenants[id.0].driver.snapshot()
    }

    /// Takes a finished tenant's result (`None` while it is still
    /// running, or if the result was already taken).
    pub fn take_result(&mut self, id: TenantId) -> Option<Result<DiscoveryResult, DiscoveryError>> {
        self.tenants[id.0].outcome.take()
    }

    /// Executes one round-robin scheduling round: every unfinished tenant
    /// gets one driver step (at most its `max_batch` queries). Returns the
    /// number of tenants still unfinished afterwards.
    pub fn run_round(&mut self) -> usize {
        self.rounds += 1;
        let mut active = 0;
        for tenant in &mut self.tenants {
            if tenant.step() {
                active += 1;
            }
        }
        active
    }

    /// Runs cooperative rounds until every tenant finished. Returns the
    /// number of rounds executed.
    pub fn run_to_completion(&mut self) -> u64 {
        let start = self.rounds;
        while self.run_round() > 0 {}
        self.rounds - start
    }

    /// Runs cooperative rounds until every tenant finished or `deadline`
    /// elapses; unfinished tenants keep their anytime state.
    ///
    /// The deadline is checked between *tenant steps*, not just between
    /// full rounds: one slow tenant can no longer drag every other tenant
    /// through the rest of an expired round. A round cut short mid-way
    /// still counts as one executed round.
    pub fn run_until(&mut self, deadline: Instant) -> u64 {
        let start = self.rounds;
        'rounds: loop {
            #[expect(
                clippy::disallowed_methods,
                reason = "wall-clock deadline enforcement for tenant scheduling; never recorded in checkpoints or replayed"
            )]
            if Instant::now() >= deadline {
                break;
            }
            self.rounds += 1;
            let mut active = 0;
            for tenant in &mut self.tenants {
                if tenant.step() {
                    active += 1;
                }
                #[expect(
                    clippy::disallowed_methods,
                    reason = "wall-clock deadline enforcement for tenant scheduling; never recorded in checkpoints or replayed"
                )]
                if Instant::now() >= deadline {
                    break 'rounds;
                }
            }
            if active == 0 {
                break;
            }
        }
        self.rounds - start
    }

    /// Drives all tenants to completion on up to `jobs` scoped threads,
    /// each running cooperative rounds over a disjoint tenant chunk.
    /// Per-tenant results are identical to single-threaded rounds (tenants
    /// share no mutable state); only the interleaving of queries at the
    /// shared database differs. [`DiscoveryService::rounds`] advances by
    /// the longest round sequence any chunk executed.
    pub fn run_to_completion_parallel(&mut self, jobs: usize) {
        let jobs = jobs.max(1).min(self.tenants.len().max(1));
        let chunk = self.tenants.len().div_ceil(jobs);
        let max_rounds = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .tenants
                .chunks_mut(chunk.max(1))
                .map(|slice| {
                    scope.spawn(move || {
                        let mut rounds = 0u64;
                        let mut active = true;
                        while active {
                            rounds += 1;
                            active = false;
                            for tenant in slice.iter_mut() {
                                if tenant.step() {
                                    active = true;
                                }
                            }
                        }
                        rounds
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .max()
                .unwrap_or(0)
        });
        self.rounds += max_rounds;
    }
}

impl std::fmt::Debug for DiscoveryService<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiscoveryService")
            .field("tenants", &self.tenants.len())
            .field("rounds", &self.rounds)
            .finish()
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "L5 exempts test code; the run_until tests build wall-clock deadlines"
)]
mod tests {
    use super::*;
    use crate::{Discoverer, RqDbSky, SqDbSky};
    use skyweb_hidden_db::{InterfaceType, SchemaBuilder, Tuple};

    fn shared_db(n: u64, k: usize) -> HiddenDb {
        let schema = SchemaBuilder::new()
            .ranking("a", 32, InterfaceType::Rq)
            .ranking("b", 32, InterfaceType::Rq)
            .build();
        let tuples = (0..n)
            .map(|i| Tuple::new(i, vec![(i % 32) as u32, ((i * 13 + 5) % 32) as u32]))
            .collect();
        HiddenDb::with_sum_ranking(schema, tuples, k)
    }

    #[test]
    fn tenants_get_exact_unshared_accounting() {
        let db = shared_db(120, 3);
        let mut service = DiscoveryService::new(&db);
        let ids: Vec<TenantId> = (0..8)
            .map(|i| {
                let machine = if i % 2 == 0 {
                    SqDbSky::new().machine(&db).unwrap()
                } else {
                    RqDbSky::new().machine(&db).unwrap()
                };
                service.submit(
                    format!("t{i}"),
                    machine,
                    DriverConfig::new().with_max_batch(4),
                )
            })
            .collect();
        service.run_to_completion();
        let mut total = 0;
        for &id in &ids {
            let result = service.take_result(id).unwrap().unwrap();
            assert!(result.complete);
            assert_eq!(result.query_cost, service.stats(id).queries);
            total += result.query_cost;
        }
        // No lost or cross-attributed query counts.
        assert_eq!(total, db.queries_issued());
        // All even tenants ran the same algorithm on the same data: their
        // per-tenant costs must agree (fairness cannot skew accounting).
        let c0 = service.stats(ids[0]).queries;
        for &id in ids.iter().step_by(2) {
            assert_eq!(service.stats(id).queries, c0);
        }
    }

    #[test]
    fn round_robin_bounds_tenant_skew() {
        let db = shared_db(200, 2);
        let mut service = DiscoveryService::new(&db);
        let ids: Vec<TenantId> = (0..4)
            .map(|i| {
                service.submit(
                    format!("sq{i}"),
                    SqDbSky::new().machine(&db).unwrap(),
                    DriverConfig::new().with_max_batch(2),
                )
            })
            .collect();
        // After any number of rounds, identical tenants differ by at most
        // one scheduling quantum.
        for _ in 0..5 {
            service.run_round();
            let counts: Vec<u64> = ids.iter().map(|&id| service.stats(id).queries).collect();
            let min = counts.iter().min().unwrap();
            let max = counts.iter().max().unwrap();
            assert!(max - min <= 2, "skew {counts:?} exceeds one quantum");
        }
        service.run_to_completion();
        let first = service.take_result(ids[0]).unwrap().unwrap();
        assert!(first.complete);
    }

    #[test]
    fn parallel_rounds_match_cooperative_rounds() {
        let db_a = shared_db(150, 2);
        let mut serial = DiscoveryService::new(&db_a);
        let sa = serial.submit(
            "sq",
            SqDbSky::new().machine(&db_a).unwrap(),
            DriverConfig::new(),
        );
        let ra = serial.submit(
            "rq",
            RqDbSky::new().machine(&db_a).unwrap(),
            DriverConfig::new(),
        );
        serial.run_to_completion();

        let db_b = shared_db(150, 2);
        let mut parallel = DiscoveryService::new(&db_b);
        let sb = parallel.submit(
            "sq",
            SqDbSky::new().machine(&db_b).unwrap(),
            DriverConfig::new(),
        );
        let rb = parallel.submit(
            "rq",
            RqDbSky::new().machine(&db_b).unwrap(),
            DriverConfig::new(),
        );
        parallel.run_to_completion_parallel(2);

        let sa = serial.take_result(sa).unwrap().unwrap();
        let sb = parallel.take_result(sb).unwrap().unwrap();
        assert_eq!(sa.query_cost, sb.query_cost);
        assert_eq!(
            sa.skyline.iter().map(|t| t.id).collect::<Vec<_>>(),
            sb.skyline.iter().map(|t| t.id).collect::<Vec<_>>()
        );
        let ra = serial.take_result(ra).unwrap().unwrap();
        let rb = parallel.take_result(rb).unwrap().unwrap();
        assert_eq!(ra.query_cost, rb.query_cost);
    }

    #[test]
    fn erroring_tenants_keep_accounting_conserved() {
        // A machine whose plan answers a prefix before a real rejection:
        // the answered queries count at the shared db AND in the tenant's
        // stats, even though the tenant ends in an error.
        #[derive(Debug)]
        struct PoisonedPlan {
            done: bool,
        }
        impl crate::MachineControl for PoisonedPlan {
            fn name(&self) -> &str {
                "POISONED"
            }
            fn done(&self) -> bool {
                self.done
            }
            fn plan_into(
                &self,
                _kb: &crate::KnowledgeBase,
                _limit: usize,
                out: &mut Vec<skyweb_hidden_db::Query>,
            ) {
                out.push(skyweb_hidden_db::Query::select_all());
                out.push(skyweb_hidden_db::Query::new(vec![
                    skyweb_hidden_db::Predicate::eq(9, 0),
                ]));
            }
            fn on_response(
                &mut self,
                kb: &mut crate::KnowledgeBase,
                issued: u64,
                resp: &skyweb_hidden_db::QueryResponse,
            ) {
                kb.ingest(&resp.tuples);
                kb.record(issued);
            }
        }
        let db = shared_db(40, 3);
        let mut service = DiscoveryService::new(&db);
        let good = service.submit(
            "sq",
            SqDbSky::new().machine(&db).unwrap(),
            DriverConfig::new(),
        );
        let bad = service.submit(
            "poisoned",
            Box::new(crate::Machine::from_parts(
                crate::KnowledgeBase::new(vec![0, 1]),
                PoisonedPlan { done: false },
            )),
            DriverConfig::new(),
        );
        service.run_to_completion();
        assert!(service.take_result(bad).unwrap().is_err());
        assert_eq!(service.stats(bad).queries, 1, "answered prefix is counted");
        let good_cost = service.take_result(good).unwrap().unwrap().query_cost;
        assert_eq!(
            good_cost + service.stats(bad).queries,
            db.queries_issued(),
            "conservation holds across erroring tenants"
        );
    }

    #[test]
    fn parallel_run_advances_the_round_counter() {
        let db = shared_db(60, 2);
        let mut service = DiscoveryService::new(&db);
        for i in 0..3 {
            service.submit(
                format!("sq{i}"),
                SqDbSky::new().machine(&db).unwrap(),
                DriverConfig::new().with_max_batch(2),
            );
        }
        assert_eq!(service.rounds(), 0);
        service.run_to_completion_parallel(2);
        assert!(service.rounds() > 0);
    }

    #[test]
    fn faulty_tenants_converge_and_degraded_tenants_surface_partials() {
        use crate::driver::RetryPolicy;

        let db = shared_db(80, 3);
        let mut service = DiscoveryService::new(&db);
        let clean = service.submit(
            "clean",
            SqDbSky::new().machine(&db).unwrap(),
            DriverConfig::new(),
        );
        let flaky = service.submit_with_faults(
            "flaky",
            SqDbSky::new().machine(&db).unwrap(),
            DriverConfig::new().with_retry(Some(RetryPolicy::new())),
            FaultPlan::new(9, 0.4),
        );
        let doomed = service.submit_with_faults(
            "doomed",
            SqDbSky::new().machine(&db).unwrap(),
            DriverConfig::new().with_retry(Some(RetryPolicy::new().with_max_attempts(2))),
            FaultPlan::new(3, 1.0).with_max_consecutive(u32::MAX),
        );
        service.run_to_completion();

        let clean_result = service.take_result(clean).unwrap().unwrap();
        let flaky_result = service.take_result(flaky).unwrap().unwrap();
        // Retried transient faults are invisible in the result.
        assert!(flaky_result.complete);
        assert_eq!(flaky_result.query_cost, clean_result.query_cost);
        assert_eq!(
            flaky_result
                .skyline
                .iter()
                .map(|t| t.id)
                .collect::<Vec<_>>(),
            clean_result
                .skyline
                .iter()
                .map(|t| t.id)
                .collect::<Vec<_>>()
        );
        assert!(service.stats(flaky).retries > 0);
        assert!(!service.stats(flaky).degraded);

        // The doomed tenant degrades but still yields a (partial) result,
        // and accounting stays conserved across all three.
        let doomed_result = service.take_result(doomed).unwrap().unwrap();
        assert!(service.stats(doomed).degraded);
        assert!(!doomed_result.complete);
        assert_eq!(
            clean_result.query_cost + flaky_result.query_cost + doomed_result.query_cost,
            db.queries_issued()
        );
    }

    #[test]
    fn run_until_checks_deadline_between_tenant_steps() {
        use std::time::Duration;

        // A deliberately expensive machine: every plan costs ~25 ms of
        // wall clock before a single query is issued.
        #[derive(Debug)]
        struct SlowTenant;
        impl crate::MachineControl for SlowTenant {
            fn name(&self) -> &str {
                "SLOW"
            }
            fn done(&self) -> bool {
                false
            }
            fn plan_into(
                &self,
                _kb: &crate::KnowledgeBase,
                _limit: usize,
                out: &mut Vec<skyweb_hidden_db::Query>,
            ) {
                std::thread::sleep(Duration::from_millis(25));
                out.push(skyweb_hidden_db::Query::select_all());
            }
            fn on_response(
                &mut self,
                kb: &mut crate::KnowledgeBase,
                issued: u64,
                resp: &skyweb_hidden_db::QueryResponse,
            ) {
                kb.ingest(&resp.tuples);
                kb.record(issued);
            }
        }

        let db = shared_db(20, 2);
        let mut service = DiscoveryService::new(&db);
        let ids: Vec<TenantId> = (0..4)
            .map(|i| {
                service.submit(
                    format!("slow{i}"),
                    Box::new(crate::Machine::from_parts(
                        crate::KnowledgeBase::new(vec![0, 1]),
                        SlowTenant,
                    )),
                    DriverConfig::new(),
                )
            })
            .collect();
        // The deadline expires inside the very first tenant's step. The
        // old between-rounds check would still drag all four tenants
        // through the round (~100 ms overshoot); the between-steps check
        // must cut the round after the first step.
        let rounds = service.run_until(Instant::now() + Duration::from_millis(5));
        assert_eq!(rounds, 1, "a round cut short still counts as one round");
        let stepped: u64 = ids.iter().map(|&id| service.stats(id).steps).sum();
        assert_eq!(
            stepped, 1,
            "the deadline must be honored between tenant steps, not only between rounds"
        );
        // An already-expired deadline runs nothing at all.
        assert_eq!(service.run_until(Instant::now()), 0);
    }

    #[test]
    fn first_skyline_is_tracked() {
        let db = shared_db(80, 2);
        let mut service = DiscoveryService::new(&db);
        let id = service.submit(
            "sq",
            SqDbSky::new().machine(&db).unwrap(),
            DriverConfig::new().with_max_batch(1),
        );
        service.run_to_completion();
        let at = service.stats(id).first_skyline_at.expect("found something");
        assert!(at >= 1);
        let result = service.take_result(id).unwrap().unwrap();
        let trace_at = result
            .trace
            .iter()
            .find(|p| p.skyline_found > 0)
            .map(|p| p.queries)
            .unwrap();
        assert_eq!(at, trace_at);
    }
}
