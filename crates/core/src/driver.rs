//! The driving layer of the sans-io API: executes a [`DiscoveryMachine`]
//! against a [`PlanOracle`] (a live [`Session`], a remote connection, or
//! either behind a [`FaultyOracle`]), enforcing budgets and deadlines,
//! pipelining multi-query plans through the oracle's batch interface, and
//! supporting pause/resume through [`Checkpoint`]s.
//!
//! The driver is the only place where algorithm state meets I/O. It holds
//! the machine (pure state) and an oracle (the connection); pausing drops
//! the oracle and hands the machine back as a checkpoint that can be
//! resumed later — against the same database or a failed-over replica with
//! identical content.
//!
//! [`Session`]: skyweb_hidden_db::Session
//! [`FaultyOracle`]: skyweb_hidden_db::FaultyOracle

use std::time::{Duration, Instant};

use skyweb_hidden_db::{HiddenDb, PlanOracle, Query, QueryError};

use crate::codec::{self, CodecError};
use crate::machine::{AnytimeSnapshot, DiscoveryMachine, QueryPlan, RunProgress};
use crate::{DiscoveryError, DiscoveryResult};

/// Mixes a seed and a counter into 64 well-distributed bits (SplitMix64
/// finalizer) — the deterministic jitter source for retry backoff.
fn mix(seed: u64, n: u64) -> u64 {
    let mut z = seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Default number of queries the driver issues per plan round-trip.
///
/// Machines with data-independent frontiers (SQ-DB-SKY, the point-space
/// crawl) yield plans of this size and amortize the per-query client
/// overhead; machines with adaptive traversals yield single-query plans
/// regardless of the limit.
pub const DEFAULT_MAX_BATCH: usize = 64;

/// Backoff before the first retry of a plan suffix, in simulated
/// milliseconds; it doubles on each consecutive failed attempt.
const BASE_BACKOFF_MS: u64 = 10;

/// Cap on a single backoff interval (before jitter), in simulated
/// milliseconds.
const MAX_BACKOFF_MS: u64 = 1_000;

/// Attempts per plan suffix before a [`RetryPolicy`] gives up. An attempt
/// that answers at least one query resets the count: only *consecutive*
/// dead attempts count toward giving up.
const MAX_ATTEMPTS: u32 = 4;

/// How a [`DiscoveryDriver`] reacts to *transient* query failures
/// ([`QueryError::is_transient`]): unavailability, throttle bursts,
/// timeouts and mid-plan connection drops.
///
/// Any answered prefix of a faulted plan is fed to the machine immediately
/// (the budget accounts for it exactly once); only the unanswered suffix is
/// retried, after a deterministic exponential backoff with seeded jitter:
/// 10 ms (`BASE_BACKOFF_MS`), doubling per consecutive failed attempt up to
/// a 1 s cap (`MAX_BACKOFF_MS`). The backoff is *simulated* — accumulated in
/// [`DiscoveryDriver::total_backoff_ms`], never slept — so resilience tests
/// run at full speed while the accounting still reflects what a live client
/// would have waited.
///
/// When the policy gives up (four consecutive dead attempts,
/// `MAX_ATTEMPTS`, or the wall deadline passed), the driver halts the
/// machine and reports [`StepOutcome::Degraded`]: the anytime partial
/// skyline stays available through [`DiscoveryDriver::finish`] instead of
/// the run aborting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RetryPolicy {
    /// Seed of the deterministic jitter stream.
    pub seed: u64,
}

impl RetryPolicy {
    /// The default policy: jitter seed 0.
    pub fn new() -> Self {
        RetryPolicy::default()
    }

    /// Sets the jitter seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The backoff for consecutive failed attempt number `attempt` (1-based)
    /// at run-wide retry number `n`: exponential with a deterministic
    /// seeded jitter of up to 25% of the interval.
    fn backoff_ms(&self, attempt: u32, n: u64) -> u64 {
        let interval = BASE_BACKOFF_MS
            .checked_shl(attempt.saturating_sub(1).min(32))
            .unwrap_or(u64::MAX)
            .min(MAX_BACKOFF_MS);
        interval + mix(self.seed ^ 0x00BA_C0FF, n) % (interval / 4 + 1)
    }
}

/// How a [`DiscoveryDriver`] executes a machine: the one description of a
/// run. The algorithms take no query budget; a budgeted (anytime) run is a
/// driver built with [`DriverConfig::with_budget`], the same way deadlines,
/// batching and retries are configured.
#[derive(Debug, Clone, Copy)]
pub struct DriverConfig {
    /// Client-side query budget: the run is halted (anytime result) once
    /// this many queries were answered, counted across pause/resume cycles
    /// via [`DiscoveryMachine::queries_issued`].
    pub budget: Option<u64>,
    /// Upper bound on the number of queries issued per plan round-trip
    /// (≥ 1). `1` forces fully sequential execution.
    pub max_batch: usize,
    /// Wall-clock deadline measured from driver construction: once elapsed,
    /// the run is halted at the next plan boundary (anytime result).
    pub max_wall: Option<Duration>,
    /// How to react to transient query failures. `None` (the default)
    /// propagates them as errors, preserving the historical behavior.
    pub retry: Option<RetryPolicy>,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            budget: None,
            max_batch: DEFAULT_MAX_BATCH,
            max_wall: None,
            retry: None,
        }
    }
}

impl DriverConfig {
    /// Config with no budget, no deadline and default batching.
    pub fn new() -> Self {
        DriverConfig::default()
    }

    /// Sets the query budget (builder style).
    pub fn with_budget(mut self, budget: Option<u64>) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the per-round batch limit (builder style, clamped to ≥ 1).
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Sets the wall-clock deadline (builder style).
    pub fn with_max_wall(mut self, max_wall: Option<Duration>) -> Self {
        self.max_wall = max_wall;
        self
    }

    /// Sets the transient-failure retry policy (builder style).
    pub fn with_retry(mut self, retry: Option<RetryPolicy>) -> Self {
        self.retry = retry;
        self
    }
}

/// Outcome of one [`DiscoveryDriver::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// `queries` responses were fed to the machine; the run continues.
    Progressed {
        /// Number of queries answered in this round-trip.
        queries: usize,
    },
    /// The machine needs no further stepping: it finished, or it was halted
    /// by the budget, the deadline or the server's rate limit.
    Finished,
    /// The retry policy gave up on a transient failure: the machine was
    /// halted and the anytime partial result is available through
    /// [`DiscoveryDriver::finish`]; the terminal error through
    /// [`DiscoveryDriver::last_error`].
    Degraded {
        /// Queries answered in this round-trip before giving up.
        queries: usize,
    },
}

/// A paused discovery run: the machine's complete state, detached from any
/// database session.
///
/// The checkpoint owns everything the run has learned (knowledge base,
/// trace, issued-query accounting) and borrows nothing, so it can be held
/// indefinitely, sent to another thread, or resumed against a different
/// [`HiddenDb`] handle by passing [`Checkpoint::into_machine`] to
/// [`DiscoveryDriver::new`] or [`DiscoveryDriver::with_oracle`]. Budget
/// accounting continues from the checkpoint's issued-query count; the
/// deadline clock (if any) restarts.
///
/// Fault-injection and retry state are deliberately *not* part of a
/// checkpoint: resuming resets the fault stream and the retry counters.
/// Convergence is unaffected — faulted attempts never reach the database,
/// so the restored run replays the same answered queries.
#[derive(Debug)]
pub struct Checkpoint<M> {
    machine: M,
}

impl<M: DiscoveryMachine> Checkpoint<M> {
    /// Read access to the paused machine.
    pub fn machine(&self) -> &M {
        &self.machine
    }

    /// Queries answered before the pause (budget accounting carries over).
    pub fn queries_issued(&self) -> u64 {
        self.machine.queries_issued()
    }

    /// Consumes the checkpoint into the raw machine.
    pub fn into_machine(self) -> M {
        self.machine
    }

    /// Serializes the checkpoint into the versioned binary format of
    /// [`crate::codec`] (magic, version, length prefix and checksum
    /// included), suitable for writing to disk and restoring — possibly in
    /// another process — with [`Checkpoint::from_bytes`].
    ///
    /// Fails with [`CodecError::Unsupported`] for machines that do not
    /// implement state encoding (custom [`crate::MachineControl`]s without
    /// a codec tag).
    pub fn to_bytes(&self) -> Result<Vec<u8>, CodecError> {
        let mut payload = Vec::new();
        if !self.machine.encode_state(&mut payload) {
            return Err(CodecError::Unsupported);
        }
        Ok(codec::seal(codec::KIND_CHECKPOINT, payload))
    }
}

impl Checkpoint<Box<dyn DiscoveryMachine>> {
    /// Restores a checkpoint serialized with [`Checkpoint::to_bytes`].
    ///
    /// The envelope is validated before any payload byte is interpreted:
    /// wrong magic, an unknown format version, a truncated or padded
    /// buffer, and any corrupted payload bit are all rejected with the
    /// corresponding [`CodecError`] — a corrupt checkpoint is never
    /// mis-resumed.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let payload = codec::open(bytes, codec::KIND_CHECKPOINT)?;
        let mut r = codec::Reader::new(payload);
        let machine = codec::decode_machine(&mut r)?;
        r.finish()?;
        Ok(Checkpoint { machine })
    }
}

/// Executes a [`DiscoveryMachine`] against a [`PlanOracle`].
///
/// ```
/// use skyweb_core::{Discoverer, DiscoveryDriver, DriverConfig, SqDbSky};
/// use skyweb_hidden_db::{HiddenDb, InterfaceType, SchemaBuilder, Tuple};
///
/// let schema = SchemaBuilder::new()
///     .ranking("a", 10, InterfaceType::Sq)
///     .ranking("b", 10, InterfaceType::Sq)
///     .build();
/// let tuples = vec![Tuple::new(0, vec![5, 1]), Tuple::new(1, vec![1, 5])];
/// let db = HiddenDb::with_sum_ranking(schema, tuples, 1);
///
/// let machine = SqDbSky::new().machine(&db).unwrap();
/// let mut driver = DiscoveryDriver::new(&db, machine, DriverConfig::new());
/// // Stream anytime snapshots while stepping…
/// while let skyweb_core::StepOutcome::Progressed { .. } = driver.step().unwrap() {
///     let snap = driver.snapshot();
///     assert!(snap.queries <= db.queries_issued());
/// }
/// let result = driver.finish().unwrap();
/// assert!(result.complete);
/// ```
#[derive(Debug)]
pub struct DiscoveryDriver<'db, M = Box<dyn DiscoveryMachine>> {
    oracle: Box<dyn PlanOracle + Send + 'db>,
    machine: M,
    config: DriverConfig,
    started: Instant,
    /// Retries performed so far.
    retries: u64,
    /// Total simulated backoff accumulated by retries, in milliseconds.
    backoff_ms: u64,
    /// The transient error the retry policy gave up on, if any.
    last_error: Option<QueryError>,
}

impl<'db, M: DiscoveryMachine> DiscoveryDriver<'db, M> {
    /// Attaches `machine` to a fresh session of `db`. The deadline clock
    /// (if any) starts now.
    pub fn new(db: &'db HiddenDb, machine: M, config: DriverConfig) -> Self {
        DiscoveryDriver::with_oracle(db.session(), machine, config)
    }

    /// Attaches `machine` to an arbitrary [`PlanOracle`]: a session, a
    /// remote connection (`skyweb-net`'s `RemoteOracle`) or either behind a
    /// [`FaultyOracle`](skyweb_hidden_db::FaultyOracle). The deadline clock
    /// (if any) starts now.
    pub fn with_oracle(
        oracle: impl PlanOracle + Send + 'db,
        machine: M,
        config: DriverConfig,
    ) -> Self {
        DiscoveryDriver {
            oracle: Box::new(oracle),
            machine,
            config,
            #[expect(
                clippy::disallowed_methods,
                reason = "wall-clock deadline enforcement for oracle budgets; never recorded in checkpoints or replayed"
            )]
            started: Instant::now(),
            retries: 0,
            backoff_ms: 0,
            last_error: None,
        }
    }

    /// The wrapped machine.
    pub fn machine(&self) -> &M {
        &self.machine
    }

    /// Allocation-free progress counters (what schedulers poll per step).
    pub fn progress(&self) -> RunProgress {
        self.machine.progress()
    }

    /// An anytime snapshot of the run (cheap; usable for streaming progress
    /// between steps).
    pub fn snapshot(&self) -> AnytimeSnapshot {
        self.machine.snapshot()
    }

    /// Pauses the run at the current plan boundary: drops the oracle and
    /// returns the machine's complete state as a [`Checkpoint`].
    pub fn pause(self) -> Checkpoint<M> {
        Checkpoint {
            machine: self.machine,
        }
    }

    /// Detaches and returns the machine (like [`DiscoveryDriver::pause`],
    /// without the checkpoint wrapper).
    pub fn into_machine(self) -> M {
        self.machine
    }

    /// Retries performed so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Total simulated backoff accumulated by retries, in milliseconds.
    pub fn total_backoff_ms(&self) -> u64 {
        self.backoff_ms
    }

    /// The transient error the retry policy gave up on (set exactly when a
    /// step reported [`StepOutcome::Degraded`]).
    pub fn last_error(&self) -> Option<&QueryError> {
        self.last_error.as_ref()
    }

    /// Queries still allowed by the budget (`None` = unlimited).
    fn queries_left(&self) -> Option<u64> {
        self.config
            .budget
            .map(|b| b.saturating_sub(self.machine.queries_issued()))
    }

    /// `true` once the wall-clock deadline has passed.
    fn deadline_passed(&self) -> bool {
        self.config
            .max_wall
            .is_some_and(|limit| self.started.elapsed() >= limit)
    }

    /// Executes one plan round-trip: asks the machine for its next plan
    /// (bounded by the batch limit, the budget and the deadline), pipelines
    /// the queries through the oracle's batch interface, and resumes the
    /// machine with the responses.
    ///
    /// Budget, deadline and rate-limit exhaustion halt the machine and
    /// report [`StepOutcome::Finished`]; the partial anytime result stays
    /// available through [`DiscoveryDriver::finish`]. Transient failures
    /// are retried per the configured [`RetryPolicy`] (giving up degrades
    /// the run instead of aborting it); without a policy, and for any
    /// non-transient rejection, the error is propagated.
    pub fn step(&mut self) -> Result<StepOutcome, DiscoveryError> {
        if self.machine.is_finished() {
            return Ok(StepOutcome::Finished);
        }
        let limit = match self.queries_left() {
            Some(0) => {
                self.machine.halt();
                return Ok(StepOutcome::Finished);
            }
            Some(left) => (left.min(self.config.max_batch as u64)) as usize,
            None => self.config.max_batch,
        };
        if self.deadline_passed() {
            self.machine.halt();
            return Ok(StepOutcome::Finished);
        }
        let mut plan = self.machine.next_plan(limit);
        if plan.is_empty() {
            return Ok(StepOutcome::Finished);
        }
        if plan.len() > limit {
            // A control that ignores the limit must not overdraw the
            // budget: truncate defensively (dropping the sibling
            // annotation, which no longer covers the plan) so that feeding
            // an answered prefix mid-retry can never half-account a plan.
            let mut queries = plan.into_queries();
            queries.truncate(limit);
            plan = QueryPlan::new(queries);
        }
        // The plan's sibling annotation (when the machine provides one)
        // rides along so the engine's shared-prefix executor need not
        // rediscover the frontier's parent structure.
        let (responses, first_err) = self.oracle.run_plan_grouped(plan.queries(), plan.groups());
        let mut answered_total = responses.len();
        let mut remaining: Vec<Query> = plan.queries()[responses.len()..].to_vec();
        self.machine.resume(&responses);
        let mut err = first_err;
        let mut attempt: u32 = 0;
        loop {
            match err {
                None => {
                    return Ok(StepOutcome::Progressed {
                        queries: answered_total,
                    })
                }
                Some(QueryError::RateLimitExceeded { .. }) => {
                    self.machine.halt();
                    return Ok(StepOutcome::Finished);
                }
                Some(e) if e.is_transient() && self.config.retry.is_some() => {
                    let Some(policy) = self.config.retry else {
                        // Unreachable: the guard above checked is_some().
                        self.machine.halt();
                        return Ok(StepOutcome::Finished);
                    };
                    attempt += 1;
                    let give_up = attempt >= MAX_ATTEMPTS || self.deadline_passed();
                    if give_up {
                        self.last_error = Some(e);
                        self.machine.halt();
                        return Ok(StepOutcome::Degraded {
                            queries: answered_total,
                        });
                    }
                    self.retries += 1;
                    self.backoff_ms += policy.backoff_ms(attempt, self.retries);
                    // Retry only the unanswered suffix; its answered prefix
                    // was already fed to the machine and counted exactly
                    // once against the budget. The engine re-factors shared
                    // prefixes itself, so no sibling hint is needed.
                    let (responses, next_err) = self.oracle.run_plan_grouped(&remaining, None);
                    if !responses.is_empty() {
                        // Progress: only consecutive dead attempts count.
                        attempt = 0;
                    }
                    answered_total += responses.len();
                    remaining.drain(..responses.len());
                    self.machine.resume(&responses);
                    err = next_err;
                }
                Some(e) => return Err(DiscoveryError::Query(e)),
            }
        }
    }

    /// Steps until the run finishes (or is halted by budget/deadline/rate
    /// limit), then returns the driver for result extraction.
    fn drive_to_end(&mut self) -> Result<(), DiscoveryError> {
        while let StepOutcome::Progressed { .. } = self.step()? {}
        Ok(())
    }

    /// Runs to completion and extracts the [`DiscoveryResult`].
    pub fn run(mut self) -> Result<DiscoveryResult, DiscoveryError> {
        self.drive_to_end()?;
        Ok(self.machine.take_result())
    }

    /// Runs to completion and hands the finished machine back (for
    /// machine-specific result accessors such as
    /// [`SkybandMachine::take_band_result`](crate::SkybandMachine::take_band_result)).
    pub fn run_into_machine(mut self) -> Result<M, DiscoveryError> {
        self.drive_to_end()?;
        Ok(self.machine)
    }

    /// Extracts the result of a finished (or halted) run, consuming the
    /// driver — equivalent to `self.into_machine().take_result()`.
    pub fn finish(mut self) -> Result<DiscoveryResult, DiscoveryError> {
        Ok(self.machine.take_result())
    }

    /// Extracts the result of a finished (or halted) run in place, leaving
    /// the machine empty (used by schedulers that keep the driver slot
    /// alive, e.g. [`crate::DiscoveryService`]).
    pub fn take_result(&mut self) -> DiscoveryResult {
        self.machine.take_result()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::Discoverer;
    use skyweb_hidden_db::{
        FaultPlan, FaultyOracle, InterfaceType, PrefixGroup, Query, QueryResponse, RateLimit,
        SchemaBuilder, Tuple,
    };

    fn toy_db(k: usize) -> HiddenDb {
        let schema = SchemaBuilder::new()
            .ranking("a", 10, InterfaceType::Rq)
            .ranking("b", 10, InterfaceType::Rq)
            .build();
        let tuples = vec![
            Tuple::new(0, vec![5, 1]),
            Tuple::new(1, vec![4, 4]),
            Tuple::new(2, vec![1, 3]),
            Tuple::new(3, vec![3, 2]),
        ];
        HiddenDb::with_sum_ranking(schema, tuples, k)
    }

    #[test]
    fn driver_counts_and_respects_budget() {
        let db = toy_db(1);
        let machine = crate::SqDbSky::new().machine(&db).unwrap();
        let driver = DiscoveryDriver::new(&db, machine, DriverConfig::new().with_budget(Some(2)));
        let result = driver.run().unwrap();
        assert!(!result.complete);
        assert_eq!(result.query_cost, 2);
        assert_eq!(db.queries_issued(), 2);
    }

    #[test]
    fn driver_converts_rate_limit_into_halt() {
        let db = toy_db(1).with_rate_limit(RateLimit::new(2));
        let machine = crate::SqDbSky::new().machine(&db).unwrap();
        let result = DiscoveryDriver::new(&db, machine, DriverConfig::new())
            .run()
            .unwrap();
        assert!(!result.complete);
        assert_eq!(result.query_cost, 2);
        assert_eq!(db.queries_issued(), 2);
    }

    #[test]
    fn driver_propagates_real_errors() {
        let db = toy_db(1);
        #[derive(Debug)]
        struct BadControl {
            fired: bool,
        }
        impl crate::MachineControl for BadControl {
            fn name(&self) -> &str {
                "BAD"
            }
            fn done(&self) -> bool {
                self.fired
            }
            fn plan_into(&self, _kb: &crate::KnowledgeBase, _limit: usize, out: &mut Vec<Query>) {
                out.push(Query::new(vec![skyweb_hidden_db::Predicate::eq(9, 0)]));
            }
            fn on_response(
                &mut self,
                _kb: &mut crate::KnowledgeBase,
                _issued: u64,
                _resp: &skyweb_hidden_db::QueryResponse,
            ) {
                self.fired = true;
            }
        }
        let machine = crate::Machine::from_parts(
            crate::KnowledgeBase::new(vec![0, 1]),
            BadControl { fired: false },
        );
        let mut driver = DiscoveryDriver::new(&db, machine, DriverConfig::new());
        assert!(driver.step().is_err());
    }

    #[test]
    fn pause_and_resume_continue_the_budget() {
        let db = toy_db(1);
        let machine = crate::SqDbSky::new().machine(&db).unwrap();
        let mut driver = DiscoveryDriver::new(
            &db,
            machine,
            DriverConfig::new().with_budget(Some(3)).with_max_batch(1),
        );
        driver.step().unwrap();
        let checkpoint = driver.pause();
        assert_eq!(checkpoint.queries_issued(), 1);
        let resumed = DiscoveryDriver::new(
            &db,
            checkpoint.into_machine(),
            DriverConfig::new().with_budget(Some(3)).with_max_batch(1),
        );
        let result = resumed.run().unwrap();
        assert!(!result.complete);
        assert_eq!(result.query_cost, 3);
    }

    #[test]
    fn retries_converge_to_the_fault_free_result() {
        let reference = {
            let db = toy_db(1);
            let machine = crate::SqDbSky::new().machine(&db).unwrap();
            DiscoveryDriver::new(&db, machine, DriverConfig::new())
                .run()
                .unwrap()
        };
        let db = toy_db(1);
        let machine = crate::SqDbSky::new().machine(&db).unwrap();
        let config = DriverConfig::new().with_retry(Some(RetryPolicy::new()));
        let oracle = FaultyOracle::new(db.session(), FaultPlan::new(42, 0.5));
        let mut driver = DiscoveryDriver::with_oracle(oracle, machine, config);
        let mut outcomes = Vec::new();
        loop {
            let outcome = driver.step().unwrap();
            outcomes.push(outcome);
            if !matches!(outcome, StepOutcome::Progressed { .. }) {
                break;
            }
        }
        assert!(driver.retries() > 0, "rate 0.5 must force retries");
        assert!(driver.total_backoff_ms() > 0);
        assert!(driver.last_error().is_none());
        let result = driver.finish().unwrap();
        assert!(result.complete);
        assert_eq!(result.query_cost, reference.query_cost);
        let ids = |r: &DiscoveryResult| r.skyline.iter().map(|t| t.id).collect::<Vec<_>>();
        assert_eq!(ids(&result), ids(&reference));
        assert_eq!(result.trace, reference.trace);
        // Faulted attempts never reached the database.
        assert_eq!(db.queries_issued(), reference.query_cost);
    }

    /// A [`PlanOracle`] that never answers: every attempt fails with a
    /// transient error, so retry accounting is exact and deterministic.
    #[derive(Debug)]
    pub(crate) struct AlwaysDown;

    impl PlanOracle for AlwaysDown {
        fn run_plan_grouped(
            &mut self,
            _queries: &[Query],
            _groups: Option<&[PrefixGroup]>,
        ) -> (Vec<QueryResponse>, Option<QueryError>) {
            (Vec::new(), Some(QueryError::Unavailable))
        }
    }

    #[test]
    fn a_dead_transport_degrades_after_max_attempts() {
        // Pins MAX_ATTEMPTS: the first attempt and three retries fail, and
        // the fourth dead attempt gives up without a further retry.
        let db = toy_db(1);
        let machine = crate::SqDbSky::new().machine(&db).unwrap();
        let config = DriverConfig::new().with_retry(Some(RetryPolicy::new()));
        let mut driver = DiscoveryDriver::with_oracle(AlwaysDown, machine, config);
        let outcome = driver.step().unwrap();
        assert!(
            matches!(outcome, StepOutcome::Degraded { queries: 0 }),
            "expected Degraded, got {outcome:?}"
        );
        assert_eq!(driver.retries(), 3);
        assert!(driver.last_error().is_some_and(QueryError::is_transient));
        let result = driver.finish().unwrap();
        assert!(!result.complete, "degraded runs are partial");
    }

    #[test]
    fn transient_error_without_policy_propagates() {
        let db = toy_db(1);
        let machine = crate::SqDbSky::new().machine(&db).unwrap();
        let mut driver = DiscoveryDriver::with_oracle(AlwaysDown, machine, DriverConfig::new());
        match driver.step() {
            Err(crate::DiscoveryError::Query(e)) => assert!(e.is_transient()),
            other => panic!("expected a propagated transient error, got {other:?}"),
        }
    }

    #[test]
    fn limit_ignoring_machines_cannot_overdraw_the_budget() {
        #[derive(Debug)]
        struct OverPlanner {
            rounds: usize,
        }
        impl crate::MachineControl for OverPlanner {
            fn name(&self) -> &str {
                "OVER"
            }
            fn done(&self) -> bool {
                self.rounds >= 10
            }
            fn plan_into(&self, _kb: &crate::KnowledgeBase, limit: usize, out: &mut Vec<Query>) {
                // Deliberately ignore the limit.
                out.extend(vec![Query::select_all(); limit + 5]);
            }
            fn on_response(
                &mut self,
                _kb: &mut crate::KnowledgeBase,
                _issued: u64,
                _resp: &skyweb_hidden_db::QueryResponse,
            ) {
                self.rounds += 1;
            }
        }
        let db = toy_db(1);
        let machine = crate::Machine::from_parts(
            crate::KnowledgeBase::new(vec![0, 1]),
            OverPlanner { rounds: 0 },
        );
        let driver = DiscoveryDriver::new(
            &db,
            machine,
            DriverConfig::new().with_budget(Some(3)).with_max_batch(2),
        );
        let result = driver.run().unwrap();
        assert_eq!(result.query_cost, 3, "never a half-accounted plan");
        assert_eq!(db.queries_issued(), 3);
        assert!(!result.complete);
    }

    #[test]
    fn a_budget_expiring_exactly_at_a_plan_boundary_is_clean() {
        // SQ-DB-SKY on the toy db costs a fixed number of queries; set the
        // budget to exactly that cost and single-step: the run must end in
        // a clean Finished with full accounting, not a truncated plan.
        let cost = {
            let db = toy_db(1);
            let machine = crate::SqDbSky::new().machine(&db).unwrap();
            DiscoveryDriver::new(&db, machine, DriverConfig::new())
                .run()
                .unwrap()
                .query_cost
        };
        let db = toy_db(1);
        let machine = crate::SqDbSky::new().machine(&db).unwrap();
        let mut driver = DiscoveryDriver::new(
            &db,
            machine,
            DriverConfig::new()
                .with_budget(Some(cost))
                .with_max_batch(1),
        );
        let mut answered = 0u64;
        loop {
            match driver.step().unwrap() {
                StepOutcome::Progressed { queries } => answered += queries as u64,
                StepOutcome::Finished => break,
                StepOutcome::Degraded { .. } => panic!("no faults configured"),
            }
        }
        assert_eq!(answered, cost);
        let result = driver.finish().unwrap();
        assert_eq!(result.query_cost, cost);
        assert!(result.complete, "the exact budget still finishes the run");
        assert_eq!(db.queries_issued(), cost);
    }

    #[test]
    fn expired_deadline_halts_at_the_next_boundary() {
        let db = toy_db(1);
        let machine = crate::SqDbSky::new().machine(&db).unwrap();
        let mut driver = DiscoveryDriver::new(
            &db,
            machine,
            DriverConfig::new().with_max_wall(Some(Duration::ZERO)),
        );
        assert_eq!(driver.step().unwrap(), StepOutcome::Finished);
        let result = driver.finish().unwrap();
        assert!(!result.complete);
        assert_eq!(result.query_cost, 0);
    }
}
