//! Deterministic fault injection for the hidden-database oracle.
//!
//! Real hidden web databases are *remote* services: they time out, throttle,
//! return transient errors and drop connections mid-crawl. [`FaultyOracle`]
//! wraps any [`PlanOracle`] — an in-process [`Session`](crate::Session) or
//! a remote connection — and injects exactly those failures, driven by a
//! seeded [`FaultPlan`], so the resilience machinery above it (retry,
//! backoff, degradation, checkpoint failover) can be tested deterministically.
//!
//! Two properties make the injection useful for differential testing:
//!
//! * **Determinism** — every fault decision is a pure function of the plan's
//!   seed and a monotone attempt counter (SplitMix64-style bit mixing, no
//!   RNG state beyond the counter), so a run with a fixed seed is exactly
//!   reproducible, on any thread interleaving.
//! * **Non-interference** — a faulted attempt never reaches the wrapped
//!   oracle: no statistics move, no rate-limit quota is consumed, no
//!   access-log entry appears and no frame goes over the wire. A client
//!   that retries until its plan is answered therefore converges to a run
//!   *byte-identical* to the fault-free one (skyline, retrieved set, query
//!   cost, trace).
//!
//! Injected latency is simulated (accumulated in [`FaultStats`]), never
//! slept, so chaos suites run at full speed.

use crate::session::PlanOracle;
use crate::{PrefixGroup, Query, QueryError, QueryResponse};

/// Mixes a seed and a counter into 64 well-distributed bits (the SplitMix64
/// finalizer). Pure: the whole fault stream is a function of `(seed, n)`.
fn mix(seed: u64, n: u64) -> u64 {
    let mut z = seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Converts 64 random bits into a uniform `f64` in `[0, 1)`.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Base magnitude of an injected latency spike, in simulated
/// milliseconds: a spike lasts 20, 40 or 80 ms.
const FAULT_LATENCY_MS: u64 = 20;

/// Per-query timeout of a [`FaultyOracle`], in simulated milliseconds: the
/// 80 ms spikes exceed it and fail, the 20 and 40 ms spikes are absorbed.
const FAULT_TIMEOUT_MS: u64 = 40;

/// A seeded, deterministic schedule of injected faults.
///
/// Each query *attempt* consults one position of the plan's decision stream;
/// with probability [`FaultPlan::fault_rate`] the attempt faults, and the
/// fault kind (unavailability, throttle burst, connection drop, latency
/// spike) is derived from the same position. Latency spikes last 20, 40 or
/// 80 simulated milliseconds (`FAULT_LATENCY_MS << s` for `s ∈ {0, 1, 2}`);
/// a spike exceeding the 40 ms timeout (`FAULT_TIMEOUT_MS`) surfaces as
/// [`QueryError::Timeout`], smaller spikes only accumulate in
/// [`FaultStats::simulated_latency_ms`]. A plan that is not
/// [active](FaultPlan::is_active), such as [`FaultPlan::none`], never
/// consults either.
///
/// [`FaultPlan::max_consecutive`] caps how many attempts in a row may fault
/// without an answered query in between; after the cap, the next attempt is
/// forced through. A retry policy allowing more attempts than the cap is
/// therefore guaranteed to make progress — the lever chaos tests use to
/// prove convergence, and set it to `u32::MAX` to force give-ups instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the decision stream.
    pub seed: u64,
    /// Probability in `[0, 1]` that an attempt faults.
    pub fault_rate: f64,
    /// Maximum number of consecutive faulted attempts before one is forced
    /// to succeed.
    pub max_consecutive: u32,
}

impl FaultPlan {
    /// The passthrough plan: no faults are ever injected.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            fault_rate: 0.0,
            max_consecutive: 0,
        }
    }

    /// A plan injecting faults at `fault_rate` with the default mix of
    /// kinds: latency spikes of 20/40/80 ms against a 40 ms timeout (so a
    /// third of spikes error out), and at most two consecutive faults.
    ///
    /// # Panics
    /// Panics if `fault_rate` is not in `[0, 1]`.
    pub fn new(seed: u64, fault_rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fault_rate),
            "fault rate {fault_rate} outside [0, 1]"
        );
        FaultPlan {
            seed,
            fault_rate,
            max_consecutive: 2,
        }
    }

    /// Sets the consecutive-fault cap (builder style). `u32::MAX`
    /// effectively removes the cap, letting an unlucky seed starve any
    /// finite retry policy — the configuration degradation tests use.
    pub fn with_max_consecutive(mut self, max_consecutive: u32) -> Self {
        self.max_consecutive = max_consecutive;
        self
    }

    /// `true` if this plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.fault_rate > 0.0
    }
}

/// Counters of everything a [`FaultyOracle`] injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Attempts that surfaced a transient error (all kinds).
    pub injected: u64,
    /// Injected [`QueryError::Unavailable`] errors.
    pub unavailable: u64,
    /// Injected [`QueryError::Throttled`] errors.
    pub throttled: u64,
    /// Injected [`QueryError::ConnectionDropped`] errors.
    pub dropped: u64,
    /// Latency spikes that crossed the timeout and became
    /// [`QueryError::Timeout`] errors.
    pub timeouts: u64,
    /// Latency spikes absorbed without an error.
    pub slow_answers: u64,
    /// Total simulated latency injected, in milliseconds (never slept).
    pub simulated_latency_ms: u64,
}

/// A [`PlanOracle`] wrapper that injects deterministic transient faults.
///
/// Before forwarding a plan to the wrapped oracle it consults the fault
/// stream once per query slot; if slot `i` faults, only the prefix `[..i]`
/// reaches the inner oracle (the mid-plan connection-drop shape: the
/// answered prefix is delivered, the rest is lost) and the injected
/// transient error is reported as having cut the plan short. Because the
/// engine re-factors shared prefixes itself, executing the prefix without
/// the original sibling annotation answers it byte-identically. Injected
/// errors satisfy [`QueryError::is_transient`]; real rejections from the
/// inner oracle pass through unchanged and take precedence over injection.
#[derive(Debug)]
pub struct FaultyOracle<O> {
    inner: O,
    plan: FaultPlan,
    /// Monotone position in the decision stream (one per attempt).
    attempts: u64,
    /// Faulted attempts since the last answered query.
    consecutive: u32,
    stats: FaultStats,
}

impl<O: PlanOracle> FaultyOracle<O> {
    /// Puts `inner` behind the fault plan.
    pub fn new(inner: O, plan: FaultPlan) -> Self {
        FaultyOracle {
            inner,
            plan,
            attempts: 0,
            consecutive: 0,
            stats: FaultStats::default(),
        }
    }

    /// Injection accounting so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Consults the fault stream for one query attempt. `Some(err)` means
    /// the attempt faults with a transient error; `None` means the query
    /// will be answered (possibly after an absorbed latency spike).
    fn consult(&mut self) -> Option<QueryError> {
        let n = self.attempts;
        self.attempts += 1;
        let faulting = unit(mix(self.plan.seed, n)) < self.plan.fault_rate
            && self.consecutive < self.plan.max_consecutive;
        if !faulting {
            self.consecutive = 0;
            return None;
        }
        // An independent draw picks the fault kind.
        let kind = mix(self.plan.seed ^ 0x5EED_FA17, n);
        let err = match kind % 4 {
            0 => {
                self.stats.unavailable += 1;
                QueryError::Unavailable
            }
            1 => {
                self.stats.throttled += 1;
                QueryError::Throttled
            }
            2 => {
                self.stats.dropped += 1;
                QueryError::ConnectionDropped
            }
            _ => {
                let spike = FAULT_LATENCY_MS << ((kind >> 2) % 3);
                self.stats.simulated_latency_ms += spike;
                if spike > FAULT_TIMEOUT_MS {
                    self.stats.timeouts += 1;
                    QueryError::Timeout { elapsed_ms: spike }
                } else {
                    // The spike stays under the timeout: the query is
                    // merely slow, not failed.
                    self.stats.slow_answers += 1;
                    self.consecutive = 0;
                    return None;
                }
            }
        };
        self.consecutive += 1;
        self.stats.injected += 1;
        Some(err)
    }
}

impl<O: PlanOracle> PlanOracle for FaultyOracle<O> {
    fn run_plan_grouped(
        &mut self,
        queries: &[Query],
        groups: Option<&[PrefixGroup]>,
    ) -> (Vec<QueryResponse>, Option<QueryError>) {
        if !self.plan.is_active() {
            return self.inner.run_plan_grouped(queries, groups);
        }
        let Some((i, err)) = (0..queries.len()).find_map(|i| Some((i, self.consult()?))) else {
            return self.inner.run_plan_grouped(queries, groups);
        };
        // Only the answered prefix reaches the inner oracle; the sibling
        // annotation belonged to the whole plan, so the engine re-factors
        // the prefix itself (byte-identical).
        let (responses, real_err) = self.inner.run_plan_grouped(&queries[..i], None);
        // A real rejection inside the prefix happened "before" the injected
        // fault and wins.
        (responses, real_err.or(Some(err)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HiddenDb, InterfaceType, SchemaBuilder, Tuple};

    fn db(k: usize) -> HiddenDb {
        let schema = SchemaBuilder::new()
            .ranking("a", 10, InterfaceType::Rq)
            .ranking("b", 10, InterfaceType::Rq)
            .build();
        let tuples = (0..20)
            .map(|i| Tuple::new(i, vec![(i % 10) as u32, ((i * 7) % 10) as u32]))
            .collect();
        HiddenDb::with_sum_ranking(schema, tuples, k)
    }

    #[test]
    fn passthrough_plan_is_invisible() {
        let db = db(3);
        let mut oracle = FaultyOracle::new(db.session(), FaultPlan::none());
        let plan = vec![Query::select_all(); 5];
        let (responses, err) = oracle.run_plan_grouped(&plan, None);
        assert_eq!(responses.len(), 5);
        assert!(err.is_none());
        assert_eq!(oracle.stats(), FaultStats::default());
        assert_eq!(db.queries_issued(), 5);
    }

    #[test]
    fn faults_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let db = db(3);
            let mut oracle = FaultyOracle::new(db.session(), FaultPlan::new(seed, 0.5));
            let plan = vec![Query::select_all(); 4];
            let mut outcomes = Vec::new();
            for _ in 0..20 {
                let (responses, err) = oracle.run_plan_grouped(&plan, None);
                outcomes.push((responses.len(), err));
            }
            (outcomes, oracle.stats())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0, "different seeds give different streams");
    }

    #[test]
    fn faulted_attempts_never_touch_the_database() {
        let db = db(3);
        let mut oracle = FaultyOracle::new(db.session(), FaultPlan::new(3, 0.6));
        let plan = vec![Query::select_all(); 3];
        let mut answered = 0u64;
        for _ in 0..50 {
            let (responses, err) = oracle.run_plan_grouped(&plan, None);
            answered += responses.len() as u64;
            if let Some(e) = err {
                assert!(e.is_transient(), "injected errors are transient: {e}");
            }
        }
        assert_eq!(db.queries_issued(), answered);
        assert!(
            oracle.stats().injected > 0,
            "rate 0.6 must inject something"
        );
    }

    #[test]
    fn consecutive_cap_forces_progress() {
        let db = db(3);
        // Certain fault with a cap of 2: every third attempt is forced
        // through, so a retry loop of 3 attempts always answers.
        let mut oracle = FaultyOracle::new(db.session(), FaultPlan::new(1, 1.0));
        let q = [Query::select_all()];
        let mut answered = 0;
        for _ in 0..30 {
            let (responses, _) = oracle.run_plan_grouped(&q, None);
            answered += responses.len();
        }
        assert!(answered >= 10, "cap must force at least one in three");
    }

    #[test]
    fn mid_plan_drop_returns_the_answered_prefix() {
        let db = db(3);
        let mut oracle = FaultyOracle::new(
            db.session(),
            FaultPlan::new(11, 0.4).with_max_consecutive(u32::MAX),
        );
        let plan = vec![Query::select_all(); 6];
        let mut saw_partial_prefix = false;
        for _ in 0..40 {
            let before = db.queries_issued();
            let (responses, err) = oracle.run_plan_grouped(&plan, None);
            assert_eq!(db.queries_issued() - before, responses.len() as u64);
            if err.is_some() && !responses.is_empty() && responses.len() < plan.len() {
                saw_partial_prefix = true;
            }
        }
        assert!(saw_partial_prefix, "seed 11 must produce a mid-plan fault");
    }

    #[test]
    fn latency_spikes_split_into_timeouts_and_slow_answers() {
        let db = db(3);
        let mut oracle = FaultyOracle::new(db.session(), FaultPlan::new(5, 0.9));
        let q = [Query::select_all()];
        for _ in 0..300 {
            let _ = oracle.run_plan_grouped(&q, None);
        }
        let stats = oracle.stats();
        assert!(stats.timeouts > 0, "80 ms spikes exceed the 40 ms timeout");
        assert!(stats.slow_answers > 0, "20/40 ms spikes are absorbed");
        assert!(stats.simulated_latency_ms > 0);
        assert_eq!(
            stats.injected,
            stats.unavailable + stats.throttled + stats.dropped + stats.timeouts
        );
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn out_of_range_rate_panics() {
        let _ = FaultPlan::new(0, 1.5);
    }
}
