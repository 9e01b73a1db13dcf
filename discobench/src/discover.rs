//! One discovery, end to end, and the correctness gate every discovery
//! passes.

use std::fmt;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use skyweb_core::{
    Discoverer, DiscoveryDriver, DiscoveryResult, DriverConfig, PlanOracle, StepOutcome,
};
use skyweb_hidden_db::{HiddenDb, TupleId};
use skyweb_net::RemoteOracle;

use crate::layers::{names, Counts, Exchange, SessionOracle, TimedMachine, TimedOracle};
use crate::trace::{self, span, Span};

/// Why a discovery failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The library returned an error, or the transport failed.
    Error(String),
    /// The run ended without a complete result.
    Incomplete,
    /// The discovered skyline differs from the ground truth.
    Skyline { missing: usize, extra: usize },
    /// The reported cost differs from the count on the engine or server
    /// side, or from the client's own count.
    Cost { reported: u64, counted: u64 },
    /// An exact count differs from the instance's first discovery.
    Counts { expected: Counts, got: Counts },
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Error(e) => write!(f, "error: {e}"),
            Failure::Incomplete => write!(f, "the discovery ended incomplete"),
            Failure::Skyline { missing, extra } => write!(
                f,
                "skyline differs from ground truth: {missing} missing, {extra} extra"
            ),
            Failure::Cost { reported, counted } => {
                write!(
                    f,
                    "reported cost {reported} but {counted} queries were counted"
                )
            }
            Failure::Counts { expected, got } => {
                write!(
                    f,
                    "exact counts {got:?} differ from the first discovery's {expected:?}"
                )
            }
        }
    }
}

/// The correctness gate: the result is complete, its skyline ids equal the
/// ground truth (ascending ids), and its cost equals every independent
/// count of answered queries.
pub fn check(result: &DiscoveryResult, truth: &[TupleId], counted: &[u64]) -> Result<(), Failure> {
    if !result.complete {
        return Err(Failure::Incomplete);
    }
    let mut ids: Vec<TupleId> = result.skyline.iter().map(|t| t.id).collect();
    ids.sort_unstable();
    if ids != truth {
        let missing = truth
            .iter()
            .filter(|id| ids.binary_search(id).is_err())
            .count();
        let extra = ids
            .iter()
            .filter(|id| truth.binary_search(id).is_err())
            .count();
        return Err(Failure::Skyline { missing, extra });
    }
    match counted.iter().find(|&&c| c != result.query_cost) {
        Some(&c) => Err(Failure::Cost {
            reported: result.query_cost,
            counted: c,
        }),
        None => Ok(()),
    }
}

/// What one discovery measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Wall time to a verified result.
    pub total_ns: u64,
    /// Wall time until the anytime skyline held half the ground truth.
    pub half_ns: u64,
    pub counts: Counts,
    /// Spans of a traced discovery (empty otherwise).
    pub spans: Vec<Span>,
}

/// A finished drive: the result, when the anytime skyline first held half
/// the ground truth (since `t0`), and the driver steps taken.
struct Driven {
    result: DiscoveryResult,
    half_ns: u64,
    steps: u64,
}

impl Driven {
    /// Completes the exact counts the oracle could not see.
    fn settle(&self, counts: &mut Counts) {
        counts.steps = self.steps;
        counts.retrieved = self.result.retrieved.len() as u64;
    }
}

/// Drives the job's algorithm to the end through `oracle`, polling progress
/// after every step.
fn drive<O: PlanOracle + Send>(
    job: &Job,
    schema_db: &HiddenDb,
    oracle: TimedOracle<'_, O>,
    t0: Instant,
) -> Result<Driven, Failure> {
    let machine = {
        let _span = span(names::MACHINE_BUILD);
        job.alg.machine(schema_db)
    }
    .map_err(|e| Failure::Error(e.to_string()))?;
    let mut driver =
        DiscoveryDriver::with_oracle(oracle, TimedMachine::new(machine), DriverConfig::new());
    let half = job.truth.len().div_ceil(2);
    let mut steps = 0;
    let mut half_ns = None;
    loop {
        let outcome = {
            let _span = span(names::STEP);
            driver.step()
        };
        steps += 1;
        let outcome = outcome.map_err(|e| Failure::Error(e.to_string()))?;
        if half_ns.is_none() && driver.progress().skyline_len >= half {
            half_ns = Some(t0.elapsed().as_nanos() as u64);
        }
        match outcome {
            StepOutcome::Progressed { .. } => {}
            StepOutcome::Finished => break,
            StepOutcome::Degraded { .. } => {
                return Err(Failure::Error("the driver degraded the run".into()))
            }
        }
    }
    let result = driver.finish().map_err(|e| Failure::Error(e.to_string()))?;
    Ok(Driven {
        result,
        half_ns: half_ns.unwrap_or_else(|| t0.elapsed().as_nanos() as u64),
        steps,
    })
}

/// Ground truth and discovery id of one discovery.
#[derive(Clone, Copy)]
pub struct Job<'a> {
    pub alg: &'a dyn Discoverer,
    pub truth: &'a [TupleId],
    pub id: u32,
    pub traced: bool,
}

/// Closes the root span and packages a discovery's measurements.
fn finish(
    t0: Instant,
    root: Option<trace::SpanGuard>,
    verdict: Result<u64, Failure>,
    counts: Counts,
) -> Result<Outcome, Failure> {
    drop(root);
    let total_ns = t0.elapsed().as_nanos() as u64;
    let spans = trace::end_discovery();
    Ok(Outcome {
        total_ns,
        half_ns: verdict?,
        counts,
        spans,
    })
}

/// One in-process discovery on a fresh session of `db`.
pub fn local(job: Job, db: &HiddenDb, log: Option<&mut Vec<Exchange>>) -> Result<Outcome, Failure> {
    let mut session = SessionOracle(db.session());
    let mut counts = Counts::default();
    trace::begin_discovery(job.id, job.traced);
    let t0 = Instant::now();
    let root = span(names::DISCOVERY);
    let oracle = TimedOracle::new(&mut session, names::ENGINE, &mut counts, log);
    let verdict = drive(&job, db, oracle, t0).and_then(|d| {
        d.settle(&mut counts);
        let _span = span(names::VERIFY);
        let engine = session.0.stats();
        check(&d.result, job.truth, &[engine.queries, counts.queries])?;
        let agrees = engine.overflows == counts.overflows
            && engine.empty_answers == counts.empties
            && engine.tuples_returned == counts.tuples_returned;
        if !agrees {
            return Err(Failure::Error(format!(
                "session stats {engine:?} disagree with the client's counts {counts:?}"
            )));
        }
        Ok(d.half_ns)
    });
    finish(t0, root, verdict, counts)
}

/// One discovery over a fresh TCP connection labelled `label`. The
/// server-side counts are checked later, against the server's report.
pub fn remote(
    job: Job,
    addr: SocketAddr,
    label: &str,
    log: Option<&mut Vec<Exchange>>,
) -> Result<Outcome, Failure> {
    let mut counts = Counts::default();
    trace::begin_discovery(job.id, job.traced);
    let t0 = Instant::now();
    let root = span(names::DISCOVERY);
    let verdict = {
        let _span = span(names::CONNECT);
        RemoteOracle::connect_with(addr, label, Some(Duration::from_secs(60)))
    }
    .map_err(|e| Failure::Error(format!("connect: {e}")))
    .and_then(|mut remote| {
        let replica = remote.replica();
        let oracle = TimedOracle::new(&mut remote, names::ROUND_TRIP, &mut counts, log);
        let d = drive(&job, &replica, oracle, t0)?;
        d.settle(&mut counts);
        let _span = span(names::VERIFY);
        check(&d.result, job.truth, &[counts.queries])?;
        Ok(d.half_ns)
    });
    finish(t0, root, verdict, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use skyweb_core::SqDbSky;
    use skyweb_hidden_db::{InterfaceType, SchemaBuilder, Tuple};

    fn toy() -> (HiddenDb, Vec<TupleId>) {
        let schema = SchemaBuilder::new()
            .ranking("a", 16, InterfaceType::Sq)
            .ranking("b", 16, InterfaceType::Sq)
            .build();
        let tuples: Vec<Tuple> = (0..200)
            .map(|i| Tuple::new(i, vec![(i / 16) as u32, (i * 7 % 16) as u32]))
            .collect();
        let mut truth: Vec<TupleId> = skyweb_skyline::sfs_skyline(&tuples, &schema)
            .iter()
            .map(|t| t.id)
            .collect();
        truth.sort_unstable();
        (HiddenDb::with_sum_ranking(schema, tuples, 3), truth)
    }

    fn result(ids: &[TupleId], cost: u64) -> DiscoveryResult {
        DiscoveryResult {
            skyline: ids
                .iter()
                .map(|&id| Arc::new(Tuple::new(id, vec![0, 0])))
                .collect(),
            retrieved: Vec::new(),
            query_cost: cost,
            trace: Vec::new(),
            complete: true,
        }
    }

    #[test]
    fn gate_accepts_the_truth_and_rejects_a_dropped_tuple_or_a_cost_off_by_one() {
        let truth = [2, 5, 9];
        assert_eq!(check(&result(&truth, 40), &truth, &[40, 40]), Ok(()));
        assert_eq!(
            check(&result(&[2, 9], 40), &truth, &[40]),
            Err(Failure::Skyline {
                missing: 1,
                extra: 0
            })
        );
        assert_eq!(
            check(&result(&truth, 41), &truth, &[40]),
            Err(Failure::Cost {
                reported: 41,
                counted: 40
            })
        );
        assert_eq!(
            check(&result(&truth, 40), &truth, &[40, 39]),
            Err(Failure::Cost {
                reported: 40,
                counted: 39
            })
        );
        let mut partial = result(&truth, 40);
        partial.complete = false;
        assert_eq!(check(&partial, &truth, &[40]), Err(Failure::Incomplete));
    }

    #[test]
    fn a_local_discovery_passes_the_gate_and_traced_counts_match() {
        let (db, truth) = toy();
        let alg = SqDbSky::new();
        let job = |id, traced| Job {
            alg: &alg,
            truth: &truth,
            id,
            traced,
        };
        let plain = local(job(0, false), &db, None).unwrap();
        assert!(plain.spans.is_empty());
        let traced = local(job(1, true), &db, None).unwrap();
        assert_eq!(plain.counts, traced.counts);
        assert!(plain.counts.queries > 0 && plain.counts.round_trips > 0);
        assert!(plain.half_ns <= plain.total_ns);
        let root = &traced.spans[0];
        assert_eq!(root.name, names::DISCOVERY);
        let steps = traced
            .spans
            .iter()
            .filter(|s| s.name == names::STEP)
            .count() as u64;
        assert_eq!(steps, traced.counts.steps);
        let engine = traced
            .spans
            .iter()
            .filter(|s| s.name == names::ENGINE)
            .count() as u64;
        assert_eq!(engine, traced.counts.round_trips);
    }

    #[test]
    fn a_wrong_ground_truth_fails_the_discovery() {
        let (db, mut truth) = toy();
        truth.pop();
        let alg = SqDbSky::new();
        let job = Job {
            alg: &alg,
            truth: &truth,
            id: 0,
            traced: false,
        };
        assert!(matches!(
            local(job, &db, None),
            Err(Failure::Skyline { extra: 1, .. })
        ));
    }
}
