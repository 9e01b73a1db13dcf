//! Benchmark-side wrappers around the library's public layer boundaries.
//!
//! [`TimedMachine`] wraps a [`DiscoveryMachine`] and [`TimedOracle`] wraps a
//! [`PlanOracle`] (an in-process [`Session`] through [`SessionOracle`], or a
//! `RemoteOracle`). Both record spans when the current discovery is traced
//! and count the exact quantities every discovery is checked on.

use std::sync::Arc;

use skyweb_core::{
    AnytimeSnapshot, DiscoveryMachine, DiscoveryResult, PlanOracle, QueryPlan, RunProgress,
};
use skyweb_hidden_db::{PrefixGroup, Query, QueryError, QueryResponse, Session, Tuple};

use crate::trace::span;

/// Span names, one per layer boundary.
pub mod names {
    pub const DISCOVERY: &str = "discovery";
    pub const MACHINE_BUILD: &str = "machine.build";
    pub const NEXT_PLAN: &str = "machine.next_plan";
    pub const RESUME: &str = "knowledge.resume";
    pub const STEP: &str = "driver.step";
    pub const ENGINE: &str = "engine.run_plan";
    pub const ROUND_TRIP: &str = "net.round_trip";
    pub const CONNECT: &str = "net.connect";
    pub const VERIFY: &str = "verify";
}

/// Exact per-discovery counts. Two discoveries of the same instance must
/// agree on all of them, traced or not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Queries answered (the paper's cost).
    pub queries: u64,
    /// Plans sent through the oracle.
    pub round_trips: u64,
    /// `DiscoveryDriver::step` calls, the final one included.
    pub steps: u64,
    /// Tuples in all responses, repeats included.
    pub tuples_returned: u64,
    /// Distinct tuples the machine retrieved.
    pub retrieved: u64,
    /// Responses that overflowed the top-k cap.
    pub overflows: u64,
    /// Responses with no tuple.
    pub empties: u64,
}

/// A [`DiscoveryMachine`] that records a span around plan generation and
/// around `resume` (control plus `KnowledgeBase` ingest).
#[derive(Debug)]
pub struct TimedMachine<M> {
    inner: M,
}

impl<M: DiscoveryMachine> TimedMachine<M> {
    pub fn new(inner: M) -> Self {
        TimedMachine { inner }
    }
}

impl<M: DiscoveryMachine> DiscoveryMachine for TimedMachine<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn next_plan(&self, limit: usize) -> QueryPlan {
        let _span = span(names::NEXT_PLAN);
        self.inner.next_plan(limit)
    }
    fn resume(&mut self, responses: &[QueryResponse]) {
        let _span = span(names::RESUME);
        self.inner.resume(responses)
    }
    fn halt(&mut self) {
        self.inner.halt()
    }
    fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }
    fn progress(&self) -> RunProgress {
        self.inner.progress()
    }
    fn snapshot(&self) -> AnytimeSnapshot {
        self.inner.snapshot()
    }
    fn take_result(&mut self) -> DiscoveryResult {
        self.inner.take_result()
    }
    fn encode_state(&self, out: &mut Vec<u8>) -> bool {
        self.inner.encode_state(out)
    }
}

/// One recorded plan round trip, replayed by the codec and knowledge
/// passes.
#[derive(Debug, Clone)]
pub struct Exchange {
    pub queries: Vec<Query>,
    pub groups: Option<Vec<PrefixGroup>>,
    pub responses: Vec<QueryResponse>,
}

impl Exchange {
    pub fn plan(&self) -> QueryPlan {
        match &self.groups {
            Some(g) => QueryPlan::with_groups(self.queries.clone(), g.clone()),
            None => QueryPlan::new(self.queries.clone()),
        }
    }

    pub fn tuples(&self) -> impl Iterator<Item = &[Arc<Tuple>]> {
        self.responses.iter().map(|r| r.tuples.as_slice())
    }
}

/// A [`PlanOracle`] that records a span named `layer` around every plan,
/// counts what comes back, and optionally keeps each exchange.
#[derive(Debug)]
pub struct TimedOracle<'a, O> {
    inner: &'a mut O,
    layer: &'static str,
    counts: &'a mut Counts,
    log: Option<&'a mut Vec<Exchange>>,
}

impl<'a, O: PlanOracle> TimedOracle<'a, O> {
    pub fn new(
        inner: &'a mut O,
        layer: &'static str,
        counts: &'a mut Counts,
        log: Option<&'a mut Vec<Exchange>>,
    ) -> Self {
        TimedOracle {
            inner,
            layer,
            counts,
            log,
        }
    }
}

impl<O: PlanOracle> PlanOracle for TimedOracle<'_, O> {
    fn run_plan_grouped(
        &mut self,
        queries: &[Query],
        groups: Option<&[PrefixGroup]>,
    ) -> (Vec<QueryResponse>, Option<QueryError>) {
        let (responses, err) = {
            let _span = span(self.layer);
            self.inner.run_plan_grouped(queries, groups)
        };
        let c = &mut *self.counts;
        c.round_trips += 1;
        c.queries += responses.len() as u64;
        for r in &responses {
            c.tuples_returned += r.len() as u64;
            c.overflows += u64::from(r.overflowed);
            c.empties += u64::from(r.is_empty());
        }
        if let Some(log) = self.log.as_deref_mut() {
            log.push(Exchange {
                queries: queries.to_vec(),
                groups: groups.map(<[PrefixGroup]>::to_vec),
                responses: responses.clone(),
            });
        }
        (responses, err)
    }
}

/// The in-process transport: plans go straight to a [`Session`].
#[derive(Debug)]
pub struct SessionOracle<'db>(pub Session<'db>);

impl PlanOracle for SessionOracle<'_> {
    fn run_plan_grouped(
        &mut self,
        queries: &[Query],
        groups: Option<&[PrefixGroup]>,
    ) -> (Vec<QueryResponse>, Option<QueryError>) {
        self.0.run_plan_grouped(queries, groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyweb_core::{Discoverer, SqDbSky};
    use skyweb_hidden_db::{HiddenDb, InterfaceType, SchemaBuilder};

    fn toy() -> HiddenDb {
        let schema = SchemaBuilder::new()
            .ranking("a", 8, InterfaceType::Sq)
            .ranking("b", 8, InterfaceType::Sq)
            .build();
        let tuples = (0..40)
            .map(|i| Tuple::new(i, vec![(i * 3 % 8) as u32, (i * 5 % 8) as u32]))
            .collect();
        HiddenDb::with_sum_ranking(schema, tuples, 2)
    }

    #[test]
    fn timed_machine_forwards_every_method() {
        let db = toy();
        let mut plain = SqDbSky::new().machine(&db).unwrap();
        let mut timed = TimedMachine::new(SqDbSky::new().machine(&db).unwrap());
        assert_eq!(timed.name(), plain.name());
        let plan = plain.next_plan(4);
        assert_eq!(timed.next_plan(4), plan);
        let responses: Vec<QueryResponse> = plan
            .queries()
            .iter()
            .map(|q| db.query(q).unwrap())
            .collect();
        plain.resume(&responses);
        timed.resume(&responses);
        assert_eq!(timed.progress(), plain.progress());
        assert_eq!(timed.queries_issued(), plain.queries_issued());
        assert_eq!(timed.is_finished(), plain.is_finished());
        assert_eq!(timed.snapshot().queries, plain.snapshot().queries);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        assert_eq!(timed.encode_state(&mut a), plain.encode_state(&mut b));
        assert!(!a.is_empty());
        assert_eq!(a, b, "checkpoint bytes pass through unchanged");
        timed.halt();
        plain.halt();
        assert!(timed.is_finished());
        let (ra, rb) = (timed.take_result(), plain.take_result());
        assert_eq!(ra.query_cost, rb.query_cost);
        assert_eq!(ra.complete, rb.complete);
    }

    #[test]
    fn timed_oracle_counts_and_logs() {
        let db = toy();
        let mut session = SessionOracle(db.session());
        let mut counts = Counts::default();
        let mut log = Vec::new();
        let mut oracle = TimedOracle::new(&mut session, names::ENGINE, &mut counts, Some(&mut log));
        let plan = [Query::select_all(), Query::select_all()];
        let (responses, err) = oracle.run_plan_grouped(&plan, None);
        assert!(err.is_none());
        assert_eq!(responses.len(), 2);
        assert_eq!(counts.round_trips, 1);
        assert_eq!(counts.queries, 2);
        assert_eq!(counts.tuples_returned, 4);
        assert_eq!(counts.overflows, 2);
        assert_eq!(log.len(), 1);
        assert_eq!(session.0.stats().queries, 2);
    }
}
