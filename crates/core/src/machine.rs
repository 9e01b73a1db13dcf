//! The sans-io state-machine layer: every discovery algorithm re-expressed
//! as a [`DiscoveryMachine`] that *yields* query plans and is *resumed* with
//! responses, instead of calling the database itself.
//!
//! The paper's algorithms are *anytime*: after every answered query the
//! client knows a certified subset of the skyline. The old run-to-completion
//! `Discoverer::discover` entry point threw that property away at the API
//! boundary — a caller could not pause, stream, deadline, checkpoint or
//! interleave runs. The machine layer restores it by separating *what to
//! execute* from *how it is driven*:
//!
//! * a **machine** owns the complete client-side state of one run — its
//!   [`KnowledgeBase`], anytime trace and issued-query accounting — and
//!   never touches the database: it hands out a [`QueryPlan`] and consumes
//!   [`QueryResponse`]s (see [`DiscoveryMachine`]);
//! * a **driver** ([`crate::DiscoveryDriver`]) executes a machine against a
//!   [`Session`](skyweb_hidden_db::Session), pipelining multi-query plans
//!   through the batch interface and enforcing budgets and deadlines;
//! * a **service** ([`crate::DiscoveryService`]) multiplexes many machines
//!   over one shared database with round-robin fairness.
//!
//! Because a machine holds no reference to the database (its constructors
//! only copy schema metadata), its state is fully owned and explicit: it can
//! be boxed, moved across threads, kept in a [`crate::Checkpoint`] while the
//! session is gone, and resumed later — the sans-io property.
//!
//! # The plan/resume contract
//!
//! A driver repeatedly:
//!
//! 1. calls [`DiscoveryMachine::next_plan`] with a batch limit; an **empty
//!    plan means the machine is finished**;
//! 2. executes the plan's queries **in order** (all of them — the driver
//!    controls the prefix length through `limit`, not by dropping queries);
//! 3. feeds the responses back **in order** through
//!    [`DiscoveryMachine::resume`]. When the budget or the server's rate
//!    limit cut the plan short, the successfully answered *prefix* is fed
//!    and [`DiscoveryMachine::halt`] is called — the machine then reports
//!    the partial anytime result (`complete == false`).
//!
//! Between a `next_plan` and the matching `resume` the machine's state does
//! not change, so `next_plan` is idempotent: pausing a run at any plan
//! boundary and re-deriving the plan after [`crate::Checkpoint`] restoration
//! yields the same queries.
//!
//! Machines construct plans so that **any** prefix-batching schedule
//! produces the same query sequence, knowledge evolution and anytime trace
//! as the fully sequential one-query-at-a-time schedule. Algorithms whose
//! next query depends on the previous answer (RQ-DB-SKY's adaptive
//! traversal, rectangle sweeps, region crawling) therefore yield
//! single-query plans; algorithms with data-independent frontiers (the
//! SQ-DB-SKY BFS tree, the point-space odometer) yield their whole frontier
//! and profit from batched execution.

use std::fmt;
use std::sync::Arc;

use skyweb_hidden_db::{PrefixGroup, Query, QueryResponse, Tuple};

use crate::discovery::DiscoveryResult;
use crate::KnowledgeBase;

/// An ordered batch of queries a machine wants answered next.
///
/// The queries are independent *as a prefix schedule*: executing any prefix
/// of the plan in order and resuming the machine with the responses is
/// equivalent to the sequential schedule (see the module docs).
///
/// A plan may additionally carry its **sibling-group annotation**
/// ([`QueryPlan::groups`]): the tiling of the plan into runs of queries
/// sharing a predicate prefix, which tree-frontier machines know from
/// construction (children inherit their parent's conjunction). The engine's
/// shared-prefix batch executor uses it to evaluate each shared conjunction
/// once instead of rediscovering the factoring; a plan without the
/// annotation is factored engine-side and executes identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryPlan {
    queries: Vec<Query>,
    groups: Option<Vec<PrefixGroup>>,
}

impl QueryPlan {
    /// Creates a plan from the given queries (no sibling annotation; the
    /// engine factors shared prefixes itself).
    pub fn new(queries: Vec<Query>) -> Self {
        QueryPlan {
            queries,
            groups: None,
        }
    }

    /// Creates a plan with its sibling-group annotation. `groups` must tile
    /// `queries` with literally shared predicate prefixes (the engine
    /// verifies and falls back to its own factoring otherwise, so an
    /// inconsistent annotation costs performance, never correctness).
    pub fn with_groups(queries: Vec<Query>, groups: Vec<PrefixGroup>) -> Self {
        QueryPlan {
            queries,
            groups: Some(groups),
        }
    }

    /// The empty plan (meaning: the machine is finished).
    pub fn empty() -> Self {
        QueryPlan::default()
    }

    /// Number of queries in the plan.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// `true` if the plan carries no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The planned queries, in issue order.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// The plan's sibling-group annotation, if the machine provided one.
    pub fn groups(&self) -> Option<&[PrefixGroup]> {
        self.groups.as_deref()
    }

    /// Consumes the plan into its queries.
    pub fn into_queries(self) -> Vec<Query> {
        self.queries
    }
}

impl From<Vec<Query>> for QueryPlan {
    fn from(queries: Vec<Query>) -> Self {
        QueryPlan::new(queries)
    }
}

/// Allocation-free progress counters of a running machine — what a
/// scheduler polls after every step ([`AnytimeSnapshot`] adds the skyline
/// tuples themselves for streaming consumers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunProgress {
    /// Queries answered so far.
    pub queries: u64,
    /// Number of distinct tuples retrieved so far.
    pub retrieved: usize,
    /// Number of currently certified skyline candidates.
    pub skyline_len: usize,
    /// Queries spent when the first skyline candidate was certified.
    pub first_skyline_at: Option<u64>,
    /// `true` once the machine needs no further queries.
    pub finished: bool,
}

/// A cheap anytime view of a running machine: how much was spent and what
/// is already certified.
#[derive(Debug, Clone)]
pub struct AnytimeSnapshot {
    /// Queries answered so far.
    pub queries: u64,
    /// Number of distinct tuples retrieved so far.
    pub retrieved: usize,
    /// The current certified skyline candidates (shared handles).
    pub skyline: Vec<Arc<Tuple>>,
    /// Queries spent when the first skyline candidate was certified
    /// (`None` until one is) — the anytime "time to first result".
    pub first_skyline_at: Option<u64>,
    /// `true` once the machine needs no further queries (either the run
    /// completed or it was halted).
    pub finished: bool,
}

/// A sans-io skyline-discovery run: the machine yields query plans, the
/// caller executes them and feeds the responses back.
///
/// See the [module docs](self) for the plan/resume contract. All eight
/// paper algorithms implement this trait through the [`Machine`] chassis;
/// [`crate::Discoverer::machine`] compiles an algorithm configuration into
/// a boxed machine for a concrete database schema.
pub trait DiscoveryMachine: fmt::Debug + Send {
    /// Short algorithm name (e.g. `"SQ-DB-SKY"`).
    fn name(&self) -> &str;

    /// The next batch of queries (at most `limit`, which must be ≥ 1) the
    /// machine wants answered, in issue order. An empty plan means the
    /// machine is finished. Idempotent until the next [`resume`] call.
    ///
    /// [`resume`]: DiscoveryMachine::resume
    fn next_plan(&self, limit: usize) -> QueryPlan;

    /// Feeds the responses for a prefix of the most recently planned
    /// queries, in order. Advances the machine's knowledge base, trace and
    /// issued-query accounting.
    fn resume(&mut self, responses: &[QueryResponse]);

    /// Tells the machine that no further queries will be answered (budget,
    /// deadline or rate-limit exhaustion). The machine keeps its anytime
    /// state; [`take_result`](DiscoveryMachine::take_result) then reports
    /// `complete == false` unless the run had already finished.
    fn halt(&mut self);

    /// `true` once the machine needs no further queries.
    fn is_finished(&self) -> bool;

    /// Number of queries answered so far (survives checkpoints, so budget
    /// accounting carries across pause/resume).
    fn queries_issued(&self) -> u64;

    /// Allocation-free progress counters (for per-step polling).
    fn progress(&self) -> RunProgress;

    /// An anytime snapshot of the run (cheap: shared tuple handles).
    fn snapshot(&self) -> AnytimeSnapshot;

    /// Consumes the accumulated knowledge into the final
    /// [`DiscoveryResult`]. Call at most once, after the run finished or
    /// was halted; the machine is left empty afterwards.
    fn take_result(&mut self) -> DiscoveryResult;

    /// Appends the machine's complete state in the binary checkpoint
    /// format (see [`crate::codec`]) to `out` and returns `true`, or
    /// returns `false` without touching `out` when the machine does not
    /// support the codec. The default declines; the [`Machine`] chassis
    /// encodes itself whenever its control reports a
    /// [`MachineControl::codec_tag`].
    fn encode_state(&self, out: &mut Vec<u8>) -> bool {
        let _ = out;
        false
    }
}

impl<M: DiscoveryMachine + ?Sized> DiscoveryMachine for Box<M> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn next_plan(&self, limit: usize) -> QueryPlan {
        (**self).next_plan(limit)
    }
    fn resume(&mut self, responses: &[QueryResponse]) {
        (**self).resume(responses)
    }
    fn halt(&mut self) {
        (**self).halt()
    }
    fn is_finished(&self) -> bool {
        (**self).is_finished()
    }
    fn queries_issued(&self) -> u64 {
        (**self).queries_issued()
    }
    fn progress(&self) -> RunProgress {
        (**self).progress()
    }
    fn snapshot(&self) -> AnytimeSnapshot {
        (**self).snapshot()
    }
    fn take_result(&mut self) -> DiscoveryResult {
        (**self).take_result()
    }
    fn encode_state(&self, out: &mut Vec<u8>) -> bool {
        (**self).encode_state(out)
    }
}

/// The algorithm-specific control state of a machine: which queries to ask
/// next and how an answer changes the traversal.
///
/// Implementations are *pure control flow* over the shared
/// [`KnowledgeBase`]: they hold explicit queues/stacks/frames (no database
/// handles, no I/O) and are driven by the [`Machine`] chassis, which owns
/// the knowledge base and the issued-query accounting. This is the
/// extension point for new discovery strategies: implement `MachineControl`
/// and wrap it in [`Machine::from_parts`].
pub trait MachineControl: fmt::Debug + Send {
    /// Algorithm name.
    fn name(&self) -> &str;

    /// `true` when the traversal has nothing left to ask.
    fn done(&self) -> bool;

    /// Appends up to `limit` next queries to `out`, in issue order. Must
    /// not mutate state and must be prefix-stable (see the module docs).
    fn plan_into(&self, kb: &KnowledgeBase, limit: usize, out: &mut Vec<Query>);

    /// Appends the sibling-group annotation of the same `limit`-bounded
    /// plan to `out` — one [`PrefixGroup`] per run of consecutive queries
    /// sharing a predicate prefix, tiling exactly the queries `plan_into`
    /// emits. The default emits nothing (the engine factors the plan
    /// itself); controls with data-independent frontiers (the SQ BFS tree,
    /// the point-space odometer) override it because they know the sibling
    /// structure from construction.
    fn plan_groups_into(&self, limit: usize, out: &mut Vec<PrefixGroup>) {
        let _ = (limit, out);
    }

    /// Consumes the response to the head query of the current plan:
    /// ingests the tuples into `kb`, records the trace point at `issued`
    /// answered queries, and advances the traversal.
    fn on_response(&mut self, kb: &mut KnowledgeBase, issued: u64, resp: &QueryResponse);

    /// The control's machine tag in the binary checkpoint format (see
    /// [`crate::codec`]), or `None` when the control cannot be serialized.
    /// The default declines, so custom controls are simply not
    /// checkpointable-to-bytes rather than broken.
    fn codec_tag(&self) -> Option<u8> {
        None
    }

    /// Appends the control's codec payload to `out`. Must round-trip with
    /// the decoder registered for [`codec_tag`](MachineControl::codec_tag);
    /// the default (paired with a `None` tag) writes nothing.
    fn encode_control(&self, out: &mut Vec<u8>) {
        let _ = out;
    }
}

/// Shared chassis of all discovery machines: owns the [`KnowledgeBase`],
/// the issued-query counter and the halted flag, and delegates the
/// traversal to a [`MachineControl`].
#[derive(Debug, Clone)]
pub struct Machine<C> {
    kb: KnowledgeBase,
    issued: u64,
    halted: bool,
    /// Issued-query count at which the first skyline candidate was
    /// certified, cached at resume time so progress polling never rescans
    /// the trace.
    first_skyline_at: Option<u64>,
    control: C,
}

impl<C: MachineControl> Machine<C> {
    /// Assembles a machine from a prepared knowledge base and control
    /// state.
    pub fn from_parts(kb: KnowledgeBase, control: C) -> Self {
        Machine {
            kb,
            issued: 0,
            halted: false,
            first_skyline_at: None,
            control,
        }
    }

    /// The algorithm-specific control state.
    pub fn control(&self) -> &C {
        &self.control
    }

    /// The machine's knowledge base (read access; the chassis owns it).
    pub fn knowledge(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// `true` once [`DiscoveryMachine::halt`] was called.
    pub fn halted(&self) -> bool {
        self.halted
    }

    pub(crate) fn finish_parts(&mut self, complete: bool) -> (KnowledgeBase, u64, bool) {
        let kb = std::mem::replace(&mut self.kb, KnowledgeBase::new(Vec::new()));
        (kb, self.issued, complete)
    }

    /// Reassembles a machine from decoded checkpoint state, restoring every
    /// chassis field verbatim (used by [`crate::codec`]).
    pub(crate) fn from_restored(
        kb: KnowledgeBase,
        issued: u64,
        halted: bool,
        first_skyline_at: Option<u64>,
        control: C,
    ) -> Self {
        Machine {
            kb,
            issued,
            halted,
            first_skyline_at,
            control,
        }
    }
}

impl<C: MachineControl> DiscoveryMachine for Machine<C> {
    fn name(&self) -> &str {
        self.control.name()
    }

    fn next_plan(&self, limit: usize) -> QueryPlan {
        if self.halted || self.control.done() {
            return QueryPlan::empty();
        }
        let mut queries = Vec::new();
        self.control.plan_into(&self.kb, limit.max(1), &mut queries);
        let mut groups = Vec::new();
        self.control.plan_groups_into(limit.max(1), &mut groups);
        if groups.is_empty() {
            QueryPlan::new(queries)
        } else {
            QueryPlan::with_groups(queries, groups)
        }
    }

    fn resume(&mut self, responses: &[QueryResponse]) {
        for resp in responses {
            self.issued += 1;
            self.control.on_response(&mut self.kb, self.issued, resp);
            if self.first_skyline_at.is_none() && self.kb.skyline_len() > 0 {
                self.first_skyline_at = Some(self.issued);
            }
        }
    }

    fn halt(&mut self) {
        self.halted = true;
    }

    fn is_finished(&self) -> bool {
        self.halted || self.control.done()
    }

    fn queries_issued(&self) -> u64 {
        self.issued
    }

    fn progress(&self) -> RunProgress {
        RunProgress {
            queries: self.issued,
            retrieved: self.kb.retrieved_len(),
            skyline_len: self.kb.skyline_len(),
            first_skyline_at: self.first_skyline_at,
            finished: self.is_finished(),
        }
    }

    fn snapshot(&self) -> AnytimeSnapshot {
        AnytimeSnapshot {
            queries: self.issued,
            retrieved: self.kb.retrieved_len(),
            skyline: self.kb.skyline_tuples(),
            first_skyline_at: self.first_skyline_at,
            finished: self.is_finished(),
        }
    }

    fn take_result(&mut self) -> DiscoveryResult {
        let complete = self.control.done() && !self.halted;
        let (kb, issued, complete) = self.finish_parts(complete);
        kb.finish(issued, complete)
    }

    fn encode_state(&self, out: &mut Vec<u8>) -> bool {
        let Some(tag) = self.control.codec_tag() else {
            return false;
        };
        crate::codec::put_u8(out, tag);
        crate::codec::put_u64(out, self.issued);
        crate::codec::put_bool(out, self.halted);
        crate::codec::put_opt_u64(out, self.first_skyline_at);
        self.kb.encode(out);
        self.control.encode_control(out);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct CountDown {
        left: usize,
    }

    impl MachineControl for CountDown {
        fn name(&self) -> &str {
            "COUNTDOWN"
        }
        fn done(&self) -> bool {
            self.left == 0
        }
        fn plan_into(&self, _kb: &KnowledgeBase, limit: usize, out: &mut Vec<Query>) {
            for _ in 0..self.left.min(limit) {
                out.push(Query::select_all());
            }
        }
        fn on_response(&mut self, kb: &mut KnowledgeBase, issued: u64, resp: &QueryResponse) {
            kb.ingest(&resp.tuples);
            kb.record(issued);
            self.left -= 1;
        }
    }

    fn resp(tuples: Vec<Tuple>) -> QueryResponse {
        QueryResponse {
            tuples: tuples.into_iter().map(Arc::new).collect(),
            overflowed: false,
        }
    }

    #[test]
    fn chassis_tracks_plans_responses_and_halt() {
        let mut m = Machine::from_parts(KnowledgeBase::new(vec![0]), CountDown { left: 3 });
        assert_eq!(m.next_plan(2).len(), 2);
        assert_eq!(m.next_plan(9).len(), 3); // idempotent until resumed
        m.resume(&[resp(vec![Tuple::new(0, vec![4])]), resp(vec![])]);
        assert_eq!(m.queries_issued(), 2);
        assert_eq!(m.next_plan(9).len(), 1);
        assert!(!m.is_finished());
        let snap = m.snapshot();
        assert_eq!(snap.queries, 2);
        assert_eq!(snap.retrieved, 1);
        m.halt();
        assert!(m.is_finished());
        assert!(m.next_plan(4).is_empty());
        let result = m.take_result();
        assert!(!result.complete);
        assert_eq!(result.query_cost, 2);
        assert_eq!(result.trace.len(), 2);
    }

    #[test]
    fn finished_control_reports_complete() {
        let mut m = Machine::from_parts(KnowledgeBase::new(vec![0]), CountDown { left: 1 });
        m.resume(&[resp(vec![])]);
        assert!(m.is_finished());
        let result = m.take_result();
        assert!(result.complete);
        assert_eq!(result.query_cost, 1);
    }

    /// The knowledge base and the machines that probe it are `Send + Sync`,
    /// so a cached decision or a lazily built index cannot slip in through
    /// a `Cell` or a `RefCell`: this fails to compile if one does.
    #[test]
    fn knowledge_and_rq_walk_machines_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<KnowledgeBase>();
        assert_send_sync::<skyweb_skyline::incremental::IncrementalSkyline>();
        assert_send_sync::<crate::RqMachine>();
        assert_send_sync::<crate::MqMachine>();
        assert_send_sync::<crate::SkybandMachine>();
    }
}
