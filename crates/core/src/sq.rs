//! SQ-DB-SKY (Algorithm 1 of the paper): skyline discovery through an
//! interface that supports **one-ended** range predicates.
//!
//! The algorithm grows a query tree breadth-first. The root is `SELECT *`.
//! Whenever a query `q` comes back with `k` tuples (i.e. it may have
//! overflowed), the top-ranked returned tuple `t` is used as a *pivot*:
//! `m` child queries are generated by appending `A_i < t[A_i]` to `q`, one
//! per ranking attribute. Every skyline tuple matching `q` must outrank `t`
//! on at least one attribute (otherwise it would be dominated by `t`), so it
//! matches at least one child — which is what guarantees complete discovery
//! (Theorem 2). The top-ranked tuple of every issued query is itself a
//! skyline tuple, which gives the algorithm its *anytime* property.

use std::collections::VecDeque;

use skyweb_hidden_db::{HiddenDb, InterfaceType, Predicate, PrefixGroup, Query, QueryResponse};

use crate::codec::{self, CodecError, Reader};
use crate::machine::{DiscoveryMachine, Machine, MachineControl};
use crate::{Discoverer, DiscoveryError, KnowledgeBase};

/// The sans-io machine form of [`SqDbSky`]: yields the whole BFS frontier
/// as one batched plan per round.
pub type SqMachine = Machine<SqControl>;

/// SQ-DB-SKY: skyline discovery for databases whose ranking attributes all
/// support one-ended range predicates (`<`, `<=`, `=`).
#[derive(Debug, Clone, Default)]
pub struct SqDbSky;

impl SqDbSky {
    /// Creates the algorithm.
    pub fn new() -> Self {
        SqDbSky
    }

    fn check_interface(db: &HiddenDb) -> Result<(), DiscoveryError> {
        for &a in db.schema().ranking_attrs() {
            let spec = db.schema().attr(a);
            if spec.interface == InterfaceType::Pq {
                return Err(DiscoveryError::UnsupportedInterface {
                    reason: format!(
                        "SQ-DB-SKY needs one-ended ranges on every ranking attribute, \
                         but '{}' only supports point predicates",
                        spec.name
                    ),
                });
            }
        }
        Ok(())
    }

    /// Builds the concrete machine (also available through the boxed
    /// [`Discoverer::machine`] entry point).
    pub fn build_machine(&self, db: &HiddenDb) -> Result<SqMachine, DiscoveryError> {
        Self::check_interface(db)?;
        let attrs: Vec<usize> = db.schema().ranking_attrs().to_vec();
        let walk = SqTreeWalk::new(Query::select_all(), attrs.clone(), db.k());
        Ok(Machine::from_parts(
            KnowledgeBase::new(attrs),
            SqControl { walk },
        ))
    }
}

/// The breadth-first SQ query tree, rooted anywhere and branching on an
/// arbitrary attribute subset — the building block shared by SQ-DB-SKY,
/// MQ-DB-SKY's range phase and its mixed-interface leaf subspaces.
///
/// The BFS frontier is *data-independent as a prefix schedule*: a query's
/// children join the back of the queue, behind every query already
/// enqueued, so issuing any prefix of the queue as one batch and ingesting
/// the answers in order reproduces the sequential (one query per
/// round-trip) knowledge evolution exactly. [`SqTreeWalk::plan_into`]
/// therefore exposes the whole frontier for pipelined execution — this is
/// the fig14/fig15 `Client::query` round-trip hot spot batched away.
///
/// The frontier also knows its **sibling structure** from construction:
/// one expansion pushes `m` children that all extend the same parent
/// conjunction, so a plan tiles into runs sharing the parent as predicate
/// prefix. [`SqTreeWalk::plan_groups_into`] exposes that tiling so the
/// engine's shared-prefix batch executor evaluates each parent conjunction
/// once per sibling run instead of once per child (and never has to
/// rediscover the factoring).
#[derive(Debug, Clone)]
pub(crate) struct SqTreeWalk {
    queue: VecDeque<PendingQuery>,
    branch: Vec<usize>,
    k: usize,
    /// Next sibling-group id (one per expansion; the root is group 0).
    next_group: u64,
}

/// One enqueued frontier query plus its sibling-group annotation.
#[derive(Debug, Clone)]
struct PendingQuery {
    query: Query,
    /// All children pushed by one expansion share one group id (two
    /// adjacent expansions can share a prefix *length* without sharing the
    /// prefix itself, so runs are cut by id, not by length).
    group: u64,
    /// Length of the parent conjunction the group's members share.
    prefix_len: usize,
}

impl SqTreeWalk {
    pub(crate) fn new(root: Query, branch: Vec<usize>, k: usize) -> Self {
        let mut queue = VecDeque::new();
        queue.push_back(PendingQuery {
            query: root,
            group: 0,
            prefix_len: 0,
        });
        SqTreeWalk {
            queue,
            branch,
            k,
            next_group: 1,
        }
    }

    pub(crate) fn done(&self) -> bool {
        self.queue.is_empty()
    }

    pub(crate) fn plan_into(&self, limit: usize, out: &mut Vec<Query>) {
        out.extend(self.queue.iter().take(limit).map(|p| p.query.clone()));
    }

    /// The sibling tiling of the same `limit`-bounded plan: maximal runs of
    /// consecutive frontier entries from the same expansion.
    pub(crate) fn plan_groups_into(&self, limit: usize, out: &mut Vec<PrefixGroup>) {
        let mut pending = self.queue.iter().take(limit);
        let Some(first) = pending.next() else {
            return;
        };
        let (mut group, mut prefix_len, mut len) = (first.group, first.prefix_len, 1usize);
        for p in pending {
            if p.group == group {
                len += 1;
            } else {
                out.push(PrefixGroup { len, prefix_len });
                (group, prefix_len, len) = (p.group, p.prefix_len, 1);
            }
        }
        out.push(PrefixGroup { len, prefix_len });
    }

    pub(crate) fn on_response(
        &mut self,
        kb: &mut KnowledgeBase,
        issued: u64,
        resp: &QueryResponse,
    ) {
        #[expect(
            clippy::expect_used,
            reason = "drive() protocol invariant: a response only arrives for the query this machine just emitted"
        )]
        let q = self
            .queue
            .pop_front()
            .expect("a response arrived without a pending query")
            .query;
        kb.ingest(&resp.tuples);
        kb.record(issued);
        // "if T contains k tuples": the query may have been truncated,
        // so the subspace must be subdivided further. (A client facing a
        // real web form cannot observe the overflow flag, only the
        // answer size.)
        if resp.tuples.len() == self.k {
            let pivot = resp.tuples[0].clone();
            let group = self.next_group;
            self.next_group += 1;
            for &a in &self.branch {
                self.queue.push_back(PendingQuery {
                    query: q.and(Predicate::lt(a, pivot.values[a])),
                    group,
                    prefix_len: q.len(),
                });
            }
        }
    }

    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        codec::put_usize(out, self.queue.len());
        for p in &self.queue {
            codec::put_query(out, &p.query);
            codec::put_u64(out, p.group);
            codec::put_usize(out, p.prefix_len);
        }
        codec::put_usize_slice(out, &self.branch);
        codec::put_usize(out, self.k);
        codec::put_u64(out, self.next_group);
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.usize()?;
        let mut queue = VecDeque::new();
        for _ in 0..n {
            let query = codec::read_query(r)?;
            let group = r.u64()?;
            let prefix_len = r.usize()?;
            queue.push_back(PendingQuery {
                query,
                group,
                prefix_len,
            });
        }
        let branch = codec::read_usize_vec(r)?;
        let k = r.usize()?;
        let next_group = r.u64()?;
        Ok(SqTreeWalk {
            queue,
            branch,
            k,
            next_group,
        })
    }
}

/// Control state of [`SqMachine`]: the BFS query tree of SQ-DB-SKY.
#[derive(Debug, Clone)]
pub struct SqControl {
    walk: SqTreeWalk,
}

impl SqControl {
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SqControl {
            walk: SqTreeWalk::decode(r)?,
        })
    }
}

impl MachineControl for SqControl {
    fn name(&self) -> &str {
        "SQ-DB-SKY"
    }

    fn done(&self) -> bool {
        self.walk.done()
    }

    fn plan_into(&self, _kb: &KnowledgeBase, limit: usize, out: &mut Vec<Query>) {
        self.walk.plan_into(limit, out);
    }

    fn plan_groups_into(&self, limit: usize, out: &mut Vec<PrefixGroup>) {
        self.walk.plan_groups_into(limit, out);
    }

    fn on_response(&mut self, kb: &mut KnowledgeBase, issued: u64, resp: &QueryResponse) {
        self.walk.on_response(kb, issued, resp);
    }

    fn codec_tag(&self) -> Option<u8> {
        Some(codec::TAG_SQ)
    }

    fn encode_control(&self, out: &mut Vec<u8>) {
        self.walk.encode(out);
    }
}

impl Discoverer for SqDbSky {
    fn name(&self) -> &str {
        "SQ-DB-SKY"
    }

    fn machine(&self, db: &HiddenDb) -> Result<Box<dyn DiscoveryMachine>, DiscoveryError> {
        Ok(Box::new(self.build_machine(db)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyweb_hidden_db::{PlanOracle, SchemaBuilder, SumRanker, Tuple};
    use skyweb_skyline::{bnl_skyline, same_ids};

    fn schema(m: usize, domain: u32, interface: InterfaceType) -> skyweb_hidden_db::Schema {
        let mut b = SchemaBuilder::new();
        for i in 0..m {
            b = b.ranking(format!("a{i}"), domain, interface);
        }
        b.build()
    }

    /// The paper's running example (Figure 2).
    fn figure2_db(k: usize) -> HiddenDb {
        let tuples = vec![
            Tuple::new(1, vec![5, 1, 9]),
            Tuple::new(2, vec![4, 4, 8]),
            Tuple::new(3, vec![1, 3, 7]),
            Tuple::new(4, vec![3, 2, 3]),
        ];
        HiddenDb::new(
            schema(3, 10, InterfaceType::Sq),
            tuples,
            Box::new(SumRanker),
            k,
        )
    }

    #[test]
    fn discovers_all_skyline_tuples_of_the_paper_example() {
        let db = figure2_db(1);
        let result = SqDbSky::new().discover(&db).unwrap();
        assert!(result.complete);
        let truth = bnl_skyline(db.oracle_tuples().as_slice(), db.schema());
        assert!(same_ids(&result.skyline, &truth));
        assert_eq!(result.query_cost, db.queries_issued());
        assert!(result.query_cost >= truth.len() as u64);
    }

    #[test]
    fn larger_k_reduces_query_cost() {
        let db1 = figure2_db(1);
        let db3 = figure2_db(3);
        let c1 = SqDbSky::new().discover(&db1).unwrap().query_cost;
        let c3 = SqDbSky::new().discover(&db3).unwrap().query_cost;
        assert!(c3 <= c1, "k=3 cost {c3} should not exceed k=1 cost {c1}");
    }

    #[test]
    fn single_skyline_tuple_costs_m_plus_one_queries() {
        // With |S| = 1 the analysis says the cost is exactly m + 1.
        let m = 4;
        let tuples = vec![
            Tuple::new(0, vec![0, 0, 0, 0]),
            Tuple::new(1, vec![3, 3, 3, 3]),
            Tuple::new(2, vec![5, 2, 4, 4]),
        ];
        let db = HiddenDb::new(
            schema(m, 10, InterfaceType::Sq),
            tuples,
            Box::new(SumRanker),
            1,
        );
        let result = SqDbSky::new().discover(&db).unwrap();
        assert_eq!(result.skyline.len(), 1);
        assert_eq!(result.query_cost, (m + 1) as u64);
    }

    #[test]
    fn works_on_rq_interfaces_too() {
        // RQ is strictly stronger than SQ, so SQ-DB-SKY must run unchanged.
        let tuples = vec![
            Tuple::new(0, vec![2, 7]),
            Tuple::new(1, vec![5, 3]),
            Tuple::new(2, vec![8, 1]),
            Tuple::new(3, vec![6, 6]),
        ];
        let db = HiddenDb::new(
            schema(2, 10, InterfaceType::Rq),
            tuples,
            Box::new(SumRanker),
            1,
        );
        let result = SqDbSky::new().discover(&db).unwrap();
        let truth = bnl_skyline(db.oracle_tuples().as_slice(), db.schema());
        assert!(same_ids(&result.skyline, &truth));
    }

    #[test]
    fn rejects_point_query_attributes() {
        let db = HiddenDb::new(
            schema(2, 5, InterfaceType::Pq),
            vec![Tuple::new(0, vec![1, 1])],
            Box::new(SumRanker),
            1,
        );
        let err = SqDbSky::new().discover(&db).unwrap_err();
        assert!(matches!(err, DiscoveryError::UnsupportedInterface { .. }));
    }

    #[test]
    fn an_exhausted_budget_yields_partial_anytime_result() {
        let db = figure2_db(1);
        let result = crate::discovery::run_budgeted(&SqDbSky::new(), &db, 2);
        assert!(!result.complete);
        assert_eq!(result.query_cost, 2);
        // Everything reported is a true skyline tuple.
        let truth = bnl_skyline(db.oracle_tuples().as_slice(), db.schema());
        let truth_ids: Vec<u64> = truth.iter().map(|t| t.id).collect();
        assert!(result.skyline.iter().all(|t| truth_ids.contains(&t.id)));
        assert!(!result.skyline.is_empty());
    }

    #[test]
    fn trace_is_monotone_and_aligned_with_cost() {
        let db = figure2_db(1);
        let result = SqDbSky::new().discover(&db).unwrap();
        assert_eq!(result.trace.len() as u64, result.query_cost);
        let mut prev = 0;
        for p in &result.trace {
            assert!(p.skyline_found >= prev);
            prev = p.skyline_found;
        }
    }

    #[test]
    fn frontier_plans_carry_valid_sibling_annotations() {
        use crate::machine::DiscoveryMachine;
        let db = figure2_db(1);
        let mut machine = SqDbSky::new().build_machine(&db).unwrap();
        let mut session = db.session();
        let mut saw_multi_member_group = false;
        loop {
            let plan = machine.next_plan(64);
            if plan.is_empty() {
                break;
            }
            let groups = plan.groups().expect("SQ plans are always annotated");
            assert!(
                skyweb_hidden_db::groups_cover(plan.queries(), groups),
                "annotation must tile the plan with literally shared prefixes"
            );
            // Sibling runs deeper than the root share their parent's whole
            // conjunction: every member is the prefix plus one predicate.
            let mut pos = 0;
            for g in groups {
                if g.len > 1 {
                    saw_multi_member_group = true;
                    for q in &plan.queries()[pos..pos + g.len] {
                        assert_eq!(q.len(), g.prefix_len + 1);
                    }
                }
                pos += g.len;
            }
            let (responses, err) = session.run_plan_grouped(plan.queries(), plan.groups());
            assert!(err.is_none());
            machine.resume(&responses);
        }
        assert!(
            saw_multi_member_group,
            "the BFS tree must have sibling runs"
        );
        let result = machine.take_result();
        let truth = bnl_skyline(db.oracle_tuples().as_slice(), db.schema());
        assert!(same_ids(&result.skyline, &truth));
    }

    #[test]
    fn empty_database() {
        let db = HiddenDb::new(
            schema(2, 10, InterfaceType::Sq),
            vec![],
            Box::new(SumRanker),
            1,
        );
        let result = SqDbSky::new().discover(&db).unwrap();
        assert!(result.complete);
        assert!(result.skyline.is_empty());
        assert_eq!(result.query_cost, 1);
    }
}
