//! RQ-DB-SKY (Algorithm 2 of the paper): skyline discovery through an
//! interface that supports **two-ended** range predicates.
//!
//! The algorithm traverses the same conceptual query tree as
//! [SQ-DB-SKY](crate::SqDbSky) in depth-first preorder, but exploits the
//! two-ended interface in two ways:
//!
//! 1. Before issuing a node's (one-ended) query `q`, it checks the tuples
//!    retrieved so far. If none of them matches `q`, issuing `q` is safe and
//!    behaves exactly like SQ-DB-SKY.
//! 2. Otherwise it issues the *mutually exclusive* counterpart `R(q)`,
//!    which covers the value combinations matching `q` but none of the
//!    queries visited earlier in the traversal (built by replacing each
//!    branch predicate `A_i < t[A_i]` with
//!    `A_1 ≥ t[A_1] ∧ … ∧ A_{i-1} ≥ t[A_{i-1}] ∧ A_i < t[A_i]`). If `R(q)`
//!    comes back empty, the whole subtree can be abandoned — the
//!    early-termination that makes RQ-DB-SKY far cheaper than SQ-DB-SKY when
//!    the skyline is large.
//!
//! When `R(q)` returns a tuple that is dominated by an already discovered
//! skyline tuple `t'`, the children are generated from `t'` (the stronger
//! pivot), otherwise from the returned tuple itself.

use skyweb_hidden_db::{HiddenDb, InterfaceType, Predicate, Query, QueryResponse, Tuple};

use crate::codec::{self, CodecError, Reader};
use crate::machine::{DiscoveryMachine, Machine, MachineControl};
use crate::{Discoverer, DiscoveryError, KnowledgeBase};

/// The sans-io machine form of [`RqDbSky`].
///
/// RQ plans are single-query by construction: whether a node issues `q` or
/// its exclusive counterpart `R(q)`, and whether its subtree is expanded or
/// abandoned, both consume the *previous* answer — the adaptivity that
/// makes RQ-DB-SKY cheaper than SQ-DB-SKY is exactly what rules out
/// batching its frontier without speculating server-billed queries.
pub type RqMachine = Machine<RqControl>;

/// RQ-DB-SKY: skyline discovery for databases whose ranking attributes all
/// support two-ended range predicates.
#[derive(Debug, Clone, Default)]
pub struct RqDbSky {
    budget: Option<u64>,
}

/// A node of the traversal: the SQ-tree query and its mutually exclusive
/// counterpart.
#[derive(Debug, Clone)]
struct Node {
    sq: Query,
    rq: Query,
}

impl RqDbSky {
    /// Creates the algorithm with no client-side query budget.
    pub fn new() -> Self {
        RqDbSky::default()
    }

    /// Limits the number of queries the algorithm may issue (anytime mode).
    pub fn with_budget(budget: u64) -> Self {
        RqDbSky {
            budget: Some(budget),
        }
    }

    fn check_interface(db: &HiddenDb) -> Result<(), DiscoveryError> {
        for &a in db.schema().ranking_attrs() {
            let spec = db.schema().attr(a);
            if spec.interface != InterfaceType::Rq {
                return Err(DiscoveryError::UnsupportedInterface {
                    reason: format!(
                        "RQ-DB-SKY needs two-ended ranges on every ranking attribute, \
                         but '{}' is {}",
                        spec.name,
                        spec.interface.label()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Generates the children of a node for the given pivot tuple, in branch
    /// order (attribute 0 first).
    fn children(node: &Node, pivot: &Tuple, attrs: &[usize]) -> Vec<Node> {
        let mut out = Vec::with_capacity(attrs.len());
        for (i, &a) in attrs.iter().enumerate() {
            let sq = node.sq.and(Predicate::lt(a, pivot.values[a]));
            let mut rq = node.rq.clone();
            for &earlier in &attrs[..i] {
                rq.push(Predicate::ge(earlier, pivot.values[earlier]));
            }
            rq.push(Predicate::lt(a, pivot.values[a]));
            out.push(Node { sq, rq });
        }
        out
    }

    /// Builds the concrete machine (also available through the boxed
    /// [`Discoverer::machine`] entry point).
    pub fn build_machine(&self, db: &HiddenDb) -> Result<RqMachine, DiscoveryError> {
        Self::check_interface(db)?;
        let attrs: Vec<usize> = db.schema().ranking_attrs().to_vec();
        let walk = RqTreeWalk::new(Query::select_all(), attrs.clone(), db.k());
        Ok(Machine::from_parts(
            KnowledgeBase::new(attrs),
            RqControl { walk },
        ))
    }
}

/// The depth-first RQ traversal, rooted anywhere and branching on an
/// arbitrary attribute subset — shared by RQ-DB-SKY, MQ-DB-SKY's range
/// phase and the sky-band extension (which roots the traversal in a
/// domination subspace).
///
/// The sq-vs-rq decision for a node is evaluated against the knowledge
/// base both when the plan is derived and when the response is consumed;
/// the two agree because plans are single-query (nothing is ingested in
/// between) and `any_seen_matches` is monotone in the retrieved set.
#[derive(Debug, Clone)]
pub(crate) struct RqTreeWalk {
    stack: Vec<Node>,
    branch: Vec<usize>,
    k: usize,
}

impl RqTreeWalk {
    pub(crate) fn new(root: Query, branch: Vec<usize>, k: usize) -> Self {
        RqTreeWalk {
            stack: vec![Node {
                sq: root.clone(),
                rq: root,
            }],
            branch,
            k,
        }
    }

    pub(crate) fn done(&self) -> bool {
        self.stack.is_empty()
    }

    pub(crate) fn plan_into(&self, kb: &KnowledgeBase, out: &mut Vec<Query>) {
        if let Some(node) = self.stack.last() {
            if kb.any_seen_matches(&node.sq) {
                out.push(node.rq.clone());
            } else {
                out.push(node.sq.clone());
            }
        }
    }

    pub(crate) fn on_response(
        &mut self,
        kb: &mut KnowledgeBase,
        issued: u64,
        resp: &QueryResponse,
    ) {
        #[expect(
            clippy::expect_used,
            reason = "drive() protocol invariant: a response only arrives for the node plan this machine just emitted"
        )]
        let node = self
            .stack
            .pop()
            .expect("a response arrived without a pending node");
        // Same decision the plan was derived from (kb unchanged since).
        let exclusive = kb.any_seen_matches(&node.sq);
        kb.ingest(&resp.tuples);
        kb.record(issued);
        let expand_pivot: Option<std::sync::Arc<Tuple>> = if !exclusive {
            // The node's own (one-ended) query q was issued.
            if resp.tuples.len() == self.k {
                Some(std::sync::Arc::clone(&resp.tuples[0]))
            } else {
                None
            }
        } else if resp.tuples.is_empty() {
            // R(q) came back empty: no new tuple in this subtree.
            None
        } else if resp.tuples.len() == self.k {
            // Children are generated from a dominating skyline tuple
            // if one exists, otherwise from the returned top tuple.
            // The pivot must itself satisfy the node's query so that
            // "dominated by the pivot" implies "dominated inside the
            // subspace rooted here" (relevant when the traversal is
            // rooted in a domination subspace for sky-band
            // discovery).
            let top = &resp.tuples[0];
            let pivot = kb
                .dominated_by_skyline(top)
                .filter(|p| node.sq.matches(p))
                .map(std::sync::Arc::clone)
                .unwrap_or_else(|| std::sync::Arc::clone(top));
            Some(pivot)
        } else {
            // R(q) underflowed: every tuple in its (exclusive)
            // region has been retrieved; nothing left in the subtree.
            None
        };

        if let Some(pivot) = expand_pivot {
            for child in RqDbSky::children(&node, &pivot, &self.branch)
                .into_iter()
                .rev()
            {
                self.stack.push(child);
            }
        }
    }

    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        codec::put_usize(out, self.stack.len());
        for node in &self.stack {
            codec::put_query(out, &node.sq);
            codec::put_query(out, &node.rq);
        }
        codec::put_usize_slice(out, &self.branch);
        codec::put_usize(out, self.k);
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.usize()?;
        let mut stack = Vec::new();
        for _ in 0..n {
            let sq = codec::read_query(r)?;
            let rq = codec::read_query(r)?;
            stack.push(Node { sq, rq });
        }
        let branch = codec::read_usize_vec(r)?;
        let k = r.usize()?;
        Ok(RqTreeWalk { stack, branch, k })
    }
}

/// Control state of [`RqMachine`]: the depth-first RQ traversal of
/// RQ-DB-SKY.
#[derive(Debug, Clone)]
pub struct RqControl {
    walk: RqTreeWalk,
}

impl RqControl {
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(RqControl {
            walk: RqTreeWalk::decode(r)?,
        })
    }
}

impl MachineControl for RqControl {
    fn name(&self) -> &str {
        "RQ-DB-SKY"
    }

    fn done(&self) -> bool {
        self.walk.done()
    }

    fn plan_into(&self, kb: &KnowledgeBase, _limit: usize, out: &mut Vec<Query>) {
        self.walk.plan_into(kb, out);
    }

    fn on_response(&mut self, kb: &mut KnowledgeBase, issued: u64, resp: &QueryResponse) {
        self.walk.on_response(kb, issued, resp);
    }

    fn codec_tag(&self) -> Option<u8> {
        Some(codec::TAG_RQ)
    }

    fn encode_control(&self, out: &mut Vec<u8>) {
        self.walk.encode(out);
    }
}

impl Discoverer for RqDbSky {
    fn name(&self) -> &str {
        "RQ-DB-SKY"
    }

    fn budget(&self) -> Option<u64> {
        self.budget
    }

    fn machine(&self, db: &HiddenDb) -> Result<Box<dyn DiscoveryMachine>, DiscoveryError> {
        Ok(Box::new(self.build_machine(db)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyweb_hidden_db::{RandomSkylineRanker, SchemaBuilder, SumRanker};
    use skyweb_skyline::{bnl_skyline, same_ids};

    fn schema(m: usize, domain: u32) -> skyweb_hidden_db::Schema {
        let mut b = SchemaBuilder::new();
        for i in 0..m {
            b = b.ranking(format!("a{i}"), domain, InterfaceType::Rq);
        }
        b.build()
    }

    fn figure2_db(k: usize) -> HiddenDb {
        let tuples = vec![
            Tuple::new(1, vec![5, 1, 9]),
            Tuple::new(2, vec![4, 4, 8]),
            Tuple::new(3, vec![1, 3, 7]),
            Tuple::new(4, vec![3, 2, 3]),
        ];
        HiddenDb::new(schema(3, 10), tuples, Box::new(SumRanker), k)
    }

    #[test]
    fn discovers_all_skyline_tuples_of_the_paper_example() {
        let db = figure2_db(1);
        let result = RqDbSky::new().discover(&db).unwrap();
        assert!(result.complete);
        let truth = bnl_skyline(db.oracle_tuples().as_slice(), db.schema());
        assert!(same_ids(&result.skyline, &truth));
    }

    #[test]
    fn never_more_expensive_than_sq_on_anticorrelated_data() {
        // Anti-correlated data: every tuple is on the skyline, which is
        // exactly where RQ-DB-SKY's early termination pays off.
        let n = 40u64;
        let tuples: Vec<Tuple> = (0..n)
            .map(|i| Tuple::new(i, vec![i as u32, (n - 1 - i) as u32]))
            .collect();
        let db_rq = HiddenDb::new(schema(2, 64), tuples.clone(), Box::new(SumRanker), 1);
        let db_sq = HiddenDb::new(schema(2, 64), tuples, Box::new(SumRanker), 1);
        let rq = RqDbSky::new().discover(&db_rq).unwrap();
        let sq = crate::SqDbSky::new().discover(&db_sq).unwrap();
        assert_eq!(rq.skyline.len(), n as usize);
        assert_eq!(sq.skyline.len(), n as usize);
        assert!(
            rq.query_cost <= sq.query_cost,
            "RQ ({}) should not exceed SQ ({}) when |S| is large",
            rq.query_cost,
            sq.query_cost
        );
    }

    #[test]
    fn complete_under_a_randomized_ranking_function() {
        // Duplicate-free data (general positioning assumption).
        let tuples = skyweb_datagen::synthetic::distinct_cells(&[50, 50, 50], 60, 37);
        let db = HiddenDb::new(
            schema(3, 50),
            tuples,
            Box::new(RandomSkylineRanker::new(123)),
            2,
        );
        let result = RqDbSky::new().discover(&db).unwrap();
        let truth = bnl_skyline(db.oracle_tuples().as_slice(), db.schema());
        assert!(same_ids(&result.skyline, &truth));
    }

    #[test]
    fn rejects_one_ended_interfaces() {
        let s = SchemaBuilder::new()
            .ranking("a", 10, InterfaceType::Sq)
            .ranking("b", 10, InterfaceType::Rq)
            .build();
        let db = HiddenDb::new(s, vec![Tuple::new(0, vec![1, 1])], Box::new(SumRanker), 1);
        let err = RqDbSky::new().discover(&db).unwrap_err();
        assert!(matches!(err, DiscoveryError::UnsupportedInterface { .. }));
    }

    #[test]
    fn budget_exhaustion_yields_partial_anytime_result() {
        let db = figure2_db(1);
        let result = RqDbSky::with_budget(3).discover(&db).unwrap();
        assert!(!result.complete);
        assert_eq!(result.query_cost, 3);
        let truth = bnl_skyline(db.oracle_tuples().as_slice(), db.schema());
        let truth_ids: Vec<u64> = truth.iter().map(|t| t.id).collect();
        assert!(result.skyline.iter().all(|t| truth_ids.contains(&t.id)));
    }

    #[test]
    fn larger_k_reduces_query_cost() {
        let c1 = RqDbSky::new().discover(&figure2_db(1)).unwrap().query_cost;
        let c4 = RqDbSky::new().discover(&figure2_db(4)).unwrap().query_cost;
        assert!(c4 <= c1);
    }

    #[test]
    fn empty_database() {
        let db = HiddenDb::new(schema(2, 10), vec![], Box::new(SumRanker), 1);
        let result = RqDbSky::new().discover(&db).unwrap();
        assert!(result.complete);
        assert!(result.skyline.is_empty());
        assert_eq!(result.query_cost, 1);
    }

    #[test]
    fn children_are_mutually_exclusive() {
        let node = Node {
            sq: Query::select_all(),
            rq: Query::select_all(),
        };
        let pivot = Tuple::new(0, vec![5, 5, 5]);
        let children = RqDbSky::children(&node, &pivot, &[0, 1, 2]);
        assert_eq!(children.len(), 3);
        // A tuple can match at most one of the exclusive (rq) children.
        for probe in [
            Tuple::new(1, vec![2, 9, 9]),
            Tuple::new(2, vec![9, 2, 9]),
            Tuple::new(3, vec![9, 9, 2]),
            Tuple::new(4, vec![2, 2, 2]),
        ] {
            let matches = children.iter().filter(|c| c.rq.matches(&probe)).count();
            assert!(
                matches <= 1,
                "tuple {probe:?} matched {matches} exclusive children"
            );
            // ... but at least one of the (overlapping) SQ children whenever
            // the tuple beats the pivot somewhere.
            let sq_matches = children.iter().filter(|c| c.sq.matches(&probe)).count();
            assert!(sq_matches >= 1);
        }
    }
}
