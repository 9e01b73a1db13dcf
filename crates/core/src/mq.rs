//! MQ-DB-SKY (Algorithm 6 of the paper): skyline discovery over a search
//! interface with an arbitrary **mixture** of one-ended range (SQ),
//! two-ended range (RQ) and point (PQ) attributes.
//!
//! The algorithm runs in two phases:
//!
//! 1. **Range phase** — run the SQ/RQ query-tree over the range attributes
//!    only, leaving the point attributes unconstrained. Every tuple returned
//!    as a top answer here is a true skyline tuple, but tuples that are
//!    dominated *on the range attributes* by another tuple (while beating it
//!    on a point attribute) are missed.
//! 2. **Point phase** (the `MIXED-DB-SKY` subroutine) — by the
//!    *range-domination property*, every missing skyline tuple is dominated
//!    on all range attributes by some phase-1 skyline tuple and beats it on
//!    at least one point attribute. The search space is therefore pruned to
//!    `A_r ≥ min_{t ∈ S}(t[A_r])` on every two-ended range attribute, and
//!    the point attributes are explored value by value: for each point
//!    attribute `B_i` and each value `v` better than the worst value seen on
//!    the phase-1 skyline, the query `P ∧ B_i = v` is issued; overflowing
//!    answers are refined by recursively fixing the remaining point
//!    attributes (stopping as soon as an answer is empty) and, once all
//!    point attributes are pinned, by crawling the remaining range subspace.
//!
//! When the database has only range attributes MQ-DB-SKY reduces to
//! SQ-/RQ-DB-SKY; with only point attributes it reduces to PQ-DB-SKY.

use std::collections::HashSet;

use skyweb_hidden_db::{HiddenDb, InterfaceType, Predicate, Query, QueryResponse, Value};

use crate::baseline::RegionCrawl;
use crate::codec::{self, CodecError, Reader};
use crate::machine::{DiscoveryMachine, Machine, MachineControl};
use crate::rq::RqTreeWalk;
use crate::sq::SqTreeWalk;
use crate::{Discoverer, DiscoveryError, KnowledgeBase, PqDbSky, RqDbSky, SqDbSky};

/// The sans-io machine form of [`MqDbSky`] for genuinely mixed schemas
/// (range *and* point attributes). Degenerate mixtures compile to the
/// specialised machines instead — see [`MqDbSky::machine`].
pub type MqMachine = Machine<MqControl>;

/// MQ-DB-SKY: skyline discovery for any mixture of SQ, RQ and PQ ranking
/// attributes.
#[derive(Debug, Clone, Default)]
pub struct MqDbSky {
    budget: Option<u64>,
}

impl MqDbSky {
    /// Creates the algorithm with no client-side query budget.
    pub fn new() -> Self {
        MqDbSky::default()
    }

    /// Limits the number of queries the algorithm may issue (anytime mode).
    pub fn with_budget(budget: u64) -> Self {
        MqDbSky {
            budget: Some(budget),
        }
    }

    /// Builds the concrete machine for a genuinely mixed schema. Errors on
    /// degenerate mixtures (use [`Discoverer::machine`], which delegates to
    /// the specialised machine instead).
    pub fn build_machine(&self, db: &HiddenDb) -> Result<MqMachine, DiscoveryError> {
        let schema = db.schema();
        let attrs: Vec<usize> = schema.ranking_attrs().to_vec();
        let range_attrs: Vec<usize> = schema.range_attrs();
        let point_attrs: Vec<usize> = schema.point_attrs();
        if point_attrs.is_empty() || range_attrs.is_empty() {
            return Err(DiscoveryError::UnsupportedInterface {
                reason: "MQ-DB-SKY's machine form needs both range and point attributes; \
                         degenerate mixtures reduce to the specialised machines"
                    .to_string(),
            });
        }
        let two_ended: Vec<(usize, Value)> = schema
            .two_ended_attrs()
            .into_iter()
            .map(|a| (a, schema.attr(a).domain_size))
            .collect();
        let domain: Vec<Value> = (0..schema.len())
            .map(|a| schema.attr(a).domain_size)
            .collect();
        let k = db.k();

        // Phase 1: range-only discovery (point attributes left as *).
        let state = if two_ended.len() == range_attrs.len() {
            MqState::RangeRq(RqTreeWalk::new(Query::select_all(), range_attrs.clone(), k))
        } else {
            MqState::RangeSq(SqTreeWalk::new(Query::select_all(), range_attrs.clone(), k))
        };
        let control = MqControl {
            k,
            range_attrs,
            point_attrs,
            two_ended,
            domain,
            state,
        };
        Ok(Machine::from_parts(KnowledgeBase::new(attrs), control))
    }
}

/// One frame of the point-phase refinement stack — the explicit form of the
/// old recursive `refine_point_subspace`.
#[derive(Debug, Clone)]
enum MqFrame {
    /// Pinning one point attribute value by value: issues
    /// `base ∧ attr = next_v` for `next_v` in `0..bound`, recursing (a new
    /// frame) on overflowing answers.
    Values {
        base: Query,
        attr: usize,
        rest: Vec<usize>,
        next_v: Value,
        bound: Value,
    },
    /// Every point attribute pinned, all range attributes two-ended: crawl
    /// the leaf subspace exhaustively.
    CrawlLeaf(RegionCrawl),
    /// Every point attribute pinned, some range attribute one-ended:
    /// discover the leaf subspace's skyline with an SQ-DB-SKY subtree
    /// (sufficient, because within the leaf dominance reduces to the range
    /// attributes).
    TreeLeaf(SqTreeWalk),
}

impl MqFrame {
    fn exhausted(&self) -> bool {
        match self {
            MqFrame::Values { next_v, bound, .. } => next_v >= bound,
            MqFrame::CrawlLeaf(crawl) => crawl.done(),
            MqFrame::TreeLeaf(walk) => walk.done(),
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            MqFrame::Values {
                base,
                attr,
                rest,
                next_v,
                bound,
            } => {
                codec::put_u8(out, 0);
                codec::put_query(out, base);
                codec::put_usize(out, *attr);
                codec::put_usize_slice(out, rest);
                codec::put_u32(out, *next_v);
                codec::put_u32(out, *bound);
            }
            MqFrame::CrawlLeaf(crawl) => {
                codec::put_u8(out, 1);
                crawl.encode(out);
            }
            MqFrame::TreeLeaf(walk) => {
                codec::put_u8(out, 2);
                walk.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => {
                let base = codec::read_query(r)?;
                let attr = r.usize()?;
                let rest = codec::read_usize_vec(r)?;
                let next_v = r.u32()?;
                let bound = r.u32()?;
                MqFrame::Values {
                    base,
                    attr,
                    rest,
                    next_v,
                    bound,
                }
            }
            1 => MqFrame::CrawlLeaf(RegionCrawl::decode(r)?),
            2 => MqFrame::TreeLeaf(SqTreeWalk::decode(r)?),
            tag => return Err(CodecError::BadTag { tag }),
        })
    }
}

#[derive(Debug, Clone)]
enum MqState {
    /// Phase 1 over two-ended range attributes.
    RangeRq(RqTreeWalk),
    /// Phase 1 with at least one one-ended range attribute.
    RangeSq(SqTreeWalk),
    /// Phase 2: the point-attribute refinement stack.
    Point {
        frames: Vec<MqFrame>,
        leaves_done: HashSet<Vec<Predicate>>,
    },
    /// Finished.
    Done,
}

/// Control state of [`MqMachine`]: MQ-DB-SKY's range phase followed by the
/// point-phase subspace refinement.
#[derive(Debug, Clone)]
pub struct MqControl {
    k: usize,
    range_attrs: Vec<usize>,
    point_attrs: Vec<usize>,
    two_ended: Vec<(usize, Value)>,
    /// Per-attribute domain sizes (schema metadata copied at construction).
    domain: Vec<Value>,
    state: MqState,
}

impl MqControl {
    /// Transition into phase 2 once the range walk is done: computes the
    /// pruning predicate P and one outer refinement frame per point
    /// attribute from the phase-1 skyline.
    fn enter_point_phase(&mut self, kb: &KnowledgeBase) {
        let phase1_skyline = kb.skyline_tuples();
        if phase1_skyline.is_empty() {
            // Empty database.
            self.state = MqState::Done;
            return;
        }
        // Pruning predicate P over the two-ended range attributes: by the
        // range-domination property every missing skyline tuple is
        // range-dominated by some phase-1 skyline tuple.
        #[expect(
            clippy::expect_used,
            reason = "MQ phase invariant: phase 2 only starts after phase 1 produced at least one skyline tuple"
        )]
        let p_preds: Vec<Predicate> = self
            .two_ended
            .iter()
            .filter_map(|&(r, _)| {
                let min_v = phase1_skyline
                    .iter()
                    .map(|t| t.values[r])
                    .min()
                    .expect("phase-1 skyline is non-empty");
                (min_v > 0).then_some(Predicate::ge(r, min_v))
            })
            .collect();
        // One outer frame per point attribute, pushed in reverse so the
        // first attribute sits on top of the stack (sequential order).
        let mut frames = Vec::new();
        for &bi in self.point_attrs.iter().rev() {
            #[expect(
                clippy::expect_used,
                reason = "MQ phase invariant: phase 2 only starts after phase 1 produced at least one skyline tuple"
            )]
            let max_v = phase1_skyline
                .iter()
                .map(|t| t.values[bi])
                .max()
                .expect("phase-1 skyline is non-empty");
            if max_v == 0 {
                continue;
            }
            let others: Vec<usize> = self
                .point_attrs
                .iter()
                .copied()
                .filter(|&a| a != bi)
                .collect();
            frames.push(MqFrame::Values {
                base: Query::new(p_preds.clone()),
                attr: bi,
                rest: others,
                next_v: 0,
                bound: max_v,
            });
        }
        self.state = MqState::Point {
            frames,
            leaves_done: HashSet::new(),
        };
        self.normalize();
    }

    /// Pops exhausted refinement frames; `Done` once the stack drains.
    fn normalize(&mut self) {
        if let MqState::Point { frames, .. } = &mut self.state {
            while frames.last().is_some_and(MqFrame::exhausted) {
                frames.pop();
            }
            if frames.is_empty() {
                self.state = MqState::Done;
            }
        }
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let k = r.usize()?;
        let range_attrs = codec::read_usize_vec(r)?;
        let point_attrs = codec::read_usize_vec(r)?;
        let n = r.usize()?;
        let mut two_ended = Vec::new();
        for _ in 0..n {
            let attr = r.usize()?;
            let domain = r.u32()?;
            two_ended.push((attr, domain));
        }
        let domain = codec::read_u32_vec(r)?;
        let state = match r.u8()? {
            0 => MqState::RangeRq(RqTreeWalk::decode(r)?),
            1 => MqState::RangeSq(SqTreeWalk::decode(r)?),
            2 => {
                let n = r.usize()?;
                let mut frames = Vec::new();
                for _ in 0..n {
                    frames.push(MqFrame::decode(r)?);
                }
                let n = r.usize()?;
                let mut leaves_done = HashSet::new();
                for _ in 0..n {
                    leaves_done.insert(codec::read_predicates(r)?);
                }
                MqState::Point {
                    frames,
                    leaves_done,
                }
            }
            3 => MqState::Done,
            tag => return Err(CodecError::BadTag { tag }),
        };
        Ok(MqControl {
            k,
            range_attrs,
            point_attrs,
            two_ended,
            domain,
            state,
        })
    }
}

/// The leaf sub-machine for a fully pinned subspace rooted at `base`.
fn leaf_frame(
    base: &Query,
    two_ended: &[(usize, Value)],
    range_attrs: &[usize],
    k: usize,
) -> MqFrame {
    if two_ended.len() == range_attrs.len() {
        // All range attributes support two-ended ranges: crawl every
        // tuple of the leaf subspace.
        MqFrame::CrawlLeaf(RegionCrawl::new(
            base.predicates().to_vec(),
            two_ended.to_vec(),
            k,
        ))
    } else {
        MqFrame::TreeLeaf(SqTreeWalk::new(base.clone(), range_attrs.to_vec(), k))
    }
}

impl MachineControl for MqControl {
    fn name(&self) -> &str {
        "MQ-DB-SKY"
    }

    fn done(&self) -> bool {
        matches!(self.state, MqState::Done)
    }

    fn plan_into(&self, kb: &KnowledgeBase, limit: usize, out: &mut Vec<Query>) {
        match &self.state {
            MqState::RangeRq(walk) => walk.plan_into(kb, out),
            MqState::RangeSq(walk) => walk.plan_into(limit, out),
            MqState::Point { frames, .. } => match frames.last() {
                Some(MqFrame::Values {
                    base, attr, next_v, ..
                }) => out.push(base.and(Predicate::eq(*attr, *next_v))),
                Some(MqFrame::CrawlLeaf(crawl)) => crawl.plan_into(out),
                Some(MqFrame::TreeLeaf(walk)) => walk.plan_into(limit, out),
                None => {}
            },
            MqState::Done => {}
        }
    }

    fn plan_groups_into(&self, limit: usize, out: &mut Vec<skyweb_hidden_db::PrefixGroup>) {
        // Only the SQ-tree states yield multi-query plans with known
        // sibling structure; every other state is single-query (the engine
        // treats an unannotated plan identically).
        match &self.state {
            MqState::RangeSq(walk) => walk.plan_groups_into(limit, out),
            MqState::Point { frames, .. } => {
                if let Some(MqFrame::TreeLeaf(walk)) = frames.last() {
                    walk.plan_groups_into(limit, out);
                }
            }
            _ => {}
        }
    }

    fn on_response(&mut self, kb: &mut KnowledgeBase, issued: u64, resp: &QueryResponse) {
        match &mut self.state {
            MqState::RangeRq(walk) => {
                walk.on_response(kb, issued, resp);
                if walk.done() {
                    self.enter_point_phase(kb);
                }
            }
            MqState::RangeSq(walk) => {
                walk.on_response(kb, issued, resp);
                if walk.done() {
                    self.enter_point_phase(kb);
                }
            }
            MqState::Point {
                frames,
                leaves_done,
            } => {
                #[expect(
                    clippy::expect_used,
                    reason = "drive() protocol invariant: a response only arrives for the frame plan this machine just emitted"
                )]
                let top = frames
                    .last_mut()
                    .expect("a response arrived without a pending frame");
                let pushed: Option<MqFrame> = match top {
                    MqFrame::Values {
                        base,
                        attr,
                        rest,
                        next_v,
                        ..
                    } => {
                        let q = base.and(Predicate::eq(*attr, *next_v));
                        kb.ingest(&resp.tuples);
                        kb.record(issued);
                        *next_v += 1;
                        if resp.tuples.len() == self.k {
                            // Still possibly truncated: keep pinning point
                            // attributes, or open the leaf subspace once all
                            // are pinned (deduplicated — distinct outer
                            // attribute orders reach the same leaf).
                            if let Some((&attr, deeper)) = rest.split_first() {
                                Some(MqFrame::Values {
                                    base: q,
                                    attr,
                                    rest: deeper.to_vec(),
                                    next_v: 0,
                                    bound: self.domain[attr],
                                })
                            } else {
                                let mut key: Vec<Predicate> = q.predicates().to_vec();
                                key.sort_by_key(|p| (p.attr, p.value, p.op as u8));
                                leaves_done.insert(key).then(|| {
                                    leaf_frame(&q, &self.two_ended, &self.range_attrs, self.k)
                                })
                            }
                        } else {
                            None
                        }
                    }
                    MqFrame::CrawlLeaf(crawl) => {
                        crawl.on_response(kb, issued, resp);
                        None
                    }
                    MqFrame::TreeLeaf(walk) => {
                        walk.on_response(kb, issued, resp);
                        None
                    }
                };
                if let Some(frame) = pushed {
                    frames.push(frame);
                }
                self.normalize();
            }
            MqState::Done => unreachable!("no response expected after MQ finished"),
        }
    }

    fn codec_tag(&self) -> Option<u8> {
        Some(codec::TAG_MQ)
    }

    fn encode_control(&self, out: &mut Vec<u8>) {
        codec::put_usize(out, self.k);
        codec::put_usize_slice(out, &self.range_attrs);
        codec::put_usize_slice(out, &self.point_attrs);
        codec::put_usize(out, self.two_ended.len());
        for &(attr, domain) in &self.two_ended {
            codec::put_usize(out, attr);
            codec::put_u32(out, domain);
        }
        codec::put_u32_slice(out, &self.domain);
        match &self.state {
            MqState::RangeRq(walk) => {
                codec::put_u8(out, 0);
                walk.encode(out);
            }
            MqState::RangeSq(walk) => {
                codec::put_u8(out, 1);
                walk.encode(out);
            }
            MqState::Point {
                frames,
                leaves_done,
            } => {
                codec::put_u8(out, 2);
                codec::put_usize(out, frames.len());
                for f in frames {
                    f.encode(out);
                }
                // A hash set has no stable iteration order; write the leaf
                // keys sorted so re-encoding a decoded checkpoint
                // reproduces the original bytes.
                let mut keys: Vec<&Vec<Predicate>> = leaves_done.iter().collect();
                keys.sort_by(|a, b| {
                    let ka = a.iter().map(|p| (p.attr, p.value, p.op as u8));
                    let kb = b.iter().map(|p| (p.attr, p.value, p.op as u8));
                    ka.cmp(kb)
                });
                codec::put_usize(out, keys.len());
                for key in keys {
                    codec::put_predicates(out, key);
                }
            }
            MqState::Done => codec::put_u8(out, 3),
        }
    }
}

impl Discoverer for MqDbSky {
    fn name(&self) -> &str {
        "MQ-DB-SKY"
    }

    fn budget(&self) -> Option<u64> {
        self.budget
    }

    fn machine(&self, db: &HiddenDb) -> Result<Box<dyn DiscoveryMachine>, DiscoveryError> {
        let schema = db.schema();
        let range_attrs: Vec<usize> = schema.range_attrs();
        let point_attrs: Vec<usize> = schema.point_attrs();

        // Degenerate mixtures reduce to the specialised algorithms.
        if point_attrs.is_empty() {
            let all_two_ended = range_attrs
                .iter()
                .all(|&a| schema.attr(a).interface == InterfaceType::Rq);
            return if all_two_ended {
                RqDbSky::new().machine(db)
            } else {
                SqDbSky::new().machine(db)
            };
        }
        if range_attrs.is_empty() {
            return PqDbSky::new().machine(db);
        }
        Ok(Box::new(self.build_machine(db)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyweb_hidden_db::{SchemaBuilder, SumRanker, Tuple};
    use skyweb_skyline::{bnl_skyline, same_ids};

    fn mixed_schema(
        rq: usize,
        sq: usize,
        pq: usize,
        range_domain: u32,
        point_domain: u32,
    ) -> skyweb_hidden_db::Schema {
        let mut b = SchemaBuilder::new();
        for i in 0..rq {
            b = b.ranking(format!("rq{i}"), range_domain, InterfaceType::Rq);
        }
        for i in 0..sq {
            b = b.ranking(format!("sq{i}"), range_domain, InterfaceType::Sq);
        }
        for i in 0..pq {
            b = b.ranking(format!("pq{i}"), point_domain, InterfaceType::Pq);
        }
        b.build()
    }

    /// Duplicate-free mixed-schema test tuples (range attributes first, then
    /// point attributes), realising the general positioning assumption.
    fn pseudo_random_tuples(
        n: u64,
        range_attrs: usize,
        point_attrs: usize,
        range_domain: u32,
        point_domain: u32,
        salt: u64,
    ) -> Vec<Tuple> {
        let mut domains = vec![range_domain; range_attrs];
        domains.extend(std::iter::repeat_n(point_domain, point_attrs));
        skyweb_datagen::synthetic::distinct_cells(&domains, n as usize, salt)
    }

    #[test]
    fn mixed_rq_and_pq_completeness() {
        let schema = mixed_schema(2, 0, 2, 40, 5);
        let tuples = pseudo_random_tuples(250, 2, 2, 40, 5, 0);
        let db = HiddenDb::new(schema, tuples, Box::new(SumRanker), 3);
        let result = MqDbSky::new().discover(&db).unwrap();
        assert!(result.complete);
        let truth = bnl_skyline(db.oracle_tuples().as_slice(), db.schema());
        assert!(same_ids(&result.skyline, &truth));
    }

    #[test]
    fn mixed_sq_and_pq_completeness() {
        // One-ended ranges only: the weaker pruning path.
        let schema = mixed_schema(0, 2, 1, 30, 4);
        let tuples = pseudo_random_tuples(150, 2, 1, 30, 4, 5);
        let db = HiddenDb::new(schema, tuples, Box::new(SumRanker), 3);
        let result = MqDbSky::new().discover(&db).unwrap();
        assert!(result.complete);
        let truth = bnl_skyline(db.oracle_tuples().as_slice(), db.schema());
        assert!(same_ids(&result.skyline, &truth));
    }

    #[test]
    fn mixed_rq_sq_and_pq_completeness() {
        let schema = mixed_schema(1, 1, 2, 25, 4);
        let tuples = pseudo_random_tuples(200, 2, 2, 25, 4, 11);
        let db = HiddenDb::new(schema, tuples, Box::new(SumRanker), 2);
        let result = MqDbSky::new().discover(&db).unwrap();
        assert!(result.complete);
        let truth = bnl_skyline(db.oracle_tuples().as_slice(), db.schema());
        assert!(same_ids(&result.skyline, &truth));
    }

    #[test]
    fn range_only_reduces_to_rq_db_sky() {
        let schema = mixed_schema(3, 0, 0, 30, 4);
        let tuples = pseudo_random_tuples(120, 3, 0, 30, 4, 2);
        let db = HiddenDb::new(schema, tuples, Box::new(SumRanker), 2);
        let result = MqDbSky::new().discover(&db).unwrap();
        let truth = bnl_skyline(db.oracle_tuples().as_slice(), db.schema());
        assert!(same_ids(&result.skyline, &truth));
    }

    #[test]
    fn point_only_reduces_to_pq_db_sky() {
        let schema = mixed_schema(0, 0, 3, 30, 6);
        let tuples = pseudo_random_tuples(120, 0, 3, 30, 6, 4);
        let db = HiddenDb::new(schema, tuples, Box::new(SumRanker), 2);
        let result = MqDbSky::new().discover(&db).unwrap();
        let truth = bnl_skyline(db.oracle_tuples().as_slice(), db.schema());
        assert!(same_ids(&result.skyline, &truth));
    }

    #[test]
    fn ignoring_point_attributes_would_miss_tuples() {
        // Construct a database where a skyline tuple is range-dominated: it
        // loses on the range attribute but wins on the point attribute.
        let schema = mixed_schema(1, 0, 1, 10, 4);
        let tuples = vec![
            Tuple::new(0, vec![1, 3]), // best range value
            Tuple::new(1, vec![5, 0]), // range-dominated, wins on the PQ attribute
            Tuple::new(2, vec![6, 2]), // dominated by nothing? loses to 0 on range, to 1 on point
        ];
        let db = HiddenDb::new(schema, tuples, Box::new(SumRanker), 1);
        let result = MqDbSky::new().discover(&db).unwrap();
        let truth = bnl_skyline(db.oracle_tuples().as_slice(), db.schema());
        assert!(same_ids(&result.skyline, &truth));
        assert!(result.skyline.iter().any(|t| t.id == 1));
    }

    #[test]
    fn budget_exhaustion_is_graceful() {
        let schema = mixed_schema(2, 0, 2, 40, 5);
        let tuples = pseudo_random_tuples(250, 2, 2, 40, 5, 0);
        let db = HiddenDb::new(schema, tuples, Box::new(SumRanker), 3);
        let result = MqDbSky::with_budget(1).discover(&db).unwrap();
        assert!(!result.complete);
        assert!(result.query_cost <= 1);
    }

    #[test]
    fn empty_database() {
        let schema = mixed_schema(1, 0, 1, 10, 4);
        let db = HiddenDb::new(schema, vec![], Box::new(SumRanker), 1);
        let result = MqDbSky::new().discover(&db).unwrap();
        assert!(result.complete);
        assert!(result.skyline.is_empty());
    }
}
