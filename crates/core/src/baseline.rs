//! The paper's BASELINE: crawl *every* tuple of the hidden database through
//! its top-k interface (in the spirit of Sheng et al., "Optimal algorithms
//! for crawling a hidden database in the web", VLDB 2012) and extract the
//! skyline locally afterwards.
//!
//! Crawling works by recursive region splitting over the two-ended range
//! attributes: a region (a box of per-attribute value ranges) is queried
//! with conjunctive `>=` / `<=` predicates; if the answer is truncated by
//! the top-k constraint, the region is split in half along its widest
//! attribute and both halves are crawled recursively. This requires
//! two-ended range support (which is also what the original crawler
//! assumes), so the baseline is only applicable to RQ databases — one of the
//! reasons the paper's discovery algorithms are interesting in the first
//! place.
//!
//! A companion [`PointSpaceCrawl`] exhaustively enumerates the value
//! combinations of a pure point-predicate database; it is used as a
//! reference baseline for PQ experiments on small domains.

use skyweb_hidden_db::{
    HiddenDb, InterfaceType, Predicate, PrefixGroup, Query, QueryResponse, Value,
};

use crate::codec::{self, CodecError, Reader};
use crate::machine::{DiscoveryMachine, Machine, MachineControl};
use crate::pq::next_combo;
use crate::{Discoverer, DiscoveryError, KnowledgeBase};

/// The sans-io machine form of [`BaselineCrawl`]: single-query plans (each
/// region's split decision consumes its own answer).
pub type CrawlMachine = Machine<CrawlControl>;

/// The sans-io machine form of [`PointSpaceCrawl`]: the whole query
/// sequence is the predetermined value-combination odometer, so plans carry
/// as many queries as the driver's batch limit allows.
pub type PointCrawlMachine = Machine<PointCrawlControl>;

/// Crawl-everything-then-compute-locally baseline for two-ended range
/// interfaces.
///
/// Unlike the discovery algorithms, the baseline has no anytime property:
/// a crawl stopped by a driver's query budget cannot certify that any tuple
/// is on the skyline of the *whole* database; its partial result is merely
/// the skyline of what happened to be downloaded.
#[derive(Debug, Clone, Default)]
pub struct BaselineCrawl;

impl BaselineCrawl {
    /// Creates the baseline.
    pub fn new() -> Self {
        BaselineCrawl
    }

    fn check_interface(db: &HiddenDb) -> Result<(), DiscoveryError> {
        for &a in db.schema().ranking_attrs() {
            let spec = db.schema().attr(a);
            if spec.interface != InterfaceType::Rq {
                return Err(DiscoveryError::UnsupportedInterface {
                    reason: format!(
                        "the crawling baseline needs two-ended ranges on every ranking \
                         attribute, but '{}' is {}",
                        spec.name,
                        spec.interface.label()
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Crawling every tuple matching a base conjunction by recursive region
/// splitting over `split_attrs` (attribute id + domain size pairs) — the
/// building block shared by the BASELINE crawler and MQ-DB-SKY's
/// fully-pinned leaf subspaces, in sans-io form.
///
/// Plans are single-query: whether a region is split (and therefore which
/// region is probed next, children before siblings) depends on its own
/// answer size.
#[derive(Debug, Clone)]
pub(crate) struct RegionCrawl {
    base: Vec<Predicate>,
    split_attrs: Vec<(usize, Value)>,
    k: usize,
    /// Each region is one inclusive (lo, hi) interval per split attribute.
    stack: Vec<Vec<(i64, i64)>>,
}

impl RegionCrawl {
    pub(crate) fn new(base: Vec<Predicate>, split_attrs: Vec<(usize, Value)>, k: usize) -> Self {
        let initial: Vec<(i64, i64)> = split_attrs
            .iter()
            .map(|&(_, d)| (0i64, i64::from(d) - 1))
            .collect();
        RegionCrawl {
            base,
            split_attrs,
            k,
            stack: vec![initial],
        }
    }

    pub(crate) fn done(&self) -> bool {
        self.stack.is_empty()
    }

    fn region_query(&self, region: &[(i64, i64)]) -> Query {
        let mut q = Query::new(self.base.clone());
        for (i, &(attr, domain)) in self.split_attrs.iter().enumerate() {
            let (lo, hi) = region[i];
            if lo > 0 {
                q.push(Predicate::ge(attr, lo as Value));
            }
            if hi < i64::from(domain) - 1 {
                q.push(Predicate::le(attr, hi as Value));
            }
        }
        q
    }

    pub(crate) fn plan_into(&self, out: &mut Vec<Query>) {
        if let Some(region) = self.stack.last() {
            out.push(self.region_query(region));
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
            reason = "drive() protocol invariant: a response only arrives for the region plan this machine just emitted"
        )]
        let region = self
            .stack
            .pop()
            .expect("a response arrived without a pending region");
        kb.ingest(&resp.tuples);
        kb.record(issued);
        if resp.tuples.len() == self.k {
            // Possibly truncated: split the widest attribute interval.
            let (widest, &(lo, hi)) = match region
                .iter()
                .enumerate()
                .max_by_key(|(_, (lo, hi))| hi - lo)
            {
                Some(x) => x,
                None => return,
            };
            if hi == lo {
                // All attributes are pinned to single values; the matching
                // tuples are indistinguishable through the ranking
                // attributes and nothing further can be retrieved.
                return;
            }
            let mid = lo + (hi - lo) / 2;
            let mut lower = region.clone();
            lower[widest] = (lo, mid);
            let mut upper = region;
            upper[widest] = (mid + 1, hi);
            self.stack.push(upper);
            self.stack.push(lower);
        }
    }

    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        codec::put_predicates(out, &self.base);
        codec::put_usize(out, self.split_attrs.len());
        for &(attr, domain) in &self.split_attrs {
            codec::put_usize(out, attr);
            codec::put_u32(out, domain);
        }
        codec::put_usize(out, self.k);
        codec::put_usize(out, self.stack.len());
        for region in &self.stack {
            codec::put_usize(out, region.len());
            for &(lo, hi) in region {
                codec::put_i64(out, lo);
                codec::put_i64(out, hi);
            }
        }
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let base = codec::read_predicates(r)?;
        let n = r.usize()?;
        let mut split_attrs = Vec::new();
        for _ in 0..n {
            let attr = r.usize()?;
            let domain = r.u32()?;
            split_attrs.push((attr, domain));
        }
        let k = r.usize()?;
        let n = r.usize()?;
        let mut stack = Vec::new();
        for _ in 0..n {
            let len = r.usize()?;
            let mut region = Vec::new();
            for _ in 0..len {
                let lo = r.i64()?;
                let hi = r.i64()?;
                region.push((lo, hi));
            }
            stack.push(region);
        }
        Ok(RegionCrawl {
            base,
            split_attrs,
            k,
            stack,
        })
    }
}

/// Control state of [`CrawlMachine`]: the recursive region splitting of the
/// crawling BASELINE.
#[derive(Debug, Clone)]
pub struct CrawlControl {
    crawl: RegionCrawl,
}

impl CrawlControl {
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(CrawlControl {
            crawl: RegionCrawl::decode(r)?,
        })
    }
}

impl MachineControl for CrawlControl {
    fn name(&self) -> &str {
        "BASELINE"
    }

    fn done(&self) -> bool {
        self.crawl.done()
    }

    fn plan_into(&self, _kb: &KnowledgeBase, _limit: usize, out: &mut Vec<Query>) {
        self.crawl.plan_into(out);
    }

    fn on_response(&mut self, kb: &mut KnowledgeBase, issued: u64, resp: &QueryResponse) {
        self.crawl.on_response(kb, issued, resp);
    }

    fn codec_tag(&self) -> Option<u8> {
        Some(codec::TAG_CRAWL)
    }

    fn encode_control(&self, out: &mut Vec<u8>) {
        self.crawl.encode(out);
    }
}

impl BaselineCrawl {
    /// Builds the concrete machine (also available through the boxed
    /// [`Discoverer::machine`] entry point).
    pub fn build_machine(&self, db: &HiddenDb) -> Result<CrawlMachine, DiscoveryError> {
        Self::check_interface(db)?;
        let attrs: Vec<usize> = db.schema().ranking_attrs().to_vec();
        let split_attrs: Vec<(usize, Value)> = attrs
            .iter()
            .map(|&a| (a, db.schema().attr(a).domain_size))
            .collect();
        let crawl = RegionCrawl::new(Vec::new(), split_attrs, db.k());
        Ok(Machine::from_parts(
            KnowledgeBase::new(attrs),
            CrawlControl { crawl },
        ))
    }
}

impl Discoverer for BaselineCrawl {
    fn name(&self) -> &str {
        "BASELINE"
    }

    fn machine(&self, db: &HiddenDb) -> Result<Box<dyn DiscoveryMachine>, DiscoveryError> {
        Ok(Box::new(self.build_machine(db)?))
    }
}

/// Exhaustive point-space crawl: issues one fully specified equality query
/// per value combination of the ranking attributes. Only sensible for small
/// domains; serves as the reference baseline for PQ interfaces.
#[derive(Debug, Clone, Default)]
pub struct PointSpaceCrawl;

impl PointSpaceCrawl {
    /// Creates the crawler.
    pub fn new() -> Self {
        PointSpaceCrawl
    }
}

/// Control state of [`PointCrawlMachine`]: the mixed-radix odometer over
/// every value combination of the ranking attributes.
///
/// The query sequence is fully predetermined — responses never influence
/// which query comes next — so `plan_into` emits as many upcoming odometer
/// queries as the driver's batch limit allows, and batched execution is
/// trivially order-identical to the sequential crawl.
#[derive(Debug, Clone)]
pub struct PointCrawlControl {
    attrs: Vec<usize>,
    domains: Vec<Value>,
    /// The next combination to query; `None` once the odometer wrapped.
    combo: Option<Vec<Value>>,
}

impl PointCrawlControl {
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let attrs = codec::read_usize_vec(r)?;
        let domains = codec::read_u32_vec(r)?;
        let combo = if r.bool()? {
            Some(codec::read_u32_vec(r)?)
        } else {
            None
        };
        Ok(PointCrawlControl {
            attrs,
            domains,
            combo,
        })
    }

    fn combo_query(&self, combo: &[Value]) -> Query {
        Query::new(
            self.attrs
                .iter()
                .zip(combo)
                .map(|(&a, &v)| Predicate::eq(a, v))
                .collect(),
        )
    }

    fn advance(&self, combo: &mut [Value]) -> bool {
        next_combo(combo, &self.domains)
    }
}

impl MachineControl for PointCrawlControl {
    fn name(&self) -> &str {
        "POINT-CRAWL"
    }

    fn done(&self) -> bool {
        self.combo.is_none()
    }

    fn plan_into(&self, _kb: &KnowledgeBase, limit: usize, out: &mut Vec<Query>) {
        let Some(combo) = &self.combo else {
            return;
        };
        let mut combo = combo.clone();
        loop {
            out.push(self.combo_query(&combo));
            if out.len() >= limit || !self.advance(&mut combo) {
                return;
            }
        }
    }

    /// The odometer's sibling tiling: consecutive combinations differing
    /// only in the fastest (last) digit pin every other attribute to the
    /// same equality predicates, so each run between carries shares a
    /// prefix of `m - 1` predicates — the shape the engine's batch executor
    /// evaluates once per run.
    fn plan_groups_into(&self, limit: usize, out: &mut Vec<PrefixGroup>) {
        let Some(combo) = &self.combo else {
            return;
        };
        let prefix_len = self.attrs.len().saturating_sub(1);
        let mut combo = combo.clone();
        let mut len = 0usize;
        let mut total = 0usize;
        loop {
            len += 1;
            total += 1;
            if total >= limit || !self.advance(&mut combo) {
                out.push(PrefixGroup { len, prefix_len });
                return;
            }
            if combo.last() == Some(&0) {
                // The advance carried past the fastest digit: a new run of
                // siblings (with a different shared prefix) starts here.
                out.push(PrefixGroup { len, prefix_len });
                len = 0;
            }
        }
    }

    fn on_response(&mut self, kb: &mut KnowledgeBase, issued: u64, resp: &QueryResponse) {
        kb.ingest(&resp.tuples);
        kb.record(issued);
        #[expect(
            clippy::expect_used,
            reason = "drive() protocol invariant: the machine halts before the odometer wraps, so a response cannot arrive after"
        )]
        let combo = self
            .combo
            .as_mut()
            .expect("a response arrived after the odometer wrapped");
        if !next_combo(combo, &self.domains) {
            self.combo = None;
        }
    }

    fn codec_tag(&self) -> Option<u8> {
        Some(codec::TAG_POINT_CRAWL)
    }

    fn encode_control(&self, out: &mut Vec<u8>) {
        codec::put_usize_slice(out, &self.attrs);
        codec::put_u32_slice(out, &self.domains);
        codec::put_bool(out, self.combo.is_some());
        if let Some(combo) = &self.combo {
            codec::put_u32_slice(out, combo);
        }
    }
}

impl PointSpaceCrawl {
    /// Builds the concrete machine (also available through the boxed
    /// [`Discoverer::machine`] entry point).
    pub fn build_machine(&self, db: &HiddenDb) -> Result<PointCrawlMachine, DiscoveryError> {
        let attrs: Vec<usize> = db.schema().ranking_attrs().to_vec();
        let domains: Vec<Value> = attrs
            .iter()
            .map(|&a| db.schema().attr(a).domain_size)
            .collect();
        let combo = Some(vec![0; attrs.len()]);
        Ok(Machine::from_parts(
            KnowledgeBase::new(attrs.clone()),
            PointCrawlControl {
                attrs,
                domains,
                combo,
            },
        ))
    }
}

impl Discoverer for PointSpaceCrawl {
    fn name(&self) -> &str {
        "POINT-CRAWL"
    }

    fn machine(&self, db: &HiddenDb) -> Result<Box<dyn DiscoveryMachine>, DiscoveryError> {
        Ok(Box::new(self.build_machine(db)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyweb_hidden_db::{SchemaBuilder, SumRanker, Tuple};
    use skyweb_skyline::{bnl_skyline, same_ids};

    fn rq_schema(m: usize, domain: u32) -> skyweb_hidden_db::Schema {
        let mut b = SchemaBuilder::new();
        for i in 0..m {
            b = b.ranking(format!("a{i}"), domain, InterfaceType::Rq);
        }
        b.build()
    }

    fn pseudo_random_db(m: usize, domain: u32, n: u64, k: usize) -> HiddenDb {
        let tuples: Vec<Tuple> = (0..n)
            .map(|i| {
                let values = (0..m)
                    .map(|j| ((i * 2654435761 + j as u64 * 40503) % u64::from(domain)) as u32)
                    .collect();
                Tuple::new(i, values)
            })
            .collect();
        HiddenDb::new(rq_schema(m, domain), tuples, Box::new(SumRanker), k)
    }

    #[test]
    fn crawl_retrieves_every_tuple() {
        let db = pseudo_random_db(3, 32, 150, 5);
        let result = BaselineCrawl::new().discover(&db).unwrap();
        assert!(result.complete);
        assert_eq!(result.retrieved.len(), db.n());
        let truth = bnl_skyline(db.oracle_tuples().as_slice(), db.schema());
        assert!(same_ids(&result.skyline, &truth));
    }

    #[test]
    fn crawl_cost_scales_with_n_over_k() {
        let db_small_k = pseudo_random_db(2, 64, 300, 2);
        let db_large_k = pseudo_random_db(2, 64, 300, 25);
        let c_small = BaselineCrawl::new()
            .discover(&db_small_k)
            .unwrap()
            .query_cost;
        let c_large = BaselineCrawl::new()
            .discover(&db_large_k)
            .unwrap()
            .query_cost;
        assert!(c_large < c_small, "larger k must reduce the crawl cost");
        assert!(c_small as usize >= db_small_k.n() / 2);
    }

    #[test]
    fn crawl_handles_duplicate_value_combinations() {
        // Many tuples share the exact same ranking values; the region
        // splitter must not loop forever on an unsplittable region.
        let tuples: Vec<Tuple> = (0..40u64).map(|i| Tuple::new(i, vec![1, 1])).collect();
        let db = HiddenDb::new(rq_schema(2, 4), tuples, Box::new(SumRanker), 5);
        let result = BaselineCrawl::new().discover(&db).unwrap();
        assert!(result.complete);
        // Only k tuples of the duplicate pile can ever be retrieved.
        assert_eq!(result.retrieved.len(), 5);
    }

    #[test]
    fn crawl_rejects_weaker_interfaces() {
        let s = SchemaBuilder::new()
            .ranking("a", 8, InterfaceType::Sq)
            .ranking("b", 8, InterfaceType::Rq)
            .build();
        let db = HiddenDb::new(s, vec![], Box::new(SumRanker), 2);
        assert!(BaselineCrawl::new().discover(&db).is_err());
    }

    #[test]
    fn crawl_budget_is_respected() {
        let db = pseudo_random_db(3, 32, 500, 2);
        let result = crate::discovery::run_budgeted(&BaselineCrawl::new(), &db, 20);
        assert!(!result.complete);
        assert_eq!(result.query_cost, 20);
        assert!(result.retrieved.len() < db.n());
    }

    #[test]
    fn odometer_plans_carry_valid_sibling_annotations() {
        use crate::machine::DiscoveryMachine;
        let schema = SchemaBuilder::new()
            .ranking("x", 3, InterfaceType::Pq)
            .ranking("y", 4, InterfaceType::Pq)
            .build();
        let db = HiddenDb::new(
            schema,
            vec![Tuple::new(0, vec![1, 2])],
            Box::new(SumRanker),
            2,
        );
        let machine = PointSpaceCrawl::new().build_machine(&db).unwrap();
        // A full-grid plan: 12 combinations, the last digit (domain 4)
        // wrapping three times → three sibling runs of 4 sharing the first
        // predicate (x pinned).
        let plan = machine.next_plan(64);
        assert_eq!(plan.len(), 12);
        let groups = plan.groups().expect("odometer plans are annotated");
        assert!(skyweb_hidden_db::groups_cover(plan.queries(), groups));
        assert_eq!(groups.len(), 3);
        assert!(groups.iter().all(|g| g.len == 4 && g.prefix_len == 1));
        // A batch limit cutting mid-run truncates the tiling consistently.
        let plan = machine.next_plan(6);
        assert_eq!(plan.len(), 6);
        let groups = plan.groups().expect("odometer plans are annotated");
        assert!(skyweb_hidden_db::groups_cover(plan.queries(), groups));
        assert_eq!(groups.len(), 2);
        assert_eq!((groups[0].len, groups[1].len), (4, 2));
    }

    #[test]
    fn point_space_crawl_enumerates_the_whole_grid() {
        let schema = SchemaBuilder::new()
            .ranking("x", 4, InterfaceType::Pq)
            .ranking("y", 3, InterfaceType::Pq)
            .build();
        let tuples = vec![
            Tuple::new(0, vec![1, 2]),
            Tuple::new(1, vec![3, 0]),
            Tuple::new(2, vec![0, 1]),
        ];
        let db = HiddenDb::new(schema, tuples, Box::new(SumRanker), 2);
        let result = PointSpaceCrawl::new().discover(&db).unwrap();
        assert!(result.complete);
        assert_eq!(result.query_cost, 12);
        assert_eq!(result.retrieved.len(), 3);
        let truth = bnl_skyline(db.oracle_tuples().as_slice(), db.schema());
        assert!(same_ids(&result.skyline, &truth));
    }
}
