//! PQ-DB-SKY (Algorithm 5 of the paper): skyline discovery for databases of
//! arbitrary dimensionality whose ranking attributes only support point
//! predicates.
//!
//! No instance-optimal algorithm can exist for three or more PQ dimensions
//! (Section 5.2 of the paper), so PQ-DB-SKY is a carefully engineered
//! greedy scheme:
//!
//! 1. Issue `SELECT *` (its top tuple is a skyline tuple and seeds pruning).
//! 2. Pick the **two attributes with the largest domains** as the 2D plane —
//!    their domain sizes enter the query cost *additively*, while every
//!    other attribute's domain size enters *multiplicatively*.
//! 3. Enumerate the value combinations of the remaining attributes in
//!    preferential order; for each combination, discover the skyline tuples
//!    lying in that plane with the PQ-2DSUB-SKY machinery
//!    ([`crate::pq2dsub`]), after pruning the plane with everything
//!    retrieved so far (tuples whose other-attribute values are at least as
//!    good dominate part of the plane; the `SELECT *` answer proves a
//!    lower-left rectangle empty).
//!
//! Processing the other attributes in preferential order preserves the
//! anytime property: every tuple reported before the run finishes is on the
//! eventual skyline.

use std::sync::Arc;

use skyweb_hidden_db::{HiddenDb, Predicate, Query, QueryResponse, Tuple, Value};

use crate::codec::{self, CodecError, Reader};
use crate::machine::{DiscoveryMachine, Machine, MachineControl};
use crate::pq2dsub::{build_plane_rects, PlanePoint, PlaneSweep};
use crate::{Discoverer, DiscoveryError, KnowledgeBase};

/// The sans-io machine form of [`PqDbSky`]: one `SELECT *`, then one
/// pruned PQ-2DSUB-SKY sweep per value combination of the non-plane
/// attributes, enumerated in preferential order.
pub type PqMachine = Machine<PqControl>;

/// PQ-DB-SKY: skyline discovery for point-predicate databases of any
/// dimensionality (m ≥ 2).
#[derive(Debug, Clone, Default)]
pub struct PqDbSky {
    budget: Option<u64>,
}

impl PqDbSky {
    /// Creates the algorithm with no client-side query budget.
    pub fn new() -> Self {
        PqDbSky::default()
    }

    /// Limits the number of queries the algorithm may issue (anytime mode).
    pub fn with_budget(budget: u64) -> Self {
        PqDbSky {
            budget: Some(budget),
        }
    }

    fn check_interface(db: &HiddenDb) -> Result<(), DiscoveryError> {
        let m = db.schema().num_ranking();
        if m < 2 {
            return Err(DiscoveryError::UnsupportedInterface {
                reason: format!(
                    "PQ-DB-SKY needs at least 2 ranking attributes, the schema has {m}"
                ),
            });
        }
        // Every interface type supports equality predicates, so PQ-DB-SKY
        // runs on any schema; nothing else to validate.
        Ok(())
    }

    /// Picks the two ranking attributes with the largest domains (the 2D
    /// plane) and returns `(plane_attrs, other_attrs)`.
    fn split_attributes(db: &HiddenDb) -> ((usize, usize), Vec<usize>) {
        let schema = db.schema();
        let mut ranked: Vec<usize> = schema.ranking_attrs().to_vec();
        ranked.sort_by_key(|&a| std::cmp::Reverse(schema.attr(a).domain_size));
        let a1 = ranked[0];
        let a2 = ranked[1];
        let others: Vec<usize> = schema
            .ranking_attrs()
            .iter()
            .copied()
            .filter(|&a| a != a1 && a != a2)
            .collect();
        ((a1, a2), others)
    }
}

/// Advances a mixed-radix odometer (`combo`) over the given domain sizes in
/// ascending lexicographic order. Returns `false` once the enumeration has
/// wrapped around.
pub(crate) fn next_combo(combo: &mut [Value], domains: &[Value]) -> bool {
    for i in (0..combo.len()).rev() {
        combo[i] += 1;
        if combo[i] < domains[i] {
            return true;
        }
        combo[i] = 0;
    }
    false
}

impl PqDbSky {
    /// Builds the concrete machine (also available through the boxed
    /// [`Discoverer::machine`] entry point).
    pub fn build_machine(&self, db: &HiddenDb) -> Result<PqMachine, DiscoveryError> {
        Self::check_interface(db)?;
        let schema = db.schema();
        let attrs: Vec<usize> = schema.ranking_attrs().to_vec();
        let ((a1, a2), others) = Self::split_attributes(db);
        let other_domains: Vec<Value> =
            others.iter().map(|&a| schema.attr(a).domain_size).collect();
        let control = PqControl {
            a1,
            a2,
            dx: schema.attr(a1).domain_size,
            dy: schema.attr(a2).domain_size,
            others,
            other_domains,
            k: db.k(),
            select_star_top: None,
            state: PqState::Init,
        };
        Ok(Machine::from_parts(KnowledgeBase::new(attrs), control))
    }
}

#[derive(Debug, Clone)]
enum PqState {
    /// `SELECT *` not yet answered.
    Init,
    /// Sweeping the plane of one non-plane value combination.
    Planes {
        combo: Vec<Value>,
        sweep: PlaneSweep,
    },
    /// Finished.
    Done,
}

/// Control state of [`PqMachine`]: the plane enumeration of PQ-DB-SKY.
#[derive(Debug, Clone)]
pub struct PqControl {
    a1: usize,
    a2: usize,
    dx: Value,
    dy: Value,
    others: Vec<usize>,
    other_domains: Vec<Value>,
    k: usize,
    select_star_top: Option<Arc<Tuple>>,
    state: PqState,
}

impl PqControl {
    /// The candidate rectangles of the plane fixed by `combo`, pruned with
    /// everything retrieved so far (borrowed from the knowledge base, not
    /// deep-cloned per plane).
    fn rects_for(&self, combo: &[Value], kb: &KnowledgeBase) -> Vec<crate::pq2dsub::Rect> {
        let pruning: Vec<PlanePoint> = kb
            .retrieved_snapshot()
            .iter()
            .filter(|t| {
                self.others
                    .iter()
                    .zip(combo)
                    .all(|(&a, &v)| t.values[a] <= v)
            })
            .map(|t| PlanePoint {
                x: i64::from(t.values[self.a1]),
                y: i64::from(t.values[self.a2]),
            })
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "PQ phase invariant: select_star_top is populated in phase 1 before any phase-2 plane sweep can answer"
        )]
        let top = self
            .select_star_top
            .as_ref()
            .expect("SELECT * answered before any plane is swept");
        let empty_corner = if self
            .others
            .iter()
            .zip(combo)
            .all(|(&a, &v)| top.values[a] >= v)
        {
            Some(PlanePoint {
                x: i64::from(top.values[self.a1]),
                y: i64::from(top.values[self.a2]),
            })
        } else {
            None
        };
        build_plane_rects(self.dx, self.dy, &pruning, empty_corner)
    }

    /// Enters the sweep of the first combination at or after `combo` whose
    /// plane still holds candidate rectangles; `Done` when the enumeration
    /// wraps first.
    fn begin_planes(&mut self, kb: &KnowledgeBase, mut combo: Vec<Value>) {
        loop {
            let rects = self.rects_for(&combo, kb);
            if !rects.is_empty() {
                let plane_preds: Vec<Predicate> = self
                    .others
                    .iter()
                    .zip(&combo)
                    .map(|(&a, &v)| Predicate::eq(a, v))
                    .collect();
                let sweep = PlaneSweep::new(self.a1, self.a2, plane_preds, rects);
                self.state = PqState::Planes { combo, sweep };
                return;
            }
            if self.others.is_empty() || !next_combo(&mut combo, &self.other_domains) {
                self.state = PqState::Done;
                return;
            }
        }
    }

    /// Advances past a fully swept combination.
    fn after_sweep(&mut self, kb: &KnowledgeBase, mut combo: Vec<Value>) {
        if self.others.is_empty() || !next_combo(&mut combo, &self.other_domains) {
            self.state = PqState::Done;
            return;
        }
        self.begin_planes(kb, combo);
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let a1 = r.usize()?;
        let a2 = r.usize()?;
        let dx = r.u32()?;
        let dy = r.u32()?;
        let others = codec::read_usize_vec(r)?;
        let other_domains = codec::read_u32_vec(r)?;
        let k = r.usize()?;
        let select_star_top = if r.bool()? {
            Some(codec::read_tuple(r)?)
        } else {
            None
        };
        let state = match r.u8()? {
            0 => PqState::Init,
            1 => {
                let combo = codec::read_u32_vec(r)?;
                let sweep = PlaneSweep::decode(r)?;
                PqState::Planes { combo, sweep }
            }
            2 => PqState::Done,
            tag => return Err(CodecError::BadTag { tag }),
        };
        Ok(PqControl {
            a1,
            a2,
            dx,
            dy,
            others,
            other_domains,
            k,
            select_star_top,
            state,
        })
    }
}

impl MachineControl for PqControl {
    fn name(&self) -> &str {
        "PQ-DB-SKY"
    }

    fn done(&self) -> bool {
        matches!(self.state, PqState::Done)
    }

    fn plan_into(&self, _kb: &KnowledgeBase, _limit: usize, out: &mut Vec<Query>) {
        match &self.state {
            PqState::Init => out.push(Query::select_all()),
            PqState::Planes { sweep, .. } => sweep.plan_into(out),
            PqState::Done => {}
        }
    }

    fn on_response(&mut self, kb: &mut KnowledgeBase, issued: u64, resp: &QueryResponse) {
        match std::mem::replace(&mut self.state, PqState::Done) {
            PqState::Init => {
                kb.ingest(&resp.tuples);
                kb.record(issued);
                if resp.tuples.len() < self.k {
                    // Underflow: the whole database was returned.
                    self.state = PqState::Done;
                    return;
                }
                self.select_star_top = Some(resp.tuples[0].clone());
                let combo: Vec<Value> = vec![0; self.others.len()];
                self.begin_planes(kb, combo);
            }
            PqState::Planes { combo, mut sweep } => {
                sweep.on_response(kb, issued, resp);
                if sweep.done() {
                    self.after_sweep(kb, combo);
                } else {
                    self.state = PqState::Planes { combo, sweep };
                }
            }
            PqState::Done => unreachable!("no response expected after the enumeration finished"),
        }
    }

    fn codec_tag(&self) -> Option<u8> {
        Some(codec::TAG_PQ)
    }

    fn encode_control(&self, out: &mut Vec<u8>) {
        codec::put_usize(out, self.a1);
        codec::put_usize(out, self.a2);
        codec::put_u32(out, self.dx);
        codec::put_u32(out, self.dy);
        codec::put_usize_slice(out, &self.others);
        codec::put_u32_slice(out, &self.other_domains);
        codec::put_usize(out, self.k);
        codec::put_bool(out, self.select_star_top.is_some());
        if let Some(top) = &self.select_star_top {
            codec::put_tuple(out, top);
        }
        match &self.state {
            PqState::Init => codec::put_u8(out, 0),
            PqState::Planes { combo, sweep } => {
                codec::put_u8(out, 1);
                codec::put_u32_slice(out, combo);
                sweep.encode(out);
            }
            PqState::Done => codec::put_u8(out, 2),
        }
    }
}

impl Discoverer for PqDbSky {
    fn name(&self) -> &str {
        "PQ-DB-SKY"
    }

    fn budget(&self) -> Option<u64> {
        self.budget
    }

    fn machine(&self, db: &HiddenDb) -> Result<Box<dyn DiscoveryMachine>, DiscoveryError> {
        Ok(Box::new(self.build_machine(db)?))
    }
}

/// Returns `true` if every ranking attribute of `db` is a point-predicate
/// attribute — the situation PQ-DB-SKY was designed for (it also runs on
/// stronger interfaces, where equality predicates are always available).
#[cfg(test)]
pub(crate) fn all_ranking_attrs_are_pq(db: &HiddenDb) -> bool {
    db.schema()
        .ranking_attrs()
        .iter()
        .all(|&a| db.schema().attr(a).interface == skyweb_hidden_db::InterfaceType::Pq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyweb_hidden_db::{InterfaceType, SchemaBuilder, SumRanker, WorstCaseRanker};
    use skyweb_skyline::{bnl_skyline, same_ids};

    fn pq_schema(domains: &[u32]) -> skyweb_hidden_db::Schema {
        let mut b = SchemaBuilder::new();
        for (i, &d) in domains.iter().enumerate() {
            b = b.ranking(format!("a{i}"), d, InterfaceType::Pq);
        }
        b.build()
    }

    /// Duplicate-free test database: every tuple occupies a distinct cell of
    /// the value grid, realising the paper's general positioning assumption.
    fn pseudo_random_db(domains: &[u32], n: u64, k: usize, salt: u64) -> HiddenDb {
        let tuples = skyweb_datagen::synthetic::distinct_cells(domains, n as usize, salt);
        HiddenDb::new(pq_schema(domains), tuples, Box::new(SumRanker), k)
    }

    #[test]
    fn three_dimensional_completeness() {
        let db = pseudo_random_db(&[8, 6, 4], 120, 1, 0);
        let result = PqDbSky::new().discover(&db).unwrap();
        assert!(result.complete);
        let truth = bnl_skyline(db.oracle_tuples().as_slice(), db.schema());
        assert!(same_ids(&result.skyline, &truth));
    }

    #[test]
    fn four_dimensional_completeness_with_larger_k() {
        let db = pseudo_random_db(&[6, 5, 4, 3], 200, 3, 7);
        let result = PqDbSky::new().discover(&db).unwrap();
        assert!(result.complete);
        let truth = bnl_skyline(db.oracle_tuples().as_slice(), db.schema());
        assert!(same_ids(&result.skyline, &truth));
    }

    #[test]
    fn completeness_under_an_adversarial_ranker() {
        let tuples = skyweb_datagen::synthetic::distinct_cells(&[7, 6, 5], 80, 13);
        let db = HiddenDb::new(pq_schema(&[7, 6, 5]), tuples, Box::new(WorstCaseRanker), 1);
        let result = PqDbSky::new().discover(&db).unwrap();
        let truth = bnl_skyline(db.oracle_tuples().as_slice(), db.schema());
        assert!(same_ids(&result.skyline, &truth));
    }

    #[test]
    fn two_dimensional_case_matches_pq2d() {
        let db = pseudo_random_db(&[12, 10], 60, 1, 3);
        let pq = PqDbSky::new().discover(&db).unwrap();
        let truth = bnl_skyline(db.oracle_tuples().as_slice(), db.schema());
        assert!(same_ids(&pq.skyline, &truth));
    }

    #[test]
    fn plane_attributes_are_the_largest_domains() {
        let db = pseudo_random_db(&[3, 50, 4, 40], 20, 1, 0);
        let ((a1, a2), others) = PqDbSky::split_attributes(&db);
        assert_eq!((a1, a2), (1, 3));
        assert_eq!(others, vec![0, 2]);
    }

    #[test]
    fn odometer_enumerates_every_combination() {
        let domains = vec![2u32, 3u32];
        let mut combo = vec![0u32, 0u32];
        let mut seen = vec![combo.clone()];
        while next_combo(&mut combo, &domains) {
            seen.push(combo.clone());
        }
        assert_eq!(seen.len(), 6);
        assert_eq!(seen[0], vec![0, 0]);
        assert_eq!(seen[5], vec![1, 2]);
    }

    #[test]
    fn underflowing_select_star_short_circuits() {
        let db = pseudo_random_db(&[5, 5, 5], 4, 50, 0);
        let result = PqDbSky::new().discover(&db).unwrap();
        assert_eq!(result.query_cost, 1);
        let truth = bnl_skyline(db.oracle_tuples().as_slice(), db.schema());
        assert!(same_ids(&result.skyline, &truth));
    }

    #[test]
    fn budget_exhaustion_is_graceful_and_sound() {
        let db = pseudo_random_db(&[10, 10, 6], 200, 1, 11);
        let result = PqDbSky::with_budget(3).discover(&db).unwrap();
        assert!(!result.complete);
        assert!(result.query_cost <= 3);
        // The partial result is internally consistent: no reported skyline
        // candidate is dominated by any other retrieved tuple.
        for s in &result.skyline {
            for r in &result.retrieved {
                assert!(!skyweb_hidden_db::dominates(r, s, db.schema()));
            }
        }
    }

    #[test]
    fn rejects_single_attribute_schemas() {
        let db = pseudo_random_db(&[5], 5, 1, 0);
        assert!(PqDbSky::new().discover(&db).is_err());
    }

    #[test]
    fn pq_detection_helper() {
        let db = pseudo_random_db(&[5, 5], 10, 1, 0);
        assert!(all_ranking_attrs_are_pq(&db));
        let s = SchemaBuilder::new()
            .ranking("a", 5, InterfaceType::Rq)
            .ranking("b", 5, InterfaceType::Pq)
            .build();
        let db2 = HiddenDb::new(s, vec![], Box::new(SumRanker), 1);
        assert!(!all_ranking_attrs_are_pq(&db2));
    }
}
