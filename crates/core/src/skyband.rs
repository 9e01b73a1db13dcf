//! Top-h sky-band discovery (Section 7.2 of the paper).
//!
//! The *top-h sky band* contains every tuple dominated by fewer than `h`
//! other tuples; the skyline is the special case `h = 1`. Sky bands matter
//! because the top-k answer of **any** monotone ranking function with
//! `k ≤ h` is contained in the top-h sky band — so a downloaded sky band
//! lets a third-party service answer arbitrary user-defined top-k queries
//! without touching the hidden database again.
//!
//! For two-ended range interfaces the paper's extension is implemented
//! here as [`RqSkyband`]: any tuple on the top-`l` band (but not the
//! top-`(l-1)` band) is a skyline tuple of the *domination subspace* of some
//! top-`(l-1)` band tuple, so the band is discovered by re-running
//! RQ-DB-SKY once per already-discovered band tuple, rooted at the
//! conjunctive query `A_i ≥ t[A_i]`.
//!
//! The final band is read from the knowledge base, whose incremental index
//! keeps every band level of the retrieved tuples as they arrive
//! ([`SkybandMachine::take_band_result`]) — which is exact because at least
//! `h` dominators of any non-band tuple are themselves on the band and
//! therefore retrieved.

use std::collections::HashSet;
use std::sync::Arc;

use skyweb_hidden_db::{HiddenDb, InterfaceType, Predicate, Query, QueryResponse, Schema, Tuple};

use crate::codec::{self, CodecError, Reader};
use crate::driver::{DiscoveryDriver, DriverConfig};
use crate::machine::{Machine, MachineControl};
use crate::rq::RqTreeWalk;
use crate::{DiscoveryError, KnowledgeBase};

/// The sans-io machine form of [`RqSkyband`]: RQ-DB-SKY re-rooted in the
/// domination subspace of every already-discovered band tuple, level by
/// level. The generic [`DiscoveryMachine`](crate::DiscoveryMachine)
/// interface reports the plain skyline; use
/// [`SkybandMachine::take_band_result`] for the full top-h band.
pub type SkybandMachine = Machine<SkybandControl>;

/// Result of a sky-band discovery run. Tuples are `Arc`-shared with the
/// database store, like [`crate::DiscoveryResult`]'s.
#[derive(Debug, Clone)]
pub struct SkybandResult {
    /// The discovered top-h sky band (exact when `complete` is `true`).
    pub band: Vec<Arc<Tuple>>,
    /// Every tuple retrieved along the way.
    pub retrieved: Vec<Arc<Tuple>>,
    /// Total number of queries issued.
    pub query_cost: u64,
    /// Number of RQ-DB-SKY executions performed (the paper's cost driver is
    /// the size of the top-(h-1) band; we spend `m` runs per band tuple to
    /// cover its domination subspace with conjunctive boxes).
    pub runs: usize,
    /// Whether the procedure ran to completion.
    pub complete: bool,
}

/// Top-h sky-band discovery for two-ended range interfaces.
#[derive(Debug, Clone)]
pub struct RqSkyband {
    h: usize,
}

impl RqSkyband {
    /// Creates a discoverer for the top-`h` sky band.
    ///
    /// # Panics
    /// Panics if `h == 0`.
    pub fn new(h: usize) -> Self {
        assert!(h >= 1, "the sky band requires h >= 1");
        RqSkyband { h }
    }

    fn check_interface(db: &HiddenDb) -> Result<(), DiscoveryError> {
        for &a in db.schema().ranking_attrs() {
            if db.schema().attr(a).interface != InterfaceType::Rq {
                return Err(DiscoveryError::UnsupportedInterface {
                    reason: format!(
                        "sky-band discovery needs two-ended ranges on every ranking attribute, \
                         but '{}' is {}",
                        db.schema().attr(a).name,
                        db.schema().attr(a).interface.label()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Builds the sans-io machine for this band configuration.
    pub fn build_machine(&self, db: &HiddenDb) -> Result<SkybandMachine, DiscoveryError> {
        Self::check_interface(db)?;
        let attrs: Vec<usize> = db.schema().ranking_attrs().to_vec();
        let k = db.k();
        // Band-h knowledge base: the incremental index keeps every level of
        // the band current, so neither the per-level expansion nor the final
        // extraction recounts dominance over the retrieved set.
        let kb = KnowledgeBase::with_band(attrs.clone(), self.h);
        // Level 1: the plain skyline.
        let control = SkybandControl {
            state: SkyState::FirstTree(RqTreeWalk::new(Query::select_all(), attrs.clone(), k)),
            attrs,
            k,
            h: self.h,
            schema: db.schema().clone(),
            runs: 1,
            used_roots: HashSet::new(),
        };
        Ok(Machine::from_parts(kb, control))
    }

    /// Runs the discovery to completion and returns the top-h sky band.
    pub fn discover_band(&self, db: &HiddenDb) -> Result<SkybandResult, DiscoveryError> {
        let machine = self.build_machine(db)?;
        let mut machine =
            DiscoveryDriver::new(db, machine, DriverConfig::new()).run_into_machine()?;
        Ok(machine.take_band_result())
    }
}

#[derive(Debug, Clone)]
enum SkyState {
    /// The level-1 RQ-DB-SKY run over the whole space.
    FirstTree(RqTreeWalk),
    /// A domination-subspace run of levels 2..h, with the cursors needed to
    /// continue the level/tuple/box enumeration once it finishes.
    BandTree {
        tree: RqTreeWalk,
        level: usize,
        band_prev: Vec<Arc<Tuple>>,
        t_idx: usize,
        a_idx: usize,
    },
    /// Finished.
    Done,
}

/// Control state of [`SkybandMachine`]: the per-level domination-subspace
/// exploration of top-h sky-band discovery.
///
/// Levels 2..h explore the domination subspace of every tuple already known
/// to be on the band. The subspace "tuples dominated by t" (which must
/// exclude t itself) is covered by m boxes, the i-th requiring
/// `A_i > t[A_i]` and `A_j ≥ t[A_j]` elsewhere; RQ-DB-SKY is re-run rooted
/// at each box.
#[derive(Debug, Clone)]
pub struct SkybandControl {
    state: SkyState,
    attrs: Vec<usize>,
    k: usize,
    h: usize,
    schema: Schema,
    runs: usize,
    used_roots: HashSet<u64>,
}

impl SkybandControl {
    /// The i-th domination-subspace box of tuple `t`.
    fn box_root(&self, t: &Tuple, strict: usize) -> Query {
        Query::new(
            self.attrs
                .iter()
                .map(|&a| {
                    if a == strict {
                        Predicate::gt(a, t.values[a])
                    } else {
                        Predicate::ge(a, t.values[a])
                    }
                })
                .collect(),
        )
    }

    /// Advances the level/tuple/box cursors to the next satisfiable,
    /// not-yet-used domination-subspace box and starts its RQ-DB-SKY run;
    /// `Done` when every level is explored.
    fn seek_next_run(
        &mut self,
        kb: &KnowledgeBase,
        mut level: usize,
        mut band_prev: Vec<Arc<Tuple>>,
        mut t_idx: usize,
        mut a_idx: usize,
    ) {
        loop {
            while t_idx < band_prev.len() {
                let t = Arc::clone(&band_prev[t_idx]);
                if a_idx == 0 && !self.used_roots.insert(t.id) {
                    t_idx += 1;
                    continue;
                }
                while a_idx < self.attrs.len() {
                    let strict = self.attrs[a_idx];
                    let root = self.box_root(&t, strict);
                    a_idx += 1;
                    if root.is_unsatisfiable(&self.schema) {
                        // t already holds the worst possible value on
                        // the strict attribute; the box is empty.
                        continue;
                    }
                    self.runs += 1;
                    let mut tree = RqTreeWalk::new(root, self.attrs.clone(), self.k);
                    tree.decide(kb);
                    self.state = SkyState::BandTree {
                        tree,
                        level,
                        band_prev,
                        t_idx,
                        a_idx,
                    };
                    return;
                }
                a_idx = 0;
                t_idx += 1;
            }
            level += 1;
            if level >= self.h {
                self.state = SkyState::Done;
                return;
            }
            band_prev = kb.band_tuples(level);
            t_idx = 0;
            a_idx = 0;
        }
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let attrs = codec::read_usize_vec(r)?;
        let k = r.usize()?;
        let h = r.usize()?;
        let schema = codec::read_schema(r)?;
        let runs = r.usize()?;
        let n = r.usize()?;
        let mut used_roots = HashSet::new();
        for _ in 0..n {
            used_roots.insert(r.u64()?);
        }
        let state = match r.u8()? {
            0 => SkyState::FirstTree(RqTreeWalk::decode(r)?),
            1 => {
                let tree = RqTreeWalk::decode(r)?;
                let level = r.usize()?;
                let n = r.usize()?;
                let mut band_prev = Vec::new();
                for _ in 0..n {
                    band_prev.push(codec::read_tuple(r)?);
                }
                let t_idx = r.usize()?;
                let a_idx = r.usize()?;
                SkyState::BandTree {
                    tree,
                    level,
                    band_prev,
                    t_idx,
                    a_idx,
                }
            }
            2 => SkyState::Done,
            tag => return Err(CodecError::BadTag { tag }),
        };
        Ok(SkybandControl {
            state,
            attrs,
            k,
            h,
            schema,
            runs,
            used_roots,
        })
    }
}

impl MachineControl for SkybandControl {
    fn name(&self) -> &str {
        "RQ-SKYBAND"
    }

    fn done(&self) -> bool {
        matches!(self.state, SkyState::Done)
    }

    fn plan_into(&self, kb: &KnowledgeBase, _limit: usize, out: &mut Vec<Query>) {
        match &self.state {
            SkyState::FirstTree(tree) | SkyState::BandTree { tree, .. } => tree.plan_into(kb, out),
            SkyState::Done => {}
        }
    }

    fn on_response(&mut self, kb: &mut KnowledgeBase, issued: u64, resp: &QueryResponse) {
        match std::mem::replace(&mut self.state, SkyState::Done) {
            SkyState::FirstTree(mut tree) => {
                tree.on_response(kb, issued, resp);
                if !tree.done() {
                    self.state = SkyState::FirstTree(tree);
                } else if self.h == 1 {
                    self.state = SkyState::Done;
                } else {
                    // The level-1 run just finished: start the level loop.
                    let band_prev = kb.band_tuples(1);
                    self.seek_next_run(kb, 1, band_prev, 0, 0);
                }
            }
            SkyState::BandTree {
                mut tree,
                level,
                band_prev,
                t_idx,
                a_idx,
            } => {
                tree.on_response(kb, issued, resp);
                if tree.done() {
                    self.seek_next_run(kb, level, band_prev, t_idx, a_idx);
                } else {
                    self.state = SkyState::BandTree {
                        tree,
                        level,
                        band_prev,
                        t_idx,
                        a_idx,
                    };
                }
            }
            SkyState::Done => unreachable!("no response expected after the band was explored"),
        }
    }

    fn codec_tag(&self) -> Option<u8> {
        Some(codec::TAG_SKYBAND)
    }

    fn encode_control(&self, out: &mut Vec<u8>) {
        codec::put_usize_slice(out, &self.attrs);
        codec::put_usize(out, self.k);
        codec::put_usize(out, self.h);
        codec::put_schema(out, &self.schema);
        codec::put_usize(out, self.runs);
        // A hash set has no stable iteration order; write the root ids
        // sorted so re-encoding a decoded checkpoint reproduces the
        // original bytes.
        let mut roots: Vec<u64> = self.used_roots.iter().copied().collect();
        roots.sort_unstable();
        codec::put_usize(out, roots.len());
        for id in roots {
            codec::put_u64(out, id);
        }
        match &self.state {
            SkyState::FirstTree(tree) => {
                codec::put_u8(out, 0);
                tree.encode(out);
            }
            SkyState::BandTree {
                tree,
                level,
                band_prev,
                t_idx,
                a_idx,
            } => {
                codec::put_u8(out, 1);
                tree.encode(out);
                codec::put_usize(out, *level);
                codec::put_usize(out, band_prev.len());
                for t in band_prev {
                    codec::put_tuple(out, t);
                }
                codec::put_usize(out, *t_idx);
                codec::put_usize(out, *a_idx);
            }
            SkyState::Done => codec::put_u8(out, 2),
        }
    }
}

impl SkybandMachine {
    /// Consumes the machine into the full [`SkybandResult`] (band, runs,
    /// cost) — the machine-specific counterpart of
    /// [`DiscoveryMachine::take_result`](crate::DiscoveryMachine::take_result),
    /// which reports only the plain skyline.
    pub fn take_band_result(&mut self) -> SkybandResult {
        let complete = self.control().done() && !self.halted();
        let runs = self.control().runs;
        let h = self.control().h;
        let (kb, issued, complete) = self.finish_parts(complete);
        let mut band = kb.band_tuples(h);
        band.sort_by_key(|t| t.id);
        let mut retrieved: Vec<Arc<Tuple>> = kb.retrieved_snapshot().to_vec();
        retrieved.sort_by_key(|t| t.id);
        SkybandResult {
            band,
            retrieved,
            query_cost: issued,
            runs,
            complete,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyweb_hidden_db::{PlanOracle, SchemaBuilder, SumRanker};
    use skyweb_skyline::{same_ids, skyband};

    fn rq_schema(m: usize, domain: u32) -> skyweb_hidden_db::Schema {
        let mut b = SchemaBuilder::new();
        for i in 0..m {
            b = b.ranking(format!("a{i}"), domain, InterfaceType::Rq);
        }
        b.build()
    }

    /// Duplicate-free test database (general positioning assumption).
    fn pseudo_random_db(m: usize, domain: u32, n: u64, k: usize) -> HiddenDb {
        let domains = vec![domain; m];
        let tuples = skyweb_datagen::synthetic::distinct_cells(&domains, n as usize, 48271);
        HiddenDb::new(rq_schema(m, domain), tuples, Box::new(SumRanker), k)
    }

    #[test]
    fn h_equal_one_is_the_skyline() {
        let db = pseudo_random_db(2, 30, 100, 2);
        let result = RqSkyband::new(1).discover_band(&db).unwrap();
        assert!(result.complete);
        assert_eq!(result.runs, 1);
        let truth = skyband(db.oracle_tuples().as_slice(), db.schema(), 1);
        assert!(same_ids(&result.band, &truth));
    }

    #[test]
    fn top_two_band_matches_ground_truth() {
        let db = pseudo_random_db(2, 25, 120, 2);
        let result = RqSkyband::new(2).discover_band(&db).unwrap();
        assert!(result.complete);
        let truth = skyband(db.oracle_tuples().as_slice(), db.schema(), 2);
        assert!(same_ids(&result.band, &truth));
        assert!(result.runs >= 2);
    }

    #[test]
    fn top_three_band_matches_ground_truth_in_3d() {
        let db = pseudo_random_db(3, 12, 150, 3);
        let result = RqSkyband::new(3).discover_band(&db).unwrap();
        assert!(result.complete);
        let truth = skyband(db.oracle_tuples().as_slice(), db.schema(), 3);
        assert!(same_ids(&result.band, &truth));
    }

    #[test]
    fn band_contains_the_skyline() {
        let db = pseudo_random_db(3, 20, 150, 2);
        let sky = RqSkyband::new(1).discover_band(&db).unwrap().band;
        let db2 = pseudo_random_db(3, 20, 150, 2);
        let band = RqSkyband::new(2).discover_band(&db2).unwrap().band;
        let band_ids: Vec<u64> = band.iter().map(|t| t.id).collect();
        assert!(sky.iter().all(|t| band_ids.contains(&t.id)));
        assert!(band.len() >= sky.len());
    }

    #[test]
    fn rejects_non_rq_interfaces() {
        let schema = SchemaBuilder::new()
            .ranking("a", 10, InterfaceType::Pq)
            .ranking("b", 10, InterfaceType::Rq)
            .build();
        let db = HiddenDb::new(schema, vec![], Box::new(SumRanker), 1);
        assert!(RqSkyband::new(2).discover_band(&db).is_err());
    }

    #[test]
    fn an_exhausted_budget_is_reported() {
        let db = pseudo_random_db(3, 20, 300, 1);
        let machine = RqSkyband::new(2).build_machine(&db).unwrap();
        let config = DriverConfig::new().with_budget(Some(5));
        let mut machine = DiscoveryDriver::new(&db, machine, config)
            .run_into_machine()
            .unwrap();
        let result = machine.take_band_result();
        assert!(!result.complete);
        assert!(result.query_cost <= 5);
    }

    /// A domination-subspace run starts with its root's sq-vs-rq decision
    /// already taken for the current retrieved count, so neither its plan
    /// nor the response to it probes the knowledge base again.
    #[test]
    fn a_new_subtree_holds_its_decision_for_the_retrieved_count() {
        use crate::machine::DiscoveryMachine;
        let db = pseudo_random_db(2, 25, 120, 2);
        let mut machine = RqSkyband::new(2).build_machine(&db).unwrap();
        let mut session = db.session();
        let mut subtrees = 0;
        while !machine.is_finished() {
            let plan = machine.next_plan(1);
            let (responses, err) = session.run_plan_grouped(plan.queries(), plan.groups());
            assert!(err.is_none());
            let runs = machine.control().runs;
            machine.resume(&responses);
            if machine.control().runs == runs {
                continue;
            }
            // The response just finished a run and started the next one.
            subtrees += 1;
            let (kb, control) = (machine.knowledge(), machine.control());
            let SkyState::BandTree { tree, .. } = &control.state else {
                panic!("a new run is a domination-subspace tree");
            };
            assert!(tree.holds_decision_for(kb));
        }
        assert!(subtrees >= 2, "the band needs several subspace runs");
    }

    #[test]
    #[should_panic(expected = "h >= 1")]
    fn zero_h_panics() {
        let _ = RqSkyband::new(0);
    }
}
