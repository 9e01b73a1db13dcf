//! PQ-2D-SKY (Algorithm 3 of the paper): instance-optimal skyline discovery
//! for a **two-dimensional** database whose attributes only support point
//! predicates.
//!
//! The algorithm issues `SELECT *` to obtain one skyline tuple `(x1, y1)`,
//! prunes the plane into the two rectangles of Figure 7 (everything
//! lower-left of the tuple is provably empty, everything upper-right is
//! dominated), and then repeatedly probes the cheaper dimension of a
//! remaining rectangle with a 1D point query (`x = x_L` or `y = y_B`),
//! shrinking the rectangle according to the answer. In the 2D case every 1D
//! query is guaranteed to return the (single) skyline tuple it covers, which
//! is what makes the procedure instance-optimal.

use skyweb_hidden_db::{HiddenDb, InterfaceType, Query, QueryResponse, Value};

use crate::codec::{self, CodecError, Reader};
use crate::machine::{DiscoveryMachine, Machine, MachineControl};
use crate::pq2dsub::{build_plane_rects, PlanePoint, PlaneSweep};
use crate::{Discoverer, DiscoveryError, KnowledgeBase};

/// The sans-io machine form of [`Pq2dSky`]: one `SELECT *`, then the
/// PQ-2DSUB-SKY probing sweep over the two remaining rectangles.
pub type Pq2dMachine = Machine<Pq2dControl>;

/// PQ-2D-SKY: instance-optimal skyline discovery over a 2-attribute
/// point-predicate database.
#[derive(Debug, Clone, Default)]
pub struct Pq2dSky {
    budget: Option<u64>,
}

impl Pq2dSky {
    /// Creates the algorithm with no client-side query budget.
    pub fn new() -> Self {
        Pq2dSky::default()
    }

    /// Limits the number of queries the algorithm may issue (anytime mode).
    pub fn with_budget(budget: u64) -> Self {
        Pq2dSky {
            budget: Some(budget),
        }
    }

    fn check_interface(db: &HiddenDb) -> Result<(usize, usize), DiscoveryError> {
        let ranking = db.schema().ranking_attrs();
        if ranking.len() != 2 {
            return Err(DiscoveryError::UnsupportedInterface {
                reason: format!(
                    "PQ-2D-SKY handles exactly 2 ranking attributes, the schema has {}",
                    ranking.len()
                ),
            });
        }
        for &a in ranking {
            if db.schema().attr(a).interface != InterfaceType::Pq {
                // PQ-2D-SKY also runs fine on stronger interfaces (every
                // interface supports equality), so this is not an error —
                // but keep the check for attribute count only.
            }
        }
        Ok((ranking[0], ranking[1]))
    }
}

impl Pq2dSky {
    /// Builds the concrete machine (also available through the boxed
    /// [`Discoverer::machine`] entry point).
    pub fn build_machine(&self, db: &HiddenDb) -> Result<Pq2dMachine, DiscoveryError> {
        let (a1, a2) = Self::check_interface(db)?;
        let control = Pq2dControl {
            a1,
            a2,
            dx: db.schema().attr(a1).domain_size,
            dy: db.schema().attr(a2).domain_size,
            k: db.k(),
            state: Pq2dState::Init,
        };
        Ok(Machine::from_parts(
            KnowledgeBase::new(vec![a1, a2]),
            control,
        ))
    }
}

#[derive(Debug, Clone)]
enum Pq2dState {
    /// `SELECT *` not yet answered.
    Init,
    /// Consuming the candidate rectangles of Figure 7.
    Sweep(PlaneSweep),
    /// Finished.
    Done,
}

/// Control state of [`Pq2dMachine`]: the instance-optimal 2D probing
/// procedure of PQ-2D-SKY.
#[derive(Debug, Clone)]
pub struct Pq2dControl {
    a1: usize,
    a2: usize,
    dx: Value,
    dy: Value,
    k: usize,
    state: Pq2dState,
}

impl Pq2dControl {
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let a1 = r.usize()?;
        let a2 = r.usize()?;
        let dx = r.u32()?;
        let dy = r.u32()?;
        let k = r.usize()?;
        let state = match r.u8()? {
            0 => Pq2dState::Init,
            1 => Pq2dState::Sweep(PlaneSweep::decode(r)?),
            2 => Pq2dState::Done,
            tag => return Err(CodecError::BadTag { tag }),
        };
        Ok(Pq2dControl {
            a1,
            a2,
            dx,
            dy,
            k,
            state,
        })
    }
}

impl MachineControl for Pq2dControl {
    fn name(&self) -> &str {
        "PQ-2D-SKY"
    }

    fn done(&self) -> bool {
        matches!(self.state, Pq2dState::Done)
    }

    fn plan_into(&self, _kb: &KnowledgeBase, _limit: usize, out: &mut Vec<Query>) {
        match &self.state {
            Pq2dState::Init => out.push(Query::select_all()),
            Pq2dState::Sweep(sweep) => sweep.plan_into(out),
            Pq2dState::Done => {}
        }
    }

    fn on_response(&mut self, kb: &mut KnowledgeBase, issued: u64, resp: &QueryResponse) {
        match &mut self.state {
            Pq2dState::Init => {
                kb.ingest(&resp.tuples);
                kb.record(issued);
                if resp.tuples.len() < self.k {
                    // The whole database fit in one answer.
                    self.state = Pq2dState::Done;
                    return;
                }
                let top = &resp.tuples[0];
                let corner = PlanePoint {
                    x: i64::from(top.values[self.a1]),
                    y: i64::from(top.values[self.a2]),
                };
                let rects = build_plane_rects(self.dx, self.dy, &[corner], Some(corner));
                let sweep = PlaneSweep::new(self.a1, self.a2, Vec::new(), rects);
                self.state = if sweep.done() {
                    Pq2dState::Done
                } else {
                    Pq2dState::Sweep(sweep)
                };
            }
            Pq2dState::Sweep(sweep) => {
                sweep.on_response(kb, issued, resp);
                if sweep.done() {
                    self.state = Pq2dState::Done;
                }
            }
            Pq2dState::Done => unreachable!("no response expected after the sweep finished"),
        }
    }

    fn codec_tag(&self) -> Option<u8> {
        Some(codec::TAG_PQ2D)
    }

    fn encode_control(&self, out: &mut Vec<u8>) {
        codec::put_usize(out, self.a1);
        codec::put_usize(out, self.a2);
        codec::put_u32(out, self.dx);
        codec::put_u32(out, self.dy);
        codec::put_usize(out, self.k);
        match &self.state {
            Pq2dState::Init => codec::put_u8(out, 0),
            Pq2dState::Sweep(sweep) => {
                codec::put_u8(out, 1);
                sweep.encode(out);
            }
            Pq2dState::Done => codec::put_u8(out, 2),
        }
    }
}

impl Discoverer for Pq2dSky {
    fn name(&self) -> &str {
        "PQ-2D-SKY"
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
    use crate::analysis::pq2d_cost;
    use skyweb_hidden_db::{SchemaBuilder, SingleAttributeRanker, SumRanker, Tuple};
    use skyweb_skyline::{bnl_skyline, same_ids};

    fn pq_schema(dx: u32, dy: u32) -> skyweb_hidden_db::Schema {
        SchemaBuilder::new()
            .ranking("x", dx, InterfaceType::Pq)
            .ranking("y", dy, InterfaceType::Pq)
            .build()
    }

    fn grid_db(points: &[(u32, u32)], dx: u32, dy: u32, k: usize) -> HiddenDb {
        let tuples: Vec<Tuple> = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| Tuple::new(i as u64, vec![x, y]))
            .collect();
        HiddenDb::new(pq_schema(dx, dy), tuples, Box::new(SumRanker), k)
    }

    #[test]
    fn discovers_a_simple_staircase() {
        let db = grid_db(&[(1, 8), (3, 5), (6, 2), (7, 7), (8, 8)], 10, 10, 1);
        let result = Pq2dSky::new().discover(&db).unwrap();
        assert!(result.complete);
        let truth = bnl_skyline(db.oracle_tuples().as_slice(), db.schema());
        assert!(same_ids(&result.skyline, &truth));
        assert_eq!(result.skyline.len(), 3);
    }

    /// The measured cost of discovering `points` on a `dx` × `dy` grid
    /// (k = 1, `SumRanker`), next to `pq2d_cost` (Eq 11) of its skyline.
    fn cost_and_eq11(points: &[(u32, u32)], dx: u32, dy: u32) -> (u64, u64) {
        let db = grid_db(points, dx, dy, 1);
        let result = Pq2dSky::new().discover(&db).unwrap();
        let mut sky: Vec<(u32, u32)> = bnl_skyline(db.oracle_tuples().as_slice(), db.schema())
            .iter()
            .map(|t| (t.values[0], t.values[1]))
            .collect();
        sky.sort();
        (result.query_cost, pq2d_cost(&sky, dx, dy))
    }

    #[test]
    fn cost_stays_close_to_the_eq11_optimum() {
        // Eq 11 plus the root SELECT *, exactly.
        let points = [(1, 8), (3, 5), (6, 2), (7, 7), (8, 8), (9, 9), (2, 9)];
        assert_eq!(cost_and_eq11(&points, 12, 12), (9, 8));
    }

    /// The smallest grid on which Eq 11 undercounts (see `pq2d_cost`): the
    /// cells below and left of (2, 18) must be certified empty too.
    #[test]
    fn eq11_undercounts_the_23_by_20_grid() {
        assert_eq!(cost_and_eq11(&[(14, 0), (2, 18)], 23, 20), (15, 13));
    }

    /// Eq 11 plus the root query is a lower bound on the cost, met exactly
    /// on most small grids.
    #[test]
    fn eq11_plus_the_root_query_is_a_lower_bound() {
        let mut state = 0x5EED_u64;
        let mut draw = |bound: u32| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % u64::from(bound)) as u32
        };
        let (mut met, mut above) = (0, 0);
        for _ in 0..3_000 {
            let (dx, dy) = (2 + draw(6), 2 + draw(6));
            let mut points = Vec::new();
            for _ in 0..1 + draw(8) {
                let p = (draw(dx), draw(dy));
                if !points.contains(&p) {
                    points.push(p);
                }
            }
            let (cost, eq11) = cost_and_eq11(&points, dx, dy);
            assert!(
                cost > eq11,
                "{points:?} on {dx} x {dy}: cost {cost} < {eq11} + 1"
            );
            if cost == eq11 + 1 {
                met += 1;
            } else {
                above += 1;
            }
        }
        assert_eq!((met, above), (2_870, 130));
    }

    #[test]
    fn works_when_every_value_is_occupied() {
        // Dense anti-diagonal: every tuple is a skyline tuple.
        let points: Vec<(u32, u32)> = (0..8).map(|i| (i, 7 - i)).collect();
        let db = grid_db(&points, 8, 8, 1);
        let result = Pq2dSky::new().discover(&db).unwrap();
        assert_eq!(result.skyline.len(), 8);
    }

    #[test]
    fn underflowing_select_star_finishes_in_one_query() {
        let db = grid_db(&[(3, 4), (5, 1)], 10, 10, 10);
        let result = Pq2dSky::new().discover(&db).unwrap();
        assert!(result.complete);
        assert_eq!(result.query_cost, 1);
        assert_eq!(result.skyline.len(), 2);
    }

    #[test]
    fn price_style_ranking_function_is_supported() {
        let points = [(2, 6), (4, 3), (6, 1), (5, 5)];
        let tuples: Vec<Tuple> = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| Tuple::new(i as u64, vec![x, y]))
            .collect();
        let db = HiddenDb::new(
            pq_schema(8, 8),
            tuples,
            Box::new(SingleAttributeRanker::new(1)),
            1,
        );
        let result = Pq2dSky::new().discover(&db).unwrap();
        let truth = bnl_skyline(db.oracle_tuples().as_slice(), db.schema());
        assert!(same_ids(&result.skyline, &truth));
    }

    #[test]
    fn rejects_higher_dimensional_schemas() {
        let schema = SchemaBuilder::new()
            .ranking("x", 4, InterfaceType::Pq)
            .ranking("y", 4, InterfaceType::Pq)
            .ranking("z", 4, InterfaceType::Pq)
            .build();
        let db = HiddenDb::new(
            schema,
            vec![Tuple::new(0, vec![0, 0, 0])],
            Box::new(SumRanker),
            1,
        );
        assert!(Pq2dSky::new().discover(&db).is_err());
    }

    #[test]
    fn eq11_cost_examples() {
        // Single skyline point in the middle of a 10x10 grid:
        // min(5-0, 9-5) + min(9-5, 5-0) = 4 + 4.
        assert_eq!(pq2d_cost(&[(5, 5)], 10, 10), 8);
        // Empty skyline costs nothing.
        assert_eq!(pq2d_cost(&[], 10, 10), 0);
    }

    #[test]
    fn budget_exhaustion_is_graceful() {
        let points: Vec<(u32, u32)> = (0..20).map(|i| (i, 19 - i)).collect();
        let db = grid_db(&points, 20, 20, 1);
        let result = Pq2dSky::with_budget(5).discover(&db).unwrap();
        assert!(!result.complete);
        assert_eq!(result.query_cost, 5);
        let truth = bnl_skyline(db.oracle_tuples().as_slice(), db.schema());
        let truth_ids: Vec<u64> = truth.iter().map(|t| t.id).collect();
        assert!(result.skyline.iter().all(|t| truth_ids.contains(&t.id)));
    }
}
