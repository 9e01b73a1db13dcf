//! PQ-2DSUB-SKY: the 2D-subspace machinery shared by [`crate::Pq2dSky`] and
//! [`crate::PqDbSky`].
//!
//! A *plane* is the 2D subspace obtained by fixing every ranking attribute
//! except two (`a1`, `a2`) to a concrete value combination through equality
//! predicates. Skyline discovery inside a plane works on a set of disjoint
//! candidate **rectangles**:
//!
//! * rectangles are derived from the paper's "block-diagonal" construction:
//!   the plane grid minus the region dominated by already-retrieved tuples
//!   (an upper-right staircase) and minus the lower-left rectangle that a
//!   query containing the plane has proven empty (Figure 12 of the paper);
//! * each rectangle is then consumed with the PQ-2D-SKY probing rule: probe
//!   the cheaper dimension — a column query `a1 = x_L` if the rectangle is
//!   narrower than it is tall, a row query `a2 = y_B` otherwise — and shrink
//!   the rectangle according to the answer.
//!
//! Every cell ever removed from a rectangle is either certified empty by a
//! query answer or dominated by a retrieved tuple, which is what guarantees
//! complete skyline discovery.

use skyweb_hidden_db::{AttrId, Predicate, Query, QueryResponse, Value};

use crate::codec::{self, CodecError, Reader};
use crate::KnowledgeBase;

/// An inclusive candidate rectangle `[xl, xr] × [yb, yt]` in a 2D plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Rect {
    pub xl: i64,
    pub xr: i64,
    pub yb: i64,
    pub yt: i64,
}

impl Rect {
    pub(crate) fn new(xl: i64, xr: i64, yb: i64, yt: i64) -> Self {
        Rect { xl, xr, yb, yt }
    }

    /// `true` if the rectangle still contains at least one cell.
    pub(crate) fn is_valid(&self) -> bool {
        self.xl <= self.xr && self.yb <= self.yt
    }

    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        codec::put_i64(out, self.xl);
        codec::put_i64(out, self.xr);
        codec::put_i64(out, self.yb);
        codec::put_i64(out, self.yt);
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Rect {
            xl: r.i64()?,
            xr: r.i64()?,
            yb: r.i64()?,
            yt: r.i64()?,
        })
    }

    fn width(&self) -> i64 {
        self.xr - self.xl
    }

    fn height(&self) -> i64 {
        self.yt - self.yb
    }
}

/// A point of the plane (projection of a tuple onto the two plane
/// attributes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlanePoint {
    pub x: i64,
    pub y: i64,
}

/// Builds the candidate rectangles of a plane.
///
/// * `dx`, `dy` — domain sizes of the two plane attributes;
/// * `pruning` — projections of retrieved tuples that dominate within the
///   plane (each removes the closed upper-right quadrant it spans);
/// * `empty_corner` — optional projection of a tuple returned by a query
///   containing the plane, proving the closed lower-left rectangle
///   `(0,0)..=(ex,ey)` empty.
pub(crate) fn build_plane_rects(
    dx: Value,
    dy: Value,
    pruning: &[PlanePoint],
    empty_corner: Option<PlanePoint>,
) -> Vec<Rect> {
    let dx = i64::from(dx);
    let dy = i64::from(dy);

    // Keep only the minima (staircase corners) of the pruning set, sorted by
    // x ascending; their y values are then strictly decreasing.
    let mut minima: Vec<PlanePoint> = Vec::new();
    for &p in pruning {
        if pruning
            .iter()
            .any(|&q| (q.x <= p.x && q.y <= p.y) && (q.x < p.x || q.y < p.y))
        {
            continue;
        }
        if !minima.contains(&p) {
            minima.push(p);
        }
    }
    minima.sort_by_key(|p| (p.x, p.y));

    // Vertical strips of the non-dominated region.
    let mut strips: Vec<Rect> = Vec::new();
    if minima.is_empty() {
        strips.push(Rect::new(0, dx - 1, 0, dy - 1));
    } else {
        if minima[0].x > 0 {
            strips.push(Rect::new(0, minima[0].x - 1, 0, dy - 1));
        }
        for (i, p) in minima.iter().enumerate() {
            let next_x = if i + 1 < minima.len() {
                minima[i + 1].x
            } else {
                dx
            };
            if p.y > 0 && p.x < next_x {
                strips.push(Rect::new(p.x, next_x - 1, 0, p.y - 1));
            }
        }
    }

    // Refine each strip with the proven-empty lower-left corner.
    let mut rects = Vec::new();
    for strip in strips {
        match empty_corner {
            None => rects.push(strip),
            Some(e) => {
                if strip.xl > e.x || strip.yb > e.y {
                    // Entire strip lies outside the empty rectangle's columns
                    // or above its rows.
                    rects.push(strip);
                } else if strip.xr <= e.x {
                    // Whole strip within the empty columns: only rows above
                    // the corner remain.
                    rects.push(Rect::new(strip.xl, strip.xr, e.y + 1, strip.yt));
                } else {
                    // Split at the corner column.
                    rects.push(Rect::new(strip.xl, e.x, e.y + 1, strip.yt));
                    rects.push(Rect::new(e.x + 1, strip.xr, strip.yb, strip.yt));
                }
            }
        }
    }
    rects.retain(Rect::is_valid);
    rects
}

/// The PQ-2DSUB-SKY sub-machine: discovers every skyline tuple of one
/// plane by consuming its candidate rectangles, one 1D probe per
/// round-trip.
///
/// This is the sans-io form of the paper's 2D probing rule, composed by the
/// [`crate::Pq2dMachine`] (one sweep over the whole grid) and the
/// [`crate::PqMachine`] (one sweep per value combination of the non-plane
/// attributes). Plans are single-query: every probe's answer decides how
/// the current rectangle shrinks, and whether it is abandoned.
#[derive(Debug, Clone)]
pub(crate) struct PlaneSweep {
    a1: AttrId,
    a2: AttrId,
    plane_preds: Vec<Predicate>,
    /// Remaining rectangles, sorted by `Reverse(xl)` so popping from the
    /// back processes them left-to-right (preferential order on the first
    /// plane attribute — the anytime property inside a plane).
    rects: Vec<Rect>,
    /// The rectangle currently being consumed.
    cur: Option<Rect>,
}

impl PlaneSweep {
    pub(crate) fn new(
        a1: AttrId,
        a2: AttrId,
        plane_preds: Vec<Predicate>,
        mut rects: Vec<Rect>,
    ) -> Self {
        rects.sort_by_key(|r| std::cmp::Reverse(r.xl));
        let mut sweep = PlaneSweep {
            a1,
            a2,
            plane_preds,
            rects,
            cur: None,
        };
        sweep.advance_rect();
        sweep
    }

    /// Moves on to the next valid rectangle when the current one is
    /// consumed or abandoned.
    fn advance_rect(&mut self) {
        while self.cur.is_none_or(|r| !r.is_valid()) {
            match self.rects.pop() {
                Some(r) => self.cur = Some(r),
                None => {
                    self.cur = None;
                    return;
                }
            }
        }
    }

    pub(crate) fn done(&self) -> bool {
        self.cur.is_none()
    }

    /// The probing rule: query the cheaper dimension of the rectangle.
    fn probe(&self, rect: &Rect) -> (bool, Query) {
        let probe_column = rect.width() <= rect.height();
        let query = if probe_column {
            Query::new(self.plane_preds.clone()).and(Predicate::eq(self.a1, rect.xl as Value))
        } else {
            Query::new(self.plane_preds.clone()).and(Predicate::eq(self.a2, rect.yb as Value))
        };
        (probe_column, query)
    }

    pub(crate) fn plan_into(&self, out: &mut Vec<Query>) {
        if let Some(rect) = &self.cur {
            out.push(self.probe(rect).1);
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
            reason = "drive() protocol invariant: a response only arrives for the probe plan this machine just emitted"
        )]
        let rect = self
            .cur
            .as_mut()
            .expect("a response arrived without a pending probe");
        // Same decision the plan was derived from (rect unchanged since).
        let probe_column = rect.width() <= rect.height();
        kb.ingest(&resp.tuples);
        kb.record(issued);

        let mut abandon = false;
        match resp.tuples.first() {
            None => {
                // The probed line of the plane is empty.
                if probe_column {
                    rect.xl += 1;
                } else {
                    rect.yb += 1;
                }
            }
            Some(top) => {
                if probe_column {
                    let y = i64::from(top.values[self.a2]);
                    if y > rect.yt {
                        // The best tuple of this column lies above the
                        // rectangle: no candidate inside it.
                        rect.xl += 1;
                    } else if y < rect.yb {
                        // The returned tuple dominates the entire
                        // remaining rectangle.
                        abandon = true;
                    } else {
                        rect.xl += 1;
                        rect.yt = y - 1;
                    }
                } else {
                    let x = i64::from(top.values[self.a1]);
                    if x > rect.xr {
                        rect.yb += 1;
                    } else if x < rect.xl {
                        abandon = true;
                    } else {
                        rect.yb += 1;
                        rect.xr = x - 1;
                    }
                }
            }
        }
        if abandon {
            self.cur = None;
        }
        self.advance_rect();
    }

    /// Field-verbatim encode: the sweep's rectangle list is mid-traversal
    /// state, so the decoder must **not** go through [`PlaneSweep::new`]
    /// (which re-sorts the list and advances to the first rectangle).
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        codec::put_usize(out, self.a1);
        codec::put_usize(out, self.a2);
        codec::put_predicates(out, &self.plane_preds);
        codec::put_usize(out, self.rects.len());
        for r in &self.rects {
            r.encode(out);
        }
        codec::put_bool(out, self.cur.is_some());
        if let Some(r) = &self.cur {
            r.encode(out);
        }
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let a1 = r.usize()?;
        let a2 = r.usize()?;
        let plane_preds = codec::read_predicates(r)?;
        let n = r.usize()?;
        let mut rects = Vec::new();
        for _ in 0..n {
            rects.push(Rect::decode(r)?);
        }
        let cur = if r.bool()? {
            Some(Rect::decode(r)?)
        } else {
            None
        };
        Ok(PlaneSweep {
            a1,
            a2,
            plane_preds,
            rects,
            cur,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(rects: &[Rect]) -> Vec<(i64, i64, i64, i64)> {
        let mut v: Vec<_> = rects.iter().map(|r| (r.xl, r.xr, r.yb, r.yt)).collect();
        v.sort();
        v
    }

    #[test]
    fn no_pruning_yields_the_full_grid() {
        let rects = build_plane_rects(5, 7, &[], None);
        assert_eq!(ids(&rects), vec![(0, 4, 0, 6)]);
    }

    #[test]
    fn single_corner_matches_the_paper_construction() {
        // SELECT * returned (x1, y1) = (3, 4) on a 10x10 grid: the remaining
        // candidate rectangles are [0,2]x[5,9] and [4,9]x[0,3]
        // (Figure 7 of the paper).
        let p = PlanePoint { x: 3, y: 4 };
        let rects = build_plane_rects(10, 10, &[p], Some(p));
        assert_eq!(ids(&rects), vec![(0, 2, 5, 9), (4, 9, 0, 3)]);
    }

    #[test]
    fn staircase_of_two_points() {
        let pts = [PlanePoint { x: 2, y: 6 }, PlanePoint { x: 5, y: 3 }];
        let rects = build_plane_rects(8, 8, &pts, None);
        // Strips: [0,1]x[0,7], [2,4]x[0,5], [5,7]x[0,2].
        assert_eq!(ids(&rects), vec![(0, 1, 0, 7), (2, 4, 0, 5), (5, 7, 0, 2)]);
    }

    #[test]
    fn dominated_pruning_points_are_ignored() {
        let pts = [
            PlanePoint { x: 2, y: 2 },
            PlanePoint { x: 4, y: 4 }, // dominated by (2,2)
        ];
        let rects = build_plane_rects(6, 6, &pts, None);
        assert_eq!(ids(&rects), vec![(0, 1, 0, 5), (2, 5, 0, 1)]);
    }

    #[test]
    fn corner_at_origin_eliminates_nothing_extra() {
        // A pruning point at (0, 0) dominates the whole plane.
        let pts = [PlanePoint { x: 0, y: 0 }];
        let rects = build_plane_rects(6, 6, &pts, None);
        assert!(rects.is_empty());
    }

    #[test]
    fn empty_corner_covering_whole_strip_moves_its_floor() {
        let rects = build_plane_rects(4, 6, &[], Some(PlanePoint { x: 3, y: 2 }));
        assert_eq!(ids(&rects), vec![(0, 3, 3, 5)]);
    }

    #[test]
    fn degenerate_domains() {
        let rects = build_plane_rects(1, 1, &[], None);
        assert_eq!(ids(&rects), vec![(0, 0, 0, 0)]);
        let rects = build_plane_rects(1, 1, &[PlanePoint { x: 0, y: 0 }], None);
        assert!(rects.is_empty());
    }
}
