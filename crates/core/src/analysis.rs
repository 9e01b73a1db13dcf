//! Analytical query-cost models from the paper (Section 3.2), used by the
//! Figure 4 harness and by tests that check the measured costs against
//! theory.
//!
//! * [`sq_worst_case_bound`] — the worst-case bound `O(m · |S|^{m+1})` on
//!   the number of queries SQ-DB-SKY can issue under an arbitrary
//!   (ill-behaved) domination-consistent ranking function.
//! * [`sq_average_case_cost`] — the exact expectation `E(C_s)` of the query
//!   cost under the random-over-matching-skyline ranking model, computed
//!   with the paper's recurrence (Equation 4); [`sq_average_case_closed_form`]
//!   evaluates the closed form of Equation 5 and must agree with it.
//! * [`sq_average_case_upper_bound`] — the `(e + e·|S|/m)^m` bound of
//!   Equation 10, whose growth in `|S|` is orders of magnitude slower than
//!   the worst case.
//! * [`pq2d_cost`] — Equation 11, the exact (instance-optimal) query cost of
//!   PQ-2D-SKY on a given 2D skyline.

/// Worst-case query cost bound of SQ-DB-SKY: `m · |S|^{m+1}` (Section 3.2).
///
/// Like Equation 5, the bound leaves out the root (`SELECT *`) query, so a
/// run may cost one query more than this value: any one-tuple skyline costs
/// `m + 1` queries, which at `m = 2` is 3 against a bound of 2. The value is
/// the paper's bound as stated; callers comparing a measured cost add the
/// root query themselves.
///
/// Returned as `f64` because the bound overflows 64-bit integers already for
/// moderate `m` and `|S|`.
pub fn sq_worst_case_bound(m: usize, s: usize) -> f64 {
    (m as f64) * (s as f64).powi(m as i32 + 1)
}

/// Expected query cost `E(C_s)` of SQ-DB-SKY under the average-case model
/// (the ranking function returns a uniformly random skyline tuple of the
/// matching set), computed with the recurrence of Equation 4:
///
/// `E(C_s) = 1 + (m / s) · Σ_{i=0}^{s-1} E(C_i)`, with `E(C_0) = 1`.
pub fn sq_average_case_cost(m: usize, s: usize) -> f64 {
    assert!(m >= 1, "need at least one attribute");
    let m = m as f64;
    let mut costs = Vec::with_capacity(s + 1);
    costs.push(1.0); // C_0
    let mut prefix_sum = 1.0;
    for i in 1..=s {
        let c = 1.0 + (m / i as f64) * prefix_sum;
        prefix_sum += c;
        costs.push(c);
    }
    costs[s]
}

/// Closed form of the average-case cost, derived from Equation 5 of the
/// paper:
///
/// `E(C_s) = m·((m+s-1)! − (m−1)!·s!) / ((m−1)·(m−1)!·s!) + 1` for `m ≥ 2`.
///
/// The paper's Equation 5 omits the `+1` accounting for the root
/// (`SELECT *`) query that the recurrence of Equation 4 includes; we add it
/// back so that this closed form agrees exactly with
/// [`sq_average_case_cost`] (e.g. for `m = 2` the cost is `2s + 1`, i.e. the
/// `2s` reported in the paper plus the root query).
///
/// Evaluated with logarithms of factorials to stay finite for large inputs.
pub fn sq_average_case_closed_form(m: usize, s: usize) -> f64 {
    assert!(
        m >= 2,
        "the closed form requires m >= 2 (m = 1 is degenerate)"
    );
    if s == 0 {
        return 1.0;
    }
    let m_f = m as f64;
    // (m+s-1)! / ((m-1)! * s!) = C(m+s-1, s); compute via ln-factorial sums.
    let ln_binom = ln_factorial(m + s - 1) - ln_factorial(m - 1) - ln_factorial(s);
    let binom = ln_binom.exp();
    m_f * (binom - 1.0) / (m_f - 1.0) + 1.0
}

/// The `(e + e·s/m)^m` upper bound of Equation 10 on the average-case cost.
pub fn sq_average_case_upper_bound(m: usize, s: usize) -> f64 {
    let e = std::f64::consts::E;
    (e + e * (s as f64) / (m as f64)).powi(m as i32)
}

/// Natural logarithm of `n!` via a Stirling-free exact sum (fine for the
/// input sizes used in the experiments).
fn ln_factorial(n: usize) -> f64 {
    (1..=n).map(|i| (i as f64).ln()).sum()
}

/// Equation 11: the exact query cost of PQ-2D-SKY given the skyline points
/// of a 2D database (sorted by the first attribute, ascending) and the two
/// domain sizes.
pub fn pq2d_cost(skyline_sorted: &[(u32, u32)], dx: u32, dy: u32) -> u64 {
    crate::pq2d::eq11_cost(skyline_sorted, dx, dy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_case_bound_grows_fast() {
        // m · s^(m+1) = 2 · 3^3.
        assert_eq!(sq_worst_case_bound(2, 3), 54.0);
        assert!(sq_worst_case_bound(8, 19) > sq_worst_case_bound(4, 19));
        assert!(sq_worst_case_bound(4, 19) > sq_worst_case_bound(4, 3));
    }

    #[test]
    fn average_case_base_cases() {
        // |S| = 1: the SELECT * query plus m empty branches.
        for m in 1..=6 {
            assert!((sq_average_case_cost(m, 1) - (m as f64 + 1.0)).abs() < 1e-9);
        }
        // |S| = 0 (empty database): a single query.
        assert!((sq_average_case_cost(3, 0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn average_case_m2_is_2s_plus_root() {
        // The paper notes E(C_s) = 2s for m = 2; the recurrence additionally
        // counts the root SELECT * query, giving 2s + 1.
        for s in 1..=40 {
            assert!(
                (sq_average_case_cost(2, s) - (2.0 * s as f64 + 1.0)).abs() < 1e-6,
                "E(C_{s}) for m=2 should be {}",
                2 * s + 1
            );
        }
    }

    #[test]
    fn recurrence_matches_closed_form() {
        for m in 2..=8 {
            for s in 0..=25 {
                let rec = sq_average_case_cost(m, s);
                let closed = sq_average_case_closed_form(m, s);
                let rel = (rec - closed).abs() / closed.max(1.0);
                assert!(
                    rel < 1e-6,
                    "m={m}, s={s}: recurrence {rec} vs closed form {closed}"
                );
            }
        }
    }

    #[test]
    fn average_case_is_below_its_upper_bound() {
        for m in 2..=8 {
            for s in 1..=30 {
                assert!(
                    sq_average_case_cost(m, s) <= sq_average_case_upper_bound(m, s) * 1.0001,
                    "m={m}, s={s}"
                );
            }
        }
    }

    #[test]
    fn average_case_is_orders_of_magnitude_below_worst_case() {
        // The Figure 4 message: for m = 8, |S| = 19 the gap is enormous.
        let avg = sq_average_case_cost(8, 19);
        let worst = sq_worst_case_bound(8, 19);
        assert!(worst / avg > 1e6);
    }

    #[test]
    fn pq2d_cost_is_reexported() {
        // min(5-0, 9-5) + min(9-5, 5-0) = 4 + 4.
        assert_eq!(pq2d_cost(&[(5, 5)], 10, 10), 8);
    }
}
