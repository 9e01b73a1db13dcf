//! Domination-consistent ranking functions used by the hidden database to
//! pick which `k` of the matching tuples a query returns.
//!
//! The paper supports *any* ranking function with a single requirement,
//! **domination consistency**: if tuple `t` dominates `t'` and both match a
//! query, then `t` must be ranked above `t'` in the answer. Every ranker in
//! this module satisfies that requirement; [`is_domination_consistent`] can
//! be used to check arbitrary answers in tests.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::store::TupleStore;
use crate::tuple::dominates_on;
use crate::{AttrId, Schema, Tuple};

/// A hidden database's proprietary ranking function.
///
/// Given the set of tuples matching a query, a ranker selects and orders the
/// (at most) `k` tuples that the web interface returns.
pub trait Ranker: Send + Sync {
    /// Human-readable name of the ranking function (for logs and reports).
    fn name(&self) -> &str;

    /// Selects the top `k` tuples out of `matching`, best first.
    ///
    /// Implementations must be *domination-consistent*: a tuple that is
    /// dominated by another matching tuple may never be ranked above it.
    fn select_top_k<'a>(&self, matching: &[&'a Tuple], k: usize, schema: &Schema)
        -> Vec<&'a Tuple>;

    /// Computes, once at database-construction time, the ranker's global
    /// preference order over the whole tuple store: a permutation of tuple
    /// *indices* (positions in `store`), best-ranked first.
    ///
    /// The contract is that for every subset `S` of the store and every `k`,
    /// [`Ranker::select_top_k`] on `S` returns exactly the first `k` members
    /// of `S` in this order. Deterministic total-order rankers (anything
    /// score-based, single-attribute, lexicographic) can therefore be
    /// answered by the indexed query engine with an early-terminating scan
    /// in rank order instead of a filter-everything-then-sort pass.
    ///
    /// Returns `None` (the default) when the ranker has no fixed total
    /// order — e.g. randomized or adversarial rankers whose choice depends
    /// on the queried subset — in which case the engine falls back to
    /// calling `select_top_k` on the matching set.
    fn precompute(&self, store: &TupleStore, schema: &Schema) -> Option<Vec<u32>> {
        let _ = (store, schema);
        None
    }
}

/// Hands the matching set at store positions `indices` (ascending store
/// order) to [`Ranker::select_top_k`] and shares the chosen tuples, best
/// first: the selection step of the engine's fallback plan.
///
/// The store must be fully hydrated (always true in RAM), since the ranker
/// reads the matching tuples by reference.
pub(crate) fn select_shared(
    ranker: &dyn Ranker,
    store: &TupleStore,
    indices: &[u32],
    k: usize,
    schema: &Schema,
) -> Vec<Arc<Tuple>> {
    let matching: Vec<&Tuple> = indices.iter().map(|&i| &store[i as usize]).collect();
    let selected = ranker.select_top_k(&matching, k, schema);
    // Rankers return arbitrary references out of `matching`; recover
    // each one's store position by pointer identity — hash only the k
    // selected pointers (k is small), then resolve them with one pass
    // over the matching set.
    let pos_of: HashMap<*const Tuple, usize> = selected
        .iter()
        .enumerate()
        .map(|(pos, &t)| (t as *const Tuple, pos))
        .collect();
    let mut out = vec![u32::MAX; selected.len()];
    let mut remaining = selected.len();
    for (&t, &idx) in matching.iter().zip(indices) {
        if remaining == 0 {
            break;
        }
        if let Some(&pos) = pos_of.get(&(t as *const Tuple)) {
            out[pos] = idx;
            remaining -= 1;
        }
    }
    debug_assert!(out.iter().all(|&i| i != u32::MAX));
    out.iter().map(|&i| store.share(i as usize)).collect()
}

/// Rankers defined by a numeric score (lower score = ranked higher).
///
/// Any score that is monotone non-decreasing in every ranking attribute's
/// rank-space value is automatically domination-consistent.
pub trait ScoreRanker: Send + Sync {
    /// Name of the ranking function.
    fn name(&self) -> &str;
    /// The score of a tuple; lower is better.
    fn score(&self, tuple: &Tuple, schema: &Schema) -> f64;
}

impl<T: ScoreRanker> Ranker for T {
    fn name(&self) -> &str {
        ScoreRanker::name(self)
    }

    fn select_top_k<'a>(
        &self,
        matching: &[&'a Tuple],
        k: usize,
        schema: &Schema,
    ) -> Vec<&'a Tuple> {
        let mut scored: Vec<(f64, &'a Tuple)> = matching
            .iter()
            .map(|&t| (self.score(t, schema), t))
            .collect();
        // `total_cmp` rather than `partial_cmp(..).unwrap_or(Equal)`: the
        // latter silently scrambles the whole ordering as soon as one score
        // is NaN (sort comparators must be total). Under `total_cmp` NaN
        // scores sort after every finite score, deterministically.
        scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.id.cmp(&b.1.id)));
        scored.into_iter().take(k).map(|(_, t)| t).collect()
    }

    fn precompute(&self, store: &TupleStore, schema: &Schema) -> Option<Vec<u32>> {
        let scores: Vec<f64> = store.iter().map(|t| self.score(t, schema)).collect();
        let mut order: Vec<u32> = (0..store.len() as u32).collect();
        // Same (score, id) key and same stable sort as `select_top_k`, so
        // the permutation restricted to any matching subset reproduces the
        // subset's top-k order exactly.
        order.sort_by(|&a, &b| {
            scores[a as usize]
                .total_cmp(&scores[b as usize])
                .then(store[a as usize].id.cmp(&store[b as usize].id))
        });
        Some(order)
    }
}

/// Ranks tuples by the *sum* of their ranking-attribute rank values.
///
/// This is the ranking function the paper uses for its offline experiments:
/// "the SUM of attributes for which smaller values are preferred MINUS the
/// SUM of attributes for which larger values are preferred" — in rank space
/// all attributes are smaller-is-better, so the expression reduces to a
/// plain sum.
#[derive(Debug, Default, Clone)]
pub struct SumRanker;

impl ScoreRanker for SumRanker {
    fn name(&self) -> &str {
        "sum"
    }

    fn score(&self, tuple: &Tuple, schema: &Schema) -> f64 {
        schema
            .ranking_attrs()
            .iter()
            .map(|&a| f64::from(tuple.values[a]))
            .sum()
    }
}

/// Ranks tuples by a positive-weighted sum of their ranking attributes.
#[derive(Debug, Clone)]
pub struct WeightedSumRanker {
    weights: Vec<f64>,
}

impl WeightedSumRanker {
    /// Creates a weighted-sum ranker. `weights[i]` is the weight of the
    /// `i`-th *ranking* attribute (in `schema.ranking_attrs()` order).
    ///
    /// # Panics
    /// Panics if any weight is zero or negative: a non-positive weight would
    /// let a dominated tuple tie with (or overtake) its dominator, breaking
    /// domination consistency.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(
            weights.iter().all(|w| *w > 0.0),
            "weights must be strictly positive to preserve domination consistency"
        );
        WeightedSumRanker { weights }
    }
}

impl ScoreRanker for WeightedSumRanker {
    fn name(&self) -> &str {
        "weighted-sum"
    }

    fn score(&self, tuple: &Tuple, schema: &Schema) -> f64 {
        schema
            .ranking_attrs()
            .iter()
            .enumerate()
            .map(|(i, &a)| self.weights.get(i).copied().unwrap_or(1.0) * f64::from(tuple.values[a]))
            .sum()
    }
}

/// Ranks tuples by a single attribute (e.g. price, low to high), breaking
/// ties by the sum of the remaining ranking attributes and finally by tuple
/// id.
///
/// This models the default ranking of the live websites in the paper's
/// online experiments: Blue Nile, Google Flights and Yahoo! Autos all rank
/// by price. The tie-break on the other ranking attributes is what keeps the
/// ranker domination-consistent when several tuples share the primary
/// attribute value.
#[derive(Debug, Clone)]
pub struct SingleAttributeRanker {
    attr: AttrId,
}

impl SingleAttributeRanker {
    /// Ranks by the given attribute, ascending in rank space.
    pub fn new(attr: AttrId) -> Self {
        SingleAttributeRanker { attr }
    }
}

impl SingleAttributeRanker {
    fn sort_key(&self, t: &Tuple, schema: &Schema) -> (crate::Value, u64, u64) {
        let tie_break: u64 = schema
            .ranking_attrs()
            .iter()
            .filter(|&&a| a != self.attr)
            .map(|&a| u64::from(t.values[a]))
            .sum();
        (t.values[self.attr], tie_break, t.id)
    }
}

impl Ranker for SingleAttributeRanker {
    fn name(&self) -> &str {
        "single-attribute"
    }

    fn select_top_k<'a>(
        &self,
        matching: &[&'a Tuple],
        k: usize,
        schema: &Schema,
    ) -> Vec<&'a Tuple> {
        let mut sorted: Vec<&'a Tuple> = matching.to_vec();
        sorted.sort_by_key(|t| self.sort_key(t, schema));
        sorted.truncate(k);
        sorted
    }

    fn precompute(&self, store: &TupleStore, schema: &Schema) -> Option<Vec<u32>> {
        let mut order: Vec<u32> = (0..store.len() as u32).collect();
        order.sort_by_key(|&i| self.sort_key(&store[i as usize], schema));
        Some(order)
    }
}

/// Ranks tuples lexicographically by a priority list of attributes.
#[derive(Debug, Clone)]
pub struct LexicographicRanker {
    priority: Vec<AttrId>,
}

impl LexicographicRanker {
    /// Creates a lexicographic ranker with the given attribute priority.
    pub fn new(priority: Vec<AttrId>) -> Self {
        LexicographicRanker { priority }
    }
}

impl LexicographicRanker {
    fn compare(&self, a: &Tuple, b: &Tuple) -> std::cmp::Ordering {
        for &attr in &self.priority {
            let ord = a.values[attr].cmp(&b.values[attr]);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        a.id.cmp(&b.id)
    }
}

impl Ranker for LexicographicRanker {
    fn name(&self) -> &str {
        "lexicographic"
    }

    fn select_top_k<'a>(
        &self,
        matching: &[&'a Tuple],
        k: usize,
        _schema: &Schema,
    ) -> Vec<&'a Tuple> {
        let mut sorted: Vec<&'a Tuple> = matching.to_vec();
        sorted.sort_by(|a, b| self.compare(a, b));
        sorted.truncate(k);
        sorted
    }

    fn precompute(&self, store: &TupleStore, _schema: &Schema) -> Option<Vec<u32>> {
        let mut order: Vec<u32> = (0..store.len() as u32).collect();
        order.sort_by(|&a, &b| self.compare(&store[a as usize], &store[b as usize]));
        Some(order)
    }
}

/// Candidate state inside [`peel_top_k`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum PeelState {
    /// Dominated by at least one current minimal candidate.
    Pending,
    /// Currently non-dominated (a member of the minimal set).
    Minimal,
    /// Already emitted into the answer.
    Taken,
}

/// One candidate of a peel: a tuple handle plus its monotone order key (the
/// sum of its attribute values, so dominators come strictly first).
struct PeelCand<'a> {
    t: &'a Tuple,
    key: u64,
    state: PeelState,
}

/// The shared selection loop of the dominance-driven rankers: repeatedly
/// extract one element of the current minimal (non-dominated) set, chosen
/// by `choose`, until `k` elements are emitted or the candidates run out.
/// Returns the positions (into `cands`) of the emitted elements, best
/// first.
///
/// `cands` must be sorted ascending by `(key, id)`. The minimal set is
/// maintained *incrementally*: it is built once with a sort-filter pass
/// (each candidate tested against the minimal set only — exact, since every
/// dominator chain ends in a minimal element), and after each extraction
/// only the tuples the extracted element dominated are re-examined. The old
/// implementation recomputed the full pairwise `minimal_indices` from
/// scratch on every round — O(rounds · n²) dominance tests versus
/// O(n · s) here (s = minimal-set size).
///
/// `choose` receives the size of the minimal set and returns the index of
/// the element to extract. The minimal set is kept in ascending `(key, id)`
/// order, so `choose = |len| len - 1` extracts the worst-key minimal
/// element and `choose = |len| rng.gen_range(0..len)` extracts a uniform
/// one.
fn peel_top_k(
    cands: &mut [PeelCand<'_>],
    k: usize,
    attrs: &[AttrId],
    mut choose: impl FnMut(usize) -> usize,
) -> Vec<usize> {
    debug_assert!(cands
        .windows(2)
        .all(|w| { (w[0].key, w[0].t.id) < (w[1].key, w[1].t.id) }));
    // Initial minimal set: sort-filter pass. All previously accepted
    // minimal candidates have strictly smaller (key, id), so testing
    // against them alone is exact.
    let mut minimal: Vec<usize> = Vec::new();
    for i in 0..cands.len() {
        let dominated = minimal
            .iter()
            .any(|&m| dominates_on(cands[m].t, cands[i].t, attrs));
        if dominated {
            cands[i].state = PeelState::Pending;
        } else {
            cands[i].state = PeelState::Minimal;
            minimal.push(i);
        }
    }

    let mut out = Vec::with_capacity(k.min(cands.len()));
    while out.len() < k && !minimal.is_empty() {
        let ci = minimal.remove(choose(minimal.len()));
        cands[ci].state = PeelState::Taken;
        out.push(ci);
        if out.len() == k {
            break;
        }
        // Promotion pass: a pending tuple becomes minimal when the element
        // just removed was its last remaining minimal dominator. Only
        // tuples the removed element dominated (strictly larger key, so
        // strictly after `ci`) can be affected; processing them in key
        // order lets earlier promotions veto later ones.
        for j in ci + 1..cands.len() {
            if cands[j].state != PeelState::Pending || !dominates_on(cands[ci].t, cands[j].t, attrs)
            {
                continue;
            }
            // `minimal` holds ascending candidate positions == ascending
            // (key, id); only the prefix before `j` can dominate j.
            let lim = minimal.partition_point(|&m| m < j);
            let dominated = minimal[..lim]
                .iter()
                .any(|&m| dominates_on(cands[m].t, cands[j].t, attrs));
            if !dominated {
                cands[j].state = PeelState::Minimal;
                minimal.insert(lim, j);
            }
        }
    }
    out
}

/// Builds peel candidates: keys are attribute-value sums, sorted by
/// `(key, id)`.
fn peel_cands<'a>(matching: &[&'a Tuple], attrs: &[AttrId]) -> Vec<PeelCand<'a>> {
    let mut cands: Vec<PeelCand<'a>> = matching
        .iter()
        .map(|&t| PeelCand {
            t,
            key: attrs.iter().map(|&a| u64::from(t.values[a])).sum(),
            state: PeelState::Pending,
        })
        .collect();
    cands.sort_unstable_by_key(|c| (c.key, c.t.id));
    cands
}

/// The "average-case" ranking model of Section 3.2 of the paper: for every
/// query, the returned tuple is chosen **uniformly at random** among the
/// skyline tuples of the matching set.
///
/// The full top-k list is produced as a random linear extension of the
/// dominance partial order, generated by repeatedly drawing a uniform member
/// of the currently non-dominated tuples — which is domination-consistent by
/// construction.
#[derive(Debug)]
pub struct RandomSkylineRanker {
    rng: Mutex<StdRng>,
}

impl RandomSkylineRanker {
    /// Creates a randomized ranker with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        RandomSkylineRanker {
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        }
    }
}

impl Ranker for RandomSkylineRanker {
    fn name(&self) -> &str {
        "random-skyline"
    }

    fn select_top_k<'a>(
        &self,
        matching: &[&'a Tuple],
        k: usize,
        schema: &Schema,
    ) -> Vec<&'a Tuple> {
        let attrs = schema.ranking_attrs();
        let mut cands = peel_cands(matching, attrs);
        let mut rng = self
            .rng
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let picks = peel_top_k(&mut cands, k, attrs, |len| rng.gen_range(0..len));
        picks.into_iter().map(|pos| cands[pos].t).collect()
    }
}

/// An adversarial (but still domination-consistent) ranking function used in
/// worst-case experiments: among the currently non-dominated matching
/// tuples it always returns the one with the **largest** attribute-rank sum,
/// i.e. the tuple a "reasonable" ranking function would be least likely to
/// surface. This is the kind of ill-behaved ranking the worst-case analysis
/// of Section 3.2 has to assume.
#[derive(Debug, Default, Clone)]
pub struct WorstCaseRanker;

impl Ranker for WorstCaseRanker {
    fn name(&self) -> &str {
        "worst-case"
    }

    fn select_top_k<'a>(
        &self,
        matching: &[&'a Tuple],
        k: usize,
        schema: &Schema,
    ) -> Vec<&'a Tuple> {
        let attrs = schema.ranking_attrs();
        let mut cands = peel_cands(matching, attrs);
        // The minimal set is kept in ascending (sum, id) order, so the
        // adversarial largest-(sum, id) minimal element is simply its last
        // member — the same pick the old full recomputation made.
        let picks = peel_top_k(&mut cands, k, attrs, |len| len - 1);
        picks.into_iter().map(|pos| cands[pos].t).collect()
    }
}

/// Checks that an answer (`returned`, best first) to a query whose matching
/// set is `matching` respects domination consistency: no returned tuple is
/// preceded (or displaced) by a matching tuple that dominates it.
pub fn is_domination_consistent(returned: &[&Tuple], matching: &[&Tuple], schema: &Schema) -> bool {
    let attrs = schema.ranking_attrs();
    for (pos, &t) in returned.iter().enumerate() {
        for &u in matching {
            if dominates_on(u, t, attrs) {
                // `u` dominates `t`, so `u` must appear before `t`.
                match returned.iter().position(|&r| r.id == u.id) {
                    Some(upos) if upos < pos => {}
                    _ => return false,
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InterfaceType, SchemaBuilder};

    fn schema(m: usize) -> Schema {
        let mut b = SchemaBuilder::new();
        for i in 0..m {
            b = b.ranking(format!("a{i}"), 100, InterfaceType::Rq);
        }
        b.build()
    }

    fn toy_tuples() -> Vec<Tuple> {
        vec![
            Tuple::new(0, vec![5, 1]),
            Tuple::new(1, vec![4, 4]),
            Tuple::new(2, vec![1, 3]),
            Tuple::new(3, vec![3, 2]),
            Tuple::new(4, vec![6, 6]),
        ]
    }

    #[test]
    fn sum_ranker_orders_by_sum() {
        let s = schema(2);
        let tuples = toy_tuples();
        let refs: Vec<&Tuple> = tuples.iter().collect();
        let top = SumRanker.select_top_k(&refs, 3, &s);
        assert_eq!(top[0].id, 2); // sum 4
        assert_eq!(top[1].id, 3); // sum 5
        assert_eq!(top[2].id, 0); // sum 6
    }

    #[test]
    fn single_attribute_ranker_is_price_low_to_high() {
        let s = schema(2);
        let tuples = toy_tuples();
        let refs: Vec<&Tuple> = tuples.iter().collect();
        let top = SingleAttributeRanker::new(1).select_top_k(&refs, 2, &s);
        assert_eq!(top[0].id, 0);
        assert_eq!(top[1].id, 3);
    }

    #[test]
    fn lexicographic_ranker_respects_priority() {
        let s = schema(2);
        let tuples = [
            Tuple::new(0, vec![2, 0]),
            Tuple::new(1, vec![1, 9]),
            Tuple::new(2, vec![1, 3]),
        ];
        let refs: Vec<&Tuple> = tuples.iter().collect();
        let top = LexicographicRanker::new(vec![0, 1]).select_top_k(&refs, 3, &s);
        assert_eq!(top.iter().map(|t| t.id).collect::<Vec<_>>(), vec![2, 1, 0]);
    }

    #[test]
    fn weighted_sum_rejects_negative_weights() {
        let result = std::panic::catch_unwind(|| WeightedSumRanker::new(vec![1.0, -1.0]));
        assert!(result.is_err());
    }

    #[test]
    fn all_rankers_are_domination_consistent_on_toy_data() {
        let s = schema(2);
        let tuples = toy_tuples();
        let refs: Vec<&Tuple> = tuples.iter().collect();
        let rankers: Vec<Box<dyn Ranker>> = vec![
            Box::new(SumRanker),
            Box::new(WeightedSumRanker::new(vec![2.0, 0.5])),
            Box::new(SingleAttributeRanker::new(0)),
            Box::new(LexicographicRanker::new(vec![1, 0])),
            Box::new(RandomSkylineRanker::new(42)),
            Box::new(WorstCaseRanker),
        ];
        for ranker in &rankers {
            for k in 1..=tuples.len() {
                let top = ranker.select_top_k(&refs, k, &s);
                assert!(
                    is_domination_consistent(&top, &refs, &s),
                    "{} violated domination consistency at k={k}",
                    ranker.name()
                );
            }
        }
    }

    #[test]
    fn random_skyline_top1_is_always_a_skyline_tuple() {
        let s = schema(2);
        let tuples = toy_tuples();
        let refs: Vec<&Tuple> = tuples.iter().collect();
        let ranker = RandomSkylineRanker::new(7);
        // The skyline of the toy data is {0, 2, 3}.
        for _ in 0..50 {
            let top = ranker.select_top_k(&refs, 1, &s);
            assert!(matches!(top[0].id, 0 | 2 | 3));
        }
    }

    #[test]
    fn worst_case_ranker_prefers_large_sums_among_minimal() {
        let s = schema(2);
        let tuples = toy_tuples();
        let refs: Vec<&Tuple> = tuples.iter().collect();
        let top = WorstCaseRanker.select_top_k(&refs, 1, &s);
        // Among skyline tuples {0 (sum 6), 2 (sum 4), 3 (sum 5)} the ranker
        // picks the largest sum.
        assert_eq!(top[0].id, 0);
    }

    #[test]
    fn rankers_truncate_to_k() {
        let s = schema(2);
        let tuples = toy_tuples();
        let refs: Vec<&Tuple> = tuples.iter().collect();
        assert_eq!(SumRanker.select_top_k(&refs, 2, &s).len(), 2);
        assert_eq!(SumRanker.select_top_k(&refs, 100, &s).len(), tuples.len());
        assert!(SumRanker.select_top_k(&[], 3, &s).is_empty());
    }

    /// A pathological score function producing NaN for some tuples, used to
    /// pin down the NaN-safety of the sort in `select_top_k`.
    struct NanRanker;

    impl ScoreRanker for NanRanker {
        fn name(&self) -> &str {
            "nan"
        }

        fn score(&self, tuple: &Tuple, _schema: &Schema) -> f64 {
            if tuple.values[0] == 0 {
                f64::NAN
            } else {
                f64::from(tuple.values[0])
            }
        }
    }

    #[test]
    fn nan_scores_rank_last_and_deterministically() {
        let s = schema(2);
        let tuples = [
            Tuple::new(0, vec![0, 5]), // NaN score
            Tuple::new(1, vec![2, 5]),
            Tuple::new(2, vec![1, 5]),
            Tuple::new(3, vec![0, 9]), // NaN score
        ];
        let refs: Vec<&Tuple> = tuples.iter().collect();
        let top = NanRanker.select_top_k(&refs, 4, &s);
        // Finite scores first (ascending), then the NaN tuples in id order:
        // with the old `partial_cmp(..).unwrap_or(Equal)` comparator the
        // NaN entries scrambled the whole result non-deterministically.
        let ids: Vec<u64> = top.iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![2, 1, 0, 3]);
        for _ in 0..10 {
            let again: Vec<u64> = NanRanker
                .select_top_k(&refs, 4, &s)
                .iter()
                .map(|t| t.id)
                .collect();
            assert_eq!(again, ids);
        }
        assert_eq!(NanRanker.select_top_k(&refs, 1, &s)[0].id, 2);
    }

    #[test]
    fn precompute_order_reproduces_select_top_k_on_every_subset() {
        let s = schema(2);
        let tuples = vec![
            Tuple::new(0, vec![5, 1]),
            Tuple::new(1, vec![4, 4]),
            Tuple::new(2, vec![1, 3]),
            Tuple::new(3, vec![3, 2]),
            Tuple::new(4, vec![6, 6]),
            Tuple::new(5, vec![1, 3]), // duplicate values of tuple 2
        ];
        let store = TupleStore::new(tuples.clone());
        let rankers: Vec<Box<dyn Ranker>> = vec![
            Box::new(SumRanker),
            Box::new(WeightedSumRanker::new(vec![2.0, 0.5])),
            Box::new(SingleAttributeRanker::new(1)),
            Box::new(LexicographicRanker::new(vec![1, 0])),
        ];
        for ranker in &rankers {
            let perm = ranker
                .precompute(&store, &s)
                .expect("deterministic rankers must precompute an order");
            // Every subset (bitmask) and every k: the permutation filtered
            // to the subset must equal select_top_k on the subset.
            for mask in 0u32..(1 << tuples.len()) {
                let subset: Vec<&Tuple> = tuples
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, t)| t)
                    .collect();
                for k in 1..=subset.len() {
                    let expected: Vec<u64> = ranker
                        .select_top_k(&subset, k, &s)
                        .iter()
                        .map(|t| t.id)
                        .collect();
                    let from_perm: Vec<u64> = perm
                        .iter()
                        .filter(|&&i| mask & (1 << i) != 0)
                        .take(k)
                        .map(|&i| tuples[i as usize].id)
                        .collect();
                    assert_eq!(
                        from_perm,
                        expected,
                        "{} diverged on mask {mask:b}, k={k}",
                        ranker.name()
                    );
                }
            }
        }
    }

    #[test]
    fn randomized_rankers_do_not_precompute() {
        let s = schema(2);
        let store = TupleStore::new(toy_tuples());
        assert!(RandomSkylineRanker::new(1).precompute(&store, &s).is_none());
        assert!(WorstCaseRanker.precompute(&store, &s).is_none());
    }

    #[test]
    fn domination_consistency_checker_detects_violations() {
        let s = schema(2);
        let good = Tuple::new(0, vec![1, 1]);
        let bad = Tuple::new(1, vec![2, 2]);
        let matching = vec![&good, &bad];
        // `bad` returned ahead of the tuple dominating it.
        assert!(!is_domination_consistent(&[&bad, &good], &matching, &s));
        assert!(is_domination_consistent(&[&good, &bad], &matching, &s));
        // `bad` returned while its dominator is suppressed entirely.
        assert!(!is_domination_consistent(&[&bad], &matching, &s));
    }
}
