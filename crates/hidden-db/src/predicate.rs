//! Conjunctive search queries and per-attribute predicates.

use std::fmt;

use crate::{AttrId, AttributeSpec, Schema, Tuple, Value};

/// Comparison operator of a search predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `attribute < value`
    Lt,
    /// `attribute <= value`
    Le,
    /// `attribute = value`
    Eq,
    /// `attribute >= value`
    Ge,
    /// `attribute > value`
    Gt,
}

impl CmpOp {
    /// Evaluates `lhs OP rhs`.
    pub fn eval(self, lhs: Value, rhs: Value) -> bool {
        match self {
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Gt => lhs > rhs,
        }
    }

    /// `true` for operators that bound the attribute from above
    /// ("better than" predicates in rank space).
    pub fn is_upper_bound(self) -> bool {
        matches!(self, CmpOp::Lt | CmpOp::Le)
    }

    /// SQL-ish symbol used by [`fmt::Display`].
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Eq => "=",
            CmpOp::Ge => ">=",
            CmpOp::Gt => ">",
        }
    }
}

/// A single predicate of a conjunctive search query: `attribute OP value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Predicate {
    /// The attribute the predicate constrains.
    pub attr: AttrId,
    /// The comparison operator.
    pub op: CmpOp,
    /// The rank-space constant on the right-hand side.
    pub value: Value,
}

impl Predicate {
    /// Creates a new predicate.
    pub fn new(attr: AttrId, op: CmpOp, value: Value) -> Self {
        Predicate { attr, op, value }
    }

    /// `attr < value`
    pub fn lt(attr: AttrId, value: Value) -> Self {
        Predicate::new(attr, CmpOp::Lt, value)
    }

    /// `attr <= value`
    pub fn le(attr: AttrId, value: Value) -> Self {
        Predicate::new(attr, CmpOp::Le, value)
    }

    /// `attr = value`
    pub fn eq(attr: AttrId, value: Value) -> Self {
        Predicate::new(attr, CmpOp::Eq, value)
    }

    /// `attr >= value`
    pub fn ge(attr: AttrId, value: Value) -> Self {
        Predicate::new(attr, CmpOp::Ge, value)
    }

    /// `attr > value`
    pub fn gt(attr: AttrId, value: Value) -> Self {
        Predicate::new(attr, CmpOp::Gt, value)
    }

    /// Evaluates the predicate against a tuple.
    pub fn matches(&self, tuple: &Tuple) -> bool {
        self.op.eval(tuple.values[self.attr], self.value)
    }
}

/// A conjunctive search query: the conjunction (`AND`) of zero or more
/// predicates. The empty conjunction is the `SELECT *` query that matches
/// every tuple.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Query {
    predicates: Vec<Predicate>,
}

impl Query {
    /// The `SELECT * FROM D` query (no predicates).
    pub fn select_all() -> Self {
        Query::default()
    }

    /// Builds a query from a list of predicates.
    pub fn new(predicates: Vec<Predicate>) -> Self {
        Query { predicates }
    }

    /// The predicates of this query, in insertion order.
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.predicates.len()
    }

    /// `true` if the query has no predicates (`SELECT *`).
    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty()
    }

    /// Returns a new query equal to this one with `pred` appended.
    pub fn and(&self, pred: Predicate) -> Query {
        let mut predicates = self.predicates.clone();
        predicates.push(pred);
        Query { predicates }
    }

    /// Appends a predicate in place.
    pub fn push(&mut self, pred: Predicate) {
        self.predicates.push(pred);
    }

    /// `true` if `tuple` satisfies every predicate of the query.
    pub fn matches(&self, tuple: &Tuple) -> bool {
        self.predicates.iter().all(|p| p.matches(tuple))
    }

    /// Length of the longest common predicate *prefix* of `self` and
    /// `other` — the syntactic factoring the batch executor groups sibling
    /// queries by. Predicates are compared literally (attribute, operator,
    /// constant), which is exactly how tree-shaped discovery algorithms
    /// build sibling queries: the parent's conjunction followed by one
    /// per-child refinement.
    pub fn shared_prefix_len(&self, other: &Query) -> usize {
        self.predicates
            .iter()
            .zip(&other.predicates)
            .take_while(|(a, b)| a == b)
            .count()
    }

    /// `true` if the query's predicates can never be satisfied by any value
    /// combination of `schema`'s domains, regardless of the database
    /// contents (e.g. `A < 0`, `A <= 2 AND A >= 5`, or a predicate on an
    /// attribute the schema does not have); see [`fold_bounds`].
    ///
    /// The hidden database simulator does *not* special-case such queries,
    /// so that query costs stay faithful; this helper serves client-side
    /// reasoning that is allowed "for free" (and tests).
    pub fn is_unsatisfiable(&self, schema: &Schema) -> bool {
        !fold_bounds(&self.predicates, schema_maxima(schema), &mut Vec::new())
    }
}

/// The largest value of each attribute of `schema`: the bounds a fold over
/// `schema`'s domains starts from.
pub(crate) fn schema_maxima(schema: &Schema) -> impl Iterator<Item = Value> + '_ {
    schema.attrs().iter().map(AttributeSpec::max_value)
}

/// Folds a conjunction of predicates into one closed interval `[lo, hi]`
/// per attribute, written into `bounds` (cleared first; `i64`, so that an
/// empty interval is representable). Attribute `a` starts at
/// `[0, maxima[a]]` and each predicate on it narrows its interval.
///
/// Returns `false` if the conjunction is unsatisfiable: an interval became
/// empty, or a predicate names an attribute past the end of `maxima`.
///
/// The one fold behind [`Query::is_unsatisfiable`], the engine's query
/// planning and the client knowledge base's membership probes. The caller
/// owns `bounds`, so a reused buffer keeps the fold allocation-free.
#[inline]
pub fn fold_bounds(
    preds: &[Predicate],
    maxima: impl IntoIterator<Item = Value>,
    bounds: &mut Vec<(i64, i64)>,
) -> bool {
    bounds.clear();
    bounds.extend(maxima.into_iter().map(|max| (0, i64::from(max))));
    for p in preds {
        let Some((lo, hi)) = bounds.get_mut(p.attr) else {
            return false;
        };
        let v = i64::from(p.value);
        match p.op {
            CmpOp::Lt => *hi = (*hi).min(v - 1),
            CmpOp::Le => *hi = (*hi).min(v),
            CmpOp::Eq => {
                *lo = (*lo).max(v);
                *hi = (*hi).min(v);
            }
            CmpOp::Ge => *lo = (*lo).max(v),
            CmpOp::Gt => *lo = (*lo).max(v + 1),
        }
        if *lo > *hi {
            return false;
        }
    }
    true
}

/// One consecutive run of a query plan whose members all share the same
/// predicate prefix — the unit the engine's batch executor evaluates a
/// shared conjunction once for (see `Session::run_plan_grouped`).
///
/// Groups tile a plan: the first `len` queries form the first group, the
/// next group starts right after, and the `len`s sum to the plan length.
/// Within a group, the first `prefix_len` predicates of every query are
/// literally identical (same attribute, operator and constant, in the same
/// order); the remaining predicates are the query's private *residual*.
/// `prefix_len == 0` (nothing shared) and `len == 1` (a singleton) are
/// valid degenerate groups — the executor answers them exactly like
/// individually issued queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixGroup {
    /// Number of consecutive plan queries in this group (≥ 1).
    pub len: usize,
    /// Number of leading predicates all group members share.
    pub prefix_len: usize,
}

/// Factors a query plan into maximal runs of adjacent queries sharing a
/// predicate prefix — the engine-side fallback when a plan arrives without
/// sibling annotations from the discovery machine that built it.
///
/// The factoring is greedy: a group absorbs the next query while the
/// running common prefix keeps its length; a query that would *shrink* the
/// established prefix starts a fresh group (tree frontiers interleave
/// sibling groups of different parents, and a shrunk prefix would dilute
/// the shared work of every member already admitted). Queries sharing
/// nothing with their predecessor become singleton groups.
pub fn prefix_groups(queries: &[Query]) -> Vec<PrefixGroup> {
    let mut groups = Vec::new();
    let Some(first) = queries.first() else {
        return groups;
    };
    let mut start = 0usize;
    // The group's common prefix length; `None` while the group has a single
    // member (a singleton shares whatever its first sibling agrees on).
    let mut prefix: Option<usize> = None;
    let mut head = first;
    for (i, q) in queries.iter().enumerate().skip(1) {
        let common = head.shared_prefix_len(q);
        let common = prefix.map_or(common, |p| p.min(common));
        let extends = common >= 1 && prefix.is_none_or(|p| common == p);
        if extends {
            prefix = Some(common);
        } else {
            groups.push(PrefixGroup {
                len: i - start,
                prefix_len: prefix.unwrap_or(0),
            });
            start = i;
            prefix = None;
            head = q;
        }
    }
    groups.push(PrefixGroup {
        len: queries.len() - start,
        prefix_len: prefix.unwrap_or(0),
    });
    groups
}

/// `true` if `groups` is a valid tiling of `queries`: lengths are positive
/// and sum to the plan length, and every member of a group literally shares
/// its group's predicate prefix. The batch executor checks annotations from
/// discovery machines against this before trusting them.
pub fn groups_cover(queries: &[Query], groups: &[PrefixGroup]) -> bool {
    let mut pos = 0usize;
    for g in groups {
        if g.len == 0 || pos + g.len > queries.len() {
            return false;
        }
        let head = &queries[pos];
        if head.len() < g.prefix_len {
            return false;
        }
        let prefix = &head.predicates()[..g.prefix_len];
        for q in &queries[pos..pos + g.len] {
            if q.len() < g.prefix_len || &q.predicates()[..g.prefix_len] != prefix {
                return false;
            }
        }
        pos += g.len;
    }
    pos == queries.len()
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.predicates.is_empty() {
            return write!(f, "SELECT * FROM D");
        }
        write!(f, "SELECT * FROM D WHERE ")?;
        for (i, p) in self.predicates.iter().enumerate() {
            if i > 0 {
                write!(f, " AND ")?;
            }
            write!(f, "A{} {} {}", p.attr, p.op.symbol(), p.value)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InterfaceType, SchemaBuilder};

    #[test]
    fn cmp_op_semantics() {
        assert!(CmpOp::Lt.eval(1, 2));
        assert!(!CmpOp::Lt.eval(2, 2));
        assert!(CmpOp::Le.eval(2, 2));
        assert!(CmpOp::Eq.eval(3, 3));
        assert!(CmpOp::Ge.eval(3, 3));
        assert!(CmpOp::Gt.eval(4, 3));
        assert!(!CmpOp::Gt.eval(3, 3));
    }

    #[test]
    fn select_all_matches_everything() {
        let q = Query::select_all();
        assert!(q.is_empty());
        assert!(q.matches(&Tuple::new(0, vec![9, 9, 9])));
    }

    #[test]
    fn conjunction_matching() {
        let q = Query::new(vec![Predicate::lt(0, 5), Predicate::ge(1, 2)]);
        assert!(q.matches(&Tuple::new(0, vec![4, 2])));
        assert!(!q.matches(&Tuple::new(1, vec![5, 2])));
        assert!(!q.matches(&Tuple::new(2, vec![4, 1])));
    }

    #[test]
    fn and_does_not_mutate_original() {
        let q = Query::new(vec![Predicate::lt(0, 5)]);
        let q2 = q.and(Predicate::eq(1, 3));
        assert_eq!(q.len(), 1);
        assert_eq!(q2.len(), 2);
    }

    /// The interval fold over a schema (two domain-10 ranking attributes
    /// and a domain-3 filtering one): the intervals of every satisfiable
    /// conjunction, `None` for the unsatisfiable ones, and
    /// `Query::is_unsatisfiable` agreeing on each. The last rows fold under
    /// the knowledge base's maxima, where every value of `u32` is in range.
    #[test]
    fn fold_bounds_table() {
        use Predicate as P;
        let schema = SchemaBuilder::new()
            .ranking("a", 10, InterfaceType::Rq)
            .ranking("b", 10, InterfaceType::Rq)
            .filtering("f", 3)
            .build();
        let domains = || schema_maxima(&schema).collect();
        let max = i64::from(Value::MAX);
        type Row = (Vec<Predicate>, Vec<Value>, Option<Vec<(i64, i64)>>);
        let rows: Vec<Row> = vec![
            (vec![], domains(), Some(vec![(0, 9), (0, 9), (0, 2)])),
            (
                vec![P::le(0, 6), P::ge(0, 2), P::lt(1, 4)],
                domains(),
                Some(vec![(2, 6), (0, 3), (0, 2)]),
            ),
            (
                vec![P::le(0, 5), P::ge(0, 5), P::eq(2, 1), P::gt(1, 3)],
                domains(),
                Some(vec![(5, 5), (4, 9), (1, 1)]),
            ),
            (vec![P::lt(0, 0)], domains(), None),
            (vec![P::gt(0, 9)], domains(), None),
            (vec![P::gt(1, 9)], domains(), None),
            (vec![P::le(0, 2), P::ge(0, 5)], domains(), None),
            (vec![P::eq(2, 3)], domains(), None),
            // An attribute past the end of the bound list matches nothing.
            (vec![P::lt(3, 5)], domains(), None),
            (
                vec![P::gt(0, 9)],
                vec![Value::MAX; 2],
                Some(vec![(10, max), (0, max)]),
            ),
            (vec![P::lt(2, 5)], vec![Value::MAX; 2], None),
        ];
        let mut bounds = Vec::new();
        for (preds, maxima, want) in rows {
            let folded = fold_bounds(&preds, maxima.iter().copied(), &mut bounds);
            assert_eq!(folded.then(|| bounds.clone()), want, "{preds:?}");
            if maxima.len() == schema.len() {
                let q = Query::new(preds);
                assert_eq!(q.is_unsatisfiable(&schema), want.is_none(), "{q}");
            }
        }
    }

    #[test]
    fn shared_prefix_len_is_literal_and_ordered() {
        let base = Query::new(vec![Predicate::lt(0, 5), Predicate::ge(1, 2)]);
        let a = base.and(Predicate::lt(2, 3));
        let b = base.and(Predicate::lt(3, 7));
        assert_eq!(a.shared_prefix_len(&b), 2);
        assert_eq!(base.shared_prefix_len(&a), 2);
        assert_eq!(a.shared_prefix_len(&a), 3);
        // Same predicates, different order: no *prefix* sharing.
        let swapped = Query::new(vec![Predicate::ge(1, 2), Predicate::lt(0, 5)]);
        assert_eq!(base.shared_prefix_len(&swapped), 0);
        assert_eq!(Query::select_all().shared_prefix_len(&base), 0);
    }

    #[test]
    fn prefix_groups_edge_cases() {
        // Empty plan.
        assert!(prefix_groups(&[]).is_empty());
        // Single query.
        let q = Query::new(vec![Predicate::lt(0, 5)]);
        assert_eq!(
            prefix_groups(std::slice::from_ref(&q)),
            vec![PrefixGroup {
                len: 1,
                prefix_len: 0
            }]
        );
        // Zero shared prefix: all singletons.
        let plan = vec![
            Query::new(vec![Predicate::lt(0, 5)]),
            Query::new(vec![Predicate::lt(1, 5)]),
            Query::select_all(),
        ];
        let groups = prefix_groups(&plan);
        assert_eq!(groups.len(), 3);
        assert!(groups.iter().all(|g| g.len == 1 && g.prefix_len == 0));
        assert!(groups_cover(&plan, &groups));
        // All-identical queries: one group whose prefix is the whole query.
        let plan = vec![q.clone(), q.clone(), q.clone()];
        assert_eq!(
            prefix_groups(&plan),
            vec![PrefixGroup {
                len: 3,
                prefix_len: 1
            }]
        );
    }

    #[test]
    fn prefix_groups_split_sibling_runs() {
        // Two sibling families (SQ-frontier shape): children of P, then
        // children of Q, with nothing shared across the boundary.
        let p = Query::new(vec![Predicate::lt(0, 5)]);
        let q = Query::new(vec![Predicate::lt(1, 7)]);
        let plan = vec![
            p.and(Predicate::lt(1, 3)),
            p.and(Predicate::lt(2, 4)),
            p.and(Predicate::lt(3, 2)),
            q.and(Predicate::lt(0, 1)),
            q.and(Predicate::lt(2, 2)),
        ];
        let groups = prefix_groups(&plan);
        assert_eq!(
            groups,
            vec![
                PrefixGroup {
                    len: 3,
                    prefix_len: 1
                },
                PrefixGroup {
                    len: 2,
                    prefix_len: 1
                },
            ]
        );
        assert!(groups_cover(&plan, &groups));
        // A query that would shrink the established prefix starts fresh.
        let deep = p.and(Predicate::lt(1, 3));
        let plan = vec![
            deep.and(Predicate::lt(2, 1)),
            deep.and(Predicate::lt(3, 1)),
            p.and(Predicate::lt(2, 9)),
        ];
        let groups = prefix_groups(&plan);
        assert_eq!(groups[0].len, 2);
        assert_eq!(groups[0].prefix_len, 2);
        assert_eq!(groups[1].len, 1);
        assert!(groups_cover(&plan, &groups));
    }

    #[test]
    fn groups_cover_rejects_malformed_tilings() {
        let p = Query::new(vec![Predicate::lt(0, 5)]);
        let plan = vec![p.and(Predicate::lt(1, 3)), p.and(Predicate::lt(2, 4))];
        let ok = PrefixGroup {
            len: 2,
            prefix_len: 1,
        };
        assert!(groups_cover(&plan, &[ok]));
        // Wrong total length.
        assert!(!groups_cover(
            &plan,
            &[PrefixGroup {
                len: 1,
                prefix_len: 1
            }]
        ));
        // Prefix longer than a member.
        assert!(!groups_cover(
            &plan,
            &[PrefixGroup {
                len: 2,
                prefix_len: 3
            }]
        ));
        // Claimed prefix not actually shared.
        assert!(!groups_cover(
            &plan,
            &[PrefixGroup {
                len: 2,
                prefix_len: 2
            }]
        ));
        // Zero-length group.
        assert!(!groups_cover(
            &plan,
            &[
                PrefixGroup {
                    len: 0,
                    prefix_len: 0
                },
                ok
            ]
        ));
    }

    #[test]
    fn display_is_sql_like() {
        let q = Query::new(vec![Predicate::lt(0, 5), Predicate::eq(2, 1)]);
        assert_eq!(q.to_string(), "SELECT * FROM D WHERE A0 < 5 AND A2 = 1");
        assert_eq!(Query::select_all().to_string(), "SELECT * FROM D");
    }
}
