//! Tuples and the dominance relation between them.

use crate::{AttrId, Schema, TupleId, Value};

/// A database tuple: an identifier plus one rank-space value per attribute
/// (in schema order).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tuple {
    /// Stable identifier of the tuple inside its database.
    pub id: TupleId,
    /// One value per attribute, in schema order. Smaller = more preferred
    /// for ranking attributes; arbitrary category code for filtering
    /// attributes.
    pub values: Vec<Value>,
}

impl Tuple {
    /// Creates a tuple from its id and values.
    pub fn new(id: TupleId, values: Vec<Value>) -> Self {
        Tuple { id, values }
    }

    /// The value of attribute `attr`.
    ///
    /// # Panics
    /// Panics if `attr` is out of range.
    pub fn value(&self, attr: AttrId) -> Value {
        self.values[attr]
    }

    /// Number of attributes stored in this tuple.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Projection of the tuple onto a subset of attributes.
    pub fn project(&self, attrs: &[AttrId]) -> Vec<Value> {
        attrs.iter().map(|&a| self.values[a]).collect()
    }

    /// `true` if every listed attribute value lies inside its closed bound:
    /// the box-membership test the indexed query engine reduces conjunctive
    /// queries to (every supported predicate is a one-attribute range).
    #[inline]
    pub fn within_bounds(&self, bounds: &[(AttrId, Value, Value)]) -> bool {
        bounds.iter().all(|&(attr, lo, hi)| {
            let v = self.values[attr];
            v >= lo && v <= hi
        })
    }
}

/// Outcome of comparing two tuples under the dominance partial order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dominance {
    /// The left tuple dominates the right one (better or equal everywhere,
    /// strictly better somewhere).
    Dominates,
    /// The right tuple dominates the left one.
    DominatedBy,
    /// The tuples have identical values on all compared attributes.
    Equal,
    /// Neither tuple dominates the other.
    Incomparable,
}

/// Compares `a` and `b` on the given attributes under the
/// "smaller rank-space value is better" preference order.
#[inline]
pub fn compare_on(a: &Tuple, b: &Tuple, attrs: &[AttrId]) -> Dominance {
    let mut a_better = false;
    let mut b_better = false;
    for &attr in attrs {
        let (va, vb) = (a.values[attr], b.values[attr]);
        if va < vb {
            a_better = true;
        } else if vb < va {
            b_better = true;
        }
        if a_better && b_better {
            return Dominance::Incomparable;
        }
    }
    match (a_better, b_better) {
        (true, false) => Dominance::Dominates,
        (false, true) => Dominance::DominatedBy,
        (false, false) => Dominance::Equal,
        (true, true) => Dominance::Incomparable,
    }
}

/// `true` if `a` dominates `b` on the given attributes: `a` is at least as
/// good as `b` on every attribute and strictly better on at least one.
#[inline]
pub fn dominates_on(a: &Tuple, b: &Tuple, attrs: &[AttrId]) -> bool {
    compare_on(a, b, attrs) == Dominance::Dominates
}

/// `true` if `a` dominates `b` on all *ranking* attributes of `schema`.
///
/// This is the dominance relation used by the skyline definition in the
/// paper: filtering attributes are ignored.
pub fn dominates(a: &Tuple, b: &Tuple, schema: &Schema) -> bool {
    dominates_on(a, b, schema.ranking_attrs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InterfaceType, SchemaBuilder};

    fn schema3() -> Schema {
        SchemaBuilder::new()
            .ranking("a", 10, InterfaceType::Rq)
            .ranking("b", 10, InterfaceType::Rq)
            .filtering("f", 4)
            .build()
    }

    #[test]
    fn basic_dominance() {
        let s = schema3();
        let better = Tuple::new(0, vec![1, 2, 3]);
        let worse = Tuple::new(1, vec![2, 2, 0]);
        assert!(dominates(&better, &worse, &s));
        assert!(!dominates(&worse, &better, &s));
    }

    #[test]
    fn equal_values_do_not_dominate() {
        let s = schema3();
        let a = Tuple::new(0, vec![1, 2, 0]);
        let b = Tuple::new(1, vec![1, 2, 1]);
        // identical on ranking attrs, differing only on the filtering attr
        assert!(!dominates(&a, &b, &s));
        assert_eq!(compare_on(&a, &b, s.ranking_attrs()), Dominance::Equal);
    }

    #[test]
    fn incomparable_tuples() {
        let s = schema3();
        let a = Tuple::new(0, vec![1, 5, 0]);
        let b = Tuple::new(1, vec![5, 1, 0]);
        assert_eq!(
            compare_on(&a, &b, s.ranking_attrs()),
            Dominance::Incomparable
        );
        assert!(!dominates(&a, &b, &s));
        assert!(!dominates(&b, &a, &s));
    }

    #[test]
    fn dominance_on_subset_of_attributes() {
        let a = Tuple::new(0, vec![1, 9]);
        let b = Tuple::new(1, vec![2, 0]);
        assert!(dominates_on(&a, &b, &[0]));
        assert!(dominates_on(&b, &a, &[1]));
        assert!(!dominates_on(&a, &b, &[0, 1]));
    }

    #[test]
    fn projection_and_accessors() {
        let t = Tuple::new(7, vec![3, 1, 4]);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.value(2), 4);
        assert_eq!(t.project(&[2, 0]), vec![4, 3]);
    }

    #[test]
    fn within_bounds_is_a_box_membership_test() {
        let t = Tuple::new(0, vec![3, 1, 4]);
        assert!(t.within_bounds(&[]));
        assert!(t.within_bounds(&[(0, 0, 5), (2, 4, 4)]));
        assert!(!t.within_bounds(&[(0, 4, 9)]));
        assert!(!t.within_bounds(&[(1, 0, 5), (2, 0, 3)]));
    }

    #[test]
    fn compare_is_antisymmetric() {
        let a = Tuple::new(0, vec![1, 1]);
        let b = Tuple::new(1, vec![2, 2]);
        assert_eq!(compare_on(&a, &b, &[0, 1]), Dominance::Dominates);
        assert_eq!(compare_on(&b, &a, &[0, 1]), Dominance::DominatedBy);
    }
}
