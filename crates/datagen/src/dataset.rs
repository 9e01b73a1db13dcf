//! A generated dataset: schema + tuples, with transformation helpers used by
//! the experiment harness (sampling, projecting, changing interface types).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use skyweb_hidden_db::{
    AttributeRole, AttributeSpec, HiddenDb, InterfaceType, Ranker, Schema, SumRanker, Tuple,
};

/// A fully materialized synthetic dataset, ready to be placed behind a
/// hidden-database interface.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable dataset name (used in experiment reports).
    pub name: String,
    /// The schema (attribute names, domain sizes, interface types).
    pub schema: Schema,
    /// The tuples, with values already in rank space.
    pub tuples: Vec<Tuple>,
}

impl Dataset {
    /// Creates a dataset from parts.
    pub fn new(name: impl Into<String>, schema: Schema, tuples: Vec<Tuple>) -> Self {
        Dataset {
            name: name.into(),
            schema,
            tuples,
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` if the dataset has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Draws a uniform random sample of `n` tuples (without replacement).
    /// If `n >= len()`, the whole dataset is returned (shuffled).
    ///
    /// This mirrors the paper's procedure for the "impact of n" experiments,
    /// which draw uniform random samples of the DOT dataset.
    pub fn sample(&self, n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tuples = self.tuples.clone();
        tuples.shuffle(&mut rng);
        tuples.truncate(n);
        Dataset {
            name: format!("{}-sample{}", self.name, n),
            schema: self.schema.clone(),
            tuples,
        }
    }

    /// Projects the dataset onto a subset of attributes given by name,
    /// re-mapping every tuple accordingly. Attribute order follows the
    /// order of `names`.
    ///
    /// # Panics
    /// Panics if any name does not exist in the schema.
    pub fn project(&self, names: &[&str]) -> Dataset {
        #[expect(
            clippy::panic,
            reason = "datagen builder API: an unknown attribute name is a typo in experiment setup code, not a runtime input"
        )]
        let ids: Vec<usize> = names
            .iter()
            .map(|n| {
                self.schema
                    .attr_by_name(n)
                    .unwrap_or_else(|| panic!("unknown attribute {n}"))
            })
            .collect();
        let specs: Vec<AttributeSpec> = ids.iter().map(|&i| self.schema.attr(i).clone()).collect();
        let schema = Schema::new(specs);
        let tuples = self
            .tuples
            .iter()
            .map(|t| Tuple::new(t.id, ids.iter().map(|&i| t.values[i]).collect()))
            .collect();
        Dataset {
            name: format!("{}-proj{}", self.name, names.len()),
            schema,
            tuples,
        }
    }

    /// Returns a copy of the dataset in which the named attribute uses a
    /// different search-interface type.
    ///
    /// # Panics
    /// Panics if the attribute does not exist or is a filtering attribute.
    pub fn with_interface(&self, name: &str, interface: InterfaceType) -> Dataset {
        #[expect(
            clippy::panic,
            reason = "datagen builder API: an unknown attribute name is a typo in experiment setup code, not a runtime input"
        )]
        let id = self
            .schema
            .attr_by_name(name)
            .unwrap_or_else(|| panic!("unknown attribute {name}"));
        let mut specs: Vec<AttributeSpec> = self.schema.attrs().to_vec();
        assert_eq!(
            specs[id].role,
            AttributeRole::Ranking,
            "cannot change the interface of a filtering attribute"
        );
        specs[id].interface = interface;
        Dataset {
            name: self.name.clone(),
            schema: Schema::new(specs),
            tuples: self.tuples.clone(),
        }
    }

    /// Keeps only tuples satisfying `keep`.
    pub fn retain(&self, keep: impl Fn(&Tuple) -> bool) -> Dataset {
        Dataset {
            name: self.name.clone(),
            schema: self.schema.clone(),
            tuples: self.tuples.iter().filter(|t| keep(t)).cloned().collect(),
        }
    }

    /// Re-discretizes the named attribute into `domain_size` equally sized
    /// rank buckets (`new = old * domain_size / old_domain`), keeping every
    /// tuple. Used by the "impact of domain size" experiment (Figure 17)
    /// where the paper shrinks attribute domains to a target size.
    ///
    /// # Panics
    /// Panics if the attribute does not exist or `domain_size == 0`.
    pub fn rebucket_domain(&self, name: &str, domain_size: u32) -> Dataset {
        assert!(domain_size >= 1, "need at least one bucket");
        #[expect(
            clippy::panic,
            reason = "datagen builder API: an unknown attribute name is a typo in experiment setup code, not a runtime input"
        )]
        let id = self
            .schema
            .attr_by_name(name)
            .unwrap_or_else(|| panic!("unknown attribute {name}"));
        let old_domain = self.schema.attr(id).domain_size.max(1);
        if domain_size >= old_domain {
            return self.clone();
        }
        let mut specs: Vec<AttributeSpec> = self.schema.attrs().to_vec();
        specs[id].domain_size = domain_size;
        let tuples = self
            .tuples
            .iter()
            .map(|t| {
                let mut values = t.values.clone();
                values[id] = ((u64::from(values[id]) * u64::from(domain_size))
                    / u64::from(old_domain)) as u32;
                Tuple::new(t.id, values)
            })
            .collect();
        Dataset {
            name: self.name.clone(),
            schema: Schema::new(specs),
            tuples,
        }
    }

    /// Truncates the domain of the named attribute to its first
    /// `domain_size` rank values, dropping tuples with larger values. This
    /// is the procedure of the paper's "impact of domain size" experiment
    /// (Figure 17).
    pub fn truncate_domain(&self, name: &str, domain_size: u32) -> Dataset {
        #[expect(
            clippy::panic,
            reason = "datagen builder API: an unknown attribute name is a typo in experiment setup code, not a runtime input"
        )]
        let id = self
            .schema
            .attr_by_name(name)
            .unwrap_or_else(|| panic!("unknown attribute {name}"));
        let mut specs: Vec<AttributeSpec> = self.schema.attrs().to_vec();
        specs[id].domain_size = specs[id].domain_size.min(domain_size);
        Dataset {
            name: self.name.clone(),
            schema: Schema::new(specs),
            tuples: self
                .tuples
                .iter()
                .filter(|t| t.values[id] < domain_size)
                .cloned()
                .collect(),
        }
    }

    /// Wraps the dataset in a hidden-database interface with the given
    /// ranking function and top-k constraint.
    pub fn into_db(self, ranker: Box<dyn Ranker>, k: usize) -> HiddenDb {
        HiddenDb::new(self.schema, self.tuples, ranker, k)
    }

    /// Wraps the dataset in a hidden-database interface with the paper's
    /// default SUM ranking function.
    pub fn into_db_sum(self, k: usize) -> HiddenDb {
        self.into_db(Box::new(SumRanker), k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyweb_hidden_db::SchemaBuilder;

    fn toy() -> Dataset {
        let schema = SchemaBuilder::new()
            .ranking("a", 10, InterfaceType::Rq)
            .ranking("b", 10, InterfaceType::Sq)
            .filtering("f", 3)
            .build();
        let tuples = (0..20)
            .map(|i| {
                Tuple::new(
                    i,
                    vec![(i % 10) as u32, ((i * 3) % 10) as u32, (i % 3) as u32],
                )
            })
            .collect();
        Dataset::new("toy", schema, tuples)
    }

    #[test]
    fn sample_is_deterministic_and_bounded() {
        let ds = toy();
        let s1 = ds.sample(5, 42);
        let s2 = ds.sample(5, 42);
        assert_eq!(s1.len(), 5);
        assert_eq!(
            s1.tuples.iter().map(|t| t.id).collect::<Vec<_>>(),
            s2.tuples.iter().map(|t| t.id).collect::<Vec<_>>()
        );
        assert_eq!(ds.sample(100, 1).len(), 20);
    }

    #[test]
    fn project_remaps_values() {
        let ds = toy().project(&["b", "a"]);
        assert_eq!(ds.schema.len(), 2);
        assert_eq!(ds.schema.attr(0).name, "b");
        assert_eq!(ds.tuples[7].values, vec![1, 7]);
    }

    #[test]
    fn with_interface_changes_only_that_attribute() {
        let ds = toy().with_interface("a", InterfaceType::Pq);
        assert_eq!(ds.schema.attr(0).interface, InterfaceType::Pq);
        assert_eq!(ds.schema.attr(1).interface, InterfaceType::Sq);
    }

    #[test]
    fn rebucket_domain_keeps_every_tuple() {
        let ds = toy().rebucket_domain("a", 5);
        assert_eq!(ds.len(), 20);
        assert_eq!(ds.schema.attr(0).domain_size, 5);
        assert!(ds.tuples.iter().all(|t| t.values[0] < 5));
        // Re-bucketing to a larger domain is a no-op.
        let same = toy().rebucket_domain("a", 50);
        assert_eq!(same.schema.attr(0).domain_size, 10);
    }

    #[test]
    fn truncate_domain_drops_tuples() {
        let ds = toy().truncate_domain("a", 5);
        assert_eq!(ds.schema.attr(0).domain_size, 5);
        assert!(ds.tuples.iter().all(|t| t.values[0] < 5));
        assert_eq!(ds.len(), 10);
    }

    #[test]
    fn retain_filters() {
        let ds = toy().retain(|t| t.values[2] == 0);
        assert!(ds.tuples.iter().all(|t| t.values[2] == 0));
    }

    #[test]
    fn into_db_preserves_counts() {
        let ds = toy();
        let n = ds.len();
        let db = ds.into_db_sum(5);
        assert_eq!(db.n(), n);
        assert_eq!(db.k(), 5);
    }

    #[test]
    #[should_panic(expected = "unknown attribute")]
    fn project_unknown_attribute_panics() {
        let _ = toy().project(&["nope"]);
    }
}
