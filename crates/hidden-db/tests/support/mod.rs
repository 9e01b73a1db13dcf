//! The naive reference the engine's differential suites check against.
//!
//! A hidden database's answer has a short definition: filter every tuple of
//! the store, hand the matching set in store order to the ranker, return
//! the first `k` tuples it selects, and flag the answer as overflowed when
//! more than `k` tuples matched. [`NaiveReference`] computes exactly that
//! from the public API alone — [`HiddenDb::validate`],
//! [`HiddenDb::oracle_tuples`], [`Query::matches`] and
//! [`Ranker::select_top_k`] — so it shares no code with the indexed engine
//! it checks.
//!
//! The reference owns its ranker. Give it a fresh instance of the
//! database's ranker (the same seed, for a randomized one): the engine and
//! the reference then hand their rankers the same matching sets in the same
//! order, so a randomized ranker consumes its random stream identically on
//! both sides.
//!
//! Used by `crates/hidden-db/tests/differential.rs` and, through `#[path]`,
//! by the workspace's `tests/proptest_knowledge.rs`.

use std::fmt;
use std::sync::Arc;

use skyweb_hidden_db::{HiddenDb, Query, QueryError, QueryResponse, Ranker, Tuple};

/// Answers queries over a database's tuples by exhaustive scan.
pub struct NaiveReference<'a> {
    db: &'a HiddenDb,
    ranker: Box<dyn Ranker>,
}

impl fmt::Debug for NaiveReference<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NaiveReference")
            .field("n", &self.db.n())
            .field("ranker", &self.ranker.name())
            .finish()
    }
}

impl<'a> NaiveReference<'a> {
    /// A reference over `db`'s schema, top-k constraint and tuples, ranking
    /// with `ranker`.
    pub fn new(db: &'a HiddenDb, ranker: Box<dyn Ranker>) -> Self {
        NaiveReference { db, ranker }
    }

    /// The answer the database must give to `query`, or the validation
    /// error it must reject it with.
    pub fn answer(&self, query: &Query) -> Result<QueryResponse, QueryError> {
        self.db.validate(query)?;
        let matching: Vec<&Tuple> = self
            .db
            .oracle_tuples()
            .iter()
            .filter(|t| query.matches(t))
            .collect();
        let k = self.db.k();
        let tuples = self
            .ranker
            .select_top_k(&matching, k, self.db.schema())
            .into_iter()
            .map(|t| Arc::new(t.clone()))
            .collect();
        Ok(QueryResponse {
            tuples,
            overflowed: matching.len() > k,
        })
    }
}
