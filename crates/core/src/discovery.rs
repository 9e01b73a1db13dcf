//! Shared infrastructure of the discovery algorithms: the [`Discoverer`]
//! trait, result/trace and error types. The anytime skyline maintenance
//! lives in [`crate::KnowledgeBase`]; the execution machinery (sessions,
//! budgets, batching, deadlines) lives in the sans-io layer
//! ([`crate::machine`] / [`crate::DiscoveryDriver`]), configured by one
//! [`DriverConfig`].

use std::fmt;
use std::sync::Arc;

use skyweb_hidden_db::{HiddenDb, QueryError, Tuple};

use crate::driver::{DiscoveryDriver, DriverConfig};
use crate::machine::DiscoveryMachine;

/// One point of an *anytime trace*: after `queries` issued queries, the
/// client could already certify `skyline_found` tuples as current skyline
/// candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracePoint {
    /// Number of queries issued so far.
    pub queries: u64,
    /// Number of skyline candidates known at that point (the skyline of all
    /// tuples retrieved so far).
    pub skyline_found: usize,
}

/// The outcome of a skyline-discovery run.
///
/// Tuples are `Arc`-shared with the database's store — the same handles the
/// query responses carried — so results of large runs cost reference bumps,
/// not deep copies.
#[derive(Debug, Clone)]
pub struct DiscoveryResult {
    /// The discovered skyline tuples (the exact skyline when
    /// [`DiscoveryResult::complete`] is `true`, a subset otherwise),
    /// sorted by tuple id.
    pub skyline: Vec<Arc<Tuple>>,
    /// Every distinct tuple retrieved during the run (skyline and
    /// non-skyline alike), sorted by tuple id; useful for baselines and
    /// sky-band post-processing.
    pub retrieved: Vec<Arc<Tuple>>,
    /// Number of search queries issued by this run.
    pub query_cost: u64,
    /// The anytime trace: skyline candidates known after each query.
    pub trace: Vec<TracePoint>,
    /// `true` if the algorithm ran to completion; `false` if it stopped
    /// early because the query budget or the database's rate limit was
    /// exhausted (the *anytime* case: `skyline` is then a valid subset).
    pub complete: bool,
}

impl DiscoveryResult {
    /// Average number of queries spent per discovered skyline tuple — the
    /// metric reported in the paper's online experiments.
    ///
    /// Always well-defined (never `NaN` or `inf`): a run that discovered
    /// zero skyline tuples reports its full `query_cost` — the cost of
    /// "at most one discovery", i.e. `query_cost / max(1, |skyline|)` —
    /// and a run that issued no queries reports `0.0`.
    pub fn queries_per_skyline(&self) -> f64 {
        self.query_cost as f64 / (self.skyline.len().max(1)) as f64
    }
}

/// Errors a discovery algorithm can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiscoveryError {
    /// The database's search interface does not offer the predicates the
    /// algorithm needs (e.g. running RQ-DB-SKY against a PQ attribute).
    UnsupportedInterface {
        /// Explanation of what is missing.
        reason: String,
    },
    /// The database rejected a query for a reason other than rate limiting
    /// (this indicates a bug in the algorithm or an incompatible schema).
    Query(QueryError),
}

impl fmt::Display for DiscoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiscoveryError::UnsupportedInterface { reason } => {
                write!(f, "unsupported interface: {reason}")
            }
            DiscoveryError::Query(e) => write!(f, "query rejected: {e}"),
        }
    }
}

impl std::error::Error for DiscoveryError {}

impl From<QueryError> for DiscoveryError {
    fn from(e: QueryError) -> Self {
        DiscoveryError::Query(e)
    }
}

/// A skyline-discovery algorithm over a hidden web database.
///
/// An implementation is the algorithm itself, as the paper states it: it
/// takes no query budget. The run state lives in the sans-io
/// [`DiscoveryMachine`] it compiles into via [`Discoverer::machine`]. The
/// [`Discoverer::discover`] entry point is a thin adapter that executes the
/// machine to completion through a default-config [`DiscoveryDriver`].
/// How a run executes (query budget, deadline, batching, retries) is the
/// driver's [`DriverConfig`]: callers needing any of it, or pause/resume,
/// streaming or multiplexing, drive the machine directly.
pub trait Discoverer {
    /// Short algorithm name (e.g. `"SQ-DB-SKY"`).
    fn name(&self) -> &str;

    /// Compiles this configuration into a sans-io machine for `db`'s
    /// schema and top-k constraint, validating interface requirements.
    /// The machine holds no reference to `db`.
    fn machine(&self, db: &HiddenDb) -> Result<Box<dyn DiscoveryMachine>, DiscoveryError>;

    /// Runs the algorithm to completion against `db` and returns the
    /// discovered skyline together with its query cost and anytime trace.
    fn discover(&self, db: &HiddenDb) -> Result<DiscoveryResult, DiscoveryError> {
        let machine = self.machine(db)?;
        DiscoveryDriver::new(db, machine, DriverConfig::new()).run()
    }
}

/// Runs `alg` against `db` through a driver stopped after `budget` queries:
/// the unit tests' anytime run.
#[cfg(test)]
pub(crate) fn run_budgeted(alg: &dyn Discoverer, db: &HiddenDb, budget: u64) -> DiscoveryResult {
    let machine = alg.machine(db).expect("supported interface");
    DiscoveryDriver::new(db, machine, DriverConfig::new().with_budget(Some(budget)))
        .run()
        .expect("budgeted run")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_per_skyline_is_well_defined_for_empty_skylines() {
        let zero_discoveries = DiscoveryResult {
            skyline: Vec::new(),
            retrieved: Vec::new(),
            query_cost: 7,
            trace: Vec::new(),
            complete: false,
        };
        assert_eq!(zero_discoveries.queries_per_skyline(), 7.0);
        assert!(zero_discoveries.queries_per_skyline().is_finite());

        let nothing_at_all = DiscoveryResult {
            skyline: Vec::new(),
            retrieved: Vec::new(),
            query_cost: 0,
            trace: Vec::new(),
            complete: true,
        };
        assert_eq!(nothing_at_all.queries_per_skyline(), 0.0);
        assert!(!nothing_at_all.queries_per_skyline().is_nan());

        let normal = DiscoveryResult {
            skyline: vec![
                Arc::new(Tuple::new(0, vec![1])),
                Arc::new(Tuple::new(1, vec![2])),
            ],
            retrieved: Vec::new(),
            query_cost: 6,
            trace: Vec::new(),
            complete: true,
        };
        assert_eq!(normal.queries_per_skyline(), 3.0);
    }
}
