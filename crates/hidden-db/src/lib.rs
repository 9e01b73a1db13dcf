//! # skyweb-hidden-db
//!
//! An in-memory simulator of a *hidden web database*: a structured database
//! that can only be accessed through a restricted, form-like search interface
//! which
//!
//! * accepts **conjunctive queries** whose per-attribute predicates are
//!   limited by the interface type of each attribute
//!   ([`InterfaceType::Sq`] one-ended ranges, [`InterfaceType::Rq`]
//!   two-ended ranges, [`InterfaceType::Pq`] point predicates),
//! * returns at most **k** matching tuples (the *top-k constraint*),
//!   preferentially selected by a proprietary, *domination-consistent*
//!   ranking function ([`Ranker`]), and
//! * may enforce a **rate limit** on the number of queries a client is
//!   allowed to issue.
//!
//! All tuples live in one immutable, `Arc`-backed [`TupleStore`] shared by
//! every code path — the index builder, the ranker fallback, query
//! responses and the server-side oracle ([`HiddenDb::oracle_tuples`]) — so
//! a database holds exactly one copy of its data. Queries are answered by
//! one indexed execution engine (the `index` module internals): a
//! rank-order permutation precomputed through
//! [`Ranker::precompute`] makes top-k selection an early-terminating scan,
//! rank-ordered columnar values with per-64-rank-block zone maps turn broad
//! range scans into block-skipping bitset passes, per-attribute posting
//! lists with prefix counts prune selective conjunctions and answer
//! selectivity in O(1) ([`HiddenDb::selectivity`]), and responses share
//! `Arc<Tuple>` handles with the store instead of deep-cloning. Multi-query
//! plans (a [`Session`]'s [`PlanOracle::run_plan_grouped`]) additionally go
//! through a shared-prefix batch executor: sibling queries extending one
//! parent conjunction ([`PrefixGroup`]) evaluate the shared conjunction
//! once and only apply their private residuals — with per-query admission,
//! statistics and access-log accounting preserved exactly. Differential property-test
//! suites prove single-query and batched execution byte-identical to the
//! naive filter-then-rank definition, which exists only as their test
//! reference.
//!
//! The database is `Send + Sync`: any number of concurrent clients can open
//! a [`Session`] ([`HiddenDb::session`]) with private [`QueryStats`]
//! accounting and private working memory, while rate limits, global
//! statistics and the sequence-numbered access log are shared and exact
//! under contention (see the concurrency stress and multi-threaded
//! differential suites in `tests/`).
//!
//! This crate is the substrate on which the skyline-discovery algorithms of
//! Asudeh et al. (*Discovering the Skyline of Web Databases*, VLDB 2016) are
//! built and evaluated: it plays the role of Blue Nile, Google Flights,
//! Yahoo! Autos, or a locally hosted top-k web form over the DOT flight
//! dataset.
//!
//! ## Data model
//!
//! All *ranking* attribute values are kept in **rank space**: ordinal `u32`
//! values where `0` is the most preferred value and `domain_size - 1` the
//! least preferred. Converting a real attribute (price in dollars, departure
//! delay in minutes, diamond clarity grade, ...) to rank space is the job of
//! the data generators in `skyweb-datagen`.
//!
//! ## Example
//!
//! ```
//! use skyweb_hidden_db::{
//!     HiddenDb, InterfaceType, Query, SchemaBuilder, SumRanker, Tuple,
//! };
//!
//! // A toy 2-attribute database behind a top-1 interface.
//! let schema = SchemaBuilder::new()
//!     .ranking("price", 10, InterfaceType::Rq)
//!     .ranking("mileage", 10, InterfaceType::Rq)
//!     .build();
//! let tuples = vec![
//!     Tuple::new(0, vec![1, 7]),
//!     Tuple::new(1, vec![5, 2]),
//!     Tuple::new(2, vec![6, 6]),
//! ];
//! let db = HiddenDb::new(schema, tuples, Box::new(SumRanker::default()), 1);
//!
//! let answer = db.query(&Query::select_all()).unwrap();
//! assert_eq!(answer.tuples.len(), 1);
//! assert!(answer.overflowed);
//! assert_eq!(db.queries_issued(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod conc;
mod db;
#[deny(missing_docs)]
pub mod envelope;
mod fault;
mod index;
mod predicate;
mod ranking;
mod schema;
#[deny(missing_docs)]
mod segment;
mod session;
mod stats;
mod store;
pub mod sync;
mod tuple;

pub use db::{HiddenDb, QueryError, QueryResponse, RateLimit};
pub use fault::{FaultPlan, FaultStats, FaultyOracle};
pub use predicate::{
    fold_bounds, groups_cover, prefix_groups, CmpOp, Predicate, PrefixGroup, Query,
};
pub use ranking::{
    is_domination_consistent, LexicographicRanker, RandomSkylineRanker, Ranker, ScoreRanker,
    SingleAttributeRanker, SumRanker, WeightedSumRanker, WorstCaseRanker,
};
pub use schema::{AttributeRole, AttributeSpec, InterfaceType, Schema, SchemaBuilder};
pub use segment::{
    BlockSource, FileSource, MemSource, SegmentError, SegmentOpenOptions, SegmentReader,
    SegmentWriter, StorageStats, DEFAULT_CHUNK, SEGMENT_VERSION,
};
pub use session::{PlanOracle, Session};
pub use stats::{AccessLog, AccessLogEntry, QueryStats};
pub use store::TupleStore;
pub use tuple::{compare_on, dominates, dominates_on, Dominance, Tuple};

/// Identifier of an attribute: its position in the [`Schema`].
pub type AttrId = usize;

/// Identifier of a tuple inside a [`HiddenDb`].
pub type TupleId = u64;

/// An ordinal attribute value in *rank space*: `0` is the most preferred
/// value of the attribute's domain, `domain_size - 1` the least preferred.
pub type Value = u32;
