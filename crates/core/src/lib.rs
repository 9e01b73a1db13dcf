//! # skyweb-core
//!
//! Skyline discovery over hidden web databases with top-k interfaces — a
//! Rust implementation of the algorithm family from *Discovering the Skyline
//! of Web Databases* (Asudeh, Thirumuruganathan, Zhang, Das; VLDB 2016).
//!
//! A hidden web database (see [`skyweb_hidden_db`]) can only be accessed
//! through a restrictive search form: conjunctive queries with per-attribute
//! predicate limitations and a top-k output constraint. The algorithms in
//! this crate retrieve **all skyline tuples** of such a database while
//! issuing as few search queries as possible:
//!
//! | Type | Algorithm | Interface requirement |
//! |------|-----------|----------------------|
//! | [`SqDbSky`]   | SQ-DB-SKY  | one-ended ranges (`<`, `<=`, `=`) on every ranking attribute |
//! | [`RqDbSky`]   | RQ-DB-SKY  | two-ended ranges on every ranking attribute |
//! | [`Pq2dSky`]   | PQ-2D-SKY  | point predicates, exactly two ranking attributes |
//! | [`PqDbSky`]   | PQ-DB-SKY  | point predicates, any dimensionality |
//! | [`MqDbSky`]   | MQ-DB-SKY  | arbitrary mixture of SQ / RQ / PQ attributes |
//! | [`BaselineCrawl`] | crawl + local skyline | two-ended ranges (the paper's baseline) |
//! | [`RqSkyband`] | top-h sky band via RQ-DB-SKY | two-ended ranges |
//!
//! Every algorithm implements the [`Discoverer`] trait, reports its exact
//! query cost, and records an *anytime trace* (how many skyline tuples were
//! known after every issued query).
//!
//! Each algorithm is implemented as a **sans-io state machine**
//! ([`DiscoveryMachine`], see the [`machine`] module): it yields
//! [`QueryPlan`]s and is resumed with responses, so runs can be paused,
//! checkpointed, resumed, deadlined, streamed, and multiplexed. The
//! [`DiscoveryDriver`] executes a machine against a [`PlanOracle`] — a
//! database session, a remote connection, or either behind a fault
//! injector — batching plans and enforcing budgets/deadlines; the
//! [`DiscoveryService`] multiplexes many machines, each over its own
//! oracle, with round-robin fairness. [`Discoverer::discover`] is a thin
//! adapter over machine + driver, byte-identical to the historical
//! blocking API.
//!
//! ```
//! use skyweb_core::{Discoverer, RqDbSky};
//! use skyweb_hidden_db::{HiddenDb, InterfaceType, SchemaBuilder, Tuple};
//!
//! let schema = SchemaBuilder::new()
//!     .ranking("price", 10, InterfaceType::Rq)
//!     .ranking("mileage", 10, InterfaceType::Rq)
//!     .build();
//! let tuples = vec![
//!     Tuple::new(0, vec![5, 1]),
//!     Tuple::new(1, vec![4, 4]),
//!     Tuple::new(2, vec![1, 3]),
//!     Tuple::new(3, vec![3, 2]),
//! ];
//! let db = HiddenDb::with_sum_ranking(schema, tuples, 2);
//! let result = RqDbSky::new().discover(&db).unwrap();
//! assert!(result.complete);
//! assert_eq!(result.skyline.len(), 3);
//! assert_eq!(result.query_cost, db.queries_issued());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod analysis;
mod baseline;
#[deny(missing_docs)]
pub mod codec;
mod discovery;
mod driver;
mod knowledge;
pub mod machine;
mod mq;
mod pq;
mod pq2d;
mod pq2dsub;
mod rq;
mod service;
mod skyband;
mod sq;

pub use codec::CodecError;
// The wire-protocol surface consumed by `skyweb-net`: handshake payloads,
// the error-reply envelope, and the header parser stream transports use to
// validate length claims before allocating.
pub use codec::{
    decode_error_reply, decode_hello, decode_plan, decode_responses, decode_welcome,
    encode_error_reply, encode_hello, encode_plan, encode_responses, encode_welcome, parse_header,
    Hello, Welcome, CHECKSUM_LEN, HEADER_LEN, KIND_ERROR, KIND_HELLO, KIND_PLAN, KIND_RESPONSES,
    KIND_WELCOME, WIRE_PROTOCOL,
};

pub use baseline::{
    BaselineCrawl, CrawlControl, CrawlMachine, PointCrawlControl, PointCrawlMachine,
    PointSpaceCrawl,
};
pub use discovery::{Discoverer, DiscoveryError, DiscoveryResult, TracePoint};
pub use driver::{
    Checkpoint, DiscoveryDriver, DriverConfig, RetryPolicy, StepOutcome, DEFAULT_MAX_BATCH,
};
pub use knowledge::KnowledgeBase;
pub use machine::{
    AnytimeSnapshot, DiscoveryMachine, Machine, MachineControl, QueryPlan, RunProgress,
};
pub use mq::{MqControl, MqDbSky, MqMachine};
pub use pq::{PqControl, PqDbSky, PqMachine};
pub use pq2d::{Pq2dControl, Pq2dMachine, Pq2dSky};
pub use rq::{RqControl, RqDbSky, RqMachine};
pub use service::{DiscoveryService, TenantId, TenantStats};
pub use skyband::{RqSkyband, SkybandControl, SkybandMachine, SkybandResult};
// The sibling-group annotation of a [`QueryPlan`] and the transport plans
// execute through, re-exported so `MachineControl` and oracle implementors
// need not depend on the engine crate directly.
pub use skyweb_hidden_db::{PlanOracle, PrefixGroup};
pub use sq::{SqControl, SqDbSky, SqMachine};
