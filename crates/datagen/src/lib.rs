//! # skyweb-datagen
//!
//! Synthetic dataset generators for the skyline-discovery experiments.
//!
//! The paper evaluates on four data sources that we cannot ship or query
//! live (a US DOT flight-performance CSV and three commercial websites), so
//! this crate re-creates them *statistically*: same schema, same attribute
//! domain sizes, same interface types (SQ/RQ/PQ per attribute), comparable
//! cardinalities, and correlation structure chosen so that skyline sizes
//! land in the same ballpark as the paper reports. Since the discovery
//! algorithms only interact with the data through the top-k search
//! interface, these are the only properties that influence query cost.
//!
//! Generators:
//!
//! * [`synthetic`] — independent / correlated / anti-correlated tables
//!   (Börzsönyi-style) used for controlled parameter sweeps (Figure 6).
//! * [`flights_dot`] — the DOT on-time-performance table used for the
//!   offline experiments (Figures 13–21).
//! * [`diamonds`] — a Blue Nile-like diamond catalogue (Figure 22).
//! * [`gflights`] — Google Flights-like per-route itinerary lists
//!   (Figure 23).
//! * [`autos`] — a Yahoo! Autos-like used-car listing table (Figure 24).
//!
//! All generators are deterministic given a seed.
//!
//! ```
//! use skyweb_datagen::synthetic::{self, Correlation};
//!
//! let ds = synthetic::generate(&synthetic::SyntheticConfig {
//!     n: 100,
//!     m: 3,
//!     domain_size: 50,
//!     correlation: Correlation::Independent,
//!     seed: 7,
//! });
//! assert_eq!(ds.tuples.len(), 100);
//! assert_eq!(ds.schema.num_ranking(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod autos;
mod dataset;
pub mod diamonds;
pub mod flights_dot;
pub mod gflights;
pub mod synthetic;

pub use dataset::Dataset;
