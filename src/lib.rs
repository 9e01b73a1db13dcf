//! # skyweb
//!
//! Discovering the skyline of hidden web databases — a Rust implementation
//! of Asudeh, Thirumuruganathan, Zhang & Das, *"Discovering the Skyline of
//! Web Databases"* (VLDB 2016).
//!
//! This umbrella crate re-exports the workspace members so that applications
//! can depend on a single crate:
//!
//! * [`hidden_db`] — the hidden web database simulator: a tuple store behind
//!   a top-k search interface with per-attribute predicate restrictions
//!   (SQ / RQ / PQ), domination-consistent ranking functions, query
//!   accounting and rate limits.
//! * [`skyline`] — local (full-access) skyline and K-sky-band algorithms
//!   used for ground truth and for the crawling baseline's post-processing.
//! * [`datagen`] — synthetic dataset generators mirroring the paper's
//!   evaluation data (DOT flights, Blue Nile diamonds, Google Flights
//!   itineraries, Yahoo! Autos listings, controlled synthetic tables).
//! * [`core`] — the paper's contribution: SQ-DB-SKY, RQ-DB-SKY, PQ-2D-SKY,
//!   PQ-DB-SKY, MQ-DB-SKY, sky-band extensions, the crawling baseline and
//!   the analytical cost models.
//!
//! ## Quick start
//!
//! ```
//! use skyweb::core::{Discoverer, MqDbSky};
//! use skyweb::datagen::autos::{self, AutosConfig};
//! use skyweb::hidden_db::SingleAttributeRanker;
//!
//! // A small Yahoo!-Autos-like hidden database ranked by price, top-50.
//! let dataset = autos::generate(&AutosConfig { n: 2_000, seed: 1 });
//! let price = dataset.schema.attr_by_name("price").unwrap();
//! let db = dataset.into_db(Box::new(SingleAttributeRanker::new(price)), 50);
//!
//! let result = MqDbSky::new().discover(&db).unwrap();
//! assert!(result.complete);
//! println!(
//!     "{} skyline cars found with {} search queries",
//!     result.skyline.len(),
//!     result.query_cost
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub use skyweb_core as core;
pub use skyweb_datagen as datagen;
pub use skyweb_hidden_db as hidden_db;
pub use skyweb_skyline as skyline;
