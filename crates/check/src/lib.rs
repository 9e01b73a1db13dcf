//! `skyweb-check`: the workspace's own verification toolkit, dependency-free
//! (the build environment has no crates.io access).
//!
//! * a **vendored-dependency audit** ([`vendor`]) that fingerprints
//!   `vendor/` against `check-vendor.lock`;
//! * a **deterministic interleaving explorer** ([`explore`]) — a
//!   loom-lite stateless model checker that drives the storage layer's
//!   concurrent cores (`hidden_db::conc`) through every schedule of small
//!   thread programs via the [`model`] sync facade, checking cache-budget,
//!   second-chance, slot re-pointing and log-sequence invariants under all
//!   interleavings.
//!
//! The source policies L1–L5 are enforced by clippy and by this crate's
//! `source_policies` test (see `docs/static-analysis.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod model;
pub mod vendor;
