//! # skyweb-bench
//!
//! The experiment harness that regenerates every figure of the paper's
//! evaluation (Section 8 and the analytical/simulation figures of Sections
//! 3–4), plus the `report` binary, whose suites time the building blocks
//! underneath and write the `BENCH_<suite>.json` layer reports.
//!
//! Each figure has one function in [`figures`] that builds the workload,
//! runs the relevant algorithms, and returns a [`report::FigureResult`] —
//! a plain table with the same rows/series the paper plots. The
//! `experiments` binary prints these tables:
//!
//! ```text
//! cargo run -p skyweb-bench --release --bin experiments -- all --quick
//! cargo run -p skyweb-bench --release --bin experiments -- fig13 --full
//! ```
//!
//! `--quick` shrinks the datasets so the whole suite completes in a few
//! minutes; `--full` uses cardinalities close to the paper's (and can take
//! considerably longer, dominated by the BASELINE crawls). `--parallel`
//! runs independent figures — and independent series within a figure — on
//! the scoped-thread worker pool of the [`pool`] module, with byte-identical
//! output to a serial run (every task derives its RNG seeds from its own
//! index, never from shared state). The other flags fill the one
//! [`RunConfig`] every figure run executes under.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod figures;
pub mod net;
pub mod pool;
pub mod report;
pub mod scale;

pub use config::{install_run_config, run_config, RunConfig};
pub use net::run_remote;
pub use report::FigureResult;
pub use scale::Scale;
