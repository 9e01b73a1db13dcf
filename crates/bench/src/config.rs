//! The harness-wide run configuration: what the `experiments` flags ask of
//! every discovery run the figure helpers execute.
//!
//! The binary parses its flags into one [`RunConfig`] and installs it
//! before any figure runs; the figure helpers read it for every run.
//! Nothing installed means the defaults: in-process, in-RAM, fault-free,
//! runs to completion.

use std::sync::OnceLock;

use skyweb_core::DriverConfig;
use skyweb_hidden_db::{FaultPlan, SegmentOpenOptions};

/// How every figure discovery run executes.
///
/// No setting here changes a byte of figure stdout (CI diffs exactly that),
/// except the anytime limits of `driver`:
///
/// * a query budget truncates runs deterministically, so stdout stays
///   serial/parallel byte-identical;
/// * a wall-clock deadline does not, so the `experiments` binary moves the
///   (truncation-dependent) tables to stderr while one is set.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The driver of every run: query budget (`--budget`), wall-clock
    /// deadline (`--max-wall-ms`), per-round batch limit (`--max-batch`;
    /// `1` is the per-query reference schedule) and, with faults on, the
    /// retry policy seeded by `--fault-seed`.
    pub driver: DriverConfig,
    /// The fault plan every run's queries pass through (`--fault-rate`,
    /// `--fault-seed`), in process or in front of the wire. Faulted
    /// attempts never reach the database and retries converge to the
    /// fault-free schedule.
    pub faults: FaultPlan,
    /// Routes every run over a loopback TCP connection (`--net`): the
    /// figure's database is served by a `skyweb-net` server on an ephemeral
    /// port and the machine runs through a `RemoteOracle`.
    pub net: bool,
    /// Serves every figure database from an in-memory segment opened with
    /// these options (`--segment`; `--cache-budget` caps each segment's
    /// chunk cache). `None` keeps the databases in RAM.
    pub segment: Option<SegmentOpenOptions>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            driver: DriverConfig::new(),
            faults: FaultPlan::none(),
            net: false,
            segment: None,
        }
    }
}

static INSTALLED: OnceLock<RunConfig> = OnceLock::new();

/// Installs the harness-wide run configuration. Call once, before any
/// figure runs; returns `Err` if one was already installed.
pub fn install_run_config(config: RunConfig) -> Result<(), &'static str> {
    INSTALLED
        .set(config)
        .map_err(|_| "run configuration already installed")
}

/// The installed run configuration (the defaults if none was installed).
pub fn run_config() -> RunConfig {
    INSTALLED.get().copied().unwrap_or_default()
}
