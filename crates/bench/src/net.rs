//! Net mode ([`RunConfig::net`](crate::RunConfig::net), `--net`): a
//! figure discovery run executes over a loopback TCP connection instead of
//! in-process.
//!
//! For each run a [`Server`] is bound to an ephemeral `127.0.0.1` port and
//! serves the figure's database; the algorithm's machine is built from the
//! [`RemoteOracle`]'s schema replica (metadata that itself round-tripped
//! through the welcome frame) and driven through
//! [`DiscoveryDriver::with_oracle`] under the run's [`DriverConfig`]. The
//! server answers plans through the same `Session` plan execution the
//! in-process driver uses, so figure stdout is **byte-identical** to the
//! in-process run — CI diffs exactly that.
//!
//! Net mode composes with every run setting: the driver's (`--budget`,
//! `--max-wall-ms`, `--max-batch`) and the fault plan (`--fault-rate`,
//! `--fault-seed`), whose [`FaultyOracle`] sits in front of the wire, so a
//! faulted attempt never sends a frame.

use std::time::Duration;

use skyweb_core::{Discoverer, DiscoveryDriver, DiscoveryResult, DriverConfig};
use skyweb_hidden_db::{FaultPlan, FaultyOracle, HiddenDb};
use skyweb_net::{RemoteOracle, Server, ServerConfig};

/// Serves `db` on an ephemeral loopback port, runs `alg`'s machine against
/// it through a [`RemoteOracle`] behind `faults`, and returns the result
/// together with the server's [`ServeReport`](skyweb_net::ServeReport)
/// (whose per-connection `plans` count is the number of wire round trips
/// the run cost).
pub fn run_remote(
    alg: &dyn Discoverer,
    db: &HiddenDb,
    config: DriverConfig,
    faults: FaultPlan,
) -> (DiscoveryResult, skyweb_net::ServeReport) {
    let server = Server::bind("127.0.0.1:0")
        .unwrap_or_else(|e| panic!("{}: cannot bind loopback: {e}", alg.name()));
    let addr = server.local_addr();
    let handle = server.handle();
    let server_config = ServerConfig::new()
        .with_workers(1)
        .with_read_timeout(Some(Duration::from_secs(120)));
    std::thread::scope(|scope| {
        let serving = scope.spawn(move || server.serve(db, &server_config));
        let outcome = (|| {
            let oracle =
                RemoteOracle::connect_with(addr, alg.name(), Some(Duration::from_secs(120)))
                    .map_err(|e| e.to_string())?;
            let machine = alg.machine(&oracle.replica()).map_err(|e| e.to_string())?;
            DiscoveryDriver::with_oracle(FaultyOracle::new(oracle, faults), machine, config)
                .run()
                .map_err(|e| e.to_string())
        })();
        handle.shutdown();
        let report = serving.join().expect("serve loop does not panic");
        let result =
            outcome.unwrap_or_else(|e| panic!("{} failed over loopback TCP: {e}", alg.name()));
        (result, report)
    })
}
