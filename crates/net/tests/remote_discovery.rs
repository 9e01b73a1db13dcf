//! The acceptance test of the wire protocol: every discovery machine,
//! built from a [`RemoteOracle`]'s schema replica and driven over a real
//! loopback TCP connection, produces results **byte-identical** to the
//! in-process run — same skyline, same retrieved set, same query cost,
//! same anytime trace, and the same access log on the database side.
//!
//! The server side answers through `Session::run_plan_grouped` exactly as
//! the in-process driver would, so any divergence here is a codec or
//! transport bug, never an acceptable "network variance".

use std::net::SocketAddr;
use std::time::Duration;

use skyweb_core::{
    BaselineCrawl, Discoverer, DiscoveryDriver, DiscoveryResult, DriverConfig, MqDbSky,
    PointSpaceCrawl, Pq2dSky, PqDbSky, RqDbSky, RqSkyband, SqDbSky, WIRE_PROTOCOL,
};
use skyweb_hidden_db::{HiddenDb, InterfaceType, SchemaBuilder, Tuple};
use skyweb_net::{RemoteOracle, ServeReport, Server, ServerConfig};

/// A small deterministic database: `m = interfaces.len()` ranking
/// attributes with mixed domain sizes, 60 tuples of hash-scrambled values.
fn build_db(interfaces: &[InterfaceType], k: usize) -> HiddenDb {
    let domains = [5u32, 4, 3, 4];
    let mut builder = SchemaBuilder::new();
    for (i, itf) in interfaces.iter().enumerate() {
        builder = builder.ranking(format!("a{i}"), domains[i], *itf);
    }
    let tuples: Vec<Tuple> = (0..60u64)
        .map(|id| {
            let values = (0..interfaces.len())
                .map(|j| {
                    let x = id
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add((j as u64) << 17)
                        .rotate_left(13)
                        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    (x % u64::from(domains[j])) as u32
                })
                .collect();
            Tuple::new(id, values)
        })
        .collect();
    HiddenDb::with_sum_ranking(builder.build(), tuples, k)
}

/// Serves `db` on an OS-picked loopback port while `f` runs, then shuts the
/// server down and returns `f`'s value plus the serve report.
fn with_server<T>(
    db: &HiddenDb,
    config: ServerConfig,
    f: impl FnOnce(SocketAddr) -> T,
) -> (T, ServeReport) {
    let server = Server::bind("127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    let handle = server.handle();
    std::thread::scope(|scope| {
        let serving = scope.spawn(move || server.serve(db, &config));
        // Shut the server down even when `f` panics: a failed assertion
        // must fail the test, not deadlock the scope on the acceptor.
        let value = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(addr)));
        handle.shutdown();
        let report = serving.join().expect("serve loop does not panic");
        match value {
            Ok(v) => (v, report),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

/// Field-wise byte-identity of two discovery results.
fn assert_identical(local: &DiscoveryResult, remote: &DiscoveryResult) {
    let ids = |r: &DiscoveryResult| -> Vec<(u64, Vec<u32>)> {
        r.skyline.iter().map(|t| (t.id, t.values.clone())).collect()
    };
    let retrieved =
        |r: &DiscoveryResult| -> Vec<u64> { r.retrieved.iter().map(|t| t.id).collect() };
    assert_eq!(ids(local), ids(remote), "skylines diverged over the wire");
    assert_eq!(
        retrieved(local),
        retrieved(remote),
        "retrieved sets diverged over the wire"
    );
    assert_eq!(
        local.query_cost, remote.query_cost,
        "query costs diverged over the wire"
    );
    assert_eq!(local.trace, remote.trace, "anytime traces diverged");
    assert_eq!(local.complete, remote.complete, "completion flags diverged");
}

/// The full access log a database served, rendered to comparable lines.
fn log_lines(db: &HiddenDb) -> Vec<String> {
    db.access_log()
        .entries()
        .iter()
        .map(|e| format!("{} {} {} {}", e.seq, e.query, e.returned, e.overflowed))
        .collect()
}

/// Runs `alg` in-process and over loopback TCP on identical databases and
/// asserts the two runs byte-identical: results, costs, traces, and the
/// exact query stream the database served.
fn check_remote(alg: &dyn Discoverer, interfaces: &[InterfaceType], k: usize) {
    let local_db = build_db(interfaces, k);
    local_db.enable_access_log();
    let reference = alg.discover(&local_db).expect("in-process run");

    let remote_db = build_db(interfaces, k);
    remote_db.enable_access_log();
    let config = ServerConfig::new()
        .with_workers(2)
        .with_read_timeout(Some(Duration::from_secs(10)));
    let (remote, report) = with_server(&remote_db, config, |addr| {
        let oracle = RemoteOracle::connect_with(addr, alg.name(), Some(Duration::from_secs(10)))
            .expect("handshake");
        // The machine is built from the oracle's schema replica — metadata
        // that itself round-tripped through the welcome frame — proving the
        // client needs no local copy of the database.
        let machine = alg.machine(&oracle.replica()).expect("supported interface");
        DiscoveryDriver::with_oracle(oracle, machine, DriverConfig::new())
            .run()
            .expect("remote run")
    });

    assert_identical(&reference, &remote);
    assert_eq!(
        remote.query_cost,
        remote_db.queries_issued(),
        "driver-side cost must equal server-side accounting"
    );
    assert_eq!(
        log_lines(&local_db),
        log_lines(&remote_db),
        "the database served a different query stream over the wire"
    );
    assert_eq!(report.connections, 1);
    assert_eq!(report.rejected, 0, "a clean client must not be rejected");
    assert_eq!(report.finished.len(), 1);
    let conn = &report.finished[0];
    assert_eq!(conn.label, alg.name());
    assert_eq!(conn.queries, remote_db.queries_issued());
    assert_eq!(conn.error_replies, 0);
}

#[test]
fn sq_db_sky_is_byte_identical_over_tcp() {
    check_remote(&SqDbSky::new(), &[InterfaceType::Sq; 3], 3);
}

#[test]
fn rq_db_sky_is_byte_identical_over_tcp() {
    check_remote(&RqDbSky::new(), &[InterfaceType::Rq; 3], 3);
}

#[test]
fn pq_db_sky_is_byte_identical_over_tcp() {
    check_remote(&PqDbSky::new(), &[InterfaceType::Pq; 3], 3);
}

#[test]
fn pq_2d_sky_is_byte_identical_over_tcp() {
    check_remote(&Pq2dSky::new(), &[InterfaceType::Pq; 2], 3);
}

#[test]
fn mq_db_sky_is_byte_identical_over_tcp() {
    check_remote(
        &MqDbSky::new(),
        &[InterfaceType::Sq, InterfaceType::Rq, InterfaceType::Pq],
        3,
    );
}

#[test]
fn baseline_crawl_is_byte_identical_over_tcp() {
    check_remote(&BaselineCrawl::new(), &[InterfaceType::Rq; 3], 3);
}

#[test]
fn point_space_crawl_is_byte_identical_over_tcp() {
    check_remote(&PointSpaceCrawl::new(), &[InterfaceType::Pq; 3], 2);
}

/// RQ-SKYBAND has no `Discoverer` impl (its product is a band, not a plain
/// skyline), so it is driven through `build_machine` on both sides.
#[test]
fn rq_skyband_is_byte_identical_over_tcp() {
    let interfaces = [InterfaceType::Rq; 3];
    let local_db = build_db(&interfaces, 3);
    local_db.enable_access_log();
    let machine = RqSkyband::new(2)
        .build_machine(&local_db)
        .expect("RQ schema");
    let reference = DiscoveryDriver::new(&local_db, machine, DriverConfig::new())
        .run()
        .expect("in-process run");

    let remote_db = build_db(&interfaces, 3);
    remote_db.enable_access_log();
    let (remote, report) = with_server(&remote_db, ServerConfig::new(), |addr| {
        let oracle = RemoteOracle::connect(addr).expect("handshake");
        let machine = RqSkyband::new(2)
            .build_machine(&oracle.replica())
            .expect("RQ schema");
        DiscoveryDriver::with_oracle(oracle, machine, DriverConfig::new())
            .run()
            .expect("remote run")
    });

    assert_identical(&reference, &remote);
    assert_eq!(log_lines(&local_db), log_lines(&remote_db));
    assert_eq!(report.rejected, 0);
    assert_eq!(report.finished.len(), 1);
}

/// The welcome frame must describe the database faithfully: protocol
/// version, ranker name, `k`, tuple count, and a schema whose replica is
/// machine-construction-equivalent to the original.
#[test]
fn welcome_metadata_matches_the_database() {
    let db = build_db(&[InterfaceType::Sq, InterfaceType::Rq], 4);
    let ((), report) = with_server(&db, ServerConfig::new().with_workers(1), |addr| {
        let oracle = RemoteOracle::connect_with(addr, "meta-probe", None).expect("handshake");
        let info = oracle.info();
        assert_eq!(info.protocol, WIRE_PROTOCOL);
        assert_eq!(info.ranker, db.ranker_name());
        assert_eq!(info.k, db.k() as u64);
        assert_eq!(info.tuple_count, db.n() as u64);
        let replica = oracle.replica();
        assert_eq!(replica.k(), db.k());
        assert_eq!(replica.n(), 0, "the replica holds no tuples");
        assert_eq!(replica.schema().len(), db.schema().len());
        assert_eq!(replica.schema().num_ranking(), db.schema().num_ranking());
        for (ours, theirs) in db.schema().attrs().iter().zip(replica.schema().attrs()) {
            assert_eq!(ours.name, theirs.name);
            assert_eq!(ours.domain_size, theirs.domain_size);
            assert_eq!(ours.interface, theirs.interface);
            assert_eq!(ours.role, theirs.role);
        }
    });
    assert_eq!(report.connections, 1);
    assert_eq!(report.finished.len(), 1);
    assert_eq!(report.finished[0].label, "meta-probe");
    assert_eq!(report.finished[0].plans, 0);
}

/// Several remote tenants on one server and one shared database: each run
/// is deterministic and their per-connection accounting sums exactly to the
/// database's global counter — the same tenancy contract
/// `DiscoveryService` guarantees in-process.
#[test]
fn concurrent_remote_tenants_share_global_accounting() {
    let db = build_db(&[InterfaceType::Sq; 3], 3);
    let (results, report) = with_server(&db, ServerConfig::new().with_workers(4), |addr| {
        std::thread::scope(|scope| {
            let tenants: Vec<_> = (0..3)
                .map(|i| {
                    scope.spawn(move || {
                        let oracle = RemoteOracle::connect_with(addr, format!("tenant-{i}"), None)
                            .expect("handshake");
                        let machine = SqDbSky::new()
                            .machine(&oracle.replica())
                            .expect("SQ schema");
                        DiscoveryDriver::with_oracle(oracle, machine, DriverConfig::new())
                            .run()
                            .expect("tenant run")
                    })
                })
                .collect();
            tenants
                .into_iter()
                .map(|t| t.join().expect("tenant thread"))
                .collect::<Vec<_>>()
        })
    });

    for other in &results[1..] {
        assert_identical(&results[0], other);
    }
    assert_eq!(report.connections, 3);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.finished.len(), 3);
    let served: u64 = report.finished.iter().map(|c| c.queries).sum();
    assert_eq!(
        served,
        db.queries_issued(),
        "per-connection accounting must sum to the global counter"
    );
    let cost: u64 = results.iter().map(|r| r.query_cost).sum();
    assert_eq!(cost, db.queries_issued());
}
