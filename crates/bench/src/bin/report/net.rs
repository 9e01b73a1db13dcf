//! `net`: the TCP wire protocol over loopback, serving the fig14-style SQ
//! workload (DOT-like flights, `n` tuples, all nine primary attributes as
//! one-ended interfaces, k = 10).
//!
//! - `handshake`: TCP connect plus the hello/welcome exchange, which
//!   carries the schema; percentiles over `samples` fresh connections.
//! - `round_trip`: one single-query plan frame answered with a responses
//!   frame through `RemoteOracle::run_plan_grouped`, over one long
//!   connection after ten unrecorded warm-up round trips.
//! - `sequential`, `batched`: the same SQ-DB-SKY discovery run remotely with
//!   `max_batch` 1 (one query per round trip, the pre-batching pattern) and
//!   with `max_batch` 64 (one round trip per sibling-annotated frontier
//!   plan). Both results must be identical to an in-process run, so
//!   `round_trip_amortization` is pure transport savings. Each run's
//!   database builds its query index before the clock starts; the wall
//!   times include the in-scope loopback server.

use std::time::{Duration, Instant};

use skyweb_bench::run_remote;
use skyweb_core::{Discoverer, DiscoveryResult, DriverConfig, PlanOracle, SqDbSky};
use skyweb_datagen::flights_dot;
use skyweb_hidden_db::{FaultPlan, HiddenDb, InterfaceType, Query};
use skyweb_net::{RemoteOracle, Server, ServerConfig};

use super::{percentile, Args, Record};

const BATCHED_MAX: usize = 64;

fn sq_db(n: usize) -> HiddenDb {
    let base = flights_dot::generate(&flights_dot::FlightsDotConfig { n, seed: 2015 });
    let names: Vec<&str> = flights_dot::PRIMARY_RANKING.to_vec();
    let mut ds = base.project(&names);
    for name in &names {
        ds = ds.with_interface(name, InterfaceType::Sq);
    }
    ds.into_db_sum(10)
}

/// Comparable rendering of a discovery result (ids, values, cost, trace).
fn fingerprint(r: &DiscoveryResult) -> String {
    let ids: Vec<(u64, &[u32])> = r
        .skyline
        .iter()
        .map(|t| (t.id, t.values.as_slice()))
        .collect();
    format!("{ids:?}|{}|{}|{:?}", r.query_cost, r.complete, r.trace)
}

/// Handshake and single-query round-trip latencies in µs, each sorted.
fn latencies(db: &HiddenDb, handshakes: usize, round_trips: usize) -> (Vec<u64>, Vec<u64>) {
    let server = Server::bind("127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    let handle = server.handle();
    let server_config = ServerConfig::new()
        .with_workers(1)
        .with_read_timeout(Some(Duration::from_secs(60)));
    let timeout = Some(Duration::from_secs(60));
    let micros = |t: Instant| t.elapsed().as_micros() as u64;
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(db, &server_config));
        let mut hs_us: Vec<u64> = (0..handshakes)
            .map(|i| {
                let t = Instant::now();
                let oracle = RemoteOracle::connect_with(addr, format!("hs-{i}"), timeout)
                    .expect("handshake");
                let us = micros(t);
                drop(oracle);
                us
            })
            .collect();
        let mut oracle = RemoteOracle::connect_with(addr, "rtt", timeout).expect("handshake");
        let plan = vec![Query::select_all()];
        let mut round_trip = || {
            let t = Instant::now();
            let (responses, err) = oracle.run_plan_grouped(&plan, None);
            let us = micros(t);
            assert!(err.is_none() && !responses.is_empty());
            us
        };
        for _ in 0..10 {
            round_trip();
        }
        let mut rtt_us: Vec<u64> = (0..round_trips).map(|_| round_trip()).collect();
        drop(oracle);
        handle.shutdown();
        serving.join().expect("serve loop does not panic");
        hs_us.sort_unstable();
        rtt_us.sort_unstable();
        (hs_us, rtt_us)
    })
}

pub fn run(args: &Args) -> Result<Vec<Record>, String> {
    let n = args.scale.pick(2_000, 25_000);
    let handshakes = args.scale.pick(30, 200);
    let round_trips = args.scale.pick(200, 2_000);
    let (hs_us, rtt_us) = latencies(&sq_db(n), handshakes, round_trips);
    let mut out = vec![Record::new("workload", "db_n", "count", n as f64)];
    for (case, sample) in [("handshake", &hs_us), ("round_trip", &rtt_us)] {
        out.push(Record::new(case, "samples", "count", sample.len() as f64));
        out.push(Record::new(
            case,
            "us_p50",
            "us",
            percentile(sample, 0.50) as f64,
        ));
        out.push(Record::new(
            case,
            "us_p99",
            "us",
            percentile(sample, 0.99) as f64,
        ));
    }

    let alg = SqDbSky::new();
    let reference = alg.discover(&sq_db(n)).expect("in-process run");
    out.push(Record::new(
        "discovery",
        "query_cost",
        "count",
        reference.query_cost as f64,
    ));
    let mut plans = [0; 2];
    for (slot, (case, max_batch)) in [("sequential", 1), ("batched", BATCHED_MAX)]
        .into_iter()
        .enumerate()
    {
        let db = sq_db(n);
        // Builds the lazy query index without counting a query, so the
        // clock times discovery only.
        db.selectivity(0, 0, 0);
        let t = Instant::now();
        let config = DriverConfig::new().with_max_batch(max_batch);
        let (result, report) = run_remote(&alg, &db, config, FaultPlan::none());
        let wall_s = t.elapsed().as_secs_f64();
        assert_eq!(
            fingerprint(&result),
            fingerprint(&reference),
            "{case} remote run diverged from in-process"
        );
        plans[slot] = report.finished.first().map_or(0, |c| c.plans);
        out.extend([
            Record::new(case, "max_batch", "count", max_batch as f64),
            Record::new(case, "round_trips", "count", plans[slot] as f64),
            Record::new(case, "wall_s", "s", wall_s),
        ]);
    }
    let amortization = if plans[1] == 0 {
        0.0
    } else {
        plans[0] as f64 / plans[1] as f64
    };
    out.push(Record::new(
        "batched",
        "round_trip_amortization",
        "ratio",
        amortization,
    ));
    Ok(out)
}
