//! `service`: the multi-tenant discovery service. `tenants` concurrent
//! tenants, a mix of SQ-, RQ-, MQ-DB-SKY and the crawling BASELINE as
//! sans-io machines, share **one** `HiddenDb` (DOT-like flights, four RQ
//! attributes, `shared_db_n` tuples, top-`k`).
//!
//! Each driver step hands the tenant's whole sibling-annotated plan (up to
//! `max_batch` queries) to the engine's shared-prefix batch executor through
//! its `Session`, which evaluates each sibling group's shared
//! conjunction once and keeps per-query admission and accounting exact. So
//! every count here is byte-identical to per-query execution by contract
//! (hidden-db `tests/proptest_plan.rs`).
//!
//! - `cooperative`: the fleet round-robin on one thread. The wall clock
//!   starts after `probe_rounds` untimed rounds, which also build the query
//!   index. Every tenant must complete with a driver `query_cost` equal to
//!   its session's count, and the per-tenant counts must sum to the shared
//!   database's global counter: no lost or cross-attributed queries.
//!   `first_skyline_queries_*` are percentiles over tenants of the queries
//!   issued before the first skyline tuple arrived.
//! - `SQ`, `RQ`, `MQ`, `BASELINE`: the fairness spread, the max-min gap in
//!   queries between tenants of one algorithm after the probe rounds (0 is
//!   perfectly fair).
//! - `parallel`: the same fleet on a fresh database driven as disjoint
//!   tenant chunks on `jobs` scoped threads (`SKYWEB_JOBS`, else the
//!   machine's parallelism). Its index is built before the clock starts.
//!   Its counts must be conserved and equal the cooperative total.
//! - `faults_<percent>pct`: the fleet re-run with transient faults injected at
//!   `fault_rate` (seeded per tenant) under the default retry policy.
//!   Faulted attempts never reach the shared database, so retried faults
//!   must be invisible: every tenant completes, counts are conserved, and
//!   the total and the p99 first-skyline latency equal the fault-free
//!   fleet's. `retries` and `simulated_backoff_ms` are what the resilience
//!   cost.

use std::time::Instant;

use skyweb_bench::pool;
use skyweb_core::{
    BaselineCrawl, Discoverer, DiscoveryMachine, DiscoveryService, DriverConfig, MqDbSky,
    RetryPolicy, RqDbSky, SqDbSky, TenantId,
};
use skyweb_datagen::{flights_dot, Dataset};
use skyweb_hidden_db::{FaultPlan, FaultyOracle, HiddenDb, InterfaceType};

use super::{percentile, Args, Record};

const ALGS: [&str; 4] = ["SQ", "RQ", "MQ", "BASELINE"];
const TENANTS: usize = 64;
const K: usize = 10;
const MAX_BATCH: usize = 8;
const PROBE_ROUNDS: u64 = 10;

fn shared_dataset(n: usize) -> Dataset {
    let base = flights_dot::generate(&flights_dot::FlightsDotConfig { n, seed: 99 });
    let names = ["dep_delay", "taxi_out", "taxi_in", "air_time"];
    let mut ds = base.project(&names);
    for name in &names {
        ds = ds.with_interface(name, InterfaceType::Rq);
    }
    ds
}

fn machine_for(alg: &str, db: &HiddenDb) -> Box<dyn DiscoveryMachine> {
    match alg {
        "SQ" => SqDbSky::new().machine(db),
        "RQ" => RqDbSky::new().machine(db),
        "MQ" => MqDbSky::new().machine(db),
        _ => BaselineCrawl::new().machine(db),
    }
    .expect("all-RQ schema supports every tenant algorithm")
}

/// Submits the fleet, tenant `i` running `ALGS[i % 4]` on its own session
/// of `db` behind fault plan `faults(i)`.
fn submit_fleet<'db>(
    service: &mut DiscoveryService<'db>,
    db: &'db HiddenDb,
    config: DriverConfig,
    faults: impl Fn(usize) -> FaultPlan,
) -> Vec<(&'static str, TenantId)> {
    (0..TENANTS)
        .map(|i| {
            let alg = ALGS[i % ALGS.len()];
            let oracle = FaultyOracle::new(db.session(), faults(i));
            let id = service.submit(format!("{alg}-{i}"), oracle, machine_for(alg, db), config);
            (alg, id)
        })
        .collect()
}

/// Sorted per-tenant first-skyline latencies and the fleet's total query
/// count, after checking that every tenant completed and that the counts
/// sum to `db`'s global counter.
fn settle(
    service: &DiscoveryService<'_>,
    db: &HiddenDb,
    fleet: &[(&str, TenantId)],
) -> (Vec<u64>, u64) {
    let mut first_skyline = Vec::with_capacity(fleet.len());
    let mut total = 0;
    for &(_, id) in fleet {
        let stats = service.stats(id);
        assert!(stats.finished && stats.complete, "tenant did not complete");
        first_skyline.push(stats.first_skyline_at.expect("non-empty db"));
        total += stats.queries;
    }
    assert_eq!(
        total,
        db.queries_issued(),
        "per-tenant counts must sum to the shared database's global counter"
    );
    first_skyline.sort_unstable();
    (first_skyline, total)
}

pub fn run(args: &Args) -> Result<Vec<Record>, String> {
    let n = args.scale.pick(2_000, 5_000);
    let jobs = pool::jobs();
    let ds = shared_dataset(n);
    let config = DriverConfig::new().with_max_batch(MAX_BATCH);
    let mut out = vec![
        Record::new("workload", "tenants", "count", TENANTS as f64),
        Record::new("workload", "shared_db_n", "count", n as f64),
        Record::new("workload", "k", "count", K as f64),
        Record::new("workload", "max_batch", "count", MAX_BATCH as f64),
        Record::new("workload", "probe_rounds", "count", PROBE_ROUNDS as f64),
    ];

    eprintln!("# {TENANTS} tenants round-robin over one shared db (n = {n}, k = {K})");
    let db = ds.clone().into_db_sum(K);
    let mut service = DiscoveryService::new();
    let fleet = submit_fleet(&mut service, &db, config, |_| FaultPlan::none());
    for _ in 0..PROBE_ROUNDS {
        service.run_round();
    }
    for alg in ALGS {
        let counts: Vec<u64> = fleet
            .iter()
            .filter(|(a, _)| *a == alg)
            .map(|&(_, id)| service.stats(id).queries)
            .collect();
        let spread = counts.iter().max().unwrap_or(&0) - counts.iter().min().unwrap_or(&0);
        out.push(Record::new(
            alg,
            "fairness_spread_at_probe",
            "count",
            spread as f64,
        ));
    }
    let start = Instant::now();
    let rounds = service.run_to_completion() + PROBE_ROUNDS;
    let wall_s = start.elapsed().as_secs_f64();
    let (first_skyline, total) = settle(&service, &db, &fleet);
    for &(_, id) in &fleet {
        let queries = service.stats(id).queries;
        let result = service
            .take_result(id)
            .expect("finished")
            .expect("no query errors");
        assert_eq!(
            result.query_cost, queries,
            "driver accounting must match the tenant's session"
        );
    }
    let p99_first = percentile(&first_skyline, 0.99);
    out.extend([
        Record::new("cooperative", "rounds", "count", rounds as f64),
        Record::new("cooperative", "total_queries", "count", total as f64),
        Record::new("cooperative", "wall_s", "s", wall_s),
        Record::new("cooperative", "queries_per_s", "1/s", total as f64 / wall_s),
        Record::new(
            "cooperative",
            "first_skyline_queries_p50",
            "count",
            percentile(&first_skyline, 0.50) as f64,
        ),
        Record::new(
            "cooperative",
            "first_skyline_queries_p99",
            "count",
            p99_first as f64,
        ),
    ]);

    let db_par = ds.clone().into_db_sum(K);
    let mut par_service = DiscoveryService::new();
    let par_fleet = submit_fleet(&mut par_service, &db_par, config, |_| FaultPlan::none());
    // Builds the lazy query index without counting a query, so the clock
    // times discovery only.
    db_par.selectivity(0, 0, 0);
    let start = Instant::now();
    par_service.run_to_completion_parallel(jobs);
    let par_wall_s = start.elapsed().as_secs_f64();
    let (_, par_total) = settle(&par_service, &db_par, &par_fleet);
    assert_eq!(par_total, total, "parallel tenants are deterministic");
    out.extend([
        Record::new("parallel", "jobs", "count", jobs as f64),
        Record::new("parallel", "wall_s", "s", par_wall_s),
        Record::new(
            "parallel",
            "queries_per_s",
            "1/s",
            par_total as f64 / par_wall_s,
        ),
    ]);

    eprintln!("# resilience scenarios: fault rates 1% / 5% / 20%, default retry policy");
    let retrying = config.with_retry(Some(RetryPolicy::new()));
    for pct in [1, 5, 20] {
        let rate = f64::from(pct) / 100.0;
        let db = ds.clone().into_db_sum(K);
        let mut service = DiscoveryService::new();
        // Per-tenant seeds decorrelate the fault streams.
        let fleet = submit_fleet(&mut service, &db, retrying, |i| {
            FaultPlan::new(0xFA_u64 * 1_000 + i as u64, rate)
        });
        service.run_to_completion();
        let (first_skyline, faulted_total) = settle(&service, &db, &fleet);
        let p99 = percentile(&first_skyline, 0.99);
        assert_eq!(faulted_total, total, "fault rate {rate} changed results");
        assert_eq!(p99, p99_first, "fault rate {rate} shifted p99");
        let (retries, backoff_ms) = fleet.iter().fold((0, 0), |(r, b), &(_, id)| {
            let stats = service.stats(id);
            (r + stats.retries, b + stats.backoff_ms)
        });
        let case = format!("faults_{pct}pct");
        out.extend([
            Record::new(&case, "fault_rate", "ratio", rate),
            Record::new(&case, "first_skyline_queries_p99", "count", p99 as f64),
            Record::new(&case, "total_queries", "count", faulted_total as f64),
            Record::new(&case, "retries", "count", retries as f64),
            Record::new(case, "simulated_backoff_ms", "ms", backoff_ms as f64),
        ]);
    }
    Ok(out)
}
