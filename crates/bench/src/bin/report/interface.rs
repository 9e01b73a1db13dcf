//! `interface`: the hidden-database query engine, on DOT-like flights
//! (`n` tuples, top-`k`, `SumRanker`).
//!
//! - `process`: `peak_rss_after_index_kb` is the peak RSS once the
//!   database has answered its first query, read while no dataset copy is
//!   alive.
//! - Four query shapes: `indexed_ns` times the query engine as the mean of
//!   `iters` calls after a warm-up.
//! - `threads_<N>`: aggregate queries/s of `N` concurrent sessions on one
//!   shared database issuing the case mix `rounds` times, over
//!   `throughput_trials` trials: `queries_per_s` is the median, with its
//!   `queries_per_s_min` and `queries_per_s_max`, and `scaling` the median
//!   against the one-thread median.
//! - Five complete discovery runs (n = 8,000, or 2,000 at quick scale;
//!   k = 10 unless noted): `indexed_ms` is the mean of `discovery_runs`
//!   runs after an untimed first run, which builds the lazy index, and
//!   `queries` the run's query cost. Every skyline must hold at least two
//!   distinct value combinations, so a degenerate workload cannot pass for
//!   a measurement.
//!   - `sq_db_sky`, `rq_db_sky` and `baseline_crawl` (the crawl, k = 50)
//!     on five RQ attributes;
//!   - `pq_db_sky` on fig16's three point attributes, which trade off
//!     against each other;
//!   - `mq_db_sky` on fig18's 3 RQ + 2 PQ attributes.
//! - `segment`: the indexed database written to a segment file, its bytes
//!   on disk, its cold open (trailer, footer and eager metadata only) and
//!   its first, lazily hydrating query. `warm_segment_ns` and `warm_ram_ns`
//!   then time each query shape on the segment and on the RAM engine back
//!   to back (the full storage numbers are the `storage` suite's).

use std::collections::BTreeSet;
use std::time::Instant;

use skyweb_core::{BaselineCrawl, Discoverer, MqDbSky, PqDbSky, RqDbSky, SqDbSky};
use skyweb_datagen::flights_dot::{self, FlightsDotConfig};
use skyweb_hidden_db::{HiddenDb, Predicate, Query, SumRanker};

use super::{peak_rss_record, time_ns, Args, Record};

fn cases() -> [(&'static str, Query); 4] {
    [
        ("select_all_top50", Query::select_all()),
        (
            "selective_conjunction",
            Query::new(vec![
                Predicate::lt(0, 30),
                Predicate::lt(1, 40),
                Predicate::eq(6, 0),
            ]),
        ),
        ("broad_range_top50", Query::new(vec![Predicate::ge(0, 5)])),
        (
            "empty_answer",
            Query::new(vec![
                Predicate::lt(0, 1),
                Predicate::lt(1, 1),
                Predicate::lt(2, 1),
            ]),
        ),
    ]
}

/// Trials per thread count of the session throughput rows (odd, so the
/// median is one of them).
const THROUGHPUT_TRIALS: usize = 5;

/// Aggregate queries/s of `threads` concurrent sessions, each issuing
/// `queries` `rounds` times against one shared database.
fn session_throughput(db: &HiddenDb, queries: &[Query], threads: usize, rounds: u64) -> f64 {
    // The clock starts only once every worker is spawned and parked at the
    // barrier: thread spawn cost must not be charged to queries/s, or the
    // scaling would be biased against higher thread counts. The start stamp
    // is taken *before* the main thread enters the barrier: after the
    // release no worker can out-run the clock, so a descheduled main thread
    // can only undercount throughput, never inflate it.
    let barrier = std::sync::Barrier::new(threads + 1);
    let elapsed = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut session = db.session();
                    barrier.wait();
                    for _ in 0..rounds {
                        for q in queries {
                            std::hint::black_box(session.query(q).expect("session query").len());
                        }
                    }
                })
            })
            .collect();
        let start = Instant::now();
        barrier.wait();
        for h in handles {
            h.join().expect("throughput worker panicked");
        }
        start.elapsed()
    });
    (threads as u64 * rounds * queries.len() as u64) as f64 / elapsed.as_secs_f64()
}

pub fn run(args: &Args) -> Result<Vec<Record>, String> {
    let (n, k, iters) = args.scale.pick((10_000, 50, 50), (100_000, 50, 400));
    eprintln!("# building DOT-flights hidden database: n={n}, k={k}");
    let indexed = flights_dot::generate(&FlightsDotConfig { n, seed: 2015 }).into_db_sum(k);
    indexed.query(&Query::select_all()).expect("first query");
    let mut out = vec![
        Record::new("workload", "n", "count", n as f64),
        Record::new("workload", "k", "count", k as f64),
        Record::new("workload", "iters", "count", iters as f64),
    ];
    out.extend(peak_rss_record("peak_rss_after_index_kb"));
    let cases = cases();
    for (name, query) in &cases {
        let indexed_ns = time_ns(10, iters, || indexed.query(query).expect("indexed").len());
        out.push(Record::new(*name, "indexed_ns", "ns", indexed_ns));
    }

    // Enough rounds that the measured window (tens to hundreds of ms)
    // dwarfs scheduling jitter; single runs still spread by 2x or more on
    // a shared host, so each thread count takes several trials.
    let rounds = args.scale.pick(2_000, 20_000);
    out.push(Record::new("workload", "rounds", "count", rounds as f64));
    out.push(Record::new(
        "workload",
        "throughput_trials",
        "count",
        THROUGHPUT_TRIALS as f64,
    ));
    let queries: Vec<Query> = cases.iter().map(|(_, q)| q.clone()).collect();
    let mut base_qps = 0.0;
    for threads in [1, 2, 4, 8] {
        let mut qps: Vec<f64> = (0..THROUGHPUT_TRIALS)
            .map(|_| session_throughput(&indexed, &queries, threads, rounds))
            .collect();
        qps.sort_by(f64::total_cmp);
        let median = qps[THROUGHPUT_TRIALS / 2];
        if threads == 1 {
            base_qps = median;
        }
        let case = format!("threads_{threads}");
        out.push(Record::new(&case, "threads", "count", threads as f64));
        out.push(Record::new(&case, "queries_per_s", "1/s", median));
        out.push(Record::new(&case, "queries_per_s_min", "1/s", qps[0]));
        let max = qps[THROUGHPUT_TRIALS - 1];
        out.push(Record::new(&case, "queries_per_s_max", "1/s", max));
        out.push(Record::new(case, "scaling", "ratio", median / base_qps));
    }

    // The generator declares the continuous attributes RQ and the group
    // attributes PQ, so each projection carries the interfaces it needs.
    let discovery_n = args.scale.pick(2_000, 8_000);
    let runs = args.scale.pick(3, 5);
    out.push(Record::new(
        "workload",
        "discovery_runs",
        "count",
        runs as f64,
    ));
    let base = flights_dot::generate(&FlightsDotConfig {
        n: discovery_n,
        seed: 2015,
    });
    let range = base.project(&[
        "dep_delay",
        "taxi_out",
        "taxi_in",
        "air_time",
        "arrival_delay",
    ]);
    let point = base.project(&["distance_group_long", "air_time_group", "delay_group"]);
    let mixed = base.project(&[
        "dep_delay",
        "taxi_out",
        "distance",
        "distance_group_long",
        "delay_group",
    ]);
    let algos: [(&str, Box<dyn Discoverer>, _, usize); 5] = [
        ("sq_db_sky", Box::new(SqDbSky::new()), &range, 10),
        ("rq_db_sky", Box::new(RqDbSky::new()), &range, 10),
        ("baseline_crawl", Box::new(BaselineCrawl::new()), &range, 50),
        ("pq_db_sky", Box::new(PqDbSky::new()), &point, 10),
        ("mq_db_sky", Box::new(MqDbSky::new()), &mixed, 10),
    ];
    for (name, algo, dataset, k) in algos {
        let db = dataset.clone().into_db_sum(k);
        let result = algo.discover(&db).expect("discovery run");
        let distinct: BTreeSet<_> = result.skyline.iter().map(|t| &t.values).collect();
        assert!(
            distinct.len() >= 2,
            "{name}: a skyline of {} distinct value combination(s) is a degenerate workload",
            distinct.len()
        );
        let wall_ms = time_ns(0, runs, || {
            algo.discover(&db).expect("discovery run").query_cost
        }) / 1e6;
        out.push(Record::new(
            name,
            "queries",
            "count",
            result.query_cost as f64,
        ));
        out.push(Record::new(name, "indexed_ms", "ms", wall_ms));
    }

    let seg_path = std::env::temp_dir().join(format!(
        "skyweb-report-interface-{}.seg",
        std::process::id()
    ));
    let seg_bytes = indexed
        .write_segment(&seg_path)
        .expect("segment write failed");
    let t = Instant::now();
    let seg_db = HiddenDb::open_segment(&seg_path, Box::new(SumRanker)).expect("segment open");
    let cold_open_ms = t.elapsed().as_secs_f64() * 1e3;
    let first_query_ms = time_ns(0, 1, || {
        seg_db.query(&Query::select_all()).expect("first").len()
    }) / 1e6;
    out.push(Record::new(
        "segment",
        "segment_bytes",
        "bytes",
        seg_bytes as f64,
    ));
    out.push(Record::new("segment", "cold_open_ms", "ms", cold_open_ms));
    out.push(Record::new(
        "segment",
        "cold_first_query_ms",
        "ms",
        first_query_ms,
    ));
    for (name, query) in &cases {
        let segment_ns = time_ns(10, iters, || seg_db.query(query).expect("segment").len());
        let ram_ns = time_ns(10, iters, || indexed.query(query).expect("indexed").len());
        out.push(Record::new(*name, "warm_segment_ns", "ns", segment_ns));
        out.push(Record::new(*name, "warm_ram_ns", "ns", ram_ns));
    }
    drop(seg_db);
    std::fs::remove_file(&seg_path).ok();
    Ok(out)
}
