//! Golden-trace regression tests: exact query costs, anytime traces and
//! access-log fingerprints for fig14/fig15-style SQ runs, a fig22-style
//! MQ run and the point-crawl odometer, pinned against hardcoded values.
//!
//! The discovery machines and the engine's shared-prefix batch executor are
//! required to be *byte-identical* to sequential per-query execution; these
//! goldens make that contract regression-testable end to end — an executor
//! or machine change that silently altered algorithm behavior (query order,
//! costs, traces, responses) shifts a fingerprint and fails here. Each test
//! additionally re-runs its workload with batching forced off
//! (`max_batch = 1`, the pre-batching round-trip pattern) and asserts the
//! two runs identical, so a golden can never drift *because of* batching.

use skyweb::core::{
    encode_error_reply, encode_hello, encode_plan, encode_responses, encode_welcome, BaselineCrawl,
    Discoverer, DiscoveryDriver, DiscoveryMachine, DiscoveryResult, DriverConfig, Hello, MqDbSky,
    PointSpaceCrawl, Pq2dSky, PqDbSky, RqDbSky, RqSkyband, SqDbSky, StepOutcome, Welcome,
    DEFAULT_MAX_BATCH, WIRE_PROTOCOL,
};
use skyweb::datagen::{diamonds, flights_dot};
use skyweb::hidden_db::{
    HiddenDb, InterfaceType, MemSource, Query, QueryError, QueryResponse, RandomSkylineRanker,
    Ranker, SchemaBuilder, SegmentError, SegmentOpenOptions, SegmentWriter, SingleAttributeRanker,
    SumRanker, Tuple, WorstCaseRanker,
};

/// FNV-1a over a byte stream: the fingerprint primitive for traces and
/// access logs (stable across platforms; no dependency on hash maps).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// `(length, FNV-1a fingerprint)` of a serialized artifact.
fn bytes_fingerprint(bytes: &[u8]) -> (usize, u64) {
    let mut h = Fnv::new();
    h.write(bytes);
    (bytes.len(), h.0)
}

/// Fingerprint of a discovery result: cost, completion, sorted skyline ids,
/// retrieved size and the full anytime trace.
fn result_fingerprint(r: &DiscoveryResult) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(r.query_cost);
    h.write_u64(u64::from(r.complete));
    let mut ids: Vec<u64> = r.skyline.iter().map(|t| t.id).collect();
    ids.sort_unstable();
    for id in ids {
        h.write_u64(id);
    }
    h.write_u64(r.retrieved.len() as u64);
    for p in &r.trace {
        h.write_u64(p.queries);
        h.write_u64(p.skyline_found as u64);
    }
    h.0
}

/// Fingerprint of the access log: every entry's sequence number, SQL
/// rendering, returned count and overflow flag — the exact query trace the
/// database served, in order.
fn log_fingerprint(db: &HiddenDb) -> u64 {
    let mut h = Fnv::new();
    for e in db.access_log().entries() {
        h.write_u64(e.seq);
        h.write(e.query.as_bytes());
        h.write_u64(e.returned as u64);
        h.write_u64(u64::from(e.overflowed));
    }
    h.0
}

/// Runs `alg` twice on identical databases built by `mk_db` — batched
/// (default driver config, sibling-annotated plans through the shared-prefix
/// executor) and forced sequential (`max_batch = 1`) — asserts the runs
/// identical, and returns the batched run's fingerprints.
fn run_and_crosscheck(
    alg: &dyn Discoverer,
    mk_db: impl Fn() -> HiddenDb,
) -> (DiscoveryResult, u64, u64) {
    let batched_db = mk_db();
    batched_db.enable_access_log();
    let machine = alg.machine(&batched_db).expect("supported interface");
    let batched = DiscoveryDriver::new(&batched_db, machine, DriverConfig::new())
        .run()
        .expect("batched run");

    let seq_db = mk_db();
    seq_db.enable_access_log();
    let machine = alg.machine(&seq_db).expect("supported interface");
    let sequential = DiscoveryDriver::new(&seq_db, machine, DriverConfig::new().with_max_batch(1))
        .run()
        .expect("sequential run");

    assert_eq!(
        result_fingerprint(&batched),
        result_fingerprint(&sequential),
        "batched and forced-sequential runs diverged"
    );
    assert_eq!(
        log_fingerprint(&batched_db),
        log_fingerprint(&seq_db),
        "batched and forced-sequential access logs diverged"
    );
    let (rfp, lfp) = (result_fingerprint(&batched), log_fingerprint(&batched_db));
    (batched, rfp, lfp)
}

/// A fig14-style workload: DOT-like flights, all nine primary ranking
/// attributes as one-ended (SQ) interfaces, k = 10 — the SQ BFS tree whose
/// frontier the batch executor pipelines.
fn fig14_style_db(n: usize) -> HiddenDb {
    let base = flights_dot::generate(&flights_dot::FlightsDotConfig { n, seed: 2015 });
    let names: Vec<&str> = flights_dot::PRIMARY_RANKING.to_vec();
    let mut ds = base.project(&names);
    for name in &names {
        ds = ds.with_interface(name, InterfaceType::Sq);
    }
    ds.into_db_sum(10)
}

/// A fig15-style workload: the m-sweep shape (here m = 4) over two-ended
/// (RQ) interfaces, exercised by both SQ- and RQ-DB-SKY.
fn fig15_style_db(n: usize) -> HiddenDb {
    let base = flights_dot::generate(&flights_dot::FlightsDotConfig { n, seed: 2015 });
    let names: Vec<&str> = flights_dot::PRIMARY_RANKING[..4].to_vec();
    let mut ds = base.project(&names);
    for name in &names {
        ds = ds.with_interface(name, InterfaceType::Rq);
    }
    ds.into_db_sum(10)
}

/// Round-trips a freshly built database through the persistent columnar
/// segment store (write → reopen from bytes) so a golden workload can run
/// against the lazily-hydrating segment backend instead of the RAM build.
fn seg_clone(db: &HiddenDb) -> HiddenDb {
    seg_clone_with(db, Box::new(SumRanker), SegmentOpenOptions::new())
}

/// [`seg_clone`] with the reopened database's ranker (it must carry the
/// name `db`'s ranker wrote) and explicit open options — the goldens run
/// under the sticky cache and an eviction-forcing cache budget.
fn seg_clone_with(db: &HiddenDb, ranker: Box<dyn Ranker>, options: SegmentOpenOptions) -> HiddenDb {
    let bytes = SegmentWriter::new()
        .write(db)
        .expect("RAM-backed databases always serialize");
    HiddenDb::open_segment_source_with(Box::new(MemSource::new(bytes)), ranker, options)
        .expect("a fresh segment reopens")
}

#[test]
fn golden_fig14_style_sq_run() {
    let (result, result_fp, log_fp) = run_and_crosscheck(&SqDbSky::new(), || fig14_style_db(2_000));
    assert!(result.complete);
    assert_eq!(result.query_cost, 397, "query cost drifted");
    assert_eq!(result.skyline.len(), 40, "skyline size drifted");
    assert_eq!(result_fp, 0x104f7d8f829628b6, "result fingerprint drifted");
    assert_eq!(log_fp, 0x1b9720d0c24bd4d2, "access-log fingerprint drifted");
}

#[test]
fn golden_fig15_style_sq_and_rq_runs() {
    let (sq, sq_fp, sq_log_fp) = run_and_crosscheck(&SqDbSky::new(), || fig15_style_db(2_000));
    assert!(sq.complete);
    assert_eq!(sq.query_cost, 41, "SQ query cost drifted");
    assert_eq!(sq_fp, 0x6c1951198a71976f, "SQ result fingerprint drifted");
    assert_eq!(
        sq_log_fp, 0x5bc70a3a2aedb12d,
        "SQ access-log fingerprint drifted"
    );

    let (rq, rq_fp, rq_log_fp) = run_and_crosscheck(&RqDbSky::new(), || fig15_style_db(2_000));
    assert!(rq.complete);
    assert_eq!(rq.query_cost, 21, "RQ query cost drifted");
    assert_eq!(rq_fp, 0x30bb8ecb2ce00ef7, "RQ result fingerprint drifted");
    assert_eq!(
        rq_log_fp, 0xc13a83fbd59470ec,
        "RQ access-log fingerprint drifted"
    );
    assert_eq!(
        sq.skyline.len(),
        rq.skyline.len(),
        "SQ and RQ must certify the same skyline"
    );
}

/// A fig22-style workload at quick scale: MQ-DB-SKY (all five diamond
/// attributes are RQ, so it runs RQ-DB-SKY through MQ's all-range
/// reduction) on the Blue Nile stand-in, price ranking, k = 50. Its
/// knowledge base certifies over a thousand skyline tuples, so its
/// incremental skyline splits into more than one block — every other golden
/// stays inside one.
#[test]
fn golden_fig22_style_rq_run() {
    let mk_db = || {
        let ds = diamonds::generate(&diamonds::DiamondsConfig { n: 20_000, seed: 4 });
        let price = ds.schema.attr_by_name("price").expect("diamonds price");
        ds.into_db(Box::new(SingleAttributeRanker::new(price)), 50)
    };
    let (result, result_fp, log_fp) = run_and_crosscheck(&MqDbSky::new(), mk_db);
    assert!(result.complete);
    assert_eq!(result.query_cost, 2_036, "query cost drifted");
    assert_eq!(result.skyline.len(), 1_415, "skyline size drifted");
    assert_eq!(result_fp, 0x6a5a202f77959043, "result fingerprint drifted");
    assert_eq!(log_fp, 0x64b6aa8b3ce0142e, "access-log fingerprint drifted");
}

#[test]
fn golden_point_crawl_odometer() {
    let mk_db = || {
        let schema = SchemaBuilder::new()
            .ranking("x", 4, InterfaceType::Pq)
            .ranking("y", 3, InterfaceType::Pq)
            .ranking("z", 3, InterfaceType::Pq)
            .build();
        let tuples: Vec<Tuple> = (0..30u64)
            .map(|i| {
                Tuple::new(
                    i,
                    vec![(i % 4) as u32, ((i / 2) % 3) as u32, ((i * 5) % 3) as u32],
                )
            })
            .collect();
        HiddenDb::new(schema, tuples, Box::new(SumRanker), 2)
    };
    let (result, result_fp, log_fp) = run_and_crosscheck(&PointSpaceCrawl::new(), mk_db);
    assert!(result.complete);
    // The odometer enumerates the whole 4·3·3 grid, one query per cell.
    assert_eq!(result.query_cost, 36);
    assert_eq!(result_fp, 0xd7ba5e8a445f1990, "result fingerprint drifted");
    assert_eq!(log_fp, 0x5e3de9fc85260081, "access-log fingerprint drifted");
    // The first odometer queries, literally: last attribute fastest.
    let db = mk_db();
    db.enable_access_log();
    let machine = PointSpaceCrawl::new().machine(&db).unwrap();
    DiscoveryDriver::new(&db, machine, DriverConfig::new())
        .run()
        .unwrap();
    let log = db.access_log();
    assert_eq!(
        log.entries()[0].query,
        "SELECT * FROM D WHERE A0 = 0 AND A1 = 0 AND A2 = 0"
    );
    assert_eq!(
        log.entries()[1].query,
        "SELECT * FROM D WHERE A0 = 0 AND A1 = 0 AND A2 = 1"
    );
    assert_eq!(
        log.entries()[3].query,
        "SELECT * FROM D WHERE A0 = 0 AND A1 = 1 AND A2 = 0"
    );
}

// --- Segment-backed goldens ------------------------------------------------
//
// The same pinned fingerprints, with every database round-tripped through
// the columnar segment store first: the lazily-hydrating backend must be
// byte-identical to the RAM build — costs, traces, responses and the full
// access log.

#[test]
fn golden_fig14_style_sq_run_segment_backed() {
    let (result, result_fp, log_fp) =
        run_and_crosscheck(&SqDbSky::new(), || seg_clone(&fig14_style_db(2_000)));
    assert!(result.complete);
    assert_eq!(result.query_cost, 397, "segment-backed query cost drifted");
    assert_eq!(
        result_fp, 0x104f7d8f829628b6,
        "segment-backed result fingerprint drifted"
    );
    assert_eq!(
        log_fp, 0x1b9720d0c24bd4d2,
        "segment-backed access-log fingerprint drifted"
    );
}

#[test]
fn golden_fig15_style_runs_segment_backed() {
    let (sq, sq_fp, sq_log_fp) =
        run_and_crosscheck(&SqDbSky::new(), || seg_clone(&fig15_style_db(2_000)));
    assert!(sq.complete);
    assert_eq!(sq.query_cost, 41, "segment-backed SQ query cost drifted");
    assert_eq!(sq_fp, 0x6c1951198a71976f, "SQ result fingerprint drifted");
    assert_eq!(sq_log_fp, 0x5bc70a3a2aedb12d, "SQ log fingerprint drifted");

    let (rq, rq_fp, rq_log_fp) =
        run_and_crosscheck(&RqDbSky::new(), || seg_clone(&fig15_style_db(2_000)));
    assert!(rq.complete);
    assert_eq!(rq.query_cost, 21, "segment-backed RQ query cost drifted");
    assert_eq!(rq_fp, 0x30bb8ecb2ce00ef7, "RQ result fingerprint drifted");
    assert_eq!(rq_log_fp, 0xc13a83fbd59470ec, "RQ log fingerprint drifted");
}

// --- Pinned serialized bytes -------------------------------------------------
//
// The encodings themselves, fingerprinted as `(length, FNV-1a)`: a change
// to the envelope, the chunk encoding or a payload walk must reproduce every
// byte of the SWSG segment files, the SWCK plan, responses and checkpoint
// envelopes, and the wire handshake and error-reply frames.

#[test]
fn golden_segment_bytes() {
    let fig15 = SegmentWriter::new()
        .write(&fig15_style_db(2_000))
        .expect("RAM-backed databases always serialize");
    assert_eq!(
        bytes_fingerprint(&fig15),
        (41_464, 0x3aab451b0c447b8a),
        "fig15-style segment bytes drifted"
    );

    // The nine primary flight attributes at n = 25,000.
    let flights = SegmentWriter::new()
        .write(&fig14_style_db(25_000))
        .expect("RAM-backed databases always serialize");
    assert_eq!(
        bytes_fingerprint(&flights),
        (1_008_886, 0xaac830f44c2598a4),
        "flights segment bytes drifted"
    );
}

#[test]
fn golden_swck_envelope_bytes() {
    let db = fig14_style_db(2_000);
    let machine = SqDbSky::new().machine(&db).expect("supported interface");
    let mut driver = DiscoveryDriver::new(&db, machine, DriverConfig::new());
    for _ in 0..3 {
        driver.step().expect("fault-free step");
    }
    let checkpoint = driver.pause();
    let plan = checkpoint.machine().next_plan(DEFAULT_MAX_BATCH);
    assert!(
        plan.groups().is_some(),
        "SQ frontier plans carry sibling groups"
    );
    let responses: Vec<QueryResponse> = plan
        .queries()
        .iter()
        .map(|q| db.query(q).expect("machine queries are valid"))
        .collect();
    assert_eq!(
        bytes_fingerprint(&encode_plan(&plan)),
        (1_796, 0x3db8facca42ee05d),
        "plan envelope drifted"
    );
    assert_eq!(
        bytes_fingerprint(&encode_responses(&responses)),
        (5_711, 0xa85d422226adad09),
        "responses envelope drifted"
    );
    assert_eq!(
        bytes_fingerprint(&checkpoint.to_bytes().expect("SQ checkpoints encode")),
        (6_802, 0x87f97ed0578b5e1b),
        "checkpoint envelope drifted"
    );
}

/// The three wire payloads the plan and responses pins leave out: the
/// handshake pair, where the welcome is the one wire frame that writes a
/// schema, and an error reply whose `QueryError` nests a `SegmentError`.
#[test]
fn golden_wire_frame_bytes() {
    let hello = Hello {
        protocol: WIRE_PROTOCOL,
        label: "tenant-sq".to_string(),
    };
    assert_eq!(
        bytes_fingerprint(&encode_hello(&hello)),
        (44, 0x809341e8c727ad9b),
        "hello envelope drifted"
    );

    let db = fig14_style_db(2_000);
    let welcome = Welcome {
        protocol: WIRE_PROTOCOL,
        ranker: db.ranker_name().to_string(),
        k: db.k() as u64,
        tuple_count: db.n() as u64,
        schema: db.schema().clone(),
    };
    assert_eq!(
        bytes_fingerprint(&encode_welcome(&welcome)),
        (280, 0xf80c26543b19503a),
        "welcome envelope drifted"
    );

    let answered = vec![db.query(&Query::select_all()).expect("select-all is valid")];
    let error = QueryError::Storage {
        error: SegmentError::Malformed {
            detail: "missing section ids[attr 0, chunk 3]".to_string(),
        },
    };
    assert_eq!(
        bytes_fingerprint(&encode_error_reply(&answered, &error)),
        (606, 0x68a40e201291e2b1),
        "error-reply envelope drifted"
    );
}

/// A paused sky-band checkpoint: its control state is the one checkpoint
/// control that writes a schema.
#[test]
fn golden_skyband_checkpoint_bytes() {
    let db = fig15_style_db(2_000);
    let machine = RqSkyband::new(2)
        .build_machine(&db)
        .expect("fig15-style attributes are two-ended ranges");
    let mut driver = DiscoveryDriver::new(&db, machine, DriverConfig::new());
    for _ in 0..30 {
        let outcome = driver.step().expect("fault-free step");
        assert!(
            matches!(outcome, StepOutcome::Progressed { .. }),
            "the band is still open"
        );
    }
    let checkpoint = driver.pause();
    assert_eq!(
        bytes_fingerprint(&checkpoint.to_bytes().expect("sky-band checkpoints encode")),
        (7_555, 0x98b789c57ac31b0d),
        "sky-band checkpoint envelope drifted"
    );
}

/// A small deterministic database with every attribute on the given
/// interface type — the substrate for the all-machines cross-check.
fn small_db(m: usize, itf: Option<InterfaceType>, ranker: Box<dyn Ranker>) -> HiddenDb {
    let domains = [5u32, 4, 3];
    let mixed = [InterfaceType::Sq, InterfaceType::Rq, InterfaceType::Pq];
    let mut builder = SchemaBuilder::new();
    for i in 0..m {
        builder = builder.ranking(format!("a{i}"), domains[i], itf.unwrap_or(mixed[i]));
    }
    let tuples: Vec<Tuple> = (0..60u64)
        .map(|i| {
            let v = [(i * 7 % 5) as u32, (i * 5 % 4) as u32, (i % 3) as u32];
            Tuple::new(i, v[..m].to_vec())
        })
        .collect();
    HiddenDb::new(builder.build(), tuples, ranker, 2)
}

/// Builds a fresh ranker; every backend gets its own, so a randomized
/// ranker starts each run from the same seed.
type RankerFactory = fn() -> Box<dyn Ranker>;

/// The tiny-cache budget: 960 B gives each of the 8 shards 120 B, one
/// packed 60-value chunk (56–88 B), never two.
const TINY_CACHE: u64 = 960;

/// A budget below every packed chunk's cost (at least 40 B), so nothing
/// is ever resident: every read loads, checks and drops its chunk.
const NO_RESIDENT_CACHE: u64 = 8;

/// Runs one machine to completion on the RAM build and on segment
/// round-trips of the *same* database — served from the sticky cache,
/// behind a budget tiny enough to force mid-run eviction wherever two
/// touched chunks share a shard, and behind one that keeps no chunk
/// resident at all — asserting results, exact costs and access-log
/// fingerprints identical on every backend. The no-resident run must
/// miss on every lookup. Returns the evictions of the tiny-cache run.
fn assert_segment_matches_ram(
    mk_db: &dyn Fn(Box<dyn Ranker>) -> HiddenDb,
    mk_ranker: RankerFactory,
    mk_machine: &dyn Fn(&HiddenDb) -> Box<dyn DiscoveryMachine>,
    label: &str,
) -> u64 {
    let ram_db = mk_db(mk_ranker());
    ram_db.enable_access_log();
    let ram = DiscoveryDriver::new(&ram_db, mk_machine(&ram_db), DriverConfig::new())
        .run()
        .expect("RAM run");

    let variants: [(&str, SegmentOpenOptions); 3] = [
        ("v2", SegmentOpenOptions::new()),
        (
            "v2+tiny-cache",
            SegmentOpenOptions::new().with_cache_budget(TINY_CACHE),
        ),
        (
            "v2+no-resident-cache",
            SegmentOpenOptions::new().with_cache_budget(NO_RESIDENT_CACHE),
        ),
    ];
    let mut evictions = 0;
    for (variant, options) in variants {
        let seg_db = seg_clone_with(&mk_db(mk_ranker()), mk_ranker(), options);
        seg_db.enable_access_log();
        let seg = DiscoveryDriver::new(&seg_db, mk_machine(&seg_db), DriverConfig::new())
            .run()
            .expect("segment run");

        assert_eq!(
            ram.query_cost, seg.query_cost,
            "{label} [{variant}]: query costs diverged between RAM and segment backends"
        );
        assert_eq!(
            result_fingerprint(&ram),
            result_fingerprint(&seg),
            "{label} [{variant}]: discovery results diverged between RAM and segment backends"
        );
        assert_eq!(
            log_fingerprint(&ram_db),
            log_fingerprint(&seg_db),
            "{label} [{variant}]: access logs diverged between RAM and segment backends"
        );
        let stats = seg_db.storage_stats().expect("segment-backed");
        match stats.cache_budget {
            Some(TINY_CACHE) => evictions = stats.cache_evictions,
            Some(NO_RESIDENT_CACHE) => assert!(
                stats.cache_hits == 0 && stats.cache_misses > 0,
                "{label} [{variant}]: a chunk stayed resident: {stats:?}"
            ),
            _ => {}
        }
    }
    evictions
}

type DbFactory = Box<dyn Fn(Box<dyn Ranker>) -> HiddenDb>;
type MachineFactory = Box<dyn Fn(&HiddenDb) -> Box<dyn DiscoveryMachine>>;

/// All eight machines match the RAM run on the sticky cache, under the
/// tiny budget, which evicts mid-run in exactly the three runs named
/// below, and under the no-resident budget, which checks every machine
/// with no chunk kept.
#[test]
fn all_eight_machines_are_backend_agnostic() {
    let cases: Vec<(&str, DbFactory, MachineFactory)> = vec![
        (
            "sq-db-sky",
            Box::new(|r| small_db(3, Some(InterfaceType::Sq), r)),
            Box::new(|db| SqDbSky::new().machine(db).unwrap()),
        ),
        (
            "rq-db-sky",
            Box::new(|r| small_db(3, Some(InterfaceType::Rq), r)),
            Box::new(|db| RqDbSky::new().machine(db).unwrap()),
        ),
        (
            "pq-db-sky",
            Box::new(|r| small_db(3, Some(InterfaceType::Pq), r)),
            Box::new(|db| PqDbSky::new().machine(db).unwrap()),
        ),
        (
            "pq-2d-sky",
            Box::new(|r| small_db(2, Some(InterfaceType::Pq), r)),
            Box::new(|db| Pq2dSky::new().machine(db).unwrap()),
        ),
        (
            "mq-db-sky",
            Box::new(|r| small_db(3, None, r)),
            Box::new(|db| MqDbSky::new().machine(db).unwrap()),
        ),
        (
            "rq-skyband",
            Box::new(|r| small_db(3, Some(InterfaceType::Rq), r)),
            Box::new(|db| Box::new(RqSkyband::new(2).build_machine(db).unwrap())),
        ),
        (
            "baseline-crawl",
            Box::new(|r| small_db(3, Some(InterfaceType::Rq), r)),
            Box::new(|db| BaselineCrawl::new().machine(db).unwrap()),
        ),
        (
            "point-space-crawl",
            Box::new(|r| small_db(3, Some(InterfaceType::Pq), r)),
            Box::new(|db| PointSpaceCrawl::new().machine(db).unwrap()),
        ),
    ];
    let evicting: Vec<&str> = cases
        .iter()
        .filter(|(label, mk_db, mk_machine)| {
            assert_segment_matches_ram(
                mk_db.as_ref(),
                || Box::new(SumRanker),
                mk_machine.as_ref(),
                label,
            ) > 0
        })
        .map(|(label, ..)| *label)
        .collect();
    // The other five machines touch at most five chunks of the one-chunk
    // database, each in its own shard, so no budget that keeps a chunk
    // makes them evict; the no-resident run checks them with none kept.
    assert_eq!(
        evicting,
        ["rq-skyband", "baseline-crawl", "point-space-crawl"],
        "the tiny cache must evict mid-run wherever two touched chunks share a shard"
    );
}

/// The rankers without a total order, the average and worst case of the
/// paper's Section 3.2, select through the engine's fallback plan, which
/// hydrates a segment-backed store before the ranker reads any tuple.
/// SQ- and RQ-DB-SKY under each must match the RAM run on the sticky cache,
/// under the tiny budget, where hydration reads the ids chunk and three
/// store-col chunks, each in its own shard, so nothing is evicted, and
/// under the no-resident budget, where every one of those reads misses.
/// Each backend gets a fresh, identically seeded random ranker, so equal
/// fingerprints also pin equal random draws.
#[test]
fn rankers_without_a_total_order_are_backend_agnostic() {
    let rankers: [(&str, RankerFactory); 2] = [
        ("worst-case", || Box::new(WorstCaseRanker)),
        ("random-skyline", || Box::new(RandomSkylineRanker::new(17))),
    ];
    for (rname, mk_ranker) in rankers {
        assert_segment_matches_ram(
            &|r| small_db(3, Some(InterfaceType::Sq), r),
            mk_ranker,
            &|db| SqDbSky::new().machine(db).unwrap(),
            &format!("sq-db-sky / {rname}"),
        );
        assert_segment_matches_ram(
            &|r| small_db(3, Some(InterfaceType::Rq), r),
            mk_ranker,
            &|db| RqDbSky::new().machine(db).unwrap(),
            &format!("rq-db-sky / {rname}"),
        );
    }
}
