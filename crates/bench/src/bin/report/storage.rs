//! `storage`: the persistent columnar segment store, on the synthetic
//! 4-attribute table (domain 1,000, seed 42, k = 10).
//!
//! With `--segment PATH` the suite measures a prebuilt segment (see the
//! `segment_build` bin). That is the honest configuration for the peak RSS
//! rows: without it the suite first builds the table (n = 1M, or 100k at
//! quick scale) into a temp file in-process, and every peak then includes
//! the writer's transient copy.
//!
//! - `process`: `peak_rss_after_open_kb` right after the cold open, and
//!   `peak_rss_after_warm_kb` after the unbounded reader's query mix,
//!   before the capped reader opens: the lazy-hydration working set, which
//!   grows with the chunks the answers touch, not with n.
//! - `segment`: bytes on disk against `raw_bytes`, the uncompressed
//!   columnar footprint of everything the file encodes (per tuple the
//!   8-byte id and the rank permutation and its inverse, 4 + 4 bytes; per
//!   attribute a store-ordered column, a rank-ordered column and a
//!   posting-order entry, 4 + 4 + 4 bytes). `cold_open_ms` reads the
//!   trailer, footer, prefix counts and zone maps only, so it is
//!   independent of n. `cold_first_query_ms` hydrates exactly the chunks a
//!   top-k select-all answer touches; that answer must be non-empty.
//! - Four query shapes, the same plan shapes as the `interface` suite:
//!   `warm_ns` on the unbounded reader, whose queries load each
//!   4096-value chunk on first touch and keep it as its packed block, and
//!   keep each chunk of tuples they build; `capped_ns` on a second reader
//!   whose chunk cache is capped at 16 MiB (2 MiB at quick scale), which
//!   the mix fits; and `thrash_ns` on a third reader whose budget is half
//!   the capped reader's `bytes_resident` after its mix, so that the
//!   shapes whose chunks no longer fit time the miss path.
//! - `cache`, `capped_cache` and `thrash_cache`: each reader's
//!   `StorageStats` counters after its query mix. Every reader caches the
//!   same packed blocks, so the unbounded reader's `bytes_resident` is the
//!   capped reader's plus its tuple tables. The capped reader's
//!   `bytes_resident` is the bounded-memory row; `peak_rss_kb` is
//!   process-wide and includes the unbounded reader. Every chunk is one
//!   frame-of-reference block, so `decoded_dict` and `decoded_rle` read 0.

use std::path::Path;
use std::time::Instant;

use skyweb_bench::Scale;
use skyweb_datagen::synthetic::{self, Correlation, SyntheticConfig};
use skyweb_hidden_db::{HiddenDb, Predicate, Query, SegmentError, SegmentOpenOptions, SumRanker};

use super::{peak_rss_record, time_ns, Args, Record};

fn cases() -> [(&'static str, Query); 4] {
    [
        ("select_all_topk", Query::select_all()),
        (
            "selective_conjunction",
            Query::new(vec![Predicate::lt(0, 50), Predicate::lt(1, 80)]),
        ),
        ("broad_range_topk", Query::new(vec![Predicate::ge(0, 100)])),
        (
            "empty_answer",
            Query::new(vec![
                Predicate::lt(0, 1),
                Predicate::lt(1, 1),
                Predicate::lt(2, 1),
                Predicate::lt(3, 1),
            ]),
        ),
    ]
}

pub fn run(args: &Args) -> Result<Vec<Record>, String> {
    if let Some(path) = &args.segment {
        return measure(path, args.scale);
    }
    let n = args.scale.pick(100_000, 1_000_000);
    eprintln!("# no --segment given: building synthetic segment, n={n}, k=10");
    let path =
        std::env::temp_dir().join(format!("skyweb-report-storage-{}.seg", std::process::id()));
    synthetic::generate(&SyntheticConfig {
        n,
        m: 4,
        domain_size: 1_000,
        correlation: Correlation::Independent,
        seed: 42,
    })
    .into_db_sum(10)
    .write_segment(&path)
    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let records = measure(&path, args.scale);
    std::fs::remove_file(&path).ok();
    records
}

fn measure(path: &Path, scale: Scale) -> Result<Vec<Record>, String> {
    let failed = |e: SegmentError| format!("segment {}: {e}", path.display());
    let iters = scale.pick(200, 400);
    let t = Instant::now();
    let db = HiddenDb::open_segment(path, Box::new(SumRanker)).map_err(failed)?;
    let cold_open_ms = t.elapsed().as_secs_f64() * 1e3;
    let after_open = peak_rss_record("peak_rss_after_open_kb");
    let t = Instant::now();
    let first = db.query(&Query::select_all()).expect("first query");
    let cold_first_query_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(!first.tuples.is_empty(), "the first answer is empty");

    let (n, m) = (db.n() as u64, db.schema().len() as u64);
    let segment_bytes = std::fs::metadata(path).map_err(|e| failed(e.into()))?.len();
    let raw_bytes = n * (16 + m * 12);
    let mut out = vec![
        Record::new("workload", "n", "count", n as f64),
        Record::new("workload", "m", "count", m as f64),
        Record::new("workload", "k", "count", db.k() as f64),
        Record::new("workload", "iters", "count", iters as f64),
        Record::new("segment", "segment_bytes", "bytes", segment_bytes as f64),
        Record::new("segment", "raw_bytes", "bytes", raw_bytes as f64),
        Record::new(
            "segment",
            "compression_ratio",
            "ratio",
            raw_bytes as f64 / segment_bytes as f64,
        ),
        Record::new("segment", "cold_open_ms", "ms", cold_open_ms),
        Record::new("segment", "cold_first_query_ms", "ms", cold_first_query_ms),
    ];
    out.extend(after_open);

    let cases = cases();
    for (name, query) in &cases {
        let warm_ns = time_ns(10, iters, || db.query(query).expect("warm query").len());
        out.push(Record::new(*name, "warm_ns", "ns", warm_ns));
    }
    out.extend(cache_records("cache", &db));
    out.extend(peak_rss_record("peak_rss_after_warm_kb"));

    let cap = scale.pick(2 << 20, 16 << 20);
    let capped = HiddenDb::open_segment_with(
        path,
        Box::new(SumRanker),
        SegmentOpenOptions::new().with_cache_budget(cap),
    )
    .map_err(failed)?;
    for (name, query) in &cases {
        let capped_ns = time_ns(2, iters.min(50), || {
            capped.query(query).expect("capped").len()
        });
        out.push(Record::new(*name, "capped_ns", "ns", capped_ns));
    }
    out.push(Record::new(
        "capped_cache",
        "budget_bytes",
        "bytes",
        cap as f64,
    ));
    out.extend(cache_records("capped_cache", &capped));

    // Half the capped reader's working set: the mix no longer fits, so
    // these are the rows that time chunk misses.
    let thrash_budget = capped
        .storage_stats()
        .expect("segment backends expose stats")
        .bytes_resident
        / 2;
    let thrash = HiddenDb::open_segment_with(
        path,
        Box::new(SumRanker),
        SegmentOpenOptions::new().with_cache_budget(thrash_budget),
    )
    .map_err(failed)?;
    for (name, query) in &cases {
        let thrash_ns = time_ns(2, iters.min(50), || {
            thrash.query(query).expect("thrash").len()
        });
        out.push(Record::new(*name, "thrash_ns", "ns", thrash_ns));
    }
    out.push(Record::new(
        "thrash_cache",
        "budget_bytes",
        "bytes",
        thrash_budget as f64,
    ));
    out.extend(cache_records("thrash_cache", &thrash));
    Ok(out)
}

fn cache_records(case: &str, db: &HiddenDb) -> [Record; 7] {
    let s = db.storage_stats().expect("segment backends expose stats");
    [
        Record::new(case, "cache_hits", "count", s.cache_hits as f64),
        Record::new(case, "cache_misses", "count", s.cache_misses as f64),
        Record::new(case, "cache_evictions", "count", s.cache_evictions as f64),
        Record::new(case, "bytes_resident", "bytes", s.bytes_resident as f64),
        Record::new(case, "decoded_for", "count", s.decoded_for as f64),
        Record::new(case, "decoded_dict", "count", s.decoded_dict as f64),
        Record::new(case, "decoded_rle", "count", s.decoded_rle as f64),
    ]
}
