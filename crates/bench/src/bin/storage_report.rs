//! Storage-layer perf report: measures the persistent columnar segment
//! store — cold open, first (lazily hydrating) query, warm per-query
//! latency, bytes on disk vs raw columnar bytes and process peak RSS — and
//! writes a machine-readable snapshot to `BENCH_storage.json` (the fifth
//! tracked perf artifact).
//!
//! ```text
//! cargo run -p skyweb-bench --release --bin storage_report [-- --quick]
//!     [-- --segment PATH] [-- --out PATH] [-- --cache-budget BYTES]
//! ```
//!
//! With `--segment PATH` the report opens a prebuilt segment (use the
//! `segment_build` bin) — the honest configuration for the RSS row, since
//! building the database in-process would inflate the peak with the
//! writer's transient copy. Without it, the report builds the default
//! synthetic segment itself in a temp directory first (and says so in the
//! JSON notes).
//!
//! `--quick` shrinks the self-built dataset and iteration counts (CI
//! smoke); the JSON schema is unchanged. `--cache-budget BYTES` caps the
//! decoded-chunk cache of the measured database (the report always also
//! measures a deliberately tiny capped configuration for the steady-state
//! row).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use skyweb_bench::report::peak_rss_kb;
use skyweb_datagen::synthetic::{self, Correlation, SyntheticConfig};
use skyweb_hidden_db::{
    FileSource, HiddenDb, Predicate, Query, SegmentOpenOptions, SegmentReader, SumRanker,
};

struct Case {
    name: &'static str,
    query: Query,
}

/// A case mix over the synthetic schema (4 ranking attributes, domain
/// 1,000, all two-ended ranges): the same plan shapes as the interface
/// report — top-k select-all, a selective conjunction, a broad range and
/// an empty answer.
fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "select_all_topk",
            query: Query::select_all(),
        },
        Case {
            name: "selective_conjunction",
            query: Query::new(vec![Predicate::lt(0, 50), Predicate::lt(1, 80)]),
        },
        Case {
            name: "broad_range_topk",
            query: Query::new(vec![Predicate::ge(0, 100)]),
        },
        Case {
            name: "empty_answer",
            query: Query::new(vec![
                Predicate::lt(0, 1),
                Predicate::lt(1, 1),
                Predicate::lt(2, 1),
                Predicate::lt(3, 1),
            ]),
        },
    ]
}

/// Mean ns/query over `iters` runs after `warmup` runs.
fn time_ns(db: &HiddenDb, query: &Query, warmup: u64, iters: u64) -> f64 {
    for _ in 0..warmup {
        std::hint::black_box(db.query(query).unwrap().len());
    }
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(db.query(query).unwrap().len());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_storage.json", String::as_str);
    let prebuilt: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--segment")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);
    let cache_budget: Option<u64> = args
        .iter()
        .position(|a| a == "--cache-budget")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());

    let iters: u64 = if quick { 200 } else { 400 };
    let self_built = prebuilt.is_none();
    let path = match prebuilt {
        Some(p) => p,
        None => {
            let n = if quick { 100_000 } else { 1_000_000 };
            let k = 10;
            eprintln!("# no --segment given: building synthetic segment, n={n}, k={k}");
            let db = synthetic::generate(&SyntheticConfig {
                n,
                m: 4,
                domain_size: 1_000,
                correlation: Correlation::Independent,
                seed: 42,
            })
            .into_db_sum(k);
            let path = std::env::temp_dir()
                .join(format!("skyweb-storage-report-{}.seg", std::process::id()));
            if let Err(e) = db.write_segment(&path) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            path
        }
    };

    // Cold open: trailer + footer + eager metadata (prefix counts, zone
    // maps) only — no tuple, column or permutation chunk is read, so this
    // is O(metadata), independent of n.
    let mut options = SegmentOpenOptions::new();
    if let Some(budget) = cache_budget {
        options = options.with_cache_budget(budget);
    }
    let t = Instant::now();
    let db = match HiddenDb::open_segment_with(&path, Box::new(SumRanker), options) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("cannot open segment {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let cold_open_ms = t.elapsed().as_secs_f64() * 1e3;

    // First query: pays the lazy hydration of exactly the chunks the top-k
    // answer touches.
    let first_query = Query::select_all();
    let t = Instant::now();
    let first = db.query(&first_query).expect("first query");
    let cold_first_query_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(!first.tuples.is_empty());

    let n = db.n();
    let m = db.schema().len();
    let k = db.k();
    let segment_bytes = std::fs::metadata(&path).map(|md| md.len()).unwrap_or(0);
    // Raw columnar footprint of everything the segment encodes: per tuple,
    // the 8-byte id, the rank permutation and its inverse (4+4), and per
    // attribute a store-ordered column, a rank-ordered column and a
    // posting-order entry (4+4+4) — all as uncompressed words.
    let raw_bytes = (n as u64) * (16 + m as u64 * 12);
    let ratio = raw_bytes as f64 / segment_bytes as f64;

    println!("segment: {} (n={n}, m={m}, k={k})", path.display());
    println!(
        "bytes on disk: {segment_bytes} ({:.1}% of raw {raw_bytes}, {ratio:.2}x compression)",
        100.0 * segment_bytes as f64 / raw_bytes as f64
    );
    println!("cold open: {cold_open_ms:.3} ms");
    println!("cold first query (top-{k} select-all): {cold_first_query_ms:.3} ms");
    println!();
    println!("{:<24} {:>14}", "query", "warm ns/q");

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"storage\",");
    let _ = writeln!(json, "  \"dataset\": \"synthetic\",");
    let _ = writeln!(json, "  \"n\": {n},");
    let _ = writeln!(json, "  \"m\": {m},");
    let _ = writeln!(json, "  \"k\": {k},");
    let _ = writeln!(json, "  \"iters\": {iters},");
    let _ = writeln!(json, "  \"segment_bytes\": {segment_bytes},");
    let _ = writeln!(json, "  \"raw_bytes\": {raw_bytes},");
    let _ = writeln!(json, "  \"compression_ratio\": {ratio:.3},");
    let _ = writeln!(json, "  \"cold_open_ms\": {cold_open_ms:.4},");
    let _ = writeln!(json, "  \"cold_first_query_ms\": {cold_first_query_ms:.4},");
    let _ = writeln!(json, "  \"warm\": [");

    let all = cases();
    for (i, case) in all.iter().enumerate() {
        let ns = time_ns(&db, &case.query, 10, iters);
        println!("{:<24} {:>14.0}", case.name, ns);
        let _ = writeln!(
            json,
            "    {{\"query\": \"{}\", \"ns\": {ns:.0}}}{}",
            case.name,
            if i + 1 == all.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ],");

    // Cache / hydration counters of the measured database (the reusable
    // `StorageStats` snapshot every segment-backed `HiddenDb` exposes).
    if let Some(stats) = db.storage_stats() {
        println!();
        println!(
            "cache: {} hits / {} misses / {} evictions, {} bytes resident (budget: {})",
            stats.cache_hits,
            stats.cache_misses,
            stats.cache_evictions,
            stats.bytes_resident,
            stats
                .cache_budget
                .map_or("unbounded".into(), |b| b.to_string()),
        );
        println!(
            "chunks decoded: {} FOR, {} dict, {} RLE",
            stats.decoded_for, stats.decoded_dict, stats.decoded_rle
        );
        let _ = writeln!(
            json,
            "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \
             \"bytes_resident\": {}, \"budget_bytes\": {}}},",
            stats.cache_hits,
            stats.cache_misses,
            stats.cache_evictions,
            stats.bytes_resident,
            stats.cache_budget.map_or("null".into(), |b| b.to_string()),
        );
    }

    // Per-codec census of the file on disk: how many chunk sections each
    // codec won and what it saved against raw 4-byte words.
    match SegmentReader::open(Box::new(match FileSource::open(&path) {
        Ok(src) => src,
        Err(e) => {
            eprintln!("cannot reopen segment {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }))
    .and_then(|reader| reader.codec_census())
    {
        Ok(census) => {
            println!();
            println!(
                "{:<8} {:>8} {:>14} {:>14} {:>8}",
                "codec", "chunks", "encoded B", "raw B", "ratio"
            );
            let _ = writeln!(json, "  \"codecs\": [");
            let names = ["for", "dict", "rle"];
            for (i, name) in names.iter().enumerate() {
                let ratio = if census.encoded_bytes[i] == 0 {
                    0.0
                } else {
                    census.raw_bytes[i] as f64 / census.encoded_bytes[i] as f64
                };
                println!(
                    "{:<8} {:>8} {:>14} {:>14} {:>8.2}",
                    name, census.chunks[i], census.encoded_bytes[i], census.raw_bytes[i], ratio
                );
                let _ = writeln!(
                    json,
                    "    {{\"codec\": \"{name}\", \"chunks\": {}, \"encoded_bytes\": {}, \
                     \"raw_bytes\": {}, \"ratio\": {ratio:.3}}}{}",
                    census.chunks[i],
                    census.encoded_bytes[i],
                    census.raw_bytes[i],
                    if i + 1 == names.len() { "" } else { "," }
                );
            }
            let _ = writeln!(json, "  ],");
        }
        Err(e) => {
            eprintln!("cannot take codec census of {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    // Steady state under a deliberately tiny cache budget: rerun the case
    // mix on a capped reader and report its resident footprint — the
    // honest "bounded memory" row (peak_rss_kb is process-wide and already
    // inflated by the uncapped runs above).
    let cap: u64 = if quick { 2 << 20 } else { 16 << 20 };
    let capped = match HiddenDb::open_segment_with(
        &path,
        Box::new(SumRanker),
        SegmentOpenOptions::new().with_cache_budget(cap),
    ) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("cannot reopen segment {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    for case in &all {
        std::hint::black_box(time_ns(&capped, &case.query, 2, iters.min(50)));
    }
    let capped_stats = capped
        .storage_stats()
        .expect("segment backends expose stats");
    println!();
    println!(
        "capped cache ({cap} B budget): {} bytes resident, {} hits / {} misses / {} evictions",
        capped_stats.bytes_resident,
        capped_stats.cache_hits,
        capped_stats.cache_misses,
        capped_stats.cache_evictions
    );
    let _ = writeln!(
        json,
        "  \"capped_cache\": {{\"budget_bytes\": {cap}, \"bytes_resident\": {}, \
         \"cache_hits\": {}, \"cache_misses\": {}, \"cache_evictions\": {}}},",
        capped_stats.bytes_resident,
        capped_stats.cache_hits,
        capped_stats.cache_misses,
        capped_stats.cache_evictions
    );

    let rss = peak_rss_kb().unwrap_or(0);
    println!();
    println!(
        "peak RSS: {rss} kB (segment on disk: {} kB)",
        segment_bytes / 1024
    );
    let _ = writeln!(json, "  \"peak_rss_kb\": {rss},");
    let _ = writeln!(
        json,
        "  \"notes\": \"cold_open reads trailer + footer + prefix counts + zone maps only; \
         warm queries hydrate per-4096-tuple chunks on first touch{}\"",
        if self_built {
            "; peak_rss_kb includes the in-process segment build — pass --segment for the \
             lazy-hydration RSS"
        } else {
            ""
        }
    );
    let _ = writeln!(json, "}}");

    if self_built {
        std::fs::remove_file(&path).ok();
    }
    match std::fs::write(out_path, &json) {
        Ok(()) => eprintln!("# wrote {out_path}"),
        Err(e) => {
            eprintln!("# failed to write {out_path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
