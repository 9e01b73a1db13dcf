//! Property-based tests of the persistent columnar segment store.
//!
//! Three families of invariants:
//!
//! * **Differential fidelity** — a database round-tripped through
//!   `SegmentWriter::write` → `HiddenDb::open_segment_source` answers an
//!   identical query workload with byte-identical responses, statistics and
//!   access-log entries, for arbitrary small random stores. Up to 400
//!   tuples over domains of up to 64 values, ranked with or without a total
//!   order, take every single-query plan: the posting walk, the rank scan
//!   and the ranker fallback.
//! * **Corruption rejection** — every truncation, every single-bit flip and
//!   any trailing garbage in a serialized segment is rejected with a typed
//!   [`SegmentError`] by `open` or by the `verify` scrub; a damaged segment
//!   is never silently mis-read (mirrors `tests/proptest_checkpoint.rs`).
//! * **File round-trip** — the same fidelity holds through an actual file
//!   (`HiddenDb::write_segment` → `HiddenDb::open_segment`).

use proptest::prelude::*;

use skyweb_hidden_db::{
    HiddenDb, InterfaceType, MemSource, Predicate, Query, Ranker, SchemaBuilder, SegmentError,
    SegmentOpenOptions, SegmentReader, SegmentWriter, SumRanker, Tuple, WorstCaseRanker,
};

#[derive(Debug, Clone)]
struct DbSpec {
    /// Ranking-attribute domains.
    domains: Vec<u32>,
    /// Domain of one trailing filtering attribute, if present.
    filter_domain: Option<u32>,
    values: Vec<Vec<u32>>,
    k: usize,
    interfaces: Vec<u8>,
    /// Ranked by a total order ([`SumRanker`]), or by [`WorstCaseRanker`],
    /// which has none and answers through the ranker fallback.
    total_order: bool,
}

fn db_spec() -> impl Strategy<Value = DbSpec> {
    (1usize..=3, 0usize..=400, 1usize..=4, 0u32..=5, 0u8..=1)
        .prop_flat_map(|(m, n, k, filter_raw, order)| {
            let domains = prop::collection::vec(2u32..=64, m);
            // Raw values above 3 mean "no filtering attribute".
            (
                domains,
                Just(n),
                Just(k),
                Just(filter_raw),
                Just(order == 0),
            )
        })
        .prop_flat_map(|(domains, n, k, filter_raw, total_order)| {
            let filter_domain = (filter_raw <= 3).then_some(filter_raw + 2);
            let mut value_strategy: Vec<_> = domains.iter().map(|&d| 0u32..d).collect();
            if let Some(fd) = filter_domain {
                value_strategy.push(0u32..fd);
            }
            let values = prop::collection::vec(value_strategy, n);
            let interfaces = prop::collection::vec(0u8..=2, domains.len());
            (
                Just(domains),
                Just(filter_domain),
                values,
                Just(k),
                interfaces,
                Just(total_order),
            )
        })
        .prop_map(
            |(domains, filter_domain, values, k, interfaces, total_order)| DbSpec {
                domains,
                filter_domain,
                values,
                k,
                interfaces,
                total_order,
            },
        )
}

fn ranker_of(spec: &DbSpec) -> Box<dyn Ranker> {
    if spec.total_order {
        Box::new(SumRanker)
    } else {
        Box::new(WorstCaseRanker)
    }
}

fn build_db(spec: &DbSpec) -> HiddenDb {
    let mut builder = SchemaBuilder::new();
    for (i, &d) in spec.domains.iter().enumerate() {
        let itf = match spec.interfaces[i] {
            0 => InterfaceType::Sq,
            1 => InterfaceType::Rq,
            _ => InterfaceType::Pq,
        };
        builder = builder.ranking(format!("a{i}"), d, itf);
    }
    if let Some(fd) = spec.filter_domain {
        builder = builder.filtering("f", fd);
    }
    let tuples: Vec<Tuple> = spec
        .values
        .iter()
        .enumerate()
        .map(|(i, v)| Tuple::new(i as u64, v.clone()))
        .collect();
    HiddenDb::new(builder.build(), tuples, ranker_of(spec), spec.k)
}

/// A deterministic workload that exercises every attribute and every plan
/// shape the engine has: select-all, selective and broad single-attribute
/// predicates, conjunctions, and unsatisfiable queries.
fn workload(db: &HiddenDb) -> Vec<Query> {
    let schema = db.schema();
    let mut queries = vec![Query::select_all()];
    for attr in 0..schema.len() {
        let d = schema.attr(attr).domain_size;
        queries.push(Query::new(vec![Predicate::eq(attr, 0)]));
        queries.push(Query::new(vec![Predicate::eq(attr, d - 1)]));
        queries.push(Query::new(vec![Predicate::lt(attr, 1 + d / 2)]));
        queries.push(Query::new(vec![Predicate::ge(attr, d / 2)]));
        if attr + 1 < schema.len() {
            let d2 = schema.attr(attr + 1).domain_size;
            queries.push(Query::new(vec![
                Predicate::le(attr, d / 2),
                Predicate::ge(attr + 1, d2 / 2),
            ]));
            // Empty range: still admitted, answered with zero tuples.
            queries.push(Query::new(vec![
                Predicate::lt(attr, 1),
                Predicate::gt(attr, d.saturating_sub(2)),
            ]));
        }
    }
    queries
}

/// Issues the same workload against both databases and asserts responses,
/// statistics and access logs are identical.
fn assert_same_behavior(ram: &HiddenDb, seg: &HiddenDb) {
    ram.enable_access_log();
    seg.enable_access_log();
    for q in workload(ram) {
        match (ram.query(&q), seg.query(&q)) {
            (Ok(a), Ok(b)) => {
                let ids = |r: &skyweb_hidden_db::QueryResponse| -> Vec<(u64, Vec<u32>)> {
                    r.tuples.iter().map(|t| (t.id, t.values.clone())).collect()
                };
                assert_eq!(ids(&a), ids(&b), "answers diverged on {q}");
                assert_eq!(a.overflowed, b.overflowed, "overflow flags diverged on {q}");
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "errors diverged on {q}"),
            (a, b) => panic!("outcome kinds diverged on {q}: ram={a:?} segment={b:?}"),
        }
    }
    assert_eq!(ram.stats(), seg.stats(), "statistics diverged");
    let entries = |db: &HiddenDb| -> Vec<(u64, String, usize, bool)> {
        db.access_log()
            .entries()
            .iter()
            .map(|e| (e.seq, e.query.clone(), e.returned, e.overflowed))
            .collect()
    };
    assert_eq!(entries(ram), entries(seg), "access logs diverged");
    // Server-side selectivity is answered from the persisted prefix counts.
    for attr in 0..ram.schema().len() {
        let d = ram.schema().attr(attr).domain_size;
        assert_eq!(
            ram.selectivity(attr, 0, d - 1),
            seg.selectivity(attr, 0, d - 1),
            "selectivity diverged on attribute {attr}"
        );
    }
}

fn open_mem(bytes: Vec<u8>) -> Result<HiddenDb, SegmentError> {
    HiddenDb::open_segment_source(Box::new(MemSource::new(bytes)), Box::new(SumRanker))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        max_shrink_iters: 200,
        .. ProptestConfig::default()
    })]

    /// write → open → query is byte-identical to the in-RAM build, and the
    /// full-file scrub passes on everything the writer produces.
    #[test]
    fn segment_round_trip_is_byte_identical(spec in db_spec(), chunk_exp in 0u32..=3) {
        let ram = build_db(&spec);
        // Small chunk sizes (64..512) force multi-chunk layouts even for
        // tiny stores.
        let chunk = 64usize << chunk_exp;
        let bytes = SegmentWriter::new()
            .with_chunk_size(chunk)
            .write(&ram)
            .expect("RAM-backed databases always serialize");
        SegmentReader::open(Box::new(MemSource::new(bytes.clone())))
            .expect("fresh segment opens")
            .verify()
            .expect("fresh segment scrubs clean");
        let seg = HiddenDb::open_segment_source(Box::new(MemSource::new(bytes)), ranker_of(&spec))
            .expect("fresh segment opens as a database");
        prop_assert_eq!(ram.n(), seg.n());
        prop_assert_eq!(ram.k(), seg.k());
        assert_same_behavior(&ram, &seg);
    }


    /// Cache budgets, including the degenerate zero budget that decodes
    /// every chunk on every touch, are performance policies, never
    /// semantics: every budget answers the workload byte-identically to the
    /// in-RAM build.
    #[test]
    fn segment_open_options_are_byte_identical(spec in db_spec(), budget in 0u64..=8192) {
        let bytes = SegmentWriter::new()
            .with_chunk_size(64)
            .write(&build_db(&spec))
            .expect("RAM-backed databases always serialize");
        let ram = build_db(&spec);
        let seg = HiddenDb::open_segment_source_with(
            Box::new(MemSource::new(bytes)),
            ranker_of(&spec),
            SegmentOpenOptions::new().with_cache_budget(budget),
        )
        .expect("a fresh segment opens under any cache policy");
        assert_same_behavior(&ram, &seg);
    }
}

/// A small but structurally complete segment (multiple chunks, all three
/// interface types, a filtering attribute) for the corruption battery.
fn sample_segment_bytes() -> Vec<u8> {
    let schema = SchemaBuilder::new()
        .ranking("price", 12, InterfaceType::Rq)
        .ranking("duration", 9, InterfaceType::Sq)
        .ranking("stops", 4, InterfaceType::Pq)
        .filtering("carrier", 3)
        .build();
    let tuples: Vec<Tuple> = (0..150)
        .map(|i| {
            Tuple::new(
                i,
                vec![
                    (i * 7 % 12) as u32,
                    (i * 5 % 9) as u32,
                    (i % 4) as u32,
                    (i % 3) as u32,
                ],
            )
        })
        .collect();
    let db = HiddenDb::with_sum_ranking(schema, tuples, 5);
    SegmentWriter::new().with_chunk_size(64).write(&db).unwrap()
}

/// `open` + `verify`: the full acceptance gate a segment must pass. `open`
/// alone reads only the trailer, footer and eager metadata (that is the
/// point of lazy hydration), so payload corruption in a cold column chunk is
/// caught by the O(file) scrub.
fn open_and_scrub(bytes: &[u8]) -> Result<(), SegmentError> {
    SegmentReader::open(Box::new(MemSource::new(bytes.to_vec())))?.verify()
}

#[test]
fn every_truncation_is_rejected() {
    let bytes = sample_segment_bytes();
    assert!(open_and_scrub(&bytes).is_ok());
    for len in 0..bytes.len() {
        assert!(
            open_and_scrub(&bytes[..len]).is_err(),
            "truncation to {len} of {} bytes must be rejected",
            bytes.len()
        );
    }
}

#[test]
fn every_single_bit_flip_is_rejected() {
    let bytes = sample_segment_bytes();
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 1 << bit;
            assert!(
                open_and_scrub(&corrupt).is_err(),
                "flipping bit {bit} of byte {i} must be rejected"
            );
        }
    }
}

#[test]
fn a_version_1_segment_is_rejected() {
    // Re-tag every section header and the footer as an older version.
    // Headers sit outside the payload checksums, so only the version check
    // stands between the reader and the bytes.
    for version in [1u16, 2] {
        let mut bytes = sample_segment_bytes();
        let trailer = bytes.len() - 32;
        let footer_off = u64::from_le_bytes(bytes[trailer + 8..trailer + 16].try_into().unwrap());
        let mut off = 0usize;
        while off <= footer_off as usize {
            bytes[off + 4..off + 6].copy_from_slice(&version.to_le_bytes());
            let len = u64::from_le_bytes(bytes[off + 7..off + 15].try_into().unwrap());
            off += 15 + len as usize + 8;
        }
        assert_eq!(off, trailer, "the walk covers every section and the footer");
        assert_eq!(
            SegmentReader::open(Box::new(MemSource::new(bytes))).unwrap_err(),
            SegmentError::UnsupportedVersion { found: version }
        );
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = sample_segment_bytes();
    bytes.push(0);
    // Appending a byte shifts the fixed-position trailer window, so the
    // exact variant depends on the garbage; any typed rejection is correct.
    assert!(SegmentReader::open(Box::new(MemSource::new(bytes))).is_err());
}

#[test]
fn corrupt_chunk_surfaces_as_query_storage_error() {
    // Flip a bit deep inside a column payload: the segment still *opens*
    // (lazy metadata is intact) but the first query touching the damaged
    // chunk must fail with a typed storage error, never a panic or a wrong
    // answer.
    let bytes = sample_segment_bytes();
    let mut corrupt = bytes.clone();
    // A byte inside the first section's payload (past the 15-byte envelope
    // header), which is a store-ordered column chunk.
    corrupt[40] ^= 0x10;
    let db = match open_mem(corrupt) {
        // The flip landed somewhere the open-time validation already sees.
        Err(_) => return,
        Ok(db) => db,
    };
    let mut saw_storage_error = false;
    for q in workload(&db) {
        match db.query(&q) {
            Ok(_) => {}
            Err(skyweb_hidden_db::QueryError::Storage { .. }) => saw_storage_error = true,
            // Interface-validation rejections are independent of storage.
            Err(_) => {}
        }
    }
    assert!(
        saw_storage_error,
        "a corrupted column chunk must surface as QueryError::Storage"
    );
}

/// A database whose columns have three shapes: `price` has 3 distinct
/// values scattered over a wide domain, so its chunks pack at a wide bit
/// width; `grade` changes every 128 tuples under a 256-value chunk, so
/// its store chunks hold long runs; and `ramp` is a dense cycle.
fn mixed_shape_db() -> HiddenDb {
    let schema = SchemaBuilder::new()
        .ranking("price", 1000, InterfaceType::Rq)
        .ranking("grade", 8, InterfaceType::Sq)
        .ranking("ramp", 251, InterfaceType::Rq)
        .filtering("carrier", 3)
        .build();
    let tuples: Vec<Tuple> = (0..384)
        .map(|i| {
            Tuple::new(
                i,
                vec![
                    [0u32, 500, 900][(i % 3) as usize],
                    (i / 128) as u32,
                    (i % 251) as u32,
                    (i % 3) as u32,
                ],
            )
        })
        .collect();
    HiddenDb::with_sum_ranking(schema, tuples, 5)
}

fn sample_mixed_shape_segment() -> Vec<u8> {
    SegmentWriter::new()
        .with_chunk_size(256)
        .write(&mixed_shape_db())
        .unwrap()
}

#[test]
fn mixed_shape_sample_scrubs_clean_and_round_trips() {
    let bytes = sample_mixed_shape_segment();
    let reader = SegmentReader::open(Box::new(MemSource::new(bytes.clone()))).unwrap();
    reader.verify().expect("mixed-shape sample scrubs clean");
    let ram = mixed_shape_db();
    let seg = open_mem(bytes).expect("mixed-shape sample opens as a database");
    assert_same_behavior(&ram, &seg);
}

#[test]
fn every_truncation_of_a_mixed_shape_segment_is_rejected() {
    let bytes = sample_mixed_shape_segment();
    assert!(open_and_scrub(&bytes).is_ok());
    for len in 0..bytes.len() {
        assert!(
            open_and_scrub(&bytes[..len]).is_err(),
            "truncation to {len} of {} bytes must be rejected",
            bytes.len()
        );
    }
}

#[test]
fn every_single_bit_flip_in_a_mixed_shape_segment_is_rejected() {
    let bytes = sample_mixed_shape_segment();
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 1 << bit;
            assert!(
                open_and_scrub(&corrupt).is_err(),
                "flipping bit {bit} of byte {i} must be rejected"
            );
        }
    }
}

#[test]
fn concurrent_readers_under_a_tiny_cache_stay_byte_identical() {
    // Four readers hammer the same workload against one segment whose cache
    // budget holds roughly one packed chunk per shard (a 256-value chunk is
    // charged 8 · words + 32 = 296–360 bytes, a shard gets 384), so chunks
    // are continuously evicted and re-validated underneath the running
    // queries.
    type QueryOutcome = Result<(Vec<(u64, Vec<u32>)>, bool), String>;
    let ram = mixed_shape_db();
    let expected: Vec<QueryOutcome> = workload(&ram)
        .iter()
        .map(|q| match ram.query(q) {
            Ok(r) => Ok((
                r.tuples.iter().map(|t| (t.id, t.values.clone())).collect(),
                r.overflowed,
            )),
            Err(e) => Err(format!("{e:?}")),
        })
        .collect();

    let budget = 3 * 1024;
    let seg = HiddenDb::open_segment_source_with(
        Box::new(MemSource::new(sample_mixed_shape_segment())),
        Box::new(SumRanker),
        SegmentOpenOptions::new().with_cache_budget(budget),
    )
    .expect("mixed-shape sample opens under a tiny cache budget");

    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..3 {
                    for (q, want) in workload(&seg).iter().zip(&expected) {
                        let got = match seg.query(q) {
                            Ok(r) => Ok((
                                r.tuples.iter().map(|t| (t.id, t.values.clone())).collect(),
                                r.overflowed,
                            )),
                            Err(e) => Err(format!("{e:?}")),
                        };
                        assert_eq!(&got, want, "answers diverged under eviction on {q}");
                    }
                }
            });
        }
    });

    let stats = seg.storage_stats().expect("segment backends expose stats");
    assert!(
        stats.cache_evictions > 0,
        "a {budget}-byte budget must evict under this workload ({stats:?})"
    );
    assert!(
        stats.bytes_resident <= budget,
        "resident bytes must respect the budget ({stats:?})"
    );
}

#[test]
fn file_round_trip_matches_ram() {
    let schema = SchemaBuilder::new()
        .ranking("a", 10, InterfaceType::Rq)
        .ranking("b", 10, InterfaceType::Sq)
        .build();
    let tuples: Vec<Tuple> = (0..200)
        .map(|i| Tuple::new(i, vec![(i * 3 % 10) as u32, (i * 7 % 10) as u32]))
        .collect();
    let ram = HiddenDb::with_sum_ranking(schema, tuples, 4);

    let path = std::env::temp_dir().join(format!(
        "skyweb-segment-roundtrip-{}.seg",
        std::process::id()
    ));
    let written = ram.write_segment(&path).expect("segment file written");
    assert_eq!(written, std::fs::metadata(&path).unwrap().len());

    let seg = HiddenDb::open_segment(&path, Box::new(SumRanker)).expect("segment file opens");
    assert_same_behavior(&ram, &seg);
    drop(seg);
    std::fs::remove_file(&path).ok();
}
