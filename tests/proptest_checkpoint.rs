//! Property-based tests of the versioned checkpoint codec: a discovery run
//! that is paused at **every** plan boundary, serialized to bytes with
//! [`Checkpoint::to_bytes`], restored in a fresh `Checkpoint` with
//! [`Checkpoint::from_bytes`], and resumed through a fresh driver produces
//! a result byte-identical to the uninterrupted run — for all eight
//! algorithm machines, any batch limit and any budget.
//!
//! Three further invariants ride along:
//!
//! * **Re-encode stability** — serializing a just-restored checkpoint
//!   reproduces the original byte string exactly (hash sets are written in
//!   sorted order; the knowledge base replays ingestion in retrieval
//!   order), so checkpoints can be persisted, restored and re-persisted
//!   without drift.
//! * **Corruption rejection** — every truncation and every single-bit flip
//!   of a serialized checkpoint is rejected with a `CodecError`; a corrupt
//!   checkpoint is never mis-resumed.
//! * **Sealed forgeries** — a re-sealed checkpoint (valid checksum) whose
//!   knowledge base no encoder writes is rejected with
//!   `CodecError::Invalid`, not a panic.

mod support;

use proptest::prelude::*;

use skyweb::core::{
    BaselineCrawl, Checkpoint, CodecError, Discoverer, DiscoveryDriver, DiscoveryMachine,
    DiscoveryResult, DriverConfig, MqDbSky, PointSpaceCrawl, Pq2dSky, PqDbSky, RqDbSky, RqSkyband,
    SqDbSky, StepOutcome, CHECKSUM_LEN, HEADER_LEN,
};
use skyweb::hidden_db::envelope::Envelope;
use skyweb::hidden_db::{HiddenDb, InterfaceType, SchemaBuilder, Tuple};

use support::{assert_identical, build_db, db_spec, DbSpec};

/// Runs `machine` against `db`, pausing at **every** plan boundary, pushing
/// the checkpoint through its binary serialization (with a re-encode
/// stability check), and resuming the *restored* checkpoint through a
/// fresh driver.
fn run_through_bytes(
    db: &HiddenDb,
    machine: Box<dyn DiscoveryMachine>,
    config: DriverConfig,
) -> DiscoveryResult {
    let mut driver = DiscoveryDriver::new(db, machine, config);
    while let StepOutcome::Progressed { .. } = driver
        .step()
        .expect("no real query errors in these schemas")
    {
        let checkpoint = driver.pause();
        let bytes = checkpoint
            .to_bytes()
            .expect("all built-in machines are serializable");
        let restored: Checkpoint<Box<dyn DiscoveryMachine>> =
            Checkpoint::from_bytes(&bytes).expect("round-trip of a sealed checkpoint");
        assert_eq!(
            restored
                .to_bytes()
                .expect("restored machines stay serializable"),
            bytes,
            "re-encoding a restored checkpoint must reproduce the bytes"
        );
        assert_eq!(restored.queries_issued(), db.queries_issued());
        driver = DiscoveryDriver::new(db, restored.into_machine(), config);
    }
    driver.finish().expect("result extraction is infallible")
}

/// The uninterrupted reference run and the serialize-at-every-boundary run
/// for one algorithm, both under the spec's budget, on separate but
/// identical databases.
fn check_alg(alg: &dyn Discoverer, spec: &DbSpec, interface: Option<InterfaceType>) {
    let db_ref = build_db(spec, interface);
    let Ok(machine) = alg.machine(&db_ref) else {
        return; // interface mismatch (e.g. random mixed schema)
    };
    let reference = DiscoveryDriver::new(
        &db_ref,
        machine,
        DriverConfig::new().with_budget(spec.budget),
    )
    .run()
    .expect("no real query errors in these schemas");

    let db_restored = build_db(spec, interface);
    let machine = alg
        .machine(&db_restored)
        .expect("reference run proved the interface is supported");
    let config = DriverConfig::new()
        .with_budget(spec.budget)
        .with_max_batch(spec.max_batch);
    let restored = run_through_bytes(&db_restored, machine, config);
    assert_identical(&reference, &restored);
    assert_eq!(restored.query_cost, db_restored.queries_issued());
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 120,
        .. ProptestConfig::default()
    })]

    /// SQ-DB-SKY survives serialization at every plan boundary.
    #[test]
    fn sq_checkpoint_bytes_round_trip(spec in db_spec(2..=4)) {
        check_alg(&SqDbSky::new(), &spec, Some(InterfaceType::Sq));
    }

    /// RQ-DB-SKY survives serialization at every plan boundary.
    #[test]
    fn rq_checkpoint_bytes_round_trip(spec in db_spec(2..=4)) {
        check_alg(&RqDbSky::new(), &spec, Some(InterfaceType::Rq));
    }

    /// PQ-DB-SKY (plane enumeration + mid-traversal sweep state).
    #[test]
    fn pq_checkpoint_bytes_round_trip(spec in db_spec(2..=4)) {
        check_alg(&PqDbSky::new(), &spec, Some(InterfaceType::Pq));
    }

    /// PQ-2D-SKY (the raw plane-sweep machine).
    #[test]
    fn pq2d_checkpoint_bytes_round_trip(spec in db_spec(2..=2)) {
        check_alg(&Pq2dSky::new(), &spec, Some(InterfaceType::Pq));
    }

    /// MQ-DB-SKY on arbitrary interface mixtures (nested sub-machine
    /// frames serialize recursively).
    #[test]
    fn mq_checkpoint_bytes_round_trip(spec in db_spec(2..=4)) {
        check_alg(&MqDbSky::new(), &spec, None);
    }

    /// The crawling BASELINE.
    #[test]
    fn baseline_checkpoint_bytes_round_trip(spec in db_spec(2..=3)) {
        check_alg(&BaselineCrawl::new(), &spec, Some(InterfaceType::Rq));
    }

    /// The exhaustive point-space crawl.
    #[test]
    fn point_crawl_checkpoint_bytes_round_trip(spec in db_spec(2..=3)) {
        check_alg(&PointSpaceCrawl::new(), &spec, Some(InterfaceType::Pq));
    }

    /// Top-h sky-band discovery (schema and used-roots set serialize).
    #[test]
    fn skyband_checkpoint_bytes_round_trip(spec in db_spec(2..=3), h in 1usize..=3) {
        let alg = RqSkyband::new(h);
        let db_ref = build_db(&spec, Some(InterfaceType::Rq));
        let reference = {
            let machine: Box<dyn DiscoveryMachine> =
                Box::new(alg.build_machine(&db_ref).unwrap());
            let config = DriverConfig::new().with_budget(spec.budget);
            DiscoveryDriver::new(&db_ref, machine, config).run().unwrap()
        };

        let db_restored = build_db(&spec, Some(InterfaceType::Rq));
        let machine: Box<dyn DiscoveryMachine> =
            Box::new(alg.build_machine(&db_restored).unwrap());
        let config = DriverConfig::new()
            .with_budget(spec.budget)
            .with_max_batch(spec.max_batch);
        let restored = run_through_bytes(&db_restored, machine, config);
        assert_identical(&reference, &restored);
    }
}

/// A small mid-run checkpoint for the corruption tests below.
fn sample_checkpoint_bytes() -> Vec<u8> {
    let schema = SchemaBuilder::new()
        .ranking("a", 5, InterfaceType::Rq)
        .ranking("b", 5, InterfaceType::Rq)
        .build();
    let tuples = vec![
        Tuple::new(0, vec![4, 1]),
        Tuple::new(1, vec![3, 3]),
        Tuple::new(2, vec![1, 4]),
    ];
    let db = HiddenDb::with_sum_ranking(schema, tuples, 1);
    let machine = RqDbSky::new().machine(&db).unwrap();
    let mut driver = DiscoveryDriver::new(&db, machine, DriverConfig::new().with_max_batch(1));
    driver.step().unwrap();
    driver.step().unwrap();
    driver.pause().to_bytes().unwrap()
}

#[test]
fn every_truncation_is_rejected() {
    let bytes = sample_checkpoint_bytes();
    assert!(Checkpoint::from_bytes(&bytes).is_ok());
    for len in 0..bytes.len() {
        assert!(
            Checkpoint::from_bytes(&bytes[..len]).is_err(),
            "truncation to {len} of {} bytes must be rejected",
            bytes.len()
        );
    }
}

#[test]
fn every_single_bit_flip_is_rejected() {
    let bytes = sample_checkpoint_bytes();
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 1 << bit;
            assert!(
                Checkpoint::from_bytes(&corrupt).is_err(),
                "flipping bit {bit} of byte {i} must be rejected"
            );
        }
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = sample_checkpoint_bytes();
    bytes.push(0);
    assert!(Checkpoint::from_bytes(&bytes).is_err());
}

/// A knowledge base in the checkpoint payload layout: the dominance
/// attributes, the band, the retrieval-ordered tuples and an empty trace.
fn kb_payload(attrs: &[u64], band: u64, tuples: &[(u64, Vec<u32>)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(attrs.len() as u64).to_le_bytes());
    for a in attrs {
        out.extend_from_slice(&a.to_le_bytes());
    }
    out.extend_from_slice(&band.to_le_bytes());
    out.extend_from_slice(&(tuples.len() as u64).to_le_bytes());
    for (id, values) in tuples {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&(values.len() as u64).to_le_bytes());
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out.extend_from_slice(&0u64.to_le_bytes()); // empty trace
    out
}

/// The checkpoint of a fresh RQ-DB-SKY run on two attributes with its
/// knowledge base replaced by `kb`, re-sealed under a valid checksum — what
/// any peer can forge, since the checksum authenticates nothing.
fn forged_rq_checkpoint(kb: &[u8]) -> Vec<u8> {
    let schema = SchemaBuilder::new()
        .ranking("a", 5, InterfaceType::Rq)
        .ranking("b", 5, InterfaceType::Rq)
        .build();
    let db = HiddenDb::with_sum_ranking(schema, vec![Tuple::new(0, vec![1, 2])], 1);
    let machine = RqDbSky::new().machine(&db).unwrap();
    let bytes = DiscoveryDriver::new(&db, machine, DriverConfig::new())
        .pause()
        .to_bytes()
        .unwrap();
    let payload = &bytes[HEADER_LEN..bytes.len() - CHECKSUM_LEN];
    // Machine tag, issued counter, halted flag and an absent
    // first-skyline-at take 11 bytes; the empty knowledge base follows.
    let (chassis, rest) = payload.split_at(11);
    let empty = kb_payload(&[0, 1], 1, &[]);
    assert_eq!(
        &rest[..empty.len()],
        &empty[..],
        "fresh runs hold no tuples"
    );
    let mut forged = chassis.to_vec();
    forged.extend_from_slice(kb);
    forged.extend_from_slice(&rest[empty.len()..]);
    let envelope = Envelope {
        magic: bytes[..4].try_into().unwrap(),
        version: u16::from_le_bytes([bytes[4], bytes[5]]),
    };
    let mut sealed = Vec::new();
    envelope.seal(bytes[6], &forged, &mut sealed);
    sealed
}

#[test]
fn sealed_invalid_knowledge_bases_are_rejected() {
    let valid = kb_payload(&[0, 1], 1, &[(0, vec![1, 2])]);
    assert!(Checkpoint::from_bytes(&forged_rq_checkpoint(&valid)).is_ok());
    let forgeries = [
        ("band 0", kb_payload(&[0, 1], 0, &[(0, vec![1, 2])])),
        (
            "attribute past the tuples' arity",
            kb_payload(&[0, 2], 1, &[(0, vec![1, 2])]),
        ),
        (
            "tuples of arity 1, then 2",
            kb_payload(&[0], 1, &[(0, vec![1]), (1, vec![1, 2])]),
        ),
        (
            "band 2^32",
            kb_payload(&[0, 1], 1 << 32, &[(0, vec![1, 2])]),
        ),
    ];
    for (what, kb) in forgeries {
        assert_eq!(
            Checkpoint::from_bytes(&forged_rq_checkpoint(&kb)).err(),
            Some(CodecError::Invalid),
            "{what}"
        );
    }
}
