//! The versioned binary codec behind crash/restore failover: hand-rolled
//! encode/decode for [`Checkpoint`](crate::Checkpoint)s, [`QueryPlan`]s and
//! response batches, with corruption detection.
//!
//! # Envelope format
//!
//! Every sealed buffer is one envelope of the shared
//! [`skyweb_hidden_db::envelope`] layout — the one segment sections use —
//! under magic [`MAGIC`] (`b"SWCK"`) and version [`FORMAT_VERSION`], with
//! payload kind 1 = checkpoint, 2 = plan, 3 = responses, 4 = hello,
//! 5 = welcome, 6 = error reply.
//!
//! Decoding validates every layer in order — magic, version, kind, exact
//! length, checksum — before a single payload byte is interpreted, so a
//! truncated file, a foreign file, a future-version file and a bit-flipped
//! file are all rejected with a specific [`CodecError`] instead of being
//! mis-restored.
//!
//! The payload itself is a flat little-endian structure walk (no
//! self-describing framing), read and written through the payload codec
//! the segment format shares: the envelope module's `Reader`, its `put_*`
//! writers and its one schema encoding, re-exported here so the machines'
//! `encode`/`decode` bodies call them as `codec::…`. This module adds the
//! checkpoint and wire sub-codecs on top — predicates, queries, tuples,
//! plans, responses, the handshake and error replies — and maps the
//! shared reader's [`EnvelopeError`]s into [`CodecError`]s.
//!
//! The same envelopes are framed over TCP by `skyweb-net` (kinds 2–6; see
//! `docs/wire-protocol.md`). That makes every decode path here subject to
//! **untrusted input**: a length or count prefix is attacker-controlled
//! until it has been validated. Two defenses apply. Stream transports
//! validate the header's length claim against a frame cap via
//! [`parse_header`] *before* reading or allocating a payload, and every
//! collection reader validates its count prefix against the bytes
//! actually remaining (`Reader::len_prefix`) *before* preallocating —
//! a 16-byte frame claiming a 2⁴⁰-element collection is rejected as
//! truncation without a single oversized allocation.
//!
//! # Checkpoint payloads
//!
//! A checkpoint payload is `machine tag (u8)` + the machine chassis
//! (issued-query counter, halted flag, first-skyline-at, the complete
//! [`KnowledgeBase`]) + the control state of the concrete algorithm. All
//! eight discovery machines are supported:
//!
//! | tag | machine |
//! |-----|---------|
//! | 1 | SQ-DB-SKY |
//! | 2 | RQ-DB-SKY |
//! | 3 | PQ-DB-SKY |
//! | 4 | PQ-2D-SKY |
//! | 5 | MQ-DB-SKY |
//! | 6 | RQ-SKYBAND |
//! | 7 | BASELINE (region crawl) |
//! | 8 | POINT-CRAWL |
//!
//! The knowledge base is stored as its retrieval-ordered tuple list plus
//! the anytime trace; decoding **replays** the ingest, which rebuilds the
//! incremental dominance index in exactly the state it had at pause time
//! (ingest is deterministic in retrieval order). The posting lists are not
//! part of that state: the first probe that reads them builds them,
//! paused or not.
//! Hash-set valued control state (MQ leaf memos, sky-band roots) is written
//! in sorted order, so re-encoding a decoded checkpoint reproduces the
//! original bytes — the property the round-trip test suites pin.

// L2: no `as` casts on a wire path; test code is exempt.
#![cfg_attr(not(test), deny(clippy::as_conversions))]

use std::fmt;
use std::sync::Arc;

use skyweb_hidden_db::envelope::{interface_from_tag, interface_tag, Envelope, EnvelopeError};
pub(crate) use skyweb_hidden_db::envelope::{
    put_bool, put_i64, put_opt_u64, put_schema, put_str, put_u32, put_u64, put_u8, put_usize,
    read_schema, Reader,
};
pub use skyweb_hidden_db::envelope::{CHECKSUM_LEN, HEADER_LEN};
use skyweb_hidden_db::{
    CmpOp, Predicate, PrefixGroup, Query, QueryError, QueryResponse, Schema, SegmentError, Tuple,
};

use crate::machine::{DiscoveryMachine, Machine, QueryPlan};
use crate::KnowledgeBase;

/// Magic bytes every sealed buffer starts with.
pub const MAGIC: [u8; 4] = *b"SWCK";

/// The format version this build writes and the only one it reads.
pub const FORMAT_VERSION: u16 = 1;

/// The envelope every sealed buffer uses: [`MAGIC`] at [`FORMAT_VERSION`].
const SWCK: Envelope = Envelope {
    magic: MAGIC,
    version: FORMAT_VERSION,
};

/// Envelope kind of a checkpoint payload.
pub const KIND_CHECKPOINT: u8 = 1;
/// Envelope kind of a query-plan payload.
pub const KIND_PLAN: u8 = 2;
/// Envelope kind of a response-batch payload.
pub const KIND_RESPONSES: u8 = 3;
/// Envelope kind of a client handshake payload (wire protocol).
pub const KIND_HELLO: u8 = 4;
/// Envelope kind of a server handshake payload (wire protocol).
pub const KIND_WELCOME: u8 = 5;
/// Envelope kind of an error reply: the answered prefix of a plan plus the
/// [`QueryError`] that cut it short (wire protocol).
pub const KIND_ERROR: u8 = 6;

/// Version of the TCP wire protocol spoken by `skyweb-net` (handshake,
/// frame sequencing, error mapping). Independent of [`FORMAT_VERSION`],
/// which versions the envelope encoding itself: a wire-protocol bump can
/// reuse the same envelopes, and vice versa.
pub const WIRE_PROTOCOL: u32 = 1;

pub(crate) const TAG_SQ: u8 = 1;
pub(crate) const TAG_RQ: u8 = 2;
pub(crate) const TAG_PQ: u8 = 3;
pub(crate) const TAG_PQ2D: u8 = 4;
pub(crate) const TAG_MQ: u8 = 5;
pub(crate) const TAG_SKYBAND: u8 = 6;
pub(crate) const TAG_CRAWL: u8 = 7;
pub(crate) const TAG_POINT_CRAWL: u8 = 8;

/// Why a byte buffer was rejected by the codec. A corrupted or foreign
/// buffer always surfaces as an error — it is never silently mis-restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ends before the structure it claims to carry.
    Truncated,
    /// The buffer does not start with the [`MAGIC`] bytes.
    BadMagic,
    /// The buffer was written by an unknown format version.
    UnsupportedVersion {
        /// The version found in the envelope header.
        found: u16,
    },
    /// The envelope carries a different payload kind than requested.
    WrongKind {
        /// The kind the caller asked to decode.
        expected: u8,
        /// The kind found in the envelope header.
        found: u8,
    },
    /// The payload checksum does not match: the bytes were corrupted.
    ChecksumMismatch,
    /// An enum tag in the payload has no defined meaning.
    BadTag {
        /// The offending tag byte.
        tag: u8,
    },
    /// The payload decoded cleanly but left unconsumed bytes behind.
    TrailingBytes,
    /// The machine does not support the binary checkpoint codec (a custom
    /// [`MachineControl`](crate::MachineControl) without a codec tag).
    Unsupported,
    /// The payload is well formed but holds a state no encoder writes — a
    /// knowledge-base band outside `1..=u32::MAX`, or stored tuples of
    /// mixed arity or lacking a dominance attribute. Over the wire, also a
    /// reply that does not fit its plan or the server's `Welcome`: a
    /// response count other than one per query (fewer in an error reply),
    /// more than `k` tuples in one response, or a tuple whose arity or
    /// values do not fit the schema.
    Invalid,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "buffer is truncated"),
            CodecError::BadMagic => write!(f, "bad magic: not a skyweb codec buffer"),
            CodecError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported format version {found} (supported: {FORMAT_VERSION})"
                )
            }
            CodecError::WrongKind { expected, found } => {
                write!(f, "wrong payload kind {found} (expected {expected})")
            }
            CodecError::ChecksumMismatch => write!(f, "payload checksum mismatch: corrupted bytes"),
            CodecError::BadTag { tag } => write!(f, "undefined enum tag {tag} in payload"),
            CodecError::TrailingBytes => write!(f, "payload left trailing bytes unconsumed"),
            CodecError::Unsupported => {
                write!(
                    f,
                    "this machine does not support the binary checkpoint codec"
                )
            }
            CodecError::Invalid => write!(f, "payload holds a state no encoder writes"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<EnvelopeError> for CodecError {
    fn from(e: EnvelopeError) -> Self {
        match e {
            EnvelopeError::Truncated => CodecError::Truncated,
            EnvelopeError::BadMagic => CodecError::BadMagic,
            EnvelopeError::UnsupportedVersion { found } => CodecError::UnsupportedVersion { found },
            EnvelopeError::WrongKind { expected, found } => {
                CodecError::WrongKind { expected, found }
            }
            EnvelopeError::ChecksumMismatch => CodecError::ChecksumMismatch,
            EnvelopeError::TrailingBytes => CodecError::TrailingBytes,
            EnvelopeError::BadTag { tag } => CodecError::BadTag { tag },
        }
    }
}

/// Wraps `payload` in the magic/version/kind/length/checksum envelope.
pub(crate) fn seal(kind: u8, payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::new();
    SWCK.seal(kind, &payload, &mut out);
    out
}

/// Validates the fixed 15-byte envelope header (magic and format version)
/// and returns `(kind, payload length claim)` — without touching, or even
/// requiring, the payload bytes.
///
/// This is the hook stream transports use to vet a frame *before* it is
/// read off the wire: the length claim is attacker-controlled, so it must
/// be checked against the transport's frame cap before a single payload
/// byte is buffered. The claim is returned unvalidated on purpose — only
/// the caller knows its cap; `open` later enforces exact-length and
/// checksum equality on the full buffer.
pub fn parse_header(header: &[u8]) -> Result<(u8, u64), CodecError> {
    Ok(SWCK.parse_header(header)?)
}

/// Validates the envelope of `bytes` and returns the payload slice.
pub(crate) fn open(bytes: &[u8], expected_kind: u8) -> Result<&[u8], CodecError> {
    Ok(SWCK.open(bytes, expected_kind)?)
}

pub(crate) fn put_usize_slice(out: &mut Vec<u8>, v: &[usize]) {
    put_usize(out, v.len());
    for &x in v {
        put_usize(out, x);
    }
}

pub(crate) fn read_usize_vec(r: &mut Reader<'_>) -> Result<Vec<usize>, CodecError> {
    let len = r.len_prefix(8)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(r.usize()?);
    }
    Ok(out)
}

pub(crate) fn put_u32_slice(out: &mut Vec<u8>, v: &[u32]) {
    put_usize(out, v.len());
    for &x in v {
        put_u32(out, x);
    }
}

pub(crate) fn read_u32_vec(r: &mut Reader<'_>) -> Result<Vec<u32>, CodecError> {
    let len = r.len_prefix(4)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(r.u32()?);
    }
    Ok(out)
}

fn cmp_op_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Lt => 0,
        CmpOp::Le => 1,
        CmpOp::Eq => 2,
        CmpOp::Ge => 3,
        CmpOp::Gt => 4,
    }
}

fn cmp_op_from_tag(tag: u8) -> Result<CmpOp, CodecError> {
    Ok(match tag {
        0 => CmpOp::Lt,
        1 => CmpOp::Le,
        2 => CmpOp::Eq,
        3 => CmpOp::Ge,
        4 => CmpOp::Gt,
        tag => return Err(CodecError::BadTag { tag }),
    })
}

pub(crate) fn put_predicate(out: &mut Vec<u8>, p: &Predicate) {
    put_usize(out, p.attr);
    put_u8(out, cmp_op_tag(p.op));
    put_u32(out, p.value);
}

pub(crate) fn read_predicate(r: &mut Reader<'_>) -> Result<Predicate, CodecError> {
    let attr = r.usize()?;
    let op = cmp_op_from_tag(r.u8()?)?;
    let value = r.u32()?;
    Ok(Predicate::new(attr, op, value))
}

pub(crate) fn put_predicates(out: &mut Vec<u8>, preds: &[Predicate]) {
    put_usize(out, preds.len());
    for p in preds {
        put_predicate(out, p);
    }
}

pub(crate) fn read_predicates(r: &mut Reader<'_>) -> Result<Vec<Predicate>, CodecError> {
    // A predicate is 8 (attr) + 1 (op tag) + 4 (value) bytes.
    let len = r.len_prefix(13)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(read_predicate(r)?);
    }
    Ok(out)
}

pub(crate) fn put_query(out: &mut Vec<u8>, q: &Query) {
    put_predicates(out, q.predicates());
}

pub(crate) fn read_query(r: &mut Reader<'_>) -> Result<Query, CodecError> {
    Ok(Query::new(read_predicates(r)?))
}

pub(crate) fn put_tuple(out: &mut Vec<u8>, t: &Tuple) {
    put_u64(out, t.id);
    put_u32_slice(out, &t.values);
}

pub(crate) fn read_tuple(r: &mut Reader<'_>) -> Result<Arc<Tuple>, CodecError> {
    let id = r.u64()?;
    let values = read_u32_vec(r)?;
    Ok(Arc::new(Tuple::new(id, values)))
}

/// Serializes a [`QueryPlan`] (queries plus the optional sibling-group
/// annotation) into a sealed envelope.
pub fn encode_plan(plan: &QueryPlan) -> Vec<u8> {
    let mut payload = Vec::new();
    put_usize(&mut payload, plan.len());
    for q in plan.queries() {
        put_query(&mut payload, q);
    }
    match plan.groups() {
        None => put_bool(&mut payload, false),
        Some(groups) => {
            put_bool(&mut payload, true);
            put_usize(&mut payload, groups.len());
            for g in groups {
                put_usize(&mut payload, g.len);
                put_usize(&mut payload, g.prefix_len);
            }
        }
    }
    seal(KIND_PLAN, payload)
}

/// Restores a [`QueryPlan`] from a sealed envelope produced by
/// [`encode_plan`].
pub fn decode_plan(bytes: &[u8]) -> Result<QueryPlan, CodecError> {
    let payload = open(bytes, KIND_PLAN)?;
    let mut r = Reader::new(payload);
    // A query is at least its empty predicate list: 8 bytes.
    let n = r.len_prefix(8)?;
    let mut queries = Vec::with_capacity(n);
    for _ in 0..n {
        queries.push(read_query(&mut r)?);
    }
    let plan = if r.bool()? {
        // A group is 8 (len) + 8 (prefix_len) bytes.
        let n = r.len_prefix(16)?;
        let mut groups = Vec::with_capacity(n);
        for _ in 0..n {
            let len = r.usize()?;
            let prefix_len = r.usize()?;
            groups.push(PrefixGroup { len, prefix_len });
        }
        QueryPlan::with_groups(queries, groups)
    } else {
        QueryPlan::new(queries)
    };
    r.finish()?;
    Ok(plan)
}

/// Writes a batch of [`QueryResponse`]s into `payload` (shared by the
/// responses envelope and the error-reply envelope).
fn put_responses(payload: &mut Vec<u8>, responses: &[QueryResponse]) {
    put_usize(payload, responses.len());
    for resp in responses {
        put_usize(payload, resp.tuples.len());
        for t in &resp.tuples {
            put_tuple(payload, t);
        }
        put_bool(payload, resp.overflowed);
    }
}

/// Reads a batch of [`QueryResponse`]s written by [`put_responses`].
fn read_responses(r: &mut Reader<'_>) -> Result<Vec<QueryResponse>, CodecError> {
    // A response is at least 8 (tuple count) + 1 (overflow flag) bytes.
    let n = r.len_prefix(9)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        // A tuple is at least 8 (id) + 8 (value count) bytes.
        let t = r.len_prefix(16)?;
        let mut tuples = Vec::with_capacity(t);
        for _ in 0..t {
            tuples.push(read_tuple(r)?);
        }
        let overflowed = r.bool()?;
        out.push(QueryResponse { tuples, overflowed });
    }
    Ok(out)
}

/// Serializes a batch of [`QueryResponse`]s into a sealed envelope.
pub fn encode_responses(responses: &[QueryResponse]) -> Vec<u8> {
    let mut payload = Vec::new();
    put_responses(&mut payload, responses);
    seal(KIND_RESPONSES, payload)
}

/// Restores a batch of [`QueryResponse`]s from a sealed envelope produced
/// by [`encode_responses`]. The tuples come back as fresh `Arc` handles
/// (they no longer alias a database store).
pub fn decode_responses(bytes: &[u8]) -> Result<Vec<QueryResponse>, CodecError> {
    let payload = open(bytes, KIND_RESPONSES)?;
    let mut r = Reader::new(payload);
    let out = read_responses(&mut r)?;
    r.finish()?;
    Ok(out)
}

/// Decodes a checkpoint payload (tag + chassis + control) into a boxed
/// machine; the dispatch point over the eight machine tags.
pub(crate) fn decode_machine(r: &mut Reader<'_>) -> Result<Box<dyn DiscoveryMachine>, CodecError> {
    let tag = r.u8()?;
    let issued = r.u64()?;
    let halted = r.bool()?;
    let first_skyline_at = r.opt_u64()?;
    let kb = KnowledgeBase::decode(r)?;
    Ok(match tag {
        TAG_SQ => Box::new(Machine::from_restored(
            kb,
            issued,
            halted,
            first_skyline_at,
            crate::sq::SqControl::decode(r)?,
        )),
        TAG_RQ => Box::new(Machine::from_restored(
            kb,
            issued,
            halted,
            first_skyline_at,
            crate::rq::RqControl::decode(r)?,
        )),
        TAG_PQ => Box::new(Machine::from_restored(
            kb,
            issued,
            halted,
            first_skyline_at,
            crate::pq::PqControl::decode(r)?,
        )),
        TAG_PQ2D => Box::new(Machine::from_restored(
            kb,
            issued,
            halted,
            first_skyline_at,
            crate::pq2d::Pq2dControl::decode(r)?,
        )),
        TAG_MQ => Box::new(Machine::from_restored(
            kb,
            issued,
            halted,
            first_skyline_at,
            crate::mq::MqControl::decode(r)?,
        )),
        TAG_SKYBAND => Box::new(Machine::from_restored(
            kb,
            issued,
            halted,
            first_skyline_at,
            crate::skyband::SkybandControl::decode(r)?,
        )),
        TAG_CRAWL => Box::new(Machine::from_restored(
            kb,
            issued,
            halted,
            first_skyline_at,
            crate::baseline::CrawlControl::decode(r)?,
        )),
        TAG_POINT_CRAWL => Box::new(Machine::from_restored(
            kb,
            issued,
            halted,
            first_skyline_at,
            crate::baseline::PointCrawlControl::decode(r)?,
        )),
        tag => return Err(CodecError::BadTag { tag }),
    })
}

// ---------------------------------------------------------------------------
// Wire-protocol payloads (kinds 4–6): the handshake and error-reply
// envelopes framed over TCP by `skyweb-net`. See `docs/wire-protocol.md`.
// ---------------------------------------------------------------------------

/// The client half of the wire handshake: the first frame on a new
/// connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// The wire-protocol version the client speaks ([`WIRE_PROTOCOL`]).
    pub protocol: u32,
    /// Free-form client label the server uses for per-connection
    /// accounting (e.g. the tenant or machine name).
    pub label: String,
}

/// The server half of the wire handshake: identifies the hidden database
/// behind the connection so a remote client can build machine replicas
/// without ever seeing a tuple.
#[derive(Debug, Clone)]
pub struct Welcome {
    /// The wire-protocol version the server speaks ([`WIRE_PROTOCOL`]).
    pub protocol: u32,
    /// Name of the server's ranking function.
    pub ranker: String,
    /// The interface's top-`k` result cap.
    pub k: u64,
    /// Number of tuples behind the interface (public metadata in the
    /// paper's model: clients size crawl budgets from it).
    pub tuple_count: u64,
    /// The public query schema.
    pub schema: Schema,
}

/// Serializes a [`Hello`] handshake into a sealed envelope.
pub fn encode_hello(hello: &Hello) -> Vec<u8> {
    let mut payload = Vec::new();
    put_u32(&mut payload, hello.protocol);
    put_str(&mut payload, &hello.label);
    seal(KIND_HELLO, payload)
}

/// Restores a [`Hello`] from a sealed envelope produced by
/// [`encode_hello`].
pub fn decode_hello(bytes: &[u8]) -> Result<Hello, CodecError> {
    let payload = open(bytes, KIND_HELLO)?;
    let mut r = Reader::new(payload);
    let protocol = r.u32()?;
    let label = r.string()?;
    r.finish()?;
    Ok(Hello { protocol, label })
}

/// Serializes a [`Welcome`] handshake into a sealed envelope.
pub fn encode_welcome(welcome: &Welcome) -> Vec<u8> {
    let mut payload = Vec::new();
    put_u32(&mut payload, welcome.protocol);
    put_str(&mut payload, &welcome.ranker);
    put_u64(&mut payload, welcome.k);
    put_u64(&mut payload, welcome.tuple_count);
    put_schema(&mut payload, &welcome.schema);
    seal(KIND_WELCOME, payload)
}

/// Restores a [`Welcome`] from a sealed envelope produced by
/// [`encode_welcome`].
pub fn decode_welcome(bytes: &[u8]) -> Result<Welcome, CodecError> {
    let payload = open(bytes, KIND_WELCOME)?;
    let mut r = Reader::new(payload);
    let protocol = r.u32()?;
    let ranker = r.string()?;
    let k = r.u64()?;
    let tuple_count = r.u64()?;
    let schema = read_schema(&mut r)?;
    r.finish()?;
    Ok(Welcome {
        protocol,
        ranker,
        k,
        tuple_count,
        schema,
    })
}

/// Writes a [`SegmentError`] with a one-byte variant tag. The I/O variant's
/// [`std::io::ErrorKind`] is folded into the detail string — it is an OS
/// detail with no stable wire representation — and decodes as
/// [`std::io::ErrorKind::Other`].
fn put_segment_error(out: &mut Vec<u8>, e: &SegmentError) {
    match e {
        SegmentError::Io { kind, detail } => {
            put_u8(out, 0);
            put_str(out, &format!("{kind:?}: {detail}"));
        }
        SegmentError::Truncated => put_u8(out, 1),
        SegmentError::BadMagic => put_u8(out, 2),
        SegmentError::UnsupportedVersion { found } => {
            put_u8(out, 3);
            let [lo, hi] = found.to_le_bytes();
            put_u8(out, lo);
            put_u8(out, hi);
        }
        SegmentError::WrongKind { expected, found } => {
            put_u8(out, 4);
            put_u8(out, *expected);
            put_u8(out, *found);
        }
        SegmentError::ChecksumMismatch => put_u8(out, 5),
        SegmentError::TrailingBytes => put_u8(out, 6),
        SegmentError::Malformed { detail } => {
            put_u8(out, 7);
            put_str(out, detail);
        }
        SegmentError::RankerMismatch { expected, found } => {
            put_u8(out, 8);
            put_str(out, expected);
            put_str(out, found);
        }
    }
}

/// Reads a [`SegmentError`] written by [`put_segment_error`].
fn read_segment_error(r: &mut Reader<'_>) -> Result<SegmentError, CodecError> {
    Ok(match r.u8()? {
        0 => SegmentError::Io {
            kind: std::io::ErrorKind::Other,
            detail: r.string()?,
        },
        1 => SegmentError::Truncated,
        2 => SegmentError::BadMagic,
        3 => {
            let lo = r.u8()?;
            let hi = r.u8()?;
            SegmentError::UnsupportedVersion {
                found: u16::from_le_bytes([lo, hi]),
            }
        }
        4 => SegmentError::WrongKind {
            expected: r.u8()?,
            found: r.u8()?,
        },
        5 => SegmentError::ChecksumMismatch,
        6 => SegmentError::TrailingBytes,
        7 => SegmentError::Malformed {
            detail: r.string()?,
        },
        8 => SegmentError::RankerMismatch {
            expected: r.string()?,
            found: r.string()?,
        },
        tag => return Err(CodecError::BadTag { tag }),
    })
}

/// Writes a [`QueryError`] with a one-byte variant tag (0–8, in
/// declaration order).
fn put_query_error(out: &mut Vec<u8>, e: &QueryError) {
    match e {
        QueryError::UnknownAttribute { attr } => {
            put_u8(out, 0);
            put_usize(out, *attr);
        }
        QueryError::UnsupportedPredicate {
            attr,
            op,
            interface,
        } => {
            put_u8(out, 1);
            put_usize(out, *attr);
            put_u8(out, cmp_op_tag(*op));
            put_u8(out, interface_tag(*interface));
        }
        QueryError::ValueOutOfDomain {
            attr,
            value,
            domain_size,
        } => {
            put_u8(out, 2);
            put_usize(out, *attr);
            put_u32(out, *value);
            put_u32(out, *domain_size);
        }
        QueryError::RateLimitExceeded { limit } => {
            put_u8(out, 3);
            put_u64(out, *limit);
        }
        QueryError::Unavailable => put_u8(out, 4),
        QueryError::Timeout { elapsed_ms } => {
            put_u8(out, 5);
            put_u64(out, *elapsed_ms);
        }
        QueryError::Throttled => put_u8(out, 6),
        QueryError::ConnectionDropped => put_u8(out, 7),
        QueryError::Storage { error } => {
            put_u8(out, 8);
            put_segment_error(out, error);
        }
    }
}

/// Reads a [`QueryError`] written by [`put_query_error`].
fn read_query_error(r: &mut Reader<'_>) -> Result<QueryError, CodecError> {
    Ok(match r.u8()? {
        0 => QueryError::UnknownAttribute { attr: r.usize()? },
        1 => QueryError::UnsupportedPredicate {
            attr: r.usize()?,
            op: cmp_op_from_tag(r.u8()?)?,
            interface: interface_from_tag(r.u8()?)?,
        },
        2 => QueryError::ValueOutOfDomain {
            attr: r.usize()?,
            value: r.u32()?,
            domain_size: r.u32()?,
        },
        3 => QueryError::RateLimitExceeded { limit: r.u64()? },
        4 => QueryError::Unavailable,
        5 => QueryError::Timeout {
            elapsed_ms: r.u64()?,
        },
        6 => QueryError::Throttled,
        7 => QueryError::ConnectionDropped,
        8 => QueryError::Storage {
            error: read_segment_error(r)?,
        },
        tag => return Err(CodecError::BadTag { tag }),
    })
}

/// Serializes an error reply — the answered prefix of a plan plus the
/// [`QueryError`] that cut it short — into a sealed envelope. This is how
/// the wire carries the oracle contract's `(Vec<QueryResponse>,
/// Option<QueryError>)` shape: a fully answered plan travels as a plain
/// responses envelope, a cut plan as this one.
pub fn encode_error_reply(answered: &[QueryResponse], error: &QueryError) -> Vec<u8> {
    let mut payload = Vec::new();
    put_responses(&mut payload, answered);
    put_query_error(&mut payload, error);
    seal(KIND_ERROR, payload)
}

/// Restores an error reply from a sealed envelope produced by
/// [`encode_error_reply`].
pub fn decode_error_reply(bytes: &[u8]) -> Result<(Vec<QueryResponse>, QueryError), CodecError> {
    let payload = open(bytes, KIND_ERROR)?;
    let mut r = Reader::new(payload);
    let answered = read_responses(&mut r)?;
    let error = read_query_error(&mut r)?;
    r.finish()?;
    Ok((answered, error))
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyweb_hidden_db::{InterfaceType, Predicate};

    #[test]
    fn envelope_rejects_every_corruption_class() {
        let sealed = seal(KIND_PLAN, vec![1, 2, 3, 4]);
        assert!(open(&sealed, KIND_PLAN).is_ok());
        // Truncations at every length.
        for cut in 0..sealed.len() {
            assert!(open(&sealed[..cut], KIND_PLAN).is_err(), "cut at {cut}");
        }
        // Trailing garbage.
        let mut longer = sealed.clone();
        longer.push(0);
        assert_eq!(open(&longer, KIND_PLAN), Err(CodecError::TrailingBytes));
        // Wrong kind requested.
        assert!(matches!(
            open(&sealed, KIND_CHECKPOINT),
            Err(CodecError::WrongKind { .. })
        ));
        // Every single-bit flip is caught.
        for byte in 0..sealed.len() {
            for bit in 0..8 {
                let mut bad = sealed.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    open(&bad, KIND_PLAN).is_err(),
                    "flip of byte {byte} bit {bit} must be rejected"
                );
            }
        }
    }

    #[test]
    fn plan_round_trips_with_and_without_groups() {
        let queries = vec![
            Query::select_all(),
            Query::new(vec![Predicate::lt(0, 5), Predicate::ge(1, 2)]),
        ];
        let plain = QueryPlan::new(queries.clone());
        assert_eq!(decode_plan(&encode_plan(&plain)).unwrap(), plain);
        let grouped = QueryPlan::with_groups(
            queries,
            vec![PrefixGroup {
                len: 2,
                prefix_len: 0,
            }],
        );
        assert_eq!(decode_plan(&encode_plan(&grouped)).unwrap(), grouped);
    }

    #[test]
    fn responses_round_trip() {
        let responses = vec![
            QueryResponse {
                tuples: vec![
                    Arc::new(Tuple::new(3, vec![1, 2])),
                    Arc::new(Tuple::new(9, vec![0, 7])),
                ],
                overflowed: true,
            },
            QueryResponse {
                tuples: Vec::new(),
                overflowed: false,
            },
        ];
        let decoded = decode_responses(&encode_responses(&responses)).unwrap();
        assert_eq!(decoded.len(), 2);
        assert!(decoded[0].overflowed);
        assert_eq!(decoded[0].tuples[0].id, 3);
        assert_eq!(decoded[0].tuples[1].values, vec![0, 7]);
        assert!(decoded[1].tuples.is_empty());
    }

    #[test]
    fn tiny_frame_claiming_huge_payload_is_rejected_cheaply() {
        // A 16-byte frame whose header claims a 2^40-byte payload: the
        // header parse must reject it from the length claim alone (the
        // stream transport checks the claim against its frame cap before
        // allocating), and `open` must reject it as truncation without
        // trusting the claim.
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        frame.push(KIND_PLAN);
        frame.extend_from_slice(&(1u64 << 40).to_le_bytes());
        frame.push(0);
        assert_eq!(frame.len(), 16);
        let (kind, len) = parse_header(&frame).unwrap();
        assert_eq!((kind, len), (KIND_PLAN, 1 << 40));
        assert_eq!(open(&frame, KIND_PLAN), Err(CodecError::Truncated));
    }

    #[test]
    fn forged_count_prefix_is_rejected_before_preallocation() {
        // Seal a *valid* envelope whose payload is a forged count: the
        // checksum passes, so only the count-vs-remaining validation in
        // `len_prefix` stands between the decoder and a 2^40-element
        // `Vec::with_capacity`. Every collection decoder must reject it.
        let forged = (1u64 << 40).to_le_bytes().to_vec();
        let plan = seal(KIND_PLAN, forged.clone());
        assert_eq!(decode_plan(&plan), Err(CodecError::Truncated));
        let responses = seal(KIND_RESPONSES, forged.clone());
        assert!(matches!(
            decode_responses(&responses),
            Err(CodecError::Truncated)
        ));
        let error_reply = seal(KIND_ERROR, forged.clone());
        assert!(matches!(
            decode_error_reply(&error_reply),
            Err(CodecError::Truncated)
        ));
        // A forged inner count (tuple count inside the first response).
        let mut payload = Vec::new();
        put_usize(&mut payload, 1);
        payload.extend_from_slice(&forged);
        let inner = seal(KIND_RESPONSES, payload);
        assert!(matches!(
            decode_responses(&inner),
            Err(CodecError::Truncated)
        ));
        // And a forged schema count inside a welcome frame.
        let mut payload = Vec::new();
        put_u32(&mut payload, WIRE_PROTOCOL);
        put_str(&mut payload, "sum");
        put_u64(&mut payload, 10);
        put_u64(&mut payload, 100);
        payload.extend_from_slice(&forged);
        let welcome = seal(KIND_WELCOME, payload);
        assert!(matches!(
            decode_welcome(&welcome),
            Err(CodecError::Truncated)
        ));
    }

    #[test]
    fn resealed_welcomes_with_undefined_tags_are_bad_tags() {
        // A one-attribute welcome written field by field, so each case can
        // forge one byte of its schema under a valid checksum.
        let welcome_with = |name: &[u8], interface: u8, role: u8| {
            let mut payload = Vec::new();
            put_u32(&mut payload, WIRE_PROTOCOL);
            put_str(&mut payload, "sum");
            put_u64(&mut payload, 10);
            put_u64(&mut payload, 100);
            put_usize(&mut payload, 1);
            put_usize(&mut payload, name.len());
            payload.extend_from_slice(name);
            put_u32(&mut payload, 5);
            put_u8(&mut payload, interface);
            put_u8(&mut payload, role);
            seal(KIND_WELCOME, payload)
        };
        let honest = Welcome {
            protocol: WIRE_PROTOCOL,
            ranker: "sum".to_string(),
            k: 10,
            tuple_count: 100,
            schema: skyweb_hidden_db::SchemaBuilder::new()
                .ranking("price", 5, InterfaceType::Rq)
                .build(),
        };
        assert_eq!(welcome_with(b"price", 1, 0), encode_welcome(&honest));
        for (forged, tag) in [
            (welcome_with(b"price", 3, 0), 3),
            (welcome_with(b"price", 1, 2), 2),
            (welcome_with(b"pr\xffce", 1, 0), 0),
        ] {
            assert_eq!(
                decode_welcome(&forged).unwrap_err(),
                CodecError::BadTag { tag }
            );
        }
    }

    #[test]
    fn hello_and_welcome_round_trip() {
        let hello = Hello {
            protocol: WIRE_PROTOCOL,
            label: "tenant-sq".to_string(),
        };
        assert_eq!(decode_hello(&encode_hello(&hello)).unwrap(), hello);
        let schema = skyweb_hidden_db::SchemaBuilder::new()
            .ranking("price", 100, InterfaceType::Rq)
            .filtering("carrier", 14)
            .build();
        let welcome = Welcome {
            protocol: WIRE_PROTOCOL,
            ranker: "sum".to_string(),
            k: 10,
            tuple_count: 100_000,
            schema,
        };
        let decoded = decode_welcome(&encode_welcome(&welcome)).unwrap();
        assert_eq!(decoded.protocol, welcome.protocol);
        assert_eq!(decoded.ranker, welcome.ranker);
        assert_eq!(decoded.k, welcome.k);
        assert_eq!(decoded.tuple_count, welcome.tuple_count);
        assert_eq!(decoded.schema.len(), 2);
        assert_eq!(decoded.schema.attr(0).name, "price");
    }

    #[test]
    fn error_reply_round_trips_every_variant() {
        let answered = vec![QueryResponse {
            tuples: vec![Arc::new(Tuple::new(7, vec![3, 1]))],
            overflowed: false,
        }];
        let errors = vec![
            QueryError::UnknownAttribute { attr: 9 },
            QueryError::UnsupportedPredicate {
                attr: 2,
                op: CmpOp::Gt,
                interface: InterfaceType::Sq,
            },
            QueryError::ValueOutOfDomain {
                attr: 1,
                value: 77,
                domain_size: 10,
            },
            QueryError::RateLimitExceeded { limit: 500 },
            QueryError::Unavailable,
            QueryError::Timeout { elapsed_ms: 250 },
            QueryError::Throttled,
            QueryError::ConnectionDropped,
            QueryError::Storage {
                error: SegmentError::ChecksumMismatch,
            },
            QueryError::Storage {
                error: SegmentError::UnsupportedVersion { found: 9 },
            },
            QueryError::Storage {
                error: SegmentError::RankerMismatch {
                    expected: "sum".to_string(),
                    found: "mean".to_string(),
                },
            },
        ];
        for err in errors {
            let sealed = encode_error_reply(&answered, &err);
            let (got_answered, got_err) = decode_error_reply(&sealed).unwrap();
            assert_eq!(got_answered.len(), 1);
            assert_eq!(got_answered[0].tuples[0].id, 7);
            assert_eq!(format!("{got_err:?}"), format!("{err:?}"));
        }
        // The I/O kind is folded into the detail string on the wire.
        let io = QueryError::Storage {
            error: SegmentError::Io {
                kind: std::io::ErrorKind::NotFound,
                detail: "gone".to_string(),
            },
        };
        let (_, got) = decode_error_reply(&encode_error_reply(&[], &io)).unwrap();
        match got {
            QueryError::Storage {
                error: SegmentError::Io { kind, detail },
            } => {
                assert_eq!(kind, std::io::ErrorKind::Other);
                assert_eq!(detail, "NotFound: gone");
            }
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn wire_frames_reject_bit_flips_and_wrong_kinds() {
        let hello = encode_hello(&Hello {
            protocol: WIRE_PROTOCOL,
            label: "t".to_string(),
        });
        for byte in 0..hello.len() {
            for bit in 0..8 {
                let mut bad = hello.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_hello(&bad).is_err(),
                    "flip of byte {byte} bit {bit} must be rejected"
                );
            }
        }
        // Kind confusion between the wire envelopes is caught.
        assert!(matches!(
            decode_welcome(&hello),
            Err(CodecError::WrongKind {
                expected: KIND_WELCOME,
                found: KIND_HELLO,
            })
        ));
    }
}
