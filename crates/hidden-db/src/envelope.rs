//! The payload codec shared by the three binary formats: every SWSG
//! segment section, every SWCK checkpoint and every wire frame is one
//! sealed envelope, under the format's own magic and version, and every
//! payload inside one is read through the one [`Reader`] and written
//! through the one set of `put_*` writers below.
//!
//! ```text
//! offset  size  field
//! 0       4     magic (b"SWSG" or b"SWCK")
//! 4       2     format version, u16 LE
//! 6       1     kind
//! 7       8     payload length, u64 LE
//! 15      n     payload
//! 15+n    8     FNV-1a 64 checksum of the payload, u64 LE
//! ```
//!
//! Opening validates every layer in order — magic, version, kind, exact
//! length, checksum — before a single payload byte is interpreted. Each
//! format reads exactly one version, so an [`Envelope`] is just its magic
//! and that version; each format keeps its own error enum and converts
//! [`EnvelopeError`] into it with a `From` impl.
//!
//! A payload is a flat little-endian structure walk, specified once in
//! `docs/checkpoint-format.md` ("Wire primitives"): fixed-width integers,
//! `usize` as `u64`, `u64` count prefixes, one-byte flags and tags,
//! length-prefixed UTF-8 strings, and one schema encoding
//! ([`put_schema`], [`read_schema`]) that the segment footer, the
//! `Welcome` frame and the sky-band checkpoint share. A [`Reader`] never
//! panics, so decoders keep policy L1: a short payload is
//! [`EnvelopeError::Truncated`], an undefined tag byte or a non-UTF-8
//! string is [`EnvelopeError::BadTag`], and unread bytes are
//! [`EnvelopeError::TrailingBytes`]. A count that sizes an allocation goes
//! through [`Reader::len_prefix`], which checks it against the bytes left
//! first.
//!
//! Every public function here is `#[inline]`, and the clippy job fails
//! when one is not: the checkpoint codec calls the readers once per value
//! from another crate, and the release profile has no LTO.

// L2: no `as` casts on a wire path; test code is exempt.
#![cfg_attr(not(test), deny(clippy::as_conversions))]
#![deny(clippy::missing_inline_in_public_items)]

use std::fmt;

use crate::{AttributeRole, AttributeSpec, InterfaceType, Schema};

/// Size of the fixed envelope header (magic + version + kind + length).
pub const HEADER_LEN: usize = 15;

/// Size of the trailing payload checksum.
pub const CHECKSUM_LEN: usize = 8;

/// Why an envelope was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvelopeError {
    /// The buffer ends before the header or the payload it claims, or a
    /// payload ends before the value being read.
    Truncated,
    /// The buffer does not start with the format's magic bytes.
    BadMagic,
    /// The header carries a version this build does not read.
    UnsupportedVersion {
        /// The version found in the header.
        found: u16,
    },
    /// The header carries a different kind than the caller expected.
    WrongKind {
        /// The kind the caller asked for.
        expected: u8,
        /// The kind found in the header.
        found: u8,
    },
    /// The payload checksum does not match: the bytes were corrupted.
    ChecksumMismatch,
    /// The buffer continues past the end of the envelope, or a payload
    /// decoded cleanly but left bytes unread.
    TrailingBytes,
    /// A payload tag byte has no defined meaning (a flag other than 0 or
    /// 1, an interface or role tag past the last variant), or a string is
    /// not UTF-8, which reports tag 0.
    BadTag {
        /// The offending tag byte.
        tag: u8,
    },
}

impl fmt::Display for EnvelopeError {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvelopeError::Truncated => write!(f, "envelope or payload is truncated"),
            EnvelopeError::BadMagic => write!(f, "bad envelope magic"),
            EnvelopeError::UnsupportedVersion { found } => {
                write!(f, "unsupported envelope version {found}")
            }
            EnvelopeError::WrongKind { expected, found } => {
                write!(f, "wrong envelope kind {found} (expected {expected})")
            }
            EnvelopeError::ChecksumMismatch => write!(f, "envelope checksum mismatch"),
            EnvelopeError::TrailingBytes => write!(f, "bytes trail the envelope or its payload"),
            EnvelopeError::BadTag { tag } => write!(f, "undefined tag {tag} or a non-UTF-8 string"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

/// One envelope format: its magic and the single version it writes and
/// reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    /// Magic bytes every envelope of this format starts with.
    pub magic: [u8; 4],
    /// The format version written, and the only one accepted.
    pub version: u16,
}

impl Envelope {
    /// Appends `payload` to `out`, sealed under `kind`.
    #[inline]
    pub fn seal(&self, kind: u8, payload: &[u8], out: &mut Vec<u8>) {
        out.reserve(HEADER_LEN + payload.len() + CHECKSUM_LEN);
        out.extend_from_slice(&self.magic);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.push(kind);
        put_usize(out, payload.len());
        out.extend_from_slice(payload);
        out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    }

    /// Validates the fixed header (magic and version) and returns `(kind,
    /// payload length claim)` without touching, or even requiring, the
    /// payload bytes.
    ///
    /// Stream transports call this before reading a frame: the length
    /// claim is untrusted, so the caller checks it against its own cap
    /// before buffering a single payload byte. [`Envelope::open`] later
    /// enforces the exact length and the checksum on the whole buffer.
    #[inline]
    pub fn parse_header(&self, header: &[u8]) -> Result<(u8, u64), EnvelopeError> {
        if header.len() < 4 {
            return Err(EnvelopeError::Truncated);
        }
        if header[..4] != self.magic {
            return Err(EnvelopeError::BadMagic);
        }
        if header.len() < HEADER_LEN {
            return Err(EnvelopeError::Truncated);
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != self.version {
            return Err(EnvelopeError::UnsupportedVersion { found: version });
        }
        Ok((header[6], le_u64(&header[7..15])))
    }

    /// Validates the whole envelope in `bytes` — header, `expected_kind`,
    /// exact length and checksum — and returns its payload.
    #[inline]
    pub fn open<'a>(&self, bytes: &'a [u8], expected_kind: u8) -> Result<&'a [u8], EnvelopeError> {
        let (kind, len) = self.parse_header(bytes)?;
        if kind != expected_kind {
            return Err(EnvelopeError::WrongKind {
                expected: expected_kind,
                found: kind,
            });
        }
        let total = usize::try_from(len)
            .ok()
            .and_then(|len| len.checked_add(HEADER_LEN + CHECKSUM_LEN))
            .ok_or(EnvelopeError::Truncated)?;
        if bytes.len() < total {
            return Err(EnvelopeError::Truncated);
        }
        if bytes.len() > total {
            return Err(EnvelopeError::TrailingBytes);
        }
        let payload = &bytes[HEADER_LEN..total - CHECKSUM_LEN];
        if fnv1a64(payload) != le_u64(&bytes[total - CHECKSUM_LEN..]) {
            return Err(EnvelopeError::ChecksumMismatch);
        }
        Ok(payload)
    }
}

/// FNV-1a 64-bit hash (offset basis `0xcbf29ce484222325`, prime
/// `0x100000001b3`): the envelopes' corruption detector. It catches
/// accidental damage; it is not an authenticator.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The first `N` bytes of `b`, zero-padded when shorter. Callers always
/// slice exactly `N` bytes; the pad replaces the `try_into().expect(...)`
/// panic path that policy L1 (`clippy::expect_used`) bans.
fn le_array<const N: usize>(b: &[u8]) -> [u8; N] {
    let mut buf = [0u8; N];
    for (d, s) in buf.iter_mut().zip(b) {
        *d = *s;
    }
    buf
}

/// Little-endian `u32` from the first 4 bytes of `b`, zero-padded when
/// shorter.
#[inline]
fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(le_array(b))
}

/// Little-endian `u64` from the first 8 bytes of `b`, zero-padded when
/// shorter.
#[inline]
pub(crate) fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(le_array(b))
}

/// Little-endian `i64` from the first 8 bytes of `b`, zero-padded when
/// shorter.
#[inline]
fn le_i64(b: &[u8]) -> i64 {
    i64::from_le_bytes(le_array(b))
}

/// Widens a `usize` to the payload's `u64` without an `as` cast (policy
/// L2); infallible on the 64-bit targets the formats support.
#[inline]
pub fn u64_of(v: usize) -> u64 {
    u64::try_from(v).unwrap_or(u64::MAX)
}

/// A bounds-checked cursor over one payload. Every read fails with a typed
/// [`EnvelopeError`] instead of panicking.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// The next `n` bytes.
    #[inline]
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], EnvelopeError> {
        let end = self.pos.checked_add(n).ok_or(EnvelopeError::Truncated)?;
        if end > self.buf.len() {
            return Err(EnvelopeError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, EnvelopeError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, EnvelopeError> {
        Ok(le_u32(self.take(4)?))
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, EnvelopeError> {
        Ok(le_u64(self.take(8)?))
    }

    /// A little-endian `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, EnvelopeError> {
        Ok(le_i64(self.take(8)?))
    }

    /// A `usize` written as a `u64`; one past the address space is
    /// truncation.
    #[inline]
    pub fn usize(&mut self) -> Result<usize, EnvelopeError> {
        usize::try_from(self.u64()?).map_err(|_| EnvelopeError::Truncated)
    }

    /// A one-byte flag: 0 or 1.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, EnvelopeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(EnvelopeError::BadTag { tag }),
        }
    }

    /// A presence flag, then the `u64` when present.
    #[inline]
    pub fn opt_u64(&mut self) -> Result<Option<u64>, EnvelopeError> {
        Ok(if self.bool()? {
            Some(self.u64()?)
        } else {
            None
        })
    }

    /// A `u64` byte length, then that many bytes of UTF-8.
    #[inline]
    pub fn string(&mut self) -> Result<String, EnvelopeError> {
        let len = self.usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| EnvelopeError::BadTag { tag: 0 })
    }

    /// Bytes of the payload not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads a count prefix and checks it against the bytes left before
    /// the caller preallocates: a count whose elements, at a minimum of
    /// `min_elem_bytes` each, cannot fit in the rest of the payload is
    /// [`EnvelopeError::Truncated`]. A count is untrusted until it has
    /// passed this, so every `Vec::with_capacity` in a decoder is sized
    /// by it, never by the raw prefix.
    #[inline]
    pub fn len_prefix(&mut self, min_elem_bytes: usize) -> Result<usize, EnvelopeError> {
        let len = self.usize()?;
        if len > self.remaining() / min_elem_bytes.max(1) {
            return Err(EnvelopeError::Truncated);
        }
        Ok(len)
    }

    /// Checks that the payload was read to its last byte.
    #[inline]
    pub fn finish(&self) -> Result<(), EnvelopeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(EnvelopeError::TrailingBytes)
        }
    }
}

/// Appends one byte.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `i64`.
#[inline]
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `usize` as a little-endian `u64`.
#[inline]
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, u64_of(v));
}

/// Appends a one-byte flag.
#[inline]
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Appends a presence flag, then the `u64` when present.
#[inline]
pub fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    put_bool(out, v.is_some());
    if let Some(v) = v {
        put_u64(out, v);
    }
}

/// Appends a `u64` byte length, then the string's UTF-8 bytes.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_usize(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// The one-byte tag of an interface type: `Sq = 0`, `Rq = 1`, `Pq = 2`.
#[inline]
pub fn interface_tag(i: InterfaceType) -> u8 {
    match i {
        InterfaceType::Sq => 0,
        InterfaceType::Rq => 1,
        InterfaceType::Pq => 2,
    }
}

/// The interface type of a tag written by [`interface_tag`].
#[inline]
pub fn interface_from_tag(tag: u8) -> Result<InterfaceType, EnvelopeError> {
    match tag {
        0 => Ok(InterfaceType::Sq),
        1 => Ok(InterfaceType::Rq),
        2 => Ok(InterfaceType::Pq),
        tag => Err(EnvelopeError::BadTag { tag }),
    }
}

/// Appends a schema: the attribute count, then per attribute its name,
/// domain size, interface tag and role tag (`Ranking = 0`,
/// `Filtering = 1`). The one writer of a schema's bytes, for every format.
#[inline]
pub fn put_schema(out: &mut Vec<u8>, schema: &Schema) {
    put_usize(out, schema.len());
    for spec in schema.attrs() {
        put_str(out, &spec.name);
        put_u32(out, spec.domain_size);
        put_u8(out, interface_tag(spec.interface));
        put_u8(
            out,
            match spec.role {
                AttributeRole::Ranking => 0,
                AttributeRole::Filtering => 1,
            },
        );
    }
}

/// Reads a schema written by [`put_schema`].
#[inline]
pub fn read_schema(r: &mut Reader<'_>) -> Result<Schema, EnvelopeError> {
    // An attribute is at least 8 (name length) + 4 + 1 + 1 bytes.
    let len = r.len_prefix(14)?;
    let mut attrs = Vec::with_capacity(len);
    for _ in 0..len {
        let name = r.string()?;
        let domain_size = r.u32()?;
        let interface = interface_from_tag(r.u8()?)?;
        let role = match r.u8()? {
            0 => AttributeRole::Ranking,
            1 => AttributeRole::Filtering,
            tag => return Err(EnvelopeError::BadTag { tag }),
        };
        attrs.push(AttributeSpec {
            name,
            domain_size,
            interface,
            role,
        });
    }
    Ok(Schema::new(attrs))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST: Envelope = Envelope {
        magic: *b"TEST",
        version: 3,
    };

    #[test]
    fn rejections_are_typed_and_ordered() {
        let mut sealed = Vec::new();
        TEST.seal(4, b"payload", &mut sealed);
        assert_eq!(sealed.len(), HEADER_LEN + 7 + CHECKSUM_LEN);
        assert_eq!(TEST.open(&sealed, 4), Ok(&b"payload"[..]));
        assert_eq!(TEST.parse_header(&sealed[..HEADER_LEN]), Ok((4, 7)));
        assert_eq!(
            TEST.open(&sealed, 5),
            Err(EnvelopeError::WrongKind {
                expected: 5,
                found: 4
            })
        );
        for cut in 0..sealed.len() {
            assert_eq!(
                TEST.open(&sealed[..cut], 4),
                Err(EnvelopeError::Truncated),
                "cut at {cut}"
            );
        }
        let mut foreign = sealed.clone();
        foreign[0] = b'X';
        assert_eq!(TEST.open(&foreign, 4), Err(EnvelopeError::BadMagic));
        let mut future = sealed.clone();
        future[4] = 9;
        assert_eq!(
            TEST.open(&future, 4),
            Err(EnvelopeError::UnsupportedVersion { found: 9 })
        );
        let mut flipped = sealed.clone();
        flipped[HEADER_LEN] ^= 1;
        assert_eq!(TEST.open(&flipped, 4), Err(EnvelopeError::ChecksumMismatch));
        let mut trailing = sealed.clone();
        trailing.push(0);
        assert_eq!(TEST.open(&trailing, 4), Err(EnvelopeError::TrailingBytes));
        // A length claim that overflows the address space is truncation,
        // never an allocation.
        let mut huge = sealed[..HEADER_LEN].to_vec();
        huge[7..15].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(TEST.open(&huge, 4), Err(EnvelopeError::Truncated));
    }

    #[test]
    fn schema_round_trips() {
        let schema = crate::SchemaBuilder::new()
            .ranking("price", 100, InterfaceType::Rq)
            .ranking("stops", 3, InterfaceType::Pq)
            .filtering("carrier", 14)
            .build();
        let mut buf = Vec::new();
        put_schema(&mut buf, &schema);
        let mut r = Reader::new(&buf);
        let decoded = read_schema(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded.attr(0).name, "price");
        assert_eq!(decoded.attr(1).interface, InterfaceType::Pq);
        assert_eq!(decoded.attr(2).role, AttributeRole::Filtering);
        assert_eq!(decoded.ranking_attrs(), &[0, 1]);
    }

    #[test]
    fn reader_rejections_are_typed() {
        let mut out = Vec::new();
        put_u32(&mut out, 7);
        put_bool(&mut out, true);
        put_str(&mut out, "ab");
        let mut r = Reader::new(&out);
        assert_eq!(r.u32(), Ok(7));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.string().as_deref(), Ok("ab"));
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(r.u8(), Err(EnvelopeError::Truncated));
        // A flag other than 0 or 1, and a string that is not UTF-8.
        assert_eq!(
            Reader::new(&[2]).bool(),
            Err(EnvelopeError::BadTag { tag: 2 })
        );
        let mut bad = Vec::new();
        put_usize(&mut bad, 1);
        put_u8(&mut bad, 0xff);
        assert_eq!(
            Reader::new(&bad).string(),
            Err(EnvelopeError::BadTag { tag: 0 })
        );
        assert_eq!(interface_from_tag(3), Err(EnvelopeError::BadTag { tag: 3 }));
        // A count its elements cannot fit is truncation; unread bytes trail.
        let mut counted = Vec::new();
        put_usize(&mut counted, 2);
        put_u64(&mut counted, 0);
        let mut r = Reader::new(&counted);
        assert_eq!(r.len_prefix(8), Err(EnvelopeError::Truncated));
        assert_eq!(r.finish(), Err(EnvelopeError::TrailingBytes));
    }

    #[test]
    fn le_readers_zero_pad_short_input() {
        assert_eq!(le_u32(&[1, 2]), 0x0201);
        assert_eq!(le_u64(&7u64.to_le_bytes()), 7);
        assert_eq!(le_i64(&(-3i64).to_le_bytes()), -3);
    }
}
