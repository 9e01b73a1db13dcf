//! The sealed envelope shared by the two binary formats: every SWSG
//! segment section and every SWCK checkpoint or wire frame is one
//! envelope, under the format's own magic and version.
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
//! The little-endian readers below are the ones both formats' payload
//! cursors use: they never panic, so decoders keep policy L1. They
//! are `#[inline]` because the checkpoint codec calls them once per field
//! from another crate.

// L2: no `as` casts on a wire path; test code is exempt.
#![cfg_attr(not(test), deny(clippy::as_conversions))]

use std::fmt;

/// Size of the fixed envelope header (magic + version + kind + length).
pub const HEADER_LEN: usize = 15;

/// Size of the trailing payload checksum.
pub const CHECKSUM_LEN: usize = 8;

/// Why an envelope was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvelopeError {
    /// The buffer ends before the header or the payload it claims.
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
    /// The buffer continues past the end of the envelope.
    TrailingBytes,
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvelopeError::Truncated => write!(f, "envelope is truncated"),
            EnvelopeError::BadMagic => write!(f, "bad envelope magic"),
            EnvelopeError::UnsupportedVersion { found } => {
                write!(f, "unsupported envelope version {found}")
            }
            EnvelopeError::WrongKind { expected, found } => {
                write!(f, "wrong envelope kind {found} (expected {expected})")
            }
            EnvelopeError::ChecksumMismatch => write!(f, "envelope checksum mismatch"),
            EnvelopeError::TrailingBytes => write!(f, "bytes trail the envelope"),
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
    pub fn seal(&self, kind: u8, payload: &[u8], out: &mut Vec<u8>) {
        out.reserve(HEADER_LEN + payload.len() + CHECKSUM_LEN);
        out.extend_from_slice(&self.magic);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.push(kind);
        out.extend_from_slice(
            &u64::try_from(payload.len())
                .unwrap_or(u64::MAX)
                .to_le_bytes(),
        );
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
pub fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(le_array(b))
}

/// Little-endian `u64` from the first 8 bytes of `b`, zero-padded when
/// shorter.
#[inline]
pub fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(le_array(b))
}

/// Little-endian `i64` from the first 8 bytes of `b`, zero-padded when
/// shorter.
#[inline]
pub fn le_i64(b: &[u8]) -> i64 {
    i64::from_le_bytes(le_array(b))
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
    fn le_readers_zero_pad_short_input() {
        assert_eq!(le_u32(&[1, 2]), 0x0201);
        assert_eq!(le_u64(&7u64.to_le_bytes()), 7);
        assert_eq!(le_i64(&(-3i64).to_le_bytes()), -3);
    }
}
