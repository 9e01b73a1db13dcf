//! Frame transport: length-validated reading and writing of sealed codec
//! envelopes over a byte stream.
//!
//! A frame on the wire *is* a sealed envelope from `skyweb_core::codec` —
//! header (magic, format version, kind, payload length), payload, FNV-1a64
//! checksum — with no extra framing. The transport's one job is to read
//! exactly one envelope from a stream **without trusting the peer**:
//!
//! 1. read the fixed-size header and parse it ([`skyweb_core::parse_header`]
//!    validates magic and version before the length is even looked at);
//! 2. check the claimed payload length against the caller's cap *before
//!    allocating a single byte* — a 16-byte frame claiming a 2⁴⁰ payload
//!    costs one 15-byte read and an error, not a terabyte allocation;
//! 3. read the payload and checksum, then hand the complete envelope to the
//!    codec's `decode_*` functions, which re-validate everything including
//!    the checksum.
//!
//! Truncation shows up as [`NetError::Disconnected`] (the peer closed
//! mid-frame) or [`NetError::TimedOut`] (the peer stalled mid-frame and the
//! socket's read timeout fired — the slowloris defense: a worker blocks for
//! at most the configured timeout, never forever).

// L2: no `as` casts on a wire path; test code is exempt.
#![cfg_attr(not(test), deny(clippy::as_conversions))]

use std::io::{Read, Write};

use skyweb_core::{parse_header, CodecError, CHECKSUM_LEN, HEADER_LEN};

/// Hard cap on the payload length of a post-handshake frame (32 MiB) —
/// far above any real plan or response batch, far below a memory-exhaustion
/// allocation.
pub const MAX_FRAME_LEN: usize = 32 * 1024 * 1024;

/// Cap on handshake frames (64 KiB): a hello is a version and a label, a
/// welcome is ranker metadata plus a schema. Anything bigger is an attack.
pub const MAX_HANDSHAKE_FRAME_LEN: usize = 64 * 1024;

/// Why a wire operation failed. Transport failures are mapped onto the
/// transient [`QueryError`](skyweb_hidden_db::QueryError) taxonomy at the
/// oracle boundary (see `docs/wire-protocol.md`); this type is the precise
/// diagnosis underneath.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A socket operation failed.
    Io {
        /// The I/O error kind.
        kind: std::io::ErrorKind,
        /// Human-readable detail from the OS error.
        detail: String,
    },
    /// The peer closed the connection in the middle of a frame (or before
    /// a reply it owed).
    Disconnected,
    /// A frame header claims a payload larger than the transport cap; the
    /// claim was rejected before any payload byte was read or allocated.
    FrameTooLarge {
        /// The length the header claimed.
        claimed: u64,
        /// The cap it exceeded.
        max: usize,
    },
    /// The bytes failed envelope validation (bad magic, foreign version,
    /// checksum mismatch, malformed payload, ...).
    Codec(CodecError),
    /// The peer speaks a different wire-protocol version.
    ProtocolMismatch {
        /// The version this side speaks.
        ours: u32,
        /// The version the peer announced.
        theirs: u32,
    },
    /// The peer sent a frame kind that is invalid in the current protocol
    /// state (e.g. a plan before the handshake, a checkpoint mid-stream).
    UnexpectedKind {
        /// The envelope kind found.
        found: u8,
    },
    /// A read did not complete within the socket's read timeout — the
    /// slowloris defense tripped, or an idle connection expired.
    TimedOut,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io { kind, detail } => write!(f, "socket error ({kind:?}): {detail}"),
            NetError::Disconnected => write!(f, "peer disconnected mid-frame"),
            NetError::FrameTooLarge { claimed, max } => {
                write!(f, "frame claims a {claimed}-byte payload (cap: {max})")
            }
            NetError::Codec(e) => write!(f, "invalid frame: {e}"),
            NetError::ProtocolMismatch { ours, theirs } => {
                write!(
                    f,
                    "peer speaks wire protocol {theirs}, this side speaks {ours}"
                )
            }
            NetError::UnexpectedKind { found } => {
                write!(f, "frame kind {found} is invalid in this protocol state")
            }
            NetError::TimedOut => write!(f, "read timed out mid-frame"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        NetError::Codec(e)
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            // Both kinds occur for an expired read timeout, depending on
            // platform: unix reports WouldBlock, windows TimedOut.
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => NetError::TimedOut,
            std::io::ErrorKind::UnexpectedEof => NetError::Disconnected,
            kind => NetError::Io {
                kind,
                detail: e.to_string(),
            },
        }
    }
}

/// Writes one sealed envelope to the stream and flushes it.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> Result<(), NetError> {
    w.write_all(frame)?;
    w.flush()?;
    Ok(())
}

/// Fills `buf` completely, distinguishing a clean end-of-stream *before the
/// first byte* (`Ok(false)`: the peer hung up at a frame boundary, which is
/// how connections normally end) from one in the middle
/// ([`NetError::Disconnected`]: the peer died mid-frame).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, NetError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false)
                } else {
                    Err(NetError::Disconnected)
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(NetError::from(e)),
        }
    }
    Ok(true)
}

/// Reads one complete envelope from the stream, validating the header's
/// length claim against `max_payload` *before* allocating the payload
/// buffer.
///
/// Returns `Ok(None)` on a clean end-of-stream at a frame boundary, and
/// `Ok(Some((kind, frame)))` with the complete envelope bytes (header,
/// payload and checksum) otherwise — ready for the codec's `decode_*`
/// functions, which still re-validate kind, exact length and checksum.
pub fn read_frame(
    r: &mut impl Read,
    max_payload: usize,
) -> Result<Option<(u8, Vec<u8>)>, NetError> {
    let mut header = [0u8; HEADER_LEN];
    if !read_exact_or_eof(r, &mut header)? {
        return Ok(None);
    }
    let (kind, claimed) = parse_header(&header)?;
    let payload_len = match usize::try_from(claimed) {
        Ok(len) if len <= max_payload => len,
        _ => {
            return Err(NetError::FrameTooLarge {
                claimed,
                max: max_payload,
            })
        }
    };
    let mut frame = vec![0u8; HEADER_LEN + payload_len + CHECKSUM_LEN];
    frame[..HEADER_LEN].copy_from_slice(&header);
    if !read_exact_or_eof(r, &mut frame[HEADER_LEN..])? {
        return Err(NetError::Disconnected);
    }
    Ok(Some((kind, frame)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyweb_core::codec::{FORMAT_VERSION, MAGIC};
    use skyweb_core::{encode_hello, Hello, KIND_PLAN, WIRE_PROTOCOL};

    #[test]
    fn round_trips_a_frame_over_a_buffer() {
        let sealed = encode_hello(&Hello {
            protocol: WIRE_PROTOCOL,
            label: "t".to_string(),
        });
        let mut stream = Vec::new();
        write_frame(&mut stream, &sealed).unwrap();
        let mut reader = stream.as_slice();
        let (kind, frame) = read_frame(&mut reader, MAX_FRAME_LEN).unwrap().unwrap();
        assert_eq!(kind, skyweb_core::KIND_HELLO);
        assert_eq!(frame, sealed);
        // A second read sees the clean end of stream.
        assert_eq!(read_frame(&mut reader, MAX_FRAME_LEN).unwrap(), None);
    }

    #[test]
    fn oversized_length_claim_is_rejected_before_allocation() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        frame.push(KIND_PLAN);
        frame.extend_from_slice(&(1u64 << 40).to_le_bytes());
        frame.push(0);
        assert_eq!(frame.len(), 16);
        let mut reader = frame.as_slice();
        match read_frame(&mut reader, MAX_FRAME_LEN) {
            Err(NetError::FrameTooLarge { claimed, max }) => {
                assert_eq!(claimed, 1 << 40);
                assert_eq!(max, MAX_FRAME_LEN);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn mid_frame_eof_is_not_a_clean_end() {
        let sealed = encode_hello(&Hello {
            protocol: WIRE_PROTOCOL,
            label: "t".to_string(),
        });
        for cut in 1..sealed.len() {
            let mut reader = &sealed[..cut];
            let got = read_frame(&mut reader, MAX_FRAME_LEN);
            assert!(
                matches!(got, Err(NetError::Disconnected) | Err(NetError::Codec(_))),
                "cut at {cut}: got {got:?}"
            );
        }
    }
}
