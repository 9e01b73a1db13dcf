//! Persistent columnar segments: the on-disk form of a [`crate::HiddenDb`].
//!
//! Everything the indexed engine precomputes in RAM — the rank permutation,
//! its inverse, the rank-ordered columnar values with per-64-rank-block zone
//! maps, and the per-attribute posting lists with prefix counts — is built
//! once by [`SegmentWriter`] and persisted as independently checksummed
//! *sections*, so [`SegmentReader`] can serve queries straight off the file:
//!
//! * **Cold open is O(footer + eagerly-validated metadata)**, not O(n): the
//!   reader loads the fixed-size trailer, the footer (schema, ranker name,
//!   section directory), the zone maps and the posting prefix counts — a
//!   few hundred KB even at n = 10M — and nothing else.
//! * **Everything bulky hydrates lazily, per chunk.** Column values, the
//!   permutation, posting orders and tuple ids load only when a query
//!   first touches their chunk (4096 values by default). Each chunk is
//!   validated once and cached as its packed block, which every read
//!   extracts its values from in place: for the segment's lifetime by
//!   default, or evicted by clock under a cache budget. The engine reads
//!   through column cursors, which hold one block per column and go back
//!   to the cache only when a read leaves the chunk. The `Arc<Tuple>`s
//!   behind query responses are built column by column from those blocks,
//!   a chunk at a time into a sticky tuple table by default, and alone for
//!   each returned tuple under a budget. `Ranker::precompute` never runs
//!   on the load path.
//! * **Every byte is covered by a checksum.** Each section is one
//!   [`crate::envelope`] envelope (magic + version + kind + length + FNV-1a
//!   64 checksum); the directory is covered by the footer's envelope, and
//!   the trailer checksums itself. Every payload is read and written
//!   through that module's payload codec, the one checkpoints and wire
//!   frames use, so the footer's schema is the same bytes a `Welcome`
//!   frame carries. [`SegmentReader::verify`] performs the full O(file)
//!   scrub — every truncation and every single-bit flip of a segment is
//!   rejected with a typed [`SegmentError`], never a panic or a silent
//!   mis-read (pinned by the corruption battery in
//!   `tests/proptest_segment.rs`).
//!
//! Values are compressed with frame-of-reference + bit-packing: each block
//! of values stores its minimum and the per-value deltas at the smallest
//! sufficient bit width, which compresses both low-cardinality attribute
//! columns and the near-sequential tuple-id column well. Every section
//! payload is made of such blocks, and every lazy chunk is exactly one,
//! read back only through `SegmentReader::validate_chunk`. The full layout
//! is specified in `docs/segment-format.md`.
//!
//! File access goes through one [`BlockSource`] trait with two shipped
//! implementations — positioned reads against a [`std::fs::File`]
//! ([`FileSource`]) and an in-memory byte buffer ([`MemSource`]) so tests
//! and the corruption battery run without touching a filesystem. A
//! memory-mapped source can slot in behind the same trait without touching
//! the reader (this crate forbids `unsafe`, so mmap itself stays out).

// L2: no `as` casts on a wire path; test code is exempt.
#![cfg_attr(not(test), deny(clippy::as_conversions))]

use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::conc::ClockCacheCore;
use crate::envelope::{
    fnv1a64, le_u64, put_bool, put_schema, put_str, put_u32, put_u64, put_u8, put_usize,
    read_schema, Envelope, EnvelopeError, Reader,
};
use crate::index::{ColumnCursors, IndexStorage, BLOCK};
use crate::sync::StdSync;
use crate::{AttrId, HiddenDb, Schema, Tuple, Value};

/// Audited numeric conversions for the wire paths.
///
/// Policy L2 (`clippy::as_conversions`, denied at the top of this file)
/// bans `as` casts here: a lossy cast on an encode or decode path is a
/// data-corruption bug, not a style nit. Every conversion funnels through
/// these helpers instead. Each helper is byte-identical to the truncating
/// `as` cast it replaces — it zero-extends the source to `u128`, masks to
/// the target width and converts with `try_from`, so the truncation points
/// are all in one reviewable place and no `as` appears on the wire paths.
/// The `usize` helpers assume the 64-bit targets this crate supports.
mod cast {
    /// Unsigned sources accepted by the audited casts.
    pub(super) trait Word: Copy {
        /// Zero-extends to `u128`.
        fn wide(self) -> u128;
    }
    impl Word for u8 {
        #[inline]
        fn wide(self) -> u128 {
            u128::from(self)
        }
    }
    impl Word for u16 {
        #[inline]
        fn wide(self) -> u128 {
            u128::from(self)
        }
    }
    impl Word for u32 {
        #[inline]
        fn wide(self) -> u128 {
            u128::from(self)
        }
    }
    impl Word for u64 {
        #[inline]
        fn wide(self) -> u128 {
            u128::from(self)
        }
    }
    impl Word for u128 {
        #[inline]
        fn wide(self) -> u128 {
            self
        }
    }
    impl Word for usize {
        #[inline]
        fn wide(self) -> u128 {
            // Infallible: usize is at most 64 bits on supported targets.
            u128::try_from(self).unwrap_or(u128::MAX)
        }
    }

    /// Truncates to the low 8 bits, exactly like `v as u8`.
    #[inline]
    pub(super) fn to_u8<W: Word>(v: W) -> u8 {
        u8::try_from(v.wide() & u128::from(u8::MAX)).unwrap_or(u8::MAX)
    }

    /// Truncates to the low 32 bits, exactly like `v as u32`.
    #[inline]
    pub(super) fn to_u32<W: Word>(v: W) -> u32 {
        u32::try_from(v.wide() & u128::from(u32::MAX)).unwrap_or(u32::MAX)
    }

    /// Truncates to the low 64 bits, exactly like `v as u64`.
    #[inline]
    pub(super) fn to_u64<W: Word>(v: W) -> u64 {
        u64::try_from(v.wide() & u128::from(u64::MAX)).unwrap_or(u64::MAX)
    }

    /// Truncates to the low 64 bits and converts to `usize`, exactly like
    /// `v as usize` on the 64-bit targets this crate supports.
    #[inline]
    pub(super) fn to_usize<W: Word>(v: W) -> usize {
        usize::try_from(v.wide() & u128::from(u64::MAX)).unwrap_or(usize::MAX)
    }
}

/// Magic bytes every segment section starts with (`b"SWSG"`).
pub const SEGMENT_MAGIC: [u8; 4] = *b"SWSG";

/// Magic bytes of the fixed-size trailer at the end of the file.
pub const TRAILER_MAGIC: [u8; 8] = *b"SWSGTAIL";

/// The segment format version this build writes and the only one it
/// reads: every lazy chunk is a single frame-of-reference block.
pub const SEGMENT_VERSION: u16 = 3;

/// The section envelope: [`SEGMENT_MAGIC`] at [`SEGMENT_VERSION`].
const SWSG: Envelope = Envelope {
    magic: SEGMENT_MAGIC,
    version: SEGMENT_VERSION,
};

/// Number of values per lazily-hydrated chunk (a multiple of the zone-map
/// block size, so one zone block never spans two chunks).
pub const DEFAULT_CHUNK: usize = 4096;

/// Size of the fixed trailer: magic (8) + footer offset (8) + footer length
/// (8) + FNV-1a 64 checksum of the preceding 24 bytes (8).
pub const TRAILER_LEN: usize = 32;

/// Section kind: the footer (meta + directory).
const KIND_FOOTER: u8 = 1;
/// Section kind: zone maps (per-attribute per-block min/max), eager.
const KIND_ZONES: u8 = 2;
/// Section kind: one attribute's posting prefix counts, eager.
const KIND_STARTS: u8 = 3;
/// Section kind: one chunk of the rank permutation.
const KIND_PERM: u8 = 4;
/// Section kind: one chunk of the inverse permutation (store idx → rank).
const KIND_RANK_OF: u8 = 5;
/// Section kind: one chunk of one attribute's rank-ordered column.
const KIND_RANK_COL: u8 = 6;
/// Section kind: one chunk of one attribute's store-ordered column.
const KIND_STORE_COL: u8 = 7;
/// Section kind: one chunk of one attribute's posting order.
const KIND_ORDER: u8 = 8;
/// Section kind: one chunk of the tuple ids (u64).
const KIND_IDS: u8 = 9;

/// Shard count of the bounded chunk cache.
const CACHE_SHARDS: usize = 8;
/// Approximate per-chunk bookkeeping overhead charged on top of a cached
/// chunk's bytes.
const CHUNK_OVERHEAD: u64 = 32;

fn kind_name(kind: u8) -> &'static str {
    match kind {
        KIND_FOOTER => "footer",
        KIND_ZONES => "zones",
        KIND_STARTS => "starts",
        KIND_PERM => "perm",
        KIND_RANK_OF => "rank-of",
        KIND_RANK_COL => "rank-col",
        KIND_STORE_COL => "store-col",
        KIND_ORDER => "order",
        KIND_IDS => "ids",
        _ => "unknown",
    }
}

/// Why a segment was rejected (or a lazy block failed to load). A corrupted,
/// truncated or foreign file always surfaces as one of these — it is never
/// silently mis-read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// The underlying [`BlockSource`] failed (file system error).
    Io {
        /// The I/O error kind.
        kind: std::io::ErrorKind,
        /// Human-readable detail from the OS error.
        detail: String,
    },
    /// The file (or a section) ends before the structure it claims to carry.
    Truncated,
    /// A section does not start with the magic `SWSG` (or the trailer does
    /// not start with `SWSGTAIL`).
    BadMagic,
    /// The segment was written by an unknown format version.
    UnsupportedVersion {
        /// The version found in the section header.
        found: u16,
    },
    /// A section carries a different kind than the directory claims.
    WrongKind {
        /// The kind the directory (or trailer walk) expected.
        expected: u8,
        /// The kind found in the section header.
        found: u8,
    },
    /// A checksum does not match: the bytes were corrupted.
    ChecksumMismatch,
    /// A section payload decoded cleanly but left unconsumed bytes behind.
    TrailingBytes,
    /// The bytes parse but describe an inconsistent segment (bad directory
    /// geometry, out-of-range values, wrong chunk lengths, ...).
    Malformed {
        /// What was inconsistent.
        detail: String,
    },
    /// The segment was written under a different ranking function than the
    /// one supplied to [`crate::HiddenDb::open_segment`].
    RankerMismatch {
        /// The ranker name recorded in the segment.
        expected: String,
        /// The name of the ranker the caller supplied.
        found: String,
    },
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::Io { kind, detail } => {
                write!(f, "segment I/O error ({kind:?}): {detail}")
            }
            SegmentError::Truncated => write!(f, "segment is truncated"),
            SegmentError::BadMagic => write!(f, "bad magic: not a skyweb segment"),
            SegmentError::UnsupportedVersion { found } => write!(
                f,
                "unsupported segment version {found} (supported: {SEGMENT_VERSION})"
            ),
            SegmentError::WrongKind { expected, found } => write!(
                f,
                "wrong section kind {found} (expected {expected} = {})",
                kind_name(*expected)
            ),
            SegmentError::ChecksumMismatch => {
                write!(f, "segment checksum mismatch: corrupted bytes")
            }
            SegmentError::TrailingBytes => {
                write!(f, "section payload left trailing bytes unconsumed")
            }
            SegmentError::Malformed { detail } => write!(f, "malformed segment: {detail}"),
            SegmentError::RankerMismatch { expected, found } => write!(
                f,
                "segment was written under ranker '{expected}' but '{found}' was supplied"
            ),
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<EnvelopeError> for SegmentError {
    fn from(e: EnvelopeError) -> Self {
        match e {
            EnvelopeError::Truncated => SegmentError::Truncated,
            EnvelopeError::BadMagic => SegmentError::BadMagic,
            EnvelopeError::UnsupportedVersion { found } => {
                SegmentError::UnsupportedVersion { found }
            }
            EnvelopeError::WrongKind { expected, found } => {
                SegmentError::WrongKind { expected, found }
            }
            EnvelopeError::ChecksumMismatch => SegmentError::ChecksumMismatch,
            EnvelopeError::TrailingBytes => SegmentError::TrailingBytes,
            EnvelopeError::BadTag { .. } => malformed(e.to_string()),
        }
    }
}

impl From<std::io::Error> for SegmentError {
    fn from(e: std::io::Error) -> Self {
        SegmentError::Io {
            kind: e.kind(),
            detail: e.to_string(),
        }
    }
}

fn malformed(detail: impl Into<String>) -> SegmentError {
    SegmentError::Malformed {
        detail: detail.into(),
    }
}

fn missing_section(kind: u8, attr: u32, chunk: u32) -> SegmentError {
    malformed(format!(
        "missing section {}[attr {attr}, chunk {chunk}]",
        kind_name(kind)
    ))
}

/// Random-access byte source a segment is read through.
///
/// The reader only ever issues positioned reads of whole sections, so any
/// backend that can serve `read_exact_at` works: a file ([`FileSource`]), a
/// byte buffer ([`MemSource`]), or — behind the same trait, without touching
/// the reader — a memory map or a remote block store.
pub trait BlockSource: Send + Sync {
    /// Total number of bytes in the source.
    fn len(&self) -> u64;

    /// `true` if the source holds no bytes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fills `buf` from the bytes at `offset`, failing (never short-reading)
    /// if the range is out of bounds.
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), SegmentError>;
}

/// A [`BlockSource`] over an opened file, using positioned reads (no shared
/// cursor, so concurrent sessions never serialize on a seek).
pub struct FileSource {
    #[cfg(unix)]
    file: File,
    #[cfg(not(unix))]
    file: std::sync::Mutex<File>,
    len: u64,
}

impl FileSource {
    /// Opens `path` read-only.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, SegmentError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        #[cfg(not(unix))]
        let file = std::sync::Mutex::new(file);
        Ok(FileSource { file, len })
    }
}

impl BlockSource for FileSource {
    fn len(&self) -> u64 {
        self.len
    }

    #[cfg(unix)]
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), SegmentError> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, offset)?;
        Ok(())
    }

    #[cfg(not(unix))]
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), SegmentError> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(buf)?;
        Ok(())
    }
}

/// A [`BlockSource`] over an in-memory byte buffer — how the differential
/// and corruption test suites exercise the full reader without a filesystem.
#[derive(Clone)]
pub struct MemSource {
    bytes: Arc<[u8]>,
}

impl MemSource {
    /// Wraps owned bytes.
    pub fn new(bytes: Vec<u8>) -> Self {
        MemSource {
            bytes: bytes.into(),
        }
    }
}

impl BlockSource for MemSource {
    fn len(&self) -> u64 {
        cast::to_u64(self.bytes.len())
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), SegmentError> {
        let start = usize::try_from(offset).map_err(|_| SegmentError::Truncated)?;
        let end = start
            .checked_add(buf.len())
            .ok_or(SegmentError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SegmentError::Truncated);
        }
        buf.copy_from_slice(&self.bytes[start..end]);
        Ok(())
    }
}

// Frame-of-reference + bit-packing: `count (u32) · min · width (u8) · packed
// little-endian u64 words`. Deltas from the block minimum are packed at the
// smallest sufficient width, low bits first. One implementation serves both
// value widths (`u32` columns, `u64` tuple ids): `ForBlock::parse` validates
// a block of either width and keeps it packed, and `ForBlock::expand`
// decodes it into a `Vec` of that width.

/// A value width the FOR packer handles.
trait Packed: Copy + Ord + Default {
    /// Bits per value, the widest legal delta.
    const BITS: u32;
    /// Reads one little-endian value (a block minimum).
    fn read(r: &mut Reader<'_>) -> Result<Self, EnvelopeError>;
    /// Appends one little-endian value (a block minimum).
    fn put(self, out: &mut Vec<u8>);
    /// Zero-extends to `u64`.
    fn widen(self) -> u64;
    /// Truncates from `u64` to the value width.
    fn truncate(v: u64) -> Self;
}

macro_rules! impl_packed {
    ($t:ty, $read:ident, $put:ident, $truncate:ident) => {
        impl Packed for $t {
            const BITS: u32 = <$t>::BITS;
            fn read(r: &mut Reader<'_>) -> Result<Self, EnvelopeError> {
                r.$read()
            }
            fn put(self, out: &mut Vec<u8>) {
                $put(out, self);
            }
            #[inline]
            fn widen(self) -> u64 {
                u64::from(self)
            }
            #[inline]
            fn truncate(v: u64) -> Self {
                cast::$truncate(v)
            }
        }
    };
}
impl_packed!(u32, u32, put_u32, to_u32);
impl_packed!(u64, u64, put_u64, to_u64);

fn pack<T: Packed>(values: &[T], out: &mut Vec<u8>) {
    let min = values.iter().copied().min().unwrap_or_default();
    let spread = values.iter().copied().max().unwrap_or_default().widen() - min.widen();
    // The spread's bit length: 0 for a constant (or empty) block.
    let width = u64::BITS - spread.leading_zeros();
    put_u32(out, cast::to_u32(values.len()));
    min.put(out);
    put_u8(out, cast::to_u8(width));
    if width == 0 {
        return;
    }
    let mut acc: u128 = 0;
    let mut used: u32 = 0;
    for &v in values {
        acc |= u128::from(v.widen() - min.widen()) << used;
        used += width;
        while used >= 64 {
            put_u64(out, cast::to_u64(acc));
            acc >>= 64;
            used -= 64;
        }
    }
    if used > 0 {
        put_u64(out, cast::to_u64(acc));
    }
}

/// One validated FOR block, kept packed: value `i` is `min` plus the
/// `width`-bit delta at bit `i · width` of the little-endian `words`, read
/// in place. The words are kept as their file bytes and end in one zero
/// pad word, so every value can load the 8 bytes from its first byte on.
/// Both chunk caches hold every lazy chunk in this form; only `verify`,
/// the prefix counts and the zone maps expand blocks.
struct ForBlock {
    min: u64,
    width: u32,
    /// `2^width − 1`: the largest delta the width admits.
    mask: u64,
    len: usize,
    words: Box<[u8]>,
}

impl ForBlock {
    /// Parses one block of at most `max_count` `T` values. Checks, in this
    /// order: the count claim, before anything is allocated (a width-0
    /// block carries no body bytes, so nothing else bounds it); the width;
    /// the body length; and that no value overflows `T`.
    fn parse<T: Packed>(r: &mut Reader<'_>, max_count: usize) -> Result<Self, SegmentError> {
        let len = cast::to_usize(r.u32()?);
        if len > max_count {
            return Err(malformed(format!(
                "packed block claims {len} values, expected at most {max_count}"
            )));
        }
        let min = T::read(r)?.widen();
        let width = u32::from(r.u8()?);
        if width > T::BITS {
            return Err(malformed(format!("bit width {width} > {}", T::BITS)));
        }
        let body = cast::to_usize((cast::to_u64(len) * u64::from(width)).div_ceil(64));
        let mut words = Vec::with_capacity(body * 8 + 8);
        words.extend_from_slice(r.take(body * 8)?);
        words.resize(body * 8 + 8, 0);
        let block = ForBlock {
            min,
            width,
            mask: u64::MAX.checked_shr(64 - width).unwrap_or(0),
            len,
            words: words.into(),
        };
        if !block.all_at_most(u64::MAX >> (64 - T::BITS)) {
            return Err(malformed(format!("packed value overflows u{}", T::BITS)));
        }
        Ok(block)
    }

    /// The delta of value `i` from `min`, extracted in place.
    #[inline]
    fn delta(&self, i: usize) -> u64 {
        let pos = i * cast::to_usize(self.width);
        if self.width <= 56 {
            // The value starts in byte pos / 8, at most 7 bits in, so the
            // one load from that byte holds all of its bits.
            return (self.load(pos / 8) >> (pos % 8)) & self.mask;
        }
        let (word, bit) = (pos / 64 * 8, cast::to_u32(pos % 64));
        // `<< 1 <<` keeps a word-aligned value from shifting by 64.
        (self.load(word) >> bit | self.load(word + 8) << 1 << (63 - bit)) & self.mask
    }

    /// The little-endian `u64` at byte `at`. The pad word keeps the load in
    /// bounds from any byte of the packed words.
    #[inline]
    fn load(&self, at: usize) -> u64 {
        le_u64(&self.words[at..at + 8])
    }

    /// Value `i`. `parse` proved that `min + delta` fits the value width.
    #[inline]
    fn get(&self, i: usize) -> u64 {
        self.min + self.delta(i)
    }

    /// `true` iff every value is at most `limit`. The bound
    /// `min + 2^width − 1` settles most blocks; the rest are scanned for
    /// their largest delta, which may sum past `u64` on a forged block.
    fn all_at_most(&self, limit: u64) -> bool {
        if self
            .min
            .checked_add(self.mask)
            .is_some_and(|top| top <= limit)
        {
            return true;
        }
        let max_delta = (0..self.len).map(|i| self.delta(i)).max().unwrap_or(0);
        self.min
            .checked_add(max_delta)
            .is_some_and(|max| max <= limit)
    }

    /// The lane bitset of values `start..start + len` against `[lo, hi]`:
    /// bit `j` is set iff value `start + j` lies in the range. Each delta
    /// is compared in place against the range less `min`.
    #[inline]
    fn lanes_within(&self, start: usize, len: usize, lo: u64, hi: u64) -> u64 {
        let Some(top) = hi.checked_sub(self.min) else {
            return 0;
        };
        let bottom = lo.saturating_sub(self.min);
        let Some(span) = top.checked_sub(bottom) else {
            return 0;
        };
        let within = |delta: u64| delta.wrapping_sub(bottom) <= span;
        if len == BLOCK && start.is_multiple_of(BLOCK) {
            macro_rules! by_width {
                ($($w:literal)*) => {
                    match self.width {
                        $($w => return self.zone_block_lanes::<$w>(start, within),)*
                        _ => {}
                    }
                };
            }
            by_width!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32);
        }
        (0..len).fold(0, |mask, j| {
            mask | u64::from(within(self.delta(start + j))) << j
        })
    }

    /// [`ForBlock::lanes_within`] of a whole zone block, the 64 values from
    /// `start`, a multiple of 64, at width `W`. Each run of 8 values spans
    /// `W` whole bytes, so within a run every byte offset and shift is a
    /// constant: this reads the lanes as fast as a decoded column.
    #[inline(always)]
    fn zone_block_lanes<const W: usize>(&self, start: usize, within: impl Fn(u64) -> bool) -> u64 {
        let first = start / 8 * W;
        let bytes = &self.words[first..first + 8 * W + 8];
        let mut mask = 0;
        for run in (0..8).rev() {
            let run = &bytes[run * W..run * W + W + 8];
            for k in (0..8).rev() {
                let pos = k * W;
                let delta = (le_u64(&run[pos / 8..pos / 8 + 8]) >> (pos % 8)) & self.mask;
                mask = mask << 1 | u64::from(within(delta));
            }
        }
        mask
    }

    /// Every value, decoded.
    fn expand<T: Packed>(&self) -> Vec<T> {
        (0..self.len).map(|i| T::truncate(self.get(i))).collect()
    }

    /// Bytes either chunk cache charges for this block: its words, the pad
    /// included, plus the per-chunk bookkeeping overhead.
    fn cost(&self) -> u64 {
        cast::to_u64(self.words.len()) + CHUNK_OVERHEAD
    }
}

/// Decodes one FOR block of at most `max_count` values: validate, then
/// expand.
fn unpack<T: Packed>(r: &mut Reader<'_>, max_count: usize) -> Result<Vec<T>, SegmentError> {
    Ok(ForBlock::parse::<T>(r, max_count)?.expand())
}

// ---------------------------------------------------------------------------
// Directory
// ---------------------------------------------------------------------------

/// One directory entry: where a section lives in the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DirEntry {
    kind: u8,
    attr: u32,
    chunk: u32,
    offset: u64,
    len: u64,
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Serializes a RAM-built [`crate::HiddenDb`] (store + query index) into the
/// columnar segment format. Output is deterministic: the same database
/// always produces the same bytes.
#[derive(Debug, Clone)]
pub struct SegmentWriter {
    chunk: usize,
}

impl Default for SegmentWriter {
    fn default() -> Self {
        SegmentWriter::new()
    }
}

impl SegmentWriter {
    /// A writer with the default chunk size ([`DEFAULT_CHUNK`]).
    pub fn new() -> Self {
        SegmentWriter {
            chunk: DEFAULT_CHUNK,
        }
    }

    /// Overrides the chunk size (values per lazily-hydrated section).
    ///
    /// # Panics
    /// Panics unless `chunk` is a positive multiple of the zone-map block
    /// size (64).
    pub fn with_chunk_size(mut self, chunk: usize) -> Self {
        assert!(
            chunk > 0 && chunk.is_multiple_of(BLOCK),
            "chunk size must be a positive multiple of {BLOCK}"
        );
        self.chunk = chunk;
        self
    }

    /// Serializes `db` into segment bytes. Fails if `db` is itself
    /// segment-backed (re-export is not supported; write from the RAM build
    /// that produced the segment).
    pub fn write(&self, db: &HiddenDb) -> Result<Vec<u8>, SegmentError> {
        let store = db.store();
        let index = db.index();
        let Some(ram) = index.ram() else {
            return Err(malformed(
                "cannot re-write a segment-backed database; write from the RAM build",
            ));
        };
        let schema = db.schema();
        let n = store.len();
        let m = schema.len();
        let chunks = n.div_ceil(self.chunk);
        let slice = store.as_slice();
        let chunk_range = |c: usize| c * self.chunk..(c * self.chunk + self.chunk).min(n);

        let mut file: Vec<u8> = Vec::new();
        let mut dir: Vec<DirEntry> = Vec::new();
        let mut payload: Vec<u8> = Vec::new();
        let push = |file: &mut Vec<u8>,
                    dir: &mut Vec<DirEntry>,
                    kind: u8,
                    attr: u32,
                    chunk: u32,
                    payload: &[u8]| {
            let offset = cast::to_u64(file.len());
            SWSG.seal(kind, payload, file);
            dir.push(DirEntry {
                kind,
                attr,
                chunk,
                offset,
                len: (cast::to_u64(file.len())) - offset,
            });
        };

        // Store-ordered columns, one section per (attribute, chunk).
        let mut col: Vec<u32> = Vec::with_capacity(self.chunk);
        for attr in 0..m {
            for c in 0..chunks {
                col.clear();
                col.extend(slice[chunk_range(c)].iter().map(|t| t.values[attr]));
                payload.clear();
                pack(&col, &mut payload);
                push(
                    &mut file,
                    &mut dir,
                    KIND_STORE_COL,
                    cast::to_u32(attr),
                    cast::to_u32(c),
                    &payload,
                );
            }
        }
        // Tuple ids.
        let mut ids: Vec<u64> = Vec::with_capacity(self.chunk);
        for c in 0..chunks {
            ids.clear();
            ids.extend(slice[chunk_range(c)].iter().map(|t| t.id));
            payload.clear();
            pack(&ids, &mut payload);
            push(&mut file, &mut dir, KIND_IDS, 0, cast::to_u32(c), &payload);
        }
        // Posting prefix counts (eager) and posting orders (lazy chunks).
        for attr in 0..m {
            payload.clear();
            pack(ram.posting_starts(attr), &mut payload);
            push(
                &mut file,
                &mut dir,
                KIND_STARTS,
                cast::to_u32(attr),
                0,
                &payload,
            );
        }
        for attr in 0..m {
            let order = ram.posting_order(attr);
            for c in 0..chunks {
                payload.clear();
                pack(&order[chunk_range(c)], &mut payload);
                push(
                    &mut file,
                    &mut dir,
                    KIND_ORDER,
                    cast::to_u32(attr),
                    cast::to_u32(c),
                    &payload,
                );
            }
        }
        // Rank-order structures, only when the ranker exposes a total order.
        let has_perm = ram.perm().is_some();
        if let Some(perm) = ram.perm() {
            for c in 0..chunks {
                payload.clear();
                pack(&perm[chunk_range(c)], &mut payload);
                push(&mut file, &mut dir, KIND_PERM, 0, cast::to_u32(c), &payload);
            }
            for c in 0..chunks {
                payload.clear();
                pack(&ram.rank_of()[chunk_range(c)], &mut payload);
                push(
                    &mut file,
                    &mut dir,
                    KIND_RANK_OF,
                    0,
                    cast::to_u32(c),
                    &payload,
                );
            }
            for attr in 0..m {
                let col = ram.rank_col(attr);
                for c in 0..chunks {
                    payload.clear();
                    pack(&col[chunk_range(c)], &mut payload);
                    push(
                        &mut file,
                        &mut dir,
                        KIND_RANK_COL,
                        cast::to_u32(attr),
                        cast::to_u32(c),
                        &payload,
                    );
                }
            }
            payload.clear();
            for attr in 0..m {
                pack(ram.zone_mins(attr), &mut payload);
                pack(ram.zone_maxs(attr), &mut payload);
            }
            push(&mut file, &mut dir, KIND_ZONES, 0, 0, &payload);
        }

        // Footer: meta + directory, itself an enveloped section.
        payload.clear();
        put_usize(&mut payload, n);
        put_usize(&mut payload, db.k());
        put_u32(&mut payload, cast::to_u32(self.chunk));
        put_u32(&mut payload, cast::to_u32(BLOCK));
        put_bool(&mut payload, has_perm);
        put_str(&mut payload, db.ranker_name());
        put_schema(&mut payload, schema);
        put_usize(&mut payload, dir.len());
        for e in &dir {
            put_u8(&mut payload, e.kind);
            put_u32(&mut payload, e.attr);
            put_u32(&mut payload, e.chunk);
            put_u64(&mut payload, e.offset);
            put_u64(&mut payload, e.len);
        }
        let footer_off = cast::to_u64(file.len());
        SWSG.seal(KIND_FOOTER, &payload, &mut file);
        let footer_len = cast::to_u64(file.len()) - footer_off;

        // Fixed trailer: how a reader finds the footer from the end.
        let mut trailer = [0u8; TRAILER_LEN];
        trailer[..8].copy_from_slice(&TRAILER_MAGIC);
        trailer[8..16].copy_from_slice(&footer_off.to_le_bytes());
        trailer[16..24].copy_from_slice(&footer_len.to_le_bytes());
        let check = fnv1a64(&trailer[..24]);
        trailer[24..32].copy_from_slice(&check.to_le_bytes());
        file.extend_from_slice(&trailer);
        Ok(file)
    }

    /// Serializes `db` and writes the bytes to `path`, returning the file
    /// size in bytes.
    pub fn write_to_path(
        &self,
        db: &HiddenDb,
        path: impl AsRef<Path>,
    ) -> Result<u64, SegmentError> {
        let bytes = self.write(db)?;
        std::fs::write(path, &bytes)?;
        Ok(cast::to_u64(bytes.len()))
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Options controlling how a [`SegmentReader`] caches chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegmentOpenOptions {
    cache_budget: Option<u64>,
}

impl SegmentOpenOptions {
    /// The defaults: the unbounded sticky cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bounds the chunk cache to roughly `bytes` (clock eviction over eight
    /// shards of `bytes / 8` each). A lookup locks the chunk's shard and
    /// reads the chunk's slot from a side table of about 4 bytes per lazy chunk,
    /// allocated at open outside the budget; it hashes nothing. Either way
    /// each chunk is cached as its
    /// validated frame-of-reference block, still packed, and charged
    /// `8 · words + 32` bytes: its packed `u64` words and one zero pad word,
    /// plus bookkeeping. Every read extracts its value in place, so a hit
    /// decodes nothing. Without a budget the cache is sticky: every block
    /// stays resident for the reader's lifetime once first touched, and so
    /// does each chunk of tuples built from the blocks. Under a budget
    /// blocks are evicted, and tuples are built one at a time and never
    /// cached. A block that a query's column cursor holds stays readable
    /// until the query ends even if the clock evicts it meanwhile: at most
    /// `3 + 2m` such blocks per running query, outside the budget.
    pub fn with_cache_budget(mut self, bytes: u64) -> Self {
        self.cache_budget = Some(bytes);
        self
    }
}

/// Point-in-time snapshot of a [`SegmentReader`]'s cache and decode
/// counters — the reusable stats surface behind
/// [`crate::HiddenDb::storage_stats`] and the bench crate's `report
/// storage` suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StorageStats {
    /// Chunk lookups served from the chunk cache. The engine reads every
    /// lazy column through cursors that hold one chunk each, so under a
    /// budget a hit is one chunk a cursor entered (or a posting walk's
    /// `order` chunk), not one value: a read of the chunk's slot in its
    /// shard's side table, counted under the shard lock the lookup
    /// already holds. Without a budget a cursor that finds
    /// its block resident borrows it uncounted, so a sticky hit is a
    /// posting walk, a tuple-chunk build or a racing first touch that found
    /// its block resident.
    pub cache_hits: u64,
    /// Chunk lookups that loaded from the backing source: column,
    /// permutation, posting and id chunks only, on either backing. Tuples
    /// are built from those chunks and never counted as lookups.
    pub cache_misses: u64,
    /// Chunks evicted by the bounded cache (always 0 without a budget).
    pub cache_evictions: u64,
    /// Bytes charged for the chunks currently resident: `8 · words + 32`
    /// per packed block ([`SegmentOpenOptions::with_cache_budget`]) on
    /// either backing. Without a budget, each chunk of `len` tuples in the
    /// sticky tuple table adds `len · (48 + 4m) + 32`.
    pub bytes_resident: u64,
    /// The configured cache byte budget (`None` = unbounded sticky cache).
    pub cache_budget: Option<u64>,
    /// Column, permutation and posting-order chunks validated, each one
    /// frame-of-reference block, on every path: cache misses on either
    /// backing and [`SegmentReader::verify`]. Tuple-id chunks are not
    /// counted.
    pub decoded_for: u64,
    /// Always 0: format version 3 has no dictionary-coded chunks. The
    /// field stays so that readers of the snapshot keep compiling.
    pub decoded_dict: u64,
    /// Always 0: format version 3 has no run-length-coded chunks. The
    /// field stays so that readers of the snapshot keep compiling.
    pub decoded_rle: u64,
}

/// A segment's lazy columns, numbered so that both caches can address a
/// chunk without hashing: `ids`, then `store-col` and `order` per
/// attribute, then, with a rank permutation, `perm`, `rank-of` and
/// `rank-col` per attribute. Every column has `chunks` chunks.
#[derive(Debug, Clone, Copy)]
struct LazyColumns {
    m: usize,
    chunks: usize,
    has_perm: bool,
}

impl LazyColumns {
    /// Number of lazy columns.
    fn count(self) -> usize {
        if self.has_perm {
            3 + 3 * self.m
        } else {
            1 + 2 * self.m
        }
    }

    /// The ordinal of the column holding lazy chunk `(kind, attr, c)`, or
    /// `None` if the segment has no such chunk.
    #[inline]
    fn ordinal(self, kind: u8, attr: u32, c: usize) -> Option<usize> {
        let (a, m, ranked) = (cast::to_usize(attr), self.m, self.has_perm);
        let ordinal = match kind {
            KIND_IDS if a == 0 => 0,
            KIND_STORE_COL if a < m => 1 + a,
            KIND_ORDER if a < m => 1 + m + a,
            KIND_PERM if ranked && a == 0 => 1 + 2 * m,
            KIND_RANK_OF if ranked && a == 0 => 2 + 2 * m,
            KIND_RANK_COL if ranked && a < m => 3 + 2 * m + a,
            _ => return None,
        };
        (c < self.chunks).then_some(ordinal)
    }
}

/// Lock-free sticky tables: one `OnceLock` cell per lazy chunk, so the
/// unbounded default pays no mutex on the hot warm-query path. Each chunk
/// is validated once, on first touch, and its packed block stays resident,
/// never evicted; so does each chunk of tuples built from the blocks.
struct StickyTables {
    columns: LazyColumns,
    /// Column `o`'s chunk `c` at `o · chunks + c`.
    blocks: Vec<OnceLock<ForBlock>>,
    tuples: Vec<OnceLock<Box<[Arc<Tuple>]>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    resident: AtomicU64,
}

fn once_cells<T>(len: usize) -> Vec<OnceLock<T>> {
    let mut v = Vec::with_capacity(len);
    v.resize_with(len, OnceLock::new);
    v
}

impl StickyTables {
    fn new(columns: LazyColumns) -> Self {
        StickyTables {
            columns,
            blocks: once_cells(columns.count() * columns.chunks),
            tuples: once_cells(columns.chunks),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            resident: AtomicU64::new(0),
        }
    }

    /// The cell of lazy chunk `(kind, attr, c)`, if the segment has one.
    #[inline]
    fn cell(&self, kind: u8, attr: u32, c: usize) -> Option<&OnceLock<ForBlock>> {
        let ordinal = self.columns.ordinal(kind, attr, c)?;
        self.blocks.get(ordinal * self.columns.chunks + c)
    }

    /// Publishes `value` in `cell` unless a racing reader did first, and
    /// charges `cost` only for the copy that stays. Returns the resident
    /// copy.
    fn publish<'a, T>(&self, cell: &'a OnceLock<T>, value: T, cost: u64) -> &'a T {
        let mut charged = 0;
        let resident = cell.get_or_init(|| {
            charged = cost;
            value
        });
        self.resident.fetch_add(charged, Ordering::Relaxed);
        resident
    }
}

/// The sharded clock cache behind a budgeted reader, holding the same
/// validated packed blocks as the sticky tables. Its keys are dense slot
/// numbers, one per lazy chunk ([`BoundedCache::address`]), so a lookup
/// reads a side table and hashes nothing.
struct BoundedCache {
    clock: ClockCacheCore<StdSync, Arc<ForBlock>>,
    columns: LazyColumns,
}

impl BoundedCache {
    fn new(columns: LazyColumns, budget: u64) -> Self {
        let per_column = columns.chunks.div_ceil(CACHE_SHARDS);
        BoundedCache {
            clock: ClockCacheCore::new(CACHE_SHARDS, columns.count() * per_column, budget, false),
            columns,
        }
    }

    /// The shard and the slot within it of lazy chunk `(kind, attr, c)`,
    /// or `None` if the segment has no such chunk.
    ///
    /// The shard is `(c + 7·attr + kind) mod CACHE_SHARDS`, so a column's
    /// consecutive chunks go to consecutive shards. Two chunks of one
    /// column share a shard only when their numbers are congruent modulo
    /// the shard count, so `c / CACHE_SHARDS` tells them apart, and the
    /// column's ordinal keeps columns apart: the slot is
    /// `ordinal · ⌈chunks / CACHE_SHARDS⌉ + c / CACHE_SHARDS`.
    #[inline]
    fn address(&self, kind: u8, attr: u32, c: usize) -> Option<(usize, usize)> {
        let ordinal = self.columns.ordinal(kind, attr, c)?;
        let shard = (c + 7 * cast::to_usize(attr) + usize::from(kind)) % CACHE_SHARDS;
        let slot = ordinal * self.columns.chunks.div_ceil(CACHE_SHARDS) + c / CACHE_SHARDS;
        Some((shard, slot))
    }
}

/// A cached packed block: borrowed from its sticky cell, or shared out of
/// the bounded cache, which may evict it while it is read.
enum BlockRef<'a> {
    Sticky(&'a ForBlock),
    Cached(Arc<ForBlock>),
}

impl std::ops::Deref for BlockRef<'_> {
    type Target = ForBlock;

    fn deref(&self) -> &ForBlock {
        match self {
            BlockRef::Sticky(block) => block,
            BlockRef::Cached(block) => block,
        }
    }
}

/// The chunk cache behind a [`SegmentReader`], holding each chunk as its
/// validated packed block: in sticky `OnceLock` tables when unbounded, in
/// a byte-budgeted clock cache under a budget. Hit/miss/eviction counters
/// feed [`StorageStats`].
///
/// The bounded cache is a [`ClockCacheCore`] instantiated with the
/// production [`StdSync`] facade — the same core the `skyweb-check`
/// interleaving explorer model-checks exhaustively — and maintains its own
/// counters.
enum ChunkCache {
    Sticky(StickyTables),
    Bounded(BoundedCache),
}

impl ChunkCache {
    fn new(columns: LazyColumns, budget: Option<u64>) -> Self {
        match budget {
            None => ChunkCache::Sticky(StickyTables::new(columns)),
            Some(b) => ChunkCache::Bounded(BoundedCache::new(columns, b)),
        }
    }

    /// A resident sticky block, borrowed in place with no counter and no
    /// `Arc`, or `None` under a budget or for a cold chunk. This is how a
    /// column cursor enters a warm chunk without a budget, so the warm path
    /// takes no atomic although every entry call re-enters its chunks.
    /// Sticky cells are immutable once initialized and never evicted, so
    /// the borrow is sound for the reader's lifetime.
    #[inline]
    fn resident(&self, kind: u8, attr: u32, c: usize) -> Option<&ForBlock> {
        match self {
            ChunkCache::Sticky(t) => t.cell(kind, attr, c).and_then(OnceLock::get),
            ChunkCache::Bounded(_) => None,
        }
    }

    /// Lifetime hit count, whichever backing is active.
    fn hit_count(&self) -> u64 {
        match self {
            ChunkCache::Sticky(t) => t.hits.load(Ordering::Relaxed),
            ChunkCache::Bounded(cache) => cache.clock.hit_count(),
        }
    }

    /// Lifetime miss count, whichever backing is active.
    fn miss_count(&self) -> u64 {
        match self {
            ChunkCache::Sticky(t) => t.misses.load(Ordering::Relaxed),
            ChunkCache::Bounded(cache) => cache.clock.miss_count(),
        }
    }

    /// Lifetime eviction count (the sticky backing never evicts).
    fn eviction_count(&self) -> u64 {
        match self {
            ChunkCache::Sticky(_) => 0,
            ChunkCache::Bounded(cache) => cache.clock.eviction_count(),
        }
    }

    /// Bytes charged for the chunks currently resident.
    fn resident_bytes(&self) -> u64 {
        match self {
            ChunkCache::Sticky(t) => t.resident.load(Ordering::Relaxed),
            ChunkCache::Bounded(cache) => cache.clock.resident_bytes(),
        }
    }
}

/// Per-attribute zone-map minima and maxima, indexed `[attr][block]`.
type ZoneMaps = (Vec<Vec<Value>>, Vec<Vec<Value>>);

/// A lazily-hydrating view over one persisted segment.
///
/// [`SegmentReader::open`] validates the trailer, footer, directory and the
/// eager metadata (zone maps, posting prefix counts) — O(footer), not O(n).
/// Everything else loads per chunk on first touch, each load re-validating
/// its section's envelope and checksum. [`SegmentReader::verify`] is the
/// full O(file) scrub used by the corruption battery and by operators who
/// want end-to-end assurance before serving.
pub struct SegmentReader {
    source: Box<dyn BlockSource>,
    options: SegmentOpenOptions,
    n: usize,
    k: usize,
    chunk: usize,
    has_perm: bool,
    ranker_name: String,
    schema: Schema,
    dir: Vec<DirEntry>,
    by_key: HashMap<(u8, u32, u32), usize>,
    footer_off: u64,
    footer_len: u64,
    zone_mins: Vec<Vec<Value>>,
    zone_maxs: Vec<Vec<Value>>,
    starts: Vec<Vec<u32>>,
    cache: ChunkCache,
    decoded: AtomicU64,
    full: OnceLock<Box<[Arc<Tuple>]>>,
}

impl fmt::Debug for SegmentReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SegmentReader")
            .field("n", &self.n)
            .field("k", &self.k)
            .field("chunk", &self.chunk)
            .field("has_perm", &self.has_perm)
            .field("ranker", &self.ranker_name)
            .field("bytes", &self.source.len())
            .field("cache_budget", &self.options.cache_budget)
            .finish()
    }
}

impl SegmentReader {
    /// Opens a segment from `path` through a [`FileSource`].
    pub fn open_path(path: impl AsRef<Path>) -> Result<Self, SegmentError> {
        Self::open(Box::new(FileSource::open(path)?))
    }

    /// Opens a segment from any [`BlockSource`] with default options.
    pub fn open(source: Box<dyn BlockSource>) -> Result<Self, SegmentError> {
        Self::open_with(source, SegmentOpenOptions::default())
    }

    /// Opens a segment from any [`BlockSource`]: validates the trailer, the
    /// footer (meta + section directory) and the eager metadata sections,
    /// leaving every bulky section untouched until a query needs it.
    /// `options` configures the chunk cache budget.
    pub fn open_with(
        source: Box<dyn BlockSource>,
        options: SegmentOpenOptions,
    ) -> Result<Self, SegmentError> {
        let file_len = source.len();
        if file_len < cast::to_u64(TRAILER_LEN) {
            return Err(SegmentError::Truncated);
        }
        let mut trailer = [0u8; TRAILER_LEN];
        source.read_exact_at(file_len - cast::to_u64(TRAILER_LEN), &mut trailer)?;
        if trailer[..8] != TRAILER_MAGIC {
            return Err(SegmentError::BadMagic);
        }
        let stored = le_u64(&trailer[24..32]);
        if fnv1a64(&trailer[..24]) != stored {
            return Err(SegmentError::ChecksumMismatch);
        }
        let footer_off = le_u64(&trailer[8..16]);
        let footer_len = le_u64(&trailer[16..24]);
        if footer_off
            .checked_add(footer_len)
            .is_none_or(|end| end != file_len - cast::to_u64(TRAILER_LEN))
        {
            return Err(malformed("footer does not end at the trailer"));
        }
        let mut footer =
            vec![0u8; usize::try_from(footer_len).map_err(|_| SegmentError::Truncated)?];
        source.read_exact_at(footer_off, &mut footer)?;
        let payload = SWSG.open(&footer, KIND_FOOTER)?;
        let mut r = Reader::new(payload);

        let n = r.usize()?;
        if n > cast::to_usize(u32::MAX) {
            return Err(malformed("n exceeds u32 index space"));
        }
        let k = r.usize()?;
        if k == 0 {
            return Err(malformed("k must be >= 1"));
        }
        let chunk = cast::to_usize(r.u32()?);
        if chunk == 0 || !chunk.is_multiple_of(BLOCK) {
            return Err(malformed(format!(
                "chunk size {chunk} is not a positive multiple of {BLOCK}"
            )));
        }
        let block = cast::to_usize(r.u32()?);
        if block != BLOCK {
            return Err(malformed(format!(
                "zone block size {block} differs from engine block size {BLOCK}"
            )));
        }
        let has_perm = r.bool()?;
        let ranker_name = r.string()?;
        let schema = read_schema(&mut r)?;
        let m = schema.len();
        // An entry is 1 (kind) + 4 (attr) + 4 (chunk) + 8 (offset) + 8
        // (length) bytes.
        let dir_len = r.len_prefix(25)?;
        let mut dir = Vec::with_capacity(dir_len);
        for _ in 0..dir_len {
            dir.push(DirEntry {
                kind: r.u8()?,
                attr: r.u32()?,
                chunk: r.u32()?,
                offset: r.u64()?,
                len: r.u64()?,
            });
        }
        r.finish()?;

        let chunks = n.div_ceil(chunk);
        // The rank-order sections exist only with a rank permutation.
        let ranked = if has_perm { chunks } else { 0 };
        let mut by_key = HashMap::with_capacity(dir.len());
        for (i, e) in dir.iter().enumerate() {
            let (max_attr, max_chunk) = match e.kind {
                KIND_ZONES => (1, usize::from(has_perm)),
                KIND_STARTS => (m, 1),
                KIND_IDS => (1, chunks),
                KIND_PERM | KIND_RANK_OF => (1, ranked),
                KIND_RANK_COL => (m, ranked),
                KIND_STORE_COL | KIND_ORDER => (m, chunks),
                k => {
                    return Err(malformed(format!(
                        "undefined section kind {k} in directory"
                    )))
                }
            };
            if (cast::to_usize(e.attr)) >= max_attr || (cast::to_usize(e.chunk)) >= max_chunk {
                return Err(malformed(format!(
                    "directory entry {}[attr {}, chunk {}] out of range",
                    kind_name(e.kind),
                    e.attr,
                    e.chunk
                )));
            }
            if e.offset
                .checked_add(e.len)
                .is_none_or(|end| end > footer_off)
            {
                return Err(malformed(format!(
                    "section {}[{}, {}] extends past the footer",
                    kind_name(e.kind),
                    e.attr,
                    e.chunk
                )));
            }
            if by_key.insert((e.kind, e.attr, e.chunk), i).is_some() {
                return Err(malformed(format!(
                    "duplicate directory entry {}[{}, {}]",
                    kind_name(e.kind),
                    e.attr,
                    e.chunk
                )));
            }
        }
        // Completeness: every section a query could touch must exist, so
        // lazy loads only ever fail on I/O errors or corrupted bytes. With
        // the range checks above, the directory holds exactly these.
        let expect = |by_key: &HashMap<(u8, u32, u32), usize>,
                      kind: u8,
                      attr: u32,
                      chunk_no: u32|
         -> Result<(), SegmentError> {
            if by_key.contains_key(&(kind, attr, chunk_no)) {
                Ok(())
            } else {
                Err(missing_section(kind, attr, chunk_no))
            }
        };
        for a in 0..cast::to_u32(m) {
            expect(&by_key, KIND_STARTS, a, 0)?;
            for c in 0..cast::to_u32(chunks) {
                expect(&by_key, KIND_STORE_COL, a, c)?;
                expect(&by_key, KIND_ORDER, a, c)?;
                if has_perm {
                    expect(&by_key, KIND_RANK_COL, a, c)?;
                }
            }
        }
        for c in 0..cast::to_u32(chunks) {
            expect(&by_key, KIND_IDS, 0, c)?;
            if has_perm {
                expect(&by_key, KIND_PERM, 0, c)?;
                expect(&by_key, KIND_RANK_OF, 0, c)?;
            }
        }
        if has_perm {
            expect(&by_key, KIND_ZONES, 0, 0)?;
        }

        let mut reader = SegmentReader {
            source,
            options,
            n,
            k,
            chunk,
            has_perm,
            ranker_name,
            schema,
            dir,
            by_key,
            footer_off,
            footer_len,
            zone_mins: Vec::new(),
            zone_maxs: Vec::new(),
            starts: Vec::new(),
            cache: ChunkCache::new(
                LazyColumns {
                    m,
                    chunks,
                    has_perm,
                },
                options.cache_budget,
            ),
            decoded: AtomicU64::new(0),
            full: OnceLock::new(),
        };

        // Eager metadata: posting prefix counts + zone maps. These are what
        // planning and block skipping consult on every query, and they are
        // small (O(domain + n/64) values per attribute).
        for attr in 0..m {
            let bytes = reader.read_entry(reader.entry(KIND_STARTS, cast::to_u32(attr), 0)?)?;
            let starts = reader.decode_starts_section(attr, SWSG.open(&bytes, KIND_STARTS)?)?;
            reader.starts.push(starts);
        }
        if has_perm {
            let bytes = reader.read_entry(reader.entry(KIND_ZONES, 0, 0)?)?;
            (reader.zone_mins, reader.zone_maxs) =
                reader.decode_zones_section(SWSG.open(&bytes, KIND_ZONES)?)?;
        }
        Ok(reader)
    }

    // -- meta accessors ----------------------------------------------------

    /// Number of tuples in the segment.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The top-k constraint recorded at write time.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The schema recorded at write time.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Name of the ranking function the segment was written under.
    pub fn ranker_name(&self) -> &str {
        &self.ranker_name
    }

    /// `true` if the segment persists a rank permutation (the writing
    /// ranker exposed a deterministic total order).
    pub fn has_perm(&self) -> bool {
        self.has_perm
    }

    /// Values per lazily-hydrated chunk.
    pub fn chunk_size(&self) -> usize {
        self.chunk
    }

    fn chunks(&self) -> usize {
        self.n.div_ceil(self.chunk)
    }

    fn chunk_len(&self, c: usize) -> usize {
        self.chunk.min(self.n - c * self.chunk)
    }

    // -- section plumbing --------------------------------------------------

    fn entry(&self, kind: u8, attr: u32, chunk: u32) -> Result<DirEntry, SegmentError> {
        self.by_key
            .get(&(kind, attr, chunk))
            .map(|&i| self.dir[i])
            .ok_or_else(|| missing_section(kind, attr, chunk))
    }

    fn read_entry(&self, e: DirEntry) -> Result<Vec<u8>, SegmentError> {
        let len = usize::try_from(e.len).map_err(|_| SegmentError::Truncated)?;
        let mut buf = vec![0u8; len];
        self.source.read_exact_at(e.offset, &mut buf)?;
        Ok(buf)
    }

    /// Validates one lazy chunk payload — the one validator shared by cache
    /// misses on either backing and [`SegmentReader::verify`], so a
    /// corrupt chunk surfaces with the same [`SegmentError`] wherever it is
    /// hit. The payload is one FOR block (`u64` for tuple ids, `u32`
    /// otherwise) of exactly `chunk_len(c)` values, each within its kind's
    /// range: store indices and ranks below n, column values below the
    /// attribute's domain size. Tuple ids are unconstrained, and only
    /// non-id chunks are counted in `decoded_for`.
    fn validate_chunk(
        &self,
        kind: u8,
        attr: u32,
        c: usize,
        payload: &[u8],
    ) -> Result<ForBlock, SegmentError> {
        let expected = self.chunk_len(c);
        let mut r = Reader::new(payload);
        let block = if kind == KIND_IDS {
            ForBlock::parse::<u64>(&mut r, expected)?
        } else {
            ForBlock::parse::<u32>(&mut r, expected)?
        };
        r.finish()?;
        if block.len != expected {
            return Err(malformed(format!(
                "section {}[{attr}, {c}] holds {} values, expected {expected}",
                kind_name(kind),
                block.len
            )));
        }
        let (bound, column) = match kind {
            KIND_IDS => return Ok(block),
            KIND_PERM | KIND_RANK_OF | KIND_ORDER => (cast::to_u64(self.n), false),
            _ => (
                u64::from(self.schema.attr(cast::to_usize(attr)).domain_size),
                true,
            ),
        };
        if !bound
            .checked_sub(1)
            .is_some_and(|top| block.all_at_most(top))
        {
            return Err(malformed(if column {
                format!(
                    "{}[{attr}] value outside the attribute domain",
                    kind_name(kind)
                )
            } else {
                format!("{} value out of range", kind_name(kind))
            }));
        }
        self.decoded.fetch_add(1, Ordering::Relaxed);
        Ok(block)
    }

    /// Reads, opens and validates lazy chunk `(kind, attr, c)`.
    fn load_chunk(&self, kind: u8, attr: u32, c: usize) -> Result<ForBlock, SegmentError> {
        let bytes = self.read_entry(self.entry(kind, attr, cast::to_u32(c))?)?;
        self.validate_chunk(kind, attr, c, SWSG.open(&bytes, kind)?)
    }

    /// Decodes and validates one posting prefix-count payload (shared with
    /// `verify`).
    fn decode_starts_section(&self, attr: usize, payload: &[u8]) -> Result<Vec<u32>, SegmentError> {
        let d = cast::to_usize(self.schema.attr(attr).domain_size);
        let mut r = Reader::new(payload);
        let starts = unpack::<u32>(&mut r, d + 1)?;
        r.finish()?;
        if starts.len() != d + 1 {
            return Err(malformed(format!(
                "starts[{attr}] has {} entries, expected {}",
                starts.len(),
                d + 1
            )));
        }
        if starts.first() != Some(&0)
            || starts.windows(2).any(|w| w[0] > w[1])
            || starts.last().copied() != Some(cast::to_u32(self.n))
        {
            return Err(malformed(format!(
                "starts[{attr}] is not a nondecreasing prefix-count table over n"
            )));
        }
        Ok(starts)
    }

    /// Decodes and validates the zone-map payload — per attribute, the
    /// per-block minima then maxima (shared with `verify`).
    fn decode_zones_section(&self, payload: &[u8]) -> Result<ZoneMaps, SegmentError> {
        let blocks = self.n.div_ceil(BLOCK);
        let mut r = Reader::new(payload);
        let (mut mins, mut maxs) = (Vec::new(), Vec::new());
        for attr in 0..self.schema.len() {
            for table in [&mut mins, &mut maxs] {
                let vals = unpack::<Value>(&mut r, blocks)?;
                if vals.len() != blocks {
                    return Err(malformed(format!(
                        "zones[{attr}] cover {} blocks, expected {blocks}",
                        vals.len()
                    )));
                }
                table.push(vals);
            }
        }
        r.finish()?;
        Ok((mins, maxs))
    }

    /// Chunk `(kind, attr, c)`'s validated packed block, from whichever
    /// cache backs the reader, counted as a hit or a miss there. A miss
    /// loads and validates the section once and caches the block as it
    /// is, charged [`ForBlock::cost`]: in its sticky cell for the reader's
    /// lifetime, or in the bounded cache, which may evict it or, when it
    /// exceeds its shard, serve it uncached. Out of line: cursors call it
    /// once per chunk they enter, never per value.
    #[inline(never)]
    fn block(&self, kind: u8, attr: u32, c: usize) -> Result<BlockRef<'_>, SegmentError> {
        match &self.cache {
            ChunkCache::Sticky(tables) => {
                let cell = tables
                    .cell(kind, attr, c)
                    .ok_or_else(|| missing_section(kind, attr, cast::to_u32(c)))?;
                if let Some(block) = cell.get() {
                    tables.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(BlockRef::Sticky(block));
                }
                tables.misses.fetch_add(1, Ordering::Relaxed);
                let block = self.load_chunk(kind, attr, c)?;
                let cost = block.cost();
                Ok(BlockRef::Sticky(tables.publish(cell, block, cost)))
            }
            ChunkCache::Bounded(cache) => {
                let (shard, slot) = cache
                    .address(kind, attr, c)
                    .ok_or_else(|| missing_section(kind, attr, cast::to_u32(c)))?;
                if let Some(hit) = cache.clock.get(shard, slot) {
                    return Ok(BlockRef::Cached(hit));
                }
                let block = self.load_chunk(kind, attr, c)?;
                let cost = block.cost();
                Ok(BlockRef::Cached(cache.clock.insert(
                    shard,
                    slot,
                    Arc::new(block),
                    cost,
                )))
            }
        }
    }

    /// Snapshot of the cache and decode counters.
    pub fn storage_stats(&self) -> StorageStats {
        StorageStats {
            cache_hits: self.cache.hit_count(),
            cache_misses: self.cache.miss_count(),
            cache_evictions: self.cache.eviction_count(),
            bytes_resident: self.cache.resident_bytes(),
            cache_budget: self.options.cache_budget,
            decoded_for: self.decoded.load(Ordering::Relaxed),
            decoded_dict: 0,
            decoded_rle: 0,
        }
    }

    /// The tuple at store index `idx`, shared through cursors opened for
    /// this one call (see [`SegmentCursors::share`]).
    pub(crate) fn tuple_at(&self, idx: usize) -> Result<Arc<Tuple>, SegmentError> {
        SegmentCursors::new(self).share(idx)
    }

    /// Chunk `c`'s sticky tuple table, built on first touch and charged
    /// [`SegmentReader::tuple_chunk_cost`].
    fn sticky_tuples<'a>(
        &'a self,
        tables: &'a StickyTables,
        c: usize,
    ) -> Result<&'a [Arc<Tuple>], SegmentError> {
        let cell = tables
            .tuples
            .get(c)
            .ok_or_else(|| missing_section(KIND_IDS, 0, cast::to_u32(c)))?;
        if let Some(tuples) = cell.get() {
            return Ok(tuples);
        }
        let built = self.build_tuples(c)?;
        let cost = self.tuple_chunk_cost(built.len());
        let tuples = tables.publish(cell, built.into_boxed_slice(), cost);
        Ok(tuples)
    }

    /// Chunk `c`'s tuples, built column by column: one block borrow for
    /// the ids and one per store column, not one per value. Reads the ids
    /// first, then store-col 0..m.
    fn build_tuples(&self, c: usize) -> Result<Vec<Arc<Tuple>>, SegmentError> {
        let m = self.schema.len();
        let ids = self.block(KIND_IDS, 0, c)?;
        let mut rows: Vec<(u64, Vec<Value>)> = (0..ids.len)
            .map(|i| (ids.get(i), Vec::with_capacity(m)))
            .collect();
        for attr in 0..m {
            let col = self.block(KIND_STORE_COL, cast::to_u32(attr), c)?;
            for (i, (_, values)) in rows.iter_mut().enumerate() {
                values.push(cast::to_u32(col.get(i)));
            }
        }
        Ok(rows
            .into_iter()
            .map(|(id, values)| Arc::new(Tuple::new(id, values)))
            .collect())
    }

    /// Bytes charged for a sticky chunk of `len` tuples: a rough per-tuple
    /// footprint of the `Arc` and `Tuple` headers plus the values.
    fn tuple_chunk_cost(&self, len: usize) -> u64 {
        cast::to_u64(len) * (48 + 4 * cast::to_u64(self.schema.len())) + CHUNK_OVERHEAD
    }

    /// Hydrates every tuple and returns the contiguous snapshot — the
    /// O(n) escape hatch behind [`TupleStore::as_slice`] for segment-backed
    /// stores (the ranker fallback's selection, oracle ground truth).
    /// Without a budget it shares the sticky tuple
    /// tables, building the chunks no query has touched yet; under one,
    /// each chunk is built once for the snapshot and nothing is inserted
    /// for it but its column chunks. The snapshot is sticky and
    /// deliberately exempt from the cache budget: callers receive a plain
    /// slice whose lifetime is the reader's.
    pub(crate) fn hydrate_all(&self) -> Result<&[Arc<Tuple>], SegmentError> {
        if let Some(full) = self.full.get() {
            return Ok(full);
        }
        let mut all: Vec<Arc<Tuple>> = Vec::with_capacity(self.n);
        for c in 0..self.chunks() {
            match &self.cache {
                ChunkCache::Sticky(tables) => all.extend_from_slice(self.sticky_tuples(tables, c)?),
                ChunkCache::Bounded(_) => all.extend(self.build_tuples(c)?),
            }
        }
        Ok(self.full.get_or_init(|| all.into_boxed_slice()))
    }

    // -- verification ------------------------------------------------------

    /// The full O(file) scrub. It proves that the directory tiles the file
    /// contiguously (no unexamined gaps), so once it succeeds every byte of
    /// the file has been covered by a checksum, and it validates every
    /// section through the validators queries use, budgeted or not, so a
    /// corrupt chunk found here carries the exact error a query would
    /// surface. It then checks what the bytes mean:
    ///
    /// * `perm` is a permutation of `0..n` and `rank-of` is its inverse;
    /// * each attribute's posting `order` is a permutation of `0..n`, and
    ///   its bucket `v` (bounded by `starts`) holds exactly the tuples whose
    ///   `store-col` value is `v`;
    /// * `rank-col[a][r] == store-col[a][perm[r]]` at every rank `r`;
    /// * every zone map contains each `rank-col` value of its block.
    ///
    /// Attributes are checked one at a time, so the scrub holds O(n)
    /// decoded values, whatever the attribute count.
    pub fn verify(&self) -> Result<(), SegmentError> {
        // Geometry: sections tile [0, footer_off), then footer, then trailer.
        let mut extents: Vec<(u64, u64)> = self.dir.iter().map(|e| (e.offset, e.len)).collect();
        extents.sort_unstable();
        let mut cursor = 0u64;
        for &(off, len) in &extents {
            if off != cursor {
                return Err(malformed(format!(
                    "directory leaves bytes [{cursor}, {off}) unaccounted for"
                )));
            }
            cursor = off
                .checked_add(len)
                .ok_or_else(|| malformed("section extent overflows"))?;
        }
        if cursor != self.footer_off {
            return Err(malformed(format!(
                "sections end at {cursor} but the footer starts at {}",
                self.footer_off
            )));
        }
        if self.footer_off + self.footer_len + cast::to_u64(TRAILER_LEN) != self.source.len() {
            return Err(malformed("footer/trailer do not tile to the file size"));
        }

        // Content. `open` proved the directory holds exactly the sections
        // below, so reading them reads every section.
        let (n, chunks) = (self.n, self.chunks());
        let mut starts = Vec::with_capacity(self.schema.len());
        for attr in 0..self.schema.len() {
            let bytes = self.read_entry(self.entry(KIND_STARTS, cast::to_u32(attr), 0)?)?;
            starts.push(self.decode_starts_section(attr, SWSG.open(&bytes, KIND_STARTS)?)?);
        }
        let (zone_mins, zone_maxs) = if self.has_perm {
            let bytes = self.read_entry(self.entry(KIND_ZONES, 0, 0)?)?;
            self.decode_zones_section(SWSG.open(&bytes, KIND_ZONES)?)?
        } else {
            (Vec::new(), Vec::new())
        };
        for c in 0..chunks {
            self.load_chunk(KIND_IDS, 0, c)?;
        }
        let column = |kind: u8, attr: usize| -> Result<Vec<u32>, SegmentError> {
            let mut all = Vec::with_capacity(n);
            for c in 0..chunks {
                all.extend(
                    self.load_chunk(kind, cast::to_u32(attr), c)?
                        .expand::<u32>(),
                );
            }
            Ok(all)
        };
        // A column of n decoded values, each below n, is a permutation iff
        // no value repeats.
        let mut seen = vec![false; n];
        let mut is_permutation = |vals: &[u32]| {
            seen.fill(false);
            vals.iter()
                .all(|&v| !std::mem::replace(&mut seen[cast::to_usize(v)], true))
        };
        let mut perm = Vec::new();
        if self.has_perm {
            perm = column(KIND_PERM, 0)?;
            if !is_permutation(&perm) {
                return Err(malformed("perm is not a permutation"));
            }
            let rank_of = column(KIND_RANK_OF, 0)?;
            for (idx, &rank) in rank_of.iter().enumerate() {
                if cast::to_usize(perm[cast::to_usize(rank)]) != idx {
                    return Err(malformed("rank_of is not the inverse of perm"));
                }
            }
        }
        for (attr, starts) in starts.iter().enumerate() {
            let store = column(KIND_STORE_COL, attr)?;
            let order = column(KIND_ORDER, attr)?;
            if !is_permutation(&order) {
                return Err(malformed(format!("order[{attr}] is not a permutation")));
            }
            // The prefix counts split 0..n into one bucket per value.
            for (v, w) in starts.windows(2).enumerate() {
                let bucket = &order[cast::to_usize(w[0])..cast::to_usize(w[1])];
                if bucket
                    .iter()
                    .any(|&idx| cast::to_usize(store[cast::to_usize(idx)]) != v)
                {
                    return Err(malformed(format!(
                        "order[{attr}] bucket {v} holds a tuple of another value"
                    )));
                }
            }
            if !self.has_perm {
                continue;
            }
            let rank = column(KIND_RANK_COL, attr)?;
            if rank
                .iter()
                .zip(&perm)
                .any(|(&v, &idx)| store[cast::to_usize(idx)] != v)
            {
                return Err(malformed(format!(
                    "rank-col[{attr}] disagrees with store-col through perm"
                )));
            }
            for (b, block) in rank.chunks(BLOCK).enumerate() {
                let (lo, hi) = (zone_mins[attr][b], zone_maxs[attr][b]);
                if block.iter().any(|&v| v < lo || v > hi) {
                    return Err(malformed(format!(
                        "zones[{attr}] block {b} does not contain its rank-col values"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// The engine's view of a segment. Zone maps and prefix counts are eager;
/// the lazy columns are read through [`SegmentCursors`], and a posting walk
/// borrows one `order` block per chunk it crosses.
impl IndexStorage for SegmentReader {
    type Cursors<'a> = SegmentCursors<'a>;

    fn has_perm(&self) -> bool {
        self.has_perm
    }

    fn range_count(&self, attr: AttrId, lo: Value, hi: Value) -> usize {
        if lo > hi {
            return 0;
        }
        let s = &self.starts[attr];
        cast::to_usize(s[cast::to_usize(hi) + 1] - s[cast::to_usize(lo)])
    }

    fn zone(&self, attr: AttrId, b: usize) -> (Value, Value) {
        (self.zone_mins[attr][b], self.zone_maxs[attr][b])
    }

    fn for_posting(
        &self,
        attr: AttrId,
        lo: Value,
        hi: Value,
        mut f: impl FnMut(u32) -> Result<(), SegmentError>,
    ) -> Result<(), SegmentError> {
        if lo > hi {
            return Ok(());
        }
        let s = &self.starts[attr];
        let p0 = cast::to_usize(s[cast::to_usize(lo)]);
        let p1 = cast::to_usize(s[cast::to_usize(hi) + 1]);
        if p0 >= p1 {
            return Ok(());
        }
        let attr = cast::to_u32(attr);
        for c in p0 / self.chunk..=(p1 - 1) / self.chunk {
            let base = c * self.chunk;
            let lanes = p0.max(base) - base..p1.min(base + self.chunk_len(c)) - base;
            let block = self.block(KIND_ORDER, attr, c)?;
            for i in lanes {
                f(cast::to_u32(block.get(i)))?;
            }
        }
        Ok(())
    }

    fn cursors(&self) -> SegmentCursors<'_> {
        SegmentCursors::new(self)
    }
}

/// A cursor over one lazy column — `perm`, `rank-of`, `ids`, or one
/// attribute's `rank-col` or `store-col` — for one engine entry call. It
/// holds the validated block of the chunk it last read, so only a read
/// that leaves that chunk asks the chunk cache again.
struct ChunkCursor<'a> {
    reader: &'a SegmentReader,
    kind: u8,
    attr: u32,
    /// Index of the held chunk's first value.
    start: usize,
    /// The held chunk's block; `None` before the first read.
    block: Option<BlockRef<'a>>,
}

impl<'a> ChunkCursor<'a> {
    fn new(reader: &'a SegmentReader, kind: u8, attr: u32) -> Self {
        ChunkCursor {
            reader,
            kind,
            attr,
            start: 0,
            block: None,
        }
    }

    /// Value `i` of the column.
    #[inline]
    fn get(&mut self, i: usize) -> Result<u64, SegmentError> {
        let off = i.wrapping_sub(self.start);
        match &self.block {
            Some(block) if off < block.len => Ok(block.get(off)),
            _ => {
                let (block, off) = self.enter(i)?;
                Ok(block.get(off))
            }
        }
    }

    /// [`ForBlock::lanes_within`] of values `i..i + len`, which must lie in
    /// one chunk.
    #[inline]
    fn lanes(&mut self, i: usize, len: usize, lo: u64, hi: u64) -> Result<u64, SegmentError> {
        let off = i.wrapping_sub(self.start);
        match &self.block {
            Some(block) if off < block.len => Ok(block.lanes_within(off, len, lo, hi)),
            _ => {
                let (block, off) = self.enter(i)?;
                Ok(block.lanes_within(off, len, lo, hi))
            }
        }
    }

    /// Moves to the chunk holding value `i` and returns its block and
    /// `i`'s offset in it. A resident sticky block is borrowed in place,
    /// uncounted, so the unbudgeted warm path takes no atomic; anything
    /// else is one counted [`SegmentReader::block`] lookup. The block held
    /// before is released.
    #[inline(never)]
    fn enter(&mut self, i: usize) -> Result<(&ForBlock, usize), SegmentError> {
        let c = i / self.reader.chunk;
        let block = match self.reader.cache.resident(self.kind, self.attr, c) {
            Some(block) => BlockRef::Sticky(block),
            None => self.reader.block(self.kind, self.attr, c)?,
        };
        self.start = c * self.reader.chunk;
        Ok((self.block.insert(block), i - self.start))
    }
}

/// A segment's column cursors for one engine entry call: `perm`,
/// `rank-of` and `ids`, and per attribute a `rank-col` and a `store-col`
/// cursor, opened on the first read of their kind. Each holds at most one
/// block, so a call pins at most `3 + 2m` blocks besides the posting block
/// it walks. Under a budget those pins sit outside the cache's accounting:
/// a block the clock evicts stays alive, and readable, until its cursor
/// moves on or the call ends.
pub(crate) struct SegmentCursors<'a> {
    reader: &'a SegmentReader,
    perm: ChunkCursor<'a>,
    rank_of: ChunkCursor<'a>,
    ids: ChunkCursor<'a>,
    rank_cols: Vec<ChunkCursor<'a>>,
    store_cols: Vec<ChunkCursor<'a>>,
}

impl<'a> SegmentCursors<'a> {
    fn new(reader: &'a SegmentReader) -> Self {
        SegmentCursors {
            reader,
            perm: ChunkCursor::new(reader, KIND_PERM, 0),
            rank_of: ChunkCursor::new(reader, KIND_RANK_OF, 0),
            ids: ChunkCursor::new(reader, KIND_IDS, 0),
            rank_cols: Vec::new(),
            store_cols: Vec::new(),
        }
    }

    /// `attr`'s cursor among `cols`, one per attribute of `kind`, opened
    /// all at once on the first read. Many calls read no per-attribute
    /// column, so they allocate nothing.
    #[inline(always)]
    fn column<'c>(
        cols: &'c mut Vec<ChunkCursor<'a>>,
        reader: &'a SegmentReader,
        kind: u8,
        attr: AttrId,
    ) -> &'c mut ChunkCursor<'a> {
        if cols.is_empty() {
            Self::open_columns(cols, reader, kind);
        }
        &mut cols[attr]
    }

    /// Opens one cursor per attribute of `kind` into `cols`. Out of line,
    /// so that [`SegmentCursors::column`] stays small in the read loops.
    #[cold]
    #[inline(never)]
    fn open_columns(cols: &mut Vec<ChunkCursor<'a>>, reader: &'a SegmentReader, kind: u8) {
        *cols = (0..reader.schema.len())
            .map(|a| ChunkCursor::new(reader, kind, cast::to_u32(a)))
            .collect();
    }
}

impl ColumnCursors for SegmentCursors<'_> {
    #[inline]
    fn perm(&mut self, rank: usize) -> Result<u32, SegmentError> {
        Ok(cast::to_u32(self.perm.get(rank)?))
    }

    #[inline]
    fn rank_of(&mut self, idx: usize) -> Result<u32, SegmentError> {
        Ok(cast::to_u32(self.rank_of.get(idx)?))
    }

    #[inline]
    fn rank_col(&mut self, attr: AttrId, rank: usize) -> Result<Value, SegmentError> {
        let col = Self::column(&mut self.rank_cols, self.reader, KIND_RANK_COL, attr);
        Ok(cast::to_u32(col.get(rank)?))
    }

    #[inline]
    fn rank_lanes(
        &mut self,
        attr: AttrId,
        b: usize,
        len: usize,
        lo: Value,
        hi: Value,
    ) -> Result<u64, SegmentError> {
        let col = Self::column(&mut self.rank_cols, self.reader, KIND_RANK_COL, attr);
        col.lanes(b * BLOCK, len, u64::from(lo), u64::from(hi))
    }

    #[inline]
    fn store_col(&mut self, attr: AttrId, idx: usize) -> Result<Value, SegmentError> {
        let col = Self::column(&mut self.store_cols, self.reader, KIND_STORE_COL, attr);
        Ok(cast::to_u32(col.get(idx)?))
    }

    /// Served from the full-hydration snapshot if one exists. Without a
    /// budget the tuple is shared out of its chunk's sticky tuple table,
    /// built on first touch. Under a budget only this tuple is built, from
    /// the `ids` cursor and then the `store-col` cursors 0..m. Tuple chunks
    /// stay out of the bounded cache: one costs
    /// [`SegmentReader::tuple_chunk_cost`] (344,096 B at 4,096 tuples and
    /// m = 9), more than a shard holds below a ~2.7 MiB budget, and a chunk
    /// served uncached would be rebuilt for every tuple shared.
    fn share(&mut self, idx: usize) -> Result<Arc<Tuple>, SegmentError> {
        let reader = self.reader;
        if let Some(full) = reader.full.get() {
            return Ok(Arc::clone(&full[idx]));
        }
        match &reader.cache {
            ChunkCache::Sticky(tables) => {
                let tuples = reader.sticky_tuples(tables, idx / reader.chunk)?;
                Ok(Arc::clone(&tuples[idx % reader.chunk]))
            }
            ChunkCache::Bounded(_) => {
                let id = self.ids.get(idx)?;
                let values = (0..reader.schema.len())
                    .map(|attr| self.store_col(attr, idx))
                    .collect::<Result<Vec<Value>, SegmentError>>()?;
                Ok(Arc::new(Tuple::new(id, values)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{CHECKSUM_LEN, HEADER_LEN};
    use crate::{InterfaceType, Query, SchemaBuilder, SumRanker};
    use std::collections::HashSet;

    /// `count` values whose spread needs exactly `width` bits once there
    /// are two of them: the first two are the minimum and the maximum. With
    /// `top` the maximum is the largest `T`, else the minimum is small.
    fn spread_values<T: Packed>(count: u64, width: u32, top: bool) -> Vec<T> {
        let max = u64::MAX.checked_shr(64 - width).unwrap_or(0);
        let highest = (u64::MAX >> (64 - T::BITS)) - max;
        let base = if top { highest } else { highest.min(7) };
        (0..count)
            .map(|i| {
                let delta = match i {
                    0 => 0,
                    1 => max,
                    _ => i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & max,
                };
                T::truncate(base + delta)
            })
            .collect()
    }

    fn round_trip<T: Packed + fmt::Debug>(values: &[T], width: u32) {
        let mut bytes = Vec::new();
        pack(values, &mut bytes);
        if values.len() >= 2 {
            let at = 4 + std::mem::size_of::<T>();
            assert_eq!(u32::from(bytes[at]), width, "packed width");
        }
        let what = format!("u{} width {width} count {}", T::BITS, values.len());
        let mut r = Reader::new(&bytes);
        let back = unpack::<T>(&mut r, values.len()).unwrap();
        r.finish().unwrap();
        assert_eq!(back, values, "{what}");
        // The packed reader extracts every value in place, bit-exactly,
        // including the values that straddle a word boundary.
        let block = ForBlock::parse::<T>(&mut Reader::new(&bytes), values.len()).unwrap();
        assert_eq!(block.len, back.len(), "{what}");
        for (i, v) in back.iter().enumerate() {
            assert_eq!(block.get(i), v.widen(), "{what} index {i}");
        }
        // The range check settles on the true maximum, scan or no scan.
        let max = back.iter().map(|v| v.widen()).max().unwrap_or(block.min);
        assert!(block.all_at_most(max), "{what}");
        assert!(max == 0 || !block.all_at_most(max - 1), "{what}");
        // Lane masks, over whole zone blocks (unrolled per width) and the
        // short last one, against ranges that take every lane, some, none,
        // and ones below and above every value.
        let (lo, hi) = (block.min, max);
        let mid = lo + (hi - lo) / 2;
        let ranges = [
            (0, u64::MAX),
            (lo, lo),
            (hi, hi),
            (lo.saturating_add(1), mid),
            (mid, hi.saturating_sub(1)),
        ];
        let ranges = ranges
            .into_iter()
            .chain([(hi, lo), (0, lo.wrapping_sub(1))]);
        for (lo, hi) in ranges {
            for start in (0..back.len()).step_by(BLOCK) {
                let lanes = &back[start..back.len().min(start + BLOCK)];
                let want = lanes.iter().enumerate().fold(0u64, |mask, (j, v)| {
                    mask | u64::from(lo <= v.widen() && v.widen() <= hi) << j
                });
                let got = block.lanes_within(start, lanes.len(), lo, hi);
                assert_eq!(got, want, "{what} lanes from {start} in [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn bitpack_round_trips_every_width() {
        // Counts whose bodies end mid-word, on a word boundary, or (at one
        // value) carry no body at all.
        for count in [1, 63, 64, 65, 137] {
            for top in [false, true] {
                for width in 0..=32 {
                    round_trip(&spread_values::<u32>(count, width, top), width);
                }
                // Width 64 needs the values {0, u64::MAX}.
                for width in 0..=64 {
                    round_trip(&spread_values::<u64>(count, width, top), width);
                }
            }
        }
    }

    #[test]
    fn a_packed_value_past_u32_max_is_rejected() {
        // min = u32::MAX - 1 at width 2 admits deltas up to 3: the second
        // value, min + 3, is one past u32::MAX.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&(u32::MAX - 1).to_le_bytes());
        bytes.push(2);
        bytes.extend_from_slice(&(1u64 | 3 << 2).to_le_bytes());
        assert_eq!(
            unpack::<u32>(&mut Reader::new(&bytes), 2).unwrap_err(),
            malformed("packed value overflows u32")
        );
    }

    #[test]
    fn bitpack_handles_empty_and_constant_runs() {
        for values in [vec![], vec![42u32; 1000]] {
            let mut bytes = Vec::new();
            pack(&values, &mut bytes);
            // Constant (or empty) runs cost exactly the 9-byte header.
            assert_eq!(bytes.len(), 9);
            let mut r = Reader::new(&bytes);
            assert_eq!(unpack::<u32>(&mut r, values.len()).unwrap(), values);
            r.finish().unwrap();
        }
    }

    fn tiny_db() -> HiddenDb {
        let schema = SchemaBuilder::new()
            .ranking("a", 10, InterfaceType::Rq)
            .ranking("b", 10, InterfaceType::Sq)
            .filtering("f", 3)
            .build();
        let tuples: Vec<Tuple> = (0..150u64)
            .map(|i| {
                Tuple::new(
                    i,
                    vec![(i % 10) as u32, ((i * 7) % 10) as u32, (i % 3) as u32],
                )
            })
            .collect();
        HiddenDb::with_sum_ranking(schema, tuples, 4)
    }

    /// The cache tests' query mix over `tiny_db`: the rank head, a range,
    /// a broad range, a conjunction and an equality.
    fn query_mix() -> [Query; 5] {
        [
            Query::select_all(),
            Query::new(vec![crate::Predicate::lt(0, 4)]),
            Query::new(vec![crate::Predicate::lt(0, 9)]),
            Query::new(vec![crate::Predicate::eq(2, 1), crate::Predicate::ge(0, 6)]),
            Query::new(vec![crate::Predicate::eq(1, 3)]),
        ]
    }

    #[test]
    fn write_open_verify_round_trips() {
        let db = tiny_db();
        let bytes = SegmentWriter::new()
            .with_chunk_size(64)
            .write(&db)
            .expect("write");
        let reader = SegmentReader::open(Box::new(MemSource::new(bytes.clone()))).expect("open");
        reader.verify().expect("verify");
        assert_eq!(reader.n(), 150);
        assert_eq!(reader.k(), 4);
        assert!(reader.has_perm());
        assert_eq!(reader.ranker_name(), "sum");
        assert_eq!(reader.schema().len(), 3);
        // Writes are deterministic.
        let again = SegmentWriter::new().with_chunk_size(64).write(&db).unwrap();
        assert_eq!(bytes, again);
    }

    #[test]
    fn segment_backed_db_answers_like_the_ram_build() {
        let db = tiny_db();
        let bytes = SegmentWriter::new().with_chunk_size(64).write(&db).unwrap();
        let seg =
            HiddenDb::open_segment_source(Box::new(MemSource::new(bytes)), Box::new(SumRanker))
                .expect("open");
        assert_eq!(seg.k(), db.k());
        assert_eq!(seg.n(), db.n());
        let queries = [
            Query::select_all(),
            Query::new(vec![crate::Predicate::lt(0, 4)]),
            Query::new(vec![crate::Predicate::eq(2, 1), crate::Predicate::ge(0, 6)]),
        ];
        for q in &queries {
            let a = db.query(q).unwrap();
            let b = seg.query(q).unwrap();
            assert_eq!(
                a.tuples.iter().map(|t| t.id).collect::<Vec<_>>(),
                b.tuples.iter().map(|t| t.id).collect::<Vec<_>>()
            );
            assert_eq!(a.overflowed, b.overflowed);
        }
    }

    #[test]
    fn empty_store_round_trips() {
        let schema = SchemaBuilder::new()
            .ranking("a", 5, InterfaceType::Rq)
            .build();
        let db = HiddenDb::with_sum_ranking(schema, Vec::new(), 2);
        let bytes = SegmentWriter::new().write(&db).unwrap();
        let reader = SegmentReader::open(Box::new(MemSource::new(bytes.clone()))).unwrap();
        reader.verify().unwrap();
        assert_eq!(reader.n(), 0);
        let seg =
            HiddenDb::open_segment_source(Box::new(MemSource::new(bytes)), Box::new(SumRanker))
                .unwrap();
        let ans = seg.query(&Query::select_all()).unwrap();
        assert!(ans.is_empty());
        assert!(!ans.overflowed);
    }

    #[test]
    fn bounded_cache_stays_byte_identical_and_evicts() {
        let db = tiny_db();
        db.enable_access_log();
        let bytes = SegmentWriter::new().with_chunk_size(64).write(&db).unwrap();
        let queries = query_mix();
        // Budgets: sticky reference, eviction-forcing, and the degenerate
        // decode-every-time budget 0 — all must answer identically. The
        // mix touches 16 chunks, 1,160 packed bytes in all, and a 200-byte
        // shard of a 1,600-byte budget holds at most two of them, so the
        // budget evicts. The access log is on and changes no plan.
        let reference = HiddenDb::open_segment_source(
            Box::new(MemSource::new(bytes.clone())),
            Box::new(SumRanker),
        )
        .unwrap();
        reference.enable_access_log();
        for budget in [1_600u64, 0] {
            let capped = HiddenDb::open_segment_source_with(
                Box::new(MemSource::new(bytes.clone())),
                Box::new(SumRanker),
                SegmentOpenOptions::new().with_cache_budget(budget),
            )
            .unwrap();
            capped.enable_access_log();
            for q in &queries {
                for _ in 0..3 {
                    let a = reference.query(q).unwrap();
                    let b = capped.query(q).unwrap();
                    assert_eq!(
                        a.tuples.iter().map(|t| t.id).collect::<Vec<_>>(),
                        b.tuples.iter().map(|t| t.id).collect::<Vec<_>>(),
                        "budget {budget}"
                    );
                    assert_eq!(a.overflowed, b.overflowed);
                }
            }
            let stats = capped.storage_stats().expect("segment-backed");
            assert_eq!(stats.cache_budget, Some(budget));
            assert!(
                stats.bytes_resident <= budget,
                "resident {} over budget {budget}",
                stats.bytes_resident
            );
            if budget > 0 {
                assert!(stats.cache_evictions > 0, "tiny budget must evict");
                assert!(stats.cache_hits > 0, "repeat queries must hit");
            }
            if budget == 1_600 {
                // The clock's exact decisions under this mix: any change to
                // the shard function, the slot order or the hand moves them.
                assert_eq!(
                    (
                        stats.cache_hits,
                        stats.cache_misses,
                        stats.cache_evictions,
                        stats.bytes_resident,
                        stats.decoded_for
                    ),
                    (77, 34, 22, 872, 32)
                );
            }
        }
        let sticky = reference.storage_stats().unwrap();
        assert_eq!(sticky.cache_evictions, 0, "sticky cache never evicts");
        assert_eq!(sticky.cache_budget, None);
        // The sticky reader loads each of the mix's 16 chunks once and
        // reads a resident block uncounted, so it counts no hit.
        assert_eq!((sticky.cache_hits, sticky.cache_misses), (0, 16));
    }

    #[test]
    fn a_bounded_cache_answers_a_repeat_query_without_a_miss() {
        // Two default-size chunks under a 1 MiB budget: each of the 8 shards
        // holds 131,072 B. Every column chunk fits one (an ids chunk costs
        // 32,800 B); a hydrated tuple chunk, 4,096 * (48 + 4 * 2) + 32 =
        // 229,408 B, would not, so tuples are built one at a time.
        let schema = SchemaBuilder::new()
            .ranking("a", 100, InterfaceType::Rq)
            .ranking("b", 100, InterfaceType::Rq)
            .build();
        let tuples: Vec<Tuple> = (0..8_192u64)
            .map(|i| Tuple::new(i, vec![(i * 37 % 100) as u32, (i * 91 % 100) as u32]))
            .collect();
        let ram = HiddenDb::with_sum_ranking(schema, tuples, 10);
        let seg = HiddenDb::open_segment_source_with(
            Box::new(MemSource::new(SegmentWriter::new().write(&ram).unwrap())),
            Box::new(SumRanker),
            SegmentOpenOptions::new().with_cache_budget(1 << 20),
        )
        .unwrap();
        let q = Query::select_all();
        let answer = |db: &HiddenDb| {
            let r = db.query(&q).unwrap();
            let tuples: Vec<(u64, Vec<u32>)> =
                r.tuples.iter().map(|t| (t.id, t.values.clone())).collect();
            (tuples, r.overflowed)
        };
        let want = answer(&ram);
        assert_eq!(answer(&seg), want, "first answer");
        let before = seg.storage_stats().unwrap();
        assert_eq!(answer(&seg), want, "second answer");
        let after = seg.storage_stats().unwrap();
        assert_eq!(
            after.cache_misses - before.cache_misses,
            0,
            "a repeat answer finds every chunk resident"
        );
    }

    #[test]
    fn a_cursor_reads_on_from_a_block_the_cache_evicts() {
        // tiny_db in 64-value chunks: 36 lazy chunks of 72 to 104 bytes
        // each, under a budget whose shards hold one or two of them.
        let bytes = SegmentWriter::new()
            .with_chunk_size(64)
            .write(&tiny_db())
            .unwrap();
        let reader = SegmentReader::open_with(
            Box::new(MemSource::new(bytes)),
            SegmentOpenOptions::new().with_cache_budget(8 * 150),
        )
        .unwrap();
        let ChunkCache::Bounded(cache) = &reader.cache else {
            panic!("a budgeted reader has a bounded cache");
        };
        let held = (KIND_STORE_COL, 0, 0);
        let (shard, slot) = cache.address(held.0, held.1, held.2).unwrap();
        let mut cur = reader.cursors();
        assert_eq!(cur.store_col(0, 0).unwrap(), 0);
        assert!(cache.clock.contains(shard, slot));
        // Load every other chunk until the clock evicts the held one.
        let m = cast::to_u32(reader.schema().len());
        let kinds = [KIND_PERM, KIND_RANK_OF, KIND_IDS]
            .map(|kind| (kind, 1))
            .into_iter()
            .chain([KIND_RANK_COL, KIND_STORE_COL, KIND_ORDER].map(|kind| (kind, m)));
        let others = kinds
            .flat_map(|(kind, attrs)| (0..attrs).map(move |attr| (kind, attr)))
            .flat_map(|(kind, attr)| (0..3).map(move |c| (kind, attr, c)))
            .filter(|&key| key != held);
        for (kind, attr, c) in others {
            reader.block(kind, attr, c).unwrap();
        }
        assert!(!cache.clock.contains(shard, slot), "the clock evicts it");
        // The cursor still holds the block: every value of the chunk reads
        // correctly from it, and no read asks the cache.
        let before = reader.storage_stats();
        for i in (0..64).rev() {
            assert_eq!(cur.store_col(0, i).unwrap(), cast::to_u32(i % 10));
        }
        let after = reader.storage_stats();
        assert_eq!(
            (after.cache_hits, after.cache_misses),
            (before.cache_hits, before.cache_misses)
        );
        // The pinned block sits outside the budget's accounting.
        let audit = cache.clock.audit();
        assert_eq!(audit.resident_counter, audit.slot_bytes);
        assert!(!audit.over_budget);
        assert!(after.bytes_resident <= 8 * 150);
    }

    #[test]
    fn every_lazy_chunk_has_its_own_cell_and_its_own_slot() {
        // 3 chunks (tiny_db at 64 values a chunk), then 7, 245 and 2,442:
        // 25k, 1M and 10M rows at the default chunk size.
        let empty = Arc::new(ForBlock {
            min: 0,
            width: 0,
            mask: 0,
            len: 0,
            words: Box::new([0; 8]),
        });
        for (m, chunks, has_perm) in [
            (3, 3, true),
            (9, 7, true),
            (9, 245, false),
            (9, 2_442, true),
        ] {
            let layout = LazyColumns {
                m,
                chunks,
                has_perm,
            };
            let sticky = StickyTables::new(layout);
            let bounded = BoundedCache::new(layout, u64::MAX);
            let mut kinds = vec![(KIND_IDS, 1), (KIND_STORE_COL, m), (KIND_ORDER, m)];
            if has_perm {
                kinds.extend([(KIND_PERM, 1), (KIND_RANK_OF, 1), (KIND_RANK_COL, m)]);
            }
            let (mut cells, mut slots) = (HashSet::new(), HashSet::new());
            for (kind, attrs) in kinds {
                for attr in 0..cast::to_u32(attrs) {
                    for c in 0..chunks {
                        let cell = sticky.cell(kind, attr, c).unwrap();
                        assert!(cells.insert(std::ptr::from_ref(cell)), "{kind} {attr} {c}");
                        let (shard, slot) = bounded.address(kind, attr, c).unwrap();
                        assert!(slots.insert((shard, slot)), "{kind} {attr} {c}");
                        // Every slot lies inside its shard's table, so the
                        // chunk can stay resident.
                        bounded.clock.insert(shard, slot, Arc::clone(&empty), 1);
                        assert!(bounded.clock.contains(shard, slot));
                    }
                }
            }
            assert_eq!(cells.len(), sticky.blocks.len(), "every cell is used");
            // Chunks the segment does not have have no cell and no slot.
            let m = cast::to_u32(m);
            for (kind, attr, c) in [
                (KIND_STORE_COL, m, 0),
                (KIND_ORDER, 0, chunks),
                (KIND_IDS, 1, 0),
                (KIND_ZONES, 0, 0),
            ] {
                assert!(sticky.cell(kind, attr, c).is_none());
                assert_eq!(bounded.address(kind, attr, c), None);
            }
            assert_eq!(bounded.address(KIND_PERM, 0, 0).is_some(), has_perm);
            assert_eq!(sticky.cell(KIND_RANK_COL, 0, 0).is_some(), has_perm);
        }
    }

    #[test]
    fn both_backings_cache_one_chunk_form() {
        // The same mix on an unbudgeted reader and on one whose budget
        // holds every packed chunk of tiny_db in every shard: both load
        // each chunk once and keep the same packed blocks, and the sticky
        // reader also keeps the tuple chunks it builds.
        let bytes = SegmentWriter::new()
            .with_chunk_size(64)
            .write(&tiny_db())
            .unwrap();
        let [sticky, budgeted] = both_options().map(|options| {
            let db = HiddenDb::open_segment_source_with(
                Box::new(MemSource::new(bytes.clone())),
                Box::new(SumRanker),
                options,
            )
            .unwrap();
            db.enable_access_log();
            db
        });
        let queries = query_mix();
        let answer = |db: &HiddenDb, q: &Query| {
            let r = db.query(q).unwrap();
            let tuples: Vec<(u64, Vec<u32>)> =
                r.tuples.iter().map(|t| (t.id, t.values.clone())).collect();
            (tuples, r.overflowed)
        };
        for q in queries.iter().chain(&queries) {
            assert_eq!(answer(&sticky, q), answer(&budgeted, q), "{q:?}");
        }
        let (s, b) = (
            sticky.storage_stats().unwrap(),
            budgeted.storage_stats().unwrap(),
        );
        assert_eq!(b.cache_evictions, 0, "the budget holds the working set");
        assert!(s.cache_misses > 0);
        assert_eq!(s.cache_misses, b.cache_misses, "each chunk loads once");
        assert_eq!(s.decoded_for, b.decoded_for);
        let reader = sticky.store().segment_reader().expect("segment-backed");
        let ChunkCache::Sticky(tables) = &reader.cache else {
            panic!("an unbudgeted reader has sticky tables");
        };
        let tuple_charge: u64 = tables
            .tuples
            .iter()
            .filter_map(OnceLock::get)
            .map(|tuples| reader.tuple_chunk_cost(tuples.len()))
            .sum();
        assert!(tuple_charge > 0, "the answers built tuple chunks");
        assert_eq!(
            s.bytes_resident,
            b.bytes_resident + tuple_charge,
            "both backings charge the same packed blocks"
        );
    }

    #[test]
    fn storage_stats_stay_arithmetically_consistent_under_eviction_thrash() {
        let db = tiny_db();
        db.enable_access_log();
        let bytes = SegmentWriter::new().with_chunk_size(64).write(&db).unwrap();
        // A budget small enough that the query mix below keeps evicting:
        // the same thrash regime as `bounded_cache_stays_byte_identical_
        // and_evicts`, but here the subject is the counters themselves.
        let budget = 1_600u64;
        let capped = HiddenDb::open_segment_source_with(
            Box::new(MemSource::new(bytes)),
            Box::new(SumRanker),
            SegmentOpenOptions::new().with_cache_budget(budget),
        )
        .unwrap();
        capped.enable_access_log();
        let fresh = capped.storage_stats().expect("segment-backed");
        assert_eq!(fresh.cache_hits + fresh.cache_misses, 0);
        assert_eq!(fresh.cache_evictions, 0);
        assert_eq!(fresh.bytes_resident, 0);
        let queries = query_mix();
        let mut prev = fresh;
        for round in 0..6 {
            for q in &queries {
                capped.query(q).unwrap();
                let s = capped.storage_stats().expect("segment-backed");
                // Lifetime counters only move forward.
                assert!(
                    s.cache_hits >= prev.cache_hits,
                    "hits regressed in round {round}"
                );
                assert!(s.cache_misses >= prev.cache_misses, "misses regressed");
                assert!(
                    s.cache_evictions >= prev.cache_evictions,
                    "evictions regressed"
                );
                assert!(s.decoded_for >= prev.decoded_for, "decodes regressed");
                assert_eq!((s.decoded_dict, s.decoded_rle), (0, 0));
                // Every eviction removes an entry a miss previously decoded
                // and inserted, so evictions can never outrun misses.
                assert!(
                    s.cache_evictions <= s.cache_misses,
                    "evictions {} > misses {}",
                    s.cache_evictions,
                    s.cache_misses
                );
                // The byte budget holds at every observation point, not
                // just at the end of the workload.
                assert!(
                    s.bytes_resident <= budget,
                    "resident {} over budget {budget} in round {round}",
                    s.bytes_resident
                );
                assert_eq!(s.cache_budget, Some(budget));
                prev = s;
            }
        }
        assert!(
            prev.cache_evictions > 0,
            "the workload must actually thrash"
        );
        assert!(
            prev.cache_hits > 0,
            "repeat queries must still find entries"
        );
        assert!(prev.decoded_for > 0, "thrash re-decodes chunks");
    }

    /// Rewrites the payload of section `(kind, attr, chunk)` with `forge`
    /// and re-seals its checksum, so the forgery passes the envelope and
    /// reaches the payload decoders — as any writer of a file could.
    fn reseal(bytes: &[u8], kind: u8, attr: u32, chunk: u32, forge: impl Fn(&mut [u8])) -> Vec<u8> {
        let reader = SegmentReader::open(Box::new(MemSource::new(bytes.to_vec()))).unwrap();
        let e = reader.entry(kind, attr, chunk).unwrap();
        let start = e.offset as usize + HEADER_LEN;
        let end = (e.offset + e.len) as usize - CHECKSUM_LEN;
        let mut forged = bytes.to_vec();
        forge(&mut forged[start..end]);
        let check = fnv1a64(&forged[start..end]);
        forged[end..end + CHECKSUM_LEN].copy_from_slice(&check.to_le_bytes());
        forged
    }

    /// Turns the FOR block at payload offset `at`, whose minimum is
    /// `min_len` bytes wide, into a width-0 block claiming `u32::MAX`
    /// values: 16 GiB of `u32`s (32 GiB of ids) from no body bytes at all.
    fn width0_claim(at: usize, min_len: usize) -> impl Fn(&mut [u8]) {
        move |p: &mut [u8]| {
            p[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            p[at + 4 + min_len] = 0;
        }
    }

    #[test]
    fn verify_and_query_report_the_same_corruption_error() {
        // Poison the chunk's FOR width byte (after the 4-byte count and the
        // 4-byte minimum) so the corruption reaches the block decoder on
        // both paths.
        let bytes = SegmentWriter::new()
            .with_chunk_size(64)
            .write(&tiny_db())
            .unwrap();
        let poisoned = reseal(&bytes, KIND_STORE_COL, 0, 0, |p| p[8] = 33);
        let [reader, budgeted] = both_options().map(|options| {
            SegmentReader::open_with(Box::new(MemSource::new(poisoned.clone())), options)
                .expect("footer intact")
        });
        let verify_err = reader.verify().unwrap_err();
        assert_eq!(verify_err, reader.cursors().store_col(0, 0).unwrap_err());
        assert_eq!(verify_err, budgeted.cursors().store_col(0, 0).unwrap_err());
        assert_eq!(verify_err, malformed("bit width 33 > 32"));
    }

    /// Unbudgeted, and under a budget that holds all of `tiny_db`'s
    /// packed chunks.
    fn both_options() -> [SegmentOpenOptions; 2] {
        [
            SegmentOpenOptions::new(),
            SegmentOpenOptions::new().with_cache_budget(1 << 20),
        ]
    }

    /// The ids `query` first answers with on an unbudgeted and on a
    /// budgeted database over `bytes`.
    fn first_answers(bytes: &[u8], query: &Query) -> [Result<Vec<u64>, crate::QueryError>; 2] {
        both_options().map(|options| {
            let db = HiddenDb::open_segment_source_with(
                Box::new(MemSource::new(bytes.to_vec())),
                Box::new(SumRanker),
                options,
            )
            .unwrap();
            db.query(query)
                .map(|r| r.tuples.iter().map(|t| t.id).collect())
        })
    }

    #[test]
    fn verify_and_both_query_paths_share_one_validator() {
        // tiny_db in 64-value chunks: n = 150, and attribute a (domain 10)
        // is i % 10. The four best sums (a = b = 0) belong to tuples 0, 10,
        // 20 and 30, all in chunk 0. Only a query that walks a posting list
        // reads `order`, and no tiny_db range is selective enough for that,
        // so the order forgery goes into a copy where tuple 0 alone has
        // a = 0: 1 of 150 tuples, below n/32, so `a = 0` walks the bucket
        // that starts order[0] chunk 0. Every forgery below is one the
        // packed load must catch on its own, before any cross-section check.
        let chunked = |db: &HiddenDb| SegmentWriter::new().with_chunk_size(64).write(db).unwrap();
        let db = tiny_db();
        let bytes = chunked(&db);
        let rare: Vec<Tuple> = db
            .oracle_tuples()
            .iter()
            .map(|t| {
                let a = if t.id == 0 { 0 } else { t.values[0].max(1) };
                Tuple::new(t.id, vec![a, t.values[1], t.values[2]])
            })
            .collect();
        let rare = chunked(&HiddenDb::with_sum_ranking(db.schema().clone(), rare, 4));
        let select_all = Query::select_all();
        let a_is_0 = Query::new(vec![crate::Predicate::eq(0, 0)]);
        let forgeries = [
            (
                "a perm value equal to n",
                reseal_values(&bytes, KIND_PERM, 0, 0, |b| b[0][0] = 150),
                &select_all,
                malformed("perm value out of range"),
            ),
            (
                "an order value equal to n",
                reseal_values(&rare, KIND_ORDER, 0, 0, |b| b[0][0] = 150),
                &a_is_0,
                malformed("order value out of range"),
            ),
            (
                "a store-col value equal to the domain size",
                reseal_values(&bytes, KIND_STORE_COL, 0, 0, |b| b[0][0] = 10),
                &select_all,
                malformed("store-col[0] value outside the attribute domain"),
            ),
            // The 4-bit deltas 0..=9 on top of u32::MAX - 1.
            (
                "min + delta past u32::MAX",
                reseal(&bytes, KIND_STORE_COL, 0, 0, |p| {
                    p[4..8].copy_from_slice(&(u32::MAX - 1).to_le_bytes())
                }),
                &select_all,
                malformed("packed value overflows u32"),
            ),
        ];
        for (what, forged, query, want) in forgeries {
            let reader = SegmentReader::open(Box::new(MemSource::new(forged.clone())))
                .unwrap_or_else(|e| panic!("{what}: the forgery opens: {e}"));
            assert_eq!(reader.verify().unwrap_err(), want, "{what}: verify");
            for answer in first_answers(&forged, query) {
                assert_eq!(
                    answer.unwrap_err(),
                    crate::QueryError::Storage {
                        error: want.clone()
                    },
                    "{what}: query"
                );
            }
        }
        // Accepted: store-col[0] chunk 0 holds 0..=9 at width 4, so the bound
        // min + 2^4 - 1 = 15 misses the domain and only the scan accepts it.
        let reader = SegmentReader::open(Box::new(MemSource::new(bytes.clone()))).unwrap();
        let e = reader.entry(KIND_STORE_COL, 0, 0).unwrap();
        let section = reader.read_entry(e).unwrap();
        let block = reader
            .validate_chunk(
                KIND_STORE_COL,
                0,
                0,
                SWSG.open(&section, KIND_STORE_COL).unwrap(),
            )
            .expect("every value is in range");
        assert_eq!((block.min, block.width), (0, 4));
        reader.verify().expect("the scan accepts the block");
        let [plain, budgeted] = first_answers(&bytes, &select_all);
        assert_eq!(plain.unwrap(), [0, 10, 20, 30]);
        assert_eq!(budgeted.unwrap(), [0, 10, 20, 30]);
    }

    #[test]
    fn forged_count_claims_are_rejected_before_allocating() {
        // tiny_db in 64-value chunks: n = 150 gives 3 zone blocks, and
        // attribute 0 (domain 10) has 11 prefix counts.
        let bytes = SegmentWriter::new()
            .with_chunk_size(64)
            .write(&tiny_db())
            .unwrap();
        let claim = |bound: usize| {
            malformed(format!(
                "packed block claims 4294967295 values, expected at most {bound}"
            ))
        };
        // Eager sections fail the open itself.
        for (kind, bound) in [(KIND_ZONES, 3), (KIND_STARTS, 11)] {
            let forged = reseal(&bytes, kind, 0, 0, width0_claim(0, 4));
            let err = SegmentReader::open(Box::new(MemSource::new(forged))).unwrap_err();
            assert_eq!(err, claim(bound), "{}", kind_name(kind));
        }
        // Lazy chunks open, then fail `verify` and the first query that
        // reads them, budgeted or not, with the same error.
        for (kind, min_len) in [(KIND_STORE_COL, 4), (KIND_IDS, 8)] {
            let forged = reseal(&bytes, kind, 0, 0, width0_claim(0, min_len));
            let reader = SegmentReader::open(Box::new(MemSource::new(forged.clone())))
                .expect("lazy chunks are not read at open");
            assert_eq!(
                reader.verify().unwrap_err(),
                claim(64),
                "{}",
                kind_name(kind)
            );
            for answer in first_answers(&forged, &Query::select_all()) {
                assert_eq!(
                    answer.unwrap_err(),
                    crate::QueryError::Storage { error: claim(64) },
                    "{}",
                    kind_name(kind)
                );
            }
        }
    }

    /// Re-seals section `(kind, attr, chunk)`, whose payload is a run of
    /// `u32` FOR blocks, after `edit` changes their values. The edit must
    /// keep the payload's length, so the directory stays valid.
    fn reseal_values(
        bytes: &[u8],
        kind: u8,
        attr: u32,
        chunk: u32,
        edit: impl Fn(&mut [Vec<u32>]),
    ) -> Vec<u8> {
        reseal(bytes, kind, attr, chunk, |p| {
            let mut r = Reader::new(p);
            let mut blocks = Vec::new();
            while r.remaining() > 0 {
                blocks.push(unpack::<u32>(&mut r, usize::MAX).unwrap());
            }
            edit(&mut blocks);
            let mut repacked = Vec::new();
            for block in &blocks {
                pack(block, &mut repacked);
            }
            assert_eq!(repacked.len(), p.len(), "the edit resized the payload");
            p.copy_from_slice(&repacked);
        })
    }

    #[test]
    fn verify_rejects_resealed_forgeries_of_what_the_bytes_mean() {
        // tiny_db in 64-value chunks. Attribute `a` is i % 10, and `b` is a
        // function of `a`, so ranks 0..15 hold the tuples with a = 0 and
        // ranks 15..30 those with a = 3. Every forgery below decodes
        // cleanly and keeps every value in range: only the checks on what
        // the bytes mean can reject it.
        let bytes = SegmentWriter::new()
            .with_chunk_size(64)
            .write(&tiny_db())
            .unwrap();
        let bucket = malformed("order[0] bucket 0 holds a tuple of another value");
        let forgeries = [
            // Tuples 0 and 1 swap their `a` values, 0 and 1: served
            // unchecked, `a = 0` answers with tuple 0 carrying a = 1.
            (
                "swapped store values",
                reseal_values(&bytes, KIND_STORE_COL, 0, 0, |b| b[0].swap(0, 1)),
                bucket.clone(),
            ),
            // Tuple 0 (a = 0) trades places with tuple 1 (a = 1) across
            // the first two posting buckets of `a`.
            (
                "order entries swapped across buckets",
                reseal_values(&bytes, KIND_ORDER, 0, 0, |b| b[0].swap(0, 15)),
                bucket,
            ),
            // Ranks 0 and 20 swap their `a` values, 0 and 3, inside one
            // zone block whose bounds still contain both.
            (
                "swapped rank-col values",
                reseal_values(&bytes, KIND_RANK_COL, 0, 0, |b| {
                    assert_ne!(b[0][0], b[0][20]);
                    b[0].swap(0, 20);
                }),
                malformed("rank-col[0] disagrees with store-col through perm"),
            ),
            // The zones payload is attribute 0's block minima, then its
            // maxima: lower block 0's maximum below one of its values.
            (
                "lowered zone max",
                reseal_values(&bytes, KIND_ZONES, 0, 0, |b| b[1][0] -= 1),
                malformed("zones[0] block 0 does not contain its rank-col values"),
            ),
        ];
        for (what, forged, want) in forgeries {
            let reader = SegmentReader::open(Box::new(MemSource::new(forged)))
                .unwrap_or_else(|e| panic!("{what}: the forgery opens: {e}"));
            assert_eq!(reader.verify().unwrap_err(), want, "{what}");
        }
    }

    /// The footer payload of segment `bytes`, and its offset in the file.
    fn footer_payload(bytes: &[u8]) -> (usize, Vec<u8>) {
        let end = bytes.len() - TRAILER_LEN;
        let offset = le_u64(&bytes[end + 8..end + 16]) as usize;
        let payload = SWSG.open(&bytes[offset..end], KIND_FOOTER).unwrap();
        (offset, payload.to_vec())
    }

    /// Rewrites the footer payload with `forge`, which may resize it,
    /// re-seals it under `SWSG` and rewrites the trailer's footer length
    /// and checksum: every envelope and checksum holds, so only the footer
    /// decode stands between the forgery and the reader.
    fn reseal_footer(bytes: &[u8], forge: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let (offset, mut payload) = footer_payload(bytes);
        forge(&mut payload);
        let mut forged = bytes[..offset].to_vec();
        SWSG.seal(KIND_FOOTER, &payload, &mut forged);
        let mut trailer = [0u8; TRAILER_LEN];
        trailer[..8].copy_from_slice(&TRAILER_MAGIC);
        trailer[8..16].copy_from_slice(&(offset as u64).to_le_bytes());
        trailer[16..24].copy_from_slice(&((forged.len() - offset) as u64).to_le_bytes());
        let check = fnv1a64(&trailer[..24]);
        trailer[24..].copy_from_slice(&check.to_le_bytes());
        forged.extend_from_slice(&trailer);
        forged
    }

    #[test]
    fn resealed_footer_forgeries_fail_typed() {
        let bytes = SegmentWriter::new()
            .with_chunk_size(64)
            .write(&tiny_db())
            .unwrap();
        assert_eq!(
            reseal_footer(&bytes, |_| {}),
            bytes,
            "the helper forges nothing"
        );
        let open =
            |forged: Vec<u8>| SegmentReader::open(Box::new(MemSource::new(forged))).map(|r| r.n());
        // Walk the footer to the fields the forgeries rewrite: after n, k,
        // the chunk and the zone block size come the has-perm flag, the
        // ranker name, the schema and the directory.
        let (_, payload) = footer_payload(&bytes);
        let at = |r: &Reader<'_>| payload.len() - r.remaining();
        let mut r = Reader::new(&payload);
        r.take(24).unwrap();
        let has_perm = at(&r);
        r.bool().unwrap();
        r.string().unwrap();
        let attr_count = at(&r);
        read_schema(&mut r).unwrap();
        let dir_count = at(&r);
        let name = attr_count + 8;
        let name_len = le_u64(&payload[name..name + 8]) as usize;
        let interface = name + 8 + name_len + 4;

        // Undefined tags and a non-UTF-8 name (reported as tag 0):
        // malformed.
        for (what, offset, byte, tag) in [
            ("interface tag 3", interface, 3, 3),
            ("role tag 2", interface + 1, 2, 2),
            ("has-perm flag 2", has_perm, 2, 2),
            ("non-UTF-8 attribute name", name + 8, 0xff, 0),
        ] {
            assert_eq!(
                open(reseal_footer(&bytes, |p| p[offset] = byte)),
                Err(malformed(EnvelopeError::BadTag { tag }.to_string())),
                "{what}"
            );
        }

        // A count its entries (at least 14 bytes per attribute, 25 per
        // directory entry) cannot fit in the bytes left: truncated, before
        // anything is allocated.
        let fits = |count_at: usize, entry: usize| (payload.len() - count_at - 8) / entry;
        for (what, count_at, claim) in [
            ("attribute count", attr_count, fits(attr_count, 14) + 1),
            ("attribute count", attr_count, usize::MAX),
            ("directory count", dir_count, fits(dir_count, 25) + 1),
            ("directory count", dir_count, usize::MAX),
        ] {
            let forged = reseal_footer(&bytes, |p| {
                p[count_at..count_at + 8].copy_from_slice(&(claim as u64).to_le_bytes());
            });
            assert_eq!(open(forged), Err(SegmentError::Truncated), "{what} {claim}");
        }
    }

    #[test]
    fn ranker_mismatch_is_rejected() {
        let db = tiny_db();
        let bytes = SegmentWriter::new().write(&db).unwrap();
        let err = HiddenDb::open_segment_source(
            Box::new(MemSource::new(bytes)),
            Box::new(crate::WorstCaseRanker),
        )
        .unwrap_err();
        assert_eq!(
            err,
            SegmentError::RankerMismatch {
                expected: "sum".into(),
                found: "worst-case".into(),
            }
        );
    }
}
