//! Segment-backed benchmark mode (`experiments --segment`).
//!
//! When segment mode is on, every hidden database a figure harness builds
//! is round-tripped through the persistent columnar segment store: written
//! into memory by [`SegmentWriter::write`] and reopened over a [`MemSource`]
//! as a lazily-hydrating [`HiddenDb`]. Figure output is byte-identical to
//! the in-RAM run by the storage layer's differential contract — CI diffs
//! exactly that — while every query is served from the persisted columns.
//! File-backed reads are covered elsewhere: `segment_build` re-opens and
//! verifies the files it writes, and `report storage --segment` serves one.

use std::sync::OnceLock;

use skyweb_hidden_db::{HiddenDb, MemSource, Ranker, SegmentOpenOptions, SegmentWriter};

static SEGMENT_MODE: OnceLock<bool> = OnceLock::new();
static CACHE_BUDGET: OnceLock<u64> = OnceLock::new();

/// Installs segment-backed mode. Call once, before any figure runs; returns
/// `Err` if the mode was already decided.
pub fn set_segment_mode() -> Result<(), &'static str> {
    SEGMENT_MODE
        .set(true)
        .map_err(|_| "segment mode already set")
}

/// `true` if figure databases are served from segments.
pub fn segment_mode() -> bool {
    SEGMENT_MODE.get().copied().unwrap_or(false)
}

/// Caps the chunk cache of every segment-backed database at `bytes`
/// (`experiments --cache-budget`). Call once, before any figure runs;
/// returns `Err` if a budget was already set. Without a budget the cache is
/// unbounded (sticky hydration). Figure output is byte-identical either way
/// — eviction is a memory policy, not a semantic one — which is exactly
/// what the CI storage job diffs.
pub fn set_cache_budget(bytes: u64) -> Result<(), String> {
    CACHE_BUDGET
        .set(bytes)
        .map_err(|_| "cache budget already set".to_string())
}

/// The active chunk cache budget in bytes, if one was installed.
pub fn cache_budget() -> Option<u64> {
    CACHE_BUDGET.get().copied()
}

/// Writes `ram` as a segment in memory and reopens it segment-backed under
/// a fresh `ranker` instance and the installed cache budget.
pub fn segment_backed(ram: &HiddenDb, ranker: Box<dyn Ranker>) -> HiddenDb {
    let bytes = SegmentWriter::new()
        .write(ram)
        .unwrap_or_else(|e| panic!("cannot write a segment: {e}"));
    let mut options = SegmentOpenOptions::new();
    if let Some(budget) = cache_budget() {
        options = options.with_cache_budget(budget);
    }
    HiddenDb::open_segment_source_with(Box::new(MemSource::new(bytes)), ranker, options)
        .unwrap_or_else(|e| panic!("cannot open a segment: {e}"))
}
