//! Segment-backed benchmark mode (`experiments --segment DIR`).
//!
//! When a segment directory is installed, every hidden database a figure
//! harness builds is round-tripped through the persistent columnar segment
//! store: written once to `DIR` (keyed by a content fingerprint, so repeated
//! runs and identical sweep points reuse the file, and by the segment
//! format version, so a file written in another version is never read
//! back) and reopened as a lazily-hydrating [`HiddenDb`]. Figure output is
//! byte-identical to the in-RAM run by the storage layer's differential
//! contract — CI diffs exactly that — while every query is served from the
//! persisted columns.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use skyweb_hidden_db::{HiddenDb, Ranker, SegmentOpenOptions, SEGMENT_VERSION};

static SEGMENT_DIR: OnceLock<PathBuf> = OnceLock::new();
static CACHE_BUDGET: OnceLock<u64> = OnceLock::new();

/// Installs the segment cache directory (creating it if needed). Call once,
/// before any figure runs; returns `Err` if a directory was already set or
/// cannot be created.
pub fn set_segment_dir(dir: impl Into<PathBuf>) -> Result<(), String> {
    let dir = dir.into();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    SEGMENT_DIR
        .set(dir)
        .map_err(|_| "segment directory already set".to_string())
}

/// The active segment cache directory, if segment-backed mode is on.
pub fn segment_dir() -> Option<&'static Path> {
    SEGMENT_DIR.get().map(PathBuf::as_path)
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

/// FNV-1a64 content fingerprint of a database served under `ranker`: schema
/// (names, domains, interfaces, roles), top-k constraint, ranker name, the
/// rank order [`Ranker::precompute`] gives the tuples (none for a ranker
/// without a total order, whose segments store no order) and every tuple.
/// It is the segment cache key, so two databases that differ in any of
/// these never share a file, even under two rankers of one name.
pub fn db_content_fingerprint(db: &HiddenDb, ranker: &dyn Ranker) -> u64 {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = SEED;
    let mut write = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for attr in 0..db.schema().len() {
        let spec = db.schema().attr(attr);
        write(spec.name.as_bytes());
        write(&spec.domain_size.to_le_bytes());
        write(&[spec.interface as u8, spec.role as u8]);
    }
    write(&(db.k() as u64).to_le_bytes());
    write(db.ranker_name().as_bytes());
    match ranker.precompute(db.oracle_tuples(), db.schema()) {
        None => write(&[0]),
        Some(order) => {
            write(&[1]);
            for pos in order {
                write(&pos.to_le_bytes());
            }
        }
    }
    for t in db.oracle_tuples().iter() {
        write(&t.id.to_le_bytes());
        for &v in &t.values {
            write(&v.to_le_bytes());
        }
    }
    h
}

/// Writes `ram` into the segment cache (first writer wins; concurrent pool
/// tasks race benignly through unique temp files + atomic rename) and
/// reopens it segment-backed under a fresh `ranker` instance.
pub fn segment_backed(ram: &HiddenDb, ranker: Box<dyn Ranker>) -> HiddenDb {
    let dir = segment_dir().expect("segment-backed mode is on");
    open_cached(dir, ram, ranker, cache_budget())
}

/// [`segment_backed`] over the cache in `dir`, under an optional cache
/// budget. The file name carries the content fingerprint and
/// [`SEGMENT_VERSION`], so a file another format version wrote for the same
/// database is left alone and a fresh one is written beside it.
fn open_cached(
    dir: &Path,
    ram: &HiddenDb,
    ranker: Box<dyn Ranker>,
    budget: Option<u64>,
) -> HiddenDb {
    static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);
    let path = dir.join(format!(
        "{:016x}-v{SEGMENT_VERSION}.seg",
        db_content_fingerprint(ram, ranker.as_ref())
    ));
    if !path.exists() {
        let tmp = dir.join(format!(
            ".tmp-{}-{}.seg",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        ram.write_segment(&tmp)
            .unwrap_or_else(|e| panic!("cannot write segment {}: {e}", tmp.display()));
        std::fs::rename(&tmp, &path)
            .unwrap_or_else(|e| panic!("cannot publish segment {}: {e}", path.display()));
    }
    let mut options = SegmentOpenOptions::new();
    if let Some(budget) = budget {
        options = options.with_cache_budget(budget);
    }
    HiddenDb::open_segment_with(&path, ranker, options)
        .unwrap_or_else(|e| panic!("cannot open segment {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyweb_datagen::synthetic::{self, SyntheticConfig};
    use skyweb_hidden_db::{Query, SingleAttributeRanker, SumRanker};

    fn mk(seed: u64) -> HiddenDb {
        synthetic::generate(&SyntheticConfig {
            n: 50,
            seed,
            ..SyntheticConfig::default()
        })
        .into_db_sum(3)
    }

    #[test]
    fn fingerprint_is_content_keyed() {
        assert_eq!(
            db_content_fingerprint(&mk(1), &SumRanker),
            db_content_fingerprint(&mk(1), &SumRanker)
        );
        assert_ne!(
            db_content_fingerprint(&mk(1), &SumRanker),
            db_content_fingerprint(&mk(2), &SumRanker)
        );
    }

    fn top_ids(db: &HiddenDb) -> Vec<u64> {
        let answer = db.query(&Query::select_all()).unwrap();
        answer.tuples.iter().map(|t| t.id).collect()
    }

    #[test]
    fn rankers_of_one_name_get_their_own_segment() {
        let ds = synthetic::generate(&SyntheticConfig {
            n: 200,
            ..SyntheticConfig::default()
        });
        let dir = std::env::temp_dir().join(format!(
            "skyweb-segment-cache-rankers-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        // Both parameterizations are named "single-attribute", but each
        // orders the table by its own attribute.
        for attr in [0, 1] {
            let ranker = || Box::new(SingleAttributeRanker::new(attr));
            let ram = ds.clone().into_db(ranker(), 5);
            let seg = open_cached(&dir, &ram, ranker(), None);
            assert_eq!(top_ids(&seg), top_ids(&ram), "ranking on attribute {attr}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_segment_of_another_format_version_is_never_reused() {
        let ram = mk(7);
        let dir = std::env::temp_dir().join(format!("skyweb-segment-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Garbage under the names an older build would have read back for
        // this database: the unversioned name and the previous version's.
        let fp = db_content_fingerprint(&ram, &SumRanker);
        for name in [
            format!("{fp:016x}.seg"),
            format!("{fp:016x}-v{}.seg", SEGMENT_VERSION - 1),
        ] {
            std::fs::write(dir.join(name), b"not a segment").unwrap();
        }
        let seg = open_cached(&dir, &ram, Box::new(SumRanker), None);
        assert_eq!(top_ids(&seg), top_ids(&ram));
        assert!(dir
            .join(format!("{fp:016x}-v{SEGMENT_VERSION}.seg"))
            .exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
