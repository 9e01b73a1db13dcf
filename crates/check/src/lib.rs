//! `skyweb-check`: the workspace's own static-analysis and concurrency
//! verification toolkit.
//!
//! Two prongs, both dependency-free (the build environment has no
//! crates.io access):
//!
//! * a **lint pass** ([`lints`]) over a hand-rolled lexer ([`lexer`])
//!   enforcing repo-specific policies — no panics in library paths, no
//!   bare integer casts on wire formats, a cross-file wire-constant
//!   registry, error-enum trait completeness, and no wall-clock reads
//!   outside the bench crate — with a justified allowlist ([`allow`]),
//!   JSON output ([`json`]) and a vendored-dependency audit ([`vendor`]);
//! * a **deterministic interleaving explorer** ([`explore`]) — a
//!   loom-lite stateless model checker that drives the storage layer's
//!   concurrent cores (`hidden_db::conc`) through every schedule of small
//!   thread programs via the [`model`] sync facade, checking cache-budget,
//!   second-chance and log-sequence invariants under all interleavings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allow;
pub mod explore;
pub mod json;
pub mod lexer;
pub mod lints;
pub mod model;
pub mod vendor;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lints::FileInput;

/// The workspace's library crates: sources where the L1 no-panic policy
/// applies. `crates/bench` and `crates/check` are tooling and exempt;
/// `vendor/` is third-party and never linted.
const LIB_CRATE_DIRS: &[&str] = &[
    "crates/hidden-db/src",
    "crates/core/src",
    "crates/skyline/src",
    "crates/datagen/src",
    "crates/net/src",
    "src",
];

/// Wire-format sources where the L2 bare-cast policy applies.
const WIRE_PATHS: &[&str] = &[
    "crates/core/src/codec.rs",
    "crates/hidden-db/src/envelope.rs",
    "crates/hidden-db/src/segment.rs",
    "crates/net/src/wire.rs",
];

/// Classifies one repo-relative path into the lint policy classes.
fn classify(rel: &str, source: String) -> FileInput {
    let lib_crate = LIB_CRATE_DIRS
        .iter()
        .any(|d| rel.starts_with(&format!("{d}/")));
    FileInput {
        path: rel.to_string(),
        wire_path: WIRE_PATHS.contains(&rel),
        bench: rel.starts_with("crates/bench/"),
        lib_crate,
        source,
    }
}

/// Recursively collects `.rs` files under `dir`, skipping `target`.
fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && name != "vendor" && name != ".git" {
                walk_rs(&path, out)?;
            }
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walks the workspace at `root` and returns the lintable sources: every
/// `src/` file of the first-party crates (tests/ directories, `vendor/`
/// and `target/` are excluded), classified for the per-path policies.
pub fn workspace_files(root: &Path) -> io::Result<Vec<FileInput>> {
    let mut roots: Vec<PathBuf> = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut subs: Vec<_> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        subs.sort();
        for sub in subs {
            roots.push(sub.join("src"));
        }
    }
    let mut paths = Vec::new();
    for r in roots {
        if r.is_dir() {
            walk_rs(&r, &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        let source = fs::read_to_string(&p)?;
        files.push(classify(&rel, source));
    }
    Ok(files)
}

/// Reads an explicit file list (fixture mode): every file is treated as
/// library-crate + wire-path + non-bench so all lints fire.
pub fn explicit_files(root: &Path, rels: &[String]) -> io::Result<Vec<FileInput>> {
    let mut files = Vec::with_capacity(rels.len());
    for rel in rels {
        let source = fs::read_to_string(root.join(rel))?;
        files.push(FileInput {
            path: rel.replace('\\', "/"),
            source,
            lib_crate: true,
            wire_path: true,
            bench: false,
        });
    }
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_applies_path_policies() {
        for wire in [
            "crates/hidden-db/src/segment.rs",
            "crates/hidden-db/src/envelope.rs",
        ] {
            let f = classify(wire, String::new());
            assert!(f.lib_crate && f.wire_path && !f.bench, "{wire}");
        }
        let f = classify("crates/bench/src/main.rs", String::new());
        assert!(!f.lib_crate && !f.wire_path && f.bench);
        let f = classify("crates/check/src/lints.rs", String::new());
        assert!(!f.lib_crate && !f.wire_path && !f.bench);
        let f = classify("src/lib.rs", String::new());
        assert!(f.lib_crate);
    }
}
