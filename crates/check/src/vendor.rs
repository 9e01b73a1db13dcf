//! `check vendor`: audits the vendored dependency drop-ins.
//!
//! The build environment has no crates.io access, so `vendor/` carries
//! minimal hand-maintained stand-ins for `rand` and `proptest`. This audit
//! guards the two ways that arrangement can rot:
//!
//! * **duplicate module versions** — two vendor directories claiming the
//!   same package name, a package claiming a name that differs from its
//!   directory, or a crate with both `src/x.rs` and `src/x/mod.rs` for
//!   the same module;
//! * **silent drift** — every crate's files are fingerprinted (FNV-1a 64
//!   over sorted relative paths and contents) and compared against the
//!   committed `check-vendor.lock`, so any edit to a vendored file must
//!   be made consciously (re-record with `check vendor --record`). This
//!   is the paper trail for the future swap to real crates.io releases
//!   noted in ROADMAP.md.

use std::fs;
use std::io;
use std::path::Path;

/// Audit result for one vendored crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VendorCrate {
    /// Package name from `[package]` in its Cargo.toml.
    pub name: String,
    /// Package version (literal, or `workspace` when inherited).
    pub version: String,
    /// Directory name under `vendor/`.
    pub dir: String,
    /// Number of fingerprinted files.
    pub files: usize,
    /// FNV-1a 64 content fingerprint, hex.
    pub fingerprint: String,
}

/// The full vendor audit: per-crate records plus consistency errors.
#[derive(Debug, Default)]
pub struct VendorReport {
    /// One record per vendored crate, sorted by directory name.
    pub crates: Vec<VendorCrate>,
    /// Consistency problems (duplicates, parse failures, lock drift).
    pub errors: Vec<String>,
}

/// 64-bit FNV-1a.
fn fnv1a64(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Extracts `name` and `version` from a vendored crate's Cargo.toml
/// (naive single-pass parse of the `[package]` section).
fn package_meta(toml: &str) -> (Option<String>, Option<String>) {
    let mut in_package = false;
    let mut name = None;
    let mut version = None;
    for raw in toml.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if !in_package {
            continue;
        }
        if let Some((key, value)) = line.split_once('=') {
            let key = key.trim();
            let value = value.trim();
            let literal = value
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .map(str::to_string);
            match key {
                "name" => name = literal,
                "version" => version = literal,
                "version.workspace" => version = Some("workspace".to_string()),
                _ => {}
            }
        }
    }
    (name, version)
}

/// Collects `.rs` and `.toml` files under `dir` (sorted relative paths).
fn crate_files(dir: &Path) -> io::Result<Vec<(String, Vec<u8>)>> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d)? {
            let entry = entry?;
            let path = entry.path();
            if path.is_dir() {
                if entry.file_name() != "target" {
                    stack.push(path);
                }
                continue;
            }
            let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
            if ext == "rs" || ext == "toml" {
                let rel = path
                    .strip_prefix(dir)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                files.push((rel, fs::read(&path)?));
            }
        }
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(files)
}

/// Audits `vendor/` under `root`. IO failures become report errors, not
/// panics.
pub fn audit(root: &Path) -> VendorReport {
    let mut report = VendorReport::default();
    let vendor = root.join("vendor");
    let mut dirs: Vec<_> = match fs::read_dir(&vendor) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_dir())
            .map(|e| e.path())
            .collect(),
        Err(e) => {
            report.errors.push(format!("cannot read vendor/: {e}"));
            return report;
        }
    };
    dirs.sort();

    for dir in dirs {
        let dir_name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let manifest = match fs::read_to_string(dir.join("Cargo.toml")) {
            Ok(m) => m,
            Err(e) => {
                report
                    .errors
                    .push(format!("vendor/{dir_name}: unreadable Cargo.toml: {e}"));
                continue;
            }
        };
        let (name, version) = package_meta(&manifest);
        let Some(name) = name else {
            report.errors.push(format!(
                "vendor/{dir_name}: Cargo.toml has no [package] name"
            ));
            continue;
        };
        if name != dir_name {
            report.errors.push(format!(
                "vendor/{dir_name}: package name `{name}` does not match its directory \
                 (two versions of one crate would collide silently)"
            ));
        }
        // Duplicate module versions: src/x.rs next to src/x/mod.rs.
        let src = dir.join("src");
        if let Ok(rd) = fs::read_dir(&src) {
            for entry in rd.filter_map(|e| e.ok()) {
                let p = entry.path();
                if p.extension().and_then(|e| e.to_str()) == Some("rs") {
                    if let Some(stem) = p.file_stem().and_then(|s| s.to_str()) {
                        if src.join(stem).join("mod.rs").is_file() {
                            report.errors.push(format!(
                                "vendor/{dir_name}: module `{stem}` exists as both src/{stem}.rs \
                                 and src/{stem}/mod.rs"
                            ));
                        }
                    }
                }
            }
        }
        let files = match crate_files(&dir) {
            Ok(f) => f,
            Err(e) => {
                report
                    .errors
                    .push(format!("vendor/{dir_name}: walk failed: {e}"));
                continue;
            }
        };
        let mut fp = FNV_OFFSET;
        for (rel, content) in &files {
            fp = fnv1a64(fp, rel.as_bytes());
            fp = fnv1a64(fp, &[0]);
            fp = fnv1a64(fp, content);
            fp = fnv1a64(fp, &[0xFF]);
        }
        report.crates.push(VendorCrate {
            name,
            version: version.unwrap_or_else(|| "unknown".to_string()),
            dir: dir_name,
            files: files.len(),
            fingerprint: format!("{fp:016x}"),
        });
    }

    // Duplicate package names across vendor directories.
    for i in 0..report.crates.len() {
        for j in i + 1..report.crates.len() {
            if report.crates[i].name == report.crates[j].name {
                report.errors.push(format!(
                    "package `{}` is vendored twice (vendor/{} and vendor/{})",
                    report.crates[i].name, report.crates[i].dir, report.crates[j].dir
                ));
            }
        }
    }
    report
}

/// Renders the committed lock format: one `name version files fingerprint`
/// line per crate.
pub fn lock_text(report: &VendorReport) -> String {
    let mut out = String::from(
        "# Vendored-crate fingerprints, maintained by `skyweb-check vendor --record`.\n\
         # Any drift fails `skyweb-check vendor` in CI: edit vendored code consciously.\n",
    );
    for c in &report.crates {
        out.push_str(&format!(
            "{} {} {} {}\n",
            c.name, c.version, c.files, c.fingerprint
        ));
    }
    out
}

/// Compares a fresh audit against the committed lock text; drift becomes
/// report-style error strings.
pub fn verify_lock(report: &VendorReport, lock: &str) -> Vec<String> {
    let mut errors = Vec::new();
    let mut recorded = Vec::new();
    for line in lock.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        if parts.len() != 4 {
            errors.push(format!("check-vendor.lock: malformed line `{line}`"));
            continue;
        }
        recorded.push((
            parts[0].to_string(),
            parts[1].to_string(),
            parts[2].to_string(),
            parts[3].to_string(),
        ));
    }
    for c in &report.crates {
        match recorded.iter().find(|(n, _, _, _)| *n == c.name) {
            None => errors.push(format!(
                "vendor/{}: not in check-vendor.lock (run `skyweb-check vendor --record`)",
                c.dir
            )),
            Some((_, v, files, fp)) => {
                if *v != c.version || *files != c.files.to_string() || *fp != c.fingerprint {
                    errors.push(format!(
                        "vendor/{}: drifted from check-vendor.lock (recorded {v} {files} {fp}, \
                         found {} {} {}) — review the change, then `skyweb-check vendor --record`",
                        c.dir, c.version, c.files, c.fingerprint
                    ));
                }
            }
        }
    }
    for (name, _, _, _) in &recorded {
        if !report.crates.iter().any(|c| c.name == *name) {
            errors.push(format!(
                "check-vendor.lock records `{name}` but vendor/ has no such crate"
            ));
        }
    }
    errors
}

/// Renders the JSON form of the audit.
pub fn json_report(report: &VendorReport) -> String {
    use crate::json::escape;
    let mut out = String::from("{\n  \"crates\": [");
    for (i, c) in report.crates.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"version\": \"{}\", \"files\": {}, \"fingerprint\": \
             \"{}\"}}",
            escape(&c.name),
            escape(&c.version),
            c.files,
            escape(&c.fingerprint)
        ));
    }
    if !report.crates.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"errors\": [");
    for (i, e) in report.errors.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{}\"", escape(e)));
    }
    if !report.errors.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}
