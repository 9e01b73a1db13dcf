//! Source policies L3 and L4 (see `docs/static-analysis.md`), the two that
//! clippy has no lint for, checked by scanning the first-party `src/`
//! trees line by line:
//!
//! * L3: every `KIND_*` / `TAG_*` / `CODEC_*` wire constant is defined
//!   exactly once, in its registered file, as `: u8 = <registered value>`,
//!   and every registered constant exists;
//! * L4: every `pub enum …Error` in a library crate has an
//!   `impl … Error for` it in the same crate. `Display` needs no check of
//!   its own: `std::error::Error` requires it.

use std::fs;
use std::path::Path;

/// L3's registry: every `KIND_*` / `TAG_*` byte that appears in a SWCK or
/// SWSG envelope, the value the format documents pin, and the one file
/// allowed to define it. Adding a wire constant is meant to be a reviewed
/// act, so a constant missing from this table fails. `CODEC_*` names are
/// checked too, and none is registered: every SWSG v3 chunk has the one
/// frame-of-reference encoding.
const WIRE_REGISTRY: &[(&str, u8, &str)] = &[
    // SWCK checkpoint envelope kinds.
    ("KIND_CHECKPOINT", 1, "crates/core/src/codec.rs"),
    ("KIND_PLAN", 2, "crates/core/src/codec.rs"),
    ("KIND_RESPONSES", 3, "crates/core/src/codec.rs"),
    // Wire-protocol envelope kinds (handshake and error reply), framed
    // over TCP by skyweb-net.
    ("KIND_HELLO", 4, "crates/core/src/codec.rs"),
    ("KIND_WELCOME", 5, "crates/core/src/codec.rs"),
    ("KIND_ERROR", 6, "crates/core/src/codec.rs"),
    // Machine tags 1–8 of the checkpoint payload.
    ("TAG_SQ", 1, "crates/core/src/codec.rs"),
    ("TAG_RQ", 2, "crates/core/src/codec.rs"),
    ("TAG_PQ", 3, "crates/core/src/codec.rs"),
    ("TAG_PQ2D", 4, "crates/core/src/codec.rs"),
    ("TAG_MQ", 5, "crates/core/src/codec.rs"),
    ("TAG_SKYBAND", 6, "crates/core/src/codec.rs"),
    ("TAG_CRAWL", 7, "crates/core/src/codec.rs"),
    ("TAG_POINT_CRAWL", 8, "crates/core/src/codec.rs"),
    // SWSG segment section kinds.
    ("KIND_FOOTER", 1, "crates/hidden-db/src/segment.rs"),
    ("KIND_ZONES", 2, "crates/hidden-db/src/segment.rs"),
    ("KIND_STARTS", 3, "crates/hidden-db/src/segment.rs"),
    ("KIND_PERM", 4, "crates/hidden-db/src/segment.rs"),
    ("KIND_RANK_OF", 5, "crates/hidden-db/src/segment.rs"),
    ("KIND_RANK_COL", 6, "crates/hidden-db/src/segment.rs"),
    ("KIND_STORE_COL", 7, "crates/hidden-db/src/segment.rs"),
    ("KIND_ORDER", 8, "crates/hidden-db/src/segment.rs"),
    ("KIND_IDS", 9, "crates/hidden-db/src/segment.rs"),
];

/// The source trees of the library crates, where L4 applies.
const LIB_SRC_DIRS: &[&str] = &[
    "crates/hidden-db/src/",
    "crates/core/src/",
    "crates/skyline/src/",
    "crates/datagen/src/",
    "crates/net/src/",
    "src/",
];

/// One source file: its repo-relative path (forward slashes) and text.
type Source = (String, String);

/// Every `.rs` file under the workspace's `src/` and `crates/*/src/`.
fn workspace_sources() -> Vec<Source> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut dirs = vec!["src".to_string()];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let name = entry.expect("crates/ entry").file_name();
        dirs.push(format!("crates/{}/src", name.to_string_lossy()));
    }
    let mut sources = Vec::new();
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = fs::read_dir(root.join(&dir)) else {
            continue;
        };
        for entry in entries {
            let entry = entry.expect("source dir entry");
            let rel = format!("{dir}/{}", entry.file_name().to_string_lossy());
            if entry.path().is_dir() {
                dirs.push(rel);
            } else if rel.ends_with(".rs") {
                let text = fs::read_to_string(entry.path()).expect("source is UTF-8");
                sources.push((rel, text));
            }
        }
    }
    sources.sort();
    sources
}

/// The trimmed non-comment lines of `text`, with 1-based line numbers.
fn code_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, line)| (i + 1, line.trim()))
        .filter(|(_, line)| !line.starts_with("//"))
}

/// The crate a repo-relative path belongs to: `crates/<name>`, or the
/// umbrella package for the top-level `src/`.
fn crate_of(path: &str) -> &str {
    match path.strip_prefix("crates/") {
        Some(rest) => rest.split('/').next().unwrap_or(rest),
        None => "skyweb",
    }
}

/// The identifier at the start of `s`.
fn leading_ident(s: &str) -> &str {
    let end = s
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(s.len());
    &s[..end]
}

/// `[pub…] const NAME…` where NAME has a wire prefix: the name, and the
/// definition after it with its whitespace and trailing comment removed.
fn wire_const(line: &str) -> Option<(&str, String)> {
    if !(line.starts_with("const ") || line.starts_with("pub")) {
        return None;
    }
    let (_, rest) = line.split_once("const ")?;
    let name = leading_ident(rest);
    if !["KIND_", "TAG_", "CODEC_"]
        .iter()
        .any(|p| name.starts_with(p))
    {
        return None;
    }
    let definition = rest[name.len()..].split("//").next().unwrap_or_default();
    Some((name, definition.split_whitespace().collect()))
}

/// L3 over `sources`: one message per violation.
fn wire_violations(sources: &[Source]) -> Vec<String> {
    // (name, definition, file, line) of every wire constant.
    let mut found = Vec::new();
    for (path, text) in sources {
        for (line, code) in code_lines(text) {
            if let Some((name, definition)) = wire_const(code) {
                found.push((name, definition, path.as_str(), line));
            }
        }
    }
    let mut violations = Vec::new();
    for (name, _, path, line) in &found {
        if !WIRE_REGISTRY.iter().any(|(n, _, _)| n == name) {
            violations.push(format!(
                "{path}:{line}: wire constant `{name}` is not registered in WIRE_REGISTRY"
            ));
        }
    }
    for &(name, value, file) in WIRE_REGISTRY {
        let defs: Vec<_> = found.iter().filter(|(n, ..)| *n == name).collect();
        match defs.len() {
            0 => violations.push(format!(
                "{file}: registered wire constant `{name}` is missing"
            )),
            1 => {}
            n => {
                let sites: Vec<String> = defs.iter().map(|(.., p, l)| format!("{p}:{l}")).collect();
                let sites = sites.join(", ");
                violations.push(format!(
                    "wire constant `{name}` is defined {n} times: {sites}"
                ));
            }
        }
        for (_, definition, path, line) in defs {
            if *path != file {
                violations.push(format!(
                    "{path}:{line}: `{name}` may be defined only in {file}"
                ));
            }
            if *definition != format!(":u8={value};") {
                violations.push(format!("{path}:{line}: `{name}` must be `: u8 = {value};`"));
            }
        }
    }
    violations
}

/// The self type of an `impl … Error for <Type>` line.
fn error_impl_target(line: &str) -> Option<&str> {
    let (trait_path, self_ty) = line.strip_prefix("impl")?.split_once(" for ")?;
    let trait_name = trait_path.split_whitespace().last()?.rsplit("::").next()?;
    (trait_name == "Error").then(|| leading_ident(self_ty.trim_start_matches(['&', ' '])))
}

/// L4 over `sources`: one message per error enum without an `Error` impl.
fn error_enum_violations(sources: &[Source]) -> Vec<String> {
    let mut enums = Vec::new();
    let mut impls = Vec::new();
    for (path, text) in sources {
        if !LIB_SRC_DIRS.iter().any(|dir| path.starts_with(dir)) {
            continue;
        }
        for (line, code) in code_lines(text) {
            let name = code.strip_prefix("pub enum ").map(leading_ident);
            if let Some(name) = name.filter(|name| name.ends_with("Error")) {
                enums.push((crate_of(path), name, format!("{path}:{line}")));
            }
            if let Some(target) = error_impl_target(code) {
                impls.push((crate_of(path), target));
            }
        }
    }
    enums
        .into_iter()
        .filter(|(krate, name, _)| !impls.contains(&(*krate, *name)))
        .map(|(_, name, at)| format!("{at}: public error enum `{name}` has no `Error` impl"))
        .collect()
}

#[test]
fn every_wire_constant_is_registered_once_with_its_value() {
    let violations = wire_violations(&workspace_sources());
    assert!(violations.is_empty(), "L3:\n{}", violations.join("\n"));
}

#[test]
fn every_public_error_enum_implements_error() {
    let violations = error_enum_violations(&workspace_sources());
    assert!(violations.is_empty(), "L4:\n{}", violations.join("\n"));
}

/// Both scans flag each kind of violation they exist for, so a scan that
/// stops matching cannot pass the workspace checks above vacuously.
#[test]
fn the_scans_flag_every_violation_kind() {
    let source = |path: &str, text: &str| (path.to_string(), text.to_string());
    let codec = "pub const KIND_PLAN: u8 = 7;\nconst KIND_NEW: u8 = 10;\n";
    let wire = "pub(crate) const KIND_PLAN: u8 = 2; // a second home\n";
    let l3 = wire_violations(&[
        source("crates/core/src/codec.rs", codec),
        source("crates/net/src/wire.rs", wire),
    ]);
    for expected in [
        "crates/core/src/codec.rs:2: wire constant `KIND_NEW` is not registered",
        "registered wire constant `KIND_CHECKPOINT` is missing",
        "wire constant `KIND_PLAN` is defined 2 times",
        "crates/core/src/codec.rs:1: `KIND_PLAN` must be `: u8 = 2;`",
        "crates/net/src/wire.rs:1: `KIND_PLAN` may be defined only in crates/core/src/codec.rs",
    ] {
        assert!(
            l3.iter().any(|v| v.contains(expected)),
            "{expected}\n{l3:#?}"
        );
    }

    let errors = "pub enum LonelyError {\n    A,\n}\n\
                  pub enum FineError {\n    A,\n}\n\
                  impl std::error::Error for FineError {}\n\
                  pub enum LocalError {}\nimpl Error for LocalError {}\n";
    let l4 = error_enum_violations(&[
        source("crates/hidden-db/src/x.rs", errors),
        // An impl in another crate does not count, and the tools crates
        // are not library crates.
        source(
            "crates/core/src/y.rs",
            "impl std::error::Error for LonelyError {}\n",
        ),
        source("crates/bench/src/z.rs", "pub enum ToolError {}\n"),
    ]);
    assert_eq!(
        l4,
        ["crates/hidden-db/src/x.rs:1: public error enum `LonelyError` has no `Error` impl"]
    );
}
