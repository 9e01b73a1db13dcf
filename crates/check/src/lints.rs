//! The repo-specific lint pass: five lints (L1–L5) over the lexed token
//! streams of the workspace sources.
//!
//! | code | lint |
//! |------|------|
//! | L1 | no `unwrap()` / `expect()` / `panic!` in library crates outside `#[cfg(test)]` |
//! | L2 | no bare `as` integer casts in codec/segment wire paths |
//! | L3 | every codec `KIND_*` / `TAG_*` / `CODEC_*` wire constant registered exactly once, with the registered value, in the registered file |
//! | L4 | every public error enum implements `Display` and `std::error::Error` |
//! | L5 | no `Instant::now` / `SystemTime` outside `crates/bench` |
//!
//! The lints are deliberately source-level: they catch what the type
//! system cannot (a *policy* about panics, casts and clocks), they run in
//! milliseconds with zero dependencies, and their findings are precise
//! enough to gate CI on. Findings can be suppressed through the justified
//! allowlist (`check-allow.toml`, see [`crate::allow`]).

use crate::lexer::{int_value, lex, TokKind, Token};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Lint code (`"L1"` … `"L5"`).
    pub lint: &'static str,
    /// Repo-relative file path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// The trimmed source line, for allowlist matching and review.
    pub snippet: String,
}

/// One source file presented to the lint pass, with the policy classes the
/// walker derived from its path.
#[derive(Debug, Clone)]
pub struct FileInput {
    /// Repo-relative path (forward slashes).
    pub path: String,
    /// File contents.
    pub source: String,
    /// `true` for library-crate sources (L1 applies).
    pub lib_crate: bool,
    /// `true` for codec/segment wire-format sources (L2 applies).
    pub wire_path: bool,
    /// `true` for `crates/bench` sources (exempt from L5).
    pub bench: bool,
}

/// Pass-wide options.
#[derive(Debug, Clone, Copy)]
pub struct LintOptions {
    /// When linting the whole workspace, L3 additionally requires every
    /// registry entry to be present (a fixture corpus scans a file subset,
    /// where absence is expected).
    pub expect_full_registry: bool,
}

/// The cross-file wire-constant registry: every `KIND_*` / `TAG_*` byte
/// that appears on disk in a SWCK or SWSG envelope, the value the format
/// documents pin, and the single file allowed to define it. Drift between
/// this table and the sources is an L3 finding — adding a wire constant is
/// supposed to be a conscious, reviewed act. `CODEC_*` constants are
/// collected too, but none is registered: every SWSG v3 chunk has the one
/// frame-of-reference encoding, so a new codec tag is a finding until it
/// is registered here.
const WIRE_REGISTRY: &[(&str, u64, &str)] = &[
    // SWCK checkpoint envelope kinds (crates/core/src/codec.rs).
    ("KIND_CHECKPOINT", 1, "crates/core/src/codec.rs"),
    ("KIND_PLAN", 2, "crates/core/src/codec.rs"),
    ("KIND_RESPONSES", 3, "crates/core/src/codec.rs"),
    // Wire-protocol envelope kinds (handshake + error reply), framed over
    // TCP by skyweb-net.
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
    // SWSG segment section kinds (crates/hidden-db/src/segment.rs).
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

/// Integer type names for the L2 bare-cast lint.
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// A wire-constant definition discovered in the sources.
#[derive(Debug, Clone)]
struct WireConst {
    name: String,
    value: Option<u64>,
    file: String,
    line: u32,
    snippet: String,
}

/// A `pub enum ...Error` definition.
#[derive(Debug, Clone)]
struct ErrorEnum {
    name: String,
    file: String,
    line: u32,
    snippet: String,
    krate: String,
}

/// Runs every lint over `files`, returning findings sorted by
/// (file, line, lint, message).
pub fn lint_files(files: &[FileInput], opts: &LintOptions) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut wire_consts: Vec<WireConst> = Vec::new();
    let mut error_enums: Vec<ErrorEnum> = Vec::new();
    // (crate, trait name, self type) of every trait impl seen.
    let mut impls: Vec<(String, String, String)> = Vec::new();

    for f in files {
        let toks = lex(&f.source);
        let in_test = test_mask(&toks);
        let lines: Vec<&str> = f.source.lines().collect();
        let snippet = |line: u32| -> String {
            lines
                .get(line as usize - 1)
                .map(|l| l.trim().to_string())
                .unwrap_or_default()
        };
        let krate = crate_of(&f.path);

        for (i, t) in toks.iter().enumerate() {
            // L1: .unwrap( / .expect( / panic!  in library code.
            if f.lib_crate && !in_test[i] && t.kind == TokKind::Ident {
                let is_method = |name: &str| {
                    t.is_ident(name)
                        && i > 0
                        && toks[i - 1].is_punct('.')
                        && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                };
                if is_method("unwrap") || is_method("expect") {
                    findings.push(Finding {
                        lint: "L1",
                        file: f.path.clone(),
                        line: t.line,
                        message: format!(
                            "`.{}()` in library code: return a typed error instead of panicking",
                            t.text
                        ),
                        snippet: snippet(t.line),
                    });
                }
                if t.is_ident("panic") && toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
                    findings.push(Finding {
                        lint: "L1",
                        file: f.path.clone(),
                        line: t.line,
                        message: "`panic!` in library code: return a typed error instead"
                            .to_string(),
                        snippet: snippet(t.line),
                    });
                }
            }

            // L2: bare `as <int>` cast in wire-path files.
            if f.wire_path
                && !in_test[i]
                && t.is_ident("as")
                && toks.get(i + 1).is_some_and(|n| {
                    n.kind == TokKind::Ident && INT_TYPES.contains(&n.text.as_str())
                })
            {
                findings.push(Finding {
                    lint: "L2",
                    file: f.path.clone(),
                    line: t.line,
                    message: format!(
                        "bare `as {}` cast on a wire path: use `try_into` or a checked helper",
                        toks[i + 1].text
                    ),
                    snippet: snippet(t.line),
                });
            }

            // L3 collection: `const <WIRE_NAME> : u8 = <value>`.
            if t.is_ident("const")
                && toks.get(i + 1).is_some_and(|n| {
                    n.kind == TokKind::Ident
                        && (n.text.starts_with("KIND_")
                            || n.text.starts_with("TAG_")
                            || n.text.starts_with("CODEC_"))
                })
            {
                let name = toks[i + 1].text.clone();
                // Expect `: u8 = <number>`; tolerate other shapes by
                // recording value None (flagged as malformed).
                let value = if toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|n| n.is_ident("u8"))
                    && toks.get(i + 4).is_some_and(|n| n.is_punct('='))
                {
                    toks.get(i + 5)
                        .filter(|n| n.kind == TokKind::Number)
                        .and_then(|n| int_value(&n.text))
                } else {
                    None
                };
                wire_consts.push(WireConst {
                    name,
                    value,
                    file: f.path.clone(),
                    line: toks[i + 1].line,
                    snippet: snippet(toks[i + 1].line),
                });
            }

            // L4 collection: `pub enum <Name>Error` and trait impls.
            if f.lib_crate
                && t.is_ident("pub")
                && toks.get(i + 1).is_some_and(|n| n.is_ident("enum"))
                && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Ident)
                && toks[i + 2].text.ends_with("Error")
            {
                error_enums.push(ErrorEnum {
                    name: toks[i + 2].text.clone(),
                    file: f.path.clone(),
                    line: toks[i + 2].line,
                    snippet: snippet(toks[i + 2].line),
                    krate: krate.clone(),
                });
            }
            if t.is_ident("impl") {
                if let Some((trait_name, self_ty)) = parse_impl(&toks, i) {
                    impls.push((krate.clone(), trait_name, self_ty));
                }
            }

            // L5: `Instant::now` / `SystemTime` outside crates/bench.
            if !f.bench && !in_test[i] {
                if t.is_ident("Instant")
                    && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|n| n.is_ident("now"))
                {
                    findings.push(Finding {
                        lint: "L5",
                        file: f.path.clone(),
                        line: t.line,
                        message: "`Instant::now` outside crates/bench breaks replay determinism"
                            .to_string(),
                        snippet: snippet(t.line),
                    });
                }
                if t.is_ident("SystemTime") {
                    findings.push(Finding {
                        lint: "L5",
                        file: f.path.clone(),
                        line: t.line,
                        message: "`SystemTime` outside crates/bench breaks replay determinism"
                            .to_string(),
                        snippet: snippet(t.line),
                    });
                }
            }
        }
    }

    findings.extend(check_registry(&wire_consts, opts));
    findings.extend(check_error_enums(&error_enums, &impls));

    findings.sort_by(|a, b| {
        (&a.file, a.line, a.lint, &a.message).cmp(&(&b.file, b.line, b.lint, &b.message))
    });
    findings
}

/// L3: cross-checks discovered wire constants against [`WIRE_REGISTRY`].
fn check_registry(found: &[WireConst], opts: &LintOptions) -> Vec<Finding> {
    let mut findings = Vec::new();
    for c in found {
        let entry = WIRE_REGISTRY.iter().find(|(name, _, _)| *name == c.name);
        match entry {
            None => findings.push(Finding {
                lint: "L3",
                file: c.file.clone(),
                line: c.line,
                message: format!(
                    "wire constant `{}` is not in the skyweb-check registry: register it in \
                     crates/check/src/lints.rs (WIRE_REGISTRY) with its documented value",
                    c.name
                ),
                snippet: c.snippet.clone(),
            }),
            Some((_, value, file)) => {
                if c.value != Some(*value) {
                    findings.push(Finding {
                        lint: "L3",
                        file: c.file.clone(),
                        line: c.line,
                        message: format!(
                            "wire constant `{}` must be `: u8 = {}` (registry value), found {}",
                            c.name,
                            value,
                            c.value
                                .map(|v| v.to_string())
                                .unwrap_or_else(|| "a non-u8 or non-literal definition".into()),
                        ),
                        snippet: c.snippet.clone(),
                    });
                }
                if c.file != *file {
                    findings.push(Finding {
                        lint: "L3",
                        file: c.file.clone(),
                        line: c.line,
                        message: format!(
                            "wire constant `{}` must be defined only in {} (found a second \
                             definition here)",
                            c.name, file
                        ),
                        snippet: c.snippet.clone(),
                    });
                }
            }
        }
    }
    // Duplicate definitions of the same registered name.
    for (name, _, file) in WIRE_REGISTRY {
        let defs: Vec<&WireConst> = found.iter().filter(|c| c.name == *name).collect();
        if defs.len() > 1 {
            for dup in &defs[1..] {
                findings.push(Finding {
                    lint: "L3",
                    file: dup.file.clone(),
                    line: dup.line,
                    message: format!(
                        "wire constant `{name}` is registered exactly once ({file}); this is \
                         definition #{} ",
                        defs.len()
                    ),
                    snippet: dup.snippet.clone(),
                });
            }
        }
        if opts.expect_full_registry && defs.is_empty() {
            findings.push(Finding {
                lint: "L3",
                file: (*file).to_string(),
                line: 0,
                message: format!(
                    "registered wire constant `{name}` was not found in the sources: remove it \
                     from WIRE_REGISTRY or restore the constant"
                ),
                snippet: String::new(),
            });
        }
    }
    findings
}

/// L4: every public error enum has `Display` and `Error` impls in its
/// crate.
fn check_error_enums(enums: &[ErrorEnum], impls: &[(String, String, String)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for e in enums {
        let has = |trait_name: &str| {
            impls
                .iter()
                .any(|(k, t, s)| *k == e.krate && t == trait_name && *s == e.name)
        };
        if !has("Display") {
            findings.push(Finding {
                lint: "L4",
                file: e.file.clone(),
                line: e.line,
                message: format!("public error enum `{}` has no `Display` impl", e.name),
                snippet: e.snippet.clone(),
            });
        }
        if !has("Error") {
            findings.push(Finding {
                lint: "L4",
                file: e.file.clone(),
                line: e.line,
                message: format!(
                    "public error enum `{}` has no `std::error::Error` impl",
                    e.name
                ),
                snippet: e.snippet.clone(),
            });
        }
    }
    findings
}

/// Parses `impl [<generics>] TraitPath for SelfType` starting at the
/// `impl` token; returns (last trait path segment, self type name).
fn parse_impl(toks: &[Token], i: usize) -> Option<(String, String)> {
    let mut j = i + 1;
    // Skip a generic parameter list.
    if toks.get(j)?.is_punct('<') {
        let mut depth = 1;
        j += 1;
        while depth > 0 {
            let t = toks.get(j)?;
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                depth -= 1;
            }
            j += 1;
        }
    }
    // Collect the trait path until `for` (bail at `{`/`(`: inherent impl).
    let mut last_ident: Option<String> = None;
    loop {
        let t = toks.get(j)?;
        if t.is_ident("for") {
            break;
        }
        if t.is_punct('{') || t.is_punct('(') || t.is_ident("where") {
            return None;
        }
        if t.kind == TokKind::Ident {
            last_ident = Some(t.text.clone());
        }
        // Skip the trait's own generic arguments.
        if t.is_punct('<') {
            let mut depth = 1;
            j += 1;
            while depth > 0 {
                let t = toks.get(j)?;
                if t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct('>') {
                    depth -= 1;
                }
                j += 1;
            }
            continue;
        }
        j += 1;
    }
    // Self type: first identifier after `for` (skip `&`, lifetimes, `mut`).
    let mut k = j + 1;
    loop {
        let t = toks.get(k)?;
        if t.kind == TokKind::Ident && !t.is_ident("mut") && !t.is_ident("dyn") {
            return Some((last_ident?, t.text.clone()));
        }
        if t.is_punct('{') {
            return None;
        }
        k += 1;
    }
}

/// Which crate a repo-relative path belongs to (`crates/<name>` or the
/// umbrella `skyweb` for top-level `src/`).
fn crate_of(path: &str) -> String {
    let mut parts = path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("unknown").to_string(),
        _ => "skyweb".to_string(),
    }
}

/// Marks every token inside a `#[test]` / `#[cfg(test)]`-gated item (the
/// attribute, the item header and its balanced body).
fn test_mask(toks: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        // One or more outer attributes; remember whether any mentions
        // `test` (covers #[test], #[cfg(test)], #[cfg(all(test, ...))]).
        let attr_start = i;
        let mut gated = false;
        while toks.get(i).is_some_and(|t| t.is_punct('#'))
            && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
        {
            let mut depth = 0usize;
            let mut j = i + 1;
            while let Some(t) = toks.get(j) {
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if t.is_ident("test") {
                    gated = true;
                }
                j += 1;
            }
            i = j + 1;
        }
        if !gated {
            continue;
        }
        // Skip the gated item: to the first top-level `;` (no body) or
        // through the balanced block of the first top-level `{`.
        let mut depth_paren = 0i32;
        let mut end = i;
        while let Some(t) = toks.get(end) {
            if t.is_punct('(') || t.is_punct('[') {
                depth_paren += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth_paren -= 1;
            } else if t.is_punct(';') && depth_paren == 0 {
                end += 1;
                break;
            } else if t.is_punct('{') && depth_paren == 0 {
                let mut braces = 1i32;
                end += 1;
                while let Some(b) = toks.get(end) {
                    if b.is_punct('{') {
                        braces += 1;
                    } else if b.is_punct('}') {
                        braces -= 1;
                        if braces == 0 {
                            break;
                        }
                    }
                    end += 1;
                }
                end += 1;
                break;
            }
            end += 1;
        }
        for m in mask.iter_mut().take(end.min(toks.len())).skip(attr_start) {
            *m = true;
        }
        i = end;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(path: &str, source: &str) -> FileInput {
        FileInput {
            path: path.to_string(),
            source: source.to_string(),
            lib_crate: true,
            wire_path: true,
            bench: false,
        }
    }

    const OPTS: LintOptions = LintOptions {
        expect_full_registry: false,
    };

    #[test]
    fn l1_flags_unwrap_outside_tests_only() {
        let src = r#"
fn lib() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); z.expect("ok"); panic!("boom"); }
}
"#;
        let f = lint_files(&[input("crates/hidden-db/src/x.rs", src)], &OPTS);
        let l1: Vec<&Finding> = f.iter().filter(|f| f.lint == "L1").collect();
        assert_eq!(l1.len(), 1);
        assert_eq!(l1[0].line, 2);
    }

    #[test]
    fn l1_ignores_unwrap_or_and_comments() {
        let src = "fn lib() { x.unwrap_or(0); y.unwrap_or_else(|| 1); } // x.unwrap()\n";
        let f = lint_files(&[input("crates/hidden-db/src/x.rs", src)], &OPTS);
        assert!(f.iter().all(|f| f.lint != "L1"));
    }

    #[test]
    fn l2_flags_bare_casts_in_wire_paths_only() {
        let src = "fn f(n: usize) -> u64 { n as u64 }\n";
        let wire = lint_files(&[input("crates/hidden-db/src/x.rs", src)], &OPTS);
        assert_eq!(wire.iter().filter(|f| f.lint == "L2").count(), 1);
        let mut non_wire = input("crates/hidden-db/src/x.rs", src);
        non_wire.wire_path = false;
        let f = lint_files(&[non_wire], &OPTS);
        assert!(f.iter().all(|f| f.lint != "L2"));
    }

    #[test]
    fn l3_flags_unregistered_and_wrong_value() {
        let src = "const KIND_BOGUS: u8 = 77;\nconst KIND_FOOTER: u8 = 9;\n";
        let f = lint_files(&[input("crates/hidden-db/src/segment.rs", src)], &OPTS);
        let l3: Vec<&Finding> = f.iter().filter(|f| f.lint == "L3").collect();
        assert_eq!(l3.len(), 2);
    }

    #[test]
    fn l4_requires_display_and_error() {
        let src = "pub enum LonelyError { A }\n";
        let f = lint_files(&[input("crates/hidden-db/src/x.rs", src)], &OPTS);
        assert_eq!(f.iter().filter(|f| f.lint == "L4").count(), 2);
        let ok = "pub enum FineError { A }\nimpl fmt::Display for FineError {}\nimpl std::error::Error for FineError {}\n";
        let f = lint_files(&[input("crates/hidden-db/src/x.rs", ok)], &OPTS);
        assert!(f.iter().all(|f| f.lint != "L4"));
    }

    #[test]
    fn l5_flags_clocks_outside_bench() {
        let src = "fn f() { let t = Instant::now(); let s = SystemTime::now(); }\n";
        let f = lint_files(&[input("crates/core/src/x.rs", src)], &OPTS);
        assert_eq!(f.iter().filter(|f| f.lint == "L5").count(), 2);
        let mut bench = input("crates/bench/src/x.rs", src);
        bench.bench = true;
        let f = lint_files(&[bench], &OPTS);
        assert!(f.iter().all(|f| f.lint != "L5"));
    }
}
