//! `skyweb-check` CLI.
//!
//! ```text
//! skyweb-check vendor [--record] [--root <dir>]
//! ```
//!
//! Exit codes: 0 clean, 1 drift, 2 usage or IO error.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use skyweb_check::vendor;

const USAGE: &str = "usage:
  skyweb-check vendor [--record] [--root <dir>]

vendor  audit vendor/ for duplicate crates/modules and fingerprint drift
        against check-vendor.lock (--record rewrites the lock)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match cmd.as_str() {
        "vendor" => cmd_vendor(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown subcommand `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn cmd_vendor(args: &[String]) -> ExitCode {
    let mut record = false;
    let mut root = PathBuf::from(".");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--record" => record = true,
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("--root needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let mut report = vendor::audit(&root);
    let lock_path = root.join("check-vendor.lock");
    if record {
        if let Err(e) = fs::write(&lock_path, vendor::lock_text(&report)) {
            eprintln!("skyweb-check: cannot write {}: {e}", lock_path.display());
            return ExitCode::from(2);
        }
    } else {
        match fs::read_to_string(&lock_path) {
            Ok(lock) => report.errors.extend(vendor::verify_lock(&report, &lock)),
            Err(e) => report.errors.push(format!(
                "cannot read check-vendor.lock ({e}); run `skyweb-check vendor --record`"
            )),
        }
    }

    for c in &report.crates {
        println!(
            "vendor/{}: {} {} ({} files, fingerprint {})",
            c.dir, c.name, c.version, c.files, c.fingerprint
        );
    }
    for e in &report.errors {
        println!("error: {e}");
    }
    println!(
        "skyweb-check vendor: {} crate(s), {} error(s){}",
        report.crates.len(),
        report.errors.len(),
        if record { " [lock recorded]" } else { "" }
    );
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
