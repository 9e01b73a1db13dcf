//! Builds persistent columnar segment files for the storage benchmarks.
//!
//! ```text
//! segment_build [--out DIR] [--quick] [--n N] [--k K]
//! ```
//!
//! Writes deterministic segments (same seeds as the figure harnesses, so
//! repeated builds are byte-identical):
//!
//! * `synthetic_<n>.seg` — independent 4-attribute synthetic table
//!   (n = 1,000,000 by default; `--quick` shrinks to 100,000; `--n` picks
//!   any size, e.g. 10,000,000 for the scale-out run),
//! * `flights_<n>.seg` — the DOT-like flight table over the nine primary
//!   ranking attributes (full DOT cardinality 457,013; `--quick` 25,000).
//!
//! Each file is re-opened and scrubbed with `SegmentReader::verify` right
//! after it is written; a segment that fails the scrub exits 1.
//!
//! One `name path bytes n` line per segment goes to stdout (machine
//! readable, consumed by the CI storage job); progress goes to stderr.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use skyweb_datagen::synthetic::{Correlation, SyntheticConfig};
use skyweb_datagen::{flights_dot, synthetic};
use skyweb_hidden_db::{HiddenDb, InterfaceType, SegmentReader, SegmentWriter};

fn usage() {
    eprintln!("usage: segment_build [--out DIR] [--quick] [--n N] [--k K]");
}

/// The deterministic synthetic database the storage benchmarks measure:
/// 4 independent uniform attributes, domain 1,000, seed 42.
fn synthetic_db(n: usize, k: usize) -> HiddenDb {
    synthetic::generate(&SyntheticConfig {
        n,
        m: 4,
        domain_size: 1_000,
        correlation: Correlation::Independent,
        seed: 42,
    })
    .into_db_sum(k)
}

/// The DOT-like flight database over the nine primary ranking attributes,
/// all as two-ended ranges (the fig14 configuration, seed 2015).
fn flights_db(n: usize, k: usize) -> HiddenDb {
    let base = flights_dot::generate(&flights_dot::FlightsDotConfig { n, seed: 2015 });
    let names: Vec<&str> = flights_dot::PRIMARY_RANKING.to_vec();
    let mut ds = base.project(&names);
    for name in &names {
        ds = ds.with_interface(name, InterfaceType::Rq);
    }
    ds.into_db_sum(k)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = PathBuf::from("segments");
    let mut quick = false;
    let mut n_override: Option<usize> = None;
    let mut k = 10usize;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                let Some(dir) = args.get(i + 1) else {
                    usage();
                    return ExitCode::FAILURE;
                };
                out = PathBuf::from(dir);
                i += 1;
            }
            "--quick" => quick = true,
            "--n" => {
                let Some(n) = args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--n needs a positive integer value");
                    usage();
                    return ExitCode::FAILURE;
                };
                n_override = Some(n);
                i += 1;
            }
            "--k" => {
                let parsed = args.get(i + 1).and_then(|v| v.parse::<usize>().ok());
                let Some(v) = parsed.filter(|&v| v >= 1) else {
                    eprintln!("--k needs a positive integer value");
                    usage();
                    return ExitCode::FAILURE;
                };
                k = v;
                i += 1;
            }
            other => {
                eprintln!("unknown argument: {other}");
                usage();
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("cannot create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }

    let synth_n = n_override.unwrap_or(if quick { 100_000 } else { 1_000_000 });
    let flights_n = if quick { 25_000 } else { 457_013 };
    let jobs: Vec<(String, Box<dyn Fn() -> HiddenDb>)> = vec![
        (
            format!("synthetic_{synth_n}"),
            Box::new(move || synthetic_db(synth_n, k)),
        ),
        (
            format!("flights_{flights_n}"),
            Box::new(move || flights_db(flights_n, k)),
        ),
    ];

    for (name, build) in jobs {
        let t = Instant::now();
        let db = build();
        eprintln!(
            "# {name}: built n = {} in {:.1}s",
            db.n(),
            t.elapsed().as_secs_f64()
        );
        let path = out.join(format!("{name}.seg"));
        let t = Instant::now();
        let bytes = match SegmentWriter::new().write_to_path(&db, &path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "# {name}: wrote {bytes} bytes in {:.1}s",
            t.elapsed().as_secs_f64()
        );
        let t = Instant::now();
        if let Err(e) = SegmentReader::open_path(&path).and_then(|reader| reader.verify()) {
            eprintln!("{} fails verification: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("# {name}: verified in {:.1}s", t.elapsed().as_secs_f64());
        println!("{name} {} {bytes} {}", path.display(), db.n());
    }
    ExitCode::SUCCESS
}
