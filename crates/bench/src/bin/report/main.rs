//! Layer reports behind the committed `BENCH_<suite>.json` files: the query
//! engine, the segment store, the knowledge base, the multi-tenant service,
//! the wire protocol and the figure worker pool.
//!
//! ```text
//! cargo run -p skyweb-bench --release --bin report -- <suite> [--quick] [--out PATH] [--segment PATH]
//! ```
//!
//! Suites: `interface`, `storage`, `knowledge`, `service`, `net` and
//! `parallel`; each module documents what it measures. Every suite runs at
//! full scale unless `--quick` shrinks its workload (CI smoke). `--out`
//! defaults to `BENCH_<suite>.json`. `--segment` (storage only) measures a
//! prebuilt segment file instead of building one.
//!
//! A suite's checks are assertions: a failed one aborts the run before
//! anything is written. Its measurements are records of one schema, printed
//! to stdout as a table and written as
//! `{"suite", "scale", "records": [{"case", "metric", "unit", "value"}]}`,
//! with one number format for both. The process peak RSS is appended to
//! every suite as case `process`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use skyweb_bench::Scale;

mod interface;
mod knowledge;
mod net;
mod parallel;
mod service;
mod storage;

/// A suite's entry point: its records, or why it could not run.
type Suite = fn(&Args) -> Result<Vec<Record>, String>;

const SUITES: [(&str, Suite); 6] = [
    ("interface", interface::run),
    ("storage", storage::run),
    ("knowledge", knowledge::run),
    ("service", service::run),
    ("net", net::run),
    ("parallel", parallel::run),
];

const USAGE: &str = "usage: report <interface|storage|knowledge|service|net|parallel> \
                     [--quick] [--out PATH] [--segment PATH]";

/// One measurement: `value`, in `unit`, of `metric` on `case`.
struct Record {
    case: String,
    metric: &'static str,
    unit: &'static str,
    value: f64,
}

impl Record {
    fn new(case: impl Into<String>, metric: &'static str, unit: &'static str, value: f64) -> Self {
        Record {
            case: case.into(),
            metric,
            unit,
            value,
        }
    }
}

/// A `process` record, named `metric`, of the process peak RSS so far
/// (`VmHWM` from `/proc/self/status`, in kB), if the platform exposes it
/// (Linux).
fn peak_rss_record(metric: &'static str) -> Option<Record> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(Record::new("process", metric, "kB", kb as f64))
}

/// The three records of a baseline-versus-new row: both measurements in
/// `unit` and the speedup of the second over the first.
fn compared(
    case: &str,
    unit: &'static str,
    (base_metric, base): (&'static str, f64),
    (new_metric, new): (&'static str, f64),
) -> [Record; 3] {
    [
        Record::new(case, base_metric, unit, base),
        Record::new(case, new_metric, unit, new),
        Record::new(case, "speedup", "ratio", base / new),
    ]
}

/// The parsed command line.
#[derive(Debug)]
struct Args {
    suite: &'static str,
    scale: Scale,
    out: PathBuf,
    segment: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut suite = None;
    let mut scale = Scale::Full;
    let mut out = None;
    let mut segment = None;
    let mut argv = argv.iter();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--out" => out = Some(PathBuf::from(argv.next().ok_or("--out needs a path")?)),
            "--segment" => {
                segment = Some(PathBuf::from(argv.next().ok_or("--segment needs a path")?));
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            name => {
                if let Some(first) = suite {
                    return Err(format!("one suite per run, got {first} and {name}"));
                }
                let (known, _) = SUITES
                    .iter()
                    .find(|(known, _)| *known == name)
                    .ok_or_else(|| format!("unknown suite {name}"))?;
                suite = Some(*known);
            }
        }
    }
    let suite = suite.ok_or("missing suite")?;
    if segment.is_some() && suite != "storage" {
        return Err(format!(
            "--segment applies to the storage suite, not {suite}"
        ));
    }
    Ok(Args {
        suite,
        scale,
        out: out.unwrap_or_else(|| PathBuf::from(format!("BENCH_{suite}.json"))),
        segment,
    })
}

/// Mean wall-clock nanoseconds per call of `f` over `iters` timed calls,
/// after `warmup` untimed ones. Every result goes through `black_box`, so
/// the measured work cannot be optimized away.
fn time_ns<R>(warmup: u64, iters: u64, mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// The `p`-th percentile (0.0..=1.0, nearest rank) of a sorted sample; 0
/// for an empty one.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The one number format of the table and the JSON: four decimals with
/// trailing zeros dropped, so integral values print as integers.
fn format_value(v: f64) -> String {
    assert!(v.is_finite(), "a record's value must be finite, got {v}");
    let fixed = format!("{v:.4}");
    fixed
        .trim_end_matches('0')
        .trim_end_matches('.')
        .to_string()
}

fn table(records: &[Record]) -> String {
    let values: Vec<String> = records.iter().map(|r| format_value(r.value)).collect();
    let case_w = records.iter().map(|r| r.case.len()).fold(4, usize::max);
    let metric_w = records.iter().map(|r| r.metric.len()).fold(6, usize::max);
    let value_w = values.iter().map(String::len).fold(5, usize::max);
    let mut out = format!(
        "{:<case_w$}  {:<metric_w$}  {:>value_w$}  unit\n",
        "case", "metric", "value"
    );
    for (r, value) in records.iter().zip(&values) {
        out += &format!(
            "{:<case_w$}  {:<metric_w$}  {value:>value_w$}  {}\n",
            r.case, r.metric, r.unit
        );
    }
    out
}

fn json(suite: &str, scale: Scale, records: &[Record]) -> String {
    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "    {{\"case\": \"{}\", \"metric\": \"{}\", \"unit\": \"{}\", \"value\": {}}}",
                r.case,
                r.metric,
                r.unit,
                format_value(r.value)
            )
        })
        .collect();
    format!(
        "{{\n  \"suite\": \"{suite}\",\n  \"scale\": \"{}\",\n  \"records\": [\n{}\n  ]\n}}\n",
        scale.pick("quick", "full"),
        rows.join(",\n")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("report: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let (_, run) = SUITES
        .iter()
        .find(|(name, _)| *name == args.suite)
        .expect("parse_args accepts only known suites");
    let mut records = match run(&args) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("report {}: {e}", args.suite);
            return ExitCode::FAILURE;
        }
    };
    records.extend(peak_rss_record("peak_rss_kb"));
    print!("{}", table(&records));
    let out = args.out.display();
    match std::fs::write(&args.out, json(args.suite, args.scale, &records)) {
        Ok(()) => {
            eprintln!("# wrote {out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("# failed to write {out}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(&argv.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn writer_output_is_exact() {
        let records = [
            Record::new("workload", "n", "count", 100_000.0),
            Record::new("select_all_topk", "cold_open_ms", "ms", 2.277_31),
        ];
        assert_eq!(
            table(&records),
            "case             metric         value  unit\n\
             workload         n             100000  count\n\
             select_all_topk  cold_open_ms  2.2773  ms\n"
        );
        assert_eq!(
            json("storage", Scale::Full, &records),
            "{\n  \"suite\": \"storage\",\n  \"scale\": \"full\",\n  \"records\": [\n    \
             {\"case\": \"workload\", \"metric\": \"n\", \"unit\": \"count\", \"value\": 100000},\n    \
             {\"case\": \"select_all_topk\", \"metric\": \"cold_open_ms\", \"unit\": \"ms\", \
             \"value\": 2.2773}\n  ]\n}\n"
        );
    }

    #[test]
    fn out_defaults_to_the_suite_file_at_full_scale() {
        for (suite, _) in SUITES {
            let args = parse(&[suite]).expect("a bare suite is a valid command line");
            assert_eq!(args.suite, suite);
            assert_eq!(args.scale, Scale::Full);
            assert_eq!(args.out, PathBuf::from(format!("BENCH_{suite}.json")));
            assert_eq!(args.segment, None);
        }
        let args = parse(&[
            "--quick",
            "storage",
            "--out",
            "o.json",
            "--segment",
            "s.seg",
        ])
        .expect("every flag of the storage suite");
        assert_eq!(args.scale, Scale::Quick);
        assert_eq!(args.out, PathBuf::from("o.json"));
        assert_eq!(args.segment, Some(PathBuf::from("s.seg")));
    }

    #[test]
    fn bad_command_lines_are_usage_errors() {
        let error = |argv: &[&str]| parse(argv).expect_err("must be rejected");
        assert_eq!(error(&[]), "missing suite");
        assert_eq!(error(&["--quick"]), "missing suite");
        assert_eq!(error(&["perf"]), "unknown suite perf");
        assert_eq!(error(&["net", "--full"]), "unknown flag --full");
        assert_eq!(
            error(&["net", "parallel"]),
            "one suite per run, got net and parallel"
        );
        assert_eq!(error(&["storage", "--out"]), "--out needs a path");
        for (suite, _) in SUITES.into_iter().filter(|(s, _)| *s != "storage") {
            assert_eq!(
                error(&[suite, "--segment", "s.seg"]),
                format!("--segment applies to the storage suite, not {suite}")
            );
        }
    }
}
