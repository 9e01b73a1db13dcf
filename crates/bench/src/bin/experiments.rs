//! Experiment harness: regenerates the series behind every figure of the
//! paper's evaluation.
//!
//! ```text
//! experiments [fig04|fig06|...|fig24|all]... [--quick|--full] [--parallel] [--jobs N]
//!             [--budget N] [--max-wall-ms N] [--max-batch N]
//!             [--fault-rate F] [--fault-seed N]
//!             [--segment] [--cache-budget BYTES] [--net]
//! experiments --list
//! ```
//!
//! Figure tables go to **stdout**; progress and timing go to **stderr**, so
//! the stdout of a `--parallel` run can be diffed byte-for-byte against a
//! serial run (CI does exactly that). `--jobs N` (or `SKYWEB_JOBS`) caps the
//! worker pool; every task seeds its RNGs from its own index, so the figure
//! series are identical regardless of the degree of parallelism.
//!
//! `--budget N` caps every discovery run at N queries and `--max-wall-ms N`
//! deadlines it at N milliseconds of wall clock — both exercise the anytime
//! path through the sans-io machine driver. A budget is deterministic, so
//! stdout stays serial/parallel byte-identical; a wall-clock deadline is
//! not, so while it is active the (truncation-dependent) tables are
//! redirected to stderr and stdout carries only the deterministic figure
//! headers. `--max-batch N` bounds the per-round plan size; `--max-batch 1`
//! forces the per-query reference schedule, whose stdout must be
//! byte-identical to the default run through the engine's shared-prefix
//! batch executor (CI diffs exactly that).
//!
//! `--fault-rate F` routes every query of every discovery run through the
//! deterministic fault-injection oracle at transient-fault rate `F`
//! (`--fault-seed N` picks the decision stream and the retry jitter),
//! retried under the default policy. Faulted attempts never reach the
//! database and retries converge to the fault-free schedule, so stdout
//! stays byte-identical to the fault-free run — and between serial and
//! parallel runs at any fault rate (CI diffs exactly that).
//!
//! `--segment` writes every figure database into an in-memory segment and
//! serves it from there with lazy hydration; `--cache-budget BYTES` (which
//! needs `--segment`) caps each segment's chunk cache. The storage backend
//! and its eviction do not change a single output byte (CI diffs exactly
//! that).
//!
//! `--net` routes every discovery run over a loopback TCP connection: the
//! figure's database is served by a `skyweb-net` server on an ephemeral
//! port and the machine runs through a `RemoteOracle`. The wire protocol
//! is byte-identical to in-process execution, so stdout must not change
//! (CI diffs exactly that). `--net` composes with every other run flag;
//! with `--fault-rate` the fault oracle sits in front of the wire, so a
//! faulted attempt sends no frame.
//!
//! The flags fill one [`RunConfig`]: `--budget`, `--max-wall-ms`,
//! `--max-batch` and the retry policy of `--fault-rate` are its
//! `DriverConfig`, `--fault-rate` and `--fault-seed` its `FaultPlan`,
//! `--net` its net flag, and `--segment` with `--cache-budget` its segment
//! options. It is installed once, before any figure runs.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use skyweb_bench::{figures, install_run_config, pool, FigureResult, RunConfig, Scale};
use skyweb_core::RetryPolicy;
use skyweb_hidden_db::{FaultPlan, SegmentOpenOptions};

fn usage() {
    eprintln!(
        "usage: experiments [--list] [--quick|--full] [--parallel] [--jobs N] \
         [--budget N] [--max-wall-ms N] [--max-batch N] [--fault-rate F] [--fault-seed N] \
         [--segment] [--cache-budget BYTES] [--net] [all | figNN ...]"
    );
    eprintln!("known figures: {}", figures::ALL_FIGURES.join(", "));
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut parallel = false;
    let mut jobs_request: Option<usize> = None;
    let mut config = RunConfig::default();
    let mut fault_rate: Option<f64> = None;
    let mut fault_seed = 0u64;
    let mut segment = false;
    let mut cache_budget: Option<u64> = None;
    let mut requested: Vec<String> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if arg == "--list" {
            for id in figures::ALL_FIGURES {
                println!("{id}");
            }
            return ExitCode::SUCCESS;
        } else if arg == "--parallel" {
            parallel = true;
        } else if arg == "--jobs" {
            let parsed = args.get(i + 1).and_then(|v| v.parse::<usize>().ok());
            let Some(n) = parsed.filter(|&n| n >= 1) else {
                eprintln!("--jobs needs a positive integer value");
                usage();
                return ExitCode::FAILURE;
            };
            // Last occurrence wins; the pool is configured once after
            // parsing (it can only be set before its first use).
            jobs_request = Some(n);
            i += 1;
        } else if arg == "--budget" {
            let Some(n) = args.get(i + 1).and_then(|v| v.parse::<u64>().ok()) else {
                eprintln!("--budget needs a non-negative integer value");
                usage();
                return ExitCode::FAILURE;
            };
            config.driver = config.driver.with_budget(Some(n));
            i += 1;
        } else if arg == "--max-wall-ms" {
            let parsed = args.get(i + 1).and_then(|v| v.parse::<u64>().ok());
            let Some(n) = parsed.filter(|&n| n >= 1) else {
                eprintln!("--max-wall-ms needs a positive integer value");
                usage();
                return ExitCode::FAILURE;
            };
            config.driver = config.driver.with_max_wall(Some(Duration::from_millis(n)));
            i += 1;
        } else if arg == "--max-batch" {
            let parsed = args.get(i + 1).and_then(|v| v.parse::<usize>().ok());
            let Some(n) = parsed.filter(|&n| n >= 1) else {
                eprintln!("--max-batch needs a positive integer value");
                usage();
                return ExitCode::FAILURE;
            };
            config.driver = config.driver.with_max_batch(n);
            i += 1;
        } else if arg == "--fault-rate" {
            let parsed = args.get(i + 1).and_then(|v| v.parse::<f64>().ok());
            let Some(rate) = parsed.filter(|r| (0.0..=1.0).contains(r)) else {
                eprintln!("--fault-rate needs a value in 0.0..=1.0");
                usage();
                return ExitCode::FAILURE;
            };
            fault_rate = Some(rate);
            i += 1;
        } else if arg == "--segment" {
            segment = true;
        } else if arg == "--cache-budget" {
            let Some(n) = args.get(i + 1).and_then(|v| v.parse::<u64>().ok()) else {
                eprintln!("--cache-budget needs a byte count");
                usage();
                return ExitCode::FAILURE;
            };
            cache_budget = Some(n);
            i += 1;
        } else if arg == "--net" {
            config.net = true;
        } else if arg == "--fault-seed" {
            let Some(n) = args.get(i + 1).and_then(|v| v.parse::<u64>().ok()) else {
                eprintln!("--fault-seed needs a non-negative integer value");
                usage();
                return ExitCode::FAILURE;
            };
            fault_seed = n;
            i += 1;
        } else if let Some(s) = Scale::from_flag(arg) {
            scale = s;
        } else if arg == "all" || figures::ALL_FIGURES.contains(&arg.as_str()) {
            requested.push(arg.clone());
        } else {
            eprintln!("unknown argument: {arg}");
            usage();
            return ExitCode::FAILURE;
        }
        i += 1;
    }
    if let Some(n) = jobs_request {
        if let Err(e) = pool::set_jobs(n) {
            eprintln!("--jobs: {e}");
            return ExitCode::FAILURE;
        }
    }
    // Fault injection: every query passes through the seeded fault oracle,
    // retried under the default policy with the same seed.
    if let Some(rate) = fault_rate {
        config.faults = FaultPlan::new(fault_seed, rate);
        config.driver = config
            .driver
            .with_retry(Some(RetryPolicy::new().with_seed(fault_seed)));
        eprintln!("# fault injection: rate {rate}, seed {fault_seed} (default retry policy)");
    }
    // Net mode: every discovery run is served over loopback TCP through a
    // RemoteOracle. Stdout is byte-identical to the in-process run (CI
    // diffs exactly that), so only the mode announcement goes to stderr.
    if config.net {
        eprintln!("# net mode: discovery over loopback TCP (RemoteOracle)");
    }
    // Segment-backed mode: every figure database is round-tripped through
    // an in-memory segment and served with lazy hydration; a cache budget
    // bounds each segment's chunk cache. Figure stdout is byte-identical
    // to the in-RAM run either way (CI diffs exactly that, once with a
    // deliberately tiny budget), so the announcements go to stderr like
    // all progress.
    if cache_budget.is_some() && !segment {
        eprintln!("--cache-budget requires --segment");
        usage();
        return ExitCode::FAILURE;
    }
    if segment {
        let mut options = SegmentOpenOptions::new();
        eprintln!("# segment-backed mode: databases served from in-memory segments");
        if let Some(bytes) = cache_budget {
            options = options.with_cache_budget(bytes);
            eprintln!("# chunk cache capped at {bytes} bytes per database");
        }
        config.segment = Some(options);
    }
    if let Err(e) = install_run_config(config) {
        eprintln!("run configuration: {e}");
        return ExitCode::FAILURE;
    }
    // Wall-clock truncation is nondeterministic: keep stdout diffable by
    // moving the affected tables to stderr (headers stay on stdout).
    let deterministic_tables = config.driver.max_wall.is_none();
    let emit = move |result: &FigureResult| {
        if deterministic_tables {
            println!("{result}");
        } else {
            println!(
                "== {} (table on stderr: --max-wall-ms truncation is nondeterministic)",
                result.id
            );
            eprintln!("{result}");
        }
    };
    if requested.is_empty() {
        requested.push("all".to_string());
    }
    let ids: Vec<&str> = requested
        .iter()
        .flat_map(|req| {
            if req == "all" {
                figures::ALL_FIGURES.to_vec()
            } else {
                vec![figures::ALL_FIGURES
                    .iter()
                    .find(|id| *id == req)
                    .copied()
                    .expect("validated above")]
            }
        })
        .collect();

    eprintln!(
        "# skyweb experiment harness — scale: {scale:?}, mode: {}, jobs: {}, budget: {}, \
         max-wall-ms: {}, max-batch: {}",
        if parallel { "parallel" } else { "serial" },
        if parallel { pool::jobs() } else { 1 },
        config
            .driver
            .budget
            .map_or("none".into(), |b| b.to_string()),
        config
            .driver
            .max_wall
            .map_or("none".into(), |w| w.as_millis().to_string()),
        config.driver.max_batch,
    );
    let started = Instant::now();
    if parallel {
        // Figures and their internal series all draw from one bounded
        // worker budget; results are printed in request order afterwards.
        let results = pool::par_map(ids.len(), |i| {
            let t = Instant::now();
            let result = figures::by_id(ids[i], scale).expect("known figure id");
            eprintln!("# {} took {:.1}s", ids[i], t.elapsed().as_secs_f64());
            result
        });
        for result in results {
            emit(&result);
        }
    } else {
        // Drain the worker budget so the figures' internal series run
        // inline too: this is the true serial baseline.
        pool::serial(|| {
            for id in &ids {
                let t = Instant::now();
                let result = figures::by_id(id, scale).expect("known figure id");
                emit(&result);
                eprintln!("# {id} took {:.1}s", t.elapsed().as_secs_f64());
            }
        });
    }
    eprintln!("# done in {:.1}s", started.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}
