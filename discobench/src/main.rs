//! `discobench`: the end-to-end skyline-discovery benchmark.
//!
//! ```text
//! cargo run --release --manifest-path discobench/Cargo.toml -- \
//!     --workload sq-flights --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every discovery is checked against ground truth. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics with `--trace 0`, the per-layer ones
//! with `--trace 1`). See README.md for the workloads and the metrics.

mod calibrate;
mod discover;
mod layers;
mod replay;
mod run;
mod stats;
mod trace;
mod workload;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use skyweb_net::{Server, ServerConfig};

use crate::calibrate::Kernel;
use crate::layers::{names, Counts, Exchange};
use crate::run::{Log, Plan, Sample, Stop};
use crate::stats::{geomean, mean, median, percentile, ratio, sorted, tail_percentile};
use crate::workload::{Env, Phases, Workload, WORKLOADS};

const USAGE: &str = "usage: discobench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Server worker threads on net-mixed.
const SERVER_WORKERS: usize = 2;
/// The tail percentile reported for discovery time.
const TAIL: f64 = 0.9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload = Workload::parse(workload).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        format!("unknown workload {workload:?}; one of {}", known.join(", "))
    })?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let seconds = number("--seconds")?;
    if !(1..=120).contains(&seconds) {
        return Err("--seconds must be between 1 and 120".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("discobench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("discobench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Where segment files and span dumps go: under the cargo target directory.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
    target.join("discobench")
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Chunk-cache counters summed over a run's segment-backed instances.
#[derive(Debug, Clone, Copy, Default)]
struct Storage {
    hits: u64,
    misses: u64,
    evictions: u64,
    decoded: u64,
    resident: u64,
}

fn storage(env: &Env) -> Option<Storage> {
    let mut out: Option<Storage> = None;
    for s in env.instances.iter().filter_map(|i| i.db.storage_stats()) {
        let acc = out.get_or_insert_with(Storage::default);
        acc.hits += s.cache_hits;
        acc.misses += s.cache_misses;
        acc.evictions += s.cache_evictions;
        acc.decoded += s.decoded_for + s.decoded_dict + s.decoded_rle;
        acc.resident += s.bytes_resident;
    }
    out
}

/// What the measuring phase of a run produced.
struct Measured {
    log: Log,
    /// Exact counts and discovery id of each key's reference discovery.
    reference: Vec<Option<(u32, Counts)>>,
    /// Recorded exchanges per key (traced runs).
    exchanges: Vec<Vec<Exchange>>,
    /// Wall time of the timed loop.
    wall_s: f64,
    /// Storage counters over the timed loop, and resident bytes after it.
    storage: Option<(Storage, Storage)>,
    /// Plans the server answered for each key's reference discovery.
    server_plans: Vec<u64>,
    keys: Vec<run::Key>,
    /// Calibration kernel times, in milliseconds.
    kernel_ms: Vec<f64>,
}

fn bench(args: &Args) -> Result<bool, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut phases = Vec::with_capacity(SETUP_REPS);
    let mut env = None;
    for rep in 0..SETUP_REPS {
        drop(env.take());
        let t = Instant::now();
        let built = workload::setup(args.workload, args.seed, &dir, rep)?;
        setup_s.push(t.elapsed().as_secs_f64());
        phases.push(built.phases);
        env = Some(built);
    }
    let mut env = env.ok_or("no set-up ran")?;
    let mut m = match env.server.take() {
        Some(server) => measure_remote(args, &env, server),
        None => measure_local(args, &env),
    };
    let replays = replays(&m, &env);
    m.log.failures.extend(replays.failures.iter().cloned());

    let mut report = Report::new(&m.kernel_ms);
    let all: Vec<Sample> = m
        .log
        .untraced
        .iter()
        .chain(&m.log.traced)
        .cloned()
        .collect();
    let totals = key_medians(&all, m.keys.len(), |s| s.total_ns);
    let halves = key_medians(&all, m.keys.len(), |s| s.half_ns);
    for (key, k) in m.keys.iter().enumerate() {
        let counts = m.reference[key].map(|(_, c)| c).unwrap_or_default();
        report.notes.push(format!(
            "{:<24} {:?}: {} queries, {} round trips, {} timed, raw median {:.3} ms, \
             half skyline {:.3} ms",
            env.instances[k.instance].label,
            k.alg,
            counts.queries,
            counts.round_trips,
            all.iter().filter(|s| s.key == key).count(),
            totals[key],
            halves[key]
        ));
    }
    if args.trace {
        per_layer(&mut report, &m, &phases, &replays, &env);
        let spans = dir.join(format!(
            "spans-{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        ));
        std::fs::write(&spans, trace::to_tsv(&m.log.kept_spans))
            .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
        eprintln!("discobench: spans written to {}", spans.display());
    } else {
        end_to_end(&mut report, &m, &setup_s)?;
    }
    Ok(report.print(args, &m))
}

/// The reference pass, the timed loop (with calibration pauses) and, in
/// a traced run, the capture pass.
fn measure(args: &Args, env: &Env, plan: &Plan) -> Measured {
    let mut log = Log::default();
    let reference = plan.reference(&mut log);
    let min_untraced = if args.trace {
        0
    } else {
        stats::min_samples_for_tail(TAIL)
    };
    let stop = &Stop::new(args.seconds, min_untraced);
    let before = storage(env);
    let mut kernel_ms = Vec::new();
    let (timed, paused_s) = plan.timed(
        &reference,
        args.workload.clients(),
        args.trace,
        stop,
        &mut Kernel::new(),
        &mut kernel_ms,
    );
    let wall_s = timed
        .end
        .map_or(0.0, |e| (e - stop.start()).as_secs_f64() - paused_s);
    let after = storage(env);
    log.merge(timed);
    let exchanges = if args.trace {
        plan.capture(&reference, &mut log)
    } else {
        Vec::new()
    };
    Measured {
        log,
        reference,
        exchanges,
        wall_s,
        storage: delta(before, after),
        server_plans: Vec::new(),
        keys: plan.keys.clone(),
        kernel_ms,
    }
}

fn measure_local(args: &Args, env: &Env) -> Measured {
    let run = |k: run::Key, job: discover::Job, log: Option<&mut Vec<Exchange>>| {
        discover::local(job, &env.instances[k.instance].db, log)
    };
    measure(args, env, &Plan::new(&run, args.workload, env))
}

fn delta(before: Option<Storage>, after: Option<Storage>) -> Option<(Storage, Storage)> {
    let (b, a) = (before?, after?);
    let d = Storage {
        hits: a.hits - b.hits,
        misses: a.misses - b.misses,
        evictions: a.evictions - b.evictions,
        decoded: a.decoded - b.decoded,
        resident: a.resident,
    };
    Some((d, a))
}

/// net-mixed: one in-process server, `clients` client threads, a fresh
/// connection per discovery. Afterwards every passed discovery's round
/// trips and queries are checked against the server's report.
fn measure_remote(args: &Args, env: &Env, server: Server) -> Measured {
    let addr = server.local_addr();
    let handle = server.handle();
    let db = &env.instances[0].db;
    let config = ServerConfig::new()
        .with_workers(SERVER_WORKERS)
        .with_read_timeout(Some(Duration::from_secs(60)));
    let run = |_: run::Key, job: discover::Job, log: Option<&mut Vec<Exchange>>| {
        discover::remote(job, addr, &format!("d{}", job.id), log)
    };
    let plan = Plan::new(&run, args.workload, env);
    let (mut m, report) = std::thread::scope(|s| {
        let serving = s.spawn(|| server.serve(db, &config));
        let m = measure(args, env, &plan);
        handle.shutdown();
        (m, serving.join().ok())
    });
    let Some(report) = report else {
        m.log.failures.push("the server thread panicked".into());
        return m;
    };
    let served: HashMap<&str, (u64, u64)> = report
        .finished
        .iter()
        .map(|c| (c.label.as_str(), (c.plans, c.queries)))
        .collect();
    let mut mismatches = Vec::new();
    for (id, counts) in &m.log.passed {
        let label = format!("d{id}");
        match served.get(label.as_str()) {
            Some(&(plans, queries)) if plans == counts.round_trips && queries == counts.queries => {
            }
            Some(&(plans, queries)) => mismatches.push(format!(
                "{label}: the server answered {plans} plans / {queries} queries, \
                 the client counted {} / {}",
                counts.round_trips, counts.queries
            )),
            None => mismatches.push(format!("{label}: missing from the server's report")),
        }
    }
    if report.rejected > 0 {
        mismatches.push(format!(
            "the server rejected {} connections",
            report.rejected
        ));
    }
    m.log.failures.extend(mismatches);
    m.server_plans = m
        .reference
        .iter()
        .map(|r| {
            r.and_then(|(id, _)| served.get(format!("d{id}").as_str()).map(|p| p.0))
                .unwrap_or(0)
        })
        .collect();
    m
}

/// Codec and ingest replays, summed over keys.
#[derive(Default)]
struct Replays {
    codec_ns: f64,
    codec_bytes: u64,
    codec_round_trips: u64,
    ingest_ns: f64,
    ingest_tuples: u64,
    failures: Vec<String>,
}

fn replays(m: &Measured, env: &Env) -> Replays {
    let mut out = Replays::default();
    for (xs, k) in m.exchanges.iter().zip(&m.keys) {
        if xs.is_empty() {
            continue;
        }
        match replay::codec(xs) {
            Ok(c) => {
                out.codec_ns += c.ns;
                out.codec_bytes += c.bytes;
                out.codec_round_trips += c.round_trips;
            }
            Err(e) => out.failures.push(format!("codec replay: {e}")),
        }
        let i = &env.instances[k.instance];
        match replay::ingest(xs, &i.ranking_attrs, &i.truth) {
            Ok(k) => {
                out.ingest_ns += k.ns;
                out.ingest_tuples += k.tuples;
            }
            Err(e) => out.failures.push(format!("ingest replay: {e}")),
        }
    }
    out
}

/// Named metrics with units, in print order.
struct Report {
    /// What every time is multiplied by: the calibration kernel's nominal
    /// time over its median time in this run (see `calibrate.rs`).
    scale: f64,
    notes: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn new(kernel_ms: &[f64]) -> Self {
        let measured = median(kernel_ms);
        let scale = if measured > 0.0 {
            calibrate::NOMINAL_MS / measured
        } else {
            1.0
        };
        Report {
            scale,
            notes: vec![format!(
                "host calibration: kernel median {measured:.3} ms over {} pauses; \
                 times below are scaled by {scale:.4} to a {} ms host",
                kernel_ms.len(),
                calibrate::NOMINAL_MS
            )],
            metrics: Vec::new(),
        }
    }

    /// Adds a metric; times (by unit) are scaled to the nominal host and
    /// rates divided by the same factor.
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = match unit {
            "s" | "ms" | "us" | "ns" => value * self.scale,
            "1/s" => value / self.scale,
            _ => value,
        };
        self.push_raw(name, value, unit);
    }

    /// Adds a metric as measured.
    fn push_raw(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name, value, unit));
    }

    /// Prints the human-readable summary, then the JSON line; returns
    /// whether every discovery passed.
    fn print(&self, args: &Args, m: &Measured) -> bool {
        let attempted = m.log.attempted.max(1);
        let failed = m.log.failures.len() as u64;
        let correct = failed == 0;
        println!(
            "workload {} seed {} trace {}: {} discoveries attempted, {} failed \
             (failed_ratio {}), {} timed untraced, {} timed traced",
            args.workload.name(),
            args.seed,
            u8::from(args.trace),
            attempted,
            failed,
            ratio(failed as f64, attempted as f64),
            m.log.untraced.len(),
            m.log.traced.len(),
        );
        for f in m.log.failures.iter().take(10) {
            println!("  FAILED {f}");
        }
        for note in &self.notes {
            println!("  {note}");
        }
        for (name, value, unit) in &self.metrics {
            println!("  {name:<28} {value:>14.4} {unit}");
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
        correct
    }
}

/// Mean over keys of an exact per-key count.
fn per_key_mean(m: &Measured, f: impl Fn(&Counts) -> u64) -> f64 {
    let values: Vec<f64> = m
        .reference
        .iter()
        .flatten()
        .map(|(_, c)| f(c) as f64)
        .collect();
    mean(&values)
}

/// Sum over keys of an exact per-key count.
fn per_key_sum(m: &Measured, f: impl Fn(&Counts) -> u64) -> f64 {
    m.reference.iter().flatten().map(|(_, c)| f(c) as f64).sum()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Each key's median of `f` over `samples`, in milliseconds (0 for a key
/// with no samples).
fn key_medians(samples: &[Sample], keys: usize, f: impl Fn(&Sample) -> u64) -> Vec<f64> {
    (0..keys)
        .map(|key| {
            let times: Vec<f64> = samples
                .iter()
                .filter(|s| s.key == key)
                .map(|s| ms(f(s)))
                .collect();
            median(&times)
        })
        .collect()
}

/// The typical time of a run: the geometric mean over keys of each key's
/// median. Pooling the samples of keys whose times differ puts the pooled
/// median in the gap between them, where it jumps from run to run.
fn typical_ms(samples: &[Sample], keys: usize, f: impl Fn(&Sample) -> u64) -> f64 {
    let medians: Vec<f64> = key_medians(samples, keys, f)
        .into_iter()
        .filter(|&v| v > 0.0)
        .collect();
    geomean(&medians)
}

fn end_to_end(r: &mut Report, m: &Measured, setup_s: &[f64]) -> Result<(), String> {
    let untraced = &m.log.untraced;
    let keys = m.keys.len();
    let totals = sorted(untraced.iter().map(|s| ms(s.total_ns)).collect());
    let p90 = match tail_percentile(&totals, TAIL) {
        Some(v) => v,
        None => {
            eprintln!(
                "discobench: only {} samples; the p90 has fewer than {} beyond it",
                totals.len(),
                stats::TAIL_MARGIN
            );
            percentile(&totals, TAIL).unwrap_or(0.0)
        }
    };
    r.push(
        "discovery_ms_p50",
        typical_ms(untraced, keys, |s| s.total_ns),
        "ms",
    );
    r.push("discovery_ms_p90", p90, "ms");

    r.push(
        "discoveries_per_s",
        ratio(m.log.untraced.len() as f64, m.wall_s),
        "1/s",
    );
    r.push(
        "half_skyline_ms_p50",
        typical_ms(untraced, m.keys.len(), |s| s.half_ns),
        "ms",
    );
    r.push(
        "queries_per_discovery",
        per_key_mean(m, |c| c.queries),
        "count",
    );
    r.push(
        "round_trips_per_discovery",
        per_key_mean(m, |c| c.round_trips),
        "count",
    );
    r.push("setup_s", median(setup_s), "s");
    r.push("peak_rss_mb", peak_rss_mb()?, "MiB");
    Ok(())
}

/// Mean over traced discoveries of a layer's self time, in µs.
fn self_us(traced: &[Sample], name: &str) -> f64 {
    let values: Vec<f64> = traced
        .iter()
        .filter_map(|s| s.layers.as_ref())
        .map(|l| l.self_ns(name) as f64 / 1e3)
        .collect();
    mean(&values)
}

/// Every traced span duration of a layer, in µs, ascending.
fn durations_us(traced: &[Sample], name: &str) -> Vec<f64> {
    sorted(
        traced
            .iter()
            .filter_map(|s| s.layers.as_ref())
            .filter_map(|l| l.durations.get(name))
            .flatten()
            .map(|&ns| ns as f64 / 1e3)
            .collect(),
    )
}

fn per_layer(r: &mut Report, m: &Measured, phases: &[Phases], replays: &Replays, env: &Env) {
    let traced = &m.log.traced;
    let keys = m.keys.len();
    let queries = per_key_sum(m, |c| c.queries);
    let round_trips = per_key_sum(m, |c| c.round_trips);

    r.push(
        "machine.build_us",
        self_us(traced, names::MACHINE_BUILD),
        "us",
    );
    r.push(
        "machine.next_plan_us",
        self_us(traced, names::NEXT_PLAN),
        "us",
    );
    r.push(
        "machine.queries_per_plan",
        ratio(queries, round_trips),
        "count",
    );

    r.push("knowledge.resume_us", self_us(traced, names::RESUME), "us");
    r.push(
        "knowledge.tuples_returned",
        per_key_mean(m, |c| c.tuples_returned),
        "count",
    );
    r.push(
        "knowledge.fresh_tuple_ratio",
        ratio(
            per_key_sum(m, |c| c.retrieved),
            per_key_sum(m, |c| c.tuples_returned),
        ),
        "ratio",
    );
    r.push(
        "knowledge.ingest_ns_per_tuple",
        ratio(replays.ingest_ns, replays.ingest_tuples as f64),
        "ns",
    );

    r.push("driver.self_us", self_us(traced, names::STEP), "us");
    r.push("driver.steps", per_key_mean(m, |c| c.steps), "count");

    let engine_ns: f64 = traced
        .iter()
        .filter_map(|s| s.layers.as_ref())
        .map(|l| l.self_ns(names::ENGINE) as f64)
        .sum();
    let traced_queries: f64 = traced
        .iter()
        .filter_map(|s| m.reference[s.key].map(|(_, c)| c.queries as f64))
        .sum();
    let engine_calls = durations_us(traced, names::ENGINE);
    r.push("engine.run_plan_us", self_us(traced, names::ENGINE), "us");
    r.push(
        "engine.ns_per_query",
        ratio(engine_ns, traced_queries),
        "ns",
    );
    r.push(
        "engine.call_us_p50",
        percentile(&engine_calls, 0.5).unwrap_or(0.0),
        "us",
    );
    r.push(
        "engine.overflow_ratio",
        ratio(per_key_sum(m, |c| c.overflows), queries),
        "ratio",
    );
    r.push(
        "engine.empty_ratio",
        ratio(per_key_sum(m, |c| c.empties), queries),
        "ratio",
    );

    let timed = (m.log.untraced.len() + traced.len()) as f64;
    let (d, after) = m.storage.unwrap_or_default();
    let segments = env
        .instances
        .iter()
        .filter(|i| i.db.storage_stats().is_some())
        .count();
    let open_ms: Vec<f64> = phases
        .iter()
        .map(|p| ratio(p.segment_open_s * 1e3, segments as f64))
        .collect();
    r.push(
        "segment.cache_hit_ratio",
        ratio(d.hits as f64, (d.hits + d.misses) as f64),
        "ratio",
    );
    r.push(
        "segment.cache_misses",
        ratio(d.misses as f64, timed),
        "count",
    );
    r.push(
        "segment.cache_evictions",
        ratio(d.evictions as f64, timed),
        "count",
    );
    r.push(
        "segment.chunks_decoded",
        ratio(d.decoded as f64, timed),
        "count",
    );
    r.push(
        "segment.bytes_resident_mb",
        after.resident as f64 / (1024.0 * 1024.0),
        "MiB",
    );
    r.push("segment.open_ms", median(&open_ms), "ms");

    r.push(
        "codec.us_per_round_trip",
        ratio(replays.codec_ns / 1e3, replays.codec_round_trips as f64),
        "us",
    );
    r.push(
        "codec.bytes_per_round_trip",
        ratio(replays.codec_bytes as f64, replays.codec_round_trips as f64),
        "bytes",
    );

    let rtt = durations_us(traced, names::ROUND_TRIP);
    let handshakes = durations_us(traced, names::CONNECT);
    let server_plans: Vec<f64> = m.server_plans.iter().map(|&p| p as f64).collect();
    r.push(
        "net.wait_us",
        self_us(traced, names::ROUND_TRIP) + self_us(traced, names::CONNECT),
        "us",
    );
    r.push(
        "net.round_trip_us_p50",
        percentile(&rtt, 0.5).unwrap_or(0.0),
        "us",
    );
    r.push(
        "net.round_trip_us_p90",
        percentile(&rtt, TAIL).unwrap_or(0.0),
        "us",
    );
    r.push(
        "net.handshake_us_p50",
        percentile(&handshakes, 0.5).unwrap_or(0.0),
        "us",
    );
    r.push("net.server_plans", mean(&server_plans), "count");

    let phase = |f: fn(&Phases) -> f64| median(&phases.iter().map(f).collect::<Vec<_>>());
    r.push("setup.datagen_s", phase(|p| p.datagen_s), "s");
    r.push("setup.index_warm_s", phase(|p| p.index_warm_s), "s");
    r.push("setup.ground_truth_s", phase(|p| p.ground_truth_s), "s");

    let mean_total = mean(
        &traced
            .iter()
            .map(|s| s.total_ns as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    let attributed: f64 = [
        names::MACHINE_BUILD,
        names::NEXT_PLAN,
        names::RESUME,
        names::STEP,
        names::ENGINE,
        names::ROUND_TRIP,
        names::CONNECT,
        names::VERIFY,
    ]
    .iter()
    .map(|n| self_us(traced, n))
    .sum();
    r.push_raw("host.kernel_ms", median(&m.kernel_ms), "ms");
    r.push("trace.discovery_us", mean_total, "us");
    r.push("trace.verify_us", self_us(traced, names::VERIFY), "us");
    r.push(
        "trace.attributed_ratio",
        ratio(attributed, mean_total),
        "ratio",
    );
    r.push(
        "trace.overhead_ratio",
        ratio(
            typical_ms(traced, keys, |s| s.total_ns),
            typical_ms(&m.log.untraced, keys, |s| s.total_ns),
        ),
        "ratio",
    );
}
