//! The measured loop: a reference pass, the timed closed loop per client,
//! and (traced runs) the capture pass the replays read.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use skyweb_core::Discoverer;

use crate::calibrate::{self, Gate, Kernel};
use crate::discover::{Failure, Job, Outcome};
use crate::layers::{Counts, Exchange};
use crate::trace::{LayerTimes, Span};
use crate::workload::{Alg, Env, Workload};

/// Traced discoveries whose spans are written out at exit.
const KEEP_SPANS_OF: usize = 32;

/// One (instance, algorithm) pair; every client cycles through them.
#[derive(Debug, Clone, Copy)]
pub struct Key {
    pub instance: usize,
    pub alg: Alg,
}

fn keys(workload: Workload, env: &Env) -> Vec<Key> {
    (0..env.instances.len())
        .flat_map(|instance| {
            workload
                .algs()
                .iter()
                .map(move |&alg| Key { instance, alg })
        })
        .collect()
}

/// Runs one discovery of a key, optionally recording its exchanges.
pub type RunOne<'a> =
    dyn Fn(Key, Job, Option<&mut Vec<Exchange>>) -> Result<Outcome, Failure> + Sync + 'a;

/// One timed discovery.
#[derive(Debug, Clone)]
pub struct Sample {
    pub key: usize,
    pub total_ns: u64,
    pub half_ns: u64,
    /// Per-layer times of a traced discovery.
    pub layers: Option<LayerTimes>,
}

/// What the discoveries of a run produced.
#[derive(Debug, Default)]
pub struct Log {
    pub untraced: Vec<Sample>,
    pub traced: Vec<Sample>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Exact counts of every discovery that passed, by discovery id.
    pub passed: Vec<(u32, Counts)>,
    pub kept_spans: Vec<Span>,
    /// When the last timed discovery of the log ended.
    pub end: Option<Instant>,
}

impl Log {
    pub fn merge(&mut self, other: Log) {
        self.untraced.extend(other.untraced);
        self.traced.extend(other.traced);
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        self.passed.extend(other.passed);
        self.kept_spans.extend(other.kept_spans);
        self.end = self.end.max(other.end);
    }
}

/// Everything the jobs of one run share.
pub struct Plan<'a> {
    run: &'a RunOne<'a>,
    pub keys: Vec<Key>,
    /// One discoverer per key.
    discoverers: Vec<Box<dyn Discoverer + Send + Sync>>,
    env: &'a Env,
    /// The next discovery id; ids are unique across client threads.
    next_id: AtomicU32,
}

impl<'a> Plan<'a> {
    pub fn new(run: &'a RunOne<'a>, workload: Workload, env: &'a Env) -> Self {
        let keys = keys(workload, env);
        Plan {
            run,
            discoverers: keys.iter().map(|k| k.alg.discoverer()).collect(),
            keys,
            env,
            next_id: AtomicU32::new(0),
        }
    }

    /// Runs one discovery and checks its exact counts against `expected`.
    fn attempt(
        &self,
        log: &mut Log,
        key: usize,
        job: Job,
        expected: Option<Counts>,
        exchanges: Option<&mut Vec<Exchange>>,
    ) -> Option<Outcome> {
        log.attempted += 1;
        let label = &self.env.instances[self.keys[key].instance].label;
        match (self.run)(self.keys[key], job, exchanges) {
            Ok(out) if expected.is_none_or(|c| c == out.counts) => {
                log.passed.push((job.id, out.counts));
                Some(out)
            }
            Ok(out) => {
                let failure = Failure::Counts {
                    expected: expected.unwrap_or_default(),
                    got: out.counts,
                };
                log.failures.push(format!("{label}: {failure}"));
                None
            }
            Err(f) => {
                log.failures.push(format!("{label}: {f}"));
                None
            }
        }
    }

    fn job(&self, key: usize, traced: bool) -> Job<'_> {
        Job {
            alg: self.discoverers[key].as_ref(),
            truth: &self.env.instances[self.keys[key].instance].truth,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            traced,
        }
    }

    /// The reference pass: every key once, untraced. Its exact counts are
    /// what every later discovery of the key must reproduce; it also warms
    /// caches before the timed loop. Returns the counts and discovery id
    /// per key.
    pub fn reference(&self, log: &mut Log) -> Vec<Option<(u32, Counts)>> {
        (0..self.keys.len())
            .map(|key| {
                let job = self.job(key, false);
                self.attempt(log, key, job, None, None)
                    .map(|out| (job.id, out.counts))
            })
            .collect()
    }

    /// The timed loop: `clients` closed loops on their own threads, which
    /// the calling thread pauses every [`calibrate::PERIOD`] to time the
    /// calibration kernel. Returns the clients' merged log and the seconds
    /// they spent paused.
    pub fn timed(
        &self,
        reference: &[Option<(u32, Counts)>],
        clients: usize,
        traced_run: bool,
        stop: &Stop,
        kernel: &mut Kernel,
        kernel_ms: &mut Vec<f64>,
    ) -> (Log, f64) {
        let gate = Gate::default();
        let mut paused_s = 0.0;
        let mut log = Log::default();
        std::thread::scope(|s| {
            let gate = &gate;
            let threads: Vec<_> = (0..clients)
                .map(|c| s.spawn(move || self.client(reference, c, traced_run, stop, gate)))
                .collect();
            while !threads.iter().all(|t| t.is_finished()) {
                std::thread::sleep(calibrate::PERIOD);
                let ms = gate.pause(|| kernel.time_ms());
                paused_s += ms / 1e3;
                kernel_ms.push(ms);
            }
            for t in threads {
                match t.join() {
                    Ok(client) => log.merge(client),
                    Err(_) => log.failures.push("a client thread panicked".into()),
                }
            }
        });
        (log, paused_s)
    }

    /// One client's closed loop: cycles through the keys from `first_key`
    /// until `stop` says so, entering `gate` for each discovery. In a
    /// traced run every other round is traced.
    fn client(
        &self,
        reference: &[Option<(u32, Counts)>],
        first_key: usize,
        traced_run: bool,
        stop: &Stop,
        gate: &Gate,
    ) -> Log {
        let mut log = Log::default();
        let n = self.keys.len();
        let mut i = 0;
        while !stop.done() {
            let key = (first_key + i) % n;
            let traced = traced_run && (i / n) % 2 == 1;
            let job = self.job(key, traced);
            let expected = reference[key].map(|(_, c)| c);
            let outcome = {
                let _running = gate.enter();
                self.attempt(&mut log, key, job, expected, None)
            };
            if let Some(out) = outcome {
                let layers = traced.then(|| LayerTimes::of(&out.spans));
                let sample = Sample {
                    key,
                    total_ns: out.total_ns,
                    half_ns: out.half_ns,
                    layers,
                };
                if traced {
                    if log.traced.len() < KEEP_SPANS_OF {
                        log.kept_spans.extend(out.spans);
                    }
                    log.traced.push(sample);
                } else {
                    stop.untraced.fetch_add(1, Ordering::Relaxed);
                    log.untraced.push(sample);
                }
            }
            i += 1;
        }
        log.end = Some(Instant::now());
        log
    }

    /// The capture pass of a traced run: every key once more, recording its
    /// plans and responses for the replays.
    pub fn capture(
        &self,
        reference: &[Option<(u32, Counts)>],
        log: &mut Log,
    ) -> Vec<Vec<Exchange>> {
        (0..self.keys.len())
            .map(|key| {
                let mut exchanges = Vec::new();
                let job = self.job(key, false);
                let expected = reference[key].map(|(_, c)| c);
                if self
                    .attempt(log, key, job, expected, Some(&mut exchanges))
                    .is_none()
                {
                    exchanges.clear();
                }
                exchanges
            })
            .collect()
    }
}

/// When the timed loop ends: once `seconds` have passed and enough
/// untraced samples exist for the reported tail, or at the hard cap.
pub struct Stop {
    start: Instant,
    seconds: Duration,
    cap: Duration,
    min_untraced: usize,
    untraced: AtomicUsize,
}

impl Stop {
    pub fn new(seconds: u64, min_untraced: usize) -> Self {
        let cap = (seconds * 3).min(150).max(seconds);
        Stop {
            start: Instant::now(),
            seconds: Duration::from_secs(seconds),
            cap: Duration::from_secs(cap),
            min_untraced,
            untraced: AtomicUsize::new(0),
        }
    }

    pub fn start(&self) -> Instant {
        self.start
    }

    fn done(&self) -> bool {
        let elapsed = self.start.elapsed();
        let enough = self.untraced.load(Ordering::Relaxed) >= self.min_untraced;
        (elapsed >= self.seconds && enough) || elapsed >= self.cap
    }
}
