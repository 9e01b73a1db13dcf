//! Host-speed calibration.
//!
//! On a shared VM the host's own load moves every timing: the same binary,
//! seed and input measured 1.0x to 1.7x slower within minutes. The
//! benchmark therefore times a fixed reference kernel, which calls nothing
//! in the repository, every [`PERIOD`] while no discovery runs. It scales
//! every reported time by [`NOMINAL_MS`] ÷ (the kernel's median time in
//! this run). Reported times read as "on a host where the kernel takes
//! 8 ms". A change to the program cannot move the kernel. A change in host
//! speed moves both, and the scaling cancels it.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::time::{Duration, Instant};

/// The kernel's time on the reference host (2-vCPU Xeon VM, quiet).
pub const NOMINAL_MS: f64 = 5.0;
/// How often the timed loop pauses to run the kernel.
pub const PERIOD: Duration = Duration::from_millis(200);

const KEYS: usize = 1 << 17;

/// A sort and a hash-set build and probe over fixed pseudo-random keys.
/// Buffers are allocated once, so the program's heap does not affect it.
pub struct Kernel {
    keys: Vec<u64>,
    scratch: Vec<u64>,
    set: HashSet<u64>,
}

impl Kernel {
    pub fn new() -> Self {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let keys = (0..KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Kernel {
            keys,
            scratch: Vec::with_capacity(KEYS),
            set: HashSet::with_capacity(KEYS / 4),
        }
    }

    /// Runs the kernel once and returns its wall time in milliseconds.
    pub fn time_ms(&mut self) -> f64 {
        let t = Instant::now();
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.keys);
        self.scratch.sort_unstable();
        self.set.clear();
        self.set
            .extend(self.scratch.iter().step_by(4).map(|k| k >> 24));
        let hits = self
            .scratch
            .iter()
            .step_by(3)
            .filter(|k| self.set.contains(&(*k >> 25)))
            .count();
        std::hint::black_box(hits);
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// Lets the calibrating thread pause the clients between discoveries.
/// (`std::sync::RwLock` starves a writer whose reader re-locks at once.)
#[derive(Debug, Default)]
pub struct Gate {
    paused: AtomicBool,
    running: AtomicUsize,
}

/// A discovery in flight; dropping it ends the discovery.
pub struct Running<'a>(&'a Gate);

impl Drop for Running<'_> {
    fn drop(&mut self) {
        self.0.running.fetch_sub(1, SeqCst);
    }
}

impl Gate {
    /// Client side: waits out a pause, then marks a discovery as running.
    pub fn enter(&self) -> Running<'_> {
        loop {
            // Announce first, then check: with `pause` storing first and
            // checking second, one of the two sides always sees the other.
            self.running.fetch_add(1, SeqCst);
            if !self.paused.load(SeqCst) {
                return Running(self);
            }
            self.running.fetch_sub(1, SeqCst);
            while self.paused.load(SeqCst) {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }

    /// Calibrator side: holds back new discoveries, waits for the running
    /// ones to end, runs `f`, and lets the clients go on.
    pub fn pause<T>(&self, f: impl FnOnce() -> T) -> T {
        self.paused.store(true, SeqCst);
        while self.running.load(SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let out = f();
        self.paused.store(false, SeqCst);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn a_pause_waits_for_running_discoveries() {
        let gate = Gate::default();
        let ran = AtomicBool::new(false);
        let running = gate.enter();
        std::thread::scope(|s| {
            let (tx, rx) = mpsc::channel();
            let (gate, ran) = (&gate, &ran);
            let calibrator = s.spawn(move || {
                gate.pause(|| {
                    ran.store(true, SeqCst);
                    tx.send(()).expect("the test thread waits for this");
                })
            });
            while !gate.paused.load(SeqCst) {
                std::thread::yield_now();
            }
            assert!(!ran.load(SeqCst), "no pause while a discovery runs");
            drop(running);
            rx.recv().expect("the pause runs once the discovery ended");
            calibrator.join().expect("the calibrator does not panic");
        });
        assert!(ran.load(SeqCst));
        let _again = gate.enter();
        assert_eq!(gate.running.load(SeqCst), 1);
    }

    #[test]
    fn the_kernel_does_fixed_work() {
        let mut k = Kernel::new();
        assert!(k.time_ms() > 0.0);
        let first = k.scratch.clone();
        k.time_ms();
        assert_eq!(k.scratch, first, "every run sorts the same keys");
        assert!(first.windows(2).all(|w| w[0] <= w[1]));
    }
}
