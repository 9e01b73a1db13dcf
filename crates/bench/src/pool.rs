//! A small scoped-thread worker pool for the experiment driver.
//!
//! No rayon offline, so this module provides the one primitive the harness
//! needs: [`par_map`] — run `n` independent tasks by index, return their
//! results **in index order** regardless of scheduling, stealing work from a
//! shared atomic cursor. Determinism falls out of the design: every task is
//! a pure function of its index (each figure / series constructs its own
//! datasets and seeds its own RNGs), and results are slotted by index, so
//! parallel output is byte-identical to a serial run.
//!
//! A process-wide **worker budget** caps the total number of extra threads
//! at `jobs() - 1`, so nested `par_map` calls (figures in parallel, each
//! parallelizing its own series) never oversubscribe the machine: inner
//! calls that find the budget drained simply run inline on their caller's
//! thread.

use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::OnceLock;

static JOBS: OnceLock<usize> = OnceLock::new();

/// Degree of parallelism the driver aims for: a prior [`set_jobs`] call if
/// any, else `SKYWEB_JOBS` if set (0 or unparsable falls back), else the
/// machine's available parallelism. The value is fixed on first use.
pub fn jobs() -> usize {
    *JOBS.get_or_init(|| {
        if let Ok(v) = std::env::var("SKYWEB_JOBS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    })
}

/// Fixes the degree of parallelism explicitly (e.g. from a `--jobs` CLI
/// flag). Must run before anything touches the pool: returns `Err` if the
/// value was already fixed by a prior [`jobs`]/[`par_map`] call, in which
/// case the request cannot take effect.
pub fn set_jobs(n: usize) -> Result<(), &'static str> {
    JOBS.set(n.max(1))
        .map_err(|_| "worker pool already initialized; set jobs before first use")
}

/// The global pool of *extra* worker threads (the calling thread always
/// works too, so the budget is `jobs() - 1`).
fn spare_workers() -> &'static AtomicIsize {
    static BUDGET: OnceLock<AtomicIsize> = OnceLock::new();
    BUDGET.get_or_init(|| AtomicIsize::new(jobs() as isize - 1))
}

/// Reserves up to `want` extra workers from the global budget; returns how
/// many were granted.
fn reserve(want: usize) -> usize {
    let budget = spare_workers();
    let mut available = budget.load(Ordering::Relaxed);
    loop {
        let grant = available.max(0).min(want as isize);
        if grant == 0 {
            return 0;
        }
        match budget.compare_exchange_weak(
            available,
            available - grant,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return grant as usize,
            Err(now) => available = now,
        }
    }
}

fn release(n: usize) {
    spare_workers().fetch_add(n as isize, Ordering::Relaxed);
}

/// Returns a reservation to the budget on drop, so a panicking task cannot
/// permanently shrink the pool (callers like proptest catch unwinds and
/// keep the process running).
struct Reservation(usize);

impl Drop for Reservation {
    fn drop(&mut self) {
        release(self.0);
    }
}

/// Runs `f` with the worker budget drained: every [`par_map`] reached from
/// inside executes inline on the calling thread. This is the serial
/// reference mode the driver uses for determinism diffs and as the
/// wall-clock baseline of the parallel speedup report.
pub fn serial<R>(f: impl FnOnce() -> R) -> R {
    let drained = spare_workers().swap(0, Ordering::Relaxed).max(0);
    // Guard, not a plain re-add: the drain must be undone even if `f`
    // panics and the caller catches the unwind.
    let guard = Reservation(drained as usize);
    let out = f();
    drop(guard);
    out
}

/// Runs `f(0), f(1), ..., f(n_items - 1)` across the calling thread plus as
/// many pooled workers as the global budget grants, and returns the results
/// in index order.
///
/// Each task must be independent and deterministic in its index (derive any
/// RNG seed from the index, never from shared mutable state); under that
/// contract the output is identical to `(0..n_items).map(f).collect()`.
/// Panics in a task propagate to the caller once the scope joins.
pub fn par_map<T, F>(n_items: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n_items);
    slots.resize_with(n_items, || None);
    if n_items == 0 {
        return Vec::new();
    }
    let reservation = Reservation(reserve(n_items.saturating_sub(1)));
    let extra = reservation.0;
    let cursor = AtomicUsize::new(0);

    // Each worker claims a distinct slot index from the cursor and writes
    // only that slot; disjoint &mut access is expressed by handing out the
    // slots through a mutex-free iterator... simplest safe form: collect
    // into per-worker vectors of (index, value) and merge afterwards.
    let mut partials: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let worker = |_w: usize| {
            let mut out: Vec<(usize, T)> = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n_items {
                    break;
                }
                out.push((i, f(i)));
            }
            out
        };
        let handles: Vec<_> = (0..extra)
            .map(|w| scope.spawn(move || worker(w + 1)))
            .collect();
        let mut all = vec![worker(0)];
        for h in handles {
            all.push(h.join().expect("pool worker panicked"));
        }
        all
    });
    drop(reservation);

    for (i, v) in partials.drain(..).flatten() {
        debug_assert!(slots[i].is_none(), "slot {i} claimed twice");
        slots[i] = Some(v);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| panic!("slot {i} never computed")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order() {
        let out = par_map(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton() {
        assert!(par_map(0, |i| i).is_empty());
        assert_eq!(par_map(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn nested_calls_do_not_deadlock() {
        let out = par_map(8, |i| par_map(8, move |j| i * 8 + j));
        for (i, inner) in out.iter().enumerate() {
            assert_eq!(inner, &(i * 8..i * 8 + 8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn serial_scope_runs_inline() {
        let out = serial(|| par_map(16, |i| i * 2));
        assert_eq!(out, (0..16).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn the_worker_budget_returns_to_steady_state() {
        let _ = par_map(32, |i| i);
        let _ = serial(|| par_map(4, |i| i));
        // Other tests in this module may hold workers transiently (the test
        // harness runs them concurrently), so poll for the steady state
        // instead of asserting an instantaneous balance.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while spare_workers().load(Ordering::Relaxed) != jobs() as isize - 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "worker budget leaked: {} != {}",
                spare_workers().load(Ordering::Relaxed),
                jobs() - 1
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn matches_serial_map_with_index_seeded_work() {
        // Simulates figure workloads: each task seeds its own "RNG" from
        // the index, so parallel results must equal serial ones exactly.
        let serial: Vec<u64> = (0..40u64).map(|i| i.wrapping_mul(2654435761)).collect();
        let parallel = par_map(40, |i| (i as u64).wrapping_mul(2654435761));
        assert_eq!(serial, parallel);
    }
}
