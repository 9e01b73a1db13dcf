//! Deterministic interleaving exploration of the storage layer's
//! concurrent cores.
//!
//! These tests drive the *real* production code — `hidden_db::conc`'s
//! [`ClockCacheCore`] and [`SeqReserver`], the types behind `segment.rs`'s
//! chunk cache and `db.rs`'s query admission and access-log sequence — through
//! every sleep-set-reduced interleaving of 2–3 model threads, via the
//! [`ModelSync`] facade. Each invariant suite runs twice:
//!
//! * against the honest implementation (`racy = false`): every schedule
//!   must satisfy the invariant, proving the atomics are used correctly
//!   under *all* interleavings the facade exposes, not just the ones a
//!   1-CPU stress test happens to produce;
//! * against the seeded mutation (`racy = true`, the CAS-style
//!   `fetch_add` weakened to a load + store pair): the explorer must
//!   *detect* the lost-update race and report a reproducing schedule —
//!   the mutation test that proves the explorer has teeth.

use std::sync::{Arc, Mutex};

use skyweb_check::explore::{explore, Scenario};
use skyweb_check::model::ModelSync;
use skyweb_hidden_db::conc::{ClockCacheCore, SeqReserver};

type ModelCache = ClockCacheCore<ModelSync, u64>;

/// Two writers on different shards: their shard mutexes never conflict, so
/// the shared `resident` / `evictions` counters interleave freely. The
/// audit invariant must hold at the end of every schedule.
fn cache_counter_scenario(racy: bool) -> Scenario<ModelCache> {
    Scenario {
        state: Box::new(move || ClockCacheCore::new(2, 8, 16, racy)),
        threads: vec![
            Arc::new(|cache: &ModelCache| {
                cache.insert(0, 1, 11, 3);
                cache.insert(0, 2, 22, 3);
            }),
            Arc::new(|cache: &ModelCache| {
                cache.insert(1, 3, 33, 3);
                cache.insert(1, 4, 44, 3);
            }),
        ],
        check: Box::new(|cache: &ModelCache| {
            let audit = cache.audit();
            assert_eq!(
                audit.resident_counter, audit.slot_bytes,
                "resident counter diverged from ground-truth slot bytes"
            );
            assert!(!audit.over_budget, "a shard exceeded its byte budget");
            assert_eq!(audit.slots, 4, "all four inserts must be resident");
        }),
    }
}

#[test]
fn cache_budget_invariants_hold_under_all_interleavings() {
    let explored = explore(&cache_counter_scenario(false)).unwrap_or_else(|v| {
        panic!("invariant violated in honest cache: {v}");
    });
    assert!(
        explored.schedules > 1,
        "scenario must have real concurrency to be worth exploring, got {} schedule(s)",
        explored.schedules
    );
}

#[test]
fn cache_counter_race_is_detected_when_seeded() {
    let violation = explore(&cache_counter_scenario(true))
        .expect_err("the load/store-weakened resident counter must lose an update");
    assert!(
        violation.message.contains("resident counter diverged"),
        "unexpected violation: {violation}"
    );
    assert!(
        !violation.trace.is_empty(),
        "a violation must carry its reproducing schedule"
    );
}

/// One shard, byte budget for two slots, three distinct keys inserted and
/// one of them touched: in *every* interleaving the clock must end with
/// exactly two resident slots, one eviction, and coherent counters.
#[test]
fn second_chance_eviction_is_coherent_in_every_interleaving() {
    let scenario: Scenario<ModelCache> = Scenario {
        state: Box::new(|| ClockCacheCore::new(1, 8, 8, false)),
        threads: vec![
            Arc::new(|cache: &ModelCache| {
                cache.insert(0, 1, 11, 4);
                cache.get(0, 1);
            }),
            Arc::new(|cache: &ModelCache| {
                cache.insert(0, 2, 22, 4);
                cache.insert(0, 3, 33, 4);
            }),
        ],
        check: Box::new(|cache: &ModelCache| {
            let audit = cache.audit();
            assert_eq!(audit.slots, 2, "budget holds two 4-byte slots");
            assert_eq!(
                audit.evictions, 1,
                "three inserts into two slots evict once"
            );
            assert_eq!(audit.resident_counter, audit.slot_bytes);
            assert!(!audit.over_budget);
            assert_eq!(
                audit.hits + audit.misses,
                1,
                "the single get() is either a hit or a recorded miss"
            );
        }),
    };
    explore(&scenario).unwrap_or_else(|v| panic!("clock invariant violated: {v}"));
}

type GetState = (ModelCache, Mutex<Vec<(u64, Option<u64>)>>);

/// A reader `get`s two resident keys while a writer's `insert` evicts in
/// the same shard. The eviction takes the first slot and moves the second
/// key into it, so a late `get` of that key must find it at its new slot.
/// In every schedule each `get` returns its own key's value or `None`,
/// and the hit and miss counters account for every `get` made.
#[test]
fn a_get_racing_an_evicting_insert_returns_its_own_value() {
    let scenario: Scenario<GetState> = Scenario {
        state: Box::new(|| {
            let cache: ModelCache = ClockCacheCore::new(1, 8, 8, false);
            cache.insert(0, 1, 11, 4);
            cache.insert(0, 2, 22, 4);
            (cache, Mutex::new(Vec::new()))
        }),
        threads: vec![
            Arc::new(|(cache, seen): &GetState| {
                for key in [1, 2] {
                    let got = cache.get(0, key);
                    seen.lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push((u64::try_from(key).unwrap(), got));
                }
            }),
            Arc::new(|(cache, _): &GetState| {
                cache.insert(0, 3, 33, 4);
            }),
        ],
        check: Box::new(|(cache, seen): &GetState| {
            let seen = seen
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for &(key, got) in seen.iter() {
                assert!(
                    got.is_none() || got == Some(key * 11),
                    "get({key}) returned {got:?}, another key's value"
                );
            }
            let audit = cache.audit();
            assert_eq!(audit.hits + audit.misses, 2, "every get is counted once");
            assert_eq!(audit.evictions, 1);
            assert_eq!(audit.resident_counter, audit.slot_bytes);
            assert!(!audit.over_budget);
        }),
    };
    let explored =
        explore(&scenario).unwrap_or_else(|v| panic!("a racing get misread a slot: {v}"));
    assert!(explored.schedules > 1);
}

type LogState = (SeqReserver<ModelSync>, Mutex<Vec<u64>>);

/// Reserve-then-push writers: after every interleaving the sorted log must
/// hold exactly the sequence numbers `1..=n`, gap-free and duplicate-free —
/// the property `db.rs` relies on for its access log.
fn log_scenario(racy: bool, writers: usize) -> Scenario<LogState> {
    let body = |(reserver, log): &LogState| {
        if let Ok(seq) = reserver.reserve(None) {
            log.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(seq);
        }
    };
    Scenario {
        state: Box::new(move || (SeqReserver::new(racy), Mutex::new(Vec::new()))),
        threads: (0..writers)
            .map(|_| Arc::new(body) as Arc<dyn Fn(&LogState) + Send + Sync>)
            .collect(),
        check: Box::new(move |(reserver, log): &LogState| {
            let mut seqs = log
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clone();
            seqs.sort_unstable();
            let expect: Vec<u64> = (1..=u64::try_from(writers).unwrap()).collect();
            assert_eq!(
                seqs, expect,
                "log sequence numbers must be gap-free and duplicate-free"
            );
            assert_eq!(reserver.issued(), expect.len() as u64);
        }),
    }
}

#[test]
fn log_seqs_are_gap_free_and_monotone_under_all_interleavings() {
    let explored = explore(&log_scenario(false, 3)).unwrap_or_else(|v| {
        panic!("log invariant violated in honest reserver: {v}");
    });
    assert!(explored.schedules > 1);
}

#[test]
fn seq_reservation_race_is_detected_when_seeded() {
    let violation = explore(&log_scenario(true, 2))
        .expect_err("the load/store-weakened reserver must issue a duplicate seq");
    assert!(
        violation.message.contains("gap-free"),
        "unexpected violation: {violation}"
    );
}

type LimitState = (SeqReserver<ModelSync>, Mutex<Vec<Result<u64, u64>>>);

/// Rate limiting: with `limit = 1`, two concurrent reservations must grant
/// exactly one success in every interleaving (the `db.rs` admit path).
fn limit_scenario(racy: bool) -> Scenario<LimitState> {
    let body = move |(reserver, results): &LimitState| {
        let r = reserver.reserve(Some(1));
        results
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(r);
    };
    Scenario {
        state: Box::new(move || (SeqReserver::new(racy), Mutex::new(Vec::new()))),
        threads: vec![Arc::new(body), Arc::new(body)],
        check: Box::new(|(_, results): &LimitState| {
            let results = results
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let ok = results.iter().filter(|r| r.is_ok()).count();
            assert_eq!(ok, 1, "limit 1 must grant exactly one of two clients");
        }),
    }
}

#[test]
fn rate_limit_is_never_exceeded_under_all_interleavings() {
    explore(&limit_scenario(false)).unwrap_or_else(|v| {
        panic!("rate-limit invariant violated in honest reserver: {v}");
    });
}

#[test]
fn rate_limit_race_is_detected_when_seeded() {
    let violation = explore(&limit_scenario(true))
        .expect_err("the load/store-weakened reserver must over-admit");
    assert!(
        violation.message.contains("exactly one"),
        "unexpected violation: {violation}"
    );
}

/// The explorer replays a violation's recorded trace deterministically:
/// running the same seeded scenario twice reports the same schedule.
#[test]
fn violations_are_reproducible() {
    let a = explore(&limit_scenario(true)).expect_err("seeded race");
    let b = explore(&limit_scenario(true)).expect_err("seeded race");
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.schedule, b.schedule);
}
