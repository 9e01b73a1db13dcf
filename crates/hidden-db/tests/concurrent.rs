//! Concurrency stress tests: many sessions hammering one shared
//! [`HiddenDb`] must lose no statistics, produce a gap-free monotone access
//! log, and respect the shared rate limit exactly.

use std::thread;

use skyweb_hidden_db::{
    HiddenDb, InterfaceType, Predicate, Query, QueryError, QueryStats, SchemaBuilder, Session,
    Tuple,
};

const THREADS: usize = 8;
const QUERIES_PER_THREAD: usize = 250;

fn stress_db(k: usize) -> HiddenDb {
    let schema = SchemaBuilder::new()
        .ranking("a", 16, InterfaceType::Rq)
        .ranking("b", 16, InterfaceType::Rq)
        .ranking("c", 16, InterfaceType::Sq)
        .filtering("f", 4)
        .build();
    let tuples = (0..512u64)
        .map(|i| {
            let h = i.wrapping_mul(2654435761);
            Tuple::new(
                i,
                vec![
                    (h % 16) as u32,
                    ((h >> 8) % 16) as u32,
                    ((h >> 16) % 16) as u32,
                    ((h >> 24) % 4) as u32,
                ],
            )
        })
        .collect();
    HiddenDb::with_sum_ranking(schema, tuples, k)
}

/// Deterministic per-(thread, step) query mix: broad ranges, selective
/// conjunctions, point lookups and empty answers, all valid.
fn query_for(t: usize, i: usize) -> Query {
    match (t + i) % 5 {
        0 => Query::select_all(),
        1 => Query::new(vec![Predicate::lt(0, 1 + ((t + i) % 15) as u32)]),
        2 => Query::new(vec![
            Predicate::lt(0, 8),
            Predicate::lt(1, 1 + (i % 15) as u32),
        ]),
        3 => Query::new(vec![Predicate::eq(3, (i % 4) as u32)]),
        _ => Query::new(vec![
            Predicate::lt(0, 1),
            Predicate::lt(1, 1),
            Predicate::le(2, 0),
        ]),
    }
}

fn add(a: QueryStats, b: QueryStats) -> QueryStats {
    QueryStats {
        queries: a.queries + b.queries,
        overflows: a.overflows + b.overflows,
        empty_answers: a.empty_answers + b.empty_answers,
        tuples_returned: a.tuples_returned + b.tuples_returned,
    }
}

#[test]
fn concurrent_sessions_lose_no_counts_and_log_monotone_seqs() {
    let db = stress_db(5);
    db.enable_access_log();

    let per_session: Vec<QueryStats> = thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let db = &db;
                scope.spawn(move || {
                    let mut session = db.session();
                    for i in 0..QUERIES_PER_THREAD {
                        session
                            .query(&query_for(t, i))
                            .unwrap_or_else(|e| panic!("thread {t} query {i} failed: {e}"));
                    }
                    session.stats()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let total = (THREADS * QUERIES_PER_THREAD) as u64;
    let global = db.stats();
    assert_eq!(global.queries, total, "lost or duplicated query counts");
    let merged = per_session.into_iter().fold(QueryStats::default(), add);
    assert_eq!(
        merged, global,
        "per-session statistics must sum to the database totals"
    );

    let log = db.access_log();
    assert_eq!(log.len(), total as usize, "lost access-log entries");
    for (i, entry) in log.entries().iter().enumerate() {
        assert_eq!(
            entry.seq,
            i as u64 + 1,
            "sequence numbers must be monotone and gap-free"
        );
    }
}

#[test]
fn concurrent_sessions_share_the_rate_limit_exactly() {
    let mut db = stress_db(5);
    db.set_rate_limit(Some(skyweb_hidden_db::RateLimit::new(100)));
    let db = db;

    let accepted: u64 = thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let db = &db;
                scope.spawn(move || {
                    let mut session = db.session();
                    let mut ok = 0u64;
                    for i in 0..QUERIES_PER_THREAD {
                        match session.query(&query_for(t, i)) {
                            Ok(_) => ok += 1,
                            Err(QueryError::RateLimitExceeded { limit }) => {
                                assert_eq!(limit, 100);
                            }
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                    ok
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });

    assert_eq!(accepted, 100, "exactly the rate limit may be accepted");
    assert_eq!(db.stats().queries, 100);
}

/// The ids of a session's answer to `q`, best first.
fn answer_ids(session: &mut Session<'_>, q: &Query) -> Vec<u64> {
    let answer = session.query(q).expect("valid query");
    answer.iter().map(|t| t.id).collect()
}

#[test]
fn concurrent_session_query_lists_match_a_serial_pass() {
    let db = stress_db(4);
    let queries: Vec<Query> = (0..40).map(|i| query_for(1, i)).collect();
    let serial_db = stress_db(4);
    let mut serial_session = serial_db.session();
    let serial: Vec<Vec<u64>> = queries
        .iter()
        .map(|q| answer_ids(&mut serial_session, q))
        .collect();

    thread::scope(|scope| {
        for _ in 0..THREADS {
            let (db, queries, serial) = (&db, &queries, &serial);
            scope.spawn(move || {
                let mut session = db.session();
                for (q, want) in queries.iter().zip(serial) {
                    assert_eq!(
                        &answer_ids(&mut session, q),
                        want,
                        "concurrent session diverged from the serial pass"
                    );
                }
            });
        }
    });
    assert_eq!(db.stats().queries, (THREADS * queries.len()) as u64);
}
