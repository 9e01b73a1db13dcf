//! Client sessions: concurrent access to one shared [`HiddenDb`].
//!
//! A [`Session`] models one client of the hidden database — one browser tab
//! hitting the search form, one API key calling the service. Any number of
//! sessions can issue queries against the same database concurrently
//! (`HiddenDb` is `Send + Sync`); each keeps
//!
//! * its **own [`QueryStats`]** — the per-client accounting the paper's
//!   cost measure is about — while the database keeps the merged totals,
//! * its **own scratch buffers**, so steady-state queries allocate nothing
//!   and never contend on shared working memory,
//!
//! and all sessions share the rate limit, the global counters and the
//! (sequence-numbered, mergeable) access log.
//!
//! ```
//! use skyweb_hidden_db::{HiddenDb, InterfaceType, Query, SchemaBuilder, Tuple};
//!
//! let schema = SchemaBuilder::new()
//!     .ranking("price", 10, InterfaceType::Rq)
//!     .build();
//! let tuples = (0..8).map(|i| Tuple::new(i, vec![i as u32])).collect();
//! let db = HiddenDb::with_sum_ranking(schema, tuples, 3);
//!
//! let mut session = db.session();
//! session.query(&Query::select_all()).unwrap();
//! assert_eq!(session.stats().queries, 1);
//! assert_eq!(db.stats().queries, 1); // global accounting sees it too
//! ```

use crate::index::Scratch;
use crate::stats::QueryStats;
use crate::{HiddenDb, PrefixGroup, Query, QueryError, QueryResponse};

/// One client's query cursor over a shared [`HiddenDb`].
///
/// Created by [`HiddenDb::session`]. Queries issued through a session update
/// both the session's private [`QueryStats`] and the database's global
/// accounting; rejected queries (validation or rate-limit errors) are
/// counted by neither, matching [`HiddenDb::query`].
pub struct Session<'db> {
    db: &'db HiddenDb,
    scratch: Scratch,
    stats: QueryStats,
}

impl<'db> Session<'db> {
    pub(crate) fn new(db: &'db HiddenDb) -> Self {
        Session {
            db,
            scratch: Scratch::default(),
            stats: QueryStats::default(),
        }
    }

    /// Answers a search query exactly like [`HiddenDb::query`], additionally
    /// recording it in this session's private statistics.
    pub fn query(&mut self, query: &Query) -> Result<QueryResponse, QueryError> {
        let out = self.db.query_with_scratch(query, &mut self.scratch);
        if let Ok(response) = &out {
            self.note(response);
        }
        out
    }

    /// Folds one answered query into this session's private statistics —
    /// the same update whether the query ran individually or inside a
    /// batched plan.
    fn note(&mut self, response: &QueryResponse) {
        self.stats.queries += 1;
        if response.overflowed {
            self.stats.overflows += 1;
        }
        if response.is_empty() {
            self.stats.empty_answers += 1;
        }
        self.stats.tuples_returned += response.len() as u64;
    }

    /// This session's private query accounting (the database's global
    /// [`HiddenDb::stats`] aggregates all sessions).
    pub fn stats(&self) -> QueryStats {
        self.stats
    }
}

/// The search form as a discovery run reaches it: a plan of queries goes
/// in, the answered prefix comes out. This is the one way a plan reaches a
/// database — in-process through a [`Session`], over TCP through
/// `skyweb-net`'s `RemoteOracle`, and behind a [`FaultyOracle`] that wraps
/// either — so every discovery machine is transport-blind.
///
/// [`FaultyOracle`]: crate::FaultyOracle
pub trait PlanOracle: std::fmt::Debug {
    /// Executes `queries` in order, with the optional sibling-group
    /// annotation, stopping at the first rejection, and returns the
    /// answered prefix together with the error that cut it short (if any).
    /// Transient errors ([`QueryError::is_transient`]) are a retrying
    /// caller's cue to resend the unanswered suffix.
    ///
    /// `groups` must tile `queries` with literally shared predicate
    /// prefixes (discovery machines know their frontier's parent
    /// structure); `None` means "no annotation".
    fn run_plan_grouped(
        &mut self,
        queries: &[Query],
        groups: Option<&[PrefixGroup]>,
    ) -> (Vec<QueryResponse>, Option<QueryError>);
}

/// Execution is **batched, not per-query**: the whole plan goes to the
/// engine's shared-prefix executor, which factors sibling queries into
/// [`PrefixGroup`]s (tree frontiers share their parent's conjunction) and
/// evaluates each shared conjunction once, answering every member from the
/// shared candidates plus its private residual predicates. An inconsistent
/// annotation is ignored in favor of engine-side factoring, and `None`
/// always means "factor engine-side". Responses, statistics, rate limiting
/// and the access log are byte-identical to issuing each query through
/// [`Session::query`] — the admission/accounting hooks run per query in
/// plan order, and a differential battery pins the equivalence. A
/// rate-limit rejection mid-plan never *attempts* the remaining queries.
impl PlanOracle for Session<'_> {
    fn run_plan_grouped(
        &mut self,
        queries: &[Query],
        groups: Option<&[PrefixGroup]>,
    ) -> (Vec<QueryResponse>, Option<QueryError>) {
        let (responses, err) = self
            .db
            .run_plan_with_scratch(queries, groups, &mut self.scratch);
        for response in &responses {
            self.note(response);
        }
        (responses, err)
    }
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("db", &self.db)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::{
        HiddenDb, InterfaceType, PlanOracle, Predicate, Query, QueryError, RateLimit,
        SchemaBuilder, Tuple,
    };

    fn db(k: usize) -> HiddenDb {
        let schema = SchemaBuilder::new()
            .ranking("a", 10, InterfaceType::Rq)
            .ranking("b", 10, InterfaceType::Rq)
            .build();
        let tuples = (0..20)
            .map(|i| Tuple::new(i, vec![(i % 10) as u32, ((i * 7) % 10) as u32]))
            .collect();
        HiddenDb::with_sum_ranking(schema, tuples, k)
    }

    #[test]
    fn session_stats_track_only_their_own_queries() {
        let db = db(3);
        let mut a = db.session();
        let mut b = db.session();
        a.query(&Query::select_all()).unwrap();
        a.query(&Query::new(vec![Predicate::lt(0, 3)])).unwrap();
        b.query(&Query::select_all()).unwrap();
        assert_eq!(a.stats().queries, 2);
        assert_eq!(b.stats().queries, 1);
        assert_eq!(db.stats().queries, 3);
        assert_eq!(
            a.stats().tuples_returned + b.stats().tuples_returned,
            db.stats().tuples_returned
        );
    }

    #[test]
    fn rejected_queries_are_not_counted_by_sessions() {
        let db = db(3);
        let mut s = db.session();
        let err = s.query(&Query::new(vec![Predicate::eq(9, 0)])).unwrap_err();
        assert!(matches!(err, QueryError::UnknownAttribute { attr: 9 }));
        assert_eq!(s.stats().queries, 0);
        assert_eq!(db.stats().queries, 0);
    }

    #[test]
    fn sessions_share_the_rate_limit() {
        let db = db(3).with_rate_limit(RateLimit::new(2));
        let mut a = db.session();
        let mut b = db.session();
        assert!(a.query(&Query::select_all()).is_ok());
        assert!(b.query(&Query::select_all()).is_ok());
        let err = a.query(&Query::select_all()).unwrap_err();
        assert_eq!(err, QueryError::RateLimitExceeded { limit: 2 });
        assert_eq!(a.stats().queries, 1);
        assert_eq!(b.stats().queries, 1);
    }

    #[test]
    fn run_plan_returns_the_answered_prefix_and_the_cutting_error() {
        let limited = db(3).with_rate_limit(RateLimit::new(2));
        let mut s = limited.session();
        let queries = vec![Query::select_all(); 4];
        let (responses, err) = s.run_plan_grouped(&queries, None);
        assert_eq!(responses.len(), 2);
        assert_eq!(err, Some(QueryError::RateLimitExceeded { limit: 2 }));
        assert_eq!(s.stats().queries, 2);
        assert_eq!(limited.queries_issued(), 2);

        let db2 = db(3);
        let mut s2 = db2.session();
        let plan = vec![
            Query::select_all(),
            Query::new(vec![Predicate::eq(9, 0)]), // unknown attribute
            Query::select_all(),
        ];
        let (responses, err) = s2.run_plan_grouped(&plan, None);
        assert_eq!(responses.len(), 1);
        assert!(matches!(
            err,
            Some(QueryError::UnknownAttribute { attr: 9 })
        ));
        // The query after the rejection was never attempted.
        assert_eq!(db2.queries_issued(), 1);

        let (responses, err) = s2.run_plan_grouped(&[Query::select_all()], None);
        assert_eq!(responses.len(), 1);
        assert!(err.is_none());
    }

    /// Sequential reference for plan execution: a fresh db answering the
    /// same plan one query at a time through `Session::query`.
    fn sequential_reference(
        db: &HiddenDb,
        queries: &[Query],
    ) -> (Vec<Vec<u64>>, Option<QueryError>, crate::QueryStats) {
        let mut s = db.session();
        let mut ids = Vec::new();
        let mut err = None;
        for q in queries {
            match s.query(q) {
                Ok(resp) => ids.push(resp.iter().map(|t| t.id).collect()),
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        (ids, err, s.stats())
    }

    /// Batched `run_plan_grouped` must equal the sequential loop on responses,
    /// session stats, global stats and the access log, across the grouping
    /// edge cases: empty plan, singleton, zero shared prefix, all-identical
    /// queries, deep sibling groups.
    #[test]
    fn run_plan_matches_sequential_on_grouping_edge_cases() {
        let parent = Query::new(vec![Predicate::lt(0, 6), Predicate::ge(1, 2)]);
        let plans: Vec<Vec<Query>> = vec![
            vec![],                    // empty plan
            vec![Query::select_all()], // single query
            vec![parent.clone()],      // single constrained query
            vec![
                // zero shared prefix: distinct first predicates
                Query::new(vec![Predicate::lt(0, 3)]),
                Query::new(vec![Predicate::lt(1, 3)]),
                Query::select_all(),
            ],
            vec![parent.clone(); 4], // all-identical queries
            vec![
                // sibling group under a shared parent conjunction
                parent.and(Predicate::lt(0, 3)),
                parent.and(Predicate::lt(1, 8)),
                parent.and(Predicate::eq(0, 4)),
                // followed by an unrelated singleton
                Query::new(vec![Predicate::gt(1, 7)]),
            ],
        ];
        for plan in &plans {
            let batched_db = db(3);
            batched_db.enable_access_log();
            let mut batched = batched_db.session();
            let (responses, err) = batched.run_plan_grouped(plan, None);
            let reference_db = db(3);
            reference_db.enable_access_log();
            let (want_ids, want_err, want_stats) = sequential_reference(&reference_db, plan);
            let got_ids: Vec<Vec<u64>> = responses
                .iter()
                .map(|r| r.iter().map(|t| t.id).collect())
                .collect();
            assert_eq!(got_ids, want_ids, "responses diverged for plan {plan:?}");
            assert_eq!(err, want_err);
            assert_eq!(batched.stats(), want_stats);
            assert_eq!(batched_db.stats(), reference_db.stats());
            let (got_log, want_log) = (batched_db.access_log(), reference_db.access_log());
            assert_eq!(got_log.len(), want_log.len());
            for (a, b) in got_log.entries().iter().zip(want_log.entries()) {
                assert_eq!(
                    (a.seq, &a.query, a.returned, a.overflowed),
                    (b.seq, &b.query, b.returned, b.overflowed)
                );
            }
        }
    }

    #[test]
    fn rate_limit_exhaustion_mid_group_preserves_answered_prefix() {
        let parent = Query::new(vec![Predicate::lt(0, 6)]);
        // One sibling group of 4; the limit cuts it after 2 members.
        let plan: Vec<Query> = (0..4).map(|i| parent.and(Predicate::ge(1, i))).collect();
        let limited = db(3).with_rate_limit(RateLimit::new(2));
        let mut s = limited.session();
        let (responses, err) = s.run_plan_grouped(&plan, None);
        assert_eq!(responses.len(), 2);
        assert_eq!(err, Some(QueryError::RateLimitExceeded { limit: 2 }));
        assert_eq!(s.stats().queries, 2);
        assert_eq!(limited.queries_issued(), 2);
        // The answered prefix is identical to an unlimited sequential run
        // of the same two queries.
        let reference = db(3);
        let (want_ids, _, _) = sequential_reference(&reference, &plan[..2]);
        let got_ids: Vec<Vec<u64>> = responses
            .iter()
            .map(|r| r.iter().map(|t| t.id).collect())
            .collect();
        assert_eq!(got_ids, want_ids);
    }

    #[test]
    fn run_plan_grouped_accepts_hints_and_survives_bad_ones() {
        let parent = Query::new(vec![Predicate::lt(0, 6)]);
        let plan: Vec<Query> = (0..3).map(|i| parent.and(Predicate::ge(1, i))).collect();
        let want: Vec<Vec<u64>> = {
            let reference = db(3);
            sequential_reference(&reference, &plan).0
        };
        // A correct machine-side annotation.
        let hinted = db(3);
        let mut s = hinted.session();
        let groups = [crate::PrefixGroup {
            len: 3,
            prefix_len: 1,
        }];
        let (responses, err) = s.run_plan_grouped(&plan, Some(&groups));
        assert!(err.is_none());
        let got: Vec<Vec<u64>> = responses
            .iter()
            .map(|r| r.iter().map(|t| t.id).collect())
            .collect();
        assert_eq!(got, want);
        // An inconsistent annotation is ignored in favor of engine-side
        // factoring — execution is identical either way.
        let bad = db(3);
        let mut s = bad.session();
        let groups = [crate::PrefixGroup {
            len: 3,
            prefix_len: 2, // not actually shared
        }];
        let (responses, err) = s.run_plan_grouped(&plan, Some(&groups));
        assert!(err.is_none());
        let got: Vec<Vec<u64>> = responses
            .iter()
            .map(|r| r.iter().map(|t| t.id).collect())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn hidden_db_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HiddenDb>();
        // Sessions move between threads (scoped-thread workers own one
        // each), though they are not shared without exterior locking.
        fn assert_send<T: Send>() {}
        assert_send::<crate::Session<'static>>();
    }
}
