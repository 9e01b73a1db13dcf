//! The hidden database itself: a tuple store that can only be reached
//! through a top-k, predicate-restricted search interface.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use std::path::Path;

use crate::conc::SeqReserver;
use crate::index::{ExecOutcome, QueryIndex, Scratch};
use crate::segment::{
    BlockSource, FileSource, SegmentError, SegmentOpenOptions, SegmentReader, SegmentWriter,
    StorageStats,
};
use crate::stats::{AccessLog, AccessLogEntry, QueryStats};
use crate::store::TupleStore;
use crate::sync::StdSync;
use crate::{
    AttrId, AttributeRole, CmpOp, InterfaceType, Query, Ranker, Schema, SumRanker, Tuple, Value,
};

/// Upper bound on pooled scratch buffers kept alive by a database: enough
/// for one per hardware thread on big machines without letting a burst of
/// concurrent one-off queries pin memory forever.
const SCRATCH_POOL_CAP: usize = 32;

/// A client-visible limit on the number of search queries that may be
/// issued, modelling per-IP-address or per-API-key quotas of real web
/// databases (e.g. the 50 free queries per day of the Google Flights QPX
/// API mentioned in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Maximum number of accepted queries.
    pub max_queries: u64,
}

impl RateLimit {
    /// Creates a rate limit of `max_queries` queries.
    pub fn new(max_queries: u64) -> Self {
        RateLimit { max_queries }
    }
}

/// Errors returned by [`HiddenDb::query`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query references an attribute that does not exist in the schema.
    UnknownAttribute {
        /// The offending attribute id.
        attr: usize,
    },
    /// The query uses a predicate operator that the attribute's search
    /// interface does not support (e.g. `>` on an SQ attribute, `<` on a PQ
    /// attribute).
    UnsupportedPredicate {
        /// The offending attribute id.
        attr: usize,
        /// The operator that was attempted.
        op: CmpOp,
        /// The interface type of the attribute.
        interface: InterfaceType,
    },
    /// The predicate constant lies outside the attribute's domain.
    ValueOutOfDomain {
        /// The offending attribute id.
        attr: usize,
        /// The out-of-domain constant.
        value: Value,
        /// The size of the attribute's domain.
        domain_size: Value,
    },
    /// The client has exhausted its query quota.
    RateLimitExceeded {
        /// The limit that was hit.
        limit: u64,
    },
    /// The server was temporarily unreachable (transient: a retry of the
    /// same query may succeed).
    Unavailable,
    /// The query did not complete within the client's per-query timeout
    /// (transient).
    Timeout {
        /// Simulated time the attempt spent before being abandoned.
        elapsed_ms: u64,
    },
    /// The server shed load with a short-lived throttle burst (transient —
    /// unlike [`QueryError::RateLimitExceeded`], which is the permanent
    /// exhaustion of the client's whole quota).
    Throttled,
    /// The connection dropped mid-plan; any answered prefix was delivered
    /// before the drop (transient).
    ConnectionDropped,
    /// A segment-backed store failed to load a chunk (I/O error or
    /// corrupted bytes). Non-transient: the backing file is damaged, so a
    /// retry hits the same bytes. The failed query still consumed its
    /// admitted sequence-number slot (it counts as issued) but wrote no
    /// access-log entry.
    Storage {
        /// The underlying storage fault.
        error: SegmentError,
    },
}

impl QueryError {
    /// `true` for failures that are worth retrying: the same query may
    /// succeed on a later attempt ([`QueryError::Unavailable`],
    /// [`QueryError::Timeout`], [`QueryError::Throttled`],
    /// [`QueryError::ConnectionDropped`]). Validation rejections and quota
    /// exhaustion are permanent: retrying cannot change the outcome.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            QueryError::Unavailable
                | QueryError::Timeout { .. }
                | QueryError::Throttled
                | QueryError::ConnectionDropped
        )
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownAttribute { attr } => write!(f, "unknown attribute A{attr}"),
            QueryError::UnsupportedPredicate {
                attr,
                op,
                interface,
            } => write!(
                f,
                "attribute A{attr} ({}) does not support predicate '{}'",
                interface.label(),
                op.symbol()
            ),
            QueryError::ValueOutOfDomain {
                attr,
                value,
                domain_size,
            } => write!(
                f,
                "value {value} is outside the domain [0, {domain_size}) of attribute A{attr}"
            ),
            QueryError::RateLimitExceeded { limit } => {
                write!(f, "query rate limit of {limit} queries exceeded")
            }
            QueryError::Unavailable => write!(f, "service temporarily unavailable"),
            QueryError::Timeout { elapsed_ms } => {
                write!(f, "query timed out after {elapsed_ms} ms")
            }
            QueryError::Throttled => write!(f, "request throttled, retry later"),
            QueryError::ConnectionDropped => write!(f, "connection dropped mid-plan"),
            QueryError::Storage { error } => write!(f, "segment storage error: {error}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Answer of the hidden database to one search query.
///
/// The tuples are shared (`Arc`) with the database's internal store:
/// building a response costs `k` reference bumps instead of `k` deep tuple
/// clones, which matters when experiments issue tens of thousands of
/// queries.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The returned tuples, best-ranked first. At most `k` tuples.
    pub tuples: Vec<Arc<Tuple>>,
    /// `true` if more than `k` tuples matched the query, i.e. the answer was
    /// truncated by the top-k constraint ("the query overflowed").
    pub overflowed: bool,
}

impl QueryResponse {
    /// The best-ranked returned tuple, if any.
    pub fn top(&self) -> Option<&Tuple> {
        self.tuples.first().map(Arc::as_ref)
    }

    /// `true` if no tuple matched the query.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Number of returned tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Iterates the returned tuples, best-ranked first.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter().map(Arc::as_ref)
    }
}

/// A hidden web database: tuples + schema + proprietary ranking function,
/// reachable only through [`HiddenDb::query`].
///
/// The struct deliberately offers **no** public access to the raw tuple
/// store from the client's perspective; discovery algorithms must go through
/// the query interface, which counts every access. Experiment code that
/// needs ground truth (e.g. to verify that all skyline tuples were found)
/// can use [`HiddenDb::oracle_tuples`], which is clearly marked as
/// server-side knowledge.
pub struct HiddenDb {
    schema: Schema,
    /// The single `Arc`-backed tuple store shared by the index builder,
    /// the ranker fallback and every response (see [`TupleStore`]). Earlier
    /// revisions held the tuples twice — a plain `Vec<Tuple>` plus lazily
    /// deep-cloned `Arc<Tuple>`s for responses — which doubled resident
    /// memory on indexed databases.
    store: TupleStore,
    /// Rank permutation + zone maps + per-attribute posting lists, built
    /// lazily on the first query or `selectivity()` call, so building a
    /// database that is never queried never pays for them.
    index: OnceLock<QueryIndex>,
    ranker: Box<dyn Ranker>,
    k: usize,
    rate_limit: Option<RateLimit>,
    /// Sequence numbering + rate-limit reservation — the [`SeqReserver`]
    /// core the `skyweb-check` interleaving explorer model-checks.
    queries: SeqReserver<StdSync>,
    overflows: AtomicU64,
    empty_answers: AtomicU64,
    tuples_returned: AtomicU64,
    log_enabled: AtomicBool,
    /// Access-log entries in the order clients recorded them;
    /// [`HiddenDb::access_log`] sorts a snapshot by sequence number.
    access_log: Mutex<Vec<AccessLogEntry>>,
    /// Recycled per-query working memory for session-less [`HiddenDb::query`]
    /// calls. Sessions carry their own scratch; this pool only serves one-off
    /// queries so they stay allocation-light too.
    scratch_pool: Mutex<Vec<Scratch>>,
}

impl fmt::Debug for HiddenDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HiddenDb")
            .field("n", &self.store.len())
            .field("m", &self.schema.num_ranking())
            .field("k", &self.k)
            .field("ranker", &self.ranker.name())
            .field("rate_limit", &self.rate_limit)
            .finish()
    }
}

impl HiddenDb {
    /// Creates a hidden database with the given schema, tuples, ranking
    /// function and top-k constraint.
    ///
    /// # Panics
    /// Panics if `k == 0`, if any tuple's arity differs from the schema, or
    /// if any tuple value lies outside its attribute domain.
    pub fn new(schema: Schema, tuples: Vec<Tuple>, ranker: Box<dyn Ranker>, k: usize) -> Self {
        assert!(k >= 1, "the top-k constraint requires k >= 1");
        for t in &tuples {
            assert_eq!(
                t.arity(),
                schema.len(),
                "tuple {} has arity {} but the schema has {} attributes",
                t.id,
                t.arity(),
                schema.len()
            );
            for (attr, &v) in t.values.iter().enumerate() {
                assert!(
                    schema.value_in_domain(attr, v),
                    "tuple {} value {v} is outside the domain of attribute {attr}",
                    t.id
                );
            }
        }
        HiddenDb {
            schema,
            store: TupleStore::new(tuples),
            index: OnceLock::new(),
            ranker,
            k,
            rate_limit: None,
            queries: SeqReserver::new(false),
            overflows: AtomicU64::new(0),
            empty_answers: AtomicU64::new(0),
            tuples_returned: AtomicU64::new(0),
            log_enabled: AtomicBool::new(false),
            access_log: Mutex::new(Vec::new()),
            scratch_pool: Mutex::new(Vec::new()),
        }
    }

    /// Convenience constructor using the paper's default offline ranking
    /// function ([`SumRanker`]).
    pub fn with_sum_ranking(schema: Schema, tuples: Vec<Tuple>, k: usize) -> Self {
        HiddenDb::new(schema, tuples, Box::new(SumRanker), k)
    }

    /// Persists this database as a columnar segment file and returns the
    /// number of bytes written (see `docs/segment-format.md`). The output is
    /// byte-deterministic for a given database.
    ///
    /// Fails with [`SegmentError::Malformed`] if this database is itself
    /// segment-backed — re-encoding an opened segment is not supported (copy
    /// the file instead).
    pub fn write_segment(&self, path: impl AsRef<Path>) -> Result<u64, SegmentError> {
        SegmentWriter::new().write_to_path(self, path)
    }

    /// Opens a persisted columnar segment file as a lazily-hydrating hidden
    /// database (see [`HiddenDb::open_segment_source`] for semantics).
    pub fn open_segment(
        path: impl AsRef<Path>,
        ranker: Box<dyn Ranker>,
    ) -> Result<Self, SegmentError> {
        HiddenDb::open_segment_source(Box::new(FileSource::open(path)?), ranker)
    }

    /// [`HiddenDb::open_segment`] with explicit open options (the chunk-cache
    /// budget).
    pub fn open_segment_with(
        path: impl AsRef<Path>,
        ranker: Box<dyn Ranker>,
        options: SegmentOpenOptions,
    ) -> Result<Self, SegmentError> {
        HiddenDb::open_segment_source_with(Box::new(FileSource::open(path)?), ranker, options)
    }

    /// Opens a persisted columnar segment from an arbitrary [`BlockSource`]
    /// as a lazily-hydrating hidden database.
    ///
    /// The cold open reads only the trailer, footer, prefix counts and zone
    /// maps — O(footer + metadata), independent of the tuple count. Column
    /// chunks and tuples materialize per 4096-entry chunk the first time a
    /// query touches them, and `Ranker::precompute` never runs: the rank
    /// permutation persisted at write time is served directly.
    ///
    /// `ranker` must be behaviorally identical to the ranker the segment was
    /// written under; it is checked **by name** against the stored name and
    /// rejected with [`SegmentError::RankerMismatch`] on disagreement. The
    /// name check cannot distinguish two differently-parameterized rankers
    /// with the same name (e.g. two `WeightedSumRanker`s with different
    /// weights) — passing one silently yields the *written* ranking, since
    /// the persisted permutation wins.
    ///
    /// The opened database starts with no rate limit, zeroed statistics and
    /// the access log off — exactly like [`HiddenDb::new`]. Storage faults
    /// during later queries surface as [`QueryError::Storage`].
    pub fn open_segment_source(
        source: Box<dyn BlockSource>,
        ranker: Box<dyn Ranker>,
    ) -> Result<Self, SegmentError> {
        HiddenDb::open_segment_source_with(source, ranker, SegmentOpenOptions::default())
    }

    /// [`HiddenDb::open_segment_source`] with explicit open options: a
    /// chunk-cache byte budget (bounded working set with clock eviction
    /// instead of sticky hydration).
    pub fn open_segment_source_with(
        source: Box<dyn BlockSource>,
        ranker: Box<dyn Ranker>,
        options: SegmentOpenOptions,
    ) -> Result<Self, SegmentError> {
        let reader = Arc::new(SegmentReader::open_with(source, options)?);
        if reader.ranker_name() != ranker.name() {
            return Err(SegmentError::RankerMismatch {
                expected: reader.ranker_name().to_string(),
                found: ranker.name().to_string(),
            });
        }
        let db = HiddenDb {
            schema: reader.schema().clone(),
            store: TupleStore::from_segment(Arc::clone(&reader)),
            index: OnceLock::new(),
            ranker,
            k: reader.k(),
            rate_limit: None,
            queries: SeqReserver::new(false),
            overflows: AtomicU64::new(0),
            empty_answers: AtomicU64::new(0),
            tuples_returned: AtomicU64::new(0),
            log_enabled: AtomicBool::new(false),
            access_log: Mutex::new(Vec::new()),
            scratch_pool: Mutex::new(Vec::new()),
        };
        // Pre-seed the index with the segment metadata so first use never
        // falls back to the O(m·n) RAM build (which would hydrate the whole
        // store).
        let _ = db.index.set(QueryIndex::from_segment(reader));
        Ok(db)
    }

    /// The lazily-built query index (first use pays the O(m·n) posting
    /// sorts and the rank-order precompute).
    pub(crate) fn index(&self) -> &QueryIndex {
        self.index
            .get_or_init(|| QueryIndex::build(&self.store, &self.schema, self.ranker.as_ref()))
    }

    /// Number of tuples whose value on `attr` lies in the closed interval
    /// `[lo, hi]` — answered in O(1) from the prefix-count index. This is
    /// server-side knowledge (like [`HiddenDb::oracle_tuples`]): experiment
    /// code may use it for workload analysis, discovery algorithms must not.
    ///
    /// # Panics
    /// Panics if `attr` is out of range or `hi` is outside the domain.
    pub fn selectivity(&self, attr: AttrId, lo: Value, hi: Value) -> usize {
        assert!(attr < self.schema.len(), "unknown attribute A{attr}");
        assert!(
            self.schema.value_in_domain(attr, hi),
            "value {hi} outside the domain of attribute A{attr}"
        );
        self.index().range_count(attr, lo, hi)
    }

    /// Installs a query rate limit (replacing any previous one).
    pub fn set_rate_limit(&mut self, limit: Option<RateLimit>) {
        self.rate_limit = limit;
    }

    /// Builder-style variant of [`HiddenDb::set_rate_limit`].
    pub fn with_rate_limit(mut self, limit: RateLimit) -> Self {
        self.rate_limit = Some(limit);
        self
    }

    /// Starts recording every answered query in an [`AccessLog`].
    pub fn enable_access_log(&self) {
        self.log_entries().clear();
        self.log_enabled.store(true, Ordering::Relaxed);
    }

    /// Returns a snapshot of the access log (empty if logging was never
    /// enabled).
    ///
    /// The log is shared by every client of the database, and a client can
    /// be preempted between reserving its sequence number and recording its
    /// entry, so the snapshot is sorted by sequence number — the merged,
    /// chronological view of all clients' queries.
    pub fn access_log(&self) -> AccessLog {
        if !self.log_enabled.load(Ordering::Relaxed) {
            return AccessLog::default();
        }
        let mut entries = self.log_entries().clone();
        entries.sort_unstable_by_key(|e| e.seq);
        AccessLog { entries }
    }

    /// The access log's entries, in the order they were recorded.
    fn log_entries(&self) -> MutexGuard<'_, Vec<AccessLogEntry>> {
        self.access_log
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The database schema (public knowledge: the search form reveals it).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The top-k constraint of the interface.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of tuples in the database.
    ///
    /// Real hidden databases usually advertise their size ("209,666
    /// diamonds"), so exposing `n` is not cheating; none of the discovery
    /// algorithms rely on it.
    pub fn n(&self) -> usize {
        self.store.len()
    }

    /// Name of the ranking function (for reports only — the discovery
    /// algorithms never inspect it).
    pub fn ranker_name(&self) -> &str {
        self.ranker.name()
    }

    /// A snapshot of the backing segment's storage counters (chunk-cache
    /// hits/misses/evictions, resident bytes, chunks validated), or `None`
    /// for a RAM-backed database.
    pub fn storage_stats(&self) -> Option<StorageStats> {
        self.store
            .segment_reader()
            .map(|reader| reader.storage_stats())
    }

    /// Number of queries answered so far.
    pub fn queries_issued(&self) -> u64 {
        self.queries.issued()
    }

    /// Full query accounting.
    pub fn stats(&self) -> QueryStats {
        QueryStats {
            queries: self.queries.issued(),
            overflows: self.overflows.load(Ordering::Relaxed),
            empty_answers: self.empty_answers.load(Ordering::Relaxed),
            tuples_returned: self.tuples_returned.load(Ordering::Relaxed),
        }
    }

    /// Resets all query counters (and clears the access log if enabled).
    pub fn reset_stats(&self) {
        self.queries.reset();
        self.overflows.store(0, Ordering::Relaxed);
        self.empty_answers.store(0, Ordering::Relaxed);
        self.tuples_returned.store(0, Ordering::Relaxed);
        if self.log_enabled.load(Ordering::Relaxed) {
            self.log_entries().clear();
        }
    }

    /// Validates that a query only uses predicates supported by the search
    /// interface. Rejected queries are *not* counted against the rate limit.
    pub fn validate(&self, query: &Query) -> Result<(), QueryError> {
        for p in query.predicates() {
            if p.attr >= self.schema.len() {
                return Err(QueryError::UnknownAttribute { attr: p.attr });
            }
            let spec = self.schema.attr(p.attr);
            if !self.schema.value_in_domain(p.attr, p.value) {
                return Err(QueryError::ValueOutOfDomain {
                    attr: p.attr,
                    value: p.value,
                    domain_size: spec.domain_size,
                });
            }
            let supported = match spec.role {
                AttributeRole::Filtering => p.op == CmpOp::Eq,
                AttributeRole::Ranking => match spec.interface {
                    InterfaceType::Sq => p.op == CmpOp::Eq || p.op.is_upper_bound(),
                    InterfaceType::Rq => true,
                    InterfaceType::Pq => p.op == CmpOp::Eq,
                },
            };
            if !supported {
                return Err(QueryError::UnsupportedPredicate {
                    attr: p.attr,
                    op: p.op,
                    interface: spec.interface,
                });
            }
        }
        Ok(())
    }

    /// Answers a search query: validates it, applies the conjunctive
    /// predicates, lets the ranking function pick the top-k matching tuples,
    /// and updates the query counters.
    ///
    /// The answer is produced by the engine in the `index` module:
    /// rank-ordered early termination for broad queries, posting-list
    /// candidate pruning for selective ones, and `Arc`-shared responses —
    /// exactly the answer of the naive filter-everything-then-rank
    /// definition, which the differential suites keep as their reference.
    pub fn query(&self, query: &Query) -> Result<QueryResponse, QueryError> {
        // Borrow a pooled scratch so one-off queries stay allocation-light
        // in steady state; sessions bypass the pool with their own buffer.
        let mut scratch = self
            .scratch_pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop()
            .unwrap_or_default();
        let out = self.query_with_scratch(query, &mut scratch);
        let mut pool = self
            .scratch_pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(scratch);
        }
        out
    }

    /// The engine shared by [`HiddenDb::query`] and [`crate::Session`]: the
    /// caller provides the per-query working memory.
    pub(crate) fn query_with_scratch(
        &self,
        query: &Query,
        scratch: &mut Scratch,
    ) -> Result<QueryResponse, QueryError> {
        let seq = self.admit(query)?;
        let out = self.exec_validated(query, scratch)?;
        Ok(self.finish_query(query, seq, out))
    }

    /// Admission control for one query: validation, rate-limit reservation
    /// and sequence numbering. On success the query *will* be answered and
    /// counted; admission and completion are split so the plan executor can
    /// interleave them with shared-group evaluation in exact plan order.
    pub(crate) fn admit(&self, query: &Query) -> Result<u64, QueryError> {
        self.validate(query)?;
        // Capture the value returned by `fetch_add` for the log sequence
        // number: re-reading the counter after the increment would let
        // concurrent clients log duplicate or skipped sequence numbers.
        self.queries
            .reserve(self.rate_limit.map(|limit| limit.max_queries))
            .map_err(|limit| QueryError::RateLimitExceeded { limit })
    }

    /// Computes the answer of an admitted query: the returned tuples
    /// (best-ranked first) and the overflow flag.
    ///
    /// The only error is [`QueryError::Storage`] from a segment-backed store
    /// (a RAM-backed database never fails here). A storage failure consumes
    /// the admitted sequence-number slot but writes no access-log entry.
    pub(crate) fn exec_validated(
        &self,
        query: &Query,
        scratch: &mut Scratch,
    ) -> Result<ExecOutcome, QueryError> {
        self.index()
            .execute(
                query,
                self.k,
                &self.store,
                &self.schema,
                self.ranker.as_ref(),
                scratch,
            )
            .map_err(|e| QueryError::Storage { error: e })
    }

    /// Completes an admitted query: updates the global counters, records the
    /// access-log entry under the reserved sequence number and builds the
    /// response.
    pub(crate) fn finish_query(&self, query: &Query, seq: u64, out: ExecOutcome) -> QueryResponse {
        let ExecOutcome {
            returned: tuples,
            overflowed,
        } = out;
        if overflowed {
            self.overflows.fetch_add(1, Ordering::Relaxed);
        }
        // k >= 1, so the answer is empty exactly when nothing matched.
        if tuples.is_empty() {
            self.empty_answers.fetch_add(1, Ordering::Relaxed);
        }
        self.tuples_returned
            .fetch_add(tuples.len() as u64, Ordering::Relaxed);

        if self.log_enabled.load(Ordering::Relaxed) {
            let entry = AccessLogEntry {
                seq,
                query: query.to_string(),
                returned: tuples.len(),
                overflowed,
            };
            self.log_entries().push(entry);
        }

        QueryResponse { tuples, overflowed }
    }

    /// Executes a whole multi-query plan through the shared-prefix batch
    /// executor (see `index::execute_plan`): sibling queries grouped by
    /// shared predicate prefix evaluate their shared conjunction once, and
    /// per-query admission, statistics and access-log accounting happen in
    /// exact plan order — byte-identical to issuing the queries one by one.
    ///
    /// `hint` carries the grouping a discovery machine annotated its plan
    /// with; it is checked against the plan (and recomputed on the engine
    /// side when absent or inconsistent) before being trusted.
    pub(crate) fn run_plan_with_scratch(
        &self,
        queries: &[Query],
        hint: Option<&[crate::PrefixGroup]>,
        scratch: &mut Scratch,
    ) -> (Vec<QueryResponse>, Option<QueryError>) {
        let computed;
        let groups: &[crate::PrefixGroup] = match hint {
            // An annotation is only trusted after it verifies against the
            // plan; anything else (including a stale or buggy hint) gets
            // the engine-side factoring, as documented.
            Some(h) if crate::predicate::groups_cover(queries, h) => h,
            _ => {
                computed = crate::predicate::prefix_groups(queries);
                &computed
            }
        };
        let mut responses = Vec::with_capacity(queries.len());
        let err = crate::index::execute_plan(self, queries, groups, scratch, &mut responses);
        (responses, err)
    }

    /// The tuple store the engine answers from (crate-internal view; the
    /// public server-side handle is [`HiddenDb::oracle_tuples`]).
    pub(crate) fn store(&self) -> &TupleStore {
        &self.store
    }

    /// The ranking function (crate-internal view for the plan executor).
    pub(crate) fn ranker(&self) -> &dyn Ranker {
        self.ranker.as_ref()
    }

    /// Server-side ("oracle") access to the raw tuple store.
    ///
    /// This is **not** part of the hidden-database interface. It exists so
    /// that experiments and tests can compute ground-truth skylines and so
    /// that generators can inspect what they produced. Discovery algorithms
    /// must never call it.
    ///
    /// The returned [`TupleStore`] is the *same* allocation the query
    /// engine answers from (clone it to keep a cheap handle); there is no
    /// second oracle copy of the data.
    pub fn oracle_tuples(&self) -> &TupleStore {
        &self.store
    }

    /// Opens a client session: an independent query cursor with its own
    /// [`QueryStats`] accounting and reusable working memory, sharing the
    /// database (store, index, rate limit, global statistics, access log)
    /// with every other session.
    pub fn session(&self) -> crate::Session<'_> {
        crate::Session::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Predicate, SchemaBuilder, SingleAttributeRanker};

    fn mixed_db(k: usize) -> HiddenDb {
        let schema = SchemaBuilder::new()
            .ranking("price", 10, InterfaceType::Rq)
            .ranking("duration", 10, InterfaceType::Sq)
            .ranking("stops", 3, InterfaceType::Pq)
            .filtering("carrier", 4)
            .build();
        let tuples = vec![
            Tuple::new(0, vec![2, 5, 0, 1]),
            Tuple::new(1, vec![4, 2, 1, 0]),
            Tuple::new(2, vec![7, 7, 2, 2]),
            Tuple::new(3, vec![1, 8, 1, 3]),
            Tuple::new(4, vec![5, 5, 0, 1]),
        ];
        HiddenDb::with_sum_ranking(schema, tuples, k)
    }

    #[test]
    fn select_all_returns_top_k_and_overflows() {
        let db = mixed_db(2);
        let ans = db.query(&Query::select_all()).unwrap();
        assert_eq!(ans.len(), 2);
        assert!(ans.overflowed);
        // SumRanker over ranking attrs only: sums are 7, 7, 16, 10, 10 →
        // tuples 0 and 1 tie at 7, tie broken by id.
        assert_eq!(ans.tuples[0].id, 0);
        assert_eq!(ans.tuples[1].id, 1);
        assert_eq!(db.queries_issued(), 1);
    }

    #[test]
    fn predicates_filter_matching_tuples() {
        let db = mixed_db(10);
        let q = Query::new(vec![Predicate::lt(0, 5)]);
        let ans = db.query(&q).unwrap();
        assert!(!ans.overflowed);
        let ids: Vec<u64> = ans.tuples.iter().map(|t| t.id).collect();
        assert_eq!(ids.len(), 3);
        assert!(ids.contains(&0) && ids.contains(&1) && ids.contains(&3));
    }

    #[test]
    fn interface_capabilities_are_enforced() {
        let db = mixed_db(5);
        // `>` on an SQ attribute is rejected.
        let err = db
            .query(&Query::new(vec![Predicate::gt(1, 3)]))
            .unwrap_err();
        assert!(matches!(
            err,
            QueryError::UnsupportedPredicate { attr: 1, .. }
        ));
        // `<` on a PQ attribute is rejected.
        let err = db
            .query(&Query::new(vec![Predicate::lt(2, 2)]))
            .unwrap_err();
        assert!(matches!(
            err,
            QueryError::UnsupportedPredicate { attr: 2, .. }
        ));
        // Non-equality on a filtering attribute is rejected.
        let err = db
            .query(&Query::new(vec![Predicate::ge(3, 1)]))
            .unwrap_err();
        assert!(matches!(
            err,
            QueryError::UnsupportedPredicate { attr: 3, .. }
        ));
        // `=` is always allowed.
        assert!(db.query(&Query::new(vec![Predicate::eq(2, 0)])).is_ok());
        // Rejected queries are not counted.
        assert_eq!(db.queries_issued(), 1);
    }

    #[test]
    fn out_of_domain_and_unknown_attributes_are_rejected() {
        let db = mixed_db(5);
        let err = db
            .query(&Query::new(vec![Predicate::eq(2, 3)]))
            .unwrap_err();
        assert!(matches!(
            err,
            QueryError::ValueOutOfDomain {
                attr: 2,
                value: 3,
                ..
            }
        ));
        let err = db
            .query(&Query::new(vec![Predicate::eq(9, 0)]))
            .unwrap_err();
        assert!(matches!(err, QueryError::UnknownAttribute { attr: 9 }));
        assert_eq!(db.queries_issued(), 0);
    }

    #[test]
    fn empty_answers_are_counted() {
        let db = mixed_db(5);
        let q = Query::new(vec![Predicate::lt(0, 1), Predicate::lt(1, 3)]);
        let ans = db.query(&q).unwrap();
        assert!(ans.is_empty());
        assert!(!ans.overflowed);
        assert_eq!(db.stats().empty_answers, 1);
    }

    #[test]
    fn rate_limit_is_enforced() {
        let db = mixed_db(5).with_rate_limit(RateLimit::new(2));
        assert!(db.query(&Query::select_all()).is_ok());
        assert!(db.query(&Query::select_all()).is_ok());
        let err = db.query(&Query::select_all()).unwrap_err();
        assert_eq!(err, QueryError::RateLimitExceeded { limit: 2 });
        assert_eq!(db.queries_issued(), 2);
    }

    #[test]
    fn stats_and_reset() {
        let db = mixed_db(2);
        db.query(&Query::select_all()).unwrap();
        db.query(&Query::new(vec![Predicate::lt(0, 1), Predicate::lt(1, 3)]))
            .unwrap();
        let stats = db.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.overflows, 1);
        assert_eq!(stats.empty_answers, 1);
        assert_eq!(stats.tuples_returned, 2);
        db.reset_stats();
        assert_eq!(db.stats(), QueryStats::default());
    }

    #[test]
    fn access_log_records_queries() {
        let db = mixed_db(2);
        db.enable_access_log();
        db.query(&Query::select_all()).unwrap();
        db.query(&Query::new(vec![Predicate::eq(2, 0)])).unwrap();
        let log = db.access_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log.entries()[0].query, "SELECT * FROM D");
        assert!(log.entries()[0].overflowed);
        assert_eq!(log.entries()[1].returned, 2);
        assert!(!log.entries()[1].overflowed);
    }

    #[test]
    fn price_ranking_matches_online_scenario() {
        let schema = SchemaBuilder::new()
            .ranking("price", 100, InterfaceType::Rq)
            .ranking("mileage", 100, InterfaceType::Rq)
            .build();
        let tuples = vec![
            Tuple::new(0, vec![30, 1]),
            Tuple::new(1, vec![10, 90]),
            Tuple::new(2, vec![20, 50]),
        ];
        let db = HiddenDb::new(schema, tuples, Box::new(SingleAttributeRanker::new(0)), 2);
        let ans = db.query(&Query::select_all()).unwrap();
        assert_eq!(ans.tuples[0].id, 1);
        assert_eq!(ans.tuples[1].id, 2);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn mismatched_arity_panics() {
        let schema = SchemaBuilder::new()
            .ranking("a", 10, InterfaceType::Rq)
            .ranking("b", 10, InterfaceType::Rq)
            .build();
        let _ = HiddenDb::with_sum_ranking(schema, vec![Tuple::new(0, vec![1])], 1);
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_panics() {
        let schema = SchemaBuilder::new()
            .ranking("a", 10, InterfaceType::Rq)
            .build();
        let _ = HiddenDb::with_sum_ranking(schema, vec![], 0);
    }
}
