//! Query accounting: counters and an optional access log.
//!
//! The paper's key performance measure is the **number of queries issued**
//! through the restrictive web interface, not CPU time, because real web
//! databases enforce per-IP / per-API-key limits on search requests. The
//! [`QueryStats`] structure is therefore the primary output of every
//! experiment.

use std::fmt;

use crate::conc::ShardedLogCore;
use crate::sync::StdSync;

/// Aggregate statistics about the queries a client has issued against a
/// [`crate::HiddenDb`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Total number of accepted queries (rejected queries are not counted).
    pub queries: u64,
    /// Number of queries whose matching set exceeded `k` (the answer was
    /// truncated — the query *overflowed*).
    pub overflows: u64,
    /// Number of queries that matched no tuple at all.
    pub empty_answers: u64,
    /// Total number of tuples returned across all answers.
    pub tuples_returned: u64,
}

impl fmt::Display for QueryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} queries ({} overflowed, {} empty, {} tuples returned)",
            self.queries, self.overflows, self.empty_answers, self.tuples_returned
        )
    }
}

/// One entry of the [`AccessLog`]: what the client saw of one query. The
/// interface returns at most k matching tuples and whether more matched,
/// never how many did, so neither does the log.
#[derive(Debug, Clone)]
pub struct AccessLogEntry {
    /// Sequence number of the query (1-based).
    pub seq: u64,
    /// SQL-ish rendering of the query.
    pub query: String,
    /// Number of tuples actually returned.
    pub returned: usize,
    /// Whether the answer was truncated by the top-k constraint.
    pub overflowed: bool,
}

/// A chronological log of every query answered by a hidden database.
///
/// Logging is off by default because experiments can issue hundreds of
/// thousands of queries; enable it with
/// [`crate::HiddenDb::enable_access_log`].
#[derive(Debug, Default, Clone)]
pub struct AccessLog {
    entries: Vec<AccessLogEntry>,
}

impl AccessLog {
    /// All log entries in chronological order.
    pub fn entries(&self) -> &[AccessLogEntry] {
        &self.entries
    }

    /// Number of logged queries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub(crate) fn push(&mut self, entry: AccessLogEntry) {
        self.entries.push(entry);
    }
}

/// Number of shards of a [`ShardedAccessLog`]: enough that clients on
/// different cores essentially never contend on the same mutex (consecutive
/// sequence numbers land on consecutive shards), small enough that the
/// merge at snapshot time stays trivial.
const LOG_SHARDS: usize = 16;

/// The write side of the access log: `LOG_SHARDS` independently locked
/// buffers.
///
/// The log used to be one `Mutex<Vec<_>>` the whole database serialized on;
/// every logging query of every concurrent session took the same lock.
/// Entries are now spread over the shards by sequence number — consecutive
/// queries (even of one session) take *different* locks, so writers only
/// contend when `LOG_SHARDS` clients collide modulo 16 at the same instant.
/// [`ShardedAccessLog::snapshot`] merges the shards and sorts by the unique
/// sequence numbers, producing output byte-identical to the single-mutex
/// log's seq-ordered snapshot.
///
/// The sharding itself lives in [`ShardedLogCore`] — generic over the sync
/// facade so the `skyweb-check` interleaving explorer can model-check the
/// gap-free/monotone-sequence invariant exhaustively; this wrapper pins
/// the entry type and the shard count.
pub(crate) struct ShardedAccessLog {
    core: ShardedLogCore<StdSync, AccessLogEntry>,
}

impl fmt::Debug for ShardedAccessLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedAccessLog")
            .field("shards", &LOG_SHARDS)
            .finish()
    }
}

impl Default for ShardedAccessLog {
    fn default() -> Self {
        ShardedAccessLog {
            core: ShardedLogCore::new(LOG_SHARDS),
        }
    }
}

impl ShardedAccessLog {
    /// Appends one entry, locking only the shard its sequence number maps
    /// to.
    pub(crate) fn push(&self, entry: AccessLogEntry) {
        self.core.push(entry.seq, entry);
    }

    /// Clears every shard (on enable and on stats reset).
    pub(crate) fn clear(&self) {
        self.core.clear();
    }

    /// Merges the shards into one seq-ordered [`AccessLog`] snapshot.
    pub(crate) fn snapshot(&self) -> AccessLog {
        let mut log = AccessLog::default();
        for (_, entry) in self.core.snapshot() {
            log.push(entry);
        }
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_display_is_readable() {
        let stats = QueryStats {
            queries: 10,
            overflows: 3,
            empty_answers: 2,
            tuples_returned: 41,
        };
        let s = stats.to_string();
        assert!(s.contains("10 queries"));
        assert!(s.contains("3 overflowed"));
    }

    #[test]
    fn sharded_log_snapshot_is_seq_ordered() {
        let log = ShardedAccessLog::default();
        // Push in scrambled order; seqs land on different shards.
        for seq in [17u64, 2, 33, 1, 16, 18] {
            log.push(AccessLogEntry {
                seq,
                query: format!("q{seq}"),
                returned: 1,
                overflowed: false,
            });
        }
        let snap = log.snapshot();
        let seqs: Vec<u64> = snap.entries().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 16, 17, 18, 33]);
        log.clear();
        assert!(log.snapshot().is_empty());
    }

    #[test]
    fn log_push_and_read() {
        let mut log = AccessLog::default();
        assert!(log.is_empty());
        log.push(AccessLogEntry {
            seq: 1,
            query: "SELECT * FROM D".to_string(),
            returned: 2,
            overflowed: true,
        });
        assert_eq!(log.len(), 1);
        assert_eq!(log.entries()[0].returned, 2);
    }
}
