//! Query accounting: counters and an optional access log.
//!
//! The paper's key performance measure is the **number of queries issued**
//! through the restrictive web interface, not CPU time, because real web
//! databases enforce per-IP / per-API-key limits on search requests. The
//! [`QueryStats`] structure is therefore the primary output of every
//! experiment.

use std::fmt;

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
    pub(crate) entries: Vec<AccessLogEntry>,
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
    fn log_reads_its_entries() {
        assert!(AccessLog::default().is_empty());
        let log = AccessLog {
            entries: vec![AccessLogEntry {
                seq: 1,
                query: "SELECT * FROM D".to_string(),
                returned: 2,
                overflowed: true,
            }],
        };
        assert_eq!(log.len(), 1);
        assert_eq!(log.entries()[0].returned, 2);
    }
}
