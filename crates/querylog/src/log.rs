//! The append-only query log.

use audex_sql::{ParseError, Timestamp};
use std::fmt;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::entry::{AccessContext, LoggedQuery, QueryId};

/// Why a validated append was refused (see [`QueryLog::append_validated`]).
#[derive(Debug)]
pub enum AppendError {
    /// The SQL text is not a well-formed SELECT.
    Parse(ParseError),
    /// The entry's timestamp precedes the newest logged entry — a live
    /// stream must arrive in execution order for ids to stay meaningful.
    OutOfOrder {
        /// Timestamp of the newest entry already in the log.
        last: Timestamp,
        /// The rejected entry's timestamp.
        offered: Timestamp,
    },
    /// A pre-built entry does not carry the next id — the log moved
    /// between numbering the entry and appending it.
    IdMismatch {
        /// The id the next entry must carry (`len + 1`).
        expected: QueryId,
        /// The rejected entry's id.
        offered: QueryId,
    },
}

impl fmt::Display for AppendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppendError::Parse(e) => write!(f, "query does not parse: {e}"),
            AppendError::OutOfOrder { last, offered } => write!(
                f,
                "out-of-order log append: offered {offered}, but the log is already at {last} \
                 (timestamps must be non-decreasing)"
            ),
            AppendError::IdMismatch { expected, offered } => {
                write!(f, "log append carries id {offered}, but the next id is {expected}")
            }
        }
    }
}

impl std::error::Error for AppendError {}

impl From<ParseError> for AppendError {
    fn from(e: ParseError) -> Self {
        AppendError::Parse(e)
    }
}

/// An append-only, thread-safe log of executed queries with their
/// annotations — the "User Accesses Log" the paper audits.
#[derive(Default)]
pub struct QueryLog {
    inner: RwLock<Vec<Arc<LoggedQuery>>>,
    /// Telemetry mirror of the append count (no-op unless wired via
    /// [`QueryLog::set_obs`]); invisible to everything else.
    appends: audex_obs::Counter,
}

impl fmt::Debug for QueryLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryLog").field("inner", &self.read()).finish()
    }
}

impl QueryLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts every subsequent successful append into `registry` as
    /// `audex_querylog_appends_total`.
    pub fn set_obs(&mut self, registry: &audex_obs::Registry) {
        self.appends = registry.counter(
            "audex_querylog_appends_total",
            "Queries appended to the user-accesses log.",
            &[],
        );
    }

    // The log's invariants (dense ids, append-only vector) hold even when a
    // writer panics mid-push, so lock poisoning is safely ignored.
    fn read(&self) -> RwLockReadGuard<'_, Vec<Arc<LoggedQuery>>> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, Vec<Arc<LoggedQuery>>> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Parses and appends query text; returns its id.
    pub fn record_text(
        &self,
        sql: &str,
        executed_at: Timestamp,
        context: AccessContext,
    ) -> Result<QueryId, ParseError> {
        let query = audex_sql::parse_query(sql)?;
        Ok(self.push_next(|id| LoggedQuery::new(id, query, sql.to_string(), executed_at, context)))
    }

    /// Parses and appends query text like [`QueryLog::record_text`], but
    /// under the same streaming discipline as
    /// [`QueryLog::append_validated`] — one shared check, one write lock.
    pub fn record_text_validated(
        &self,
        sql: &str,
        executed_at: Timestamp,
        context: AccessContext,
    ) -> Result<QueryId, AppendError> {
        let query = audex_sql::parse_query(sql)?;
        let mut guard = self.write();
        let id = QueryId(guard.len() as u64 + 1);
        let entry = LoggedQuery::new(id, query, sql.to_string(), executed_at, context);
        self.append_checked(&mut guard, Arc::new(entry))
    }

    /// Appends an entry the caller already parsed and numbered — the live
    /// ingest path scores the very `Arc` it then logs, so the text is
    /// parsed once. Enforces the streaming discipline: the entry's
    /// timestamp must not precede the newest entry already logged, and its
    /// id must be the next one (`len + 1`). Validation and append happen
    /// under one write lock, so concurrent appenders cannot interleave a
    /// rewind past the check.
    pub fn append_validated(&self, entry: Arc<LoggedQuery>) -> Result<QueryId, AppendError> {
        self.append_checked(&mut self.write(), entry)
    }

    fn append_checked(
        &self,
        guard: &mut Vec<Arc<LoggedQuery>>,
        entry: Arc<LoggedQuery>,
    ) -> Result<QueryId, AppendError> {
        if let Some(last) = guard.last() {
            if entry.executed_at < last.executed_at {
                return Err(AppendError::OutOfOrder {
                    last: last.executed_at,
                    offered: entry.executed_at,
                });
            }
        }
        let expected = QueryId(guard.len() as u64 + 1);
        if entry.id != expected {
            return Err(AppendError::IdMismatch { expected, offered: entry.id });
        }
        self.appends.inc();
        guard.push(entry);
        Ok(expected)
    }

    /// Appends text that an earlier run already validated — a journaled
    /// append being replayed during recovery. No parse, no ordering check:
    /// the journal replays in exactly the order the live run accepted, and
    /// the AST materializes lazily on first audit use, keeping recovery
    /// time independent of per-entry SQL complexity.
    pub fn record_prevalidated(
        &self,
        sql: &str,
        executed_at: Timestamp,
        context: AccessContext,
    ) -> QueryId {
        self.push_next(|id| LoggedQuery::prevalidated(id, sql.to_string(), executed_at, context))
    }

    /// Appends, unchecked, the entry `build` makes for the next id.
    fn push_next(&self, build: impl FnOnce(QueryId) -> LoggedQuery) -> QueryId {
        let mut guard = self.write();
        let id = QueryId(guard.len() as u64 + 1);
        guard.push(Arc::new(build(id)));
        self.appends.inc();
        id
    }

    /// Number of logged queries.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// True when nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// A consistent snapshot of all entries, oldest first.
    pub fn snapshot(&self) -> Vec<Arc<LoggedQuery>> {
        self.read().clone()
    }

    /// The newest entry's execution timestamp. O(1) — the streaming
    /// service's per-ingest ordering check must not clone the whole log
    /// (that would make sustained ingest quadratic in log length).
    pub fn last_ts(&self) -> Option<Timestamp> {
        self.read().last().map(|e| e.executed_at)
    }

    /// Looks up a single entry.
    pub fn get(&self, id: QueryId) -> Option<Arc<LoggedQuery>> {
        let guard = self.read();
        let idx = id.0.checked_sub(1)? as usize;
        guard.get(idx).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> AccessContext {
        AccessContext::new("u1", "nurse", "treatment")
    }

    #[test]
    fn ids_are_sequential() {
        let log = QueryLog::new();
        let a = log.record_text("SELECT a FROM t", Timestamp(1), ctx()).unwrap();
        let b = log.record_text("SELECT b FROM t", Timestamp(2), ctx()).unwrap();
        assert_eq!(a, QueryId(1));
        assert_eq!(b, QueryId(2));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn get_by_id() {
        let log = QueryLog::new();
        let id = log.record_text("SELECT a FROM t", Timestamp(1), ctx()).unwrap();
        assert_eq!(log.get(id).unwrap().text, "SELECT a FROM t");
        assert!(log.get(QueryId(99)).is_none());
        assert!(log.get(QueryId(0)).is_none());
    }

    #[test]
    fn record_text_rejects_bad_sql() {
        let log = QueryLog::new();
        assert!(log.record_text("DELETE FROM t", Timestamp(1), ctx()).is_err());
        assert!(log.record_text("SELECT FROM", Timestamp(1), ctx()).is_err());
        assert!(log.is_empty());
    }

    #[test]
    fn validated_append_enforces_order() {
        let log = QueryLog::new();
        log.record_text_validated("SELECT a FROM t", Timestamp(10), ctx()).unwrap();
        // Equal timestamps are fine (same-instant batch).
        log.record_text_validated("SELECT b FROM t", Timestamp(10), ctx()).unwrap();
        let err = log.record_text_validated("SELECT c FROM t", Timestamp(9), ctx()).unwrap_err();
        assert!(matches!(
            err,
            AppendError::OutOfOrder { last: Timestamp(10), offered: Timestamp(9) }
        ));
        assert!(err.to_string().contains("out-of-order"), "{err}");
        // Bad SQL is rejected before touching the log.
        assert!(matches!(
            log.record_text_validated("DELETE FROM t", Timestamp(11), ctx()),
            Err(AppendError::Parse(_))
        ));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn append_validated_logs_the_callers_entry_under_the_same_checks() {
        let entry = |id: u64, ts: i64| {
            let sql = "SELECT a FROM t";
            let query = audex_sql::parse_query(sql).unwrap();
            Arc::new(LoggedQuery::new(QueryId(id), query, sql.to_string(), Timestamp(ts), ctx()))
        };
        let log = QueryLog::new();
        let first = entry(1, 10);
        assert_eq!(log.append_validated(Arc::clone(&first)).unwrap(), QueryId(1));
        assert!(Arc::ptr_eq(&log.get(QueryId(1)).unwrap(), &first), "no second entry is built");
        // Interchangeable with the text path: same ids, same ordering rule.
        assert_eq!(
            log.record_text_validated("SELECT b FROM t", Timestamp(10), ctx()).unwrap().0,
            2
        );
        assert!(matches!(
            log.append_validated(entry(3, 9)),
            Err(AppendError::OutOfOrder { last: Timestamp(10), offered: Timestamp(9) })
        ));
        let err = log.append_validated(entry(7, 11)).unwrap_err();
        assert!(matches!(
            err,
            AppendError::IdMismatch { expected: QueryId(3), offered: QueryId(7) }
        ));
        assert!(err.to_string().contains("next id is q3"), "{err}");
        assert_eq!(log.append_validated(entry(3, 11)).unwrap(), QueryId(3));
        // Exactly the accepted appends, in id order.
        let ids: Vec<QueryId> = log.snapshot().iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![QueryId(1), QueryId(2), QueryId(3)]);
    }

    #[test]
    fn concurrent_appends() {
        let log = Arc::new(QueryLog::new());
        let mut handles = Vec::new();
        for i in 0..8 {
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                for j in 0..50 {
                    log.record_text(
                        &format!("SELECT c{j} FROM t{i}"),
                        Timestamp(i * 100 + j),
                        AccessContext::new(format!("u{i}"), "r", "p"),
                    )
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.len(), 400);
        // Ids are dense 1..=400.
        let mut ids: Vec<u64> = log.snapshot().iter().map(|e| e.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=400).collect::<Vec<_>>());
    }
}
