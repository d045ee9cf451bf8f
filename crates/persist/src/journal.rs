//! The journal: one handle tying WAL + checkpoints together and plugging
//! into the live service as a change/log sink.
//!
//! The journal keeps the **full logical record stream** (`history`) in
//! memory alongside the on-disk WAL. That is a deliberate trade-off: the
//! audited system itself is entirely in-memory (database, backlog, query
//! log), so the journal's copy adds a constant factor, and it lets a
//! checkpoint be assembled without re-reading and re-decoding segments.
//!
//! Sink callbacks ([`ChangeSink`], [`LogSink`]) fire *after* the in-memory
//! mutation has committed, so they cannot veto it. A journal that hits an
//! I/O error therefore **wedges**: it stops appending, remembers the error,
//! and surfaces it through [`Journal::wedged`] / the service's stats — the
//! in-memory service keeps running, but durability is honestly reported as
//! lost from that point.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use audex_core::{AuditBatchState, BaseColumn, QueryFootprint};
use audex_log::{LogSink, LoggedQuery, QueryId};
use audex_sql::{Ident, Timestamp};
use audex_storage::{ChangeRecord, ChangeSink, IoFaultState, Schema};
use audex_triage::{RedactedScore, TriageItem};

use crate::checkpoint::{self, CheckpointState, DbSnapshot};
use crate::error::{PersistError, Result};
use crate::record::WalRecord;
use crate::wal::{self, TornTail, Wal, WalOptions};

/// What recovery found in a data directory.
#[derive(Debug)]
pub struct Recovered {
    /// The newest loadable checkpoint, if any.
    pub checkpoint: Option<CheckpointState>,
    /// WAL records past the checkpoint's coverage, in sequence order.
    pub tail: Vec<WalRecord>,
    /// The torn tail, if one was found (repaired when opened for writing).
    pub torn: Option<TornTail>,
    /// Human-readable recovery notes (skipped checkpoints, dropped
    /// segments).
    pub notes: Vec<String>,
    /// Sequence number the next append will get.
    pub next_seq: u64,
}

impl Recovered {
    /// Total records contributing to recovered state.
    pub fn total_records(&self) -> u64 {
        self.checkpoint.as_ref().map_or(0, |c| c.covers_seq) + self.tail.len() as u64
    }
}

/// The expensive derived state a checkpoint snapshots alongside the record
/// prefix (gathered by the service from its index and auditor).
#[derive(Debug, Clone)]
pub struct CheckpointDerived {
    /// Touch-index footprints.
    pub footprints: Vec<QueryFootprint>,
    /// Queries the index skipped under governor pressure.
    pub skipped: Vec<QueryId>,
    /// Per-audit batch states, in surviving-registration order.
    pub audit_states: Vec<AuditBatchState>,
    /// Service counters.
    pub counters: [u64; 5],
    /// Review-queue items, in ascending query-id order.
    pub triage: Vec<TriageItem>,
    /// The database snapshot. Every checkpoint this build writes carries
    /// one; the `Option` is frozen API (the `ledger/` package constructs
    /// this struct) and what a pre-snapshot checkpoint decodes to.
    pub db: Option<DbSnapshot>,
}

/// Journal health/throughput counters, surfaced in `stats`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalCounters {
    /// Records appended by this process.
    pub records_appended: u64,
    /// fsyncs issued.
    pub fsyncs: u64,
    /// Framing + payload bytes written.
    pub bytes_written: u64,
    /// Checkpoints written by this process.
    pub checkpoints_written: u64,
    /// `covers_seq` of the newest checkpoint (written or recovered).
    pub last_checkpoint_seq: u64,
    /// Records appended since the newest checkpoint ("checkpoint age").
    pub checkpoint_lag: u64,
    /// Live WAL segment count.
    pub segments: u64,
    /// Live WAL bytes across all segments.
    pub segment_bytes: u64,
    /// The wedge error, when durability has been lost.
    pub wedged: Option<String>,
}

/// Registry/tracer handles mirroring the journal's counters. All handles
/// default to no-ops; [`Journal::set_obs`] swaps in live ones. Counter
/// values are published as absolutes (`Counter::store`) after each
/// operation, so the registry always equals [`Journal::counters`] without
/// double-accounting.
#[derive(Debug, Default)]
struct JournalObs {
    tracer: Option<Arc<audex_obs::Tracer>>,
    appends: audex_obs::Counter,
    fsyncs: audex_obs::Counter,
    bytes: audex_obs::Counter,
    checkpoints: audex_obs::Counter,
}

impl JournalObs {
    fn span(&self, name: &str) -> audex_obs::Span {
        match &self.tracer {
            Some(t) => t.span(name),
            None => audex_obs::Span::noop(),
        }
    }
}

#[derive(Debug)]
struct Inner {
    wal: Wal,
    /// The full logical stream: `history[i]` has sequence number `i`.
    history: Vec<WalRecord>,
    checkpoints_written: u64,
    last_checkpoint_seq: u64,
    wedged: Option<String>,
    /// Under `--redact-log` the [`LogSink`] callback is suppressed: the
    /// service journals a [`WalRecord::LogAppendRedacted`] itself after
    /// scoring, so raw SQL never reaches the WAL.
    redacted: bool,
    obs: JournalObs,
}

impl Inner {
    fn publish_obs(&self) {
        let wc = self.wal.counters();
        self.obs.appends.store(wc.records_appended);
        self.obs.fsyncs.store(wc.fsyncs);
        self.obs.bytes.store(wc.bytes_written);
        self.obs.checkpoints.store(self.checkpoints_written);
    }
}

/// A shared, thread-safe handle to the durable store.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    inner: Mutex<Inner>,
}

impl Journal {
    /// Opens (or creates) the durable store in `dir`: loads the newest
    /// loadable checkpoint, scans the WAL, repairs a torn tail, reconciles
    /// the two, and returns the journal plus everything needed to rebuild
    /// service state.
    pub fn open(dir: &Path, options: WalOptions) -> Result<(Arc<Journal>, Recovered)> {
        std::fs::create_dir_all(dir).map_err(PersistError::io_at("create store directory", dir))?;
        let (checkpoint, mut notes) = checkpoint::load_latest(dir)?;
        let covers = checkpoint.as_ref().map_or(0, |c| c.covers_seq);
        if let Some(c) = &checkpoint {
            if c.records.len() as u64 != c.covers_seq {
                return Err(PersistError::Corrupt {
                    site: format!(
                        "checkpoint covers seq {} but stores {} records",
                        c.covers_seq,
                        c.records.len()
                    ),
                });
            }
        }

        // Peek at the WAL before opening for append: if it ends *before*
        // the checkpoint's coverage (a crash under fsync=never can lose
        // synced-into-checkpoint-but-not-into-WAL records), the surviving
        // segments are stale. The checkpoint holds those records, so drop
        // the segments and restart the log at the checkpoint boundary.
        let mut peek = wal::scan_dir(dir, covers)?;
        if peek.next_seq < covers {
            for seg in &peek.segments {
                std::fs::remove_file(&seg.path)
                    .map_err(PersistError::io_at("drop stale segment", &seg.path))?;
            }
            notes.push(format!(
                "WAL ends at seq {} but the checkpoint covers {covers}; dropped {} stale \
                 segment(s) and restarted the log at the checkpoint boundary",
                peek.next_seq,
                peek.segments.len()
            ));
            // The directory changed; rescan (now empty of stale segments).
            peek = wal::scan_dir(dir, covers)?;
        }

        // The appender reuses the peek scan — a second full decode of every
        // segment would double the recovery cost of large stores.
        let (wal, scan) = Wal::open_scanned(dir, options, covers, peek)?;
        if scan.first_seq > covers {
            return Err(PersistError::Corrupt {
                site: format!(
                    "gap between checkpoint (covers seq {covers}) and oldest WAL segment \
                     (starts at seq {})",
                    scan.first_seq
                ),
            });
        }
        if let Some(t) = &scan.torn {
            notes.push(format!(
                "torn tail in {}: dropped {} trailing byte(s) past the last valid record",
                t.path.display(),
                t.dropped_bytes
            ));
        }

        // Records below `covers` duplicate the checkpoint prefix (segments
        // not yet pruned); the tail is everything at or past it.
        let skip = (covers - scan.first_seq) as usize;
        let tail: Vec<WalRecord> = scan.records.into_iter().skip(skip).collect();

        let mut history = checkpoint.as_ref().map_or_else(Vec::new, |c| c.records.clone());
        history.extend(tail.iter().cloned());
        debug_assert_eq!(history.len() as u64, scan.next_seq);

        let recovered =
            Recovered { checkpoint, tail, torn: scan.torn, notes, next_seq: scan.next_seq };
        let journal = Arc::new(Journal {
            dir: dir.to_path_buf(),
            inner: Mutex::new(Inner {
                wal,
                history,
                checkpoints_written: 0,
                last_checkpoint_seq: covers,
                wedged: None,
                redacted: false,
                obs: JournalObs::default(),
            }),
        });
        Ok((journal, recovered))
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Arms deterministic I/O fault injection on the underlying WAL.
    pub fn set_io_faults(&self, faults: Arc<IoFaultState>) {
        self.lock().wal.set_io_faults(faults);
    }

    /// Mirrors the journal's counters into `registry` (as
    /// `audex_wal_appends_total`, `audex_wal_fsyncs_total`,
    /// `audex_wal_bytes_written_total`, `audex_checkpoints_total`) and
    /// records `wal-append` / `wal-fsync` / `checkpoint` spans on `tracer`.
    pub fn set_obs(&self, registry: &audex_obs::Registry, tracer: Arc<audex_obs::Tracer>) {
        let mut g = self.lock();
        g.obs = JournalObs {
            tracer: Some(tracer),
            appends: registry.counter(
                "audex_wal_appends_total",
                "Records appended to the write-ahead log.",
                &[],
            ),
            fsyncs: registry.counter(
                "audex_wal_fsyncs_total",
                "fsyncs issued by the write-ahead log.",
                &[],
            ),
            bytes: registry.counter(
                "audex_wal_bytes_written_total",
                "Framing plus payload bytes written to the write-ahead log.",
                &[],
            ),
            checkpoints: registry.counter(
                "audex_checkpoints_total",
                "Checkpoints written by this process.",
                &[],
            ),
        };
        g.publish_obs();
    }

    /// Appends one logical record. Infallible by contract (sinks observe
    /// mutations that already happened): on I/O error the journal wedges —
    /// it stops appending and reports the error via [`Journal::wedged`].
    pub fn append(&self, rec: WalRecord) {
        let mut g = self.lock();
        if g.wedged.is_some() {
            return;
        }
        let span = g.obs.span("wal-append");
        match g.wal.append(&rec) {
            Ok(_) => g.history.push(rec),
            Err(e) => {
                span.mark_truncated();
                g.wedged = Some(e.to_string());
            }
        }
        drop(span);
        g.publish_obs();
    }

    /// Journals an audit registration.
    pub fn record_register(&self, name: &str, expr: &str, now: Timestamp) {
        self.append(WalRecord::Register { name: name.to_string(), expr: expr.to_string(), now });
    }

    /// Journals an audit unregistration.
    pub fn record_unregister(&self, name: &str) {
        self.append(WalRecord::Unregister { name: name.to_string() });
    }

    /// Switches raw-SQL suppression on or off. While on, the [`LogSink`]
    /// callback journals nothing — the service must journal the redacted
    /// form via [`Journal::record_log_redacted`] instead.
    pub fn set_redacted(&self, redacted: bool) {
        self.lock().redacted = redacted;
    }

    /// Journals a review-queue acknowledgement.
    pub fn record_review_ack(&self, query: QueryId) {
        self.append(WalRecord::ReviewAck { query });
    }

    /// Journals a review-queue dismissal.
    pub fn record_review_dismiss(&self, query: QueryId) {
        self.append(WalRecord::ReviewDismiss { query });
    }

    /// Journals a template-wide bulk acknowledgement as one record.
    pub fn record_review_ack_bulk(&self, queries: Vec<QueryId>) {
        self.append(WalRecord::ReviewAckBulk { queries });
    }

    /// Journals a triage sensitivity weight.
    pub fn record_weight(&self, table: Ident, column: Option<Ident>, weight: f64) {
        self.append(WalRecord::SetWeight { table, column, weight });
    }

    /// Journals the redacted form of a log append: structural metadata, a
    /// hash of the text, and the redacted scores — never the raw SQL.
    #[allow(clippy::too_many_arguments)]
    pub fn record_log_redacted(
        &self,
        entry: &LoggedQuery,
        sql_hash: u64,
        tables: Vec<Ident>,
        accessed: Vec<BaseColumn>,
        scores: Vec<RedactedScore>,
    ) {
        self.append(WalRecord::LogAppendRedacted {
            ts: entry.executed_at,
            user: entry.context.user.clone(),
            role: entry.context.role.clone(),
            purpose: entry.context.purpose.clone(),
            sql_hash,
            tables,
            accessed,
            scores,
        });
    }

    /// Flushes pending appends to stable storage.
    pub fn sync(&self) -> Result<()> {
        let mut g = self.lock();
        let span = g.obs.span("wal-fsync");
        let result = g.wal.sync();
        if result.is_err() {
            span.mark_truncated();
        }
        drop(span);
        g.publish_obs();
        result
    }

    /// The wedge error, if durability has been lost.
    pub fn wedged(&self) -> Option<String> {
        self.lock().wedged.clone()
    }

    /// Sequence number the next append will get (== logical record count).
    pub fn next_seq(&self) -> u64 {
        self.lock().wal.next_seq()
    }

    /// Records appended since the newest checkpoint.
    pub fn checkpoint_lag(&self) -> u64 {
        let g = self.lock();
        g.wal.next_seq().saturating_sub(g.last_checkpoint_seq)
    }

    /// A consistent snapshot of the health/throughput counters.
    pub fn counters(&self) -> JournalCounters {
        let g = self.lock();
        let wc = g.wal.counters();
        let (segments, segment_bytes) = g.wal.segment_stats();
        JournalCounters {
            records_appended: wc.records_appended,
            fsyncs: wc.fsyncs,
            bytes_written: wc.bytes_written,
            checkpoints_written: g.checkpoints_written,
            last_checkpoint_seq: g.last_checkpoint_seq,
            checkpoint_lag: g.wal.next_seq().saturating_sub(g.last_checkpoint_seq),
            segments,
            segment_bytes,
            wedged: g.wedged.clone(),
        }
    }

    /// Writes a checkpoint covering every record journaled so far, prunes
    /// old checkpoints and fully-covered segments, and returns its path.
    /// `derived` is the service's expensive state over exactly that prefix
    /// (the caller must hold the service quiescent across gather + write,
    /// which the single-threaded request loop gives for free).
    pub fn write_checkpoint(&self, derived: CheckpointDerived) -> Result<PathBuf> {
        let mut g = self.lock();
        if let Some(e) = &g.wedged {
            return Err(PersistError::Io {
                context: "checkpoint refused: journal is wedged".into(),
                source: std::io::Error::other(e.clone()),
            });
        }
        let span = g.obs.span("checkpoint");
        let result = Self::write_checkpoint_locked(&self.dir, &mut g, derived);
        if result.is_err() {
            span.mark_truncated();
        }
        drop(span);
        g.publish_obs();
        result
    }

    fn write_checkpoint_locked(
        dir: &Path,
        g: &mut Inner,
        derived: CheckpointDerived,
    ) -> Result<PathBuf> {
        g.wal.sync()?;
        let state = CheckpointState {
            covers_seq: g.history.len() as u64,
            records: g.history.clone(),
            footprints: derived.footprints,
            skipped: derived.skipped,
            audit_states: derived.audit_states,
            counters: derived.counters,
            triage: derived.triage,
            db: derived.db,
        };
        let path = state.write(dir)?;
        g.checkpoints_written += 1;
        g.last_checkpoint_seq = state.covers_seq;
        checkpoint::prune_old(dir)?;
        g.wal.prune_through(state.covers_seq)?;
        Ok(path)
    }
}

impl ChangeSink for Journal {
    fn on_create_table(&self, name: &Ident, schema: &Schema, ts: Timestamp) {
        self.append(WalRecord::CreateTable { name: name.clone(), schema: schema.clone(), ts });
    }

    fn on_change(&self, table: &Ident, rec: &ChangeRecord) {
        self.append(WalRecord::Change { table: table.clone(), rec: rec.clone() });
    }
}

impl LogSink for Journal {
    fn on_append(&self, entry: &LoggedQuery) {
        if self.lock().redacted {
            return;
        }
        self.append(WalRecord::LogAppend {
            ts: entry.executed_at,
            user: entry.context.user.clone(),
            role: entry.context.role.clone(),
            purpose: entry.context.purpose.clone(),
            sql: entry.text.clone(),
        });
    }
}

/// Reads a data directory **without modifying it**: no torn-tail repair, no
/// segment drops. Used by read-only consumers (`audex audit --data-dir`).
pub fn read_store(dir: &Path) -> Result<Recovered> {
    let (checkpoint, mut notes) = checkpoint::load_latest(dir)?;
    let covers = checkpoint.as_ref().map_or(0, |c| c.covers_seq);
    if let Some(c) = &checkpoint {
        if c.records.len() as u64 != c.covers_seq {
            return Err(PersistError::Corrupt {
                site: format!(
                    "checkpoint covers seq {} but stores {} records",
                    c.covers_seq,
                    c.records.len()
                ),
            });
        }
    }
    let scan = wal::scan_dir(dir, covers)?;
    if scan.next_seq < covers {
        notes.push(format!(
            "WAL ends at seq {} but the checkpoint covers {covers}; reading state from the \
             checkpoint alone",
            scan.next_seq
        ));
        return Ok(Recovered {
            checkpoint,
            tail: Vec::new(),
            torn: scan.torn,
            notes,
            next_seq: covers,
        });
    }
    if scan.first_seq > covers {
        return Err(PersistError::Corrupt {
            site: format!(
                "gap between checkpoint (covers seq {covers}) and oldest WAL segment (starts at \
                 seq {})",
                scan.first_seq
            ),
        });
    }
    if let Some(t) = &scan.torn {
        notes.push(format!(
            "torn tail in {}: ignoring {} trailing byte(s) (read-only; run `audex recover` to \
             repair)",
            t.path.display(),
            t.dropped_bytes
        ));
    }
    let skip = (covers - scan.first_seq) as usize;
    let tail: Vec<WalRecord> = scan.records.into_iter().skip(skip).collect();
    Ok(Recovered { checkpoint, tail, torn: scan.torn, notes, next_seq: scan.next_seq })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::FsyncPolicy;
    use audex_log::{AccessContext, QueryLog};
    use audex_sql::ast::TypeName;
    use audex_storage::Database;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("audex-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn opts() -> WalOptions {
        WalOptions { fsync: FsyncPolicy::Always, segment_max_bytes: 4 * 1024 * 1024 }
    }

    /// Replays journaled records into a fresh database + log, as the
    /// service's recovery path will.
    fn replay(records: &[WalRecord]) -> (Database, QueryLog) {
        let mut db = Database::new();
        let log = QueryLog::new();
        for rec in records {
            match rec {
                WalRecord::CreateTable { name, schema, ts } => {
                    db.create_table(name.clone(), schema.clone(), *ts).unwrap();
                }
                WalRecord::Change { table, rec } => {
                    db.apply_change(table, rec).unwrap();
                }
                WalRecord::LogAppend { ts, user, role, purpose, sql } => {
                    log.record_text(
                        sql,
                        *ts,
                        AccessContext::new(user.clone(), role.clone(), purpose.clone()),
                    )
                    .unwrap();
                }
                WalRecord::Register { .. }
                | WalRecord::Unregister { .. }
                | WalRecord::ReviewAck { .. }
                | WalRecord::ReviewDismiss { .. }
                | WalRecord::ReviewAckBulk { .. }
                | WalRecord::LogAppendRedacted { .. }
                | WalRecord::SetWeight { .. } => {}
            }
        }
        (db, log)
    }

    fn exec(db: &mut Database, sql: &str, ts: Timestamp) {
        let stmt = audex_sql::parse_statement(sql).unwrap();
        db.execute(&stmt, ts).unwrap();
    }

    /// Drives a database + query log through the journal sinks.
    fn drive(db: &mut Database, log: &QueryLog, journal: &Arc<Journal>) {
        db.set_change_sink(Arc::clone(journal) as Arc<dyn ChangeSink>);
        log.set_sink(Arc::clone(journal) as Arc<dyn LogSink>);
        db.create_table(
            Ident::new("patients"),
            Schema::new(vec![
                (Ident::new("name"), TypeName::Text),
                (Ident::new("disease"), TypeName::Text),
            ])
            .unwrap(),
            Timestamp(1),
        )
        .unwrap();
        exec(db, "INSERT INTO patients VALUES ('alice', 'flu')", Timestamp(2));
        exec(db, "INSERT INTO patients VALUES ('bob', 'cold')", Timestamp(3));
        exec(db, "UPDATE patients SET disease = 'measles' WHERE name = 'bob'", Timestamp(4));
        exec(db, "DELETE FROM patients WHERE name = 'alice'", Timestamp(5));
        log.record_text(
            "SELECT disease FROM patients",
            Timestamp(6),
            AccessContext::new("u", "nurse", "care"),
        )
        .unwrap();
        journal.record_register("a1", "AUDIT disease FROM patients", Timestamp(7));
        journal.record_unregister("a1");
    }

    #[test]
    fn sinks_journal_everything_and_replay_rebuilds_equal_state() {
        let dir = tmp("sinks");
        let (journal, rec0) = Journal::open(&dir, opts()).unwrap();
        assert_eq!(rec0.total_records(), 0);

        let mut db = Database::new();
        let log = QueryLog::new();
        drive(&mut db, &log, &journal);
        assert!(journal.wedged().is_none());
        let appended = journal.counters().records_appended;
        // 1 create + 4 changes + 1 log append + register + unregister.
        assert_eq!(appended, 8);
        drop(journal);

        let (_, recovered) = Journal::open(&dir, opts()).unwrap();
        assert_eq!(recovered.tail.len() as u64, appended);
        let (db2, log2) = replay(&recovered.tail);
        assert_eq!(db, db2, "replayed database must equal the original");
        assert_eq!(log.snapshot(), log2.snapshot());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_prunes_and_recovery_stitches_prefix_plus_tail() {
        let dir = tmp("ckpt");
        let (journal, _) = Journal::open(&dir, opts()).unwrap();
        let mut db = Database::new();
        let log = QueryLog::new();
        drive(&mut db, &log, &journal);

        let derived = CheckpointDerived {
            footprints: vec![],
            skipped: vec![],
            audit_states: vec![],
            counters: [1, 4, 0, 1, 1],
            triage: vec![],
            db: db.mvcc_stores().map(|stores| DbSnapshot {
                last_ts: db.last_ts(),
                stores: stores.into_iter().cloned().collect(),
            }),
        };
        journal.write_checkpoint(derived.clone()).unwrap();
        assert_eq!(journal.checkpoint_lag(), 0);

        // Post-checkpoint activity forms the tail.
        log.record_text(
            "SELECT name FROM patients",
            Timestamp(8),
            AccessContext::new("u2", "admin", "ops"),
        )
        .unwrap();
        assert_eq!(journal.checkpoint_lag(), 1);
        let c = journal.counters();
        assert_eq!(c.checkpoints_written, 1);
        drop(journal);

        let (_, recovered) = Journal::open(&dir, opts()).unwrap();
        let ck = recovered.checkpoint.as_ref().unwrap();
        assert_eq!(ck.counters, [1, 4, 0, 1, 1]);
        assert_eq!(recovered.tail.len(), 1);
        let mut all = ck.records.clone();
        all.extend(recovered.tail.iter().cloned());
        let (db2, log2) = replay(&all);
        assert_eq!(db, db2);
        assert_eq!(log.snapshot(), log2.snapshot());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wedged_journal_stops_appending_and_reports() {
        let dir = tmp("wedge");
        let (journal, _) = Journal::open(&dir, opts()).unwrap();
        journal.set_io_faults(Arc::new(IoFaultState::new(
            audex_storage::IoFaultPlan::new().short_write(2, 3),
        )));
        journal.record_register("a", "AUDIT x FROM t", Timestamp(1));
        assert!(journal.wedged().is_none());
        journal.record_register("b", "AUDIT y FROM t", Timestamp(2)); // short write
        let wedge = journal.wedged().expect("journal wedged after injected short write");
        assert!(wedge.contains("short write"), "{wedge}");
        journal.record_register("c", "AUDIT z FROM t", Timestamp(3)); // dropped
        assert_eq!(journal.counters().records_appended, 1);
        assert!(journal
            .write_checkpoint(CheckpointDerived {
                footprints: vec![],
                skipped: vec![],
                audit_states: vec![],
                counters: [0; 5],
                triage: vec![],
                db: None,
            })
            .is_err());
        drop(journal);

        // Recovery sees the one durable record and repairs the torn frame.
        let (_, recovered) = Journal::open(&dir, opts()).unwrap();
        assert_eq!(recovered.tail.len(), 1);
        assert!(recovered.torn.is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn redacted_mode_keeps_raw_sql_out_of_the_wal() {
        let dir = tmp("redact");
        let (journal, _) = Journal::open(&dir, opts()).unwrap();
        journal.set_redacted(true);
        let log = QueryLog::new();
        log.set_sink(Arc::clone(&journal) as Arc<dyn LogSink>);
        let sql = "SELECT disease FROM patients WHERE name = 'alice'";
        log.record_text(sql, Timestamp(1), AccessContext::new("u", "nurse", "care")).unwrap();
        // The sink journaled nothing; the service-side redacted record does.
        assert_eq!(journal.counters().records_appended, 0);
        let entry = log.snapshot().pop().unwrap();
        journal.record_log_redacted(
            &entry,
            audex_triage::fnv1a64(sql.as_bytes()),
            vec![Ident::new("patients")],
            vec![(Ident::new("patients"), Ident::new("disease"))],
            vec![],
        );
        journal.sync().unwrap();
        assert_eq!(journal.counters().records_appended, 1);
        drop(journal);

        // Nothing on disk contains the query text.
        for f in std::fs::read_dir(&dir).unwrap() {
            let bytes = std::fs::read(f.unwrap().path()).unwrap();
            let hay = String::from_utf8_lossy(&bytes);
            assert!(!hay.contains("SELECT"), "raw SQL leaked into the store");
            assert!(!hay.contains("alice"), "literal leaked into the store");
        }
        let (_, recovered) = Journal::open(&dir, opts()).unwrap();
        match &recovered.tail[..] {
            [WalRecord::LogAppendRedacted { sql_hash, tables, .. }] => {
                assert_eq!(*sql_hash, audex_triage::fnv1a64(sql.as_bytes()));
                assert_eq!(tables, &vec![Ident::new("patients")]);
            }
            other => panic!("expected one redacted append, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_store_is_non_destructive() {
        let dir = tmp("readonly");
        let (journal, _) = Journal::open(&dir, opts()).unwrap();
        journal.record_register("a", "AUDIT x FROM t", Timestamp(1));
        journal.sync().unwrap();
        drop(journal);
        // Tear the tail by hand.
        let seg = wal::scan_dir(&dir, 0).unwrap().segments[0].path.clone();
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes.extend_from_slice(&[1, 2, 3]);
        std::fs::write(&seg, &bytes).unwrap();

        let r1 = read_store(&dir).unwrap();
        assert_eq!(r1.tail.len(), 1);
        assert!(r1.torn.is_some());
        assert!(!r1.torn.as_ref().unwrap().repaired);
        // The file is untouched: a second read sees the same torn tail.
        assert_eq!(std::fs::read(&seg).unwrap(), bytes);
        let r2 = read_store(&dir).unwrap();
        assert!(r2.torn.is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gap_between_checkpoint_and_wal_is_corrupt() {
        let dir = tmp("gap");
        let (journal, _) = Journal::open(&dir, opts()).unwrap();
        for i in 0..3 {
            journal.record_register(&format!("a{i}"), "AUDIT x FROM t", Timestamp(i));
        }
        drop(journal);
        // Fabricate a WAL whose oldest segment claims to start past any
        // checkpoint coverage (here: none, covers 0) by renaming it.
        let seg = wal::scan_dir(&dir, 0).unwrap().segments[0].path.clone();
        let renamed = dir.join("wal-00000000000000000007.log");
        std::fs::rename(&seg, &renamed).unwrap();
        let err = Journal::open(&dir, opts()).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt { .. }), "{err:?}");
        assert!(err.to_string().contains("gap"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
