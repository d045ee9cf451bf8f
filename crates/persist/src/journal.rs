//! The journal: one handle tying WAL + checkpoints together. The live
//! service appends every record it applies through [`Journal::append`];
//! DML alone arrives through the [`ChangeSink`] the journal implements,
//! because one statement emits many change records.
//!
//! The journal keeps the **full logical record stream** (`history`) in
//! memory alongside the on-disk WAL. That is a deliberate trade-off: the
//! audited system itself is entirely in-memory (database, backlog, query
//! log), so the journal's copy adds a constant factor, and it lets a
//! checkpoint be assembled without re-reading and re-decoding segments.
//!
//! Every append arrives *after* the in-memory mutation has committed, so
//! it cannot veto it. A journal that hits an I/O error therefore
//! **wedges**: it stops appending, remembers the error, and surfaces it
//! through [`Journal::wedged`] / the service's stats — the in-memory
//! service keeps running, but durability is honestly reported as lost
//! from that point.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use audex_core::{AuditBatchState, QueryFootprint};
use audex_log::QueryId;
use audex_sql::{Ident, Timestamp};
use audex_storage::{ChangeRecord, ChangeSink, IoFaultState, Schema};
use audex_triage::TriageItem;

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
        let (checkpoint, mut notes, covers) = load_checkpoint(dir)?;

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
        let tail = tail_past(covers, scan.first_seq, scan.records)?;
        if let Some(t) = &scan.torn {
            notes.push(format!(
                "torn tail in {}: dropped {} trailing byte(s) past the last valid record",
                t.path.display(),
                t.dropped_bytes
            ));
        }

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

    /// Appends one logical record. Infallible by contract (records describe
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

/// Reads a data directory **without modifying it**: no torn-tail repair, no
/// segment drops. Used by read-only consumers (`audex audit --data-dir`).
pub fn read_store(dir: &Path) -> Result<Recovered> {
    let (checkpoint, mut notes, covers) = load_checkpoint(dir)?;
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
    let tail = tail_past(covers, scan.first_seq, scan.records)?;
    if let Some(t) = &scan.torn {
        notes.push(format!(
            "torn tail in {}: ignoring {} trailing byte(s) (read-only; run `audex recover` to \
             repair)",
            t.path.display(),
            t.dropped_bytes
        ));
    }
    Ok(Recovered { checkpoint, tail, torn: scan.torn, notes, next_seq: scan.next_seq })
}

/// The newest loadable checkpoint, the notes from loading it, and the
/// sequence number it covers. A checkpoint whose record prefix is not
/// exactly that long is corrupt.
fn load_checkpoint(dir: &Path) -> Result<(Option<CheckpointState>, Vec<String>, u64)> {
    let (checkpoint, notes) = checkpoint::load_latest(dir)?;
    let covers = checkpoint.as_ref().map_or(0, |c| c.covers_seq);
    if let Some(c) = checkpoint.as_ref().filter(|c| c.records.len() as u64 != covers) {
        return Err(PersistError::Corrupt {
            site: format!("checkpoint covers seq {covers} but stores {} records", c.records.len()),
        });
    }
    Ok((checkpoint, notes, covers))
}

/// The WAL tail past a checkpoint covering `covers` records, from a scan
/// whose records start at `first_seq`: records below `covers` duplicate the
/// checkpoint prefix (segments not yet pruned). A WAL starting past the
/// checkpoint leaves a gap, which is corruption.
fn tail_past(covers: u64, first_seq: u64, records: Vec<WalRecord>) -> Result<Vec<WalRecord>> {
    if first_seq > covers {
        return Err(PersistError::Corrupt {
            site: format!(
                "gap between checkpoint (covers seq {covers}) and oldest WAL segment (starts at \
                 seq {first_seq})"
            ),
        });
    }
    Ok(records.into_iter().skip((covers - first_seq) as usize).collect())
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

    /// Appends to `log` and journals that append, as the service does.
    fn log_append(log: &QueryLog, journal: &Journal, sql: &str, ts: Timestamp, who: &str) {
        let context = AccessContext::new(who, "nurse", "care");
        let (user, role, purpose) =
            (context.user.clone(), context.role.clone(), context.purpose.clone());
        log.record_text(sql, ts, context).unwrap();
        journal.append(WalRecord::LogAppend { ts, user, role, purpose, sql: sql.into() });
    }

    fn register(journal: &Journal, name: &str, ts: i64) {
        let (name, expr) = (name.to_string(), "AUDIT x FROM t".to_string());
        journal.append(WalRecord::Register { name, expr, now: Timestamp(ts) });
    }

    /// Drives a database through the change sink and a query log plus an
    /// audit (un)registration through [`Journal::append`].
    fn drive(db: &mut Database, log: &QueryLog, journal: &Arc<Journal>) {
        db.set_change_sink(Arc::clone(journal) as Arc<dyn ChangeSink>);
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
        log_append(log, journal, "SELECT disease FROM patients", Timestamp(6), "u");
        register(journal, "a1", 7);
        journal.append(WalRecord::Unregister { name: "a1".into() });
    }

    #[test]
    fn journaled_records_replay_to_equal_state() {
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
        log_append(&log, &journal, "SELECT name FROM patients", Timestamp(8), "u2");
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
        register(&journal, "a", 1);
        assert!(journal.wedged().is_none());
        register(&journal, "b", 2); // short write
        let wedge = journal.wedged().expect("journal wedged after injected short write");
        assert!(wedge.contains("short write"), "{wedge}");
        register(&journal, "c", 3); // dropped
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
    fn read_store_is_non_destructive() {
        let dir = tmp("readonly");
        let (journal, _) = Journal::open(&dir, opts()).unwrap();
        register(&journal, "a", 1);
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
            register(&journal, &format!("a{i}"), i);
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
