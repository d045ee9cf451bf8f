//! Checkpoint snapshots.
//!
//! A checkpoint makes recovery cheap by storing two things:
//!
//! 1. the **logical WAL prefix** it covers (`records`, in original sequence
//!    order) — replaying it rebuilds the database, the query log, and the
//!    registered-audit list without touching pruned segments; and
//! 2. the **expensive derived state** over that prefix — touch-index
//!    footprints, per-audit batch states, service counters — so recovery
//!    skips re-executing every logged query's footprint (the dominant cost).
//!
//! On disk a checkpoint is `ckpt-<covers_seq>.ax`: an 8-byte magic, the
//! encoded body, and a trailing CRC-32 over the body. It is written to a
//! temp file, fsynced, and renamed into place, so a crash mid-checkpoint
//! leaves the previous one intact. The newest two are kept; loading falls
//! back to the older one if the newest fails its CRC.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use audex_core::{AuditBatchState, QueryFootprint};
use audex_log::QueryId;
use audex_sql::Timestamp;
use audex_storage::VersionStore;
use audex_triage::TriageItem;

use crate::codec::{self, crc32, Dec, DecodeError, Enc};
use crate::error::{PersistError, Result};
use crate::record::WalRecord;
use crate::wal::sync_dir;

/// Checkpoint header: magic + format version.
const CHECKPOINT_MAGIC: &[u8; 8] = b"AXCKP\x01\0\0";

/// How many checkpoint files to keep on disk (newest-first fallback).
pub const CHECKPOINTS_KEPT: usize = 2;

/// A wholesale snapshot of the MVCC database at checkpoint time: the
/// version stores plus the clock. Recovery restores it directly
/// (`Database::from_mvcc_stores`) instead of re-applying the covered
/// prefix's DML record by record, so recovery cost stops scaling with the
/// change history. Absent in checkpoints written before this field existed
/// or by a daemon running the since-removed replay engine — those fall
/// back to record-by-record rebuild.
#[derive(Debug, Clone, PartialEq)]
pub struct DbSnapshot {
    /// The database clock (latest committed instant) at checkpoint time.
    pub last_ts: Timestamp,
    /// One version store per table, sorted by table name.
    pub stores: Vec<VersionStore>,
}

/// A materialized snapshot of service state after `covers_seq` records.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// Records with seq < `covers_seq` are covered by this checkpoint.
    pub covers_seq: u64,
    /// The covered logical prefix, in original sequence order.
    pub records: Vec<WalRecord>,
    /// Touch-index footprints over the covered prefix.
    pub footprints: Vec<QueryFootprint>,
    /// Queries the index skipped under resource-governor pressure.
    pub skipped: Vec<QueryId>,
    /// Per-audit batch states, in surviving-registration order.
    pub audit_states: Vec<AuditBatchState>,
    /// Service counters, in the service's canonical order:
    /// (queries_ingested, queries_rejected, dml_statements,
    /// governor_trips, events_emitted).
    pub counters: [u64; 5],
    /// Review-queue items (with their ack/dismiss states), in ascending
    /// query-id order.
    pub triage: Vec<TriageItem>,
    /// The database snapshot; `None` only in checkpoints older stores
    /// hold (see [`DbSnapshot`]).
    pub db: Option<DbSnapshot>,
}

fn checkpoint_name(covers_seq: u64) -> String {
    format!("ckpt-{covers_seq:020}.ax")
}

fn parse_checkpoint_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("ckpt-")?.strip_suffix(".ax")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

impl CheckpointState {
    fn encode_body(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.covers_seq);
        e.u32(self.records.len() as u32);
        for rec in &self.records {
            let payload = rec.encode();
            e.u32(payload.len() as u32);
            e.bytes(&payload);
        }
        e.u32(self.footprints.len() as u32);
        for fp in &self.footprints {
            codec::put_footprint(&mut e, fp);
        }
        e.u32(self.skipped.len() as u32);
        for id in &self.skipped {
            e.u64(id.0);
        }
        e.u32(self.audit_states.len() as u32);
        for st in &self.audit_states {
            codec::put_audit_state(&mut e, st);
        }
        for c in self.counters {
            e.u64(c);
        }
        e.u32(self.triage.len() as u32);
        for it in &self.triage {
            codec::put_triage_item(&mut e, it);
        }
        match &self.db {
            Some(snap) => {
                e.bool(true);
                e.i64(snap.last_ts.0);
                e.u32(snap.stores.len() as u32);
                for s in &snap.stores {
                    codec::put_version_store(&mut e, s);
                }
            }
            None => e.bool(false),
        }
        e.into_bytes()
    }

    fn decode_body(bytes: &[u8]) -> std::result::Result<CheckpointState, DecodeError> {
        let mut d = Dec::new(bytes);
        let covers_seq = d.u64()?;
        let n = d.seq_len()?;
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            let len = d.seq_len()?;
            records.push(WalRecord::decode(d.bytes(len)?)?);
        }
        let n = d.seq_len()?;
        let mut footprints = Vec::with_capacity(n);
        for _ in 0..n {
            footprints.push(codec::get_footprint(&mut d)?);
        }
        let n = d.seq_len()?;
        let mut skipped = Vec::with_capacity(n);
        for _ in 0..n {
            skipped.push(QueryId(d.u64()?));
        }
        let n = d.seq_len()?;
        let mut audit_states = Vec::with_capacity(n);
        for _ in 0..n {
            audit_states.push(codec::get_audit_state(&mut d)?);
        }
        let mut counters = [0u64; 5];
        for c in &mut counters {
            *c = d.u64()?;
        }
        let n = d.seq_len()?;
        let mut triage = Vec::with_capacity(n);
        for _ in 0..n {
            triage.push(codec::get_triage_item(&mut d)?);
        }
        // Checkpoints written before the MVCC snapshot existed end here;
        // they decode with no snapshot and recover record by record.
        let db = if d.is_exhausted() {
            None
        } else if d.bool()? {
            let last_ts = Timestamp(d.i64()?);
            let n = d.seq_len()?;
            let mut stores = Vec::with_capacity(n);
            for _ in 0..n {
                stores.push(codec::get_version_store(&mut d)?);
            }
            Some(DbSnapshot { last_ts, stores })
        } else {
            None
        };
        if !d.is_exhausted() {
            return Err(DecodeError { expected: "end of checkpoint", offset: d.offset() });
        }
        Ok(CheckpointState {
            covers_seq,
            records,
            footprints,
            skipped,
            audit_states,
            counters,
            triage,
            db,
        })
    }

    /// Writes this checkpoint atomically into `dir` (temp file + fsync +
    /// rename + directory sync). Returns the final path.
    pub fn write(&self, dir: &Path) -> Result<PathBuf> {
        fs::create_dir_all(dir).map_err(PersistError::io_at("create store directory", dir))?;
        let body = self.encode_body();
        let final_path = dir.join(checkpoint_name(self.covers_seq));
        let tmp_path = dir.join(format!("ckpt-{:020}.tmp", self.covers_seq));
        {
            let mut f = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&tmp_path)
                .map_err(PersistError::io_at("create checkpoint temp", &tmp_path))?;
            f.write_all(CHECKPOINT_MAGIC)
                .and_then(|()| f.write_all(&body))
                .and_then(|()| f.write_all(&crc32(&body).to_le_bytes()))
                .map_err(PersistError::io_at("write checkpoint", &tmp_path))?;
            f.sync_data().map_err(PersistError::io_at("fsync checkpoint", &tmp_path))?;
        }
        fs::rename(&tmp_path, &final_path)
            .map_err(PersistError::io_at("publish checkpoint", &final_path))?;
        sync_dir(dir);
        Ok(final_path)
    }

    /// Loads one checkpoint file, verifying magic and CRC.
    pub fn load(path: &Path) -> Result<CheckpointState> {
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(PersistError::io_at("read checkpoint", path))?;
        let magic_len = CHECKPOINT_MAGIC.len();
        if bytes.len() < magic_len + 4 || &bytes[..magic_len] != CHECKPOINT_MAGIC {
            return Err(PersistError::corrupt_at(path, "bad or missing checkpoint magic"));
        }
        let body = &bytes[magic_len..bytes.len() - 4];
        let tail = &bytes[bytes.len() - 4..];
        let stored = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
        if crc32(body) != stored {
            return Err(PersistError::corrupt_at(path, "checkpoint CRC mismatch"));
        }
        let state = CheckpointState::decode_body(body)
            .map_err(|e| PersistError::corrupt_at(path, format!("checkpoint body: {e}")))?;
        let named = path.file_name().and_then(|n| n.to_str()).and_then(parse_checkpoint_name);
        if named != Some(state.covers_seq) {
            return Err(PersistError::corrupt_at(
                path,
                format!("file name disagrees with body covers_seq {}", state.covers_seq),
            ));
        }
        Ok(state)
    }
}

/// Lists checkpoint files in `dir`, oldest first.
pub fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    let entries = fs::read_dir(dir).map_err(PersistError::io_at("read store directory", dir))?;
    for entry in entries {
        let entry = entry.map_err(PersistError::io_at("read store directory", dir))?;
        let fname = entry.file_name();
        if let Some(seq) = fname.to_str().and_then(parse_checkpoint_name) {
            found.push((seq, entry.path()));
        }
    }
    found.sort();
    Ok(found)
}

/// Loads the newest loadable checkpoint, falling back past corrupt ones.
/// Returns the checkpoint (if any) and human-readable notes about files
/// that were skipped.
pub fn load_latest(dir: &Path) -> Result<(Option<CheckpointState>, Vec<String>)> {
    let mut notes = Vec::new();
    let mut files = list_checkpoints(dir)?;
    files.reverse(); // newest first
    for (_, path) in files {
        match CheckpointState::load(&path) {
            Ok(state) => return Ok((Some(state), notes)),
            Err(e @ PersistError::Corrupt { .. }) => {
                notes.push(format!("skipping {e}"));
            }
            Err(e) => return Err(e),
        }
    }
    Ok((None, notes))
}

/// Deletes all but the newest [`CHECKPOINTS_KEPT`] checkpoints. Returns the
/// deleted paths.
pub fn prune_old(dir: &Path) -> Result<Vec<PathBuf>> {
    let files = list_checkpoints(dir)?;
    let mut deleted = Vec::new();
    if files.len() > CHECKPOINTS_KEPT {
        for (_, path) in &files[..files.len() - CHECKPOINTS_KEPT] {
            fs::remove_file(path).map_err(PersistError::io_at("delete old checkpoint", path))?;
            deleted.push(path.clone());
        }
        sync_dir(dir);
    }
    Ok(deleted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use audex_core::FootprintBuilder;
    use audex_sql::{Ident, Timestamp};
    use std::collections::BTreeSet;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("audex-ckpt-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample(covers_seq: u64) -> CheckpointState {
        CheckpointState {
            covers_seq,
            records: vec![
                WalRecord::LogAppend {
                    ts: Timestamp(1),
                    user: Ident::new("u"),
                    role: Ident::new("r"),
                    purpose: Ident::new("p"),
                    sql: "SELECT a FROM t".into(),
                },
                WalRecord::Register {
                    name: "a1".into(),
                    expr: "AUDIT a FROM t".into(),
                    now: Timestamp(2),
                },
            ],
            footprints: vec![FootprintBuilder::new(
                QueryId(0),
                [Ident::new("t")].into(),
                [(Ident::new("t"), Ident::new("a"))].into(),
            )
            .finish()
            .unwrap()],
            skipped: vec![QueryId(9)],
            audit_states: vec![AuditBatchState {
                touched: [0usize].into(),
                covered: BTreeSet::new(),
                exposure: Default::default(),
                contributing: vec![QueryId(0)],
            }],
            counters: [1, 2, 3, 4, 5],
            triage: vec![TriageItem {
                query: QueryId(0),
                ts: Timestamp(1),
                user: Ident::new("u"),
                role: Ident::new("r"),
                purpose: Ident::new("p"),
                suspicion: 0.5,
                audits: [audex_core::AuditId(0)].into(),
                covered: [(Ident::new("t"), Ident::new("a"))].into(),
                touched: 1,
                exposed: 0,
                state: audex_triage::ReviewState::Acked,
            }],
            db: None,
        }
    }

    fn sample_with_snapshot(covers_seq: u64) -> CheckpointState {
        use audex_sql::ast::TypeName;
        use audex_storage::{ChangeOp, ChangeRecord, Schema, Tid, Value};
        let mut store = VersionStore::new(
            Ident::new("t"),
            Schema::new(vec![(Ident::new("a"), TypeName::Int)]).unwrap(),
            Timestamp(0),
        );
        store
            .record(ChangeRecord {
                ts: Timestamp(5),
                op: ChangeOp::Insert,
                tid: Tid(1),
                after: Some(vec![Value::Int(7)]),
            })
            .unwrap();
        CheckpointState {
            db: Some(DbSnapshot { last_ts: Timestamp(5), stores: vec![store] }),
            ..sample(covers_seq)
        }
    }

    #[test]
    fn write_load_round_trips() {
        let dir = tmp("roundtrip");
        let state = sample(2);
        let path = state.write(&dir).unwrap();
        assert!(path.file_name().unwrap().to_str().unwrap().starts_with("ckpt-"));
        let loaded = CheckpointState::load(&path).unwrap();
        assert_eq!(loaded, state);
        let (latest, notes) = load_latest(&dir).unwrap();
        assert_eq!(latest.unwrap(), state);
        assert!(notes.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_checkpoint_round_trips() {
        let dir = tmp("snapshot");
        let state = sample_with_snapshot(2);
        let path = state.write(&dir).unwrap();
        let loaded = CheckpointState::load(&path).unwrap();
        assert_eq!(loaded, state);
        let snap = loaded.db.unwrap();
        assert_eq!(snap.last_ts, Timestamp(5));
        assert_eq!(snap.stores.len(), 1);
        assert_eq!(snap.stores[0].versions().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pre_snapshot_checkpoint_body_still_decodes() {
        // A body that simply ends after the triage section (the layout
        // before the snapshot field existed) must decode as `db: None`.
        let state = sample(2);
        let mut body = state.encode_body();
        assert_eq!(body.pop(), Some(0), "trailing byte is the absent-snapshot marker");
        let decoded = CheckpointState::decode_body(&body).unwrap();
        assert_eq!(decoded, state);
    }

    #[test]
    fn corrupt_newest_falls_back_to_older() {
        let dir = tmp("fallback");
        let older = sample(2);
        older.write(&dir).unwrap();
        let mut newer = sample(2);
        newer.covers_seq = 5;
        let newer_path = newer.write(&dir).unwrap();

        // Flip a byte in the newest checkpoint's body.
        let mut bytes = fs::read(&newer_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&newer_path, bytes).unwrap();

        let (latest, notes) = load_latest(&dir).unwrap();
        assert_eq!(latest.unwrap().covers_seq, 2, "fell back to the older checkpoint");
        assert_eq!(notes.len(), 1);
        assert!(notes[0].contains("skipping"), "{notes:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn no_loadable_checkpoint_is_not_an_error() {
        let dir = tmp("none");
        let (latest, notes) = load_latest(&dir).unwrap();
        assert!(latest.is_none());
        assert!(notes.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_keeps_newest_two() {
        let dir = tmp("prune");
        for seq in [1u64, 3, 7] {
            sample(seq).write(&dir).unwrap();
        }
        let deleted = prune_old(&dir).unwrap();
        assert_eq!(deleted.len(), 1);
        let left = list_checkpoints(&dir).unwrap();
        assert_eq!(left.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![3, 7]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn renamed_checkpoint_is_rejected() {
        let dir = tmp("rename");
        let path = sample(2).write(&dir).unwrap();
        let bad = dir.join(checkpoint_name(9));
        fs::rename(&path, &bad).unwrap();
        let err = CheckpointState::load(&bad).unwrap_err();
        assert!(err.to_string().contains("disagrees"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
