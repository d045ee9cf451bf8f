//! Backlog (change-log) versioning — the Hippocratic-database substrate.
//!
//! Agrawal et al. (VLDB'04), on which the paper builds, capture every update
//! to base tables into *backlog tables* via triggers, and reconstruct "the
//! state of the database at any past point in time" from them. This module
//! is that mechanism: every mutation of a table appends a timestamped
//! [`ChangeRecord`]; [`TableHistory::replay_to`] rebuilds the table as of any
//! instant, and [`TableHistory::change_instants`] enumerates the distinct
//! versions inside a `DATA-INTERVAL`.
//!
//! [`ChangeRecord`] is the stream every mutation produces (the WAL journals
//! it, [`crate::mvcc::VersionStore`] consumes it). [`TableHistory`] is the
//! *reference* implementation of the versioned reads: the database does not
//! use it; tests compare the version store against it.

use std::sync::Arc;

use audex_sql::{Ident, Timestamp};

use crate::error::StorageError;
use crate::schema::Schema;
use crate::table::{Relation, Row, Tid};

/// The kind of change recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeOp {
    /// Row created.
    Insert,
    /// Row replaced.
    Update,
    /// Row removed.
    Delete,
}

/// One recorded change to one tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct ChangeRecord {
    /// When the change took effect.
    pub ts: Timestamp,
    /// What happened.
    pub op: ChangeOp,
    /// The affected tuple.
    pub tid: Tid,
    /// The after-image (`None` for deletes).
    pub after: Option<Row>,
}

/// How many changes between automatic replay checkpoints. Reconstruction
/// cost is O(interval) after the nearest checkpoint instead of O(history);
/// memory cost is one table snapshot per interval.
pub const CHECKPOINT_INTERVAL: usize = 1024;

/// The full history of one table: creation time, schema, ordered changes,
/// and periodic state checkpoints for fast reconstruction. Reference
/// implementation — see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct TableHistory {
    name: Ident,
    schema: Schema,
    created_at: Timestamp,
    changes: Vec<ChangeRecord>,
    /// `(change index exclusive, state after applying that many changes)`.
    checkpoints: Vec<(usize, Relation)>,
}

impl TableHistory {
    /// Starts a history at table creation.
    pub fn new(name: Ident, schema: Schema, created_at: Timestamp) -> Self {
        TableHistory { name, schema, created_at, changes: Vec::new(), checkpoints: Vec::new() }
    }

    /// The table name.
    pub fn name(&self) -> &Ident {
        &self.name
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// When the table was created.
    pub fn created_at(&self) -> Timestamp {
        self.created_at
    }

    /// All recorded changes, oldest first.
    pub fn changes(&self) -> &[ChangeRecord] {
        &self.changes
    }

    /// Appends a change; timestamps must be non-decreasing. Every
    /// [`CHECKPOINT_INTERVAL`] changes a state snapshot is taken so
    /// [`TableHistory::replay_to`] stays fast on long histories.
    pub fn record(&mut self, rec: ChangeRecord) -> Result<(), StorageError> {
        let last = self.changes.last().map_or(self.created_at, |c| c.ts);
        if rec.ts < last {
            return Err(StorageError::NonMonotonicTimestamp { last, offered: rec.ts });
        }
        self.changes.push(rec);
        if self.changes.len().is_multiple_of(CHECKPOINT_INTERVAL) {
            // Snapshot the state after all current changes. A checkpoint is
            // only usable for instants >= its last change's timestamp, which
            // replay_to checks (equal timestamps may span the boundary).
            let upto = self.changes.len();
            let state = self.replay_range(self.empty(), 0, upto);
            self.checkpoints.push((upto, state));
        }
        Ok(())
    }

    /// The number of recorded changes visible at `ts` (inclusive) — the
    /// boundary index of the prefix `replay_to(ts)` applies. Because the
    /// history is append-only, the content of `changes[..n]` is immutable
    /// for any given `n`, which makes this length a self-validating cache
    /// key for reconstructed snapshots (see [`crate::snapshot`]): distinct
    /// instants selecting the same version share one prefix length.
    pub fn change_prefix_len(&self, ts: Timestamp) -> usize {
        self.changes.partition_point(|c| c.ts <= ts)
    }

    /// Rebuilds the table state as of `ts` (inclusive): all changes with
    /// `change.ts <= ts` are applied, rows in tid order. Uses the newest
    /// usable checkpoint.
    pub fn replay_to(&self, ts: Timestamp) -> Relation {
        // The replay boundary: first index whose change is after `ts`.
        let end = self.change_prefix_len(ts);
        // Newest checkpoint fully inside the boundary.
        let base = self.checkpoints.iter().rev().find(|(upto, _)| *upto <= end);
        let (start, table) = match base {
            Some((upto, state)) => (*upto, state.clone()),
            None => (0, self.empty()),
        };
        self.replay_range(table, start, end)
    }

    fn empty(&self) -> Relation {
        Relation { name: self.name.clone(), schema: self.schema.clone(), rows: Vec::new() }
    }

    /// Applies `changes[start..end]` to `table`, whose rows stay sorted by
    /// tid (a binary search places each change).
    fn replay_range(&self, mut table: Relation, start: usize, end: usize) -> Relation {
        // Records are internally consistent by construction (inserts and
        // updates always carry an after-image, and apply cleanly in order);
        // a corrupt record surfaces as a missing row, not a panic.
        for rec in &self.changes[start..end] {
            let at = table.rows.binary_search_by_key(&rec.tid, |(t, _)| *t);
            match (&rec.op, &rec.after, at) {
                (ChangeOp::Insert, Some(after), Err(i)) => {
                    table.rows.insert(i, (rec.tid, Arc::from(after.as_slice())));
                }
                (ChangeOp::Update, Some(after), Ok(i)) => {
                    table.rows[i].1 = Arc::from(after.as_slice());
                }
                (ChangeOp::Delete, _, Ok(i)) => {
                    table.rows.remove(i);
                }
                (ChangeOp::Delete, _, Err(_)) => {}
                _ => debug_assert!(false, "backlog replay of an inconsistent record"),
            }
        }
        table
    }

    /// Distinct instants in `(start, end]` at which this table changed.
    /// The paper's DATA-INTERVAL semantics evaluate the target view at the
    /// interval start plus each of these instants.
    pub fn change_instants(&self, start: Timestamp, end: Timestamp) -> Vec<Timestamp> {
        let mut out: Vec<Timestamp> =
            self.changes.iter().map(|c| c.ts).filter(|t| *t > start && *t <= end).collect();
        out.dedup();
        out
    }

    /// The backlog relation `b-T`: every after-image every tuple ever had
    /// (up to and including `ts`), carrying the *original* tid. This is the
    /// interpretation of \[12\]: an audit over `b-T` considers all versions.
    /// Exact duplicate `(tid, row)` versions are kept once.
    pub fn backlog_relation(&self, ts: Timestamp) -> Relation {
        let mut rows = Vec::new();
        let mut seen: std::collections::HashSet<(Tid, &Row)> = std::collections::HashSet::new();
        for rec in &self.changes {
            if rec.ts > ts {
                break;
            }
            if let Some(after) = &rec.after {
                if seen.insert((rec.tid, after)) {
                    rows.push((rec.tid, Arc::from(after.as_slice())));
                }
            }
        }
        Relation {
            name: Ident::new(format!("b-{}", self.name.value)),
            schema: self.schema.clone(),
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use audex_sql::ast::TypeName;

    fn history() -> TableHistory {
        let mut h = TableHistory::new(
            Ident::new("Patients"),
            Schema::of(&[("pid", TypeName::Text), ("zipcode", TypeName::Text)]),
            Timestamp(0),
        );
        h.record(ChangeRecord {
            ts: Timestamp(10),
            op: ChangeOp::Insert,
            tid: Tid(1),
            after: Some(vec!["p1".into(), "120016".into()]),
        })
        .unwrap();
        h.record(ChangeRecord {
            ts: Timestamp(20),
            op: ChangeOp::Update,
            tid: Tid(1),
            after: Some(vec!["p1".into(), "145568".into()]),
        })
        .unwrap();
        h.record(ChangeRecord {
            ts: Timestamp(30),
            op: ChangeOp::Delete,
            tid: Tid(1),
            after: None,
        })
        .unwrap();
        h
    }

    #[test]
    fn replay_reconstructs_each_version() {
        let h = history();
        assert!(h.replay_to(Timestamp(5)).rows.is_empty());
        assert_eq!(h.replay_to(Timestamp(10)).get(Tid(1)).unwrap()[1], Value::Str("120016".into()));
        assert_eq!(h.replay_to(Timestamp(25)).get(Tid(1)).unwrap()[1], Value::Str("145568".into()));
        assert!(h.replay_to(Timestamp(30)).rows.is_empty());
    }

    #[test]
    fn replay_is_inclusive_of_ts() {
        let h = history();
        assert_eq!(h.replay_to(Timestamp(20)).get(Tid(1)).unwrap()[1], Value::Str("145568".into()));
    }

    #[test]
    fn non_monotonic_timestamps_rejected() {
        let mut h = history();
        let r = h.record(ChangeRecord {
            ts: Timestamp(5),
            op: ChangeOp::Insert,
            tid: Tid(2),
            after: Some(vec!["p2".into(), "x".into()]),
        });
        assert!(matches!(r, Err(StorageError::NonMonotonicTimestamp { .. })));
    }

    #[test]
    fn equal_timestamps_allowed() {
        let mut h = history();
        assert!(h
            .record(ChangeRecord {
                ts: Timestamp(30),
                op: ChangeOp::Insert,
                tid: Tid(2),
                after: Some(vec!["p2".into(), "y".into()]),
            })
            .is_ok());
    }

    #[test]
    fn change_instants_are_half_open() {
        let h = history();
        assert_eq!(
            h.change_instants(Timestamp(10), Timestamp(30)),
            vec![Timestamp(20), Timestamp(30)]
        );
        assert_eq!(h.change_instants(Timestamp(0), Timestamp(15)), vec![Timestamp(10)]);
        assert!(h.change_instants(Timestamp(30), Timestamp(100)).is_empty());
    }

    #[test]
    fn backlog_relation_keeps_all_versions_with_original_tid() {
        let h = history();
        let b = h.backlog_relation(Timestamp(100));
        assert_eq!(b.name, Ident::new("b-Patients"));
        assert_eq!(b.rows.len(), 2); // two after-images, delete contributes none
        assert!(b.rows.iter().all(|(t, _)| *t == Tid(1)));
    }

    #[test]
    fn backlog_relation_respects_cutoff() {
        let h = history();
        assert_eq!(h.backlog_relation(Timestamp(10)).rows.len(), 1);
        assert_eq!(h.backlog_relation(Timestamp(5)).rows.len(), 0);
    }

    #[test]
    fn checkpointed_replay_matches_full_replay() {
        // Cross several checkpoint boundaries and verify reconstruction at
        // instants before, on, and after each boundary.
        let mut h = TableHistory::new(
            Ident::new("t"),
            Schema::of(&[("pid", TypeName::Text), ("zipcode", TypeName::Text)]),
            Timestamp(0),
        );
        let n = 3 * CHECKPOINT_INTERVAL + 17;
        for i in 0..n {
            let tid = Tid((i % 97) as u64 + 1);
            let exists = h.replay_to(Timestamp(i as i64)).get(tid).is_some();
            let rec = if exists && i % 5 == 0 {
                ChangeRecord { ts: Timestamp(i as i64 + 1), op: ChangeOp::Delete, tid, after: None }
            } else if exists {
                ChangeRecord {
                    ts: Timestamp(i as i64 + 1),
                    op: ChangeOp::Update,
                    tid,
                    after: Some(vec![format!("p{}", i % 97).into(), format!("z{i}").into()]),
                }
            } else {
                ChangeRecord {
                    ts: Timestamp(i as i64 + 1),
                    op: ChangeOp::Insert,
                    tid,
                    after: Some(vec![format!("p{}", i % 97).into(), format!("z{i}").into()]),
                }
            };
            h.record(rec).unwrap();
        }
        assert!(h.checkpoints.len() >= 3, "boundaries crossed");
        for probe in [
            0i64,
            (CHECKPOINT_INTERVAL - 1) as i64,
            CHECKPOINT_INTERVAL as i64,
            (CHECKPOINT_INTERVAL + 1) as i64,
            (2 * CHECKPOINT_INTERVAL) as i64,
            n as i64,
            n as i64 + 100,
        ] {
            let fast = h.replay_to(Timestamp(probe));
            let slow = h.replay_range(
                h.empty(),
                0,
                h.changes.partition_point(|c| c.ts <= Timestamp(probe)),
            );
            assert_eq!(fast, slow, "divergence at ts {probe}");
        }
    }

    #[test]
    fn change_prefix_len_partitions_on_ts() {
        let h = history(); // changes at 10, 20, 30
        assert_eq!(h.change_prefix_len(Timestamp(5)), 0);
        assert_eq!(h.change_prefix_len(Timestamp(10)), 1);
        assert_eq!(h.change_prefix_len(Timestamp(15)), 1);
        assert_eq!(h.change_prefix_len(Timestamp(30)), 3);
        assert_eq!(h.change_prefix_len(Timestamp(100)), 3);
    }

    #[test]
    fn identical_version_replays_hit_the_snapshot_cache() {
        // A DATA-INTERVAL can enumerate the same version instant more than
        // once (and distinct timestamps can select the same version). Both
        // cases must replay the backlog exactly once.
        use crate::database::Database;
        use audex_sql::parse_query;

        let mut db = Database::new();
        db.create_table(
            Ident::new("Patients"),
            Schema::of(&[("pid", TypeName::Text)]),
            Timestamp(0),
        )
        .unwrap();
        db.insert(&Ident::new("Patients"), vec!["p1".into()], Timestamp(10)).unwrap();
        db.insert(&Ident::new("Patients"), vec!["p2".into()], Timestamp(20)).unwrap();

        let q = parse_query("SELECT pid FROM Patients").unwrap();
        // ts 15 and ts 17 both see exactly the changes up to 10: one replay,
        // served from cache afterwards, including for the repeated instant.
        db.at(Timestamp(15)).query(&q).unwrap();
        db.at(Timestamp(17)).query(&q).unwrap();
        db.at(Timestamp(15)).query(&q).unwrap();
        let stats = db.snapshot_stats();
        assert_eq!(stats.misses, 1, "one reconstruction for one version");
        assert_eq!(stats.hits, 2, "repeat reads served from cache");
    }

    #[test]
    fn backlog_relation_dedupes_identical_versions() {
        let mut h = history();
        // Re-insert the same image the tuple had earlier.
        h.record(ChangeRecord {
            ts: Timestamp(40),
            op: ChangeOp::Insert,
            tid: Tid(1),
            after: Some(vec!["p1".into(), "120016".into()]),
        })
        .unwrap();
        let b = h.backlog_relation(Timestamp(100));
        assert_eq!(b.rows.len(), 2);
    }
}
