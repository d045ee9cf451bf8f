//! MVCC versioned-tuple storage — time travel as a visibility filter.
//!
//! The backlog methodology ([`crate::backlog`]) answers "the table as of
//! `ts`" by *replaying* a change prefix, which is linear in history length
//! and made bearable only by aggressive snapshot caching. This module keeps
//! the same logical content in the shape classic MVCC engines use: one flat
//! tuple store where every row version carries a `[xmin, xmax)` validity
//! interval of logical instants (the exemplar is `small-db`'s
//! `Tuple { xmin, xmax, cells }`). Reconstruction then becomes a pure
//! *visibility filter*:
//!
//! * `as_of(ts)` — a version is visible iff `xmin <= ts < xmax`. Per tuple
//!   the candidate is found by binary search over its (xmin-ordered) version
//!   chain, so the cost is O(live tuples · log versions-per-tuple) and —
//!   crucially — independent of how long the change history has grown.
//! * `versions_in(t_s, t_e)` — the distinct instants a `DATA-INTERVAL`
//!   selects are read straight off the recorded change boundaries.
//! * `b-T` — the backlog relation is the version vector itself, in original
//!   change order (every insert/update appended exactly one version).
//!
//! # Equivalence with replay
//!
//! [`VersionStore::record`] maps the same [`ChangeRecord`] stream the
//! replay path consumes onto interval operations: an insert opens
//! `[ts, ∞)`, an update closes the tuple's live version at `ts` and opens a
//! new one, a delete just closes. Equal-timestamp chains degenerate to
//! empty `[t, t)` intervals — invisible to `as_of`, exactly like replay's
//! last-image-wins — while the backlog relation deliberately ignores `xmax`
//! so superseded same-instant images still appear, as they do when replay
//! walks the raw change log. `Database` holds only this store;
//! [`crate::backlog::TableHistory`] stays as the reference the unit tests
//! below and `tests/proptest_storage.rs` hold it byte-identical to.
//!
//! # One row image
//!
//! `Database` keeps no other copy of the rows either: a version's row is
//! stored once, as an `Arc<[Value]>`, and never written after the version
//! opens. Relations at any instant, the backlog relation, the live table
//! ([`LiveTable`], the open versions) and clones of the store all share
//! it, so a read copies one pointer per row. (`DatabaseAt::relation`
//! copies the rows of a historical snapshot once before caching it; the
//! comment there says why.)
//!
//! # Recovery forks
//!
//! Every version remembers which change opened it and which change closed
//! it ([`ChangeMeta::opened`] / [`Version::closed_by`]), so a *prefix* of
//! the store — the state after the first `n` changes — can be cut out in
//! one pass ([`VersionStore::truncated`]) by dropping later versions and
//! re-opening those whose close lies past the cut. Crash recovery uses this
//! to re-prepare mid-stream audit registrations against the exact database
//! they originally saw, without replaying changes one by one.

use std::collections::BTreeMap;
use std::sync::Arc;

use audex_sql::{Ident, Timestamp};

use crate::backlog::{ChangeOp, ChangeRecord};
use crate::error::StorageError;
use crate::schema::Schema;
use crate::table::{Relation, Row, Tid};
use crate::value::Value;

/// The open upper bound of a live version's validity interval.
pub const XMAX_OPEN: Timestamp = Timestamp(i64::MAX);

/// One tuple version: an after-image valid for `[xmin, xmax)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Version {
    /// The tuple this is a version of (stable across updates).
    pub tid: Tid,
    /// First instant at which this version is visible.
    pub xmin: Timestamp,
    /// First instant at which it no longer is ([`XMAX_OPEN`] while live).
    pub xmax: Timestamp,
    /// Index (into the change meta log) of the update/delete that closed
    /// this version; `None` while live. Lets [`VersionStore::truncated`]
    /// re-open versions whose close lies past the cut.
    pub closed_by: Option<u32>,
    /// The version's values, in schema order. Immutable once stored: every
    /// relation built from this version shares it.
    pub row: Arc<[Value]>,
}

impl Version {
    /// Visibility filter: `xmin <= ts < xmax`.
    pub fn visible_at(&self, ts: Timestamp) -> bool {
        self.xmin <= ts && ts < self.xmax
    }
}

/// One recorded change, reduced to the metadata the store needs alongside
/// the version it opened: the instant (for `DATA-INTERVAL` enumeration and
/// prefix keys), the op, the tuple, and the opened version's index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChangeMeta {
    /// When the change took effect.
    pub ts: Timestamp,
    /// What happened.
    pub op: ChangeOp,
    /// The affected tuple.
    pub tid: Tid,
    /// Index (into the version vector) of the version this change opened;
    /// `None` for deletes.
    pub opened: Option<u32>,
}

/// Read-path effort counters for one reconstruction: how many tuples were
/// probed and how many chain entries the binary searches examined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VisibilityScan {
    /// Tuples whose version chain was probed.
    pub probes: u64,
    /// Chain entries examined across all probes (log₂ per chain).
    pub versions_examined: u64,
}

/// Aggregate size/occupancy numbers for `stats`, `metrics`, and
/// `audex compact` reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Versions still open (`xmax` unbounded).
    pub live_versions: u64,
    /// Versions closed by a later update/delete — reclaimable by a GC that
    /// gave up time travel before its horizon.
    pub dead_versions: u64,
    /// Approximate heap footprint of the version vector and meta log.
    pub approx_bytes: u64,
}

impl StoreStats {
    /// Component-wise sum (for aggregating over tables).
    pub fn merge(&mut self, other: StoreStats) {
        self.live_versions += other.live_versions;
        self.dead_versions += other.dead_versions;
        self.approx_bytes += other.approx_bytes;
    }
}

/// The versioned-tuple store for one table: a flat, append-ordered version
/// vector plus a per-tuple index of version chains and the ordered change
/// meta log. Logically equivalent to a [`crate::backlog::TableHistory`];
/// see the module docs for the mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct VersionStore {
    name: Ident,
    schema: Schema,
    created_at: Timestamp,
    /// Every version ever created, in change order (the backlog relation).
    versions: Vec<Version>,
    /// Every change ever recorded, in order (prefix keys, instants).
    meta: Vec<ChangeMeta>,
    /// Per-tuple version chains: indices into `versions`, xmin-ascending
    /// (append order preserves this — timestamps are non-decreasing).
    by_tid: BTreeMap<Tid, Vec<u32>>,
    /// Count of versions with `xmax` still open, maintained incrementally.
    live: u64,
}

impl VersionStore {
    /// An empty store for a table created at `created_at`.
    pub fn new(name: Ident, schema: Schema, created_at: Timestamp) -> Self {
        VersionStore {
            name,
            schema,
            created_at,
            versions: Vec::new(),
            meta: Vec::new(),
            by_tid: BTreeMap::new(),
            live: 0,
        }
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

    /// Every version ever created, in change order.
    pub fn versions(&self) -> &[Version] {
        &self.versions
    }

    /// The ordered change meta log.
    pub fn meta(&self) -> &[ChangeMeta] {
        &self.meta
    }

    /// Applies one change: insert opens a version, update closes the
    /// tuple's live version and opens a new one, delete closes. Timestamps
    /// must be non-decreasing, exactly like the replay path.
    pub fn record(&mut self, rec: ChangeRecord) -> Result<(), StorageError> {
        let last = self.meta.last().map_or(self.created_at, |m| m.ts);
        if rec.ts < last {
            return Err(StorageError::NonMonotonicTimestamp { last, offered: rec.ts });
        }
        let meta_idx = self.meta.len() as u32;
        let opened = match (rec.op, rec.after) {
            (ChangeOp::Insert, Some(row)) => Some(self.open_version(rec.tid, rec.ts, row)),
            (ChangeOp::Update, Some(row)) => {
                self.close_live(rec.tid, rec.ts, meta_idx);
                Some(self.open_version(rec.tid, rec.ts, row))
            }
            (ChangeOp::Delete, _) => {
                self.close_live(rec.tid, rec.ts, meta_idx);
                None
            }
            (op, None) => {
                return Err(StorageError::Unsupported(format!(
                    "malformed change record: {op:?} without after-image"
                )))
            }
        };
        self.meta.push(ChangeMeta { ts: rec.ts, op: rec.op, tid: rec.tid, opened });
        Ok(())
    }

    fn open_version(&mut self, tid: Tid, ts: Timestamp, row: Row) -> u32 {
        let idx = self.versions.len() as u32;
        let row = Arc::from(row);
        self.versions.push(Version { tid, xmin: ts, xmax: XMAX_OPEN, closed_by: None, row });
        self.by_tid.entry(tid).or_default().push(idx);
        self.live += 1;
        idx
    }

    fn close_live(&mut self, tid: Tid, ts: Timestamp, meta_idx: u32) {
        // The live version, if any, is the newest entry of the chain (older
        // ones were closed when their successors opened).
        let newest = self.by_tid.get(&tid).and_then(|chain| chain.last().copied());
        if let Some(idx) = newest {
            if let Some(v) = self.versions.get_mut(idx as usize) {
                if v.xmax == XMAX_OPEN {
                    v.xmax = ts;
                    v.closed_by = Some(meta_idx);
                    self.live -= 1;
                }
            }
        }
    }

    /// The number of recorded changes visible at `ts` (inclusive) — the
    /// same self-validating snapshot-cache key the replay path uses.
    pub fn change_prefix_len(&self, ts: Timestamp) -> usize {
        self.meta.partition_point(|m| m.ts <= ts)
    }

    /// Distinct instants in `(start, end]` at which this table changed.
    pub fn change_instants(&self, start: Timestamp, end: Timestamp) -> Vec<Timestamp> {
        let lo = self.meta.partition_point(|m| m.ts <= start);
        let hi = self.meta.partition_point(|m| m.ts <= end);
        let mut out: Vec<Timestamp> = self.meta[lo..hi].iter().map(|m| m.ts).collect();
        out.dedup();
        out
    }

    /// The tuple's visible row at `ts`, if any (the replay path's
    /// `replay_to(ts).get(tid)`).
    pub fn row_as_of(&self, tid: Tid, ts: Timestamp) -> Option<&Arc<[Value]>> {
        let chain = self.by_tid.get(&tid)?;
        let candidate = self.visible_in_chain(chain, ts)?;
        Some(&self.versions[candidate as usize].row)
    }

    /// The newest chain entry with `xmin <= ts`, if it is still visible at
    /// `ts`. Earlier entries are guaranteed closed at or before that
    /// entry's `xmin`, so only the candidate needs the `xmax` check.
    fn visible_in_chain(&self, chain: &[u32], ts: Timestamp) -> Option<u32> {
        let p = chain.partition_point(|&i| self.versions[i as usize].xmin <= ts);
        let candidate = *chain.get(p.checked_sub(1)?)?;
        self.versions[candidate as usize].visible_at(ts).then_some(candidate)
    }

    /// The table state as of `ts` as a scan-ready relation, with the
    /// visibility-scan effort it took. Rows come out tid-ordered, exactly
    /// like `replay_to(ts)`, and share the stored row images.
    pub fn relation_as_of(&self, ts: Timestamp) -> (Relation, VisibilityScan) {
        let mut scan = VisibilityScan::default();
        let mut rows = Vec::with_capacity(self.by_tid.len());
        for (tid, chain) in &self.by_tid {
            scan.probes += 1;
            scan.versions_examined += (chain.len().max(1)).ilog2() as u64 + 1;
            if let Some(idx) = self.visible_in_chain(chain, ts) {
                rows.push((*tid, Arc::clone(&self.versions[idx as usize].row)));
            }
        }
        let rel = Relation { name: self.name.clone(), schema: self.schema.clone(), rows };
        (rel, scan)
    }

    /// The live table: this store's open versions.
    pub fn live(&self) -> LiveTable<'_> {
        LiveTable { store: self }
    }

    /// The backlog relation `b-T` at `ts`: every after-image in original
    /// change order, exact `(tid, row)` duplicates kept once — visibility
    /// (`xmax`) deliberately ignored, superseded images included.
    pub fn backlog_relation(&self, ts: Timestamp) -> Relation {
        let mut rows = Vec::new();
        let mut seen: std::collections::HashSet<(Tid, &[Value])> = std::collections::HashSet::new();
        for v in &self.versions {
            if v.xmin > ts {
                break;
            }
            if seen.insert((v.tid, &*v.row)) {
                rows.push((v.tid, Arc::clone(&v.row)));
            }
        }
        Relation {
            name: Ident::new(format!("b-{}", self.name.value)),
            schema: self.schema.clone(),
            rows,
        }
    }

    /// Materializes the full ordered change log (the session-script export
    /// path wants [`ChangeRecord`]s back).
    pub fn changes(&self) -> Vec<ChangeRecord> {
        self.meta
            .iter()
            .map(|m| ChangeRecord {
                ts: m.ts,
                op: m.op,
                tid: m.tid,
                after: m.opened.map(|i| self.versions[i as usize].row.to_vec()),
            })
            .collect()
    }

    /// Live/dead/size numbers for observability surfaces.
    pub fn stats(&self) -> StoreStats {
        let row_bytes = |r: &[Value]| r.iter().map(|v| v.approx_bytes()).sum::<usize>();
        let bytes = self.versions.iter().map(|v| 48 + row_bytes(&v.row)).sum::<usize>()
            + self.meta.len() * std::mem::size_of::<ChangeMeta>()
            + self.by_tid.len() * 32;
        StoreStats {
            live_versions: self.live,
            dead_versions: self.versions.len() as u64 - self.live,
            approx_bytes: bytes as u64,
        }
    }

    /// The store as it was after its first `n` recorded changes: later
    /// versions dropped, versions closed by a dropped change re-opened.
    /// O(prefix) — no change-by-change replay.
    pub fn truncated(&self, n: usize) -> VersionStore {
        let n = n.min(self.meta.len());
        let kept_versions = self.meta[..n].iter().filter(|m| m.opened.is_some()).count();
        let mut versions: Vec<Version> = self.versions[..kept_versions].to_vec();
        let mut live = 0u64;
        for v in &mut versions {
            if let Some(closer) = v.closed_by {
                if closer as usize >= n {
                    v.xmax = XMAX_OPEN;
                    v.closed_by = None;
                }
            }
            if v.xmax == XMAX_OPEN {
                live += 1;
            }
        }
        let mut by_tid: BTreeMap<Tid, Vec<u32>> = BTreeMap::new();
        for (i, v) in versions.iter().enumerate() {
            by_tid.entry(v.tid).or_default().push(i as u32);
        }
        VersionStore {
            name: self.name.clone(),
            schema: self.schema.clone(),
            created_at: self.created_at,
            versions,
            meta: self.meta[..n].to_vec(),
            by_tid,
            live,
        }
    }

    /// Rebuilds a store from its exported parts (crash recovery decodes
    /// these from a checkpoint). The per-tuple index and live count are
    /// derived; callers supply only what the codec persisted.
    pub fn from_parts(
        name: Ident,
        schema: Schema,
        created_at: Timestamp,
        versions: Vec<Version>,
        meta: Vec<ChangeMeta>,
    ) -> VersionStore {
        let mut by_tid: BTreeMap<Tid, Vec<u32>> = BTreeMap::new();
        let mut live = 0u64;
        for (i, v) in versions.iter().enumerate() {
            by_tid.entry(v.tid).or_default().push(i as u32);
            if v.xmax == XMAX_OPEN {
                live += 1;
            }
        }
        VersionStore { name, schema, created_at, versions, meta, by_tid, live }
    }
}

/// The live table: a borrowed view of one store's open versions (`xmax`
/// unbounded), in tid order. The database keeps no other copy of its
/// current rows; schema lookups, DML planning and exporters read this.
#[derive(Debug, Clone, Copy)]
pub struct LiveTable<'a> {
    store: &'a VersionStore,
}

impl<'a> LiveTable<'a> {
    /// The table schema.
    pub fn schema(&self) -> &'a Schema {
        &self.store.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.store.live as usize
    }

    /// True when the table has no live rows.
    pub fn is_empty(&self) -> bool {
        self.store.live == 0
    }

    /// The live row under `tid`: the newest version of its chain, if that
    /// one is still open.
    pub fn get(&self, tid: Tid) -> Option<&'a Arc<[Value]>> {
        let newest = *self.store.by_tid.get(&tid)?.last()?;
        let v = &self.store.versions[newest as usize];
        (v.xmax == XMAX_OPEN).then_some(&v.row)
    }

    /// Iterates the live `(tid, row)` pairs in tid order.
    pub fn iter(&self) -> impl Iterator<Item = (Tid, &'a Arc<[Value]>)> + 'a {
        let store = self.store;
        store.by_tid.iter().filter_map(move |(tid, chain)| {
            let v = &store.versions[*chain.last()? as usize];
            (v.xmax == XMAX_OPEN).then_some((*tid, &v.row))
        })
    }

    /// The tid an auto-numbered insert takes: one past the highest tid
    /// ever opened (deletes do not give tids back).
    pub fn next_tid(&self) -> Tid {
        Tid(self.store.by_tid.keys().next_back().map_or(1, |t| t.0 + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backlog::TableHistory;
    use crate::value::Value;
    use audex_sql::ast::TypeName;

    fn rec(ts: i64, op: ChangeOp, tid: u64, after: Option<Vec<Value>>) -> ChangeRecord {
        ChangeRecord { ts: Timestamp(ts), op, tid: Tid(tid), after }
    }

    fn store() -> VersionStore {
        let mut s = VersionStore::new(
            Ident::new("Patients"),
            Schema::of(&[("pid", TypeName::Text), ("zipcode", TypeName::Text)]),
            Timestamp(0),
        );
        s.record(rec(10, ChangeOp::Insert, 1, Some(vec!["p1".into(), "120016".into()]))).unwrap();
        s.record(rec(20, ChangeOp::Update, 1, Some(vec!["p1".into(), "145568".into()]))).unwrap();
        s.record(rec(30, ChangeOp::Delete, 1, None)).unwrap();
        s
    }

    #[test]
    fn visibility_reconstructs_each_version() {
        let s = store();
        assert!(s.row_as_of(Tid(1), Timestamp(5)).is_none());
        assert_eq!(s.row_as_of(Tid(1), Timestamp(10)).unwrap()[1], Value::Str("120016".into()));
        assert_eq!(s.row_as_of(Tid(1), Timestamp(25)).unwrap()[1], Value::Str("145568".into()));
        assert!(s.row_as_of(Tid(1), Timestamp(30)).is_none(), "delete closes at 30");
    }

    #[test]
    fn intervals_are_half_open() {
        let s = store();
        assert_eq!(s.versions()[0].xmin, Timestamp(10));
        assert_eq!(s.versions()[0].xmax, Timestamp(20));
        assert_eq!(s.versions()[1].xmax, Timestamp(30));
        assert_eq!(s.versions()[0].closed_by, Some(1));
        assert_eq!(s.versions()[1].closed_by, Some(2));
    }

    #[test]
    fn equal_timestamp_chain_is_invisible_like_replay() {
        let mut s =
            VersionStore::new(Ident::new("t"), Schema::of(&[("a", TypeName::Int)]), Timestamp(0));
        s.record(rec(5, ChangeOp::Insert, 1, Some(vec![Value::Int(1)]))).unwrap();
        s.record(rec(5, ChangeOp::Update, 1, Some(vec![Value::Int(2)]))).unwrap();
        s.record(rec(5, ChangeOp::Update, 1, Some(vec![Value::Int(3)]))).unwrap();
        // Last image wins at the shared instant; earlier images are empty
        // [5, 5) intervals.
        assert_eq!(s.row_as_of(Tid(1), Timestamp(5)).unwrap()[0], Value::Int(3));
        // ...but the backlog relation keeps all distinct images.
        assert_eq!(s.backlog_relation(Timestamp(100)).rows.len(), 3);
    }

    #[test]
    fn matches_replay_on_a_mixed_history() {
        let mut s = VersionStore::new(
            Ident::new("t"),
            Schema::of(&[("pid", TypeName::Text), ("zipcode", TypeName::Text)]),
            Timestamp(0),
        );
        let mut h = TableHistory::new(
            Ident::new("t"),
            Schema::of(&[("pid", TypeName::Text), ("zipcode", TypeName::Text)]),
            Timestamp(0),
        );
        // Deterministic mixed workload: inserts, updates, deletes,
        // re-inserts, equal-timestamp runs.
        let mut alive: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        let mut x = 0x9e3779b9u64;
        for i in 0..500u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let ts = (i / 3) as i64; // runs of equal timestamps
            let tid = x % 40 + 1;
            let r = if alive.contains(&tid) {
                if x.is_multiple_of(5) {
                    alive.remove(&tid);
                    rec(ts, ChangeOp::Delete, tid, None)
                } else {
                    rec(
                        ts,
                        ChangeOp::Update,
                        tid,
                        Some(vec![format!("p{tid}").into(), format!("z{i}").into()]),
                    )
                }
            } else {
                alive.insert(tid);
                rec(
                    ts,
                    ChangeOp::Insert,
                    tid,
                    Some(vec![format!("p{tid}").into(), format!("z{i}").into()]),
                )
            };
            s.record(r.clone()).unwrap();
            h.record(r).unwrap();
        }
        for probe in [-1i64, 0, 1, 2, 3, 50, 100, 165, 166, 167, 1000] {
            let ts = Timestamp(probe);
            let (rel, _) = s.relation_as_of(ts);
            assert_eq!(rel, h.replay_to(ts), "as_of divergence at {probe}");
            assert_eq!(
                s.backlog_relation(ts),
                h.backlog_relation(ts),
                "backlog divergence at {probe}"
            );
            assert_eq!(s.change_prefix_len(ts), h.change_prefix_len(ts));
        }
        assert_eq!(
            s.change_instants(Timestamp(3), Timestamp(120)),
            h.change_instants(Timestamp(3), Timestamp(120))
        );
        assert_eq!(s.changes(), h.changes().to_vec(), "materialized change log");
    }

    #[test]
    fn non_monotonic_timestamps_rejected() {
        let mut s = store();
        let r = s.record(rec(5, ChangeOp::Insert, 2, Some(vec!["p2".into(), "x".into()])));
        assert!(matches!(r, Err(StorageError::NonMonotonicTimestamp { .. })));
    }

    #[test]
    fn live_table_next_tid_skips_deleted_tids() {
        let mut s =
            VersionStore::new(Ident::new("t"), Schema::of(&[("a", TypeName::Int)]), Timestamp(0));
        assert_eq!(s.live().next_tid(), Tid(1));
        s.record(rec(1, ChangeOp::Insert, 1, Some(vec![Value::Int(1)]))).unwrap();
        s.record(rec(2, ChangeOp::Insert, 7, Some(vec![Value::Int(7)]))).unwrap();
        s.record(rec(3, ChangeOp::Delete, 7, None)).unwrap();
        let t = s.live();
        assert_eq!(t.len(), 1);
        assert!(t.get(Tid(7)).is_none(), "deleted");
        assert_eq!(t.iter().map(|(tid, _)| tid).collect::<Vec<_>>(), vec![Tid(1)]);
        assert_eq!(t.next_tid(), Tid(8), "tid 8 comes after deleted 7");
        // A truncated store keeps the watermark of its own prefix.
        assert_eq!(s.truncated(1).live().next_tid(), Tid(2));
    }

    #[test]
    fn truncated_reopens_versions_closed_past_the_cut() {
        let s = store(); // insert@10, update@20, delete@30
        let cut = s.truncated(2); // state after insert + update
        assert_eq!(cut.meta().len(), 2);
        assert_eq!(cut.versions().len(), 2);
        assert_eq!(cut.row_as_of(Tid(1), Timestamp(25)).unwrap()[1], Value::Str("145568".into()));
        assert!(
            cut.row_as_of(Tid(1), Timestamp(40)).is_some(),
            "the delete was cut away, so the tuple is live again"
        );
        let cut1 = s.truncated(1);
        assert_eq!(cut1.versions()[0].xmax, XMAX_OPEN, "update's close also cut");
        assert_eq!(cut1.stats().live_versions, 1);
        // Full-length truncation is the identity.
        assert_eq!(s.truncated(99), s);
    }

    #[test]
    fn stats_track_live_and_dead() {
        let s = store();
        let st = s.stats();
        assert_eq!(st.live_versions, 0, "the only tuple was deleted");
        assert_eq!(st.dead_versions, 2);
        assert!(st.approx_bytes > 0);
    }

    #[test]
    fn from_parts_round_trips() {
        let s = store();
        let rebuilt = VersionStore::from_parts(
            s.name().clone(),
            s.schema().clone(),
            s.created_at(),
            s.versions().to_vec(),
            s.meta().to_vec(),
        );
        assert_eq!(rebuilt, s);
    }
}
