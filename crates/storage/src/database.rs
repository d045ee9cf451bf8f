//! The database: current state + full backlog history + DML execution.

use audex_sql::ast::{CreateTable, Delete, Insert, Statement, Update};
use audex_sql::{Ident, Timestamp};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::backlog::{ChangeOp, ChangeRecord};
use crate::error::StorageError;
use crate::eval::{compile, literal_value, Scope};
use crate::exec::{execute_query, JoinStrategy, RelationProvider, ResultSet};
use crate::fault::{FaultPlan, FaultState};
use crate::mvcc::{LiveTable, StoreStats, VersionStore, VisibilityScan};
use crate::schema::Schema;
use crate::snapshot::{SnapshotCache, SnapshotKind, SnapshotStats};
use crate::table::{Relation, Row, Tid};
use crate::value::Value;

/// MVCC read-path telemetry: always-on atomic counters (cheap, queryable in
/// tests) plus registry mirrors that are no-ops until wired by
/// [`Database::set_obs`]. Occupancy gauges are refreshed lazily via
/// [`Database::refresh_mvcc_gauges`] rather than on every mutation.
#[derive(Debug, Default)]
struct MvccObs {
    probes: AtomicU64,
    examined: AtomicU64,
    obs_probes: audex_obs::Counter,
    obs_examined: audex_obs::Counter,
    live: audex_obs::Gauge,
    dead: audex_obs::Gauge,
    bytes: audex_obs::Gauge,
}

impl MvccObs {
    fn record_scan(&self, scan: VisibilityScan) {
        self.probes.fetch_add(scan.probes, Ordering::Relaxed);
        self.examined.fetch_add(scan.versions_examined, Ordering::Relaxed);
        self.obs_probes.add(scan.probes);
        self.obs_examined.add(scan.versions_examined);
    }
}

/// Observer of committed mutations, called synchronously from inside every
/// successful [`Database`] write — the choke point a write-ahead journal
/// hooks to see each change exactly once, in commit order.
///
/// Implementations must not call back into the database. They are infallible
/// by design: a sink that cannot persist a record stashes the error and
/// surfaces it through its own diagnostics (the database has already
/// committed and cannot un-apply).
pub trait ChangeSink: Send + Sync {
    /// A table was created at `ts`.
    fn on_create_table(&self, name: &Ident, schema: &Schema, ts: Timestamp);
    /// A row-level change was committed to `table`.
    fn on_change(&self, table: &Ident, rec: &ChangeRecord);
}

/// An in-memory, versioned relational database.
///
/// Every mutation is stamped with a (non-decreasing) [`Timestamp`] and
/// recorded in a per-table MVCC version store ([`crate::mvcc`]), so any past
/// instant can be reconstructed: the substrate the paper's `DATA-INTERVAL`
/// clause and the Agrawal et al. backlog methodology require. The stores
/// are the only copy of the data: the live table is a store's open
/// versions ([`Database::table`]).
#[derive(Default)]
pub struct Database {
    versions: BTreeMap<Ident, VersionStore>,
    last_ts: Timestamp,
    /// Armed fault-injection plan, if any (see [`crate::fault`]). Shared by
    /// clones so scan ordinals keep counting across `at()` views.
    faults: Option<Arc<FaultState>>,
    /// Memoized version snapshots (see [`crate::snapshot`]). Derived data:
    /// invisible to equality, and never shared with clones.
    snapshots: SnapshotCache,
    /// MVCC read-path telemetry; derived state like the cache.
    mvcc_obs: MvccObs,
    /// Mutation observer (see [`ChangeSink`]); never cloned, never compared.
    sink: Option<Arc<dyn ChangeSink>>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("versions", &self.versions)
            .field("last_ts", &self.last_ts)
            .field("faults", &self.faults)
            .field("snapshots", &self.snapshots)
            .field("sink", &self.sink.as_ref().map(|_| "attached"))
            .finish()
    }
}

impl Clone for Database {
    /// Clones data and the armed fault plan (shared, so scan ordinals keep
    /// counting across clones — tests rely on that), but hands the clone a
    /// **fresh** snapshot cache: clones may diverge, and change-prefix keys
    /// are only self-validating within one mutation lineage. The change sink
    /// is likewise not inherited: a journal records one lineage, and a
    /// diverging clone writing the same journal would corrupt it. Telemetry
    /// wiring follows the instance too — the clone's counters start cold.
    /// Row images are shared, never copied: no write changes a stored
    /// image in place, so neither side can see the other's later writes.
    fn clone(&self) -> Self {
        Database {
            versions: self.versions.clone(),
            last_ts: self.last_ts,
            faults: self.faults.clone(),
            snapshots: SnapshotCache::default(),
            mvcc_obs: MvccObs::default(),
            sink: None,
        }
    }
}

impl PartialEq for Database {
    /// Fault-injection state, telemetry, and the snapshot cache are
    /// harness/derived state, not data: two databases are equal when their
    /// version histories and clock agree.
    fn eq(&self, other: &Self) -> bool {
        self.versions == other.versions && self.last_ts == other.last_ts
    }
}

/// Result of executing a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// `SELECT` rows.
    Rows(ResultSet),
    /// Number of rows affected by DML.
    Affected(usize),
    /// A table was created.
    Created,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// The timestamp of the latest change (zero for an empty database).
    pub fn last_ts(&self) -> Timestamp {
        self.last_ts
    }

    /// Creates a table.
    pub fn create_table(
        &mut self,
        name: Ident,
        schema: Schema,
        ts: Timestamp,
    ) -> Result<(), StorageError> {
        self.check_ts(ts)?;
        if self.versions.contains_key(&name) {
            return Err(StorageError::DuplicateTable(name));
        }
        self.versions.insert(name.clone(), VersionStore::new(name.clone(), schema.clone(), ts));
        self.last_ts = ts;
        if let Some(s) = &self.sink {
            s.on_create_table(&name, &schema, ts);
        }
        Ok(())
    }

    /// Attaches a [`ChangeSink`] observing every subsequent committed
    /// mutation. Replaces any previous sink. Clones do not inherit it.
    pub fn set_change_sink(&mut self, sink: Arc<dyn ChangeSink>) {
        self.sink = Some(sink);
    }

    /// Detaches the change sink, if any.
    pub fn clear_change_sink(&mut self) {
        self.sink = None;
    }

    /// The current state of a table: its store's open versions.
    pub fn table(&self, name: &Ident) -> Option<LiveTable<'_>> {
        self.versions.get(name).map(VersionStore::live)
    }

    /// When `name` was created, if it exists.
    pub fn table_created_at(&self, name: &Ident) -> Option<Timestamp> {
        self.versions.get(name).map(|v| v.created_at())
    }

    /// The full ordered change log of a table, materialized — the export
    /// path (session scripts, benches).
    pub fn table_changes(&self, name: &Ident) -> Option<Vec<ChangeRecord>> {
        self.versions.get(name).map(|v| v.changes())
    }

    /// The row `tid` held in `name` as of `ts`, if it was visible then.
    /// `None` for unknown tables or invisible tuples. Bypasses fault gates
    /// and the cache — a point lookup for exporters, not the audited read
    /// path.
    pub fn row_as_of(&self, name: &Ident, tid: Tid, ts: Timestamp) -> Option<Arc<[Value]>> {
        self.versions.get(name)?.row_as_of(tid, ts).cloned()
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<Ident> {
        self.versions.keys().cloned().collect()
    }

    fn check_ts(&self, ts: Timestamp) -> Result<(), StorageError> {
        if ts < self.last_ts {
            return Err(StorageError::NonMonotonicTimestamp { last: self.last_ts, offered: ts });
        }
        Ok(())
    }

    fn live(&self, name: &Ident) -> Result<LiveTable<'_>, StorageError> {
        self.table(name).ok_or_else(|| StorageError::UnknownTable(name.clone()))
    }

    /// Arms `plan`: subsequent reads and DML against faulted sites fail with
    /// [`StorageError::Injected`]. Replaces any previously armed plan (and
    /// resets its scan counters).
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(Arc::new(FaultState::new(plan)));
    }

    /// Disarms any armed fault plan.
    pub fn disarm_faults(&mut self) {
        self.faults = None;
    }

    /// True when a fault plan is armed.
    pub fn faults_armed(&self) -> bool {
        self.faults.is_some()
    }

    /// Mirrors storage telemetry into `registry`: snapshot-cache hit/miss
    /// counts (`audex_snapshot_cache_{hits,misses}_total`) and the MVCC
    /// read-path/occupancy series (`audex_mvcc_*`). Clones do not inherit
    /// the wiring — like the change sink, telemetry follows the instance.
    pub fn set_obs(&mut self, registry: &audex_obs::Registry) {
        self.snapshots.set_obs(registry);
        self.mvcc_obs.obs_probes = registry.counter(
            "audex_mvcc_visibility_probes_total",
            "Tuples whose version chain was probed by MVCC reconstructions.",
            &[],
        );
        self.mvcc_obs.obs_examined = registry.counter(
            "audex_mvcc_versions_examined_total",
            "Version-chain entries examined across all MVCC visibility probes.",
            &[],
        );
        self.mvcc_obs.live = registry.gauge(
            "audex_mvcc_live_versions",
            "Tuple versions still open (xmax unbounded) across all tables.",
            &[],
        );
        self.mvcc_obs.dead = registry.gauge(
            "audex_mvcc_dead_versions",
            "Tuple versions closed by a later update or delete.",
            &[],
        );
        self.mvcc_obs.bytes = registry.gauge(
            "audex_mvcc_store_bytes",
            "Approximate heap footprint of the MVCC version stores.",
            &[],
        );
    }

    /// Aggregate MVCC occupancy over all tables.
    pub fn mvcc_stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for s in self.versions.values() {
            total.merge(s.stats());
        }
        total
    }

    /// Per-table MVCC occupancy, sorted by table name. The per-tenant
    /// `audex compact` report walks this.
    pub fn mvcc_table_stats(&self) -> Vec<(Ident, StoreStats)> {
        self.versions.iter().map(|(name, s)| (name.clone(), s.stats())).collect()
    }

    /// Cumulative visibility-scan effort of every MVCC reconstruction this
    /// instance has served (zeros before any historical read).
    pub fn mvcc_scan_stats(&self) -> VisibilityScan {
        VisibilityScan {
            probes: self.mvcc_obs.probes.load(Ordering::Relaxed),
            versions_examined: self.mvcc_obs.examined.load(Ordering::Relaxed),
        }
    }

    /// Folds visibility-scan effort performed on another database handle
    /// into this one's counters. Crash recovery re-prepares mid-stream
    /// audit registrations against [`Database::fork_prefix`] forks; the
    /// fork's reads are exactly the reads the live run charged to the
    /// primary database, so absorbing them keeps recovered counters
    /// faithful to the uninterrupted run.
    pub fn absorb_scan(&self, scan: VisibilityScan) {
        self.mvcc_obs.record_scan(scan);
    }

    /// Recomputes the `audex_mvcc_{live_versions,dead_versions,store_bytes}`
    /// gauges from current occupancy, and returns it. Called at
    /// stats/metrics render time rather than on every mutation — occupancy
    /// moves with DML, but the gauges only need to be fresh when someone is
    /// looking.
    pub fn refresh_mvcc_gauges(&self) -> StoreStats {
        let stats = self.mvcc_stats();
        self.mvcc_obs.live.set(stats.live_versions as i64);
        self.mvcc_obs.dead.set(stats.dead_versions as i64);
        self.mvcc_obs.bytes.set(stats.approx_bytes as i64);
        stats
    }

    /// Hit/miss counters of the version-snapshot cache (diagnostics and
    /// regression tests for reconstruction deduplication).
    pub fn snapshot_stats(&self) -> SnapshotStats {
        self.snapshots.stats()
    }

    /// Number of distinct reconstructed relations held by the snapshot
    /// cache — the memory side of the [`SnapshotStats`] counters, surfaced
    /// for long-running services.
    pub fn snapshot_cache_len(&self) -> usize {
        self.snapshots.len()
    }

    /// Consults the armed plan (if any) about one scan of `table`.
    fn fault_on_scan(&self, table: &Ident) -> Result<(), StorageError> {
        match &self.faults {
            Some(s) => s.on_scan(table),
            None => Ok(()),
        }
    }

    /// Consults the armed plan (if any) about a versioned read of `table`.
    fn fault_on_replay(&self, table: &Ident, ts: Timestamp) -> Result<(), StorageError> {
        match &self.faults {
            Some(s) => s.on_replay(table, ts),
            None => Ok(()),
        }
    }

    /// Inserts a row at `ts` with an auto-assigned tid: one past the
    /// highest tid the table ever held.
    pub fn insert(&mut self, name: &Ident, row: Row, ts: Timestamp) -> Result<Tid, StorageError> {
        self.check_ts(ts)?;
        let tid = self.live(name)?.next_tid();
        self.insert_with_tid(name, tid, row, ts)?;
        Ok(tid)
    }

    /// Inserts with an explicit tid (paper fixtures use `t11`-style ids).
    /// The tid must not be live; the row must fit the schema.
    pub fn insert_with_tid(
        &mut self,
        name: &Ident,
        tid: Tid,
        row: Row,
        ts: Timestamp,
    ) -> Result<(), StorageError> {
        self.check_ts(ts)?;
        let table = self.live(name)?;
        if table.get(tid).is_some() {
            return Err(StorageError::DuplicateTid(tid));
        }
        let row = table.schema().check_row(row)?;
        self.record(name, ChangeRecord { ts, op: ChangeOp::Insert, tid, after: Some(row) });
        Ok(())
    }

    /// Replaces the row under `tid` at `ts`.
    pub fn update_row(
        &mut self,
        name: &Ident,
        tid: Tid,
        row: Row,
        ts: Timestamp,
    ) -> Result<(), StorageError> {
        self.check_ts(ts)?;
        let table = self.live(name)?;
        if table.get(tid).is_none() {
            return Err(StorageError::DuplicateTid(tid)); // reused as "no such tid"
        }
        let row = table.schema().check_row(row)?;
        self.record(name, ChangeRecord { ts, op: ChangeOp::Update, tid, after: Some(row) });
        Ok(())
    }

    /// Deletes the row under `tid` at `ts`.
    pub fn delete_row(
        &mut self,
        name: &Ident,
        tid: Tid,
        ts: Timestamp,
    ) -> Result<(), StorageError> {
        self.check_ts(ts)?;
        if self.live(name)?.get(tid).is_none() {
            return Err(StorageError::DuplicateTid(tid));
        }
        self.record(name, ChangeRecord { ts, op: ChangeOp::Delete, tid, after: None });
        Ok(())
    }

    /// Re-applies a previously recorded change (crash-recovery replay).
    /// The record flows through the normal mutation paths, so histories,
    /// tid allocation, and any attached sink behave exactly as at original
    /// execution time.
    pub fn apply_change(&mut self, name: &Ident, rec: &ChangeRecord) -> Result<(), StorageError> {
        match (rec.op, &rec.after) {
            (ChangeOp::Insert, Some(row)) => {
                self.insert_with_tid(name, rec.tid, row.clone(), rec.ts)
            }
            (ChangeOp::Update, Some(row)) => self.update_row(name, rec.tid, row.clone(), rec.ts),
            (ChangeOp::Delete, None) => self.delete_row(name, rec.tid, rec.ts),
            (op, _) => Err(StorageError::Unsupported(format!(
                "malformed change record: {op:?} with{} after-image",
                if rec.after.is_some() { "" } else { "out" }
            ))),
        }
    }

    /// Commits one checked change: the sink sees it, the table's store
    /// records it, the clock moves to it.
    fn record(&mut self, name: &Ident, rec: ChangeRecord) {
        if let Some(s) = &self.sink {
            s.on_change(name, &rec);
        }
        self.last_ts = rec.ts;
        // Callers looked the table up and ran `check_ts` before building
        // the record, so this cannot fail; assert in debug builds rather
        // than panic in release.
        debug_assert!(self.versions.contains_key(name), "record of a known table");
        if let Some(v) = self.versions.get_mut(name) {
            let recorded = v.record(rec);
            debug_assert!(recorded.is_ok(), "timestamp already checked");
        }
    }

    /// Executes any statement at `ts`. `SELECT` runs against the state as of
    /// `ts`; DML mutates and records backlog entries.
    pub fn execute(
        &mut self,
        stmt: &Statement,
        ts: Timestamp,
    ) -> Result<ExecOutcome, StorageError> {
        match stmt {
            Statement::Select(q) => {
                Ok(ExecOutcome::Rows(execute_query(&self.at(ts), q, JoinStrategy::Auto)?))
            }
            Statement::CreateTable(ct) => {
                self.execute_create(ct, ts)?;
                Ok(ExecOutcome::Created)
            }
            Statement::Insert(ins) => Ok(ExecOutcome::Affected(self.execute_insert(ins, ts)?)),
            Statement::Update(up) => Ok(ExecOutcome::Affected(self.execute_update(up, ts)?)),
            Statement::Delete(del) => Ok(ExecOutcome::Affected(self.execute_delete(del, ts)?)),
        }
    }

    fn execute_create(&mut self, ct: &CreateTable, ts: Timestamp) -> Result<(), StorageError> {
        let schema = Schema::new(ct.columns.iter().map(|c| (c.name.clone(), c.ty)).collect())?;
        self.create_table(ct.name.clone(), schema, ts)
    }

    fn execute_insert(&mut self, ins: &Insert, ts: Timestamp) -> Result<usize, StorageError> {
        let schema = self.live(&ins.table)?.schema().clone();
        // Fault gate before any row lands, so a faulted multi-row INSERT is
        // all-or-nothing.
        self.fault_on_scan(&ins.table)?;

        // Map provided columns to schema positions (all columns if omitted).
        let positions: Vec<usize> = if ins.columns.is_empty() {
            (0..schema.len()).collect()
        } else {
            ins.columns
                .iter()
                .map(|c| {
                    schema.position(c).ok_or_else(|| StorageError::UnknownColumn(c.value.clone()))
                })
                .collect::<Result<_, _>>()?
        };

        let mut count = 0;
        for row_exprs in &ins.rows {
            if row_exprs.len() != positions.len() {
                return Err(StorageError::ArityMismatch {
                    expected: positions.len(),
                    actual: row_exprs.len(),
                });
            }
            let mut row = vec![Value::Null; schema.len()];
            for (pos, e) in positions.iter().zip(row_exprs) {
                row[*pos] = eval_standalone(e)?;
            }
            self.insert(&ins.table, row, ts)?;
            count += 1;
        }
        Ok(count)
    }

    fn execute_update(&mut self, up: &Update, ts: Timestamp) -> Result<usize, StorageError> {
        let table = self.live(&up.table)?;
        let schema = table.schema();
        // The planning pass below scans the target table; the fault gate sits
        // in front of it, so a faulted UPDATE mutates nothing.
        self.fault_on_scan(&up.table)?;
        let scope = Scope::single(up.table.clone(), schema.clone());

        let pred = up.selection.as_ref().map(|p| compile(p, &scope)).transpose()?;
        let assignments: Vec<(usize, crate::eval::CompiledExpr)> = up
            .assignments
            .iter()
            .map(|(col, e)| {
                let pos = schema
                    .position(col)
                    .ok_or_else(|| StorageError::UnknownColumn(col.value.clone()))?;
                Ok((pos, compile(e, &scope)?))
            })
            .collect::<Result<_, StorageError>>()?;

        // Plan the new images first, then apply, so assignment expressions
        // all see the pre-update state.
        let mut planned: Vec<(Tid, Row)> = Vec::new();
        for (tid, row) in table.iter() {
            let keep = match &pred {
                Some(p) => p.truth(row)?.is_true(),
                None => true,
            };
            if !keep {
                continue;
            }
            let mut new_row = row.to_vec();
            for (pos, e) in &assignments {
                new_row[*pos] = e.eval(row)?.into_owned();
            }
            planned.push((tid, new_row));
        }
        let count = planned.len();
        for (tid, new_row) in planned {
            self.update_row(&up.table, tid, new_row, ts)?;
        }
        Ok(count)
    }

    fn execute_delete(&mut self, del: &Delete, ts: Timestamp) -> Result<usize, StorageError> {
        let table = self.live(&del.table)?;
        self.fault_on_scan(&del.table)?;
        let scope = Scope::single(del.table.clone(), table.schema().clone());
        let pred = del.selection.as_ref().map(|p| compile(p, &scope)).transpose()?;

        let mut doomed: Vec<Tid> = Vec::new();
        for (tid, row) in table.iter() {
            let hit = match &pred {
                Some(p) => p.truth(row)?.is_true(),
                None => true,
            };
            if hit {
                doomed.push(tid);
            }
        }
        let count = doomed.len();
        for tid in doomed {
            self.delete_row(&del.table, tid, ts)?;
        }
        Ok(count)
    }

    /// A read-only view of the database as of `ts`, usable as a
    /// [`RelationProvider`]. Resolves `b-T` names to backlog relations.
    pub fn at(&self, ts: Timestamp) -> DatabaseAt<'_> {
        DatabaseAt { db: self, ts }
    }

    /// Distinct instants in `[start, end]` at which any of `tables` (all
    /// tables if empty) changed, **prepended with `start`** — i.e. the data
    /// versions a `DATA-INTERVAL start TO end` clause selects (paper §3.1).
    /// Returns an empty list when `start > end`.
    pub fn versions_in(
        &self,
        tables: &[Ident],
        start: Timestamp,
        end: Timestamp,
    ) -> Vec<Timestamp> {
        if start > end {
            return Vec::new();
        }
        let mut instants = vec![start];
        for (name, v) in &self.versions {
            if !tables.is_empty() && !tables.contains(name) {
                continue;
            }
            instants.extend(v.change_instants(start, end));
        }
        instants.sort_unstable();
        instants.dedup();
        instants
    }

    /// The version stores, sorted by table name — what a checkpoint
    /// persists. Always `Some`: the `Option` is frozen API (the `ledger/`
    /// benchmark package `.map`s over it and may not be edited).
    pub fn mvcc_stores(&self) -> Option<Vec<&VersionStore>> {
        Some(self.versions.values().collect())
    }

    /// Rebuilds a database from decoded version stores (crash
    /// recovery restoring a checkpoint). The stores are the whole state:
    /// live tables are their open versions, and tid watermarks are exact
    /// because every insert opened a version.
    pub fn from_mvcc_stores(
        stores: Vec<VersionStore>,
        last_ts: Timestamp,
    ) -> Result<Self, StorageError> {
        let mut db = Database::new();
        for store in stores {
            let name = store.name().clone();
            if db.versions.contains_key(&name) {
                return Err(StorageError::DuplicateTable(name));
            }
            db.versions.insert(name, store);
        }
        db.last_ts = last_ts;
        Ok(db)
    }

    /// The database as it was after each table's first `counts[name]`
    /// recorded changes, with the clock at `last_ts` — an O(prefix) fork
    /// (no change-by-change replay) used by crash recovery to re-prepare a
    /// mid-stream audit registration against the exact state it originally
    /// saw. Tables absent from `counts` (created past the cut) are omitted.
    pub fn fork_prefix(
        &self,
        counts: &BTreeMap<Ident, usize>,
        last_ts: Timestamp,
    ) -> Result<Self, StorageError> {
        let stores = counts
            .iter()
            .map(|(name, n)| match self.versions.get(name) {
                Some(store) => Ok(store.truncated(*n)),
                None => Err(StorageError::UnknownTable(name.clone())),
            })
            .collect::<Result<_, _>>()?;
        Database::from_mvcc_stores(stores, last_ts)
    }
}

/// Evaluates a standalone expression (no column references), used for
/// `INSERT … VALUES` rows.
fn eval_standalone(e: &audex_sql::Expr) -> Result<Value, StorageError> {
    use audex_sql::ast::{Expr, UnaryOp};
    match e {
        Expr::Literal(l) => Ok(literal_value(l)),
        Expr::Unary { op: UnaryOp::Neg, expr } => match eval_standalone(expr)? {
            Value::Int(v) => {
                Ok(Value::Int(v.checked_neg().ok_or(StorageError::ArithmeticOverflow)?))
            }
            Value::Float(v) => Ok(Value::Float(-v)),
            other => Err(StorageError::TypeMismatch {
                operation: "-".into(),
                left: "NUMBER",
                right: other.type_name(),
            }),
        },
        Expr::Column(c) => Err(StorageError::UnknownColumn(c.column.value.clone())),
        other => {
            // Fall back to the compiled evaluator with an empty scope.
            let scope = Scope::new(Vec::new())?;
            let compiled = compile(other, &scope)?;
            Ok(compiled.eval::<[Value]>(&[])?.into_owned())
        }
    }
}

/// [`Database::at`] view: the database frozen at one instant.
#[derive(Clone, Copy)]
pub struct DatabaseAt<'a> {
    db: &'a Database,
    ts: Timestamp,
}

impl<'a> DatabaseAt<'a> {
    /// The frozen instant.
    pub fn ts(&self) -> Timestamp {
        self.ts
    }

    /// Runs a query against this instant.
    pub fn query(&self, q: &Query) -> Result<ResultSet, StorageError> {
        execute_query(self, q, JoinStrategy::Auto)
    }

    /// Runs a query with an explicit join strategy (B6 ablation).
    pub fn query_with(&self, q: &Query, strategy: JoinStrategy) -> Result<ResultSet, StorageError> {
        execute_query(self, q, strategy)
    }
}

use audex_sql::ast::Query;

impl<'a> RelationProvider for DatabaseAt<'a> {
    fn relation(&self, name: &Ident) -> Result<Arc<Relation>, StorageError> {
        // Fault gates run before any cache consultation, so a planned fault
        // fires even when the snapshot it addresses is already cached.

        // Backlog relation `b-T`?
        if name.value.get(..2).is_some_and(|p| p.eq_ignore_ascii_case("b-")) {
            let base_ident = Ident::new(name.value[2..].to_ascii_lowercase());
            if let Some(v) = self.db.versions.get(&base_ident) {
                self.db.fault_on_scan(&base_ident)?;
                self.db.fault_on_replay(&base_ident, self.ts)?;
                let key = (base_ident, SnapshotKind::Backlog, v.change_prefix_len(self.ts));
                return Ok(self.db.snapshots.get_or_build(key, || v.backlog_relation(self.ts)));
            }
        }
        let v =
            self.db.versions.get(name).ok_or_else(|| StorageError::UnknownTable(name.clone()))?;
        self.db.fault_on_scan(name)?;
        // Live and historical reads are one visibility filter over the
        // version store, cached under the visible change prefix. Only a
        // read before the last change replays history: it alone meets the
        // backlog fault gate and counts as visibility-scan effort.
        let historical = self.ts < self.db.last_ts;
        if historical {
            self.db.fault_on_replay(name, self.ts)?;
        }
        let key = (name.clone(), SnapshotKind::Replay, v.change_prefix_len(self.ts));
        Ok(self.db.snapshots.get_or_build(key, || {
            let (mut rel, scan) = v.relation_as_of(self.ts);
            if historical {
                self.db.mvcc_obs.record_scan(scan);
                // A historical snapshot is copied into fresh row images.
                // Sharing these too leaves glibc unable to trim a
                // connection thread's arena once the data is dropped
                // (EXPERIMENTS B23: +58–71% peak RSS on the DML-free ledger
                // workloads); live snapshots, rebuilt after every write,
                // share.
                for (_, row) in &mut rel.rows {
                    *row = Arc::from(&row[..]);
                }
            }
            rel
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use audex_sql::ast::TypeName;
    use audex_sql::{parse_query, parse_statement};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            Ident::new("Patients"),
            Schema::of(&[
                ("pid", TypeName::Text),
                ("zipcode", TypeName::Text),
                ("disease", TypeName::Text),
            ]),
            Timestamp(0),
        )
        .unwrap();
        db.insert(
            &Ident::new("Patients"),
            vec!["p1".into(), "120016".into(), "cancer".into()],
            Timestamp(10),
        )
        .unwrap();
        db.insert(
            &Ident::new("Patients"),
            vec!["p2".into(), "145568".into(), "flu".into()],
            Timestamp(20),
        )
        .unwrap();
        db
    }

    #[test]
    fn select_sees_state_as_of_ts() {
        let db = db();
        let q = parse_query("SELECT pid FROM Patients").unwrap();
        assert_eq!(db.at(Timestamp(10)).query(&q).unwrap().rows.len(), 1);
        assert_eq!(db.at(Timestamp(20)).query(&q).unwrap().rows.len(), 2);
        assert_eq!(db.at(Timestamp(5)).query(&q).unwrap().rows.len(), 0);
    }

    #[test]
    fn dml_statements_drive_backlog() {
        let mut db = db();
        let up =
            parse_statement("UPDATE Patients SET zipcode = '999999' WHERE pid = 'p1'").unwrap();
        assert_eq!(db.execute(&up, Timestamp(30)).unwrap(), ExecOutcome::Affected(1));
        let del = parse_statement("DELETE FROM Patients WHERE pid = 'p2'").unwrap();
        assert_eq!(db.execute(&del, Timestamp(40)).unwrap(), ExecOutcome::Affected(1));

        // Old version still visible in the past.
        let q = parse_query("SELECT zipcode FROM Patients WHERE pid = 'p1'").unwrap();
        assert_eq!(db.at(Timestamp(20)).query(&q).unwrap().rows[0][0], Value::Str("120016".into()));
        assert_eq!(db.at(Timestamp(30)).query(&q).unwrap().rows[0][0], Value::Str("999999".into()));

        // p2 gone at 40, present at 30.
        let q2 = parse_query("SELECT pid FROM Patients").unwrap();
        assert_eq!(db.at(Timestamp(30)).query(&q2).unwrap().rows.len(), 2);
        assert_eq!(db.at(Timestamp(40)).query(&q2).unwrap().rows.len(), 1);
    }

    #[test]
    fn insert_statement_with_column_subset() {
        let mut db = db();
        let ins = parse_statement("INSERT INTO Patients (pid) VALUES ('p3')").unwrap();
        db.execute(&ins, Timestamp(50)).unwrap();
        let q = parse_query("SELECT zipcode FROM Patients WHERE pid = 'p3'").unwrap();
        assert_eq!(db.at(Timestamp(50)).query(&q).unwrap().rows[0][0], Value::Null);
    }

    #[test]
    fn insert_arity_check() {
        let mut db = db();
        let ins = parse_statement("INSERT INTO Patients (pid, zipcode) VALUES ('p3')").unwrap();
        assert!(db.execute(&ins, Timestamp(50)).is_err());
    }

    #[test]
    fn update_expressions_see_pre_update_state() {
        let mut db = Database::new();
        db.create_table(Ident::new("t"), Schema::of(&[("a", TypeName::Int)]), Timestamp(0))
            .unwrap();
        db.insert(&Ident::new("t"), vec![Value::Int(1)], Timestamp(1)).unwrap();
        db.insert(&Ident::new("t"), vec![Value::Int(2)], Timestamp(1)).unwrap();
        let up = parse_statement("UPDATE t SET a = a + 10").unwrap();
        assert_eq!(db.execute(&up, Timestamp(2)).unwrap(), ExecOutcome::Affected(2));
        let q = parse_query("SELECT a FROM t WHERE a > 10").unwrap();
        assert_eq!(db.at(Timestamp(2)).query(&q).unwrap().rows.len(), 2);
    }

    #[test]
    fn backlog_table_visible_as_b_name() {
        let mut db = db();
        let up =
            parse_statement("UPDATE Patients SET zipcode = '000000' WHERE pid = 'p1'").unwrap();
        db.execute(&up, Timestamp(30)).unwrap();
        let q = parse_query("SELECT zipcode FROM b-Patients WHERE pid = 'p1'").unwrap();
        let rs = db.at(Timestamp(100)).query(&q).unwrap();
        assert_eq!(rs.rows.len(), 2); // both versions
    }

    #[test]
    fn versions_in_enumerates_instants() {
        let mut db = db();
        let up = parse_statement("UPDATE Patients SET zipcode = '1' WHERE pid = 'p1'").unwrap();
        db.execute(&up, Timestamp(30)).unwrap();
        let v = db.versions_in(&[], Timestamp(0), Timestamp(100));
        assert_eq!(v, vec![Timestamp(0), Timestamp(10), Timestamp(20), Timestamp(30)]);
        let v = db.versions_in(&[], Timestamp(15), Timestamp(25));
        assert_eq!(v, vec![Timestamp(15), Timestamp(20)]);
        assert!(db.versions_in(&[], Timestamp(50), Timestamp(40)).is_empty());
    }

    #[test]
    fn versions_in_filters_by_table() {
        let mut db = db();
        db.create_table(Ident::new("Other"), Schema::of(&[("x", TypeName::Int)]), Timestamp(20))
            .unwrap();
        db.insert(&Ident::new("Other"), vec![Value::Int(1)], Timestamp(33)).unwrap();
        let v = db.versions_in(&[Ident::new("Patients")], Timestamp(0), Timestamp(100));
        assert_eq!(v, vec![Timestamp(0), Timestamp(10), Timestamp(20)]);
    }

    #[test]
    fn non_monotonic_mutation_rejected() {
        let mut db = db();
        let r = db.insert(
            &Ident::new("Patients"),
            vec!["p9".into(), "x".into(), "y".into()],
            Timestamp(5),
        );
        assert!(matches!(r, Err(StorageError::NonMonotonicTimestamp { .. })));
    }

    #[test]
    fn create_table_statement() {
        let mut db = Database::new();
        let ct = parse_statement("CREATE TABLE t (a INT, b TEXT)").unwrap();
        assert_eq!(db.execute(&ct, Timestamp(1)).unwrap(), ExecOutcome::Created);
        assert!(db.execute(&ct, Timestamp(2)).is_err()); // duplicate
    }

    #[test]
    fn unknown_backlog_base_errors() {
        let db = db();
        let q = parse_query("SELECT x FROM b-NoSuch").unwrap();
        assert!(db.at(Timestamp(10)).query(&q).is_err());
    }

    #[test]
    fn delete_without_predicate_clears_table() {
        let mut db = db();
        let del = parse_statement("DELETE FROM Patients").unwrap();
        assert_eq!(db.execute(&del, Timestamp(30)).unwrap(), ExecOutcome::Affected(2));
        assert!(db.table(&Ident::new("Patients")).unwrap().is_empty());
    }

    #[test]
    fn injected_scan_fault_fails_exactly_the_addressed_read() {
        let mut db = db();
        db.arm_faults(FaultPlan::new().fail_scan("Patients", 2));
        let q = parse_query("SELECT pid FROM Patients").unwrap();
        assert!(db.at(Timestamp(100)).query(&q).is_ok(), "scan #1 survives");
        let err = db.at(Timestamp(100)).query(&q).unwrap_err();
        assert!(matches!(err, StorageError::Injected { .. }), "{err:?}");
        assert!(err.to_string().contains("scan #2 of table Patients"), "{err}");
        assert!(db.at(Timestamp(100)).query(&q).is_ok(), "scan #3 survives");
        db.disarm_faults();
        assert!(!db.faults_armed());
    }

    #[test]
    fn faulted_update_applies_nothing() {
        let mut db = db();
        let before = db.clone();
        db.arm_faults(FaultPlan::new().fail_all_scans("Patients"));
        let up = parse_statement("UPDATE Patients SET zipcode = '999999'").unwrap();
        let err = db.execute(&up, Timestamp(30)).unwrap_err();
        assert!(matches!(err, StorageError::Injected { .. }), "{err:?}");
        db.disarm_faults();
        assert_eq!(db, before, "no partially-applied UPDATE");
        assert_eq!(db.last_ts(), Timestamp(20), "clock untouched");
    }

    #[test]
    fn faulted_delete_applies_nothing() {
        let mut db = db();
        let before = db.clone();
        db.arm_faults(FaultPlan::new().fail_scan("Patients", 1));
        let del = parse_statement("DELETE FROM Patients").unwrap();
        assert!(db.execute(&del, Timestamp(30)).is_err());
        db.disarm_faults();
        assert_eq!(db, before, "no partially-applied DELETE");
    }

    #[test]
    fn faulted_multi_row_insert_is_atomic() {
        let mut db = db();
        let before = db.clone();
        db.arm_faults(FaultPlan::new().fail_scan("Patients", 1));
        let ins = parse_statement("INSERT INTO Patients VALUES ('p3', '1', 'a'), ('p4', '2', 'b')")
            .unwrap();
        assert!(db.execute(&ins, Timestamp(30)).is_err());
        db.disarm_faults();
        assert_eq!(db, before, "no partially-applied INSERT");
    }

    #[test]
    fn backlog_cutoff_fails_time_travel_but_not_live_reads() {
        let mut db = db(); // changes at 0, 10, 20 → last_ts 20
        db.arm_faults(FaultPlan::new().fail_backlog_past("Patients", Timestamp(10)));
        let q = parse_query("SELECT pid FROM Patients").unwrap();
        // Live reads (ts >= last_ts) never replay the backlog.
        assert!(db.at(Timestamp(20)).query(&q).is_ok());
        assert!(db.at(Timestamp(100)).query(&q).is_ok());
        // Replays up to the cutoff still work; past it they fail.
        assert!(db.at(Timestamp(10)).query(&q).is_ok());
        let err = db.at(Timestamp(15)).query(&q).unwrap_err();
        assert!(err.to_string().contains("backlog replay of Patients"), "{err}");
        // The explicit backlog relation obeys the cutoff too.
        let qb = parse_query("SELECT pid FROM b-Patients").unwrap();
        assert!(db.at(Timestamp(100)).query(&qb).is_err());
        assert!(db.at(Timestamp(10)).query(&qb).is_ok());
    }

    #[test]
    fn planned_fault_fires_even_when_snapshot_cached() {
        let mut db = db();
        let q = parse_query("SELECT pid FROM Patients").unwrap();
        // Warm the cache with an unfaulted read.
        assert!(db.at(Timestamp(100)).query(&q).is_ok());
        assert!(db.snapshot_stats().misses >= 1, "first read populates the cache");
        // The planned fault must not be satisfied from cache: the gate runs
        // before the lookup, so the very next scan still fails.
        db.arm_faults(FaultPlan::new().fail_scan("Patients", 1));
        let err = db.at(Timestamp(100)).query(&q).unwrap_err();
        assert!(matches!(err, StorageError::Injected { .. }), "{err:?}");
        db.disarm_faults();
        assert!(db.at(Timestamp(100)).query(&q).is_ok(), "disarmed reads hit the cache again");
    }

    #[test]
    fn snapshot_cache_is_invisible_to_equality_and_clones_start_cold() {
        let db = db();
        let q = parse_query("SELECT pid FROM Patients").unwrap();
        db.at(Timestamp(100)).query(&q).unwrap();
        db.at(Timestamp(100)).query(&q).unwrap();
        let stats = db.snapshot_stats();
        assert_eq!(stats, SnapshotStats { hits: 1, misses: 1 });
        // The cache is derived data: a warmed database still equals a cold
        // clone, and the clone gets its own empty cache (clones may diverge,
        // so sharing entries would alias different content).
        let cold = db.clone();
        assert_eq!(cold.snapshot_stats(), SnapshotStats::default());
        assert_eq!(db, cold);
    }

    #[test]
    fn shared_row_images_are_isolated_from_later_writes() {
        let name = Ident::new("Patients");
        let deep = |rel: &Relation| -> Vec<(Tid, Row)> {
            rel.rows.iter().map(|(tid, row)| (*tid, row.to_vec())).collect()
        };
        let writes = [
            ("UPDATE Patients SET zipcode = '999999', disease = 'gout'", 30),
            ("DELETE FROM Patients WHERE pid = 'p2'", 40),
            ("INSERT INTO Patients VALUES ('p1', '999999', 'gout')", 50),
        ];

        // A relation handed out before a write keeps the rows it was built
        // with, whatever later writes do to the same tuples.
        let mut live = db();
        for (sql, ts) in writes {
            let rel = live.at(live.last_ts()).relation(&name).unwrap();
            let rows = deep(&rel);
            live.execute(&parse_statement(sql).unwrap(), Timestamp(ts)).unwrap();
            assert_eq!(deep(&rel), rows, "relation handed out before `{sql}`");
        }

        // A clone shares every image; writing to it leaves the original's
        // reads and equality as they were.
        let original = db();
        let untouched = db();
        let mut fork = original.clone();
        let before: Vec<_> = [10, 20, 100]
            .map(|ts| deep(&original.at(Timestamp(ts)).relation(&name).unwrap()))
            .into();
        for (sql, ts) in writes {
            fork.execute(&parse_statement(sql).unwrap(), Timestamp(ts)).unwrap();
        }
        assert_ne!(fork, original);
        assert_eq!(original, untouched, "the clone's writes reached the original");
        for (i, ts) in [10, 20, 100].into_iter().enumerate() {
            let rel = original.at(Timestamp(ts)).relation(&name).unwrap();
            assert_eq!(deep(&rel), before[i], "original read at {ts}");
        }
        let q = parse_query("SELECT zipcode FROM Patients").unwrap();
        assert_eq!(original.at(Timestamp(100)).query(&q), untouched.at(Timestamp(100)).query(&q));
    }

    /// A database with updates, a same-instant delete and a later insert.
    fn scripted_db() -> Database {
        let mut db = Database::new();
        for (sql, ts) in [
            ("CREATE TABLE p (pid TEXT, zip TEXT)", 0),
            ("INSERT INTO p VALUES ('p1', 'z1'), ('p2', 'z2')", 10),
            ("UPDATE p SET zip = 'z9' WHERE pid = 'p1'", 20),
            ("DELETE FROM p WHERE pid = 'p2'", 20),
            ("INSERT INTO p VALUES ('p3', 'z3')", 30),
        ] {
            db.execute(&parse_statement(sql).unwrap(), Timestamp(ts)).unwrap();
        }
        db
    }

    #[test]
    fn mvcc_reads_count_visibility_probes() {
        let db = scripted_db();
        let q = parse_query("SELECT pid FROM p").unwrap();
        // A historical read reconstructs via the version store.
        db.at(Timestamp(15)).query(&q).unwrap();
        let scan = db.mvcc_scan_stats();
        assert!(scan.probes >= 2, "{scan:?}");
        assert!(scan.versions_examined >= scan.probes);
        // Live reads count no visibility-scan effort.
        let before = db.mvcc_scan_stats();
        db.at(Timestamp(100)).query(&q).unwrap();
        assert_eq!(db.mvcc_scan_stats(), before);
        let stats = db.mvcc_stats();
        assert_eq!(stats.live_versions, 2, "p1@z9 and p3");
        assert_eq!(stats.dead_versions, 2, "p1@z1 and deleted p2");
    }

    #[test]
    fn fork_prefix_reconstructs_midstream_states() {
        let db = scripted_db();
        let p = Ident::new("p");
        // Cut after the first three changes (2 inserts + 1 update, the
        // DELETE and the later INSERT dropped) with the clock at 20.
        let mut counts = BTreeMap::new();
        counts.insert(p.clone(), 3usize);
        let fork = db.fork_prefix(&counts, Timestamp(20)).unwrap();
        assert_eq!(fork.last_ts(), Timestamp(20));
        let q = parse_query("SELECT pid, zip FROM p").unwrap();
        assert_eq!(fork.at(Timestamp(20)).query(&q).unwrap().rows.len(), 2, "p2 still alive");
        // The fork's past matches the original's past.
        assert_eq!(
            fork.at(Timestamp(10)).query(&q).unwrap(),
            db.at(Timestamp(10)).query(&q).unwrap()
        );
        // Tids continue past the cut exactly as the original did.
        let mut fork = fork;
        let tid = fork.insert(&p, vec!["p4".into(), "z4".into()], Timestamp(21)).unwrap();
        assert_eq!(tid, Tid(3), "watermark preserved across the fork");
        // Unknown tables are rejected.
        let mut bad = BTreeMap::new();
        bad.insert(Ident::new("nosuch"), 1usize);
        assert!(db.fork_prefix(&bad, Timestamp(20)).is_err());
    }

    #[test]
    fn mvcc_stores_round_trip_through_from_mvcc_stores() {
        let db = scripted_db();
        let stores: Vec<_> = db.mvcc_stores().unwrap().into_iter().cloned().collect();
        let rebuilt = Database::from_mvcc_stores(stores, db.last_ts()).unwrap();
        assert_eq!(rebuilt, db, "tables, versions, and clock all restored");
    }

    #[test]
    fn fault_state_is_invisible_to_equality_and_clone_shares_counters() {
        let mut a = db();
        let b = db();
        a.arm_faults(FaultPlan::new().fail_scan("Patients", 2));
        assert_eq!(a, b, "equality ignores the armed plan");
        assert!(a.faults_armed());
        // A clone shares the armed state: its first scan is ordinal #2.
        let c = a.clone();
        let q = parse_query("SELECT pid FROM Patients").unwrap();
        assert!(a.at(Timestamp(100)).query(&q).is_ok());
        assert!(c.at(Timestamp(100)).query(&q).is_err(), "clone continues the count");
    }
}
