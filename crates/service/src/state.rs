//! The service engine room: one mutable state machine, transport-agnostic.
//!
//! [`ServiceCore`] owns the versioned [`Database`], the append-only
//! [`QueryLog`], the incrementally maintained [`TouchIndex`] and the
//! [`OnlineAuditor`] with its running per-audit batch state. Each protocol
//! request maps to one `handle` call; the transports in
//! [`crate::server`] serialize calls behind a mutex, so handlers can
//! assume exclusive access.
//!
//! # Invariant: the index mirrors the log
//!
//! Every entry appended to the log is folded into the touch index in the
//! same step (footprint executed once, at the entry's own execution
//! instant — the paper's backlog methodology makes later DML irrelevant to
//! earlier footprints, so the fold never needs revisiting). Admission
//! control runs *before* mutation: if the request's governor trips, the
//! entry is rejected whole — no log append, no index growth, `"busy":true`
//! in the response — so a rejected request leaves no trace and the client
//! can simply retry.
//!
//! # One mutator per journaled record
//!
//! `ServiceCore::apply` turns a [`WalRecord`] into state for live handlers
//! (which validate, build the record, apply it and journal that same
//! record) and WAL-tail recovery alike; every log entry goes through
//! `ServiceCore::ingest`. Only DML is journaled another way, through
//! [`audex_storage::ChangeSink`]: one statement emits many change records.
//!
//! # Pinned audits
//!
//! A registered expression is prepared once, against the backlog as of
//! registration, and stays pinned to that target view — like a prepared
//! statement. `audit` answers for the pinned view straight from the index;
//! re-register to pick up later DML.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;

use audex_core::{
    AuditEngine, AuditError, AuditId, AuditPhase, EngineObs, EngineOptions, Governor,
    OnlineAuditor, PreparedAudit, QueryScore, ResourceLimits, TouchIndex,
};
use audex_log::{AccessContext, AppendError, LoggedQuery, QueryId, QueryLog};
use audex_obs::{Counter, Gauge, Histogram, Registry, Tracer};
use audex_persist::{CheckpointDerived, DbSnapshot, Journal, PersistError, Recovered, WalRecord};
use audex_sql::{Ident, Timestamp};
use audex_storage::{ChangeSink, Database, JoinStrategy};
use audex_triage::{fnv1a64, RedactedScore, ReviewQueue, ReviewState};

use crate::json::{obj, Json};
use crate::proto::Request;

/// Tuning for a running service.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceConfig {
    /// Per-request governor limits (admission control). Unlimited by
    /// default.
    pub limits: ResourceLimits,
    /// Join strategy for footprints and scoring.
    pub strategy: JoinStrategy,
    /// With a journal attached: write a checkpoint once this many records
    /// accumulate past the newest one. `None` disables auto-checkpointing
    /// (explicit `compact` still works).
    pub checkpoint_every: Option<u64>,
    /// Broadcast a `metrics` event to subscribers once every N ingested
    /// queries. `None` disables periodic metrics events (the `metrics`
    /// request still answers on demand).
    pub metrics_every: Option<u64>,
    /// Keep raw SQL out of durable storage (`--redact-log`): each accepted
    /// append is journaled as structural metadata plus a hash instead of
    /// its text.
    pub redact_log: bool,
    /// Auditor review budget: the default page size of the `queue` command
    /// (`--review-budget`). `None` falls back to 10.
    pub review_budget: Option<u64>,
}

/// Monotonic counters surfaced by the `stats` command. A point-in-time
/// read of the registry-backed counters ([`ServiceCore::counters`]); the
/// registry itself ([`ServiceCore::registry`]) is the live telemetry path.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceCounters {
    /// Log entries accepted, scored and indexed.
    pub queries_ingested: u64,
    /// Requests refused (parse errors, order violations, governor trips).
    /// Refusals never reach the WAL, so recovery restarts this from the
    /// checkpoint's value (0 without one).
    pub queries_rejected: u64,
    /// DML statements applied to the backlog. Statement boundaries are not
    /// journaled, so past the checkpoint recovery counts change records.
    pub dml_statements: u64,
    /// Requests that hit a governor limit (deadline/step budget). Like
    /// `queries_rejected`, restarts from the checkpoint's value on recovery.
    pub governor_trips: u64,
    /// Score/verdict events produced for subscribers. Periodic `metrics`
    /// events are *not* counted: recovery replay does not re-emit them, and
    /// the counter must rebuild byte-identically from the journal.
    pub events_emitted: u64,
}

/// The service's registry-backed counter/histogram handles — the single
/// telemetry path behind both `stats` and the Prometheus `metrics`
/// exposition. Handles are created once at construction; updates are
/// lock-free atomics.
struct CoreMetrics {
    ingested: Counter,
    rejected: Counter,
    dml: Counter,
    governor_rejections: Counter,
    events: Counter,
    ingest_seconds: Histogram,
    triage_open: Gauge,
    triage_acked: Gauge,
    triage_dismissed: Gauge,
}

impl CoreMetrics {
    fn new(registry: &Registry) -> CoreMetrics {
        CoreMetrics {
            ingested: registry.counter(
                "audex_queries_ingested_total",
                "Log entries accepted, scored and indexed.",
                &[],
            ),
            rejected: registry.counter(
                "audex_queries_rejected_total",
                "Requests refused (parse errors, order violations, governor trips).",
                &[],
            ),
            dml: registry.counter(
                "audex_dml_statements_total",
                "DML statements applied to the backlog.",
                &[],
            ),
            governor_rejections: registry.counter(
                "audex_governor_rejections_total",
                "Requests rejected by a governor limit (backpressure).",
                &[],
            ),
            events: registry.counter(
                "audex_events_emitted_total",
                "Score/verdict events produced for subscribers.",
                &[],
            ),
            ingest_seconds: registry.latency_histogram(
                "audex_ingest_seconds",
                "Wall-clock to admit, score, and index one log append.",
                &[],
            ),
            triage_open: registry.gauge(
                "audex_triage_open",
                "Flagged queries awaiting review.",
                &[],
            ),
            triage_acked: registry.gauge(
                "audex_triage_acked",
                "Flagged queries acknowledged by a reviewer.",
                &[],
            ),
            triage_dismissed: registry.gauge(
                "audex_triage_dismissed",
                "Flagged queries dismissed as benign.",
                &[],
            ),
        }
    }

    /// The counters a checkpoint carries, in its order.
    fn checkpointed(&self) -> [&Counter; 5] {
        [&self.ingested, &self.rejected, &self.dml, &self.governor_rejections, &self.events]
    }

    fn publish_triage(&self, queue: &ReviewQueue) {
        let c = queue.counts();
        self.triage_open.set(c.open as i64);
        self.triage_acked.set(c.acked as i64);
        self.triage_dismissed.set(c.dismissed as i64);
    }
}

/// What one request produced.
pub struct Outcome {
    /// The single response line.
    pub response: Json,
    /// Zero or more event lines for subscribers.
    pub events: Vec<Json>,
    /// True when the request asked the service to stop.
    pub shutdown: bool,
}

impl Outcome {
    fn reply(response: Json) -> Outcome {
        Outcome { response, events: Vec::new(), shutdown: false }
    }
}

/// A standing audit, addressed in the online auditor by its stable
/// [`AuditId`] (ids survive unregistration — no index-shift hazard). The
/// expression text and preparation instant are not kept here: the journal's
/// Register records carry them, and recovery re-prepares from those.
#[derive(Debug, Clone)]
struct RegisteredAudit {
    name: String,
    id: AuditId,
}

/// The streaming audit service state machine.
pub struct ServiceCore {
    db: Database,
    log: QueryLog,
    index: TouchIndex,
    online: OnlineAuditor,
    registered: Vec<RegisteredAudit>,
    /// The ranked review queue over flagged queries.
    triage: ReviewQueue,
    config: ServiceConfig,
    journal: Option<Arc<Journal>>,
    /// Per-instance metrics registry (not process-global, so concurrent
    /// services — and tests — never share counters).
    registry: Arc<Registry>,
    /// Where the front-door counters live. Defaults to this core's own
    /// registry; a multi-tenant fleet points every shard at the shared
    /// fleet registry so each tenant's `stats` shows the one real front
    /// door instead of ten zeros.
    front_registry: Arc<Registry>,
    tracer: Arc<Tracer>,
    metrics: CoreMetrics,
    engine_obs: EngineObs,
}

impl ServiceCore {
    /// A service over a starting database (possibly empty) and an empty
    /// log.
    pub fn new(mut db: Database, config: ServiceConfig) -> ServiceCore {
        let registry = Registry::new();
        let tracer = Tracer::disabled();
        db.set_obs(&registry);
        let mut log = QueryLog::new();
        log.set_obs(&registry);
        let metrics = CoreMetrics::new(&registry);
        let engine_obs = EngineObs::new(Arc::clone(&registry), Arc::clone(&tracer));
        let mut online = OnlineAuditor::new(Vec::new());
        online.set_obs(&registry);
        // The auditor's shared execution doubles as the touch-index
        // footprint, so it must run with the index's join strategy.
        online.set_strategy(config.strategy);
        ServiceCore {
            db,
            log,
            index: TouchIndex::new(),
            online,
            registered: Vec::new(),
            triage: ReviewQueue::new(config.review_budget),
            config,
            journal: None,
            front_registry: Arc::clone(&registry),
            registry,
            tracer,
            metrics,
            engine_obs,
        }
    }

    /// Points the front-door fields of `stats` at a shared registry (the
    /// fleet registry, for tenant shards that don't own the TCP listener).
    pub fn set_front_registry(&mut self, registry: Arc<Registry>) {
        self.front_registry = registry;
    }

    /// The service's metrics registry (for exposition outside the request
    /// path — e.g. a final scrape at shutdown).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// The configuration this core was built with (tenant shards are
    /// spawned with the same knobs as the default core).
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// Attaches a phase tracer: pipeline spans (target-view, index-audit,
    /// WAL append/fsync, checkpoint) are recorded from here on.
    pub fn set_tracer(&mut self, tracer: Arc<Tracer>) {
        self.tracer = Arc::clone(&tracer);
        self.engine_obs = EngineObs::new(Arc::clone(&self.registry), Arc::clone(&tracer));
        if let Some(j) = &self.journal {
            j.set_obs(&self.registry, tracer);
        }
    }

    /// A service whose log already has history (CLI `--log`): every entry
    /// goes through the same `ingest` step as a `log` request, so the
    /// index, counters and triage queue are exactly as if the entries had
    /// arrived over the wire. Refuses, like the wire would, an entry that
    /// precedes its predecessor.
    pub fn preloaded(
        db: Database,
        log: QueryLog,
        config: ServiceConfig,
    ) -> Result<ServiceCore, AppendError> {
        let mut core = ServiceCore::new(db, config);
        for entry in log.snapshot() {
            core.ingest(entry)?;
        }
        Ok(core)
    }

    /// Current counters (a point-in-time read of the registry).
    pub fn counters(&self) -> ServiceCounters {
        ServiceCounters {
            queries_ingested: self.metrics.ingested.get(),
            queries_rejected: self.metrics.rejected.get(),
            dml_statements: self.metrics.dml.get(),
            governor_trips: self.metrics.governor_rejections.get(),
            events_emitted: self.metrics.events.get(),
        }
    }

    /// The versioned database (read-only view for batch tooling).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The query log (read-only view for batch tooling).
    pub fn log(&self) -> &QueryLog {
        &self.log
    }

    /// The attached journal, if the service is durable.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// How many standing audits are currently registered (`list-tenants`
    /// summaries).
    pub fn registered_audits(&self) -> usize {
        self.registered.len()
    }

    /// Whether a standing audit is registered under `name` (the fleet's
    /// `audit --all-tenants` fan-out skips tenants without it).
    pub fn has_audit(&self, name: &str) -> bool {
        self.registered.iter().any(|r| r.name == name)
    }

    /// Dispatch-index counters accumulated so far (probes, prunes,
    /// shortlist totals, rebuilds) — e.g. by recovery replay, for tooling
    /// that dismantles the core afterwards via [`ServiceCore::into_parts`].
    pub fn dispatch_stats(&self) -> audex_core::DispatchStats {
        self.online.dispatch_stats()
    }

    /// Dismantles the service into its database and log — the batch
    /// tooling path (`audex audit --data-dir`) recovers a service, then
    /// audits its state with the offline engine.
    pub fn into_parts(self) -> (Database, QueryLog) {
        (self.db, self.log)
    }

    /// Attaches a durability journal: from here on committed DML reaches
    /// its WAL through the [`ChangeSink`], and every other record is
    /// appended by the handler that applied it. Attach *after* recovery
    /// replay, or the replayed DML would be re-journaled.
    pub fn attach_journal(&mut self, journal: Arc<Journal>) {
        self.db.set_change_sink(Arc::clone(&journal) as Arc<dyn ChangeSink>);
        journal.set_obs(&self.registry, Arc::clone(&self.tracer));
        self.journal = Some(journal);
    }

    /// The review queue (read-only view for batch tooling and tests).
    pub fn triage(&self) -> &ReviewQueue {
        &self.triage
    }

    /// Writes a checkpoint covering everything journaled so far: the
    /// logical record prefix plus this service's derived state (touch-index
    /// footprints, per-audit batch states, counters). Errors if no journal
    /// is attached.
    pub fn checkpoint(&self) -> Result<PathBuf, PersistError> {
        let journal = self.journal.as_ref().ok_or_else(|| PersistError::Replay {
            site: "checkpoint requested but no journal is attached".into(),
        })?;
        let (footprints, skipped) = self.index.export();
        journal.write_checkpoint(CheckpointDerived {
            footprints,
            skipped,
            audit_states: self.online.export_states(),
            counters: self.metrics.checkpointed().map(Counter::get),
            triage: self.triage.export(),
            db: self.db.mvcc_stores().map(|stores| DbSnapshot {
                last_ts: self.db.last_ts(),
                stores: stores.into_iter().cloned().collect(),
            }),
        })
    }

    /// Rebuilds a service from what [`Journal::open`] recovered: the
    /// checkpoint's prefix through `restore_prefix` plus its derived state,
    /// then the WAL tail through `apply`, the mutator live requests use —
    /// under an unlimited governor, as every record was admitted once.
    ///
    /// The journal is *not* attached here; attach it after this returns so
    /// replay is not re-journaled.
    ///
    /// Takes `recovered` mutably because the checkpoint's derived state —
    /// footprints, batch states, triage items, and the MVCC snapshot — is
    /// *moved* into the new core rather than deep-copied (for a large store
    /// those clones dominate recovery time). The summary fields every
    /// caller reports afterwards (`covers_seq`, record counts, `notes`,
    /// `torn`, `next_seq`) are left intact.
    pub fn recovered(
        recovered: &mut Recovered,
        config: ServiceConfig,
    ) -> Result<ServiceCore, PersistError> {
        let mut core = ServiceCore::new(Database::new(), config);
        if let Some(ck) = &mut recovered.checkpoint {
            core.restore_prefix(&ck.records, ck.db.take())?;
            core.index = TouchIndex::from_parts(
                std::mem::take(&mut ck.footprints),
                std::mem::take(&mut ck.skipped),
            );
            core.online.restore_states(std::mem::take(&mut ck.audit_states)).map_err(|e| {
                PersistError::Replay { site: format!("checkpoint audit states: {e}") }
            })?;
            for (counter, value) in core.metrics.checkpointed().into_iter().zip(ck.counters) {
                counter.store(value);
            }
            core.triage.restore(std::mem::take(&mut ck.triage));
        }
        let base = recovered.checkpoint.as_ref().map_or(0, |c| c.covers_seq);
        let governor = Governor::unlimited();
        for (i, rec) in recovered.tail.iter().enumerate() {
            core.apply(rec, &governor).map_err(|e| replay_error(base + i as u64, &e))?;
        }
        core.metrics.publish_triage(&core.triage);
        Ok(core)
    }

    /// Rebuilds the raw state a checkpoint covers — log, database,
    /// registrations, weights — through `apply`, except that log entries
    /// are appended unparsed and unscored: the derived state restores
    /// wholesale right after, overwriting anything `apply` derived here.
    /// With a version-store `snap` ([`Database::from_mvcc_stores`]) the
    /// DML is only *counted*, so a registration followed by DML re-prepares
    /// at its recorded `now` against a [`Database::fork_prefix`] of exactly
    /// what it saw. Without one (a checkpoint from before snapshots) the
    /// DML is applied record by record.
    fn restore_prefix(
        &mut self,
        records: &[WalRecord],
        snap: Option<DbSnapshot>,
    ) -> Result<(), PersistError> {
        let counting = snap.is_some();
        if let Some(snap) = snap {
            self.db = Database::from_mvcc_stores(snap.stores, snap.last_ts).map_err(|e| {
                PersistError::Replay { site: format!("checkpoint db snapshot: {e}") }
            })?;
            self.db.set_obs(&self.registry);
        }

        // A registration no DML follows saw exactly the restored database
        // and needs no fork.
        let last_dml = records
            .iter()
            .rposition(|r| matches!(r, WalRecord::CreateTable { .. } | WalRecord::Change { .. }));

        let governor = Governor::unlimited();
        let mut counts: BTreeMap<Ident, usize> = BTreeMap::new();
        let mut clock = Timestamp(0); // a fresh database's last_ts
        for (seq, rec) in records.iter().enumerate() {
            let fail = |what: &dyn std::fmt::Display| replay_error(seq as u64, what);
            match rec {
                WalRecord::CreateTable { name, ts, .. } if counting => {
                    counts.entry(name.clone()).or_insert(0);
                    clock = clock.max(*ts);
                }
                WalRecord::Change { table, rec } if counting => {
                    *counts.entry(table.clone()).or_insert(0) += 1;
                    clock = clock.max(rec.ts);
                }
                WalRecord::LogAppend { ts, user, role, purpose, sql } => {
                    let context = AccessContext::new(user.clone(), role.clone(), purpose.clone());
                    self.log.record_prevalidated(sql, *ts, context);
                }
                WalRecord::Register { name, expr, now } if counting && last_dml > Some(seq) => {
                    let fork = self.db.fork_prefix(&counts, clock).map_err(|e| fail(&e))?;
                    let prepared =
                        self.prepare_audit(&fork, expr, *now, &governor).map_err(|e| fail(&e))?;
                    // The fork's reads are the ones the live run charged to
                    // the primary database.
                    self.db.absorb_scan(fork.mvcc_scan_stats());
                    self.install_audit(name.clone(), prepared);
                }
                // Everything else applies exactly as it did live.
                other => self.apply(other, &governor).map_err(|e| fail(&e))?,
            }
        }
        Ok(())
    }

    /// Applies one journaled record: WAL-tail replay, and the mutation of
    /// every live handler but `dml` (journaled by the change sink) and
    /// `log` (which `ingest`s the entry it parsed). `governor` bounds a
    /// registration's preparation.
    fn apply(&mut self, rec: &WalRecord, governor: &Governor) -> Result<(), Refusal> {
        let invalid = |e: &dyn std::fmt::Display| Refusal::Invalid(e.to_string());
        match rec {
            WalRecord::CreateTable { name, schema, ts } => {
                self.db.create_table(name.clone(), schema.clone(), *ts).map_err(|e| invalid(&e))?;
                self.metrics.dml.inc();
            }
            WalRecord::Change { table, rec } => {
                self.db.apply_change(table, rec).map_err(|e| invalid(&e))?;
                // Statement boundaries are not journaled (one statement
                // may emit many change records), so replay counts records.
                self.metrics.dml.inc();
            }
            WalRecord::LogAppend { ts, user, role, purpose, sql } => {
                let query = audex_sql::parse_query(sql)
                    .map_err(|e| Refusal::Invalid(format!("query does not parse: {e}")))?;
                let context = AccessContext::new(user.clone(), role.clone(), purpose.clone());
                let entry =
                    LoggedQuery::new(self.next_query_id(), query, sql.clone(), *ts, context);
                self.ingest(Arc::new(entry))
                    .map_err(|e| Refusal::Invalid(format!("log append failed: {e}")))?;
            }
            WalRecord::LogAppendRedacted {
                ts,
                user,
                role,
                purpose,
                tables,
                accessed,
                scores,
                ..
            } => {
                // The raw SQL is gone by design. A placeholder synthesized
                // from the journaled structure keeps the log's dense ids,
                // timestamps and annotations; the index skips it, and the
                // queue needs only the redacted scores. A recovered `audit`
                // honestly reports these queries as skipped.
                let context = AccessContext::new(user.clone(), role.clone(), purpose.clone());
                let sql = synthesize_redacted_sql(tables, accessed);
                let id =
                    self.log.record_text(&sql, *ts, context.clone()).map_err(|e| invalid(&e))?;
                self.index.extend_prepared(id, None);
                self.fold(id, *ts, &context, scores);
            }
            WalRecord::Register { name, expr, now } => {
                let prepared = self.prepare_audit(&self.db, expr, *now, governor)?;
                // Every successful registration (and only those) is
                // journaled, so replay walks the same push sequence and
                // assigns the same stable ids as the live run.
                self.install_audit(name.clone(), prepared);
            }
            WalRecord::Unregister { name } => {
                if !self.remove_audit(name) {
                    return Err(Refusal::Invalid(format!("no registered audit named {name:?}")));
                }
            }
            // Unknown ids are the live handler's to refuse; replay tolerates
            // them, as it always has.
            WalRecord::ReviewAck { query } => {
                self.triage.set_state(*query, ReviewState::Acked);
            }
            WalRecord::ReviewDismiss { query } => {
                self.triage.set_state(*query, ReviewState::Dismissed);
            }
            WalRecord::ReviewAckBulk { queries } => {
                for query in queries {
                    self.triage.set_state(*query, ReviewState::Acked);
                }
            }
            WalRecord::SetWeight { table, column, weight } => {
                self.triage.set_weight(table.clone(), column.clone(), *weight);
            }
        }
        Ok(())
    }

    /// A live request's mutation: `apply` under a fresh request governor,
    /// then journal that very record and answer `reply` of the new state.
    fn commit(&mut self, rec: WalRecord, reply: impl FnOnce(&Self) -> Json) -> Outcome {
        match self.apply(&rec, &Governor::arm(&self.config.limits)) {
            Ok(()) => {
                if let Some(j) = &self.journal {
                    j.append(rec);
                }
                self.metrics.publish_triage(&self.triage);
                Outcome::reply(reply(self))
            }
            Err(Refusal::Busy(e)) => self.backpressure(&e),
            Err(Refusal::Invalid(message)) => self.reject(message),
        }
    }

    /// The one mutator for a log entry: live `log`, a replayed `LogAppend`
    /// and `preloaded` all come here. The append, the only step that can
    /// refuse, runs first; then one shared execution yields scores and
    /// footprint. An `observe` error (none are currently reachable)
    /// downgrades to "no scores, skip" so the log and index never diverge.
    fn ingest(&mut self, entry: Arc<LoggedQuery>) -> Result<Vec<QueryScore>, AppendError> {
        self.log.append_validated(Arc::clone(&entry))?;
        let (scores, footprint) =
            self.online.observe_with_footprint(&self.db, &entry).unwrap_or_default();
        self.index.extend_prepared(entry.id, footprint);
        let rows: Vec<RedactedScore> = scores.iter().map(RedactedScore::from_score).collect();
        self.fold(entry.id, entry.executed_at, &entry.context, &rows);
        Ok(scores)
    }

    /// What raw and redacted appends both derive: the queue item when
    /// flagged, one event per score plus a verdict per audit, the count.
    fn fold(&mut self, id: QueryId, ts: Timestamp, ctx: &AccessContext, rows: &[RedactedScore]) {
        if !rows.is_empty() {
            let c = ctx.clone();
            self.triage.observe_redacted(id, ts, c.user, c.role, c.purpose, rows);
        }
        let touched: BTreeSet<AuditId> = rows.iter().map(|r| r.audit).collect();
        self.metrics.events.add((rows.len() + touched.len()) as u64);
        self.metrics.ingested.inc();
    }

    /// The id the next log entry gets.
    fn next_query_id(&self) -> QueryId {
        QueryId(self.log.len() as u64 + 1)
    }

    /// The latest instant the service has seen (backlog or log), used as
    /// the default `now` for registrations.
    pub fn latest_instant(&self) -> Timestamp {
        let log_ts = self.log.last_ts().unwrap_or(Timestamp(0));
        self.db.last_ts().max(log_ts)
    }

    /// Handles one request.
    pub fn handle(&mut self, req: Request) -> Outcome {
        let started = std::time::Instant::now();
        let cmd = req.cmd_name();
        let is_log = matches!(req, Request::Log { .. });
        let mut outcome = match req {
            Request::Dml { ts, sql } => self.handle_dml(ts, &sql),
            Request::Log { ts, user, role, purpose, sql } => {
                self.handle_log(ts, AccessContext::new(user, role, purpose), &sql)
            }
            Request::Register { name, expr, now } => self.handle_register(name, &expr, now),
            Request::Unregister { name } => {
                let reply = obj([("ok", Json::Bool(true)), ("name", Json::from(name.as_str()))]);
                self.commit(WalRecord::Unregister { name }, |_| reply)
            }
            Request::Audit { name } => self.handle_audit(&name),
            Request::Triage => Outcome::reply(self.triage_json()),
            Request::Queue { top, offset } => Outcome::reply(self.queue_json(top, offset)),
            Request::Ack { query } => self.handle_review(QueryId(query), ReviewState::Acked),
            Request::AckTemplate { template } => self.handle_ack_template(template),
            Request::Dismiss { query } => {
                self.handle_review(QueryId(query), ReviewState::Dismissed)
            }
            Request::Weight { table, column, weight } => self.handle_weight(&table, column, weight),
            Request::Stats => Outcome::reply(self.stats_json()),
            Request::Metrics => {
                self.db.refresh_mvcc_gauges();
                Outcome::reply(obj([
                    ("ok", Json::Bool(true)),
                    ("metrics", Json::Str(self.registry.render_prometheus())),
                ]))
            }
            Request::Subscribe => Outcome::reply(obj([("ok", Json::Bool(true))])),
            Request::Shutdown => {
                // Flush the WAL so everything acknowledged is durable
                // before the process exits.
                if let Some(j) = &self.journal {
                    let _ = j.sync();
                }
                Outcome {
                    response: obj([("ok", Json::Bool(true)), ("stopping", Json::Bool(true))]),
                    events: Vec::new(),
                    shutdown: true,
                }
            }
            // Fleet-scoped commands need the shard map; a bare single-tenant
            // core (stdio embedders, tests) answers with a structured error
            // rather than counting it as a rejected *ingest*.
            other if other.is_fleet_op() => Outcome::reply(obj([
                ("ok", Json::Bool(false)),
                (
                    "error",
                    Json::Str(format!(
                        "{}: tenant operations need a multi-tenant service",
                        other.cmd_name()
                    )),
                ),
            ])),
            other => Outcome::reply(obj([
                ("ok", Json::Bool(false)),
                ("error", Json::Str(format!("unhandled command {:?}", other.cmd_name()))),
            ])),
        };
        self.maybe_auto_checkpoint();
        let elapsed = started.elapsed();
        self.registry
            .latency_histogram(
                "audex_request_seconds",
                "Wall-clock per wire request, by command.",
                &[("cmd", cmd)],
            )
            .observe_duration(elapsed);
        if is_log {
            self.metrics.ingest_seconds.observe_duration(elapsed);
            // Periodic metrics broadcast. Not counted in events_emitted:
            // recovery replay does not re-emit metrics events, and that
            // counter must rebuild byte-identically from the journal.
            if let Some(every) = self.config.metrics_every {
                let ingested = self.metrics.ingested.get();
                let accepted = outcome.response.get("ok") == Some(&Json::Bool(true));
                if accepted && every > 0 && ingested > 0 && ingested.is_multiple_of(every) {
                    outcome.events.push(obj([
                        ("event", Json::from("metrics")),
                        ("queries_ingested", Json::from(ingested)),
                        ("prometheus", Json::Str(self.registry.render_prometheus())),
                    ]));
                }
            }
        }
        outcome
    }

    /// Writes a checkpoint when the journal's lag crosses the configured
    /// threshold. A failed auto-checkpoint is not fatal to the request that
    /// triggered it: the lag stays high and `stats` makes it visible.
    fn maybe_auto_checkpoint(&mut self) {
        let due = match (&self.journal, self.config.checkpoint_every) {
            (Some(j), Some(every)) => j.wedged().is_none() && j.checkpoint_lag() >= every,
            _ => false,
        };
        if due {
            let _ = self.checkpoint();
        }
    }

    fn reject(&mut self, message: String) -> Outcome {
        self.metrics.rejected.inc();
        Outcome::reply(obj([("ok", Json::Bool(false)), ("error", Json::Str(message))]))
    }

    /// A governor trip: the request was refused for capacity, not
    /// validity — `"busy":true` tells the client to back off and retry.
    fn backpressure(&mut self, e: &AuditError) -> Outcome {
        self.metrics.governor_rejections.inc();
        self.metrics.rejected.inc();
        Outcome::reply(obj([
            ("ok", Json::Bool(false)),
            ("busy", Json::Bool(true)),
            ("error", Json::Str(e.to_string())),
        ]))
    }

    fn handle_dml(&mut self, ts: Timestamp, sql: &str) -> Outcome {
        let stmts = match audex_sql::parse_script(sql) {
            Ok(s) => s,
            Err(e) => return self.reject(format!("dml does not parse: {e}")),
        };
        // Session-script semantics: each statement advances the clock one
        // second so versions stay distinct.
        let mut clock = ts;
        for (i, stmt) in stmts.iter().enumerate() {
            if let Err(e) = self.db.execute(stmt, clock) {
                // Statements before `i` are already applied (the backlog is
                // append-only); say so instead of pretending atomicity.
                self.metrics.rejected.inc();
                return Outcome::reply(obj([
                    ("ok", Json::Bool(false)),
                    ("error", Json::Str(format!("statement {}: {e}", i + 1))),
                    ("applied", Json::from(i)),
                ]));
            }
            self.metrics.dml.inc();
            clock = clock.plus_seconds(1);
        }
        Outcome::reply(obj([
            ("ok", Json::Bool(true)),
            ("applied", Json::from(stmts.len())),
            ("backlog_ts", Json::Int(self.db.last_ts().0)),
        ]))
    }

    fn handle_log(&mut self, ts: Timestamp, context: AccessContext, sql: &str) -> Outcome {
        // Validate before any mutation (the wire peer gets parse errors
        // and order violations as plain rejections, never a half-ingested
        // entry).
        let query = match audex_sql::parse_query(sql) {
            Ok(q) => q,
            Err(e) => return self.reject(format!("query does not parse: {e}")),
        };
        if let Some(last) = self.log.last_ts().filter(|&last| ts < last) {
            return self.reject(format!(
                "out-of-order log append: offered {ts}, log is already at {last}"
            ));
        }
        // Admission control: the indexing step ticks this request's
        // governor before any state is touched, so a trip rejects the
        // whole request with nothing mutated.
        let governor = Governor::arm(&self.config.limits);
        if let Err(e) = governor.tick(AuditPhase::Indexing) {
            return self.backpressure(&e);
        }

        // Parsed once, allocated once: the entry scored is the entry
        // logged. The validated append re-checks ordering and the id under
        // the log's own lock; it cannot fail after the checks above.
        let entry =
            Arc::new(LoggedQuery::new(self.next_query_id(), query, sql.to_string(), ts, context));
        let scores = match self.ingest(Arc::clone(&entry)) {
            Ok(scores) => scores,
            Err(e) => return self.reject(format!("log append failed: {e}")),
        };
        let id = entry.id;
        if !scores.is_empty() {
            self.metrics.publish_triage(&self.triage);
        }
        if let Some(j) = &self.journal {
            let c = &entry.context;
            let (user, role, purpose) = (c.user.clone(), c.role.clone(), c.purpose.clone());
            // `--redact-log` journals the query's structure — the
            // footprint `ingest` just indexed, unless the index skipped
            // it — and a hash in place of its text.
            j.append(if self.config.redact_log {
                let fp = self.index.footprints().last().filter(|fp| fp.id == id);
                WalRecord::LogAppendRedacted {
                    ts,
                    user,
                    role,
                    purpose,
                    sql_hash: fnv1a64(sql.as_bytes()),
                    tables: fp.map_or_else(Vec::new, |fp| fp.bases.iter().cloned().collect()),
                    accessed: fp.map_or_else(Vec::new, |fp| fp.covered.iter().cloned().collect()),
                    scores: scores.iter().map(RedactedScore::from_score).collect(),
                }
            } else {
                WalRecord::LogAppend { ts, user, role, purpose, sql: sql.to_string() }
            });
        }

        let mut events = Vec::new();
        let mut score_rows = Vec::new();
        for s in &scores {
            let row = obj([
                ("audit", Json::Str(self.audit_name(s.audit))),
                ("fact_coverage", Json::Float(s.fact_coverage)),
                ("column_coverage", Json::Float(s.column_coverage)),
                ("closeness", Json::Float(s.closeness)),
            ]);
            let mut event =
                obj([("event", Json::from("score")), ("query", Json::Int(id.0 as i64))]);
            if let (Json::Obj(fields), Json::Obj(inner)) = (&mut event, &row) {
                fields.extend(inner.iter().cloned());
            }
            events.push(event);
            score_rows.push(row);
        }
        // A verdict event per audit this query contributed to, so
        // subscribers track the running batch state without polling.
        let touched: BTreeSet<AuditId> = scores.iter().map(|s| s.audit).collect();
        events.extend(touched.into_iter().map(|a| self.verdict_event(a)));

        Outcome {
            response: obj([
                ("ok", Json::Bool(true)),
                ("id", Json::Int(id.0 as i64)),
                ("scores", Json::Arr(score_rows)),
            ]),
            events,
            shutdown: false,
        }
    }

    /// The registered name behind a stable audit id (the raw id when the
    /// registration is gone — can only happen for in-flight scores).
    /// `registered` stays ascending in id (ids are assigned monotonically
    /// at push and removal preserves order), so this is a binary search —
    /// it runs once per score row, and a busy ingest path at 1000+
    /// standing audits cannot afford a linear scan per score.
    fn audit_name(&self, id: AuditId) -> String {
        self.registered
            .binary_search_by_key(&id, |r| r.id)
            .ok()
            .map(|i| self.registered[i].name.clone())
            .unwrap_or_else(|| id.to_string())
    }

    fn verdict_event(&self, id: AuditId) -> Json {
        let verdict = self.online.verdict(id).unwrap_or_default();
        obj([
            ("event", Json::from("verdict")),
            ("audit", Json::Str(self.audit_name(id))),
            ("suspicious", Json::Bool(verdict.suspicious())),
            ("degree", Json::Float(verdict.degree)),
            (
                "contributing",
                Json::Arr(
                    self.online.contributing(id).iter().map(|q| Json::Int(q.0 as i64)).collect(),
                ),
            ),
        ])
    }

    fn handle_register(&mut self, name: String, expr: &str, now: Option<Timestamp>) -> Outcome {
        if self.has_audit(&name) {
            return self.reject(format!("audit {name:?} is already registered (unregister first)"));
        }
        let now = now.unwrap_or_else(|| self.latest_instant());
        let rec = WalRecord::Register { name: name.clone(), expr: expr.to_string(), now };
        self.commit(rec, |core| {
            // The audit `apply` just installed is the newest registration.
            let prepared = core.registered.last().and_then(|r| core.online.audit(r.id));
            let target_size = prepared.map_or(0, |p| p.view.len());
            obj([
                ("ok", Json::Bool(true)),
                ("name", Json::Str(name)),
                ("target_size", Json::from(target_size)),
                ("total_granules", u128_json(prepared.map_or(0, |p| p.model.count(target_size)))),
                ("now", Json::Int(now.0)),
            ])
        })
    }

    /// Prepares a standing audit at `now` against `db` (the live database,
    /// or recovery's fork of the state the registration originally saw).
    /// Live `register`, WAL-tail replay and checkpoint-prefix replay all
    /// prepare here, so they cannot drift apart.
    fn prepare_audit(
        &self,
        db: &Database,
        expr: &str,
        now: Timestamp,
        governor: &Governor,
    ) -> Result<PreparedAudit, Refusal> {
        let parsed = audex_sql::parse_audit(expr)
            .map_err(|e| Refusal::Invalid(format!("audit expression does not parse: {e}")))?;
        AuditEngine::with_options(
            db,
            &self.log,
            EngineOptions { strategy: self.config.strategy, ..Default::default() },
        )
        .with_obs(self.engine_obs.clone())
        .prepare_governed(&parsed, now, governor)
        .map_err(|e| {
            if is_governor_trip(&e) {
                Refusal::Busy(e)
            } else {
                Refusal::Invalid(format!("audit does not prepare: {e}"))
            }
        })
    }

    /// Installs a prepared audit under `name`.
    fn install_audit(&mut self, name: String, prepared: PreparedAudit) {
        let id = self.online.push(prepared);
        self.registered.push(RegisteredAudit { name, id });
    }

    /// Removes the standing audit registered under `name`; `false` when
    /// there is none.
    fn remove_audit(&mut self, name: &str) -> bool {
        let Some(idx) = self.registered.iter().position(|r| r.name == name) else { return false };
        self.online.remove(self.registered.remove(idx).id);
        true
    }

    fn handle_audit(&mut self, name: &str) -> Outcome {
        let Some(id) = self.registered.iter().find(|r| r.name == name).map(|r| r.id) else {
            return self.reject(format!("no registered audit named {name:?}"));
        };
        let governor = Governor::arm(&self.config.limits);
        let verdict = {
            let Some(prepared) = self.online.audit(id) else {
                return self.reject(format!("audit {name:?} has no online state"));
            };
            let admitted: BTreeSet<QueryId> = self
                .log
                .snapshot()
                .iter()
                .filter(|e| prepared.filter.admits(e))
                .map(|e| e.id)
                .collect();
            let span = self.engine_obs.phase("index-audit");
            match self.index.evaluate_governed(prepared, &admitted, &governor) {
                Ok(v) => v,
                Err(e) => {
                    span.mark_truncated();
                    drop(span);
                    if is_governor_trip(&e) {
                        return self.backpressure(&e);
                    }
                    return self.reject(format!("audit failed: {e}"));
                }
            }
        };
        Outcome::reply(obj([
            ("ok", Json::Bool(true)),
            ("name", Json::from(name)),
            ("suspicious", Json::Bool(verdict.suspicious)),
            ("accessed_granules", u128_json(verdict.accessed_granules)),
            ("total_granules", u128_json(verdict.total_granules)),
            ("degree", Json::Float(verdict.degree)),
            (
                "contributing",
                Json::Arr(verdict.contributing.iter().map(|q| Json::Int(q.0 as i64)).collect()),
            ),
            (
                "witnesses",
                Json::Arr(verdict.witnesses.iter().map(|q| Json::Int(q.0 as i64)).collect()),
            ),
            ("skipped", Json::Arr(verdict.skipped.iter().map(|q| Json::Int(q.0 as i64)).collect())),
        ]))
    }

    /// The `triage` report: queue counts plus the mined recurring templates
    /// (open items grouped by who asked and what they covered), with the
    /// compression ratio the grouping achieves.
    fn triage_json(&self) -> Json {
        let counts = self.triage.counts();
        let templates: Vec<Json> = self
            .triage
            .templates()
            .iter()
            .map(|t| {
                obj([
                    ("role", Json::Str(t.role.value.clone())),
                    ("purpose", Json::Str(t.purpose.value.clone())),
                    ("count", Json::from(t.count)),
                    ("suspicion", Json::Float(t.suspicion)),
                    ("example", Json::Int(t.example.0 as i64)),
                    (
                        "audits",
                        Json::Arr(
                            t.audits.iter().map(|a| Json::Str(self.audit_name(*a))).collect(),
                        ),
                    ),
                    (
                        "columns",
                        Json::Arr(
                            t.covered
                                .iter()
                                .map(|(tb, c)| Json::Str(format!("{tb}.{c}")))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        obj([
            ("ok", Json::Bool(true)),
            ("open", Json::from(counts.open)),
            ("acked", Json::from(counts.acked)),
            ("dismissed", Json::from(counts.dismissed)),
            (
                "budget",
                match self.triage.budget() {
                    Some(b) => Json::from(b),
                    None => Json::Null,
                },
            ),
            ("weights", Json::from(self.triage.weights().len())),
            ("templates", Json::Arr(templates)),
            ("compression", Json::Float(self.triage.compression())),
        ])
    }

    /// One page of the ranked review queue. `top` defaults to the
    /// configured auditor budget (then 10); only open items rank.
    fn queue_json(&self, top: Option<u64>, offset: u64) -> Json {
        let counts = self.triage.counts();
        let items: Vec<Json> = self
            .triage
            .page(top, offset)
            .into_iter()
            .map(|(item, priority)| {
                obj([
                    ("query", Json::Int(item.query.0 as i64)),
                    ("priority", Json::Float(priority)),
                    ("suspicion", Json::Float(item.suspicion)),
                    ("ts", Json::Int(item.ts.0)),
                    ("user", Json::Str(item.user.value.clone())),
                    ("role", Json::Str(item.role.value.clone())),
                    ("purpose", Json::Str(item.purpose.value.clone())),
                    (
                        "audits",
                        Json::Arr(
                            item.audits.iter().map(|a| Json::Str(self.audit_name(*a))).collect(),
                        ),
                    ),
                    (
                        "columns",
                        Json::Arr(
                            item.covered
                                .iter()
                                .map(|(t, c)| Json::Str(format!("{t}.{c}")))
                                .collect(),
                        ),
                    ),
                    ("touched", Json::from(item.touched)),
                    ("exposed", Json::from(item.exposed)),
                ])
            })
            .collect();
        obj([
            ("ok", Json::Bool(true)),
            ("total_open", Json::from(counts.open)),
            ("offset", Json::from(offset)),
            ("items", Json::Arr(items)),
        ])
    }

    /// `ack`/`dismiss`: close out a review-queue item. Unknown ids are
    /// rejected without a journal write, so replay only ever sees
    /// transitions that actually happened.
    fn handle_review(&mut self, query: QueryId, state: ReviewState) -> Outcome {
        if self.triage.item(query).is_none() {
            return self.reject(format!("query {query} was never flagged"));
        }
        let rec = match state {
            ReviewState::Dismissed => WalRecord::ReviewDismiss { query },
            _ => WalRecord::ReviewAck { query },
        };
        let reply = obj([
            ("ok", Json::Bool(true)),
            ("query", Json::Int(query.0 as i64)),
            ("state", Json::from(state.as_str())),
        ]);
        self.commit(rec, |_| reply)
    }

    /// `ack` with a `template` index: acknowledge every open item matching
    /// one mined template as a single decision. The resolved query ids are
    /// journaled in one [`WalRecord::ReviewAckBulk`] record — template
    /// mining is derived state, so replay never re-mines.
    fn handle_ack_template(&mut self, template: u64) -> Outcome {
        let queries = self.triage.template_queries(template as usize);
        if queries.is_empty() {
            return self.reject(format!(
                "template {template} has no open items (templates are mined live; \
                 run triage for the current listing)"
            ));
        }
        let reply = obj([
            ("ok", Json::Bool(true)),
            ("template", Json::Int(template as i64)),
            ("acked", Json::Int(queries.len() as i64)),
            ("queries", Json::Arr(queries.iter().map(|q| Json::Int(q.0 as i64)).collect())),
            ("state", Json::from(ReviewState::Acked.as_str())),
        ]);
        self.commit(WalRecord::ReviewAckBulk { queries }, |_| reply)
    }

    /// `weight`: set a per-table or per-column sensitivity multiplier.
    /// Weights are configuration, not derived state — they journal
    /// unconditionally and replay unconditionally.
    fn handle_weight(&mut self, table: &str, column: Option<String>, weight: f64) -> Outcome {
        let reply = obj([
            ("ok", Json::Bool(true)),
            ("table", Json::from(table)),
            ("column", column.as_deref().map_or(Json::Null, Json::from)),
            ("weight", Json::Float(weight)),
        ]);
        let (table, column) = (Ident::new(table), column.map(Ident::new));
        self.commit(WalRecord::SetWeight { table, column, weight }, |_| reply)
    }

    fn stats_json(&self) -> Json {
        let stats = self.db.snapshot_stats();
        let total_reads = stats.hits + stats.misses;
        let hit_rate = if total_reads == 0 { 0.0 } else { stats.hits as f64 / total_reads as f64 };
        let mvcc = self.db.refresh_mvcc_gauges();
        let c = self.counters();
        let dispatch = self.online.dispatch_stats();
        let triage = self.triage.counts();
        let scan = self.db.mvcc_scan_stats();
        let mut fields: Vec<(String, Json)> = [
            ("ok", Json::Bool(true)),
            ("queries_ingested", Json::from(c.queries_ingested)),
            ("queries_rejected", Json::from(c.queries_rejected)),
            ("dml_statements", Json::from(c.dml_statements)),
            ("governor_trips", Json::from(c.governor_trips)),
            ("events_emitted", Json::from(c.events_emitted)),
            ("log_len", Json::from(self.log.len())),
            ("index_len", Json::from(self.index.len())),
            ("index_skipped", Json::from(self.index.skipped_ids().len())),
            ("registered_audits", Json::from(self.registered.len())),
            ("dispatch_probes", Json::from(dispatch.probes)),
            ("dispatch_pruned", Json::from(dispatch.pruned)),
            ("dispatch_shortlisted", Json::from(dispatch.shortlisted)),
            ("dispatch_rebuilds", Json::from(dispatch.rebuilds)),
            ("dispatch_fact_probe_builds", Json::from(dispatch.fact_probe_builds)),
            ("dispatch_fact_probe_hits", Json::from(dispatch.fact_probe_hits)),
            ("triage_open", Json::from(triage.open)),
            ("triage_acked", Json::from(triage.acked)),
            ("triage_dismissed", Json::from(triage.dismissed)),
            ("backlog_ts", Json::Int(self.db.last_ts().0)),
            ("snapshot_cache_hits", Json::from(stats.hits)),
            ("snapshot_cache_misses", Json::from(stats.misses)),
            ("snapshot_cache_hit_rate", Json::Float(hit_rate)),
            ("snapshot_cache_entries", Json::from(self.db.snapshot_cache_len())),
            ("mvcc_live_versions", Json::from(mvcc.live_versions)),
            ("mvcc_dead_versions", Json::from(mvcc.dead_versions)),
            ("mvcc_store_bytes", Json::from(mvcc.approx_bytes)),
            ("mvcc_visibility_probes", Json::from(scan.probes)),
            ("mvcc_versions_examined", Json::from(scan.versions_examined)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        if let Some(j) = &self.journal {
            let jc = j.counters();
            fields.extend(journal_stats_fields(&jc));
        }
        // Registry handles are get-or-create, so these are the same cells
        // the TCP front door counts into (all zero under --stdio). In a
        // fleet this is the shared fleet registry — one front door serves
        // every tenant.
        let fm = crate::server::FrontMetrics::new(&self.front_registry);
        fields.extend(
            [
                ("connections", fm.connections.get()),
                ("connections_total", fm.connections_total.get() as i64),
                ("connections_shed", fm.connections_shed.get() as i64),
                ("subscribers", fm.subscribers.get()),
                ("subscribers_evicted", fm.subscribers_evicted.get() as i64),
                ("subscriber_disconnects", fm.subscriber_disconnects.get() as i64),
                ("frames_malformed", fm.frames_malformed.get() as i64),
                ("frames_oversized", fm.frames_oversized.get() as i64),
                ("frames_truncated", fm.frames_truncated.get() as i64),
                ("conn_idle_timeouts", fm.conn_idle_timeouts.get() as i64),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), Json::Int(v))),
        );
        Json::Obj(fields)
    }
}

/// The journal's health/throughput counters as `stats` fields, shared with
/// the CLI's offline `--stats` report so both render identically.
pub fn journal_stats_fields(jc: &audex_persist::JournalCounters) -> Vec<(String, Json)> {
    let mut fields = vec![
        ("journal_records_appended".to_string(), Json::from(jc.records_appended)),
        ("journal_fsyncs".to_string(), Json::from(jc.fsyncs)),
        ("journal_bytes_written".to_string(), Json::from(jc.bytes_written)),
        ("journal_checkpoints_written".to_string(), Json::from(jc.checkpoints_written)),
        ("journal_last_checkpoint_seq".to_string(), Json::from(jc.last_checkpoint_seq)),
        ("journal_checkpoint_lag".to_string(), Json::from(jc.checkpoint_lag)),
        ("journal_segments".to_string(), Json::from(jc.segments)),
        ("journal_segment_bytes".to_string(), Json::from(jc.segment_bytes)),
    ];
    fields.push((
        "journal_wedged".to_string(),
        match &jc.wedged {
            Some(e) => Json::Str(e.clone()),
            None => Json::Null,
        },
    ));
    fields
}

/// A parseable placeholder for a redacted log entry, built from the
/// journaled structure alone: the columns the query accessed and the tables
/// it referenced. Replay records this in place of the lost raw SQL; the
/// index skips it (its footprint cannot be re-derived), and the review
/// queue never reads it.
fn synthesize_redacted_sql(tables: &[Ident], accessed: &[(Ident, Ident)]) -> String {
    let list =
        |names: Vec<String>| if names.is_empty() { "redacted".into() } else { names.join(", ") };
    let cols = list(accessed.iter().map(|(_, c)| c.to_string()).collect());
    format!("SELECT {cols} FROM {}", list(tables.iter().map(Ident::to_string).collect()))
}

/// Why a record was not applied: over capacity (a governor trip, answered
/// `busy`) or invalid. Recovery reports either as a replay error.
enum Refusal {
    Busy(AuditError),
    Invalid(String),
}

impl std::fmt::Display for Refusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Refusal::Busy(e) => e.fmt(f),
            Refusal::Invalid(message) => f.write_str(message),
        }
    }
}

fn replay_error(seq: u64, what: &dyn std::fmt::Display) -> PersistError {
    PersistError::Replay { site: format!("record seq {seq}: {what}") }
}

/// True for errors that mean "over capacity right now", not "invalid".
fn is_governor_trip(e: &AuditError) -> bool {
    matches!(
        e,
        AuditError::DeadlineExceeded { .. }
            | AuditError::BudgetExhausted { .. }
            | AuditError::Cancelled { .. }
    )
}

fn u128_json(v: u128) -> Json {
    match u64::try_from(v) {
        Ok(small) => Json::from(small),
        // Beyond 2^64 the count is astronomically large anyway; a string
        // keeps the exact digits without pretending f64 precision.
        Err(_) => Json::Str(v.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn core() -> ServiceCore {
        let mut c = ServiceCore::new(Database::new(), ServiceConfig::default());
        let r = c.handle(Request::Dml {
            ts: Timestamp(100),
            sql: "CREATE TABLE Patients (pid TEXT, zipcode TEXT, disease TEXT); \
                  INSERT INTO Patients VALUES ('p1', '120016', 'cancer'), \
                  ('p2', '145568', 'flu');"
                .into(),
        });
        assert_eq!(r.response.get("ok"), Some(&Json::Bool(true)), "{}", r.response);
        c
    }

    fn log_req(ts: i64, sql: &str) -> Request {
        Request::Log {
            ts: Timestamp(ts),
            user: "u-1".into(),
            role: "nurse".into(),
            purpose: "treatment".into(),
            sql: sql.into(),
        }
    }

    #[test]
    fn full_command_flow() {
        let mut c = core();
        let r = c.handle(Request::Register {
            name: "cancer".into(),
            expr: "DURING 1/1/1970 TO 1/1/2100 DATA-INTERVAL 1/1/1970 TO 1/1/2100 \
                   AUDIT disease FROM Patients WHERE zipcode = '120016'"
                .into(),
            now: Some(Timestamp(5000)),
        });
        assert_eq!(r.response.get("ok"), Some(&Json::Bool(true)), "{}", r.response);
        assert_eq!(r.response.get("target_size").and_then(Json::as_int), Some(1));

        // An innocent query: ingested, indexed, no scores.
        let r = c.handle(log_req(200, "SELECT pid FROM Patients WHERE zipcode = '145568'"));
        assert_eq!(r.response.get("id").and_then(Json::as_int), Some(1));
        assert_eq!(r.response.get("scores").and_then(Json::as_arr).map(<[Json]>::len), Some(0));
        assert!(r.events.is_empty());

        // The leak: scored against the standing audit, events emitted.
        let r = c.handle(log_req(300, "SELECT disease FROM Patients WHERE zipcode = '120016'"));
        assert_eq!(r.response.get("id").and_then(Json::as_int), Some(2));
        assert_eq!(r.response.get("scores").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        assert_eq!(r.events.len(), 2, "one score + one verdict event");
        assert_eq!(r.events[1].get("suspicious"), Some(&Json::Bool(true)));

        // Index-backed audit matches the streamed verdict.
        let r = c.handle(Request::Audit { name: "cancer".into() });
        assert_eq!(r.response.get("suspicious"), Some(&Json::Bool(true)), "{}", r.response);
        assert_eq!(
            r.response.get("contributing"),
            Some(&Json::Arr(vec![Json::Int(2)])),
            "{}",
            r.response
        );

        // And it agrees byte-for-byte with a from-scratch batch engine run.
        let engine = AuditEngine::new(&c.db, &c.log);
        let expr = audex_sql::parse_audit(
            "DURING 1/1/1970 TO 1/1/2100 DATA-INTERVAL 1/1/1970 TO 1/1/2100 \
             AUDIT disease FROM Patients WHERE zipcode = '120016'",
        )
        .unwrap();
        let report = engine.audit_at(&expr, Timestamp(5000)).unwrap();
        assert!(report.verdict.suspicious);
        assert_eq!(report.verdict.contributing, vec![QueryId(2)]);

        let stats = c.handle(Request::Stats).response;
        assert_eq!(stats.get("queries_ingested").and_then(Json::as_int), Some(2));
        assert_eq!(stats.get("index_len").and_then(Json::as_int), Some(2));
        assert_eq!(stats.get("registered_audits").and_then(Json::as_int), Some(1));

        // Unregister, then the audit name is gone.
        let r = c.handle(Request::Unregister { name: "cancer".into() });
        assert_eq!(r.response.get("ok"), Some(&Json::Bool(true)));
        let r = c.handle(Request::Audit { name: "cancer".into() });
        assert_eq!(r.response.get("ok"), Some(&Json::Bool(false)));
    }

    /// Regression for the index-shift hazard: unregistering an audit used to
    /// shift every later audit down one slot, so subsequent ingests scored
    /// under the wrong registration. Stable ids must survive removal, both
    /// live and across crash recovery of a journal with unregister holes.
    #[test]
    fn unregister_then_ingest_scores_the_surviving_audit() {
        use audex_persist::{FsyncPolicy, WalOptions};

        let reg = |name: &str, zip: &str| Request::Register {
            name: name.into(),
            expr: format!(
                "DURING 1/1/1970 TO 1/1/2100 DATA-INTERVAL 1/1/1970 TO 1/1/2100 \
                 AUDIT disease FROM Patients WHERE zipcode = '{zip}'"
            ),
            now: Some(Timestamp(5000)),
        };
        let requests = |c: &mut ServiceCore| {
            c.handle(Request::Dml {
                ts: Timestamp(100),
                sql: "CREATE TABLE Patients (pid TEXT, zipcode TEXT, disease TEXT); \
                      INSERT INTO Patients VALUES ('p1', '120016', 'cancer'), \
                      ('p2', '145568', 'flu');"
                    .into(),
            });
            c.handle(reg("cancer", "120016"));
            c.handle(reg("flu", "145568"));
            c.handle(Request::Unregister { name: "cancer".into() });
        };

        let mut c = ServiceCore::new(Database::new(), ServiceConfig::default());
        requests(&mut c);
        let r = c.handle(log_req(200, "SELECT disease FROM Patients WHERE zipcode = '145568'"));
        let scores = r.response.get("scores").and_then(Json::as_arr).unwrap();
        assert_eq!(scores.len(), 1, "{}", r.response);
        assert_eq!(scores[0].get("audit"), Some(&Json::Str("flu".into())), "{}", r.response);
        assert_eq!(r.events[1].get("audit"), Some(&Json::Str("flu".into())));
        assert_eq!(r.events[1].get("suspicious"), Some(&Json::Bool(true)));
        let r = c.handle(Request::Audit { name: "flu".into() });
        assert_eq!(r.response.get("suspicious"), Some(&Json::Bool(true)), "{}", r.response);

        // Recovery replays register/unregister in journal order, so the
        // surviving audit keeps its id and the post-crash ingest scores it.
        let dir = std::env::temp_dir().join(format!("audex-unreg-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = WalOptions { fsync: FsyncPolicy::Always, segment_max_bytes: 4 * 1024 * 1024 };
        let (journal, _) = Journal::open(&dir, options).unwrap();
        let mut live = ServiceCore::new(Database::new(), ServiceConfig::default());
        live.attach_journal(journal);
        requests(&mut live);
        drop(live);

        let (journal, mut recovered) = Journal::open(&dir, WalOptions::default()).unwrap();
        let mut after = ServiceCore::recovered(&mut recovered, ServiceConfig::default()).unwrap();
        after.attach_journal(journal);
        let r = after.handle(log_req(200, "SELECT disease FROM Patients WHERE zipcode = '145568'"));
        let scores = r.response.get("scores").and_then(Json::as_arr).unwrap();
        assert_eq!(scores.len(), 1, "{}", r.response);
        assert_eq!(scores[0].get("audit"), Some(&Json::Str("flu".into())), "{}", r.response);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejections_leave_no_trace() {
        let mut c = core();
        // Bad SQL.
        let r = c.handle(log_req(200, "DELETE FROM Patients"));
        assert_eq!(r.response.get("ok"), Some(&Json::Bool(false)));
        // Out of order after a good entry.
        c.handle(log_req(300, "SELECT pid FROM Patients"));
        let r = c.handle(log_req(250, "SELECT pid FROM Patients"));
        assert!(
            r.response.get("error").and_then(Json::as_str).unwrap().contains("out-of-order"),
            "{}",
            r.response
        );
        let stats = c.handle(Request::Stats).response;
        assert_eq!(stats.get("log_len").and_then(Json::as_int), Some(1));
        assert_eq!(stats.get("index_len").and_then(Json::as_int), Some(1));
        assert_eq!(stats.get("queries_rejected").and_then(Json::as_int), Some(2));
    }

    #[test]
    fn governor_trip_is_backpressure_not_corruption() {
        let mut c = core();
        c.config.limits =
            ResourceLimits { deadline: Some(Duration::ZERO), max_steps: None, granule_limit: None };
        let r = c.handle(log_req(200, "SELECT pid FROM Patients"));
        assert_eq!(r.response.get("busy"), Some(&Json::Bool(true)), "{}", r.response);
        // Nothing was mutated: lift the limit and the same entry ingests.
        c.config.limits = ResourceLimits::unlimited();
        let r = c.handle(log_req(200, "SELECT pid FROM Patients"));
        assert_eq!(r.response.get("ok"), Some(&Json::Bool(true)), "{}", r.response);
        let stats = c.handle(Request::Stats).response;
        assert_eq!(stats.get("governor_trips").and_then(Json::as_int), Some(1));
        assert_eq!(stats.get("log_len").and_then(Json::as_int), Some(1));
        assert_eq!(stats.get("index_len").and_then(Json::as_int), Some(1));
    }

    #[test]
    fn preloaded_log_builds_the_index_incrementally() {
        let db = {
            let c = core();
            c.db
        };
        let log = QueryLog::new();
        log.record_text(
            "SELECT disease FROM Patients",
            Timestamp(200),
            AccessContext::new("u", "r", "p"),
        )
        .unwrap();
        log.record_text("SELECT x FROM ghost", Timestamp(300), AccessContext::new("u", "r", "p"))
            .unwrap();
        let mut c = ServiceCore::preloaded(db, log, ServiceConfig::default()).unwrap();
        let stats = c.handle(Request::Stats).response;
        assert_eq!(stats.get("index_len").and_then(Json::as_int), Some(1));
        assert_eq!(stats.get("index_skipped").and_then(Json::as_int), Some(1));
        assert_eq!(stats.get("log_len").and_then(Json::as_int), Some(2));
    }

    #[test]
    fn recovery_rebuilds_identical_state_with_and_without_checkpoint() {
        use audex_persist::{FsyncPolicy, WalOptions};

        let dir = std::env::temp_dir().join(format!("audex-state-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let requests = |c: &mut ServiceCore| {
            c.handle(Request::Dml {
                ts: Timestamp(100),
                sql: "CREATE TABLE Patients (pid TEXT, zipcode TEXT, disease TEXT); \
                      INSERT INTO Patients VALUES ('p1', '120016', 'cancer'), \
                      ('p2', '145568', 'flu');"
                    .into(),
            });
            c.handle(Request::Register {
                name: "cancer".into(),
                expr: "DURING 1/1/1970 TO 1/1/2100 DATA-INTERVAL 1/1/1970 TO 1/1/2100 \
                       AUDIT disease FROM Patients WHERE zipcode = '120016'"
                    .into(),
                now: Some(Timestamp(5000)),
            });
            c.handle(log_req(200, "SELECT pid FROM Patients WHERE zipcode = '145568'"));
            c.handle(log_req(300, "SELECT disease FROM Patients WHERE zipcode = '120016'"));
            // Mid-stream DML: a recovered registration must still be
            // prepared against the *pre-DML* database, as the original was.
            c.handle(Request::Dml {
                ts: Timestamp(400),
                sql: "INSERT INTO Patients VALUES ('p3', '120016', 'cancer');".into(),
            });
            c.handle(log_req(500, "SELECT disease FROM Patients"));
        };

        // Reference: uninterrupted, journal-free run.
        let mut reference = ServiceCore::new(Database::new(), ServiceConfig::default());
        requests(&mut reference);
        let ref_audit = reference.handle(Request::Audit { name: "cancer".into() }).response;
        let ref_stats = reference.handle(Request::Stats).response;

        for checkpoint_mid_stream in [false, true] {
            let _ = std::fs::remove_dir_all(&dir);
            let options =
                WalOptions { fsync: FsyncPolicy::Always, segment_max_bytes: 4 * 1024 * 1024 };
            let (journal, _) = Journal::open(&dir, options).unwrap();
            let mut live = ServiceCore::new(Database::new(), ServiceConfig::default());
            live.attach_journal(journal);
            requests(&mut live);
            if checkpoint_mid_stream {
                live.checkpoint().unwrap();
                // Post-checkpoint tail.
                live.handle(log_req(600, "SELECT zipcode FROM Patients"));
                reference.handle(log_req(600, "SELECT zipcode FROM Patients"));
            }
            drop(live); // "crash": no shutdown, but fsync=always covered us

            let (journal, mut recovered) = Journal::open(&dir, WalOptions::default()).unwrap();
            if checkpoint_mid_stream {
                assert!(recovered.checkpoint.is_some());
                assert_eq!(recovered.tail.len(), 1);
            } else {
                assert!(recovered.checkpoint.is_none());
            }
            let mut after =
                ServiceCore::recovered(&mut recovered, ServiceConfig::default()).unwrap();
            after.attach_journal(journal);

            let audit = after.handle(Request::Audit { name: "cancer".into() }).response;
            let expect_audit = if checkpoint_mid_stream {
                reference.handle(Request::Audit { name: "cancer".into() }).response
            } else {
                ref_audit.clone()
            };
            assert_eq!(
                audit.to_string(),
                expect_audit.to_string(),
                "recovered audit report must be byte-identical (checkpoint={checkpoint_mid_stream})"
            );

            // Service counters (stats minus journal_* fields) match too.
            // `dml_statements` is exact only through a checkpoint: tail
            // replay counts change *records*, statement boundaries are not
            // journaled. `queries_rejected` and `governor_trips` restart
            // from the checkpoint's value, since refusals never reach the
            // WAL; this session has none (caveats in DESIGN.md §10).
            let stats = after.handle(Request::Stats).response;
            let strip = |j: &Json| match j {
                Json::Obj(fields) => Json::Obj(
                    fields
                        .iter()
                        .filter(|(k, _)| {
                            // dispatch_* counters are telemetry: checkpoint
                            // recovery restores audit states without
                            // re-observing pre-checkpoint queries, so probe
                            // counts legitimately differ.
                            !k.starts_with("journal_")
                                && !k.starts_with("snapshot_")
                                && !k.starts_with("dispatch_")
                                && (checkpoint_mid_stream || k != "dml_statements")
                        })
                        .cloned()
                        .collect(),
                ),
                other => other.clone(),
            };
            let expect_stats = if checkpoint_mid_stream {
                reference.handle(Request::Stats).response
            } else {
                ref_stats.clone()
            };
            assert_eq!(strip(&stats).to_string(), strip(&expect_stats).to_string());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpoint that carries no version-store snapshot — one written
    /// before snapshots existed, or by a daemon running the since-removed
    /// replay engine — still opens: the covered prefix rebuilds record by
    /// record into the same database and the same answers.
    #[test]
    fn checkpoint_without_db_snapshot_recovers_record_by_record() {
        use audex_persist::WalOptions;

        let dir = std::env::temp_dir().join(format!("audex-state-nosnap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (journal, _) = Journal::open(&dir, WalOptions::default()).unwrap();
        let mut live = ServiceCore::new(Database::new(), ServiceConfig::default());
        live.attach_journal(journal);
        let dml = |c: &mut ServiceCore, ts, sql: &str| {
            c.handle(Request::Dml { ts: Timestamp(ts), sql: sql.into() });
        };
        dml(
            &mut live,
            100,
            "CREATE TABLE Patients (pid TEXT, zipcode TEXT, disease TEXT); \
             INSERT INTO Patients VALUES ('p1', '120016', 'cancer'), ('p2', '145568', 'flu');",
        );
        register(&mut live, "cancer", "disease FROM Patients WHERE zipcode = '120016'");
        live.handle(log_req(300, "SELECT disease FROM Patients WHERE zipcode = '120016'"));
        // A registration with DML on both sides of it.
        dml(&mut live, 400, "INSERT INTO Patients VALUES ('p3', '120016', 'cancer');");
        register(&mut live, "zipfind", "pid FROM Patients WHERE zipcode = '145568'");
        dml(&mut live, 450, "UPDATE Patients SET zipcode = '145568' WHERE pid = 'p1';");
        live.handle(log_req(500, "SELECT pid FROM Patients WHERE zipcode = '145568'"));
        live.checkpoint().unwrap();
        live.handle(log_req(600, "SELECT disease FROM Patients"));
        drop(live); // crash

        let reopen = |strip_snapshot: bool| {
            let (_journal, mut recovered) = Journal::open(&dir, WalOptions::default()).unwrap();
            let ck = recovered.checkpoint.as_mut().unwrap();
            assert!(ck.db.is_some(), "this build checkpoints the version stores");
            if strip_snapshot {
                ck.db = None;
            }
            let mut core =
                ServiceCore::recovered(&mut recovered, ServiceConfig::default()).unwrap();
            let replies = ["cancer", "zipfind"]
                .map(|name| core.handle(Request::Audit { name: name.into() }).response.to_string());
            (replies, queue_ids(&mut core), core.into_parts().0)
        };
        assert_eq!(reopen(true), reopen(false), "audits, review queue, database");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_registration_is_refused() {
        let mut c = core();
        let reg = Request::Register {
            name: "a".into(),
            expr: "AUDIT disease FROM Patients".into(),
            now: Some(Timestamp(5000)),
        };
        assert_eq!(c.handle(reg.clone()).response.get("ok"), Some(&Json::Bool(true)));
        let r = c.handle(reg);
        assert!(
            r.response.get("error").and_then(Json::as_str).unwrap().contains("already"),
            "{}",
            r.response
        );
    }

    fn register(c: &mut ServiceCore, name: &str, expr: &str) {
        let r = c.handle(Request::Register {
            name: name.into(),
            expr: format!(
                "DURING 1/1/1970 TO 1/1/2100 DATA-INTERVAL 1/1/1970 TO 1/1/2100 AUDIT {expr}"
            ),
            now: Some(Timestamp(5000)),
        });
        assert_eq!(r.response.get("ok"), Some(&Json::Bool(true)), "{}", r.response);
    }

    fn queue_ids(c: &mut ServiceCore) -> Vec<i64> {
        let q = c.handle(Request::Queue { top: None, offset: 0 }).response;
        q.get("items")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|i| i.get("query").and_then(Json::as_int).unwrap())
            .collect()
    }

    #[test]
    fn triage_queue_ranks_reviews_and_reweights() {
        let mut c = core();
        register(&mut c, "cancer", "disease FROM Patients WHERE zipcode = '120016'");
        register(&mut c, "zipfind", "pid FROM Patients WHERE zipcode = '145568'");
        c.handle(log_req(200, "SELECT disease FROM Patients WHERE pid = 'nobody'")); // innocent
        c.handle(log_req(300, "SELECT disease FROM Patients WHERE zipcode = '120016'")); // q2
        c.handle(log_req(400, "SELECT pid FROM Patients WHERE zipcode = '145568'")); // q3

        // Only the flagged queries entered the queue; equal suspicion ties
        // break on ascending query id.
        assert_eq!(queue_ids(&mut c), vec![2, 3]);
        let t = c.handle(Request::Triage).response;
        assert_eq!(t.get("open").and_then(Json::as_int), Some(2), "{t}");
        assert_eq!(t.get("templates").and_then(Json::as_arr).map(<[Json]>::len), Some(2), "{t}");

        // Items carry their evidence: audit names and covered columns.
        let q = c.handle(Request::Queue { top: None, offset: 0 }).response;
        let first = &q.get("items").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(first.get("audits"), Some(&Json::Arr(vec![Json::Str("cancer".into())])), "{q}");
        assert_eq!(
            first.get("columns"),
            Some(&Json::Arr(vec![Json::Str("Patients.disease".into())])),
            "{q}"
        );
        assert!(first.get("touched").and_then(Json::as_int).unwrap() > 0, "{q}");

        // A sensitivity weight on pid (covered only by q3) promotes it
        // past q2.
        let r = c.handle(Request::Weight {
            table: "Patients".into(),
            column: Some("pid".into()),
            weight: 5.0,
        });
        assert_eq!(r.response.get("ok"), Some(&Json::Bool(true)), "{}", r.response);
        assert_eq!(queue_ids(&mut c), vec![3, 2]);

        // Ack and dismiss retire items from the ranked view but keep their
        // counts; unknown ids are refused.
        let r = c.handle(Request::Ack { query: 3 });
        assert_eq!(r.response.get("state"), Some(&Json::from("acked")), "{}", r.response);
        assert_eq!(queue_ids(&mut c), vec![2]);
        c.handle(Request::Dismiss { query: 2 });
        assert_eq!(queue_ids(&mut c), Vec::<i64>::new());
        let r = c.handle(Request::Ack { query: 99 });
        assert!(
            r.response.get("error").and_then(Json::as_str).unwrap().contains("never flagged"),
            "{}",
            r.response
        );
        let stats = c.handle(Request::Stats).response;
        assert_eq!(stats.get("triage_open").and_then(Json::as_int), Some(0));
        assert_eq!(stats.get("triage_acked").and_then(Json::as_int), Some(1));
        assert_eq!(stats.get("triage_dismissed").and_then(Json::as_int), Some(1));
    }

    /// Template-wide acknowledgement retires every open item sharing the
    /// mined template in one request, journals one record, and survives
    /// crash recovery; a template index with no open items is refused.
    #[test]
    fn bulk_ack_retires_template_and_survives_recovery() {
        use audex_persist::WalOptions;

        let dir = std::env::temp_dir().join(format!("audex-state-bulkack-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServiceConfig::default();
        let (journal, _) = Journal::open(&dir, WalOptions::default()).unwrap();
        let mut live = ServiceCore::new(Database::new(), config);
        live.attach_journal(journal);
        live.handle(Request::Dml {
            ts: Timestamp(100),
            sql: "CREATE TABLE Patients (pid TEXT, zipcode TEXT, disease TEXT); \
                  INSERT INTO Patients VALUES ('p1', '120016', 'cancer'), \
                  ('p2', '145568', 'flu');"
                .into(),
        });
        register(&mut live, "cancer", "disease FROM Patients WHERE zipcode = '120016'");
        register(&mut live, "zipfind", "pid FROM Patients WHERE zipcode = '145568'");
        // Two queries share the cancer template; one lands in zipfind's.
        live.handle(log_req(200, "SELECT disease FROM Patients WHERE zipcode = '120016'"));
        live.handle(log_req(300, "SELECT disease FROM Patients WHERE zipcode = '120016'"));
        live.handle(log_req(400, "SELECT pid FROM Patients WHERE zipcode = '145568'"));
        assert_eq!(queue_ids(&mut live).len(), 3);

        // Templates rank by open count, so the two-query template is 0.
        let r = live.handle(Request::AckTemplate { template: 0 }).response;
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
        assert_eq!(r.get("acked").and_then(Json::as_int), Some(2), "{r}");
        assert_eq!(r.get("queries"), Some(&Json::Arr(vec![Json::Int(1), Json::Int(2)])), "{r}");
        assert_eq!(queue_ids(&mut live), vec![3]);

        // Indexes are mined from the *open* listing; a stale or absent one
        // is refused rather than acking whatever now sits at that slot.
        let r = live.handle(Request::AckTemplate { template: 7 }).response;
        assert!(r.get("error").and_then(Json::as_str).unwrap().contains("no open items"), "{r}");

        let live_queue = live.handle(Request::Queue { top: None, offset: 0 }).response.to_string();
        let live_triage = live.handle(Request::Triage).response.to_string();
        drop(live); // crash

        let (journal, mut recovered) = Journal::open(&dir, WalOptions::default()).unwrap();
        let mut after = ServiceCore::recovered(&mut recovered, config).unwrap();
        after.attach_journal(journal);
        assert_eq!(
            after.handle(Request::Queue { top: None, offset: 0 }).response.to_string(),
            live_queue
        );
        assert_eq!(after.handle(Request::Triage).response.to_string(), live_triage);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Does any file under `dir` contain `needle`? Used to prove the WAL
    /// holds no raw SQL under `--redact-log`.
    fn dir_contains(dir: &std::path::Path, needle: &[u8]) -> bool {
        let mut stack = vec![dir.to_path_buf()];
        while let Some(d) = stack.pop() {
            for entry in std::fs::read_dir(&d).unwrap() {
                let p = entry.unwrap().path();
                if p.is_dir() {
                    stack.push(p);
                } else if std::fs::read(&p).unwrap().windows(needle.len()).any(|w| w == needle) {
                    return true;
                }
            }
        }
        false
    }

    /// Redacted mode: the WAL never sees query text, yet crash recovery
    /// rebuilds the review queue (states, weights, ranking) byte-identically
    /// from the structural records — and a post-recovery `audit` honestly
    /// reports the redacted queries as skipped instead of re-auditing
    /// placeholders.
    #[test]
    fn redacted_recovery_rebuilds_queue_and_reports_skipped() {
        use audex_persist::{FsyncPolicy, WalOptions};

        let dir = std::env::temp_dir().join(format!("audex-state-redact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config =
            ServiceConfig { redact_log: true, review_budget: Some(5), ..ServiceConfig::default() };
        let options = WalOptions { fsync: FsyncPolicy::Always, segment_max_bytes: 4 * 1024 * 1024 };
        let (journal, _) = Journal::open(&dir, options).unwrap();
        let mut live = ServiceCore::new(Database::new(), config);
        live.attach_journal(journal);
        live.handle(Request::Dml {
            ts: Timestamp(100),
            sql: "CREATE TABLE Patients (pid TEXT, zipcode TEXT, disease TEXT); \
                  INSERT INTO Patients VALUES ('p1', '120016', 'cancer'), \
                  ('p2', '145568', 'flu');"
                .into(),
        });
        register(&mut live, "cancer", "disease FROM Patients WHERE zipcode = '120016'");
        live.handle(log_req(200, "SELECT pid FROM Patients WHERE zipcode = '145568'"));
        live.handle(log_req(300, "SELECT disease FROM Patients WHERE zipcode = '120016'"));
        live.handle(log_req(400, "SELECT disease FROM Patients"));
        live.handle(Request::Ack { query: 2 });
        live.handle(Request::Weight { table: "Patients".into(), column: None, weight: 2.0 });
        let live_queue = live.handle(Request::Queue { top: None, offset: 0 }).response.to_string();
        let live_triage = live.handle(Request::Triage).response.to_string();
        drop(live); // crash

        // No query text on disk (DML and audit expressions are not SELECTs).
        assert!(!dir_contains(&dir, b"SELECT"), "raw SQL leaked into the WAL");

        let (journal, mut recovered) = Journal::open(&dir, WalOptions::default()).unwrap();
        let mut after = ServiceCore::recovered(&mut recovered, config).unwrap();
        after.attach_journal(journal);
        assert_eq!(
            after.handle(Request::Queue { top: None, offset: 0 }).response.to_string(),
            live_queue
        );
        assert_eq!(after.handle(Request::Triage).response.to_string(), live_triage);

        // Batch re-audit of the redacted span is impossible by design; the
        // verdict says so instead of silently auditing placeholders.
        let audit = after.handle(Request::Audit { name: "cancer".into() }).response;
        let skipped = audit.get("skipped").and_then(Json::as_arr).unwrap();
        assert!(!skipped.is_empty(), "{audit}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
