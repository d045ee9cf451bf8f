//! The traced pass: every op runs in-process twice, in lockstep.
//!
//! * The **handler** plays `server::conn::serve_connection` against a real
//!   durable `ShardMap`: `proto.decode` → `tenant.route` →
//!   `tenant.lock_wait` → `state.handle` → `proto.encode`, one span each,
//!   one request id per op.
//! * The **layers** then perform the same op on instances the benchmark
//!   owns — `Database`, `QueryLog`, `OnlineAuditor` with the same prepared
//!   audits, `TouchIndex`, `ReviewQueue`, a `Journal` in its own directory —
//!   by making the public calls `handle_log` / `handle_dml` / `handle_audit`
//!   make, in their order, one span per call.
//!
//! The layers' scores must equal the `scores` in the handler's reply for
//! every op; that is what makes a layer timing a timing of the same work.
//! Spans are recorded here, around calls into the layers — the program
//! itself is not instrumented.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use audex_core::{
    AuditEngine, AuditId, EngineOptions, Governor, OnlineAuditor, QueryScore, TouchIndex,
};
use audex_log::{AccessContext, LoggedQuery, QueryId, QueryLog};
use audex_obs::{Registry, Tracer};
use audex_persist::{CheckpointDerived, DbSnapshot, Journal, WalOptions, WalRecord};
use audex_service::json::obj;
use audex_service::{parse_envelope, Json, Request, Routed, ServiceConfig, ServiceCore, ShardMap};
use audex_sql::{Ident, Timestamp};
use audex_storage::{ChangeRecord, ChangeSink, Database, JoinStrategy, Schema};
use audex_triage::ReviewQueue;

use crate::drive::RepSpec;
use crate::gen::{self, fnv1a64, Kind};

const NO_SPAN: u32 = u32::MAX;

/// One recorded span. `parent` indexes [`Trace::spans`]; `req` is the op's
/// request id (0 for work outside any op).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder, written out once when the pass ends. A
/// disabled recorder costs one branch per call.
pub struct Trace {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    req: u32,
}

impl Trace {
    pub fn new(enabled: bool) -> Trace {
        Trace { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), req: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> u32 {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_SPAN);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req: self.req });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: u32) {
        if id == NO_SPAN {
            return;
        }
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
        self.open.pop();
    }

    /// Times one call as a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    fn rename(&mut self, id: u32, name: &'static str) {
        if id != NO_SPAN {
            self.spans[id as usize].name = name;
        }
    }

    /// Durations of every span called `name` whose request id `pick`s.
    pub fn durations(&self, name: &str, pick: impl Fn(u32) -> bool) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name && pick(s.req)).map(Span::dur_ns).collect()
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): complete
    /// events in µs, each carrying its request id and its parent's name.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = self.spans.get(s.parent as usize).map_or("", |p| p.name);
            let _ = writeln!(
                out,
                "{}{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"name\":\"{}\",\
                 \"args\":{{\"req\":{},\"parent\":\"{}\"}}}}",
                if i == 0 { "" } else { "," },
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.name,
                s.req,
                parent
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Buffers the change records a `Database` commits, so the replay can time
/// `storage.execute` and `persist.append` apart (the daemon's journal is
/// the sink itself and appends inside `execute`).
#[derive(Default)]
struct ChangeBuffer(Mutex<Vec<WalRecord>>);

impl ChangeBuffer {
    fn take(&self) -> Vec<WalRecord> {
        std::mem::take(&mut *self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl ChangeSink for ChangeBuffer {
    fn on_create_table(&self, name: &Ident, schema: &Schema, ts: Timestamp) {
        let rec = WalRecord::CreateTable { name: name.clone(), schema: schema.clone(), ts };
        self.0.lock().unwrap_or_else(PoisonError::into_inner).push(rec);
    }

    fn on_change(&self, table: &Ident, rec: &ChangeRecord) {
        let rec = WalRecord::Change { table: table.clone(), rec: rec.clone() };
        self.0.lock().unwrap_or_else(PoisonError::into_inner).push(rec);
    }
}

/// One tenant's bench-owned layer instances.
struct Layers {
    db: Database,
    log: QueryLog,
    online: OnlineAuditor,
    index: TouchIndex,
    triage: ReviewQueue,
    journal: Arc<Journal>,
    journal_dir: PathBuf,
    changes: Arc<ChangeBuffer>,
    /// Registered audit names; `AuditId(k)` is `names[k]` (nothing is
    /// ever unregistered).
    names: Vec<String>,
    config: ServiceConfig,
    /// `[ingested, rejected, dml, governor trips, events]`, as a
    /// checkpoint stores them.
    counters: [u64; 5],
    scores: u64,
}

impl Layers {
    fn open(dir: &Path, config: ServiceConfig, wal: WalOptions) -> Result<Layers, String> {
        let (journal, _) = Journal::open(dir, wal).map_err(|e| format!("layers journal: {e}"))?;
        // The daemon's journal mirrors its counters into a registry.
        journal.set_obs(&Registry::new(), Tracer::disabled());
        let changes = Arc::new(ChangeBuffer::default());
        let mut db = Database::new();
        db.set_change_sink(Arc::clone(&changes) as Arc<dyn ChangeSink>);
        let mut online = OnlineAuditor::new(Vec::new());
        online.set_strategy(config.strategy);
        Ok(Layers {
            db,
            log: QueryLog::new(),
            online,
            index: TouchIndex::new(),
            triage: ReviewQueue::new(config.review_budget),
            journal,
            journal_dir: dir.to_path_buf(),
            changes,
            names: Vec::new(),
            config,
            counters: [0; 5],
            scores: 0,
        })
    }

    /// `Journal::append`, named apart when the batch policy made this
    /// append pay the fsync.
    fn append(&self, trace: &mut Trace, rec: WalRecord) {
        let before = self.journal.counters().fsyncs;
        let id = trace.begin("persist.append");
        self.journal.append(rec);
        trace.end(id);
        if self.journal.counters().fsyncs != before {
            trace.rename(id, "persist.append_sync");
        }
    }

    /// The same op, layer by layer. `reply` is the handler's response, to
    /// check the layers did the same work.
    fn apply(
        &mut self,
        trace: &mut Trace,
        req: &Request,
        kind: Option<Kind>,
        reply: &Json,
    ) -> Result<(), String> {
        let strategy: JoinStrategy = self.config.strategy;
        match req {
            Request::Dml { ts, sql } => {
                let stmts = trace
                    .leaf("sqlparse.parse_script", || audex_sql::parse_script(sql))
                    .map_err(|e| format!("layers: dml does not parse: {e}"))?;
                let mut clock = *ts;
                for stmt in &stmts {
                    trace
                        .leaf("storage.execute", || self.db.execute(stmt, clock))
                        .map_err(|e| format!("layers: {e}"))?;
                    for rec in self.changes.take() {
                        self.append(trace, rec);
                    }
                    self.counters[2] += 1;
                    clock = clock.plus_seconds(1);
                }
            }
            Request::Log { ts, user, role, purpose, sql } => {
                let query = trace
                    .leaf("sqlparse.parse_query", || audex_sql::parse_query(sql))
                    .map_err(|e| format!("layers: query does not parse: {e}"))?;
                let context = AccessContext::new(user.clone(), role.clone(), purpose.clone());
                let entry = Arc::new(LoggedQuery::new(
                    QueryId(self.log.len() as u64 + 1),
                    query,
                    sql.clone(),
                    *ts,
                    context.clone(),
                ));
                let observe =
                    if kind == Some(Kind::ScanWide) { "core.observe_wide" } else { "core.observe" };
                let (scores, footprint) = trace
                    .leaf(observe, || self.online.observe_with_footprint(&self.db, &entry))
                    .map_err(|e| format!("layers: observe: {e}"))?;
                trace.leaf("core.index_extend", || self.index.extend_prepared(entry.id, footprint));
                let id = trace
                    .leaf("querylog.append", || {
                        self.log.record_text_validated(sql, *ts, context.clone())
                    })
                    .map_err(|e| format!("layers: log append: {e}"))?;
                self.append(
                    trace,
                    WalRecord::LogAppend {
                        ts: *ts,
                        user: context.user.clone(),
                        role: context.role.clone(),
                        purpose: context.purpose.clone(),
                        sql: sql.clone(),
                    },
                );
                if !scores.is_empty() {
                    trace.leaf("triage.observe", || {
                        self.triage.observe(
                            id,
                            *ts,
                            context.user.clone(),
                            context.role.clone(),
                            context.purpose.clone(),
                            &scores,
                        )
                    });
                }
                let touched: BTreeSet<AuditId> = scores.iter().map(|s| s.audit).collect();
                self.counters[0] += 1;
                self.counters[4] += (scores.len() + touched.len()) as u64;
                self.scores += scores.len() as u64;
                // The shared execution runs inside `observe`; time an
                // identical one beside it (after, so `observe` met the
                // caches as the daemon's did) to show storage's part.
                let probe = trace.begin("storage.query");
                let rows = self.db.at(*ts).query_with(entry.query(), strategy);
                trace.end(probe);
                black_box(rows.map_err(|e| format!("layers: query: {e}"))?);

                let mine = self.score_rows(&scores).to_string();
                let theirs = reply.get("scores").map(Json::to_string).unwrap_or_default();
                if mine != theirs {
                    return Err(format!(
                        "layer-replay scores differ from the daemon's for query {}: {mine} vs {theirs}",
                        id.0
                    ));
                }
            }
            Request::Register { name, expr, now } => {
                let parsed = trace
                    .leaf("sqlparse.parse_audit", || audex_sql::parse_audit(expr))
                    .map_err(|e| format!("layers: audit does not parse: {e}"))?;
                let now = now.ok_or("layers: register without now")?;
                let prepared = trace
                    .leaf("core.prepare", || {
                        AuditEngine::with_options(
                            &self.db,
                            &self.log,
                            EngineOptions { strategy, ..EngineOptions::default() },
                        )
                        .prepare_governed(
                            &parsed,
                            now,
                            &Governor::unlimited(),
                        )
                    })
                    .map_err(|e| format!("layers: prepare: {e}"))?;
                self.online.push(prepared);
                self.names.push(name.clone());
                self.append(
                    trace,
                    WalRecord::Register { name: name.clone(), expr: expr.clone(), now },
                );
            }
            Request::Audit { name } => {
                let k = self
                    .names
                    .iter()
                    .position(|n| n == name)
                    .ok_or_else(|| format!("layers: no audit {name}"))?;
                let prepared =
                    self.online.audit(AuditId(k as u64)).ok_or("layers: audit has no state")?;
                let snapshot = trace.leaf("querylog.snapshot", || self.log.snapshot());
                let verdict = trace
                    .leaf("core.index_evaluate", || {
                        let admitted: BTreeSet<QueryId> = snapshot
                            .iter()
                            .filter(|e| prepared.filter.admits(e))
                            .map(|e| e.id)
                            .collect();
                        self.index.evaluate_governed(prepared, &admitted, &Governor::unlimited())
                    })
                    .map_err(|e| format!("layers: evaluate: {e}"))?;
                let mine =
                    Json::Arr(verdict.contributing.iter().map(|q| Json::Int(q.0 as i64)).collect());
                if reply.get("contributing") != Some(&mine)
                    || reply.get("suspicious") != Some(&Json::Bool(verdict.suspicious))
                {
                    return Err(format!(
                        "layer-replay verdict for {name} differs from the daemon's"
                    ));
                }
            }
            Request::Queue { top, offset } => {
                let items = trace.leaf("triage.page", || self.triage.page(*top, *offset).len());
                if reply.get("items").and_then(Json::as_arr).map(<[Json]>::len) != Some(items) {
                    return Err("layer-replay queue page differs from the daemon's".into());
                }
            }
            _ => {}
        }
        self.maybe_checkpoint(trace)
    }

    /// The `scores` array `handle_log` renders.
    fn score_rows(&self, scores: &[QueryScore]) -> Json {
        Json::Arr(
            scores
                .iter()
                .map(|s| {
                    obj([
                        ("audit", Json::Str(self.names[s.audit.0 as usize].clone())),
                        ("fact_coverage", Json::Float(s.fact_coverage)),
                        ("column_coverage", Json::Float(s.column_coverage)),
                        ("closeness", Json::Float(s.closeness)),
                    ])
                })
                .collect(),
        )
    }

    /// `ServiceCore::maybe_auto_checkpoint` and `ServiceCore::checkpoint`.
    fn maybe_checkpoint(&mut self, trace: &mut Trace) -> Result<(), String> {
        let Some(every) = self.config.checkpoint_every else { return Ok(()) };
        if self.journal.checkpoint_lag() < every {
            return Ok(());
        }
        trace
            .leaf("persist.checkpoint", || {
                let (footprints, skipped) = self.index.export();
                self.journal.write_checkpoint(CheckpointDerived {
                    footprints,
                    skipped,
                    audit_states: self.online.export_states(),
                    counters: self.counters,
                    triage: self.triage.export(),
                    db: self.db.mvcc_stores().map(|stores| DbSnapshot {
                        last_ts: self.db.last_ts(),
                        stores: stores.into_iter().cloned().collect(),
                    }),
                })
            })
            .map(|_| ())
            .map_err(|e| format!("layers: checkpoint: {e}"))
    }
}

/// What one in-process pass produced.
pub struct Pass {
    pub trace: Trace,
    /// Request id → kind, `None` for set-up ops; index 0 is unused.
    pub kinds: Vec<Option<Kind>>,
    /// Wall-clock of the drive ops alone.
    pub drive_s: f64,
    /// One digest per tenant over its drive replies, as `Rep::reply_digests`.
    pub reply_digests: Vec<String>,
    /// Score rows the layers produced over the drive.
    pub scores: u64,
    /// Spot measurements taken once the drive is over, in ns.
    pub spot: Vec<(&'static str, Vec<u64>)>,
    pub obs_series: u64,
}

/// Runs set-up and drive in-process, handler and layers in lockstep, with
/// span recording on or off. The two tenants' streams interleave op by op.
pub fn run(spec: &RepSpec, record: bool) -> Result<Pass, String> {
    let fleet_cfg = spec.fleet_config();
    let (fleet, _) = ShardMap::open(&fleet_cfg)?;
    let tenants = spec.workload.tenants;
    let mut layers = Vec::with_capacity(tenants);
    for t in 0..tenants {
        let dir = spec.dir.join(format!("layers-{t}"));
        layers.push(Layers::open(&dir, fleet_cfg.service, fleet_cfg.wal)?);
    }
    let mut trace = Trace::new(record);
    let mut kinds: Vec<Option<Kind>> = vec![None];

    let mut play = |trace: &mut Trace,
                    layers: &mut Vec<Layers>,
                    t: usize,
                    line: &str,
                    kind: Option<Kind>|
     -> Result<u64, String> {
        kinds.push(kind);
        trace.req = kinds.len() as u32 - 1;
        let op = trace.begin("op");
        let env = trace.leaf("proto.decode", || parse_envelope(line))?;
        let req = env.req.clone();
        let routed = trace.leaf("tenant.route", || fleet.route(env.tenant.as_deref(), env.req));
        let (response, events) = match routed {
            Routed::Shard(shard, routed_req) => {
                let mut core = trace.leaf("tenant.lock_wait", || shard.lock());
                let outcome = trace.leaf("state.handle", || core.handle(routed_req));
                (outcome.response, outcome.events)
            }
            Routed::Reply(response) | Routed::Shutdown(response) => (response, Vec::new()),
        };
        let reply = trace.leaf("proto.encode", || response.to_string());
        if !crate::drive::is_ok(&reply) {
            return Err(format!("in-process handler refused {line}: {reply}"));
        }
        // The hub renders each event once for the publishing tenant's
        // subscribers; the one subscriber listens to the default tenant.
        if t == 0 && !events.is_empty() {
            trace.leaf("server.event_render", || {
                for e in &events {
                    black_box(e.to_string());
                }
            });
        }
        let l = trace.begin("layers");
        layers[t].apply(trace, &req, kind, &response)?;
        trace.end(l);
        trace.end(op);
        trace.req = 0;
        Ok(fnv1a64(reply.as_bytes()))
    };

    for t in 0..tenants {
        for line in gen::setup_lines(&spec.sizes, spec.seed, t) {
            play(&mut trace, &mut layers, t, &line, None)?;
        }
    }
    let streams = spec.streams();
    let mut reply_hashes: Vec<Vec<u64>> =
        streams.iter().map(|s| Vec::with_capacity(s.len())).collect();
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    let started = Instant::now();
    for j in 0..longest {
        for (t, ops) in streams.iter().enumerate() {
            if let Some(op) = ops.get(j) {
                reply_hashes[t].push(play(&mut trace, &mut layers, t, &op.line, Some(op.kind))?);
            }
        }
    }
    let drive_s = started.elapsed().as_secs_f64();

    // Spot measurements at end-of-run size, default tenant.
    let time5 = |f: &mut dyn FnMut()| -> Vec<u64> {
        (0..5)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_nanos() as u64
            })
            .collect()
    };
    let registry = fleet.registry();
    let page = registry.render_prometheus();
    let obs_series = page.lines().filter(|l| !l.is_empty() && !l.starts_with('#')).count() as u64;
    let mut spot = vec![
        ("querylog.snapshot", time5(&mut || drop(black_box(layers[0].log.snapshot())))),
        ("obs.render", time5(&mut || drop(black_box(registry.render_prometheus())))),
    ];
    let scores = layers.iter().map(|l| l.scores).sum();

    // Recovery, split the way `ShardMap::open` spends it: `Journal::open`
    // (scan + CRC + decode), then `ServiceCore::recovered` (replay).
    let Layers { journal, journal_dir, config, .. } = layers.swap_remove(0);
    let _ = journal.sync();
    drop(journal);
    let t = Instant::now();
    let (_journal, mut recovered) = Journal::open(&journal_dir, fleet_cfg.wal)
        .map_err(|e| format!("layers journal reopen: {e}"))?;
    spot.push(("persist.open", vec![t.elapsed().as_nanos() as u64]));
    let t = Instant::now();
    let core = ServiceCore::recovered(&mut recovered, config)
        .map_err(|e| format!("layers journal replay: {e}"))?;
    spot.push(("state.recovered", vec![t.elapsed().as_nanos() as u64]));
    drop(core);

    let reply_digests = reply_hashes.into_iter().map(gen::digest).collect();
    Ok(Pass { trace, kinds, drive_s, reply_digests, scores, spot, obs_series })
}
