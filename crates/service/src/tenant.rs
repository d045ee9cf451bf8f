//! Multi-tenant sharding: org-scoped [`ServiceCore`]s behind one front
//! door.
//!
//! Production audit services are org-scoped by construction — a hospital
//! audits its own log, not its neighbour's — and the single-core service
//! made every org contend on one mutex and one WAL. The [`ShardMap`]
//! gives each tenant an *independent* [`ServiceCore`]: its own database,
//! query log, standing audits, dispatch index, governor, and
//! [`Journal`](audex_persist::Journal) under
//! `<data-dir>/tenants/<name>/` (the default tenant keeps the data-dir
//! root, so pre-tenancy stores need no migration — see
//! [`audex_persist::tenants`]). Independent tenants therefore ingest,
//! audit, and checkpoint fully in parallel: the hot path shares no lock.
//!
//! # Lock discipline
//!
//! * **Data plane** (`dml`/`log`/`register`/`audit`/...): take the shard
//!   map's read lock just long enough to clone one `Arc<Shard>`, release
//!   it, then lock that shard alone. No thread on the data plane ever
//!   holds two shard locks.
//! * **Control plane** (`create-tenant`/`drop-tenant`): serialize on the
//!   map's write lock; journal I/O for the new shard happens under it so
//!   two racing creates cannot double-open one WAL directory.
//! * **Fan-outs**: `stats`/`metrics` with `all_tenants` *try*-lock one
//!   shard at a time (snapshot-then-aggregate) and report a held shard
//!   as `busy` instead of waiting — a wedged or stuck tenant cannot
//!   block observability for the healthy ones. `audit --all-tenants`
//!   runs one worker per shard, at most one per core, over
//!   [`par_map`](audex_core::parallel::par_map); each worker holds
//!   exactly one shard lock. Fleet recovery replays its stores over the
//!   same `par_map`, before any shard is shared.
//! * **Drain** (in [`crate::server`]): the only place that holds every
//!   shard lock at once, acquired in `BTreeMap` (name) order.
//!
//! # Degraded tenants
//!
//! Fleet recovery ([`ShardMap::open`]) opens every tenant's journal in
//! order, the default's first (its failure alone is fatal), then replays
//! them all at once; a named tenant whose journal or replay fails is
//! *skipped and reported* — it appears in `list-tenants` as `degraded`
//! with the error, serves nothing, and can be dropped — instead of
//! failing the whole fleet.
//!
//! # Observability
//!
//! Each shard keeps its own metrics registry (per-tenant series stay
//! exact and byte-identical to a single-tenant daemon). The *fleet*
//! registry — the default shard's, which also carries the shared
//! front-door series — additionally aggregates per-tenant
//! `audex_tenant_*` series labeled `tenant=<name>`, refreshed on every
//! `stats`/`metrics --all-tenants`; the registry's 256-series-per-family
//! cardinality cap absorbs pathological tenant counts.

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, TryLockError};

use audex_core::parallel::{default_parallelism, par_map};
use audex_obs::Registry;
use audex_persist::tenants as layout;
use audex_persist::{Journal, PersistError, Recovered, WalOptions};
use audex_storage::Database;

use crate::json::{obj, Json};
use crate::proto::Request;
use crate::server::protocol_error;
use crate::state::{ServiceConfig, ServiceCore};

/// The tenant every unaddressed request goes to, unless `serve` renames
/// it with `--default-tenant`.
pub const DEFAULT_TENANT: &str = "default";

/// A validated tenant name (see [`audex_persist::tenants::valid_name`]
/// for the rules — it doubles as a directory name, so it must be a safe
/// path component).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(String);

impl TenantId {
    /// Validates and wraps a tenant name.
    pub fn new(name: &str) -> Result<TenantId, String> {
        layout::valid_name(name)?;
        Ok(TenantId(name.to_string()))
    }

    /// The tenant name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// One tenant's shard: its name and its private [`ServiceCore`] behind
/// the shard's own mutex. Handlers for different tenants never contend.
pub struct Shard {
    id: TenantId,
    core: Mutex<ServiceCore>,
}

impl fmt::Debug for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shard").field("id", &self.id).finish_non_exhaustive()
    }
}

impl Shard {
    fn new(id: TenantId, core: ServiceCore) -> Arc<Shard> {
        Arc::new(Shard { id, core: Mutex::new(core) })
    }

    /// The tenant this shard serves.
    pub fn id(&self) -> &TenantId {
        &self.id
    }

    /// Locks the shard's core (blocking). A handler panicking mid-request
    /// cannot leave worse state than a dropped request; keep serving.
    pub fn lock(&self) -> MutexGuard<'_, ServiceCore> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the shard's core only if free — the snapshot-then-aggregate
    /// fan-outs use this so one stuck tenant cannot stall the fleet.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, ServiceCore>> {
        match self.core.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }
}

/// How a durable fleet opens its stores.
struct Durability {
    data_dir: PathBuf,
    wal: WalOptions,
}

/// Configuration for opening a durable fleet ([`ShardMap::open`]).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-shard service tuning (every tenant gets the same knobs).
    pub service: ServiceConfig,
    /// Name of the default tenant (`--default-tenant`; the shard that
    /// answers unaddressed requests and journals at the data-dir root).
    pub default_tenant: String,
    /// The fleet's data directory.
    pub data_dir: PathBuf,
    /// WAL tuning for every tenant's journal.
    pub wal: WalOptions,
}

/// What recovering one tenant found (or why it is degraded).
#[derive(Debug)]
pub struct TenantRecovery {
    /// The tenant name.
    pub tenant: String,
    /// Total records recovered (checkpoint prefix + WAL tail).
    pub records: u64,
    /// Records covered by the checkpoint (0 when none).
    pub via_checkpoint: u64,
    /// Records replayed from the WAL tail.
    pub tail: usize,
    /// Repair notes from the scan (torn tails, reconciliations).
    pub notes: Vec<String>,
    /// `Some(why)` when the tenant could not be recovered and was left
    /// degraded instead of joining the fleet.
    pub error: Option<String>,
}

impl TenantRecovery {
    fn summarize(tenant: &str, recovered: &Recovered) -> TenantRecovery {
        TenantRecovery {
            tenant: tenant.to_string(),
            records: recovered.total_records(),
            via_checkpoint: recovered.checkpoint.as_ref().map_or(0, |c| c.covers_seq),
            tail: recovered.tail.len(),
            notes: recovered.notes.clone(),
            error: None,
        }
    }

    fn failed(tenant: &str, error: String) -> TenantRecovery {
        TenantRecovery {
            tenant: tenant.to_string(),
            records: 0,
            via_checkpoint: 0,
            tail: 0,
            notes: Vec::new(),
            error: Some(error),
        }
    }
}

/// Everything fleet recovery found, tenant by tenant (default first).
#[derive(Debug)]
pub struct FleetRecovery {
    /// Per-tenant recovery summaries.
    pub tenants: Vec<TenantRecovery>,
}

/// Where a parsed request goes.
pub enum Routed {
    /// Lock this shard and run the request on its core.
    Shard(Arc<Shard>, Request),
    /// The fleet answered directly (control plane or fan-out): one
    /// response line, no events.
    Reply(Json),
    /// Stop the service; every journal has been synced. Send the
    /// response, then begin the drain.
    Shutdown(Json),
}

/// The tenant-keyed shard map: the layer between the front door and the
/// per-tenant cores. See the module docs for the lock discipline.
pub struct ShardMap {
    shards: RwLock<BTreeMap<TenantId, Arc<Shard>>>,
    default_shard: Arc<Shard>,
    default_id: TenantId,
    /// The fleet registry (the default shard's): front-door series plus
    /// the `audex_tenant_*` aggregates live here.
    registry: Arc<Registry>,
    config: ServiceConfig,
    durability: Option<Durability>,
    /// Tenants that failed recovery: name → why. Reported, not served.
    degraded: Mutex<BTreeMap<String, String>>,
    /// Set when a drain begins; the control plane refuses new work.
    frozen: AtomicBool,
}

impl ShardMap {
    /// Wraps one existing core as a single-tenant, ephemeral fleet under
    /// the default tenant name — the compatibility path every
    /// pre-tenancy embedder and test goes through.
    pub fn single(core: ServiceCore) -> ShardMap {
        let id = TenantId(DEFAULT_TENANT.to_string());
        ShardMap::build(core, id, None)
    }

    /// An ephemeral fleet (no data dir) around an existing default core.
    /// `create-tenant` makes in-memory tenants.
    pub fn with_default(core: ServiceCore, default_tenant: &str) -> Result<ShardMap, String> {
        let id = TenantId::new(default_tenant)?;
        Ok(ShardMap::build(core, id, None))
    }

    fn build(core: ServiceCore, id: TenantId, durability: Option<Durability>) -> ShardMap {
        let registry = core.registry();
        let config = core.config();
        let default_shard = Shard::new(id.clone(), core);
        let mut shards = BTreeMap::new();
        shards.insert(id.clone(), Arc::clone(&default_shard));
        ShardMap {
            shards: RwLock::new(shards),
            default_shard,
            default_id: id,
            registry,
            config,
            durability,
            degraded: Mutex::new(BTreeMap::new()),
            frozen: AtomicBool::new(false),
        }
    }

    /// Opens (and recovers) a durable fleet: the default tenant from the
    /// data-dir root and every discovered `tenants/<name>/` store. Journals
    /// open in order, so a default failure is fatal (as in the single-tenant
    /// serve path) before any named store or its torn tail is touched; then
    /// the replays fan out, one worker per store up to the core count. A
    /// named tenant that fails is left **degraded**, reported in the
    /// [`FleetRecovery`] and by `list-tenants`, and the fleet still opens.
    pub fn open(cfg: &FleetConfig) -> Result<(ShardMap, FleetRecovery), String> {
        let id = TenantId::new(&cfg.default_tenant)?;
        let dir = &cfg.data_dir;
        let discovered = layout::discover(dir)
            .map_err(|e| format!("enumerating {}/tenants: {e}", dir.display()))?;
        // `par_map` lends its items: the uncontended lock hands each worker
        // its own store's `Recovered` mutably.
        let lend =
            |(journal, recovered): (Arc<Journal>, Recovered)| (journal, Mutex::new(recovered));
        let opened = Journal::open(dir, cfg.wal)
            .map(lend)
            .map_err(|e| format!("opening durable store {}: {e}", dir.display()))?;
        let mut stores = vec![(cfg.default_tenant.clone(), dir.clone(), Ok(opened))];
        for (name, tenant_dir) in discovered {
            let opened = if name == cfg.default_tenant {
                // The default journals at the root: report a shadowing
                // directory rather than silently keep two stores.
                Err("shadows the default tenant (its store is the data-dir root)".to_string())
            } else {
                Journal::open(&tenant_dir, cfg.wal)
                    .map(lend)
                    .map_err(|e| format!("opening {}: {e}", tenant_dir.display()))
            };
            stores.push((name, tenant_dir, opened));
        }
        let mut replayed: Vec<Result<_, String>> =
            par_map(default_parallelism(), &stores, |i, (name, dir, opened)| {
                let (journal, recovered) = opened.as_ref().map_err(String::clone)?;
                let mut recovered = recovered.lock().unwrap_or_else(PoisonError::into_inner);
                let core =
                    recover_store(journal, &mut recovered, cfg.service).map_err(|e| match i {
                        0 => format!("recovering service state from {}: {e}", dir.display()),
                        _ => format!("replaying {}: {e}", dir.display()),
                    })?;
                Ok((core, TenantRecovery::summarize(name, &recovered)))
            });

        let (core, summary) = replayed.remove(0)?;
        let map =
            ShardMap::build(core, id, Some(Durability { data_dir: dir.clone(), wal: cfg.wal }));
        let mut report = vec![summary];
        for ((name, ..), replay) in stores.iter().skip(1).zip(replayed) {
            match replay {
                Ok((mut core, summary)) => {
                    core.set_front_registry(Arc::clone(&map.registry));
                    // `discover` yields only valid names.
                    let id = TenantId(name.clone());
                    map.lock_shards_mut().insert(id.clone(), Shard::new(id, core));
                    report.push(summary);
                }
                Err(why) => {
                    map.mark_degraded(name, &why);
                    report.push(TenantRecovery::failed(name, why));
                }
            }
        }
        Ok((map, FleetRecovery { tenants: report }))
    }

    fn lock_shards(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<TenantId, Arc<Shard>>> {
        self.shards.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_shards_mut(&self) -> std::sync::RwLockWriteGuard<'_, BTreeMap<TenantId, Arc<Shard>>> {
        self.shards.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_degraded(&self) -> MutexGuard<'_, BTreeMap<String, String>> {
        self.degraded.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn mark_degraded(&self, name: &str, why: &str) {
        self.lock_degraded().insert(name.to_string(), why.to_string());
    }

    /// The fleet registry: the default shard's, shared with the front
    /// door and carrying the `audex_tenant_*` aggregates.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// The default tenant's name.
    pub fn default_tenant(&self) -> &str {
        self.default_id.name()
    }

    /// How many tenants are currently serving (degraded ones excluded).
    pub fn tenant_count(&self) -> usize {
        self.lock_shards().len()
    }

    /// Every serving shard, in name order — the drain and the fan-outs
    /// iterate this snapshot so they never hold the map lock while
    /// touching a shard.
    pub fn shards(&self) -> Vec<Arc<Shard>> {
        self.lock_shards().values().cloned().collect()
    }

    /// Runs `f` on the default tenant's core (the CLI uses this to attach
    /// a tracer after recovery).
    pub fn with_default_core<R>(&self, f: impl FnOnce(&mut ServiceCore) -> R) -> R {
        let mut core = self.default_shard.lock();
        f(&mut core)
    }

    /// Freezes the control plane: `create-tenant`/`drop-tenant` refuse
    /// from here on. Called at the start of a drain so no shard can be
    /// born after the drain collected its lock set.
    pub fn freeze(&self) {
        self.frozen.store(true, Ordering::SeqCst);
    }

    fn is_frozen(&self) -> bool {
        self.frozen.load(Ordering::SeqCst)
    }

    /// Resolves a tenant address to its shard. `None` is the default
    /// tenant — the compatibility path for every pre-tenancy client.
    pub fn resolve(&self, tenant: Option<&str>) -> Result<Arc<Shard>, String> {
        let Some(name) = tenant else { return Ok(Arc::clone(&self.default_shard)) };
        if name == self.default_id.name() {
            return Ok(Arc::clone(&self.default_shard));
        }
        let id = TenantId::new(name)?;
        if let Some(shard) = self.lock_shards().get(&id) {
            return Ok(Arc::clone(shard));
        }
        if let Some(why) = self.lock_degraded().get(name) {
            return Err(format!("tenant {name:?} is degraded: {why}"));
        }
        Err(format!("unknown tenant {name:?} (create-tenant first)"))
    }

    /// Routes one parsed request: fleet-scoped commands are answered
    /// here; everything else resolves to one shard for the transport to
    /// lock and run. Fleet ops observe the same per-command latency
    /// histogram the cores keep, in the fleet registry.
    pub fn route(&self, tenant: Option<&str>, req: Request) -> Routed {
        if req.is_fleet_op() || req == Request::Shutdown {
            let started = std::time::Instant::now();
            let cmd = req.cmd_name();
            let routed = match req {
                Request::CreateTenant { name } => Routed::Reply(self.create_tenant(&name)),
                Request::DropTenant { name } => Routed::Reply(self.drop_tenant(&name)),
                Request::ListTenants => Routed::Reply(self.list_tenants()),
                Request::StatsAll => Routed::Reply(self.stats_all()),
                Request::MetricsAll => Routed::Reply(self.metrics_all()),
                Request::AuditAll { name } => Routed::Reply(self.audit_all(&name)),
                Request::Shutdown => Routed::Shutdown(self.shutdown()),
                // is_fleet_op + Shutdown is exhaustive above.
                other => Routed::Shard(Arc::clone(&self.default_shard), other),
            };
            self.registry
                .latency_histogram(
                    "audex_request_seconds",
                    "Wall-clock per wire request, by command.",
                    &[("cmd", cmd)],
                )
                .observe_duration(started.elapsed());
            routed
        } else {
            match self.resolve(tenant) {
                Ok(shard) => Routed::Shard(shard, req),
                Err(why) => Routed::Reply(protocol_error(why)),
            }
        }
    }

    /// `create-tenant`: a fresh, empty shard (and, when the fleet is
    /// durable, a fresh journal under `tenants/<name>/`). Serialized on
    /// the map write lock so racing creates cannot double-open one WAL.
    fn create_tenant(&self, name: &str) -> Json {
        if self.is_frozen() {
            return protocol_error("create-tenant: shutting down".into());
        }
        let id = match TenantId::new(name) {
            Ok(id) => id,
            Err(e) => return protocol_error(format!("create-tenant: {e}")),
        };
        let mut shards = self.lock_shards_mut();
        if shards.contains_key(&id) {
            return protocol_error(format!("tenant {name:?} already exists"));
        }
        if self.lock_degraded().contains_key(name) {
            return protocol_error(format!(
                "tenant {name:?} exists but is degraded; drop-tenant it first"
            ));
        }
        let mut core = match &self.durability {
            Some(d) => {
                let dir = layout::tenant_dir(&d.data_dir, name);
                let (journal, mut recovered) = match Journal::open(&dir, d.wal) {
                    Ok(opened) => opened,
                    Err(e) => {
                        return protocol_error(format!(
                            "create-tenant {name:?}: opening {}: {e}",
                            dir.display()
                        ))
                    }
                };
                match recover_store(&journal, &mut recovered, self.config) {
                    Ok(core) => core,
                    Err(e) => return protocol_error(format!("create-tenant {name:?}: {e}")),
                }
            }
            None => ServiceCore::new(Database::new(), self.config),
        };
        core.set_front_registry(Arc::clone(&self.registry));
        shards.insert(id.clone(), Shard::new(id, core));
        obj([
            ("ok", Json::Bool(true)),
            ("tenant", Json::from(name)),
            ("created", Json::Bool(true)),
            ("tenants", Json::from(shards.len() as u64)),
        ])
    }

    /// `drop-tenant`: detaches the shard, syncs its journal, and retires
    /// its store directory by rename (never delete — it's audit data).
    /// The default tenant cannot be dropped. Degraded tenants can: that
    /// is how an operator clears a corrupt store out of the roster.
    fn drop_tenant(&self, name: &str) -> Json {
        if self.is_frozen() {
            return protocol_error("drop-tenant: shutting down".into());
        }
        if name == self.default_id.name() {
            return protocol_error(format!("drop-tenant: cannot drop the default tenant {name:?}"));
        }
        let Ok(id) = TenantId::new(name) else {
            return protocol_error(format!("unknown tenant {name:?}"));
        };
        let removed = self.lock_shards_mut().remove(&id);
        let was_degraded = removed.is_none() && self.lock_degraded().remove(name).is_some();
        if removed.is_none() && !was_degraded {
            return protocol_error(format!("unknown tenant {name:?}"));
        }
        if let Some(shard) = &removed {
            // Wait out any in-flight request, then make the store durable
            // before it is renamed away.
            let core = shard.lock();
            if let Some(journal) = core.journal() {
                let _ = journal.sync();
            }
        }
        let retired = match &self.durability {
            Some(d) => match layout::retire_dir(&d.data_dir, name) {
                Ok(path) => path,
                Err(e) => {
                    // The shard is already detached; surface the failure
                    // (the dir would resurrect the tenant next recovery).
                    return protocol_error(format!(
                        "drop-tenant {name:?}: detached, but retiring its store failed: {e}"
                    ));
                }
            },
            None => None,
        };
        obj([
            ("ok", Json::Bool(true)),
            ("tenant", Json::from(name)),
            ("dropped", Json::Bool(true)),
            (
                "retired",
                match retired {
                    Some(path) => Json::Str(path.display().to_string()),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// `list-tenants`: one summary row per tenant (serving rows first in
    /// name order, then degraded ones). Rows use `try_lock` so a busy
    /// shard shows `busy:true` instead of stalling the listing.
    fn list_tenants(&self) -> Json {
        let mut rows = Vec::new();
        for shard in self.shards() {
            let name = shard.id().name();
            let mut fields: Vec<(String, Json)> = vec![("tenant".into(), Json::from(name))];
            if *shard.id() == self.default_id {
                fields.push(("default".into(), Json::Bool(true)));
            }
            match shard.try_lock() {
                Some(core) => {
                    let c = core.counters();
                    fields.push(("queries_ingested".into(), Json::from(c.queries_ingested)));
                    fields.push(("log_len".into(), Json::from(core.log().len())));
                    fields.push(("registered_audits".into(), Json::from(core.registered_audits())));
                    fields.push(("durable".into(), Json::Bool(core.journal().is_some())));
                    fields.push((
                        "journal_wedged".into(),
                        match core.journal().and_then(|j| j.wedged()) {
                            Some(e) => Json::Str(e),
                            None => Json::Null,
                        },
                    ));
                }
                None => fields.push(("busy".into(), Json::Bool(true))),
            }
            rows.push(Json::Obj(fields));
        }
        for (name, why) in self.lock_degraded().iter() {
            rows.push(Json::Obj(vec![
                ("tenant".into(), Json::from(name.as_str())),
                ("degraded".into(), Json::Bool(true)),
                ("error".into(), Json::Str(why.clone())),
            ]));
        }
        obj([
            ("ok", Json::Bool(true)),
            ("default", Json::from(self.default_id.name())),
            ("tenants", Json::Arr(rows)),
        ])
    }

    /// `stats --all-tenants`: snapshot-then-aggregate. The shard list is
    /// snapshotted first (map lock released), then each shard is
    /// *try*-locked in turn — **at most one shard lock is held at any
    /// moment**, and a shard that is busy (wedged in a long request, or
    /// its journal stuck in an I/O stall) yields a `busy` row instead of
    /// blocking the healthy tenants' numbers.
    fn stats_all(&self) -> Json {
        let mut rows = Vec::new();
        let mut busy = 0u64;
        for shard in self.shards() {
            let name = shard.id().name().to_string();
            match shard.try_lock() {
                Some(mut core) => {
                    self.publish_tenant_series(&name, &core);
                    let response = core.handle(Request::Stats).response;
                    rows.push(tag_tenant(&name, response));
                }
                None => {
                    busy += 1;
                    rows.push(Json::Obj(vec![
                        ("tenant".into(), Json::Str(name)),
                        ("busy".into(), Json::Bool(true)),
                    ]));
                }
            }
        }
        for (name, why) in self.lock_degraded().iter() {
            rows.push(Json::Obj(vec![
                ("tenant".into(), Json::from(name.as_str())),
                ("degraded".into(), Json::Bool(true)),
                ("error".into(), Json::Str(why.clone())),
            ]));
        }
        obj([
            ("ok", Json::Bool(true)),
            ("tenants", Json::Arr(rows)),
            ("busy_tenants", Json::from(busy)),
        ])
    }

    /// `metrics --all-tenants`: refresh the `audex_tenant_*` aggregates
    /// from every reachable shard, then render the fleet registry once.
    fn metrics_all(&self) -> Json {
        let mut busy = 0u64;
        for shard in self.shards() {
            match shard.try_lock() {
                Some(core) => self.publish_tenant_series(shard.id().name(), &core),
                None => busy += 1,
            }
        }
        obj([
            ("ok", Json::Bool(true)),
            ("metrics", Json::Str(self.registry.render_prometheus())),
            ("busy_tenants", Json::from(busy)),
        ])
    }

    /// Copies one shard's headline counters into the fleet registry as
    /// `tenant`-labeled series. `store`/`set` (not `add`): the shard's
    /// own registry stays authoritative and re-publishing is idempotent.
    fn publish_tenant_series(&self, name: &str, core: &ServiceCore) {
        let labels = [("tenant", name)];
        let c = core.counters();
        let counters = [
            (
                "audex_tenant_queries_ingested_total",
                "Per-tenant queries ingested.",
                c.queries_ingested,
            ),
            (
                "audex_tenant_queries_rejected_total",
                "Per-tenant requests refused.",
                c.queries_rejected,
            ),
            (
                "audex_tenant_dml_statements_total",
                "Per-tenant DML statements applied.",
                c.dml_statements,
            ),
            (
                "audex_tenant_events_emitted_total",
                "Per-tenant subscriber events produced.",
                c.events_emitted,
            ),
        ];
        for (series, help, value) in counters {
            self.registry.counter(series, help, &labels).store(value);
        }
        let gauges = [
            ("audex_tenant_log_len", "Per-tenant query-log length.", core.log().len() as i64),
            (
                "audex_tenant_registered_audits",
                "Per-tenant standing audits registered.",
                core.registered_audits() as i64,
            ),
            (
                "audex_tenant_journal_wedged",
                "1 when the tenant's journal is wedged (durability lost).",
                i64::from(core.journal().and_then(|j| j.wedged()).is_some()),
            ),
        ];
        for (series, help, value) in gauges {
            self.registry.gauge(series, help, &labels).set(value);
        }
    }

    /// `audit --all-tenants`: evaluate one named standing audit on every
    /// tenant that has it, fanned out over [`par_map`] — one worker per
    /// shard up to the core count (1.8× on two tenants and two cores),
    /// each holding exactly one shard lock, reports isolated per tenant.
    /// Tenants without the registration are listed in `skipped`.
    fn audit_all(&self, name: &str) -> Json {
        let shards = self.shards();
        let results: Vec<(String, Option<Json>)> =
            par_map(default_parallelism(), &shards, |_, shard| {
                let mut core = shard.lock();
                if !core.has_audit(name) {
                    return (shard.id().name().to_string(), None);
                }
                let response = core.handle(Request::Audit { name: name.to_string() }).response;
                (shard.id().name().to_string(), Some(response))
            });
        let mut rows = Vec::new();
        let mut skipped = Vec::new();
        for (tenant, response) in results {
            match response {
                Some(r) => rows.push(tag_tenant(&tenant, r)),
                None => skipped.push(Json::Str(tenant)),
            }
        }
        obj([
            ("ok", Json::Bool(true)),
            ("name", Json::from(name)),
            ("tenants", Json::Arr(rows)),
            ("skipped", Json::Arr(skipped)),
        ])
    }

    /// `shutdown`: freeze the control plane and make every tenant's WAL
    /// durable (one shard lock at a time), exactly as the single-tenant
    /// core did for its one journal. The transport starts its drain on
    /// seeing [`Routed::Shutdown`].
    fn shutdown(&self) -> Json {
        self.freeze();
        for shard in self.shards() {
            let core = shard.lock();
            if let Some(journal) = core.journal() {
                let _ = journal.sync();
            }
        }
        obj([("ok", Json::Bool(true)), ("stopping", Json::Bool(true))])
    }
}

/// Replays what [`Journal::open`] recovered from one store into a fresh
/// core, then attaches the journal (after, so the replay is not journaled
/// again): the one path every durable shard comes back through.
fn recover_store(
    journal: &Arc<Journal>,
    recovered: &mut Recovered,
    config: ServiceConfig,
) -> Result<ServiceCore, PersistError> {
    let mut core = ServiceCore::recovered(recovered, config)?;
    core.attach_journal(Arc::clone(journal));
    Ok(core)
}

/// Prefixes a per-shard response object with its tenant name, keeping
/// the shard's own fields byte-identical after the tag.
fn tag_tenant(name: &str, response: Json) -> Json {
    match response {
        Json::Obj(fields) => {
            let mut tagged = Vec::with_capacity(fields.len() + 1);
            tagged.push(("tenant".to_string(), Json::from(name)));
            tagged.extend(fields);
            Json::Obj(tagged)
        }
        other => Json::Obj(vec![
            ("tenant".to_string(), Json::from(name)),
            ("response".to_string(), other),
        ]),
    }
}

/// Renders a `list-tenants` response as the aligned table `audex send`
/// prints on a terminal (`*` marks the default tenant).
pub fn render_tenant_table(response: &Json) -> String {
    let mut out = String::new();
    let Some(rows) = response.get("tenants").and_then(Json::as_arr) else {
        return format!("{response}\n");
    };
    let mut table: Vec<[String; 5]> =
        vec![["TENANT".into(), "INGESTED".into(), "LOG".into(), "AUDITS".into(), "STATE".into()]];
    for row in rows {
        let name = row.get("tenant").and_then(Json::as_str).unwrap_or("?");
        let default = row.get("default") == Some(&Json::Bool(true));
        let tenant = if default { format!("{name} *") } else { name.to_string() };
        let count = |key: &str| {
            row.get(key).and_then(Json::as_int).map_or_else(|| "-".to_string(), |v| v.to_string())
        };
        let state = if row.get("degraded") == Some(&Json::Bool(true)) {
            let why = row.get("error").and_then(Json::as_str).unwrap_or("");
            format!("degraded: {why}")
        } else if row.get("busy") == Some(&Json::Bool(true)) {
            "busy".into()
        } else if row.get("journal_wedged").is_some_and(|w| *w != Json::Null) {
            "wedged".into()
        } else if row.get("durable") == Some(&Json::Bool(true)) {
            "durable".into()
        } else {
            "ephemeral".into()
        };
        table.push([
            tenant,
            count("queries_ingested"),
            count("log_len"),
            count("registered_audits"),
            state,
        ]);
    }
    let mut widths = [0usize; 5];
    for row in &table {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    for row in &table {
        let mut line = String::new();
        for (i, (cell, width)) in row.iter().zip(widths).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(cell);
            if i + 1 < row.len() {
                line.push_str(&" ".repeat(width - cell.len()));
            }
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use audex_sql::Timestamp;

    fn fresh_core() -> ServiceCore {
        ServiceCore::new(Database::new(), ServiceConfig::default())
    }

    fn log_line(ts: i64, sql: &str) -> Request {
        Request::Log {
            ts: Timestamp(ts),
            user: "u".into(),
            role: "r".into(),
            purpose: "p".into(),
            sql: sql.into(),
        }
    }

    fn seed(shard: &Shard) {
        let r = shard.lock().handle(Request::Dml {
            ts: Timestamp(100),
            sql: "CREATE TABLE Patients (pid TEXT, zipcode TEXT, disease TEXT); \
                  INSERT INTO Patients VALUES ('p1', '120016', 'cancer');"
                .into(),
        });
        assert_eq!(r.response.get("ok"), Some(&Json::Bool(true)), "{}", r.response);
    }

    #[test]
    fn routing_isolates_tenants() {
        let fleet = ShardMap::single(fresh_core());
        assert_eq!(fleet.default_tenant(), DEFAULT_TENANT);
        let created = fleet.create_tenant("acme");
        assert_eq!(created.get("ok"), Some(&Json::Bool(true)), "{created}");
        assert_eq!(fleet.tenant_count(), 2);

        // Seed only acme; the default tenant must not see its table.
        let acme = fleet.resolve(Some("acme")).unwrap();
        seed(&acme);
        let r = acme.lock().handle(log_line(200, "SELECT disease FROM Patients"));
        assert_eq!(r.response.get("ok"), Some(&Json::Bool(true)), "{}", r.response);

        let default = fleet.resolve(None).unwrap();
        let r = default.lock().handle(log_line(200, "SELECT disease FROM Patients"));
        assert_eq!(r.response.get("ok"), Some(&Json::Bool(true)));
        // Unknown table on the default shard: indexed as skipped, proving
        // acme's DML is invisible here.
        let stats = default.lock().handle(Request::Stats).response;
        assert_eq!(stats.get("index_skipped").and_then(Json::as_int), Some(1), "{stats}");
        let stats = acme.lock().handle(Request::Stats).response;
        assert_eq!(stats.get("index_skipped").and_then(Json::as_int), Some(0), "{stats}");

        // Addressing the default tenant by name hits the same shard.
        let by_name = fleet.resolve(Some(DEFAULT_TENANT)).unwrap();
        assert!(Arc::ptr_eq(&default, &by_name));
        assert!(fleet.resolve(Some("ghost")).unwrap_err().contains("unknown tenant"));
    }

    #[test]
    fn fleet_ops_route_inline_and_data_plane_routes_to_shards() {
        let fleet = ShardMap::single(fresh_core());
        match fleet.route(None, Request::CreateTenant { name: "t1".into() }) {
            Routed::Reply(r) => assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}"),
            _ => panic!("create-tenant must be answered by the fleet"),
        }
        match fleet.route(Some("t1"), Request::Stats) {
            Routed::Shard(shard, Request::Stats) => assert_eq!(shard.id().name(), "t1"),
            _ => panic!("stats must route to the addressed shard"),
        }
        match fleet.route(Some("nope"), Request::Stats) {
            Routed::Reply(r) => {
                assert!(r.get("error").and_then(Json::as_str).unwrap().contains("unknown tenant"))
            }
            _ => panic!("unknown tenant must be a structured reply"),
        }
        match fleet.route(None, Request::Shutdown) {
            Routed::Shutdown(r) => {
                assert_eq!(r.to_string(), r#"{"ok":true,"stopping":true}"#);
            }
            _ => panic!("shutdown is fleet-scoped"),
        }
        // Frozen after shutdown: the control plane refuses.
        let r = fleet.create_tenant("late");
        assert!(r.get("error").and_then(Json::as_str).unwrap().contains("shutting down"));
    }

    #[test]
    fn stats_all_skips_a_held_shard_without_blocking() {
        let fleet = ShardMap::single(fresh_core());
        fleet.create_tenant("healthy");
        fleet.create_tenant("stuck");
        let stuck = fleet.resolve(Some("stuck")).unwrap();
        let guard = stuck.lock(); // simulate a wedged / long-running request
        let stats = fleet.stats_all();
        drop(guard);
        assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(stats.get("busy_tenants").and_then(Json::as_int), Some(1), "{stats}");
        let rows = stats.get("tenants").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 3);
        let row = |name: &str| {
            rows.iter().find(|r| r.get("tenant") == Some(&Json::from(name))).unwrap().clone()
        };
        assert_eq!(row("stuck").get("busy"), Some(&Json::Bool(true)));
        assert_eq!(row("healthy").get("ok"), Some(&Json::Bool(true)));
        assert_eq!(row(DEFAULT_TENANT).get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn audit_all_fans_out_with_per_tenant_isolation() {
        let fleet = ShardMap::single(fresh_core());
        fleet.create_tenant("a");
        fleet.create_tenant("b");
        for tenant in ["a", "b"] {
            let shard = fleet.resolve(Some(tenant)).unwrap();
            seed(&shard);
            let r = shard.lock().handle(Request::Register {
                name: "watch".into(),
                expr: "AUDIT disease FROM Patients WHERE zipcode = '120016'".into(),
                now: Some(Timestamp(5000)),
            });
            assert_eq!(r.response.get("ok"), Some(&Json::Bool(true)), "{}", r.response);
        }
        // Only tenant a gets the suspicious query.
        let a = fleet.resolve(Some("a")).unwrap();
        a.lock().handle(log_line(200, "SELECT disease FROM Patients WHERE zipcode = '120016'"));

        let all = fleet.audit_all("watch");
        assert_eq!(all.get("ok"), Some(&Json::Bool(true)), "{all}");
        let rows = all.get("tenants").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 2, "{all}");
        let row = |name: &str| {
            rows.iter().find(|r| r.get("tenant") == Some(&Json::from(name))).unwrap().clone()
        };
        assert_eq!(row("a").get("suspicious"), Some(&Json::Bool(true)), "{all}");
        assert_eq!(row("b").get("suspicious"), Some(&Json::Bool(false)), "{all}");
        // The default tenant never registered the audit: skipped.
        assert_eq!(all.get("skipped"), Some(&Json::Arr(vec![Json::from(DEFAULT_TENANT)])), "{all}");
    }

    #[test]
    fn drop_tenant_guards_the_default_and_unknowns() {
        let fleet = ShardMap::single(fresh_core());
        let r = fleet.drop_tenant(DEFAULT_TENANT);
        assert!(r.get("error").and_then(Json::as_str).unwrap().contains("default"));
        let r = fleet.drop_tenant("ghost");
        assert!(r.get("error").and_then(Json::as_str).unwrap().contains("unknown"));
        fleet.create_tenant("ephemeral");
        let r = fleet.drop_tenant("ephemeral");
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
        assert_eq!(r.get("retired"), Some(&Json::Null));
        assert_eq!(fleet.tenant_count(), 1);
        assert!(fleet.resolve(Some("ephemeral")).is_err());
    }

    #[test]
    fn tenant_table_renders_aligned_rows() {
        let fleet = ShardMap::single(fresh_core());
        fleet.create_tenant("acme");
        let table = render_tenant_table(&fleet.list_tenants());
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3, "{table}");
        assert!(lines[0].starts_with("TENANT"));
        assert!(lines[1].starts_with("acme "), "{table}");
        assert!(lines[2].starts_with("default *"), "{table}");
        assert!(lines[1].contains("ephemeral"));
    }

    #[test]
    fn metrics_all_labels_tenant_series_in_the_fleet_registry() {
        let fleet = ShardMap::single(fresh_core());
        fleet.create_tenant("acme");
        let acme = fleet.resolve(Some("acme")).unwrap();
        seed(&acme);
        acme.lock().handle(log_line(200, "SELECT disease FROM Patients"));
        let m = fleet.metrics_all();
        let text = m.get("metrics").and_then(Json::as_str).unwrap();
        assert!(text.contains(r#"audex_tenant_queries_ingested_total{tenant="acme"} 1"#), "{text}");
        assert!(
            text.contains(r#"audex_tenant_queries_ingested_total{tenant="default"} 0"#),
            "{text}"
        );
    }
}
