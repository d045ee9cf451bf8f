//! B16: multi-tenant sharding — the PR-8 tenancy tentpole.
//!
//! Two experiments against an in-process [`ShardMap`], results written to
//! `BENCH_8.json` at the workspace root:
//!
//! * `ingest_scaling` — a **fixed total load** of `log` requests split
//!   evenly across {1, 8, 64} tenants, one driver thread per tenant. The
//!   claim under test: tenants ingest on independent shard locks, so
//!   aggregate throughput *rises* with tenant count (toward the core
//!   count) instead of serializing on a global mutex. Each row records
//!   the aggregate q/s and the speedup over the single-tenant baseline,
//!   and every run ends with a leakage gate: each tenant's `log_len`
//!   must equal exactly its own slice of the load.
//! * `recovery_100_tenants` — a durable fleet of 100 tenants (plus the
//!   default) is built, shut down cleanly, and reopened with
//!   [`ShardMap::open`]; the row records the wall-clock recovery time,
//!   tenants and records recovered, asserting zero degraded tenants.
//!
//! Run `cargo bench -p audex-bench --bench tenants` for real measurements
//! or `-- --test` for the CI smoke variant (tiny sizes).

use std::fmt::Write as _;
use std::time::Instant;

use audex_persist::WalOptions;
use audex_service::{
    FleetConfig, Json, Request, Routed, ServiceConfig, ServiceCore, ShardMap, DEFAULT_TENANT,
};
use audex_sql::Timestamp;
use audex_storage::Database;

struct Config {
    tenant_counts: Vec<usize>,
    /// Total `log` requests per ingest row, split across the tenants.
    total_queries: usize,
    recovery_tenants: usize,
    /// `log` requests journaled per tenant in the recovery experiment.
    recovery_queries: usize,
}

fn config(quick: bool) -> Config {
    if quick {
        Config {
            tenant_counts: vec![1, 8],
            total_queries: 640,
            recovery_tenants: 16,
            recovery_queries: 4,
        }
    } else {
        Config {
            tenant_counts: vec![1, 8, 64],
            total_queries: 12_800,
            recovery_tenants: 100,
            recovery_queries: 16,
        }
    }
}

/// Drives one request through the fleet exactly like a connection handler:
/// fleet ops answered inline, data-plane requests under the shard's lock.
fn fleet_request(fleet: &ShardMap, tenant: Option<&str>, req: Request) -> Json {
    match fleet.route(tenant, req) {
        Routed::Reply(resp) | Routed::Shutdown(resp) => resp,
        Routed::Shard(shard, req) => shard.lock().handle(req).response,
    }
}

fn assert_ok(resp: &Json, what: &str) {
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{what}: {resp}");
}

fn stat(stats: &Json, field: &str) -> i64 {
    stats.get(field).and_then(Json::as_int).unwrap_or_else(|| panic!("no {field} in {stats}"))
}

/// Schema + seed rows + one standing audit, the per-tenant fixture.
fn seed_tenant(fleet: &ShardMap, tenant: &str) {
    let dml = Request::Dml {
        ts: Timestamp(100),
        sql: "CREATE TABLE p (name CHAR, zipcode CHAR, disease CHAR); \
              INSERT INTO p VALUES ('jane','145568','flu'), ('lucy','188888','malaria');"
            .into(),
    };
    assert_ok(&fleet_request(fleet, Some(tenant), dml), "seed dml");
    let register = Request::Register {
        name: "snoop".into(),
        expr: "AUDIT disease FROM p WHERE zipcode='145568'".into(),
        now: Some(Timestamp(1_000_000)),
    };
    assert_ok(&fleet_request(fleet, Some(tenant), register), "seed register");
}

fn log_request(i: usize) -> Request {
    Request::Log {
        ts: Timestamp(1_000 + i as i64),
        user: format!("u-{}", i % 17),
        role: "clerk".into(),
        purpose: "marketing".into(),
        sql: "SELECT disease FROM p WHERE zipcode = '145568'".into(),
    }
}

// --- Experiment 1: fixed total load vs tenant count. --------------------

struct IngestRow {
    tenants: usize,
    queries: usize,
    secs: f64,
    qps: f64,
}

fn ingest_scaling(tenants: usize, total_queries: usize) -> IngestRow {
    let fleet = ShardMap::single(ServiceCore::new(Database::new(), ServiceConfig::default()));
    let names: Vec<String> = (0..tenants).map(|i| format!("org-{i:02}")).collect();
    for name in &names {
        let resp = fleet_request(&fleet, None, Request::CreateTenant { name: name.clone() });
        assert_ok(&resp, "create-tenant");
        seed_tenant(&fleet, name);
    }

    let per_tenant = total_queries / tenants;
    let t = Instant::now();
    std::thread::scope(|scope| {
        for name in &names {
            let fleet = &fleet;
            scope.spawn(move || {
                for i in 0..per_tenant {
                    let resp = fleet_request(fleet, Some(name), log_request(i));
                    assert_ok(&resp, "log");
                }
            });
        }
    });
    let secs = t.elapsed().as_secs_f64();
    let queries = per_tenant * tenants;
    let qps = if secs > 0.0 { queries as f64 / secs } else { 0.0 };

    // Leakage gate: every shard holds exactly its own slice, the default
    // tenant none.
    for name in &names {
        let stats = fleet_request(&fleet, Some(name), Request::Stats);
        assert_eq!(stat(&stats, "log_len"), per_tenant as i64, "tenant {name} log drifted");
    }
    let stats = fleet_request(&fleet, None, Request::Stats);
    assert_eq!(stat(&stats, "log_len"), 0, "default tenant leaked ingest");
    IngestRow { tenants, queries, secs, qps }
}

// --- Experiment 2: 100-tenant fleet recovery time. ----------------------

struct RecoveryRow {
    tenants: usize,
    records: u64,
    secs: f64,
}

fn recovery_time(cfg: &Config) -> RecoveryRow {
    let dir = std::env::temp_dir().join(format!("audex-bench-tenants-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fleet_cfg = FleetConfig {
        service: ServiceConfig::default(),
        default_tenant: DEFAULT_TENANT.into(),
        data_dir: dir.clone(),
        wal: WalOptions::default(),
    };
    let (fleet, _) = ShardMap::open(&fleet_cfg).expect("open fresh fleet");
    for i in 0..cfg.recovery_tenants {
        let name = format!("org-{i:03}");
        assert_ok(
            &fleet_request(&fleet, None, Request::CreateTenant { name: name.clone() }),
            "create-tenant",
        );
        seed_tenant(&fleet, &name);
        for q in 0..cfg.recovery_queries {
            assert_ok(&fleet_request(&fleet, Some(&name), log_request(q)), "log");
        }
    }
    let resp = fleet_request(&fleet, None, Request::Shutdown);
    assert_ok(&resp, "shutdown");
    drop(fleet);

    let t = Instant::now();
    let (fleet, recovery) = ShardMap::open(&fleet_cfg).expect("reopen fleet");
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(fleet.tenant_count(), cfg.recovery_tenants + 1, "tenants lost in recovery");
    let degraded: Vec<&str> =
        recovery.tenants.iter().filter(|t| t.error.is_some()).map(|t| t.tenant.as_str()).collect();
    assert!(degraded.is_empty(), "degraded tenants after clean shutdown: {degraded:?}");
    let records: u64 = recovery.tenants.iter().map(|t| t.records).sum();
    // Each tenant journaled: 2 DML statements + 1 register + the logs.
    let per_tenant = (3 + cfg.recovery_queries) as u64;
    assert!(
        records >= per_tenant * cfg.recovery_tenants as u64,
        "only {records} records recovered"
    );
    drop(fleet);
    let _ = std::fs::remove_dir_all(&dir);
    RecoveryRow { tenants: cfg.recovery_tenants, records, secs }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    let cfg = config(quick);
    let mut rows = String::new();

    let mut baseline_qps = 0.0f64;
    let mut best_speedup = 0.0f64;
    for &tenants in &cfg.tenant_counts {
        let row = ingest_scaling(tenants, cfg.total_queries);
        if row.tenants == 1 {
            baseline_qps = row.qps;
        }
        let speedup = if baseline_qps > 0.0 { row.qps / baseline_qps } else { 0.0 };
        best_speedup = best_speedup.max(speedup);
        println!(
            "ingest_scaling tenants={} queries={} secs={:.4} qps={:.0} speedup_vs_1={speedup:.2}",
            row.tenants, row.queries, row.secs, row.qps
        );
        let _ = writeln!(
            rows,
            "    {{\"experiment\": \"ingest_scaling\", \"tenants\": {}, \"queries\": {}, \
             \"secs\": {:.6}, \"qps\": {:.1}, \"speedup_vs_1_tenant\": {speedup:.3}}},",
            row.tenants, row.queries, row.secs, row.qps
        );
    }

    let rec = recovery_time(&cfg);
    println!(
        "recovery_100_tenants tenants={} records={} secs={:.4}",
        rec.tenants, rec.records, rec.secs
    );
    let _ = writeln!(
        rows,
        "    {{\"experiment\": \"recovery_100_tenants\", \"tenants\": {}, \"records\": {}, \
         \"secs\": {:.6}}},",
        rec.tenants, rec.records, rec.secs
    );

    let rows = rows.trim_end().trim_end_matches(',');
    let json = format!(
        "{{\n  \"bench\": \"tenants\",\n  \"mode\": \"{}\",\n  \
         \"best_ingest_speedup_vs_1_tenant\": {best_speedup:.3},\n  \
         \"recovery_secs_at_{}_tenants\": {:.4},\n  \"rows\": [\n{rows}\n  ]\n}}\n",
        if quick { "quick" } else { "full" },
        rec.tenants,
        rec.secs,
    );
    audex_bench::write_report("BENCH_8.json", quick, &json);
    println!(
        "splitting a fixed load across tenants reached {best_speedup:.2}x the single-tenant \
         throughput; {} tenants recovered in {:.3}s",
        rec.tenants, rec.secs
    );
}
