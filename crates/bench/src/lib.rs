//! `audex-bench` — shared fixtures for the benchmark suite.
//!
//! One bench target exists per experiment row of DESIGN.md §3 that the
//! `BENCHMARK.json` ledger does not cover: `paper_artifacts` (E3–E8 as
//! microbenches), `granules` (B1), `audit_scaling` (B2), `versioning`
//! (B3), `notions` (B4), `batch` (B5), `join_ablation` (B6), `ranking`
//! (B7), `multi_audit` (B8), `selectivity` (B9), `bench2` (B10, the
//! evidence for the engine's `par_map` fan-outs, → `BENCH_2.json`) and
//! `mvcc` (B18, historical reads no ledger workload performs,
//! → `BENCH_10.json`). Ingest, durability, telemetry, front-door, tenancy
//! and triage costs (B11–B17) are ledger metrics; their committed
//! `BENCH_3`–`BENCH_9.json` files are the historical record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use audex_core::PreparedAudit;
use audex_core::{AuditEngine, EngineOptions};
use audex_log::QueryLog;
use audex_sql::ast::{AuditExpr, TimeInterval, TsSpec};
use audex_sql::{parse_audit, Timestamp};
use audex_storage::Database;
use audex_workload::{
    generate_hospital, generate_queries, load_log, standard_audit_text, HospitalConfig,
    QueryMixConfig,
};

/// Writes one bench report. A full run updates the committed evidence at
/// the workspace root (`BENCH_N.json`); a quick (`--test`) smoke writes
/// under `target/bench-smoke/` instead, so neither CI nor a builder
/// verifying a change overwrites the committed full-mode rows.
pub fn write_report(file: &str, quick: bool, json: &str) {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = if quick { root.join("target/bench-smoke") } else { root };
    std::fs::create_dir_all(&dir).expect("create the report directory");
    let path = dir.join(file);
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

/// A ready-to-audit scenario: hospital, log with planted violations, audit.
pub struct Scenario {
    /// The database.
    pub db: Database,
    /// The query log.
    pub log: QueryLog,
    /// The standard audit expression (disease of zone-0 patients).
    pub audit: AuditExpr,
    /// Reference "now" (after every logged query).
    pub now: Timestamp,
}

/// Pins an expression's `DURING`/`DATA-INTERVAL` to all time.
pub fn all_time(mut expr: AuditExpr) -> AuditExpr {
    let iv = TimeInterval { start: TsSpec::At(Timestamp(0)), end: TsSpec::Now };
    expr.during = Some(iv);
    expr.data_interval = Some(iv);
    expr
}

/// Builds a scenario of the given size, deterministic in its parameters.
pub fn scenario(patients: usize, queries: usize, suspicious_rate: f64, seed: u64) -> Scenario {
    let hospital = HospitalConfig { patients, zip_zones: 20, diseases: 12, seed };
    let db = generate_hospital(&hospital, Timestamp(0));
    let mix =
        QueryMixConfig { queries, suspicious_rate, start: Timestamp(1_000), seed: seed ^ 0x5eed };
    let generated = generate_queries(&hospital, &mix);
    let (log, _planted) = load_log(&generated);
    let audit = parse_audit(&standard_audit_text()).expect("standard audit parses");
    let now = Timestamp(1_000 + queries as i64 + 10);
    Scenario { db, log, audit, now }
}

impl Scenario {
    /// An engine over this scenario with the given options.
    pub fn engine(&self, options: EngineOptions) -> AuditEngine<'_> {
        AuditEngine::with_options(&self.db, &self.log, options)
    }

    /// Prepares the standard audit (target view + granule model).
    pub fn prepared(&self, options: EngineOptions) -> PreparedAudit {
        self.engine(options).prepare(&self.audit, self.now).expect("audit prepares")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builds_and_audits() {
        let s = scenario(100, 50, 0.2, 3);
        let engine = s.engine(EngineOptions::default());
        let r = engine.audit_at(&s.audit, s.now).unwrap();
        assert!(r.verdict.suspicious);
        assert!(!r.pruned.is_empty());
    }
}
