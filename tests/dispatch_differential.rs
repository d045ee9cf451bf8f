//! Dispatch differential on fixed workloads: two auditors holding the same
//! prepared audits observe the same log, one through the indexed
//! `OnlineAuditor::observe`, one through the `observe_scan_all` reference
//! (every audit, one execution each). Every query's scores and the final
//! batch states must be equal — on the paper's Tables 1–3 log with its
//! figure audits, and on the hospital stream at 256 standing zone audits,
//! where the index must actually prune.

use std::sync::Arc;

use audex::core::{AuditEngine, OnlineAuditor};
use audex::log::{LoggedQuery, QueryLog};
use audex::sql::ast::{AuditExpr, TimeInterval, TsSpec};
use audex::workload::datagen::zip_of_zone;
use audex::workload::paper::{
    paper_database, paper_now, paper_query_log, FIG1_AGRAWAL, FIG2_AUDIT_EXPRESSION_1,
    FIG3_AUDIT_EXPRESSION_2, FIG6_SEMANTIC, FIG7_FULL_GRAMMAR,
};
use audex::workload::{
    generate_hospital, generate_queries, load_log, HospitalConfig, QueryMixConfig,
};
use audex::{parse_audit, Database, Timestamp};

/// Pins an expression's `DURING`/`DATA-INTERVAL` to all time, so the online
/// scorer admits every log entry.
fn all_time(mut expr: AuditExpr) -> AuditExpr {
    let iv = TimeInterval { start: TsSpec::At(Timestamp(0)), end: TsSpec::Now };
    expr.during = Some(iv);
    expr.data_interval = Some(iv);
    expr
}

/// Runs both auditors over `entries` and returns the indexed one.
fn observe_matches_scan_all(
    db: &Database,
    audits: &[AuditExpr],
    now: Timestamp,
    entries: &[Arc<LoggedQuery>],
) -> OnlineAuditor {
    let log = QueryLog::new();
    let engine = AuditEngine::new(db, &log);
    let prepared: Vec<_> =
        audits.iter().map(|expr| engine.prepare(expr, now).expect("audit prepares")).collect();
    let mut indexed = OnlineAuditor::new(prepared.clone());
    let mut reference = OnlineAuditor::new(prepared);
    for e in entries {
        let a = indexed.observe(db, e).expect("observe");
        let b = reference.observe_scan_all(db, e).expect("observe_scan_all");
        assert_eq!(a, b, "observe vs scan-all diverge on {:?}", e.text);
    }
    assert_eq!(indexed.export_states(), reference.export_states(), "final batch states diverge");
    indexed
}

#[test]
fn observe_matches_scan_all_on_the_paper_tables() {
    let audits: Vec<AuditExpr> = [
        FIG1_AGRAWAL,
        FIG2_AUDIT_EXPRESSION_1,
        FIG3_AUDIT_EXPRESSION_2,
        FIG6_SEMANTIC,
        FIG7_FULL_GRAMMAR,
    ]
    .iter()
    .map(|text| all_time(parse_audit(text).expect("figure audit parses")))
    .collect();
    let entries = paper_query_log().snapshot();
    assert!(!entries.is_empty());
    observe_matches_scan_all(&paper_database(), &audits, paper_now(), &entries);
}

#[test]
fn observe_matches_scan_all_on_the_hospital_stream_at_256_audits() {
    const ZONES: usize = 256;
    const QUERIES: usize = 120;
    let hospital = HospitalConfig { patients: ZONES, zip_zones: ZONES, diseases: 12, seed: 42 };
    let db = generate_hospital(&hospital, Timestamp(0));
    let mix = QueryMixConfig {
        queries: QUERIES,
        suspicious_rate: 0.08,
        start: Timestamp(1_000),
        seed: 42 ^ 0x5eed,
    };
    let (log, _planted) = load_log(&generate_queries(&hospital, &mix));
    let audits: Vec<AuditExpr> = (0..ZONES)
        .map(|k| {
            all_time(
                parse_audit(&format!(
                    "AUDIT disease FROM Patients, Health \
                     WHERE Patients.pid = Health.pid AND Patients.zipcode = '{}'",
                    zip_of_zone(k)
                ))
                .expect("standing audit parses"),
            )
        })
        .collect();
    let now = Timestamp(1_000 + QUERIES as i64 + 10);
    let indexed = observe_matches_scan_all(&db, &audits, now, &log.snapshot());
    let stats = indexed.dispatch_stats();
    assert_eq!(stats.probes, QUERIES as u64, "every query is probed");
    assert!(stats.pruned > 0, "at {ZONES} standing audits the index must prune: {stats:?}");
}
