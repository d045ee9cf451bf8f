//! Differential property tests on the standing-audit dispatch index:
//! `observe` must be byte-identical to the `observe_scan_all` reference —
//! same `QueryScore`s in the same order, same batch states — under random
//! register/unregister interleavings, its shared-execution footprint must
//! equal the one `TouchIndex::extend` computes on its own, the batch
//! engine's reports over the same scenarios are identical at 1 and 4
//! threads, and the online, batch and touch-index verdicts agree.

use audex_core::{
    AuditEngine, BatchEvaluator, EngineOptions, Governor, OnlineAuditor, PreparedAudit, QueryScore,
    TouchIndex,
};
use audex_log::{AccessContext, LoggedQuery, QueryId, QueryLog};
use audex_sql::ast::{TimeInterval, TsSpec, TypeName};
use audex_sql::{parse_audit, parse_query, Ident, Timestamp};
use audex_storage::{Database, JoinStrategy, Schema};
use proptest::prelude::*;
use std::sync::Arc;

const ZIPS: [&str; 3] = ["120016", "145568", "300001"];
const DISEASES: [&str; 3] = ["cancer", "flu", "acne"];

/// Audit templates chosen to light up every dispatch layer: indispensable
/// (tid index), value mode (attribute index), empty view, a second base
/// table, a context filter, and a narrow DURING window.
const AUDITS: [&str; 7] = [
    "AUDIT disease FROM Patients WHERE zipcode = '120016'",
    "INDISPENSABLE false AUDIT (zipcode, disease) FROM Patients",
    "AUDIT disease FROM Patients WHERE zipcode = '999999'",
    "INDISPENSABLE false AUDIT ward FROM Visits",
    "OTHERTHAN PURPOSE treatment AUDIT disease FROM Patients",
    "AUDIT pid FROM Patients WHERE disease = 'cancer'",
    "INDISPENSABLE false AUDIT zipcode FROM Patients WHERE disease = 'flu'",
];

/// Query templates: audited-table hits, a Visits-only query, a cross-table
/// join, and one whose table does not resolve at all.
fn query_text(t: u8, i: usize) -> String {
    match t % 6 {
        0 => "SELECT zipcode FROM Patients WHERE disease = 'cancer'".to_string(),
        1 => format!("SELECT disease FROM Patients WHERE zipcode = '{}'", ZIPS[i % 3]),
        2 => "SELECT pid FROM Patients".to_string(),
        3 => "SELECT ward FROM Visits".to_string(),
        4 => "SELECT p.disease FROM Patients AS p, Visits AS v \
              WHERE p.pid = v.pid AND v.ward = 'oncology'"
            .to_string(),
        _ => "SELECT x FROM Ghost".to_string(),
    }
}

#[derive(Debug, Clone)]
enum Op {
    Register(u8),
    Unregister(u8),
    Query(u8),
}

#[derive(Debug, Clone)]
struct Scenario {
    rows: Vec<(u8, u8)>,
    ops: Vec<Op>,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    let op = (0u8..4, any::<u8>()).prop_map(|(kind, t)| match kind {
        0 => Op::Register(t % AUDITS.len() as u8),
        1 => Op::Unregister(t),
        _ => Op::Query(t),
    });
    (proptest::collection::vec((0u8..3, 0u8..3), 1..12), proptest::collection::vec(op, 4..28))
        .prop_map(|(rows, ops)| Scenario { rows, ops })
}

fn build_db(rows: &[(u8, u8)]) -> Database {
    let mut db = Database::new();
    let patients = Ident::new("Patients");
    db.create_table(
        patients.clone(),
        Schema::of(&[
            ("pid", TypeName::Text),
            ("zipcode", TypeName::Text),
            ("disease", TypeName::Text),
        ]),
        Timestamp(0),
    )
    .unwrap();
    let visits = Ident::new("Visits");
    db.create_table(
        visits.clone(),
        Schema::of(&[("pid", TypeName::Text), ("ward", TypeName::Text)]),
        Timestamp(0),
    )
    .unwrap();
    for (i, (z, d)) in rows.iter().enumerate() {
        db.insert(
            &patients,
            vec![format!("p{i}").into(), ZIPS[*z as usize].into(), DISEASES[*d as usize].into()],
            Timestamp(10),
        )
        .unwrap();
        if i % 2 == 0 {
            let ward = if *d == 0 { "oncology" } else { "general" };
            db.insert(&visits, vec![format!("p{i}").into(), ward.into()], Timestamp(10)).unwrap();
        }
    }
    db
}

fn prepare(db: &Database, template: u8) -> PreparedAudit {
    let log = QueryLog::new();
    let engine = AuditEngine::new(db, &log);
    let mut e = parse_audit(AUDITS[template as usize]).unwrap();
    // Template 5 watches a narrow window (only the first few queries), so
    // the interval tree genuinely prunes; everything else watches all time.
    let end = if template == 5 { 1004 } else { 100_000 };
    let iv = TimeInterval { start: TsSpec::At(Timestamp(0)), end: TsSpec::At(Timestamp(end)) };
    e.during = Some(iv);
    e.data_interval =
        Some(TimeInterval { start: TsSpec::At(Timestamp(0)), end: TsSpec::At(Timestamp(100_000)) });
    engine.prepare(&e, Timestamp(500)).unwrap()
}

fn logged(i: usize, text: &str) -> Arc<LoggedQuery> {
    let purpose = if i.is_multiple_of(2) { "treatment" } else { "marketing" };
    Arc::new(LoggedQuery::new(
        QueryId(i as u64),
        parse_query(text).unwrap(),
        text.into(),
        Timestamp(1_000 + i as i64),
        AccessContext::new(format!("u{i}"), "nurse", purpose),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Differential: the dispatch-indexed observe path is byte-identical to
    /// the scan-all reference under random register/unregister
    /// interleavings — per-query scores and footprints, final batch states,
    /// rankings, and ids all agree, while the index demonstrably prunes
    /// work.
    #[test]
    fn indexed_observe_matches_scan_all(s in scenario_strategy()) {
        let db = build_db(&s.rows);
        let mut indexed = OnlineAuditor::new(Vec::new());
        let mut oracle = OnlineAuditor::new(Vec::new());
        // The index fed from `observe`'s shared execution, and the one that
        // executes every query itself.
        let mut shared_index = TouchIndex::new();
        let mut own_index = TouchIndex::new();

        let mut registered = Vec::new();
        let mut evaluated_any = false;
        for (i, op) in s.ops.iter().enumerate() {
            match op {
                Op::Register(t) => {
                    let a = indexed.push(prepare(&db, *t));
                    let b = oracle.push(prepare(&db, *t));
                    prop_assert_eq!(a, b, "push must assign the same stable id");
                    registered.push(a);
                }
                Op::Unregister(t) => {
                    if registered.is_empty() {
                        continue;
                    }
                    let id = registered.remove(*t as usize % registered.len());
                    prop_assert!(indexed.remove(id).is_some());
                    prop_assert!(oracle.remove(id).is_some());
                }
                Op::Query(t) => {
                    let q = logged(i, &query_text(*t, i));
                    let (a, footprint) = indexed.observe_with_footprint(&db, &q).unwrap();
                    let b: Vec<QueryScore> = oracle.observe_scan_all(&db, &q).unwrap();
                    prop_assert_eq!(&a, &b, "scores diverge at op {} ({:?})", i, op);
                    evaluated_any = evaluated_any || !a.is_empty();
                    shared_index.extend_prepared(q.id, footprint);
                    own_index.extend(&db, &q, JoinStrategy::Auto, &Governor::unlimited()).unwrap();
                    prop_assert_eq!(
                        shared_index.export(), own_index.export(),
                        "footprint diverges at op {} ({:?})", i, op
                    );
                }
            }
        }

        prop_assert_eq!(indexed.ids(), oracle.ids());
        prop_assert_eq!(indexed.export_states(), oracle.export_states());
        for id in indexed.ids() {
            prop_assert_eq!(indexed.is_suspicious(id), oracle.is_suspicious(id));
            prop_assert!((indexed.degree(id) - oracle.degree(id)).abs() == 0.0);
            prop_assert_eq!(indexed.contributing(id), oracle.contributing(id));
        }
        // The reference never probes; the index probes once per observed query.
        let queries = s.ops.iter().filter(|o| matches!(o, Op::Query(_))).count() as u64;
        prop_assert_eq!(indexed.dispatch_stats().probes, queries);
        prop_assert_eq!(oracle.dispatch_stats().probes, 0);
        if evaluated_any {
            prop_assert!(indexed.dispatch_stats().shortlisted > 0);
        }

        // The online ranking (which re-observes a fresh batch) agrees with
        // total closeness per query from the reference, descending.
        let batch: Vec<_> = (0..3)
            .map(|k| logged(s.ops.len() + k, &query_text(k as u8, s.ops.len() + k)))
            .collect();
        let mut expected: Vec<(QueryId, f64)> = batch
            .iter()
            .map(|q| {
                let scores = oracle.observe_scan_all(&db, q).unwrap();
                (q.id, scores.iter().map(|s| s.closeness).sum())
            })
            .collect();
        expected.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        prop_assert_eq!(indexed.ranking(&db, &batch).unwrap(), expected);
    }

    /// The batch engine over the same scenarios reports byte-identically at
    /// 1 and 4 threads — the dispatch refactor shares query execution state
    /// and must not have perturbed the engine's parallel fan-out.
    #[test]
    fn batch_reports_identical_at_1_and_4_threads(s in scenario_strategy()) {
        let db = build_db(&s.rows);
        let log = QueryLog::new();
        for (i, op) in s.ops.iter().enumerate() {
            if let Op::Query(t) = op {
                let purpose = if i.is_multiple_of(2) { "treatment" } else { "marketing" };
                log.record_text(
                    &query_text(*t, i),
                    Timestamp(1_000 + i as i64),
                    AccessContext::new(format!("u{i}"), "nurse", purpose),
                )
                .unwrap();
            }
        }
        let iv = TimeInterval {
            start: TsSpec::At(Timestamp(0)),
            end: TsSpec::At(Timestamp(100_000)),
        };
        let exprs: Vec<_> = AUDITS
            .iter()
            .map(|t| {
                let mut e = parse_audit(t).unwrap();
                e.during = Some(iv);
                e.data_interval = Some(iv);
                e
            })
            .collect();
        let seq = AuditEngine::with_options(
            &db,
            &log,
            EngineOptions { parallelism: 1, ..Default::default() },
        );
        let par = AuditEngine::with_options(
            &db,
            &log,
            EngineOptions { parallelism: 4, ..Default::default() },
        );
        let a = seq.audit_many(&exprs, Timestamp(100_000)).unwrap();
        let b = par.audit_many(&exprs, Timestamp(100_000)).unwrap();
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"), "byte-identical reports");
    }

    /// Three readers of one batch agree: with every template registered
    /// before the first query, the online auditor's running degree, flag and
    /// contributor list equal `BatchEvaluator::evaluate` over the queries
    /// each audit admits, and that verdict equals `TouchIndex::evaluate`
    /// over an index of the same queries. Template 5 against query 0 yields
    /// a witness; templates 1, 3 and 6 are value mode.
    #[test]
    fn online_batch_and_index_verdicts_agree(s in scenario_strategy()) {
        let db = build_db(&s.rows);
        let mut online = OnlineAuditor::new(Vec::new());
        let prepared: Vec<PreparedAudit> =
            (0..AUDITS.len() as u8).map(|t| prepare(&db, t)).collect();
        let ids: Vec<_> = prepared.iter().map(|p| online.push(p.clone())).collect();

        let queries: Vec<Arc<LoggedQuery>> = s
            .ops
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match op {
                Op::Query(t) => Some(logged(i, &query_text(*t, i))),
                _ => None,
            })
            .collect();
        for q in &queries {
            online.observe(&db, q).unwrap();
        }
        let index = TouchIndex::build(&db, &queries, JoinStrategy::Auto);

        for (id, p) in ids.into_iter().zip(&prepared) {
            let admitted: Vec<Arc<LoggedQuery>> =
                queries.iter().filter(|q| p.filter.admits(q)).cloned().collect();
            let admitted_ids = admitted.iter().map(|q| q.id).collect();
            let batch = BatchEvaluator::new(&db, &p.scope, &p.model, &p.view, JoinStrategy::Auto)
                .evaluate(&admitted)
                .unwrap();
            let indexed = index.evaluate(p, &admitted_ids).unwrap();

            prop_assert!(online.degree(id) == batch.degree, "degree of audit {}", id);
            prop_assert_eq!(online.is_suspicious(id), batch.suspicious, "flag of audit {}", id);
            prop_assert_eq!(online.contributing(id), &batch.contributing[..], "audit {}", id);

            prop_assert_eq!(indexed.accessed_granules, batch.accessed_granules, "audit {}", id);
            prop_assert_eq!(&indexed.per_scheme_accessed, &batch.per_scheme_accessed);
            prop_assert!(indexed.degree == batch.degree, "index degree of audit {}", id);
            prop_assert_eq!(&indexed.contributing, &batch.contributing, "audit {}", id);
            prop_assert_eq!(&indexed.witnesses, &batch.witnesses, "audit {}", id);
            prop_assert_eq!(&indexed.skipped, &batch.skipped, "audit {}", id);
        }
    }
}
