//! Differential property test: the review queue and its mined templates
//! are a pure function of the ingested stream, not of how the service
//! finds the audits a query touches. Each random workload is driven through
//! one `ServiceCore` and, beside it, through a reference built from the
//! layers directly — its own database, log and `OnlineAuditor` scoring
//! every audit on every query (`observe_scan_all`), feeding a `ReviewQueue`
//! — and the two queues must hold exactly the same items.
//!
//! Ranking floats are summed in one fixed order and ties break on query
//! id, so nothing about audit shortlisting may leak into what the auditor
//! sees.

use std::sync::Arc;

use audex_core::{AuditEngine, Governor, OnlineAuditor};
use audex_log::{AccessContext, LoggedQuery, QueryId, QueryLog};
use audex_service::{Json, Request, ServiceConfig, ServiceCore};
use audex_sql::{Ident, Timestamp};
use audex_storage::Database;
use audex_triage::ReviewQueue;
use proptest::prelude::*;

const ZONES: usize = 6;

/// One random query: which zip zone it probes, what shape it takes, and
/// which of three user/role identities issued it.
#[derive(Debug, Clone, Copy)]
struct Q {
    zone: usize,
    kind: usize,
    who: usize,
}

fn q() -> impl Strategy<Value = Q> {
    (0..ZONES, 0usize..4, 0usize..3).prop_map(|(zone, kind, who)| Q { zone, kind, who })
}

/// The request stream one workload sends: schema and rows, the standing
/// audits, the logged queries, and a weight so the sensitivity multiplier
/// is exercised too.
fn requests(audits: &[usize], queries: &[Q]) -> Vec<Request> {
    let mut sql = String::from("CREATE TABLE Patients (pid TEXT, zipcode TEXT, disease TEXT);");
    for z in 0..ZONES {
        sql.push_str(&format!(" INSERT INTO Patients VALUES ('p{z}', 'z{z}', 'd{}');", z % 3));
    }
    let mut reqs = vec![Request::Dml { ts: Timestamp(100), sql }];
    for &z in audits {
        let column = if z.is_multiple_of(2) { "disease" } else { "pid" };
        reqs.push(Request::Register {
            name: format!("audit-{z}"),
            expr: format!(
                "DURING 1/1/1970 TO 1/1/2100 DATA-INTERVAL 1/1/1970 TO 1/1/2100 \
                 AUDIT {column} FROM Patients WHERE zipcode = 'z{z}'"
            ),
            now: Some(Timestamp(500)),
        });
    }
    for (i, q) in queries.iter().enumerate() {
        let sql = match q.kind {
            0 => format!("SELECT disease FROM Patients WHERE zipcode = 'z{}'", q.zone),
            1 => format!("SELECT pid FROM Patients WHERE zipcode = 'z{}'", q.zone),
            2 => "SELECT disease FROM Patients".to_string(),
            _ => format!("SELECT zipcode FROM Patients WHERE zipcode = 'z{}'", q.zone),
        };
        reqs.push(Request::Log {
            ts: Timestamp(1_000 + i as i64),
            user: format!("u{}", q.who),
            role: format!("r{}", q.who),
            purpose: "care".into(),
            sql,
        });
    }
    reqs.push(Request::Weight {
        table: "Patients".into(),
        column: Some("pid".into()),
        weight: 3.0,
    });
    reqs
}

/// The layers under `ServiceCore::handle`, called directly — with the
/// scan-all reference where the service probes its dispatch index.
struct Reference {
    db: Database,
    log: QueryLog,
    online: OnlineAuditor,
    queue: ReviewQueue,
}

impl Reference {
    fn apply(&mut self, req: &Request) {
        match req {
            Request::Dml { ts, sql } => {
                let mut clock = *ts;
                for stmt in audex_sql::parse_script(sql).unwrap() {
                    self.db.execute(&stmt, clock).unwrap();
                    clock = clock.plus_seconds(1);
                }
            }
            Request::Register { expr, now, .. } => {
                let parsed = audex_sql::parse_audit(expr).unwrap();
                let prepared = AuditEngine::new(&self.db, &self.log)
                    .prepare_governed(&parsed, now.unwrap(), &Governor::unlimited())
                    .unwrap();
                self.online.push(prepared);
            }
            Request::Log { ts, user, role, purpose, sql } => {
                let context = AccessContext::new(user.clone(), role.clone(), purpose.clone());
                let entry = Arc::new(LoggedQuery::new(
                    QueryId(self.log.len() as u64 + 1),
                    audex_sql::parse_query(sql).unwrap(),
                    sql.clone(),
                    *ts,
                    context.clone(),
                ));
                let scores = self.online.observe_scan_all(&self.db, &entry).unwrap();
                let id = self.log.record_text_validated(sql, *ts, context.clone()).unwrap();
                if !scores.is_empty() {
                    self.queue.observe(
                        id,
                        *ts,
                        context.user,
                        context.role,
                        context.purpose,
                        &scores,
                    );
                }
            }
            Request::Weight { table, column, weight } => {
                self.queue.set_weight(Ident::new(table), column.clone().map(Ident::new), *weight);
            }
            other => panic!("the workload never sends {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn queue_and_templates_are_execution_invariant(
        audit_zones in proptest::collection::btree_set(0..ZONES, 1..ZONES),
        queries in proptest::collection::vec(q(), 1..40),
    ) {
        let audits: Vec<usize> = audit_zones.into_iter().collect();
        let mut core = ServiceCore::new(Database::new(), ServiceConfig::default());
        let mut reference = Reference {
            db: Database::new(),
            log: QueryLog::new(),
            online: OnlineAuditor::new(Vec::new()),
            queue: ReviewQueue::new(None),
        };
        for req in requests(&audits, &queries) {
            reference.apply(&req);
            let r = core.handle(req).response;
            prop_assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{}", r);
        }
        prop_assert_eq!(core.triage().export(), reference.queue.export());
        prop_assert_eq!(core.triage().templates(), reference.queue.templates());
        for (top, offset) in [(None, 0), (Some(3), 2), (Some(10_000), 0)] {
            let page = core.handle(Request::Queue { top, offset }).response;
            prop_assert_eq!(
                page.get("items").and_then(Json::as_arr).map(<[Json]>::len),
                Some(reference.queue.page(top, offset).len()),
                "queue page top={:?} offset={}", top, offset
            );
        }
    }
}
