//! Concurrent readers over one MVCC database: the shared snapshot cache and
//! visibility counters under contention, on seeded DML / query interleavings.
//!
//! Engine equivalence (the version store against the replay reference, with
//! and without injected faults) is held one layer down, at the only boundary
//! where a storage engine can influence a report: the five `Database` reads,
//! in `crates/storage/tests/proptest_storage.rs::mvcc_equals_replay_oracle`.

use audex::core::AuditEngine;
use audex::service::Request;
use audex::sql::ast::{TimeInterval, TsSpec};
use audex::sql::{parse_audit, parse_statement};
use audex::storage::Database;
use audex::{AccessContext, QueryLog, Timestamp};

/// xorshift64* — the schedule generator is seeded explicitly so a failing
/// case replays from the one integer proptest prints.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn pick<'a>(&mut self, xs: &'a [&'a str]) -> &'a str {
        xs[self.below(xs.len() as u64) as usize]
    }
}

const ZIPS: [&str; 3] = ["120016", "145568", "983301"];
const DISEASES: [&str; 3] = ["cancer", "flu", "none"];
const AUDITS: [(&str, &str); 3] = [
    ("cancer-watch", "disease FROM Patients WHERE zipcode = '120016'"),
    ("zip-watch", "pid FROM Patients WHERE disease = 'cancer'"),
    ("all-pid", "pid FROM Patients"),
];

fn all_time(expr: &str) -> String {
    format!("DURING 1/1/1970 TO 1/1/2100 DATA-INTERVAL 1/1/1970 TO 1/1/2100 AUDIT {expr}")
}

/// A deterministic interleaving of DML, logged queries, audit evaluations,
/// and triage actions, drawn from `seed`.
fn schedule(seed: u64, ops: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    let mut reqs = vec![Request::Dml {
        ts: Timestamp(0),
        sql: "CREATE TABLE Patients (pid TEXT, zipcode TEXT, disease TEXT); \
              INSERT INTO Patients VALUES \
              ('p0', '120016', 'cancer'), ('p1', '120016', 'flu'), \
              ('p2', '145568', 'none'), ('p3', '983301', 'cancer');"
            .into(),
    }];
    for (name, expr) in AUDITS {
        reqs.push(Request::Register {
            name: name.into(),
            expr: all_time(expr),
            now: Some(Timestamp(5_000)),
        });
    }
    let mut next_pid = 4u64;
    let mut ts = 100i64;
    for _ in 0..ops {
        ts += 1 + rng.below(5) as i64;
        let req = match rng.below(10) {
            0 => {
                let pid = format!("p{next_pid}");
                next_pid += 1;
                Request::Dml {
                    ts: Timestamp(ts),
                    sql: format!(
                        "INSERT INTO Patients VALUES ('{pid}', '{}', '{}')",
                        rng.pick(&ZIPS),
                        rng.pick(&DISEASES)
                    ),
                }
            }
            1 => Request::Dml {
                ts: Timestamp(ts),
                sql: format!(
                    "UPDATE Patients SET zipcode = '{}' WHERE pid = 'p{}'",
                    rng.pick(&ZIPS),
                    rng.below(next_pid)
                ),
            },
            2 => Request::Dml {
                ts: Timestamp(ts),
                sql: format!(
                    "UPDATE Patients SET disease = '{}' WHERE pid = 'p{}'",
                    rng.pick(&DISEASES),
                    rng.below(next_pid)
                ),
            },
            3 => Request::Dml {
                ts: Timestamp(ts),
                sql: format!("DELETE FROM Patients WHERE pid = 'p{}'", rng.below(next_pid)),
            },
            4..=6 => {
                let (col, filter_col, pool): (&str, &str, &[&str]) = match rng.below(3) {
                    0 => ("disease", "zipcode", &ZIPS),
                    1 => ("pid", "disease", &DISEASES),
                    _ => ("zipcode", "pid", &["p0", "p1", "p2"]),
                };
                let val = pool[rng.below(pool.len() as u64) as usize];
                Request::Log {
                    ts: Timestamp(ts),
                    user: format!("u{}", rng.below(3)),
                    role: format!("r{}", rng.below(2)),
                    purpose: "care".into(),
                    sql: format!("SELECT {col} FROM Patients WHERE {filter_col} = '{val}'"),
                }
            }
            7 => Request::Audit { name: AUDITS[rng.below(3) as usize].0.into() },
            8 => Request::Queue { top: None, offset: 0 },
            _ => match rng.below(4) {
                0 => Request::Ack { query: rng.below(20) },
                1 => Request::Dismiss { query: rng.below(20) },
                2 => Request::Weight {
                    table: "Patients".into(),
                    column: Some(rng.pick(&["pid", "zipcode", "disease"]).into()),
                    weight: (1 + rng.below(5)) as f64,
                },
                _ => Request::Triage,
            },
        };
        reqs.push(req);
    }
    // Every observable, once more, at the end of the interleaving.
    for (name, _) in AUDITS {
        reqs.push(Request::Audit { name: name.into() });
    }
    reqs.push(Request::Queue { top: None, offset: 0 });
    reqs.push(Request::Triage);
    reqs
}

/// Canonical digest of one engine-level report — everything the paper's
/// auditor observes.
fn digest(r: &audex::core::AuditReport) -> String {
    format!(
        "target={} versions={:?} admitted={:?} suspicious={} contributing={:?} \
         witnesses={:?} granules={}",
        r.target_size,
        r.versions,
        r.admitted,
        r.verdict.suspicious,
        r.verdict.contributing,
        r.verdict.witnesses,
        r.verdict.accessed_granules,
    )
}

/// Builds a database plus a populated query log from the DML and Log steps
/// of `reqs` (engine-level mirror of the service schedule).
fn build(reqs: &[Request]) -> (Database, QueryLog) {
    let mut db = Database::new();
    let log = QueryLog::new();
    for req in reqs {
        match req {
            Request::Dml { ts, sql } => {
                let mut at = *ts;
                for stmt in sql.split(';').map(str::trim).filter(|s| !s.is_empty()) {
                    db.execute(&parse_statement(stmt).unwrap(), at).unwrap();
                    at = Timestamp(at.0 + 1);
                }
            }
            Request::Log { ts, user, role, purpose, sql } => {
                log.record_text(
                    sql,
                    *ts,
                    AccessContext::new(user.as_str(), role.as_str(), purpose.as_str()),
                )
                .unwrap();
            }
            _ => {}
        }
    }
    (db, log)
}

/// Four concurrent readers, each auditing in a different rotation, against a
/// shared MVCC database: every thread must produce the digests the same
/// audits, replayed sequentially on a cold clone, produce. Exercises the
/// shared snapshot cache and visibility counters under contention.
#[test]
fn concurrent_mvcc_readers_agree_with_sequential_replay() {
    let iv = TimeInterval { start: TsSpec::At(Timestamp(0)), end: TsSpec::Now };
    let exprs: Vec<_> = AUDITS
        .iter()
        .map(|(_, body)| {
            let mut e = parse_audit(&format!("AUDIT {body}")).unwrap();
            e.during = Some(iv);
            e.data_interval = Some(iv);
            e
        })
        .collect();
    for seed in [11u64, 2_026, 808_808] {
        let reqs = schedule(seed, 40);
        let (mvcc_db, mvcc_log) = build(&reqs);
        let cold = mvcc_db.clone();
        let sequential = AuditEngine::new(&cold, &mvcc_log);
        let baseline: Vec<String> = exprs
            .iter()
            .map(|e| digest(&sequential.audit_at(e, Timestamp(1_000_000)).unwrap()))
            .collect();

        std::thread::scope(|scope| {
            for t in 0..4usize {
                let (exprs, baseline) = (&exprs, &baseline);
                let (db, log) = (&mvcc_db, &mvcc_log);
                scope.spawn(move || {
                    let engine = AuditEngine::new(db, log);
                    for round in 0..3 {
                        for i in 0..exprs.len() {
                            let k = (i + t + round) % exprs.len();
                            let got =
                                digest(&engine.audit_at(&exprs[k], Timestamp(1_000_000)).unwrap());
                            assert_eq!(
                                got, baseline[k],
                                "seed {seed}: thread {t} diverged on audit {k}"
                            );
                        }
                    }
                });
            }
        });
    }
}
