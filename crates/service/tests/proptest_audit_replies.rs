//! Standing-audit differential: every `audit` reply a core gives equals
//! [`TouchIndex::evaluate_governed`] over an index built from scratch on the
//! same log.
//!
//! Random sessions interleave `dml`, `log` (some entries over a table that
//! does not exist yet, some lagging behind DML so they resolve but run at an
//! instant before their table, some dividing by zero), `register` (mid-stream
//! too, so an audit meets history) and `unregister`, with and without
//! `--redact-log`, then crash once — optionally past a checkpoint — and go on
//! with the recovered core. Before and after the crash, each registered
//! audit's reply must equal the reference built from the real SQL of every
//! accepted entry, with the audit prepared against a copy of the database
//! as the registration saw it. The reference skips what the daemon's index
//! cannot have run: an entry whose scope did not resolve when it was logged
//! (a later `CREATE TABLE` makes it resolve from scratch), and a redacted
//! entry replayed from the WAL tail (its text is gone). Nothing else is
//! stripped.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use audex_core::{AuditEngine, AuditScope, Governor, TouchIndex};
use audex_log::{AccessContext, QueryId, QueryLog};
use audex_persist::{FsyncPolicy, Journal, WalOptions};
use audex_service::{Json, Request, ServiceConfig, ServiceCore};
use audex_sql::Timestamp;
use audex_storage::{Database, JoinStrategy};
use proptest::prelude::*;

const SCHEMA: &str = "CREATE TABLE P (pid TEXT, zip TEXT, disease TEXT); \
                      INSERT INTO P VALUES ('p1', 'z1', 'flu'), ('p2', 'z2', 'cancer');";

/// DML scripts. The first creates `E`, so entries over `E` logged before it
/// do not resolve, and lagging entries logged after it run too early.
const DML: [&str; 6] = [
    "CREATE TABLE E (pid TEXT, salary INT); INSERT INTO E VALUES ('p1', 100), ('p2', 200)",
    "INSERT INTO P VALUES ('p3', 'z1', 'flu')",
    "INSERT INTO P VALUES ('p4', 'z2', 'cancer'), ('p5', 'z1', 'cold')",
    "UPDATE P SET disease = 'cancer' WHERE pid = 'p1'",
    "DELETE FROM E WHERE salary > 150",
    "INSERT INTO E VALUES ('p3', 300), ('p4', 50)",
];

/// Logged queries; two fail at run time once their table has rows.
const QUERIES: [&str; 9] = [
    "SELECT disease FROM P WHERE zip = 'z1'",
    "SELECT pid FROM P",
    "SELECT salary FROM E WHERE salary > 150",
    "SELECT P.disease, E.salary FROM P, E WHERE P.pid = E.pid",
    "SELECT zip FROM P WHERE disease = 'cancer'",
    "SELECT pid FROM P WHERE 1 / 0 = 1",
    "SELECT salary FROM E WHERE salary / 0 > 1",
    "SELECT x FROM Ghost",
    "SELECT * FROM P",
];

const ALL_TIME: &str = "DURING 1/1/1970 TO 1/1/2100 DATA-INTERVAL 1/1/1970 TO 1/1/2100";

/// Indispensable and value mode, joins, an empty view, a `DURING` window
/// that opens mid-session and a context filter.
const AUDITS: [&str; 8] = [
    "AUDIT disease FROM P WHERE zip = 'z1'",
    "AUDIT salary FROM E WHERE salary > 150",
    "AUDIT pid FROM P WHERE disease = 'cancer'",
    "INDISPENSABLE false AUDIT disease FROM P WHERE zip = 'z1'",
    "AUDIT (disease, salary) FROM P, E WHERE P.pid = E.pid",
    "AUDIT disease FROM P WHERE zip = 'nowhere'",
    "DURING 1/12/1970:14-00-00 TO 1/1/2100 DATA-INTERVAL 1/1/1970 TO 1/1/2100 \
     AUDIT zip FROM P",
    "Neg-Role-Purpose (clerk, -) INDISPENSABLE false AUDIT pid FROM P",
];

const NAMES: [&str; 4] = ["a", "b", "c", "d"];

fn audit_expr(i: usize) -> String {
    let body = AUDITS[i % AUDITS.len()];
    if body.contains("DURING") {
        body.to_string()
    } else {
        format!("{ALL_TIME} {body}")
    }
}

fn context(who: usize) -> AccessContext {
    AccessContext::new(
        format!("u{}", who % 3),
        ["nurse", "clerk"][who % 2],
        ["treatment", "billing"][(who / 2) % 2],
    )
}

fn temp_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "audex-proptest-audit-replies-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An accepted log entry, as the reference replays it.
struct Entry {
    sql: &'static str,
    ts: Timestamp,
    who: usize,
    /// Journaled before the crash (its text is gone under `--redact-log`).
    before_crash: bool,
    /// Position of its request in the session.
    at: usize,
    /// Whether every table it names existed when it was logged.
    resolved_at_ingest: bool,
}

/// A live registration: the database copy it prepared against, its
/// expression and instant.
struct Registration {
    db: Database,
    expr: String,
    now: Timestamp,
}

struct Model {
    redact: bool,
    /// Requests the checkpoint covers (0 without one).
    covered: usize,
    crashed: bool,
    entries: Vec<Entry>,
    audits: BTreeMap<&'static str, Registration>,
}

impl Model {
    /// Whether the daemon's index holds no lineage for `q`: a redacted
    /// entry replayed from the WAL tail, or one whose scope did not resolve
    /// when it was logged.
    fn unindexed(&self, q: &Entry) -> bool {
        let tail = self.redact && self.crashed && q.before_crash && q.at >= self.covered;
        tail || !q.resolved_at_ingest
    }
}

fn resolves(db: &Database, sql: &str) -> bool {
    audex_sql::parse_query(sql).is_ok_and(|q| AuditScope::resolve(db, &q.from).is_ok())
}

fn ids(list: impl IntoIterator<Item = QueryId>) -> Json {
    Json::Arr(list.into_iter().map(|q| Json::Int(q.0 as i64)).collect())
}

/// The reply `audit` must give for `name`, from the reference index.
fn expected(model: &Model, db: &Database, name: &str) -> Json {
    let reg = &model.audits[name];
    let expr = audex_sql::parse_audit(&reg.expr).expect("registered expressions parse");
    let empty = QueryLog::new();
    let prepared = AuditEngine::new(&reg.db, &empty).prepare(&expr, reg.now).expect("prepares");

    let log = QueryLog::new();
    for e in &model.entries {
        log.record_text(e.sql, e.ts, context(e.who)).expect("accepted entries parse");
    }
    let snapshot = log.snapshot();
    let index = TouchIndex::build(db, &snapshot, JoinStrategy::Auto);
    let mut admitted = BTreeSet::new();
    let mut skipped = BTreeSet::new();
    for (e, q) in model.entries.iter().zip(&snapshot) {
        if prepared.filter.admits(q) {
            if model.unindexed(e) {
                skipped.insert(q.id);
            } else {
                admitted.insert(q.id);
            }
        }
    }
    let v =
        index.evaluate_governed(&prepared, &admitted, &Governor::unlimited()).expect("evaluates");
    // The rest the reference index skipped failed at run time.
    skipped.extend(v.skipped);
    let count = |n: u128| Json::from(u64::try_from(n).expect("small counts"));
    Json::Obj(
        [
            ("ok", Json::Bool(true)),
            ("name", Json::from(name)),
            ("suspicious", Json::Bool(v.suspicious)),
            ("accessed_granules", count(v.accessed_granules)),
            ("total_granules", count(v.total_granules)),
            ("degree", Json::Float(v.degree)),
            ("contributing", ids(v.contributing)),
            ("witnesses", ids(v.witnesses)),
            ("skipped", ids(skipped)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect(),
    )
}

fn check_all(core: &mut ServiceCore, model: &Model, when: &str) -> Result<(), String> {
    for name in model.audits.keys() {
        let got = core.handle(Request::Audit { name: name.to_string() }).response;
        let want = expected(model, core.db(), name);
        if got.to_string() != want.to_string() {
            return Err(format!(
                "{when}, redact={}, covered={}: audit {name} ({})\n  daemon:    {got}\n  reference: {want}",
                model.redact, model.covered, model.audits[name].expr
            ));
        }
    }
    Ok(())
}

/// Runs one session; `Err` names the first reply that differs.
fn differential(
    ops: &[(u8, usize, usize)],
    redact: bool,
    crash_at: usize,
    checkpoint_at: Option<usize>,
) -> Result<(), String> {
    let dir = temp_dir();
    let config = ServiceConfig { redact_log: redact, ..ServiceConfig::default() };
    let wal = WalOptions { fsync: FsyncPolicy::Never, segment_max_bytes: 4 * 1024 * 1024 };
    let (journal, _) = Journal::open(&dir, wal).map_err(|e| e.to_string())?;
    let mut core = ServiceCore::new(Database::new(), config);
    core.attach_journal(journal);
    let mut model =
        Model { redact, covered: 0, crashed: false, entries: Vec::new(), audits: BTreeMap::new() };

    let mut clock = 1_000_000i64;
    let mut last_log = 0i64;
    core.handle(Request::Dml { ts: Timestamp(clock), sql: SCHEMA.into() });
    for (i, &(kind, a, b)) in ops.iter().enumerate() {
        let at = i + 1;
        if i == crash_at {
            check_all(&mut core, &model, "before the crash")?;
            drop(core);
            let (journal, mut recovered) = Journal::open(&dir, wal).map_err(|e| e.to_string())?;
            core = ServiceCore::recovered(&mut recovered, config).map_err(|e| e.to_string())?;
            core.attach_journal(journal);
            model.crashed = true;
            check_all(&mut core, &model, "after the crash")?;
        }
        clock += 10 + 7 * b as i64;
        match kind {
            0..=14 => {
                core.handle(Request::Dml { ts: Timestamp(clock), sql: DML[a % DML.len()].into() });
            }
            15..=59 => {
                // Some entries lag behind the clock (never behind the log),
                // so they can run before a table they name was created.
                let lag = [0, 0, 40, 400][b % 4];
                let ts = last_log.max(clock - lag);
                let sql = QUERIES[a % QUERIES.len()];
                let c = context(b);
                let resolved_at_ingest = resolves(core.db(), sql);
                let r = core.handle(Request::Log {
                    ts: Timestamp(ts),
                    user: c.user.value.clone(),
                    role: c.role.value.clone(),
                    purpose: c.purpose.value.clone(),
                    sql: sql.into(),
                });
                if r.response.get("ok") == Some(&Json::Bool(true)) {
                    last_log = ts;
                    model.entries.push(Entry {
                        sql,
                        ts: Timestamp(ts),
                        who: b,
                        before_crash: !model.crashed,
                        at,
                        resolved_at_ingest,
                    });
                }
            }
            60..=79 => {
                let name = NAMES[a % NAMES.len()];
                let expr = audit_expr(b);
                let now = (b % 2 == 0).then_some(Timestamp(3_000_000_000));
                let db = core.db().clone();
                let r =
                    core.handle(Request::Register { name: name.into(), expr: expr.clone(), now });
                if r.response.get("ok") == Some(&Json::Bool(true)) {
                    let now = Timestamp(r.response.get("now").and_then(Json::as_int).ok_or("now")?);
                    model.audits.insert(name, Registration { db, expr, now });
                }
            }
            80..=89 => {
                let name = NAMES[a % NAMES.len()];
                let r = core.handle(Request::Unregister { name: name.into() });
                if r.response.get("ok") == Some(&Json::Bool(true)) {
                    model.audits.remove(name);
                }
            }
            _ => {}
        }
        if checkpoint_at == Some(i) && !model.crashed {
            core.checkpoint().map_err(|e| e.to_string())?;
            model.covered = at + 1;
        }
    }
    let result = check_all(&mut core, &model, "at the end");
    let _ = std::fs::remove_dir_all(&dir);
    result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn audit_replies_equal_a_from_scratch_touch_index(
        ops in proptest::collection::vec((0u8..100, 0usize..16, 0usize..16), 10..=50),
        crash in 0usize..64,
        checkpoint in 0usize..80,
    ) {
        let crash_at = crash % ops.len();
        // About one session in five has no checkpoint.
        let checkpoint_at = (checkpoint < 64).then_some(checkpoint % ops.len());
        for redact in [false, true] {
            differential(&ops, redact, crash_at, checkpoint_at)?;
        }
    }
}
