//! Session files: a small text format for driving `audex` from the command
//! line — a timestamped SQL script that builds a versioned database, and a
//! timestamped, annotated query log.
//!
//! # Database script
//!
//! SQL statements separated by `;`. A line starting with `@<timestamp>`
//! sets the clock for the statements that follow; each executed statement
//! then advances the clock by one second (so versions stay distinct and
//! `DURING` windows are meaningful). The timestamp accepts the paper's
//! `D/M/YYYY[:HH-MM-SS]` form or quoted ISO.
//!
//! ```text
//! @1/1/2008
//! CREATE TABLE Patients (pid TEXT, zipcode TEXT, disease TEXT);
//! INSERT INTO Patients VALUES ('p1', '120016', 'cancer');
//! @2/1/2008:10-00-00
//! UPDATE Patients SET zipcode = '145568' WHERE pid = 'p1';
//! ```
//!
//! # Log script
//!
//! Each entry is a header line
//! `@<timestamp> user=<id> role=<id> purpose=<id>` followed by one SELECT
//! query (possibly spanning lines, optional trailing `;`).
//!
//! ```text
//! @1/1/2008:09-30-00 user=u-4 role=nurse purpose=treatment
//! SELECT zipcode FROM Patients WHERE disease = 'cancer';
//! ```
//!
//! Lines starting with `--` (outside statements) and blank lines are
//! ignored in both formats.

use audex_log::{AccessContext, QueryLog};
use audex_sql::{ParseError, Timestamp};
use audex_storage::{Database, StorageError};
use std::fmt;

/// Errors from loading session files.
#[derive(Debug)]
pub enum SessionError {
    /// A malformed `@` header or annotation.
    Header {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// SQL inside the file failed to parse.
    Parse(ParseError),
    /// A statement failed to execute.
    Storage(StorageError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Header { line, message } => write!(f, "line {line}: {message}"),
            SessionError::Parse(e) => write!(f, "SQL parse error: {e}"),
            SessionError::Storage(e) => write!(f, "execution error: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ParseError> for SessionError {
    fn from(e: ParseError) -> Self {
        SessionError::Parse(e)
    }
}

impl From<StorageError> for SessionError {
    fn from(e: StorageError) -> Self {
        SessionError::Storage(e)
    }
}

/// Splits a session file into lines, tolerating the endings real editors
/// produce: `\n`, `\r\n`, *and* lone `\r` (classic-Mac or mixed files —
/// `str::lines` leaves those whole, so an `@` header would swallow the
/// statement after it and fail with a confusing "invalid timestamp"). A
/// UTF-8 BOM on the first line is stripped for the same reason: it is
/// invisible in an editor but makes the header line not start with `@`.
fn script_lines(text: &str) -> impl Iterator<Item = &str> {
    let mut rest = text.strip_prefix('\u{feff}').unwrap_or(text);
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        match rest.find(['\n', '\r']) {
            None => Some(std::mem::take(&mut rest)),
            Some(i) => {
                let line = &rest[..i];
                let sep = if rest[i..].starts_with("\r\n") { 2 } else { 1 };
                rest = &rest[i + sep..];
                Some(line)
            }
        }
    })
}

fn parse_ts(text: &str, line: usize) -> Result<Timestamp, SessionError> {
    let trimmed = text.trim().trim_matches('\'');
    Timestamp::parse(trimmed)
        .ok_or(SessionError::Header { line, message: format!("invalid timestamp {trimmed:?}") })
}

/// Loads a database script (see module docs). Statements execute in order;
/// the clock starts at `1/1/2000` unless the script sets it.
pub fn load_database_script(text: &str) -> Result<Database, SessionError> {
    let mut db = Database::new();
    let mut clock = Timestamp::from_ymd(2000, 1, 1).expect("valid epoch");
    let mut pending = String::new();
    let mut pending_line = 1usize;

    let flush = |pending: &mut String,
                 line: usize,
                 clock: &mut Timestamp,
                 db: &mut Database|
     -> Result<(), SessionError> {
        let sql = pending.trim();
        if sql.is_empty() {
            pending.clear();
            return Ok(());
        }
        let stmts = audex_sql::parse_script(sql).map_err(|e| {
            // Re-anchor the error to the file for a useful message.
            SessionError::Header { line, message: format!("in statement block starting here: {e}") }
        })?;
        for stmt in stmts {
            db.execute(&stmt, *clock)?;
            *clock = clock.plus_seconds(1);
        }
        pending.clear();
        Ok(())
    };

    // The latest `@` header seen, for rejecting rewinds at the header line
    // (the default epoch is only a fallback and may be overridden downward).
    let mut last_header: Option<Timestamp> = None;

    for (i, raw) in script_lines(text).enumerate() {
        let line = i + 1;
        let trimmed = raw.trim();
        if pending.trim().is_empty() && (trimmed.is_empty() || trimmed.starts_with("--")) {
            continue;
        }
        if let Some(ts_text) = trimmed.strip_prefix('@') {
            flush(&mut pending, pending_line, &mut clock, &mut db)?;
            let ts = parse_ts(ts_text, line)?;
            let floor = last_header.unwrap_or(Timestamp(0)).max(db.last_ts());
            if ts < floor {
                return Err(SessionError::Header {
                    line,
                    message: format!(
                        "out-of-order timestamp @{ts}: the script clock is already at {floor} \
                         (timestamps must be non-decreasing)"
                    ),
                });
            }
            clock = ts;
            last_header = Some(ts);
            pending_line = line + 1;
            continue;
        }
        if pending.is_empty() {
            pending_line = line;
        }
        pending.push_str(raw);
        pending.push('\n');
    }
    flush(&mut pending, pending_line, &mut clock, &mut db)?;
    Ok(db)
}

fn parse_log_header(rest: &str, line: usize) -> Result<(Timestamp, AccessContext), SessionError> {
    let mut parts = rest.split_whitespace();
    let ts_text = parts.next().ok_or(SessionError::Header {
        line,
        message: "expected '@<timestamp> user=<id> role=<id> purpose=<id>'".into(),
    })?;
    let ts = parse_ts(ts_text, line)?;
    let (mut user, mut role, mut purpose) = (None, None, None);
    for kv in parts {
        let Some((k, v)) = kv.split_once('=') else {
            return Err(SessionError::Header {
                line,
                message: format!("expected key=value, found {kv:?}"),
            });
        };
        match k {
            "user" => user = Some(v.to_string()),
            "role" => role = Some(v.to_string()),
            "purpose" => purpose = Some(v.to_string()),
            other => {
                return Err(SessionError::Header {
                    line,
                    message: format!("unknown annotation {other:?} (expected user/role/purpose)"),
                })
            }
        }
    }
    let missing =
        |what: &str| SessionError::Header { line, message: format!("missing {what}= annotation") };
    Ok((
        ts,
        AccessContext::new(
            user.ok_or_else(|| missing("user"))?,
            role.ok_or_else(|| missing("role"))?,
            purpose.ok_or_else(|| missing("purpose"))?,
        ),
    ))
}

/// Loads a log script (see module docs) into a fresh [`QueryLog`].
pub fn load_log_script(text: &str) -> Result<QueryLog, SessionError> {
    let log = QueryLog::new();
    let mut header: Option<(Timestamp, AccessContext, usize)> = None;
    let mut pending = String::new();

    let flush = |header: &mut Option<(Timestamp, AccessContext, usize)>,
                 pending: &mut String|
     -> Result<(), SessionError> {
        let sql = pending.trim().trim_end_matches(';').trim();
        match (header.take(), sql.is_empty()) {
            (None, true) => Ok(()),
            (None, false) => Err(SessionError::Header {
                line: 1,
                message: "query text before any '@' header".into(),
            }),
            (Some((_, _, line)), true) => {
                Err(SessionError::Header { line, message: "header with no query".into() })
            }
            (Some((ts, ctx, _)), false) => {
                log.record_text(sql, ts, ctx)?;
                pending.clear();
                Ok(())
            }
        }
    };

    for (i, raw) in script_lines(text).enumerate() {
        let line = i + 1;
        let trimmed = raw.trim();
        if pending.trim().is_empty() && (trimmed.is_empty() || trimmed.starts_with("--")) {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('@') {
            flush(&mut header, &mut pending)?;
            header = Some({
                let (ts, ctx) = parse_log_header(rest, line)?;
                (ts, ctx, line)
            });
            continue;
        }
        if header.is_none() {
            return Err(SessionError::Header {
                line,
                message: "query text before any '@' header".into(),
            });
        }
        pending.push_str(raw);
        pending.push('\n');
    }
    flush(&mut header, &mut pending)?;
    Ok(log)
}

/// Renders a database's full history back into a loadable script (the
/// inverse of [`load_database_script`] up to timestamp granularity): table
/// creations first, then every backlog change in global timestamp order as
/// `INSERT` / `UPDATE` / `DELETE` statements under `@` headers.
pub fn render_database_script(db: &Database) -> String {
    use audex_storage::backlog::ChangeOp;
    use std::fmt::Write as _;

    let mut out = String::from("-- audex database export\n");

    // Gather (ts, table, statement) for every change; creations first.
    let mut events: Vec<(Timestamp, u32, String)> = Vec::new();
    for name in db.table_names() {
        let schema = db.table(&name).expect("table for every name").schema().clone();
        let created_at = db.table_created_at(&name).expect("creation instant for every table");
        let cols: Vec<String> = schema.iter().map(|(n, ty)| format!("{} {}", n, ty)).collect();
        events.push((created_at, 0, format!("CREATE TABLE {} ({});", name, cols.join(", "))));
        for rec in &db.table_changes(&name).expect("change log for every table") {
            let stmt = match (&rec.op, &rec.after) {
                (ChangeOp::Insert, Some(row)) | (ChangeOp::Update, Some(row)) => {
                    // Updates and inserts both re-state the full image; on
                    // reload an update becomes delete+insert of the image,
                    // which preserves per-instant *contents* (tids may be
                    // renumbered — documented).
                    let values: Vec<String> = row.iter().map(render_value).collect();
                    if rec.op == ChangeOp::Insert {
                        format!("INSERT INTO {} VALUES ({});", name, values.join(", "))
                    } else {
                        let sets: Vec<String> = schema
                            .iter()
                            .zip(row)
                            .map(|((n, _), v)| format!("{} = {}", n, render_value(v)))
                            .collect();
                        let keys = key_predicate(&schema, rec, db, &name);
                        format!("UPDATE {} SET {}{};", name, sets.join(", "), keys)
                    }
                }
                (ChangeOp::Delete, _) => {
                    let keys = key_predicate(&schema, rec, db, &name);
                    format!("DELETE FROM {}{};", name, keys)
                }
                _ => continue,
            };
            events.push((rec.ts, 1, stmt));
        }
    }
    events.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));

    let mut last_ts: Option<Timestamp> = None;
    for (ts, _, stmt) in events {
        if last_ts != Some(ts) {
            let _ = writeln!(out, "@{ts}");
            last_ts = Some(ts);
        }
        let _ = writeln!(out, "{stmt}");
    }
    out
}

/// Predicate identifying the changed tuple by its *pre-change* image (the
/// exporter has no tid syntax), using the state just before `rec.ts`.
fn key_predicate(
    schema: &audex_storage::Schema,
    rec: &audex_storage::backlog::ChangeRecord,
    db: &Database,
    table: &audex_sql::Ident,
) -> String {
    let before = db.row_as_of(table, rec.tid, Timestamp(rec.ts.0 - 1));
    match before {
        Some(row) => {
            let conds: Vec<String> = schema
                .iter()
                .zip(row.iter())
                .map(|((n, _), v)| match v {
                    audex_storage::Value::Null => format!("{n} IS NULL"),
                    other => format!("{n} = {}", render_value(other)),
                })
                .collect();
            format!(" WHERE {}", conds.join(" AND "))
        }
        None => String::new(),
    }
}

fn render_value(v: &audex_storage::Value) -> String {
    match v {
        audex_storage::Value::Null => "NULL".into(),
        audex_storage::Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.into(),
        audex_storage::Value::Int(i) => i.to_string(),
        audex_storage::Value::Float(f) => format!("{f:?}"),
        audex_storage::Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        audex_storage::Value::Ts(t) => format!("{}", t.0),
    }
}

/// Renders a query log back into a loadable script (the inverse of
/// [`load_log_script`]).
pub fn render_log_script(log: &QueryLog) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("-- audex query-log export\n");
    for e in log.snapshot() {
        let _ = writeln!(
            out,
            "@{} user={} role={} purpose={}",
            e.executed_at, e.context.user.value, e.context.role.value, e.context.purpose.value
        );
        let _ = writeln!(out, "{};", e.query());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use audex_sql::{parse_query, Ident};

    const DB: &str = "\
-- the paper's tiny scenario
@1/1/2008
CREATE TABLE Patients (pid TEXT, zipcode TEXT, disease TEXT);
INSERT INTO Patients VALUES ('p1', '120016', 'cancer'),
                            ('p2', '145568', 'flu');
@2/1/2008:10-00-00
UPDATE Patients SET zipcode = '145568' WHERE pid = 'p1';
";

    const LOG: &str = "\
-- two annotated accesses
@1/1/2008:09-30-00 user=u-4 role=nurse purpose=treatment
SELECT zipcode FROM Patients
WHERE disease = 'cancer';

@3/1/2008:11-00-00 user=u-9 role=clerk purpose=billing
SELECT pid FROM Patients
";

    #[test]
    fn database_script_builds_versions() {
        let db = load_database_script(DB).unwrap();
        let t_early = Timestamp::from_ymd(2008, 1, 1).unwrap().plus_seconds(10);
        let t_late = Timestamp::from_ymd(2008, 1, 3).unwrap();
        let q = parse_query("SELECT zipcode FROM Patients WHERE pid = 'p1'").unwrap();
        assert_eq!(db.at(t_early).query(&q).unwrap().rows[0][0].to_string(), "120016");
        assert_eq!(db.at(t_late).query(&q).unwrap().rows[0][0].to_string(), "145568");
    }

    #[test]
    fn log_script_parses_annotations() {
        let log = load_log_script(LOG).unwrap();
        assert_eq!(log.len(), 2);
        let e1 = log.get(audex_log::QueryId(1)).unwrap();
        assert_eq!(e1.context.user, Ident::new("u-4"));
        assert_eq!(e1.context.role, Ident::new("nurse"));
        assert_eq!(e1.executed_at, Timestamp::from_ymd_hms(2008, 1, 1, 9, 30, 0).unwrap());
        assert!(e1.text.contains("disease = 'cancer'"));
        let e2 = log.get(audex_log::QueryId(2)).unwrap();
        assert_eq!(e2.context.purpose, Ident::new("billing"));
    }

    #[test]
    fn end_to_end_session_audit() {
        let db = load_database_script(DB).unwrap();
        let log = load_log_script(LOG).unwrap();
        let engine = audex_core::AuditEngine::new(&db, &log);
        let expr = audex_sql::parse_audit(
            "DURING 1/1/2008 TO now() AUDIT disease FROM Patients WHERE zipcode = '120016' \
             DATA-INTERVAL 1/1/2008 TO now()",
        );
        // clause order free — rewrite in canonical order if the above fails
        let expr = match expr {
            Ok(e) => e,
            Err(_) => audex_sql::parse_audit(
                "DURING 1/1/2008 TO now() DATA-INTERVAL 1/1/2008 TO now() \
                 AUDIT disease FROM Patients WHERE zipcode = '120016'",
            )
            .unwrap(),
        };
        let r = engine.audit_at(&expr, Timestamp::from_ymd(2008, 2, 1).unwrap()).unwrap();
        assert!(r.verdict.suspicious);
        assert_eq!(r.verdict.contributing, vec![audex_log::QueryId(1)]);
    }

    #[test]
    fn editor_line_endings_are_tolerated() {
        // CRLF endings plus trailing whitespace on `@` header lines, as a
        // Windows editor would save them.
        let db_src =
            "-- c\r\n@1/1/2008 \t\r\nCREATE TABLE t (a INT);\r\nINSERT INTO t VALUES (1);\r\n";
        let db = load_database_script(db_src).unwrap();
        assert_eq!(db.table(&Ident::new("t")).unwrap().len(), 1);

        // Lone-\r endings (classic Mac / mixed files).
        let db =
            load_database_script("@1/1/2008\rCREATE TABLE t (a INT);\rINSERT INTO t VALUES (2);")
                .unwrap();
        assert_eq!(db.table(&Ident::new("t")).unwrap().len(), 1);

        // A UTF-8 BOM before the first header.
        let db = load_database_script("\u{feff}@1/1/2008\nCREATE TABLE t (a INT);").unwrap();
        assert_eq!(db.table_names().len(), 1);

        // The log loader gets the same treatment, annotations intact.
        let log_src =
            "@1/1/2008:09-30-00 user=u-4 role=nurse purpose=treatment \t\r\nSELECT zipcode FROM t;\r\n";
        let log = load_log_script(log_src).unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log.get(audex_log::QueryId(1)).unwrap().context.role, Ident::new("nurse"));
        let log = load_log_script("@1/1/2008 user=u role=r purpose=p\rSELECT a FROM t\r").unwrap();
        assert_eq!(log.len(), 1);

        // Line numbers in errors still count every physical line.
        let err = load_database_script("-- c\r\n@nope\r\n").unwrap_err();
        assert!(matches!(err, SessionError::Header { line: 2, .. }), "{err}");
    }

    #[test]
    fn bad_headers_are_rejected_with_line_numbers() {
        let err = load_database_script("@not-a-date\nCREATE TABLE t (a INT);").unwrap_err();
        assert!(matches!(err, SessionError::Header { line: 1, .. }), "{err}");

        let err = load_log_script("SELECT a FROM t;").unwrap_err();
        assert!(err.to_string().contains("before any"), "{err}");

        let err = load_log_script("@1/1/2008 user=u role=r\nSELECT a FROM t").unwrap_err();
        assert!(err.to_string().contains("purpose"), "{err}");

        let err = load_log_script(
            "@1/1/2008 user=u role=r purpose=p\n@1/1/2008 user=v role=r purpose=p\nSELECT a FROM t",
        )
        .unwrap_err();
        assert!(err.to_string().contains("no query"), "{err}");
    }

    #[test]
    fn bad_sql_is_anchored_to_block() {
        let err = load_database_script("@1/1/2008\nCREATE TABLE t (a INT);\nSELEC x;").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("statement block"), "{msg}");
    }

    #[test]
    fn out_of_order_script_clock_is_rejected_at_the_header() {
        let script = "@2/1/2008\nCREATE TABLE t (a INT);\n@1/1/2008\nINSERT INTO t VALUES (1);";
        let err = load_database_script(script).unwrap_err();
        assert!(matches!(err, SessionError::Header { line: 3, .. }), "{err}");
        assert!(err.to_string().contains("out-of-order"), "{err}");
        assert!(err.to_string().contains("line 3"), "{err}");

        // Header-to-header rewinds are caught even with no statements between.
        let script = "@2/1/2008\n@1/1/2008\nCREATE TABLE t (a INT);";
        let err = load_database_script(script).unwrap_err();
        assert!(matches!(err, SessionError::Header { line: 2, .. }), "{err}");

        // But a first header before the default epoch is fine — the default
        // clock is a fallback, not a floor.
        let db = load_database_script("@1/1/1999\nCREATE TABLE t (a INT);").unwrap();
        assert_eq!(db.table_names().len(), 1);
    }

    #[test]
    fn log_export_round_trips() {
        let log = load_log_script(LOG).unwrap();
        let script = render_log_script(&log);
        let log2 = load_log_script(&script).unwrap();
        assert_eq!(log.len(), log2.len());
        for (a, b) in log.snapshot().iter().zip(log2.snapshot()) {
            assert_eq!(a.executed_at, b.executed_at);
            assert_eq!(a.context, b.context);
            assert_eq!(a.query(), b.query());
        }
    }

    #[test]
    fn database_export_round_trips_contents() {
        let db = load_database_script(DB).unwrap();
        let script = render_database_script(&db);
        let db2 = load_database_script(&script).unwrap();
        // Contents agree at the end state (tids may be renumbered).
        let q = parse_query("SELECT pid, zipcode FROM Patients ORDER BY pid").unwrap();
        let now = Timestamp::from_ymd(2100, 1, 1).unwrap();
        assert_eq!(db.at(now).query(&q).unwrap().rows, db2.at(now).query(&q).unwrap().rows);
        // And at the intermediate version, before the zipcode update.
        let mid = Timestamp::from_ymd(2008, 1, 1).unwrap().plus_seconds(30);
        assert_eq!(db.at(mid).query(&q).unwrap().rows, db2.at(mid).query(&q).unwrap().rows);
    }

    #[test]
    fn export_handles_deletes_and_nulls() {
        let db = load_database_script(
            "@1/1/2008\nCREATE TABLE t (a INT, b TEXT);\nINSERT INTO t VALUES (1, NULL), (2, 'x');\n@2/1/2008\nDELETE FROM t WHERE a = 1;",
        )
        .unwrap();
        let script = render_database_script(&db);
        let db2 = load_database_script(&script).unwrap();
        let q = parse_query("SELECT a FROM t ORDER BY a").unwrap();
        let now = Timestamp::from_ymd(2100, 1, 1).unwrap();
        assert_eq!(db.at(now).query(&q).unwrap().rows, db2.at(now).query(&q).unwrap().rows);
        let early = Timestamp::from_ymd(2008, 1, 1).unwrap().plus_seconds(10);
        assert_eq!(db.at(early).query(&q).unwrap().rows.len(), 2);
        assert_eq!(db2.at(early).query(&q).unwrap().rows.len(), 2);
    }

    #[test]
    fn comments_inside_statements_survive() {
        let db = load_database_script(
            "@1/1/2008\nCREATE TABLE t (a INT); -- trailing comment\nINSERT INTO t VALUES (1);",
        )
        .unwrap();
        assert_eq!(db.table(&Ident::new("t")).unwrap().len(), 1);
    }
}
