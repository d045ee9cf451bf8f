//! Recovery differential and golden journal bytes.
//!
//! A logged query's footprint, scores, triage item and event count depend
//! only on the entry and the backlog at its instant, so a core rebuilt from
//! its journal must answer exactly like the live core that wrote it —
//! whether the records come back through a checkpoint (with or without its
//! version-store snapshot) or through WAL-tail replay, raw or redacted.
//!
//! * `recovered_core_answers_like_the_live_core` drives random sessions
//!   through a journaled core and compares the recovered core's `queue`
//!   pages, `triage`, `stats` and `audit` replies with the live ones. The
//!   `stats` fields recovery cannot rebuild are stripped by name (see
//!   [`strip`]); that list *is* the divergence set.
//! * `preloaded_equals_streamed` holds `ServiceCore::preloaded` to the
//!   same entries sent one by one as `log` requests.
//! * `journal_bytes_are_pinned` hashes the WAL and checkpoint files a fixed
//!   session leaves behind, covering all ten record tags.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use audex_persist::{FsyncPolicy, Journal, WalOptions, WalRecord};
use audex_service::{Json, Request, ServiceConfig, ServiceCore};
use audex_sql::Timestamp;
use audex_storage::Database;
use proptest::prelude::*;

const SCHEMA: &str = "CREATE TABLE P (pid TEXT, zip TEXT, disease TEXT); \
                      CREATE TABLE E (pid TEXT, salary INT); \
                      INSERT INTO P VALUES ('p1', 'z1', 'flu'), ('p2', 'z2', 'cancer'); \
                      INSERT INTO E VALUES ('p1', 100), ('p2', 200);";

/// DML scripts; the fifth fails on its second statement.
const DML: [&str; 6] = [
    "INSERT INTO P VALUES ('p3', 'z1', 'flu')",
    "INSERT INTO P VALUES ('p4', 'z2', 'cancer'), ('p5', 'z1', 'cold')",
    "UPDATE P SET disease = 'measles' WHERE pid = 'p1'",
    "DELETE FROM E WHERE salary > 150",
    "INSERT INTO E VALUES ('p3', 300); INSERT INTO Nope VALUES ('x')",
    "UPDATE P SET zip = 'z2' WHERE disease = 'flu'; INSERT INTO E VALUES ('p4', 50)",
];

const QUERIES: [&str; 6] = [
    "SELECT disease FROM P WHERE zip = 'z1'",
    "SELECT pid FROM P",
    "SELECT salary FROM E WHERE salary > 150",
    "SELECT P.disease, E.salary FROM P, E WHERE P.pid = E.pid",
    "SELECT disease FROM P WHERE pid = 'p2'",
    "SELECT zip FROM P WHERE disease = 'cancer'",
];

/// Every expression admits every logged query (`DURING` spans all time),
/// so each tail-replayed redacted entry must show up under `skipped`.
const AUDITS: [&str; 3] = [
    "AUDIT disease FROM P WHERE zip = 'z1'",
    "AUDIT salary FROM E WHERE salary > 150",
    "AUDIT pid FROM P WHERE disease = 'cancer'",
];

const NAMES: [&str; 3] = ["a", "b", "c"];

fn audit_expr(i: usize) -> String {
    format!(
        "DURING 1/1/1970 TO 1/1/2100 DATA-INTERVAL 1/1/1970 TO 1/1/2100 {}",
        AUDITS[i % AUDITS.len()]
    )
}

fn log(ts: i64, who: usize, sql: &str) -> Request {
    Request::Log {
        ts: Timestamp(ts),
        user: format!("u{}", who % 3),
        role: ["nurse", "clerk"][who % 2].into(),
        purpose: ["treatment", "billing"][(who / 2) % 2].into(),
        sql: sql.into(),
    }
}

/// Turns raw draws `(kind, a, b)` into a request session over [`SCHEMA`]
/// with a non-decreasing clock.
fn session(ops: &[(u8, usize, usize)]) -> Vec<Request> {
    let mut clock = 1_000_000i64;
    let mut last_log: Option<i64> = None;
    let mut out = vec![Request::Dml { ts: Timestamp(clock), sql: SCHEMA.into() }];
    for &(kind, a, b) in ops {
        clock += 10 + 7 * b as i64;
        let req = match kind {
            0..=14 => Request::Dml { ts: Timestamp(clock), sql: DML[a % DML.len()].into() },
            15..=52 => {
                last_log = Some(clock);
                log(clock, b, QUERIES[a % QUERIES.len()])
            }
            53..=55 => log(clock, b, "SELEC nothing FROM"),
            // Behind the newest entry (rejected), or at an instant before
            // the schema exists when the log is still empty (accepted).
            56..=58 => {
                let ts = last_log.map_or(1, |t| t - 1);
                if last_log.is_none() {
                    last_log = Some(ts);
                }
                log(ts, b, QUERIES[a % QUERIES.len()])
            }
            59..=62 => {
                last_log = Some(clock);
                log(clock, b, "SELECT x FROM Ghost")
            }
            63..=72 => Request::Register {
                name: NAMES[a % NAMES.len()].into(),
                expr: audit_expr(b),
                now: (b % 2 == 0).then_some(Timestamp(3_000_000_000)),
            },
            73..=76 => Request::Unregister { name: NAMES[a % NAMES.len()].into() },
            77..=84 => Request::Ack { query: (a % 12) as u64 + 1 },
            85..=89 => Request::Dismiss { query: (a % 12) as u64 + 1 },
            90..=93 => Request::AckTemplate { template: (a % 3) as u64 },
            _ => Request::Weight {
                table: ["P", "E"][a % 2].into(),
                column: [None, Some("disease"), Some("salary"), Some("pid")][b % 4]
                    .map(String::from),
                weight: [0.5, 2.0, 3.0][a % 3],
            },
        };
        out.push(req);
    }
    out
}

fn temp_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "audex-proptest-recovery-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Everything a reader can ask a core without mutating it, in the order
/// compared. `stats` is read first: a failed `audit` counts as rejected.
struct Answers {
    stats: Json,
    queue: Vec<String>,
    triage: String,
    audits: Vec<Json>,
}

fn answers(core: &mut ServiceCore) -> Answers {
    let stats = core.handle(Request::Stats).response;
    let mut queue = vec![core.handle(Request::Queue { top: None, offset: 0 }).response.to_string()];
    let mut offset = 0;
    loop {
        let page = core.handle(Request::Queue { top: Some(3), offset }).response;
        let empty = page.get("items").and_then(Json::as_arr).is_none_or(<[Json]>::is_empty);
        queue.push(page.to_string());
        if empty {
            break;
        }
        offset += 3;
    }
    let triage = core.handle(Request::Triage).response.to_string();
    let audits = NAMES
        .iter()
        .map(|n| core.handle(Request::Audit { name: n.to_string() }).response)
        .collect();
    Answers { stats, queue, triage, audits }
}

/// `stats` minus what recovery does not rebuild: journal and snapshot-cache
/// telemetry, dispatch probe counts (a checkpoint restores audit states
/// without re-observing its queries), MVCC scan counters (prefix replay and
/// restored snapshots re-execute nothing), the counters fed only by requests
/// the WAL never sees (`queries_rejected`, `governor_trips`),
/// `dml_statements` when DML ran past the newest checkpoint (statement
/// boundaries are not journaled, so the tail counts change records), and
/// `index_len` / `index_skipped` when the tail replays redacted appends
/// (their footprints cannot be re-derived, so the index skips them).
fn strip(stats: &Json, dml_past_checkpoint: bool, tail_redacted: bool) -> String {
    let Json::Obj(fields) = stats else { return stats.to_string() };
    Json::Obj(
        fields
            .iter()
            .filter(|(k, _)| {
                !k.starts_with("journal_")
                    && !k.starts_with("snapshot_")
                    && !k.starts_with("dispatch_")
                    && k != "mvcc_visibility_probes"
                    && k != "mvcc_versions_examined"
                    && k != "queries_rejected"
                    && k != "governor_trips"
                    && (!dml_past_checkpoint || k != "dml_statements")
                    && (!tail_redacted || (k != "index_len" && k != "index_skipped"))
            })
            .cloned()
            .collect(),
    )
    .to_string()
}

#[derive(Debug, Clone, Copy)]
enum Checkpoints {
    None,
    /// One explicit `checkpoint()` after this many requests.
    At(usize),
    /// `checkpoint_every: Some(7)`.
    Every7,
}

fn ids(j: &Json, key: &str) -> BTreeSet<i64> {
    j.get(key).and_then(Json::as_arr).unwrap_or(&[]).iter().filter_map(Json::as_int).collect()
}

/// One live run plus its recovery; `Err` names the first difference.
fn differential(
    reqs: &[Request],
    redact_log: bool,
    checkpoints: Checkpoints,
    strip_db: bool,
) -> Result<(), String> {
    let dir = temp_dir();
    let config = ServiceConfig {
        redact_log,
        checkpoint_every: matches!(checkpoints, Checkpoints::Every7).then_some(7),
        ..ServiceConfig::default()
    };
    let wal = WalOptions { fsync: FsyncPolicy::Never, segment_max_bytes: 4 * 1024 * 1024 };
    let (journal, _) = Journal::open(&dir, wal).map_err(|e| e.to_string())?;
    let mut live = ServiceCore::new(Database::new(), config);
    live.attach_journal(journal);
    let written = |c: &ServiceCore| c.journal().map_or(0, |j| j.counters().checkpoints_written);
    // How many requests the newest checkpoint covers.
    let mut covered = 0;
    for (i, req) in reqs.iter().enumerate() {
        let before = written(&live);
        live.handle(req.clone());
        if matches!(checkpoints, Checkpoints::At(k) if k == i) {
            live.checkpoint().map_err(|e| e.to_string())?;
        }
        if written(&live) > before {
            covered = i + 1;
        }
    }
    let dml_past_checkpoint = reqs[covered..].iter().any(|r| matches!(r, Request::Dml { .. }));
    let want = answers(&mut live);
    drop(live);

    let (_journal, mut recovered) = Journal::open(&dir, wal).map_err(|e| e.to_string())?;
    let prefix_logs = recovered.checkpoint.as_mut().map_or(0, |ck| {
        if strip_db {
            ck.db = None;
        }
        ck.records.iter().filter(|r| is_log(r)).count()
    });
    let redacted: BTreeSet<i64> = recovered
        .tail
        .iter()
        .filter(|r| is_log(r))
        .enumerate()
        .filter(|(_, r)| matches!(r, WalRecord::LogAppendRedacted { .. }))
        .map(|(k, _)| (prefix_logs + k + 1) as i64)
        .collect();
    let mut after = ServiceCore::recovered(&mut recovered, config).map_err(|e| e.to_string())?;
    let got = answers(&mut after);
    let _ = std::fs::remove_dir_all(&dir);

    let axes = format!("redact={redact_log} checkpoints={checkpoints:?} strip_db={strip_db}");
    let stats = |a: &Answers| strip(&a.stats, dml_past_checkpoint, !redacted.is_empty());
    for (what, live, rec) in [
        ("stats", stats(&want), stats(&got)),
        ("queue", want.queue.join("\n"), got.queue.join("\n")),
        ("triage", want.triage, got.triage),
    ] {
        if live != rec {
            return Err(format!("{axes}: {what}\n  live: {live}\n  recovered: {rec}"));
        }
    }
    for (live, rec) in want.audits.iter().zip(&got.audits) {
        let same = live.to_string() == rec.to_string();
        if redacted.is_empty() && !same {
            return Err(format!("{axes}: audit\n  live: {live}\n  recovered: {rec}"));
        }
        if live.get("ok") == Some(&Json::Bool(true)) && !ids(rec, "skipped").is_superset(&redacted)
        {
            return Err(format!("{axes}: redacted {redacted:?} not all skipped in {rec}"));
        }
    }
    Ok(())
}

fn is_log(r: &WalRecord) -> bool {
    matches!(r, WalRecord::LogAppend { .. } | WalRecord::LogAppendRedacted { .. })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn recovered_core_answers_like_the_live_core(
        ops in proptest::collection::vec((0u8..100, 0usize..16, 0usize..16), 20..=60),
        at in 0usize..64,
    ) {
        let reqs = session(&ops);
        let at = Checkpoints::At(at % reqs.len());
        for redact in [false, true] {
            differential(&reqs, redact, Checkpoints::None, false)?;
            for checkpoints in [at, Checkpoints::Every7] {
                for strip_db in [false, true] {
                    differential(&reqs, redact, checkpoints, strip_db)?;
                }
            }
        }
    }

    #[test]
    fn preloaded_equals_streamed(
        entries in proptest::collection::vec((0usize..8, 0usize..4), 1..24),
        expr in 0usize..3,
    ) {
        let db = {
            let mut c = ServiceCore::new(Database::new(), ServiceConfig::default());
            c.handle(Request::Dml { ts: Timestamp(100), sql: SCHEMA.into() });
            c.handle(Request::Dml { ts: Timestamp(150), sql: DML[1].into() });
            c.into_parts().0
        };
        let sql = |q: usize| QUERIES.get(q).copied().unwrap_or("SELECT x FROM Ghost");
        let querylog = audex_log::QueryLog::new();
        let mut streamed = ServiceCore::new(db.clone(), ServiceConfig::default());
        for (i, &(q, who)) in entries.iter().enumerate() {
            let req = log(200 + 10 * i as i64, who, sql(q));
            let Request::Log { ts, user, role, purpose, sql } = req.clone() else { unreachable!() };
            let context = audex_log::AccessContext::new(user, role, purpose);
            querylog.record_text(&sql, ts, context).map_err(|e| e.to_string())?;
            streamed.handle(req);
        }
        let mut preloaded = ServiceCore::preloaded(db, querylog, ServiceConfig::default())
            .map_err(|e| e.to_string())?;
        let register = Request::Register {
            name: "x".into(),
            expr: audit_expr(expr),
            now: Some(Timestamp(3_000_000_000)),
        };
        for core in [&mut streamed, &mut preloaded] {
            core.handle(register.clone());
        }
        let pick = |c: &mut ServiceCore| {
            let s = c.handle(Request::Stats).response;
            let audit = c.handle(Request::Audit { name: "x".into() }).response;
            (
                ["index_len", "index_skipped", "queries_ingested"]
                    .map(|k| s.get(k).and_then(Json::as_int)),
                audit.to_string(),
            )
        };
        prop_assert_eq!(pick(&mut preloaded), pick(&mut streamed));
    }
}

/// FNV-1a over every file in `dir` whose name starts with `prefix`, in name
/// order.
fn files_hash(dir: &Path, prefix: &str) -> u64 {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read store dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with(prefix)))
        .collect();
    names.sort();
    let mut bytes = Vec::new();
    for p in names {
        bytes.extend(std::fs::read(p).expect("read store file"));
    }
    audex_triage::fnv1a64(&bytes)
}

/// A fixed session covering every record tag the service journals; returns
/// the WAL hash before and the checkpoint hash after one `checkpoint()`.
fn golden_session(redact_log: bool) -> (u64, u64) {
    let dir = temp_dir();
    let config = ServiceConfig { redact_log, ..ServiceConfig::default() };
    let wal = WalOptions { fsync: FsyncPolicy::Always, segment_max_bytes: 4 * 1024 * 1024 };
    let (journal, _) = Journal::open(&dir, wal).expect("open journal");
    let mut core = ServiceCore::new(Database::new(), config);
    core.attach_journal(journal);
    let reqs = [
        Request::Dml { ts: Timestamp(100), sql: SCHEMA.into() },
        Request::Register { name: "a".into(), expr: audit_expr(0), now: None },
        Request::Register { name: "b".into(), expr: audit_expr(2), now: Some(Timestamp(9_000)) },
        log(200, 0, QUERIES[0]),
        log(210, 1, QUERIES[0]),
        log(220, 2, QUERIES[5]),
        log(230, 3, "SELECT x FROM Ghost"),
        Request::Dml { ts: Timestamp(300), sql: DML[2].into() },
        log(310, 0, QUERIES[3]),
        Request::Weight { table: "P".into(), column: Some("disease".into()), weight: 2.5 },
        Request::Weight { table: "E".into(), column: None, weight: 0.5 },
        Request::Ack { query: 1 },
        Request::Dismiss { query: 2 },
        Request::AckTemplate { template: 0 },
        Request::Unregister { name: "b".into() },
        log(400, 1, QUERIES[0]),
    ];
    for req in reqs {
        let r = core.handle(req.clone());
        assert_eq!(r.response.get("ok"), Some(&Json::Bool(true)), "{req:?}: {}", r.response);
    }
    // Nine distinct tags: one of `LogAppend` / `LogAppendRedacted`, and
    // every other.
    let tail = audex_persist::read_store(&dir).expect("read store").tail;
    let tags: std::collections::HashSet<_> = tail.iter().map(std::mem::discriminant).collect();
    assert_eq!(tags.len(), 9);
    let redacted = tail.iter().any(|r| matches!(r, WalRecord::LogAppendRedacted { .. }));
    assert_eq!(redacted, redact_log);
    let wal_hash = files_hash(&dir, "wal-");
    core.checkpoint().expect("checkpoint");
    let ckpt_hash = files_hash(&dir, "ckpt-");
    let _ = std::fs::remove_dir_all(&dir);
    (wal_hash, ckpt_hash)
}

/// Who journals a record may move; the bytes may not. Constants computed at
/// the commit before the service took over every non-DML append.
#[test]
fn journal_bytes_are_pinned() {
    let plain = golden_session(false);
    assert_eq!(plain, golden_session(false), "the session itself is deterministic");
    assert_eq!(plain, (0x12af_5fcc_73eb_33f0, 0xc422_82d1_46ac_8c13), "plain WAL / checkpoint");
    assert_eq!(
        golden_session(true),
        (0x51af_7fc2_3eb7_e475, 0x69d6_aded_0fdd_fe15),
        "redacted WAL / checkpoint"
    );
}
