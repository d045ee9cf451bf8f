//! Robustness: every failure mode of the audit pipeline must surface as a
//! structured, well-worded error — never a panic, never a hang, never a
//! half-applied statement — and one bad expression must not take down a
//! batch.

use audex::core::{AuditEngine, AuditError, EngineOptions, ResourceLimits};
use audex::sql::ast::{AuditExpr, TimeInterval, TsSpec};
use audex::sql::parse_audit;
use audex::storage::{FaultPlan, StorageError};
use audex::workload::{
    generate_hospital, generate_queries, load_log, standard_audit_text, HospitalConfig,
    QueryMixConfig,
};
use audex::Timestamp;
use std::time::{Duration, Instant};

fn all_time(mut e: AuditExpr) -> AuditExpr {
    let iv = TimeInterval { start: TsSpec::At(Timestamp(0)), end: TsSpec::Now };
    e.during = Some(iv);
    e.data_interval = Some(iv);
    e
}

fn hospital() -> (audex::storage::Database, audex::QueryLog) {
    let hospital = HospitalConfig { patients: 60, zip_zones: 4, diseases: 4, seed: 11 };
    let db = generate_hospital(&hospital, Timestamp(0));
    let mix =
        QueryMixConfig { queries: 30, suspicious_rate: 0.2, start: Timestamp(1_000), seed: 12 };
    let (log, _) = load_log(&generate_queries(&hospital, &mix));
    (db, log)
}

#[test]
fn unknown_table_is_a_structured_error() {
    let (db, log) = hospital();
    let engine = AuditEngine::new(&db, &log);
    let expr = all_time(parse_audit("AUDIT x FROM NoSuchTable").unwrap());
    let err = engine.audit_at(&expr, Timestamp(1_000_000)).unwrap_err();
    assert!(matches!(err, AuditError::UnknownTable(_)), "{err:?}");
    assert!(err.to_string().contains("unknown table NoSuchTable"), "{err}");
}

#[test]
fn empty_interval_is_a_structured_error() {
    let (db, log) = hospital();
    let engine = AuditEngine::new(&db, &log);
    let mut expr = parse_audit("AUDIT zipcode FROM Patients").unwrap();
    let iv = TimeInterval { start: TsSpec::At(Timestamp(100)), end: TsSpec::At(Timestamp(10)) };
    expr.during = Some(iv);
    expr.data_interval = Some(iv);
    let err = engine.audit_at(&expr, Timestamp(1_000_000)).unwrap_err();
    assert!(matches!(err, AuditError::EmptyInterval { .. }), "{err:?}");
    assert!(err.to_string().contains("start"), "{err}");
}

#[test]
fn granule_cap_refuses_oversized_audits() {
    let (db, log) = hospital();
    let engine = AuditEngine::with_options(
        &db,
        &log,
        EngineOptions {
            limits: ResourceLimits { granule_limit: Some(1), ..ResourceLimits::unlimited() },
            ..Default::default()
        },
    );
    let expr = all_time(parse_audit(&standard_audit_text()).unwrap());
    let err = engine.audit_at(&expr, Timestamp(1_000_000)).unwrap_err();
    match err {
        AuditError::GranuleSetTooLarge { count, limit } => {
            assert!(count > 1);
            assert_eq!(limit, 1);
        }
        other => panic!("expected GranuleSetTooLarge, got {other:?}"),
    }
}

#[test]
fn step_budget_trips_with_phase_and_progress() {
    let (db, log) = hospital();
    let engine = AuditEngine::with_options(
        &db,
        &log,
        EngineOptions {
            limits: ResourceLimits { max_steps: Some(5), ..ResourceLimits::unlimited() },
            ..Default::default()
        },
    );
    let expr = all_time(parse_audit(&standard_audit_text()).unwrap());
    let err = engine.audit_at(&expr, Timestamp(1_000_000)).unwrap_err();
    match &err {
        AuditError::BudgetExhausted { steps, limit, .. } => {
            assert_eq!(*limit, 5);
            assert!(*steps > 5, "progress is reported: {steps}");
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("step budget of 5"), "{msg}");
    assert!(msg.contains("steps completed"), "{msg}");
}

#[test]
fn cancellation_stops_the_audit() {
    let (db, log) = hospital();
    let engine = AuditEngine::new(&db, &log);
    engine.cancel_handle().store(true, std::sync::atomic::Ordering::Relaxed);
    let expr = all_time(parse_audit(&standard_audit_text()).unwrap());
    let err = engine.audit_at(&expr, Timestamp(1_000_000)).unwrap_err();
    assert!(matches!(err, AuditError::Cancelled { .. }), "{err:?}");
    assert!(err.to_string().contains("cancelled"), "{err}");
}

#[test]
fn step_budget_trips_inside_worker_threads() {
    // With 4 workers, the budget check fires on whichever worker crosses the
    // shared atomic counter first; the surfaced error must be the same
    // structured BudgetExhausted — phase plus aggregated step count across
    // all workers — that the sequential path produces.
    let (db, log) = hospital();
    let engine = AuditEngine::with_options(
        &db,
        &log,
        EngineOptions {
            parallelism: 4,
            limits: ResourceLimits { max_steps: Some(5), ..ResourceLimits::unlimited() },
            ..Default::default()
        },
    );
    let expr = all_time(parse_audit(&standard_audit_text()).unwrap());
    let err = engine.audit_at(&expr, Timestamp(1_000_000)).unwrap_err();
    match &err {
        AuditError::BudgetExhausted { steps, limit, .. } => {
            assert_eq!(*limit, 5);
            assert!(*steps > 5, "aggregated progress is reported: {steps}");
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    assert!(err.to_string().contains("steps completed"), "{err}");
}

#[test]
fn cancellation_reaches_worker_threads() {
    // The engine-level cancel flag is shared by every worker's governor
    // clone; pre-set, any thread observes it at its next check and the
    // audit stops with a structured Cancelled error naming the phase.
    let (db, log) = hospital();
    let engine = AuditEngine::with_options(
        &db,
        &log,
        EngineOptions { parallelism: 4, ..Default::default() },
    );
    engine.cancel_handle().store(true, std::sync::atomic::Ordering::Relaxed);
    let expr = all_time(parse_audit(&standard_audit_text()).unwrap());
    let err = engine.audit_at(&expr, Timestamp(1_000_000)).unwrap_err();
    match &err {
        AuditError::Cancelled { phase: _, steps } => {
            assert!(*steps > 0, "work completed before the flag was seen: {steps}");
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert!(err.to_string().contains("cancelled"), "{err}");
}

#[test]
fn parallel_audit_many_keeps_failure_isolation() {
    // The audit_many fan-out across workers must keep per-expression Results
    // in expression order, with the bad one failing alone.
    let (db, log) = hospital();
    let engine = AuditEngine::with_options(
        &db,
        &log,
        EngineOptions { parallelism: 4, ..Default::default() },
    );
    let exprs = vec![
        all_time(parse_audit(&standard_audit_text()).unwrap()),
        all_time(parse_audit("AUDIT x FROM NoSuchTable").unwrap()),
        all_time(parse_audit("AUDIT age FROM Patients WHERE age > 60").unwrap()),
    ];
    let many = engine.audit_many(&exprs, Timestamp(1_000_000)).unwrap();
    assert_eq!(many.len(), 3);
    assert!(many[0].is_ok(), "{:?}", many[0]);
    assert!(matches!(many[1], Err(AuditError::UnknownTable(_))), "{:?}", many[1]);
    assert!(many[2].is_ok(), "{:?}", many[2]);
}

#[test]
fn pathological_cross_product_respects_the_deadline() {
    // A cross-product FROM over every data version: unbounded, this grinds
    // through millions of row steps. Governed, it must come back quickly
    // with a deadline error naming the phase and the progress made.
    let config = HospitalConfig { patients: 150, zip_zones: 3, diseases: 5, seed: 21 };
    let db = generate_hospital(&config, Timestamp(0));
    let mix =
        QueryMixConfig { queries: 40, suspicious_rate: 0.2, start: Timestamp(1_000), seed: 22 };
    let (log, _) = load_log(&generate_queries(&config, &mix));

    let deadline = Duration::from_millis(100);
    let engine = AuditEngine::with_options(
        &db,
        &log,
        EngineOptions {
            limits: ResourceLimits { deadline: Some(deadline), ..ResourceLimits::unlimited() },
            ..Default::default()
        },
    );
    let expr = all_time(parse_audit("AUDIT name FROM Patients, Health").unwrap());
    let started = Instant::now();
    let err = engine.audit_at(&expr, Timestamp(1_000_000)).unwrap_err();
    let elapsed = started.elapsed();
    match &err {
        AuditError::DeadlineExceeded { steps, deadline_ms, .. } => {
            assert_eq!(*deadline_ms, 100);
            assert!(*steps > 0, "progress is reported");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // The governor checks at loop heads, so overshoot is bounded by one
    // uninterruptible unit of work (a single version's query), not by the
    // total workload. Allow generous slack for slow CI machines — the point
    // is seconds, not minutes.
    assert!(elapsed < deadline * 20, "returned in {elapsed:?} against a {deadline:?} deadline");
    let msg = err.to_string();
    assert!(msg.contains("deadline of 100 ms"), "{msg}");
}

#[test]
fn audit_many_isolates_a_failing_expression() {
    let (db, log) = hospital();
    let engine = AuditEngine::new(&db, &log);
    let exprs = vec![
        all_time(parse_audit(&standard_audit_text()).unwrap()),
        all_time(parse_audit("AUDIT x FROM NoSuchTable").unwrap()),
        all_time(parse_audit("AUDIT age FROM Patients WHERE age > 60").unwrap()),
    ];
    let many = engine.audit_many(&exprs, Timestamp(1_000_000)).unwrap();
    assert_eq!(many.len(), 3);
    assert!(many[0].is_ok(), "{:?}", many[0]);
    assert!(
        matches!(many[1], Err(AuditError::UnknownTable(_))),
        "the bad expression fails alone: {:?}",
        many[1]
    );
    assert!(many[2].is_ok(), "{:?}", many[2]);

    // The healthy reports are exactly what individual audits produce.
    for i in [0usize, 2] {
        let single = engine.audit_at(&exprs[i], Timestamp(1_000_000)).unwrap();
        let batched = many[i].as_ref().unwrap();
        assert_eq!(batched.verdict.suspicious, single.verdict.suspicious);
        assert_eq!(batched.verdict.contributing, single.verdict.contributing);
    }
}

#[test]
fn injected_storage_fault_propagates_cleanly_through_the_pipeline() {
    let (mut db, log) = hospital();
    db.arm_faults(FaultPlan::new().fail_all_scans("Patients"));
    let engine = AuditEngine::new(&db, &log);
    let expr = all_time(parse_audit(&standard_audit_text()).unwrap());
    let err = engine.audit_at(&expr, Timestamp(1_000_000)).unwrap_err();
    match &err {
        AuditError::Storage(StorageError::Injected { site }) => {
            assert!(site.contains("Patients"), "{site}");
        }
        other => panic!("expected an injected storage fault, got {other:?}"),
    }
    assert!(err.to_string().contains("injected storage fault"), "{err}");
}

#[test]
fn injected_fault_mid_batch_spares_the_other_expressions() {
    use audex::sql::ast::TypeName;
    use audex::sql::Ident;
    use audex::storage::Schema;

    let (mut db, log) = hospital();
    // A second table that only the second expression touches; take it down.
    let last = db.last_ts();
    db.create_table(
        Ident::new("Billing"),
        Schema::of(&[("pid", TypeName::Text), ("amount", TypeName::Int)]),
        last,
    )
    .unwrap();
    db.insert(&Ident::new("Billing"), vec!["p1".into(), audex::storage::Value::Int(10)], last)
        .unwrap();
    db.arm_faults(FaultPlan::new().fail_all_scans("Billing"));

    let engine = AuditEngine::new(&db, &log);
    let exprs = vec![
        all_time(parse_audit(&standard_audit_text()).unwrap()),
        all_time(parse_audit("AUDIT amount FROM Billing").unwrap()),
    ];
    let many = engine.audit_many(&exprs, Timestamp(1_000_000)).unwrap();
    assert!(many[0].is_ok(), "healthy expression unaffected: {:?}", many[0]);
    assert!(
        matches!(many[1], Err(AuditError::Storage(StorageError::Injected { .. }))),
        "faulted expression fails alone: {:?}",
        many[1]
    );
}

#[test]
fn backlog_cutoff_fails_historical_audits_only() {
    let (mut db, log) = hospital();
    // Give the database some history, so an all-time audit must replay
    // intermediate versions (the generator writes everything at one instant).
    for (ts, stmt) in [
        (500, "UPDATE Patients SET address = 'moved-1'"),
        (600, "UPDATE Patients SET address = 'moved-2'"),
    ] {
        db.execute(&audex::sql::parse_statement(stmt).unwrap(), Timestamp(ts)).unwrap();
    }
    // Truncate the backlog after t=100: the version at 500 needs a replay
    // past the cutoff (600 is the live state and needs none).
    db.arm_faults(FaultPlan::new().fail_all_backlogs_past(Timestamp(100)));
    let engine = AuditEngine::new(&db, &log);
    let expr = all_time(parse_audit(&standard_audit_text()).unwrap());
    let err = engine.audit_at(&expr, Timestamp(1_000_000)).unwrap_err();
    assert!(
        matches!(err, AuditError::Storage(StorageError::Injected { .. })),
        "all-time audit replays past the cutoff: {err:?}"
    );
}

/// The service serves the database it is handed — armed fault plan included
/// — rather than substituting one of its own.
#[test]
fn service_core_keeps_the_database_it_is_handed() {
    use audex::service::{Json, Request, ServiceConfig, ServiceCore};

    let mut db = audex::storage::Database::new();
    db.arm_faults(FaultPlan::new().fail_all_scans("t"));
    let mut core = ServiceCore::new(db, ServiceConfig::default());
    let mut dml = |ts, sql: &str| core.handle(Request::Dml { ts, sql: sql.into() }).response;
    let r = dml(Timestamp(1), "CREATE TABLE t (a INT)");
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
    let r = dml(Timestamp(2), "INSERT INTO t VALUES (1)");
    assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{r}");
    let error = r.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("injected storage fault"), "{error}");
}

// ---------------------------------------------------------------------------
// The `audex` binary: messages on stderr, exit codes that scripts can trust.
// ---------------------------------------------------------------------------

fn write_fixture(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("audex-robustness-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

fn run_audex(args: &[&str]) -> (std::process::ExitStatus, String, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_audex"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status,
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

const DB_SCRIPT: &str = "\
@1/1/2008
CREATE TABLE Patients (pid TEXT, zipcode TEXT, disease TEXT);
INSERT INTO Patients VALUES ('p1', '120016', 'cancer'), ('p2', '145568', 'flu');
";

const LOG_SCRIPT: &str = "\
@2/1/2008 user=u1 role=nurse purpose=treatment
SELECT zipcode FROM Patients WHERE disease = 'cancer';
";

#[test]
fn binary_reports_structured_errors_with_nonzero_exit() {
    let db = write_fixture("db.sql", DB_SCRIPT);
    let log = write_fixture("log.txt", LOG_SCRIPT);
    let db = db.to_str().unwrap();
    let log = log.to_str().unwrap();
    let base = ["audit", "--db", db, "--log", log];

    // Healthy run: exit 0, report on stdout.
    let (status, stdout, _) = run_audex(
        &[
            &base[..],
            &[
                "--expr",
                "DURING 1/1/2008 TO now() AUDIT disease FROM Patients WHERE zipcode='120016'",
            ],
        ]
        .concat(),
    );
    assert!(status.success());
    assert!(stdout.contains("AUDIT REPORT"), "{stdout}");

    // Unknown table: structured message, exit 1.
    let (status, _, stderr) = run_audex(&[&base[..], &["--expr", "AUDIT x FROM NoSuch"]].concat());
    assert_eq!(status.code(), Some(1));
    assert!(stderr.contains("error:"), "{stderr}");
    assert!(stderr.contains("unknown table NoSuch"), "{stderr}");

    // Step budget: names the phase and the budget.
    let (status, _, stderr) = run_audex(
        &[
            &base[..],
            &["--expr", "DURING 1/1/2008 TO now() AUDIT disease FROM Patients", "--max-steps", "1"],
        ]
        .concat(),
    );
    assert_eq!(status.code(), Some(1));
    assert!(stderr.contains("step budget of 1"), "{stderr}");

    // Zero deadline: trips immediately, still a clean message.
    let (status, _, stderr) = run_audex(
        &[
            &base[..],
            &[
                "--expr",
                "DURING 1/1/2008 TO now() AUDIT disease FROM Patients",
                "--deadline-ms",
                "0",
            ],
        ]
        .concat(),
    );
    assert_eq!(status.code(), Some(1));
    assert!(stderr.contains("deadline of 0 ms"), "{stderr}");

    // Granule cap.
    let (status, _, stderr) = run_audex(
        &[
            &base[..],
            &[
                "--expr",
                "DURING 1/1/2008 TO now() AUDIT disease FROM Patients",
                "--max-granules",
                "1",
            ],
        ]
        .concat(),
    );
    assert_eq!(status.code(), Some(1));
    assert!(stderr.contains("granule set"), "{stderr}");

    // Unknown flag.
    let (status, _, stderr) = run_audex(&[&base[..], &["--frobnicate"]].concat());
    assert_eq!(status.code(), Some(1));
    assert!(stderr.contains("unknown option"), "{stderr}");

    std::fs::remove_file(db).ok();
    std::fs::remove_file(log).ok();
}

/// Without `--now`, `now()` is the later of the last database change and
/// the last logged query: a query logged after the data last changed is
/// inside `DURING … TO now()`, exactly as with an explicit later `--now`.
#[test]
fn audit_now_defaults_to_the_last_logged_query() {
    let db = write_fixture("now-db.sql", DB_SCRIPT);
    let log = write_fixture(
        "now-log.txt",
        "@3/1/2008 user=u1 role=nurse purpose=treatment\n\
         SELECT zipcode FROM Patients WHERE disease = 'cancer';\n",
    );
    let base = ["audit", "--db", db.to_str().unwrap(), "--log", log.to_str().unwrap()];
    let expr = ["--expr", "DURING 1/1/2008 TO now() AUDIT disease FROM Patients"];
    let reports = [&[][..], &["--now", "4/1/2008"]].map(|extra| {
        let (status, stdout, stderr) = run_audex(&[&base[..], &expr, extra].concat());
        assert!(status.success(), "{extra:?}: {stderr}");
        assert!(stdout.contains("1 admitted"), "{extra:?}: {stdout}");
        assert!(stdout.contains("SUSPICIOUS — 1/2"), "{extra:?}: {stdout}");
        stdout
    });
    assert_eq!(reports[0], reports[1]);
    std::fs::remove_file(db).ok();
    std::fs::remove_file(log).ok();
}

/// The engine- and dispatch-selection flags and the worker-thread count are
/// gone, not hidden: `serve` and `audit` refuse each by name.
#[test]
fn serve_rejects_the_removed_mode_flags_by_name() {
    for (args, flag) in [
        (&["serve", "--stdio", "--storage", "replay"][..], "--storage"),
        (&["serve", "--stdio", "--scan-all-audits"], "--scan-all-audits"),
        (&["serve", "--stdio", "--threads", "2"], "--threads"),
        (&["audit", "--threads", "2"], "--threads"),
    ] {
        let (status, _, stderr) = run_audex(args);
        assert_eq!(status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("unknown option {flag:?}")), "{stderr}");
    }
}

#[test]
fn serve_reports_bad_option_values_verbatim() {
    let (status, _, stderr) = run_audex(&["serve", "--stdio", "--max-conns", "x"]);
    assert_eq!(status.code(), Some(1), "{stderr}");
    assert_eq!(stderr, "error: invalid --max-conns value \"x\"\n");
}

// ---------------------------------------------------------------------------
// Telemetry on the error path: every span that opened must close — present
// in the trace with a duration — and the interrupted ones must say so.
// ---------------------------------------------------------------------------

mod telemetry {
    use super::*;
    use audex::core::EngineObs;
    use audex::obs::{Registry, Tracer};
    use std::sync::Arc;

    #[test]
    fn spans_close_truncated_when_the_governor_trips() {
        let (db, log) = hospital();
        let registry = Registry::new();
        let tracer = Tracer::new();
        let engine = AuditEngine::with_options(
            &db,
            &log,
            EngineOptions {
                parallelism: 4,
                limits: ResourceLimits { max_steps: Some(5), ..ResourceLimits::unlimited() },
                ..Default::default()
            },
        )
        .with_obs(EngineObs::new(Arc::clone(&registry), Arc::clone(&tracer)));
        let expr = all_time(parse_audit(&standard_audit_text()).unwrap());
        let err = engine.audit_at(&expr, Timestamp(1_000_000)).unwrap_err();
        assert!(matches!(err, AuditError::BudgetExhausted { .. }), "{err:?}");

        // `take_events` returns only *closed* spans: the enclosing audit
        // span survived the error path and is flagged, as is whichever
        // inner phase the governor interrupted.
        let events = tracer.take_events();
        let audit: Vec<_> = events.iter().filter(|e| e.name == "audit").collect();
        assert_eq!(audit.len(), 1, "{events:?}");
        assert!(audit[0].truncated, "{events:?}");
        assert!(events.iter().any(|e| e.name != "audit" && e.truncated), "{events:?}");

        // The phase histogram recorded the interrupted run too.
        let text = registry.render_prometheus();
        assert!(text.contains(r#"audex_audit_phase_seconds_bucket{phase="audit""#), "{text}");
    }

    #[test]
    fn spans_close_truncated_on_injected_storage_faults() {
        let (mut db, log) = hospital();
        db.arm_faults(FaultPlan::new().fail_all_scans("Patients"));
        let registry = Registry::new();
        let tracer = Tracer::new();
        let engine = AuditEngine::new(&db, &log)
            .with_obs(EngineObs::new(Arc::clone(&registry), Arc::clone(&tracer)));
        let expr = all_time(parse_audit(&standard_audit_text()).unwrap());
        let err = engine.audit_at(&expr, Timestamp(1_000_000)).unwrap_err();
        assert!(matches!(err, AuditError::Storage(StorageError::Injected { .. })), "{err:?}");

        let events = tracer.take_events();
        assert!(events.iter().any(|e| e.name == "audit" && e.truncated), "{events:?}");
        assert!(events.iter().any(|e| e.name == "target-view" && e.truncated), "{events:?}");
    }

    #[test]
    fn one_failing_worker_truncates_only_its_own_span() {
        use audex::sql::ast::TypeName;
        use audex::sql::Ident;
        use audex::storage::Schema;

        // A second table that only the second expression touches; take it
        // down so that worker fails mid-phase while the others succeed.
        let (mut db, log) = hospital();
        let last = db.last_ts();
        db.create_table(
            Ident::new("Billing"),
            Schema::of(&[("pid", TypeName::Text), ("amount", TypeName::Int)]),
            last,
        )
        .unwrap();
        db.insert(&Ident::new("Billing"), vec!["p1".into(), audex::storage::Value::Int(10)], last)
            .unwrap();
        db.arm_faults(FaultPlan::new().fail_all_scans("Billing"));

        let registry = Registry::new();
        let tracer = Tracer::new();
        let engine = AuditEngine::with_options(
            &db,
            &log,
            EngineOptions { parallelism: 4, ..Default::default() },
        )
        .with_obs(EngineObs::new(Arc::clone(&registry), Arc::clone(&tracer)));
        let exprs = vec![
            all_time(parse_audit(&standard_audit_text()).unwrap()),
            all_time(parse_audit("AUDIT amount FROM Billing").unwrap()),
            all_time(parse_audit("AUDIT age FROM Patients WHERE age > 60").unwrap()),
        ];
        let many = engine.audit_many(&exprs, Timestamp(1_000_000)).unwrap();
        assert!(many[0].is_ok() && many[2].is_ok(), "{many:?}");
        assert!(
            matches!(many[1], Err(AuditError::Storage(StorageError::Injected { .. }))),
            "{:?}",
            many[1]
        );

        // The shared index build finished clean; the healthy expressions
        // closed their evaluation spans untruncated; the faulted worker
        // closed its target-view span with the truncated mark — failure
        // isolation holds for the trace as well.
        let events = tracer.take_events();
        assert!(events.iter().any(|e| e.name == "index-build" && !e.truncated), "{events:?}");
        let per_expr: Vec<_> = events.iter().filter(|e| e.name == "index-audit").collect();
        assert_eq!(per_expr.len(), 2, "{events:?}");
        assert!(per_expr.iter().all(|e| !e.truncated), "{events:?}");
        let truncated: Vec<_> = events.iter().filter(|e| e.truncated).collect();
        assert_eq!(truncated.len(), 1, "{events:?}");
        assert_eq!(truncated[0].name, "target-view", "{events:?}");
    }
}
