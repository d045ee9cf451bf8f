//! B12: durability cost — the PR-4 WAL/checkpoint/recovery tentpole.
//!
//! Two experiments, results written to `BENCH_4.json` at the workspace root:
//!
//! * `append_throughput` — raw WAL append rate under each fsync policy
//!   (`always` pays one fsync per record, `batch` one per
//!   [`BATCH_FSYNC_INTERVAL`] records, `never` none). The record mix is
//!   the service's own: annotated query-log appends.
//! * `recovery_time` — wall-clock to reopen a data directory and rebuild
//!   the full service state ([`Journal::open`] + [`ServiceCore::recovered`])
//!   as the WAL grows, with and without a checkpoint covering the log.
//!   Both grow with the log (the checkpoint stores the logical record
//!   prefix, which recovery still replays), but the checkpointed store
//!   restores the derived state — touch-index footprints, audit batch
//!   states — from the snapshot instead of re-running query planning and
//!   online scoring per record, a severalfold constant-factor win that
//!   widens with audit count.
//!
//! Run `cargo bench -p audex-bench --bench durability` for real
//! measurements or `-- --test` for the CI smoke variant.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use audex_persist::{FsyncPolicy, Journal, WalOptions, WalRecord};
use audex_service::{Json, Request, ServiceConfig, ServiceCore};
use audex_sql::Timestamp;

struct Config {
    appends: usize,
    log_lens: Vec<usize>,
}

fn config(quick: bool) -> Config {
    if quick {
        Config { appends: 200, log_lens: vec![50, 100] }
    } else {
        Config { appends: 5_000, log_lens: vec![250, 500, 1_000, 2_000] }
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("audex-bench-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn log_record(i: usize) -> WalRecord {
    WalRecord::LogAppend {
        ts: Timestamp(1_000 + i as i64),
        user: format!("u-{}", i % 17).into(),
        role: "doctor".into(),
        purpose: "treatment".into(),
        sql: format!("SELECT disease FROM p WHERE zipcode = 'z{}'", i % 5),
    }
}

/// Builds a durable store with a standing audit and `log_len` ingested
/// queries, every one flowing through the journal.
fn build_store(dir: &Path, log_len: usize) -> ServiceCore {
    let (journal, mut recovered) =
        Journal::open(dir, WalOptions { fsync: FsyncPolicy::Never, ..Default::default() })
            .expect("open journal");
    let mut core = ServiceCore::recovered(&mut recovered, ServiceConfig::default())
        .expect("fresh store recovers");
    core.attach_journal(journal);
    let ok = |resp: &Json| assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    ok(&core
        .handle(Request::Dml {
            ts: Timestamp(100),
            sql: "CREATE TABLE p (name CHAR, zipcode CHAR, disease CHAR); \
                  INSERT INTO p VALUES ('jane','z1','flu'), ('reku','z2','diabetic'), \
                  ('lucy','z3','malaria'), ('rob','z4','flu'), ('mira','z0','diabetic');"
                .into(),
        })
        .response);
    ok(&core
        .handle(Request::Register {
            name: "snoop".into(),
            expr: "AUDIT disease FROM p WHERE zipcode='z1'".into(),
            now: Some(Timestamp(1_000_000)),
        })
        .response);
    for i in 0..log_len {
        ok(&core
            .handle(Request::Log {
                ts: Timestamp(1_000 + i as i64),
                user: format!("u-{}", i % 17),
                role: "doctor".into(),
                purpose: "treatment".into(),
                sql: format!("SELECT disease FROM p WHERE zipcode = 'z{}'", i % 5),
            })
            .response);
    }
    core
}

fn time_recovery(dir: &Path) -> (f64, u64) {
    let t = Instant::now();
    let (journal, mut recovered) =
        Journal::open(dir, WalOptions::default()).expect("reopen journal");
    let core = ServiceCore::recovered(&mut recovered, ServiceConfig::default()).expect("recover");
    let secs = t.elapsed().as_secs_f64();
    std::hint::black_box(core.counters().queries_ingested);
    (secs, journal.next_seq())
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    let cfg = config(quick);
    let mut rows = String::new();

    // --- Experiment 1: append throughput vs fsync policy. ---------------
    for policy in [FsyncPolicy::Always, FsyncPolicy::Batch, FsyncPolicy::Never] {
        // `always` pays a real fsync per record; keep its sample small
        // enough to finish while still amortizing.
        let n = if policy == FsyncPolicy::Always { cfg.appends / 10 + 1 } else { cfg.appends };
        let dir = temp_dir(&format!("append-{policy}"));
        let (journal, _) = Journal::open(&dir, WalOptions { fsync: policy, ..Default::default() })
            .expect("open journal");
        let t = Instant::now();
        for i in 0..n {
            journal.append(log_record(i));
        }
        journal.sync().expect("final sync");
        let secs = t.elapsed().as_secs_f64();
        assert!(journal.wedged().is_none(), "journal wedged during bench");
        let jc = journal.counters();
        let rps = if secs > 0.0 { n as f64 / secs } else { 0.0 };
        println!(
            "append_throughput fsync={policy} records={n} secs={secs:.4} rps={rps:.0} \
             fsyncs={} bytes={}",
            jc.fsyncs, jc.bytes_written
        );
        let _ = writeln!(
            rows,
            "    {{\"experiment\": \"append_throughput\", \"fsync\": \"{policy}\", \
             \"records\": {n}, \"secs\": {secs:.6}, \"records_per_sec\": {rps:.1}, \
             \"fsyncs\": {}, \"bytes_written\": {}}},",
            jc.fsyncs, jc.bytes_written
        );
        drop(journal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // --- Experiment 2: recovery time vs log length, ± checkpoint. -------
    let mut bare_secs = Vec::new();
    let mut ckpt_secs = Vec::new();
    for &log_len in &cfg.log_lens {
        // Bare WAL: every record replays through full ingest on recovery.
        let dir = temp_dir(&format!("recover-bare-{log_len}"));
        let core = build_store(&dir, log_len);
        drop(core);
        let (bare, records) = time_recovery(&dir);
        let _ = std::fs::remove_dir_all(&dir);

        // Checkpointed: the same store, snapshot taken after ingest.
        let dir = temp_dir(&format!("recover-ckpt-{log_len}"));
        let core = build_store(&dir, log_len);
        core.checkpoint().expect("checkpoint");
        drop(core);
        let (ckpt, _) = time_recovery(&dir);
        let _ = std::fs::remove_dir_all(&dir);

        println!(
            "recovery_time log_len={log_len} wal_records={records} bare_ms={:.2} \
             checkpoint_ms={:.2}",
            bare * 1e3,
            ckpt * 1e3
        );
        let _ = writeln!(
            rows,
            "    {{\"experiment\": \"recovery_time\", \"log_len\": {log_len}, \
             \"wal_records\": {records}, \"bare_wal_ms\": {:.3}, \"checkpoint_ms\": {:.3}}},",
            bare * 1e3,
            ckpt * 1e3
        );
        bare_secs.push(bare);
        ckpt_secs.push(ckpt);
    }

    // Growth across the measured range (the bare-WAL replay should grow
    // with the log; the checkpointed recovery should grow much slower).
    let growth = |v: &[f64]| match (v.first(), v.last()) {
        (Some(&a), Some(&b)) if a > 0.0 => b / a,
        _ => 0.0,
    };
    let bare_growth = growth(&bare_secs);
    let ckpt_growth = growth(&ckpt_secs);

    let rows = rows.trim_end().trim_end_matches(',');
    let json = format!(
        "{{\n  \"bench\": \"durability\",\n  \"mode\": \"{}\",\n  \
         \"bare_wal_recovery_growth\": {bare_growth:.3},\n  \
         \"checkpoint_recovery_growth\": {ckpt_growth:.3},\n  \"rows\": [\n{rows}\n  ]\n}}\n",
        if quick { "quick" } else { "full" }
    );
    audex_bench::write_report("BENCH_4.json", quick, &json);
    println!(
        "recovery growth over a {}x log range: bare WAL {bare_growth:.2}x, \
         with checkpoint {ckpt_growth:.2}x",
        cfg.log_lens.last().unwrap_or(&1) / cfg.log_lens.first().unwrap_or(&1)
    );
}
