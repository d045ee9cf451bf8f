//! B18: MVCC versioned storage.
//!
//! Two experiments, results written to `BENCH_10.json` at the workspace root
//! (the committed file also carries the replay-engine columns, measured at
//! commit `3b68412` while that engine could still be selected; it now exists
//! only as the `TableHistory` test reference and is no longer timed):
//!
//! * `as_of_reconstruction` — historical reads (`as_of`) against growing
//!   change histories over a fixed tuple population. The version store
//!   answers with a per-tuple visibility probe (binary search down each
//!   tuple's version chain), so its cost tracks the live population, not
//!   the history, at any depth: gated flat (< 1.5x) over an 8x history
//!   range. Every sampled instant is gated in-bench: the relation the read
//!   scanned must be **byte-identical** to
//!   `TableHistory::replay_to(ts).to_relation()` over the same change
//!   log.
//! * `recovery` — wall-clock to reopen a checkpointed 2000-query store
//!   ([`Journal::open`] + [`ServiceCore::recovered`]) whose checkpoint
//!   carries the version-store snapshot. The recovered store must answer
//!   the standing audit byte-identically to its uninterrupted self, and
//!   must beat the 8.184 ms BENCH_4 (PR 4) checkpointed-recovery baseline
//!   for the same 2000-query store by ≥ 2x.
//!
//! Run `cargo bench -p audex-bench --bench mvcc` for real measurements or
//! `-- --test` for the CI smoke variant (smaller sizes, same identity
//! gates; its report goes under `target/`).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use audex_persist::{FsyncPolicy, Journal, WalOptions};
use audex_service::{Json, Request, ServiceConfig, ServiceCore};
use audex_sql::{parse_query, parse_statement, Ident, Timestamp};
use audex_storage::{Database, RelationProvider, TableHistory};

struct Config {
    history_lens: Vec<usize>,
    sample_reads: usize,
    log_lens: Vec<usize>,
    /// Repeat timed sections and keep the fastest, to de-noise CI boxes.
    passes: usize,
}

fn config(quick: bool) -> Config {
    if quick {
        Config { history_lens: vec![50, 100], sample_reads: 16, log_lens: vec![50, 100], passes: 2 }
    } else {
        Config {
            history_lens: vec![96, 192, 384, 768],
            sample_reads: 64,
            log_lens: vec![250, 500, 1_000, 2_000],
            passes: 5,
        }
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("audex-bench-mvcc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fixed 64-tuple population under `history_len` cycling UPDATEs: the
/// live set never grows, only the version history does.
fn build_history(history_len: usize) -> Database {
    let mut db = Database::new();
    db.execute(
        &parse_statement("CREATE TABLE p (pid CHAR, zipcode CHAR, disease CHAR)").unwrap(),
        Timestamp(0),
    )
    .unwrap();
    for i in 0..64 {
        db.execute(
            &parse_statement(&format!("INSERT INTO p VALUES ('p{i}', 'z{}', 'flu')", i % 8))
                .unwrap(),
            Timestamp(1 + i),
        )
        .unwrap();
    }
    for i in 0..history_len {
        db.execute(
            &parse_statement(&format!(
                "UPDATE p SET zipcode = 'z{}' WHERE pid = 'p{}'",
                i % 8,
                i % 64
            ))
            .unwrap(),
            Timestamp(100 + i as i64),
        )
        .unwrap();
    }
    db
}

/// The replay reference over `table`'s change log. (That the log the store
/// hands back is the log that was committed is `proptest_storage`'s job.)
fn replay_reference(db: &Database, table: &Ident) -> TableHistory {
    let schema = db.table(table).expect("table exists").schema().clone();
    let created_at = db.table_created_at(table).expect("table exists");
    let mut history = TableHistory::new(table.clone(), schema, created_at);
    for rec in db.table_changes(table).expect("table exists") {
        history.record(rec).expect("changes are in order");
    }
    history
}

/// Times `reads` historical reconstructions at distinct mid-history
/// instants (distinct instants, so the snapshot cache cannot answer; every
/// read pays reconstruction). Returns `(secs, the instants read)`.
fn time_as_of(db: &Database, history_len: usize, reads: usize) -> (f64, Vec<Timestamp>) {
    let query = parse_query("SELECT pid, zipcode FROM p WHERE zipcode = 'z3'").unwrap();
    // Spread over the back half of the history.
    let instants: Vec<Timestamp> = (0..reads)
        .map(|k| Timestamp(100 + (history_len / 2 + k * (history_len / 2) / reads) as i64))
        .collect();
    let t = Instant::now();
    for ts in &instants {
        std::hint::black_box(db.at(*ts).query(&query).expect("historical read"));
    }
    (t.elapsed().as_secs_f64(), instants)
}

/// Builds a durable store with a standing audit and `log_len` ingested
/// queries over a 200-change table history, checkpoints it, and returns the
/// live audit response (the identity baseline).
fn build_store(dir: &Path, log_len: usize) -> String {
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
    // A real change history, so the snapshot restores more than seed rows.
    for i in 0..200 {
        ok(&core
            .handle(Request::Dml {
                ts: Timestamp(200 + i),
                sql: format!("UPDATE p SET disease = 'd{}' WHERE zipcode = 'z{}'", i % 7, i % 5),
            })
            .response);
    }
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
    core.checkpoint().expect("checkpoint");
    core.handle(Request::Audit { name: "snoop".into() }).response.to_string()
}

/// Reopens `dir` and returns `(recovery secs, audit response)`.
fn time_recovery(dir: &Path) -> (f64, String) {
    let t = Instant::now();
    let (journal, mut recovered) =
        Journal::open(dir, WalOptions::default()).expect("reopen journal");
    let mut core =
        ServiceCore::recovered(&mut recovered, ServiceConfig::default()).expect("recover");
    let secs = t.elapsed().as_secs_f64();
    drop(journal);
    (secs, core.handle(Request::Audit { name: "snoop".into() }).response.to_string())
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    let cfg = config(quick);
    let mut rows = String::new();

    // --- Experiment 1: as_of reconstruction vs history length. ----------
    let p = Ident::new("p");
    let mut as_of_secs = Vec::new();
    for &n in &cfg.history_lens {
        // Short histories support fewer distinct mid-history instants; the
        // metric is per-read, so the counts stay comparable across sizes.
        let reads = cfg.sample_reads.min(n / 2);
        let mut best = f64::MAX;
        for _ in 0..cfg.passes {
            // A fresh store every pass: the snapshot cache would otherwise
            // answer a repeated pass for free.
            let db = build_history(n);
            let (secs, instants) = time_as_of(&db, n, reads);
            // Byte-identity gate, every sampled instant: the relation the
            // timed read reconstructed (now cached) against the replay
            // reference.
            let history = replay_reference(&db, &p);
            for ts in instants {
                assert_eq!(
                    *db.at(ts).relation(&p).expect("historical read"),
                    history.replay_to(ts),
                    "as_of diverged from the replay reference at history {n}, {ts}"
                );
            }
            best = best.min(secs / reads as f64);
        }
        as_of_secs.push(best);
        println!(
            "as_of_reconstruction history={n} reads={reads} mvcc_us_per_read={:.2}",
            best * 1e6
        );
        let _ = writeln!(
            rows,
            "    {{\"experiment\": \"as_of_reconstruction\", \"history\": {n}, \
             \"reads\": {reads}, \"mvcc_us_per_read\": {:.3}}},",
            best * 1e6
        );
    }
    let mvcc_growth = match (as_of_secs.first(), as_of_secs.last()) {
        (Some(&a), Some(&b)) if a > 0.0 => b / a,
        _ => 0.0,
    };
    println!(
        "as_of growth over a {}x history range: {mvcc_growth:.2}x",
        cfg.history_lens.last().unwrap_or(&1) / cfg.history_lens.first().unwrap_or(&1)
    );
    if !quick {
        // The headline claim: the version store's as_of stays flat in
        // history length. The threshold is loose enough for noisy CI boxes
        // and still unambiguous (8x history range).
        assert!(
            mvcc_growth < 1.5,
            "as_of should stay flat over an 8x history range, measured {mvcc_growth:.2}x"
        );
    }

    // --- Experiment 2: checkpointed recovery from the snapshot. ---------
    let mut recovery_secs = Vec::new();
    for &log_len in &cfg.log_lens {
        let dir = temp_dir(&format!("recover-{log_len}"));
        let live = build_store(&dir, log_len);
        let mut best = f64::MAX;
        for _ in 0..cfg.passes {
            let (secs, audit) = time_recovery(&dir);
            assert_eq!(audit, live, "recovery drifted at {log_len}");
            best = best.min(secs);
        }
        let _ = std::fs::remove_dir_all(&dir);
        recovery_secs.push(best);
        println!("recovery log_len={log_len} mvcc_ms={:.3}", best * 1e3);
        let _ = writeln!(
            rows,
            "    {{\"experiment\": \"recovery\", \"log_len\": {log_len}, \"mvcc_ms\": {:.4}}},",
            best * 1e3
        );
    }
    // BENCH_4 (PR 4) measured checkpointed replay recovery of the same
    // 2000-query store at 8.184 ms on this class of box — the baseline the
    // acceptance criterion is stated against.
    const PR4_CHECKPOINTED_MS: f64 = 8.184;
    let at_max = recovery_secs.last().copied().unwrap_or(0.0) * 1e3;
    let speedup = if at_max > 0.0 { PR4_CHECKPOINTED_MS / at_max } else { 0.0 };
    println!(
        "recovery at {} queries: {at_max:.3} ms, {speedup:.2}x vs the \
         {PR4_CHECKPOINTED_MS} ms PR-4 checkpointed baseline",
        cfg.log_lens.last().unwrap_or(&0),
    );
    if !quick {
        assert!(
            speedup >= 2.0,
            "recovery at the largest store must beat the {PR4_CHECKPOINTED_MS} ms \
             checkpointed-replay baseline by >=2x, measured {at_max:.3} ms ({speedup:.2}x)"
        );
    }

    let rows = rows.trim_end().trim_end_matches(',');
    let json = format!(
        "{{\n  \"bench\": \"mvcc\",\n  \"mode\": \"{}\",\n  \
         \"as_of_growth_mvcc\": {mvcc_growth:.3},\n  \
         \"recovery_speedup_at_max\": {speedup:.3},\n  \"rows\": [\n{rows}\n  ]\n}}\n",
        if quick { "quick" } else { "full" }
    );
    audex_bench::write_report("BENCH_10.json", quick, &json);
}
