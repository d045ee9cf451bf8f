//! B17: the cost of explanations and the review queue.
//!
//! Writes `BENCH_9.json` at the workspace root with three experiments:
//!
//! * `explanation_overhead` — the tentpole claim: evidence-backed
//!   explanations and the review-queue fold ride on the single execution
//!   the online scorer already performs, so triage adds <5% to scoring a
//!   stream. Measured A/B over identical streams through identical
//!   auditors: arm A scores only, arm B scores **and** folds every flagged
//!   query into a [`ReviewQueue`]. The delta is the entire explanation +
//!   prioritization cost.
//! * `queue_build` — latency to build and first-rank a queue of 10,000
//!   flagged queries (the paper-scale review backlog), plus one `page`
//!   call, in milliseconds.
//! * `template_compression` — how far Fabbri–LeFevre-style template
//!   mining compresses that backlog: distinct (role, purpose, columns,
//!   audits) groups vs open items.
//!
//! Run `cargo bench -p audex-bench --bench triage` for real measurements
//! or `-- --test` for the CI smoke variant (smaller stream, same asserts).

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use audex_bench::{all_time, scenario_with_zones};
use audex_core::{AuditEngine, OnlineAuditor, PreparedAudit};
use audex_log::{LoggedQuery, QueryId, QueryLog};
use audex_sql::{parse_audit, Ident, Timestamp};
use audex_storage::Database;
use audex_triage::{RedactedScore, ReviewQueue};
use audex_workload::datagen::zip_of_zone;

struct Config {
    zones: usize,
    queries: usize,
    audits: usize,
    queue_items: usize,
    /// Repeat the A/B passes and keep the fastest, to de-noise CI boxes.
    passes: usize,
}

fn config(quick: bool) -> Config {
    if quick {
        Config { zones: 64, queries: 300, audits: 32, queue_items: 10_000, passes: 3 }
    } else {
        Config { zones: 256, queries: 1_500, audits: 128, queue_items: 10_000, passes: 5 }
    }
}

fn prepared_audits(db: &Database, count: usize, now: Timestamp) -> Vec<PreparedAudit> {
    let log = QueryLog::new();
    let engine = AuditEngine::new(db, &log);
    (0..count)
        .map(|k| {
            let expr = parse_audit(&format!(
                "AUDIT disease FROM Patients, Health \
                 WHERE Patients.pid = Health.pid AND Patients.zipcode = '{}'",
                zip_of_zone(k)
            ))
            .expect("standing audit parses");
            engine.prepare(&all_time(expr), now).expect("standing audit prepares")
        })
        .collect()
}

/// One timed pass over the stream. With `queue` set, every flagged query
/// is folded into the review queue — the triage arm of the A/B.
fn score_pass(
    db: &Database,
    audits: &[PreparedAudit],
    entries: &[Arc<LoggedQuery>],
    mut queue: Option<&mut ReviewQueue>,
) -> (f64, usize) {
    let mut auditor = OnlineAuditor::new(audits.to_vec());
    let mut flagged = 0usize;
    let t = Instant::now();
    for e in entries {
        let scores = auditor.observe(db, e).expect("observe succeeds");
        if !scores.is_empty() {
            flagged += 1;
            if let Some(q) = queue.as_deref_mut() {
                q.observe(
                    e.id,
                    e.executed_at,
                    e.context.user.clone(),
                    e.context.role.clone(),
                    e.context.purpose.clone(),
                    &scores,
                );
            }
        }
        std::hint::black_box(&scores);
    }
    (t.elapsed().as_secs_f64(), flagged)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    let cfg = config(quick);
    let mut rows = String::new();

    // --- Experiment 1: explanation + queue overhead on live scoring. ----
    let s = scenario_with_zones(cfg.zones, cfg.queries, 0.25, 42, cfg.zones);
    let entries = s.log.snapshot();
    let audits = prepared_audits(&s.db, cfg.audits, s.now);
    let (mut best_score, mut best_triage) = (f64::MAX, f64::MAX);
    let mut flagged = 0usize;
    for _ in 0..cfg.passes {
        let (secs, _) = score_pass(&s.db, &audits, &entries, None);
        best_score = best_score.min(secs);
        let mut queue = ReviewQueue::new(None);
        let (secs, f) = score_pass(&s.db, &audits, &entries, Some(&mut queue));
        best_triage = best_triage.min(secs);
        flagged = f;
        assert_eq!(queue.len(), flagged, "every flagged query must enter the queue");
    }
    let overhead_pct = (best_triage - best_score) / best_score * 100.0;
    println!(
        "explanation_overhead queries={} flagged={flagged} score_secs={best_score:.4} \
         triage_secs={best_triage:.4} overhead_pct={overhead_pct:.2}",
        entries.len()
    );
    let _ = writeln!(
        rows,
        "    {{\"experiment\": \"explanation_overhead\", \"queries\": {}, \
         \"flagged\": {flagged}, \"score_secs\": {best_score:.6}, \
         \"triage_secs\": {best_triage:.6}, \"overhead_pct\": {overhead_pct:.3}}},",
        entries.len()
    );
    assert!(flagged > 0, "the workload must flag something for the A/B to mean anything");
    assert!(
        overhead_pct < 5.0,
        "explanations + queue must cost <5% of scoring, measured {overhead_pct:.2}%"
    );

    // --- Experiment 2: queue build + first rank at 10k flagged. ---------
    // Synthetic redacted rows with the realistic shape: a few hundred
    // (role, purpose, columns, audits) combinations across 10k items.
    let table = Ident::new("Patients");
    let columns = ["disease", "pid", "zipcode", "name"];
    let mk_rows = |i: usize| -> Vec<RedactedScore> {
        let audit = audex_core::AuditId((i % cfg.audits.max(1)) as u64);
        vec![RedactedScore {
            audit,
            fact_coverage: 1.0,
            column_coverage: 1.0,
            closeness: ((i % 97) + 1) as f64 / 97.0,
            touched: (i % 13 + 1) as u64,
            exposed: 0,
            covered: vec![(table.clone(), Ident::new(columns[i % columns.len()]))],
        }]
    };
    let mut queue = ReviewQueue::new(Some(25));
    let t = Instant::now();
    for i in 0..cfg.queue_items {
        queue.observe_redacted(
            QueryId(i as u64 + 1),
            Timestamp(1_000 + i as i64),
            Ident::new(format!("u{}", i % 40)),
            Ident::new(format!("role{}", i % 5)),
            Ident::new(format!("purpose{}", i % 3)),
            &mk_rows(i),
        );
    }
    let fill_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let ranked = queue.ranked();
    let rank_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(ranked.len(), cfg.queue_items, "every item ranks");
    let page = queue.page(None, 0);
    assert_eq!(page.len(), 25, "page honors the review budget");
    drop(ranked);
    println!("queue_build items={} fill_ms={fill_ms:.2} rank_ms={rank_ms:.2}", cfg.queue_items);
    let _ = writeln!(
        rows,
        "    {{\"experiment\": \"queue_build\", \"items\": {}, \
         \"fill_ms\": {fill_ms:.3}, \"rank_ms\": {rank_ms:.3}}},",
        cfg.queue_items
    );

    // --- Experiment 3: template compression over the same backlog. ------
    let t = Instant::now();
    let templates = queue.templates();
    let mine_ms = t.elapsed().as_secs_f64() * 1e3;
    let compression = queue.compression();
    let distinct: BTreeSet<_> = templates
        .iter()
        .map(|t| (t.role.clone(), t.purpose.clone(), t.covered.clone(), t.audits.clone()))
        .collect();
    assert_eq!(distinct.len(), templates.len(), "templates must be distinct groups");
    let total: u64 = templates.iter().map(|t| t.count).sum();
    assert_eq!(total as usize, cfg.queue_items, "template counts partition the backlog");
    println!(
        "template_compression items={} templates={} compression={compression:.1} \
         mine_ms={mine_ms:.2}",
        cfg.queue_items,
        templates.len()
    );
    let _ = writeln!(
        rows,
        "    {{\"experiment\": \"template_compression\", \"items\": {}, \
         \"templates\": {}, \"compression\": {compression:.2}, \"mine_ms\": {mine_ms:.3}}},",
        cfg.queue_items,
        templates.len()
    );
    assert!(compression > 2.0, "template mining must compress the backlog, got {compression:.2}");

    let rows = rows.trim_end().trim_end_matches(',');
    let json = format!(
        "{{\n  \"bench\": \"triage\",\n  \"mode\": \"{}\",\n  \"rows\": [\n{rows}\n  ]\n}}\n",
        if quick { "quick" } else { "full" }
    );
    audex_bench::write_report("BENCH_9.json", quick, &json);
}
