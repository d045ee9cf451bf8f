//! B11/B15: streaming-ingest cost — the PR-3 service tentpole, extended
//! with the PR-7 standing-audit dispatch index.
//!
//! Experiments 1–2 write `BENCH_3.json`, experiment 3 writes
//! `BENCH_7.json`, both at the workspace root:
//!
//! * `ingest_throughput` — sustained `log`-request throughput through a
//!   [`ServiceCore`] as the number of standing (registered) audit
//!   expressions grows (small counts; the historical B11 rows).
//! * `maintenance_cost` — the incremental-index claim: the amortized cost
//!   of folding one more query with [`TouchIndex::extend`] stays flat as
//!   the log grows, while answering the same arrival by rebuilding the
//!   index from scratch costs time linear in the log length. Before any
//!   timing, the extended index is checked equivalent to the from-scratch
//!   build (same length, same verdict on the standard audit).
//! * `dispatch_scaling` (B15) — throughput at 64/256/1024 standing audits
//!   through the dispatch index, with the probe/prune/shortlist counters
//!   per row. (The committed `BENCH_7.json` also carries a scan-all
//!   contrast row, measured at commit `3b68412` while a daemon could still
//!   be started in that mode; scan-all is now only the
//!   `OnlineAuditor::observe_scan_all` test reference and is no longer
//!   timed.) Before any timing, two differential gates assert `observe` is
//!   identical to that reference — every query's scores and the final
//!   batch states: on the paper's Tables 1–3 workload and on the generated
//!   hospital workload.
//!
//! Run `cargo bench -p audex-bench --bench ingest` for real measurements or
//! `-- --test` for the CI smoke variant (256 standing audits, one pass,
//! asserting a throughput floor and nonzero prune counters).

use std::fmt::Write as _;
use std::time::Instant;

use audex_bench::{all_time, scenario, scenario_with_zones, Scenario};
use audex_core::{AuditEngine, Governor, OnlineAuditor, TouchIndex};
use audex_log::{LoggedQuery, QueryLog};
use audex_service::{Json, Request, ServiceConfig, ServiceCore};
use audex_sql::{parse_audit, Timestamp};
use audex_storage::{Database, JoinStrategy};
use audex_workload::datagen::zip_of_zone;
use audex_workload::paper::{paper_database, paper_query_log};

struct Config {
    patients: usize,
    queries: usize,
    audit_counts: Vec<usize>,
    dispatch_zones: usize,
    dispatch_queries: usize,
    dispatch_audit_counts: Vec<usize>,
    /// CI floor on indexed q/s at the largest dispatch count (0 = no gate).
    dispatch_qps_floor: f64,
}

fn config(quick: bool) -> Config {
    if quick {
        Config {
            patients: 100,
            queries: 80,
            audit_counts: vec![0, 2],
            dispatch_zones: 256,
            dispatch_queries: 120,
            dispatch_audit_counts: vec![256],
            dispatch_qps_floor: 300.0,
        }
    } else {
        Config {
            patients: 400,
            queries: 800,
            audit_counts: vec![0, 1, 2, 4, 8],
            dispatch_zones: 1024,
            dispatch_queries: 800,
            dispatch_audit_counts: vec![64, 256, 1024],
            dispatch_qps_floor: 0.0,
        }
    }
}

/// The k-th standing audit: disease of one zip zone, pinned to all time so
/// the online scorer admits every log entry.
fn standing_audit(k: usize) -> String {
    let expr = parse_audit(&format!(
        "AUDIT disease FROM Patients, Health \
         WHERE Patients.pid = Health.pid AND Patients.zipcode = '{}'",
        zip_of_zone(k)
    ))
    .expect("standing audit parses");
    all_time(expr).to_string()
}

/// A core over the scenario's database with `audits` standing audits.
fn dispatch_core(s: Scenario, audits: usize) -> ServiceCore {
    let mut core = ServiceCore::new(s.db, ServiceConfig::default());
    for k in 0..audits {
        let resp = core
            .handle(Request::Register {
                name: format!("zone-{k}"),
                expr: standing_audit(k),
                now: Some(s.now),
            })
            .response;
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "register zone-{k}: {resp}");
    }
    core
}

fn log_request(e: &audex_log::LoggedQuery) -> Request {
    Request::Log {
        ts: e.executed_at,
        user: e.context.user.to_string(),
        role: e.context.role.to_string(),
        purpose: e.context.purpose.to_string(),
        sql: e.text.clone(),
    }
}

/// Times a full ingest of the log through the core, returning (secs, qps).
fn timed_ingest(
    core: &mut ServiceCore,
    entries: &[std::sync::Arc<audex_log::LoggedQuery>],
) -> (f64, f64) {
    let t = Instant::now();
    for e in entries {
        let resp = core.handle(log_request(e)).response;
        debug_assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
        std::hint::black_box(&resp);
    }
    let secs = t.elapsed().as_secs_f64();
    let qps = if secs > 0.0 { entries.len() as f64 / secs } else { 0.0 };
    (secs, qps)
}

/// Differential gate: two auditors holding the same prepared audits observe
/// the same entries, one through `observe`, one through the
/// `observe_scan_all` reference; every query's scores and the final batch
/// states must be equal.
fn assert_observe_matches_scan_all(
    db: &Database,
    audits: &[String],
    now: Timestamp,
    entries: &[std::sync::Arc<LoggedQuery>],
    label: &str,
) {
    let log = QueryLog::new();
    let engine = AuditEngine::new(db, &log);
    let prepared: Vec<_> = audits
        .iter()
        .map(|text| {
            let expr = parse_audit(text).expect("audit parses");
            engine.prepare(&expr, now).expect("audit prepares")
        })
        .collect();
    let mut indexed = OnlineAuditor::new(prepared.clone());
    let mut reference = OnlineAuditor::new(prepared);
    for e in entries {
        let a = indexed.observe(db, e).expect("observe");
        let b = reference.observe_scan_all(db, e).expect("observe_scan_all");
        assert_eq!(a, b, "{label}: observe vs scan-all diverge on {:?}", e.text);
    }
    assert_eq!(
        indexed.export_states(),
        reference.export_states(),
        "{label}: final batch states diverge"
    );
    println!(
        "differential gate [{label}]: {} queries x {} audits, scores and batch states identical",
        entries.len(),
        audits.len()
    );
}

/// The Tables 1–3 gate: the paper's running example (its three relations,
/// its Figure audits — context filters, user identities, value and
/// indispensable modes — and its example log).
fn paper_differential_gate() {
    use audex_workload::paper::{
        FIG1_AGRAWAL, FIG2_AUDIT_EXPRESSION_1, FIG3_AUDIT_EXPRESSION_2, FIG6_SEMANTIC,
        FIG7_FULL_GRAMMAR,
    };
    let audits: Vec<String> = [
        FIG1_AGRAWAL,
        FIG2_AUDIT_EXPRESSION_1,
        FIG3_AUDIT_EXPRESSION_2,
        FIG6_SEMANTIC,
        FIG7_FULL_GRAMMAR,
    ]
    .iter()
    .map(|text| all_time(parse_audit(text).expect("figure audit parses")).to_string())
    .collect();
    assert_observe_matches_scan_all(
        &paper_database(),
        &audits,
        audex_workload::paper::paper_now(),
        &paper_query_log().snapshot(),
        "paper Tables 1-3",
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    let cfg = config(quick);
    let mut rows = String::new();

    // --- Experiment 1: ingest throughput vs standing-audit count. -------
    for &audits in &cfg.audit_counts {
        let s = scenario(cfg.patients, cfg.queries, 0.08, 42);
        let entries = s.log.snapshot();
        let mut core = ServiceCore::new(s.db, ServiceConfig::default());
        for k in 0..audits {
            let resp = core
                .handle(Request::Register {
                    name: format!("zone-{k}"),
                    expr: standing_audit(k),
                    now: Some(s.now),
                })
                .response;
            assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "register zone-{k}: {resp}");
        }
        let t = Instant::now();
        for e in &entries {
            let resp = core
                .handle(Request::Log {
                    ts: e.executed_at,
                    user: e.context.user.to_string(),
                    role: e.context.role.to_string(),
                    purpose: e.context.purpose.to_string(),
                    sql: e.text.clone(),
                })
                .response;
            debug_assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
            std::hint::black_box(&resp);
        }
        let secs = t.elapsed().as_secs_f64();
        let qps = if secs > 0.0 { entries.len() as f64 / secs } else { 0.0 };
        println!(
            "ingest_throughput audits={audits} queries={} secs={secs:.4} qps={qps:.0}",
            entries.len()
        );
        let _ = writeln!(
            rows,
            "    {{\"experiment\": \"ingest_throughput\", \"audits\": {audits}, \
             \"queries\": {}, \"secs\": {secs:.6}, \"qps\": {qps:.1}}},",
            entries.len()
        );
    }

    // --- Experiment 2: incremental extend vs from-scratch rebuild. ------
    let s = scenario(cfg.patients, cfg.queries, 0.08, 42);
    let batch = s.log.snapshot();
    let n = batch.len();
    let checkpoints: Vec<usize> = (1..=4).map(|i| i * n / 4).collect();
    let governor = Governor::unlimited();

    // Equivalence gate before timing: the streamed index must answer the
    // standard audit exactly like a from-scratch build.
    {
        let mut streamed = TouchIndex::new();
        for e in &batch {
            streamed.extend(&s.db, e, JoinStrategy::Auto, &governor).expect("extend succeeds");
        }
        let rebuilt =
            TouchIndex::build_governed_with(&s.db, &batch, JoinStrategy::Auto, &governor, 1)
                .expect("build succeeds");
        assert_eq!(streamed.len(), rebuilt.len(), "index lengths diverge");
        let prepared = s.prepared(Default::default());
        let admitted = batch.iter().map(|e| e.id).collect();
        let a = streamed.evaluate(&prepared, &admitted).expect("evaluate streamed");
        let b = rebuilt.evaluate(&prepared, &admitted).expect("evaluate rebuilt");
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "verdicts diverge");
    }

    let mut incremental = TouchIndex::new();
    let mut cumulative = 0.0f64;
    let mut next = 0;
    let mut amortized_us = Vec::new();
    let mut rebuild_us = Vec::new();
    for (i, e) in batch.iter().enumerate() {
        let t = Instant::now();
        incremental.extend(&s.db, e, JoinStrategy::Auto, &governor).expect("extend succeeds");
        cumulative += t.elapsed().as_secs_f64();
        if next < checkpoints.len() && i + 1 == checkpoints[next] {
            let len = i + 1;
            // Amortized per-query incremental cost so far.
            let amortized = cumulative / len as f64 * 1e6;
            // What the same arrival would cost without extend: rebuild the
            // whole index from scratch at this log length.
            let t = Instant::now();
            let rebuilt = TouchIndex::build_governed_with(
                &s.db,
                &batch[..len],
                JoinStrategy::Auto,
                &governor,
                1,
            )
            .expect("build succeeds");
            let rebuild = t.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box(rebuilt.len());
            println!(
                "maintenance_cost log_len={len} incremental_amortized_us={amortized:.1} \
                 rebuild_us={rebuild:.1}"
            );
            let _ = writeln!(
                rows,
                "    {{\"experiment\": \"maintenance_cost\", \"log_len\": {len}, \
                 \"incremental_amortized_us\": {amortized:.2}, \"rebuild_us\": {rebuild:.2}}},",
            );
            amortized_us.push(amortized);
            rebuild_us.push(rebuild);
            next += 1;
        }
    }

    // Growth from the first checkpoint to the last (a 4x log growth):
    // incremental should stay near 1x, rebuild near 4x.
    let growth = |v: &[f64]| match (v.first(), v.last()) {
        (Some(&a), Some(&b)) if a > 0.0 => b / a,
        _ => 0.0,
    };
    let inc_growth = growth(&amortized_us);
    let reb_growth = growth(&rebuild_us);

    let rows = rows.trim_end().trim_end_matches(',');
    let json = format!(
        "{{\n  \"bench\": \"ingest\",\n  \"mode\": \"{}\",\n  \
         \"incremental_amortized_growth_4x_log\": {inc_growth:.3},\n  \
         \"rebuild_growth_4x_log\": {reb_growth:.3},\n  \"rows\": [\n{rows}\n  ]\n}}\n",
        if quick { "quick" } else { "full" }
    );
    audex_bench::write_report("BENCH_3.json", quick, &json);
    println!(
        "per-query maintenance over a 4x log growth: incremental {inc_growth:.2}x, \
         from-scratch rebuild {reb_growth:.2}x"
    );

    // --- Experiment 3 (B15): dispatch-index scaling. --------------------
    // Correctness gates first: both workloads identical to the reference.
    paper_differential_gate();
    {
        let audits = cfg.dispatch_audit_counts[0];
        let s = scenario_with_zones(
            cfg.dispatch_zones,
            cfg.dispatch_queries.min(200),
            0.08,
            42,
            cfg.dispatch_zones,
        );
        assert_observe_matches_scan_all(
            &s.db,
            &(0..audits).map(standing_audit).collect::<Vec<_>>(),
            s.now,
            &s.log.snapshot(),
            &format!("hospital workload, {audits} audits"),
        );
    }

    let mut rows7 = String::new();
    let mut largest_qps = 0.0f64;
    for &audits in &cfg.dispatch_audit_counts {
        let s = scenario_with_zones(
            cfg.dispatch_zones,
            cfg.dispatch_queries,
            0.08,
            42,
            cfg.dispatch_zones,
        );
        let entries = s.log.snapshot();
        let mut core = dispatch_core(s, audits);
        let (secs, qps) = timed_ingest(&mut core, &entries);
        largest_qps = qps;
        let stats = core.handle(Request::Stats).response;
        let stat = |k: &str| stats.get(k).and_then(Json::as_int).unwrap_or(0);
        let (probes, pruned, shortlisted, rebuilds) = (
            stat("dispatch_probes"),
            stat("dispatch_pruned"),
            stat("dispatch_shortlisted"),
            stat("dispatch_rebuilds"),
        );
        let (probe_builds, probe_hits) =
            (stat("dispatch_fact_probe_builds"), stat("dispatch_fact_probe_hits"));
        println!(
            "dispatch_scaling audits={audits} queries={} secs={secs:.4} qps={qps:.0} \
             probes={probes} pruned={pruned} shortlisted={shortlisted} rebuilds={rebuilds} \
             fact_probe_builds={probe_builds} fact_probe_hits={probe_hits}",
            entries.len()
        );
        let _ = writeln!(
            rows7,
            "    {{\"experiment\": \"dispatch_scaling\", \"audits\": {audits}, \
             \"queries\": {}, \"secs\": {secs:.6}, \"qps\": {qps:.1}, \
             \"probes\": {probes}, \"pruned\": {pruned}, \"shortlisted\": {shortlisted}, \
             \"rebuilds\": {rebuilds}, \"fact_probe_builds\": {probe_builds}, \
             \"fact_probe_hits\": {probe_hits}}},",
            entries.len()
        );
        assert!(probes as usize >= entries.len(), "every ingested query must be probed");
        assert!(pruned > 0, "at {audits} standing audits the index must prune something");
        assert!(
            probe_hits > 0,
            "at {audits} standing audits the per-audit fact-probe cache must get hits"
        );
    }
    if cfg.dispatch_qps_floor > 0.0 {
        assert!(
            largest_qps >= cfg.dispatch_qps_floor,
            "dispatch ingest smoke below the throughput floor: {largest_qps:.0} q/s < {} q/s",
            cfg.dispatch_qps_floor
        );
    }

    let rows7 = rows7.trim_end().trim_end_matches(',');
    let json7 = format!(
        "{{\n  \"bench\": \"dispatch\",\n  \"mode\": \"{}\",\n  \"rows\": [\n{rows7}\n  ]\n}}\n",
        if quick { "quick" } else { "full" }
    );
    audex_bench::write_report("BENCH_7.json", quick, &json7);
}
