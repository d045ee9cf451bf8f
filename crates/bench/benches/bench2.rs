//! B10: parallel-pipeline scaling — the PR-2 performance tentpole.
//!
//! Two experiments, results written to `BENCH_2.json` at the workspace root:
//!
//! * `threads_scaling` — wall-clock of the full audit at 1/2/4/8 worker
//!   threads across log sizes, with the snapshot cache and hash-set fact
//!   matching active. Reports are asserted byte-identical across thread
//!   counts before any timing is recorded.
//! * `join_ablation` — hash join versus nested-loop at fixed thread count,
//!   the executor-level half of the speedup story.
//!
//! Run `cargo bench -p audex-bench --bench bench2` for real measurements or
//! `-- --test` for the CI smoke variant (tiny sizes, one iteration).

use std::fmt::Write as _;
use std::time::Instant;

use audex_bench::{all_time, scenario, Scenario};
use audex_core::{AuditMode, EngineOptions};
use audex_sql::ast::AuditExpr;
use audex_storage::JoinStrategy;

struct Config {
    /// (patients, queries) per scaling row.
    sizes: Vec<(usize, usize)>,
    threads: Vec<usize>,
    iters: usize,
}

fn config(quick: bool) -> Config {
    if quick {
        Config { sizes: vec![(100, 60)], threads: vec![1, 2], iters: 1 }
    } else {
        Config {
            sizes: vec![(400, 400), (800, 1200), (1200, 2400)],
            threads: vec![1, 2, 4, 8],
            iters: 3,
        }
    }
}

fn engine_options(threads: usize, strategy: JoinStrategy) -> EngineOptions {
    EngineOptions { mode: AuditMode::Batch, strategy, parallelism: threads, ..Default::default() }
}

/// Median wall-clock seconds over `iters` runs of a full audit.
fn time_audit(s: &Scenario, expr: &AuditExpr, options: EngineOptions, iters: usize) -> f64 {
    let engine = s.engine(options);
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            let report = engine.audit_at(expr, s.now).expect("audit succeeds");
            let elapsed = t.elapsed().as_secs_f64();
            std::hint::black_box(report.verdict.accessed_granules);
            elapsed
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Renders the text report, for byte-identity checks across configurations.
fn report_text(s: &Scenario, expr: &AuditExpr, options: EngineOptions) -> String {
    let engine = s.engine(options);
    let report = engine.audit_at(expr, s.now).expect("audit succeeds");
    report.render_text(&s.log)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    let cfg = config(quick);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let mut rows = String::new();
    let mut speedup_at_4 = None;

    for &(patients, queries) in &cfg.sizes {
        let s = scenario(patients, queries, 0.08, 42);
        let expr = all_time(s.audit.clone());

        // Determinism gate: every thread count must render the same report.
        let baseline = report_text(&s, &expr, engine_options(1, JoinStrategy::Auto));
        for &t in &cfg.threads {
            let r = report_text(&s, &expr, engine_options(t, JoinStrategy::Auto));
            assert_eq!(baseline, r, "report differs at {t} threads ({patients}p/{queries}q)");
        }

        let mut base_secs = 0.0;
        for &t in &cfg.threads {
            let secs = time_audit(&s, &expr, engine_options(t, JoinStrategy::Auto), cfg.iters);
            if t == 1 {
                base_secs = secs;
            }
            let speedup = if secs > 0.0 { base_secs / secs } else { 0.0 };
            if t == 4 {
                // Track the largest workload's 4-thread speedup for the summary.
                speedup_at_4 = Some(speedup);
            }
            println!(
                "threads_scaling patients={patients} queries={queries} threads={t} \
                 secs={secs:.4} speedup={speedup:.2}x"
            );
            let _ = writeln!(
                rows,
                "    {{\"experiment\": \"threads_scaling\", \"patients\": {patients}, \
                 \"queries\": {queries}, \"threads\": {t}, \"secs\": {secs:.6}, \
                 \"speedup_vs_1\": {speedup:.3}}},"
            );
        }

        // Join ablation at this size, sequential so only the strategy varies.
        for (label, strategy) in
            [("hash", JoinStrategy::Auto), ("nested_loop", JoinStrategy::NestedLoop)]
        {
            let secs = time_audit(&s, &expr, engine_options(1, strategy), cfg.iters);
            println!(
                "join_ablation patients={patients} queries={queries} strategy={label} \
                 secs={secs:.4}"
            );
            let _ = writeln!(
                rows,
                "    {{\"experiment\": \"join_ablation\", \"patients\": {patients}, \
                 \"queries\": {queries}, \"strategy\": \"{label}\", \"secs\": {secs:.6}}},"
            );
        }
        let nested = report_text(&s, &expr, engine_options(1, JoinStrategy::NestedLoop));
        assert_eq!(baseline, nested, "report differs under nested-loop join");

        // Snapshot-cache effectiveness across everything run at this size.
        let stats = s.db.snapshot_stats();
        println!(
            "snapshot_cache patients={patients} queries={queries} hits={} misses={}",
            stats.hits, stats.misses
        );
        let _ = writeln!(
            rows,
            "    {{\"experiment\": \"snapshot_cache\", \"patients\": {patients}, \
             \"queries\": {queries}, \"hits\": {}, \"misses\": {}}},",
            stats.hits, stats.misses
        );
    }

    let rows = rows.trim_end().trim_end_matches(',');
    let summary = speedup_at_4.map(|x| format!("{x:.3}")).unwrap_or_else(|| "null".to_string());
    // Parallel speedup is bounded by the physical cores of the host, so the
    // artifact records both: `speedup_vs_1` rows are only meaningful up to
    // `available_cores` workers (on a 1-core host they measure pure
    // fan-out overhead instead).
    let json = format!(
        "{{\n  \"bench\": \"bench2\",\n  \"mode\": \"{}\",\n  \
         \"available_cores\": {cores},\n  \
         \"largest_workload_speedup_at_4_threads\": {summary},\n  \"rows\": [\n{rows}\n  ]\n}}\n",
        if quick { "quick" } else { "full" }
    );
    audex_bench::write_report("BENCH_2.json", quick, &json);
    if let Some(x) = speedup_at_4 {
        println!("largest-workload speedup at 4 threads: {x:.2}x ({cores} cores available)");
        if cores < 4 {
            println!(
                "note: host exposes only {cores} core(s); the 4-thread row measures \
                 fan-out overhead, not attainable speedup"
            );
        }
    }
}
