//! B13: telemetry overhead — the PR-5 obs tentpole.
//!
//! Two experiments, results written to `BENCH_5.json` at the workspace root:
//!
//! * `audit_wallclock` — the full audit pipeline with telemetry attached
//!   (live registry + tracer recording every phase) vs the default
//!   disconnected `EngineObs` (every span and histogram a no-op).
//!   Rounds are interleaved A/B and the minimum per arm is compared, so
//!   the reported overhead is machine-noise-resistant. The acceptance
//!   target is < 3% overhead; in practice an audit records a handful of
//!   spans and histogram samples against milliseconds of evaluation, so
//!   the measured figure should sit well under 1%.
//! * `hot_path_ns` — the raw per-update cost a `par_map` worker pays:
//!   one counter inc and one histogram observe, enabled vs no-op.
//!
//! Run `cargo bench -p audex-bench --bench obs` for real measurements or
//! `-- --test` for the CI smoke variant.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use audex_bench::{all_time, scenario, Scenario};
use audex_core::{EngineObs, EngineOptions};
use audex_obs::{Counter, Histogram, Registry, Tracer, DURATION_BUCKETS};

struct Config {
    patients: usize,
    queries: usize,
    rounds: usize,
    iters: usize,
    hot_ops: usize,
}

fn config(quick: bool) -> Config {
    if quick {
        // Samples must stay well above scheduler noise (~tens of ms) or
        // the overhead ratio measures jitter, not telemetry.
        Config { patients: 150, queries: 150, rounds: 9, iters: 8, hot_ops: 100_000 }
    } else {
        Config { patients: 300, queries: 300, rounds: 7, iters: 4, hot_ops: 5_000_000 }
    }
}

/// Wall-clock for `iters` full audits, with or without live telemetry.
fn run_audits(sc: &Scenario, obs: Option<&(Arc<Registry>, Arc<Tracer>)>, iters: usize) -> f64 {
    let mut engine = sc.engine(EngineOptions::default());
    if let Some((registry, tracer)) = obs {
        engine = engine.with_obs(EngineObs::new(Arc::clone(registry), Arc::clone(tracer)));
    }
    let expr = all_time(sc.audit.clone());
    let t = Instant::now();
    for _ in 0..iters {
        let report = engine.audit_at(&expr, sc.now).expect("audit succeeds");
        std::hint::black_box(report.verdict.suspicious);
    }
    t.elapsed().as_secs_f64()
}

/// Nanoseconds per (counter inc + histogram observe) pair.
fn hot_path_ns(counter: &Counter, histogram: &Histogram, ops: usize) -> f64 {
    let t = Instant::now();
    for i in 0..ops {
        counter.inc();
        histogram.observe((i & 0xff) as f64 * 1e-4);
    }
    t.elapsed().as_secs_f64() * 1e9 / ops as f64
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    let cfg = config(quick);
    let mut rows = String::new();

    // --- Experiment 1: audit wall-clock, telemetry on vs off. -----------
    let sc = scenario(cfg.patients, cfg.queries, 0.1, 42);
    let obs = (Registry::new(), Tracer::new());
    // Warm both arms (snapshot cache, allocator) before measuring.
    run_audits(&sc, None, 1);
    run_audits(&sc, Some(&obs), 1);

    let (mut off_min, mut on_min) = (f64::INFINITY, f64::INFINITY);
    for round in 0..cfg.rounds {
        let off = run_audits(&sc, None, cfg.iters);
        let on = run_audits(&sc, Some(&obs), cfg.iters);
        // The tracer's ring buffers cap themselves; draining between
        // rounds keeps the "on" arm from measuring a permanently full ring.
        let span_count = obs.1.take_events().len();
        off_min = off_min.min(off);
        on_min = on_min.min(on);
        println!(
            "audit_wallclock round={round} iters={} off_secs={off:.4} on_secs={on:.4} \
             spans={span_count}",
            cfg.iters
        );
        let _ = writeln!(
            rows,
            "    {{\"experiment\": \"audit_wallclock\", \"round\": {round}, \
             \"iters\": {}, \"off_secs\": {off:.6}, \"on_secs\": {on:.6}, \
             \"spans_recorded\": {span_count}}},",
            cfg.iters
        );
    }
    let overhead_pct = if off_min > 0.0 { (on_min - off_min) / off_min * 100.0 } else { 0.0 };

    // --- Experiment 2: the hot-path update cost, enabled vs no-op. ------
    let registry = Registry::new();
    let live_counter = registry.counter("bench_hot_total", "Hot-path probe.", &[("arm", "live")]);
    let live_hist =
        registry.histogram("bench_hot_seconds", "Hot-path probe.", &DURATION_BUCKETS, &[]);
    let live_ns = hot_path_ns(&live_counter, &live_hist, cfg.hot_ops);
    let noop_ns = hot_path_ns(&Counter::noop(), &Histogram::noop(), cfg.hot_ops);
    println!("hot_path_ns ops={} live={live_ns:.1} noop={noop_ns:.1}", cfg.hot_ops);
    let _ = writeln!(
        rows,
        "    {{\"experiment\": \"hot_path_ns\", \"ops\": {}, \"live_ns_per_update\": \
         {live_ns:.2}, \"noop_ns_per_update\": {noop_ns:.2}}},",
        cfg.hot_ops
    );

    let rows = rows.trim_end().trim_end_matches(',');
    let json = format!(
        "{{\n  \"bench\": \"obs\",\n  \"mode\": \"{}\",\n  \
         \"overhead_pct\": {overhead_pct:.3},\n  \"target_overhead_pct\": 3.0,\n  \
         \"rows\": [\n{rows}\n  ]\n}}\n",
        if quick { "quick" } else { "full" }
    );
    audex_bench::write_report("BENCH_5.json", quick, &json);
    println!("telemetry overhead: {overhead_pct:.2}% of audit wall-clock (target < 3%)");
    assert!(
        overhead_pct < 3.0,
        "telemetry overhead {overhead_pct:.2}% breaches the 3% acceptance target"
    );
}
