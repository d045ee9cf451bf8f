//! From raw measurements to named metrics: the two metric tables (they are
//! what `BENCHMARK.json` lists) and the code that fills them for one
//! repetition.

use std::collections::BTreeMap;

use crate::drive::{self, Rep, RepSpec};
use crate::gen::Kind;
use crate::replay::Pass;
use crate::stats::{median, percentile};

/// One metric: its name, unit and good direction, and — for end-to-end
/// metrics — the share of the baseline median it may worsen by before that
/// counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef { name, unit, higher_is_better: false, bound }
}

const fn higher(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef { name, unit, higher_is_better: true, bound }
}

/// End-to-end metrics every workload reports and `BENCHMARK.json` bounds.
///
/// None is looser than the issue's 20%, and each is at least twice the
/// widest spread (interquartile range ÷ median of ten runs with ten seeds)
/// any workload showed on the builder's host, three times what it shows
/// while the host is quiet. README.md has the calibration table.
pub const END_TO_END: [MetricDef; 8] = [
    lower("setup_s", "s", 0.20),
    higher("ops_per_s", "ops/s", 0.20),
    lower("log_p50_us", "us", 0.15),
    lower("log_p95_us", "us", 0.20),
    lower("reopen_s", "s", 0.20),
    lower("cpu_ms_per_op", "ms", 0.20),
    lower("store_bytes_per_op", "B", 0.02),
    lower("peak_rss_mb", "MiB", 0.10),
];

/// End-to-end metrics the ledger also reports but `BENCHMARK.json` cannot
/// carry: two exist on `mixed-churn` alone, two are expected to be 0.
pub const END_TO_END_EXTRA: [MetricDef; 4] = [
    lower("dml_p50_us", "us", 0.15),
    lower("audit_p50_ms", "ms", 0.20),
    lower("failed_op_share", "ratio", 0.0),
    lower("event_loss_share", "ratio", 0.0),
];

pub fn end_to_end_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&END_TO_END_EXTRA).find(|m| m.name == name)
}

/// Per-layer metrics, by layer (crate or module). No bounds: they explain
/// an end-to-end movement, they do not gate.
pub const PER_LAYER: [MetricDef; 62] = [
    higher("host.available_cores", "count", 0.0),
    higher("host.two_thread_speedup", "ratio", 0.0),
    lower("server.rtt_overhead_us", "us", 0.0),
    lower("server.log_p99_us", "us", 0.0),
    lower("server.log_max_us", "us", 0.0),
    lower("server.dml_p50_us", "us", 0.0),
    lower("server.audit_p50_ms", "ms", 0.0),
    lower("server.queue_p50_ms", "ms", 0.0),
    higher("server.events_delivered", "count", 0.0),
    lower("server.event_lag_p50_us", "us", 0.0),
    lower("server.event_render_us", "us", 0.0),
    lower("server.subscribers_evicted", "count", 0.0),
    lower("server.frames_malformed", "count", 0.0),
    lower("proto.decode_ns", "ns", 0.0),
    lower("proto.encode_ns", "ns", 0.0),
    lower("proto.bytes_in_per_op", "B", 0.0),
    lower("proto.bytes_out_per_op", "B", 0.0),
    lower("tenant.route_ns", "ns", 0.0),
    lower("tenant.lock_wait_ns", "ns", 0.0),
    higher("tenant.pair_speedup", "ratio", 0.0),
    lower("state.handle_log_us", "us", 0.0),
    lower("state.handle_dml_us", "us", 0.0),
    lower("state.handle_audit_us", "us", 0.0),
    lower("state.handle_queue_us", "us", 0.0),
    lower("state.recovered_ms", "ms", 0.0),
    lower("state.unattributed_share", "ratio", 0.0),
    lower("sqlparse.parse_query_ns", "ns", 0.0),
    lower("sqlparse.parse_script_ns", "ns", 0.0),
    lower("sqlparse.parse_audit_us", "us", 0.0),
    lower("storage.query_us", "us", 0.0),
    lower("storage.execute_us", "us", 0.0),
    lower("storage.versions_examined_per_query", "count", 0.0),
    lower("storage.live_versions", "count", 0.0),
    lower("storage.dead_versions", "count", 0.0),
    lower("storage.store_bytes", "B", 0.0),
    higher("storage.snapshot_hit_rate", "ratio", 0.0),
    lower("querylog.append_ns", "ns", 0.0),
    lower("querylog.snapshot_us", "us", 0.0),
    lower("core.observe_us", "us", 0.0),
    lower("core.observe_wide_us", "us", 0.0),
    lower("core.observe_wide_share", "ratio", 0.0),
    lower("core.shortlist_per_query", "count", 0.0),
    higher("core.prune_ratio", "ratio", 0.0),
    lower("core.scores_per_query", "count", 0.0),
    higher("core.fact_probe_hit_rate", "ratio", 0.0),
    lower("core.index_extend_ns", "ns", 0.0),
    lower("core.index_evaluate_us", "us", 0.0),
    lower("core.prepare_ms", "ms", 0.0),
    lower("triage.observe_ns", "ns", 0.0),
    lower("triage.page_us", "us", 0.0),
    lower("triage.open_items", "count", 0.0),
    lower("persist.append_ns", "ns", 0.0),
    lower("persist.wal_bytes_per_op", "B", 0.0),
    lower("persist.fsyncs_per_kop", "count", 0.0),
    lower("persist.sync_us", "us", 0.0),
    lower("persist.checkpoint_ms", "ms", 0.0),
    lower("persist.checkpoint_bytes", "B", 0.0),
    lower("persist.checkpoints", "count", 0.0),
    lower("persist.open_ms", "ms", 0.0),
    lower("obs.render_us", "us", 0.0),
    lower("obs.series", "count", 0.0),
    lower("trace.overhead_share", "ratio", 0.0),
];

pub type Metrics = BTreeMap<&'static str, f64>;

fn p(samples: &[u64], pct: f64) -> f64 {
    percentile(samples, pct).map_or(0.0, |v| v as f64)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The end-to-end metrics of one repetition. `dml_p50_us` / `audit_p50_ms`
/// appear only where the workload has such ops.
pub fn end_to_end(rep: &Rep) -> Metrics {
    let acked = rep.acknowledged().max(1);
    let logs = rep.rtts_ns(Kind::is_log);
    let mut m = Metrics::new();
    m.insert("setup_s", rep.setup_s);
    m.insert("ops_per_s", rep.acknowledged() as f64 / rep.drive_s);
    m.insert("log_p50_us", p(&logs, 50.0) / 1e3);
    m.insert("log_p95_us", p(&logs, 95.0) / 1e3);
    m.insert("reopen_s", rep.reopen_s);
    m.insert("cpu_ms_per_op", rep.cpu_ms / acked as f64);
    m.insert("store_bytes_per_op", rep.store_bytes as f64 / acked as f64);
    m.insert("peak_rss_mb", drive::peak_rss_mb());
    let dml = rep.rtts_ns(|k| k == Kind::DmlUpdate);
    if !dml.is_empty() {
        m.insert("dml_p50_us", p(&dml, 50.0) / 1e3);
    }
    let audit = rep.rtts_ns(|k| k == Kind::AuditRead);
    if !audit.is_empty() {
        m.insert("audit_p50_ms", p(&audit, 50.0) / 1e6);
    }
    m.insert("failed_op_share", ratio(rep.failed(), rep.attempted));
    let emitted = rep.stat(0, "events_emitted");
    let lost = emitted.saturating_sub(rep.events_received);
    m.insert("event_loss_share", ratio(lost, emitted));
    m
}

/// Counts that repeat exactly for a seed: the daemon's own `stats` at
/// drain, summed over tenants, plus what the client counted.
pub fn exact_counts(rep: &Rep) -> BTreeMap<String, u64> {
    let mut c = BTreeMap::new();
    for field in [
        "queries_ingested",
        "queries_rejected",
        "dml_statements",
        "events_emitted",
        "log_len",
        "index_len",
        "dispatch_probes",
        "dispatch_pruned",
        "dispatch_shortlisted",
        "dispatch_fact_probe_builds",
        "dispatch_fact_probe_hits",
        "triage_open",
        "snapshot_cache_hits",
        "snapshot_cache_misses",
        "mvcc_live_versions",
        "mvcc_dead_versions",
        "mvcc_versions_examined",
        "journal_records_appended",
        "journal_fsyncs",
        "journal_bytes_written",
        "journal_checkpoints_written",
        "subscribers_evicted",
        "frames_malformed",
    ] {
        c.insert(field.to_string(), rep.stat_sum(field));
    }
    c.insert("store_bytes".into(), rep.store_bytes);
    c.insert("events_received".into(), rep.events_received);
    c.insert("ops_acknowledged".into(), rep.acknowledged());
    c
}

/// The per-layer metrics a daemon repetition yields: what the client saw,
/// and the daemon's own `stats` (drain minus end of set-up).
pub fn daemon_layers(spec: &RepSpec, rep: &Rep) -> Metrics {
    let mut m = Metrics::new();
    let rtt = |pick: &dyn Fn(Kind) -> bool, pct: f64| p(&rep.rtts_ns(pick), pct);
    let drive = |field: &str| rep.stat_sum(field) - rep.before_sum(field);
    let acked = rep.acknowledged().max(1);
    let log_ops = rep.rtts_ns(Kind::is_log).len().max(1) as u64;

    // service::server — the client-side view.
    m.insert("server.log_p99_us", rtt(&Kind::is_log, 99.0) / 1e3);
    m.insert("server.log_max_us", rtt(&Kind::is_log, 100.0) / 1e3);
    m.insert("server.dml_p50_us", rtt(&|k| k == Kind::DmlUpdate, 50.0) / 1e3);
    m.insert("server.audit_p50_ms", rtt(&|k| k == Kind::AuditRead, 50.0) / 1e6);
    m.insert("server.queue_p50_ms", rtt(&|k| k == Kind::QueueRead, 50.0) / 1e6);
    m.insert("server.events_delivered", rep.events_received as f64);
    let lag: Vec<f64> = rep.event_lag_ns.iter().map(|v| *v as f64).collect();
    m.insert("server.event_lag_p50_us", median(&lag).unwrap_or(0.0) / 1e3);
    m.insert("server.subscribers_evicted", rep.stat(0, "subscribers_evicted") as f64);
    m.insert("server.frames_malformed", rep.stat(0, "frames_malformed") as f64);

    // service::proto: "in" is into the daemon.
    let bytes = |f: &dyn Fn(&drive::OpRecord) -> u32| -> f64 {
        rep.records.iter().flatten().map(|r| u64::from(f(r))).sum::<u64>() as f64 / acked as f64
    };
    m.insert("proto.bytes_in_per_op", bytes(&|r| r.bytes_out));
    m.insert("proto.bytes_out_per_op", bytes(&|r| r.bytes_in));

    // storage.
    m.insert(
        "storage.versions_examined_per_query",
        ratio(drive("mvcc_versions_examined"), log_ops),
    );
    m.insert("storage.live_versions", rep.stat_sum("mvcc_live_versions") as f64);
    m.insert("storage.dead_versions", rep.stat_sum("mvcc_dead_versions") as f64);
    m.insert("storage.store_bytes", rep.stat_sum("mvcc_store_bytes") as f64);
    let (hits, misses) = (drive("snapshot_cache_hits"), drive("snapshot_cache_misses"));
    m.insert("storage.snapshot_hit_rate", ratio(hits, hits + misses));

    // core: the dispatch index's own counters.
    let (shortlisted, pruned) = (drive("dispatch_shortlisted"), drive("dispatch_pruned"));
    m.insert("core.shortlist_per_query", ratio(shortlisted, drive("dispatch_probes")));
    m.insert("core.prune_ratio", ratio(pruned, pruned + shortlisted));
    let (fp_hits, fp_builds) =
        (rep.stat_sum("dispatch_fact_probe_hits"), rep.stat_sum("dispatch_fact_probe_builds"));
    m.insert("core.fact_probe_hit_rate", ratio(fp_hits, fp_hits + fp_builds));

    m.insert("triage.open_items", rep.stat_sum("triage_open") as f64);

    // persist.
    m.insert("persist.wal_bytes_per_op", ratio(drive("journal_bytes_written"), acked));
    m.insert("persist.fsyncs_per_kop", ratio(drive("journal_fsyncs") * 1000, acked));
    m.insert("persist.checkpoint_bytes", newest_checkpoint_bytes(&spec.dir) as f64);
    m.insert("persist.checkpoints", rep.stat_sum("journal_checkpoints_written") as f64);
    m
}

/// The per-layer metrics the traced in-process pass yields: every timing.
/// `server.rtt_overhead_us` and `trace.overhead_share` also need another
/// process's numbers; the parent computes them from [`handler_log_p50_us`]
/// and the passes' `drive_s`.
pub fn replay_layers(traced: &Pass) -> Metrics {
    let mut m = Metrics::new();
    let trace = &traced.trace;
    let kind_of = |req: u32| traced.kinds.get(req as usize).copied().flatten();
    let driven = |req: u32| kind_of(req).is_some();
    let med_ns = |name: &str, pick: &dyn Fn(u32) -> bool| -> f64 {
        let d: Vec<f64> = trace.durations(name, pick).iter().map(|v| *v as f64).collect();
        median(&d).unwrap_or(0.0)
    };
    let total_ns = |name: &str| -> u64 { trace.durations(name, driven).iter().sum() };
    let spot = |name: &str| -> f64 {
        let v: Vec<f64> = traced
            .spot
            .iter()
            .filter(|(n, _)| *n == name)
            .flat_map(|(_, v)| v.iter().map(|x| *x as f64))
            .collect();
        median(&v).unwrap_or(0.0)
    };

    m.insert("server.event_render_us", med_ns("server.event_render", &driven) / 1e3);

    m.insert("proto.decode_ns", med_ns("proto.decode", &driven));
    m.insert("proto.encode_ns", med_ns("proto.encode", &driven));
    m.insert("tenant.route_ns", med_ns("tenant.route", &driven));
    m.insert("tenant.lock_wait_ns", med_ns("tenant.lock_wait", &driven));

    // service::state.
    let handle = |pick: &dyn Fn(Kind) -> bool| {
        med_ns("state.handle", &|req| kind_of(req).is_some_and(pick)) / 1e3
    };
    m.insert("state.handle_log_us", handle(&Kind::is_log));
    m.insert("state.handle_dml_us", handle(&|k| k == Kind::DmlUpdate));
    m.insert("state.handle_audit_us", handle(&|k| k == Kind::AuditRead));
    m.insert("state.handle_queue_us", handle(&|k| k == Kind::QueueRead));
    m.insert("state.recovered_ms", spot("state.recovered") / 1e6);
    let attributed: u64 = LAYER_SPANS.iter().map(|n| total_ns(n)).sum();
    m.insert("state.unattributed_share", 1.0 - ratio(attributed, total_ns("state.handle")));

    m.insert("sqlparse.parse_query_ns", med_ns("sqlparse.parse_query", &driven));
    m.insert("sqlparse.parse_script_ns", med_ns("sqlparse.parse_script", &driven));
    m.insert("sqlparse.parse_audit_us", med_ns("sqlparse.parse_audit", &|_| true) / 1e3);

    m.insert("storage.query_us", med_ns("storage.query", &driven) / 1e3);
    m.insert("storage.execute_us", med_ns("storage.execute", &driven) / 1e3);

    m.insert("querylog.append_ns", med_ns("querylog.append", &driven));
    m.insert("querylog.snapshot_us", spot("querylog.snapshot") / 1e3);

    let log_ops = traced.kinds.iter().flatten().filter(|k| k.is_log()).count().max(1) as u64;
    m.insert("core.observe_us", med_ns("core.observe", &driven) / 1e3);
    m.insert("core.observe_wide_us", med_ns("core.observe_wide", &driven) / 1e3);
    m.insert(
        "core.observe_wide_share",
        ratio(total_ns("core.observe_wide"), total_ns("state.handle")),
    );
    m.insert("core.scores_per_query", ratio(traced.scores, log_ops));
    m.insert("core.index_extend_ns", med_ns("core.index_extend", &driven));
    m.insert("core.index_evaluate_us", med_ns("core.index_evaluate", &driven) / 1e3);
    m.insert("core.prepare_ms", med_ns("core.prepare", &|_| true) / 1e6);

    m.insert("triage.observe_ns", med_ns("triage.observe", &driven));
    m.insert("triage.page_us", med_ns("triage.page", &driven) / 1e3);

    let append = med_ns("persist.append", &driven);
    m.insert("persist.append_ns", append);
    m.insert("persist.sync_us", (med_ns("persist.append_sync", &driven) - append).max(0.0) / 1e3);
    m.insert("persist.checkpoint_ms", med_ns("persist.checkpoint", &driven) / 1e6);
    m.insert("persist.open_ms", spot("persist.open") / 1e6);

    m.insert("obs.render_us", spot("obs.render") / 1e3);
    m.insert("obs.series", traced.obs_series as f64);
    m
}

/// Median of decode + route + lock + handle + encode over the driven `log`
/// ops: what a `log` round trip costs without the socket.
pub fn handler_log_p50_us(traced: &Pass) -> f64 {
    let mut per_req: BTreeMap<u32, u64> = BTreeMap::new();
    for s in &traced.trace.spans {
        let in_handler = matches!(
            s.name,
            "proto.decode" | "tenant.route" | "tenant.lock_wait" | "state.handle" | "proto.encode"
        );
        let is_log = traced.kinds.get(s.req as usize).copied().flatten().is_some_and(Kind::is_log);
        if in_handler && is_log {
            *per_req.entry(s.req).or_insert(0) += s.dur_ns();
        }
    }
    let sums: Vec<f64> = per_req.values().map(|v| *v as f64).collect();
    median(&sums).unwrap_or(0.0) / 1e3
}

/// The leaf spans the layer replay records, i.e. the work it attributes.
const LAYER_SPANS: [&str; 14] = [
    "sqlparse.parse_query",
    "sqlparse.parse_script",
    "storage.execute",
    "core.observe",
    "core.observe_wide",
    "core.index_extend",
    "core.index_evaluate",
    "querylog.append",
    "querylog.snapshot",
    "triage.observe",
    "triage.page",
    "persist.append",
    "persist.append_sync",
    "persist.checkpoint",
];

/// Size of the newest checkpoint file the daemon left in its data dir.
fn newest_checkpoint_bytes(dir: &std::path::Path) -> u64 {
    audex_persist::checkpoint::list_checkpoints(dir)
        .ok()
        .and_then(|found| found.last().and_then(|(_, path)| std::fs::metadata(path).ok()))
        .map_or(0, |meta| meta.len())
}

/// Steady integer work for [`two_thread_speedup`].
fn spin(ms: u64) -> u64 {
    let started = std::time::Instant::now();
    let (mut x, mut n) = (0x9e37_79b9u64, 0u64);
    while started.elapsed().as_millis() < u128::from(ms) {
        for _ in 0..10_000 {
            x = std::hint::black_box(
                x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407),
            );
        }
        n += 1;
    }
    n
}

/// `(available_cores, two_thread_speedup)`: how much more of a 200 ms spin
/// kernel two threads finish than one. Near 2 on two free cores; near 1
/// when the host gives this process one.
pub fn host_parallelism() -> (f64, f64) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from) as f64;
    let one = spin(200).max(1);
    let two: u64 = std::thread::scope(|s| {
        let a = s.spawn(|| spin(200));
        let b = s.spawn(|| spin(200));
        a.join().unwrap_or(0) + b.join().unwrap_or(0)
    });
    (cores, two as f64 / one as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use audex_service::json::obj;
    use audex_service::Json;

    /// `BENCHMARK.json` as the tables above define it.
    fn benchmark_json() -> Json {
        let better =
            |d: &MetricDef| Json::from(if d.higher_is_better { "higher" } else { "lower" });
        let command = ["cargo", "run", "--release", "--offline", "--quiet", "--manifest-path"]
            .into_iter()
            .chain(["ledger/Cargo.toml", "--"]);
        obj([
            ("command", Json::Arr(command.map(Json::from).collect())),
            ("paths", Json::Arr(vec![Json::from("ledger")])),
            ("run_seconds", Json::from(RUN_SECONDS)),
            (
                "workloads",
                Json::Arr(
                    crate::gen::WORKLOADS
                        .iter()
                        .map(|w| obj([("name", Json::from(w.name)), ("why", Json::from(w.why))]))
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Json::Arr(
                    END_TO_END
                        .iter()
                        .map(|d| {
                            obj([
                                ("name", Json::from(d.name)),
                                ("unit", Json::from(d.unit)),
                                ("better", better(d)),
                                ("bound", Json::Float(d.bound)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "per_layer",
                Json::Arr(
                    PER_LAYER
                        .iter()
                        .map(|d| {
                            obj([
                                ("name", Json::from(d.name)),
                                ("unit", Json::from(d.unit)),
                                ("better", better(d)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// `--seconds` the driver passes; see README.md for how it was chosen.
    const RUN_SECONDS: u64 = 25;

    #[test]
    fn benchmark_json_lists_exactly_these_tables() {
        let want = benchmark_json();
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        let got = Json::parse(text.trim()).unwrap_or(Json::Null);
        assert_eq!(got, want, "BENCHMARK.json should read:\n{want}");
        // The issue's cap on a bound is tighter than the driver's 25%.
        assert!(PER_LAYER.len() <= 128 && END_TO_END.iter().all(|d| d.bound <= 0.20));
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
        for w in &crate::gen::WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }
}
