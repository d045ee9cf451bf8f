//! What a run prints and writes: the host and config block, the metric
//! tables, the result file, and `ledger agree` over two result files.

use std::collections::BTreeMap;
use std::process::Command;

use audex_persist::WalOptions;
use audex_service::json::obj;
use audex_service::Json;

use crate::drive::SUB_QUEUE;
use crate::gen::{Sizes, WORKLOADS};
use crate::measure::{end_to_end_def, MetricDef, END_TO_END, END_TO_END_EXTRA, PER_LAYER};
use crate::stats::{median, quartiles};

/// One workload's results, aggregated over its repetitions.
#[derive(Debug, Default)]
pub struct WorkloadResult {
    pub name: String,
    pub repetitions: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Gates that failed, from any repetition.
    pub failures: Vec<String>,
    /// End-to-end metric → its value in each repetition.
    pub end_to_end: BTreeMap<String, Vec<f64>>,
    /// Per-layer metric → value, from the traced pass (empty without one).
    pub per_layer: BTreeMap<String, f64>,
    /// Exact counts of the first repetition.
    pub counts: BTreeMap<String, u64>,
    /// Ops per kind in one repetition.
    pub ops: BTreeMap<String, u64>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// A run's value of one metric: the median of its repetitions.
    pub fn value(&self, def: &MetricDef) -> Option<f64> {
        self.end_to_end.get(def.name).and_then(|runs| median(runs))
    }
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host and the fixed daemon configuration every number was taken
/// under. No throughput row is printed without `available_cores` beside it.
pub fn host_block(seed: u64, sizes: &Sizes, host: (f64, f64), one: &str, pair: &str) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let ops = Json::Obj(
        WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), Json::from(sizes.ops_per_tenant(w) * w.tenants)))
            .collect(),
    );
    obj([
        ("commit", Json::Str(first_line_of("git", &["rev-parse", "HEAD"]))),
        ("rustc", Json::Str(first_line_of("rustc", &["--version"]))),
        ("host.available_cores", Json::Float(host.0)),
        ("host.two_thread_speedup", Json::Float(host.1)),
        ("cpu_model", Json::Str(cpu_model)),
        ("cpus.one_client", Json::from(one)),
        ("cpus.fleet_pair", Json::from(pair)),
        ("storage_mode", Json::from("mvcc")),
        ("dispatch_mode", Json::from("indexed")),
        ("fsync", Json::Str(WalOptions::default().fsync.to_string())),
        ("redact_log", Json::Bool(false)),
        ("sub_queue", Json::from(SUB_QUEUE)),
        ("seed", Json::from(seed)),
        ("patients", Json::from(sizes.patients)),
        ("standing_audits", Json::from(sizes.audits)),
        ("ops", ops),
    ])
}

/// Prints a block's fields, one per line.
pub fn print_block(title: &str, block: &Json) {
    println!("{title}");
    if let Json::Obj(fields) = block {
        for (k, v) in fields {
            println!("  {k:<28} {v}");
        }
    }
}

fn direction(def: &MetricDef) -> &'static str {
    if def.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// Prints every metric of one workload by name, with its unit.
pub fn print_workload(res: &WorkloadResult, cores: f64) {
    println!(
        "\n== {}: {} repetition(s), {} ops attempted, {} failed, host.available_cores {cores} ==",
        res.name, res.repetitions, res.attempted, res.failed
    );
    if let Some(w) = crate::gen::workload(&res.name) {
        println!("  why: {}", w.why);
    }
    if !res.end_to_end.is_empty() {
        println!(
            "  {:<22} {:>14} {:<6} {:<7} {:>6}  per repetition",
            "end-to-end", "median", "unit", "better", "bound"
        );
        for def in END_TO_END.iter().chain(&END_TO_END_EXTRA) {
            let Some(runs) = res.end_to_end.get(def.name) else { continue };
            let runs_text: Vec<String> = runs.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "  {:<22} {:>14.4} {:<6} {:<7} {:>5.0}%  [{}]",
                def.name,
                median(runs).unwrap_or(0.0),
                def.unit,
                direction(def),
                def.bound * 100.0,
                runs_text.join(", ")
            );
        }
    }
    if !res.per_layer.is_empty() {
        println!("  {:<38} {:>16} {:<6} better", "per-layer", "value", "unit");
        for def in &PER_LAYER {
            if let Some(v) = res.per_layer.get(def.name) {
                println!("  {:<38} {:>16.4} {:<6} {}", def.name, v, def.unit, direction(def));
            }
        }
    }
    for f in &res.failures {
        println!("  GATE FAILED: {f}");
    }
}

/// The driver contract's result line: `--trace 0` carries every metric
/// `BENCHMARK.json` lists under `end_to_end`, `--trace 1` every one under
/// `per_layer`.
pub fn contract_line(res: &WorkloadResult, traced: bool) -> String {
    let metrics: Vec<(String, Json)> = if traced {
        PER_LAYER
            .iter()
            .map(|d| (d, res.per_layer.get(d.name).copied().unwrap_or(0.0)))
            .map(|(d, v)| (d.name.to_string(), metric_value(v, d.unit)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|d| (d.name.to_string(), metric_value(res.value(d).unwrap_or(0.0), d.unit)))
            .collect()
    };
    obj([
        ("correct", Json::Bool(res.correct())),
        ("attempted", Json::from(res.attempted.max(1))),
        ("failed", Json::from(res.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string()
}

fn metric_value(value: f64, unit: &str) -> Json {
    obj([("value", Json::Float(value)), ("unit", Json::from(unit))])
}

/// The result file: host block plus, per workload, every metric with its
/// per-repetition values and the exact counts.
pub fn ledger_json(host: &Json, results: &[WorkloadResult]) -> Json {
    let workloads = results
        .iter()
        .map(|r| {
            let e2e = r
                .end_to_end
                .iter()
                .filter_map(|(name, runs)| Some((end_to_end_def(name)?, name, runs)))
                .map(|(def, name, runs)| {
                    (
                        name.clone(),
                        obj([
                            ("value", Json::Float(median(runs).unwrap_or(0.0))),
                            ("unit", Json::from(def.unit)),
                            ("runs", Json::Arr(runs.iter().map(|v| Json::Float(*v)).collect())),
                        ]),
                    )
                })
                .collect();
            let layer = PER_LAYER
                .iter()
                .filter_map(|d| {
                    r.per_layer.get(d.name).map(|v| (d.name.to_string(), metric_value(*v, d.unit)))
                })
                .collect();
            let counts = |m: &BTreeMap<String, u64>| {
                Json::Obj(m.iter().map(|(k, v)| (k.clone(), Json::from(*v))).collect())
            };
            (
                r.name.clone(),
                obj([
                    ("correct", Json::Bool(r.correct())),
                    ("repetitions", Json::from(r.repetitions)),
                    ("attempted", Json::from(r.attempted)),
                    ("failed", Json::from(r.failed)),
                    (
                        "failures",
                        Json::Arr(r.failures.iter().map(|f| Json::from(f.as_str())).collect()),
                    ),
                    ("ops", counts(&r.ops)),
                    ("end_to_end", Json::Obj(e2e)),
                    ("per_layer", Json::Obj(layer)),
                    ("counts", counts(&r.counts)),
                ]),
            )
        })
        .collect();
    obj([("ledger", Json::from(1u64)), ("host", host.clone()), ("workloads", Json::Obj(workloads))])
}

fn runs_of(workload: &Json, metric: &str) -> Vec<f64> {
    workload
        .get("end_to_end")
        .and_then(|e| e.get(metric))
        .and_then(|m| m.get("runs"))
        .and_then(Json::as_arr)
        .map(|runs| runs.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// How one (workload, metric) pair of two result files compares.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Agree,
    Worse,
    /// The repetitions of one file spread wider than the bound, so the two
    /// medians cannot be told apart at that resolution.
    Unresolved,
}

/// Compares B's repetitions of one metric against A's, under `def`'s bound.
pub fn compare(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else { return Verdict::Unresolved };
    if def.bound == 0.0 {
        return if ma == mb { Verdict::Agree } else { Verdict::Worse };
    }
    let worse_by = if ma == 0.0 {
        0.0
    } else if def.higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    // How well a file's median repeats: the distance between the quartiles
    // of its repetitions as a share of the median.
    let spread_of = |runs: &[f64], m: f64| match quartiles(runs) {
        Some((q1, q3)) if m != 0.0 => ((q3 - q1) / m).abs(),
        _ => 0.0,
    };
    if spread_of(a, ma).max(spread_of(b, mb)) > def.bound {
        let b_always_better = b
            .iter()
            .all(|vb| a.iter().all(|va| if def.higher_is_better { vb > va } else { vb < va }));
        return if b_always_better { Verdict::Agree } else { Verdict::Unresolved };
    }
    if worse_by > def.bound {
        Verdict::Worse
    } else {
        Verdict::Agree
    }
}

/// `ledger agree A.json B.json`: one row per (workload, end-to-end metric)
/// with both medians, B as a ratio of A, and the verdict; then the exact
/// counts, which must be identical. True when every row agrees.
pub fn agree(a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut all_agree = true;
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>22} {:>6}  verdict",
        "workload", "metric", "A", "B", "B as a ratio of A", "bound"
    );
    for w in &WORKLOADS {
        let (Some(wa), Some(wb)) = (
            a.get("workloads").and_then(|x| x.get(w.name)),
            b.get("workloads").and_then(|x| x.get(w.name)),
        ) else {
            println!("{:<14} missing from one of the files", w.name);
            all_agree = false;
            continue;
        };
        for def in END_TO_END.iter().chain(&END_TO_END_EXTRA) {
            let (ra, rb) = (runs_of(wa, def.name), runs_of(wb, def.name));
            if ra.is_empty() && rb.is_empty() {
                continue;
            }
            let verdict = compare(def, &ra, &rb);
            let (ma, mb) = (median(&ra).unwrap_or(0.0), median(&rb).unwrap_or(0.0));
            let ratio =
                if ma == 0.0 { "-".to_string() } else { format!("{:.4} of {ma:.4}", mb / ma) };
            println!(
                "{:<14} {:<20} {:>14.4} {:>14.4} {:>22} {:>5.0}%  {}",
                w.name,
                def.name,
                ma,
                mb,
                ratio,
                def.bound * 100.0,
                match verdict {
                    Verdict::Agree => "agree",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
            all_agree &= verdict == Verdict::Agree;
        }
        let (ca, cb) = (wa.get("counts"), wb.get("counts"));
        if ca != cb {
            all_agree = false;
            if let (Some(Json::Obj(fa)), Some(cb)) = (ca, cb) {
                for (k, va) in fa {
                    if cb.get(k) != Some(va) {
                        println!(
                            "{:<14} count {k}: {va} vs {}",
                            w.name,
                            cb.get(k).unwrap_or(&Json::Null)
                        );
                    }
                }
            }
        } else {
            println!("{:<14} exact counts identical", w.name);
        }
    }
    Ok(all_agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_applies_bound_direction_and_spread() {
        let def =
            |higher_is_better, bound| MetricDef { name: "m", unit: "u", higher_is_better, bound };
        let (p50, tput) = (def(false, 0.1), def(true, 0.1));

        // A file's value is the median of its repetitions.
        assert_eq!(compare(&p50, &[100.0, 101.0, 102.0], &[107.0, 108.0, 109.0]), Verdict::Agree);
        assert_eq!(compare(&p50, &[100.0, 101.0, 102.0], &[113.0, 114.0, 115.0]), Verdict::Worse);
        assert_eq!(compare(&tput, &[100.0, 101.0, 102.0], &[87.0, 88.0, 89.0]), Verdict::Worse);
        assert_eq!(compare(&tput, &[100.0, 101.0, 102.0], &[113.0, 114.0, 115.0]), Verdict::Agree);
        // One stalled repetition in seven moves neither the median nor the
        // quartiles.
        let stalled = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 190.0];
        assert_eq!(compare(&p50, &stalled, &[101.0, 102.0, 103.0]), Verdict::Agree);
        // Repetitions spread wider than the bound: unresolved, unless B
        // wins every pairing.
        assert_eq!(
            compare(&p50, &[100.0, 110.0, 120.0], &[104.0, 105.0, 106.0]),
            Verdict::Unresolved
        );
        assert_eq!(compare(&p50, &[100.0, 110.0, 120.0], &[70.0, 80.0, 99.0]), Verdict::Agree);
        // Exact metrics must be identical.
        let exact = def(false, 0.0);
        assert_eq!(compare(&exact, &[0.0, 0.0], &[0.0, 0.0]), Verdict::Agree);
        assert_eq!(compare(&exact, &[0.0, 0.0], &[0.001, 0.001]), Verdict::Worse);
    }
}
