//! Drives the real binary end to end in `--quick` mode: every workload,
//! every gate, both result formats.

use std::path::Path;
use std::process::Command;

use audex_service::Json;

fn ledger() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ledger"))
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(text.trim()).expect("BENCHMARK.json parses")
}

fn names(list: Option<&Json>) -> Vec<String> {
    list.and_then(Json::as_arr)
        .expect("a list")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("a name").to_string())
        .collect()
}

#[test]
fn quick_ledger_passes_every_gate_and_agrees_with_itself() {
    let out = std::env::temp_dir().join(format!("ledger-quick-{}.json", std::process::id()));
    let run = ledger().args(["--quick", "--out"]).arg(&out).output().expect("run ledger");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "ledger --quick failed:\n{stdout}");
    assert!(!stdout.contains("GATE FAILED"), "{stdout}");

    let result = Json::parse(std::fs::read_to_string(&out).expect("result file").trim())
        .expect("result file parses");
    assert!(result.get("host").and_then(|h| h.get("host.available_cores")).is_some());
    let bench = benchmark_json();
    for workload in names(bench.get("workloads")) {
        let w = result.get("workloads").and_then(|ws| ws.get(&workload)).expect("workload ran");
        assert_eq!(w.get("correct"), Some(&Json::Bool(true)), "{workload}");
        assert_eq!(w.get("failed").and_then(Json::as_int), Some(0), "{workload}");
        for metric in names(bench.get("end_to_end")) {
            let value = w
                .get("end_to_end")
                .and_then(|m| m.get(&metric))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{workload} lacks {metric}"));
            assert!(value > 0.0, "{workload} {metric} = {value}");
        }
        for metric in names(bench.get("per_layer")) {
            assert!(
                w.get("per_layer").and_then(|m| m.get(&metric)).is_some(),
                "{workload} lacks {metric}"
            );
        }
        for exact in ["failed_op_share", "event_loss_share"] {
            let v = w.get("end_to_end").and_then(|m| m.get(exact)).and_then(|m| m.get("value"));
            assert_eq!(v.and_then(Json::as_f64), Some(0.0), "{workload} {exact}");
        }
    }

    // A result file agrees with itself on every row, exact counts included.
    let agree = ledger().arg("agree").arg(&out).arg(&out).output().expect("run agree");
    let table = String::from_utf8_lossy(&agree.stdout);
    assert!(agree.status.success(), "{table}");
    assert!(!table.contains("worse") && !table.contains("unresolved"), "{table}");
    let _ = std::fs::remove_file(&out);
}

#[test]
fn contract_mode_ends_with_one_result_object() {
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let run = ledger()
            .args(["--quick", "--workload", "mixed-churn", "--seed", "7", "--seconds", "1"])
            .args(["--trace", trace])
            .output()
            .expect("run ledger");
        let stdout = String::from_utf8_lossy(&run.stdout);
        assert!(run.status.success(), "{stdout}");
        let last = Json::parse(stdout.lines().last().expect("output")).expect("result object");
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)), "{stdout}");
        assert_eq!(last.get("failed").and_then(Json::as_int), Some(0));
        assert!(last.get("attempted").and_then(Json::as_int).unwrap_or(0) >= 1);
        let Some(Json::Obj(metrics)) = last.get("metrics") else { panic!("no metrics: {stdout}") };
        let got: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(got, names(benchmark_json().get(list)), "--trace {trace}");
    }
}

#[test]
fn a_failed_run_exits_non_zero_without_a_result() {
    let run = ledger().args(["--workload", "no-such-workload"]).output().expect("run ledger");
    assert!(!run.status.success());
    assert!(run.stdout.is_empty());
}
