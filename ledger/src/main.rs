//! `ledger` — the one end-to-end, layer-attributed benchmark for `audexd`.
//!
//! ```text
//! ledger [--seed N] [--quick] [--no-trace] [--out FILE]
//!     every workload: three end-to-end repetitions (one under --quick),
//!     then the traced pass
//! ledger --workload W --seed N --seconds S --trace 0|1
//!     one workload, one phase, a repetition per five seconds of S; the
//!     last line of stdout is the result object BENCHMARK.json's driver
//!     reads
//! ledger agree A.json B.json
//!     compares two result files against the bounds
//! ```
//!
//! Every repetition runs in a fresh child process of this binary on a
//! fresh data directory under `<target dir>/ledger/`; README.md beside
//! `Cargo.toml` has the protocol, the glossary and the first readings.

mod drive;
mod gen;
mod measure;
mod replay;
mod report;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use audex_service::json::obj;
use audex_service::Json;

use drive::RepSpec;
use gen::{Sizes, Workload, WORKLOADS};
use report::WorkloadResult;

/// What `--seconds` takes one repetition to cost: set-up, drive, drain and
/// reopen of the default sizes on the builder's host, all four of them
/// measured.
const NOMINAL_REP_SECONDS: f64 = 5.0;

#[derive(Debug)]
struct Opts {
    workload: Option<&'static Workload>,
    seed: u64,
    quick: bool,
    /// `--trace 0|1`: run only that phase and end with the contract line.
    trace: Option<bool>,
    no_trace: bool,
    seconds: Option<f64>,
    out: Option<PathBuf>,
    cpus: Cpus,
}

impl Opts {
    /// Repetitions per workload; a run's value of a metric is their median.
    /// The count follows from the command line alone, never from how fast
    /// the repetitions ran, so parent and change take the median of the same
    /// number of draws.
    fn repetitions(&self) -> usize {
        match self.seconds {
            Some(seconds) => ((seconds / NOMINAL_REP_SECONDS).ceil() as usize).max(1),
            None if self.quick => 1,
            None => 3,
        }
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        quick: false,
        trace: None,
        no_trace: false,
        seconds: None,
        out: None,
        cpus: Cpus::of_this_process()?,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload =
                    Some(gen::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--no-trace" => o.no_trace = true,
            "--quick" => o.quick = true,
            "--out" => o.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

/// `<target dir>/ledger/`: data directories and traces live beside the
/// build, inside the checkout and out of version control.
fn run_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let root = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("the executable has no target directory above it")?
        .join("ledger");
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
    Ok(root)
}

/// The CPUs repetitions are pinned to with `taskset -c`.
///
/// One closed-loop client keeps one thread busy at a time, so a second CPU
/// buys such a workload nothing — but *which* second CPU the host lends
/// decides the cost of every cross-thread wake-up: on the builder's host the
/// same `mixed-churn` repetition ran at 350 or 750 ops/s as the two vCPUs
/// moved between separate cores and one core's hyperthreads. Pinning takes
/// that out of the numbers, so a run that cannot pin fails: its numbers
/// would not compare with any baseline.
#[derive(Debug)]
struct Cpus {
    /// The first CPU this process may use: every repetition with one busy
    /// thread (one tenant, or an in-process pass) runs there.
    one: String,
    /// The first two: `fleet-pair`'s daemon repetitions, clients = cores,
    /// and the `ingest-sparse` repetition `tenant.pair_speedup` divides by.
    pair: String,
}

impl Cpus {
    fn of_this_process() -> Result<Cpus, String> {
        let status = std::fs::read_to_string("/proc/self/status")
            .map_err(|e| format!("/proc/self/status: {e}"))?;
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .ok_or("/proc/self/status has no Cpus_allowed_list")?
            .trim();
        let mut allowed: Vec<String> = Vec::new();
        for part in list.split(',') {
            let (first, last) = part.split_once('-').unwrap_or((part, part));
            let bad = |_| format!("bad Cpus_allowed_list {list:?}");
            let (first, last): (usize, usize) =
                (first.parse().map_err(bad)?, last.parse().map_err(bad)?);
            allowed.extend((first..=last).map(|cpu| cpu.to_string()));
        }
        let cpus = Cpus {
            one: allowed[..allowed.len().min(1)].join(","),
            pair: allowed[..allowed.len().min(2)].join(","),
        };
        let pins = Command::new("taskset")
            .args(["-c", &cpus.pair, "true"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
        if pins {
            Ok(cpus)
        } else {
            Err(format!("`taskset -c {} true` failed: repetitions cannot be pinned", cpus.pair))
        }
    }
}

/// Runs one repetition of `mode` in a fresh child process pinned to `cpus`,
/// on a fresh data directory, and returns the object the child printed.
fn child(mode: &str, w: &Workload, cpus: &str, o: &Opts, root: &Path) -> Result<Json, String> {
    let dir = root.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new("taskset");
    cmd.args(["-c", cpus])
        .arg(exe)
        .arg("rep")
        .args(["--mode", mode, "--workload", w.name, "--seed", &o.seed.to_string(), "--dir"])
        .arg(&dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if o.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn repetition: {e}"));
    if mode == "trace" {
        let _ =
            std::fs::rename(dir.join("trace.json"), root.join(format!("trace-{}.json", w.name)));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let output = output?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{} repetition of {} exited with {}", mode, w.name, output.status));
    }
    let line = stdout.lines().last().ok_or("the repetition printed nothing")?;
    Json::parse(line).map_err(|e| format!("bad repetition result {line:?}: {e}"))
}

fn str_list(v: Option<&Json>) -> Vec<String> {
    v.and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_str).map(str::to_string).collect())
        .unwrap_or_default()
}

/// The end-to-end phase of one workload: its repetitions.
fn end_to_end_phase(w: &'static Workload, o: &Opts, root: &Path) -> Result<WorkloadResult, String> {
    let mut res = WorkloadResult { name: w.name.to_string(), ..Default::default() };
    let cpus = if w.tenants == 1 { &o.cpus.one } else { &o.cpus.pair };
    for _ in 0..o.repetitions() {
        let rep = child("e2e", w, cpus, o, root)?;
        if let Some(Json::Obj(metrics)) = rep.get("metrics") {
            for (name, v) in metrics {
                res.end_to_end.entry(name.clone()).or_default().extend(v.as_f64());
            }
        }
        res.attempted += drive::stat(&rep, "attempted");
        res.failed += drive::stat(&rep, "failed");
        res.failures.extend(str_list(rep.get("failures")));
        if res.repetitions == 0 {
            for (field, into) in [("counts", &mut res.counts), ("ops", &mut res.ops)] {
                if let Some(Json::Obj(fields)) = rep.get(field) {
                    into.extend(
                        fields.iter().map(|(k, v)| (k.clone(), v.as_int().unwrap_or(0) as u64)),
                    );
                }
            }
        }
        res.repetitions += 1;
    }
    Ok(res)
}

/// The traced pass of one workload, folded into `res`. Three fresh
/// processes — a daemon repetition for counts and client-side latencies,
/// the in-process pass with the recorder off, the same with it on — because
/// whatever ran earlier in a process (a gigabyte of freed heap) moves the
/// timings of what runs next by tens of percent.
fn traced_phase(
    w: &Workload,
    o: &Opts,
    root: &Path,
    host: (f64, f64),
    res: &mut WorkloadResult,
) -> Result<(), String> {
    let number = |v: &Json, key: &str| {
        v.get(key).and_then(Json::as_f64).ok_or_else(|| format!("a repetition reported no {key}"))
    };
    let metrics_of = |v: &Json, key: &str| match v.get(key) {
        Some(Json::Obj(fields)) => Ok(fields.clone()),
        _ => Err(format!("a repetition reported no {key}")),
    };
    let daemon_cpus = if w.tenants == 1 { &o.cpus.one } else { &o.cpus.pair };
    let daemon = child("e2e", w, daemon_cpus, o, root)?;
    let daemon_e2e = daemon.get("metrics").ok_or("a repetition reported no metrics")?;
    // The in-process passes are single-threaded whatever the workload.
    let untraced = child("untraced", w, &o.cpus.one, o, root)?;
    let traced = child("trace", w, &o.cpus.one, o, root)?;

    for (name, v) in
        metrics_of(&daemon, "layers")?.into_iter().chain(metrics_of(&traced, "metrics")?)
    {
        res.per_layer.extend(v.as_f64().map(|v| (name, v)));
    }
    let mut derived = |name: &str, v: f64| res.per_layer.insert(name.to_string(), v);
    derived("host.available_cores", host.0);
    derived("host.two_thread_speedup", host.1);
    derived(
        "server.rtt_overhead_us",
        number(daemon_e2e, "log_p50_us")? - number(&traced, "handler_log_p50_us")?,
    );
    let (on, off) = (number(&traced, "drive_s")?, number(&untraced, "drive_s")?);
    derived("trace.overhead_share", (on - off) / off);
    let mut pair_speedup = 0.0;
    if w.tenants > 1 {
        // The same stream on one tenant and one connection, back to back
        // and on the same two CPUs.
        let single = gen::workload("ingest-sparse").ok_or("no ingest-sparse workload")?;
        let base = child("e2e", single, &o.cpus.pair, o, root)?;
        let base_e2e = base.get("metrics").ok_or("a repetition reported no metrics")?;
        pair_speedup = number(daemon_e2e, "ops_per_s")? / number(base_e2e, "ops_per_s")?;
    }
    derived("tenant.pair_speedup", pair_speedup);

    res.failures.extend(str_list(daemon.get("failures")));
    if daemon.get("reply_digests") != traced.get("reply_digests") {
        res.failures.push("the in-process pass answered differently from the daemon".into());
    }
    if res.repetitions == 0 {
        res.attempted = drive::stat(&daemon, "attempted");
        res.failed = drive::stat(&daemon, "failed");
    }
    Ok(())
}

fn run(o: &Opts) -> Result<bool, String> {
    let root = run_root()?;
    let sizes = if o.quick { Sizes::QUICK } else { Sizes::DEFAULT };
    let host = measure::host_parallelism();
    let host_block = report::host_block(o.seed, &sizes, host, &o.cpus.one, &o.cpus.pair);
    report::print_block("host and config", &host_block);

    let workloads: Vec<&'static Workload> = match o.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut results = Vec::new();
    for w in workloads {
        let mut res = if o.trace == Some(true) {
            WorkloadResult { name: w.name.to_string(), ..Default::default() }
        } else {
            end_to_end_phase(w, o, &root)?
        };
        if o.trace == Some(true) || (o.trace.is_none() && !o.no_trace) {
            traced_phase(w, o, &root, host, &mut res)?;
        }
        report::print_workload(&res, host.0);
        results.push(res);
    }
    if let Some(path) = &o.out {
        let text = format!("{}\n", report::ledger_json(&host_block, &results));
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    if let (Some(traced), [res]) = (o.trace, results.as_slice()) {
        println!("{}", report::contract_line(res, traced));
    }
    Ok(results.iter().all(WorkloadResult::correct))
}

/// `ledger rep …`: one repetition, in this (child) process. Prints one
/// JSON object on stdout.
fn rep(args: &[String]) -> Result<(), String> {
    let (mut mode, mut workload, mut seed, mut dir, mut quick) = (None, None, 1u64, None, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--mode" => mode = Some(value()?.clone()),
            "--workload" => workload = gen::workload(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--dir" => dir = Some(PathBuf::from(value()?)),
            "--quick" => quick = true,
            other => return Err(format!("rep: unknown argument {other:?}")),
        }
    }
    let spec = RepSpec {
        workload: workload.ok_or("rep: --workload")?,
        sizes: if quick { Sizes::QUICK } else { Sizes::DEFAULT },
        seed,
        dir: dir.ok_or("rep: --dir")?,
    };
    let metrics_json = |m: &measure::Metrics| {
        Json::Obj(m.iter().map(|(k, v)| (k.to_string(), Json::Float(*v))).collect())
    };
    let list = |v: &[String]| Json::Arr(v.iter().map(|s| Json::from(s.as_str())).collect());
    let result = match mode.as_deref() {
        Some("e2e") => {
            let rep = drive::run(&spec)?;
            let counts = measure::exact_counts(&rep);
            obj([
                ("metrics", metrics_json(&measure::end_to_end(&rep))),
                ("layers", metrics_json(&measure::daemon_layers(&spec, &rep))),
                ("attempted", Json::from(rep.attempted)),
                ("failed", Json::from(rep.failed())),
                ("failures", list(&rep.failures)),
                ("reply_digests", list(&rep.reply_digests())),
                (
                    "counts",
                    Json::Obj(counts.into_iter().map(|(k, v)| (k, Json::from(v))).collect()),
                ),
                (
                    "ops",
                    Json::Obj(
                        rep.ops.iter().map(|(k, v)| (k.to_string(), Json::from(*v))).collect(),
                    ),
                ),
            ])
        }
        Some("untraced") => obj([("drive_s", Json::Float(replay::run(&spec, false)?.drive_s))]),
        Some("trace") => {
            let pass = replay::run(&spec, true)?;
            let metrics = measure::replay_layers(&pass);
            let path = spec.dir.join("trace.json");
            std::fs::write(&path, pass.trace.chrome_json())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            obj([
                ("metrics", metrics_json(&metrics)),
                ("handler_log_p50_us", Json::Float(measure::handler_log_p50_us(&pass))),
                ("drive_s", Json::Float(pass.drive_s)),
                ("reply_digests", list(&pass.reply_digests)),
            ])
        }
        other => return Err(format!("rep: unknown --mode {other:?}")),
    };
    println!("{result}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("rep") => rep(&args[1..]).map(|()| true),
        Some("agree") => match &args[1..] {
            [a, b] => report::agree(a, b),
            _ => Err("usage: ledger agree A.json B.json".to_string()),
        },
        _ => parse_opts(&args).and_then(|o| run(&o)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}
