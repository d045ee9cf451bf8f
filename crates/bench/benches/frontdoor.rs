//! B14: front-door overload behaviour — the PR-6 robustness tentpole.
//!
//! Three experiments against a live in-process TCP [`Server`], results
//! written to `BENCH_6.json` at the workspace root:
//!
//! * `broadcast_throughput` — sustained `log`-request throughput through
//!   the TCP front door as standing subscribers grow ({0, 4, 16}), in two
//!   client regimes: `healthy` (every subscriber drains its socket) and
//!   `stalled` (a deterministic stall fault makes every subscriber stop
//!   reading). The claim under test: stalled subscribers are evicted from
//!   their bounded queues and ingest throughput never collapses.
//! * `shed_latency` — with `max_conns = 1` and the slot held, how long an
//!   over-cap client waits for its structured `overloaded` refusal plus
//!   close. Shedding is the overload policy; it must be fast and explicit.
//! * `fault_audit_identity` — the same logical workload audited on a clean
//!   server and on one injecting torn frames and a mid-request disconnect;
//!   the audit reports must be byte-identical.
//!
//! Run `cargo bench -p audex-bench --bench frontdoor` for real
//! measurements or `-- --test` for the CI smoke variant (tiny sizes).

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use audex_bench::scenario;
use audex_service::state::{ServiceConfig, ServiceCore};
use audex_service::{FrontDoorConfig, Json, NetFaultPlan, Server};

struct Config {
    patients: usize,
    queries: usize,
    sub_counts: Vec<usize>,
    sheds: usize,
}

fn config(quick: bool) -> Config {
    if quick {
        Config { patients: 100, queries: 80, sub_counts: vec![0, 4], sheds: 12 }
    } else {
        Config { patients: 200, queries: 400, sub_counts: vec![0, 4, 16], sheds: 100 }
    }
}

/// Binds an in-process front door and runs it on a background thread.
fn spawn_server(core: ServiceCore, cfg: FrontDoorConfig) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind_with(core, "127.0.0.1:0", cfg).expect("bind front door");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || {
        let _ = server.run();
    });
    (addr, handle)
}

/// One protocol connection: write a request line, read one response line.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Conn { writer: stream, reader }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send request");
        self.writer.flush().expect("flush request");
    }

    fn read_line(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line),
            Err(e) => panic!("read response: {e}"),
        }
    }

    fn request(&mut self, line: &str) -> Json {
        self.send(line);
        let resp = self.read_line().unwrap_or_else(|| panic!("no response to {line}"));
        Json::parse(&resp).unwrap_or_else(|e| panic!("bad JSON {resp:?}: {e}"))
    }
}

fn json_escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

fn stat(stats: &Json, field: &str) -> i64 {
    stats.get(field).and_then(Json::as_int).unwrap_or_else(|| panic!("no {field} in {stats}"))
}

fn assert_ok(resp: &Json, what: &str) {
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{what}: {resp}");
}

// --- Experiment 1: ingest throughput vs subscriber count and health. ----

struct BroadcastRow {
    subs: usize,
    stalled: bool,
    queries: usize,
    secs: f64,
    qps: f64,
    evicted: i64,
}

fn broadcast_throughput(cfg: &Config, subs: usize, stalled: bool) -> BroadcastRow {
    let s = scenario(cfg.patients, cfg.queries, 0.08, 42);
    let entries = s.log.snapshot();
    let core = ServiceCore::new(
        s.db,
        ServiceConfig { metrics_every: Some(1), ..ServiceConfig::default() },
    );
    // Stalled mode: every subscriber connection's writes absorb 64 bytes
    // and then time out — the deterministic model of a peer that stops
    // draining its socket. Subscribers connect first, so they own accept
    // ordinals 1..=subs; the driver is ordinal subs+1 and stays clean.
    let mut faults = NetFaultPlan::new();
    if stalled {
        for ordinal in 1..=subs as u64 {
            faults = faults.stall_writes(ordinal, 64);
        }
    }
    let front = FrontDoorConfig { sub_queue: 32, faults, ..FrontDoorConfig::default() };
    let (addr, server) = spawn_server(core, front);

    let mut readers = Vec::new();
    let mut parked = Vec::new();
    for _ in 0..subs {
        let mut sub = Conn::open(&addr);
        sub.send(r#"{"cmd":"subscribe"}"#);
        if stalled {
            parked.push(sub); // keeps the socket open, never reads
        } else {
            readers.push(std::thread::spawn(move || {
                let mut events = 0usize;
                while sub.read_line().is_some() {
                    events += 1;
                }
                events
            }));
        }
    }

    let mut driver = Conn::open(&addr);
    let deadline = Instant::now() + Duration::from_secs(5);
    while subs > 0 && Instant::now() < deadline {
        let stats = driver.request(r#"{"cmd":"stats"}"#);
        if stat(&stats, "subscribers") >= subs as i64 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    let t = Instant::now();
    for e in &entries {
        let req = format!(
            r#"{{"cmd":"log","ts":{},"user":"{}","role":"{}","purpose":"{}","sql":"{}"}}"#,
            e.executed_at.0,
            json_escape(&e.context.user.to_string()),
            json_escape(&e.context.role.to_string()),
            json_escape(&e.context.purpose.to_string()),
            json_escape(&e.text),
        );
        let resp = driver.request(&req);
        assert_ok(&resp, "log request");
    }
    let secs = t.elapsed().as_secs_f64();
    let qps = if secs > 0.0 { entries.len() as f64 / secs } else { 0.0 };

    let stats = driver.request(r#"{"cmd":"stats"}"#);
    let evicted = stat(&stats, "subscribers_evicted");
    if stalled && subs > 0 {
        assert!(
            evicted >= subs as i64,
            "only {evicted} of {subs} stalled subscribers evicted: {stats}"
        );
    }
    let resp = driver.request(r#"{"cmd":"shutdown"}"#);
    assert_ok(&resp, "shutdown");
    server.join().expect("server thread");
    for reader in readers {
        let _ = reader.join().expect("subscriber reader thread");
    }
    BroadcastRow { subs, stalled, queries: entries.len(), secs, qps, evicted }
}

// --- Experiment 2: connection-cap shedding latency. ---------------------

fn shed_latency(cfg: &Config) -> (f64, f64, f64) {
    let core = ServiceCore::new(audex_storage::Database::new(), ServiceConfig::default());
    let front = FrontDoorConfig { max_conns: 1, ..FrontDoorConfig::default() };
    let (addr, server) = spawn_server(core, front);

    // The holder occupies the single slot; its round trip proves the
    // accept happened, so every later connect is over cap.
    let mut holder = Conn::open(&addr);
    assert_ok(&holder.request(r#"{"cmd":"stats"}"#), "holder stats");

    let mut lat_us: Vec<f64> = Vec::with_capacity(cfg.sheds);
    for _ in 0..cfg.sheds {
        let t = Instant::now();
        let stream = TcpStream::connect(&addr).expect("connect over cap");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("read shed notice");
        let us = t.elapsed().as_secs_f64() * 1e6;
        let v = Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad JSON {line:?}: {e}"));
        assert_eq!(v.get("error").and_then(Json::as_str), Some("overloaded"), "{v}");
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).expect("read close"), 0, "not closed");
        lat_us.push(us);
    }
    assert_ok(&holder.request(r#"{"cmd":"shutdown"}"#), "shutdown");
    server.join().expect("server thread");

    lat_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let mean = lat_us.iter().sum::<f64>() / lat_us.len() as f64;
    let p50 = lat_us[lat_us.len() / 2];
    let max = *lat_us.last().expect("at least one shed");
    (p50, mean, max)
}

// --- Experiment 3: byte-identical audit under network faults. -----------

/// The paper's Tables 1–3 as a DML script (same data as
/// `tests/service_stream.rs`).
const PAPER_TABLES_DML: &str = "\
    CREATE TABLE P-Personal (pid TEXT, name TEXT, age INT, sex TEXT, zipcode TEXT, address TEXT); \
    CREATE TABLE P-Health (pid TEXT, ward TEXT, doc-name TEXT, disease TEXT, pres-drugs TEXT); \
    INSERT INTO P-Personal VALUES \
      ('p1', 'Jane', 25, 'F', '177893', 'A1'), \
      ('p2', 'Reku', 35, 'M', '145568', 'A2'), \
      ('p13', 'Robert', 29, 'M', '188888', 'A3'), \
      ('p28', 'Lucy', 20, 'F', '145568', 'A4'); \
    INSERT INTO P-Health VALUES \
      ('p1', 'W11', 'Hassan', 'flu', 'drug2'), \
      ('p2', 'W12', 'Nicholas', 'diabetic', 'drug1'), \
      ('p13', 'W14', 'Ramesh', 'Malaria', 'drug3'), \
      ('p28', 'W14', 'King U', 'diabetic', 'drug1');";

fn audit_report(faults: NetFaultPlan) -> String {
    let faulty = !faults.is_empty();
    let core = ServiceCore::new(audex_storage::Database::new(), ServiceConfig::default());
    let front = FrontDoorConfig { faults, ..FrontDoorConfig::default() };
    let (addr, server) = spawn_server(core, front);

    // Conn 1 — the driver — reads everything torn into 3-byte fragments
    // in the faulty run; the workload must still land identically.
    let mut driver = Conn::open(&addr);
    let dml =
        format!(r#"{{"cmd":"dml","ts":"1/1/2008","sql":"{}"}}"#, json_escape(PAPER_TABLES_DML));
    assert_ok(&driver.request(&dml), "dml");
    let expr = "DATA-INTERVAL 1/1/2008 TO 7/4/2008 INDISPENSABLE true \
                AUDIT disease FROM P-Personal, P-Health \
                WHERE P-Personal.pid=P-Health.pid and P-Personal.zipcode='145568'";
    let register = format!(
        r#"{{"cmd":"register","name":"snoop","expr":"{}","now":1207267200}}"#,
        json_escape(expr)
    );
    assert_ok(&driver.request(&register), "register");
    let base = 1_199_145_600 + 3_600;
    for (i, sql) in [
        "SELECT name, disease FROM P-Personal, P-Health \
         WHERE P-Personal.pid = P-Health.pid AND ward = 'W14'",
        "SELECT disease FROM P-Personal, P-Health \
         WHERE P-Personal.pid = P-Health.pid AND zipcode = '145568'",
        "SELECT zipcode FROM P-Personal WHERE age > 30",
        "SELECT address FROM P-Personal WHERE name = 'Lucy'",
    ]
    .iter()
    .enumerate()
    {
        let req = format!(
            r#"{{"cmd":"log","ts":{},"user":"u-7","role":"doctor","purpose":"treatment","sql":"{}"}}"#,
            base + i as i64 * 600,
            json_escape(sql)
        );
        assert_ok(&driver.request(&req), "log");
    }
    if faulty {
        // Conn 2 dies 40 bytes into a request line: the server must count
        // the truncated frame and nothing else.
        let mut dying = Conn::open(&addr);
        dying.send(&format!(
            r#"{{"cmd":"log","ts":9,"user":"u-9","role":"doctor","purpose":"treatment","sql":"{}"}}"#,
            "SELECT name FROM P-Personal ".repeat(4)
        ));
    }
    let report = driver.request(r#"{"cmd":"audit","name":"snoop"}"#);
    assert_ok(&report, "audit");
    assert_ok(&driver.request(r#"{"cmd":"shutdown"}"#), "shutdown");
    server.join().expect("server thread");
    report.to_string()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    let cfg = config(quick);
    let mut rows = String::new();

    let mut baseline_qps = 0.0f64;
    let mut worst_qps = f64::INFINITY;
    for &subs in &cfg.sub_counts {
        for stalled in [false, true] {
            if subs == 0 && stalled {
                continue;
            }
            let row = broadcast_throughput(&cfg, subs, stalled);
            let mode = if row.stalled { "stalled" } else { "healthy" };
            if row.subs == 0 {
                baseline_qps = row.qps;
            }
            worst_qps = worst_qps.min(row.qps);
            println!(
                "broadcast_throughput subs={} mode={mode} queries={} secs={:.4} qps={:.0} \
                 evicted={}",
                row.subs, row.queries, row.secs, row.qps, row.evicted
            );
            let _ = writeln!(
                rows,
                "    {{\"experiment\": \"broadcast_throughput\", \"subscribers\": {}, \
                 \"mode\": \"{mode}\", \"queries\": {}, \"secs\": {:.6}, \"qps\": {:.1}, \
                 \"evicted\": {}}},",
                row.subs, row.queries, row.secs, row.qps, row.evicted
            );
        }
    }

    let (p50, mean, max) = shed_latency(&cfg);
    println!("shed_latency sheds={} p50_us={p50:.0} mean_us={mean:.0} max_us={max:.0}", cfg.sheds);
    let _ = writeln!(
        rows,
        "    {{\"experiment\": \"shed_latency\", \"sheds\": {}, \"p50_us\": {p50:.1}, \
         \"mean_us\": {mean:.1}, \"max_us\": {max:.1}}},",
        cfg.sheds
    );

    let clean = audit_report(NetFaultPlan::new());
    let torn = audit_report(NetFaultPlan::new().torn_frames(1, 3).disconnect_after(2, 40));
    let identical = clean == torn;
    assert!(identical, "audit diverged under faults:\n  clean: {clean}\n  torn:  {torn}");
    println!("fault_audit_identity identical={identical}");
    let _ = writeln!(
        rows,
        "    {{\"experiment\": \"fault_audit_identity\", \"identical\": {identical}}},"
    );

    let retained = if baseline_qps > 0.0 { worst_qps / baseline_qps } else { 0.0 };
    let rows = rows.trim_end().trim_end_matches(',');
    let json = format!(
        "{{\n  \"bench\": \"frontdoor\",\n  \"mode\": \"{}\",\n  \
         \"worst_case_qps_retained_vs_no_subscribers\": {retained:.3},\n  \
         \"audit_identical_under_faults\": {identical},\n  \"rows\": [\n{rows}\n  ]\n}}\n",
        if quick { "quick" } else { "full" }
    );
    audex_bench::write_report("BENCH_6.json", quick, &json);
    println!(
        "worst-case ingest qps (any subscriber mix) retains {:.0}% of the \
         no-subscriber baseline; audit byte-identical under faults: {identical}",
        retained * 100.0
    );
}
