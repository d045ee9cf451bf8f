//! End-to-end robustness proof for the overload-safe TCP front door:
//! a stalled subscriber is evicted instead of blocking ingest, accepts
//! over the connection cap are shed with a structured error, deterministic
//! network faults (torn frames, mid-request disconnects, slow writers,
//! garbage, oversized lines) leave the audit report byte-identical to a
//! clean run, idle connections are reaped, a graceful drain flushes
//! subscriber queues before exit, and the blocking acceptor stops promptly
//! on SIGTERM or `shutdown` without counting the connection that wakes it.

use audex::service::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Spawns `audex serve --listen 127.0.0.1:0 [extra]` and returns the child
/// plus the bound address scraped from the stderr banner.
fn spawn_serve(extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_audex"))
        .args(["serve", "--listen", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn audex serve --listen");
    let mut banner = String::new();
    let mut stderr = BufReader::new(child.stderr.take().expect("server stderr"));
    stderr.read_line(&mut banner).expect("read banner");
    // Keep draining stderr in the background so the server never blocks on
    // a full pipe.
    std::thread::spawn(move || for _ in stderr.lines() {});
    let addr = banner.trim().rsplit(' ').next().expect("address in banner").to_string();
    (child, addr)
}

/// One protocol connection: write a request line, read one response line.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
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

/// The paper's Tables 1–3 as a DML script (same data as
/// `tests/service_stream.rs`).
const PAPER_TABLES_DML: &str = "\
    CREATE TABLE P-Personal (pid TEXT, name TEXT, age INT, sex TEXT, zipcode TEXT, address TEXT); \
    CREATE TABLE P-Health (pid TEXT, ward TEXT, doc-name TEXT, disease TEXT, pres-drugs TEXT); \
    CREATE TABLE P-Employ (pid TEXT, employer TEXT, salary INT); \
    INSERT INTO P-Personal VALUES \
      ('p1', 'Jane', 25, 'F', '177893', 'A1'), \
      ('p2', 'Reku', 35, 'M', '145568', 'A2'), \
      ('p13', 'Robert', 29, 'M', '188888', 'A3'), \
      ('p28', 'Lucy', 20, 'F', '145568', 'A4'); \
    INSERT INTO P-Health VALUES \
      ('p1', 'W11', 'Hassan', 'flu', 'drug2'), \
      ('p2', 'W12', 'Nicholas', 'diabetic', 'drug1'), \
      ('p13', 'W14', 'Ramesh', 'Malaria', 'drug3'), \
      ('p28', 'W14', 'King U', 'diabetic', 'drug1'); \
    INSERT INTO P-Employ VALUES \
      ('p1', 'E1', 12000), \
      ('p2', 'E2', 20000), \
      ('p13', 'E3', 9000), \
      ('p28', 'E4', 19000);";

fn tables_dml_request() -> String {
    format!(r#"{{"cmd":"dml","ts":"1/1/2008","sql":"{}"}}"#, json_escape(PAPER_TABLES_DML))
}

fn register_request() -> String {
    let expr = "DATA-INTERVAL 1/1/2008 TO 7/4/2008 INDISPENSABLE true \
                AUDIT disease FROM P-Personal, P-Health \
                WHERE P-Personal.pid=P-Health.pid and P-Personal.zipcode='145568'";
    format!(
        r#"{{"cmd":"register","name":"snoop","expr":"{}","now":1207267200}}"#,
        json_escape(expr)
    )
}

fn log_request(ts: i64, sql: &str) -> String {
    format!(
        r#"{{"cmd":"log","ts":{ts},"user":"u-7","role":"doctor","purpose":"treatment","sql":"{}"}}"#,
        json_escape(sql)
    )
}

/// The streamed query log: a handful of lookups against Tables 1–3, one of
/// them the planted snooping access Fig. 4 is after.
fn workload_logs() -> Vec<String> {
    let base = 1_199_145_600 + 3_600; // 1/1/2008 + 1h
    vec![
        log_request(
            base,
            "SELECT name, disease FROM P-Personal, P-Health \
             WHERE P-Personal.pid = P-Health.pid AND ward = 'W14'",
        ),
        log_request(
            base + 600,
            "SELECT disease FROM P-Personal, P-Health \
             WHERE P-Personal.pid = P-Health.pid AND zipcode = '145568'",
        ),
        log_request(base + 1200, "SELECT zipcode FROM P-Personal WHERE age > 30"),
        log_request(base + 1800, "SELECT salary FROM P-Employ WHERE salary > 10000"),
        log_request(base + 2400, "SELECT address FROM P-Personal WHERE name = 'Lucy'"),
        log_request(base + 3000, "SELECT doc-name FROM P-Health WHERE disease = 'flu'"),
    ]
}

fn stat(stats: &Json, field: &str) -> i64 {
    stats.get(field).and_then(Json::as_int).unwrap_or_else(|| panic!("no {field} in {stats}"))
}

/// Polls `stats` on `conn` until `pred` holds or the deadline passes;
/// returns the last stats object.
fn poll_stats(conn: &mut Conn, deadline: Duration, pred: impl Fn(&Json) -> bool) -> Json {
    let start = Instant::now();
    loop {
        let stats = conn.request(r#"{"cmd":"stats"}"#);
        if pred(&stats) || start.elapsed() > deadline {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn shutdown_and_wait(conn: &mut Conn, server: &mut Child) {
    let resp = conn.request(r#"{"cmd":"shutdown"}"#);
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    assert!(server.wait().expect("server exits").success());
}

/// The acceptance criterion: with a subscriber that never drains its
/// socket (server-side stall fault — deterministic, no kernel buffer
/// tuning), the Tables 1–3 workload completes promptly, the stalled
/// subscriber is evicted, and the eviction lands on the `obs` counter.
/// Under the old design the first broadcast blocked forever inside the
/// core lock, hanging every other connection.
#[test]
fn stalled_subscriber_is_evicted_and_never_blocks_ingest() {
    // Conn 1 = the stalled subscriber: its writes absorb 1 byte then time
    // out. A tiny queue makes the eviction trip on the first few events.
    let (mut server, addr) =
        spawn_serve(&["--metrics-every", "1", "--sub-queue", "4", "--net-fault", "stall:1:1"]);

    let mut stalled = Conn::open(&addr);
    stalled.send(r#"{"cmd":"subscribe"}"#); // never reads anything back

    let mut driver = Conn::open(&addr);
    // The subscribe ack itself goes through the stalled writer, so the
    // subscriber can already have been evicted when the first poll looks:
    // wait on the evidence that only grows (attached now, or evicted since).
    let attached = |s: &Json| stat(s, "subscribers") >= 1 || stat(s, "subscribers_evicted") >= 1;
    let stats = poll_stats(&mut driver, Duration::from_secs(5), attached);
    assert!(attached(&stats), "subscriber never attached: {stats}");

    let started = Instant::now();
    let mut requests = vec![tables_dml_request(), register_request()];
    requests.extend(workload_logs());
    requests.push(r#"{"cmd":"audit","name":"snoop"}"#.to_string());
    for req in &requests {
        let resp = driver.request(req);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "request {req} failed: {resp}");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(10),
        "ingest took {elapsed:?} with a stalled subscriber attached"
    );

    let stats =
        poll_stats(&mut driver, Duration::from_secs(5), |s| stat(s, "subscribers_evicted") >= 1);
    assert!(stat(&stats, "subscribers_evicted") >= 1, "no eviction counted: {stats}");
    assert_eq!(stat(&stats, "subscribers"), 0, "evicted subscriber still attached: {stats}");
    assert_eq!(stat(&stats, "queries_ingested"), 6, "{stats}");

    shutdown_and_wait(&mut driver, &mut server);
}

/// Accepts over `--max-conns` are shed with one structured line and a
/// close — clients get a fast explicit refusal, never a queue.
#[test]
fn over_cap_accepts_are_shed_with_structured_error() {
    let (mut server, addr) = spawn_serve(&["--max-conns", "1"]);
    let mut holder = Conn::open(&addr);
    let resp = holder.request(r#"{"cmd":"stats"}"#);
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");

    let mut shed = Conn::open(&addr);
    let line = shed.read_line().expect("shed notice");
    let v = Json::parse(&line).unwrap_or_else(|e| panic!("bad JSON {line:?}: {e}"));
    assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{v}");
    assert_eq!(v.get("error").and_then(Json::as_str), Some("overloaded"), "{v}");
    assert!(shed.read_line().is_none(), "shed connection should be closed");

    let stats =
        poll_stats(&mut holder, Duration::from_secs(5), |s| stat(s, "connections_shed") >= 1);
    assert!(stat(&stats, "connections_shed") >= 1, "{stats}");
    assert_eq!(stat(&stats, "connections"), 1, "{stats}");

    shutdown_and_wait(&mut holder, &mut server);
}

/// Malformed and oversized frames are answered with structured errors and
/// counted; the connection (and the server) keep serving afterwards.
#[test]
fn garbage_and_oversized_frames_never_kill_the_connection() {
    let (mut server, addr) = spawn_serve(&["--max-line-bytes", "128"]);
    let mut conn = Conn::open(&addr);

    let resp = conn.request("this is not json");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp}");

    let huge = format!(r#"{{"cmd":"stats","pad":"{}"}}"#, "x".repeat(4096));
    let resp = conn.request(&huge);
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp}");
    assert!(
        resp.get("error").and_then(Json::as_str).is_some_and(|e| e.contains("128 bytes")),
        "{resp}"
    );

    // Interleaved carriage returns and a blank line are tolerated noise.
    conn.send("\r");
    let stats = conn.request(r#"{"cmd":"stats"}"#);
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)), "{stats}");
    assert_eq!(stat(&stats, "frames_malformed"), 1, "{stats}");
    assert_eq!(stat(&stats, "frames_oversized"), 1, "{stats}");

    shutdown_and_wait(&mut conn, &mut server);
}

/// `--conn-idle-ms` reaps silent connections with a structured notice and
/// counts them; a working connection is unaffected.
#[test]
fn idle_connections_are_reaped() {
    let (mut server, addr) = spawn_serve(&["--conn-idle-ms", "150"]);
    let mut idle = Conn::open(&addr);
    let notice = idle.read_line().expect("idle notice before close");
    let v = Json::parse(&notice).unwrap_or_else(|e| panic!("bad JSON {notice:?}: {e}"));
    assert_eq!(v.get("error").and_then(Json::as_str), Some("idle timeout"), "{v}");
    assert!(idle.read_line().is_none(), "idle connection should be closed");

    let mut driver = Conn::open(&addr);
    let stats =
        poll_stats(&mut driver, Duration::from_secs(5), |s| stat(s, "conn_idle_timeouts") >= 1);
    assert!(stat(&stats, "conn_idle_timeouts") >= 1, "{stats}");
    shutdown_and_wait(&mut driver, &mut server);
}

/// The byte-identical guarantee: the audit report produced while faulty
/// clients churn (torn frames, a mid-request disconnect, a slow writer,
/// plain garbage) equals the report from a clean, fault-free run of the
/// same logical workload.
#[test]
fn audit_report_is_byte_identical_under_network_faults() {
    let audit_under = |faulty: bool| -> (String, Json) {
        let fault_args: &[&str] = if faulty {
            // Conn 2: valid requests delivered 3 bytes at a time.
            // Conn 3: dies 40 bytes into a request line.
            // Conn 4: valid requests, each read paused 1ms.
            &["--net-fault", "torn:2:3", "--net-fault", "eof:3:40", "--net-fault", "slow:4:1"]
        } else {
            &[]
        };
        let (mut server, addr) = spawn_serve(fault_args);

        // Conn 1: the clean driver loads the schema and the expression.
        let mut driver = Conn::open(&addr);
        for req in [tables_dml_request(), register_request()] {
            let resp = driver.request(&req);
            assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
        }

        let logs = workload_logs();
        // Conn 2 (torn) streams the first half of the log.
        let mut torn = Conn::open(&addr);
        for req in &logs[..3] {
            let resp = torn.request(req);
            assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "torn conn: {resp}");
        }
        // Conn 3 dies mid-request: the server must just count it.
        let mut dying = Conn::open(&addr);
        dying.send(&format!(
            r#"{{"cmd":"log","ts":9,"user":"u-9","role":"doctor","purpose":"treatment","sql":"{}"}}"#,
            "SELECT name FROM P-Personal".repeat(4)
        ));
        // Conn 4 (slow) streams the second half.
        let mut slow = Conn::open(&addr);
        for req in &logs[3..] {
            let resp = slow.request(req);
            assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "slow conn: {resp}");
        }
        // Conn 5 sends garbage, then proves the server still answers.
        let mut garbage = Conn::open(&addr);
        let resp = garbage.request("%%% definitely not a request %%%");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp}");
        let resp = garbage.request(r#"{"cmd":"stats"}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");

        let report = driver.request(r#"{"cmd":"audit","name":"snoop"}"#);
        assert_eq!(report.get("ok"), Some(&Json::Bool(true)), "{report}");
        let stats = driver.request(r#"{"cmd":"stats"}"#);
        assert_eq!(stat(&stats, "queries_ingested"), 6, "{stats}");
        if faulty {
            let stats = poll_stats(&mut driver, Duration::from_secs(5), |s| {
                stat(s, "frames_truncated") >= 1
            });
            assert!(stat(&stats, "frames_truncated") >= 1, "{stats}");
        }
        shutdown_and_wait(&mut driver, &mut server);
        (report.to_string(), stats)
    };

    let (clean, _) = audit_under(false);
    let (faulty, _) = audit_under(true);
    assert_eq!(clean, faulty, "audit report changed under injected network faults");
}

/// Graceful drain: `shutdown` flushes every queued event to a healthy
/// subscriber before the server exits 0.
#[test]
fn drain_flushes_subscriber_queues_before_exit() {
    let (mut server, addr) = spawn_serve(&["--metrics-every", "1"]);

    let mut subscriber = Conn::open(&addr);
    let resp = subscriber.request(r#"{"cmd":"subscribe"}"#);
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");

    let mut driver = Conn::open(&addr);
    poll_stats(&mut driver, Duration::from_secs(5), |s| stat(s, "subscribers") >= 1);
    let mut requests = vec![tables_dml_request(), register_request()];
    requests.extend(workload_logs());
    for req in &requests {
        let resp = driver.request(req);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    }
    shutdown_and_wait(&mut driver, &mut server);

    // After exit, the subscriber reads everything that was broadcast —
    // one metrics event per ingested query — then a clean EOF.
    let mut events = 0;
    while let Some(line) = subscriber.read_line() {
        let v = Json::parse(&line).unwrap_or_else(|e| panic!("bad JSON {line:?}: {e}"));
        if v.get("event").is_some() {
            events += 1;
        }
    }
    assert!(events >= 6, "subscriber saw only {events} events after drain");
}

/// SIGTERM reaches a server that never accepted a connection: the acceptor
/// sits in a blocking `accept`, so only the signal watcher can wake it.
#[test]
fn sigterm_stops_an_idle_server_promptly() {
    let (mut server, _addr) = spawn_serve(&[]);
    let started = Instant::now();
    let pid = server.id().to_string();
    let status = Command::new("kill").args(["-TERM", &pid]).status().expect("send SIGTERM");
    assert!(status.success(), "kill -TERM failed");
    let deadline = started + Duration::from_secs(2);
    let status = loop {
        if let Some(status) = server.try_wait().expect("poll server") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = server.kill();
            panic!("idle server still running 2 s after SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "drain must exit 0, got {status}");
}

/// A `shutdown` request returns `Server::run` promptly, and the loopback
/// connection that wakes the acceptor is neither counted nor shed.
#[test]
fn shutdown_returns_run_promptly_without_counting_the_wake() {
    use audex::service::state::{ServiceConfig, ServiceCore};
    use audex::service::Server;

    let core = ServiceCore::new(audex::storage::Database::new(), ServiceConfig::default());
    let registry = core.registry();
    let server = Server::bind(core, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let (done, ran) = mpsc::channel();
    std::thread::spawn(move || done.send(server.run()).expect("report run()"));

    let mut conn = Conn::open(&addr);
    let stats = conn.request(r#"{"cmd":"stats"}"#);
    assert_eq!(stat(&stats, "connections_shed"), 0, "{stats}");
    let resp = conn.request(r#"{"cmd":"shutdown"}"#);
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    let ran = ran.recv_timeout(Duration::from_secs(2)).expect("run() returns within 2 s");
    ran.expect("run() ends cleanly");

    let page = registry.render_prometheus();
    let series = |name: &str| -> u64 {
        page.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("no {name} in\n{page}"))
    };
    assert_eq!(series("audex_service_connections_total"), 1, "the wake connection was counted");
    assert_eq!(series("audex_service_connections_shed_total"), 0, "the wake connection was shed");
}
