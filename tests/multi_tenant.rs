//! End-to-end tests of the multi-tenant fleet: cross-tenant isolation,
//! concurrent per-tenant TCP ingest, and SIGKILL crash recovery over a
//! 100-tenant store.
//!
//! The isolation oracle is differential: a fleet daemon serving N tenants
//! must answer every tenant-addressed request **byte-identically** to N
//! independent single-tenant daemons each running that tenant's slice of
//! the workload. Any cross-tenant leakage — shared table, shared log,
//! shared audit state — shows up as a diverged response line.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

struct Serve {
    child: Child,
    stdin: ChildStdin,
    reader: BufReader<ChildStdout>,
}

impl Serve {
    fn spawn(extra: &[&str]) -> Serve {
        let mut child = Command::new(env!("CARGO_BIN_EXE_audex"))
            .args(["serve", "--stdio"])
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn audex serve --stdio");
        let stdin = child.stdin.take().expect("child stdin");
        let reader = BufReader::new(child.stdout.take().expect("child stdout"));
        Serve { child, stdin, reader }
    }

    /// Sends one request and reads its one response line.
    fn request(&mut self, line: &str) -> String {
        writeln!(self.stdin, "{line}").expect("write request");
        self.stdin.flush().expect("flush request");
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("read response");
        assert!(resp.ends_with('\n'), "truncated response for {line}");
        resp.pop();
        assert!(resp.contains("\"ok\":true"), "request {line} failed: {resp}");
        resp
    }

    /// Simulates a crash: SIGKILL, no drain, no flush.
    fn kill(mut self) {
        self.child.kill().expect("kill child");
        let _ = self.child.wait();
    }

    fn finish(mut self) {
        drop(self.stdin);
        let status = self.child.wait().expect("child exits");
        assert!(status.success(), "serve exited with {status}");
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("audex-multi-tenant-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Addresses a request line to a tenant (the field parses anywhere in the
/// object; the front is easiest to splice).
fn with_tenant(line: &str, tenant: &str) -> String {
    assert!(line.starts_with('{'), "not a request object: {line}");
    format!("{{\"tenant\":\"{tenant}\",{}", &line[1..])
}

/// One tenant's workload, parameterized so different tenants hold
/// different data: schema + seed rows, a standing audit, a suspicious and
/// an innocuous query, the full audit. Every response is deterministic.
fn workload(zip: &str, disease: &str) -> Vec<String> {
    vec![
        format!(
            r#"{{"cmd":"dml","ts":100,"sql":"CREATE TABLE p (name CHAR, zipcode CHAR, disease CHAR); INSERT INTO p VALUES ('jane','{zip}','{disease}'), ('reku','{zip}','diabetic'), ('lucy','188888','malaria');"}}"#
        ),
        format!(
            r#"{{"cmd":"register","name":"snoop","expr":"AUDIT disease FROM p WHERE zipcode='{zip}'","now":10000}}"#
        ),
        format!(
            r#"{{"cmd":"log","ts":200,"user":"u-7","role":"doctor","purpose":"treatment","sql":"SELECT disease FROM p WHERE zipcode = '{zip}'"}}"#
        ),
        r#"{"cmd":"log","ts":300,"user":"u-13","role":"nurse","purpose":"treatment","sql":"SELECT name FROM p WHERE zipcode = '188888'"}"#.to_string(),
        r#"{"cmd":"audit","name":"snoop"}"#.to_string(),
        r#"{"cmd":"stats"}"#.to_string(),
    ]
}

/// Two tenants interleaved through one fleet daemon answer byte-for-byte
/// like two dedicated single-tenant daemons: ingest, audits, and stats
/// counters never bleed across the shard boundary.
#[test]
fn interleaved_tenants_match_dedicated_daemons_byte_for_byte() {
    let wl_a = workload("145568", "flu");
    let wl_b = workload("99901", "cancer");

    // References: each workload alone in its own daemon.
    let reference: Vec<Vec<String>> = [&wl_a, &wl_b]
        .iter()
        .map(|wl| {
            let mut serve = Serve::spawn(&[]);
            let responses: Vec<String> = wl.iter().map(|r| serve.request(r)).collect();
            serve.finish();
            responses
        })
        .collect();

    // The fleet: both tenants through one daemon, strictly interleaved.
    let mut fleet = Serve::spawn(&[]);
    fleet.request(r#"{"cmd":"create-tenant","name":"a"}"#);
    fleet.request(r#"{"cmd":"create-tenant","name":"b"}"#);
    let mut got_a = Vec::new();
    let mut got_b = Vec::new();
    for (ra, rb) in wl_a.iter().zip(&wl_b) {
        got_a.push(fleet.request(&with_tenant(ra, "a")));
        got_b.push(fleet.request(&with_tenant(rb, "b")));
    }

    assert_eq!(got_a, reference[0], "tenant a diverged from a dedicated daemon");
    assert_eq!(got_b, reference[1], "tenant b diverged from a dedicated daemon");
    let audit_a = &got_a[4];
    assert!(audit_a.contains("\"suspicious\":true"), "workload not suspicious: {audit_a}");

    // An unknown tenant is a structured error, not a default-shard hit.
    writeln!(fleet.stdin, "{}", with_tenant(r#"{"cmd":"stats"}"#, "ghost")).expect("write");
    fleet.stdin.flush().expect("flush");
    let mut resp = String::new();
    fleet.reader.read_line(&mut resp).expect("read");
    assert!(resp.contains("unknown tenant"), "{resp}");

    // The default tenant saw none of it.
    let stats = fleet.request(r#"{"cmd":"stats"}"#);
    assert!(stats.contains("\"log_len\":0"), "default tenant leaked state: {stats}");
    fleet.request(r#"{"cmd":"shutdown"}"#);
}

/// Two clients flood different tenants over TCP at the same time; both
/// final audits and log lengths must match dedicated single-tenant
/// daemons run sequentially. Exercises the lock-free cross-tenant ingest
/// path (distinct shard mutexes) under real concurrency.
#[test]
fn concurrent_tcp_ingest_keeps_tenants_isolated() {
    const QUERIES: usize = 200;

    // Reference: each tenant's flood alone in a dedicated daemon.
    let reference: Vec<(String, String)> = [("145568", "flu"), ("99901", "cancer")]
        .iter()
        .map(|(zip, disease)| {
            let mut serve = Serve::spawn(&[]);
            let wl = workload(zip, disease);
            serve.request(&wl[0]);
            serve.request(&wl[1]);
            for i in 0..QUERIES {
                serve.request(&flood_line(zip, i));
            }
            let audit = serve.request(r#"{"cmd":"audit","name":"snoop"}"#);
            let stats = serve.request(r#"{"cmd":"stats"}"#);
            serve.finish();
            (audit, stats)
        })
        .collect();

    let mut server = Command::new(env!("CARGO_BIN_EXE_audex"))
        .args(["serve", "--listen", "127.0.0.1:0"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn audex serve --listen");
    let mut server_err = BufReader::new(server.stderr.take().expect("server stderr"));
    let mut banner = String::new();
    loop {
        banner.clear();
        assert!(server_err.read_line(&mut banner).expect("read banner") > 0, "stderr closed");
        if banner.contains("audexd listening on") {
            break;
        }
    }
    std::thread::spawn(move || for _ in server_err.lines() {});
    let addr = banner.trim().rsplit(' ').next().expect("address in banner").to_string();

    let workers: Vec<_> = [("a", "145568", "flu"), ("b", "99901", "cancer")]
        .iter()
        .map(|(tenant, zip, disease)| {
            let addr = addr.clone();
            let (tenant, zip, disease) = (tenant.to_string(), zip.to_string(), disease.to_string());
            std::thread::spawn(move || {
                let stream = std::net::TcpStream::connect(&addr).expect("connect");
                let mut writer = stream.try_clone().expect("clone stream");
                let mut reader = BufReader::new(stream);
                let mut ask = |line: &str| {
                    writeln!(writer, "{line}").expect("send");
                    writer.flush().expect("flush");
                    let mut resp = String::new();
                    reader.read_line(&mut resp).expect("read");
                    assert!(resp.contains("\"ok\":true"), "request {line} failed: {resp}");
                    resp.trim_end().to_string()
                };
                ask(&format!(r#"{{"cmd":"create-tenant","name":"{tenant}"}}"#));
                let wl = workload(&zip, &disease);
                ask(&with_tenant(&wl[0], &tenant));
                ask(&with_tenant(&wl[1], &tenant));
                for i in 0..QUERIES {
                    ask(&with_tenant(&flood_line(&zip, i), &tenant));
                }
                let audit = ask(&with_tenant(r#"{"cmd":"audit","name":"snoop"}"#, &tenant));
                let stats = ask(&with_tenant(r#"{"cmd":"stats"}"#, &tenant));
                (audit, stats)
            })
        })
        .collect();
    let results: Vec<(String, String)> =
        workers.into_iter().map(|w| w.join().expect("worker")).collect();

    for ((got, reference), tenant) in results.iter().zip(&reference).zip(["a", "b"]) {
        assert_eq!(got.0, reference.0, "tenant {tenant} audit diverged under concurrency");
        // Stats are compared on the state counters; front-door fields
        // (connections etc.) legitimately differ between TCP and stdio.
        for field in ["\"log_len\":", "\"index_len\":", "\"registered_audits\":"] {
            let pick = |line: &str| {
                let at = line.find(field).unwrap_or_else(|| panic!("{field} missing in {line}"));
                line[at..].chars().take_while(|c| *c != ',' && *c != '}').collect::<String>()
            };
            assert_eq!(pick(&got.1), pick(&reference.1), "tenant {tenant} {field} diverged");
        }
    }

    // Shut the fleet down over the wire; the drain must exit 0.
    let stream = std::net::TcpStream::connect(&addr).expect("connect for shutdown");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    writeln!(writer, r#"{{"cmd":"shutdown"}}"#).expect("send shutdown");
    writer.flush().expect("flush shutdown");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read shutdown response");
    assert!(resp.contains("\"stopping\":true"), "{resp}");
    let status = server.wait().expect("server exits");
    assert!(status.success(), "fleet drain must exit 0, got {status}");
}

fn flood_line(zip: &str, i: usize) -> String {
    format!(
        r#"{{"cmd":"log","ts":{},"user":"u-{}","role":"clerk","purpose":"marketing","sql":"SELECT disease FROM p WHERE zipcode = '{zip}'"}}"#,
        1000 + i as u64,
        i % 17,
    )
}

/// SIGKILL over a 100-tenant durable fleet: restart recovers every tenant
/// from `tenants/<name>/` and answers every tenant's audit byte-identically
/// to an uninterrupted single-tenant daemon.
#[test]
fn hundred_tenant_sigkill_recovery_is_byte_identical() {
    const TENANTS: usize = 100;
    let wl = workload("145568", "flu");

    // Reference: the workload uninterrupted in one in-memory daemon.
    let (audit_ref, audit_events_suspicious) = {
        let mut serve = Serve::spawn(&[]);
        let responses: Vec<String> = wl.iter().map(|r| serve.request(r)).collect();
        serve.finish();
        (responses[4].clone(), responses[4].contains("\"suspicious\":true"))
    };
    assert!(audit_events_suspicious, "workload not suspicious: {audit_ref}");

    let dir = temp_dir("sigkill-100");
    let dir_arg = dir.to_str().expect("utf-8 temp path").to_string();

    // Build the fleet and ingest every tenant's prefix (everything except
    // the audit + stats), then crash without warning.
    let mut serve = Serve::spawn(&["--data-dir", &dir_arg, "--fsync", "always"]);
    let names: Vec<String> = (0..TENANTS).map(|i| format!("org-{i:03}")).collect();
    for name in &names {
        serve.request(&format!(r#"{{"cmd":"create-tenant","name":"{name}"}}"#));
    }
    for req in &wl[..4] {
        for name in &names {
            serve.request(&with_tenant(req, name));
        }
    }
    serve.kill();

    // Restart from the same directory: discovery must reopen all 100
    // tenant stores plus the default.
    let mut serve = Serve::spawn(&["--data-dir", &dir_arg, "--fsync", "always"]);
    let listing = serve.request(r#"{"cmd":"list-tenants"}"#);
    for name in &names {
        assert!(listing.contains(&format!("\"tenant\":\"{name}\"")), "{name} lost: {listing}");
    }
    assert!(!listing.contains("\"degraded\":true"), "degraded tenants after recovery: {listing}");

    for name in &names {
        let audit = serve.request(&with_tenant(r#"{"cmd":"audit","name":"snoop"}"#, name));
        assert_eq!(audit, audit_ref, "tenant {name} audit drifted through SIGKILL recovery");
    }

    // Fleet-wide stats: every tenant reports its own journal counters and
    // identical per-shard state.
    let stats = serve.request(r#"{"cmd":"stats","all_tenants":true}"#);
    assert_eq!(
        stats.matches("\"journal_records_appended\":").count(),
        TENANTS + 1,
        "per-tenant journal counters missing: {stats}"
    );
    assert_eq!(stats.matches("\"log_len\":2").count(), TENANTS, "per-tenant log drifted");
    assert!(stats.contains("\"busy_tenants\":0"), "{stats}");

    // Fleet-wide audit fans out to all registered tenants; the default
    // tenant (no registration) is skipped, not an error.
    let all = serve.request(r#"{"cmd":"audit","name":"snoop","all_tenants":true}"#);
    assert_eq!(all.matches("\"suspicious\":true").count(), TENANTS, "fleet audit drifted");
    assert!(all.contains("\"skipped\":[\"default\"]"), "{all}");

    serve.request(r#"{"cmd":"shutdown"}"#);
    serve.finish();
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A renamed default tenant (`--default-tenant`) keeps the unaddressed
/// compatibility path and its store at the data-dir root across restarts.
#[test]
fn renamed_default_tenant_serves_unaddressed_requests() {
    let dir = temp_dir("renamed-default");
    let dir_arg = dir.to_str().expect("utf-8 temp path").to_string();
    let wl = workload("145568", "flu");

    let mut serve = Serve::spawn(&[
        "--data-dir",
        &dir_arg,
        "--fsync",
        "always",
        "--default-tenant",
        "mercy-west",
    ]);
    for req in &wl[..4] {
        serve.request(req); // unaddressed → the renamed default
    }
    serve.kill();

    let mut serve = Serve::spawn(&[
        "--data-dir",
        &dir_arg,
        "--fsync",
        "always",
        "--default-tenant",
        "mercy-west",
    ]);
    let listing = serve.request(r#"{"cmd":"list-tenants"}"#);
    assert!(listing.contains("\"default\":\"mercy-west\""), "{listing}");
    // Addressed by name or unaddressed: the same shard answers.
    let by_name = serve.request(&with_tenant(r#"{"cmd":"audit","name":"snoop"}"#, "mercy-west"));
    let unaddressed = serve.request(r#"{"cmd":"audit","name":"snoop"}"#);
    assert_eq!(by_name, unaddressed);
    assert!(by_name.contains("\"suspicious\":true"), "{by_name}");
    serve.request(r#"{"cmd":"shutdown"}"#);
    serve.finish();
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Spawns `serve --stdio` with its stderr (the recovery report) written to
/// `stderr_to` instead of discarded.
fn spawn_logged(extra: &[&str], stderr_to: &std::path::Path) -> Serve {
    let log = std::fs::File::create(stderr_to).expect("create stderr log");
    let mut child = Command::new(env!("CARGO_BIN_EXE_audex"))
        .args(["serve", "--stdio"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(log)
        .spawn()
        .expect("spawn audex serve --stdio");
    let stdin = child.stdin.take().expect("child stdin");
    let reader = BufReader::new(child.stdout.take().expect("child stdout"));
    Serve { child, stdin, reader }
}

/// The oldest WAL segment of one store directory.
fn first_segment(store: &std::path::Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(store)
        .expect("read store dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("wal-") && name.ends_with(".log")
        })
        .collect();
    segments.sort();
    segments.into_iter().next().unwrap_or_else(|| panic!("no segment in {}", store.display()))
}

/// Makes a store one `Journal::open` refuses: garbage after the last frame
/// of its oldest segment, which a later segment turns from a torn tail
/// (repaired) into a corrupt non-final segment (refused).
fn corrupt_store(store: &std::path::Path) {
    let segment = first_segment(store);
    let mut bytes = std::fs::read(&segment).expect("read segment");
    bytes.extend_from_slice(&[0xff; 16]);
    std::fs::write(&segment, bytes).expect("write corrupt segment");
    std::fs::write(store.join(format!("wal-{:020}.log", 999_999)), b"").expect("later segment");
}

/// A fleet whose stores are not all sound recovers what it can: a named
/// tenant `Journal::open` refuses and a `tenants/<default>/` directory that
/// shadows the root store are both left degraded with their reasons, the
/// healthy tenants answer byte-identically to before the restart, and the
/// recovery report runs default first, then by name. A corrupt *root*
/// store instead fails the whole start before any named store is touched:
/// a named tenant's torn tail stays unrepaired, byte for byte.
#[test]
fn a_corrupt_tenant_store_degrades_alone() {
    let dir = temp_dir("degraded");
    let dir_arg = dir.to_str().expect("utf-8 temp path").to_string();
    let tenants =
        [("alpha", "145568", "flu"), ("bravo", "99901", "cancer"), ("charlie", "2020", "gout")];

    let mut serve = Serve::spawn(&["--data-dir", &dir_arg, "--fsync", "always"]);
    let mut before = Vec::new();
    for (name, zip, disease) in tenants {
        serve.request(&format!(r#"{{"cmd":"create-tenant","name":"{name}"}}"#));
        let wl = workload(zip, disease);
        for req in &wl[..4] {
            serve.request(&with_tenant(req, name));
        }
        before.push(serve.request(&with_tenant(&wl[4], name)));
    }
    serve.request(r#"{"cmd":"shutdown"}"#);
    serve.finish();

    let named = dir.join("tenants");
    corrupt_store(&named.join("bravo"));
    std::fs::create_dir_all(named.join("default")).expect("shadowing directory");

    let stderr_log = dir.with_extension("stderr");
    let mut serve = spawn_logged(&["--data-dir", &dir_arg, "--fsync", "always"], &stderr_log);
    let listing = serve.request(r#"{"cmd":"list-tenants"}"#);
    let degraded = |name: &str, why: &str| {
        let row = format!(r#"{{"tenant":"{name}","degraded":true,"error":""#);
        let at = listing.find(&row).unwrap_or_else(|| panic!("{name} not degraded: {listing}"));
        let reason = &listing[at + row.len()..];
        let reason = &reason[..reason.find('"').expect("closed reason")];
        assert!(reason.contains(why), "{name} degraded for {reason:?}, expected {why:?}");
    };
    degraded("bravo", "non-final segment");
    degraded("default", "shadows the default tenant");
    assert_eq!(listing.matches("\"degraded\":true").count(), 2, "{listing}");
    for ((name, _, _), before) in tenants.iter().zip(&before) {
        if *name == "bravo" {
            continue;
        }
        let after = serve.request(&with_tenant(r#"{"cmd":"audit","name":"snoop"}"#, name));
        assert_eq!(&after, before, "tenant {name} audit changed across the restart");
    }
    serve.request(r#"{"cmd":"shutdown"}"#);
    serve.finish();

    let report = std::fs::read_to_string(&stderr_log).expect("read stderr");
    let recovery: Vec<&str> =
        report.lines().filter(|l| l.starts_with(&format!("audex: {dir_arg}: "))).collect();
    assert!(
        recovery.first().is_some_and(|l| l.contains("WAL has") && !l.contains(" tenant ")),
        "the default tenant's line must come first: {report}"
    );
    let order: Vec<&str> = recovery[1..]
        .iter()
        .map(|l| {
            let rest =
                l.split(" tenant ").nth(1).unwrap_or_else(|| panic!("not a tenant line: {l}"));
            rest.split(':').next().expect("tenant name")
        })
        .collect();
    assert_eq!(order, ["alpha", "bravo", "charlie", "default"], "{report}");
    assert!(recovery[2].contains("bravo: DEGRADED (not serving): opening"), "{report}");

    // A corrupt root store is fatal, and fails before any named store is
    // opened: alpha's torn tail must still be there, unrepaired.
    std::fs::remove_dir_all(named.join("default")).expect("drop shadowing directory");
    corrupt_store(&dir);
    let alpha = first_segment(&named.join("alpha"));
    let mut torn = std::fs::read(&alpha).expect("read alpha segment");
    torn.extend_from_slice(&[7, 0, 0, 0, 1]);
    std::fs::write(&alpha, &torn).expect("tear alpha's tail");
    let out = Command::new(env!("CARGO_BIN_EXE_audex"))
        .args(["serve", "--stdio", "--data-dir", &dir_arg, "--fsync", "always"])
        .stdin(Stdio::null())
        .output()
        .expect("run audex serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a corrupt root store must fail the start: {stderr}");
    assert!(stderr.contains("opening durable store"), "{stderr}");
    assert_eq!(std::fs::read(&alpha).expect("reread alpha"), torn, "alpha's torn tail was touched");

    std::fs::remove_dir_all(&dir).expect("cleanup");
    std::fs::remove_file(&stderr_log).expect("cleanup stderr log");
}
