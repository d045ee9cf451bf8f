//! One repetition against the real daemon path: an in-process
//! `Server::bind_fleet(ShardMap::open(..))` on a fresh data directory,
//! driven over loopback TCP in four phases — set-up, drive, drain, reopen —
//! with every correctness gate checked on the way.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use audex_persist::WalOptions;
use audex_service::{FleetConfig, FrontDoorConfig, Json, Request, Server, ServiceConfig, ShardMap};

use crate::gen::{self, fnv1a64, Kind, Op, Sizes, Workload};

/// `FrontDoorConfig::sub_queue` for every run. The default (256) evicts the
/// *healthy* subscriber when one `scan-wide` query emits more events than
/// the queue holds — recorded in README.md as a finding, not fixed here.
pub const SUB_QUEUE: usize = 4096;

/// What a repetition runs.
#[derive(Debug, Clone)]
pub struct RepSpec {
    pub workload: &'static Workload,
    pub sizes: Sizes,
    pub seed: u64,
    /// A fresh, empty directory for the fleet's stores.
    pub dir: PathBuf,
}

impl RepSpec {
    /// The daemon configuration, fixed for every workload but for the
    /// checkpoint cadence `mixed-churn` names: MVCC storage, indexed
    /// dispatch, `fsync=batch`, unredacted log.
    pub fn fleet_config(&self) -> FleetConfig {
        FleetConfig {
            service: ServiceConfig {
                checkpoint_every: self.workload.checkpoint_every,
                ..ServiceConfig::default()
            },
            default_tenant: gen::tenant_name(0),
            data_dir: self.dir.clone(),
            wal: WalOptions::default(),
        }
    }

    pub fn streams(&self) -> Vec<Vec<Op>> {
        (0..self.workload.tenants)
            .map(|t| gen::drive_ops(self.workload, &self.sizes, self.seed, t))
            .collect()
    }
}

/// One driven op, as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub kind: Kind,
    /// Socket round trip: request written → reply line read.
    pub rtt_ns: u64,
    /// When the reply was seen, from the drive's start.
    pub seen_ns: u64,
    pub ok: bool,
    pub bytes_out: u32,
    pub bytes_in: u32,
    /// FNV-1a of the reply line: the in-process pass must reproduce it.
    pub reply_hash: u64,
}

/// Everything one repetition measured.
#[derive(Debug)]
pub struct Rep {
    pub setup_s: f64,
    pub drive_s: f64,
    pub reopen_s: f64,
    pub cpu_ms: f64,
    pub store_bytes: u64,
    /// Per tenant, in stream order; shorter than the stream if the
    /// connection died.
    pub records: Vec<Vec<OpRecord>>,
    pub attempted: u64,
    /// Ops per kind in the streams driven.
    pub ops: BTreeMap<&'static str, u64>,
    /// `stats` of each tenant when set-up ended, so counts can be the
    /// drive's alone.
    pub stats_before: Vec<Json>,
    /// `stats` of each tenant at drain.
    pub stats: Vec<Json>,
    pub events_received: u64,
    /// Reply seen → last event of that query seen, per default-tenant
    /// `log` op that emitted events; negative when the events won the race.
    pub event_lag_ns: Vec<i64>,
    /// Gates that failed; empty means the repetition is correct.
    pub failures: Vec<String>,
}

impl Rep {
    pub fn acknowledged(&self) -> u64 {
        self.records.iter().flatten().filter(|r| r.ok).count() as u64
    }

    pub fn failed(&self) -> u64 {
        self.attempted - self.acknowledged()
    }

    /// One digest per tenant over its replies, in stream order.
    pub fn reply_digests(&self) -> Vec<String> {
        self.records.iter().map(|t| gen::digest(t.iter().map(|r| r.reply_hash))).collect()
    }

    pub fn rtts_ns(&self, pick: impl Fn(Kind) -> bool) -> Vec<u64> {
        self.records.iter().flatten().filter(|r| pick(r.kind)).map(|r| r.rtt_ns).collect()
    }

    /// A counter of tenant `t`'s drain-time `stats`.
    pub fn stat(&self, t: usize, field: &str) -> u64 {
        stat(&self.stats[t], field)
    }

    /// `field` at drain, summed over tenants.
    pub fn stat_sum(&self, field: &str) -> u64 {
        self.stats.iter().map(|s| stat(s, field)).sum()
    }

    /// `field` at the end of set-up, summed over tenants.
    pub fn before_sum(&self, field: &str) -> u64 {
        self.stats_before.iter().map(|s| stat(s, field)).sum()
    }
}

pub fn stat(stats: &Json, field: &str) -> u64 {
    stats.get(field).and_then(Json::as_int).map_or(0, |v| v.max(0) as u64)
}

/// A protocol connection: one request line out, one reply line back.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        // A wedged daemon must fail the run, not hang it past the driver's
        // limit.
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn { writer: stream, reader, line: String::new() })
    }

    /// Sends one line and returns the reply line, without its newline.
    pub fn request(&mut self, line: &str) -> Result<&str, String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("connection closed before the reply".into()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("read reply: {e}")),
        }
    }

    fn expect_ok(&mut self, line: &str) -> Result<(), String> {
        let reply = self.request(line)?;
        if is_ok(reply) {
            Ok(())
        } else {
            Err(format!("{} answered {reply}", &line[..line.len().min(80)]))
        }
    }

    fn request_json(&mut self, line: &str) -> Result<Json, String> {
        let reply = self.request(line)?;
        Json::parse(reply).map_err(|e| format!("bad reply JSON {reply:?}: {e}"))
    }
}

/// Every reply leads with its `ok` field.
pub fn is_ok(reply: &str) -> bool {
    reply.starts_with("{\"ok\":true")
}

/// What the subscriber thread hands back: per query id (index), when its
/// last event arrived, in ns from `epoch`.
struct Subscribed {
    last_event_ns: Vec<u64>,
}

/// The healthy subscriber: reads every event line as it arrives. Score
/// events carry their query id; the verdict events that follow belong to
/// the same query.
fn subscriber(
    mut conn: Conn,
    received: Arc<AtomicU64>,
    epoch: Instant,
) -> Result<Subscribed, String> {
    // No deadline on event reads: an idle stream is healthy.
    conn.writer.set_read_timeout(None).map_err(|e| format!("read timeout: {e}"))?;
    let mut last_event_ns: Vec<u64> = Vec::new();
    let mut query = 0usize;
    let mut line = String::new();
    loop {
        line.clear();
        match conn.reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => return Err(format!("subscriber read: {e}")),
        }
        let now = epoch.elapsed().as_nanos() as u64;
        if let Some(rest) = line.strip_prefix("{\"event\":\"score\",\"query\":") {
            let digits = rest.split(',').next().unwrap_or("");
            query = digits.parse().map_err(|_| format!("bad score event {line:?}"))?;
        }
        if last_event_ns.len() <= query {
            last_event_ns.resize(query + 1, 0);
        }
        last_event_ns[query] = now;
        received.fetch_add(1, Ordering::Relaxed);
    }
    Ok(Subscribed { last_event_ns })
}

/// Utime + stime of this process in ms (`/proc/self/stat` fields 14 and 15
/// count `USER_HZ` = 100 ticks per second on every Linux ABI).
fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; count from its closing ')'.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 * 10.0
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes of every regular file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The fields of `stats` that recovery must restore exactly.
const REOPEN_FIELDS: [&str; 6] = [
    "log_len",
    "index_len",
    "triage_open",
    "queries_ingested",
    "events_emitted",
    "registered_audits",
];

fn audit_line(t: usize, name: &str) -> String {
    format!("{{\"cmd\":\"audit\"{},\"name\":\"{name}\"}}", gen::tenant_field(t))
}

fn stats_line(t: usize) -> String {
    format!("{{\"cmd\":\"stats\"{}}}", gen::tenant_field(t))
}

/// A daemon that finished set-up: loaded, audits registered, the
/// subscriber attached.
struct Daemon {
    server: std::thread::JoinHandle<std::io::Result<()>>,
    /// One driver connection per tenant.
    conns: Vec<Conn>,
    sub: Conn,
    /// Empty data dir → ready, in seconds.
    setup_s: f64,
}

impl Daemon {
    /// The set-up phase: opens the fleet on `spec.dir`, binds the front
    /// door, plays each tenant's set-up conversation and subscribes.
    fn set_up(spec: &RepSpec) -> Result<Daemon, String> {
        let setup: Vec<Vec<String>> = (0..spec.workload.tenants)
            .map(|t| gen::setup_lines(&spec.sizes, spec.seed, t))
            .collect();
        let started = Instant::now();
        let (fleet, _) = ShardMap::open(&spec.fleet_config())?;
        let front = FrontDoorConfig { sub_queue: SUB_QUEUE, ..FrontDoorConfig::default() };
        let server =
            Server::bind_fleet(fleet, "127.0.0.1:0", front).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| format!("local addr: {e}"))?.to_string();
        let server = std::thread::spawn(move || server.run());
        let mut conns = Vec::with_capacity(setup.len());
        for lines in &setup {
            let mut conn = Conn::open(&addr)?;
            for line in lines {
                conn.expect_ok(line)?;
            }
            conns.push(conn);
        }
        let mut sub = Conn::open(&addr)?;
        sub.expect_ok("{\"cmd\":\"subscribe\"}")?;
        Ok(Daemon { server, conns, sub, setup_s: started.elapsed().as_secs_f64() })
    }
}

/// Runs one repetition. `Err` is a harness failure (could not bind, set-up
/// refused); gate failures come back in [`Rep::failures`].
pub fn run(spec: &RepSpec) -> Result<Rep, String> {
    let streams = spec.streams();
    let tenants = streams.len();
    let fleet_cfg = spec.fleet_config();
    let mut failures = Vec::new();

    // --- set-up: empty dir → loaded, audits registered, subscriber on. ---
    let Daemon { server, mut conns, sub, setup_s } = Daemon::set_up(spec)?;
    let mut stats_before = Vec::with_capacity(tenants);
    for (t, conn) in conns.iter_mut().enumerate() {
        stats_before.push(conn.request_json(&stats_line(t))?);
    }

    let received = Arc::new(AtomicU64::new(0));
    let epoch = Instant::now();
    let sub_thread = {
        let received = Arc::clone(&received);
        std::thread::spawn(move || subscriber(sub, received, epoch))
    };

    // --- drive: closed loop, one connection per tenant. -------------------
    let barrier = Barrier::new(tenants + 1);
    let cpu_before = process_cpu_ms();
    let (drive_s, records, mut conns) = std::thread::scope(|scope| {
        let drivers: Vec<_> = conns
            .into_iter()
            .zip(&streams)
            .map(|(mut conn, ops)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut records = Vec::with_capacity(ops.len());
                    barrier.wait();
                    for op in ops {
                        let sent = Instant::now();
                        let Ok(reply) = conn.request(&op.line) else { break };
                        let seen = Instant::now();
                        records.push(OpRecord {
                            kind: op.kind,
                            rtt_ns: (seen - sent).as_nanos() as u64,
                            seen_ns: (seen - epoch).as_nanos() as u64,
                            ok: is_ok(reply),
                            bytes_out: op.line.len() as u32 + 1,
                            bytes_in: reply.len() as u32 + 1,
                            reply_hash: fnv1a64(reply.as_bytes()),
                        });
                    }
                    (records, conn)
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let mut records = Vec::new();
        let mut conns = Vec::new();
        for d in drivers {
            match d.join() {
                Ok((r, c)) => {
                    records.push(r);
                    conns.push(c);
                }
                Err(_) => records.push(Vec::new()),
            }
        }
        (started.elapsed().as_secs_f64(), records, conns)
    });
    let cpu_ms = process_cpu_ms() - cpu_before;
    if conns.len() != tenants {
        return Err("a driver thread panicked".into());
    }

    // --- drain: counters, fixed audits, every event delivered, stop. -----
    let mut stats = Vec::with_capacity(tenants);
    for (t, conn) in conns.iter_mut().enumerate() {
        stats.push(conn.request_json(&stats_line(t))?);
    }
    let emitted = stat(&stats[0], "events_emitted");
    let waited = Instant::now();
    while received.load(Ordering::Relaxed) < emitted && waited.elapsed() < Duration::from_secs(20) {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Re-read the front-door gauges now that the queue has drained.
    stats[0] = conns[0].request_json(&stats_line(0))?;
    if stat(&stats[0], "subscribers") != 1 || stat(&stats[0], "subscribers_evicted") != 0 {
        failures.push(format!(
            "subscriber not attached at drain: subscribers={} evicted={}",
            stat(&stats[0], "subscribers"),
            stat(&stats[0], "subscribers_evicted")
        ));
    }
    let fixed = gen::fixed_audits(&spec.sizes);
    let mut audits_before = Vec::new();
    for (t, conn) in conns.iter_mut().enumerate() {
        for name in &fixed {
            audits_before.push(conn.request(&audit_line(t, name))?.to_string());
        }
    }
    conns[0].expect_ok("{\"cmd\":\"shutdown\"}")?;
    drop(conns);
    match server.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => failures.push(format!("server exited with {e}")),
        Err(_) => failures.push("server thread panicked".into()),
    }
    let subscribed = sub_thread.join().map_err(|_| "subscriber thread panicked")??;
    let events_received = received.load(Ordering::Relaxed);
    if events_received != emitted {
        failures.push(format!("subscriber received {events_received} of {emitted} events"));
    }
    let store_bytes = dir_bytes(&spec.dir);

    // Reply seen → last event seen, for default-tenant queries with events.
    let mut event_lag_ns = Vec::new();
    let mut id = 0usize;
    for r in &records[0] {
        if r.kind.is_log() && r.ok {
            id += 1;
            if let Some(&at) = subscribed.last_event_ns.get(id).filter(|at| **at > 0) {
                event_lag_ns.push(at as i64 - r.seen_ns as i64);
            }
        }
    }

    // --- gates on the drive itself. -----------------------------------------
    let attempted: u64 = streams.iter().map(|s| s.len() as u64).sum();
    for (t, (ops, recs)) in streams.iter().zip(&records).enumerate() {
        let bad = recs.iter().filter(|r| !r.ok).count() + (ops.len() - recs.len());
        if bad > 0 {
            failures.push(format!("tenant {t}: {bad} of {} ops not acknowledged", ops.len()));
        }
        // Leak check: a tenant holds exactly its own stream's ops.
        let logs = ops.iter().filter(|op| op.kind.is_log()).count() as u64;
        let dml = ops.iter().filter(|op| op.kind == Kind::DmlUpdate).count() as u64;
        let loaded = 6; // three CREATE TABLEs, three bulk INSERTs
        if stat(&stats[t], "log_len") != logs || stat(&stats[t], "dml_statements") != dml + loaded {
            failures.push(format!(
                "tenant {t} holds log_len={} dml_statements={}, its stream has {logs} and {}",
                stat(&stats[t], "log_len"),
                stat(&stats[t], "dml_statements"),
                dml + loaded
            ));
        }
    }

    // --- reopen: recover the store the drive left behind. --------------------
    let reopen_started = Instant::now();
    let (fleet, recovery) = ShardMap::open(&fleet_cfg)?;
    let reopen_s = reopen_started.elapsed().as_secs_f64();
    for t in recovery.tenants.iter().filter(|t| t.error.is_some()) {
        failures.push(format!("tenant {} degraded after reopen: {:?}", t.tenant, t.error));
    }
    let mut audits_after = Vec::new();
    for (t, before) in stats.iter().enumerate() {
        let name = gen::tenant_name(t);
        let shard = fleet.resolve((t > 0).then_some(name.as_str()))?;
        let mut core = shard.lock();
        let reopened = core.handle(Request::Stats).response;
        for field in REOPEN_FIELDS {
            if stat(&reopened, field) != stat(before, field) {
                failures.push(format!(
                    "tenant {t}: {field} is {} after reopen, was {} before shutdown",
                    stat(&reopened, field),
                    stat(before, field)
                ));
            }
        }
        for audit in &fixed {
            audits_after
                .push(core.handle(Request::Audit { name: audit.clone() }).response.to_string());
        }
    }
    if audits_before != audits_after {
        failures.push("an audit reply changed across shutdown and reopen".into());
    }
    drop(fleet);

    Ok(Rep {
        setup_s,
        drive_s,
        reopen_s,
        cpu_ms,
        store_bytes,
        records,
        attempted,
        ops: kind_counts(&streams),
        stats_before,
        stats,
        events_received,
        event_lag_ns,
        failures,
    })
}

fn kind_counts(streams: &[Vec<Op>]) -> BTreeMap<&'static str, u64> {
    let mut counts = BTreeMap::new();
    for op in streams.iter().flatten() {
        *counts.entry(op.kind.name()).or_insert(0) += 1;
    }
    counts
}
