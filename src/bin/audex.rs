//! The `audex` command-line auditor.
//!
//! ```text
//! audex audit --db db.sql --log log.txt --expr "AUDIT disease FROM Patients WHERE zipcode='120016'"
//! audex audit --db db.sql --log log.txt --expr-file audit.txt --now 1/4/2008 --csv --stats
//! audex serve --stdio --db db.sql              # audexd over stdin/stdout
//! audex serve --listen 127.0.0.1:7007          # audexd over TCP
//! audex send --addr 127.0.0.1:7007 '{"cmd":"stats"}'
//! audex send --addr 127.0.0.1:7007 '{"cmd":"create-tenant","name":"acme"}'
//! audex send --addr 127.0.0.1:7007 --tenant acme '{"cmd":"stats"}'
//! audex paper        # regenerate the paper's granule sets
//! audex demo         # synthetic hospital + planted snooping, end to end
//! audex help
//! ```
//!
//! File formats are documented in [`audex::session`]; the `serve`/`send`
//! wire protocol in [`audex::service::proto`].

use audex::core::{AuditEngine, AuditMode, EngineObs, EngineOptions, Governor};
use audex::obs::{Registry, Tracer};
use audex::persist::{FsyncPolicy, Journal, Recovered, WalOptions};
use audex::service::{
    FleetConfig, FleetRecovery, FrontDoorConfig, ServiceConfig, ServiceCore, ShardMap,
};
use audex::session::{load_database_script, load_log_script};
use audex::Timestamp;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// SIGTERM/SIGINT → graceful drain, for the TCP serve path. The workspace
/// stays dependency-free, so instead of a signal crate this declares libc's
/// `signal(2)` directly — the one `unsafe` in the binary, confined here.
/// Installed only for `serve --listen`: in `--stdio` mode the default
/// terminate action is correct (the child is driven over pipes and drains
/// on EOF).
#[cfg(unix)]
mod sig {
    use std::sync::atomic::AtomicBool;

    /// Set by the handler; `Server::run_watching` polls it.
    pub static DRAIN: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe work here: a store on a static atomic.
        DRAIN.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    use std::sync::atomic::AtomicBool;

    pub static DRAIN: AtomicBool = AtomicBool::new(false);

    pub fn install() {}
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("audit") => cmd_audit(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("send") => cmd_send(&args[1..]),
        Some("recover") => cmd_recover(&args[1..]),
        Some("compact") => cmd_compact(&args[1..]),
        Some("triage") => cmd_triage(&args[1..]),
        Some("paper") => cmd_paper(),
        Some("demo") => cmd_demo(),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{}", USAGE);
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}; see `audex help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
audex — audit SQL query logs for privacy violations
       (Goyal, Gupta & Gupta, ICDE 2008, implemented in Rust)

USAGE:
  audex audit (--db <FILE> --log <FILE> | --data-dir <DIR>)
              (--expr <TEXT> | --expr-file <FILE>)
              [--now <TIMESTAMP>] [--csv] [--per-query] [--no-static-filter]
              [--granules <LIMIT>] [--stats] [--deadline-ms <MS>]
              [--max-steps <N>] [--max-granules <N>] [--trace-out <FILE>]
  audex serve (--stdio | --listen <ADDR>) [--db <FILE>] [--log <FILE>]
              [--data-dir <DIR>] [--default-tenant <NAME>]
              [--fsync always|batch|never]
              [--checkpoint-every <N>] [--deadline-ms <MS>] [--max-steps <N>]
              [--max-granules <N>] [--metrics-every <N>]
              [--trace-out <FILE>] [--max-conns <N>] [--sub-queue <N>]
              [--conn-idle-ms <MS>] [--max-line-bytes <N>] [--drain-ms <MS>]
              [--net-fault <SPEC>]...
              [--redact-log] [--review-budget <N>]
  audex send  --addr <ADDR> [--tenant <NAME>] [--connect-retries <N>]
              [REQUEST...]
  audex triage --data-dir <DIR> [--tenant <NAME>] [--top <N>] [--offset <N>]
                                   offline review queue from a store
  audex recover --data-dir <DIR>   repair a crashed store (all tenants)
  audex compact --data-dir <DIR>   checkpoint + prune a store offline
                                   (all tenants)
  audex paper     regenerate the paper's worked artifacts (Figs. 4-6)
  audex demo      synthetic hospital with planted snooping, audited end to end
  audex help      this text

FILES:
  --db    a timestamped SQL script ('@<ts>' lines set the clock)
  --log   a query log ('@<ts> user=<id> role=<id> purpose=<id>' headers)
  See the audex::session module docs for the exact formats.

DURABILITY (--data-dir, the durable audit store):
  `audex serve --data-dir DIR` journals every committed DML change, log
  append, and audit (un)registration to a segmented write-ahead log in DIR,
  recovering any existing state first (checkpoint + WAL tail, torn tails
  truncated). --fsync picks the flush discipline: `always` (acknowledged =>
  durable), `batch` (group fsync, bounded loss window; default), `never`.
  --checkpoint-every N snapshots derived state every N records so recovery
  and the WAL stay short. `audex recover` repairs and summarizes a store
  without serving. `audex compact` forces a checkpoint, prunes covered
  segments and reports dead tuple versions per tenant (retained, never
  reclaimed: the backlog relation b-T needs them). `audex audit --data-dir`
  audits recovered state read-only; with --stats it also reports the
  store's journal counters.

OPTIONS:
  --now          reference time for now() and clause defaults
                 (default: latest database change or logged query)
  --csv          emit contributing queries as CSV instead of text
  --per-query    also evaluate each query in isolation (Definition 3)
  --no-static-filter   skip the static candidate analysis
  --granules N   also print the granule set G when it has at most N granules
  --stats        after the audit, print resource-governor progress (work
                 steps), the snapshot-cache hit statistics, live/dead tuple
                 version counts, and (with --data-dir) the dispatch-index
                 counters from replay
  The evaluation phases use one worker per available core (bound it with
  taskset or a cgroup CPU limit); reports are identical at any core count.

TELEMETRY:
  --trace-out FILE   record every pipeline phase (parse, recovery replay,
                     target-view, candidate filter, batch suspicion,
                     refinement; for serve also WAL appends/fsyncs and
                     checkpoints) as a Chrome-trace-event JSON file —
                     open it at chrome://tracing or in Perfetto. Written
                     on error paths too, with interrupted spans marked.
  --metrics-every N  (serve) broadcast a `metrics` event carrying the
                     Prometheus text exposition to subscribers every N
                     ingested queries. Any client can also poll with a
                     {\"cmd\":\"metrics\"} request at any time.

RESOURCE LIMITS (the audit stops with a structured error instead of hanging;
for `serve`, the same limits act per request as admission control):
  --deadline-ms MS   wall-clock budget for the whole audit
  --max-steps N      cap on governed work steps (versions scanned, rows
                     folded, queries and facts evaluated)
  --max-granules N   refuse audits whose granule set exceeds N granules

SERVE / SEND (audexd, the streaming audit service):
  audex serve speaks a line-delimited JSON protocol: one request object per
  line, one response line back, plus event lines after `subscribe`. Commands:
  dml, log, register, unregister, audit, subscribe, stats, metrics,
  triage, queue, ack, dismiss, weight,
  create-tenant, drop-tenant, list-tenants, shutdown — see
  the audex::service::proto module docs for the wire format. `--db`/`--log`
  preload a session-script database and query log (the log is folded into
  the incremental touch index exactly as if streamed). `audex send` posts
  request lines (arguments, or stdin when none) to a serving address and
  prints the responses; with a `subscribe` request it follows the event
  stream until the connection closes. --connect-retries N (default 5)
  retries the initial connect every 100 ms while the server is starting.
  Registered (standing) audits are scored through a dispatch index that
  prunes audits which provably cannot match an incoming query.

TENANCY (multi-tenant audexd; org-scoped shards):
  One daemon serves many isolated tenants. Each tenant owns an independent
  database, query log, standing audits, governor and (with --data-dir)
  journal under DIR/tenants/<NAME>/, so tenants ingest, audit and
  checkpoint in parallel with no shared lock on the hot path. Requests
  address a tenant with a \"tenant\" field; without one they go to the
  default tenant, which keeps the pre-tenancy layout (DIR root) and wire
  behaviour — existing clients and stores work unchanged.
  --default-tenant NAME  (serve) rename the default tenant (default:
                         \"default\")
  --tenant NAME          (send) stamp \"tenant\":NAME into every request
                         line that doesn't already address one
  {\"cmd\":\"create-tenant\",\"name\":N}  make a tenant (and its store)
  {\"cmd\":\"drop-tenant\",\"name\":N}    detach it; its store directory is
                                      retired by rename, never deleted
  {\"cmd\":\"list-tenants\"}             per-tenant summary rows (rendered
                                      as a table on a terminal)
  stats/metrics/audit take \"all_tenants\":true for fleet-wide fan-outs:
  stats and metrics snapshot one shard at a time (a stuck tenant shows as
  busy instead of blocking the rest); audit evaluates one standing audit
  on every tenant that registered it, in parallel. A tenant whose store
  fails recovery is reported as degraded and skipped, never fatal.

TRIAGE (evidence-backed review of flagged queries):
  Every suspicious verdict carries evidence (indispensable-tuple counts, the
  sensitive columns covered, the audits triggered) and enters a ranked
  review queue: priority = suspicion x sensitivity, where per-table and
  per-column sensitivity weights are set with {\"cmd\":\"weight\",
  \"table\":T,\"column\":C,\"weight\":W} (journaled, so they survive
  restarts). Recurring patterns are mined into templates so one auditor
  decision covers many similar queries.
  {\"cmd\":\"triage\"}                   queue counts, templates, compression
  {\"cmd\":\"queue\",\"top\":K,\"offset\":O} one page of the ranked queue
                                      (rendered as a table on a terminal;
                                      top defaults to --review-budget)
  {\"cmd\":\"ack\",\"query\":N}           mark reviewed (journaled)
  {\"cmd\":\"dismiss\",\"query\":N}       mark a false positive (journaled)
  --review-budget N  (serve) default page size for `queue`, i.e. how many
                     reviews the auditor can afford per sitting
  --redact-log       (serve) never write raw query SQL to the durable
                     store: the journal keeps structural metadata (tables,
                     columns, hash, scores) instead. Tuple-level suspicion
                     scoring, the review queue, and templates survive
                     redaction and recovery unchanged; batch re-audits of
                     the redacted span are honestly reported as skipped.
  `audex triage --data-dir DIR` prints the same report offline.

FRONT DOOR (TCP serve only; overload-safety knobs):
  --max-conns N      concurrent connection cap (default 1024). Accepts over
                     the cap are shed with {\"ok\":false,\"error\":\"overloaded\"}
                     instead of queueing.
  --sub-queue N      bounded per-subscriber event queue depth (default 256).
                     A subscriber that falls a full queue behind is evicted
                     (audex_service_subscribers_evicted_total) so ingest
                     never waits on the slowest client.
  --conn-idle-ms MS  read-idle deadline for non-subscriber connections
                     (default: none). Idle connections are answered with a
                     structured error and closed.
  --max-line-bytes N longest accepted request line (default 1 MiB); longer
                     frames are rejected and the stream resynchronised at
                     the next newline.
  --drain-ms MS      graceful-drain deadline (default 2000). On `shutdown`
                     or SIGTERM/SIGINT the server stops accepting, flushes
                     subscriber queues within this budget, fsyncs the
                     journal, and exits 0.
  --net-fault SPEC   deterministic fault injection for testing, repeatable.
                     SPEC is kind:conn:arg with conn the 1-based accept
                     ordinal (0 = every connection): torn:C:CHUNK (reads
                     fragmented to CHUNK bytes), eof:C:BYTES (EOF after
                     BYTES read), stall:C:BYTES (writes absorb BYTES then
                     time out), slow:C:MS (each read pauses MS ms).
";

fn take_value(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i).cloned().ok_or_else(|| format!("{flag} requires a value"))
}

/// The value after `flag`, parsed; with `min`, anything below it is refused.
fn take_parsed<T>(args: &[String], i: &mut usize, flag: &str, min: Option<T>) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + std::fmt::Display,
{
    let text = take_value(args, i, flag)?;
    let value: T = text.parse().map_err(|_| format!("invalid {flag} value {text:?}"))?;
    match min {
        Some(min) if value < min => Err(format!("{flag} must be at least {min}")),
        _ => Ok(value),
    }
}

/// The options `audit` and `serve` share: governor limits (per run, or per
/// request as admission control; unlimited by default). Consumes `args[*i]`
/// and its value when it is one of these flags.
fn take_limit(
    limits: &mut audex::core::ResourceLimits,
    args: &[String],
    i: &mut usize,
) -> Result<bool, String> {
    let flag = args[*i].as_str();
    match flag {
        "--deadline-ms" => {
            let ms = take_parsed(args, i, flag, None)?;
            limits.deadline = Some(std::time::Duration::from_millis(ms));
        }
        "--max-steps" => limits.max_steps = Some(take_parsed(args, i, flag, None)?),
        "--max-granules" => limits.granule_limit = Some(take_parsed(args, i, flag, None)?),
        _ => return Ok(false),
    }
    Ok(true)
}

fn cmd_audit(args: &[String]) -> Result<(), String> {
    let mut db_path = None;
    let mut log_path = None;
    let mut data_dir: Option<String> = None;
    let mut expr_text: Option<String> = None;
    let mut now: Option<Timestamp> = None;
    let mut csv = false;
    let mut per_query = false;
    let mut static_filter = true;
    let mut granules: Option<u64> = None;
    let mut stats = false;
    let mut limits = audex::core::ResourceLimits::default();
    let mut trace_out: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--db" => db_path = Some(take_value(args, &mut i, "--db")?),
            "--log" => log_path = Some(take_value(args, &mut i, "--log")?),
            "--data-dir" => data_dir = Some(take_value(args, &mut i, "--data-dir")?),
            "--trace-out" => trace_out = Some(take_value(args, &mut i, "--trace-out")?),
            "--expr" => expr_text = Some(take_value(args, &mut i, "--expr")?),
            "--expr-file" => {
                let path = take_value(args, &mut i, "--expr-file")?;
                expr_text =
                    Some(std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?);
            }
            "--now" => {
                let text = take_value(args, &mut i, "--now")?;
                now = Some(
                    Timestamp::parse(&text)
                        .ok_or_else(|| format!("invalid --now timestamp {text:?}"))?,
                );
            }
            "--csv" => csv = true,
            "--per-query" => per_query = true,
            "--no-static-filter" => static_filter = false,
            "--stats" => stats = true,
            "--granules" => {
                // The one value error that says "limit", not "value".
                let text = take_value(args, &mut i, "--granules")?;
                granules =
                    Some(text.parse().map_err(|_| format!("invalid --granules limit {text:?}"))?);
            }
            _ if take_limit(&mut limits, args, &mut i)? => {}
            other => return Err(format!("unknown option {other:?}")),
        }
        i += 1;
    }

    let expr_text = expr_text.ok_or("--expr or --expr-file is required")?;

    // Telemetry is armed only when asked for: with no --trace-out both
    // handles are disabled and every span/histogram below is a no-op.
    let tracer = if trace_out.is_some() { Tracer::new() } else { Tracer::disabled() };
    let registry = if trace_out.is_some() { Registry::new() } else { Registry::disabled() };

    // A durable store captures the database *and* the log, so --data-dir
    // replaces both file flags; mixing them would be ambiguous about which
    // source wins.
    let (db, log, store, dispatch) = if let Some(dir) = data_dir {
        if db_path.is_some() || log_path.is_some() {
            return Err("--data-dir is mutually exclusive with --db/--log".into());
        }
        let mut recovered =
            audex::persist::read_store(Path::new(&dir)).map_err(|e| format!("{dir}: {e}"))?;
        report_recovery(&dir, &recovered);
        let core = {
            let _span = tracer.span("recovery-replay");
            ServiceCore::recovered(&mut recovered, ServiceConfig::default())
                .map_err(|e| format!("replaying {dir}: {e}"))?
        };
        // Capture before the core is dismantled: replaying a store with
        // standing audits routes every journaled query through the
        // dispatch index, and --stats reports that work.
        let dispatch = core.dispatch_stats();
        let (db, log) = core.into_parts();
        (db, log, Some(recovered), Some(dispatch))
    } else {
        let db_path = db_path.ok_or("--db is required (or --data-dir)")?;
        let log_path = log_path.ok_or("--log is required (or --data-dir)")?;
        let db_text = std::fs::read_to_string(&db_path).map_err(|e| format!("{db_path}: {e}"))?;
        let log_text =
            std::fs::read_to_string(&log_path).map_err(|e| format!("{log_path}: {e}"))?;
        let db = load_database_script(&db_text).map_err(|e| format!("{db_path}: {e}"))?;
        let log = load_log_script(&log_text).map_err(|e| format!("{log_path}: {e}"))?;
        (db, log, None, None)
    };
    let expr = {
        let _span = tracer.span("parse");
        audex::parse_audit(&expr_text).map_err(|e| format!("audit expression: {e}"))?
    };
    // Default: the later of the last data change and the last logged
    // query, so `TO now()` reaches every query in the log.
    let now = now.unwrap_or_else(|| log.last_ts().map_or(db.last_ts(), |l| l.max(db.last_ts())));

    let engine = AuditEngine::with_options(
        &db,
        &log,
        EngineOptions {
            static_filter,
            mode: if per_query { AuditMode::PerQuery } else { AuditMode::Batch },
            limits,
            ..Default::default()
        },
    )
    .with_obs(EngineObs::new(Arc::clone(&registry), Arc::clone(&tracer)));
    // Arm the governor here (rather than letting the engine arm its own per
    // call) so --stats can report how much governed work the run consumed.
    let governor = Governor::arm(&limits);
    let run = {
        // One enclosing span so the exported trace nests the engine's
        // phase spans (target-view, candidate-filter, batch-suspicion,
        // refinement) under a single "audit" parent.
        let span = tracer.span("audit");
        let run = engine
            .prepare_governed(&expr, now, &governor)
            .and_then(|prepared| engine.run_governed(&prepared, &governor).map(|r| (prepared, r)));
        if run.is_err() {
            span.mark_truncated();
        }
        run
    };
    // A governor trip or evaluation error still leaves a useful trace of
    // the phases that did run; flush it before surfacing the error.
    if let (Some(path), Err(e)) = (&trace_out, &run) {
        std::fs::write(path, tracer.export_chrome_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("audex: wrote phase trace to {path}");
        return Err(e.to_string());
    }
    let (prepared, report) = run.map_err(|e| e.to_string())?;

    {
        let _span = tracer.span("report");
        if csv {
            print!("{}", report.render_csv(&log));
        } else {
            print!("{}", report.render_text(&log));
            if let Some(limit) = granules {
                match prepared.render_granules(limit) {
                    Ok(g) => println!("granule set G = {g}"),
                    Err(e) => println!("granule set not printed: {e}"),
                }
            }
        }
    }
    if let Some(path) = &trace_out {
        std::fs::write(path, tracer.export_chrome_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("audex: wrote phase trace to {path}");
    }
    if stats {
        let snap = db.snapshot_stats();
        let reads = snap.hits + snap.misses;
        let rate = if reads == 0 { 0.0 } else { 100.0 * snap.hits as f64 / reads as f64 };
        println!("governor: {} work steps", governor.steps());
        match limits.max_steps {
            Some(cap) => println!(
                "governor: step budget {cap} ({} unused)",
                cap.saturating_sub(governor.steps())
            ),
            None => println!("governor: no step budget configured"),
        }
        println!(
            "snapshot cache: {} hits, {} misses ({rate:.1}% hit rate), {} snapshots retained",
            snap.hits,
            snap.misses,
            db.snapshot_cache_len()
        );
        let (m, scan) = (db.mvcc_stats(), db.mvcc_scan_stats());
        println!(
            "mvcc store: {} live / {} dead version(s), ~{} byte(s); \
             {} visibility probe(s), {} chain entr{} examined",
            m.live_versions,
            m.dead_versions,
            m.approx_bytes,
            scan.probes,
            scan.versions_examined,
            if scan.versions_examined == 1 { "y" } else { "ies" },
        );
        if let Some(d) = &dispatch {
            println!(
                "dispatch index (recovery replay): {} probes, {} audits pruned, \
                 {} shortlisted, {} rebuild(s)",
                d.probes, d.pruned, d.shortlisted, d.rebuilds
            );
        }
        if let Some(recovered) = &store {
            // Read-only open: no Journal counters exist, so report the
            // store's shape from the recovery scan instead.
            let covers = recovered.checkpoint.as_ref().map_or(0, |c| c.covers_seq);
            println!(
                "durable store: {} record(s) ({covers} via checkpoint, lag {}), torn tail: {}",
                recovered.total_records(),
                recovered.next_seq.saturating_sub(covers),
                match &recovered.torn {
                    Some(t) => format!("{} byte(s) at {}", t.dropped_bytes, t.path.display()),
                    None => "none".into(),
                },
            );
        }
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut stdio = false;
    let mut listen: Option<String> = None;
    let mut db_path: Option<String> = None;
    let mut log_path: Option<String> = None;
    let mut data_dir: Option<String> = None;
    let mut default_tenant: Option<String> = None;
    let mut fsync = FsyncPolicy::Batch;
    let mut checkpoint_every: Option<u64> = None;
    let mut metrics_every: Option<u64> = None;
    let mut trace_out: Option<String> = None;
    let mut limits = audex::core::ResourceLimits::default();
    let mut redact_log = false;
    let mut review_budget: Option<u64> = None;
    let mut front = FrontDoorConfig::default();
    let mut front_tuned = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--stdio" => stdio = true,
            "--listen" => listen = Some(take_value(args, &mut i, "--listen")?),
            "--max-conns" => {
                front.max_conns = take_parsed(args, &mut i, "--max-conns", Some(1))?;
                front_tuned = true;
            }
            "--sub-queue" => {
                front.sub_queue = take_parsed(args, &mut i, "--sub-queue", Some(1))?;
                front_tuned = true;
            }
            "--conn-idle-ms" => {
                let ms = take_parsed(args, &mut i, "--conn-idle-ms", Some(1))?;
                front.conn_idle = Some(std::time::Duration::from_millis(ms));
                front_tuned = true;
            }
            "--max-line-bytes" => {
                front.max_line_bytes = take_parsed(args, &mut i, "--max-line-bytes", Some(2))?;
                front_tuned = true;
            }
            "--drain-ms" => {
                let ms = take_parsed(args, &mut i, "--drain-ms", None)?;
                front.drain = std::time::Duration::from_millis(ms);
                front_tuned = true;
            }
            "--net-fault" => {
                let spec = take_value(args, &mut i, "--net-fault")?;
                front.faults = std::mem::take(&mut front.faults).with_spec(&spec)?;
                front_tuned = true;
            }
            "--db" => db_path = Some(take_value(args, &mut i, "--db")?),
            "--log" => log_path = Some(take_value(args, &mut i, "--log")?),
            "--data-dir" => data_dir = Some(take_value(args, &mut i, "--data-dir")?),
            "--default-tenant" => {
                default_tenant = Some(take_value(args, &mut i, "--default-tenant")?)
            }
            "--fsync" => {
                let text = take_value(args, &mut i, "--fsync")?;
                fsync = text.parse()?;
            }
            "--checkpoint-every" => {
                checkpoint_every = Some(take_parsed(args, &mut i, "--checkpoint-every", Some(1))?)
            }
            "--metrics-every" => {
                metrics_every = Some(take_parsed(args, &mut i, "--metrics-every", Some(1))?)
            }
            "--trace-out" => trace_out = Some(take_value(args, &mut i, "--trace-out")?),
            "--redact-log" => redact_log = true,
            "--review-budget" => {
                review_budget = Some(take_parsed(args, &mut i, "--review-budget", Some(1))?)
            }
            _ if take_limit(&mut limits, args, &mut i)? => {}
            other => return Err(format!("unknown option {other:?}")),
        }
        i += 1;
    }
    if stdio && listen.is_some() {
        return Err("--stdio and --listen are mutually exclusive".into());
    }
    if front_tuned && listen.is_none() {
        return Err("--max-conns/--sub-queue/--conn-idle-ms/--max-line-bytes/--drain-ms/\
                    --net-fault tune the TCP front door and require --listen"
            .into());
    }
    if data_dir.is_some() && (db_path.is_some() || log_path.is_some()) {
        return Err("--data-dir recovers its own state; it is mutually exclusive with \
                    --db/--log preloading"
            .into());
    }
    if data_dir.is_none() && checkpoint_every.is_some() {
        return Err("--checkpoint-every requires --data-dir".into());
    }

    let config = ServiceConfig {
        limits,
        checkpoint_every,
        metrics_every,
        redact_log,
        review_budget,
        ..Default::default()
    };

    let default_tenant =
        default_tenant.unwrap_or_else(|| audex::service::DEFAULT_TENANT.to_string());
    let fleet = if let Some(dir) = data_dir {
        // A durable fleet: the default tenant recovers from the data-dir
        // root (exactly the pre-tenancy layout), every `tenants/<name>/`
        // store is reopened alongside it, and a corrupt named tenant is
        // reported as degraded instead of failing the fleet.
        let (fleet, recovery) = ShardMap::open(&FleetConfig {
            service: config,
            default_tenant,
            data_dir: PathBuf::from(&dir),
            wal: WalOptions { fsync, ..Default::default() },
        })?;
        // Stderr, like the listening banner: protocol output stays clean.
        report_fleet_recovery(&dir, &recovery);
        fleet
    } else {
        let db = match db_path {
            Some(path) => {
                let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
                load_database_script(&text).map_err(|e| format!("{path}: {e}"))?
            }
            None => audex::Database::new(),
        };
        let core = match log_path {
            Some(path) => {
                let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
                let log = load_log_script(&text).map_err(|e| format!("{path}: {e}"))?;
                ServiceCore::preloaded(db, log, config)
                    .map_err(|e| format!("preloading the index from {path}: {e}"))?
            }
            None => ServiceCore::new(db, config),
        };
        ShardMap::with_default(core, &default_tenant)?
    };

    // The tracer outlives the fleet (which serve consumes): holding our own
    // Arc lets the trace be exported after the serve loop returns.
    let tracer = match &trace_out {
        Some(_) => {
            let tracer = Tracer::new();
            fleet.with_default_core(|core| core.set_tracer(Arc::clone(&tracer)));
            tracer
        }
        None => Tracer::disabled(),
    };

    let run = match listen {
        None => audex::service::serve_fleet_stdio(&fleet).map_err(|e| e.to_string()),
        Some(addr) => {
            let tenants = fleet.tenant_count();
            let default = fleet.default_tenant().to_string();
            let server = audex::service::Server::bind_fleet(fleet, &addr, front)
                .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
            // Stderr, so scripts scraping protocol output are not confused.
            eprintln!("audexd listening on {}", server.local_addr().map_err(|e| e.to_string())?);
            eprintln!("audexd serving {tenants} tenant(s), default {default:?}");
            // From here SIGTERM/SIGINT means drain (flush subscribers,
            // fsync every tenant's journal) and exit 0 instead of dying
            // mid-write.
            sig::install();
            server.run_watching(&sig::DRAIN).map_err(|e| e.to_string())
        }
    };
    // Written even when the serve loop failed: the spans up to the failure
    // are exactly what a post-mortem wants.
    if let Some(path) = &trace_out {
        std::fs::write(path, tracer.export_chrome_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("audex: wrote phase trace to {path}");
    }
    run
}

/// One-line-per-fact recovery summary on stderr.
fn report_recovery(dir: &str, recovered: &Recovered) {
    match &recovered.checkpoint {
        Some(c) => eprintln!(
            "audex: {dir}: checkpoint covers {} record(s), WAL tail has {}",
            c.covers_seq,
            recovered.tail.len()
        ),
        None => {
            eprintln!("audex: {dir}: no checkpoint, WAL has {} record(s)", recovered.tail.len())
        }
    }
    for note in &recovered.notes {
        eprintln!("audex: {dir}: {note}");
    }
}

/// Per-tenant recovery summary on stderr. The default tenant (first row)
/// keeps the single-store wording; named tenants and degraded ones get
/// one line each.
fn report_fleet_recovery(dir: &str, recovery: &FleetRecovery) {
    for (idx, t) in recovery.tenants.iter().enumerate() {
        if let Some(why) = &t.error {
            eprintln!("audex: {dir}: tenant {}: DEGRADED (not serving): {why}", t.tenant);
            continue;
        }
        if idx == 0 {
            match t.via_checkpoint {
                0 => eprintln!("audex: {dir}: no checkpoint, WAL has {} record(s)", t.tail),
                covers => eprintln!(
                    "audex: {dir}: checkpoint covers {covers} record(s), WAL tail has {}",
                    t.tail
                ),
            }
        } else {
            eprintln!(
                "audex: {dir}: tenant {}: {} record(s) ({} via checkpoint, tail {})",
                t.tenant, t.records, t.via_checkpoint, t.tail
            );
        }
        for note in &t.notes {
            if idx == 0 {
                eprintln!("audex: {dir}: {note}");
            } else {
                eprintln!("audex: {dir}: tenant {}: {note}", t.tenant);
            }
        }
    }
}

fn take_data_dir(args: &[String]) -> Result<String, String> {
    let mut data_dir: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--data-dir" => data_dir = Some(take_value(args, &mut i, "--data-dir")?),
            other => return Err(format!("unknown option {other:?}")),
        }
        i += 1;
    }
    data_dir.ok_or_else(|| "--data-dir is required".into())
}

fn cmd_recover(args: &[String]) -> Result<(), String> {
    each_store(&take_data_dir(args)?, "recovered", recover_store)
}

fn cmd_compact(args: &[String]) -> Result<(), String> {
    each_store(&take_data_dir(args)?, "compacted", compact_store)
}

/// Runs `per_store` on the data-dir root, then on every named tenant's
/// store. A failing root is the command's error; a failing tenant is
/// reported and the rest keep going, exactly like fleet recovery in
/// `serve`.
fn each_store(
    dir: &str,
    done: &str,
    per_store: fn(&Path, Option<&str>) -> Result<(), String>,
) -> Result<(), String> {
    per_store(Path::new(dir), None)?;
    let mut failed = Vec::new();
    for (name, tdir) in audex::persist::tenants::discover(Path::new(dir))
        .map_err(|e| format!("{dir}/tenants: {e}"))?
    {
        if let Err(e) = per_store(&tdir, Some(&name)) {
            println!("tenant {name}: FAILED: {e}");
            failed.push(name);
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("{} tenant store(s) could not be {done}: {}", failed.len(), failed.join(", ")))
    }
}

/// Opens one store for append (repairing a torn tail, reconciling
/// checkpoint and WAL) and replays it. The root names itself in its
/// errors and reports the recovery on stderr; a tenant's line already
/// names the tenant.
fn open_store(
    dir: &Path,
    tenant: Option<&str>,
) -> Result<(Arc<Journal>, Recovered, ServiceCore), String> {
    let shown = dir.display().to_string();
    let (journal, mut recovered) =
        Journal::open(dir, WalOptions::default()).map_err(|e| match tenant {
            None => format!("{shown}: {e}"),
            Some(_) => e.to_string(),
        })?;
    if tenant.is_none() {
        report_recovery(&shown, &recovered);
    }
    let core =
        ServiceCore::recovered(&mut recovered, ServiceConfig::default()).map_err(
            |e| match tenant {
                None => format!("replaying {shown}: {e}"),
                Some(_) => format!("replay: {e}"),
            },
        )?;
    Ok((journal, recovered, core))
}

/// `recover`: repairs and replays one store, proving its records replay
/// cleanly, and prints its summary.
fn recover_store(dir: &Path, tenant: Option<&str>) -> Result<(), String> {
    let (_journal, recovered, core) = open_store(dir, tenant)?;
    let queries = core.log().len();
    let summary = format!(
        "{} record(s) ({} via checkpoint), {queries} logged quer{}",
        recovered.total_records(),
        recovered.checkpoint.as_ref().map_or(0, |c| c.covers_seq),
        if queries == 1 { "y" } else { "ies" },
    );
    match (tenant, &recovered.torn) {
        (None, torn) => {
            println!("recovered: {summary}, backlog at ts {}", core.db().last_ts().0);
            match torn {
                Some(t) => println!(
                    "repaired: torn tail in {} ({} byte(s) dropped)",
                    t.path.display(),
                    t.dropped_bytes
                ),
                None => println!("clean: no torn tail"),
            }
        }
        (Some(name), Some(t)) => println!(
            "tenant {name}: {summary}, torn tail repaired ({} byte(s) dropped)",
            t.dropped_bytes
        ),
        (Some(name), None) => println!("tenant {name}: {summary}, clean"),
    }
    Ok(())
}

/// `compact`: checkpoints one store, prunes its covered segments and
/// reports its dead tuple versions.
fn compact_store(dir: &Path, tenant: Option<&str>) -> Result<(), String> {
    let (journal, _recovered, mut core) = open_store(dir, tenant)?;
    core.attach_journal(journal);
    let path = core.checkpoint().map_err(|e| match tenant {
        None => format!("checkpointing {}: {e}", dir.display()),
        Some(_) => format!("checkpoint: {e}"),
    })?;
    let jc = core.journal().map(|j| j.counters()).unwrap_or_default();
    let covers = format!(
        "covers {} record(s); {} live segment(s), {} byte(s)",
        jc.last_checkpoint_seq, jc.segments, jc.segment_bytes,
    );
    let gc = mvcc_gc_report(core.db());
    match tenant {
        None => println!("compacted: checkpoint {} {covers}\n{gc}", path.display()),
        Some(name) => println!("tenant {name}: checkpoint {covers}; {gc}"),
    }
    Ok(())
}

/// Dead-version occupancy of the version stores. Dead versions are
/// *reported*, never dropped: reclaiming them would truncate the backlog
/// relations (`b-T`) audits depend on, so compaction's GC story for tuple
/// versions is visibility, not deletion.
fn mvcc_gc_report(db: &audex::storage::Database) -> String {
    let stats = db.mvcc_stats();
    let mut line = format!(
        "mvcc: {} live / {} dead version(s), ~{} byte(s) retained for time travel",
        stats.live_versions, stats.dead_versions, stats.approx_bytes,
    );
    let per_table: Vec<String> = db
        .mvcc_table_stats()
        .into_iter()
        .filter(|(_, s)| s.dead_versions > 0)
        .map(|(name, s)| format!("{name}={}", s.dead_versions))
        .collect();
    if !per_table.is_empty() {
        line.push_str(&format!(" (dead by table: {})", per_table.join(", ")));
    }
    line
}

/// Offline triage report: recover a store read-only and print the review
/// queue the daemon would serve, ranked and paged the same way (the
/// rendering and ranking code paths are shared with `serve`).
fn cmd_triage(args: &[String]) -> Result<(), String> {
    use std::io::IsTerminal;

    let mut data_dir: Option<String> = None;
    let mut tenant: Option<String> = None;
    let mut top: Option<u64> = None;
    let mut offset: u64 = 0;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--data-dir" => data_dir = Some(take_value(args, &mut i, "--data-dir")?),
            "--tenant" => tenant = Some(take_value(args, &mut i, "--tenant")?),
            "--top" => top = Some(take_parsed(args, &mut i, "--top", None)?),
            "--offset" => offset = take_parsed(args, &mut i, "--offset", None)?,
            other => return Err(format!("unknown option {other:?}")),
        }
        i += 1;
    }
    let dir = data_dir.ok_or("--data-dir is required")?;
    let mut path = PathBuf::from(&dir);
    if let Some(t) = &tenant {
        path = path.join("tenants").join(t);
    }
    let mut recovered =
        audex::persist::read_store(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut core = ServiceCore::recovered(&mut recovered, ServiceConfig::default())
        .map_err(|e| format!("replaying {}: {e}", path.display()))?;
    let triage = core.handle(audex::service::Request::Triage).response;
    let queue = core.handle(audex::service::Request::Queue { top, offset }).response;
    if std::io::stdout().is_terminal() {
        let count = |key: &str| triage.get(key).and_then(audex::service::Json::as_int).unwrap_or(0);
        println!(
            "review queue: {} open, {} acked, {} dismissed",
            count("open"),
            count("acked"),
            count("dismissed"),
        );
        let templates = triage
            .get("templates")
            .and_then(audex::service::Json::as_arr)
            .map_or(0, <[audex::service::Json]>::len);
        let compression =
            triage.get("compression").and_then(audex::service::Json::as_f64).unwrap_or(0.0);
        println!("templates: {templates} recurring pattern(s), compression {compression:.2}");
        print!("{}", audex::service::render_queue_table(&queue));
    } else {
        println!("{triage}");
        println!("{queue}");
    }
    Ok(())
}

/// Stamps `"tenant":NAME` into a request line for `send --tenant`. Lines
/// that don't parse as a JSON object, or that already address a tenant,
/// go through verbatim (the server answers with its own structured error
/// if they're bad).
fn stamp_tenant(line: &str, tenant: &str) -> String {
    match audex::service::Json::parse(line) {
        Ok(audex::service::Json::Obj(mut fields)) => {
            if fields.iter().any(|(k, _)| k == "tenant") {
                return line.to_string();
            }
            fields.push(("tenant".to_string(), audex::service::Json::from(tenant)));
            audex::service::Json::Obj(fields).to_string()
        }
        _ => line.to_string(),
    }
}

fn cmd_send(args: &[String]) -> Result<(), String> {
    use std::io::{BufRead, BufReader, IsTerminal, Read, Write};

    let mut addr: Option<String> = None;
    let mut connect_retries: u32 = 5;
    let mut tenant: Option<String> = None;
    let mut requests: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = Some(take_value(args, &mut i, "--addr")?),
            "--tenant" => tenant = Some(take_value(args, &mut i, "--tenant")?),
            "--connect-retries" => {
                connect_retries = take_parsed(args, &mut i, "--connect-retries", None)?
            }
            other if other.starts_with("--") => return Err(format!("unknown option {other:?}")),
            req => requests.push(req.to_string()),
        }
        i += 1;
    }
    let addr = addr.ok_or("--addr is required")?;
    if requests.is_empty() {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| format!("reading requests from stdin: {e}"))?;
        requests.extend(text.lines().filter(|l| !l.trim().is_empty()).map(String::from));
    }
    if let Some(tenant) = &tenant {
        requests = requests.iter().map(|r| stamp_tenant(r, tenant)).collect();
    }

    // The server may still be binding (tests race `serve` startup; so do
    // process supervisors): retry the connect a bounded number of times
    // with a fixed backoff before giving up.
    let stream = {
        let mut attempt = 0;
        loop {
            match std::net::TcpStream::connect(&addr) {
                Ok(stream) => break stream,
                Err(_) if attempt < connect_retries => {
                    attempt += 1;
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
                Err(e) => {
                    return Err(format!(
                        "cannot connect to {addr} after {} attempt(s): {e}",
                        attempt + 1
                    ))
                }
            }
        }
    };
    // Request/response ping-pong: with Nagle on, a request split across
    // segments waits out the peer's delayed ACK (~40ms) before it completes.
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut follow = false;
    for req in &requests {
        // Known-bad requests still go to the server (it answers with a
        // structured error); parsing here only detects `subscribe` (to
        // follow the event stream) and `list-tenants` (pretty-printed on
        // a terminal).
        let parsed = audex::service::parse_request(req);
        follow |= matches!(parsed, Ok(audex::service::Request::Subscribe));
        let tenant_listing = matches!(parsed, Ok(audex::service::Request::ListTenants));
        let queue_listing = matches!(parsed, Ok(audex::service::Request::Queue { .. }));
        let bulk_ack = matches!(parsed, Ok(audex::service::Request::AckTemplate { .. }));
        // The request and its newline leave in one write, one segment.
        writer
            .write_all(format!("{req}\n").as_bytes())
            .map_err(|e| format!("sending to {addr}: {e}"))?;
        let mut line = String::new();
        if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err(format!("{addr} closed the connection early"));
        }
        if (tenant_listing || queue_listing || bulk_ack) && std::io::stdout().is_terminal() {
            match audex::service::Json::parse(line.trim()) {
                Ok(resp) if resp.get("ok") == Some(&audex::service::Json::Bool(true)) => {
                    if tenant_listing {
                        print!("{}", audex::service::render_tenant_table(&resp));
                    } else if queue_listing {
                        print!("{}", audex::service::render_queue_table(&resp));
                    } else {
                        // Bulk ack: one human-readable confirmation line so a
                        // terminal operator sees how far the template reached.
                        let acked = match resp.get("acked") {
                            Some(audex::service::Json::Int(n)) => *n,
                            _ => 0,
                        };
                        let template = match resp.get("template") {
                            Some(audex::service::Json::Int(n)) => *n,
                            _ => -1,
                        };
                        println!(
                            "acked {acked} quer{} matching template {template}",
                            if acked == 1 { "y" } else { "ies" }
                        );
                    }
                    continue;
                }
                _ => {}
            }
        }
        print!("{line}");
    }
    // After `subscribe`, keep printing event lines until the server goes
    // away (shutdown or ^C on our side). The follower is a tap, not a
    // filter: every event line is forwarded verbatim whatever its "event"
    // tag, so kinds added after this client was built (`metrics`, say)
    // flow through instead of being silently dropped.
    if follow {
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                break;
            }
            print!("{line}");
        }
    }
    Ok(())
}

fn cmd_paper() -> Result<(), String> {
    use audex::workload::paper::*;
    let db = paper_database();
    let log = audex::QueryLog::new();
    let engine = AuditEngine::new(&db, &log);
    for (name, text) in [
        ("Fig. 4 (perfect privacy)", FIG4_PERFECT_PRIVACY),
        ("Fig. 5 (weak syntactic)", FIG5_WEAK_SYNTACTIC),
        ("Fig. 6 (semantic)", FIG6_SEMANTIC),
    ] {
        let mut expr = audex::parse_audit(text).map_err(|e| e.to_string())?;
        expr.data_interval = Some(audex::sql::ast::TimeInterval {
            start: audex::sql::ast::TsSpec::At(paper_epoch()),
            end: audex::sql::ast::TsSpec::At(paper_now()),
        });
        let prepared = engine.prepare(&expr, paper_now()).map_err(|e| e.to_string())?;
        println!("{name}:");
        println!("  G = {}", prepared.render_granules(10_000).map_err(|e| e.to_string())?);
    }
    println!("(run `cargo run --example paper_artifacts` for the full table/figure set)");
    Ok(())
}

fn cmd_demo() -> Result<(), String> {
    use audex::workload::*;
    let hospital = HospitalConfig { patients: 300, zip_zones: 10, diseases: 8, seed: 1 };
    let db = generate_hospital(&hospital, Timestamp(0));
    let mix =
        QueryMixConfig { queries: 200, suspicious_rate: 0.06, start: Timestamp(1_000), seed: 2 };
    let (log, planted) = load_log(&generate_queries(&hospital, &mix));
    println!(
        "demo: {} patients, {} logged queries, {} planted violations",
        hospital.patients,
        log.len(),
        planted.len()
    );
    let engine = AuditEngine::new(&db, &log);
    let mut expr = audex::parse_audit(&standard_audit_text()).map_err(|e| e.to_string())?;
    let iv = audex::sql::ast::TimeInterval {
        start: audex::sql::ast::TsSpec::At(Timestamp(0)),
        end: audex::sql::ast::TsSpec::Now,
    };
    expr.during = Some(iv);
    expr.data_interval = Some(iv);
    let report = engine.audit_at(&expr, Timestamp(1_000_000)).map_err(|e| e.to_string())?;
    print!("{}", report.render_text(&log));
    Ok(())
}
