//! Transports for the `audexd` protocol: stdin/stdout and TCP.
//!
//! Both speak the same line protocol (see [`crate::proto`]): the transport
//! reads a line, parses it, hands the request to the shared
//! [`ServiceCore`] behind a mutex, writes the single response line back to
//! the requester, and fans event lines out to subscribed connections.
//!
//! The TCP front door is built to be **overload-safe**: whatever one
//! client does — stall, spam, send garbage, die mid-frame — every other
//! client's latency is unaffected. The moving parts:
//!
//! * [`accept`] — the acceptor. Per-connection handler threads behind a
//!   hard connection cap ([`FrontDoorConfig::max_conns`]); excess accepts
//!   are *shed* with a structured `{"ok":false,"error":"overloaded"}` line
//!   and closed, never queued. Also owns the graceful drain sequence
//!   (stop accepting → unwedge handlers → flush subscriber queues with a
//!   deadline → fsync the journal).
//! * [`conn`] — one connection's request loop, with robustness budgets: a
//!   byte-capped frame reader (oversized frames are rejected with a
//!   structured error and the input resynchronised at the next newline),
//!   an optional read-idle deadline, and malformed-frame tolerance (skip,
//!   count, keep serving).
//! * [`broadcast`] — the subscriber hub. Events are *sequenced* under the
//!   core lock (so every subscriber sees ingestion order) but *delivered*
//!   outside it: each subscriber owns a bounded queue drained by a
//!   dedicated writer thread, and a subscriber whose queue fills is
//!   evicted. Ingest latency is therefore independent of the slowest
//!   subscriber.
//! * [`wire`] — the one write path. A reply, or a batch of queued event
//!   lines, is rendered whole and leaves in a single `write`.
//!
//! Every front-door decision is counted in the core's metrics registry
//! under `audex_service_*` (see [`FrontMetrics`]) and surfaced by the
//! `stats` request.

mod accept;
mod broadcast;
mod conn;
mod wire;

use std::io::{self, BufRead, Write};
use std::time::Duration;

use audex_obs::{Counter, Gauge, Registry};

use crate::fault::NetFaultPlan;
use crate::json::{obj, Json};
use crate::proto::{parse_envelope, Request};
use crate::state::{Outcome, ServiceCore};
use crate::tenant::{Routed, ShardMap, TenantId};

pub use accept::Server;

/// Tuning knobs for the TCP front door, one per `serve` flag.
#[derive(Debug, Clone)]
pub struct FrontDoorConfig {
    /// Hard cap on concurrent connections (`--max-conns`); accepts beyond
    /// it are shed with a structured `overloaded` error, never queued.
    pub max_conns: usize,
    /// Bounded depth of each subscriber's event queue (`--sub-queue`); a
    /// subscriber whose queue fills is evicted.
    pub sub_queue: usize,
    /// Read-idle deadline for non-subscriber connections
    /// (`--conn-idle-ms`); `None` (the default) never times out.
    pub conn_idle: Option<Duration>,
    /// Longest accepted request line in bytes (`--max-line-bytes`);
    /// anything longer is rejected with a structured error and the input
    /// resynchronised at the next newline.
    pub max_line_bytes: usize,
    /// Deadline for the graceful drain to flush subscriber queues and for
    /// straggling handler threads to finish (`--drain-ms`).
    pub drain: Duration,
    /// Per-write timeout on subscriber sockets; a subscriber that blocks a
    /// write this long is treated as stalled and evicted.
    pub write_timeout: Duration,
    /// Deterministic network faults to inject (`--net-fault`, repeatable);
    /// empty in production.
    pub faults: NetFaultPlan,
}

impl Default for FrontDoorConfig {
    fn default() -> Self {
        FrontDoorConfig {
            max_conns: 1024,
            sub_queue: 256,
            conn_idle: None,
            max_line_bytes: 1 << 20,
            drain: Duration::from_millis(2000),
            write_timeout: Duration::from_millis(1000),
            faults: NetFaultPlan::new(),
        }
    }
}

/// Handles on the front door's metric series. Constructed against the
/// core's registry — [`Registry`] get-or-creates, so the server's handles
/// and the `stats` renderer read the same cells.
pub(crate) struct FrontMetrics {
    /// `audex_service_connections` — currently open connections.
    pub connections: Gauge,
    /// `audex_service_connections_total` — connections accepted and served.
    pub connections_total: Counter,
    /// `audex_service_connections_shed_total` — accepts shed over the cap.
    pub connections_shed: Counter,
    /// `audex_service_subscribers` — currently attached subscribers.
    pub subscribers: Gauge,
    /// `audex_service_subscribers_evicted_total` — subscribers evicted for
    /// falling behind (queue full or write timeout).
    pub subscribers_evicted: Counter,
    /// `audex_service_subscriber_disconnects_total` — subscribers that
    /// went away on their own (EOF / connection reset).
    pub subscriber_disconnects: Counter,
    /// `audex_service_frames_malformed_total` — request lines that failed
    /// to parse (skipped with a structured error, connection kept).
    pub frames_malformed: Counter,
    /// `audex_service_frames_oversized_total` — request lines over the
    /// byte cap (rejected, input resynchronised).
    pub frames_oversized: Counter,
    /// `audex_service_frames_truncated_total` — connections that died
    /// mid-frame (bytes after the last newline).
    pub frames_truncated: Counter,
    /// `audex_service_conn_idle_timeouts_total` — connections closed by
    /// the read-idle deadline.
    pub conn_idle_timeouts: Counter,
}

impl FrontMetrics {
    pub(crate) fn new(registry: &Registry) -> FrontMetrics {
        FrontMetrics {
            connections: registry.gauge(
                "audex_service_connections",
                "Currently open front-door connections.",
                &[],
            ),
            connections_total: registry.counter(
                "audex_service_connections_total",
                "Front-door connections accepted and served.",
                &[],
            ),
            connections_shed: registry.counter(
                "audex_service_connections_shed_total",
                "Accepts shed with an overloaded error because the connection cap was reached.",
                &[],
            ),
            subscribers: registry.gauge(
                "audex_service_subscribers",
                "Currently attached event subscribers.",
                &[],
            ),
            subscribers_evicted: registry.counter(
                "audex_service_subscribers_evicted_total",
                "Subscribers evicted for falling behind (bounded queue full or write timeout).",
                &[],
            ),
            subscriber_disconnects: registry.counter(
                "audex_service_subscriber_disconnects_total",
                "Subscribers that disconnected on their own.",
                &[],
            ),
            frames_malformed: registry.counter(
                "audex_service_frames_malformed_total",
                "Request lines that failed to parse; skipped with a structured error.",
                &[],
            ),
            frames_oversized: registry.counter(
                "audex_service_frames_oversized_total",
                "Request lines rejected for exceeding the byte cap.",
                &[],
            ),
            frames_truncated: registry.counter(
                "audex_service_frames_truncated_total",
                "Connections that ended mid-frame, leaving bytes after the last newline.",
                &[],
            ),
            conn_idle_timeouts: registry.counter(
                "audex_service_conn_idle_timeouts_total",
                "Connections closed by the read-idle deadline.",
                &[],
            ),
        }
    }
}

/// The structured error line every front-door rejection speaks:
/// `{"ok":false,"error":...}`.
pub(crate) fn protocol_error(message: String) -> Json {
    obj([("ok", Json::Bool(false)), ("error", Json::Str(message))])
}

/// Serves one session over stdin/stdout: the `audex serve --stdio` mode,
/// also the harness the end-to-end tests drive as a child process. Wraps
/// the core as a single-tenant fleet — the wire behaviour is unchanged.
/// Returns when stdin closes or a `shutdown` request arrives.
pub fn serve_stdio(core: ServiceCore) -> io::Result<()> {
    serve_fleet_stdio(&ShardMap::single(core))
}

/// Serves a whole tenant fleet over stdin/stdout. One session can
/// subscribe to at most one tenant (the one its `subscribe` addressed);
/// only that shard's events are printed. Single-connection by
/// construction, so the TCP front door's caps and queues don't apply;
/// drain here is simply EOF.
pub fn serve_fleet_stdio(fleet: &ShardMap) -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut out = stdout.lock();
    let mut subscribed_to: Option<TenantId> = None;
    for line in stdin.lock().lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let mut stop = false;
        let (response, events) = match parse_envelope(trimmed) {
            Err(e) => (protocol_error(e), Vec::new()),
            Ok(env) => match fleet.route(env.tenant.as_deref(), env.req) {
                Routed::Reply(response) => (response, Vec::new()),
                Routed::Shutdown(response) => {
                    stop = true;
                    (response, Vec::new())
                }
                Routed::Shard(shard, req) => {
                    let wants_sub = req == Request::Subscribe && subscribed_to.is_none();
                    let mut core = shard.lock();
                    let Outcome { response, events, shutdown } = core.handle(req);
                    drop(core);
                    stop = shutdown;
                    if wants_sub {
                        subscribed_to = Some(shard.id().clone());
                    }
                    let audible = subscribed_to.as_ref() == Some(shard.id());
                    (response, if audible { events } else { Vec::new() })
                }
            },
        };
        wire::write_line(&mut out, &response)?;
        for e in &events {
            wire::write_line(&mut out, e)?;
        }
        out.flush()?;
        if stop {
            break;
        }
    }
    Ok(())
}
