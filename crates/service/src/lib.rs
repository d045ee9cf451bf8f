//! `audex-service` — `audexd`, the streaming audit service.
//!
//! The paper's framework audits a *finished* log; its §4 future work asks
//! for the online version. This crate is that daemon: a long-running
//! service that ingests timestamped DML and annotated queries as a stream,
//! scores every query on arrival against standing audit expressions
//! ([`audex_core::OnlineAuditor`]), folds the footprint that same
//! execution yields into an incrementally maintained
//! [`audex_core::TouchIndex`] (equivalent to a from-scratch build, proven
//! by differential proptest), and answers
//! full `audit` requests straight from the index without re-running the
//! log.
//!
//! * [`proto`] — the line-delimited JSON protocol (one object per line;
//!   hand-rolled [`json`] — the workspace stays serde-free),
//! * [`state`] — the transport-agnostic state machine, with the resource
//!   governor as admission control: each request runs under the configured
//!   [`audex_core::ResourceLimits`], and a tripped budget rejects the
//!   request whole with `"busy":true` backpressure instead of degrading
//!   the index,
//! * [`tenant`] — multi-tenant sharding: a [`tenant::ShardMap`] of
//!   org-scoped cores, each with its own database, log, audits, governor
//!   and journal (`<data-dir>/tenants/<name>/`), so independent tenants
//!   ingest, audit and checkpoint in parallel with **no shared lock on
//!   the hot path**. Requests address a tenant with a `"tenant"` field
//!   (absent ⇒ the default tenant — full wire compatibility);
//!   `create-tenant` / `drop-tenant` / `list-tenants` manage the fleet,
//!   and `stats`/`metrics`/`audit` accept `"all_tenants":true` for
//!   snapshot-then-aggregate fan-outs that never block on a stuck shard,
//! * [`server`] — stdin/stdout and TCP front ends (`audex serve`). The
//!   TCP front door is overload-safe: per-connection handler threads
//!   behind a hard cap (excess accepts shed with a structured error),
//!   bounded per-subscriber broadcast queues with slow-subscriber
//!   eviction, per-connection read/frame budgets, and a graceful drain
//!   that flushes subscribers and fsyncs the journal,
//! * [`fault`] — deterministic network fault injection
//!   ([`fault::NetFaultPlan`], the network sibling of
//!   `audex_storage::fault`) for proving those properties under torn
//!   frames, mid-request disconnects, stalled readers and slow writers.
//!
//! Telemetry rides on [`audex_obs`]: every [`state::ServiceCore`] owns a
//! metrics registry (counters, per-phase and per-request latency
//! histograms) answered over the wire by the `metrics` request as
//! Prometheus text, broadcast periodically to subscribers with
//! [`state::ServiceConfig::metrics_every`], and traced span-by-span when a
//! [`audex_obs::Tracer`] is attached via
//! [`state::ServiceCore::set_tracer`].
//!
//! The versioned backlog, snapshot cache and governor all come from the
//! batch system unchanged; the service is a thin stateful shell that keeps
//! them hot across requests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod fault;
pub mod json;
pub mod proto;
pub mod render;
pub mod server;
pub mod state;
pub mod tenant;

pub use fault::NetFaultPlan;
pub use json::Json;
pub use proto::{parse_envelope, parse_request, Envelope, Request};
pub use render::render_queue_table;
pub use server::{serve_fleet_stdio, serve_stdio, FrontDoorConfig, Server};
pub use state::{journal_stats_fields, Outcome, ServiceConfig, ServiceCore, ServiceCounters};
pub use tenant::{
    render_tenant_table, FleetConfig, FleetRecovery, Routed, Shard, ShardMap, TenantId,
    TenantRecovery, DEFAULT_TENANT,
};
