//! `audex-persist` — the durable audit store.
//!
//! Everything below the service is deliberately in-memory (the paper's
//! setting); this crate adds the one thing memory cannot give: surviving a
//! crash. It provides
//!
//! - a segmented, CRC-guarded **write-ahead log** ([`wal`]) of the logical
//!   events that determine service state — DML changes, query-log appends
//!   with their policy annotations, audit registrations;
//! - periodic **checkpoint snapshots** ([`checkpoint`]) storing the covered
//!   record prefix plus the expensive derived state (touch-index
//!   footprints, per-audit batch states), so recovery does not re-execute
//!   every logged query's footprint;
//! - **crash recovery** ([`journal`]) that tolerates a torn or truncated
//!   tail: scan to the last valid record, truncate, continue;
//! - the **multi-tenant layout contract** ([`tenants`]): the default
//!   tenant's store stays at the data-dir root (no migration), named
//!   tenants get independent stores under `tenants/<name>/`, and dropped
//!   tenants are retired by rename, never deleted.
//!
//! The [`journal::Journal`] is the only handle the service needs: committed
//! DML reaches it as an [`audex_storage::ChangeSink`], and the service
//! appends every other record itself after the mutation commits — so each
//! is journaled synchronously, in order, exactly once.
//!
//! Std-only by workspace policy: the codec ([`codec`]) is hand-rolled
//! little-endian framing with a CRC-32 per WAL frame and per checkpoint
//! body.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod checkpoint;
pub mod codec;
pub mod error;
pub mod journal;
pub mod record;
pub mod tenants;
pub mod wal;

pub use checkpoint::{CheckpointState, DbSnapshot, CHECKPOINTS_KEPT};
pub use error::{PersistError, Result};
pub use journal::{read_store, CheckpointDerived, Journal, JournalCounters, Recovered};
pub use record::WalRecord;
pub use wal::{FsyncPolicy, SegmentMeta, TornTail, Wal, WalOptions, WalScan, BATCH_FSYNC_INTERVAL};
