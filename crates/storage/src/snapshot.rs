//! Version-snapshot caching for the [`crate::database::DatabaseAt`] read
//! path.
//!
//! Every versioned read — a table's visibility scan at any instant, live
//! or historical, or a backlog relation `b-T` — flows through the single
//! `DatabaseAt::relation` choke point. The audit engine hits that choke
//! point once per logged query per referenced table, and most of those
//! reads resolve to the *same* reconstructed state: a `DATA-INTERVAL`
//! enumerates a handful of versions, while a log holds thousands of
//! queries. The [`SnapshotCache`] memoizes the reconstructed relations so
//! a version is reconstructed once instead of once per read, up to a single
//! fixed capacity (`SNAPSHOT_CACHE_CAP`).
//!
//! # Keying: self-validating, no invalidation
//!
//! Entries are keyed by `(table, kind, change-prefix length)` where the
//! prefix length is `changes.partition_point(|c| c.ts <= ts)` — the number
//! of backlog records visible at the requested instant. Because histories
//! are append-only, the content of `changes[..n]` can never change for a
//! given `n`: a DML statement only ever *extends* the log, shifting the
//! partition point of subsequent reads to a longer prefix (and therefore a
//! fresh key). Stale entries are simply never looked up again, so the cache
//! needs no invalidation hooks in the write path. Two side effects fall out
//! for free:
//!
//! * distinct timestamps that select the same version (`ts = 15` and
//!   `ts = 17` with changes at 10 and 20) share one entry — the
//!   identical-timestamp replay dedup the audit loop needs, and
//! * a live read (`ts >= last_ts`) is the same visibility scan as a
//!   historical read at or past the final change, under the same
//!   full-prefix key.
//!
//! # Fault-plan interaction
//!
//! The cache sits *behind* the fault gates: `DatabaseAt::relation` consults
//! [`crate::fault::FaultState`] before ever touching the cache, so a
//! planned fault fires even when the snapshot it addresses is already
//! cached, and fault state stays invisible to [`Database`
//! equality](crate::database::Database) (the cache itself is equally
//! invisible — it is derived data).
//!
//! # Sharing
//!
//! The cache uses interior mutability (a [`Mutex`]-guarded map) so the
//! read-only `DatabaseAt` view can populate it, and it is `Sync` so
//! parallel audit workers share one cache. Cloning a
//! [`crate::database::Database`] hands the clone a **fresh, empty** cache:
//! clones may diverge, and a shared cache would let one clone's prefix keys
//! alias the other's different content.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use audex_sql::Ident;

use crate::table::Relation;

/// Which derived relation an entry memoizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SnapshotKind {
    /// A table state as of an instant (or the live table, which equals the
    /// state after the full change prefix).
    Replay,
    /// A backlog relation `b-T` (every after-image up to the instant).
    Backlog,
}

/// Entries a cache holds. Reconstruction is a cheap visibility filter, so the
/// cache is a small reuse buffer (repeated probes of one `DATA-INTERVAL`);
/// bounding it keeps long-running services from accumulating one entry per
/// distinct version forever. When a miss would exceed the cap the whole map
/// is cleared — deterministic, and correct for any eviction order because
/// keys are self-validating.
const SNAPSHOT_CACHE_CAP: usize = 64;

/// Cache key: `(table, kind, visible change-prefix length)`.
pub(crate) type SnapshotKey = (Ident, SnapshotKind, usize);

/// Hit/miss counters of a [`SnapshotCache`], for tests and diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotStats {
    /// Reads served from the cache.
    pub hits: u64,
    /// Reads that had to reconstruct the relation.
    pub misses: u64,
}

/// A memo table of reconstructed relations. See the module docs for the
/// keying discipline that makes entries self-validating.
#[derive(Debug, Default)]
pub struct SnapshotCache {
    entries: Mutex<HashMap<SnapshotKey, Arc<Relation>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Registry mirrors of `hits`/`misses` (no-op unless wired up via
    /// [`crate::database::Database::set_obs`]).
    obs_hits: audex_obs::Counter,
    obs_misses: audex_obs::Counter,
}

impl SnapshotCache {
    /// Mirrors hit/miss counts into `registry` as
    /// `audex_snapshot_cache_hits_total` / `audex_snapshot_cache_misses_total`.
    /// Takes `&mut self` so it can only happen while the owning database is
    /// exclusively held — readers never race the handle swap.
    pub(crate) fn set_obs(&mut self, registry: &audex_obs::Registry) {
        self.obs_hits = registry.counter(
            "audex_snapshot_cache_hits_total",
            "Versioned reads served from the snapshot cache.",
            &[],
        );
        self.obs_misses = registry.counter(
            "audex_snapshot_cache_misses_total",
            "Versioned reads that had to reconstruct the relation.",
            &[],
        );
    }
    /// Returns the cached relation for `key`, building and inserting it on
    /// a miss. The build runs outside the lock so concurrent readers of
    /// *different* versions reconstruct in parallel; two racing readers of
    /// the same key may both build, but the results are identical by
    /// construction (the key pins the change prefix) and the first insert
    /// wins.
    pub(crate) fn get_or_build(
        &self,
        key: SnapshotKey,
        build: impl FnOnce() -> Relation,
    ) -> Arc<Relation> {
        if let Some(hit) = self.lock().get(&key).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.obs_hits.inc();
            return hit;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.obs_misses.inc();
        let built = Arc::new(build());
        let mut entries = self.lock();
        if !entries.contains_key(&key) && entries.len() >= SNAPSHOT_CACHE_CAP {
            entries.clear();
        }
        Arc::clone(entries.entry(key).or_insert(built))
    }

    /// Hit/miss counts so far.
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of cached snapshots.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<SnapshotKey, Arc<Relation>>> {
        // A poisoned lock means a builder panicked mid-insert; the map holds
        // only fully-constructed Arcs, so it is safe to keep using.
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use audex_sql::ast::TypeName;

    fn rel(n: usize) -> Relation {
        Relation {
            name: Ident::new("t"),
            schema: Schema::of(&[("a", TypeName::Int)]),
            rows: (0..n)
                .map(|i| (crate::table::Tid(i as u64), [crate::value::Value::Int(i as i64)].into()))
                .collect(),
        }
    }

    #[test]
    fn second_lookup_hits_and_shares_the_arc() {
        let cache = SnapshotCache::default();
        let key = (Ident::new("t"), SnapshotKind::Replay, 3);
        let a = cache.get_or_build(key.clone(), || rel(2));
        let b = cache.get_or_build(key, || unreachable!("must be served from cache"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), SnapshotStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_are_distinct_entries() {
        let cache = SnapshotCache::default();
        cache.get_or_build((Ident::new("t"), SnapshotKind::Replay, 1), || rel(1));
        cache.get_or_build((Ident::new("t"), SnapshotKind::Replay, 2), || rel(2));
        cache.get_or_build((Ident::new("t"), SnapshotKind::Backlog, 2), || rel(3));
        assert_eq!(cache.stats(), SnapshotStats { hits: 0, misses: 3 });
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn capped_cache_clears_rather_than_grow_past_the_bound() {
        let cache = SnapshotCache::default();
        let key = |n: usize| (Ident::new("t"), SnapshotKind::Replay, n);
        for n in 0..SNAPSHOT_CACHE_CAP {
            cache.get_or_build(key(n), || rel(1));
        }
        assert_eq!(cache.len(), SNAPSHOT_CACHE_CAP);
        // Re-building an existing key never evicts.
        cache.get_or_build(key(0), || unreachable!("must be served from cache"));
        assert_eq!(cache.len(), SNAPSHOT_CACHE_CAP);
        // One more distinct key clears the map and starts over.
        cache.get_or_build(key(SNAPSHOT_CACHE_CAP), || rel(1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn case_insensitive_table_names_share_entries() {
        let cache = SnapshotCache::default();
        cache.get_or_build((Ident::new("Patients"), SnapshotKind::Replay, 1), || rel(1));
        let again = cache.get_or_build((Ident::new("patients"), SnapshotKind::Replay, 1), || {
            unreachable!("idents hash case-insensitively")
        });
        assert_eq!(again.rows.len(), 1);
        assert_eq!(cache.stats().hits, 1);
    }
}
