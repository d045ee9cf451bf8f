//! Dispatch index over standing audits — probe, don't scan.
//!
//! [`crate::rank::OnlineAuditor`] holds the registered audit expressions of
//! a long-running service. Scoring every arriving query against every
//! prepared audit collapses linearly with the number of standing audits;
//! this module is the Rete-style discrimination network over the paper's
//! Fig. 7 grammar that makes ingest sublinear: each logged query *probes*
//! the index and only the audits that could possibly produce a non-empty
//! [`crate::suspicion::QueryContribution`] are evaluated.
//!
//! Every layer is a **sound** prune: an audit is dropped only when its
//! contribution is provably empty (`touched_facts` and `exposed` both
//! empty), in which case the scan-all path skips it without mutating batch
//! state either. The layers, in probe order:
//!
//! 1. **Liveness** — a bitset of registered slots. Removed audits leave
//!    stale bits in the other structures; masking with the live set first
//!    makes those bits harmless until compaction rebuilds the index.
//! 2. **Base tables** — inverted index `base table → audits`. A query
//!    sharing no base table with an audit's `FROM` scope has no shared
//!    bindings, so its contribution carries only covered columns and is
//!    empty by definition.
//! 3. **DURING** — a centered interval tree over the audits' `DURING`
//!    windows, stabbed with the query's execution timestamp (audits without
//!    a window sit in a separate always-on set). Outside the window the
//!    access filter rejects the query outright.
//! 4. **Context pre-filters** — audits sharing the same
//!    role/purpose/user clauses are grouped, and each distinct group is
//!    evaluated **once per query** instead of once per audit; failing
//!    groups are subtracted wholesale.
//! 5. **Empty target view** — an audit whose `U` has no facts can never be
//!    touched or exposed. This is also the sound DATA-INTERVAL prune: a
//!    data interval that selects no versions yields an empty view.
//! 6. **Attributes (value mode)** — inverted index from the base identity
//!    of audited view columns to value-mode audits. Exposure requires the
//!    query's *projection* to resolve onto an audited column, so audits
//!    disjoint from the projected base columns are dropped.
//! 7. **Tuple ids (indispensable mode)** — inverted index `(base, Tid) →
//!    audits` over every fact's tuple ids. After the (shared) query
//!    execution, the lineage's `(base, Tid)` pairs select the candidates;
//!    an audit none of whose fact tuples appear in the lineage has empty
//!    `touched_facts`. Note this layer is deliberately *post-execution*:
//!    pre-execution predicate discrimination (audit pins `col = v1`, query
//!    pins `col = v2 ≠ v1`) is **unsound** under versioning, because a
//!    tuple updated between the audit's data versions and the query's
//!    execution instant can satisfy both predicates at different times.
//!
//! The index is maintained incrementally on register/unregister; the
//! interval tree is rebuilt lazily on the first probe after a change, and
//! the whole index is compacted once enough dead slots accumulate (both
//! counted in `index_rebuilds_total`).

use std::collections::{BTreeSet, HashMap};

use audex_log::{AccessFilter, LoggedQuery};
use audex_sql::{Ident, Timestamp};
use audex_storage::Tid;

use crate::candidate::BaseColumn;
use crate::engine::PreparedAudit;
use crate::lineage::Lineage;

/// Stable identity of a registered audit.
///
/// Ids are assigned monotonically by [`crate::rank::OnlineAuditor::push`]
/// and never reused, so holders (service registrations, checkpoints,
/// verdict events) keep addressing the same audit across removals — unlike
/// the dense indices they replace, which shifted on every `remove`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AuditId(pub u64);

impl std::fmt::Display for AuditId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Monotonic counters describing the index's pruning work, exported in
/// service `stats` and mirrored to `audex_dispatch_*` metric series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Queries probed against the index.
    pub probes: u64,
    /// Audits skipped without evaluation, summed over probes.
    pub pruned: u64,
    /// Audits shortlisted for evaluation, summed over probes.
    pub shortlisted: u64,
    /// Interval-tree rebuilds plus full compactions.
    pub rebuilds: u64,
    /// Fact-probe maps built by the per-audit contribution cache (one per
    /// new base-table signature per audit).
    pub fact_probe_builds: u64,
    /// Contribution probes answered from an already-built fact-probe map —
    /// observations that skipped the per-fact target-view scan entirely.
    pub fact_probe_hits: u64,
}

/// A set of dense audit slots, stored as a bitset.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SlotSet {
    words: Vec<u64>,
}

impl SlotSet {
    pub(crate) fn insert(&mut self, slot: usize) {
        let w = slot / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (slot % 64);
    }

    pub(crate) fn remove(&mut self, slot: usize) {
        if let Some(w) = self.words.get_mut(slot / 64) {
            *w &= !(1 << (slot % 64));
        }
    }

    #[cfg(test)]
    pub(crate) fn contains(&self, slot: usize) -> bool {
        self.words.get(slot / 64).is_some_and(|w| w & (1 << (slot % 64)) != 0)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    pub(crate) fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `self &= other`.
    pub(crate) fn intersect(&mut self, other: &SlotSet) {
        for (i, w) in self.words.iter_mut().enumerate() {
            *w &= other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// `self &= !other`.
    pub(crate) fn subtract(&mut self, other: &SlotSet) {
        for (i, w) in self.words.iter_mut().enumerate() {
            *w &= !other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// `self |= other`.
    pub(crate) fn union(&mut self, other: &SlotSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (i, w) in other.words.iter().enumerate() {
            self.words[i] |= w;
        }
    }

    pub(crate) fn clear(&mut self) {
        self.words.clear();
    }

    /// Slots in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(i, w)| {
            let mut bits = *w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(i * 64 + b)
                }
            })
        })
    }
}

/// A centered interval tree over `(start, end, slot)` with inclusive
/// endpoints, answering stabbing queries in `O(log n + k)`.
#[derive(Debug, Clone)]
struct IntervalNode {
    center: Timestamp,
    /// Intervals containing `center`, ascending by start.
    by_start: Vec<(Timestamp, Timestamp, usize)>,
    /// The same intervals, descending by end.
    by_end: Vec<(Timestamp, Timestamp, usize)>,
    left: Option<Box<IntervalNode>>,
    right: Option<Box<IntervalNode>>,
}

impl IntervalNode {
    fn build(mut intervals: Vec<(Timestamp, Timestamp, usize)>) -> Option<Box<IntervalNode>> {
        if intervals.is_empty() {
            return None;
        }
        // Median start keeps the tree balanced enough for our sizes.
        intervals.sort_by_key(|iv| iv.0);
        let center = intervals[intervals.len() / 2].0;
        let mut here = Vec::new();
        let mut left = Vec::new();
        let mut right = Vec::new();
        for iv in intervals {
            if iv.1 < center {
                left.push(iv);
            } else if iv.0 > center {
                right.push(iv);
            } else {
                here.push(iv);
            }
        }
        let mut by_start = here;
        by_start.sort_by_key(|iv| iv.0);
        let mut by_end = by_start.clone();
        by_end.sort_by_key(|iv| std::cmp::Reverse(iv.1));
        Some(Box::new(IntervalNode {
            center,
            by_start,
            by_end,
            left: IntervalNode::build(left),
            right: IntervalNode::build(right),
        }))
    }

    /// Adds the slot of every interval containing `t` to `out`.
    fn stab(&self, t: Timestamp, out: &mut SlotSet) {
        if t < self.center {
            for (s, _, slot) in &self.by_start {
                if *s > t {
                    break;
                }
                out.insert(*slot);
            }
            if let Some(l) = &self.left {
                l.stab(t, out);
            }
        } else if t > self.center {
            for (_, e, slot) in &self.by_end {
                if *e < t {
                    break;
                }
                out.insert(*slot);
            }
            if let Some(r) = &self.right {
                r.stab(t, out);
            }
        } else {
            for (_, _, slot) in &self.by_start {
                out.insert(*slot);
            }
        }
    }
}

/// Histogram buckets for shortlist lengths (a count, not a duration).
const SHORTLIST_BUCKETS: &[f64] =
    &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0];

/// Metric handles for the `audex_dispatch_*` series.
struct DispatchObs {
    probes: audex_obs::Counter,
    pruned: audex_obs::Counter,
    rebuilds: audex_obs::Counter,
    shortlist: audex_obs::Histogram,
}

/// Pre-execution probe outcome: candidate slots split by granule mode.
///
/// `value` has already passed the attribute layer; `indisp` still awaits
/// the post-execution tuple-id narrowing via
/// [`DispatchIndex::narrow_by_tids`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Probe {
    pub(crate) value: SlotSet,
    pub(crate) indisp: SlotSet,
}

/// The discrimination network over registered audits.
#[derive(Default)]
pub struct DispatchIndex {
    /// Slot → audit id, including dead slots (masked by `live`).
    slots: Vec<AuditId>,
    slot_of: HashMap<AuditId, usize>,
    live: SlotSet,
    dead: usize,
    by_table: HashMap<Ident, SlotSet>,
    with_during: Vec<(Timestamp, Timestamp, usize)>,
    no_during: SlotSet,
    tree: Option<Box<IntervalNode>>,
    tree_dirty: bool,
    /// Distinct context-filter shapes (`during` stripped) and their audits.
    groups: Vec<(AccessFilter, SlotSet)>,
    empty_view: SlotSet,
    value_mode: SlotSet,
    indisp: SlotSet,
    by_attr: HashMap<BaseColumn, SlotSet>,
    /// Base table → tid → audits holding that tuple among their facts.
    by_tid: HashMap<Ident, HashMap<Tid, SlotSet>>,
    stats: DispatchStats,
    obs: Option<DispatchObs>,
}

impl DispatchIndex {
    /// Wires the `audex_dispatch_*` series into `registry`.
    pub fn set_obs(&mut self, registry: &audex_obs::Registry) {
        self.obs = Some(DispatchObs {
            probes: registry.counter(
                "audex_dispatch_probes_total",
                "Logged queries probed against the standing-audit dispatch index.",
                &[],
            ),
            pruned: registry.counter(
                "audex_dispatch_pruned_total",
                "Standing audits skipped without evaluation, summed over probes.",
                &[],
            ),
            rebuilds: registry.counter(
                "audex_dispatch_index_rebuilds_total",
                "Dispatch interval-tree rebuilds plus full index compactions.",
                &[],
            ),
            shortlist: registry.histogram(
                "audex_dispatch_shortlist_len",
                "Standing audits shortlisted for evaluation per probed query.",
                SHORTLIST_BUCKETS,
                &[],
            ),
        });
    }

    /// A copy of the pruning counters.
    pub fn stats(&self) -> DispatchStats {
        self.stats
    }

    /// Registers `id` under a fresh slot and indexes the audit's shape.
    pub(crate) fn insert(&mut self, id: AuditId, prepared: &PreparedAudit) {
        let slot = self.slots.len();
        self.slots.push(id);
        self.slot_of.insert(id, slot);
        self.live.insert(slot);
        self.index_audit(slot, prepared);
    }

    fn index_audit(&mut self, slot: usize, prepared: &PreparedAudit) {
        let bases: BTreeSet<&Ident> = prepared.scope.entries().iter().map(|e| &e.base).collect();
        for b in bases {
            self.by_table.entry(b.clone()).or_default().insert(slot);
        }
        match prepared.filter.during {
            Some((s, e)) => {
                self.with_during.push((s, e, slot));
                self.tree_dirty = true;
            }
            None => self.no_during.insert(slot),
        }
        let shape = AccessFilter { during: None, ..prepared.filter.clone() };
        match self.groups.iter_mut().find(|(f, _)| *f == shape) {
            Some((_, set)) => set.insert(slot),
            None => {
                let mut set = SlotSet::default();
                set.insert(slot);
                self.groups.push((shape, set));
            }
        }
        if prepared.view.is_empty() {
            self.empty_view.insert(slot);
        }
        if prepared.model.indispensable {
            self.indisp.insert(slot);
            for fact in &prepared.view.facts {
                for (binding, tid) in &fact.tids {
                    if let Some(e) = prepared.scope.entry(binding) {
                        let by_base = self.by_tid.entry(e.base.clone()).or_default();
                        by_base.entry(*tid).or_default().insert(slot);
                    }
                }
            }
        } else {
            self.value_mode.insert(slot);
            for c in &prepared.view.columns {
                if let Some(bc) = prepared.scope.base_of_column(c) {
                    self.by_attr.entry(bc).or_default().insert(slot);
                }
            }
        }
    }

    /// Unregisters `id`. Stale bits stay in the layer structures (masked by
    /// the live set) until [`DispatchIndex::rebuild`] compacts them away.
    pub(crate) fn remove(&mut self, id: AuditId) {
        if let Some(slot) = self.slot_of.remove(&id) {
            self.live.remove(slot);
            self.dead += 1;
        }
    }

    /// True once enough dead slots accumulated that a compaction pays off.
    pub(crate) fn needs_compaction(&self) -> bool {
        self.dead > 32 && self.dead * 2 > self.slots.len()
    }

    /// Rebuilds the index from scratch over the surviving audits (ascending
    /// id, so slot order stays id order). Counters and obs handles survive.
    pub(crate) fn rebuild<'a>(
        &mut self,
        audits: impl Iterator<Item = (AuditId, &'a PreparedAudit)>,
    ) {
        let stats = self.stats;
        let obs = self.obs.take();
        *self = DispatchIndex { stats, obs, ..DispatchIndex::default() };
        for (id, prepared) in audits {
            self.insert(id, prepared);
        }
        self.count_rebuild();
    }

    fn count_rebuild(&mut self) {
        self.stats.rebuilds += 1;
        if let Some(o) = &self.obs {
            o.rebuilds.inc();
        }
    }

    fn ensure_tree(&mut self) {
        if self.tree_dirty {
            self.tree = IntervalNode::build(self.with_during.clone());
            self.tree_dirty = false;
            self.count_rebuild();
        }
    }

    /// Counts one probe that ended before [`DispatchIndex::probe`] could run
    /// (e.g. the query's own scope does not resolve, so nothing can match).
    pub(crate) fn note_probe(&mut self) {
        self.stats.probes += 1;
        if let Some(o) = &self.obs {
            o.probes.inc();
        }
    }

    /// Runs the pre-execution layers for one logged query. `q_bases` are the
    /// base tables of the query's resolved scope and `projected` its
    /// plain-column projections in base identity.
    pub(crate) fn probe<'a>(
        &mut self,
        q: &LoggedQuery,
        q_bases: &BTreeSet<Ident>,
        projected: impl Iterator<Item = &'a BaseColumn>,
    ) -> Probe {
        self.note_probe();
        self.ensure_tree();

        let mut cand = self.live.clone();

        // Layer 2: shared base tables.
        let mut tables = SlotSet::default();
        for b in q_bases {
            if let Some(s) = self.by_table.get(b) {
                tables.union(s);
            }
        }
        cand.intersect(&tables);
        if cand.is_empty() {
            return Probe::default();
        }

        // Layer 3: DURING windows containing the execution instant.
        let mut admitted = self.no_during.clone();
        if let Some(tree) = &self.tree {
            tree.stab(q.executed_at, &mut admitted);
        }
        cand.intersect(&admitted);

        // Layer 4: each distinct context-filter shape evaluated once.
        for (filter, set) in &self.groups {
            if !filter.admits_parts(
                &q.context.user,
                &q.context.role,
                &q.context.purpose,
                q.executed_at,
            ) {
                cand.subtract(set);
            }
        }

        // Layer 5: empty target views can never be touched or exposed.
        cand.subtract(&self.empty_view);

        // Layer 6: value-mode audits need a projected audited column.
        let mut value = cand.clone();
        value.intersect(&self.value_mode);
        if !value.is_empty() {
            let mut attrs = SlotSet::default();
            for bc in projected {
                if let Some(s) = self.by_attr.get(bc) {
                    attrs.union(s);
                }
            }
            value.intersect(&attrs);
        }

        let mut indisp = cand;
        indisp.intersect(&self.indisp);
        Probe { value, indisp }
    }

    /// Layer 7: keeps only indispensable-mode candidates holding at least
    /// one of the lineage's `(base, Tid)` pairs among their fact tuples.
    pub(crate) fn narrow_by_tids(&self, indisp: &mut SlotSet, lineage: &Lineage) {
        let mut hits = SlotSet::default();
        for (k, base) in lineage.keys().iter().enumerate() {
            let Some(by_base) = self.by_tid.get(base) else { continue };
            for c in 0..lineage.combinations() {
                for s in lineage.run(c, k).iter().filter_map(|t| by_base.get(t)) {
                    hits.union(s);
                }
            }
        }
        indisp.intersect(&hits);
    }

    /// Records the final shortlist size against `live` registered audits.
    pub(crate) fn record_shortlist(&mut self, shortlisted: usize, live: usize) {
        self.stats.shortlisted += shortlisted as u64;
        self.stats.pruned += live.saturating_sub(shortlisted) as u64;
        if let Some(o) = &self.obs {
            o.pruned.add(live.saturating_sub(shortlisted) as u64);
            o.shortlist.observe(shortlisted as f64);
        }
    }

    /// The audit id registered at `slot`.
    pub(crate) fn id_at(&self, slot: usize) -> Option<AuditId> {
        self.slots.get(slot).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slotset_ops() {
        let mut a = SlotSet::default();
        a.insert(1);
        a.insert(70);
        a.insert(200);
        assert!(a.contains(70));
        assert!(!a.contains(2));
        assert_eq!(a.count(), 3);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 70, 200]);

        let mut b = SlotSet::default();
        b.insert(70);
        b.insert(3);
        let mut i = a.clone();
        i.intersect(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![70]);

        let mut u = a.clone();
        u.union(&b);
        assert_eq!(u.count(), 4);

        let mut s = a.clone();
        s.subtract(&b);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 200]);

        a.remove(70);
        assert!(!a.contains(70));
        assert!(!a.is_empty());
        a.clear();
        assert!(a.is_empty());
    }

    #[test]
    fn interval_tree_matches_brute_force() {
        // Deterministic LCG; no wall-clock or RNG dependencies.
        let mut state: u64 = 0x2545_f491_4f6c_dd1d;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as i64
        };
        let intervals: Vec<(Timestamp, Timestamp, usize)> = (0..200)
            .map(|slot| {
                let s = next() % 1000;
                let len = next() % 120;
                (Timestamp(s), Timestamp(s + len), slot)
            })
            .collect();
        let tree = IntervalNode::build(intervals.clone()).unwrap();
        for probe in -5..1205 {
            let t = Timestamp(probe);
            let mut got = SlotSet::default();
            tree.stab(t, &mut got);
            let want: Vec<usize> = intervals
                .iter()
                .filter(|(s, e, _)| *s <= t && t <= *e)
                .map(|(_, _, slot)| *slot)
                .collect();
            let mut got: Vec<usize> = got.iter().collect();
            got.sort_unstable();
            let mut want = want;
            want.sort_unstable();
            assert_eq!(got, want, "stab at {probe}");
        }
    }

    #[test]
    fn empty_tree_builds_to_none() {
        assert!(IntervalNode::build(Vec::new()).is_none());
    }
}
