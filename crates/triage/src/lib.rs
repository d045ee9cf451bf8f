//! `audex-triage` — the review workflow over raw verdicts.
//!
//! At production volume the bottleneck stops being "compute verdicts" and
//! becomes "which of the 10k flagged queries does a human look at first,
//! and why". This crate turns the per-query [`audex_core::QueryScore`]
//! stream into an auditable workflow:
//!
//! * [`TriageItem`] — one flagged query with its aggregate suspicion, the
//!   audits it tripped, and the evidence columns behind the numbers;
//! * [`ReviewQueue`] — the ranked queue: priority = suspicion ×
//!   column-sensitivity, under a fixed auditor budget (Yan et al., *Game
//!   Theoretic Prioritization of Database Auditing*);
//! * [`Template`] — recurring explanation templates mined from the open
//!   items, so benign bulk patterns collapse to one line (Fabbri–LeFevre,
//!   *Explanation-Based Auditing*);
//! * [`RedactedScore`] — the no-raw-SQL projection of a score, carrying
//!   exactly what the queue needs so a redacted journal replays to a
//!   byte-identical queue;
//! * [`fnv1a64`] — the hash stored in place of raw SQL text under
//!   `--redact-log`.
//!
//! Everything here is deterministic: items live in ordered maps, ranking
//! breaks ties by query id, and template mining folds in query-id order, so
//! the queue and templates never depend on how audits were shortlisted
//! (`tests/proptest_triage.rs`: equal to a queue fed by the scan-all path).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Robustness policy: library code must surface failures as structured
// errors, never panic on them (tests are exempt via clippy.toml).
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeMap, BTreeSet};

use audex_core::{AuditId, BaseColumn, QueryScore};
use audex_log::QueryId;
use audex_sql::{Ident, Timestamp};

/// FNV-1a 64-bit, the hash stored for a query's SQL text under
/// `--redact-log`. Std-only, stable across platforms and runs — two redacted
/// stores of the same workload hash identically.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Review lifecycle of a flagged query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReviewState {
    /// Awaiting review — ranked in the queue.
    #[default]
    Open,
    /// Reviewed and acknowledged as a real concern.
    Acked,
    /// Reviewed and dismissed as benign.
    Dismissed,
}

impl ReviewState {
    /// The wire/CLI name.
    pub fn as_str(self) -> &'static str {
        match self {
            ReviewState::Open => "open",
            ReviewState::Acked => "acked",
            ReviewState::Dismissed => "dismissed",
        }
    }
}

/// The no-raw-SQL projection of one [`QueryScore`]: everything the review
/// queue (and a post-recovery `audit` summary) needs, nothing that reveals
/// the query text. This is what a `--redact-log` journal stores per score,
/// so a redacted store replays to a byte-identical [`ReviewQueue`].
#[derive(Debug, Clone, PartialEq)]
pub struct RedactedScore {
    /// The audit the score is against.
    pub audit: AuditId,
    /// Fraction of the target view's facts touched/exposed.
    pub fact_coverage: f64,
    /// Fraction of the audit's relevant columns accessed.
    pub column_coverage: f64,
    /// `fact_coverage · column_coverage`.
    pub closeness: f64,
    /// Facts touched (indispensable mode).
    pub touched: u64,
    /// Facts exposed (value mode).
    pub exposed: u64,
    /// Audit-relevant columns the query accessed, in base identity.
    pub covered: Vec<BaseColumn>,
}

impl RedactedScore {
    /// Projects a live score down to its redacted form.
    pub fn from_score(s: &QueryScore) -> RedactedScore {
        RedactedScore {
            audit: s.audit,
            fact_coverage: s.fact_coverage,
            column_coverage: s.column_coverage,
            closeness: s.closeness,
            touched: s.evidence.touched,
            exposed: s.evidence.exposed,
            covered: s.evidence.covered_columns.clone(),
        }
    }
}

/// One flagged query in the review queue, with the aggregate evidence an
/// auditor reads first.
#[derive(Debug, Clone, PartialEq)]
pub struct TriageItem {
    /// The flagged query.
    pub query: QueryId,
    /// Its execution instant.
    pub ts: Timestamp,
    /// Submitting user.
    pub user: Ident,
    /// Role acted under.
    pub role: Ident,
    /// Declared purpose.
    pub purpose: Ident,
    /// Total closeness across every audit the query scored against.
    pub suspicion: f64,
    /// The audits it tripped.
    pub audits: BTreeSet<AuditId>,
    /// Union of audit-relevant columns it accessed, in base identity.
    pub covered: BTreeSet<BaseColumn>,
    /// Total facts touched across audits (indispensable mode).
    pub touched: u64,
    /// Total facts exposed across audits (value mode).
    pub exposed: u64,
    /// Where it is in the review lifecycle.
    pub state: ReviewState,
}

/// Per-table / per-column sensitivity weights. Resolution is most-specific
/// wins: an exact `(table, column)` weight, else the table's weight, else
/// the default `1.0` — so `weight Patients.disease 5` outranks a blanket
/// `weight Patients 2`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SensitivityMap {
    by_column: BTreeMap<(Ident, Ident), f64>,
    by_table: BTreeMap<Ident, f64>,
}

impl SensitivityMap {
    /// Sets a weight for a whole table or one of its columns.
    pub fn set(&mut self, table: Ident, column: Option<Ident>, weight: f64) {
        match column {
            Some(c) => {
                self.by_column.insert((table, c), weight);
            }
            None => {
                self.by_table.insert(table, weight);
            }
        }
    }

    /// The weight of one base column.
    pub fn weight_of(&self, bc: &BaseColumn) -> f64 {
        if let Some(w) = self.by_column.get(&(bc.0.clone(), bc.1.clone())) {
            return *w;
        }
        self.by_table.get(&bc.0).copied().unwrap_or(1.0)
    }

    /// The sensitivity of a covered-column set: the maximum weight of any
    /// covered column (an auditor cares about the most sensitive thing the
    /// query reached), `1.0` when nothing audited was covered.
    pub fn sensitivity(&self, covered: &BTreeSet<BaseColumn>) -> f64 {
        covered.iter().map(|bc| self.weight_of(bc)).fold(1.0_f64, f64::max)
    }

    /// Number of configured weights (tables + columns).
    pub fn len(&self) -> usize {
        self.by_column.len() + self.by_table.len()
    }

    /// True when no weight is configured.
    pub fn is_empty(&self) -> bool {
        self.by_column.is_empty() && self.by_table.is_empty()
    }
}

/// A recurring explanation template: open items sharing the same
/// (role, purpose, covered columns, audits) shape, collapsed to one line.
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    /// Role the grouped queries acted under.
    pub role: Ident,
    /// Their declared purpose.
    pub purpose: Ident,
    /// The audit-relevant columns they accessed.
    pub covered: BTreeSet<BaseColumn>,
    /// The audits they tripped.
    pub audits: BTreeSet<AuditId>,
    /// Open items matching the template.
    pub count: u64,
    /// Their total suspicion.
    pub suspicion: f64,
    /// The lowest-id example query.
    pub example: QueryId,
}

/// The ranked review queue over flagged queries.
///
/// Items are held per query; `observe` folds one flagged query's scores in
/// (idempotent per query id — re-observation replaces). Ranking is
/// priority = suspicion × sensitivity, descending, ties broken by ascending
/// query id, so the order is total and deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReviewQueue {
    items: BTreeMap<QueryId, TriageItem>,
    weights: SensitivityMap,
    /// How many items the auditor reviews per pass: the default page size
    /// of [`ReviewQueue::page`].
    budget: Option<u64>,
}

/// Counts of items per review state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueCounts {
    /// Items awaiting review.
    pub open: u64,
    /// Items acknowledged.
    pub acked: u64,
    /// Items dismissed.
    pub dismissed: u64,
}

impl ReviewQueue {
    /// An empty queue with an optional auditor budget.
    pub fn new(budget: Option<u64>) -> ReviewQueue {
        ReviewQueue { budget, ..ReviewQueue::default() }
    }

    /// The auditor budget (default page size), if configured.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// The sensitivity weights.
    pub fn weights(&self) -> &SensitivityMap {
        &self.weights
    }

    /// Sets one sensitivity weight.
    pub fn set_weight(&mut self, table: Ident, column: Option<Ident>, weight: f64) {
        self.weights.set(table, column, weight);
    }

    /// Folds one flagged query in from live scores. Queries with no scores
    /// never enter the queue — call only when `scores` is non-empty.
    pub fn observe(
        &mut self,
        query: QueryId,
        ts: Timestamp,
        user: Ident,
        role: Ident,
        purpose: Ident,
        scores: &[QueryScore],
    ) {
        let rows: Vec<RedactedScore> = scores.iter().map(RedactedScore::from_score).collect();
        self.observe_redacted(query, ts, user, role, purpose, &rows);
    }

    /// [`ReviewQueue::observe`] from redacted score rows — the replay path
    /// for `--redact-log` stores. `observe` funnels through this, so a
    /// redacted journal replays to a byte-identical queue by construction.
    pub fn observe_redacted(
        &mut self,
        query: QueryId,
        ts: Timestamp,
        user: Ident,
        role: Ident,
        purpose: Ident,
        rows: &[RedactedScore],
    ) {
        if rows.is_empty() {
            return;
        }
        let mut item = TriageItem {
            query,
            ts,
            user,
            role,
            purpose,
            suspicion: 0.0,
            audits: BTreeSet::new(),
            covered: BTreeSet::new(),
            touched: 0,
            exposed: 0,
            state: ReviewState::Open,
        };
        for r in rows {
            item.suspicion += r.closeness;
            item.audits.insert(r.audit);
            item.covered.extend(r.covered.iter().cloned());
            item.touched += r.touched;
            item.exposed += r.exposed;
        }
        self.items.insert(query, item);
    }

    /// Marks one item reviewed. `false` when the query is not in the queue
    /// (never flagged) — callers reject, and replay tolerates, unknown ids.
    pub fn set_state(&mut self, query: QueryId, state: ReviewState) -> bool {
        match self.items.get_mut(&query) {
            Some(item) => {
                item.state = state;
                true
            }
            None => false,
        }
    }

    /// The item for one query.
    pub fn item(&self, query: QueryId) -> Option<&TriageItem> {
        self.items.get(&query)
    }

    /// Items per review state.
    pub fn counts(&self) -> QueueCounts {
        let mut c = QueueCounts::default();
        for item in self.items.values() {
            match item.state {
                ReviewState::Open => c.open += 1,
                ReviewState::Acked => c.acked += 1,
                ReviewState::Dismissed => c.dismissed += 1,
            }
        }
        c
    }

    /// Total items held, any state.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing was ever flagged.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// One item's priority under the current weights.
    pub fn priority(&self, item: &TriageItem) -> f64 {
        item.suspicion * self.weights.sensitivity(&item.covered)
    }

    /// Every **open** item ranked by priority (descending), ties broken by
    /// ascending query id — a total, deterministic order.
    pub fn ranked(&self) -> Vec<(&TriageItem, f64)> {
        let mut out = self.open_items();
        out.sort_by(rank_order);
        out
    }

    /// One page of the ranked queue. `top` defaults to the auditor budget
    /// (or 10 with no budget configured); `offset` skips already-reviewed
    /// pages. Only the first `offset + top` items in rank order are
    /// selected and sorted, not the whole queue.
    pub fn page(&self, top: Option<u64>, offset: u64) -> Vec<(&TriageItem, f64)> {
        let top = top.or(self.budget).unwrap_or(10) as usize;
        let mut out = self.open_items();
        let end = (offset as usize).saturating_add(top);
        if end < out.len() {
            out.select_nth_unstable_by(end, rank_order);
            out.truncate(end);
        }
        out.sort_unstable_by(rank_order);
        out.into_iter().skip(offset as usize).collect()
    }

    /// Every open item with its priority, unordered.
    fn open_items(&self) -> Vec<(&TriageItem, f64)> {
        self.items
            .values()
            .filter(|i| i.state == ReviewState::Open)
            .map(|i| (i, self.priority(i)))
            .collect()
    }

    /// Mines the open items into recurring explanation templates: items
    /// sharing (role, purpose, covered columns, audits) collapse to one
    /// line. Sorted by count descending, ties by example query id — so the
    /// biggest benign bulk pattern surfaces first.
    pub fn templates(&self) -> Vec<Template> {
        type Key = (Ident, Ident, BTreeSet<BaseColumn>, BTreeSet<AuditId>);
        let mut groups: BTreeMap<Key, (u64, f64, QueryId)> = BTreeMap::new();
        // Fold in ascending query-id order: counts and example are
        // order-independent, and the f64 suspicion sum gets one fixed
        // association order.
        for item in self.items.values() {
            if item.state != ReviewState::Open {
                continue;
            }
            let key = (
                item.role.clone(),
                item.purpose.clone(),
                item.covered.clone(),
                item.audits.clone(),
            );
            let e = groups.entry(key).or_insert((0, 0.0, item.query));
            e.0 += 1;
            e.1 += item.suspicion;
            e.2 = e.2.min(item.query);
        }
        let mut out: Vec<Template> = groups
            .into_iter()
            .map(|((role, purpose, covered, audits), (count, suspicion, example))| Template {
                role,
                purpose,
                covered,
                audits,
                count,
                suspicion,
                example,
            })
            .collect();
        out.sort_by(|a, b| b.count.cmp(&a.count).then(a.example.cmp(&b.example)));
        out
    }

    /// The open queries matching template `index` of the current
    /// [`ReviewQueue::templates`] ordering, in ascending query-id order —
    /// the resolution step of a template-wide bulk acknowledgement. Empty
    /// when the index is out of range (templates are mined live, so an
    /// index from a stale `triage` listing can dangle).
    pub fn template_queries(&self, index: usize) -> Vec<QueryId> {
        let Some(t) = self.templates().into_iter().nth(index) else {
            return Vec::new();
        };
        self.items
            .values()
            .filter(|i| {
                i.state == ReviewState::Open
                    && i.role == t.role
                    && i.purpose == t.purpose
                    && i.covered == t.covered
                    && i.audits == t.audits
            })
            .map(|i| i.query)
            .collect()
    }

    /// Flagged queries per surviving template over the open items — the
    /// Fabbri–LeFevre compression claim as a number (`0.0` when no item is
    /// open).
    pub fn compression(&self) -> f64 {
        let open = self.counts().open;
        let t = self.templates().len();
        if t == 0 {
            0.0
        } else {
            open as f64 / t as f64
        }
    }

    /// Every item in ascending query-id order, for checkpointing.
    pub fn export(&self) -> Vec<TriageItem> {
        self.items.values().cloned().collect()
    }

    /// Replaces the held items with checkpointed ones — the inverse of
    /// [`ReviewQueue::export`]. Weights and budget are untouched (weights
    /// replay from their own journal records; the budget is configuration).
    pub fn restore(&mut self, items: Vec<TriageItem>) {
        self.items = items.into_iter().map(|i| (i.query, i)).collect();
    }
}

/// The queue's rank order: priority descending, ties by ascending query
/// id. Total, since query ids are unique.
fn rank_order(a: &(&TriageItem, f64), b: &(&TriageItem, f64)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then(a.0.query.cmp(&b.0.query))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item_rows(closeness: f64, audit: u64, col: (&str, &str)) -> Vec<RedactedScore> {
        vec![RedactedScore {
            audit: AuditId(audit),
            fact_coverage: closeness,
            column_coverage: 1.0,
            closeness,
            touched: 2,
            exposed: 0,
            covered: vec![(Ident::new(col.0), Ident::new(col.1))],
        }]
    }

    fn observe(q: &mut ReviewQueue, id: u64, role: &str, rows: &[RedactedScore]) {
        q.observe_redacted(
            QueryId(id),
            Timestamp(id as i64),
            Ident::new("u"),
            Ident::new(role),
            Ident::new("treatment"),
            rows,
        );
    }

    #[test]
    fn fnv1a64_is_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"SELECT 1"), fnv1a64(b"SELECT 2"));
    }

    #[test]
    fn ranking_is_priority_then_query_id() {
        let mut q = ReviewQueue::new(None);
        observe(&mut q, 1, "nurse", &item_rows(0.5, 0, ("Patients", "name")));
        observe(&mut q, 2, "nurse", &item_rows(0.9, 0, ("Patients", "name")));
        observe(&mut q, 3, "nurse", &item_rows(0.5, 0, ("Patients", "name")));
        let ranked = q.ranked();
        assert_eq!(
            ranked.iter().map(|(i, _)| i.query).collect::<Vec<_>>(),
            vec![QueryId(2), QueryId(1), QueryId(3)],
            "highest priority first, ties by ascending id"
        );
    }

    #[test]
    fn page_is_a_window_of_the_ranking() {
        // A fixed-seed LCG: priorities from a four-value set (so ties are
        // common), a fifth of the items acked or dismissed.
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (seed >> 33) % n
        };
        for _ in 0..200 {
            let mut q = ReviewQueue::new(None);
            for id in 0..next(40) {
                let closeness = [0.25, 0.5, 0.75, 1.0][next(4) as usize];
                observe(&mut q, id, "nurse", &item_rows(closeness, 0, ("Patients", "name")));
                match next(10) {
                    0 => q.set_state(QueryId(id), ReviewState::Acked),
                    1 => q.set_state(QueryId(id), ReviewState::Dismissed),
                    _ => true,
                };
            }
            let ranked = q.ranked();
            let ids =
                |page: &[(&TriageItem, f64)]| page.iter().map(|(i, _)| i.query).collect::<Vec<_>>();
            for (top, offset) in [(0, 0), (1, 0), (3, 2), (10, 0), (5, 30), (50, 0), (7, next(45))]
            {
                let want: Vec<_> =
                    ranked.iter().skip(offset as usize).take(top as usize).cloned().collect();
                assert_eq!(
                    ids(&q.page(Some(top), offset)),
                    ids(&want),
                    "top {top} offset {offset}"
                );
            }
            assert_eq!(ids(&q.page(None, 0)), ids(&ranked[..ranked.len().min(10)]));
        }
    }

    #[test]
    fn sensitivity_weights_reorder_the_queue() {
        let mut q = ReviewQueue::new(None);
        observe(&mut q, 1, "nurse", &item_rows(0.4, 0, ("Patients", "disease")));
        observe(&mut q, 2, "nurse", &item_rows(0.6, 0, ("Patients", "name")));
        assert_eq!(q.ranked()[0].0.query, QueryId(2));
        // disease is 5x as sensitive: 0.4*5 > 0.6*1.
        q.set_weight(Ident::new("Patients"), Some(Ident::new("disease")), 5.0);
        assert_eq!(q.ranked()[0].0.query, QueryId(1));
        assert!((q.ranked()[0].1 - 2.0).abs() < 1e-9);
        // Column weight is more specific than a table weight.
        q.set_weight(Ident::new("Patients"), None, 100.0);
        assert!(
            (q.weights().weight_of(&(Ident::new("Patients"), Ident::new("disease"))) - 5.0).abs()
                < 1e-9
        );
        assert!(
            (q.weights().weight_of(&(Ident::new("Patients"), Ident::new("name"))) - 100.0).abs()
                < 1e-9
        );
        assert_eq!(q.weights().len(), 2);
        assert!(!q.weights().is_empty());
    }

    #[test]
    fn ack_dismiss_move_items_out_of_the_ranking() {
        let mut q = ReviewQueue::new(None);
        observe(&mut q, 1, "nurse", &item_rows(0.5, 0, ("Patients", "name")));
        observe(&mut q, 2, "nurse", &item_rows(0.9, 0, ("Patients", "name")));
        assert!(q.set_state(QueryId(2), ReviewState::Acked));
        assert!(q.set_state(QueryId(1), ReviewState::Dismissed));
        assert!(!q.set_state(QueryId(99), ReviewState::Acked), "unknown ids are refused");
        assert!(q.ranked().is_empty());
        let c = q.counts();
        assert_eq!((c.open, c.acked, c.dismissed), (0, 1, 1));
        assert_eq!(q.item(QueryId(2)).map(|i| i.state), Some(ReviewState::Acked));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn paging_respects_budget_and_offset() {
        let mut q = ReviewQueue::new(Some(2));
        for id in 1..=5 {
            observe(&mut q, id, "nurse", &item_rows(id as f64 / 10.0, 0, ("Patients", "name")));
        }
        assert_eq!(q.budget(), Some(2));
        let page = q.page(None, 0);
        assert_eq!(page.len(), 2, "default page size is the budget");
        assert_eq!(page[0].0.query, QueryId(5));
        let next = q.page(None, 2);
        assert_eq!(next[0].0.query, QueryId(3));
        assert_eq!(q.page(Some(10), 0).len(), 5);
    }

    #[test]
    fn templates_collapse_recurring_shapes() {
        let mut q = ReviewQueue::new(None);
        for id in 1..=4 {
            observe(&mut q, id, "nurse", &item_rows(0.5, 0, ("Patients", "name")));
        }
        observe(&mut q, 9, "admin", &item_rows(0.5, 1, ("Patients", "disease")));
        let ts = q.templates();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].count, 4, "biggest bulk pattern first");
        assert_eq!(ts[0].example, QueryId(1));
        assert_eq!(ts[0].role, Ident::new("nurse"));
        assert!((ts[0].suspicion - 2.0).abs() < 1e-9);
        assert!((q.compression() - 2.5).abs() < 1e-9, "5 open items over 2 templates");
        // Reviewed items leave the template population.
        q.set_state(QueryId(9), ReviewState::Dismissed);
        assert_eq!(q.templates().len(), 1);
    }

    #[test]
    fn export_restore_round_trips() {
        let mut q = ReviewQueue::new(Some(3));
        observe(&mut q, 1, "nurse", &item_rows(0.5, 0, ("Patients", "name")));
        observe(&mut q, 2, "admin", &item_rows(0.7, 1, ("Patients", "disease")));
        q.set_state(QueryId(1), ReviewState::Acked);
        let exported = q.export();
        let mut fresh = ReviewQueue::new(Some(3));
        fresh.restore(exported);
        assert_eq!(q, fresh);
    }

    #[test]
    fn empty_scores_never_enter() {
        let mut q = ReviewQueue::new(None);
        observe(&mut q, 1, "nurse", &[]);
        assert!(q.is_empty());
        assert_eq!(q.compression(), 0.0);
    }
}
