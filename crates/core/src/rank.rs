//! Online suspicion ranking — the paper's §4 future work, implemented.
//!
//! "In case of on line auditing, there is a need to determine the suspicion
//! rank, closeness value, of a queries batch for a given set of audit
//! expressions." The [`OnlineAuditor`] holds a set of prepared audit
//! expressions; every incoming query is scored against each of them without
//! re-deriving the target views, and running batch state is maintained so
//! the *batch* degree is always current.
//!
//! Audits are addressed by **stable ids** ([`AuditId`]): ids survive
//! [`OnlineAuditor::remove`], so holders (service registrations,
//! checkpoints, verdict events) never mis-address state when an earlier
//! audit is unregistered. [`OnlineAuditor::observe`] probes the
//! [`crate::dispatch`] index and evaluates only the shortlisted audits;
//! [`OnlineAuditor::observe_scan_all`] is the reference tests compare it
//! against — every audit, one execution each, bit-identical scores and
//! batch state.

use audex_storage::{Database, JoinStrategy};
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::candidate::BaseColumn;
use crate::dispatch::{AuditId, DispatchIndex, DispatchStats};
use crate::engine::PreparedAudit;
use crate::error::AuditError;
use crate::governor::{AuditPhase, Governor};
use crate::index::QueryFootprint;
use crate::suspicion::{
    derive_contribution, AuditBatchState, FactProbeCache, LineageView, QueryContribution, Role,
    SharedQueryState, Verdict,
};
use audex_log::{LoggedQuery, QueryId};

/// Fact indices and columns carried in [`ScoreEvidence`] are capped at this
/// many entries so evidence stays cheap to clone, journal, and render.
const EVIDENCE_SAMPLE: usize = 16;

/// Structured evidence behind one [`QueryScore`] — which target-view facts
/// the query touched or exposed and which audit-relevant columns it
/// accessed. Extracted from the same [`QueryContribution`] (and therefore
/// the same shared execution) that produced the score, so carrying it costs
/// no extra query run. Deterministic: identical at any thread count and
/// against the scan-all reference, because it is derived purely from the
/// contribution's ordered sets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScoreEvidence {
    /// Facts of `U` the query shared an indispensable tuple with.
    pub touched: u64,
    /// Facts whose protected values the query's result set exposed.
    pub exposed: u64,
    /// The first [`EVIDENCE_SAMPLE`] touched fact indices, ascending.
    pub touched_sample: Vec<usize>,
    /// The first [`EVIDENCE_SAMPLE`] exposed fact indices, ascending.
    pub exposed_sample: Vec<usize>,
    /// Audit-relevant columns the query accessed, in base identity
    /// (ascending; the intersection of `C_Q` with the audit's scheme
    /// columns).
    pub covered_columns: Vec<BaseColumn>,
}

/// A per-query, per-audit score.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryScore {
    /// Which prepared audit this score is against.
    pub audit: AuditId,
    /// Fraction of `U`'s facts the query shares a tuple with (0..=1).
    pub fact_coverage: f64,
    /// Fraction of the audit's relevant columns the query accessed (0..=1).
    pub column_coverage: f64,
    /// The combined closeness value: `fact_coverage · column_coverage`.
    pub closeness: f64,
    /// Why: the facts and columns behind the numbers.
    pub evidence: ScoreEvidence,
}

struct AuditEntry {
    prepared: PreparedAudit,
    state: AuditBatchState,
    /// Per-audit fact-probe maps (see [`FactProbeCache`]): built on the
    /// first query sharing a base-table signature, reused by every later
    /// one, so full-scan queries that legitimately shortlist this audit
    /// stop paying a per-fact scan on every observation.
    probe: FactProbeCache,
}

impl AuditEntry {
    /// Derives query `q`'s contribution from the shared lineage, folds it
    /// into the batch state and scores it — the one path `observe` and the
    /// scan-all reference share. `None` when the audit does not admit the
    /// query or the query contributes nothing.
    fn observe(
        &mut self,
        id: AuditId,
        q: &LoggedQuery,
        shared: &mut SharedQueryState,
        governor: &Governor,
    ) -> Option<QueryScore> {
        let p = &self.prepared;
        if !p.filter.admits(q) {
            return None;
        }
        let (probe, phase) = (&mut self.probe, AuditPhase::Suspicion);
        let c = derive_contribution(shared, &p.scope, &p.view, &p.terms, probe, governor, phase);
        let c = c.ok().flatten()?;
        match self.state.fold(&p.terms, q.id, &c) {
            Role::Nothing => None,
            Role::Contributor | Role::Witness => Some(score(id, p, &c)),
        }
    }
}

/// Scores queries online against a set of prepared audits.
///
/// The auditor does not borrow the database: every observation takes it as
/// an argument, so a long-running owner (the streaming service) can
/// interleave DML with scoring. Each prepared audit stays pinned to the
/// target view computed when it was prepared — re-prepare and
/// [`OnlineAuditor::push`] again to pick up later data.
pub struct OnlineAuditor {
    /// Keyed by stable id; iteration order is registration order.
    entries: BTreeMap<AuditId, AuditEntry>,
    next_id: u64,
    strategy: JoinStrategy,
    dispatch: DispatchIndex,
}

impl OnlineAuditor {
    /// Builds an online auditor over prepared audits.
    pub fn new(audits: Vec<PreparedAudit>) -> Self {
        let mut oa = OnlineAuditor {
            entries: BTreeMap::new(),
            next_id: 0,
            strategy: JoinStrategy::Auto,
            dispatch: DispatchIndex::default(),
        };
        for a in audits {
            oa.push(a);
        }
        oa
    }

    /// Adds a prepared audit with fresh batch state; returns its stable id.
    /// Ids are assigned monotonically and never reused.
    pub fn push(&mut self, audit: PreparedAudit) -> AuditId {
        let id = AuditId(self.next_id);
        self.next_id += 1;
        self.dispatch.insert(id, &audit);
        self.entries.insert(
            id,
            AuditEntry {
                prepared: audit,
                state: AuditBatchState::default(),
                probe: FactProbeCache::default(),
            },
        );
        id
    }

    /// Removes an audit and its state; every other id stays valid. Returns
    /// `None` for an unknown id.
    pub fn remove(&mut self, id: AuditId) -> Option<PreparedAudit> {
        let entry = self.entries.remove(&id)?;
        self.dispatch.remove(id);
        if self.dispatch.needs_compaction() {
            self.dispatch.rebuild(self.entries.iter().map(|(i, e)| (*i, &e.prepared)));
        }
        Some(entry.prepared)
    }

    /// A clone of an audit's accumulated batch state, for checkpointing.
    pub fn export_state(&self, id: AuditId) -> Option<AuditBatchState> {
        self.entries.get(&id).map(|e| e.state.clone())
    }

    /// Clones of all batch states, in ascending-id (registration) order.
    pub fn export_states(&self) -> Vec<AuditBatchState> {
        self.entries.values().map(|e| e.state.clone()).collect()
    }

    /// Replaces every audit's batch state with checkpointed ones, in
    /// ascending-id order — the inverse of [`OnlineAuditor::export_states`].
    /// Fails (leaving the auditor untouched) when the count does not match
    /// the audits held.
    pub fn restore_states(&mut self, states: Vec<AuditBatchState>) -> Result<(), AuditError> {
        if states.len() != self.entries.len() {
            return Err(AuditError::Internal(format!(
                "cannot restore {} batch states onto {} audits",
                states.len(),
                self.entries.len()
            )));
        }
        for (entry, state) in self.entries.values_mut().zip(states) {
            entry.state = state;
        }
        Ok(())
    }

    /// The prepared audit registered under `id`.
    pub fn audit(&self, id: AuditId) -> Option<&PreparedAudit> {
        self.entries.get(&id).map(|e| &e.prepared)
    }

    /// Registered ids in ascending (registration) order.
    pub fn ids(&self) -> Vec<AuditId> {
        self.entries.keys().copied().collect()
    }

    /// Number of audits being watched.
    pub fn audit_count(&self) -> usize {
        self.entries.len()
    }

    /// Sets the join strategy used for query executions. An owner that
    /// also maintains a [`crate::TouchIndex`] must pass the same strategy
    /// it indexes with, so the shared execution behind
    /// [`OnlineAuditor::observe_with_footprint`] yields the footprint the
    /// index would have computed itself.
    pub fn set_strategy(&mut self, strategy: JoinStrategy) {
        self.strategy = strategy;
    }

    /// A copy of the dispatch index's pruning counters, with the per-audit
    /// fact-probe cache counters summed in.
    pub fn dispatch_stats(&self) -> DispatchStats {
        let mut stats = self.dispatch.stats();
        for e in self.entries.values() {
            stats.fact_probe_builds += e.probe.builds;
            stats.fact_probe_hits += e.probe.hits;
        }
        stats
    }

    /// Wires the `audex_dispatch_*` metric series into `registry`.
    pub fn set_obs(&mut self, registry: &audex_obs::Registry) {
        self.dispatch.set_obs(registry);
    }

    /// Observes one query: updates batch state and returns its scores
    /// against every audit (only audits it contributed to are listed),
    /// ascending by audit id.
    pub fn observe(
        &mut self,
        db: &Database,
        q: &Arc<LoggedQuery>,
    ) -> Result<Vec<QueryScore>, AuditError> {
        Ok(self.observe_indexed(db, q, false).0)
    }

    /// [`OnlineAuditor::observe`] that additionally returns the query's
    /// [`QueryFootprint`] **from the same execution** the scoring used.
    /// This is the streaming-ingest fast path: the service needs both the
    /// scores and the touch-index footprint for every logged query, and
    /// executing the query once instead of twice roughly doubles sustained
    /// ingest throughput. `None` marks a query the touch index would skip
    /// (unresolvable scope or failed execution).
    pub fn observe_with_footprint(
        &mut self,
        db: &Database,
        q: &Arc<LoggedQuery>,
    ) -> Result<(Vec<QueryScore>, Option<QueryFootprint>), AuditError> {
        Ok(self.observe_indexed(db, q, true))
    }

    /// Reference: every audit, one execution each; tests compare
    /// [`OnlineAuditor::observe`] against it. Nothing in the service or the
    /// CLI calls this.
    pub fn observe_scan_all(
        &mut self,
        db: &Database,
        q: &Arc<LoggedQuery>,
    ) -> Result<Vec<QueryScore>, AuditError> {
        let strategy = self.strategy;
        let governor = Governor::unlimited();
        let mut scores = Vec::new();
        for (id, entry) in self.entries.iter_mut() {
            // One fresh execution per audit (the reference stays the
            // faithful slow baseline), but the fact-probe maps are per-audit
            // and query-independent, so it uses the entry's cache too.
            let mut shared = SharedQueryState::new(db, q, strategy);
            scores.extend(entry.observe(*id, q, &mut shared, &governor));
        }
        Ok(scores)
    }

    /// Probe → shortlist → evaluate-shortlist-only. Every prune is sound
    /// (the skipped audit's contribution is provably empty, so the scan-all
    /// path would skip it too without touching state), and shortlisted
    /// audits share one query execution via [`SharedQueryState`] — the
    /// scores and state mutations are bit-identical to the scan-all path.
    /// With `want_footprint` the same shared execution also yields the
    /// query's touch-index footprint (forcing the execution if no audit
    /// needed it — the index wants every query's footprint regardless).
    fn observe_indexed(
        &mut self,
        db: &Database,
        q: &Arc<LoggedQuery>,
        want_footprint: bool,
    ) -> (Vec<QueryScore>, Option<QueryFootprint>) {
        let live = self.entries.len();
        let mut shared = SharedQueryState::new(db, q, self.strategy);

        let Some(header) = shared.header() else {
            // The query itself does not resolve: every contribution would
            // be `None`, so nothing can score or mutate state — and the
            // touch index would skip it for the same reason.
            self.dispatch.note_probe();
            self.dispatch.record_shortlist(0, live);
            return (Vec::new(), None);
        };
        let projected = header.out_columns.iter().map(|(_, bc)| bc);
        let mut probe = self.dispatch.probe(q, &header.bases, projected);
        if !probe.indisp.is_empty() {
            match shared.lineage() {
                Some(lineage) => self.dispatch.narrow_by_tids(&mut probe.indisp, lineage),
                None => {
                    // Execution failed: every shortlisted audit would skip.
                    probe.indisp.clear();
                    probe.value.clear();
                }
            }
        }

        let mut shortlist = probe.value;
        shortlist.union(&probe.indisp);
        self.dispatch.record_shortlist(shortlist.count(), live);

        let governor = Governor::unlimited();
        let mut scores = Vec::new();
        for slot in shortlist.iter() {
            let Some(id) = self.dispatch.id_at(slot) else { continue };
            let Some(entry) = self.entries.get_mut(&id) else { continue };
            scores.extend(entry.observe(id, q, &mut shared, &governor));
        }
        let fp = if want_footprint { shared.into_footprint() } else { None };
        (scores, fp)
    }

    /// An audit's batch verdict so far: the count [`AuditBatchState::verdict`]
    /// makes over everything observed since the audit was pushed (or
    /// restored) — the same count `BatchEvaluator::evaluate` and
    /// `TouchIndex::evaluate` make. `None` for an unknown id.
    pub fn verdict(&self, id: AuditId) -> Option<Verdict> {
        self.entries.get(&id).map(|e| e.state.verdict(&e.prepared.terms))
    }

    /// An audit's current batch degree — accessed over total granules, read
    /// off [`OnlineAuditor::verdict`]; `0.0` for an unknown id.
    pub fn degree(&self, id: AuditId) -> f64 {
        self.verdict(id).map_or(0.0, |v| v.degree)
    }

    /// True when an audit's batch has turned suspicious.
    pub fn is_suspicious(&self, id: AuditId) -> bool {
        self.verdict(id).is_some_and(|v| v.suspicious())
    }

    /// Ids that contributed to an audit, in arrival order.
    pub fn contributing(&self, id: AuditId) -> &[QueryId] {
        self.entries.get(&id).map(|e| e.state.contributing.as_slice()).unwrap_or(&[])
    }

    /// Queries ranked by total closeness across all audits (descending):
    /// the paper's "degree of suspiciousness for user queries on line".
    pub fn ranking(
        &mut self,
        db: &Database,
        batch: &[Arc<LoggedQuery>],
    ) -> Result<Vec<(QueryId, f64)>, AuditError> {
        let mut totals: BTreeMap<QueryId, f64> = BTreeMap::new();
        for q in batch {
            let scores = self.observe(db, q)?;
            let sum: f64 = scores.iter().map(|s| s.closeness).sum();
            *totals.entry(q.id).or_insert(0.0) += sum;
        }
        let mut out: Vec<(QueryId, f64)> = totals.into_iter().collect();
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        Ok(out)
    }
}

/// Scores one contribution against its audit: the closeness value and the
/// facts and columns behind it.
fn score(id: AuditId, prepared: &PreparedAudit, contrib: &QueryContribution) -> QueryScore {
    let n = prepared.view.len().max(1) as f64;
    let relevant = &prepared.terms.relevant;
    let covered_relevant_cols: Vec<BaseColumn> =
        contrib.covered_columns.intersection(relevant).cloned().collect();
    let covered_relevant = covered_relevant_cols.len() as f64;
    let fact_coverage = if prepared.model.indispensable {
        contrib.touched_facts.len() as f64 / n
    } else {
        contrib.exposed.len() as f64 / n
    };
    let column_coverage =
        if relevant.is_empty() { 0.0 } else { covered_relevant / relevant.len() as f64 };
    QueryScore {
        audit: id,
        fact_coverage,
        column_coverage,
        closeness: fact_coverage * column_coverage,
        evidence: ScoreEvidence {
            touched: contrib.touched_facts.len() as u64,
            exposed: contrib.exposed.len() as u64,
            touched_sample: contrib.touched_facts.iter().copied().take(EVIDENCE_SAMPLE).collect(),
            exposed_sample: contrib.exposed.keys().copied().take(EVIDENCE_SAMPLE).collect(),
            covered_columns: covered_relevant_cols,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AuditEngine;
    use audex_log::{AccessContext, QueryLog};
    use audex_sql::ast::TypeName;
    use audex_sql::{parse_audit, parse_query, Ident, Timestamp};
    use audex_storage::Schema;

    fn db() -> Database {
        let mut db = Database::new();
        let p = Ident::new("Patients");
        db.create_table(
            p.clone(),
            Schema::of(&[
                ("pid", TypeName::Text),
                ("name", TypeName::Text),
                ("zipcode", TypeName::Text),
                ("disease", TypeName::Text),
            ]),
            Timestamp(0),
        )
        .unwrap();
        for (pid, name, zip, dis) in [
            ("p1", "Jane", "120016", "cancer"),
            ("p2", "Reku", "145568", "diabetic"),
            ("p3", "Lucy", "120016", "flu"),
        ] {
            db.insert(&p, vec![pid.into(), name.into(), zip.into(), dis.into()], Timestamp(10))
                .unwrap();
        }
        db
    }

    fn q(id: u64, sql: &str) -> Arc<LoggedQuery> {
        Arc::new(LoggedQuery::new(
            QueryId(id),
            parse_query(sql).unwrap(),
            sql.into(),
            Timestamp(100),
            AccessContext::new("u", "r", "p"),
        ))
    }

    fn prepare(db: &Database, text: &str) -> PreparedAudit {
        let log = QueryLog::new();
        let engine = AuditEngine::new(db, &log);
        let mut e = parse_audit(text).unwrap();
        // Watch all times.
        e.during = Some(audex_sql::ast::TimeInterval {
            start: audex_sql::ast::TsSpec::At(Timestamp(0)),
            end: audex_sql::ast::TsSpec::At(Timestamp(10_000)),
        });
        engine.prepare(&e, Timestamp(1000)).unwrap()
    }

    fn auditor(db: &Database, exprs: &[&str]) -> OnlineAuditor {
        OnlineAuditor::new(exprs.iter().map(|t| prepare(db, t)).collect())
    }

    #[test]
    fn observe_scores_contributing_query() {
        let db = db();
        let mut oa = auditor(&db, &["AUDIT disease FROM Patients WHERE zipcode='120016'"]);
        let scores =
            oa.observe(&db, &q(1, "SELECT disease FROM Patients WHERE zipcode='120016'")).unwrap();
        assert_eq!(scores.len(), 1);
        assert!((scores[0].fact_coverage - 1.0).abs() < 1e-9);
        assert!(scores[0].closeness > 0.9);
        assert!(oa.is_suspicious(AuditId(0)));
    }

    #[test]
    fn innocent_query_scores_nothing() {
        let db = db();
        let mut oa = auditor(&db, &["AUDIT disease FROM Patients WHERE zipcode='120016'"]);
        let scores =
            oa.observe(&db, &q(1, "SELECT name FROM Patients WHERE zipcode='145568'")).unwrap();
        assert!(scores.is_empty());
        assert!(!oa.is_suspicious(AuditId(0)));
    }

    #[test]
    fn batch_accumulates_across_observations() {
        let db = db();
        let mut oa = auditor(&db, &["AUDIT (name, disease) FROM Patients WHERE zipcode='120016'"]);
        oa.observe(&db, &q(1, "SELECT name FROM Patients WHERE zipcode='120016'")).unwrap();
        assert!(!oa.is_suspicious(AuditId(0)), "name alone is not enough");
        oa.observe(&db, &q(2, "SELECT disease FROM Patients WHERE zipcode='120016'")).unwrap();
        assert!(oa.is_suspicious(AuditId(0)), "together they cover the scheme");
        assert_eq!(oa.contributing(AuditId(0)), &[QueryId(1), QueryId(2)]);
    }

    #[test]
    fn ranking_orders_by_closeness() {
        let db = db();
        let mut oa = auditor(&db, &["AUDIT disease FROM Patients WHERE zipcode='120016'"]);
        let ranked = oa
            .ranking(
                &db,
                &[
                    q(1, "SELECT pid FROM Patients WHERE zipcode='145568'"), // innocent
                    q(2, "SELECT disease FROM Patients WHERE pid='p1'"),     // partial
                    q(3, "SELECT disease FROM Patients WHERE zipcode='120016'"), // full
                ],
            )
            .unwrap();
        assert_eq!(ranked[0].0, QueryId(3));
        assert_eq!(ranked[1].0, QueryId(2));
        assert!(ranked[0].1 > ranked[1].1);
        assert_eq!(ranked[2].1, 0.0);
    }

    #[test]
    fn multiple_audits_scored_independently() {
        let db = db();
        let mut oa = auditor(
            &db,
            &[
                "AUDIT disease FROM Patients WHERE zipcode='120016'",
                "AUDIT name FROM Patients WHERE zipcode='145568'",
            ],
        );
        assert_eq!(oa.audit_count(), 2);
        let s = oa.observe(&db, &q(1, "SELECT name FROM Patients WHERE zipcode='145568'")).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].audit, AuditId(1));
        assert!(!oa.is_suspicious(AuditId(0)));
        assert!(oa.is_suspicious(AuditId(1)));
    }

    #[test]
    fn during_filter_applies_online() {
        let db = db();
        let log = QueryLog::new();
        let engine = AuditEngine::new(&db, &log);
        let e = parse_audit("DURING 1/1/1970 TO 1/1/1970 AUDIT disease FROM Patients").unwrap();
        let prepared = engine.prepare(&e, Timestamp(1000)).unwrap();
        let mut oa = OnlineAuditor::new(vec![prepared]);
        // Query executed outside DURING: ignored.
        let s = oa.observe(&db, &q(1, "SELECT disease FROM Patients")).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn ids_stay_stable_across_remove() {
        let db = db();
        let mut oa = auditor(
            &db,
            &[
                "AUDIT disease FROM Patients WHERE zipcode='120016'",
                "AUDIT name FROM Patients WHERE zipcode='145568'",
                "AUDIT name FROM Patients WHERE zipcode='120016'",
            ],
        );
        assert_eq!(oa.ids(), vec![AuditId(0), AuditId(1), AuditId(2)]);
        let removed = oa.remove(AuditId(0)).unwrap();
        assert_eq!(removed.scope.bases(), vec![Ident::new("Patients")]);
        assert_eq!(oa.ids(), vec![AuditId(1), AuditId(2)]);
        assert!(oa.remove(AuditId(0)).is_none(), "ids are never reused");

        // AuditId(1) still addresses the 145568 audit after the removal.
        let s = oa.observe(&db, &q(1, "SELECT name FROM Patients WHERE zipcode='145568'")).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].audit, AuditId(1));
        assert!(oa.is_suspicious(AuditId(1)));
        assert!(!oa.is_suspicious(AuditId(2)));

        // A new registration gets a fresh id, not a recycled one.
        let id = oa.push(prepare(&db, "AUDIT zipcode FROM Patients"));
        assert_eq!(id, AuditId(3));
    }

    #[test]
    fn dispatch_matches_scan_all() {
        let db = db();
        let exprs = [
            "AUDIT disease FROM Patients WHERE zipcode='120016'",
            "AUDIT (name, disease) FROM Patients WHERE zipcode='120016'",
            "INDISPENSABLE false AUDIT name FROM Patients WHERE zipcode='120016'",
            "AUDIT name FROM Patients WHERE zipcode='999999'", // empty view
        ];
        let queries = [
            q(1, "SELECT zipcode FROM Patients WHERE disease='cancer'"),
            q(2, "SELECT name FROM Patients WHERE disease='cancer'"),
            q(3, "SELECT pid FROM Patients WHERE zipcode='120016'"),
            q(4, "SELECT name FROM Patients"),
            q(5, "SELECT nope FROM NoTable"),
        ];
        let mut indexed = auditor(&db, &exprs);
        let mut scan = auditor(&db, &exprs);
        for lq in &queries {
            let a = indexed.observe(&db, lq).unwrap();
            let b = scan.observe_scan_all(&db, lq).unwrap();
            assert_eq!(a, b, "scores diverge on {}", lq.text);
        }
        assert_eq!(indexed.export_states(), scan.export_states());
        let stats = indexed.dispatch_stats();
        assert_eq!(stats.probes, queries.len() as u64);
        assert!(stats.pruned > 0, "the empty-view audit at least must be pruned");
    }
}
