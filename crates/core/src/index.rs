//! The touch index — the paper's §4 second future-work item, implemented:
//! "designing efficient algorithms to map an audit expression to a set of
//! suspicious batch of queries for a given database instance".
//!
//! Semantic evaluation is dominated by running each logged query against the
//! backlog. When an auditor investigates *many* audit expressions over the
//! same log (the common case: one expression per complaint, per protected
//! view, per suspicion notion), that work repeats identically. The
//! [`TouchIndex`] runs every query **once**, storing for each query its
//! accessed columns and its lineage in the flat form of [`crate::lineage`]
//! — every satisfying combination's tids as per-base runs of one vector,
//! every result row's plain-column cells in another — so a stored query
//! costs a header plus ~40 B per single-table result row. Any number of
//! prepared audits can then be evaluated against the index with no further
//! query execution.
//!
//! The index is exact, not approximate: [`TouchIndex::evaluate`] folds
//! each stored footprint through the same derivation, fold and count as
//! [`crate::suspicion::BatchEvaluator::evaluate`], and produces identical
//! verdicts — asserted by
//! `tests/touch_index.rs::index_agrees_with_direct_evaluation_across_audits`
//! and `::audit_many_matches_individual_audits`,
//! `proptest_dispatch::online_batch_and_index_verdicts_agree`, and the unit
//! test `governed_evaluation_trips_in_indexing_and_matches_batch` below.

use audex_sql::Ident;
use audex_storage::{Database, JoinStrategy, Tid, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

use crate::candidate::BaseColumn;
use crate::catalog::ScopeEntry;
use crate::engine::PreparedAudit;
use crate::error::AuditError;
use crate::governor::{AuditPhase, Governor};
use crate::lineage::Lineage;
use crate::suspicion::{
    covered_tuples_by_base, derive_contribution, AuditBatchState, BatchVerdict, CoveredTuples,
    FactProbeCache, LineageView, Role, SharedQueryState,
};
use audex_log::{LoggedQuery, QueryId};

/// Per-query execution footprint.
///
/// Public so a durability layer can checkpoint the index and restore it
/// without re-executing queries — footprint execution is the dominant cost
/// of both index builds and recovery. Built by
/// [`crate::suspicion::SharedQueryState`], from the same execution the
/// online auditor scores (so the index and the scores read one lineage),
/// or from stored parts by [`crate::lineage::FootprintBuilder`]. The
/// lineage is the flat form of [`crate::lineage`]: one run of tids per
/// combination and base, one vector of cells for all rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryFootprint {
    /// The indexed query.
    pub id: QueryId,
    /// Base tables in the query's `FROM`.
    pub bases: BTreeSet<Ident>,
    /// Accessed columns (`C_Q`), in base identity.
    pub covered: BTreeSet<BaseColumn>,
    /// Satisfying combinations and plain-column cells.
    pub(crate) lineage: Lineage,
}

impl QueryFootprint {
    /// Number of satisfying combinations.
    pub fn combination_count(&self) -> usize {
        self.lineage.combinations()
    }

    /// Combination `c`'s tids grouped by base table: (base, tids) in
    /// ascending base order, tids ascending and distinct; a base the
    /// combination lacks is absent.
    pub fn combination(&self, c: usize) -> impl Iterator<Item = (&Ident, &[Tid])> + Clone {
        let l = &self.lineage;
        l.keys()
            .iter()
            .enumerate()
            .map(move |(k, base)| (base, l.run(c, k)))
            .filter(|(_, tids)| !tids.is_empty())
    }

    /// The plain-column projections every value row carries, in result
    /// order (empty when there are no rows) — what value-mode
    /// (INDISPENSABLE false) audits read.
    pub fn value_columns(&self) -> &[BaseColumn] {
        self.lineage.columns()
    }

    /// Every result row's cells, [`QueryFootprint::value_columns`] wide.
    pub fn value_rows(&self) -> impl ExactSizeIterator<Item = &[Value]> {
        self.lineage.rows()
    }
}

/// A stored footprint is a lineage view whose query already ran.
impl LineageView for &QueryFootprint {
    fn scope(&self) -> Option<(&BTreeSet<Ident>, &BTreeSet<BaseColumn>)> {
        Some((&self.bases, &self.covered))
    }

    fn covered_by(&mut self, shared: &[&ScopeEntry]) -> Option<CoveredTuples> {
        Some(Arc::new(covered_tuples_by_base(&self.lineage, shared)))
    }

    fn lineage(&mut self) -> Option<&Lineage> {
        Some(&self.lineage)
    }
}

/// An index of every logged query's data footprint.
pub struct TouchIndex {
    footprints: Vec<QueryFootprint>,
    /// Queries that could not be executed (unknown tables, runtime errors).
    skipped: Vec<QueryId>,
}

impl Default for TouchIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl TouchIndex {
    /// An empty index, ready to be grown with [`TouchIndex::extend`].
    pub fn new() -> TouchIndex {
        TouchIndex { footprints: Vec::new(), skipped: Vec::new() }
    }

    /// Builds the index by executing every query once at its own execution
    /// time.
    pub fn build(
        db: &Database,
        queries: &[Arc<LoggedQuery>],
        strategy: JoinStrategy,
    ) -> TouchIndex {
        Self::build_governed(db, queries, strategy, &Governor::unlimited()).unwrap_or_default()
    }

    /// Builds the index under a [`Governor`]: one step per query executed.
    pub fn build_governed(
        db: &Database,
        queries: &[Arc<LoggedQuery>],
        strategy: JoinStrategy,
        governor: &Governor,
    ) -> Result<TouchIndex, AuditError> {
        let mut index = TouchIndex::new();
        for q in queries {
            index.extend(db, q, strategy, governor)?;
        }
        Ok(index)
    }

    /// Appends one query's footprint to the index — the incremental
    /// maintenance step of the streaming service, and the loop
    /// [`TouchIndex::build_governed`] runs over a whole slice. One governor
    /// step per query executed.
    pub fn extend(
        &mut self,
        db: &Database,
        q: &Arc<LoggedQuery>,
        strategy: JoinStrategy,
        governor: &Governor,
    ) -> Result<(), AuditError> {
        governor.tick(AuditPhase::Indexing)?;
        match Self::footprint(db, q, strategy) {
            Some(fp) => self.footprints.push(fp),
            None => self.skipped.push(q.id),
        }
        Ok(())
    }

    /// Appends a footprint computed elsewhere (`None` records a skip) —
    /// the zero-execution sibling of [`TouchIndex::extend`]. The streaming
    /// service shares one query execution between online scoring and index
    /// maintenance: [`crate::OnlineAuditor::observe_with_footprint`]
    /// produces the footprint from its own execution and this call folds
    /// it in, so the per-ingest cost is one execution, not two.
    pub fn extend_prepared(&mut self, id: QueryId, fp: Option<QueryFootprint>) {
        match fp {
            Some(fp) => self.footprints.push(fp),
            None => self.skipped.push(id),
        }
    }

    /// Ids of queries that could not be executed and were skipped (the
    /// streaming counterpart of the batch build's skip list).
    pub fn skipped_ids(&self) -> &[QueryId] {
        &self.skipped
    }

    /// The stored footprints, in log order.
    pub fn footprints(&self) -> &[QueryFootprint] {
        &self.footprints
    }

    /// Clones the index's entire contents for checkpointing.
    pub fn export(&self) -> (Vec<QueryFootprint>, Vec<QueryId>) {
        (self.footprints.clone(), self.skipped.clone())
    }

    /// Reassembles an index from checkpointed parts — the inverse of
    /// [`TouchIndex::export`], skipping all query execution.
    pub fn from_parts(footprints: Vec<QueryFootprint>, skipped: Vec<QueryId>) -> TouchIndex {
        TouchIndex { footprints, skipped }
    }

    fn footprint(db: &Database, q: &LoggedQuery, strategy: JoinStrategy) -> Option<QueryFootprint> {
        SharedQueryState::new(db, q, strategy).into_footprint()
    }

    /// Number of indexed queries.
    pub fn len(&self) -> usize {
        self.footprints.len()
    }

    /// True when nothing was indexed.
    pub fn is_empty(&self) -> bool {
        self.footprints.is_empty()
    }

    /// Evaluates a prepared audit against the index. Only queries in
    /// `admitted` (the limiting-parameter survivors) participate; pass the
    /// full id set to audit everything.
    pub fn evaluate(
        &self,
        prepared: &PreparedAudit,
        admitted: &BTreeSet<QueryId>,
    ) -> Result<BatchVerdict, AuditError> {
        self.evaluate_governed(prepared, admitted, &Governor::unlimited())
    }

    /// [`TouchIndex::evaluate`] under a [`Governor`], charging
    /// [`AuditPhase::Indexing`]: one step per admitted footprint, one per
    /// probe of the smaller side of each fact-probe join (or per fact per
    /// value row in value mode), plus one per fact for each probe-map build
    /// — a map is built once per base-table signature per call, never
    /// shared with the online auditor's.
    pub fn evaluate_governed(
        &self,
        prepared: &PreparedAudit,
        admitted: &BTreeSet<QueryId>,
        governor: &Governor,
    ) -> Result<BatchVerdict, AuditError> {
        let (scope, view, terms) = (&prepared.scope, &prepared.view, &prepared.terms);
        let phase = AuditPhase::Indexing;
        let mut state = AuditBatchState::default();
        let mut witnesses = Vec::new();
        let mut probe = FactProbeCache::default();
        for fp in self.footprints.iter().filter(|fp| admitted.contains(&fp.id)) {
            governor.tick(phase)?;
            // A stored footprint already ran, so it always derives `Some`.
            let c =
                derive_contribution(&mut &*fp, scope, view, terms, &mut probe, governor, phase)?;
            if let Some(c) = c {
                if state.fold(terms, fp.id, &c) == Role::Witness {
                    witnesses.push(fp.id);
                }
            }
        }
        let skipped = self.skipped.iter().filter(|id| admitted.contains(id)).copied().collect();
        Ok(state.verdict(terms).with_queries(state.contributing, witnesses, skipped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use audex_log::QueryLog;
    use audex_sql::Timestamp;

    #[test]
    fn unexecutable_queries_are_skipped() {
        let mut db = Database::new();
        db.create_table(
            Ident::new("t"),
            audex_storage::Schema::of(&[("a", audex_sql::ast::TypeName::Int)]),
            Timestamp(0),
        )
        .unwrap();
        let log = QueryLog::new();
        log.record_text(
            "SELECT a FROM t",
            Timestamp(1),
            audex_log::AccessContext::new("u", "r", "p"),
        )
        .unwrap();
        log.record_text(
            "SELECT x FROM ghost",
            Timestamp(2),
            audex_log::AccessContext::new("u", "r", "p"),
        )
        .unwrap();
        let batch = log.snapshot();
        let index = TouchIndex::build(&db, &batch, JoinStrategy::Auto);
        assert_eq!(index.len(), 1);
        assert_eq!(index.skipped, vec![QueryId(2)]);
    }

    #[test]
    fn governed_evaluation_trips_in_indexing_and_matches_batch() {
        let mut db = Database::new();
        let p = Ident::new("Patients");
        let schema = audex_storage::Schema::of(&[
            ("pid", audex_sql::ast::TypeName::Text),
            ("zipcode", audex_sql::ast::TypeName::Text),
            ("disease", audex_sql::ast::TypeName::Text),
        ]);
        db.create_table(p.clone(), schema, Timestamp(0)).unwrap();
        for (pid, zip, dis) in
            [("p1", "120016", "cancer"), ("p2", "145568", "flu"), ("p3", "120016", "acne")]
        {
            db.insert(&p, vec![pid.into(), zip.into(), dis.into()], Timestamp(1)).unwrap();
        }
        let log = QueryLog::new();
        let ctx = || audex_log::AccessContext::new("u", "r", "p");
        for (i, sql) in [
            "SELECT disease FROM Patients WHERE zipcode = '120016'",
            "SELECT pid FROM Patients WHERE disease = 'cancer'",
            "SELECT zipcode FROM Patients",
            "SELECT x FROM ghost",
        ]
        .iter()
        .enumerate()
        {
            log.record_text(sql, Timestamp(10 + i as i64), ctx()).unwrap();
        }
        let batch = log.snapshot();
        let index = TouchIndex::build(&db, &batch, JoinStrategy::Auto);
        let admitted: BTreeSet<QueryId> = batch.iter().map(|q| q.id).collect();
        let engine = crate::engine::AuditEngine::new(&db, &log);
        let all_time = "DURING 1/1/1970 TO now() DATA-INTERVAL 1/1/1970 TO now()";
        for audit in [
            "AUDIT disease FROM Patients WHERE zipcode = '120016'",
            "THRESHOLD 2 AUDIT [zipcode, disease] FROM Patients",
            "INDISPENSABLE false AUDIT disease FROM Patients WHERE zipcode = '120016'",
        ] {
            let text = format!("{all_time} {audit}");
            let expr = audex_sql::parse_audit(&text).unwrap();
            let prepared = engine.prepare(&expr, Timestamp(100)).unwrap();

            let err = index
                .evaluate_governed(&prepared, &admitted, &Governor::unlimited().with_max_steps(1))
                .unwrap_err();
            assert!(
                matches!(err, AuditError::BudgetExhausted { phase: AuditPhase::Indexing, .. }),
                "{text}: {err:?}"
            );

            let batch_verdict = crate::suspicion::BatchEvaluator::new(
                &db,
                &prepared.scope,
                &prepared.model,
                &prepared.view,
                JoinStrategy::Auto,
            )
            .evaluate(&batch)
            .unwrap();
            assert!(batch_verdict.suspicious, "{text}");
            assert_eq!(index.evaluate(&prepared, &admitted).unwrap(), batch_verdict, "{text}");
        }
    }
}
