//! Granule accessibility and batch suspicion evaluation (paper §3.2):
//! contribution derivation plus the one fold and the one count.
//!
//! **INDISPENSABLE = true.** A granule carries tuple ids; it is accessed
//! when every one of its tuples is *indispensable* (Definition 2) to some
//! query of the batch — witnessed by the tuple appearing in the lineage of
//! the query evaluated at its own execution time, the backlog methodology of
//! \[12\] — and the batch's queries jointly access every column of the
//! granule's scheme. With scheme = the whole audit list and THRESHOLD 1
//! this is exactly Motwani et al.'s batch semantic suspicion (Definition 4);
//! with per-column schemes it is weak syntactic suspicion / perfect privacy
//! (see [`crate::notions`]).
//!
//! **INDISPENSABLE = false.** A granule carries only values; it is accessed
//! when the batch's *result sets* contain the granule's values on the
//! scheme's columns ("the batch has accessed an information which contains
//! tuples similar to the ones present in the granule"). Exposure is
//! computed row-by-row per query and unioned across the batch — a sound
//! over-approximation of value disclosure.
//!
//! Every reader runs the same three steps. [`derive_contribution`] reads
//! one query's lineage — live from a [`SharedQueryState`], or stored in a
//! [`crate::index::QueryFootprint`], both in the one flat form of
//! [`crate::lineage`] — into a [`QueryContribution`];
//! [`AuditBatchState::fold`] unions it into the running batch state; and
//! [`AuditBatchState::verdict`] counts. Neither mode materializes granules:
//! for each scheme the count takes the qualifying facts `m` and adds
//! `C(m, k)` accessed granules.

use audex_sql::Ident;
use audex_storage::{Database, JoinStrategy, ResultSet, Tid};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use crate::attrspec::{ResolvedColumn, Scheme};
use crate::candidate::{accessed_base_columns, BaseColumn};
use crate::catalog::{AuditScope, ScopeEntry};
use crate::error::AuditError;
use crate::governor::{AuditPhase, Governor};
use crate::granule::{binomial, GranuleModel};
use crate::lineage::Lineage;
use crate::target::TargetView;
use audex_log::{LoggedQuery, QueryId};

/// The tid-tuples a query's satisfying combinations cover over one
/// base-table signature.
pub(crate) type CoveredTuples = Arc<HashSet<Vec<Tid>>>;

/// What one query contributed to the audit.
#[derive(Debug, Clone, Default)]
pub struct QueryContribution {
    /// Facts of `U` this query shares an indispensable tuple with.
    pub touched_facts: BTreeSet<usize>,
    /// Base columns the query accessed (`C_Q`, wildcard-expanded); left
    /// empty when the query touched and exposed nothing, since no fold or
    /// score reads an empty contribution.
    pub covered_columns: BTreeSet<BaseColumn>,
    /// Value mode: per fact, the audit columns whose values the query's
    /// result set revealed.
    pub exposed: BTreeMap<usize, BTreeSet<ResolvedColumn>>,
}

impl QueryContribution {
    /// True when the query contributed nothing at all.
    pub fn is_empty(&self) -> bool {
        self.touched_facts.is_empty() && self.exposed.is_empty()
    }
}

/// The outcome of evaluating a batch against one audit expression.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchVerdict {
    /// Whether any granule was accessed.
    pub suspicious: bool,
    /// Number of accessed granules.
    pub accessed_granules: u128,
    /// Total granule count (`|schemes| · C(n, k)`).
    pub total_granules: u128,
    /// `accessed / total` (0 when there are no granules) — the suspicion
    /// degree the paper's §4 proposes for online ranking.
    pub degree: f64,
    /// Accessed-granule count per scheme (parallel to the model's schemes).
    pub per_scheme_accessed: Vec<u128>,
    /// Queries that contributed to disclosure: they shared an indispensable
    /// tuple (or exposed a value) **and** accessed at least one column some
    /// scheme needs. These are the queries an auditor should review.
    pub contributing: Vec<QueryId>,
    /// Queries that only *witnessed* tuples (shared an indispensable tuple
    /// without touching any audited column). They enter Definition 4's `Q'`
    /// — their tuples count toward granule accessibility — but reveal no
    /// audited attribute themselves.
    pub witnesses: Vec<QueryId>,
    /// Queries that could not be evaluated (parse/scope/execution errors);
    /// they are conservatively reported rather than silently dropped.
    pub skipped: Vec<QueryId>,
}

/// The granule count of a batch state: per scheme, then summed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verdict {
    /// Accessed-granule count per scheme (parallel to the model's schemes).
    pub per_scheme_accessed: Vec<u128>,
    /// Accessed granules over all schemes.
    pub accessed: u128,
    /// Total granule count (`|schemes| · C(n, k)`).
    pub total: u128,
    /// `accessed / total`, 0 when there are no granules.
    pub degree: f64,
}

impl Verdict {
    /// Whether any granule was accessed.
    pub fn suspicious(&self) -> bool {
        self.accessed > 0
    }

    /// The batch verdict this count makes with the batch's query lists.
    pub(crate) fn with_queries(
        self,
        contributing: Vec<QueryId>,
        witnesses: Vec<QueryId>,
        skipped: Vec<QueryId>,
    ) -> BatchVerdict {
        BatchVerdict {
            suspicious: self.suspicious(),
            accessed_granules: self.accessed,
            total_granules: self.total,
            degree: self.degree,
            per_scheme_accessed: self.per_scheme_accessed,
            contributing,
            witnesses,
            skipped,
        }
    }
}

/// The audit-side terms every fold and count reads, built once per audit
/// from its scope, granule model and (pinned) target view.
#[derive(Debug, Clone)]
pub struct AuditTerms {
    pub(crate) indispensable: bool,
    /// Columns any scheme needs, in base identity.
    pub(crate) relevant: BTreeSet<BaseColumn>,
    /// (base, column) → audit view columns with that identity (value mode
    /// only; empty for an indispensable audit, which never reads it).
    pub(crate) columns_by_base: BTreeMap<BaseColumn, Vec<ResolvedColumn>>,
    /// Each scheme with its columns in base identity (`None` when one of
    /// them has no base in the audit's scope, so it can never be covered).
    schemes: Vec<(Scheme, Option<Vec<BaseColumn>>)>,
    /// Facts per granule.
    k: u64,
    /// Total granule count.
    total: u128,
}

impl AuditTerms {
    /// Derives the terms of one audit.
    pub(crate) fn new(scope: &AuditScope, model: &GranuleModel, view: &TargetView) -> AuditTerms {
        let mut columns_by_base: BTreeMap<BaseColumn, Vec<ResolvedColumn>> = BTreeMap::new();
        if !model.indispensable {
            for c in &view.columns {
                if let Some(bc) = scope.base_of_column(c) {
                    columns_by_base.entry(bc).or_default().push(c.clone());
                }
            }
        }
        AuditTerms {
            indispensable: model.indispensable,
            relevant: model
                .spec
                .schemes()
                .iter()
                .flatten()
                .filter_map(|c| scope.base_of_column(c))
                .collect(),
            columns_by_base,
            schemes: model
                .spec
                .schemes()
                .iter()
                .map(|s| (s.clone(), s.iter().map(|c| scope.base_of_column(c)).collect()))
                .collect(),
            k: model.k_for(view.len()),
            total: model.count(view.len()),
        }
    }
}

/// How [`AuditBatchState::fold`] classified a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// It shared a tuple (or exposed a value) and accessed an audited
    /// column: listed in `contributing`.
    Contributor,
    /// It shared an indispensable tuple without accessing any audited
    /// column: its tuples count, but it is not listed.
    Witness,
    /// It contributed nothing; the state is unchanged.
    Nothing,
}

/// Running batch state for one audit: the unions every verdict counts.
///
/// Public (with public fields) so a durability layer can checkpoint the
/// auditor's accumulated state and restore it without re-observing every
/// logged query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditBatchState {
    /// Fact indices of `U` touched so far (indispensable mode).
    pub touched: BTreeSet<usize>,
    /// Accessed columns seen so far, in base identity.
    pub covered: BTreeSet<BaseColumn>,
    /// Per-fact exposed audit columns (value mode).
    pub exposure: BTreeMap<usize, BTreeSet<ResolvedColumn>>,
    /// Ids that contributed, in arrival order.
    pub contributing: Vec<QueryId>,
}

impl AuditBatchState {
    /// Folds query `id`'s contribution into the batch. Only queries sharing
    /// a tuple or exposing a value join Definition 4's `Q'`; of those, pure
    /// tuple-witnesses (no audited column accessed) feed the unions but are
    /// not listed as contributors.
    pub fn fold(&mut self, terms: &AuditTerms, id: QueryId, c: &QueryContribution) -> Role {
        if c.is_empty() {
            return Role::Nothing;
        }
        self.touched.extend(c.touched_facts.iter().copied());
        self.covered.extend(c.covered_columns.iter().cloned());
        for (fi, cols) in &c.exposed {
            self.exposure.entry(*fi).or_default().extend(cols.iter().cloned());
        }
        if !c.exposed.is_empty() || !c.covered_columns.is_disjoint(&terms.relevant) {
            self.contributing.push(id);
            Role::Contributor
        } else {
            Role::Witness
        }
    }

    /// Counts the accessed granules: per scheme, the facts the batch
    /// touched (when it also covered every scheme column) or exposed on
    /// every scheme column, choose `k`.
    pub fn verdict(&self, terms: &AuditTerms) -> Verdict {
        let mut per_scheme_accessed = Vec::with_capacity(terms.schemes.len());
        let mut accessed: u128 = 0;
        for (scheme, bases) in &terms.schemes {
            let m = if terms.indispensable {
                let covered =
                    bases.as_ref().is_some_and(|b| b.iter().all(|bc| self.covered.contains(bc)));
                if covered {
                    self.touched.len()
                } else {
                    0
                }
            } else {
                self.exposure.values().filter(|cols| scheme.is_subset(cols)).count()
            };
            let a = binomial(m as u64, terms.k);
            per_scheme_accessed.push(a);
            accessed = accessed.saturating_add(a);
        }
        let total = terms.total;
        Verdict {
            per_scheme_accessed,
            accessed,
            total,
            degree: if total == 0 { 0.0 } else { accessed as f64 / total as f64 },
        }
    }
}

/// Evaluates batches of logged queries against one prepared audit.
pub struct BatchEvaluator<'a> {
    db: &'a Database,
    scope: &'a AuditScope,
    view: &'a TargetView,
    strategy: JoinStrategy,
    governor: Governor,
    /// Worker threads for batch evaluation; `1` = sequential.
    parallelism: usize,
    terms: AuditTerms,
}

impl<'a> BatchEvaluator<'a> {
    /// Prepares an evaluator for one audit.
    pub fn new(
        db: &'a Database,
        scope: &'a AuditScope,
        model: &'a GranuleModel,
        view: &'a TargetView,
        strategy: JoinStrategy,
    ) -> Self {
        BatchEvaluator {
            db,
            scope,
            view,
            strategy,
            governor: Governor::unlimited(),
            parallelism: 1,
            terms: AuditTerms::new(scope, model, view),
        }
    }

    /// Puts the evaluator under `governor`: the batch and fact loops then
    /// consult it and evaluation stops with a governor error when it trips.
    pub fn with_governor(mut self, governor: Governor) -> Self {
        self.governor = governor;
        self
    }

    /// Sets the worker-thread count for [`BatchEvaluator::evaluate`]. `1`
    /// (the default) keeps the exact sequential path.
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism.max(1);
        self
    }

    /// Computes one query's contribution. `Ok(None)` means the query itself
    /// cannot be evaluated (unknown tables, execution error) and should be
    /// reported as skipped; `Err` means the governor stopped the audit.
    pub fn try_contribution(
        &self,
        q: &LoggedQuery,
    ) -> Result<Option<QueryContribution>, AuditError> {
        derive_contribution(
            &mut SharedQueryState::new(self.db, q, self.strategy),
            self.scope,
            self.view,
            &self.terms,
            // A throwaway probe cache: building a map costs exactly what a
            // per-fact scan would, so the one-shot path never regresses.
            &mut FactProbeCache::default(),
            &self.governor,
            AuditPhase::Suspicion,
        )
    }

    /// Per-query contributions for a whole batch, in batch order.
    ///
    /// With `parallelism > 1` the queries are evaluated on scoped worker
    /// threads (read-only over the database; the shared governor's atomics
    /// keep one step budget across workers) and folded back in batch order,
    /// so the verdict below is bitwise identical to the sequential path.
    /// Errors surface as the first failing entry *in batch order* — the one
    /// a sequential run would have stopped at — regardless of which worker
    /// tripped first in wall-clock time.
    #[allow(clippy::type_complexity)]
    fn batch_contributions(
        &self,
        batch: &[Arc<LoggedQuery>],
    ) -> Result<Vec<(QueryId, Option<QueryContribution>)>, AuditError> {
        if self.parallelism <= 1 || batch.len() <= 1 {
            let mut out = Vec::with_capacity(batch.len());
            for q in batch {
                self.governor.tick(AuditPhase::Suspicion)?;
                out.push((q.id, self.try_contribution(q)?));
            }
            return Ok(out);
        }
        crate::parallel::par_map(self.parallelism, batch, |_, q| {
            self.governor.tick(AuditPhase::Suspicion)?;
            Ok((q.id, self.try_contribution(q)?))
        })
        .into_iter()
        .collect()
    }

    /// Evaluates a whole batch.
    pub fn evaluate(&self, batch: &[Arc<LoggedQuery>]) -> Result<BatchVerdict, AuditError> {
        let mut state = AuditBatchState::default();
        let mut witnesses = Vec::new();
        let mut skipped = Vec::new();
        for (id, contribution) in self.batch_contributions(batch)? {
            match contribution {
                None => skipped.push(id),
                Some(c) => {
                    if state.fold(&self.terms, id, &c) == Role::Witness {
                        witnesses.push(id);
                    }
                }
            }
        }
        Ok(state.verdict(&self.terms).with_queries(state.contributing, witnesses, skipped))
    }
}

/// One query's lineage as [`derive_contribution`] reads it. The live path
/// ([`SharedQueryState`]) executes on first need; the touch index reads a
/// stored [`crate::index::QueryFootprint`]. Either way the tids and values
/// are the query's own, at its own execution instant.
pub(crate) trait LineageView {
    /// The query's base tables and accessed columns (`C_Q`, base identity);
    /// `None` when its scope does not resolve.
    fn scope(&self) -> Option<(&BTreeSet<Ident>, &BTreeSet<BaseColumn>)>;

    /// The tid-tuples the query's satisfying combinations cover over the
    /// base tables of `shared` (in order); `None` when the query cannot be
    /// executed.
    fn covered_by(&mut self, shared: &[&ScopeEntry]) -> Option<CoveredTuples>;

    /// The query's executed lineage in flat form; `None` when the query
    /// cannot be executed.
    fn lineage(&mut self) -> Option<&Lineage>;
}

/// Derives one query's contribution to one audit from the query's lineage —
/// the one derivation the batch evaluator, the online auditor and the touch
/// index share. `Ok(None)` means the query cannot be evaluated and is
/// reported skipped; steps are charged to `phase`.
///
/// Indispensable mode joins the query's covered tid-tuples against the
/// audit's fact-probe map (see [`FactProbeCache`]) over the smaller side,
/// one step per probe, so the innocent full-scan class (huge covered set,
/// small view) and the point-query class (tiny covered set) are both cheap.
/// Value mode matches every audited output cell against every fact, one
/// step per fact per row.
pub(crate) fn derive_contribution(
    lineage: &mut impl LineageView,
    scope: &AuditScope,
    view: &TargetView,
    terms: &AuditTerms,
    probe: &mut FactProbeCache,
    governor: &Governor,
    phase: AuditPhase,
) -> Result<Option<QueryContribution>, AuditError> {
    let Some((bases, _)) = lineage.scope() else {
        return Ok(None);
    };
    let mut contrib = QueryContribution::default();
    // The audit bindings this query's tables can witness. Their base
    // tables, in order, are the signature both sides' caches are keyed by.
    let shared: Vec<&ScopeEntry> =
        scope.entries().iter().filter(|e| bases.contains(&e.base)).collect();
    if shared.is_empty() {
        return Ok(Some(contrib)); // no tuples can be shared
    }

    if terms.indispensable {
        let Some(covered) = lineage.covered_by(&shared) else {
            return Ok(None);
        };
        let map = probe.map_for(&shared, view, governor, phase)?;
        if covered.len() <= map.len() {
            for key in covered.iter() {
                governor.tick(phase)?;
                if let Some(fis) = map.get(key) {
                    contrib.touched_facts.extend(fis.iter().copied());
                }
            }
        } else {
            for (key, fis) in map.iter() {
                governor.tick(phase)?;
                if covered.contains(key) {
                    contrib.touched_facts.extend(fis.iter().copied());
                }
            }
        }
    } else {
        let Some(lin) = lineage.lineage() else {
            return Ok(None);
        };
        // Every row carries the same cells (one projection), so the audited
        // ones are found once.
        let audited: Vec<(usize, &[ResolvedColumn])> = lin
            .columns()
            .iter()
            .enumerate()
            .filter_map(|(i, bc)| terms.columns_by_base.get(bc).map(|c| (i, &c[..])))
            .collect();
        if !audited.is_empty() {
            for row in lin.rows() {
                governor.bump(phase, view.facts.len() as u64)?;
                for &(i, audit_cols) in &audited {
                    let v = &row[i];
                    for (fi, fact) in view.facts.iter().enumerate() {
                        for ac in audit_cols {
                            if fact.values.get(ac).is_some_and(|fv| v.grouping_eq(fv)) {
                                contrib.exposed.entry(fi).or_default().insert(ac.clone());
                            }
                        }
                    }
                }
            }
        }
    }
    if !contrib.is_empty() {
        contrib.covered_columns = lineage.scope().map(|(_, c)| c.clone()).unwrap_or_default();
    }
    Ok(Some(contrib))
}

/// Per-query artifacts shared across every audit evaluated against the
/// same logged query: what the resolved scope says before the query runs
/// (base tables, accessed columns, plain-column outputs), and — on first
/// need — one execution at the query's own instant, flattened into one
/// [`Lineage`]. The dispatch-indexed `observe` threads one
/// `SharedQueryState` through the probe, the whole shortlist and the
/// footprint, so the query runs once instead of once per audit, and each
/// product is computed at most once.
pub(crate) struct SharedQueryState<'a> {
    db: &'a Database,
    q: &'a LoggedQuery,
    strategy: JoinStrategy,
    /// `None` when the query's scope does not resolve (every audit then
    /// reports it skipped, and the touch index skips it).
    header: Option<QueryHeader>,
    exec: ExecState,
}

/// What a query's resolved scope says about it without running it.
pub(crate) struct QueryHeader {
    /// Base tables in the query's `FROM`.
    pub(crate) bases: BTreeSet<Ident>,
    /// Accessed columns (`C_Q`), wildcard-expanded, in base identity.
    covered: BTreeSet<BaseColumn>,
    /// Plain-column projections: result position → base column — the
    /// positions value-mode exposure can flow through.
    pub(crate) out_columns: Vec<(usize, BaseColumn)>,
}

enum ExecState {
    NotRun,
    Failed,
    Ready(Executed),
}

/// One execution's products.
struct Executed {
    /// The execution's combinations and plain-column cells.
    lineage: Lineage,
    /// Covered tid-tuples per base-table signature — audits with the same
    /// signature cover the same tuples regardless of binding names. A query
    /// meets a handful of signatures, so a scan beats hashing the names.
    covered_cache: Vec<(Vec<Ident>, CoveredTuples)>,
}

impl Executed {
    fn new(rs: ResultSet, header: &QueryHeader) -> Executed {
        Executed {
            lineage: Lineage::from_result(rs, &header.out_columns),
            covered_cache: Vec::new(),
        }
    }
}

impl<'a> SharedQueryState<'a> {
    /// Resolves the query's scope, accessed columns and outputs once.
    pub(crate) fn new(
        db: &'a Database,
        q: &'a LoggedQuery,
        strategy: JoinStrategy,
    ) -> SharedQueryState<'a> {
        let header = AuditScope::resolve(db, &q.query().from).ok().map(|s| QueryHeader {
            bases: s.entries().iter().map(|e| e.base.clone()).collect(),
            covered: accessed_base_columns(q, &s),
            out_columns: output_columns(q, &s),
        });
        SharedQueryState { db, q, strategy, header, exec: ExecState::NotRun }
    }

    /// The query's header; `None` when its scope does not resolve.
    pub(crate) fn header(&self) -> Option<&QueryHeader> {
        self.header.as_ref()
    }

    /// Runs the query on first need; `None` when its scope does not resolve
    /// or execution fails.
    fn executed(&mut self) -> Option<&mut Executed> {
        let header = self.header.as_ref()?;
        if matches!(self.exec, ExecState::NotRun) {
            let at = self.db.at(self.q.executed_at);
            self.exec = match at.query_with(self.q.query(), self.strategy) {
                Ok(rs) => ExecState::Ready(Executed::new(rs, header)),
                Err(_) => ExecState::Failed,
            };
        }
        match &mut self.exec {
            ExecState::Ready(e) => Some(e),
            _ => None,
        }
    }

    /// The query's [`crate::index::QueryFootprint`] — the same view the
    /// scoring read, running the query first if nothing forced it yet, so
    /// the streaming service maintains its touch index without a second
    /// execution. `None` exactly when the query is skipped: unresolvable
    /// scope or failed execution.
    pub(crate) fn into_footprint(mut self) -> Option<crate::index::QueryFootprint> {
        self.executed()?;
        let (Some(h), ExecState::Ready(e)) = (self.header, self.exec) else {
            return None;
        };
        Some(crate::index::QueryFootprint {
            id: self.q.id,
            bases: h.bases,
            covered: h.covered,
            lineage: e.lineage,
        })
    }
}

impl LineageView for SharedQueryState<'_> {
    fn scope(&self) -> Option<(&BTreeSet<Ident>, &BTreeSet<BaseColumn>)> {
        self.header.as_ref().map(|h| (&h.bases, &h.covered))
    }

    fn covered_by(&mut self, shared: &[&ScopeEntry]) -> Option<CoveredTuples> {
        let e = self.executed()?;
        if let Some((_, c)) = e.covered_cache.iter().find(|(sig, _)| same_signature(sig, shared)) {
            return Some(Arc::clone(c));
        }
        let covered = Arc::new(covered_tuples_by_base(&e.lineage, shared));
        e.covered_cache.push((signature(shared), Arc::clone(&covered)));
        Some(covered)
    }

    fn lineage(&mut self) -> Option<&Lineage> {
        self.executed().map(|e| &e.lineage)
    }
}

/// Per-audit fact-probe maps: for each base-table signature of shared
/// bindings, the map from a fact's tid-tuple (in binding order) to the
/// indices of facts carrying that tuple. The audit's target view is pinned
/// at preparation time, so a built map never invalidates; it is the dual of
/// the covered tid-tuples a [`LineageView`] hands out — keyed the same way,
/// so a map always matches the covered set it is joined against.
///
/// The online auditor keeps one per audit for as long as the audit is
/// registered: the fact scan happens once per signature and each later
/// query joins the smaller of its covered set and the map, which is what
/// keeps innocent full-scan queries that legitimately shortlist every audit
/// cheap. The batch evaluator and the touch index build a fresh one per
/// query and per evaluation respectively.
#[derive(Default)]
pub(crate) struct FactProbeCache {
    /// One map per base-table signature (an audit has a handful).
    by_sig: Vec<(Vec<Ident>, FactProbeMap)>,
    /// Maps built (one per new signature).
    pub(crate) builds: u64,
    /// Probes answered from an already-built map.
    pub(crate) hits: u64,
}

/// Fact indices grouped by their tid-tuple under one binding signature.
pub(crate) type FactProbeMap = Arc<HashMap<Vec<Tid>, Vec<usize>>>;

impl FactProbeCache {
    /// The probe map for the `shared` bindings, building it on first use at
    /// one step per fact.
    fn map_for(
        &mut self,
        shared: &[&ScopeEntry],
        view: &TargetView,
        governor: &Governor,
        phase: AuditPhase,
    ) -> Result<FactProbeMap, AuditError> {
        if let Some((_, m)) = self.by_sig.iter().find(|(sig, _)| same_signature(sig, shared)) {
            self.hits += 1;
            return Ok(Arc::clone(m));
        }
        let mut map: HashMap<Vec<Tid>, Vec<usize>> = HashMap::new();
        for (fi, fact) in view.facts.iter().enumerate() {
            governor.tick(phase)?;
            let tuple: Option<Vec<Tid>> = shared.iter().map(|e| fact.tid_of(&e.binding)).collect();
            if let Some(tuple) = tuple {
                map.entry(tuple).or_default().push(fi);
            }
        }
        self.builds += 1;
        let map = Arc::new(map);
        self.by_sig.push((signature(shared), Arc::clone(&map)));
        Ok(map)
    }
}

/// The base-table signature of shared audit bindings: their base tables in
/// binding order.
fn signature(shared: &[&ScopeEntry]) -> Vec<Ident> {
    shared.iter().map(|e| e.base.clone()).collect()
}

fn same_signature(sig: &[Ident], shared: &[&ScopeEntry]) -> bool {
    sig.iter().eq(shared.iter().map(|e| &e.base))
}

/// The query's plain-column projections: result position → base column —
/// the one walk of a projection, and the positions value-mode exposure can
/// flow through. Wildcards expand against the scope's schemas; a computed
/// expression takes a position but names no column.
fn output_columns(q: &LoggedQuery, q_scope: &AuditScope) -> Vec<(usize, BaseColumn)> {
    use audex_sql::ast::{Expr, SelectItem};
    let mut out = Vec::new();
    let mut idx = 0usize;
    for item in &q.query().projection {
        let expanded: Vec<&ScopeEntry> = match item {
            SelectItem::Wildcard => q_scope.entries().iter().collect(),
            SelectItem::QualifiedWildcard(t) => q_scope.entry(t).into_iter().collect(),
            SelectItem::Expr { expr, .. } => {
                if let Expr::Column(c) = expr {
                    let rc = crate::attrspec::ColumnResolver::resolve(q_scope, c);
                    if let Some(bc) = rc.ok().and_then(|rc| q_scope.base_of_column(&rc)) {
                        out.push((idx, bc));
                    }
                }
                idx += 1;
                continue;
            }
        };
        for e in expanded {
            for (name, _) in e.schema.iter() {
                out.push((idx, (e.base.clone(), name.clone())));
                idx += 1;
            }
        }
    }
    out
}

/// Expands satisfying combinations into the set of tid-tuples they cover
/// over the base tables of `shared` (in binding order). A fact is touched
/// by a query iff its own tid-tuple over the shared bindings is in this set
/// — the hash-set form of "some combination witnesses every shared
/// binding's tuple".
///
/// Combination tid runs are per base table and almost always singletons,
/// so the per-combination cartesian product is tiny; the set as a whole is
/// bounded by the query's satisfying combinations.
pub(crate) fn covered_tuples_by_base(
    lineage: &Lineage,
    shared: &[&ScopeEntry],
) -> HashSet<Vec<Tid>> {
    let mut covered: HashSet<Vec<Tid>> = HashSet::new();
    // Each shared binding's base, as a position among the lineage's keys;
    // a base no combination names covers nothing.
    let keys = lineage.keys();
    let Some(slots) =
        shared.iter().map(|e| keys.iter().position(|k| *k == e.base)).collect::<Option<Vec<_>>>()
    else {
        return covered;
    };
    for c in 0..lineage.combinations() {
        let mut tuples: Vec<Vec<Tid>> = vec![Vec::with_capacity(shared.len())];
        for &k in &slots {
            let tids = lineage.run(c, k);
            if tids.is_empty() {
                tuples.clear();
                break;
            }
            let mut next = Vec::with_capacity(tuples.len() * tids.len());
            for prefix in &tuples {
                for t in tids {
                    let mut p = prefix.clone();
                    p.push(*t);
                    next.push(p);
                }
            }
            tuples = next;
        }
        covered.extend(tuples);
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrspec::normalize_with;
    use crate::target::compute_target_view;
    use audex_log::AccessContext;
    use audex_sql::ast::TypeName;
    use audex_sql::{parse_audit, parse_query, Timestamp};
    use audex_storage::{Schema, Value};

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
        for (tid, pid, name, zip, dis) in [
            (1u64, "p1", "Jane", "120016", "cancer"),
            (2, "p2", "Reku", "145568", "diabetic"),
            (3, "p3", "Lucy", "120016", "flu"),
        ] {
            db.insert_with_tid(
                &p,
                Tid(tid),
                vec![pid.into(), name.into(), zip.into(), dis.into()],
                Timestamp(1),
            )
            .unwrap();
        }
        db
    }

    struct Setup {
        db: Database,
        scope: AuditScope,
        model: GranuleModel,
        view: TargetView,
    }

    fn setup(audit_sql: &str) -> Setup {
        let db = db();
        let audit = parse_audit(audit_sql).unwrap();
        let scope = AuditScope::resolve(&db, &audit.from).unwrap();
        let spec = normalize_with(&audit.audit, &scope).unwrap();
        let view =
            compute_target_view(&db, &audit, &scope, &spec, &[Timestamp(1)], JoinStrategy::Auto)
                .unwrap();
        let model =
            GranuleModel { spec, threshold: audit.threshold, indispensable: audit.indispensable };
        Setup { db, scope, model, view }
    }

    fn logged(sql: &str, id: u64) -> Arc<LoggedQuery> {
        Arc::new(LoggedQuery::new(
            QueryId(id),
            parse_query(sql).unwrap(),
            sql.into(),
            Timestamp(5),
            AccessContext::new("u", "r", "p"),
        ))
    }

    fn verdict(s: &Setup, queries: &[Arc<LoggedQuery>]) -> BatchVerdict {
        BatchEvaluator::new(&s.db, &s.scope, &s.model, &s.view, JoinStrategy::Auto)
            .evaluate(queries)
            .unwrap()
    }

    #[test]
    fn paper_section_2_1_example_suspicious() {
        // AUDIT disease … zipcode='120016'; the query SELECT zipcode WHERE
        // disease='cancer' is suspicious because Jane (cancer) lives there.
        let s = setup("AUDIT disease FROM Patients WHERE zipcode='120016'");
        let v = verdict(&s, &[logged("SELECT zipcode FROM Patients WHERE disease='cancer'", 1)]);
        assert!(v.suspicious);
        assert_eq!(v.contributing, vec![QueryId(1)]);
    }

    #[test]
    fn paper_section_2_1_example_not_suspicious() {
        // AUDIT zipcode … disease='diabetes': no patient has both cancer and
        // diabetes, so the cancer query is innocent.
        let s = setup("AUDIT zipcode FROM Patients WHERE disease='diabetes'");
        let v = verdict(&s, &[logged("SELECT zipcode FROM Patients WHERE disease='cancer'", 1)]);
        assert!(!v.suspicious);
        assert!(v.contributing.is_empty());
    }

    #[test]
    fn batch_composes_column_coverage() {
        // Audit requires (name, disease) jointly; each query alone covers
        // one column, together they cover both (Def. 4 batch semantics).
        let s = setup("AUDIT (name, disease) FROM Patients WHERE zipcode='120016'");
        let q1 = logged("SELECT name FROM Patients WHERE zipcode='120016'", 1);
        let q2 = logged("SELECT disease FROM Patients WHERE zipcode='120016'", 2);
        assert!(!verdict(&s, std::slice::from_ref(&q1)).suspicious);
        assert!(!verdict(&s, std::slice::from_ref(&q2)).suspicious);
        let v = verdict(&s, &[q1, q2]);
        assert!(v.suspicious);
        assert_eq!(v.contributing.len(), 2);
    }

    #[test]
    fn query_without_shared_tuple_does_not_contribute_columns() {
        // The second query covers `disease` but shares no indispensable
        // tuple (wrong zipcode), so the batch stays innocent.
        let s = setup("AUDIT (name, disease) FROM Patients WHERE zipcode='120016'");
        let q1 = logged("SELECT name FROM Patients WHERE zipcode='120016'", 1);
        let q2 = logged("SELECT disease FROM Patients WHERE zipcode='999999'", 2);
        let v = verdict(&s, &[q1, q2]);
        assert!(!v.suspicious);
        assert_eq!(v.contributing, vec![QueryId(1)]);
    }

    #[test]
    fn witnesses_count_tuples_but_are_not_listed() {
        // q1 shares Jane's and Lucy's tuples but accesses no audited column:
        // a witness. Its tuples still join Definition 4's Q', so with q2
        // (Jane's disease) the batch reaches Lucy too.
        let s = setup("AUDIT disease FROM Patients WHERE zipcode='120016'");
        let q1 = logged("SELECT pid FROM Patients WHERE zipcode='120016'", 1);
        let q2 = logged("SELECT disease FROM Patients WHERE pid='p1'", 2);
        let v = verdict(&s, std::slice::from_ref(&q1));
        assert!(!v.suspicious);
        assert_eq!((v.contributing, v.witnesses), (vec![], vec![QueryId(1)]));
        assert_eq!(verdict(&s, std::slice::from_ref(&q2)).accessed_granules, 1);
        let v = verdict(&s, &[q1, q2]);
        assert_eq!((v.contributing, v.witnesses), (vec![QueryId(2)], vec![QueryId(1)]));
        assert_eq!(v.accessed_granules, 2);
    }

    #[test]
    fn threshold_counts_facts() {
        // Two facts share zipcode 120016. THRESHOLD 2 needs both touched.
        let s = setup("THRESHOLD 2 AUDIT name FROM Patients WHERE zipcode='120016'");
        let q_one = logged("SELECT name FROM Patients WHERE pid='p1'", 1);
        let v = verdict(&s, std::slice::from_ref(&q_one));
        assert!(!v.suspicious, "one tuple does not fill a 2-granule");
        let q_both = logged("SELECT name FROM Patients WHERE zipcode='120016'", 2);
        let v = verdict(&s, &[q_one, q_both]);
        assert!(v.suspicious);
        assert_eq!(v.accessed_granules, 1); // C(2,2)
        assert_eq!(v.total_granules, 1);
    }

    #[test]
    fn threshold_all_requires_whole_view() {
        let s = setup("THRESHOLD ALL AUDIT name FROM Patients");
        let q = logged("SELECT name FROM Patients WHERE zipcode='120016'", 1);
        let v = verdict(&s, &[q]);
        assert!(!v.suspicious, "only 2 of 3 facts touched");
        let q_all = logged("SELECT name FROM Patients", 2);
        let v = verdict(&s, &[q_all]);
        assert!(v.suspicious);
    }

    #[test]
    fn degree_is_fraction_of_granules() {
        let s = setup("AUDIT name FROM Patients");
        let q = logged("SELECT name FROM Patients WHERE zipcode='120016'", 1);
        let v = verdict(&s, &[q]);
        assert_eq!(v.total_granules, 3);
        assert_eq!(v.accessed_granules, 2);
        assert!((v.degree - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn value_mode_exposes_by_content() {
        // INDISPENSABLE false: a query with a *different* predicate that
        // still returns the protected value trips the granule.
        let s = setup("INDISPENSABLE false AUDIT name FROM Patients WHERE zipcode='120016'");
        let q = logged("SELECT name FROM Patients WHERE disease='cancer'", 1);
        let v = verdict(&s, &[q]);
        assert!(v.suspicious); // Jane's name surfaced
        assert_eq!(v.accessed_granules, 1); // Jane only; Lucy not returned
    }

    #[test]
    fn value_mode_requires_value_match() {
        let s = setup("INDISPENSABLE false AUDIT name FROM Patients WHERE zipcode='120016'");
        // Returns only Reku's name — not a protected value.
        let q = logged("SELECT name FROM Patients WHERE zipcode='145568'", 1);
        let v = verdict(&s, &[q]);
        assert!(!v.suspicious);
    }

    #[test]
    fn value_mode_ignores_non_column_projections() {
        let s = setup("INDISPENSABLE false AUDIT name FROM Patients WHERE zipcode='120016'");
        let q = logged("SELECT pid FROM Patients WHERE zipcode='120016'", 1);
        let v = verdict(&s, &[q]);
        assert!(!v.suspicious, "pid is not an audited column");
    }

    #[test]
    fn indispensable_mode_catches_predicate_only_access() {
        // The classic counter-example for value matching: the query never
        // *returns* the audited column but uses it in WHERE.
        let s = setup("AUDIT disease FROM Patients WHERE zipcode='120016'");
        let q = logged("SELECT zipcode FROM Patients WHERE disease='cancer'", 1);
        assert!(verdict(&s, &[q]).suspicious);
    }

    #[test]
    fn skipped_queries_are_reported() {
        let s = setup("AUDIT name FROM Patients");
        let q = logged("SELECT nope FROM NoTable", 9);
        let v = verdict(&s, &[q]);
        assert_eq!(v.skipped, vec![QueryId(9)]);
        assert!(!v.suspicious);
    }

    #[test]
    fn per_scheme_counts() {
        let s = setup("AUDIT [name, disease] FROM Patients WHERE zipcode='120016'");
        // Touches both facts, accesses name only.
        let q = logged("SELECT name FROM Patients WHERE zipcode='120016'", 1);
        let v = verdict(&s, &[q]);
        assert_eq!(s.model.spec.len(), 2);
        // disease scheme uncovered, name scheme counts 2 facts.
        let total: u128 = v.per_scheme_accessed.iter().sum();
        assert_eq!(total, 2);
        assert!(v.per_scheme_accessed.contains(&0));
        assert!(v.per_scheme_accessed.contains(&2));
    }

    #[test]
    fn empty_view_is_never_suspicious() {
        let s = setup("AUDIT name FROM Patients WHERE zipcode='000000'");
        let q = logged("SELECT name FROM Patients", 1);
        let v = verdict(&s, &[q]);
        assert!(!v.suspicious);
        assert_eq!(v.total_granules, 0);
        assert_eq!(v.degree, 0.0);
    }

    #[test]
    fn query_evaluated_at_its_own_execution_time() {
        // A query executed before the data existed cannot have touched it.
        let s = setup("AUDIT name FROM Patients");
        let early = LoggedQuery::new(
            QueryId(1),
            parse_query("SELECT name FROM Patients").unwrap(),
            String::new(),
            Timestamp(0),
            AccessContext::new("u", "r", "p"),
        );
        let v = verdict(&s, &[Arc::new(early)]);
        assert!(!v.suspicious);
    }

    #[test]
    fn touched_facts_match_expected_tids() {
        let s = setup("AUDIT name FROM Patients WHERE zipcode='120016'");
        let ev = BatchEvaluator::new(&s.db, &s.scope, &s.model, &s.view, JoinStrategy::Auto);
        let q = logged("SELECT name FROM Patients WHERE pid='p1'", 1);
        let c = ev.try_contribution(&q).unwrap().unwrap();
        assert_eq!(c.touched_facts.len(), 1);
        let fi = *c.touched_facts.iter().next().unwrap();
        assert_eq!(s.view.facts[fi].tids[0].1, Tid(1));
        assert_eq!(s.view.facts[fi].values.values().next().unwrap(), &Value::Str("Jane".into()));
    }
}
