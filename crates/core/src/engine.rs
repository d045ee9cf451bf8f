//! The end-to-end audit engine.
//!
//! Mirrors the Agrawal et al. pipeline the paper builds on, extended with
//! the unified model's clauses:
//!
//! 1. **Limiting parameters** (§3.3) filter the query log — `DURING`,
//!    role/purpose/user clauses with negative precedence.
//! 2. **Static candidate analysis** (Definition 1) prunes queries that
//!    provably cannot be suspicious, without touching data.
//! 3. **Target view** `U` is computed over the `DATA-INTERVAL` versions
//!    (§3.1) and the **granule model** (§3.2) is instantiated from the
//!    AUDIT/INDISPENSABLE/THRESHOLD clauses.
//! 4. **Semantic evaluation** runs the candidates against the backlog and
//!    decides which granules were accessed.

use audex_sql::ast::AuditExpr;
use audex_sql::Timestamp;
use audex_storage::{Database, JoinStrategy};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use crate::attrspec::{normalize_with, NormalizedSpec};
use crate::candidate::CandidateChecker;
use crate::catalog::AuditScope;
use crate::error::AuditError;
use crate::governor::{AuditPhase, Governor, ResourceLimits};
use crate::granule::GranuleModel;
use crate::limits::{build_filter, resolve_interval};
use crate::suspicion::{AuditTerms, BatchEvaluator, BatchVerdict};
use crate::target::{compute_target_view_governed, TargetView};
use audex_log::{AccessFilter, LoggedQuery, QueryId, QueryLog};

/// How verdicts are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AuditMode {
    /// The whole admitted log is one batch (Motwani et al. style).
    #[default]
    Batch,
    /// Each query is audited in isolation (Agrawal et al. style), plus the
    /// batch verdict.
    PerQuery,
}

/// Engine knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Run the static candidate filter before semantic evaluation
    /// (disable to measure its benefit — bench B2).
    pub static_filter: bool,
    /// Join strategy for every internal query (bench B6).
    pub strategy: JoinStrategy,
    /// Verdict granularity.
    pub mode: AuditMode,
    /// Resource limits armed into a fresh [`Governor`] at the start of every
    /// top-level audit call. Unlimited by default.
    pub limits: ResourceLimits,
    /// Worker threads for batch suspicion evaluation, per-query refinement,
    /// and the per-expression fan-out of [`AuditEngine::audit_many`] — the
    /// three sites that reach ≥1.5× at 2 threads (DESIGN §8). Defaults to
    /// the machine's available cores, which on Linux honours `taskset` and
    /// cgroup CPU limits; `1` runs the exact sequential path (no threads
    /// are spawned). Reports are byte-identical at every setting.
    pub parallelism: usize,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            static_filter: true,
            strategy: JoinStrategy::Auto,
            mode: AuditMode::Batch,
            limits: ResourceLimits::unlimited(),
            parallelism: crate::parallel::default_parallelism(),
        }
    }
}

/// An audit expression resolved and bound to a database: scope, schemes,
/// target view, and granule model, reusable across batches.
#[derive(Clone)]
pub struct PreparedAudit {
    /// The parsed expression.
    pub expr: AuditExpr,
    /// Resolved `FROM` scope.
    pub scope: AuditScope,
    /// Normalized scheme antichain.
    pub spec: NormalizedSpec,
    /// The granule-generating notion.
    pub model: GranuleModel,
    /// The computed target view `U`.
    pub view: TargetView,
    /// What every fold and count reads of this audit, derived once here.
    pub terms: AuditTerms,
    /// The log filter from the limiting parameters.
    pub filter: AccessFilter,
    /// The reference "current time" used for `now()` and defaults.
    pub now: Timestamp,
}

impl PreparedAudit {
    /// Renders the granule set `G` (paper Figs. 4–6); refuses above `limit`.
    pub fn render_granules(&self, limit: u64) -> Result<String, AuditError> {
        self.model.render_set(&self.view, limit)
    }
}

/// The full outcome of one audit run.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Printable form of the audited expression.
    pub expr_text: String,
    /// Log entries admitted by the limiting parameters.
    pub admitted: Vec<QueryId>,
    /// Admitted entries surviving static candidate analysis.
    pub candidates: Vec<QueryId>,
    /// Admitted entries pruned statically.
    pub pruned: Vec<QueryId>,
    /// The data versions `U` was computed over.
    pub versions: Vec<Timestamp>,
    /// `|U|`.
    pub target_size: usize,
    /// The batch verdict.
    pub verdict: BatchVerdict,
    /// Per-query verdicts (only in [`AuditMode::PerQuery`]): the queries
    /// that are suspicious *in isolation* (Definition 3).
    pub per_query_suspicious: Vec<QueryId>,
    /// Pipeline phases that ran to completion, in execution order. A
    /// truncated audit is thereby distinguishable from a clean one.
    pub phases: Vec<AuditPhase>,
    /// When the optional per-query refinement was cut short by the governor,
    /// the error that stopped it. The batch verdict above is still complete;
    /// only `per_query_suspicious` is partial.
    pub truncation: Option<AuditError>,
}

impl AuditReport {
    /// The headline answer: ids of queries the auditor should review —
    /// contributing queries of the batch verdict.
    pub fn suspicious_queries(&self) -> &[QueryId] {
        &self.verdict.contributing
    }

    /// True when every phase the run attempted finished untruncated.
    pub fn is_complete(&self) -> bool {
        self.truncation.is_none()
    }
}

/// True for errors raised by the [`Governor`] (as opposed to errors in the
/// audit expression or the data it touches).
fn is_governor_error(e: &AuditError) -> bool {
    matches!(
        e,
        AuditError::DeadlineExceeded { .. }
            | AuditError::BudgetExhausted { .. }
            | AuditError::Cancelled { .. }
    )
}

/// Telemetry handles for the audit pipeline: a metrics registry (per-phase
/// duration histograms, governor step counter) and a phase tracer.
///
/// The default is fully disconnected — every span and histogram is a no-op
/// — so [`EngineOptions`] stays `Copy` and un-instrumented callers pay
/// nothing. Attach with [`AuditEngine::with_obs`].
#[derive(Debug, Clone, Default)]
pub struct EngineObs {
    registry: Option<Arc<audex_obs::Registry>>,
    tracer: Option<Arc<audex_obs::Tracer>>,
}

impl EngineObs {
    /// Telemetry wired to `registry` and `tracer`.
    pub fn new(registry: Arc<audex_obs::Registry>, tracer: Arc<audex_obs::Tracer>) -> EngineObs {
        EngineObs { registry: Some(registry), tracer: Some(tracer) }
    }

    /// Opens a guard for one pipeline phase: a trace span plus a sample in
    /// the `audex_audit_phase_seconds{phase=...}` histogram, both recorded
    /// when the guard drops — on success *and* on error paths.
    pub fn phase(&self, name: &str) -> audex_obs::TimedSpan {
        let span = match &self.tracer {
            Some(t) => t.span(name),
            None => audex_obs::Span::noop(),
        };
        let hist = match &self.registry {
            Some(r) => r.latency_histogram(
                "audex_audit_phase_seconds",
                "Wall-clock per audit pipeline phase.",
                &[("phase", name)],
            ),
            None => audex_obs::Histogram::noop(),
        };
        audex_obs::TimedSpan::new(span, hist)
    }

    /// Adds one audit's governor step count to `audex_governor_steps_total`.
    fn record_governor_steps(&self, steps: u64) {
        if let Some(r) = &self.registry {
            r.counter(
                "audex_governor_steps_total",
                "Governor-metered work steps across all audits.",
                &[],
            )
            .add(steps);
        }
    }
}

/// The audit engine: a database (with backlog), a query log, and options.
pub struct AuditEngine<'a> {
    db: &'a Database,
    log: &'a QueryLog,
    options: EngineOptions,
    obs: EngineObs,
    /// Shared cancellation flag, armed into every governor this engine
    /// creates — so one handle cancels whatever audit the engine is running.
    cancel: Arc<AtomicBool>,
}

impl<'a> AuditEngine<'a> {
    /// Creates an engine with default options.
    pub fn new(db: &'a Database, log: &'a QueryLog) -> Self {
        Self::with_options(db, log, EngineOptions::default())
    }

    /// Creates an engine with explicit options.
    pub fn with_options(db: &'a Database, log: &'a QueryLog, options: EngineOptions) -> Self {
        AuditEngine {
            db,
            log,
            options,
            obs: EngineObs::default(),
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Attaches telemetry: per-phase duration histograms and trace spans
    /// for every subsequent audit. (A builder rather than an
    /// [`EngineOptions`] field so the options stay `Copy`.)
    pub fn with_obs(mut self, obs: EngineObs) -> Self {
        self.obs = obs;
        self
    }

    /// The options in effect.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The engine's cancellation flag. Store `true` (from any thread) to
    /// stop the audits this engine is running with
    /// [`AuditError::Cancelled`].
    pub fn cancel_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel)
    }

    /// Arms a fresh governor for one top-level audit call.
    fn governor(&self) -> Governor {
        Governor::arm(&self.options.limits).with_cancel_flag(Arc::clone(&self.cancel))
    }

    /// Parses and audits an expression, taking "now" from the wall clock.
    pub fn audit_text(&self, expr_text: &str) -> Result<AuditReport, AuditError> {
        let expr = audex_sql::parse_audit(expr_text)?;
        self.audit_at(&expr, Timestamp::now())
    }

    /// Audits with an explicit "current time" (deterministic; `now()` in the
    /// expression and all clause defaults resolve against it). One governor
    /// covers preparation and evaluation: the deadline and step budget span
    /// the whole call.
    pub fn audit_at(&self, expr: &AuditExpr, now: Timestamp) -> Result<AuditReport, AuditError> {
        let governor = self.governor();
        let span = self.obs.phase("audit");
        let result = self
            .prepare_governed(expr, now, &governor)
            .and_then(|prepared| self.run_governed(&prepared, &governor));
        if result.is_err() {
            span.mark_truncated();
        }
        drop(span);
        self.obs.record_governor_steps(governor.steps());
        result
    }

    /// Resolves an expression against the database: scope, schemes, target
    /// view, granule model, and log filter.
    pub fn prepare(&self, expr: &AuditExpr, now: Timestamp) -> Result<PreparedAudit, AuditError> {
        self.prepare_governed(expr, now, &self.governor())
    }

    /// [`AuditEngine::prepare`] under a caller-supplied [`Governor`].
    pub fn prepare_governed(
        &self,
        expr: &AuditExpr,
        now: Timestamp,
        governor: &Governor,
    ) -> Result<PreparedAudit, AuditError> {
        let scope = AuditScope::resolve(self.db, &expr.from)?;
        let spec = normalize_with(&expr.audit, &scope)?;
        if spec.is_empty() {
            return Err(AuditError::EmptyAuditList);
        }
        let filter = build_filter(expr, now)?;

        let (ds, de) = resolve_interval(expr.data_interval.as_ref(), now)?;
        let versions = self.db.versions_in(&scope.bases(), ds, de);
        let span = self.obs.phase("target-view");
        let view = match compute_target_view_governed(
            self.db,
            expr,
            &scope,
            &spec,
            &versions,
            self.options.strategy,
            governor,
        ) {
            Ok(view) => view,
            Err(e) => {
                span.mark_truncated();
                return Err(e);
            }
        };
        drop(span);
        let model = GranuleModel {
            spec: spec.clone(),
            threshold: expr.threshold,
            indispensable: expr.indispensable,
        };
        governor.check_granules(model.count(view.len()))?;
        let terms = AuditTerms::new(&scope, &model, &view);
        Ok(PreparedAudit { expr: expr.clone(), scope, spec, model, view, terms, filter, now })
    }

    /// Audits many expressions over the same log, executing each logged
    /// query **once** via a [`crate::index::TouchIndex`] (the §4 "efficient
    /// algorithms" path). Verdicts are identical to running
    /// [`AuditEngine::audit_at`] per expression; limiting parameters apply
    /// per expression. Static pruning is irrelevant here — the index already
    /// paid the execution cost — so reports carry empty `pruned` lists.
    ///
    /// **Failure isolation.** Each expression yields its own
    /// `Result<AuditReport, AuditError>` entry: one poisoned expression (bad
    /// table, storage fault, tripped budget) does not take down the rest of
    /// the batch. Only a failure to build the shared index fails the whole
    /// call. One governor spans the call, so a deadline or step budget
    /// covers index construction plus every expression together.
    #[allow(clippy::type_complexity)]
    pub fn audit_many(
        &self,
        exprs: &[AuditExpr],
        now: Timestamp,
    ) -> Result<Vec<Result<AuditReport, AuditError>>, AuditError> {
        let governor = self.governor();
        let entries = self.log.snapshot();
        let span = self.obs.phase("index-build");
        let index = match crate::index::TouchIndex::build_governed(
            self.db,
            &entries,
            self.options.strategy,
            &governor,
        ) {
            Ok(index) => index,
            Err(e) => {
                span.mark_truncated();
                return Err(e);
            }
        };
        drop(span);
        // Fan the expressions out across workers; results come back in
        // expression order, and each entry keeps its own Result (failure
        // isolation is unchanged by the parallel path). At `parallelism` 1
        // `par_map` is the plain loop.
        let out = crate::parallel::par_map(self.options.parallelism, exprs, |_, expr| {
            self.audit_one_indexed(&index, &entries, expr, now, &governor)
        });
        self.obs.record_governor_steps(governor.steps());
        Ok(out)
    }

    /// One expression of [`AuditEngine::audit_many`]: prepare, filter, and
    /// evaluate against the shared touch index.
    fn audit_one_indexed(
        &self,
        index: &crate::index::TouchIndex,
        entries: &[Arc<LoggedQuery>],
        expr: &AuditExpr,
        now: Timestamp,
        governor: &Governor,
    ) -> Result<AuditReport, AuditError> {
        let prepared = self.prepare_governed(expr, now, governor)?;
        let admitted: Vec<QueryId> =
            entries.iter().filter(|e| prepared.filter.admits(e)).map(|e| e.id).collect();
        let admitted_set: std::collections::BTreeSet<QueryId> = admitted.iter().copied().collect();
        let span = self.obs.phase("index-audit");
        let verdict = match index.evaluate_governed(&prepared, &admitted_set, governor) {
            Ok(verdict) => verdict,
            Err(e) => {
                span.mark_truncated();
                return Err(e);
            }
        };
        drop(span);
        Ok(AuditReport {
            expr_text: prepared.expr.to_string(),
            candidates: admitted.clone(),
            admitted,
            pruned: Vec::new(),
            versions: prepared.view.versions.clone(),
            target_size: prepared.view.len(),
            verdict,
            per_query_suspicious: Vec::new(),
            phases: vec![AuditPhase::TargetView, AuditPhase::Indexing],
            truncation: None,
        })
    }

    /// Runs a prepared audit against the current log contents.
    pub fn run(&self, prepared: &PreparedAudit) -> Result<AuditReport, AuditError> {
        self.run_governed(prepared, &self.governor())
    }

    /// [`AuditEngine::run`] under a caller-supplied [`Governor`].
    ///
    /// **Graceful degradation.** The optional per-query refinement
    /// ([`AuditMode::PerQuery`]) runs after the batch verdict is complete;
    /// if the governor trips there, the report is returned anyway with the
    /// partial refinement and the stopping error recorded in
    /// [`AuditReport::truncation`], rather than discarding finished work.
    pub fn run_governed(
        &self,
        prepared: &PreparedAudit,
        governor: &Governor,
    ) -> Result<AuditReport, AuditError> {
        governor.check_granules(prepared.model.count(prepared.view.len()))?;
        let admitted: Vec<Arc<LoggedQuery>> =
            self.log.snapshot().into_iter().filter(|e| prepared.filter.admits(e)).collect();
        let admitted_ids: Vec<QueryId> = admitted.iter().map(|e| e.id).collect();
        let mut phases = vec![AuditPhase::TargetView];

        // Static pruning (Definition 1).
        let checker = CandidateChecker::new(&prepared.scope, prepared.expr.selection.as_ref());
        let span = self.obs.phase("candidate-filter");
        let (candidates, pruned) =
            match checker.partition(self.db, admitted, self.options.static_filter, governor) {
                Ok(parts) => parts,
                Err(e) => {
                    span.mark_truncated();
                    return Err(e);
                }
            };
        drop(span);
        let candidate_ids: Vec<QueryId> = candidates.iter().map(|e| e.id).collect();
        phases.push(AuditPhase::CandidateFilter);

        let evaluator = BatchEvaluator::new(
            self.db,
            &prepared.scope,
            &prepared.model,
            &prepared.view,
            self.options.strategy,
        )
        .with_governor(governor.clone())
        .with_parallelism(self.options.parallelism);
        let span = self.obs.phase("batch-suspicion");
        let verdict = match evaluator.evaluate(&candidates) {
            Ok(verdict) => verdict,
            Err(e) => {
                span.mark_truncated();
                return Err(e);
            }
        };
        drop(span);
        phases.push(AuditPhase::Suspicion);

        let refine_span = match self.options.mode {
            AuditMode::PerQuery => Some(self.obs.phase("refinement")),
            AuditMode::Batch => None,
        };
        let mut truncation = None;
        let per_query_suspicious = match self.options.mode {
            AuditMode::PerQuery if self.options.parallelism > 1 && candidates.len() > 1 => {
                // Parallel refinement: each candidate is a one-element batch
                // (so the evaluator's inner path stays sequential — no nested
                // fan-out), folded in candidate order. The first governor
                // error *in that order* truncates, matching where the
                // sequential loop would have stopped.
                let verdicts =
                    crate::parallel::par_map(self.options.parallelism, &candidates, |_, e| {
                        evaluator.evaluate(std::slice::from_ref(e))
                    });
                let mut out = Vec::new();
                for (e, v) in candidates.iter().zip(verdicts) {
                    match v {
                        Ok(v) => {
                            if v.suspicious {
                                out.push(e.id);
                            }
                        }
                        Err(err) if is_governor_error(&err) => {
                            truncation = Some(err);
                            break;
                        }
                        Err(err) => {
                            if let Some(s) = &refine_span {
                                s.mark_truncated();
                            }
                            return Err(err);
                        }
                    }
                }
                if truncation.is_none() {
                    phases.push(AuditPhase::PerQuery);
                }
                out
            }
            AuditMode::PerQuery => {
                let mut out = Vec::new();
                for e in &candidates {
                    match evaluator.evaluate(std::slice::from_ref(e)) {
                        Ok(v) => {
                            if v.suspicious {
                                out.push(e.id);
                            }
                        }
                        Err(e) if is_governor_error(&e) => {
                            truncation = Some(e);
                            break;
                        }
                        Err(e) => {
                            if let Some(s) = &refine_span {
                                s.mark_truncated();
                            }
                            return Err(e);
                        }
                    }
                }
                if truncation.is_none() {
                    phases.push(AuditPhase::PerQuery);
                }
                out
            }
            AuditMode::Batch => Vec::new(),
        };
        if let Some(s) = &refine_span {
            // A governor trip mid-refinement leaves a partial result; the
            // span closes either way, flagged so traces show the cut.
            if truncation.is_some() {
                s.mark_truncated();
            }
        }
        drop(refine_span);

        Ok(AuditReport {
            expr_text: prepared.expr.to_string(),
            admitted: admitted_ids,
            candidates: candidate_ids,
            pruned,
            versions: prepared.view.versions.clone(),
            target_size: prepared.view.len(),
            verdict,
            per_query_suspicious,
            phases,
            truncation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use audex_log::AccessContext;
    use audex_sql::ast::TypeName;
    use audex_sql::{parse_audit, Ident};
    use audex_storage::Schema;

    fn fixture() -> (Database, QueryLog) {
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
        let log = QueryLog::new();
        log.record_text(
            "SELECT zipcode FROM Patients WHERE disease='cancer'",
            Timestamp(100),
            AccessContext::new("u1", "nurse", "treatment"),
        )
        .unwrap();
        log.record_text(
            "SELECT name FROM Patients WHERE zipcode='145568'",
            Timestamp(200),
            AccessContext::new("u2", "clerk", "marketing"),
        )
        .unwrap();
        log.record_text(
            "SELECT pid FROM Patients WHERE pid='p9'",
            Timestamp(300),
            AccessContext::new("u3", "nurse", "treatment"),
        )
        .unwrap();
        (db, log)
    }

    fn audit(db: &Database, log: &QueryLog, text: &str) -> AuditReport {
        let engine = AuditEngine::new(db, log);
        let expr = parse_audit(text).unwrap();
        engine.audit_at(&expr, Timestamp(1000)).unwrap()
    }

    #[test]
    fn end_to_end_suspicious_query_found() {
        let (db, log) = fixture();
        let r = audit(
            &db,
            &log,
            "DURING 1/1/1970 TO now() AUDIT disease FROM Patients WHERE zipcode='120016'",
        );
        assert!(r.verdict.suspicious);
        assert_eq!(r.suspicious_queries(), &[QueryId(1)]);
        assert_eq!(r.target_size, 2); // Jane, Lucy
    }

    #[test]
    fn during_filters_out_everything_by_default() {
        // Default DURING = "current day" of `now`; our log entries are at
        // the epoch, so nothing is admitted.
        let (db, log) = fixture();
        let engine = AuditEngine::new(&db, &log);
        let expr = parse_audit("AUDIT disease FROM Patients").unwrap();
        let r = engine.audit_at(&expr, Timestamp::from_ymd(2008, 4, 7).unwrap()).unwrap();
        assert!(r.admitted.is_empty());
        assert!(!r.verdict.suspicious);
    }

    #[test]
    fn limiting_parameters_exclude_roles() {
        let (db, log) = fixture();
        let r = audit(
            &db,
            &log,
            "Neg-Role-Purpose (nurse, -) DURING 1/1/1970 TO now() \
             AUDIT disease FROM Patients WHERE zipcode='120016'",
        );
        // q1 (the suspicious one) was run by a nurse — excluded.
        assert!(!r.verdict.suspicious);
        assert_eq!(r.admitted, vec![QueryId(2)]);
    }

    #[test]
    fn static_filter_prunes_irrelevant_queries() {
        let (db, log) = fixture();
        let r = audit(
            &db,
            &log,
            "DURING 1/1/1970 TO now() AUDIT disease FROM Patients WHERE zipcode='120016'",
        );
        // q2's predicate (zipcode='145568') contradicts the audit's
        // (zipcode='120016') — statically pruned. q3 survives: it covers no
        // audited column but could still witness an indispensable tuple.
        assert!(r.pruned.contains(&QueryId(2)));
        assert!(r.candidates.contains(&QueryId(1)));
        assert!(r.candidates.contains(&QueryId(3)));
    }

    #[test]
    fn disabling_static_filter_gives_same_verdict() {
        let (db, log) = fixture();
        let expr = parse_audit(
            "DURING 1/1/1970 TO now() AUDIT disease FROM Patients WHERE zipcode='120016'",
        )
        .unwrap();
        let with = AuditEngine::new(&db, &log).audit_at(&expr, Timestamp(1000)).unwrap();
        let without = AuditEngine::with_options(
            &db,
            &log,
            EngineOptions { static_filter: false, ..Default::default() },
        )
        .audit_at(&expr, Timestamp(1000))
        .unwrap();
        assert_eq!(with.verdict.suspicious, without.verdict.suspicious);
        assert_eq!(with.verdict.accessed_granules, without.verdict.accessed_granules);
        assert!(without.pruned.is_empty());
    }

    #[test]
    fn per_query_mode_reports_individuals() {
        let (db, log) = fixture();
        let engine = AuditEngine::with_options(
            &db,
            &log,
            EngineOptions { mode: AuditMode::PerQuery, ..Default::default() },
        );
        let expr = parse_audit(
            "DURING 1/1/1970 TO now() AUDIT disease FROM Patients WHERE zipcode='120016'",
        )
        .unwrap();
        let r = engine.audit_at(&expr, Timestamp(1000)).unwrap();
        assert_eq!(r.per_query_suspicious, vec![QueryId(1)]);
    }

    #[test]
    fn audit_text_parses_and_runs() {
        let (db, log) = fixture();
        let engine = AuditEngine::new(&db, &log);
        // `now()` is the wall clock here; entries are at the epoch, so the
        // default DURING admits nothing, but the call itself must succeed.
        let r = engine.audit_text("AUDIT disease FROM Patients").unwrap();
        assert!(r.admitted.is_empty());
        assert!(engine.audit_text("AUDIT FROM nope").is_err());
    }

    #[test]
    fn unknown_audit_table_is_error() {
        let (db, log) = fixture();
        let engine = AuditEngine::new(&db, &log);
        let expr = parse_audit("AUDIT x FROM NoSuch").unwrap();
        assert!(matches!(engine.audit_at(&expr, Timestamp(0)), Err(AuditError::UnknownTable(_))));
    }

    #[test]
    fn data_interval_controls_versions() {
        let (mut db, log) = fixture();
        db.execute(
            &audex_sql::parse_statement("UPDATE Patients SET zipcode='120016' WHERE pid='p2'")
                .unwrap(),
            Timestamp(500),
        )
        .unwrap();
        // Data interval covering both versions sees three matching patients.
        let engine = AuditEngine::new(&db, &log);
        let expr = parse_audit(
            "DURING 1/1/1970 TO now() DATA-INTERVAL 1/1/1970 TO now() \
             AUDIT disease FROM Patients WHERE zipcode='120016'",
        )
        .unwrap();
        let r = engine.audit_at(&expr, Timestamp(1000)).unwrap();
        assert_eq!(r.target_size, 3);
        assert!(r.versions.len() >= 2);
    }
}
