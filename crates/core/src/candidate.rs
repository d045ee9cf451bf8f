//! Static (data-independent) candidate analysis — paper Definition 1.
//!
//! "A query Q is a candidate query with respect to an audit expression A if
//! Q can not be marked syntactically non-suspicious … query and audit
//! expression are not executed over any database instance."
//!
//! Following Agrawal et al., the audit engine first prunes the query log
//! with this analysis, then runs the (expensive) semantic evaluation only on
//! the survivors. The analysis here is **sound**: it returns "not a
//! candidate" only when the query provably cannot contribute to suspicion —
//! it shares no base table with the audit, or its predicate conjoined with
//! the audit's is unsatisfiable. Anything it cannot reason about
//! (disjunctions, LIKE, arithmetic) is conservatively treated as
//! satisfiable. The classic column-overlap test belongs to single-query
//! auditing (Definition 3), where `notions::direct_semantic_single` applies
//! it.
//! Soundness — pruning never changes any audit report — is tested in the
//! integration suite against full semantic evaluation.

use audex_sql::ast::{BinOp, Expr, Literal};
use audex_sql::Ident;
use audex_storage::{Database, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::catalog::AuditScope;
use crate::error::AuditError;
use crate::governor::{AuditPhase, Governor};
use audex_log::{AccessedColumn, LoggedQuery, QueryId};

/// A column identified by `(base table, column)` — the namespace shared
/// between a query and an audit expression (backlog prefixes stripped).
pub type BaseColumn = (Ident, Ident);

/// Expands a query's accessed columns (`C_Q = C_OQ ∪ columns(P_Q)`, with
/// wildcards expanded against the schemas) into base-column identities.
pub fn accessed_base_columns(q: &LoggedQuery, q_scope: &AuditScope) -> BTreeSet<BaseColumn> {
    let mut out = BTreeSet::new();
    for ac in q.accessed_columns() {
        match ac {
            AccessedColumn::Column(c) => {
                if let Ok(rc) = crate::attrspec::ColumnResolver::resolve(q_scope, &c) {
                    if let Some(bc) = q_scope.base_of_column(&rc) {
                        out.insert(bc);
                    }
                }
            }
            AccessedColumn::AllColumns => {
                for e in q_scope.entries() {
                    for (name, _) in e.schema.iter() {
                        out.insert((e.base.clone(), name.clone()));
                    }
                }
            }
            AccessedColumn::AllOf(t) => {
                if let Some(e) = q_scope.entry(&t) {
                    for (name, _) in e.schema.iter() {
                        out.insert((e.base.clone(), name.clone()));
                    }
                }
            }
        }
    }
    out
}

/// The audit-side inputs to candidacy, precomputed once per audit.
pub struct CandidateChecker {
    audit_bases: BTreeSet<Ident>,
    audit_constraints: Vec<Constraint>,
}

impl CandidateChecker {
    /// Precomputes the audit's base tables and normalized predicate
    /// constraints.
    pub fn new(audit_scope: &AuditScope, audit_pred: Option<&Expr>) -> Self {
        let audit_bases = audit_scope.bases().into_iter().collect();
        let audit_constraints = match audit_pred {
            Some(p) => extract_constraints(p, audit_scope),
            None => Vec::new(),
        };
        CandidateChecker { audit_bases, audit_constraints }
    }

    /// Paper Definition 1, generalized to the granule model: `true` unless
    /// the query provably cannot contribute to any granule access.
    ///
    /// Note that column overlap is deliberately *not* required here: under
    /// batch semantics (Definition 4) a query that accesses none of the
    /// audited columns can still join `Q'` by witnessing an indispensable
    /// tuple, so pruning it would change granule counts. The classic
    /// column-overlap test of Agrawal et al. is sound only when each query
    /// is audited in isolation; `notions::direct_semantic_single` applies it.
    pub fn is_candidate(&self, q: &LoggedQuery, q_scope: &AuditScope) -> bool {
        // (1) Must share a base table with the audit.
        if !q_scope.entries().iter().any(|e| self.audit_bases.contains(&e.base)) {
            return false;
        }
        // (2) P_Q ∧ P_A must be satisfiable.
        let mut constraints = self.audit_constraints.clone();
        if let Some(p) = &q.query().selection {
            constraints.extend(extract_constraints(p, q_scope));
        }
        satisfiable(&constraints)
    }

    /// Splits admitted log entries into static candidates and pruned ids
    /// (engine pipeline step 2), consulting `governor` once per entry. With
    /// `static_filter` off every entry is kept, so the split is free.
    #[allow(clippy::type_complexity)]
    pub fn partition(
        &self,
        db: &Database,
        entries: Vec<Arc<LoggedQuery>>,
        static_filter: bool,
        governor: &Governor,
    ) -> Result<(Vec<Arc<LoggedQuery>>, Vec<QueryId>), AuditError> {
        let mut candidates = Vec::with_capacity(entries.len());
        let mut pruned = Vec::new();
        for e in entries {
            governor.tick(AuditPhase::CandidateFilter)?;
            let keep = if static_filter {
                match AuditScope::resolve(db, &e.query().from) {
                    Ok(q_scope) => self.is_candidate(&e, &q_scope),
                    Err(_) => false, // references unknown tables: cannot match
                }
            } else {
                true
            };
            if keep {
                candidates.push(e);
            } else {
                pruned.push(e.id);
            }
        }
        Ok((candidates, pruned))
    }
}

/// A conjunct the solver understands.
#[derive(Debug, Clone)]
enum Constraint {
    /// `colA = colB`
    ColEq(BaseColumn, BaseColumn),
    /// `col op literal`
    Cmp(BaseColumn, BinOp, Value),
}

/// Extracts solver-friendly constraints from the top-level conjuncts of a
/// predicate; anything else is dropped (conservative).
fn extract_constraints(pred: &Expr, scope: &AuditScope) -> Vec<Constraint> {
    let mut out = Vec::new();
    for conj in split_and(pred) {
        extract_one(conj, scope, &mut out);
    }
    out
}

fn split_and(e: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        if let Expr::Binary { left, op: BinOp::And, right } = e {
            walk(left, out);
            walk(right, out);
        } else {
            out.push(e);
        }
    }
    walk(e, &mut out);
    out
}

fn column_of(e: &Expr, scope: &AuditScope) -> Option<BaseColumn> {
    if let Expr::Column(c) = e {
        let rc = crate::attrspec::ColumnResolver::resolve(scope, c).ok()?;
        scope.base_of_column(&rc)
    } else {
        None
    }
}

fn literal_of(e: &Expr) -> Option<Value> {
    match e {
        Expr::Literal(Literal::Int(v)) => Some(Value::Int(*v)),
        Expr::Literal(Literal::Float(v)) => Some(Value::Float(*v)),
        Expr::Literal(Literal::Str(s)) => Some(Value::Str(s.clone())),
        Expr::Literal(Literal::Bool(b)) => Some(Value::Bool(*b)),
        Expr::Literal(Literal::Ts(t)) => Some(Value::Ts(*t)),
        _ => None,
    }
}

fn extract_one(e: &Expr, scope: &AuditScope, out: &mut Vec<Constraint>) {
    match e {
        Expr::Binary { left, op, right } if op.is_comparison() => {
            match (column_of(left, scope), column_of(right, scope)) {
                (Some(a), Some(b)) if *op == BinOp::Eq => {
                    out.push(Constraint::ColEq(a, b));
                }
                // Other column-column comparisons: conservatively SAT.
                (Some(c), None) => {
                    if let Some(v) = literal_of(right) {
                        out.push(Constraint::Cmp(c, *op, v));
                    }
                }
                (None, Some(c)) => {
                    if let Some(v) = literal_of(left) {
                        out.push(Constraint::Cmp(c, op.flip(), v));
                    }
                }
                _ => {}
            }
        }
        Expr::Between { expr, low, high, negated: false } => {
            if let Some(c) = column_of(expr, scope) {
                if let Some(lo) = literal_of(low) {
                    out.push(Constraint::Cmp(c.clone(), BinOp::GtEq, lo));
                }
                if let Some(hi) = literal_of(high) {
                    out.push(Constraint::Cmp(c, BinOp::LtEq, hi));
                }
            }
        }
        Expr::InList { expr, list, negated: false } if list.len() == 1 => {
            if let (Some(c), Some(v)) = (column_of(expr, scope), literal_of(&list[0])) {
                out.push(Constraint::Cmp(c, BinOp::Eq, v));
            }
        }
        // Disjunctions, negations, LIKE, IS NULL, arithmetic: no constraint.
        _ => {}
    }
}

/// Bounds for one equivalence class of columns.
#[derive(Debug, Clone, Default)]
struct Bounds {
    lo: Option<(Value, bool)>, // (bound, strict)
    hi: Option<(Value, bool)>,
    neq: Vec<Value>,
}

/// Decides satisfiability of the conjunction; `true` on "don't know".
fn satisfiable(constraints: &[Constraint]) -> bool {
    // Union-find over columns.
    let mut cols: Vec<BaseColumn> = Vec::new();
    let mut index: BTreeMap<BaseColumn, usize> = BTreeMap::new();
    let intern =
        |c: &BaseColumn, cols: &mut Vec<BaseColumn>, index: &mut BTreeMap<BaseColumn, usize>| {
            *index.entry(c.clone()).or_insert_with(|| {
                cols.push(c.clone());
                cols.len() - 1
            })
        };
    let mut parent: Vec<usize> = Vec::new();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }

    // First pass: intern and union.
    let mut interned: Vec<(usize, Option<(BinOp, Value)>)> = Vec::new();
    for c in constraints {
        match c {
            Constraint::ColEq(a, b) => {
                let ia = intern(a, &mut cols, &mut index);
                let ib = intern(b, &mut cols, &mut index);
                while parent.len() < cols.len() {
                    parent.push(parent.len());
                }
                let (ra, rb) = (find(&mut parent, ia), find(&mut parent, ib));
                parent[ra] = rb;
            }
            Constraint::Cmp(col, op, v) => {
                let i = intern(col, &mut cols, &mut index);
                while parent.len() < cols.len() {
                    parent.push(parent.len());
                }
                interned.push((i, Some((*op, v.clone()))));
            }
        }
    }
    while parent.len() < cols.len() {
        parent.push(parent.len());
    }

    // Second pass: accumulate bounds per class representative.
    let mut bounds: BTreeMap<usize, Bounds> = BTreeMap::new();
    for (i, cmp) in interned {
        let root = find(&mut parent, i);
        let b = bounds.entry(root).or_default();
        let Some((op, v)) = cmp else { continue };
        match op {
            BinOp::Eq => {
                tighten_lo(b, v.clone(), false);
                tighten_hi(b, v, false);
            }
            BinOp::NotEq => b.neq.push(v),
            BinOp::Lt => tighten_hi(b, v, true),
            BinOp::LtEq => tighten_hi(b, v, false),
            BinOp::Gt => tighten_lo(b, v, true),
            BinOp::GtEq => tighten_lo(b, v, false),
            _ => {}
        }
    }

    // Check each class.
    for b in bounds.values() {
        if let (Some((lo, lo_strict)), Some((hi, hi_strict))) = (&b.lo, &b.hi) {
            match lo.sql_cmp(hi) {
                Some(std::cmp::Ordering::Greater) => return false,
                Some(std::cmp::Ordering::Equal) if *lo_strict || *hi_strict => return false,
                Some(std::cmp::Ordering::Equal)
                    // Pinned to a single value; any NotEq on it kills it.
                    if b.neq.iter().any(|v| v.sql_cmp(lo) == Some(std::cmp::Ordering::Equal)) => {
                        return false;
                    }
                _ => {}
            }
        }
    }
    true
}

fn tighten_lo(b: &mut Bounds, v: Value, strict: bool) {
    let replace = match &b.lo {
        None => true,
        Some((cur, cur_strict)) => match v.sql_cmp(cur) {
            Some(std::cmp::Ordering::Greater) => true,
            Some(std::cmp::Ordering::Equal) => strict && !cur_strict,
            _ => false,
        },
    };
    if replace {
        b.lo = Some((v, strict));
    }
}

fn tighten_hi(b: &mut Bounds, v: Value, strict: bool) {
    let replace = match &b.hi {
        None => true,
        Some((cur, cur_strict)) => match v.sql_cmp(cur) {
            Some(std::cmp::Ordering::Less) => true,
            Some(std::cmp::Ordering::Equal) => strict && !cur_strict,
            _ => false,
        },
    };
    if replace {
        b.hi = Some((v, strict));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use audex_log::AccessContext;
    use audex_log::QueryId;
    use audex_sql::ast::TypeName;
    use audex_sql::{parse_audit, parse_query, Timestamp};
    use audex_storage::{Database, Schema};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            Ident::new("Patients"),
            Schema::of(&[
                ("pid", TypeName::Text),
                ("zipcode", TypeName::Text),
                ("disease", TypeName::Text),
                ("age", TypeName::Int),
            ]),
            Timestamp(0),
        )
        .unwrap();
        db.create_table(
            Ident::new("Visits"),
            Schema::of(&[("pid", TypeName::Text), ("ward", TypeName::Text)]),
            Timestamp(0),
        )
        .unwrap();
        db
    }

    fn checker(db: &Database, audit_sql: &str) -> (CandidateChecker, AuditScope) {
        let audit = parse_audit(audit_sql).unwrap();
        let scope = AuditScope::resolve(db, &audit.from).unwrap();
        let c = CandidateChecker::new(&scope, audit.selection.as_ref());
        (c, scope)
    }

    fn logged(db: &Database, sql: &str) -> (LoggedQuery, AuditScope) {
        let query = parse_query(sql).unwrap();
        let scope = AuditScope::resolve(db, &query.from).unwrap();
        let q = LoggedQuery::new(
            QueryId(1),
            query,
            sql.into(),
            Timestamp(1),
            AccessContext::new("u", "r", "p"),
        );
        (q, scope)
    }

    fn is_candidate(audit_sql: &str, query_sql: &str) -> bool {
        let db = db();
        let (c, _) = checker(&db, audit_sql);
        let (q, qs) = logged(&db, query_sql);
        c.is_candidate(&q, &qs)
    }

    #[test]
    fn shares_no_table_not_candidate() {
        assert!(!is_candidate(
            "AUDIT disease FROM Patients WHERE zipcode = '1'",
            "SELECT ward FROM Visits"
        ));
    }

    #[test]
    fn column_overlap_only_required_in_single_mode() {
        // Batch candidacy keeps the query: it can witness a tuple for the
        // batch even though it covers no audited column. (Single-query
        // auditing prunes it, C_Q ⊉ C_A, in `notions::direct_semantic_single`.)
        assert!(is_candidate(
            "AUDIT disease FROM Patients",
            "SELECT age FROM Patients WHERE pid = 'p1'"
        ));
    }

    #[test]
    fn contradictory_equalities_pruned() {
        assert!(!is_candidate(
            "AUDIT disease FROM Patients WHERE zipcode = '120016'",
            "SELECT disease FROM Patients WHERE zipcode = '145568'"
        ));
    }

    #[test]
    fn interval_contradiction_pruned() {
        assert!(!is_candidate(
            "AUDIT disease FROM Patients WHERE age < 30",
            "SELECT disease FROM Patients WHERE age > 40"
        ));
        assert!(is_candidate(
            "AUDIT disease FROM Patients WHERE age < 30",
            "SELECT disease FROM Patients WHERE age > 20"
        ));
    }

    #[test]
    fn strict_boundary_contradiction() {
        assert!(!is_candidate(
            "AUDIT disease FROM Patients WHERE age < 30",
            "SELECT disease FROM Patients WHERE age >= 30"
        ));
        assert!(is_candidate(
            "AUDIT disease FROM Patients WHERE age <= 30",
            "SELECT disease FROM Patients WHERE age >= 30"
        ));
    }

    #[test]
    fn not_eq_on_pinned_value() {
        assert!(!is_candidate(
            "AUDIT disease FROM Patients WHERE age = 30",
            "SELECT disease FROM Patients WHERE age <> 30"
        ));
        assert!(is_candidate(
            "AUDIT disease FROM Patients WHERE age = 30",
            "SELECT disease FROM Patients WHERE age <> 31"
        ));
    }

    #[test]
    fn equality_propagates_through_join_columns() {
        // Audit pins Patients.pid = 'p1'; query joins Visits.pid = Patients.pid
        // and pins Visits.pid = 'p2' → unsatisfiable.
        assert!(!is_candidate(
            "AUDIT disease FROM Patients WHERE Patients.pid = 'p1'",
            "SELECT disease FROM Patients, Visits \
             WHERE Patients.pid = Visits.pid AND Visits.pid = 'p2'"
        ));
        assert!(is_candidate(
            "AUDIT disease FROM Patients WHERE Patients.pid = 'p1'",
            "SELECT disease FROM Patients, Visits \
             WHERE Patients.pid = Visits.pid AND Visits.pid = 'p1'"
        ));
    }

    #[test]
    fn disjunctions_are_conservatively_satisfiable() {
        assert!(is_candidate(
            "AUDIT disease FROM Patients WHERE age < 30",
            "SELECT disease FROM Patients WHERE age > 40 OR zipcode = '1'"
        ));
    }

    #[test]
    fn numeric_string_coercion_in_solver() {
        // zipcode = '145568' vs zipcode = 145568 must be consistent (Fig. 3
        // writes the integer form).
        assert!(is_candidate(
            "AUDIT disease FROM Patients WHERE zipcode = '145568'",
            "SELECT disease FROM Patients WHERE zipcode = 145568"
        ));
        assert!(!is_candidate(
            "AUDIT disease FROM Patients WHERE zipcode = '145568'",
            "SELECT disease FROM Patients WHERE zipcode = 145569"
        ));
    }

    #[test]
    fn between_constraints() {
        assert!(!is_candidate(
            "AUDIT disease FROM Patients WHERE age BETWEEN 10 AND 20",
            "SELECT disease FROM Patients WHERE age BETWEEN 30 AND 40"
        ));
        assert!(is_candidate(
            "AUDIT disease FROM Patients WHERE age BETWEEN 10 AND 30",
            "SELECT disease FROM Patients WHERE age BETWEEN 25 AND 40"
        ));
    }

    #[test]
    fn backlog_audit_matches_base_query() {
        // An audit over b-Patients shares the base table with queries over
        // Patients.
        assert!(is_candidate("AUDIT disease FROM b-Patients", "SELECT disease FROM Patients"));
    }

    #[test]
    fn single_element_in_list_is_equality() {
        assert!(!is_candidate(
            "AUDIT disease FROM Patients WHERE zipcode IN ('1')",
            "SELECT disease FROM Patients WHERE zipcode = '2'"
        ));
    }
}
