//! Static (data-independent) batch suspiciousness — the paper's first
//! future-work question (§4): *"it would be interesting to see for what
//! suspicion notions static determination of a query batch suspiciousness
//! is decidable."*
//!
//! This module gives a concrete, certificate-producing answer for the SPJ
//! fragment with conjunctive comparison predicates (the fragment the
//! paper's own examples use):
//!
//! * **Weak syntactic suspicion (Definition 7)** quantifies over *some
//!   database instance*, so it is a static notion. For the decidable
//!   fragment — top-level conjunctions of `col op literal` and
//!   `col = col`, interpreted over dense domains — [`static_weak_syntactic`]
//!   decides it exactly and, when the answer is *suspicious*, returns a
//!   **witness instance**: a tiny database on which the batch provably
//!   trips the notion (re-verified dynamically before being returned).
//!   Queries outside the fragment (disjunctions, LIKE, arithmetic,
//!   inequality column-column comparisons) degrade the answer to
//!   [`StaticVerdict::Unknown`] rather than a wrong verdict.
//! * **Semantic (indispensable-tuple) suspicion** is inherently
//!   data-dependent — the actual instance decides — so static analysis can
//!   only ever return *not suspicious* (when no query is even a candidate)
//!   or *unknown*; [`static_semantic_bound`] provides exactly that sound
//!   bound.
//!
//! Together these reproduce the qualitative landscape the related work
//! describes: syntactic notions are decidable (Motwani et al.), semantic
//! ones require the data (Agrawal et al.), and general formulas make the
//! problem intractable (Miklau–Suciu) — the fragment boundary is where this
//! implementation switches to `Unknown`.

use audex_sql::ast::{BinOp, Expr, Literal, TypeName};
use audex_sql::{Ident, Timestamp};
use audex_storage::{Database, JoinStrategy, Schema, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::attrspec::normalize_with;
use crate::candidate::{accessed_base_columns, BaseColumn, CandidateChecker};
use crate::catalog::AuditScope;
use crate::error::AuditError;
use crate::governor::{AuditPhase, Governor};
use crate::granule::GranuleModel;
use crate::notions::weak_syntactic;
use crate::suspicion::BatchEvaluator;
use audex_log::{LoggedQuery, QueryId};

/// Outcome of a static determination.
#[derive(Debug, Clone, PartialEq)]
pub enum StaticVerdict {
    /// Provably suspicious on *some* instance; a witness is attached.
    Suspicious {
        /// The query that trips the notion on the witness instance.
        query: QueryId,
        /// A database instance on which the batch is suspicious.
        witness: Box<Database>,
    },
    /// Provably not suspicious on *any* instance.
    NotSuspicious,
    /// Outside the decidable fragment; no determination.
    Unknown,
}

impl StaticVerdict {
    /// True for the suspicious variant.
    pub fn is_suspicious(&self) -> bool {
        matches!(self, StaticVerdict::Suspicious { .. })
    }
}

/// A bound (lower, upper, strictness) with disequalities, per column class.
#[derive(Debug, Clone, Default)]
struct ClassBounds {
    lo: Option<(Value, bool)>,
    hi: Option<(Value, bool)>,
    neq: Vec<Value>,
}

/// A conjunct of the decidable fragment.
enum FragmentConstraint {
    ColEq(BaseColumn, BaseColumn),
    Cmp(BaseColumn, BinOp, Value),
}

/// Extracts the predicate into fragment constraints; `None` when any
/// conjunct falls outside the fragment.
fn extract_strict(pred: &Expr, scope: &AuditScope) -> Option<Vec<FragmentConstraint>> {
    fn split<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        if let Expr::Binary { left, op: BinOp::And, right } = e {
            split(left, out);
            split(right, out);
        } else {
            out.push(e);
        }
    }
    let mut conjuncts = Vec::new();
    split(pred, &mut conjuncts);

    let col = |e: &Expr| -> Option<BaseColumn> {
        if let Expr::Column(c) = e {
            let rc = crate::attrspec::ColumnResolver::resolve(scope, c).ok()?;
            scope.base_of_column(&rc)
        } else {
            None
        }
    };
    let lit = |e: &Expr| -> Option<Value> {
        match e {
            Expr::Literal(Literal::Int(v)) => Some(Value::Int(*v)),
            Expr::Literal(Literal::Float(v)) => Some(Value::Float(*v)),
            Expr::Literal(Literal::Str(s)) => Some(Value::Str(s.clone())),
            Expr::Literal(Literal::Bool(b)) => Some(Value::Bool(*b)),
            Expr::Literal(Literal::Ts(t)) => Some(Value::Ts(*t)),
            _ => None,
        }
    };

    let mut out = Vec::new();
    for c in conjuncts {
        match c {
            Expr::Binary { left, op, right } if op.is_comparison() => {
                match (col(left), col(right)) {
                    (Some(a), Some(b)) if *op == BinOp::Eq => {
                        out.push(FragmentConstraint::ColEq(a, b))
                    }
                    (Some(_), Some(_)) => return None, // col <op> col: outside fragment
                    (Some(cc), None) => out.push(FragmentConstraint::Cmp(cc, *op, lit(right)?)),
                    (None, Some(cc)) => {
                        out.push(FragmentConstraint::Cmp(cc, op.flip(), lit(left)?))
                    }
                    _ => return None,
                }
            }
            Expr::Between { expr, low, high, negated: false } => {
                let cc = col(expr)?;
                out.push(FragmentConstraint::Cmp(cc.clone(), BinOp::GtEq, lit(low)?));
                out.push(FragmentConstraint::Cmp(cc, BinOp::LtEq, lit(high)?));
            }
            _ => return None,
        }
    }
    Some(out)
}

/// Solves fragment constraints into a value per column, or `None` when
/// unsatisfiable / not solvable within this implementation.
fn solve(constraints: &[FragmentConstraint]) -> Option<BTreeMap<BaseColumn, Value>> {
    // Union-find.
    let mut cols: Vec<BaseColumn> = Vec::new();
    let mut index: BTreeMap<BaseColumn, usize> = BTreeMap::new();
    let mut parent: Vec<usize> = Vec::new();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let intern = |c: &BaseColumn,
                  cols: &mut Vec<BaseColumn>,
                  index: &mut BTreeMap<BaseColumn, usize>,
                  parent: &mut Vec<usize>|
     -> usize {
        *index.entry(c.clone()).or_insert_with(|| {
            cols.push(c.clone());
            parent.push(parent.len());
            cols.len() - 1
        })
    };
    let mut cmps: Vec<(usize, BinOp, Value)> = Vec::new();
    for c in constraints {
        match c {
            FragmentConstraint::ColEq(a, b) => {
                let ia = intern(a, &mut cols, &mut index, &mut parent);
                let ib = intern(b, &mut cols, &mut index, &mut parent);
                let (ra, rb) = (find(&mut parent, ia), find(&mut parent, ib));
                parent[ra] = rb;
            }
            FragmentConstraint::Cmp(c, op, v) => {
                let i = intern(c, &mut cols, &mut index, &mut parent);
                cmps.push((i, *op, v.clone()));
            }
        }
    }
    let mut bounds: BTreeMap<usize, ClassBounds> = BTreeMap::new();
    for (i, op, v) in cmps {
        let root = find(&mut parent, i);
        let b = bounds.entry(root).or_default();
        match op {
            BinOp::Eq => {
                tighten(&mut b.lo, v.clone(), false, true);
                tighten(&mut b.hi, v, false, false);
            }
            BinOp::NotEq => b.neq.push(v),
            BinOp::Gt => tighten(&mut b.lo, v, true, true),
            BinOp::GtEq => tighten(&mut b.lo, v, false, true),
            BinOp::Lt => tighten(&mut b.hi, v, true, false),
            BinOp::LtEq => tighten(&mut b.hi, v, false, false),
            _ => return None,
        }
    }

    // Pick a value per class.
    let mut solution: BTreeMap<BaseColumn, Value> = BTreeMap::new();
    let mut class_values: BTreeMap<usize, Value> = BTreeMap::new();
    for (ci, col) in cols.iter().enumerate() {
        let root = find(&mut parent, ci);
        let value = match class_values.get(&root) {
            Some(v) => v.clone(),
            None => {
                let v = pick_value(bounds.get(&root).cloned().unwrap_or_default())?;
                class_values.insert(root, v.clone());
                v
            }
        };
        solution.insert(col.clone(), value);
    }
    Some(solution)
}

fn tighten(slot: &mut Option<(Value, bool)>, v: Value, strict: bool, is_lo: bool) {
    let replace = match slot {
        None => true,
        Some((cur, cur_strict)) => match v.sql_cmp(cur) {
            Some(std::cmp::Ordering::Greater) => is_lo,
            Some(std::cmp::Ordering::Less) => !is_lo,
            Some(std::cmp::Ordering::Equal) => strict && !*cur_strict,
            None => false,
        },
    };
    if replace {
        *slot = Some((v, strict));
    }
}

/// Chooses a concrete value satisfying the bounds, avoiding disequalities.
fn pick_value(b: ClassBounds) -> Option<Value> {
    let candidates: Vec<Value> = match (&b.lo, &b.hi) {
        (None, None) => vec![Value::Int(0), Value::Int(1), Value::Int(2), Value::Str("w".into())],
        (Some((lo, strict)), None) => match lo {
            Value::Int(v) => vec![Value::Int(if *strict { v + 1 } else { *v }), Value::Int(v + 2)],
            Value::Float(v) => vec![Value::Float(v + 1.0), Value::Float(v + 2.0)],
            Value::Str(s) => {
                if *strict {
                    vec![Value::Str(format!("{s}z")), Value::Str(format!("{s}zz"))]
                } else {
                    vec![Value::Str(s.clone()), Value::Str(format!("{s}z"))]
                }
            }
            Value::Ts(t) => vec![Value::Ts(Timestamp(t.0 + 1)), Value::Ts(Timestamp(t.0 + 2))],
            Value::Bool(v) => vec![Value::Bool(*v), Value::Bool(true)],
            Value::Null => return None,
        },
        (None, Some((hi, strict))) => match hi {
            Value::Int(v) => vec![Value::Int(if *strict { v - 1 } else { *v }), Value::Int(v - 2)],
            Value::Float(v) => vec![Value::Float(v - 1.0), Value::Float(v - 2.0)],
            Value::Str(s) => {
                if *strict {
                    // Any strictly-smaller string; empty works unless s is empty.
                    if s.is_empty() {
                        return None;
                    }
                    vec![Value::Str(String::new())]
                } else {
                    vec![Value::Str(s.clone())]
                }
            }
            Value::Ts(t) => vec![Value::Ts(Timestamp(t.0 - 1)), Value::Ts(Timestamp(t.0 - 2))],
            Value::Bool(v) => vec![Value::Bool(*v), Value::Bool(false)],
            Value::Null => return None,
        },
        (Some((lo, lo_strict)), Some((hi, hi_strict))) => {
            // Feasibility first.
            match lo.sql_cmp(hi) {
                Some(std::cmp::Ordering::Greater) => return None,
                Some(std::cmp::Ordering::Equal) if *lo_strict || *hi_strict => return None,
                None => return None,
                _ => {}
            }
            match (lo, hi) {
                (Value::Int(a), Value::Int(bv)) => {
                    let start = if *lo_strict { a + 1 } else { *a };
                    let end = if *hi_strict { bv - 1 } else { *bv };
                    if start > end {
                        return None; // integer gap (dense-domain caveat handled)
                    }
                    (start..=end.min(start + 8)).map(Value::Int).collect()
                }
                (Value::Float(a), Value::Float(bv)) => vec![Value::Float((a + bv) / 2.0)],
                (Value::Int(a), Value::Float(bv)) => vec![Value::Float((*a as f64 + bv) / 2.0)],
                (Value::Float(a), Value::Int(bv)) => vec![Value::Float((a + *bv as f64) / 2.0)],
                (Value::Str(a), Value::Str(_)) if !*lo_strict => vec![Value::Str(a.clone())],
                (Value::Ts(a), Value::Ts(bv)) => {
                    let start = if *lo_strict { a.0 + 1 } else { a.0 };
                    let end = if *hi_strict { bv.0 - 1 } else { bv.0 };
                    if start > end {
                        return None;
                    }
                    vec![Value::Ts(Timestamp(start))]
                }
                _ => return None, // mixed / string-range: out of scope
            }
        }
    };
    candidates
        .into_iter()
        .find(|c| !b.neq.iter().any(|n| n.sql_cmp(c) == Some(std::cmp::Ordering::Equal)))
}

/// Decides weak-syntactic batch suspiciousness statically, returning a
/// verified witness instance when suspicious. `db` supplies only the
/// *catalog* (schemas); no data is read.
pub fn static_weak_syntactic(
    db: &Database,
    batch: &[Arc<LoggedQuery>],
    audit: &audex_sql::ast::AuditExpr,
) -> Result<StaticVerdict, AuditError> {
    static_weak_syntactic_governed(db, batch, audit, &Governor::unlimited())
}

/// [`static_weak_syntactic`] under a [`Governor`]: one step per batch query.
pub fn static_weak_syntactic_governed(
    db: &Database,
    batch: &[Arc<LoggedQuery>],
    audit: &audex_sql::ast::AuditExpr,
    governor: &Governor,
) -> Result<StaticVerdict, AuditError> {
    let audit_scope = AuditScope::resolve(db, &audit.from)?;
    let weak = weak_syntactic(audit.clone())?;
    let spec = normalize_with(&weak.audit, &audit_scope)?;
    let relevant: BTreeSet<BaseColumn> =
        spec.all_columns().iter().filter_map(|c| audit_scope.base_of_column(c)).collect();
    let audit_bases: BTreeSet<Ident> = audit_scope.bases().into_iter().collect();

    let audit_constraints = match &audit.selection {
        Some(p) => match extract_strict(p, &audit_scope) {
            Some(cs) => cs,
            None => return Ok(StaticVerdict::Unknown), // audit outside fragment
        },
        None => Vec::new(),
    };

    let mut saw_unknown = false;
    for q in batch {
        governor.tick(AuditPhase::StaticAnalysis)?;
        let Ok(q_scope) = AuditScope::resolve(db, &q.query().from) else {
            continue; // unknown tables: can never be suspicious
        };
        // Must share a table and access a relevant column — purely schematic.
        if !q_scope.entries().iter().any(|e| audit_bases.contains(&e.base)) {
            continue;
        }
        if accessed_base_columns(q, &q_scope).is_disjoint(&relevant) {
            continue;
        }
        let q_constraints = match &q.query().selection {
            Some(p) => match extract_strict(p, &q_scope) {
                Some(cs) => cs,
                None => {
                    saw_unknown = true;
                    continue;
                }
            },
            None => Vec::new(),
        };
        let mut all = audit_constraints
            .iter()
            .map(|c| match c {
                FragmentConstraint::ColEq(a, b) => FragmentConstraint::ColEq(a.clone(), b.clone()),
                FragmentConstraint::Cmp(c, op, v) => {
                    FragmentConstraint::Cmp(c.clone(), *op, v.clone())
                }
            })
            .collect::<Vec<_>>();
        all.extend(q_constraints);

        let Some(solution) = solve(&all) else { continue };

        // Build and *verify* the witness.
        if let Some(witness) = build_witness(db, &q_scope, &audit_scope, &solution) {
            if verify_witness(&witness, q, audit)? {
                return Ok(StaticVerdict::Suspicious { query: q.id, witness: Box::new(witness) });
            }
            // Verification failure means our solver over-promised (e.g.
            // type coercion subtleties); degrade honestly.
            saw_unknown = true;
        } else {
            saw_unknown = true;
        }
    }
    Ok(if saw_unknown { StaticVerdict::Unknown } else { StaticVerdict::NotSuspicious })
}

/// One row per base table mentioned by the query or the audit, with solved
/// values where constrained and type defaults elsewhere.
fn build_witness(
    db: &Database,
    q_scope: &AuditScope,
    audit_scope: &AuditScope,
    solution: &BTreeMap<BaseColumn, Value>,
) -> Option<Database> {
    let mut witness = Database::new();
    let mut bases: BTreeSet<Ident> = BTreeSet::new();
    for e in q_scope.entries().iter().chain(audit_scope.entries()) {
        bases.insert(e.base.clone());
    }
    // Create every table first: the database clock is monotonic, so all
    // creations happen at t=0 and all row insertions at t=1.
    for base in &bases {
        let schema = db.table(base)?.schema().clone();
        witness.create_table(base.clone(), schema, Timestamp(0)).ok()?;
    }
    for base in &bases {
        let schema: Schema = db.table(base)?.schema().clone();
        let row: Vec<Value> = schema
            .iter()
            .map(|(name, ty)| {
                solution.get(&(base.clone(), name.clone())).cloned().unwrap_or(match ty {
                    TypeName::Int => Value::Int(0),
                    TypeName::Float => Value::Float(0.0),
                    TypeName::Text => Value::Str("w".into()),
                    TypeName::Bool => Value::Bool(false),
                    TypeName::Timestamp => Value::Ts(Timestamp(0)),
                })
            })
            .collect();
        witness.insert(base, row, Timestamp(1)).ok()?;
    }
    Some(witness)
}

/// Runs the weak-syntactic notion dynamically on the witness.
fn verify_witness(
    witness: &Database,
    q: &LoggedQuery,
    audit: &audex_sql::ast::AuditExpr,
) -> Result<bool, AuditError> {
    let audit_scope = AuditScope::resolve(witness, &audit.from)?;
    let weak = weak_syntactic(audit.clone())?;
    let spec = normalize_with(&weak.audit, &audit_scope)?;
    let view = crate::target::compute_target_view(
        witness,
        audit,
        &audit_scope,
        &spec,
        &[Timestamp(1)],
        JoinStrategy::Auto,
    )?;
    let model =
        GranuleModel { spec, threshold: audex_sql::ast::Threshold::Count(1), indispensable: true };
    // Re-time the query to the witness instant.
    let mut q2 = (**{ &q }).clone();
    q2.executed_at = Timestamp(1);
    let evaluator = BatchEvaluator::new(witness, &audit_scope, &model, &view, JoinStrategy::Auto);
    let verdict = evaluator.evaluate(&[Arc::new(q2)])?;
    Ok(verdict.suspicious)
}

/// The sound static bound for *semantic* (data-dependent) notions: returns
/// [`StaticVerdict::NotSuspicious`] when no query passes candidacy (paper
/// Definition 1) — meaning no instance of the *current catalog and data*
/// could make the batch suspicious via the static tests — and
/// [`StaticVerdict::Unknown`] otherwise (the data decides; run the engine).
pub fn static_semantic_bound(
    db: &Database,
    batch: &[Arc<LoggedQuery>],
    audit: &audex_sql::ast::AuditExpr,
) -> Result<StaticVerdict, AuditError> {
    static_semantic_bound_governed(db, batch, audit, &Governor::unlimited())
}

/// [`static_semantic_bound`] under a [`Governor`]: one step per batch query.
pub fn static_semantic_bound_governed(
    db: &Database,
    batch: &[Arc<LoggedQuery>],
    audit: &audex_sql::ast::AuditExpr,
    governor: &Governor,
) -> Result<StaticVerdict, AuditError> {
    let audit_scope = AuditScope::resolve(db, &audit.from)?;
    // The audit list must still resolve against the schema.
    normalize_with(&audit.audit, &audit_scope)?;
    let checker = CandidateChecker::new(&audit_scope, audit.selection.as_ref());
    for q in batch {
        governor.tick(AuditPhase::StaticAnalysis)?;
        if let Ok(q_scope) = AuditScope::resolve(db, &q.query().from) {
            if checker.is_candidate(q, &q_scope) {
                return Ok(StaticVerdict::Unknown);
            }
        }
    }
    Ok(StaticVerdict::NotSuspicious)
}

#[cfg(test)]
mod tests {
    use super::*;
    use audex_log::AccessContext;
    use audex_sql::parse_audit;
    use audex_sql::parse_query;

    fn catalog() -> Database {
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
        db
    }

    fn q(id: u64, sql: &str) -> Arc<LoggedQuery> {
        Arc::new(LoggedQuery::new(
            QueryId(id),
            parse_query(sql).unwrap(),
            sql.into(),
            Timestamp(5),
            AccessContext::new("u", "r", "p"),
        ))
    }

    #[test]
    fn consistent_predicates_yield_witness() {
        let db = catalog();
        let audit = parse_audit("AUDIT disease FROM Patients WHERE zipcode = '120016'").unwrap();
        let batch = vec![q(1, "SELECT disease FROM Patients WHERE age > 30")];
        let v = static_weak_syntactic(&db, &batch, &audit).unwrap();
        match v {
            StaticVerdict::Suspicious { query, witness } => {
                assert_eq!(query, QueryId(1));
                // The witness really contains a >30-year-old in 120016.
                let rs = witness
                    .at(Timestamp(1))
                    .query(
                        &parse_query(
                            "SELECT age FROM Patients WHERE zipcode = '120016' AND age > 30",
                        )
                        .unwrap(),
                    )
                    .unwrap();
                assert_eq!(rs.rows.len(), 1);
            }
            other => panic!("expected Suspicious, got {other:?}"),
        }
    }

    #[test]
    fn contradictory_predicates_are_not_suspicious() {
        let db = catalog();
        let audit = parse_audit("AUDIT disease FROM Patients WHERE age < 30").unwrap();
        let batch = vec![q(1, "SELECT disease FROM Patients WHERE age > 40")];
        assert_eq!(
            static_weak_syntactic(&db, &batch, &audit).unwrap(),
            StaticVerdict::NotSuspicious
        );
    }

    #[test]
    fn integer_gap_is_detected() {
        // age > 29 AND age < 30 has no integer solution; over a dense domain
        // it would, but the INT column pins the domain — the picker returns
        // no witness and the verdict honestly degrades to NotSuspicious
        // because no other query exists.
        let db = catalog();
        let audit = parse_audit("AUDIT disease FROM Patients WHERE age > 29").unwrap();
        let batch = vec![q(1, "SELECT disease FROM Patients WHERE age < 30")];
        let v = static_weak_syntactic(&db, &batch, &audit).unwrap();
        assert_eq!(v, StaticVerdict::NotSuspicious);
    }

    #[test]
    fn column_disjoint_queries_are_not_suspicious() {
        let db = catalog();
        let audit = parse_audit("AUDIT disease FROM Patients").unwrap();
        // Accesses only pid — not in the weak-syntactic scheme set (disease
        // is the single audit column; no WHERE).
        let batch = vec![q(1, "SELECT pid FROM Patients")];
        assert_eq!(
            static_weak_syntactic(&db, &batch, &audit).unwrap(),
            StaticVerdict::NotSuspicious
        );
    }

    #[test]
    fn out_of_fragment_degrades_to_unknown() {
        let db = catalog();
        let audit = parse_audit("AUDIT disease FROM Patients WHERE age < 30").unwrap();
        let batch = vec![q(1, "SELECT disease FROM Patients WHERE age > 40 OR zipcode = '1'")];
        assert_eq!(static_weak_syntactic(&db, &batch, &audit).unwrap(), StaticVerdict::Unknown);
    }

    #[test]
    fn suspicious_beats_unknown_in_a_batch() {
        let db = catalog();
        let audit = parse_audit("AUDIT disease FROM Patients WHERE zipcode = '120016'").unwrap();
        let batch = vec![
            q(1, "SELECT disease FROM Patients WHERE age > 40 OR zipcode = '1'"), // unknown
            q(2, "SELECT disease FROM Patients WHERE age = 50"),                  // witnessable
        ];
        let v = static_weak_syntactic(&db, &batch, &audit).unwrap();
        match v {
            StaticVerdict::Suspicious { query, .. } => assert_eq!(query, QueryId(2)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn equality_chains_solve() {
        let mut db = catalog();
        db.create_table(
            Ident::new("Visits"),
            Schema::of(&[("pid", TypeName::Text), ("ward", TypeName::Text)]),
            Timestamp(0),
        )
        .unwrap();
        let audit = parse_audit(
            "AUDIT disease FROM Patients, Visits \
             WHERE Patients.pid = Visits.pid AND ward = 'W14'",
        )
        .unwrap();
        let batch = vec![q(1, "SELECT disease FROM Patients WHERE Patients.pid = 'p9'")];
        let v = static_weak_syntactic(&db, &batch, &audit).unwrap();
        match v {
            StaticVerdict::Suspicious { witness, .. } => {
                // The witness joins: same pid in both tables, ward W14.
                let rs = witness
                    .at(Timestamp(1))
                    .query(
                        &parse_query(
                            "SELECT ward FROM Patients, Visits \
                             WHERE Patients.pid = Visits.pid AND ward = 'W14' AND Patients.pid = 'p9'",
                        )
                        .unwrap(),
                    )
                    .unwrap();
                assert_eq!(rs.rows.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn semantic_bound_is_sound() {
        let db = catalog();
        let audit = parse_audit("AUDIT disease FROM Patients WHERE zipcode = '120016'").unwrap();
        // Candidate exists → unknown (data decides).
        let batch = vec![q(1, "SELECT disease FROM Patients")];
        assert_eq!(static_semantic_bound(&db, &batch, &audit).unwrap(), StaticVerdict::Unknown);
        // No candidate (contradiction) → provably not suspicious.
        let batch = vec![q(1, "SELECT disease FROM Patients WHERE zipcode = '999'")];
        assert_eq!(
            static_semantic_bound(&db, &batch, &audit).unwrap(),
            StaticVerdict::NotSuspicious
        );
    }

    #[test]
    fn not_eq_constraints_avoided_in_witness() {
        let db = catalog();
        let audit = parse_audit("AUDIT disease FROM Patients WHERE age >= 10").unwrap();
        let batch = vec![q(1, "SELECT disease FROM Patients WHERE age <> 10 AND age <= 12")];
        let v = static_weak_syntactic(&db, &batch, &audit).unwrap();
        match v {
            StaticVerdict::Suspicious { witness, .. } => {
                let rs = witness
                    .at(Timestamp(1))
                    .query(&parse_query("SELECT age FROM Patients").unwrap())
                    .unwrap();
                let age = &rs.rows[0][0];
                assert_ne!(age, &Value::Int(10));
            }
            other => panic!("{other:?}"),
        }
    }
}
