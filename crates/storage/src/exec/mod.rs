//! SPJ query execution with tuple-level lineage.
//!
//! The executor evaluates `Q = π_C(σ_P(T₁ × … × Tₙ))` over a
//! [`RelationProvider`] and — crucially for auditing — reports, for every
//! satisfying combination of base tuples, which `(table, tid)` pairs
//! produced it. The paper's *indispensable tuple* test (Definition 2:
//! `σ_{P_Q}(t × R) ≠ ∅`) reads directly off this lineage: a base tuple is
//! indispensable to `Q` iff it appears in the lineage of at least one
//! satisfying combination.
//!
//! Planning is deliberately simple: top-level conjuncts are classified into
//! per-table filters (pushed below the join), equi-join edges (hash join
//! when types allow), and residual predicates (evaluated as soon as their
//! bindings are all joined). The [`JoinStrategy`] knob exists for the B6
//! ablation benchmark.

mod plan;

pub use plan::{classify_conjuncts, split_conjuncts, ConjunctClass, PlannedConjunct};

use audex_sql::ast::{Query, SelectItem, TypeName};
use audex_sql::Ident;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use crate::error::StorageError;
use crate::eval::{compile, CompiledExpr, Scope, SlotView};
use crate::table::{Relation, Row, Tid};
use crate::value::Value;

/// Supplies named relations (base tables at some instant, or backlog
/// relations `b-T`). Relations are handed out as `Arc`s so providers can
/// serve many readers from one snapshot without copying rows.
pub trait RelationProvider {
    /// Resolves `name` to a relation; errors for unknown names.
    fn relation(&self, name: &Ident) -> Result<Arc<Relation>, StorageError>;
}

/// Join algorithm selection — [`JoinStrategy::Auto`] uses hash joins where
/// legal and falls back to nested loops; the others force one algorithm
/// (for the join ablation bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// Hash join when applicable, nested loop otherwise.
    #[default]
    Auto,
    /// Always nested-loop (filtered cross product).
    NestedLoop,
}

/// One `(binding, base relation, tid)` unit of provenance.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LineageEntry {
    /// The binding name in the query's scope (alias if aliased).
    pub binding: Ident,
    /// The resolved relation name (`P-Personal`, `b-P-Personal`, …).
    pub table: Ident,
    /// The base tuple id.
    pub tid: Tid,
}

/// Lineage of one satisfying combination: one entry per `FROM` binding, in
/// `FROM` order.
pub type LineageRow = Vec<LineageEntry>;

/// The result of executing a query.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Projected rows (deduplicated when the query is `DISTINCT`).
    pub rows: Vec<Row>,
    /// One lineage row per *satisfying combination* (pre-projection,
    /// pre-DISTINCT), so `lineage.len() >= rows.len()` for DISTINCT queries.
    pub lineage: Vec<LineageRow>,
}

impl ResultSet {
    /// True when no combination satisfied the predicate.
    pub fn is_empty(&self) -> bool {
        self.lineage.is_empty()
    }

    /// Iterates all `(table, tid)` pairs appearing anywhere in the lineage.
    pub fn touched_tuples(&self) -> impl Iterator<Item = (&Ident, Tid)> {
        self.lineage.iter().flatten().map(|e| (&e.table, e.tid))
    }
}

/// Executes `query` over `provider` with the given join strategy.
pub fn execute_query(
    provider: &dyn RelationProvider,
    query: &Query,
    strategy: JoinStrategy,
) -> Result<ResultSet, StorageError> {
    let exec = PreparedQuery::prepare(provider, query)?;
    exec.run(strategy)
}

/// A query compiled against concrete relations, reusable across runs.
pub struct PreparedQuery {
    scope: Scope,
    relations: Vec<Arc<Relation>>,
    conjuncts: Vec<PlannedConjunct>,
    projection: Projection,
    distinct: bool,
    order_by: Vec<(CompiledExpr, bool)>,
    limit: Option<u64>,
}

enum ProjItem {
    AllOf(usize),
    All,
    Expr { compiled: CompiledExpr, name: String },
}

struct Projection {
    items: Vec<ProjItem>,
}

impl PreparedQuery {
    /// Resolves relations, compiles predicates, and plans conjuncts.
    pub fn prepare(provider: &dyn RelationProvider, query: &Query) -> Result<Self, StorageError> {
        let mut relations = Vec::with_capacity(query.from.len());
        let mut scope_entries = Vec::with_capacity(query.from.len());
        for tref in &query.from {
            let rel = provider.relation(&tref.name)?;
            scope_entries.push((tref.binding().clone(), rel.schema.clone()));
            relations.push(rel);
        }
        let scope = Scope::new(scope_entries)?;

        let conjuncts = match &query.selection {
            Some(pred) => classify_conjuncts(pred, &scope)?,
            None => Vec::new(),
        };

        let mut items = Vec::new();
        for item in &query.projection {
            match item {
                SelectItem::Wildcard => items.push(ProjItem::All),
                SelectItem::QualifiedWildcard(t) => {
                    let bi = scope
                        .binding_index(t)
                        .ok_or_else(|| StorageError::UnknownTable(t.clone()))?;
                    items.push(ProjItem::AllOf(bi));
                }
                SelectItem::Expr { expr, alias } => {
                    let name =
                        alias.as_ref().map(|a| a.value.clone()).unwrap_or_else(|| expr.to_string());
                    items.push(ProjItem::Expr { compiled: compile(expr, &scope)?, name });
                }
            }
        }

        let order_by = query
            .order_by
            .iter()
            .map(|o| Ok((compile(&o.expr, &scope)?, o.asc)))
            .collect::<Result<Vec<_>, StorageError>>()?;

        Ok(PreparedQuery {
            scope,
            relations,
            conjuncts,
            projection: Projection { items },
            distinct: query.distinct,
            order_by,
            limit: query.limit,
        })
    }

    /// Output column names in order.
    fn column_names(&self) -> Vec<String> {
        let mut out = Vec::new();
        for item in &self.projection.items {
            match item {
                ProjItem::All => {
                    for (_, schema) in self.scope.bindings() {
                        out.extend(schema.iter().map(|(name, _)| name.value.clone()));
                    }
                }
                ProjItem::AllOf(bi) => {
                    out.extend(self.scope.bindings()[*bi].1.iter().map(|(n, _)| n.value.clone()));
                }
                ProjItem::Expr { name, .. } => out.push(name.clone()),
            }
        }
        out
    }

    /// Runs the prepared query.
    ///
    /// The working set holds row *indices* into the provider's relations;
    /// predicates read base rows in place through [`Combo`], and values are
    /// copied only for the combinations that reach the result.
    pub fn run(&self, strategy: JoinStrategy) -> Result<ResultSet, StorageError> {
        let mut acc = Combos { arity: 0, len: 1, idx: Vec::new() };
        let mut applied = vec![false; self.conjuncts.len()];

        for bi in 0..self.relations.len() {
            // Single-binding filters push below the join.
            let mut filters = Vec::new();
            for (ci, c) in self.conjuncts.iter().enumerate() {
                if !applied[ci] && c.class == ConjunctClass::SingleBinding && c.bindings == [bi] {
                    applied[ci] = true;
                    filters.push(&c.compiled);
                }
            }
            let rows = self.scan(bi, &filters)?;

            // Hash-joinable edges between binding bi and the bound prefix.
            let edges = match strategy {
                JoinStrategy::Auto if acc.len > 0 => self.hash_edges(bi, &applied),
                _ => Vec::new(),
            };
            acc = if edges.is_empty() {
                let mut out = Combos::with_capacity(acc.arity + 1, acc.len * rows.len());
                for prefix in acc.iter() {
                    for r in &rows {
                        out.push(prefix, *r);
                    }
                }
                out
            } else {
                for (ci, _, _) in &edges {
                    applied[*ci] = true;
                }
                self.hash_join(&acc, &rows, bi, &edges)
            };

            // Residuals whose bindings are now all available.
            for (ci, c) in self.conjuncts.iter().enumerate() {
                if applied[ci] || !c.bindings.iter().all(|b| *b <= bi) {
                    continue;
                }
                applied[ci] = true;
                acc.retain(|idx| Ok(c.compiled.truth(&self.combo(0, idx))?.is_true()))?;
            }
        }

        // Zero-conjunct queries with zero tables are impossible (FROM is
        // mandatory), so every conjunct has been applied by now.
        debug_assert!(applied.iter().all(|a| *a));

        // Materialise the survivors: sort keys, projection and lineage, in
        // combination order. Then apply DISTINCT → ORDER BY → LIMIT in SQL
        // order. Lineage is NOT truncated by LIMIT: indispensability
        // (Definition 2) is about the predicate's satisfying combinations,
        // which a row-count cutoff on the *output* does not un-access; this
        // errs on the conservative side for auditing. Value-mode exposure
        // uses `rows`, which IS truncated.
        let mut projected: Vec<(Row, Vec<Value>)> = Vec::with_capacity(acc.len);
        let mut lineage = Vec::with_capacity(acc.len);
        for idx in acc.iter() {
            let combo = self.combo(0, idx);
            let keys = self
                .order_by
                .iter()
                .map(|(e, _)| e.eval(&combo).map(Cow::into_owned))
                .collect::<Result<Vec<_>, _>>()?;
            projected.push((self.project(&combo)?, keys));
            lineage.push(
                idx.iter()
                    .enumerate()
                    .map(|(b, r)| LineageEntry {
                        binding: self.scope.bindings()[b].0.clone(),
                        table: self.relations[b].name.clone(),
                        tid: self.relations[b].rows[*r].0,
                    })
                    .collect(),
            );
        }

        if self.distinct {
            let mut seen: Vec<Row> = Vec::new();
            projected.retain(|(r, _)| {
                if seen.iter().any(|s| rows_grouping_eq(s, r)) {
                    false
                } else {
                    seen.push(r.clone());
                    true
                }
            });
        }

        if !self.order_by.is_empty() {
            projected.sort_by(|(_, ka), (_, kb)| {
                for ((a, b), (_, asc)) in ka.iter().zip(kb).zip(&self.order_by) {
                    let ord = a.total_cmp(b);
                    let ord = if *asc { ord } else { ord.reverse() };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }

        let mut rows: Vec<Row> = projected.into_iter().map(|(r, _)| r).collect();
        if let Some(n) = self.limit {
            rows.truncate(n as usize);
        }

        Ok(ResultSet { columns: self.column_names(), rows, lineage })
    }

    /// Bindings `first..first + idx.len()` bound to the indexed rows.
    fn combo<'a>(&'a self, first: usize, idx: &'a [usize]) -> Combo<'a> {
        Combo { query: self, first, idx }
    }

    /// Row indices of relation `bi` passing every filter, each row tested in
    /// place, in row order, filters in order.
    fn scan(&self, bi: usize, filters: &[&CompiledExpr]) -> Result<Vec<usize>, StorageError> {
        let n = self.relations[bi].rows.len();
        if filters.is_empty() {
            return Ok((0..n).collect());
        }
        let mut kept = Vec::new();
        'rows: for r in 0..n {
            let row = self.combo(bi, std::slice::from_ref(&r));
            for f in filters {
                if !f.truth(&row)?.is_true() {
                    continue 'rows;
                }
            }
            kept.push(r);
        }
        Ok(kept)
    }

    /// Equi-join edges `(conjunct idx, probe slot in prefix, build slot in
    /// bi)` that are hash-join-safe (plain columns, equal non-float types).
    fn hash_edges(&self, bi: usize, applied: &[bool]) -> Vec<(usize, usize, usize)> {
        let slot_type = |slot: usize| {
            let (b, c) = self.scope.locate(slot);
            self.scope.bindings()[b].1.type_at(c)
        };
        let mut edges = Vec::new();
        for (ci, c) in self.conjuncts.iter().enumerate() {
            if applied[ci] || c.class != ConjunctClass::EquiJoin {
                continue;
            }
            let Some((sa, sb)) = c.equi_slots else { continue };
            let (ba, bb) = (self.scope.binding_of(sa), self.scope.binding_of(sb));
            let (probe, build) = if bb == bi && ba < bi {
                (sa, sb)
            } else if ba == bi && bb < bi {
                (sb, sa)
            } else {
                continue;
            };
            if slot_type(probe) == slot_type(build) && slot_type(probe) != TypeName::Float {
                edges.push((ci, probe, build));
            }
        }
        edges
    }

    /// Joins the prefix combinations with `rows` of relation `bi` on
    /// `edges`. The hash table is built over the smaller side and the other
    /// streamed; either way the output is prefix-major, rows in relation
    /// order — what a nested loop would emit.
    fn hash_join(
        &self,
        acc: &Combos,
        rows: &[usize],
        bi: usize,
        edges: &[(usize, usize, usize)],
    ) -> Combos {
        let rel = &self.relations[bi].rows;
        let offset = self.scope.offset(bi);
        let prefix_key = |p: usize| {
            let combo = self.combo(0, acc.get(p));
            edges.iter().map(move |(_, probe, _)| combo.get(*probe))
        };
        let row_key = |r: usize| edges.iter().map(move |(_, _, build)| &rel[r].1[build - offset]);

        let pairs = if acc.len < rows.len() {
            let mut pairs = hash_matches(0..acc.len, prefix_key, rows.iter().copied(), row_key);
            for pair in &mut pairs {
                *pair = (pair.1, pair.0);
            }
            pairs.sort_unstable();
            pairs
        } else {
            hash_matches(rows.iter().copied(), row_key, 0..acc.len, prefix_key)
        };
        let mut out = Combos::with_capacity(acc.arity + 1, pairs.len());
        for (p, r) in pairs {
            out.push(acc.get(p), r);
        }
        out
    }

    fn project(&self, combo: &Combo<'_>) -> Result<Row, StorageError> {
        let base_row = |b: usize| &self.relations[b].rows[combo.idx[b]].1[..];
        let mut out = Vec::new();
        for item in &self.projection.items {
            match item {
                ProjItem::All => {
                    for b in 0..combo.idx.len() {
                        out.extend_from_slice(base_row(b));
                    }
                }
                ProjItem::AllOf(bi) => out.extend_from_slice(base_row(*bi)),
                ProjItem::Expr { compiled, .. } => out.push(compiled.eval(combo)?.into_owned()),
            }
        }
        Ok(out)
    }
}

/// The join working set: `len` combinations of `arity` row indices each —
/// one per joined binding, in `FROM` order — stored flat.
struct Combos {
    arity: usize,
    len: usize,
    idx: Vec<usize>,
}

impl Combos {
    fn with_capacity(arity: usize, combos: usize) -> Self {
        Combos { arity, len: 0, idx: Vec::with_capacity(arity * combos) }
    }

    fn get(&self, p: usize) -> &[usize] {
        &self.idx[p * self.arity..(p + 1) * self.arity]
    }

    fn iter(&self) -> impl Iterator<Item = &[usize]> {
        (0..self.len).map(|p| self.get(p))
    }

    /// Appends `prefix` extended by row `r`.
    fn push(&mut self, prefix: &[usize], r: usize) {
        self.idx.extend_from_slice(prefix);
        self.idx.push(r);
        self.len += 1;
    }

    /// Keeps the combinations `keep` accepts, testing each in order.
    fn retain(
        &mut self,
        mut keep: impl FnMut(&[usize]) -> Result<bool, StorageError>,
    ) -> Result<(), StorageError> {
        let mut kept = 0;
        for p in 0..self.len {
            if keep(self.get(p))? {
                self.idx.copy_within(p * self.arity..(p + 1) * self.arity, kept * self.arity);
                kept += 1;
            }
        }
        self.len = kept;
        self.idx.truncate(kept * self.arity);
        Ok(())
    }
}

static NULL: Value = Value::Null;

/// One combination seen as a flat row: bindings `first..first + idx.len()`
/// are bound to the indexed rows of their relations, every other binding's
/// slots read NULL.
struct Combo<'a> {
    query: &'a PreparedQuery,
    first: usize,
    idx: &'a [usize],
}

impl<'a> Combo<'a> {
    fn get(&self, slot: usize) -> &'a Value {
        let (b, c) = self.query.scope.locate(slot);
        match b.checked_sub(self.first).and_then(|k| self.idx.get(k)) {
            Some(r) => &self.query.relations[b].rows[*r].1[c],
            None => &NULL,
        }
    }
}

impl SlotView for Combo<'_> {
    fn slot(&self, slot: usize) -> &Value {
        self.get(slot)
    }
}

/// Equi-matches two keyed sequences: hash-builds over `build`, streams
/// `probe`, and returns `(probe item, build item)` per match, probe-major
/// with build items in build order. A key with a NULL never matches.
fn hash_matches<'v, B, P>(
    build: impl Iterator<Item = usize>,
    build_key: impl Fn(usize) -> B,
    probe: impl Iterator<Item = usize>,
    probe_key: impl Fn(usize) -> P,
) -> Vec<(usize, usize)>
where
    B: Iterator<Item = &'v Value>,
    P: Iterator<Item = &'v Value>,
{
    let mut table: HashMap<Vec<&Value>, Vec<usize>> = HashMap::new();
    let mut key: Vec<&Value> = Vec::new();
    for b in build {
        key.clear();
        key.extend(build_key(b));
        if key.iter().any(|v| v.is_null()) {
            continue;
        }
        match table.get_mut(key.as_slice()) {
            Some(items) => items.push(b),
            None => {
                table.insert(key.clone(), vec![b]);
            }
        }
    }
    let mut out = Vec::new();
    for p in probe {
        key.clear();
        key.extend(probe_key(p));
        if let Some(items) = table.get(key.as_slice()) {
            out.extend(items.iter().map(|b| (p, *b)));
        }
    }
    out
}

fn rows_grouping_eq(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.grouping_eq(y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use audex_sql::ast::TypeName;
    use audex_sql::parse_query;
    use std::collections::BTreeMap;

    struct Fixed(BTreeMap<Ident, Arc<Relation>>);

    impl RelationProvider for Fixed {
        fn relation(&self, name: &Ident) -> Result<Arc<Relation>, StorageError> {
            self.0.get(name).cloned().ok_or_else(|| StorageError::UnknownTable(name.clone()))
        }
    }

    fn fixture() -> Fixed {
        let personal = Relation {
            name: Ident::new("P-Personal"),
            schema: Schema::of(&[
                ("pid", TypeName::Text),
                ("name", TypeName::Text),
                ("age", TypeName::Int),
                ("zipcode", TypeName::Text),
            ]),
            rows: vec![
                (Tid(11), vec!["p1".into(), "Jane".into(), Value::Int(25), "177893".into()].into()),
                (Tid(12), vec!["p2".into(), "Reku".into(), Value::Int(35), "145568".into()].into()),
                (
                    Tid(13),
                    vec!["p13".into(), "Robert".into(), Value::Int(29), "188888".into()].into(),
                ),
                (
                    Tid(14),
                    vec!["p28".into(), "Lucy".into(), Value::Int(20), "145568".into()].into(),
                ),
            ],
        };
        let health = Relation {
            name: Ident::new("P-Health"),
            schema: Schema::of(&[("pid", TypeName::Text), ("disease", TypeName::Text)]),
            rows: vec![
                (Tid(21), vec!["p1".into(), "flu".into()].into()),
                (Tid(22), vec!["p2".into(), "diabetic".into()].into()),
                (Tid(23), vec!["p13".into(), "malaria".into()].into()),
                (Tid(24), vec!["p28".into(), "diabetic".into()].into()),
            ],
        };
        let mut m = BTreeMap::new();
        m.insert(Ident::new("P-Personal"), Arc::new(personal));
        m.insert(Ident::new("P-Health"), Arc::new(health));
        Fixed(m)
    }

    fn run(sql: &str) -> ResultSet {
        run_with(sql, JoinStrategy::Auto)
    }

    fn run_with(sql: &str, strategy: JoinStrategy) -> ResultSet {
        execute_query(&fixture(), &parse_query(sql).unwrap(), strategy).unwrap()
    }

    #[test]
    fn single_table_filter() {
        let rs = run("SELECT name FROM P-Personal WHERE age < 30");
        assert_eq!(rs.rows.len(), 3);
        assert_eq!(rs.columns, vec!["name"]);
        let tids: Vec<Tid> = rs.lineage.iter().map(|l| l[0].tid).collect();
        assert_eq!(tids, vec![Tid(11), Tid(13), Tid(14)]);
    }

    #[test]
    fn join_with_lineage() {
        let rs = run("SELECT name, disease FROM P-Personal, P-Health \
             WHERE P-Personal.pid = P-Health.pid AND disease = 'diabetic'");
        assert_eq!(rs.rows.len(), 2);
        for lin in &rs.lineage {
            assert_eq!(lin.len(), 2);
            assert_eq!(lin[0].table, Ident::new("P-Personal"));
            assert_eq!(lin[1].table, Ident::new("P-Health"));
        }
        let pairs: Vec<(Tid, Tid)> = rs.lineage.iter().map(|l| (l[0].tid, l[1].tid)).collect();
        assert!(pairs.contains(&(Tid(12), Tid(22))));
        assert!(pairs.contains(&(Tid(14), Tid(24))));
    }

    #[test]
    fn hash_and_nested_agree() {
        let sql = "SELECT name, disease FROM P-Personal, P-Health \
                   WHERE P-Personal.pid = P-Health.pid AND age < 30";
        let a = run_with(sql, JoinStrategy::Auto);
        let b = run_with(sql, JoinStrategy::NestedLoop);
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.lineage, b.lineage);
    }

    #[test]
    fn cross_product_without_predicate() {
        let rs = run("SELECT * FROM P-Personal, P-Health");
        assert_eq!(rs.rows.len(), 16);
        assert_eq!(rs.columns.len(), 6);
    }

    #[test]
    fn wildcard_and_qualified_wildcard() {
        let rs =
            run("SELECT P-Health.* FROM P-Personal, P-Health WHERE P-Personal.pid = P-Health.pid");
        assert_eq!(rs.columns, vec!["pid", "disease"]);
        assert_eq!(rs.rows.len(), 4);
    }

    #[test]
    fn distinct_dedupes_rows_but_keeps_lineage() {
        let rs = run("SELECT DISTINCT disease FROM P-Health");
        assert_eq!(rs.rows.len(), 3); // flu, diabetic, malaria
        assert_eq!(rs.lineage.len(), 4); // all four satisfying tuples
    }

    #[test]
    fn aliases_in_scope() {
        let rs = run("SELECT p.name FROM P-Personal AS p WHERE p.age > 30");
        assert_eq!(rs.rows, vec![vec![Value::Str("Reku".into())]]);
        assert_eq!(rs.lineage[0][0].binding, Ident::new("p"));
        assert_eq!(rs.lineage[0][0].table, Ident::new("P-Personal"));
    }

    #[test]
    fn self_join_with_aliases() {
        let rs = run("SELECT a.name, b.name FROM P-Personal a, P-Personal b \
             WHERE a.zipcode = b.zipcode AND a.age < b.age");
        // Lucy (20) and Reku (35) share 145568.
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Str("Lucy".into()));
    }

    #[test]
    fn projection_expression_and_alias() {
        let rs = run("SELECT age + 1 AS next FROM P-Personal WHERE name = 'Jane'");
        assert_eq!(rs.columns, vec!["next"]);
        assert_eq!(rs.rows, vec![vec![Value::Int(26)]]);
    }

    #[test]
    fn empty_result_has_no_lineage() {
        let rs = run("SELECT name FROM P-Personal WHERE age > 99");
        assert!(rs.is_empty());
        assert!(rs.rows.is_empty());
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let err = execute_query(
            &fixture(),
            &parse_query("SELECT x FROM NoTable").unwrap(),
            JoinStrategy::Auto,
        );
        assert!(matches!(err, Err(StorageError::UnknownTable(_))));
        let err = execute_query(
            &fixture(),
            &parse_query("SELECT nocol FROM P-Personal").unwrap(),
            JoinStrategy::Auto,
        );
        assert!(matches!(err, Err(StorageError::UnknownColumn(_))));
    }

    #[test]
    fn or_predicate_is_not_split() {
        let rs = run("SELECT name FROM P-Personal, P-Health \
             WHERE P-Personal.pid = P-Health.pid AND (age < 21 OR disease = 'malaria')");
        assert_eq!(rs.rows.len(), 2); // Lucy by age, Robert by disease
    }

    #[test]
    fn duplicate_binding_rejected() {
        let err = execute_query(
            &fixture(),
            &parse_query("SELECT 1 FROM P-Personal, P-Personal").unwrap(),
            JoinStrategy::Auto,
        );
        assert!(matches!(err, Err(StorageError::DuplicateBinding(_))));
    }

    #[test]
    fn touched_tuples_iterates_lineage() {
        let rs = run("SELECT name FROM P-Personal WHERE zipcode = '145568'");
        let touched: Vec<(String, Tid)> =
            rs.touched_tuples().map(|(t, tid)| (t.value.clone(), tid)).collect();
        assert_eq!(touched.len(), 2);
        assert!(touched.contains(&("P-Personal".into(), Tid(12))));
        assert!(touched.contains(&("P-Personal".into(), Tid(14))));
    }
}
