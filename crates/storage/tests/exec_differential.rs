//! Differential test of the executor against a reference implementation.
//!
//! The reference below is the materialising algorithm the executor used
//! before it moved to row-index tuples: every candidate row is copied into a
//! flat row, filters run over a scratch copy, the hash join always builds
//! over the incoming relation. It is slow and obviously ordered, which is
//! what makes it an oracle: `columns`, `rows`, `lineage` (order included)
//! and the first error must match it exactly.

use audex_sql::ast::{Query, SelectItem, TypeName};
use audex_sql::{parse_query, Ident};
use audex_storage::eval::{compile, CompiledExpr, Scope};
use audex_storage::exec::{classify_conjuncts, ConjunctClass, PlannedConjunct};
use audex_storage::{
    execute_query, JoinStrategy, LineageEntry, LineageRow, Relation, RelationProvider, ResultSet,
    Row, Schema, StorageError, Tid, Value,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

struct Fixed(BTreeMap<Ident, Arc<Relation>>);

impl RelationProvider for Fixed {
    fn relation(&self, name: &Ident) -> Result<Arc<Relation>, StorageError> {
        self.0.get(name).cloned().ok_or_else(|| StorageError::UnknownTable(name.clone()))
    }
}

// ---------------------------------------------------------------- oracle

fn reference(
    provider: &Fixed,
    query: &Query,
    strategy: JoinStrategy,
) -> Result<ResultSet, StorageError> {
    let mut relations = Vec::new();
    let mut entries = Vec::new();
    for tref in &query.from {
        let rel = provider.relation(&tref.name)?;
        entries.push((tref.binding().clone(), rel.schema.clone()));
        relations.push(rel);
    }
    let scope = Scope::new(entries)?;
    let conjuncts = match &query.selection {
        Some(pred) => classify_conjuncts(pred, &scope)?,
        None => Vec::new(),
    };
    enum Proj {
        All,
        AllOf(usize),
        Expr(CompiledExpr),
    }
    let mut columns = Vec::new();
    let mut items = Vec::new();
    for item in &query.projection {
        match item {
            SelectItem::Wildcard => {
                for (_, schema) in scope.bindings() {
                    columns.extend(schema.iter().map(|(n, _)| n.value.clone()));
                }
                items.push(Proj::All);
            }
            SelectItem::QualifiedWildcard(t) => {
                let bi =
                    scope.binding_index(t).ok_or_else(|| StorageError::UnknownTable(t.clone()))?;
                columns.extend(scope.bindings()[bi].1.iter().map(|(n, _)| n.value.clone()));
                items.push(Proj::AllOf(bi));
            }
            SelectItem::Expr { expr, alias } => {
                columns.push(
                    alias.as_ref().map(|a| a.value.clone()).unwrap_or_else(|| expr.to_string()),
                );
                items.push(Proj::Expr(compile(expr, &scope)?));
            }
        }
    }
    let order_by = query
        .order_by
        .iter()
        .map(|o| Ok((compile(&o.expr, &scope)?, o.asc)))
        .collect::<Result<Vec<_>, StorageError>>()?;

    let slot_type = |slot: usize| {
        let (b, c) = scope.locate(slot);
        scope.bindings()[b].1.type_at(c)
    };
    let width = scope.width();
    let mut acc: Vec<(Row, LineageRow)> = vec![(vec![Value::Null; width], Vec::new())];
    let mut applied = vec![false; conjuncts.len()];
    for (bi, rel) in relations.iter().enumerate() {
        let offset = scope.offset(bi);
        let entry = |tid: Tid| LineageEntry {
            binding: scope.bindings()[bi].0.clone(),
            table: rel.name.clone(),
            tid,
        };

        // Filters over a scratch flat row, all rows, in row order.
        let filters: Vec<&PlannedConjunct> = conjuncts
            .iter()
            .enumerate()
            .filter(|(ci, c)| {
                !applied[*ci] && c.class == ConjunctClass::SingleBinding && c.bindings == [bi]
            })
            .map(|(_, c)| c)
            .collect();
        for (ci, c) in conjuncts.iter().enumerate() {
            if c.class == ConjunctClass::SingleBinding && c.bindings == [bi] {
                applied[ci] = true;
            }
        }
        let mut scratch = vec![Value::Null; width];
        let mut filtered: Vec<(Tid, Row)> = Vec::new();
        'rows: for (tid, row) in &rel.rows {
            scratch[offset..offset + row.len()].clone_from_slice(row);
            for f in &filters {
                if !f.compiled.truth(&scratch)?.is_true() {
                    continue 'rows;
                }
            }
            filtered.push((*tid, row.to_vec()));
        }

        let mut edges = Vec::new();
        if strategy == JoinStrategy::Auto && !acc.is_empty() {
            for (ci, c) in conjuncts.iter().enumerate() {
                let Some((sa, sb)) = c.equi_slots else { continue };
                if applied[ci] {
                    continue;
                }
                let (ba, bb) = (scope.binding_of(sa), scope.binding_of(sb));
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
        }

        let extend = |(prefix, lin): &(Row, LineageRow), tid: Tid, row: &Row| {
            let mut flat = prefix.clone();
            flat[offset..offset + row.len()].clone_from_slice(row);
            let mut lineage = lin.clone();
            lineage.push(entry(tid));
            (flat, lineage)
        };
        let mut out = Vec::new();
        if edges.is_empty() {
            for combo in &acc {
                for (tid, row) in &filtered {
                    out.push(extend(combo, *tid, row));
                }
            }
        } else {
            let mut table: HashMap<Vec<Value>, Vec<&(Tid, Row)>> = HashMap::new();
            for tr in &filtered {
                let key: Vec<Value> = edges.iter().map(|e| tr.1[e.2 - offset].clone()).collect();
                if !key.iter().any(Value::is_null) {
                    table.entry(key).or_default().push(tr);
                }
            }
            for combo in &acc {
                let key: Vec<Value> = edges.iter().map(|e| combo.0[e.1].clone()).collect();
                for (tid, row) in table.get(&key).into_iter().flatten().copied() {
                    out.push(extend(combo, *tid, row));
                }
            }
            for (ci, _, _) in &edges {
                applied[*ci] = true;
            }
        }
        acc = out;

        for (ci, c) in conjuncts.iter().enumerate() {
            if applied[ci] || !c.bindings.iter().all(|b| *b <= bi) {
                continue;
            }
            applied[ci] = true;
            let mut kept = Vec::new();
            for (row, lin) in acc {
                if c.compiled.truth(&row)?.is_true() {
                    kept.push((row, lin));
                }
            }
            acc = kept;
        }
    }

    let mut projected: Vec<(Row, Vec<Value>)> = Vec::new();
    let mut lineage = Vec::new();
    for (flat, lin) in &acc {
        let keys = order_by
            .iter()
            .map(|(e, _)| e.eval(flat).map(|v| v.into_owned()))
            .collect::<Result<Vec<_>, _>>()?;
        let mut row = Vec::new();
        for item in &items {
            match item {
                Proj::All => row.extend_from_slice(flat),
                Proj::AllOf(bi) => {
                    let offset = scope.offset(*bi);
                    row.extend_from_slice(&flat[offset..offset + scope.bindings()[*bi].1.len()]);
                }
                Proj::Expr(e) => row.push(e.eval(flat)?.into_owned()),
            }
        }
        projected.push((row, keys));
        lineage.push(lin.clone());
    }
    if query.distinct {
        let mut seen: Vec<Row> = Vec::new();
        projected.retain(|(r, _)| {
            let dup = seen
                .iter()
                .any(|s| s.len() == r.len() && s.iter().zip(r).all(|(x, y)| x.grouping_eq(y)));
            if !dup {
                seen.push(r.clone());
            }
            !dup
        });
    }
    if !order_by.is_empty() {
        projected.sort_by(|(_, ka), (_, kb)| {
            for ((a, b), (_, asc)) in ka.iter().zip(kb).zip(&order_by) {
                let ord = if *asc { a.total_cmp(b) } else { a.total_cmp(b).reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    let mut rows: Vec<Row> = projected.into_iter().map(|(r, _)| r).collect();
    if let Some(n) = query.limit {
        rows.truncate(n as usize);
    }
    Ok(ResultSet { columns, rows, lineage })
}

// ------------------------------------------------------------- generator

/// SplitMix64: the vendored proptest has no dependent strategies, so a case
/// is grown from one drawn seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
}

const TYPES: [TypeName; 3] = [TypeName::Int, TypeName::Text, TypeName::Float];
const CMP: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];

fn random_value(rng: &mut Rng, ty: TypeName) -> Value {
    if rng.chance(15) {
        return Value::Null;
    }
    match ty {
        TypeName::Int => Value::Int(rng.below(7) as i64 - 3),
        TypeName::Float => Value::Float(*rng.pick(&[0.5, 1.0, 2.0, -1.0])),
        // Numeric-looking strings exercise the string ↔ number coercion.
        _ => Value::Str((*rng.pick(&["a", "b", "ab", "1", "2", ""])).to_string()),
    }
}

fn random_literal(rng: &mut Rng) -> String {
    (*rng.pick(&["0", "1", "2", "-1", "1.0", "0.5", "'a'", "'b'", "'1'", "'a%'", "NULL"]))
        .to_string()
}

/// A random scalar over the bound columns; may be ill-typed on purpose
/// (arithmetic on text, division by zero) so the error path is compared.
fn random_scalar(rng: &mut Rng, cols: &[String]) -> String {
    match rng.below(10) {
        0..=5 => rng.pick(cols).clone(),
        6 => random_literal(rng),
        7 => format!("-{}", rng.pick(cols)),
        _ => format!("{} {} {}", rng.pick(cols), rng.pick(&["+", "-", "*", "/"]), {
            if rng.chance(50) {
                rng.pick(cols).clone()
            } else {
                random_literal(rng)
            }
        }),
    }
}

fn random_atom(rng: &mut Rng, cols: &[String]) -> String {
    match rng.below(12) {
        0..=3 => format!("{} {} {}", rng.pick(cols), rng.pick(&CMP), random_literal(rng)),
        // Column = column: a join edge when the bindings differ.
        4..=5 => format!("{} = {}", rng.pick(cols), rng.pick(cols)),
        6 => {
            format!("{} {} {}", random_scalar(rng, cols), rng.pick(&CMP), random_scalar(rng, cols))
        }
        7 => format!(
            "{} {}IN ({}, {})",
            rng.pick(cols),
            if rng.chance(30) { "NOT " } else { "" },
            random_literal(rng),
            random_scalar(rng, cols)
        ),
        8 => format!(
            "{} BETWEEN {} AND {}",
            random_scalar(rng, cols),
            random_literal(rng),
            random_scalar(rng, cols)
        ),
        9 => format!("{} LIKE {}", rng.pick(cols), rng.pick(&["'a%'", "'%b'", "'_'", "'1'"])),
        10 => format!("{} IS {}NULL", rng.pick(cols), if rng.chance(50) { "NOT " } else { "" }),
        // Constant conjuncts: empty binding set, applied at the first binding.
        _ => (*rng.pick(&["1 = 1", "1 = 0", "1 / 0 = 1", "NULL = 1"])).to_string(),
    }
}

fn random_case(seed: u64) -> (Fixed, String) {
    let mut rng = Rng(seed);
    let mut tables = BTreeMap::new();
    let mut schemas: Vec<Vec<(String, TypeName)>> = Vec::new();
    for t in 0..1 + rng.below(3) {
        let cols: Vec<(String, TypeName)> =
            (0..2 + rng.below(3)).map(|c| (format!("c{c}"), *rng.pick(&TYPES))).collect();
        let rows = (0..rng.below(13))
            .map(|r| {
                // Tids need not be dense or unique (backlog relations repeat them).
                let tid = Tid((10 * (t + 1) + r / 2) as u64);
                (tid, cols.iter().map(|(_, ty)| random_value(&mut rng, *ty)).collect())
            })
            .collect();
        let name = Ident::new(format!("t{t}"));
        let schema = Schema::of(&cols.iter().map(|(n, ty)| (n.as_str(), *ty)).collect::<Vec<_>>());
        tables.insert(name.clone(), Arc::new(Relation { name, schema, rows }));
        schemas.push(cols);
    }

    // FROM: 1–3 bindings, tables may repeat (self-joins), each aliased.
    let from: Vec<usize> = (0..1 + rng.below(3)).map(|_| rng.below(schemas.len())).collect();
    let cols: Vec<String> = from
        .iter()
        .enumerate()
        .flat_map(|(b, t)| schemas[*t].iter().map(move |(c, _)| format!("x{b}.{c}")))
        .collect();

    let mut select: Vec<String> = Vec::new();
    for _ in 0..1 + rng.below(3) {
        select.push(match rng.below(6) {
            0 => "*".to_string(),
            1 => format!("x{}.*", rng.below(from.len())),
            2 => format!("{} AS e", random_scalar(&mut rng, &cols)),
            _ => rng.pick(&cols).clone(),
        });
    }
    let mut sql = format!(
        "SELECT {}{} FROM {}",
        if rng.chance(30) { "DISTINCT " } else { "" },
        select.join(", "),
        from.iter().enumerate().map(|(b, t)| format!("t{t} x{b}")).collect::<Vec<_>>().join(", ")
    );
    let conjuncts: Vec<String> = (0..rng.below(5))
        .map(|_| {
            let atom = random_atom(&mut rng, &cols);
            match rng.below(8) {
                0 => format!("({atom} OR {})", random_atom(&mut rng, &cols)),
                1 => format!("NOT ({atom})"),
                _ => atom,
            }
        })
        .collect();
    if !conjuncts.is_empty() {
        sql.push_str(&format!(" WHERE {}", conjuncts.join(" AND ")));
    }
    if rng.chance(40) {
        let keys: Vec<String> = (0..1 + rng.below(2))
            .map(|_| {
                let dir = if rng.chance(50) { " DESC" } else { "" };
                format!("{}{dir}", random_scalar(&mut rng, &cols))
            })
            .collect();
        sql.push_str(&format!(" ORDER BY {}", keys.join(", ")));
    }
    if rng.chance(30) {
        sql.push_str(&format!(" LIMIT {}", rng.below(5)));
    }
    (Fixed(tables), sql)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn executor_matches_reference(seed in any::<u64>()) {
        let (provider, sql) = random_case(seed);
        let query = parse_query(&sql).map_err(|e| format!("generator wrote bad SQL `{sql}`: {e}"))?;
        for strategy in [JoinStrategy::Auto, JoinStrategy::NestedLoop] {
            let want = reference(&provider, &query, strategy);
            let got = execute_query(&provider, &query, strategy);
            prop_assert_eq!(&got, &want, "{:?} on `{}`", strategy, sql);
        }
    }
}

/// The generator must reach the paths the differential is there to compare:
/// hash joins, residuals, errors, and non-empty results.
#[test]
fn generator_reaches_every_path() {
    let (mut joined, mut errors, mut non_empty, mut hashed) = (0, 0, 0, 0);
    for seed in 0..2000u64 {
        let (provider, sql) = random_case(seed);
        let query = parse_query(&sql).unwrap();
        match execute_query(&provider, &query, JoinStrategy::Auto) {
            Ok(rs) => {
                non_empty += usize::from(!rs.lineage.is_empty());
                joined += usize::from(rs.lineage.first().is_some_and(|l| l.len() > 1));
            }
            Err(_) => errors += 1,
        }
        if query.from.len() > 1 {
            let scope = Scope::new(
                query
                    .from
                    .iter()
                    .map(|t| (t.binding().clone(), provider.0[&t.name].schema.clone()))
                    .collect(),
            )
            .unwrap();
            let planned =
                query.selection.as_ref().map(|p| classify_conjuncts(p, &scope)).transpose();
            if let Ok(Some(planned)) = planned {
                hashed += usize::from(planned.iter().any(|c| c.class == ConjunctClass::EquiJoin));
            }
        }
    }
    assert!(non_empty > 300, "non-empty results: {non_empty}");
    assert!(joined > 100, "multi-binding results: {joined}");
    assert!(hashed > 100, "queries with an equi-join edge: {hashed}");
    assert!(errors > 50, "erroring queries: {errors}");
}

// ------------------------------------------------ build-side swap, fixed

/// `big` rows keyed `i % 8` against `small` rows keyed 5, 2, 5, …: whichever
/// side the hash table is built over, lineage comes out prefix-major with
/// the new relation's rows in relation order — the nested loop's order.
fn swap_case(left_rows: usize, right_rows: usize) {
    let table = |name: &str, n: usize| {
        let rows = (0..n)
            .map(|i| {
                let key = if n < 8 { [5, 2, 5][i % 3] } else { i % 8 };
                (
                    Tid(i as u64 + 1),
                    vec![Value::Str(format!("k{key}")), Value::Int(i as i64)].into(),
                )
            })
            .collect();
        let schema = Schema::of(&[("k", TypeName::Text), ("v", TypeName::Int)]);
        Arc::new(Relation { name: Ident::new(name), schema, rows })
    };
    let mut m = BTreeMap::new();
    m.insert(Ident::new("l"), table("l", left_rows));
    m.insert(Ident::new("r"), table("r", right_rows));
    let provider = Fixed(m);
    let q = parse_query("SELECT l.v, r.v FROM l, r WHERE l.k = r.k").unwrap();
    let hash = execute_query(&provider, &q, JoinStrategy::Auto).unwrap();
    let nested = execute_query(&provider, &q, JoinStrategy::NestedLoop).unwrap();
    // Every key of the big side has 128 rows; every small row matches one key.
    assert_eq!(hash.lineage.len(), 128 * left_rows.min(right_rows));
    assert_eq!(hash.lineage, nested.lineage);
    assert_eq!(hash.rows, nested.rows);
    assert_eq!(hash, reference(&provider, &q, JoinStrategy::Auto).unwrap());
}

#[test]
fn small_prefix_joins_big_relation_in_nested_loop_order() {
    swap_case(1, 1024);
    swap_case(3, 1024);
}

#[test]
fn big_prefix_joins_small_relation_in_nested_loop_order() {
    swap_case(1024, 1);
    swap_case(1024, 3);
}
