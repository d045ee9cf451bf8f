//! Conjunct splitting and classification (the planner).

use audex_sql::ast::{BinOp, Expr};

use crate::error::StorageError;
use crate::eval::{compile, CompiledExpr, Scope};

/// How a conjunct participates in the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConjunctClass {
    /// References columns of exactly one binding: pushed below the join.
    SingleBinding,
    /// `colA = colB` across two bindings: a join edge.
    EquiJoin,
    /// Anything else: evaluated once all its bindings are joined.
    Residual,
}

/// A compiled, classified conjunct.
pub struct PlannedConjunct {
    /// Compiled form.
    pub compiled: CompiledExpr,
    /// Sorted, deduplicated binding indices it references.
    pub bindings: Vec<usize>,
    /// Classification.
    pub class: ConjunctClass,
    /// For equi-joins: the two column slots.
    pub equi_slots: Option<(usize, usize)>,
}

/// Splits a predicate into top-level AND conjuncts (left-deep flattening).
pub fn split_conjuncts(pred: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        match e {
            Expr::Binary { left, op: BinOp::And, right } => {
                walk(left, out);
                walk(right, out);
            }
            other => out.push(other),
        }
    }
    walk(pred, &mut out);
    out
}

/// Compiles and classifies every top-level conjunct of `pred`.
pub fn classify_conjuncts(
    pred: &Expr,
    scope: &Scope,
) -> Result<Vec<PlannedConjunct>, StorageError> {
    split_conjuncts(pred)
        .into_iter()
        .map(|c| {
            let compiled = compile(c, scope)?;
            let mut slots = Vec::new();
            compiled.slots(&mut slots);
            let mut bindings: Vec<usize> = slots.iter().map(|s| scope.binding_of(*s)).collect();
            bindings.sort_unstable();
            bindings.dedup();

            let class = if bindings.len() <= 1 {
                ConjunctClass::SingleBinding
            } else if let CompiledExpr::Cmp(BinOp::Eq, l, r) = &compiled {
                match (l.as_ref(), r.as_ref()) {
                    (CompiledExpr::Slot(a), CompiledExpr::Slot(b))
                        if scope.binding_of(*a) != scope.binding_of(*b) =>
                    {
                        ConjunctClass::EquiJoin
                    }
                    _ => ConjunctClass::Residual,
                }
            } else {
                ConjunctClass::Residual
            };

            let equi_slots = if class == ConjunctClass::EquiJoin {
                if let CompiledExpr::Cmp(_, l, r) = &compiled {
                    match (l.as_ref(), r.as_ref()) {
                        (CompiledExpr::Slot(a), CompiledExpr::Slot(b)) => Some((*a, *b)),
                        _ => None,
                    }
                } else {
                    None
                }
            } else {
                None
            };

            Ok(PlannedConjunct { compiled, bindings, class, equi_slots })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use audex_sql::ast::TypeName;
    use audex_sql::parse_query;
    use audex_sql::Ident;

    fn scope() -> Scope {
        Scope::new(vec![
            (Ident::new("a"), Schema::of(&[("x", TypeName::Int), ("k", TypeName::Text)])),
            (Ident::new("b"), Schema::of(&[("y", TypeName::Int), ("k2", TypeName::Text)])),
        ])
        .unwrap()
    }

    fn pred(sql_where: &str) -> Expr {
        parse_query(&format!("SELECT x FROM t WHERE {sql_where}")).unwrap().selection.unwrap()
    }

    use audex_sql::ast::Expr;

    #[test]
    fn split_flattens_nested_ands() {
        let p = pred("x = 1 AND (y = 2 AND k = 'a') AND k2 = 'b'");
        assert_eq!(split_conjuncts(&p).len(), 4);
    }

    #[test]
    fn or_is_one_conjunct() {
        let p = pred("x = 1 OR y = 2");
        assert_eq!(split_conjuncts(&p).len(), 1);
    }

    #[test]
    fn classification() {
        let s = scope();
        let planned = classify_conjuncts(&pred("x < 5 AND a.k = b.k2 AND x + y = 3"), &s).unwrap();
        assert_eq!(planned[0].class, ConjunctClass::SingleBinding);
        assert_eq!(planned[0].bindings, vec![0]);
        assert_eq!(planned[1].class, ConjunctClass::EquiJoin);
        assert!(planned[1].equi_slots.is_some());
        assert_eq!(planned[2].class, ConjunctClass::Residual);
        assert_eq!(planned[2].bindings, vec![0, 1]);
    }

    #[test]
    fn same_table_equality_is_single_binding() {
        let s = scope();
        let planned = classify_conjuncts(&pred("a.x = 3"), &s).unwrap();
        assert_eq!(planned[0].class, ConjunctClass::SingleBinding);
    }

    #[test]
    fn constant_conjunct_is_single_binding_class() {
        let s = scope();
        let planned = classify_conjuncts(&pred("1 = 1"), &s).unwrap();
        assert_eq!(planned[0].class, ConjunctClass::SingleBinding);
        assert!(planned[0].bindings.is_empty());
    }
}
