//! Compilation and evaluation of expressions against row bindings.
//!
//! Expressions are compiled once per (expression, scope) pair: every column
//! reference is resolved to a flat slot index, so per-row evaluation does no
//! name lookups. A *scope* is an ordered list of table bindings; a *flat row*
//! is the concatenation of one row per binding.

use audex_sql::ast::{BinOp, ColumnRef, Expr, Literal, UnaryOp};
use audex_sql::Ident;
use std::borrow::Cow;

use crate::error::StorageError;
use crate::schema::Schema;
use crate::value::{ArithOp, Truth, Value};

/// An ordered set of table bindings forming the namespace of a query.
#[derive(Debug, Clone)]
pub struct Scope {
    bindings: Vec<(Ident, Schema)>,
    offsets: Vec<usize>,
    /// Flat slot → `(binding index, column index)`.
    slots: Vec<(usize, usize)>,
}

impl Scope {
    /// Builds a scope; binding names must be unique.
    pub fn new(bindings: Vec<(Ident, Schema)>) -> Result<Self, StorageError> {
        for (i, (name, _)) in bindings.iter().enumerate() {
            if bindings[..i].iter().any(|(n, _)| n == name) {
                return Err(StorageError::DuplicateBinding(name.clone()));
            }
        }
        Ok(Scope::laid_out(bindings))
    }

    /// A scope over a single table (one binding cannot collide, so this
    /// bypasses the duplicate check rather than unwrap its result).
    pub fn single(name: Ident, schema: Schema) -> Self {
        Scope::laid_out(vec![(name, schema)])
    }

    fn laid_out(bindings: Vec<(Ident, Schema)>) -> Self {
        let mut offsets = Vec::with_capacity(bindings.len());
        let mut slots = Vec::new();
        for (bi, (_, schema)) in bindings.iter().enumerate() {
            offsets.push(slots.len());
            slots.extend((0..schema.len()).map(|ci| (bi, ci)));
        }
        Scope { bindings, offsets, slots }
    }

    /// Number of bindings.
    pub fn binding_count(&self) -> usize {
        self.bindings.len()
    }

    /// Total flat-row width.
    pub fn width(&self) -> usize {
        self.slots.len()
    }

    /// The bindings in order.
    pub fn bindings(&self) -> &[(Ident, Schema)] {
        &self.bindings
    }

    /// Flat-slot offset of binding `idx`.
    pub fn offset(&self, idx: usize) -> usize {
        self.offsets[idx]
    }

    /// `(binding index, column index)` of flat slot `slot`.
    pub fn locate(&self, slot: usize) -> (usize, usize) {
        self.slots[slot]
    }

    /// Index of the binding that owns flat slot `slot`.
    pub fn binding_of(&self, slot: usize) -> usize {
        self.slots[slot].0
    }

    /// Index of the binding named `name`.
    pub fn binding_index(&self, name: &Ident) -> Option<usize> {
        self.bindings.iter().position(|(n, _)| n == name)
    }

    /// Resolves a column reference to `(binding index, flat slot)`.
    ///
    /// Unqualified names must match exactly one binding's schema.
    pub fn resolve(&self, col: &ColumnRef) -> Result<(usize, usize), StorageError> {
        match &col.table {
            Some(t) => {
                let bi =
                    self.binding_index(t).ok_or_else(|| StorageError::UnknownTable(t.clone()))?;
                let ci = self.bindings[bi]
                    .1
                    .position(&col.column)
                    .ok_or_else(|| StorageError::UnknownColumn(format!("{t}.{}", col.column)))?;
                Ok((bi, self.offsets[bi] + ci))
            }
            None => {
                let mut found = None;
                for (bi, (_, schema)) in self.bindings.iter().enumerate() {
                    if let Some(ci) = schema.position(&col.column) {
                        if found.is_some() {
                            return Err(StorageError::AmbiguousColumn(col.column.clone()));
                        }
                        found = Some((bi, self.offsets[bi] + ci));
                    }
                }
                found.ok_or_else(|| StorageError::UnknownColumn(col.column.value.clone()))
            }
        }
    }
}

/// What an expression is evaluated over: flat slot → value. Anything that
/// is a slice of values is one; the executor's index tuples are another, so
/// a predicate can test base rows in place without a flat row being built.
pub trait SlotView {
    /// The value in flat slot `slot`.
    fn slot(&self, slot: usize) -> &Value;
}

impl<T: AsRef<[Value]> + ?Sized> SlotView for T {
    fn slot(&self, slot: usize) -> &Value {
        &self.as_ref()[slot]
    }
}

/// A compiled expression: column references are flat slot indices.
#[derive(Debug, Clone)]
pub enum CompiledExpr {
    /// Slot load.
    Slot(usize),
    /// Constant.
    Const(Value),
    /// `NOT e`.
    Not(Box<CompiledExpr>),
    /// `-e`.
    Neg(Box<CompiledExpr>),
    /// Logical AND (three-valued).
    And(Box<CompiledExpr>, Box<CompiledExpr>),
    /// Logical OR (three-valued).
    Or(Box<CompiledExpr>, Box<CompiledExpr>),
    /// Comparison.
    Cmp(BinOp, Box<CompiledExpr>, Box<CompiledExpr>),
    /// Arithmetic.
    Arith(ArithOp, Box<CompiledExpr>, Box<CompiledExpr>),
    /// `LIKE`.
    Like {
        /// Tested expression.
        expr: Box<CompiledExpr>,
        /// Pattern expression.
        pattern: Box<CompiledExpr>,
        /// `NOT LIKE`.
        negated: bool,
    },
    /// `IN` list.
    InList {
        /// Tested expression.
        expr: Box<CompiledExpr>,
        /// Candidates.
        list: Vec<CompiledExpr>,
        /// `NOT IN`.
        negated: bool,
    },
    /// `BETWEEN`.
    Between {
        /// Tested expression.
        expr: Box<CompiledExpr>,
        /// Lower bound.
        low: Box<CompiledExpr>,
        /// Upper bound.
        high: Box<CompiledExpr>,
        /// `NOT BETWEEN`.
        negated: bool,
    },
    /// `IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<CompiledExpr>,
        /// `IS NOT NULL`.
        negated: bool,
    },
}

/// Compiles `expr` against `scope`.
pub fn compile(expr: &Expr, scope: &Scope) -> Result<CompiledExpr, StorageError> {
    Ok(match expr {
        Expr::Column(c) => CompiledExpr::Slot(scope.resolve(c)?.1),
        Expr::Literal(l) => CompiledExpr::Const(literal_value(l)),
        Expr::Unary { op: UnaryOp::Not, expr } => {
            CompiledExpr::Not(Box::new(compile(expr, scope)?))
        }
        Expr::Unary { op: UnaryOp::Neg, expr } => {
            CompiledExpr::Neg(Box::new(compile(expr, scope)?))
        }
        Expr::Binary { left, op, right } => {
            let l = Box::new(compile(left, scope)?);
            let r = Box::new(compile(right, scope)?);
            match op {
                BinOp::And => CompiledExpr::And(l, r),
                BinOp::Or => CompiledExpr::Or(l, r),
                BinOp::Add => CompiledExpr::Arith(ArithOp::Add, l, r),
                BinOp::Sub => CompiledExpr::Arith(ArithOp::Sub, l, r),
                BinOp::Mul => CompiledExpr::Arith(ArithOp::Mul, l, r),
                BinOp::Div => CompiledExpr::Arith(ArithOp::Div, l, r),
                BinOp::Mod => CompiledExpr::Arith(ArithOp::Mod, l, r),
                cmp => CompiledExpr::Cmp(*cmp, l, r),
            }
        }
        Expr::Like { expr, pattern, negated } => CompiledExpr::Like {
            expr: Box::new(compile(expr, scope)?),
            pattern: Box::new(compile(pattern, scope)?),
            negated: *negated,
        },
        Expr::InList { expr, list, negated } => CompiledExpr::InList {
            expr: Box::new(compile(expr, scope)?),
            list: list.iter().map(|e| compile(e, scope)).collect::<Result<_, _>>()?,
            negated: *negated,
        },
        Expr::Between { expr, low, high, negated } => CompiledExpr::Between {
            expr: Box::new(compile(expr, scope)?),
            low: Box::new(compile(low, scope)?),
            high: Box::new(compile(high, scope)?),
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => {
            CompiledExpr::IsNull { expr: Box::new(compile(expr, scope)?), negated: *negated }
        }
    })
}

/// Converts an AST literal to a runtime value.
pub fn literal_value(l: &Literal) -> Value {
    match l {
        Literal::Null => Value::Null,
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Int(v) => Value::Int(*v),
        Literal::Float(v) => Value::Float(*v),
        Literal::Str(s) => Value::Str(s.clone()),
        Literal::Ts(t) => Value::Ts(*t),
    }
}

impl CompiledExpr {
    /// Evaluates to a value over a flat row. Slot loads and constants are
    /// borrowed — the operands of nearly every comparison, so a filter
    /// allocates and copies nothing; only computed values are owned.
    #[inline]
    pub fn eval<'a, V: SlotView + ?Sized>(
        &'a self,
        row: &'a V,
    ) -> Result<Cow<'a, Value>, StorageError> {
        match self {
            CompiledExpr::Slot(i) => Ok(Cow::Borrowed(row.slot(*i))),
            CompiledExpr::Const(v) => Ok(Cow::Borrowed(v)),
            computed => computed.compute(row).map(Cow::Owned),
        }
    }

    fn compute<V: SlotView + ?Sized>(&self, row: &V) -> Result<Value, StorageError> {
        Ok(match self {
            // `eval` answers these by reference and never comes here.
            CompiledExpr::Slot(_) | CompiledExpr::Const(_) => self.eval(row)?.into_owned(),
            CompiledExpr::Not(e) => truth_to_value(e.truth(row)?.not()),
            CompiledExpr::Neg(e) => match e.eval(row)?.as_ref() {
                Value::Null => Value::Null,
                Value::Int(v) => {
                    Value::Int(v.checked_neg().ok_or(StorageError::ArithmeticOverflow)?)
                }
                Value::Float(v) => Value::Float(-v),
                other => {
                    return Err(StorageError::TypeMismatch {
                        operation: "-".into(),
                        left: "NUMBER",
                        right: other.type_name(),
                    })
                }
            },
            CompiledExpr::And(..)
            | CompiledExpr::Or(..)
            | CompiledExpr::Cmp(..)
            | CompiledExpr::Like { .. }
            | CompiledExpr::InList { .. }
            | CompiledExpr::Between { .. }
            | CompiledExpr::IsNull { .. } => truth_to_value(self.truth(row)?),
            CompiledExpr::Arith(op, l, r) => l.eval(row)?.arith(*op, r.eval(row)?.as_ref())?,
        })
    }

    /// Evaluates to three-valued truth over a flat row.
    pub fn truth<V: SlotView + ?Sized>(&self, row: &V) -> Result<Truth, StorageError> {
        Ok(match self {
            CompiledExpr::And(l, r) => {
                // Short circuit: False AND _ = False without evaluating _.
                let lt = l.truth(row)?;
                if lt == Truth::False {
                    Truth::False
                } else {
                    lt.and(r.truth(row)?)
                }
            }
            CompiledExpr::Or(l, r) => {
                let lt = l.truth(row)?;
                if lt == Truth::True {
                    Truth::True
                } else {
                    lt.or(r.truth(row)?)
                }
            }
            CompiledExpr::Not(e) => e.truth(row)?.not(),
            CompiledExpr::Cmp(op, l, r) => {
                let lv = l.eval(row)?;
                let rv = r.eval(row)?;
                match lv.sql_cmp(&rv) {
                    None => Truth::Unknown,
                    Some(ord) => Truth::from_bool(match op {
                        BinOp::Eq => ord == std::cmp::Ordering::Equal,
                        BinOp::NotEq => ord != std::cmp::Ordering::Equal,
                        BinOp::Lt => ord == std::cmp::Ordering::Less,
                        BinOp::LtEq => ord != std::cmp::Ordering::Greater,
                        BinOp::Gt => ord == std::cmp::Ordering::Greater,
                        BinOp::GtEq => ord != std::cmp::Ordering::Less,
                        _ => unreachable!("non-comparison in Cmp"),
                    }),
                }
            }
            CompiledExpr::Like { expr, pattern, negated } => {
                let t = expr.eval(row)?.sql_like(pattern.eval(row)?.as_ref());
                if *negated {
                    t.not()
                } else {
                    t
                }
            }
            CompiledExpr::InList { expr, list, negated } => {
                let v = expr.eval(row)?;
                let mut acc = Truth::False;
                for cand in list {
                    acc = acc.or(v.sql_eq(cand.eval(row)?.as_ref()));
                    if acc == Truth::True {
                        break;
                    }
                }
                if *negated {
                    acc.not()
                } else {
                    acc
                }
            }
            CompiledExpr::Between { expr, low, high, negated } => {
                let v = expr.eval(row)?;
                let ge = match v.sql_cmp(low.eval(row)?.as_ref()) {
                    None => Truth::Unknown,
                    Some(o) => Truth::from_bool(o != std::cmp::Ordering::Less),
                };
                let le = match v.sql_cmp(high.eval(row)?.as_ref()) {
                    None => Truth::Unknown,
                    Some(o) => Truth::from_bool(o != std::cmp::Ordering::Greater),
                };
                let t = ge.and(le);
                if *negated {
                    t.not()
                } else {
                    t
                }
            }
            CompiledExpr::IsNull { expr, negated } => {
                let t = Truth::from_bool(expr.eval(row)?.is_null());
                if *negated {
                    t.not()
                } else {
                    t
                }
            }
            other => match other.eval(row)?.as_ref() {
                Value::Null => Truth::Unknown,
                Value::Bool(b) => Truth::from_bool(*b),
                v => {
                    return Err(StorageError::TypeMismatch {
                        operation: "WHERE".into(),
                        left: "BOOL",
                        right: v.type_name(),
                    })
                }
            },
        })
    }

    /// Collects all slots read by this expression.
    pub fn slots(&self, out: &mut Vec<usize>) {
        match self {
            CompiledExpr::Slot(i) => out.push(*i),
            CompiledExpr::Const(_) => {}
            CompiledExpr::Not(e) | CompiledExpr::Neg(e) => e.slots(out),
            CompiledExpr::And(l, r) | CompiledExpr::Or(l, r) => {
                l.slots(out);
                r.slots(out);
            }
            CompiledExpr::Cmp(_, l, r) | CompiledExpr::Arith(_, l, r) => {
                l.slots(out);
                r.slots(out);
            }
            CompiledExpr::Like { expr, pattern, .. } => {
                expr.slots(out);
                pattern.slots(out);
            }
            CompiledExpr::InList { expr, list, .. } => {
                expr.slots(out);
                for e in list {
                    e.slots(out);
                }
            }
            CompiledExpr::Between { expr, low, high, .. } => {
                expr.slots(out);
                low.slots(out);
                high.slots(out);
            }
            CompiledExpr::IsNull { expr, .. } => expr.slots(out),
        }
    }
}

fn truth_to_value(t: Truth) -> Value {
    match t {
        Truth::True => Value::Bool(true),
        Truth::False => Value::Bool(false),
        Truth::Unknown => Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use audex_sql::ast::TypeName;
    use audex_sql::parse_query;

    fn scope2() -> Scope {
        Scope::new(vec![
            (
                Ident::new("P-Personal"),
                Schema::of(&[
                    ("pid", TypeName::Text),
                    ("age", TypeName::Int),
                    ("zipcode", TypeName::Text),
                ]),
            ),
            (
                Ident::new("P-Health"),
                Schema::of(&[("pid", TypeName::Text), ("disease", TypeName::Text)]),
            ),
        ])
        .unwrap()
    }

    fn where_expr(sql_where: &str) -> Expr {
        parse_query(&format!("SELECT pid FROM t WHERE {sql_where}")).unwrap().selection.unwrap()
    }

    use audex_sql::ast::Expr;

    #[test]
    fn qualified_resolution() {
        let s = scope2();
        let e = compile(&where_expr("P-Personal.pid = P-Health.pid"), &s).unwrap();
        let row =
            vec!["p2".into(), Value::Int(35), "145568".into(), "p2".into(), "diabetic".into()];
        assert_eq!(e.truth(&row).unwrap(), Truth::True);
    }

    #[test]
    fn unqualified_ambiguity_detected() {
        let s = scope2();
        let r = compile(&where_expr("pid = 'p2'"), &s);
        assert!(matches!(r, Err(StorageError::AmbiguousColumn(_))));
    }

    #[test]
    fn unqualified_unique_resolves() {
        let s = scope2();
        let e = compile(&where_expr("age < 30 AND disease = 'diabetic'"), &s).unwrap();
        let row = vec!["p1".into(), Value::Int(25), "x".into(), "p1".into(), "diabetic".into()];
        assert_eq!(e.truth(&row).unwrap(), Truth::True);
    }

    #[test]
    fn unknown_column_is_error() {
        let s = scope2();
        assert!(compile(&where_expr("height > 1"), &s).is_err());
        assert!(compile(&where_expr("P-Personal.disease = 'x'"), &s).is_err());
        assert!(compile(&where_expr("NoSuch.pid = 'x'"), &s).is_err());
    }

    #[test]
    fn null_propagation_in_where() {
        let s = Scope::single(Ident::new("t"), Schema::of(&[("a", TypeName::Int)]));
        let e = compile(&where_expr("a > 5"), &s).unwrap();
        assert_eq!(e.truth(&[Value::Null]).unwrap(), Truth::Unknown);
        let e = compile(&where_expr("NOT a > 5"), &s).unwrap();
        assert_eq!(e.truth(&[Value::Null]).unwrap(), Truth::Unknown);
        let e = compile(&where_expr("a IS NULL"), &s).unwrap();
        assert_eq!(e.truth(&[Value::Null]).unwrap(), Truth::True);
    }

    #[test]
    fn short_circuit_skips_errors() {
        // FALSE AND (1/0 = 1) must not raise.
        let s = Scope::single(Ident::new("t"), Schema::of(&[("a", TypeName::Int)]));
        let e = compile(&where_expr("a = 99 AND 1 / 0 = 1"), &s).unwrap();
        assert_eq!(e.truth(&[Value::Int(1)]).unwrap(), Truth::False);
        let e = compile(&where_expr("a = 1 OR 1 / 0 = 1"), &s).unwrap();
        assert_eq!(e.truth(&[Value::Int(1)]).unwrap(), Truth::True);
    }

    #[test]
    fn in_list_with_null_semantics() {
        let s = Scope::single(Ident::new("t"), Schema::of(&[("a", TypeName::Int)]));
        // 1 IN (2, NULL) is UNKNOWN, not FALSE.
        let e = compile(&where_expr("a IN (2, NULL)"), &s).unwrap();
        assert_eq!(e.truth(&[Value::Int(1)]).unwrap(), Truth::Unknown);
        let e = compile(&where_expr("a IN (1, NULL)"), &s).unwrap();
        assert_eq!(e.truth(&[Value::Int(1)]).unwrap(), Truth::True);
    }

    #[test]
    fn between_inclusive() {
        let s = Scope::single(Ident::new("t"), Schema::of(&[("a", TypeName::Int)]));
        let e = compile(&where_expr("a BETWEEN 1 AND 3"), &s).unwrap();
        assert_eq!(e.truth(&[Value::Int(1)]).unwrap(), Truth::True);
        assert_eq!(e.truth(&[Value::Int(3)]).unwrap(), Truth::True);
        assert_eq!(e.truth(&[Value::Int(4)]).unwrap(), Truth::False);
    }

    #[test]
    fn arithmetic_and_neg() {
        let s = Scope::single(Ident::new("t"), Schema::of(&[("a", TypeName::Int)]));
        let e = compile(&where_expr("-a + 10 > 5"), &s).unwrap();
        assert_eq!(e.truth(&[Value::Int(3)]).unwrap(), Truth::True);
        assert_eq!(e.truth(&[Value::Int(7)]).unwrap(), Truth::False);
    }

    #[test]
    fn slots_collection() {
        let s = scope2();
        let e = compile(&where_expr("age < 30 AND P-Health.disease = 'x'"), &s).unwrap();
        let mut slots = Vec::new();
        e.slots(&mut slots);
        slots.sort_unstable();
        assert_eq!(slots, vec![1, 4]);
    }

    #[test]
    fn scope_rejects_duplicate_bindings() {
        let schema = Schema::of(&[("a", TypeName::Int)]);
        let r = Scope::new(vec![(Ident::new("t"), schema.clone()), (Ident::new("T"), schema)]);
        assert!(matches!(r, Err(StorageError::DuplicateBinding(_))));
    }
}
